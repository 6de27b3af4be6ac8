//! The recorder implementation: striped lock-free
//! counters, relaxed-atomic histograms, a mutex-guarded *registration*
//! path (never taken while recording), and the process-wide kill switch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::{bucket_of, HistSnap, Snapshot, HIST_BUCKETS};

/// Process-wide runtime kill switch. Default **on**; `set_enabled(false)`
/// turns every record into an early return (handles stay valid, snapshots
/// keep whatever was recorded before). Flipping it between otherwise
/// identical runs prices recording from one binary.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn recording on or off process-wide (observe-only paths unaffected:
/// reads, snapshots, and exports always work).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether recording is currently enabled (a relaxed load; the first check
/// every record path makes).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stripe count for counters: enough that the writer thread, a handful of
/// readers, and test harness threads rarely share a cell.
const STRIPES: usize = 8;

/// One cache line per stripe so concurrent `fetch_add`s from different
/// threads don't false-share.
#[repr(align(64))]
struct PadCell(AtomicU64);

fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

struct CounterCell {
    stripes: [PadCell; STRIPES],
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            stripes: std::array::from_fn(|_| PadCell(AtomicU64::new(0))),
        }
    }

    fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A lock-free monotonic counter. Cloning shares the underlying cells.
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v` (relaxed `fetch_add` on this thread's stripe).
    #[inline]
    pub fn add(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.0.stripes[stripe()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current total (sum over stripes).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.sum()
    }
}

/// A last-write-wins level (queue depth, generation). Cloning shares.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Store `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A power-of-two-bucket histogram (65 buckets: `0`, then one per bit
/// position). Recording is three relaxed atomic ops; snapshots derive
/// `p50`/`p99` from bucket upper bounds and keep the exact `max`.
#[derive(Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let c = &self.0;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Start a span: the returned guard records the elapsed nanoseconds
    /// into this histogram when dropped. When recording is disabled the
    /// guard is inert and no clock is read.
    #[must_use]
    pub fn time(&self) -> SpanTimer<'_> {
        SpanTimer {
            target: enabled().then(|| (self, Instant::now())),
        }
    }

    fn snap(&self) -> HistSnap {
        let c = &self.0;
        HistSnap {
            buckets: c
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// Span guard from [`Histogram::time`]: records elapsed ns on drop.
pub struct SpanTimer<'a> {
    target: Option<(&'a Histogram, Instant)>,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some((h, start)) = self.target.take() {
            h.record(start.elapsed().as_nanos() as u64);
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named registry of metrics. Cloning shares the registry; handles
/// returned by [`counter`](Recorder::counter) /
/// [`gauge`](Recorder::gauge) / [`histogram`](Recorder::histogram) are
/// cheap clones that record without ever touching the registry lock again
/// — the mutex guards *registration and snapshotting only*.
///
/// # Panics
///
/// Registering the same name as two different metric kinds panics: that is
/// a wiring bug, caught at handle-creation time, never on the record path.
#[derive(Clone, Default)]
pub struct Recorder {
    registry: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Recorder {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Recorder::default()
    }

    /// The counter registered under `name`, creating it on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = self.registry.lock().unwrap();
        match reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(CounterCell::new()))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut reg = self.registry.lock().unwrap();
        match reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut reg = self.registry.lock().unwrap();
        match reg.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistCell {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Capture every registered metric into a plain-data [`Snapshot`]
    /// (relaxed loads; concurrent recording keeps going).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let reg = self.registry.lock().unwrap();
        let mut snap = Snapshot::default();
        for (name, m) in reg.iter() {
            match m {
                Metric::Counter(c) => snap.put_counter(name, c.get()),
                Metric::Gauge(g) => snap.put_gauge(name, g.get()),
                Metric::Histogram(h) => snap.put_hist(name, &h.snap()),
            }
        }
        snap
    }
}

/// The process-wide recorder used by layers with no natural owner to
/// thread a registry through (the contraction engine, the query planner).
/// Everything recorded here is an aggregate over *all* structures in the
/// process — per-service metrics live on the service's own recorder.
#[must_use]
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests here share the process-wide `ENABLED` switch with each other;
    /// every test that records (or flips the switch) holds this lock so a
    /// paused switch can't eat a sibling's recordings.
    fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Counters striped across threads sum exactly; histogram bucket
    /// totals survive concurrent recording (merge-across-threads is the
    /// snapshot of the shared cells).
    #[test]
    fn concurrent_recording_sums_exactly() {
        let _serial = switch_lock();
        let rec = Recorder::new();
        let c = rec.counter("hits");
        let h = rec.histogram("vals");
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        let stats = rec.snapshot().histogram("vals").unwrap();
        assert_eq!(stats.count, 4000);
        assert_eq!(stats.max, 3999);
    }

    /// Snapshots under a fixed recording order are identical: same
    /// history, same snapshot, same exports.
    #[test]
    fn snapshot_determinism_under_fixed_order() {
        let _serial = switch_lock();
        let run = || {
            let rec = Recorder::new();
            let h = rec.histogram("lat");
            for v in [3u64, 9, 1, 255, 256, 0] {
                h.record(v);
            }
            rec.gauge("depth").set(7);
            rec.counter("ops").add(6);
            rec.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    /// The same name always yields the same underlying metric; a kind
    /// mismatch panics at registration.
    #[test]
    fn registry_dedupes_by_name() {
        let _serial = switch_lock();
        let rec = Recorder::new();
        rec.counter("x").add(2);
        rec.counter("x").add(3);
        assert_eq!(rec.counter("x").get(), 5);
        let r2 = rec.clone();
        assert_eq!(r2.counter("x").get(), 5, "clones share the registry");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics_at_registration() {
        let rec = Recorder::new();
        let _ = rec.counter("x");
        let _ = rec.gauge("x");
    }

    /// The kill switch freezes recording without invalidating handles.
    /// (Serial with respect to other tests touching the switch: the whole
    /// test uses its own recorder and restores the default before exit.)
    #[test]
    fn kill_switch_freezes_recording() {
        let _serial = switch_lock();
        let rec = Recorder::new();
        let c = rec.counter("kc");
        c.add(2);
        set_enabled(false);
        c.add(100);
        let h = rec.histogram("kh");
        h.record(5);
        {
            let _span = h.time();
        }
        set_enabled(true);
        c.add(3);
        assert_eq!(c.get(), 5);
        assert_eq!(rec.snapshot().histogram("kh").unwrap().count, 0);
    }
}
