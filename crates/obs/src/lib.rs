//! Zero-dependency metrics and tracing for the `bimst` serving stack.
//!
//! The stack's only runtime insight used to be ad-hoc `eprintln!` hooks and
//! after-the-fact bench medians. This crate gives every layer a structured,
//! always-available alternative that is cheap enough to leave on in the
//! single-writer hot path:
//!
//! * [`Counter`] — lock-free monotonic counts, striped over cache-padded
//!   per-thread cells so concurrent `inc`s never contend on one line;
//! * [`Gauge`] — a last-write-wins level (queue depth, generation);
//! * [`Histogram`] — power-of-two-bucket value/latency distributions with
//!   deterministic `p50`/`p99`/`max` snapshots and a span-style stage timer
//!   ([`Histogram::time`]) that records elapsed nanoseconds on drop;
//! * [`Recorder`] — a named registry of the above; [`Recorder::snapshot`]
//!   captures a point-in-time [`Snapshot`] that exports as JSON
//!   ([`Snapshot::to_json`]) and Prometheus text ([`Snapshot::to_prometheus`]).
//!
//! # Determinism contract
//!
//! Instrumentation is observe-only: handles never branch the code path that
//! records into them, and recording uses relaxed atomics only. A process-
//! wide runtime kill switch ([`set_enabled`]) turns every record into an
//! early return, so otherwise identical runs with it on and off price
//! recording from a single binary. [`Snapshot`] accessors and
//! exports iterate names in sorted order, so identical recorded histories
//! render identical output.
//!
//! ```
//! let rec = bimst_obs::Recorder::new();
//! rec.counter("requests").add(3);
//! let h = rec.histogram("latency_ns");
//! h.record(700);
//! {
//!     let _span = h.time(); // records elapsed ns on drop
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("requests"), Some(3));
//! assert_eq!(snap.histogram("latency_ns").unwrap().count, 2);
//! println!("{}", snap.to_json());
//! println!("{}", snap.to_prometheus());
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

mod real;

pub use real::{enabled, global, set_enabled, Counter, Gauge, Histogram, Recorder, SpanTimer};

/// Number of histogram buckets: one for the value `0`, then one per
/// power-of-two magnitude (`[2^(k-1), 2^k)` lands in bucket `k`), up to
/// bucket 64 for values with the top bit set.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a recorded value: `0` for `0`, else
/// `64 - v.leading_zeros()` (the position of the highest set bit, 1-based).
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    64 - v.leading_zeros() as usize
}

/// Inclusive upper bound of bucket `k`: the largest value that lands there.
#[inline]
#[must_use]
pub fn bucket_upper(k: usize) -> u64 {
    match k {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << k) - 1,
    }
}

/// Point-in-time statistics for one histogram, derived from a [`Snapshot`].
///
/// Quantiles are bucket upper bounds at the ceiling cumulative index
/// (`⌈q·count⌉`-th recorded value), capped at the exact observed `max`: with
/// few samples a floor index would read a `p99` below the worst sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistStats {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Median (bucket upper bound, capped at `max`).
    pub p50: u64,
    /// 99th percentile (bucket upper bound, capped at `max`).
    pub p99: u64,
    /// Exact largest recorded value.
    pub max: u64,
}

impl HistStats {
    /// Mean of the recorded values, or `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Raw per-histogram snapshot data: bucket counts plus exact sum and max.
/// Kept in full (not just derived stats) so snapshots from different
/// recorders merge exactly under [`Snapshot::absorb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnap {
    /// `HIST_BUCKETS` bucket counts.
    pub buckets: Vec<u64>,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for HistSnap {
    fn default() -> Self {
        HistSnap {
            buckets: vec![0; HIST_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnap {
    /// Total recorded values (sum of bucket counts).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Derived stats (count/sum/p50/p99/max) for this histogram.
    #[must_use]
    pub fn stats(&self) -> HistStats {
        let count = self.count();
        HistStats {
            count,
            sum: self.sum,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// Bucket-upper-bound quantile at the ceiling cumulative index, capped
    /// at the exact observed max. `0` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(k).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram's raw data into this one (bucket-wise adds,
    /// saturating sum, max of maxes). Associative and commutative.
    pub fn merge(&mut self, other: &HistSnap) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A point-in-time capture of every metric in one (or, after
/// [`absorb`](Snapshot::absorb), several) [`Recorder`]s.
///
/// Plain data; all accessors and exports iterate names in sorted order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistSnap>,
}

impl Snapshot {
    /// Insert (or add to) a counter value. Used by recorders and tests.
    pub fn put_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Insert a gauge value (last write wins).
    pub fn put_gauge(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Insert (or merge into) a histogram's raw data.
    pub fn put_hist(&mut self, name: &str, h: &HistSnap) {
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// Fold another snapshot into this one: counters add, gauges take the
    /// absorbed value, histograms merge bucket-wise.
    pub fn absorb(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Value of a named counter, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a named gauge, if recorded.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Derived stats of a named histogram, if recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistStats> {
        self.hists.get(name).map(HistSnap::stats)
    }

    /// All gauges whose name starts with `prefix`, in sorted name order.
    /// For indexed metric families — e.g. the replica tier's per-replica
    /// staleness gauges `replica_<i>_lag`, which a dashboard wants as one
    /// sweep rather than k point lookups.
    #[must_use]
    pub fn gauges_with_prefix<'a>(&'a self, prefix: &'a str) -> Vec<(&'a str, u64)> {
        self.gauges
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }

    /// True when nothing has been recorded (always true for no-op builds).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// JSON export: `{"counters": {..}, "gauges": {..}, "histograms":
    /// {name: {"count", "sum", "p50", "p99", "max"}}}`, names sorted.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{k}\": {v}");
            first = false;
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{k}\": {v}");
            first = false;
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.hists {
            let s = h.stats();
            let sep = if first { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{k}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                s.count, s.sum, s.p50, s.p99, s.max
            );
            first = false;
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Prometheus text-format export. Counters and gauges become one sample
    /// each; histograms become summary-style `{quantile=..}` samples plus
    /// `_sum`/`_count`/`_max`. Every metric name is prefixed `bimst_`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "# TYPE bimst_{k} counter\nbimst_{k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE bimst_{k} gauge\nbimst_{k} {v}");
        }
        for (k, h) in &self.hists {
            let s = h.stats();
            let _ = writeln!(out, "# TYPE bimst_{k} summary");
            let _ = writeln!(out, "bimst_{k}{{quantile=\"0.5\"}} {}", s.p50);
            let _ = writeln!(out, "bimst_{k}{{quantile=\"0.99\"}} {}", s.p99);
            let _ = writeln!(out, "bimst_{k}_sum {}", s.sum);
            let _ = writeln!(out, "bimst_{k}_count {}", s.count);
            let _ = writeln!(out, "bimst_{k}_max {}", s.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket boundaries: 0 is alone in bucket 0; each power of two opens
    /// a new bucket whose inclusive upper bound is the next power minus 1.
    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for k in 1..64 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_of(lo), k, "lower edge of bucket {k}");
            assert_eq!(bucket_of(hi), k, "upper edge of bucket {k}");
            assert_eq!(bucket_upper(k), hi);
        }
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    /// Merging histogram snapshots is associative and commutative — the
    /// per-thread stripes of a live histogram can land in any order.
    #[test]
    fn hist_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = HistSnap::default();
            for &v in vals {
                h.buckets[bucket_of(v)] += 1;
                h.sum = h.sum.saturating_add(v);
                h.max = h.max.max(v);
            }
            h
        };
        let a = mk(&[0, 1, 5, 900]);
        let b = mk(&[2, 2, 70_000]);
        let c = mk(&[u64::MAX, 3]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut a_bc = b.clone();
        a_bc.merge(&c);
        let mut left = a.clone();
        left.merge(&a_bc);
        assert_eq!(ab_c, left, "associativity");

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "commutativity");
        assert_eq!(ab_c.count(), 9);
    }

    /// Quantiles use the ceiling cumulative index over bucket upper bounds,
    /// capped at the exact max — deterministic for a fixed recording order.
    #[test]
    fn quantiles_are_bucket_upper_bounds_capped_at_max() {
        let mut h = HistSnap::default();
        for v in [1u64, 2, 3, 1000] {
            h.buckets[bucket_of(v)] += 1;
            h.sum += v;
            h.max = h.max.max(v);
        }
        // ranks: p50 -> 2nd of 4 -> bucket 2 (values 2,3) upper bound 3
        assert_eq!(h.quantile(0.50), 3);
        // p99 -> 4th of 4 -> bucket of 1000 upper bound 1023, capped at 1000
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.stats().max, 1000);
        let empty = HistSnap::default();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.stats().count, 0);
    }

    /// Snapshot exports iterate sorted names: the same recorded history
    /// renders byte-identical JSON and Prometheus text.
    #[test]
    fn snapshot_exports_are_deterministic_and_sorted() {
        let build = |order: &[(&str, u64)]| {
            let mut s = Snapshot::default();
            for &(k, v) in order {
                s.put_counter(k, v);
            }
            s.put_gauge("g", 7);
            let mut h = HistSnap::default();
            h.buckets[bucket_of(42)] += 1;
            h.sum = 42;
            h.max = 42;
            s.put_hist("lat", &h);
            s
        };
        let a = build(&[("zeta", 1), ("alpha", 2)]);
        let b = build(&[("alpha", 2), ("zeta", 1)]);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        let json = a.to_json();
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "sorted key order in the export");
        assert!(a
            .to_prometheus()
            .contains("bimst_lat{quantile=\"0.99\"} 42"));
    }

    /// `absorb` adds counters, overwrites gauges, and merges histograms.
    #[test]
    fn absorb_folds_snapshots() {
        let mut a = Snapshot::default();
        a.put_counter("c", 5);
        a.put_gauge("g", 1);
        let mut b = Snapshot::default();
        b.put_counter("c", 7);
        b.put_counter("only_b", 2);
        b.put_gauge("g", 9);
        let mut h = HistSnap::default();
        h.buckets[bucket_of(8)] += 1;
        h.sum = 8;
        h.max = 8;
        b.put_hist("lat", &h);
        a.absorb(&b);
        assert_eq!(a.counter("c"), Some(12));
        assert_eq!(a.counter("only_b"), Some(2));
        assert_eq!(a.gauge("g"), Some(9));
        assert_eq!(a.histogram("lat").unwrap().count, 1);
        assert!(!a.is_empty());
    }

    /// Prefix sweeps return exactly the matching gauge family, sorted —
    /// and nothing from lexicographic neighbors of the prefix range.
    #[test]
    fn gauges_with_prefix_sweeps_a_family() {
        let mut s = Snapshot::default();
        s.put_gauge("replica_0_lag", 3);
        s.put_gauge("replica_10_lag", 7);
        s.put_gauge("replica_2_lag", 0);
        s.put_gauge("replicz", 99); // past the prefix range
        s.put_gauge("repl", 98); // before it
        s.put_gauge("service_generation", 42);
        assert_eq!(
            s.gauges_with_prefix("replica_"),
            vec![
                ("replica_0_lag", 3),
                ("replica_10_lag", 7),
                ("replica_2_lag", 0),
            ]
        );
        assert!(s.gauges_with_prefix("nope_").is_empty());
        // The empty prefix is the whole gauge table.
        assert_eq!(s.gauges_with_prefix("").len(), 6);
    }
}
