//! Replicated read-scaling tier: one group-committed admission log fanned
//! out to `k` independent replicas of the window structure, each owned by
//! its own writer thread with its own reader shards.
//!
//! A single [`crate::Service`] tops out when one reader pool saturates —
//! every query batch, no matter how many clients submit, funnels through
//! one writer's publish→serve→retire cycle. The replica tier multiplies
//! the read side without touching write semantics:
//!
//! ```text
//!   clients ──► admission thread ──► OpLog (WAL-framed, in memory)
//!    insert /      (Queue + DurCtl:    │ │ │
//!    expire         group commit,      │ │ └─► feeder 2 ─► replica 2
//!    barrier        log-before-bus)    │ └───► feeder 1 ─► replica 1
//!                                      └─────► feeder 0 ─► replica 0
//!   clients ──► serve_at(g, query) ── routed to any replica with fed ≥ g
//! ```
//!
//! Every thread here runs pieces of the single-service write pipeline
//! (`crate::shard`). The admission thread runs its group-commit step and
//! WAL writer, publishing each write group to the bus instead of applying
//! it. Each replica writer runs the `Service` writer core, fed one bus
//! record per message.
//!
//! * **One log, one order.** Every write is admitted exactly once, by a
//!   single admission thread that group-commits with the same step as the
//!   single-service writer (positions concatenate, deltas add) and
//!   appends one record per merged group to the [`OpLog`]. The record
//!   index *is* the generation — the same numbering the WAL store and the
//!   single-service writer use, which is what makes replicated answers
//!   comparable (and bit-identical) to a sequential replay.
//! * **The bus is the WAL format.** OpLog records are framed and encoded
//!   with `bimst_wal`'s `[len][crc32][payload]` frames and op codec, so a
//!   durable replica set appends the *same bytes* to disk (before the bus
//!   — log-before-publish) and a rejoining replica can switch seamlessly
//!   from disk replay ([`bimst_wal::ReplayCursor`]) to bus tailing at any
//!   record boundary.
//! * **Deterministic replicas.** Each replica applies the same record
//!   sequence to an identically-seeded structure, so at equal generation
//!   every replica is answer-identical — not merely converged. Its queue
//!   may merge consecutive records into one apply (the group counts every
//!   record it folds, so the generation still counts records), and
//!   queries are coalesced and served by the same publish→serve→retire
//!   protocol as the single service, so sharding is invisible here too.
//! * **Bounded-staleness routing.** [`ReplicaSet::serve_at`] routes a
//!   query to a replica whose *fed* watermark (records enqueued on its
//!   apply channel) has reached the caller's minimum generation. FIFO
//!   channel order then guarantees the query is answered at a generation
//!   ≥ the watermark: the feeder enqueues apply messages *before* it
//!   publishes the watermark, and the router enqueues the query *after*
//!   reading it. `serve_at(barrier().wait()?, ..)` is read-your-writes;
//!   `query` (min 0) is serve-anywhere.
//! * **Fail-stop per replica, not per set.** A killed replica stops
//!   serving; the router skips it. [`ReplicaSet::restart`] rebuilds it
//!   from the newest checkpoint — in-memory (installed by replica 0) or,
//!   for a durable set, replayed from the on-disk log — and its feeder
//!   catches up in [`ReplicaSetConfig::catchup_batch`]-sized batches
//!   until it rejoins the live bus. Checkpoint + replay is the same
//!   prefix-equivalence contract recovery pins, so a rejoined replica is
//!   again bit-identical at every generation it serves.
//!
//! `tests/prop_replicas.rs` pins the whole contract differentially:
//! every replica against a sequential replay at every barrier, including
//! a kill/restart mid-stream.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bimst_graphgen::Op;
use bimst_primitives::VertexId;
use bimst_sliding::WindowCheckpoint;
use bimst_wal::{
    decode_op, encode_op, write_frame, Checkpoint, Frames, Meta, ReplayCursor, Store, SyncPolicy,
};

use crate::shard::{self, checkpoint_of, Core, DurCtl, OpenWith, Queue, Req, Step};
use crate::{BarrierTicket, QueryReq, QueryTicket, ServeWindow, ServiceClosed, ServiceHandle};

/// Shape of a [`ReplicaSet`].
#[derive(Clone, Copy, Debug)]
pub struct ReplicaSetConfig {
    /// Number of replicas (logical copies of the window, each with its
    /// own writer thread and reader pool). Clamped to ≥ 1.
    pub replicas: usize,
    /// Reader workers *per replica* (see [`crate::ServiceConfig::readers`]).
    pub readers: usize,
    /// Capacity of each bounded queue: the admission queue and every
    /// per-replica apply queue. Clamped to ≥ 1.
    pub queue_cap: usize,
    /// Group-commit budget of the admission thread, in edges (see
    /// [`crate::ServiceConfig::write_budget`]).
    pub write_budget: usize,
    /// Replica 0 installs an in-memory checkpoint after at least this
    /// many write groups (= log records = generations; `0` = never;
    /// restarts then replay from generation 0 or the store's newest
    /// on-disk checkpoint). The durable constructors deliberately do
    /// **not** write mid-stream on-disk checkpoints: the store's
    /// segment-naming invariant ties checkpoint generation to the record
    /// count, which only the single admission thread knows — so restart
    /// positioning uses [`bimst_wal::ReplayCursor::seek`] instead.
    pub checkpoint_every: u64,
    /// How many log records a feeder reads per batch while catching up
    /// (and per bus poll when live); its `fed` watermark advances once
    /// per batch. Clamped to ≥ 1.
    pub catchup_batch: usize,
    /// When the admission thread fsyncs WAL appends (durable sets only;
    /// see [`crate::ServiceConfig::sync`]). Under [`SyncPolicy::Always`] the
    /// group-commit merge is disabled so record = op.
    pub sync: SyncPolicy,
}

impl Default for ReplicaSetConfig {
    fn default() -> Self {
        ReplicaSetConfig {
            replicas: 2,
            readers: 2,
            queue_cap: 1024,
            write_budget: 1 << 14,
            checkpoint_every: 1 << 12,
            catchup_batch: 4096,
            sync: SyncPolicy::GroupCommit,
        }
    }
}

/// The in-memory op bus: WAL-framed records appended once by the
/// admission thread, tailed independently by every feeder. `base` is the
/// generation of the first buffered record (> 0 only for a recovered
/// set, whose prefix lives in the store); nothing is pruned after boot,
/// so any feeder position ≥ `base` is always servable.
struct LogInner {
    base: u64,
    /// Concatenated `[len][crc32][payload]` frames.
    buf: Vec<u8>,
    /// Byte offset of each record's frame in `buf` (index = gen − base).
    offsets: Vec<usize>,
    /// Newest in-memory checkpoint (installed by replica 0); restarts
    /// rebuild from it instead of replaying the whole log.
    ckpt: Option<Checkpoint>,
    closed: bool,
}

struct OpLog {
    inner: Mutex<LogInner>,
    grew: Condvar,
    /// Mirror of `base + offsets.len()`, readable without the lock.
    gen: AtomicU64,
}

impl OpLog {
    fn new(base: u64, ckpt: Option<Checkpoint>) -> OpLog {
        OpLog {
            inner: Mutex::new(LogInner {
                base,
                buf: Vec::new(),
                offsets: Vec::new(),
                ckpt,
                closed: false,
            }),
            grew: Condvar::new(),
            gen: AtomicU64::new(base),
        }
    }

    /// Appends one record (one write group); returns the new generation.
    fn append(&self, op: &Op) -> u64 {
        let mut payload = Vec::with_capacity(bimst_wal::encoded_len(op));
        encode_op(op, &mut payload);
        let mut inner = self.inner.lock().unwrap();
        let at = inner.buf.len();
        inner.offsets.push(at);
        write_frame(&mut inner.buf, &payload);
        let gen = inner.base + inner.offsets.len() as u64;
        // Publish the new generation before waking tailing feeders: a
        // woken feeder re-reads under the lock anyway, the atomic is for
        // lock-free reads (router, metrics, barrier answers).
        self.gen.store(gen, Ordering::Release);
        drop(inner);
        self.grew.notify_all();
        gen
    }

    /// Blocks until records past `from` exist, then decodes up to `max`
    /// of them. `None` means no more will ever come: the log is closed
    /// and drained past `from`, or `stop` was raised.
    fn wait_batch(&self, from: u64, max: usize, stop: &AtomicBool) -> Option<Vec<Op>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            assert!(
                from >= inner.base,
                "bimst-service: replica feeder at generation {from} fell behind \
                 the bus base {} (restart from a checkpoint instead)",
                inner.base
            );
            let have = inner.base + inner.offsets.len() as u64;
            if from < have {
                let first = (from - inner.base) as usize;
                let count = ((have - from) as usize).min(max.max(1));
                let mut frames = Frames::new(&inner.buf[inner.offsets[first]..]);
                let mut ops = Vec::with_capacity(count);
                while ops.len() < count {
                    let payload = frames
                        .next_frame()
                        .expect("bimst-service: op bus frame missing for an indexed record");
                    ops.push(
                        decode_op(payload).expect("bimst-service: op bus record failed to decode"),
                    );
                }
                return Some(ops);
            }
            if stop.load(Ordering::Acquire) || inner.closed {
                return None;
            }
            let (guard, _) = self
                .grew
                .wait_timeout(inner, Duration::from_millis(50))
                .unwrap();
            inner = guard;
        }
    }

    /// Installs a checkpoint if it is newer than the current one.
    fn install_ckpt(&self, ck: Checkpoint) {
        let mut inner = self.inner.lock().unwrap();
        if inner
            .ckpt
            .as_ref()
            .is_none_or(|old| old.generation < ck.generation)
        {
            inner.ckpt = Some(ck);
        }
    }

    fn newest_ckpt(&self) -> Option<Checkpoint> {
        self.inner.lock().unwrap().ckpt.clone()
    }

    /// Marks the log complete (no more appends) and wakes every tailer.
    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.grew.notify_all();
    }

    /// Wakes every tailer so it can observe a raised stop flag.
    fn nudge(&self) {
        let _guard = self.inner.lock().unwrap();
        self.grew.notify_all();
    }

    fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }
}

/// The admission loop: single consumer of the client-facing write queue,
/// single producer of the op bus (and, for a durable set, the WAL store).
/// The write path is **log before publish**: a group's record hits the
/// store (and is fsynced, per policy) before any replica can observe it
/// on the bus, so no served answer can ever out-run the disk — and a
/// rejoining replica's disk replay always covers every generation the bus
/// has published.
fn admission_main(mut q: Queue, log: Arc<OpLog>, mut dur: Option<DurCtl>) {
    let mut run = Vec::new();
    while let Some(step) = q.next(log.generation(), &mut run) {
        match step {
            Step::Write(op, _) => {
                if let Some(d) = dur.as_mut() {
                    d.log(&op);
                }
                log.append(&op);
            }
            Step::Barrier(resp) => {
                let _ = resp.send(log.generation());
            }
            Step::Serve | Step::Metrics(_) => {
                unreachable!("bimst-service: the admission queue carries writes and barriers only")
            }
        }
    }
    if let Some(d) = dur {
        d.close();
    }
    log.close();
}

/// One feeder: tails the log (optionally a disk prefix first, for a
/// rejoin) and pushes one apply message per record to its replica's
/// writer.
/// The `fed` watermark is published only *after* the records it covers
/// are enqueued — that ordering is the entire freshness guarantee.
struct Feeder {
    log: Arc<OpLog>,
    tx: SyncSender<Req>,
    fed: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    notify: Arc<(Mutex<()>, Condvar)>,
    /// `(cursor, until)`: replay from disk up to generation `until`
    /// (the bus generation at restart time), then switch to the bus.
    disk: Option<(ReplayCursor, u64)>,
    pos: u64,
    batch: usize,
}

impl Feeder {
    fn run(mut self) {
        if let Some((mut cur, until)) = self.disk.take() {
            // Disk phase. The admission thread appends to the store
            // before the bus, so the store always holds every record the
            // bus has published: this loop terminates at `until` without
            // ever waiting on the file.
            while self.pos < until && !self.stop.load(Ordering::Acquire) {
                let want = ((until - self.pos) as usize).min(self.batch.max(1));
                let ops = cur
                    .next_batch(want)
                    .expect("bimst-service: replica rejoin replay failed");
                assert!(
                    !ops.is_empty(),
                    "bimst-service: WAL ended at generation {} but the bus reached {until} \
                     (log-before-publish violated?)",
                    self.pos
                );
                if !self.ship(ops) {
                    return;
                }
            }
        }
        // Bus phase: tail until the log closes (orderly shutdown, after
        // draining — nothing admitted is skipped) or the stop flag is
        // raised (kill).
        while let Some(ops) = self.log.wait_batch(self.pos, self.batch, &self.stop) {
            if !self.ship(ops) {
                return;
            }
        }
    }

    /// Enqueues a decoded record run, one message per record, then
    /// publishes the watermark and wakes the router. Returns `false` if
    /// the writer is gone (killed replica).
    fn ship(&mut self, ops: Vec<Op>) -> bool {
        let advanced = ops.len() as u64;
        for op in ops {
            let req = match op {
                Op::Insert(edges) => Req::Insert(edges),
                Op::Expire(delta) => Req::Expire(delta),
                // The admission thread only logs writes; a foreign record
                // kind still occupies a generation, so it must advance
                // the replica's count to keep numbering aligned.
                _ => Req::Expire(0),
            };
            if self.tx.send(req).is_err() {
                return false;
            }
        }
        self.pos += advanced;
        // Watermark after enqueue: a router that reads `fed ≥ g` and then
        // sends a query on the same FIFO channel knows the apply messages
        // for every generation ≤ g sit ahead of it.
        self.fed.store(self.pos, Ordering::Release);
        let _guard = self.notify.0.lock().unwrap();
        self.notify.1.notify_all();
        true
    }
}

/// A replica writer to start over the window [`shard::open_window`]
/// rebuilds.
struct Writer {
    idx: usize,
    cfg: ReplicaSetConfig,
    rx: Receiver<Req>,
    base: u64,
    applied: Arc<AtomicU64>,
    log: Arc<OpLog>,
}

impl OpenWith for Writer {
    type Out = JoinHandle<()>;

    fn with<W: ServeWindow + WindowCheckpoint>(self, w: W) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("bimst-replica-writer-{}", self.idx))
            .spawn(move || replica_main(w, self))
            .expect("bimst-service: spawn replica writer")
    }
}

/// One replica's writer loop: the single-service writer core, fed one
/// bus record per write message, so a write group advances the
/// generation by the records it folds. Replica 0 doubles as the set's
/// checkpointer.
fn replica_main<W: ServeWindow + WindowCheckpoint>(w: W, a: Writer) {
    let mut core = Core::new(w, a.base, a.cfg.readers, bimst_obs::Recorder::new());
    // Per-replica staleness: bus generation minus applied generation,
    // sampled after every apply. Keyed by index so a set-wide absorbed
    // snapshot keeps them apart (`gauges_with_prefix("replica_")`).
    let lag = core.obs.rec.gauge(&format!("replica_{}_lag", a.idx));
    // No edge budget: the admission thread already capped each record, and
    // applying every queued record at once pays the batch bound once.
    let mut q = Queue::new(a.rx, true, usize::MAX);
    let mut ckpt_gen = a.base;
    while let Some(step) = q.next(core.generation, &mut core.run) {
        match step {
            Step::Write(op, records) => {
                core.apply(&op, records, records);
                a.applied.store(core.generation, Ordering::Release);
                lag.set(a.log.generation().saturating_sub(core.generation));
            }
            Step::Serve => core.serve(),
            Step::Metrics(resp) => {
                let _ = resp.send(core.metrics());
            }
            // Barriers resolve on the admission thread; none reach here.
            Step::Barrier(resp) => {
                let _ = resp.send(core.generation);
            }
        }
        // Replica 0 is the checkpointer: the checkpoint is installed on
        // the bus, not the store (see `ReplicaSetConfig::checkpoint_every`),
        // so any replica can restart from it regardless of durability.
        let every = a.cfg.checkpoint_every;
        if a.idx == 0 && every != 0 && core.generation - ckpt_gen >= every {
            a.log.install_ckpt(checkpoint_of(&core.w, core.generation));
            ckpt_gen = core.generation;
        }
    }
    core.shutdown();
}

/// One replica's runtime handles, as the router sees them. `tx: None`
/// marks a killed replica (skipped by routing until restarted).
struct ReplicaSlot {
    tx: Option<SyncSender<Req>>,
    /// Records enqueued on the apply channel (the freshness watermark).
    fed: Arc<AtomicU64>,
    /// Records applied by the writer (drives the lag gauge; also the
    /// restart floor for tests).
    applied: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    feeder: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

/// `k` replicas of one logical sliding window behind one admission log.
///
/// Writes go through [`ReplicaSet::insert`] / [`ReplicaSet::expire`] and
/// are applied by every replica in the same order; reads go through
/// [`ReplicaSet::query`] (any replica) or [`ReplicaSet::serve_at`]
/// (bounded staleness). See the module docs for the protocol and the
/// README's *Replication* section for the freshness semantics table.
///
/// ```
/// use bimst_service::{QueryReq, ReplicaSet, ReplicaSetConfig};
///
/// let set = ReplicaSet::eager(100, 42, ReplicaSetConfig::default());
/// set.insert((0..98).map(|v| (v, v + 1)).collect()).unwrap();
/// let g = set.barrier().unwrap().wait().unwrap();
/// // Read-your-writes: served by any replica that has reached g.
/// let t = set.serve_at(g, QueryReq::WindowConnected(vec![(0, 98), (0, 99)])).unwrap();
/// let a = t.wait().unwrap();
/// assert!(a.generation >= g);
/// assert_eq!(a.resp.into_window_connected().unwrap(), vec![true, false]);
/// set.shutdown();
/// ```
pub struct ReplicaSet {
    log: Arc<OpLog>,
    /// The admission queue's client end (`None` once shut down).
    admit: Option<ServiceHandle>,
    admission: Option<JoinHandle<()>>,
    replicas: Vec<ReplicaSlot>,
    /// Round-robin cursor for fresh-enough replicas.
    rr: AtomicUsize,
    /// Router ↔ feeder rendezvous: feeders notify after advancing a
    /// watermark, `serve_at` waits here when no replica is fresh enough.
    notify: Arc<(Mutex<()>, Condvar)>,
    /// Router metrics (`replica_route_*`), folded into
    /// [`ReplicaSet::metrics_snapshot`].
    rec: bimst_obs::Recorder,
    route_queries: bimst_obs::Counter,
    route_lagged: bimst_obs::Counter,
    route_waits: bimst_obs::Counter,
    meta: Meta,
    dir: Option<PathBuf>,
    cfg: ReplicaSetConfig,
}

impl ReplicaSet {
    /// An in-memory replica set over eagerly-maintained windows
    /// ([`bimst_sliding::SwConnEager`]), each seeded identically.
    pub fn eager(n: usize, seed: u64, cfg: ReplicaSetConfig) -> ReplicaSet {
        ReplicaSet::boot(shard::meta(n, seed, true), None, 0, None, &[], cfg)
    }

    /// An in-memory replica set over lazily-maintained windows
    /// ([`bimst_sliding::SwConn`]).
    pub fn lazy(n: usize, seed: u64, cfg: ReplicaSetConfig) -> ReplicaSet {
        ReplicaSet::boot(shard::meta(n, seed, false), None, 0, None, &[], cfg)
    }

    /// A durable replica set: the admission thread writes every group to
    /// a fresh WAL store at `path` *before* publishing it to the
    /// replicas. [`ReplicaSet::recover`] resumes from the directory.
    pub fn eager_durable(
        path: impl AsRef<Path>,
        n: usize,
        seed: u64,
        cfg: ReplicaSetConfig,
    ) -> io::Result<ReplicaSet> {
        ReplicaSet::create(path.as_ref(), shard::meta(n, seed, true), cfg)
    }

    /// [`ReplicaSet::eager_durable`] over lazy windows.
    pub fn lazy_durable(
        path: impl AsRef<Path>,
        n: usize,
        seed: u64,
        cfg: ReplicaSetConfig,
    ) -> io::Result<ReplicaSet> {
        ReplicaSet::create(path.as_ref(), shard::meta(n, seed, false), cfg)
    }

    fn create(path: &Path, meta: Meta, cfg: ReplicaSetConfig) -> io::Result<ReplicaSet> {
        let store = Store::create(path, &meta)?;
        let dur = Some((path.to_path_buf(), store));
        Ok(ReplicaSet::boot(meta, dur, 0, None, &[], cfg))
    }

    /// Recovers a durable replica set from `path`: every replica is
    /// rebuilt from the newest on-disk checkpoint plus the intact log
    /// tail (exactly the single-service recovery contract), and the set
    /// resumes at the recovered generation.
    pub fn recover(path: impl AsRef<Path>, cfg: ReplicaSetConfig) -> io::Result<ReplicaSet> {
        let (store, meta, rec) = Store::open(&path)?;
        let dur = Some((path.as_ref().to_path_buf(), store));
        Ok(ReplicaSet::boot(
            meta,
            dur,
            rec.generation,
            rec.checkpoint,
            &rec.tail,
            cfg,
        ))
    }

    fn boot(
        meta: Meta,
        dur: Option<(PathBuf, Store)>,
        base: u64,
        ckpt: Option<Checkpoint>,
        tail: &[Op],
        cfg: ReplicaSetConfig,
    ) -> ReplicaSet {
        let rec = bimst_obs::Recorder::new();
        // No mid-stream disk checkpoints (see `checkpoint_every`); the
        // `wal_*` metrics land on the set's own recorder.
        let (dir, dur) = match dur {
            Some((dir, store)) => (Some(dir), Some(DurCtl::new(store, cfg.sync, 0, &rec))),
            None => (None, None),
        };
        let log = Arc::new(OpLog::new(base, ckpt.clone()));
        let notify = Arc::new((Mutex::new(()), Condvar::new()));
        let (admission_tx, admission_rx) = std::sync::mpsc::sync_channel(cfg.queue_cap.max(1));
        let merge = dur.as_ref().is_none_or(DurCtl::merges);
        let q = Queue::new(admission_rx, merge, cfg.write_budget);
        let admission = {
            let log = log.clone();
            std::thread::Builder::new()
                .name("bimst-replica-log".into())
                .spawn(move || admission_main(q, log, dur))
                .expect("bimst-service: spawn replica admission thread")
        };
        let mut set = ReplicaSet {
            log,
            admit: Some(ServiceHandle::new(admission_tx, &rec)),
            admission: Some(admission),
            replicas: Vec::new(),
            rr: AtomicUsize::new(0),
            notify,
            route_queries: rec.counter("replica_route_queries"),
            route_lagged: rec.counter("replica_route_lagged"),
            route_waits: rec.counter("replica_route_waits"),
            rec,
            meta,
            dir,
            cfg,
        };
        for i in 0..cfg.replicas.max(1) {
            let slot = set.spawn_slot(i, base, ckpt.as_ref(), tail, None);
            set.replicas.push(slot);
        }
        set
    }

    /// Builds one replica's window at `base` (checkpoint + replayed tail,
    /// the recovery rebuild) and spawns its writer + feeder. `disk` is a
    /// positioned replay cursor for a rejoin's catch-up phase.
    fn spawn_slot(
        &self,
        idx: usize,
        base: u64,
        ckpt: Option<&Checkpoint>,
        tail: &[Op],
        disk: Option<(ReplayCursor, u64)>,
    ) -> ReplicaSlot {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Req>(self.cfg.queue_cap.max(1));
        let fed = Arc::new(AtomicU64::new(base));
        let applied = Arc::new(AtomicU64::new(base));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = Writer {
            idx,
            cfg: self.cfg,
            rx,
            base,
            applied: applied.clone(),
            log: self.log.clone(),
        };
        let writer = shard::open_window(&self.meta, ckpt, tail, writer);
        let feeder = Feeder {
            log: self.log.clone(),
            tx: tx.clone(),
            fed: fed.clone(),
            stop: stop.clone(),
            notify: self.notify.clone(),
            disk,
            pos: base,
            batch: self.cfg.catchup_batch.max(1),
        };
        let feeder = std::thread::Builder::new()
            .name(format!("bimst-replica-feeder-{idx}"))
            .spawn(move || feeder.run())
            .expect("bimst-service: spawn replica feeder");
        ReplicaSlot {
            tx: Some(tx),
            fed,
            applied,
            stop,
            feeder: Some(feeder),
            writer: Some(writer),
        }
    }

    /// Number of replica slots (alive or killed).
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The admission log's generation: write groups admitted so far.
    pub fn generation(&self) -> u64 {
        self.log.generation()
    }

    fn admit(&self) -> Result<&ServiceHandle, ServiceClosed> {
        self.admit.as_ref().ok_or(ServiceClosed)
    }

    /// Admits an insert batch (blocking under backpressure). Applied by
    /// every replica in admission order.
    pub fn insert(&self, edges: Vec<(VertexId, VertexId)>) -> Result<(), ServiceClosed> {
        self.admit()?.insert(edges)
    }

    /// Admits an expiration of the `delta` oldest stream positions.
    pub fn expire(&self, delta: u64) -> Result<(), ServiceClosed> {
        self.admit()?.expire(delta)
    }

    /// Admits a write barrier: resolves with the generation `g` at which
    /// every previously-admitted write is logged and bus-visible.
    /// `serve_at(g, ..)` after it is read-your-writes on any replica.
    pub fn barrier(&self) -> Result<BarrierTicket, ServiceClosed> {
        self.admit()?.barrier()
    }

    /// Serves a query batch from any live replica (no freshness floor:
    /// the answering generation is whatever that replica has applied).
    pub fn query(&self, req: QueryReq) -> Result<QueryTicket, ServiceClosed> {
        self.serve_at(0, req)
    }

    /// Serves a query batch from a replica whose watermark has reached
    /// `min_gen` (lag-bounded freshness). Blocks while every live
    /// replica is behind; fails with [`ServiceClosed`] when none is
    /// alive. The answer's [`crate::Answered::generation`] is ≥ `min_gen`.
    pub fn serve_at(&self, min_gen: u64, req: QueryReq) -> Result<QueryTicket, ServiceClosed> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        self.route(start, self.replicas.len(), min_gen, req)
    }

    /// [`ReplicaSet::serve_at`] pinned to replica `i` — for tests and
    /// benchmarks that compare replicas directly. Blocks until replica
    /// `i`'s watermark reaches `min_gen`; [`ServiceClosed`] if it is
    /// killed.
    pub fn query_on(
        &self,
        i: usize,
        min_gen: u64,
        req: QueryReq,
    ) -> Result<QueryTicket, ServiceClosed> {
        self.route(i, 1, min_gen, req)
    }

    /// Sends the query to the first of the `count` slots from `start`
    /// (cyclically) whose watermark has reached `min_gen`.
    fn route(
        &self,
        start: usize,
        count: usize,
        min_gen: u64,
        req: QueryReq,
    ) -> Result<QueryTicket, ServiceClosed> {
        let (resp, rx) = std::sync::mpsc::channel();
        let at = bimst_obs::enabled().then(std::time::Instant::now);
        let mut msg = Req::Query { req, resp, at };
        loop {
            let mut behind = 0usize;
            for j in 0..count {
                let slot = &self.replicas[(start + j) % self.replicas.len()];
                let Some(tx) = slot.tx.as_ref() else { continue };
                if slot.fed.load(Ordering::Acquire) < min_gen {
                    behind += 1;
                    continue;
                }
                match tx.send(msg) {
                    Ok(()) => {
                        self.route_queries.inc();
                        if behind > 0 {
                            self.route_lagged.inc();
                        }
                        return Ok(QueryTicket { rx });
                    }
                    // Writer died (killed mid-route); try the next one.
                    Err(std::sync::mpsc::SendError(m)) => msg = m,
                }
            }
            if behind == 0 {
                return Err(ServiceClosed);
            }
            // Every live candidate is behind `min_gen`: wait for a feeder
            // to advance a watermark (or time out and re-scan, in case
            // the only fresh replica was killed while we slept).
            self.route_waits.inc();
            let guard = self.notify.0.lock().unwrap();
            let _ = self
                .notify
                .1
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap();
        }
    }

    /// Fail-stops replica `i`: its feeder is stopped and joined, its
    /// writer drains and exits, and the router skips the slot. Writes
    /// keep flowing — the log and the other replicas are untouched.
    pub fn kill(&mut self, i: usize) {
        let slot = &mut self.replicas[i];
        slot.stop.store(true, Ordering::Release);
        self.log.nudge();
        if let Some(f) = slot.feeder.take() {
            let _ = f.join();
        }
        slot.tx = None; // last sender: the writer drains and exits
        if let Some(w) = slot.writer.take() {
            let _ = w.join();
        }
    }

    /// Restarts a killed replica from the newest checkpoint. In-memory
    /// sets rebuild from the bus checkpoint (or generation 0) and replay
    /// the retained bus; durable sets position a [`ReplayCursor`] on the
    /// store and replay *from disk* up to the bus generation at restart
    /// time, then hand over to live bus tailing. Either way the rejoined
    /// replica is bit-identical to the others at every generation it
    /// serves (`tests/prop_replicas.rs` pins this differentially).
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        assert!(
            self.replicas[i].tx.is_none(),
            "bimst-service: restart of a live replica {i} (kill it first)"
        );
        let bus_ck = self.log.newest_ckpt();
        let (base, ck, disk) = match &self.dir {
            Some(dir) => {
                let start = ReplayCursor::open(dir)?;
                // Rebuild from the newer of the bus checkpoint and the
                // disk one (a recovered set's prefix lives only on disk).
                let bus_gen = bus_ck.as_ref().map_or(0, |c| c.generation);
                let disk_gen = start.checkpoint.as_ref().map_or(0, |c| c.generation);
                let (base, ck) = if bus_gen >= disk_gen {
                    (bus_gen, bus_ck)
                } else {
                    (disk_gen, start.checkpoint)
                };
                let mut cursor = start.cursor;
                cursor.seek(base);
                // Everything the bus has published is on disk already
                // (log-before-publish), so replay to the current bus
                // generation always terminates; the feeder then switches
                // to the bus, whose retained records cover `base ≥
                // log.base` onward.
                (base, ck, Some((cursor, self.log.generation())))
            }
            None => (bus_ck.as_ref().map_or(0, |c| c.generation), bus_ck, None),
        };
        let slot = self.spawn_slot(i, base, ck.as_ref(), &[], disk);
        self.replicas[i] = slot;
        Ok(())
    }

    /// Watermark diagnostics for replica `i`: `(fed, applied)` record
    /// counts (equal when the replica is idle and caught up).
    pub fn watermarks(&self, i: usize) -> (u64, u64) {
        let slot = &self.replicas[i];
        (
            slot.fed.load(Ordering::Acquire),
            slot.applied.load(Ordering::Acquire),
        )
    }

    /// One metrics snapshot for the whole set: router counters, every
    /// live replica's registry (per-replica lag gauges keyed
    /// `replica_<i>_lag`), and the process-global recorder.
    pub fn metrics_snapshot(&self) -> bimst_obs::Snapshot {
        let mut snap = self.rec.snapshot();
        for slot in &self.replicas {
            let Some(tx) = slot.tx.as_ref() else { continue };
            let (resp, rx) = std::sync::mpsc::channel();
            if tx.send(Req::Metrics(resp)).is_ok() {
                if let Ok(s) = rx.recv() {
                    snap.absorb(&s);
                }
            }
        }
        snap.absorb(&bimst_obs::global().snapshot());
        snap
    }

    /// Stops admission and drains everything, in dependency order: the
    /// admission thread finishes logging every admitted write and closes
    /// the bus; each feeder drains the bus tail into its replica and
    /// exits; each writer applies and answers everything queued, retires
    /// its readers, and exits. Every admitted op is applied by every
    /// live replica; every admitted query's ticket resolves.
    pub fn shutdown(mut self) {
        self.admit = None;
        if let Some(a) = self.admission.take() {
            let _ = a.join();
        }
        for slot in &mut self.replicas {
            if let Some(f) = slot.feeder.take() {
                let _ = f.join();
            }
            slot.tx = None;
            if let Some(w) = slot.writer.take() {
                let _ = w.join();
            }
        }
    }
}

impl Drop for ReplicaSet {
    /// Dropping without [`ReplicaSet::shutdown`] still drains, but
    /// detached: admission and replica threads finish in the background.
    fn drop(&mut self) {
        self.admit = None;
        for slot in &mut self.replicas {
            slot.tx = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Answered, QueryResp};

    fn tmpdir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "bimst-replica-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn ring(n: u32) -> Vec<(u32, u32)> {
        (0..n).map(|v| (v, (v + 1) % n)).collect()
    }

    /// Every replica answers bit-identically at a barrier generation,
    /// and `Answered::generation` respects the freshness floor.
    #[test]
    fn replicas_agree_at_barriers() {
        let set = ReplicaSet::eager(
            200,
            7,
            ReplicaSetConfig {
                replicas: 3,
                ..ReplicaSetConfig::default()
            },
        );
        let mut expect_gen = 0u64;
        for round in 0..10 {
            set.insert(ring(200)).unwrap();
            set.expire(50).unwrap();
            expect_gen += 2;
            let g = set.barrier().unwrap().wait().unwrap();
            assert_eq!(
                g, expect_gen,
                "round {round}: barrier counts admitted groups"
            );
            let req = QueryReq::WindowConnected(vec![(0, 100), (0, 199), (3, 4)]);
            let answers: Vec<Answered> = (0..3)
                .map(|i| {
                    let t = set.query_on(i, g, req.clone()).unwrap();
                    let a = t.wait().unwrap();
                    assert!(a.generation >= g, "replica {i} served below the floor");
                    a
                })
                .collect();
            assert_eq!(answers[0].resp, answers[1].resp, "round {round}");
            assert_eq!(answers[1].resp, answers[2].resp, "round {round}");
        }
        set.shutdown();
    }

    /// serve_at routes around a killed replica; restart rejoins from the
    /// bus checkpoint and answers identically again.
    #[test]
    fn kill_restart_rejoins_in_memory() {
        let mut set = ReplicaSet::lazy(
            100,
            11,
            ReplicaSetConfig {
                replicas: 2,
                checkpoint_every: 4,
                ..ReplicaSetConfig::default()
            },
        );
        for _ in 0..6 {
            set.insert(ring(100)).unwrap();
            set.expire(30).unwrap();
        }
        let g = set.barrier().unwrap().wait().unwrap();
        set.kill(1);
        // Routing skips the dead slot but stays serviceable.
        let t = set
            .serve_at(g, QueryReq::ComponentSize(vec![0, 50]))
            .unwrap();
        let live = t.wait().unwrap();
        for _ in 0..4 {
            set.insert(ring(100)).unwrap();
        }
        set.restart(1).unwrap();
        let g2 = set.barrier().unwrap().wait().unwrap();
        let a0 = set
            .query_on(0, g2, QueryReq::ComponentSize(vec![0, 50]))
            .unwrap()
            .wait()
            .unwrap();
        let a1 = set
            .query_on(1, g2, QueryReq::ComponentSize(vec![0, 50]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a0.resp, a1.resp, "rejoined replica diverged");
        assert_eq!(live.resp, QueryResp::ComponentSize(vec![100, 100]));
        set.shutdown();
    }

    /// A durable set's restart replays from disk; recover resumes the
    /// whole set at the logged generation.
    #[test]
    fn durable_restart_and_recover() {
        let dir = tmpdir("dur");
        let cfg = ReplicaSetConfig {
            replicas: 2,
            checkpoint_every: 0, // force restart to replay from gen 0
            ..ReplicaSetConfig::default()
        };
        let mut set = ReplicaSet::eager_durable(&dir, 64, 3, cfg).unwrap();
        for _ in 0..5 {
            set.insert(ring(64)).unwrap();
            set.expire(16).unwrap();
        }
        let g = set.barrier().unwrap().wait().unwrap();
        set.kill(0);
        set.insert(ring(64)).unwrap();
        set.restart(0).unwrap();
        let g2 = set.barrier().unwrap().wait().unwrap();
        assert!(g2 > g);
        let req = QueryReq::WindowConnected(vec![(0, 32), (1, 63)]);
        let a0 = set.query_on(0, g2, req.clone()).unwrap().wait().unwrap();
        let a1 = set.query_on(1, g2, req.clone()).unwrap().wait().unwrap();
        assert_eq!(a0.resp, a1.resp, "disk-replayed replica diverged");
        set.shutdown();

        // The same directory recovers into a fresh set at the same
        // generation, answering identically.
        let set = ReplicaSet::recover(&dir, cfg).unwrap();
        assert_eq!(set.generation(), g2);
        let a = set.serve_at(g2, req).unwrap().wait().unwrap();
        assert_eq!(a.resp, a0.resp, "recovered set diverged");
        set.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The watermark/lag plumbing: metrics expose per-replica lag keys
    /// and the router counters move.
    #[test]
    fn metrics_expose_replica_lag() {
        bimst_obs::set_enabled(true);
        if !bimst_obs::enabled() {
            return; // no-op obs build: nothing to observe
        }
        let set = ReplicaSet::eager(
            50,
            5,
            ReplicaSetConfig {
                replicas: 2,
                ..ReplicaSetConfig::default()
            },
        );
        set.insert(ring(50)).unwrap();
        let g = set.barrier().unwrap().wait().unwrap();
        let _ = set
            .serve_at(g, QueryReq::WindowConnected(vec![(0, 25)]))
            .unwrap()
            .wait()
            .unwrap();
        let snap = set.metrics_snapshot();
        assert!(snap.counter("replica_route_queries").unwrap_or(0) >= 1);
        assert!(snap.gauge("replica_0_lag").is_some());
        assert!(snap.gauge("replica_1_lag").is_some());
        let (fed, applied) = set.watermarks(0);
        assert!(fed >= applied);
        set.shutdown();
    }

    /// Under `Always` the admission queue must not merge: every admitted
    /// write is its own WAL record, so the barrier generation and the
    /// recovered generation both equal the op count.
    #[test]
    fn always_policy_is_per_op() {
        let dir = tmpdir("always");
        let cfg = ReplicaSetConfig {
            sync: SyncPolicy::Always,
            ..ReplicaSetConfig::default()
        };
        let set = ReplicaSet::eager_durable(&dir, 8, 2, cfg).unwrap();
        for i in 0..6u32 {
            set.insert(vec![(i % 7, i % 7 + 1)]).unwrap();
        }
        assert_eq!(set.barrier().unwrap().wait().unwrap(), 6);
        set.shutdown();
        let (_, _, rec) = Store::open(&dir).unwrap();
        assert_eq!(rec.generation, 6);
        assert_eq!(rec.tail.len(), 6, "one record per op under Always");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A durable set reports its WAL metrics: one record appended per
    /// write group, so the count equals the barrier generation.
    #[test]
    fn durable_set_reports_wal_metrics() {
        bimst_obs::set_enabled(true);
        if !bimst_obs::enabled() {
            return; // no-op obs build: nothing to observe
        }
        let dir = tmpdir("walobs");
        let set = ReplicaSet::lazy_durable(&dir, 16, 4, ReplicaSetConfig::default()).unwrap();
        for _ in 0..3 {
            set.insert(ring(16)).unwrap();
            set.expire(5).unwrap();
        }
        let g = set.barrier().unwrap().wait().unwrap();
        let snap = set.metrics_snapshot();
        assert_eq!(snap.counter("wal_records_appended"), Some(g));
        set.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
