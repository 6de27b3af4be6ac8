//! Replicated read-scaling tier: one group-committed admission log fanned
//! out to `k` replicas, each a [`crate::Service`] writer with its own
//! window, reader pool and recorder. It multiplies the read side of one
//! `Service` without touching write semantics:
//!
//! ```text
//!   clients ──► admission thread ──┬─► replica 0 (Service writer + readers)
//!    insert /    (Queue + DurCtl:  ├─► replica 1 (Service writer + readers)
//!    expire      log, send to all, └─► replica 2 (Service writer + readers)
//!    barrier     then publish g)          ▲
//!   clients ──► serve_at(g, query) ───────┘ once the set generation is ≥ g
//! ```
//!
//! * **One log, one order.** The admission thread group-commits with the
//!   `Service` writer's step, logs each group (durable sets), queues it on
//!   every live replica, and only then publishes the set generation. Every
//!   2¹⁵ groups (`ServiceConfig`'s default cadence) a durable set asks a
//!   live replica for a checkpoint through its queue and writes it to the
//!   store, so the log and recovery stay bounded. The admission thread
//!   admits no write while it waits for that checkpoint.
//! * **Replicas are `Service` writers** over identically seeded windows.
//!   A group a replica's queue merges advances its generation by every
//!   record it folds, and at equal generation every replica answers
//!   bit-identically to a sequential replay.
//! * **Bounded staleness by FIFO order.** [`ReplicaSet::serve_at`] waits
//!   until the set generation reaches the caller's `g`, then queues the
//!   query on a live replica, behind record `g`: the answer's generation
//!   is ≥ `g`. `serve_at(barrier().wait()?, ..)` is read-your-writes.
//! * **Fail-stop per replica, rejoin from a peer.** A replica that dies
//!   ([`ReplicaSet::kill`], or a poisoned serve) leaves the fan-out while
//!   the others serve on. [`ReplicaSet::restart`] rejoins it from a live
//!   peer's checkpoint, which recovery's prefix-equivalence contract makes
//!   bit-identical.
//!
//! `tests/prop_replicas.rs` pins the whole contract differentially:
//! every replica against a sequential replay at every barrier, including
//! a kill/restart mid-stream.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use bimst_primitives::VertexId;
use bimst_wal::{Checkpoint, Meta, Recovery, Store, SyncPolicy, Write};

use crate::shard::{self, DurCtl, Queue, Req, Run, Step};
use crate::{
    BarrierTicket, QueryReq, QueryTicket, Service, ServiceClosed, ServiceHandle, CHECKPOINT_EVERY,
};

/// Shape of a [`ReplicaSet`].
#[derive(Clone, Copy, Debug)]
pub struct ReplicaSetConfig {
    /// Number of replicas (logical copies of the window, each with its
    /// own writer thread and reader pool). Clamped to ≥ 1.
    pub replicas: usize,
    /// Threads answering queries *per replica*, the replica's writer
    /// included; `readers − 1` reader threads are spawned per replica (see
    /// [`crate::ServiceConfig::readers`]).
    pub readers: usize,
    /// Capacity of each bounded queue: the admission queue and every
    /// replica's writer queue. Clamped to ≥ 1.
    pub queue_cap: usize,
    /// Group-commit budget of the admission thread, in edges (see
    /// [`crate::ServiceConfig::write_budget`]).
    pub write_budget: usize,
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
            sync: SyncPolicy::GroupCommit,
        }
    }
}

/// What the admission thread shares with the router.
struct Shared {
    /// Per replica slot, its queue while it is in the fan-out. Emptied
    /// when the admission thread exits: no generation follows.
    fan: Mutex<Vec<Option<ServiceHandle>>>,
    /// Signalled whenever the generation moves or the fan-out closes.
    moved: Condvar,
    /// The set generation: write groups on every live replica's queue.
    /// Written under `fan`.
    gen: AtomicU64,
}

impl Shared {
    /// The fan-out. Each update is one assignment: a panic cannot break it.
    fn lock(&self) -> MutexGuard<'_, Vec<Option<ServiceHandle>>> {
        self.fan.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one write group on every live replica, then publishes its
    /// generation. A replica whose writer is gone leaves the fan-out.
    fn publish(&self, w: &Write) {
        let mut fan = self.lock();
        for slot in fan.iter_mut() {
            if let Some(h) = slot {
                if h.submit(Req::Write(w.clone())).is_err() {
                    *slot = None;
                }
            }
        }
        // After the sends: a router that reads this generation and then
        // queues a query finds the group ahead of it.
        self.gen.fetch_add(1, Ordering::Release);
        drop(fan);
        self.moved.notify_all();
    }

    /// A checkpoint of the window at the set generation, taken by the first
    /// live replica that answers. The request queues behind every
    /// published group (FIFO), so it is answered at exactly that
    /// generation. `None` if no live replica answers. Called by the
    /// admission thread only, between two groups.
    fn checkpoint(&self) -> Option<Checkpoint> {
        // Ask outside the lock: a replica answers only once it has applied
        // its queue, and routers and `kill` need the lock meanwhile.
        let live: Vec<ServiceHandle> = self.lock().iter().flatten().cloned().collect();
        let ck = live.iter().find_map(|h| {
            let (tx, rx) = std::sync::mpsc::channel();
            h.send(Req::Checkpoint(tx)).ok()?;
            rx.recv().ok()
        })?;
        let g = self.gen.load(Ordering::Acquire);
        assert_eq!(
            ck.generation, g,
            "bimst-service: replica checkpoint off the set generation"
        );
        Some(ck)
    }

    /// Blocks until the set generation reaches `g`; `false` if it never will.
    fn wait_for(&self, g: u64) -> bool {
        let mut fan = self.lock();
        while self.gen.load(Ordering::Acquire) < g {
            if fan.is_empty() {
                return false;
            }
            fan = self.moved.wait(fan).unwrap_or_else(PoisonError::into_inner);
        }
        true
    }
}

/// Closes the fan-out when the admission thread exits, in order or by a
/// WAL fail-stop: its replica handles drop and waiting routers wake.
struct CloseOnExit(Arc<Shared>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.lock().clear();
        self.0.moved.notify_all();
    }
}

/// The admission loop: the one consumer of the client write queue, the
/// one writer of the WAL store and the one sender of every replica's
/// records. **Log before publish**: a group's record hits the store (and
/// is fsynced, per policy) before any replica can apply it, so no served
/// answer can out-run the disk. A durable set's checkpoint cadence counts
/// logged groups; the checkpoint itself comes from a replica.
fn admission_main(mut q: Queue, shared: Arc<Shared>, mut dur: Option<DurCtl>) {
    let _close = CloseOnExit(shared.clone());
    let mut run = Vec::new();
    while let Some(step) = q.next(shared.gen.load(Ordering::Acquire), &mut run) {
        match step {
            Step::Write(op, _) => {
                if let Some(d) = dur.as_mut() {
                    d.log(&op);
                }
                shared.publish(&op);
                if let Some(d) = dur.as_mut() {
                    d.maybe_checkpoint(|| shared.checkpoint());
                }
            }
            Step::Barrier(resp) => {
                let _ = resp.send(shared.gen.load(Ordering::Acquire));
            }
            _ => unreachable!("bimst-service: admission carries writes and barriers only"),
        }
    }
    if let Some(d) = dur {
        d.close();
    }
}

/// One replica slot.
struct Replica {
    /// The replica (`None` once killed).
    svc: Option<Service>,
    /// Log records its writer has applied, published after every group.
    applied: Arc<AtomicU64>,
}

/// Starts replica `i`, whose writer thread rebuilds its window from what
/// `start` yields (a recovered store position, or a peer's checkpoint)
/// and then serves. If `start` yields nothing, the replica is dead.
fn spawn_replica(
    i: usize,
    meta: Meta,
    cfg: &ReplicaSetConfig,
    start: impl FnOnce() -> Option<Arc<Recovery>> + Send + 'static,
) -> Replica {
    let applied = Arc::new(AtomicU64::new(0));
    let (readers, published) = (cfg.readers, applied.clone());
    let name = format!("bimst-replica-{i}");
    let svc = Service::thread(&name, cfg.queue_cap, move |rx, rec| {
        let Some(from) = start() else { return };
        // One message per log record. No edge budget: admission capped each
        // record, and applying every queued one at once pays the batch
        // bound once.
        let q = Queue::new(rx, true, usize::MAX);
        let run = Run {
            applied: published,
            per_write: true,
            ..Run::new(q, from.generation, readers, rec)
        };
        shard::open_window(&meta, &from, run);
    });
    Replica {
        svc: Some(svc),
        applied,
    }
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
/// // Read-your-writes: served by any replica once the set reaches g.
/// let t = set.serve_at(g, QueryReq::WindowConnected(vec![(0, 98), (0, 99)])).unwrap();
/// let a = t.wait().unwrap();
/// assert!(a.generation >= g);
/// assert_eq!(a.resp.into_window_connected().unwrap(), vec![true, false]);
/// set.shutdown();
/// ```
pub struct ReplicaSet {
    // Dropped in field order: admission drains first, detached, then the
    // replicas drain what it sent them.
    /// The admission queue's client end.
    admit: ServiceHandle,
    admission: JoinHandle<()>,
    replicas: Vec<Replica>,
    shared: Arc<Shared>,
    /// Round-robin cursor over the replicas.
    rr: AtomicUsize,
    /// Router and WAL metrics (`replica_route_*`, `wal_*`).
    rec: bimst_obs::Recorder,
    route_queries: bimst_obs::Counter,
    route_waits: bimst_obs::Counter,
    meta: Meta,
    cfg: ReplicaSetConfig,
}

impl ReplicaSet {
    /// An in-memory replica set over eagerly-maintained windows
    /// ([`bimst_sliding::SwConnEager`]), each seeded identically.
    pub fn eager(n: usize, seed: u64, cfg: ReplicaSetConfig) -> ReplicaSet {
        ReplicaSet::boot(shard::meta(n, seed, true), None, Arc::default(), cfg)
    }

    /// An in-memory replica set over lazily-maintained windows
    /// ([`bimst_sliding::SwConn`]).
    pub fn lazy(n: usize, seed: u64, cfg: ReplicaSetConfig) -> ReplicaSet {
        ReplicaSet::boot(shard::meta(n, seed, false), None, Arc::default(), cfg)
    }

    /// A durable replica set: the admission thread writes every group to
    /// a fresh WAL store at `path` *before* sending it to the replicas.
    /// [`ReplicaSet::recover`] resumes from the directory.
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
        Ok(ReplicaSet::boot(meta, Some(store), Arc::default(), cfg))
    }

    /// Recovers a durable replica set from `path`: every replica is
    /// rebuilt from the newest on-disk checkpoint plus the intact log
    /// tail (exactly the single-service recovery contract), and the set
    /// resumes at the recovered generation.
    pub fn recover(path: impl AsRef<Path>, cfg: ReplicaSetConfig) -> io::Result<ReplicaSet> {
        let (store, meta, rec) = Store::open(&path)?;
        Ok(ReplicaSet::boot(meta, Some(store), Arc::new(rec), cfg))
    }

    fn boot(
        meta: Meta,
        store: Option<Store>,
        origin: Arc<Recovery>,
        cfg: ReplicaSetConfig,
    ) -> ReplicaSet {
        let rec = bimst_obs::Recorder::new();
        // The `wal_*` metrics land on the set's own recorder.
        let dur = store.map(|store| DurCtl::new(store, cfg.sync, CHECKPOINT_EVERY, &rec));
        let replicas: Vec<Replica> = (0..cfg.replicas.max(1))
            .map(|i| {
                let origin = origin.clone();
                spawn_replica(i, meta, &cfg, move || Some(origin))
            })
            .collect();
        let fan = replicas.iter().map(|r| r.svc.as_ref().map(Service::handle));
        let shared = Arc::new(Shared {
            fan: Mutex::new(fan.collect()),
            moved: Condvar::new(),
            gen: AtomicU64::new(origin.generation),
        });
        let (admit_tx, admit_rx) = std::sync::mpsc::sync_channel(cfg.queue_cap.max(1));
        let merge = dur.as_ref().is_none_or(DurCtl::merges);
        let (q, fan) = (
            Queue::new(admit_rx, merge, cfg.write_budget),
            shared.clone(),
        );
        let admission = std::thread::Builder::new()
            .name("bimst-replica-log".into())
            .spawn(move || admission_main(q, fan, dur))
            .expect("bimst-service: spawn replica admission thread");
        ReplicaSet {
            admit: ServiceHandle::new(admit_tx, &rec),
            admission,
            replicas,
            shared,
            rr: AtomicUsize::new(0),
            route_queries: rec.counter("replica_route_queries"),
            route_waits: rec.counter("replica_route_waits"),
            rec,
            meta,
            cfg,
        }
    }

    /// Number of replica slots (alive or killed).
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Replica slot `i`; panics naming `i` and `k` if there is none.
    fn slot(&self, i: usize) -> &Replica {
        let k = self.replicas.len();
        assert!(i < k, "bimst-service: no replica {i} in a set of {k}");
        &self.replicas[i]
    }

    /// The set generation: write groups admitted, logged and queued on
    /// every live replica.
    pub fn generation(&self) -> u64 {
        self.shared.gen.load(Ordering::Acquire)
    }

    /// Admits an insert batch (blocking under backpressure). Applied by
    /// every replica in admission order.
    pub fn insert(&self, edges: Vec<(VertexId, VertexId)>) -> Result<(), ServiceClosed> {
        self.admit.insert(edges)
    }

    /// Admits an expiration of the `delta` oldest stream positions.
    pub fn expire(&self, delta: u64) -> Result<(), ServiceClosed> {
        self.admit.expire(delta)
    }

    /// Admits a write barrier: resolves with the generation `g` at which
    /// every previously-admitted write is logged and queued on every live
    /// replica. `serve_at(g, ..)` after it is read-your-writes.
    pub fn barrier(&self) -> Result<BarrierTicket, ServiceClosed> {
        self.admit.barrier()
    }

    /// Serves a query batch from any live replica (no freshness floor:
    /// the answering generation is whatever that replica has applied).
    pub fn query(&self, req: QueryReq) -> Result<QueryTicket, ServiceClosed> {
        self.serve_at(0, req)
    }

    /// Serves a query batch from a live replica once the set generation
    /// has reached `min_gen` (lag-bounded freshness). Blocks while the set
    /// is behind; fails with [`ServiceClosed`] when no replica is alive.
    /// The answer's [`crate::Answered::generation`] is ≥ `min_gen`.
    pub fn serve_at(&self, min_gen: u64, req: QueryReq) -> Result<QueryTicket, ServiceClosed> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        self.route(start, self.replicas.len(), min_gen, req)
    }

    /// [`ReplicaSet::serve_at`] pinned to replica `i`, for tests and
    /// benchmarks that compare replicas directly; [`ServiceClosed`] if it
    /// is dead. Panics if the set has no replica `i`.
    pub fn query_on(
        &self,
        i: usize,
        min_gen: u64,
        req: QueryReq,
    ) -> Result<QueryTicket, ServiceClosed> {
        self.slot(i);
        self.route(i, 1, min_gen, req)
    }

    /// Queues the query on the first live one of the `count` slots from
    /// `start` (cyclically), once the set generation reaches `min_gen`.
    fn route(
        &self,
        start: usize,
        count: usize,
        min_gen: u64,
        req: QueryReq,
    ) -> Result<QueryTicket, ServiceClosed> {
        let len = self.replicas.len();
        let mut live = (0..count)
            .filter_map(|j| self.replicas[(start + j) % len].svc.as_ref())
            .peekable();
        if live.peek().is_none() {
            return Err(ServiceClosed);
        }
        let (resp, rx) = std::sync::mpsc::channel();
        let at = bimst_obs::enabled().then(std::time::Instant::now);
        if self.generation() < min_gen {
            self.route_waits.inc();
            if !self.shared.wait_for(min_gen) {
                return Err(ServiceClosed);
            }
        }
        let mut msg = Req::Query { req, resp, at };
        for svc in live {
            // A writer that died of a poisoned serve hands the query back.
            match svc.send(msg) {
                Ok(()) => {
                    self.route_queries.inc();
                    return Ok(QueryTicket { rx });
                }
                Err(m) => msg = m,
            }
        }
        Err(ServiceClosed)
    }

    /// Fail-stops replica `i`: it leaves the fan-out, drains its queue and
    /// exits, and routing skips it. Writes keep flowing to the others.
    pub fn kill(&mut self, i: usize) {
        self.slot(i);
        if let Some(h) = self.shared.lock().get_mut(i) {
            *h = None;
        }
        if let Some(svc) = self.replicas[i].svc.take() {
            svc.shutdown();
        }
    }

    /// Restarts a killed replica from a live peer. At the set generation
    /// `G`, between two write groups, the first live peer is asked for a
    /// checkpoint through its own queue, so it answers at exactly `G`;
    /// from then on replica `i` is sent every record after `G`. Its
    /// thread restores the checkpoint and then serves, bit-identical to
    /// the others (`tests/prop_replicas.rs` pins this differentially).
    ///
    /// Fails with [`io::ErrorKind::NotConnected`] if no replica is live;
    /// a durable set then still recovers from its store
    /// ([`ReplicaSet::recover`]).
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        assert!(
            self.slot(i).svc.is_none(),
            "bimst-service: restart of a live replica {i} (kill it first)"
        );
        let (ck_tx, ck_rx) = std::sync::mpsc::channel::<Checkpoint>();
        // Holding the fan-out keeps the admission thread between groups.
        let mut fan = self.shared.lock();
        let asked = fan
            .iter()
            .flatten()
            .any(|h| h.send(Req::Checkpoint(ck_tx.clone())).is_ok());
        if !asked {
            let why = format!("bimst-service: no live replica to restart replica {i} from");
            return Err(io::Error::new(io::ErrorKind::NotConnected, why));
        }
        let r = spawn_replica(i, self.meta, &self.cfg, move || {
            let ck = ck_rx.recv().ok()?;
            Some(Arc::new(Recovery {
                generation: ck.generation,
                checkpoint: Some(ck),
                tail: vec![],
            }))
        });
        fan[i] = r.svc.as_ref().map(Service::handle);
        drop(fan);
        self.replicas[i] = r;
        Ok(())
    }

    /// Watermark diagnostics for replica `i`: `(fed, applied)` record
    /// counts. `fed` is the set generation while the replica is live (all
    /// of it is on the replica's queue); `applied` counts the records its
    /// writer has applied. They are equal when it is idle and caught up.
    pub fn watermarks(&self, i: usize) -> (u64, u64) {
        let r = self.slot(i);
        let applied = r.applied.load(Ordering::Acquire);
        match r.svc {
            // A replica may apply group g a moment before g is published.
            Some(_) => (self.generation().max(applied), applied),
            None => (applied, applied),
        }
    }

    /// One metrics snapshot for the whole set: router and WAL counters,
    /// every live replica's registry and its lag gauge `replica_<i>_lag`
    /// (set generation − applied, sampled before the replica is asked),
    /// and the process-global recorder, once.
    pub fn metrics_snapshot(&self) -> bimst_obs::Snapshot {
        let mut snap = self.rec.snapshot();
        for (i, r) in self.replicas.iter().enumerate() {
            let Some(svc) = r.svc.as_ref() else { continue };
            let (fed, applied) = self.watermarks(i);
            snap.put_gauge(&format!("replica_{i}_lag"), fed - applied);
            if let Ok(s) = svc.writer_metrics() {
                snap.absorb(&s);
            }
        }
        snap.absorb(&bimst_obs::global().snapshot());
        snap
    }

    /// Stops admission and drains everything, in dependency order: the
    /// admission thread logs and sends every admitted write, then closes
    /// the fan-out; each replica applies and answers everything queued,
    /// retires its readers, and exits. Every admitted op is applied by
    /// every live replica; every admitted query's ticket resolves.
    /// Dropping the set instead drains the same way, detached.
    pub fn shutdown(self) {
        drop(self.admit);
        let _ = self.admission.join();
        for svc in self.replicas.into_iter().filter_map(|r| r.svc) {
            svc.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Answered, QueryResp};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
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
    /// live peer's checkpoint and answers identically again.
    #[test]
    fn kill_restart_rejoins_in_memory() {
        let mut set = ReplicaSet::lazy(
            100,
            11,
            ReplicaSetConfig {
                replicas: 2,
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

    /// A durable set's restart rejoins from a live peer while the log
    /// keeps growing; recover resumes the whole set at the logged
    /// generation.
    #[test]
    fn durable_restart_and_recover() {
        let dir = tmpdir("dur");
        let cfg = ReplicaSetConfig {
            replicas: 2,
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
        assert_eq!(a0.resp, a1.resp, "rejoined replica diverged");
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

    /// A durable set checkpoints on its cadence: 32 write groups past
    /// `CHECKPOINT_EVERY` (2¹⁵) the store hands back the checkpoint taken
    /// at 2¹⁵ and a tail of the 32 records after it, and the recovered set
    /// answers like a sequential replay.
    #[test]
    fn durable_set_checkpoints_on_its_cadence() {
        let dir = tmpdir("cadence");
        let cfg = ReplicaSetConfig {
            sync: SyncPolicy::None,
            ..ReplicaSetConfig::default()
        };
        let (n, total) = (32u32, CHECKPOINT_EVERY + 32);
        let set = ReplicaSet::eager_durable(&dir, n as usize, 5, cfg).unwrap();
        let mut seq = bimst_sliding::SwConnEager::new(n as usize, 5);
        let mut x = 7u32;
        // Inserts and expires alternate, so no two writes merge: one
        // write group per op.
        for _ in 0..total / 2 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let edges = vec![((x >> 8) % n, (x >> 20) % n), ((x >> 3) % n, (x >> 14) % n)];
            set.insert(edges.clone()).unwrap();
            seq.batch_insert(&edges);
            set.expire(1).unwrap();
            seq.batch_expire(1);
        }
        assert_eq!(set.barrier().unwrap().wait().unwrap(), total);
        set.shutdown();

        let (_, _, rec) = Store::open(&dir).unwrap();
        assert_eq!(rec.generation, total);
        let ck = rec.checkpoint.as_ref().expect("no checkpoint was written");
        assert_eq!(ck.generation, CHECKPOINT_EVERY);
        assert_eq!(rec.tail.len(), 32, "tail past the checkpoint");

        let set = ReplicaSet::recover(&dir, cfg).unwrap();
        assert_eq!(set.generation(), total);
        let pairs: Vec<(u32, u32)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
        let want: Vec<bool> = pairs.iter().map(|&(u, v)| seq.is_connected(u, v)).collect();
        for i in 0..set.replicas() {
            let req = QueryReq::WindowConnected(pairs.clone());
            let a = set.query_on(i, total, req).unwrap().wait().unwrap();
            assert_eq!(
                a.resp,
                QueryResp::WindowConnected(want.clone()),
                "replica {i}"
            );
        }
        set.shutdown();
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

    /// `query_on` names the replica it is pinned to: an index past the
    /// set panics instead of wrapping around onto another replica.
    #[test]
    #[should_panic(expected = "no replica 5 in a set of 2")]
    fn query_on_rejects_an_out_of_range_replica() {
        let set = ReplicaSet::eager(8, 1, ReplicaSetConfig::default());
        let _ = set.query_on(5, 0, QueryReq::ComponentSize(vec![0]));
    }

    /// A replica poisoned by a malformed batch fail-stops alone: the set
    /// keeps admitting, the survivor answers like the sequential replay,
    /// and kill + restart rejoins the poisoned slot bit-identically.
    #[test]
    fn poisoned_replica_leaves_the_set_writable() {
        let n = 40u32;
        let mut set = ReplicaSet::lazy(n as usize, 9, ReplicaSetConfig::default());
        let mut seq = bimst_sliding::SwConn::new(n as usize, 9);
        set.insert(ring(n)).unwrap();
        seq.batch_insert(&ring(n));
        let g = set.barrier().unwrap().wait().unwrap();
        let bad = set
            .query_on(0, g, QueryReq::ComponentSize(vec![n + 5]))
            .unwrap();
        assert!(bad.wait().is_err(), "poisoned serve must resolve as closed");
        // Until its queue is gone, the dead writer may still accept a
        // send; after it, the next write's send to replica 0 must fail.
        while let Ok(t) = set.query_on(0, 0, QueryReq::ComponentSize(vec![])) {
            assert!(t.wait().is_err(), "a dead replica answered");
        }

        set.expire(7).unwrap();
        seq.batch_expire(7);
        set.insert(vec![(0, 20), (3, 9)]).unwrap();
        seq.batch_insert(&[(0, 20), (3, 9)]);
        let g = set.barrier().unwrap().wait().unwrap();
        assert_eq!(g, 3);
        let pairs = vec![(0, 20), (1, 2), (5, 30), (3, 9)];
        let req = QueryReq::WindowConnected(pairs.clone());
        let want: Vec<bool> = pairs.iter().map(|&(u, v)| seq.is_connected(u, v)).collect();
        let a1 = set.query_on(1, g, req.clone()).unwrap().wait().unwrap();
        assert_eq!(a1.resp, QueryResp::WindowConnected(want));

        set.kill(0);
        set.restart(0).unwrap();
        set.expire(3).unwrap();
        let g = set.barrier().unwrap().wait().unwrap();
        let a0 = set.query_on(0, g, req.clone()).unwrap().wait().unwrap();
        let a1 = set.query_on(1, g, req).unwrap().wait().unwrap();
        assert_eq!(a0, a1, "rejoined replica diverged");
        set.shutdown();
    }

    /// With every replica dead there is no peer to rejoin from: restart
    /// fails instead of hanging, in memory and on a durable set, and the
    /// durable set still recovers from its store.
    #[test]
    fn restart_without_a_live_replica_fails() {
        let cfg = ReplicaSetConfig {
            replicas: 2,
            ..ReplicaSetConfig::default()
        };
        let mut set = ReplicaSet::eager(16, 3, cfg);
        set.insert(ring(16)).unwrap();
        set.kill(0);
        set.kill(1);
        assert!(set.restart(1).is_err());
        assert_eq!(
            set.query(QueryReq::ComponentSize(vec![0])).unwrap_err(),
            ServiceClosed
        );
        set.shutdown();

        let dir = tmpdir("nopeer");
        let mut set = ReplicaSet::eager_durable(&dir, 16, 3, cfg).unwrap();
        set.insert(ring(16)).unwrap();
        let g = set.barrier().unwrap().wait().unwrap();
        set.kill(1);
        set.kill(0);
        assert!(set.restart(0).is_err());
        set.shutdown();
        let set = ReplicaSet::recover(&dir, cfg).unwrap();
        assert_eq!(set.generation(), g);
        let a = set
            .serve_at(g, QueryReq::ComponentSize(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a.resp, QueryResp::ComponentSize(vec![16]));
        set.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The set snapshot folds the process-global recorder once, not once
    /// per replica: its engine counter cannot exceed a global snapshot
    /// taken right after it.
    #[test]
    fn set_snapshot_folds_the_global_recorder_once() {
        bimst_obs::set_enabled(true);
        if !bimst_obs::enabled() {
            return; // no-op obs build: nothing to observe
        }
        let set = ReplicaSet::eager(64, 2, ReplicaSetConfig::default());
        set.insert(ring(64)).unwrap();
        set.expire(10).unwrap();
        let g = set.barrier().unwrap().wait().unwrap();
        let _ = set
            .serve_at(g, QueryReq::ComponentSize(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        let rounds = set.metrics_snapshot().counter("engine_rounds");
        let after = bimst_obs::global().snapshot().counter("engine_rounds");
        assert!(rounds.is_some_and(|r| r > 0), "engine rounds recorded");
        assert!(rounds <= after, "{rounds:?} > global {after:?}");
        set.shutdown();
    }
}
