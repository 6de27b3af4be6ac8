//! The one write pipeline both runtimes run. A [`crate::Service`] writer
//! and every [`crate::ReplicaSet`] thread are assembled from the same
//! three pieces:
//!
//! * [`Queue`], the group-commit step over one FIFO admission queue:
//!   consecutive same-kind writes merge into one write group (inserts up
//!   to the write budget; no merging at all under durable
//!   [`SyncPolicy::Always`]), and a run of queued queries is coalesced
//!   for one serve.
//! * [`DurCtl`], the only WAL writer: one record per write group, logged
//!   (and fsynced, per policy) **before** the group is applied or
//!   published, plus the checkpoint cadence, counted in write groups.
//! * [`Core`], the window owner: applies write groups (generation and
//!   `service_*` accounting), serves coalesced query runs as slot 0 of its
//!   own reader pool (it answers its share of the ranges itself and hands
//!   the rest to `readers − 1` reader threads), and answers metrics
//!   requests.
//!
//! A `Service` writer runs all three on one thread ([`writer_main`]). A
//! `ReplicaSet` runs `Queue` + `DurCtl` on its admission thread, which
//! sends each group to every replica instead of applying it, and every
//! replica is a [`writer_main`] thread of its own, fed one record per
//! write. Either way the generation counts WAL records.
//!
//! One record type carries a write the whole way: the log's
//! [`bimst_wal::Write`]. The queue holds it, a write group merges into
//! it, [`DurCtl`] appends it, [`Core`] applies it, a replica set sends it
//! on, and recovery replays it. Only `ServiceHandle::submit_op` sees the
//! workload generator's `Op`.
//!
//! Sequential semantics: the state after processing the queue is identical
//! to applying every admitted op one at a time in admission order, and
//! every query is answered from exactly the state at its admission point.
//! Group commit preserves this because consecutive inserts concatenate
//! stream positions and consecutive expirations add deltas
//! (`bimst_sliding::SlidingWrite`'s contract), and coalescing preserves it
//! because batch-query answers are bit-identical to the per-query loop
//! regardless of how batches are merged or range-partitioned (the
//! `bimst-query` determinism contract, pinned by `tests/prop_query.rs`).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use bimst_query::QueryBatch;
use bimst_sliding::{SlidingWrite, SwConn, SwConnEager, WindowCheckpoint};
use bimst_wal::{Checkpoint, Meta, Recovery, Store, SyncPolicy, Write};

use crate::reader::{answer_range, Kind, Partial, Plan, ReaderPool, ServeTask, Snapshot};
use crate::{Answered, QueryReq, ServeWindow};

/// One coalesced query: request, reply channel, admission timestamp
/// (`None` when recording is off).
pub(crate) type RunEntry = (QueryReq, Sender<Answered>, Option<std::time::Instant>);

/// An admitted operation (see `ServiceHandle` for the client-side view).
/// A replica set's admission thread sends one `Write` per log record to
/// every replica.
pub(crate) enum Req {
    /// A write, in the log's own record type.
    Write(Write),
    /// Answer a query batch at the admission generation.
    Query {
        /// The batch.
        req: QueryReq,
        /// Where the [`Answered`] goes.
        resp: Sender<Answered>,
        /// Admission timestamp for the admission-to-answer histograms
        /// (`None` when recording is off — no clock is read).
        at: Option<std::time::Instant>,
    },
    /// Resolve with the generation once prior writes are applied.
    Barrier(Sender<u64>),
    /// Resolve with a metrics snapshot covering everything admitted (and
    /// therefore, by FIFO order, processed) before this request.
    Metrics(Sender<bimst_obs::Snapshot>),
    /// Resolve with a checkpoint of the window after every prior write.
    Checkpoint(Sender<Checkpoint>),
}

/// What one [`Queue::next`] call yields.
pub(crate) enum Step {
    /// One write group: the merged write (one log record), and how many
    /// queued writes it folds.
    Write(Write, u64),
    /// A coalesced query run, left in the caller's run buffer.
    Serve,
    /// A barrier to resolve at the current generation.
    Barrier(Sender<u64>),
    /// A metrics request.
    Metrics(Sender<bimst_obs::Snapshot>),
    /// A checkpoint request.
    Checkpoint(Sender<Checkpoint>),
}

/// The group-commit step over one admission queue.
pub(crate) struct Queue {
    rx: Receiver<Req>,
    /// A request pulled while merging that starts the next step.
    carry: Option<Req>,
    /// Whether writes merge at all: under a durable `Always` policy the
    /// record boundary must be the op boundary.
    merge: bool,
    /// Insert merging stops once the group holds this many edges (a
    /// single op larger than the budget is still one group).
    budget: usize,
    /// Requests dequeued so far.
    pub(crate) dequeued: u64,
}

impl Queue {
    pub(crate) fn new(rx: Receiver<Req>, merge: bool, budget: usize) -> Queue {
        Queue {
            rx,
            carry: None,
            merge,
            budget: budget.max(1),
            dequeued: 0,
        }
    }

    fn pull(&mut self, block: bool) -> Option<Req> {
        let r = if block {
            self.rx.recv().ok()
        } else {
            self.rx.try_recv().ok()
        }?;
        self.dequeued += 1;
        Some(r)
    }

    /// The next step, or `None` once every sender is gone and the queue
    /// is drained. A query starts a run: every query queued behind it is
    /// appended to `run`, and barriers inside the run resolve at
    /// `generation` on the spot (queries do not advance it, so their
    /// promise already holds).
    pub(crate) fn next(&mut self, generation: u64, run: &mut Vec<RunEntry>) -> Option<Step> {
        let first = match self.carry.take() {
            Some(r) => r,
            None => self.pull(true)?,
        };
        Some(match first {
            Req::Write(Write::Insert(mut edges)) => {
                // Positions concatenate, so one batch_insert of the merged
                // run equals the per-op inserts — but pays the
                // O(ℓ lg(1 + n/ℓ)) batch bound once.
                let mut ops = 1;
                while self.merge && edges.len() < self.budget {
                    match self.pull(false) {
                        Some(Req::Write(Write::Insert(more))) => {
                            edges.extend_from_slice(&more);
                            ops += 1;
                        }
                        other => {
                            self.carry = other;
                            break;
                        }
                    }
                }
                Step::Write(Write::Insert(edges), ops)
            }
            Req::Write(Write::Expire(mut delta)) => {
                // Deltas add.
                let mut ops = 1;
                while self.merge {
                    match self.pull(false) {
                        Some(Req::Write(Write::Expire(more))) => {
                            delta = delta.saturating_add(more);
                            ops += 1;
                        }
                        other => {
                            self.carry = other;
                            break;
                        }
                    }
                }
                Step::Write(Write::Expire(delta), ops)
            }
            Req::Query { req, resp, at } => {
                run.push((req, resp, at));
                loop {
                    match self.pull(false) {
                        Some(Req::Query { req, resp, at }) => run.push((req, resp, at)),
                        Some(Req::Barrier(resp)) => {
                            let _ = resp.send(generation);
                        }
                        other => {
                            self.carry = other;
                            break;
                        }
                    }
                }
                Step::Serve
            }
            Req::Barrier(resp) => Step::Barrier(resp),
            Req::Metrics(resp) => Step::Metrics(resp),
            Req::Checkpoint(resp) => Step::Checkpoint(resp),
        })
    }
}

/// The metric handles of one writer core, registered on its own
/// [`bimst_obs::Recorder`] (per-instance, so parallel tests never mix
/// services). All recording is observe-only: relaxed atomic adds and
/// span timers that never branch the apply/serve paths.
pub(crate) struct SvcObs {
    /// The core's registry ([`Core::metrics`] serves it, folded with the
    /// window's).
    pub(crate) rec: bimst_obs::Recorder,
    /// `service_queue_depth`: admission-queue depth sampled at each step
    /// (client-side submitted counter minus writer-side dequeued).
    queue_depth: bimst_obs::Histogram,
    /// `service_merge_width_ops`: writes merged into each group commit.
    merge_width: bimst_obs::Histogram,
    /// `service_serve_ns`: publish→serve→retire latency of each coalesced
    /// query run (one span per `serve`).
    serve_ns: bimst_obs::Histogram,
    /// `service_reader_tasks`: plan ranges handed to reader threads (a
    /// range the writer answers itself, as slot 0, is not counted).
    reader_tasks: bimst_obs::Counter,
    /// `service_generation`: the writer's current generation.
    generation: bimst_obs::Gauge,
    /// `service_write_groups`: applied write groups (== generation
    /// increments == WAL records appended for a durable service).
    groups: bimst_obs::Counter,
    /// `service_ops_insert` / `service_ops_expire`: admitted write ops by
    /// kind (a group of width k counts k).
    ops_insert: bimst_obs::Counter,
    ops_expire: bimst_obs::Counter,
    /// Per plan kind, indexed by [`Kind`] (see [`KIND_METRICS`]).
    by_kind: [KindObs; 5],
}

/// Per plan kind: the name suffix of its `service_queries_<kind>` counter
/// and `service_answer_ns_<kind>` histogram.
const KIND_METRICS: [&str; 5] = [
    "window_connected",
    "path_max",
    "component_size",
    "path_fold",
    "tenant_connected",
];

/// One plan kind's metrics.
struct KindObs {
    /// Admitted queries (a batch of q pairs counts q).
    queries: bimst_obs::Counter,
    /// Admission-to-answer latency of each batch.
    answer_ns: bimst_obs::Histogram,
}

impl SvcObs {
    fn new(rec: bimst_obs::Recorder) -> Self {
        SvcObs {
            queue_depth: rec.histogram("service_queue_depth"),
            merge_width: rec.histogram("service_merge_width_ops"),
            serve_ns: rec.histogram("service_serve_ns"),
            reader_tasks: rec.counter("service_reader_tasks"),
            generation: rec.gauge("service_generation"),
            groups: rec.counter("service_write_groups"),
            ops_insert: rec.counter("service_ops_insert"),
            ops_expire: rec.counter("service_ops_expire"),
            by_kind: KIND_METRICS.map(|kind| KindObs {
                queries: rec.counter(&format!("service_queries_{kind}")),
                answer_ns: rec.histogram(&format!("service_answer_ns_{kind}")),
            }),
            rec,
        }
    }
}

/// The WAL side-car of a durable runtime's write path: a `Service` writer
/// or a durable `ReplicaSet`'s admission thread. The write path is **log
/// before apply**: a group's record is appended (and fsynced, per policy)
/// before the group is applied or published, so no query-visible state
/// can out-run the log.
pub(crate) struct DurCtl {
    store: Store,
    sync: SyncPolicy,
    /// Checkpoint after this many write groups (`0` = never).
    checkpoint_every: u64,
    /// Write groups logged since the last checkpoint.
    since: u64,
}

/// A checkpoint of a window at a generation; monomorphized per window
/// type by the durable constructors and the replicas, so the writer needs
/// no `WindowCheckpoint` bound for an in-memory `Service`.
pub(crate) type SnapshotFn<W> = fn(&W, u64) -> Checkpoint;

impl DurCtl {
    /// Wraps `store`, attaching its `wal_*` metrics to `rec`.
    pub(crate) fn new(
        mut store: Store,
        sync: SyncPolicy,
        checkpoint_every: u64,
        rec: &bimst_obs::Recorder,
    ) -> Self {
        store.attach_obs(rec);
        DurCtl {
            store,
            sync,
            checkpoint_every,
            since: 0,
        }
    }

    /// Whether the queue feeding this log may merge writes.
    pub(crate) fn merges(&self) -> bool {
        self.sync != SyncPolicy::Always
    }

    /// Logs one write group. WAL IO failure is fail-stop: a writer that
    /// cannot log must not apply, or acked-and-answered state would be
    /// silently undurable.
    pub(crate) fn log(&mut self, w: &Write) {
        self.store
            .append(w)
            .expect("bimst-service: WAL append failed");
        if self.sync != SyncPolicy::None {
            self.store.sync().expect("bimst-service: WAL fsync failed");
        }
        self.since += 1;
    }

    /// After a group is applied: writes the checkpoint `ck` takes if
    /// `checkpoint_every` groups were logged since the last one. `ck`
    /// yields `None` when no checkpoint can be had right now (a replica
    /// set with no live replica); the next group asks again.
    pub(crate) fn maybe_checkpoint(&mut self, ck: impl FnOnce() -> Option<Checkpoint>) {
        if self.checkpoint_every == 0 || self.since < self.checkpoint_every {
            return;
        }
        let Some(ck) = ck() else { return };
        self.store
            .checkpoint(&ck)
            .expect("bimst-service: WAL checkpoint failed");
        self.since = 0;
    }

    /// Orderly shutdown: whatever the policy deferred is synced now, so a
    /// clean stop loses nothing — `SyncPolicy::None`'s loss window is
    /// crashes only. Best-effort: the thread is exiting either way, and
    /// the tail is still torn-safe on disk.
    pub(crate) fn close(mut self) {
        let _ = self.store.sync();
    }
}

/// The identity of a single-window store.
pub(crate) fn meta(n: usize, seed: u64, eager: bool) -> Meta {
    Meta {
        n: n as u64,
        seed,
        eager,
        tenants: false,
    }
}

/// A checkpoint of `w` at `generation`.
pub(crate) fn checkpoint_of<W: WindowCheckpoint>(w: &W, generation: u64) -> Checkpoint {
    let (tw, t) = w.window();
    Checkpoint {
        generation,
        tw,
        t,
        edges: w.compact_edges(),
    }
}

/// Applies one write group or logged record.
fn apply_op<W: SlidingWrite>(w: &mut W, op: &Write) {
    match op {
        Write::Insert(edges) => {
            w.batch_insert(edges);
        }
        Write::Expire(delta) => w.batch_expire(*delta),
    }
}

/// What a writer thread runs besides its window: queue, starting
/// generation, readers, recorder, a durable `Service`'s WAL side-car, and
/// where it publishes its generation after every write group.
pub(crate) struct Run {
    pub(crate) q: Queue,
    pub(crate) generation: u64,
    pub(crate) readers: usize,
    pub(crate) rec: bimst_obs::Recorder,
    pub(crate) dur: Option<DurCtl>,
    pub(crate) applied: Arc<AtomicU64>,
    /// Each queued write is one log record (a replica's), not each group.
    pub(crate) per_write: bool,
}

impl Run {
    pub(crate) fn new(q: Queue, generation: u64, readers: usize, rec: bimst_obs::Recorder) -> Run {
        Run {
            q,
            generation,
            readers,
            rec,
            dur: None,
            applied: Arc::default(),
            per_write: false,
        }
    }
}

/// Builds the window `meta` describes at a recovered position (the
/// checkpoint, then the log tail on top) and runs the writer loop on it.
pub(crate) fn open_window(meta: &Meta, from: &Recovery, run: Run) {
    fn rebuild<W: WindowCheckpoint>(mut w: W, from: &Recovery) -> W {
        if let Some(ck) = &from.checkpoint {
            w.restore(&ck.edges, ck.tw, ck.t);
        }
        for op in &from.tail {
            apply_op(&mut w, op);
        }
        w
    }
    let (n, seed) = (meta.n as usize, meta.seed);
    if meta.eager {
        let w = rebuild(SwConnEager::new(n, seed), from);
        writer_main(w, Some(checkpoint_of), run);
    } else {
        let w = rebuild(SwConn::new(n, seed), from);
        writer_main(w, Some(checkpoint_of), run);
    }
}

/// The writer loop of a `Service` and of every `ReplicaSet` replica. Runs
/// until the queue disconnects (every sender dropped), which is what
/// makes "admitted ⇒ processed" exact: a submission that was acked is in
/// the queue, and the queue is drained to the end before the readers
/// retire and the structure drops.
///
/// With a `DurCtl` attached, every write group is one WAL record and one
/// generation increment, so the generation recovered from the log is
/// exactly the generation the live service would have reported.
/// `snapshot` takes the durable checkpoints and answers checkpoint
/// requests; a writer without one drops the request, so the requester
/// sees a closed channel.
pub(crate) fn writer_main<W: ServeWindow>(w: W, snapshot: Option<SnapshotFn<W>>, mut run: Run) {
    let mut core = Core::new(w, run.generation, run.readers, run.rec);
    let (q, dur, applied) = (&mut run.q, &mut run.dur, &run.applied);
    applied.store(core.generation, Ordering::Release);
    // Handle-side admission counter, paired with the queue's dequeued
    // count to sample the queue depth.
    let submitted = core.obs.rec.counter("service_submitted_ops");
    while let Some(step) = q.next(core.generation, &mut core.run) {
        if bimst_obs::enabled() {
            let depth = submitted.get().saturating_sub(q.dequeued);
            core.obs.queue_depth.record(depth);
        }
        match step {
            Step::Write(op, ops) => {
                if let Some(d) = dur.as_mut() {
                    d.log(&op);
                }
                core.apply(&op, ops, if run.per_write { ops } else { 1 });
                applied.store(core.generation, Ordering::Release);
                if let (Some(d), Some(snapshot)) = (dur.as_mut(), snapshot) {
                    d.maybe_checkpoint(|| Some(snapshot(&core.w, core.generation)));
                }
            }
            Step::Serve => core.serve(),
            Step::Barrier(resp) => {
                let _ = resp.send(core.generation);
            }
            // FIFO admission makes the snapshot cover everything this
            // writer admitted, and hence processed, before the request.
            Step::Metrics(resp) => {
                let _ = resp.send(core.metrics());
            }
            Step::Checkpoint(resp) => {
                if let Some(snapshot) = snapshot {
                    let _ = resp.send(snapshot(&core.w, core.generation));
                }
            }
        }
    }
    if let Some(d) = run.dur {
        d.close();
    }
    core.shutdown();
}

/// Smallest per-slot slice of a merged plan: below this, splitting costs
/// more (task envelope, channel hop) than a reader saves, so a plan shorter
/// than this is one range and never leaves the writer when it is dealt to
/// slot 0. The partition is a fixed function of `(plan len, slot count)` —
/// never of timing — and answers are partition-independent anyway.
const MIN_SHARD: usize = 64;

/// Reusable buffers of the serve path: capacities grow to the largest run
/// ever coalesced, then steady-state serving allocates nothing here.
#[derive(Default)]
pub(crate) struct ServeScratch {
    /// Every plan served so far, one per kind. A plan no request of the
    /// current run joins stays empty and is not dispatched.
    plans: Vec<Arc<Plan>>,
    /// Per run entry, parallel to [`Core::run`]: its plan and its offset
    /// in that plan, recorded at merge so split-back needs no cursors and
    /// no second cutoff lookup.
    slots: Vec<(usize, usize)>,
    /// The current generation's partial answers.
    parts: Vec<Partial>,
    /// The ranges dealt to slot 0, the writer: `(plan index, range)`.
    own: Vec<(usize, Range<usize>)>,
}

impl ServeScratch {
    /// Joins the run's next request, `req`, to the `kind` plan, created
    /// on first use: records where the request's queries start in the plan
    /// and returns the plan's input to append them to.
    fn join(&mut self, req: &QueryReq, kind: Kind) -> &mut Plan {
        let p = self.plans.iter().position(|p| p.kind == kind);
        let p = p.unwrap_or_else(|| {
            self.plans.push(Arc::new(Plan {
                kind,
                pairs: Vec::new(),
                verts: Vec::new(),
                cutoffs: Vec::new(),
                folds: Vec::new(),
                out: req.no_answers(),
            }));
            self.plans.len() - 1
        });
        let plan = Arc::make_mut(&mut self.plans[p]);
        self.slots.push((p, plan.len()));
        plan
    }
}

/// Merges `req` into its plan: the one place the serve path names request
/// kinds. A tenant's cutoff is resolved here, once: every tenant merges
/// into one plan with its cutoff repeated per query. Folds of every kind
/// merge into one plan the same way, tagged with their kind.
///
/// # Panics
///
/// On a tenant id the window does not serve: it must not be answered from
/// the wrong window. [`Core::serve`] merges every request before it
/// publishes, so unwinding here resolves every pending ticket as closed.
fn merge<W: ServeWindow>(req: &QueryReq, w: &W, ws: &mut ServeScratch) {
    match req {
        QueryReq::WindowConnected(q) => ws
            .join(req, Kind::WindowConnected)
            .pairs
            .extend_from_slice(q),
        QueryReq::PathMax(q) => ws.join(req, Kind::PathMax).pairs.extend_from_slice(q),
        QueryReq::ComponentSize(vs) => ws
            .join(req, Kind::ComponentSize)
            .verts
            .extend_from_slice(vs),
        QueryReq::PathFold { kind, pairs } => {
            let plan = ws.join(req, Kind::PathFold);
            plan.pairs.extend_from_slice(pairs);
            plan.folds.resize(plan.pairs.len(), *kind);
        }
        QueryReq::TenantConnected { tenant, pairs } => {
            let cutoff = w.tenant_cutoff(*tenant).unwrap_or_else(|| {
                panic!(
                    "bimst-service: unknown tenant id {tenant} \
                     (tenant query on a non-tenant service?)"
                )
            });
            let plan = ws.join(req, Kind::TenantConnected);
            plan.pairs.extend_from_slice(pairs);
            plan.cutoffs.resize(plan.pairs.len(), cutoff);
        }
    }
}

/// The window owner of a writer thread, `Service` and replica alike:
/// applies write groups, serves coalesced query runs as slot 0 of its
/// reader pool, and answers metrics requests.
pub(crate) struct Core<W: ServeWindow> {
    pub(crate) w: W,
    /// Log records applied so far.
    pub(crate) generation: u64,
    pub(crate) obs: SvcObs,
    /// The query run being coalesced, reused across runs.
    pub(crate) run: Vec<RunEntry>,
    /// Slots answering queries, the writer (slot 0) included.
    readers: usize,
    /// The writer's own executor, for the ranges dealt to slot 0.
    q: QueryBatch,
    /// The reader threads, slots `1..readers`.
    pool: ReaderPool<W>,
    done_tx: Sender<Partial>,
    done_rx: Receiver<Partial>,
    /// Merged-plan/answer buffers, reused across generations.
    scratch: ServeScratch,
}

impl<W: ServeWindow> Core<W> {
    /// A core at `generation` answering queries on `readers` slots (clamped
    /// to ≥ 1): itself and `readers − 1` reader threads.
    pub(crate) fn new(w: W, generation: u64, readers: usize, rec: bimst_obs::Recorder) -> Self {
        let readers = readers.max(1);
        let obs = SvcObs::new(rec);
        // A recovered starting point is visible even before the first group.
        obs.generation.set(generation);
        let (done_tx, done_rx) = channel();
        Core {
            w,
            generation,
            obs,
            run: Vec::new(),
            readers,
            q: QueryBatch::new(),
            pool: ReaderPool::spawn(readers),
            done_tx,
            done_rx,
            scratch: ServeScratch::default(),
        }
    }

    /// Applies one write group that folds `ops` queued writes and covers
    /// `records` log records: one for a `Service` group, one per write for
    /// a replica's.
    pub(crate) fn apply(&mut self, op: &Write, ops: u64, records: u64) {
        apply_op(&mut self.w, op);
        self.generation += records;
        self.obs.groups.add(records);
        match op {
            Write::Insert(_) => self.obs.ops_insert.add(ops),
            Write::Expire(_) => self.obs.ops_expire.add(ops),
        }
        self.obs.merge_width.record(ops);
        self.obs.generation.set(self.generation);
    }

    /// The core's registry folded with the window structure's (tenant
    /// cutoff lag).
    pub(crate) fn metrics(&self) -> bimst_obs::Snapshot {
        let mut snap = self.obs.rec.snapshot();
        if let Some(r) = self.w.obs_recorder() {
            snap.absorb(&r.snapshot());
        }
        snap
    }

    /// Retires the reader pool.
    pub(crate) fn shutdown(self) {
        drop(self.done_tx);
        self.pool.shutdown();
    }

    /// Serves the coalesced run at the current generation: merge each
    /// request into its plan, publish the snapshot, deal each plan's
    /// contiguous ranges round-robin over the slots (slot 0 is this
    /// writer), answer slot 0's ranges here while the reader threads answer
    /// theirs, join, and split answers back per request. A run that is one
    /// range, e.g. a single batch shorter than `MIN_SHARD`, never leaves
    /// the writer. At steady state only the partials and the clients'
    /// answer vectors are allocated.
    pub(crate) fn serve(&mut self) {
        let Core {
            w,
            generation,
            obs,
            run,
            readers,
            q,
            pool,
            done_tx,
            done_rx,
            scratch: ws,
        } = self;
        let (w, generation, readers): (&W, u64, usize) = (w, *generation, *readers);
        // One span covers the whole publish→serve→retire protocol.
        let _span = obs.serve_ns.time();
        // Merge in run order into the plans the previous serve cleared.
        for (req, _, _) in run.iter() {
            merge(req, w, ws);
        }

        // Publish (protocol step 1): from here until the join completes, this
        // thread must not mutate `w` — rustc enforces it locally via the `&W`
        // borrow, the protocol extends it across the reader threads.
        let snap = Snapshot::publish(w);
        // Deal each plan in contiguous ranges, round-robin from slot 0 on
        // every serve. Slot 0's ranges are kept for below; the rest go to
        // the reader threads first, so they start while the writer works. A
        // range a dead thread refuses sends no partial, so it is not joined
        // on; it fails stop below like a reader that panicked mid-serve.
        // Dealing goes on past it: unwinding before the join barrier would
        // drop the structure while live readers still borrow it.
        let (mut expected, mut dead_reader, mut slot) = (0usize, false, 0usize);
        for (idx, plan) in ws.plans.iter().enumerate() {
            let len = plan.len();
            let chunk = len.div_ceil(readers).max(MIN_SHARD);
            for lo in (0..len).step_by(chunk) {
                let range = lo..(lo + chunk).min(len);
                let dealt = slot;
                slot = (slot + 1) % readers;
                if dealt == 0 {
                    ws.own.push((idx, range));
                    continue;
                }
                let task = ServeTask {
                    snap,
                    idx,
                    plan: plan.clone(),
                    range,
                    done: done_tx.clone(),
                };
                if pool.dispatch(dealt - 1, task) {
                    expected += 1;
                } else {
                    dead_reader = true;
                }
            }
        }
        obs.reader_tasks.add(expected as u64);
        // Slot 0 (protocol step 2): the writer answers its own ranges through
        // the borrow it holds. `answer_range` catches a panic, so the writer
        // reaches the join barrier whatever the batch holds.
        for (idx, range) in ws.own.drain(..) {
            ws.parts
                .push(answer_range(q, w, &ws.plans[idx], idx, range));
        }

        // Join barrier (protocol step 3): collect every dispatched partial
        // before touching the structure again. Plans of different kinds are
        // dealt in one sequence, so a run mixing kinds uses the whole pool.
        for _ in 0..expected {
            let part = done_rx.recv().expect("bimst-service reader pool alive");
            ws.parts.push(part);
        }
        // Every partial is in, and readers drop their plan clones before
        // sending (reader_main), so the Arcs are singly held again: take the
        // buffers back for the next generation.
        for plan in &mut ws.plans {
            Arc::make_mut(plan).clear();
        }
        // Fail stop, but only after the join barrier: every reader is parked
        // again, so unwinding the writer (dropping the structure) is safe, and
        // pending tickets resolve with `ServiceClosed` instead of hanging.
        // A poisoned partial may come from the writer's own share. A reader
        // thread that was already dead at dispatch time (`dead_reader`)
        // surfaces through this same path.
        let poisoned = ws.parts.iter().any(|p| p.resp.is_none());
        assert!(
            !(poisoned || dead_reader),
            "bimst-service: a reader worker {} serving a query batch \
             (malformed batch, e.g. an out-of-range vertex id?)",
            if poisoned { "panicked" } else { "died" }
        );

        // Splice each plan's partials in range order.
        ws.parts.sort_unstable_by_key(|p| (p.idx, p.start));
        for part in ws.parts.drain(..) {
            let resp = part.resp.expect("poisoned partials fail stop above");
            Arc::make_mut(&mut ws.plans[part.idx])
                .out
                .put(part.start, resp);
        }

        // Split the merged answers back per request, in run order. A client
        // that dropped its ticket makes the send fail; that is its business.
        for ((req, resp, at), (p, off)) in run.drain(..).zip(ws.slots.drain(..)) {
            let plan = &ws.plans[p];
            let answers = plan.out.slice(off..off + req.len());
            let m = &obs.by_kind[plan.kind as usize];
            m.queries.add(req.len() as u64);
            // Admission-to-answer latency. `at` is stamped at submission iff
            // recording was on, so the off twin reads no clock.
            if let Some(at) = at {
                m.answer_ns.record(at.elapsed().as_nanos() as u64);
            }
            let _ = resp.send(Answered {
                generation,
                resp: answers,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryResp;
    use bimst_primitives::{FoldKind, FoldValue};
    use bimst_query::WindowConnectivity;
    use bimst_sliding::SwConnEager;

    /// The group-commit step, driven with a deterministic backlog (the
    /// runtime tests cannot force merging, which depends on queue
    /// timing): same-kind writes merge up to the budget and carry the
    /// first op of another kind, a query run answers its barriers at the
    /// given generation, and a queue that may not merge yields one group
    /// per write.
    #[test]
    fn queue_merges_same_kind_writes_and_coalesces_query_runs() {
        let (tx, rx) = channel();
        let (btx, brx) = channel();
        let query = |tx: &Sender<Req>| {
            let (resp, _) = channel();
            let req = QueryReq::ComponentSize(vec![0]);
            tx.send(Req::Query {
                req,
                resp,
                at: None,
            })
            .unwrap();
        };
        tx.send(Req::Write(Write::Insert(vec![(0, 1)]))).unwrap();
        tx.send(Req::Write(Write::Insert(vec![(1, 2), (2, 3)])))
            .unwrap();
        tx.send(Req::Write(Write::Insert(vec![(3, 4)]))).unwrap(); // over the budget of 3
        tx.send(Req::Write(Write::Expire(1))).unwrap();
        tx.send(Req::Write(Write::Expire(2))).unwrap();
        query(&tx);
        tx.send(Req::Barrier(btx)).unwrap();
        query(&tx);
        tx.send(Req::Write(Write::Insert(vec![(4, 5)]))).unwrap();
        drop(tx);

        let mut q = Queue::new(rx, true, 3);
        let mut run = Vec::new();
        let mut steps = Vec::new();
        while let Some(step) = q.next(9, &mut run) {
            steps.push(match step {
                Step::Write(op, ops) => format!("{op:?}x{ops}"),
                Step::Serve => format!("serve{}", std::mem::take(&mut run).len()),
                _ => "other".into(),
            });
        }
        assert_eq!(
            steps,
            [
                "Insert([(0, 1), (1, 2), (2, 3)])x2",
                "Insert([(3, 4)])x1",
                "Expire(3)x2",
                "serve2",
                "Insert([(4, 5)])x1",
            ]
        );
        assert_eq!(brx.recv().unwrap(), 9, "barrier inside the run");
        assert_eq!(q.dequeued, 9);

        let (tx, rx) = channel();
        for d in [1, 2] {
            tx.send(Req::Write(Write::Expire(d))).unwrap();
        }
        drop(tx);
        let mut q = Queue::new(rx, false, 3);
        assert!(matches!(
            q.next(0, &mut run),
            Some(Step::Write(Write::Expire(1), 1))
        ));
        assert!(matches!(
            q.next(0, &mut run),
            Some(Step::Write(Write::Expire(2), 1))
        ));
        assert!(q.next(0, &mut run).is_none());
    }

    /// The coalesced serve path, driven directly with a deterministic
    /// multi-request run (the service-level tests cannot force coalescing,
    /// which depends on queue timing): merged plans must split back into
    /// per-request answers that match the sequential structure.
    #[test]
    fn serve_splits_coalesced_answers_per_request() {
        let mut w = SwConnEager::new(8, 3);
        w.batch_insert(&[(0, 1), (1, 2), (4, 5)]);
        w.batch_expire(1);

        let mut core = Core::new(w, 7, 2, bimst_obs::Recorder::new());
        let mut rxs = Vec::new();
        let reqs = [
            QueryReq::WindowConnected(vec![(0, 1), (1, 2)]),
            QueryReq::ComponentSize(vec![0, 4]),
            QueryReq::WindowConnected(vec![(4, 5)]),
            QueryReq::PathMax(vec![(1, 2), (0, 2)]),
            QueryReq::ComponentSize(vec![2]),
            // Two fold kinds in one run: the merged plan carries a kind
            // per query and the reader re-splits it into same-kind spans.
            QueryReq::PathFold {
                kind: FoldKind::Hops,
                pairs: vec![(0, 2), (4, 5)],
            },
            QueryReq::PathFold {
                kind: FoldKind::Min,
                pairs: vec![(1, 2)],
            },
        ];
        for req in &reqs {
            let (tx, rx) = channel();
            core.run.push((req.clone(), tx, None));
            rxs.push(rx);
        }
        core.serve();
        assert!(core.run.is_empty(), "serve consumes the run");

        let w = &core.w;
        let answers: Vec<Answered> = rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
        assert!(answers.iter().all(|a| a.generation == 7));
        assert_eq!(
            answers[0].resp,
            QueryResp::WindowConnected(vec![w.is_connected(0, 1), w.is_connected(1, 2)])
        );
        assert_eq!(
            answers[1].resp,
            QueryResp::ComponentSize(vec![w.msf().component_size(0), w.msf().component_size(4)])
        );
        assert_eq!(
            answers[2].resp,
            QueryResp::WindowConnected(vec![w.is_connected(4, 5)])
        );
        assert_eq!(
            answers[3].resp,
            QueryResp::PathMax(vec![w.msf().path_max(1, 2), w.msf().path_max(0, 2)])
        );
        assert_eq!(
            answers[4].resp,
            QueryResp::ComponentSize(vec![w.msf().component_size(2)])
        );
        assert_eq!(
            answers[5].resp,
            QueryResp::PathFold(vec![
                w.msf()
                    .path_fold::<bimst_primitives::Hops>(0, 2)
                    .map(FoldValue::Hops),
                w.msf()
                    .path_fold::<bimst_primitives::Hops>(4, 5)
                    .map(FoldValue::Hops),
            ])
        );
        assert_eq!(
            answers[6].resp,
            QueryResp::PathFold(vec![w
                .msf()
                .path_fold::<bimst_primitives::MinW>(1, 2)
                .map(FoldValue::Key)])
        );
        core.shutdown();
    }

    /// Large merged plans are range-partitioned across the slots; splicing
    /// the partials back must reconstruct the full per-query loop answers.
    #[test]
    fn fan_out_partitions_reassemble_exactly() {
        let mut w = SwConnEager::new(200, 5);
        let ring: Vec<(u32, u32)> = (0..199).map(|v| (v, v + 1)).collect();
        w.batch_insert(&ring);
        w.batch_expire(40);

        let pairs: Vec<(u32, u32)> = (0..500u32).map(|i| (i % 200, (i * 7 + 3) % 200)).collect();
        let mut core = Core::new(w, 1, 3, bimst_obs::Recorder::new());
        let (tx, rx) = channel();
        core.run
            .push((QueryReq::WindowConnected(pairs.clone()), tx, None));
        core.serve();
        let got = rx.recv().unwrap().resp.into_window_connected().unwrap();
        let want: Vec<bool> = pairs
            .iter()
            .map(|&(u, v)| core.w.is_connected(u, v))
            .collect();
        assert_eq!(got, want);
        // 500 pairs on 3 slots → three ranges of ≤ 167: the writer answers
        // the first, each reader thread one of the others.
        let tasks = core.metrics().counter("service_reader_tasks");
        assert_eq!(tasks, Some(2));
        core.shutdown();
    }

    /// A reader thread that died *outside* a serve (so its channel is
    /// already disconnected at dispatch time) must surface through the
    /// poisoned-barrier fail-stop — the same error a reader that panicked
    /// mid-serve produces — not a bare panic mid-fan-out while the
    /// surviving readers still held the published snapshot. The writer
    /// answers its own share and drains the accepted tasks first (the join
    /// barrier counts only accepted tasks), then fails stop.
    ///
    /// Before that, the dispatch rule `MIN_SHARD` keeps: a plan shorter
    /// than it is one range, dealt to slot 0, so with the only reader
    /// thread dead a 10-query batch is still answered and no range is
    /// counted as handed to a reader.
    #[test]
    fn dead_reader_routes_through_the_poisoned_barrier() {
        let mut w = SwConnEager::new(200, 5);
        let ring: Vec<(u32, u32)> = (0..199).map(|v| (v, v + 1)).collect();
        w.batch_insert(&ring);
        w.batch_expire(60);

        let mut core = Core::new(w, 1, 2, bimst_obs::Recorder::new());
        core.pool.kill_worker(0);
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i, (i * 3 + 1) % 200)).collect();
        let (tx, rx) = channel();
        core.run
            .push((QueryReq::WindowConnected(pairs[..10].to_vec()), tx, None));
        core.serve();
        let want = pairs[..10].iter().map(|&(u, v)| core.w.is_connected(u, v));
        assert_eq!(
            rx.recv().unwrap().resp,
            QueryResp::WindowConnected(want.collect())
        );
        let tasks = core.metrics().counter("service_reader_tasks");
        assert_eq!(tasks, Some(0), "a small plan was handed to a reader");

        // 200 pairs on 2 slots → chunk 100 ≥ MIN_SHARD → two ranges: the
        // writer (slot 0) answers one, the other is dealt to the dead
        // thread.
        let (tx, answer_rx) = channel();
        core.run.push((QueryReq::WindowConnected(pairs), tx, None));
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| core.serve()))
            .expect_err("a dead reader must fail stop the serve");
        let msg = unwind.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("a reader worker died serving a query batch"),
            "fail-stop message names the dead-reader cause: {msg}"
        );
        // The ticket was never answered: the writer unwound before the
        // split, so the run (and with it the answer sender) is what a
        // real writer thread would drop on unwind — exactly like a
        // poisoned serve, the client sees a closed channel, not a hang.
        core.run.clear();
        assert!(answer_rx.recv().is_err());
        core.shutdown();
    }

    /// A one-slot core spawns no reader thread: the writer answers every
    /// plan itself, bit-identically to the per-query loop, on a run mixing
    /// window connectivity, path-max and two fold kinds.
    #[test]
    fn one_slot_core_answers_alone() {
        use bimst_primitives::{Hops, SumW};
        let mut w = SwConnEager::new(200, 5);
        let ring: Vec<(u32, u32)> = (0..199).map(|v| (v, v + 1)).collect();
        w.batch_insert(&ring);
        w.batch_insert(&[(3, 150), (20, 90)]);
        w.batch_expire(30);

        let mut core = Core::new(w, 2, 1, bimst_obs::Recorder::new());
        assert_eq!(core.pool.threads(), 0, "readers: 1 spawns no thread");
        let pairs: Vec<(u32, u32)> = (0..300u32).map(|i| (i % 200, (i * 13 + 7) % 200)).collect();
        let reqs = [
            QueryReq::WindowConnected(pairs.clone()),
            QueryReq::PathMax(pairs[..150].to_vec()),
            QueryReq::PathFold {
                kind: FoldKind::Sum,
                pairs: pairs[50..].to_vec(),
            },
            QueryReq::PathFold {
                kind: FoldKind::Hops,
                pairs: pairs[..90].to_vec(),
            },
        ];
        let mut rxs = Vec::new();
        for req in &reqs {
            let (tx, rx) = channel();
            core.run.push((req.clone(), tx, None));
            rxs.push(rx);
        }
        core.serve();

        let w = &core.w;
        let answers: Vec<QueryResp> = rxs.into_iter().map(|rx| rx.recv().unwrap().resp).collect();
        let conn = pairs.iter().map(|&(u, v)| w.is_connected(u, v)).collect();
        assert_eq!(answers[0], QueryResp::WindowConnected(conn));
        let pm = pairs[..150].iter().map(|&(u, v)| w.msf().path_max(u, v));
        assert_eq!(answers[1], QueryResp::PathMax(pm.collect()));
        let sum = pairs[50..]
            .iter()
            .map(|&(u, v)| w.msf().path_fold::<SumW>(u, v).map(FoldValue::Sum));
        assert_eq!(answers[2], QueryResp::PathFold(sum.collect()));
        let hops = pairs[..90]
            .iter()
            .map(|&(u, v)| w.msf().path_fold::<Hops>(u, v).map(FoldValue::Hops));
        assert_eq!(answers[3], QueryResp::PathFold(hops.collect()));
        let tasks = core.metrics().counter("service_reader_tasks");
        assert_eq!(tasks, Some(0));
        core.shutdown();
    }

    /// The serve path over a `TenantSet`, driven directly with a run that
    /// mixes tenant batches of five window lengths (their cutoffs splice
    /// side by side in one plan), plain window queries and folds of two
    /// kinds: every split answer must match the sequentially queried
    /// structure.
    #[test]
    fn serve_splits_mixed_tenant_runs() {
        use bimst_primitives::{Hops, MaxW, MinW, Pair, WKey};
        use bimst_sliding::{TenantSet, TenantSpec};
        let specs = [
            TenantSpec { id: 3, window: 32 },
            TenantSpec { id: 5, window: 16 },
            TenantSpec { id: 7, window: 6 },
            TenantSpec { id: 9, window: 2 },
            TenantSpec { id: 11, window: 3 },
        ];
        let mut w = TenantSet::new(12, 5, &specs);
        w.batch_insert(&[(0, 1), (1, 2), (4, 5), (5, 6), (2, 3)]);
        w.batch_expire(2);

        let pairs: Vec<(u32, u32)> = vec![(0, 2), (0, 3), (4, 6), (1, 3), (5, 5)];
        let mut core = Core::new(w, 4, 2, bimst_obs::Recorder::new());
        let mut rxs = Vec::new();
        let mut reqs: Vec<QueryReq> = specs
            .iter()
            .map(|s| QueryReq::TenantConnected {
                tenant: s.id,
                pairs: pairs.clone(),
            })
            .collect();
        reqs.push(QueryReq::WindowConnected(pairs.clone()));
        reqs.push(QueryReq::PathFold {
            kind: FoldKind::Hops,
            pairs: pairs.clone(),
        });
        // A tenant again after the folds: its plan offset is not the start
        // of its plan.
        reqs.push(QueryReq::TenantConnected {
            tenant: 9,
            pairs: pairs[1..].to_vec(),
        });
        reqs.push(QueryReq::PathFold {
            kind: FoldKind::Min,
            pairs: pairs[..3].to_vec(),
        });
        for req in &reqs {
            let (tx, rx) = channel();
            core.run.push((req.clone(), tx, None));
            rxs.push(rx);
        }
        core.serve();

        let w = &core.w;
        let answers: Vec<Answered> = rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
        let conn = |tenant: u32, qs: &[(u32, u32)]| -> Vec<bool> {
            qs.iter()
                .map(|&(u, v)| w.is_connected(tenant, u, v))
                .collect()
        };
        for (i, s) in specs.iter().enumerate() {
            let want = QueryResp::WindowConnected(conn(s.id, &pairs));
            assert_eq!(answers[i].resp, want, "tenant {}", s.id);
        }
        let shared = w.shared();
        let want: Vec<bool> = pairs
            .iter()
            .map(|&(u, v)| shared.is_connected(u, v))
            .collect();
        assert_eq!(answers[5].resp, QueryResp::WindowConnected(want));
        // Folds answer at the shared structure's window: on a lazy window
        // the path's heaviest (oldest) edge must be unexpired.
        let start = shared.window_start();
        let fold = |kind: FoldKind, qs: &[(u32, u32)]| -> Vec<Option<FoldValue>> {
            let msf = shared.msf();
            let live = |mk: &WKey| mk.id >= start;
            qs.iter()
                .map(|&(u, v)| match kind {
                    FoldKind::Hops => msf
                        .path_fold::<Pair<MaxW, Hops>>(u, v)
                        .filter(|(mk, _)| live(mk))
                        .map(|(_, h)| FoldValue::Hops(h)),
                    _ => msf
                        .path_fold::<Pair<MaxW, MinW>>(u, v)
                        .filter(|(mk, _)| live(mk))
                        .map(|(_, k)| FoldValue::Key(k)),
                })
                .collect()
        };
        assert_eq!(
            answers[6].resp,
            QueryResp::PathFold(fold(FoldKind::Hops, &pairs))
        );
        assert_eq!(
            answers[7].resp,
            QueryResp::WindowConnected(conn(9, &pairs[1..]))
        );
        assert_eq!(
            answers[8].resp,
            QueryResp::PathFold(fold(FoldKind::Min, &pairs[..3]))
        );
        // Five tenant batches of 5 pairs and one of 4: 29 tenant queries.
        let snap = core.metrics();
        assert_eq!(snap.counter("service_queries_tenant_connected"), Some(29));
        core.shutdown();
    }

    /// Combined buffer capacity of the serve scratch, in elements: the
    /// steady-state metric `serve_scratch_steady_state` pins.
    fn high_water(ws: &ServeScratch) -> usize {
        let plans = ws.plans.iter().map(|w| {
            let out = match &w.out {
                QueryResp::WindowConnected(a) => a.capacity(),
                QueryResp::PathMax(a) => a.capacity(),
                QueryResp::ComponentSize(a) => a.capacity(),
                QueryResp::PathFold(a) => a.capacity(),
            };
            w.pairs.capacity()
                + w.verts.capacity()
                + w.cutoffs.capacity()
                + w.folds.capacity()
                + out
        });
        plans.sum::<usize>()
            + ws.plans.capacity()
            + ws.slots.capacity()
            + ws.parts.capacity()
            + ws.own.capacity()
    }

    /// Runs `reqs` through `core` for 60 generations: after the warmup
    /// generation, no plan or answer buffer may grow.
    fn assert_steady<W: ServeWindow>(core: &mut Core<W>, reqs: &[QueryReq]) {
        let dispatch = |core: &mut Core<W>| {
            let mut rxs = Vec::new();
            for req in reqs {
                let (tx, rx) = channel();
                core.run.push((req.clone(), tx, None));
                rxs.push(rx);
            }
            core.serve();
            for rx in rxs {
                rx.recv().expect("answer delivered");
            }
        };
        dispatch(core); // warmup: buffers ratchet to this run shape
        let warm = high_water(&core.scratch);
        assert!(warm > 0, "scratch should be warm after a dispatch");
        for gen in 1..60u64 {
            dispatch(core);
            assert_eq!(
                high_water(&core.scratch),
                warm,
                "serve scratch grew on steady-state dispatch {gen}"
            );
        }
    }

    /// The serve path's merged-plan/answer buffers must reach a capacity
    /// plateau and stay there: after a warmup dispatch at each run shape,
    /// repeated same-shape generations reclaim every buffer through the
    /// post-join `Arc` round-trip instead of reallocating. Covers every
    /// plan kind: folds of two kinds share one plan, and a `TenantSet`
    /// core adds the cutoff plan, joined by two tenants.
    /// Styled after `scratch_steady_state.rs` on the write path.
    #[test]
    fn serve_scratch_steady_state() {
        use bimst_sliding::{TenantSet, TenantSpec};
        let mut w = SwConnEager::new(300, 9);
        let ring: Vec<(u32, u32)> = (0..299).map(|v| (v, v + 1)).collect();
        w.batch_insert(&ring);
        w.batch_expire(20);

        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i % 300, (i * 11 + 5) % 300)).collect();
        let verts: Vec<u32> = (0..250u32).map(|i| (i * 7) % 300).collect();
        let mut core = Core::new(w, 0, 3, bimst_obs::Recorder::new());
        assert_steady(
            &mut core,
            &[
                QueryReq::WindowConnected(pairs.clone()),
                QueryReq::PathMax(pairs[..128].to_vec()),
                QueryReq::ComponentSize(verts.clone()),
                QueryReq::PathFold {
                    kind: FoldKind::Sum,
                    pairs: pairs[..200].to_vec(),
                },
                QueryReq::WindowConnected(pairs[..64].to_vec()),
                QueryReq::PathFold {
                    kind: FoldKind::Hops,
                    pairs: pairs[100..].to_vec(),
                },
            ],
        );
        core.shutdown();

        let specs = [
            TenantSpec { id: 1, window: 200 },
            TenantSpec { id: 2, window: 10 },
        ];
        let mut w = TenantSet::new(300, 9, &specs);
        w.batch_insert(&ring);
        w.batch_expire(20);
        let mut core = Core::new(w, 0, 3, bimst_obs::Recorder::new());
        let tenant = |tenant, pairs: &[(u32, u32)]| QueryReq::TenantConnected {
            tenant,
            pairs: pairs.to_vec(),
        };
        assert_steady(
            &mut core,
            &[
                tenant(1, &pairs),
                tenant(2, &pairs[..300]),
                QueryReq::WindowConnected(pairs[..100].to_vec()),
                tenant(2, &pairs[..50]),
                tenant(1, &pairs[..70]),
            ],
        );
        core.shutdown();
    }
}
