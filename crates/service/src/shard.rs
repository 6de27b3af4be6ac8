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
//!   `service_*` accounting), serves coalesced query runs through its
//!   reader pool, and answers metrics requests.
//!
//! A `Service` writer runs all three on one thread ([`writer_main`]). A
//! `ReplicaSet` runs `Queue` + `DurCtl` on its admission thread, which
//! publishes each group to the op bus instead of applying it, and
//! `Queue` + `Core` on every replica writer, whose feeder hands it one
//! bus record per message. Either way one WAL record is one write group
//! is one generation.
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

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use bimst_graphgen::Op;
use bimst_primitives::{FoldKind, FoldValue, VertexId, WKey};
use bimst_query::TenantRoute;
use bimst_sliding::{SlidingWrite, SwConn, SwConnEager, WindowCheckpoint};
use bimst_wal::{Checkpoint, Meta, Store, SyncPolicy};

use crate::reader::{Partial, PartialResp, ReaderPool, ServeTask, Snapshot, Work};
use crate::{Answered, QueryReq, QueryResp, ServeWindow, ServiceConfig};

/// One dedicated-routed tenant plan: `(tenant, pairs, base)` where `base`
/// is the plan's offset in the concatenated dedicated answer buffer.
type DedPlan = (u32, Arc<Vec<(VertexId, VertexId)>>, usize);

/// One coalesced query: request, reply channel, admission timestamp
/// (`None` when recording is off).
pub(crate) type RunEntry = (QueryReq, Sender<Answered>, Option<std::time::Instant>);

/// An admitted operation (see `ServiceHandle` for the client-side view).
/// Replica feeders send one `Insert` / `Expire` per bus record.
pub(crate) enum Req {
    /// Append edges on the new side of the window.
    Insert(Vec<(VertexId, VertexId)>),
    /// Expire the Δ oldest stream positions.
    Expire(u64),
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
}

/// What one [`Queue::next`] call yields.
pub(crate) enum Step {
    /// One write group: the merged `Op::Insert` or `Op::Expire`, and how
    /// many queued writes it folds.
    Write(Op, u64),
    /// A coalesced query run, left in the caller's run buffer.
    Serve,
    /// A barrier to resolve at the current generation.
    Barrier(Sender<u64>),
    /// A metrics request.
    Metrics(Sender<bimst_obs::Snapshot>),
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
            Req::Insert(mut edges) => {
                // Positions concatenate, so one batch_insert of the merged
                // run equals the per-op inserts — but pays the
                // O(ℓ lg(1 + n/ℓ)) batch bound once.
                let mut ops = 1;
                while self.merge && edges.len() < self.budget {
                    match self.pull(false) {
                        Some(Req::Insert(more)) => {
                            edges.extend_from_slice(&more);
                            ops += 1;
                        }
                        other => {
                            self.carry = other;
                            break;
                        }
                    }
                }
                Step::Write(Op::Insert(edges), ops)
            }
            Req::Expire(mut delta) => {
                // Deltas add.
                let mut ops = 1;
                while self.merge {
                    match self.pull(false) {
                        Some(Req::Expire(more)) => {
                            delta = delta.saturating_add(more);
                            ops += 1;
                        }
                        other => {
                            self.carry = other;
                            break;
                        }
                    }
                }
                Step::Write(Op::Expire(delta), ops)
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
    /// `service_generation`: the writer's current generation.
    generation: bimst_obs::Gauge,
    /// `service_write_groups`: applied write groups (== generation
    /// increments == WAL records appended for a durable service).
    groups: bimst_obs::Counter,
    /// `service_ops_insert` / `service_ops_expire`: admitted write ops by
    /// kind (a group of width k counts k).
    ops_insert: bimst_obs::Counter,
    ops_expire: bimst_obs::Counter,
    /// `service_queries_*`: admitted queries by kind (a batch of q pairs
    /// counts q).
    q_conn: bimst_obs::Counter,
    q_pm: bimst_obs::Counter,
    q_cs: bimst_obs::Counter,
    q_tenant: bimst_obs::Counter,
    q_pf: bimst_obs::Counter,
    /// `service_answer_ns_*`: admission-to-answer latency by kind.
    lat_conn: bimst_obs::Histogram,
    lat_pm: bimst_obs::Histogram,
    lat_cs: bimst_obs::Histogram,
    lat_tenant: bimst_obs::Histogram,
    lat_pf: bimst_obs::Histogram,
    /// `service_tenant_shared_queries` / `service_tenant_dedicated_queries`:
    /// tenant queries by resolved route.
    tenant_shared: bimst_obs::Counter,
    tenant_dedicated: bimst_obs::Counter,
}

impl SvcObs {
    fn new(rec: bimst_obs::Recorder) -> Self {
        SvcObs {
            queue_depth: rec.histogram("service_queue_depth"),
            merge_width: rec.histogram("service_merge_width_ops"),
            serve_ns: rec.histogram("service_serve_ns"),
            generation: rec.gauge("service_generation"),
            groups: rec.counter("service_write_groups"),
            ops_insert: rec.counter("service_ops_insert"),
            ops_expire: rec.counter("service_ops_expire"),
            q_conn: rec.counter("service_queries_window_connected"),
            q_pm: rec.counter("service_queries_path_max"),
            q_cs: rec.counter("service_queries_component_size"),
            q_tenant: rec.counter("service_queries_tenant_connected"),
            q_pf: rec.counter("service_queries_path_fold"),
            lat_conn: rec.histogram("service_answer_ns_window_connected"),
            lat_pm: rec.histogram("service_answer_ns_path_max"),
            lat_cs: rec.histogram("service_answer_ns_component_size"),
            lat_tenant: rec.histogram("service_answer_ns_tenant_connected"),
            lat_pf: rec.histogram("service_answer_ns_path_fold"),
            tenant_shared: rec.counter("service_tenant_shared_queries"),
            tenant_dedicated: rec.counter("service_tenant_dedicated_queries"),
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
/// type by the durable constructors, so the writer needs no
/// `WindowCheckpoint` bound for the in-memory case.
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
    pub(crate) fn log(&mut self, op: &Op) {
        self.store
            .append_op(op)
            .expect("bimst-service: WAL append failed");
        if self.sync != SyncPolicy::None {
            self.store.sync().expect("bimst-service: WAL fsync failed");
        }
        self.since += 1;
    }

    /// After a group is applied: writes the checkpoint `ck` takes if
    /// `checkpoint_every` groups were logged since the last one.
    pub(crate) fn maybe_checkpoint(&mut self, ck: impl FnOnce() -> Checkpoint) {
        if self.checkpoint_every == 0 || self.since < self.checkpoint_every {
            return;
        }
        self.store
            .checkpoint(&ck())
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

/// Applies one logged write. Any other record kind is skipped; it still
/// occupies a generation.
fn apply_op<W: SlidingWrite>(w: &mut W, op: &Op) {
    match op {
        Op::Insert(edges) => {
            w.batch_insert(edges);
        }
        Op::Expire(delta) => w.batch_expire(*delta),
        _ => {}
    }
}

/// What to do with the window [`open_window`] rebuilds: a trait rather
/// than a closure because the window's type depends on the discipline.
pub(crate) trait OpenWith {
    type Out;
    fn with<W: ServeWindow + WindowCheckpoint>(self, w: W) -> Self::Out;
}

/// Builds the window `meta` describes at a recovered position (the
/// checkpoint, then the log tail replayed on top) and hands it to `f`.
pub(crate) fn open_window<F: OpenWith>(
    meta: &Meta,
    ckpt: Option<&Checkpoint>,
    tail: &[Op],
    f: F,
) -> F::Out {
    fn rebuild<W: WindowCheckpoint>(mut w: W, ckpt: Option<&Checkpoint>, tail: &[Op]) -> W {
        if let Some(ck) = ckpt {
            w.restore(&ck.edges, ck.tw, ck.t);
        }
        for op in tail {
            apply_op(&mut w, op);
        }
        w
    }
    let (n, seed) = (meta.n as usize, meta.seed);
    if meta.eager {
        f.with(rebuild(SwConnEager::new(n, seed), ckpt, tail))
    } else {
        f.with(rebuild(SwConn::new(n, seed), ckpt, tail))
    }
}

/// The `Service` writer loop. Runs until the admission queue disconnects
/// (every `ServiceHandle` dropped), which is what makes "admitted ⇒
/// processed" exact: a submission that was acked is in the queue, and the
/// queue is drained to the end before the readers retire and the
/// structure drops.
///
/// With a `DurCtl` attached, every write group is one WAL record and one
/// generation increment, so the generation recovered from the log is
/// exactly the generation the live service would have reported.
pub(crate) fn writer_main<W: ServeWindow>(
    w: W,
    cfg: ServiceConfig,
    rx: Receiver<Req>,
    generation: u64,
    mut dur: Option<(DurCtl, SnapshotFn<W>)>,
    rec: bimst_obs::Recorder,
) {
    let mut core = Core::new(w, generation, cfg.readers, rec);
    let merge = dur.as_ref().is_none_or(|(d, _)| d.merges());
    let mut q = Queue::new(rx, merge, cfg.write_budget);
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
                if let Some((d, _)) = dur.as_mut() {
                    d.log(&op);
                }
                core.apply(&op, ops, 1);
                if let Some((d, snapshot)) = dur.as_mut() {
                    d.maybe_checkpoint(|| snapshot(&core.w, core.generation));
                }
            }
            Step::Serve => core.serve(),
            Step::Barrier(resp) => {
                let _ = resp.send(core.generation);
            }
            Step::Metrics(resp) => {
                // FIFO admission makes the snapshot cover everything this
                // service admitted — and hence processed — before the
                // request; the process-wide recorder adds engine rounds
                // and query plans.
                let mut snap = core.metrics();
                snap.absorb(&bimst_obs::global().snapshot());
                let _ = resp.send(snap);
            }
        }
    }
    if let Some((d, _)) = dur {
        d.close();
    }
    core.shutdown();
}

/// Smallest per-reader slice of a merged plan: below this, splitting costs
/// more (task envelope, channel hop) than a reader saves. The partition is
/// a fixed function of `(plan len, reader count)` — never of timing — and
/// answers are partition-independent anyway.
const MIN_SHARD: usize = 64;

/// Reusable buffers of the serve path: the per-kind merged plans and the
/// merged answer arrays. Before this existed, every dispatch allocated all
/// six afresh (the ROADMAP's "serve path still allocates per dispatch"
/// lever); now the plan buffers round-trip through the readers' `Arc`s —
/// readers drop their clones *before* signalling the join barrier (see
/// `reader_main`), so after the join `Arc::try_unwrap` deterministically
/// hands the writer its buffer back, capacity intact. Same ratchet
/// discipline as the engine scratch: capacities grow to the largest run
/// ever coalesced, then steady-state serving allocates nothing here.
#[derive(Default)]
pub(crate) struct ServeScratch {
    conn: Vec<(VertexId, VertexId)>,
    pm: Vec<(VertexId, VertexId)>,
    cs: Vec<VertexId>,
    /// Shared-routed tenant pairs, all tenants merged into one plan.
    tconn: Vec<(VertexId, VertexId)>,
    /// Per-query tenant cutoffs, parallel to `tconn`.
    tcut: Vec<u64>,
    /// Path-fold pairs, all kinds merged into one plan in run order.
    pf: Vec<(VertexId, VertexId)>,
    /// Per-query fold kinds, parallel to `pf` (readers dispatch maximal
    /// same-kind spans to the monomorphized fold).
    pfk: Vec<FoldKind>,
    conn_out: Vec<bool>,
    pm_out: Vec<Option<WKey>>,
    cs_out: Vec<usize>,
    tconn_out: Vec<bool>,
    pf_out: Vec<Option<FoldValue>>,
    /// Concatenated answers of every dedicated-routed tenant plan in the
    /// run (each plan splices at its own base offset).
    tded_out: Vec<bool>,
}

impl ServeScratch {
    /// Combined buffer capacity in elements — the steady-state metric the
    /// allocation-stability test pins (`serve_scratch_steady_state`).
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.conn.capacity()
            + self.pm.capacity()
            + self.cs.capacity()
            + self.tconn.capacity()
            + self.tcut.capacity()
            + self.pf.capacity()
            + self.pfk.capacity()
            + self.conn_out.capacity()
            + self.pm_out.capacity()
            + self.cs_out.capacity()
            + self.tconn_out.capacity()
            + self.tded_out.capacity()
            + self.pf_out.capacity()
    }

    /// Reclaims a merged-plan buffer from its post-join `Arc` (see the
    /// struct docs). The fallback allocation only triggers if a reader
    /// somehow still holds a clone — correct either way, but the
    /// steady-state test would catch it as capacity churn.
    fn reclaim<T>(slot: &mut Vec<T>, arc: Arc<Vec<T>>) {
        if let Ok(mut v) = Arc::try_unwrap(arc) {
            v.clear();
            *slot = v;
        }
    }
}

/// The window owner of a writer thread, shared by the `Service` writer
/// and every replica writer: applies write groups, serves coalesced query
/// runs through its reader pool, and answers metrics requests.
pub(crate) struct Core<W: ServeWindow> {
    pub(crate) w: W,
    /// Log records applied so far.
    pub(crate) generation: u64,
    pub(crate) obs: SvcObs,
    /// The query run being coalesced, reused across runs.
    pub(crate) run: Vec<RunEntry>,
    pool: ReaderPool<W>,
    done_tx: Sender<Partial>,
    done_rx: Receiver<Partial>,
    /// Merged-plan/answer buffers, reused across generations.
    scratch: ServeScratch,
}

impl<W: ServeWindow> Core<W> {
    /// A core at `generation` with `readers` reader workers.
    pub(crate) fn new(w: W, generation: u64, readers: usize, rec: bimst_obs::Recorder) -> Self {
        let obs = SvcObs::new(rec);
        // A recovered starting point is visible even before the first group.
        obs.generation.set(generation);
        let (done_tx, done_rx) = channel();
        Core {
            w,
            generation,
            obs,
            run: Vec::new(),
            pool: ReaderPool::spawn(readers),
            done_tx,
            done_rx,
            scratch: ServeScratch::default(),
        }
    }

    /// Applies one write group that folds `ops` queued writes and covers
    /// `records` log records (one for a `Service` group; a replica's
    /// group folds one bus record per write).
    pub(crate) fn apply(&mut self, op: &Op, ops: u64, records: u64) {
        apply_op(&mut self.w, op);
        self.generation += records;
        self.obs.groups.add(records);
        if matches!(op, Op::Insert(_)) {
            self.obs.ops_insert.add(ops);
        } else {
            self.obs.ops_expire.add(ops);
        }
        self.obs.merge_width.record(ops);
        self.obs.generation.set(self.generation);
    }

    /// The core's registry folded with the window structure's (tenant
    /// routing).
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

    /// Serves the coalesced run at the current generation: merge
    /// same-kind requests into one plan each (into the reused scratch),
    /// publish the snapshot, fan the plans out across the reader pool,
    /// join, split answers back per request, then reclaim the plan
    /// buffers for the next generation. Steady-state dispatches allocate
    /// only the per-client answer vectors (which the clients keep).
    pub(crate) fn serve(&mut self) {
        let Core {
            w,
            generation,
            obs,
            run,
            pool,
            done_tx,
            done_rx,
            scratch: ws,
        } = self;
        let (w, generation): (&W, u64) = (w, *generation);
        // One span covers the whole publish→serve→retire protocol.
        let _span = obs.serve_ns.time();
        // Merge per kind, in run order (so per-kind cursors can split answers
        // back without bookkeeping). The buffers arrive cleared from the
        // previous generation's reclaim.
        debug_assert!(ws.conn.is_empty() && ws.pm.is_empty() && ws.cs.is_empty());
        debug_assert!(ws.tconn.is_empty() && ws.tcut.is_empty());
        debug_assert!(ws.pf.is_empty() && ws.pfk.is_empty());
        let mut ded_plans: Vec<DedPlan> = Vec::new();
        let mut ded_total = 0usize;
        for (req, _, _) in run.iter() {
            match req {
                QueryReq::WindowConnected(qs) => {
                    obs.q_conn.add(qs.len() as u64);
                    ws.conn.extend_from_slice(qs);
                }
                QueryReq::PathMax(qs) => {
                    obs.q_pm.add(qs.len() as u64);
                    ws.pm.extend_from_slice(qs);
                }
                QueryReq::ComponentSize(vs) => {
                    obs.q_cs.add(vs.len() as u64);
                    ws.cs.extend_from_slice(vs);
                }
                // Folds of every kind merge into one plan: pairs concatenate
                // in run order, the request's kind repeats per query (same
                // trick as the tenant cutoffs). Readers re-split into maximal
                // same-kind spans, so batches of one kind still share the
                // monomorphized plan.
                QueryReq::PathFold { kind, pairs } => {
                    obs.q_pf.add(pairs.len() as u64);
                    ws.pf.extend_from_slice(pairs);
                    ws.pfk.resize(ws.pf.len(), *kind);
                }
                QueryReq::TenantConnected { tenant, pairs } => match w.tenant_route(*tenant) {
                    // Shared-routed tenants merge into one plan: pairs
                    // concatenate, the tenant's cutoff repeats per query.
                    Some(TenantRoute::Shared { cutoff }) => {
                        obs.q_tenant.add(pairs.len() as u64);
                        obs.tenant_shared.add(pairs.len() as u64);
                        ws.tconn.extend_from_slice(pairs);
                        ws.tcut.resize(ws.tconn.len(), cutoff);
                    }
                    Some(TenantRoute::Dedicated(_)) => {
                        obs.q_tenant.add(pairs.len() as u64);
                        obs.tenant_dedicated.add(pairs.len() as u64);
                        ded_plans.push((*tenant, Arc::new(pairs.clone()), ded_total));
                        ded_total += pairs.len();
                    }
                    // Fail stop: a tenant query against a window that serves
                    // no tenants (or an unknown id) must not be silently
                    // answered from the wrong window. Unwinding here (before
                    // any fan-out) resolves every pending ticket as closed.
                    None => panic!(
                        "bimst-service: no tenant route for id {tenant} \
                         (tenant query on a non-tenant service?)"
                    ),
                },
            }
        }

        // Publish (protocol step 1): from here until the join completes, this
        // thread must not mutate `w` — rustc enforces it locally via the `&W`
        // borrow, the protocol extends it across the reader threads.
        let snap = Snapshot::publish(w);
        let conn = Arc::new(std::mem::take(&mut ws.conn));
        let pm = Arc::new(std::mem::take(&mut ws.pm));
        let cs = Arc::new(std::mem::take(&mut ws.cs));
        let tconn = Arc::new(std::mem::take(&mut ws.tconn));
        let tcut = Arc::new(std::mem::take(&mut ws.tcut));
        let pf = Arc::new(std::mem::take(&mut ws.pf));
        let pfk = Arc::new(std::mem::take(&mut ws.pfk));
        let tenant_shared = Work::TenantShared {
            pairs: tconn.clone(),
            cutoffs: tcut.clone(),
        };
        let fold = Work::PathFold {
            pairs: pf.clone(),
            kinds: pfk.clone(),
        };
        let merged = [
            (Work::WindowConnected(conn.clone()), conn.len()),
            (Work::PathMax(pm.clone()), pm.len()),
            (Work::ComponentSize(cs.clone()), cs.len()),
            (tenant_shared, tconn.len()),
            (fold, pf.len()),
        ];
        let dedicated = ded_plans.iter().map(|(tenant, pairs, base)| {
            let work = Work::TenantDedicated {
                tenant: *tenant,
                pairs: pairs.clone(),
                base: *base,
            };
            (work, pairs.len())
        });
        // A dead reader (its thread gone before dispatch) is recorded here and
        // folded into the poisoned-barrier fail-stop below — the same path a
        // reader that panicked *during* a serve takes. See `fan_out`.
        let mut dead_reader = false;
        let mut expected = 0usize;
        for (work, len) in merged.into_iter().chain(dedicated) {
            expected += fan_out(pool, snap, work, len, done_tx, &mut dead_reader);
        }

        // Join barrier (protocol step 3): collect every partial before
        // touching the structure again. Plans of different kinds are in flight
        // simultaneously, so a run mixing kinds uses the whole pool.
        ws.conn_out.clear();
        ws.conn_out.resize(conn.len(), false);
        ws.pm_out.clear();
        ws.pm_out.resize(pm.len(), None);
        ws.cs_out.clear();
        ws.cs_out.resize(cs.len(), 0);
        ws.tconn_out.clear();
        ws.tconn_out.resize(tconn.len(), false);
        ws.tded_out.clear();
        ws.tded_out.resize(ded_total, false);
        ws.pf_out.clear();
        ws.pf_out.resize(pf.len(), None);
        let mut poisoned = false;
        for _ in 0..expected {
            let p = done_rx.recv().expect("bimst-service reader pool alive");
            match p.resp {
                PartialResp::Bools(b) => {
                    ws.conn_out[p.start..p.start + b.len()].copy_from_slice(&b)
                }
                PartialResp::Keys(k) => ws.pm_out[p.start..p.start + k.len()].copy_from_slice(&k),
                PartialResp::Sizes(s) => ws.cs_out[p.start..p.start + s.len()].copy_from_slice(&s),
                PartialResp::TenantBools(b) => {
                    ws.tconn_out[p.start..p.start + b.len()].copy_from_slice(&b)
                }
                PartialResp::DedBools(b) => {
                    ws.tded_out[p.start..p.start + b.len()].copy_from_slice(&b)
                }
                PartialResp::Folds(f) => ws.pf_out[p.start..p.start + f.len()].copy_from_slice(&f),
                PartialResp::Panicked => poisoned = true,
            }
        }
        // Every partial is in, and readers drop their plan clones before
        // sending (reader_main), so the Arcs are singly held again: take the
        // buffers back for the next generation.
        ServeScratch::reclaim(&mut ws.conn, conn);
        ServeScratch::reclaim(&mut ws.pm, pm);
        ServeScratch::reclaim(&mut ws.cs, cs);
        ServeScratch::reclaim(&mut ws.tconn, tconn);
        ServeScratch::reclaim(&mut ws.tcut, tcut);
        ServeScratch::reclaim(&mut ws.pf, pf);
        ServeScratch::reclaim(&mut ws.pfk, pfk);
        // Fail stop, but only after the join barrier: every reader is parked
        // again, so unwinding the writer (dropping the structure) is safe, and
        // pending tickets resolve with `ServiceClosed` instead of hanging.
        // A worker that was already dead at dispatch time (`dead_reader`)
        // surfaces through this same path — previously it panicked the writer
        // mid-fan-out with a bare channel error, before the barrier drained.
        assert!(
            !(poisoned || dead_reader),
            "bimst-service: a reader worker {} serving a query batch \
             (malformed batch, e.g. an out-of-range vertex id?)",
            if poisoned { "panicked" } else { "died" }
        );

        // Split the merged answers back per request, in run order. A client
        // that dropped its ticket makes the send fail; that is its business.
        let (mut ci, mut pi, mut si) = (0usize, 0usize, 0usize);
        let (mut ti, mut di, mut fi) = (0usize, 0usize, 0usize);
        for (req, resp, at) in run.drain(..) {
            let answers = match &req {
                QueryReq::WindowConnected(q) => {
                    QueryResp::WindowConnected(split(&ws.conn_out, &mut ci, q.len()))
                }
                QueryReq::PathMax(q) => QueryResp::PathMax(split(&ws.pm_out, &mut pi, q.len())),
                QueryReq::ComponentSize(q) => {
                    QueryResp::ComponentSize(split(&ws.cs_out, &mut si, q.len()))
                }
                QueryReq::PathFold { pairs, .. } => {
                    QueryResp::PathFold(split(&ws.pf_out, &mut fi, pairs.len()))
                }
                QueryReq::TenantConnected { tenant, pairs } => {
                    // Re-resolving the route is deterministic: `w` has not
                    // changed since the merge pass (publish→retire), so each
                    // request consumes the same cursor it fed.
                    QueryResp::WindowConnected(match w.tenant_route(*tenant) {
                        Some(TenantRoute::Dedicated(_)) => {
                            split(&ws.tded_out, &mut di, pairs.len())
                        }
                        _ => split(&ws.tconn_out, &mut ti, pairs.len()),
                    })
                }
            };
            // Admission-to-answer latency, per kind. `at` is stamped at
            // submission iff recording was on, so the off twin reads no clock.
            if let Some(at) = at {
                let ns = at.elapsed().as_nanos() as u64;
                match &req {
                    QueryReq::WindowConnected(_) => obs.lat_conn.record(ns),
                    QueryReq::PathMax(_) => obs.lat_pm.record(ns),
                    QueryReq::ComponentSize(_) => obs.lat_cs.record(ns),
                    QueryReq::TenantConnected { .. } => obs.lat_tenant.record(ns),
                    QueryReq::PathFold { .. } => obs.lat_pf.record(ns),
                }
            }
            let _ = resp.send(Answered {
                generation,
                resp: answers,
            });
        }
    }
}

/// The next `len` answers of a merged answer buffer, advancing `cursor`.
fn split<T: Clone>(out: &[T], cursor: &mut usize, len: usize) -> Vec<T> {
    *cursor += len;
    out[*cursor - len..*cursor].to_vec()
}

/// Cuts one plan into contiguous ranges and hands them to the pool
/// round-robin. Returns the number of tasks *accepted* — a range refused
/// by a dead worker sets `dead` instead of counting, because no
/// [`Partial`] will ever arrive for it; the caller joins only on accepted
/// tasks and then fails stop. Dispatching must keep going past a dead
/// worker (rather than panicking on the spot) because the snapshot is
/// already published: unwinding before the join barrier would drop the
/// structure while live readers still borrow it.
fn fan_out<W: ServeWindow>(
    pool: &mut ReaderPool<W>,
    snap: Snapshot<W>,
    work: Work,
    len: usize,
    done: &Sender<Partial>,
    dead: &mut bool,
) -> usize {
    if len == 0 {
        return 0;
    }
    let chunk = len.div_ceil(pool.len()).max(MIN_SHARD);
    let mut parts = 0;
    let mut lo = 0;
    while lo < len {
        let hi = (lo + chunk).min(len);
        if pool.dispatch(ServeTask {
            snap,
            work: work.clone(),
            range: lo..hi,
            done: done.clone(),
        }) {
            parts += 1;
        } else {
            *dead = true;
        }
        lo = hi;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
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
        tx.send(Req::Insert(vec![(0, 1)])).unwrap();
        tx.send(Req::Insert(vec![(1, 2), (2, 3)])).unwrap();
        tx.send(Req::Insert(vec![(3, 4)])).unwrap(); // over the budget of 3
        tx.send(Req::Expire(1)).unwrap();
        tx.send(Req::Expire(2)).unwrap();
        query(&tx);
        tx.send(Req::Barrier(btx)).unwrap();
        query(&tx);
        tx.send(Req::Insert(vec![(4, 5)])).unwrap();
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
            tx.send(Req::Expire(d)).unwrap();
        }
        drop(tx);
        let mut q = Queue::new(rx, false, 3);
        assert!(matches!(
            q.next(0, &mut run),
            Some(Step::Write(Op::Expire(1), 1))
        ));
        assert!(matches!(
            q.next(0, &mut run),
            Some(Step::Write(Op::Expire(2), 1))
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

    /// Large merged plans are range-partitioned across readers; splicing
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
        core.shutdown();
    }

    /// A reader thread that died *outside* a serve (so its channel is
    /// already disconnected at dispatch time) must surface through the
    /// poisoned-barrier fail-stop — the same error a reader that panicked
    /// mid-serve produces — not the old bare
    /// `expect("bimst-service reader worker alive")` panic, which fired
    /// mid-fan-out while the surviving readers still held the published
    /// snapshot. The surviving workers' partials are drained first (the
    /// join barrier counts only accepted tasks), then the writer fails
    /// stop.
    #[test]
    fn dead_reader_routes_through_the_poisoned_barrier() {
        let mut w = SwConnEager::new(200, 5);
        let ring: Vec<(u32, u32)> = (0..199).map(|v| (v, v + 1)).collect();
        w.batch_insert(&ring);

        let mut core = Core::new(w, 1, 2, bimst_obs::Recorder::new());
        core.pool.kill_worker(1);
        // 200 pairs with 2 workers → chunk 100 ≥ MIN_SHARD → two tasks:
        // one lands on the live worker, one on the dead slot.
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i, (i * 3 + 1) % 200)).collect();
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

    /// The serve path over a `TenantSet`, driven directly with a run that
    /// mixes shared-routed and dedicated-routed tenant batches with plain
    /// window queries: every split answer must match the sequentially
    /// queried structure.
    #[test]
    fn serve_splits_mixed_tenant_runs() {
        use bimst_sliding::{TenantConfig, TenantSet, TenantSpec};
        let specs = [
            TenantSpec { id: 3, window: 32 },
            TenantSpec { id: 7, window: 6 },
            TenantSpec { id: 9, window: 2 }, // dedicated under fraction 1/4
        ];
        let mut w = TenantSet::new(
            12,
            5,
            &specs,
            TenantConfig {
                dedicated_fraction: 1.0 / 4.0,
            },
        );
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
        for req in &reqs {
            let (tx, rx) = channel();
            core.run.push((req.clone(), tx, None));
            rxs.push(rx);
        }
        core.serve();

        let w = &core.w;
        let answers: Vec<Answered> = rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
        for (i, s) in specs.iter().enumerate() {
            let want: Vec<bool> = pairs
                .iter()
                .map(|&(u, v)| w.is_connected(s.id, u, v))
                .collect();
            assert_eq!(
                answers[i].resp,
                QueryResp::WindowConnected(want),
                "tenant {}",
                s.id
            );
        }
        let want: Vec<bool> = pairs
            .iter()
            .map(|&(u, v)| w.shared().is_connected(u, v))
            .collect();
        assert_eq!(answers[3].resp, QueryResp::WindowConnected(want));
        core.shutdown();
    }

    /// The serve path's merged-plan/answer buffers must reach a capacity
    /// plateau and stay there: after a warmup dispatch at each run shape,
    /// repeated same-shape generations reclaim every buffer through the
    /// post-join `Arc` round-trip instead of reallocating (the ROADMAP's
    /// "serve path still allocates per dispatch" lever, closed). Styled
    /// after `scratch_steady_state.rs` on the write path.
    #[test]
    fn serve_scratch_steady_state() {
        let mut w = SwConnEager::new(300, 9);
        let ring: Vec<(u32, u32)> = (0..299).map(|v| (v, v + 1)).collect();
        w.batch_insert(&ring);
        w.batch_expire(20);

        let mut core = Core::new(w, 0, 3, bimst_obs::Recorder::new());
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i % 300, (i * 11 + 5) % 300)).collect();
        let verts: Vec<u32> = (0..250u32).map(|i| (i * 7) % 300).collect();

        let dispatch = |core: &mut Core<SwConnEager>| {
            let mut rxs = Vec::new();
            for req in [
                QueryReq::WindowConnected(pairs.clone()),
                QueryReq::PathMax(pairs[..128].to_vec()),
                QueryReq::ComponentSize(verts.clone()),
                QueryReq::WindowConnected(pairs[..64].to_vec()),
            ] {
                let (tx, rx) = channel();
                core.run.push((req, tx, None));
                rxs.push(rx);
            }
            core.serve();
            for rx in rxs {
                rx.recv().expect("answer delivered");
            }
        };

        dispatch(&mut core); // warmup: buffers ratchet to this run shape
        let high_water = core.scratch.high_water();
        assert!(high_water > 0, "scratch should be warm after a dispatch");
        for gen in 1..60u64 {
            dispatch(&mut core);
            assert_eq!(
                core.scratch.high_water(),
                high_water,
                "serve scratch grew on steady-state dispatch {gen}"
            );
        }
        core.shutdown();
    }
}
