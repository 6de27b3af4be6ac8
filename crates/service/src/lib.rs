//! Persistent sharded serving runtime over the sliding-window MSF
//! structures: one writer thread owning a [`SwConn`]/[`SwConnEager`]
//! instance and a pool of query slots, each owning a
//! [`bimst_query::QueryBatch`] shard. Slot 0 is the writer itself; the
//! other slots are reader threads, connected to it by channels.
//!
//! `bimst_query::ReadHandle` is a shared borrow, so the borrow checker
//! keeps inserts out while a query batch is in flight, but only within
//! one thread of control. Many concurrent clients need the same guarantee
//! as a **runtime protocol**:
//!
//! ```text
//!                    bounded op queue (backpressure)
//!   clients ──────────────┐
//!    insert / expire      │            ┌──────────────────────────────┐
//!    query batches     ┌──▼─────────┐  │  generation g snapshot       │
//!    (tickets)         │   writer   │──┼──► reader 1 (QueryBatch)     │
//!                      │   thread   │──┼──► reader 2 (QueryBatch)     │
//!                      │  owns the  │  │──► …        (QueryBatch)     │
//!                      │ structure; │◄─┼─── partial answers (join)    │
//!                      │  slot 0:   │  └──────────────────────────────┘
//!                      │ QueryBatch │
//!                      └────────────┘
//! ```
//!
//! * **Group commit.** The writer drains the admission queue: consecutive
//!   insert ops are merged (up to [`ServiceConfig::write_budget`] edges)
//!   into one `batch_insert`, consecutive expirations into one
//!   `batch_expire` — amortizing exactly the way the paper's
//!   `O(ℓ lg(1 + n/ℓ))` batch bound assumes. Stream positions concatenate
//!   and expiry deltas add, so merging never changes the structure's state
//!   or any answer (see `bimst_sliding::SlidingWrite`).
//! * **Generations and epoch handoff.** Every applied write group
//!   increments a generation counter. A query batch admitted at generation
//!   *g* (i.e. after the *g*-th write group and before the *g+1*-st) is
//!   answered from the structure *as of g*: the writer publishes a
//!   reader-side snapshot of the structure, deals the coalesced query
//!   ranges round-robin over the slots, answers slot 0's ranges itself,
//!   and **does not touch the structure again until every partial answer
//!   has been collected** (the join barrier is the epoch retire): many
//!   readers XOR one writer, restated across the channel boundary. A plan
//!   shorter than 64 queries is one range, so a lone small batch is
//!   answered on the writer without a channel hop.
//! * **Query coalescing.** Each batch of a queued run joins a *plan*, one
//!   per query kind (fold kinds share one; every tenant batch joins one
//!   cutoff plan), at a recorded `(plan, offset)`. A plan is one shared-work batch (one root pass, one
//!   set of shared CPT chunks) range-split across the slots; answers
//!   are split back at the recorded offsets, bit-identical to the
//!   per-query loop, so coalescing and sharding are invisible to clients.
//! * **Backpressure.** The admission queue is bounded
//!   ([`ServiceConfig::queue_cap`]): [`ServiceHandle::insert`] blocks when
//!   the service is behind, [`ServiceHandle::try_insert`] returns the op
//!   back with [`TrySubmitError::Full`] so the client can retry or shed
//!   load. A submission that returns `Ok` is **admitted**: it will be
//!   applied (writes) or answered (queries) even across shutdown.
//! * **Drain-ordered shutdown.** [`Service::shutdown`] stops admission and
//!   joins the writer, which (1) keeps processing the queue in admission
//!   order until every handle is dropped and the queue is empty, (2)
//!   retires the reader pool, and only then (3) drops the structure. Every
//!   admitted query's ticket resolves.
//!
//! Pick `bimst-service` when ops originate on more than one thread or you
//! need admission-order semantics under mixed read/write traffic; drive a
//! raw [`bimst_query::QueryBatch`] inline when a single loop owns the
//! structure — the service's admission hop costs ~µs per batch (measured
//! against an inline engine on the same op stream; `perfbench --trace 1`
//! reports it as `service.*_tax_us`).
//!
//! # Quick start
//!
//! ```
//! use bimst_service::{QueryReq, Service, ServiceConfig};
//!
//! let svc = Service::eager(100, 42, ServiceConfig::default());
//! // A path over vertices 0..=98; vertex 99 stays isolated.
//! svc.insert((0..98).map(|v| (v, v + 1)).collect()).unwrap();
//! let ticket = svc.query(QueryReq::WindowConnected(vec![(0, 98), (0, 99)])).unwrap();
//! let answered = ticket.wait().unwrap();
//! assert_eq!(answered.generation, 1); // admitted after the first write group
//! assert_eq!(answered.resp.into_window_connected().unwrap(), vec![true, false]);
//! svc.shutdown();
//! ```

use std::io;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

use bimst_graphgen::Op;
use bimst_primitives::{FoldKind, FoldValue, VertexId, WKey};
use bimst_query::WindowConnectivity;
use bimst_sliding::{SlidingWrite, SwConn, SwConnEager, TenantSet, TenantSpec};
use bimst_wal::{Meta, Recovery, Store, Write};

mod reader;
mod replica;
mod shard;

use shard::{DurCtl, Queue, Req, Run};

pub use bimst_wal::SyncPolicy;
pub use replica::{ReplicaSet, ReplicaSetConfig};

/// What a window structure must provide to be served: the write surface
/// (`bimst_sliding::SlidingWrite`, driven by the writer thread) and the
/// read surface (`bimst_query::WindowConnectivity`, consumed by the reader
/// pool through snapshots — hence `Sync`). Blanket-implemented; both
/// [`SwConn`] and [`SwConnEager`] qualify.
pub trait ServeWindow: SlidingWrite + WindowConnectivity + Send + Sync + 'static {}

impl<W: SlidingWrite + WindowConnectivity + Send + Sync + 'static> ServeWindow for W {}

/// Shape of a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Threads answering queries, the writer included; `readers − 1`
    /// reader threads are spawned, so `1` spawns none. Each slot owns a
    /// `QueryBatch` whose scratch persists across generations; coalesced
    /// query plans are split across the slots in contiguous ranges of at
    /// least 64 queries, so a shorter plan never leaves the writer.
    /// Clamped to ≥ 1.
    pub readers: usize,
    /// Capacity of the bounded admission queue (ops, not edges). Clamped
    /// to ≥ 1. Blocking submits park when full; `try_*` submits return
    /// [`TrySubmitError::Full`].
    pub queue_cap: usize,
    /// Group-commit budget: the writer merges consecutive queued insert
    /// ops until the merged batch holds at least this many edges (a single
    /// submitted op larger than the budget is still applied whole).
    pub write_budget: usize,
    /// When the writer fsyncs WAL appends — only meaningful for durable
    /// services ([`Service::eager_durable`] / [`Service::lazy_durable`] /
    /// [`Service::recover`]); ignored by the in-memory constructors.
    /// Under [`SyncPolicy::Always`] group commit is disabled so the
    /// record boundary is the op boundary; the other policies keep the
    /// `write_budget` group-commit merge and sync (or don't) per merged
    /// group. See the README's *Durability* section for what an
    /// acked-but-unsynced op means under each policy.
    pub sync: SyncPolicy,
    /// Durable services write a compacted checkpoint after at least this
    /// many write groups (= WAL records = generations; `0` = never,
    /// recovery then replays the whole log). Ignored by the in-memory
    /// constructors.
    pub checkpoint_every: u64,
}

/// The default checkpoint cadence, in write groups: `ServiceConfig`'s
/// default, and the cadence of every durable `ReplicaSet`.
pub(crate) const CHECKPOINT_EVERY: u64 = 1 << 15;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            readers: 2,
            queue_cap: 1024,
            write_budget: 1 << 14,
            sync: SyncPolicy::GroupCommit,
            checkpoint_every: CHECKPOINT_EVERY,
        }
    }
}

/// One query batch, as submitted by a client.
///
/// Non-exhaustive: serving kinds are added as the query engine grows
/// (`PathFold` arrived after `PathMax`), so foreign matches need a
/// wildcard arm. Every variant stays constructible.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum QueryReq {
    /// Window connectivity (`is_connected` on the served structure).
    WindowConnected(Vec<(VertexId, VertexId)>),
    /// Path-max over the underlying MSF (`None` when disconnected or
    /// `u == v`). On an eager window this equals [`QueryReq::PathFold`]
    /// with [`FoldKind::Max`]. On a lazy window it does not: `PathMax`
    /// walks the retained MSF, expired edges included, while `PathFold`
    /// applies the window cutoff and answers `None` across an expired
    /// edge.
    PathMax(Vec<(VertexId, VertexId)>),
    /// Monoid path aggregation over the window MSF
    /// (`bimst_query::QueryBatch::batch_window_path_fold`): `kind` picks
    /// the monoid, each answer folds it along the pair's window tree path
    /// (`None` when window-disconnected or `u == v`). Answers arrive as
    /// [`QueryResp::PathFold`] with the [`FoldValue`] arm matching the
    /// kind.
    PathFold {
        /// Which monoid to fold (max, min, sum, or hop count).
        kind: FoldKind,
        /// Endpoint pairs, as in [`QueryReq::PathMax`].
        pairs: Vec<(VertexId, VertexId)>,
    },
    /// Component size in the underlying MSF.
    ComponentSize(Vec<VertexId>),
    /// Window connectivity *for one logical tenant* of a multi-tenant
    /// service ([`Service::tenants`]): answered under the tenant's own
    /// window length via its recency cutoff on the shared structure.
    /// Answers arrive as
    /// [`QueryResp::WindowConnected`]. Submitting this to a service whose
    /// window serves no tenants fails stop.
    TenantConnected {
        /// The tenant the answers are scoped to.
        tenant: u32,
        /// Endpoint pairs, as in [`QueryReq::WindowConnected`].
        pairs: Vec<(VertexId, VertexId)>,
    },
}

impl QueryReq {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        match self {
            QueryReq::WindowConnected(q) | QueryReq::PathMax(q) => q.len(),
            QueryReq::ComponentSize(q) => q.len(),
            QueryReq::TenantConnected { pairs, .. } | QueryReq::PathFold { pairs, .. } => {
                pairs.len()
            }
        }
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// No answers, of the kind this batch is answered with.
    fn no_answers(&self) -> QueryResp {
        match self {
            QueryReq::WindowConnected(_) | QueryReq::TenantConnected { .. } => {
                QueryResp::WindowConnected(Vec::new())
            }
            QueryReq::PathMax(_) => QueryResp::PathMax(Vec::new()),
            QueryReq::ComponentSize(_) => QueryResp::ComponentSize(Vec::new()),
            QueryReq::PathFold { .. } => QueryResp::PathFold(Vec::new()),
        }
    }
}

/// Answers to one [`QueryReq`], in query order.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResp {
    /// See [`QueryReq::WindowConnected`].
    WindowConnected(Vec<bool>),
    /// See [`QueryReq::PathMax`].
    PathMax(Vec<Option<WKey>>),
    /// See [`QueryReq::ComponentSize`].
    ComponentSize(Vec<usize>),
    /// See [`QueryReq::PathFold`]. Every answer in a batch carries the
    /// same [`FoldValue`] arm (determined by the request's [`FoldKind`]).
    PathFold(Vec<Option<FoldValue>>),
}

impl QueryResp {
    /// Number of answers.
    pub fn len(&self) -> usize {
        match self {
            QueryResp::WindowConnected(a) => a.len(),
            QueryResp::PathMax(a) => a.len(),
            QueryResp::ComponentSize(a) => a.len(),
            QueryResp::PathFold(a) => a.len(),
        }
    }

    /// Whether the answer set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The connectivity answers, if this was a window-connectivity batch.
    pub fn into_window_connected(self) -> Option<Vec<bool>> {
        match self {
            QueryResp::WindowConnected(a) => Some(a),
            _ => None,
        }
    }

    /// The path-max answers, if this was a path-max batch.
    pub fn into_path_max(self) -> Option<Vec<Option<WKey>>> {
        match self {
            QueryResp::PathMax(a) => Some(a),
            _ => None,
        }
    }

    /// The component sizes, if this was a component-size batch.
    pub fn into_component_size(self) -> Option<Vec<usize>> {
        match self {
            QueryResp::ComponentSize(a) => Some(a),
            _ => None,
        }
    }

    /// The fold answers, if this was a path-fold batch.
    pub fn into_path_fold(self) -> Option<Vec<Option<FoldValue>>> {
        match self {
            QueryResp::PathFold(a) => Some(a),
            _ => None,
        }
    }

    /// Splices `more` in at offset `at`, dropping whatever followed:
    /// partials arrive in range order, so `at == 0` restarts a reused
    /// buffer.
    fn put(&mut self, at: usize, more: QueryResp) {
        match (self, more) {
            (QueryResp::WindowConnected(a), QueryResp::WindowConnected(b)) => {
                drop(a.splice(at.., b))
            }
            (QueryResp::PathMax(a), QueryResp::PathMax(b)) => drop(a.splice(at.., b)),
            (QueryResp::ComponentSize(a), QueryResp::ComponentSize(b)) => drop(a.splice(at.., b)),
            (QueryResp::PathFold(a), QueryResp::PathFold(b)) => drop(a.splice(at.., b)),
            _ => unreachable!("answers of two kinds in one plan"),
        }
    }

    /// A copy of the answers in `r`.
    fn slice(&self, r: std::ops::Range<usize>) -> QueryResp {
        match self {
            QueryResp::WindowConnected(a) => QueryResp::WindowConnected(a[r].to_vec()),
            QueryResp::PathMax(a) => QueryResp::PathMax(a[r].to_vec()),
            QueryResp::ComponentSize(a) => QueryResp::ComponentSize(a[r].to_vec()),
            QueryResp::PathFold(a) => QueryResp::PathFold(a[r].to_vec()),
        }
    }
}

/// A resolved query: the answers plus the generation they were computed at
/// (the number of write groups applied before the batch was admitted —
/// snapshot consistency means the answers reflect exactly that state).
#[derive(Clone, Debug, PartialEq)]
pub struct Answered {
    /// Write-group generation the batch was admitted (and answered) at.
    pub generation: u64,
    /// Answers, in query order.
    pub resp: QueryResp,
}

/// The service has shut down (or its writer died); the submission was not
/// admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("bimst-service: service is shut down")
    }
}

impl std::error::Error for ServiceClosed {}

/// Why a `try_*` submission was rejected; carries the op back so the
/// caller can retry without cloning (a rejected op is **not** admitted and
/// will never be applied). `#[must_use]`: dropping the rejection silently
/// drops the op — retry it, shed it deliberately, or at least log it.
#[must_use = "a rejected op was not admitted; retry or shed it deliberately"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrySubmitError<T> {
    /// The bounded admission queue is full — backpressure; retry later.
    Full(T),
    /// The service has shut down.
    Closed(T),
}

impl<T> TrySubmitError<T> {
    /// The rejected op.
    pub fn into_inner(self) -> T {
        match self {
            TrySubmitError::Full(t) | TrySubmitError::Closed(t) => t,
        }
    }

    /// Whether this rejection is retryable backpressure.
    pub fn is_full(&self) -> bool {
        matches!(self, TrySubmitError::Full(_))
    }
}

impl<T> std::fmt::Display for TrySubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full(_) => f.write_str("bimst-service: admission queue full"),
            TrySubmitError::Closed(_) => f.write_str("bimst-service: service is shut down"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for TrySubmitError<T> {}

/// A pending query's answer slot. Admission guarantees resolution: once
/// the submitting call returned `Ok`, [`QueryTicket::wait`] returns the
/// answers even if the service is shut down in between (drain ordering).
/// `#[must_use]`: a dropped ticket is a query whose answers nobody reads.
#[must_use = "a dropped ticket discards the query's answers; call wait() or try_wait()"]
#[derive(Debug)]
pub struct QueryTicket {
    rx: Receiver<Answered>,
}

impl QueryTicket {
    /// Blocks until the batch is answered.
    ///
    /// `Err(ServiceClosed)` is only possible if the writer thread died
    /// abnormally (panicked); orderly shutdown always answers first.
    pub fn wait(self) -> Result<Answered, ServiceClosed> {
        self.rx.recv().map_err(|_| ServiceClosed)
    }

    /// Non-blocking poll: `Ok(Some(_))` once answered, `Ok(None)` while
    /// pending, `Err(ServiceClosed)` if the writer died abnormally (so a
    /// poll loop terminates instead of spinning on a dead service).
    pub fn try_wait(&self) -> Result<Option<Answered>, ServiceClosed> {
        match self.rx.try_recv() {
            Ok(a) => Ok(Some(a)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ServiceClosed),
        }
    }
}

/// A pending [`ServiceHandle::barrier`]: resolves with the generation once
/// every write admitted before the barrier has been applied. `#[must_use]`:
/// an unwaited barrier synchronizes nothing.
#[must_use = "a barrier only synchronizes if you wait() on it"]
#[derive(Debug)]
pub struct BarrierTicket {
    rx: Receiver<u64>,
}

impl BarrierTicket {
    /// Blocks until all prior writes are applied; returns the generation.
    pub fn wait(self) -> Result<u64, ServiceClosed> {
        self.rx.recv().map_err(|_| ServiceClosed)
    }
}

/// A clonable client endpoint: submissions from any number of threads are
/// admitted in channel (FIFO) order, which is the order the service's
/// sequential semantics are defined against.
#[derive(Clone)]
pub struct ServiceHandle {
    tx: SyncSender<Req>,
    /// `service_submitted_ops`: everything admitted through this service's
    /// handles (writes, queries, barriers, metrics requests). The writer
    /// pairs it with its own processed count to derive the queue depth.
    submitted: bimst_obs::Counter,
    /// `service_rejected_full`: non-blocking submissions bounced with
    /// [`TrySubmitError::Full`] (backpressure events, never admitted).
    rejected: bimst_obs::Counter,
}

impl ServiceHandle {
    fn new(tx: SyncSender<Req>, rec: &bimst_obs::Recorder) -> ServiceHandle {
        ServiceHandle {
            tx,
            submitted: rec.counter("service_submitted_ops"),
            rejected: rec.counter("service_rejected_full"),
        }
    }

    /// Admits `req`, blocking under backpressure.
    fn submit(&self, req: Req) -> Result<(), ServiceClosed> {
        self.send(req).map_err(|_| ServiceClosed)
    }

    /// [`ServiceHandle::submit`], handing `req` back if the writer is gone.
    fn send(&self, req: Req) -> Result<(), Req> {
        self.tx.send(req).map_err(|e| e.0)?;
        self.submitted.inc();
        Ok(())
    }

    /// Admits `req` without blocking; a rejected request is handed back
    /// through `back`, which recovers the caller's op from it.
    fn try_submit<T>(&self, req: Req, back: fn(Req) -> T) -> Result<(), TrySubmitError<T>> {
        match self.tx.try_send(req) {
            Ok(()) => {
                self.submitted.inc();
                Ok(())
            }
            Err(TrySendError::Full(r)) => {
                self.rejected.inc();
                Err(TrySubmitError::Full(back(r)))
            }
            Err(TrySendError::Disconnected(r)) => Err(TrySubmitError::Closed(back(r))),
        }
    }

    /// Admits an insert batch (blocking under backpressure). The edges are
    /// appended on the new side of the window, positions assigned in
    /// admission order.
    pub fn insert(&self, edges: Vec<(VertexId, VertexId)>) -> Result<(), ServiceClosed> {
        self.submit(Req::Write(Write::Insert(edges)))
    }

    /// [`ServiceHandle::insert`] without blocking: under a full queue the
    /// batch is handed back via [`TrySubmitError::Full`], un-admitted.
    pub fn try_insert(
        &self,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Result<(), TrySubmitError<Vec<(VertexId, VertexId)>>> {
        self.try_submit(Req::Write(Write::Insert(edges)), |r| match r {
            Req::Write(Write::Insert(v)) => v,
            _ => unreachable!("try_insert sent an insert"),
        })
    }

    /// Admits an expiration of the `delta` oldest stream positions
    /// (blocking under backpressure).
    pub fn expire(&self, delta: u64) -> Result<(), ServiceClosed> {
        self.submit(Req::Write(Write::Expire(delta)))
    }

    /// [`ServiceHandle::expire`] without blocking.
    pub fn try_expire(&self, delta: u64) -> Result<(), TrySubmitError<u64>> {
        self.try_submit(Req::Write(Write::Expire(delta)), |r| match r {
            Req::Write(Write::Expire(d)) => d,
            _ => unreachable!("try_expire sent an expire"),
        })
    }

    /// Admits a query batch (blocking under backpressure); the ticket
    /// resolves with answers computed at the admission generation.
    pub fn query(&self, req: QueryReq) -> Result<QueryTicket, ServiceClosed> {
        let (resp, rx) = mpsc::channel();
        let at = bimst_obs::enabled().then(std::time::Instant::now);
        self.submit(Req::Query { req, resp, at })?;
        Ok(QueryTicket { rx })
    }

    /// [`ServiceHandle::query`] without blocking.
    pub fn try_query(&self, req: QueryReq) -> Result<QueryTicket, TrySubmitError<QueryReq>> {
        let (resp, rx) = mpsc::channel();
        let at = bimst_obs::enabled().then(std::time::Instant::now);
        self.try_submit(Req::Query { req, resp, at }, |r| match r {
            Req::Query { req, .. } => req,
            _ => unreachable!("try_query sent Req::Query"),
        })?;
        Ok(QueryTicket { rx })
    }

    /// Admits a tenant-scoped connectivity batch
    /// ([`QueryReq::TenantConnected`]) against a multi-tenant service.
    pub fn query_tenant(
        &self,
        tenant: u32,
        pairs: Vec<(VertexId, VertexId)>,
    ) -> Result<QueryTicket, ServiceClosed> {
        self.query(QueryReq::TenantConnected { tenant, pairs })
    }

    /// Admits a monoid path-aggregation batch ([`QueryReq::PathFold`]):
    /// `kind` picks the fold, answers arrive as [`QueryResp::PathFold`].
    pub fn query_fold(
        &self,
        kind: FoldKind,
        pairs: Vec<(VertexId, VertexId)>,
    ) -> Result<QueryTicket, ServiceClosed> {
        self.query(QueryReq::PathFold { kind, pairs })
    }

    /// Admits a write barrier: its ticket resolves (with the generation)
    /// once every write admitted before it has been applied.
    pub fn barrier(&self) -> Result<BarrierTicket, ServiceClosed> {
        let (resp, rx) = mpsc::channel();
        self.submit(Req::Barrier(resp))?;
        Ok(BarrierTicket { rx })
    }

    /// A generation-consistent metrics snapshot: the request rides the
    /// admission queue, so the writer answers it after everything admitted
    /// before it (FIFO) and the snapshot's counters cover exactly that
    /// prefix. Folds the service's own registry with the window
    /// structure's (tenant cutoff lag) and the process-global one (engine
    /// rounds, query plans — aggregated across *all* services in the
    /// process). Blocks under backpressure like any other submission.
    ///
    /// Export with [`bimst_obs::Snapshot::to_json`] or
    /// [`bimst_obs::Snapshot::to_prometheus`].
    pub fn metrics_snapshot(&self) -> Result<bimst_obs::Snapshot, ServiceClosed> {
        let mut snap = self.writer_metrics()?;
        snap.absorb(&bimst_obs::global().snapshot());
        Ok(snap)
    }

    /// The writer's snapshot without the process-global recorder.
    fn writer_metrics(&self) -> Result<bimst_obs::Snapshot, ServiceClosed> {
        let (resp, rx) = mpsc::channel();
        self.submit(Req::Metrics(resp))?;
        rx.recv().map_err(|_| ServiceClosed)
    }

    /// Adapter from a `bimst_graphgen` mixed-workload op
    /// ([`bimst_graphgen::MixedStream`] is an iterator of these): writes
    /// are admitted fire-and-forget, query ops return a ticket. This is
    /// the one place a generator op enters the runtime; past it a write
    /// is the log's [`bimst_wal::Write`] and a query a [`QueryReq`].
    ///
    /// # Panics
    ///
    /// On an op variant this build has no serving path for (`Op` is
    /// non-exhaustive): silently dropping an op would skew any workload
    /// driven through this adapter, so it fails stop instead.
    pub fn submit_op(&self, op: Op) -> Result<Option<QueryTicket>, ServiceClosed> {
        match op {
            Op::Insert(edges) => self.insert(edges).map(|()| None),
            Op::Expire(delta) => self.expire(delta).map(|()| None),
            Op::ConnectedQueries(qs) => self.query(QueryReq::WindowConnected(qs)).map(Some),
            Op::PathMaxQueries(qs) => self.query(QueryReq::PathMax(qs)).map(Some),
            Op::ComponentSizeQueries(vs) => self.query(QueryReq::ComponentSize(vs)).map(Some),
            Op::TenantConnectedQueries(tenant, qs) => self
                .query(QueryReq::TenantConnected { tenant, pairs: qs })
                .map(Some),
            Op::PathFoldQueries(kind, qs) => {
                self.query(QueryReq::PathFold { kind, pairs: qs }).map(Some)
            }
            op => panic!("bimst-service: no serving path for op variant {op:?}"),
        }
    }
}

/// A running serving instance. Derefs to [`ServiceHandle`] for submissions
/// from the owning thread; [`Service::handle`] clones an endpoint for
/// other client threads.
pub struct Service {
    handle: ServiceHandle,
    writer: Option<JoinHandle<()>>,
}

impl Service {
    /// Starts a service around an existing window structure (in-memory:
    /// no WAL; `cfg.sync` / `cfg.checkpoint_every` are ignored).
    pub fn start<W: ServeWindow>(w: W, cfg: ServiceConfig) -> Service {
        Service::thread("bimst-serve-writer", cfg.queue_cap, move |rx, rec| {
            let q = Queue::new(rx, true, cfg.write_budget);
            shard::writer_main(w, None, Run::new(q, 0, cfg.readers, rec))
        })
    }

    /// Starts the writer thread `name`, which runs `body` over the
    /// receiving end of a fresh admission queue of `queue_cap` and a fresh
    /// per-service recorder.
    fn thread(
        name: &str,
        queue_cap: usize,
        body: impl FnOnce(Receiver<Req>, bimst_obs::Recorder) + Send + 'static,
    ) -> Service {
        let (tx, rx) = mpsc::sync_channel(queue_cap.max(1));
        // Handle counters register on the same per-service recorder the
        // writer snapshots, so submitted/rejected show up in
        // `metrics_snapshot()` without any cross-thread plumbing.
        let rec = bimst_obs::Recorder::new();
        let handle = ServiceHandle::new(tx, &rec);
        let writer = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || body(rx, rec))
            .expect("spawn bimst-service writer thread");
        Service {
            handle,
            writer: Some(writer),
        }
    }

    /// A service over a fresh eager-expiry window ([`SwConnEager`]):
    /// expired edges are cut, component counting works, `PathMax` /
    /// `ComponentSize` reflect exactly the window's MSF.
    pub fn eager(n: usize, seed: u64, cfg: ServiceConfig) -> Service {
        Service::start(SwConnEager::new(n, seed), cfg)
    }

    /// A service over a fresh lazy-expiry window ([`SwConn`]): `O(1)`
    /// expiry; `WindowConnected` applies the recent-edge test, while
    /// `PathMax` / `ComponentSize` answer over the retained MSF (which
    /// still contains expired edges).
    pub fn lazy(n: usize, seed: u64, cfg: ServiceConfig) -> Service {
        Service::start(SwConn::new(n, seed), cfg)
    }

    /// A service over a fresh multi-tenant window set ([`TenantSet`]): N
    /// logical windows over one stream, served by a single shared lazy
    /// structure sized to the longest window. A tenant's
    /// [`QueryReq::TenantConnected`] batch is answered under its own
    /// window length via a per-tenant recency cutoff (Lemma 5.1 applied
    /// per tenant). Mixed-tenant batches admitted in the same generation
    /// share one path-max plan.
    ///
    /// In-memory only: durable recovery of a tenant registry is future
    /// work (the WAL refuses to create or open a tenant-tagged store), and
    /// this constructor takes no store path so nothing about it *looks*
    /// durable. `cfg.sync` / `cfg.checkpoint_every` are ignored exactly
    /// as by [`Service::start`].
    pub fn tenants(n: usize, seed: u64, specs: &[TenantSpec], cfg: ServiceConfig) -> Service {
        Service::start(TenantSet::new(n, seed, specs), cfg)
    }

    /// [`Service::eager`] with durability: admitted write ops are logged
    /// to a fresh WAL store at `path` (created; must not already hold
    /// one) *before* they are applied, under `cfg.sync`, with compacted
    /// checkpoints every `cfg.checkpoint_every` write groups. After a
    /// crash or shutdown, [`Service::recover`] resumes from `path`.
    pub fn eager_durable(
        path: impl AsRef<Path>,
        n: usize,
        seed: u64,
        cfg: ServiceConfig,
    ) -> io::Result<Service> {
        Service::create_durable(path, shard::meta(n, seed, true), cfg)
    }

    /// [`Service::lazy`] with durability; see [`Service::eager_durable`].
    pub fn lazy_durable(
        path: impl AsRef<Path>,
        n: usize,
        seed: u64,
        cfg: ServiceConfig,
    ) -> io::Result<Service> {
        Service::create_durable(path, shard::meta(n, seed, false), cfg)
    }

    fn create_durable(
        path: impl AsRef<Path>,
        meta: Meta,
        cfg: ServiceConfig,
    ) -> io::Result<Service> {
        let store = Store::create(path, &meta)?;
        Ok(Service::resume(store, meta, Recovery::default(), cfg))
    }

    /// Reopens the WAL store at `path`, rebuilds the window it describes
    /// (newest valid checkpoint + replay of the intact log tail — a torn
    /// final record is discarded, never misparsed), and resumes serving
    /// at the recovered generation. The store remembers its own identity
    /// (`n`, seed, expiry discipline), so only the serving shape is
    /// taken from `cfg`.
    ///
    /// Answers after recovery are bit-identical to a service that had
    /// applied the surviving admitted-op prefix without interruption
    /// (pinned by `tests/wal_recovery.rs` and the torture suite in
    /// `crates/wal/tests/`).
    pub fn recover(path: impl AsRef<Path>, cfg: ServiceConfig) -> io::Result<Service> {
        let (store, meta, rec) = Store::open(path)?;
        Ok(Service::resume(store, meta, rec, cfg))
    }

    /// [`Service::recover`], but the caller states the identity it
    /// expects the store to have: `n`, `seed`, and the expiry discipline
    /// must match the stored meta exactly, otherwise recovery fails with
    /// [`io::ErrorKind::InvalidInput`] naming every disagreeing field —
    /// before any file is touched — instead of trusting the store and
    /// silently rebuilding a structure the caller's config does not
    /// describe (e.g. a recover pointed at the wrong directory).
    pub fn recover_expecting(
        path: impl AsRef<Path>,
        n: usize,
        seed: u64,
        eager: bool,
        cfg: ServiceConfig,
    ) -> io::Result<Service> {
        let (store, meta, rec) = Store::open_expecting(path, &shard::meta(n, seed, eager))?;
        Ok(Service::resume(store, meta, rec, cfg))
    }

    /// Starts a durable service whose writer thread rebuilds the window
    /// `meta` describes at the recovered position `from`.
    fn resume(store: Store, meta: Meta, from: Recovery, cfg: ServiceConfig) -> Service {
        Service::thread("bimst-serve-writer", cfg.queue_cap, move |rx, rec| {
            // WAL metrics (`wal_*`) land on the service recorder: the store
            // is owned by this writer, so they are per-service too.
            let dur = DurCtl::new(store, cfg.sync, cfg.checkpoint_every, &rec);
            let q = Queue::new(rx, dur.merges(), cfg.write_budget);
            let run = Run {
                dur: Some(dur),
                ..Run::new(q, from.generation, cfg.readers, rec)
            };
            shard::open_window(&meta, &from, run)
        })
    }

    /// A client endpoint for another thread.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Stops admission from this `Service` and blocks until the writer has
    /// drained: every admitted write applied, every admitted query
    /// answered, readers retired — in that order. If other
    /// [`ServiceHandle`] clones are still alive, the writer keeps serving
    /// them and `shutdown` blocks until they are dropped too (admission
    /// guarantees survive shutdown races; nothing acked is ever lost).
    ///
    /// Dropping a `Service` without calling `shutdown` also drains, but
    /// detached — the writer finishes in the background.
    pub fn shutdown(mut self) {
        let writer = self.writer.take();
        drop(self); // closes this end of the admission queue
        if let Some(writer) = writer {
            let _ = writer.join();
        }
    }
}

impl std::ops::Deref for Service {
    type Target = ServiceHandle;

    fn deref(&self) -> &ServiceHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(readers: usize) -> ServiceConfig {
        ServiceConfig {
            readers,
            queue_cap: 64,
            write_budget: 1 << 12,
            ..ServiceConfig::default()
        }
    }

    /// Answers must match a sequentially driven structure, for both expiry
    /// disciplines and several reader counts.
    #[test]
    fn serves_like_the_sequential_structure() {
        for readers in [1, 3] {
            let svc = Service::eager(10, 5, cfg(readers));
            let mut seq = SwConnEager::new(10, 5);

            svc.insert(vec![(0, 1), (1, 2), (3, 4)]).unwrap();
            seq.batch_insert(&[(0, 1), (1, 2), (3, 4)]);
            let t1 = svc
                .query(QueryReq::WindowConnected(vec![(0, 2), (0, 3), (3, 4)]))
                .unwrap();

            svc.expire(1).unwrap();
            seq.batch_expire(1);
            let t2 = svc.query(QueryReq::ComponentSize(vec![0, 1, 3])).unwrap();
            let t3 = svc.query(QueryReq::PathMax(vec![(1, 2), (0, 2)])).unwrap();

            let a1 = t1.wait().unwrap();
            assert_eq!(a1.generation, 1);
            assert_eq!(
                a1.resp.into_window_connected().unwrap(),
                vec![true, false, true]
            );

            let a2 = t2.wait().unwrap();
            assert_eq!(a2.generation, 2);
            assert_eq!(
                a2.resp.into_component_size().unwrap(),
                vec![
                    seq.msf().component_size(0),
                    seq.msf().component_size(1),
                    seq.msf().component_size(3)
                ]
            );

            let a3 = t3.wait().unwrap();
            assert_eq!(
                a3.resp.into_path_max().unwrap(),
                vec![seq.msf().path_max(1, 2), seq.msf().path_max(0, 2)]
            );
            svc.shutdown();
        }
    }

    #[test]
    fn lazy_window_applies_recent_edge_test() {
        let svc = Service::lazy(6, 9, cfg(2));
        let mut seq = SwConn::new(6, 9);
        svc.insert(vec![(0, 1), (1, 2)]).unwrap();
        seq.batch_insert(&[(0, 1), (1, 2)]);
        svc.expire(1).unwrap();
        seq.batch_expire(1);
        let got = svc
            .query(QueryReq::WindowConnected(vec![(0, 1), (1, 2), (0, 2)]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            got.resp.into_window_connected().unwrap(),
            vec![
                seq.is_connected(0, 1),
                seq.is_connected(1, 2),
                seq.is_connected(0, 2)
            ]
        );
        svc.shutdown();
    }

    /// On a lazy window `PathMax` is not `PathFold { Max }`: the former
    /// walks the retained MSF, expired edges included, while the fold
    /// applies the window cutoff.
    #[test]
    fn lazy_path_max_ignores_the_window_cutoff_path_fold_applies() {
        let svc = Service::lazy(4, 9, cfg(1));
        let mut seq = SwConn::new(4, 9);
        svc.insert(vec![(0, 1), (1, 2)]).unwrap();
        seq.batch_insert(&[(0, 1), (1, 2)]);
        svc.expire(1).unwrap();
        seq.batch_expire(1);
        let pm = svc.query(QueryReq::PathMax(vec![(0, 2)])).unwrap();
        let pf = svc.query_fold(FoldKind::Max, vec![(0, 2)]).unwrap();
        let want = seq.msf().path_max(0, 2);
        assert!(want.is_some(), "the retained MSF keeps the expired edge");
        assert_eq!(pm.wait().unwrap().resp.into_path_max().unwrap(), vec![want]);
        assert_eq!(
            pf.wait().unwrap().resp.into_path_fold().unwrap(),
            vec![None]
        );
        svc.shutdown();
    }

    #[test]
    fn barrier_reports_generation_after_prior_writes() {
        let svc = Service::eager(5, 1, cfg(1));
        assert_eq!(svc.barrier().unwrap().wait().unwrap(), 0);
        svc.insert(vec![(0, 1)]).unwrap();
        svc.expire(1).unwrap();
        // Two write ops admitted before this barrier: the generation it
        // reports must cover both (group commit may merge neither here —
        // they are different kinds — so exactly 2).
        assert_eq!(svc.barrier().unwrap().wait().unwrap(), 2);
        svc.shutdown();
    }

    #[test]
    fn shutdown_answers_all_admitted_queries() {
        let svc = Service::eager(50, 3, cfg(2));
        svc.insert((0..49).map(|v| (v, v + 1)).collect()).unwrap();
        let tickets: Vec<QueryTicket> = (0..40)
            .map(|i| {
                svc.query(QueryReq::WindowConnected(vec![(i % 50, (i + 1) % 50)]))
                    .unwrap()
            })
            .collect();
        svc.shutdown(); // every admitted ticket must still resolve
        for t in tickets {
            let a = t.wait().expect("drain-on-shutdown answers every query");
            assert_eq!(a.resp.len(), 1);
        }
    }

    /// Shutdown blocks until every handle clone is dropped (that is what
    /// makes "admitted ⇒ processed" exact), so the orderly path is
    /// drop-then-shutdown.
    #[test]
    fn shutdown_completes_once_handles_are_dropped() {
        let svc = Service::eager(4, 2, cfg(1));
        let h = svc.handle();
        h.insert(vec![(0, 1)]).unwrap();
        drop(h);
        svc.shutdown();
    }

    /// Submissions against a dead writer (its receiver gone) map onto the
    /// closed errors instead of panicking or hanging.
    #[test]
    fn submitting_to_a_dead_writer_fails_cleanly() {
        let (tx, rx) = mpsc::sync_channel(4);
        drop(rx);
        let h = ServiceHandle::new(tx, &bimst_obs::Recorder::new());
        assert_eq!(h.insert(vec![(0, 1)]), Err(ServiceClosed));
        assert!(h.metrics_snapshot().is_err());
        assert!(matches!(h.try_expire(1), Err(TrySubmitError::Closed(1))));
        assert!(matches!(
            h.try_insert(vec![(2, 3)]),
            Err(TrySubmitError::Closed(v)) if v == vec![(2, 3)]
        ));
        assert!(h.query(QueryReq::ComponentSize(vec![0])).is_err());
        assert!(h.barrier().is_err());
        assert_eq!(
            h.try_query(QueryReq::PathMax(vec![])).unwrap_err(),
            TrySubmitError::Closed(QueryReq::PathMax(vec![]))
        );
    }

    /// A malformed batch (out-of-range vertex id) must fail stop — ticket
    /// errors, service dead — never strand the writer at its join barrier.
    #[test]
    fn malformed_query_fails_stop_instead_of_hanging() {
        let svc = Service::eager(4, 2, cfg(2));
        svc.insert(vec![(0, 1)]).unwrap();
        let t = svc.query(QueryReq::ComponentSize(vec![900])).unwrap();
        assert!(t.wait().is_err(), "poisoned serve must resolve as closed");
        svc.shutdown();
    }

    /// The same fail-stop on the linear path-max plan, which a batch this
    /// size over a forest this small takes (each slot's range holds
    /// ≥ 64 pairs on 64 vertices): the bad id must panic whichever slot
    /// answers it, never be answered as a disconnected pair. 256 pairs on
    /// 2 slots split into two ranges of 128: index 10 sits in slot 0's
    /// range, which the writer answers itself (its panic is caught before
    /// the join), index 200 in the reader thread's.
    #[test]
    fn malformed_linear_plan_batch_fails_stop() {
        for bad in [10, 200] {
            let svc = Service::eager(64, 2, cfg(2));
            svc.insert((0..63).map(|v| (v, v + 1)).collect()).unwrap();
            let mut pairs: Vec<(u32, u32)> = (0..256).map(|i| (i % 64, (i * 7) % 64)).collect();
            pairs[bad] = (3, 900);
            let t = svc.query(QueryReq::PathMax(pairs)).unwrap();
            assert!(
                t.wait().is_err(),
                "poisoned serve must resolve as closed (index {bad})"
            );
            svc.shutdown();
        }
    }

    /// Every kind answers an empty batch with empty answers of its own
    /// kind, including the first batch of a kind (whose plan no reader
    /// has filled yet).
    #[test]
    fn empty_batches_are_fine() {
        let svc = Service::eager(4, 2, cfg(2));
        svc.insert(vec![]).unwrap();
        let fold = QueryReq::PathFold {
            kind: FoldKind::Sum,
            pairs: vec![],
        };
        for (req, want) in [
            (QueryReq::PathMax(vec![]), QueryResp::PathMax(vec![])),
            (
                QueryReq::ComponentSize(vec![]),
                QueryResp::ComponentSize(vec![]),
            ),
            (
                QueryReq::WindowConnected(vec![]),
                QueryResp::WindowConnected(vec![]),
            ),
            (fold, QueryResp::PathFold(vec![])),
        ] {
            let a = svc.query(req).unwrap().wait().unwrap();
            assert_eq!(a.resp, want);
        }
        svc.shutdown();
    }

    /// Monoid fold batches served end to end must match the engine folds
    /// on a sequentially driven twin — every wire kind, both expiry
    /// disciplines, and a run mixing kinds in one generation (so the
    /// merged plan's same-kind span dispatch and the split-back cursor
    /// are both exercised).
    #[test]
    fn path_fold_serves_every_kind_like_the_engine() {
        use bimst_primitives::{Hops, MinW, SumW};
        let edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)];
        let pairs: Vec<(u32, u32)> = vec![(0, 3), (1, 3), (5, 7), (0, 5), (2, 2)];
        for lazy in [false, true] {
            let svc = if lazy {
                Service::lazy(10, 3, cfg(2))
            } else {
                Service::eager(10, 3, cfg(2))
            };
            let mut seq = SwConnEager::new(10, 3);
            svc.insert(edges.clone()).unwrap();
            seq.batch_insert(&edges);
            svc.expire(1).unwrap();
            seq.batch_expire(1);
            // One batch per kind, admitted back to back so coalescing can
            // merge them into one multi-kind plan.
            let tickets: Vec<QueryTicket> = FoldKind::ALL
                .iter()
                .map(|&k| svc.query_fold(k, pairs.clone()).unwrap())
                .collect();
            let answers: Vec<Vec<Option<FoldValue>>> = tickets
                .into_iter()
                .map(|t| t.wait().unwrap().resp.into_path_fold().unwrap())
                .collect();
            // Oracle: fold each pair on the eager twin's window MSF. The
            // lazy window retains the same unexpired paths here (the
            // expired edge (0,1) disconnects 0 from 3 either way via the
            // heaviest-edge test), so presence must agree with the eager
            // window's connectivity.
            for (ki, &kind) in FoldKind::ALL.iter().enumerate() {
                for (qi, &(u, v)) in pairs.iter().enumerate() {
                    let want = match kind {
                        FoldKind::Max => seq
                            .msf()
                            .path_fold::<bimst_primitives::MaxW>(u, v)
                            .map(FoldValue::Key),
                        FoldKind::Min => seq.msf().path_fold::<MinW>(u, v).map(FoldValue::Key),
                        FoldKind::Sum => seq.msf().path_fold::<SumW>(u, v).map(FoldValue::Sum),
                        FoldKind::Hops => seq.msf().path_fold::<Hops>(u, v).map(FoldValue::Hops),
                    };
                    assert_eq!(
                        answers[ki][qi], want,
                        "kind {kind:?} pair ({u},{v}) lazy={lazy}"
                    );
                }
            }
            svc.shutdown();
        }
    }

    /// Fold-tagged `MixedStream` ops drive the service end to end through
    /// `submit_op`, and every fold answer carries the arm its kind
    /// promises.
    #[test]
    fn fold_tagged_mixed_stream_drives_the_service() {
        use bimst_graphgen::{MixedConfig, MixedStream};
        let cfg_stream = MixedConfig {
            query_batch: 6,
            ..MixedConfig::serving(64)
        };
        let svc = Service::eager(64, 7, cfg(2));
        let mut tickets = Vec::new();
        for op in MixedStream::with_folds(cfg_stream, 11).take(60) {
            let kind = match &op {
                Op::PathFoldQueries(k, _) => Some(*k),
                _ => None,
            };
            if let Some(t) = svc.submit_op(op).unwrap() {
                tickets.push((kind, t));
            }
        }
        svc.shutdown();
        let mut folds = 0;
        for (kind, t) in tickets {
            let resp = t.wait().unwrap().resp;
            let Some(kind) = kind else { continue };
            folds += 1;
            for a in resp.into_path_fold().unwrap().into_iter().flatten() {
                let arm_matches = matches!(
                    (kind, a),
                    (FoldKind::Max | FoldKind::Min, FoldValue::Key(_))
                        | (FoldKind::Sum, FoldValue::Sum(_))
                        | (FoldKind::Hops, FoldValue::Hops(_))
                );
                assert!(arm_matches, "kind {kind:?} answered with {a:?}");
            }
        }
        assert!(folds > 0, "stream with folds on must emit fold batches");
    }

    #[test]
    fn mixed_stream_ops_drive_the_service() {
        use bimst_graphgen::{MixedConfig, MixedStream, MixedTopology};
        let cfg_stream = MixedConfig {
            n: 64,
            topology: MixedTopology::ErdosRenyi,
            insert_batch: 16,
            query_batch: 8,
            queries_per_insert: 3,
            window: 64,
            tenants: 0,
        };
        let svc = Service::eager(64, 7, cfg(2));
        let mut tickets = Vec::new();
        for op in MixedStream::new(cfg_stream, 11).take(25) {
            if let Some(t) = svc.submit_op(op).unwrap() {
                tickets.push(t);
            }
        }
        svc.shutdown();
        for t in tickets {
            assert_eq!(t.wait().unwrap().resp.len(), 8);
        }
    }

    /// A multi-tenant service's answers must match the sequentially driven
    /// `TenantSet`, across tenants of very different window lengths and
    /// mixed-tenant batches admitted in the same generation.
    #[test]
    fn tenant_service_matches_sequential_tenant_set() {
        let specs = [
            TenantSpec { id: 0, window: 64 },
            TenantSpec { id: 1, window: 8 },
            TenantSpec { id: 2, window: 2 },
        ];
        for readers in [1, 3] {
            let svc = Service::tenants(32, 7, &specs, cfg(readers));
            let mut seq = bimst_sliding::TenantSet::new(32, 7, &specs);
            let mut x = 11u64;
            let mut hash2 = |m: u64| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % m) as u32
            };
            for round in 0..10 {
                let edges: Vec<(u32, u32)> = (0..5).map(|_| (hash2(32), hash2(32))).collect();
                svc.insert(edges.clone()).unwrap();
                seq.batch_insert(&edges);
                if round % 3 == 2 {
                    svc.expire(4).unwrap();
                    seq.batch_expire(4);
                }
                // One batch per tenant, all admitted in the same
                // generation, so they coalesce into one cutoff plan.
                let pairs: Vec<(u32, u32)> = (0..6).map(|_| (hash2(32), hash2(32))).collect();
                let tickets: Vec<(u32, QueryTicket)> = specs
                    .iter()
                    .map(|s| (s.id, svc.query_tenant(s.id, pairs.clone()).unwrap()))
                    .collect();
                for (id, t) in tickets {
                    let got = t.wait().unwrap().resp.into_window_connected().unwrap();
                    let want: Vec<bool> = pairs
                        .iter()
                        .map(|&(u, v)| seq.is_connected(id, u, v))
                        .collect();
                    assert_eq!(got, want, "tenant {id} round {round}");
                }
            }
            svc.shutdown();
        }
    }

    /// A tenant query against a single-window service has no cutoff — it
    /// must fail stop (ticket errors, service dead), not silently answer
    /// from the wrong window.
    #[test]
    fn tenant_query_on_single_window_service_fails_stop() {
        let svc = Service::eager(8, 3, cfg(1));
        svc.insert(vec![(0, 1)]).unwrap();
        let t = svc.query_tenant(0, vec![(0, 1)]).unwrap();
        assert!(t.wait().is_err(), "routeless tenant query must fail stop");
    }

    /// Tenant-tagged `MixedStream` ops drive a multi-tenant service end to
    /// end through `submit_op`.
    #[test]
    fn tenant_tagged_mixed_stream_drives_the_service() {
        use bimst_graphgen::{MixedConfig, MixedStream};
        let cfg_stream = MixedConfig {
            tenants: 2,
            ..MixedConfig::serving(64)
        };
        let specs = [
            TenantSpec { id: 0, window: 64 },
            TenantSpec { id: 1, window: 4 },
        ];
        let svc = Service::tenants(64, 7, &specs, cfg(2));
        let mut tickets = Vec::new();
        for op in MixedStream::new(cfg_stream, 11).take(30) {
            if let Some(t) = svc.submit_op(op).unwrap() {
                tickets.push(t);
            }
        }
        svc.shutdown();
        assert!(!tickets.is_empty());
        // Every connectivity batch in the stream is tenant-tagged
        // (tenants > 0), so at least one ticket exercised the tenant path.
        let mut tenant_answers = 0;
        for t in tickets {
            if t.wait().unwrap().resp.into_window_connected().is_some() {
                tenant_answers += 1;
            }
        }
        assert!(tenant_answers > 0);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bimst_service_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ))
    }

    /// Orderly shutdown → recover resumes at the same generation and the
    /// recovered window answers like a sequentially driven twin, for both
    /// expiry disciplines and every sync policy.
    #[test]
    fn durable_shutdown_then_recover_round_trips() {
        for sync in [
            SyncPolicy::Always,
            SyncPolicy::GroupCommit,
            SyncPolicy::None,
        ] {
            for eager in [true, false] {
                let dir = tmpdir("round_trip");
                let c = ServiceConfig {
                    sync,
                    checkpoint_every: 3,
                    ..cfg(2)
                };
                let svc = if eager {
                    Service::eager_durable(&dir, 16, 5, c).unwrap()
                } else {
                    Service::lazy_durable(&dir, 16, 5, c).unwrap()
                };
                let mut seq = SwConnEager::new(16, 5);
                let script: [&[(u32, u32)]; 4] =
                    [&[(0, 1), (1, 2)], &[(3, 4)], &[(2, 3), (8, 9)], &[(9, 10)]];
                for edges in script {
                    svc.insert(edges.to_vec()).unwrap();
                    seq.batch_insert(edges);
                }
                svc.expire(2).unwrap();
                seq.batch_expire(2);
                let live_gen = svc.barrier().unwrap().wait().unwrap();
                svc.shutdown();

                let svc = Service::recover(&dir, c).unwrap();
                assert_eq!(svc.barrier().unwrap().wait().unwrap(), live_gen);
                let qs: Vec<(u32, u32)> = vec![(0, 2), (2, 4), (8, 10), (0, 10)];
                let got = svc
                    .query(QueryReq::WindowConnected(qs.clone()))
                    .unwrap()
                    .wait()
                    .unwrap()
                    .resp
                    .into_window_connected()
                    .unwrap();
                let want: Vec<bool> = qs.iter().map(|&(u, v)| seq.is_connected(u, v)).collect();
                assert_eq!(got, want, "sync={sync:?} eager={eager}");
                svc.shutdown();
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// A recovered service keeps logging: ops after recovery survive a
    /// second recovery, and the generation keeps counting from where the
    /// first incarnation stopped (no restart at zero, no gap).
    #[test]
    fn recovery_chains_across_incarnations() {
        let dir = tmpdir("chain");
        let c = ServiceConfig {
            checkpoint_every: 2,
            ..cfg(1)
        };
        let svc = Service::eager_durable(&dir, 8, 1, c).unwrap();
        svc.insert(vec![(0, 1)]).unwrap();
        svc.insert(vec![(1, 2)]).unwrap();
        assert!(svc.barrier().unwrap().wait().unwrap() >= 1);
        svc.shutdown();

        let svc = Service::recover(&dir, c).unwrap();
        let g1 = svc.barrier().unwrap().wait().unwrap();
        svc.insert(vec![(2, 3)]).unwrap();
        svc.expire(1).unwrap();
        let g2 = svc.barrier().unwrap().wait().unwrap();
        assert_eq!(g2, g1 + 2, "second incarnation continues the count");
        svc.shutdown();

        let svc = Service::recover(&dir, c).unwrap();
        assert_eq!(svc.barrier().unwrap().wait().unwrap(), g2);
        let a = svc
            .query(QueryReq::WindowConnected(vec![(1, 3), (0, 1)]))
            .unwrap()
            .wait()
            .unwrap();
        let mut seq = SwConnEager::new(8, 1);
        seq.batch_insert(&[(0, 1)]);
        seq.batch_insert(&[(1, 2)]);
        seq.batch_insert(&[(2, 3)]);
        seq.batch_expire(1);
        assert_eq!(
            a.resp.into_window_connected().unwrap(),
            vec![seq.is_connected(1, 3), seq.is_connected(0, 1)]
        );
        svc.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Under `Always` the writer must not merge: every admitted write op
    /// is its own WAL record, so the recovered generation equals the op
    /// count even with a backlog that group commit would have collapsed.
    #[test]
    fn always_policy_is_per_op() {
        let dir = tmpdir("always");
        let c = ServiceConfig {
            sync: SyncPolicy::Always,
            checkpoint_every: 0, // never: exercise the pure-tail path
            ..cfg(1)
        };
        let svc = Service::eager_durable(&dir, 8, 2, c).unwrap();
        for i in 0..6u32 {
            svc.insert(vec![(i % 7, i % 7 + 1)]).unwrap();
        }
        assert_eq!(svc.barrier().unwrap().wait().unwrap(), 6);
        svc.shutdown();
        let (_, _, rec) = bimst_wal::Store::open(&dir).unwrap();
        assert_eq!(rec.generation, 6);
        assert_eq!(rec.tail.len(), 6, "one record per op under Always");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `recover_expecting` refuses a store whose identity disagrees with
    /// the caller's, naming every field that differs and leaving the
    /// store's files untouched; a matching identity resumes it.
    #[test]
    fn recover_expecting_checks_the_store_identity() {
        let dir = tmpdir("expecting");
        let c = cfg(1);
        let svc = Service::lazy_durable(&dir, 16, 5, c).unwrap();
        svc.insert(vec![(0, 1), (1, 2)]).unwrap();
        svc.expire(1).unwrap();
        let g = svc.barrier().unwrap().wait().unwrap();
        svc.shutdown();
        let files = || -> Vec<(std::path::PathBuf, Vec<u8>)> {
            let mut all: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|p| (p.clone(), std::fs::read(p).unwrap()))
                .collect();
            all.sort();
            all
        };
        let before = files();
        for (n, seed, eager, named) in [
            (17, 5, false, &["n 16 != expected 17"][..]),
            (16, 6, false, &["seed 0x5 != expected 0x6"]),
            (16, 5, true, &["discipline lazy != expected eager"]),
            (
                8,
                9,
                true,
                &[
                    "n 16 != expected 8",
                    "seed 0x5 != expected 0x9",
                    "discipline lazy",
                ],
            ),
        ] {
            let err = Service::recover_expecting(&dir, n, seed, eager, c)
                .err()
                .expect("a mismatched identity must not recover");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            let msg = err.to_string();
            for field in named {
                assert!(msg.contains(field), "{msg:?} does not name {field:?}");
            }
            assert_eq!(files(), before, "a refused recover touched the store");
        }
        let svc = Service::recover_expecting(&dir, 16, 5, false, c).unwrap();
        assert_eq!(svc.barrier().unwrap().wait().unwrap(), g);
        svc.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `eager_durable` refuses a directory that already holds a store —
    /// clobbering an existing log would silently destroy its history.
    #[test]
    fn durable_create_refuses_existing_store() {
        let dir = tmpdir("refuse");
        let svc = Service::eager_durable(&dir, 4, 0, cfg(1)).unwrap();
        svc.shutdown();
        assert!(Service::eager_durable(&dir, 4, 0, cfg(1)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
