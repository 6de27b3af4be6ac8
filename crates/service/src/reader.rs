//! The reader side of the runtime: persistent worker threads, each owning
//! one [`QueryBatch`] shard, answering range-partitioned slices of the
//! writer's coalesced query plans against an epoch-pinned snapshot. The
//! writer is slot 0 of its own pool: it answers the ranges dealt to it
//! through the `&W` it already holds, so a pool of `readers` slots runs
//! `readers − 1` threads.
//!
//! # The epoch-handoff protocol
//!
//! The structure lives on the writer thread; readers see it only through
//! [`Snapshot`], a type-erased shared borrow that crosses the task channel.
//! Rust cannot express "this borrow is valid until the writer collects the
//! matching [`Partial`]" in lifetimes, so the invariant is a protocol,
//! enforced by the writer's control flow and documented here as the
//! contract every `unsafe` block below relies on:
//!
//! 1. **Publish.** The writer creates a `Snapshot` of `&W` and sends tasks
//!    referencing it. From this point the writer does not mutate (or move)
//!    the structure.
//! 2. **Serve.** A reader dereferences the snapshot only between receiving
//!    a task and sending that task's `Partial` — never holding the
//!    reference across loop iterations. Meanwhile the writer, as slot 0,
//!    answers its own ranges through a shared borrow of its own, and
//!    catches a panic there exactly as a reader does, so it never unwinds
//!    inside the window.
//! 3. **Retire.** The writer blocks until it has received one `Partial`
//!    per dispatched task, and only then resumes mutation. The channel's
//!    happens-before edge on each `Partial` makes the readers' last loads
//!    visible before the writer's next store.
//!
//! Together 1–3 re-create the borrow checker's many-readers-XOR-one-writer
//! rule at runtime, which is why every answer is computed against one
//! consistent generation.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use bimst_primitives::{FoldKind, FoldValue, Hops, MaxW, MinW, PathMonoid, SumW, VertexId};
use bimst_query::{QueryBatch, ReadHandle, WindowConnectivity};

use crate::{QueryResp, ServeWindow};

/// A shared borrow of the shard structure, valid for exactly one serve
/// generation (see the module docs for the protocol that makes this
/// sound). `Copy` so one publication fans out to many tasks.
pub(crate) struct Snapshot<W>(*const W);

impl<W> Snapshot<W> {
    /// Publishes the structure for the current generation.
    pub(crate) fn publish(w: &W) -> Self {
        Snapshot(w as *const W)
    }

    /// Dereferences the snapshot.
    ///
    /// # Safety
    ///
    /// Callers must be inside the publish→retire window of the protocol in
    /// the module docs: the writer is parked at the join barrier and will
    /// not mutate until this task's [`Partial`] is sent.
    pub(crate) unsafe fn get<'a>(&self) -> &'a W {
        unsafe { &*self.0 }
    }
}

impl<W> Clone for Snapshot<W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W> Copy for Snapshot<W> {}

// SAFETY: the raw pointer is only dereferenced under the publish→retire
// protocol (no `&mut` alias exists while any reader holds the borrow), and
// `W: Sync` makes `&W` itself shareable across threads.
unsafe impl<W: Sync> Send for Snapshot<W> {}

/// The plan kinds of the serve path, one per request kind: every tenant of
/// a run joins one cutoff plan. The discriminant indexes the per-kind
/// metric table (`shard::KIND_METRICS`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    WindowConnected,
    PathMax,
    ComponentSize,
    /// All [`FoldKind`]s in one plan.
    PathFold,
    TenantConnected,
}

/// One coalesced plan, kept by the writer across generations so its
/// buffers are reused: the merged input of every request that joined it,
/// concatenated in run order (only the columns `kind` reads are filled),
/// and the merged answers. Readers share it for one generation and read
/// only the input.
#[derive(Clone)]
pub(crate) struct Plan {
    pub kind: Kind,
    /// Endpoint pairs (every kind but `ComponentSize`).
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Vertices (`ComponentSize`).
    pub verts: Vec<VertexId>,
    /// Per-query tenant cutoffs, parallel to `pairs` (`TenantConnected`).
    pub cutoffs: Vec<u64>,
    /// Per-query fold kinds, parallel to `pairs` (`PathFold`). Readers
    /// serve maximal same-kind spans through one monomorphized plan each.
    pub folds: Vec<FoldKind>,
    /// The merged answers, spliced by the writer from every slot's
    /// partials after the join.
    pub out: QueryResp,
}

impl Plan {
    /// Number of queries in the plan.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len() + self.verts.len()
    }

    /// Empties every input column, keeping capacities.
    pub(crate) fn clear(&mut self) {
        self.pairs.clear();
        self.verts.clear();
        self.cutoffs.clear();
        self.folds.clear();
    }
}

/// A range of one plan, dealt to one reader thread.
pub(crate) struct ServeTask<W> {
    /// The generation's published structure.
    pub snap: Snapshot<W>,
    /// Index of the plan in the writer's plan list.
    pub idx: usize,
    pub plan: Arc<Plan>,
    /// The slice of the merged input this task answers.
    pub range: Range<usize>,
    /// Where the partial answers go (the writer's join barrier counts
    /// these).
    pub done: Sender<Partial>,
}

/// Partial answers for one dealt range.
pub(crate) struct Partial {
    /// The task's plan index.
    pub idx: usize,
    /// Splice offset within the plan's answers (the task range's start).
    pub start: usize,
    /// The answers, or `None` if the slot panicked on the range (e.g. an
    /// out-of-range vertex id), so the writer fails stop.
    pub resp: Option<QueryResp>,
}

enum Task<W> {
    Serve(ServeTask<W>),
    Stop,
}

/// The persistent reader workers: slots `1..readers` of a pool whose slot
/// 0 is the writer. Each reader's `QueryBatch` scratch (sorted-endpoint
/// buffers, CPT chunk workspaces) survives across generations, so
/// steady-state serving reuses capacity exactly like the write path's
/// scratch discipline.
pub(crate) struct ReaderPool<W> {
    txs: Vec<Sender<Task<W>>>,
    threads: Vec<JoinHandle<()>>,
}

impl<W: ServeWindow> ReaderPool<W> {
    /// Spawns the `readers − 1` reader threads of a pool with `readers`
    /// slots, the writer included: `readers ≤ 1` spawns none.
    pub(crate) fn spawn(readers: usize) -> Self {
        let mut txs = Vec::new();
        let mut threads = Vec::new();
        for slot in 1..readers {
            let (tx, rx) = channel::<Task<W>>();
            let handle = std::thread::Builder::new()
                .name(format!("bimst-serve-reader-{slot}"))
                .spawn(move || reader_main(rx))
                .expect("spawn bimst-service reader thread");
            txs.push(tx);
            threads.push(handle);
        }
        ReaderPool { txs, threads }
    }

    /// Hands a task to reader thread `i` (slot `i + 1`). Returns whether
    /// the thread accepted it: `false` means that reader thread is gone,
    /// so no [`Partial`] will ever arrive for the task (see `Core::serve`
    /// for the fail-stop that follows).
    #[must_use]
    pub(crate) fn dispatch(&self, i: usize, task: ServeTask<W>) -> bool {
        self.txs[i].send(Task::Serve(task)).is_ok()
    }

    /// Test-only: stops reader thread `i` and joins it, simulating a reader
    /// thread that died outside the serve path. Joining (not just
    /// signalling) guarantees the receiver is dropped, so the next
    /// [`ReaderPool::dispatch`] aimed at the thread reports `false` rather
    /// than queueing a task no one will serve.
    #[cfg(test)]
    pub(crate) fn kill_worker(&mut self, i: usize) {
        let _ = self.txs[i].send(Task::Stop);
        let _ = self.threads.remove(i).join();
    }

    /// Test-only: the number of live reader threads.
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Retires the pool: readers finish queued tasks, then exit and join.
    pub(crate) fn shutdown(self) {
        for tx in &self.txs {
            let _ = tx.send(Task::Stop);
        }
        drop(self.txs);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn reader_main<W: ServeWindow>(rx: Receiver<Task<W>>) {
    let mut q = QueryBatch::new();
    while let Ok(task) = rx.recv() {
        let ServeTask {
            snap,
            idx,
            plan,
            range,
            done,
        } = match task {
            Task::Serve(t) => t,
            Task::Stop => break,
        };
        // SAFETY: protocol steps 1–3 (module docs) — the writer published
        // this snapshot for the current generation and is parked at the
        // join barrier until the `send` below is received.
        let w: &W = unsafe { snap.get() };
        let part = answer_range(&mut q, w, &plan, idx, range);
        // Release the plan's `Arc` *before* signalling completion: once
        // the writer has collected every `Partial`, no reader holds a
        // reference, so the writer can deterministically take the
        // merged-plan buffers back for the next generation instead of
        // reallocating per dispatch.
        drop(plan);
        let _ = done.send(part);
    }
}

/// Answers `range` of plan `idx` on behalf of one pool slot, reader thread
/// or writer alike. A panic (e.g. an out-of-range vertex id in a client's
/// batch) must not strand the writer at its join barrier, nor unwind the
/// writer while readers still borrow the structure: it is caught and
/// reported as a poison partial, and the writer fails stop after the join.
/// The catch boundary is inside the publish→retire window, but the
/// executor's scratch may be mid-update, so it is discarded.
pub(crate) fn answer_range<W: ServeWindow>(
    q: &mut QueryBatch,
    w: &W,
    plan: &Plan,
    idx: usize,
    range: Range<usize>,
) -> Partial {
    let start = range.start;
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| answer(q, w, plan, range)));
    let resp = result.map_err(|_| *q = QueryBatch::new()).ok();
    Partial { idx, start, resp }
}

/// Answers `range` of one plan through the matching `QueryBatch` core.
fn answer<W: ServeWindow>(q: &mut QueryBatch, w: &W, plan: &Plan, r: Range<usize>) -> QueryResp {
    let msf = || ReadHandle::new(WindowConnectivity::msf(w));
    let pairs = || &plan.pairs[r.clone()];
    match plan.kind {
        Kind::WindowConnected => QueryResp::WindowConnected(q.batch_window_connected(w, pairs())),
        Kind::PathMax => QueryResp::PathMax(q.batch_path_max(msf(), pairs())),
        Kind::ComponentSize => {
            QueryResp::ComponentSize(q.batch_component_size(msf(), &plan.verts[r.clone()]))
        }
        Kind::PathFold => {
            let mut out = Vec::with_capacity(r.len());
            let mut lo = r.start;
            for span in plan.folds[r.clone()].chunk_by(|a, b| a == b) {
                fold_span(q, w, span[0], &plan.pairs[lo..lo + span.len()], &mut out);
                lo += span.len();
            }
            QueryResp::PathFold(out)
        }
        Kind::TenantConnected => {
            QueryResp::WindowConnected(q.batch_connected_at(w, pairs(), &plan.cutoffs[r.clone()]))
        }
    }
}

/// Serves one same-kind span of a merged path-fold plan: dispatches the
/// wire-level [`FoldKind`] to the monomorphized monoid fold (answered at
/// the structure's current window, like every other served query) and
/// tags the answers with the matching [`FoldValue`] arm.
fn fold_span<W: ServeWindow>(
    q: &mut QueryBatch,
    w: &W,
    kind: FoldKind,
    pairs: &[(VertexId, VertexId)],
    out: &mut Vec<Option<FoldValue>>,
) {
    fn run<M: PathMonoid, W: ServeWindow>(
        q: &mut QueryBatch,
        w: &W,
        pairs: &[(VertexId, VertexId)],
        out: &mut Vec<Option<FoldValue>>,
        tag: fn(M::Value) -> FoldValue,
    ) {
        let folds = q.batch_window_path_fold::<M, W>(w, pairs);
        out.extend(folds.into_iter().map(|v| v.map(tag)));
    }
    match kind {
        FoldKind::Max => run::<MaxW, W>(q, w, pairs, out, FoldValue::Key),
        FoldKind::Min => run::<MinW, W>(q, w, pairs, out, FoldValue::Key),
        FoldKind::Sum => run::<SumW, W>(q, w, pairs, out, FoldValue::Sum),
        FoldKind::Hops => run::<Hops, W>(q, w, pairs, out, FoldValue::Hops),
    }
}
