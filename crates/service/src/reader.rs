//! The reader side of the runtime: persistent worker threads, each owning
//! one [`QueryBatch`] shard, answering range-partitioned slices of the
//! writer's coalesced query plans against an epoch-pinned snapshot.
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
//!    reference across loop iterations.
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
    /// The merged answers, spliced by the writer from the readers'
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

/// A range of one plan, assigned to one reader.
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

/// Partial answers for one [`ServeTask`]'s range.
pub(crate) struct Partial {
    /// The task's plan index.
    pub idx: usize,
    /// Splice offset within the plan's answers (the task range's start).
    pub start: usize,
    /// The answers, or `None` if the reader panicked on the range (e.g.
    /// an out-of-range vertex id), so the writer fails stop.
    pub resp: Option<QueryResp>,
}

enum Task<W> {
    Serve(ServeTask<W>),
    Stop,
}

/// The persistent reader workers. Tasks are assigned round-robin; each
/// reader's `QueryBatch` scratch (sorted-endpoint buffers, CPT chunk
/// workspaces) survives across generations, so steady-state serving reuses
/// capacity exactly like the write path's scratch discipline.
pub(crate) struct ReaderPool<W> {
    txs: Vec<Sender<Task<W>>>,
    threads: Vec<JoinHandle<()>>,
    next: usize,
}

impl<W: ServeWindow> ReaderPool<W> {
    /// Spawns `readers` workers (clamped to ≥ 1).
    pub(crate) fn spawn(readers: usize) -> Self {
        let readers = readers.max(1);
        let mut txs = Vec::with_capacity(readers);
        let mut threads = Vec::with_capacity(readers);
        for i in 0..readers {
            let (tx, rx) = channel::<Task<W>>();
            let handle = std::thread::Builder::new()
                .name(format!("bimst-serve-reader-{i}"))
                .spawn(move || reader_main(rx))
                .expect("spawn bimst-service reader thread");
            txs.push(tx);
            threads.push(handle);
        }
        ReaderPool {
            txs,
            threads,
            next: 0,
        }
    }

    /// Number of workers.
    pub(crate) fn len(&self) -> usize {
        self.txs.len()
    }

    /// Hands a task to the next worker (round-robin). Returns whether the
    /// worker accepted it: `false` means that reader thread is gone, so no
    /// [`Partial`] will ever arrive for the task (see `Core::serve` for
    /// the fail-stop that follows).
    #[must_use]
    pub(crate) fn dispatch(&mut self, task: ServeTask<W>) -> bool {
        let i = self.next;
        self.next = (self.next + 1) % self.txs.len();
        self.txs[i].send(Task::Serve(task)).is_ok()
    }

    /// Test-only: stops worker `i` and joins it, simulating a reader
    /// thread that died outside the serve path. Joining (not just
    /// signalling) guarantees the receiver is dropped, so the next
    /// [`ReaderPool::dispatch`] aimed at the slot reports `false` rather
    /// than queueing a task no one will serve.
    #[cfg(test)]
    pub(crate) fn kill_worker(&mut self, i: usize) {
        let _ = self.txs[i].send(Task::Stop);
        let _ = self.threads.remove(i).join();
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
        // A panic (e.g. an out-of-range vertex id in a client's batch)
        // must not strand the writer at its join barrier: catch it, report
        // a poison partial, and let the writer fail stop. The panic cannot
        // leave the snapshot borrowed — the catch boundary is inside the
        // publish→retire window — but the executor's scratch may be
        // mid-update, so it is discarded below.
        let start = range.start;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            answer(&mut q, w, &plan, range)
        }));
        let resp = result.map_err(|_| q = QueryBatch::new()).ok();
        // Release the plan's `Arc` *before* signalling completion: once
        // the writer has collected every `Partial`, no reader holds a
        // reference, so the writer can deterministically take the
        // merged-plan buffers back for the next generation instead of
        // reallocating per dispatch.
        drop(plan);
        let _ = done.send(Partial { idx, start, resp });
    }
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
