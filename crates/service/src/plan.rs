//! The coalesced query plans of the serve path. Each request of a queued
//! run joins the [`Plan`] of its kind, and the writer answers each plan
//! with one [`QueryBatch`] call on the whole merged input (one call per
//! same-kind span of a fold plan), through the `&W` it already holds. The
//! batch algorithms bring their own parallelism (shared compressed path
//! trees per chunk, parallel root walks), so the writer needs no threads
//! of its own to answer a large plan.

use bimst_primitives::{FoldKind, FoldValue, Hops, MaxW, MinW, PathMonoid, SumW, VertexId};
use bimst_query::{QueryBatch, ReadHandle, WindowConnectivity};

use crate::{QueryResp, ServeWindow};

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
/// and the merged answers.
pub(crate) struct Plan {
    pub kind: Kind,
    /// Endpoint pairs (every kind but `ComponentSize`).
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Vertices (`ComponentSize`).
    pub verts: Vec<VertexId>,
    /// Per-query tenant cutoffs, parallel to `pairs` (`TenantConnected`).
    pub cutoffs: Vec<u64>,
    /// Per-query fold kinds, parallel to `pairs` (`PathFold`). Maximal
    /// same-kind spans are served through one monomorphized plan each.
    pub folds: Vec<FoldKind>,
    /// The answers to the merged input, in its order.
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

    /// Answers the whole merged input into `out` through the matching
    /// `QueryBatch` core.
    pub(crate) fn answer<W: ServeWindow>(&mut self, q: &mut QueryBatch, w: &W) {
        let msf = || ReadHandle::new(WindowConnectivity::msf(w));
        let pairs = &self.pairs;
        self.out = match self.kind {
            Kind::WindowConnected => QueryResp::WindowConnected(q.batch_window_connected(w, pairs)),
            Kind::PathMax => QueryResp::PathMax(q.batch_path_max(msf(), pairs)),
            Kind::ComponentSize => {
                QueryResp::ComponentSize(q.batch_component_size(msf(), &self.verts))
            }
            Kind::PathFold => {
                let mut out = Vec::with_capacity(pairs.len());
                let mut lo = 0;
                for span in self.folds.chunk_by(|a, b| a == b) {
                    fold_span(q, w, span[0], &pairs[lo..lo + span.len()], &mut out);
                    lo += span.len();
                }
                QueryResp::PathFold(out)
            }
            Kind::TenantConnected => {
                QueryResp::WindowConnected(q.batch_connected_at(w, pairs, &self.cutoffs))
            }
        };
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
