//! Monoid-generic path aggregation.
//!
//! Every path query in the workspace is a fold of some associative operation
//! over the edges of a tree path: `path_max` folds max-by-[`WKey`],
//! bottleneck bandwidth folds min, routing cost folds weight sums, hop
//! counts fold `+1` per edge. [`PathMonoid`] names that shape once —
//! identity, associative `combine`, and a per-edge `lift` from the stored
//! `(WKey, endpoints)` — so the engine, the query planner, and the serving
//! runtime can share one generic fold implementation, monomorphized per
//! instance (no `dyn` anywhere on a query path).
//!
//! The cluster aggregates of the RC-tree substrate (and therefore the
//! compressed path trees built from them) store the **max summary**: each
//! Binary cluster carries the heaviest `WKey` on its boundary-to-boundary
//! path, which is exactly the information an MSF needs (Theorem 4.1 ties
//! CPT edges to heaviest path edges). A monoid whose whole-path fold is
//! recoverable from that heaviest key alone sets [`PathMonoid::MAX_SUMMARY`]:
//! the compressed path tree reads its label off each cluster in `O(1)`,
//! and [`MaxW`] monomorphizes back to the paper's `path_max` code, bit for
//! bit. Folds that genuinely need every path edge ([`MinW`], [`SumW`],
//! [`Hops`]) ride the same compressed path trees as *fold trees*
//! (`bimst_core::cpt::fold_path_tree`): each surviving tree edge is folded
//! by descending its clusters' edge-role children down to the leaf edges,
//! per query or once per shared batch chunk. Batches that cover the forest
//! take one offline path-fold pass over the whole MSF edge list instead
//! (`OfflinePathFold` in `bimst-msf`; see `bimst-query` for the plan
//! selection).
//!
//! Instances compose: [`Pair<A, B>`] folds two monoids in one walk and is
//! `MAX_SUMMARY` exactly when both components are. The query layer uses
//! `Pair<MaxW, M>` internally to apply recent-edge cutoffs (the heaviest
//! key's id *is* the recency witness of Lemma 5.1) while folding `M`.

use std::marker::PhantomData;

use crate::weight::{WKey, Weight, NEG_INF};
use crate::VertexId;

/// An associative fold over the edges of a tree path.
///
/// Laws (unchecked, relied on everywhere):
/// * `combine` is associative;
/// * `IDENTITY` is a two-sided identity of `combine`;
/// * `lift` depends only on its arguments (pure).
///
/// Every fold plan also needs `combine` to be **commutative**: a fold tree
/// combines segments in RC-tree order (a binary cluster's two halves, the
/// two edges a splice merges), and the batch oracles fold each endpoint's
/// half-path up to the LCA independently and combine the two halves there,
/// so no plan — the per-query one included — folds in path order. All
/// provided instances are commutative (pinned by a test below).
pub trait PathMonoid {
    /// The fold's carrier type.
    type Value: Copy + Send + Sync + PartialEq + std::fmt::Debug;

    /// Whether the whole-path fold equals [`summarize`](Self::summarize) of
    /// the heaviest [`WKey`] on the path. When true, a compressed path tree
    /// reads the fold off each cluster's stored key in `O(1)` (the paper's
    /// max-walk); when false, it folds each surviving segment from its leaf
    /// edges, descending the clusters' edge-role children, which costs the
    /// segment's length.
    const MAX_SUMMARY: bool;

    /// Two-sided identity of [`combine`](Self::combine) — the fold over an
    /// empty edge set.
    const IDENTITY: Self::Value;

    /// Folds two adjacent path segments.
    fn combine(a: Self::Value, b: Self::Value) -> Self::Value;

    /// The fold over the single edge `{u, v}` carrying key `k`.
    fn lift(k: WKey, u: VertexId, v: VertexId) -> Self::Value;

    /// Recovers the whole-path fold from the heaviest key on the path.
    /// Only called when [`MAX_SUMMARY`](Self::MAX_SUMMARY) is true; the
    /// default body exists so non-summary instances need not write one.
    #[inline]
    fn summarize(k: WKey) -> Self::Value {
        let _ = k;
        unreachable!("summarize() on a monoid with MAX_SUMMARY = false")
    }
}

/// Max-by-`WKey` — today's `path_max` semantics (the MSF witness edge:
/// heaviest key on the tree path, the edge an insert would evict).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxW;

impl PathMonoid for MaxW {
    type Value = WKey;
    const MAX_SUMMARY: bool = true;
    const IDENTITY: WKey = WKey { w: NEG_INF, id: 0 };

    #[inline]
    fn combine(a: WKey, b: WKey) -> WKey {
        a.max(b)
    }

    #[inline]
    fn lift(k: WKey, _u: VertexId, _v: VertexId) -> WKey {
        k
    }

    #[inline]
    fn summarize(k: WKey) -> WKey {
        k
    }
}

/// Min-by-`WKey` — bottleneck bandwidth: the lightest edge on the path is
/// the capacity of the whole route.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinW;

impl PathMonoid for MinW {
    type Value = WKey;
    const MAX_SUMMARY: bool = false;
    const IDENTITY: WKey = WKey {
        w: f64::INFINITY,
        id: u64::MAX,
    };

    #[inline]
    fn combine(a: WKey, b: WKey) -> WKey {
        if a <= b {
            a
        } else {
            b
        }
    }

    #[inline]
    fn lift(k: WKey, _u: VertexId, _v: VertexId) -> WKey {
        k
    }
}

/// Weight sum — additive routing cost along the path.
///
/// `f64` addition is only associative up to rounding, and each plan
/// associates it differently: fold trees (per query and per shared batch
/// chunk) in RC-tree order — binary clusters' halves, then splices, then
/// the chunk oracle's binary lifting — and the offline batch plan in
/// path-compression order. All committed oracles drive it with
/// integer-valued weights (recency weights are `-τ`), where every
/// association order yields the identical bit pattern.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SumW;

impl PathMonoid for SumW {
    type Value = Weight;
    const MAX_SUMMARY: bool = false;
    const IDENTITY: Weight = 0.0;

    #[inline]
    fn combine(a: Weight, b: Weight) -> Weight {
        a + b
    }

    #[inline]
    fn lift(k: WKey, _u: VertexId, _v: VertexId) -> Weight {
        k.w
    }
}

/// Edge count — path length in hops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hops;

impl PathMonoid for Hops {
    type Value = u64;
    const MAX_SUMMARY: bool = false;
    const IDENTITY: u64 = 0;

    #[inline]
    fn combine(a: u64, b: u64) -> u64 {
        a + b
    }

    #[inline]
    fn lift(_k: WKey, _u: VertexId, _v: VertexId) -> u64 {
        1
    }
}

/// Tuple composer: folds `A` and `B` in one walk.
///
/// `Pair<MaxW, M>` is how the query layer applies per-tenant recency
/// cutoffs to an arbitrary fold — the `MaxW` component's `id` is the
/// recent-edge witness, the `M` component is the answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pair<A, B>(PhantomData<(A, B)>);

impl<A: PathMonoid, B: PathMonoid> PathMonoid for Pair<A, B> {
    type Value = (A::Value, B::Value);
    const MAX_SUMMARY: bool = A::MAX_SUMMARY && B::MAX_SUMMARY;
    const IDENTITY: (A::Value, B::Value) = (A::IDENTITY, B::IDENTITY);

    #[inline]
    fn combine(a: Self::Value, b: Self::Value) -> Self::Value {
        (A::combine(a.0, b.0), B::combine(a.1, b.1))
    }

    #[inline]
    fn lift(k: WKey, u: VertexId, v: VertexId) -> Self::Value {
        (A::lift(k, u, v), B::lift(k, u, v))
    }

    #[inline]
    fn summarize(k: WKey) -> Self::Value {
        (A::summarize(k), B::summarize(k))
    }
}

/// Wire-level name of a servable fold, for op streams (`bimst_graphgen`'s
/// `Op::PathFoldQueries`), the WAL codec, and `QueryReq::PathFold` — the
/// layers that cannot be generic over a type parameter. The serving runtime
/// dispatches each kind to its monomorphized `batch_path_fold::<M>` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FoldKind {
    /// [`MaxW`] — MSF witness (identical to `PathMax`, servable through the
    /// fold interface for uniformity).
    Max,
    /// [`MinW`] — bottleneck bandwidth.
    Min,
    /// [`SumW`] — routing cost.
    Sum,
    /// [`Hops`] — path length.
    Hops,
}

impl FoldKind {
    /// Every servable kind, in wire-tag order.
    pub const ALL: [FoldKind; 4] = [FoldKind::Max, FoldKind::Min, FoldKind::Sum, FoldKind::Hops];

    /// Dense index (stable; doubles as the codec sub-tag).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FoldKind::Max => 0,
            FoldKind::Min => 1,
            FoldKind::Sum => 2,
            FoldKind::Hops => 3,
        }
    }

    /// Inverse of [`index`](Self::index).
    #[inline]
    pub fn from_index(i: usize) -> Option<FoldKind> {
        FoldKind::ALL.get(i).copied()
    }
}

/// A kind-tagged fold answer — the dynamically typed counterpart of
/// `M::Value` that crosses the service channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FoldValue {
    /// A `WKey`-valued fold ([`FoldKind::Max`] / [`FoldKind::Min`]).
    Key(WKey),
    /// A weight-sum fold ([`FoldKind::Sum`]).
    Sum(Weight),
    /// A hop-count fold ([`FoldKind::Hops`]).
    Hops(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Vec<(WKey, VertexId, VertexId)> {
        vec![
            (WKey::new(3.0, 10), 0, 1),
            (WKey::new(1.0, 11), 1, 2),
            (WKey::new(2.0, 12), 2, 3),
        ]
    }

    fn fold<M: PathMonoid>() -> M::Value {
        edges().iter().fold(M::IDENTITY, |acc, &(k, u, v)| {
            M::combine(acc, M::lift(k, u, v))
        })
    }

    #[test]
    fn instances_fold_the_expected_statistic() {
        assert_eq!(fold::<MaxW>(), WKey::new(3.0, 10));
        assert_eq!(fold::<MinW>(), WKey::new(1.0, 11));
        assert_eq!(fold::<SumW>(), 6.0);
        assert_eq!(fold::<Hops>(), 3);
    }

    #[test]
    fn identity_is_two_sided() {
        let k = WKey::new(5.0, 9);
        assert_eq!(MaxW::combine(MaxW::IDENTITY, k), k);
        assert_eq!(MaxW::combine(k, MaxW::IDENTITY), k);
        assert_eq!(MinW::combine(MinW::IDENTITY, k), k);
        assert_eq!(MinW::combine(k, MinW::IDENTITY), k);
        assert_eq!(SumW::combine(SumW::IDENTITY, 4.5), 4.5);
        assert_eq!(Hops::combine(7, Hops::IDENTITY), 7);
    }

    #[test]
    fn maxw_identity_is_the_phantom_key() {
        // The generic oracle pads with `IDENTITY` where the old code padded
        // with `WKey::phantom()`; they must be the same key for the MaxW
        // instantiation to stay bit-identical.
        assert_eq!(MaxW::IDENTITY, WKey::phantom());
        assert!(MaxW::IDENTITY.is_phantom());
    }

    /// `combine(a, b) == combine(b, a)` over every pair of `vals`.
    fn assert_commutes<M: PathMonoid>(vals: &[M::Value]) {
        for &a in vals {
            for &b in vals {
                assert_eq!(M::combine(a, b), M::combine(b, a), "{a:?} · {b:?}");
            }
        }
    }

    #[test]
    fn instances_are_commutative() {
        // Ties on weight with distinct ids, signed zeros, infinities and
        // both identities.
        let keys = [
            WKey::new(1.0, 3),
            WKey::new(1.0, 4),
            WKey::new(-2.5, 0),
            WKey::new(0.0, 1),
            WKey::new(-0.0, 2),
            WKey::new(f64::INFINITY, 9),
            MaxW::IDENTITY,
            MinW::IDENTITY,
        ];
        assert_commutes::<MaxW>(&keys);
        assert_commutes::<MinW>(&keys);
        assert_commutes::<SumW>(&[0.0, -0.0, 1.0, -7.0, 2.5, 1e300, f64::INFINITY]);
        assert_commutes::<Hops>(&[0, 1, 2, 41, u64::MAX / 2]);
        let pairs: Vec<(WKey, u64)> = keys.into_iter().zip([0, 1, 2, 3, 5, 8, 13, 21]).collect();
        assert_commutes::<Pair<MaxW, Hops>>(&pairs);
        let mixed: Vec<(WKey, WKey)> = keys.into_iter().zip(keys.into_iter().rev()).collect();
        assert_commutes::<Pair<MinW, MaxW>>(&mixed);
    }

    #[test]
    fn pair_folds_componentwise() {
        let (mx, hops) = fold::<Pair<MaxW, Hops>>();
        assert_eq!(mx, fold::<MaxW>());
        assert_eq!(hops, fold::<Hops>());
        // A pair keeps the CPT fast path iff both halves do (checked via
        // locals: clippy lints direct asserts on consts).
        let [both_max, mixed] = [
            Pair::<MaxW, MaxW>::MAX_SUMMARY,
            Pair::<MaxW, Hops>::MAX_SUMMARY,
        ];
        assert!(both_max && !mixed);
        let k = WKey::new(2.0, 3);
        assert_eq!(Pair::<MaxW, MaxW>::summarize(k), (k, k));
    }

    #[test]
    fn fold_kind_indices_round_trip() {
        for (i, k) in FoldKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(FoldKind::from_index(i), Some(*k));
        }
        assert_eq!(FoldKind::from_index(4), None);
    }
}
