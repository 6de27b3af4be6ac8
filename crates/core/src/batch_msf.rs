//! Batch-incremental minimum spanning forest (§4, Algorithm 2).
//!
//! `BatchInsert(E⁺)`:
//!
//! 1. `K` ← endpoints of `E⁺` (deduplicated).
//! 2. `C` ← compressed path trees of the current MSF with respect to `K`
//!    (Algorithm 1) — all pairwise heaviest path edges, hence all cycles any
//!    subset of `E⁺` could close, in `O(ℓ)` space.
//! 3. `M` ← MSF(`C ∪ E⁺`) — an `O(ℓ)`-edge static problem.
//! 4. Cut `E(C) \ E(M)` from the dynamic forest (each such edge is heaviest
//!    on some cycle of the new graph — the red rule), link `E(M) ∩ E⁺`.
//!
//! Theorem 4.1 proves the result is exactly the MSF of the new graph;
//! Theorem 4.2 gives `O(ℓ lg(1 + n/ℓ))` expected work and `O(lg² n)` span.
//!
//! # Scratch lifecycle (zero-allocation hot path)
//!
//! Every intermediate of `batch_insert` — the endpoint set `K`, the CPT
//! working graph, the dense relabeling table, the inner-MSF sort order and
//! union-find, the membership stamps, and the cut/link lists — lives in a
//! [`BatchMsf`]-owned `InsertScratch`. Buffers are reset by truncation or
//! by bumping a per-batch epoch (the relabel table and the `E(M)`
//! membership set are epoch-stamped arrays, so "clearing" them is a counter
//! increment). Together with the propagation scratch inside the RC-tree
//! engine, a steady-state `batch_insert` performs **no heap allocation**
//! for batches up to the structure's high-water mark — the only per-call
//! allocations are the `InsertResult` output vectors themselves.
//! [`BatchMsf::scratch_high_water`] exposes the combined capacity; a
//! regression test pins it across repeated batches.

use bimst_msf::MsfScratch;
use bimst_primitives::monoid::{MaxW, PathMonoid};
use bimst_primitives::soa::{EpochSet, EpochSlotMap};
use bimst_primitives::{EdgeId, FxHashSet, VertexId, WKey};
use bimst_rctree::RcForest;

use crate::cpt::{compressed_path_tree_with, path_fold, Cpt, CptScratch};

/// Reusable working sets of [`BatchMsf::batch_insert`] (see the module docs'
/// *Scratch lifecycle* section).
#[derive(Default)]
struct InsertScratch {
    /// Duplicate-id detection within a batch.
    seen_ids: FxHashSet<EdgeId>,
    /// `K`: endpoints of the accepted batch edges.
    marks: Vec<VertexId>,
    /// The accepted (non-self-loop) batch edges.
    eplus: Vec<(VertexId, VertexId, f64, EdgeId)>,
    /// CPT working sets + reused output.
    cpt_ws: CptScratch,
    cpt: Cpt,
    /// Dense relabeling `vertex → compact label` (epoch-stamped: reset per
    /// batch is O(1), lookups are hash-free).
    label: EpochSlotMap,
    /// The static problem `C ∪ E⁺` on relabeled vertices.
    edges: Vec<bimst_msf::Edge>,
    /// Inner-MSF working sets and output indices.
    msf_ws: MsfScratch,
    m_out: Vec<usize>,
    /// `E(M)` membership over problem-edge indices (epoch-stamped).
    in_m: EpochSet,
    /// The forest update derived from `M`.
    cuts: Vec<EdgeId>,
    links: Vec<(VertexId, VertexId, f64, EdgeId)>,
}

impl InsertScratch {
    /// Combined capacity (in elements) of the `Vec`-backed insert-path
    /// buffers. Hash-backed sets are excluded (their reported capacity is a
    /// growth budget that moves without allocating), and so are the
    /// epoch-stamped tables (sized by the id-space bound, not the batch —
    /// see [`CptScratch::high_water`]).
    fn high_water(&self) -> usize {
        self.marks.capacity()
            + self.eplus.capacity()
            + self.cpt_ws.high_water()
            + self.cpt.vertices.capacity()
            + self.cpt.edges.capacity()
            + self.edges.capacity()
            + self.msf_ws.high_water()
            + self.m_out.capacity()
            + self.cuts.capacity()
            + self.links.capacity()
    }
}

/// Outcome of a batch insertion.
#[derive(Clone, Debug, Default)]
pub struct InsertResult {
    /// Ids from the batch that entered the MSF, in batch order.
    pub inserted: Vec<EdgeId>,
    /// Ids of previous MSF edges evicted by the batch (each was heaviest on
    /// a cycle created by the new edges), in ascending id order — a
    /// canonical order, so callers never depend on internal CPT iteration.
    pub evicted: Vec<EdgeId>,
    /// Ids from the batch that were rejected immediately (heaviest on a
    /// cycle among `C ∪ E⁺`, or self-loops).
    pub rejected: Vec<EdgeId>,
}

/// A dynamically maintained minimum spanning forest under batch edge
/// insertions (Theorem 1.1).
///
/// Weights are `f64` with edge-id tie-breaking, so the MSF is unique. Edge
/// ids are caller-chosen `u64`s, unique among edges *currently in the MSF*
/// (an id may be reused after eviction; the sliding-window layer uses the
/// stream position `τ(e)`).
pub struct BatchMsf {
    forest: RcForest,
    weight_sum: f64,
    scratch: InsertScratch,
}

impl BatchMsf {
    /// An edgeless MSF over `n` vertices. `seed` drives the randomized
    /// substrate; identical seeds and update histories give identical
    /// structures.
    pub fn new(n: usize, seed: u64) -> Self {
        BatchMsf {
            forest: RcForest::new(n, seed),
            weight_sum: 0.0,
            scratch: InsertScratch::default(),
        }
    }

    /// [`BatchMsf::new`], pre-sizing the forest's live-edge map for
    /// `edge_capacity` simultaneous MSF edges (at most `n − 1`; the hint is
    /// clamped). Takes the map's growth rehashes — the last doubling
    /// structure on the insert path — at construction instead of as a
    /// mid-stream latency spike. The hint only pre-sizes; it is not a limit.
    pub fn with_edge_capacity(n: usize, seed: u64, edge_capacity: usize) -> Self {
        BatchMsf {
            forest: RcForest::with_edge_capacity(n, seed, edge_capacity),
            weight_sum: 0.0,
            scratch: InsertScratch::default(),
        }
    }

    /// Combined capacity (in elements) of every reusable buffer on the
    /// insert path — this structure's scratch plus the RC-tree engine's
    /// propagation scratch. Steady-state workloads must plateau here; the
    /// zero-allocation regression test pins it after a warmup phase.
    pub fn scratch_high_water(&self) -> usize {
        self.scratch.high_water() + self.forest.engine().scratch_high_water()
    }

    /// Frees every reusable buffer counted by
    /// [`BatchMsf::scratch_high_water`], which then reads 0. Call once after
    /// a one-off batch far larger than the steady state — installing a
    /// checkpoint as one `batch_insert` — so its window-sized scratch is not
    /// kept for the structure's life. Later batches regrow what they need;
    /// answers do not depend on the scratch.
    pub fn release_scratch(&mut self) {
        self.scratch = InsertScratch::default();
        self.forest.release_scratch();
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.forest.num_vertices()
    }

    /// Number of edges currently in the MSF.
    pub fn msf_edge_count(&self) -> usize {
        self.forest.num_edges()
    }

    /// Total weight of the MSF. Maintained incrementally, `O(1)`.
    pub fn msf_weight(&self) -> f64 {
        self.weight_sum
    }

    /// Number of connected components (isolated vertices included), `O(1)`.
    pub fn num_components(&self) -> usize {
        self.forest.num_components()
    }

    /// Whether `u` and `v` are connected. `O(lg n)` w.h.p.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.forest.connected(u, v)
    }

    /// Number of vertices in `v`'s component (isolated vertex: 1).
    /// `O(lg n)` w.h.p. — one root walk; the root cluster carries its
    /// vertex count.
    pub fn component_size(&self, v: VertexId) -> usize {
        self.forest.component_size(v)
    }

    /// Heaviest edge key on the MSF path between `u` and `v` (`None` if
    /// disconnected or equal). `O(lg n)` expected.
    ///
    /// A thin wrapper over [`path_fold`](Self::path_fold)`::<MaxW>` — the
    /// max monoid's fold *is* the CPT walk, so this compiles to exactly the
    /// historical implementation.
    #[inline]
    pub fn path_max(&self, u: VertexId, v: VertexId) -> Option<WKey> {
        self.path_fold::<MaxW>(u, v)
    }

    /// Fold of a [`PathMonoid`] over the edges of the MSF path between `u`
    /// and `v` (`None` if disconnected or equal): the label of the single
    /// edge of the 2-mark fold tree ([`crate::cpt::fold_path_tree`]).
    ///
    /// Strategy, selected at compile time (no `dyn`):
    ///
    /// * `M::MAX_SUMMARY` (e.g. [`MaxW`]) — the clusters already store the
    ///   heaviest boundary-path key, so the fold is `M::summarize` of the
    ///   CPT walk's answer. `O(lg n)` expected.
    /// * otherwise (e.g. `MinW`/`SumW`/`Hops`) — the same walk, with the
    ///   surviving edge's path folded by descending its clusters' edge-role
    ///   children down to the leaf edges. `O(lg n + |path|)` expected.
    ///   `bimst-query` answers fold batches with one shared fold tree per
    ///   chunk, or with one offline path-fold sweep over the forest
    ///   (`bimst_msf::OfflinePathFold`) once a batch covers it.
    pub fn path_fold<M: PathMonoid>(&self, u: VertexId, v: VertexId) -> Option<M::Value> {
        path_fold::<M>(&self.forest, u, v)
    }

    /// Whether edge `id` is currently in the MSF.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.forest.has_edge(id)
    }

    /// The `(u, v, key)` of an MSF edge.
    pub fn edge_info(&self, id: EdgeId) -> Option<(VertexId, VertexId, WKey)> {
        self.forest.edge_info(id)
    }

    /// Iterates over the MSF edges as `(id, u, v, key)`.
    pub fn iter_msf_edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, WKey)> + '_ {
        self.forest.iter_edges()
    }

    /// Read access to the underlying dynamic forest (advanced queries,
    /// verification).
    pub fn forest(&self) -> &RcForest {
        &self.forest
    }

    /// Deletes a batch of current MSF edges by id, with **no replacement
    /// search**.
    ///
    /// This is *not* fully dynamic deletion: it exists for the
    /// sliding-window layer (§5), where the recent-edge property guarantees
    /// that an expired MSF edge has no unexpired replacement — under recency
    /// weights (`w = −τ`), the incremental MSF restricted to unexpired edges
    /// is exactly the MSF of the unexpired graph. Callers outside that
    /// setting must ensure the same "no replacement exists" invariant or the
    /// structure stops being an MSF of their intended edge set.
    ///
    /// # Panics
    ///
    /// Panics if an id is not a current MSF edge.
    pub fn batch_delete(&mut self, ids: &[EdgeId]) {
        for &id in ids {
            let (_, _, k) = self
                .forest
                .edge_info(id)
                .unwrap_or_else(|| panic!("delete of unknown MSF edge {id}"));
            self.weight_sum -= k.w;
        }
        self.forest.batch_cut(ids);
    }

    /// Inserts a batch of edges `(u, v, weight, id)` — Algorithm 2.
    ///
    /// Self-loops are rejected. Ids must be unique within the batch and
    /// distinct from ids currently in the MSF.
    ///
    /// Returns which batch edges entered, which old MSF edges were evicted,
    /// and which batch edges were rejected. Steady-state calls allocate
    /// only the returned [`InsertResult`] vectors; every intermediate comes
    /// from the structure's scratch (see the module docs).
    pub fn batch_insert(&mut self, batch: &[(VertexId, VertexId, f64, EdgeId)]) -> InsertResult {
        let mut res = InsertResult::default();
        if batch.is_empty() {
            return res;
        }
        let ws = &mut self.scratch;

        // Line 2: K ← endpoints of E⁺ (self-loops rejected outright).
        ws.seen_ids.clear();
        ws.marks.clear();
        ws.eplus.clear();
        for &(u, v, w, id) in batch {
            assert!(ws.seen_ids.insert(id), "duplicate edge id {id} in batch");
            assert!(!self.forest.has_edge(id), "edge id {id} already in the MSF");
            if u == v {
                res.rejected.push(id);
                continue;
            }
            ws.marks.push(u);
            ws.marks.push(v);
            ws.eplus.push((u, v, w, id));
        }
        if ws.eplus.is_empty() {
            return res;
        }
        ws.marks.sort_unstable();
        ws.marks.dedup();

        // Line 3: compressed path trees over the endpoints.
        compressed_path_tree_with(&self.forest, &ws.marks, &mut ws.cpt_ws, &mut ws.cpt);

        // Line 4: M ← MSF(C ∪ E⁺) on densely relabeled vertices. The
        // relabel table is a dense epoch-stamped slot map over the vertex
        // space — O(1) to reset per batch, O(1) per lookup, no hashing.
        ws.label.reset(self.forest.num_vertices());
        let mut next_label = 0u32;
        let label = &mut ws.label;
        let mut relabel = |v: VertexId| -> u32 {
            if let Some(l) = label.get(v as usize) {
                l
            } else {
                let l = next_label;
                label.set(v as usize, l);
                next_label += 1;
                l
            }
        };
        // Provenance: CPT edges carry live forest-edge ids; batch edges are
        // tracked by position (`ncpt + j`).
        ws.edges.clear();
        let ncpt = ws.cpt.edges.len();
        for e in &ws.cpt.edges {
            let u = relabel(e.u);
            let v = relabel(e.v);
            ws.edges.push(bimst_msf::Edge::new(u, v, e.key));
        }
        for &(u, v, w, id) in &ws.eplus {
            let u = relabel(u);
            let v = relabel(v);
            ws.edges.push(bimst_msf::Edge::new(u, v, WKey::new(w, id)));
        }
        bimst_msf::msf_with(
            next_label as usize,
            &ws.edges,
            &mut ws.msf_ws,
            &mut ws.m_out,
        );
        ws.in_m.reset(ws.edges.len());
        for &i in &ws.m_out {
            ws.in_m.insert(i);
        }

        // Lines 5-6: evict E(C) \ E(M); link E(M) ∩ E⁺.
        ws.cuts.clear();
        for (i, e) in ws.cpt.edges.iter().enumerate() {
            if !ws.in_m.contains(i) {
                ws.cuts.push(e.key.id);
                res.evicted.push(e.key.id);
            }
        }
        ws.links.clear();
        for (j, &(u, v, w, id)) in ws.eplus.iter().enumerate() {
            if ws.in_m.contains(ncpt + j) {
                ws.links.push((u, v, w, id));
                res.inserted.push(id);
            } else {
                res.rejected.push(id);
            }
        }
        res.evicted.sort_unstable();
        for &id in &res.evicted {
            let (_, _, k) = self.forest.edge_info(id).expect("evicted edge is live");
            self.weight_sum -= k.w;
        }
        for &(_, _, w, _) in &ws.links {
            self.weight_sum += w;
        }
        self.forest.batch_update(&ws.cuts, &ws.links);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_msf::{is_msf, Edge};

    /// Oracle: recompute the MSF of all edges ever inserted with Kruskal and
    /// compare edge sets.
    struct Oracle {
        n: usize,
        all: Vec<(u32, u32, f64, u64)>,
    }

    impl Oracle {
        fn new(n: usize) -> Self {
            Oracle { n, all: Vec::new() }
        }

        fn insert(&mut self, batch: &[(u32, u32, f64, u64)]) {
            self.all.extend_from_slice(batch);
        }

        fn msf_ids(&self) -> Vec<u64> {
            let edges: Vec<Edge> = self
                .all
                .iter()
                .map(|&(u, v, w, id)| Edge::new(u, v, WKey::new(w, id)))
                .collect();
            let mut ids: Vec<u64> = bimst_msf::kruskal(self.n, &edges)
                .into_iter()
                .map(|i| edges[i].key.id)
                .collect();
            ids.sort_unstable();
            ids
        }
    }

    fn assert_matches_oracle(msf: &BatchMsf, oracle: &Oracle) {
        let mut got: Vec<u64> = msf.iter_msf_edges().map(|(id, ..)| id).collect();
        got.sort_unstable();
        assert_eq!(got, oracle.msf_ids());
        // And the forest really is the MSF of everything inserted.
        let edges: Vec<Edge> = oracle
            .all
            .iter()
            .map(|&(u, v, w, id)| Edge::new(u, v, WKey::new(w, id)))
            .collect();
        let idx: std::collections::HashMap<u64, usize> = edges
            .iter()
            .enumerate()
            .map(|(i, e)| (e.key.id, i))
            .collect();
        let forest: Vec<usize> = msf.iter_msf_edges().map(|(id, ..)| idx[&id]).collect();
        assert!(is_msf(oracle.n, &edges, &forest));
        // Weight bookkeeping.
        let expect: f64 = msf.iter_msf_edges().map(|(.., k)| k.w).sum();
        assert!((msf.msf_weight() - expect).abs() < 1e-9);
    }

    #[test]
    fn quickstart_square_with_diagonal() {
        let mut msf = BatchMsf::new(4, 1);
        let res = msf.batch_insert(&[
            (0, 1, 1.0, 10),
            (1, 2, 2.0, 11),
            (2, 3, 3.0, 12),
            (3, 0, 4.0, 13),
            (0, 2, 2.5, 14),
        ]);
        let mut ins = res.inserted.clone();
        ins.sort_unstable();
        assert_eq!(ins, vec![10, 11, 12]);
        let mut rej = res.rejected.clone();
        rej.sort_unstable();
        assert_eq!(rej, vec![13, 14]);
        assert!(res.evicted.is_empty());
        assert_eq!(msf.msf_weight(), 6.0);
        assert_eq!(msf.num_components(), 1);
    }

    #[test]
    fn eviction_by_lighter_batch() {
        let mut msf = BatchMsf::new(3, 2);
        msf.batch_insert(&[(0, 1, 10.0, 1), (1, 2, 20.0, 2)]);
        // A light edge closing the cycle evicts the heaviest (id 2).
        let res = msf.batch_insert(&[(0, 2, 1.0, 3)]);
        assert_eq!(res.inserted, vec![3]);
        assert_eq!(res.evicted, vec![2]);
        assert!(!msf.contains_edge(2));
        assert!(msf.contains_edge(3));
        assert_eq!(msf.msf_weight(), 11.0);
    }

    #[test]
    fn single_edge_batches_match_oracle() {
        use bimst_primitives::hash::hash2;
        let n = 50usize;
        let mut msf = BatchMsf::new(n, 3);
        let mut oracle = Oracle::new(n);
        for i in 0..200u64 {
            let u = (hash2(1, 2 * i) % n as u64) as u32;
            let v = (hash2(1, 2 * i + 1) % n as u64) as u32;
            if u == v {
                continue;
            }
            let w = (hash2(2, i) % 1000) as f64;
            let batch = [(u, v, w, i)];
            msf.batch_insert(&batch);
            oracle.insert(&batch);
        }
        assert_matches_oracle(&msf, &oracle);
    }

    #[test]
    fn large_batches_match_oracle() {
        use bimst_primitives::hash::hash2;
        let n = 300usize;
        let mut msf = BatchMsf::new(n, 5);
        let mut oracle = Oracle::new(n);
        let mut id = 0u64;
        for round in 0..6u64 {
            let l = 1usize << (2 * round); // 1, 4, 16, 64, 256, 1024
            let mut batch = Vec::new();
            for _ in 0..l {
                let u = (hash2(round, 2 * id) % n as u64) as u32;
                let v = (hash2(round, 2 * id + 1) % n as u64) as u32;
                let w = (hash2(7, id) % 10_000) as f64;
                batch.push((u, v, w, id));
                id += 1;
            }
            batch.retain(|&(u, v, _, _)| u != v);
            msf.batch_insert(&batch);
            oracle.insert(&batch);
            assert_matches_oracle(&msf, &oracle);
        }
        msf.forest().verify_against_scratch().unwrap();
    }

    #[test]
    fn whole_graph_as_one_batch_equals_static_msf() {
        use bimst_primitives::hash::hash2;
        let n = 500usize;
        let batch: Vec<(u32, u32, f64, u64)> = (0..3000u64)
            .filter_map(|i| {
                let u = (hash2(11, 2 * i) % n as u64) as u32;
                let v = (hash2(11, 2 * i + 1) % n as u64) as u32;
                (u != v).then_some((u, v, (hash2(13, i) % 100_000) as f64, i))
            })
            .collect();
        let mut msf = BatchMsf::new(n, 7);
        let mut oracle = Oracle::new(n);
        msf.batch_insert(&batch);
        oracle.insert(&batch);
        assert_matches_oracle(&msf, &oracle);
    }

    #[test]
    fn parallel_duplicate_edges_in_one_batch() {
        // Two edges between the same endpoints: only the lighter enters.
        let mut msf = BatchMsf::new(2, 8);
        let res = msf.batch_insert(&[(0, 1, 5.0, 1), (0, 1, 3.0, 2)]);
        assert_eq!(res.inserted, vec![2]);
        assert_eq!(res.rejected, vec![1]);
    }

    #[test]
    fn self_loops_rejected() {
        let mut msf = BatchMsf::new(3, 9);
        let res = msf.batch_insert(&[(1, 1, 1.0, 5), (0, 1, 2.0, 6)]);
        assert_eq!(res.rejected, vec![5]);
        assert_eq!(res.inserted, vec![6]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge id")]
    fn duplicate_ids_in_batch_panic() {
        let mut msf = BatchMsf::new(3, 10);
        msf.batch_insert(&[(0, 1, 1.0, 5), (1, 2, 2.0, 5)]);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut msf = BatchMsf::new(3, 11);
        let res = msf.batch_insert(&[]);
        assert!(res.inserted.is_empty() && res.evicted.is_empty());
        assert_eq!(msf.msf_edge_count(), 0);
    }

    #[test]
    fn weights_can_be_negative_and_tied() {
        let mut msf = BatchMsf::new(4, 12);
        // Recency-style weights (all negative, ties broken by id) — the
        // sliding-window layer depends on this working.
        msf.batch_insert(&[(0, 1, -1.0, 1), (1, 2, -2.0, 2), (2, 3, -2.0, 3)]);
        assert_eq!(msf.msf_edge_count(), 3);
        let res = msf.batch_insert(&[(0, 2, -3.0, 4)]);
        // Cycle 0-1-2-0: heaviest is -1 (id 1) → evicted.
        assert_eq!(res.evicted, vec![1]);
        assert_eq!(msf.msf_weight(), -7.0);
    }

    #[test]
    fn path_max_after_updates() {
        let mut msf = BatchMsf::new(4, 13);
        msf.batch_insert(&[(0, 1, 1.0, 1), (1, 2, 9.0, 2), (2, 3, 4.0, 3)]);
        assert_eq!(msf.path_max(0, 3).unwrap().w, 9.0);
        // Replace the heavy middle edge via a cheaper alternative path.
        msf.batch_insert(&[(1, 2, 2.0, 4)]);
        assert_eq!(msf.path_max(0, 3).unwrap().w, 4.0);
    }
}
