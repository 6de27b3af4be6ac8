//! The public batch-dynamic forest, with ternarization.
//!
//! [`RcForest`] maintains an edge-weighted forest over `n` original vertices
//! under batches of edge cuts and links, keeping an RC tree (recursive
//! clustering) of the whole forest up to date via change propagation.
//!
//! # Ternarization
//!
//! Miller–Reif contraction needs degree ≤ 3, but minimum spanning forests
//! have unbounded degree. Each original vertex `v` therefore owns a **spine**:
//! its *head* node (the identity of `v`; it also holds the first incident
//! edge), followed by a chain of *phantom* nodes, one per additional incident
//! edge, linked by phantom edges of weight `−∞`. Inserting or deleting a tree
//! edge touches O(1) spine nodes, so a batch of `ℓ` edge updates becomes
//! O(`ℓ`) structural edits to the bounded-degree base forest, as in the
//! paper's reference \[2\].
//!
//! Degrees: a head has at most one real edge plus one spine link (≤ 2);
//! a phantom has two spine links plus one real edge (≤ 3).
//!
//! Phantom edges never matter: their `−∞` keys are never a path maximum, and
//! the MSF layer never selects them for eviction (they are always in any
//! minimum spanning forest).

use bimst_primitives::{AVec, ChunkedArena, EdgeId, FxHashMap, VertexId, WKey};

use crate::cluster::{Cluster, ClusterId, ClusterKind, MAX_CHILDREN};
use crate::contract::{Engine, NONE_NODE};

/// A node of the ternarized base forest (head or phantom).
pub type NodeId = u32;

/// Spine bookkeeping for one node.
#[derive(Clone, Copy, Debug, Default)]
struct SpineInfo {
    /// Previous node on the owner's spine (`NONE_NODE` for heads).
    prev: NodeId,
    /// Next node on the owner's spine (`NONE_NODE` at the tail).
    next: NodeId,
    /// The real edge held by this node, if any.
    real: Option<EdgeId>,
}

impl SpineInfo {
    fn empty() -> Self {
        SpineInfo {
            prev: NONE_NODE,
            next: NONE_NODE,
            real: None,
        }
    }
}

/// Where a live edge is attached.
#[derive(Clone, Copy, Debug)]
struct EdgeRec {
    u: VertexId,
    v: VertexId,
    /// Node on `u`'s spine holding the edge.
    nu: NodeId,
    /// Node on `v`'s spine holding the edge.
    nv: NodeId,
    /// The leaf edge cluster.
    cluster: ClusterId,
    key: WKey,
}

/// An edge-weighted, batch-dynamic forest with an always-current RC tree.
///
/// # Example
///
/// ```
/// use bimst_rctree::RcForest;
///
/// let mut f = RcForest::new(4, 42);
/// f.batch_update(&[], &[(0, 1, 1.0, 10), (1, 2, 5.0, 11)]);
/// assert!(f.connected(0, 2));
/// assert!(!f.connected(0, 3));
/// assert_eq!(f.num_components(), 2);
/// f.batch_update(&[11], &[(2, 3, 2.0, 12)]);
/// assert!(!f.connected(0, 2));
/// assert!(f.connected(2, 3));
/// ```
pub struct RcForest {
    engine: Engine,
    n: usize,
    heads: Vec<NodeId>,
    tails: Vec<NodeId>,
    /// Indexed by node id, grown one slot per phantom. Chunked so growth
    /// never copies: as a `Vec` this was the last doubling arena on the
    /// insert path (a 1M-vertex forest pays a ~24 MB copy-plus-fault storm
    /// the batch its first phantom appears — measured at ~13 ms).
    spine: ChunkedArena<SpineInfo>,
    edges: FxHashMap<EdgeId, EdgeRec>,
}

impl RcForest {
    /// Creates a forest of `n` isolated vertices. `seed` drives every random
    /// contraction decision; two forests with the same seed and the same
    /// update history are structurally identical.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_edge_capacity(n, seed, 0)
    }

    /// [`RcForest::new`], pre-sizing the live-edge map for `edge_capacity`
    /// simultaneous edges.
    ///
    /// The edge map is the last doubling structure on the insert path: grown
    /// incrementally it rehashes at power-of-two boundaries (~8 MB moved in
    /// one batch at 262 K live edges). A forest never holds more than
    /// `n − 1` live edges, so callers that know their scale (the MSF facade,
    /// the sliding-window layer, the benches) pass a hint and take the
    /// allocation once, at construction, instead of as a latency spike
    /// mid-stream. The hint only pre-sizes; it is not a limit.
    pub fn with_edge_capacity(n: usize, seed: u64, edge_capacity: usize) -> Self {
        // Vertex `v`'s head is node `v`.
        let engine = Engine::with_singletons(seed, n);
        let heads: Vec<NodeId> = (0..n as NodeId).collect();
        let mut spine = ChunkedArena::new();
        for _ in 0..n {
            spine.push(SpineInfo::empty());
        }
        RcForest {
            engine,
            n,
            tails: heads.clone(),
            heads,
            spine,
            edges: FxHashMap::with_capacity_and_hasher(
                edge_capacity.min(n.saturating_sub(1)),
                Default::default(),
            ),
        }
    }

    /// Number of original vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of live (real) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of connected components, including isolated vertices.
    /// `O(1)`: one root cluster exists per component.
    pub fn num_components(&self) -> usize {
        self.engine.clusters.num_roots
    }

    /// Whether an edge with this id is in the forest.
    pub fn has_edge(&self, id: EdgeId) -> bool {
        self.edges.contains_key(&id)
    }

    /// The `(u, v, weight-key)` of a live edge.
    pub fn edge_info(&self, id: EdgeId) -> Option<(VertexId, VertexId, WKey)> {
        self.edges.get(&id).map(|r| (r.u, r.v, r.key))
    }

    /// Iterates over live edges as `(id, u, v, key)`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, WKey)> + '_ {
        self.edges.iter().map(|(&id, r)| (id, r.u, r.v, r.key))
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Applies a batch of cuts then a batch of links, then re-contracts via
    /// change propagation.
    ///
    /// Links are `(u, v, weight, edge id)`. Edge ids must be unique among
    /// live edges; each cut id must name a live edge.
    ///
    /// # Panics
    ///
    /// Panics if a cut id is unknown or a link reuses a live id. The caller
    /// must keep the graph a forest — linking two already-connected vertices
    /// corrupts the structure (the MSF layer in `bimst-core` guarantees
    /// forest-ness by construction; direct users can call
    /// [`RcForest::connected`] first).
    pub fn batch_update(&mut self, cuts: &[EdgeId], links: &[(VertexId, VertexId, f64, EdgeId)]) {
        // Grow the edge map once per batch instead of amortizing inside the
        // link loop; together with the engine-owned propagation scratch this
        // keeps steady-state batches allocation-free (see `contract.rs`,
        // module docs, *Scratch lifecycle*).
        self.edges.reserve(links.len().saturating_sub(cuts.len()));
        for &id in cuts {
            let rec = self
                .edges
                .remove(&id)
                .unwrap_or_else(|| panic!("cut of unknown edge id {id}"));
            let c = self.engine.remove_edge_round0(rec.nu, rec.nv);
            debug_assert_eq!(c, rec.cluster);
            self.engine.free_cluster(c);
            self.detach(rec.nu, id);
            self.detach(rec.nv, id);
        }
        for &(u, v, w, id) in links {
            assert!(
                (u as usize) < self.n && (v as usize) < self.n,
                "link ({u},{v}) out of range"
            );
            assert!(u != v, "self-loop ({u},{v})");
            assert!(
                !self.edges.contains_key(&id),
                "link reuses live edge id {id}"
            );
            let nu = self.attach(u, id);
            let nv = self.attach(v, id);
            let key = WKey::new(w, id);
            let cluster = self.engine.alloc_edge_cluster(nu, nv, key);
            self.engine.add_edge_round0(nu, nv, cluster);
            self.edges.insert(
                id,
                EdgeRec {
                    u,
                    v,
                    nu,
                    nv,
                    cluster,
                    key,
                },
            );
        }
        self.engine.propagate();
        #[cfg(debug_assertions)]
        self.engine
            .check_cluster_invariants()
            .expect("cluster invariants after batch_update");
    }

    /// Convenience wrapper: links only.
    pub fn batch_link(&mut self, links: &[(VertexId, VertexId, f64, EdgeId)]) {
        self.batch_update(&[], links);
    }

    /// Convenience wrapper: cuts only.
    pub fn batch_cut(&mut self, cuts: &[EdgeId]) {
        self.batch_update(cuts, &[]);
    }

    /// Finds (or creates) a spine node of `v` with a free real-edge slot.
    fn attach(&mut self, v: VertexId, id: EdgeId) -> NodeId {
        let h = self.heads[v as usize];
        if self.spine[h as usize].real.is_none() {
            self.spine[h as usize].real = Some(id);
            return h;
        }
        let tail = self.tails[v as usize];
        let p = self.engine.alloc_node(v, false);
        if p as usize == self.spine.len() {
            self.spine.push(SpineInfo::empty());
        }
        self.spine[p as usize] = SpineInfo {
            prev: tail,
            next: NONE_NODE,
            real: Some(id),
        };
        self.spine[tail as usize].next = p;
        self.tails[v as usize] = p;
        let pc = self.engine.alloc_edge_cluster(tail, p, WKey::phantom());
        self.engine.add_edge_round0(tail, p, pc);
        p
    }

    /// Clears the real-edge slot of `node`; phantom nodes are spliced out of
    /// the spine and freed.
    fn detach(&mut self, node: NodeId, id: EdgeId) {
        let info = self.spine[node as usize];
        debug_assert_eq!(info.real, Some(id), "detach of wrong edge");
        self.spine[node as usize].real = None;
        if info.prev == NONE_NODE {
            // Head: just clear the slot.
            return;
        }
        let owner = self.engine.nodes.owner(node);
        let pr = info.prev;
        let nx = info.next;
        let c = self.engine.remove_edge_round0(pr, node);
        self.engine.free_cluster(c);
        if nx != NONE_NODE {
            let c = self.engine.remove_edge_round0(node, nx);
            self.engine.free_cluster(c);
            let pc = self.engine.alloc_edge_cluster(pr, nx, WKey::phantom());
            self.engine.add_edge_round0(pr, nx, pc);
            self.spine[pr as usize].next = nx;
            self.spine[nx as usize].prev = pr;
        } else {
            self.spine[pr as usize].next = NONE_NODE;
            self.tails[owner as usize] = pr;
        }
        self.engine.free_node(node);
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Whether `u` and `v` are in the same component. `O(lg n)` w.h.p.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.root_cluster_of(u) == self.root_cluster_of(v)
    }

    /// The root cluster of the component containing `v`.
    pub fn root_cluster_of(&self, v: VertexId) -> ClusterId {
        let leaf = self.engine.nodes.leaf_cluster(self.heads[v as usize]);
        self.engine.root_from(leaf)
    }

    /// Number of original vertices in `v`'s component (isolated vertex: 1).
    /// `O(lg n)` w.h.p. — the root cluster carries its vertex count.
    pub fn component_size(&self, v: VertexId) -> usize {
        self.engine.clusters.size(self.root_cluster_of(v)) as usize
    }

    // ------------------------------------------------------------------
    // RC tree access (for the compressed path tree in `bimst-core`)
    // ------------------------------------------------------------------

    /// Read access to an RC tree node, assembled by value from the arena's
    /// parallel arrays (cold paths: pretty-printing, diagnostics). Hot
    /// paths use [`RcForest::cluster_kind`] / [`RcForest::cluster_children`]
    /// / [`RcForest::parent`] so they only load the arrays they need.
    pub fn cluster(&self, c: ClusterId) -> Cluster {
        self.engine.clusters.get(c)
    }

    /// The kind of a cluster (hot array only).
    #[inline]
    pub fn cluster_kind(&self, c: ClusterId) -> &ClusterKind {
        self.engine.clusters.kind(c)
    }

    /// The children of a cluster (warm array only).
    #[inline]
    pub fn cluster_children(&self, c: ClusterId) -> &AVec<ClusterId, MAX_CHILDREN> {
        self.engine.clusters.children(c)
    }

    /// The kind and children of a cluster as one record read — the gather
    /// primitive of the CPT's packed expansion (`bimst-core`).
    #[inline]
    pub fn cluster_kind_children(
        &self,
        c: ClusterId,
    ) -> (ClusterKind, AVec<ClusterId, MAX_CHILDREN>) {
        self.engine.clusters.kind_children(c)
    }

    /// Parent of a cluster (`NONE_CLUSTER` for roots). A single dense-array
    /// read — the CPT's bottom-up marking loop lives on this.
    #[inline]
    pub fn parent(&self, c: ClusterId) -> ClusterId {
        self.engine.clusters.parent(c)
    }

    /// The base leaf cluster of a node.
    pub fn leaf_cluster(&self, node: NodeId) -> ClusterId {
        self.engine.nodes.leaf_cluster(node)
    }

    /// The head node representing original vertex `v`.
    pub fn head(&self, v: VertexId) -> NodeId {
        self.heads[v as usize]
    }

    /// The original vertex owning a base node (head or phantom).
    pub fn owner(&self, node: NodeId) -> VertexId {
        self.engine.nodes.owner(node)
    }

    /// Upper bound (exclusive) on node ids; useful for scratch arrays.
    pub fn node_id_bound(&self) -> usize {
        self.engine.nodes.len()
    }

    /// Direct access to the contraction engine (verification, benches).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Frees the engine's propagation scratch (see
    /// [`Engine::release_scratch`]).
    pub fn release_scratch(&mut self) {
        self.engine.release_scratch();
    }

    /// Verifies change propagation against a from-scratch rebuild of the
    /// current base forest. Expensive; tests and benches only.
    pub fn verify_against_scratch(&self) -> Result<(), String> {
        let scratch = self.engine.rebuild_from_scratch();
        self.engine.same_contraction(&scratch)?;
        self.engine.check_cluster_invariants()?;
        scratch.check_cluster_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_primitives::hash::hash2;

    #[test]
    fn empty_forest() {
        let f = RcForest::new(5, 1);
        assert_eq!(f.num_components(), 5);
        assert_eq!(f.num_edges(), 0);
        assert!(!f.connected(0, 1));
        assert!(f.connected(2, 2));
    }

    /// Direct singleton construction writes exactly the contraction that
    /// flagging every head and propagating builds — cluster ids included,
    /// which replica and recovery bit-identity rest on — and leaves no
    /// propagation scratch behind.
    #[test]
    fn construction_matches_propagated_singletons() {
        let chunk = bimst_primitives::soa::CHUNK;
        for n in [0, 1, 2048, 2049, chunk + 1] {
            let f = RcForest::new(n, 31);
            let e = f.engine();
            let rebuilt = e.rebuild_from_scratch();
            e.same_contraction(&rebuilt).unwrap();
            e.check_cluster_invariants().unwrap();
            rebuilt.check_cluster_invariants().unwrap();
            assert_eq!(f.num_components(), n);
            assert_eq!(e.scratch_high_water(), 0, "n = {n}");
            for v in 0..n as VertexId {
                let leaf = f.leaf_cluster(f.head(v));
                assert_eq!(leaf, rebuilt.nodes.leaf_cluster(v), "n = {n}, leaf of {v}");
                assert_eq!(
                    f.root_cluster_of(v),
                    rebuilt.root_from(leaf),
                    "n = {n}, root of {v}"
                );
                assert_eq!(f.component_size(v), 1);
            }
            assert_eq!(e.clusters.len(), rebuilt.clusters.len());
        }
    }

    #[test]
    fn link_and_cut_roundtrip() {
        let mut f = RcForest::new(4, 2);
        f.batch_link(&[(0, 1, 1.0, 100), (2, 3, 2.0, 101)]);
        assert_eq!(f.num_components(), 2);
        assert!(f.connected(0, 1));
        assert!(!f.connected(1, 2));
        f.batch_update(&[100], &[(1, 2, 3.0, 102)]);
        assert_eq!(f.num_components(), 2); // {1,2,3} and {0}
        assert!(f.connected(1, 3));
        assert!(!f.connected(0, 1));
        f.verify_against_scratch().unwrap();
    }

    #[test]
    fn high_degree_vertex_ternarizes() {
        // A star with center 0 and 50 leaves: center degree far above 3,
        // handled by the spine.
        let n = 51;
        let mut f = RcForest::new(n, 3);
        let links: Vec<(u32, u32, f64, u64)> =
            (1..n as u32).map(|v| (0, v, v as f64, v as u64)).collect();
        f.batch_link(&links);
        assert_eq!(f.num_components(), 1);
        for v in 1..n as u32 {
            assert!(f.connected(0, v));
        }
        f.verify_against_scratch().unwrap();
        // Cut half the star, one batch.
        let cuts: Vec<u64> = (1..=25u64).collect();
        f.batch_cut(&cuts);
        assert_eq!(f.num_components(), 26);
        assert!(!f.connected(0, 1));
        assert!(f.connected(0, 26));
        f.verify_against_scratch().unwrap();
    }

    #[test]
    fn spine_reuses_head_slot() {
        let mut f = RcForest::new(3, 4);
        f.batch_link(&[(0, 1, 1.0, 1)]);
        let nodes_after_one = f.engine.live_nodes();
        // First edge per endpoint sits on the head: no phantoms allocated.
        assert_eq!(nodes_after_one, 3);
        f.batch_link(&[(0, 2, 1.0, 2)]);
        // Second edge at vertex 0 needs a phantom.
        assert_eq!(f.engine.live_nodes(), 4);
        f.batch_cut(&[2]);
        assert_eq!(f.engine.live_nodes(), 3);
        f.verify_against_scratch().unwrap();
    }

    #[test]
    fn interleaved_batches_match_scratch() {
        // Random forest maintained under mixed cut/link batches.
        let n = 120u32;
        let mut f = RcForest::new(n as usize, 77);
        let mut live: Vec<(u32, u32, u64)> = Vec::new();
        fn find(p: &mut [u32], x: u32) -> u32 {
            let mut r = x;
            while p[r as usize] != r {
                r = p[r as usize];
            }
            let mut c = x;
            while p[c as usize] != r {
                let nx = p[c as usize];
                p[c as usize] = r;
                c = nx;
            }
            r
        }
        let mut eid = 0u64;
        for round in 0..30u64 {
            // Cut a few random live edges.
            let mut cuts = Vec::new();
            let ncuts = (hash2(round, 1) % 4) as usize;
            for k in 0..ncuts.min(live.len()) {
                let i = (hash2(round, 100 + k as u64) as usize) % live.len();
                cuts.push(live.swap_remove(i).2);
            }
            // Rebuild union-find over remaining edges.
            let mut parent: Vec<u32> = (0..n).collect();
            for &(a, b, _) in &live {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra as usize] = rb;
            }
            // Link a few random non-cycle edges.
            let mut links: Vec<(u32, u32, f64, u64)> = Vec::new();
            for k in 0..(hash2(round, 2) % 6) {
                let a = (hash2(round, 200 + k) % n as u64) as u32;
                let b = (hash2(round, 300 + k) % n as u64) as u32;
                if a == b {
                    continue;
                }
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra == rb {
                    continue;
                }
                parent[ra as usize] = rb;
                links.push((a, b, hash2(round, k) as f64 / 1e15, eid));
                live.push((a, b, eid));
                eid += 1;
            }
            f.batch_update(&cuts, &links);
        }
        f.verify_against_scratch().unwrap();
        // Cross-check connectivity against union-find.
        let mut parent: Vec<u32> = (0..n).collect();
        for &(a, b, _) in &live {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra as usize] = rb;
        }
        for i in 0..n {
            for j in (i + 1)..n.min(i + 8) {
                let expect = find(&mut parent, i) == find(&mut parent, j);
                assert_eq!(f.connected(i, j), expect, "({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown edge id")]
    fn cut_unknown_edge_panics() {
        let mut f = RcForest::new(2, 5);
        f.batch_cut(&[99]);
    }

    #[test]
    #[should_panic(expected = "reuses live edge id")]
    fn duplicate_edge_id_panics() {
        let mut f = RcForest::new(3, 6);
        f.batch_link(&[(0, 1, 1.0, 7)]);
        f.batch_link(&[(1, 2, 1.0, 7)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut f = RcForest::new(2, 7);
        f.batch_link(&[(1, 1, 1.0, 0)]);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut f = RcForest::new(3, 8);
        f.batch_link(&[(0, 1, 1.0, 1)]);
        let roots = f.num_components();
        f.batch_update(&[], &[]);
        assert_eq!(f.num_components(), roots);
        assert!(f.connected(0, 1));
    }

    #[test]
    fn component_sizes_track_updates() {
        let mut f = RcForest::new(7, 21);
        assert_eq!(f.component_size(0), 1);
        f.batch_link(&[(0, 1, 1.0, 1), (1, 2, 1.0, 2), (3, 4, 1.0, 3)]);
        assert_eq!(f.component_size(0), 3);
        assert_eq!(f.component_size(2), 3);
        assert_eq!(f.component_size(3), 2);
        assert_eq!(f.component_size(6), 1);
        f.batch_update(&[2], &[(2, 3, 1.0, 4)]);
        assert_eq!(f.component_size(0), 2); // {0,1}
        assert_eq!(f.component_size(2), 3); // {2,3,4}
                                            // A high-degree vertex: phantoms must not count.
        let links: Vec<(u32, u32, f64, u64)> =
            (5..7u32).map(|v| (2, v, 1.0, 10 + v as u64)).collect();
        f.batch_link(&links);
        assert_eq!(f.component_size(2), 5); // {2,3,4,5,6}
    }

    #[test]
    fn reinsert_same_id_after_cut() {
        let mut f = RcForest::new(2, 9);
        f.batch_link(&[(0, 1, 1.0, 42)]);
        // Cut and re-link with the same id in one batch (cuts apply first).
        f.batch_update(&[42], &[(0, 1, 9.0, 42)]);
        assert!(f.connected(0, 1));
        assert_eq!(f.edge_info(42).unwrap().2.w, 9.0);
        f.verify_against_scratch().unwrap();
    }
}
