//! The compressed path tree (§3 of the paper, Algorithm 1), generic over a
//! path monoid.
//!
//! Given a weighted forest with some *marked* vertices, the compressed path
//! tree is the union of all pairwise paths between marked vertices with
//! every unmarked vertex of degree ≤ 2 spliced out, each spliced edge
//! standing for the path it replaced. The paper labels every edge with the
//! heaviest key on that path ([`compressed_path_tree`]), which answers every
//! pairwise "heaviest edge between marked vertices" query and feeds
//! Algorithm 2; a **fold tree** ([`fold_path_tree`]) labels it with the
//! fold of any [`PathMonoid`] over that path instead. Both have `O(ℓ)`
//! vertices (Lemma 3.2).
//!
//! The algorithm marks the `O(ℓ lg(1+n/ℓ))` RC-tree clusters that contain a
//! marked vertex (bottom-up), then expands top-down (`ExpandCluster`):
//! an **unmarked** cluster contributes only its boundary — for an
//! edge-role cluster (a leaf edge or a binary cluster), a single edge
//! labelled with its boundary-to-boundary path — while a marked cluster
//! recurses into its ≤ 6 children and prunes its representative (`Prune`),
//! which splices out an unmarked degree-2 vertex by merging the labels of
//! its two edges. A label is read off the cluster in one of two ways:
//!
//! * **`MAX_SUMMARY` monoids** (e.g. [`MaxW`]): clusters already store the
//!   heaviest key of their boundary path, so the label is that key, read
//!   in `O(1)`, and a splice keeps the heavier key. The tree is the
//!   paper's, and a fold is `summarize` of its key.
//! * **Other monoids** ([`bimst_primitives::monoid::MinW`], `SumW`,
//!   `Hops`): the label is the fold of the cluster's boundary path,
//!   computed by descending its edge-role children down to the leaf edges
//!   — the RC-tree path query of Acar, Blelloch and Werneck (SODA 2004): a
//!   leaf edge lifts its key, a phantom spine edge contributes the
//!   identity, a binary cluster combines its two children. Most expanded
//!   edges are later pruned away, so labels are kept **deferred**: an edge
//!   carries a term (a cluster, or the splice of two terms), and only the
//!   terms of surviving edges are folded, once the tree is final. The
//!   folding reads `O(|paths|)` clusters, the length of the union of the
//!   paths between marks, on top of the `O(ℓ lg(1 + n/ℓ))` expansion.
//!
//! Because the underlying forest is ternarized, the expansion runs over
//! *base nodes* (heads and phantoms); the final step contracts the phantom
//! edges, collapsing every spine back to its owning vertex. Phantom
//! Steiner nodes have degree ≥ 3 in the raw tree, so the collapsed owner
//! keeps degree ≥ 3 and no re-pruning is needed.

use bimst_primitives::monoid::{MaxW, PathMonoid};
use bimst_primitives::soa::EpochSlotMap;
use bimst_primitives::{AVec, FxHashMap, FxHashSet, VertexId, WKey};
use bimst_rctree::cluster::{NodeId, MAX_CHILDREN};
use bimst_rctree::{ClusterId, ClusterKind, RcForest, NONE_CLUSTER};

/// An edge of a compressed path tree, labelled with `key`: the fold of the
/// tree's monoid over the path the edge represents. In the paper's tree
/// (`V = WKey`, the [`MaxW`] fold) that is the heaviest key on the path,
/// and `key.id` is the id of that original edge — the identification that
/// lets Algorithm 2 cut real edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CptEdge<V = WKey> {
    /// One endpoint (original vertex).
    pub u: VertexId,
    /// Other endpoint (original vertex).
    pub v: VertexId,
    /// Fold over the represented path (heaviest key for the paper's tree).
    pub key: V,
}

/// A compressed path tree (possibly a forest: one tree per component that
/// contains a marked vertex), its edges labelled by `V`.
#[derive(Clone, Debug)]
pub struct Cpt<V = WKey> {
    /// All vertices: the marked vertices plus Steiner (branching) vertices.
    pub vertices: Vec<VertexId>,
    /// The compressed edges.
    pub edges: Vec<CptEdge<V>>,
}

impl<V> Default for Cpt<V> {
    fn default() -> Self {
        Cpt {
            vertices: Vec::new(),
            edges: Vec::new(),
        }
    }
}

/// How an expansion labels its edges (see the module docs).
trait Labels {
    /// The label an expansion edge carries.
    type L: Copy + Default + PartialEq;
    /// The label of the unmarked edge-role cluster `c`, whose boundary
    /// path's heaviest key is `key`.
    fn seg(&mut self, c: ClusterId, key: WKey) -> Self::L;
    /// The label of the concatenation of two adjacent labelled paths.
    fn join(&mut self, a: Self::L, b: Self::L) -> Self::L;
}

/// The paper's labels: the heaviest key, merged by [`MaxW`].
struct MaxKeys;

impl Labels for MaxKeys {
    type L = WKey;

    #[inline]
    fn seg(&mut self, _c: ClusterId, key: WKey) -> WKey {
        key
    }

    #[inline]
    fn join(&mut self, a: WKey, b: WKey) -> WKey {
        MaxW::combine(a, b)
    }
}

/// A deferred path fold: the boundary path of one edge-role cluster, or
/// two adjacent terms (indices into the same list) merged by a splice.
#[derive(Clone, Copy)]
enum Term {
    Seg(ClusterId),
    Join(u32, u32),
}

/// Fold-tree labels: indices into the expansion's term list.
impl Labels for Vec<Term> {
    type L = u32;

    fn seg(&mut self, c: ClusterId, _key: WKey) -> u32 {
        self.push(Term::Seg(c));
        (self.len() - 1) as u32
    }

    fn join(&mut self, a: u32, b: u32) -> u32 {
        self.push(Term::Join(a, b));
        (self.len() - 1) as u32
    }
}

/// The fold of `M` over the path that term `t` stands for. A phantom
/// (spine) edge folds to the identity, and so does a whole binary cluster
/// whose heaviest key is phantom; a binary cluster folds its two
/// edge-role children, which the contraction places last among its
/// children. `stack` is reused scratch.
fn fold_term<M: PathMonoid>(
    f: &RcForest,
    terms: &[Term],
    t: u32,
    stack: &mut Vec<Term>,
) -> M::Value {
    let mut acc = M::IDENTITY;
    stack.clear();
    stack.push(terms[t as usize]);
    while let Some(term) = stack.pop() {
        let c = match term {
            Term::Join(a, b) => {
                stack.push(terms[b as usize]);
                stack.push(terms[a as usize]);
                continue;
            }
            Term::Seg(c) => c,
        };
        match *f.cluster_kind(c) {
            ClusterKind::LeafEdge { key, .. } | ClusterKind::Binary { key, .. }
                if key.is_phantom() => {}
            ClusterKind::LeafEdge { a, b, key } => {
                acc = M::combine(acc, M::lift(key, f.owner(a), f.owner(b)));
            }
            ClusterKind::Binary { .. } => {
                let ch = f.cluster_children(c).as_slice();
                let &[.., c1, c2] = ch else {
                    unreachable!("binary cluster {c} has fewer than two children")
                };
                debug_assert!(f.cluster_kind(c1).edge_key().is_some());
                debug_assert!(f.cluster_kind(c2).edge_key().is_some());
                stack.push(Term::Seg(c2));
                stack.push(Term::Seg(c1));
            }
            _ => unreachable!("term over a non-edge cluster {c}"),
        }
    }
    acc
}

/// Working graph during expansion, over base nodes, with edges labelled by
/// `T`. Ternarization bounds every degree by 3.
///
/// **Dense-slot layout, no hashing.** `slot` is an epoch-stamped
/// `node → compact index` table over the forest's node-id space
/// ([`bimst_primitives::soa`], *The epoch-stamp idiom*); the compact side
/// is three parallel vectors indexed by first-touch order, so the whole
/// expansion — entry lookup, edge insertion, splicing, pruning — runs on
/// array reads with no hash computation anywhere. `clear()` is an O(1)
/// epoch bump plus length resets, so steady-state expansions allocate
/// nothing and touch no per-slot memory.
///
/// **Small expansions skip the table.** A ℓ-mark tree touches `O(ℓ)`
/// nodes; for small ℓ a lookup is a reverse linear scan of `touched`
/// (a few L1-resident `u32` compares), because probing the dense table
/// would take one *cold* DRAM line per distinct node — the table only
/// amortizes when an expansion touches many nodes. Crossing
/// [`LINEAR_MAX`] entries migrates the live entries into the table once
/// and switches over (`big`).
///
/// `touched[i]` is the node of compact entry `i` (`touched.len()` ==
/// `adj.len()` always). A node that is spliced out (`present[i] = false`)
/// and later re-touched gets a *fresh* compact entry, so `touched` can name
/// a node twice; output iteration emits only `present` entries, which makes
/// the emitted edge order a deterministic function of the expansion itself
/// (and `O(vertices touched)`, not `O(map capacity)`).
struct ExpGraph<T: Copy + Default> {
    slot: EpochSlotMap,
    adj: Vec<AVec<(NodeId, T), 3>>,
    touched: Vec<NodeId>,
    present: Vec<bool>,
    /// Whether lookups go through `slot` (large mode) or scan `touched`.
    big: bool,
    /// Node-id domain of the current expansion (for the deferred switch).
    domain: usize,
}

impl<T: Copy + Default> Default for ExpGraph<T> {
    fn default() -> Self {
        ExpGraph {
            slot: EpochSlotMap::default(),
            adj: Vec::new(),
            touched: Vec::new(),
            present: Vec::new(),
            big: false,
            domain: 0,
        }
    }
}

/// Entry count at which [`ExpGraph`] switches from linear scans to the
/// dense slot table (see the struct docs).
const LINEAR_MAX: usize = 32;

impl<T: Copy + Default + PartialEq> ExpGraph<T> {
    /// Clears the graph (O(1) in the node-id domain) and ensures node ids
    /// `0..domain` are addressable.
    fn clear(&mut self, domain: usize) {
        self.adj.clear();
        self.touched.clear();
        self.present.clear();
        self.big = false;
        self.domain = domain;
    }

    /// Combined capacity (in elements) of the compact arrays.
    fn high_water(&self) -> usize {
        self.touched.capacity() + self.adj.capacity() + self.present.capacity()
    }

    /// Compact index of `v`, if `v` currently has a live entry.
    #[inline]
    fn idx(&self, v: NodeId) -> Option<usize> {
        if self.big {
            let i = self.slot.get(v as usize)? as usize;
            self.present[i].then_some(i)
        } else {
            // Most-recent-first: the expansion overwhelmingly re-touches
            // what it just created.
            (0..self.touched.len())
                .rev()
                .find(|&i| self.touched[i] == v && self.present[i])
        }
    }

    /// Compact index of `v`, creating a fresh entry if absent (or if the
    /// previous entry was spliced away).
    fn entry(&mut self, v: NodeId) -> usize {
        if let Some(i) = self.idx(v) {
            return i;
        }
        let i = self.touched.len();
        if !self.big && i == LINEAR_MAX {
            // One-time migration: seed the table with the latest entry of
            // every touched node (ascending order leaves the newest entry
            // in the slot, matching `idx`'s most-recent semantics).
            self.slot.reset(self.domain);
            for (j, &u) in self.touched.iter().enumerate() {
                self.slot.set(u as usize, j as u32);
            }
            self.big = true;
        }
        if self.big {
            self.slot.set(v as usize, i as u32);
        }
        self.touched.push(v);
        self.adj.push(AVec::new());
        self.present.push(true);
        i
    }

    fn ensure_vertex(&mut self, v: NodeId) {
        self.entry(v);
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId, k: T) {
        let ia = self.entry(a);
        self.adj[ia].push((b, k));
        let ib = self.entry(b);
        self.adj[ib].push((a, k));
    }

    fn remove_edge(&mut self, a: NodeId, b: NodeId) -> T {
        let mut key = None;
        if let Some(ia) = self.idx(a) {
            self.adj[ia].retain(|&(x, k)| {
                if x == b && key.is_none() {
                    key = Some(k);
                    false
                } else {
                    true
                }
            });
        }
        let key = key.expect("remove of absent edge");
        let mut removed = false;
        if let Some(ib) = self.idx(b) {
            self.adj[ib].retain(|&(x, k)| {
                if x == a && k == key && !removed {
                    removed = true;
                    false
                } else {
                    true
                }
            });
        }
        debug_assert!(removed, "asymmetric expansion graph");
        key
    }

    /// Drops `v`'s entry (its adjacency must already be empty or irrelevant).
    fn remove_vertex(&mut self, v: NodeId) {
        if let Some(i) = self.idx(v) {
            self.present[i] = false;
            self.adj[i].clear();
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        self.idx(v).map_or(0, |i| self.adj[i].len())
    }

    /// Splices out the (unmarked, degree-2) vertex `v`, merging its two
    /// incident edges into one that stands for the concatenated path and
    /// carries the [`Labels::join`] of their labels: the heavier key in the
    /// paper's tree (the same aggregation the cluster bodies store,
    /// `ClusterKind::Binary`), the deferred combination of the two path
    /// folds in a fold tree.
    fn splice_out<Lb: Labels<L = T>>(&mut self, v: NodeId, labels: &mut Lb) {
        let i = self.idx(v).expect("splice of absent vertex");
        debug_assert_eq!(self.adj[i].len(), 2);
        let (x, kx) = self.adj[i][0];
        let (y, ky) = self.adj[i][1];
        self.remove_edge(v, x);
        self.remove_edge(v, y);
        self.remove_vertex(v);
        self.add_edge(x, y, labels.join(kx, ky));
    }

    /// The `Prune` primitive of Algorithm 1, applied to a representative.
    fn prune<Lb: Labels<L = T>>(
        &mut self,
        v: NodeId,
        marked_heads: &FxHashSet<NodeId>,
        labels: &mut Lb,
    ) {
        if marked_heads.contains(&v) {
            return;
        }
        match self.degree(v) {
            2 => self.splice_out(v, labels),
            1 => {
                let i = self.idx(v).expect("degree-1 vertex has an entry");
                let (u, _) = self.adj[i][0];
                self.remove_edge(v, u);
                self.remove_vertex(v);
                if !marked_heads.contains(&u) && self.degree(u) == 2 {
                    self.splice_out(u, labels);
                }
            }
            0 => {
                // An unmarked isolated representative contributes nothing.
                // (Unreachable for well-formed marked clusters; kept as a
                // safe fallback.)
                debug_assert!(false, "unmarked degree-0 representative {v}");
                self.remove_vertex(v);
            }
            _ => {}
        }
    }

    /// Appends the graph's tree to `out`: every surviving edge between two
    /// owners, labelled `value(label)`, and the surviving owners (sorted,
    /// via `verts`). Compact entries are emitted in first-touch order; an
    /// entry whose node was spliced out (and possibly re-touched under a
    /// fresh entry) is skipped via its `present` flag, so every surviving
    /// node is emitted exactly once.
    ///
    /// Contracting phantom edges: every base node maps to its owner, and an
    /// edge whose endpoints share an owner is dropped. That is exactly the
    /// phantom-keyed edges — spine edges join nodes of one owner, and a
    /// path through a real edge cannot return to an owner's spine in a
    /// forest — so the rule needs no label.
    fn emit<V>(
        &self,
        f: &RcForest,
        verts: &mut Vec<VertexId>,
        out: &mut Cpt<V>,
        mut value: impl FnMut(T) -> V,
    ) {
        verts.clear();
        for j in 0..self.touched.len() {
            if !self.present[j] {
                continue;
            }
            let a = self.touched[j];
            let oa = f.owner(a);
            verts.push(oa);
            for (b, k) in self.adj[j].iter() {
                if a < b {
                    let ob = f.owner(b);
                    if oa != ob {
                        out.edges.push(CptEdge {
                            u: oa,
                            v: ob,
                            key: value(k),
                        });
                    }
                }
            }
        }
        verts.sort_unstable();
        verts.dedup();
        out.vertices.extend_from_slice(verts);
    }
}

/// A marked cluster's body (kind + children), gathered into the packed
/// scratch by the bottom-up marking walk so the top-down expansion never
/// returns to the cluster record array for marked clusters ("pack the
/// frontier once, sweep the pack"). The gather shares the marking chase's
/// pass over the arena,
/// and every marked probe during expansion becomes one hash lookup that
/// yields membership *and* the body, where the unpacked walk paid a hash
/// probe plus a cold record load per marked cluster.
#[derive(Clone, Copy)]
struct PackedBody {
    kind: ClusterKind,
    children: AVec<ClusterId, MAX_CHILDREN>,
}

/// Recursive `ExpandCluster` (Algorithm 1), accumulating into `g`. Marked
/// clusters are served from the packed bodies (`marked` maps cluster id →
/// pack index); unmarked clusters read only the `kind` record they are
/// summarized by.
fn expand<Lb: Labels>(
    f: &RcForest,
    c: ClusterId,
    ws: &MarkedSet,
    g: &mut ExpGraph<Lb::L>,
    labels: &mut Lb,
) {
    let Some(&ix) = ws.marked.get(&c) else {
        // Lines 3-9: an unmarked cluster is summarized by its boundary.
        match *f.cluster_kind(c) {
            ClusterKind::LeafEdge { a, b, key } => g.add_edge(a, b, labels.seg(c, key)),
            ClusterKind::Binary {
                bound: (a, b), key, ..
            } => g.add_edge(a, b, labels.seg(c, key)),
            ClusterKind::Unary { boundary, .. } => g.ensure_vertex(boundary),
            // Nullary (root) and leaf-vertex clusters have no boundary.
            ClusterKind::Root { .. } | ClusterKind::LeafVertex { .. } => {}
        }
        return;
    };
    let body = &ws.bodies[ix as usize];
    match body.kind {
        // Lines 10-11: a marked leaf vertex.
        ClusterKind::LeafVertex { node } => g.ensure_vertex(node),
        ClusterKind::LeafEdge { .. } => unreachable!("edge clusters are never marked"),
        // Lines 12-14: recurse and prune the representative.
        ClusterKind::Unary { rep, .. }
        | ClusterKind::Binary { rep, .. }
        | ClusterKind::Root { rep } => {
            for ch in body.children.iter() {
                expand(f, ch, ws, g, labels);
            }
            g.prune(rep, &ws.marked_heads, labels);
        }
    }
}

/// The marking phase's output, read by every expansion.
#[derive(Default)]
struct MarkedSet {
    /// Clusters containing a marked vertex, mapped to their index in
    /// `bodies`. Deliberately a *hash* map, not an epoch-stamped table: it
    /// holds `O(ℓ lg(1 + n/ℓ))` entries probed many times each, so it
    /// stays compact and cache-warm, where a cluster-id-indexed table
    /// would take a cold DRAM miss per probe.
    marked: FxHashMap<ClusterId, u32>,
    /// Packed bodies of the marked clusters, gathered by the marking walk
    /// (see [`PackedBody`]); `bodies[marked[&c]]` is `c`'s record.
    bodies: Vec<PackedBody>,
    /// Head nodes of the marked vertices (same reasoning: `O(ℓ)` entries).
    marked_heads: FxHashSet<NodeId>,
}

/// Reusable workspace for [`compressed_path_tree_with`] and
/// [`fold_path_tree_with`].
///
/// Owned by `BatchMsf` (one per structure) so that steady-state
/// `batch_insert` calls perform no heap allocation in the CPT stage: the
/// expansion graph's compact arrays, the epoch-stamped marking tables, and
/// the root/head buffers are cleared (capacity-preserving) rather than
/// rebuilt. Fold trees expand into their own graph, whose labels are term
/// indices, so one scratch serves every monoid without a typed buffer. A
/// default-constructed scratch is cheap — `O(1)` until first use — so the
/// one-shot [`compressed_path_tree`] wrapper stays `O(ℓ lg(1 + n/ℓ))`.
#[derive(Default)]
pub struct CptScratch {
    /// Expansion graph of max trees.
    g: ExpGraph<WKey>,
    /// Expansion graph of fold trees, labelled by indices into `terms`.
    fold_g: ExpGraph<u32>,
    /// Deferred folds of the current fold-tree expansion.
    terms: Vec<Term>,
    /// [`fold_term`]'s traversal stack.
    stack: Vec<Term>,
    set: MarkedSet,
    heads: Vec<NodeId>,
    roots: Vec<ClusterId>,
    verts: Vec<VertexId>,
}

impl CptScratch {
    /// Combined capacity (in elements) of the batch-sized scratch buffers
    /// — the steady-state zero-allocation tests pin this. The hash-backed
    /// sets are excluded (hashbrown's `capacity()` is a tombstone-dependent
    /// growth budget, not an allocation size), and so are the expansion
    /// graphs' slot tables — they are sized by the *node-id-space*
    /// high-water mark, which legitimately creeps as the arena grows, not
    /// by the batch, and grow O(lg) times total via in-place resizes.
    pub fn high_water(&self) -> usize {
        self.g.high_water()
            + self.fold_g.high_water()
            + self.terms.capacity()
            + self.stack.capacity()
            + self.set.bodies.capacity()
            + self.heads.capacity()
            + self.roots.capacity()
            + self.verts.capacity()
    }

    /// Bottom-up marking of the clusters that contain a mark; collects the
    /// distinct roots reached — pure chases over the arena's dense parent
    /// array. Each newly marked cluster's body (kind + children) is
    /// gathered into the pack here, so the expansion reads marked bodies
    /// from the packed copies: the body load overlaps the independent
    /// parent-chase miss stream instead of sitting on the expansion
    /// recursion's critical path.
    fn mark(&mut self, f: &RcForest, marks: &[VertexId]) {
        // Dedup marks; map to head nodes.
        self.heads.clear();
        self.heads.extend(marks.iter().map(|&v| f.head(v)));
        self.heads.sort_unstable();
        self.heads.dedup();
        let set = &mut self.set;
        set.marked_heads.clear();
        set.marked_heads.extend(self.heads.iter().copied());
        set.marked.clear();
        set.bodies.clear();
        self.roots.clear();
        for &h in &self.heads {
            let mut c = f.leaf_cluster(h);
            loop {
                // Single hash probe per cluster (entry API): this loop runs
                // once per marked cluster per batch, on the insert hot path.
                match set.marked.entry(c) {
                    std::collections::hash_map::Entry::Occupied(_) => {
                        break; // merged into an already-marked path
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(set.bodies.len() as u32);
                    }
                }
                let (kind, children) = f.cluster_kind_children(c);
                set.bodies.push(PackedBody { kind, children });
                let p = f.parent(c);
                if p == NONE_CLUSTER {
                    self.roots.push(c);
                    break;
                }
                c = p;
            }
        }
    }
}

/// Computes the compressed path tree of the forest with respect to `marks`
/// (original vertex ids; duplicates allowed). Components containing no mark
/// contribute nothing. `O(ℓ lg(1 + n/ℓ))` expected work.
///
/// One-shot convenience wrapper over [`compressed_path_tree_with`] for
/// queries and tests; the batch-insert hot path holds a [`CptScratch`] and
/// a reusable [`Cpt`] instead.
pub fn compressed_path_tree(f: &RcForest, marks: &[VertexId]) -> Cpt {
    fold_path_tree::<MaxW>(f, marks)
}

/// [`compressed_path_tree`] into caller-owned buffers: `out` is cleared and
/// filled; `ws` provides every intermediate working set. Zero allocations
/// once both have reached their high-water capacity. The [`MaxW`]
/// instance of [`fold_path_tree_with`].
pub fn compressed_path_tree_with(
    f: &RcForest,
    marks: &[VertexId],
    ws: &mut CptScratch,
    out: &mut Cpt,
) {
    fold_path_tree_with::<MaxW>(f, marks, ws, out);
}

/// The fold tree of `M`: the compressed path tree with respect to `marks`,
/// each edge labelled with the fold of `M` over the path it represents, so
/// the fold between any two marks is the fold over their path in this
/// tree. Vertices, edge order and edges are those of
/// [`compressed_path_tree`] (see the module docs for how labels are read).
/// `O(ℓ lg(1 + n/ℓ))` expected work for `MAX_SUMMARY` monoids, plus the
/// length of the union of the paths between marks for the others.
pub fn fold_path_tree<M: PathMonoid>(f: &RcForest, marks: &[VertexId]) -> Cpt<M::Value> {
    let mut out = Cpt::default();
    fold_path_tree_with::<M>(f, marks, &mut CptScratch::default(), &mut out);
    out
}

/// [`fold_path_tree`] into caller-owned buffers: `out` is cleared and
/// filled; `ws` provides every intermediate working set.
///
/// Trees are expanded sequentially in root discovery order (the previous
/// per-root parallel fan-out allocated a fresh expansion graph per tree;
/// expansion is `O(ℓ)` total, far below the propagation work it feeds, so
/// buffer reuse wins). Output order is deterministic: roots in first-touch
/// order, vertices and edges in expansion order.
pub fn fold_path_tree_with<M: PathMonoid>(
    f: &RcForest,
    marks: &[VertexId],
    ws: &mut CptScratch,
    out: &mut Cpt<M::Value>,
) {
    out.vertices.clear();
    out.edges.clear();
    if marks.is_empty() {
        return;
    }
    ws.mark(f, marks);
    let node_bound = f.node_id_bound();
    // Top-down expansion, one tree per root, into the shared scratch graph.
    for &root in &ws.roots {
        if M::MAX_SUMMARY {
            ws.g.clear(node_bound);
            expand(f, root, &ws.set, &mut ws.g, &mut MaxKeys);
            ws.g.emit(f, &mut ws.verts, out, M::summarize);
        } else {
            ws.fold_g.clear(node_bound);
            ws.terms.clear();
            expand(f, root, &ws.set, &mut ws.fold_g, &mut ws.terms);
            let (terms, stack) = (&ws.terms, &mut ws.stack);
            ws.fold_g.emit(f, &mut ws.verts, out, |t| {
                fold_term::<M>(f, terms, t, stack)
            });
        }
    }
}

/// Fold of `M` over the path between `u` and `v`, or `None` if they are
/// disconnected or equal: the label of the single edge of their 2-mark
/// fold tree. `O(lg n)` expected for `MAX_SUMMARY` monoids,
/// `O(lg n + |path|)` for the others.
pub fn path_fold<M: PathMonoid>(f: &RcForest, u: VertexId, v: VertexId) -> Option<M::Value> {
    if u == v {
        return None;
    }
    let tree = fold_path_tree::<M>(f, &[u, v]);
    debug_assert!(tree.edges.len() <= 1, "2-mark CPT must be a single edge");
    tree.edges.first().map(|e| {
        debug_assert!(
            (e.u == u && e.v == v) || (e.u == v && e.v == u),
            "2-mark CPT edge must join the marks"
        );
        e.key
    })
}

/// Heaviest edge key on the path between `u` and `v`, or `None` if they are
/// disconnected or equal. `O(lg n)` expected: a compressed path tree over
/// two marks is a single edge.
pub fn path_max(f: &RcForest, u: VertexId, v: VertexId) -> Option<WKey> {
    path_fold::<MaxW>(f, u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_msf::ForestPathFold;
    use bimst_primitives::monoid::{Hops, MinW, Pair, SumW};
    use bimst_rctree::naive::NaiveForest;

    fn build_both(n: usize, links: &[(u32, u32, f64, u64)], seed: u64) -> (RcForest, NaiveForest) {
        let mut rc = RcForest::new(n, seed);
        let mut nv = NaiveForest::new(n);
        rc.batch_update(&[], links);
        nv.batch_update(&[], links);
        (rc, nv)
    }

    #[test]
    fn path_max_matches_naive_on_path() {
        let links: Vec<(u32, u32, f64, u64)> = [(0, 1, 5.0), (1, 2, 9.0), (2, 3, 2.0), (3, 4, 7.0)]
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| (u, v, w, i as u64))
            .collect();
        let (rc, nv) = build_both(5, &links, 13);
        for u in 0..5u32 {
            for v in 0..5u32 {
                assert_eq!(path_max(&rc, u, v), nv.path_max(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn path_max_on_star_goes_through_center() {
        // High-degree center: exercises spines/phantom contraction.
        let links: Vec<(u32, u32, f64, u64)> =
            (1..20u32).map(|v| (0, v, v as f64, v as u64)).collect();
        let (rc, nv) = build_both(20, &links, 29);
        for u in 1..20u32 {
            for v in (u + 1)..20u32 {
                assert_eq!(path_max(&rc, u, v), nv.path_max(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn disconnected_gives_none() {
        let (rc, _) = build_both(4, &[(0, 1, 1.0, 0)], 31);
        assert_eq!(path_max(&rc, 0, 2), None);
        assert_eq!(path_max(&rc, 0, 0), None);
        assert_eq!(path_max(&rc, 0, 1).unwrap().w, 1.0);
    }

    #[test]
    fn figure_1_compressed_path_tree() {
        // The exact example of Figure 1 of the paper. We lay out the tree
        // from the figure: gray (marked) vertices A..E and the weighted
        // paths between them. Vertex numbering below follows a left-to-right
        // reading of the figure; what matters is the path weight structure:
        //   A-...-B heaviest 6, A-...-branch 10 side, etc.
        //
        // Figure 1 tree (vertices 0..=17): marked A=0, B=1, C=2, D=3, E=4.
        // Unmarked internal vertices 5..=17. Edges with the figure weights:
        let links: Vec<(u32, u32, f64, u64)> = [
            // A --10-- s1; s1 --2-- s2 ; s2 --5-- B   (A..B path: 10,2,5)
            (0, 5, 10.0),
            (5, 6, 2.0),
            (6, 1, 5.0),
            // s1 --6-- s3 (junction toward C/D/E side)
            (5, 7, 6.0),
            // s3 --3-- s4; s4 --9-- C  (toward C: 3,9)
            (7, 8, 3.0),
            (8, 2, 9.0),
            // s4 --4-- s5; s5 --7-- D  (toward D: 4,7)
            (8, 9, 4.0),
            (9, 3, 7.0),
            // s3 --2(b)-- s6; s6 --12-- s7; s7 --5(b)-- E ... E side: 1,12,5?
            // Figure lists remaining weights 1, 12, 5, 4, 3 on the E branch
            // and dangling (non-path) edges 8, 4, 3.
            (7, 10, 1.0),
            (10, 11, 12.0),
            (11, 4, 3.0),
            // Dangling unmarked subtrees (pruned away entirely):
            (6, 12, 8.0),
            (9, 13, 4.0),
            (11, 14, 5.0),
            (12, 15, 3.0),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(u, v, w))| (u, v, w, i as u64))
        .collect();
        let (rc, nv) = build_both(16, &links, 37);
        let cpt = compressed_path_tree(&rc, &[0, 1, 2, 3, 4]);
        // Compressed path tree on 5 marks: at most 2*5-2 vertices and a
        // tree's worth of edges.
        assert!(cpt.edges.len() <= 8);
        assert!(cpt.vertices.len() <= 8);
        assert_eq!(cpt.edges.len() + 1, cpt.vertices.len(), "CPT is a tree");
        // Every pairwise heaviest-edge query must agree with the naive
        // forest — the defining property of the compressed path tree.
        let pm = bimst_msf::ForestPathMax::new(
            16,
            &cpt.edges
                .iter()
                .map(|e| (e.u, e.v, e.key))
                .collect::<Vec<_>>(),
        );
        for &a in &[0u32, 1, 2, 3, 4] {
            for &b in &[0u32, 1, 2, 3, 4] {
                if a == b {
                    continue;
                }
                assert_eq!(
                    pm.query(a, b).map(|k| k.w),
                    nv.path_max(a, b).map(|k| k.w),
                    "({a},{b})"
                );
            }
        }
        // No unmarked vertex of degree < 3 (the minimality property).
        let marked = [0u32, 1, 2, 3, 4];
        let mut deg: std::collections::HashMap<u32, usize> = Default::default();
        for e in &cpt.edges {
            *deg.entry(e.u).or_default() += 1;
            *deg.entry(e.v).or_default() += 1;
        }
        for &v in &cpt.vertices {
            if !marked.contains(&v) {
                assert!(deg[&v] >= 3, "Steiner vertex {v} has degree {}", deg[&v]);
            }
        }
    }

    #[test]
    fn cpt_size_is_linear_in_marks() {
        // Lemma 3.2: |CPT| = O(ℓ) regardless of n. Random tree, few marks.
        use bimst_primitives::hash::hash2;
        let n = 4000u32;
        let links: Vec<(u32, u32, f64, u64)> = (1..n)
            .map(|v| {
                let u = (hash2(3, v as u64) % v as u64) as u32;
                (u, v, (hash2(4, v as u64) % 1000) as f64, v as u64)
            })
            .collect();
        let mut rc = RcForest::new(n as usize, 41);
        rc.batch_update(&[], &links);
        for l in [2usize, 8, 32, 128] {
            let marks: Vec<u32> = (0..l as u64)
                .map(|i| (hash2(7, i) % n as u64) as u32)
                .collect();
            let cpt = compressed_path_tree(&rc, &marks);
            assert!(
                cpt.vertices.len() <= 2 * l,
                "ℓ={l}: {} vertices",
                cpt.vertices.len()
            );
            assert!(cpt.edges.len() < cpt.vertices.len().max(1));
        }
    }

    #[test]
    fn empty_marks_give_empty_cpt() {
        let (rc, _) = build_both(3, &[(0, 1, 1.0, 0)], 43);
        let cpt = compressed_path_tree(&rc, &[]);
        assert!(cpt.vertices.is_empty() && cpt.edges.is_empty());
    }

    #[test]
    fn single_mark_is_isolated_vertex() {
        let (rc, _) = build_both(3, &[(0, 1, 1.0, 0), (1, 2, 2.0, 1)], 47);
        let cpt = compressed_path_tree(&rc, &[1]);
        assert_eq!(cpt.vertices, vec![1]);
        assert!(cpt.edges.is_empty());
    }

    #[test]
    fn marks_in_separate_components() {
        let (rc, _) = build_both(4, &[(0, 1, 1.0, 0), (2, 3, 2.0, 1)], 53);
        let cpt = compressed_path_tree(&rc, &[0, 1, 2]);
        // Two trees: edge (0,1) and isolated vertex 2.
        assert_eq!(cpt.edges.len(), 1);
        assert_eq!(cpt.vertices.len(), 3);
    }

    #[test]
    fn cpt_key_ids_name_real_edges() {
        // The key.id on every CPT edge must identify a live forest edge with
        // that exact weight — Algorithm 2 cuts by these ids.
        let links: Vec<(u32, u32, f64, u64)> = [(0, 1, 5.0), (1, 2, 9.0), (2, 3, 2.0)]
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| (u, v, w, 100 + i as u64))
            .collect();
        let (rc, _) = build_both(4, &links, 59);
        let cpt = compressed_path_tree(&rc, &[0, 3]);
        assert_eq!(cpt.edges.len(), 1);
        let e = cpt.edges[0];
        assert_eq!(e.key.id, 101); // the weight-9 edge
        let (u, v, k) = rc.edge_info(e.key.id).unwrap();
        assert_eq!((u, v), (1, 2));
        assert_eq!(k, e.key);
    }

    /// The fold tree of `Pair<MaxW, M>` over `marks`: its shape and key
    /// components are the paper's tree exactly (vertices, edge order,
    /// keys), every edge's `(key, value)` equals the binary-lifting oracle
    /// over the forest's real edges between its endpoints, and the
    /// unpaired `M` tree carries the same values.
    fn assert_fold_tree<M: PathMonoid>(rc: &RcForest, marks: &[u32]) {
        let cpt = compressed_path_tree(rc, marks);
        let edges: Vec<_> = rc.iter_edges().map(|(_, u, v, k)| (u, v, k)).collect();
        let oracle = ForestPathFold::<Pair<MaxW, M>>::new(rc.num_vertices(), &edges);
        let tree = fold_path_tree::<Pair<MaxW, M>>(rc, marks);
        assert_eq!(tree.vertices, cpt.vertices, "marks {marks:?}");
        let keys: Vec<CptEdge> = tree
            .edges
            .iter()
            .map(|e| CptEdge {
                u: e.u,
                v: e.v,
                key: e.key.0,
            })
            .collect();
        assert_eq!(keys, cpt.edges, "marks {marks:?}");
        for e in &tree.edges {
            assert_eq!(Some(e.key), oracle.query(e.u, e.v), "({}, {})", e.u, e.v);
        }
        let plain = fold_path_tree::<M>(rc, marks);
        assert_eq!(plain.vertices, cpt.vertices);
        let values: Vec<_> = tree.edges.iter().map(|e| (e.u, e.v, e.key.1)).collect();
        let plain: Vec<_> = plain.edges.iter().map(|e| (e.u, e.v, e.key)).collect();
        assert_eq!(plain, values, "marks {marks:?}");
    }

    /// [`assert_fold_tree`] for every non-max instance (`SumW` is exact:
    /// every fixture has integer weights), plus the `MaxW` instance against
    /// the paper's tree.
    fn assert_fold_trees(rc: &RcForest, marks: &[u32]) {
        assert_fold_tree::<MinW>(rc, marks);
        assert_fold_tree::<SumW>(rc, marks);
        assert_fold_tree::<Hops>(rc, marks);
        assert_fold_tree::<Pair<MaxW, Hops>>(rc, marks);
        let max = fold_path_tree::<MaxW>(rc, marks);
        let cpt = compressed_path_tree(rc, marks);
        assert_eq!((max.vertices, max.edges), (cpt.vertices, cpt.edges));
    }

    /// `marks` distinct pseudo-random vertices of `0..n` (duplicates are
    /// kept: the tree must dedup them).
    fn random_marks(n: u32, l: u64, seed: u64) -> Vec<u32> {
        use bimst_primitives::hash::hash2;
        (0..l).map(|i| (hash2(seed, i) % n as u64) as u32).collect()
    }

    #[test]
    fn fold_tree_on_a_star_counts_real_edges_only() {
        // A degree-40 centre is ternarized into a spine of phantom edges;
        // every leaf-to-leaf path crosses part of it.
        let links: Vec<(u32, u32, f64, u64)> = (1..41u32)
            .map(|v| (0, v, ((v * 37) % 41) as f64, v as u64))
            .collect();
        let (rc, _) = build_both(41, &links, 61);
        let leaves: Vec<u32> = (1..41).collect();
        for marks in [&leaves[..], &leaves[..2], &[3, 17, 40], &[0, 5, 9, 33]] {
            assert_fold_trees(&rc, marks);
        }
        // Spine edges add nothing: a leaf is one hop from the centre and
        // two from any other leaf.
        let tree = fold_path_tree::<Hops>(&rc, &leaves);
        assert!(tree.edges.iter().all(|e| e.key == 1), "{:?}", tree.edges);
        for a in 1..41u32 {
            assert_eq!(path_fold::<Hops>(&rc, a, 0), Some(1));
            let b = a % 40 + 1;
            assert_eq!(path_fold::<Hops>(&rc, a, b), Some(2));
            assert_eq!(
                path_fold::<SumW>(&rc, a, b),
                Some(((a * 37) % 41 + (b * 37) % 41) as f64)
            );
        }
    }

    #[test]
    fn fold_tree_on_a_deep_path() {
        // 2^12 vertices in a line: binary clusters nest ~lg n deep, and a
        // 2-mark tree's edge folds thousands of leaf edges.
        use bimst_primitives::hash::hash2;
        let n = 1u32 << 12;
        let links: Vec<(u32, u32, f64, u64)> = (1..n)
            .map(|v| (v - 1, v, (hash2(5, v as u64) % 1000) as f64, v as u64))
            .collect();
        let mut rc = RcForest::new(n as usize, 67);
        rc.batch_update(&[], &links);
        assert_fold_trees(&rc, &[0, n - 1]);
        for (l, seed) in [(2, 1), (8, 2), (64, 3)] {
            assert_fold_trees(&rc, &random_marks(n, l, seed));
        }
        assert_eq!(path_fold::<Hops>(&rc, 0, n - 1), Some(u64::from(n - 1)));
        assert_eq!(path_fold::<Hops>(&rc, 17, 4000), Some(4000 - 17));
    }

    #[test]
    fn fold_tree_on_random_forests_with_tied_weights() {
        // Each vertex links to a random earlier one unless the hash skips
        // it (a new component); weights in 0..4 tie constantly, ids break
        // the ties.
        use bimst_primitives::hash::hash2;
        for seed in 0..6u64 {
            let n = 300u32;
            let links: Vec<(u32, u32, f64, u64)> = (1..n)
                .filter(|&v| !hash2(seed, 3 * v as u64).is_multiple_of(7))
                .map(|v| {
                    let u = (hash2(seed, 3 * v as u64 + 1) % v as u64) as u32;
                    let w = (hash2(seed, 3 * v as u64 + 2) % 4) as f64;
                    (u, v, w, 1000 + v as u64)
                })
                .collect();
            let (rc, _) = build_both(n as usize, &links, 71 + seed);
            assert!(rc.num_components() > 10);
            for l in [1, 2, 5, 17, 60, 300] {
                assert_fold_trees(&rc, &random_marks(n, l, seed * 100 + l));
            }
        }
    }
}
