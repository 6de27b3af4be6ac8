//! The RC tree node arena.
//!
//! Every node of the RC tree is a *cluster*: a connected subset of vertices
//! and edges of the (ternarized) base forest. Leaves are single vertices or
//! single edges; internal nodes are formed when their *representative* vertex
//! is deleted by the contraction:
//!
//! * a **unary** cluster when the representative *rakes* (one boundary
//!   vertex),
//! * a **binary** cluster when it *compresses* (two boundary vertices; the
//!   cluster acts as a superedge in later rounds and carries the heaviest
//!   edge key on the boundary-to-boundary path),
//! * a **root** (nullary) cluster when it *finalizes* (one per component).
//!
//! Fan-in is bounded by 6 (representative's leaf + ≤3 raked-in unary
//! clusters + ≤2 edge clusters) thanks to ternarization — the property the
//! compressed-path-tree traversal charges its work against.
//!
//! # Memory layout
//!
//! The arena is a chunked structure-of-arrays
//! ([`bimst_primitives::soa`]): two parallel [`ChunkedArena`]s share one
//! id space, split by access *pattern* rather than field by field.
//!
//! * `parents` — the **chase** array: root-finding
//!   ([`crate::contract::Engine::root_from`]) and the CPT's bottom-up
//!   marking walk parent pointers and read nothing else. As a bare `u32`
//!   array, sixteen clusters share a cache line instead of the whole
//!   record's one — the whole point of the split.
//! * `bodies` (kind, children, size, liveness) — the **record** array:
//!   everything else touches a cluster to allocate it, free it, or expand
//!   it, and those paths read/write several of these fields *together*
//!   (alloc writes all of them; `ExpandCluster` reads kind + children).
//!   Splitting them further would turn each such touch into several
//!   random-line loads for no reader's benefit.
//!
//! A body is exactly **64 bytes** — one cache line, asserted at compile
//! time: 32 for the kind, 28 for the inline children, 4 for the size word.
//! Liveness is bit 31 of that word (`ALIVE_BIT`) rather than a separate
//! `bool`, which would pad the record to 72 bytes. A size counts original
//! vertices, so it is at most `n`, and engine construction
//! ([`crate::contract::Engine::with_singletons`]) asserts `n < 2³¹`.
//!
//! Chunked storage means arena growth allocates one fixed-size chunk and
//! never copies — see the [`bimst_primitives::soa`] module docs for why
//! that matters at the 100 MB scale.

use bimst_primitives::{AVec, ChunkedArena, WKey};

/// Index of a cluster in the arena.
pub type ClusterId = u32;

/// Sentinel for "no cluster".
pub const NONE_CLUSTER: ClusterId = u32::MAX;

/// Maximum number of children of an RC tree node (see module docs).
pub const MAX_CHILDREN: usize = 6;

/// A node id of the ternarized forest (defined in [`crate::forest`]).
pub type NodeId = u32;

/// What a cluster is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClusterKind {
    /// A single base vertex (head or phantom).
    LeafVertex {
        /// The base-forest node.
        node: NodeId,
    },
    /// A single base edge; `key` is phantom for spine edges.
    LeafEdge {
        /// One endpoint (base-forest node).
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Weight key; `WKey::phantom()` for spine edges.
        key: WKey,
    },
    /// Formed by a rake: one boundary vertex.
    Unary {
        /// The deleted (representative) vertex.
        rep: NodeId,
        /// The single boundary vertex (the rake target).
        boundary: NodeId,
    },
    /// Formed by a compress: two boundary vertices; acts as a superedge.
    /// Its last two children are the edge-role clusters (leaf edges or
    /// binary clusters) joining the representative to each boundary, so
    /// its boundary path is theirs concatenated — the descent a
    /// compressed path tree's non-max folds take.
    Binary {
        /// The deleted (representative) vertex.
        rep: NodeId,
        /// The two boundary vertices.
        bound: (NodeId, NodeId),
        /// Heaviest edge key on the path between the boundaries.
        key: WKey,
    },
    /// Formed by a finalize: the root cluster of a component.
    Root {
        /// The last vertex of the component to be deleted.
        rep: NodeId,
    },
}

impl Default for ClusterKind {
    fn default() -> Self {
        ClusterKind::LeafVertex { node: u32::MAX }
    }
}

impl ClusterKind {
    /// The representative vertex, if this is a composite cluster.
    pub fn rep(&self) -> Option<NodeId> {
        match *self {
            ClusterKind::LeafVertex { .. } | ClusterKind::LeafEdge { .. } => None,
            ClusterKind::Unary { rep, .. }
            | ClusterKind::Binary { rep, .. }
            | ClusterKind::Root { rep } => Some(rep),
        }
    }

    /// Boundary vertices of the cluster (0, 1, or 2 of them).
    pub fn boundary(&self) -> AVec<NodeId, 2> {
        let mut b = AVec::new();
        match *self {
            ClusterKind::LeafVertex { .. } | ClusterKind::Root { .. } => {}
            ClusterKind::LeafEdge { a, b: bb, .. } => {
                b.push(a);
                b.push(bb);
            }
            ClusterKind::Unary { boundary, .. } => b.push(boundary),
            ClusterKind::Binary { bound, .. } => {
                b.push(bound.0);
                b.push(bound.1);
            }
        }
        b
    }

    /// For edge-role clusters (leaf edges and binary clusters), the heaviest
    /// edge key on the path between the two boundaries.
    pub fn edge_key(&self) -> Option<WKey> {
        match *self {
            ClusterKind::LeafEdge { key, .. } | ClusterKind::Binary { key, .. } => Some(key),
            _ => None,
        }
    }
}

/// Liveness flag inside [`ClusterBody::size_alive`]; the low 31 bits are
/// the size (see the module docs, *Memory layout*).
const ALIVE_BIT: u32 = 1 << 31;

/// Largest representable cluster size (vertex count).
pub(crate) const MAX_CLUSTER_SIZE: u32 = ALIVE_BIT - 1;

/// The record half of a cluster (everything but the parent pointer — see
/// the module docs, *Memory layout*).
#[derive(Clone, Copy, Debug, Default)]
struct ClusterBody {
    kind: ClusterKind,
    children: AVec<ClusterId, MAX_CHILDREN>,
    /// Size in the low 31 bits, liveness in [`ALIVE_BIT`].
    size_alive: u32,
}

const _: () = assert!(std::mem::size_of::<ClusterBody>() == 64);

impl ClusterBody {
    #[inline]
    fn size(&self) -> u32 {
        self.size_alive & !ALIVE_BIT
    }

    #[inline]
    fn alive(&self) -> bool {
        self.size_alive & ALIVE_BIT != 0
    }
}

/// A by-value view of one RC tree node, assembled from the arena's parallel
/// arrays. For cold paths (pretty-printing, invariant checks) that want the
/// whole record; hot paths use the per-field accessors instead so they only
/// load the arrays they need.
#[derive(Clone, Copy, Debug)]
pub struct Cluster {
    /// What the cluster is.
    pub kind: ClusterKind,
    /// Child clusters (disjoint union equals this cluster). Empty for leaves.
    pub children: AVec<ClusterId, MAX_CHILDREN>,
    /// Parent cluster, or [`NONE_CLUSTER`] for roots / freed nodes.
    pub parent: ClusterId,
    /// Liveness (arena slots are reused via a free list).
    pub alive: bool,
    /// Number of *original* vertices in the cluster (heads count 1,
    /// phantoms and edges 0) — so a root cluster's size is its component's
    /// vertex count. Maintained compositionally: a composite cluster's size
    /// is the sum of its children's.
    pub size: u32,
}

/// The cluster arena with deferred frees (see the module docs for the
/// chunked-SoA layout).
///
/// Frees during a batch update are *deferred*: a freed id must not be reused
/// while stale references may still be visited by the propagation, so freed
/// slots are quarantined until [`ClusterArena::flush_frees`] at the end of
/// the batch. Flushed slots are recycled in **ascending id order**, so the
/// id assignment — and with it live-cluster iteration order — after heavy
/// churn depends only on *which* slots are free, not on the order the
/// propagation happened to free them in (the same canonicalization as
/// `InsertResult.evicted`).
#[derive(Default)]
pub struct ClusterArena {
    bodies: ChunkedArena<ClusterBody>,
    parents: ChunkedArena<ClusterId>,
    /// Reusable slots, kept sorted descending so `pop` yields the smallest.
    free: Vec<ClusterId>,
    pending_free: Vec<ClusterId>,
    /// Reusable merge buffer for [`ClusterArena::flush_frees`].
    merge_buf: Vec<ClusterId>,
    /// Number of live root clusters (= number of components).
    pub num_roots: usize,
}

impl ClusterArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a cluster with the given kind and children; parents of the
    /// children are *not* set here (the contraction engine sets them).
    pub fn alloc(
        &mut self,
        kind: ClusterKind,
        children: AVec<ClusterId, MAX_CHILDREN>,
    ) -> ClusterId {
        if matches!(kind, ClusterKind::Root { .. }) {
            self.num_roots += 1;
        }
        let size: u32 = children
            .iter()
            .map(|ch| self.bodies[ch as usize].size())
            .sum();
        debug_assert!(size <= MAX_CLUSTER_SIZE, "cluster size {size} overflows");
        let body = ClusterBody {
            kind,
            children,
            size_alive: size | ALIVE_BIT,
        };
        if let Some(id) = self.free.pop() {
            let i = id as usize;
            self.bodies[i] = body;
            self.parents[i] = NONE_CLUSTER;
            id
        } else {
            let id = self.bodies.push(body);
            self.parents.push(NONE_CLUSTER);
            id as ClusterId
        }
    }

    /// Marks a cluster dead. The slot is reused only after
    /// [`ClusterArena::flush_frees`]. Children whose parent pointer still
    /// points here are orphaned (their parent becomes [`NONE_CLUSTER`]);
    /// children that were already re-parented are left alone.
    pub fn free(&mut self, id: ClusterId) {
        let i = id as usize;
        debug_assert!(self.bodies[i].alive(), "double free of cluster {id}");
        if matches!(self.bodies[i].kind, ClusterKind::Root { .. }) {
            self.num_roots -= 1;
        }
        self.bodies[i].size_alive &= !ALIVE_BIT;
        self.parents[i] = NONE_CLUSTER;
        let children = self.bodies[i].children;
        for ch in children.iter() {
            if self.parents[ch as usize] == id {
                self.parents[ch as usize] = NONE_CLUSTER;
            }
        }
        self.pending_free.push(id);
    }

    /// Releases quarantined slots for reuse. Call once per batch, after the
    /// propagation has finished. The merged free list stays sorted
    /// descending (so `Vec::pop` hands out ascending ids), keeping slot
    /// assignment independent of the batch's free order. Only the pending
    /// batch is sorted — O(P lg P) — and merged with the already-sorted
    /// free list in O(F + P); re-sorting the whole list would make every
    /// small batch after a mass eviction pay O(F lg F).
    pub fn flush_frees(&mut self) {
        merge_sorted_frees(&mut self.free, &mut self.pending_free, &mut self.merge_buf);
    }

    /// The kind of a cluster.
    #[inline]
    pub fn kind(&self, id: ClusterId) -> &ClusterKind {
        &self.bodies[id as usize].kind
    }

    /// The children of a cluster.
    #[inline]
    pub fn children(&self, id: ClusterId) -> &AVec<ClusterId, MAX_CHILDREN> {
        &self.bodies[id as usize].children
    }

    /// The kind and children of a cluster in **one** record read. The CPT's
    /// bottom-up marking walk gathers marked bodies through this while it
    /// chases the parent array, so the top-down expansion reads packed
    /// copies instead of returning to the record array cluster by cluster
    /// (see `bimst-core`'s CPT packing).
    #[inline]
    pub fn kind_children(&self, id: ClusterId) -> (ClusterKind, AVec<ClusterId, MAX_CHILDREN>) {
        let b = &self.bodies[id as usize];
        (b.kind, b.children)
    }

    /// The parent of a cluster, [`NONE_CLUSTER`] for roots (chase array
    /// only — see the module docs).
    #[inline]
    pub fn parent(&self, id: ClusterId) -> ClusterId {
        self.parents[id as usize]
    }

    /// Re-parents a cluster.
    #[inline]
    pub fn set_parent(&mut self, id: ClusterId, p: ClusterId) {
        self.parents[id as usize] = p;
    }

    /// Number of original vertices in the cluster.
    #[inline]
    pub fn size(&self, id: ClusterId) -> u32 {
        self.bodies[id as usize].size()
    }

    /// Overrides a cluster's size (leaf vertices: heads 1, phantoms 0).
    #[inline]
    pub fn set_size(&mut self, id: ClusterId, size: u32) {
        assert!(size <= MAX_CLUSTER_SIZE, "cluster size {size} overflows");
        let b = &mut self.bodies[id as usize];
        b.size_alive = (b.size_alive & ALIVE_BIT) | size;
    }

    /// Whether the slot holds a live cluster.
    #[inline]
    pub fn alive(&self, id: ClusterId) -> bool {
        self.bodies[id as usize].alive()
    }

    /// Assembles the whole record by value (cold paths; hot paths use the
    /// per-field accessors).
    pub fn get(&self, id: ClusterId) -> Cluster {
        let i = id as usize;
        let b = &self.bodies[i];
        Cluster {
            kind: b.kind,
            children: b.children,
            parent: self.parents[i],
            alive: b.alive(),
            size: b.size(),
        }
    }

    /// Number of slots (live + dead); ids are `< len()`.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the arena has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Iterates over the ids of live clusters in ascending order.
    pub fn iter_live_ids(&self) -> impl Iterator<Item = ClusterId> + '_ {
        (0..self.len() as ClusterId).filter(move |&id| self.bodies[id as usize].alive())
    }
}

/// Merges `pending` (unsorted) into `free` (sorted descending), leaving
/// `free` sorted descending, `pending` empty, and `buf` as the retained
/// scratch. Shared by the cluster arena and the engine's node free list.
pub(crate) fn merge_sorted_frees(free: &mut Vec<u32>, pending: &mut Vec<u32>, buf: &mut Vec<u32>) {
    if pending.is_empty() {
        return;
    }
    pending.sort_unstable_by(|a, b| b.cmp(a));
    if free.is_empty() {
        std::mem::swap(free, pending);
        return;
    }
    buf.clear();
    buf.reserve(free.len() + pending.len());
    let (mut i, mut j) = (0, 0);
    while i < free.len() && j < pending.len() {
        if free[i] >= pending[j] {
            buf.push(free[i]);
            i += 1;
        } else {
            buf.push(pending[j]);
            j += 1;
        }
    }
    buf.extend_from_slice(&free[i..]);
    buf.extend_from_slice(&pending[j..]);
    pending.clear();
    std::mem::swap(free, buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_reuse_cycle() {
        let mut a = ClusterArena::new();
        let c0 = a.alloc(ClusterKind::LeafVertex { node: 0 }, AVec::new());
        let c1 = a.alloc(ClusterKind::Root { rep: 0 }, AVec::new());
        assert_eq!(a.num_roots, 1);
        a.free(c1);
        assert_eq!(a.num_roots, 0);
        // Not reusable before flush.
        let c2 = a.alloc(ClusterKind::LeafVertex { node: 1 }, AVec::new());
        assert_ne!(c2, c1);
        a.flush_frees();
        let c3 = a.alloc(ClusterKind::LeafVertex { node: 2 }, AVec::new());
        assert_eq!(c3, c1, "freed slot should be reused after flush");
        assert!(a.alive(c0));
    }

    #[test]
    fn boundary_shapes() {
        let uk = ClusterKind::Unary {
            rep: 3,
            boundary: 7,
        };
        assert_eq!(uk.boundary().as_slice(), &[7]);
        let bk = ClusterKind::Binary {
            rep: 1,
            bound: (4, 5),
            key: WKey::new(2.0, 9),
        };
        assert_eq!(bk.boundary().as_slice(), &[4, 5]);
        assert_eq!(bk.edge_key().unwrap(), WKey::new(2.0, 9));
        assert!(ClusterKind::Root { rep: 0 }.boundary().is_empty());
    }

    #[test]
    fn root_counting() {
        let mut a = ClusterArena::new();
        let r1 = a.alloc(ClusterKind::Root { rep: 0 }, AVec::new());
        let _r2 = a.alloc(ClusterKind::Root { rep: 1 }, AVec::new());
        assert_eq!(a.num_roots, 2);
        a.free(r1);
        assert_eq!(a.num_roots, 1);
    }

    #[test]
    fn frees_recycle_in_ascending_id_order() {
        // Free a churny set in *descending* order; allocation after the
        // flush must still hand back ascending ids — the recycling order
        // depends on the free *set*, not on the free *sequence*.
        let mut a = ClusterArena::new();
        let ids: Vec<ClusterId> = (0..8)
            .map(|i| a.alloc(ClusterKind::LeafVertex { node: i }, AVec::new()))
            .collect();
        for &id in [ids[6], ids[2], ids[4]].iter() {
            a.free(id);
        }
        a.flush_frees();
        assert_eq!(
            a.alloc(ClusterKind::LeafVertex { node: 90 }, AVec::new()),
            ids[2]
        );
        assert_eq!(
            a.alloc(ClusterKind::LeafVertex { node: 91 }, AVec::new()),
            ids[4]
        );
        assert_eq!(
            a.alloc(ClusterKind::LeafVertex { node: 92 }, AVec::new()),
            ids[6]
        );
        // A second churn round interleaving old and new frees keeps the
        // ascending discipline across flushes.
        a.free(ids[5]);
        a.free(ids[1]);
        a.flush_frees();
        assert_eq!(
            a.alloc(ClusterKind::LeafVertex { node: 93 }, AVec::new()),
            ids[1]
        );
        assert_eq!(
            a.alloc(ClusterKind::LeafVertex { node: 94 }, AVec::new()),
            ids[5]
        );
    }
}
