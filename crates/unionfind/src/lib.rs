//! Work-efficient parallel union-find and batch incremental connectivity.
//!
//! The paper's §5.7 derives its incremental-setting bounds from the
//! work-efficient parallel union-find of Simsiri, Tangwongsan, Tirthapura
//! and Wu (reference \[46\]): batch edge insertion in `O(ℓ α(n))` expected
//! work, queries in `O(α(n))`.
//!
//! This crate provides:
//!
//! * [`UnionFind`] — a sequential union-find with union by rank and path
//!   splitting (the textbook `α(n)` structure).
//! * [`ConcurrentUnionFind`] — a lock-free union-find (CAS hooking in the
//!   style of Jayanti–Tarjan) whose `unite`/`same_set` can be called from
//!   many rayon workers at once.
//! * [`BatchConnectivity`] — the \[46\]-shaped interface: batch insert that
//!   also reports which edges joined two previously separate components
//!   (those are exactly the new spanning-forest edges — the role Gazit's
//!   algorithm plays in the paper's §5.7 analog of `SW-Conn-Eager`).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

/// Sequential union-find with union by rank and path splitting.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Re-initializes to `n` singleton sets, reusing the existing buffers.
    /// Zero allocations once `n` fits the high-water capacity — the batch
    /// hot paths reset a cached instance instead of building a new one.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.components = n;
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Read-only find (no path compression).
    pub fn find_const(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were separate.
    pub fn unite(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same_set(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// High-water capacity of the element buffer (for steady-state
    /// allocation tests).
    pub fn capacity(&self) -> usize {
        self.parent.capacity()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// Lock-free concurrent union-find.
///
/// Parents are stored in `AtomicU64` cells packing `(rank, parent)` so a
/// rank bump and a parent swing are each a single CAS. `find` performs
/// lock-free path halving. `unite` is linearizable (Jayanti–Tarjan style
/// hooking); `same_set` is correct with respect to all unions that
/// happened-before it.
pub struct ConcurrentUnionFind {
    /// Packed `(rank : u16 << 48) | parent : u48`.
    cells: Vec<AtomicU64>,
}

const PARENT_MASK: u64 = (1 << 48) - 1;

impl ConcurrentUnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n < (1usize << 48), "too many elements");
        ConcurrentUnionFind {
            cells: (0..n as u64).map(AtomicU64::new).collect(),
        }
    }

    #[inline]
    fn parent(cell: u64) -> u64 {
        cell & PARENT_MASK
    }

    #[inline]
    fn rank(cell: u64) -> u64 {
        cell >> 48
    }

    /// Representative of `x`'s set (lock-free, path halving).
    pub fn find(&self, mut x: u64) -> u64 {
        loop {
            let cx = self.cells[x as usize].load(Ordering::Acquire);
            let p = Self::parent(cx);
            if p == x {
                return x;
            }
            let cp = self.cells[p as usize].load(Ordering::Acquire);
            let gp = Self::parent(cp);
            if gp != p {
                // Halve: x -> grandparent. Failure is benign.
                let _ = self.cells[x as usize].compare_exchange_weak(
                    cx,
                    (cx & !PARENT_MASK) | gp,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
            x = p;
        }
    }

    /// Merges the sets of `a` and `b`; returns true if this call united two
    /// previously separate sets.
    pub fn unite(&self, a: u64, b: u64) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return false;
            }
            let ca = self.cells[ra as usize].load(Ordering::Acquire);
            let cb = self.cells[rb as usize].load(Ordering::Acquire);
            // Re-validate that ra/rb are still roots.
            if Self::parent(ca) != ra || Self::parent(cb) != rb {
                continue;
            }
            let (root_hi, root_lo, c_hi, c_lo) = match Self::rank(ca).cmp(&Self::rank(cb)) {
                std::cmp::Ordering::Greater => (ra, rb, ca, cb),
                std::cmp::Ordering::Less => (rb, ra, cb, ca),
                // Equal ranks: id breaks the tie; bump the winner's rank.
                std::cmp::Ordering::Equal => {
                    if ra > rb {
                        (ra, rb, ca, cb)
                    } else {
                        (rb, ra, cb, ca)
                    }
                }
            };
            // Swing the loser under the winner.
            if self.cells[root_lo as usize]
                .compare_exchange(
                    c_lo,
                    (c_lo & !PARENT_MASK) | root_hi,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_err()
            {
                continue;
            }
            // Rank bump on ties (best-effort; failure only costs balance).
            if Self::rank(c_hi) == Self::rank(c_lo) {
                let _ = self.cells[root_hi as usize].compare_exchange(
                    c_hi,
                    ((Self::rank(c_hi) + 1) << 48) | root_hi,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
            return true;
        }
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn same_set(&self, a: u64, b: u64) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            // `ra` must still be a root for "different" to be a stable
            // answer; retry if a concurrent unite moved it.
            if Self::parent(self.cells[ra as usize].load(Ordering::Acquire)) == ra {
                return false;
            }
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Batch incremental connectivity in the shape of the paper's §5.7:
/// batch inserts that report new spanning-forest edges, `O(1)` component
/// counting, and `α(n)`-time queries.
pub struct BatchConnectivity {
    uf: ConcurrentUnionFind,
    components: usize,
}

impl BatchConnectivity {
    /// `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        BatchConnectivity {
            uf: ConcurrentUnionFind::new(n),
            components: n,
        }
    }

    /// Inserts a batch of edges in parallel. Returns the indices (into
    /// `edges`) of those that united two previously separate components —
    /// the new spanning-forest edges, in the role of Gazit's algorithm in
    /// the paper's §5.7.
    pub fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Vec<usize> {
        let uf = &self.uf;
        let joined: Vec<usize> = if edges.len() >= 2048 {
            edges
                .par_iter()
                .enumerate()
                .filter(|&(_, &(u, v))| u != v && uf.unite(u as u64, v as u64))
                .map(|(i, _)| i)
                .collect()
        } else {
            edges
                .iter()
                .enumerate()
                .filter(|&(_, &(u, v))| u != v && uf.unite(u as u64, v as u64))
                .map(|(i, _)| i)
                .collect()
        };
        self.components -= joined.len();
        joined
    }

    /// Whether `u` and `v` are connected.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.uf.same_set(u as u64, v as u64)
    }

    /// Number of connected components, `O(1)`.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.uf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_basic() {
        let mut uf = UnionFind::new(5);
        assert!(uf.unite(0, 1));
        assert!(uf.unite(1, 2));
        assert!(!uf.unite(0, 2));
        assert!(uf.same_set(0, 2));
        assert!(!uf.same_set(0, 3));
        assert_eq!(uf.num_components(), 3);
    }

    #[test]
    fn concurrent_matches_sequential() {
        use bimst_primitives::hash::hash2;
        let n = 2000u32;
        let edges: Vec<(u32, u32)> = (0..6000u64)
            .map(|i| {
                (
                    (hash2(1, i) % n as u64) as u32,
                    (hash2(2, i) % n as u64) as u32,
                )
            })
            .collect();
        let cuf = ConcurrentUnionFind::new(n as usize);
        edges.par_iter().for_each(|&(u, v)| {
            if u != v {
                cuf.unite(u as u64, v as u64);
            }
        });
        let mut suf = UnionFind::new(n as usize);
        for &(u, v) in &edges {
            if u != v {
                suf.unite(u, v);
            }
        }
        for i in 0..n {
            for j in [(i + 1) % n, (i * 7 + 3) % n] {
                assert_eq!(
                    cuf.same_set(i as u64, j as u64),
                    suf.same_set(i, j),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn concurrent_unite_counts_exactly_once() {
        // Many threads racing to unite the same pair: exactly one wins.
        use std::sync::atomic::AtomicUsize;
        let uf = ConcurrentUnionFind::new(2);
        let wins = AtomicUsize::new(0);
        (0..64).into_par_iter().for_each(|_| {
            if uf.unite(0, 1) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn racing_chain_unions_preserve_component_count() {
        // 1024 racing unions along a path; every one must report joined
        // exactly once in total (the path has exactly n-1 forest edges).
        use std::sync::atomic::AtomicUsize;
        let n = 1025u64;
        let uf = ConcurrentUnionFind::new(n as usize);
        let wins = AtomicUsize::new(0);
        (0..n - 1).into_par_iter().for_each(|i| {
            if uf.unite(i, i + 1) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), (n - 1) as usize);
        assert!(uf.same_set(0, n - 1));
    }

    #[test]
    fn batch_connectivity_reports_forest_edges() {
        let mut bc = BatchConnectivity::new(6);
        let joined = bc.batch_insert(&[(0, 1), (1, 2), (0, 2), (3, 4)]);
        // Exactly one of the triangle edges is redundant.
        assert_eq!(joined.len(), 3);
        assert_eq!(bc.num_components(), 3); // {0,1,2}, {3,4}, {5}
        assert!(bc.connected(0, 2));
        assert!(!bc.connected(2, 3));
    }

    #[test]
    fn batch_connectivity_large_parallel() {
        let n = 100_000;
        let mut bc = BatchConnectivity::new(n);
        // A path inserted as one big batch: n-1 forest edges.
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let joined = bc.batch_insert(&edges);
        assert_eq!(joined.len(), n - 1);
        assert_eq!(bc.num_components(), 1);
        // Re-inserting is all cycles.
        let joined = bc.batch_insert(&edges);
        assert!(joined.is_empty());
        assert_eq!(bc.num_components(), 1);
    }

    #[test]
    fn self_loops_ignored() {
        let mut bc = BatchConnectivity::new(3);
        let joined = bc.batch_insert(&[(1, 1), (0, 1)]);
        assert_eq!(joined, vec![1]);
        assert_eq!(bc.num_components(), 2);
    }
}
