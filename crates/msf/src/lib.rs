//! Static minimum spanning forest algorithms.
//!
//! Algorithm 2 of the paper computes the MSF of the `O(ℓ)`-edge graph
//! `C ∪ E⁺` (compressed path trees plus the inserted batch). The paper
//! invokes the expected-linear-work algorithm of Cole, Klein and Tarjan
//! \[12\] (the parallel counterpart of Karger–Klein–Tarjan \[37\]); this crate
//! provides that ([`kkt_msf`]) along with two classical baselines used both
//! as the default inner solver and in the ablation benchmark (experiment E5
//! in the README's "Reproducing the paper" table):
//!
//! * [`kruskal()`](kruskal::kruskal) — parallel sort + sequential union-find scan,
//!   `O(m lg m)` work. The default for the inner MSF: on `O(ℓ)` edges the
//!   extra `lg ℓ` never exceeds the `lg(1 + n/ℓ)` budget except when
//!   `ℓ ≈ n`, and the constant factor is excellent.
//! * [`boruvka()`](boruvka::boruvka) — parallel Borůvka rounds, `O(m lg n)` work, low span.
//! * [`kkt_msf`] — random-sampling MSF: Borůvka contraction + sample +
//!   recursive filter, expected linear work.
//!
//! All functions return the **indices** into the input edge slice that form
//! the (unique, by [`WKey`] tie-breaking) minimum spanning forest.
//!
//! [`verify::ForestPathFold`] supports F-light/F-heavy filtering (the KKT
//! verification step, via its [`verify::ForestPathMax`] instantiation) and
//! doubles as the `O(lg n)` static path-fold oracle the query engine (over
//! compressed path trees) and test suites use for arbitrary
//! [`bimst_primitives::monoid::PathMonoid`] statistics. The [`offline`]
//! passes answer a whole batch with no per-query tree walk — the query
//! engine's plans for batches that cover the forest:
//! [`offline::KruskalPathMax`] for path-max in one Kruskal-order union
//! pass, [`offline::OfflinePathFold`] for any other fold in one offline
//! path-evaluation sweep.

#![forbid(unsafe_code)]

pub mod boruvka;
pub mod kkt;
pub mod kruskal;
pub mod offline;
pub mod verify;

pub use boruvka::{boruvka, boruvka_with, BoruvkaScratch};
pub use kkt::kkt_msf;
pub use kruskal::{kruskal, kruskal_with};
pub use offline::{KruskalPathMax, OfflinePathFold};
pub use verify::{ForestPathFold, ForestPathMax};

use bimst_primitives::WKey;
use bimst_unionfind::UnionFind;

/// Reusable working sets for the scratch-aware entry points
/// ([`kruskal_with`] / [`msf_with`]). Default-constructing is `O(1)`;
/// resetting an existing instance reuses its buffers, which is what keeps
/// `BatchMsf::batch_insert` allocation-free in steady state.
pub struct MsfScratch {
    /// Edge-index sort order (Kruskal).
    pub(crate) order: Vec<u32>,
    /// Union-find over the (densely relabeled) vertices.
    pub(crate) uf: UnionFind,
}

impl Default for MsfScratch {
    fn default() -> Self {
        MsfScratch {
            order: Vec::new(),
            uf: UnionFind::new(0),
        }
    }
}

impl MsfScratch {
    /// Combined capacity (in elements) of the scratch buffers.
    pub fn high_water(&self) -> usize {
        self.order.capacity() + self.uf.capacity()
    }
}

/// A weighted undirected edge for the static algorithms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: u32,
    /// Other endpoint.
    pub v: u32,
    /// Totally ordered weight key (weight + unique id).
    pub key: WKey,
}

impl Edge {
    /// Creates an edge.
    pub fn new(u: u32, v: u32, key: WKey) -> Self {
        Edge { u, v, key }
    }
}

/// Computes the MSF with the default algorithm (Kruskal; see module docs for
/// why that is the right default at the batch sizes Algorithm 2 produces).
pub fn msf(n: usize, edges: &[Edge]) -> Vec<usize> {
    kruskal(n, edges)
}

/// [`msf`] into a caller-owned output buffer with reusable working sets —
/// the allocation-free entry point used by the batch-insert hot path.
pub fn msf_with(n: usize, edges: &[Edge], ws: &mut MsfScratch, out: &mut Vec<usize>) {
    kruskal_with(n, edges, ws, out);
}

/// Checks that `forest` (indices into `edges`) is *the* minimum spanning
/// forest of `(n, edges)`: it must be cycle-free, span every component, and
/// every non-forest edge must be heaviest on the cycle it closes.
pub fn is_msf(n: usize, edges: &[Edge], forest: &[usize]) -> bool {
    let mut uf = bimst_unionfind::UnionFind::new(n);
    for &i in forest {
        if !uf.unite(edges[i].u, edges[i].v) {
            return false; // cycle within the forest
        }
    }
    let fedges: Vec<(u32, u32, WKey)> = forest
        .iter()
        .map(|&i| (edges[i].u, edges[i].v, edges[i].key))
        .collect();
    let pm = ForestPathMax::new(n, &fedges);
    let in_forest: std::collections::HashSet<usize> = forest.iter().copied().collect();
    for (i, e) in edges.iter().enumerate() {
        if in_forest.contains(&i) || e.u == e.v {
            continue;
        }
        match pm.query(e.u, e.v) {
            // Non-forest edge whose endpoints the forest fails to connect:
            // the forest does not span.
            None => return false,
            // Non-forest edge lighter than the heaviest cycle edge: the
            // forest is not minimum.
            Some(maxk) if e.key < maxk => return false,
            Some(_) => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_primitives::hash::hash2;

    /// Random multigraph with self-loops and parallel edges mixed in.
    pub(crate) fn random_edges(n: u32, m: usize, seed: u64) -> Vec<Edge> {
        (0..m as u64)
            .map(|i| {
                let u = (hash2(seed, 2 * i) % n as u64) as u32;
                let v = (hash2(seed, 2 * i + 1) % n as u64) as u32;
                let w = (hash2(seed ^ 0xabc, i) % 1000) as f64;
                Edge::new(u, v, WKey::new(w, i))
            })
            .collect()
    }

    #[test]
    fn three_algorithms_agree() {
        for seed in 0..8u64 {
            let n = 60;
            let edges = random_edges(n, 150, seed);
            let mut a = kruskal(n as usize, &edges);
            let mut b = boruvka(n as usize, &edges);
            let mut c = kkt_msf(n as usize, &edges, seed);
            a.sort_unstable();
            b.sort_unstable();
            c.sort_unstable();
            assert_eq!(a, b, "kruskal vs boruvka, seed {seed}");
            assert_eq!(a, c, "kruskal vs kkt, seed {seed}");
            assert!(is_msf(n as usize, &edges, &a));
        }
    }

    #[test]
    fn algorithms_agree_on_large_sparse_and_dense() {
        for (n, m) in [(2000u32, 3000usize), (300, 20_000)] {
            let edges = random_edges(n, m, 99);
            let mut a = kruskal(n as usize, &edges);
            let mut b = boruvka(n as usize, &edges);
            let mut c = kkt_msf(n as usize, &edges, 7);
            a.sort_unstable();
            b.sort_unstable();
            c.sort_unstable();
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn is_msf_rejects_wrong_forests() {
        let edges = vec![
            Edge::new(0, 1, WKey::new(1.0, 0)),
            Edge::new(1, 2, WKey::new(2.0, 1)),
            Edge::new(0, 2, WKey::new(3.0, 2)),
        ];
        assert!(is_msf(3, &edges, &[0, 1]));
        assert!(!is_msf(3, &edges, &[0, 2]), "not minimum");
        assert!(!is_msf(3, &edges, &[0]), "does not span");
        assert!(!is_msf(3, &edges, &[0, 1, 2]), "has a cycle");
    }

    #[test]
    fn empty_and_trivial_inputs() {
        assert!(kruskal(0, &[]).is_empty());
        assert!(boruvka(5, &[]).is_empty());
        assert!(kkt_msf(5, &[], 1).is_empty());
        let loops = vec![Edge::new(2, 2, WKey::new(1.0, 0))];
        assert!(kruskal(5, &loops).is_empty());
        assert!(boruvka(5, &loops).is_empty());
        assert!(kkt_msf(5, &loops, 1).is_empty());
    }
}
