//! Static forest path-fold oracle (MSF verification and batch folds).
//!
//! Given a forest, answers "fold of a [`PathMonoid`] over the edges of the
//! path from `u` to `v`" in `O(lg n)` via binary lifting over rooted trees.
//! With `M = MaxW` ([`ForestPathMax`]) this is the verification step of the
//! KKT sampling algorithm: an edge heavier than the path maximum between
//! its endpoints in the sample MSF (an *F-heavy* edge) cannot be in the
//! full MSF and is filtered out. The generic [`ForestPathFold`] combines
//! the segment folds of a compressed path tree in `bimst-query`'s CPT fold
//! plan (via [`ForestPathFold::from_values`]) and is the test suites'
//! independent fold oracle; batches that cover the whole forest take
//! [`crate::OfflinePathFold`] instead, which needs no `O(n lg n)` tables.

use bimst_primitives::monoid::{MaxW, PathMonoid};

/// Rooted-forest ancestor tables with per-level path folds of `M`.
pub struct ForestPathFold<M: PathMonoid> {
    depth: Vec<u32>,
    comp: Vec<u32>,
    /// `up[k][v]` = 2^k-th ancestor of `v` (self at roots).
    up: Vec<Vec<u32>>,
    /// `agg[k][v]` = fold of `M` over the 2^k-step path above `v`.
    agg: Vec<Vec<M::Value>>,
}

/// The max instantiation — the historical path-max oracle, bit-identical
/// to the pre-generic implementation (`MaxW::IDENTITY` is the phantom key
/// it padded with, `MaxW::combine` is `WKey::max`).
pub type ForestPathMax = ForestPathFold<MaxW>;

impl<M: PathMonoid> ForestPathFold<M> {
    /// Builds the oracle from forest edges `(u, v, key)`, lifting each key
    /// through [`PathMonoid::lift`].
    ///
    /// # Panics
    ///
    /// Panics if the edges contain a cycle.
    pub fn new(n: usize, edges: &[(u32, u32, bimst_primitives::WKey)]) -> Self {
        let mut adj: Vec<Vec<(u32, M::Value)>> = vec![Vec::new(); n];
        for &(u, v, k) in edges {
            adj[u as usize].push((v, M::lift(k, u, v)));
            adj[v as usize].push((u, M::lift(k, v, u)));
        }
        Self::from_adj(n, edges.len(), adj)
    }

    /// Builds the oracle from forest edges carrying *already-folded* values:
    /// each edge `(u, v, val)` stands for a path segment whose fold of `M`
    /// is `val`. This is how the query engine folds over a compressed path
    /// tree — one CPT edge is one original-forest segment, folded once —
    /// without the oracle re-lifting anything.
    ///
    /// # Panics
    ///
    /// Panics if the edges contain a cycle.
    pub fn from_values(n: usize, edges: &[(u32, u32, M::Value)]) -> Self {
        let mut adj: Vec<Vec<(u32, M::Value)>> = vec![Vec::new(); n];
        for &(u, v, val) in edges {
            adj[u as usize].push((v, val));
            adj[v as usize].push((u, val));
        }
        Self::from_adj(n, edges.len(), adj)
    }

    /// Shared builder: roots every tree, records parent pointers and
    /// per-edge values in DFS orientation, then doubles into the binary
    /// lifting tables.
    fn from_adj(n: usize, nedges: usize, adj: Vec<Vec<(u32, M::Value)>>) -> Self {
        let mut depth = vec![0u32; n];
        let mut comp = vec![u32::MAX; n];
        let mut parent = vec![u32::MAX; n];
        let mut pval = vec![M::IDENTITY; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut visited_edges = 0usize;
        for s in 0..n as u32 {
            if comp[s as usize] != u32::MAX {
                continue;
            }
            comp[s as usize] = s;
            parent[s as usize] = s;
            let mut stack = vec![s];
            while let Some(x) = stack.pop() {
                order.push(x);
                for &(y, val) in &adj[x as usize] {
                    if comp[y as usize] == u32::MAX {
                        comp[y as usize] = s;
                        parent[y as usize] = x;
                        pval[y as usize] = val;
                        depth[y as usize] = depth[x as usize] + 1;
                        visited_edges += 1;
                        stack.push(y);
                    }
                }
            }
        }
        assert_eq!(visited_edges, nedges, "input edges contain a cycle");

        let levels = (usize::BITS - n.max(2).leading_zeros()) as usize;
        let mut up = vec![parent];
        let mut agg = vec![pval];
        for k in 1..levels {
            let (pu, pm) = (&up[k - 1], &agg[k - 1]);
            let mut nu = vec![0u32; n];
            let mut nm = vec![M::IDENTITY; n];
            for v in 0..n {
                let mid = pu[v];
                nu[v] = pu[mid as usize];
                nm[v] = M::combine(pm[v], pm[mid as usize]);
            }
            up.push(nu);
            agg.push(nm);
        }
        ForestPathFold {
            depth,
            comp,
            up,
            agg,
        }
    }

    /// Fold of `M` over the `u`–`v` path edges; `None` if disconnected or
    /// `u == v`.
    pub fn query(&self, u: u32, v: u32) -> Option<M::Value> {
        if u == v || self.comp[u as usize] != self.comp[v as usize] {
            return None;
        }
        let (mut a, mut b) = (u, v);
        let mut best = M::IDENTITY;
        // Lift the deeper endpoint.
        if self.depth[a as usize] < self.depth[b as usize] {
            std::mem::swap(&mut a, &mut b);
        }
        let mut diff = self.depth[a as usize] - self.depth[b as usize];
        let mut k = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                best = M::combine(best, self.agg[k][a as usize]);
                a = self.up[k][a as usize];
            }
            diff >>= 1;
            k += 1;
        }
        if a == b {
            return Some(best);
        }
        // Descend from the top level to just below the LCA.
        for k in (0..self.up.len()).rev() {
            if self.up[k][a as usize] != self.up[k][b as usize] {
                best = M::combine(best, self.agg[k][a as usize]);
                best = M::combine(best, self.agg[k][b as usize]);
                a = self.up[k][a as usize];
                b = self.up[k][b as usize];
            }
        }
        best = M::combine(best, self.agg[0][a as usize]);
        best = M::combine(best, self.agg[0][b as usize]);
        Some(best)
    }

    /// Whether `u` and `v` are in the same tree.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.comp[u as usize] == self.comp[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_primitives::hash::hash2;
    use bimst_primitives::monoid::{Hops, MinW, Pair, SumW};
    use bimst_primitives::WKey;

    #[test]
    fn path_graph_queries() {
        let edges: Vec<(u32, u32, WKey)> = [(0, 1, 5.0), (1, 2, 9.0), (2, 3, 2.0), (3, 4, 7.0)]
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| (u, v, WKey::new(w, i as u64)))
            .collect();
        let pm = ForestPathMax::new(5, &edges);
        assert_eq!(pm.query(0, 4).unwrap().w, 9.0);
        assert_eq!(pm.query(2, 4).unwrap().w, 7.0);
        assert_eq!(pm.query(3, 4).unwrap().w, 7.0);
        assert_eq!(pm.query(1, 1), None);
    }

    #[test]
    fn generic_folds_on_a_path_graph() {
        let edges: Vec<(u32, u32, WKey)> = [(0, 1, 5.0), (1, 2, 9.0), (2, 3, 2.0), (3, 4, 7.0)]
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| (u, v, WKey::new(w, i as u64)))
            .collect();
        let mn = ForestPathFold::<MinW>::new(5, &edges);
        assert_eq!(mn.query(0, 4).unwrap().w, 2.0);
        assert_eq!(mn.query(0, 1).unwrap().w, 5.0);
        let sm = ForestPathFold::<SumW>::new(5, &edges);
        assert_eq!(sm.query(0, 4).unwrap(), 23.0);
        assert_eq!(sm.query(2, 4).unwrap(), 9.0);
        let hp = ForestPathFold::<Hops>::new(5, &edges);
        assert_eq!(hp.query(0, 4).unwrap(), 4);
        assert_eq!(hp.query(3, 4).unwrap(), 1);
        assert_eq!(hp.query(4, 4), None);
        // The pair composer agrees componentwise with the single folds.
        let pr = ForestPathFold::<Pair<MaxW, Hops>>::new(5, &edges);
        let (k, h) = pr.query(0, 3).unwrap();
        assert_eq!(k.w, 9.0);
        assert_eq!(h, 3);
    }

    #[test]
    fn from_values_folds_pre_aggregated_segments() {
        // Each edge stands for a longer segment with a known fold: 0–1 is
        // "3 hops", 1–2 is "2 hops"; the oracle combines without re-lifting.
        let hp = ForestPathFold::<Hops>::from_values(3, &[(0, 1, 3u64), (1, 2, 2)]);
        assert_eq!(hp.query(0, 2), Some(5));
        assert_eq!(hp.query(0, 1), Some(3));
        assert_eq!(hp.query(2, 2), None);
    }

    #[test]
    fn disconnected_forest() {
        let edges = vec![(0, 1, WKey::new(1.0, 0)), (2, 3, WKey::new(2.0, 1))];
        let pm = ForestPathMax::new(4, &edges);
        assert!(pm.connected(0, 1));
        assert!(!pm.connected(1, 2));
        assert_eq!(pm.query(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_panics() {
        let edges = vec![
            (0, 1, WKey::new(1.0, 0)),
            (1, 2, WKey::new(1.0, 1)),
            (2, 0, WKey::new(1.0, 2)),
        ];
        ForestPathMax::new(3, &edges);
    }

    #[test]
    fn random_tree_matches_brute_force() {
        // Random attachment tree on 200 vertices; all-pairs sample.
        let n = 200u32;
        let edges: Vec<(u32, u32, WKey)> = (1..n)
            .map(|v| {
                let u = (hash2(7, v as u64) % v as u64) as u32;
                (
                    u,
                    v,
                    WKey::new((hash2(9, v as u64) % 1000) as f64, v as u64),
                )
            })
            .collect();
        let pm = ForestPathMax::new(n as usize, &edges);
        let hp = ForestPathFold::<Hops>::new(n as usize, &edges);
        // Brute force via parent walk.
        let mut parent = vec![(0u32, WKey::phantom()); n as usize];
        for &(u, v, k) in &edges {
            parent[v as usize] = (u, k); // v > u by construction
        }
        let brute = |mut a: u32, mut b: u32| -> (WKey, u64) {
            let mut best = WKey::phantom();
            let mut hops = 0u64;
            let path_to_root = |mut x: u32| {
                let mut anc = vec![x];
                while x != 0 {
                    x = parent[x as usize].0;
                    anc.push(x);
                }
                anc
            };
            let pa = path_to_root(a);
            let pb: std::collections::HashSet<u32> = path_to_root(b).into_iter().collect();
            let lca = *pa.iter().find(|x| pb.contains(x)).unwrap();
            while a != lca {
                best = best.max(parent[a as usize].1);
                hops += 1;
                a = parent[a as usize].0;
            }
            while b != lca {
                best = best.max(parent[b as usize].1);
                hops += 1;
                b = parent[b as usize].0;
            }
            (best, hops)
        };
        for i in 0..n {
            let j = (hash2(13, i as u64) % n as u64) as u32;
            if i == j {
                continue;
            }
            let (bk, bh) = brute(i, j);
            assert_eq!(pm.query(i, j).unwrap(), bk, "({i},{j})");
            assert_eq!(hp.query(i, j).unwrap(), bh, "hops ({i},{j})");
        }
    }
}
