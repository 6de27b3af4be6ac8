//! Random link/cut/path-max scripts against a naive forest — the link-cut
//! tree is the baseline of experiment E2 (`crossover`), so its correctness
//! underwrites every baseline comparison there.

use bimst_linkcut::LinkCutForest;
use bimst_primitives::WKey;
use proptest::prelude::*;
use std::collections::HashMap;

/// Naive forest with DFS path-max.
struct Naive {
    n: usize,
    edges: HashMap<u64, (u32, u32, WKey)>,
}

impl Naive {
    fn new(n: usize) -> Self {
        Naive {
            n,
            edges: HashMap::new(),
        }
    }

    fn adj(&self) -> Vec<Vec<(u32, WKey)>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(u, v, k) in self.edges.values() {
            adj[u as usize].push((v, k));
            adj[v as usize].push((u, k));
        }
        adj
    }

    fn path_max(&self, s: u32, t: u32) -> Option<WKey> {
        if s == t {
            return None;
        }
        let adj = self.adj();
        let mut best: Vec<Option<WKey>> = vec![None; self.n];
        let mut seen = vec![false; self.n];
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(x) = stack.pop() {
            for &(y, k) in &adj[x as usize] {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    best[y as usize] = Some(match best[x as usize] {
                        Some(b) => b.max(k),
                        None => k,
                    });
                    stack.push(y);
                }
            }
        }
        best[t as usize].filter(|_| seen[t as usize])
    }

    fn connected(&self, s: u32, t: u32) -> bool {
        s == t || self.path_max(s, t).is_some()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lct_matches_naive(
        script in proptest::collection::vec(
            (0u32..20, 0u32..20, 0u32..1000, any::<bool>()),
            1..80,
        )
    ) {
        let n = 20usize;
        let mut lct = LinkCutForest::new(n);
        let mut naive = Naive::new(n);
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for (a, b, w, cut) in script {
            if cut && !live.is_empty() {
                let id = live.swap_remove((w as usize) % live.len());
                lct.cut_edge(id);
                naive.edges.remove(&id);
            } else if a != b && !naive.connected(a, b) {
                let key = WKey::new(w as f64, next);
                lct.link(a, b, next, key);
                naive.edges.insert(next, (a, b, key));
                live.push(next);
                next += 1;
            }
            // Spot-check queries after every op.
            for s in 0..n as u32 {
                let t = (s * 7 + 3) % n as u32;
                prop_assert_eq!(lct.connected(s, t), naive.connected(s, t), "conn ({}, {})", s, t);
                prop_assert_eq!(lct.path_max(s, t), naive.path_max(s, t), "pmax ({}, {})", s, t);
            }
        }
    }
}
