//! Sliding-window ε-cut sparsification (§5.6, Theorem 5.8).
//!
//! The Fung et al. framework samples each edge with probability inversely
//! proportional to its edge connectivity `c_e` and reweights by `1/p_e`. A
//! stream cannot know `c_e` at arrival, so the paper combines:
//!
//! * **Connectivity estimation** (Goel–Kapralov–Post, Lemma 5.2): `K`
//!   independent copies of subsampled graphs `G_i^{(j)}` (each edge kept
//!   w.p. `2⁻ⁱ`), each a lazy [`SwConn`]; the *level* `L(e)` — the largest
//!   `i` at which `e`'s endpoints stay connected in all `K` copies — gives
//!   a `Θ(lg n)`-accurate connectivity estimate.
//! * **Geometric pre-sampling** (Ahn–Guha–McGregor): graphs `H_i`, each
//!   edge kept w.p. `2⁻ⁱ` at arrival, stored as k-certificates `Q_i`
//!   ([`crate::KCertificate`]) so that the kept edges survive in bounded
//!   space (Lemma 5.3).
//!
//! At query time an edge `e` retained in `Q_{β(e)}`, `β(e) = ⌊lg 1/p̃_e⌋`,
//! enters the sparsifier with weight `2^{β(e)}`.
//!
//! The paper's constants (`253 ε⁻² lg² n` sampling, `k = O(ε⁻² lg³ n)`
//! certificates) target the w.h.p. guarantee at asymptotic scale; they are
//! configurable here via [`SparsifierConfig`] and default to laptop-scale
//! values. Experiment E6 (`sparsifier_quality`, see the README's
//! "Reproducing the paper" table) *measures* the resulting cut
//! preservation instead of assuming it.

use bimst_primitives::hash::hash3;
use bimst_primitives::{FxHashSet, VertexId};
use rayon::prelude::*;

use crate::conn::SwConn;
use crate::kcert::KCertificate;

/// Tunable constants of the sparsifier (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct SparsifierConfig {
    /// ε of the target `(1±ε)` cut approximation.
    pub eps: f64,
    /// Number of geometric sampling levels `L` (`≈ lg₂ n` covers all
    /// connectivities).
    pub levels: usize,
    /// Independent copies `K` per estimation level.
    pub copies: usize,
    /// Order `k` of each retention k-certificate `Q_i`.
    pub k_cert: usize,
    /// Multiplier in `p̃_e = min(1, c · 2^{−L(e)})`; the paper's value is
    /// `253 ε⁻² lg² n`.
    pub sample_factor: f64,
}

impl SparsifierConfig {
    /// Laptop-scale defaults for an `n`-vertex graph: exercises every code
    /// path of Theorem 5.8 with measurable (rather than w.h.p.-guaranteed)
    /// quality.
    pub fn scaled(n: usize, eps: f64) -> Self {
        let lg = (usize::BITS - n.max(2).leading_zeros()) as f64;
        SparsifierConfig {
            eps,
            levels: lg as usize,
            copies: 3,
            k_cert: ((lg / eps).ceil() as usize).clamp(4, 32),
            sample_factor: (lg / (eps * eps)).max(4.0),
        }
    }
}

/// Sliding-window cut sparsifier.
pub struct Sparsifier {
    n: usize,
    cfg: SparsifierConfig,
    seed: u64,
    /// `Q_i` for `i = 0..=levels`: retention k-certificates of the `H_i`.
    qs: Vec<KCertificate>,
    /// `G_i^{(j)}` for `i = 0..levels`, `j = 0..copies`: estimation copies,
    /// indexed `i * copies + j`. Level 0 is the unsampled graph.
    gs: Vec<SwConn>,
    t: u64,
    tw: u64,
}

impl Sparsifier {
    /// An empty window over `n` vertices.
    pub fn new(n: usize, cfg: SparsifierConfig, seed: u64) -> Self {
        let qs = (0..=cfg.levels)
            .map(|i| KCertificate::new(n, cfg.k_cert, seed.wrapping_add(0xdead ^ (i as u64))))
            .collect();
        let gs = (0..cfg.levels * cfg.copies)
            .map(|x| SwConn::new(n, seed.wrapping_add(0xbeef).wrapping_add(x as u64)))
            .collect();
        Sparsifier {
            n,
            cfg,
            seed,
            qs,
            gs,
            t: 0,
            tw: 0,
        }
    }

    /// Appends a batch of (unweighted) edges on the new side.
    pub fn batch_insert(&mut self, edges: &[(VertexId, VertexId)]) {
        let t0 = self.t;
        self.t += edges.len() as u64;
        // Retention structures Q_i over H_i.
        let me_seed = self.seed;
        let keep = |tau: u64, level: usize, salt: u64| {
            if level == 0 {
                true
            } else {
                hash3(me_seed ^ salt, tau, level as u64) & ((1u64 << level) - 1) == 0
            }
        };
        self.qs.par_iter_mut().enumerate().for_each(|(i, q)| {
            let sub: Vec<(VertexId, VertexId, u64)> = edges
                .iter()
                .enumerate()
                .filter(|&(j, _)| keep(t0 + j as u64, i, 0x11))
                .map(|(j, &(u, v))| (u, v, t0 + j as u64))
                .collect();
            q.batch_insert_at(&sub);
        });
        // Estimation copies G_i^{(j)}.
        let copies = self.cfg.copies;
        self.gs.par_iter_mut().enumerate().for_each(|(x, g)| {
            let (i, j) = (x / copies, x % copies);
            let sub: Vec<(VertexId, VertexId, u64)> = edges
                .iter()
                .enumerate()
                .filter(|&(jj, _)| keep(t0 + jj as u64, i, 0x2200 + j as u64))
                .map(|(jj, &(u, v))| (u, v, t0 + jj as u64))
                .collect();
            g.batch_insert_at(&sub);
        });
    }

    /// Expires the `delta` oldest stream positions.
    pub fn batch_expire(&mut self, delta: u64) {
        self.tw = self.tw.saturating_add(delta).min(self.t);
        let tw = self.tw;
        self.qs.par_iter_mut().for_each(|q| q.expire_before(tw));
        self.gs.par_iter_mut().for_each(|g| g.expire_before(tw));
    }

    /// The estimated connectivity level `L(u, v)`: the largest `i` such
    /// that `u, v` are connected in all `K` copies of `G_i` (0 if even the
    /// unsampled graph disconnects them ⇒ caller never asks in that case).
    fn level(&self, u: VertexId, v: VertexId) -> usize {
        let copies = self.cfg.copies;
        let mut best = 0;
        for i in 0..self.cfg.levels {
            let all = (0..copies).all(|j| self.gs[i * copies + j].is_connected(u, v));
            if all {
                best = i;
            } else {
                break;
            }
        }
        best
    }

    /// Produces the sparsifier of the current window: weighted edges
    /// `(u, v, weight)` with `weight = 2^{β(e)}`, plus the τ of each.
    pub fn sparsify(&self) -> Vec<(VertexId, VertexId, f64, u64)> {
        // Candidates: everything retained in any Q_i (dedup by τ).
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut cands: Vec<(u64, VertexId, VertexId)> = Vec::new();
        for q in &self.qs {
            for (tau, u, v) in q.make_cert() {
                if seen.insert(tau) {
                    cands.push((tau, u, v));
                }
            }
        }
        let out: Vec<Option<(VertexId, VertexId, f64, u64)>> = cands
            .par_iter()
            .map(|&(tau, u, v)| {
                let le = self.level(u, v);
                let p = (self.cfg.sample_factor * 0.5f64.powi(le as i32)).min(1.0);
                // β(e) = −⌊lg₂ p̃_e⌋ ∈ [0, levels]; clamp into range.
                let beta = (-(p.log2().floor()) as usize).min(self.cfg.levels);
                if self.qs[beta].contains(tau) {
                    Some((u, v, (1u64 << beta) as f64, tau))
                } else {
                    None
                }
            })
            .collect();
        out.into_iter().flatten().collect()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The configuration in use.
    pub fn config(&self) -> &SparsifierConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_primitives::hash::hash2;

    fn cut_weight(edges: &[(u32, u32, f64)], side: &FxHashSet<u32>) -> f64 {
        edges
            .iter()
            .filter(|&&(u, v, _)| side.contains(&u) != side.contains(&v))
            .map(|&(_, _, w)| w)
            .sum()
    }

    #[test]
    fn sparsifier_covers_connectivity() {
        // The sparsifier must at least preserve connectivity structure:
        // every window component stays one component.
        let n = 30usize;
        let mut s = Sparsifier::new(n, SparsifierConfig::scaled(n, 0.5), 1);
        let mut edges = Vec::new();
        for i in 0..n as u32 - 1 {
            edges.push((i, i + 1));
        }
        for i in 0..200u64 {
            let u = (hash2(1, 2 * i) % n as u64) as u32;
            let mut v = (hash2(1, 2 * i + 1) % (n as u64 - 1)) as u32;
            if v >= u {
                v += 1;
            }
            edges.push((u, v));
        }
        s.batch_insert(&edges);
        let sp = s.sparsify();
        assert!(!sp.is_empty());
        let mut uf: Vec<u32> = (0..n as u32).collect();
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                x = uf[x as usize];
            }
            x
        }
        for &(u, v, _, _) in &sp {
            let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
            uf[ru as usize] = rv;
        }
        let roots: FxHashSet<u32> = (0..n as u32).map(|x| find(&mut uf, x)).collect();
        assert_eq!(roots.len(), 1, "sparsifier must keep the graph connected");
    }

    #[test]
    fn dense_graph_cut_quality_is_reasonable() {
        // Two 12-cliques joined by a sparse bridge; the bridge cut and a
        // few random cuts must be preserved within a generous factor under
        // the scaled-down constants (measured precisely in experiment E6).
        let half = 12u32;
        let n = (2 * half) as usize;
        let mut s = Sparsifier::new(n, SparsifierConfig::scaled(n, 0.5), 7);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for a in 0..half {
            for b in (a + 1)..half {
                edges.push((a, b));
                edges.push((half + a, half + b));
            }
        }
        for i in 0..4 {
            edges.push((i, half + i));
        }
        s.batch_insert(&edges);
        let sp: Vec<(u32, u32, f64)> = s.sparsify().iter().map(|&(u, v, w, _)| (u, v, w)).collect();
        let orig: Vec<(u32, u32, f64)> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        let bridge: FxHashSet<u32> = (0..half).collect();
        let (co, cs) = (cut_weight(&orig, &bridge), cut_weight(&sp, &bridge));
        assert!(co == 4.0);
        assert!(
            (1.0..=16.0).contains(&cs),
            "bridge cut {cs} too far from {co} even for scaled constants"
        );
        // Sparsifier should not blow up in size.
        assert!(sp.len() <= edges.len());
    }

    #[test]
    fn expiry_shrinks_sparsifier() {
        let n = 10usize;
        let mut s = Sparsifier::new(n, SparsifierConfig::scaled(n, 0.5), 3);
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        s.batch_insert(&edges);
        assert!(!s.sparsify().is_empty());
        s.batch_expire(n as u64);
        assert!(s.sparsify().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 16usize;
        let build = || {
            let mut s = Sparsifier::new(n, SparsifierConfig::scaled(n, 0.5), 9);
            let edges: Vec<(u32, u32)> = (0..60u64)
                .map(|i| {
                    let u = (hash2(9, 2 * i) % n as u64) as u32;
                    let mut v = (hash2(9, 2 * i + 1) % (n as u64 - 1)) as u32;
                    if v >= u {
                        v += 1;
                    }
                    (u, v)
                })
                .collect();
            s.batch_insert(&edges);
            let mut sp = s.sparsify();
            sp.sort_by_key(|&(.., tau)| tau);
            sp
        };
        assert_eq!(build(), build());
    }
}
