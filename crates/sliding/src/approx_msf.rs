//! Sliding-window `(1+ε)`-approximate MSF weight (§5.3, Theorem 5.4).
//!
//! With edge weights in `[1, wmax]`, the MSF weight is approximated by
//! component counting at geometric weight thresholds (Chazelle–Rubinfeld–
//! Trevisan / Ahn–Guha–McGregor): let `G_i` be the subgraph of edges with
//! weight ≤ `(1+ε)^i`; then
//!
//! ```text
//! weight ≈ (n − cc(G₀)) + Σ_{i≥1} (cc(G_{i−1}) − cc(G_i)) · (1+ε)^i     (1)
//! ```
//!
//! Each `G_i` is a [`SwConnEager`] (eager connectivity with `O(1)`
//! component counting) sharing one global stream of positions; the `R =
//! O(ε⁻¹ lg wmax)` instances are updated in parallel with rayon.

use bimst_primitives::VertexId;
use rayon::prelude::*;

use crate::conn::SwConnEager;

/// Sliding-window approximate MSF weight.
pub struct ApproxMsfWeight {
    n: usize,
    /// `thresholds[i] = (1+ε)^i`; `levels[i]` holds edges with weight ≤ it.
    thresholds: Vec<f64>,
    levels: Vec<SwConnEager>,
    t: u64,
    tw: u64,
}

impl ApproxMsfWeight {
    /// An empty window over `n` vertices, for weights in `[1, wmax]`.
    ///
    /// Builds `R = ⌈log_{1+ε} wmax⌉ + 1` connectivity instances.
    pub fn new(n: usize, eps: f64, wmax: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && wmax >= 1.0);
        let r = (wmax.ln() / (1.0 + eps).ln()).ceil() as usize + 1;
        ApproxMsfWeight {
            n,
            thresholds: (0..r).map(|i| (1.0 + eps).powi(i as i32)).collect(),
            levels: (0..r)
                .map(|i| SwConnEager::new(n, seed.wrapping_add(i as u64 * 0x517c)))
                .collect(),
            t: 0,
            tw: 0,
        }
    }

    /// Number of threshold levels `R`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Appends a batch of weighted edges `(u, v, w)`, `w ∈ [1, wmax]`.
    pub fn batch_insert(&mut self, edges: &[(VertexId, VertexId, f64)]) {
        let t0 = self.t;
        self.t += edges.len() as u64;
        let thresholds = &self.thresholds;
        self.levels
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, level)| {
                let sub: Vec<(VertexId, VertexId, u64)> = edges
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(_, _, w))| w <= thresholds[i])
                    .map(|(j, &(u, v, _))| (u, v, t0 + j as u64))
                    .collect();
                level.batch_insert_at(&sub);
            });
    }

    /// Expires the `delta` oldest stream positions.
    pub fn batch_expire(&mut self, delta: u64) {
        self.tw = self.tw.saturating_add(delta).min(self.t);
        let tw = self.tw;
        self.levels
            .par_iter_mut()
            .for_each(|level| level.expire_before(tw));
    }

    /// The `(1+ε)`-approximate MSF weight of the window graph — formula (1).
    /// `O(R)` work.
    pub fn weight(&self) -> f64 {
        let cc: Vec<usize> = self.levels.iter().map(|l| l.num_components()).collect();
        let mut w = (self.n - cc[0]) as f64;
        for i in 1..cc.len() {
            w += (cc[i - 1] - cc[i]) as f64 * self.thresholds[i];
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_primitives::WKey;

    /// Exact MSF weight of the window graph (Kruskal oracle).
    fn exact_msf_weight(n: usize, window: &[(u32, u32, f64)]) -> f64 {
        let edges: Vec<bimst_msf::Edge> = window
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| bimst_msf::Edge::new(u, v, WKey::new(w, i as u64)))
            .collect();
        bimst_msf::kruskal(n, &edges)
            .into_iter()
            .map(|i| edges[i].key.w)
            .sum()
    }

    #[test]
    fn exact_on_unit_weights() {
        // All weights 1: the estimate must be exactly n - cc.
        let mut a = ApproxMsfWeight::new(5, 0.5, 1.0, 1);
        a.batch_insert(&[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        assert_eq!(a.weight(), 3.0);
    }

    #[test]
    fn approximation_bound_holds() {
        use bimst_primitives::hash::hash2;
        for &eps in &[0.1, 0.3, 0.7] {
            let n = 40usize;
            let wmax = 64.0;
            let mut a = ApproxMsfWeight::new(n, eps, wmax, 2);
            let mut window: Vec<(u32, u32, f64)> = Vec::new();
            for i in 0..400u64 {
                let u = (hash2(3, 2 * i) % n as u64) as u32;
                let mut v = (hash2(3, 2 * i + 1) % (n as u64 - 1)) as u32;
                if v >= u {
                    v += 1;
                }
                let w = 1.0 + (hash2(5, i) % 1000) as f64 / 1000.0 * (wmax - 1.0);
                window.push((u, v, w));
            }
            a.batch_insert(&window);
            let exact = exact_msf_weight(n, &window);
            let approx = a.weight();
            assert!(
                approx >= exact - 1e-9,
                "eps={eps}: approx {approx} < exact {exact}"
            );
            assert!(
                approx <= (1.0 + eps) * exact + 1e-9,
                "eps={eps}: approx {approx} > (1+eps)·{exact}"
            );
        }
    }

    #[test]
    fn expiry_tracks_window() {
        use bimst_primitives::hash::hash2;
        let n = 20usize;
        let eps = 0.25;
        let mut a = ApproxMsfWeight::new(n, eps, 32.0, 3);
        let mut all: Vec<(u32, u32, f64)> = Vec::new();
        let mut tw = 0usize;
        for round in 0..20u64 {
            let batch: Vec<(u32, u32, f64)> = (0..4)
                .map(|j| {
                    let u = (hash2(round, 2 * j + 1) % n as u64) as u32;
                    let mut v = (hash2(round, 2 * j + 2) % (n as u64 - 1)) as u32;
                    if v >= u {
                        v += 1;
                    }
                    (u, v, 1.0 + (hash2(round, j + 50) % 31) as f64)
                })
                .collect();
            a.batch_insert(&batch);
            all.extend_from_slice(&batch);
            let d = (hash2(round, 9) % 4) as usize;
            a.batch_expire(d as u64);
            tw = (tw + d).min(all.len());
            let exact = exact_msf_weight(n, &all[tw..]);
            let approx = a.weight();
            assert!(approx >= exact - 1e-9, "round {round}: {approx} < {exact}");
            assert!(
                approx <= (1.0 + eps) * exact + 1e-9,
                "round {round}: {approx} > (1+eps)·{exact}"
            );
        }
    }

    #[test]
    fn empty_window_weighs_zero() {
        let mut a = ApproxMsfWeight::new(4, 0.5, 8.0, 4);
        assert_eq!(a.weight(), 0.0);
        a.batch_insert(&[(0, 1, 2.0)]);
        assert!(a.weight() > 0.0);
        a.batch_expire(1);
        assert_eq!(a.weight(), 0.0);
    }
}
