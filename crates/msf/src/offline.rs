//! Offline batch path-max by Kruskal order.
//!
//! On a forest, the heaviest edge of the `u`–`v` path is the edge whose
//! union first connects `u` and `v` when the forest's edges are united in
//! increasing key order (Kruskal 1956; the offline form is Tarjan's,
//! "Applications of path compression on balanced trees", JACM 1979). So a
//! whole query batch is answered by one sorted union pass: every pending
//! query sits on the list of the component holding one of its endpoints,
//! and a union scans the smaller of the two lists, answering each query
//! whose other endpoint lies in the other component and moving the rest
//! onto the merged list.
//!
//! Cost: an `O(n)` LSD radix sort of the `n − c` forest edges on the
//! order-preserving bit image of [`WKey`] (digits on which every key
//! agrees are skipped), `O(n α(n))` for the unions, and `O(q lg q)` for the
//! small-to-large list merges of `q` queries — no tree walk, no per-query
//! `lg n`. It pays off when a batch's queries cover the forest, where a
//! compressed path tree over the batch's endpoints is itself `Θ(n)`.

use std::ops::Range;

use bimst_primitives::WKey;
use bimst_unionfind::UnionFind;

/// End of a pending-query list.
const NIL: u32 = u32::MAX;

/// A forest edge in the sort buffer.
#[derive(Clone, Copy, Default)]
struct Rec {
    key: WKey,
    u: u32,
    v: u32,
}

/// Radix digits of the 128-bit sort image: 8 bytes of the id (least
/// significant), then 8 bytes of the weight image.
const DIGITS: usize = 16;

impl Rec {
    /// The key's order-preserving image as `[id, weight image]` words:
    /// unsigned comparison of `(weight image, id)` equals [`WKey`]'s order
    /// (`f64::total_cmp`, then id).
    #[inline]
    fn image(&self) -> [u64; 2] {
        let b = self.key.w.to_bits();
        // Negative floats reverse; positive ones move above them.
        let w = if b >> 63 == 1 { !b } else { b | 1 << 63 };
        [self.key.id, w]
    }
}

/// Radix digit `d` of an image (`d = 0` least significant).
#[inline]
fn digit(img: &[u64; 2], d: usize) -> usize {
    ((img[d / 8] >> (8 * (d % 8))) & 0xff) as usize
}

/// Reusable buffers for [`KruskalPathMax::run`]: the sort ping-pong, the
/// union-find, and the per-component pending-query lists. Steady-state
/// batches on one forest size allocate nothing.
#[derive(Default)]
pub struct KruskalPathMax {
    recs: Vec<Rec>,
    tmp: Vec<Rec>,
    uf: UnionFind,
    /// First pending-query entry of each component root (`NIL` if none).
    head: Vec<u32>,
    /// Nominal list length per component root: entries ever placed on the
    /// list, answered ones included. Deciding "smaller" on nominal sizes
    /// keeps the small-to-large doubling argument intact while answered
    /// entries are dropped lazily.
    len: Vec<u32>,
    /// Next entry; entry `e` is endpoint `e & 1` of query `e >> 1`.
    next: Vec<u32>,
}

impl KruskalPathMax {
    /// A fresh workspace (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Combined capacity (in elements) of the buffers, for steady-state
    /// allocation tests.
    pub fn high_water(&self) -> usize {
        self.recs.capacity()
            + self.tmp.capacity()
            + self.uf.capacity()
            + self.head.capacity()
            + self.len.capacity()
            + self.next.capacity()
    }

    /// Answers every query of a batch against the forest on vertices
    /// `0..n` given by `edges`: `out[i]` is the heaviest key on the
    /// `queries[i]` path, `None` when disconnected or `u == v`.
    ///
    /// # Panics
    ///
    /// If `out` and `queries` differ in length, if a query names a vertex
    /// `≥ n`, or (debug builds) if `edges` contain a cycle.
    pub fn run(
        &mut self,
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32, WKey)>,
        queries: &[(u32, u32)],
        out: &mut [Option<WKey>],
    ) {
        assert_eq!(queries.len(), out.len(), "one output slot per query");
        out.fill(None);
        self.head.clear();
        self.head.resize(n, NIL);
        self.len.clear();
        self.len.resize(n, 0);
        self.next.clear();
        self.next.resize(2 * queries.len(), NIL);
        let mut pending = 0usize;
        for (i, &(u, v)) in queries.iter().enumerate() {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "path-max query ({u},{v}) out of range for {n} vertices"
            );
            if u == v {
                continue;
            }
            pending += 1;
            for (e, x) in [(2 * i, u), (2 * i + 1, v)] {
                self.next[e] = self.head[x as usize];
                self.head[x as usize] = e as u32;
                self.len[x as usize] += 1;
            }
        }
        if pending == 0 {
            return;
        }
        self.recs.clear();
        self.recs
            .extend(edges.into_iter().map(|(u, v, key)| Rec { key, u, v }));
        self.sort();
        self.uf.reset(n);
        for &Rec { key, u, v } in &self.recs {
            let (ru, rv) = (self.uf.find(u), self.uf.find(v));
            debug_assert_ne!(ru, rv, "input edges contain a cycle");
            let (small, big) = if self.len[ru as usize] <= self.len[rv as usize] {
                (ru, rv)
            } else {
                (rv, ru)
            };
            // Scan the smaller list: answer the queries this union
            // connects, splice the still-pending rest onto the bigger one.
            let mut merged = self.head[big as usize];
            let mut e = self.head[small as usize];
            while e != NIL {
                let after = self.next[e as usize];
                let i = (e >> 1) as usize;
                if out[i].is_none() {
                    let (a, b) = queries[i];
                    let other = if e & 1 == 0 { b } else { a };
                    if self.uf.find(other) == big {
                        out[i] = Some(key);
                        pending -= 1;
                    } else {
                        self.next[e as usize] = merged;
                        merged = e;
                    }
                }
                e = after;
            }
            if pending == 0 {
                return;
            }
            let total = self.len[ru as usize] + self.len[rv as usize];
            self.uf.unite(ru, rv);
            let root = self.uf.find(ru) as usize;
            self.head[root] = merged;
            self.len[root] = total;
        }
    }

    /// Sorts `recs` by key: an LSD radix sort on the weight image alone,
    /// redone over the full image (id digits first) only if two weights
    /// tie — distinct weights, the common case, skip the id digits.
    fn sort(&mut self) {
        self.lsd(8..DIGITS);
        let tied = self
            .recs
            .windows(2)
            .any(|p| p[0].key.w.to_bits() == p[1].key.w.to_bits());
        if tied {
            self.lsd(0..DIGITS);
        }
    }

    /// One stable counting pass per digit in `digits` (least significant
    /// first), skipping digits on which every key agrees.
    fn lsd(&mut self, digits: Range<usize>) {
        let m = self.recs.len();
        let mut hist = [[0u32; 256]; DIGITS];
        for r in &self.recs {
            let img = r.image();
            for d in digits.clone() {
                hist[d][digit(&img, d)] += 1;
            }
        }
        // Every pass overwrites all of `tmp`; only its length matters.
        self.tmp.resize(m, Rec::default());
        for d in digits {
            let h = &mut hist[d];
            if h.iter().any(|&c| c as usize == m) {
                continue;
            }
            let mut at = 0u32;
            for c in h.iter_mut() {
                let here = *c;
                *c = at;
                at += here;
            }
            for r in &self.recs {
                let slot = &mut h[digit(&r.image(), d)];
                self.tmp[*slot as usize] = *r;
                *slot += 1;
            }
            std::mem::swap(&mut self.recs, &mut self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForestPathMax;
    use bimst_primitives::hash::hash2;

    /// Random forest on `n` vertices: each vertex hooks to an earlier one
    /// unless it starts a new tree (one in seven do). Weights repeat, so
    /// ids decide many comparisons.
    fn random_forest(n: u32, seed: u64) -> Vec<(u32, u32, WKey)> {
        (1..n)
            .filter(|&v| !hash2(seed, v as u64).is_multiple_of(7))
            .map(|v| {
                let u = (hash2(seed ^ 1, v as u64) % v as u64) as u32;
                let w = (hash2(seed ^ 2, v as u64) % 50) as f64 - 25.0;
                (
                    u,
                    v,
                    WKey::new(w, hash2(seed ^ 3, v as u64) % 1000 * n as u64 + v as u64),
                )
            })
            .collect()
    }

    #[test]
    fn matches_binary_lifting_oracle() {
        for seed in 0..6u64 {
            let n = 300u32;
            let edges = random_forest(n, seed);
            let queries: Vec<(u32, u32)> = (0..500u64)
                .map(|i| {
                    (
                        (hash2(seed ^ 4, i) % n as u64) as u32,
                        (hash2(seed ^ 5, i) % n as u64) as u32,
                    )
                })
                .chain([(3, 3), (0, 1), (0, 1)])
                .collect();
            let oracle = ForestPathMax::new(n as usize, &edges);
            let mut ws = KruskalPathMax::new();
            let mut out = vec![None; queries.len()];
            ws.run(n as usize, edges.iter().copied(), &queries, &mut out);
            for (&(u, v), got) in queries.iter().zip(&out) {
                assert_eq!(*got, oracle.query(u, v), "seed {seed} ({u},{v})");
            }
        }
    }

    #[test]
    fn sort_orders_by_total_cmp_then_id() {
        let edge_cases = vec![
            WKey::new(-0.0, 2),
            WKey::new(0.0, 1),
            WKey::new(-1e300, 9),
            WKey::new(f64::INFINITY, 0),
            WKey::new(3.5, 7),
            WKey::new(3.5, 1 << 40),
            WKey::new(-2.0, 3),
            WKey::new(f64::MIN_POSITIVE, 4),
        ];
        // Distinct weights (the weight-only sort), recency weights with
        // ids equal to positions, and one weight throughout (ids decide).
        let distinct = (0..2000u64)
            .map(|i| WKey::new((hash2(8, i) % 1_000_000) as f64 / 7.0 - 5e4, hash2(9, i)))
            .collect();
        let recency = (0..2000u64)
            .map(|i| WKey::new(-(((i * 7919) % 2000) as f64), (i * 7919) % 2000))
            .collect();
        let flat = (0..2000u64).map(|i| WKey::new(1.0, hash2(10, i))).collect();
        for keys in [edge_cases, distinct, recency, flat] {
            let mut ws = KruskalPathMax::new();
            ws.recs = keys.iter().map(|&key| Rec { key, u: 0, v: 0 }).collect();
            ws.sort();
            let mut want = keys.clone();
            want.sort();
            let got: Vec<(u64, u64)> = ws
                .recs
                .iter()
                .map(|r| (r.key.w.to_bits(), r.key.id))
                .collect();
            let want: Vec<(u64, u64)> = want.iter().map(|k| (k.w.to_bits(), k.id)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_forest_and_trivial_batches() {
        let mut ws = KruskalPathMax::new();
        let mut out = vec![Some(WKey::phantom()); 3];
        ws.run(4, [], &[(0, 1), (2, 2), (3, 0)], &mut out);
        assert_eq!(out, vec![None; 3]);
        ws.run(0, [], &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        let mut out = vec![None; 1];
        KruskalPathMax::new().run(4, [(0, 1, WKey::new(1.0, 0))], &[(0, 4)], &mut out);
    }
}
