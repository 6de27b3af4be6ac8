//! Offline batch path queries on a static forest, for batches whose
//! queries cover the forest (where a compressed path tree over the batch's
//! endpoints is itself `Θ(n)`). Both passes are Tarjan's offline forms
//! ("Applications of path compression on balanced trees", JACM 1979) and
//! answer a whole batch with no per-query tree walk and no per-query
//! `lg n`.
//!
//! [`KruskalPathMax`] answers path-max by Kruskal order. On a forest, the
//! heaviest edge of the `u`–`v` path is the edge whose union first
//! connects `u` and `v` when the forest's edges are united in increasing
//! key order (Kruskal 1956). So one sorted union pass answers the batch:
//! every pending query sits on the list of the component holding one of
//! its endpoints, and a union scans the smaller of the two lists, answering
//! each query whose other endpoint lies in the other component and moving
//! the rest onto the merged list. Cost: an `O(n)` LSD radix sort of the
//! `n − c` forest edges on the order-preserving bit image of [`WKey`]
//! (digits on which every key agrees are skipped), `O(n α(n))` for the
//! unions, and `O(q lg q)` for the small-to-large list merges of `q`
//! queries.
//!
//! [`OfflinePathFold`] answers the fold of any [`PathMonoid`] by offline
//! path evaluation: one depth-first sweep of each tree that links every
//! finished vertex under its parent in a union-find whose links carry the
//! fold up to the link target. A query is resolved at its LCA, whose set
//! still roots both endpoints' paths. Cost: `O(n)` to build the adjacency
//! and sweep, plus `O(n + q lg n)` worst case for the `3q` evaluations
//! (path halving with links set by ancestry, not by rank; Tarjan and van
//! Leeuwen, JACM 1984). The 1979 paper's balanced linking would bring that
//! to `O((n + q) α)`; measured on lazy sliding windows at `n` = 2¹⁴ with
//! 1024-pair batches, the simple pass already costs only 1.5–2× the
//! path-max pass.

use std::ops::Range;

use bimst_primitives::monoid::PathMonoid;
use bimst_primitives::WKey;
use bimst_unionfind::UnionFind;

/// End of a pending-query list (and "none" in the fold pass's tables).
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

/// Reusable buffers for [`OfflinePathFold::run`]: the forest's adjacency,
/// the depth-first sweep's state and stack, the union-find links, and the
/// per-vertex query and per-LCA answer lists. Steady-state batches on one
/// forest size reuse all of them; the only per-batch allocation is the
/// `M`-typed per-vertex fold buffer, which an untyped workspace cannot
/// hold.
#[derive(Default)]
pub struct OfflinePathFold {
    /// The forest's edges, indexed by `adj` entries and `up`.
    edges: Vec<(u32, u32, WKey)>,
    /// CSR offsets: vertex `x`'s edges are `adj[off[x]..off[x + 1]]`.
    off: Vec<u32>,
    /// `(neighbour, edge index)` grouped by endpoint.
    adj: Vec<(u32, u32)>,
    /// Next adjacency slot the sweep scans at each open vertex.
    cur: Vec<u32>,
    /// Edge to each entered vertex's parent (`NIL` at a tree's root).
    up: Vec<u32>,
    /// Sweep root of each entered vertex (`NIL` until it is entered).
    tree: Vec<u32>,
    /// Union-find link: the vertex itself until it finishes, then its
    /// parent, later shortcut to ancestors by path halving.
    link: Vec<u32>,
    /// First query entry at each vertex; entry `e` is endpoint `e & 1` of
    /// query `e >> 1`.
    qhead: Vec<u32>,
    /// Next query entry at the same vertex.
    qnext: Vec<u32>,
    /// First query resolved at each vertex as its LCA.
    lhead: Vec<u32>,
    /// Next query with the same LCA.
    lnext: Vec<u32>,
    /// The sweep's open vertices, root first.
    stack: Vec<u32>,
}

impl OfflinePathFold {
    /// A fresh workspace (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Combined capacity (in elements) of the untyped buffers, for
    /// steady-state allocation tests.
    pub fn high_water(&self) -> usize {
        self.edges.capacity()
            + self.off.capacity()
            + self.adj.capacity()
            + self.cur.capacity()
            + self.up.capacity()
            + self.tree.capacity()
            + self.link.capacity()
            + self.qhead.capacity()
            + self.qnext.capacity()
            + self.lhead.capacity()
            + self.lnext.capacity()
            + self.stack.capacity()
    }

    /// Answers every query of a batch against the forest on vertices
    /// `0..n` given by `edges`: calls `answer(i, fold)` once for each
    /// query `i` whose endpoints are distinct and connected, with the fold
    /// of `M` over its path (queries are answered in sweep order, not in
    /// index order). The fold is `combine(u → lca, v → lca)`, each half
    /// folded upward, so `M` must be commutative (see [`PathMonoid`]).
    ///
    /// # Panics
    ///
    /// If a query names a vertex `≥ n`, or (debug builds) if `edges`
    /// contain a cycle.
    pub fn run<M: PathMonoid>(
        &mut self,
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32, WKey)>,
        queries: &[(u32, u32)],
        mut answer: impl FnMut(usize, M::Value),
    ) {
        self.qhead.clear();
        self.qhead.resize(n, NIL);
        self.qnext.clear();
        self.qnext.resize(2 * queries.len(), NIL);
        let mut pending = 0usize;
        for (i, &(u, v)) in queries.iter().enumerate() {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "path-fold query ({u},{v}) out of range for {n} vertices"
            );
            if u == v {
                continue;
            }
            pending += 1;
            for (e, x) in [(2 * i, u), (2 * i + 1, v)] {
                self.qnext[e] = self.qhead[x as usize];
                self.qhead[x as usize] = e as u32;
            }
        }
        if pending == 0 {
            return;
        }
        self.build_adjacency(n, edges);
        self.tree.clear();
        self.tree.resize(n, NIL);
        self.up.resize(n, NIL);
        self.link.resize(n, NIL);
        self.lhead.resize(n, NIL);
        self.lnext.resize(queries.len(), NIL);
        // The one `M`-typed buffer: `val[x]` folds the path from `x` to
        // `link[x]` (read only once `x` has finished).
        let mut val = vec![M::IDENTITY; n];
        // Sweep only the trees that hold a query endpoint.
        for s in 0..n as u32 {
            if self.qhead[s as usize] == NIL || self.tree[s as usize] != NIL {
                continue;
            }
            self.enter::<M>(s, s, NIL, queries, &mut val);
            self.stack.clear();
            self.stack.push(s);
            while let Some(&x) = self.stack.last() {
                let c = self.cur[x as usize];
                if c < self.off[x as usize + 1] {
                    self.cur[x as usize] = c + 1;
                    let (y, j) = self.adj[c as usize];
                    if self.tree[y as usize] != NIL {
                        debug_assert_eq!(j, self.up[x as usize], "input edges contain a cycle");
                        continue;
                    }
                    self.enter::<M>(y, s, j, queries, &mut val);
                    self.stack.push(y);
                    continue;
                }
                // `x` finishes: its subtree is linked under it, so it roots
                // both halves of every query it is the LCA of.
                self.stack.pop();
                let mut i = self.lhead[x as usize];
                while i != NIL {
                    let (u, v) = queries[i as usize];
                    let (_, fu) = eval::<M>(&mut self.link, &mut val, u);
                    let (_, fv) = eval::<M>(&mut self.link, &mut val, v);
                    answer(i as usize, M::combine(fu, fv));
                    pending -= 1;
                    i = self.lnext[i as usize];
                }
                if pending == 0 {
                    return;
                }
                let j = self.up[x as usize];
                if j != NIL {
                    let (a, b, k) = self.edges[j as usize];
                    let p = a ^ b ^ x;
                    self.link[x as usize] = p;
                    val[x as usize] = M::lift(k, p, x);
                }
            }
        }
    }

    /// Fills `edges` and the CSR adjacency (`off`, `adj`), and resets the
    /// sweep cursors `cur` to each vertex's first slot.
    fn build_adjacency(&mut self, n: usize, edges: impl IntoIterator<Item = (u32, u32, WKey)>) {
        self.edges.clear();
        self.edges.extend(edges);
        self.off.clear();
        self.off.resize(n + 1, 0);
        for &(u, v, _) in &self.edges {
            self.off[u as usize + 1] += 1;
            self.off[v as usize + 1] += 1;
        }
        for x in 0..n {
            self.off[x + 1] += self.off[x];
        }
        self.cur.clear();
        self.cur.extend_from_slice(&self.off[..n]);
        self.adj.resize(2 * self.edges.len(), (0, 0));
        for (j, &(u, v, _)) in self.edges.iter().enumerate() {
            for (x, y) in [(u, v), (v, u)] {
                self.adj[self.cur[x as usize] as usize] = (y, j as u32);
                self.cur[x as usize] += 1;
            }
        }
        self.cur.clear();
        self.cur.extend_from_slice(&self.off[..n]);
    }

    /// Enters `x` (tree `s`, parent edge `j`): opens it as its own set and
    /// files each query whose other endpoint was entered earlier in this
    /// tree under their LCA — the other endpoint's set root, its deepest
    /// still-open ancestor.
    fn enter<M: PathMonoid>(
        &mut self,
        x: u32,
        s: u32,
        j: u32,
        queries: &[(u32, u32)],
        val: &mut [M::Value],
    ) {
        self.tree[x as usize] = s;
        self.up[x as usize] = j;
        self.link[x as usize] = x;
        self.lhead[x as usize] = NIL;
        let mut e = self.qhead[x as usize];
        while e != NIL {
            let i = e >> 1;
            let (a, b) = queries[i as usize];
            let other = if e & 1 == 0 { b } else { a };
            if self.tree[other as usize] == s {
                let (lca, _) = eval::<M>(&mut self.link, val, other);
                self.lnext[i as usize] = self.lhead[lca as usize];
                self.lhead[lca as usize] = i;
            }
            e = self.qnext[e as usize];
        }
    }
}

/// The set root of `x` and the fold of `M` from `x` up to it, halving the
/// path on the way: each visited vertex is relinked to its grandparent,
/// its value extended to match, so `val[y]` keeps folding `y → link[y]`.
#[inline]
fn eval<M: PathMonoid>(link: &mut [u32], val: &mut [M::Value], mut x: u32) -> (u32, M::Value) {
    let mut acc = M::IDENTITY;
    loop {
        let p = link[x as usize];
        if p == x {
            return (x, acc);
        }
        let g = link[p as usize];
        if g != p {
            val[x as usize] = M::combine(val[x as usize], val[p as usize]);
            link[x as usize] = g;
        }
        acc = M::combine(acc, val[x as usize]);
        x = link[x as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForestPathFold, ForestPathMax};
    use bimst_primitives::hash::hash2;
    use bimst_primitives::monoid::{Hops, MaxW, MinW, Pair, SumW};

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

    /// Runs the fold pass on one batch, checking that no query is
    /// answered twice; unanswered queries read `None`.
    fn fold_pass<M: PathMonoid>(
        ws: &mut OfflinePathFold,
        n: usize,
        edges: &[(u32, u32, WKey)],
        queries: &[(u32, u32)],
    ) -> Vec<Option<M::Value>> {
        let mut out = vec![None; queries.len()];
        ws.run::<M>(n, edges.iter().copied(), queries, |i, val| {
            assert!(out[i].replace(val).is_none(), "query {i} answered twice");
        });
        out
    }

    /// The fold pass against the binary-lifting oracle on one batch.
    fn assert_fold_matches_oracle<M: PathMonoid>(
        ws: &mut OfflinePathFold,
        n: usize,
        edges: &[(u32, u32, WKey)],
        queries: &[(u32, u32)],
    ) {
        let oracle = ForestPathFold::<M>::new(n, edges);
        let got = fold_pass::<M>(ws, n, edges, queries);
        for (&(u, v), got) in queries.iter().zip(&got) {
            assert_eq!(*got, oracle.query(u, v), "({u},{v})");
        }
    }

    #[test]
    fn fold_matches_binary_lifting_oracle() {
        // One workspace across seeds and monoids: reuse must not leak
        // state between batches.
        let mut ws = OfflinePathFold::new();
        for seed in 0..6u64 {
            let n = 300u32;
            // Integer weights, so every `SumW` association is exact.
            let edges = random_forest(n, seed);
            let queries: Vec<(u32, u32)> = (0..500u64)
                .map(|i| {
                    (
                        (hash2(seed ^ 4, i) % n as u64) as u32,
                        (hash2(seed ^ 5, i) % n as u64) as u32,
                    )
                })
                .chain([(3, 3), (0, 1), (0, 1), (1, 0), (299, 299)])
                .collect();
            let n = n as usize;
            assert_fold_matches_oracle::<MinW>(&mut ws, n, &edges, &queries);
            assert_fold_matches_oracle::<SumW>(&mut ws, n, &edges, &queries);
            assert_fold_matches_oracle::<Hops>(&mut ws, n, &edges, &queries);
            assert_fold_matches_oracle::<Pair<MaxW, MinW>>(&mut ws, n, &edges, &queries);
            assert_fold_matches_oracle::<Pair<MaxW, SumW>>(&mut ws, n, &edges, &queries);
            assert_fold_matches_oracle::<Pair<MaxW, Hops>>(&mut ws, n, &edges, &queries);
        }
    }

    #[test]
    fn fold_on_empty_forest_and_trivial_batches() {
        let mut ws = OfflinePathFold::new();
        let queries = [(0, 1), (2, 2), (3, 0), (0, 1)];
        assert_eq!(fold_pass::<Hops>(&mut ws, 4, &[], &queries), vec![None; 4]);
        assert_eq!(fold_pass::<MinW>(&mut ws, 4, &[], &[(1, 1)]), vec![None]);
        assert!(fold_pass::<SumW>(&mut ws, 0, &[], &[]).is_empty());
    }

    #[test]
    fn fold_sweeps_a_deep_path_iteratively() {
        // A 2^17-vertex path: a recursive sweep would need a stack frame
        // per vertex. Edges run in shuffled order.
        let n = 1u32 << 17;
        let mut edges: Vec<(u32, u32, WKey)> = (1..n)
            .map(|v| (v - 1, v, WKey::new((v % 5) as f64, v as u64)))
            .collect();
        edges.sort_by_key(|&(_, v, _)| hash2(11, v as u64));
        let queries = [(0, n - 1), (n - 1, 0), (n / 2, n - 1), (1, n - 2), (5, 5)];
        let mut ws = OfflinePathFold::new();
        let hops = fold_pass::<Hops>(&mut ws, n as usize, &edges, &queries);
        let want: Vec<Option<u64>> = queries
            .iter()
            .map(|&(u, v)| (u != v).then_some(u.abs_diff(v) as u64))
            .collect();
        assert_eq!(hops, want);
        let min = fold_pass::<MinW>(&mut ws, n as usize, &edges, &queries);
        assert_eq!(min[2], Some(WKey::new(0.0, (n / 2 + 5) as u64 / 5 * 5)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fold_out_of_range_vertex_panics() {
        let edges = [(0, 1, WKey::new(1.0, 0))];
        fold_pass::<Hops>(&mut OfflinePathFold::new(), 4, &edges, &[(4, 0)]);
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
