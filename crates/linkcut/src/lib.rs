//! Link-cut trees (Sleator–Tarjan) with path-max aggregation, and the
//! classic sequential incremental MSF built on them.
//!
//! This is the paper's sequential baseline (reference \[47\]): inserting an
//! edge into an MSF takes `O(lg n)` amortized — find the heaviest edge on
//! the cycle the new edge closes, and evict it if heavier (the red rule,
//! one edge at a time). The benchmark harness compares
//! `bimst_core::BatchMsf` against [`IncrementalMsf`] to reproduce the
//! crossover the paper's work bounds predict (experiment E2).
//!
//! # Implementation
//!
//! Splay-based link-cut trees over an *edge-subdivided* forest: every MSF
//! edge is itself a node carrying its weight key, so "heaviest edge on the
//! path" is a plain subtree-max aggregate over preferred paths. Links and
//! cuts are rooted via `evert` (lazy path reversal).

#![forbid(unsafe_code)]

use bimst_primitives::{EdgeId, FxHashMap, WKey};

const NONE: u32 = u32::MAX;

/// A node of the splay forest: either a vertex or a subdivided edge.
struct Node {
    parent: u32,
    child: [u32; 2],
    /// Lazy reversal flag.
    flip: bool,
    /// This node's own key (phantom for vertices).
    key: WKey,
    /// Max key in the node's splay subtree (i.e., on its preferred path).
    max_key: WKey,
    /// Node holding `max_key` in the subtree.
    max_node: u32,
}

impl Node {
    fn new(key: WKey) -> Self {
        Node {
            parent: NONE,
            child: [NONE, NONE],
            flip: false,
            key,
            max_key: key,
            max_node: NONE,
        }
    }
}

/// Link-cut forest with path maxima.
///
/// Vertices are `0..n`. Edges are added with [`LinkCutForest::link`] and
/// removed by [`LinkCutForest::cut_edge`]; both endpoints and the edge key
/// are tracked internally via subdivision nodes.
pub struct LinkCutForest {
    nodes: Vec<Node>,
    /// Per live edge: `(subdivision node, u, v)`.
    edge_nodes: FxHashMap<EdgeId, (u32, u32, u32)>,
    free: Vec<u32>,
}

impl LinkCutForest {
    /// A forest of `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        LinkCutForest {
            nodes: (0..n).map(|_| Node::new(WKey::phantom())).collect(),
            edge_nodes: FxHashMap::default(),
            free: Vec::new(),
        }
    }

    // --- splay machinery ------------------------------------------------

    fn is_splay_root(&self, x: u32) -> bool {
        let p = self.nodes[x as usize].parent;
        p == NONE || (self.nodes[p as usize].child[0] != x && self.nodes[p as usize].child[1] != x)
    }

    fn push_down(&mut self, x: u32) {
        if self.nodes[x as usize].flip {
            self.nodes[x as usize].flip = false;
            self.nodes[x as usize].child.swap(0, 1);
            for i in 0..2 {
                let c = self.nodes[x as usize].child[i];
                if c != NONE {
                    self.nodes[c as usize].flip ^= true;
                }
            }
        }
    }

    fn pull_up(&mut self, x: u32) {
        let mut best = self.nodes[x as usize].key;
        let mut who = x;
        for i in 0..2 {
            let c = self.nodes[x as usize].child[i];
            if c != NONE && self.nodes[c as usize].max_key > best {
                best = self.nodes[c as usize].max_key;
                who = self.nodes[c as usize].max_node;
            }
        }
        self.nodes[x as usize].max_key = best;
        self.nodes[x as usize].max_node = who;
    }

    fn rotate(&mut self, x: u32) {
        let p = self.nodes[x as usize].parent;
        let g = self.nodes[p as usize].parent;
        let dir = (self.nodes[p as usize].child[1] == x) as usize;
        let b = self.nodes[x as usize].child[1 - dir];
        // p adopts b.
        self.nodes[p as usize].child[dir] = b;
        if b != NONE {
            self.nodes[b as usize].parent = p;
        }
        // x adopts p.
        self.nodes[x as usize].child[1 - dir] = p;
        self.nodes[p as usize].parent = x;
        // g adopts x (or x becomes a path root).
        self.nodes[x as usize].parent = g;
        if g != NONE {
            for i in 0..2 {
                if self.nodes[g as usize].child[i] == p {
                    self.nodes[g as usize].child[i] = x;
                }
            }
        }
        self.pull_up(p);
        self.pull_up(x);
    }

    fn splay(&mut self, x: u32) {
        // Push flips down the access path first.
        let mut path = vec![x];
        let mut cur = x;
        while !self.is_splay_root(cur) {
            cur = self.nodes[cur as usize].parent;
            path.push(cur);
        }
        for &y in path.iter().rev() {
            self.push_down(y);
        }
        while !self.is_splay_root(x) {
            let p = self.nodes[x as usize].parent;
            if !self.is_splay_root(p) {
                let g = self.nodes[p as usize].parent;
                let zig_zig = (self.nodes[g as usize].child[1] == p)
                    == (self.nodes[p as usize].child[1] == x);
                if zig_zig {
                    self.rotate(p);
                } else {
                    self.rotate(x);
                }
            }
            self.rotate(x);
        }
    }

    /// Makes the path from `x` to its tree root preferred, splays `x`.
    fn access(&mut self, x: u32) {
        self.splay(x);
        // Detach right subtree (deeper part of old preferred path).
        let r = self.nodes[x as usize].child[1];
        if r != NONE {
            self.nodes[x as usize].child[1] = NONE;
            self.pull_up(x);
        }
        let cur = x;
        while self.nodes[cur as usize].parent != NONE {
            let p = self.nodes[cur as usize].parent;
            self.splay(p);
            self.nodes[p as usize].child[1] = cur;
            self.pull_up(p);
            self.splay(cur);
        }
    }

    /// Makes `x` the root of its represented tree.
    fn evert(&mut self, x: u32) {
        self.access(x);
        self.nodes[x as usize].flip ^= true;
        self.push_down(x);
    }

    fn find_root(&mut self, mut x: u32) -> u32 {
        self.access(x);
        self.push_down(x);
        while self.nodes[x as usize].child[0] != NONE {
            x = self.nodes[x as usize].child[0];
            self.push_down(x);
        }
        self.splay(x);
        x
    }

    // --- public interface -------------------------------------------------

    /// Whether `u` and `v` are connected. Amortized `O(lg n)`.
    pub fn connected(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        self.find_root(u) == self.find_root(v)
    }

    /// Links `u` and `v` with an edge of the given key. The endpoints must
    /// be in different trees.
    pub fn link(&mut self, u: u32, v: u32, id: EdgeId, key: WKey) {
        debug_assert!(!self.connected(u, v), "link would close a cycle");
        let e = if let Some(e) = self.free.pop() {
            self.nodes[e as usize] = Node::new(key);
            e
        } else {
            self.nodes.push(Node::new(key));
            (self.nodes.len() - 1) as u32
        };
        self.nodes[e as usize].max_node = e;
        self.edge_nodes.insert(id, (e, u, v));
        // u - e - v via two evert+attach steps (standard LCT link: the
        // everted tree hangs off its new represented parent by a
        // path-parent pointer).
        self.evert(u);
        self.nodes[u as usize].parent = e;
        self.evert(e);
        self.nodes[e as usize].parent = v;
        self.access(e);
    }

    /// Detaches represented-tree neighbors `a` and `b`. After
    /// `evert(a); access(b)` the preferred path is exactly `a–b`, with `b`
    /// the splay root and `a` its left child; snipping that splay edge
    /// severs the represented edge, while path-parent pointers elsewhere
    /// keep hanging off the correct represented nodes.
    fn cut_pair(&mut self, a: u32, b: u32) {
        self.evert(a);
        self.access(b);
        self.push_down(b);
        debug_assert_eq!(
            self.nodes[b as usize].child[0], a,
            "cut of non-adjacent pair"
        );
        self.nodes[b as usize].child[0] = NONE;
        self.nodes[a as usize].parent = NONE;
        self.pull_up(b);
    }

    /// Cuts the edge with the given id.
    pub fn cut_edge(&mut self, id: EdgeId) {
        let (e, u, v) = self.edge_nodes.remove(&id).expect("cut of unknown edge");
        self.cut_pair(u, e);
        self.cut_pair(e, v);
        // e is now a represented singleton with no inbound pointers.
        self.free.push(e);
    }

    /// Heaviest edge `(id-bearing key, edge node)` on the `u`–`v` path, or
    /// `None` if disconnected or `u == v`. Amortized `O(lg n)`.
    pub fn path_max(&mut self, u: u32, v: u32) -> Option<WKey> {
        if u == v || !self.connected(u, v) {
            return None;
        }
        self.evert(u);
        self.access(v);
        // v's splay tree now holds exactly the u..v path.
        let k = self.nodes[v as usize].max_key;
        (!k.is_phantom()).then_some(k)
    }
}

/// The classic sequential incremental MSF: one edge at a time, `O(lg n)`
/// amortized per insertion (the paper's baseline \[47\]).
pub struct IncrementalMsf {
    lc: LinkCutForest,
    n: usize,
    edges: FxHashMap<EdgeId, (u32, u32, f64)>,
    weight_sum: f64,
    components: usize,
}

impl IncrementalMsf {
    /// An edgeless MSF over `n` vertices.
    pub fn new(n: usize) -> Self {
        IncrementalMsf {
            lc: LinkCutForest::new(n),
            n,
            edges: FxHashMap::default(),
            weight_sum: 0.0,
            components: n,
        }
    }

    /// Inserts one edge; returns the evicted edge id, if any.
    /// Self-loops are ignored (returns `None`).
    pub fn insert(&mut self, u: u32, v: u32, w: f64, id: EdgeId) -> Option<EdgeId> {
        assert!((u as usize) < self.n && (v as usize) < self.n);
        if u == v {
            return None;
        }
        let key = WKey::new(w, id);
        if !self.lc.connected(u, v) {
            self.lc.link(u, v, id, key);
            self.edges.insert(id, (u, v, w));
            self.weight_sum += w;
            self.components -= 1;
            return None;
        }
        let maxk = self.lc.path_max(u, v).expect("connected pair has a path");
        if maxk <= key {
            return None; // new edge is the heaviest on its cycle
        }
        // Evict the heaviest cycle edge, insert the new one.
        self.lc.cut_edge(maxk.id);
        let (_, _, old_w) = self.edges.remove(&maxk.id).expect("evicted edge live");
        self.weight_sum -= old_w;
        self.lc.link(u, v, id, key);
        self.edges.insert(id, (u, v, w));
        self.weight_sum += w;
        Some(maxk.id)
    }

    /// Total MSF weight.
    pub fn msf_weight(&self) -> f64 {
        self.weight_sum
    }

    /// Number of MSF edges.
    pub fn msf_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Whether `u` and `v` are connected.
    pub fn connected(&mut self, u: u32, v: u32) -> bool {
        self.lc.connected(u, v)
    }

    /// Iterates over MSF edges as `(id, u, v, w)`.
    pub fn iter_msf_edges(&self) -> impl Iterator<Item = (EdgeId, u32, u32, f64)> + '_ {
        self.edges.iter().map(|(&id, &(u, v, w))| (id, u, v, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_primitives::hash::hash2;

    #[test]
    fn connectivity_link_cut() {
        let mut lc = LinkCutForest::new(5);
        assert!(!lc.connected(0, 1));
        lc.link(0, 1, 100, WKey::new(1.0, 100));
        lc.link(1, 2, 101, WKey::new(2.0, 101));
        lc.link(3, 4, 102, WKey::new(3.0, 102));
        assert!(lc.connected(0, 2));
        assert!(!lc.connected(2, 3));
        lc.cut_edge(101);
        assert!(lc.connected(0, 1));
        assert!(!lc.connected(0, 2));
    }

    #[test]
    fn cut_edge_correctness() {
        // Cut every edge of a random tree in random order; connectivity must
        // match a naive forest at every step.
        let n = 60u32;
        let mut lc = LinkCutForest::new(n as usize);
        let mut naive = bimst_rctree_naive_stub::Naive::new(n as usize);
        let mut ids = Vec::new();
        for v in 1..n {
            let u = (hash2(1, v as u64) % v as u64) as u32;
            lc.link(u, v, v as u64, WKey::new(v as f64, v as u64));
            naive.link(u, v, v as u64);
            ids.push(v as u64);
        }
        for k in 0..ids.len() {
            let i = (hash2(2, k as u64) as usize) % ids.len();
            let id = ids[i];
            if !naive.has(id) {
                continue;
            }
            lc.cut_edge(id);
            naive.cut(id);
            for a in 0..n {
                let b = (hash2(3, (k as u64) << 32 | a as u64) % n as u64) as u32;
                assert_eq!(lc.connected(a, b), naive.connected(a, b), "({a},{b})");
            }
        }
    }

    #[test]
    fn path_max_matches_brute() {
        let mut lc = LinkCutForest::new(5);
        for (i, &(u, v, w)) in [(0, 1, 5.0), (1, 2, 9.0), (2, 3, 2.0), (3, 4, 7.0)]
            .iter()
            .enumerate()
        {
            lc.link(u, v, i as u64, WKey::new(w, i as u64));
        }
        assert_eq!(lc.path_max(0, 4).unwrap().w, 9.0);
        assert_eq!(lc.path_max(2, 4).unwrap().w, 7.0);
        assert_eq!(lc.path_max(3, 4).unwrap().w, 7.0);
        assert_eq!(lc.path_max(2, 2), None);
    }

    #[test]
    fn incremental_msf_matches_kruskal_weight() {
        // Insert random edges one at a time; final MSF weight must equal a
        // from-scratch Kruskal over everything.
        let n = 120u32;
        let mut inc = IncrementalMsf::new(n as usize);
        let mut all: Vec<(u32, u32, f64, u64)> = Vec::new();
        for i in 0..800u64 {
            let u = (hash2(5, 2 * i) % n as u64) as u32;
            let v = (hash2(5, 2 * i + 1) % n as u64) as u32;
            if u == v {
                continue;
            }
            let w = (hash2(6, i) % 10_000) as f64;
            inc.insert(u, v, w, i);
            all.push((u, v, w, i));
        }
        // Kruskal oracle.
        let mut order: Vec<usize> = (0..all.len()).collect();
        order.sort_by(|&a, &b| WKey::new(all[a].2, all[a].3).cmp(&WKey::new(all[b].2, all[b].3)));
        let mut uf = vec![u32::MAX; n as usize];
        fn find(uf: &mut [u32], x: u32) -> u32 {
            if uf[x as usize] == u32::MAX {
                return x;
            }
            let r = find(uf, uf[x as usize]);
            uf[x as usize] = r;
            r
        }
        let mut expect = 0.0;
        let mut cnt = 0usize;
        for i in order {
            let (u, v, w, _) = all[i];
            let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
            if ru != rv {
                uf[ru as usize] = rv;
                expect += w;
                cnt += 1;
            }
        }
        assert_eq!(inc.msf_edge_count(), cnt);
        assert!(
            (inc.msf_weight() - expect).abs() < 1e-9,
            "{} vs {}",
            inc.msf_weight(),
            expect
        );
    }

    /// Tiny naive forest used by the cut test (kept local to avoid a dev
    /// dependency cycle with bimst-rctree).
    mod bimst_rctree_naive_stub {
        use std::collections::HashMap;

        pub struct Naive {
            n: usize,
            edges: HashMap<u64, (u32, u32)>,
        }

        impl Naive {
            pub fn new(n: usize) -> Self {
                Naive {
                    n,
                    edges: HashMap::new(),
                }
            }
            pub fn link(&mut self, u: u32, v: u32, id: u64) {
                self.edges.insert(id, (u, v));
            }
            pub fn cut(&mut self, id: u64) {
                self.edges.remove(&id);
            }
            pub fn has(&self, id: u64) -> bool {
                self.edges.contains_key(&id)
            }
            pub fn connected(&self, a: u32, b: u32) -> bool {
                if a == b {
                    return true;
                }
                let mut adj = vec![Vec::new(); self.n];
                for &(u, v) in self.edges.values() {
                    adj[u as usize].push(v);
                    adj[v as usize].push(u);
                }
                let mut seen = vec![false; self.n];
                let mut stack = vec![a];
                seen[a as usize] = true;
                while let Some(x) = stack.pop() {
                    if x == b {
                        return true;
                    }
                    for &y in &adj[x as usize] {
                        if !seen[y as usize] {
                            seen[y as usize] = true;
                            stack.push(y);
                        }
                    }
                }
                false
            }
        }
    }
}
