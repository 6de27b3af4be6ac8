//! Synthetic graph and edge-stream generators for the experiments.
//!
//! The paper is model-theoretic (no named datasets), so the harness drives
//! every experiment with synthetic workloads chosen to exercise the
//! structures the algorithms care about:
//!
//! * [`erdos_renyi`] — uniform random endpoints: the generic dense-cycle
//!   workload for MSF maintenance.
//! * [`preferential_attachment`] — heavy-tailed degrees: stresses the
//!   ternarization spines (high-degree MSF vertices).
//! * [`grid`] — bounded-degree planar structure: long paths, deep
//!   compress chains.
//! * [`random_tree`] / [`path`] / [`star`] — forest-shaped extremes.
//! * [`EdgeStream`] — a timestamped infinite stream over any topology, cut
//!   into arbitrary insert batches for the sliding-window experiments; the
//!   stream position is `τ(e)`, exactly the paper's recency weight.
//! * [`MixedStream`] — a mixed read/write **operation** stream: insert
//!   batches, expirations, and query batches interleaved over any of the
//!   above topologies, for driving the batch-parallel query engine
//!   (`bimst-query`) under serving-style workloads.
//!
//! All generators are deterministic given their seed (ChaCha8).

#![forbid(unsafe_code)]

use bimst_primitives::monoid::FoldKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A weighted edge with an id: `(u, v, weight, id)` — the tuple every layer
/// of the workspace consumes.
pub type GenEdge = (u32, u32, f64, u64);

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// `m` edges with uniform random distinct endpoints in `0..n`, weights
/// uniform in `[0, 1)`, ids `0..m`.
pub fn erdos_renyi(n: u32, m: usize, seed: u64) -> Vec<GenEdge> {
    assert!(n >= 2);
    let mut r = rng(seed);
    (0..m as u64)
        .map(|id| {
            let u = r.gen_range(0..n);
            let mut v = r.gen_range(0..n - 1);
            if v >= u {
                v += 1;
            }
            (u, v, r.gen::<f64>(), id)
        })
        .collect()
}

/// Preferential attachment: vertex `v` attaches to `deg_out` earlier
/// vertices chosen proportionally to degree (plus smoothing), producing a
/// heavy-tailed degree distribution.
pub fn preferential_attachment(n: u32, deg_out: usize, seed: u64) -> Vec<GenEdge> {
    assert!(n >= 2);
    let mut r = rng(seed);
    let mut targets: Vec<u32> = vec![0]; // degree-proportional urn
    let mut out = Vec::new();
    let mut id = 0u64;
    for v in 1..n {
        for _ in 0..deg_out.min(v as usize) {
            let u = if r.gen_bool(0.1) {
                r.gen_range(0..v)
            } else {
                targets[r.gen_range(0..targets.len())]
            };
            if u == v {
                continue;
            }
            out.push((u, v, r.gen::<f64>(), id));
            id += 1;
            targets.push(u);
        }
        targets.push(v);
    }
    out
}

/// `rows × cols` grid graph (4-neighborhood), random weights.
pub fn grid(rows: u32, cols: u32, seed: u64) -> Vec<GenEdge> {
    let mut r = rng(seed);
    let idx = |i: u32, j: u32| i * cols + j;
    let mut out = Vec::new();
    let mut id = 0u64;
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                out.push((idx(i, j), idx(i, j + 1), r.gen::<f64>(), id));
                id += 1;
            }
            if i + 1 < rows {
                out.push((idx(i, j), idx(i + 1, j), r.gen::<f64>(), id));
                id += 1;
            }
        }
    }
    out
}

/// A uniformly random attachment tree on `n` vertices (`n − 1` edges).
pub fn random_tree(n: u32, seed: u64) -> Vec<GenEdge> {
    let mut r = rng(seed);
    (1..n)
        .map(|v| {
            let u = r.gen_range(0..v);
            (u, v, r.gen::<f64>(), (v - 1) as u64)
        })
        .collect()
}

/// The path `0 − 1 − … − (n−1)` with random weights.
pub fn path(n: u32, seed: u64) -> Vec<GenEdge> {
    let mut r = rng(seed);
    (0..n - 1)
        .map(|i| (i, i + 1, r.gen::<f64>(), i as u64))
        .collect()
}

/// A star centered at 0 with random weights — the extreme ternarization
/// workload (one spine of length `n − 1`).
pub fn star(n: u32, seed: u64) -> Vec<GenEdge> {
    let mut r = rng(seed);
    (1..n)
        .map(|v| (0, v, r.gen::<f64>(), (v - 1) as u64))
        .collect()
}

/// An infinite timestamped edge stream over a fixed topology pool.
///
/// Edges are drawn round-robin from the pool; the `id` of the `t`-th edge
/// emitted is `t` (the stream position `τ(e)` of the paper), and the weight
/// is resampled per emission so re-traversals of the pool differ.
pub struct EdgeStream {
    pool: Vec<(u32, u32)>,
    r: ChaCha8Rng,
    t: u64,
}

impl EdgeStream {
    /// A stream cycling over the endpoints of the given topology.
    pub fn new(topology: &[GenEdge], seed: u64) -> Self {
        assert!(!topology.is_empty());
        EdgeStream {
            pool: topology.iter().map(|&(u, v, _, _)| (u, v)).collect(),
            r: rng(seed),
            t: 0,
        }
    }

    /// A stream of uniform random pairs over `0..n`.
    pub fn uniform(n: u32, seed: u64) -> Self {
        // Pool of size 1 is never used for uniform mode; keep endpoints
        // drawn fresh per emission instead.
        let mut s = EdgeStream {
            pool: Vec::new(),
            r: rng(seed),
            t: 0,
        };
        s.pool.push((0, n.max(2) - 1)); // marker; n stored via pool[0].1+1
        s
    }

    /// Current stream position (`τ` of the next edge).
    pub fn position(&self) -> u64 {
        self.t
    }

    /// Emits the next batch of `len` edges.
    pub fn next_batch(&mut self, len: usize) -> Vec<GenEdge> {
        let uniform_n = if self.pool.len() == 1 {
            Some(self.pool[0].1 + 1)
        } else {
            None
        };
        (0..len)
            .map(|_| {
                let (u, v) = match uniform_n {
                    Some(n) => {
                        let u = self.r.gen_range(0..n);
                        let mut v = self.r.gen_range(0..n - 1);
                        if v >= u {
                            v += 1;
                        }
                        (u, v)
                    }
                    None => self.pool[(self.t as usize) % self.pool.len()],
                };
                let e = (u, v, self.r.gen::<f64>(), self.t);
                self.t += 1;
                e
            })
            .collect()
    }
}

/// One operation of a mixed read/write workload (see [`MixedStream`]).
///
/// Insert/expire operations target a sliding-window structure (which
/// assigns stream positions and recency weights itself); query operations
/// are batches for the `bimst-query` executor.
///
/// Non-exhaustive: op streams grow kinds over time (most recently
/// [`Op::PathFoldQueries`]); downstream matches must carry a wildcard arm
/// and decide locally whether an unknown kind is skippable or fatal.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Op {
    /// Append these edges on the new side of the window.
    Insert(Vec<(u32, u32)>),
    /// Expire the Δ oldest stream positions.
    Expire(u64),
    /// Batch of window-connectivity queries.
    ConnectedQueries(Vec<(u32, u32)>),
    /// Batch of path-max queries against the MSF.
    PathMaxQueries(Vec<(u32, u32)>),
    /// Batch of component-size queries.
    ComponentSizeQueries(Vec<u32>),
    /// Batch of window-connectivity queries tagged with the tenant id
    /// whose window they are asked against (multi-tenant serving).
    TenantConnectedQueries(u32, Vec<(u32, u32)>),
    /// Batch of window path-fold queries of the given kind (emitted only
    /// by fold-enabled streams, [`MixedStream::with_folds`]).
    PathFoldQueries(FoldKind, Vec<(u32, u32)>),
}

/// Topology the endpoints of a [`MixedStream`] are drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixedTopology {
    /// Uniform random endpoints (the generic dense-cycle workload).
    ErdosRenyi,
    /// Preferential-attachment pool: heavy-tailed degrees, stresses the
    /// ternarization spines.
    PowerLaw,
    /// 2-D grid pool: long paths, deep compress chains.
    Grid,
}

/// Shape of a [`MixedStream`] workload.
#[derive(Clone, Copy, Debug)]
pub struct MixedConfig {
    /// Vertex count.
    pub n: u32,
    /// Endpoint distribution.
    pub topology: MixedTopology,
    /// Edges per insert batch.
    pub insert_batch: usize,
    /// Queries per query batch.
    pub query_batch: usize,
    /// Query batches issued between consecutive insert batches.
    pub queries_per_insert: usize,
    /// Sliding-window width in stream positions; `0` = insert-only (no
    /// [`Op::Expire`] is ever emitted).
    pub window: u64,
    /// Number of logical tenants tagging connectivity query batches. `0` =
    /// untagged ([`Op::ConnectedQueries`]); when positive, connectivity
    /// batches become [`Op::TenantConnectedQueries`] rotating through
    /// tenant ids `0..tenants`. Other query kinds are unaffected.
    pub tenants: u32,
}

impl MixedConfig {
    /// A serving-style default: ER endpoints, write batches of 4096,
    /// read-mostly (4 query batches per insert), fixed window of
    /// `16 × insert_batch`.
    pub fn serving(n: u32) -> Self {
        MixedConfig {
            n,
            topology: MixedTopology::ErdosRenyi,
            insert_batch: 4096,
            query_batch: 4096,
            queries_per_insert: 4,
            window: 16 * 4096,
            tenants: 0,
        }
    }
}

/// A deterministic mixed read/write operation stream.
///
/// Each round emits one [`Op::Insert`], then `queries_per_insert` query
/// batches rotating through the query kinds (three by default, plus
/// [`Op::PathFoldQueries`] for [`MixedStream::with_folds`] streams), then
/// (in sliding mode)
/// one [`Op::Expire`] sized to hold the window at `cfg.window`. Query
/// endpoints are a half/half mix of uniform vertices and endpoints of
/// recently inserted edges, so query batches hit warm components the way a
/// serving workload does rather than mostly asking about isolated vertices.
pub struct MixedStream {
    cfg: MixedConfig,
    /// Endpoint pool for non-uniform topologies (empty for ER).
    pool: Vec<(u32, u32)>,
    r: ChaCha8Rng,
    /// Stream positions emitted so far.
    t: u64,
    /// Positions already expired.
    tw: u64,
    /// Recently inserted endpoint pairs (ring, capped).
    recent: Vec<(u32, u32)>,
    recent_at: usize,
    /// Position in the per-round phase cycle.
    phase: usize,
    /// Rotation of the query kinds across query batches.
    qkind: usize,
    /// Rotation of tenant ids across tagged connectivity batches.
    tenant: u32,
    /// Whether the kind rotation includes [`Op::PathFoldQueries`]
    /// (constructor-gated, not a [`MixedConfig`] field: plain `(cfg, seed)`
    /// streams must stay bit-identical across releases for the paired
    /// benchmark protocol).
    folds: bool,
    /// Rotation of fold kinds across fold batches.
    fold_rot: usize,
}

impl MixedStream {
    /// A fresh stream. Identical `(cfg, seed)` give identical op sequences.
    pub fn new(cfg: MixedConfig, seed: u64) -> Self {
        assert!(cfg.n >= 2 && cfg.insert_batch > 0);
        let pool = match cfg.topology {
            MixedTopology::ErdosRenyi => Vec::new(),
            MixedTopology::PowerLaw => preferential_attachment(cfg.n, 2, seed ^ 0x9e37)
                .into_iter()
                .map(|(u, v, _, _)| (u, v))
                .collect(),
            MixedTopology::Grid => {
                // side² ≤ n keeps every pool endpoint inside the vertex
                // range; a grid needs at least a 2×2 square.
                let side = (cfg.n as f64).sqrt() as u32;
                assert!(side >= 2, "Grid topology needs n >= 4");
                grid(side, side, seed ^ 0x9e37)
                    .into_iter()
                    .map(|(u, v, _, _)| (u, v))
                    .collect()
            }
        };
        MixedStream {
            cfg,
            pool,
            r: rng(seed),
            t: 0,
            tw: 0,
            recent: Vec::new(),
            recent_at: 0,
            phase: 0,
            qkind: 0,
            tenant: 0,
            folds: false,
            fold_rot: 0,
        }
    }

    /// A stream whose query-kind rotation also emits
    /// [`Op::PathFoldQueries`] batches, cycling the fold kind through
    /// [`FoldKind::ALL`]. A separate constructor rather than a
    /// [`MixedConfig`] field so that every existing `(cfg, seed)` stream
    /// keeps its exact historical op sequence (the paired pre/post
    /// benchmark protocol depends on that bit-stability).
    pub fn with_folds(cfg: MixedConfig, seed: u64) -> Self {
        let mut s = Self::new(cfg, seed);
        s.folds = true;
        s
    }

    /// The configuration this stream was built with.
    pub fn config(&self) -> &MixedConfig {
        &self.cfg
    }

    fn endpoints(&mut self) -> (u32, u32) {
        if self.pool.is_empty() {
            let n = self.cfg.n;
            let u = self.r.gen_range(0..n);
            let mut v = self.r.gen_range(0..n - 1);
            if v >= u {
                v += 1;
            }
            (u, v)
        } else {
            self.pool[self.r.gen_range(0..self.pool.len())]
        }
    }

    /// A query vertex: half the time uniform, half the time an endpoint of
    /// a recently inserted edge.
    fn query_vertex(&mut self) -> u32 {
        if !self.recent.is_empty() && self.r.gen_bool(0.5) {
            let (u, v) = self.recent[self.r.gen_range(0..self.recent.len())];
            if self.r.gen_bool(0.5) {
                u
            } else {
                v
            }
        } else {
            self.r.gen_range(0..self.cfg.n)
        }
    }

    /// Emits the next operation of the cycle.
    pub fn next_op(&mut self) -> Op {
        let q = self.cfg.queries_per_insert;
        let sliding = self.cfg.window > 0;
        // Phases: 0 = insert, 1..=q = query batches, q+1 = expire (sliding).
        let phases = 1 + q + usize::from(sliding);
        let phase = self.phase;
        self.phase = (self.phase + 1) % phases;
        if phase == 0 {
            let batch: Vec<(u32, u32)> = (0..self.cfg.insert_batch)
                .map(|_| self.endpoints())
                .collect();
            self.t += batch.len() as u64;
            for &e in &batch {
                if self.recent.len() < 4096 {
                    self.recent.push(e);
                } else {
                    self.recent[self.recent_at % 4096] = e;
                    self.recent_at += 1;
                }
            }
            return Op::Insert(batch);
        }
        if sliding && phase == phases - 1 {
            let overflow = self.t.saturating_sub(self.cfg.window);
            let delta = overflow.saturating_sub(self.tw);
            self.tw = overflow.max(self.tw);
            return Op::Expire(delta);
        }
        let len = self.cfg.query_batch;
        let kind = self.qkind;
        self.qkind = (self.qkind + 1) % if self.folds { 4 } else { 3 };
        if kind == 3 {
            let fk = FoldKind::ALL[self.fold_rot];
            self.fold_rot = (self.fold_rot + 1) % FoldKind::ALL.len();
            return Op::PathFoldQueries(
                fk,
                (0..len)
                    .map(|_| (self.query_vertex(), self.query_vertex()))
                    .collect(),
            );
        }
        match kind {
            0 => {
                let qs: Vec<(u32, u32)> = (0..len)
                    .map(|_| (self.query_vertex(), self.query_vertex()))
                    .collect();
                if self.cfg.tenants > 0 {
                    let tenant = self.tenant;
                    self.tenant = (self.tenant + 1) % self.cfg.tenants;
                    Op::TenantConnectedQueries(tenant, qs)
                } else {
                    Op::ConnectedQueries(qs)
                }
            }
            1 => Op::PathMaxQueries(
                (0..len)
                    .map(|_| (self.query_vertex(), self.query_vertex()))
                    .collect(),
            ),
            _ => Op::ComponentSizeQueries((0..len).map(|_| self.query_vertex()).collect()),
        }
    }

    /// Convenience: the next `count` operations.
    pub fn take_ops(&mut self, count: usize) -> Vec<Op> {
        (0..count).map(|_| self.next_op()).collect()
    }
}

/// A `MixedStream` is an infinite operation iterator — the adapter that
/// lets a serving layer drain it straight into an op channel
/// (`stream.by_ref().take(k)` for a bounded drive, or feed
/// `bimst-service`'s submit loop until backpressure says stop).
impl Iterator for MixedStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_shapes() {
        let es = erdos_renyi(100, 500, 1);
        assert_eq!(es.len(), 500);
        assert!(es
            .iter()
            .all(|&(u, v, w, _)| u != v && u < 100 && v < 100 && (0.0..1.0).contains(&w)));
        // Ids are sequential.
        assert!(es
            .iter()
            .enumerate()
            .all(|(i, &(_, _, _, id))| id == i as u64));
        // Deterministic.
        assert_eq!(erdos_renyi(100, 500, 1), es);
        assert_ne!(erdos_renyi(100, 500, 2), es);
    }

    #[test]
    fn tree_path_star_sizes() {
        assert_eq!(random_tree(50, 3).len(), 49);
        assert_eq!(path(50, 3).len(), 49);
        assert_eq!(star(50, 3).len(), 49);
        assert!(star(50, 3).iter().all(|&(u, _, _, _)| u == 0));
        // A random tree is acyclic and spanning: check via union-find.
        let mut uf = bimst_unionfind_stub::Uf::new(50);
        for &(u, v, _, _) in &random_tree(50, 3) {
            assert!(uf.unite(u, v), "cycle in random_tree");
        }
    }

    #[test]
    fn grid_edge_count() {
        let es = grid(5, 7, 1);
        assert_eq!(es.len(), (5 * 6 + 4 * 7) as usize);
    }

    #[test]
    fn pa_has_heavy_tail() {
        let es = preferential_attachment(2000, 2, 9);
        let mut deg = vec![0u32; 2000];
        for &(u, v, _, _) in &es {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        assert!(max > 30, "expected a hub, max degree {max}");
    }

    #[test]
    fn stream_positions_are_tau() {
        let mut s = EdgeStream::uniform(100, 4);
        let b1 = s.next_batch(10);
        let b2 = s.next_batch(5);
        assert_eq!(b1.last().unwrap().3, 9);
        assert_eq!(b2.first().unwrap().3, 10);
        assert_eq!(s.position(), 15);
    }

    #[test]
    fn stream_over_topology_cycles_pool() {
        let topo = path(4, 1); // 3 edges
        let mut s = EdgeStream::new(&topo, 2);
        let b = s.next_batch(6);
        assert_eq!((b[0].0, b[0].1), (topo[0].0, topo[0].1));
        assert_eq!((b[3].0, b[3].1), (topo[0].0, topo[0].1));
        assert_ne!(b[0].2, b[3].2, "weights resampled per emission");
    }

    #[test]
    fn mixed_stream_cycle_and_determinism() {
        let cfg = MixedConfig {
            n: 100,
            topology: MixedTopology::ErdosRenyi,
            insert_batch: 8,
            query_batch: 5,
            queries_per_insert: 3,
            window: 16,
            tenants: 0,
        };
        let ops = MixedStream::new(cfg, 7).take_ops(10);
        // Round shape: Insert, 3 query batches, Expire, repeat.
        assert!(matches!(ops[0], Op::Insert(ref b) if b.len() == 8));
        assert!(matches!(ops[1], Op::ConnectedQueries(ref q) if q.len() == 5));
        assert!(matches!(ops[2], Op::PathMaxQueries(_)));
        assert!(matches!(ops[3], Op::ComponentSizeQueries(_)));
        assert!(matches!(ops[4], Op::Expire(0))); // still under the window
        assert!(matches!(ops[5], Op::Insert(_)));
        assert!(matches!(ops[9], Op::Expire(d) if d == 0));
        // Deterministic; seed-sensitive.
        assert_eq!(MixedStream::new(cfg, 7).take_ops(10), ops);
        assert_ne!(MixedStream::new(cfg, 8).take_ops(10), ops);
        // Expire totals track the window: after r inserts of 8, expired
        // positions must equal max(0, 8r - 16).
        let mut s = MixedStream::new(cfg, 7);
        let mut inserted = 0u64;
        let mut expired = 0u64;
        for op in s.take_ops(50) {
            match op {
                Op::Insert(b) => inserted += b.len() as u64,
                Op::Expire(d) => {
                    expired += d;
                    assert_eq!(expired, inserted.saturating_sub(16));
                }
                _ => {}
            }
        }
        assert!(expired > 0);
    }

    #[test]
    fn mixed_stream_insert_only_never_expires() {
        let cfg = MixedConfig {
            window: 0,
            ..MixedConfig::serving(50)
        };
        let ops = MixedStream::new(cfg, 3).take_ops(20);
        assert!(ops.iter().all(|op| !matches!(op, Op::Expire(_))));
    }

    #[test]
    fn mixed_stream_pool_topologies_stay_in_range() {
        // Non-square n values included: the grid pool must clamp to
        // side² ≤ n, not round up past the vertex range.
        for n in [4u32, 5, 7, 400, 401] {
            for topo in [MixedTopology::PowerLaw, MixedTopology::Grid] {
                let cfg = MixedConfig {
                    topology: topo,
                    ..MixedConfig::serving(n)
                };
                let mut s = MixedStream::new(cfg, 5);
                for op in s.take_ops(12) {
                    let ok = match op {
                        Op::Insert(b) => b.iter().all(|&(u, v)| u < n && v < n && u != v),
                        Op::ConnectedQueries(q)
                        | Op::PathMaxQueries(q)
                        | Op::TenantConnectedQueries(_, q)
                        | Op::PathFoldQueries(_, q) => q.iter().all(|&(u, v)| u < n && v < n),
                        Op::ComponentSizeQueries(q) => q.iter().all(|&v| v < n),
                        Op::Expire(_) => true,
                    };
                    assert!(ok, "out-of-range endpoint from {topo:?} at n={n}");
                }
            }
        }
    }

    #[test]
    fn mixed_stream_tenant_tagging() {
        let cfg = MixedConfig {
            tenants: 3,
            ..MixedConfig::serving(50)
        };
        let ops = MixedStream::new(cfg, 9).take_ops(60);
        // Connectivity batches are tagged and rotate tenant ids 0..3; the
        // plain variant never appears; other kinds are untouched.
        let tags: Vec<u32> = ops
            .iter()
            .filter_map(|op| match op {
                Op::TenantConnectedQueries(t, q) => {
                    assert_eq!(q.len(), cfg.query_batch);
                    Some(*t)
                }
                Op::ConnectedQueries(_) => panic!("untagged batch with tenants > 0"),
                _ => None,
            })
            .collect();
        assert!(tags.len() >= 3);
        assert!(tags.iter().zip(&tags[1..]).all(|(a, b)| (a + 1) % 3 == *b));
        assert!(ops.iter().any(|op| matches!(op, Op::PathMaxQueries(_))));
        // tenants == 0 keeps the untagged kind.
        let untagged = MixedStream::new(MixedConfig::serving(50), 9).take_ops(60);
        assert!(untagged
            .iter()
            .all(|op| !matches!(op, Op::TenantConnectedQueries(..))));
    }

    #[test]
    fn mixed_stream_with_folds_rotates_kinds() {
        let cfg = MixedConfig {
            queries_per_insert: 8,
            ..MixedConfig::serving(50)
        };
        let ops = MixedStream::with_folds(cfg, 7).take_ops(80);
        // Fold batches appear, cycling FoldKind::ALL in order, full-sized.
        let kinds: Vec<FoldKind> = ops
            .iter()
            .filter_map(|op| match op {
                Op::PathFoldQueries(k, q) => {
                    assert_eq!(q.len(), cfg.query_batch);
                    Some(*k)
                }
                _ => None,
            })
            .collect();
        assert!(kinds.len() >= 4, "expected several fold batches");
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(*k, FoldKind::ALL[i % 4]);
        }
        // The other kinds still appear.
        assert!(ops.iter().any(|op| matches!(op, Op::ConnectedQueries(_))));
        assert!(ops.iter().any(|op| matches!(op, Op::PathMaxQueries(_))));
        // Deterministic, and the plain constructor never emits folds.
        assert_eq!(MixedStream::with_folds(cfg, 7).take_ops(80), ops);
        assert!(MixedStream::new(cfg, 7)
            .take_ops(80)
            .iter()
            .all(|op| !matches!(op, Op::PathFoldQueries(..))));
    }

    #[test]
    #[should_panic(expected = "Grid topology needs n >= 4")]
    fn mixed_stream_grid_rejects_tiny_n() {
        let cfg = MixedConfig {
            topology: MixedTopology::Grid,
            ..MixedConfig::serving(3)
        };
        MixedStream::new(cfg, 1);
    }

    /// Local tiny union-find to avoid a dev-dependency.
    mod bimst_unionfind_stub {
        pub struct Uf(Vec<u32>);
        impl Uf {
            pub fn new(n: usize) -> Self {
                Uf((0..n as u32).collect())
            }
            fn find(&mut self, mut x: u32) -> u32 {
                while self.0[x as usize] != x {
                    x = self.0[x as usize];
                }
                x
            }
            pub fn unite(&mut self, a: u32, b: u32) -> bool {
                let (ra, rb) = (self.find(a), self.find(b));
                if ra == rb {
                    return false;
                }
                self.0[ra as usize] = rb;
                true
            }
        }
    }
}
