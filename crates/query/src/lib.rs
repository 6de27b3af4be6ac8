//! Snapshot-consistent, batch-parallel queries over the batch-incremental
//! MSF and the sliding-window structures.
//!
//! PRs 1–2 made the *write* path (batch insert) fast; this crate is the
//! read half. The sequential query surface ([`BatchMsf::connected`],
//! [`BatchMsf::path_max`], `SwConn::is_connected`, …) answers one query per
//! `O(lg n)` root walk. A serving workload asks queries in *batches*.
//! Connectivity and component-size batches keep one root walk per query,
//! run in parallel over the batch above the grain size: deduplicating a
//! batch's endpoints first saved nothing measurable end to end.
//!
//! Every other batch is *path-shaped*: path-max, lazy-window and
//! cutoff connectivity, and every [`PathMonoid`] fold are one fold along
//! MSF paths followed by the recent-edge test (Lemma 5.1) on the path's
//! heaviest key. One private plan answers them all, from one of two
//! sources of the fold:
//!
//! * **Shared compressed path trees.** A chunk of queries is answered from
//!   **one** compressed path tree over the chunk's distinct endpoints — the
//!   CPT preserves *all pairwise* heaviest-path edges (Theorem 3.1), so a
//!   single `O(ℓ lg(1 + n/ℓ))` expansion plus a static [`ForestPathFold`]
//!   oracle over its edges replaces `ℓ` independent 2-mark CPT walks. This
//!   is the paper's own structure doing double duty as a query
//!   accelerator. Max-summary monoids (path-max, connectivity, `MaxW`)
//!   build the tree over `MaxW`; every other monoid `M` builds it over
//!   `Pair<MaxW, M>` ([`fold_path_tree_with`]), whose edges carry their
//!   segment's heaviest key — the recency witness — and its fold of `M`.
//!   Chunks of fewer than 16 queries build one 2-mark tree per query
//!   instead.
//! * **A linear plan for batches that cover the forest.** The CPT bound
//!   `O(m lg(1 + n/m))` for `m` marks is `Θ(n)` once a batch's endpoints
//!   cover the forest, and then one pass over the whole forest is cheaper
//!   than a CPT per chunk. Every batch of `q ≥ 16` queries with
//!   `n ≤ 8 · m · lg(1 + n/m)` for `m = 2q` takes a linear pass over the
//!   MSF's real edges, whatever its monoid:
//!   - max-summary batches take one union pass in key order
//!     ([`KruskalPathMax`]): the heaviest edge of a path is the union that
//!     first connects its endpoints. After an `O(n)` radix sort it costs
//!     `O(n α(n) + q lg q)`;
//!   - every other fold takes one offline path-fold sweep
//!     ([`OfflinePathFold`], Tarjan's offline path evaluation): each query
//!     is resolved at its LCA from two union-find evaluations whose links
//!     carry `Pair<MaxW, M>` folds. It costs about 1.5–2× the union pass.
//!
//!   Where the rule selects them, the work stays within a constant of the
//!   CPT bound. The constant 8 is the measured single-thread crossover of
//!   the max plans (2-core VM): the two cost the same at
//!   `n / (m lg(1 + n/m))` ≈ 6–10 on random-weight forests
//!   (`n` = 2¹⁰…2¹⁸) and ≈ 10–14 on lazy sliding windows with recency
//!   weights (`n` = 2¹⁰…2¹⁶). At `n` = 2¹⁴ with 1024-pair batches the
//!   union pass is ~4× cheaper (4.2–4.7 ms → 1.0–1.2 ms); at `n` = 2¹⁶
//!   with 16-pair batches it would be 11–17× dearer, so those keep the CPT
//!   plan. The same rule picks the cheaper fold plan too. Single thread,
//!   2-core VM, medians over `MinW`, `SumW` and `Hops`: at `n` = 2¹⁴ with
//!   1024-pair lazy-window batches the fold sweep takes 1.3–2.1 ms against
//!   5.2–9.5 ms for the CPT fold trees, and at `n` = 2¹⁶ with 16-pair
//!   eager-window batches the fold trees take ~0.37 ms against 6.3–8.5 ms
//!   for the sweep. Both passes are sequential: they win on work, not
//!   span.
//! * **Snapshot consistency without cloning.** [`ReadHandle`] is a shared
//!   borrow of the structure: while any handle is live the borrow checker
//!   rules out `batch_insert`, so every query in a batch — across all
//!   worker threads — observes the same forest version. Handles are `Copy`
//!   and `Send + Sync`; between write batches a server can fan a handle out
//!   to a thread pool at zero cost.
//!
//! Batch results are **bit-identical to the sequential per-query loop** and
//! independent of thread count: chunking is a fixed function of the query
//! list, outputs are written in query order, and each answer (a root
//! comparison or the unique heaviest key under the total order with id
//! tie-breaking) does not depend on how work was partitioned. A property
//! test (`tests/prop_query.rs` at the workspace root) pins all of this
//! against the per-query loop and the naive oracle.
//!
//! # Quick start
//!
//! ```
//! use bimst_core::BatchMsf;
//! use bimst_query::{QueryBatch, ReadHandle};
//!
//! let mut msf = BatchMsf::new(5, 42);
//! msf.batch_insert(&[(0, 1, 1.0, 10), (1, 2, 9.0, 11), (3, 4, 2.0, 12)]);
//!
//! let mut q = QueryBatch::new();
//! let h = ReadHandle::new(&msf);
//! assert_eq!(
//!     q.batch_connected(h, &[(0, 2), (0, 3), (4, 3)]),
//!     vec![true, false, true]
//! );
//! assert_eq!(q.batch_component_size(h, &[0, 3]), vec![3, 2]);
//! let pm = q.batch_path_max(h, &[(0, 2), (0, 4)]);
//! assert_eq!(pm[0].unwrap().w, 9.0);
//! assert_eq!(pm[1], None);
//! ```

#![forbid(unsafe_code)]

use bimst_core::cpt::{fold_path_tree_with, CptScratch};
use bimst_core::{BatchMsf, Cpt};
use bimst_msf::{ForestPathFold, KruskalPathMax, OfflinePathFold};
use bimst_primitives::monoid::{MaxW, Pair, PathMonoid};
use bimst_primitives::{par, FxHashMap, VertexId, WKey};
use bimst_rctree::RcForest;
use bimst_sliding::{SwConn, SwConnEager, TenantSet};

/// A shared, thread-safe view of a [`BatchMsf`] at one version.
///
/// Holding a `ReadHandle` borrows the structure immutably, so the type
/// system guarantees no insert or expiry can run while a query batch is in
/// flight — that is the snapshot-consistency contract, enforced at compile
/// time rather than with locks or clones. Handles are `Copy`; pass them by
/// value to as many threads as the batch needs.
#[derive(Clone, Copy)]
pub struct ReadHandle<'a> {
    msf: &'a BatchMsf,
}

impl<'a> ReadHandle<'a> {
    /// A handle on the MSF's current version.
    pub fn new(msf: &'a BatchMsf) -> Self {
        ReadHandle { msf }
    }

    /// The underlying structure.
    pub fn msf(&self) -> &'a BatchMsf {
        self.msf
    }
}

impl<'a> From<&'a BatchMsf> for ReadHandle<'a> {
    fn from(msf: &'a BatchMsf) -> Self {
        ReadHandle::new(msf)
    }
}

/// Sliding-window structures that can serve batched window-connectivity
/// queries (implemented here for [`SwConn`], [`SwConnEager`] and the
/// multi-tenant [`TenantSet`]).
///
/// The two expiry disciplines need different batch plans: under lazy expiry
/// the MSF still contains expired edges, so a window query is a *path-max*
/// plus the recent-edge test (Lemma 5.1); under eager expiry the forest
/// holds exactly the window's MSF, so a window query is plain connectivity.
pub trait WindowConnectivity {
    /// The underlying batch-incremental MSF.
    fn msf(&self) -> &BatchMsf;
    /// Left endpoint `TW` of the window (positions `< TW` are expired).
    fn window_start(&self) -> u64;
    /// Whether expired edges are still present in the MSF and must be
    /// discounted at query time.
    fn lazy_expiry(&self) -> bool;
    /// A tenant's expiry cutoff τᵢ (≥ [`WindowConnectivity::window_start`]).
    /// Single-window structures serve no tenants (the default);
    /// multi-window registries like [`TenantSet`] override this. `None`
    /// means the id is unknown *or* the structure is not tenant-aware —
    /// callers treat that as a routing bug and fail stop.
    fn tenant_cutoff(&self, _tenant: u32) -> Option<u64> {
        None
    }
}

impl WindowConnectivity for SwConn {
    fn msf(&self) -> &BatchMsf {
        self.msf()
    }
    fn window_start(&self) -> u64 {
        self.window().0
    }
    fn lazy_expiry(&self) -> bool {
        true
    }
}

impl WindowConnectivity for SwConnEager {
    fn msf(&self) -> &BatchMsf {
        self.msf()
    }
    fn window_start(&self) -> u64 {
        self.window().0
    }
    fn lazy_expiry(&self) -> bool {
        false
    }
}

/// A [`TenantSet`] reads as its *shared* structure (lazy, window ℓ_max);
/// per-tenant cutoffs ride in via [`WindowConnectivity::tenant_cutoff`] and
/// [`QueryBatch::batch_connected_at`].
impl WindowConnectivity for TenantSet {
    fn msf(&self) -> &BatchMsf {
        self.shared().msf()
    }
    fn window_start(&self) -> u64 {
        self.window_start_tau()
    }
    fn lazy_expiry(&self) -> bool {
        true
    }
    fn tenant_cutoff(&self, tenant: u32) -> Option<u64> {
        self.cutoff(tenant)
    }
}

/// The cutoff argument of the path plan: it applies `get(i)` as the
/// recent-edge threshold of query `i`. `None` compares ids against 0,
/// which every edge passes, so the unfiltered batches share the filtered
/// code path with no extra branch.
#[derive(Clone, Copy)]
enum Cutoffs<'c> {
    /// No recency filter (plain structure queries).
    None,
    /// One threshold for the whole batch (a window's own start).
    Uniform(u64),
    /// Per-query thresholds (mixed multi-tenant batches).
    Per(&'c [u64]),
}

impl Cutoffs<'_> {
    /// The threshold applied to query `i`.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Cutoffs::None => 0,
            Cutoffs::Uniform(c) => *c,
            Cutoffs::Per(cs) => cs[i],
        }
    }
}

/// Queries per chunk of the CPT plan: each chunk is answered from one
/// shared CPT over its distinct endpoints. Fixed (not a function of thread
/// count) so the work partition — and therefore every intermediate — is
/// deterministic; answers are value-deterministic either way. 512 queries
/// ≈ ≤1024 marks keeps the chunk's CPT and oracle cache-resident while
/// leaving enough chunks to parallelize over on realistic batch sizes.
const PATH_CHUNK: usize = 512;

/// Per-chunk scratch for the CPT plan: a CPT workspace plus the marks and
/// relabeling feeding the static oracle. Lives in [`QueryBatch`] so
/// steady-state batches reuse capacity chunk-for-chunk. The tree and the
/// oracle are typed by the tree monoid, so they are per-chunk allocations.
#[derive(Default)]
struct PathChunkScratch {
    marks: Vec<VertexId>,
    cpt_ws: CptScratch,
    /// CPT vertex → dense label. A small hash map, not a slot table: it
    /// holds `O(chunk)` entries probed a few times each, and per-chunk
    /// O(n) tables would multiply by the chunk count (the PR 2 lesson:
    /// compact-and-warm beats hash-free-but-cold at small ℓ).
    label: FxHashMap<VertexId, u32>,
}

/// Below this many queries a chunk skips the shared CPT and answers each
/// query with its own 2-mark CPT on the reused scratch — the sequential
/// algorithm minus its allocations. The shared tree + oracle only amortize
/// once a chunk carries enough queries to split their setup cost. Kept on
/// a paired row (CHANGES.md; 10 alternating 10-s `serve_small` pairs,
/// whose path-max and fold batches hold one query each, 2-core VM):
/// answering those from the shared tree instead costs 1.28× on
/// `fold_p50_us` (31.9 → 40.9 µs) and 1.08× on `pathmax_p50_us`
/// (29.8 → 32.1 µs), worse in 10 of 10 pairs on both.
const SHARED_CPT_MIN: usize = 16;

/// Work constant of the plan choice: the linear pass (`O(n)` over the
/// whole forest) is taken when `n ≤ LINEAR_C · m · lg(1 + n/m)` for a
/// batch of `m = 2q` endpoint marks, i.e. when the shared CPTs'
/// `O(m lg(1 + n/m))` expansion would cost at least a `1/LINEAR_C` share of
/// touching every vertex. Fixed from the measured crossover (see the crate
/// docs).
const LINEAR_C: f64 = 8.0;

impl PathChunkScratch {
    /// Combined capacity (in elements) of the chunk's reusable buffers
    /// (the label map is excluded, as in [`CptScratch::high_water`]).
    #[cfg(test)]
    fn high_water(&self) -> usize {
        self.marks.capacity() + self.cpt_ws.high_water()
    }

    /// Answers one chunk from path trees of `T`: `out[i]` (same length as
    /// `queries`) is `answer(i, fold)` for the fold of `T` over
    /// `queries[i]`'s path, `None` when disconnected or `u == v`.
    ///
    /// One tree over the chunk's distinct `u ≠ v` endpoints
    /// ([`fold_path_tree_with`]) is labeled densely (every mark is in the
    /// tree, isolated ones as singletons, so lookups are total), and a
    /// [`ForestPathFold::from_values`] oracle over its compressed edges
    /// combines the segments of each query. Chunks below
    /// [`SHARED_CPT_MIN`] build one 2-mark tree per query instead.
    fn run<T: PathMonoid, V>(
        &mut self,
        f: &RcForest,
        queries: &[(VertexId, VertexId)],
        out: &mut [Option<V>],
        answer: impl Fn(usize, T::Value) -> Option<V>,
    ) {
        let mut tree = Cpt::default();
        if queries.len() < SHARED_CPT_MIN {
            for (i, (slot, &(u, v))) in out.iter_mut().zip(queries).enumerate() {
                *slot = if u == v {
                    None
                } else {
                    fold_path_tree_with::<T>(f, &[u, v], &mut self.cpt_ws, &mut tree);
                    debug_assert!(tree.edges.len() <= 1);
                    tree.edges.first().and_then(|e| answer(i, e.key))
                };
            }
            return;
        }
        self.marks.clear();
        for &(u, v) in queries {
            if u != v {
                self.marks.push(u);
                self.marks.push(v);
            }
        }
        self.marks.sort_unstable();
        self.marks.dedup();
        fold_path_tree_with::<T>(f, &self.marks, &mut self.cpt_ws, &mut tree);
        self.label.clear();
        for (i, &v) in tree.vertices.iter().enumerate() {
            self.label.insert(v, i as u32);
        }
        let edges: Vec<_> = (tree.edges.iter())
            .map(|e| (self.label[&e.u], self.label[&e.v], e.key))
            .collect();
        let oracle = ForestPathFold::<T>::from_values(tree.vertices.len(), &edges);
        for (i, (slot, &(u, v))) in out.iter_mut().zip(queries).enumerate() {
            *slot = if u == v {
                None
            } else {
                (oracle.query(self.label[&u], self.label[&v])).and_then(|x| answer(i, x))
            };
        }
    }
}

/// Runs `f` on every item, splitting the slice fork-join style so disjoint
/// `&mut` items can be processed on different threads. (The rayon shim's
/// chunk driver is tuned for many cheap items; query chunks are few and
/// expensive, which is exactly the `join` recursion's sweet spot.)
fn par_each<T: Send, F: Fn(&mut T) + Sync>(items: &mut [T], f: &F) {
    match items {
        [] => {}
        [item] => f(item),
        _ => {
            let mid = items.len() / 2;
            let (a, b) = items.split_at_mut(mid);
            rayon::join(|| par_each(a, f), || par_each(b, f));
        }
    }
}

/// Cached handles for the planner's process-wide metrics (on
/// [`bimst_obs::global`]): which plan each batch took and how big the
/// batches are. Observe-only — recorded once per *batch*, never per query,
/// after the plan decision is already made.
struct QueryObs {
    /// `query_batch_size`: queries per batch, across all batch entry points.
    batch_size: bimst_obs::Histogram,
    /// `query_pathmax_chunks`: chunks built by the CPT plan (the linear
    /// plan builds none).
    pathmax_chunks: bimst_obs::Counter,
    /// `query_plan_linear`: batches answered by a linear plan — the
    /// Kruskal-order pass for max-summary batches, the offline path-fold
    /// pass for every other fold.
    plan_linear: bimst_obs::Counter,
}

/// The planner's metric handles, registered once on the global recorder.
fn qobs() -> &'static QueryObs {
    static OBS: std::sync::OnceLock<QueryObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let rec = bimst_obs::global();
        QueryObs {
            batch_size: rec.histogram("query_batch_size"),
            pathmax_chunks: rec.counter("query_pathmax_chunks"),
            plan_linear: rec.counter("query_plan_linear"),
        }
    })
}

/// Reusable batch-query executor.
///
/// Owns the intermediates the batch plans reuse — one CPT workspace per
/// path chunk, and the two linear passes' buffers. Connectivity and
/// component-size batches allocate only their output vectors. The CPT
/// plan additionally builds each chunk's tree and a fresh
/// [`ForestPathFold`] oracle over it (binary-lifting tables sized by the
/// chunk, not the structure); the linear path-max pass reuses its sort,
/// union-find and list buffers and allocates nothing at steady state; the
/// linear fold pass reuses its untyped buffers and allocates only its
/// `M`-typed per-vertex fold buffer. Every entry point returns a fresh
/// answer vector. One `QueryBatch` serves one thread of control; the
/// parallelism is *inside* each call.
#[derive(Default)]
pub struct QueryBatch {
    /// Per-chunk scratch for the CPT plan.
    path_ws: Vec<PathChunkScratch>,
    /// Path-max answers of the linear max-summary pass.
    pm_buf: Vec<Option<WKey>>,
    /// Sort, union-find and pending-list buffers of the linear path-max
    /// pass.
    linear: KruskalPathMax,
    /// Adjacency, sweep, union-find and list buffers of the linear fold
    /// pass.
    fold: OfflinePathFold,
}

impl QueryBatch {
    /// A fresh executor (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Batched [`BatchMsf::connected`]: `out[i]` answers `queries[i]`.
    /// One root walk per endpoint, parallel over queries above the grain
    /// size.
    pub fn batch_connected(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
    ) -> Vec<bool> {
        let f = h.msf.forest();
        qobs().batch_size.record(queries.len() as u64);
        let mut out = Vec::new();
        par::map_into(queries, &mut out, |&(u, v)| f.connected(u, v));
        out
    }

    /// Batched [`BatchMsf::component_size`]: `out[i]` answers `vs[i]`.
    /// One root walk per query, parallel over queries above the grain size.
    pub fn batch_component_size(&mut self, h: ReadHandle<'_>, vs: &[VertexId]) -> Vec<usize> {
        let f = h.msf.forest();
        qobs().batch_size.record(vs.len() as u64);
        let mut out = Vec::new();
        par::map_into(vs, &mut out, |&v| f.component_size(v));
        out
    }

    /// Batched [`BatchMsf::path_max`]: `out[i]` answers `queries[i]`
    /// (`None` when disconnected or `u == v`).
    ///
    /// Batches that cover the forest take the linear Kruskal-order pass
    /// (see the crate docs). Otherwise queries are cut into fixed chunks
    /// (`PATH_CHUNK` = 512); each chunk is answered from one compressed
    /// path tree over its distinct endpoints plus a static path-max
    /// oracle, and chunks run in parallel with per-chunk reused scratch.
    pub fn batch_path_max(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
    ) -> Vec<Option<WKey>> {
        self.fold_core::<MaxW>(h, queries, Cutoffs::None)
    }

    /// Whether a linear pass (Kruskal-order for max-summary batches, the
    /// offline path-fold sweep for other folds) beats the chunked CPT plan
    /// on a batch of `nqueries` over `n` vertices: the CPT plan's
    /// `O(m lg(1 + n/m))` for `m = 2·nqueries` marks reaches the pass's
    /// `O(n)` once the marks cover the forest (see [`LINEAR_C`]). Batches
    /// below [`SHARED_CPT_MIN`] keep the per-query trees.
    fn use_linear(n: usize, nqueries: usize) -> bool {
        if nqueries < SHARED_CPT_MIN {
            return false;
        }
        let (n, m) = (n as f64, 2.0 * nqueries as f64);
        n <= LINEAR_C * m * (1.0 + n / m).log2()
    }

    /// The fold core every path-shaped entry point calls: records the
    /// batch and picks the plan ([`QueryBatch::use_linear`]) for
    /// [`QueryBatch::plan`].
    fn fold_core<M: PathMonoid>(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        cutoffs: Cutoffs<'_>,
    ) -> Vec<Option<M::Value>> {
        let o = qobs();
        o.batch_size.record(queries.len() as u64);
        let linear = Self::use_linear(h.msf.num_vertices(), queries.len());
        if linear {
            o.plan_linear.inc();
        }
        self.plan::<M>(h, queries, cutoffs, linear)
    }

    /// The one plan of every path-shaped batch: answer `i` is the fold of
    /// `M` over `queries[i]`'s MSF path, kept when the path's heaviest key
    /// passes the recent-edge test at `cutoffs.get(i)`, `None` otherwise
    /// and when disconnected or `u == v`. Three routes, identical answers:
    ///
    /// * `linear`, max-summary `M` ([`PathMonoid::MAX_SUMMARY`]): the
    ///   Kruskal-order pass ([`KruskalPathMax`]) plus
    ///   [`PathMonoid::summarize`];
    /// * `linear`, any other `M`: the offline fold pass
    ///   ([`OfflinePathFold`]) over `Pair<MaxW, M>`, whose max half is the
    ///   recency witness;
    /// * otherwise the CPT plan, over trees of `MaxW` for max-summary `M`
    ///   and of `Pair<MaxW, M>` for the rest.
    fn plan<M: PathMonoid>(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        cutoffs: Cutoffs<'_>,
        linear: bool,
    ) -> Vec<Option<M::Value>> {
        let mut out = vec![None; queries.len()];
        let n = h.msf.num_vertices();
        let edges = || h.msf.iter_msf_edges().map(|(_, u, v, k)| (u, v, k));
        let fresh = |i: usize, k: WKey| k.id >= cutoffs.get(i);
        match (linear, M::MAX_SUMMARY) {
            (true, true) => {
                let pm = &mut self.pm_buf;
                pm.resize(queries.len(), None); // `run` overwrites every slot
                self.linear.run(n, edges(), queries, pm);
                for (i, (slot, &k)) in out.iter_mut().zip(pm.iter()).enumerate() {
                    *slot = k.filter(|&k| fresh(i, k)).map(M::summarize);
                }
            }
            (true, false) => self
                .fold
                .run::<Pair<MaxW, M>>(n, edges(), queries, |i, (mk, val)| {
                    if fresh(i, mk) {
                        out[i] = Some(val);
                    }
                }),
            (false, true) => self.cpt_plan::<MaxW, _>(h, queries, &mut out, |i, k| {
                fresh(i, k).then(|| M::summarize(k))
            }),
            (false, false) => {
                self.cpt_plan::<Pair<MaxW, M>, _>(h, queries, &mut out, |i, (mk, val)| {
                    fresh(i, mk).then_some(val)
                })
            }
        }
        out
    }

    /// The CPT plan: cuts `queries` into [`PATH_CHUNK`]s and answers each
    /// in parallel, on its reused scratch, from path trees of `T`
    /// ([`PathChunkScratch::run`]); `answer` sees batch indices.
    fn cpt_plan<T: PathMonoid, V: Send>(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        out: &mut [Option<V>],
        answer: impl Fn(usize, T::Value) -> Option<V> + Sync,
    ) {
        let f = h.msf.forest();
        let nchunks = queries.len().div_ceil(PATH_CHUNK);
        qobs().pathmax_chunks.add(nchunks as u64);
        if self.path_ws.len() < nchunks {
            self.path_ws.resize_with(nchunks, Default::default);
        }
        let mut items: Vec<_> = (self.path_ws.iter_mut())
            .zip(out.chunks_mut(PATH_CHUNK))
            .zip(queries.chunks(PATH_CHUNK))
            .enumerate()
            .collect();
        par_each(&mut items, &|(c, ((ws, o), q))| {
            let base = *c * PATH_CHUNK;
            ws.run::<T, V>(f, q, o, |i, x| answer(base + i, x))
        });
    }

    /// Batched [`BatchMsf::path_fold`]: `out[i]` is the fold of `M` over
    /// the MSF path of `queries[i]` (`None` when disconnected or `u == v`).
    ///
    /// `batch_path_fold::<MaxW>` is bit-identical to
    /// [`QueryBatch::batch_path_max`]; see the private `plan` for how
    /// monoids pick the linear or the chunked CPT plan. Caveat for
    /// [`bimst_primitives::monoid::SumW`]: the CPT plan and the per-query
    /// fold trees associate `f64` addition in RC-tree order and the linear
    /// plan in path-compression order, so answers can differ by rounding
    /// unless weights are integer-valued (recency weights are, as are all
    /// committed oracles' weights).
    pub fn batch_path_fold<M: PathMonoid>(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
    ) -> Vec<Option<M::Value>> {
        self.fold_core::<M>(h, queries, Cutoffs::None)
    }

    /// Batched fold over the structure's *current window*: `out[i]` folds
    /// `M` over `queries[i]`'s path in the window MSF, `None` if the pair
    /// is window-disconnected (or `u == v`). The fold analogue of
    /// [`QueryBatch::batch_window_connected`]: under lazy expiry the
    /// retained path is the window path exactly when its heaviest (=
    /// oldest) edge is unexpired (Lemma 5.1), so one filtered fold answers
    /// both existence and value; eager windows hold the window MSF and fold
    /// unfiltered.
    pub fn batch_window_path_fold<M: PathMonoid, W: WindowConnectivity>(
        &mut self,
        w: &W,
        queries: &[(VertexId, VertexId)],
    ) -> Vec<Option<M::Value>> {
        let h = ReadHandle::new(WindowConnectivity::msf(w));
        let cut = if w.lazy_expiry() {
            Cutoffs::Uniform(w.window_start())
        } else {
            Cutoffs::None
        };
        self.fold_core::<M>(h, queries, cut)
    }

    /// Batched window connectivity (`SwConn::is_connected` /
    /// `SwConnEager::is_connected`): `out[i]` answers `queries[i]` against
    /// the structure's current window.
    ///
    /// Lazy windows route through the path-max plan and apply the
    /// recent-edge test; eager windows route through
    /// [`QueryBatch::batch_connected`]'s root walks. Results are
    /// bit-identical to the per-query loop either way.
    pub fn batch_window_connected<W: WindowConnectivity>(
        &mut self,
        w: &W,
        queries: &[(VertexId, VertexId)],
    ) -> Vec<bool> {
        let h = ReadHandle::new(WindowConnectivity::msf(w));
        if w.lazy_expiry() {
            let pm = self.fold_core::<MaxW>(h, queries, Cutoffs::Uniform(w.window_start()));
            reached(queries, &pm)
        } else {
            // `batch_connected` already answers `u == v` as true (equal
            // roots), exactly like the eager structure's root comparison.
            self.batch_connected(h, queries)
        }
    }

    /// Generalized recent-edge test: `out[i]` answers `queries[i]` against
    /// the window suffix `[cutoffs[i], t)` rather than the structure's own
    /// window. This is the multi-tenant primitive — one shared path-max
    /// plan (linear pass or shared CPTs) answers a *mixed* batch from
    /// many tenants (cutoffs from [`WindowConnectivity::tenant_cutoff`]),
    /// and each tenant's cutoff is applied as a final O(1) per-query
    /// filter, never re-walking the shared work.
    ///
    /// Correct under both expiry disciplines for any `cutoff ≥ TW`: the
    /// retained MSF is the incremental MSF of a superset window, and
    /// Lemma 5.1 filters it to any suffix.
    ///
    /// # Panics
    ///
    /// Unless there is one cutoff per query, each at or above the window
    /// start (satisfied by construction for [`TenantSet`] cutoffs): a
    /// stale cutoff below `TW` would silently answer from expired edges,
    /// so it fails loudly instead, in every build profile.
    pub fn batch_connected_at<W: WindowConnectivity>(
        &mut self,
        w: &W,
        queries: &[(VertexId, VertexId)],
        cutoffs: &[u64],
    ) -> Vec<bool> {
        assert_eq!(queries.len(), cutoffs.len(), "one cutoff per query");
        assert!(
            cutoffs.iter().all(|&c| c >= w.window_start()),
            "stale cutoff below the window start {}",
            w.window_start()
        );
        let h = ReadHandle::new(WindowConnectivity::msf(w));
        let pm = self.fold_core::<MaxW>(h, queries, Cutoffs::Per(cutoffs));
        reached(queries, &pm)
    }
}

/// Window connectivity from the cutoff-filtered path-max answers `pm`:
/// `u == v` answers `true` (a vertex is connected to itself in any
/// window), any other pair whether its path survived the filter.
fn reached(queries: &[(VertexId, VertexId)], pm: &[Option<WKey>]) -> Vec<bool> {
    (queries.iter().zip(pm))
        .map(|(&(u, v), k)| u == v || k.is_some())
        .collect()
}

// `ReadHandle` must be shareable across worker threads; this is a
// compile-time proof (it fails to build if any substrate type grows
// interior mutability that breaks `Sync`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReadHandle<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msf() -> BatchMsf {
        let mut msf = BatchMsf::new(8, 11);
        msf.batch_insert(&[
            (0, 1, 3.0, 1),
            (1, 2, 7.0, 2),
            (2, 3, 1.0, 3),
            (4, 5, 2.0, 4),
            (5, 6, 9.0, 5),
        ]);
        msf
    }

    #[test]
    fn batch_apis_match_sequential_loops() {
        let msf = sample_msf();
        let h = ReadHandle::new(&msf);
        let mut q = QueryBatch::new();
        let pairs: Vec<(u32, u32)> = (0..8u32)
            .flat_map(|u| (0..8u32).map(move |v| (u, v)))
            .collect();
        assert_eq!(
            q.batch_connected(h, &pairs),
            pairs
                .iter()
                .map(|&(u, v)| msf.connected(u, v))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            q.batch_path_max(h, &pairs),
            pairs
                .iter()
                .map(|&(u, v)| msf.path_max(u, v))
                .collect::<Vec<_>>()
        );
        let vs: Vec<u32> = (0..8u32).collect();
        assert_eq!(
            q.batch_component_size(h, &vs),
            vs.iter()
                .map(|&v| msf.component_size(v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn scratch_is_reused_across_batches() {
        let msf = sample_msf();
        let h = ReadHandle::new(&msf);
        let mut q = QueryBatch::new();
        let pairs = vec![(0u32, 3u32); 4 * PATH_CHUNK];
        q.batch_path_max(h, &pairs);
        let chunks = q.path_ws.len();
        q.batch_path_max(h, &pairs);
        assert_eq!(q.path_ws.len(), chunks, "chunk scratch must be reused");
    }

    /// Runs [`QueryBatch::plan`] on `pairs` both ways — the linear pass
    /// and the CPT plan on the whole batch — and the CPT plan once more on
    /// each pair as a one-query batch, the route below [`SHARED_CPT_MIN`].
    /// All three must return `want`.
    fn assert_routes<M: PathMonoid>(
        q: &mut QueryBatch,
        h: ReadHandle<'_>,
        pairs: &[(u32, u32)],
        cut: Cutoffs<'_>,
        want: &[Option<M::Value>],
        what: &str,
    ) {
        assert_eq!(q.plan::<M>(h, pairs, cut, true), want, "linear {what}");
        assert_eq!(q.plan::<M>(h, pairs, cut, false), want, "CPT {what}");
        for (i, pair) in pairs.iter().enumerate() {
            let one = match cut {
                Cutoffs::Per(cs) => Cutoffs::Per(&cs[i..=i]),
                other => other,
            };
            let got = q.plan::<M>(h, std::slice::from_ref(pair), one, false);
            assert_eq!(got, [want[i]], "per-query CPT {what}, pair {pair:?}");
        }
    }

    /// Checks every route of [`QueryBatch::plan`] ([`assert_routes`]) for
    /// path-max against the per-query [`BatchMsf::path_max`]; then does the
    /// same for the folds of `MaxW`, `MinW`, `SumW` and `Hops`, each under a
    /// uniform and a per-query cutoff, against the binary-lifting referee
    /// [`oracle`]. `SumW` compares exactly only on integer-valued weights,
    /// which every fixture uses.
    fn assert_plans_agree(msf: &BatchMsf, pairs: &[(u32, u32)]) {
        use bimst_primitives::monoid::{Hops, MinW, SumW};
        let h = ReadHandle::new(msf);
        let mut q = QueryBatch::new();
        let want: Vec<Option<WKey>> = pairs.iter().map(|&(u, v)| msf.path_max(u, v)).collect();
        assert_routes::<MaxW>(&mut q, h, pairs, Cutoffs::None, &want, "path-max");
        assert_fold_plans_agree::<MaxW>(&mut q, msf, pairs);
        assert_fold_plans_agree::<MinW>(&mut q, msf, pairs);
        assert_fold_plans_agree::<SumW>(&mut q, msf, pairs);
        assert_fold_plans_agree::<Hops>(&mut q, msf, pairs);
    }

    /// The independent fold referee: `Pair<MaxW, M>` folds by binary
    /// lifting over the MSF's real edges ([`ForestPathFold`]; no CPT).
    fn oracle<M: PathMonoid>(msf: &BatchMsf) -> ForestPathFold<Pair<MaxW, M>> {
        let edges: Vec<_> = msf.iter_msf_edges().map(|(_, u, v, k)| (u, v, k)).collect();
        ForestPathFold::new(msf.num_vertices(), &edges)
    }

    /// The referee's answers to `pairs`, without cutoffs.
    fn oracle_folds<M: PathMonoid>(msf: &BatchMsf, pairs: &[(u32, u32)]) -> Vec<Option<M::Value>> {
        let o = oracle::<M>(msf);
        pairs
            .iter()
            .map(|&(u, v)| o.query(u, v).map(|(_, val)| val))
            .collect()
    }

    /// The fold half of [`assert_plans_agree`] for one monoid. Cutoffs
    /// span the forest's edge ids, so some answers pass and some do not.
    /// The per-query [`BatchMsf::path_fold`] must match the referee too.
    fn assert_fold_plans_agree<M: PathMonoid>(
        q: &mut QueryBatch,
        msf: &BatchMsf,
        pairs: &[(u32, u32)],
    ) {
        use bimst_primitives::hash::hash2;
        let h = ReadHandle::new(msf);
        let top = msf.iter_msf_edges().map(|(.., k)| k.id).max().unwrap_or(0);
        let per: Vec<u64> = (0..pairs.len() as u64)
            .map(|i| hash2(7, i) % (top + 2))
            .collect();
        let o = oracle::<M>(msf);
        let referee: Vec<_> = pairs.iter().map(|&(u, v)| o.query(u, v)).collect();
        let engine: Vec<_> = pairs
            .iter()
            .map(|&(u, v)| msf.path_fold::<Pair<MaxW, M>>(u, v))
            .collect();
        assert_eq!(engine, referee, "per-query fold");
        for cut in [Cutoffs::Uniform(top / 2), Cutoffs::Per(&per)] {
            let want: Vec<Option<M::Value>> = referee
                .iter()
                .enumerate()
                .map(|(i, p)| p.and_then(|(mk, val)| (mk.id >= cut.get(i)).then_some(val)))
                .collect();
            assert_routes::<M>(q, h, pairs, cut, &want, "fold plan");
        }
    }

    /// Every ordered pair of `0..n`, plus `u == v`.
    fn all_pairs(n: u32) -> Vec<(u32, u32)> {
        (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
    }

    #[test]
    fn path_max_plans_agree_across_components_and_isolated_vertices() {
        // Three trees and an isolated vertex (7).
        assert_plans_agree(&sample_msf(), &all_pairs(8));
        // A sparse random graph: many small trees, isolated vertices, and
        // more queries than one CPT chunk holds.
        use bimst_primitives::hash::hash2;
        // Weights are rounded to integers for the exact `SumW` check
        // (repeats let ids break ties).
        let n = 300u32;
        let mut msf = BatchMsf::new(n as usize, 5);
        let edges: Vec<(u32, u32, f64, u64)> = bimst_graphgen::erdos_renyi(n, 200, 8)
            .into_iter()
            .map(|(u, v, w, id)| (u, v, (w * 64.0).floor(), id))
            .collect();
        msf.batch_insert(&edges);
        assert!(msf.num_components() > 50);
        let pairs: Vec<(u32, u32)> = (0..3 * PATH_CHUNK as u64)
            .map(|i| {
                (
                    (hash2(1, i) % n as u64) as u32,
                    (hash2(2, i) % n as u64) as u32,
                )
            })
            .collect();
        assert_plans_agree(&msf, &pairs);
    }

    #[test]
    fn path_max_plans_agree_on_self_and_repeated_pairs() {
        let msf = sample_msf();
        let mut pairs = vec![(0u32, 3u32); 20];
        pairs.extend([(3, 0), (2, 2), (7, 7), (7, 0), (5, 5), (6, 4), (4, 6)]);
        pairs.extend(vec![(1, 1); 20]);
        assert_plans_agree(&msf, &pairs);
    }

    #[test]
    fn path_max_plans_agree_through_star_spines() {
        // Two stars of degree 40 and 25 (their centres are ternarized into
        // spines of phantom edges) joined leaf to leaf, so paths run
        // through both spines.
        let mut msf = BatchMsf::new(80, 3);
        let mut edges: Vec<(u32, u32, f64, u64)> = (1..41u32)
            .map(|v| (0, v, ((v * 37) % 41) as f64, v as u64))
            .collect();
        edges.extend((42..67u32).map(|v| (41, v, ((v * 11) % 25) as f64 - 10.0, v as u64)));
        edges.push((40, 66, 100.0, 1000));
        msf.batch_insert(&edges);
        assert_plans_agree(&msf, &all_pairs(80));
    }

    #[test]
    fn path_max_plans_agree_on_an_empty_forest() {
        assert_plans_agree(&BatchMsf::new(12, 1), &all_pairs(12));
    }

    #[test]
    fn linear_plan_covers_the_forest_and_nothing_smaller() {
        // analytics: n = 2^14, 1024-pair batches.
        assert!(QueryBatch::use_linear(1 << 14, 1024));
        // ingest: n = 2^16, 16-pair batches; serve_small: single queries.
        assert!(!QueryBatch::use_linear(1 << 16, 16));
        assert!(!QueryBatch::use_linear(1 << 20, 1));
        // A large forest keeps the shared CPTs even at 4096-query batches.
        assert!(!QueryBatch::use_linear(1_000_000, 4096));
        // At n = 50 000 the boundary falls between 64 and 4096 queries:
        // the large batch covers the forest, the small one does not.
        assert!(QueryBatch::use_linear(50_000, 4096));
        assert!(!QueryBatch::use_linear(50_000, 64));
        // Below SHARED_CPT_MIN the per-query walks stay, however small n.
        assert!(!QueryBatch::use_linear(8, SHARED_CPT_MIN - 1));
        assert!(QueryBatch::use_linear(8, SHARED_CPT_MIN));
    }

    #[test]
    fn linear_plan_scratch_is_flat_at_steady_state() {
        use bimst_primitives::hash::hash2;
        use bimst_primitives::monoid::{Hops, MinW, SumW};
        let n = 256u32;
        let mut lazy = SwConn::new(n as usize, 4);
        let edges: Vec<(u32, u32)> = (0..600u64)
            .map(|i| {
                (
                    (hash2(3, i) % n as u64) as u32,
                    (hash2(4, i) % n as u64) as u32,
                )
            })
            .filter(|&(u, v)| u != v)
            .collect();
        lazy.batch_insert(&edges);
        lazy.batch_expire(100);
        let batch = |seed: u64| -> Vec<(u32, u32)> {
            (0..512u64)
                .map(|i| {
                    (
                        (hash2(seed, i) % n as u64) as u32,
                        (hash2(seed + 1, i) % n as u64) as u32,
                    )
                })
                .collect()
        };
        assert!(QueryBatch::use_linear(n as usize, 512));
        let h = ReadHandle::new(lazy.msf());
        let mut q = QueryBatch::new();
        // Interleaved max-summary and non-max folds: the path-max pass and
        // the fold pass each keep their untyped buffers across kinds (the
        // fold pass's `M`-typed value buffer and the answer vectors are
        // per-batch allocations, not scratch).
        let serve = |q: &mut QueryBatch, seed: u64| {
            let pairs = batch(seed);
            q.batch_path_max(h, &pairs);
            q.batch_path_fold::<MinW>(h, &pairs);
            q.batch_window_connected(&lazy, &pairs);
            q.batch_window_path_fold::<SumW, _>(&lazy, &pairs);
            q.batch_path_fold::<MaxW>(h, &pairs);
            q.batch_path_fold::<Hops>(h, &pairs);
        };
        let high_water = |q: &QueryBatch| {
            q.linear.high_water() + q.fold.high_water() + q.pm_buf.capacity() + q.path_ws.len()
        };
        serve(&mut q, 10);
        let cap = high_water(&q);
        for seed in 11..20 {
            serve(&mut q, seed);
            assert_eq!(
                high_water(&q),
                cap,
                "linear-plan scratch grew on batch {seed}"
            );
        }
        assert_eq!(
            q.path_ws.len(),
            0,
            "no CPT chunk scratch on the linear plan"
        );
    }

    #[test]
    fn batch_path_fold_matches_engine_folds() {
        use bimst_primitives::monoid::{Hops, MinW, SumW};
        let msf = sample_msf();
        let h = ReadHandle::new(&msf);
        let mut q = QueryBatch::new();
        // 64 queries over 8 vertices: the linear fold plan.
        let pairs: Vec<(u32, u32)> = (0..8u32)
            .flat_map(|u| (0..8u32).map(move |v| (u, v)))
            .collect();
        assert_eq!(
            q.batch_path_fold::<MaxW>(h, &pairs),
            q.batch_path_max(h, &pairs)
        );
        assert_eq!(
            q.batch_path_fold::<MinW>(h, &pairs),
            oracle_folds::<MinW>(&msf, &pairs)
        );
        assert_eq!(
            q.batch_path_fold::<Hops>(h, &pairs),
            oracle_folds::<Hops>(&msf, &pairs)
        );
        // Integer weights: every association order is bit-equal.
        assert_eq!(
            q.batch_path_fold::<SumW>(h, &pairs),
            oracle_folds::<SumW>(&msf, &pairs)
        );
        // Pair composes componentwise through the batch plan too.
        let pr = q.batch_path_fold::<Pair<MinW, Hops>>(h, &pairs);
        let mn = q.batch_path_fold::<MinW>(h, &pairs);
        let hp = q.batch_path_fold::<Hops>(h, &pairs);
        for ((p, m), hh) in pr.iter().zip(&mn).zip(&hp) {
            assert_eq!(p.map(|x| x.0), *m);
            assert_eq!(p.map(|x| x.1), *hh);
        }
    }

    #[test]
    fn fold_small_batches_take_per_query_trees() {
        use bimst_primitives::monoid::Hops;
        let msf = sample_msf();
        let h = ReadHandle::new(&msf);
        let mut q = QueryBatch::new();
        // Below SHARED_CPT_MIN: one 2-mark fold tree per query.
        let pairs = [(0u32, 3u32), (4, 6), (2, 2), (0, 4), (6, 4)];
        assert_eq!(
            q.batch_path_fold::<Hops>(h, &pairs),
            oracle_folds::<Hops>(&msf, &pairs)
        );
    }

    #[test]
    fn cpt_fold_plan_scratch_is_flat_at_steady_state() {
        // The ingest shape: an eager window over n = 2^16 vertices at
        // degree 2, queried in 16-pair batches — the CPT fold plan, one
        // shared fold tree per batch.
        use bimst_primitives::hash::hash2;
        use bimst_primitives::monoid::{Hops, MinW, SumW};
        let n = 1u32 << 16;
        assert!(!QueryBatch::use_linear(n as usize, 16));
        let mut eager = SwConnEager::new(n as usize, 7);
        let edges: Vec<(u32, u32)> = (0..n as u64)
            .map(|i| {
                (
                    (hash2(5, i) % n as u64) as u32,
                    (hash2(6, i) % n as u64) as u32,
                )
            })
            .filter(|&(u, v)| u != v)
            .collect();
        eager.batch_insert(&edges);
        let h = ReadHandle::new(eager.msf());
        let batch = |seed: u64| -> Vec<(u32, u32)> {
            (0..16u64)
                .map(|i| {
                    (
                        (hash2(seed, i) % n as u64) as u32,
                        (hash2(seed + 1, i) % n as u64) as u32,
                    )
                })
                .collect()
        };
        let mut q = QueryBatch::new();
        let serve = |q: &mut QueryBatch, seed: u64| {
            let pairs = batch(seed);
            q.batch_path_fold::<MinW>(h, &pairs);
            q.batch_path_fold::<SumW>(h, &pairs);
            q.batch_path_fold::<Hops>(h, &pairs);
        };
        // Warm up on the batches the steady state then repeats: the
        // `M`-typed fold trees and oracles are per-chunk allocations, every
        // other chunk buffer must be reused.
        for seed in 0..8 {
            serve(&mut q, 10 * seed);
        }
        assert_eq!(q.path_ws.len(), 1, "one chunk per 16-pair batch");
        let cap = q.path_ws[0].high_water();
        assert!(cap > 0);
        for round in 0..3 {
            for seed in 0..8 {
                serve(&mut q, 10 * seed);
                assert_eq!(
                    q.path_ws[0].high_water(),
                    cap,
                    "chunk scratch grew on round {round}, batch {seed}"
                );
            }
        }
    }

    /// The fold of `M` at per-query `cutoffs` on `w`'s structure, through
    /// [`QueryBatch::plan`]; both plans must agree.
    fn fold_at<M: PathMonoid, W: WindowConnectivity>(
        q: &mut QueryBatch,
        w: &W,
        queries: &[(u32, u32)],
        cutoffs: &[u64],
    ) -> Vec<Option<M::Value>> {
        let h = ReadHandle::new(WindowConnectivity::msf(w));
        let linear = q.plan::<M>(h, queries, Cutoffs::Per(cutoffs), true);
        let cpt = q.plan::<M>(h, queries, Cutoffs::Per(cutoffs), false);
        assert_eq!(linear, cpt, "linear and CPT plans disagree at cutoffs");
        linear
    }

    #[test]
    fn fold_cutoff_and_window_plans_agree_with_connectivity() {
        use bimst_primitives::monoid::Hops;
        let mut lazy = SwConn::new(6, 3);
        lazy.batch_insert(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let queries: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|u| (0..6u32).map(move |v| (u, v)))
            .collect();
        let mut q = QueryBatch::new();
        // Window fold: present exactly when window-connected and u != v.
        let wf = q.batch_window_path_fold::<Hops, _>(&lazy, &queries);
        let wc = q.batch_window_connected(&lazy, &queries);
        for ((&(u, v), f), &c) in queries.iter().zip(&wf).zip(&wc) {
            assert_eq!(f.is_some(), c && u != v, "({u},{v})");
        }
        // Cutoff folds: present exactly when connected at the cutoff, and
        // the hop count is the full path length (the retained path *is*
        // the window path whenever its oldest edge is unexpired).
        for cut in 0..=4u64 {
            let cutoffs = vec![cut; queries.len()];
            let fl = fold_at::<Hops, _>(&mut q, &lazy, &queries, &cutoffs);
            let conn = q.batch_connected_at(&lazy, &queries, &cutoffs);
            let pm = fold_at::<MaxW, _>(&mut q, &lazy, &queries, &cutoffs);
            for (((&(u, v), f), &c), k) in queries.iter().zip(&fl).zip(&conn).zip(&pm) {
                assert_eq!(f.is_some(), c && u != v, "cutoff {cut} ({u},{v})");
                assert_eq!(f.is_some(), k.is_some(), "cutoff {cut} ({u},{v})");
                if let Some(hops) = f {
                    assert_eq!(*hops, u.abs_diff(v) as u64, "chain distance");
                }
            }
        }
    }

    #[test]
    fn window_connected_lazy_and_eager() {
        let mut lazy = SwConn::new(6, 3);
        let mut eager = SwConnEager::new(6, 4);
        let batch = [(0u32, 1u32), (1, 2), (3, 4)];
        lazy.batch_insert(&batch);
        eager.batch_insert(&batch);
        lazy.batch_expire(1);
        eager.batch_expire(1);
        let queries: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|u| (0..6u32).map(move |v| (u, v)))
            .collect();
        let mut q = QueryBatch::new();
        assert_eq!(
            q.batch_window_connected(&lazy, &queries),
            queries
                .iter()
                .map(|&(u, v)| lazy.is_connected(u, v))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            q.batch_window_connected(&eager, &queries),
            queries
                .iter()
                .map(|&(u, v)| eager.is_connected(u, v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn read_handle_crosses_threads() {
        let msf = sample_msf();
        let h = ReadHandle::new(&msf);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut q = QueryBatch::new();
                        q.batch_connected(h, &[(0, 3), (0, 4)])
                    })
                })
                .collect();
            for w in workers {
                assert_eq!(w.join().unwrap(), vec![true, false]);
            }
        });
    }

    #[test]
    fn thread_count_does_not_change_answers() {
        let msf = sample_msf();
        let h = ReadHandle::new(&msf);
        let pairs = vec![(0u32, 3u32), (2, 6), (4, 6), (7, 7)];
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut q = QueryBatch::new();
                (q.batch_connected(h, &pairs), q.batch_path_max(h, &pairs))
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn empty_batches() {
        let msf = sample_msf();
        let h = ReadHandle::new(&msf);
        let mut q = QueryBatch::new();
        assert!(q.batch_connected(h, &[]).is_empty());
        assert!(q.batch_path_max(h, &[]).is_empty());
        assert!(q.batch_component_size(h, &[]).is_empty());
    }

    #[test]
    fn cutoff_plans_match_per_query_filters() {
        // One lazy window, three nested cutoffs: each query answered at its
        // own cutoff must equal a window whose start *is* that cutoff.
        let mut lazy = SwConn::new(6, 3);
        lazy.batch_insert(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let queries: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|u| (0..6u32).map(move |v| (u, v)))
            .collect();
        let mut q = QueryBatch::new();
        for cut in 0..=4u64 {
            let cutoffs = vec![cut; queries.len()];
            let got = q.batch_connected_at(&lazy, &queries, &cutoffs);
            let mut reference = SwConn::new(6, 3);
            reference.batch_insert(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
            reference.expire_before(cut);
            let expect: Vec<bool> = queries
                .iter()
                .map(|&(u, v)| reference.is_connected(u, v))
                .collect();
            assert_eq!(got, expect, "cutoff {cut}");
            // Max fold at the cutoff: present iff connected there (u != v).
            let pm = fold_at::<MaxW, _>(&mut q, &lazy, &queries, &cutoffs);
            for ((&(u, v), k), &conn) in queries.iter().zip(&pm).zip(&got) {
                assert_eq!(k.is_some(), conn && u != v, "cutoff {cut} ({u},{v})");
            }
        }
    }

    #[test]
    fn cutoff_plans_work_on_eager_windows() {
        // Any cutoff ≥ the eager window's own start filters its retained
        // window MSF by Lemma 5.1.
        let mut eager = SwConnEager::new(5, 9);
        eager.batch_insert(&[(0, 1), (1, 2), (2, 3)]);
        eager.batch_expire(1); // window [1, 3): edge (0,1) cut
        let queries = [(0u32, 1u32), (1, 2), (1, 3), (2, 3)];
        let mut q = QueryBatch::new();
        assert_eq!(
            q.batch_connected_at(&eager, &queries, &[1, 1, 1, 1]),
            vec![false, true, true, true]
        );
        assert_eq!(
            q.batch_connected_at(&eager, &queries, &[2, 2, 2, 2]),
            vec![false, false, false, true]
        );
    }

    #[test]
    fn mixed_tenant_batch_matches_sequential() {
        use bimst_sliding::TenantSpec;
        let specs = [
            TenantSpec { id: 0, window: 64 },
            TenantSpec { id: 1, window: 8 },
            TenantSpec { id: 2, window: 2 },
        ];
        let mut ts = TenantSet::new(10, 5, &specs);
        let mut q = QueryBatch::new();
        for round in 0..12u32 {
            let batch: Vec<(u32, u32)> = (0..5)
                .map(|k| ((round + k) % 10, (round + 3 * k + 1) % 10))
                .collect();
            ts.batch_insert(&batch);
            let mixed: Vec<(u32, u32, u32)> = (0..10u32)
                .flat_map(|u| (0..10u32).map(move |v| ((u + v) % 3, u, v)))
                .collect();
            let (pairs, cutoffs): (Vec<_>, Vec<_>) = mixed
                .iter()
                .map(|&(ten, u, v)| ((u, v), ts.cutoff(ten).unwrap()))
                .unzip();
            let got = q.batch_connected_at(&ts, &pairs, &cutoffs);
            let expect: Vec<bool> = mixed
                .iter()
                .map(|&(ten, u, v)| ts.is_connected(ten, u, v))
                .collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "stale cutoff")]
    fn stale_cutoff_fails_loudly() {
        let mut lazy = SwConn::new(4, 1);
        lazy.batch_insert(&[(0, 1), (1, 2)]);
        lazy.expire_before(2);
        // Cutoff 1 < window start 2: would silently read expired edges.
        QueryBatch::new().batch_connected_at(&lazy, &[(0, 1)], &[1]);
    }
}
