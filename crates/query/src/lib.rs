//! Snapshot-consistent, batch-parallel queries over the batch-incremental
//! MSF and the sliding-window structures.
//!
//! PRs 1–2 made the *write* path (batch insert) fast; this crate is the
//! read half. The sequential query surface ([`BatchMsf::connected`],
//! [`BatchMsf::path_max`], `SwConn::is_connected`, …) answers one query per
//! `O(lg n)` root walk. A serving workload asks queries in *batches*.
//! Connectivity and component-size batches keep one root walk per query,
//! run in parallel over the batch above the grain size: deduplicating a
//! batch's endpoints first saved nothing measurable end to end. Path
//! batches admit the shared-work tricks the paper's write path uses:
//!
//! * **Shared compressed path trees.** A chunk of path-max queries is
//!   answered from **one** compressed path tree over the chunk's distinct
//!   endpoints — the CPT preserves *all pairwise* heaviest-path edges
//!   (Theorem 3.1), so a single `O(ℓ lg(1 + n/ℓ))` expansion plus a static
//!   [`ForestPathMax`] oracle replaces `ℓ` independent 2-mark CPT walks.
//!   This is the paper's own structure doing double duty as a query
//!   accelerator. The same chunking serves [`PathMonoid`] folds
//!   ([`QueryBatch::batch_path_fold`]) on batches the linear rule below
//!   rejects: the chunk's tree is built as a `Pair<MaxW, M>` *fold tree*
//!   ([`fold_path_tree_with`]), whose edges carry their segment's heaviest
//!   key and its fold of `M`, and a generic [`ForestPathFold`] oracle
//!   combines the segments of each query.
//! * **A linear plan for batches that cover the forest.** The CPT bound
//!   `O(m lg(1 + n/m))` for `m` marks is `Θ(n)` once a batch's endpoints
//!   cover the forest, and then one pass over the whole forest is cheaper
//!   than a CPT per chunk. Every batch of `q ≥ 16` queries with
//!   `n ≤ 8 · m · lg(1 + n/m)` for `m = 2q` takes a linear pass over the
//!   MSF's real edges, whatever its monoid:
//!   - max-summary batches (path-max, lazy window connectivity, `MaxW`
//!     folds, tenant cutoffs) take one union pass in key order
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

use bimst_core::cpt::{fold_path_tree_with, CptScratch};
use bimst_core::{BatchMsf, Cpt};
use bimst_msf::{ForestPathFold, ForestPathMax, KruskalPathMax, OfflinePathFold};
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

    /// Single-query convenience: [`BatchMsf::connected`].
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.msf.connected(u, v)
    }

    /// Single-query convenience: [`BatchMsf::path_max`].
    pub fn path_max(&self, u: VertexId, v: VertexId) -> Option<WKey> {
        self.msf.path_max(u, v)
    }

    /// Single-query convenience: [`BatchMsf::path_fold`].
    pub fn path_fold<M: PathMonoid>(&self, u: VertexId, v: VertexId) -> Option<M::Value> {
        self.msf.path_fold::<M>(u, v)
    }

    /// Single-query convenience: [`BatchMsf::component_size`].
    pub fn component_size(&self, v: VertexId) -> usize {
        self.msf.component_size(v)
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
/// the `*_at` plans.
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

/// The canonical cutoff argument of the batch cores. Every public path /
/// fold / window variant is a thin wrapper that picks one of these and
/// delegates; the cores apply `get(i)` as the recent-edge threshold of
/// query `i`. `None` compares ids against 0, which every edge passes, so
/// the unfiltered plans share the filtered code path with no extra branch.
#[derive(Clone, Copy)]
enum Cutoffs<'c> {
    /// No recency filter (plain structure queries).
    None,
    /// One threshold for the whole batch (a window's own start).
    Uniform(u64),
    /// Per-query thresholds (mixed multi-tenant batches).
    Per(&'c [u64]),
}

impl<'c> Cutoffs<'c> {
    /// The threshold applied to query `i`.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Cutoffs::None => 0,
            Cutoffs::Uniform(c) => *c,
            Cutoffs::Per(cs) => cs[i],
        }
    }

    /// The thresholds of the queries in `r`.
    fn slice(self, r: std::ops::Range<usize>) -> Cutoffs<'c> {
        match self {
            Cutoffs::Per(cs) => Cutoffs::Per(&cs[r]),
            other => other,
        }
    }
}

/// Queries per chunk of [`QueryBatch::batch_path_max`]: each chunk is
/// answered from one shared CPT over its distinct endpoints. Fixed (not a
/// function of thread count) so the work partition — and therefore every
/// intermediate — is deterministic; answers are value-deterministic either
/// way. 512 queries ≈ ≤1024 marks keeps the chunk's CPT and oracle
/// cache-resident while leaving enough chunks to parallelize over on
/// realistic batch sizes.
const PATH_CHUNK: usize = 512;

/// Per-chunk scratch for the path-max plan: a CPT workspace plus the
/// relabeling and edge buffers feeding the static oracle. Lives in
/// [`QueryBatch`] so steady-state batches reuse capacity chunk-for-chunk.
#[derive(Default)]
struct PathChunkScratch {
    marks: Vec<VertexId>,
    cpt_ws: CptScratch,
    cpt: Cpt,
    /// CPT vertex → dense label. A small hash map, not a slot table: it
    /// holds `O(chunk)` entries probed a few times each, and per-chunk
    /// O(n) tables would multiply by the chunk count (the PR 2 lesson:
    /// compact-and-warm beats hash-free-but-cold at small ℓ).
    label: FxHashMap<VertexId, u32>,
    edges: Vec<(u32, u32, WKey)>,
}

/// Below this many queries a chunk skips the shared CPT and answers each
/// query with its own 2-mark CPT on the reused scratch — the sequential
/// algorithm minus its allocations. The shared tree + oracle only amortize
/// once a chunk carries enough queries to split their setup cost.
const SHARED_CPT_MIN: usize = 16;

/// Work constant of the path-max plan choice: the linear Kruskal-order
/// pass (`O(n)` over the whole forest) is taken when
/// `n ≤ LINEAR_C · m · lg(1 + n/m)` for a batch of `m = 2q` endpoint marks,
/// i.e. when the shared CPTs' `O(m lg(1 + n/m))` expansion would cost at
/// least a `1/LINEAR_C` share of touching every vertex. Fixed from the
/// measured crossover (see the crate docs).
const LINEAR_C: f64 = 8.0;

impl PathChunkScratch {
    /// Combined capacity (in elements) of the chunk's reusable buffers
    /// (the label map is excluded, as in [`CptScratch::high_water`]).
    #[cfg(test)]
    fn high_water(&self) -> usize {
        self.marks.capacity()
            + self.cpt_ws.high_water()
            + self.cpt.vertices.capacity()
            + self.cpt.edges.capacity()
            + self.edges.capacity()
    }

    /// The prologue `run` and `run_fold` share: builds one path tree of `M`
    /// into `tree` over the chunk's distinct `u ≠ v` endpoints and labels
    /// its vertices densely (every mark is in the tree, isolated ones as
    /// singletons, so lookups are total). Returns `false`, every answer
    /// written, for a chunk of `u == v` pairs only, or for a chunk below
    /// [`SHARED_CPT_MIN`]: that one answers each query from its own 2-mark
    /// tree on the reused scratch, `out[i] = answer(i, fold)`.
    fn shared_tree<M: PathMonoid, V>(
        &mut self,
        f: &RcForest,
        queries: &[(VertexId, VertexId)],
        tree: &mut Cpt<M::Value>,
        out: &mut [Option<V>],
        answer: impl Fn(usize, M::Value) -> Option<V>,
    ) -> bool {
        if queries.len() < SHARED_CPT_MIN {
            for (i, (slot, &(u, v))) in out.iter_mut().zip(queries).enumerate() {
                *slot = if u == v {
                    None
                } else {
                    fold_path_tree_with::<M>(f, &[u, v], &mut self.cpt_ws, tree);
                    debug_assert!(tree.edges.len() <= 1);
                    tree.edges.first().and_then(|e| answer(i, e.key))
                };
            }
            return false;
        }
        self.marks.clear();
        for &(u, v) in queries {
            if u != v {
                self.marks.push(u);
                self.marks.push(v);
            }
        }
        if self.marks.is_empty() {
            out.fill_with(|| None);
            return false;
        }
        self.marks.sort_unstable();
        self.marks.dedup();
        fold_path_tree_with::<M>(f, &self.marks, &mut self.cpt_ws, tree);
        self.label.clear();
        for (i, &v) in tree.vertices.iter().enumerate() {
            self.label.insert(v, i as u32);
        }
        true
    }

    /// Answers `queries` into `out` (same length) from one shared CPT plus
    /// a static path-max oracle over its compressed edges.
    fn run(&mut self, f: &RcForest, queries: &[(VertexId, VertexId)], out: &mut [Option<WKey>]) {
        let mut cpt = std::mem::take(&mut self.cpt);
        if self.shared_tree::<MaxW, _>(f, queries, &mut cpt, out, |_, k| Some(k)) {
            self.edges.clear();
            self.edges.extend(
                cpt.edges
                    .iter()
                    .map(|e| (self.label[&e.u], self.label[&e.v], e.key)),
            );
            let pm = ForestPathMax::new(cpt.vertices.len(), &self.edges);
            for (slot, &(u, v)) in out.iter_mut().zip(queries) {
                *slot = if u == v {
                    None
                } else {
                    pm.query(self.label[&u], self.label[&v])
                };
            }
        }
        self.cpt = cpt;
    }

    /// Answers a *non-max* fold chunk, cutoff-filtered: `out[i]` is the
    /// fold of `M` over `queries[i]`'s path if its heaviest edge passes
    /// `cut.get(i)`, else `None`.
    ///
    /// One fold tree of `Pair<MaxW, M>` over the chunk's endpoints
    /// ([`fold_path_tree_with`]) labels every compressed edge with its
    /// segment's heaviest key — the Lemma 5.1 recency witness — and its
    /// fold of `M`; a [`ForestPathFold::from_values`] oracle over those
    /// labels combines the segments of each query. Chunks below
    /// [`SHARED_CPT_MIN`] build one 2-mark fold tree per query instead.
    fn run_fold<M: PathMonoid>(
        &mut self,
        f: &RcForest,
        queries: &[(VertexId, VertexId)],
        cut: Cutoffs<'_>,
        out: &mut [Option<M::Value>],
    ) {
        let answer = |i, (mk, val): (WKey, M::Value)| (mk.id >= cut.get(i)).then_some(val);
        // The labels are `M`-typed and so cannot live in the (untyped)
        // scratch; this per-chunk allocation mirrors the per-chunk oracle
        // build in `run`.
        let mut tree = Cpt::default();
        if !self.shared_tree::<Pair<MaxW, M>, _>(f, queries, &mut tree, out, answer) {
            return;
        }
        let edges: Vec<_> = tree
            .edges
            .iter()
            .map(|e| (self.label[&e.u], self.label[&e.v], e.key))
            .collect();
        let pf = ForestPathFold::<Pair<MaxW, M>>::from_values(tree.vertices.len(), &edges);
        for (i, (slot, &(u, v))) in out.iter_mut().zip(queries).enumerate() {
            *slot = if u == v {
                None
            } else {
                pf.query(self.label[&u], self.label[&v])
                    .and_then(|x| answer(i, x))
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
    /// `query_pathmax_chunks`: CPT chunks built by the path-max and fold
    /// plans (the linear plan builds none).
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
/// path-max plan additionally builds a fresh per-chunk [`ForestPathMax`]
/// oracle (binary-lifting tables sized by the chunk, not the structure); the linear path-max plan reuses its sort, union-find
/// and list buffers and allocates nothing at steady state; the linear fold
/// plan reuses its untyped buffers and allocates only its `M`-typed
/// per-vertex fold buffer. Every entry point returns a fresh answer
/// vector. One `QueryBatch` serves one thread of control; the parallelism
/// is *inside* each call.
#[derive(Default)]
pub struct QueryBatch {
    /// Per-chunk scratch for the path-max / lazy-window plans.
    path_ws: Vec<PathChunkScratch>,
    /// Path-max answers reused by the windowed-connectivity and
    /// max-summary fold cores.
    pm_buf: Vec<Option<WKey>>,
    /// Sort, union-find and pending-list buffers of the linear path-max
    /// plan.
    linear: KruskalPathMax,
    /// Adjacency, sweep, union-find and list buffers of the linear fold
    /// plan.
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
    /// Batches that cover the forest take the linear Kruskal-order plan
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

    /// The path-max plan every max-summary fold and every
    /// windowed-connectivity core builds on: `out[i]` is the heaviest key
    /// on `queries[i]`'s MSF path. Picks the linear Kruskal-order pass
    /// when the batch covers the forest ([`QueryBatch::use_linear`]),
    /// else the chunked shared-CPT plan; both answer identically.
    fn path_max_plan_into(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        out: &mut Vec<Option<WKey>>,
    ) {
        let o = qobs();
        o.batch_size.record(queries.len() as u64);
        if Self::use_linear(h.msf.num_vertices(), queries.len()) {
            o.plan_linear.inc();
            self.linear_plan_into(h, queries, out);
        } else {
            self.cpt_plan_into(h, queries, out);
        }
    }

    /// Whether a linear pass (Kruskal-order for max-summary batches, the
    /// offline path-fold sweep for other folds) beats the chunked CPT plan
    /// on a batch of `nqueries` over `n` vertices: the CPT plan's
    /// `O(m lg(1 + n/m))` for `m = 2·nqueries` marks reaches the pass's
    /// `O(n)` once the marks cover the forest (see [`LINEAR_C`]). Batches
    /// below [`SHARED_CPT_MIN`] keep the per-query walks and fold trees.
    fn use_linear(n: usize, nqueries: usize) -> bool {
        if nqueries < SHARED_CPT_MIN {
            return false;
        }
        let (n, m) = (n as f64, 2.0 * nqueries as f64);
        n <= LINEAR_C * m * (1.0 + n / m).log2()
    }

    /// The linear plan: one sequential union pass over the MSF's real
    /// edges in key order ([`KruskalPathMax`]), reusing its buffers.
    fn linear_plan_into(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        out: &mut Vec<Option<WKey>>,
    ) {
        out.resize(queries.len(), None); // `run` overwrites every slot
        let edges = h.msf.iter_msf_edges().map(|(_, u, v, k)| (u, v, k));
        self.linear.run(h.msf.num_vertices(), edges, queries, out);
    }

    /// The shared-CPT plan (chunked, parallel, scratch-reusing): each
    /// [`PATH_CHUNK`] of queries is answered from one compressed path tree
    /// over its distinct endpoints plus a static path-max oracle.
    fn cpt_plan_into(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        out: &mut Vec<Option<WKey>>,
    ) {
        let f = h.msf.forest();
        self.par_chunks(queries, Cutoffs::None, out, |ws, q, _, o| ws.run(f, q, o));
    }

    /// The chunk driver of the CPT plans: cuts `queries` into
    /// [`PATH_CHUNK`]s and runs `chunk` on each in parallel, with the
    /// chunk's reused scratch, queries, cutoffs and window of `out` (cleared
    /// and resized to the batch first).
    fn par_chunks<V: Send + Clone>(
        &mut self,
        queries: &[(VertexId, VertexId)],
        cutoffs: Cutoffs<'_>,
        out: &mut Vec<Option<V>>,
        chunk: impl Fn(&mut PathChunkScratch, &[(VertexId, VertexId)], Cutoffs<'_>, &mut [Option<V>])
            + Sync,
    ) {
        out.clear();
        out.resize(queries.len(), None);
        let nchunks = queries.len().div_ceil(PATH_CHUNK);
        qobs().pathmax_chunks.add(nchunks as u64);
        if self.path_ws.len() < nchunks {
            self.path_ws.resize_with(nchunks, Default::default);
        }
        let mut items: Vec<_> = self.path_ws[..nchunks]
            .iter_mut()
            .zip(out.chunks_mut(PATH_CHUNK))
            .zip(queries.chunks(PATH_CHUNK))
            .enumerate()
            .map(|(i, ((ws, o), q))| {
                let start = i * PATH_CHUNK;
                (ws, o, q, cutoffs.slice(start..start + q.len()))
            })
            .collect();
        par_each(&mut items, &|(ws, o, q, c)| chunk(ws, q, *c, o));
    }

    /// The canonical fold core: answer `i` is the fold of `M` over
    /// `queries[i]`'s MSF path, filtered by the recent-edge test at
    /// `cutoffs.get(i)` ([`Cutoffs::None`] disables the filter). Every
    /// public path-fold and path-max entry point calls it.
    ///
    /// Max-summary monoids ([`PathMonoid::MAX_SUMMARY`]) are answered by
    /// the path-max plan (linear or shared-CPT) plus
    /// [`PathMonoid::summarize`] — for [`MaxW`] that monomorphizes to
    /// exactly the path-max plan. Other monoids take the same plan rule
    /// ([`QueryBatch::use_linear`]): batches that cover the forest take the
    /// offline path-fold pass ([`QueryBatch::linear_fold_into`]), the rest
    /// the CPT chunking ([`QueryBatch::cpt_fold_into`]). Both fold
    /// `Pair<MaxW, M>`, whose max half is the recency witness.
    fn fold_core<M: PathMonoid>(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        cutoffs: Cutoffs<'_>,
    ) -> Vec<Option<M::Value>> {
        let mut out = Vec::new();
        if M::MAX_SUMMARY {
            let mut pm = std::mem::take(&mut self.pm_buf);
            self.path_max_plan_into(h, queries, &mut pm);
            out.extend(
                pm.iter()
                    .enumerate()
                    .map(|(i, k)| k.filter(|k| k.id >= cutoffs.get(i)).map(M::summarize)),
            );
            self.pm_buf = pm;
            return out;
        }
        let o = qobs();
        o.batch_size.record(queries.len() as u64);
        if Self::use_linear(h.msf.num_vertices(), queries.len()) {
            o.plan_linear.inc();
            self.linear_fold_into::<M>(h, queries, cutoffs, &mut out);
        } else {
            self.cpt_fold_into::<M>(h, queries, cutoffs, &mut out);
        }
        out
    }

    /// The linear fold plan: one offline path-fold pass over the MSF's
    /// real edges ([`OfflinePathFold`]), folding `Pair<MaxW, M>` and
    /// keeping each answer whose heaviest edge passes its cutoff.
    fn linear_fold_into<M: PathMonoid>(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        cutoffs: Cutoffs<'_>,
        out: &mut Vec<Option<M::Value>>,
    ) {
        out.clear();
        out.resize(queries.len(), None);
        let edges = h.msf.iter_msf_edges().map(|(_, u, v, k)| (u, v, k));
        self.fold
            .run::<Pair<MaxW, M>>(h.msf.num_vertices(), edges, queries, |i, (mk, val)| {
                if mk.id >= cutoffs.get(i) {
                    out[i] = Some(val);
                }
            });
    }

    /// The shared-CPT fold plan: each [`PATH_CHUNK`] of queries is folded
    /// by [`PathChunkScratch::run_fold`] (chunks below [`SHARED_CPT_MIN`]
    /// build a 2-mark fold tree per query).
    fn cpt_fold_into<M: PathMonoid>(
        &mut self,
        h: ReadHandle<'_>,
        queries: &[(VertexId, VertexId)],
        cutoffs: Cutoffs<'_>,
        out: &mut Vec<Option<M::Value>>,
    ) {
        let f = h.msf.forest();
        self.par_chunks(queries, cutoffs, out, |ws, q, c, o| {
            ws.run_fold::<M>(f, q, c, o)
        });
    }

    /// Batched [`BatchMsf::path_fold`]: `out[i]` is the fold of `M` over
    /// the MSF path of `queries[i]` (`None` when disconnected or `u == v`).
    ///
    /// `batch_path_fold::<MaxW>` is bit-identical to
    /// [`QueryBatch::batch_path_max`]; see the private `fold_core` for
    /// how non-max monoids pick the linear or the chunked CPT plan. Caveat
    /// for [`bimst_primitives::monoid::SumW`]: the CPT plan and the
    /// per-query fold trees associate `f64` addition in RC-tree order and
    /// the linear plan in path-compression order, so answers can differ by
    /// rounding unless weights are integer-valued (recency weights are, as
    /// are all committed oracles' weights).
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

    /// Batched fold restricted to per-query window suffixes: `out[i]`
    /// folds `M` over `queries[i]`'s path in the window starting at
    /// `cutoffs[i]`, `None` if disconnected there. The fold analogue of
    /// [`QueryBatch::batch_connected_at`] (and the multi-tenant fold
    /// primitive): one shared plan, per-tenant cutoffs applied as the
    /// final O(1) filter on the heaviest-key witness.
    pub fn batch_path_fold_at<M: PathMonoid, W: WindowConnectivity>(
        &mut self,
        w: &W,
        queries: &[(VertexId, VertexId)],
        cutoffs: &[u64],
    ) -> Vec<Option<M::Value>> {
        Self::assert_cutoffs_fresh(w, queries, cutoffs);
        let h = ReadHandle::new(WindowConnectivity::msf(w));
        self.fold_core::<M>(h, queries, Cutoffs::Per(cutoffs))
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
        if w.lazy_expiry() {
            self.window_filtered_core(w, queries, Cutoffs::Uniform(w.window_start()))
        } else {
            // `batch_connected` already answers `u == v` as true (equal
            // roots), exactly like the eager structure's root comparison.
            self.batch_connected(ReadHandle::new(WindowConnectivity::msf(w)), queries)
        }
    }

    /// The canonical windowed-connectivity core: the path-max plan plus
    /// the recent-edge test at `cutoffs.get(i)`; `u == v` answers `true`
    /// (a vertex is connected to itself in any window). Serves
    /// [`QueryBatch::batch_window_connected`] (lazy side) and
    /// [`QueryBatch::batch_connected_at`].
    fn window_filtered_core<W: WindowConnectivity>(
        &mut self,
        w: &W,
        queries: &[(VertexId, VertexId)],
        cutoffs: Cutoffs<'_>,
    ) -> Vec<bool> {
        let h = ReadHandle::new(WindowConnectivity::msf(w));
        let mut pm = std::mem::take(&mut self.pm_buf);
        self.path_max_plan_into(h, queries, &mut pm);
        let out = queries
            .iter()
            .zip(&pm)
            .enumerate()
            .map(|(i, (&(u, v), k))| u == v || k.is_some_and(|k| k.id >= cutoffs.get(i)))
            .collect();
        self.pm_buf = pm;
        out
    }

    /// Asserts one cutoff per query, each at or above the window start
    /// (satisfied by construction for [`TenantSet`] cutoffs): a stale
    /// cutoff below `TW` would silently answer from expired edges, so it
    /// fails loudly instead, in every build profile. O(q) per batch.
    fn assert_cutoffs_fresh<W: WindowConnectivity>(
        w: &W,
        queries: &[(VertexId, VertexId)],
        cutoffs: &[u64],
    ) {
        assert_eq!(queries.len(), cutoffs.len(), "one cutoff per query");
        assert!(
            cutoffs.iter().all(|&c| c >= w.window_start()),
            "stale cutoff below the window start {}",
            w.window_start()
        );
    }

    /// Generalized recent-edge test: `out[i]` answers `queries[i]` against
    /// the window suffix `[cutoffs[i], t)` rather than the structure's own
    /// window. This is the multi-tenant primitive — one shared path-max
    /// plan (linear pass or shared CPTs) answers a *mixed* batch from
    /// many tenants, and each tenant's cutoff is applied as a final O(1)
    /// per-query filter, never re-walking the shared work.
    ///
    /// Correct under both expiry disciplines for any `cutoff ≥ TW`: the
    /// retained MSF is the incremental MSF of a superset window, and
    /// Lemma 5.1 filters it to any suffix.
    pub fn batch_connected_at<W: WindowConnectivity>(
        &mut self,
        w: &W,
        queries: &[(VertexId, VertexId)],
        cutoffs: &[u64],
    ) -> Vec<bool> {
        Self::assert_cutoffs_fresh(w, queries, cutoffs);
        self.window_filtered_core(w, queries, Cutoffs::Per(cutoffs))
    }

    /// A mixed multi-tenant connectivity batch: `queries[i]` is
    /// `(tenant, u, v)` and the answer is connectivity in that tenant's
    /// window. Each query takes its tenant's cutoff
    /// ([`WindowConnectivity::tenant_cutoff`]), and **one** merged
    /// [`QueryBatch::batch_connected_at`] plan answers the whole batch,
    /// bit-identical to the sequential `TenantSet::is_connected` loop.
    ///
    /// # Panics
    ///
    /// On a tenant id the structure does not serve (fail stop).
    pub fn batch_tenant_connected<W: WindowConnectivity>(
        &mut self,
        w: &W,
        queries: &[(u32, VertexId, VertexId)],
    ) -> Vec<bool> {
        let (pairs, cutoffs): (Vec<_>, Vec<_>) = queries
            .iter()
            .map(|&(tenant, u, v)| {
                let cut = w.tenant_cutoff(tenant);
                (
                    (u, v),
                    cut.unwrap_or_else(|| panic!("bimst-query: unknown tenant id {tenant}")),
                )
            })
            .unzip();
        self.batch_connected_at(w, &pairs, &cutoffs)
    }
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

    /// Runs the linear and the chunked CPT path-max plans on one batch and
    /// checks both against the per-query [`BatchMsf::path_max`]; then does
    /// the same for the two fold plans of `MinW`, `SumW` and `Hops`, each
    /// under a uniform and a per-query cutoff, against the binary-lifting
    /// referee [`oracle`]. `SumW` compares exactly only on integer-valued
    /// weights, which every fixture uses.
    fn assert_plans_agree(msf: &BatchMsf, pairs: &[(u32, u32)]) {
        use bimst_primitives::monoid::{Hops, MinW, SumW};
        let h = ReadHandle::new(msf);
        let mut q = QueryBatch::new();
        let (mut linear, mut cpt) = (Vec::new(), Vec::new());
        q.linear_plan_into(h, pairs, &mut linear);
        q.cpt_plan_into(h, pairs, &mut cpt);
        let want: Vec<Option<WKey>> = pairs.iter().map(|&(u, v)| msf.path_max(u, v)).collect();
        assert_eq!(linear, want, "linear plan");
        assert_eq!(cpt, want, "CPT plan");
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
            let (mut linear, mut cpt) = (Vec::new(), Vec::new());
            q.linear_fold_into::<M>(h, pairs, cut, &mut linear);
            q.cpt_fold_into::<M>(h, pairs, cut, &mut cpt);
            assert_eq!(linear, want, "linear fold plan");
            assert_eq!(cpt, want, "CPT fold plan");
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
            let fl = q.batch_path_fold_at::<Hops, _>(&lazy, &queries, &cutoffs);
            let conn = q.batch_connected_at(&lazy, &queries, &cutoffs);
            let pm = q.batch_path_fold_at::<MaxW, _>(&lazy, &queries, &cutoffs);
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
            let pm = q.batch_path_fold_at::<MaxW, _>(&lazy, &queries, &cutoffs);
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
            let got = q.batch_tenant_connected(&ts, &mixed);
            let expect: Vec<bool> = mixed
                .iter()
                .map(|&(ten, u, v)| ts.is_connected(ten, u, v))
                .collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown tenant id")]
    fn tenant_batch_on_single_window_fails_stop() {
        let mut lazy = SwConn::new(4, 1);
        lazy.batch_insert(&[(0, 1)]);
        QueryBatch::new().batch_tenant_connected(&lazy, &[(0, 0, 1)]);
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
