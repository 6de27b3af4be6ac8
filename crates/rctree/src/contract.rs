//! The tree-contraction engine with change propagation.
//!
//! The contraction proceeds in rounds. At each round every live vertex of the
//! (ternarized, degree ≤ 3) forest either **rakes** (leaves merge into their
//! neighbor), **compresses** (a degree-2 vertex is spliced out, its two edges
//! merging into a superedge), **finalizes** (an isolated vertex becomes the
//! root cluster of its component), or **survives**. All random choices are
//! *deterministic functions* of `(seed, node, round)`, so the entire
//! contraction is a pure function of the base forest and the seed.
//!
//! That purity is what makes **change propagation** sound: after a batch of
//! round-0 edits, we re-run only the vertices whose *inputs* changed, round by
//! round. A vertex whose round-`r` neighborhood is untouched reproduces its
//! stored decision bit-for-bit, so the propagation frontier stays proportional
//! to the batch and decays geometrically — the `O(ℓ lg(1 + n/ℓ))` expected
//! work bound of the paper's reference \[2\]. Building from scratch is the
//! special case where every vertex starts flagged.
//!
//! # Round anatomy
//!
//! Processing round `r` with flagged set `A`:
//!
//! 1. `P = A ∪ N_r(A)` — decisions depend on neighbors' degrees (leaf
//!    status), so adjacency changes force neighbors to re-decide.
//! 2. **Phase 1**: recompute decisions for `P` in parallel, commit serially,
//!    recording the subset `D ⊆ P` whose decision actually changed.
//! 3. `Q = A ∪ D ∪ N_r(A ∪ D)` — the vertices whose phase-2 inputs can
//!    differ from their stored state. A vertex v ∉ A has unchanged round-`r`
//!    adjacency; if its decision also didn't flip and it isn't dirty, its
//!    terminal cluster is reproduced id-for-id, so its neighbors' stored
//!    plans stay valid. (The seed engine used the full two-hop
//!    `P ∪ N_r(P)` here — strictly more work for the same fixpoint.)
//! 4. **Phase 2a**: vertices of `Q` that *die* at `r` rebuild their terminal
//!    cluster (plans computed in parallel, applied serially). Dying vertices
//!    never receive rakes in their death round, so their children lists are
//!    stable inputs here.
//! 5. **Phase 2b**: vertices of `Q` that *survive* recompute their rake-in
//!    list and their round-`r+1` adjacency in parallel (reading the fresh
//!    cluster ids from 2a), and are flagged for round `r+1` exactly when the
//!    adjacency actually changed. A changed rake-in list marks the vertex
//!    *dirty*: it flows forward until its death round, where the terminal
//!    cluster is rebuilt with the new child set.
//!
//! # Memory layout (chunked SoA node arena)
//!
//! The propagation is **memory-bound**: the round loop touches nodes in
//! data-dependent order, so its cost is cache misses, not instructions. The
//! node arena ([`NodeArena`]) is therefore a chunked structure-of-arrays
//! built on [`bimst_primitives::soa::ChunkedArena`] (see that module's docs
//! for the chunk-size rationale and the growth-without-copy guarantee that
//! removes the `Vec`-doubling batch-time spikes):
//!
//! * `hot` — one 20-byte header per node (owner, liveness/head flags,
//!   leaf cluster, lifetime, dedup stamp). Three-plus nodes per cache
//!   line; every `alive_at` and stamp probe in the frontier dedup loops
//!   stays in this one array.
//! * `row0`, `row1` — the first two round rows as their *own* parallel
//!   arrays. A node's expected lifetime is `O(1)` rounds, and rows 0 and 1
//!   absorb the bulk of the propagation's accesses; processing round `r`
//!   walks only the `row_r` array, so a node-touch pulls one ~64-byte
//!   [`RoundState`] instead of a whole multi-row node record (the former
//!   array-of-structs `NodeData` dragged ~3 cache lines per touch).
//! * `spill` — rows ≥ 2, a cold per-node `Vec` in a side array. Long-lived
//!   spine nodes pay the indirection only in the rare rounds that reach
//!   them. Every round reads and writes its rows in place through
//!   [`NodeArena::row`]: there is one row layout, with no per-round copy
//!   of the frontier's rows. The buffer follows its node's lifetime, so retained capacity
//!   tracks the live rows: freeing or recycling a slot drops it, a
//!   truncation that leaves no spill row drops it, and a truncation that
//!   leaves it under half full shrinks it to `max(kept, 4)` rows. A buffer
//!   kept across recycling would hold the deepest lifetime any occupant of
//!   its slot ever reached: at n = w = 2¹⁶ that retained 13× the live rows
//!   within 8 window turnovers. [`Engine::round_rows`] counts live rows
//!   against retained capacity.
//!
//! # Plan/apply parallelization and determinism
//!
//! Each phase of a round is split into a **plan** step and an **apply**
//! step. Plans (`TerminalPlan`, `SurvivePlan`, and the phase-1 decision
//! list) are pure functions of the engine state (`&self`), so they are
//! computed for a whole round at once with `bimst_primitives::par::map_into`
//! — parallel above [`bimst_primitives::GRAIN`] elements, sequential below
//! it. The apply steps then commit the plans **serially, in the order of the
//! planning set**, which is itself built sequentially. Cluster ids are
//! allocated only during apply, so the entire contraction — structure *and*
//! arena ids — is a deterministic function of `(base forest, seed)`,
//! independent of thread count. `RAYON_NUM_THREADS=1` and `=64` produce
//! bit-identical engines; `Engine::rebuild_from_scratch` relies on this.
//!
//! # Scratch lifecycle
//!
//! All per-round working sets (the frontier, the neighborhoods `P` and `Q`,
//! the plan buffers, the next-round frontier) live in an engine-owned
//! `PropScratch`. Buffers are cleared by truncation (or by bumping the
//! engine's epoch counter for the stamp-based dedup sets) and never shrunk,
//! so once the engine has processed its largest batch, further propagations
//! perform **zero heap allocations** in this module (spill rows aside — see
//! *Memory layout*). `propagate` takes the scratch out of the engine while
//! rounds run (`std::mem::take`) and puts it back when the contraction is
//! quiescent, which keeps borrows disjoint without unsafe code.
//! [`Engine::scratch_high_water`] exposes the combined capacity so tests
//! can pin the steady state.
//!
//! Construction does not ratchet the scratch: [`Engine::with_singletons`]
//! writes the `n` isolated vertices' finalized contraction directly instead
//! of pushing an `n`-node frontier through the round loop, so a fresh
//! engine holds no scratch at all. A one-off batch far larger than the
//! steady state (installing a checkpoint) can hand its scratch back with
//! [`Engine::release_scratch`].

use bimst_primitives::hash::{coin, priority};
use bimst_primitives::monoid::{MaxW, PathMonoid};
use bimst_primitives::par::map_into;
use bimst_primitives::{AVec, ChunkedArena, FxHashSet, WKey};

use crate::cluster::{
    ClusterArena, ClusterId, ClusterKind, NodeId, MAX_CHILDREN, MAX_CLUSTER_SIZE, NONE_CLUSTER,
};

/// Sentinel for "no node".
pub const NONE_NODE: NodeId = u32::MAX;

/// Frontier size above which per-round working sets are sorted before
/// processing (see `Engine::propagate`); below it the set's arena touches
/// fit in cache regardless of order.
const SORT_GRAIN: usize = 2048;

/// Whether `BIMST_PROP_STATS=1` asks for per-round frontier statistics on
/// stderr (the human-readable dump). The same numbers — and more — are
/// always recorded on the process-wide `bimst_obs::global()` recorder as
/// the `engine_*` metrics (see [`cobs`]); the env var only controls the
/// eprintln rendering.
fn prop_stats() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("BIMST_PROP_STATS").is_some_and(|v| v == "1"))
}

/// Initial frontier size below which `propagate` skips its span timer:
/// single-edge batches finish in about a microsecond, where even two
/// monotonic clock reads would be measurable against the paired-baseline
/// protocol. A pure function of the input size, so determinism holds.
const OBS_SPAN_GRAIN: usize = 64;

/// Cached handles for the engine's process-wide metrics. The contraction
/// engine has no natural registry to thread through its deep call paths,
/// so these live on [`bimst_obs::global`]: aggregates over *all* engines
/// in the process (each sliding level, every test structure). Recording is
/// observe-only — relaxed atomic adds that never branch the round loop.
struct ContractObs {
    /// `engine_propagate_ns`: one span per `propagate` call whose initial
    /// frontier is at least [`OBS_SPAN_GRAIN`].
    propagate_ns: bimst_obs::Histogram,
    /// `engine_rounds`: one count per processed round.
    rounds: bimst_obs::Counter,
    /// `engine_frontier`: per-round frontier size `|A|` distribution.
    frontier: bimst_obs::Histogram,
    /// `engine_round_gather_ns`: P-build phase, recorded for
    /// rounds with frontiers above [`SORT_GRAIN`] only (the clock reads
    /// are free relative to such rounds; small rounds skip them).
    round_gather_ns: bimst_obs::Histogram,
    /// `engine_round_decide_ns`: phase-1 decide plan + serial commit
    /// (same gating as `engine_round_gather_ns`).
    round_decide_ns: bimst_obs::Histogram,
    /// `engine_round_structure_ns`: Q-build + terminal/survive plan and
    /// apply phases (same gating).
    round_structure_ns: bimst_obs::Histogram,
}

/// The engine's metric handles, registered once on the global recorder.
fn cobs() -> &'static ContractObs {
    static OBS: std::sync::OnceLock<ContractObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let rec = bimst_obs::global();
        ContractObs {
            propagate_ns: rec.histogram("engine_propagate_ns"),
            rounds: rec.counter("engine_rounds"),
            frontier: rec.histogram("engine_frontier"),
            round_gather_ns: rec.histogram("engine_round_gather_ns"),
            round_decide_ns: rec.histogram("engine_round_decide_ns"),
            round_structure_ns: rec.histogram("engine_round_structure_ns"),
        }
    })
}

/// What a vertex does at a given round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Decision {
    /// Not yet decided (freshly created rows only).
    #[default]
    Unknown,
    /// Lives on to the next round.
    Survive,
    /// Leaf merges into its neighbor (the payload), forming a unary cluster.
    Rake(NodeId),
    /// Degree-2 vertex spliced out, forming a binary cluster.
    Compress,
    /// Isolated vertex becomes the root cluster of its component.
    Finalize,
}

/// Per-(vertex, round) state. A vertex alive at rounds `0..=d` stores `d + 1`
/// of these; expected lifetime is `O(1)` rounds, so expected total storage is
/// linear.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundState {
    /// Live edges at this round: `(neighbor, edge-role cluster)`.
    pub adj: AVec<(NodeId, ClusterId), 3>,
    /// Unary clusters raked into this vertex at this round.
    pub raked_in: AVec<ClusterId, 3>,
    /// The decision taken this round.
    pub decision: Decision,
    /// The terminal cluster formed this round, if the decision is terminal.
    pub cluster: ClusterId,
}

impl RoundState {
    fn fresh() -> Self {
        RoundState {
            adj: AVec::new(),
            raked_in: AVec::new(),
            decision: Decision::Unknown,
            cluster: NONE_CLUSTER,
        }
    }
}

/// Number of round rows stored in the dedicated per-row hot arrays of
/// [`NodeArena`]. Expected lifetime is `O(1)` rounds, and rows 0 and 1
/// absorb the bulk of the propagation's accesses, so two resident rows keep
/// most node-touches inside a single flat array; later rows spill to a cold
/// per-node vector.
const RESIDENT_ROUNDS: usize = 2;

const FLAG_ALIVE: u32 = 1;
const FLAG_HEAD: u32 = 2;

/// Hot per-node header: everything the frontier/dedup loops probe, packed
/// small so several nodes share a cache line. The dedup `stamp` lives here
/// deliberately: the frontier loops always test `stamp` and liveness
/// *together*, so keeping them in one record halves the random cache lines
/// those loops touch versus a separate stamp array.
#[derive(Clone, Copy, Debug, Default)]
struct NodeHot {
    /// The original vertex this node belongs to (heads and phantoms alike).
    owner: u32,
    /// The base vertex cluster of this node.
    leaf_cluster: ClusterId,
    /// Lifetime so far (number of round rows; death round = len - 1).
    rounds_len: u32,
    /// Bit 0: arena liveness; bit 1: head (identity) node of its owner.
    flags: u32,
    /// Epoch stamp for per-round set deduplication.
    stamp: u32,
}

/// The node arena of the ternarized forest, as a chunked
/// structure-of-arrays (see the module docs, *Memory layout*). Four
/// parallel [`ChunkedArena`]s share one id space; growth allocates a chunk
/// and never relocates, so batch latency never pays an arena-wide copy.
#[derive(Default)]
pub struct NodeArena {
    hot: ChunkedArena<NodeHot>,
    row0: ChunkedArena<RoundState>,
    row1: ChunkedArena<RoundState>,
    /// Cold side array: round rows ≥ [`RESIDENT_ROUNDS`]. The per-node
    /// buffer follows the node's lifetime (see the module docs, *Memory
    /// layout*).
    spill: ChunkedArena<Vec<RoundState>>,
}

impl NodeArena {
    /// Number of slots (live + dead); node ids are `< len()`.
    #[inline]
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the arena has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Appends a fresh dead slot, returning its id.
    fn push_slot(&mut self) -> NodeId {
        let id = self.hot.push(NodeHot::default());
        self.row0.push(RoundState::fresh());
        self.row1.push(RoundState::fresh());
        self.spill.push(Vec::new());
        id as NodeId
    }

    /// (Re)initializes a slot's header. Round rows are untouched — callers
    /// pair this with [`NodeArena::clear_rows`] when recycling. The dedup
    /// stamp is left alone (stale stamps never match a fresh epoch).
    fn init(&mut self, v: NodeId, owner: u32, is_head: bool, alive: bool, leaf: ClusterId) {
        let h = &mut self.hot[v as usize];
        h.owner = owner;
        h.leaf_cluster = leaf;
        h.flags = (alive as u32 * FLAG_ALIVE) | (is_head as u32 * FLAG_HEAD);
    }

    /// The original vertex owning this node.
    #[inline]
    pub fn owner(&self, v: NodeId) -> u32 {
        self.hot[v as usize].owner
    }

    /// Whether this node is its owner's head (identity) node.
    #[inline]
    pub fn is_head(&self, v: NodeId) -> bool {
        self.hot[v as usize].flags & FLAG_HEAD != 0
    }

    /// Arena liveness (phantom nodes are freed when their edge is cut).
    #[inline]
    pub fn alive(&self, v: NodeId) -> bool {
        self.hot[v as usize].flags & FLAG_ALIVE != 0
    }

    fn set_alive(&mut self, v: NodeId, alive: bool) {
        let f = &mut self.hot[v as usize].flags;
        *f = (*f & !FLAG_ALIVE) | (alive as u32 * FLAG_ALIVE);
    }

    /// The base vertex cluster of this node.
    #[inline]
    pub fn leaf_cluster(&self, v: NodeId) -> ClusterId {
        self.hot[v as usize].leaf_cluster
    }

    fn set_leaf_cluster(&mut self, v: NodeId, c: ClusterId) {
        self.hot[v as usize].leaf_cluster = c;
    }

    /// The node's dedup stamp (see [`Engine::bump_epoch`]).
    #[inline]
    fn stamp(&self, v: NodeId) -> u32 {
        self.hot[v as usize].stamp
    }

    #[inline]
    fn set_stamp(&mut self, v: NodeId, ep: u32) {
        self.hot[v as usize].stamp = ep;
    }

    /// Re-zeroes every stamp (epoch wraparound only).
    fn clear_stamps(&mut self) {
        for i in 0..self.hot.len() {
            self.hot[i].stamp = 0;
        }
    }

    /// Number of round rows (the node's lifetime; death round = len - 1).
    #[inline]
    pub fn rounds_len(&self, v: NodeId) -> usize {
        self.hot[v as usize].rounds_len as usize
    }

    /// The round-`r` row of node `v`.
    ///
    /// The lifetime bound on *reads* is debug-asserted, not hard-checked:
    /// checking it in release would load the node's hot header on every
    /// row access — one extra random cache line per neighbor probe in the
    /// memory-bound round loop, which is exactly the traffic this layout
    /// exists to avoid. An out-of-range resident read is memory-safe
    /// either way (`row0`/`row1` are arena-length arrays; a stale row
    /// could only be *logically* wrong), spill reads keep their slice
    /// bounds check, and the debug suite runs every propagation path with
    /// the assert armed. Mutations keep the hard check — see
    /// [`NodeArena::row_mut`].
    #[inline]
    pub fn row(&self, v: NodeId, r: usize) -> &RoundState {
        let vi = v as usize;
        debug_assert!(
            r < self.hot[vi].rounds_len as usize,
            "node {v}: round {r} out of {}",
            self.hot[vi].rounds_len
        );
        match r {
            0 => &self.row0[vi],
            1 => &self.row1[vi],
            _ => &self.spill[vi][r - RESIDENT_ROUNDS],
        }
    }

    /// Mutable access to the round-`r` row of node `v`.
    ///
    /// Unlike reads, the lifetime bound here is a **hard check** (PR 1's
    /// fail-fast rationale: writing a stale row left by a previous slot
    /// occupant would silently corrupt the contraction). It is also nearly
    /// free: every apply-path caller has just touched the node's hot
    /// header (stamping, `rounds_len`, `push_row`), so the line is warm.
    #[inline]
    pub fn row_mut(&mut self, v: NodeId, r: usize) -> &mut RoundState {
        let vi = v as usize;
        assert!(r < self.hot[vi].rounds_len as usize);
        match r {
            0 => &mut self.row0[vi],
            1 => &mut self.row1[vi],
            _ => &mut self.spill[vi][r - RESIDENT_ROUNDS],
        }
    }

    /// Appends a round row to node `v`.
    #[inline]
    fn push_row(&mut self, v: NodeId, row: RoundState) {
        let vi = v as usize;
        let i = self.hot[vi].rounds_len as usize;
        match i {
            0 => self.row0[vi] = row,
            1 => self.row1[vi] = row,
            _ => {
                debug_assert_eq!(self.spill[vi].len(), i - RESIDENT_ROUNDS);
                self.spill[vi].push(row);
            }
        }
        self.hot[vi].rounds_len = (i + 1) as u32;
    }

    /// Shrinks node `v` to `n` round rows (no-op if already shorter). The
    /// spill buffer is dropped when no spill row is left, and shrunk to
    /// `max(kept, 4)` rows when its capacity exceeds twice that.
    fn truncate_rows(&mut self, v: NodeId, n: usize) {
        let vi = v as usize;
        if n < self.hot[vi].rounds_len as usize {
            self.hot[vi].rounds_len = n as u32;
            let keep = n.saturating_sub(RESIDENT_ROUNDS);
            let spill = &mut self.spill[vi];
            if keep == 0 {
                *spill = Vec::new();
            } else {
                spill.truncate(keep);
                let floor = keep.max(4);
                if spill.capacity() > 2 * floor {
                    spill.shrink_to(floor);
                }
            }
        }
    }

    /// Drops all round rows of node `v`, spill buffer included.
    fn clear_rows(&mut self, v: NodeId) {
        let vi = v as usize;
        self.hot[vi].rounds_len = 0;
        self.spill[vi] = Vec::new();
    }
}

/// Plan produced by phase 2a for a vertex dying this round. `Copy` +
/// `Default` so plan buffers can be reused via `par::map_into`.
#[derive(Clone, Copy)]
struct TerminalPlan {
    v: NodeId,
    kind: ClusterKind,
    children: AVec<ClusterId, MAX_CHILDREN>,
}

impl Default for TerminalPlan {
    fn default() -> Self {
        TerminalPlan {
            v: NONE_NODE,
            kind: ClusterKind::Root { rep: NONE_NODE },
            children: AVec::new(),
        }
    }
}

/// Plan produced by phase 2b for a vertex surviving this round.
#[derive(Clone, Copy, Default)]
struct SurvivePlan {
    v: NodeId,
    raked: AVec<ClusterId, 3>,
    adj_next: AVec<(NodeId, ClusterId), 3>,
}

/// Reusable per-round working sets of the propagation (see the module docs'
/// *Scratch lifecycle* section). Everything is length-reset only, so
/// capacities ratchet up to the high-water mark and stay there.
#[derive(Default)]
struct PropScratch {
    /// Current round's flagged frontier.
    cur: Vec<NodeId>,
    /// Deduplicated (frontier ∪ dirty) alive at the round.
    set: Vec<NodeId>,
    /// `P = A ∪ N(A)`.
    p: Vec<NodeId>,
    /// `Q = P ∪ N(P)`.
    q: Vec<NodeId>,
    /// Phase-1 decisions for `P`.
    decs: Vec<(NodeId, Decision)>,
    /// Vertices of `P` whose phase-1 decision actually changed.
    changed: Vec<NodeId>,
    /// Vertices of `Q` dying this round.
    dying: Vec<NodeId>,
    /// Vertices of `Q` surviving this round.
    surviving: Vec<NodeId>,
    /// Phase-2a plans.
    terminal_plans: Vec<TerminalPlan>,
    /// Phase-2b plans.
    survive_plans: Vec<SurvivePlan>,
    /// Frontier flagged for the next round.
    next: Vec<NodeId>,
}

impl PropScratch {
    /// Combined buffer capacity in elements (the steady-state metric).
    fn high_water(&self) -> usize {
        self.cur.capacity()
            + self.set.capacity()
            + self.p.capacity()
            + self.q.capacity()
            + self.decs.capacity()
            + self.changed.capacity()
            + self.dying.capacity()
            + self.surviving.capacity()
            + self.terminal_plans.capacity()
            + self.survive_plans.capacity()
            + self.next.capacity()
    }
}

/// The contraction engine. Owned by [`crate::forest::RcForest`]; exposed for
/// the compressed-path-tree traversal (`bimst-core`) and for tests.
pub struct Engine {
    /// Seed of every coin flip.
    pub seed: u64,
    /// Node arena (chunked SoA; see the module docs, *Memory layout*).
    pub nodes: NodeArena,
    /// Cluster arena.
    pub clusters: ClusterArena,
    free_nodes: Vec<NodeId>,
    pending_free_nodes: Vec<NodeId>,
    free_merge_buf: Vec<NodeId>,
    /// Vertices whose child set changed without structural change; they are
    /// re-examined every round until their death round rebuilds the cluster.
    dirty: FxHashSet<NodeId>,
    /// Vertices whose round-0 state changed since the last propagation.
    flagged0: Vec<NodeId>,
    /// Epoch for the per-round set-deduplication stamps (stored in the
    /// node arena's hot headers): cheaper than hash sets on the tiny-batch
    /// fast path, where per-round constants dominate the
    /// `O(ℓ lg(1 + n/ℓ))` bound. Wraparound re-zero: [`Engine::bump_epoch`].
    epoch: u32,
    /// Reusable per-round buffers (see module docs, *Scratch lifecycle*).
    scratch: PropScratch,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new(seed: u64) -> Self {
        Engine {
            seed,
            nodes: NodeArena::default(),
            clusters: ClusterArena::new(),
            free_nodes: Vec::new(),
            pending_free_nodes: Vec::new(),
            free_merge_buf: Vec::new(),
            dirty: FxHashSet::default(),
            flagged0: Vec::new(),
            epoch: 0,
            scratch: PropScratch::default(),
        }
    }

    /// An engine over `n` isolated head nodes (node `v` owned by vertex
    /// `v`), already contracted: each head finalizes at round 0 into a root
    /// cluster whose one child is its leaf. Ids match what flagging the `n`
    /// fresh nodes and running [`Engine::propagate`] assigns — leaf clusters
    /// `0..n`, root clusters `n..2n` — but without pushing an `n`-node
    /// frontier through the round loop, so the propagation scratch stays
    /// empty (see the module docs, *Scratch lifecycle*).
    ///
    /// # Panics
    ///
    /// If `n` exceeds the largest cluster size (2³¹ − 1).
    pub fn with_singletons(seed: u64, n: usize) -> Self {
        assert!(
            n <= MAX_CLUSTER_SIZE as usize,
            "{n} vertices overflow the cluster size field"
        );
        let mut e = Engine::new(seed);
        for v in 0..n as NodeId {
            let id = e.nodes.push_slot();
            e.init_node(id, v, true);
            e.nodes.row_mut(id, 0).decision = Decision::Finalize;
        }
        for v in 0..n as NodeId {
            let leaf = e.nodes.leaf_cluster(v);
            let mut children = AVec::new();
            children.push(leaf);
            let root = e.clusters.alloc(ClusterKind::Root { rep: v }, children);
            e.clusters.set_parent(leaf, root);
            e.nodes.row_mut(v, 0).cluster = root;
        }
        e
    }

    /// Combined capacity (in elements) of the propagation scratch buffers
    /// (including the round-0 frontier, whose buffer swaps in and out of the
    /// scratch). Steady-state workloads must plateau here — the
    /// zero-allocation regression test pins this after a warmup phase.
    pub fn scratch_high_water(&self) -> usize {
        self.scratch.high_water() + self.flagged0.capacity()
    }

    /// Frees every propagation scratch buffer, so [`Engine::scratch_high_water`]
    /// reads 0. For after a one-off batch far larger than the steady state
    /// (installing a checkpoint), whose scratch would otherwise stay
    /// allocated for the engine's life. The next propagation regrows what
    /// it needs; results do not depend on the scratch.
    pub fn release_scratch(&mut self) {
        assert!(
            self.flagged0.is_empty(),
            "scratch released with a batch pending"
        );
        self.scratch = PropScratch::default();
        self.flagged0 = Vec::new();
    }

    /// Spill round rows (rounds ≥ 2) as `(live, retained)`: rows held by
    /// nodes against the capacity of their spill buffers. Test and profiling
    /// hook; `O(nodes)`.
    #[doc(hidden)]
    pub fn round_rows(&self) -> (usize, usize) {
        (0..self.nodes.len()).fold((0, 0), |(live, retained), v| {
            let s = &self.nodes.spill[v];
            (live + s.len(), retained + s.capacity())
        })
    }

    /// Allocates a node owned by original vertex `owner` and flags it.
    /// `is_head` marks the owner's identity node (counted by cluster sizes).
    pub fn alloc_node(&mut self, owner: u32, is_head: bool) -> NodeId {
        let id = if let Some(id) = self.free_nodes.pop() {
            id
        } else {
            self.nodes.push_slot()
        };
        self.init_node(id, owner, is_head);
        self.flagged0.push(id);
        id
    }

    /// Makes slot `id` — fresh, or emptied by [`Engine::free_node`] — a
    /// live node with a fresh leaf cluster and one empty round-0 row.
    fn init_node(&mut self, id: NodeId, owner: u32, is_head: bool) {
        debug_assert_eq!(self.nodes.rounds_len(id), 0, "slot {id} still has rows");
        let leaf = self
            .clusters
            .alloc(ClusterKind::LeafVertex { node: id }, AVec::new());
        self.clusters.set_size(leaf, is_head as u32);
        self.nodes.init(id, owner, is_head, true, leaf);
        self.nodes.push_row(id, RoundState::fresh());
    }

    /// Frees a node. Its round-0 adjacency must already be empty (the caller
    /// removes all edges first). The slot is quarantined until
    /// the propagation flushes frees at the end of the batch.
    pub fn free_node(&mut self, v: NodeId) {
        debug_assert!(self.nodes.alive(v), "double free of node {v}");
        debug_assert!(
            self.nodes.row(v, 0).adj.is_empty(),
            "freeing node {v} with live edges"
        );
        // Free every cluster this node is the representative of, plus its
        // leaf cluster, then its rows (the spill buffer goes with them).
        for q in 0..self.nodes.rounds_len(v) {
            let c = self.nodes.row(v, q).cluster;
            if c != NONE_CLUSTER {
                self.clusters.free(c);
            }
        }
        let leaf = self.nodes.leaf_cluster(v);
        self.clusters.free(leaf);
        self.nodes.clear_rows(v);
        self.nodes.set_alive(v, false);
        self.nodes.set_leaf_cluster(v, NONE_CLUSTER);
        self.dirty.remove(&v);
        self.pending_free_nodes.push(v);
    }

    /// Adds a base edge (round 0) between live nodes `a` and `b`, represented
    /// by the given leaf edge cluster. Flags both endpoints.
    pub fn add_edge_round0(&mut self, a: NodeId, b: NodeId, cluster: ClusterId) {
        debug_assert!(a != b, "self-loop in base forest");
        self.nodes.row_mut(a, 0).adj.push((b, cluster));
        self.nodes.row_mut(b, 0).adj.push((a, cluster));
        self.flagged0.push(a);
        self.flagged0.push(b);
    }

    /// Removes the base edge between `a` and `b` and returns its leaf edge
    /// cluster (which the caller frees). Flags both endpoints.
    pub fn remove_edge_round0(&mut self, a: NodeId, b: NodeId) -> ClusterId {
        let mut found = NONE_CLUSTER;
        self.nodes.row_mut(a, 0).adj.retain(|&(u, c)| {
            if u == b && found == NONE_CLUSTER {
                found = c;
                false
            } else {
                true
            }
        });
        assert!(found != NONE_CLUSTER, "edge ({a},{b}) not present");
        let mut found_b = false;
        self.nodes.row_mut(b, 0).adj.retain(|&(u, c)| {
            if u == a && c == found {
                found_b = true;
                false
            } else {
                true
            }
        });
        debug_assert!(found_b, "asymmetric adjacency for edge ({a},{b})");
        self.flagged0.push(a);
        self.flagged0.push(b);
        found
    }

    /// Frees a cluster (deferred reuse). Exposed for the forest layer, which
    /// owns leaf edge clusters.
    pub fn free_cluster(&mut self, c: ClusterId) {
        self.clusters.free(c);
    }

    /// Allocates a leaf edge cluster.
    pub fn alloc_edge_cluster(&mut self, a: NodeId, b: NodeId, key: WKey) -> ClusterId {
        self.clusters
            .alloc(ClusterKind::LeafEdge { a, b, key }, AVec::new())
    }

    /// Advances the dedup epoch, re-zeroing the stamps on (u32) wraparound
    /// so marks from the previous wrap can never alias — one O(n) fill per
    /// 2³² rounds.
    #[inline]
    fn bump_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.nodes.clear_stamps();
            self.epoch = 1;
        }
        self.epoch
    }

    #[inline]
    fn alive_at(&self, v: NodeId, r: usize) -> bool {
        self.nodes.alive(v) && self.nodes.rounds_len(v) > r
    }

    #[inline]
    fn deg(&self, v: NodeId, r: usize) -> usize {
        self.nodes.row(v, r).adj.len()
    }

    /// The contraction decision of `v` at round `r` — a pure function of the
    /// round-`r` structure and the seed.
    fn decide(&self, v: NodeId, r: usize) -> Decision {
        let adj = &self.nodes.row(v, r).adj;
        let rr = r as u64;
        match adj.len() {
            0 => Decision::Finalize,
            1 => {
                let (u, _) = adj[0];
                debug_assert!(self.alive_at(u, r));
                if self.deg(u, r) == 1 {
                    // Two-vertex component: exactly one endpoint rakes.
                    if priority(self.seed, v as u64, rr) < priority(self.seed, u as u64, rr) {
                        Decision::Rake(u)
                    } else {
                        Decision::Survive
                    }
                } else {
                    Decision::Rake(u)
                }
            }
            2 => {
                let (u, _) = adj[0];
                let (w, _) = adj[1];
                let du = self.deg(u, r);
                let dw = self.deg(w, r);
                if du == 1 || dw == 1 {
                    // A neighbor is a leaf about to rake into us: survive.
                    Decision::Survive
                } else if coin(self.seed, v as u64, rr)
                    && !(du == 2 && coin(self.seed, u as u64, rr))
                    && !(dw == 2 && coin(self.seed, w as u64, rr))
                {
                    // Heads, and no degree-2 neighbor also flipped heads: no
                    // two adjacent vertices compress in the same round.
                    Decision::Compress
                } else {
                    Decision::Survive
                }
            }
            3 => Decision::Survive,
            d => unreachable!("degree {d} > 3 in ternarized forest"),
        }
    }

    /// Runs change propagation until the contraction is quiescent, then
    /// releases quarantined arena slots. Call after a batch of round-0 edits.
    ///
    /// Allocation-free in steady state: all working sets live in the
    /// engine-owned scratch, taken out for the duration of the rounds so the
    /// planning borrows stay disjoint from the applying ones.
    pub fn propagate(&mut self) {
        // Span-time the whole propagation, but only when the batch is big
        // enough that the two clock reads are noise (see OBS_SPAN_GRAIN).
        let timed =
            self.flagged0.len() + self.dirty.len() >= OBS_SPAN_GRAIN && bimst_obs::enabled();
        let _span = timed.then(|| cobs().propagate_ns.time());
        let mut ws = std::mem::take(&mut self.scratch);
        // The round-0 frontier moves into the scratch; `flagged0` keeps the
        // (empty) previous buffer so both ratchet to their high-water marks.
        ws.cur.clear();
        std::mem::swap(&mut ws.cur, &mut self.flagged0);
        let max_rounds = 64 + 8 * (usize::BITS - (self.nodes.len() + 2).leading_zeros()) as usize;
        let mut r = 0usize;
        loop {
            // Deduplicate (flagged ∪ dirty) alive-at-r via epoch stamps.
            let ep = self.bump_epoch();
            ws.set.clear();
            for &v in &ws.cur {
                if self.nodes.stamp(v) != ep && self.alive_at(v, r) {
                    self.nodes.set_stamp(v, ep);
                    ws.set.push(v);
                }
            }
            for &v in &self.dirty {
                if self.nodes.stamp(v) != ep && self.alive_at(v, r) {
                    self.nodes.set_stamp(v, ep);
                    ws.set.push(v);
                }
            }
            // Ascending-id processing for large frontiers: the round loop
            // is memory-bound and its touch order is otherwise discovery
            // order (scattered); sorting makes every per-`v` arena access
            // an ascending sweep (TLB- and prefetch-friendly) for
            // O(|A| lg) compute — far below one cache miss per element.
            // Small frontiers fit in cache either way, so they keep
            // discovery order and skip the sort. The cutoff is a pure
            // function of the set size, so determinism is unaffected.
            if ws.set.len() > SORT_GRAIN {
                ws.set.sort_unstable();
            }
            if ws.set.is_empty() {
                debug_assert!(self.dirty.is_empty(), "dirty nodes left unresolved");
                break;
            }
            // Structured round stats (always on; relaxed atomic adds)...
            let o = cobs();
            o.rounds.inc();
            o.frontier.record(ws.set.len() as u64);
            // ...and the opt-in human-readable rendering of the same.
            if prop_stats() {
                eprintln!(
                    "round {r}: set={} dirty={} cur={}",
                    ws.set.len(),
                    self.dirty.len(),
                    ws.cur.len()
                );
            }
            self.process_round(r, &mut ws);
            std::mem::swap(&mut ws.cur, &mut ws.next);
            r += 1;
            assert!(r < max_rounds, "contraction did not converge in {r} rounds");
        }
        self.scratch = ws;
        self.clusters.flush_frees();
        // Mirror the cluster arena's discipline: recycle node slots in
        // ascending-id order, so id assignment after churn depends only on
        // the free *set*, not the free sequence.
        crate::cluster::merge_sorted_frees(
            &mut self.free_nodes,
            &mut self.pending_free_nodes,
            &mut self.free_merge_buf,
        );
    }

    /// Processes one round. Input frontier: `ws.set` (deduplicated, alive at
    /// `r`); output frontier: `ws.next`. Plans are computed in parallel
    /// (grain-gated), applies run serially in planning order — see the
    /// module docs for why that makes the result thread-count independent.
    fn process_round(&mut self, r: usize, ws: &mut PropScratch) {
        // Phase timings for rounds whose frontier already warrants a sort:
        // four clock reads against thousands of arena touches. Small rounds
        // skip the clocks entirely (same pure-size gating discipline as the
        // sort cutoff, so determinism is unaffected).
        let timed = ws.set.len() > SORT_GRAIN && bimst_obs::enabled();
        let t_begin = timed.then(std::time::Instant::now);
        // P = A ∪ N(A): neighbors must re-decide (leaf status may change).
        let ep = self.bump_epoch();
        ws.p.clear();
        for &v in &ws.set {
            if self.nodes.stamp(v) != ep {
                self.nodes.set_stamp(v, ep);
                ws.p.push(v);
            }
            // Copy the (≤3-entry) adjacency so stamping can write the arena.
            let adj = self.nodes.row(v, r).adj;
            for (u, _) in adj.iter() {
                debug_assert!(self.alive_at(u, r), "stale adjacency {v}->{u} at round {r}");
                if self.nodes.stamp(u) != ep {
                    self.nodes.set_stamp(u, ep);
                    ws.p.push(u);
                }
            }
        }
        // Ascending sweep for the decide/commit loops (see `ws.set`).
        if ws.p.len() > SORT_GRAIN {
            ws.p.sort_unstable();
        }
        let t_gathered = timed.then(std::time::Instant::now);

        // Phase 1: recompute decisions for P (parallel plan, serial commit).
        // Track which decisions actually changed — only those vertices (and
        // the structurally-changed set `A`) can alter what their neighbors
        // read in phase 2.
        map_into(&ws.p, &mut ws.decs, |&v| (v, self.decide(v, r)));
        ws.changed.clear();
        for &(v, d) in &ws.decs {
            let slot = &mut self.nodes.row_mut(v, r).decision;
            if *slot != d {
                *slot = d;
                ws.changed.push(v);
            }
        }

        let t_decided = timed.then(std::time::Instant::now);

        // Q: the vertices whose phase-2 inputs may differ from their stored
        // state. A vertex contributes new inputs to its neighbors iff its
        // round-`r` adjacency changed (`v ∈ A`, including dirty vertices —
        // their rebuilt terminal gets a fresh cluster id) or its decision
        // flipped (`v ∈ changed`). Everything else reproduces its stored
        // decision *and* cluster id bit-for-bit, so its neighbors can keep
        // their stored plans. Hence `Q = A ∪ changed ∪ N(A ∪ changed)`
        // — deliberately *not* the seed's `P ∪ N(P)`, which reprocessed the
        // full two-hop neighborhood of `A` every round.
        let ep = self.bump_epoch();
        ws.q.clear();
        for src in [&ws.set, &ws.changed] {
            for &v in src.iter() {
                if self.nodes.stamp(v) != ep {
                    self.nodes.set_stamp(v, ep);
                    ws.q.push(v);
                }
            }
        }
        let mut i = 0;
        let seeds = ws.q.len();
        while i < seeds {
            let v = ws.q[i];
            i += 1;
            let adj = self.nodes.row(v, r).adj;
            for (u, _) in adj.iter() {
                if self.nodes.stamp(u) != ep {
                    self.nodes.set_stamp(u, ep);
                    ws.q.push(u);
                }
            }
        }
        // Ascending sweep for the plan/apply loops (see `ws.set`).
        if ws.q.len() > SORT_GRAIN {
            ws.q.sort_unstable();
        }

        ws.dying.clear();
        ws.surviving.clear();
        for &v in &ws.q {
            if self.nodes.row(v, r).decision != Decision::Survive {
                ws.dying.push(v);
            } else {
                ws.surviving.push(v);
            }
        }

        // Phase 2a: rebuild terminal clusters of dying vertices.
        map_into(&ws.dying, &mut ws.terminal_plans, |&v| {
            self.terminal_plan(v, r)
        });
        for i in 0..ws.terminal_plans.len() {
            self.apply_terminal(ws.terminal_plans[i], r);
        }

        // Phase 2b: survivors recompute rake-ins and next-round adjacency
        // (reading the cluster ids committed by 2a).
        map_into(&ws.surviving, &mut ws.survive_plans, |&v| {
            self.survive_plan(v, r)
        });
        ws.next.clear();
        for i in 0..ws.survive_plans.len() {
            self.apply_survive(ws.survive_plans[i], r, &mut ws.next);
        }
        if let (Some(t0), Some(t1), Some(t2)) = (t_begin, t_gathered, t_decided) {
            let o = cobs();
            o.round_gather_ns.record((t1 - t0).as_nanos() as u64);
            o.round_decide_ns.record((t2 - t1).as_nanos() as u64);
            o.round_structure_ns.record(t2.elapsed().as_nanos() as u64);
        }
    }

    /// Children of the terminal cluster `v` forms when dying at round `r`:
    /// its own leaf, everything raked into it during its lifetime, and the
    /// edge clusters its decision consumes.
    fn terminal_plan(&self, v: NodeId, r: usize) -> TerminalPlan {
        let mut children: AVec<ClusterId, MAX_CHILDREN> = AVec::new();
        children.push(self.nodes.leaf_cluster(v));
        // Dying vertices receive no rakes in their death round, so rows
        // `0..r` hold the complete hanging set (row `r` may be stale).
        for q in 0..r {
            for c in self.nodes.row(v, q).raked_in.iter() {
                children.push(c);
            }
        }
        let row = self.nodes.row(v, r);
        let kind = match row.decision {
            Decision::Rake(u) => {
                let (nu, c) = row.adj[0];
                debug_assert_eq!(nu, u);
                children.push(c);
                ClusterKind::Unary {
                    rep: v,
                    boundary: u,
                }
            }
            Decision::Compress => {
                let (u, c1) = row.adj[0];
                let (w, c2) = row.adj[1];
                // Last, as `ClusterKind::Binary` documents.
                children.push(c1);
                children.push(c2);
                let k1 = self.clusters.kind(c1).edge_key().expect("edge role");
                let k2 = self.clusters.kind(c2).edge_key().expect("edge role");
                let bound = if u < w { (u, w) } else { (w, u) };
                // The cluster aggregate is the summary monoid's fold
                // (`MaxW`: heaviest key on the boundary-to-boundary path);
                // `bimst_primitives::monoid` names the algebra, and the CPT
                // layer can recover any `MAX_SUMMARY` fold from it.
                ClusterKind::Binary {
                    rep: v,
                    bound,
                    key: MaxW::combine(k1, k2),
                }
            }
            Decision::Finalize => ClusterKind::Root { rep: v },
            Decision::Survive | Decision::Unknown => unreachable!("terminal plan for survivor"),
        };
        TerminalPlan { v, kind, children }
    }

    fn apply_terminal(&mut self, plan: TerminalPlan, r: usize) {
        let v = plan.v;
        // Unchanged? Keep the old cluster id to stop the cascade.
        let old = self.nodes.row(v, r).cluster;
        if old != NONE_CLUSTER
            && self.nodes.rounds_len(v) == r + 1
            && self.clusters.alive(old)
            && *self.clusters.kind(old) == plan.kind
            && self.clusters.children(old).sorted() == plan.children.sorted()
        {
            self.dirty.remove(&v);
            return;
        }
        // Free any terminal this vertex formed at this or a later round, and
        // drop the now-dead future rows.
        for q in r..self.nodes.rounds_len(v) {
            let c = self.nodes.row(v, q).cluster;
            if c != NONE_CLUSTER {
                self.clusters.free(c);
                self.nodes.row_mut(v, q).cluster = NONE_CLUSTER;
            }
        }
        self.nodes.truncate_rows(v, r + 1);
        self.nodes.row_mut(v, r).raked_in.clear();
        let id = self.clusters.alloc(plan.kind, plan.children);
        for ch in plan.children.iter() {
            self.clusters.set_parent(ch, id);
        }
        self.nodes.row_mut(v, r).cluster = id;
        self.dirty.remove(&v);
    }

    /// A survivor's rake-in list and next-round adjacency, read off its
    /// neighbors' freshly committed decisions and clusters.
    fn survive_plan(&self, v: NodeId, r: usize) -> SurvivePlan {
        let mut raked: AVec<ClusterId, 3> = AVec::new();
        let mut adj_next: AVec<(NodeId, ClusterId), 3> = AVec::new();
        for (u, c) in self.nodes.row(v, r).adj.iter() {
            let urow = self.nodes.row(u, r);
            match urow.decision {
                Decision::Rake(t) => {
                    debug_assert_eq!(t, v, "rake target mismatch");
                    debug_assert!(urow.cluster != NONE_CLUSTER);
                    raked.push(urow.cluster);
                }
                Decision::Compress => {
                    let b = urow.cluster;
                    debug_assert!(b != NONE_CLUSTER);
                    let (x, y) = match *self.clusters.kind(b) {
                        ClusterKind::Binary { bound, .. } => bound,
                        ref k => unreachable!("compress produced {k:?}"),
                    };
                    let other = if x == v { y } else { x };
                    debug_assert!(x == v || y == v);
                    adj_next.push((other, b));
                }
                Decision::Survive => adj_next.push((u, c)),
                Decision::Finalize | Decision::Unknown => {
                    unreachable!("neighbor {u} of survivor {v} finalized/unknown at round {r}")
                }
            }
        }
        SurvivePlan { v, raked, adj_next }
    }

    fn apply_survive(&mut self, plan: SurvivePlan, r: usize, next: &mut Vec<NodeId>) {
        let v = plan.v;
        // If this vertex previously died at `r`, its old terminal is stale.
        let old = self.nodes.row(v, r).cluster;
        if old != NONE_CLUSTER {
            self.clusters.free(old);
            self.nodes.row_mut(v, r).cluster = NONE_CLUSTER;
        }
        if self.nodes.row(v, r).raked_in.sorted() != plan.raked.sorted() {
            self.nodes.row_mut(v, r).raked_in = plan.raked;
            self.dirty.insert(v);
        }
        let created = if self.nodes.rounds_len(v) == r + 1 {
            self.nodes.push_row(v, RoundState::fresh());
            true
        } else {
            false
        };
        let row = self.nodes.row_mut(v, r + 1);
        if created || row.adj.sorted() != plan.adj_next.sorted() {
            row.adj = plan.adj_next;
            next.push(v);
        }
    }

    /// Walks parent pointers from a cluster to the root cluster above it.
    /// A pure chase over the arena's dense parent array (see
    /// [`crate::cluster`], *Memory layout*).
    pub fn root_from(&self, mut c: ClusterId) -> ClusterId {
        let mut steps = 0usize;
        loop {
            let p = self.clusters.parent(c);
            if p == NONE_CLUSTER {
                return c;
            }
            c = p;
            steps += 1;
            assert!(
                steps <= self.clusters.len(),
                "parent cycle detected at cluster {c}"
            );
        }
    }

    /// Number of live nodes (heads + phantoms).
    pub fn live_nodes(&self) -> usize {
        (0..self.nodes.len() as NodeId)
            .filter(|&v| self.nodes.alive(v))
            .count()
    }

    // ------------------------------------------------------------------
    // Verification helpers (used by tests and the bench harness).
    // ------------------------------------------------------------------

    /// Rebuilds a fresh engine from this engine's round-0 structure (same
    /// seed, same node ids, same edges) and contracts it from scratch.
    /// Because the contraction is a pure function of (base forest, seed),
    /// the result must match [`Engine::same_contraction`]-wise — the key
    /// correctness property of change propagation.
    pub fn rebuild_from_scratch(&self) -> Engine {
        let mut e = Engine::new(self.seed);
        // Recreate the node arena with identical ids.
        for id in 0..self.nodes.len() as NodeId {
            let nid = e.nodes.push_slot();
            debug_assert_eq!(nid, id);
            let (owner, is_head) = (self.nodes.owner(id), self.nodes.is_head(id));
            if self.nodes.alive(id) {
                e.init_node(id, owner, is_head);
                e.flagged0.push(id);
            } else {
                e.nodes.init(id, owner, is_head, false, NONE_CLUSTER);
            }
        }
        // Recreate round-0 edges (each once).
        for id in 0..self.nodes.len() as NodeId {
            if !self.nodes.alive(id) {
                continue;
            }
            for (u, c) in self.nodes.row(id, 0).adj.iter() {
                if id < u {
                    let key = self.clusters.kind(c).edge_key().expect("leaf edge");
                    let nc = e.alloc_edge_cluster(id, u, key);
                    e.nodes.row_mut(id, 0).adj.push((u, nc));
                    e.nodes.row_mut(u, 0).adj.push((id, nc));
                }
            }
        }
        e.propagate();
        e
    }

    /// Checks that two engines encode the same contraction: per node, the
    /// same lifetime, decisions, adjacency structure (neighbors and edge
    /// keys), and rake-in sources. Cluster *ids* are allowed to differ.
    pub fn same_contraction(&self, other: &Engine) -> Result<(), String> {
        if self.nodes.len() != other.nodes.len() {
            return Err(format!(
                "node arena sizes differ: {} vs {}",
                self.nodes.len(),
                other.nodes.len()
            ));
        }
        for id in 0..self.nodes.len() as NodeId {
            if self.nodes.alive(id) != other.nodes.alive(id) {
                return Err(format!(
                    "node {id}: alive {} vs {}",
                    self.nodes.alive(id),
                    other.nodes.alive(id)
                ));
            }
            if !self.nodes.alive(id) {
                continue;
            }
            if self.nodes.rounds_len(id) != other.nodes.rounds_len(id) {
                return Err(format!(
                    "node {id}: lifetime {} vs {}",
                    self.nodes.rounds_len(id),
                    other.nodes.rounds_len(id)
                ));
            }
            for r in 0..self.nodes.rounds_len(id) {
                let ra = self.nodes.row(id, r);
                let rb = other.nodes.row(id, r);
                if ra.decision != rb.decision {
                    return Err(format!(
                        "node {id} round {r}: decision {:?} vs {:?}",
                        ra.decision, rb.decision
                    ));
                }
                let sig = |e: &Engine, row: &RoundState| {
                    let mut s: Vec<(NodeId, WKey)> = row
                        .adj
                        .iter()
                        .map(|(u, c)| (u, e.clusters.kind(c).edge_key().unwrap()))
                        .collect();
                    s.sort_unstable_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
                    s
                };
                if sig(self, ra) != sig(other, rb) {
                    return Err(format!("node {id} round {r}: adjacency differs"));
                }
                let reps = |e: &Engine, row: &RoundState| {
                    let mut s: Vec<NodeId> = row
                        .raked_in
                        .iter()
                        .map(|c| e.clusters.kind(c).rep().unwrap())
                        .collect();
                    s.sort_unstable();
                    s
                };
                if reps(self, ra) != reps(other, rb) {
                    return Err(format!("node {id} round {r}: rake-ins differ"));
                }
            }
        }
        Ok(())
    }

    /// Structural sanity check of the cluster forest: parent/child pointers
    /// are mutually consistent and every live non-root cluster has a parent.
    pub fn check_cluster_invariants(&self) -> Result<(), String> {
        for id in self.clusters.iter_live_ids() {
            for ch in self.clusters.children(id).iter() {
                if !self.clusters.alive(ch) {
                    return Err(format!("cluster {id} has dead child {ch}"));
                }
                if self.clusters.parent(ch) != id {
                    return Err(format!(
                        "cluster {id} child {ch} has parent {}",
                        self.clusters.parent(ch)
                    ));
                }
            }
            let p = self.clusters.parent(id);
            if p != NONE_CLUSTER {
                if !self.clusters.alive(p) {
                    return Err(format!("cluster {id} has dead parent {p}"));
                }
                if !self.clusters.children(p).iter().any(|ch| ch == id) {
                    return Err(format!("cluster {id} not among parent's children"));
                }
            } else if !matches!(self.clusters.kind(id), ClusterKind::Root { .. }) {
                // Orphan non-root: only legal for leaf clusters of isolated
                // *fresh* vertices before their first propagation — after
                // propagate() everything is parented.
                return Err(format!(
                    "non-root cluster {id} has no parent: {:?}",
                    self.clusters.kind(id)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimst_primitives::WKey;

    /// Builds an engine over `n` fresh nodes and the given weighted edges.
    fn build(n: usize, edges: &[(u32, u32, f64)], seed: u64) -> Engine {
        let mut e = Engine::new(seed);
        for i in 0..n {
            e.alloc_node(i as u32, true);
        }
        for (i, &(a, b, w)) in edges.iter().enumerate() {
            let c = e.alloc_edge_cluster(a, b, WKey::new(w, i as u64));
            e.add_edge_round0(a, b, c);
        }
        e.propagate();
        e
    }

    #[test]
    fn singleton_finalizes_round_zero() {
        let e = build(1, &[], 1);
        assert_eq!(e.clusters.num_roots, 1);
        assert_eq!(e.nodes.rounds_len(0), 1);
        assert_eq!(e.nodes.row(0, 0).decision, Decision::Finalize);
    }

    #[test]
    fn single_edge_contracts() {
        let e = build(2, &[(0, 1, 1.0)], 7);
        assert_eq!(e.clusters.num_roots, 1);
        e.check_cluster_invariants().unwrap();
        // One endpoint rakes, the other finalizes one round later.
        let d0 = e.nodes.row(0, e.nodes.rounds_len(0) - 1).decision;
        let d1 = e.nodes.row(1, e.nodes.rounds_len(1) - 1).decision;
        assert!(
            matches!((d0, d1), (Decision::Rake(_), Decision::Finalize))
                || matches!((d0, d1), (Decision::Finalize, Decision::Rake(_)))
        );
    }

    #[test]
    fn path_contracts_with_binary_clusters() {
        let n = 64;
        let edges: Vec<(u32, u32, f64)> = (0..n - 1).map(|i| (i, i + 1, i as f64)).collect();
        let e = build(n as usize, &edges, 3);
        assert_eq!(e.clusters.num_roots, 1);
        e.check_cluster_invariants().unwrap();
        let binaries = e
            .clusters
            .iter_live_ids()
            .filter(|&c| matches!(e.clusters.kind(c), ClusterKind::Binary { .. }))
            .count();
        assert!(binaries > 0, "a long path must compress somewhere");
    }

    #[test]
    fn star_contracts_by_rakes() {
        // Degree bound: a star must be pre-ternarized by the forest layer,
        // so here we use a 3-star (within the degree bound).
        let e = build(4, &[(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)], 9);
        assert_eq!(e.clusters.num_roots, 1);
        e.check_cluster_invariants().unwrap();
    }

    #[test]
    fn forest_has_one_root_per_component() {
        let e = build(6, &[(0, 1, 1.0), (2, 3, 1.0)], 5);
        assert_eq!(e.clusters.num_roots, 4); // {0,1}, {2,3}, {4}, {5}
    }

    #[test]
    fn roots_found_by_parent_chase() {
        let e = build(5, &[(0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0)], 11);
        let root = |v: u32| e.root_from(e.nodes.leaf_cluster(v));
        assert_eq!(root(0), root(1));
        assert_eq!(root(0), root(2));
        assert_eq!(root(3), root(4));
        assert_ne!(root(0), root(3));
    }

    #[test]
    fn incremental_matches_scratch_on_path() {
        // Build a path edge by edge (one propagation per edge), then compare
        // with a from-scratch contraction of the same base forest.
        let n = 40u32;
        let mut e = Engine::new(42);
        for i in 0..n {
            e.alloc_node(i, true);
        }
        e.propagate();
        for i in 0..n - 1 {
            let c = e.alloc_edge_cluster(i, i + 1, WKey::new(i as f64, i as u64));
            e.add_edge_round0(i, i + 1, c);
            e.propagate();
        }
        let scratch = e.rebuild_from_scratch();
        e.same_contraction(&scratch).unwrap();
        e.check_cluster_invariants().unwrap();
        scratch.check_cluster_invariants().unwrap();
    }

    #[test]
    fn cut_matches_scratch() {
        let n = 30u32;
        let edges: Vec<(u32, u32, f64)> = (0..n - 1).map(|i| (i, i + 1, i as f64)).collect();
        let mut e = build(n as usize, &edges, 17);
        // Cut the middle edge.
        let c = e.remove_edge_round0(14, 15);
        e.free_cluster(c);
        e.propagate();
        assert_eq!(e.clusters.num_roots, 2);
        let scratch = e.rebuild_from_scratch();
        e.same_contraction(&scratch).unwrap();
        e.check_cluster_invariants().unwrap();
    }

    #[test]
    fn binary_cluster_keys_are_path_maxima() {
        // Path 0-1-2-3-4 with distinct weights; every binary cluster's key
        // must equal the max key among base edges between its boundaries.
        let edges = [(0, 1, 5.0), (1, 2, 9.0), (2, 3, 2.0), (3, 4, 7.0)];
        let e = build(5, &edges, 23);
        for id in e.clusters.iter_live_ids() {
            if let ClusterKind::Binary {
                bound: (x, y), key, ..
            } = *e.clusters.kind(id)
            {
                // Brute force: max weight among base edges strictly between
                // x and y on the path (vertex ids are path positions).
                let (lo, hi) = (x.min(y), x.max(y));
                let expect = (lo..hi)
                    .map(|i| WKey::new(edges[i as usize].2, i as u64))
                    .max()
                    .unwrap();
                assert_eq!(key, expect, "cluster between {x} and {y}");
            }
        }
    }

    #[test]
    fn random_forest_incremental_equals_scratch() {
        use bimst_primitives::hash::hash2;
        // Random spanning tree built in random-sized batches, with degree
        // kept ≤ 3 by attaching to low-degree nodes only.
        let n = 200u32;
        let mut e = Engine::new(99);
        for i in 0..n {
            e.alloc_node(i, true);
        }
        e.propagate();
        let mut deg = vec![0u32; n as usize];
        let mut eid = 0u64;
        let mut pending: Vec<(u32, u32)> = Vec::new();
        for v in 1..n {
            // Attach v to some earlier node with remaining degree budget.
            let mut u = (hash2(5, v as u64) % v as u64) as u32;
            while deg[u as usize] >= 2 {
                u = (u + 1) % v;
            }
            deg[u as usize] += 1;
            deg[v as usize] += 1;
            pending.push((u, v));
            if pending.len() >= 8 || v == n - 1 {
                for &(a, b) in &pending {
                    let c = e.alloc_edge_cluster(a, b, WKey::new(hash2(1, eid) as f64, eid));
                    e.add_edge_round0(a, b, c);
                    eid += 1;
                }
                pending.clear();
                e.propagate();
            }
        }
        assert_eq!(e.clusters.num_roots, 1);
        let scratch = e.rebuild_from_scratch();
        e.same_contraction(&scratch).unwrap();
        e.check_cluster_invariants().unwrap();
    }

    #[test]
    fn one_batch_build_matches_small_batch_build() {
        // A one-batch contraction of a long path keeps deep-round
        // frontiers large (round r still holds ~c^r · n nodes) and sorts
        // them; the same base forest built in 256-edge batches keeps
        // every frontier small. The contraction is a pure function of the
        // base forest and the seed, so the two engines must encode the
        // identical contraction.
        let n = 40_000u32;
        let edges: Vec<(u32, u32, f64)> = (0..n - 1)
            .map(|i| (i, i + 1, ((i * 7919) % 10_000) as f64))
            .collect();
        let big = build(n as usize, &edges, 77);
        let mut inc = Engine::new(77);
        for i in 0..n {
            inc.alloc_node(i, true);
        }
        inc.propagate();
        for chunk in edges.iter().enumerate().collect::<Vec<_>>().chunks(256) {
            for &(i, &(a, b, w)) in chunk {
                let c = inc.alloc_edge_cluster(a, b, WKey::new(w, i as u64));
                inc.add_edge_round0(a, b, c);
            }
            inc.propagate();
        }
        big.same_contraction(&inc).unwrap();
        big.check_cluster_invariants().unwrap();
        inc.check_cluster_invariants().unwrap();
    }

    #[test]
    fn node_rows_survive_chunk_boundary_growth() {
        // Push the node arena across several chunk boundaries in one batch
        // and check that early nodes' round rows are intact — the SoA
        // arena's growth must never disturb existing state.
        let n = 2 * bimst_primitives::soa::CHUNK + 100;
        let mut e = Engine::new(13);
        for i in 0..n {
            e.alloc_node(i as u32, true);
        }
        e.propagate();
        assert_eq!(e.clusters.num_roots, n);
        for v in [0u32, 1, bimst_primitives::soa::CHUNK as u32, n as u32 - 1] {
            assert_eq!(e.nodes.row(v, 0).decision, Decision::Finalize);
            assert!(e.nodes.alive(v));
        }
    }
}
