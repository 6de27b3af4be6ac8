//! Parallel primitives shared by every `bimst` crate.
//!
//! The paper analyzes its algorithms in the arbitrary-CRCW PRAM. This crate
//! provides the small toolkit we use to realize those algorithms on a
//! fork-join machine (rayon):
//!
//! * [`hash`] — deterministic, seedable mixing hashes. Every random decision
//!   in the tree-contraction substrate is a *pure function* of
//!   `(seed, object, round)`, which is what makes batch-dynamic change
//!   propagation well-defined (re-running an unaffected vertex reproduces the
//!   identical decision).
//! * [`weight`] — totally ordered edge weights with edge-id tie-breaking so
//!   minimum spanning forests are unique, plus the `-inf` phantom weight used
//!   by the ternarization spine.
//! * [`par`] — a parallel map into a reused buffer, sequential below
//!   [`GRAIN`].
//! * [`avec`] — fixed-capacity inline vectors for the degree-≤3 adjacency
//!   lists and constant-fan-in cluster children of the ternarized substrate.
//! * [`fxmap`] — a fast non-cryptographic hasher for the integer-id maps on
//!   hot paths.
//! * [`monoid`] — the path-aggregation algebra: a [`PathMonoid`] trait
//!   (identity, associative combine, per-edge lift) with max/min/sum/hops
//!   instances and a tuple composer, so path statistics beyond the MSF's
//!   hardwired max are one trait instance, not another hand-rolled walk.
//! * [`soa`] — cache-conscious storage: chunked arenas whose growth never
//!   relocates (no doubling-copy latency spikes) and epoch-stamped dense
//!   slot tables with O(1) reset (the hash-free transient sets/maps the
//!   hot paths use). The SoA hot/cold field splits in `bimst-rctree` are
//!   built from these.

pub mod avec;
pub mod fxmap;
pub mod hash;
pub mod monoid;
pub mod par;
pub mod soa;
pub mod weight;

pub use avec::AVec;
pub use fxmap::{FxHashMap, FxHashSet};
pub use hash::{coin, hash2, hash3, mix64};
pub use monoid::{FoldKind, FoldValue, Hops, MaxW, MinW, Pair, PathMonoid, SumW};
pub use soa::{ChunkedArena, EpochSet, EpochSlotMap};
pub use weight::{EdgeId, WKey, Weight, NEG_INF};

/// A vertex identifier. The substrate addresses vertices densely, `0..n`.
pub type VertexId = u32;

/// Sequential grain size under which parallel loops fall back to sequential
/// execution. Chosen to amortize rayon task overhead on ~100ns loop bodies.
pub const GRAIN: usize = 2048;
