//! Batch-dynamic rake-compress trees (RC trees).
//!
//! This crate is the substrate the paper builds on: the parallel
//! batch-dynamic tree-contraction / RC-tree data structure of Acar, Anderson,
//! Blelloch, Dhulipala and Westrick (reference \[2\] of the paper), which
//! maintains a recursive clustering of a dynamic forest under batches of edge
//! links and cuts in `O(ℓ lg(1 + n/ℓ))` expected work.
//!
//! # Architecture
//!
//! * [`forest::RcForest`] — the public handle: a forest over `n` vertices
//!   with weighted edges, supporting [`forest::RcForest::batch_update`]
//!   (cuts + links), connectivity queries, and read access to the RC tree
//!   clusters (used by `bimst-core` to build compressed path trees).
//! * Ternarization (inside [`forest`]) — every original vertex owns a spine
//!   of phantom nodes so the contracted forest always has degree ≤ 3, as
//!   required by Miller–Reif contraction and by the constant-fan-in RC tree
//!   that the compressed-path-tree traversal charges against. Spine edges
//!   carry weight `−∞` and are invisible to path maxima.
//! * [`contract`] — the contraction engine. Randomized rake/compress rounds
//!   with *deterministic* coins (`hash(seed, node, round)`), stored
//!   round-by-round, so a batch update re-executes only *affected* vertices
//!   per round ("change propagation"). Building from scratch is the special
//!   case where every vertex is affected.
//! * [`cluster`] — the RC tree node arena. Binary clusters carry the
//!   heaviest-edge key on the path between their two boundary vertices, the
//!   quantity Algorithm 1 of the paper reads off in `O(1)`.
//! * [`naive`] — a trivially correct reference forest used by the test suite
//!   to validate connectivity, path maxima, and structural invariants.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod contract;
pub mod forest;
pub mod naive;

pub use cluster::{Cluster, ClusterId, ClusterKind, NONE_CLUSTER};
pub use forest::{NodeId, RcForest};
