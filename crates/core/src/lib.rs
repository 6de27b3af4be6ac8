//! Work-efficient parallel batch-incremental minimum spanning forests.
//!
//! This crate is the paper's primary contribution (Anderson, Blelloch,
//! Tangwongsan, SPAA 2020):
//!
//! * [`cpt`] — the **compressed path tree** (§3, Algorithm 1): given the RC
//!   tree of a weighted forest and `ℓ` marked vertices, a tree of size
//!   `O(ℓ)` that preserves the heaviest edge on every pairwise path between
//!   marked vertices, computed in `O(ℓ lg(1 + n/ℓ))` expected work. The
//!   same expansion builds *fold trees* that preserve the fold of any
//!   `PathMonoid` (min, sum, hop count, …) on those paths.
//! * [`batch_msf`] — **batch-incremental MSF** (§4, Algorithm 2,
//!   Theorem 1.1): insert `ℓ` edges into a dynamically maintained MSF in
//!   `O(ℓ lg(1 + n/ℓ))` expected work and polylogarithmic span, by taking
//!   the compressed path trees over the batch endpoints, computing the MSF
//!   of `C ∪ E⁺`, and applying the resulting evictions/insertions to the
//!   dynamic forest (justified by the cycle rule — Theorem 4.1).
//!
//! # Quick start
//!
//! ```
//! use bimst_core::BatchMsf;
//!
//! let mut msf = BatchMsf::new(5, 42);
//! // Insert a batch: a square with one diagonal.
//! let res = msf.batch_insert(&[
//!     (0, 1, 1.0, 10),
//!     (1, 2, 2.0, 11),
//!     (2, 3, 3.0, 12),
//!     (3, 0, 4.0, 13),  // heaviest on the 0-1-2-3-0 cycle: rejected
//!     (0, 2, 2.5, 14),  // heavier than 0-1-2: rejected
//! ]);
//! assert_eq!(res.inserted.len(), 3);
//! assert_eq!(msf.msf_weight(), 6.0);
//! assert!(msf.connected(0, 3));
//! ```

#![forbid(unsafe_code)]

pub mod batch_msf;
pub mod cpt;

pub use batch_msf::{BatchMsf, InsertResult};
pub use cpt::{compressed_path_tree, fold_path_tree, path_fold, path_max, Cpt, CptEdge};
