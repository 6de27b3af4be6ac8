//! Batch sliding-window graph algorithms (§5 of the paper).
//!
//! The model: an infinite edge stream; the *window* is a suffix
//! `τ ∈ [TW, t)` of the stream. `BatchInsert` appends a batch of edges on
//! the new side; `BatchExpire(Δ)` drops the Δ oldest stream items (just a
//! count — callers need not know which edges expire). Arbitrary
//! interleavings of arbitrary sizes are allowed; matching inserts and
//! expirations keeps a fixed window.
//!
//! Everything is driven by the **recent-edge property** (Lemma 5.1): weight
//! each edge `−τ(e)` and maintain the incremental MSF with
//! [`bimst_core::BatchMsf`]; then `u, v` are connected *in the window* iff
//! the heaviest (= oldest) edge on their MSF path is unexpired.
//!
//! | structure | problem | paper |
//! |---|---|---|
//! | [`SwConn`] | connectivity, lazy expiry | Thm 5.1 |
//! | [`SwConnEager`] | connectivity + `O(1)` component counting | Thm 5.2 |
//! | [`SwBipartite`] | bipartiteness via cycle double cover | Thm 5.3 |
//! | [`ApproxMsfWeight`] | `(1+ε)`-approximate MSF weight | Thm 5.4 |
//! | [`KCertificate`] | k-certificates / k-connectivity witnesses | Thm 5.5 |
//! | [`CycleFree`] | cycle detection | Thm 5.6 |
//! | [`Sparsifier`] | ε-cut sparsification | Thm 5.8 |
//! | [`inc::IncConn`] | incremental-only connectivity via union-find | §5.7 |
//! | [`TenantSet`] | N nested tenant windows over one shared structure | Lemma 5.1, applied per tenant |
//!
//! The incremental (insert-only) setting of Table 1 is the special case of
//! never expiring; [`inc`] additionally provides the `α(n)`-work union-find
//! route of §5.7 for problems that never need expiry.

pub mod approx_msf;
pub mod bipartite;
pub mod conn;
pub mod cyclefree;
pub mod inc;
pub mod kcert;
pub mod mincut;
pub mod sparsify;
pub mod tenant;

pub use approx_msf::ApproxMsfWeight;
pub use bipartite::SwBipartite;
pub use conn::{SlidingWrite, SwConn, SwConnEager, WindowCheckpoint};
pub use cyclefree::CycleFree;
pub use kcert::KCertificate;
pub use mincut::global_min_cut;
pub use sparsify::{Sparsifier, SparsifierConfig};
pub use tenant::{TenantSet, TenantSpec};
