//! Umbrella crate for the `bimst` workspace: re-exports the public surface
//! of every member so examples, integration tests, and downstream users can
//! depend on one crate.
//!
//! See `README.md` for the tour and its "Reproducing the paper" table for
//! the binary behind each of the paper's experiments.
//!
//! ```
//! use bimst_repro::core::BatchMsf;
//! use bimst_repro::query::{QueryBatch, ReadHandle};
//! use bimst_repro::sliding::SwConnEager;
//!
//! let mut msf = BatchMsf::new(8, 1);
//! msf.batch_insert(&[(0, 1, 1.0, 10), (1, 2, 2.0, 11)]);
//! assert!(msf.connected(0, 2));
//!
//! // Batched reads: a snapshot handle plus a reusable executor. Results
//! // are bit-identical to the per-query loop, computed with root walks /
//! // shared compressed path trees, in parallel for large batches.
//! let mut q = QueryBatch::new();
//! let h = ReadHandle::new(&msf);
//! assert_eq!(q.batch_connected(h, &[(0, 2), (0, 3)]), vec![true, false]);
//! assert_eq!(q.batch_component_size(h, &[0, 3]), vec![3, 1]);
//! assert_eq!(q.batch_path_max(h, &[(0, 2)])[0].unwrap().w, 2.0);
//!
//! // Path aggregation is monoid-generic: `batch_path_max` is the `MaxW`
//! // instance of `batch_path_fold`, and other monoids fold over the same
//! // shared-CPT plan (min = bottleneck, sum = cost, hops = length).
//! use bimst_repro::monoid::{Hops, MinW};
//! assert_eq!(q.batch_path_fold::<Hops>(h, &[(0, 2), (0, 3)]), vec![Some(2), None]);
//! assert_eq!(q.batch_path_fold::<MinW>(h, &[(0, 2)])[0].unwrap().w, 1.0);
//!
//! let mut win = SwConnEager::new(8, 2);
//! win.batch_insert(&[(0, 1), (1, 2)]);
//! win.batch_expire(1);
//! assert!(!win.is_connected(0, 1));
//! // The same executor serves window-connectivity batches (lazy windows
//! // get the recent-edge test applied for them).
//! assert_eq!(q.batch_window_connected(&win, &[(0, 1), (1, 2)]), vec![false, true]);
//! ```
//!
//! Serving: when ops originate on many threads, hand the window to
//! `bimst-service` — a writer thread group-commits the write stream and,
//! with its reader threads, answers query tickets from generation-pinned
//! snapshots, and a bounded queue provides backpressure (`try_*` variants) with
//! drain-ordered shutdown. Answers are bit-identical to a sequential
//! replay of the admitted ops; see the README's *Serving* section for the
//! architecture diagram and the generation-handoff rules.
//!
//! ```
//! use bimst_repro::service::{QueryReq, Service, ServiceConfig};
//!
//! let svc = Service::eager(8, 2, ServiceConfig::default());
//! let h = svc.handle(); // Clone one per client thread
//! h.insert(vec![(0, 1), (1, 2)]).unwrap();
//! let ticket = h.query(QueryReq::WindowConnected(vec![(0, 2), (0, 7)])).unwrap();
//! let answered = ticket.wait().unwrap();
//! assert_eq!(answered.generation, 1);
//! assert_eq!(answered.resp.into_window_connected().unwrap(), vec![true, false]);
//! drop(h);
//! svc.shutdown(); // drains: every admitted ticket resolves first
//! ```

/// The paper's contribution: compressed path trees and batch-incremental
/// MSF (re-export of `bimst-core`).
pub use bimst_core as core;

/// Batch-dynamic rake-compress trees (re-export of `bimst-rctree`).
pub use bimst_rctree as rctree;

/// Sliding-window applications (re-export of `bimst-sliding`).
pub use bimst_sliding as sliding;

/// Batch-parallel query engine (re-export of `bimst-query`).
pub use bimst_query as query;

/// Sharded serving runtime (re-export of `bimst-service`).
pub use bimst_service as service;

/// Write-ahead op log, checkpoints, crash recovery (re-export of
/// `bimst-wal`).
pub use bimst_wal as wal;

/// Static MSF algorithms (re-export of `bimst-msf`).
pub use bimst_msf as msf;

/// Sequential link-cut baseline (re-export of `bimst-linkcut`).
pub use bimst_linkcut as linkcut;

/// Union-find structures (re-export of `bimst-unionfind`).
pub use bimst_unionfind as unionfind;

/// Join-based ordered sets (re-export of `bimst-ordset`).
pub use bimst_ordset as ordset;

/// Shared primitives (re-export of `bimst-primitives`).
pub use bimst_primitives as primitives;

/// Path-aggregation monoids (re-export of [`primitives::monoid`]): the
/// [`PathMonoid`](primitives::monoid::PathMonoid) trait, its instances
/// (`MaxW`, `MinW`, `SumW`, `Hops`, and the componentwise `Pair`), and
/// the wire-level `FoldKind`/`FoldValue`. Surfaced at the root because
/// every layer's fold API is parameterized by them:
/// `core::BatchMsf::path_fold`, `query::QueryBatch::batch_path_fold`,
/// and `service::QueryReq::PathFold`.
pub use bimst_primitives::monoid;

/// Workload generators (re-export of `bimst-graphgen`).
pub use bimst_graphgen as graphgen;

/// Metrics and tracing: recorders, counters, histograms, span timers,
/// JSON / Prometheus snapshot export (re-export of `bimst-obs`). Every
/// layer above records into this subsystem.
pub use bimst_obs as obs;

/// Compiles and runs the README's `rust` blocks as doctests, so the tour
/// cannot drift from the API it shows.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
