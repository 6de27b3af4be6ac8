//! Seeded end-to-end benchmark of the `bimst` serving path.
//!
//! One command runs one of three workloads (`ingest`, `serve_small`,
//! `analytics`) through the public API of `bimst-service`, checks the
//! answers against an inline reference, and prints the end-to-end metrics
//! declared in the repository's `BENCHMARK.json`. With `--trace 1` it
//! instead drives the same op stream down a layer ladder (inline window and
//! query executor, in-memory service, durable service, replica set) and
//! prints the per-layer metrics. See `README.md` in this directory.

pub mod cli;
pub mod drive;
pub mod e2e;
pub mod ladder;
pub mod layer;
pub mod report;
pub mod shape;
pub mod stats;
