//! Write-ahead logging and crash recovery for the serving runtime.
//!
//! The ROADMAP's durability tentpole: `bimst-service` keeps the entire
//! sliding window in RAM, so before this crate a process crash lost every
//! admitted edge. `bimst-wal` gives the service's single-writer admission
//! path an append-only, CRC32-framed binary log of admitted writes
//! (the two-arm [`Write`] record, `Insert` or `Expire`, which [`codec`]
//! gives a stable little-endian encoding), periodic compacted
//! checkpoints, and a recovery scan that rebuilds **exactly** the
//! admitted-write prefix that survived — torn final records are
//! discarded, never misparsed.
//!
//! Three layers, bottom up:
//!
//! * `frame` (crate-private): `[len][crc32][payload]` records; reading
//!   stops at the first frame that cannot be proven complete and intact.
//! * [`codec`]: the stable write encoding (one tag byte, little-endian
//!   fields, exact — no trailing bytes; queries are never logged).
//! * [`Store`]: a directory of `meta` + `wal-<g>.seg` segments +
//!   `ckpt-<g>.ckpt` checkpoints. One record per applied write group, so
//!   segment name + record index = generation. Checkpoints are written
//!   tmp-then-rename and retained two deep, so a crash *during* a
//!   checkpoint falls back to the previous one. Recovery = newest valid
//!   checkpoint + replay of the segment tail ([`recover_dir`] to inspect,
//!   [`Store::open`] to resume appending). Nothing tails a live log: a
//!   rejoining replica restores a live peer's checkpoint instead.
//!
//! What a crash can cost is the [`SyncPolicy`] the service writer runs
//! with — per-op fsync (`Always`), one fsync per merged write group
//! (`GroupCommit`, aligned with the service's `write_budget` group-commit
//! boundary so the fsync amortizes like the batch bound), or no fsync at
//! all (`None`). See the README's *Durability* section for the service-
//! level wiring and `crates/wal/tests/torture.rs` for the truncated-tail
//! torture suite that pins the recovery contract at every byte offset.

#![forbid(unsafe_code)]

pub mod codec;
mod frame;
mod store;

pub use codec::{decode, encode, encoded_len, DecodeError, Write};
pub use store::{recover_dir, Checkpoint, Meta, Recovery, Store, SyncPolicy, FILE_HEADER};
