//! Property tests for the WAL record codec (`bimst-wal`): every write a
//! [`MixedStream`] can emit round-trips through the stable little-endian
//! encoding bit-exactly, and damaged encodings — truncations, byte flips,
//! a tag that names no write — are *rejected or changed*, never silently
//! decoded back to the original record. (Frame-level CRC torture lives in
//! `crates/wal/tests/`; this file pins the payload codec itself.)

use bimst_repro::graphgen::{MixedConfig, MixedStream, MixedTopology, Op};
use bimst_repro::wal::{decode, encode, encoded_len, DecodeError, Write};
use proptest::prelude::*;

/// The writes of a deterministic op mix — what the log holds: inserts of
/// 1–5 edges and expiries, with insert-only streams (`window == 0`) a
/// reachable shape. The stream's queries are dropped, as the writer never
/// logs them.
fn ops(seed: u64, shape: usize, count: usize) -> Vec<Write> {
    let topology = [
        MixedTopology::ErdosRenyi,
        MixedTopology::PowerLaw,
        MixedTopology::Grid,
    ][shape % 3];
    let cfg = MixedConfig {
        n: [4, 16, 300][shape % 3],
        topology,
        insert_batch: 1 + shape % 5,
        query_batch: shape % 4, // 0: empty query batches are legal records
        queries_per_insert: shape % 3,
        window: [0, 6, 64][shape % 3], // 0: no Expire ever
        tenants: (shape % 3) as u32,   // 0: untagged; >0: tenant-tagged batches
    };
    MixedStream::new(cfg, seed)
        .filter_map(|op| match op {
            Op::Insert(edges) => Some(Write::Insert(edges)),
            Op::Expire(delta) => Some(Write::Expire(delta)),
            _ => None,
        })
        .take(count)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// decode(encode(op)) == op, and `encoded_len` agrees with the bytes
    /// actually produced (the store uses it for size arithmetic). The same
    /// payload under any tag in 2..=6 — the bytes that once named query
    /// ops — decodes as `UnknownTag`, which recovery treats as corruption.
    #[test]
    fn op_codec_round_trips(seed in 0u64..1 << 48, shape in 0usize..64) {
        let mut buf = Vec::new();
        for op in ops(seed, shape, 24) {
            buf.clear();
            encode(&op, &mut buf);
            prop_assert_eq!(buf.len(), encoded_len(&op));
            prop_assert_eq!(decode(&buf).unwrap(), op);
            for t in 2..=6u8 {
                buf[0] = t;
                prop_assert_eq!(decode(&buf), Err(DecodeError::UnknownTag(t)));
            }
        }
    }

    /// Every proper prefix of an encoding is rejected (`Truncated` /
    /// `UnknownTag`, never `Ok`), and appending trailing bytes is rejected
    /// too — a decoder that guessed would turn torn tails into wrong ops.
    #[test]
    fn truncations_never_decode(seed in 0u64..1 << 48, shape in 0usize..64) {
        let mut buf = Vec::new();
        for op in ops(seed, shape, 12) {
            buf.clear();
            encode(&op, &mut buf);
            for cut in 0..buf.len() {
                prop_assert!(
                    decode(&buf[..cut]).is_err(),
                    "prefix of {} bytes decoded", cut
                );
            }
            buf.push(0);
            prop_assert!(decode(&buf).is_err(), "trailing byte accepted");
        }
    }

    /// Flipping any single byte of an encoding never yields the original
    /// op back: either the decoder rejects it, or it decodes to a
    /// *different* op (the frame CRC exists to catch that case — what the
    /// codec itself must guarantee is that corruption is never invisible).
    #[test]
    fn byte_flips_are_never_invisible(seed in 0u64..1 << 48, shape in 0usize..64) {
        let mut buf = Vec::new();
        for op in ops(seed, shape, 8) {
            buf.clear();
            encode(&op, &mut buf);
            for at in 0..buf.len() {
                buf[at] ^= 0x01;
                if let Ok(got) = decode(&buf) {
                    prop_assert_ne!(&got, &op, "flip at {} invisible", at);
                }
                buf[at] ^= 0x01;
            }
        }
    }
}
