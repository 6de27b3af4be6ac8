//! The stable little-endian encoding of the write ops of
//! [`bimst_graphgen::Op`] — the WAL's record payload format.
//!
//! `Op` is the workspace's canonical op representation (`MixedStream`
//! yields it, `ServiceHandle::submit_op` consumes it). The log holds only
//! what changes the window, `Insert` and `Expire`; queries are never
//! logged, so they have no encoding. The encoding is versioned by the
//! store's file magic, not per record; within a format version it is
//! **stable**: one tag byte per variant, `u32`/`u64` fields
//! little-endian, counts as `u32` prefixes. Decoding is exact — every byte
//! must be accounted for — so a payload that passes its frame CRC but does
//! not parse (any other tag included) is treated by the store as
//! corruption, not silently skipped.
//!
//! | tag | variant | payload after the tag |
//! |---|---|---|
//! | 0 | `Insert` | `count: u32`, then `count × (u: u32, v: u32)` |
//! | 1 | `Expire` | `delta: u64` |

use bimst_graphgen::Op;

/// Why a payload failed to decode as an [`Op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ends before the value its header promises.
    Truncated,
    /// Bytes remain after a complete op (the encoding is exact).
    TrailingBytes,
    /// The leading byte is not a known op tag.
    UnknownTag(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("bimst-wal: op payload truncated"),
            DecodeError::TrailingBytes => f.write_str("bimst-wal: trailing bytes after op"),
            DecodeError::UnknownTag(t) => write!(f, "bimst-wal: unknown op tag {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_INSERT: u8 = 0;
const TAG_EXPIRE: u8 = 1;

/// Appends the encoding of `op` to `out`.
///
/// # Panics
///
/// On any op but `Insert` and `Expire`: only writes are logged, and
/// persisting a record that recovery could not replay would be silent
/// data loss, so the writer fails stop instead.
pub fn encode_op(op: &Op, out: &mut Vec<u8>) {
    match op {
        Op::Insert(edges) => encode_insert(edges, out),
        Op::Expire(delta) => encode_expire(*delta, out),
        op => unreachable!("bimst-wal: only writes are logged, not {op:?}"),
    }
}

/// Appends the encoding of `Op::Insert(edges)` without building the op
/// (the writer thread logs its merged group buffer directly).
pub fn encode_insert(edges: &[(u32, u32)], out: &mut Vec<u8>) {
    out.push(TAG_INSERT);
    encode_pairs(edges, out);
}

/// Appends the encoding of `Op::Expire(delta)`.
pub fn encode_expire(delta: u64, out: &mut Vec<u8>) {
    out.push(TAG_EXPIRE);
    out.extend_from_slice(&delta.to_le_bytes());
}

fn encode_pairs(pairs: &[(u32, u32)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(u, v) in pairs {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or(DecodeError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(DecodeError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a `u32` count, bounded against the bytes actually present
    /// (`elem_bytes` each) *before* any allocation — a corrupted count can
    /// not trigger a giant `with_capacity`.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let c = self.u32()? as usize;
        if c > (self.buf.len() - self.pos) / elem_bytes {
            return Err(DecodeError::Truncated);
        }
        Ok(c)
    }

    fn pairs(&mut self) -> Result<Vec<(u32, u32)>, DecodeError> {
        let c = self.count(8)?;
        let mut out = Vec::with_capacity(c);
        for _ in 0..c {
            out.push((self.u32()?, self.u32()?));
        }
        Ok(out)
    }
}

/// Decodes one op from exactly `buf` (no trailing bytes allowed).
pub fn decode_op(buf: &[u8]) -> Result<Op, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    let op = match r.u8()? {
        TAG_INSERT => Op::Insert(r.pairs()?),
        TAG_EXPIRE => Op::Expire(r.u64()?),
        t => return Err(DecodeError::UnknownTag(t)),
    };
    if r.pos != buf.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(op)
}

/// Encoded payload length of `op` (before framing) — offset arithmetic for
/// the torture suite.
pub fn encoded_len(op: &Op) -> usize {
    match op {
        Op::Insert(v) => 5 + 8 * v.len(),
        Op::Expire(_) => 9,
        op => unreachable!("bimst-wal: only writes are logged, not {op:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplars() -> Vec<Op> {
        vec![
            Op::Insert(vec![]),
            Op::Insert(vec![(0, 1), (u32::MAX, 7)]),
            Op::Expire(0),
            Op::Expire(u64::MAX),
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        let mut buf = Vec::new();
        for op in exemplars() {
            buf.clear();
            encode_op(&op, &mut buf);
            assert_eq!(buf.len(), encoded_len(&op));
            assert_eq!(decode_op(&buf), Ok(op));
        }
    }

    #[test]
    fn rejects_malformed_payloads() {
        assert_eq!(decode_op(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode_op(&[9]), Err(DecodeError::UnknownTag(9)));
        // Only writes have tags: the bytes once used for query ops are
        // unknown, whatever follows them.
        for t in 2..=6u8 {
            assert_eq!(decode_op(&[t]), Err(DecodeError::UnknownTag(t)));
            let mut q = vec![t];
            q.extend_from_slice(&1u32.to_le_bytes());
            q.extend_from_slice(&[0; 8]);
            assert_eq!(decode_op(&q), Err(DecodeError::UnknownTag(t)));
        }
        // Expire with a truncated delta.
        assert_eq!(decode_op(&[1, 1, 0]), Err(DecodeError::Truncated));
        // Count promises more pairs than the bytes hold.
        let mut buf = Vec::new();
        encode_op(&Op::Insert(vec![(1, 2), (3, 4)]), &mut buf);
        assert_eq!(
            decode_op(&buf[..buf.len() - 1]),
            Err(DecodeError::Truncated)
        );
        // Oversized count must fail before allocating.
        let mut huge = vec![0u8]; // Insert tag
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_op(&huge), Err(DecodeError::Truncated));
        // Exactness: a valid op followed by junk is an error.
        buf.push(0);
        assert_eq!(decode_op(&buf), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn encode_insert_and_expire_match_the_op_encoding() {
        let edges = vec![(5u32, 6u32), (7, 8)];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_insert(&edges, &mut a);
        encode_op(&Op::Insert(edges), &mut b);
        assert_eq!(a, b);
        a.clear();
        b.clear();
        encode_expire(42, &mut a);
        encode_op(&Op::Expire(42), &mut b);
        assert_eq!(a, b);
    }
}
