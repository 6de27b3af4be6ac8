//! The WAL's record type, [`Write`], and its stable little-endian
//! encoding — the log's record payload format.
//!
//! The log holds only what changes the window, so a record has exactly
//! two kinds, `Insert` and `Expire`; queries are never logged. The
//! encoding is versioned by the store's file magic, not per record;
//! within a format version it is **stable**: one tag byte per variant,
//! `u32`/`u64` fields little-endian, counts as `u32` prefixes. Decoding is
//! exact — every byte must be accounted for — so a payload that passes
//! its frame CRC but does not parse (any other tag included) is treated by
//! the store as corruption, not silently skipped.
//!
//! | tag | variant | payload after the tag |
//! |---|---|---|
//! | 0 | `Insert` | `count: u32`, then `count × (u: u32, v: u32)` |
//! | 1 | `Expire` | `delta: u64` |

/// One logged write: what the service's admission queue carries, what a
/// write group merges into, and what recovery replays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Write {
    /// Append edges on the new side of the window.
    Insert(Vec<(u32, u32)>),
    /// Expire the Δ oldest stream positions.
    Expire(u64),
}

/// Why a payload failed to decode as a [`Write`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ends before the value its header promises.
    Truncated,
    /// Bytes remain after a complete record (the encoding is exact).
    TrailingBytes,
    /// The leading byte is not a known record tag.
    UnknownTag(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("bimst-wal: record payload truncated"),
            DecodeError::TrailingBytes => f.write_str("bimst-wal: trailing bytes after record"),
            DecodeError::UnknownTag(t) => write!(f, "bimst-wal: unknown record tag {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_INSERT: u8 = 0;
const TAG_EXPIRE: u8 = 1;

/// Appends the encoding of `w` to `out`.
pub fn encode(w: &Write, out: &mut Vec<u8>) {
    match w {
        Write::Insert(edges) => {
            out.push(TAG_INSERT);
            out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for &(u, v) in edges {
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Write::Expire(delta) => {
            out.push(TAG_EXPIRE);
            out.extend_from_slice(&delta.to_le_bytes());
        }
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

/// Decodes one record from exactly `buf` (no trailing bytes allowed).
pub fn decode(buf: &[u8]) -> Result<Write, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    let w = match r.u8()? {
        TAG_INSERT => Write::Insert(r.pairs()?),
        TAG_EXPIRE => Write::Expire(r.u64()?),
        t => return Err(DecodeError::UnknownTag(t)),
    };
    if r.pos != buf.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(w)
}

/// Encoded payload length of `w` (before framing) — offset arithmetic for
/// the torture suite.
pub fn encoded_len(w: &Write) -> usize {
    match w {
        Write::Insert(v) => 5 + 8 * v.len(),
        Write::Expire(_) => 9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplars() -> Vec<Write> {
        vec![
            Write::Insert(vec![]),
            Write::Insert(vec![(0, 1), (u32::MAX, 7)]),
            Write::Expire(0),
            Write::Expire(u64::MAX),
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        let mut buf = Vec::new();
        for w in exemplars() {
            buf.clear();
            encode(&w, &mut buf);
            assert_eq!(buf.len(), encoded_len(&w));
            assert_eq!(decode(&buf), Ok(w));
        }
    }

    #[test]
    fn rejects_malformed_payloads() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[9]), Err(DecodeError::UnknownTag(9)));
        // Only writes have tags: the bytes once used for query ops are
        // unknown, whatever follows them.
        for t in 2..=6u8 {
            assert_eq!(decode(&[t]), Err(DecodeError::UnknownTag(t)));
            let mut q = vec![t];
            q.extend_from_slice(&1u32.to_le_bytes());
            q.extend_from_slice(&[0; 8]);
            assert_eq!(decode(&q), Err(DecodeError::UnknownTag(t)));
        }
        // Expire with a truncated delta.
        assert_eq!(decode(&[1, 1, 0]), Err(DecodeError::Truncated));
        // Count promises more pairs than the bytes hold.
        let mut buf = Vec::new();
        encode(&Write::Insert(vec![(1, 2), (3, 4)]), &mut buf);
        assert_eq!(decode(&buf[..buf.len() - 1]), Err(DecodeError::Truncated));
        // Oversized count must fail before allocating.
        let mut huge = vec![0u8]; // Insert tag
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&huge), Err(DecodeError::Truncated));
        // Exactness: a valid record followed by junk is an error.
        buf.push(0);
        assert_eq!(decode(&buf), Err(DecodeError::TrailingBytes));
    }

    /// The on-disk bytes themselves, not just the round trip: a change to
    /// the record type or the encoder that moves a byte fails here.
    #[test]
    fn encoding_bytes_are_pinned() {
        let mut max = vec![1u8];
        max.extend_from_slice(&[0xff; 8]);
        let golden: [(Write, Vec<u8>); 4] = [
            (Write::Insert(vec![]), vec![0, 0, 0, 0, 0]),
            (
                Write::Insert(vec![(1, 2)]),
                vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0],
            ),
            (Write::Expire(42), vec![1, 42, 0, 0, 0, 0, 0, 0, 0]),
            (Write::Expire(u64::MAX), max),
        ];
        for (w, bytes) in golden {
            let mut buf = Vec::new();
            encode(&w, &mut buf);
            assert_eq!(buf, bytes, "{w:?}");
            assert_eq!(decode(&bytes), Ok(w));
        }
    }
}
