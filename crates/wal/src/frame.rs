//! CRC32-framed records: the byte-level layer every WAL file shares.
//!
//! A frame is `[len: u32 LE][crc32(payload): u32 LE][payload]`. The CRC is
//! over the payload only; the length is validated against the bytes that
//! are actually present before the CRC is even computed, so a reader can
//! never index past a torn tail. The `Frames` iterator stops at the first frame that
//! cannot be proven complete and intact — a torn or corrupted suffix is
//! *discarded*, never misparsed as data (the property the truncated-tail
//! torture suite pins at every byte offset).

/// Reflected IEEE 802.3 polynomial — the CRC32 of zip/png/ethernet, so the
/// on-disk format is checkable with any standard tool.
const CRC_POLY: u32 = 0xEDB8_8320;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE, reflected) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Bytes of framing overhead per record (`len` + `crc`).
pub(crate) const FRAME_HEADER: usize = 8;

/// Appends one frame around `payload` to `out`.
pub(crate) fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Cursor over the frames of a byte buffer; see the module docs for the
/// torn-tail contract.
pub(crate) struct Frames<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Frames { buf, pos: 0 }
    }

    /// Byte offset just past the last intact frame yielded so far.
    pub(crate) fn valid_len(&self) -> usize {
        self.pos
    }

    /// The next intact frame's payload, or `None` at the first torn /
    /// corrupted frame (which leaves [`Frames::valid_len`] untouched).
    pub(crate) fn next_frame(&mut self) -> Option<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        if rest.len() < FRAME_HEADER {
            return None;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        // `get` bounds the declared length against the bytes present: a
        // corrupted length field reads as a torn frame, not a wild index.
        let payload = rest.get(FRAME_HEADER..FRAME_HEADER + len)?;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if crc32(payload) != crc {
            return None;
        }
        self.pos += FRAME_HEADER + len;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standard CRC32 check vector: any implementation of the IEEE
    /// polynomial must produce this value for "123456789".
    #[test]
    fn crc32_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_stop_at_tears() {
        let payloads: [&[u8]; 3] = [b"alpha", b"", b"gamma-longer-payload"];
        let mut buf = Vec::new();
        for p in payloads {
            write_frame(&mut buf, p);
        }
        // Intact: every frame comes back, valid_len covers everything.
        let mut f = Frames::new(&buf);
        for p in payloads {
            assert_eq!(f.next_frame(), Some(p));
        }
        assert_eq!(f.next_frame(), None);
        assert_eq!(f.valid_len(), buf.len());

        // Every truncation yields exactly the frames that fit whole.
        let sizes: Vec<usize> = payloads.iter().map(|p| FRAME_HEADER + p.len()).collect();
        for cut in 0..=buf.len() {
            let mut f = Frames::new(&buf[..cut]);
            let mut whole = 0usize;
            let mut acc = 0usize;
            for &s in &sizes {
                if acc + s > cut {
                    break;
                }
                acc += s;
                whole += 1;
            }
            for p in payloads.iter().take(whole) {
                assert_eq!(f.next_frame(), Some(*p), "cut at {cut}");
            }
            assert_eq!(f.next_frame(), None, "cut at {cut}");
            assert_eq!(f.valid_len(), acc, "cut at {cut}");
        }

        // A flipped payload byte fails the CRC and stops iteration there.
        let mut bad = buf.clone();
        bad[FRAME_HEADER] ^= 0x40; // first byte of frame 0's payload
        let mut f = Frames::new(&bad);
        assert_eq!(f.next_frame(), None);
        assert_eq!(f.valid_len(), 0);

        // A flipped length byte reads as torn (or CRC-mismatched), never
        // as a wild index: frames before it still parse.
        let mut bad = buf.clone();
        bad[sizes[0] + sizes[1]] ^= 0x40; // first len byte of frame 2
        let mut f = Frames::new(&bad);
        assert_eq!(f.next_frame(), Some(payloads[0]));
        assert_eq!(f.next_frame(), Some(payloads[1]));
        assert_eq!(f.next_frame(), None);
        assert_eq!(f.valid_len(), sizes[0] + sizes[1]);
    }
}
