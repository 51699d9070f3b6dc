//! Frame format: length-prefixed, CRC-guarded records of committed
//! batches — single-record frames and the multi-record *group* frames
//! that group commit flushes.
//!
//! ```text
//! frame    := [len: u32 le] [crc32(payload): u32 le] payload
//! payload  := record                                         (single)
//!           | [GROUP_TAG: u64 le] [n_records: u32 le] record* (group)
//! record   := [tx_id: u64 le] [commit_ts: u64 le] [snapshot_ts: u64 le]
//!             [n_ops: u32 le] op*
//! op       := 0x00 [klen: u32 le] key [vlen: u32 le] value   (Put)
//!           | 0x01 [klen: u32 le] key                        (Del)
//! ```
//!
//! A group frame begins with [`GROUP_TAG`] (`u64::MAX`) where a single
//! frame carries its `tx_id`; transaction ids start at 1 and are assigned
//! by a monotone counter, so the tag can never collide with a real
//! record. Because the CRC covers the *whole* payload, a torn or
//! bit-flipped group frame rejects as one unit: recovery replays either
//! every record of a coalesced group or none of them (all-or-nothing per
//! group), never a partial group.
//!
//! The record head is the sombra MVCC frame shape (standard frame +
//! `[snapshot_ts: 8][commit_ts: 8]` metadata): enough for recovery to
//! re-establish the commit clock and for future consumers (replication,
//! point-in-time restore) to reason about snapshot lineage without
//! decoding the ops.
//!
//! Decoding is defensive end to end: every length is bounds-checked
//! before use, so a torn or bit-flipped frame yields `None` — never a
//! panic or an out-of-bounds slice — and replay degrades to "stop at the
//! last intact record".

/// Upper bound on a frame's payload (sanity check against interpreting
/// garbage as a gigantic length and stalling replay on one bad frame).
pub(crate) const MAX_FRAME_BYTES: u32 = 1 << 30;

/// First 8 bytes of a group frame's payload. `u64::MAX` is unreachable
/// as a `tx_id` (ids count up from 1), so a decoder can tell the two
/// payload shapes apart from the first word.
pub const GROUP_TAG: u64 = u64::MAX;

/// Records per group frame before the flush splits into another frame
/// (all frames of one flush still share a single fsync). Bounds frame
/// size so one gigantic group cannot approach [`MAX_FRAME_BYTES`].
pub(crate) const GROUP_CHUNK_RECORDS: usize = 1024;

/// CRC-32 (IEEE, reflected, as used by zip/png) over `data`, eight
/// bytes per table step (slicing-by-8).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// it; `CRC_TABLES[k][b]` after shifting `b` and then `k` zero bytes, so
/// one lookup per byte of an 8-byte word advances the register by all
/// eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// One logical key/value delta inside a committed batch. Keys and values
/// are opaque bytes at this layer; the transactional crate encodes its
/// typed keys/values through [`crate::WalCodec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or overwrite a key.
    Put(Vec<u8>, Vec<u8>),
    /// Remove a key (a no-op when absent, so replay is idempotent).
    Del(Vec<u8>),
}

/// One committed batch: the unit of logging, replay and group commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// Monotone transaction identifier (diagnostics / dedup).
    pub tx_id: u64,
    /// The commit timestamp this batch established. Strictly increasing
    /// along the log; recovery replays in this order.
    pub commit_ts: u64,
    /// The commit timestamp of the snapshot the batch was computed
    /// against (`commit_ts - 1` under the serialized durable writer).
    pub snapshot_ts: u64,
    /// The batch's deltas, in application order.
    pub ops: Vec<WalOp>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reads over a byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let bytes = self.bytes(4)?;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let bytes = self.bytes(8)?;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let bytes = self.bytes(1)?;
        Some(bytes[0])
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Reserve a frame head (placeholder len + CRC) in `out`; returns the
/// payload's start offset, for [`seal_frame`].
pub(crate) fn begin_frame(out: &mut Vec<u8>) -> usize {
    put_u32(out, 0);
    put_u32(out, 0);
    out.len()
}

/// Patch the length prefix and CRC of the frame whose payload began at
/// `payload_at` (everything appended since [`begin_frame`]).
pub(crate) fn seal_frame(out: &mut [u8], payload_at: usize) {
    let len = (out.len() - payload_at) as u32;
    let crc = crc32(&out[payload_at..]);
    out[payload_at - 8..payload_at - 4].copy_from_slice(&len.to_le_bytes());
    out[payload_at - 4..payload_at].copy_from_slice(&crc.to_le_bytes());
}

/// Frame pre-encoded record bodies as one *group* frame:
/// `[GROUP_TAG][n_records] bodies`. `bodies` must hold exactly
/// `n_records` back-to-back [`WalBatch::encode_record`] encodings.
pub(crate) fn encode_group_frame_raw(bodies: &[u8], n_records: u32, out: &mut Vec<u8>) {
    let at = begin_frame(out);
    put_u64(out, GROUP_TAG);
    put_u32(out, n_records);
    out.extend_from_slice(bodies);
    seal_frame(out, at);
}

/// Frame one pre-encoded record body as an ordinary single-record frame.
pub(crate) fn encode_single_frame_raw(body: &[u8], out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.extend_from_slice(body);
    seal_frame(out, at);
}

impl WalBatch {
    /// Append this batch's *record body* (no frame head) to `out` — the
    /// unit both single and group frames are assembled from.
    pub fn encode_record(&self, out: &mut Vec<u8>) {
        put_u64(out, self.tx_id);
        put_u64(out, self.commit_ts);
        put_u64(out, self.snapshot_ts);
        put_u32(out, self.ops.len() as u32);
        for op in &self.ops {
            match op {
                WalOp::Put(k, v) => {
                    out.push(0x00);
                    put_u32(out, k.len() as u32);
                    out.extend_from_slice(k);
                    put_u32(out, v.len() as u32);
                    out.extend_from_slice(v);
                }
                WalOp::Del(k) => {
                    out.push(0x01);
                    put_u32(out, k.len() as u32);
                    out.extend_from_slice(k);
                }
            }
        }
    }

    /// Append the full single-record frame (length prefix, CRC, payload)
    /// to `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        let at = begin_frame(out);
        self.encode_record(out);
        seal_frame(out, at);
    }

    /// Decode one record body from `r`.
    fn decode_record(r: &mut Reader<'_>, payload_len: usize) -> Option<WalBatch> {
        let tx_id = r.u64()?;
        let commit_ts = r.u64()?;
        let snapshot_ts = r.u64()?;
        let n_ops = r.u32()?;
        let mut ops = Vec::with_capacity((n_ops as usize).min(payload_len));
        for _ in 0..n_ops {
            let op = match r.u8()? {
                0x00 => {
                    let klen = r.u32()? as usize;
                    let k = r.bytes(klen)?.to_vec();
                    let vlen = r.u32()? as usize;
                    let v = r.bytes(vlen)?.to_vec();
                    WalOp::Put(k, v)
                }
                0x01 => {
                    let klen = r.u32()? as usize;
                    WalOp::Del(r.bytes(klen)?.to_vec())
                }
                _ => return None,
            };
            ops.push(op);
        }
        Some(WalBatch {
            tx_id,
            commit_ts,
            snapshot_ts,
            ops,
        })
    }

    /// Decode one frame starting at `buf[at..]` — single-record *or*
    /// group — appending its batches to `out` in record order. Returns
    /// the offset just past the frame, or `None` if the bytes do not hold
    /// one intact frame (short length, CRC mismatch, malformed payload) —
    /// the caller treats that as the torn tail. On `None`, `out` is left
    /// exactly as it was: a torn group contributes *none* of its records.
    pub fn decode_frames(buf: &[u8], at: usize, out: &mut Vec<WalBatch>) -> Option<usize> {
        let mut head = Reader::new(buf.get(at..)?);
        let len = head.u32()?;
        let crc = head.u32()?;
        if len > MAX_FRAME_BYTES {
            return None;
        }
        let payload = head.bytes(len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        let mut r = Reader::new(payload);
        let mark = out.len();
        let intact = (|| -> Option<()> {
            if payload.len() >= 8 && payload[..8] == GROUP_TAG.to_le_bytes() {
                r.u64()?; // the tag
                let n_records = r.u32()?;
                for _ in 0..n_records {
                    out.push(Self::decode_record(&mut r, payload.len())?);
                }
            } else {
                out.push(Self::decode_record(&mut r, payload.len())?);
            }
            if r.is_empty() {
                Some(())
            } else {
                None // trailing garbage inside a "valid" CRC: reject
            }
        })();
        if intact.is_none() {
            out.truncate(mark);
            return None;
        }
        Some(at + 8 + len as usize)
    }

    /// Decode one *single-record* frame starting at `buf[at..]`. Returns
    /// the batch and the offset just past the frame, or `None` for torn /
    /// corrupt bytes — or for a (valid) group frame, which holds more
    /// than one record; use [`WalBatch::decode_frames`] to accept both
    /// shapes.
    pub fn decode_frame(buf: &[u8], at: usize) -> Option<(WalBatch, usize)> {
        let mut one = Vec::with_capacity(1);
        let next = Self::decode_frames(buf, at, &mut one)?;
        if one.len() != 1 {
            return None;
        }
        Some((one.pop().expect("checked len"), next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_matches_a_bitwise_reference() {
        // One bit per step: the polynomial division itself, with no table.
        fn reference(data: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in data {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        }
        // splitmix64: random lengths at every offset modulo a word.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for _ in 0..2_000 {
            let len = (next() % 4096) as usize;
            let at = (next() % 8) as usize;
            let data = &buf[at..at + len];
            assert_eq!(crc32(data), reference(data), "{len} bytes at offset {at}");
        }
    }

    fn sample() -> WalBatch {
        WalBatch {
            tx_id: 7,
            commit_ts: 42,
            snapshot_ts: 41,
            ops: vec![
                WalOp::Put(b"key-1".to_vec(), b"value-1".to_vec()),
                WalOp::Del(b"key-2".to_vec()),
                WalOp::Put(Vec::new(), Vec::new()),
            ],
        }
    }

    #[test]
    fn frame_roundtrip() {
        let batch = sample();
        let mut buf = vec![0xAA; 3]; // arbitrary prefix: frames are offset-relative
        batch.encode_frame(&mut buf);
        let (decoded, next) = WalBatch::decode_frame(&buf, 3).unwrap();
        assert_eq!(decoded, batch);
        assert_eq!(next, buf.len());
    }

    #[test]
    fn torn_and_corrupt_frames_decode_to_none() {
        let batch = sample();
        let mut buf = Vec::new();
        batch.encode_frame(&mut buf);
        // Every strict prefix is torn.
        for cut in 0..buf.len() {
            assert!(
                WalBatch::decode_frame(&buf[..cut], 0).is_none(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Every single-bit flip is caught by the CRC (or the structure).
        for byte in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[byte] ^= 0x10;
            if let Some((decoded, _)) = WalBatch::decode_frame(&flipped, 0) {
                // A flip inside the length prefix can only "succeed" by
                // re-framing onto bytes whose CRC still matches — with a
                // 32-bit CRC over this tiny buffer that cannot happen.
                panic!("bit flip at byte {byte} yielded {decoded:?}");
            }
        }
    }

    #[test]
    fn group_frame_roundtrip() {
        let batches: Vec<WalBatch> = (1..=5u64)
            .map(|i| WalBatch {
                tx_id: i,
                commit_ts: i + 10,
                snapshot_ts: i + 9,
                ops: vec![WalOp::Put(vec![i as u8], vec![i as u8; i as usize])],
            })
            .collect();
        let mut bodies = Vec::new();
        for b in &batches {
            b.encode_record(&mut bodies);
        }
        let mut buf = vec![0x55; 2];
        encode_group_frame_raw(&bodies, batches.len() as u32, &mut buf);
        let mut out = Vec::new();
        let next = WalBatch::decode_frames(&buf, 2, &mut out).unwrap();
        assert_eq!(out, batches);
        assert_eq!(next, buf.len());
        // The single-record decoder refuses the multi-record shape.
        assert!(WalBatch::decode_frame(&buf, 2).is_none());
    }

    #[test]
    fn torn_group_frame_is_all_or_nothing() {
        let batches: Vec<WalBatch> = (1..=4u64)
            .map(|i| WalBatch {
                tx_id: i,
                commit_ts: i,
                snapshot_ts: i - 1,
                ops: vec![WalOp::Put(vec![i as u8; 8], vec![0xCD; 32])],
            })
            .collect();
        let mut bodies = Vec::new();
        for b in &batches {
            b.encode_record(&mut bodies);
        }
        let mut buf = Vec::new();
        encode_group_frame_raw(&bodies, batches.len() as u32, &mut buf);
        // Every strict prefix — including cuts that leave several whole
        // record bodies intact — must yield no records at all.
        for cut in 0..buf.len() {
            let mut out = vec![sample()]; // pre-existing content survives
            assert!(
                WalBatch::decode_frames(&buf[..cut], 0, &mut out).is_none(),
                "prefix of {cut} bytes decoded"
            );
            assert_eq!(out.len(), 1, "torn group leaked records at cut {cut}");
        }
        // Any single-bit flip rejects the whole group.
        for byte in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[byte] ^= 0x04;
            let mut out = Vec::new();
            assert!(
                WalBatch::decode_frames(&flipped, 0, &mut out).is_none(),
                "bit flip at byte {byte} decoded"
            );
            assert!(out.is_empty());
        }
    }

    #[test]
    fn single_record_frames_decode_through_both_apis() {
        let batch = sample();
        let mut buf = Vec::new();
        batch.encode_frame(&mut buf);
        let mut out = Vec::new();
        let next = WalBatch::decode_frames(&buf, 0, &mut out).unwrap();
        assert_eq!(out, vec![batch.clone()]);
        assert_eq!(next, buf.len());
        assert_eq!(WalBatch::decode_frame(&buf, 0).unwrap().0, batch);
    }

    #[test]
    fn back_to_back_frames_chain() {
        let mut buf = Vec::new();
        let mut batches = Vec::new();
        for i in 0..5u64 {
            let b = WalBatch {
                tx_id: i,
                commit_ts: i + 1,
                snapshot_ts: i,
                ops: vec![WalOp::Put(vec![i as u8], vec![i as u8; i as usize])],
            };
            b.encode_frame(&mut buf);
            batches.push(b);
        }
        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((b, next)) = WalBatch::decode_frame(&buf, at) {
            seen.push(b);
            at = next;
        }
        assert_eq!(seen, batches);
        assert_eq!(at, buf.len());
    }
}
