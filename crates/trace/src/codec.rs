//! The record codec: LEB128 varints, zigzag deltas and CRC-32.
//!
//! Records are encoded relative to the previous record of the *same chunk*
//! (delta state resets at every chunk boundary), so chunks decode
//! independently — a seek, a rewind, or a background decoder never needs
//! context from an earlier chunk.
//!
//! Per record:
//!
//! ```text
//! [kind u8] [varint zigzag(Δpc)] [varint zigzag(Δva)]?   (Δva only for loads/stores)
//! ```
//!
//! Deltas are wrapping `u64` subtractions reinterpreted as `i64` and
//! zigzag-folded, which is lossless for every possible address while
//! keeping sequential pcs/vas (the common case) to one or two bytes.

use pagecross_cpu::trace::{Instr, Op};
use pagecross_types::VirtAddr;

/// Record kind tags (one byte each).
const K_ALU: u8 = 0;
const K_BRANCH_NT: u8 = 1;
const K_BRANCH_T: u8 = 2;
const K_LOAD: u8 = 3;
const K_LOAD_DEP: u8 = 4;
const K_STORE: u8 = 5;

/// Appends `v` as an LEB128 varint (7 bits per byte, MSB = continuation).
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it. Errors on a value
/// that overflows `u64` — which every encoding longer than 10 bytes does,
/// as its 10th byte carries a continuation bit — and on running off the
/// end of the buffer.
///
/// A varint that ends within the next 8 bytes is read from one 8-byte
/// window: the first byte without a continuation bit is found with one
/// `trailing_zeros`, and its 7-bit groups are packed in three steps.
/// Longer varints and those near the end of `buf` take the byte loop.
#[inline(always)]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    if let Some(window) = buf.get(*pos..*pos + 8) {
        let w = u64::from_le_bytes(window.try_into().expect("an 8-byte slice"));
        let stops = !w & 0x8080_8080_8080_8080;
        if stops != 0 {
            // Bit index of the last byte's (clear) continuation bit.
            let end = stops.trailing_zeros();
            *pos += (end as usize + 1) / 8;
            let groups = w & (u64::MAX >> (63 - end)) & 0x7F7F_7F7F_7F7F_7F7F;
            let pairs = (groups & 0x007F_007F_007F_007F) | ((groups & 0x7F00_7F00_7F00_7F00) >> 1);
            let quads = (pairs & 0x0000_3FFF_0000_3FFF) | ((pairs & 0x3FFF_0000_3FFF_0000) >> 2);
            return Ok((quads & 0x0FFF_FFFF) | ((quads & 0x0FFF_FFFF_0000_0000) >> 4));
        }
    }
    read_varint_bytewise(buf, pos)
}

/// The checked byte-at-a-time varint read behind [`read_varint`].
#[cold]
#[inline(never)]
fn read_varint_bytewise(buf: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf
            .get(*pos)
            .ok_or("varint runs past the end of the chunk payload")?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err("varint overflows u64");
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-folds a signed delta into an unsigned varint-friendly value.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn write_delta(buf: &mut Vec<u8>, prev: &mut u64, cur: u64) {
    write_varint(buf, zigzag(cur.wrapping_sub(*prev) as i64));
    *prev = cur;
}

/// Appends `records`, encoded as one chunk payload (delta state starts at
/// zero), to `buf`.
pub fn encode_records(records: &[Instr], buf: &mut Vec<u8>) {
    // Sequential code dominates: ~2 bytes per ALU/branch, ~4 per memory op.
    buf.reserve(records.len() * 4);
    let (mut prev_pc, mut prev_va) = (0u64, 0u64);
    for r in records {
        match r.op {
            Op::Alu => buf.push(K_ALU),
            Op::Branch { taken } => buf.push(if taken { K_BRANCH_T } else { K_BRANCH_NT }),
            Op::Load {
                depends_on_prev, ..
            } => buf.push(if depends_on_prev { K_LOAD_DEP } else { K_LOAD }),
            Op::Store { .. } => buf.push(K_STORE),
        }
        write_delta(buf, &mut prev_pc, r.pc);
        match r.op {
            Op::Load { va, .. } | Op::Store { va } => {
                write_delta(buf, &mut prev_va, va.raw());
            }
            _ => {}
        }
    }
}

/// The decoder of one chunk payload, one record at a time: the position
/// in the payload, the delta state and the records still to come.
///
/// The cursor does not own the payload; every call must pass the same
/// one. A fresh cursor (`RecordCursor::default()`) has no records left.
#[derive(Clone, Debug, Default)]
pub(crate) struct RecordCursor {
    pos: usize,
    prev_pc: u64,
    prev_va: u64,
    index: u64,
    count: u64,
}

impl RecordCursor {
    /// A cursor at the start of a payload holding `count` records.
    pub fn new(count: u64) -> Self {
        Self {
            count,
            ..Self::default()
        }
    }

    /// Records not yet decoded.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.count - self.index
    }

    /// Decodes the next record of `payload`. Errors on a record cut short
    /// by the end of the payload, a malformed varint or an unknown kind;
    /// the cursor is unspecified after an error. Call it only while
    /// [`RecordCursor::remaining`] is nonzero, and [`RecordCursor::finish`]
    /// once it reaches zero.
    #[inline(always)]
    pub fn next(&mut self, payload: &[u8]) -> Result<Instr, String> {
        let Some(&kind) = payload.get(self.pos) else {
            return Err(self.payload_ended());
        };
        let mut pos = self.pos + 1;
        let d = unzigzag(read_varint(payload, &mut pos)?);
        self.prev_pc = self.prev_pc.wrapping_add(d as u64);
        if kind > K_STORE {
            return Err(self.unknown_kind(kind));
        }
        let op = if kind >= K_LOAD {
            let d = unzigzag(read_varint(payload, &mut pos)?);
            self.prev_va = self.prev_va.wrapping_add(d as u64);
            let va = VirtAddr::new(self.prev_va);
            if kind == K_STORE {
                Op::Store { va }
            } else {
                Op::Load {
                    va,
                    depends_on_prev: kind == K_LOAD_DEP,
                }
            }
        } else if kind == K_ALU {
            Op::Alu
        } else {
            Op::Branch {
                taken: kind == K_BRANCH_T,
            }
        };
        self.pos = pos;
        self.index += 1;
        Ok(Instr {
            pc: self.prev_pc,
            op,
        })
    }

    #[cold]
    fn payload_ended(&self) -> String {
        format!("payload ends at record {} of {}", self.index, self.count)
    }

    #[cold]
    fn unknown_kind(&self, kind: u8) -> String {
        format!("unknown record kind {kind:#04x} at record {}", self.index)
    }

    /// Checks that the records decoded so far used the whole of `payload`.
    pub fn finish(&self, payload: &[u8]) -> Result<(), String> {
        match payload.len() - self.pos {
            0 => Ok(()),
            n => Err(format!("{n} trailing byte(s) after the last record")),
        }
    }
}

/// Decodes exactly `count` records from a chunk payload into `out`,
/// replacing its contents and keeping its capacity. Errors when the
/// payload is malformed, too short, or carries trailing bytes; `out` is
/// unspecified after an error.
pub fn decode_records(payload: &[u8], count: u64, out: &mut Vec<Instr>) -> Result<(), String> {
    out.clear();
    // A record takes at least two bytes: a count read from a corrupt frame
    // reserves no more than the payload can hold.
    out.reserve(count.min(payload.len() as u64 / 2) as usize);
    let mut cursor = RecordCursor::new(count);
    while cursor.remaining() > 0 {
        out.push(cursor.next(payload)?);
    }
    cursor.finish(payload)
}

/// Slicing-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the
/// classic bytewise table, and `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
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
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: eight bytes
/// per step through eight independent table lookups.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::prop::{check, vec_of, Config, Shrink};
    use pagecross_types::{prop_assert, prop_assert_eq, Rng64};

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overlong_and_truncated() {
        // Each case with nothing after it and with a zero tail after it, so
        // both the byte loop and the 8-byte window see it.
        for tail in [0usize, 16] {
            let read = |bytes: &[u8]| {
                let mut buf = bytes.to_vec();
                buf.resize(bytes.len() + tail, 0);
                read_varint(&buf, &mut 0)
            };
            // Longer than 10 bytes: the 10th byte's continuation bit alone
            // overflows a u64.
            assert_eq!(read(&[0x80; 11]), Err("varint overflows u64"));
            // 10th byte carrying more than the single remaining bit.
            let mut overflow = vec![0xFFu8; 9];
            overflow.push(0x7F);
            assert_eq!(read(&overflow), Err("varint overflows u64"));
        }
        // Continuation bit set on the last available byte.
        for len in 1..=9 {
            assert_eq!(
                read_varint(&vec![0x80u8; len], &mut 0),
                Err("varint runs past the end of the chunk payload"),
                "{len} continuation byte(s)"
            );
        }
    }

    /// Both varint reads at `start` of `buf`: `(value, new position)` or
    /// the error.
    type VarintRead = Result<(u64, usize), &'static str>;

    fn both_varint_reads(buf: &[u8], start: usize) -> (VarintRead, VarintRead) {
        let (mut window, mut bytewise) = (start, start);
        let a = read_varint(buf, &mut window).map(|v| (v, window));
        let b = read_varint_bytewise(buf, &mut bytewise).map(|v| (v, bytewise));
        (a, b)
    }

    #[test]
    fn prop_window_varint_matches_byte_loop() {
        // Every encoded length from 1 to 12 bytes (11 and 12 are overlong),
        // with random 7-bit groups — so non-canonical and overflowing
        // encodings too — followed by 0 to 9 bytes before the payload end.
        check(
            &Config::cases(96).seed(0x71A7),
            |rng| rng.next_u64(),
            |&seed| {
                let mut rng = Rng64::new(seed);
                for len in 1..=12usize {
                    let mut enc: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8 | 0x80).collect();
                    enc[len - 1] &= if rng.chance(0.5) { 0x01 } else { 0x7F };
                    for lead in [0usize, 3] {
                        for tail in 0..=9usize {
                            let mut buf: Vec<u8> =
                                (0..lead).map(|_| rng.next_u64() as u8).collect();
                            buf.extend_from_slice(&enc);
                            buf.extend((0..tail).map(|_| rng.next_u64() as u8));
                            let (window, bytewise) = both_varint_reads(&buf, lead);
                            prop_assert_eq!(
                                window,
                                bytewise,
                                "{len}-byte varint {enc:02x?}, {tail} byte(s) before the end"
                            );
                            // The same bytes cut short inside the varint.
                            let cut = &buf[..lead + len - 1];
                            let (window, bytewise) = both_varint_reads(cut, lead);
                            prop_assert_eq!(window, bytewise, "{len}-byte varint cut short");
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// CRC-32 one bit at a time: the reference the table kernel must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn prop_crc32_matches_bitwise_reference() {
        // Random bytes at every alignment: 0 to 300 bytes starting 0 to 300
        // bytes into a buffer.
        check(
            &Config::cases(256).seed(0xC3C3),
            |rng| (rng.next_u64(), rng.below(301), rng.below(301)),
            |&(seed, start, len)| {
                let mut rng = Rng64::new(seed);
                let buf: Vec<u8> = (0..start + len).map(|_| rng.next_u64() as u8).collect();
                let data = &buf[start as usize..];
                prop_assert_eq!(crc32(data), crc32_bitwise(data), "{len} bytes at {start}");
                Ok(())
            },
        );
    }

    /// Local wrapper so the foreign `Instr` can ride through the in-repo
    /// property harness (which needs `Shrink`).
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct ArbInstr(Instr);

    impl Shrink for ArbInstr {}

    /// An arbitrary instruction over the full 64-bit pc/va space — the
    /// codec must be lossless even for addresses no sane trace contains.
    fn arb_instr(rng: &mut Rng64) -> ArbInstr {
        let pc = rng.next_u64();
        let op = match rng.below(6) {
            0 => Op::Alu,
            1 => Op::Branch { taken: false },
            2 => Op::Branch { taken: true },
            3 => Op::Load {
                va: VirtAddr::new(rng.next_u64()),
                depends_on_prev: false,
            },
            4 => Op::Load {
                va: VirtAddr::new(rng.next_u64()),
                depends_on_prev: true,
            },
            _ => Op::Store {
                va: VirtAddr::new(rng.next_u64()),
            },
        };
        ArbInstr(Instr { pc, op })
    }

    #[test]
    fn prop_records_round_trip() {
        check(
            &Config::cases(128).seed(0x9C75),
            |rng| vec_of(rng, 0, 300, arb_instr),
            |instrs: &Vec<ArbInstr>| {
                let plain: Vec<Instr> = instrs.iter().map(|a| a.0).collect();
                let mut payload = Vec::new();
                encode_records(&plain, &mut payload);
                let mut back = Vec::new();
                decode_records(&payload, plain.len() as u64, &mut back)
                    .map_err(|e| format!("decode failed: {e}"))?;
                prop_assert_eq!(&back, &plain, "round trip diverged");
                Ok(())
            },
        );
    }

    #[test]
    fn prop_truncated_payload_rejected() {
        check(
            &Config::cases(64).seed(0x7AC3),
            |rng| vec_of(rng, 1, 100, arb_instr),
            |instrs: &Vec<ArbInstr>| {
                let plain: Vec<Instr> = instrs.iter().map(|a| a.0).collect();
                let mut payload = Vec::new();
                encode_records(&plain, &mut payload);
                // Dropping the final byte must never decode cleanly: either
                // a record is cut short or a trailing-length check fires.
                let cut = &payload[..payload.len() - 1];
                prop_assert!(
                    decode_records(cut, plain.len() as u64, &mut Vec::new()).is_err(),
                    "truncated payload decoded cleanly"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let records = vec![
            Instr {
                pc: 0x400000,
                op: Op::Alu,
            },
            Instr {
                pc: 0x400004,
                op: Op::Alu,
            },
        ];
        let mut payload = Vec::new();
        encode_records(&records, &mut payload);
        payload.push(0);
        let err = decode_records(&payload, 2, &mut Vec::new()).unwrap_err();
        assert!(err.contains("trailing"), "got: {err}");
    }

    #[test]
    fn unknown_record_kind_rejected() {
        // An ALU record, then kind 6 with a valid pc delta.
        let err = decode_records(&[K_ALU, 8, K_STORE + 1, 8], 2, &mut Vec::new()).unwrap_err();
        assert_eq!(err, "unknown record kind 0x06 at record 1");
    }

    #[test]
    fn sequential_code_is_compact() {
        // A realistic basic block: sequential pcs, striding loads. The
        // format exists to be compact — keep it honest.
        let mut records = Vec::new();
        for i in 0..1024u64 {
            let pc = 0x40_0000 + i * 4;
            let op = if i % 4 == 0 {
                Op::Load {
                    va: VirtAddr::new(0x10_0000 + i * 64),
                    depends_on_prev: false,
                }
            } else {
                Op::Alu
            };
            records.push(Instr { pc, op });
        }
        let mut payload = Vec::new();
        encode_records(&records, &mut payload);
        assert!(
            payload.len() < records.len() * 4,
            "expected < 4 bytes/record, got {} for {}",
            payload.len(),
            records.len()
        );
    }
}
