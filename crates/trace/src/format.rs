//! `.pct` file layout: header, chunk framing and the end-of-stream marker.
//!
//! ```text
//! header   := "PCT1" | version u16 LE | flags u16 LE (0) | core_count u32 LE
//!           | instr_count u64 LE | seed u64 LE
//!           | name_len u16 LE | name (UTF-8) | crc32(header bytes so far) u32 LE
//! chunk    := 0xC1 | varint record_count | varint payload_len
//!           | payload | crc32(payload) u32 LE
//! end      := 0xE5 | total_records u64 LE
//! file     := header chunk* end
//! ```
//!
//! `instr_count` is written as zero by [`crate::TraceWriter::create`] and
//! patched (together with the header CRC) by `finish()` — a file whose
//! header still reads zero, or that ends without the `0xE5` marker, was
//! never finished and is rejected as truncated.

use crate::codec::crc32;
use crate::TraceError;

/// File magic: "PCT1" (Page-Cross Trace, layout 1).
pub const MAGIC: [u8; 4] = *b"PCT1";

/// Current format version.
pub const VERSION: u16 = 1;

/// Frame tag opening a record chunk.
pub const CHUNK_TAG: u8 = 0xC1;

/// Frame tag of the end-of-stream marker.
pub const END_TAG: u8 = 0xE5;

/// Records per chunk written by [`crate::TraceWriter`]; a reader decodes
/// one chunk at a time.
pub const CHUNK_RECORDS: usize = 4096;

/// Upper bound a reader accepts for one chunk's payload, guarding against
/// absurd lengths from corrupt framing. Generous: even 10-byte worst-case
/// records stay far below this.
pub const MAX_CHUNK_PAYLOAD: u64 = 32 << 20;

/// Trace identity and provenance, as stored in the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Format version the file was written with.
    pub version: u16,
    /// Cores the recording targeted (1 for single-workload records).
    pub core_count: u32,
    /// Total instruction records in the file.
    pub instr_count: u64,
    /// Seed of the generator the trace was recorded from.
    pub seed: u64,
    /// Workload name (replay reports carry it, so replayed and direct runs
    /// produce identical reports).
    pub name: String,
}

/// Serialises a header for `meta` (CRC included).
pub fn encode_header(meta: &TraceMeta) -> Vec<u8> {
    let name = meta.name.as_bytes();
    assert!(
        name.len() <= u16::MAX as usize,
        "workload name too long for the header"
    );
    let mut buf = Vec::with_capacity(34 + name.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&meta.version.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
    buf.extend_from_slice(&meta.core_count.to_le_bytes());
    buf.extend_from_slice(&meta.instr_count.to_le_bytes());
    buf.extend_from_slice(&meta.seed.to_le_bytes());
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Parses and validates a header from the start of `buf`, returning the
/// metadata and the header's total byte length.
///
/// `buf` may extend beyond the header (callers hand in a prefix of the
/// file); it must merely be long enough.
pub fn decode_header(buf: &[u8]) -> Result<(TraceMeta, usize), TraceError> {
    const FIXED: usize = 4 + 2 + 2 + 4 + 8 + 8 + 2;
    if buf.len() < FIXED {
        return Err(TraceError::Truncated(format!(
            "file holds {} byte(s), a header needs at least {}",
            buf.len(),
            FIXED + 4
        )));
    }
    if buf[0..4] != MAGIC {
        return Err(TraceError::NotATrace);
    }
    let u16_at = |o: usize| u16::from_le_bytes([buf[o], buf[o + 1]]);
    let version = u16_at(4);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let core_count = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let instr_count = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    let seed = u64::from_le_bytes(buf[20..28].try_into().unwrap());
    let name_len = u16_at(28) as usize;
    let total = FIXED + name_len + 4;
    if buf.len() < total {
        return Err(TraceError::Truncated(format!(
            "header declares a {name_len}-byte name but the file ends first"
        )));
    }
    let name = std::str::from_utf8(&buf[FIXED..FIXED + name_len])
        .map_err(|_| TraceError::HeaderCorrupt("workload name is not UTF-8".to_string()))?
        .to_string();
    let stored_crc = u32::from_le_bytes(buf[total - 4..total].try_into().unwrap());
    let actual_crc = crc32(&buf[..total - 4]);
    if stored_crc != actual_crc {
        return Err(TraceError::HeaderCorrupt(format!(
            "header checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )));
    }
    Ok((
        TraceMeta {
            version,
            core_count,
            instr_count,
            seed,
            name,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            version: VERSION,
            core_count: 1,
            instr_count: 123_456,
            seed: 0xC0FFEE,
            name: "gap.s00".to_string(),
        }
    }

    #[test]
    fn header_round_trips() {
        let m = meta();
        let bytes = encode_header(&m);
        let (back, len) = decode_header(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(len, bytes.len());
        // Decoding tolerates trailing file content.
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[1, 2, 3]);
        assert_eq!(decode_header(&longer).unwrap().1, bytes.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_header(&meta());
        bytes[0] = b'X';
        assert!(matches!(decode_header(&bytes), Err(TraceError::NotATrace)));
    }

    #[test]
    fn future_version_rejected() {
        let mut m = meta();
        m.version = VERSION + 1;
        let bytes = encode_header(&m);
        assert!(matches!(
            decode_header(&bytes),
            Err(TraceError::UnsupportedVersion(v)) if v == VERSION + 1
        ));
    }

    #[test]
    fn flipped_bit_fails_the_crc() {
        let mut bytes = encode_header(&meta());
        bytes[13] ^= 0x40; // inside instr_count
        let err = decode_header(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "got: {err}");
    }

    #[test]
    fn short_buffer_is_truncated() {
        let bytes = encode_header(&meta());
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(
                matches!(decode_header(&bytes[..cut]), Err(TraceError::Truncated(_))),
                "prefix of {cut} bytes must read as truncated"
            );
        }
    }
}
