//! Blocking `.pct` reading: header validation, chunk-at-a-time decode,
//! full-file loads and integrity scans.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use pagecross_cpu::trace::Instr;

use crate::codec::{crc32, decode_records};
use crate::format::{decode_header, TraceMeta, CHUNK_TAG, END_TAG, MAX_CHUNK_PAYLOAD};
use crate::TraceError;

/// A validated, positioned `.pct` file, decoded one chunk at a time.
pub struct TraceReader {
    file: BufReader<File>,
    meta: TraceMeta,
    /// File offset of the first chunk (rewind target).
    data_start: u64,
    /// Index of the next chunk to be read.
    chunk_index: u64,
    /// Records decoded since the last rewind.
    records_seen: u64,
    /// Payload of the chunk last read; its allocation is kept across
    /// chunks.
    payload: Vec<u8>,
}

impl TraceReader {
    /// Opens `path`, validating the header (magic, version, CRC). A header
    /// whose instruction count is still zero marks a recording that never
    /// finished and is rejected as truncated.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let mut file = BufReader::new(File::open(path)?);
        // Headers are small; over-read a prefix, then seek to the real end.
        let mut prefix = vec![0u8; 4096];
        let mut got = 0usize;
        while got < prefix.len() {
            let n = file.read(&mut prefix[got..])?;
            if n == 0 {
                break;
            }
            got += n;
        }
        let (meta, header_len) = decode_header(&prefix[..got])?;
        if meta.instr_count == 0 {
            return Err(TraceError::Truncated(
                "header instruction count is zero — the recording was never finished".to_string(),
            ));
        }
        file.seek(SeekFrom::Start(header_len as u64))?;
        Ok(Self {
            file,
            meta,
            data_start: header_len as u64,
            chunk_index: 0,
            records_seen: 0,
            payload: Vec::new(),
        })
    }

    /// The header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Reads a varint byte-by-byte from the file.
    fn read_varint_file(&mut self, what: &str) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let mut byte = [0u8; 1];
            read_exact_or_truncated(&mut self.file, &mut byte, what, self.chunk_index)?;
            let b = byte[0];
            if shift == 63 && b > 1 {
                return Err(TraceError::ChunkCorrupt {
                    chunk: self.chunk_index,
                    detail: format!("malformed varint in {what}"),
                });
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Decodes the next chunk into `out`, replacing its contents and
    /// reusing its capacity.
    ///
    /// Returns `Ok(true)` when a chunk was decoded, `Ok(false)` at a clean
    /// end-of-stream (marker present and the record counts agree). Any
    /// other condition — early EOF, CRC mismatch, a malformed record,
    /// count disagreement — is an error, after which the contents of `out`
    /// are unspecified.
    pub fn next_chunk(&mut self, out: &mut Vec<Instr>) -> Result<bool, TraceError> {
        let Some(n_records) = self.read_chunk()? else {
            return Ok(false);
        };
        decode_records(&self.payload, n_records, out).map_err(|d| self.chunk_corrupt(d))?;
        Ok(true)
    }

    /// Reads the next chunk's framing and payload and checks the payload's
    /// CRC, without decoding its records. Returns the chunk's record count
    /// — [`TraceReader::payload`] then holds its payload — or `None` at a
    /// clean end-of-stream (marker present and the record counts agree).
    /// Any other condition — early EOF, CRC mismatch, count disagreement —
    /// is an error.
    pub(crate) fn read_chunk(&mut self) -> Result<Option<u64>, TraceError> {
        let mut tag = [0u8; 1];
        read_exact_or_truncated(&mut self.file, &mut tag, "a chunk tag", self.chunk_index)?;
        match tag[0] {
            END_TAG => {
                let mut total = [0u8; 8];
                read_exact_or_truncated(
                    &mut self.file,
                    &mut total,
                    "the end-of-stream marker",
                    self.chunk_index,
                )?;
                let total = u64::from_le_bytes(total);
                if total != self.records_seen {
                    return Err(TraceError::CountMismatch {
                        expected: total,
                        actual: self.records_seen,
                    });
                }
                if total != self.meta.instr_count {
                    return Err(TraceError::CountMismatch {
                        expected: self.meta.instr_count,
                        actual: total,
                    });
                }
                Ok(None)
            }
            CHUNK_TAG => {
                let n_records = self.read_varint_file("a chunk record count")?;
                let payload_len = self.read_varint_file("a chunk payload length")?;
                if payload_len > MAX_CHUNK_PAYLOAD || n_records > MAX_CHUNK_PAYLOAD {
                    return Err(TraceError::ChunkCorrupt {
                        chunk: self.chunk_index,
                        detail: format!(
                            "implausible chunk framing ({n_records} records, {payload_len} bytes)"
                        ),
                    });
                }
                self.payload.resize(payload_len as usize, 0);
                read_exact_or_truncated(
                    &mut self.file,
                    &mut self.payload,
                    "a chunk payload",
                    self.chunk_index,
                )?;
                let mut stored = [0u8; 4];
                read_exact_or_truncated(
                    &mut self.file,
                    &mut stored,
                    "a chunk checksum",
                    self.chunk_index,
                )?;
                let stored = u32::from_le_bytes(stored);
                let actual = crc32(&self.payload);
                if stored != actual {
                    return Err(TraceError::ChunkCorrupt {
                        chunk: self.chunk_index,
                        detail: format!(
                            "payload checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
                        ),
                    });
                }
                self.records_seen += n_records;
                self.chunk_index += 1;
                Ok(Some(n_records))
            }
            other => Err(TraceError::ChunkCorrupt {
                chunk: self.chunk_index,
                detail: format!("unknown frame tag {other:#04x}"),
            }),
        }
    }

    /// The checked payload of the chunk last read by
    /// [`TraceReader::read_chunk`].
    #[inline]
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// A record-decoding error in the chunk last read.
    pub(crate) fn chunk_corrupt(&self, detail: String) -> TraceError {
        TraceError::ChunkCorrupt {
            chunk: self.chunk_index.saturating_sub(1),
            detail,
        }
    }

    /// Repositions at the first chunk (trace repeat).
    pub fn rewind(&mut self) -> Result<(), TraceError> {
        self.file.seek(SeekFrom::Start(self.data_start))?;
        self.chunk_index = 0;
        self.records_seen = 0;
        Ok(())
    }
}

/// `read_exact` that reports running out of file as truncation inside
/// `what`, in chunk `chunk`.
fn read_exact_or_truncated(
    file: &mut BufReader<File>,
    buf: &mut [u8],
    what: &str,
    chunk: u64,
) -> Result<(), TraceError> {
    file.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated(format!("file ends inside {what} (chunk {chunk})"))
        } else {
            TraceError::Io(e)
        }
    })
}

/// Loads an entire trace into memory, verifying every checksum and the
/// end-of-stream marker.
pub fn read_all(path: &Path) -> Result<(TraceMeta, Vec<Instr>), TraceError> {
    let mut reader = TraceReader::open(path)?;
    let mut all = Vec::with_capacity(reader.meta().instr_count as usize);
    let mut chunk = Vec::new();
    while reader.next_chunk(&mut chunk)? {
        all.extend_from_slice(&chunk);
    }
    let meta = reader.meta().clone();
    Ok((meta, all))
}

/// Scans a trace end to end — every chunk CRC, the record counts, the end
/// marker — without keeping the records. Returns the metadata on success.
pub fn verify_file(path: &Path) -> Result<TraceMeta, TraceError> {
    let mut reader = TraceReader::open(path)?;
    let mut chunk = Vec::new();
    while reader.next_chunk(&mut chunk)? {}
    Ok(reader.meta().clone())
}
