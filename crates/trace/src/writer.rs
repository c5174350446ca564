//! Recording: serialise an instruction stream to a `.pct` file.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use pagecross_cpu::trace::{Instr, TraceFactory};

use crate::codec::{crc32, encode_records, write_varint};
use crate::format::{encode_header, TraceMeta, CHUNK_RECORDS, CHUNK_TAG, END_TAG, VERSION};
use crate::TraceError;

/// Streams instruction records into a `.pct` file, chunk by chunk.
///
/// The header is written immediately with `instr_count == 0`;
/// [`TraceWriter::finish`] writes the end-of-stream marker and seeks back
/// to patch the real count (and header CRC) in place. A writer that is
/// dropped without `finish()` therefore leaves a file that readers reject
/// as truncated — a crashed recording can never masquerade as a complete
/// trace.
pub struct TraceWriter {
    file: BufWriter<File>,
    meta: TraceMeta,
    pending: Vec<Instr>,
    /// Encoded payload and frame header of the chunk being flushed, kept
    /// across chunks.
    payload: Vec<u8>,
    frame: Vec<u8>,
    chunk_records: usize,
    total: u64,
    finished: bool,
}

impl TraceWriter {
    /// Creates `path` (truncating any existing file) and writes the
    /// provisional header.
    pub fn create(path: &Path, name: &str, core_count: u32, seed: u64) -> Result<Self, TraceError> {
        let meta = TraceMeta {
            version: VERSION,
            core_count,
            instr_count: 0,
            seed,
            name: name.to_string(),
        };
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&encode_header(&meta))?;
        Ok(Self {
            file,
            meta,
            pending: Vec::with_capacity(CHUNK_RECORDS),
            payload: Vec::new(),
            frame: Vec::new(),
            chunk_records: CHUNK_RECORDS,
            total: 0,
            finished: false,
        })
    }

    /// Overrides the records-per-chunk granularity (tests exercise
    /// multi-chunk files without writing 4096-record traces).
    pub fn chunk_records(mut self, n: usize) -> Self {
        self.chunk_records = n.max(1);
        self
    }

    /// Appends one instruction record.
    pub fn push(&mut self, instr: &Instr) -> Result<(), TraceError> {
        self.pending.push(*instr);
        self.total += 1;
        if self.pending.len() >= self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.payload.clear();
        encode_records(&self.pending, &mut self.payload);
        self.frame.clear();
        self.frame.push(CHUNK_TAG);
        write_varint(&mut self.frame, self.pending.len() as u64);
        write_varint(&mut self.frame, self.payload.len() as u64);
        self.file.write_all(&self.frame)?;
        self.file.write_all(&self.payload)?;
        self.file.write_all(&crc32(&self.payload).to_le_bytes())?;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the last chunk, writes the end-of-stream marker, patches the
    /// header's instruction count, and syncs the file. Returns the final
    /// metadata.
    pub fn finish(mut self) -> Result<TraceMeta, TraceError> {
        self.flush_chunk()?;
        self.file.write_all(&[END_TAG])?;
        self.file.write_all(&self.total.to_le_bytes())?;
        self.meta.instr_count = self.total;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&encode_header(&self.meta))?;
        self.file.flush()?;
        self.finished = true;
        Ok(self.meta.clone())
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort flush so the partial file is inspectable; the
            // zero instr_count header marks it unfinished regardless.
            let _ = self.file.flush();
        }
    }
}

/// Records `instructions` instructions of a fresh stream from `factory`
/// into `path`. `seed` is stored in the header as provenance (use the
/// workload's generator seed).
///
/// To replay a simulation exactly, record `warmup + measured` instructions
/// — the engine consumes precisely that prefix, so the replayed counters
/// are bit-identical to the direct run.
pub fn record(
    factory: &dyn TraceFactory,
    instructions: u64,
    seed: u64,
    path: &Path,
) -> Result<TraceMeta, TraceError> {
    let mut writer = TraceWriter::create(path, factory.name(), 1, seed)?;
    let mut src = factory.build();
    for _ in 0..instructions {
        writer.push(&src.next_instr())?;
    }
    writer.finish()
}
