//! Replay: recorded traces as drop-in [`TraceFactory`] implementations.
//!
//! [`TraceReplay::build`] hands the engine a [`BlockingSource`], which
//! decodes each record on the simulation thread, straight from the
//! checked payload of the current chunk.

use std::path::{Path, PathBuf};

use pagecross_cpu::trace::{Instr, TraceFactory, TraceSource};

use crate::codec::RecordCursor;
use crate::format::TraceMeta;
use crate::reader::TraceReader;
use crate::TraceError;

/// A recorded trace, openable as a workload.
///
/// Implements [`TraceFactory`], so a `.pct` file drops into
/// `SimulationBuilder::run_workload`, `run_mix` and campaign grids
/// unchanged. `name()` reports the recorded workload's name — a replayed
/// report is indistinguishable from (and bit-identical to) the direct run
/// it was recorded from.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    path: PathBuf,
    meta: TraceMeta,
}

impl TraceReplay {
    /// Opens and validates `path` (header magic, version, CRC; a finished,
    /// non-empty recording). The records themselves are decoded lazily at
    /// `build()` time.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let meta = TraceReader::open(&path)?.meta().clone();
        Ok(Self { path, meta })
    }

    /// Returns `self` unchanged: every replay decodes inline. Kept for
    /// existing callers.
    pub fn blocking(self) -> Self {
        self
    }

    /// Header metadata of the underlying file.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The file being replayed.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceFactory for TraceReplay {
    fn name(&self) -> &str {
        &self.meta.name
    }

    fn build(&self) -> Box<dyn TraceSource> {
        // `open` already validated the header; failures here are
        // environmental (file deleted/corrupted between open and build) and
        // the infallible TraceSource contract leaves panicking with a
        // descriptive message as the only honest option.
        let source = BlockingSource::open(&self.path)
            .unwrap_or_else(|e| panic!("replay of {}: {e}", self.path.display()));
        Box::new(source)
    }
}

/// Inline decoder: records are decoded one at a time, straight from the
/// checked payload of the current chunk, and the next chunk is read when
/// one runs out. Rewinds at end-of-stream (infinite stream).
pub struct BlockingSource {
    reader: TraceReader,
    path: PathBuf,
    cursor: RecordCursor,
}

impl BlockingSource {
    /// Opens `path` for inline replay.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Ok(Self {
            reader: TraceReader::open(path)?,
            path: path.to_path_buf(),
            cursor: RecordCursor::default(),
        })
    }

    /// Checks that the current chunk held nothing past its last record,
    /// then moves to the next chunk that holds records.
    fn refill(&mut self) {
        loop {
            if let Err(d) = self.cursor.finish(self.reader.payload()) {
                self.fail(self.reader.chunk_corrupt(d));
            }
            match self.reader.read_chunk() {
                Ok(Some(n)) => {
                    self.cursor = RecordCursor::new(n);
                    if n > 0 {
                        return;
                    }
                }
                Ok(None) => {
                    // Clean end of the recording: repeat from the top.
                    if let Err(e) = self.reader.rewind() {
                        self.fail(e);
                    }
                }
                Err(e) => self.fail(e),
            }
        }
    }

    fn fail(&self, e: TraceError) -> ! {
        panic!("replay of {}: {e}", self.path.display())
    }
}

impl TraceSource for BlockingSource {
    fn next_instr(&mut self) -> Instr {
        if self.cursor.remaining() == 0 {
            self.refill();
        }
        match self.cursor.next(self.reader.payload()) {
            Ok(i) => i,
            Err(d) => self.fail(self.reader.chunk_corrupt(d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{read_all, verify_file, TraceReader};
    use crate::writer::{record, TraceWriter};
    use pagecross_cpu::trace::{Op, TraceFactory};
    use pagecross_types::{Rng64, VirtAddr};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp path per test invocation.
    fn tmp(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("pct-test-{}-{tag}-{n}.pct", std::process::id()))
    }

    /// A deterministic pseudo-random workload exercising every record kind.
    struct RandomWorkload {
        seed: u64,
    }

    struct RandomSrc(Rng64);

    impl TraceSource for RandomSrc {
        fn next_instr(&mut self) -> Instr {
            let rng = &mut self.0;
            let pc = 0x40_0000 + rng.below(1 << 20) * 4;
            let op = match rng.below(6) {
                0 | 1 => Op::Alu,
                2 => Op::Branch {
                    taken: rng.chance(0.7),
                },
                3 => Op::Load {
                    va: VirtAddr::new(rng.next_u64() >> 16),
                    depends_on_prev: false,
                },
                4 => Op::Load {
                    va: VirtAddr::new(rng.next_u64() >> 16),
                    depends_on_prev: true,
                },
                _ => Op::Store {
                    va: VirtAddr::new(rng.next_u64() >> 16),
                },
            };
            Instr { pc, op }
        }
    }

    impl TraceFactory for RandomWorkload {
        fn name(&self) -> &str {
            "random"
        }

        fn build(&self) -> Box<dyn TraceSource> {
            Box::new(RandomSrc(Rng64::new(self.seed)))
        }
    }

    fn reference_stream(factory: &dyn TraceFactory, n: u64) -> Vec<Instr> {
        let mut src = factory.build();
        (0..n).map(|_| src.next_instr()).collect()
    }

    #[test]
    fn record_then_read_all_round_trips() {
        let path = tmp("roundtrip");
        let w = RandomWorkload { seed: 11 };
        let n = 10_000u64; // several chunks at the default granularity
        let meta = record(&w, n, 11, &path).unwrap();
        assert_eq!(meta.instr_count, n);
        assert_eq!(meta.name, "random");
        let (meta2, instrs) = read_all(&path).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(instrs, reference_stream(&w, n));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blocking_and_streaming_sources_agree_and_wrap() {
        let path = tmp("sources");
        let w = RandomWorkload { seed: 23 };
        let n = 2_500u64;
        record(&w, n, 23, &path).unwrap();
        let replay = TraceReplay::open(&path).unwrap();
        assert_eq!(replay.meta().instr_count, n);
        let mut blocking = BlockingSource::open(&path).unwrap();
        let mut direct = w.build();
        // Read past the end of the recording: the source must wrap to the
        // first record (direct reference: restart the generator).
        for i in 0..n {
            assert_eq!(
                blocking.next_instr(),
                direct.next_instr(),
                "diverged at {i}"
            );
        }
        let mut direct = w.build();
        for i in 0..500 {
            assert_eq!(
                blocking.next_instr(),
                direct.next_instr(),
                "wrap diverged at {i}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adaptive_build_matches_blocking_source() {
        let path = tmp("build");
        let w = RandomWorkload { seed: 41 };
        record(&w, 1_200, 41, &path).unwrap();
        // build() and blocking().build() replay the same stream as a
        // directly opened BlockingSource, past the wrap-around.
        let replay = TraceReplay::open(&path).unwrap();
        let mut built = replay.build();
        let mut forced = replay.blocking().build();
        let mut reference = BlockingSource::open(&path).unwrap();
        for i in 0..2_400 {
            let want = reference.next_instr();
            assert_eq!(forced.next_instr(), want, "blocking() diverged at {i}");
            assert_eq!(built.next_instr(), want, "build() diverged at {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected_with_description() {
        let path = tmp("truncated");
        record(&RandomWorkload { seed: 5 }, 5_000, 5, &path).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        // Cut into the middle of the record chunks.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 100).unwrap();
        drop(f);
        let err = read_all(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, TraceError::Truncated(_)) && msg.contains("truncated"),
            "expected a descriptive truncation error, got: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_recording_is_rejected() {
        let path = tmp("unfinished");
        let mut w = TraceWriter::create(&path, "w", 1, 0).unwrap();
        for i in 0..100u64 {
            w.push(&Instr {
                pc: i * 4,
                op: Op::Alu,
            })
            .unwrap();
        }
        drop(w); // no finish(): header still says zero instructions
        let err = TraceReplay::open(&path).unwrap_err();
        assert!(
            err.to_string().contains("never finished"),
            "expected unfinished-recording rejection, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_payload_is_rejected_with_checksum_error() {
        let path = tmp("bitflip");
        record(&RandomWorkload { seed: 7 }, 5_000, 7, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit well inside the chunk payloads (past the header).
        let target = bytes.len() / 2;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = verify_file(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum mismatch")
                || msg.contains("corrupt trace chunk")
                || msg.contains("record-count mismatch"),
            "expected a descriptive corruption error, got: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn end_marker_count_mismatch_is_rejected() {
        let path = tmp("endcount");
        record(&RandomWorkload { seed: 9 }, 300, 9, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The final 8 bytes are the end marker's record count.
        let n = bytes.len();
        bytes[n - 8] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(verify_file(&path), Err(TraceError::CountMismatch { .. })),
            "tampered end marker must be rejected"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_chunk_files_decode_identically_to_single_chunk() {
        let w = RandomWorkload { seed: 31 };
        let n = 1_000u64;
        let small = tmp("chunks-small");
        let big = tmp("chunks-big");
        // 64-record chunks vs one giant chunk.
        let mut ws = TraceWriter::create(&small, "random", 1, 31)
            .unwrap()
            .chunk_records(64);
        let mut wb = TraceWriter::create(&big, "random", 1, 31)
            .unwrap()
            .chunk_records(1 << 20);
        let mut src = w.build();
        for _ in 0..n {
            let i = src.next_instr();
            ws.push(&i).unwrap();
            wb.push(&i).unwrap();
        }
        ws.finish().unwrap();
        wb.finish().unwrap();
        assert_eq!(read_all(&small).unwrap().1, read_all(&big).unwrap().1);
        std::fs::remove_file(&small).ok();
        std::fs::remove_file(&big).ok();
    }

    #[test]
    fn reused_buffers_serve_only_the_current_chunk() {
        // A 300-record chunk, then a 40-record one: the reader's payload
        // buffer and the caller's `out` both shrink to the second chunk.
        let path = tmp("reuse");
        let w = RandomWorkload { seed: 53 };
        let records = reference_stream(&w, 340);
        let mut writer = TraceWriter::create(&path, "random", 1, 53)
            .unwrap()
            .chunk_records(300);
        for r in &records {
            writer.push(r).unwrap();
        }
        writer.finish().unwrap();

        let mut reader = TraceReader::open(&path).unwrap();
        let mut out = Vec::new();
        assert!(reader.next_chunk(&mut out).unwrap());
        assert_eq!(out, records[..300]);
        let long_payload = reader.payload().len();
        assert!(reader.next_chunk(&mut out).unwrap());
        assert_eq!(out, records[300..], "stale records after the short chunk");
        assert!(reader.payload().len() < long_payload);
        assert!(!reader.next_chunk(&mut out).unwrap());
        reader.rewind().unwrap();
        assert!(reader.next_chunk(&mut out).unwrap());
        assert_eq!(out, records[..300], "first chunk after the rewind");

        // The inline source serves the same records, wrapping after 340.
        let mut source = BlockingSource::open(&path).unwrap();
        for (i, want) in records
            .iter()
            .chain(&records)
            .chain(&records[..10])
            .enumerate()
        {
            assert_eq!(source.next_instr(), *want, "diverged at {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = TraceReplay::open(tmp("missing")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }
}
