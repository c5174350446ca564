//! Format lock: a fixed, seeded recording must keep its exact bytes.
//!
//! The stream spans many 64-record chunks plus a short last one, and
//! carries every record kind: ALU ops, both branch kinds, both load kinds
//! and stores, with deltas from one byte up to ten-byte varints. Its byte
//! length and an FNV-1a hash of the whole file are pinned, so any change
//! to the writer, the varint or zigzag coding, the framing or the CRC
//! shows up here, whatever the decoder thinks of the result.

use pagecross_cpu::trace::{Instr, Op, TraceSource};
use pagecross_trace::{read_all, BlockingSource, TraceWriter};
use pagecross_types::{Rng64, VirtAddr};

/// Records in the locked stream: 15 chunks of 64 and a last one of 40.
const RECORDS: u64 = 1_000;
/// Pinned file length in bytes.
const FILE_LEN: usize = 4_569;
/// Pinned FNV-1a 64 hash of every byte of the file.
const FILE_FNV: u64 = 0xC971_3169_BF1C_B099;

/// The locked stream: mostly sequential code and striding data, with
/// occasional jumps anywhere in the 64-bit space.
fn stream() -> Vec<Instr> {
    let mut rng = Rng64::new(0x5EED_F0E7);
    let (mut pc, mut va) = (0x40_0000u64, 0x7F00_0000u64);
    (0..RECORDS)
        .map(|_| {
            pc = match rng.below(16) {
                0 => rng.next_u64(),
                1 => pc.wrapping_sub(rng.below(4096) * 4),
                _ => pc.wrapping_add(4),
            };
            let kind = rng.below(7);
            if kind >= 4 {
                va = match rng.below(8) {
                    0 => rng.next_u64(),
                    1 => va.wrapping_sub(rng.below(1 << 20)),
                    2 => va.wrapping_add(rng.below(1 << 30)),
                    _ => va.wrapping_add(64),
                };
            }
            let op = match kind {
                0 | 1 => Op::Alu,
                2 => Op::Branch { taken: false },
                3 => Op::Branch { taken: true },
                4 => Op::Load {
                    va: VirtAddr::new(va),
                    depends_on_prev: false,
                },
                5 => Op::Load {
                    va: VirtAddr::new(va),
                    depends_on_prev: true,
                },
                _ => Op::Store {
                    va: VirtAddr::new(va),
                },
            };
            Instr { pc, op }
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[test]
fn seeded_multi_chunk_recording_keeps_its_bytes_and_records() {
    let path = std::env::temp_dir().join(format!("pct-format-lock-{}.pct", std::process::id()));
    let records = stream();
    let mut writer = TraceWriter::create(&path, "format.lock", 1, 0x5EED_F0E7)
        .unwrap()
        .chunk_records(64);
    for r in &records {
        writer.push(r).unwrap();
    }
    writer.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();

    let (meta, decoded) = read_all(&path).unwrap();
    assert_eq!(meta.instr_count, RECORDS);
    assert_eq!(decoded, records, "decoded records differ from the stream");
    let mut source = BlockingSource::open(&path).unwrap();
    for (i, want) in records.iter().chain(&records[..100]).enumerate() {
        assert_eq!(source.next_instr(), *want, "replay diverged at {i}");
    }
    std::fs::remove_file(&path).ok();

    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (FILE_LEN, FILE_FNV),
        "the .pct bytes changed: got length {} and FNV-1a {:#018x}",
        bytes.len(),
        fnv1a(&bytes)
    );
}
