//! The entropy coder as a property. Every generated input round-trips
//! exactly — empty, one byte, one repeated symbol, all 256 symbols
//! uniform, skewed, noise, and the raw blocks `encode_trace` makes of
//! every registry workload — and a stream mutated in its table header or
//! its body is refused, or decodes to bytes its CRC refuses, without a
//! panic and without allocating more than the claimed length plus the
//! decoder's fixed tables.

use dejavu_repro::codec::{crc32, entropy_compress, entropy_decompress, max_raw_len};
use dejavu_repro::dejavu::{
    encode_trace, record_run, BlockFile, SymmetryConfig, TraceFormat, DEFAULT_BLOCK_BUDGET,
};
use dejavu_repro::fleet::spec_for;
use dejavu_repro::qc::{check, Gen};
use dejavu_repro::qc_assert;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

mod counting;

/// What the decoder may allocate beyond its output: two sets of sixteen
/// 256-slot tables of `u32`, and change.
const TABLES: usize = 40 << 10;

/// `entropy_decompress`, with the bytes it allocated.
fn decompress_counted(stream: &[u8], raw_len: usize) -> (Option<Vec<u8>>, usize) {
    counting::counted(|| entropy_decompress(stream, raw_len))
}

/// The raw blocks of every registry workload, at the default budget and
/// at the corpus's 96 events a block.
fn registry_blocks() -> &'static [Vec<u8>] {
    static BLOCKS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BLOCKS.get_or_init(|| {
        let mut blocks = Vec::new();
        for w in workloads::registry() {
            let (_, trace) = record_run(&spec_for(&w, 1), w.natives, SymmetryConfig::full(), true);
            for budget in [DEFAULT_BLOCK_BUDGET, 96] {
                let file = BlockFile::parse(encode_trace(&trace, TraceFormat::Block, budget))
                    .expect("a fresh encode parses");
                blocks.extend((0..file.index.len()).map(|i| file.block_raw(i).expect("unpacks")));
            }
        }
        blocks
    })
}

fn input(g: &mut Gen) -> Vec<u8> {
    match g.usize_in(0, 6) {
        0 => Vec::new(),
        1 => vec![g.u64_in(0, 255) as u8],
        2 => vec![g.u64_in(0, 255) as u8; g.usize_in(1, 20_000)],
        3 => (0..g.usize_in(1, 64) * 256).map(|i| i as u8).collect(),
        4 => {
            let (common, every) = (g.u64_in(0, 255) as u8, g.usize_in(2, 300));
            let n = g.usize_in(1, 12_000);
            (0..n)
                .map(|i| {
                    if i % every == 0 {
                        g.u64_in(0, 255) as u8
                    } else {
                        common
                    }
                })
                .collect()
        }
        5 => g.vec_of(1, 3_000, |g| g.u64_in(0, 255) as u8),
        _ => {
            let blocks = registry_blocks();
            blocks[g.usize_in(0, blocks.len() - 1)].clone()
        }
    }
}

#[test]
fn every_input_round_trips_within_its_allocation() {
    check("every_input_round_trips_within_its_allocation", 300, |g| {
        let raw = input(g);
        let stream = entropy_compress(&raw);
        qc_assert!(
            raw.len() <= max_raw_len(stream.len()),
            "a stream decodes past its bound"
        );
        let (out, allocated) = decompress_counted(&stream, raw.len());
        qc_assert!(
            out.as_deref() == Some(&raw[..]),
            "{} bytes did not round-trip",
            raw.len()
        );
        qc_assert!(
            allocated <= raw.len() + TABLES,
            "allocated {allocated} for {}",
            raw.len()
        );
        qc_assert!(
            entropy_compress(&raw) == stream,
            "the coder is not a function"
        );
        Ok(())
    });
}

/// Mutations aimed at the table header (the stream's first bytes) half
/// the time, anywhere in the stream otherwise; and now and then a claim
/// larger than the stream could make.
#[test]
fn mutated_streams_are_refused_or_fail_the_crc() {
    check("mutated_streams_are_refused_or_fail_the_crc", 600, |g| {
        let raw = input(g);
        let mut stream = entropy_compress(&raw);
        if stream.is_empty() {
            return Ok(());
        }
        let end = if g.bool() {
            stream.len().min(8)
        } else {
            stream.len()
        };
        for _ in 0..g.usize_in(1, 4) {
            let at = g.usize_in(0, end - 1);
            match g.usize_in(0, 2) {
                0 => stream[at] ^= 1 << g.usize_in(0, 7),
                1 => stream[at] = [0x00, 0xFF, 0x80, 0x01][g.usize_in(0, 3)],
                _ => stream[at] = g.u64_in(0, 255) as u8,
            }
        }
        let claim = if g.usize_in(0, 9) == 0 {
            max_raw_len(stream.len()) + g.usize_in(1, 1 << 20)
        } else {
            raw.len()
        };
        let decoded = catch_unwind(AssertUnwindSafe(|| decompress_counted(&stream, claim)));
        let Ok((out, allocated)) = decoded else {
            return Err("the decoder panicked".into());
        };
        let within = if claim == raw.len() {
            claim + TABLES
        } else {
            TABLES
        };
        qc_assert!(
            allocated <= within,
            "allocated {allocated} for a claim of {claim}"
        );
        if let Some(out) = out {
            qc_assert!(
                out.len() == claim,
                "decoded {} bytes for {claim}",
                out.len()
            );
            qc_assert!(
                out == raw || crc32(&out) != crc32(&raw),
                "the CRC let wrong bytes through"
            );
        }
        Ok(())
    });
}
