//! Fuzz oracle for the DJVB decode path (the blocktrace bugfixes): feed
//! seeded, deterministic mutations of valid trace bytes — bit flips,
//! truncations, byte overwrites, insertions — into every decoder entry
//! point and assert "typed error or success, never panic".
//!
//! This is what makes the corpus gate's exit-code contract trustworthy:
//! a panicking decoder would turn a corrupt artifact (exit 1) into an
//! abort (SIGABRT / exit 101).

use dejavu_repro::dejavu::{
    encode_trace, ingest_bytes, write_block_file, BlockFile, BlockMethod, DataRec, SwitchRec,
    Trace, TraceError, TraceFormat,
};
use dejavu_repro::qc::{check, Gen};
use dejavu_repro::qc_assert;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A structurally valid random trace: the mutation starting point.
fn gen_trace(g: &mut Gen) -> Trace {
    let paranoid = g.bool();
    let switches = g.vec_of(0, 40, |g| SwitchRec {
        nyp: g.u64_in(1, 50_000),
        check_tid: if paranoid {
            g.u64_in(0, 5) as u32
        } else {
            u32::MAX
        },
    });
    let data = g.vec_of(0, 40, |g| {
        if g.bool() {
            DataRec::Clock(g.i64_in(-5, 2_000_000))
        } else {
            DataRec::Native {
                ret: g.any_i64(),
                callbacks: g.vec_of(0, 3, |g| {
                    (g.u64_in(0, 7) as u32, g.vec_of(0, 3, |g| g.i64_in(-9, 9)))
                }),
            }
        }
    });
    Trace {
        paranoid,
        switches,
        data,
    }
}

/// Apply one seeded mutation to `bytes` (no-op on empty input).
fn mutate(g: &mut Gen, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    match g.usize_in(0, 3) {
        // bit flip
        0 => {
            let i = g.usize_in(0, bytes.len() - 1);
            bytes[i] ^= 1 << g.usize_in(0, 7);
        }
        // byte overwrite (0x00 and 0xFF are the interesting extremes for
        // varint columns; draw them often)
        1 => {
            let i = g.usize_in(0, bytes.len() - 1);
            bytes[i] = [0x00, 0xFF, 0x7F, 0x80][g.usize_in(0, 3)];
        }
        // truncate
        2 => {
            let keep = g.usize_in(0, bytes.len() - 1);
            bytes.truncate(keep);
        }
        // insert a byte
        _ => {
            let i = g.usize_in(0, bytes.len());
            bytes.insert(i, g.u64_in(0, 255) as u8);
        }
    }
}

/// Run every decoder entry point over the bytes; the closure's only job
/// is to not panic.
fn exercise_decoders(bytes: &[u8]) {
    if let Ok(got) = ingest_bytes(bytes.to_vec()) {
        let _ = got.trace.stats();
    }
    if let Ok(bf) = BlockFile::parse(bytes.to_vec()) {
        let _ = bf.verify();
        let _ = bf.crc_status();
        let _ = bf.boundaries();
        let _ = bf.stats();
        for i in 0..bf.index.len() {
            let _ = bf.block(i);
        }
        let _ = bf.to_trace();
    }
}

#[test]
fn mutated_djvb_bytes_never_panic() {
    check("mutated_djvb_bytes_never_panic", 600, |g| {
        let mut trace = gen_trace(g);
        // One mutation the writer spells faithfully: a switch taken zero
        // yield points after the last. No recorder logs one (Fig. 2), a
        // replayer counting it down would never switch again, and every
        // door refuses it.
        let zeroed = !trace.switches.is_empty() && g.usize_in(0, 3) == 0;
        if zeroed {
            let i = g.usize_in(0, trace.switches.len() - 1);
            trace.switches[i].nyp = 0;
        }
        let budget = [24, 48, 96, 4096][g.usize_in(0, 3)];
        let mut bytes = if g.bool() {
            encode_trace(&trace, TraceFormat::Block, budget)
        } else {
            trace.encoded()
        };
        if zeroed {
            let refused = ingest_bytes(bytes.clone()).is_err();
            qc_assert!(refused, "a zero yield-point delta was ingested");
        }
        let mutations = g.usize_in(1, 8);
        for _ in 0..mutations {
            mutate(g, &mut bytes);
        }
        let ok = catch_unwind(AssertUnwindSafe(|| exercise_decoders(&bytes))).is_ok();
        qc_assert!(ok, "decoder panicked on mutated {} bytes", bytes.len());
        Ok(())
    });
}

/// The coder's table header — the first bytes of each coded block's
/// stream — mutated inside an otherwise well-framed file: every decoder
/// entry point refuses it with a typed error or, if the damage left the
/// tables equivalent, decodes the original trace; none panics, and the
/// CRC stands behind whatever the coder lets through.
#[test]
fn mutated_table_headers_never_panic() {
    check("mutated_table_headers_never_panic", 400, |g| {
        // Small deltas in long columns, so the blocks are coded.
        let paranoid = g.bool();
        let trace = Trace {
            paranoid,
            switches: g.vec_of(100, 3_000, |g| SwitchRec {
                nyp: g.u64_in(1, 4),
                check_tid: if paranoid {
                    g.u64_in(0, 3) as u32
                } else {
                    u32::MAX
                },
            }),
            data: g.vec_of(0, 1_000, |g| DataRec::Clock(g.i64_in(0, 3))),
        };
        let budget = [96, 512, 4096][g.usize_in(0, 2)];
        let bf = BlockFile::parse(encode_trace(&trace, TraceFormat::Block, budget))
            .map_err(|e| e.to_string())?;
        let mut blocks: Vec<_> = (0..bf.index.len())
            .map(|i| {
                let b = &bf.index[i];
                (
                    b.first_logical_time,
                    b.event_count,
                    b.switch_count,
                    bf.packed(i).unwrap(),
                )
            })
            .collect();
        let coded: Vec<usize> = (0..blocks.len())
            .filter(|&i| blocks[i].3.method == BlockMethod::Rans)
            .collect();
        qc_assert!(!coded.is_empty(), "no block of the trace is coded");
        let stream = &mut blocks[coded[g.usize_in(0, coded.len() - 1)]].3.stream;
        let mut header: Vec<u8> = stream.drain(..stream.len().min(8)).collect();
        for _ in 0..g.usize_in(1, 4) {
            mutate(g, &mut header);
        }
        stream.splice(0..0, header);
        let bytes = write_block_file(bf.paranoid, bf.budget, blocks);
        let ok = catch_unwind(AssertUnwindSafe(|| exercise_decoders(&bytes))).is_ok();
        qc_assert!(ok, "decoder panicked on a mutated table header");
        match ingest_bytes(bytes) {
            Err(_) => Ok(()),
            Ok(got) => {
                qc_assert!(
                    got.trace == trace,
                    "a mutated table header decoded another trace"
                );
                Ok(())
            }
        }
    });
}

/// A DJVB file has one spelling: whatever survives `parse` is exactly
/// what the writer emits for the blocks `parse` found, so nothing that
/// re-frames a parsed file (the store's `get`) can return other bytes
/// than it was handed.
#[test]
fn a_parsed_file_writes_back_to_its_input() {
    check("a_parsed_file_writes_back_to_its_input", 600, |g| {
        let trace = gen_trace(g);
        let budget = [24, 48, 96, 4096][g.usize_in(0, 3)];
        let mut bytes = encode_trace(&trace, TraceFormat::Block, budget);
        for _ in 0..g.usize_in(1, 3) {
            mutate(g, &mut bytes);
        }
        let Ok(bf) = BlockFile::parse(bytes.clone()) else {
            return Ok(());
        };
        // A payload whose method byte was hit has no packed form to
        // write back; the framing claim is about the ones that do.
        let blocks: Result<Vec<_>, TraceError> = (0..bf.index.len())
            .map(|i| {
                let b = &bf.index[i];
                Ok((b.first_logical_time, b.event_count, b.switch_count, bf.packed(i)?))
            })
            .collect();
        if let Ok(blocks) = blocks {
            let back = write_block_file(bf.paranoid, bf.budget, blocks);
            qc_assert!(back == bytes, "parse accepted a second spelling of a file");
        }
        Ok(())
    });
}

#[test]
fn unmutated_bytes_round_trip() {
    // Control arm: without mutations the same pipeline must decode back
    // to the identical trace (so the fuzz arm is mutating real encodings,
    // not already-broken ones).
    check("unmutated_bytes_round_trip", 120, |g| {
        let trace = gen_trace(g);
        let budget = [24, 48, 96, 4096][g.usize_in(0, 3)];
        let bytes = encode_trace(&trace, TraceFormat::Block, budget);
        let decoded = ingest_bytes(bytes).map_err(|e| e.to_string())?.trace;
        qc_assert!(decoded == trace, "block round-trip changed the trace");
        Ok(())
    });
}

/// The two crafted inputs the satellite bugfixes are about, as explicit
/// regressions beside the random sweep: a frame-of-reference column whose
/// `min + delta` overflows `u64`, and an all-0xFF varint header region.
#[test]
fn crafted_extremes_never_panic() {
    let trace = Trace {
        paranoid: true,
        switches: (0..12)
            .map(|i| SwitchRec {
                nyp: u64::MAX - i,
                check_tid: 0,
            })
            .collect(),
        data: vec![DataRec::Clock(i64::MAX), DataRec::Clock(i64::MIN)],
    };
    let bytes = encode_trace(&trace, TraceFormat::Block, 48);
    // Saturate every byte region in turn.
    for start in 0..bytes.len().min(64) {
        let mut b = bytes.clone();
        for x in b[start..].iter_mut().take(10) {
            *x = 0xFF;
        }
        let ok = catch_unwind(AssertUnwindSafe(|| exercise_decoders(&b))).is_ok();
        assert!(ok, "panic with 0xFF run at {start}");
    }
}
