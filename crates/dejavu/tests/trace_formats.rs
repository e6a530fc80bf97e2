//! DJVB versus the in-memory trace: every workload in the registry,
//! recorded once, must replay identically from the `Trace` the recorder
//! handed back and from the same trace after a trip through the file
//! format — storage is a pure observer and must never leak into replay.
//! Damaged files surface as typed errors, never as panics or silently
//! different executions.

use dejavu::{
    encode_trace, ingest_bytes, record_run, replay_run, BlockFile, ExecSpec, SymmetryConfig,
    TraceError, TraceFormat, DEFAULT_BLOCK_BUDGET,
};

fn spec_of(w: &workloads::Workload) -> ExecSpec {
    let mut s = ExecSpec::new((w.build)()).with_seed(1);
    s.timer_base = 211;
    s.timer_jitter = 60;
    s
}

#[test]
fn every_workload_replays_identically_from_djvb_and_from_memory() {
    for w in workloads::registry() {
        let spec = spec_of(&w);
        let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);

        let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
        let decoded = ingest_bytes(bytes.clone())
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", w.name))
            .trace;
        assert_eq!(decoded, trace, "{}: roundtrip", w.name);
        assert_eq!(
            encode_trace(&decoded, TraceFormat::Block, DEFAULT_BLOCK_BUDGET),
            bytes,
            "{}: re-encoding the decode reproduces the file bytes",
            w.name
        );

        let (mem, mem_desyncs) = replay_run(&spec, trace, SymmetryConfig::full());
        let (file, file_desyncs) = replay_run(&spec, decoded, SymmetryConfig::full());
        assert!(
            mem_desyncs.is_empty() && file_desyncs.is_empty(),
            "{}: desynced: memory {mem_desyncs:?}, file {file_desyncs:?}",
            w.name
        );
        for (route, rep) in [("memory", &mem), ("file", &file)] {
            assert!(
                rec.matches(rep),
                "{}: replay from {route} diverged (fingerprint {:#x} vs {:#x}, digest {:#x} vs {:#x})",
                w.name,
                rec.fingerprint,
                rep.fingerprint,
                rec.state_digest,
                rep.state_digest
            );
        }
        assert_eq!(mem.output, file.output, "{}: output", w.name);
    }
}

/// Corruption is a typed error — never a panic, never a silently
/// different replay.
#[test]
fn corrupt_files_fail_typed_not_loud() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "racy_counter")
        .expect("registry has racy_counter");
    let spec = spec_of(&w);
    let (_rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);

    let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
    // Truncations at every eighth cut point.
    for cut in (1..bytes.len()).step_by(8) {
        let short = bytes[..bytes.len() - cut].to_vec();
        assert!(
            ingest_bytes(short).is_err(),
            "a {cut}-byte truncation was accepted"
        );
    }
    // Single-byte corruption across the file body: reject, or decode
    // identically (a flip in a byte no field reads).
    for i in (6..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        if let Ok(got) = ingest_bytes(bad) {
            assert_eq!(got.trace, trace, "flipped byte {i} silently misdecoded");
        }
    }
    // Garbage is NotATrace, empty is NotATrace.
    for junk in [&b"garbage bytes"[..], b""] {
        assert_eq!(
            ingest_bytes(junk.to_vec()).unwrap_err(),
            TraceError::NotATrace
        );
    }
    let bf = BlockFile::parse(encode_trace(&trace, TraceFormat::Block, 64)).expect("parses");
    assert!(bf.verify().is_ok());
}
