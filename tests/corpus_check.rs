//! The trace-corpus CI stage, end to end: the committed corpus passes,
//! injected failures classify onto the 0/1/2 exit contract, and a real
//! divergence shrinks to a minimal canonical-JSON reproducer.

use dejavu_repro::corpus::{
    check_corpus, check_trace, kind_string, shrink_divergence, Policy, ReproSpec,
};
use dejavu_repro::dejavu::{Ablation, SymmetryConfig};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Fresh scratch directory under the target dir (no tempfile dep).
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("corpus-scratch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_corpus(tag: &str) -> PathBuf {
    let dst = scratch(tag);
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

#[test]
fn committed_corpus_passes() {
    let report = check_corpus(&corpus_dir(), true, true).unwrap();
    assert_eq!(
        report.exit_class(),
        0,
        "corpus failed: {:#?}",
        report.checks
    );
    // Acceptance floor: ≥10 traces over ≥5 scenarios.
    assert!(report.checks.len() >= 10, "only {}", report.checks.len());
    let mut scenarios: Vec<String> = report
        .checks
        .iter()
        .filter_map(|c| c.name.rsplit_once("_s").map(|(w, _)| w.to_owned()))
        .collect();
    scenarios.sort();
    scenarios.dedup();
    assert!(scenarios.len() >= 5, "only scenarios {scenarios:?}");
    // The seek-latency policy must actually be exercised on multi-block
    // traces, not vacuously skipped everywhere.
    assert!(
        report
            .checks
            .iter()
            .filter(|c| c.seek_events.is_some())
            .count()
            >= 5,
        "too few multi-block traces"
    );
}

#[test]
fn injected_fingerprint_mismatch_is_a_violation() {
    let dir = copy_corpus("fp");
    let policy_path = dir.join("clock_spin_s1.policy.json");
    let text = std::fs::read_to_string(&policy_path).unwrap();
    let mut policy = Policy::parse(&text).unwrap();
    policy.expected_fingerprint ^= 1;
    std::fs::write(&policy_path, policy.to_canonical_string()).unwrap();
    let report = check_corpus(&dir, true, true).unwrap();
    assert_eq!(report.exit_class(), 2);
    let bad = report
        .checks
        .iter()
        .find(|c| c.name == "clock_spin_s1")
        .unwrap();
    assert!(bad.diverged);
    assert!(bad
        .violations
        .iter()
        .any(|v| v.contains("replay fingerprint")));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn injected_corruption_is_corrupt_class() {
    let dir = copy_corpus("corrupt");
    let trace_path = dir.join("lock_convoy_s1.djvb");
    let bytes = std::fs::read(&trace_path).unwrap();
    std::fs::write(&trace_path, &bytes[..bytes.len() / 2]).unwrap();
    let report = check_corpus(&dir, true, true).unwrap();
    assert_eq!(report.exit_class(), 1);
    assert!(report
        .checks
        .iter()
        .any(|c| c.name == "lock_convoy_s1" && c.corrupt.is_some()));
    // A missing policy is also corruption, not a silent skip.
    std::fs::remove_file(dir.join("gc_pressure_s1.policy.json")).unwrap();
    let report = check_corpus(&dir, true, true).unwrap();
    assert!(report.checks.iter().any(|c| c.name == "gc_pressure_s1"
        && c.corrupt.as_deref().is_some_and(|m| m.contains("policy"))));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn lenient_trace_warns_instead_of_failing() {
    let dir = copy_corpus("lenient");
    // racy_counter_s3 is the corpus's lenient entry; give it an
    // unsatisfiable size ceiling and the corpus must still pass.
    let policy_path = dir.join("racy_counter_s3.policy.json");
    let mut policy = Policy::parse(&std::fs::read_to_string(&policy_path).unwrap()).unwrap();
    assert!(!policy.strict, "racy_counter_s3 should ride lenient");
    policy.max_trace_bytes = 1;
    std::fs::write(&policy_path, policy.to_canonical_string()).unwrap();
    let report = check_corpus(&dir, true, true).unwrap();
    assert_eq!(report.exit_class(), 0);
    let c = report
        .checks
        .iter()
        .find(|c| c.name == "racy_counter_s3")
        .unwrap();
    assert!(c.violations.is_empty() && !c.warnings.is_empty());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn forbidden_sequence_policy_fires() {
    // Forbid clock reads in a clock-dominated trace: must violate.
    let path = corpus_dir().join("clock_spin_s1.djvb");
    let bytes = std::fs::read(path).unwrap();
    let text = std::fs::read_to_string(corpus_dir().join("clock_spin_s1.policy.json")).unwrap();
    let mut policy = Policy::parse(&text).unwrap();
    policy.forbid = vec!["CC".into()];
    let check = check_trace("clock_spin_s1", &bytes, &policy, true, true);
    assert!(check
        .violations
        .iter()
        .any(|v| v.contains("forbidden event sequence")));
    // Sanity: the committed policy's own patterns are absent.
    let trace = dejavu_repro::dejavu::ingest_bytes(bytes).unwrap().trace;
    assert!(!kind_string(&trace).contains('N'));
}

#[test]
fn divergence_shrinks_to_minimal_repro() {
    // LiveClock ablation genuinely diverges on clock-reading workloads —
    // the controlled stand-in for a real platform regression.
    let sym = SymmetryConfig::ablate(Ablation::LiveClock);
    let start = ReproSpec {
        workload: "clock_spin".into(),
        seed: 7,
        timer_base: 211,
        timer_jitter: 60,
        clock_noise: 3,
    };
    let repro = shrink_divergence(&start, sym).expect("ablated clock_spin must diverge");
    // The shrinker minimizes toward each range's floor while preserving
    // failure; the result must still diverge and be no larger than the
    // starting tape.
    assert!(repro.msg.contains("diverged"), "{}", repro.msg);
    assert!(repro.tape.len() <= start.tape().unwrap().len());
    assert!(repro.tape.iter().sum::<u64>() <= start.tape().unwrap().iter().sum::<u64>());
    let blob = repro.to_blob();
    // The blob is canonical JSON carrying the spec and the tape.
    let parsed = dejavu_repro::codec::Json::parse(&blob).unwrap();
    assert_eq!(parsed.to_canonical_string(), blob);
    assert!(parsed.field("spec").is_ok() && parsed.field("tape").is_ok());
    // And the shrunk spec still reproduces the divergence directly.
    assert!(dejavu_repro::corpus::run_repro(&repro.spec, sym).is_err());
}

#[test]
fn full_symmetry_never_diverges_so_shrinker_declines() {
    let start = ReproSpec {
        workload: "clock_spin".into(),
        seed: 7,
        timer_base: 211,
        timer_jitter: 60,
        clock_noise: 3,
    };
    assert!(shrink_divergence(&start, SymmetryConfig::full()).is_none());
}
