//! corpus — the trace-corpus CI stage.
//!
//! The paper's claim is that a recorded run is a perfectly faithful,
//! re-executable artifact. This module turns that claim into a regression
//! gate: a directory of recorded DJVB traces, each with a sidecar *policy*
//! (canonical JSON) stating what every future build must reproduce —
//! the execution fingerprint and state digest, a trace-size ceiling, a
//! `seek_logical` latency bound in events, and forbidden event sequences.
//! [`check_corpus`] replays the whole corpus and classifies every trace:
//!
//! * **corrupt** — the file or its policy cannot even be decoded
//!   (I/O error, bad magic, CRC mismatch, malformed JSON, unknown
//!   workload). Maps to process exit 1.
//! * **violation** — the trace decodes but the policy does not hold
//!   (divergent replay, drifted fingerprint, oversized trace, slow seek,
//!   forbidden sequence present). Maps to process exit 2. A trace in
//!   `"lenient"` mode downgrades violations to warnings.
//! * **pass** — everything holds. Exit 0 when the whole corpus passes.
//!
//! When a strict trace diverges, [`shrink_divergence`] reuses the
//! [`crate::qc`] tape shrinker to minimize the failing *workload spec*
//! (workload, seed, timer and clock parameters) to a smallest reproducer,
//! reported as a canonical-JSON repro blob (see [`Repro::to_blob`]).

use codec::Json;
use dejavu::{
    encode_trace, record_replay_forensic, record_run, replay_run, BlockFile, DataRec, ExecSpec,
    SymmetryConfig, TimeTravel, Trace, TraceFormat,
};
use std::path::Path;

use crate::qc::{shrink_tape, Gen};

/// Block budget the corpus records with: small enough that corpus traces
/// (a few hundred events each) span several blocks, so the seek-latency
/// policy is exercised on real multi-block files.
pub const CORPUS_BLOCK_BUDGET: u32 = 96;

/// The execution environment for corpus traces: the platform's one spec
/// function, shared with the fleet and `dejavu-cli`'s run-like
/// subcommands.
pub use fleet::spec_for as corpus_spec;

/// Sidecar policy for one corpus trace (`<stem>.policy.json`, canonical
/// JSON, keys sorted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Registry name of the workload the trace was recorded from.
    pub workload: String,
    /// Seed the trace was recorded under.
    pub seed: u64,
    /// Execution fingerprint replay (and a fresh record) must reproduce.
    pub expected_fingerprint: u64,
    /// Final reachable-state digest replay must reproduce.
    pub expected_state_digest: u64,
    /// Ceiling on the on-disk trace size in bytes.
    pub max_trace_bytes: u64,
    /// Ceiling on `seek_logical` catch-up work, in trace events consumed
    /// (the "one block span" bound; checked only on multi-block traces).
    pub max_seek_events: u64,
    /// Forbidden event-kind sequences, matched as substrings of the
    /// trace's kind string (`'S'` per switch, then `'C'`/`'N'` per data
    /// record, in canonical unified order).
    pub forbid: Vec<String>,
    /// `true` = violations fail the corpus; `false` ("lenient") =
    /// violations are reported as warnings only.
    pub strict: bool,
}

impl Policy {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "expected_fingerprint",
                Json::UInt(self.expected_fingerprint),
            ),
            (
                "expected_state_digest",
                Json::UInt(self.expected_state_digest),
            ),
            (
                "forbid",
                Json::Arr(self.forbid.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            ("max_seek_events", Json::UInt(self.max_seek_events)),
            ("max_trace_bytes", Json::UInt(self.max_trace_bytes)),
            (
                "mode",
                Json::Str(if self.strict { "strict" } else { "lenient" }.into()),
            ),
            ("seed", Json::UInt(self.seed)),
            ("workload", Json::Str(self.workload.clone())),
        ])
    }

    /// Canonical serialized form (what [`record_corpus`] writes).
    pub fn to_canonical_string(&self) -> String {
        let mut j = self.to_json();
        j.canonicalize();
        j.to_canonical_string()
    }

    /// Parse a policy file's text. Any schema problem is a `corrupt`-class
    /// error (the policy is part of the artifact).
    pub fn parse(text: &str) -> Result<Policy, String> {
        let j = Json::parse(text.trim()).map_err(|e| format!("policy is not valid JSON: {e}"))?;
        let field_u64 = |k: &str| -> Result<u64, String> {
            j.field(k)
                .and_then(|v| v.as_u64())
                .map_err(|e| format!("policy field `{k}`: {e}"))
        };
        let mode = j
            .field("mode")
            .and_then(|v| v.as_str())
            .map_err(|e| format!("policy field `mode`: {e}"))?;
        let strict = match mode {
            "strict" => true,
            "lenient" => false,
            other => return Err(format!("policy mode must be strict|lenient, got {other:?}")),
        };
        let forbid = j
            .field("forbid")
            .and_then(|v| v.as_arr())
            .map_err(|e| format!("policy field `forbid`: {e}"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .map_err(|e| format!("policy forbid entry: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Policy {
            workload: j
                .field("workload")
                .and_then(|v| v.as_str())
                .map_err(|e| format!("policy field `workload`: {e}"))?
                .to_owned(),
            seed: field_u64("seed")?,
            expected_fingerprint: field_u64("expected_fingerprint")?,
            expected_state_digest: field_u64("expected_state_digest")?,
            max_trace_bytes: field_u64("max_trace_bytes")?,
            max_seek_events: field_u64("max_seek_events")?,
            forbid,
            strict,
        })
    }
}

/// The trace's event kinds in canonical unified order — the string the
/// `forbid` patterns match against.
pub fn kind_string(trace: &Trace) -> String {
    let mut s = String::with_capacity(trace.switches.len() + trace.data.len());
    for _ in &trace.switches {
        s.push('S');
    }
    for d in &trace.data {
        s.push(match d {
            DataRec::Clock(_) => 'C',
            DataRec::Native { .. } => 'N',
        });
    }
    s
}

/// Outcome of checking one corpus trace against its policy.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    /// File stem (`<stem>.djvb`).
    pub name: String,
    /// `Some` when the artifact itself could not be decoded — I/O error,
    /// bad magic/CRC, malformed policy, unknown workload (exit class 1).
    pub corrupt: Option<String>,
    /// Strict-mode policy violations (exit class 2).
    pub violations: Vec<String>,
    /// Lenient-mode violations, reported but not failing.
    pub warnings: Vec<String>,
    /// `true` when a violation (strict or lenient) was a replay
    /// divergence — the trigger for [`shrink_divergence`].
    pub diverged: bool,
    /// Decoded event count (0 when corrupt).
    pub events: u64,
    /// On-disk size in bytes (0 when unreadable).
    pub bytes: u64,
    /// Events consumed by the backward `seek_logical` probe (`None` when
    /// the trace has fewer than two blocks or was corrupt).
    pub seek_events: Option<u64>,
    /// Wall-clock milliseconds the whole check of this trace took.
    pub check_ms: u128,
}

impl TraceCheck {
    pub fn passed(&self) -> bool {
        self.corrupt.is_none() && self.violations.is_empty()
    }

    fn corrupt(name: &str, msg: String) -> Self {
        TraceCheck {
            name: name.to_owned(),
            corrupt: Some(msg),
            violations: Vec::new(),
            warnings: Vec::new(),
            diverged: false,
            events: 0,
            bytes: 0,
            seek_events: None,
            check_ms: 0,
        }
    }
}

/// Whole-corpus result: one [`TraceCheck`] per `.djvb`, in name order.
#[derive(Debug, Clone, Default)]
pub struct CorpusReport {
    pub checks: Vec<TraceCheck>,
}

impl CorpusReport {
    /// The CLI exit-code contract: 0 all pass, 1 any corrupt artifact
    /// (and no violation), 2 any strict policy violation / divergence.
    /// Violations outrank corruption: a corpus with both has a
    /// determinism failure, which is the severer finding.
    pub fn exit_class(&self) -> u8 {
        if self.checks.iter().any(|c| !c.violations.is_empty()) {
            2
        } else if self.checks.iter().any(|c| c.corrupt.is_some()) {
            1
        } else {
            0
        }
    }

    pub fn passed(&self) -> usize {
        self.checks.iter().filter(|c| c.passed()).count()
    }
}

/// Check one trace's bytes against its policy. Pure in-memory core of
/// [`check_corpus`], shared with the injection tests. `quicken` / `mega`
/// select the dispatch tier the replays run under (the CLI's
/// `--no-quicken` / `--no-mega`); the verdict must not depend on them.
pub fn check_trace(
    name: &str,
    bytes: &[u8],
    policy: &Policy,
    quicken: bool,
    mega: bool,
) -> TraceCheck {
    let t0 = std::time::Instant::now();
    let mut check = TraceCheck {
        name: name.to_owned(),
        corrupt: None,
        violations: Vec::new(),
        warnings: Vec::new(),
        diverged: false,
        events: 0,
        bytes: bytes.len() as u64,
        seek_events: None,
        check_ms: 0,
    };
    // Decode failures are corruption, not policy violations: the artifact
    // itself is damaged.
    let bf = match BlockFile::parse(bytes.to_vec()) {
        Ok(bf) => bf,
        Err(e) => return TraceCheck::corrupt(name, e.to_string()),
    };
    let trace = match bf.to_trace() {
        Ok(t) => t,
        Err(e) => return TraceCheck::corrupt(name, e.to_string()),
    };
    check.events = (trace.switches.len() + trace.data.len()) as u64;
    let Some(w) = workloads::registry()
        .into_iter()
        .find(|w| w.name == policy.workload)
    else {
        return TraceCheck::corrupt(
            name,
            format!("policy names unknown workload {:?}", policy.workload),
        );
    };

    let violation = |check: &mut TraceCheck, msg: String| {
        if policy.strict {
            check.violations.push(msg);
        } else {
            check.warnings.push(msg);
        }
    };

    // 1. Size ceiling.
    if check.bytes > policy.max_trace_bytes {
        let msg = format!(
            "trace is {} bytes, policy ceiling {}",
            check.bytes, policy.max_trace_bytes
        );
        violation(&mut check, msg);
    }
    // 2. Forbidden event sequences.
    let kinds = kind_string(&trace);
    for pat in &policy.forbid {
        if !pat.is_empty() && kinds.contains(pat.as_str()) {
            violation(
                &mut check,
                format!("forbidden event sequence {pat:?} present"),
            );
        }
    }
    // 3. Replay the recorded trace; it must be accurate and reproduce the
    //    policy's fingerprint and state digest.
    let spec = corpus_spec(&w, policy.seed)
        .with_quicken(quicken)
        .with_mega(mega);
    let (rep, desyncs) = replay_run(&spec, trace.clone(), SymmetryConfig::full());
    if !desyncs.is_empty() {
        check.diverged = true;
        violation(
            &mut check,
            format!("replay desynchronized: {}", desyncs[0].describe()),
        );
    }
    if rep.fingerprint != policy.expected_fingerprint {
        check.diverged = true;
        violation(
            &mut check,
            format!(
                "replay fingerprint {:016x} != expected {:016x}",
                rep.fingerprint, policy.expected_fingerprint
            ),
        );
    }
    if rep.state_digest != policy.expected_state_digest {
        check.diverged = true;
        violation(
            &mut check,
            format!(
                "replay state digest {:016x} != expected {:016x}",
                rep.state_digest, policy.expected_state_digest
            ),
        );
    }
    // 4. A *fresh* record of the same spec must still produce the
    //    expected fingerprint — the "no silent determinism drift" gate
    //    every future PR runs against.
    let (rec, _) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    if rec.fingerprint != policy.expected_fingerprint {
        check.diverged = true;
        violation(
            &mut check,
            format!(
                "fresh record fingerprint {:016x} != expected {:016x} (recorder drifted)",
                rec.fingerprint, policy.expected_fingerprint
            ),
        );
    }
    // 5. Seek-latency bound, multi-block traces only: after running to
    //    the end (populating boundary checkpoints), a backward seek into
    //    the middle must consume at most `max_seek_events` trace events.
    if let Some(events) = seek_probe(&spec, &bf, &trace) {
        check.seek_events = Some(events);
        if events > policy.max_seek_events {
            violation(
                &mut check,
                format!(
                    "seek_logical replayed {events} events, policy ceiling {}",
                    policy.max_seek_events
                ),
            );
        }
    }
    check.check_ms = t0.elapsed().as_millis();
    check
}

/// Run to the last block boundary (taking boundary checkpoints), then
/// seek backward to just past the middle boundary; the returned number is
/// the trace events consumed catching up — bounded by one block span when
/// the checkpoint index works. `None` for traces under two blocks.
fn seek_probe(spec: &ExecSpec, bf: &BlockFile, trace: &Trace) -> Option<u64> {
    let bounds = bf.boundaries();
    if bounds.len() < 2 {
        return None;
    }
    let mut tt = TimeTravel::new_indexed(
        spec.replay_vm(),
        trace.clone(),
        SymmetryConfig::full(),
        // Step-cadence checkpoints off: only boundary checkpoints, so the
        // probe measures exactly what the block index buys.
        u64::MAX,
        bounds.clone(),
    );
    tt.seek_logical(*bounds.last().unwrap());
    let mid = bounds[bounds.len() / 2];
    Some(tt.seek_logical(mid + 1).events_replayed)
}

/// Check every `<stem>.djvb` + `<stem>.policy.json` pair under `dir`
/// (sorted by name). `Err` only for directory-level I/O problems or an
/// empty corpus — both exit class 1 at the CLI.
pub fn check_corpus(dir: &Path, quicken: bool, mega: bool) -> Result<CorpusReport, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read corpus dir {dir:?}: {e}"))?;
    let mut stems: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read corpus dir {dir:?}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = name.strip_suffix(".djvb") {
            stems.push(stem.to_owned());
        }
    }
    if stems.is_empty() {
        return Err(format!("no .djvb traces under {dir:?}"));
    }
    stems.sort_unstable();
    let mut report = CorpusReport::default();
    for stem in stems {
        let trace_path = dir.join(format!("{stem}.djvb"));
        let policy_path = dir.join(format!("{stem}.policy.json"));
        let policy_text = match std::fs::read_to_string(&policy_path) {
            Ok(t) => t,
            Err(e) => {
                report
                    .checks
                    .push(TraceCheck::corrupt(&stem, format!("missing policy: {e}")));
                continue;
            }
        };
        let policy = match Policy::parse(&policy_text) {
            Ok(p) => p,
            Err(e) => {
                report.checks.push(TraceCheck::corrupt(&stem, e));
                continue;
            }
        };
        let bytes = match std::fs::read(&trace_path) {
            Ok(b) => b,
            Err(e) => {
                report
                    .checks
                    .push(TraceCheck::corrupt(&stem, format!("read trace: {e}")));
                continue;
            }
        };
        report
            .checks
            .push(check_trace(&stem, &bytes, &policy, quicken, mega));
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// The fixed corpus manifest: `(workload, seed, strict)`. Twelve traces
/// over seven scenarios — the five stress scenarios at two seeds each,
/// plus one racy and one native server workload. `racy_counter` rides in
/// lenient mode so the corpus permanently exercises the warning path.
pub const MANIFEST: &[(&str, u64, bool)] = &[
    ("lock_convoy", 1, true),
    ("lock_convoy", 7, true),
    ("gc_pressure", 1, true),
    ("gc_pressure", 7, true),
    ("native_heavy", 1, true),
    ("native_heavy", 7, true),
    ("clock_spin", 1, true),
    ("clock_spin", 7, true),
    ("recursion_storm", 1, true),
    ("recursion_storm", 7, true),
    ("racy_counter", 3, false),
    ("server_loop", 5, true),
];

/// Record the full manifest into `dir`, writing `<name>_s<seed>.djvb`
/// plus its policy. Every policy is derived from the recording itself:
/// measured fingerprint/digest, measured seek cost ×2, measured size
/// +25%+64. Returns the written stems. Deterministic byte-for-byte: all
/// non-determinism sources are seeded, so re-recording an unchanged
/// platform reproduces the committed corpus exactly.
pub fn record_corpus(dir: &Path) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let mut stems = Vec::new();
    for &(name, seed, strict) in MANIFEST {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("manifest names unknown workload {name:?}"))?;
        let spec = corpus_spec(&w, seed);
        let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
        // Refuse to publish a trace that does not replay accurately.
        let (rep, desyncs) = replay_run(&spec, trace.clone(), SymmetryConfig::full());
        if !rec.accurate(&rep, &desyncs) {
            return Err(format!(
                "{name} seed {seed}: recorded trace does not replay"
            ));
        }
        let bytes = encode_trace(&trace, TraceFormat::Block, CORPUS_BLOCK_BUDGET);
        let bf = BlockFile::parse(bytes.clone()).map_err(|e| format!("{name}: {e}"))?;
        let measured_seek = seek_probe(&spec, &bf, &trace);
        // Forbid natives outright in traces of native-free workloads; in
        // native workloads, pin the canonical unified order instead (a
        // data record before a switch can never appear).
        let forbid = if w.native {
            vec!["CS".to_owned(), "NS".to_owned()]
        } else {
            vec!["N".to_owned()]
        };
        let events = (trace.switches.len() + trace.data.len()) as u64;
        let policy = Policy {
            workload: name.to_owned(),
            seed,
            expected_fingerprint: rec.fingerprint,
            expected_state_digest: rec.state_digest,
            max_trace_bytes: bytes.len() as u64 + bytes.len() as u64 / 4 + 64,
            max_seek_events: measured_seek.map_or(events, |e| e * 2 + 16),
            forbid,
            strict,
        };
        let stem = format!("{name}_s{seed}");
        std::fs::write(dir.join(format!("{stem}.djvb")), &bytes)
            .map_err(|e| format!("write {stem}.djvb: {e}"))?;
        let mut text = policy.to_canonical_string();
        text.push('\n');
        std::fs::write(dir.join(format!("{stem}.policy.json")), text)
            .map_err(|e| format!("write {stem}.policy.json: {e}"))?;
        stems.push(stem);
    }
    Ok(stems)
}

// ---------------------------------------------------------------------------
// Divergence shrinking
// ---------------------------------------------------------------------------

/// A workload spec in shrinkable form: everything that selects one
/// record/replay experiment, drawable from a qc [`Gen`] tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproSpec {
    pub workload: String,
    pub seed: u64,
    pub timer_base: u64,
    pub timer_jitter: u64,
    pub clock_noise: i64,
}

/// Draw ranges: tape entries are offsets from each range's floor, so the
/// qc shrinker drives every parameter toward its minimum.
const SEED_MAX: u64 = 1_000;
const TIMER_BASE_MIN: u64 = 40;
const TIMER_BASE_MAX: u64 = 400;
const TIMER_JITTER_MAX: u64 = 120;
const CLOCK_NOISE_MAX: i64 = 8;

impl ReproSpec {
    /// Draw a spec from a generator (the qc property's input).
    pub fn draw(g: &mut Gen) -> ReproSpec {
        let names: Vec<_> = workloads::registry().iter().map(|w| w.name).collect();
        let idx = g.usize_in(0, names.len() - 1);
        ReproSpec {
            workload: names[idx].to_owned(),
            seed: g.u64_in(0, SEED_MAX),
            timer_base: g.u64_in(TIMER_BASE_MIN, TIMER_BASE_MAX),
            timer_jitter: g.u64_in(0, TIMER_JITTER_MAX),
            clock_noise: g.i64_in(0, CLOCK_NOISE_MAX),
        }
    }

    /// The canonical tape that replays to exactly this spec — the shrink
    /// starting point for a corpus failure (whose spec is known, not
    /// drawn). Inverse of [`ReproSpec::draw`].
    pub fn tape(&self) -> Option<Vec<u64>> {
        let idx = workloads::registry()
            .iter()
            .position(|w| w.name == self.workload)? as u64;
        Some(vec![
            idx,
            self.seed.min(SEED_MAX),
            self.timer_base.clamp(TIMER_BASE_MIN, TIMER_BASE_MAX) - TIMER_BASE_MIN,
            self.timer_jitter.min(TIMER_JITTER_MAX),
            self.clock_noise.clamp(0, CLOCK_NOISE_MAX) as u64,
        ])
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clock_noise", Json::Int(self.clock_noise)),
            ("seed", Json::UInt(self.seed)),
            ("timer_base", Json::UInt(self.timer_base)),
            ("timer_jitter", Json::UInt(self.timer_jitter)),
            ("workload", Json::Str(self.workload.clone())),
        ])
    }

    fn exec_spec(&self, w: &workloads::Workload) -> ExecSpec {
        let mut spec = corpus_spec(w, self.seed);
        spec.timer_base = self.timer_base;
        spec.timer_jitter = self.timer_jitter;
        spec.clock_noise = self.clock_noise;
        spec
    }
}

/// Record-then-replay the spec under `sym`; `Err` describes the
/// divergence (the qc property the shrinker re-runs).
pub fn run_repro(spec: &ReproSpec, sym: SymmetryConfig) -> Result<(), String> {
    let Some(w) = workloads::registry()
        .into_iter()
        .find(|w| w.name == spec.workload)
    else {
        // An undrawable workload cannot diverge; treat as passing so the
        // shrinker never walks out of the registry.
        return Ok(());
    };
    let exec = spec.exec_spec(&w);
    let out = record_replay_forensic(&exec, w.natives, sym);
    if out.accurate {
        return Ok(());
    }
    Err(format!(
        "diverged: record fp {:016x} vs replay fp {:016x}, {} desyncs",
        out.record.fingerprint,
        out.replay.fingerprint,
        out.desyncs.len()
    ))
}

/// A minimized divergence reproducer.
#[derive(Debug, Clone)]
pub struct Repro {
    pub spec: ReproSpec,
    /// The minimal qc tape (replayable with `Gen::replaying`).
    pub tape: Vec<u64>,
    /// The divergence message of the minimal spec.
    pub msg: String,
}

impl Repro {
    /// The canonical-JSON repro blob `dejavu-cli check` prints: the
    /// smallest still-diverging spec plus its tape and failure.
    pub fn to_blob(&self) -> String {
        let mut j = Json::obj(vec![
            ("divergence", Json::Str(self.msg.clone())),
            ("spec", self.spec.to_json()),
            (
                "tape",
                Json::Arr(self.tape.iter().map(|&v| Json::UInt(v)).collect()),
            ),
        ]);
        j.canonicalize();
        j.to_canonical_string()
    }
}

/// Minimize a diverging workload spec under `sym` with the qc tape
/// shrinker. Returns `None` when `start` does not actually diverge (the
/// shrinker needs a failing starting point). Cost: up to the qc shrink
/// budget (2000) record/replay runs — the expensive path runs only on an
/// already-failing corpus.
pub fn shrink_divergence(start: &ReproSpec, sym: SymmetryConfig) -> Option<Repro> {
    let tape = start.tape()?;
    let mut prop = move |g: &mut Gen| {
        let spec = ReproSpec::draw(g);
        run_repro(&spec, sym)
    };
    // Confirm the starting point fails under the *drawn* form (the draw
    // clamps out-of-range parameters).
    let mut g = Gen::replaying(tape.clone());
    let msg = match prop(&mut g) {
        Err(m) => m,
        Ok(()) => return None,
    };
    let (min_tape, msg) = shrink_tape(&mut prop, tape, msg);
    let mut g = Gen::replaying(min_tape.clone());
    let spec = ReproSpec::draw(&mut g);
    Some(Repro {
        spec,
        tape: min_tape,
        msg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_round_trips_canonically() {
        let p = Policy {
            workload: "clock_spin".into(),
            seed: 7,
            expected_fingerprint: 0xDEAD_BEEF,
            expected_state_digest: 42,
            max_trace_bytes: 9000,
            max_seek_events: 512,
            forbid: vec!["N".into()],
            strict: true,
        };
        let text = p.to_canonical_string();
        let q = Policy::parse(&text).unwrap();
        assert_eq!(p, q);
        // Canonical: parsing + re-serializing is the identity.
        assert_eq!(q.to_canonical_string(), text);
    }

    #[test]
    fn policy_rejects_bad_mode_and_missing_fields() {
        let p = Policy {
            workload: "x".into(),
            seed: 0,
            expected_fingerprint: 0,
            expected_state_digest: 0,
            max_trace_bytes: 0,
            max_seek_events: 0,
            forbid: vec![],
            strict: true,
        };
        let bad_mode = p.to_canonical_string().replace("strict", "chaotic");
        assert!(Policy::parse(&bad_mode).is_err());
        assert!(Policy::parse("{}").is_err());
        assert!(Policy::parse("not json").is_err());
    }

    #[test]
    fn repro_tape_round_trips() {
        let spec = ReproSpec {
            workload: "clock_spin".into(),
            seed: 7,
            timer_base: 211,
            timer_jitter: 60,
            clock_noise: 3,
        };
        let tape = spec.tape().unwrap();
        let mut g = Gen::replaying(tape);
        assert_eq!(ReproSpec::draw(&mut g), spec);
    }

    #[test]
    fn kind_string_orders_switches_first() {
        let trace = Trace {
            paranoid: false,
            switches: vec![dejavu::SwitchRec {
                nyp: 3,
                check_tid: u32::MAX,
            }],
            data: vec![
                DataRec::Clock(5),
                DataRec::Native {
                    ret: 1,
                    callbacks: vec![],
                },
            ],
        };
        assert_eq!(kind_string(&trace), "SCN");
    }
}
