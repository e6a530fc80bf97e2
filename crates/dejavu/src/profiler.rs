//! Replay-side profile reports: the bridge between the raw
//! `telemetry::profile` flight-recorder log a run produced and the
//! artifacts a user consumes (Chrome trace JSON, folded flamegraph text,
//! a canonical-JSON summary).
//!
//! This module resolves what the telemetry crate deliberately cannot:
//! method ids to qualified names (via the [`Program`]) and QOp kind
//! indices to mnemonics (via `djvm::compile::QOP_KIND_NAMES`). The
//! fingerprint and state digest of the profiled run ride along so
//! callers — and `verify.sh` — can assert neutrality (profiled replay ==
//! unprofiled replay) without a second bookkeeping channel.

use crate::driver::{replay_run, ExecSpec, RunReport};
use crate::replay::Desync;
use crate::symmetry::SymmetryConfig;
use crate::trace::Trace;
use codec::Json;
use djvm::compile::QOP_KIND_NAMES;
use djvm::Program;
use std::sync::Arc;
use telemetry::profile::{chrome_trace, folded_stacks, summary_json, ProfileModel, Profiler};

/// A fully resolved profile of one run.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub profiler: Box<Profiler>,
    pub model: ProfileModel,
    /// Logical length of the run (cycles at the final state).
    pub final_cycles: u64,
    /// Qualified method names, indexed by `MethodId`.
    pub method_names: Vec<String>,
    /// The profiled run's guest-visible identity, for neutrality checks.
    pub fingerprint: u64,
    pub state_digest: u64,
}

impl ProfileReport {
    /// Resolve a run's profiler log against its program. `None` when the
    /// run was not profiled ([`ExecSpec::profile`] unset).
    pub fn from_run(report: &RunReport, program: &Program) -> Option<Self> {
        let profiler = report.profile.clone()?;
        let model = ProfileModel::build(&profiler, report.cycles);
        let method_names = program
            .methods
            .iter()
            .map(|m| m.qualified_name(program))
            .collect();
        Some(Self {
            profiler,
            model,
            final_cycles: report.cycles,
            method_names,
            fingerprint: report.fingerprint,
            state_digest: report.state_digest,
        })
    }

    /// Chrome trace-event JSON (canonical, Perfetto-loadable, logical
    /// cycles as the timebase).
    pub fn chrome_json(&self) -> Json {
        chrome_trace(&self.profiler, self.final_cycles, &self.method_names)
    }

    /// Folded-stacks flamegraph text (`thread;outer;...;inner cycles`).
    pub fn folded(&self) -> String {
        folded_stacks(&self.model, &self.method_names)
    }

    /// Canonical-JSON summary with the top-`top` hot methods, the phase
    /// table, QOp cycle attribution, and the run's fingerprint/digest.
    pub fn summary_json(&self, top: usize) -> Json {
        let mut j = summary_json(
            &self.profiler,
            &self.model,
            &self.method_names,
            &QOP_KIND_NAMES,
            top,
        );
        if let Json::Obj(pairs) = &mut j {
            pairs.push(("fingerprint".to_string(), Json::UInt(self.fingerprint)));
            pairs.push(("state_digest".to_string(), Json::UInt(self.state_digest)));
        }
        j.canonicalize();
        j
    }

    /// The hottest method's qualified name (by exclusive cycles), if any
    /// cycles were attributed at all.
    pub fn hottest_method(&self) -> Option<String> {
        let (m, _) = self.model.top_methods(1).into_iter().next()?;
        Some(
            self.method_names
                .get(m as usize)
                .cloned()
                .unwrap_or_else(|| format!("m{m}")),
        )
    }
}

/// Replay `trace` under `spec` with the profiler armed and resolve the
/// profile. The replay itself is unchanged — profiling is observer-only —
/// so the returned report's fingerprint equals an unprofiled replay's.
pub fn profile_replay(
    spec: &ExecSpec,
    trace: impl Into<Arc<Trace>>,
    sym: SymmetryConfig,
) -> (ProfileReport, RunReport, Vec<Desync>) {
    let spec = spec.clone().with_profile(true);
    let (report, desyncs) = replay_run(&spec, trace, sym);
    let profile = ProfileReport::from_run(&report, &spec.program)
        .expect("profiled replay must produce a profiler log");
    (profile, report, desyncs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::record_run;

    fn fig1_spec() -> (ExecSpec, fn(&mut djvm::Vm)) {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == "fig1_ab")
            .unwrap();
        (ExecSpec::new((w.build)()).with_seed(5), w.natives)
    }

    #[test]
    fn profile_replay_is_neutral_and_resolved() {
        let (spec, natives) = fig1_spec();
        let (rec, trace) = record_run(&spec, natives, SymmetryConfig::full(), true);
        // Unprofiled replay for the neutrality baseline.
        let (plain, d0) = replay_run(&spec, trace.clone(), SymmetryConfig::full());
        assert!(d0.is_empty());
        let (prof, report, desyncs) = profile_replay(&spec, trace, SymmetryConfig::full());
        assert!(desyncs.is_empty());
        assert_eq!(
            report.fingerprint, plain.fingerprint,
            "profiler perturbed replay"
        );
        assert_eq!(report.state_digest, plain.state_digest);
        assert_eq!(report.fingerprint, rec.fingerprint);
        assert_eq!(prof.fingerprint, report.fingerprint);
        // The model accounts for the whole run and resolves real names.
        assert!(prof.model.total_cycles > 0);
        let hot = prof.hottest_method().unwrap();
        let unresolved = hot
            .strip_prefix('m')
            .is_some_and(|r| !r.is_empty() && r.bytes().all(|b| b.is_ascii_digit()));
        assert!(!unresolved, "unresolved method name: {hot}");
        assert!(!prof.folded().is_empty());
    }

    #[test]
    fn artifacts_are_byte_deterministic_across_replays() {
        let (spec, natives) = fig1_spec();
        let (_, trace) = record_run(&spec, natives, SymmetryConfig::full(), true);
        let (p1, _, _) = profile_replay(&spec, trace.clone(), SymmetryConfig::full());
        let (p2, _, _) = profile_replay(&spec, trace, SymmetryConfig::full());
        assert_eq!(p1.chrome_json().to_string(), p2.chrome_json().to_string());
        assert_eq!(p1.folded(), p2.folded());
        assert_eq!(
            p1.summary_json(10).to_string(),
            p2.summary_json(10).to_string()
        );
    }

    #[test]
    fn unprofiled_run_yields_no_report() {
        let (spec, natives) = fig1_spec();
        let (rec, _) = record_run(&spec, natives, SymmetryConfig::full(), true);
        assert!(ProfileReport::from_run(&rec, &spec.program).is_none());
    }

    #[test]
    fn summary_includes_qop_attribution_when_quickened() {
        let (spec, natives) = fig1_spec();
        let (_, trace) = record_run(&spec, natives, SymmetryConfig::full(), true);
        let (prof, report, _) = profile_replay(&spec, trace, SymmetryConfig::full());
        let s = prof.summary_json(5).to_string();
        assert!(s.contains("\"fingerprint\""));
        assert!(s.contains("\"hot_methods\""));
        if report.counters.steps > 0 && spec.vm.quicken {
            // Quickened dispatch attributes every cycle to a QOp kind.
            let total: u64 = prof.profiler.qop_cycles.iter().sum();
            assert!(total > 0, "no QOp cycles attributed: {s}");
        }
    }
}
