//! Cross-crate integration: the full platform exercised end to end —
//! record a server workload, compare trace schemes, debug the recording
//! with breakpoints and reverse steps, inspect state via remote reflection,
//! and verify the replay never deviated.

use baselines::trace_size_comparison;
use debugger::{DebugSession, StopReason};
use dejavu::{record_run, replay_run, ExecSpec, SymmetryConfig, TimeTravel};
use djvm::VmStatus;
use reflect::{LocalVmMemory, RemoteReflector};
use std::sync::Arc;

#[test]
fn full_platform_flow() {
    // --- record a native-driven server execution ------------------------
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "server_loop")
        .unwrap();
    let mut spec = ExecSpec::new((w.build)()).with_seed(12);
    spec.timer_base = 53;
    spec.timer_jitter = 19;
    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    assert_eq!(rec.status, VmStatus::Halted);

    // --- plain replay is exact ------------------------------------------
    let (rep, desyncs) = replay_run(&spec, trace.clone(), SymmetryConfig::full());
    assert!(desyncs.is_empty());
    assert!(rec.matches(&rep));

    // --- trace economics vs the baselines --------------------------------
    let row = trace_size_comparison("server_loop", &spec, w.natives);
    assert!(row.dejavu_bytes < row.ir_bytes);
    assert!(row.dejavu_bytes < row.readlog_bytes);

    // --- debug the recording ---------------------------------------------
    let mut session = DebugSession::new(&spec, trace, Vec::new());
    let worker = spec.program.method_id_by_name("worker").unwrap();
    session.add_breakpoint(worker, 0);
    let stop = session.cont();
    assert!(matches!(stop, StopReason::Breakpoint { .. }));

    // thread viewer + reflective stack trace at the stop
    let threads = session.threads();
    assert!(threads.len() >= 4, "main + acceptor + 2 workers");
    let tid = session.vm().sched.current;
    let frames = session.stack_trace(tid);
    assert_eq!(frames[0].method_name, "worker");
    assert!(frames[0].line >= 0);

    // remote reflection directly against the paused VM
    {
        let vm = session.vm();
        let mem = LocalVmMemory::new(vm);
        let mut refl = RemoteReflector::new(Arc::clone(&spec.program), &mem);
        refl.map_boot_method_table(vm.boot_image.method_table);
        let line = refl.line_number_of(worker, 0).unwrap();
        assert_eq!(line, frames[0].line);
    }

    // reverse-step, then resume to completion: still the recorded run
    let here = session.step_index();
    session.step();
    session.step_back();
    assert_eq!(session.step_index(), here);
    session.remove_breakpoint(worker, 0);
    let stop = session.cont();
    assert_eq!(stop, StopReason::Halted);
    assert_eq!(session.output(), rec.output);
}

#[test]
fn time_travel_composes_with_reflection() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "gc_churn")
        .unwrap();
    let mut spec = ExecSpec::new((w.build)()).with_seed(3);
    spec.timer_base = 53;
    spec.timer_jitter = 19;
    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);

    let mut tt = TimeTravel::new_indexed(
        spec.replay_vm(),
        trace,
        SymmetryConfig::full(),
        3_000,
        Vec::new(),
    );

    // Sample the same moment twice (before/after a round trip through the
    // future) and reflectively compare: identical remote answers.
    tt.seek(9_000);
    let q1 = {
        let mem = LocalVmMemory::new(tt.vm());
        let mut refl = RemoteReflector::new(Arc::clone(&spec.program), &mem);
        refl.map_boot_method_table(tt.vm().boot_image.method_table);
        refl.line_number_of(spec.program.entry, 1).unwrap()
    };
    let digest1 = tt.vm().state_digest();
    tt.seek(25_000);
    tt.seek(9_000);
    let digest2 = tt.vm().state_digest();
    assert_eq!(digest1, digest2);
    let q2 = {
        let mem = LocalVmMemory::new(tt.vm());
        let mut refl = RemoteReflector::new(Arc::clone(&spec.program), &mem);
        refl.map_boot_method_table(tt.vm().boot_image.method_table);
        refl.line_number_of(spec.program.entry, 1).unwrap()
    };
    assert_eq!(q1, q2);

    // Run out: matches the record.
    while tt.status().is_running() {
        tt.seek(tt.step.saturating_add(10_000));
    }
    assert_eq!(tt.vm().output, rec.output);
}

/// One environment, one oracle: every way of replaying a trace boots the
/// machine its `ExecSpec` describes, so each lands on the record's
/// fingerprint, state digest, output and status with no desyncs.
#[test]
fn every_replay_door_agrees_with_the_record() {
    let sym = SymmetryConfig::full();
    for w in workloads::registry() {
        let spec = ExecSpec::new((w.build)()).with_seed(7);
        let (rec, trace) = record_run(&spec, w.natives, sym, true);

        let (rep, desyncs) = replay_run(&spec, trace.clone(), sym);
        assert!(desyncs.is_empty(), "{}: replay_run desynced", w.name);
        assert!(rec.matches(&rep), "{}: replay_run", w.name);

        let agrees = |door: &str, vm: &djvm::Vm, desyncs: &[dejavu::Desync]| {
            assert!(desyncs.is_empty(), "{}: {door} desynced", w.name);
            assert_eq!(
                (vm.fingerprint.digest(), vm.state_digest()),
                (rec.fingerprint, rec.state_digest),
                "{}: {door}",
                w.name
            );
            assert_eq!((&vm.output, vm.status), (&rec.output, rec.status));
        };
        let mut tt =
            TimeTravel::new_indexed(spec.replay_vm(), trace.clone(), sym, u64::MAX, Vec::new());
        tt.seek(tt.step.saturating_add(u64::MAX));
        agrees("TimeTravel", tt.vm(), tt.desyncs());

        let mut session = DebugSession::new(&spec, trace, Vec::new());
        session.cont();
        agrees("DebugSession", session.vm(), session.desyncs());
    }
}

#[test]
fn umbrella_crate_reexports_work() {
    // the root crate exposes all member crates
    let _cfg = dejavu_repro::dejavu::SymmetryConfig::full();
    let regs = dejavu_repro::workloads::registry();
    assert!(!regs.is_empty());
}

/// The paper's tables (`cargo run --release --bin experiments`): every
/// section prints, and every count column reads the reproduced verdict.
/// Timing cells are machine-dependent and not looked at.
#[test]
fn experiments_prints_every_paper_table() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let section = |tag: &str| -> Vec<&str> {
        let heading = format!("## {tag} ");
        text.lines()
            .skip_while(|l| !l.starts_with(&heading))
            .skip(1)
            .take_while(|l| !l.starts_with("## "))
            .collect()
    };
    // The data rows of a section's tables (header and rule skipped), as cells.
    let rows = |tag: &str| -> Vec<Vec<&str>> {
        section(tag)
            .windows(2)
            .filter(|w| w[0].starts_with('|') && w[1].starts_with('|'))
            .filter(|w| !w[1].starts_with("|---"))
            .map(|w| w[1].trim_matches('|').split('|').map(str::trim).collect())
            .collect()
    };
    for tag in [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10", "E13", "E14",
    ] {
        assert!(!section(tag).is_empty(), "no {tag} section in:\n{text}");
    }

    assert!(rows("E1").iter().all(|r| r[2] == "yes"), "{text}");
    assert!(section("E2").contains(&"replay accurate on all: yes"));
    let e6 = rows("E6");
    assert_eq!(e6.len(), workloads::registry().len());
    for r in &e6 {
        let (ok, of) = r[2].split_once('/').unwrap();
        assert_eq!(ok, of, "E6 {r:?}");
    }
    let e8 = section("E8");
    assert!(e8.contains(&"application VM perturbed: no"), "{e8:?}");
    assert!(e8.contains(&"replay resumed accurately after inspection: yes"));
    let e10: Vec<&str> = rows("E10").iter().map(|r| r[1]).collect();
    assert_eq!(e10, ["yes", "yes", "yes", "yes", "yes", "no"]);
    let by_threads: Vec<_> = rows("E13").into_iter().filter(|r| r.len() == 5).collect();
    assert_eq!(by_threads.len(), 4);
    assert!(by_threads.iter().all(|r| r[4] == "yes"), "{by_threads:?}");
}
