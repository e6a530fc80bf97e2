//! E9: the debugger — breakpoints, stepping, reverse execution, stack and
//! thread views, and the protocol's command semantics — all
//! perturbation-free. (The TCP leg of the 3-tier split is the fleet's:
//! `three_tier_debug_over_fleet` in `crates/fleet/tests/fleet_service.rs`.)

use debugger::server::handle;
use debugger::{Command, DebugSession, Response, StopReason};
use dejavu::{record_run, ExecSpec, SymmetryConfig, TimeTravel};
use djvm::VmStatus;

fn recorded(name: &str, seed: u64) -> (ExecSpec, dejavu::Trace, String) {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap();
    let mut s = ExecSpec::new((w.build)()).with_seed(seed);
    s.timer_base = 53;
    s.timer_jitter = 19;
    let (rec, trace) = record_run(&s, w.natives, SymmetryConfig::full(), true);
    (s, trace, rec.output)
}

fn session(name: &str, seed: u64) -> (DebugSession, String) {
    let (spec, trace, output) = recorded(name, seed);
    (DebugSession::new(&spec, trace, Vec::new()), output)
}

#[test]
fn breakpoint_hits_and_resume_is_accurate() {
    let (mut s, rec_output) = session("racy_counter", 3);
    let worker = s.program().method_id_by_name("worker").unwrap();
    s.add_breakpoint(worker, 0);
    let stop = s.cont();
    assert!(
        matches!(stop, StopReason::Breakpoint { method, pc: 0, .. } if method == worker),
        "{stop:?}"
    );
    // Inspect at the stop: stack trace resolves lines via remote reflection.
    let tid = s.vm().sched.current;
    let frames = s.stack_trace(tid);
    assert_eq!(frames[0].method_name, "worker");
    // Resume all the way: the replay (despite debugging) matches the record.
    s.remove_breakpoint(worker, 0);
    let stop = s.cont();
    assert_eq!(stop, StopReason::Halted);
    assert_eq!(s.output(), rec_output, "debugging must not perturb replay");
}

#[test]
fn single_step_and_where() {
    let (mut s, _) = session("racy_counter", 4);
    for _ in 0..10 {
        let r = s.step();
        assert_eq!(r, StopReason::StepDone);
    }
    assert_eq!(s.step_index(), 10);
}

#[test]
fn reverse_step_returns_to_identical_state() {
    let (mut s, _) = session("racy_counter", 5);
    for _ in 0..5_000 {
        s.step();
    }
    let digest = s.vm().state_digest();
    let here = s.step_index();
    // forward a bit, then step back to exactly here
    for _ in 0..400 {
        s.step();
    }
    s.seek(here);
    assert_eq!(s.step_index(), here);
    assert_eq!(s.vm().state_digest(), digest, "reverse execution is exact");
    // single reverse step
    s.step_back();
    assert_eq!(s.step_index(), here - 1);
}

#[test]
fn stack_and_digest_answer_inside_injected_frames() {
    // A helper or callback frame injected while its caller stands on pc 0
    // saves that pc as "0 - 1" = u32::MAX; the frame walk must hand out
    // the pc the caller resumes at, which `stack`, the state digest and
    // the GC's ref maps all index the method's code with.
    for name in ["deep_recursion", "server_loop"] {
        let (mut s, _) = session(name, 7);
        let mut injected_at_prologue = false;
        while s.step() == StopReason::StepDone && s.step_index() < 6_000 {
            for tid in 0..s.vm().threads.len() as u32 {
                let frames = s.stack_trace(tid);
                injected_at_prologue |= frames.iter().skip(1).any(|f| f.pc == 0);
            }
            s.vm().state_digest();
        }
        assert!(
            injected_at_prologue,
            "{name} never paused under such a frame"
        );
    }
}

#[test]
fn thread_viewer_shows_states() {
    let (mut s, _) = session("producer_consumer", 2);
    for _ in 0..4_000 {
        s.step();
    }
    let threads = s.threads();
    assert!(threads.len() >= 3, "main + producer + consumer");
    assert!(threads.iter().any(|t| t.status == "running"));
    // every thread resolves a method name
    assert!(threads.iter().all(|t| !t.method_name.is_empty()));
}

#[test]
fn inspect_objects_via_remote_reflection() {
    let (mut s, _) = session("gc_churn", 1);
    for _ in 0..3_000 {
        s.step();
    }
    let tobj = s.vm().threads[0].thread_obj;
    let desc = s.inspect(tobj);
    assert!(desc.contains("Thread"), "{desc}");
}

#[test]
fn breakpoints_by_source_line() {
    let (mut s, _) = session("fig1_ab", 7);
    // fig1_ab's main sets y = 1 at line 4.
    let loc = s.resolve_line("main", 4).expect("line 4 exists");
    s.add_breakpoint(loc.0, loc.1);
    let stop = s.cont();
    assert!(matches!(stop, StopReason::Breakpoint { .. }), "{stop:?}");
    let frames = s.stack_trace(s.vm().sched.current);
    assert_eq!(frames[0].line, 4, "stopped at source line 4");
}

#[test]
fn e9_protocol_session() {
    let (spec, trace, rec_output) = recorded("racy_counter", 9);
    let worker = spec.program.method_id_by_name("worker").unwrap();
    let mut s = DebugSession::new(&spec, trace, Vec::new());
    let (method, pc) = (worker, 0);

    assert!(matches!(
        handle(&mut s, Command::Break { method, pc }),
        Response::Ok
    ));
    let r = handle(&mut s, Command::Continue);
    assert!(
        matches!(
            r,
            Response::Stopped {
                reason: StopReason::Breakpoint { .. },
                ..
            }
        ),
        "{r:?}"
    );
    let Response::Threads { threads } = handle(&mut s, Command::Threads) else {
        panic!("expected threads");
    };
    let running = threads.iter().find(|t| t.status == "running").unwrap();
    let Response::Stack { frames } = handle(&mut s, Command::Stack { tid: running.tid }) else {
        panic!("expected stack");
    };
    assert_eq!(frames[0].method_name, "worker");
    // A thread or method the run never had is an error, not an index panic.
    for wild in [
        Command::Stack { tid: 4_000_000 },
        Command::Disassemble { method: 4_000_000 },
    ] {
        let r = handle(&mut s, wild);
        assert!(matches!(r, Response::Error { .. }), "{r:?}");
    }
    // Likewise an address that is no object: 17 is the length word inside
    // a boot-image array, u64::MAX is outside the space.
    for addr in [17, u64::MAX] {
        let r = handle(&mut s, Command::Inspect { addr });
        let want = format!("<bad address {addr}>");
        assert!(
            matches!(&r, Response::Object { description } if *description == want),
            "{r:?}"
        );
    }
    let r = handle(&mut s, Command::Step);
    assert!(matches!(r, Response::Stopped { .. }));
    let r = handle(&mut s, Command::StepBack);
    assert!(matches!(r, Response::Stopped { .. }));
    // clear and run to completion
    assert!(matches!(
        handle(&mut s, Command::ClearBreak { method, pc }),
        Response::Ok
    ));
    let r = handle(&mut s, Command::Continue);
    assert!(
        matches!(
            r,
            Response::Stopped {
                reason: StopReason::Halted,
                ..
            }
        ),
        "{r:?}"
    );
    let Response::Output { text } = handle(&mut s, Command::Output) else {
        panic!("expected output");
    };
    assert_eq!(
        text, rec_output,
        "replayed-through-debugger output matches record"
    );
    assert_eq!(s.vm().status, VmStatus::Halted);
}

#[test]
fn metrics_and_divergence_commands() {
    let (spec, trace, rec_output) = recorded("racy_counter", 11);
    let mut s = DebugSession::new(&spec, trace, Vec::new());

    // Advance a little, then read metrics mid-replay.
    for _ in 0..50 {
        handle(&mut s, Command::Step);
    }
    let Response::Metrics { json } = handle(&mut s, Command::Metrics) else {
        panic!("expected metrics");
    };
    let parsed = codec::Json::parse(&json).expect("metrics is valid JSON");
    assert_eq!(
        parsed
            .field("session")
            .unwrap()
            .field("counters")
            .unwrap()
            .field("step")
            .unwrap()
            .as_u64()
            .unwrap(),
        50,
        "session step counter in the snapshot"
    );
    assert!(parsed.get("counters").is_some() && parsed.get("ring").is_some());
    // Reading metrics twice in a paused state is byte-identical.
    let Response::Metrics { json: json2 } = handle(&mut s, Command::Metrics) else {
        panic!("expected metrics");
    };
    assert_eq!(json, json2, "metrics reads are deterministic");

    // An accurate replay reports a clean divergence state.
    assert!(s.desyncs().is_empty());
    assert_eq!(s.divergence_json(), "[]");

    // Metrics reads must not have perturbed the replay.
    let r = handle(&mut s, Command::Continue);
    assert!(
        matches!(
            r,
            Response::Stopped {
                reason: StopReason::Halted,
                ..
            }
        ),
        "{r:?}"
    );
    let Response::Output { text } = handle(&mut s, Command::Output) else {
        panic!("expected output");
    };
    assert_eq!(text, rec_output, "metrics queries must not perturb replay");
    assert!(
        s.desyncs().is_empty(),
        "accurate replay stays clean to the end"
    );
}

#[test]
fn continue_without_breakpoints_lands_where_single_stepping_does() {
    // `cont` picks its motion from the breakpoint set: none set runs the
    // replay loop to the end, any set single-steps. Both sides must take
    // the same checkpoints on the way and stop on the same step.
    let session_block = |s: &DebugSession| {
        let doc = codec::Json::parse(&s.metrics_json()).unwrap();
        let counters = doc
            .field("session")
            .unwrap()
            .field("counters")
            .unwrap()
            .clone();
        for key in ["checkpoints", "checkpoint_bytes", "step"] {
            assert!(counters.field(key).unwrap().as_u64().unwrap() > 0, "{key}");
        }
        counters.to_string()
    };
    let (spec, trace, rec_output) = recorded("racy_counter", 11);
    let mut ran = DebugSession::new(&spec, trace.clone(), Vec::new());
    assert_eq!(ran.cont(), StopReason::Halted);

    let mut stepped = DebugSession::new(&spec, trace.clone(), Vec::new());
    while stepped.step() == StopReason::StepDone {}

    // A breakpoint nothing reaches forces `cont` down the single-step side.
    let mut probed = DebugSession::new(&spec, trace, Vec::new());
    probed.add_breakpoint(probed.program().entry, u32::MAX);
    assert_eq!(probed.cont(), StopReason::Halted);
    probed.remove_breakpoint(probed.program().entry, u32::MAX);

    let want = session_block(&ran);
    assert_eq!(want, session_block(&stepped));
    assert_eq!(want, session_block(&probed));
    assert!(ran.step_index() > 5_000, "the run crosses a cadence key");
    for s in [&ran, &stepped, &probed] {
        assert_eq!(s.output(), rec_output);
        assert_eq!(s.vm().state_digest(), ran.vm().state_digest());
        assert_eq!(s.vm().fingerprint.digest(), ran.vm().fingerprint.digest());
    }
}

#[test]
fn profile_command_and_no_trace_error() {
    let (spec, trace, rec_output) = recorded("fig1_ab", 5);
    let mut s = DebugSession::new(&spec, trace, Vec::new());

    // Profile before stepping at all: the command replays the whole run in
    // a scratch VM, so it works from any session position.
    let Response::Profile { json } = handle(&mut s, Command::Profile { top: 5 }) else {
        panic!("expected profile");
    };
    let parsed = codec::Json::parse(&json).expect("profile is valid JSON");
    let hot = parsed.field("hot_methods").unwrap();
    let codec::Json::Arr(hot) = hot else {
        panic!("hot_methods is an array")
    };
    assert!(!hot.is_empty() && hot.len() <= 5, "top-5 hot methods");
    assert!(parsed.get("fingerprint").is_some() && parsed.get("phases").is_some());
    // Profile reads are byte-deterministic.
    let Response::Profile { json: json2 } = handle(&mut s, Command::Profile { top: 5 }) else {
        panic!("expected profile");
    };
    assert_eq!(json, json2, "profile reads are deterministic");
    // …and must not perturb the session's own replay.
    let r = handle(&mut s, Command::Continue);
    assert!(
        matches!(
            r,
            Response::Stopped {
                reason: StopReason::Halted,
                ..
            }
        ),
        "{r:?}"
    );
    let Response::Output { text } = handle(&mut s, Command::Output) else {
        panic!("expected output");
    };
    assert_eq!(text, rec_output, "profiling must not perturb the replay");

    // Error path: a session with no trace loaded reports a protocol error
    // instead of profiling garbage (or panicking).
    let empty = dejavu::Trace {
        paranoid: true,
        switches: Vec::new(),
        data: Vec::new(),
    };
    let mut s = DebugSession::new(&spec, empty, Vec::new());
    let Response::Error { message } = handle(&mut s, Command::Profile { top: 5 }) else {
        panic!("expected error for profile with no trace");
    };
    assert!(message.contains("no trace loaded"), "{message}");
    // The error leaves the session usable: metrics still answers.
    assert!(matches!(
        handle(&mut s, Command::Metrics),
        Response::Metrics { .. }
    ));
}

#[test]
fn seek_time_replays_only_the_target_block_span() {
    let (spec, trace, _) = recorded("racy_counter", 6);
    let budget = 64u32;
    let bytes = dejavu::encode_trace(&trace, dejavu::TraceFormat::Block, budget);
    let bf = dejavu::BlockFile::parse(bytes.clone()).expect("own encoding parses");
    let boundaries = bf.boundaries();
    assert!(
        boundaries.len() > 3,
        "want a multi-block trace, got {}",
        boundaries.len()
    );

    // Interval checkpoints off: block boundaries are the only keys, so
    // the measured replay span is attributable to the index alone.
    let t = dejavu::ingest_bytes(bytes).expect("block bytes accepted");
    let sym = SymmetryConfig::full();
    let mut indexed =
        TimeTravel::new_indexed(spec.replay_vm(), t.trace, sym, u64::MAX, t.boundaries);
    indexed.seek(indexed.step.saturating_add(u64::MAX));
    assert_eq!(indexed.status(), VmStatus::Halted);
    let end = indexed.logical_time();
    let target = end / 2;

    let stats = indexed.seek_logical(target);
    assert!(stats.restored, "backward seek must restore a checkpoint");
    assert_eq!(stats.target_logical, target);
    assert!(
        stats.final_logical >= target,
        "seek lands at or past the target"
    );
    // The restored checkpoint is the *nearest* block boundary < target
    // (one at the target may lie past the first step that reached it)…
    let want = boundaries[boundaries.partition_point(|&b| b < target) - 1];
    assert_eq!(
        stats.checkpoint_logical, want,
        "checkpoint keyed to the covering block"
    );
    // …and the forward replay stayed within that block's event span.
    assert!(
        stats.events_replayed <= budget as u64 + 2,
        "replayed {} events for a {budget}-event block span",
        stats.events_replayed
    );

    // The same seek on an unindexed session (single step-0 checkpoint)
    // replays the whole prefix — the block index is what makes the seek
    // O(block) instead of O(run).
    let mut full = TimeTravel::new_indexed(spec.replay_vm(), trace, sym, u64::MAX, Vec::new());
    full.seek(full.step.saturating_add(u64::MAX));
    assert_eq!(full.status(), VmStatus::Halted);
    let full_stats = full.seek_logical(target);
    assert_eq!(
        full_stats.checkpoint_logical, 0,
        "unindexed session restores step 0"
    );
    assert!(
        full_stats.events_replayed > stats.events_replayed * 4,
        "full replay {} events vs indexed {}",
        full_stats.events_replayed,
        stats.events_replayed
    );
    assert_eq!(
        full.vm().state_digest(),
        indexed.vm().state_digest(),
        "both routes land on the identical program state"
    );

    // Seeking forward to where we already are replays nothing.
    let noop = indexed.seek_logical(indexed.logical_time());
    assert!(!noop.restored);
    assert_eq!(noop.events_replayed, 0);
}

#[test]
fn seek_time_restores_from_a_checkpoint_after_a_halt() {
    let (spec, trace, _) = recorded("racy_counter", 13);
    let bytes = dejavu::encode_trace(&trace, dejavu::TraceFormat::Block, 64);
    let t = dejavu::ingest_bytes(bytes).unwrap();
    let mut s = DebugSession::new(&spec, t.trace, t.boundaries);

    let r = handle(&mut s, Command::Continue);
    assert!(
        matches!(
            r,
            Response::Stopped {
                reason: StopReason::Halted,
                ..
            }
        ),
        "{r:?}"
    );
    let dejavu::SeekStats {
        target_logical,
        restored,
        checkpoint_logical,
        events_replayed,
        final_logical,
        ..
    } = s.seek_time(40);
    assert_eq!(target_logical, 40);
    assert!(restored, "halted session seeks backward via a checkpoint");
    assert!(checkpoint_logical <= 40);
    assert!(final_logical >= 40);
    assert!(events_replayed > 0);
}

#[test]
fn continue_after_a_step_back_restores_the_newest_checkpoint() {
    // `fig1_hot` under the fleet's hosted spec (`fleet::spec_for(w, 7)`):
    // one million steps, so a `continue` that replayed from step 0 instead
    // of from the last checkpoint would show in `reexecuted_steps`.
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "fig1_hot")
        .unwrap();
    let mut spec = ExecSpec::new((w.build)()).with_seed(7);
    spec.timer_base = 211;
    spec.timer_jitter = 60;
    let (_, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let mut s = DebugSession::new(&spec, trace, Vec::new());
    let session = |s: &DebugSession, key: &str| {
        let doc = codec::Json::parse(&s.metrics_json()).unwrap();
        let counters = doc.field("session").unwrap().field("counters").unwrap();
        counters.field(key).unwrap().as_u64().unwrap()
    };

    assert_eq!(s.cont(), StopReason::Halted);
    let (end, fingerprint) = (s.step_index(), s.vm().fingerprint.digest());
    assert!(end > 1_000_000, "{end}");
    s.seek(0);
    let (restores, reexecuted) = (session(&s, "restores"), session(&s, "reexecuted_steps"));

    assert_eq!(s.cont(), StopReason::Halted);
    assert_eq!(session(&s, "restores"), restores + 1);
    let replayed = session(&s, "reexecuted_steps") - reexecuted;
    assert!(replayed <= 5_000, "continue replayed {replayed} steps");
    assert_eq!(s.step_index(), end);
    assert_eq!(s.vm().fingerprint.digest(), fingerprint);
}
