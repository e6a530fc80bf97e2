//! Quickened dispatch (superinstruction fusion, devirtualization,
//! pre-decoded operands) must be **invisible**: a pure speed setting.
//! This suite proves it across the whole workload registry — every
//! guest-visible observable (fingerprint, final state digest, output,
//! status, step and cycle counts) and every recorded trace byte is
//! identical with quickening on vs. off, and a trace recorded under one
//! dispatch mode replays accurately under the other, so recorded logs
//! outlive interpreter upgrades that change dispatch strategy but not
//! semantics.

use dejavu::{record_run, replay_run, ExecSpec, SymmetryConfig};

fn spec_for(w: &workloads::Workload, seed: u64) -> ExecSpec {
    let mut s = ExecSpec::new((w.build)()).with_seed(seed);
    s.timer_base = 97;
    s.timer_jitter = 23;
    // Bound heavyweight workloads. Pausing at the step budget is itself
    // part of the invariant: the quickened loop must pause on exactly
    // the same instruction boundary as the generic one.
    s.max_steps = 3_000_000;
    s
}

#[test]
fn quickening_is_neutral_across_the_workload_suite() {
    for w in workloads::registry() {
        let s = spec_for(&w, 11);
        let q = s.clone().with_quicken(true);
        let u = s.clone().with_quicken(false);
        let (rec_q, trace_q) = record_run(&q, w.natives, SymmetryConfig::full(), true);
        let (rec_u, trace_u) = record_run(&u, w.natives, SymmetryConfig::full(), true);
        assert!(
            rec_q.matches(&rec_u),
            "{}: record observables differ across dispatch modes",
            w.name
        );
        assert_eq!(
            rec_q.counters.steps, rec_u.counters.steps,
            "{}: step counts differ",
            w.name
        );
        assert_eq!(
            rec_q.cycles, rec_u.cycles,
            "{}: cycle counts differ",
            w.name
        );
        assert_eq!(trace_q, trace_u, "{}: traces differ", w.name);
    }
}

#[test]
fn traces_replay_accurately_across_dispatch_modes() {
    for w in workloads::registry() {
        let s = spec_for(&w, 3);
        let q = s.clone().with_quicken(true);
        let u = s.clone().with_quicken(false);
        // Record unfused, replay quickened — and the reverse.
        let (rec_u, trace_u) = record_run(&u, w.natives, SymmetryConfig::full(), true);
        let (rep_q, de_q) = replay_run(&q, trace_u, SymmetryConfig::full());
        assert!(
            de_q.is_empty(),
            "{}: desyncs replaying unfused trace quickened",
            w.name
        );
        assert!(
            rec_u.matches(&rep_q),
            "{}: unfused record vs quickened replay",
            w.name
        );
        let (rec_q, trace_q) = record_run(&q, w.natives, SymmetryConfig::full(), true);
        let (rep_u, de_u) = replay_run(&u, trace_q, SymmetryConfig::full());
        assert!(
            de_u.is_empty(),
            "{}: desyncs replaying quickened trace unfused",
            w.name
        );
        assert!(
            rec_q.matches(&rep_u),
            "{}: quickened record vs unfused replay",
            w.name
        );
    }
}

#[test]
fn interval_one_is_neutral_on_scheduling_workloads() {
    // A timer interval of 1 can expire inside every superinstruction
    // window, so the quickened loop must take the split path on every
    // fused op and still land on identical boundaries.
    for name in ["fig1_ab", "racy_counter", "producer_consumer"] {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let mut s = spec_for(&w, 5);
        s.timer_base = 1;
        s.timer_jitter = 0;
        s.max_steps = 400_000;
        let q = s.clone().with_quicken(true);
        let u = s.clone().with_quicken(false);
        let (rec_q, trace_q) = record_run(&q, w.natives, SymmetryConfig::full(), true);
        let (rec_u, trace_u) = record_run(&u, w.natives, SymmetryConfig::full(), true);
        assert!(
            rec_q.matches(&rec_u),
            "{name}: interval-1 observables differ"
        );
        assert_eq!(trace_q, trace_u, "{name}: interval-1 traces differ");
    }
}
