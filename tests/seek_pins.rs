//! How far a seek replays, pinned. A checkpoint, once taken, is kept, and
//! every seek restores the newest one at or before where it lands when
//! that is behind the VM or the checkpoint is ahead of it. So after one
//! pass to the end of a run, any seek — forward or backward, by step or by
//! logical time — replays at most one checkpoint interval, and lands where
//! a fresh replay run to the same bound stands.
//!
//! Each guest runs under `fleet::spec_for(w, 7)` with checkpoints at the
//! hosted debugger's 5 000-step cadence plus the block boundaries of its
//! DJVB encoding. The largest `steps_replayed` per guest is an exact count.

use dejavu_repro::dejavu::{
    encode_trace, ingest_bytes, record_run, DejaVuReplayer, SymmetryConfig, TimeTravel,
    TraceFormat, DEFAULT_BLOCK_BUDGET,
};
use dejavu_repro::djvm::hook::ExecHook;
use dejavu_repro::djvm::{interp, SplitMix64, Vm, VmStatus};
use dejavu_repro::fleet::spec_for;
use std::sync::Arc;
use workloads::{stress, Workload};

const CADENCE: u64 = 5_000;

/// Where a VM stands and what it has computed.
fn at(vm: &Vm) -> (u64, u64, VmStatus, u64, u64) {
    (
        vm.counters.steps,
        vm.counters.yield_points,
        vm.status,
        vm.fingerprint.digest(),
        vm.state_digest(),
    )
}

/// The registry, then the benchmark's three guest sizes.
fn guests() -> Vec<(String, Workload)> {
    let mut out: Vec<(String, Workload)> = workloads::registry()
        .into_iter()
        .map(|w| (w.name.to_string(), w))
        .collect();
    let find = |name: &str| out.iter().find(|(n, _)| n == name).unwrap().1;
    let sized = [
        (
            "fig1_ab_scaled(80000)",
            Workload {
                build: || workloads::fig1::fig1_ab_scaled(80_000),
                ..find("fig1_hot")
            },
        ),
        (
            "clock_spin(10000)",
            Workload {
                build: || stress::clock_spin(10_000),
                ..find("clock_spin")
            },
        ),
        (
            "native_heavy(5000)",
            Workload {
                build: || stress::native_heavy(5_000),
                ..find("native_heavy")
            },
        ),
    ];
    out.extend(sized.map(|(n, w)| (n.to_string(), w)));
    out
}

/// Pass to the end, then a seeded tape of seeks; each seek's replay is at
/// most the cadence and its landing is a fresh replay's. Returns the
/// largest `steps_replayed` of the tape.
fn largest_seek(i: u64, w: &Workload, name: &str) -> u64 {
    let sym = SymmetryConfig::full();
    let spec = spec_for(w, 7);
    let (_, trace) = record_run(&spec, w.natives, sym, true);
    let trace = Arc::new(trace);
    let bounds = ingest_bytes(encode_trace(
        &trace,
        TraceFormat::Block,
        DEFAULT_BLOCK_BUDGET,
    ))
    .expect("own encoding")
    .boundaries;
    let mut tt =
        TimeTravel::new_indexed(spec.replay_vm(), Arc::clone(&trace), sym, CADENCE, bounds);
    tt.seek(u64::MAX);
    let (end, end_logical) = (tt.step, tt.logical_time());

    let mut rng = SplitMix64::new(i);
    let mut largest = 0;
    for k in 0..16 {
        let by_step = k % 2 == 0;
        let target = if by_step {
            rng.gen_range_u64(0, end)
        } else {
            rng.gen_range_u64(0, end_logical)
        };
        let before = at(tt.vm());
        let (restores, reexecuted, step) = (tt.restores, tt.reexecuted, tt.step);
        let replayed = if by_step {
            tt.seek(target);
            if tt.restores > restores {
                tt.reexecuted - reexecuted
            } else {
                tt.step - step
            }
        } else {
            tt.seek_logical(target).steps_replayed
        };
        assert!(
            replayed <= CADENCE,
            "{name}: seek #{k} to {target} (by step: {by_step}) replayed {replayed} steps"
        );
        largest = largest.max(replayed);

        let want = if !by_step && before.1 == target {
            // The VM's clock reads the target already: the seek stays put.
            before
        } else {
            let mut vm = spec.replay_vm();
            let mut hook = DejaVuReplayer::new(Arc::clone(&trace), sym);
            hook.on_init(&mut vm);
            let (steps, until) = if by_step {
                (target, u64::MAX)
            } else {
                (u64::MAX, target)
            };
            interp::run_until(&mut vm, &mut hook, steps, until);
            at(&vm)
        };
        assert_eq!(
            at(tt.vm()),
            want,
            "{name}: seek #{k} to {target} (by step: {by_step})"
        );
    }
    largest
}

const LARGEST: &str = r#"
fig1_ab largest_steps_replayed=74
fig1_hot largest_steps_replayed=4928
fig1_cd largest_steps_replayed=34
racy_counter largest_steps_replayed=4768
bank_transfer largest_steps_replayed=4017
dining_philosophers largest_steps_replayed=4134
producer_consumer largest_steps_replayed=3371
readers_writers largest_steps_replayed=4710
sleepy_workers largest_steps_replayed=36
gc_churn largest_steps_replayed=4849
server_loop largest_steps_replayed=2767
matrix_sum largest_steps_replayed=4992
deep_recursion largest_steps_replayed=4300
barrier largest_steps_replayed=4336
lock_convoy largest_steps_replayed=4945
gc_pressure largest_steps_replayed=4345
native_heavy largest_steps_replayed=3953
clock_spin largest_steps_replayed=4101
recursion_storm largest_steps_replayed=4572
fig1_ab_scaled(80000) largest_steps_replayed=4953
clock_spin(10000) largest_steps_replayed=4622
native_heavy(5000) largest_steps_replayed=4163
"#;

#[test]
fn every_seek_replays_at_most_one_cadence() {
    let got: String = guests()
        .iter()
        .enumerate()
        .map(|(i, (name, w))| {
            format!(
                "{name} largest_steps_replayed={}\n",
                largest_seek(i as u64, w, name)
            )
        })
        .collect();
    assert_eq!(got, LARGEST.trim_start(), "the whole table:\n{got}");
}
