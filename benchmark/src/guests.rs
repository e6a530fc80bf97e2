//! The guest programs the local workloads run, at the benchmark's sizes
//! and at the reduced `--quick` sizes the tests use. Each is a
//! `workloads::Workload`, so its spec comes from `fleet::spec_for` — the
//! production spec (corpus timer 211±60, `VmConfig::default()`), with no
//! fingerprint or tier knob set here.

use dejavu::ExecSpec;
use djvm::{Program, Vm};
use workloads::{fig1, stress, suite, Workload};

fn no_natives(_: &mut Vm) {}

const fn shape(name: &'static str, build: fn() -> Program, natives: fn(&mut Vm)) -> Workload {
    Workload {
        name,
        description: "",
        build,
        natives,
        timed: false,
        native: false,
    }
}

/// `compute_hot`: ~1.9 M steps between ~9 k preemptions.
const HOT: Workload = shape(
    "fig1_ab_scaled",
    || fig1::fig1_ab_scaled(80_000),
    no_natives,
);
const HOT_QUICK: Workload = shape("fig1_ab_scaled", || fig1::fig1_ab_scaled(3_000), no_natives);

/// `event_dense`: one clock read or native result per ~20 steps; the
/// first compresses well, the second poorly.
const SPIN: Workload = shape("clock_spin", || stress::clock_spin(10_000), no_natives);
const SPIN_QUICK: Workload = shape("clock_spin", || stress::clock_spin(2_500), no_natives);
const NATIVE: Workload = shape(
    "native_heavy",
    || stress::native_heavy(5_000),
    stress::native_heavy_natives,
);
const NATIVE_QUICK: Workload = shape(
    "native_heavy",
    || stress::native_heavy(1_500),
    stress::native_heavy_natives,
);

/// `store_corpus`: four trace shapes, from 22 blocks a run down to one.
const CORPUS: [Workload; 4] = [
    shape("clock_spin", || stress::clock_spin(40_000), no_natives),
    shape(
        "native_heavy",
        || stress::native_heavy(20_000),
        stress::native_heavy_natives,
    ),
    shape(
        "server_loop",
        || suite::server_loop(8_000),
        suite::server_natives,
    ),
    shape(
        "fig1_ab_scaled",
        || fig1::fig1_ab_scaled(20_000),
        no_natives,
    ),
];
const CORPUS_QUICK: [Workload; 4] = [
    shape("clock_spin", || stress::clock_spin(4_000), no_natives),
    shape(
        "native_heavy",
        || stress::native_heavy(2_500),
        stress::native_heavy_natives,
    ),
    shape(
        "server_loop",
        || suite::server_loop(400),
        suite::server_natives,
    ),
    shape("fig1_ab_scaled", || fig1::fig1_ab_scaled(1_000), no_natives),
];

/// A guest with its program built once; a job only changes the seed.
pub struct Guest {
    pub workload: Workload,
    base: ExecSpec,
}

impl Guest {
    pub fn new(workload: Workload) -> Self {
        Guest {
            base: fleet::spec_for(&workload, 0),
            workload,
        }
    }

    pub fn spec(&self, seed: u64) -> ExecSpec {
        self.base.clone().with_seed(seed)
    }
}

fn guests(shapes: &[Workload]) -> Vec<Guest> {
    shapes.iter().copied().map(Guest::new).collect()
}

pub fn compute_hot(quick: bool) -> Vec<Guest> {
    guests(&[if quick { HOT_QUICK } else { HOT }])
}

pub fn event_dense(quick: bool) -> Vec<Guest> {
    guests(&if quick {
        [SPIN_QUICK, NATIVE_QUICK]
    } else {
        [SPIN, NATIVE]
    })
}

pub fn corpus(quick: bool) -> Vec<Guest> {
    guests(if quick { &CORPUS_QUICK } else { &CORPUS })
}
