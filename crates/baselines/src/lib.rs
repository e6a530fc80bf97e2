//! # baselines — the replay schemes DejaVu is compared against (paper §5)
//!
//! Every scheme is implemented against the same `djvm` substrate and the
//! same hook seams, so the comparison isolates *what is logged*:
//!
//! | Scheme | Logs | Module |
//! |---|---|---|
//! | **DejaVu** (crate `dejavu`) | preemptive switches (`nyp` deltas) + non-deterministic data | — |
//! | Russinovich–Cogswell | *every* dispatch + thread-id mapping at replay | [`thread_map`] |
//! | Instant Replay (CREW) | every shared-object access (object, version) | [`instant_replay`] |
//! | Recap / PPD | the *value* of every shared read | [`shared_reads`] |
//! | Igor / Boothe | periodic full-state checkpoints (time travel) | [`checkpoint`] |
//!
//! [`trace_size_comparison`] produces the E5 table row for a workload.
//! The `{rc,ir,readlog}_{record,replay}` functions run each scheme through
//! [`dejavu::drive`], the straight run DejaVu's own record and replay are,
//! and return its [`dejavu::RunReport`], so the accuracy and overhead
//! measurements (E4, E7) time the same window and build the same report
//! for every scheme.

pub mod checkpoint;
pub mod instant_replay;
pub mod shared_reads;
pub mod thread_map;

use codec::varint_len;
use dejavu::trace::{DataRec, HEADER_BYTES};
use dejavu::{drive, ExecSpec, RunReport, SymmetryConfig};
use djvm::Vm;

pub use checkpoint::{SeekStats, TimeTravel};
pub use instant_replay::{IrRecorder, IrReplayer, IrTrace};
pub use shared_reads::{ReadLogRecorder, ReadLogReplayer, ReadTrace};
pub use thread_map::{RcRecorder, RcReplayer, RcTrace};

/// A baseline trace's E5 size: `own` bytes of the scheme's ordering
/// records, framed the way DejaVu's size model frames a trace with an
/// empty switch stream — the header, a zero switch count, then the data
/// stream every replay scheme logs (paper footnote 7).
fn framed_len(own: usize, data: &[DataRec]) -> usize {
    HEADER_BYTES
        + own
        + varint_len(0)
        + varint_len(data.len() as u64)
        + data.iter().map(DataRec::encoded_len).sum::<usize>()
}

/// Record with the Russinovich–Cogswell scheme.
pub fn rc_record(spec: &ExecSpec, natives: impl FnOnce(&mut Vm)) -> (RunReport, RcTrace) {
    let mut hook = RcRecorder::new();
    let rep = drive(spec, spec.live_vm(), natives, &mut hook, "rc_record");
    (rep, hook.into_trace())
}

/// Replay a Russinovich–Cogswell trace; returns the report plus the
/// mapping-lookup count (the per-dispatch cost DejaVu avoids).
pub fn rc_replay(spec: &ExecSpec, trace: RcTrace) -> (RunReport, u64, u64) {
    let mut hook = RcReplayer::new(trace);
    let rep = drive(spec, spec.replay_vm(), |_| {}, &mut hook, "rc_replay");
    (rep, hook.lookups, hook.mismatches)
}

/// Record with Instant Replay (CREW access logging).
pub fn ir_record(spec: &ExecSpec, natives: impl FnOnce(&mut Vm)) -> (RunReport, IrTrace) {
    let mut hook = IrRecorder::new();
    let rep = drive(spec, spec.live_vm(), natives, &mut hook, "ir_record");
    (rep, hook.into_trace())
}

/// Replay an Instant Replay trace (access-order enforcement).
pub fn ir_replay(spec: &ExecSpec, trace: IrTrace) -> (RunReport, u64, u64) {
    let mut hook = IrReplayer::new(trace);
    let rep = drive(spec, spec.replay_vm(), |_| {}, &mut hook, "ir_replay");
    (rep, hook.delays, hook.order_violations)
}

/// Record with Recap/PPD-style read-value logging.
pub fn readlog_record(spec: &ExecSpec, natives: impl FnOnce(&mut Vm)) -> (RunReport, ReadTrace) {
    let mut hook = ReadLogRecorder::new();
    let rep = drive(spec, spec.live_vm(), natives, &mut hook, "readlog_record");
    (rep, hook.into_trace())
}

/// Replay with read-value substitution.
pub fn readlog_replay(spec: &ExecSpec, trace: ReadTrace) -> (RunReport, u64, u64) {
    let mut hook = ReadLogReplayer::new(trace);
    let rep = drive(spec, spec.replay_vm(), |_| {}, &mut hook, "readlog_replay");
    (rep, hook.substituted, hook.underruns)
}

/// One row of the E5 trace-size table: bytes per scheme for the *same*
/// seeded execution of a workload.
#[derive(Debug, Clone)]
pub struct TraceSizeRow {
    pub workload: String,
    pub steps: u64,
    pub dejavu_bytes: usize,
    pub dejavu_switches: usize,
    pub rc_bytes: usize,
    pub rc_dispatches: usize,
    pub ir_bytes: usize,
    pub ir_accesses: usize,
    pub readlog_bytes: usize,
    pub readlog_reads: usize,
}

/// Run the same workload under all four recorders and report trace sizes.
pub fn trace_size_comparison(name: &str, spec: &ExecSpec, natives: fn(&mut Vm)) -> TraceSizeRow {
    let (dj_rep, dj_trace) = dejavu::record_run(spec, natives, SymmetryConfig::full(), false);
    let (_, rc_trace) = rc_record(spec, natives);
    let (_, ir_trace) = ir_record(spec, natives);
    let (_, rl_trace) = readlog_record(spec, natives);
    TraceSizeRow {
        workload: name.to_string(),
        steps: dj_rep.counters.steps,
        dejavu_bytes: dj_trace.stats().total_bytes,
        dejavu_switches: dj_trace.stats().switch_count,
        rc_bytes: rc_trace.encoded_len(),
        rc_dispatches: rc_trace.dispatches.len(),
        ir_bytes: ir_trace.encoded_len(),
        ir_accesses: ir_trace.accesses.len(),
        readlog_bytes: rl_trace.encoded_len(),
        readlog_reads: rl_trace.total_reads(),
    }
}
