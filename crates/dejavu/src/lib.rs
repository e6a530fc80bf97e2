//! # dejavu — deterministic replay for cross-optimized multithreaded guests
//!
//! Reproduction of the core contribution of *"A Perturbation-Free Replay
//! Platform for Cross-Optimized Multithreaded Applications"* (Choi, Alpern,
//! Ngo, Sridharan, Vlissides — IPDPS 2001): the DejaVu record/replay engine
//! for the `djvm` runtime.
//!
//! ## The strategy (paper §2)
//!
//! Operations are divided into **deterministic** (instruction execution,
//! allocation, GC, class loading, synchronization against replayed
//! scheduler state) and **non-deterministic** (timer-interrupt preemption,
//! wall-clock reads, native-call results). Record captures only the
//! latter; replay regenerates them and everything else replays itself —
//! including the entire thread package, so synchronization-induced thread
//! switches need no logging at all.
//!
//! ```
//! use dejavu::{record_replay, ExecSpec, SymmetryConfig};
//! use djvm::ProgramBuilder;
//!
//! let mut pb = ProgramBuilder::new();
//! let m = pb.method("main", 0, 0).code(|a| {
//!     a.now().iconst(2).rem().print(); // non-deterministic output
//!     a.halt();
//! });
//! let spec = ExecSpec::new(pb.finish(m).unwrap());
//! let (rec, rep, accurate) = record_replay(&spec, |_| {}, SymmetryConfig::full());
//! assert!(accurate);
//! assert_eq!(rec.output, rep.output);
//! ```
//!
//! ## Modules
//!
//! * [`trace`] — the two-stream trace (switch deltas + data events).
//! * [`blocktrace`] — DJVB, the one on-disk/on-wire format: delta-encoded,
//!   fixed-budget blocks packed by the rANS coder, with a footer index
//!   for O(block) seek (see DESIGN.md §6).
//! * [`record`] — Fig. 2-(A): the recording hook.
//! * [`replay`] — Fig. 2-(B): the replaying hook.
//! * [`symmetry`] — §2.4's symmetric-instrumentation machinery, each
//!   mechanism individually defeatable for ablation.
//! * [`driver`] — run orchestration and the accuracy criterion.
//! * [`timetravel`] — checkpoints over a replayed run: seek by step or
//!   logical time, backward as restore + ordinary replay (§5).

pub mod blocktrace;
pub mod driver;
pub mod observe;
pub mod profiler;
pub mod record;
pub mod replay;
pub mod symmetry;
pub mod timetravel;
pub mod trace;

pub use blocktrace::{
    decode_block_events, encode_trace, ingest_bytes, write_block_file, BlockFile, BlockInfo,
    BlockMethod, BlockStats, IngestedTrace, Packed, TraceError, TraceFormat, TraceIngest,
    DEFAULT_BLOCK_BUDGET, DEFAULT_INGEST_LIMIT,
};
pub use driver::{
    passthrough_run, record_replay, record_replay_forensic, record_run, replay_run,
    ExecSpec, ForensicOutcome, RunReport,
};
pub use observe::{
    counters_json, run_metrics_json, DivergenceReport, PhaseSpan, RunTelemetry, ThreadClockDelta,
};
pub use profiler::{profile_replay, ProfileReport};
pub use record::DejaVuRecorder;
pub use replay::{DejaVuReplayer, Desync};
pub use symmetry::{Ablation, SymmetryConfig};
pub use timetravel::{Checkpoint, SeekStats, TimeTravel};
pub use trace::{DataRec, SwitchRec, Trace, TraceStats};
