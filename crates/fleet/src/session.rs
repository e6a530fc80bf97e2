//! One hosted replay session: the `Recording → Sealed → Replaying`
//! state machine (DESIGN.md §9).
//!
//! * **Recording** — the session is an upload buffer ([`TraceIngest`]):
//!   either the client streams a previously recorded trace up in chunks
//!   (`IngestBlocks`), or asks the server to record the workload itself
//!   (`Record`). Both transitions seal the trace.
//! * **Sealed** — the trace (plus any block-boundary index) is resident
//!   but no VM exists yet. Cheap to hold by the thousand.
//! * **Replaying** — a [`DebugSession`] (VM + `dejavu::TimeTravel`
//!   checkpoints) is resident, iReplayer-style: re-entering an
//!   already-replayed session costs a seek, not a re-decode.
//!   Seek/divergence/profile/debug requests auto-promote a `Sealed`
//!   session here.
//!
//! A phase change moves the old phase's contents into the new one by
//! value; what a moved-from session holds meanwhile is an empty
//! `Recording` — a state in its own right, and the one a corrupt upload
//! is meant to leave.
//!
//! Each session owns its VM outright — nothing is shared between
//! sessions but the session map — so fingerprint determinism is exactly
//! the single-session story.

use crate::rpc::Response;
use debugger::DebugSession;
use dejavu::{record_run, ExecSpec, SymmetryConfig, Trace, TraceError, TraceIngest};
use std::time::Instant;
use workloads::Workload;

/// The platform's one execution environment for a registry workload
/// (timer base 211, jitter 60). The fleet, the CLI and the corpus all
/// build their specs here, so a fleet-hosted recording, a CLI recording
/// and a corpus recording of the same workload/seed have identical
/// fingerprints by construction.
pub fn spec_for(w: &Workload, seed: u64) -> ExecSpec {
    let mut s = ExecSpec::new((w.build)()).with_seed(seed);
    s.timer_base = 211;
    s.timer_jitter = 60;
    s
}

/// Typed session-layer failure; [`code`](FleetError::code) maps onto the
/// CLI's exit-code contract (1 = bad input, 2 = divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    NoSuchSession(u64),
    NoSuchWorkload(String),
    /// Operation is invalid in the session's current phase.
    BadState {
        want: &'static str,
        got: &'static str,
    },
    Trace(TraceError),
    /// A request panicked while holding this session's lock; its state
    /// is not trusted again. `Close` still removes it.
    Poisoned(u64),
    ShutdownDenied,
    /// A trace-store operation failed (corrupt store, missing entry,
    /// conflicting verified fingerprints).
    Store(store::StoreError),
    /// An `OpenStored` reached a server with no store configured.
    NoStore,
}

impl FleetError {
    pub fn code(&self) -> u8 {
        // Everything here is a client/input error (exit-contract 1)
        // except a store fingerprint conflict, which is divergence-class
        // (2) like an in-band DivergenceCheck/Replay failure.
        match self {
            FleetError::Store(e) => e.code(),
            _ => 1,
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoSuchSession(id) => write!(f, "no such session {id}"),
            FleetError::NoSuchWorkload(w) => write!(f, "no such workload {w:?}"),
            FleetError::BadState { want, got } => {
                write!(f, "session is {got}, operation needs {want}")
            }
            FleetError::Trace(e) => write!(f, "trace: {e}"),
            FleetError::Poisoned(id) => {
                write!(f, "session {id} is poisoned: an earlier request panicked")
            }
            FleetError::ShutdownDenied => write!(f, "shutdown denied: bad ctrl token"),
            FleetError::Store(e) => write!(f, "store: {e}"),
            FleetError::NoStore => write!(f, "server has no trace store configured"),
        }
    }
}

impl From<TraceError> for FleetError {
    fn from(e: TraceError) -> Self {
        FleetError::Trace(e)
    }
}

impl From<store::StoreError> for FleetError {
    fn from(e: store::StoreError) -> Self {
        FleetError::Store(e)
    }
}

/// Where a session is in its lifecycle.
pub enum Phase {
    Recording { ingest: TraceIngest },
    Sealed { trace: Trace, boundaries: Vec<u64> },
    Replaying { dbg: DebugSession },
}

impl Default for Phase {
    fn default() -> Self {
        Phase::Recording {
            ingest: TraceIngest::new(),
        }
    }
}

impl Phase {
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Recording { .. } => "Recording",
            Phase::Sealed { .. } => "Sealed",
            Phase::Replaying { .. } => "Replaying",
        }
    }
}

/// One hosted session. All methods take `&mut self`; the manager wraps
/// each session in its own `Mutex` so concurrent requests serialize per
/// session while distinct sessions run fully in parallel.
pub struct Session {
    pub workload: Workload,
    pub seed: u64,
    pub phase: Phase,
    /// Refreshed on every touch; drives idle eviction.
    pub last_touched: Instant,
}

impl Session {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Session {
            workload,
            seed,
            phase: Phase::default(),
            last_touched: Instant::now(),
        }
    }

    fn spec(&self) -> ExecSpec {
        spec_for(&self.workload, self.seed)
    }

    /// Append an upload chunk; `done` seals the session. When
    /// `keep_bytes` is set, a successful seal also hands back the
    /// complete uploaded file bytes — the manager forwards them to the
    /// trace store, which needs the *original* bytes (its byte-fidelity
    /// contract is against what was uploaded, not a re-encoding).
    pub fn ingest(
        &mut self,
        chunk: &[u8],
        done: bool,
        keep_bytes: bool,
    ) -> Result<(u64, Option<Vec<u8>>), FleetError> {
        let Phase::Recording { ingest } = &mut self.phase else {
            return Err(FleetError::BadState {
                want: "Recording",
                got: self.phase.name(),
            });
        };
        let total = ingest.push(chunk)?;
        if !done {
            return Ok((total, None));
        }
        // Sealing takes the buffer and leaves an empty one behind, so a
        // corrupt upload keeps the session usable: still `Recording`,
        // ready for a retry.
        let ingest = std::mem::take(ingest);
        let sealed_bytes = keep_bytes.then(|| ingest.peek().to_vec());
        let ingested = ingest.finish()?;
        self.phase = Phase::Sealed {
            trace: ingested.trace,
            boundaries: ingested.boundaries,
        };
        Ok((total, sealed_bytes))
    }

    /// Record the workload server-side, sealing the trace; answers
    /// `Recorded` for session `id`.
    pub fn record(&mut self, id: u64) -> Result<Response, FleetError> {
        if !matches!(&self.phase, Phase::Recording { .. }) {
            return Err(FleetError::BadState {
                want: "Recording",
                got: self.phase.name(),
            });
        }
        let spec = self.spec();
        let (report, trace) =
            record_run(&spec, self.workload.natives, SymmetryConfig::full(), true);
        let stats = trace.stats();
        let recorded = Response::Recorded {
            session: id,
            fingerprint: report.fingerprint,
            state_digest: report.state_digest,
            events: (stats.switch_count + stats.clock_count + stats.native_count) as u64,
            trace_bytes: stats.total_bytes as u64,
        };
        self.phase = Phase::Sealed {
            trace,
            boundaries: Vec::new(),
        };
        Ok(recorded)
    }

    /// The resident [`DebugSession`] every seek/replay/profile/debug request
    /// runs on, promoting a `Sealed` session on first use.
    pub fn make_resident(&mut self) -> Result<&mut DebugSession, FleetError> {
        self.phase = match std::mem::take(&mut self.phase) {
            Phase::Sealed { trace, boundaries } => Phase::Replaying {
                dbg: DebugSession::new(&self.spec(), trace, boundaries),
            },
            other => other,
        };
        match &mut self.phase {
            Phase::Replaying { dbg } => Ok(dbg),
            other => Err(FleetError::BadState {
                want: "Sealed or Replaying",
                got: other.name(),
            }),
        }
    }

    /// Replay the sealed trace to completion: a seek to the end of the
    /// trace from wherever a resident session stands (the end state of a
    /// deterministic replay does not depend on where it resumed), through
    /// whatever breakpoints `Debug` requests left set. Answers `Replayed`
    /// for session `id`.
    pub fn replay(&mut self, id: u64) -> Result<Response, FleetError> {
        let dbg = self.make_resident()?;
        dbg.seek(u64::MAX);
        Ok(Response::Replayed {
            session: id,
            fingerprint: dbg.vm().fingerprint.digest(),
            state_digest: dbg.vm().state_digest(),
            clean: dbg.desyncs().is_empty(),
        })
    }
}
