//! The session manager: one `Mutex<HashMap>` of live sessions, the
//! fleet-wide telemetry registry, and the one function that answers a
//! request frame.
//!
//! Lock discipline: the map lock is held only long enough to fetch (or
//! insert/remove) the `Arc<Mutex<Session>>` — nanoseconds against
//! millisecond requests; the actual work — recording, replaying, seeking
//! — happens under the *session* lock, so a slow replay on one session
//! never blocks requests for any other, and two requests for the same
//! session serialize (the state machine stays coherent without a global
//! lock). The session counters live under the map lock, so `active` and
//! `peak` are exact.
//!
//! Poisoning: a request that panics under a session lock poisons that
//! session only — it answers [`FleetError::Poisoned`] from then on. The
//! session map and the metrics registry are recovered instead
//! (`PoisonError::into_inner`): a map insert/remove and a histogram
//! bucket increment leave their data valid at every step.

use crate::rpc::{Request, Response};
use crate::session::{FleetError, Phase, Session};
use codec::Json;
use dejavu::{encode_trace, TraceFormat, DEFAULT_BLOCK_BUDGET};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};
use telemetry::Registry;

/// A session untouched this long is evicted by the housekeeper.
pub const DEFAULT_IDLE_TTL: Duration = Duration::from_secs(300);

/// The live sessions and their counters, behind one lock.
#[derive(Default)]
struct Sessions {
    map: HashMap<u64, Arc<Mutex<Session>>>,
    /// Sessions ever opened; ids are handed out `1..=opened`.
    opened: u64,
    closed: u64,
    evicted: u64,
    peak: u64,
}

pub struct SessionManager {
    sessions: Mutex<Sessions>,
    /// Request-latency histograms (`rpc.<name>`, nanoseconds) live in one
    /// registry behind a mutex: observations are O(1) bucket increments,
    /// so the critical section is tiny compared to any request body.
    metrics: Mutex<Registry>,
    /// Optional content-addressed trace store: sealed uploads and
    /// server-side records dedup into it, and `OpenStored` serves
    /// sessions straight out of its shared blocks.
    store: Option<Arc<store::Store>>,
}

impl SessionManager {
    pub fn new() -> Self {
        SessionManager {
            sessions: Mutex::default(),
            metrics: Mutex::default(),
            store: None,
        }
    }

    /// Attach a trace store (before the manager is shared).
    pub fn set_store(&mut self, store: Arc<store::Store>) {
        self.store = Some(store);
    }

    pub fn store(&self) -> Option<&Arc<store::Store>> {
        self.store.as_ref()
    }

    fn sessions(&self) -> MutexGuard<'_, Sessions> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn metrics(&self) -> MutexGuard<'_, Registry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Create a session for a registry workload.
    pub fn open(&self, workload: &str, seed: u64) -> Result<u64, FleetError> {
        Ok(self.install(Session::new(workload_named(workload)?, seed)))
    }

    pub(crate) fn install(&self, session: Session) -> u64 {
        let mut sessions = self.sessions();
        sessions.opened += 1;
        let id = sessions.opened;
        sessions.map.insert(id, Arc::new(Mutex::new(session)));
        sessions.peak = sessions.peak.max(sessions.map.len() as u64);
        id
    }

    /// Fetch a session handle (map lock held only for the lookup).
    pub fn get(&self, id: u64) -> Result<Arc<Mutex<Session>>, FleetError> {
        let session = self.sessions().map.get(&id).cloned();
        session.ok_or(FleetError::NoSuchSession(id))
    }

    /// Run `f` on session `id` under its own lock, refreshing its idle
    /// clock.
    fn with_session<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Session) -> Result<T, FleetError>,
    ) -> Result<T, FleetError> {
        let session = self.get(id)?;
        let mut session = session.lock().map_err(|_| FleetError::Poisoned(id))?;
        session.last_touched = Instant::now();
        f(&mut session)
    }

    /// Drop sessions idle longer than `ttl`. `try_lock` on the session keeps
    /// the sweep from stalling behind an in-flight request — a busy
    /// session is by definition not idle. A poisoned session ages out
    /// like any other.
    pub fn evict_idle(&self, ttl: Duration) -> usize {
        let now = Instant::now();
        let mut sessions = self.sessions();
        let stale: Vec<u64> = sessions
            .map
            .iter()
            .filter_map(|(&id, s)| {
                let sess = match s.try_lock() {
                    Ok(sess) => sess,
                    Err(TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(TryLockError::WouldBlock) => return None,
                };
                (now.duration_since(sess.last_touched) > ttl).then_some(id)
            })
            .collect();
        let evicted: Vec<_> = stale.iter().filter_map(|id| sessions.map.remove(id)).collect();
        sessions.evicted += evicted.len() as u64;
        drop(sessions); // a VM and its checkpoints are freed outside the map lock
        evicted.len()
    }

    /// Canonical (sorted-key, byte-deterministic) fleet metrics snapshot.
    /// When a trace store is attached, its observer counters (blocks
    /// stored/deduped/compacted, checkpoint hits/misses) ride along
    /// under `"store"`.
    pub fn stats_json(&self) -> String {
        let sessions = {
            let s = self.sessions();
            Json::obj(vec![
                ("opened", Json::UInt(s.opened)),
                ("closed", Json::UInt(s.closed)),
                ("evicted", Json::UInt(s.evicted)),
                ("active", Json::UInt(s.map.len() as u64)),
                ("peak", Json::UInt(s.peak)),
            ])
        };
        let mut fields = vec![("sessions", sessions), ("rpc", self.metrics().to_json())];
        if let Some(store) = &self.store {
            fields.push(("store", store.counters_json()));
        }
        let mut doc = Json::obj(fields);
        doc.canonicalize();
        doc.to_string()
    }

    /// Answer one request frame — the only way bytes from a peer reach a
    /// session: decode, the shutdown gate, [`dispatch`], encode. Returns
    /// the response frame and whether it grants a `Shutdown` carrying
    /// `token` (any other `Shutdown` is dispatched, which refuses it).
    ///
    /// A request that panics is answered like any other failure, so the
    /// worker that ran it serves the next frame; the panic has poisoned
    /// the one session lock it was under, which is the quarantine.
    ///
    /// [`dispatch`]: SessionManager::dispatch
    pub fn answer(&self, frame: &[u8], token: &str) -> (Vec<u8>, bool) {
        let error = |message| Response::Error { code: 1, message };
        let (resp, stop) = match Request::decode(frame) {
            Err(e) => (error(e.to_string()), false),
            Ok(Request::Shutdown { token: t }) if t == token => (Response::ShuttingDown, true),
            Ok(req) => {
                let name = req.name();
                let resp = catch_unwind(AssertUnwindSafe(|| self.dispatch(req)))
                    .unwrap_or_else(|_| error(format!("internal: {name} request panicked")));
                (resp, false)
            }
        };
        (resp.encode(), stop)
    }

    /// Execute one RPC and record its latency under its
    /// [`latency_key`](Request::latency_key). This is
    /// the single semantic core: the TCP server (through [`answer`]) and
    /// in-process callers all funnel through here, so the protocol cannot
    /// fork. `Shutdown` is *not* granted here — it is a server-level
    /// concern (the manager has no stop flag) — and yields a typed error.
    ///
    /// [`answer`]: SessionManager::answer
    pub fn dispatch(&self, req: Request) -> Response {
        let key = req.latency_key();
        let t0 = Instant::now();
        let run = || -> Result<Response, FleetError> {
            Ok(match req {
                Request::Open { workload, seed } => Response::Opened {
                    session: self.open(&workload, seed)?,
                },
                Request::IngestBlocks {
                    session,
                    chunk,
                    done,
                } => self.with_session(session, |s| {
                    let (bytes, sealed) = s.ingest(&chunk, done, self.store.is_some())?;
                    // A sealed upload dedups into the store unverified
                    // (fingerprint 0): ingest trusts nothing it has not
                    // replayed. A later verified put upgrades in place.
                    if let (Some(store), Some(data)) = (self.store.as_ref(), sealed) {
                        store.put_bytes(s.workload.name, s.seed, &data, 0, "")?;
                    }
                    Ok(Response::Ingested { session, bytes })
                })?,
                Request::Record { session } => self.with_session(session, |s| {
                    let recorded = s.record(session)?;
                    // The server ran the record itself, so the fingerprint
                    // is first-hand: store the sealed trace as verified,
                    // encoded exactly as a client uploading this run would
                    // encode it, so both land on one catalog entry.
                    if let (
                        Some(store),
                        Phase::Sealed { trace, .. },
                        Response::Recorded { fingerprint, .. },
                    ) = (self.store.as_ref(), &s.phase, &recorded)
                    {
                        let djvb = encode_trace(trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
                        store.put_bytes(s.workload.name, s.seed, &djvb, *fingerprint, "")?;
                    }
                    Ok(recorded)
                })?,
                Request::OpenStored { entry } => {
                    let store = self.store.as_ref().ok_or(FleetError::NoStore)?;
                    let stored = store.open_trace(&entry)?;
                    let w = workload_named(&stored.entry.workload)?;
                    let phase = Phase::Sealed {
                        trace: stored.trace,
                        boundaries: stored.boundaries,
                    };
                    let session = Session {
                        phase,
                        ..Session::new(w, stored.entry.seed)
                    };
                    Response::Opened {
                        session: self.install(session),
                    }
                }
                Request::Replay { session } => {
                    self.with_session(session, |s| s.replay(session))?
                }
                Request::SeekLogical { session, logical } => self.with_session(session, |s| {
                    let st = s.make_resident()?.seek_time(logical);
                    Ok(Response::Sought {
                        session,
                        target_logical: st.target_logical,
                        final_step: st.final_step,
                        final_logical: st.final_logical,
                        steps_replayed: st.steps_replayed,
                    })
                })?,
                Request::DivergenceCheck { session } => self.with_session(session, |s| {
                    let dbg = s.make_resident()?;
                    Ok(Response::Divergence {
                        session,
                        clean: dbg.desyncs().is_empty(),
                        json: dbg.divergence_json(),
                    })
                })?,
                Request::Close { session } => {
                    let mut sessions = self.sessions();
                    let closed = sessions.map.remove(&session);
                    sessions.closed += closed.is_some() as u64;
                    drop(sessions); // a VM and its checkpoints are freed outside the map lock
                    closed.ok_or(FleetError::NoSuchSession(session))?;
                    Response::Closed { session }
                }
                Request::Debug { session, command } => self.with_session(session, |s| {
                    let response = debugger::server::handle(s.make_resident()?, command);
                    Ok(Response::Debug { response })
                })?,
                Request::Stats => Response::Stats {
                    json: self.stats_json(),
                },
                Request::Shutdown { .. } => return Err(FleetError::ShutdownDenied),
            })
        };
        let resp = run().unwrap_or_else(|e| Response::Error {
            code: e.code(),
            message: e.to_string(),
        });
        self.metrics().observe(key, t0.elapsed().as_nanos() as u64);
        resp
    }
}

pub(crate) fn workload_named(name: &str) -> Result<workloads::Workload, FleetError> {
    workloads::registry()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| FleetError::NoSuchWorkload(name.to_string()))
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::spec_for;
    use debugger::{Command, Response as DebugResponse, StopReason};
    use dejavu::{record_run, SymmetryConfig};

    #[test]
    fn replay_runs_to_the_end_of_the_trace_whatever_breakpoints_are_set() {
        let m = SessionManager::new();
        let session = m.open("fig1_ab", 2).unwrap();
        let Response::Recorded {
            fingerprint,
            state_digest,
            ..
        } = m.dispatch(Request::Record { session })
        else {
            panic!("did not record");
        };
        let debug = |command| match m.dispatch(Request::Debug { session, command }) {
            Response::Debug { response } => response,
            other => panic!("debug command did not answer: {other:?}"),
        };
        let entry = workloads::registry()
            .into_iter()
            .find(|w| w.name == "fig1_ab")
            .map(|w| (w.build)().entry)
            .unwrap();
        for pc in 0..6 {
            debug(Command::Break { method: entry, pc });
        }
        let replay = || match m.dispatch(Request::Replay { session }) {
            Response::Replayed {
                fingerprint,
                state_digest,
                clean,
                ..
            } => (fingerprint, state_digest, clean),
            other => panic!("did not replay: {other:?}"),
        };
        // Sealed -> resident with breakpoints set: still the whole run.
        assert_eq!(replay(), (fingerprint, state_digest, true));
        // Resident, mid-run, breakpoints still set: the same answer.
        let at = || {
            let session = m.get(session).unwrap();
            let mut session = session.lock().unwrap();
            session.make_resident().unwrap().logical_time()
        };
        let end = at();
        m.dispatch(Request::SeekLogical {
            session,
            logical: end / 2,
        });
        assert!(0 < at() && at() < end);
        assert_eq!(replay(), (fingerprint, state_digest, true));
        // Replay ignored the breakpoints, it did not clear them.
        debug(Command::Seek { step: 0 });
        let stopped = debug(Command::Continue);
        assert!(
            matches!(
                stopped,
                DebugResponse::Stopped {
                    reason: StopReason::Breakpoint { .. },
                    ..
                }
            ),
            "{stopped:?}"
        );
    }

    #[test]
    fn the_sweep_evicts_idle_sessions_and_skips_a_busy_one() {
        let m = SessionManager::new();
        let busy = m.open("fig1_ab", 1).unwrap();
        let idle = m.open("fig1_ab", 2).unwrap();
        let in_flight = m.get(busy).unwrap();
        let in_flight = in_flight.lock().unwrap();
        assert_eq!(m.evict_idle(Duration::ZERO), 1);
        assert!(m.get(busy).is_ok() && m.get(idle).is_err());
        drop(in_flight);
        let sessions = Json::parse(&m.stats_json()).unwrap();
        let count = |k| sessions.field("sessions").unwrap().field(k).unwrap().as_u64().unwrap();
        assert_eq!((count("evicted"), count("active"), count("peak")), (1, 1, 2));
    }

    #[test]
    fn a_poisoned_session_and_poisoned_metrics_leave_the_neighbours_serving() {
        let m = SessionManager::new();
        let victim = m.open("fig1_ab", 1).unwrap();
        let neighbour = m.open("fig1_ab", 2).unwrap();

        // Panic while holding the victim's lock and the metrics lock.
        let session = m.get(victim).unwrap();
        std::thread::scope(|scope| {
            let panicked = scope
                .spawn(|| {
                    let _session = session.lock().unwrap();
                    let _metrics = m.metrics.lock().unwrap();
                    panic!("planted");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(session.is_poisoned() && m.metrics.is_poisoned());

        match m.dispatch(Request::Record { session: victim }) {
            Response::Error { code: 1, message } => assert!(message.contains("poisoned")),
            other => panic!("expected the typed poison error, got {other:?}"),
        }

        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == "fig1_ab")
            .unwrap();
        let (truth, _) = record_run(&spec_for(&w, 2), w.natives, SymmetryConfig::full(), true);
        let Response::Recorded { fingerprint, .. } =
            m.dispatch(Request::Record { session: neighbour })
        else {
            panic!("neighbour did not record");
        };
        assert_eq!(fingerprint, truth.fingerprint);
        match m.dispatch(Request::Replay { session: neighbour }) {
            Response::Replayed {
                fingerprint, clean, ..
            } => assert!(clean && fingerprint == truth.fingerprint),
            other => panic!("neighbour did not replay: {other:?}"),
        }

        let Response::Stats { json } = m.dispatch(Request::Stats) else {
            panic!("stats did not answer");
        };
        let doc = Json::parse(&json).unwrap();
        assert_eq!(
            doc.field("sessions").unwrap().field("active").unwrap().as_u64().unwrap(),
            2
        );
        // The victim is still closable.
        assert!(matches!(
            m.dispatch(Request::Close { session: victim }),
            Response::Closed { .. }
        ));
    }
}
