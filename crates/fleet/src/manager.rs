//! The session manager: a sharded `Mutex<HashMap>` of live sessions plus
//! the fleet-wide telemetry registry.
//!
//! Lock discipline: a shard lock is held only long enough to fetch (or
//! insert/remove) the `Arc<Mutex<Session>>`; the actual work — recording,
//! replaying, seeking — happens under the *session* lock, so a slow
//! replay on one session never blocks requests for any other, and two
//! requests for the same session serialize (the state machine stays
//! coherent without a global lock).
//!
//! Poisoning: a request that panics under a session lock poisons that
//! session only — it answers [`FleetError::Poisoned`] from then on. The
//! shard maps and the metrics registry are recovered instead
//! (`PoisonError::into_inner`): a map insert/remove and a histogram
//! bucket increment leave their data valid at every step.

use crate::rpc::{Request, Response};
use crate::session::{FleetError, Phase, Session};
use codec::{FromJson, Json, ToJson};
use debugger::protocol::Command;
use dejavu::{encode_trace, TraceFormat, DEFAULT_BLOCK_BUDGET};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};
use telemetry::Registry;

/// Shard count for the session map. Power of two; sized so ≥64 live
/// sessions rarely contend on the same shard lock.
pub const SHARDS: usize = 16;

/// A session untouched this long is evicted by the housekeeper.
pub const DEFAULT_IDLE_TTL: Duration = Duration::from_secs(300);

pub struct SessionManager {
    shards: Vec<Mutex<HashMap<u64, Arc<Mutex<Session>>>>>,
    next_id: AtomicU64,
    opened: AtomicU64,
    closed: AtomicU64,
    evicted: AtomicU64,
    peak: AtomicU64,
    /// Request-latency histograms (`rpc.<name>`, nanoseconds) live in one
    /// registry behind a mutex: observations are O(1) bucket increments,
    /// so the critical section is tiny compared to any request body.
    metrics: Mutex<Registry>,
    idle_ttl: Duration,
    /// Optional content-addressed trace store: sealed uploads and
    /// server-side records dedup into it, and `OpenStored` serves
    /// sessions straight out of its shared blocks.
    store: Option<Arc<store::Store>>,
}

impl SessionManager {
    pub fn new() -> Self {
        Self::with_idle_ttl(DEFAULT_IDLE_TTL)
    }

    pub fn with_idle_ttl(idle_ttl: Duration) -> Self {
        SessionManager {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(1),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            metrics: Mutex::new(Registry::new()),
            idle_ttl,
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

    fn shard(&self, id: u64) -> MutexGuard<'_, HashMap<u64, Arc<Mutex<Session>>>> {
        self.shards[(id as usize) % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn metrics(&self) -> MutexGuard<'_, Registry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn note_opened(&self) {
        self.opened.fetch_add(1, Ordering::Relaxed);
        let active = self.active();
        self.peak.fetch_max(active, Ordering::Relaxed);
    }

    /// Live session count (sums shard sizes; exact, not sampled).
    pub fn active(&self) -> u64 {
        (0..SHARDS as u64).map(|i| self.shard(i).len() as u64).sum()
    }

    /// Create a session for a registry workload.
    pub fn open(&self, workload: &str, seed: u64) -> Result<u64, FleetError> {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == workload)
            .ok_or_else(|| FleetError::NoSuchWorkload(workload.to_string()))?;
        Ok(self.install(|id| Session::new(id, w, seed)))
    }

    fn install(&self, build: impl FnOnce(u64) -> Session) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Mutex::new(build(id)));
        self.shard(id).insert(id, session);
        self.note_opened();
        id
    }

    /// Fetch a session handle (shard lock held only for the lookup).
    pub fn get(&self, id: u64) -> Result<Arc<Mutex<Session>>, FleetError> {
        self.shard(id)
            .get(&id)
            .cloned()
            .ok_or(FleetError::NoSuchSession(id))
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
        session.touch();
        f(&mut session)
    }

    /// Remove a session, returning it to the caller.
    pub fn take(&self, id: u64) -> Result<Arc<Mutex<Session>>, FleetError> {
        let s = self
            .shard(id)
            .remove(&id)
            .ok_or(FleetError::NoSuchSession(id))?;
        self.closed.fetch_add(1, Ordering::Relaxed);
        Ok(s)
    }

    /// Drop sessions idle past the TTL. `try_lock` on the session keeps
    /// the sweep from stalling behind an in-flight request — a busy
    /// session is by definition not idle. A poisoned session ages out
    /// like any other.
    pub fn evict_idle(&self) -> usize {
        let now = Instant::now();
        let mut evicted = 0;
        for i in 0..SHARDS as u64 {
            let mut map = self.shard(i);
            let stale: Vec<u64> = map
                .iter()
                .filter_map(|(&id, s)| {
                    let sess = match s.try_lock() {
                        Ok(sess) => sess,
                        Err(TryLockError::Poisoned(p)) => p.into_inner(),
                        Err(TryLockError::WouldBlock) => return None,
                    };
                    (now.duration_since(sess.last_touched) > self.idle_ttl).then_some(id)
                })
                .collect();
            for id in stale {
                map.remove(&id);
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        evicted
    }

    /// Canonical (sorted-key, byte-deterministic) fleet metrics snapshot.
    /// When a trace store is attached, its observer counters (blocks
    /// stored/deduped/compacted, checkpoint hits/misses) ride along
    /// under `"store"`.
    pub fn stats_json(&self) -> String {
        let mut fields = vec![
            (
                "sessions",
                Json::obj(vec![
                    ("opened", Json::UInt(self.opened.load(Ordering::Relaxed))),
                    ("closed", Json::UInt(self.closed.load(Ordering::Relaxed))),
                    ("evicted", Json::UInt(self.evicted.load(Ordering::Relaxed))),
                    ("active", Json::UInt(self.active())),
                    ("peak", Json::UInt(self.peak.load(Ordering::Relaxed))),
                ]),
            ),
            ("rpc", self.metrics().to_json()),
        ];
        if let Some(store) = &self.store {
            fields.push(("store", store.counters_json()));
        }
        let mut doc = Json::obj(fields);
        doc.canonicalize();
        doc.to_string()
    }

    /// Record one request's latency under `rpc.<name>`.
    pub fn observe_latency(&self, rpc: &'static str, nanos: u64) {
        self.metrics().observe(rpc, nanos);
    }

    fn latency_key(req: &Request) -> &'static str {
        match req.name() {
            "open" => "rpc.open",
            "ingest" => "rpc.ingest",
            "record" => "rpc.record",
            "replay" => "rpc.replay",
            "seek" => "rpc.seek",
            "divergence" => "rpc.divergence",
            "profile" => "rpc.profile",
            "close" => "rpc.close",
            "debug" => "rpc.debug",
            "stats" => "rpc.stats",
            "open_stored" => "rpc.open_stored",
            _ => "rpc.other",
        }
    }

    /// Execute one RPC. This is the single semantic core: the TCP server
    /// and in-process callers all funnel through here, so the protocol
    /// cannot fork. `Shutdown` is *not* handled — it is a server-level
    /// concern (the manager has no stop flag) and dispatching it yields
    /// a typed error.
    pub fn dispatch(&self, req: Request) -> Response {
        let key = Self::latency_key(&req);
        let t0 = Instant::now();
        let resp = self.dispatch_inner(req);
        self.observe_latency(key, t0.elapsed().as_nanos() as u64);
        resp
    }

    fn dispatch_inner(&self, req: Request) -> Response {
        match self.try_dispatch(req) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                code: e.code(),
                message: e.to_string(),
            },
        }
    }

    fn try_dispatch(&self, req: Request) -> Result<Response, FleetError> {
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
                let out = s.record()?;
                // The server ran the record itself, so the fingerprint is
                // first-hand: store the sealed trace as verified, encoded
                // exactly as a client uploading this run would encode it,
                // so both land on one catalog entry.
                if let (Some(store), Phase::Sealed { trace, .. }) = (self.store.as_ref(), &s.phase)
                {
                    let djvb = encode_trace(trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
                    store.put_bytes(s.workload.name, s.seed, &djvb, out.fingerprint, "")?;
                }
                Ok(Response::Recorded {
                    session,
                    fingerprint: out.fingerprint,
                    state_digest: out.state_digest,
                    events: out.events,
                    trace_bytes: out.trace_bytes,
                })
            })?,
            Request::OpenStored { entry } => {
                let store = self.store.as_ref().ok_or(FleetError::NoStore)?;
                let stored = store.open_trace(&entry)?;
                let w = workloads::registry()
                    .into_iter()
                    .find(|w| w.name == stored.entry.workload)
                    .ok_or_else(|| FleetError::NoSuchWorkload(stored.entry.workload.clone()))?;
                let seed = stored.entry.seed;
                let (trace, boundaries) = (stored.trace, stored.boundaries);
                let session =
                    self.install(|id| Session::from_sealed(id, w, seed, trace, boundaries));
                Response::Opened { session }
            }
            Request::Replay { session } => self.with_session(session, |s| {
                let out = s.replay()?;
                Ok(Response::Replayed {
                    session,
                    fingerprint: out.fingerprint,
                    state_digest: out.state_digest,
                    clean: out.clean,
                })
            })?,
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
            Request::Profile { session, top } => self.with_session(session, |s| {
                let json = s
                    .make_resident()?
                    .profile_json(top)
                    .map_err(FleetError::Profile)?;
                Ok(Response::Profiled { session, json })
            })?,
            Request::Close { session } => {
                self.take(session)?;
                Response::Closed { session }
            }
            Request::Debug { session, command } => {
                let cmd = Command::from_json_str(&command)
                    .map_err(|e| FleetError::BadDebugCommand(e.to_string()))?;
                self.with_session(session, |s| {
                    let resp = debugger::server::handle(s.make_resident()?, cmd);
                    Ok(Response::Debug {
                        json: resp.to_json_string(),
                    })
                })?
            }
            Request::Stats => Response::Stats {
                json: self.stats_json(),
            },
            Request::Shutdown { .. } => return Err(FleetError::ShutdownDenied),
        })
    }
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
        let debug = |command: String| match m.dispatch(Request::Debug { session, command }) {
            Response::Debug { json } => json,
            other => panic!("debug command did not answer: {other:?}"),
        };
        let entry = workloads::registry()
            .into_iter()
            .find(|w| w.name == "fig1_ab")
            .map(|w| (w.build)().entry)
            .unwrap();
        for pc in 0..6 {
            debug(format!(r#"{{"cmd":"break","method":{entry},"pc":{pc}}}"#));
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
        debug(r#"{"cmd":"seek","step":0}"#.into());
        let stopped = debug(r#"{"cmd":"continue"}"#.into());
        assert!(stopped.contains(r#""breakpoint""#), "{stopped}");
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
