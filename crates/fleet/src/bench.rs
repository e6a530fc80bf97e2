//! The fleet load driver: N concurrent sessions doing
//! record → replay → seek → divergence-check → close against a live
//! server, with per-request latency capture and fingerprint verification
//! against local single-session ground truth.
//!
//! Used by `dejavu-cli fleet-bench` (sessions/sec + p99 as canonical JSON),
//! which the verify.sh `fleet` stage runs against a spawned server. The
//! drive is deliberately three *waves* of short-lived connections: fleet
//! sessions outlive connections, so wave B reconnects and finds every
//! session from wave A still resident.

use crate::client::FleetClient;
use crate::rpc::{Request, Response};
use crate::session::spec_for;
use crate::wire::WireError;
use dejavu::{record_run, SymmetryConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use telemetry::Histogram;

/// Everything one [`drive`] run measured.
pub struct DriveReport {
    pub sessions: usize,
    pub requests: u64,
    pub elapsed: Duration,
    /// Per-request round-trip latency, nanoseconds.
    pub latency: Histogram,
    /// Every concurrently-hosted fingerprint matched its single-session
    /// ground truth (and every replay was clean).
    pub fingerprints_match: bool,
    pub mismatches: Vec<String>,
    /// `active` reported by the server with all sessions resident.
    pub resident_peak: u64,
}

struct Shared {
    latency: Histogram,
    mismatches: Vec<String>,
    requests: u64,
}

fn timed_call(
    client: &mut FleetClient,
    req: &Request,
    latency: &mut Histogram,
    requests: &mut u64,
) -> Result<Response, WireError> {
    let t0 = Instant::now();
    let resp = client.call(req)?;
    latency.observe(t0.elapsed().as_nanos() as u64);
    *requests += 1;
    Ok(resp)
}

/// Drive `sessions` concurrent sessions of `workload` against the fleet
/// server at `addr` using `threads` client threads.
pub fn drive(
    addr: &str,
    sessions: usize,
    workload_name: &str,
    threads: usize,
) -> Result<DriveReport, WireError> {
    let workload = workloads::registry()
        .into_iter()
        .find(|w| w.name == workload_name)
        .ok_or_else(|| WireError::Io(format!("no such workload {workload_name:?}")))?;
    let threads = threads.clamp(1, sessions.max(1));
    let shared = Mutex::new(Shared {
        latency: Histogram::new(),
        mismatches: Vec::new(),
        requests: 0,
    });
    let ids = Mutex::new(vec![0u64; sessions]);
    let seed_of = |i: usize| 1_000 + i as u64;
    let t0 = Instant::now();

    // Wave A: open + record every session (connections then dropped).
    wave(threads, sessions, |lo, hi| {
        let mut client = FleetClient::connect(addr)?;
        let mut latency = Histogram::new();
        let mut requests = 0u64;
        let mut local_mismatches = Vec::new();
        for i in lo..hi {
            let seed = seed_of(i);
            let id = match timed_call(
                &mut client,
                &Request::Open {
                    workload: workload_name.to_string(),
                    seed,
                },
                &mut latency,
                &mut requests,
            )? {
                Response::Opened { session } => session,
                other => return Err(WireError::Io(format!("open: {other:?}"))),
            };
            ids.lock().unwrap()[i] = id;
            let fleet_fp = match timed_call(
                &mut client,
                &Request::Record { session: id },
                &mut latency,
                &mut requests,
            )? {
                Response::Recorded { fingerprint, .. } => fingerprint,
                other => return Err(WireError::Io(format!("record: {other:?}"))),
            };
            // Single-session ground truth for the same workload/seed.
            let spec = spec_for(&workload, seed);
            let (local, _trace) = record_run(&spec, workload.natives, SymmetryConfig::full(), true);
            if local.fingerprint != fleet_fp {
                local_mismatches.push(format!(
                    "session {id} (seed {seed}): fleet record fp {fleet_fp:#x} != local {:#x}",
                    local.fingerprint
                ));
            }
        }
        let mut sh = shared.lock().unwrap();
        sh.latency.merge(&latency);
        sh.requests += requests;
        sh.mismatches.extend(local_mismatches);
        Ok(())
    })?;

    // All sessions must be resident at once: that is the concurrency
    // claim this bench exists to demonstrate.
    let resident_peak = {
        let mut client = FleetClient::connect(addr)?;
        let json = client.stats()?;
        let doc =
            codec::Json::parse(&json).map_err(|e| WireError::Io(format!("stats parse: {e}")))?;
        doc.field("sessions")
            .and_then(|s| s.field("active"))
            .and_then(|a| a.as_u64())
            .map_err(|e| WireError::Io(format!("stats: {e}")))?
    };

    // Wave B: fresh connections replay + seek + divergence-check the
    // sessions recorded in wave A.
    wave(threads, sessions, |lo, hi| {
        let mut client = FleetClient::connect(addr)?;
        let mut latency = Histogram::new();
        let mut requests = 0u64;
        let mut local_mismatches = Vec::new();
        for i in lo..hi {
            let id = ids.lock().unwrap()[i];
            let seed = seed_of(i);
            let (fleet_fp, clean) = match timed_call(
                &mut client,
                &Request::Replay { session: id },
                &mut latency,
                &mut requests,
            )? {
                Response::Replayed {
                    fingerprint, clean, ..
                } => (fingerprint, clean),
                other => return Err(WireError::Io(format!("replay: {other:?}"))),
            };
            let spec = spec_for(&workload, seed);
            let (local, _trace) = record_run(&spec, workload.natives, SymmetryConfig::full(), true);
            if local.fingerprint != fleet_fp || !clean {
                local_mismatches.push(format!(
                    "session {id} (seed {seed}): fleet replay fp {fleet_fp:#x} (clean={clean}) != local {:#x}",
                    local.fingerprint
                ));
            }
            match timed_call(
                &mut client,
                &Request::SeekLogical {
                    session: id,
                    logical: 500,
                },
                &mut latency,
                &mut requests,
            )? {
                Response::Sought { .. } => {}
                other => return Err(WireError::Io(format!("seek: {other:?}"))),
            }
            match timed_call(
                &mut client,
                &Request::DivergenceCheck { session: id },
                &mut latency,
                &mut requests,
            )? {
                Response::Divergence { clean: true, .. } => {}
                Response::Divergence { clean: false, .. } => {
                    local_mismatches.push(format!("session {id}: divergence after seek"));
                }
                other => return Err(WireError::Io(format!("divergence: {other:?}"))),
            }
        }
        let mut sh = shared.lock().unwrap();
        sh.latency.merge(&latency);
        sh.requests += requests;
        sh.mismatches.extend(local_mismatches);
        Ok(())
    })?;

    // Wave C: close everything.
    wave(threads, sessions, |lo, hi| {
        let mut client = FleetClient::connect(addr)?;
        let mut latency = Histogram::new();
        let mut requests = 0u64;
        for i in lo..hi {
            let id = ids.lock().unwrap()[i];
            match timed_call(
                &mut client,
                &Request::Close { session: id },
                &mut latency,
                &mut requests,
            )? {
                Response::Closed { .. } => {}
                other => return Err(WireError::Io(format!("close: {other:?}"))),
            }
        }
        let mut sh = shared.lock().unwrap();
        sh.latency.merge(&latency);
        sh.requests += requests;
        Ok(())
    })?;

    let elapsed = t0.elapsed();
    let sh = shared.into_inner().unwrap();
    Ok(DriveReport {
        sessions,
        requests: sh.requests,
        elapsed,
        latency: sh.latency,
        fingerprints_match: sh.mismatches.is_empty() && resident_peak >= sessions as u64,
        mismatches: sh.mismatches,
        resident_peak,
    })
}

/// Split `0..total` across `threads` scoped workers; first error wins.
fn wave(
    threads: usize,
    total: usize,
    body: impl Fn(usize, usize) -> Result<(), WireError> + Sync,
) -> Result<(), WireError> {
    let per = total.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * per;
            let hi = ((t + 1) * per).min(total);
            if lo >= hi {
                break;
            }
            let body = &body;
            handles.push(scope.spawn(move || body(lo, hi)));
        }
        for h in handles {
            h.join()
                .map_err(|_| WireError::Io("drive worker panicked".into()))??;
        }
        Ok(())
    })
}
