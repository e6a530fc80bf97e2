//! `fleet_mix`: the whole served path. An in-process `FleetServer` with a
//! store, real loopback TCP, and a **closed loop**: `min(nproc, 2)`
//! connections, each sending its next session only after the previous one
//! closed. A session is one job. The guests are the registry workloads
//! other than `fig1_hot` — at most ~52 k steps — so wire, RPC, session
//! state, `Vm::boot`, 8 MiB snapshots and store puts do the work, not
//! dispatch. `fig1_hot` is kept out on evidence (README): one hosted
//! replay of it takes hundreds of 8 MiB checkpoints and anywhere from a
//! tenth of a second to seconds, which swamps every other session; it is
//! measured once, after the window, as a layer metric.
//!
//! Ground-truth fingerprints come from set-up, so the generator does not
//! re-record inside the timed loop and compete with the server for the
//! cores (`fleet::bench::drive` does).

use crate::guests::Guest;
use crate::metrics::{self, Values};
use crate::probe;
use crate::spans::{self, Recorder};
use crate::storeops;
use crate::window::{self, Ctx, Deadline, JobLog};
use crate::Outcome;
use codec::Json;
use dejavu::{encode_trace, record_run, SymmetryConfig, TraceFormat, DEFAULT_BLOCK_BUDGET};
use djvm::rng::SplitMix64;
use fleet::client::INGEST_CHUNK;
use fleet::{FleetClient, FleetConfig, FleetServer, Request, Response, SessionManager};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const WARMUP_JOBS: usize = 5;
const SEEKS: usize = 2;
const HEAVY: &str = "fig1_hot";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Open → Record → Replay → seeks → DivergenceCheck → Close.
    Record,
    /// Open → IngestBlocks of bytes recorded in set-up → Replay → ….
    Ingest,
    /// OpenStored of an entry put in set-up → Replay → ….
    Stored,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Record => "fleet.session.record",
            Kind::Ingest => "fleet.session.ingest",
            Kind::Stored => "fleet.session.stored",
        }
    }
}

/// Sessions of each workload in one round: 60 % record, 20 % ingest,
/// 20 % stored. `--quick` runs one of each kind.
const MIX: [Kind; 10] = {
    use Kind::*;
    [
        Record, Record, Record, Record, Record, Record, Ingest, Ingest, Stored, Stored,
    ]
};
const MIX_QUICK: [Kind; 3] = [Kind::Record, Kind::Ingest, Kind::Stored];

/// The RPCs a session makes, as (histogram name on the server, span name
/// on the client).
const RPCS: [(&str, &str); 8] = [
    ("open", "fleet.rpc.open"),
    ("open_stored", "fleet.rpc.open_stored"),
    ("ingest", "fleet.rpc.ingest"),
    ("record", "fleet.rpc.record"),
    ("replay", "fleet.rpc.replay"),
    ("seek", "fleet.rpc.seek"),
    ("divergence", "fleet.rpc.divergence"),
    ("close", "fleet.rpc.close"),
];

/// One (workload, seed) with what a correct server must answer.
struct Pair {
    workload: &'static str,
    seed: u64,
    fingerprint: u64,
    state_digest: u64,
    end_logical: u64,
    djvb: Vec<u8>,
    /// Store entry the set-up put `djvb` under, for a `stored` session.
    entry: String,
}

pub struct FleetMix {
    server: Option<FleetServer>,
    addr: String,
    token: String,
    pairs: Vec<Pair>,
    /// One round of sessions; every round replays it.
    plan: Vec<(usize, Kind)>,
    /// The mix's workloads; each has as many consecutive `pairs`.
    guests: Vec<Guest>,
    connections: usize,
}

/// What the client side of a window adds up, all jobs included.
#[derive(Default)]
struct ClientSums {
    rpc: Duration,
    seeks: Vec<f64>,
}

/// Some way to get a request answered: over TCP, or straight into the
/// manager.
type Call<'a> = &'a mut dyn FnMut(&Request) -> Result<Response, String>;

fn rpc(
    rec: &mut Recorder,
    call: Call,
    sums: &mut ClientSums,
    req: Request,
) -> Result<Response, String> {
    let span = RPCS
        .iter()
        .find(|r| r.0 == req.name())
        .expect("a session RPC")
        .1;
    let (resp, took) = rec.time(span, |_| call(&req));
    sums.rpc += took;
    if span == "fleet.rpc.seek" {
        sums.seeks.push(took.as_secs_f64());
    }
    match resp? {
        Response::Error { code, message } => {
            Err(format!("{}: error {code}: {message}", req.name()))
        }
        other => Ok(other),
    }
}

/// One session against `pair`, every answer checked against set-up's
/// ground truth.
fn session(
    rec: &mut Recorder,
    call: Call,
    sums: &mut ClientSums,
    pair: &Pair,
    kind: Kind,
    targets: &mut SplitMix64,
) -> Result<(), String> {
    let open = match kind {
        Kind::Stored => Request::OpenStored {
            entry: pair.entry.clone(),
        },
        _ => Request::Open {
            workload: pair.workload.into(),
            seed: pair.seed,
        },
    };
    let Response::Opened { session } = rpc(rec, call, sums, open)? else {
        return Err("open: unexpected response".into());
    };
    match kind {
        Kind::Record => match rpc(rec, call, sums, Request::Record { session })? {
            Response::Recorded {
                fingerprint,
                state_digest,
                ..
            } if (fingerprint, state_digest) == (pair.fingerprint, pair.state_digest) => {}
            other => return Err(format!("record: {other:?} is not the ground truth")),
        },
        Kind::Ingest => {
            let mut chunks = pair.djvb.chunks(INGEST_CHUNK).peekable();
            while let Some(chunk) = chunks.next() {
                let req = Request::IngestBlocks {
                    session,
                    chunk: chunk.to_vec(),
                    done: chunks.peek().is_none(),
                };
                let Response::Ingested { .. } = rpc(rec, call, sums, req)? else {
                    return Err("ingest: unexpected response".into());
                };
            }
        }
        Kind::Stored => {}
    }
    match rpc(rec, call, sums, Request::Replay { session })? {
        Response::Replayed {
            fingerprint,
            state_digest,
            clean: true,
            ..
        } if (fingerprint, state_digest) == (pair.fingerprint, pair.state_digest) => {}
        other => return Err(format!("replay: {other:?} is not the ground truth")),
    }
    for _ in 0..SEEKS {
        let logical = targets.gen_range_u64(0, pair.end_logical);
        match rpc(rec, call, sums, Request::SeekLogical { session, logical })? {
            Response::Sought { final_logical, .. } if final_logical == logical => {}
            other => return Err(format!("seek to {logical}: {other:?}")),
        }
    }
    match rpc(rec, call, sums, Request::DivergenceCheck { session })? {
        Response::Divergence { clean: true, .. } => {}
        other => return Err(format!("divergence: {other:?}")),
    }
    match rpc(rec, call, sums, Request::Close { session })? {
        Response::Closed { .. } => Ok(()),
        other => Err(format!("close: {other:?}")),
    }
}

fn connect(addr: &str) -> Result<FleetClient, String> {
    FleetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn over(client: &mut FleetClient) -> impl FnMut(&Request) -> Result<Response, String> + '_ {
    |req| client.call(req).map_err(|e| e.to_string())
}

impl FleetMix {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mix: &[Kind] = if ctx.quick { &MIX_QUICK } else { &MIX };
        let config = FleetConfig {
            store_root: Some(ctx.out.join("fleet-store")),
            ..FleetConfig::default()
        };
        let token = config.shutdown_token.clone();
        let server =
            FleetServer::start("127.0.0.1:0", config).map_err(|e| format!("start server: {e}"))?;
        // From here on dropping `this` stops the server.
        let mut this = FleetMix {
            addr: server.addr().to_string(),
            server: Some(server),
            token,
            pairs: Vec::new(),
            plan: Vec::new(),
            guests: Vec::new(),
            connections: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        };
        let store = this
            .manager()
            .store()
            .expect("configured with a store")
            .clone();

        // One (workload, seed) per session of a round, recorded here for
        // its ground truth; the `stored` ones are put into the store.
        let mut rng = SplitMix64::new(ctx.stream(1));
        for w in workloads::registry()
            .into_iter()
            .filter(|w| w.name != HEAVY)
        {
            let guest = Guest::new(w);
            for &kind in mix {
                let seed = rng.next_u64() >> 1;
                let (report, trace) =
                    record_run(&guest.spec(seed), w.natives, SymmetryConfig::full(), true);
                let djvb = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
                let entry = match kind {
                    Kind::Stored => {
                        store
                            .put_bytes(w.name, seed, &djvb, report.fingerprint, "")
                            .map_err(|e| format!("set-up put: {e}"))?
                            .entry
                    }
                    _ => String::new(),
                };
                this.plan.push((this.pairs.len(), kind));
                this.pairs.push(Pair {
                    workload: w.name,
                    seed,
                    fingerprint: report.fingerprint,
                    state_digest: report.state_digest,
                    end_logical: report.counters.yield_points,
                    djvb,
                    entry,
                });
            }
            this.guests.push(guest);
        }
        // Warm-up sessions are the first workload's, one of each kind, so
        // set-up costs the same whatever the seed.
        let warmup: Vec<(usize, Kind)> = MIX_QUICK
            .iter()
            .filter_map(|k| this.plan.iter().copied().find(|p| p.1 == *k))
            .collect();
        for i in (1..this.plan.len()).rev() {
            this.plan.swap(i, rng.gen_range_u64(0, i as u64) as usize);
        }

        let mut client = connect(&this.addr)?;
        let mut rec = Recorder::new(Instant::now(), 0);
        for (pair, kind) in warmup.into_iter().cycle().take(WARMUP_JOBS) {
            let mut targets = SplitMix64::new(ctx.stream(2));
            session(
                &mut rec,
                &mut over(&mut client),
                &mut ClientSums::default(),
                &this.pairs[pair],
                kind,
                &mut targets,
            )?;
        }
        Ok(this)
    }

    fn manager(&self) -> &SessionManager {
        self.server.as_ref().expect("running until drop").manager()
    }

    /// The `Stats` RPC, parsed.
    fn stats(&self) -> Result<Json, String> {
        let text = connect(&self.addr)?
            .stats()
            .map_err(|e| format!("stats: {e}"))?;
        Json::parse(&text).map_err(|e| format!("stats: {e}"))
    }

    /// Job `j` of the plan (rounds repeat it), its seek targets derived
    /// from the run seed and `j` alone.
    fn job(
        &self,
        ctx: &Ctx,
        rec: &mut Recorder,
        call: Call,
        sums: &mut ClientSums,
        j: u64,
    ) -> Result<(), String> {
        let (pair, kind) = self.plan[j as usize % self.plan.len()];
        let mut targets = SplitMix64::new(ctx.stream(3) ^ j);
        rec.time(kind.span(), |rec| {
            session(rec, call, sums, &self.pairs[pair], kind, &mut targets)
        })
        .0
    }

    pub fn measure(self, ctx: &Ctx) -> Result<Outcome, String> {
        let epoch = Instant::now();
        let before = if ctx.trace { Some(self.stats()?) } else { None };
        let next = AtomicU64::new(0);
        let deadline = Deadline::open(ctx, self.plan.len() as u64);
        let opened = Instant::now();
        let per_thread = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.connections as u32)
                .map(|tid| {
                    let (this, next, deadline) = (&self, &next, &deadline);
                    scope.spawn(move || -> Result<_, String> {
                        let mut client = connect(&this.addr)?;
                        let mut rec = Recorder::new(epoch, tid);
                        let (mut log, mut sums) = (JobLog::default(), ClientSums::default());
                        loop {
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            if !deadline.more(j) {
                                break;
                            }
                            let ok = log.job(ctx, &mut rec, j as u32, |rec| {
                                this.job(ctx, rec, &mut over(&mut client), &mut sums, j)
                            });
                            if !ok {
                                // The stream may be out of step; start clean.
                                client = connect(&this.addr)?;
                            }
                        }
                        Ok((log, sums, rec.into_spans()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "generator thread panicked".to_string())?
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut log = JobLog {
            window: opened.elapsed(),
            ..JobLog::default()
        };
        let (mut sums, mut logs) = (ClientSums::default(), Vec::new());
        for (thread_log, thread_sums, thread_spans) in per_thread {
            log.absorb(thread_log);
            sums.rpc += thread_sums.rpc;
            sums.seeks.extend(thread_sums.seeks);
            logs.push(thread_spans);
        }

        let mut e2e = Values::new();
        metrics::set(&mut e2e, "seek_p50_s", metrics::median(&sums.seeks));
        let mut layer = Values::new();
        let spans = spans::merge(logs);
        if let Some(before) = before {
            self.layers(ctx, &before, &sums, &spans, &mut layer)?;
            // Two end-to-end metrics do not repeat with two connections
            // and are layer metrics here: `VmHWM` is two large sessions
            // meeting, and the sessions the p90 falls on run at either of
            // two speeds for a whole run, as the allocator keeps their
            // 8 MiB snapshots mapped or returns them.
            metrics::set(&mut layer, "fleet.peak_rss_mib", window::peak_rss_mib());
            let all: Vec<f64> = log.latencies.iter().map(|l| l.0).collect();
            metrics::set(&mut layer, "fleet.job_p90_s", metrics::quantile(&all, 0.9));
            metrics::set(
                &mut layer,
                "fleet.inproc.job_p50_s",
                metrics::median(&self.in_process(ctx)?),
            );
            if !ctx.quick {
                self.heavy_session(&mut layer)?;
            }
            // Job 0 alone may be a 74-step guest with no event at all;
            // the mix's input is one run of each of its guests.
            let inputs: Vec<_> = self
                .guests
                .iter()
                .zip(
                    self.pairs
                        .iter()
                        .step_by(self.pairs.len() / self.guests.len()),
                )
                .map(|(guest, pair)| (guest, pair.seed))
                .collect();
            probe::run(&inputs, &mut layer)?;
        }
        Ok(Outcome {
            log,
            e2e,
            layer,
            spans,
        })
    }

    /// The per-layer metrics of the window: client spans against the
    /// server's own `rpc.*` histograms, and the store's counters.
    fn layers(
        &self,
        ctx: &Ctx,
        before: &Json,
        sums: &ClientSums,
        spans: &[spans::Span],
        out: &mut Values,
    ) -> Result<(), String> {
        let after = self.stats()?;
        let histogram = |stats: &Json, rpc: &str, field: &str| {
            stats
                .get("rpc")
                .and_then(|r| r.get("histograms"))
                .and_then(|h| h.get(&format!("rpc.{rpc}")))
                .and_then(|h| h.get(field))
                .and_then(|v| v.as_u64().ok())
                .unwrap_or(0) as f64
        };
        let mut server_ns = 0.0;
        for (rpc, span) in RPCS {
            metrics::set(
                out,
                format!("{span}.client_p50_s"),
                metrics::median(&spans::durations(spans, span)),
            );
            out.insert(
                format!("{span}.server_p50_s"),
                histogram(&after, rpc, "p50") / 1e9,
            );
            server_ns += histogram(&after, rpc, "sum") - histogram(before, rpc, "sum");
        }
        let client_ns = sums.rpc.as_secs_f64() * 1e9;
        out.insert(
            "fleet.wire.overhead_permille".into(),
            (client_ns - server_ns) * 1000.0 / client_ns,
        );
        for kind in MIX_QUICK {
            let p50 = metrics::median(&spans::durations(spans, kind.span()));
            metrics::set(out, format!("{}.p50_s", kind.span()), p50);
        }
        metrics::set(out, "fleet.seek.p90_s", metrics::quantile(&sums.seeks, 0.9));
        let peak = after
            .get("sessions")
            .and_then(|s| s.get("peak"))
            .and_then(|v| v.as_u64().ok());
        metrics::set(out, "fleet.sessions.peak", peak.map(|p| p as f64));

        let store = after.get("store").ok_or("stats: no store section")?;
        out.insert(
            "store.cache.hit_permille".into(),
            storeops::hit_permille(store),
        );
        let disk = self
            .manager()
            .store()
            .expect("configured with a store")
            .disk_stats();
        let disk = disk.map_err(|e| format!("disk_stats: {e}"))?;
        out.insert(
            "store.dedup_ratio_milli".into(),
            storeops::stat(&disk, "dedup_ratio_milli"),
        );
        out.insert("store.blocks".into(), storeops::stat(&disk, "blocks"));

        // Encode and decode of one session's messages, in memory.
        let (pair, _) = self.plan[0];
        let pair = &self.pairs[pair];
        let requests = [
            Request::Open {
                workload: pair.workload.into(),
                seed: pair.seed,
            },
            Request::IngestBlocks {
                session: 1,
                chunk: pair.djvb.clone(),
                done: true,
            },
            Request::Replay { session: 1 },
            Request::SeekLogical {
                session: 1,
                logical: pair.end_logical,
            },
            Request::Close { session: 1 },
        ];
        let responses = [
            Response::Opened { session: 1 },
            Response::Ingested {
                session: 1,
                bytes: pair.djvb.len() as u64,
            },
            Response::Replayed {
                session: 1,
                fingerprint: pair.fingerprint,
                state_digest: pair.state_digest,
                clean: true,
            },
            Response::Sought {
                session: 1,
                target_logical: 1,
                final_step: 1,
                final_logical: 1,
                steps_replayed: 1,
            },
            Response::Closed { session: 1 },
        ];
        let rounds = if ctx.quick { 20 } else { 2000 };
        let t = Instant::now();
        for _ in 0..rounds {
            for req in &requests {
                std::hint::black_box(Request::decode(&req.encode()).map_err(|e| e.to_string())?);
            }
            for resp in &responses {
                std::hint::black_box(Response::decode(&resp.encode()).map_err(|e| e.to_string())?);
            }
        }
        let messages = (rounds * (requests.len() + responses.len())) as f64;
        out.insert(
            "fleet.rpc.codec.ns_per_msg".into(),
            t.elapsed().as_secs_f64() * 1e9 / messages,
        );
        Ok(())
    }

    /// One round of the plan through `SessionManager::dispatch`, no TCP:
    /// seconds per session.
    fn in_process(&self, ctx: &Ctx) -> Result<Vec<f64>, String> {
        let manager = self.manager();
        let mut direct = |req: &Request| Ok(manager.dispatch(req.clone()));
        let mut unlogged = Recorder::new(Instant::now(), 0);
        (0..self.plan.len() as u64)
            .map(|j| {
                let t = Instant::now();
                self.job(
                    ctx,
                    &mut unlogged,
                    &mut direct,
                    &mut ClientSums::default(),
                    j,
                )?;
                Ok(t.elapsed().as_secs_f64())
            })
            .collect()
    }

    /// One hosted session of the workload kept out of the mix.
    fn heavy_session(&self, out: &mut Values) -> Result<(), String> {
        let mut client = connect(&self.addr)?;
        let mut call = over(&mut client);
        let mut ask = |req| match call(&req)? {
            Response::Error { message, .. } => Err(format!("heavy session: {message}")),
            other => Ok(other),
        };
        let Response::Opened { session } = ask(Request::Open {
            workload: HEAVY.into(),
            seed: 1,
        })?
        else {
            return Err("heavy session: open".into());
        };
        ask(Request::Record { session })?;
        let t = Instant::now();
        let replayed = ask(Request::Replay { session })?;
        let took = t.elapsed();
        let Response::Replayed { clean: true, .. } = replayed else {
            return Err("heavy session: replay not clean".into());
        };
        ask(Request::Close { session })?;
        out.insert("fleet.heavy_session.replay_s".into(), took.as_secs_f64());
        metrics::set(out, "fleet.heavy_session.rss_mib", window::peak_rss_mib());
        Ok(())
    }
}

impl Drop for FleetMix {
    /// Stop the server through the `Shutdown` token path and wait for
    /// every thread of it.
    fn drop(&mut self) {
        let Some(server) = self.server.take() else {
            return;
        };
        let accepted = connect(&self.addr)
            .and_then(|mut c| c.shutdown(&self.token).map_err(|e| e.to_string()));
        if !matches!(accepted, Ok(true)) {
            eprintln!("fleet_mix: Shutdown RPC not accepted ({accepted:?}); stopping in process");
            server.trigger_shutdown();
        }
        server.join();
    }
}
