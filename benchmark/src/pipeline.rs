//! `compute_hot` and `event_dense`: one job takes each of its guests
//! through the whole local path — record, encode to DJVB, put into the
//! store, open, replay and verify, open again for a time-travel session,
//! run it to the end and seek four times.
//!
//! The two differ only in the guests. `compute_hot` runs ~200 steps per
//! logged event, so `djvm` dispatch and fingerprinting do the record and
//! replay halves; `event_dense` logs an event every ~20 steps, so the
//! `dejavu` hooks, the compressors and the store do. A job of
//! `event_dense` runs both of its guests, because alternating them would
//! put the job median in the gap between two modes.

use crate::guests::Guest;
use crate::metrics::{self, Values};
use crate::probe;
use crate::spans::{self, Recorder};
use crate::storeops;
use crate::window::{Ctx, Deadline, JobLog};
use crate::Outcome;
use baselines::TimeTravel;
use dejavu::{
    encode_trace, record_run, replay_run, ExecSpec, SymmetryConfig, TraceFormat,
    DEFAULT_BLOCK_BUDGET,
};
use djvm::rng::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::Store;

const ROUND_JOBS: u32 = 50;
const ROUND_JOBS_QUICK: u32 = 6;
const MIN_JOBS: u64 = 100;
const WARMUP_JOBS: usize = 5;
const SEEKS: usize = 4;

pub struct Pipeline {
    guests: Vec<Guest>,
    /// Guest seed of each job of a round; every round replays the same
    /// jobs against a fresh store.
    seeds: Vec<u64>,
}

/// Sums over the successful jobs of the window.
#[derive(Default)]
struct Phases {
    steps: u64,
    events: u64,
    uploaded: u64,
    record: Duration,
    replay: Duration,
    forward: Duration,
    /// (seconds, steps replayed) of each seek.
    seeks: Vec<(f64, u64)>,
    checkpoints: u64,
    storage_bytes: u64,
}

impl Phases {
    fn add(&mut self, other: Phases) {
        self.steps += other.steps;
        self.events += other.events;
        self.uploaded += other.uploaded;
        self.record += other.record;
        self.replay += other.replay;
        self.forward += other.forward;
        self.seeks.extend(other.seeks);
        self.checkpoints += other.checkpoints;
        self.storage_bytes += other.storage_bytes;
    }
}

/// A VM booted the way `dejavu::replay_run` boots one.
pub fn replay_vm(spec: &ExecSpec) -> djvm::Vm {
    djvm::Vm::boot(
        Arc::clone(&spec.program),
        spec.vm.clone(),
        Box::new(djvm::JitteredTimer::new(
            spec.seed,
            spec.timer_base,
            spec.timer_jitter,
        )),
        Box::new(djvm::CycleClock::new(spec.clock_origin, spec.cycles_per_ms)),
    )
    .expect("a registry guest boots")
}

/// One guest through the whole path. Any disagreement between record and
/// replay, and any typed error, fails the job.
fn pipeline(
    rec: &mut Recorder,
    store: &Store,
    guest: &Guest,
    seed: u64,
    targets: &mut SplitMix64,
    ph: &mut Phases,
) -> Result<(), String> {
    let spec = guest.spec(seed);
    let full = SymmetryConfig::full();
    let ((recorded, trace), t_record) = rec.time("dejavu.record_run", |_| {
        record_run(&spec, guest.workload.natives, full, true)
    });
    let stats = trace.stats();
    let (bytes, t_encode) = rec.time("dejavu.encode_trace", |_| {
        encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET)
    });
    let (put, t_put) = rec.time("store.put_new", |_| {
        store.put_bytes(guest.workload.name, seed, &bytes, recorded.fingerprint, "")
    });
    let put = put.map_err(|e| format!("put_bytes: {e}"))?;
    if !put.new_entry || put.fingerprint != recorded.fingerprint {
        return Err(format!("put_bytes: unexpected outcome {put:?}"));
    }

    let (stored, t_open) = storeops::open(rec, store, &put.entry);
    let stored = stored.map_err(|e| format!("open_trace: {e}"))?;
    let ((replayed, desyncs), t_replay) = rec.time("dejavu.replay_run", |_| {
        replay_run(&spec, stored.trace, full)
    });
    if !recorded.matches(&replayed) || !desyncs.is_empty() {
        return Err(format!(
            "replay diverged: fingerprint {:#x} vs {:#x}, {} desyncs",
            recorded.fingerprint,
            replayed.fingerprint,
            desyncs.len()
        ));
    }

    // A debugging session on the same run: block-boundary checkpoints
    // only, forward to the end, then seeded seeks in both directions.
    let (stored, _) = storeops::open(rec, store, &put.entry);
    let stored = stored.map_err(|e| format!("open_trace: {e}"))?;
    let (mut tt, t_forward) = rec.time("timetravel.forward", |rec| {
        let (vm, _) = rec.time("djvm.boot", |_| replay_vm(&spec));
        let mut tt = TimeTravel::new_indexed(vm, stored.trace, full, u64::MAX, stored.boundaries);
        tt.seek_logical(u64::MAX);
        tt
    });
    if tt.vm().fingerprint.digest() != recorded.fingerprint || !tt.desyncs().is_empty() {
        return Err("time-travel replay diverged".into());
    }
    ph.checkpoints += tt.checkpoints.len() as u64;
    ph.storage_bytes += tt.storage_bytes() as u64;
    let end = tt.logical_time();
    for _ in 0..SEEKS {
        let target = targets.gen_range_u64(0, end);
        let (seek, took) = rec.time("timetravel.seek", |_| tt.seek_logical(target));
        if seek.final_logical != target || !tt.desyncs().is_empty() {
            return Err(format!("seek to {target} landed at {}", seek.final_logical));
        }
        ph.seeks.push((took.as_secs_f64(), seek.steps_replayed));
    }
    rec.time("timetravel.drop", |_| drop(tt));

    ph.steps += recorded.counters.steps;
    ph.events += (stats.switch_count + stats.clock_count + stats.native_count) as u64;
    ph.uploaded += bytes.len() as u64;
    ph.record += t_record + t_encode + t_put;
    ph.replay += t_open + t_replay;
    ph.forward += t_forward;
    Ok(())
}

impl Pipeline {
    pub fn setup(ctx: &Ctx, guests: Vec<Guest>) -> Result<Self, String> {
        let jobs = if ctx.quick {
            ROUND_JOBS_QUICK
        } else {
            ROUND_JOBS
        };
        let mut rng = SplitMix64::new(ctx.stream(1));
        let this = Pipeline {
            guests,
            seeds: (0..jobs).map(|_| rng.next_u64() >> 1).collect(),
        };
        // Warm-up, charged to set-up: page in the code, grow the heap.
        let store = storeops::fresh(&ctx.out.join("warmup"))?;
        let mut rec = Recorder::new(Instant::now(), 0);
        let mut targets = SplitMix64::new(ctx.stream(2));
        for seed in &this.seeds[..WARMUP_JOBS] {
            // Seeds no measured job uses, so the window starts cold.
            this.job(
                &mut rec,
                &store,
                !seed,
                &mut targets,
                &mut Phases::default(),
            )?;
        }
        Ok(this)
    }

    fn job(
        &self,
        rec: &mut Recorder,
        store: &Store,
        seed: u64,
        targets: &mut SplitMix64,
        ph: &mut Phases,
    ) -> Result<(), String> {
        self.guests
            .iter()
            .try_for_each(|g| pipeline(rec, store, g, seed, targets, ph))
    }

    pub fn measure(self, ctx: &Ctx) -> Result<Outcome, String> {
        let mut rec = Recorder::new(Instant::now(), 0);
        let mut log = JobLog::default();
        let mut total = Phases::default();
        let mut exact = Values::new();
        let round_jobs = self.seeds.len() as u64;
        let deadline = Deadline::open(ctx, if ctx.quick { round_jobs } else { MIN_JOBS });
        for round in 0.. {
            if !deadline.more(log.attempted) {
                break;
            }
            let store = storeops::fresh(&ctx.out.join(format!("store-{round}")))?;
            let mut targets = SplitMix64::new(ctx.stream(3));
            let mut in_round = Phases::default();
            let opened = Instant::now();
            for &seed in &self.seeds {
                if !deadline.more(log.attempted) {
                    break;
                }
                let mut ph = Phases::default();
                let ok = log.job(ctx, &mut rec, log.attempted as u32, |rec| {
                    self.job(rec, &store, seed, &mut targets, &mut ph)
                });
                if ok {
                    in_round.add(ph);
                }
            }
            log.window += opened.elapsed();
            if round == 0 {
                // Counts of the fixed first round repeat exactly; later
                // rounds run as many jobs as the clock allows.
                storeops::snapshot(&store, in_round.uploaded, in_round.events, &mut exact)?;
                let steps: Vec<f64> = in_round.seeks.iter().map(|s| s.1 as f64).collect();
                let jobs = round_jobs as f64;
                metrics::set(
                    &mut exact,
                    "timetravel.seek.steps_replayed_p50",
                    metrics::median(&steps),
                );
                exact.insert(
                    "timetravel.checkpoints".into(),
                    in_round.checkpoints as f64 / jobs,
                );
                exact.insert(
                    "timetravel.storage_mib".into(),
                    in_round.storage_bytes as f64 / jobs / (1u64 << 20) as f64,
                );
            }
            total.add(in_round);
        }

        let mut e2e = Values::new();
        let seek_s: Vec<f64> = total.seeks.iter().map(|s| s.0).collect();
        e2e.insert(
            "record_steps_per_s".into(),
            total.steps as f64 / total.record.as_secs_f64(),
        );
        e2e.insert(
            "replay_steps_per_s".into(),
            total.steps as f64 / total.replay.as_secs_f64(),
        );
        metrics::set(&mut e2e, "seek_p50_s", metrics::median(&seek_s));
        e2e.extend(exact.remove_entry("stored_bytes_per_event"));

        let mut layer = Values::new();
        let spans = rec.into_spans();
        if ctx.trace {
            layer = exact;
            for span in [
                "dejavu.record_run",
                "dejavu.replay_run",
                "dejavu.encode_trace",
                "store.put_new",
                "store.open_hit",
                "store.open_miss",
            ] {
                let p50 = metrics::median(&spans::per_job(&spans, span));
                metrics::set(&mut layer, format!("{span}.p50_s"), p50);
            }
            let seek_steps: f64 = total.seeks.iter().map(|s| s.1 as f64).sum();
            layer.insert(
                "timetravel.forward.steps_per_s".into(),
                total.steps as f64 / total.forward.as_secs_f64(),
            );
            metrics::set(
                &mut layer,
                "timetravel.seek.p90_s",
                metrics::quantile(&seek_s, 0.9),
            );
            layer.insert(
                "timetravel.seek.ns_per_step".into(),
                seek_s.iter().sum::<f64>() * 1e9 / seek_steps.max(1.0),
            );
            let p50 = |span| metrics::median(&spans::per_job(&spans, span));
            if let (Some(forward), Some(replay)) =
                (p50("timetravel.forward"), p50("dejavu.replay_run"))
            {
                layer.insert("timetravel.forward_over_replay_x".into(), forward / replay);
            }
            let inputs: Vec<_> = self.guests.iter().map(|g| (g, self.seeds[0])).collect();
            probe::run(&inputs, &mut layer)?;
        }
        Ok(Outcome {
            log,
            e2e,
            layer,
            spans,
        })
    }
}
