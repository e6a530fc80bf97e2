//! One run of one workload, the unit the driver starts: set up (three
//! times over, for a median), measure for `--seconds`, check, report.

use crate::corpus::Corpus;
use crate::fleetmix::FleetMix;
use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::pipeline::Pipeline;
use crate::spans;
use crate::window::{self, Ctx};
use crate::{guests, Outcome};
use codec::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seconds one run measures unless told otherwise; `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: u64 = 18;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `benchmark/out/`, where every file a run writes goes.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The full report of one run, as written to `<out>/result.json`.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub quick: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer of a traced one.
    pub metrics: Values,
    /// Self time per span name, per traced job.
    pub self_s_per_job: Values,
}

/// Empty `dir`, creating it if need be.
fn clear(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Set up `SETUPS` times, keep the last, and measure it. The first
/// set-up is timed from process start.
fn drive<S>(
    ctx: &Ctx,
    started: Instant,
    setup: impl Fn() -> Result<S, String>,
    measure: impl FnOnce(S) -> Result<Outcome, String>,
) -> Result<(f64, Outcome), String> {
    let mut times = Vec::new();
    let mut state = None;
    for i in 0..SETUPS {
        // Tearing the last set-up down and clearing its scratch is not
        // part of setting up.
        drop(state.take());
        clear(&ctx.out)?;
        let t0 = if i == 0 { started } else { Instant::now() };
        state = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let outcome = measure(state.expect("SETUPS > 0"))?;
    Ok((metrics::median(&times).expect("SETUPS > 0"), outcome))
}

pub fn run(ctx: &Ctx, started: Instant) -> Result<Report, String> {
    let (setup_s, outcome) = match ctx.workload {
        metrics::COMPUTE_HOT => drive(
            ctx,
            started,
            || Pipeline::setup(ctx, guests::compute_hot(ctx.quick)),
            |p| p.measure(ctx),
        ),
        metrics::EVENT_DENSE => drive(
            ctx,
            started,
            || Pipeline::setup(ctx, guests::event_dense(ctx.quick)),
            |p| p.measure(ctx),
        ),
        metrics::STORE_CORPUS => drive(ctx, started, || Corpus::setup(ctx), |c| c.measure(ctx)),
        metrics::FLEET_MIX => drive(ctx, started, || FleetMix::setup(ctx), |f| f.measure(ctx)),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    let Outcome {
        log,
        mut e2e,
        mut layer,
        spans,
    } = outcome;
    // Drop the stores now: files deleted before the kernel writes them
    // back cost the next run no I/O.
    clear(&ctx.out)?;

    let mut self_s_per_job = Values::new();
    let metrics = if ctx.trace {
        // Layer costs must sum to the total: what a job spent outside
        // every span it made is the harness's own.
        let own = spans::self_by_name(&spans);
        let jobs = spans::durations(&spans, spans::JOB);
        let job_self = own.get(spans::JOB).copied().unwrap_or(0.0);
        layer.insert(
            "bench.job.residual_permille".into(),
            job_self * 1000.0 / jobs.iter().sum::<f64>().max(f64::MIN_POSITIVE),
        );
        metrics::set(
            &mut layer,
            "bench.trace_overhead_permille",
            log.trace_overhead_permille(),
        );
        for (name, secs) in own {
            self_s_per_job.insert(name.into(), secs / jobs.len().max(1) as f64);
        }
        let trace_file = ctx.trace_file();
        std::fs::write(&trace_file, spans::chrome_trace(&spans).to_string())
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        layer
    } else {
        log.end_to_end(&mut e2e);
        e2e.insert("setup_s".into(), setup_s);
        metrics::set(&mut e2e, "peak_rss_mib", window::peak_rss_mib());
        // Only what the table says this workload has (`peak_rss_mib` is
        // not reproducible with two connections).
        e2e.retain(|name, _| {
            END_TO_END
                .iter()
                .any(|m| m.name == name && m.applies(ctx.workload))
        });
        e2e
    };
    Ok(Report {
        workload: ctx.workload,
        seed: ctx.seed,
        trace: ctx.trace,
        quick: ctx.quick,
        attempted: log.attempted,
        failed: log.failed,
        metrics,
        self_s_per_job,
    })
}

fn values_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v)))
            .collect(),
    )
}

impl Report {
    /// Unit of a metric this report may carry.
    fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|m| m.0 == name)
            .map_or("", |m| m.1)
    }

    /// The names the driver expects from this kind of run: the metrics of
    /// `BENCHMARK.json`, every one of them on every workload.
    fn contract_names(&self) -> Vec<&'static str> {
        if self.trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.universal())
                .map(|m| m.name)
                .collect()
        }
    }

    /// The one-line result of the driver's contract. A per-layer metric
    /// this workload has no phase for reads 0.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .contract_names()
            .into_iter()
            .map(|name| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let cell = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(Self::unit(name).into())),
                ]);
                (name.to_string(), cell)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// Every metric by name, with its unit, one a line.
    pub fn print(&self) {
        for (name, value) in &self.metrics {
            println!(
                "{:<14} {:<40} {:>16.6} {}",
                self.workload,
                name,
                value,
                Self::unit(name)
            );
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::UInt(self.seed)),
            ("trace", Json::Bool(self.trace)),
            ("quick", Json::Bool(self.quick)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", values_json(&self.metrics)),
            ("self_s_per_job", values_json(&self.self_s_per_job)),
        ])
    }
}
