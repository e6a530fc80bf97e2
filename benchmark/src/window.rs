//! What one `run` invocation is given, and the log of its measured
//! window: which jobs ran, how long each took, which failed.

use crate::metrics::{self, Values};
use crate::spans::{Recorder, JOB};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Every seventh job of a traced run is an untraced control, so tracing
/// overhead is measured inside the one process the driver starts. Seven
/// shares no factor with a round's length or with `store_corpus`'s
/// maintenance interval, so no kind of job is always the control.
const CONTROL_EVERY: u32 = 7;

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes and one fixed round, for tests: counts repeat
    /// exactly, timings are not comparable.
    pub quick: bool,
    /// Scratch directory of this run, under `benchmark/out/`.
    pub out: PathBuf,
}

impl Ctx {
    /// Where a traced run writes its Chrome trace: beside `out`, so the
    /// command line's lands at `benchmark/out/TRACE_<workload>.json`.
    pub fn trace_file(&self) -> PathBuf {
        self.out
            .with_file_name(format!("TRACE_{}.json", self.workload))
    }

    /// Derive an independent stream seed from the run seed.
    pub fn stream(&self, salt: u64) -> u64 {
        djvm::rng::SplitMix64::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }
}

#[derive(Default)]
pub struct JobLog {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every successful job, in seconds, and whether its
    /// spans were logged.
    pub latencies: Vec<(f64, bool)>,
    /// Wall time of the measured window (round set-up excluded).
    pub window: Duration,
}

impl JobLog {
    /// Run one job under a `job` span and book its outcome; true when it
    /// succeeded. A failed job is counted and gets no latency.
    pub fn job(
        &mut self,
        ctx: &Ctx,
        rec: &mut Recorder,
        index: u32,
        body: impl FnOnce(&mut Recorder) -> Result<(), String>,
    ) -> bool {
        let logging = ctx.trace && index % CONTROL_EVERY != CONTROL_EVERY - 1;
        rec.start_job(index, logging);
        let (outcome, took) = rec.time(JOB, body);
        self.attempted += 1;
        match outcome {
            Ok(()) => self.latencies.push((took.as_secs_f64(), logging)),
            Err(why) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("{}: job {index} failed: {why}", ctx.workload);
                }
                return false;
            }
        }
        true
    }

    pub fn absorb(&mut self, other: JobLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies.extend(other.latencies);
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// The end-to-end metrics every workload has, setup and memory aside.
    pub fn end_to_end(&self, out: &mut Values) {
        let all: Vec<f64> = self.latencies.iter().map(|&(s, _)| s).collect();
        out.insert(
            "jobs_per_s".into(),
            self.succeeded() as f64 / self.window.as_secs_f64(),
        );
        metrics::set(out, "job_p50_s", metrics::median(&all));
        metrics::set(out, "job_p90_s", metrics::quantile(&all, 0.9));
        out.insert(
            "failed_ppm".into(),
            self.failed as f64 * 1e6 / self.attempted.max(1) as f64,
        );
    }

    /// (traced − control) / control job median, per thousand.
    pub fn trace_overhead_permille(&self) -> Option<f64> {
        let pick = |logged: bool| {
            let v: Vec<f64> = self
                .latencies
                .iter()
                .filter(|l| l.1 == logged)
                .map(|l| l.0)
                .collect();
            metrics::median(&v)
        };
        let (traced, control) = (pick(true)?, pick(false)?);
        Some((traced - control) / control * 1000.0)
    }
}

/// When the measured window ends: after `min_jobs`, once `seconds` have
/// passed since the window opened.
pub struct Deadline {
    opened: Instant,
    seconds: f64,
    min_jobs: u64,
}

impl Deadline {
    pub fn open(ctx: &Ctx, min_jobs: u64) -> Self {
        Deadline {
            opened: Instant::now(),
            seconds: if ctx.quick { 0.0 } else { ctx.seconds },
            min_jobs,
        }
    }

    pub fn more(&self, attempted: u64) -> bool {
        attempted < self.min_jobs || self.opened.elapsed().as_secs_f64() < self.seconds
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
