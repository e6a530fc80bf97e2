//! The metric tables: every number the benchmark reports, with its unit,
//! its direction, and for the end-to-end ones the regression bound and
//! the workloads it applies to. `BENCHMARK.json` repeats the rows that
//! every workload has (a test keeps the two in step); `compare` gates on
//! the whole end-to-end table.

use std::collections::BTreeMap;

pub const COMPUTE_HOT: &str = "compute_hot";
pub const EVENT_DENSE: &str = "event_dense";
pub const STORE_CORPUS: &str = "store_corpus";
pub const FLEET_MIX: &str = "fleet_mix";
pub const WORKLOADS: [&str; 4] = [COMPUTE_HOT, EVENT_DENSE, STORE_CORPUS, FLEET_MIX];

/// Metric name → measured value.
pub type Values = BTreeMap<String, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric is a deterministic count that must repeat bit for
/// bit under the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exact {
    No,
    Always,
    /// Exact only where one client drives the system: `fleet_mix` runs
    /// two connections against shared counters.
    SingleClient,
}

impl Exact {
    pub fn on(self, workload: &str) -> bool {
        match self {
            Exact::No => false,
            Exact::Always => true,
            Exact::SingleClient => workload != FLEET_MIX,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse.
    pub bound: f64,
    /// Absolute worsening always allowed, in the metric's unit.
    pub slack: f64,
    pub exact: Exact,
    /// Workloads that have this phase.
    pub workloads: &'static [&'static str],
}

impl EndToEnd {
    pub fn applies(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }

    /// Reported by every workload and never zero: the rows
    /// `BENCHMARK.json` can carry.
    pub fn universal(&self) -> bool {
        self.workloads.len() == WORKLOADS.len() && self.name != "failed_ppm"
    }
}

const PIPELINES: &[&str] = &[COMPUTE_HOT, EVENT_DENSE];
const SEEKING: &[&str] = &[COMPUTE_HOT, EVENT_DENSE, FLEET_MIX];
const LOCAL: &[&str] = &[COMPUTE_HOT, EVENT_DENSE, STORE_CORPUS];
const CORPUS: &[&str] = &[STORE_CORPUS];

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, slack: 0.1, exact: Exact::No, workloads: &WORKLOADS },
    EndToEnd { name: "jobs_per_s", unit: "1/s", better: Higher, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: &WORKLOADS },
    EndToEnd { name: "job_p50_s", unit: "s", better: Lower, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: &WORKLOADS },
    EndToEnd { name: "job_p90_s", unit: "s", better: Lower, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: LOCAL },
    EndToEnd { name: "record_steps_per_s", unit: "steps/s", better: Higher, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: PIPELINES },
    EndToEnd { name: "replay_steps_per_s", unit: "steps/s", better: Higher, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: PIPELINES },
    EndToEnd { name: "seek_p50_s", unit: "s", better: Lower, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: SEEKING },
    EndToEnd { name: "ingest_per_s", unit: "1/s", better: Higher, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: CORPUS },
    EndToEnd { name: "serve_per_s", unit: "1/s", better: Higher, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: CORPUS },
    EndToEnd { name: "stored_bytes_per_event", unit: "bytes", better: Lower, bound: 0.0, slack: 0.0, exact: Exact::Always, workloads: LOCAL },
    EndToEnd { name: "failed_ppm", unit: "ppm", better: Lower, bound: 0.0, slack: 0.0, exact: Exact::Always, workloads: &WORKLOADS },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Lower, bound: 0.25, slack: 0.0, exact: Exact::No, workloads: LOCAL },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: Exact,
}

const fn timing(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: Lower,
        exact: Exact::No,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Higher,
        exact: Exact::No,
    }
}

const fn ratio(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "x",
        better,
        exact: Exact::No,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better, exact: Exact) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

/// Per-layer metrics of the traced run, grouped by layer (crate name).
/// A metric a workload has no such phase for reads 0 in the driver's
/// output and is left out of the printed ledger.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    rate("djvm.passthrough.steps_per_s", "steps/s"),
    ratio("djvm.fingerprint.full_over_coarse_x", Lower),
    ratio("djvm.mega_over_quickened_x", Higher),
    ratio("djvm.quickened_over_generic_x", Higher),
    timing("djvm.boot.p50_s"),
    timing("djvm.snapshot.p50_s"),
    count("djvm.snapshot.mib", "MiB", Lower, Exact::No),
    count("djvm.steps", "count", Lower, Exact::Always),
    count("djvm.yield_points", "count", Lower, Exact::Always),
    count("djvm.gc.collections", "count", Lower, Exact::Always),
    timing("dejavu.record_run.p50_s"),
    timing("dejavu.replay_run.p50_s"),
    ratio("dejavu.record_over_passthrough_x", Lower),
    ratio("dejavu.replay_over_passthrough_x", Lower),
    timing("dejavu.encode_trace.p50_s"),
    rate("dejavu.encode.events_per_s", "events/s"),
    timing("dejavu.ingest_bytes.p50_s"),
    rate("dejavu.decode.events_per_s", "events/s"),
    count("dejavu.trace.events", "count", Lower, Exact::Always),
    count("dejavu.trace.djvb_bytes", "bytes", Lower, Exact::Always),
    count("dejavu.trace.blocks", "count", Lower, Exact::Always),
    count("dejavu.trace.bytes_per_event_milli", "mB", Lower, Exact::Always),
    rate("codec.lz77.compress_mb_per_s", "MB/s"),
    rate("codec.lz77.decompress_mb_per_s", "MB/s"),
    rate("codec.range.compress_mb_per_s", "MB/s"),
    rate("codec.range.decompress_mb_per_s", "MB/s"),
    rate("codec.crc32.mb_per_s", "MB/s"),
    rate("codec.digest128.mb_per_s", "MB/s"),
    count("codec.lz77.ratio_permille", "permille", Lower, Exact::Always),
    count("codec.range.ratio_permille", "permille", Lower, Exact::Always),
    timing("store.put_new.p50_s"),
    timing("store.put_dup.p50_s"),
    timing("store.get_bytes.p50_s"),
    timing("store.open_hit.p50_s"),
    timing("store.open_miss.p50_s"),
    timing("store.gc.p50_s"),
    timing("store.compact.p50_s"),
    count("store.cache.hit_permille", "permille", Higher, Exact::SingleClient),
    count("store.write_amp_milli", "milli", Lower, Exact::SingleClient),
    count("store.dedup_ratio_milli", "milli", Higher, Exact::SingleClient),
    count("store.blocks", "count", Lower, Exact::SingleClient),
    count("store.compact.blocks_migrated", "count", Lower, Exact::SingleClient),
    rate("timetravel.forward.steps_per_s", "steps/s"),
    ratio("timetravel.forward_over_replay_x", Lower),
    timing("timetravel.seek.p90_s"),
    count("timetravel.seek.ns_per_step", "ns", Lower, Exact::No),
    count("timetravel.seek.steps_replayed_p50", "count", Lower, Exact::Always),
    count("timetravel.checkpoints", "count", Lower, Exact::Always),
    count("timetravel.storage_mib", "MiB", Lower, Exact::Always),
    timing("fleet.rpc.open.client_p50_s"),
    timing("fleet.rpc.open.server_p50_s"),
    timing("fleet.rpc.open_stored.client_p50_s"),
    timing("fleet.rpc.open_stored.server_p50_s"),
    timing("fleet.rpc.ingest.client_p50_s"),
    timing("fleet.rpc.ingest.server_p50_s"),
    timing("fleet.rpc.record.client_p50_s"),
    timing("fleet.rpc.record.server_p50_s"),
    timing("fleet.rpc.replay.client_p50_s"),
    timing("fleet.rpc.replay.server_p50_s"),
    timing("fleet.rpc.seek.client_p50_s"),
    timing("fleet.rpc.seek.server_p50_s"),
    timing("fleet.rpc.divergence.client_p50_s"),
    timing("fleet.rpc.divergence.server_p50_s"),
    timing("fleet.rpc.close.client_p50_s"),
    timing("fleet.rpc.close.server_p50_s"),
    count("fleet.wire.overhead_permille", "permille", Lower, Exact::No),
    count("fleet.rpc.codec.ns_per_msg", "ns", Lower, Exact::No),
    timing("fleet.inproc.job_p50_s"),
    timing("fleet.session.record.p50_s"),
    timing("fleet.session.ingest.p50_s"),
    timing("fleet.session.stored.p50_s"),
    count("fleet.sessions.peak", "count", Lower, Exact::No),
    count("fleet.peak_rss_mib", "MiB", Lower, Exact::No),
    timing("fleet.job_p90_s"),
    timing("fleet.seek.p90_s"),
    timing("fleet.heavy_session.replay_s"),
    count("fleet.heavy_session.rss_mib", "MiB", Lower, Exact::No),
    count("bench.job.residual_permille", "permille", Lower, Exact::No),
    count("bench.trace_overhead_permille", "permille", Lower, Exact::No),
];

/// Nearest-rank quantile of unsorted samples; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[rank])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Put `name` into `out` when there is a value for it.
pub fn set(out: &mut Values, name: impl Into<String>, value: Option<f64>) {
    if let Some(v) = value {
        out.insert(name.into(), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let ok = |s: &str, extra: &str, max: usize| {
            s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for m in END_TO_END {
            assert!(
                ok(m.name, "_.-", 64) && ok(m.unit, "_/%.-", 16),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                ok(m.name, "_.-", 64) && ok(m.unit, "_/%.-", 16),
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), Some(51.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(median(&[]), None);
    }
}
