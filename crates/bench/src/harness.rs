//! A tiny `std::time::Instant` bench harness (the criterion replacement).
//!
//! Hermetic-build discipline: the platform owns its measurement machinery.
//! Each bench target builds a [`Group`], registers closures, and calls
//! [`Group::finish`], which prints one human line per bench and emits a
//! `BENCH_<group>.json` file so the perf trajectory is machine-readable.
//!
//! Environment knobs:
//!
//! * `BENCH_SMOKE=1` — one warmup-free iteration per bench (the CI smoke
//!   run in `scripts/verify.sh`),
//! * `BENCH_SAMPLES=<n>` — override the per-bench sample count,
//! * `BENCH_DIR=<path>` — where to write `BENCH_<group>.json`
//!   (default: current directory).

use std::time::{Duration, Instant};

/// Re-export of the optimizer barrier benches wrap their outputs in.
pub use std::hint::black_box;

/// Timing summary of one registered bench.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub samples: u64,
    /// Sum of all measured samples (ns) — the cross-machine-comparable
    /// total cost of the measurement phase.
    pub total_ns: u64,
    pub mean_ns: u64,
    pub median_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Work units (e.g. interpreter steps) one iteration performs;
    /// 0 when the bench declared no hint.
    pub work_units: u64,
    /// Derived units/second from the median sample; 0 when no
    /// `work_units` hint was given.
    pub throughput: u64,
}

/// A named group of benches sharing sampling configuration.
pub struct Group {
    name: String,
    sample_size: u64,
    warm_up: Duration,
    smoke: bool,
    results: Vec<BenchResult>,
    telemetry: Vec<(String, codec::Json)>,
    meta: Vec<(String, codec::Json)>,
}

impl Group {
    pub fn new(name: &str) -> Self {
        let smoke = std::env::var("BENCH_SMOKE").map_or(false, |v| v != "0");
        let sample_size = std::env::var("BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        Self {
            name: name.to_string(),
            sample_size,
            warm_up: Duration::from_millis(300),
            smoke,
            results: Vec::new(),
            telemetry: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Attach a group-level metadata key embedded in `BENCH_<group>.json`
    /// as a `"meta"` object (canonical, sorted keys) — derived figures a
    /// timing row cannot carry, like a fleet run's p99 request latency or
    /// a fingerprint-equality verdict. Last write per key wins.
    pub fn meta(&mut self, key: &str, value: codec::Json) -> &mut Self {
        self.meta.retain(|(k, _)| k != key);
        self.meta.push((key.to_string(), value));
        self
    }

    /// Median of an already-measured row, for derived `meta` figures
    /// (e.g. a tier-over-tier speedup ratio).
    pub fn median_ns(&self, name: &str) -> Option<u64> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    }

    pub fn sample_size(&mut self, n: u64) -> &mut Self {
        if std::env::var("BENCH_SAMPLES").is_err() {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Measure `f`: warm up for the configured duration, then time
    /// `sample_size` individual calls. In smoke mode: one call, no warmup.
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) -> &mut Self {
        self.bench_units(name, 0, f)
    }

    /// Like [`Group::bench`], with a `work_units` hint: the number of
    /// work units (e.g. interpreter steps) one call of `f` performs.
    /// The result then carries a derived `throughput` in units/second,
    /// comparable across machines in a way raw nanoseconds are not.
    pub fn bench_units<F: FnMut()>(&mut self, name: &str, work_units: u64, mut f: F) -> &mut Self {
        // `.max(1)` guards the mean/median divisions below against a
        // BENCH_SAMPLES=0 override.
        let samples = if self.smoke {
            1
        } else {
            self.sample_size.max(1)
        };
        if !self.smoke {
            let start = Instant::now();
            while start.elapsed() < self.warm_up {
                f();
            }
        }
        let mut times: Vec<u64> = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let t0 = Instant::now();
            f();
            times.push(t0.elapsed().as_nanos() as u64);
        }
        times.sort_unstable();
        let median_ns = times[times.len() / 2];
        let throughput = if work_units == 0 {
            0
        } else {
            // units/sec from the median sample; never divide by zero
            // even for sub-nanosecond (clock-granularity) samples.
            (work_units as u128 * 1_000_000_000 / median_ns.max(1) as u128) as u64
        };
        let result = BenchResult {
            name: name.to_string(),
            samples,
            total_ns: times.iter().sum::<u64>(),
            mean_ns: times.iter().sum::<u64>() / samples,
            median_ns,
            min_ns: times[0],
            max_ns: times[times.len() - 1],
            work_units,
            throughput,
        };
        print!(
            "{}/{}: median {} (mean {}, min {}, max {}, n={})",
            self.name,
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.mean_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.max_ns),
            result.samples,
        );
        if throughput > 0 {
            print!(" [{throughput} units/s]");
        }
        println!();
        self.results.push(result);
        self
    }

    /// The JSON document `finish` writes (one line).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"group\":\"{}\",\"results\":[", self.name);
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"samples\":{},\"total_ns\":{},\"mean_ns\":{},\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"work_units\":{},\"throughput\":{}}}",
                r.name.replace('"', "'"),
                r.samples,
                r.total_ns,
                r.mean_ns,
                r.median_ns,
                r.min_ns,
                r.max_ns,
                r.work_units,
                r.throughput,
            ));
        }
        out.push(']');
        if !self.meta.is_empty() {
            let mut doc = codec::Json::Obj(self.meta.clone());
            doc.canonicalize();
            out.push_str(&format!(",\"meta\":{doc}"));
        }
        out.push('}');
        out
    }

    /// Attach a named telemetry document (e.g. from
    /// `dejavu::run_metrics_json`) to this group; `finish` writes them all
    /// as one canonical `TELEMETRY_<group>.json` next to the timing file.
    pub fn attach_telemetry(&mut self, name: &str, doc: codec::Json) -> &mut Self {
        self.telemetry.push((name.to_string(), doc));
        self
    }

    /// The canonical telemetry document (`None` if nothing was attached).
    pub fn telemetry_json(&self) -> Option<codec::Json> {
        if self.telemetry.is_empty() {
            return None;
        }
        let runs = codec::Json::Obj(self.telemetry.clone());
        let mut doc = codec::Json::obj(vec![
            ("group", codec::Json::Str(self.name.clone())),
            ("runs", runs),
        ]);
        doc.canonicalize();
        Some(doc)
    }

    /// Print the JSON summary and write `BENCH_<group>.json` (plus
    /// `TELEMETRY_<group>.json` when telemetry was attached).
    pub fn finish(&self) {
        let json = self.to_json();
        println!("{json}");
        let dir = std::env::var("BENCH_DIR").unwrap_or_else(|_| ".".into());
        let _ = std::fs::create_dir_all(&dir);
        let path = format!("{dir}/BENCH_{}.json", self.name);
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("warning: could not write {path}: {e}");
        }
        if let Some(doc) = self.telemetry_json() {
            let tpath = format!("{dir}/TELEMETRY_{}.json", self.name);
            if let Err(e) = std::fs::write(&tpath, format!("{doc}\n")) {
                eprintln!("warning: could not write {tpath}: {e}");
            }
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_group_measures_and_serializes() {
        // Force deterministic single-sample behaviour regardless of env.
        let mut g = Group {
            name: "unit".into(),
            sample_size: 3,
            warm_up: Duration::ZERO,
            smoke: false,
            results: Vec::new(),
            telemetry: Vec::new(),
            meta: Vec::new(),
        };
        let mut n = 0u64;
        g.bench("count", || {
            n = black_box(n + 1);
        });
        assert_eq!(g.results.len(), 1);
        let r = &g.results[0];
        assert_eq!(r.samples, 3);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        let json = g.to_json();
        assert!(json.starts_with("{\"group\":\"unit\""));
        assert!(json.contains("\"name\":\"count\""));
        // The emitted document is valid JSON by our own parser.
        assert!(codec::Json::parse(&json).is_ok());
        // No telemetry attached → no telemetry doc.
        assert!(g.telemetry_json().is_none());
        // Attached telemetry serializes canonically (sorted keys).
        g.attach_telemetry(
            "run",
            codec::Json::obj(vec![
                ("b", codec::Json::UInt(2)),
                ("a", codec::Json::UInt(1)),
            ]),
        );
        let doc = g.telemetry_json().unwrap();
        let s = doc.to_string();
        assert_eq!(s, doc.to_canonical_string(), "already canonical");
        assert!(s.contains(r#""runs":{"run":{"a":1,"b":2}}"#), "{s}");
    }

    #[test]
    fn work_units_yield_throughput_and_total() {
        let mut g = Group {
            name: "unit".into(),
            sample_size: 2,
            warm_up: Duration::ZERO,
            smoke: false,
            results: Vec::new(),
            telemetry: Vec::new(),
            meta: Vec::new(),
        };
        g.bench_units("spin", 1_000, || {
            std::thread::sleep(Duration::from_micros(50));
        });
        let r = &g.results[0];
        assert!(r.throughput > 0, "work_units hint must derive throughput");
        assert_eq!(r.work_units, 1_000);
        assert!(r.total_ns >= r.max_ns, "total covers all samples");
        let json = g.to_json();
        assert!(json.contains("\"throughput\":"), "{json}");
        assert!(json.contains("\"total_ns\":"), "{json}");
        assert!(codec::Json::parse(&json).is_ok());
        // Benches without a hint report 0 throughput, not a division.
        g.bench("nohint", || {});
        assert_eq!(g.results[1].throughput, 0);
    }

    #[test]
    fn meta_embeds_canonically_in_the_bench_document() {
        let mut g = Group {
            name: "unit".into(),
            sample_size: 1,
            warm_up: Duration::ZERO,
            smoke: false,
            results: Vec::new(),
            telemetry: Vec::new(),
            meta: Vec::new(),
        };
        g.bench("noop", || {});
        g.meta("p99_request_ns", codec::Json::UInt(123));
        g.meta("fingerprints_match", codec::Json::Bool(true));
        g.meta("p99_request_ns", codec::Json::UInt(456)); // last write wins
        let json = g.to_json();
        let doc = codec::Json::parse(&json).expect("valid json");
        let meta = doc.field("meta").expect("meta object");
        assert_eq!(meta.get("p99_request_ns").unwrap().as_u64().unwrap(), 456);
        assert!(meta.get("fingerprints_match").unwrap().as_bool().unwrap());
        // Canonical: keys sorted regardless of insertion order.
        assert!(
            json.contains(r#""meta":{"fingerprints_match":true,"p99_request_ns":456}"#),
            "{json}"
        );
    }

    #[test]
    fn zero_sample_override_is_guarded() {
        let mut g = Group {
            name: "unit".into(),
            sample_size: 0, // as if BENCH_SAMPLES=0
            warm_up: Duration::ZERO,
            smoke: false,
            results: Vec::new(),
            telemetry: Vec::new(),
            meta: Vec::new(),
        };
        g.bench("never_zero", || {});
        assert_eq!(g.results[0].samples, 1);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
