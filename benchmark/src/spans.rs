//! Wall-clock spans recorded by the benchmark *around* each call into a
//! layer's public API: name, start, duration, parent span, job id. Kept
//! in memory and written out at exit as Chrome-trace JSON (the format
//! `telemetry::profile` emits for the logical-cycle profile). Spans
//! inside the program are ROADMAP item 6; nothing here touches a crate.

use codec::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Name of the span wrapping one whole job.
pub const JOB: &str = "job";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the crate name.
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<u32>,
    pub job: u32,
    /// Generator thread (one per fleet connection).
    pub tid: u32,
}

/// One generator thread's span log. Every call is timed whether or not
/// it is logged, because the end-to-end phase metrics need the durations
/// with tracing off too.
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    logging: bool,
    job: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Recorder {
            epoch,
            tid,
            logging: false,
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to `job`; `logging` off makes
    /// the job an untraced control.
    pub fn start_job(&mut self, job: u32, logging: bool) {
        self.job = job;
        self.logging = logging;
    }

    /// Time `f` as one span whose name `f` decides (an `open_trace` is a
    /// hit or a miss only once it has returned).
    pub fn span<T>(&mut self, f: impl FnOnce(&mut Self) -> (&'static str, T)) -> (T, Duration) {
        let slot = self.logging.then(|| {
            let idx = self.spans.len() as u32;
            self.spans.push(Span {
                name: "",
                start_ns: 0,
                dur_ns: 0,
                parent: self.open.last().copied(),
                job: self.job,
                tid: self.tid,
            });
            self.open.push(idx);
            idx
        });
        let t0 = Instant::now();
        let (name, value) = f(self);
        let dur = t0.elapsed();
        if let Some(idx) = slot {
            self.open.pop();
            let s = &mut self.spans[idx as usize];
            s.name = name;
            s.start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            s.dur_ns = dur.as_nanos() as u64;
        }
        (value, dur)
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        self.span(|r| (name, f(r)))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread logs, re-basing parent indices.
pub fn merge(logs: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for log in logs {
        let base = all.len() as u32;
        all.extend(log.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus what its direct children
/// cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns);
        }
    }
    own
}

/// Seconds of each span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e9)
        .collect()
}

/// Seconds spent in spans called `name`, summed within each job that has
/// one. A job that runs a layer twice (event_dense runs two guests) then
/// counts once, which keeps the median off the gap between two modes.
pub fn per_job(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_job: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_job.entry(s.job).or_insert(0) += s.dur_ns;
    }
    by_job.values().map(|&ns| ns as f64 / 1e9).collect()
}

/// Total self time per span name, in seconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *by_name.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    by_name
}

/// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span on
/// a microsecond timebase, `cat` = layer, `args` = span id, parent, job.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            Json::obj(vec![
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(layer.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(s.tid as u64)),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::UInt(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("job", Json::UInt(s.job as u64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn nesting_self_time_and_controls() {
        let mut r = Recorder::new(Instant::now(), 3);
        r.start_job(7, true);
        r.time(JOB, |r| {
            r.time("a.x", |_| spin(Duration::from_millis(2)));
            r.span(|_| ("b.y", spin(Duration::from_millis(1))));
        });
        r.start_job(8, false);
        let (_, d) = r.time(JOB, |_| spin(Duration::from_millis(1)));
        assert!(
            d >= Duration::from_millis(1),
            "control jobs are still timed"
        );
        let spans = r.into_spans();
        assert_eq!(spans.len(), 3, "control job left no span");
        assert_eq!(spans[0].name, JOB);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.job == 7 && s.tid == 3));
        let own = self_ns(&spans);
        assert_eq!(own[0], spans[0].dur_ns - spans[1].dur_ns - spans[2].dur_ns);
        assert!(own[0] < 500_000, "job self time is harness overhead only");
        assert_eq!(per_job(&spans, "a.x").len(), 1);
    }

    #[test]
    fn merge_rebases_parents() {
        let mk = |parent| Span {
            name: "n",
            start_ns: 0,
            dur_ns: 1,
            parent,
            job: 0,
            tid: 0,
        };
        let merged = merge(vec![
            vec![mk(None), mk(Some(0))],
            vec![mk(None), mk(Some(0))],
        ]);
        assert_eq!(merged[3].parent, Some(2));
    }

    #[test]
    fn chrome_trace_parses_back() {
        let mut r = Recorder::new(Instant::now(), 0);
        r.start_job(0, true);
        r.time(JOB, |r| r.time("store.put_new", |_| ()));
        let text = chrome_trace(&r.into_spans()).to_string();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].field("cat").unwrap().as_str().unwrap(), "store");
        assert_eq!(events[1].field("ph").unwrap().as_str().unwrap(), "X");
    }
}
