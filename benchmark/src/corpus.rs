//! `store_corpus`: the store used both ways at once. Set-up records a
//! corpus of distinct runs (four trace shapes × many seeds) to DJVB bytes
//! in memory; the VM does nothing inside the measured window. Job *i*
//! puts run *i*, re-puts two runs already there, reads four back byte for
//! byte and opens eight for replay, the targets zipf-distributed over the
//! entries put so far; every `MAINTAIN_EVERY`th job also runs `gc` and
//! `compact` inline. Writes sit beside reads, so a put-side gain that
//! costs reads shows as `ingest_per_s` up and `serve_per_s` down. A round
//! holds more unique blocks than the store's `BlockCache`, so opens both
//! hit and miss it.

use crate::guests::{self, Guest};
use crate::metrics::{self, Values};
use crate::probe;
use crate::spans::{self, Recorder};
use crate::storeops;
use crate::window::{Ctx, Deadline, JobLog};
use crate::Outcome;
use dejavu::{encode_trace, record_run, SymmetryConfig, TraceFormat, DEFAULT_BLOCK_BUDGET};
use djvm::rng::SplitMix64;
use std::time::{Duration, Instant};
use store::{Store, DEFAULT_COLD_THRESHOLD};

const SEEDS: usize = 30;
const SEEDS_QUICK: usize = 3;
const MIN_JOBS: u64 = 100;
const WARMUP_JOBS: usize = 5;
const DUP_PUTS: usize = 2;
const GETS: usize = 4;
const OPENS: usize = 8;
const MAINTAIN_EVERY: usize = 25;
const MAINTAIN_EVERY_QUICK: usize = 4;

/// One recorded run of the corpus.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    /// The DJVB file a job uploads and expects back byte for byte.
    pub bytes: Vec<u8>,
    pub fingerprint: u64,
    pub events: u64,
}

pub struct Corpus {
    guests: Vec<Guest>,
    pub runs: Vec<Run>,
    /// `harmonic[k]` = 1 + 1/2 + … + 1/k, the zipf(s=1) weights summed.
    harmonic: Vec<f64>,
    maintain_every: usize,
}

/// Sums over the successful jobs of a round or a window.
#[derive(Default)]
struct Totals {
    puts: u64,
    put: Duration,
    reads: u64,
    read: Duration,
    uploaded: u64,
    events: u64,
    migrated: u64,
}

impl Totals {
    fn add(&mut self, other: Totals) {
        self.puts += other.puts;
        self.put += other.put;
        self.reads += other.reads;
        self.read += other.read;
        self.uploaded += other.uploaded;
        self.events += other.events;
        self.migrated += other.migrated;
    }
}

impl Corpus {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let guests = guests::corpus(ctx.quick);
        let seeds = if ctx.quick { SEEDS_QUICK } else { SEEDS };
        let mut rng = SplitMix64::new(ctx.stream(1));
        let mut runs = Vec::with_capacity(seeds * guests.len());
        for _ in 0..seeds {
            // Shapes interleave, so the popular low ranks cover them all.
            for guest in &guests {
                let seed = rng.next_u64() >> 1;
                let (report, trace) = record_run(
                    &guest.spec(seed),
                    guest.workload.natives,
                    SymmetryConfig::full(),
                    true,
                );
                let stats = trace.stats();
                runs.push(Run {
                    workload: guest.workload.name,
                    seed,
                    bytes: encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET),
                    fingerprint: report.fingerprint,
                    events: (stats.switch_count + stats.clock_count + stats.native_count) as u64,
                });
            }
        }
        let mut harmonic = vec![0.0];
        for k in 1..=runs.len() {
            harmonic.push(harmonic[k - 1] + 1.0 / k as f64);
        }
        let this = Corpus {
            guests,
            runs,
            harmonic,
            maintain_every: if ctx.quick {
                MAINTAIN_EVERY_QUICK
            } else {
                MAINTAIN_EVERY
            },
        };
        let store = storeops::fresh(&ctx.out.join("warmup"))?;
        this.round(
            ctx,
            &store,
            WARMUP_JOBS,
            &mut Recorder::new(Instant::now(), 0),
            &mut JobLog::default(),
            None,
        );
        Ok(this)
    }

    /// Rank drawn zipf(s=1) over `0..n`: rank 0 is the most popular.
    fn zipf(&self, rng: &mut SplitMix64, n: usize) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * self.harmonic[n];
        self.harmonic[1..=n].partition_point(|&h| h <= u).min(n - 1)
    }

    /// Job `i`: all of its store calls, each checked. Comparing and
    /// freeing what a call returned is the benchmark's own work and gets
    /// its own span, so that the spans of a job add up to the job.
    fn job(
        &self,
        rec: &mut Recorder,
        store: &Store,
        i: usize,
        entries: &mut Vec<Option<String>>,
        rng: &mut SplitMix64,
        sums: &mut Totals,
    ) -> Result<(), String> {
        let put = |rec: &mut Recorder, run: &Run, span: &'static str| {
            let (outcome, took) = rec.time(span, |_| {
                store.put_bytes(run.workload, run.seed, &run.bytes, run.fingerprint, "")
            });
            let outcome = outcome.map_err(|e| format!("put_bytes: {e}"))?;
            let expect_new = span == "store.put_new";
            if outcome.new_entry != expect_new || outcome.fingerprint != run.fingerprint {
                return Err(format!("put_bytes: unexpected outcome {outcome:?}"));
            }
            Ok((outcome.entry, took))
        };
        // `entries[t]` is where run `t` went, `None` if its put failed.
        let stored = |entries: &[Option<String>], t: usize| {
            entries[t]
                .clone()
                .ok_or_else(|| format!("run {t} never reached the store"))
        };
        let run = &self.runs[i];
        entries.push(None);
        let (entry, took) = put(rec, run, "store.put_new")?;
        entries[i] = Some(entry);
        sums.put += took;
        sums.uploaded += run.bytes.len() as u64;
        sums.events += run.events;
        for _ in 0..DUP_PUTS {
            let t = self.zipf(rng, entries.len());
            let was = stored(entries, t)?;
            let (entry, took) = put(rec, &self.runs[t], "store.put_dup")?;
            if entry != was {
                return Err(format!("run {t} re-put as entry {entry}, was {was}"));
            }
            sums.put += took;
            sums.uploaded += self.runs[t].bytes.len() as u64;
            sums.events += self.runs[t].events;
        }
        sums.puts += 1 + DUP_PUTS as u64;

        for _ in 0..GETS {
            let t = self.zipf(rng, entries.len());
            let entry = stored(entries, t)?;
            let (bytes, took) = rec.time("store.get_bytes", |_| store.get_bytes(&entry));
            rec.time("bench.check", |_| match bytes {
                Ok(bytes) if bytes == self.runs[t].bytes => Ok(()),
                Ok(_) => Err(format!("get_bytes of run {t} is not the upload")),
                Err(e) => Err(format!("get_bytes: {e}")),
            })
            .0?;
            sums.read += took;
        }
        for _ in 0..OPENS {
            let t = self.zipf(rng, entries.len());
            let entry = stored(entries, t)?;
            let (opened, took) = storeops::open(rec, store, &entry);
            rec.time("bench.check", |_| {
                let stored = opened.map_err(|e| format!("open_trace: {e}"))?;
                let events = (stored.trace.switches.len() + stored.trace.data.len()) as u64;
                if events != self.runs[t].events
                    || stored.entry.fingerprint != self.runs[t].fingerprint
                {
                    return Err(format!("open_trace of run {t}: {events} events"));
                }
                Ok(())
            })
            .0?;
            sums.read += took;
        }
        sums.reads += (GETS + OPENS) as u64;

        if (i + 1).is_multiple_of(self.maintain_every) {
            rec.time("store.gc", |_| store.gc())
                .0
                .map_err(|e| format!("gc: {e}"))?;
            let (report, _) = rec.time("store.compact", |_| store.compact(DEFAULT_COLD_THRESHOLD));
            sums.migrated += report.map_err(|e| format!("compact: {e}"))?.migrated;
        }
        Ok(())
    }

    /// Jobs `0..jobs` against `store`, stopping early at the deadline.
    fn round(
        &self,
        ctx: &Ctx,
        store: &Store,
        jobs: usize,
        rec: &mut Recorder,
        log: &mut JobLog,
        deadline: Option<&Deadline>,
    ) -> Totals {
        let mut rng = SplitMix64::new(ctx.stream(2));
        let mut entries = Vec::with_capacity(jobs);
        let mut in_round = Totals::default();
        for i in 0..jobs {
            if deadline.is_some_and(|d| !d.more(log.attempted)) {
                break;
            }
            let mut sums = Totals::default();
            let ok = log.job(ctx, rec, log.attempted as u32, |rec| {
                self.job(rec, store, i, &mut entries, &mut rng, &mut sums)
            });
            if ok {
                in_round.add(sums);
            }
        }
        in_round
    }

    pub fn measure(self, ctx: &Ctx) -> Result<Outcome, String> {
        let mut rec = Recorder::new(Instant::now(), 0);
        let mut log = JobLog::default();
        let mut total = Totals::default();
        let mut exact = Values::new();
        let jobs = self.runs.len();
        let deadline = Deadline::open(
            ctx,
            if ctx.quick {
                jobs as u64
            } else {
                MIN_JOBS.max(jobs as u64)
            },
        );
        for round in 0.. {
            if !deadline.more(log.attempted) {
                break;
            }
            let store = storeops::fresh(&ctx.out.join(format!("store-{round}")))?;
            let opened = Instant::now();
            let in_round = self.round(ctx, &store, jobs, &mut rec, &mut log, Some(&deadline));
            log.window += opened.elapsed();
            if round == 0 {
                storeops::snapshot(&store, in_round.uploaded, in_round.events, &mut exact)?;
                exact.insert(
                    "store.compact.blocks_migrated".into(),
                    in_round.migrated as f64,
                );
            }
            total.add(in_round);
        }

        let mut e2e = Values::new();
        e2e.insert(
            "ingest_per_s".into(),
            total.puts as f64 / total.put.as_secs_f64(),
        );
        e2e.insert(
            "serve_per_s".into(),
            total.reads as f64 / total.read.as_secs_f64(),
        );
        e2e.extend(exact.remove_entry("stored_bytes_per_event"));

        let mut layer = Values::new();
        let spans = rec.into_spans();
        if ctx.trace {
            layer = exact;
            for span in [
                "store.put_new",
                "store.put_dup",
                "store.get_bytes",
                "store.open_hit",
                "store.open_miss",
                "store.gc",
                "store.compact",
            ] {
                let p50 = metrics::median(&spans::durations(&spans, span));
                metrics::set(&mut layer, format!("{span}.p50_s"), p50);
            }
            probe::run(&[(&self.guests[0], self.runs[0].seed)], &mut layer)?;
        }
        Ok(Outcome {
            log,
            e2e,
            layer,
            spans,
        })
    }
}
