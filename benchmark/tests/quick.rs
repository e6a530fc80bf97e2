//! The workloads at `--quick` size: deterministic counts repeat bit for
//! bit under one seed and move with the seed, traces load as Chrome-trace
//! JSON, and the correctness check inside a job is live.

use benchmark::corpus::Corpus;
use benchmark::metrics::{Values, END_TO_END, PER_LAYER, STORE_CORPUS, WORKLOADS};
use benchmark::run::{self, Report};
use benchmark::window::Ctx;
use codec::Json;
use std::time::Instant;

fn ctx(test: &str, workload: &'static str, seed: u64, trace: bool) -> Ctx {
    Ctx {
        workload,
        seed,
        seconds: 0.0,
        trace,
        quick: true,
        out: run::out_root().join("tests").join(test).join(workload),
    }
}

fn quick(test: &str, workload: &'static str, seed: u64, trace: bool) -> Report {
    let report =
        run::run(&ctx(test, workload, seed, trace), Instant::now()).expect("the run completes");
    assert_eq!(report.failed, 0, "{workload}: no job may fail");
    assert!(report.attempted > 0 && report.quick);
    report
}

/// The metrics of `values` that must repeat exactly on `workload`.
fn exact(workload: &str, values: &Values) -> Values {
    let table = END_TO_END
        .iter()
        .map(|m| (m.name, m.exact))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.exact)));
    let names: Vec<&str> = table.filter(|m| m.1.on(workload)).map(|m| m.0).collect();
    values
        .iter()
        .filter(|(k, _)| names.contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

#[test]
fn exact_counts_repeat_and_follow_the_seed() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let first = exact(workload, &quick("exact", workload, 7, trace).metrics);
            let again = exact(workload, &quick("exact", workload, 7, trace).metrics);
            assert!(
                !first.is_empty(),
                "{workload} trace {trace}: has exact metrics"
            );
            // Bit-equal, not approximately equal.
            let bits = |v: &Values| {
                v.iter()
                    .map(|(k, x)| (k.clone(), x.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&first), bits(&again), "{workload} trace {trace}");
            if trace {
                // Another seed gives other guests: job 0's counts move.
                let other = exact(workload, &quick("exact", workload, 8, trace).metrics);
                assert_ne!(
                    bits(&first),
                    bits(&other),
                    "{workload}: --seed reaches the guests"
                );
            }
        }
    }
}

#[test]
fn traces_load_as_chrome_trace_json() {
    for workload in WORKLOADS {
        let ctx = ctx("chrome", workload, 3, true);
        let report = run::run(&ctx, Instant::now()).unwrap();
        let text = std::fs::read_to_string(ctx.trace_file()).unwrap();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
        let named = |name: &str| {
            events
                .iter()
                .filter(|e| e.field("name").unwrap().as_str() == Ok(name))
                .count()
        };
        assert!(named("job") > 0, "{workload}: job spans");
        assert!(
            events.len() > named("job"),
            "{workload}: layer spans under the jobs"
        );
        for e in events {
            assert_eq!(e.field("ph").unwrap().as_str().unwrap(), "X");
            assert!(e.field("ts").is_ok() && e.field("dur").is_ok() && e.field("args").is_ok());
        }
        // Every job's layer spans are in the ledger `compare` reads.
        assert!(report.self_s_per_job.contains_key("job"));
        assert!(report.self_s_per_job.len() > 1);
    }
}

#[test]
fn a_flipped_byte_fails_the_job() {
    let ctx = ctx("flip", STORE_CORPUS, 5, false);
    std::fs::create_dir_all(&ctx.out).unwrap();
    let mut corpus = Corpus::setup(&ctx).unwrap();
    // Inside a block's compressed payload of the second run: the put is
    // refused with a typed error, or the run reads back wrong.
    let bytes = &mut corpus.runs[1].bytes;
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x40;
    let outcome = corpus
        .measure(&ctx)
        .expect("a corrupt upload is a failed job, not a crash");
    assert!(outcome.log.failed >= 1, "the corrupt run was noticed");
    assert!(
        outcome.log.failed < outcome.log.attempted,
        "sound runs still pass"
    );
}
