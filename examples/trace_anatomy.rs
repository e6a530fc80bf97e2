//! Trace anatomy: what DejaVu logs (and, more importantly, what it does
//! not), compared byte-for-byte with the related-work schemes of §5.
//!
//! ```sh
//! cargo run --example trace_anatomy
//! ```

use baselines::trace_size_comparison;
use dejavu::{record_run, DataRec, ExecSpec, SymmetryConfig};

fn main() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "producer_consumer")
        .unwrap();
    let mut spec = ExecSpec::new((w.build)()).with_seed(4);
    spec.timer_base = 401; // a moderate preemption quantum
    spec.timer_jitter = 100;

    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), false);
    let stats = trace.stats();

    println!("== what one DejaVu trace contains ==");
    println!("execution:        {} instructions", rec.counters.steps);
    println!("thread switches:  {} total", rec.counters.thread_switches);
    println!(
        "  deterministic:  {} (monitors/wait/join/sleep — NOT logged)",
        rec.counters.thread_switches - rec.counters.preemptive_switches
    );
    println!(
        "  preemptive:     {} (logged as nyp deltas: {} bytes)",
        stats.switch_count, stats.switch_bytes
    );
    println!("clock reads:      {} (logged)", stats.clock_count);
    println!("native outcomes:  {} (logged)", stats.native_count);
    println!("total trace:      {} bytes", stats.total_bytes);

    println!("\nfirst ten switch deltas (yield points between preemptions):");
    for s in trace.switches.iter().take(10) {
        print!(" {}", s.nyp);
    }
    println!();
    println!("first five data events:");
    for d in trace.data.iter().take(5) {
        match d {
            DataRec::Clock(v) => println!("  clock read -> {v}"),
            DataRec::Native { ret, callbacks } => {
                println!("  native -> {ret} ({} callbacks)", callbacks.len())
            }
        }
    }

    println!("\n== the same execution under every scheme (paper §5) ==");
    let row = trace_size_comparison("producer_consumer", &spec, w.natives);
    println!(
        "DejaVu        : {:>8} bytes  ({} preemptive switch records)",
        row.dejavu_bytes, row.dejavu_switches
    );
    println!(
        "Russinovich-C : {:>8} bytes  ({} dispatch records — every switch)",
        row.rc_bytes, row.rc_dispatches
    );
    println!(
        "InstantReplay : {:>8} bytes  ({} access records — every shared access)",
        row.ir_bytes, row.ir_accesses
    );
    println!(
        "Recap readlog : {:>8} bytes  ({} read values)",
        row.readlog_bytes, row.readlog_reads
    );
    println!(
        "\nDejaVu's trace is {:.0}x smaller than access logging on this run.",
        row.ir_bytes as f64 / row.dejavu_bytes as f64
    );
}
