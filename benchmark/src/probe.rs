//! The probe pass of a traced run: each layer called on its own, from
//! outside, on the input of the workload's job 0. It yields the numbers
//! spans around a whole job cannot — dispatch tiers and fingerprint modes
//! against each other, record and replay against passthrough, the two
//! compressors on the trace's own raw blocks — and the deterministic
//! counts of that input.

use crate::guests::Guest;
use crate::metrics::{self, Values};
use crate::pipeline::replay_vm;
use dejavu::{
    encode_trace, ingest_bytes, passthrough_run, record_run, replay_run, BlockFile, ExecSpec,
    SymmetryConfig, TraceFormat, DEFAULT_BLOCK_BUDGET,
};
use djvm::FingerprintMode;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
/// Raw bytes each codec rate is measured over (the blocks are cycled).
const CODEC_BYTES: usize = 4 << 20;

/// Median seconds of each of `calls`, made in turn `REPS` times over, so
/// that a drift in the host's speed falls on all of them alike and their
/// ratios hold.
fn timed_in_turn(calls: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples = vec![Vec::new(); calls.len()];
    for _ in 0..REPS {
        for (call, samples) in calls.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            call();
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    samples
        .iter()
        .map(|s| metrics::median(s).expect("REPS > 0"))
        .collect()
}

fn timed(mut call: impl FnMut()) -> f64 {
    timed_in_turn(&mut [&mut call])[0]
}

/// MB/s of `f` applied to every item of `items`, cycled up to
/// `CODEC_BYTES` of `raw_len` bytes a cycle.
fn mb_per_s<T, R>(items: &[T], raw_len: usize, mut f: impl FnMut(&T) -> R) -> f64 {
    let cycles = (CODEC_BYTES / raw_len.max(1)).clamp(1, 4096);
    let t = Instant::now();
    for _ in 0..cycles {
        for item in items {
            black_box(f(black_box(item)));
        }
    }
    (raw_len * cycles) as f64 / 1e6 / t.elapsed().as_secs_f64()
}

pub fn run(inputs: &[(&Guest, u64)], out: &mut Values) -> Result<(), String> {
    let full = SymmetryConfig::full();
    let specs: Vec<_> = inputs
        .iter()
        .map(|(g, seed)| (g.spec(*seed), g.workload.natives))
        .collect();
    // djvm: the production default against each knob turned the other
    // way. dejavu: record and replay against that passthrough.
    let passthrough = |tweak: &dyn Fn(ExecSpec) -> ExecSpec| {
        let tweaked: Vec<_> = specs.iter().map(|(s, n)| (tweak(s.clone()), *n)).collect();
        move || {
            for (spec, natives) in &tweaked {
                black_box(passthrough_run(spec, natives));
            }
        }
    };
    let recorded = RefCell::new(Vec::new());
    let times = timed_in_turn(&mut [
        &mut passthrough(&|s| s),
        &mut passthrough(&|s| s.with_fingerprint(FingerprintMode::Coarse)),
        &mut passthrough(&|s| s.with_mega(false)),
        &mut passthrough(&|s| s.with_quicken(false)),
        &mut || {
            *recorded.borrow_mut() = specs
                .iter()
                .map(|(s, n)| record_run(s, n, full, true))
                .collect();
        },
        &mut || {
            for ((spec, _), (report, trace)) in specs.iter().zip(&*recorded.borrow()) {
                let (replayed, desyncs) = replay_run(spec, trace.clone(), full);
                assert!(
                    report.matches(&replayed) && desyncs.is_empty(),
                    "probe replay diverged"
                );
            }
        },
    ]);
    let [default, coarse, quickened, generic, record, replay] = times[..] else {
        unreachable!("six calls, six medians");
    };
    let recorded = recorded.into_inner();
    out.insert(
        "djvm.fingerprint.full_over_coarse_x".into(),
        default / coarse,
    );
    out.insert("djvm.mega_over_quickened_x".into(), quickened / default);
    out.insert("djvm.quickened_over_generic_x".into(), generic / quickened);

    let vm = replay_vm(&specs[0].0);
    out.insert(
        "djvm.boot.p50_s".into(),
        timed(|| drop(black_box(replay_vm(&specs[0].0)))),
    );
    out.insert(
        "djvm.snapshot.p50_s".into(),
        timed(|| drop(black_box(vm.snapshot()))),
    );
    out.insert(
        "djvm.snapshot.mib".into(),
        vm.snapshot_size_bytes() as f64 / (1u64 << 20) as f64,
    );

    let (mut steps, mut yields, mut gcs, mut events) = (0u64, 0u64, 0u64, 0u64);
    for (report, trace) in &recorded {
        let stats = trace.stats();
        steps += report.counters.steps;
        yields += report.counters.yield_points;
        gcs += report.gc_collections;
        events += (stats.switch_count + stats.clock_count + stats.native_count) as u64;
    }
    out.insert(
        "djvm.passthrough.steps_per_s".into(),
        steps as f64 / default,
    );
    out.insert("djvm.steps".into(), steps as f64);
    out.insert("djvm.yield_points".into(), yields as f64);
    out.insert("djvm.gc.collections".into(), gcs as f64);
    out.insert("dejavu.record_over_passthrough_x".into(), record / default);
    out.insert("dejavu.replay_over_passthrough_x".into(), replay / default);

    let mut files = Vec::new();
    let encode = timed(|| {
        files = recorded
            .iter()
            .map(|(_, t)| encode_trace(t, TraceFormat::Block, DEFAULT_BLOCK_BUDGET))
            .collect();
    });
    let ingest = timed(|| {
        for bytes in &files {
            black_box(ingest_bytes(bytes.clone()).expect("just encoded"));
        }
    });
    let djvb_bytes: usize = files.iter().map(Vec::len).sum();
    out.insert("dejavu.encode.events_per_s".into(), events as f64 / encode);
    out.insert("dejavu.ingest_bytes.p50_s".into(), ingest);
    out.insert("dejavu.decode.events_per_s".into(), events as f64 / ingest);
    out.insert("dejavu.trace.events".into(), events as f64);
    out.insert("dejavu.trace.djvb_bytes".into(), djvb_bytes as f64);
    out.insert(
        "dejavu.trace.bytes_per_event_milli".into(),
        (djvb_bytes as u64 * 1000 / events.max(1)) as f64,
    );

    // codec: both compressors, the checksum and the digest over the raw
    // (pre-compression) blocks of those traces.
    let mut raw = Vec::new();
    for bytes in files {
        let file = BlockFile::parse(bytes).map_err(|e| format!("probe parse: {e}"))?;
        for i in 0..file.index.len() {
            raw.push(
                file.block_raw(i)
                    .map_err(|e| format!("probe block {i}: {e}"))?,
            );
        }
    }
    let raw_len: usize = raw.iter().map(Vec::len).sum();
    out.insert("dejavu.trace.blocks".into(), raw.len() as f64);
    let lz: Vec<(Vec<u8>, usize)> = raw.iter().map(|b| (codec::compress(b), b.len())).collect();
    let range: Vec<(Vec<u8>, usize)> = raw
        .iter()
        .map(|b| (codec::entropy_compress(b), b.len()))
        .collect();
    let permille = |packed: &[(Vec<u8>, usize)]| {
        (packed.iter().map(|p| p.0.len()).sum::<usize>() * 1000 / raw_len.max(1)) as f64
    };
    out.insert("codec.lz77.ratio_permille".into(), permille(&lz));
    out.insert("codec.range.ratio_permille".into(), permille(&range));
    let rates = [
        (
            "codec.lz77.compress_mb_per_s",
            mb_per_s(&raw, raw_len, |b| codec::compress(b)),
        ),
        (
            "codec.lz77.decompress_mb_per_s",
            mb_per_s(&lz, raw_len, |(c, n)| codec::decompress(c, *n)),
        ),
        (
            "codec.range.compress_mb_per_s",
            mb_per_s(&raw, raw_len, |b| codec::entropy_compress(b)),
        ),
        (
            "codec.range.decompress_mb_per_s",
            mb_per_s(&range, raw_len, |(c, n)| codec::entropy_decompress(c, *n)),
        ),
        (
            "codec.crc32.mb_per_s",
            mb_per_s(&raw, raw_len, |b| codec::crc32(b)),
        ),
        (
            "codec.digest128.mb_per_s",
            mb_per_s(&raw, raw_len, |b| codec::digest128(b)),
        ),
    ];
    out.extend(rates.map(|(name, v)| (name.to_string(), v)));
    Ok(())
}
