//! The exact counts of every registry run, pinned: what each workload
//! executes, what its trace holds, how often tier 2 ran it and which
//! quickened ops a profiled replay dispatched. These are the noise-free
//! numbers a dispatch or tier change must leave alone (or move on
//! purpose, with the pin edited in the same change). One block of lines
//! per workload, each run under `fleet::spec_for(w, 1)`.

use dejavu_repro::dejavu::{
    encode_trace, passthrough_run, profile_replay, record_run, replay_run, BlockFile, ExecSpec,
    RunReport, SymmetryConfig, Trace, TraceFormat, DEFAULT_BLOCK_BUDGET,
};
use dejavu_repro::djvm::compile::QOP_KIND_NAMES;
use dejavu_repro::fleet::spec_for;

/// A run's executed counts and its tier-2 counters.
fn run_line(name: &str, run: &str, r: &RunReport) -> String {
    let m = &r.mega;
    format!(
        "{name} {run} steps={} yield_points={} tier_ups={} entries={} closed_iters={} gate_misses={}\n",
        r.counters.steps, r.counters.yield_points, m.tier_ups, m.entries, m.closed_iters, m.gate_misses
    )
}

fn count_table() -> String {
    let mut out = String::new();
    for w in workloads::registry() {
        let spec = spec_for(&w, 1);
        let name = w.name;
        out += &run_line(name, "passthrough", &passthrough_run(&spec, w.natives));
        let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
        out += &run_line(name, "record", &rec);
        let (rep, desyncs) = replay_run(&spec, trace.clone(), SymmetryConfig::full());
        assert!(desyncs.is_empty(), "{name}: replay desynced");
        out += &run_line(name, "replay", &rep);

        let stats = trace.stats();
        let events = stats.switch_count + stats.clock_count + stats.native_count;
        let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
        let djvb_bytes = bytes.len();
        let blocks = BlockFile::parse(bytes).unwrap().index.len();
        out +=
            &format!("{name} trace events={events} djvb_bytes={djvb_bytes} djvb_blocks={blocks}\n");

        let kinds: Vec<String> = profiled_qops(&spec, trace)
            .iter()
            .map(|(kind, dispatches, cycles)| format!("{kind}={dispatches}/{cycles}"))
            .collect();
        out += &format!("{name} qops dispatches/cycles {}\n", kinds.join(" "));
    }
    out
}

/// A profiled replay's dispatches and cycles per quickened-op kind, in
/// table order, for the kinds it dispatched at all.
fn profiled_qops(spec: &ExecSpec, trace: Trace) -> Vec<(&'static str, u64, u64)> {
    let (prof, _, desyncs) = profile_replay(spec, trace, SymmetryConfig::full());
    assert!(desyncs.is_empty(), "profiled replay desynced");
    let p = &prof.profiler;
    (0..QOP_KIND_NAMES.len())
        .filter(|&i| p.qop_dispatches[i] > 0)
        .map(|i| (QOP_KIND_NAMES[i], p.qop_dispatches[i], p.qop_cycles[i]))
        .collect()
}

const COUNTS: &str = r#"
fig1_ab passthrough steps=74 yield_points=4 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
fig1_ab record steps=74 yield_points=4 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
fig1_ab replay steps=74 yield_points=4 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
fig1_ab trace events=0 djvb_bytes=17 djvb_blocks=0
fig1_ab qops dispatches/cycles gen=5/5 const=6/6 load=1/1 store=5/5 alu=3/3 goto=4/4 const_store=2/4 load_const_alu=4/12 load_const_cmp_if=6/24 get_static=4/4 put_static=6/6
fig1_hot passthrough steps=900038 yield_points=100000 tier_ups=2 entries=4262 closed_iters=99872 gate_misses=0
fig1_hot record steps=1188473 yield_points=100000 tier_ups=4 entries=8402 closed_iters=111040 gate_misses=0
fig1_hot replay steps=1002749 yield_points=100000 tier_ups=3 entries=7021 closed_iters=105449 gate_misses=0
fig1_hot trace events=5629 djvb_bytes=3248 djvb_blocks=2
fig1_hot qops dispatches/cycles gen=1412/1412 const=3715/3715 load=1408/1408 store=114086/114086 alu=1639/1639 goto=107035/107035 if=995/995 const_store=1409/2803 load_const_alu=114070/338938 cmp_if=2073/3151 load_const_cmp_if=108444/427557 get_static=4/4 put_static=6/6
fig1_cd passthrough steps=45 yield_points=0 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
fig1_cd record steps=45 yield_points=0 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
fig1_cd replay steps=45 yield_points=0 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
fig1_cd trace events=1 djvb_bytes=47 djvb_blocks=1
fig1_cd qops dispatches/cycles gen=13/13 const=6/6 load=1/1 store=1/1 pop=1/1 alu=2/2 cmp_if=1/2 rem=1/1 get_static=11/11 put_static=6/6 now=1/1
racy_counter passthrough steps=38427 yield_points=3200 tier_ups=1 entries=844 closed_iters=1558 gate_misses=0
racy_counter record steps=50112 yield_points=3200 tier_ups=3 entries=938 closed_iters=1926 gate_misses=0
racy_counter replay steps=42588 yield_points=3200 tier_ups=2 entries=907 closed_iters=1735 gate_misses=0
racy_counter trace events=231 djvb_bytes=269 djvb_blocks=1
racy_counter qops dispatches/cycles gen=65/65 const=143/143 load=59/59 store=4580/4580 alu=74/74 goto=3485/3485 if=36/36 const_store=859/1710 load_const_alu=4570/13562 cmp_if=68/100 load_const_cmp_if=4344/17172 get_static=801/801 put_static=801/801
bank_transfer passthrough steps=23801 yield_points=378 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
bank_transfer record steps=30976 yield_points=378 tier_ups=2 entries=32 closed_iters=192 gate_misses=0
bank_transfer replay steps=26356 yield_points=378 tier_ups=1 entries=23 closed_iters=89 gate_misses=0
bank_transfer trace events=142 djvb_bytes=144 djvb_blocks=1
bank_transfer qops dispatches/cycles gen=1494/1494 const=1836/1836 load=6209/6209 store=2901/2901 alu=1469/1469 goto=613/613 if=11/11 const_store=43/86 load_load_alu=360/1064 load_const_alu=1088/3234 cmp_if=733/1455 load_const_cmp_if=595/2341 rem=720/720 get_field=726/726 put_field=726/726 get_static=732/732 put_static=1/1 aload=729/729 astore=9/9
dining_philosophers passthrough steps=9424 yield_points=215 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
dining_philosophers record steps=12089 yield_points=215 tier_ups=1 entries=6 closed_iters=35 gate_misses=0
dining_philosophers replay steps=10373 yield_points=215 tier_ups=1 entries=1 closed_iters=1 gate_misses=0
dining_philosophers trace events=54 djvb_bytes=104 djvb_blocks=1
dining_philosophers qops dispatches/cycles gen=1238/1238 const=410/410 load=1923/1923 store=1226/1226 alu=203/203 goto=280/280 if=2/2 const_store=21/42 load_const_alu=545/1629 cmp_if=205/408 load_const_cmp_if=301/1189 rem=200/200 get_static=1006/1006 put_static=202/202 aload=405/405 astore=10/10
producer_consumer passthrough steps=3910 yield_points=143 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
producer_consumer record steps=4903 yield_points=139 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
producer_consumer replay steps=4243 yield_points=139 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
producer_consumer trace events=40 djvb_bytes=111 djvb_blocks=1
producer_consumer qops dispatches/cycles gen=402/402 const=334/334 load=187/187 store=232/232 pop=27/27 alu=182/182 goto=112/112 if=64/64 const_store=7/14 load_const_alu=170/506 cmp_if=141/278 load_const_cmp_if=152/602 rem=60/60 get_static=939/939 put_static=184/184 aload=60/60 astore=60/60
readers_writers passthrough steps=6160 yield_points=180 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
readers_writers record steps=7800 yield_points=180 tier_ups=1 entries=1 closed_iters=0 gate_misses=0
readers_writers replay steps=6744 yield_points=180 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
readers_writers trace events=34 djvb_bytes=92 djvb_blocks=1
readers_writers qops dispatches/cycles gen=921/921 const=429/429 load=131/131 store=384/384 alu=425/425 goto=280/280 if=121/121 if_z=120/120 const_store=11/21 load_const_alu=260/770 cmp_if=4/7 load_const_cmp_if=231/912 get_static=1682/1682 put_static=541/541
sleepy_workers passthrough steps=76 yield_points=0 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
sleepy_workers record steps=76 yield_points=0 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
sleepy_workers replay steps=76 yield_points=0 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
sleepy_workers trace events=16 djvb_bytes=77 djvb_blocks=1
sleepy_workers qops dispatches/cycles gen=25/25 const=9/9 load=8/8 store=6/6 pop=3/3 alu=5/5 load_const_alu=1/3 get_static=12/12 put_static=5/5
gc_churn passthrough steps=15595 yield_points=500 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
gc_churn record steps=20105 yield_points=500 tier_ups=1 entries=15 closed_iters=98 gate_misses=0
gc_churn replay steps=17201 yield_points=500 tier_ups=1 entries=10 closed_iters=37 gate_misses=0
gc_churn trace events=90 djvb_bytes=126 djvb_blocks=1
gc_churn qops dispatches/cycles gen=1564/1564 const=1017/1017 load=3524/3524 store=1756/1756 pop=500/500 alu=506/506 goto=610/610 if=503/503 const_store=24/48 load_const_alu=720/2148 cmp_if=10/17 load_const_cmp_if=634/2506 rem=500/500 put_field=1000/1000 get_static=501/501 put_static=501/501
server_loop passthrough steps=4744 yield_points=168 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
server_loop record steps=6019 yield_points=173 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
server_loop replay steps=5227 yield_points=173 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
server_loop trace events=106 djvb_bytes=401 djvb_blocks=1
server_loop qops dispatches/cycles gen=606/606 const=253/253 load=255/255 store=383/383 pop=13/13 alu=249/249 goto=203/203 if=18/18 const_store=7/14 load_const_alu=220/654 cmp_if=98/193 load_const_cmp_if=117/459 rem=80/80 get_static=1353/1353 put_static=254/254 aload=80/80 astore=80/80 native_call=80/80
matrix_sum passthrough steps=16613 yield_points=1032 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
matrix_sum record steps=21533 yield_points=1032 tier_ups=1 entries=17 closed_iters=112 gate_misses=0
matrix_sum replay steps=18365 yield_points=1032 tier_ups=1 entries=12 closed_iters=45 gate_misses=0
matrix_sum trace events=97 djvb_bytes=160 djvb_blocks=1
matrix_sum qops dispatches/cycles gen=49/49 const=547/547 load=2616/2616 store=1794/1794 alu=1052/1052 goto=1152/1152 if=5/5 const_store=31/61 load_const_alu=1792/5328 cmp_if=525/1045 load_const_cmp_if=667/2641 get_static=1037/1037 put_static=6/6 aload=516/516 astore=516/516
deep_recursion passthrough steps=20277 yield_points=2250 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
deep_recursion record steps=25607 yield_points=2250 tier_ups=1 entries=19 closed_iters=126 gate_misses=0
deep_recursion replay steps=22175 yield_points=2250 tier_ups=1 entries=14 closed_iters=53 gate_misses=0
deep_recursion trace events=106 djvb_bytes=185 djvb_blocks=1
deep_recursion qops dispatches/cycles gen=4462/4462 const=2250/2250 load=2278/2278 store=298/298 alu=2248/2248 goto=166/166 if_z=2214/2214 const_store=28/56 load_const_alu=2474/7354 cmp_if=1/2 load_const_cmp_if=194/773 get_static=37/37 put_static=37/37
barrier passthrough steps=3977 yield_points=183 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
barrier record steps=5002 yield_points=183 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
barrier replay steps=4342 yield_points=183 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
barrier trace events=21 djvb_bytes=86 djvb_blocks=1
barrier qops dispatches/cycles gen=321/321 const=354/354 load=171/171 store=259/259 pop=75/75 alu=225/225 goto=233/233 if=2/2 const_store=11/22 load_const_alu=158/474 cmp_if=253/504 load_const_cmp_if=144/567 get_static=876/876 put_static=251/251 aload=4/4 astore=4/4
lock_convoy passthrough steps=21361 yield_points=1806 tier_ups=1 entries=384 closed_iters=1032 gate_misses=0
lock_convoy record steps=27716 yield_points=1806 tier_ups=2 entries=425 closed_iters=1193 gate_misses=0
lock_convoy replay steps=23624 yield_points=1806 tier_ups=2 entries=420 closed_iters=1105 gate_misses=0
lock_convoy trace events=126 djvb_bytes=192 djvb_blocks=1
lock_convoy qops dispatches/cycles gen=764/764 const=437/437 load=43/43 store=2122/2122 alu=400/400 goto=1961/1961 if=14/14 const_store=396/787 load_const_alu=2116/6268 cmp_if=35/56 load_const_cmp_if=2357/9323 get_static=1081/1081 put_static=362/362 aload=3/3 astore=3/3
gc_pressure passthrough steps=39325 yield_points=1960 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
gc_pressure record steps=51420 yield_points=1960 tier_ups=2 entries=80 closed_iters=384 gate_misses=0
gc_pressure replay steps=43632 yield_points=1960 tier_ups=1 entries=47 closed_iters=185 gate_misses=0
gc_pressure trace events=238 djvb_bytes=245 djvb_blocks=1
gc_pressure qops dispatches/cycles gen=2591/2591 const=1210/1210 load=9061/9061 store=4552/4552 pop=280/280 ref_eq=2/2 alu=307/307 goto=2255/2255 if=318/318 const_store=341/680 load_const_alu=2550/7600 cmp_if=62/88 load_const_cmp_if=2596/10198 rem=280/280 get_field=2/2 put_field=1680/1680 get_static=283/283 put_static=283/283 aload=282/282 astore=1680/1680
native_heavy passthrough steps=4208 yield_points=200 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
native_heavy record steps=5188 yield_points=200 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
native_heavy replay steps=4528 yield_points=200 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
native_heavy trace events=222 djvb_bytes=684 djvb_blocks=1
native_heavy qops dispatches/cycles gen=441/441 const=7/7 load=433/433 store=452/452 alu=228/228 goto=225/225 if=1/1 const_store=7/14 load_const_alu=250/746 cmp_if=3/5 load_const_cmp_if=232/919 get_static=628/628 put_static=229/229 native_call=200/200
clock_spin passthrough steps=6827 yield_points=400 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
clock_spin record steps=8672 yield_points=400 tier_ups=1 entries=2 closed_iters=7 gate_misses=0
clock_spin replay steps=7484 yield_points=400 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
clock_spin trace events=438 djvb_bytes=217 djvb_blocks=1
clock_spin qops dispatches/cycles gen=17/17 const=815/815 load=11/11 store=492/492 alu=807/807 goto=445/445 if=5/5 const_store=11/22 load_const_alu=490/1456 cmp_if=7/9 load_const_cmp_if=456/1803 rem=400/400 get_static=401/401 put_static=401/401 now=400/400
recursion_storm passthrough steps=12897 yield_points=1230 tier_ups=0 entries=0 closed_iters=0 gate_misses=0
recursion_storm record steps=16177 yield_points=1230 tier_ups=1 entries=9 closed_iters=56 gate_misses=0
recursion_storm replay steps=14065 yield_points=1230 tier_ups=1 entries=4 closed_iters=13 gate_misses=0
recursion_storm trace events=67 djvb_bytes=138 djvb_blocks=1
recursion_storm qops dispatches/cycles gen=3044/3044 const=1831/1831 load=1248/1248 store=182/182 pop=600/600 alu=1227/1227 goto=100/100 if=1/1 if_z=1210/1210 const_store=18/36 load_const_alu=1370/4076 cmp_if=3/5 load_const_cmp_if=118/463 get_static=21/21 put_static=21/21
"#;

#[test]
fn every_registry_count_is_pinned() {
    let got = count_table();
    let want = COUNTS.trim_start();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {i}; the whole table:\n{got}");
    }
    assert_eq!(got, want, "table length; the whole table:\n{got}");
}

/// A preemption costs no tier-1 pass: tier 2 retires the pass a tick or a
/// switch lands in, so of `fig1_hot`'s 100 000 delay-loop passes
/// passthrough leaves tier 1 only the two loops' 64 passes each before
/// they tier up.
#[test]
fn fig1_hot_passthrough_retires_its_loop_passes_in_closed_form() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "fig1_hot")
        .unwrap();
    let r = passthrough_run(&spec_for(&w, 1), w.natives);
    assert!(r.mega.closed_iters >= 99_800, "{:?}", r.mega);
}

/// Tier 1 runs heap, clock and native ops in its cursor, so the event
/// guests dispatch few generic ops: what is left is monitors, spawns,
/// joins, returns and the like. Per mille of a profiled replay's
/// dispatches, exact (the counts above are).
#[test]
fn event_guests_dispatch_few_generic_ops() {
    for (name, below) in [
        ("clock_spin", 100),
        ("native_heavy", 150),
        ("server_loop", 291),
    ] {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let spec = spec_for(&w, 1);
        let (_, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
        let qops = profiled_qops(&spec, trace);
        let total: u64 = qops.iter().map(|q| q.1).sum();
        let gen = qops.iter().find(|q| q.0 == "gen").map_or(0, |q| q.1);
        let permille = gen * 1000 / total;
        assert!(
            permille < below,
            "{name}: gen is {permille} of 1000 dispatches"
        );
    }
}
