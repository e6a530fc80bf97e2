//! Record/replay accuracy on non-deterministic multithreaded guests — the
//! headline property of the paper (§2): with full symmetry, replay
//! reproduces the recorded execution exactly (event sequence, program
//! states, output); across seeds, executions genuinely differ.

use dejavu::{passthrough_run, record_replay, record_run, replay_run, ExecSpec, SymmetryConfig};
use djvm::{GcKind, NativeOutcome, Program, ProgramBuilder, Ty, VmStatus};

/// Two threads race unsynchronized increments on a shared static; the
/// final value depends on preemption timing.
fn racy_counter(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.class("G").static_field("count", Ty::Int).build();
    let worker = pb.method("worker", 0, 3).code(|a| {
        a.iconst(0).store(0);
        a.label("top");
        a.load(0).iconst(iters).ge().if_nz("done");
        // Racy read-modify-write. The inner delay loop puts yield points
        // (backedges) inside the window, so a preemptive switch can land
        // between the read and the write — the lost-update race of Fig. 1.
        a.get_static(g, 0).store(1);
        a.iconst(0).store(0 + 1 + 1); // local 2: delay counter
        a.label("delay");
        a.load(2).iconst(3).ge().if_nz("delay_done");
        a.load(2).iconst(1).add().store(2);
        a.goto("delay");
        a.label("delay_done");
        a.load(1).iconst(1).add().put_static(g, 0);
        a.load(0).iconst(1).add().store(0);
        a.goto("top");
        a.label("done");
        a.ret();
    });
    let m = pb.method("main", 0, 2).code(|a| {
        a.iconst(0).put_static(g, 0);
        a.spawn(worker, 0).store(0);
        a.spawn(worker, 0).store(1);
        a.load(0).join();
        a.load(1).join();
        a.get_static(g, 0).print();
        a.halt();
    });
    pb.finish(m).unwrap()
}

/// Producer/consumer over a bounded buffer with wait/notify, plus clock
/// reads and sleeps — every flavour of non-determinism at once.
fn producer_consumer() -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb
        .class("G")
        .static_field("lock", Ty::Ref)
        .static_field("buf", Ty::Ref)
        .static_field("count", Ty::Int)
        .static_field("sum", Ty::Int)
        .build();
    let lock_cls = pb.class("Lock").build();
    let producer = pb.method("producer", 0, 1).code(|a| {
        a.iconst(0).store(0);
        a.label("top");
        a.load(0).iconst(20).ge().if_nz("done");
        a.get_static(g, 0).monitor_enter();
        a.label("full");
        a.get_static(g, 2).iconst(4).lt().if_nz("put");
        a.get_static(g, 0).wait().pop();
        a.goto("full");
        a.label("put");
        a.get_static(g, 1).get_static(g, 2).load(0).astore();
        a.get_static(g, 2).iconst(1).add().put_static(g, 2);
        a.get_static(g, 0).notify_all();
        a.get_static(g, 0).monitor_exit();
        a.load(0).iconst(1).add().store(0);
        // jitter the producer with a tiny sleep every few items
        a.load(0).iconst(7).rem().if_nz("top");
        a.iconst(2).sleep().pop();
        a.goto("top");
        a.label("done");
        a.ret();
    });
    let consumer = pb.method("consumer", 0, 2).code(|a| {
        a.iconst(0).store(0);
        a.label("top");
        a.load(0).iconst(20).ge().if_nz("done");
        a.get_static(g, 0).monitor_enter();
        a.label("empty");
        a.get_static(g, 2).iconst(0).gt().if_nz("take");
        a.get_static(g, 0).wait().pop();
        a.goto("empty");
        a.label("take");
        a.get_static(g, 2).iconst(1).sub().put_static(g, 2);
        a.get_static(g, 1).get_static(g, 2).aload().store(1);
        a.get_static(g, 4 - 1).load(1).add().put_static(g, 3);
        a.get_static(g, 0).notify_all();
        a.get_static(g, 0).monitor_exit();
        a.load(0).iconst(1).add().store(0);
        a.goto("top");
        a.label("done");
        a.ret();
    });
    let m = pb.method("main", 0, 2).code(|a| {
        a.new(lock_cls).put_static(g, 0);
        a.iconst(4).new_array_int().put_static(g, 1);
        a.iconst(0).put_static(g, 2);
        a.iconst(0).put_static(g, 3);
        a.spawn(producer, 0).store(0);
        a.spawn(consumer, 0).store(1);
        a.load(0).join();
        a.load(1).join();
        a.get_static(g, 3).print();
        a.now().iconst(0).mul().print(); // clock read (value masked)
        a.halt();
    });
    pb.finish(m).unwrap()
}

/// Figure 1 (C)/(D): a wall-clock value steers a branch that decides
/// whether a wait/notify switch happens.
fn clock_branch() -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb
        .class("G")
        .static_field("lock", Ty::Ref)
        .static_field("y", Ty::Int)
        .build();
    let lock_cls = pb.class("Lock").build();
    let t2 = pb.method("t2", 0, 0).code(|a| {
        a.get_static(g, 0).monitor_enter();
        a.get_static(g, 1).iconst(100).add().put_static(g, 1);
        a.get_static(g, 0).notify();
        a.get_static(g, 0).monitor_exit();
        a.ret();
    });
    let m = pb.method("main", 0, 1).code(|a| {
        a.new(lock_cls).put_static(g, 0);
        a.now().iconst(16).rem().put_static(g, 1); // y = Date() % 16
        a.spawn(t2, 0).store(0);
        a.get_static(g, 0).monitor_enter();
        a.get_static(g, 1).iconst(8).lt().if_z("no_wait");
        a.get_static(g, 0).wait().pop();
        a.label("no_wait");
        a.get_static(g, 0).monitor_exit();
        a.load(0).join();
        a.get_static(g, 1).iconst(2).mul().print();
        a.halt();
    });
    pb.finish(m).unwrap()
}

fn spec(p: Program, seed: u64) -> ExecSpec {
    let mut s = ExecSpec::new(p).with_seed(seed);
    s.timer_base = 37; // frequent preemption: many switches to replay
    s.timer_jitter = 13;
    s
}

#[test]
fn racy_counter_outcomes_vary_across_seeds() {
    let mut outputs = std::collections::BTreeSet::new();
    for seed in 0..12 {
        let r = passthrough_run(&spec(racy_counter(300), seed), |_| {});
        outputs.insert(r.output.clone());
    }
    assert!(
        outputs.len() > 1,
        "preemption jitter must produce divergent outcomes, got {outputs:?}"
    );
}

#[test]
fn replay_reproduces_racy_counter_exactly() {
    for seed in 0..8 {
        let s = spec(racy_counter(300), seed);
        let (rec, rep, ok) = record_replay(&s, |_| {}, SymmetryConfig::full());
        assert!(
            ok,
            "seed {seed}: replay diverged\n rec: {} / {:#x}\n rep: {} / {:#x}",
            rec.output.trim(),
            rec.fingerprint,
            rep.output.trim(),
            rep.fingerprint
        );
    }
}

#[test]
fn replay_reproduces_producer_consumer() {
    for seed in [1, 5, 9] {
        let s = spec(producer_consumer(), seed);
        let (rec, rep, ok) = record_replay(&s, |_| {}, SymmetryConfig::full());
        assert!(ok, "seed {seed}: rec {:?} rep {:?}", rec.output, rep.output);
        assert!(rec.output.starts_with("190\n"), "sum 0..19 = 190");
    }
}

#[test]
fn replay_reproduces_clock_branch_both_ways() {
    // Across seeds the Date()-derived branch goes both ways; replay must
    // reproduce each execution including the wait/notify switch pattern.
    let mut saw = std::collections::BTreeSet::new();
    for seed in 0..20 {
        let s = spec(clock_branch(), seed);
        let (rec, rep, ok) = record_replay(&s, |_| {}, SymmetryConfig::full());
        assert!(ok, "seed {seed}");
        saw.insert(rec.output.clone());
        assert_eq!(rec.output, rep.output);
    }
    assert!(saw.len() > 1, "branch should go both ways across seeds");
}

/// Racy counter whose workers also churn the heap, so GC interleaves with
/// preemptive switches.
fn allocating_racy(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.class("G").static_field("count", Ty::Int).build();
    let worker = pb.method("worker", 0, 3).code(|a| {
        a.iconst(0).store(0);
        a.label("top");
        a.load(0).iconst(iters).ge().if_nz("done");
        a.get_static(g, 0).store(1);
        a.iconst(24).new_array_int().pop(); // garbage inside the window
        a.load(1).iconst(1).add().put_static(g, 0);
        a.load(0).iconst(1).add().store(0);
        a.goto("top");
        a.label("done");
        a.ret();
    });
    let m = pb.method("main", 0, 2).code(|a| {
        a.iconst(0).put_static(g, 0);
        a.spawn(worker, 0).store(0);
        a.spawn(worker, 0).store(1);
        a.load(0).join();
        a.load(1).join();
        a.get_static(g, 0).print();
        a.halt();
    });
    pb.finish(m).unwrap()
}

#[test]
fn replay_works_under_copying_gc() {
    for seed in [2, 7] {
        let mut s = spec(allocating_racy(300), seed);
        s.vm.gc = GcKind::Copying;
        s.vm.heap_words = 24 * 1024; // force collections during the run
        let (rec, rep, ok) = record_replay(&s, |_| {}, SymmetryConfig::full());
        assert!(ok, "seed {seed}");
        assert!(rec.gc_collections > 0, "GC should have run during record");
        assert_eq!(rec.gc_collections, rep.gc_collections);
    }
}

#[test]
fn replay_works_under_mark_sweep_pressure() {
    let mut s = spec(allocating_racy(300), 3);
    s.vm.gc = GcKind::MarkSweep;
    s.vm.heap_words = 12 * 1024;
    let (rec, _rep, ok) = record_replay(&s, |_| {}, SymmetryConfig::full());
    assert!(ok);
    assert!(rec.gc_collections > 0);
}

/// A registry workload on a heap small enough that it collects.
fn small_heap_spec(w: &workloads::Workload, gc: GcKind, heap_words: usize) -> ExecSpec {
    let mut s = ExecSpec::new((w.build)()).with_seed(7);
    s.timer_base = 53;
    s.timer_jitter = 19;
    s.vm.gc = gc;
    s.vm.heap_words = heap_words;
    s
}

/// Every registry workload under both collectors at three heap sizes, the
/// copying collector at twice the words so both have the same allocatable
/// space. Replay is accurate in every cell, an `OutOfMemory` exit
/// included; and where both collectors halt they agree on everything a
/// guest can observe, the state digest included.
#[test]
fn both_collectors_replay_the_whole_registry() {
    let mut collected = Vec::new();
    for w in workloads::registry() {
        for h in [8192, 4096, 2048] {
            let [ms, cp] = [(GcKind::MarkSweep, h), (GcKind::Copying, 2 * h)].map(|(gc, words)| {
                let s = small_heap_spec(&w, gc, words);
                let (rec, rep, ok) = record_replay(&s, w.natives, SymmetryConfig::full());
                assert!(
                    ok,
                    "{} {gc:?} at {words} words diverged: rec {:?} rep {:?}",
                    w.name, rec.status, rep.status
                );
                assert_eq!(rec.gc_collections, rep.gc_collections, "{} {gc:?}", w.name);
                if rec.gc_collections > 0 {
                    collected.push((w.name, gc));
                }
                rec
            });
            if ms.status == VmStatus::Halted && cp.status == VmStatus::Halted {
                assert_eq!(ms.output, cp.output, "{} at {h}", w.name);
                assert_eq!(ms.state_digest, cp.state_digest, "{} at {h}", w.name);
            }
        }
    }
    for name in [
        "gc_churn",
        "gc_pressure",
        "deep_recursion",
        "recursion_storm",
    ] {
        for gc in [GcKind::MarkSweep, GcKind::Copying] {
            assert!(
                collected.contains(&(name, gc)),
                "{name} never collected under {gc:?}"
            );
        }
    }
}

/// The heap a collector leaves behind, pinned bit for bit: goldens taken
/// from the three hand-written reference walks (PR 22's `gc.rs`) before
/// they became one. The image is every word for mark-sweep (mark bits,
/// free blocks and first-fit reuse all show) and the live semispace for
/// copying (to-space order; the idle half is scrubbed in debug builds
/// only). `OutOfMemory` exits are pinned like halts.
#[test]
fn collectors_leave_the_golden_heap() {
    use djvm::heap::RESERVED;
    use GcKind::{Copying, MarkSweep};
    let golden = [
        (
            "gc_churn",
            MarkSweep,
            4096,
            "f27add6c49ac218447176f4fe3d66067",
            [1043, 9673, 2, 5726, 4080],
            9047144449720787623,
        ),
        (
            "gc_churn",
            Copying,
            8192,
            "a3fb168b27bc959a808e7364b25e1440",
            [1043, 9673, 2, 2433, 4083],
            9047144449720787623,
        ),
        (
            "gc_churn",
            MarkSweep,
            2048,
            "d11739cff43460bb17816ea57e9744de",
            [1043, 9673, 10, 7902, 2026],
            9047144449720787623,
        ),
        (
            "gc_churn",
            Copying,
            4096,
            "042568c8d5cefa62700b24993cd5444e",
            [1043, 9673, 10, 12189, 2040],
            9047144449720787623,
        ),
        (
            "recursion_storm",
            MarkSweep,
            4096,
            "fc64f99ded75da9e093fe784c8ee0fae",
            [525, 5075, 2, 3342, 4079],
            4443126505938597312,
        ),
        (
            "recursion_storm",
            Copying,
            8192,
            "d4ed09d036489765212316c4663fb6b9",
            [656, 7901, 2, 3978, 4085],
            6934686044888699353,
        ),
        (
            "recursion_storm",
            MarkSweep,
            2048,
            "678323f79a96ad490fd38d8509eb62df",
            [192, 2569, 2, 1092, 1965],
            13653217901295136818,
        ),
        (
            "recursion_storm",
            Copying,
            4096,
            "b32dbc20cd638f1a62af8a2d776660e9",
            [525, 5075, 10, 16562, 2039],
            4443126505938597312,
        ),
    ];
    let mut got = Vec::new();
    for name in ["gc_churn", "recursion_storm"] {
        for (gc, words) in [
            (MarkSweep, 4096),
            (Copying, 8192),
            (MarkSweep, 2048),
            (Copying, 4096),
        ] {
            let w = workloads::registry().into_iter().find(|w| w.name == name);
            let s = small_heap_spec(&w.unwrap(), gc, words);
            let mut vm = s.live_vm();
            djvm::interp::run(&mut vm, &mut djvm::Passthrough, s.max_steps);
            let mem = vm.heap.mem_snapshot();
            let st = vm.heap.stats;
            let live = match gc {
                MarkSweep => &mem[..],
                Copying => {
                    // Every collection flips to the other half.
                    let half = (mem.len() - RESERVED) / 2;
                    let base = RESERVED + (st.collections % 2) as usize * half;
                    &mem[base..base + vm.heap.words_in_use()]
                }
            };
            let bytes: Vec<u8> = live.iter().flat_map(|w| w.to_le_bytes()).collect();
            got.push((
                name,
                gc,
                words,
                codec::digest128(&bytes).hex(),
                [
                    st.allocations,
                    st.words_allocated,
                    st.collections,
                    st.words_copied_or_swept,
                    st.peak_words_in_use,
                ],
                vm.state_digest(),
            ));
        }
    }
    for (g, want) in got.iter().zip(golden) {
        assert_eq!(
            *g,
            (want.0, want.1, want.2, want.3.to_string(), want.4, want.5)
        );
    }
    assert_eq!(got.len(), golden.len());
}

#[test]
fn native_calls_replayed_without_execution() {
    let mut pb = ProgramBuilder::new();
    let n = pb.native("entropy", 1, true);
    let m = pb.method("main", 0, 1).code(|a| {
        a.iconst(0).store(0);
        a.label("top");
        a.load(0).iconst(10).ge().if_nz("done");
        a.load(0).native_call(n, 1).print();
        a.load(0).iconst(1).add().store(0);
        a.goto("top");
        a.label("done");
        a.halt();
    });
    let s = spec(pb.finish(m).unwrap(), 4);
    // A genuinely non-deterministic native (host entropy + state).
    let mut counter = 0x9E3779B97F4A7C15u64;
    let natives = move |vm: &mut djvm::Vm| {
        vm.natives.register(
            n,
            Box::new(move |ctx| {
                counter = counter
                    .wrapping_mul(0x5851F42D4C957F2D)
                    .wrapping_add(1442695040888963407);
                NativeOutcome::value((counter >> 33) as i64 ^ ctx.args[0])
            }),
        );
    };
    let (rec, trace) = record_run(&s, natives, SymmetryConfig::full(), true);
    // Replay registers NO natives: if the replayer tried to execute one,
    // the registry would panic — so success proves regeneration.
    let (rep, desyncs) = replay_run(&s, trace, SymmetryConfig::full());
    assert!(desyncs.is_empty(), "{desyncs:?}");
    assert!(rec.matches(&rep));
    assert_eq!(rec.counters.native_calls, rep.counters.native_calls);
}

#[test]
fn native_callbacks_replayed() {
    let mut pb = ProgramBuilder::new();
    let n = pb.native("notifier", 0, false);
    let cb = pb.method("cb", 1, 1).code(|a| {
        a.load(0).print();
        a.ret();
    });
    let m = pb.method("main", 0, 0).code(|a| {
        a.native_call(n, 0);
        a.iconst(999).print();
        a.halt();
    });
    let s = spec(pb.finish(m).unwrap(), 6);
    let natives = move |vm: &mut djvm::Vm| {
        vm.natives.register(
            n,
            Box::new(move |ctx| NativeOutcome {
                ret: 0,
                callbacks: vec![djvm::CallbackReq {
                    method: cb,
                    args: vec![ctx.now_millis % 1000],
                }],
            }),
        );
    };
    let (rec, trace) = record_run(&s, natives, SymmetryConfig::full(), true);
    let (rep, desyncs) = replay_run(&s, trace, SymmetryConfig::full());
    assert!(desyncs.is_empty());
    assert!(rec.matches(&rep));
}

#[test]
fn timed_waits_multi_seed() {
    fn build() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.class("G").static_field("lock", Ty::Ref).build();
        let lock_cls = pb.class("Lock").build();
        let sleeper = pb.method("sleeper", 1, 1).code(|a| {
            a.load(0).sleep().pop();
            a.get_static(g, 0).monitor_enter();
            a.get_static(g, 0).iconst(25).timed_wait().print();
            a.get_static(g, 0).monitor_exit();
            a.ret();
        });
        let m = pb.method("main", 0, 3).code(|a| {
            a.new(lock_cls).put_static(g, 0);
            a.iconst(10).spawn(sleeper, 1).store(0);
            a.iconst(20).spawn(sleeper, 1).store(1);
            a.iconst(5).spawn(sleeper, 1).store(2);
            a.load(0).join();
            a.load(1).join();
            a.load(2).join();
            a.iconst(777).print();
            a.halt();
        });
        pb.finish(m).unwrap()
    }
    for seed in 0..6 {
        let s = spec(build(), seed);
        let (rec, rep, ok) = record_replay(&s, |_| {}, SymmetryConfig::full());
        assert!(ok, "seed {seed}: {:?} vs {:?}", rec.output, rep.output);
        assert!(rec.output.contains("777"));
    }
}

#[test]
fn trace_roundtrips_through_binary_encoding() {
    let s = spec(racy_counter(200), 5);
    let (rec, trace) = record_run(&s, |_| {}, SymmetryConfig::full(), false);
    let bytes = dejavu::encode_trace(&trace, dejavu::TraceFormat::Block, 64);
    let decoded = dejavu::ingest_bytes(bytes).unwrap().trace;
    assert_eq!(decoded, trace);
    let (rep, desyncs) = replay_run(&s, decoded, SymmetryConfig::full());
    assert!(desyncs.is_empty());
    assert!(rec.matches(&rep));
}

#[test]
fn trace_is_small_relative_to_execution() {
    let s = spec(racy_counter(500), 5);
    let (rec, trace) = record_run(&s, |_| {}, SymmetryConfig::full(), false);
    let stats = trace.stats();
    // Millions of instructions, a handful of bytes per preemptive switch.
    assert!(rec.counters.steps > 10_000);
    assert!(stats.switch_count > 5);
    assert!(
        (stats.switch_bytes as f64) / (stats.switch_count as f64) < 4.0,
        "nyp deltas should encode in a few bytes: {stats:?}"
    );
}

#[test]
fn identity_hash_sensitive_program_replays() {
    // Programs whose control flow depends on identityHashCode (allocation
    // serials) are exactly the ones that asymmetric instrumentation would
    // break; with full symmetry they replay.
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("O").field("x", Ty::Int).build();
    let worker = pb.method("worker", 0, 2).code(|a| {
        a.iconst(0).store(0);
        a.label("top");
        a.load(0).iconst(50).ge().if_nz("done");
        a.new(cls).identity_hash().iconst(3).rem().if_z("skip");
        a.iconst(1).pop();
        a.label("skip");
        a.load(0).iconst(1).add().store(0);
        a.goto("top");
        a.label("done");
        a.ret();
    });
    let m = pb.method("main", 0, 2).code(|a| {
        a.spawn(worker, 0).store(0);
        a.spawn(worker, 0).store(1);
        a.load(0).join();
        a.load(1).join();
        a.new(cls).identity_hash().print();
        a.halt();
    });
    let s = spec(pb.finish(m).unwrap(), 8);
    let (_rec, _rep, ok) = record_replay(&s, |_| {}, SymmetryConfig::full());
    assert!(ok);
}
