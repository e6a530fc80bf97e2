//! E8: remote reflection correctness and perturbation-freedom (paper §3,
//! Figure 3).

use dejavu::{record_run, ExecSpec, SymmetryConfig};
use djvm::{interp, CycleClock, FixedTimer, MethodId, Program, ProgramBuilder, Ty, Vm, VmConfig};
use reflect::{
    mirror, CountingMemory, LocalVmMemory, ProcessMemory, ReflectError, RemoteReflector,
    SnapshotMemory, TVal,
};
use std::sync::Arc;

/// Boot a paused "application VM" with some objects on its heap.
fn app_vm() -> (Vm, Program) {
    let mut pb = ProgramBuilder::new();
    let g = pb
        .class("G")
        .static_field("box_", Ty::Ref)
        .static_field("arr", Ty::Ref)
        .build();
    let boxc = pb
        .class("Box")
        .field("value", Ty::Int)
        .field("next", Ty::Ref)
        .build();
    let m = pb.method("main", 0, 2).code(|a| {
        a.line(100);
        a.new(boxc).store(0);
        a.load(0).iconst(42).put_field(0);
        a.line(101);
        a.new(boxc).store(1);
        a.load(1).iconst(-7).put_field(0); // a word with the forwarding bit set
        a.load(0).load(1).put_field_ref(1); // box.next = second
        a.load(0).put_static(g, 0);
        a.line(102);
        a.iconst(5).new_array_int().put_static(g, 1);
        a.get_static(g, 1).iconst(3).iconst(99).astore();
        a.line(103);
        a.halt();
    });
    let p = pb.finish(m).unwrap();
    let vm = Vm::boot(
        Arc::new(p.clone()),
        VmConfig::default(),
        Box::new(FixedTimer::new(100_000)),
        Box::new(CycleClock::new(0, 100)),
    )
    .unwrap();
    (vm, p)
}

fn run_to_halt(vm: &mut Vm) {
    let mut hook = djvm::Passthrough;
    interp::run(vm, &mut hook, 1_000_000);
}

#[test]
fn fig3_line_number_query_against_remote_space() {
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    // Ground truth: in-process (local) line table.
    let main = p.entry;
    let truth: Vec<u32> = p.method(main).lines.clone();

    let mem = LocalVmMemory::new(&vm);
    let mut refl = RemoteReflector::new(Arc::new(p.clone()), &mem);
    refl.map_boot_method_table(vm.boot_image.method_table);
    for offset in 0..truth.len() as u32 {
        let got = refl.line_number_of(main, offset).unwrap();
        assert_eq!(got, truth[offset as usize] as i64, "offset {offset}");
    }
    // Out-of-range offset returns 0 per Fig. 3's code.
    assert_eq!(refl.line_number_of(main, truth.len() as u32).unwrap(), 0);
    assert!(refl.steps > 0, "the query is interpreted bytecode");
}

#[test]
fn mapped_method_is_intercepted_not_executed() {
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    let mem = LocalVmMemory::new(&vm);
    let program = Arc::new(p);
    let mut refl = RemoteReflector::new(Arc::clone(&program), &mem);
    // Unmapped, sys$getMethods executes its stub body and returns null.
    let raw = refl
        .invoke(program.builtins.get_methods, &[])
        .unwrap()
        .unwrap();
    assert_eq!(raw, TVal::Null);
    // Mapped, the same invocation returns the remote object instead.
    refl.map_boot_method_table(vm.boot_image.method_table);
    let mapped = refl
        .invoke(program.builtins.get_methods, &[])
        .unwrap()
        .unwrap();
    assert_eq!(mapped, TVal::Remote(vm.boot_image.method_table));
}

#[test]
fn remote_object_graph_navigation_and_mirrors() {
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    let program = Arc::new(p);
    let mem = LocalVmMemory::new(&vm);

    // Navigate: class object of G -> box_ -> next -> value.
    let g = program.class_id_by_name("G").unwrap();
    let gobj = vm.class_objects[g as usize].expect("G loaded");
    let box_addr = mem.read_word(gobj + 1).unwrap(); // static 0
    assert_ne!(box_addr, 0);
    assert_eq!(
        mirror::class_name(&mem, &program, box_addr).as_deref(),
        Some("Box")
    );
    let fields = mirror::read_fields(&mem, &program, box_addr).unwrap();
    assert_eq!(fields[0], ("value".to_string(), "42".to_string()));
    assert!(fields[1].1.starts_with("Box@"), "{:?}", fields[1]);

    // Arrays clone correctly.
    let arr_addr = mem.read_word(gobj + 2).unwrap();
    let arr = mirror::read_int_array(&mem, arr_addr).unwrap();
    assert_eq!(arr, vec![0, 0, 0, 99, 0]);

    // Strings (reflection metadata method names) clone correctly.
    let table = vm.boot_image.method_table;
    let vm_method0 = mem.read_word(table + 2).unwrap();
    let name_obj = mem.read_word(vm_method0 + 2).unwrap(); // field 1 = name
    let name = mirror::read_string(&mem, &program, name_obj).unwrap();
    assert!(!name.is_empty());
}

#[test]
fn snapshot_memory_gives_same_answers() {
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    let program = Arc::new(p);
    let live = LocalVmMemory::new(&vm);
    let snap = SnapshotMemory::from_vm(&vm);
    let mut r1 = RemoteReflector::new(Arc::clone(&program), &live);
    let mut r2 = RemoteReflector::new(Arc::clone(&program), &snap);
    r1.map_boot_method_table(vm.boot_image.method_table);
    r2.map_boot_method_table(vm.boot_image.method_table);
    for off in 0..6 {
        assert_eq!(
            r1.line_number_of(program.entry, off).unwrap(),
            r2.line_number_of(program.entry, off).unwrap()
        );
    }
}

#[test]
fn mutation_bytecodes_rejected() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").field("x", Ty::Int).build();
    let bad = pb.method_typed("bad", vec![Ty::Ref], 1, None).code(|a| {
        a.load(0).iconst(1).put_field(0);
        a.ret();
    });
    let m = pb.method("main", 0, 1).code(|a| {
        a.new(c).store(0);
        a.halt();
    });
    let p = pb.finish(m).unwrap();
    let mut vm = Vm::boot(
        Arc::new(p.clone()),
        VmConfig::default(),
        Box::new(FixedTimer::new(100_000)),
        Box::new(CycleClock::new(0, 100)),
    )
    .unwrap();
    run_to_halt(&mut vm);
    let mem = LocalVmMemory::new(&vm);
    let mut refl = RemoteReflector::new(Arc::new(p), &mem);
    // find any remote object: the thread object will do
    let tobj = vm.threads[0].thread_obj;
    let err = refl.invoke(bad, &[TVal::Remote(tobj)]).unwrap_err();
    assert!(matches!(
        err,
        reflect::ReflectError::Unsupported("mutation")
    ));
}

#[test]
fn e8_queries_do_not_perturb_a_replay() {
    // The perturbation-free property: stop a replay mid-flight, run a pile
    // of reflective queries, resume — the replay still matches the record
    // exactly. (An in-process query would break the symmetry and diverge,
    // shown in the companion test below.)
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "racy_counter")
        .unwrap();
    let mut spec = ExecSpec::new((w.build)()).with_seed(5);
    spec.timer_base = 37;
    spec.timer_jitter = 13;
    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);

    // Replay manually so we can pause in the middle.
    let program = Arc::clone(&spec.program);
    let mut vm = Vm::boot(
        program.clone(),
        spec.vm.clone(),
        Box::new(FixedTimer::new(1_000_000)),
        Box::new(CycleClock::new(spec.clock_origin, spec.cycles_per_ms)),
    )
    .unwrap();
    let mut replayer = dejavu::DejaVuReplayer::new(trace, SymmetryConfig::full());
    {
        use djvm::hook::ExecHook;
        replayer.on_init(&mut vm);
    }
    interp::run(&mut vm, &mut replayer, 15_000); // pause mid-execution
    assert!(vm.status.is_running());

    let digest_before = vm.state_digest();
    {
        // The tool inspects the paused VM through remote reflection only.
        let mem = CountingMemory::new(LocalVmMemory::new(&vm));
        let mut refl = RemoteReflector::new(program.clone(), &mem);
        refl.map_boot_method_table(vm.boot_image.method_table);
        for mid in 0..program.methods.len() as u32 {
            for off in 0..3 {
                let _ = refl.line_number_of(mid, off);
            }
        }
        for t in &vm.threads {
            let _ = mirror::describe(&mem, &program, t.thread_obj);
        }
        assert!(mem.reads() > 100, "the tool really did work remotely");
    }
    assert_eq!(
        vm.state_digest(),
        digest_before,
        "remote reflection must not perturb the application VM"
    );

    // Resume to completion: replay still exactly matches the record.
    interp::run(&mut vm, &mut replayer, u64::MAX >> 1);
    assert_eq!(vm.output, rec.output);
    assert_eq!(vm.fingerprint.digest(), rec.fingerprint);
    assert_eq!(vm.state_digest(), rec.state_digest);
    assert!(replayer.desyncs().is_empty());
}

#[test]
fn mirrors_answer_not_an_object_for_every_address() {
    // `inspect` hands the mirrors an address off the wire, so the word
    // there is untrusted: mid-object, a stack slot, a string's characters,
    // a negative int (the forwarding bit), free space, nothing at all.
    // Walk the whole space of a paused VM; returns how many addresses
    // mirrored as (object, int array, string, bad address).
    fn walk(vm: &Vm, program: &Program) -> [u32; 4] {
        let mem = LocalVmMemory::new(vm);
        let mut seen = [0; 4];
        for addr in (0..vm.heap.total_words() as u64).chain([u64::MAX]) {
            let text = mirror::describe(&mem, program, addr);
            seen[0] += mirror::read_fields(&mem, program, addr).is_some() as u32;
            seen[1] += mirror::read_int_array(&mem, addr).is_some() as u32;
            seen[2] += mirror::read_string(&mem, program, addr).is_some() as u32;
            seen[3] += text.starts_with("<bad address") as u32;
        }
        seen
    }

    // A guest with live objects, arrays, strings and several thread
    // stacks, stopped part-way.
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "producer_consumer")
        .unwrap();
    let spec = ExecSpec::new((w.build)()).with_seed(3);
    let mut vm = spec.live_vm();
    (w.natives)(&mut vm);
    interp::run(&mut vm, &mut djvm::Passthrough, 2_000);
    assert!(vm.status.is_running() && vm.threads.len() > 1);
    let seen = walk(&vm, &spec.program);
    assert!(seen.iter().all(|&n| n > 1), "met every kind: {seen:?}");

    // `app_vm`'s second box holds a negative int.
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    walk(&vm, &p);
}

#[test]
fn e8_in_process_reflection_breaks_replay() {
    // The paper's motivating failure (§3): if the *application* VM executes
    // the reflective query mid-replay, its state changes (frames, yield
    // points, possibly allocation) and deterministic replay is lost.
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "racy_counter")
        .unwrap();
    let mut spec = ExecSpec::new((w.build)()).with_seed(5);
    spec.timer_base = 37;
    spec.timer_jitter = 13;
    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);

    let program = Arc::clone(&spec.program);
    let mut vm = Vm::boot(
        program.clone(),
        spec.vm.clone(),
        Box::new(FixedTimer::new(1_000_000)),
        Box::new(CycleClock::new(spec.clock_origin, spec.cycles_per_ms)),
    )
    .unwrap();
    let mut replayer = dejavu::DejaVuReplayer::new(trace, SymmetryConfig::full());
    {
        use djvm::hook::ExecHook;
        replayer.on_init(&mut vm);
    }
    interp::run(&mut vm, &mut replayer, 15_000);
    assert!(vm.status.is_running());

    // In-process query: make the application VM itself run
    // sys$lineNumberOf... which executes yield points inside the app VM,
    // desynchronizing the logical clock.
    let q = program.builtins.get_line_number_at;
    let _ = q;
    let ln = program.builtins.line_number_of;
    // Push a frame on the *application* VM (the in-process debugger) and
    // let it run to produce the answer.
    vm.push_frame_public(ln, &[0, 1]).unwrap();
    interp::run(&mut vm, &mut replayer, 200); // the query executes in-process

    // Resume: the replay no longer matches the record.
    interp::run(&mut vm, &mut replayer, u64::MAX >> 1);
    let diverged = vm.fingerprint.digest() != rec.fingerprint
        || vm.output != rec.output
        || !replayer.desyncs().is_empty()
        || vm.state_digest() != rec.state_digest;
    assert!(diverged, "in-process reflection must break replay");
}

/// `program` with one read-only method per reference bytecode added, each
/// taking a receiver (and `aload` an index) and returning what the op
/// reads: `(bytecode, method)`.
fn with_probes(program: &Program) -> (Program, Vec<(&'static str, MethodId)>) {
    let b = program.builtins;
    let slot = program.class(b.vm_method_class).vslots["getLineNumberAt"];
    let mut pb = ProgramBuilder::reopen(program);
    let mut probe = |name, index: bool, op: &dyn Fn(&mut djvm::builder::Asm)| {
        let args = if index {
            vec![Ty::Ref, Ty::Int]
        } else {
            vec![Ty::Ref]
        };
        let nargs = args.len() as u16;
        let m = pb.method_typed(name, args, nargs, Some(Ty::Int)).code(|a| {
            a.load(0);
            if index {
                a.load(1);
            }
            op(a);
            a.ret_val();
        });
        (name, m)
    };
    let probes = vec![
        probe("getfield", false, &|a| {
            a.get_field(0);
        }),
        probe("aload", true, &|a| {
            a.aload();
        }),
        probe("arraylen", false, &|a| {
            a.array_len();
        }),
        probe("identityhash", false, &|a| {
            a.identity_hash();
        }),
        probe("instanceof", false, &|a| {
            a.instance_of(b.vm_method_class);
        }),
        probe("callvirtual", false, &|a| {
            a.iconst(0).call_virtual(b.vm_method_class, slot);
        }),
    ];
    (pb.finish(program.entry).unwrap(), probes)
}

fn receiver(word: u64) -> TVal {
    if word == 0 {
        TVal::Null
    } else {
        TVal::Remote(word)
    }
}

#[test]
fn invoke_refuses_a_method_the_program_does_not_define() {
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    let mem = LocalVmMemory::new(&vm);
    let n = p.methods.len() as MethodId;
    let mut refl = RemoteReflector::new(Arc::new(p), &mem);
    for m in [n, n + 1, MethodId::MAX] {
        assert_eq!(refl.invoke(m, &[]), Err(ReflectError::NoSuchMethod(m)));
    }
}

#[test]
fn invoke_refuses_a_wrong_argument_count() {
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    let mem = LocalVmMemory::new(&vm);
    let q = p.builtins.line_number_of;
    let mut refl = RemoteReflector::new(Arc::new(p), &mem);
    refl.map_boot_method_table(vm.boot_image.method_table);
    for args in [&[][..], &[TVal::Int(0)], &[TVal::Int(0); 3]] {
        let got = args.len();
        assert_eq!(
            refl.invoke(q, args),
            Err(ReflectError::Arity { want: 2, got })
        );
    }
    assert_eq!(refl.invoke(q, &[TVal::Int(0); 2]).map(|_| ()), Ok(()));
}

#[test]
fn invoke_refuses_an_argument_of_the_wrong_type() {
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    let mem = LocalVmMemory::new(&vm);
    let (q, at) = (p.builtins.line_number_of, p.builtins.get_line_number_at);
    let mut refl = RemoteReflector::new(Arc::new(p), &mem);
    let table = vm.boot_image.method_table;
    // An int where a reference goes, and references where ints go.
    assert_eq!(
        refl.invoke(at, &[TVal::Int(1), TVal::Int(0)]),
        Err(ReflectError::ArgType(0))
    );
    assert_eq!(
        refl.invoke(q, &[TVal::Remote(table), TVal::Int(0)]),
        Err(ReflectError::ArgType(0))
    );
    assert_eq!(
        refl.invoke(q, &[TVal::Int(0), TVal::Null]),
        Err(ReflectError::ArgType(1))
    );
}

#[test]
fn reflector_answers_a_typed_fault_for_every_address() {
    // Every reference bytecode, handed every word a client could name:
    // the answer is a value or a typed error, never a panic.
    fn walk(vm: &Vm, program: &Program, probes: &[(&str, MethodId)], extra: &[u64]) -> usize {
        let mem = LocalVmMemory::new(vm);
        let mut refl = RemoteReflector::new(Arc::new(program.clone()), &mem);
        let mut faults = 0;
        // Every word from the extent up is zero: the extent's stands for all.
        let addrs = (0..vm.heap.extent() as u64 + 1).chain(extra.iter().copied());
        for addr in addrs {
            for &(name, m) in probes {
                let args = [receiver(addr), TVal::Int(0)];
                let args = &args[..program.method(m).nargs as usize];
                let got =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| refl.invoke(m, args)));
                match got {
                    Ok(Ok(Some(TVal::Int(_)))) => {}
                    Ok(Err(ReflectError::Fault(_) | ReflectError::BadAddress(_))) => faults += 1,
                    other => panic!("{name} at {addr}: {other:?}"),
                }
            }
        }
        faults
    }

    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "producer_consumer")
        .unwrap();
    let (program, probes) = with_probes(&(w.build)());
    let spec = ExecSpec::new(program).with_seed(3);
    let mut vm = spec.live_vm();
    (w.natives)(&mut vm);
    interp::run(&mut vm, &mut djvm::Passthrough, 2_000);
    assert!(vm.status.is_running() && vm.threads.len() > 1);
    assert!(walk(&vm, &spec.program, &probes, &[u64::MAX, u64::MAX - 1]) > 0);

    // `app_vm`'s second box holds a word with the forwarding bit set.
    let (mut vm, p) = app_vm();
    run_to_halt(&mut vm);
    let (p, probes) = with_probes(&p);
    let mem = LocalVmMemory::new(&vm);
    let g = vm.class_objects[p.class_id_by_name("G").unwrap() as usize].unwrap();
    let first = mem.read_word(g + 1).unwrap();
    let forwarded = mem.read_word(first + 2).unwrap() + 1;
    assert!(djvm::heap::is_forwarded(mem.read_word(forwarded).unwrap()));
    walk(&vm, &p, &probes, &[forwarded, u64::MAX]);
    // The wrong kind of object faults as it does in the guest: `arraylen`
    // on a `Box`, `getfield` on an `int[]`, a forwarding word's hash.
    let mut refl = RemoteReflector::new(Arc::new(p), &mem);
    let [getfield, _, arraylen, identityhash, ..] = probes[..] else {
        unreachable!()
    };
    let arr = mem.read_word(g + 2).unwrap();
    let confused = Err(ReflectError::Fault(djvm::ErrKind::TypeConfusion));
    assert_eq!(refl.invoke(arraylen.1, &[TVal::Remote(first)]), confused);
    assert_eq!(refl.invoke(getfield.1, &[TVal::Remote(arr)]), confused);
    assert_eq!(
        refl.invoke(identityhash.1, &[TVal::Remote(forwarded)]),
        confused
    );
    assert_eq!(
        refl.invoke(arraylen.1, &[TVal::Remote(arr)]),
        Ok(Some(TVal::Int(5)))
    );
}
