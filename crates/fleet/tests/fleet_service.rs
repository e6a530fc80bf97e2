//! Integration tests for the fleet service: 64 concurrent sessions over
//! the framed RPC, each fingerprint checked against a single-session
//! record of the same workload and seed; the three-tier debugger dialogue
//! with simultaneous clients; the streaming ingest path; and token-gated
//! graceful shutdown.

use debugger::protocol::{Command, Response as DbgResponse};
use debugger::server::MAX_READ_WORDS;
use debugger::{DebugSession, StopReason};
use dejavu::{encode_trace, record_run, SymmetryConfig, TraceFormat, DEFAULT_BLOCK_BUDGET};
use fleet::{
    spec_for, FleetClient, FleetConfig, FleetMemory, FleetServer, Request, Response, WireError,
};
use reflect::{LocalVmMemory, ProcessMemory, RemoteReflector};
use std::io::{Read, Write};
use std::time::Duration;

fn workload(name: &str) -> workloads::Workload {
    workloads::registry()
        .into_iter()
        .find(|w| w.name == name)
        .expect("workload in registry")
}

fn start_server(workers: usize) -> FleetServer {
    FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            workers,
            shutdown_token: "test-token".to_string(),
            ..FleetConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// One of the server's `sessions` counters, read over a fresh connection.
fn sessions_stat(addr: &str, key: &str) -> u64 {
    let stats = FleetClient::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let doc = codec::Json::parse(&stats).expect("canonical stats json");
    doc.field("sessions")
        .unwrap()
        .field(key)
        .unwrap()
        .as_u64()
        .unwrap()
}

/// Sessions the parity test hosts at once, and the client threads that
/// drive them.
const SESSIONS: usize = 64;
const CLIENTS: usize = 4;

/// Run `body` for every session index in `0..SESSIONS`, split across
/// `CLIENTS` scoped threads, each on a connection of its own that is
/// dropped when its share is done. Results come back in index order.
fn wave<T: Send>(addr: &str, body: impl Fn(&mut FleetClient, usize) -> T + Sync) -> Vec<T> {
    let per = SESSIONS.div_ceil(CLIENTS);
    let body = &body;
    std::thread::scope(|scope| {
        let shares: Vec<_> = (0..SESSIONS)
            .step_by(per)
            .map(|lo| {
                scope.spawn(move || {
                    let mut client = FleetClient::connect(addr).expect("connect");
                    (lo..(lo + per).min(SESSIONS))
                        .map(|i| body(&mut client, i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        shares
            .into_iter()
            .flat_map(|share| share.join().expect("client thread"))
            .collect()
    })
}

/// The fleet's accuracy rule at 64 resident sessions: every fingerprint a
/// hosted session records or replays equals a single-session record of the
/// same workload and seed. Three waves of fresh connections — open and
/// record; replay, seek and divergence-check; close — so every session
/// outlives the connection that opened it.
#[test]
fn concurrent_sessions_record_replay_seek_with_identical_fingerprints() {
    let server = start_server(4);
    let addr = server.addr().to_string();
    let w = workload("racy_counter");

    // Wave A: open and record; the ground truth is recorded here too, once
    // per seed.
    let recorded = wave(&addr, |client, i| {
        let seed = 1_000 + i as u64;
        let id = client.open(w.name, seed).expect("open");
        let fleet = match client
            .call(&Request::Record { session: id })
            .expect("record")
        {
            Response::Recorded { fingerprint, .. } => fingerprint,
            other => panic!("record session {id}: {other:?}"),
        };
        let (truth, _) = record_run(&spec_for(&w, seed), w.natives, SymmetryConfig::full(), true);
        (id, seed, fleet, truth.fingerprint)
    });
    let mut mismatches: Vec<String> = recorded
        .iter()
        .filter(|&&(_, _, fleet, truth)| fleet != truth)
        .map(|(id, seed, fleet, truth)| {
            format!("session {id} (seed {seed}): record fp {fleet:#x} != single-session {truth:#x}")
        })
        .collect();

    // Every wave-A connection is gone and every session is still resident.
    assert_eq!(sessions_stat(&addr, "active"), SESSIONS as u64);

    // Wave B: replay, seek, divergence-check.
    let replayed = wave(&addr, |client, i| {
        let (id, seed, _, truth) = recorded[i];
        let mut wrong = Vec::new();
        match client
            .call(&Request::Replay { session: id })
            .expect("replay")
        {
            Response::Replayed {
                fingerprint, clean, ..
            } if fingerprint != truth || !clean => wrong.push(format!(
                "session {id} (seed {seed}): replay fp {fingerprint:#x} (clean={clean}) \
                 != single-session {truth:#x}"
            )),
            Response::Replayed { .. } => {}
            other => panic!("replay session {id}: {other:?}"),
        }
        let seek = Request::SeekLogical {
            session: id,
            logical: 500,
        };
        match client.call(&seek).expect("seek") {
            Response::Sought {
                final_logical: 500, ..
            } => {}
            other => panic!("seek session {id}: {other:?}"),
        }
        match client
            .call(&Request::DivergenceCheck { session: id })
            .expect("divergence")
        {
            Response::Divergence { clean: true, .. } => {}
            Response::Divergence { json, .. } => wrong.push(format!(
                "session {id} (seed {seed}): divergence after seek: {json}"
            )),
            other => panic!("divergence check session {id}: {other:?}"),
        }
        wrong
    });
    mismatches.extend(replayed.into_iter().flatten());

    // Wave C: close.
    wave(&addr, |client, i| {
        let id = recorded[i].0;
        match client.call(&Request::Close { session: id }).expect("close") {
            Response::Closed { .. } => {}
            other => panic!("close session {id}: {other:?}"),
        }
    });

    assert!(
        mismatches.is_empty(),
        "fleet fingerprints diverged from single-session ground truth:\n{}",
        mismatches.join("\n")
    );
    let peak = sessions_stat(&addr, "peak");
    assert!(peak >= SESSIONS as u64, "peak {peak} < {SESSIONS}");

    server.trigger_shutdown();
    server.join();
}

#[test]
fn streamed_ingest_replays_to_the_recorded_fingerprint() {
    let server = start_server(2);
    let addr = server.addr().to_string();

    // Record locally, encode as a block trace, upload in chunks.
    let w = workload("racy_counter");
    let spec = spec_for(&w, 7);
    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);

    let mut client = FleetClient::connect(&addr).expect("connect");
    let id = client.open("racy_counter", 7).expect("open");
    // Tiny chunk size exercises the reassembly path hard.
    for (i, chunk) in bytes.chunks(97).enumerate() {
        let done = (i + 1) * 97 >= bytes.len();
        match client
            .call(&Request::IngestBlocks {
                session: id,
                chunk: chunk.to_vec(),
                done,
            })
            .expect("ingest")
        {
            Response::Ingested { .. } => {}
            other => panic!("ingest: {other:?}"),
        }
    }
    match client
        .call(&Request::Replay { session: id })
        .expect("replay")
    {
        Response::Replayed {
            fingerprint,
            state_digest,
            clean,
            ..
        } => {
            assert!(clean, "desyncs replaying an uploaded trace");
            assert_eq!(fingerprint, rec.fingerprint, "fingerprint drift");
            assert_eq!(state_digest, rec.state_digest, "state digest drift");
        }
        other => panic!("replay: {other:?}"),
    }

    // Ingest into a sealed session is a typed state error, not a panic.
    match client
        .call(&Request::IngestBlocks {
            session: id,
            chunk: vec![1, 2, 3],
            done: true,
        })
        .expect("call")
    {
        Response::Error { code: 1, message } => {
            assert!(message.contains("Replaying"), "got: {message}")
        }
        other => panic!("expected state error, got {other:?}"),
    }

    server.trigger_shutdown();
    server.join();
}

#[test]
fn store_backed_fleet_dedups_ingests_and_serves_open_stored() {
    let root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fleet-store");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            workers: 4,
            shutdown_token: "test-token".to_string(),
            store_root: Some(root.clone()),
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Record locally (fig1_hot: the block-rich family member), then
    // upload every run TWICE from concurrent clients — the store must
    // dedup the repeats while sessions ingest in parallel.
    let w = workload("fig1_hot");
    let runs: Vec<(u64, u64, Vec<u8>)> = (21u64..25)
        .map(|seed| {
            let spec = spec_for(&w, seed);
            let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
            let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
            (seed, rec.fingerprint, bytes)
        })
        .collect();
    let handles: Vec<_> = runs
        .iter()
        .cloned()
        .map(|(seed, _, bytes)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = FleetClient::connect(&addr).expect("connect");
                for _ in 0..2 {
                    let id = client.open("fig1_hot", seed).expect("open");
                    client.ingest_trace(id, &bytes).expect("ingest");
                    client.call(&Request::Close { session: id }).expect("close");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("uploader");
    }

    // Server-side Record also lands in the store — verified first-hand.
    let mut client = FleetClient::connect(&addr).expect("connect");
    let rec_session = client.open("fig1_cd", 3).expect("open");
    let recorded_fp = match client
        .call(&Request::Record {
            session: rec_session,
        })
        .expect("record")
    {
        Response::Recorded { fingerprint, .. } => fingerprint,
        other => panic!("record: {other:?}"),
    };

    // The store converged 8 uploads of 4 runs into 4 entries (puts=2
    // each, fingerprint 0: ingest is unverified) plus the record.
    let store = server.manager().store().expect("store attached").clone();
    let entries = store.entries().expect("catalog");
    assert_eq!(entries.len(), 5);
    for e in &entries {
        if e.workload == "fig1_hot" {
            assert_eq!(e.puts, 2, "both uploads converged");
            assert_eq!(e.fingerprint, 0, "ingest stores unverified");
        } else {
            assert_eq!(e.workload, "fig1_cd");
            assert_eq!(e.fingerprint, recorded_fp, "record stores verified");
        }
    }

    // OpenStored serves each run out of shared blocks; replay must hit
    // the locally recorded fingerprint exactly.
    for (seed, fp, _) in &runs {
        let e = entries
            .iter()
            .find(|e| e.workload == "fig1_hot" && e.seed == *seed)
            .expect("entry for seed");
        let sid = client.open_stored(&e.identity()).expect("open_stored");
        match client.call(&Request::Replay { session: sid }).expect("replay") {
            Response::Replayed {
                fingerprint, clean, ..
            } => {
                assert!(clean, "seed {seed}: desyncs replaying from store");
                assert_eq!(fingerprint, *fp, "seed {seed}: fingerprint drift");
            }
            other => panic!("replay: {other:?}"),
        }
    }

    // The stats surface carries the store counters.
    let stats = client.stats().expect("stats");
    let doc = codec::Json::parse(&stats).expect("canonical stats json");
    let counters = doc.field("store").unwrap().field("counters").unwrap();
    let counter = |k: &str| counters.field(k).unwrap().as_u64().unwrap();
    assert!(counter("store.blocks_deduped") > 0, "repeat uploads dedup");
    assert!(counter("store.blocks_stored") > 0);
    assert!(counter("store.checkpoint_misses") > 0, "open_stored decoded blocks");

    // An unknown entry is a typed error, not a panic.
    match client
        .call(&Request::OpenStored {
            entry: "f".repeat(32),
        })
        .expect("call")
    {
        Response::Error { code: 1, .. } => {}
        other => panic!("expected error, got {other:?}"),
    }

    server.trigger_shutdown();
    server.join();
}

/// ROADMAP item 8's fleet spelling of the store's four-writer case: one
/// connection `Record`s a run while three upload the same run, all sealing
/// at once. The catalog counts four puts and keeps the fingerprint only
/// the `Record` knew.
#[test]
fn four_connections_sealing_one_run_merge_into_one_store_entry() {
    let root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fleet-four-writers");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            workers: 4,
            shutdown_token: "test-token".to_string(),
            store_root: Some(root),
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let store = server.manager().store().expect("store attached").clone();

    let w = workload("fig1_cd");
    for seed in 40u64..48 {
        let (rec, trace) = record_run(&spec_for(&w, seed), w.natives, SymmetryConfig::full(), true);
        let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
        let gate = std::sync::Arc::new(std::sync::Barrier::new(4));
        let sealers: Vec<_> = (0..4)
            .map(|i| {
                let (addr, gate, bytes) = (addr.clone(), gate.clone(), bytes.clone());
                std::thread::spawn(move || {
                    let mut client = FleetClient::connect(&addr).expect("connect");
                    let id = client.open("fig1_cd", seed).expect("open");
                    gate.wait();
                    if i == 0 {
                        let sealed = client.call(&Request::Record { session: id });
                        assert!(matches!(sealed, Ok(Response::Recorded { .. })), "{sealed:?}");
                    } else {
                        client.ingest_trace(id, &bytes).expect("ingest");
                    }
                })
            })
            .collect();
        sealers.into_iter().for_each(|s| s.join().expect("sealer"));
        let entries = store.entries().expect("catalog");
        let e = entries.iter().find(|e| e.seed == seed).expect("entry for seed");
        assert_eq!((e.puts, e.fingerprint), (4, rec.fingerprint), "seed {seed}");
    }

    server.trigger_shutdown();
    server.join();
}

#[test]
fn unknown_session_and_bad_workload_are_typed_errors() {
    let server = start_server(2);
    let addr = server.addr().to_string();
    let mut client = FleetClient::connect(&addr).expect("connect");

    match client
        .call(&Request::Replay { session: 999 })
        .expect("call")
    {
        Response::Error { code: 1, message } => assert!(message.contains("999")),
        other => panic!("expected error, got {other:?}"),
    }
    match client
        .call(&Request::Open {
            workload: "no_such_workload".to_string(),
            seed: 1,
        })
        .expect("call")
    {
        Response::Error { code: 1, .. } => {}
        other => panic!("expected error, got {other:?}"),
    }

    server.trigger_shutdown();
    server.join();
}

#[test]
fn shutdown_is_token_gated_and_clean() {
    let server = start_server(2);
    let addr = server.addr().to_string();

    let mut client = FleetClient::connect(&addr).expect("connect");
    assert!(
        !client.shutdown("wrong-token").expect("call"),
        "wrong token must be refused"
    );
    // The connection survives a refused shutdown.
    let id = client.open("fig1_ab", 1).expect("open after refusal");
    assert!(id > 0);

    assert!(client.shutdown("test-token").expect("call"), "right token");
    server.join(); // would hang forever if shutdown didn't propagate
}

#[test]
fn dropped_peer_mid_frame_does_not_kill_the_server() {
    let server = start_server(2);
    let addr = server.addr();

    // Half a hello, then hang up.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"DJ").unwrap();
    drop(s);
    // A full hello with a bogus frame length, then hang up.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(&fleet::wire::hello_bytes()).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    drop(s);
    std::thread::sleep(Duration::from_millis(100));

    // Server still answers real clients.
    let mut client = FleetClient::connect(&addr.to_string()).expect("connect after abuse");
    assert!(client.open("fig1_ab", 1).is_ok());

    server.trigger_shutdown();
    server.join();
}

/// A hosted `fig1_hot` replay takes a checkpoint every 5 000 steps, a
/// couple of hundred of them; each holds the words the guest has written,
/// not the whole heap image, so one small `Replay` frame cannot pin
/// gigabytes of checkpoints — and the replay still lands on the recorded
/// fingerprint.
#[test]
fn a_hosted_heavy_replay_holds_checkpoints_sized_to_the_guest() {
    let server = start_server(1);
    let mut client = FleetClient::connect(&server.addr().to_string()).expect("connect");
    let id = client.open("fig1_hot", 5).expect("open");
    let recorded = match client
        .call(&Request::Record { session: id })
        .expect("record")
    {
        Response::Recorded { fingerprint, .. } => fingerprint,
        other => panic!("record: {other:?}"),
    };
    match client
        .call(&Request::Replay { session: id })
        .expect("replay")
    {
        Response::Replayed {
            fingerprint, clean, ..
        } => {
            assert!(clean, "desyncs replaying a hosted record");
            assert_eq!(fingerprint, recorded, "fingerprint drift");
        }
        other => panic!("replay: {other:?}"),
    }
    let DbgResponse::Metrics { json } = client.debug(id, &Command::Metrics).unwrap() else {
        panic!("expected metrics");
    };
    let doc = codec::Json::parse(&json).expect("canonical metrics json");
    let counters = doc.field("session").unwrap().field("counters").unwrap();
    let counter = |k: &str| counters.field(k).unwrap().as_u64().unwrap();
    let (checkpoints, bytes) = (counter("checkpoints"), counter("checkpoint_bytes"));
    assert!(checkpoints > 100, "only {checkpoints} checkpoints");
    assert!(
        bytes < 64 << 20,
        "{checkpoints} checkpoints hold {bytes} bytes"
    );

    server.trigger_shutdown();
    server.join();
}

/// E9's three tiers over the one wire: application VM (replayed inside
/// the server) / fleet server / `FleetClient` standing in for the GUI.
#[test]
fn three_tier_debug_over_fleet() {
    // A worker serves one connection at a time: two clients and one raw
    // connection.
    let server = start_server(3);
    let addr = server.addr().to_string();
    let w = workload("racy_counter");
    let spec = spec_for(&w, 9);
    let (truth, _) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let method = spec.program.method_id_by_name("worker").unwrap();

    let mut a = FleetClient::connect(&addr).expect("client A");
    let mut b = FleetClient::connect(&addr).expect("client B");
    let id = a.open("racy_counter", 9).expect("open");
    let recorded = a.call(&Request::Record { session: id }).expect("record");
    assert!(matches!(recorded, Response::Recorded { .. }), "{recorded:?}");

    let stop_reason = |r: DbgResponse| match r {
        DbgResponse::Stopped { reason, .. } => reason,
        other => panic!("expected stopped, got {other:?}"),
    };
    assert_eq!(
        a.debug(id, &Command::Break { method, pc: 0 }).unwrap(),
        DbgResponse::Ok
    );
    let reason = stop_reason(a.debug(id, &Command::Continue).unwrap());
    assert!(matches!(reason, StopReason::Breakpoint { .. }), "{reason:?}");
    // The second client sees the same stopped session and drives it too:
    // both connections make progress, serialized by the session lock.
    let DbgResponse::Threads { threads } = b.debug(id, &Command::Threads).unwrap() else {
        panic!("expected threads");
    };
    let tid = threads.iter().find(|t| t.status == "running").unwrap().tid;
    let DbgResponse::Stack { frames } = a.debug(id, &Command::Stack { tid }).unwrap() else {
        panic!("expected stack");
    };
    assert_eq!(frames[0].method_name, "worker");
    for cmd in [Command::Step, Command::StepBack] {
        stop_reason(b.debug(id, &cmd).unwrap());
    }

    // A frame carrying a command tag no command has is a typed wire
    // error; the session survives.
    let mut garbled = Request::Debug {
        session: id,
        command: Command::Threads,
    }
    .encode();
    *garbled.last_mut().unwrap() = 0xEE;
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(&fleet::wire::hello_bytes()).unwrap();
    raw.read_exact(&mut [0; 5]).unwrap();
    fleet::wire::write_frame(&mut raw, &garbled).unwrap();
    let answer = fleet::wire::read_frame(&mut raw).unwrap();
    drop(raw);
    match Response::decode(&answer).unwrap() {
        Response::Error { code: 1, message } => {
            assert_eq!(message, WireError::BadTag(0xEE).to_string())
        }
        other => panic!("expected error, got {other:?}"),
    }
    // So is a well-formed command naming a thread or method the run never
    // had: a debugger-level error, not a panicked worker.
    for wild in [
        Command::Stack { tid: 4_000_000 },
        Command::Disassemble { method: 4_000_000 },
    ] {
        let r = b.debug(id, &wild).unwrap();
        assert!(matches!(r, DbgResponse::Error { .. }), "{r:?}");
    }
    // And `inspect` of an address that is no object (17 is the length
    // word inside a boot-image array, u64::MAX is outside the space).
    for addr in [17, u64::MAX] {
        assert_eq!(
            b.debug(id, &Command::Inspect { addr }).unwrap(),
            DbgResponse::Object {
                description: format!("<bad address {addr}>")
            }
        );
    }

    assert_eq!(
        b.debug(id, &Command::ClearBreak { method, pc: 0 }).unwrap(),
        DbgResponse::Ok
    );
    let reason = stop_reason(a.debug(id, &Command::Continue).unwrap());
    assert_eq!(reason, StopReason::Halted);
    drop(a); // sessions outlive connections
    let DbgResponse::Output { text } = b.debug(id, &Command::Output).unwrap() else {
        panic!("expected output");
    };
    assert_eq!(text, truth.output, "debugging must not perturb the replay");

    server.trigger_shutdown();
    server.join();
}

/// Each debugger command is timed under its own `rpc.debug.<cmd>` key,
/// named as the CLI spells it; there is no catch-all `rpc.debug`.
#[test]
fn each_debug_command_is_timed_under_its_own_key() {
    let server = start_server(1);
    let mut client = FleetClient::connect(&server.addr().to_string()).expect("connect");
    let id = client.open("fig1_ab", 3).expect("open");
    let recorded = client.call(&Request::Record { session: id }).expect("record");
    assert!(matches!(recorded, Response::Recorded { .. }), "{recorded:?}");
    let read = client.debug(id, &Command::Read { addr: 0, n: 2 }).unwrap();
    assert!(matches!(read, DbgResponse::Words { .. }), "{read:?}");
    let threads = client.debug(id, &Command::Threads).unwrap();
    assert!(matches!(threads, DbgResponse::Threads { .. }), "{threads:?}");

    let doc = codec::Json::parse(&client.stats().expect("stats")).unwrap();
    let histograms = doc.field("rpc").unwrap().field("histograms").unwrap();
    for key in ["rpc.debug.read", "rpc.debug.threads"] {
        let count = histograms.field(key).and_then(|h| h.field("count")).unwrap();
        assert_eq!(count.as_u64().unwrap(), 1, "{key}");
    }
    assert!(histograms.get("rpc.debug").is_none());

    server.trigger_shutdown();
    server.join();
}

/// The paper's split (§3.2, §4): the tool, in its own process, reads the
/// paused application's memory word by word over the one wire, and runs
/// the reflection methods itself. Every word of a hosted session paused
/// mid-run reads as the same word of a local replay stopped at the same
/// step, and the Figure-3 query run *here* over those reads answers what
/// the server's own `stack` command answers.
#[test]
fn a_client_side_reflector_reads_a_hosted_replay_word_for_word() {
    let server = start_server(2);
    let addr = server.addr().to_string();
    let (w, seed, step) = (workload("producer_consumer"), 4, 3_000);
    let spec = spec_for(&w, seed);
    let (_, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let mut local = DebugSession::new(&spec, trace, Vec::new());
    local.seek(step);
    assert!(local.vm().status.is_running(), "paused mid-run");
    let truth = LocalVmMemory::new(local.vm());

    let mut client = FleetClient::connect(&addr).expect("connect");
    let id = client.open(w.name, seed).expect("open");
    let recorded = client.call(&Request::Record { session: id }).expect("record");
    assert!(matches!(recorded, Response::Recorded { .. }), "{recorded:?}");
    let sought = client.debug(id, &Command::Seek { step }).unwrap();
    assert!(matches!(sought, DbgResponse::Stopped { step: at, .. } if at == step), "{sought:?}");

    let mut read = |addr, n| match client.debug(id, &Command::Read { addr, n }).unwrap() {
        DbgResponse::Words { words } => words,
        other => panic!("read {addr}+{n}: {other:?}"),
    };
    let total = local.vm().heap.total_words() as u64;
    for base in (0..total).step_by(MAX_READ_WORDS as usize) {
        let words = read(base, MAX_READ_WORDS);
        assert_eq!(words.len() as u64, MAX_READ_WORDS.min(total - base), "at {base}");
        for (addr, word) in (base..).zip(words) {
            assert_eq!(Some(word), truth.read_word(addr), "word {addr}");
        }
    }
    // Off the end of the space is a short read, not an error...
    assert_eq!(read(total - 1, 2).len(), 1);
    assert_eq!((read(u64::MAX, 1), truth.read_word(u64::MAX)), (vec![], None));
    // ...and past the cap is a typed one.
    let greedy = Command::Read {
        addr: 0,
        n: MAX_READ_WORDS + 1,
    };
    let refused = client.debug(id, &greedy).unwrap();
    assert!(matches!(refused, DbgResponse::Error { .. }), "{refused:?}");

    // Figure 3 from the client process. The boot-image address the tool
    // needs a priori comes from the same spec booted here (§3.3).
    let mem = FleetMemory::new(FleetClient::connect(&addr).expect("tool connection"), id);
    assert_eq!(mem.read_word(u64::MAX), None);
    let mut refl = RemoteReflector::new(spec.program.clone(), &mem);
    refl.map_boot_method_table(local.vm().boot_image.method_table);
    let mut lines = 0;
    for tid in 0..local.vm().threads.len() as u32 {
        let DbgResponse::Stack { frames } = client.debug(id, &Command::Stack { tid }).unwrap() else {
            panic!("expected stack");
        };
        for f in frames {
            assert_eq!(refl.line_number_of(f.method, f.pc).unwrap_or(-1), f.line, "{f:?}");
            lines += (f.line > 0) as usize;
        }
    }
    assert!(lines > 0, "no frame with a source line was compared");

    server.trigger_shutdown();
    server.join();
}
