//! DJVB is the only trace anyone reads back. The flat `DJV1` bytes older
//! builds wrote are refused at every door that takes serialized trace
//! bytes, with the same typed error and never a second decoder; so is a
//! DJVB file framed any other way than the one writer frames it; and
//! what the fleet stores for a run it recorded itself is the same DJVB
//! file, under the same catalog identity, as a client uploading that
//! run.

use dejavu_repro::dejavu::{
    encode_trace, ingest_bytes, record_run, BlockFile, SymmetryConfig, TraceError, TraceFormat,
    DEFAULT_BLOCK_BUDGET,
};
use dejavu_repro::fleet::{spec_for, Request, Response, SessionManager};
use dejavu_repro::store::{Store, StoreError};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("read-doors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Exit code and stderr of one `dejavu-cli` invocation.
fn cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dejavu-cli"))
        .args(args)
        .output()
        .expect("spawn dejavu-cli");
    (
        out.status.code().expect("no exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn workload(name: &str) -> workloads::Workload {
    let found = workloads::registry().into_iter().find(|w| w.name == name);
    found.expect("workload in registry")
}

/// The CLI doors: exit 1, the library's message.
fn cli_refuses(doors: &[&[&str]], refused: &TraceError) {
    for door in doors {
        let (code, err) = cli(door);
        assert_eq!(code, 1, "{door:?}: {err}");
        assert!(err.contains(&refused.to_string()), "{door:?}: {err}");
    }
}

/// The fleet door, on a `racy_counter` session: `bad` is error code 1 with
/// the library's message and leaves the session in `Recording`, where it
/// takes the honest file and replays it to the recorded run.
fn fleet_refuses_then_replays(seed: u64, bad: &[u8], refused: &TraceError, djvb: &[u8], want: u64) {
    let fleet = SessionManager::new();
    let id = fleet.open("racy_counter", seed).unwrap();
    match fleet.dispatch(ingest(id, bad)) {
        Response::Error { code: 1, message } => {
            assert!(message.contains(&refused.to_string()), "{message}")
        }
        other => panic!("refused upload: {other:?}"),
    }
    assert_eq!(fleet.get(id).unwrap().lock().unwrap().phase.name(), "Recording");
    let retried = fleet.dispatch(ingest(id, djvb));
    assert!(matches!(retried, Response::Ingested { .. }), "{retried:?}");
    match fleet.dispatch(Request::Replay { session: id }) {
        Response::Replayed {
            fingerprint, clean, ..
        } => assert!(clean && fingerprint == want),
        other => panic!("replay after retry: {other:?}"),
    }
}

fn ingest(session: u64, bytes: &[u8]) -> Request {
    Request::IngestBlocks {
        session,
        chunk: bytes.to_vec(),
        done: true,
    }
}

#[test]
fn flat_bytes_are_one_typed_error_at_every_read_door() {
    let dir = scratch("flat");
    let w = workload("racy_counter");
    let spec = spec_for(&w, 3);
    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    // A paranoid flat trace: two (nyp, tid) switches and one clock read.
    let flat = b"DJV1\x01\x02\xc8\x01\x00\x96\x01\x01\x01\x00\x54".to_vec();
    let djvb = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
    let refused = TraceError::NotATrace;

    // The library doors.
    assert_eq!(ingest_bytes(flat.clone()).unwrap_err(), refused);
    let store = Store::open(&dir.join("store")).unwrap();
    let err = store.put_bytes("racy_counter", 3, &flat, 0, "").unwrap_err();
    assert_eq!(err, StoreError::Trace(refused.clone()));
    assert_eq!(err.code(), 1);

    fleet_refuses_then_replays(3, &flat, &refused, &djvb, rec.fingerprint);

    // The CLI doors: exit 1, same message.
    let file = dir.join("flat.djv1");
    std::fs::write(&file, &flat).unwrap();
    let (file, root) = (file.to_str().unwrap(), dir.join("cli-store"));
    let doors: [&[&str]; 4] = [
        &["replay", "racy_counter", "3", file],
        &["profile", "racy_counter", "3", file],
        &["store", "put", root.to_str().unwrap(), "racy_counter", "3", file],
        &["trace", "inspect", file],
    ];
    cli_refuses(&doors, &refused);
    let _ = std::fs::remove_dir_all(dir);
}

/// A DJVB file has one spelling. The two re-framings of a recorded run
/// that the store used to catalog — paranoid byte `02`, and the budget
/// varint padded to `80 a0 00` with the block's footer offset bumped to
/// match — are one typed error at every door, and change nothing behind
/// it.
#[test]
fn respelled_files_are_one_typed_error_at_every_read_door() {
    let dir = scratch("respelled");
    let w = workload("fig1_cd");
    let spec = spec_for(&w, 5);
    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let djvb = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
    let footer_len = u32::from_le_bytes(djvb[djvb.len() - 8..djvb.len() - 4].try_into().unwrap());
    let offset_at = djvb.len() - 8 - footer_len as usize + 1; // past the block count
    assert_eq!(djvb[5..8], [0x01, 0x80, 0x20], "paranoid, budget 4096");
    assert_eq!(djvb[offset_at], 8, "one block, right after the 8-byte header");
    let mut paranoid_two = djvb.clone();
    paranoid_two[5] = 0x02;
    let mut padded_budget = djvb.clone();
    padded_budget[offset_at] = 9;
    padded_budget.splice(6..8, [0x80, 0xa0, 0x00]);

    let root = dir.join("store");
    let honest = Store::open(&root)
        .unwrap()
        .put_bytes("fig1_cd", 5, &djvb, rec.fingerprint, "")
        .unwrap();
    let crafted = [("paranoid2", paranoid_two), ("padded", padded_budget)];
    // The CLI doors: exit 1, same message. They run first, while no
    // `Store` in this process holds the root.
    for (name, bytes) in &crafted {
        let refused = BlockFile::parse(bytes.clone()).unwrap_err();
        let file = dir.join(format!("{name}.djvb"));
        std::fs::write(&file, bytes).unwrap();
        let file = file.to_str().unwrap();
        let doors: [&[&str]; 4] = [
            &["replay", "fig1_cd", "5", file],
            &["store", "put", root.to_str().unwrap(), "fig1_cd", "5", file],
            &["store", "put", root.to_str().unwrap(), "fig1_cd", "5", file, "--no-verify"],
            &["trace", "inspect", file],
        ];
        cli_refuses(&doors, &refused);
    }
    let store = Arc::new(Store::open(&root).unwrap());
    let mut fleet = SessionManager::new();
    fleet.set_store(Arc::clone(&store));
    let id = fleet.open("fig1_cd", 5).unwrap();
    for (name, bytes) in crafted {
        // The library doors.
        let refused = BlockFile::parse(bytes.clone()).unwrap_err();
        assert!(matches!(refused, TraceError::Corrupt(_)), "{name}: {refused}");
        assert_eq!(ingest_bytes(bytes.clone()).unwrap_err(), refused, "{name}");
        let err = store.put_bytes("fig1_cd", 5, &bytes, 0, "").unwrap_err();
        assert_eq!(err, StoreError::Trace(refused.clone()), "{name}");

        // The fleet door: refused before the session seals, so nothing
        // reaches the store and the session takes the honest file next.
        match fleet.dispatch(ingest(id, &bytes)) {
            Response::Error { code: 1, message } => {
                assert!(message.contains(&refused.to_string()), "{name}: {message}")
            }
            other => panic!("{name} upload: {other:?}"),
        }
        assert_eq!(fleet.get(id).unwrap().lock().unwrap().phase.name(), "Recording");

        // Nothing behind the doors, the CLI's included, moved.
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1, "{name} was cataloged");
        assert_eq!((entries[0].puts, entries[0].file_bytes), (1, djvb.len() as u64));
        assert_eq!(store.get_bytes(&honest.entry).unwrap(), djvb, "{name}");
    }
    let sealed = fleet.dispatch(ingest(id, &djvb));
    assert!(matches!(sealed, Response::Ingested { .. }), "{sealed:?}");
    let _ = std::fs::remove_dir_all(dir);
}

/// A switch record zero yield points after the last one is not a trace:
/// a preemptive switch is taken *at* a counted yield point (Fig. 2), so a
/// recorder never logs one, and a replayer would count it down past zero
/// (a dead fleet worker in a debug build; in a release build a "clean"
/// replay to some other run's state). The writer frames such a file
/// faithfully, so it is refused where events are decoded — every door
/// that leads to a replay. The two doors that move bytes without decoding
/// them (`trace inspect`, an unverified store put) treat it like any
/// other payload, and the store's read side refuses it.
#[test]
fn a_zero_yield_point_delta_is_refused_at_every_door_that_decodes_events() {
    let dir = scratch("zero-delta");
    let w = workload("racy_counter");
    let spec = spec_for(&w, 7);
    let (rec, mut trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let djvb = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
    trace.switches[1].nyp = 0;
    let crafted = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);

    // The library doors.
    let refused = ingest_bytes(crafted.clone()).unwrap_err();
    assert!(matches!(refused, TraceError::Corrupt(_)), "{refused}");
    let bf = BlockFile::parse(crafted.clone()).expect("the framing is the writer's own");
    assert_eq!(bf.verify().unwrap_err(), refused);
    let store = Store::open(&dir.join("store")).unwrap();
    let unread = store.put_bytes("racy_counter", 7, &crafted, 0, "").unwrap();
    let err = store.open_trace(&unread.entry).unwrap_err();
    assert_eq!(err, StoreError::Trace(refused.clone()));
    assert_eq!(err.code(), 1);

    fleet_refuses_then_replays(7, &crafted, &refused, &djvb, rec.fingerprint);

    // The CLI doors: exit 1, same message.
    let file = dir.join("zero-delta.djvb");
    std::fs::write(&file, &crafted).unwrap();
    let (file, root) = (file.to_str().unwrap(), dir.join("cli-store"));
    let doors: [&[&str]; 3] = [
        &["replay", "racy_counter", "7", file],
        &["profile", "racy_counter", "7", file],
        &["store", "put", root.to_str().unwrap(), "racy_counter", "7", file],
    ];
    cli_refuses(&doors, &refused);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_fleet_record_and_an_upload_of_the_same_run_share_one_store_entry() {
    let dir = scratch("identity");
    let root = dir.join("store");
    let store = Arc::new(Store::open(&root).unwrap());
    let mut fleet = SessionManager::new();
    fleet.set_store(Arc::clone(&store));

    let recorded = fleet.open("fig1_cd", 3).unwrap();
    let Response::Recorded { fingerprint, .. } =
        fleet.dispatch(Request::Record { session: recorded })
    else {
        panic!("record failed");
    };
    let entries = store.entries().unwrap();
    assert_eq!(entries.len(), 1);
    let id = entries[0].identity();

    // What the server stored is a DJVB file the CLI reads back, once the
    // server's store lets go of the root.
    drop((fleet, store));
    let back = dir.join("back.djvb");
    let (root_s, back) = (root.to_str().unwrap(), back.to_str().unwrap());
    assert_eq!(cli(&["store", "get", root_s, &id, back]).0, 0);
    let (code, err) = cli(&["replay", "fig1_cd", "3", back]);
    assert_eq!(code, 0, "{err}");
    let store = Arc::new(Store::open(&root).unwrap());
    let mut fleet = SessionManager::new();
    fleet.set_store(Arc::clone(&store));

    // A client recording the same run and uploading it converges on the
    // same entry; the first-hand fingerprint survives the unverified put.
    let w = workload("fig1_cd");
    let (_, trace) = record_run(&spec_for(&w, 3), w.natives, SymmetryConfig::full(), true);
    let djvb = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
    assert_eq!(std::fs::read(back).unwrap(), djvb);
    let uploaded = fleet.open("fig1_cd", 3).unwrap();
    let sealed = fleet.dispatch(ingest(uploaded, &djvb));
    assert!(matches!(sealed, Response::Ingested { .. }), "{sealed:?}");
    let entries = store.entries().unwrap();
    assert_eq!(entries.len(), 1, "upload landed on a second entry");
    assert_eq!(entries[0].identity(), id);
    assert_eq!(entries[0].puts, 2);
    assert_eq!(entries[0].fingerprint, fingerprint);
    let _ = std::fs::remove_dir_all(dir);
}
