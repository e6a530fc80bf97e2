//! What version 2 of the trace formats changed, and what it did not.
//! A block's packing moved to the rANS coder, so `.djvb` bytes and store
//! records changed once; a run's identity did not — block digests are
//! over the raw payload and entry identity leaves the method out — so the
//! values the version 1 build computed for a fixed run still hold. And a
//! version 1 file or record is refused with a typed error (CLI exit 1),
//! not decoded by a second path.

use dejavu_repro::codec::{digest128, get_varint};
use dejavu_repro::dejavu::{
    encode_trace, ingest_bytes, record_run, BlockFile, DataRec, SwitchRec, SymmetryConfig, Trace,
    TraceError, TraceFormat, DEFAULT_BLOCK_BUDGET,
};
use dejavu_repro::fleet::spec_for;
use dejavu_repro::store::Store;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("format-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
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

/// `fig1_hot` seed 5, a two-block run, against the values the version 1
/// build computed for it.
#[test]
fn a_runs_identity_is_what_version_1_made_it() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "fig1_hot")
        .unwrap();
    let (report, trace) = record_run(&spec_for(&w, 5), w.natives, SymmetryConfig::full(), true);
    assert_eq!(report.fingerprint, 0xbea8_5615_62fa_9c06);
    assert_eq!(report.state_digest, 0xfbf0_6f21_3ee3_3833);
    let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
    let file = BlockFile::parse(bytes.clone()).unwrap();
    let digests: Vec<String> = (0..file.index.len())
        .map(|i| digest128(&file.block_raw(i).unwrap()).hex())
        .collect();
    assert_eq!(
        digests,
        [
            "c8e61f4ae7894fe121b9a281f54cef57",
            "bd35a585686eec03a8644e9880a197c9"
        ]
    );
    let root = scratch("identity");
    let store = Store::open(&root).unwrap();
    let put = store
        .put_bytes("fig1_hot", 5, &bytes, report.fingerprint, "")
        .unwrap();
    assert_eq!(put.entry, "68b0ce5ee9f52250a5dca2702967b689");
    assert_eq!(store.get_bytes(&put.entry).unwrap(), bytes);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

/// 40 switches and a clock read, as the version 1 build wrote them: one
/// block, LZ77-packed (method byte 1).
const VERSION_1_FILE: &str = "444a564201008020000029282f13fa96d2ae0e010a28c8010001020304050621\
                              0704010054000108000029282f13fa96d2ae0e0d000000444a5649";

fn forty_switches() -> Trace {
    Trace {
        paranoid: false,
        switches: (0..40)
            .map(|i| SwitchRec {
                nyp: 200 + i % 7,
                check_tid: u32::MAX,
            })
            .collect(),
        data: vec![DataRec::Clock(42)],
    }
}

#[test]
fn a_version_1_file_is_a_typed_error_and_exit_1() {
    let v1 = unhex(VERSION_1_FILE);
    let refused = TraceError::UnsupportedVersion(1);
    assert_eq!(BlockFile::parse(v1.clone()).unwrap_err(), refused);
    assert_eq!(ingest_bytes(v1.clone()).unwrap_err(), refused);
    let dir = scratch("v1-file");
    let path = dir.join("v1.djvb");
    std::fs::write(&path, &v1).unwrap();
    let path = path.to_str().unwrap();
    let store = dir.join("store");
    for door in [
        &["trace", "inspect", path][..],
        &["replay", "racy_counter", "3", path],
        &[
            "store",
            "put",
            store.to_str().unwrap(),
            "racy_counter",
            "3",
            path,
            "--no-verify",
        ],
    ] {
        let (code, err) = cli(door);
        assert_eq!(code, 1, "{door:?}: {err}");
        assert!(err.contains(&refused.to_string()), "{door:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store record the version 1 build wrote for that file's block: the
/// same raw bytes under the same digest, its LZ77 stream behind a
/// version 1 header. Served in place of the version 2 record, `get` and
/// `open` refuse it by version.
#[test]
fn a_version_1_record_is_a_typed_error_and_exit_1() {
    let v1 = unhex(VERSION_1_FILE);
    let bytes = encode_trace(&forty_switches(), TraceFormat::Block, 4096);
    let raw = BlockFile::parse(bytes.clone())
        .unwrap()
        .block_raw(0)
        .unwrap();
    // The version 1 block header holds this content's length and CRC.
    let mut pos = 8; // past magic, version, paranoid byte and budget
    for _ in 0..4 {
        get_varint(&v1, &mut pos).unwrap(); // first_seq … switch_count
    }
    let v1_raw_len = get_varint(&v1, &mut pos).unwrap();
    get_varint(&v1, &mut pos).unwrap();
    let v1_crc = get_varint(&v1, &mut pos).unwrap();
    assert_eq!(
        (v1_raw_len, v1_crc),
        (raw.len() as u64, dejavu_repro::codec::crc32(&raw) as u64)
    );
    let digest = digest128(&raw);
    let record = [
        unhex("444a534201012f12fa96d2ae0e"),
        digest.0.to_vec(),
        unhex("0a28c8010001020304050621070401005400"),
    ]
    .concat();

    let root = scratch("v1-record");
    let store = Store::open(&root).unwrap();
    let id = store.put_bytes("w", 1, &bytes, 0, "").unwrap().entry;
    drop(store);
    let hex = digest.hex();
    let path = root
        .join("blocks")
        .join(&hex[..2])
        .join(format!("{hex}.blk"));
    assert!(path.exists());
    std::fs::write(&path, record).unwrap();
    let refused = format!("block {digest}: unsupported record version 1");
    let store = Store::open(&root).unwrap();
    for err in [
        store.get_bytes(&id).unwrap_err(),
        store.open_trace(&id).unwrap_err(),
    ] {
        assert_eq!(err.code(), 1, "{err}");
        assert!(err.to_string().contains(&refused), "{err}");
    }
    let out = root.join("back.djvb");
    let (code, err) = cli(&[
        "store",
        "get",
        root.to_str().unwrap(),
        &id,
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains(&refused), "{err}");
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}
