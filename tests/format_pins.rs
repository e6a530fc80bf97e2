//! What version 2 of the trace formats changed, and what it did not.
//! A block's packing moved to the rANS coder, so `.djvb` bytes and store
//! records changed once; a run's identity did not — block digests are
//! over the raw payload and entry identity leaves the method out — so the
//! values the version 1 build computed for a fixed run still hold. And a
//! version 1 file or record is refused with a typed error (CLI exit 1),
//! not decoded by a second path. And the trace sizes E5 reports are
//! pinned at the values the deleted flat encoder measured.

use dejavu_repro::baselines::trace_size_comparison;
use dejavu_repro::codec::{digest128, get_varint};
use dejavu_repro::dejavu::{
    encode_trace, ingest_bytes, record_run, BlockFile, DataRec, ExecSpec, SwitchRec,
    SymmetryConfig, Trace, TraceError, TraceFormat, DEFAULT_BLOCK_BUDGET,
};
use dejavu_repro::fleet::spec_for;
use dejavu_repro::store::Store;
use std::path::{Path, PathBuf};
use std::process::Command;

mod segments;

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
    // The segment with the v1 record in the v2 record's frame, its commit
    // re-sealed over the new bytes.
    let [seg] = &segments::files(&root)[..] else {
        panic!("one segment expected");
    };
    let mut frames = segments::frames(&std::fs::read(seg).unwrap());
    let mut blocks = frames.iter_mut().filter(|(tag, _)| *tag == b'B');
    let (Some(block), None) = (blocks.next(), blocks.next()) else {
        panic!("one block record expected");
    };
    assert!(block.1.windows(16).any(|w| w == digest.0), "the v2 record echoes its digest");
    block.1 = record;
    std::fs::write(seg, segments::seal(&frames)).unwrap();
    let refused = format!("block {digest}: unsupported record version 1");
    let store = Store::open(&root).unwrap();
    for err in [
        store.get_bytes(&id).unwrap_err(),
        store.open_trace(&id).unwrap_err(),
    ] {
        assert_eq!(err.code(), 1, "{err}");
        assert!(err.to_string().contains(&refused), "{err}");
    }
    drop(store); // one store per root: the CLI's `store get` opens it next
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
    let _ = std::fs::remove_dir_all(&root);
}

/// Every size the trace-size model (E5) gives, as one line per run:
/// `Trace::stats()` for each registry workload at fleet seed 1, plain and
/// paranoid, then each row of the baseline comparison on the runs
/// `crates/baselines/tests/comparison.rs` checks the ordering of. The
/// model counts bytes without writing them, so these integers are the
/// only thing that says it still counts what it did.
fn trace_size_table() -> String {
    let mut out = String::new();
    for w in workloads::registry() {
        for paranoid in [false, true] {
            let (_, trace) = record_run(
                &spec_for(&w, 1),
                w.natives,
                SymmetryConfig::full(),
                paranoid,
            );
            out += &format!(
                "{} paranoid={paranoid} {}\n",
                w.name,
                trace.stats().to_json()
            );
        }
    }
    let comparison_runs = [
        ("racy_counter", 5),
        ("producer_consumer", 5),
        ("gc_churn", 5),
        ("bank_transfer", 5),
        ("producer_consumer", 3),
    ];
    for (name, seed) in comparison_runs {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let mut s = ExecSpec::new((w.build)()).with_seed(seed);
        s.timer_base = 2001;
        s.timer_jitter = 500;
        let r = trace_size_comparison(name, &s, w.natives);
        out += &format!(
            "{} seed={seed} steps={} dejavu={}/{} rc={}/{} ir={}/{} readlog={}/{}\n",
            r.workload,
            r.steps,
            r.dejavu_bytes,
            r.dejavu_switches,
            r.rc_bytes,
            r.rc_dispatches,
            r.ir_bytes,
            r.ir_accesses,
            r.readlog_bytes,
            r.readlog_reads
        );
    }
    out
}

const TRACE_SIZES: &str = r#"fig1_ab paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":1000,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":0,"switch_bytes":0,"switch_count":0,"total_bytes":7}
fig1_ab paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":1000,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":0,"switch_bytes":0,"switch_count":0,"total_bytes":7}
fig1_hot paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":125,"data_bytes":3,"native_bytes":0,"native_count":0,"raw_bytes":45032,"switch_bytes":5629,"switch_count":5629,"total_bytes":5637}
fig1_hot paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":166,"data_bytes":3,"native_bytes":0,"native_count":0,"raw_bytes":67548,"switch_bytes":11258,"switch_count":5629,"total_bytes":11266}
fig1_cd paranoid=false {"clock_bytes":4,"clock_count":1,"compression_permille":1222,"data_bytes":6,"native_bytes":0,"native_count":0,"raw_bytes":9,"switch_bytes":0,"switch_count":0,"total_bytes":11}
fig1_cd paranoid=true {"clock_bytes":4,"clock_count":1,"compression_permille":1222,"data_bytes":6,"native_bytes":0,"native_count":0,"raw_bytes":9,"switch_bytes":0,"switch_count":0,"total_bytes":11}
racy_counter paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":129,"data_bytes":3,"native_bytes":0,"native_count":0,"raw_bytes":1848,"switch_bytes":231,"switch_count":231,"total_bytes":239}
racy_counter paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":169,"data_bytes":3,"native_bytes":0,"native_count":0,"raw_bytes":2772,"switch_bytes":462,"switch_count":231,"total_bytes":470}
bank_transfer paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":132,"data_bytes":3,"native_bytes":0,"native_count":0,"raw_bytes":1136,"switch_bytes":142,"switch_count":142,"total_bytes":150}
bank_transfer paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":171,"data_bytes":3,"native_bytes":0,"native_count":0,"raw_bytes":1704,"switch_bytes":284,"switch_count":142,"total_bytes":292}
dining_philosophers paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":141,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":432,"switch_bytes":54,"switch_count":54,"total_bytes":61}
dining_philosophers paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":177,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":648,"switch_bytes":108,"switch_count":54,"total_bytes":115}
producer_consumer paranoid=false {"clock_bytes":76,"clock_count":19,"compression_permille":306,"data_bytes":78,"native_bytes":0,"native_count":0,"raw_bytes":339,"switch_bytes":21,"switch_count":21,"total_bytes":104}
producer_consumer paranoid=true {"clock_bytes":76,"clock_count":19,"compression_permille":295,"data_bytes":78,"native_bytes":0,"native_count":0,"raw_bytes":423,"switch_bytes":42,"switch_count":21,"total_bytes":125}
readers_writers paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":150,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":272,"switch_bytes":34,"switch_count":34,"total_bytes":41}
readers_writers paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":183,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":408,"switch_bytes":68,"switch_count":34,"total_bytes":75}
sleepy_workers paranoid=false {"clock_bytes":64,"clock_count":16,"compression_permille":493,"data_bytes":66,"native_bytes":0,"native_count":0,"raw_bytes":144,"switch_bytes":0,"switch_count":0,"total_bytes":71}
sleepy_workers paranoid=true {"clock_bytes":64,"clock_count":16,"compression_permille":493,"data_bytes":66,"native_bytes":0,"native_count":0,"raw_bytes":144,"switch_bytes":0,"switch_count":0,"total_bytes":71}
gc_churn paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":134,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":720,"switch_bytes":90,"switch_count":90,"total_bytes":97}
gc_churn paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":173,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":1080,"switch_bytes":180,"switch_count":90,"total_bytes":187}
server_loop paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":330,"data_bytes":413,"native_bytes":411,"native_count":80,"raw_bytes":1344,"switch_bytes":26,"switch_count":26,"total_bytes":444}
server_loop paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":324,"data_bytes":413,"native_bytes":411,"native_count":80,"raw_bytes":1448,"switch_bytes":52,"switch_count":26,"total_bytes":470}
matrix_sum paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":134,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":776,"switch_bytes":97,"switch_count":97,"total_bytes":104}
matrix_sum paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":172,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":1164,"switch_bytes":194,"switch_count":97,"total_bytes":201}
deep_recursion paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":133,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":848,"switch_bytes":106,"switch_count":106,"total_bytes":113}
deep_recursion paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":172,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":1272,"switch_bytes":212,"switch_count":106,"total_bytes":219}
barrier paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":166,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":168,"switch_bytes":21,"switch_count":21,"total_bytes":28}
barrier paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":194,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":252,"switch_bytes":42,"switch_count":21,"total_bytes":49}
lock_convoy paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":131,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":1008,"switch_bytes":126,"switch_count":126,"total_bytes":133}
lock_convoy paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":171,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":1512,"switch_bytes":252,"switch_count":126,"total_bytes":259}
gc_pressure paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":129,"data_bytes":3,"native_bytes":0,"native_count":0,"raw_bytes":1904,"switch_bytes":238,"switch_count":238,"total_bytes":246}
gc_pressure paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":169,"data_bytes":3,"native_bytes":0,"native_count":0,"raw_bytes":2856,"switch_bytes":476,"switch_count":238,"total_bytes":484}
native_heavy paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":283,"data_bytes":879,"native_bytes":876,"native_count":200,"raw_bytes":3192,"switch_bytes":22,"switch_count":22,"total_bytes":906}
native_heavy paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":282,"data_bytes":879,"native_bytes":876,"native_count":200,"raw_bytes":3280,"switch_bytes":44,"switch_count":22,"total_bytes":928}
clock_spin paranoid=false {"clock_bytes":1600,"clock_count":400,"compression_permille":421,"data_bytes":1603,"native_bytes":0,"native_count":0,"raw_bytes":3904,"switch_bytes":38,"switch_count":38,"total_bytes":1646}
clock_spin paranoid=true {"clock_bytes":1600,"clock_count":400,"compression_permille":415,"data_bytes":1603,"native_bytes":0,"native_count":0,"raw_bytes":4056,"switch_bytes":76,"switch_count":38,"total_bytes":1684}
recursion_storm paranoid=false {"clock_bytes":0,"clock_count":0,"compression_permille":138,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":536,"switch_bytes":67,"switch_count":67,"total_bytes":74}
recursion_storm paranoid=true {"clock_bytes":0,"clock_count":0,"compression_permille":175,"data_bytes":2,"native_bytes":0,"native_count":0,"raw_bytes":804,"switch_bytes":134,"switch_count":67,"total_bytes":141}
racy_counter seed=5 steps=39247 dejavu=44/19 rc=90/23 ir=7761/1602 readlog=6423/801
producer_consumer seed=5 steps=3798 dejavu=88/1 rc=320/116 ir=7038/1592 readlog=4015/490
gc_churn seed=5 steps=16005 dejavu=15/8 rc=36/11 ir=9704/2002 readlog=4023/501
bank_transfer seed=5 steps=24416 dejavu=19/12 rc=48/15 ir=19331/4363 readlog=5826/726
producer_consumer seed=3 steps=3806 dejavu=85/2 rc=307/111 ir=7049/1595 readlog=4019/491
"#;

#[test]
fn every_e5_trace_size_is_pinned() {
    let got = trace_size_table();
    for (i, (g, want)) in got.lines().zip(TRACE_SIZES.lines()).enumerate() {
        assert_eq!(g, want, "line {i}");
    }
    assert_eq!(got, TRACE_SIZES, "table length");
}
