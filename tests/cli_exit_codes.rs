//! The documented exit-code contract, driven through the real binary:
//! `0` success / accurate / corpus pass, `1` usage, I/O, or corrupt
//! input, `2` divergence or policy violation — consistently, for every
//! subcommand, including hostile inputs (a panic would surface as 101).

use std::path::{Path, PathBuf};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dejavu-cli"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("cli-scratch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> (i32, String) {
    let out = cli().args(args).output().expect("spawn dejavu-cli");
    (
        out.status.code().expect("no exit code (killed by signal?)"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_1() {
    assert_eq!(run(&[]).0, 1);
    assert_eq!(run(&["no-such-subcommand"]).0, 1);
    assert_eq!(run(&["run", "no-such-workload"]).0, 1);
    assert_eq!(run(&["record", "racy_counter"]).0, 1); // missing args
    assert_eq!(run(&["check"]).0, 1);
    assert_eq!(run(&["corpus"]).0, 1);
    assert_eq!(run(&["replay", "racy_counter", "1", "/no/such/file"]).0, 1);
    // An argument the subcommand does not take is refused, not ignored:
    // a seed that is not an integer, a misspelled flag, an extra
    // positional.
    assert_eq!(run(&["run", "fig1_ab", "5x"]).0, 1);
    assert_eq!(run(&["neutrality", "racy_counter", "x7"]).0, 1);
    let dir = scratch("usage");
    let (trace, metrics) = (dir.join("t.djvb"), dir.join("m.json"));
    let (code, err) = run(&[
        "record",
        "fig1_ab",
        "5",
        trace.to_str().unwrap(),
        "--metric-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{err}");
    assert!(
        err.contains("unexpected argument \"--metric-out\""),
        "{err}"
    );
    assert_eq!(run(&["list", "extra"]).0, 1);
    assert_eq!(run(&["dis", "fig1_ab", "main", "extra"]).0, 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_inputs_exit_1_not_panic() {
    let dir = scratch("corrupt-inputs");
    // Corrupt variants: wrong magic, truncated block trace, random junk.
    let junk = dir.join("junk.djvb");
    std::fs::write(&junk, b"not a trace at all").unwrap();
    let trunc = dir.join("trunc.djvb");
    let (code, _) = run(&["record", "clock_spin", "1", trunc.to_str().unwrap()]);
    assert_eq!(code, 0);
    let bytes = std::fs::read(&trunc).unwrap();
    std::fs::write(&trunc, &bytes[..bytes.len() / 3]).unwrap();

    for f in [&junk, &trunc] {
        let f = f.to_str().unwrap();
        let (code, err) = run(&["replay", "clock_spin", "1", f]);
        assert_eq!(code, 1, "replay {f}: {err}");
        let (code, err) = run(&["trace", "inspect", f]);
        assert_eq!(code, 1, "inspect {f}: {err}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn replay_wrong_seed_exits_2() {
    let dir = scratch("wrong-seed");
    let trace = dir.join("t.djvb");
    assert_eq!(
        run(&["record", "racy_counter", "1", trace.to_str().unwrap()]).0,
        0
    );
    // Same trace, different seed: a divergence, not an I/O problem.
    let (code, err) = run(&["replay", "racy_counter", "2", trace.to_str().unwrap()]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("DIVERGED"), "{err}");
    // And the matching seed replays accurately.
    assert_eq!(
        run(&["replay", "racy_counter", "1", trace.to_str().unwrap()]).0,
        0
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn checkjson_contract() {
    let dir = scratch("checkjson");
    let invalid = dir.join("invalid.json");
    std::fs::write(&invalid, "{nope").unwrap();
    assert_eq!(run(&["checkjson", invalid.to_str().unwrap()]).0, 1);
    let non_canonical = dir.join("non_canonical.json");
    std::fs::write(&non_canonical, r#"{"b":1,"a":2}"#).unwrap();
    assert_eq!(run(&["checkjson", non_canonical.to_str().unwrap()]).0, 1);
    let canonical = dir.join("canonical.json");
    std::fs::write(&canonical, r#"{"a":2,"b":1}"#).unwrap();
    assert_eq!(run(&["checkjson", canonical.to_str().unwrap()]).0, 0);
    assert_eq!(run(&["checkjson", "/no/such/file.json"]).0, 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn store_subcommand_exit_classes() {
    let dir = scratch("store-classes");
    let root = dir.join("store");
    let trace = dir.join("t.djvb");
    assert_eq!(
        run(&["record", "racy_counter", "1", trace.to_str().unwrap()]).0,
        0
    );
    let root_s = root.to_str().unwrap();
    let trace_s = trace.to_str().unwrap();

    // Usage class.
    assert_eq!(run(&["store"]).0, 1);
    assert_eq!(run(&["store", "put", root_s]).0, 1);
    assert_eq!(run(&["store", "no-such-op", root_s]).0, 1);

    // Verified put: exit 0 and a canonical-JSON outcome with the entry id.
    let out = cli()
        .args(["store", "put", root_s, "racy_counter", "1", trace_s])
        .output()
        .expect("spawn dejavu-cli");
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let doc = dejavu_repro::codec::Json::parse(stdout.trim()).expect("put outcome json");
    let entry = doc.field("entry").unwrap().as_str().unwrap().to_string();
    // Repeated put of the same run dedups and still succeeds.
    assert_eq!(run(&["store", "put", root_s, "racy_counter", "1", trace_s]).0, 0);

    // Divergence class: claiming the wrong seed is exit 2, like `replay`.
    let (code, err) = run(&["store", "put", root_s, "racy_counter", "2", trace_s]);
    assert_eq!(code, 2, "{err}");

    // Corrupt-input class: junk bytes fail decode before cataloging.
    let junk = dir.join("junk.djvb");
    std::fs::write(&junk, b"not a trace").unwrap();
    assert_eq!(
        run(&["store", "put", root_s, "racy_counter", "1", junk.to_str().unwrap()]).0,
        1
    );

    // Reconstruction: byte-exact, exit 0; bogus entry id is exit 1.
    let back = dir.join("back.djvb");
    assert_eq!(
        run(&["store", "get", root_s, &entry, back.to_str().unwrap()]).0,
        0
    );
    assert_eq!(std::fs::read(&back).unwrap(), std::fs::read(&trace).unwrap());
    let bogus = "f".repeat(32);
    assert_eq!(
        run(&["store", "get", root_s, &bogus, back.to_str().unwrap()]).0,
        1
    );

    // Maintenance + stats on a healthy store: all exit 0.
    for op in ["ls", "gc", "compact", "stats"] {
        let (code, err) = run(&["store", op, root_s]);
        assert_eq!(code, 0, "store {op}: {err}");
    }

    // Injected block damage: get degrades to the corrupt class, no panic.
    let mut smashed = false;
    for shard in std::fs::read_dir(root.join("blocks")).unwrap() {
        for blk in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            std::fs::write(blk.unwrap().path(), b"").unwrap();
            smashed = true;
        }
    }
    assert!(smashed, "store held no block files");
    assert_eq!(
        run(&["store", "get", root_s, &entry, back.to_str().unwrap()]).0,
        1
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn check_subcommand_exit_classes() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    // Pass: the committed corpus.
    let (code, err) = run(&["check", src.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    // Missing / empty directory: I/O class.
    assert_eq!(run(&["check", "/no/such/corpus"]).0, 1);
    let empty = scratch("check-empty");
    assert_eq!(run(&["check", empty.to_str().unwrap()]).0, 1);

    // Injected corruption: class 1. Injected policy mismatch: class 2.
    let dir = scratch("check-inject");
    for entry in std::fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let victim = dir.join("recursion_storm_s1.djvb");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 7]).unwrap();
    assert_eq!(run(&["check", dir.to_str().unwrap()]).0, 1);
    // Restore the trace, then poison a policy digest.
    std::fs::write(&victim, &bytes).unwrap();
    let policy_path = dir.join("lock_convoy_s7.policy.json");
    let mut policy =
        dejavu_repro::corpus::Policy::parse(&std::fs::read_to_string(&policy_path).unwrap())
            .unwrap();
    policy.expected_state_digest ^= 1;
    std::fs::write(&policy_path, policy.to_canonical_string()).unwrap();
    let (code, err) = run(&["check", dir.to_str().unwrap()]);
    assert_eq!(code, 2, "{err}");
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(empty);
}
