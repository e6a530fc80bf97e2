//! Fuzz oracle for the trace-store read path: build a real store with
//! `put_bytes`, apply seeded byte mutations — bit flips, truncations,
//! overwrites, insertions — to one on-disk artifact (a catalog manifest,
//! a block record, or the heat file), then drive every read entry point
//! and assert "typed `StoreError` or success, never panic".
//!
//! Same contract the DJVB fuzz gives the corpus gate: a corrupt store
//! must surface as exit 1 from the CLI, and that only holds if nothing
//! in `open`/`get_bytes`/`open_trace`/`gc`/`compact` can abort.
//!
//! The write path gets the oracle the store documents: whatever
//! `put_bytes` accepts of this build's packing, `get_bytes` hands back
//! byte for byte; a foreign packing it may serve as the same content or
//! a typed error (the limit in the `store` crate docs) — and no upload
//! changes what an earlier one gets back.

use dejavu_repro::dejavu::{
    encode_trace, BlockFile, DataRec, Packed, SwitchRec, Trace, TraceFormat,
};
use dejavu_repro::qc::{check, Gen};
use dejavu_repro::qc_assert;
use dejavu_repro::store::{Store, DEFAULT_COLD_THRESHOLD};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// A structurally valid random trace: the corpus the store is seeded with.
fn gen_trace(g: &mut Gen) -> Trace {
    let paranoid = g.bool();
    let switches = g.vec_of(1, 30, |g| SwitchRec {
        nyp: g.u64_in(1, 50_000),
        check_tid: if paranoid {
            g.u64_in(0, 5) as u32
        } else {
            u32::MAX
        },
    });
    let data = g.vec_of(0, 20, |g| {
        if g.bool() {
            DataRec::Clock(g.i64_in(-5, 2_000_000))
        } else {
            DataRec::Native {
                ret: g.any_i64(),
                callbacks: vec![],
            }
        }
    });
    Trace {
        paranoid,
        switches,
        data,
    }
}

/// Apply one seeded mutation to `bytes` (no-op on empty input).
fn mutate(g: &mut Gen, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    match g.usize_in(0, 3) {
        0 => {
            let i = g.usize_in(0, bytes.len() - 1);
            bytes[i] ^= 1 << g.usize_in(0, 7);
        }
        1 => {
            let i = g.usize_in(0, bytes.len() - 1);
            bytes[i] = [0x00, 0xFF, 0x7F, 0x80][g.usize_in(0, 3)];
        }
        2 => {
            let keep = g.usize_in(0, bytes.len() - 1);
            bytes.truncate(keep);
        }
        _ => {
            let i = g.usize_in(0, bytes.len());
            bytes.insert(i, g.u64_in(0, 255) as u8);
        }
    }
}

/// Every regular file under `root`, sorted for seed determinism.
fn store_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Seed a fresh store with a couple of runs; returns the catalog ids.
fn seed_store(g: &mut Gen, root: &Path) -> Vec<String> {
    let store = Store::open(root).expect("open fresh store");
    let runs = g.usize_in(1, 3);
    let mut ids = Vec::new();
    for i in 0..runs {
        let trace = gen_trace(g);
        let budget = [24, 48, 4096][g.usize_in(0, 2)];
        let bytes = encode_trace(&trace, TraceFormat::Block, budget);
        let out = store
            .put_bytes(
                ["wa", "wb", "wc"][i],
                g.u64_in(0, 9),
                &bytes,
                g.u64_in(1, u64::MAX),
                "",
            )
            .expect("seed put");
        ids.push(out.entry);
    }
    drop(store); // flush heat + caches so the mutation hits cold state
    ids
}

/// Drive every read/maintenance entry point; the closure's only job is
/// to not panic — every failure must be a typed `StoreError`.
fn exercise_store(root: &Path, ids: &[String]) {
    let Ok(store) = Store::open(root) else {
        return;
    };
    if let Ok(entries) = store.entries() {
        for e in &entries {
            let _ = store.entry(&e.identity());
        }
    }
    for id in ids {
        if let Ok(bytes) = store.get_bytes(id) {
            let _ = bytes.len();
        }
        if let Ok(stored) = store.open_trace(id) {
            let _ = stored.trace.stats();
            let _ = stored.boundaries.len();
        }
    }
    let _ = store.disk_stats();
    let _ = store.gc();
    let _ = store.compact(DEFAULT_COLD_THRESHOLD);
}

#[test]
fn mutated_store_files_never_panic() {
    let base = std::env::temp_dir().join(format!("djv-store-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut iter = 0u64;
    check("mutated_store_files_never_panic", 120, |g| {
        iter += 1;
        let root = base.join(format!("it{iter}"));
        let ids = seed_store(g, &root);

        // Mutate one on-disk artifact — catalog manifest, block record,
        // or heat file — with 1..8 seeded corruptions.
        let files = store_files(&root);
        qc_assert!(!files.is_empty(), "seeded store produced no files");
        let victim = &files[g.usize_in(0, files.len() - 1)];
        let mut bytes = std::fs::read(victim).map_err(|e| e.to_string())?;
        for _ in 0..g.usize_in(1, 8) {
            mutate(g, &mut bytes);
        }
        std::fs::write(victim, &bytes).map_err(|e| e.to_string())?;

        let ok = catch_unwind(AssertUnwindSafe(|| exercise_store(&root, &ids))).is_ok();
        let _ = std::fs::remove_dir_all(&root);
        qc_assert!(
            ok,
            "store panicked after mutating {}",
            victim.display()
        );
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn unmutated_store_round_trips() {
    // Control arm: without mutations the same pipeline reconstructs the
    // exact put bytes (so the fuzz arm corrupts real stores, not ones
    // that were already broken).
    let base = std::env::temp_dir().join(format!("djv-store-ctl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut iter = 0u64;
    check("unmutated_store_round_trips", 40, |g| {
        iter += 1;
        let root = base.join(format!("it{iter}"));
        let trace = gen_trace(g);
        let bytes = encode_trace(&trace, TraceFormat::Block, 48);
        let store = Store::open(&root).map_err(|e| e.to_string())?;
        let out = store
            .put_bytes("wa", g.u64_in(0, 9), &bytes, 7, "")
            .map_err(|e| e.to_string())?;
        drop(store);
        let store = Store::open(&root).map_err(|e| e.to_string())?;
        let back = store.get_bytes(&out.entry).map_err(|e| e.to_string())?;
        qc_assert!(back == bytes, "reopen + get changed the bytes");
        let opened = store.open_trace(&out.entry).map_err(|e| e.to_string())?;
        qc_assert!(opened.trace == trace, "open_trace changed the trace");
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&base);
}

/// The raw bytes of every block of a DJVB file, and whether each is
/// packed as this build packs those bytes. `None` if any block does not
/// parse or unpack.
fn content(bytes: &[u8]) -> Option<(Vec<Vec<u8>>, bool)> {
    let bf = BlockFile::parse(bytes.to_vec()).ok()?;
    let mut native = true;
    let raws = (0..bf.index.len())
        .map(|i| {
            let packed = bf.packed(i).ok()?;
            let raw = packed.unpack()?;
            native &= Packed::race(&raw) == packed;
            Some(raw)
        })
        .collect::<Option<Vec<_>>>()?;
    Some((raws, native))
}

#[test]
fn a_put_is_refused_or_served_back_byte_exact() {
    let base = std::env::temp_dir().join(format!("djv-store-put-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut iter = 0u64;
    check("a_put_is_refused_or_served_back_byte_exact", 200, |g| {
        iter += 1;
        let root = base.join(format!("it{iter}"));
        let store = Store::open(&root).map_err(|e| e.to_string())?;
        // The store already holds the honest run …
        let bytes = encode_trace(&gen_trace(g), TraceFormat::Block, [24, 48, 4096][g.usize_in(0, 2)]);
        let honest = store
            .put_bytes("wa", 3, &bytes, 0, "")
            .map_err(|e| e.to_string())?
            .entry;
        // … when a mutation of it is uploaded under the same name.
        // Half the time anywhere in the file, half the time in the
        // paranoid byte and budget varint, where a mutation is most
        // likely to survive parse.
        let mut upload = bytes.clone();
        let at = if g.bool() { 5..8 } else { 0..bytes.len() };
        let mut window: Vec<u8> = upload.drain(at.clone()).collect();
        for _ in 0..g.usize_in(1, 3) {
            mutate(g, &mut window);
        }
        upload.splice(at.start..at.start, window);
        let put = store.put_bytes("wa", 3, &upload, 0, "");
        let served = |when: &str| -> Result<(), String> {
            let held = store.get_bytes(&honest).map_err(|e| e.to_string())?;
            qc_assert!(held == bytes, "a later put changed an earlier one's get ({when})");
            // A put that lands on the held run's entry is a dedup hit:
            // what it is promised is the line above.
            let Some(out) = put.as_ref().ok().filter(|out| out.entry != honest) else {
                return Ok(());
            };
            let (raws, native) = content(&upload).ok_or("put accepted what does not unpack")?;
            match store.get_bytes(&out.entry) {
                Ok(got) if got == upload => {}
                // A block packed as this build would not pack it, deduped
                // onto the held run's record: the stated limit.
                Ok(got) if !native => {
                    let same = content(&got).is_some_and(|(r, _)| r == raws);
                    qc_assert!(same, "get serves other content than the accepted put ({when})");
                }
                Err(_) if !native => {}
                _ => return Err(format!("get differs from the accepted put ({when})")),
            }
            Ok(())
        };
        served("after put")?;
        store.gc().map_err(|e| e.to_string())?;
        store
            .compact(DEFAULT_COLD_THRESHOLD)
            .map_err(|e| e.to_string())?;
        served("after gc + compact")?;
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&base);
}

/// The two uploads that broke the parent's store, by name. Both frame an
/// honest run's content in a way the writer would not: `store put` +
/// `store get` used to exit 0 on the first with `cmp` differing at byte
/// 6, and the second used to land on the honest run's entry, overwrite
/// its `file_bytes`, and fail every later `get` of it.
#[test]
fn crafted_respellings_are_refused_and_change_nothing() {
    let root = std::env::temp_dir().join(format!("djv-store-respell-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let trace = Trace {
        paranoid: true,
        switches: (0..40)
            .map(|i| SwitchRec {
                nyp: 200 + i % 7,
                check_tid: (i % 3) as u32,
            })
            .collect(),
        data: vec![DataRec::Clock(42)],
    };
    let bytes = encode_trace(&trace, TraceFormat::Block, 4096);
    assert_eq!(bytes[5..8], [0x01, 0x80, 0x20], "paranoid, budget 4096");

    // Header byte 5 `01` → `02`: still reads as "paranoid".
    let mut paranoid_two = bytes.clone();
    paranoid_two[5] = 0x02;
    // Budget 4096 spelled `80 a0 00`, and the one block's offset in the
    // footer (the byte after the block count) bumped from 8 to 9.
    let mut padded_budget = bytes.clone();
    padded_budget.splice(6..8, [0x80, 0xa0, 0x00]);
    let tail = padded_budget.len() - 8;
    let footer_len = u32::from_le_bytes(padded_budget[tail..tail + 4].try_into().unwrap());
    let offset_at = tail - footer_len as usize + 1;
    assert_eq!(padded_budget[offset_at], 8);
    padded_budget[offset_at] = 9;

    let store = Store::open(&root).expect("open");
    let honest = store.put_bytes("wa", 1, &bytes, 9, "").expect("put");
    let entry_before = store.entry(&honest.entry).expect("entry");
    for (what, upload) in [("paranoid byte 2", paranoid_two), ("padded budget", padded_budget)] {
        let err = store
            .put_bytes("wa", 1, &upload, 0, "")
            .expect_err(what);
        assert_eq!(err.code(), 1, "{what}: {err}");
        assert_eq!(store.entries().expect("entries").len(), 1, "{what} was cataloged");
        assert_eq!(store.entry(&honest.entry).expect("entry"), entry_before, "{what}");
        assert_eq!(store.get_bytes(&honest.entry).expect("get"), bytes, "{what}");
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

/// Deterministic extremes beside the random sweep: a block record
/// truncated to nothing, a deleted block record, and a catalog manifest
/// overwritten with non-JSON garbage. Each must read back as a typed
/// error with the CLI "corrupt artifact" code, never a panic.
#[test]
fn crafted_store_damage_is_typed() {
    let root = std::env::temp_dir().join(format!("djv-store-crafted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let trace = Trace {
        paranoid: false,
        switches: (0..40)
            .map(|i| SwitchRec {
                nyp: 1 + i * 17,
                check_tid: u32::MAX,
            })
            .collect(),
        data: vec![DataRec::Clock(42)],
    };
    let bytes = encode_trace(&trace, TraceFormat::Block, 24);
    let store = Store::open(&root).expect("open");
    let id = store.put_bytes("wa", 1, &bytes, 9, "").expect("put").entry;
    drop(store);

    let blocks: Vec<PathBuf> = store_files(&root)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "blk"))
        .collect();
    assert!(!blocks.is_empty(), "crafted trace produced no block files");

    // Truncated block record.
    std::fs::write(&blocks[0], b"").expect("truncate block");
    let store = Store::open(&root).expect("reopen");
    let err = store.get_bytes(&id).expect_err("truncated block must fail");
    assert_eq!(err.code(), 1, "corrupt block is CLI code 1, got {err}");
    drop(store);

    // Missing block record.
    std::fs::remove_file(&blocks[0]).expect("delete block");
    let store = Store::open(&root).expect("reopen");
    assert_eq!(
        store.open_trace(&id).expect_err("missing block").code(),
        1
    );
    drop(store);

    // Garbage catalog manifest.
    let catalog = root.join("catalog").join(format!("{id}.json"));
    std::fs::write(&catalog, b"\xFF\xFEnot json at all").expect("smash catalog");
    let store = Store::open(&root).expect("reopen");
    let ok = catch_unwind(AssertUnwindSafe(|| {
        let _ = store.entries();
        let _ = store.entry(&id);
        let _ = store.disk_stats();
        let _ = store.gc();
    }))
    .is_ok();
    assert!(ok, "garbage catalog manifest caused a panic");
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}
