//! Fuzz oracle for the trace-store read path: build a real store with
//! `put_bytes`, apply seeded byte mutations — bit flips, truncations,
//! overwrites, insertions — to one frame of a log segment (a block record,
//! often aimed at a coded record's table header, an entry record or a
//! commit record), half the time re-sealing the put's commit over the
//! damage as a hostile writer would, then drive every read entry point
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

use dejavu_repro::codec::{digest128, get_varint};
use dejavu_repro::dejavu::{
    encode_trace, BlockFile, BlockMethod, DataRec, Packed, SwitchRec, Trace, TraceFormat,
};
use dejavu_repro::qc::{check, Gen};
use dejavu_repro::qc_assert;
use dejavu_repro::store::backend::encode_record;
use dejavu_repro::store::Store;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

mod segments;

/// A structurally valid random trace: the corpus the store is seeded with.
/// Half are long runs of small deltas, whose blocks the coder packs.
fn gen_trace(g: &mut Gen) -> Trace {
    let paranoid = g.bool();
    let (switches, nyp, clock) = if g.bool() {
        (600, 4, 3)
    } else {
        (30, 50_000, 2_000_000)
    };
    let switches = g.vec_of(1, switches, |g| SwitchRec {
        nyp: g.u64_in(1, nyp),
        check_tid: if paranoid {
            g.u64_in(0, 5) as u32
        } else {
            u32::MAX
        },
    });
    let data = g.vec_of(0, 20, |g| {
        if g.bool() {
            DataRec::Clock(g.i64_in(-5, clock))
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
    drop(store); // drop the caches so the mutation hits cold state
    ids
}

/// Where a coded block record's stream — its table header first —
/// begins; `None` for anything else.
fn table_header(record: &[u8]) -> Option<usize> {
    if record.get(..4) != Some(b"DJSB") || record.get(5) != Some(&BlockMethod::Rans.code()) {
        return None;
    }
    let mut pos = 6;
    for _ in 0..3 {
        get_varint(record, &mut pos)?;
    }
    Some(pos + 16)
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
    let _ = store.compact(0);
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

        // Mutate one frame of one segment — a block, entry or commit
        // record — with 1..8 seeded corruptions; half the time a coded
        // block record's table header alone. Half the time the put's
        // commit is re-sealed over the damage, so `open` indexes it and
        // the read paths meet it.
        let files = segments::files(&root);
        qc_assert!(!files.is_empty(), "seeded store produced no segments");
        let victim = &files[g.usize_in(0, files.len() - 1)];
        let mut frames = segments::frames(&std::fs::read(victim).map_err(|e| e.to_string())?);
        qc_assert!(!frames.is_empty(), "seeded segment holds no frames");
        let i = g.usize_in(0, frames.len() - 1);
        let payload = &mut frames[i].1;
        let at = match table_header(payload) {
            Some(start) if g.bool() => start..(start + 8).min(payload.len()),
            _ => 0..payload.len(),
        };
        let mut window: Vec<u8> = payload.drain(at.clone()).collect();
        for _ in 0..g.usize_in(1, 8) {
            mutate(g, &mut window);
        }
        payload.splice(at.start..at.start, window);
        let bytes = if g.bool() {
            segments::seal(&frames)
        } else {
            segments::join(&frames)
        };
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
            native &= Packed::pack(&raw) == packed;
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
        store.compact(0).map_err(|e| e.to_string())?;
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

/// Deterministic extremes beside the random sweep, one per record kind: a
/// segment cut off inside a block record, a block record taken out of its
/// put, an entry record overwritten with non-JSON garbage, a commit whose
/// CRC no longer matches its put, and one that names no entry. Each reads
/// back as a typed error with the CLI "corrupt artifact" code — from
/// `open`, or from the read it reaches — never a panic.
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

    let [seg] = &segments::files(&root)[..] else {
        panic!("crafted trace produced other than one segment");
    };
    let whole = std::fs::read(seg).expect("read segment");
    let frames = segments::frames(&whole);
    let first_block = frames.iter().position(|(tag, _)| *tag == b'B');
    let first_block = first_block.expect("crafted trace produced no block records");
    let with = |i: usize, payload: Option<Vec<u8>>| {
        let mut frames = frames.clone();
        match payload {
            Some(p) => frames[i].1 = p,
            None => drop(frames.remove(i)),
        }
        frames
    };

    // Cut inside a block record: a torn put, truncated at open.
    let cut = segments::join(&frames[..first_block]).len() + 5 + frames[first_block].1.len() / 2;
    std::fs::write(seg, &whole[..cut]).expect("truncate block");
    let store = Store::open(&root).expect("reopen");
    let err = store.get_bytes(&id).expect_err("truncated block must fail");
    assert_eq!(err.code(), 1, "corrupt block is CLI code 1, got {err}");
    drop(store);

    // A block record taken out, the commit re-sealed.
    std::fs::write(seg, segments::seal(&with(first_block, None))).expect("drop block");
    let store = Store::open(&root).expect("reopen");
    assert_eq!(
        store.open_trace(&id).expect_err("missing block").code(),
        1
    );
    drop(store);

    // Garbage entry record, the commit re-sealed.
    let entry = frames.iter().position(|(tag, _)| *tag == b'E').expect("entry record");
    let garbage = b"\xFF\xFEnot json at all".to_vec();
    std::fs::write(seg, segments::seal(&with(entry, Some(garbage)))).expect("smash entry");
    let store = Store::open(&root).expect("reopen");
    let ok = catch_unwind(AssertUnwindSafe(|| {
        let _ = store.entries();
        let _ = store.entry(&id);
        let _ = store.disk_stats();
        let _ = store.gc();
    }))
    .is_ok();
    assert!(ok, "garbage entry record caused a panic");
    assert_eq!(store.entry(&id).expect_err("garbage entry").code(), 1);
    drop(store);

    // A commit that does not match its put, and a re-sealed bare commit
    // that names no entry: `open` refuses both rather than drop a put.
    let commit = frames.iter().position(|(tag, _)| *tag == b'C').expect("commit record");
    let mut stale = frames[commit].1.clone();
    stale[31] ^= 1;
    let mut stranger = frames[commit].1.clone();
    stranger[0] ^= 1;
    let mut appended = frames.clone();
    appended.push((b'C', stranger.clone()));
    for damaged in [segments::join(&with(commit, Some(stale))), segments::seal(&appended)] {
        std::fs::write(seg, damaged).expect("smash commit");
        let err = Store::open(&root).expect_err("damaged commit");
        assert_eq!(err.code(), 1, "{err}");
    }
    // Re-sealed under another id, the put's entry record reads as what it
    // is, not as the entry its commit names.
    std::fs::write(seg, segments::seal(&with(commit, Some(stranger)))).expect("rename entry");
    let store = Store::open(&root).expect("reopen");
    assert_eq!(store.entries().expect_err("misnamed entry").code(), 1);
    drop(store);

    // A valid block record no entry names, sealed into the put: nothing
    // reads it, and the first pass that finds dead bytes drops it.
    let raw = b"a block no entry names ".repeat(4);
    let mut extra = frames.clone();
    extra.insert(commit, (b'B', encode_record(digest128(&raw), &Packed::pack(&raw))));
    std::fs::write(seg, segments::seal(&extra)).expect("add a block");
    let store = Store::open(&root).expect("reopen");
    let blocks = |s: &Store| s.disk_stats().unwrap().field("blocks").unwrap().as_u64().unwrap();
    let named = blocks(&store) - 1;
    store.put_bytes("wa", 1, &bytes, 9, "p").expect("a new policy: dead bytes");
    let gc = store.gc().expect("gc");
    assert_eq!((gc.segments, gc.removed_blocks, gc.live_blocks), (1, 1, named));
    assert_eq!(blocks(&store), named);
    assert_eq!(store.gc().expect("second gc").segments, 0, "the first pass left work");
    assert_eq!(store.get_bytes(&id).expect("get"), bytes);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}
