//! Calls into `store` shared by the local workloads: a span-wrapped
//! `open_trace` that knows whether it hit the snapshot cache, and the
//! deterministic counts read at the end of round 0.

use crate::metrics::Values;
use crate::spans::Recorder;
use codec::Json;
use std::path::Path;
use std::time::Duration;
use store::{Store, StoreError, StoredTrace};

/// A fresh, empty store at `root`.
pub fn fresh(root: &Path) -> Result<Store, String> {
    let _ = std::fs::remove_dir_all(root);
    Store::open(root).map_err(|e| format!("open store {}: {e}", root.display()))
}

pub fn counter(counters: &Json, name: &str) -> u64 {
    counters
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64().ok())
        .unwrap_or(0)
}

pub fn stat(stats: &Json, name: &str) -> f64 {
    stats.get(name).and_then(|v| v.as_u64().ok()).unwrap_or(0) as f64
}

/// Opened blocks served from the snapshot cache, per thousand.
pub fn hit_permille(counters: &Json) -> f64 {
    let hits = counter(counters, "store.checkpoint_hits");
    let misses = counter(counters, "store.checkpoint_misses");
    (hits * 1000 / (hits + misses).max(1)) as f64
}

/// `open_trace` as a `store.open_hit` or `store.open_miss` span: a miss
/// when `store.checkpoint_misses` rose during the call.
pub fn open(
    rec: &mut Recorder,
    store: &Store,
    entry: &str,
) -> (Result<StoredTrace, StoreError>, Duration) {
    rec.span(|_| {
        let misses = |s: &Store| counter(&s.counters_json(), "store.checkpoint_misses");
        let before = misses(store);
        let opened = store.open_trace(entry);
        let name = if misses(store) > before {
            "store.open_miss"
        } else {
            "store.open_hit"
        };
        (name, opened)
    })
}

/// The store's deterministic counts after a fixed set of jobs: what is
/// on disk against what was uploaded (`uploaded` bytes carrying `events`
/// recorded events).
pub fn snapshot(store: &Store, uploaded: u64, events: u64, out: &mut Values) -> Result<(), String> {
    let disk = store.disk_stats().map_err(|e| format!("disk_stats: {e}"))?;
    let counters = store.counters_json();
    out.insert(
        "stored_bytes_per_event".into(),
        stat(&disk, "store_bytes") / events.max(1) as f64,
    );
    out.insert("store.cache.hit_permille".into(), hit_permille(&counters));
    out.insert(
        "store.write_amp_milli".into(),
        (counter(&counters, "store.bytes_written") as f64 * 1000.0 / uploaded.max(1) as f64)
            .floor(),
    );
    out.insert(
        "store.dedup_ratio_milli".into(),
        stat(&disk, "dedup_ratio_milli"),
    );
    out.insert("store.blocks".into(), stat(&disk, "blocks"));
    Ok(())
}
