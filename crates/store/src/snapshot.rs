//! The checkpoint-snapshot tier: a bounded in-process cache of decoded
//! blocks, keyed by content digest. Opening a run out of the store
//! decodes only the blocks not already resident — 100 runs of the same
//! workload family share one decode of every shared block — and the
//! catalog's per-block `first_logical_time` list keys the time-travel
//! layer's boundary checkpoints, so a store-served
//! `TimeTravel::seek_logical` keeps the existing ≤-one-block-span
//! replay guarantee.
//!
//! The cache is an *observer* of store reads: hits and misses are
//! counted (surfaced through fleet `stats --fleet`), but cache state
//! never changes what is decoded — the decoded events are a pure
//! function of the block bytes, so a hit and a miss are bit-equivalent.

use crate::catalog::CatalogEntry;
use codec::Digest128;
use dejavu::trace::{DataRec, SwitchRec, Trace};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Decoded events of one block, shared between cached opens.
pub type DecodedBlock = Arc<(Vec<SwitchRec>, Vec<DataRec>)>;

/// Cache key: the digest names the raw bytes; the decode parameters
/// (paranoid flag and the catalog's counts) complete the function
/// input, so two entries that disagree about a digest's counts can
/// never alias each other's decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    pub digest: Digest128,
    pub paranoid: bool,
    pub event_count: u32,
    pub switch_count: u32,
}

/// FIFO-bounded decoded-block cache.
#[derive(Debug, Default)]
pub struct BlockCache {
    map: HashMap<BlockKey, DecodedBlock>,
    order: VecDeque<BlockKey>,
    cap: usize,
}

/// Default cache capacity in blocks (~4096 events each): large enough
/// to hold the whole working set of a fig1-family corpus, small enough
/// to bound a long-lived fleet process.
pub const DEFAULT_CACHE_BLOCKS: usize = 1024;

impl BlockCache {
    pub fn new(cap: usize) -> Self {
        BlockCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    pub fn get(&self, key: &BlockKey) -> Option<DecodedBlock> {
        self.map.get(key).cloned()
    }

    pub fn insert(&mut self, key: BlockKey, block: DecodedBlock) {
        if self.map.insert(key, block).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A run opened out of the store, ready for replay: the decoded trace,
/// the block-boundary checkpoint keys, and the catalog metadata the
/// caller needs to build a spec (workload, seed) and to cross-check a
/// replay (fingerprint).
#[derive(Debug, Clone)]
pub struct StoredTrace {
    pub entry: CatalogEntry,
    pub trace: Trace,
    /// `first_logical_time` per block — feed to
    /// `dejavu::TimeTravel::new_indexed` for boundary checkpointing.
    pub boundaries: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use codec::digest128;

    fn key(n: u8) -> BlockKey {
        BlockKey {
            digest: digest128(&[n]),
            paranoid: false,
            event_count: 1,
            switch_count: 0,
        }
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let mut c = BlockCache::new(2);
        let blk: DecodedBlock = Arc::new((Vec::new(), vec![DataRec::Clock(1)]));
        c.insert(key(0), blk.clone());
        c.insert(key(1), blk.clone());
        c.insert(key(2), blk.clone());
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(0)).is_none(), "oldest evicted");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(2)).is_some());
        // Re-inserting an existing key is not a duplicate order entry.
        c.insert(key(2), blk);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn splice_enforces_switches_first() {
        let sw = vec![SwitchRec { nyp: 1, check_tid: u32::MAX }];
        let da = vec![DataRec::Clock(9)];
        let mut trace = Trace::default();
        assert!(trace.append_block(sw.clone(), []).is_ok());
        assert!(trace.append_block([], da).is_ok());
        assert!(trace.append_block(sw, []).is_err());
    }
}
