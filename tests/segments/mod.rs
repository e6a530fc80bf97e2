//! The store's log framing, for tests that take segments apart and craft
//! them: a segment is a run of `tag:u8 len:u32-LE payload` frames — 'B' a
//! block record, 'E' an entry record, 'C' a commit of entry id[16],
//! puts:u64-LE, put_len:u32-LE and a CRC-32 over the put's bytes and the
//! commit's own fields before the CRC. A test binary takes it with
//! `mod segments;` and uses what it needs of it.
#![allow(dead_code)]

use dejavu_repro::codec::crc32;
use std::path::{Path, PathBuf};

/// The segment files of the store at `root`, in log order.
pub fn files(root: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(root.join("log"))
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    out.sort();
    out
}

/// Every whole frame of a segment as (tag, payload).
pub fn frames(seg: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(head) = seg.get(pos..pos + 5) {
        let len = u32::from_le_bytes(head[1..].try_into().unwrap()) as usize;
        let Some(payload) = seg.get(pos + 5..pos + 5 + len) else {
            break;
        };
        out.push((head[0], payload.to_vec()));
        pos += 5 + len;
    }
    out
}

/// Frames back to segment bytes, as they are.
pub fn join(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (tag, payload) in frames {
        out.push(*tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Frames back to segment bytes, each commit's put length and CRC made to
/// match the bytes before it, as a hostile writer would.
pub fn seal(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = join(frames);
    let (mut at, mut start) = (0, 0);
    for (tag, payload) in frames {
        if *tag == b'C' && payload.len() == 32 {
            let fields = at + 5 + 24;
            out[fields..fields + 4].copy_from_slice(&((at - start) as u32).to_le_bytes());
            let crc = crc32(&out[start..fields + 4]);
            out[fields + 4..fields + 8].copy_from_slice(&crc.to_le_bytes());
            start = at + 5 + 32;
        }
        at += 5 + payload.len();
    }
    out
}
