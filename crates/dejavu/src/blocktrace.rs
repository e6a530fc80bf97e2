//! The block-structured trace format (DJVB): delta-encoded, compressed,
//! checkpoint-indexable storage for DejaVu traces — the one format
//! traces are persisted, uploaded and read back in.
//!
//! The flat encoding ([`Trace::encoded`]) is one unindexed event stream;
//! it stays as the in-memory canonical bytes of a [`Trace`] (size
//! accounting, neutrality comparisons) but no read door accepts it:
//! navigating it to a logical time would mean replaying from zero. This
//! module makes the trace a first-class storage layer (rr's lesson:
//! trace compactness and cheap navigation are what make record/replay
//! deployable):
//!
//! * events are grouped into fixed-budget **blocks**;
//! * within a block, fields are stored **columnar** and
//!   **frame-of-reference** encoded: the block minimum is subtracted
//!   from the nyp column (the recorded deltas of the logical clock) and
//!   the thread-id column, wall-clock reads are **delta + zigzag**
//!   encoded, and the small residues are written as varints — the flat
//!   format's multi-byte absolute fields shrink to mostly one byte;
//! * each raw block payload is then packed by the in-repo entropy coder
//!   ([`codec::rans`], static-model rANS over byte-class contexts), which
//!   squeezes the low-entropy residue bytes below the varint's 8-bit
//!   floor and decodes a table lookup per byte, and guarded by a CRC-32,
//!   so a truncated or bit-flipped tail is detected, not silently
//!   replayed;
//! * a **footer index** carries every block's
//!   `{offset, first_seq, first_logical_time, event_count, …}` so a
//!   reader seeks to the block covering a logical time in O(log blocks)
//!   without touching the payloads before it.
//!
//! `first_logical_time` is the cumulative yield-point clock (the sum of
//! recorded `nyp` deltas) before the block's first event — the same
//! logical clock `vm.counters.yield_points` tracks during replay, which
//! is what lets the debugger key its checkpoint cache by block boundary
//! ([`crate::TimeTravel`]).
//!
//! ## File layout
//!
//! ```text
//! "DJVB" ver=2 paranoid  varint(budget)
//! block*:  varint×7 header (first_seq, first_logical_time, event_count,
//!          switch_count, raw_len, comp_len, crc32)   payload[comp_len]
//!          (comp_len == raw_len ⇒ payload stored raw; otherwise the
//!          payload is method_byte(3=rANS) + stream)
//! footer:  varint(block_count)
//!          block_count × (varint offset + the 7 header varints again)
//! tail:    u32le(footer_len) "DJVI"
//! ```
//!
//! ## One packed payload, one writer, one spelling
//!
//! A block's payload is packed once, into a [`Packed`] — the value under
//! this file's block frame *and* under the store's block records, and the
//! only code outside `codec` that runs the coder, maps a method byte or
//! decides stored-vs-compressed. [`write_block_file`] is the only
//! code that writes the framing above, for a fresh [`encode_trace`] and a
//! store reconstruction alike, and [`BlockFile::parse`] accepts a file
//! only if that writer, handed what was parsed with every payload
//! verbatim, would emit the same bytes back — checked in place, one
//! piece of framing at a time, in work bounded by the file's length. So
//! a file has one spelling, and whatever re-frames parsed blocks returns
//! the bytes it was handed.
//!
//! The canonical unified event order is *switches first, then data
//! records* — the two streams of [`Trace`] back to back. Replay consumes
//! the streams independently, so the unified order is a storage choice;
//! columnar-by-stream maximizes intra-block self-similarity.
//!
//! Every decode path returns a typed [`TraceError`] — corruption is
//! never a panic.

use crate::trace::{DataRec, SwitchRec, Trace};
use codec::{get_varint, put_varint, unzigzag, zigzag};
use djvm::MethodId;
use std::fmt;

const BLOCK_MAGIC: &[u8; 4] = b"DJVB";
const INDEX_MAGIC: &[u8; 4] = b"DJVI";
/// Version 2 packs with the rANS coder; version 1 files (LZ77 and the
/// adaptive range coder) are refused as [`TraceError::UnsupportedVersion`].
const VERSION: u8 = 2;
/// Events per block unless the caller chooses otherwise. Small enough
/// that a seek decodes little, large enough that the compressor sees
/// real runs.
pub const DEFAULT_BLOCK_BUDGET: u32 = 4096;
/// Upper bound on a single block's raw payload (decoder allocation cap).
const MAX_RAW_LEN: u64 = 1 << 26;

/// Trace encodings [`encode_trace`] can produce: DJVB, the one file
/// format. (Flat `DJV1` bytes — [`Trace::encoded`] — are size accounting,
/// have no reader, and every read door refuses them as
/// [`TraceError::NotATrace`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The block-structured compressed file format (`DJVB`).
    Block,
}

/// How a block's on-disk payload is held: run through the rANS coder, or
/// `Stored` raw when the coder did not pay for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockMethod {
    Stored,
    Rans,
}

impl BlockMethod {
    pub fn name(&self) -> &'static str {
        match self {
            BlockMethod::Stored => "stored",
            BlockMethod::Rans => "rans",
        }
    }

    /// Stable numeric code (store catalog + record byte). `Stored` is 0;
    /// `Rans` is 3, the DJVB in-payload method byte — not 1 or 2, so a
    /// version 1 method byte (LZ77, range coder) names no method.
    pub fn code(&self) -> u8 {
        match self {
            BlockMethod::Stored => 0,
            BlockMethod::Rans => 3,
        }
    }

    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(BlockMethod::Stored),
            3 => Some(BlockMethod::Rans),
            _ => None,
        }
    }

    /// The method's compressor and decompressor (`None` for `Stored`).
    fn codec(self) -> Option<(fn(&[u8]) -> Vec<u8>, fn(&[u8], usize) -> Option<Vec<u8>>)> {
        match self {
            BlockMethod::Stored => None,
            BlockMethod::Rans => Some((codec::entropy_compress, codec::entropy_decompress)),
        }
    }

    /// [`Packed::unpack`] over a stream still in its file's buffer.
    fn unpack(self, stream: &[u8], raw_len: u32, crc: u32) -> Option<Vec<u8>> {
        let raw = match self.codec() {
            None => stream.to_vec(),
            Some((_, decompress)) => decompress(stream, raw_len as usize)?,
        };
        (raw.len() == raw_len as usize && codec::crc32(&raw) == crc).then_some(raw)
    }
}

/// One block's payload as it is stored, in a DJVB block frame or a store
/// block record. Packing happens once, where the raw bytes are first
/// seen; everything downstream moves the stream it was handed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packed {
    pub method: BlockMethod,
    /// The raw bytes themselves under `Stored`, otherwise `method`'s
    /// compressed stream (without DJVB's method byte).
    pub stream: Vec<u8>,
    pub raw_len: u32,
    /// CRC-32 of the raw (uncompressed) bytes.
    pub crc: u32,
}

impl Packed {
    /// Pack `raw` with the coder, degrading to `Stored` unless the stream
    /// plus DJVB's method byte is smaller than the raw bytes. This is the
    /// one packer and the one stored-vs-compressed rule: file bytes
    /// depend on it, and the store's compaction moves records onto it.
    pub fn pack(raw: &[u8]) -> Packed {
        let stream = BlockMethod::Rans
            .codec()
            .map(|(compress, _)| compress(raw))
            .filter(|s| s.len() + 1 < raw.len());
        Packed {
            method: if stream.is_some() {
                BlockMethod::Rans
            } else {
                BlockMethod::Stored
            },
            stream: stream.unwrap_or_else(|| raw.to_vec()),
            raw_len: raw.len() as u32,
            crc: codec::crc32(raw),
        }
    }

    /// The raw bytes: decompress, then check the length and the CRC —
    /// `None` when the stream is damaged or is not this header's.
    pub fn unpack(&self) -> Option<Vec<u8>> {
        self.method.unpack(&self.stream, self.raw_len, self.crc)
    }
}

/// Why a trace file was rejected. Typed — decode never panics on
/// hostile bytes, and callers can distinguish I/O-grade corruption from
/// an unknown format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The `DJVB` magic did not match: not a trace file (flat `DJV1`
    /// bytes included — they are an in-memory encoding, not a file).
    NotATrace,
    /// A `DJVB` file with a version this build does not speak.
    UnsupportedVersion(u8),
    /// Structural corruption (truncation, bad counts, bad offsets).
    Corrupt(&'static str),
    /// Block payload failed its CRC — a damaged or truncated tail.
    BadCrc { block: usize },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NotATrace => write!(f, "not a DJVB trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported block-trace version {v}")
            }
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::BadCrc { block } => {
                write!(
                    f,
                    "block {block}: payload CRC mismatch (damaged or truncated)"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One entry of the footer index: everything needed to locate, validate
/// and decode a block without reading any other block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Byte offset of the block *header* within the file.
    pub offset: u64,
    /// Index of the block's first event in the unified stream.
    pub first_seq: u64,
    /// Cumulative logical clock (sum of nyp deltas) before this block.
    pub first_logical_time: u64,
    pub event_count: u32,
    /// How many of the events are switch records (the rest are data).
    pub switch_count: u32,
    pub raw_len: u32,
    /// `comp_len == raw_len` means the payload is stored uncompressed.
    pub comp_len: u32,
    /// CRC-32 of the raw (uncompressed) payload.
    pub crc: u32,
}

impl BlockInfo {
    fn put(&self, out: &mut Vec<u8>, with_offset: bool) {
        if with_offset {
            put_varint(out, self.offset);
        }
        put_varint(out, self.first_seq);
        put_varint(out, self.first_logical_time);
        put_varint(out, self.event_count as u64);
        put_varint(out, self.switch_count as u64);
        put_varint(out, self.raw_len as u64);
        put_varint(out, self.comp_len as u64);
        put_varint(out, self.crc as u64);
    }

    fn get(buf: &[u8], pos: &mut usize, offset: Option<u64>) -> Result<Self, TraceError> {
        let mut next = || get_varint(buf, pos).ok_or(TraceError::Corrupt("short block header"));
        let offset = match offset {
            Some(o) => o,
            None => next()?,
        };
        let first_seq = next()?;
        let first_logical_time = next()?;
        let event_count = next()?;
        let switch_count = next()?;
        let raw_len = next()?;
        let comp_len = next()?;
        let crc = next()?;
        if crc > u32::MAX as u64 {
            return Err(TraceError::Corrupt("implausible block crc"));
        }
        // The encoder stores the raw payload whenever compression does
        // not shrink it, so `comp_len <= raw_len` always; and a stream
        // (the payload past its method byte) decodes to at most
        // `codec::max_raw_len` of its length, so a larger claim is refused
        // here, before anything is allocated for it.
        let stream_len = (comp_len as usize).saturating_sub(1);
        if raw_len > MAX_RAW_LEN
            || comp_len > raw_len
            || (comp_len < raw_len && raw_len as usize > codec::max_raw_len(stream_len))
        {
            return Err(TraceError::Corrupt("implausible block payload length"));
        }
        if switch_count > event_count || event_count > u32::MAX as u64 {
            return Err(TraceError::Corrupt("implausible block event counts"));
        }
        Ok(BlockInfo {
            offset,
            first_seq,
            first_logical_time,
            event_count: event_count as u32,
            switch_count: switch_count as u32,
            raw_len: raw_len as u32,
            comp_len: comp_len as u32,
            crc: crc as u32,
        })
    }
}

/// Size accounting for one encoded block trace — the numbers E16 and the
/// per-block telemetry counters report.
#[derive(Debug, Clone, Default)]
pub struct BlockStats {
    pub blocks: usize,
    /// Blocks whose payload was stored raw (compression didn't pay).
    pub stored_blocks: usize,
    pub events: u64,
    pub switch_events: u64,
    pub data_events: u64,
    /// Whole-file size, headers/index/magic included.
    pub file_bytes: usize,
    /// Sum of raw (pre-compression) payload bytes.
    pub payload_raw_bytes: usize,
    /// Sum of on-disk payload bytes.
    pub payload_comp_bytes: usize,
    /// Per-block `comp*1000/raw` — the telemetry counters the observer
    /// exposes (integer permille keeps JSON byte-deterministic).
    pub per_block_permille: Vec<u64>,
}

impl BlockStats {
    /// Whole-payload compression ratio in permille (1000 = incompressible).
    pub fn compression_permille(&self) -> u64 {
        if self.payload_raw_bytes == 0 {
            return 1000;
        }
        (self.payload_comp_bytes as u64 * 1000) / self.payload_raw_bytes as u64
    }

    /// File bytes per event, ×1000 (exact integer milli-bytes).
    pub fn milli_bytes_per_event(&self) -> u64 {
        if self.events == 0 {
            return 0;
        }
        self.file_bytes as u64 * 1000 / self.events
    }

    /// Deterministic JSON (keys pre-sorted).
    pub fn to_json(&self) -> codec::Json {
        use codec::Json;
        Json::obj(vec![
            ("blocks", Json::UInt(self.blocks as u64)),
            (
                "compression_permille",
                Json::UInt(self.compression_permille()),
            ),
            ("data_events", Json::UInt(self.data_events)),
            ("events", Json::UInt(self.events)),
            ("file_bytes", Json::UInt(self.file_bytes as u64)),
            (
                "milli_bytes_per_event",
                Json::UInt(self.milli_bytes_per_event()),
            ),
            (
                "payload_comp_bytes",
                Json::UInt(self.payload_comp_bytes as u64),
            ),
            (
                "payload_raw_bytes",
                Json::UInt(self.payload_raw_bytes as u64),
            ),
            (
                "per_block_permille",
                Json::Arr(
                    self.per_block_permille
                        .iter()
                        .map(|&p| Json::UInt(p))
                        .collect(),
                ),
            ),
            ("stored_blocks", Json::UInt(self.stored_blocks as u64)),
            ("switch_events", Json::UInt(self.switch_events)),
        ])
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Append a *frame-of-reference* column: `varint(min)` followed by
/// `varint(value - min)` for each value. The recorded nyp deltas and the
/// zigzagged clock deltas live in a narrow band, so the residues are
/// almost always single bytes — and being byte-aligned, they are exactly
/// what the coder's byte-class contexts model, pushing the column to near
/// its actual entropy. This is the main lever behind the bytes/event win
/// over the flat format.
fn put_for_column(out: &mut Vec<u8>, values: &[u64]) {
    let Some(&min) = values.iter().min() else {
        return;
    };
    put_varint(out, min);
    for &v in values {
        put_varint(out, v - min);
    }
}

/// Read back a [`put_for_column`] column of `n` values. A well-formed
/// column stores residues `v - min`, so `min + delta` can never exceed
/// `u64::MAX`; on a crafted column it can, and the reconstruction must
/// surface [`TraceError::Corrupt`] rather than wrap or panic.
fn get_for_column(raw: &[u8], pos: &mut usize, n: usize) -> Result<Vec<u64>, TraceError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let min = get_varint(raw, pos).ok_or(TraceError::Corrupt("short frame-of-reference column"))?;
    let mut vals = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let delta =
            get_varint(raw, pos).ok_or(TraceError::Corrupt("short frame-of-reference column"))?;
        vals.push(min.checked_add(delta).ok_or(TraceError::Corrupt(
            "frame-of-reference column overflows u64",
        ))?);
    }
    Ok(vals)
}

/// Encode one block's events into its raw (pre-compression) payload.
/// Columnar: switch nyp deltas (already deltas of the logical clock),
/// then (paranoid) tids, then data tags, then clock-read deltas, then
/// native records. The numeric columns are frame-of-reference encoded
/// ([`put_for_column`]); all references are block-local so every block
/// decodes independently.
fn encode_block_payload(switches: &[SwitchRec], data: &[DataRec], paranoid: bool) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, switches.len() as u64);
    let nyps: Vec<u64> = switches.iter().map(|s| s.nyp).collect();
    put_for_column(&mut out, &nyps);
    if paranoid {
        let tids: Vec<u64> = switches.iter().map(|s| s.check_tid as u64).collect();
        put_for_column(&mut out, &tids);
    }
    put_varint(&mut out, data.len() as u64);
    for d in data {
        out.push(match d {
            DataRec::Clock(_) => 0,
            DataRec::Native { .. } => 1,
        });
    }
    let mut prev_clock = 0i64;
    let clock_deltas: Vec<u64> = data
        .iter()
        .filter_map(|d| match d {
            DataRec::Clock(v) => {
                let zz = zigzag(v.wrapping_sub(prev_clock));
                prev_clock = *v;
                Some(zz)
            }
            DataRec::Native { .. } => None,
        })
        .collect();
    put_for_column(&mut out, &clock_deltas);
    for d in data {
        if let DataRec::Native { ret, callbacks } = d {
            put_varint(&mut out, zigzag(*ret));
            put_varint(&mut out, callbacks.len() as u64);
            for (m, args) in callbacks {
                put_varint(&mut out, *m as u64);
                put_varint(&mut out, args.len() as u64);
                for &a in args {
                    put_varint(&mut out, zigzag(a));
                }
            }
        }
    }
    out
}

/// Decode one block's **raw payload bytes** into events — the inverse of
/// [`encode_block_payload`], shared by the in-file path
/// ([`BlockFile::block`], counts from the index) and the store's read
/// path (counts from its catalog). The in-payload counts are validated
/// against the ones handed in *before* any cast or addition, so the
/// arithmetic below cannot overflow even on crafted inputs.
pub fn decode_block_events(
    raw: &[u8],
    event_count: u32,
    switch_count: u32,
    paranoid: bool,
) -> Result<(Vec<SwitchRec>, Vec<DataRec>), TraceError> {
    let corrupt = |what| TraceError::Corrupt(what);
    if switch_count > event_count {
        return Err(corrupt("implausible block event counts"));
    }
    if raw.len() as u64 > MAX_RAW_LEN {
        return Err(corrupt("implausible block payload length"));
    }
    let mut pos = 0usize;
    let nswitch = get_varint(raw, &mut pos).ok_or(corrupt("short switch count"))?;
    if nswitch != switch_count as u64 {
        return Err(corrupt("switch count disagrees with index"));
    }
    let nswitch = nswitch as usize;
    let nyps = get_for_column(raw, &mut pos, nswitch)?;
    // A preemptive switch is taken *at* a counted yield point (Fig. 2), so
    // every delta is at least 1; a replayer counting down from 0 would
    // never take another recorded switch.
    if nyps.contains(&0) {
        return Err(corrupt("switch record with a zero yield-point delta"));
    }
    let tids: Vec<u32> = if paranoid {
        let vals = get_for_column(raw, &mut pos, nswitch)?;
        if vals.iter().any(|&v| v > u32::MAX as u64) {
            return Err(corrupt("tid column value out of range"));
        }
        vals.into_iter().map(|v| v as u32).collect()
    } else {
        Vec::new()
    };
    let switches: Vec<SwitchRec> = nyps
        .into_iter()
        .enumerate()
        .map(|(i, nyp)| SwitchRec {
            nyp,
            check_tid: if paranoid { tids[i] } else { u32::MAX },
        })
        .collect();
    let ndata = get_varint(raw, &mut pos).ok_or(corrupt("short data count"))?;
    if ndata != (event_count - switch_count) as u64 {
        return Err(corrupt("event count disagrees with index"));
    }
    let ndata = ndata as usize;
    if ndata > raw.len().saturating_sub(pos) {
        return Err(corrupt("short tag column"));
    }
    let tags = &raw[pos..pos + ndata];
    pos += ndata;
    if tags.iter().any(|&t| t > 1) {
        return Err(corrupt("unknown data tag"));
    }
    let nclock = tags.iter().filter(|&&t| t == 0).count();
    let mut clocks = Vec::with_capacity(nclock.min(1 << 20));
    let mut prev_clock = 0i64;
    for zz in get_for_column(raw, &mut pos, nclock)? {
        let v = prev_clock.wrapping_add(unzigzag(zz));
        clocks.push(v);
        prev_clock = v;
    }
    let mut natives = Vec::new();
    for _ in 0..tags.len() - nclock {
        let ret = unzigzag(get_varint(raw, &mut pos).ok_or(corrupt("short native ret"))?);
        let ncb = get_varint(raw, &mut pos).ok_or(corrupt("short callback count"))? as usize;
        let mut callbacks = Vec::with_capacity(ncb.min(1 << 16));
        for _ in 0..ncb {
            let m = get_varint(raw, &mut pos).ok_or(corrupt("short callback method"))? as MethodId;
            let nargs = get_varint(raw, &mut pos).ok_or(corrupt("short arg count"))? as usize;
            let mut args = Vec::with_capacity(nargs.min(1 << 16));
            for _ in 0..nargs {
                args.push(unzigzag(
                    get_varint(raw, &mut pos).ok_or(corrupt("short callback arg"))?,
                ));
            }
            callbacks.push((m, args));
        }
        natives.push(DataRec::Native { ret, callbacks });
    }
    if pos != raw.len() {
        return Err(corrupt("trailing bytes in block payload"));
    }
    // Reassemble the data stream in tag order. The per-kind counts above
    // were derived from the tag column itself, so a disagreement here is
    // unreachable today — but it stays a typed error, not a panic, so a
    // future refactor (or a crafted payload that survives the CRC) can
    // never turn the decode path into a crash.
    let mut clocks = clocks.into_iter();
    let mut natives = natives.into_iter();
    let mut data = Vec::with_capacity(tags.len());
    for &t in tags {
        let rec = if t == 0 {
            clocks.next().map(DataRec::Clock)
        } else {
            natives.next()
        };
        data.push(rec.ok_or(corrupt("tag column disagrees with record columns"))?);
    }
    Ok((switches, data))
}

/// The file header, as [`write_block_file`] emits it and
/// [`BlockFile::parse`] requires it.
fn put_file_header(out: &mut Vec<u8>, paranoid: bool, budget: u32) {
    out.extend_from_slice(BLOCK_MAGIC);
    out.push(VERSION);
    out.push(paranoid as u8);
    put_varint(out, budget.max(1) as u64);
}

/// The footer index and the fixed tail, likewise shared.
fn put_footer(out: &mut Vec<u8>, index: &[BlockInfo]) {
    let footer_start = out.len();
    put_varint(out, index.len() as u64);
    for info in index {
        info.put(out, true);
    }
    let footer_len = (out.len() - footer_start) as u32;
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(INDEX_MAGIC);
}

/// The one DJVB writer: file header, each block's in-line header and
/// payload, footer index, tail. Per block the caller supplies what only
/// a producer knows — `(first_logical_time, event_count, switch_count)`
/// — and the packed payload; offsets, sequence numbers, lengths and the
/// CRC are derived here, and [`BlockFile::parse`] accepts only the result.
pub fn write_block_file(
    paranoid: bool,
    budget: u32,
    blocks: impl IntoIterator<Item = (u64, u32, u32, Packed)>,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_file_header(&mut out, paranoid, budget);

    let mut index: Vec<BlockInfo> = Vec::new();
    let mut seq = 0u64;
    for (first_logical_time, event_count, switch_count, packed) in blocks {
        // `comp_len == raw_len` marks "stored raw"; a compressed payload
        // is its method byte followed by the stream.
        let method_byte = (packed.method != BlockMethod::Stored).then(|| packed.method.code());
        let info = BlockInfo {
            offset: out.len() as u64,
            first_seq: seq,
            first_logical_time,
            event_count,
            switch_count,
            raw_len: packed.raw_len,
            comp_len: (packed.stream.len() + method_byte.is_some() as usize) as u32,
            crc: packed.crc,
        };
        info.put(&mut out, false);
        out.extend(method_byte);
        out.extend_from_slice(&packed.stream);
        index.push(info);
        seq += event_count as u64;
    }
    put_footer(&mut out, &index);
    out
}

/// Encode `trace` in the block format with `budget` events per block.
pub fn encode_block(trace: &Trace, budget: u32) -> Vec<u8> {
    let per_block = budget.max(1) as usize;
    let nswitch = trace.switches.len();
    let total = nswitch + trace.data.len();
    let mut blocks = Vec::new();
    let mut logical = 0u64; // cumulative nyp before the next block
    for seq in (0..total).step_by(per_block) {
        let end = (seq + per_block).min(total);
        let switches = &trace.switches[seq.min(nswitch)..end.min(nswitch)];
        let data = &trace.data[seq.saturating_sub(nswitch)..end.saturating_sub(nswitch)];
        let raw = encode_block_payload(switches, data, trace.paranoid);
        blocks.push((
            logical,
            (end - seq) as u32,
            switches.len() as u32,
            Packed::pack(&raw),
        ));
        // Saturating: keeps the index monotone even for adversarial nyp
        // values near u64::MAX (seek just lands in the last such block).
        logical = switches
            .iter()
            .fold(logical, |acc, s| acc.saturating_add(s.nyp));
    }
    write_block_file(trace.paranoid, budget, blocks)
}

/// Encode `trace` in the chosen format (`budget` applies to `Block`).
pub fn encode_trace(trace: &Trace, format: TraceFormat, budget: u32) -> Vec<u8> {
    match format {
        TraceFormat::Block => encode_block(trace, budget),
    }
}

impl Trace {
    /// Append one decoded block — the one splice, under a DJVB file
    /// ([`BlockFile::to_trace`]) and a store-served run alike. The
    /// canonical unified order is switches-first, so switch records that
    /// resume after data records are malformed.
    pub fn append_block(
        &mut self,
        switches: impl IntoIterator<Item = SwitchRec>,
        data: impl IntoIterator<Item = DataRec>,
    ) -> Result<(), TraceError> {
        let before = self.switches.len();
        self.switches.extend(switches);
        if self.switches.len() > before && !self.data.is_empty() {
            return Err(TraceError::Corrupt("switch events after data events"));
        }
        self.data.extend(data);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A parsed block-format trace: the footer index plus the raw file
/// bytes. Individual blocks decode on demand ([`BlockFile::block`]).
#[derive(Debug, Clone)]
pub struct BlockFile {
    pub paranoid: bool,
    pub budget: u32,
    pub index: Vec<BlockInfo>,
    buf: Vec<u8>,
    /// Where the last block ends and the footer index begins.
    footer_start: usize,
}

impl BlockFile {
    /// Parse the header and footer index, and accept the file only in
    /// its one spelling: the bytes [`write_block_file`] emits for what
    /// was parsed. Block payloads are *not* decoded here — use
    /// [`BlockFile::block`] / [`BlockFile::verify`].
    pub fn parse(buf: Vec<u8>) -> Result<Self, TraceError> {
        if buf.len() < 6 || &buf[..4] != BLOCK_MAGIC {
            return Err(TraceError::NotATrace);
        }
        if buf[4] != VERSION {
            return Err(TraceError::UnsupportedVersion(buf[4]));
        }
        let paranoid = buf[5] != 0;
        let mut pos = 6;
        let budget = get_varint(&buf, &mut pos).ok_or(TraceError::Corrupt("short header"))?;
        if budget == 0 || budget > u32::MAX as u64 {
            return Err(TraceError::Corrupt("bad block budget"));
        }
        let blocks_start = pos;
        if buf.len() < blocks_start + 8 {
            return Err(TraceError::Corrupt("missing footer"));
        }
        if &buf[buf.len() - 4..] != INDEX_MAGIC {
            return Err(TraceError::Corrupt("missing index magic (truncated tail)"));
        }
        let tail: [u8; 4] = buf[buf.len() - 8..buf.len() - 4]
            .try_into()
            .map_err(|_| TraceError::Corrupt("missing footer"))?;
        let flen = u32::from_le_bytes(tail) as usize;
        let footer_end = buf.len() - 8;
        let footer_start = footer_end
            .checked_sub(flen)
            .filter(|&s| s >= blocks_start)
            .ok_or(TraceError::Corrupt("bad footer length"))?;
        let footer = &buf[..footer_end];
        let mut fpos = footer_start;
        let count =
            get_varint(footer, &mut fpos).ok_or(TraceError::Corrupt("short index count"))? as usize;
        if count > (footer_end - footer_start).max(1) {
            return Err(TraceError::Corrupt("implausible index count"));
        }
        // What the writer takes on trust is checked here; what it derives
        // (offsets, sequence numbers) and how it spells it, below.
        let mut index: Vec<BlockInfo> = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let info = BlockInfo::get(footer, &mut fpos, None)?;
            if index.last().is_some_and(|p| info.first_logical_time < p.first_logical_time) {
                return Err(TraceError::Corrupt("index logical time not monotone"));
            }
            if info.event_count == 0 && count > 1 {
                return Err(TraceError::Corrupt("empty block in multi-block file"));
            }
            index.push(info);
        }
        // One spelling: walk the file as the writer lays it out and
        // require, in place, each piece of framing it would emit. A
        // paranoid byte that is not 0 or 1, a padded varint, an in-line
        // header unlike its index entry, a gap or an overlap between
        // blocks: each is a different file with the same content, and
        // refused. No payload byte is read or copied, so the work is
        // bounded by the file's size however the index is crafted.
        let respelled = TraceError::Corrupt(
            "not in canonical form (the DJVB writer spells this file differently)",
        );
        let mut expect = Vec::new();
        put_file_header(&mut expect, paranoid, budget as u32);
        if buf[..blocks_start] != expect {
            return Err(respelled);
        }
        let (mut pos, mut seq) = (blocks_start, 0u64);
        for info in &index {
            expect.clear();
            info.put(&mut expect, false);
            // (`get`: the block before may have claimed to run past the footer.)
            let here = buf.get(pos..footer_start).is_some_and(|b| b.starts_with(&expect));
            if !here || (info.offset, info.first_seq) != (pos as u64, seq) {
                return Err(respelled);
            }
            pos += expect.len() + info.comp_len as usize;
            seq += info.event_count as u64;
        }
        expect.clear();
        put_footer(&mut expect, &index);
        if pos != footer_start || buf[footer_start..] != expect {
            return Err(respelled);
        }
        Ok(BlockFile {
            paranoid,
            budget: budget as u32,
            index,
            buf,
            footer_start,
        })
    }

    /// Block `i`'s index entry, method and stream as they sit in the
    /// file. Blocks are contiguous (checked at parse), so a payload ends
    /// where the next block — or the footer — begins.
    fn stream(&self, i: usize) -> Result<(&BlockInfo, BlockMethod, &[u8]), TraceError> {
        let info = self
            .index
            .get(i)
            .ok_or(TraceError::Corrupt("block index out of range"))?;
        let end = self
            .index
            .get(i + 1)
            .map_or(self.footer_start, |next| next.offset as usize);
        let payload = end
            .checked_sub(info.comp_len as usize)
            .and_then(|start| self.buf.get(start..end))
            .ok_or(TraceError::Corrupt("block payload out of range"))?;
        if info.comp_len == info.raw_len {
            return Ok((info, BlockMethod::Stored, payload));
        }
        let (&code, stream) = payload
            .split_first()
            .ok_or(TraceError::Corrupt("empty compressed payload"))?;
        let method = BlockMethod::from_code(code)
            .filter(|&m| m != BlockMethod::Stored)
            .ok_or(TraceError::Corrupt("unknown compression method"))?;
        Ok((info, method, stream))
    }

    /// Block `i`'s packed payload, as the file holds it — not unpacked,
    /// not validated beyond its method byte. This is what the store
    /// keeps.
    pub fn packed(&self, i: usize) -> Result<Packed, TraceError> {
        let (info, method, stream) = self.stream(i)?;
        Ok(Packed {
            method,
            stream: stream.to_vec(),
            raw_len: info.raw_len,
            crc: info.crc,
        })
    }

    /// Decode block `i`'s **raw (pre-compression) payload bytes**:
    /// locate via the index, decompress, and CRC-check. These bytes are
    /// the block's content-addressed identity — the store keys dedup on
    /// their digest.
    pub fn block_raw(&self, i: usize) -> Result<Vec<u8>, TraceError> {
        let (info, method, stream) = self.stream(i)?;
        method
            .unpack(stream, info.raw_len, info.crc)
            .ok_or(TraceError::BadCrc { block: i })
    }

    /// Decode block `i`: decompress, CRC-check, and expand the columns.
    pub fn block(&self, i: usize) -> Result<(Vec<SwitchRec>, Vec<DataRec>), TraceError> {
        let raw = self.block_raw(i)?;
        let info = &self.index[i];
        decode_block_events(&raw, info.event_count, info.switch_count, self.paranoid)
    }

    /// Validate every block's CRC; `Ok` only if all pass.
    pub fn verify(&self) -> Result<(), TraceError> {
        for i in 0..self.index.len() {
            self.block(i)?;
        }
        Ok(())
    }

    /// Per-block CRC status without failing fast (the `trace inspect`
    /// view).
    pub fn crc_status(&self) -> Vec<bool> {
        (0..self.index.len())
            .map(|i| self.block(i).is_ok())
            .collect()
    }

    /// How block `i` is packed. Errors on an out-of-range index or an
    /// unknown method byte (corrupt file, or version 1's LZ77 and range
    /// coder bytes).
    pub fn block_method(&self, i: usize) -> Result<BlockMethod, TraceError> {
        self.stream(i).map(|(_, method, _)| method)
    }

    /// [`BlockFile::block_method`] as the display name `trace inspect`
    /// prints: `"stored"` or `"rans"`.
    pub fn block_compressor(&self, i: usize) -> Result<&'static str, TraceError> {
        self.block_method(i).map(|m| m.name())
    }

    /// Reassemble the full in-memory [`Trace`].
    pub fn to_trace(&self) -> Result<Trace, TraceError> {
        let mut trace = Trace {
            paranoid: self.paranoid,
            ..Trace::default()
        };
        for i in 0..self.index.len() {
            let (switches, data) = self.block(i)?;
            trace.append_block(switches, data)?;
        }
        Ok(trace)
    }

    /// Index of the block covering logical time `t` (the block a seek to
    /// `t` must decode). Blocks cover `(first_logical_time, next block's
    /// first_logical_time]`; `t == 0` maps to block 0.
    pub fn block_for_logical_time(&self, t: u64) -> usize {
        self.index
            .partition_point(|b| b.first_logical_time < t)
            .saturating_sub(1)
    }

    /// `first_logical_time` of every block — the checkpoint-keying
    /// boundaries the time-travel layer snapshots at.
    pub fn boundaries(&self) -> Vec<u64> {
        self.index.iter().map(|b| b.first_logical_time).collect()
    }

    /// Size accounting over the parsed file.
    pub fn stats(&self) -> BlockStats {
        let mut s = BlockStats {
            blocks: self.index.len(),
            file_bytes: self.buf.len(),
            ..BlockStats::default()
        };
        for b in &self.index {
            s.events += b.event_count as u64;
            s.switch_events += b.switch_count as u64;
            s.payload_raw_bytes += b.raw_len as usize;
            s.payload_comp_bytes += b.comp_len as usize;
            if b.comp_len == b.raw_len {
                s.stored_blocks += 1;
            }
            s.per_block_permille.push(if b.raw_len == 0 {
                1000
            } else {
                b.comp_len as u64 * 1000 / b.raw_len as u64
            });
        }
        s.data_events = s.events - s.switch_events;
        s
    }
}

// ---------------------------------------------------------------------
// Streaming ingest (the session-safe upload path)
// ---------------------------------------------------------------------

/// A fully ingested trace: decoded events plus the checkpoint boundaries
/// the file carries in its footer index.
#[derive(Debug, Clone)]
pub struct IngestedTrace {
    pub trace: Trace,
    pub boundaries: Vec<u64>,
}

/// Streaming trace ingest: accumulate serialized trace bytes chunk by
/// chunk (a fleet session's `IngestBlocks` upload), then decode once the
/// stream is complete. Every failure is a typed [`TraceError`] — a
/// hostile or truncated upload must never panic the hosting server, and
/// the size ceiling bounds what one session can make the server buffer.
#[derive(Debug)]
pub struct TraceIngest {
    buf: Vec<u8>,
    limit: usize,
}

/// Default per-session ingest ceiling (64 MiB — two orders of magnitude
/// above the largest corpus trace).
pub const DEFAULT_INGEST_LIMIT: usize = 64 << 20;

impl TraceIngest {
    pub fn new() -> Self {
        Self::with_limit(DEFAULT_INGEST_LIMIT)
    }

    pub fn with_limit(limit: usize) -> Self {
        Self {
            buf: Vec::new(),
            limit,
        }
    }

    /// Append one chunk; returns the total bytes buffered so far.
    pub fn push(&mut self, chunk: &[u8]) -> Result<u64, TraceError> {
        if self.buf.len().saturating_add(chunk.len()) > self.limit {
            return Err(TraceError::Corrupt("ingest exceeds the size ceiling"));
        }
        self.buf.extend_from_slice(chunk);
        Ok(self.buf.len() as u64)
    }

    pub fn bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// The bytes buffered so far — the exact upload, pre-decode.
    pub fn peek(&self) -> &[u8] {
        &self.buf
    }

    /// Decode the accumulated DJVB bytes; the footer index becomes the
    /// seek boundaries.
    pub fn finish(self) -> Result<IngestedTrace, TraceError> {
        ingest_bytes(self.buf)
    }
}

impl Default for TraceIngest {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot form of [`TraceIngest`]: decode a serialized DJVB file into
/// an [`IngestedTrace`]. This is the single ingest path every session
/// host (debugger tier, fleet tier) shares, so "corrupt bytes produce a
/// typed error, never a panic" is proven in one place.
pub fn ingest_bytes(bytes: Vec<u8>) -> Result<IngestedTrace, TraceError> {
    let bf = BlockFile::parse(bytes)?;
    Ok(IngestedTrace {
        boundaries: bf.boundaries(),
        trace: bf.to_trace()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(paranoid: bool, n: usize) -> Trace {
        let mut t = Trace {
            paranoid,
            ..Trace::default()
        };
        for i in 0..n {
            t.switches.push(SwitchRec {
                nyp: 200 + (i as u64 % 17),
                check_tid: if paranoid { (i % 3) as u32 } else { u32::MAX },
            });
        }
        for i in 0..n {
            if i % 5 == 4 {
                t.data.push(DataRec::Native {
                    ret: -(i as i64),
                    callbacks: vec![(3, vec![1, 2, i as i64]), (9, vec![])],
                });
            } else {
                t.data.push(DataRec::Clock(1_000_000 + 2 * i as i64));
            }
        }
        t
    }

    #[test]
    fn roundtrip_various_budgets() {
        for paranoid in [false, true] {
            let t = sample(paranoid, 137);
            for budget in [1u32, 2, 7, 64, 512, 100_000] {
                let enc = encode_block(&t, budget);
                let bf = BlockFile::parse(enc.clone()).unwrap();
                assert_eq!(bf.to_trace().unwrap(), t, "budget {budget}");
            }
        }
    }

    #[test]
    fn roundtrip_empty_trace_has_zero_blocks() {
        let enc = encode_block(&Trace::default(), 512);
        let bf = BlockFile::parse(enc).unwrap();
        assert_eq!(bf.index.len(), 0);
        assert_eq!(bf.to_trace().unwrap(), Trace::default());
        assert_eq!(bf.stats().compression_permille(), 1000);
    }

    #[test]
    fn roundtrip_single_event_blocks() {
        let mut t = Trace::default();
        t.data.push(DataRec::Clock(i64::MIN));
        let enc = encode_block(&t, 1);
        let bf = BlockFile::parse(enc).unwrap();
        assert_eq!(bf.index.len(), 1);
        assert_eq!(bf.index[0].event_count, 1);
        assert_eq!(bf.to_trace().unwrap(), t);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let t = Trace {
            paranoid: true,
            switches: vec![
                SwitchRec {
                    nyp: u64::MAX,
                    check_tid: u32::MAX,
                },
                SwitchRec {
                    nyp: 1,
                    check_tid: 0,
                },
            ],
            data: vec![DataRec::Clock(i64::MIN), DataRec::Clock(i64::MAX)],
        };
        for budget in [1, 2, 4] {
            let enc = encode_block(&t, budget);
            assert_eq!(BlockFile::parse(enc).unwrap().to_trace().unwrap(), t);
        }
    }

    #[test]
    fn index_carries_logical_time() {
        let t = sample(false, 100);
        let enc = encode_block(&t, 10);
        let bf = BlockFile::parse(enc).unwrap();
        // 100 switches + 100 data in blocks of 10 → 20 blocks
        assert_eq!(bf.index.len(), 20);
        assert_eq!(bf.index[0].first_logical_time, 0);
        let cum: u64 = t.switches[..10].iter().map(|s| s.nyp).sum();
        assert_eq!(bf.index[1].first_logical_time, cum);
        // data-only blocks keep the final logical time
        let total: u64 = t.switches.iter().map(|s| s.nyp).sum();
        assert_eq!(bf.index[19].first_logical_time, total);
        // lookup: time 1 is inside block 0; cum+1 inside block 1
        assert_eq!(bf.block_for_logical_time(0), 0);
        assert_eq!(bf.block_for_logical_time(1), 0);
        assert_eq!(bf.block_for_logical_time(cum), 0);
        assert_eq!(bf.block_for_logical_time(cum + 1), 1);
        assert_eq!(bf.boundaries().len(), 20);
    }

    #[test]
    fn truncation_detected_everywhere() {
        let t = sample(true, 64);
        let enc = encode_block(&t, 16);
        for cut in 1..enc.len() {
            let short = &enc[..enc.len() - cut];
            let r = BlockFile::parse(short.to_vec()).and_then(|bf| bf.to_trace());
            assert!(r.is_err(), "accepted a {}-byte truncation", cut);
        }
    }

    #[test]
    fn payload_bitflip_caught_by_crc() {
        let t = sample(false, 64);
        let enc = encode_block(&t, 64);
        let bf = BlockFile::parse(enc.clone()).unwrap();
        // Flip one byte inside the first block's payload (which starts
        // right after its in-line header).
        let mut pos = bf.index[0].offset as usize;
        BlockInfo::get(&enc, &mut pos, Some(bf.index[0].offset)).unwrap();
        let mut bad = enc.clone();
        bad[pos] ^= 0x40;
        let bfbad = BlockFile::parse(bad).unwrap();
        match bfbad.block(0) {
            Err(TraceError::BadCrc { block: 0 }) | Err(TraceError::Corrupt(_)) => {}
            other => panic!("bitflip not caught: {other:?}"),
        }
        assert!(bfbad.verify().is_err());
        assert_eq!(bfbad.crc_status()[0], false);
    }

    /// Build a structurally valid single-block file around an arbitrary
    /// raw payload — the attacker's toolkit: the CRC is honest, so only
    /// the payload-decode layer stands between the bytes and the caller.
    fn handcrafted_block_file(payload: &[u8], event_count: u32, switch_count: u32) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(BLOCK_MAGIC);
        out.push(VERSION);
        out.push(0); // not paranoid
        put_varint(&mut out, 4096);
        let info = BlockInfo {
            offset: out.len() as u64,
            first_seq: 0,
            first_logical_time: 0,
            event_count,
            switch_count,
            raw_len: payload.len() as u32,
            comp_len: payload.len() as u32,
            crc: codec::crc32(payload),
        };
        info.put(&mut out, false);
        out.extend_from_slice(payload);
        let footer_start = out.len();
        put_varint(&mut out, 1);
        info.put(&mut out, true);
        let footer_len = (out.len() - footer_start) as u32;
        out.extend_from_slice(&footer_len.to_le_bytes());
        out.extend_from_slice(INDEX_MAGIC);
        out
    }

    /// A block whose header claims 64 MiB over a 12-byte stream. Version
    /// 1 believed it: its range decoder read zeros past the stream's end
    /// for 2.97 s of CPU behind a 64 MiB allocation, and only then failed
    /// the CRC. No stream of 12 bytes decodes to more than
    /// `codec::max_raw_len(12)`, so parse refuses the claim up front.
    #[test]
    fn a_raw_len_no_stream_could_produce_is_refused_before_decoding() {
        let mut file = Vec::new();
        put_file_header(&mut file, false, DEFAULT_BLOCK_BUDGET);
        let info = BlockInfo {
            offset: file.len() as u64,
            first_seq: 0,
            first_logical_time: 0,
            event_count: 1,
            switch_count: 0,
            raw_len: MAX_RAW_LEN as u32,
            comp_len: 13,
            crc: 0,
        };
        info.put(&mut file, false);
        file.push(BlockMethod::Rans.code());
        file.extend_from_slice(&[0x5A; 12]);
        put_footer(&mut file, &[info]);
        let started = std::time::Instant::now();
        let refused = ingest_bytes(file);
        assert!(started.elapsed() < std::time::Duration::from_millis(50));
        assert_eq!(
            refused.unwrap_err(),
            TraceError::Corrupt("implausible block payload length")
        );
        // The largest claim those 12 bytes can make still parses.
        let plausible = BlockInfo {
            raw_len: codec::max_raw_len(12) as u32,
            ..info
        };
        let (mut pos, mut bytes) = (0, Vec::new());
        plausible.put(&mut bytes, true);
        assert_eq!(BlockInfo::get(&bytes, &mut pos, None), Ok(plausible));
    }

    #[test]
    fn crafted_overflowing_column_is_corrupt_not_panic() {
        // A frame-of-reference column whose min + residue overflows u64:
        // count 1, min u64::MAX, residue 1. Rebuilding the value must be
        // a typed Corrupt, never a wrap (release) or panic (debug).
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // switch count
        put_varint(&mut payload, u64::MAX); // column min
        put_varint(&mut payload, 1); // residue -> overflow
        put_varint(&mut payload, 0); // data count
        let bf = BlockFile::parse(handcrafted_block_file(&payload, 1, 1)).unwrap();
        assert_eq!(
            bf.block(0).unwrap_err(),
            TraceError::Corrupt("frame-of-reference column overflows u64")
        );
        assert!(matches!(bf.to_trace(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn crafted_count_disagreements_are_corrupt_not_panic() {
        // Payload switch count disagrees with the (CRC-honest) header.
        let mut p1 = Vec::new();
        put_varint(&mut p1, 2); // header says 1
        let bf = BlockFile::parse(handcrafted_block_file(&p1, 1, 1)).unwrap();
        assert!(matches!(bf.block(0), Err(TraceError::Corrupt(_))));
        // Payload data count disagrees with event_count - switch_count.
        let mut p2 = Vec::new();
        put_varint(&mut p2, 0); // switch count (matches)
        put_varint(&mut p2, 7); // data count: header implies 1
        let bf = BlockFile::parse(handcrafted_block_file(&p2, 1, 0)).unwrap();
        assert!(matches!(bf.block(0), Err(TraceError::Corrupt(_))));
        // Huge counts that would overflow a naive `nswitch + ndata` sum
        // are rejected against the header before any arithmetic.
        let mut p3 = Vec::new();
        put_varint(&mut p3, u64::MAX);
        let bf = BlockFile::parse(handcrafted_block_file(&p3, 1, 1)).unwrap();
        assert!(matches!(bf.block(0), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn crafted_short_columns_are_corrupt_not_panic() {
        // Clock column shorter than its tag count: tags say 2 clock reads,
        // column holds none.
        let mut p = Vec::new();
        put_varint(&mut p, 0); // switches
        put_varint(&mut p, 2); // data count
        p.push(0); // tag: clock
        p.push(0); // tag: clock
                   // no clock column at all
        let bf = BlockFile::parse(handcrafted_block_file(&p, 2, 0)).unwrap();
        assert_eq!(
            bf.block(0).unwrap_err(),
            TraceError::Corrupt("short frame-of-reference column")
        );
    }

    #[test]
    fn not_a_trace_rejected_typed() {
        for junk in [&b"XXXXXX"[..], b""] {
            let err = BlockFile::parse(junk.to_vec()).unwrap_err();
            assert_eq!(err, TraceError::NotATrace);
        }
        let mut bad = encode_block(&sample(false, 4), 2);
        bad[4] = 9; // unsupported version
        assert_eq!(
            BlockFile::parse(bad).unwrap_err(),
            TraceError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn block_format_beats_flat_on_regular_streams() {
        // The compression claim in miniature: periodic nyp deltas +
        // near-linear clock reads.
        let t = sample(true, 4_000);
        let flat = t.encoded().len();
        let block = encode_block(&t, DEFAULT_BLOCK_BUDGET).len();
        assert!(
            block * 3 <= flat,
            "block {block} bytes vs flat {flat} bytes — expected ≥3×"
        );
        let bf = BlockFile::parse(encode_block(&t, DEFAULT_BLOCK_BUDGET)).unwrap();
        let s = bf.stats();
        assert_eq!(s.events, 8_000);
        assert!(s.compression_permille() < 1000);
        assert_eq!(s.per_block_permille.len(), s.blocks);
        assert!(codec::Json::parse(&s.to_json().to_string()).is_ok());
    }

    #[test]
    fn block_compressor_names_the_method() {
        let t = sample(true, 4_000);
        let bf = BlockFile::parse(encode_block(&t, DEFAULT_BLOCK_BUDGET)).unwrap();
        for (i, b) in bf.index.iter().enumerate() {
            let name = bf.block_compressor(i).unwrap();
            let want = if b.comp_len == b.raw_len {
                "stored"
            } else {
                "rans"
            };
            assert_eq!(name, want, "block {i}");
        }
        // A regular stream must have at least one genuinely compressed block.
        assert!(
            (0..bf.index.len()).any(|i| bf.block_compressor(i).unwrap() != "stored"),
            "all blocks stored raw"
        );
        assert!(bf.block_compressor(bf.index.len()).is_err(), "out of range");
    }

    /// Every block of a parsed file, as the writer takes it.
    fn blocks_of(bf: &BlockFile) -> Vec<(u64, u32, u32, Packed)> {
        (0..bf.index.len())
            .map(|i| {
                let b = &bf.index[i];
                let packed = bf.packed(i).unwrap();
                (b.first_logical_time, b.event_count, b.switch_count, packed)
            })
            .collect()
    }

    #[test]
    fn deconstruct_assemble_is_byte_identical() {
        for paranoid in [false, true] {
            let t = sample(paranoid, 700);
            for budget in [1u32, 7, 64, DEFAULT_BLOCK_BUDGET] {
                let enc = encode_block(&t, budget);
                let bf = BlockFile::parse(enc.clone()).unwrap();
                let back = write_block_file(bf.paranoid, bf.budget, blocks_of(&bf));
                assert_eq!(back, enc, "paranoid={paranoid} budget={budget}");
                // Packing is a pure function of the raw bytes: unpacking
                // a block and packing it again lands on the same value.
                for i in 0..bf.index.len() {
                    let packed = bf.packed(i).unwrap();
                    assert_eq!(Packed::pack(&packed.unpack().unwrap()), packed);
                }
            }
        }
        // Empty trace: zero blocks still reassembles exactly.
        let enc = encode_block(&Trace::default(), 512);
        let bf = BlockFile::parse(enc.clone()).unwrap();
        assert_eq!(write_block_file(bf.paranoid, bf.budget, blocks_of(&bf)), enc);
    }

    #[test]
    fn pack_keeps_one_stored_vs_compressed_rule() {
        // Compressible: the coder lands, and unpacks to the input.
        let raw: Vec<u8> = (0..4000u32).map(|i| (i % 7) as u8).collect();
        let p = Packed::pack(&raw);
        assert_eq!(p.method, BlockMethod::Rans);
        assert_eq!((p.raw_len, p.crc), (4000, codec::crc32(&raw)));
        assert_eq!(p.unpack().as_deref(), Some(&raw[..]));
        // Incompressible: the raw bytes.
        let noise: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let p = Packed::pack(&noise);
        assert_eq!((p.method, &p.stream), (BlockMethod::Stored, &noise));
        // A stream that does not belong to its header is not unpacked.
        let good = Packed::pack(&raw);
        for bad in [
            Packed { crc: good.crc ^ 1, ..good.clone() },
            Packed { raw_len: good.raw_len - 1, ..good.clone() },
            Packed { method: BlockMethod::Stored, ..good.clone() },
            Packed { stream: good.stream[1..].to_vec(), ..good.clone() },
        ] {
            assert_eq!(bad.unpack(), None);
        }
    }

    /// A DJVB file has one spelling: every way of framing the same
    /// content that the writer would not emit is refused at parse. Each
    /// variant below is self-consistent — the index points at the block
    /// headers, the footer length is right — so only the canonical-form
    /// check stands between it and the caller.
    #[test]
    fn parse_refuses_every_other_spelling() {
        let enc = encode_block(&sample(true, 40), 16);
        let bf = BlockFile::parse(enc.clone()).unwrap();
        let last = bf.index.len() - 1;
        assert!(last >= 2);
        let off = |i: usize| bf.index[i].offset as usize;
        // Insert `byte` at `at`, tell the index that blocks `moved..` start
        // one byte later, and write the footer and tail around the result.
        let respell = |at: usize, byte: u8, moved: usize| {
            let mut out = enc[..bf.footer_start].to_vec();
            out.insert(at, byte);
            let footer_start = out.len();
            put_varint(&mut out, bf.index.len() as u64);
            for (i, b) in bf.index.iter().enumerate() {
                let offset = b.offset + (i >= moved) as u64;
                BlockInfo { offset, ..*b }.put(&mut out, true);
            }
            let footer_len = (out.len() - footer_start) as u32;
            out.extend_from_slice(&footer_len.to_le_bytes());
            out.extend_from_slice(INDEX_MAGIC);
            out
        };
        // `v` (one byte, < 0x80) re-spelled as the two bytes `v|0x80 00`.
        let pad = |at: usize, moved: usize| {
            assert!(enc[at] < 0x80);
            let mut out = respell(at + 1, 0x00, moved);
            out[at] |= 0x80;
            out
        };

        let mut paranoid2 = enc.clone();
        paranoid2[5] = 2; // reads as "paranoid", is not what was written
        let mut footer_pad = enc.clone();
        let tail = footer_pad.split_off(bf.footer_start);
        footer_pad.extend_from_slice(&[tail[0] | 0x80, 0x00]); // block count
        footer_pad.extend_from_slice(&tail[1..tail.len() - 8]);
        footer_pad.extend_from_slice(&(tail.len() as u32 - 7).to_le_bytes());
        footer_pad.extend_from_slice(INDEX_MAGIC);
        let mut disagree = enc.clone();
        let mut pos = off(1);
        get_varint(&enc, &mut pos).unwrap(); // past first_seq …
        assert!(disagree[pos] & 0x7F > 0);
        disagree[pos] -= 1; // … to first_logical_time, in line only

        for (bytes, why) in [
            (paranoid2, "paranoid byte 2"),
            (pad(6, 0), "padded budget varint"),
            (pad(off(0), 1), "padded in-line header varint (first_seq 0)"),
            (footer_pad, "padded footer varint"),
            (disagree, "in-line header disagrees with its index entry"),
            (respell(off(last), 0x00, last), "gap before the last block"),
        ] {
            assert!(
                matches!(BlockFile::parse(bytes), Err(TraceError::Corrupt(_))),
                "accepted: {why}"
            );
        }
    }

    /// The canonical-form check must cost no more than the file is long,
    /// whatever the index claims. Here 2 000 index entries all name the
    /// one 128 KiB block: each entry is plausible on its own, and a check
    /// that gathered every entry's payload would copy 250 MiB for a
    /// 170 KiB upload (and grow with the square of the upload's size).
    /// Parse refuses at the second entry without reading a payload.
    #[test]
    fn parse_refuses_an_overlapping_index_in_linear_work() {
        let payload: Vec<u8> = (0..128u32 << 10).map(|i| (i * 31 >> 3) as u8).collect();
        let honest = handcrafted_block_file(&payload, 1, 0);
        let bf = BlockFile::parse(honest.clone()).unwrap();
        for first_seq in [0, 1] {
            let mut bytes = honest[..bf.footer_start].to_vec();
            let index: Vec<BlockInfo> = (0..2_000)
                .map(|i| BlockInfo { first_seq: i * first_seq, ..bf.index[0] })
                .collect();
            put_footer(&mut bytes, &index);
            assert!(bytes.len() < 2 * honest.len());
            assert!(matches!(BlockFile::parse(bytes), Err(TraceError::Corrupt(_))));
        }
    }

    #[test]
    fn block_raw_and_decode_block_events_match_block() {
        let t = sample(true, 300);
        let bf = BlockFile::parse(encode_block(&t, 32)).unwrap();
        for i in 0..bf.index.len() {
            let raw = bf.block_raw(i).unwrap();
            assert_eq!(codec::crc32(&raw), bf.index[i].crc);
            let via_raw = decode_block_events(
                &raw,
                bf.index[i].event_count,
                bf.index[i].switch_count,
                bf.paranoid,
            )
            .unwrap();
            assert_eq!(via_raw, bf.block(i).unwrap());
        }
        // Count/paranoid contract violations are typed errors.
        let raw = bf.block_raw(0).unwrap();
        assert!(decode_block_events(&raw, 1, 2, true).is_err());
        assert!(decode_block_events(&raw, bf.index[0].event_count, 0, bf.paranoid).is_err());
    }

    #[test]
    fn block_method_codes_roundtrip() {
        for m in [BlockMethod::Stored, BlockMethod::Rans] {
            assert_eq!(BlockMethod::from_code(m.code()), Some(m));
        }
        // Version 1's LZ77 and range coder name nothing.
        for code in [1, 2, 4] {
            assert_eq!(BlockMethod::from_code(code), None);
        }
        let bf = BlockFile::parse(encode_block(&sample(true, 2_000), 256)).unwrap();
        for i in 0..bf.index.len() {
            assert_eq!(
                bf.block_method(i).unwrap().name(),
                bf.block_compressor(i).unwrap()
            );
        }
    }

    #[test]
    fn stats_json_deterministic() {
        let t = sample(false, 50);
        let bf = BlockFile::parse(encode_block(&t, 8)).unwrap();
        let a = bf.stats().to_json().to_string();
        let b = bf.stats().to_json().to_canonical_string();
        assert_eq!(a, b, "keys pre-sorted");
    }

    #[test]
    fn chunked_ingest_matches_one_shot_decode() {
        let t = sample(true, 500);
        let bytes = encode_block(&t, 64);
        // Stream in uneven chunks, as a TCP upload would arrive.
        let mut ingest = TraceIngest::new();
        for chunk in bytes.chunks(13) {
            ingest.push(chunk).unwrap();
        }
        assert_eq!(ingest.bytes(), bytes.len() as u64);
        let got = ingest.finish().unwrap();
        assert_eq!(got.trace, t);
        assert!(!got.boundaries.is_empty(), "block footer keys checkpoints");
        assert_eq!(ingest_bytes(bytes).unwrap().boundaries, got.boundaries);
    }

    #[test]
    fn ingest_rejects_oversize_and_garbage_with_typed_errors() {
        let mut small = TraceIngest::with_limit(8);
        assert!(small.push(&[0u8; 6]).is_ok());
        assert!(matches!(small.push(&[0u8; 6]), Err(TraceError::Corrupt(_))));
        assert!(matches!(
            ingest_bytes(b"not a trace".to_vec()),
            Err(TraceError::NotATrace)
        ));
        // Truncated block file: typed error, never a panic.
        let bytes = encode_trace(&sample(true, 200), TraceFormat::Block, 32);
        assert!(ingest_bytes(bytes[..40].to_vec()).is_err());
    }
}
