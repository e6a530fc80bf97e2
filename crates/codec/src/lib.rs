//! # codec — std-only serialization for the DejaVu reproduction
//!
//! The platform controls *all* of its own side effects (paper §3: pre-loaded
//! classes, pre-allocated buffers); the build-system analogue is owning our
//! serialization layers instead of pulling external crates the hermetic
//! build environment cannot fetch. This crate is the workspace's only
//! encode/decode machinery:
//!
//! * [`bin`] — LEB128 varints and zigzag, the primitives under the binary
//!   trace format ([`dejavu`'s two-stream trace]) and any other compact
//!   on-disk structure.
//! * [`block`] — CRC-32, the integrity check under every trace block, and
//!   an LZ77-style compressor the benchmark probe measures the coder
//!   against.
//! * [`rans`] — the entropy coder every compressed trace block goes
//!   through: static-model rANS over byte-class contexts.
//! * [`json`] — a small JSON value model ([`json::Json`]) with a strict
//!   recursive-descent parser and a writer, plus the [`json::FromJson`] /
//!   [`json::ToJson`] traits the debugger protocol implements by hand.
//! * [`digest`] — 128-bit content digests (double-keyed SipHash-2-4), the
//!   keying under the content-addressed trace store and the digest column
//!   `trace inspect` prints.
//!
//! Everything here is `std`-only and deterministic: the writer emits object
//! keys in insertion order, so encoding is a pure function of the value.

pub mod bin;
pub mod block;
pub mod digest;
pub mod json;
pub mod rans;

pub use bin::{get_varint, put_varint, unzigzag, varint_len, zigzag};
pub use block::{compress, crc32, decompress};
pub use digest::{digest128, Digest128};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rans::{entropy_compress, entropy_decompress, max_raw_len};
