//! Typed store failures. Every store code path returns one of these —
//! corruption, hostile bytes, or concurrent interference are never a
//! panic — and [`StoreError::code`] maps each variant onto the CLI's
//! exit-code contract (1 = bad input / I/O / corruption, 2 = a
//! divergence-class disagreement).

use dejavu::TraceError;
use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem-level failure (path + OS error text).
    Io(String),
    /// The store's own structures are damaged (catalog JSON, block
    /// record framing, digest mismatch, reconstruction disagreement).
    Corrupt(String),
    /// The DJVB payload inside a block or entry failed trace-level
    /// decode.
    Trace(TraceError),
    /// No entry / block under the requested identity.
    NotFound(String),
    /// Another open `Store` holds this root's `LOCK`.
    Locked(String),
    /// The root is in the layout before the log (`blocks/`, `catalog/`).
    OldLayout(String),
    /// Two puts of the same entry identity carry different *verified*
    /// fingerprints — the replay-divergence class, not an I/O class.
    FingerprintMismatch {
        entry: String,
        have: u64,
        got: u64,
    },
}

impl StoreError {
    /// Exit class on the repo-wide 0/1/2 contract: everything here is
    /// 1 (corrupt / bad input) except a fingerprint disagreement, which
    /// is the divergence class (2).
    pub fn code(&self) -> u8 {
        match self {
            StoreError::FingerprintMismatch { .. } => 2,
            _ => 1,
        }
    }

    /// Wrap an OS error with the path it happened on.
    pub fn io(path: &std::path::Path, err: std::io::Error) -> Self {
        StoreError::Io(format!("{}: {err}", path.display()))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(what) => write!(f, "store i/o error: {what}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            StoreError::Trace(e) => write!(f, "stored trace: {e}"),
            StoreError::NotFound(what) => write!(f, "not in store: {what}"),
            StoreError::Locked(root) => write!(f, "store {root} is held by another open store"),
            StoreError::OldLayout(root) => write!(
                f,
                "store {root} is in the old layout (blocks/ and catalog/, no log/): \
                 take its runs out with the old build's `store get`"
            ),
            StoreError::FingerprintMismatch { entry, have, got } => write!(
                f,
                "fingerprint mismatch for entry {entry}: store has {have:#018x}, put carries {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<TraceError> for StoreError {
    fn from(e: TraceError) -> Self {
        StoreError::Trace(e)
    }
}
