//! The trace catalog: one canonical-JSON manifest per stored run. An
//! entry is a *view* over shared blocks — it records the block digest
//! list plus exactly the per-block fields needed to reassemble the
//! original file bytes ([`dejavu::write_block_file`]) and to key
//! checkpoints ([`BlockRef::first_logical_time`]).
//!
//! ## Identity
//!
//! An entry's id is the digest of the canonical JSON of its **content
//! identity**: workload, seed, format, paranoid, budget, and the block
//! digest list. Fingerprint and policy are deliberately excluded — a
//! fleet ingest (fingerprint unknown at ingest time) and a CLI `store
//! put --verify` of the same run must converge on one entry, with the
//! fingerprint upgrading in place. Two *verified* puts that disagree on
//! the fingerprint are a divergence
//! ([`StoreError::FingerprintMismatch`], exit class 2), caught at put
//! time, not at replay time.

use crate::error::StoreError;
use codec::{digest128, Digest128, Json};
use dejavu::BlockMethod;

/// The `format` field of every entry: DJVB is the only file format.
/// The field is hashed into the identity digest, so existing entry ids
/// depend on it; any other value is corruption.
const FORMAT: &str = "block";

/// One block reference inside a catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRef {
    pub digest: Digest128,
    pub event_count: u32,
    pub switch_count: u32,
    /// Cumulative logical clock before the block — the checkpoint key.
    pub first_logical_time: u64,
    /// The method the upload packed this block with (`get` re-packs a
    /// record on another method — another upload's, or compaction's —
    /// with exactly this one).
    pub method: BlockMethod,
    pub raw_len: u32,
}

/// One stored run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    pub workload: String,
    pub seed: u64,
    pub paranoid: bool,
    /// Block budget of the put file.
    pub budget: u32,
    /// Length of the originally put file — `get` validates its
    /// reconstruction against this.
    pub file_bytes: u64,
    /// Replay fingerprint; 0 = not yet verified.
    pub fingerprint: u64,
    /// Optional pointer to a replay policy sidecar ("" = none).
    pub policy: String,
    /// How many times this run has been put (repeated puts of the same
    /// run converge on one entry; this counts them, so "naive bytes" =
    /// `file_bytes × puts` reflects what per-run files would have cost).
    /// Not part of the manifest: the store reads it off the entry's put
    /// log, which every put appends one byte to. A manifest written before
    /// put logs existed carries a `puts` key, which counts while the entry
    /// has no log.
    pub puts: u64,
    pub blocks: Vec<BlockRef>,
}

impl CatalogEntry {
    /// Content identity (the catalog filename). Excludes fingerprint
    /// and policy — see the module docs.
    pub fn identity(&self) -> String {
        let blocks = Json::Arr(
            self.blocks
                .iter()
                .map(|b| Json::Str(b.digest.hex()))
                .collect(),
        );
        let id_obj = Json::obj(vec![
            ("blocks", blocks),
            ("budget", Json::UInt(self.budget as u64)),
            ("format", Json::Str(FORMAT.into())),
            ("paranoid", Json::Bool(self.paranoid)),
            ("seed", Json::UInt(self.seed)),
            ("workload", Json::Str(self.workload.clone())),
        ]);
        digest128(id_obj.to_canonical_string().as_bytes()).hex()
    }

    /// Canonical JSON body (keys pre-sorted, so `to_string` ==
    /// `to_canonical_string`). The `id` field is included for
    /// self-description and re-validated on parse; `puts` is not (it
    /// lives in the put log, so a repeat put leaves these bytes alone).
    pub fn to_json(&self) -> Json {
        let blocks = Json::Arr(
            self.blocks
                .iter()
                .map(|b| {
                    Json::obj(vec![
                        ("digest", Json::Str(b.digest.hex())),
                        ("event_count", Json::UInt(b.event_count as u64)),
                        ("first_logical_time", Json::UInt(b.first_logical_time)),
                        ("method", Json::UInt(b.method.code() as u64)),
                        ("raw_len", Json::UInt(b.raw_len as u64)),
                        ("switch_count", Json::UInt(b.switch_count as u64)),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("blocks", blocks),
            ("budget", Json::UInt(self.budget as u64)),
            ("file_bytes", Json::UInt(self.file_bytes)),
            ("fingerprint", Json::UInt(self.fingerprint)),
            ("format", Json::Str(FORMAT.into())),
            ("id", Json::Str(self.identity())),
            ("paranoid", Json::Bool(self.paranoid)),
            ("policy", Json::Str(self.policy.clone())),
            ("seed", Json::UInt(self.seed)),
            ("workload", Json::Str(self.workload.clone())),
        ])
    }

    /// Strict parse + identity re-validation: a catalog file whose `id`
    /// field disagrees with its recomputed identity (bit rot, a renamed
    /// file, hand edits) is typed corruption.
    pub fn from_json(j: &Json) -> Result<CatalogEntry, StoreError> {
        let corrupt = |what: &str| StoreError::Corrupt(format!("catalog entry: {what}"));
        let field_u64 = |key: &str| -> Result<u64, StoreError> {
            j.field(key)
                .and_then(|v| v.as_u64())
                .map_err(|_| corrupt(&format!("missing/invalid field {key:?}")))
        };
        let field_str = |key: &str| -> Result<String, StoreError> {
            j.field(key)
                .and_then(|v| v.as_str())
                .map(|s| s.to_owned())
                .map_err(|_| corrupt(&format!("missing/invalid field {key:?}")))
        };
        if field_str("format")? != FORMAT {
            return Err(corrupt("unknown format"));
        }
        let budget = field_u64("budget")?;
        if budget == 0 || budget > u32::MAX as u64 {
            return Err(corrupt("bad budget"));
        }
        let paranoid = j
            .field("paranoid")
            .and_then(|v| v.as_bool())
            .map_err(|_| corrupt("missing/invalid field \"paranoid\""))?;
        let blocks_json = j
            .field("blocks")
            .and_then(|v| v.as_arr())
            .map_err(|_| corrupt("missing/invalid field \"blocks\""))?;
        let mut blocks = Vec::with_capacity(blocks_json.len());
        let mut prev_logical = 0u64;
        for b in blocks_json {
            let bfield = |key: &str| -> Result<u64, StoreError> {
                b.field(key)
                    .and_then(|v| v.as_u64())
                    .map_err(|_| corrupt(&format!("block ref: missing/invalid {key:?}")))
            };
            let digest = b
                .field("digest")
                .and_then(|v| v.as_str())
                .ok()
                .and_then(Digest128::parse)
                .ok_or_else(|| corrupt("block ref: bad digest"))?;
            let event_count = bfield("event_count")?;
            let switch_count = bfield("switch_count")?;
            if switch_count > event_count || event_count > u32::MAX as u64 {
                return Err(corrupt("block ref: implausible event counts"));
            }
            let first_logical_time = bfield("first_logical_time")?;
            if first_logical_time < prev_logical {
                return Err(corrupt("block ref: logical time not monotone"));
            }
            prev_logical = first_logical_time;
            let method = BlockMethod::from_code(
                u8::try_from(bfield("method")?)
                    .map_err(|_| corrupt("block ref: bad method"))?,
            )
            .ok_or_else(|| corrupt("block ref: bad method"))?;
            let raw_len = bfield("raw_len")?;
            if raw_len > u32::MAX as u64 {
                return Err(corrupt("block ref: implausible raw_len"));
            }
            blocks.push(BlockRef {
                digest,
                event_count: event_count as u32,
                switch_count: switch_count as u32,
                first_logical_time,
                method,
                raw_len: raw_len as u32,
            });
        }
        // A manifest written before put logs existed carries its put count
        // itself; the store reads it only while the entry has no log.
        let legacy_puts = match j.field("puts") {
            Err(_) => 0,
            Ok(v) => match v.as_u64() {
                Ok(n) if n > 0 => n,
                _ => return Err(corrupt("bad legacy puts")),
            },
        };
        let entry = CatalogEntry {
            workload: field_str("workload")?,
            seed: field_u64("seed")?,
            paranoid,
            budget: budget as u32,
            file_bytes: field_u64("file_bytes")?,
            fingerprint: field_u64("fingerprint")?,
            policy: field_str("policy")?,
            puts: legacy_puts,
            blocks,
        };
        let claimed = field_str("id")?;
        if claimed != entry.identity() {
            return Err(corrupt("id disagrees with recomputed identity"));
        }
        Ok(entry)
    }

    /// Checkpoint boundaries for the time-travel layer — one per block,
    /// same contract as [`dejavu::BlockFile::boundaries`].
    pub fn boundaries(&self) -> Vec<u64> {
        self.blocks.iter().map(|b| b.first_logical_time).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> CatalogEntry {
        CatalogEntry {
            workload: "fig1_ab".into(),
            seed: 7,
            paranoid: true,
            budget: 4096,
            file_bytes: 12345,
            fingerprint: 0xdead_beef,
            policy: "".into(),
            puts: 0, // the put log's count: no manifest carries it
            blocks: vec![
                BlockRef {
                    digest: digest128(b"block zero"),
                    event_count: 4096,
                    switch_count: 2048,
                    first_logical_time: 0,
                    method: BlockMethod::Rans,
                    raw_len: 9000,
                },
                BlockRef {
                    digest: digest128(b"block one"),
                    event_count: 100,
                    switch_count: 0,
                    first_logical_time: 411_000,
                    method: BlockMethod::Stored,
                    raw_len: 64,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_canonical() {
        let e = sample_entry();
        let j = e.to_json();
        assert_eq!(j.to_string(), j.to_canonical_string(), "keys pre-sorted");
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(CatalogEntry::from_json(&parsed).unwrap(), e);
    }

    #[test]
    fn identity_excludes_fingerprint_and_policy() {
        let a = sample_entry();
        let mut b = a.clone();
        b.fingerprint = 0;
        b.policy = "some/policy.json".into();
        b.puts = 64;
        assert_eq!(a.identity(), b.identity());
        let mut c = a.clone();
        c.seed = 8;
        assert_ne!(a.identity(), c.identity());
        let mut d = a.clone();
        d.blocks[0].digest = digest128(b"different");
        assert_ne!(a.identity(), d.identity());
    }

    #[test]
    fn tampered_id_is_corrupt() {
        let e = sample_entry();
        let mut text = e.to_json().to_string();
        // Change the seed without re-deriving the id.
        text = text.replace("\"seed\":7", "\"seed\":8");
        // Same for a format other than DJVB.
        let flat = e.to_json().to_string().replace("\"block\"", "\"flat\"");
        for tampered in [text, flat] {
            let parsed = Json::parse(&tampered).unwrap();
            assert!(matches!(
                CatalogEntry::from_json(&parsed),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn nonmonotone_boundaries_are_corrupt() {
        let mut e = sample_entry();
        e.blocks[1].first_logical_time = 0;
        e.blocks[0].first_logical_time = 5;
        let parsed = Json::parse(&e.to_json().to_string()).unwrap();
        assert!(CatalogEntry::from_json(&parsed).is_err());
    }
}
