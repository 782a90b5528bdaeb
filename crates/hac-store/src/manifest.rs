//! The manifest: the single source of truth for what the index *is*.
//!
//! A manifest lists an optional **base** object (a full index snapshot)
//! and an ordered run of **segment** objects (delta logs), all by
//! content hash. The manifest itself is content-addressed and immutable;
//! "the current index" is whatever the `current` ref points at, and
//! moving that ref is the commit point for every state change. Old
//! manifests, superseded segments, and bases become unreferenced objects
//! for GC to sweep.
//!
//! Encoding is `hac-codec`'s fixed-width primitives inside the `HACM`
//! envelope, written field by field: the manifest is the recovery
//! *root*, so it must be decodable before anything else and must fail
//! loudly when its shape evolves.

use hac_codec::{envelope, fixed};

use crate::hash::ContentHash;
use crate::store::{StoreError, StoreResult};

/// Manifest wire magic.
pub const MANIFEST_MAGIC: [u8; 4] = hac_codec::magic::MANIFEST;
/// Current manifest format version. v2 added `committed_at_micros`
/// (wall-clock commit stamp) after `seq`; v1 manifests still decode,
/// reporting a zero stamp.
pub const MANIFEST_VERSION: u8 = 2;

/// One live segment in manifest order (ascending `seq`; replay order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Content address of the segment object.
    pub hash: ContentHash,
    /// Commit sequence number (monotonic across the store's life).
    pub seq: u64,
    /// Documents touched (adds + removes) — the merge policy's size.
    pub docs: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Index generation after this segment was applied.
    pub generation: u64,
}

/// The manifest structure. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic manifest revision (bumped on every commit/merge/checkpoint).
    pub seq: u64,
    /// Wall-clock time (µs since the Unix epoch) this revision was
    /// written, stamped by the committing store. Zero for pre-v2
    /// manifests and for manifests never committed. Replicas use the
    /// delta against their own clock as the wall-clock half of lag
    /// telemetry (`hac_fed_replica_lag_us`), so it is advisory — clock
    /// skew makes it an estimate, never a correctness input.
    pub committed_at_micros: u64,
    /// Full index snapshot all segments replay on top of, if any.
    pub base: Option<ContentHash>,
    /// Doc→path sidecar for the base snapshot, if any: the paths the
    /// base's documents were indexed under, written at checkpoint time so
    /// recovery can rebuild its path map without a namespace walk.
    pub paths: Option<ContentHash>,
    /// Live delta segments, ascending `seq`.
    pub segments: Vec<SegmentEntry>,
}

impl Manifest {
    /// Total documents covered by live segments.
    pub fn segment_docs(&self) -> u64 {
        self.segments.iter().map(|s| s.docs).sum()
    }

    /// The highest committed segment seq (0 if none).
    pub fn last_segment_seq(&self) -> u64 {
        self.segments.last().map(|s| s.seq).unwrap_or(0)
    }

    /// The segments a replica that has already applied `applied` (by
    /// content hash) still needs, in replay order. The export half of
    /// segment shipping: a replica fetches the primary's manifest, diffs
    /// by hash — hashes survive merges and checkpoints changing *around*
    /// a segment, because the segment object itself is immutable — and
    /// pulls exactly the missing objects.
    pub fn missing_segments<F>(&self, applied: F) -> Vec<&SegmentEntry>
    where
        F: Fn(&ContentHash) -> bool,
    {
        self.segments.iter().filter(|s| !applied(&s.hash)).collect()
    }

    /// Serialize to the versioned binary layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.segments.len() * 64);
        envelope::seal(&mut out, MANIFEST_MAGIC, MANIFEST_VERSION);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.committed_at_micros.to_le_bytes());
        for link in [self.base, self.paths] {
            out.push(u8::from(link.is_some()));
            if let Some(h) = link {
                out.extend_from_slice(&h.0);
            }
        }
        fixed::put_len(&mut out, self.segments.len());
        for s in &self.segments {
            out.extend_from_slice(&s.hash.0);
            for v in [s.seq, s.docs, s.bytes, s.generation] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decode a manifest, validating magic, version, and arity.
    pub fn decode(bytes: &[u8]) -> StoreResult<Manifest> {
        let (version, body) = envelope::open(bytes, MANIFEST_MAGIC).map_err(corrupt)?;
        if version == 0 || version > MANIFEST_VERSION {
            return Err(corrupt(format_args!("unsupported version {version}")));
        }
        let manifest = Manifest::read(version, body).map_err(corrupt)?;
        if manifest.segments.windows(2).any(|w| w[1].seq <= w[0].seq) {
            return Err(corrupt("segment seqs not ascending"));
        }
        Ok(manifest)
    }

    fn read(version: u8, body: &[u8]) -> Result<Manifest, hac_codec::Error> {
        let mut r = fixed::Reader::new(body);
        let opt_hash = |r: &mut fixed::Reader<'_>| -> Result<_, hac_codec::Error> {
            Ok(if r.flag()? {
                Some(ContentHash(r.array()?))
            } else {
                None
            })
        };
        let manifest = Manifest {
            seq: r.u64()?,
            committed_at_micros: if version >= 2 { r.u64()? } else { 0 },
            base: opt_hash(&mut r)?,
            paths: opt_hash(&mut r)?,
            segments: r.seq(|r| {
                Ok(SegmentEntry {
                    hash: ContentHash(r.array()?),
                    seq: r.u64()?,
                    docs: r.u64()?,
                    bytes: r.u64()?,
                    generation: r.u64()?,
                })
            })?,
        };
        r.finish()?;
        Ok(manifest)
    }
}

fn corrupt(m: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("manifest: {m}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            seq: 7,
            committed_at_micros: 1_700_000_000_000_000,
            base: Some(ContentHash::of(b"base snapshot")),
            paths: Some(ContentHash::of(b"paths sidecar")),
            segments: vec![
                SegmentEntry {
                    hash: ContentHash::of(b"seg 1"),
                    seq: 3,
                    docs: 120,
                    bytes: 4096,
                    generation: 120,
                },
                SegmentEntry {
                    hash: ContentHash::of(b"seg 2"),
                    seq: 5,
                    docs: 4,
                    bytes: 512,
                    generation: 124,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        for m in [Manifest::default(), sample()] {
            assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        }
        assert_eq!(sample().segment_docs(), 124);
        assert_eq!(sample().last_segment_seq(), 5);
    }

    #[test]
    fn missing_segments_diffs_by_hash() {
        let m = sample();
        let all: Vec<_> = m.missing_segments(|_| false);
        assert_eq!(all.len(), 2);
        let have = ContentHash::of(b"seg 1");
        let missing = m.missing_segments(|h| *h == have);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].seq, 5);
        assert!(m.missing_segments(|_| true).is_empty());
    }

    #[test]
    fn non_ascending_seqs_rejected() {
        let mut m = sample();
        m.segments[1].seq = 2;
        assert!(Manifest::decode(&m.encode()).is_err());
    }
}
