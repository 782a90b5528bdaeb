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
//! Encoding is a fixed hand-rolled binary layout (magic + version byte
//! up front) rather than the tagged `hac-codec` layout the objects it
//! names use: the manifest is the recovery *root*, so it must be
//! decodable before anything else and must fail loudly — not
//! positionally — when its shape evolves.

use crate::hash::ContentHash;
use crate::store::{StoreError, StoreResult};

/// Manifest wire magic.
pub const MANIFEST_MAGIC: [u8; 4] = *b"HACM";
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
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.push(MANIFEST_VERSION);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.committed_at_micros.to_le_bytes());
        for link in [self.base, self.paths] {
            match link {
                Some(h) => {
                    out.push(1);
                    out.extend_from_slice(&h.0);
                }
                None => out.push(0),
            }
        }
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for s in &self.segments {
            out.extend_from_slice(&s.hash.0);
            out.extend_from_slice(&s.seq.to_le_bytes());
            out.extend_from_slice(&s.docs.to_le_bytes());
            out.extend_from_slice(&s.bytes.to_le_bytes());
            out.extend_from_slice(&s.generation.to_le_bytes());
        }
        out
    }

    /// Decode a manifest, validating magic, version, and arity.
    pub fn decode(bytes: &[u8]) -> StoreResult<Manifest> {
        let corrupt = |m: &str| StoreError::Corrupt(format!("manifest: {m}"));
        let mut cur = bytes;
        let mut take = |n: usize, what: &str| -> StoreResult<&[u8]> {
            if cur.len() < n {
                return Err(corrupt(&format!("truncated at {what}")));
            }
            let (head, tail) = cur.split_at(n);
            cur = tail;
            Ok(head)
        };

        if take(4, "magic")? != MANIFEST_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = take(1, "version")?[0];
        if version == 0 || version > MANIFEST_VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let u64_of = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let hash_of = |b: &[u8]| {
            let mut h = [0u8; 32];
            h.copy_from_slice(b);
            ContentHash(h)
        };

        let seq = u64_of(take(8, "seq")?);
        let committed_at_micros = if version >= 2 {
            u64_of(take(8, "commit stamp")?)
        } else {
            0
        };
        let base = match take(1, "base flag")?[0] {
            0 => None,
            1 => Some(hash_of(take(32, "base hash")?)),
            _ => return Err(corrupt("bad base flag")),
        };
        let paths = match take(1, "paths flag")?[0] {
            0 => None,
            1 => Some(hash_of(take(32, "paths hash")?)),
            _ => return Err(corrupt("bad paths flag")),
        };
        let count = u32::from_le_bytes(take(4, "segment count")?.try_into().unwrap()) as usize;
        let mut segments = Vec::with_capacity(count.min(4096));
        for i in 0..count {
            segments.push(SegmentEntry {
                hash: hash_of(take(32, "segment hash")?),
                seq: u64_of(take(8, "segment seq")?),
                docs: u64_of(take(8, "segment docs")?),
                bytes: u64_of(take(8, "segment bytes")?),
                generation: u64_of(take(8, "segment generation")?),
            });
            if i > 0 && segments[i].seq <= segments[i - 1].seq {
                return Err(corrupt("segment seqs not ascending"));
            }
        }
        if !cur.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Manifest {
            seq,
            committed_at_micros,
            base,
            paths,
            segments,
        })
    }
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
    fn every_truncation_is_rejected() {
        let full = sample().encode();
        for cut in 0..full.len() {
            assert!(
                Manifest::decode(&full[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_rejected() {
        let mut b = sample().encode();
        b[0] = b'X';
        assert!(Manifest::decode(&b).is_err());

        let mut b = sample().encode();
        b[4] = 99;
        assert!(matches!(
            Manifest::decode(&b),
            Err(StoreError::Corrupt(m)) if m.contains("version 99")
        ));

        let mut b = sample().encode();
        b.push(0);
        assert!(Manifest::decode(&b).is_err());
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
    fn v1_manifests_still_decode_with_a_zero_stamp() {
        // Hand-build the v1 layout: no commit stamp after seq.
        let m = sample();
        let v2 = m.encode();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&v2[..4]); // magic
        v1.push(1); // version
        v1.extend_from_slice(&m.seq.to_le_bytes());
        v1.extend_from_slice(&v2[4 + 1 + 8 + 8..]); // skip the v2 stamp
        let back = Manifest::decode(&v1).unwrap();
        assert_eq!(back.committed_at_micros, 0, "v1 reports an absent stamp");
        assert_eq!(back.seq, m.seq);
        assert_eq!(back.segments, m.segments);
    }

    #[test]
    fn non_ascending_seqs_rejected() {
        let mut m = sample();
        m.segments[1].seq = 2;
        assert!(Manifest::decode(&m.encode()).is_err());
    }
}
