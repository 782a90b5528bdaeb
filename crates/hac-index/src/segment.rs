//! Immutable index segments: the unit of durable, incremental persistence.
//!
//! A segment is one reindex pass's worth of change, sealed as a value: the
//! token deltas applied (`adds`), the documents dropped (`removes`), the
//! commit sequence number, and the index generation reached. Segments are
//! *delta logs*, not posting shards — deliberately so:
//!
//! * Block-granularity postings address blocks, not documents, so a
//!   posting shard could not be re-applied against a differently-blocked
//!   base. Token deltas replay through [`Index::add_doc`] and land
//!   identically regardless of block layout history.
//! * Replaying a delta is exactly the write-phase of the live `ssync`
//!   pipeline, so recovery exercises the same code path as normal
//!   operation.
//!
//! Durable state is `base snapshot + ordered segments`; recovery decodes
//! the base and replays segments in ascending `seq`. Background
//! maintenance *merges* runs of adjacent segments — later writes to the
//! same document win — to bound replay length, and periodically folds
//! everything back into a fresh base (a checkpoint).

use std::collections::{BTreeMap, BTreeSet};

use crate::bitmap::DocId;
use crate::engine::{DocDelta, Index};
use crate::token::Token;

/// One document's sealed contribution: the tokens that were indexed at
/// `version`. Mirrors [`DocDelta`] but serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentDoc {
    /// The document id.
    pub doc: u64,
    /// Content version the tokens were extracted from.
    pub version: u64,
    /// Namespace path the document was indexed under when the segment was
    /// sealed (empty when unknown). Carried so recovery can rebuild the
    /// doc→path map from the durable trail instead of walking the whole
    /// namespace — the walk would make warm starts O(namespace), not
    /// O(index).
    pub path: String,
    /// The extracted tokens.
    pub tokens: Vec<Token>,
}

hac_codec::impl_codec!(SegmentDoc {
    doc,
    version,
    path,
    tokens
});

/// An immutable segment: one committed batch of index change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Segment {
    /// Commit sequence number (ascending across the store's life; replay
    /// order).
    pub seq: u64,
    /// Index generation after this batch was applied — replay restores it
    /// via [`Index::force_generation`].
    pub generation: u64,
    /// Documents (re)indexed, each at most once per segment.
    pub adds: Vec<SegmentDoc>,
    /// Documents removed.
    pub removes: Vec<u64>,
}

hac_codec::impl_codec!(Segment {
    seq,
    generation,
    adds,
    removes
});

impl Segment {
    /// Seal an applied delta batch as a segment. `path_of` supplies each
    /// added document's current namespace path (None → sealed without
    /// one, and recovery falls back to a namespace walk).
    pub fn from_delta(
        seq: u64,
        generation: u64,
        adds: &[DocDelta],
        removes: &[DocId],
        path_of: impl Fn(DocId) -> Option<String>,
    ) -> Segment {
        Segment {
            seq,
            generation,
            adds: adds
                .iter()
                .map(|d| SegmentDoc {
                    doc: d.doc.0,
                    version: d.version,
                    path: path_of(d.doc).unwrap_or_default(),
                    tokens: d.tokens.clone(),
                })
                .collect(),
            removes: removes.iter().map(|d| d.0).collect(),
        }
    }

    /// Whether the segment carries no change.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }

    /// Documents touched (adds + removes) — the merge policy's notion of
    /// segment size.
    pub fn doc_count(&self) -> u64 {
        (self.adds.len() + self.removes.len()) as u64
    }

    /// Fold an ascending-`seq` run of segments into one equivalent
    /// segment: for each document the latest add wins, and a later
    /// add/remove cancels an earlier remove/add. The result carries the
    /// run's last `seq` and `generation`, so replacing the run with the
    /// merge leaves replay order and the recovered generation unchanged.
    ///
    /// Only *adjacent* runs may be merged (the caller guarantees no
    /// other live segment's seq falls inside the run), otherwise
    /// interleaved updates to the same document could be reordered.
    pub fn merge(run: &[Segment]) -> Segment {
        let mut adds: BTreeMap<u64, SegmentDoc> = BTreeMap::new();
        let mut removes: BTreeSet<u64> = BTreeSet::new();
        for seg in run {
            for add in &seg.adds {
                removes.remove(&add.doc);
                adds.insert(add.doc, add.clone());
            }
            for &doc in &seg.removes {
                adds.remove(&doc);
                removes.insert(doc);
            }
        }
        let last = run.last();
        Segment {
            seq: last.map(|s| s.seq).unwrap_or(0),
            generation: last.map(|s| s.generation).unwrap_or(0),
            adds: adds.into_values().collect(),
            removes: removes.into_iter().collect(),
        }
    }
}

impl Index {
    /// Replay a segment: the recovery-side twin of the live
    /// [`Index::apply_delta`] write-phase. Applies adds and removes
    /// unconditionally (segments were sealed *from* applied deltas, so
    /// version arbitration already happened) and restores the sealed
    /// generation.
    pub fn replay_segment(&mut self, segment: &Segment) {
        for add in &segment.adds {
            self.add_doc(DocId(add.doc), add.version, &add.tokens);
        }
        for &doc in &segment.removes {
            self.remove_doc(DocId(doc));
        }
        self.force_generation(segment.generation);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::engine::Granularity;
    use crate::expr::ContentExpr;
    use crate::token::tokenize_text;

    fn delta(doc: u64, version: u64, text: &str) -> DocDelta {
        DocDelta {
            doc: DocId(doc),
            version,
            tokens: tokenize_text(text.as_bytes()),
        }
    }

    fn hits(index: &Index, term: &str, corpus: &HashMap<DocId, Vec<Token>>) -> Vec<u64> {
        index
            .eval(&ContentExpr::term(term), &index.all_docs(), corpus)
            .ids()
            .iter()
            .map(|d| d.0)
            .collect()
    }

    #[test]
    fn replay_reproduces_apply_delta_exactly() {
        for g in [Granularity::Exact, Granularity::Block { docs_per_block: 2 }] {
            let batches: Vec<(Vec<DocDelta>, Vec<DocId>)> = vec![
                (
                    vec![
                        delta(0, 1, "fingerprint matching algorithm"),
                        delta(1, 1, "email deadline fingerprint"),
                        delta(2, 1, "grocery milk"),
                    ],
                    vec![],
                ),
                (
                    vec![delta(2, 2, "kernel hacking"), delta(3, 1, "socks gloves")],
                    vec![DocId(1)],
                ),
                (vec![delta(0, 3, "rewritten completely")], vec![DocId(3)]),
            ];

            // Live path: apply each batch, sealing a segment per batch.
            let mut live = Index::new(g);
            let mut segments = Vec::new();
            for (i, (adds, removes)) in batches.iter().enumerate() {
                live.apply_delta(adds, removes);
                segments.push(Segment::from_delta(
                    i as u64 + 1,
                    live.generation(),
                    adds,
                    removes,
                    |d| Some(format!("/d{}", d.0)),
                ));
            }

            // Recovery path: replay the segments into a fresh index.
            let mut recovered = Index::new(g);
            for seg in &segments {
                recovered.replay_segment(seg);
            }

            let mut corpus: HashMap<DocId, Vec<Token>> = HashMap::new();
            corpus.insert(DocId(0), tokenize_text(b"rewritten completely"));
            corpus.insert(DocId(2), tokenize_text(b"kernel hacking"));
            for term in ["fingerprint", "kernel", "rewritten", "milk", "socks"] {
                assert_eq!(
                    hits(&live, term, &corpus),
                    hits(&recovered, term, &corpus),
                    "term {term} granularity {g:?}"
                );
            }
            assert_eq!(recovered.doc_count(), live.doc_count());
            assert_eq!(recovered.generation(), live.generation());
            assert_eq!(
                recovered.indexed_version(DocId(0)),
                live.indexed_version(DocId(0))
            );

            // And replaying the *merged* run is equivalent too.
            let merged = Segment::merge(&segments);
            let mut via_merge = Index::new(g);
            via_merge.replay_segment(&merged);
            for term in ["fingerprint", "kernel", "rewritten", "milk", "socks"] {
                assert_eq!(
                    hits(&live, term, &corpus),
                    hits(&via_merge, term, &corpus),
                    "merged replay, term {term} granularity {g:?}"
                );
            }
            assert_eq!(via_merge.generation(), live.generation());
        }
    }

    #[test]
    fn merge_folds_per_document_history() {
        let s1 = Segment::from_delta(
            1,
            10,
            &[delta(1, 1, "one"), delta(2, 1, "two")],
            &[DocId(9)],
            |_| None,
        );
        let s2 = Segment::from_delta(
            2,
            20,
            &[delta(2, 2, "two updated"), delta(9, 2, "nine returns")],
            &[DocId(1)],
            |_| None,
        );
        let m = Segment::merge(&[s1, s2]);
        assert_eq!(m.seq, 2);
        assert_eq!(m.generation, 20);
        // Doc 2: only the latest version survives.
        let d2 = m.adds.iter().find(|d| d.doc == 2).unwrap();
        assert_eq!(d2.version, 2);
        // Doc 1: added then removed → remove wins.
        assert!(m.adds.iter().all(|d| d.doc != 1));
        assert!(m.removes.contains(&1));
        // Doc 9: removed then re-added → add wins.
        assert!(m.adds.iter().any(|d| d.doc == 9));
        assert!(!m.removes.contains(&9));
        assert_eq!(m.doc_count(), 3);
    }

    #[test]
    fn empty_and_degenerate_merge() {
        assert!(Segment::merge(&[]).is_empty());
        let single = Segment::from_delta(5, 7, &[delta(1, 1, "solo")], &[], |_| None);
        let merged = Segment::merge(std::slice::from_ref(&single));
        assert_eq!(merged, single);
        assert!(!single.is_empty());
        assert!(Segment::from_delta(6, 7, &[], &[], |_| None).is_empty());
    }
}
