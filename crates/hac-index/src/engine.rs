//! The inverted index and query evaluator.
//!
//! Glimpse (the paper's CBA mechanism) is a *two-level* search system: a
//! small index maps each word to the coarse *blocks* of the file system that
//! contain it, and queries are answered by scanning (agrep-ing) only the
//! candidate blocks. [`Granularity::Block`] reproduces that design — term
//! postings address fixed-size groups of documents and candidates are
//! verified against live content via a [`DocProvider`]. [`Granularity::Exact`]
//! is the conventional doc-precise inverted index, kept as an ablation
//! point (Glimpse's `-b` index-size knob occupies the same axis).
//!
//! Consistent with the paper's lazy data-consistency policy (§2.4), the
//! index never reflects content changes instantly: documents are
//! (re)indexed explicitly by `add_doc`/`rebuild`, driven by HAC's `ssync`
//! and periodic reindexing.

use std::collections::BTreeMap;

use hac_codec::{put_varint, variant, Decode, Encode, Reader};

use crate::approx;
use crate::bitmap::{Bitmap, DocId};
use crate::expr::ContentExpr;
use crate::lexicon::{Lexicon, TermId};
use crate::token::Token;

/// Index addressing granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Postings address documents directly (classic inverted index).
    Exact,
    /// Postings address fixed-size blocks of documents; query evaluation
    /// verifies candidates against content (Glimpse's design — small index,
    /// search = lookup + scan).
    Block {
        /// Number of documents grouped into one block.
        docs_per_block: u32,
    },
}

impl Default for Granularity {
    fn default() -> Self {
        Granularity::Block { docs_per_block: 16 }
    }
}

impl Encode for Granularity {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Granularity::Exact => put_varint(out, 0),
            Granularity::Block { docs_per_block } => variant(out, 1, docs_per_block),
        }
    }
}

impl Decode for Granularity {
    fn decode(r: &mut Reader<'_>) -> Result<Self, hac_codec::Error> {
        match r.varint()? {
            0 => Ok(Granularity::Exact),
            1 => Ok(Granularity::Block {
                docs_per_block: Decode::decode(r)?,
            }),
            _ => Err(hac_codec::UNKNOWN_VARIANT),
        }
    }
}

/// Per-document bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct DocMeta {
    /// Content version at indexing time (compared by the reindexer).
    pub version: u64,
    /// Owning block (block granularity only; 0 otherwise).
    pub block: u32,
    /// Number of tokens indexed.
    pub token_count: u32,
}

hac_codec::impl_codec!(DocMeta {
    version,
    block,
    token_count
});

/// Source of live document tokens for candidate verification.
///
/// The paper's Glimpse greps the actual files; our equivalent re-tokenizes
/// the document through whatever transducer owns it. Returning `None` means
/// the content is unavailable (deleted, unreadable) and the candidate is
/// dropped.
pub trait DocProvider {
    /// Tokens of the document's current content.
    fn tokens(&self, doc: DocId) -> Option<Vec<Token>>;
}

impl DocProvider for std::collections::HashMap<DocId, Vec<Token>> {
    fn tokens(&self, doc: DocId) -> Option<Vec<Token>> {
        self.get(&doc).cloned()
    }
}

/// Counters describing the work one query did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Documents considered as candidates before verification.
    pub candidates: u64,
    /// Documents whose content was fetched and re-tokenized.
    pub verified: u64,
    /// Candidates rejected by verification (index false positives).
    pub false_positives: u64,
    /// Posting lists consulted (one per key lookup that found a list).
    pub postings_scanned: u64,
}

/// Space accounting for the index (drives Table 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Live documents.
    pub docs: u64,
    /// Distinct terms.
    pub terms: u64,
    /// Blocks allocated (block granularity).
    pub blocks: u64,
    /// Bytes in posting bitmaps.
    pub postings_bytes: u64,
    /// Bytes in the lexicon.
    pub lexicon_bytes: u64,
    /// Bytes in the per-document table.
    pub doc_table_bytes: u64,
}

impl IndexStats {
    /// Total resident bytes.
    pub fn total_bytes(&self) -> u64 {
        self.postings_bytes + self.lexicon_bytes + self.doc_table_bytes
    }
}

/// One document's contribution to a reindex pass, produced off-lock by the
/// parallel tokenize phase and applied in bulk by [`Index::apply_delta`].
#[derive(Debug, Clone)]
pub struct DocDelta {
    /// The document.
    pub doc: DocId,
    /// Content version the tokens were extracted from.
    pub version: u64,
    /// The extracted tokens.
    pub tokens: Vec<Token>,
}

/// The content index.
#[derive(Debug, Clone)]
pub struct Index {
    granularity: Granularity,
    lexicon: Lexicon,
    postings: Vec<Bitmap>,
    docs: BTreeMap<u64, DocMeta>,
    /// Block → member documents (block granularity only).
    blocks: Vec<Vec<DocId>>,
    /// Live documents (removals are lazy until the next rebuild).
    live: Bitmap,
    /// Documents re-added since the last rebuild; exact-granularity postings
    /// may hold stale bits for them, so they are verified at query time.
    dirty: Bitmap,
    /// Mutation epoch: bumped on every add/remove/rebuild. Cached query
    /// results keyed by this value are valid exactly while it is unchanged.
    ///
    /// Adding this field changed the persisted layout once: the snapshot
    /// codec is positional, so snapshots written before the field existed
    /// fail to decode. Snapshots now carry a format-version header
    /// (`hac-core`'s `SNAPSHOT_MAGIC`), so any future layout change bumps
    /// that version and old snapshots degrade to a *counted* migration
    /// (one logged full reindex) instead of a silent decode failure.
    generation: u64,
}

hac_codec::impl_codec!(Index {
    granularity,
    lexicon,
    postings,
    docs,
    blocks,
    live,
    dirty,
    generation
});

impl Default for Index {
    fn default() -> Self {
        Index::new(Granularity::default())
    }
}

impl Index {
    /// Creates an empty index with the given granularity.
    pub fn new(granularity: Granularity) -> Self {
        Index {
            granularity,
            lexicon: Lexicon::new(),
            postings: Vec::new(),
            docs: BTreeMap::new(),
            blocks: Vec::new(),
            live: Bitmap::new(),
            dirty: Bitmap::new(),
            generation: 0,
        }
    }

    /// The configured granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// The mutation epoch. Any cached derivation of this index (query
    /// results, scope bitmaps) is valid only while the generation is
    /// unchanged.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live documents.
    pub fn doc_count(&self) -> u64 {
        self.docs.len() as u64
    }

    /// Whether `doc` is currently indexed.
    pub fn is_indexed(&self, doc: DocId) -> bool {
        self.docs.contains_key(&doc.0)
    }

    /// The indexed version of `doc`, if indexed.
    pub fn indexed_version(&self, doc: DocId) -> Option<u64> {
        self.docs.get(&doc.0).map(|m| m.version)
    }

    /// Bitmap of all live documents.
    pub fn all_docs(&self) -> Bitmap {
        self.live.clone()
    }

    /// (Re)indexes one document's tokens at content `version`.
    ///
    /// Adding an id that is already indexed replaces it: stale postings are
    /// left behind (they only create verifiable false positives) and the
    /// document is marked dirty until the next [`Index::rebuild`].
    pub fn add_doc(&mut self, doc: DocId, version: u64, tokens: &[Token]) {
        let was_present = self.docs.contains_key(&doc.0);
        let block = match self.granularity {
            Granularity::Exact => 0,
            Granularity::Block { docs_per_block } => {
                if let Some(meta) = self.docs.get(&doc.0) {
                    // Re-use the document's block on update.
                    meta.block
                } else {
                    match self.blocks.last() {
                        Some(b) if (b.len() as u32) < docs_per_block => {
                            self.blocks.len() as u32 - 1
                        }
                        _ => {
                            self.blocks.push(Vec::new());
                            self.blocks.len() as u32 - 1
                        }
                    }
                }
            }
        };
        if let (Granularity::Block { .. }, false) = (self.granularity, was_present) {
            self.blocks[block as usize].push(doc);
        }
        let posting_bit = match self.granularity {
            Granularity::Exact => doc,
            Granularity::Block { .. } => DocId(block as u64),
        };
        for token in tokens {
            let term = self.lexicon.intern(&token.key());
            self.posting_slot(term).insert(posting_bit);
        }
        self.docs.insert(
            doc.0,
            DocMeta {
                version,
                block,
                token_count: tokens.len() as u32,
            },
        );
        self.live.insert(doc);
        if was_present {
            self.dirty.insert(doc);
        }
        self.generation += 1;
    }

    /// Removes a document. Postings are cleaned lazily at the next rebuild;
    /// queries exclude it immediately via the live set.
    pub fn remove_doc(&mut self, doc: DocId) {
        if self.docs.remove(&doc.0).is_some() {
            self.live.remove(doc);
            self.dirty.remove(doc);
            self.generation += 1;
        }
    }

    /// Applies one reindex pass's worth of changes in a single call: every
    /// delta is (re)indexed and every removal dropped. This is the short
    /// write-phase of the lock-split `ssync` pipeline — tokenization already
    /// happened off-lock, so the cost here is posting insertion only.
    ///
    /// A delta whose document is already indexed at the same or a newer
    /// version is skipped (a concurrent eager index beat us to it). Returns
    /// the number of deltas actually applied.
    pub fn apply_delta(&mut self, adds: &[DocDelta], removes: &[DocId]) -> u64 {
        let mut applied = 0;
        for delta in adds {
            if self
                .indexed_version(delta.doc)
                .is_some_and(|v| v >= delta.version)
            {
                continue;
            }
            self.add_doc(delta.doc, delta.version, &delta.tokens);
            applied += 1;
        }
        for &doc in removes {
            self.remove_doc(doc);
        }
        applied
    }

    /// Raises the mutation epoch to at least `generation`.
    ///
    /// Used by segment replay (`hac-index`'s [`segment`](crate::segment)
    /// module): a recovered index must resume at the generation recorded
    /// when the segment was sealed, so caches and dirty-tracking built
    /// against the pre-crash index can never alias a recovered state.
    /// Monotonic — a lower value is ignored.
    pub fn force_generation(&mut self, generation: u64) {
        self.generation = self.generation.max(generation);
    }

    /// Rebuilds the index from scratch out of `(doc, version, tokens)`
    /// triples — HAC's periodic full reindex. The generation survives the
    /// rebuild (and bumps), so cached results keyed by it stay invalid.
    pub fn rebuild(&mut self, docs: impl IntoIterator<Item = (DocId, u64, Vec<Token>)>) {
        let generation = self.generation + 1;
        *self = Index::new(self.granularity);
        self.generation = generation;
        for (doc, version, tokens) in docs {
            self.add_doc(doc, version, &tokens);
        }
    }

    fn posting_slot(&mut self, term: TermId) -> &mut Bitmap {
        let idx = term.0 as usize;
        if self.postings.len() <= idx {
            self.postings.resize_with(idx + 1, Bitmap::new);
        }
        &mut self.postings[idx]
    }

    fn posting(&self, key: &str) -> Option<&Bitmap> {
        self.lexicon
            .get(key)
            .and_then(|t| self.postings.get(t.0 as usize))
    }

    // ------------------------------------------------------------------
    // Query evaluation
    // ------------------------------------------------------------------

    /// Evaluates `expr` against the documents in `universe`, using
    /// `provider` to verify candidates where the index is coarse. Returns
    /// the matching subset of `universe`.
    pub fn eval(
        &self,
        expr: &ContentExpr,
        universe: &Bitmap,
        provider: &dyn DocProvider,
    ) -> Bitmap {
        let mut stats = EvalStats::default();
        self.eval_counted(expr, universe, provider, &mut stats)
    }

    /// Like [`Index::eval`], also accumulating work counters. This is the
    /// metered entry point: each call records one query-latency sample and
    /// the posting/candidate work done, while the recursive descent through
    /// boolean sub-expressions goes through the unmetered
    /// [`Index::eval_inner`].
    pub fn eval_counted(
        &self,
        expr: &ContentExpr,
        universe: &Bitmap,
        provider: &dyn DocProvider,
        stats: &mut EvalStats,
    ) -> Bitmap {
        let before = *stats;
        let start = std::time::Instant::now();
        // Only under an active trace: scope evaluation issues many of these.
        let _span = hac_obs::current_trace().map(|_| hac_obs::span!("index_eval"));
        let result = self.eval_inner(expr, universe, provider, stats);
        hac_obs::counter("hac_index_evals_total", &[]).inc();
        hac_obs::histogram("hac_index_eval_duration_us", &[])
            .record(start.elapsed().as_micros() as u64);
        hac_obs::counter("hac_index_postings_scanned_total", &[])
            .add(stats.postings_scanned - before.postings_scanned);
        hac_obs::counter("hac_index_candidates_total", &[])
            .add(stats.candidates - before.candidates);
        hac_obs::histogram("hac_index_results", &[]).record(result.count());
        result
    }

    fn eval_inner(
        &self,
        expr: &ContentExpr,
        universe: &Bitmap,
        provider: &dyn DocProvider,
        stats: &mut EvalStats,
    ) -> Bitmap {
        match expr {
            ContentExpr::All => universe.and(&self.live),
            ContentExpr::Nothing => Bitmap::new(),
            ContentExpr::Term(t) => self.eval_key(t, universe, provider, stats),
            ContentExpr::Field(n, v) => {
                self.eval_key(&Token::field_key(n, v), universe, provider, stats)
            }
            ContentExpr::Phrase(words) => self.eval_phrase(words, universe, provider, stats),
            ContentExpr::Approx(pat, k) => {
                let pat = pat.to_ascii_lowercase();
                let matched: Vec<String> =
                    approx::expand(&pat, *k, self.lexicon.iter().map(|(_, key)| key))
                        .map(str::to_string)
                        .collect();
                let mut acc = Bitmap::new();
                for key in matched {
                    acc = acc.or(&self.eval_key(&key, universe, provider, stats));
                }
                acc
            }
            ContentExpr::Prefix(prefix) => {
                let prefix = prefix.to_ascii_lowercase();
                let matched: Vec<String> = self
                    .lexicon
                    .iter()
                    .map(|(_, key)| key)
                    .filter(|key| !key.contains('\u{1f}') && key.starts_with(&prefix))
                    .map(str::to_string)
                    .collect();
                let mut acc = Bitmap::new();
                for key in matched {
                    acc = acc.or(&self.eval_key(&key, universe, provider, stats));
                }
                acc
            }
            ContentExpr::And(a, b) => {
                let left = self.eval_inner(a, universe, provider, stats);
                // Narrow the right side's universe: cheaper verification.
                self.eval_inner(b, &left, provider, stats)
            }
            ContentExpr::Or(a, b) => self
                .eval_inner(a, universe, provider, stats)
                .or(&self.eval_inner(b, universe, provider, stats)),
            ContentExpr::AndNot(a, b) => {
                let left = self.eval_inner(a, universe, provider, stats);
                let right = self.eval_inner(b, &left, provider, stats);
                left.and_not(&right)
            }
            ContentExpr::Not(a) => {
                let u = universe.and(&self.live);
                u.and_not(&self.eval_inner(a, &u, provider, stats))
            }
        }
    }

    fn eval_key(
        &self,
        key: &str,
        universe: &Bitmap,
        provider: &dyn DocProvider,
        stats: &mut EvalStats,
    ) -> Bitmap {
        let Some(post) = self.posting(key) else {
            return Bitmap::new();
        };
        stats.postings_scanned += 1;
        match self.granularity {
            Granularity::Exact => {
                let mut hits = post.and(&self.live);
                hits.intersect_with(universe);
                stats.candidates += hits.count();
                // Docs re-added since the last rebuild may carry stale
                // postings: verify just those.
                let mut out = Bitmap::new();
                for doc in hits.ids() {
                    if self.dirty.contains(doc) {
                        stats.verified += 1;
                        if doc_has_key(provider, doc, key) {
                            out.insert(doc);
                        } else {
                            stats.false_positives += 1;
                        }
                    } else {
                        out.insert(doc);
                    }
                }
                out
            }
            Granularity::Block { .. } => {
                let mut out = Bitmap::new();
                for block in post.iter() {
                    let Some(members) = self.blocks.get(block.0 as usize) else {
                        continue;
                    };
                    for &doc in members {
                        if !self.live.contains(doc) || !universe.contains(doc) {
                            continue;
                        }
                        stats.candidates += 1;
                        stats.verified += 1;
                        if doc_has_key(provider, doc, key) {
                            out.insert(doc);
                        } else {
                            stats.false_positives += 1;
                        }
                    }
                }
                out
            }
        }
    }

    fn eval_phrase(
        &self,
        words: &[String],
        universe: &Bitmap,
        provider: &dyn DocProvider,
        stats: &mut EvalStats,
    ) -> Bitmap {
        if words.is_empty() {
            return Bitmap::new();
        }
        // Conjunction of the member words narrows the candidates…
        let mut cand = universe.clone();
        for w in words {
            cand = self.eval_key(&w.to_ascii_lowercase(), &cand, provider, stats);
        }
        // …then adjacency is verified against live content.
        let needle: Vec<String> = words.iter().map(|w| w.to_ascii_lowercase()).collect();
        let mut out = Bitmap::new();
        for doc in cand.ids() {
            stats.verified += 1;
            let Some(tokens) = provider.tokens(doc) else {
                stats.false_positives += 1;
                continue;
            };
            let seq: Vec<&str> = tokens.iter().filter_map(Token::as_word).collect();
            if seq
                .windows(needle.len())
                .any(|w| w.iter().zip(needle.iter()).all(|(a, b)| *a == b))
            {
                out.insert(doc);
            } else {
                stats.false_positives += 1;
            }
        }
        out
    }

    /// Space accounting.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            docs: self.docs.len() as u64,
            terms: self.lexicon.len() as u64,
            blocks: self.blocks.len() as u64,
            postings_bytes: self.postings.iter().map(Bitmap::bytes).sum(),
            lexicon_bytes: self.lexicon.bytes(),
            doc_table_bytes: (self.docs.len() * (8 + std::mem::size_of::<DocMeta>())) as u64
                + self.blocks.iter().map(|b| b.len() as u64 * 8).sum::<u64>(),
        }
    }
}

fn doc_has_key(provider: &dyn DocProvider, doc: DocId, key: &str) -> bool {
    provider
        .tokens(doc)
        .is_some_and(|tokens| tokens.iter().any(|t| t.key() == key))
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::token::tokenize_text;

    type Corpus = HashMap<DocId, Vec<Token>>;

    fn build(granularity: Granularity, docs: &[(u64, &str)]) -> (Index, Corpus) {
        let mut index = Index::new(granularity);
        let mut corpus: Corpus = HashMap::new();
        for (id, text) in docs {
            let tokens = tokenize_text(text.as_bytes());
            index.add_doc(DocId(*id), 1, &tokens);
            corpus.insert(DocId(*id), tokens);
        }
        (index, corpus)
    }

    fn both() -> Vec<Granularity> {
        vec![Granularity::Exact, Granularity::Block { docs_per_block: 2 }]
    }

    const DOCS: &[(u64, &str)] = &[
        (0, "fingerprint matching algorithm"),
        (1, "email about the fingerprint project deadline"),
        (2, "grocery list milk eggs"),
        (3, "matching socks and gloves"),
        (4, "fingerprint database schema email"),
    ];

    fn ids(b: &Bitmap) -> Vec<u64> {
        b.ids().iter().map(|d| d.0).collect()
    }

    #[test]
    fn term_queries_match_both_granularities() {
        for g in both() {
            let (index, corpus) = build(g, DOCS);
            let u = index.all_docs();
            let hits = index.eval(&ContentExpr::term("fingerprint"), &u, &corpus);
            assert_eq!(ids(&hits), vec![0, 1, 4], "granularity {g:?}");
        }
    }

    #[test]
    fn boolean_combinations() {
        for g in both() {
            let (index, corpus) = build(g, DOCS);
            let u = index.all_docs();
            let and = index.eval(
                &ContentExpr::and(ContentExpr::term("fingerprint"), ContentExpr::term("email")),
                &u,
                &corpus,
            );
            assert_eq!(ids(&and), vec![1, 4]);
            let or = index.eval(
                &ContentExpr::or(ContentExpr::term("milk"), ContentExpr::term("socks")),
                &u,
                &corpus,
            );
            assert_eq!(ids(&or), vec![2, 3]);
            let andnot = index.eval(
                &ContentExpr::and_not(ContentExpr::term("fingerprint"), ContentExpr::term("email")),
                &u,
                &corpus,
            );
            assert_eq!(ids(&andnot), vec![0]);
            let not = index.eval(
                &ContentExpr::not(ContentExpr::term("fingerprint")),
                &u,
                &corpus,
            );
            assert_eq!(ids(&not), vec![2, 3]);
        }
    }

    #[test]
    fn universe_restricts_results() {
        for g in both() {
            let (index, corpus) = build(g, DOCS);
            let u = Bitmap::from_ids([DocId(0), DocId(2)]);
            let hits = index.eval(&ContentExpr::term("fingerprint"), &u, &corpus);
            assert_eq!(ids(&hits), vec![0]);
            let all = index.eval(&ContentExpr::All, &u, &corpus);
            assert_eq!(ids(&all), vec![0, 2]);
        }
    }

    #[test]
    fn phrase_requires_adjacency() {
        for g in both() {
            let (index, corpus) = build(g, DOCS);
            let u = index.all_docs();
            let hit = index.eval(
                &ContentExpr::Phrase(vec!["fingerprint".into(), "matching".into()]),
                &u,
                &corpus,
            );
            assert_eq!(ids(&hit), vec![0]);
            // Words present but not adjacent.
            let miss = index.eval(
                &ContentExpr::Phrase(vec!["fingerprint".into(), "deadline".into()]),
                &u,
                &corpus,
            );
            assert!(miss.is_empty());
        }
    }

    #[test]
    fn approx_matches_near_terms() {
        for g in both() {
            let (index, corpus) = build(g, DOCS);
            let u = index.all_docs();
            let hits = index.eval(&ContentExpr::Approx("fingerprnt".into(), 1), &u, &corpus);
            assert_eq!(ids(&hits), vec![0, 1, 4]);
            let none = index.eval(&ContentExpr::Approx("zzzzzz".into(), 1), &u, &corpus);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn field_tokens_query_independently_of_words() {
        for g in both() {
            let mut index = Index::new(g);
            let mut corpus: Corpus = HashMap::new();
            let tokens = vec![Token::field("from", "alice"), Token::word("bob")];
            index.add_doc(DocId(7), 1, &tokens);
            corpus.insert(DocId(7), tokens);
            let u = index.all_docs();
            assert_eq!(
                ids(&index.eval(&ContentExpr::field("from", "alice"), &u, &corpus)),
                vec![7]
            );
            // The field value does not leak into word queries.
            assert!(index
                .eval(&ContentExpr::term("alice"), &u, &corpus)
                .is_empty());
            assert!(index
                .eval(&ContentExpr::field("from", "bob"), &u, &corpus)
                .is_empty());
        }
    }

    #[test]
    fn removal_takes_effect_immediately() {
        for g in both() {
            let (mut index, corpus) = build(g, DOCS);
            index.remove_doc(DocId(1));
            let u = index.all_docs();
            let hits = index.eval(&ContentExpr::term("fingerprint"), &u, &corpus);
            assert_eq!(ids(&hits), vec![0, 4]);
            assert_eq!(index.doc_count(), 4);
        }
    }

    #[test]
    fn update_drops_stale_terms_and_adds_new_ones() {
        for g in both() {
            let (mut index, mut corpus) = build(g, DOCS);
            // Doc 2 changes from groceries to kernels.
            let new_tokens = tokenize_text(b"kernel hacking notes");
            index.add_doc(DocId(2), 2, &new_tokens);
            corpus.insert(DocId(2), new_tokens);
            let u = index.all_docs();
            assert!(index
                .eval(&ContentExpr::term("milk"), &u, &corpus)
                .is_empty());
            assert_eq!(
                ids(&index.eval(&ContentExpr::term("kernel"), &u, &corpus)),
                vec![2]
            );
            assert_eq!(index.indexed_version(DocId(2)), Some(2));
        }
    }

    #[test]
    fn rebuild_compacts_and_preserves_results() {
        for g in both() {
            let (mut index, mut corpus) = build(g, DOCS);
            index.remove_doc(DocId(3));
            let new_tokens = tokenize_text(b"kernel notes");
            index.add_doc(DocId(2), 2, &new_tokens);
            corpus.insert(DocId(2), new_tokens.clone());

            let before: Vec<u64> = ids(&index.eval(
                &ContentExpr::term("fingerprint"),
                &index.all_docs(),
                &corpus,
            ));
            index.rebuild(
                corpus
                    .iter()
                    .filter(|(d, _)| d.0 != 3)
                    .map(|(d, t)| (*d, 2, t.clone())),
            );
            let after: Vec<u64> = ids(&index.eval(
                &ContentExpr::term("fingerprint"),
                &index.all_docs(),
                &corpus,
            ));
            assert_eq!(before, after);
            // Rebuild clears stale postings: "milk" no longer even a candidate.
            let mut stats = EvalStats::default();
            let r = index.eval_counted(
                &ContentExpr::term("milk"),
                &index.all_docs(),
                &corpus,
                &mut stats,
            );
            assert!(r.is_empty());
            assert_eq!(stats.false_positives, 0, "granularity {g:?}");
        }
    }

    #[test]
    fn block_granularity_has_smaller_postings() {
        let mut docs: Vec<(u64, String)> = Vec::new();
        for i in 0..256u64 {
            docs.push((i, format!("document number word{} payload common", i % 37)));
        }
        let borrowed: Vec<(u64, &str)> = docs.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let (exact, _) = build(Granularity::Exact, &borrowed);
        let (block, _) = build(Granularity::Block { docs_per_block: 16 }, &borrowed);
        assert!(
            block.stats().postings_bytes < exact.stats().postings_bytes,
            "block postings {} should be smaller than exact {}",
            block.stats().postings_bytes,
            exact.stats().postings_bytes
        );
    }

    #[test]
    fn eval_stats_count_verification_work() {
        let (index, corpus) = build(Granularity::Block { docs_per_block: 2 }, DOCS);
        let mut stats = EvalStats::default();
        index.eval_counted(
            &ContentExpr::term("fingerprint"),
            &index.all_docs(),
            &corpus,
            &mut stats,
        );
        assert!(stats.candidates >= 3);
        assert_eq!(stats.verified, stats.candidates);
        // Doc 1 shares a block with doc 0 → at least one false positive is
        // possible but not guaranteed; just check consistency.
        assert!(stats.false_positives <= stats.verified);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut index = Index::new(Granularity::Exact);
        assert_eq!(index.generation(), 0);
        index.add_doc(DocId(1), 1, &tokenize_text(b"alpha"));
        let g1 = index.generation();
        assert!(g1 > 0);
        // Removing an absent doc is a no-op: generation unchanged.
        index.remove_doc(DocId(99));
        assert_eq!(index.generation(), g1);
        index.remove_doc(DocId(1));
        assert!(index.generation() > g1);
        // Rebuild keeps the epoch monotonic.
        let before = index.generation();
        index.rebuild([(DocId(2), 1, tokenize_text(b"beta"))]);
        assert!(index.generation() > before);
    }

    #[test]
    fn apply_delta_adds_removes_and_skips_stale() {
        for g in both() {
            let (mut index, corpus) = build(g, DOCS);
            let gen0 = index.generation();
            let applied = index.apply_delta(
                &[
                    // Stale: doc 0 is already at version 1.
                    DocDelta {
                        doc: DocId(0),
                        version: 1,
                        tokens: tokenize_text(b"should not land"),
                    },
                    // Fresh update.
                    DocDelta {
                        doc: DocId(2),
                        version: 2,
                        tokens: tokenize_text(b"kernel hacking"),
                    },
                    // Brand new doc.
                    DocDelta {
                        doc: DocId(9),
                        version: 1,
                        tokens: tokenize_text(b"fingerprint appendix"),
                    },
                ],
                &[DocId(3)],
            );
            assert_eq!(applied, 2);
            assert!(index.generation() > gen0);
            assert!(!index.is_indexed(DocId(3)));
            assert_eq!(index.indexed_version(DocId(2)), Some(2));
            let mut corpus = corpus.clone();
            corpus.insert(DocId(2), tokenize_text(b"kernel hacking"));
            corpus.insert(DocId(9), tokenize_text(b"fingerprint appendix"));
            let hits = index.eval(
                &ContentExpr::term("fingerprint"),
                &index.all_docs(),
                &corpus,
            );
            assert_eq!(ids(&hits), vec![0, 1, 4, 9], "granularity {g:?}");
        }
    }

    #[test]
    fn missing_content_fails_verification() {
        let (index, mut corpus) = build(Granularity::Block { docs_per_block: 2 }, DOCS);
        corpus.remove(&DocId(0));
        let hits = index.eval(&ContentExpr::term("algorithm"), &index.all_docs(), &corpus);
        assert!(hits.is_empty());
    }
}

#[cfg(test)]
mod prefix_tests {
    use std::collections::HashMap;

    use super::*;
    use crate::token::tokenize_text;

    #[test]
    fn prefix_matches_across_granularities() {
        for g in [Granularity::Exact, Granularity::Block { docs_per_block: 2 }] {
            let mut index = Index::new(g);
            let mut corpus: HashMap<DocId, Vec<Token>> = HashMap::new();
            for (i, text) in [
                "fingerprint scan",
                "fingering charts",
                "final countdown",
                "unrelated",
            ]
            .iter()
            .enumerate()
            {
                let tokens = tokenize_text(text.as_bytes());
                index.add_doc(DocId(i as u64), 1, &tokens);
                corpus.insert(DocId(i as u64), tokens);
            }
            let hits = index.eval(
                &ContentExpr::Prefix("finger".into()),
                &index.all_docs(),
                &corpus,
            );
            let ids: Vec<u64> = hits.ids().iter().map(|d| d.0).collect();
            assert_eq!(ids, vec![0, 1], "granularity {g:?}");
            // Prefixes never match field tokens.
            let mut index2 = Index::new(g);
            index2.add_doc(DocId(9), 1, &[Token::field("fingerer", "x")]);
            let empty = index2.eval(
                &ContentExpr::Prefix("finger".into()),
                &index2.all_docs(),
                &corpus,
            );
            assert!(empty.is_empty());
        }
    }
}
