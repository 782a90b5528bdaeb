//! Property tests: the index against a naive scan, and bitmap algebra laws.

use std::collections::HashMap;

use proptest::prelude::*;

use hac_index::bitmap::{Bitmap, DocId};
use hac_index::engine::{Granularity, Index};
use hac_index::expr::ContentExpr;
use hac_index::token::Token;

/// Small closed vocabulary so random docs and queries overlap often.
const VOCAB: &[&str] = &["apple", "banana", "cherry", "kernel", "quark", "zebra"];

fn doc_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..VOCAB.len(), 0..8)
}

fn expr_strategy() -> impl Strategy<Value = ContentExpr> {
    let leaf = prop_oneof![
        (0..VOCAB.len()).prop_map(|i| ContentExpr::term(VOCAB[i])),
        Just(ContentExpr::All),
        Just(ContentExpr::Nothing),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ContentExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ContentExpr::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ContentExpr::and_not(a, b)),
            inner.prop_map(ContentExpr::not),
        ]
    })
}

/// Naive reference evaluation: does this doc match?
fn matches(expr: &ContentExpr, words: &[usize]) -> bool {
    match expr {
        ContentExpr::Term(t) => words.iter().any(|w| VOCAB[*w] == t),
        ContentExpr::All => true,
        ContentExpr::Nothing => false,
        ContentExpr::And(a, b) => matches(a, words) && matches(b, words),
        ContentExpr::Or(a, b) => matches(a, words) || matches(b, words),
        ContentExpr::AndNot(a, b) => matches(a, words) && !matches(b, words),
        ContentExpr::Not(a) => !matches(a, words),
        _ => unreachable!("strategy only generates the variants above"),
    }
}

fn build_corpus(
    docs: &[Vec<usize>],
    granularity: Granularity,
) -> (Index, HashMap<DocId, Vec<Token>>) {
    let mut index = Index::new(granularity);
    let mut provider = HashMap::new();
    for (i, words) in docs.iter().enumerate() {
        let tokens: Vec<Token> = words.iter().map(|w| Token::word(VOCAB[*w])).collect();
        index.add_doc(DocId(i as u64), 1, &tokens);
        provider.insert(DocId(i as u64), tokens);
    }
    (index, provider)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_agrees_with_naive_scan(
        docs in proptest::collection::vec(doc_strategy(), 1..24),
        expr in expr_strategy(),
    ) {
        for granularity in [Granularity::Exact, Granularity::Block { docs_per_block: 4 }] {
            let (index, provider) = build_corpus(&docs, granularity);
            let got: Vec<u64> = index
                .eval(&expr, &index.all_docs(), &provider)
                .ids()
                .iter()
                .map(|d| d.0)
                .collect();
            let want: Vec<u64> = docs
                .iter()
                .enumerate()
                .filter(|(_, words)| matches(&expr, words))
                .map(|(i, _)| i as u64)
                .collect();
            prop_assert_eq!(&got, &want, "granularity {:?} expr {}", granularity, expr);
        }
    }

    #[test]
    fn exact_and_block_granularity_agree(
        docs in proptest::collection::vec(doc_strategy(), 1..24),
        expr in expr_strategy(),
    ) {
        let (exact, p1) = build_corpus(&docs, Granularity::Exact);
        let (block, p2) = build_corpus(&docs, Granularity::Block { docs_per_block: 3 });
        let a = exact.eval(&expr, &exact.all_docs(), &p1);
        let b = block.eval(&expr, &block.all_docs(), &p2);
        prop_assert_eq!(a.ids(), b.ids());
    }

    #[test]
    fn updates_and_removals_match_rebuilt_index(
        initial in proptest::collection::vec(doc_strategy(), 1..16),
        updates in proptest::collection::vec((0..16usize, doc_strategy()), 0..8),
        removals in proptest::collection::vec(0..16usize, 0..4),
        expr in expr_strategy(),
    ) {
        let granularity = Granularity::Exact;
        let (mut index, mut provider) = build_corpus(&initial, granularity);
        let mut model: HashMap<u64, Vec<usize>> =
            initial.iter().enumerate().map(|(i, d)| (i as u64, d.clone())).collect();

        for (slot, words) in &updates {
            let id = (*slot % initial.len()) as u64;
            let tokens: Vec<Token> = words.iter().map(|w| Token::word(VOCAB[*w])).collect();
            index.add_doc(DocId(id), 2, &tokens);
            provider.insert(DocId(id), tokens);
            model.insert(id, words.clone());
        }
        for slot in &removals {
            let id = (*slot % initial.len()) as u64;
            index.remove_doc(DocId(id));
            provider.remove(&DocId(id));
            model.remove(&id);
        }

        // Incremental index ≡ fresh rebuild from the surviving docs.
        let mut rebuilt = Index::new(granularity);
        for (id, words) in &model {
            let tokens: Vec<Token> = words.iter().map(|w| Token::word(VOCAB[*w])).collect();
            rebuilt.add_doc(DocId(*id), 2, &tokens);
        }
        let got = index.eval(&expr, &index.all_docs(), &provider);
        let want = rebuilt.eval(&expr, &rebuilt.all_docs(), &provider);
        prop_assert_eq!(got.ids(), want.ids(), "expr {}", expr);
    }

    #[test]
    fn bitmap_algebra_laws(
        xs in proptest::collection::btree_set(0u64..512, 0..64),
        ys in proptest::collection::btree_set(0u64..512, 0..64),
        zs in proptest::collection::btree_set(0u64..512, 0..64),
    ) {
        fn mk(ids: &std::collections::BTreeSet<u64>) -> Bitmap {
            Bitmap::from_ids(ids.iter().map(|id| DocId(*id)))
        }
        let a = mk(&xs);
        let b = mk(&ys);
        let c = mk(&zs);

        // Commutativity.
        prop_assert_eq!(a.or(&b).ids(), b.or(&a).ids());
        prop_assert_eq!(a.and(&b).ids(), b.and(&a).ids());
        // Associativity.
        prop_assert_eq!(a.or(&b.or(&c)).ids(), a.or(&b).or(&c).ids());
        prop_assert_eq!(a.and(&b.and(&c)).ids(), a.and(&b).and(&c).ids());
        // Distributivity.
        prop_assert_eq!(
            a.and(&b.or(&c)).ids(),
            a.and(&b).or(&a.and(&c)).ids()
        );
        // Difference definition: a \ b = a AND NOT b; disjoint from b.
        let diff = a.and_not(&b);
        prop_assert!(diff.and(&b).is_empty());
        prop_assert_eq!(diff.or(&a.and(&b)).ids(), a.ids());
        // De Morgan within a universe: u \ (a ∪ b) = (u \ a) ∩ (u \ b).
        let u = a.or(&b).or(&c);
        prop_assert_eq!(
            u.and_not(&a.or(&b)).ids(),
            u.and_not(&a).and(&u.and_not(&b)).ids()
        );
        // Count and membership agree with the source set.
        prop_assert_eq!(a.count(), xs.len() as u64);
        for id in &xs {
            prop_assert!(a.contains(DocId(*id)));
        }
    }
}

#[test]
fn empty_universe_always_yields_empty_results() {
    use hac_index::token::Token;
    let mut index = Index::new(Granularity::Exact);
    let tokens = vec![Token::word("alpha")];
    index.add_doc(DocId(0), 1, &tokens);
    let provider: HashMap<DocId, Vec<Token>> = [(DocId(0), tokens)].into_iter().collect();
    let empty = Bitmap::new();
    for expr in [
        ContentExpr::term("alpha"),
        ContentExpr::All,
        ContentExpr::not(ContentExpr::term("alpha")),
        ContentExpr::Prefix("al".into()),
    ] {
        assert!(index.eval(&expr, &empty, &provider).is_empty(), "{expr}");
    }
}

#[test]
fn stop_words_are_unqueryable_end_to_end() {
    use hac_index::token::{tokenize_text, Token};
    let mut index = Index::new(Granularity::Exact);
    let tokens = tokenize_text(b"the cat sat on the mat");
    index.add_doc(DocId(0), 1, &tokens);
    let provider: HashMap<DocId, Vec<Token>> = [(DocId(0), tokens)].into_iter().collect();
    assert!(index
        .eval(&ContentExpr::term("the"), &index.all_docs(), &provider)
        .is_empty());
    assert!(!index
        .eval(&ContentExpr::term("cat"), &index.all_docs(), &provider)
        .is_empty());
}
