//! Zipf-distributed vocabulary sampling.
//!
//! Natural-language word frequencies follow a Zipf law; the indexing and
//! query experiments (Tables 3 and 4) need corpora whose term-frequency
//! *shape* is realistic so that "queries that match very few files" and
//! "queries that match a lot of files" both exist. The sampler is fully
//! deterministic given a seed.

use crate::rng::Rng;

/// A deterministic Zipf sampler over a synthetic vocabulary.
///
/// Word `i` (0-based rank) has probability proportional to `1/(i+1)^s`.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    words: Vec<String>,
    /// Cumulative distribution for sampling.
    cdf: Vec<f64>,
}

impl Vocabulary {
    /// Builds a vocabulary of `size` distinct words with Zipf exponent `s`
    /// (1.0 is the classic value).
    pub fn new(size: usize, s: f64) -> Self {
        assert!(size > 0, "vocabulary must not be empty");
        let words = (0..size).map(synth_word).collect();
        let mut weights: Vec<f64> = (0..size).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Vocabulary {
            words,
            cdf: weights,
        }
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The word at a given frequency rank (0 = most frequent).
    pub fn word_at_rank(&self, rank: usize) -> &str {
        &self.words[rank.min(self.words.len() - 1)]
    }

    /// Samples one word according to the Zipf distribution.
    pub(crate) fn sample(&self, rng: &mut Rng) -> &str {
        let x = rng.next_f64();
        let idx = self.cdf.partition_point(|&c| c < x);
        &self.words[idx.min(self.words.len() - 1)]
    }

    /// Samples `n` words into a space-separated string.
    pub(crate) fn sample_text(&self, rng: &mut Rng, n: usize) -> String {
        let mut out = String::with_capacity(n * 8);
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.sample(rng));
        }
        out
    }
}

/// Deterministic pronounceable-ish synthetic word for a rank.
fn synth_word(rank: usize) -> String {
    const CONS: &[u8] = b"bcdfgklmnprstvz";
    const VOWS: &[u8] = b"aeiou";
    let mut n = rank + 1;
    let mut out = String::new();
    while n > 0 {
        let c = CONS[n % CONS.len()];
        n /= CONS.len();
        let v = VOWS[n % VOWS.len()];
        n /= VOWS.len();
        out.push(c as char);
        out.push(v as char);
    }
    // Guarantee a minimum length so the tokenizer never drops them.
    if out.len() < 3 {
        out.push('x');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seeded(seed)
    }

    #[test]
    fn words_are_distinct_and_stable() {
        let v = Vocabulary::new(1000, 1.0);
        let set: std::collections::HashSet<&String> =
            v.words.iter().collect::<std::collections::HashSet<_>>();
        assert_eq!(set.len(), 1000);
        // Deterministic across constructions.
        let v2 = Vocabulary::new(1000, 1.0);
        assert_eq!(v.word_at_rank(0), v2.word_at_rank(0));
        assert_eq!(v.word_at_rank(999), v2.word_at_rank(999));
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let v = Vocabulary::new(100, 1.0);
        let a = v.sample_text(&mut rng(42), 20);
        let b = v.sample_text(&mut rng(42), 20);
        assert_eq!(a, b);
        let c = v.sample_text(&mut rng(43), 20);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_shape_front_loaded() {
        let v = Vocabulary::new(500, 1.0);
        let mut r = rng(7);
        let mut counts = vec![0u32; 500];
        for _ in 0..20_000 {
            let w = v.sample(&mut r).to_string();
            let idx = v.words.iter().position(|x| *x == w).unwrap();
            counts[idx] += 1;
        }
        // Rank 0 must dominate rank 100 heavily.
        assert!(
            counts[0] > counts[100] * 5,
            "rank0={} rank100={}",
            counts[0],
            counts[100]
        );
        // The tail is mostly rare but non-degenerate overall.
        let tail: u32 = counts[400..].iter().sum();
        assert!(tail < 2_000);
    }

    #[test]
    fn words_survive_min_length() {
        for rank in 0..50 {
            assert!(synth_word(rank).len() >= 3);
        }
    }
}
