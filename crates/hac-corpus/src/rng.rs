//! The seeded random stream under every generator.
//!
//! splitmix64 (Steele, Lea & Flood 2014): statistically fine for corpus
//! synthesis, deliberately not cryptographic. Every generated corpus, and
//! so every benchmark input, is a pure function of this stream and of the
//! way each draw maps onto a range; `corpus_is_pinned` fails if either
//! changes.

use std::ops::Range;

/// A deterministic splitmix64 stream.
#[derive(Debug, Clone)]
pub(crate) struct Rng {
    state: u64,
}

impl Rng {
    /// The stream for `seed`.
    pub(crate) fn seeded(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits of one draw.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `range`, as one draw modulo the span. The modulo bias is
    /// negligible for corpus-sized spans.
    pub(crate) fn range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        range.start + (self.next_u64() % (range.end - range.start) as u64) as usize
    }

    /// Uniform in `range`: `start + next_f64() · span`.
    pub(crate) fn range_f64(&mut self, range: Range<f64>) -> f64 {
        range.start + self.next_f64() * (range.end - range.start)
    }
}
