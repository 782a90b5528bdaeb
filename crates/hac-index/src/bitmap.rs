//! Result-set bitmaps.
//!
//! The paper stores, with each semantic directory, "a compact representation
//! of the list of all file names … We currently use bitmaps since it is
//! simple to implement and has speed advantages for Glimpse. The extra space
//! we need per semantic directory is therefore N/8 Bytes".
//!
//! [`Bitmap`] is that N/8-byte representation, and the only one: semantic
//! directory results, scopes and the index's postings all use it.

/// Identifier of an indexed document. The HAC layer maps file ids to doc ids
/// one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

hac_codec::impl_codec!(DocId(u64));

/// Dense bit-per-document set: exactly the paper's `N/8` bytes for a
/// universe of `N` documents (rounded up to whole 64-bit words here).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
}

hac_codec::impl_codec!(Bitmap { words });

impl Bitmap {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set containing `0..n`.
    pub fn full(n: u64) -> Self {
        Self::from_ids((0..n).map(DocId))
    }

    /// Builds a set from an iterator of ids.
    pub fn from_ids<I: IntoIterator<Item = DocId>>(ids: I) -> Self {
        let mut b = Self::new();
        for id in ids {
            b.insert(id);
        }
        b
    }

    /// Adds a document.
    pub fn insert(&mut self, doc: DocId) {
        let (w, bit) = ((doc.0 / 64) as usize, doc.0 % 64);
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << bit;
    }

    /// Removes a document.
    pub fn remove(&mut self, doc: DocId) {
        let (w, bit) = ((doc.0 / 64) as usize, doc.0 % 64);
        if let Some(word) = self.words.get_mut(w) {
            *word &= !(1 << bit);
        }
    }

    /// Membership test.
    pub fn contains(&self, doc: DocId) -> bool {
        let (w, bit) = ((doc.0 / 64) as usize, doc.0 % 64);
        self.words.get(w).is_some_and(|word| word & (1 << bit) != 0)
    }

    /// Number of documents in the set.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Bitmap) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Bitmap) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference (`self \ other`).
    pub fn subtract(&mut self, other: &Bitmap) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= !other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = DocId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, word)| {
            let word = *word;
            (0..64).filter_map(move |bit| {
                if word & (1u64 << bit) != 0 {
                    Some(DocId(wi as u64 * 64 + bit))
                } else {
                    None
                }
            })
        })
    }

    /// Members in ascending order.
    pub fn ids(&self) -> Vec<DocId> {
        self.iter().collect()
    }

    /// Set union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut r = self.clone();
        r.union_with(other);
        r
    }

    /// Set intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut r = self.clone();
        r.intersect_with(other);
        r
    }

    /// Set difference (`self \ other`).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        let mut r = self.clone();
        r.subtract(other);
        r
    }

    /// Resident bytes of the representation (the paper's N/8 figure).
    pub fn bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }

    /// Order-sensitive FNV-1a hash of the member ids (trailing zero words
    /// do not change it). Used as the scope component of query-result
    /// cache keys.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for id in self.iter() {
            for byte in id.0.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        hash
    }
}

impl FromIterator<DocId> for Bitmap {
    fn from_iter<T: IntoIterator<Item = DocId>>(iter: T) -> Self {
        Bitmap::from_ids(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u64]) -> Bitmap {
        Bitmap::from_ids(ids.iter().map(|i| DocId(*i)))
    }

    #[test]
    fn insert_remove_contains() {
        let mut b = Bitmap::new();
        b.insert(DocId(3));
        b.insert(DocId(64));
        b.insert(DocId(1000));
        assert!(b.contains(DocId(3)) && b.contains(DocId(64)) && b.contains(DocId(1000)));
        assert!(!b.contains(DocId(4)));
        assert_eq!(b.count(), 3);
        b.remove(DocId(64));
        assert!(!b.contains(DocId(64)));
        assert_eq!(b.count(), 2);
        // Removing past the allocated words is a no-op.
        b.remove(DocId(1 << 20));
    }

    #[test]
    fn set_ops_match_their_definitions() {
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![1, 2, 3], vec![2, 3, 4]),
            (vec![], vec![5]),
            (vec![100, 200], vec![]),
            (vec![0, 63, 64, 127, 128], vec![63, 128, 500]),
        ];
        for (xs, ys) in cases {
            let (a, b) = (set(&xs), set(&ys));
            let or: Vec<u64> = a.or(&b).ids().iter().map(|d| d.0).collect();
            let and: Vec<u64> = a.and(&b).ids().iter().map(|d| d.0).collect();
            let diff: Vec<u64> = a.and_not(&b).ids().iter().map(|d| d.0).collect();
            let want_or: Vec<u64> = xs
                .iter()
                .chain(ys.iter())
                .copied()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let want_and: Vec<u64> = xs.iter().filter(|x| ys.contains(x)).copied().collect();
            let want_diff: Vec<u64> = xs.iter().filter(|x| !ys.contains(x)).copied().collect();
            assert_eq!(or, want_or);
            assert_eq!(and, want_and);
            assert_eq!(diff, want_diff);
        }
    }

    #[test]
    fn bytes_is_n_over_8() {
        let mut b = Bitmap::new();
        b.insert(DocId(1023));
        // Universe of 1024 docs → 128 bytes, the paper's N/8.
        assert_eq!(b.bytes(), 128);
    }

    #[test]
    fn full_contains_range() {
        let b = Bitmap::full(130);
        assert_eq!(b.count(), 130);
        assert!(b.contains(DocId(0)) && b.contains(DocId(129)));
        assert!(!b.contains(DocId(130)));
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let sets: Vec<Vec<u64>> = vec![vec![], vec![0], vec![1, 64, 900], vec![1, 65, 900]];
        let fps: Vec<u64> = sets.iter().map(|ids| set(ids).fingerprint()).collect();
        // Distinct sets get distinct fingerprints (for these small cases).
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "sets {i} and {j} collided");
            }
        }
        // Trailing zero words don't change the fingerprint.
        let mut with_tail = Bitmap::new();
        with_tail.insert(DocId(3));
        with_tail.insert(DocId(1000));
        with_tail.remove(DocId(1000));
        assert_eq!(with_tail.fingerprint(), set(&[3]).fingerprint());
    }
}
