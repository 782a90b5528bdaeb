//! Result-set bitmaps.
//!
//! The paper stores, with each semantic directory, "a compact representation
//! of the list of all file names … We currently use bitmaps since it is
//! simple to implement and has speed advantages for Glimpse. The extra space
//! we need per semantic directory is therefore N/8 Bytes … We plan to
//! improve this in future by using better sparse-set representations."
//!
//! [`DenseBitmap`] is that N/8-byte representation; [`SparseBitmap`] is the
//! promised sparse alternative (a sorted id list). [`Bitmap`] unifies them so
//! the rest of the system is representation-agnostic (`HacConfig::sparse_results`
//! chooses which one semantic directories keep).

use serde::{Deserialize, Serialize};

/// Identifier of an indexed document. The HAC layer maps file ids to doc ids
/// one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocId(pub u64);

/// Dense bit-per-document set: exactly the paper's `N/8` bytes for a
/// universe of `N` documents (rounded up to whole 64-bit words here).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DenseBitmap {
    words: Vec<u64>,
}

impl DenseBitmap {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set containing `0..n`.
    pub fn full(n: u64) -> Self {
        let mut b = Self::new();
        for i in 0..n {
            b.insert(DocId(i));
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
    pub fn union_with(&mut self, other: &DenseBitmap) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &DenseBitmap) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference (`self \ other`).
    pub fn subtract(&mut self, other: &DenseBitmap) {
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

    /// Resident bytes of the representation (the paper's N/8 figure).
    pub fn bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }
}

/// Sorted-id sparse set: the paper's planned "better sparse-set
/// representation" for very large universes with small results.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseBitmap {
    ids: Vec<u64>,
}

impl SparseBitmap {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document (no-op if present).
    pub fn insert(&mut self, doc: DocId) {
        if let Err(pos) = self.ids.binary_search(&doc.0) {
            self.ids.insert(pos, doc.0);
        }
    }

    /// Removes a document (no-op if absent).
    pub fn remove(&mut self, doc: DocId) {
        if let Ok(pos) = self.ids.binary_search(&doc.0) {
            self.ids.remove(pos);
        }
    }

    /// Membership test.
    pub fn contains(&self, doc: DocId) -> bool {
        self.ids.binary_search(&doc.0).is_ok()
    }

    /// Number of documents.
    pub fn count(&self) -> u64 {
        self.ids.len() as u64
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// In-place union (merge).
    pub fn union_with(&mut self, other: &SparseBitmap) {
        let mut merged = Vec::with_capacity(self.ids.len() + other.ids.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.ids[i..]);
        merged.extend_from_slice(&other.ids[j..]);
        self.ids = merged;
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &SparseBitmap) {
        self.ids.retain(|id| other.ids.binary_search(id).is_ok());
    }

    /// In-place difference.
    pub fn subtract(&mut self, other: &SparseBitmap) {
        self.ids.retain(|id| other.ids.binary_search(id).is_err());
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = DocId> + '_ {
        self.ids.iter().map(|id| DocId(*id))
    }

    /// Resident bytes of the representation (8 bytes per member).
    pub fn bytes(&self) -> u64 {
        (self.ids.len() * 8) as u64
    }
}

/// Representation-agnostic document set.
///
/// All binary operations work across representations (the dense side of a
/// mixed operation wins, except `Sparse ∩ Dense` which stays sparse — the
/// result can only shrink).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bitmap {
    /// Dense `N/8`-byte representation.
    Dense(DenseBitmap),
    /// Sorted-id sparse representation.
    Sparse(SparseBitmap),
}

impl Default for Bitmap {
    fn default() -> Self {
        Bitmap::Dense(DenseBitmap::new())
    }
}

impl Bitmap {
    /// Empty set in the dense representation.
    pub fn new_dense() -> Self {
        Bitmap::Dense(DenseBitmap::new())
    }

    /// Empty set in the sparse representation.
    pub fn new_sparse() -> Self {
        Bitmap::Sparse(SparseBitmap::new())
    }

    /// Builds a set from an iterator of ids, in the dense representation.
    pub fn from_ids<I: IntoIterator<Item = DocId>>(ids: I) -> Self {
        let mut b = DenseBitmap::new();
        for id in ids {
            b.insert(id);
        }
        Bitmap::Dense(b)
    }

    /// Adds a document.
    pub fn insert(&mut self, doc: DocId) {
        match self {
            Bitmap::Dense(b) => b.insert(doc),
            Bitmap::Sparse(b) => b.insert(doc),
        }
    }

    /// Removes a document.
    pub fn remove(&mut self, doc: DocId) {
        match self {
            Bitmap::Dense(b) => b.remove(doc),
            Bitmap::Sparse(b) => b.remove(doc),
        }
    }

    /// Membership test.
    pub fn contains(&self, doc: DocId) -> bool {
        match self {
            Bitmap::Dense(b) => b.contains(doc),
            Bitmap::Sparse(b) => b.contains(doc),
        }
    }

    /// Number of documents.
    pub fn count(&self) -> u64 {
        match self {
            Bitmap::Dense(b) => b.count(),
            Bitmap::Sparse(b) => b.count(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            Bitmap::Dense(b) => b.is_empty(),
            Bitmap::Sparse(b) => b.is_empty(),
        }
    }

    /// Members in ascending order.
    pub fn ids(&self) -> Vec<DocId> {
        match self {
            Bitmap::Dense(b) => b.iter().collect(),
            Bitmap::Sparse(b) => b.iter().collect(),
        }
    }

    /// Converts to the dense representation (clone-free when already dense).
    pub fn into_dense(self) -> DenseBitmap {
        match self {
            Bitmap::Dense(b) => b,
            Bitmap::Sparse(s) => {
                let mut d = DenseBitmap::new();
                for id in s.iter() {
                    d.insert(id);
                }
                d
            }
        }
    }

    /// Converts to the sparse representation.
    pub fn into_sparse(self) -> SparseBitmap {
        match self {
            Bitmap::Sparse(s) => s,
            Bitmap::Dense(d) => {
                let mut s = SparseBitmap::new();
                for id in d.iter() {
                    s.insert(id);
                }
                s
            }
        }
    }

    /// Set union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        match (self, other) {
            (Bitmap::Dense(a), Bitmap::Dense(b)) => {
                let mut r = a.clone();
                r.union_with(b);
                Bitmap::Dense(r)
            }
            (Bitmap::Sparse(a), Bitmap::Sparse(b)) => {
                let mut r = a.clone();
                r.union_with(b);
                Bitmap::Sparse(r)
            }
            (a, b) => {
                let mut r = a.clone().into_dense();
                r.union_with(&b.clone().into_dense());
                Bitmap::Dense(r)
            }
        }
    }

    /// Set intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        match (self, other) {
            (Bitmap::Dense(a), Bitmap::Dense(b)) => {
                let mut r = a.clone();
                r.intersect_with(b);
                Bitmap::Dense(r)
            }
            (Bitmap::Sparse(a), b) => {
                let mut r = a.clone();
                r.ids_retain(|id| b.contains(DocId(id)));
                Bitmap::Sparse(r)
            }
            (Bitmap::Dense(_), Bitmap::Sparse(b)) => {
                let mut r = b.clone();
                r.ids_retain(|id| self.contains(DocId(id)));
                Bitmap::Sparse(r)
            }
        }
    }

    /// Set difference (`self \ other`).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        match (self, other) {
            (Bitmap::Dense(a), Bitmap::Dense(b)) => {
                let mut r = a.clone();
                r.subtract(b);
                Bitmap::Dense(r)
            }
            (Bitmap::Sparse(a), b) => {
                let mut r = a.clone();
                r.ids_retain(|id| !b.contains(DocId(id)));
                Bitmap::Sparse(r)
            }
            (Bitmap::Dense(a), Bitmap::Sparse(b)) => {
                let mut r = a.clone();
                for id in b.iter() {
                    r.remove(id);
                }
                Bitmap::Dense(r)
            }
        }
    }

    /// Resident bytes of the representation.
    pub fn bytes(&self) -> u64 {
        match self {
            Bitmap::Dense(b) => b.bytes(),
            Bitmap::Sparse(b) => b.bytes(),
        }
    }

    /// Order-sensitive FNV-1a hash of the member ids. Representation
    /// agnostic: a dense and a sparse bitmap holding the same set produce
    /// the same fingerprint (both iterate ascending). Used as the scope
    /// component of query-result cache keys.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |id: u64| {
            for byte in id.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        match self {
            Bitmap::Dense(b) => b.iter().for_each(|d| mix(d.0)),
            Bitmap::Sparse(b) => b.iter().for_each(|d| mix(d.0)),
        }
        hash
    }
}

impl SparseBitmap {
    fn ids_retain(&mut self, mut f: impl FnMut(u64) -> bool) {
        self.ids.retain(|id| f(*id));
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

    fn dense(ids: &[u64]) -> Bitmap {
        Bitmap::from_ids(ids.iter().map(|i| DocId(*i)))
    }

    fn sparse(ids: &[u64]) -> Bitmap {
        let mut b = Bitmap::new_sparse();
        for i in ids {
            b.insert(DocId(*i));
        }
        b
    }

    #[test]
    fn insert_remove_contains_dense() {
        let mut b = DenseBitmap::new();
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
    fn insert_remove_contains_sparse() {
        let mut b = SparseBitmap::new();
        b.insert(DocId(9));
        b.insert(DocId(2));
        b.insert(DocId(9));
        assert_eq!(b.count(), 2);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![DocId(2), DocId(9)]);
        b.remove(DocId(2));
        assert!(!b.contains(DocId(2)));
    }

    #[test]
    fn cross_representation_ops_agree() {
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![1, 2, 3], vec![2, 3, 4]),
            (vec![], vec![5]),
            (vec![100, 200], vec![]),
            (vec![0, 63, 64, 127, 128], vec![63, 128, 500]),
        ];
        for (xs, ys) in cases {
            for (a, b) in [
                (dense(&xs), dense(&ys)),
                (dense(&xs), sparse(&ys)),
                (sparse(&xs), dense(&ys)),
                (sparse(&xs), sparse(&ys)),
            ] {
                let or: Vec<u64> = a.or(&b).ids().iter().map(|d| d.0).collect();
                let and: Vec<u64> = a.and(&b).ids().iter().map(|d| d.0).collect();
                let diff: Vec<u64> = a.and_not(&b).ids().iter().map(|d| d.0).collect();
                let mut want_or: Vec<u64> = xs
                    .iter()
                    .chain(ys.iter())
                    .copied()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                want_or.dedup();
                let want_and: Vec<u64> = xs.iter().filter(|x| ys.contains(x)).copied().collect();
                let want_diff: Vec<u64> = xs.iter().filter(|x| !ys.contains(x)).copied().collect();
                assert_eq!(or, want_or);
                assert_eq!(and, want_and);
                assert_eq!(diff, want_diff);
            }
        }
    }

    #[test]
    fn dense_bytes_is_n_over_8() {
        let mut b = DenseBitmap::new();
        b.insert(DocId(1023));
        // Universe of 1024 docs → 128 bytes, the paper's N/8.
        assert_eq!(b.bytes(), 128);
    }

    #[test]
    fn full_contains_range() {
        let b = DenseBitmap::full(130);
        assert_eq!(b.count(), 130);
        assert!(b.contains(DocId(0)) && b.contains(DocId(129)));
        assert!(!b.contains(DocId(130)));
    }

    #[test]
    fn conversions_roundtrip() {
        let b = dense(&[5, 77, 901]);
        let s = b.clone().into_sparse();
        let d2 = Bitmap::Sparse(s).into_dense();
        assert_eq!(Bitmap::Dense(d2), b);
    }

    #[test]
    fn fingerprint_is_representation_agnostic_and_content_sensitive() {
        let sets: Vec<Vec<u64>> = vec![vec![], vec![0], vec![1, 64, 900], vec![1, 65, 900]];
        let mut fps = Vec::new();
        for ids in &sets {
            let d = dense(ids).fingerprint();
            let s = sparse(ids).fingerprint();
            assert_eq!(d, s, "dense/sparse fingerprints must agree for {ids:?}");
            fps.push(d);
        }
        // Distinct sets get distinct fingerprints (for these small cases).
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "sets {i} and {j} collided");
            }
        }
        // Trailing zero words don't change the fingerprint.
        let mut with_tail = DenseBitmap::new();
        with_tail.insert(DocId(3));
        with_tail.insert(DocId(1000));
        with_tail.remove(DocId(1000));
        assert_eq!(
            Bitmap::Dense(with_tail).fingerprint(),
            dense(&[3]).fingerprint()
        );
    }

    #[test]
    fn sparse_saves_space_on_sparse_sets() {
        let mut d = DenseBitmap::new();
        let mut s = SparseBitmap::new();
        for i in [0u64, 1_000_000] {
            d.insert(DocId(i));
            s.insert(DocId(i));
        }
        assert!(s.bytes() < d.bytes());
    }
}
