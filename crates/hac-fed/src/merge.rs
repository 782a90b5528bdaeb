//! Cross-shard result merging.
//!
//! Each shard evaluates a query against its *own* index, so its result
//! bitmap is expressed in shard-local document ids starting at zero. To
//! union results across shards the coordinator assigns every shard a
//! disjoint **base offset** in a federated id space and translates each
//! local bitmap into it. Because the paper's bitmap representation is
//! positional, translation is a single pass over set bits and the union
//! stays near-free — the same property that makes a single server's
//! boolean evaluation cheap extends unchanged to the federation.

use hac_index::{Bitmap, DocId};

/// Union shard-local bitmaps into one federated bitmap, translating each
/// shard's local ids by its base offset.
///
/// `parts` is `(local_results, base_offset)` per shard; a shard whose
/// local ids range over `0..n` owns federated ids
/// `base_offset..base_offset + n`. Offsets are the caller's contract:
/// they must leave each shard a disjoint range (the coordinator derives
/// them from per-shard document counts).
pub fn union_translated(parts: &[(Bitmap, u64)]) -> Bitmap {
    let mut out = Bitmap::new();
    for (local, base) in parts {
        for id in local.ids() {
            out.insert(DocId(id.0 + base));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(ids: &[u64]) -> Bitmap {
        Bitmap::from_ids(ids.iter().map(|&i| DocId(i)))
    }

    #[test]
    fn translation_offsets_and_unions() {
        let merged = union_translated(&[(bm(&[0, 2]), 0), (bm(&[0, 1]), 10), (bm(&[]), 20)]);
        let got: Vec<u64> = merged.ids().into_iter().map(|d| d.0).collect();
        assert_eq!(got, vec![0, 2, 10, 11]);
    }

    #[test]
    fn empty_parts_union_to_empty() {
        assert_eq!(union_translated(&[]).count(), 0);
    }

    #[test]
    fn disjoint_offsets_preserve_counts() {
        let a = bm(&[0, 1, 2, 3]);
        let b = bm(&[0, 5]);
        let merged = union_translated(&[(a.clone(), 0), (b.clone(), 100)]);
        assert_eq!(merged.count(), a.count() + b.count());
    }
}
