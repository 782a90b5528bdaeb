//! Term dictionary.

use std::collections::HashMap;

use hac_codec::{Decode, Encode, Reader};

/// Dense identifier of a term in the lexicon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

hac_codec::impl_codec!(TermId(u32));

/// Bidirectional term ↔ id dictionary.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    by_key: HashMap<String, TermId>,
    by_id: Vec<String>,
}

// Only the id order is written, so one lexicon has one encoding; the
// key map is rebuilt on decode.
impl Encode for Lexicon {
    fn encode(&self, out: &mut Vec<u8>) {
        self.by_id.encode(out);
    }
}

impl Decode for Lexicon {
    fn decode(r: &mut Reader<'_>) -> Result<Self, hac_codec::Error> {
        let by_id = Vec::<String>::decode(r)?;
        let by_key: HashMap<_, _> = (0..)
            .zip(&by_id)
            .map(|(i, k)| (k.clone(), TermId(i)))
            .collect();
        if by_key.len() != by_id.len() {
            return Err(hac_codec::DUPLICATE_KEY);
        }
        Ok(Lexicon { by_key, by_id })
    }
}

impl Lexicon {
    /// Creates an empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `key`, interning it if new.
    pub fn intern(&mut self, key: &str) -> TermId {
        if let Some(id) = self.by_key.get(key) {
            return *id;
        }
        let id = TermId(self.by_id.len() as u32);
        self.by_id.push(key.to_string());
        self.by_key.insert(key.to_string(), id);
        id
    }

    /// Looks up an existing term without interning.
    pub fn get(&self, key: &str) -> Option<TermId> {
        self.by_key.get(key).copied()
    }

    /// The key of a term id.
    pub fn key_of(&self, id: TermId) -> Option<&str> {
        self.by_id.get(id.0 as usize).map(String::as_str)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the lexicon is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterates `(id, key)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, k)| (TermId(i as u32), k.as_str()))
    }

    /// Approximate resident bytes (for the Table 3 space accounting).
    pub fn bytes(&self) -> u64 {
        self.by_id.iter().map(|k| 2 * k.len() as u64 + 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut lex = Lexicon::new();
        let a = lex.intern("alpha");
        let b = lex.intern("beta");
        assert_ne!(a, b);
        assert_eq!(lex.intern("alpha"), a);
        assert_eq!(lex.len(), 2);
    }

    #[test]
    fn lookup_both_directions() {
        let mut lex = Lexicon::new();
        let id = lex.intern("gamma");
        assert_eq!(lex.get("gamma"), Some(id));
        assert_eq!(lex.get("nope"), None);
        assert_eq!(lex.key_of(id), Some("gamma"));
        assert_eq!(lex.key_of(TermId(99)), None);
    }

    #[test]
    fn codec_writes_ids_in_order_and_refuses_a_repeated_key() {
        let mut lex = Lexicon::new();
        lex.intern("one");
        lex.intern("two");
        let bytes = hac_codec::encode_value(&lex);
        assert_eq!(bytes, hac_codec::encode_value(&vec!["one", "two"]));
        let back: Lexicon = hac_codec::decode_value(&bytes).unwrap();
        assert_eq!(
            (back.get("two"), back.key_of(TermId(0))),
            (Some(TermId(1)), Some("one"))
        );
        let repeated = hac_codec::encode_value(&vec!["one", "one"]);
        assert_eq!(
            hac_codec::decode_value::<Lexicon>(&repeated).unwrap_err(),
            hac_codec::DUPLICATE_KEY
        );
    }

    #[test]
    fn iter_in_id_order() {
        let mut lex = Lexicon::new();
        lex.intern("one");
        lex.intern("two");
        let keys: Vec<&str> = lex.iter().map(|(_, k)| k).collect();
        assert_eq!(keys, vec!["one", "two"]);
    }
}
