//! Tokenization.
//!
//! Glimpse indexes words; our tokenizer lowercases ASCII-alphanumeric runs
//! and drops a small stop list. Transducers (see [`crate::transducer`])
//! additionally emit *field* tokens — typed attribute/value pairs in the
//! style of the MIT Semantic File System's transducers, which the paper
//! cites as the standard way to feed attribute queries.

use hac_codec::{variant, Decode, Encode, Reader};

/// Words shorter than this are not indexed.
pub const MIN_WORD_LEN: usize = 2;

/// Words longer than this are truncated (defends the lexicon against
/// binary junk).
pub const MAX_WORD_LEN: usize = 48;

/// The stop list: high-frequency words that add index bulk but no
/// discriminating power.
pub const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "he", "in", "is", "it",
    "its", "of", "on", "that", "the", "to", "was", "were", "will", "with",
];

/// One indexable token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token {
    /// A plain content word (already case-folded).
    Word(String),
    /// A typed attribute extracted by a transducer, e.g. `from:alice`.
    Field {
        /// Attribute name (case-folded).
        name: String,
        /// Attribute value (case-folded).
        value: String,
    },
}

impl Encode for Token {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Token::Word(w) => variant(out, 0, w),
            Token::Field { name, value } => variant(out, 1, &(name, value)),
        }
    }
}

impl Decode for Token {
    fn decode(r: &mut Reader<'_>) -> Result<Self, hac_codec::Error> {
        match r.varint()? {
            0 => Ok(Token::Word(String::decode(r)?)),
            1 => {
                let (name, value) = Decode::decode(r)?;
                Ok(Token::Field { name, value })
            }
            _ => Err(hac_codec::UNKNOWN_VARIANT),
        }
    }
}

impl Token {
    /// Builds a word token, folding case.
    pub fn word(w: &str) -> Token {
        Token::Word(w.to_ascii_lowercase())
    }

    /// Builds a field token, folding case on both sides.
    pub fn field(name: &str, value: &str) -> Token {
        Token::Field {
            name: name.to_ascii_lowercase(),
            value: value.to_ascii_lowercase(),
        }
    }

    /// The lexicon key for this token. Field tokens are namespaced with an
    /// unprintable separator so they can never collide with content words.
    pub fn key(&self) -> String {
        match self {
            Token::Word(w) => w.clone(),
            Token::Field { name, value } => format!("{name}\u{1f}{value}"),
        }
    }

    /// Builds the lexicon key for a field query without allocating a token.
    pub fn field_key(name: &str, value: &str) -> String {
        format!(
            "{}\u{1f}{}",
            name.to_ascii_lowercase(),
            value.to_ascii_lowercase()
        )
    }

    /// The word content, if this is a word token.
    pub fn as_word(&self) -> Option<&str> {
        match self {
            Token::Word(w) => Some(w),
            Token::Field { .. } => None,
        }
    }
}

/// Whether a word survives the stop list and length limits.
pub fn is_indexable(word: &str) -> bool {
    word.len() >= MIN_WORD_LEN && !STOP_WORDS.contains(&word)
}

/// Tokenizes plain text into lowercase words, applying the stop list.
///
/// # Examples
///
/// ```
/// use hac_index::token::tokenize_text;
///
/// let words = tokenize_text(b"The Fingerprint-Matching ALGORITHM, v2!");
/// let strs: Vec<&str> = words.iter().filter_map(|t| t.as_word()).collect();
/// assert_eq!(strs, vec!["fingerprint", "matching", "algorithm", "v2"]);
/// ```
pub fn tokenize_text(content: &[u8]) -> Vec<Token> {
    let mut out = Vec::new();
    let mut word = String::new();
    for &b in content {
        let c = b as char;
        if c.is_ascii_alphanumeric() || c == '_' {
            if word.len() < MAX_WORD_LEN {
                word.push(c.to_ascii_lowercase());
            }
        } else if !word.is_empty() {
            if is_indexable(&word) {
                out.push(Token::Word(std::mem::take(&mut word)));
            } else {
                word.clear();
            }
        }
    }
    if !word.is_empty() && is_indexable(&word) {
        out.push(Token::Word(word));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_folds_case_and_splits_punctuation() {
        let toks = tokenize_text(b"Hello, WORLD! foo_bar x");
        let words: Vec<&str> = toks.iter().filter_map(Token::as_word).collect();
        // "x" is below MIN_WORD_LEN.
        assert_eq!(words, vec!["hello", "world", "foo_bar"]);
    }

    #[test]
    fn stop_words_are_dropped() {
        let toks = tokenize_text(b"the cat and the hat");
        let words: Vec<&str> = toks.iter().filter_map(Token::as_word).collect();
        assert_eq!(words, vec!["cat", "hat"]);
    }

    #[test]
    fn long_runs_are_truncated_not_dropped() {
        let long = vec![b'a'; 200];
        let toks = tokenize_text(&long);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].as_word().unwrap().len(), MAX_WORD_LEN);
    }

    #[test]
    fn field_keys_cannot_collide_with_words() {
        let f = Token::field("From", "Alice");
        assert_eq!(f.key(), "from\u{1f}alice");
        assert_eq!(Token::field_key("FROM", "ALICE"), f.key());
        let w = Token::word("from");
        assert_ne!(w.key(), Token::field_key("from", ""));
    }

    #[test]
    fn empty_and_binary_input() {
        assert!(tokenize_text(b"").is_empty());
        let toks = tokenize_text(&[0u8, 1, 2, 255, b' ', b'o', b'k']);
        let words: Vec<&str> = toks.iter().filter_map(Token::as_word).collect();
        assert_eq!(words, vec!["ok"]);
    }
}
