//! A flat file server.
//!
//! The paper claims "HAC can be used even on 'flat' file systems and file
//! systems that do not support symbolic links". `FlatFileServer` is such a
//! substrate: a name → content map with no hierarchy and no links, searched
//! by linear scan (the degenerate CBA mechanism). Mounted semantically, it
//! lets HAC users organize a flat remote store hierarchically on their own
//! side.

use std::collections::BTreeMap;
use std::sync::RwLock;

use hac_core::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_index::{tokenize_text, ContentExpr, Token};
use hac_obs::sync::{read, write};

/// A flat (hierarchy-free, link-free) file store.
pub struct FlatFileServer {
    ns: NamespaceId,
    files: RwLock<BTreeMap<String, Vec<u8>>>,
}

impl FlatFileServer {
    /// Creates an empty server.
    pub fn new(ns: &str) -> Self {
        FlatFileServer {
            ns: NamespaceId(ns.to_string()),
            files: RwLock::new(BTreeMap::new()),
        }
    }

    /// Stores a file under a flat name (no `/` semantics).
    pub fn put(&self, name: &str, content: &[u8]) {
        write(&self.files).insert(name.to_string(), content.to_vec());
    }

    /// Deletes a file.
    pub fn delete(&self, name: &str) -> bool {
        write(&self.files).remove(name).is_some()
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        read(&self.files).len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        read(&self.files).is_empty()
    }

    fn matches(expr: &ContentExpr, tokens: &[Token]) -> bool {
        match expr {
            ContentExpr::Term(t) => tokens.iter().any(|tok| tok.key() == *t),
            ContentExpr::Field(n, v) => {
                let key = Token::field_key(n, v);
                tokens.iter().any(|tok| tok.key() == key)
            }
            ContentExpr::Phrase(ws) => {
                let words: Vec<&str> = tokens.iter().filter_map(Token::as_word).collect();
                !ws.is_empty()
                    && words
                        .windows(ws.len())
                        .any(|w| w.iter().zip(ws.iter()).all(|(a, b)| *a == b))
            }
            ContentExpr::Approx(t, k) => tokens
                .iter()
                .filter_map(Token::as_word)
                .any(|w| hac_index::approx::within_distance(t, w, *k)),
            ContentExpr::Prefix(prefix) => tokens
                .iter()
                .filter_map(Token::as_word)
                .any(|w| w.starts_with(prefix)),
            ContentExpr::And(a, b) => Self::matches(a, tokens) && Self::matches(b, tokens),
            ContentExpr::Or(a, b) => Self::matches(a, tokens) || Self::matches(b, tokens),
            ContentExpr::AndNot(a, b) => Self::matches(a, tokens) && !Self::matches(b, tokens),
            ContentExpr::Not(a) => !Self::matches(a, tokens),
            ContentExpr::All => true,
            ContentExpr::Nothing => false,
        }
    }
}

impl RemoteQuerySystem for FlatFileServer {
    fn namespace(&self) -> NamespaceId {
        self.ns.clone()
    }

    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        crate::observed(&self.ns, "search", || {
            let files = read(&self.files);
            Ok(files
                .iter()
                .filter(|(_, content)| Self::matches(query, &tokenize_text(content)))
                .map(|(name, _)| RemoteDoc {
                    id: name.clone(),
                    title: name.clone(),
                })
                .collect())
        })
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        crate::observed(&self.ns, "fetch", || {
            read(&self.files)
                .get(id)
                .cloned()
                .ok_or_else(|| RemoteError::NotFound(id.to_string()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> FlatFileServer {
        let s = FlatFileServer::new("flat");
        s.put("note-a", b"fingerprint ridge endings");
        s.put("note-b", b"soup recipe with leeks");
        s.put("note-c", b"fingerprint cores and deltas");
        s
    }

    #[test]
    fn linear_scan_search() {
        let s = server();
        let hits = s.search(&ContentExpr::term("fingerprint")).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, "note-a");
        let hits = s
            .search(&ContentExpr::and(
                ContentExpr::term("fingerprint"),
                ContentExpr::term("cores"),
            ))
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn phrase_and_approx_supported() {
        let s = server();
        let hits = s
            .search(&ContentExpr::Phrase(vec!["ridge".into(), "endings".into()]))
            .unwrap();
        assert_eq!(hits.len(), 1);
        let hits = s
            .search(&ContentExpr::Approx("fingerprnt".into(), 1))
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn put_delete_fetch() {
        let s = server();
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.fetch("note-b").unwrap(),
            b"soup recipe with leeks".to_vec()
        );
        assert!(s.delete("note-b"));
        assert!(!s.delete("note-b"));
        assert!(matches!(s.fetch("note-b"), Err(RemoteError::NotFound(_))));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
