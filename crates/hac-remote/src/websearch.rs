//! A simulated web search engine.
//!
//! §3 of the paper motivates semantic mount points with "commercial search
//! engines on the web" — name spaces that answer queries but offer no
//! hierarchy at all. `WebSearchSim` stands in for one: it owns a document
//! store with a real inverted index (so query cost scales like the real
//! thing), an optional latency model, and failure injection for the
//! consistency-under-failure tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Duration;

use hac_core::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_index::{tokenize_text, Bitmap, ContentExpr, DocId, Granularity, Index, Token};
use hac_obs::sync::{read, write};

pub use hac_core::FailurePolicy;

struct Store {
    index: Index,
    docs: HashMap<u64, (String, String, Vec<u8>)>, // doc → (id, title, content)
    by_id: HashMap<String, u64>,
    next: u64,
}

/// The simulated engine.
pub struct WebSearchSim {
    ns: NamespaceId,
    store: RwLock<Store>,
    latency: Duration,
    policy: RwLock<FailurePolicy>,
    requests: AtomicU64,
}

impl WebSearchSim {
    /// Creates an empty engine with the given namespace id.
    pub fn new(ns: &str) -> Self {
        WebSearchSim {
            ns: NamespaceId(ns.to_string()),
            store: RwLock::new(Store {
                index: Index::new(Granularity::Exact),
                docs: HashMap::new(),
                by_id: HashMap::new(),
                next: 0,
            }),
            latency: Duration::ZERO,
            policy: RwLock::new(FailurePolicy::None),
            requests: AtomicU64::new(0),
        }
    }

    /// Adds a simulated per-request latency (the "remote" in remote).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the failure policy (can be changed at runtime for tests).
    pub fn set_failure_policy(&self, policy: FailurePolicy) {
        *write(&self.policy) = policy;
    }

    /// Publishes (or replaces) a document.
    pub fn publish(&self, id: &str, title: &str, content: &[u8]) {
        let mut store = write(&self.store);
        let doc = match store.by_id.get(id) {
            Some(d) => *d,
            None => {
                let d = store.next;
                store.next += 1;
                store.by_id.insert(id.to_string(), d);
                d
            }
        };
        let tokens = tokenize_text(content);
        store.index.add_doc(DocId(doc), 1, &tokens);
        store
            .docs
            .insert(doc, (id.to_string(), title.to_string(), content.to_vec()));
    }

    /// Removes a document.
    pub fn retract(&self, id: &str) {
        let mut store = write(&self.store);
        if let Some(doc) = store.by_id.remove(id) {
            store.index.remove_doc(DocId(doc));
            store.docs.remove(&doc);
        }
    }

    /// Number of requests served (including failed ones).
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of published documents.
    pub fn doc_count(&self) -> usize {
        read(&self.store).docs.len()
    }

    fn gate(&self) -> Result<(), RemoteError> {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        read(&self.policy).check(n)
    }
}

struct StoreProvider<'a>(&'a Store);

impl hac_index::DocProvider for StoreProvider<'_> {
    fn tokens(&self, doc: DocId) -> Option<Vec<Token>> {
        self.0
            .docs
            .get(&doc.0)
            .map(|(_, _, content)| tokenize_text(content))
    }
}

impl RemoteQuerySystem for WebSearchSim {
    fn namespace(&self) -> NamespaceId {
        self.ns.clone()
    }

    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        crate::observed(&self.ns, "search", || {
            self.gate()?;
            let store = read(&self.store);
            let universe: Bitmap = store.index.all_docs();
            let hits = store.index.eval(query, &universe, &StoreProvider(&store));
            let mut out = Vec::new();
            for doc in hits.ids() {
                if let Some((id, title, _)) = store.docs.get(&doc.0) {
                    out.push(RemoteDoc {
                        id: id.clone(),
                        title: title.clone(),
                    });
                }
            }
            out.sort_by(|a, b| a.id.cmp(&b.id));
            Ok(out)
        })
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        crate::observed(&self.ns, "fetch", || {
            self.gate()?;
            let store = read(&self.store);
            let doc = store
                .by_id
                .get(id)
                .ok_or_else(|| RemoteError::NotFound(id.to_string()))?;
            Ok(store.docs[doc].2.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> WebSearchSim {
        let e = WebSearchSim::new("web");
        e.publish(
            "u1",
            "Fingerprint survey",
            b"fingerprint verification survey minutiae",
        );
        e.publish("u2", "Cooking blog", b"pasta carbonara recipe");
        e.publish(
            "u3",
            "Biometrics intro",
            b"fingerprint iris biometrics overview",
        );
        e
    }

    #[test]
    fn search_answers_boolean_queries() {
        let e = engine();
        let hits = e.search(&ContentExpr::term("fingerprint")).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, "u1");
        let hits = e
            .search(&ContentExpr::and_not(
                ContentExpr::term("fingerprint"),
                ContentExpr::term("iris"),
            ))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "u1");
    }

    #[test]
    fn publish_replace_and_retract() {
        let e = engine();
        e.publish("u2", "Cooking blog", b"now about fingerprint dusting");
        assert_eq!(
            e.search(&ContentExpr::term("fingerprint")).unwrap().len(),
            3
        );
        e.retract("u1");
        assert_eq!(
            e.search(&ContentExpr::term("fingerprint")).unwrap().len(),
            2
        );
        assert!(matches!(e.fetch("u1"), Err(RemoteError::NotFound(_))));
        assert_eq!(
            e.fetch("u3").unwrap(),
            b"fingerprint iris biometrics overview".to_vec()
        );
    }

    #[test]
    fn failure_policies() {
        let e = engine();
        e.set_failure_policy(FailurePolicy::AlwaysDown);
        assert!(matches!(
            e.search(&ContentExpr::All),
            Err(RemoteError::Unavailable(_))
        ));
        e.set_failure_policy(FailurePolicy::AlwaysTimeout);
        assert!(matches!(
            e.search(&ContentExpr::All),
            Err(RemoteError::Timeout)
        ));
        e.set_failure_policy(FailurePolicy::EveryNth(2));
        let a = e.search(&ContentExpr::All).is_ok();
        let b = e.search(&ContentExpr::All).is_ok();
        assert_ne!(a, b, "every-2nd policy alternates");
        assert!(e.request_count() >= 4);
    }

    #[test]
    fn latency_is_applied() {
        let e = WebSearchSim::new("slow").with_latency(Duration::from_millis(20));
        e.publish("d", "Doc", b"word");
        let t = std::time::Instant::now();
        e.search(&ContentExpr::term("word")).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(20));
    }
}
