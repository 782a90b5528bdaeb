//! Another HAC file system exported as a remote name space.
//!
//! §3.2's closing example: users "export their file systems as mini-digital
//! libraries to others". `RemoteHac` wraps a whole [`HacFs`] and answers
//! queries over the scope its root provides; document ids are the remote
//! paths. Mounting a colleague's `RemoteHac` lets you build your own
//! semantic classification of their (possibly hand-curated) results —
//! including results *they* imported and edited.

use std::sync::Arc;

use hac_core::{HacFs, NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_index::ContentExpr;
use hac_vfs::VPath;

/// A `HacFs` served as a remote query system.
pub struct RemoteHac {
    ns: NamespaceId,
    fs: Arc<HacFs>,
    /// Scope root inside the exported system (export a subtree, not
    /// necessarily everything).
    export_root: VPath,
}

impl RemoteHac {
    /// Exports the subtree at `export_root` of `fs` under namespace `ns`.
    pub fn new(ns: &str, fs: Arc<HacFs>, export_root: VPath) -> Self {
        RemoteHac {
            ns: NamespaceId(ns.to_string()),
            fs,
            export_root,
        }
    }

    fn expr_to_text(expr: &ContentExpr) -> String {
        // Render the content expression back into HAC query syntax so the
        // exported file system evaluates it with its own engine.
        match expr {
            ContentExpr::Term(t) => t.clone(),
            ContentExpr::Field(n, v) => format!("{n}:{v}"),
            ContentExpr::Phrase(ws) => format!("\"{}\"", ws.join(" ")),
            ContentExpr::Approx(t, k) => format!("~{k}:{t}"),
            ContentExpr::Prefix(t) => format!("{t}*"),
            ContentExpr::And(a, b) => {
                format!("({} AND {})", Self::expr_to_text(a), Self::expr_to_text(b))
            }
            ContentExpr::Or(a, b) => {
                format!("({} OR {})", Self::expr_to_text(a), Self::expr_to_text(b))
            }
            ContentExpr::AndNot(a, b) => {
                format!(
                    "({} AND NOT {})",
                    Self::expr_to_text(a),
                    Self::expr_to_text(b)
                )
            }
            ContentExpr::Not(a) => format!("(NOT {})", Self::expr_to_text(a)),
            ContentExpr::All => "*".to_string(),
            ContentExpr::Nothing => "(x AND NOT x)".to_string(),
        }
    }
}

impl RemoteQuerySystem for RemoteHac {
    fn namespace(&self) -> NamespaceId {
        self.ns.clone()
    }

    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        crate::observed(&self.ns, "search", || {
            let text = Self::expr_to_text(query);
            let hits = self
                .fs
                .search(&self.export_root, &text)
                .map_err(|e| RemoteError::UnsupportedQuery(e.to_string()))?;
            let mut out: Vec<RemoteDoc> = hits
                .into_iter()
                .map(|p| RemoteDoc {
                    id: p.to_string(),
                    title: p.file_name().unwrap_or("export").to_string(),
                })
                .collect();
            out.sort_by(|a, b| a.id.cmp(&b.id));
            Ok(out)
        })
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        crate::observed(&self.ns, "fetch", || {
            let path = VPath::parse(id).map_err(|_| RemoteError::NotFound(id.to_string()))?;
            // The export boundary is the export root's *scope*, not its path
            // prefix: a curated semantic directory's links point at files that
            // live elsewhere, and exactly those files are what it exports.
            let in_subtree = path.starts_with(&self.export_root);
            let in_scope = || {
                self.fs
                    .search(&self.export_root, "*")
                    .map(|paths| paths.contains(&path))
                    .unwrap_or(false)
            };
            if !in_subtree && !in_scope() {
                return Err(RemoteError::NotFound(id.to_string()));
            }
            self.fs
                .read_file(&path)
                .map(|b| b.to_vec())
                .map_err(|_| RemoteError::NotFound(id.to_string()))
        })
    }

    /// Serves the exported file system's durable index manifest, making a
    /// store-attached export a shard primary that read replicas can
    /// follow by segment shipping (wire `Manifest` op).
    fn manifest_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        crate::observed(&self.ns, "manifest", || {
            let store = self.fs.store().ok_or_else(|| {
                RemoteError::UnsupportedQuery("export has no attached index store".into())
            })?;
            Ok(store.export_manifest())
        })
    }

    /// Serves one content-addressed store object (base snapshot, segment,
    /// or paths sidecar) by hex hash (wire `Object` op).
    fn object_bytes(&self, hash: &str) -> Result<Vec<u8>, RemoteError> {
        crate::observed(&self.ns, "object", || {
            let store = self.fs.store().ok_or_else(|| {
                RemoteError::UnsupportedQuery("export has no attached index store".into())
            })?;
            let parsed = hac_store::ContentHash::parse(hash)
                .ok_or_else(|| RemoteError::UnsupportedQuery(format!("bad object hash {hash}")))?;
            store
                .export_object(parsed)
                .map_err(|e| RemoteError::NotFound(format!("object {hash}: {e}")))
        })
    }

    /// Serves this process's recorded spans for one trace id (wire
    /// `TraceSpans` op), letting a coordinator stitch the spans a
    /// federated query left here into its own `/trace/<id>` view. Spans
    /// live in the process-wide rings — the wire server dispatched the
    /// traced request in this process, so this is where its spans landed.
    /// A trace this process never saw (or already evicted) is an empty
    /// forest, not an error.
    fn trace_spans_bytes(&self, trace_id: u64) -> Result<Vec<u8>, RemoteError> {
        crate::observed(&self.ns, "trace_spans", || {
            let mut events = hac_obs::recent_events();
            events.extend(hac_obs::slow_ops());
            events.retain(|e| e.trace_id == Some(trace_id));
            Ok(hac_obs::trace::encode_spans(&events))
        })
    }

    /// Serves this process's current metric-registry snapshot (wire
    /// `Metrics` op) — one node's contribution to a `/fleet/metrics`
    /// scrape.
    fn metrics_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        crate::observed(&self.ns, "metrics", || Ok(hac_obs::snapshot().encode()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    fn colleague() -> Arc<HacFs> {
        let fs = Arc::new(HacFs::new());
        fs.mkdir_p(&p("/pub/papers")).unwrap();
        fs.save(&p("/pub/papers/fp.txt"), b"fingerprint matching methods")
            .unwrap();
        fs.save(&p("/pub/papers/db.txt"), b"database join algorithms")
            .unwrap();
        fs.mkdir_p(&p("/private")).unwrap();
        fs.save(&p("/private/diary.txt"), b"secret fingerprint notes")
            .unwrap();
        fs.ssync(&p("/")).unwrap();
        fs
    }

    #[test]
    fn search_is_scoped_to_the_export_root() {
        let remote = RemoteHac::new("colleague", colleague(), p("/pub"));
        let hits = remote.search(&ContentExpr::term("fingerprint")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "/pub/papers/fp.txt");
        assert_eq!(hits[0].title, "fp.txt");
    }

    #[test]
    fn fetch_respects_the_export_boundary() {
        let remote = RemoteHac::new("colleague", colleague(), p("/pub"));
        assert_eq!(
            remote.fetch("/pub/papers/fp.txt").unwrap(),
            b"fingerprint matching methods".to_vec()
        );
        assert!(matches!(
            remote.fetch("/private/diary.txt"),
            Err(RemoteError::NotFound(_))
        ));
        assert!(matches!(
            remote.fetch("not-a-path"),
            Err(RemoteError::NotFound(_))
        ));
    }

    #[test]
    fn curated_results_are_what_gets_exported() {
        // The colleague hand-curates a semantic directory; its *provided
        // scope* (the curated set) is what a search of that subtree sees.
        let fs = colleague();
        // Scope the curated directory to the public papers explicitly (a
        // plain parent directory is transparent, so the query must carry
        // the subtree restriction itself).
        fs.smkdir(&p("/pub/fp"), "fingerprint AND path(/pub/papers)")
            .unwrap();
        let remote = RemoteHac::new("c", Arc::clone(&fs), p("/pub/fp"));
        let hits = remote.search(&ContentExpr::All).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].id.ends_with("fp.txt"));
    }

    #[test]
    fn manifest_and_objects_export_the_attached_store() {
        let fs = Arc::new(HacFs::new());
        fs.attach_store(Arc::new(hac_store::MemStore::new()))
            .unwrap();
        fs.mkdir_p(&p("/pub")).unwrap();
        fs.save(&p("/pub/a.txt"), b"segment shipping source")
            .unwrap();
        fs.ssync(&p("/")).unwrap();

        let remote = RemoteHac::new("primary", fs, p("/pub"));
        let manifest = hac_store::Manifest::decode(&remote.manifest_bytes().unwrap()).unwrap();
        assert!(
            !manifest.segments.is_empty(),
            "ssync against a store must commit segments"
        );
        // Every listed object is fetchable and verifies against its
        // advertised content address — the replica's safety check.
        for entry in &manifest.segments {
            let bytes = remote.object_bytes(&entry.hash.to_hex()).unwrap();
            assert_eq!(hac_store::ContentHash::of(&bytes), entry.hash);
        }
        assert!(matches!(
            remote.object_bytes("zz-not-a-hash"),
            Err(RemoteError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn storeless_exports_decline_replication_ops() {
        let remote = RemoteHac::new("colleague", colleague(), p("/pub"));
        assert!(matches!(
            remote.manifest_bytes(),
            Err(RemoteError::UnsupportedQuery(_))
        ));
        assert!(matches!(
            remote.object_bytes("00"),
            Err(RemoteError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn boolean_queries_cross_the_wire() {
        let remote = RemoteHac::new("colleague", colleague(), p("/pub"));
        let hits = remote
            .search(&ContentExpr::or(
                ContentExpr::term("fingerprint"),
                ContentExpr::term("join"),
            ))
            .unwrap();
        assert_eq!(hits.len(), 2);
    }
}
