//! Segment shipping end to end, transport-free: a primary committing
//! sealed segments into an `IndexStore`, a [`Replica`] pulling them
//! through the `RemoteQuerySystem` manifest/object hooks, and the
//! invariants that make replication safe — hash verification before
//! apply, convergence across checkpoints, and a restarted replica
//! catching up from the durable trail alone (no cold reindex).

use std::sync::Arc;
use std::time::Duration;

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem, RetryPolicy};
use hac_core::store::IndexStore;
use hac_fed::{FedError, Replica};
use hac_index::{tokenize_text, ContentExpr, Granularity, Index, Segment, SegmentDoc};
use hac_store::{MemStore, StoreError};

/// A shard primary: a live `Index` plus the `IndexStore` holding its
/// durable trail, exported through the same trait hooks `HacServer`
/// dispatches the wire ops to.
struct Primary {
    index: std::sync::Mutex<Index>,
    store: IndexStore,
    next_doc: std::sync::atomic::AtomicU64,
}

impl Primary {
    fn new() -> Primary {
        Primary {
            index: std::sync::Mutex::new(Index::new(Granularity::Exact)),
            store: IndexStore::open_fresh(Arc::new(MemStore::new()), 64),
            next_doc: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Index `docs` as one committed segment: `(path, body)` pairs.
    fn commit(&self, docs: &[(&str, &str)]) {
        let mut index = self.index.lock().unwrap();
        let seq = self.store.next_seq();
        let adds: Vec<SegmentDoc> = docs
            .iter()
            .map(|(path, body)| SegmentDoc {
                doc: self
                    .next_doc
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                version: 1,
                path: path.to_string(),
                tokens: tokenize_text(body.as_bytes()),
            })
            .collect();
        let segment = Segment {
            seq,
            generation: seq,
            adds,
            removes: Vec::new(),
        };
        index.replay_segment(&segment);
        self.store.commit_segment(&segment).unwrap();
    }

    fn checkpoint(&self, paths: &[(u64, String)]) {
        let index = self.index.lock().unwrap();
        self.store.checkpoint(&index, paths).unwrap();
    }
}

impl RemoteQuerySystem for Primary {
    fn namespace(&self) -> NamespaceId {
        NamespaceId("shard.0".into())
    }
    fn search(&self, _q: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        Err(RemoteError::UnsupportedQuery("replication-only".into()))
    }
    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::NotFound(id.to_string()))
    }
    fn manifest_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        Ok(self.store.export_manifest())
    }
    fn object_bytes(&self, hash: &str) -> Result<Vec<u8>, RemoteError> {
        let hash = hac_store::ContentHash::parse(hash)
            .ok_or_else(|| RemoteError::UnsupportedQuery(format!("bad hash {hash}")))?;
        self.store
            .export_object(hash)
            .map_err(|e| RemoteError::NotFound(e.to_string()))
    }
}

fn ids(docs: &[RemoteDoc]) -> Vec<&str> {
    docs.iter().map(|d| d.id.as_str()).collect()
}

#[test]
fn replica_converges_by_shipping_segments() {
    let primary = Arc::new(Primary::new());
    primary.commit(&[
        ("/pub/a.txt", "alpha shared corpus"),
        ("/pub/b.txt", "beta shared corpus"),
    ]);
    primary.commit(&[("/pub/c.txt", "gamma solo")]);

    let replica = Replica::new(primary.clone() as Arc<dyn RemoteQuerySystem>);
    let report = replica.sync_once().unwrap();
    assert_eq!(report.segments_applied, 2);
    assert!(!report.in_sync);
    assert_eq!(replica.doc_count(), 3);

    // The replicated index answers queries identically to the primary's.
    let hits = replica.search(&ContentExpr::Term("shared".into())).unwrap();
    assert_eq!(ids(&hits), vec!["/pub/a.txt", "/pub/b.txt"]);

    // Idempotent: nothing new → nothing shipped.
    let again = replica.sync_once().unwrap();
    assert_eq!(again.segments_applied, 0);
    assert!(again.in_sync);

    // Incremental: only the delta ships.
    primary.commit(&[("/pub/d.txt", "delta shared")]);
    let delta = replica.sync_once().unwrap();
    assert_eq!(delta.segments_applied, 1);
    assert_eq!(
        ids(&replica.search(&ContentExpr::Term("shared".into())).unwrap()),
        vec!["/pub/a.txt", "/pub/b.txt", "/pub/d.txt"]
    );

    // Lag telemetry: a completed pass reads caught-up (the pre-apply
    // readings survive only when a pass aborts mid-way).
    let snap = hac_obs::snapshot();
    let ns = replica.namespace().0;
    assert_eq!(
        snap.gauge_value("hac_fed_replica_lag_segments", &[("ns", &ns)]),
        Some(0)
    );
    assert_eq!(
        snap.gauge_value("hac_fed_replica_lag_us", &[("ns", &ns)]),
        Some(0)
    );
}

#[test]
fn replica_survives_primary_checkpoint_and_restart_needs_no_cold_reindex() {
    let primary = Arc::new(Primary::new());
    primary.commit(&[("/p/one.txt", "one fish"), ("/p/two.txt", "two fish")]);

    let replica = Replica::new(primary.clone() as Arc<dyn RemoteQuerySystem>);
    replica.sync_once().unwrap();
    assert_eq!(replica.doc_count(), 2);

    // Primary checkpoints: segments fold into a base snapshot (+ paths
    // sidecar), then life continues with fresh segments.
    primary.checkpoint(&[(0, "/p/one.txt".into()), (1, "/p/two.txt".into())]);
    primary.commit(&[("/p/three.txt", "red fish")]);

    let report = replica.sync_once().unwrap();
    assert!(report.base_reloaded, "base change must reload the snapshot");
    assert_eq!(report.segments_applied, 1);
    assert_eq!(replica.doc_count(), 3);
    assert_eq!(
        ids(&replica.search(&ContentExpr::Term("fish".into())).unwrap()),
        vec!["/p/one.txt", "/p/three.txt", "/p/two.txt"]
    );

    // A brand-new replica (simulating a restart that lost its state)
    // converges from the shipped trail alone — base + one segment — and
    // matches the caught-up replica exactly.
    let restarted = Replica::new(primary as Arc<dyn RemoteQuerySystem>);
    let fresh = restarted.sync_once().unwrap();
    assert!(fresh.base_reloaded);
    assert_eq!(fresh.segments_applied, 1);
    assert_eq!(restarted.doc_count(), replica.doc_count());
    assert_eq!(restarted.applied_seq(), replica.applied_seq());
    assert_eq!(
        ids(&restarted.search(&ContentExpr::Term("fish".into())).unwrap()),
        ids(&replica.search(&ContentExpr::Term("fish".into())).unwrap()),
    );
}

/// A primary whose object bytes are corrupted in flight.
struct Garbler(Arc<Primary>);

impl RemoteQuerySystem for Garbler {
    fn namespace(&self) -> NamespaceId {
        self.0.namespace()
    }
    fn search(&self, q: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        self.0.search(q)
    }
    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        self.0.fetch(id)
    }
    fn manifest_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        self.0.manifest_bytes()
    }
    fn object_bytes(&self, hash: &str) -> Result<Vec<u8>, RemoteError> {
        let mut bytes = self.0.object_bytes(hash)?;
        if let Some(b) = bytes.first_mut() {
            *b ^= 0xff;
        }
        Ok(bytes)
    }
}

#[test]
fn corrupted_objects_are_rejected_before_apply() {
    let primary = Arc::new(Primary::new());
    primary.commit(&[("/x/a.txt", "payload integrity")]);

    let replica = Replica::new(Arc::new(Garbler(primary)) as Arc<dyn RemoteQuerySystem>);
    match replica.sync_once() {
        Err(FedError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.contains("hash verification"), "got: {msg}");
        }
        other => panic!("corrupted object must be refused, got {other:?}"),
    }
    // Nothing was applied; the replica still serves (empty) reads.
    assert_eq!(replica.doc_count(), 0);
    assert_eq!(replica.applied_seq(), 0);
    assert!(replica.search(&ContentExpr::All).unwrap().is_empty());
}

#[test]
fn follower_thread_catches_up_in_background_and_stops_cleanly() {
    let primary = Arc::new(Primary::new());
    primary.commit(&[("/bg/a.txt", "first wave")]);

    let replica = Arc::new(Replica::new(primary.clone() as Arc<dyn RemoteQuerySystem>));
    let follower = Arc::clone(&replica).follow(RetryPolicy::daemon(Duration::from_millis(5)));

    let wait = |pred: &dyn Fn() -> bool| {
        for _ in 0..400 {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    };
    assert!(wait(&|| replica.doc_count() == 1), "initial catch-up");

    primary.commit(&[("/bg/b.txt", "second wave")]);
    assert!(wait(&|| replica.doc_count() == 2), "follower ships deltas");

    follower.stop();
}
