//! Segment-shipped read replicas.
//!
//! A [`Replica`] follows one shard primary by pulling its `hac-store`
//! manifest (wire `Manifest` op), diffing the listed segment objects
//! against what it has already applied — **by content hash**, which
//! survives merges and checkpoints rearranging the manifest *around* a
//! segment — and fetching exactly the missing objects (`Object` op).
//! Each object is hash-verified before decoding and applied with
//! `Index::replay_segment`; a checkpointed base snapshot is loaded the
//! same way when the manifest's base changes. The replica therefore
//! converges from the durable trail alone: restarting it (or the
//! primary checkpointing underneath it) never forces a cold reindex.
//!
//! The replica serves reads the whole time. Its query surface is the
//! same `RemoteQuerySystem` trait the primary speaks, so a coordinator
//! lists it as a failover target ([`crate::FedRemote::add_replica`]) and
//! a shard outage degrades to replica-served results instead of a
//! partial answer. Fetch is declined — the replica replicates the
//! *index* (and the doc→path map), not document bodies — so the
//! coordinator keeps point reads on primaries.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem, RetryPolicy};
use hac_core::store::{decode_doc_paths, decode_index_snapshot, decode_segment, SnapshotDecode};
use hac_index::{ContentExpr, DocId, Granularity, Index, Token};
use hac_store::{ContentHash, Manifest, StoreError};

use crate::FedError;

/// What one [`Replica::sync_once`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// The primary's manifest revision after this pass.
    pub manifest_seq: u64,
    /// Index generation the replica now reflects.
    pub generation: u64,
    /// Segment objects fetched and replayed this pass.
    pub segments_applied: usize,
    /// Whether the base snapshot changed (checkpoint on the primary) and
    /// was reloaded.
    pub base_reloaded: bool,
    /// `true` when nothing was missing — the replica was already caught
    /// up with the manifest it fetched.
    pub in_sync: bool,
}

/// Mutable replica state, replaced/extended by sync passes while reads
/// run against it.
struct ReplicaState {
    index: Index,
    /// doc id → namespace path, rebuilt from the durable trail (base
    /// sidecar + segment `path` fields) — never from a namespace walk.
    paths: HashMap<u64, String>,
    /// Tokens shipped in applied segments, serving as the verification
    /// provider for coarse-index candidates.
    tokens: HashMap<DocId, Vec<Token>>,
    /// Content hashes of segments already replayed onto `index`.
    applied: HashSet<ContentHash>,
    base: Option<ContentHash>,
    manifest_seq: u64,
    generation: u64,
}

/// A read replica of one shard, fed by segment shipping.
pub struct Replica {
    ns: NamespaceId,
    source: Arc<dyn RemoteQuerySystem>,
    state: Mutex<ReplicaState>,
}

impl Replica {
    /// A fresh, empty replica following `source` (typically a
    /// `NetRemote` dialed at the primary, but any backend that serves
    /// the `Manifest`/`Object` ops works).
    pub fn new(source: Arc<dyn RemoteQuerySystem>) -> Replica {
        Replica {
            ns: source.namespace(),
            source,
            state: Mutex::new(ReplicaState {
                index: Index::new(Granularity::Exact),
                paths: HashMap::new(),
                tokens: HashMap::new(),
                applied: HashSet::new(),
                base: None,
                manifest_seq: 0,
                generation: 0,
            }),
        }
    }

    /// Fetch an object from the primary and verify it against its
    /// advertised content address before letting it anywhere near the
    /// index — a corrupted or swapped object must not be applied.
    fn fetch_verified(&self, hash: ContentHash) -> Result<Vec<u8>, FedError> {
        let bytes = self.source.object_bytes(&hash.to_hex())?;
        if ContentHash::of(&bytes) != hash {
            return Err(FedError::Store(StoreError::Corrupt(format!(
                "shipped object {} failed hash verification",
                hash.to_hex()
            ))));
        }
        Ok(bytes)
    }

    /// One catch-up pass: pull the primary's manifest, apply whatever is
    /// missing, report what happened. Idempotent — a pass against an
    /// unchanged manifest applies nothing.
    ///
    /// # Errors
    ///
    /// Transport failures ([`FedError::Remote`]) leave state untouched;
    /// validation failures ([`FedError::Store`]) abort the pass without
    /// applying the offending object (already-applied segments stand —
    /// they were independently verified).
    pub fn sync_once(&self) -> Result<SyncReport, FedError> {
        let _span = hac_obs::span!("fed_replica_sync", ns = self.ns.0);
        let manifest = Manifest::decode(&self.source.manifest_bytes()?)?;
        let mut st = self.state.lock().unwrap();

        // Checkpoint handling: a changed base obsoletes everything we
        // replayed (the primary folded it into the snapshot). Reload the
        // snapshot and its doc→path sidecar, then replay forward.
        let mut base_reloaded = false;
        if manifest.base != st.base {
            let (index, paths) = match manifest.base {
                Some(hash) => {
                    let snap = self.fetch_verified(hash)?;
                    let index = match decode_index_snapshot(&snap)? {
                        SnapshotDecode::Current(i) => *i,
                        SnapshotDecode::VersionSkew(v) => {
                            return Err(FedError::Store(StoreError::Corrupt(format!(
                                "base snapshot at unreadable version {v}"
                            ))));
                        }
                    };
                    let paths = match manifest.paths {
                        Some(ph) => decode_doc_paths(&self.fetch_verified(ph)?)?
                            .into_iter()
                            .collect(),
                        None => HashMap::new(),
                    };
                    (index, paths)
                }
                None => (Index::new(Granularity::Exact), HashMap::new()),
            };
            st.index = index;
            st.paths = paths;
            st.tokens.clear();
            st.applied.clear();
            st.base = manifest.base;
            base_reloaded = true;
        }

        // Segment shipping proper: diff by hash, pull, verify, replay.
        let missing: Vec<ContentHash> = manifest
            .missing_segments(|h| st.applied.contains(h))
            .iter()
            .map(|e| e.hash)
            .collect();
        // Replica-lag telemetry, measured at sync start (pre-apply):
        // how many segments behind the primary's trail this replica is,
        // and how stale its view is against the primary's last commit
        // stamp. Zero once the pass completes in sync; the wall-clock
        // gauge is advisory across hosts (the stamp is the primary's
        // clock) and absent (0) for pre-v2 manifests that carry none.
        let behind = missing.len() + usize::from(manifest.base != st.base);
        hac_obs::gauge("hac_fed_replica_lag_segments", &[("ns", &self.ns.0)])
            .set(missing.len() as i64);
        let lag_us = if behind == 0 || manifest.committed_at_micros == 0 {
            0
        } else {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0)
                .saturating_sub(manifest.committed_at_micros) as i64
        };
        hac_obs::gauge("hac_fed_replica_lag_us", &[("ns", &self.ns.0)]).set(lag_us);
        let mut applied = 0usize;
        for hash in missing {
            let segment = decode_segment(&self.fetch_verified(hash)?)?;
            st.index.replay_segment(&segment);
            for add in &segment.adds {
                if !add.path.is_empty() {
                    st.paths.insert(add.doc, add.path.clone());
                }
                st.tokens.insert(DocId(add.doc), add.tokens.clone());
            }
            for &doc in &segment.removes {
                st.paths.remove(&doc);
                st.tokens.remove(&DocId(doc));
            }
            st.generation = st.generation.max(segment.generation);
            st.applied.insert(hash);
            applied += 1;
            hac_obs::counter("hac_fed_segments_shipped_total", &[("ns", &self.ns.0)]).inc();
        }
        st.manifest_seq = manifest.seq;
        if let Some(gen) = manifest.segments.iter().map(|s| s.generation).max() {
            st.generation = st.generation.max(gen);
        }
        hac_obs::gauge("hac_fed_replica_manifest_seq", &[("ns", &self.ns.0)])
            .set(st.manifest_seq as i64);
        // The pass applied everything the manifest named: caught up. The
        // pre-apply readings above survive only when a fetch aborts the
        // pass mid-way — exactly the case where lag is real.
        hac_obs::gauge("hac_fed_replica_lag_segments", &[("ns", &self.ns.0)]).set(0);
        hac_obs::gauge("hac_fed_replica_lag_us", &[("ns", &self.ns.0)]).set(0);

        Ok(SyncReport {
            manifest_seq: st.manifest_seq,
            generation: st.generation,
            segments_applied: applied,
            base_reloaded,
            in_sync: applied == 0 && !base_reloaded,
        })
    }

    /// The manifest revision this replica has applied (0 = never synced).
    pub fn applied_seq(&self) -> u64 {
        self.state.lock().unwrap().manifest_seq
    }

    /// The index generation this replica reflects.
    pub fn generation(&self) -> u64 {
        self.state.lock().unwrap().generation
    }

    /// Documents currently visible to reads.
    pub fn doc_count(&self) -> u64 {
        self.state.lock().unwrap().index.doc_count()
    }

    /// Follow the primary on a background thread until
    /// [`Follower::stop`]: sync, sleep per `policy` (exponential backoff
    /// with jitter while the primary is unreachable, base interval while
    /// healthy), repeat. Reads keep working throughout — catching up
    /// never blocks serving.
    pub fn follow(self: Arc<Self>, policy: RetryPolicy) -> Follower {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut jitter = policy.seed_jitter();
            let mut failures: u64 = 0;
            while !flag.load(Ordering::Relaxed) {
                match self.sync_once() {
                    Ok(_) => failures = 0,
                    Err(_) => failures += 1,
                }
                let delay = policy.delay(failures.max(1), &mut jitter);
                // Sleep in short slices so stop() is prompt.
                let mut left = delay;
                while !flag.load(Ordering::Relaxed) && !left.is_zero() {
                    let slice = left.min(std::time::Duration::from_millis(20));
                    thread::sleep(slice);
                    left = left.saturating_sub(slice);
                }
            }
        });
        Follower { stop, handle }
    }
}

/// Handle to a background catch-up loop started by [`Replica::follow`].
pub struct Follower {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl Follower {
    /// Signal the loop to exit and wait for it.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

impl RemoteQuerySystem for Replica {
    fn namespace(&self) -> NamespaceId {
        self.ns.clone()
    }

    /// Evaluate against the replicated index. Shipped segment tokens act
    /// as the verification provider, so coarse-index candidates verify
    /// exactly as they would on the primary.
    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        let st = self.state.lock().unwrap();
        let universe = st.index.all_docs();
        let hits = st.index.eval(query, &universe, &st.tokens);
        let mut docs: Vec<RemoteDoc> = hits
            .ids()
            .into_iter()
            .filter_map(|d| {
                st.paths.get(&d.0).map(|path| RemoteDoc {
                    id: path.clone(),
                    title: path.rsplit('/').next().unwrap_or(path).to_string(),
                })
            })
            .collect();
        docs.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(docs)
    }

    /// Declined: the replica replicates the index, not document bodies.
    /// The coordinator routes fetches to primaries.
    fn fetch(&self, _id: &str) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::Unavailable(
            "replica serves search only; fetch from the primary".into(),
        ))
    }

    /// The replica's own span forest (its process-global event ring),
    /// so a fleet stitch covers replica-served failover work too.
    fn trace_spans_bytes(&self, trace_id: u64) -> Result<Vec<u8>, RemoteError> {
        let mut events = hac_obs::recent_events();
        events.extend(hac_obs::slow_ops());
        events.retain(|e| e.trace_id == Some(trace_id));
        Ok(hac_obs::trace::encode_spans(&events))
    }

    /// The replica's registry snapshot — this is where its
    /// `hac_fed_replica_lag_*` gauges reach a fleet scrape.
    fn metrics_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        Ok(hac_obs::snapshot().encode())
    }
}
