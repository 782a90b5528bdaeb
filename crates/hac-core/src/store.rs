//! Durable, segmented index persistence over a content-addressed store.
//!
//! This module connects three layers:
//!
//! * [`hac_store`] — bytes: objects, refs, WAL, crash semantics;
//! * [`hac_index::segment`] — meaning: delta segments and their replay;
//! * the [`IndexStore`] here — protocol: how one `ssync` pass becomes a
//!   crash-atomic commit, how a cold start recovers the index, and how
//!   background maintenance keeps the segment run short.
//!
//! Durable state is always `base snapshot + ordered segments (+ WAL
//! tail)`. The commit protocol (each step durable before the next):
//!
//! 1. append the encoded segment to the WAL;
//! 2. `put` the segment object;
//! 3. `put` a new manifest listing it;
//! 4. swap the `current` ref — **the commit point**;
//! 5. reset the WAL.
//!
//! A crash before 4 leaves `current` on the old manifest and the sealed
//! segment replayable from the WAL (recovery re-puts it and finishes the
//! swap — completing the interrupted commit rather than discarding it).
//! A torn WAL tail from a crash inside 1 is dropped; its delta is
//! re-derived by the next `ssync` pass from document version comparison,
//! per the paper's lazy-consistency contract (§2.4). Objects orphaned by
//! any crash (or by merge/checkpoint supersession) are swept by
//! [`IndexStore::gc`] after a grace period.
//!
//! [`VfsStore`] additionally implements the byte layer *inside the VFS
//! itself* (under `/.hac-meta/store`), so a VFS snapshot carries the
//! segmented index with it — the configuration `HacFs` uses by default
//! in the shell and benches.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hac_codec::Encode;
use hac_index::segment::Segment;
use hac_index::{Granularity, Index};
use hac_obs::sync::lock;
use hac_store::{
    decode_records, encode_record, ContentHash, ContentStore, Manifest, ObjectInfo, SegmentEntry,
    StoreError, StoreResult,
};
use hac_vfs::{NodeKind, VPath, Vfs};

use crate::state::META_DIR;

/// Magic prefix of a versioned full-index snapshot object (the manifest
/// `base`, and the store-less `/.hac-meta/index` file).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HACI";
/// Current snapshot envelope version.
pub const SNAPSHOT_VERSION: u8 = 1;
/// Magic prefix of an encoded segment object.
pub const SEGMENT_MAGIC: [u8; 4] = *b"HACS";
/// Current segment envelope version.
pub const SEGMENT_VERSION: u8 = 1;
/// Magic prefix of a doc→path sidecar object (written at checkpoint).
pub const PATHS_MAGIC: [u8; 4] = *b"HACP";
/// Current paths-sidecar envelope version.
pub const PATHS_VERSION: u8 = 1;

fn codec_err(what: &str, e: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("{what}: {e}"))
}

/// Encode a full index snapshot with the versioned envelope.
pub fn encode_index_snapshot(index: &Index) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    index.encode(&mut out);
    out
}

/// What [`decode_index_snapshot`] found.
pub enum SnapshotDecode {
    /// Decoded at the current version.
    Current(Box<Index>),
    /// Carries a header from a different (future or retired) version:
    /// structurally sound, but this build cannot read it. The caller
    /// counts a migration and cold-rebuilds.
    VersionSkew(u8),
}

/// Decode a snapshot written by [`encode_index_snapshot`]. Bytes without
/// the envelope are corrupt, like any other undecodable body.
pub fn decode_index_snapshot(bytes: &[u8]) -> StoreResult<SnapshotDecode> {
    if bytes.len() < 5 || bytes[..4] != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt("snapshot: bad magic".into()));
    }
    if bytes[4] != SNAPSHOT_VERSION {
        return Ok(SnapshotDecode::VersionSkew(bytes[4]));
    }
    hac_codec::decode_value::<Index>(&bytes[5..])
        .map(|i| SnapshotDecode::Current(Box::new(i)))
        .map_err(|e| codec_err("snapshot body", e))
}

/// Encode a segment with the versioned envelope.
pub fn encode_segment(segment: &Segment) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.push(SEGMENT_VERSION);
    segment.encode(&mut out);
    out
}

/// Decode a segment object.
pub fn decode_segment(bytes: &[u8]) -> StoreResult<Segment> {
    if bytes.len() < 5 || bytes[..4] != SEGMENT_MAGIC {
        return Err(StoreError::Corrupt("segment: bad magic".into()));
    }
    if bytes[4] != SEGMENT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "segment: unsupported version {}",
            bytes[4]
        )));
    }
    hac_codec::decode_value::<Segment>(&bytes[5..]).map_err(|e| codec_err("segment body", e))
}

/// Encode the doc→path sidecar written alongside a checkpoint base: a
/// sequence of `(doc, path)` pairs.
pub fn encode_doc_paths(paths: &[(u64, String)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&PATHS_MAGIC);
    out.push(PATHS_VERSION);
    paths.encode(&mut out);
    out
}

/// Decode a doc→path sidecar object.
pub fn decode_doc_paths(bytes: &[u8]) -> StoreResult<Vec<(u64, String)>> {
    if bytes.len() < 5 || bytes[..4] != PATHS_MAGIC {
        return Err(StoreError::Corrupt("paths: bad magic".into()));
    }
    if bytes[4] != PATHS_VERSION {
        return Err(StoreError::Corrupt(format!(
            "paths: unsupported version {}",
            bytes[4]
        )));
    }
    hac_codec::decode_value(&bytes[5..]).map_err(|e| codec_err("paths body", e))
}

// ---------------------------------------------------------------------
// VfsStore: the byte layer hosted inside the VFS metadata area
// ---------------------------------------------------------------------

/// A [`ContentStore`] whose objects, refs, and WAL live *inside* the VFS
/// under `/.hac-meta/store`. The reserved area is invisible to indexing
/// and scopes, and `hac_vfs::persist::snapshot` carries it along — so
/// "the disk" of this simulated machine durably holds the segmented
/// index, and restoring a snapshot restores the store with it.
///
/// VFS writes are internally atomic, so no tmp+rename dance is needed;
/// object age is measured in logical clock ticks (the VFS mutation
/// counter), the same clock the reindexer uses.
pub struct VfsStore {
    vfs: Arc<Vfs>,
}

impl VfsStore {
    /// A store over this namespace's reserved metadata area.
    pub fn new(vfs: Arc<Vfs>) -> VfsStore {
        VfsStore { vfs }
    }

    fn path(&self, rest: &str) -> StoreResult<VPath> {
        VPath::parse(&format!("/{META_DIR}/store/{rest}"))
            .map_err(|e| StoreError::Io(format!("bad store path {rest}: {e}")))
    }

    fn object_path(&self, hash: ContentHash) -> StoreResult<VPath> {
        self.path(&format!("objects/{}/{}", hash.prefix(), hash.remainder()))
    }

    fn write(&self, path: &VPath, bytes: &[u8]) -> StoreResult<()> {
        if let Some(parent) = path.parent() {
            self.vfs
                .mkdir_p(&parent)
                .map_err(|e| StoreError::Io(e.to_string()))?;
        }
        self.vfs
            .save(path, bytes)
            .map(|_| ())
            .map_err(|e| StoreError::Io(e.to_string()))
    }
}

impl ContentStore for VfsStore {
    fn put(&self, bytes: &[u8]) -> StoreResult<ContentHash> {
        let hash = ContentHash::of(bytes);
        let path = self.object_path(hash)?;
        // Heal a mismatched (torn) object rather than trusting presence.
        if self.vfs.read_file(&path).ok().as_deref() != Some(bytes) {
            self.write(&path, bytes)?;
        }
        Ok(hash)
    }

    fn put_raw(&self, hash: ContentHash, bytes: &[u8]) -> StoreResult<()> {
        let path = self.object_path(hash)?;
        self.write(&path, bytes)
    }

    fn get(&self, hash: ContentHash) -> StoreResult<Vec<u8>> {
        let path = self.object_path(hash)?;
        let bytes = self
            .vfs
            .read_file(&path)
            .map_err(|_| StoreError::NotFound(hash))?;
        if ContentHash::of(&bytes) != hash {
            return Err(StoreError::Corrupt(format!(
                "object {hash} fails content verification"
            )));
        }
        Ok(bytes.to_vec())
    }

    fn contains(&self, hash: ContentHash) -> StoreResult<bool> {
        Ok(self.vfs.exists(&self.object_path(hash)?))
    }

    fn remove(&self, hash: ContentHash) -> StoreResult<bool> {
        let path = self.object_path(hash)?;
        match self.vfs.unlink(&path) {
            Ok(()) => Ok(true),
            Err(hac_vfs::VfsError::NotFound(_)) => Ok(false),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn objects(&self) -> StoreResult<Vec<ObjectInfo>> {
        let mut out = Vec::new();
        let objects_dir = self.path("objects")?;
        let Ok(shards) = self.vfs.readdir(&objects_dir) else {
            return Ok(out);
        };
        let now = self.vfs.now().0;
        for shard in shards {
            if shard.kind != NodeKind::Dir {
                continue;
            }
            let shard_path = objects_dir
                .join(&shard.name)
                .map_err(|e| StoreError::Io(e.to_string()))?;
            let Ok(entries) = self.vfs.readdir(&shard_path) else {
                continue;
            };
            for entry in entries {
                let Some(hash) = ContentHash::parse(&format!("{}{}", shard.name, entry.name))
                else {
                    continue;
                };
                let Ok(path) = shard_path.join(&entry.name) else {
                    continue;
                };
                let Ok(attr) = self.vfs.lstat(&path) else {
                    continue;
                };
                out.push(ObjectInfo {
                    hash,
                    bytes: attr.size,
                    age: now.saturating_sub(attr.mtime.0),
                });
            }
        }
        Ok(out)
    }

    fn set_ref(&self, name: &str, hash: ContentHash) -> StoreResult<()> {
        let path = self.path(&format!("refs/{name}"))?;
        self.write(&path, hash.to_hex().as_bytes())
    }

    fn get_ref(&self, name: &str) -> StoreResult<Option<ContentHash>> {
        let path = self.path(&format!("refs/{name}"))?;
        if !self.vfs.exists(&path) {
            return Ok(None);
        }
        let bytes = self
            .vfs
            .read_file(&path)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        let text = String::from_utf8_lossy(&bytes);
        ContentHash::parse(text.trim())
            .map(Some)
            .ok_or_else(|| StoreError::Corrupt(format!("ref {name} is not a hash")))
    }

    fn wal_load(&self) -> StoreResult<Vec<u8>> {
        let path = self.path("wal")?;
        if !self.vfs.exists(&path) {
            return Ok(Vec::new());
        }
        self.vfs
            .read_file(&path)
            .map(|b| b.to_vec())
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    fn wal_append(&self, bytes: &[u8]) -> StoreResult<()> {
        let path = self.path("wal")?;
        if !self.vfs.exists(&path) {
            return self.write(&path, bytes);
        }
        self.vfs
            .append(&path, bytes)
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    fn wal_reset(&self) -> StoreResult<()> {
        let path = self.path("wal")?;
        match self.vfs.unlink(&path) {
            Ok(()) | Err(hac_vfs::VfsError::NotFound(_)) => Ok(()),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }
}

// ---------------------------------------------------------------------
// IndexStore: the commit / recovery / maintenance protocol
// ---------------------------------------------------------------------

/// A live snapshot of the store for `hacsh store status` and tests.
#[derive(Debug, Clone, Default)]
pub struct StoreStatus {
    /// Manifest revision.
    pub manifest_seq: u64,
    /// Whether a base snapshot object exists.
    pub base_present: bool,
    /// Live delta segments.
    pub segments_live: u64,
    /// Documents covered by live segments (adds + removes).
    pub segment_docs: u64,
    /// Bytes across live segment objects.
    pub segment_bytes: u64,
    /// Current WAL length in bytes.
    pub wal_bytes: u64,
    /// All objects in the backend (live + garbage).
    pub objects: u64,
    /// Total bytes across all objects.
    pub object_bytes: u64,
}

/// What a recovery pass did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Segments replayed from the manifest.
    pub segments_replayed: u64,
    /// Interrupted commits completed from the WAL tail.
    pub wal_commits_completed: u64,
    /// Whether a torn WAL tail was dropped.
    pub wal_torn: bool,
    /// Whether the index came from a base snapshot (vs segments only).
    pub from_base: bool,
    /// Documents live in the recovered index.
    pub docs: u64,
    /// Wall-clock microseconds the recovery took.
    pub duration_us: u64,
}

/// A recovered index plus the doc→path map reconstructed from the trail
/// (checkpoint sidecar + per-segment paths). When `paths` covers every
/// live document, installation can skip the O(namespace) walk that would
/// otherwise dominate a warm start.
#[derive(Debug)]
pub struct RecoveredIndex {
    /// The rebuilt index.
    pub index: Index,
    /// Doc→path entries reconstructed from the durable trail.
    pub paths: Vec<(u64, String)>,
    /// What the pass did.
    pub report: RecoveryReport,
}

/// What a maintenance (merge) pass did.
#[derive(Debug, Clone, Default)]
pub struct MaintainReport {
    /// Segments folded into one.
    pub merged: u64,
    /// Live segments after the pass.
    pub segments_live: u64,
}

/// What a GC sweep removed.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Unreferenced objects deleted.
    pub removed: u64,
    /// Bytes reclaimed.
    pub bytes: u64,
}

struct StoreInner {
    manifest: Manifest,
    /// Hash of the manifest object `current` points at (kept live so GC
    /// never sweeps it).
    manifest_hash: Option<ContentHash>,
    /// Next commit sequence number; never reused, survives checkpoints.
    next_seq: u64,
}

/// The durable index store: commit protocol + recovery + maintenance
/// over any [`ContentStore`] backend. Internally synchronized; all
/// multi-step mutations serialize on one mutex, so a GC sweep can never
/// race a half-finished commit into sweeping its objects.
pub struct IndexStore {
    backend: Arc<dyn ContentStore>,
    merge_threshold: usize,
    inner: Mutex<StoreInner>,
}

impl IndexStore {
    /// Open a store over `backend`, loading the current manifest if one
    /// was committed. A corrupt manifest is an error — the caller decides
    /// whether to fall back to a cold rebuild.
    pub fn open(backend: Arc<dyn ContentStore>, merge_threshold: usize) -> StoreResult<IndexStore> {
        let (manifest, manifest_hash) = match backend.get_ref("current")? {
            Some(h) => (Manifest::decode(&backend.get(h)?)?, Some(h)),
            None => (Manifest::default(), None),
        };
        let next_seq = manifest.last_segment_seq() + 1;
        Ok(IndexStore {
            backend,
            merge_threshold: merge_threshold.max(1),
            inner: Mutex::new(StoreInner {
                manifest,
                manifest_hash,
                next_seq,
            }),
        })
    }

    /// Open over `backend` ignoring any existing manifest — the fallback
    /// when [`IndexStore::open`] found a corrupt one. The first commit
    /// starts a new lineage; the unreadable objects become garbage for
    /// [`IndexStore::gc`].
    pub fn open_fresh(backend: Arc<dyn ContentStore>, merge_threshold: usize) -> IndexStore {
        IndexStore {
            backend,
            merge_threshold: merge_threshold.max(1),
            inner: Mutex::new(StoreInner {
                manifest: Manifest::default(),
                manifest_hash: None,
                next_seq: 1,
            }),
        }
    }

    /// The backend this store persists through.
    pub fn backend(&self) -> Arc<dyn ContentStore> {
        Arc::clone(&self.backend)
    }

    /// The sequence number the next committed segment will carry.
    pub fn next_seq(&self) -> u64 {
        lock(&self.inner).next_seq
    }

    /// The current manifest, encoded (HACM bytes) — the export root for
    /// segment-shipped replication. Always a committed state: the inner
    /// mutex means no half-finished commit can be observed.
    pub fn export_manifest(&self) -> Vec<u8> {
        lock(&self.inner).manifest.encode()
    }

    /// One live store object by content hash — segments, the base
    /// snapshot, or the path sidecar. Replicas pull exactly the objects
    /// the manifest names; the backend verifies bytes against the hash on
    /// read, so a corrupt object fails here rather than on the replica.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown hashes, plus backend I/O.
    pub fn export_object(&self, hash: ContentHash) -> StoreResult<Vec<u8>> {
        self.backend.get(hash)
    }

    fn swap_manifest(&self, inner: &mut StoreInner, mut manifest: Manifest) -> StoreResult<()> {
        // Stamp the revision with wall-clock commit time (µs since the
        // Unix epoch): the advisory half of replica lag telemetry.
        manifest.committed_at_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let hash = self.backend.put(&manifest.encode())?;
        self.backend.set_ref("current", hash)?;
        inner.manifest = manifest;
        inner.manifest_hash = Some(hash);
        hac_obs::gauge("hac_store_segments_live", &[]).set(inner.manifest.segments.len() as i64);
        Ok(())
    }

    /// Commit one sealed segment: the durable twin of an `ssync` apply
    /// phase. See the module docs for the step-by-step crash argument.
    pub fn commit_segment(&self, segment: &Segment) -> StoreResult<()> {
        let start = Instant::now();
        let _span = hac_obs::current_trace().map(|_| hac_obs::span!("store_commit"));
        let bytes = encode_segment(segment);
        let mut inner = lock(&self.inner);
        self.backend.wal_append(&encode_record(&bytes))?;
        hac_obs::counter("hac_store_wal_bytes_total", &[]).add(bytes.len() as u64 + 13);
        let hash = self.backend.put(&bytes)?;
        let mut manifest = inner.manifest.clone();
        manifest.seq += 1;
        manifest.segments.push(SegmentEntry {
            hash,
            seq: segment.seq,
            docs: segment.doc_count(),
            bytes: bytes.len() as u64,
            generation: segment.generation,
        });
        self.swap_manifest(&mut inner, manifest)?;
        self.backend.wal_reset()?;
        inner.next_seq = inner.next_seq.max(segment.seq + 1);
        hac_obs::counter("hac_store_segments_written_total", &[]).inc();
        hac_obs::histogram("hac_store_commit_us", &[]).record(start.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Rebuild the index from durable state: base snapshot, then every
    /// manifest segment in order, then any complete WAL records whose
    /// commit was interrupted (those commits are *completed* — segment
    /// object re-put, manifest extended, ref swapped). Returns `None`
    /// when the store has never been written.
    pub fn recover(&self, granularity: Granularity) -> StoreResult<Option<RecoveredIndex>> {
        let start = Instant::now();
        let _span = hac_obs::current_trace().map(|_| hac_obs::span!("store_recover"));
        let mut inner = lock(&self.inner);
        let mut report = RecoveryReport::default();

        // Re-read the ref: this handle may have been opened before the
        // crash being recovered from.
        let (mut manifest, manifest_hash) = match self.backend.get_ref("current")? {
            Some(h) => (Manifest::decode(&self.backend.get(h)?)?, Some(h)),
            None => (Manifest::default(), None),
        };
        inner.manifest_hash = manifest_hash;

        let wal = self.backend.wal_load()?;
        if manifest == Manifest::default() && wal.is_empty() {
            inner.manifest = manifest;
            return Ok(None);
        }

        let mut index = match manifest.base {
            Some(h) => match decode_index_snapshot(&self.backend.get(h)?)? {
                SnapshotDecode::Current(i) => {
                    report.from_base = true;
                    *i
                }
                SnapshotDecode::VersionSkew(v) => {
                    return Err(StoreError::Corrupt(format!(
                        "base snapshot has unsupported version {v}"
                    )))
                }
            },
            None => Index::new(granularity),
        };
        let mut paths: std::collections::BTreeMap<u64, String> = match manifest.paths {
            Some(h) => decode_doc_paths(&self.backend.get(h)?)?
                .into_iter()
                .collect(),
            None => Default::default(),
        };
        let track_paths = |segment: &Segment, paths: &mut std::collections::BTreeMap<_, _>| {
            for add in &segment.adds {
                if !add.path.is_empty() {
                    paths.insert(add.doc, add.path.clone());
                }
            }
            for doc in &segment.removes {
                paths.remove(doc);
            }
        };
        for entry in &manifest.segments {
            let segment = decode_segment(&self.backend.get(entry.hash)?)?;
            index.replay_segment(&segment);
            track_paths(&segment, &mut paths);
            report.segments_replayed += 1;
        }

        // WAL tail: complete interrupted commits.
        let scan = decode_records(&wal);
        report.wal_torn = scan.torn;
        let mut changed = false;
        for record in &scan.records {
            let segment = decode_segment(record)?;
            if segment.seq <= manifest.last_segment_seq() {
                continue; // crash landed after the ref swap: already in
            }
            index.replay_segment(&segment);
            track_paths(&segment, &mut paths);
            let hash = self.backend.put(record)?;
            manifest.seq += 1;
            manifest.segments.push(SegmentEntry {
                hash,
                seq: segment.seq,
                docs: segment.doc_count(),
                bytes: record.len() as u64,
                generation: segment.generation,
            });
            report.wal_commits_completed += 1;
            changed = true;
        }
        if changed {
            self.swap_manifest(&mut inner, manifest)?;
        } else {
            hac_obs::gauge("hac_store_segments_live", &[]).set(manifest.segments.len() as i64);
            inner.manifest = manifest;
        }
        if !wal.is_empty() {
            self.backend.wal_reset()?;
        }
        inner.next_seq = inner.next_seq.max(inner.manifest.last_segment_seq() + 1);

        report.docs = index.doc_count();
        report.duration_us = start.elapsed().as_micros() as u64;
        hac_obs::counter("hac_store_recoveries_total", &[]).inc();
        hac_obs::histogram("hac_store_recovery_us", &[]).record(report.duration_us);
        Ok(Some(RecoveredIndex {
            index,
            paths: paths.into_iter().collect(),
            report,
        }))
    }

    /// Fold the whole in-memory index into a fresh base snapshot and an
    /// empty segment run. Everything previously live becomes garbage.
    pub fn checkpoint(&self, index: &Index, paths: &[(u64, String)]) -> StoreResult<()> {
        let _span = hac_obs::current_trace().map(|_| hac_obs::span!("store_checkpoint"));
        let bytes = encode_index_snapshot(index);
        let path_bytes = encode_doc_paths(paths);
        let mut inner = lock(&self.inner);
        let base = self.backend.put(&bytes)?;
        let path_sidecar = self.backend.put(&path_bytes)?;
        let manifest = Manifest {
            seq: inner.manifest.seq + 1,
            committed_at_micros: 0, // stamped by swap_manifest
            base: Some(base),
            paths: Some(path_sidecar),
            segments: Vec::new(),
        };
        self.swap_manifest(&mut inner, manifest)?;
        // Any WAL content describes a commit already reflected in the
        // in-memory index this snapshot was taken from.
        self.backend.wal_reset()?;
        hac_obs::counter("hac_store_checkpoints_total", &[]).inc();
        Ok(())
    }

    /// One bounded maintenance step: when more than `merge_threshold`
    /// segments are live, fold the oldest run into a single segment
    /// (adjacent by construction, so replay order is preserved), bringing
    /// the count back to the threshold. Returns `None` when under
    /// threshold. Size-tiering comes from the caller
    /// ([`crate::HacFs::store_maintain`]): once the delta run outweighs
    /// the base it checkpoints instead of re-merging large runs forever.
    pub fn maintain(&self) -> StoreResult<Option<MaintainReport>> {
        let mut inner = lock(&self.inner);
        let n = inner.manifest.segments.len();
        if n <= self.merge_threshold {
            return Ok(None);
        }
        let _span = hac_obs::current_trace().map(|_| hac_obs::span!("store_merge"));
        let k = n - self.merge_threshold + 1;
        let mut run = Vec::with_capacity(k);
        for entry in &inner.manifest.segments[..k] {
            run.push(decode_segment(&self.backend.get(entry.hash)?)?);
        }
        let merged = Segment::merge(&run);
        let bytes = encode_segment(&merged);
        let hash = self.backend.put(&bytes)?;
        let mut manifest = inner.manifest.clone();
        manifest.seq += 1;
        let entry = SegmentEntry {
            hash,
            seq: merged.seq,
            docs: merged.doc_count(),
            bytes: bytes.len() as u64,
            generation: merged.generation,
        };
        manifest.segments.splice(..k, [entry]);
        self.swap_manifest(&mut inner, manifest)?;
        hac_obs::counter("hac_store_segments_merged_total", &[]).add(k as u64);
        Ok(Some(MaintainReport {
            merged: k as u64,
            segments_live: inner.manifest.segments.len() as u64,
        }))
    }

    /// Sweep unreferenced objects older than `grace` (backend-native age
    /// units: seconds on a real file system, logical ticks in the VFS).
    /// Holding the store mutex, so no commit can be mid-flight.
    pub fn gc(&self, grace: u64) -> StoreResult<GcReport> {
        let inner = lock(&self.inner);
        let mut live: HashSet<ContentHash> = HashSet::new();
        live.extend(inner.manifest_hash);
        live.extend(inner.manifest.base);
        live.extend(inner.manifest.paths);
        live.extend(inner.manifest.segments.iter().map(|s| s.hash));
        let mut report = GcReport::default();
        for object in self.backend.objects()? {
            if live.contains(&object.hash) || object.age < grace {
                continue;
            }
            if self.backend.remove(object.hash)? {
                report.removed += 1;
                report.bytes += object.bytes;
            }
        }
        hac_obs::counter("hac_store_gc_removed_total", &[]).add(report.removed);
        Ok(report)
    }

    /// Live status for `hacsh store status`, benches, and tests.
    pub fn status(&self) -> StoreResult<StoreStatus> {
        let inner = lock(&self.inner);
        let objects = self.backend.objects()?;
        let wal = self.backend.wal_load()?;
        Ok(StoreStatus {
            manifest_seq: inner.manifest.seq,
            base_present: inner.manifest.base.is_some(),
            segments_live: inner.manifest.segments.len() as u64,
            segment_docs: inner.manifest.segment_docs(),
            segment_bytes: inner.manifest.segments.iter().map(|s| s.bytes).sum(),
            wal_bytes: wal.len() as u64,
            objects: objects.len() as u64,
            object_bytes: objects.iter().map(|o| o.bytes).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_index::segment::SegmentDoc;
    use hac_index::{tokenize_text, DocId};
    use hac_store::MemStore;

    fn seg(seq: u64, generation: u64, docs: &[(u64, u64, &str)]) -> Segment {
        Segment {
            seq,
            generation,
            adds: docs
                .iter()
                .map(|(doc, version, text)| SegmentDoc {
                    doc: *doc,
                    version: *version,
                    path: format!("/d{doc}.txt"),
                    tokens: tokenize_text(text.as_bytes()),
                })
                .collect(),
            removes: Vec::new(),
        }
    }

    #[test]
    fn segment_envelope_roundtrip_and_versioning() {
        let s = seg(3, 9, &[(1, 1, "alpha beta"), (2, 1, "gamma")]);
        let bytes = encode_segment(&s);
        assert_eq!(&bytes[..4], &SEGMENT_MAGIC);
        assert_eq!(decode_segment(&bytes).unwrap(), s);
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(decode_segment(&wrong_version).is_err());
        assert!(decode_segment(b"HAC").is_err());
        // The other blob peers ship each other, a metric-registry
        // snapshot, must never pass for a segment.
        assert_ne!(hac_obs::snapshot().encode()[..4], SEGMENT_MAGIC);
    }

    #[test]
    fn snapshot_envelope_decodes_current_refuses_headerless_and_reports_skew() {
        let mut index = Index::new(Granularity::Exact);
        index.add_doc(DocId(1), 1, &tokenize_text(b"alpha"));

        // Current envelope.
        let bytes = encode_index_snapshot(&index);
        match decode_index_snapshot(&bytes).unwrap() {
            SnapshotDecode::Current(i) => assert_eq!(i.doc_count(), 1),
            _ => panic!("expected current decode"),
        }

        // Headerless bytes are corrupt: there is no migration path.
        assert!(decode_index_snapshot(&hac_codec::encode_value(&index)).is_err());

        // A future version degrades to a counted skew, not an error.
        let mut future = bytes.clone();
        future[4] = SNAPSHOT_VERSION + 1;
        match decode_index_snapshot(&future).unwrap() {
            SnapshotDecode::VersionSkew(v) => assert_eq!(v, SNAPSHOT_VERSION + 1),
            _ => panic!("expected version skew"),
        }
    }

    #[test]
    fn commit_recover_roundtrip() {
        let backend: Arc<dyn ContentStore> = Arc::new(MemStore::new());
        let store = IndexStore::open(Arc::clone(&backend), 8).unwrap();
        store
            .commit_segment(&seg(1, 2, &[(1, 1, "alpha beta"), (2, 1, "beta gamma")]))
            .unwrap();
        store
            .commit_segment(&seg(2, 4, &[(3, 1, "delta")]))
            .unwrap();
        assert_eq!(store.next_seq(), 3);

        let reopened = IndexStore::open(backend, 8).unwrap();
        let rec = reopened.recover(Granularity::Exact).unwrap().unwrap();
        assert_eq!(rec.report.segments_replayed, 2);
        assert_eq!(rec.report.wal_commits_completed, 0);
        assert_eq!(rec.index.doc_count(), 3);
        assert_eq!(rec.index.generation(), 4);
        // Every doc's path rides in the trail: no namespace walk needed.
        assert_eq!(
            rec.paths,
            vec![
                (1, "/d1.txt".into()),
                (2, "/d2.txt".into()),
                (3, "/d3.txt".into())
            ]
        );
        let status = reopened.status().unwrap();
        assert_eq!(status.segments_live, 2);
        assert!(!status.base_present);
        assert_eq!(status.wal_bytes, 0);
    }

    #[test]
    fn empty_store_recovers_to_none() {
        let store = IndexStore::open(Arc::new(MemStore::new()), 8).unwrap();
        assert!(store.recover(Granularity::Exact).unwrap().is_none());
    }

    #[test]
    fn maintain_merges_oldest_run_back_to_threshold() {
        let store = IndexStore::open(Arc::new(MemStore::new()), 3).unwrap();
        for i in 1..=6u64 {
            store
                .commit_segment(&seg(i, i, &[(i, 1, "doc text here")]))
                .unwrap();
        }
        assert_eq!(store.status().unwrap().segments_live, 6);
        let report = store.maintain().unwrap().unwrap();
        assert_eq!(report.merged, 4);
        assert_eq!(report.segments_live, 3);
        // Recovery over the merged run yields the same docs and paths.
        let rec = store.recover(Granularity::Exact).unwrap().unwrap();
        assert_eq!(rec.index.doc_count(), 6);
        assert_eq!(rec.index.generation(), 6);
        assert_eq!(rec.paths.len(), 6);
        // Under threshold now: no-op.
        assert!(store.maintain().unwrap().is_none());
    }

    #[test]
    fn checkpoint_folds_segments_into_base_and_gc_sweeps_garbage() {
        let backend: Arc<dyn ContentStore> = Arc::new(MemStore::new());
        let store = IndexStore::open(Arc::clone(&backend), 8).unwrap();
        store
            .commit_segment(&seg(1, 1, &[(1, 1, "alpha")]))
            .unwrap();
        store.commit_segment(&seg(2, 2, &[(2, 1, "beta")])).unwrap();

        let mut index = Index::new(Granularity::Exact);
        index.add_doc(DocId(1), 1, &tokenize_text(b"alpha"));
        index.add_doc(DocId(2), 1, &tokenize_text(b"beta"));
        store
            .checkpoint(&index, &[(1, "/d1.txt".into()), (2, "/d2.txt".into())])
            .unwrap();

        let status = store.status().unwrap();
        assert!(status.base_present);
        assert_eq!(status.segments_live, 0);
        // Superseded segments + old manifests are now garbage.
        let garbage_before = status.objects;
        let report = store.gc(0).unwrap();
        assert!(report.removed > 0);
        let after = store.status().unwrap();
        assert_eq!(after.objects, garbage_before - report.removed);
        // Live data survives the sweep: recovery still works, and the
        // checkpoint's path sidecar was held live through the GC.
        let rec = store.recover(Granularity::Exact).unwrap().unwrap();
        assert!(rec.report.from_base);
        assert_eq!(rec.index.doc_count(), 2);
        assert_eq!(rec.paths.len(), 2);
        // Nothing left to sweep.
        assert_eq!(store.gc(0).unwrap().removed, 0);
    }

    #[test]
    fn gc_respects_grace_period() {
        let backend = Arc::new(MemStore::new());
        let store = IndexStore::open(Arc::clone(&backend) as Arc<dyn ContentStore>, 8).unwrap();
        backend.put(b"orphan object").unwrap();
        // Age the orphan by a few writes, then a very fresh orphan.
        store
            .commit_segment(&seg(1, 1, &[(1, 1, "alpha")]))
            .unwrap();
        backend.put(b"fresh orphan").unwrap();
        let report = store.gc(2).unwrap();
        assert_eq!(report.removed, 1, "only the aged orphan goes");
        assert!(backend.contains(ContentHash::of(b"fresh orphan")).unwrap());
        assert!(!backend.contains(ContentHash::of(b"orphan object")).unwrap());
    }

    #[test]
    fn wal_tail_completes_interrupted_commit() {
        use hac_store::{CrashStyle, FaultStore};
        let durable: Arc<dyn ContentStore> = Arc::new(MemStore::new());
        let store = IndexStore::open(Arc::clone(&durable), 8).unwrap();
        store
            .commit_segment(&seg(1, 1, &[(1, 1, "alpha")]))
            .unwrap();

        // Crash the second commit right after the WAL append (budget: the
        // wal_append succeeds, the object put dies).
        let faulty: Arc<dyn ContentStore> =
            Arc::new(FaultStore::new(Arc::clone(&durable), 1, CrashStyle::Fail));
        let crashing = IndexStore::open(Arc::clone(&faulty), 8).unwrap();
        assert!(crashing
            .commit_segment(&seg(2, 2, &[(2, 1, "beta")]))
            .is_err());

        // "Reboot": recover over the durable medium.
        let recovered_store = IndexStore::open(durable, 8).unwrap();
        let rec = recovered_store
            .recover(Granularity::Exact)
            .unwrap()
            .unwrap();
        assert_eq!(rec.report.wal_commits_completed, 1);
        assert_eq!(rec.index.doc_count(), 2);
        assert_eq!(rec.index.generation(), 2);
        // The completed commit is now manifest-visible and the WAL clear.
        let status = recovered_store.status().unwrap();
        assert_eq!(status.segments_live, 2);
        assert_eq!(status.wal_bytes, 0);
    }
}
