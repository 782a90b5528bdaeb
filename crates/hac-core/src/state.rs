//! The HAC consistency engine.
//!
//! [`HacState`] holds everything the paper's §4 charges to HAC — the CBA
//! index, per-semantic-directory metadata, the global UID map, the
//! dependency graph, and semantic mounts — and implements the two
//! consistency algorithms:
//!
//! * **scope consistency** (§2.3/§2.5): after any change to the scope a
//!   directory provides, re-evaluate every transitive dependent in
//!   topological order, recomputing only *transient* links and honouring
//!   permanent/prohibited sets;
//! * **data consistency** (§2.4): content changes are reconciled lazily by
//!   the plan → tokenize → apply pipeline ([`HacState::plan_sync`],
//!   [`tokenize_plan`], [`HacState::apply_sync`]) that `ssync` and the
//!   periodic daemon run, never instantly.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hac_index::engine::DocProvider;
use hac_index::{Bitmap, DocDelta, DocId, Granularity, Index, Token, TransducerRegistry};
use hac_query::{DirRef, DirUid, Query, QueryExpr};
use hac_vfs::{FileId, NodeKind, VPath, Vfs, VfsError};

use crate::depgraph::{DepGraph, EdgeKind};
use crate::dirty::{DirtySet, DocPathMap, QueryIndex};
use crate::error::{HacError, HacResult};
use crate::remote::{NamespaceId, RemoteQuerySystem};
use crate::scope::Scope;
use crate::semdir::{LinkKind, LinkState, LinkTarget, SemDir};
use crate::uidmap::UidMap;

/// Reserved directory under which remote-link targets are encoded. The
/// paths are deliberately dangling in the local namespace; HAC decodes and
/// fetches them through the owning mount.
pub const REMOTE_LINK_PREFIX: &str = ".hac-remote";

/// Reserved directory holding HAC's persisted per-directory metadata. The
/// paper's §4: "when HAC creates a new directory, it also creates and
/// initializes (to 'empty') the data structures that store its query, its
/// query-result, and its set of permanent and prohibited symbolic links …
/// All of these are stored in the disk and require extra I/O operations" —
/// the extra I/O the Andrew benchmark's Makedir phase pays for.
pub const META_DIR: &str = ".hac-meta";

/// Whether a path lies inside one of HAC's reserved areas (never indexed,
/// never part of any scope).
pub fn is_reserved(path: &VPath) -> bool {
    matches!(
        path.components().next(),
        Some(META_DIR) | Some(REMOTE_LINK_PREFIX)
    )
}

/// On-disk form of one directory's HAC metadata.
#[derive(Debug, Clone)]
pub struct DirRecordDisk {
    /// The directory's UID.
    pub uid: u64,
    /// Query text with directory references rendered as current paths
    /// (re-bound at recovery time), or `None` for plain directories.
    pub query: Option<String>,
    /// Link name → (kind tag, encoded target). Kind tag: 0 transient,
    /// 1 permanent.
    pub links: Vec<(String, u8, String)>,
    /// Encoded prohibited targets.
    pub prohibited: Vec<String>,
}

hac_codec::impl_codec!(DirRecordDisk {
    uid,
    query,
    links,
    prohibited
});

/// Encodes a [`LinkTarget`] as a stable string.
pub fn encode_target(t: &LinkTarget) -> String {
    match t {
        LinkTarget::Local(fid) => format!("local:{}", fid.0),
        LinkTarget::Remote(ns, id) => format!("remote:{}:{}", ns.0, id),
    }
}

/// Decodes a string produced by [`encode_target`].
pub fn decode_target(s: &str) -> Option<LinkTarget> {
    if let Some(rest) = s.strip_prefix("local:") {
        return rest.parse().ok().map(|n| LinkTarget::Local(FileId(n)));
    }
    if let Some(rest) = s.strip_prefix("remote:") {
        let (ns, id) = rest.split_once(':')?;
        return Some(LinkTarget::Remote(
            NamespaceId(ns.to_string()),
            id.to_string(),
        ));
    }
    None
}

/// Tuning knobs of a [`crate::HacFs`].
#[derive(Debug, Clone)]
pub struct HacConfig {
    /// Index granularity for the CBA mechanism.
    pub granularity: Granularity,
    /// Index file content eagerly on create/write/unlink instead of waiting
    /// for the next reindex. The paper's default is lazy (§2.4); eager mode
    /// is the "update certain semantic directories as soon as new mail
    /// comes in" option.
    pub eager_content_index: bool,
    /// Worker threads for the tokenize phase of a reindex pass. `0` (the
    /// default) sizes to the machine's available parallelism.
    pub reindex_threads: usize,
    /// Maximum live segments in the durable index store before the
    /// daemon's maintenance tick merges a run (bounds recovery replay
    /// length and read amplification). Ignored when no store is attached.
    pub store_merge_threshold: usize,
    /// Declarative service-level objectives, installed into the global
    /// SLO engine when the reindex daemon or a `HacServer` starts. Each is
    /// the parsed form of one spec line like
    /// `query-latency: hac_query_eval_duration_us p99 < 5ms over 60s`.
    pub slos: Vec<hac_obs::SloSpec>,
    /// Time-series sampling interval (milliseconds), installed by the
    /// reindex daemon: `hac_obs::sample_if_due` samples at most this
    /// often, whichever tick pulls it (server loop, daemon, scrape, `top`).
    pub sample_interval_ms: u64,
}

impl Default for HacConfig {
    fn default() -> Self {
        HacConfig {
            granularity: Granularity::default(),
            eager_content_index: false,
            reindex_threads: 0,
            store_merge_threshold: 8,
            slos: hac_obs::SloSpec::default_set(),
            sample_interval_ms: hac_obs::DEFAULT_SAMPLE_INTERVAL_MS,
        }
    }
}

impl HacConfig {
    /// The tokenize-phase thread count this configuration resolves to.
    pub fn effective_reindex_threads(&self) -> usize {
        if self.reindex_threads > 0 {
            self.reindex_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Counters summarizing one reindex pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Files newly indexed.
    pub added: u64,
    /// Files re-indexed because their version changed.
    pub updated: u64,
    /// Index entries dropped because the file disappeared.
    pub removed: u64,
    /// Semantic directories re-evaluated.
    pub dirs_synced: u64,
    /// Broken permanent/transient symlinks repaired (target renamed).
    pub links_repaired: u64,
}

/// One file a [`SyncPlan`] schedules for (re)tokenization.
#[derive(Debug, Clone)]
pub struct PlannedDoc {
    /// Path as of the planning walk.
    pub path: VPath,
    /// The file's inode.
    pub id: FileId,
}

/// The snapshot phase of a reindex pass: everything `ssync` must do,
/// computed under a short read lock so tokenization can run lock-free.
#[derive(Debug, Clone)]
pub struct SyncPlan {
    /// The subtree being synchronized.
    pub root: VPath,
    /// Files whose indexed version differs from the walk (new or changed).
    pub to_index: Vec<PlannedDoc>,
    /// Unchanged docs whose recorded path moved (rename observed by walk).
    pub refresh_paths: Vec<(DocId, VPath)>,
    /// Docs recorded under the root but absent from the walk; verified
    /// against the live namespace before removal.
    pub stale_candidates: Vec<DocId>,
}

impl SyncPlan {
    /// True when the pass has nothing to tokenize, refresh, or remove.
    pub fn is_empty(&self) -> bool {
        self.to_index.is_empty()
            && self.refresh_paths.is_empty()
            && self.stale_candidates.is_empty()
    }
}

/// The changes a reindex pass actually landed in the index: the deltas
/// that survived version arbitration plus the removals of docs that were
/// indexed. When a durable store is attached, this is exactly the payload
/// sealed into one segment — nothing more, nothing less, so replaying the
/// segment reproduces the pass.
#[derive(Debug, Clone, Default)]
pub struct AppliedDelta {
    /// Deltas applied (new or newer-version documents).
    pub adds: Vec<DocDelta>,
    /// Indexed documents removed.
    pub removes: Vec<DocId>,
}

impl AppliedDelta {
    /// True when the pass changed nothing.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }
}

/// One tokenized file, ready for the apply phase.
#[derive(Debug, Clone)]
pub struct TokenizedDoc {
    /// Path the content was read from.
    pub path: VPath,
    /// The posting delta.
    pub delta: DocDelta,
}

/// The middle phase of the reindex pipeline: reads and tokenizes every
/// planned file *without holding the state lock* (the [`Vfs`] is internally
/// synchronized), fanning out over `threads` scoped workers. Files that
/// vanished or changed identity since the plan was taken are skipped — the
/// next pass reconciles them, per the paper's lazy-consistency contract.
///
/// Results come back in plan order regardless of which worker produced
/// them, so block-granularity doc→block assignment stays deterministic.
pub fn tokenize_plan(
    vfs: &Vfs,
    registry: &TransducerRegistry,
    plan: &SyncPlan,
    threads: usize,
) -> Vec<TokenizedDoc> {
    let n = plan.to_index.len();
    if n == 0 {
        return Vec::new();
    }
    let tokenize_one = |planned: &PlannedDoc| -> Option<TokenizedDoc> {
        let attr = vfs.lstat(&planned.path).ok()?;
        if attr.kind != NodeKind::File || attr.id != planned.id {
            return None;
        }
        let content = vfs.read_file(&planned.path).ok()?;
        let name = planned.path.file_name().unwrap_or("");
        let tokens = extract_tokens(registry, name, &content);
        Some(TokenizedDoc {
            path: planned.path.clone(),
            delta: DocDelta {
                doc: DocId(planned.id.0),
                version: attr.version,
                tokens,
            },
        })
    };
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return plan.to_index.iter().filter_map(tokenize_one).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<TokenizedDoc>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(td) = tokenize_one(&plan.to_index[i]) {
                            local.push((i, td));
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, td) in h.join().expect("tokenize worker panicked") {
                slots[i] = Some(td);
            }
        }
    });
    slots.into_iter().flatten().collect()
}

/// A cached raw query result: [`HacState::resync_dir`] reuses it when the
/// index generation, the universe fingerprint, and the query text all still
/// match. Only the *raw* `eval_local` output is cached — prohibited /
/// permanent / physically-present filtering runs on every resync, because
/// those sets belong to the user and change without touching the index.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Source text of the query that produced the result.
    pub query_src: String,
    /// Index generation the result was computed against.
    pub generation: u64,
    /// Fingerprint of the local universe bitmap.
    pub scope_fp: u64,
    /// The raw local result.
    pub result: Bitmap,
}

/// Token provider that re-tokenizes live file content through the
/// transducer registry — the moral equivalent of Glimpse grepping the
/// actual files during candidate verification.
pub struct VfsProvider<'a> {
    /// The namespace to read from.
    pub vfs: &'a Vfs,
    /// Transducers for extraction.
    pub registry: &'a TransducerRegistry,
}

impl DocProvider for VfsProvider<'_> {
    fn tokens(&self, doc: DocId) -> Option<Vec<Token>> {
        let path = self.vfs.path_of(FileId(doc.0)).ok()?;
        let content = self.vfs.read_file(&path).ok()?;
        let name = path.file_name().unwrap_or("");
        Some(extract_tokens(self.registry, name, &content))
    }
}

/// Runs the transducer for a file and appends the implicit metadata
/// attributes HAC contributes for every file: `name:<word>` for each word
/// of the file name and `ext:<suffix>` for its extension. These make
/// queries like `ext:eml` or `name:readme` work without content matches —
/// the SFS-style typed attributes the paper's lineage assumes.
pub fn extract_tokens(
    registry: &TransducerRegistry,
    file_name: &str,
    content: &[u8],
) -> Vec<Token> {
    let mut tokens = registry.extract(file_name, content);
    for word in hac_index::tokenize_text(file_name.as_bytes()) {
        if let Some(w) = word.as_word() {
            tokens.push(Token::field("name", w));
        }
    }
    if let Some((_, ext)) = file_name.rsplit_once('.') {
        if !ext.is_empty() {
            tokens.push(Token::field("ext", ext));
        }
    }
    tokens
}

/// The mutable core of a `HacFs` (guarded by one lock in the facade).
pub struct HacState {
    /// The CBA index.
    pub index: Index,
    /// Semantic-directory metadata by directory inode.
    pub semdirs: HashMap<FileId, SemDir>,
    /// The global UID map (§2.5).
    pub uids: UidMap,
    /// The dependency DAG (§2.5).
    pub graph: DepGraph,
    /// Semantic mounts: directory → mounted name spaces (§3.2 allows
    /// several per mount point).
    pub mounts: HashMap<FileId, Vec<Arc<dyn RemoteQuerySystem>>>,
    /// Configuration.
    pub config: HacConfig,
    /// Term→semdir inverted query index driving incremental invalidation.
    pub query_index: QueryIndex,
    /// The path each document was last indexed under (stale-entry detection
    /// proportional to the subtree, not the index).
    pub doc_paths: DocPathMap,
    /// Per-directory cached raw query results.
    pub result_cache: HashMap<FileId, CachedResult>,
    /// Set by [`crate::HacFs::reindex_full`] after it rebuilds the index:
    /// every semdir must re-evaluate against the fresh index, so the next
    /// `ssync` runs a full re-evaluation instead of seeding a dirty set.
    pub pending_scope_sync: bool,
    /// The durable segmented index store, when one is attached
    /// ([`crate::HacFs::attach_store`]). `None` keeps the legacy
    /// whole-snapshot persistence path.
    pub store: Option<Arc<crate::store::IndexStore>>,
}

impl HacState {
    /// Fresh state with the given configuration.
    pub fn new(config: HacConfig) -> Self {
        let mut uids = UidMap::new();
        // The root always occupies the first UID: every directory directly
        // or indirectly depends on it.
        let _root = uids.uid_for(FileId::ROOT);
        HacState {
            index: Index::new(config.granularity),
            semdirs: HashMap::new(),
            uids,
            graph: DepGraph::new(),
            mounts: HashMap::new(),
            config,
            query_index: QueryIndex::new(),
            doc_paths: DocPathMap::new(),
            result_cache: HashMap::new(),
            pending_scope_sync: false,
            store: None,
        }
    }

    fn doc(file: FileId) -> DocId {
        DocId(file.0)
    }

    // ------------------------------------------------------------------
    // Content indexing (data consistency, §2.4)
    // ------------------------------------------------------------------

    /// Indexes one file if it is new or its content version changed.
    /// Returns `true` if the index was touched.
    pub fn index_file(
        &mut self,
        vfs: &Vfs,
        registry: &TransducerRegistry,
        path: &VPath,
        id: FileId,
    ) -> bool {
        if is_reserved(path) {
            return false;
        }
        let Ok(attr) = vfs.lstat(path) else {
            return false;
        };
        if attr.kind != NodeKind::File {
            return false;
        }
        if self.index.indexed_version(Self::doc(id)) == Some(attr.version) {
            return false;
        }
        let Ok(content) = vfs.read_file(path) else {
            return false;
        };
        let name = path.file_name().unwrap_or("");
        let tokens = extract_tokens(registry, name, &content);
        self.index.add_doc(Self::doc(id), attr.version, &tokens);
        self.doc_paths.record(Self::doc(id), path);
        true
    }

    /// Drops a file from the index.
    pub fn deindex_file(&mut self, id: FileId) {
        self.index.remove_doc(Self::doc(id));
        self.doc_paths.forget(Self::doc(id));
    }

    /// Snapshot phase of a reindex pass (shared lock): walks the subtree
    /// and records what must be tokenized, which recorded paths moved, and
    /// which recorded docs vanished from the walk.
    pub fn plan_sync(&self, vfs: &Vfs, root: &VPath) -> SyncPlan {
        let mut plan = SyncPlan {
            root: root.clone(),
            to_index: Vec::new(),
            refresh_paths: Vec::new(),
            stale_candidates: Vec::new(),
        };
        let mut seen: HashSet<u64> = HashSet::new();
        if let Ok(entries) = hac_vfs::walk(vfs, root) {
            for entry in entries {
                if entry.attr.kind != NodeKind::File || is_reserved(&entry.path) {
                    continue;
                }
                seen.insert(entry.attr.id.0);
                let doc = Self::doc(entry.attr.id);
                if self.index.indexed_version(doc) != Some(entry.attr.version) {
                    plan.to_index.push(PlannedDoc {
                        path: entry.path,
                        id: entry.attr.id,
                    });
                } else if self.doc_paths.path_of(doc) != Some(entry.path.to_string().as_str()) {
                    plan.refresh_paths.push((doc, entry.path));
                }
            }
        }
        for doc in self.doc_paths.docs_under(root) {
            if !seen.contains(&doc.0) {
                plan.stale_candidates.push(doc);
            }
        }
        plan
    }

    /// Apply phase of a reindex pass (exclusive lock): classifies the
    /// tokenized deltas, verifies stale candidates against the live
    /// namespace (a rename may have moved them out of the subtree), applies
    /// everything to the index in one batch, and returns the pass report,
    /// the dirty set, and the delta that actually landed (the payload a
    /// durable store seals into one segment). Deltas raced out by a
    /// concurrent eager index are skipped.
    pub fn apply_sync(
        &mut self,
        vfs: &Vfs,
        plan: &SyncPlan,
        docs: Vec<TokenizedDoc>,
    ) -> (SyncReport, DirtySet, AppliedDelta) {
        let mut report = SyncReport::default();
        let mut dirty = DirtySet::new();
        for (doc, path) in &plan.refresh_paths {
            self.doc_paths.record(*doc, path);
        }
        let mut adds: Vec<DocDelta> = Vec::with_capacity(docs.len());
        for td in docs {
            let doc = td.delta.doc;
            // A file unlinked during the lock-free tokenize window was
            // already deindexed (eager mode deindexes under the write
            // lock); accepting its in-flight delta would resurrect the
            // deleted document until the next pass. Only apply deltas for
            // inodes that still resolve in the live namespace.
            if vfs.path_of(FileId(doc.0)).is_err() {
                continue;
            }
            match self.index.indexed_version(doc) {
                // A concurrent eager index already holds newer content:
                // the delta would be a no-op, so it is neither applied nor
                // sealed into the segment.
                Some(v) if v >= td.delta.version => {}
                prev => {
                    if prev.is_none() {
                        report.added += 1;
                        dirty.added.insert(doc);
                    } else {
                        report.updated += 1;
                        dirty.updated.insert(doc);
                    }
                    dirty.absorb_tokens(&td.delta.tokens);
                    self.doc_paths.record(doc, &td.path);
                    adds.push(td.delta);
                }
            }
        }
        let mut removes: Vec<DocId> = Vec::new();
        let mut applied_removes: Vec<DocId> = Vec::new();
        for &doc in &plan.stale_candidates {
            match vfs.path_of(FileId(doc.0)) {
                Ok(p) if p.starts_with(&plan.root) => removes.push(doc),
                // Renamed out of the subtree since the last pass: keep.
                Ok(p) => self.doc_paths.record(doc, &p),
                Err(_) => removes.push(doc),
            }
        }
        for &doc in &removes {
            if self.index.is_indexed(doc) {
                dirty.removed.insert(doc);
                report.removed += 1;
                applied_removes.push(doc);
            }
            self.doc_paths.forget(doc);
        }
        self.index.apply_delta(&adds, &removes);
        hac_obs::gauge("hac_reindex_dirty_docs", &[]).set(dirty.doc_count() as i64);
        let applied = AppliedDelta {
            adds,
            removes: applied_removes,
        };
        (report, dirty, applied)
    }

    // ------------------------------------------------------------------
    // Scopes (§2.3, §3)
    // ------------------------------------------------------------------

    /// The scope a directory provides to semantic directories created
    /// beneath it (§2.3).
    ///
    /// * the **root** provides every indexed file and every mounted
    ///   namespace;
    /// * a **semantic directory** provides the targets of its current
    ///   symlinks plus the indexed files physically inside it (users may
    ///   "add regular files to that directory");
    /// * any other **syntactic directory** is *transparent*: it provides
    ///   whatever its own parent provides. The paper defines only the two
    ///   endpoints above; transparency is the interpolation that keeps
    ///   plain directories usable as organisation (a semantic folder under
    ///   `/home/me/folders` should see the world, not an empty subtree).
    ///   Explicit subtree semantics remain available via `path(...)`
    ///   references, which use [`HacState::reference_scope`].
    pub fn scope_provided(&self, vfs: &Vfs, dir: FileId) -> Scope {
        if dir == FileId::ROOT {
            let mut scope = Scope::local_only(self.index.all_docs());
            for remotes in self.mounts.values() {
                for r in remotes {
                    scope.add_namespace_all(r.namespace());
                }
            }
            return scope;
        }
        if let Some(sd) = self.semdirs.get(&dir) {
            return self.semdir_scope(vfs, sd);
        }
        // Transparent: delegate to the parent (terminates at the root).
        match vfs.path_of(dir).ok().and_then(|p| p.parent()) {
            Some(parent_path) => match vfs.resolve_nofollow(&parent_path) {
                Ok(parent) => self.scope_provided(vfs, parent),
                Err(_) => Scope::new(),
            },
            None => self.scope_provided(vfs, FileId::ROOT),
        }
    }

    /// The scope a `path(...)` reference denotes (§2.5): for a semantic
    /// directory, its curated link set; for a syntactic directory, its
    /// subtree closure (indexed files below it plus symlink targets below
    /// it) — "the files under that directory" is what naming a plain
    /// directory in a query means.
    pub fn reference_scope(&self, vfs: &Vfs, dir: FileId) -> Scope {
        if dir == FileId::ROOT {
            return self.scope_provided(vfs, FileId::ROOT);
        }
        if let Some(sd) = self.semdirs.get(&dir) {
            return self.semdir_scope(vfs, sd);
        }
        self.syntactic_scope(vfs, dir)
    }

    /// The nearest ancestor of `dir` (strictly above it) that actually
    /// *owns* a scope — a semantic directory or the root. Hierarchy
    /// dependency edges anchor here, so that scope changes propagate
    /// through transparent plain directories.
    pub fn scope_anchor(&self, vfs: &Vfs, dir: FileId) -> FileId {
        let mut cur = dir;
        loop {
            let Some(parent_path) = vfs.path_of(cur).ok().and_then(|p| p.parent()) else {
                return FileId::ROOT;
            };
            let Ok(parent) = vfs.resolve_nofollow(&parent_path) else {
                return FileId::ROOT;
            };
            if parent == FileId::ROOT || self.semdirs.contains_key(&parent) {
                return parent;
            }
            cur = parent;
        }
    }

    fn semdir_scope(&self, vfs: &Vfs, sd: &SemDir) -> Scope {
        let mut scope = Scope::new();
        let Ok(dir_path) = vfs.path_of(sd.dir) else {
            return scope;
        };
        let Ok(entries) = vfs.readdir(&dir_path) else {
            return scope;
        };
        for entry in entries {
            match entry.kind {
                NodeKind::File => {
                    if self.index.is_indexed(Self::doc(entry.id)) {
                        scope.local.insert(Self::doc(entry.id));
                    }
                }
                NodeKind::Symlink => {
                    // A link HAC manages names its target by inode, so the
                    // scope survives a rename of the target before the next
                    // `ssync` repairs the stored path (§2.3).
                    if let Some(LinkTarget::Local(fid)) =
                        sd.links.get(&entry.name).map(|s| &s.target)
                    {
                        let doc = Self::doc(*fid);
                        if self.index.is_indexed(doc) && vfs.path_of(*fid).is_ok() {
                            scope.local.insert(doc);
                        }
                        continue;
                    }
                    let Ok(link_path) = dir_path.join(&entry.name) else {
                        continue;
                    };
                    let Ok(target) = vfs.readlink(&link_path) else {
                        continue;
                    };
                    match decode_remote_target(&target) {
                        Some((ns, id)) => scope.add_remote_id(ns, id),
                        None => {
                            if let Ok(fid) = vfs.resolve(&target) {
                                if self.index.is_indexed(Self::doc(fid)) {
                                    scope.local.insert(Self::doc(fid));
                                }
                            }
                        }
                    }
                }
                NodeKind::Dir => {}
            }
        }
        // Namespaces mounted directly on the semantic directory are fully
        // in scope.
        if let Some(remotes) = self.mounts.get(&sd.dir) {
            for r in remotes {
                scope.add_namespace_all(r.namespace());
            }
        }
        scope
    }

    fn syntactic_scope(&self, vfs: &Vfs, dir: FileId) -> Scope {
        let mut scope = Scope::new();
        let Ok(dir_path) = vfs.path_of(dir) else {
            return scope;
        };
        let Ok(entries) = hac_vfs::walk(vfs, &dir_path) else {
            return scope;
        };
        for entry in entries {
            if is_reserved(&entry.path) {
                continue;
            }
            match entry.attr.kind {
                NodeKind::File => {
                    if self.index.is_indexed(Self::doc(entry.attr.id)) {
                        scope.local.insert(Self::doc(entry.attr.id));
                    }
                }
                NodeKind::Symlink => {
                    if let Ok(target) = vfs.readlink(&entry.path) {
                        match decode_remote_target(&target) {
                            Some((ns, id)) => scope.add_remote_id(ns, id),
                            None => {
                                if let Ok(fid) = vfs.resolve(&target) {
                                    if self.index.is_indexed(Self::doc(fid)) {
                                        scope.local.insert(Self::doc(fid));
                                    }
                                }
                            }
                        }
                    }
                }
                NodeKind::Dir => {
                    if let Some(remotes) = self.mounts.get(&entry.attr.id) {
                        for r in remotes {
                            scope.add_namespace_all(r.namespace());
                        }
                    }
                }
            }
        }
        scope
    }

    // ------------------------------------------------------------------
    // Query evaluation
    // ------------------------------------------------------------------

    /// Evaluates the local part of a query expression within `universe`.
    /// Directory references resolve to the referenced directory's provided
    /// local scope (§2.5); dangling references evaluate to the empty set.
    pub fn eval_local(
        &self,
        vfs: &Vfs,
        registry: &TransducerRegistry,
        expr: &QueryExpr,
        universe: &Bitmap,
    ) -> Bitmap {
        let mut stats = hac_index::EvalStats::default();
        self.eval_local_timed(vfs, registry, expr, universe, &mut stats)
    }

    /// Top-level instrumented entry around [`HacState::eval_local_counted`]:
    /// records one `hac_query_eval_duration_us` sample and the result
    /// cardinality per whole-query evaluation (the recursive inner calls
    /// stay unmetered so boolean sub-expressions are not double-counted).
    pub fn eval_local_timed(
        &self,
        vfs: &Vfs,
        registry: &TransducerRegistry,
        expr: &QueryExpr,
        universe: &Bitmap,
        stats: &mut hac_index::EvalStats,
    ) -> Bitmap {
        let start = std::time::Instant::now();
        // Child span only when an operation root is active: bare library
        // calls stay span-free, traced commands see the eval nested.
        let _span = hac_obs::current_trace().map(|_| hac_obs::span!("query_eval"));
        let result = self.eval_local_counted(vfs, registry, expr, universe, stats);
        hac_obs::counter("hac_query_evals_total", &[]).inc();
        hac_obs::histogram("hac_query_eval_duration_us", &[])
            .record(start.elapsed().as_micros() as u64);
        hac_obs::histogram("hac_query_results", &[]).record(result.count());
        result
    }

    /// Like [`HacState::eval_local`], accumulating the index's work
    /// counters (candidates examined, verifications run, false positives)
    /// for observability (`explain` in the shell).
    pub fn eval_local_counted(
        &self,
        vfs: &Vfs,
        registry: &TransducerRegistry,
        expr: &QueryExpr,
        universe: &Bitmap,
        stats: &mut hac_index::EvalStats,
    ) -> Bitmap {
        let provider = VfsProvider { vfs, registry };
        match expr {
            QueryExpr::Term(t) => self.index.eval_counted(
                &hac_index::ContentExpr::Term(t.clone()),
                universe,
                &provider,
                stats,
            ),
            QueryExpr::Field(n, v) => self.index.eval_counted(
                &hac_index::ContentExpr::Field(n.clone(), v.clone()),
                universe,
                &provider,
                stats,
            ),
            QueryExpr::Phrase(ws) => self.index.eval_counted(
                &hac_index::ContentExpr::Phrase(ws.clone()),
                universe,
                &provider,
                stats,
            ),
            QueryExpr::Approx(t, k) => self.index.eval_counted(
                &hac_index::ContentExpr::Approx(t.clone(), *k),
                universe,
                &provider,
                stats,
            ),
            QueryExpr::Prefix(t) => self.index.eval_counted(
                &hac_index::ContentExpr::Prefix(t.clone()),
                universe,
                &provider,
                stats,
            ),
            QueryExpr::All => universe.and(&self.index.all_docs()),
            QueryExpr::Dir(DirRef::Uid(uid)) => match self.uids.dir_of(*uid) {
                Some(dir) => self.reference_scope(vfs, dir).local.and(universe),
                None => Bitmap::new(),
            },
            // Unbound path references should have been bound at query-set
            // time; treat a straggler like its UID form by resolving late.
            QueryExpr::Dir(DirRef::Path(p)) => match vfs.resolve(p) {
                Ok(dir) => self.reference_scope(vfs, dir).local.and(universe),
                Err(_) => Bitmap::new(),
            },
            QueryExpr::And(a, b) => {
                let left = self.eval_local_counted(vfs, registry, a, universe, stats);
                self.eval_local_counted(vfs, registry, b, &left, stats)
            }
            QueryExpr::Or(a, b) => self
                .eval_local_counted(vfs, registry, a, universe, stats)
                .or(&self.eval_local_counted(vfs, registry, b, universe, stats)),
            QueryExpr::AndNot(a, b) => {
                let left = self.eval_local_counted(vfs, registry, a, universe, stats);
                let right = self.eval_local_counted(vfs, registry, b, &left, stats);
                left.and_not(&right)
            }
            QueryExpr::Not(a) => {
                let u = universe.and(&self.index.all_docs());
                u.and_not(&self.eval_local_counted(vfs, registry, a, &u, stats))
            }
        }
    }

    /// Evaluates the remote part of a query: for every namespace in the
    /// universe scope, ship the content projection and refine by the
    /// universe's id set. A failing namespace is reported in the second
    /// return value and its previously imported links are left untouched.
    /// The third return value lists namespaces that answered but flagged
    /// the result as *partial* (a federated coordinator missing a shard):
    /// their results are applied additively — see
    /// [`RemoteQuerySystem::last_partial`].
    #[allow(clippy::type_complexity)]
    pub fn eval_remote(
        &self,
        query: &Query,
        universe: &Scope,
    ) -> (
        HashMap<NamespaceId, HashMap<String, String>>,
        Vec<(NamespaceId, crate::remote::RemoteError)>,
        HashSet<NamespaceId>,
    ) {
        let mut results = HashMap::new();
        let mut errors = Vec::new();
        let mut partial = HashSet::new();
        if universe.remotes.is_empty() {
            return (results, errors, partial);
        }
        let projection = query.expr.content_projection();
        for (ns, set) in &universe.remotes {
            let Some(remote) = self.find_remote(ns) else {
                continue;
            };
            let _span = hac_obs::current_trace().map(|_| hac_obs::span!("remote_search", ns = ns));
            match remote.search(&projection) {
                Ok(docs) => {
                    let filtered: HashMap<String, String> = docs
                        .into_iter()
                        .filter(|d| set.contains(&d.id))
                        .map(|d| (d.id, d.title))
                        .collect();
                    if remote.last_partial() {
                        hac_obs::counter("hac_remote_partial_results_total", &[("ns", &ns.0)])
                            .inc();
                        partial.insert(ns.clone());
                    }
                    results.insert(ns.clone(), filtered);
                }
                Err(e) => errors.push((ns.clone(), e)),
            }
        }
        (results, errors, partial)
    }

    /// Finds a mounted remote by namespace id.
    pub fn find_remote(&self, ns: &NamespaceId) -> Option<Arc<dyn RemoteQuerySystem>> {
        for remotes in self.mounts.values() {
            for r in remotes {
                if &r.namespace() == ns {
                    return Some(Arc::clone(r));
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Scope consistency (§2.3)
    // ------------------------------------------------------------------

    /// Re-evaluates one semantic directory's query and reconciles its
    /// transient links (local and remote). Permanent and prohibited sets
    /// are never modified — they belong to the user.
    ///
    /// Returns `true` when the set of link targets changed (the scope this
    /// directory provides changed).
    pub fn resync_dir(
        &mut self,
        vfs: &Vfs,
        registry: &TransducerRegistry,
        dir: FileId,
    ) -> HacResult<bool> {
        let Some(sd) = self.semdirs.get(&dir) else {
            return Ok(false);
        };
        let dir_path = vfs.path_of(dir)?;
        let _span =
            hac_obs::current_trace().map(|_| hac_obs::span!("semdir_resync", dir = dir_path));
        hac_obs::counter("hac_semdir_reeval_total", &[]).inc();
        let parent_path = dir_path.parent().unwrap_or_else(VPath::root);
        let parent = vfs.resolve_nofollow(&parent_path)?;
        let universe = self.scope_provided(vfs, parent);

        // Local desired set: eval(query, parent scope) minus prohibited
        // minus permanent targets minus files physically in this directory
        // (their presence already represents them).
        //
        // The raw evaluation is cached per directory, keyed by (query text,
        // index generation, universe fingerprint). Queries with directory
        // references are never cached: a referenced directory's result set
        // can change without either the index generation or this universe
        // moving. As with everything §2.4, a cache hit reflects content as
        // of the last reindex, never newer.
        let query = sd.query.clone();
        let cacheable = !query.expr.has_dir_refs();
        let generation = self.index.generation();
        let scope_fp = universe.local.fingerprint();
        let cached = cacheable
            .then(|| self.result_cache.get(&dir))
            .flatten()
            .filter(|c| {
                c.generation == generation && c.scope_fp == scope_fp && c.query_src == query.source
            })
            .map(|c| c.result.clone());
        let mut desired = match cached {
            Some(result) => {
                hac_obs::counter("hac_query_cache_hits_total", &[]).inc();
                result
            }
            None => {
                hac_obs::counter("hac_query_cache_misses_total", &[]).inc();
                let result = self.eval_local(vfs, registry, &query.expr, &universe.local);
                if cacheable {
                    self.result_cache.insert(
                        dir,
                        CachedResult {
                            query_src: query.source.clone(),
                            generation,
                            scope_fp,
                            result: result.clone(),
                        },
                    );
                }
                result
            }
        };
        let sd = self
            .semdirs
            .get(&dir)
            .expect("semdir vanished during resync");
        for t in &sd.prohibited {
            if let LinkTarget::Local(fid) = t {
                desired.remove(Self::doc(*fid));
            }
        }
        for fid in sd.permanent_local_targets() {
            desired.remove(Self::doc(fid));
        }
        for doc in desired.ids() {
            if let Ok(p) = vfs.path_of(FileId(doc.0)) {
                if p.parent().as_ref() == Some(&dir_path) {
                    desired.remove(doc);
                }
            }
        }

        // Remote desired sets. A *partial* namespace (federated
        // coordinator missing a shard) is treated like a failed one for
        // link removal — the missing shard's documents are absent from the
        // result, not absent from the corpus — while its results still add
        // links, so the shards that answered stay fresh.
        let (remote_results, remote_errors, partial_ns) = self.eval_remote(&query, &universe);
        let failed_ns: HashSet<NamespaceId> = remote_errors
            .iter()
            .map(|(ns, _)| ns.clone())
            .chain(partial_ns.iter().cloned())
            .collect();

        let sd = self
            .semdirs
            .get(&dir)
            .expect("semdir vanished during resync");
        let mut changed = false;

        // Phase 1: drop stale transient links.
        let mut to_remove: Vec<String> = Vec::new();
        for (name, state) in &sd.links {
            if state.kind != LinkKind::Transient {
                continue;
            }
            match &state.target {
                LinkTarget::Local(fid) => {
                    if !desired.contains(Self::doc(*fid)) {
                        to_remove.push(name.clone());
                    }
                }
                LinkTarget::Remote(ns, id) => {
                    if failed_ns.contains(ns) {
                        continue; // keep results from unreachable remotes
                    }
                    let keep = remote_results.get(ns).is_some_and(|m| m.contains_key(id))
                        && universe.remotes.contains_key(ns);
                    if !keep {
                        to_remove.push(name.clone());
                    }
                }
            }
        }
        for name in &to_remove {
            let link_path = dir_path.join(name)?;
            match vfs.unlink(&link_path) {
                Ok(()) | Err(VfsError::NotFound(_)) => {}
                Err(e) => return Err(e.into()),
            }
            changed = true;
        }
        let sd = self
            .semdirs
            .get_mut(&dir)
            .expect("semdir vanished during resync");
        for name in &to_remove {
            sd.links.remove(name);
        }

        // Phase 2: add missing transient links (local). Name allocation is
        // set-based: one readdir snapshot plus an in-progress name set, so
        // large result sets stay O(n log n) rather than O(n²).
        let sd = self
            .semdirs
            .get(&dir)
            .expect("semdir vanished during resync");
        let existing_local: HashSet<u64> = sd
            .links
            .values()
            .filter_map(|s| match s.target {
                LinkTarget::Local(fid) => Some(fid.0),
                LinkTarget::Remote(..) => None,
            })
            .collect();
        let mut taken: HashSet<String> = sd.links.keys().cloned().collect();
        if let Ok(entries) = vfs.readdir(&dir_path) {
            taken.extend(entries.into_iter().map(|e| e.name));
        }
        let mut new_local: Vec<(String, FileId, VPath)> = Vec::new();
        for doc in desired.ids() {
            if existing_local.contains(&doc.0) {
                continue;
            }
            let fid = FileId(doc.0);
            let Ok(target_path) = vfs.path_of(fid) else {
                continue;
            };
            let preferred = target_path.file_name().unwrap_or("link").to_string();
            let name = sd.free_name(&preferred, |n| taken.contains(n));
            taken.insert(name.clone());
            new_local.push((name, fid, target_path));
        }
        if !new_local.is_empty() {
            let batch: Vec<(String, VPath)> = new_local
                .iter()
                .map(|(name, _, target)| (name.clone(), target.clone()))
                .collect();
            vfs.symlink_batch(&dir_path, &batch)?;
            changed = true;
        }
        let sd = self
            .semdirs
            .get_mut(&dir)
            .expect("semdir vanished during resync");
        for (name, fid, _) in new_local {
            sd.links.insert(
                name,
                LinkState {
                    kind: LinkKind::Transient,
                    target: LinkTarget::Local(fid),
                },
            );
        }

        // Phase 3: add missing transient links (remote).
        let sd = self
            .semdirs
            .get(&dir)
            .expect("semdir vanished during resync");
        let mut new_remote: Vec<(String, NamespaceId, String)> = Vec::new();
        // Deterministic order across the namespace map.
        let mut remote_sorted: Vec<(&NamespaceId, &HashMap<String, String>)> =
            remote_results.iter().collect();
        remote_sorted.sort_by(|a, b| a.0.cmp(b.0));
        for (ns, docs) in remote_sorted {
            let mut doc_sorted: Vec<(&String, &String)> = docs.iter().collect();
            doc_sorted.sort();
            for (id, title) in doc_sorted {
                let target = LinkTarget::Remote(ns.clone(), id.clone());
                if sd.prohibited.contains(&target) || sd.has_target(&target) {
                    continue;
                }
                let preferred = sanitize_name(title);
                let name = sd.free_name(&preferred, |n| taken.contains(n));
                taken.insert(name.clone());
                new_remote.push((name, ns.clone(), id.clone()));
            }
        }
        if !new_remote.is_empty() {
            let batch: Vec<(String, VPath)> = new_remote
                .iter()
                .map(|(name, ns, id)| (name.clone(), encode_remote_target(ns, id)))
                .collect();
            vfs.symlink_batch(&dir_path, &batch)?;
            changed = true;
        }
        let sd = self
            .semdirs
            .get_mut(&dir)
            .expect("semdir vanished during resync");
        for (name, ns, id) in new_remote {
            sd.links.insert(
                name,
                LinkState {
                    kind: LinkKind::Transient,
                    target: LinkTarget::Remote(ns, id),
                },
            );
        }

        sd.last_result = desired;
        // Persist the updated metadata record — the paper keeps these
        // structures on disk, charging every re-evaluation with I/O.
        self.persist_dir(vfs, dir);
        Ok(changed)
    }

    /// Restores scope consistency after the scope provided by `roots`
    /// changed: re-evaluates every transitive dependent in topological
    /// order (§2.5's update schedule).
    pub fn resync_dependents(
        &mut self,
        vfs: &Vfs,
        registry: &TransducerRegistry,
        roots: impl IntoIterator<Item = DirUid>,
    ) -> HacResult<u64> {
        let order = self.graph.update_order(roots);
        self.resync_in_order(vfs, registry, order)
    }

    /// Re-evaluates *every* semantic directory in dependency order; used by
    /// full `ssync` and after reindexing.
    pub fn resync_all(&mut self, vfs: &Vfs, registry: &TransducerRegistry) -> HacResult<u64> {
        let uids: Vec<DirUid> = self.semdirs.values().map(|sd| sd.uid).collect();
        let order = self.graph.full_order(uids);
        self.resync_in_order(vfs, registry, order)
    }

    /// Re-evaluates only the semantic directories a dirty set can affect:
    ///
    /// * directories whose query terms intersect the dirty token keys (or
    ///   whose query is *broad* — `All`, `NOT`, `~approx`, `path(...)`);
    /// * directories whose current result or links contain a dirty doc
    ///   (covers removals and updates that stop matching);
    /// * plus every transitive dependent of those, via
    ///   [`DepGraph::update_order`], evaluated in topological order.
    ///
    /// A pass with an empty dirty set touches zero directories. Returns the
    /// number re-evaluated; the rest count into
    /// `hac_resync_semdirs_skipped_total`.
    pub fn resync_dirty(
        &mut self,
        vfs: &Vfs,
        registry: &TransducerRegistry,
        dirty: &DirtySet,
    ) -> HacResult<u64> {
        // Remote namespaces change without touching the local index, and a
        // reindex pass is their reconciliation point (§3): with any mount
        // present, every directory's scope may span remote state we cannot
        // dirty-track, so fall back to full re-evaluation.
        if !self.mounts.is_empty() {
            return self.resync_all(vfs, registry);
        }
        let total = self.semdirs.len() as u64;
        let mut seed_dirs = self.query_index.seeds(dirty);
        if !dirty.is_empty() {
            for (dir, sd) in &self.semdirs {
                if seed_dirs.contains(dir) {
                    continue;
                }
                let hit = dirty.docs().any(|doc| sd.last_result.contains(doc))
                    || sd.links.values().any(|s| {
                        matches!(s.target, LinkTarget::Local(fid)
                            if dirty.removed.contains(&Self::doc(fid))
                                || dirty.updated.contains(&Self::doc(fid)))
                    });
                if hit {
                    seed_dirs.insert(*dir);
                }
            }
        }
        let seeds: Vec<DirUid> = seed_dirs
            .iter()
            .filter_map(|d| self.semdirs.get(d).map(|sd| sd.uid))
            .collect();
        let mut affected: HashSet<DirUid> = seeds.iter().copied().collect();
        affected.extend(self.graph.update_order(seeds));
        let order = self.graph.full_order(affected);
        let synced = self.resync_in_order(vfs, registry, order)?;
        hac_obs::counter("hac_resync_semdirs_skipped_total", &[]).add(total.saturating_sub(synced));
        Ok(synced)
    }

    /// Re-evaluates the semantic directories among `order` (a dependency
    /// order from the graph), skipping UIDs that no longer name one.
    /// Returns the number re-evaluated.
    fn resync_in_order(
        &mut self,
        vfs: &Vfs,
        registry: &TransducerRegistry,
        order: Vec<DirUid>,
    ) -> HacResult<u64> {
        // Cascade size = how many directories the dependency graph schedules
        // for re-evaluation off this scope change (§2.5).
        hac_obs::histogram("hac_ssync_cascade_depth", &[]).record(order.len() as u64);
        hac_obs::counter("hac_cascade_reevals_total", &[]).add(order.len() as u64);
        let mut synced = 0;
        for uid in order {
            let Some(dir) = self.uids.dir_of(uid) else {
                continue;
            };
            if self.semdirs.contains_key(&dir) {
                self.resync_dir(vfs, registry, dir)?;
                synced += 1;
            }
        }
        Ok(synced)
    }

    /// Registers (or re-registers) a directory's query in the inverted
    /// query index and drops its cached result.
    pub fn register_semdir_query(&mut self, dir: FileId, expr: &QueryExpr) {
        self.query_index.insert(dir, expr);
        self.result_cache.remove(&dir);
    }

    /// Unregisters a directory from the incremental-invalidation
    /// structures (on removal or demotion to a plain directory).
    pub fn unregister_semdir(&mut self, dir: FileId) {
        self.query_index.remove(dir);
        self.result_cache.remove(&dir);
    }

    /// Replaces the index wholesale (full rebuild), resetting every
    /// structure derived from it. The result cache is cleared because the
    /// fresh index restarts its generation counter.
    pub fn reset_index(&mut self) {
        self.index = Index::new(self.config.granularity);
        self.doc_paths = DocPathMap::new();
        self.result_cache.clear();
    }

    /// Rebuilds the doc→path map from the live namespace after the index
    /// was swapped in from persistence. Indexed docs that no longer exist
    /// anywhere are dropped immediately (they would otherwise dodge the
    /// subtree-proportional stale sweep forever); the pruned ids are
    /// returned so a durable store can commit the prune as a removal
    /// segment — otherwise every future recovery would resurrect and
    /// re-prune the same docs, drifting the generation lineage.
    pub fn rebuild_doc_paths(&mut self, vfs: &Vfs) -> Vec<DocId> {
        self.doc_paths = DocPathMap::new();
        if let Ok(entries) = hac_vfs::walk(vfs, &VPath::root()) {
            for entry in entries {
                if entry.attr.kind != NodeKind::File || is_reserved(&entry.path) {
                    continue;
                }
                let doc = Self::doc(entry.attr.id);
                if self.index.is_indexed(doc) {
                    self.doc_paths.record(doc, &entry.path);
                }
            }
        }
        let orphans: Vec<DocId> = self
            .index
            .all_docs()
            .ids()
            .into_iter()
            .filter(|d| self.doc_paths.path_of(*d).is_none())
            .collect();
        for doc in &orphans {
            self.index.remove_doc(*doc);
        }
        orphans
    }

    /// Repairs symlinks whose target was renamed (data inconsistency (i) of
    /// §2.4): the link's recorded inode is alive but the stored path no
    /// longer resolves to it. Returns the number of links rewritten.
    pub fn repair_links(&mut self, vfs: &Vfs) -> HacResult<u64> {
        let mut repaired = 0;
        let dirs: Vec<FileId> = self.semdirs.keys().copied().collect();
        for dir in dirs {
            let Ok(dir_path) = vfs.path_of(dir) else {
                continue;
            };
            let sd = self.semdirs.get(&dir).expect("semdir key vanished");
            let fixes: Vec<(String, VPath)> = sd
                .links
                .iter()
                .filter_map(|(name, state)| {
                    let LinkTarget::Local(fid) = state.target else {
                        return None;
                    };
                    let link_path = dir_path.join(name).ok()?;
                    let stored = vfs.readlink(&link_path).ok()?;
                    let actual = vfs.path_of(fid).ok()?;
                    (stored != actual).then_some((name.clone(), actual))
                })
                .collect();
            for (name, actual) in fixes {
                let link_path = dir_path.join(&name)?;
                vfs.unlink(&link_path)?;
                vfs.symlink(&link_path, &actual)?;
                repaired += 1;
            }
        }
        Ok(repaired)
    }

    // ------------------------------------------------------------------
    // Query management
    // ------------------------------------------------------------------

    /// Binds a parsed query's path references to UIDs and installs the
    /// dependency edges for directory `dir` (a hierarchy edge to its scope
    /// anchor — nearest semantic ancestor or root — plus one query-ref edge
    /// per referenced directory).
    ///
    /// On a cycle, the graph is restored and an error returned.
    pub fn install_query_edges(
        &mut self,
        vfs: &Vfs,
        dir: FileId,
        query: &mut Query,
        dir_path: &VPath,
    ) -> HacResult<()> {
        let parent = self.scope_anchor(vfs, dir);
        // Bind path references.
        let mut bind_err: Option<HacError> = None;
        let uids = &mut self.uids;
        query
            .bind_paths(|p| match vfs.resolve_nofollow(p) {
                Ok(id) => match vfs.lstat(p) {
                    Ok(attr) if attr.is_dir() => Ok(uids.uid_for(id)),
                    _ => Err(HacError::UnknownQueryTarget(p.clone())),
                },
                Err(_) => Err(HacError::UnknownQueryTarget(p.clone())),
            })
            .inspect_err(|e| {
                bind_err = Some(e.clone());
            })
            .ok();
        if let Some(e) = bind_err {
            return Err(e);
        }

        let uid = self.uids.uid_for(dir);
        let parent_uid = self.uids.uid_for(parent);

        // Snapshot old edges for rollback.
        let old_graph = self.graph.clone();
        self.graph.clear_edges(uid, EdgeKind::QueryRef);
        self.graph.clear_edges(uid, EdgeKind::Hierarchy);
        if !self.graph.add_edge(uid, parent_uid, EdgeKind::Hierarchy) {
            self.graph = old_graph;
            return Err(HacError::CycleDetected {
                at: dir_path.clone(),
            });
        }
        for referenced in query.expr.referenced_uids() {
            if self.uids.dir_of(referenced).is_none() {
                self.graph = old_graph;
                return Err(HacError::UnknownUid(referenced));
            }
            if referenced == uid || !self.graph.add_edge(uid, referenced, EdgeKind::QueryRef) {
                self.graph = old_graph;
                return Err(HacError::CycleDetected {
                    at: dir_path.clone(),
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Metadata persistence (§4)
    // ------------------------------------------------------------------

    /// Writes the persistent metadata record of `dir` into the reserved
    /// [`META_DIR`] area — the extra on-disk structures (query, link
    /// classification, prohibited set) the paper creates for every
    /// directory. Errors are swallowed: metadata persistence is
    /// best-effort, the live state is authoritative.
    pub fn persist_dir(&mut self, vfs: &Vfs, dir: FileId) {
        let uid = self.uids.uid_for(dir);
        let record = match self.semdirs.get(&dir) {
            Some(sd) => DirRecordDisk {
                uid: uid.0,
                query: Some(
                    sd.query
                        .display_with(|u| self.uids.dir_of(u).and_then(|d| vfs.path_of(d).ok())),
                ),
                links: {
                    let mut v: Vec<(String, u8, String)> = sd
                        .links
                        .iter()
                        .map(|(n, s)| {
                            let kind = match s.kind {
                                LinkKind::Transient => 0,
                                LinkKind::Permanent => 1,
                            };
                            (n.clone(), kind, encode_target(&s.target))
                        })
                        .collect();
                    v.sort();
                    v
                },
                prohibited: {
                    let mut v: Vec<String> = sd.prohibited.iter().map(encode_target).collect();
                    v.sort();
                    v
                },
            },
            None => DirRecordDisk {
                uid: uid.0,
                query: None,
                links: Vec::new(),
                prohibited: Vec::new(),
            },
        };
        let bytes = hac_codec::encode_value(&record);
        let Ok(meta_dir) = VPath::from_components([META_DIR]) else {
            return;
        };
        let _ = vfs.mkdir_p(&meta_dir);
        if let Ok(path) = meta_dir.join(&format!("d{}", dir.0)) {
            let _ = vfs.save(&path, &bytes);
        }
    }

    /// Removes the persisted record of a deleted directory.
    pub fn remove_dir_record(&self, vfs: &Vfs, dir: FileId) {
        if let Ok(meta_dir) = VPath::from_components([META_DIR]) {
            if let Ok(path) = meta_dir.join(&format!("d{}", dir.0)) {
                let _ = vfs.unlink(&path);
            }
        }
    }

    /// Total resident bytes of HAC metadata (semantic directories, UID map,
    /// dependency graph) — the §4 space-overhead figure.
    pub fn metadata_bytes(&self) -> u64 {
        let semdir_bytes: u64 = self.semdirs.values().map(SemDir::resident_bytes).sum();
        let graph_bytes = (self.graph.node_count() * 48) as u64;
        semdir_bytes + self.uids.resident_bytes() + graph_bytes
    }
}

/// Encodes a remote document as a (deliberately dangling) local symlink
/// target under [`REMOTE_LINK_PREFIX`].
pub fn encode_remote_target(ns: &NamespaceId, id: &str) -> VPath {
    let mut encoded = String::with_capacity(id.len());
    for b in id.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => encoded.push(b as char),
            other => encoded.push_str(&format!("%{other:02x}")),
        }
    }
    VPath::from_components([REMOTE_LINK_PREFIX.to_string(), ns.0.clone(), encoded])
        .unwrap_or_else(|_| VPath::root())
}

/// Decodes a symlink target produced by [`encode_remote_target`]. Returns
/// `None` for ordinary local targets.
pub fn decode_remote_target(target: &VPath) -> Option<(NamespaceId, String)> {
    let comps: Vec<&str> = target.components().collect();
    if comps.len() != 3 || comps[0] != REMOTE_LINK_PREFIX {
        return None;
    }
    let ns = NamespaceId(comps[1].to_string());
    let mut id = String::new();
    let bytes = comps[2].as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok()?;
            let v = u8::from_str_radix(hex, 16).ok()?;
            id.push(v as char);
            i += 3;
        } else {
            id.push(bytes[i] as char);
            i += 1;
        }
    }
    Some((ns, id))
}

/// Makes a remote title usable as a directory entry name.
pub fn sanitize_name(title: &str) -> String {
    let cleaned: String = title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let trimmed = cleaned.trim_matches('_');
    if trimmed.is_empty() {
        "remote".to_string()
    } else {
        trimmed.chars().take(64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_target_roundtrip() {
        let ns = NamespaceId("weblib".into());
        for id in ["plain", "with/slash", "q?x=1&y=2", "ünïcode-ish %"] {
            let encoded = encode_remote_target(&ns, id);
            let (ns2, id2) = decode_remote_target(&encoded).unwrap();
            assert_eq!(ns2, ns);
            // Non-ASCII bytes decode byte-wise; restrict the assertion to
            // ASCII ids (remote ids in this system are ASCII).
            if id.is_ascii() {
                assert_eq!(id2, id, "id {id:?}");
            }
        }
    }

    #[test]
    fn ordinary_targets_do_not_decode() {
        assert_eq!(
            decode_remote_target(&VPath::parse("/home/user/file").unwrap()),
            None
        );
        assert_eq!(decode_remote_target(&VPath::parse("/").unwrap()), None);
        assert_eq!(
            decode_remote_target(&VPath::parse("/.hac-remote/ns/a/b").unwrap()),
            None
        );
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize_name("A paper (1999)"), "A_paper__1999");
        assert_eq!(sanitize_name("///"), "remote");
        assert_eq!(sanitize_name("ok-name.txt"), "ok-name.txt");
    }

    #[test]
    fn parallel_tokenize_matches_one_thread_in_plan_order() {
        let vfs = Vfs::new();
        let registry = TransducerRegistry::new();
        let state = HacState::new(HacConfig::default());
        let p = |s: &str| VPath::parse(s).unwrap();
        vfs.mkdir_p(&p("/d")).unwrap();
        for i in 0..40 {
            vfs.save(
                &p(&format!("/d/f{i:02}.txt")),
                format!("word{i} shared").as_bytes(),
            )
            .unwrap();
        }
        let plan = state.plan_sync(&vfs, &p("/"));
        let key = |docs: Vec<TokenizedDoc>| -> Vec<(VPath, DocId, Vec<Token>)> {
            docs.into_iter()
                .map(|d| (d.path, d.delta.doc, d.delta.tokens))
                .collect()
        };
        let one = key(tokenize_plan(&vfs, &registry, &plan, 1));
        assert_eq!(one.len(), 40);
        assert_eq!(key(tokenize_plan(&vfs, &registry, &plan, 4)), one);
    }

    #[test]
    fn apply_sync_skips_deltas_for_concurrently_unlinked_docs() {
        let vfs = Vfs::new();
        let registry = TransducerRegistry::new();
        let mut state = HacState::new(HacConfig::default());
        let p = |s: &str| VPath::parse(s).unwrap();

        vfs.mkdir_p(&p("/d")).unwrap();
        let id = vfs.save(&p("/d/f.txt"), b"one").unwrap();
        let plan = state.plan_sync(&vfs, &p("/"));
        let docs = tokenize_plan(&vfs, &registry, &plan, 1);
        state.apply_sync(&vfs, &plan, docs);
        assert!(state.index.is_indexed(HacState::doc(id)));

        // Dirty the file, then run the pipeline's phases by hand with an
        // unlink interleaved into the lock-free tokenize window (what an
        // eager-mode unlink does: deindex, then remove the file).
        vfs.write_file(&p("/d/f.txt"), b"two").unwrap();
        let plan = state.plan_sync(&vfs, &p("/"));
        let docs = tokenize_plan(&vfs, &registry, &plan, 1);
        state.deindex_file(id);
        vfs.unlink(&p("/d/f.txt")).unwrap();

        let (report, dirty, applied) = state.apply_sync(&vfs, &plan, docs);
        assert_eq!(report.added, 0, "stale delta must not resurrect the doc");
        assert_eq!(report.updated, 0);
        assert!(dirty.added.is_empty() && dirty.updated.is_empty());
        assert!(applied.is_empty(), "nothing landed, nothing to persist");
        assert!(!state.index.is_indexed(HacState::doc(id)));
        assert!(state.doc_paths.path_of(HacState::doc(id)).is_none());
    }
}
