//! The HAC file system facade.
//!
//! [`HacFs`] plays the role of the paper's user-level DLL: every file
//! system call goes through it, so it can maintain HAC's metadata (link
//! classification, dependency graph, UID map) and restore scope consistency
//! after each structural mutation. The semantic commands of §4 map as:
//!
//! | paper       | here                         |
//! |-------------|------------------------------|
//! | `smkdir`    | [`HacFs::smkdir`]            |
//! | `schquery`  | [`HacFs::set_query`]         |
//! | `sreadq`    | [`HacFs::get_query`]         |
//! | `sact`      | [`HacFs::sact`]              |
//! | `smount`    | [`HacFs::smount`]            |
//! | `ssync`     | [`HacFs::ssync`]             |
//!
//! Mutating the wrapped [`Vfs`] directly bypasses HAC bookkeeping, exactly
//! like bypassing the paper's DLL; use the [`HacFs`] methods.

use std::sync::Arc;

use parking_lot::RwLock;

use hac_index::{Bitmap, DocId, IndexStats, TransducerRegistry};
use hac_query::{parse, DirUid, Query};
use hac_vfs::{FileId, NodeKind, VPath, Vfs};

use crate::error::{HacError, HacResult};
use crate::remote::{NamespaceId, RemoteQuerySystem};
use crate::scope::Scope;
use crate::semdir::{LinkKind, LinkState, LinkTarget, SemDir};
use crate::state::{decode_remote_target, HacConfig, HacState, SyncReport, VfsProvider};

/// ASCII-case-insensitive substring search without allocating a lowered
/// copy of the haystack. The needle must already be lowercase.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    let (h, n) = (haystack.as_bytes(), needle.as_bytes());
    if n.is_empty() {
        return true;
    }
    if n.len() > h.len() {
        return false;
    }
    h.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
}

/// One entry of [`HacFs::list_links`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkInfo {
    /// Entry name inside the semantic directory.
    pub name: String,
    /// Ownership class.
    pub kind: LinkKind,
    /// Link target.
    pub target: LinkTarget,
}

/// The HAC file system: a hierarchical namespace with content-based access.
///
/// # Examples
///
/// ```
/// use hac_core::HacFs;
/// use hac_vfs::VPath;
///
/// let fs = HacFs::new();
/// let p = |s: &str| VPath::parse(s).unwrap();
/// fs.mkdir_p(&p("/notes")).unwrap();
/// fs.save(&p("/notes/a.txt"), b"fingerprint minutiae ridge").unwrap();
/// fs.save(&p("/notes/b.txt"), b"pasta recipe").unwrap();
/// fs.ssync(&p("/")).unwrap();
///
/// fs.smkdir(&p("/fp"), "fingerprint").unwrap();
/// let names: Vec<String> =
///     fs.readdir(&p("/fp")).unwrap().into_iter().map(|e| e.name).collect();
/// assert_eq!(names, vec!["a.txt"]);
/// ```
pub struct HacFs {
    vfs: Arc<Vfs>,
    registry: TransducerRegistry,
    state: RwLock<HacState>,
}

impl Default for HacFs {
    fn default() -> Self {
        Self::new()
    }
}

impl HacFs {
    /// Creates an empty HAC file system with default configuration.
    pub fn new() -> Self {
        Self::with_config(HacConfig::default())
    }

    /// Creates an empty HAC file system with explicit configuration.
    pub fn with_config(config: HacConfig) -> Self {
        HacFs {
            vfs: Arc::new(Vfs::new()),
            registry: TransducerRegistry::new(),
            state: RwLock::new(HacState::new(config)),
        }
    }

    /// Replaces the transducer registry (before any indexing).
    pub fn with_registry(mut self, registry: TransducerRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// The underlying namespace. Reads are safe; direct mutations bypass
    /// HAC bookkeeping (like bypassing the paper's interception DLL).
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// Current configuration.
    pub fn config(&self) -> HacConfig {
        self.state.read().config.clone()
    }

    // ------------------------------------------------------------------
    // Read operations (pure pass-through)
    // ------------------------------------------------------------------

    /// Reads a file, following symlinks. See [`Vfs::read_file`].
    pub fn read_file(&self, path: &VPath) -> HacResult<bytes::Bytes> {
        Ok(self.vfs.read_file(path)?)
    }

    /// Lists a directory. HAC's reserved bookkeeping areas (`/.hac-meta`,
    /// `/.hac-remote`) are hidden from root listings, just as the paper's
    /// on-disk structures are invisible to applications. See
    /// [`Vfs::readdir`] for the raw view.
    pub fn readdir(&self, path: &VPath) -> HacResult<Vec<hac_vfs::DirEntry>> {
        let mut entries = self.vfs.readdir(path)?;
        if path.is_root() {
            entries.retain(|e| {
                e.name != crate::state::META_DIR && e.name != crate::state::REMOTE_LINK_PREFIX
            });
        }
        Ok(entries)
    }

    /// Stats a path (follows links).
    pub fn stat(&self, path: &VPath) -> HacResult<hac_vfs::Attr> {
        Ok(self.vfs.stat(path)?)
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &VPath) -> bool {
        self.vfs.exists(path)
    }

    /// Reads a symlink target.
    pub fn readlink(&self, path: &VPath) -> HacResult<VPath> {
        Ok(self.vfs.readlink(path)?)
    }

    // ------------------------------------------------------------------
    // Structural mutations (pass-through + bookkeeping + scope sync)
    // ------------------------------------------------------------------

    /// Creates a plain (syntactic) directory. Like the paper's HAC, every
    /// directory gets its (empty) persistent metadata record and a slot in
    /// the global map — the Makedir-phase overhead of Table 1.
    pub fn mkdir(&self, path: &VPath) -> HacResult<FileId> {
        let id = self.vfs.mkdir(path)?;
        let mut state = self.state.write();
        state.persist_dir(&self.vfs, id);
        Ok(id)
    }

    /// Creates a directory chain (each new directory gets its metadata
    /// record, as in [`HacFs::mkdir`]).
    pub fn mkdir_p(&self, path: &VPath) -> HacResult<FileId> {
        let mut cur = VPath::root();
        let mut id = FileId::ROOT;
        for comp in path.components() {
            cur = cur.join(comp)?;
            match self.mkdir(&cur) {
                Ok(new_id) => id = new_id,
                Err(HacError::Vfs(hac_vfs::VfsError::AlreadyExists(_))) => {
                    id = self.vfs.resolve_nofollow(&cur)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(id)
    }

    /// Creates an empty file.
    pub fn create(&self, path: &VPath) -> HacResult<FileId> {
        let id = self.vfs.create(path)?;
        self.after_content_change(path, id)?;
        Ok(id)
    }

    /// Creates or replaces a file with `data`.
    pub fn save(&self, path: &VPath, data: &[u8]) -> HacResult<FileId> {
        let id = self.vfs.save(path, data)?;
        self.after_content_change(path, id)?;
        Ok(id)
    }

    /// Overwrites an existing file.
    pub fn write_file(&self, path: &VPath, data: &[u8]) -> HacResult<()> {
        self.vfs.write_file(path, data)?;
        let id = self.vfs.resolve(path)?;
        self.after_content_change(path, id)?;
        Ok(())
    }

    /// Appends to an existing file.
    pub fn append(&self, path: &VPath, data: &[u8]) -> HacResult<()> {
        self.vfs.append(path, data)?;
        let id = self.vfs.resolve(path)?;
        self.after_content_change(path, id)?;
        Ok(())
    }

    fn after_content_change(&self, path: &VPath, id: FileId) -> HacResult<()> {
        // Warm the shared attribute cache for the new content — §4: "when
        // HAC creates a new file, it also initializes the open
        // file-descriptor and the attribute-cache for that file. This
        // helps to speed up Scan and Read operations on that file."
        let _ = self.vfs.stat(path);
        let mut state = self.state.write();
        if !state.config.eager_content_index {
            return Ok(());
        }
        state.index_file(&self.vfs, &self.registry, path, id);
        let roots = self.ancestor_uids(&state, path);
        state.resync_dependents(&self.vfs, &self.registry, roots)?;
        Ok(())
    }

    /// Creates a user symlink. Inside a semantic directory this is a
    /// *permanent* link: the user added it, HAC will never remove it, and
    /// it lifts any prohibition on the same target (§2.3 — prohibited links
    /// are not re-added "without a direct action by the user"; this is that
    /// direct action).
    pub fn symlink(&self, path: &VPath, target: &VPath) -> HacResult<FileId> {
        let id = self.vfs.symlink(path, target)?;
        let mut state = self.state.write();
        let parent_path = path.parent().unwrap_or_else(VPath::root);
        if let Ok(parent) = self.vfs.resolve_nofollow(&parent_path) {
            if state.semdirs.contains_key(&parent) {
                let link_target = match decode_remote_target(target) {
                    Some((ns, rid)) => Some(LinkTarget::Remote(ns, rid)),
                    None => self.vfs.resolve(target).ok().map(LinkTarget::Local),
                };
                if let Some(t) = link_target {
                    let name = path.file_name().unwrap_or("link").to_string();
                    let sd = state.semdirs.get_mut(&parent).expect("checked above");
                    sd.prohibited.remove(&t);
                    sd.links.insert(
                        name,
                        LinkState {
                            kind: LinkKind::Permanent,
                            target: t,
                        },
                    );
                    state.persist_dir(&self.vfs, parent);
                }
            }
        }
        let roots = self.ancestor_uids(&state, path);
        state.resync_dependents(&self.vfs, &self.registry, roots)?;
        Ok(id)
    }

    /// Removes a file or symlink. Removing a link from a semantic directory
    /// marks its target *prohibited* there (§2.3): the consistency
    /// algorithm will never silently bring it back.
    pub fn unlink(&self, path: &VPath) -> HacResult<()> {
        let attr = self.vfs.lstat(path)?;
        let parent_path = path.parent().unwrap_or_else(VPath::root);
        let mut state = self.state.write();
        if attr.kind == NodeKind::Symlink {
            if let Ok(parent) = self.vfs.resolve_nofollow(&parent_path) {
                if let Some(sd) = state.semdirs.get_mut(&parent) {
                    let name = path.file_name().unwrap_or("").to_string();
                    let target = match sd.links.remove(&name) {
                        Some(s) => Some(s.target),
                        None => {
                            // Unrecorded user link: derive the target from
                            // the live symlink so prohibition still sticks.
                            self.vfs.readlink(path).ok().and_then(|t| {
                                decode_remote_target(&t)
                                    .map(|(ns, id)| LinkTarget::Remote(ns, id))
                                    .or_else(|| self.vfs.resolve(&t).ok().map(LinkTarget::Local))
                            })
                        }
                    };
                    if let Some(t) = target {
                        sd.prohibited.insert(t);
                    }
                    state.persist_dir(&self.vfs, parent);
                }
            }
        }
        if attr.kind == NodeKind::File && state.config.eager_content_index {
            state.deindex_file(attr.id);
        }
        self.vfs.unlink(path)?;
        let roots = self.ancestor_uids(&state, path);
        state.resync_dependents(&self.vfs, &self.registry, roots)?;
        Ok(())
    }

    /// Removes an empty directory, tearing down its HAC metadata.
    pub fn rmdir(&self, path: &VPath) -> HacResult<()> {
        let id = self.vfs.resolve_nofollow(path)?;
        self.vfs.rmdir(path)?;
        let mut state = self.state.write();
        self.forget_dir(&mut state, id);
        let roots = self.ancestor_uids(&state, path);
        state.resync_dependents(&self.vfs, &self.registry, roots)?;
        Ok(())
    }

    /// Recursively removes a subtree, tearing down all HAC metadata inside.
    pub fn remove_recursive(&self, path: &VPath) -> HacResult<()> {
        let entries = hac_vfs::walk(&self.vfs, path)?;
        let mut state = self.state.write();
        for entry in &entries {
            match entry.attr.kind {
                NodeKind::Dir => self.forget_dir(&mut state, entry.attr.id),
                NodeKind::File => {
                    if state.config.eager_content_index {
                        state.deindex_file(entry.attr.id);
                    }
                }
                NodeKind::Symlink => {}
            }
        }
        self.vfs.remove_recursive(path)?;
        let roots = self.ancestor_uids(&state, path);
        state.resync_dependents(&self.vfs, &self.registry, roots)?;
        Ok(())
    }

    fn forget_dir(&self, state: &mut HacState, id: FileId) {
        state.unregister_semdir(id);
        state.semdirs.remove(&id);
        state.mounts.remove(&id);
        if let Some(uid) = state.uids.remove_dir(id) {
            state.graph.remove_node(uid);
        }
        state.remove_dir_record(&self.vfs, id);
    }

    /// Renames (moves) a file, symlink, or directory with full HAC
    /// semantics:
    ///
    /// * moving a *symlink out of* a semantic directory prohibits its
    ///   target there (it was removed from that result set) and moving one
    ///   *into* a semantic directory records it as permanent;
    /// * moving a *semantic directory* rewires its hierarchy dependency to
    ///   the new parent — §2.3 case 2 — and is refused (rolled back) if the
    ///   rewiring would create a dependency cycle;
    /// * afterwards, scope consistency is restored for everything that
    ///   depended on either location.
    pub fn rename(&self, from: &VPath, to: &VPath) -> HacResult<()> {
        let attr = self.vfs.lstat(from)?;
        let from_parent_path = from.parent().unwrap_or_else(VPath::root);
        let to_parent_path = to.parent().unwrap_or_else(VPath::root);

        self.vfs.rename(from, to)?;
        let mut state = self.state.write();

        // Symlink classification transfer.
        if attr.kind == NodeKind::Symlink {
            let from_parent = self.vfs.resolve_nofollow(&from_parent_path).ok();
            let to_parent = self.vfs.resolve_nofollow(&to_parent_path).ok();
            let mut moved_target: Option<LinkTarget> = None;
            if let Some(fp) = from_parent {
                if let Some(sd) = state.semdirs.get_mut(&fp) {
                    let name = from.file_name().unwrap_or("").to_string();
                    if let Some(s) = sd.links.remove(&name) {
                        moved_target = Some(s.target.clone());
                        sd.prohibited.insert(s.target);
                    }
                    state.persist_dir(&self.vfs, fp);
                }
            }
            if let Some(tp) = to_parent {
                if state.semdirs.contains_key(&tp) {
                    let target = moved_target.or_else(|| {
                        self.vfs.readlink(to).ok().and_then(|t| {
                            decode_remote_target(&t)
                                .map(|(ns, id)| LinkTarget::Remote(ns, id))
                                .or_else(|| self.vfs.resolve(&t).ok().map(LinkTarget::Local))
                        })
                    });
                    if let Some(t) = target {
                        let name = to.file_name().unwrap_or("link").to_string();
                        let sd = state.semdirs.get_mut(&tp).expect("checked above");
                        sd.prohibited.remove(&t);
                        sd.links.insert(
                            name,
                            LinkState {
                                kind: LinkKind::Permanent,
                                target: t,
                            },
                        );
                        state.persist_dir(&self.vfs, tp);
                    }
                }
            }
        }

        // Directory moved: every semantic directory in the moved subtree
        // whose scope anchor changed must have its hierarchy edge rewired
        // (§2.3 inconsistency source 2). Rewiring is transactional — a
        // cycle rolls back both the graph and the rename.
        if attr.kind == NodeKind::Dir {
            let moved_semdirs: Vec<FileId> = hac_vfs::walk(&self.vfs, to)?
                .into_iter()
                .filter(|e| e.attr.kind == NodeKind::Dir)
                .map(|e| e.attr.id)
                .filter(|id| state.semdirs.contains_key(id))
                .collect();
            if !moved_semdirs.is_empty() {
                let old_graph = state.graph.clone();
                let mut failed = false;
                for dir in &moved_semdirs {
                    let anchor = state.scope_anchor(&self.vfs, *dir);
                    let uid = state.uids.uid_for(*dir);
                    let anchor_uid = state.uids.uid_for(anchor);
                    state
                        .graph
                        .clear_edges(uid, crate::depgraph::EdgeKind::Hierarchy);
                    if !state
                        .graph
                        .add_edge(uid, anchor_uid, crate::depgraph::EdgeKind::Hierarchy)
                    {
                        failed = true;
                        break;
                    }
                }
                if failed {
                    state.graph = old_graph;
                    self.vfs.rename(to, from)?;
                    return Err(HacError::CycleDetected { at: to.clone() });
                }
                // The moved directories' scopes changed with their anchors:
                // re-evaluate them (dependency order) before dependents.
                let uids: Vec<_> = moved_semdirs
                    .iter()
                    .map(|d| state.uids.uid_for(*d))
                    .collect();
                for uid in state.graph.full_order(uids) {
                    if let Some(dir) = state.uids.dir_of(uid) {
                        state.resync_dir(&self.vfs, &self.registry, dir)?;
                    }
                }
            }
        }

        let mut roots = self.ancestor_uids(&state, from);
        roots.extend(self.ancestor_uids(&state, to));
        if let Some(uid) = state.uids.get_uid(attr.id) {
            roots.push(uid);
        }
        state.resync_dependents(&self.vfs, &self.registry, roots)?;
        Ok(())
    }

    /// UIDs of every ancestor directory of `path` (including the parent and
    /// the root) that participates in the dependency graph. These are the
    /// scope-change roots for a mutation at `path`.
    fn ancestor_uids(&self, state: &HacState, path: &VPath) -> Vec<DirUid> {
        let mut out = Vec::new();
        let mut cur = path.parent();
        while let Some(p) = cur {
            if let Ok(id) = self.vfs.resolve_nofollow(&p) {
                if let Some(uid) = state.uids.get_uid(id) {
                    out.push(uid);
                }
            }
            cur = p.parent();
        }
        // The root itself.
        if let Some(uid) = state.uids.get_uid(FileId::ROOT) {
            if !out.contains(&uid) {
                out.push(uid);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Semantic operations
    // ------------------------------------------------------------------

    /// `smkdir`: creates a *semantic directory* with `query_text` and
    /// populates it with transient links to every in-scope match.
    ///
    /// # Errors
    ///
    /// Parse errors, unknown query targets, and [`HacError::CycleDetected`]
    /// if a directory reference would close a dependency cycle (the new
    /// directory is not created in that case).
    pub fn smkdir(&self, path: &VPath, query_text: &str) -> HacResult<FileId> {
        if path.is_root() {
            return Err(HacError::RootHasNoQuery);
        }
        let mut query = parse(query_text)?;
        let dir = self.vfs.mkdir(path)?;
        let mut state = self.state.write();
        if let Err(e) = state.install_query_edges(&self.vfs, dir, &mut query, path) {
            drop(state);
            let _ = self.vfs.rmdir(path);
            return Err(e);
        }
        let uid = state.uids.uid_for(dir);
        state.register_semdir_query(dir, &query.expr);
        state.semdirs.insert(dir, SemDir::new(uid, dir, query));
        state.resync_dir(&self.vfs, &self.registry, dir)?;
        Ok(dir)
    }

    /// `schquery`: replaces the query of a semantic directory and restores
    /// scope consistency for it and everything depending on it (§2.3
    /// inconsistency source 4).
    pub fn set_query(&self, path: &VPath, query_text: &str) -> HacResult<()> {
        let mut query = parse(query_text)?;
        let dir = self.vfs.resolve_nofollow(path)?;
        let mut state = self.state.write();
        if !state.semdirs.contains_key(&dir) {
            return Err(HacError::NotSemantic(path.clone()));
        }
        state.install_query_edges(&self.vfs, dir, &mut query, path)?;
        state.register_semdir_query(dir, &query.expr);
        state
            .semdirs
            .get_mut(&dir)
            .expect("presence checked above")
            .query = query;
        state.resync_dir(&self.vfs, &self.registry, dir)?;
        let uid = state.uids.uid_for(dir);
        state.resync_dependents(&self.vfs, &self.registry, [uid])?;
        Ok(())
    }

    /// `sreadq`: the query of a semantic directory, rendered with current
    /// path names (UIDs are translated back through the global map).
    pub fn get_query(&self, path: &VPath) -> HacResult<String> {
        let dir = self.vfs.resolve_nofollow(path)?;
        let state = self.state.read();
        let sd = state
            .semdirs
            .get(&dir)
            .ok_or_else(|| HacError::NotSemantic(path.clone()))?;
        Ok(sd.query.display_with(|uid| {
            state
                .uids
                .dir_of(uid)
                .and_then(|d| self.vfs.path_of(d).ok())
        }))
    }

    /// Whether `path` is a semantic directory.
    pub fn is_semantic(&self, path: &VPath) -> bool {
        self.vfs
            .resolve_nofollow(path)
            .map(|id| self.state.read().semdirs.contains_key(&id))
            .unwrap_or(false)
    }

    /// `ssync`: re-indexes the subtree at `path`, repairs renamed link
    /// targets, and re-evaluates the semantic directories the pass dirtied.
    /// This is the paper's explicit reindex trigger; the periodic daemon
    /// calls it too.
    ///
    /// The pass runs as a three-phase pipeline so that queries keep being
    /// served while content is tokenized:
    ///
    /// 1. **plan** — a short read lock snapshots the walk (paths, inodes,
    ///    versions) and diffs it against the index;
    /// 2. **tokenize** — changed files are read and run through the
    ///    transducers on `reindex_threads` workers with *no* state lock
    ///    held (the namespace is internally synchronized);
    /// 3. **apply** — one short write phase lands the posting deltas,
    ///    then re-evaluates only the semantic directories whose query terms
    ///    intersect the dirty postings or whose results contain dirty docs
    ///    (plus transitive dependents). An unchanged tree re-evaluates
    ///    nothing.
    pub fn ssync(&self, path: &VPath) -> HacResult<SyncReport> {
        let mut span = hac_obs::span!("ssync", path = path);
        let (plan, threads) = {
            let state = self.state.read();
            let threads = state.config.effective_reindex_threads();
            (state.plan_sync(&self.vfs, path), threads)
        };
        let tokenize_start = std::time::Instant::now();
        let docs = {
            let _tok = hac_obs::current_trace()
                .map(|_| hac_obs::span!("ssync_tokenize", files = plan.to_index.len()));
            crate::state::tokenize_plan(&self.vfs, &self.registry, &plan, threads)
        };
        hac_obs::gauge("hac_reindex_tokenize_threads", &[])
            .set(threads.clamp(1, plan.to_index.len().max(1)) as i64);
        hac_obs::histogram("hac_reindex_tokenize_duration_us", &[])
            .record(tokenize_start.elapsed().as_micros() as u64);
        let mut state = self.state.write();
        let (mut report, dirty, applied) = state.apply_sync(&self.vfs, &plan, docs);
        if let (Some(store), false) = (state.store.as_ref(), applied.is_empty()) {
            // Seal exactly what this apply phase landed into ONE durable
            // segment, while the write lock still guarantees the segment
            // sequence matches the in-memory apply order. A failed commit
            // degrades durability (the delta is re-derived from version
            // comparison after a crash), never in-memory correctness.
            let segment = hac_index::Segment::from_delta(
                store.next_seq(),
                state.index.generation(),
                &applied.adds,
                &applied.removes,
                |d| state.doc_paths.path_of(d).map(str::to_string),
            );
            if let Err(e) = store.commit_segment(&segment) {
                hac_obs::counter("hac_store_commit_failures_total", &[]).inc();
                hac_obs::global()
                    .event("store_commit_failed", vec![("error".into(), e.to_string())]);
            }
        }
        report.links_repaired = state.repair_links(&self.vfs)?;
        report.dirs_synced = {
            let _resync = hac_obs::current_trace().map(|_| hac_obs::span!("ssync_resync"));
            if state.pending_scope_sync {
                state.pending_scope_sync = false;
                state.resync_all(&self.vfs, &self.registry)?
            } else {
                state.resync_dirty(&self.vfs, &self.registry, &dirty)?
            }
        };
        span.field("added", report.added);
        span.field("removed", report.removed);
        hac_obs::counter("hac_ssync_passes_total", &[]).inc();
        hac_obs::counter("hac_reindex_files_indexed_total", &[]).add(report.added + report.updated);
        hac_obs::counter("hac_reindex_files_removed_total", &[]).add(report.removed);
        hac_obs::histogram("hac_ssync_duration_us", &[]).record(span.elapsed_micros());
        Ok(report)
    }

    /// Rebuilds the entire index from scratch and resynchronizes (the
    /// heavyweight periodic reindex; `ssync` is the incremental path).
    pub fn reindex_full(&self) -> HacResult<SyncReport> {
        {
            let mut state = self.state.write();
            state.reset_index();
            // Every semdir must re-evaluate against the fresh index.
            state.pending_scope_sync = true;
        }
        self.ssync(&VPath::root())
    }

    /// `smount`: mounts a remote query system at an existing directory,
    /// making it a *semantic mount point* (§3). Several name spaces may be
    /// mounted on the same point (§3.2); results are unioned.
    pub fn smount(&self, at: &VPath, remote: Arc<dyn RemoteQuerySystem>) -> HacResult<()> {
        let dir = self.vfs.resolve_nofollow(at)?;
        if !self.vfs.lstat(at)?.is_dir() {
            return Err(HacError::NotADirectory(at.clone()));
        }
        let mut state = self.state.write();
        state.mounts.entry(dir).or_default().push(remote);
        let mut roots = self.ancestor_uids(&state, at);
        if let Some(uid) = state.uids.get_uid(dir) {
            roots.push(uid);
        }
        state.resync_dependents(&self.vfs, &self.registry, roots)?;
        Ok(())
    }

    /// Unmounts one namespace (or all, with `None`) from a semantic mount
    /// point. Transient links imported from it disappear at the next
    /// resynchronization of each importing directory.
    pub fn sunmount(&self, at: &VPath, ns: Option<&NamespaceId>) -> HacResult<()> {
        let dir = self.vfs.resolve_nofollow(at)?;
        let mut state = self.state.write();
        let Some(mounted) = state.mounts.get_mut(&dir) else {
            return Err(HacError::NotMounted(at.clone()));
        };
        match ns {
            Some(ns) => {
                let before = mounted.len();
                mounted.retain(|r| &r.namespace() != ns);
                if mounted.len() == before {
                    return Err(HacError::NotMounted(at.clone()));
                }
            }
            None => mounted.clear(),
        }
        if mounted.is_empty() {
            state.mounts.remove(&dir);
        }
        let mut roots = self.ancestor_uids(&state, at);
        if let Some(uid) = state.uids.get_uid(dir) {
            roots.push(uid);
        }
        state.resync_dependents(&self.vfs, &self.registry, roots)?;
        Ok(())
    }

    /// Namespaces mounted at `at`.
    pub fn mounts_at(&self, at: &VPath) -> HacResult<Vec<NamespaceId>> {
        let dir = self.vfs.resolve_nofollow(at)?;
        Ok(self
            .state
            .read()
            .mounts
            .get(&dir)
            .map(|rs| rs.iter().map(|r| r.namespace()).collect())
            .unwrap_or_default())
    }

    /// `sact`: given a symlink inside a semantic directory, returns the
    /// lines of the target that match the directory's query terms — "the
    /// information in the corresponding file that matches the query of the
    /// directory".
    pub fn sact(&self, link: &VPath) -> HacResult<Vec<String>> {
        let parent_path = link
            .parent()
            .ok_or_else(|| HacError::NoQueryContext(link.clone()))?;
        let parent = self.vfs.resolve_nofollow(&parent_path)?;
        let state = self.state.read();
        let sd = state
            .semdirs
            .get(&parent)
            .ok_or_else(|| HacError::NoQueryContext(link.clone()))?;
        // Needles are lowercased once at extraction (a mixed-case query
        // term would otherwise never match the case-folded comparison) and
        // matching is allocation-free per line.
        let mut needles: Vec<String> = Vec::new();
        sd.query.expr.walk(&mut |e| match e {
            hac_query::QueryExpr::Term(t) => needles.push(t.to_ascii_lowercase()),
            hac_query::QueryExpr::Field(_, v) => needles.push(v.to_ascii_lowercase()),
            hac_query::QueryExpr::Phrase(ws) => {
                needles.extend(ws.iter().map(|w| w.to_ascii_lowercase()))
            }
            hac_query::QueryExpr::Approx(t, _) => needles.push(t.to_ascii_lowercase()),
            hac_query::QueryExpr::Prefix(t) => needles.push(t.to_ascii_lowercase()),
            _ => {}
        });
        needles.sort();
        needles.dedup();
        let content = self.fetch_link_bytes(&state, link)?;
        let text = String::from_utf8_lossy(&content);
        Ok(text
            .lines()
            .filter(|line| needles.iter().any(|n| contains_ignore_ascii_case(line, n)))
            .map(str::to_string)
            .collect())
    }

    /// Reads the content behind a symlink — local targets through the
    /// namespace, remote targets through the owning mount.
    pub fn fetch_link(&self, link: &VPath) -> HacResult<Vec<u8>> {
        let state = self.state.read();
        self.fetch_link_bytes(&state, link)
    }

    fn fetch_link_bytes(&self, state: &HacState, link: &VPath) -> HacResult<Vec<u8>> {
        let target = self.vfs.readlink(link)?;
        match decode_remote_target(&target) {
            Some((ns, id)) => {
                let remote = state
                    .find_remote(&ns)
                    .ok_or_else(|| HacError::NotMounted(link.clone()))?;
                Ok(remote.fetch(&id)?)
            }
            None => Ok(self.vfs.read_file(&target)?.to_vec()),
        }
    }

    // ------------------------------------------------------------------
    // The footnote API: direct permanent/prohibited manipulation
    // ------------------------------------------------------------------

    /// Lists the classified links of a semantic directory, sorted by name.
    pub fn list_links(&self, path: &VPath) -> HacResult<Vec<LinkInfo>> {
        let dir = self.vfs.resolve_nofollow(path)?;
        let state = self.state.read();
        let sd = state
            .semdirs
            .get(&dir)
            .ok_or_else(|| HacError::NotSemantic(path.clone()))?;
        let mut out: Vec<LinkInfo> = sd
            .links
            .iter()
            .map(|(name, s)| LinkInfo {
                name: name.clone(),
                kind: s.kind,
                target: s.target.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Promotes a transient link to permanent: HAC will keep it even when
    /// it stops matching the query or leaves the scope.
    pub fn make_permanent(&self, link: &VPath) -> HacResult<()> {
        let parent_path = link
            .parent()
            .ok_or_else(|| HacError::NoQueryContext(link.clone()))?;
        let dir = self.vfs.resolve_nofollow(&parent_path)?;
        let mut state = self.state.write();
        let sd = state
            .semdirs
            .get_mut(&dir)
            .ok_or_else(|| HacError::NotSemantic(parent_path.clone()))?;
        let name = link.file_name().unwrap_or("").to_string();
        match sd.links.get_mut(&name) {
            Some(s) => {
                s.kind = LinkKind::Permanent;
                state.persist_dir(&self.vfs, dir);
                Ok(())
            }
            None => Err(HacError::Vfs(hac_vfs::VfsError::NotFound(link.clone()))),
        }
    }

    /// The prohibited targets of a semantic directory.
    pub fn list_prohibited(&self, path: &VPath) -> HacResult<Vec<LinkTarget>> {
        let dir = self.vfs.resolve_nofollow(path)?;
        let state = self.state.read();
        let sd = state
            .semdirs
            .get(&dir)
            .ok_or_else(|| HacError::NotSemantic(path.clone()))?;
        let mut v: Vec<LinkTarget> = sd.prohibited.iter().cloned().collect();
        v.sort();
        Ok(v)
    }

    /// Removes a prohibition, letting the next resynchronization re-add a
    /// transient link if the target matches again.
    pub fn forgive(&self, path: &VPath, target: &LinkTarget) -> HacResult<bool> {
        let dir = self.vfs.resolve_nofollow(path)?;
        let mut state = self.state.write();
        let sd = state
            .semdirs
            .get_mut(&dir)
            .ok_or_else(|| HacError::NotSemantic(path.clone()))?;
        let removed = sd.prohibited.remove(target);
        if removed {
            state.persist_dir(&self.vfs, dir);
            state.resync_dir(&self.vfs, &self.registry, dir)?;
            let uid = state.uids.uid_for(dir);
            state.resync_dependents(&self.vfs, &self.registry, [uid])?;
        }
        Ok(removed)
    }

    // ------------------------------------------------------------------
    // Index persistence
    // ------------------------------------------------------------------

    /// Attaches a durable index store over `backend`. From here on, every
    /// `ssync` apply phase commits its delta as one crash-atomic segment,
    /// [`HacFs::persist_index`] checkpoints through the store, and
    /// [`HacFs::load_index`] recovers through it (manifest + segments +
    /// WAL tail). A corrupt manifest degrades to a fresh store (and a cold
    /// rebuild) rather than failing attachment — surfaced via
    /// `hac_store_open_failures_total`.
    pub fn attach_store(&self, backend: Arc<dyn hac_store::ContentStore>) -> HacResult<()> {
        let mut state = self.state.write();
        let threshold = state.config.store_merge_threshold;
        let store = match crate::store::IndexStore::open(Arc::clone(&backend), threshold) {
            Ok(store) => store,
            Err(e) => {
                hac_obs::counter("hac_store_open_failures_total", &[]).inc();
                hac_obs::global().event("store_open_failed", vec![("error".into(), e.to_string())]);
                // Reset the commit point so the fresh store's first commit
                // is not shadowed by the unreadable manifest.
                backend.wal_reset().map_err(HacError::from)?;
                crate::store::IndexStore::open_fresh(backend, threshold)
            }
        };
        state.store = Some(Arc::new(store));
        Ok(())
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<Arc<crate::store::IndexStore>> {
        self.state.read().store.clone()
    }

    /// Current index generation (for tests and recovery assertions).
    pub fn index_generation(&self) -> u64 {
        self.state.read().index.generation()
    }

    /// Persists the content index so a restored snapshot can warm-start
    /// with [`HacFs::load_index`] instead of re-tokenizing every file
    /// (Glimpse likewise keeps its index files on disk).
    ///
    /// With a store attached this is a *checkpoint*: the whole index
    /// becomes the new base snapshot and the segment run resets. Without
    /// one, it writes the legacy single-file snapshot (now carrying the
    /// versioned `HACI` envelope).
    pub fn persist_index(&self) -> HacResult<()> {
        let state = self.state.read();
        if let Some(store) = state.store.as_ref() {
            store.checkpoint(&state.index, &state.doc_paths.dump())?;
            return Ok(());
        }
        let bytes = crate::store::encode_index_snapshot(&state.index);
        drop(state);
        let meta_dir = VPath::from_components([crate::state::META_DIR])?;
        self.vfs.mkdir_p(&meta_dir)?;
        self.vfs.save(&meta_dir.join("index")?, &bytes)?;
        Ok(())
    }

    /// Loads a previously persisted index. Returns `false` (leaving the
    /// current index untouched) when nothing durable exists or it fails to
    /// decode. Content that changed since persistence is reconciled by the
    /// next `ssync`, exactly like any other stale index state.
    ///
    /// With a store attached, recovery replays `base + segments + WAL
    /// tail` (completing any commit a crash interrupted). The legacy
    /// single-file snapshot remains readable as the migration path; it
    /// must carry the versioned `HACI` envelope.
    pub fn load_index(&self) -> HacResult<bool> {
        let (store, granularity) = {
            let state = self.state.read();
            (state.store.clone(), state.config.granularity)
        };
        if let Some(store) = store {
            match store.recover(granularity) {
                Ok(Some(rec)) => {
                    hac_obs::global().event(
                        "store_recovered",
                        vec![
                            ("docs".into(), rec.report.docs.to_string()),
                            ("segments".into(), rec.report.segments_replayed.to_string()),
                            (
                                "wal_completed".into(),
                                rec.report.wal_commits_completed.to_string(),
                            ),
                        ],
                    );
                    self.install_loaded_index(rec.index, Some(rec.paths));
                    return Ok(true);
                }
                // Nothing durable in the store yet: fall through to the
                // legacy snapshot (the migration path).
                Ok(None) => {}
                Err(e) => {
                    hac_obs::counter("hac_store_recovery_failures_total", &[]).inc();
                    hac_obs::global().event(
                        "store_recovery_failed",
                        vec![("error".into(), e.to_string())],
                    );
                    return Ok(false);
                }
            }
        }
        self.load_legacy_snapshot()
    }

    /// The legacy whole-snapshot read path (read-only migration path when
    /// a store is attached; the only path when not).
    fn load_legacy_snapshot(&self) -> HacResult<bool> {
        let meta_dir = VPath::from_components([crate::state::META_DIR])?;
        let Ok(bytes) = self.vfs.read_file(&meta_dir.join("index")?) else {
            return Ok(false);
        };
        let index = match crate::store::decode_index_snapshot(&bytes) {
            Ok(crate::store::SnapshotDecode::Current(index)) => *index,
            Ok(crate::store::SnapshotDecode::VersionSkew(version)) => {
                // A future (or retired) snapshot format: structurally fine,
                // just not ours. Degrade to a counted migration — the next
                // ssync cold-rebuilds — instead of a silent decode failure.
                hac_obs::counter("hac_index_snapshot_version_skew_total", &[]).inc();
                hac_obs::global().event(
                    "index_snapshot_version_skew",
                    vec![("version".to_string(), version.to_string())],
                );
                return Ok(false);
            }
            Err(_) => {
                // Corruption, a file without the envelope, or a layout
                // change in `Index`. Surface it — the operator is
                // about to pay for a full reindex and should see why the
                // warm start didn't happen.
                hac_obs::counter("hac_index_snapshot_decode_failures_total", &[]).inc();
                hac_obs::global().event(
                    "index_snapshot_decode_failed",
                    vec![("bytes".to_string(), bytes.len().to_string())],
                );
                return Ok(false);
            }
        };
        self.install_loaded_index(index, None);
        Ok(true)
    }

    fn install_loaded_index(&self, index: hac_index::Index, restored: Option<Vec<(u64, String)>>) {
        let mut state = self.state.write();
        state.index = index;
        // The loaded index restarts the generation lineage; cached results
        // keyed against the old lineage must not validate against it.
        state.result_cache.clear();
        // Fast path: the durable trail carried every live document's
        // indexed path, so the doc→path map rebuilds in O(index) without
        // touching the namespace. Documents that vanished while the
        // system was down keep their (now stale) path and are swept by
        // the next ssync pass, exactly like a removal between passes.
        if let Some(pairs) = restored {
            let mut map = crate::dirty::DocPathMap::new();
            for (doc, path) in &pairs {
                if let Ok(vpath) = VPath::parse(path) {
                    map.record(hac_index::DocId(*doc), &vpath);
                }
            }
            let covered = state
                .index
                .all_docs()
                .ids()
                .iter()
                .all(|d| map.path_of(*d).is_some());
            if covered {
                state.doc_paths = map;
                return;
            }
            // A trail sealed without paths (or with holes): fall back to
            // the walk below.
        }
        let pruned = state.rebuild_doc_paths(&self.vfs);
        if let (Some(store), false) = (state.store.as_ref(), pruned.is_empty()) {
            // Make the vanished-doc prune durable, or every future
            // recovery resurrects and re-prunes the same docs.
            let segment = hac_index::Segment::from_delta(
                store.next_seq(),
                state.index.generation(),
                &[],
                &pruned,
                |_| None,
            );
            if let Err(e) = store.commit_segment(&segment) {
                hac_obs::counter("hac_store_commit_failures_total", &[]).inc();
                hac_obs::global()
                    .event("store_commit_failed", vec![("error".into(), e.to_string())]);
            }
        }
    }

    /// One background maintenance step for the attached store (the daemon
    /// calls this each tick): checkpoint when the delta run outweighs the
    /// in-memory index (size-tiering's top tier), otherwise fold the
    /// oldest segments back under the configured threshold. No-op without
    /// a store.
    pub fn store_maintain(&self) -> HacResult<()> {
        let state = self.state.read();
        let Some(store) = state.store.clone() else {
            return Ok(());
        };
        let status = store.status()?;
        let doc_count = state.index.doc_count();
        // Strictly greater: a run that merely covers each doc once costs
        // the same to replay as a snapshot costs to decode; only
        // *redundancy* (rewrites, removals) makes the checkpoint pay.
        if status.segments_live > 1 && status.segment_docs > doc_count {
            // Replaying the run costs more than decoding a snapshot:
            // fold everything into a fresh base. The read lock keeps
            // ssync from moving the index under the checkpoint.
            store.checkpoint(&state.index, &state.doc_paths.dump())?;
            return Ok(());
        }
        drop(state);
        store.maintain()?;
        Ok(())
    }

    /// Sweeps unreferenced store objects older than `grace` (in the
    /// backend's age unit: seconds on disk, logical ticks in the VFS).
    pub fn store_gc(&self, grace: u64) -> HacResult<crate::store::GcReport> {
        let store = self
            .store()
            .ok_or_else(|| HacError::Store("no store attached".into()))?;
        Ok(store.gc(grace)?)
    }

    /// Status of the attached store.
    pub fn store_status(&self) -> HacResult<crate::store::StoreStatus> {
        let store = self
            .store()
            .ok_or_else(|| HacError::Store("no store attached".into()))?;
        Ok(store.status()?)
    }

    // ------------------------------------------------------------------
    // Metadata recovery
    // ------------------------------------------------------------------

    /// Rebuilds HAC metadata (semantic directories, UID bindings, link
    /// classification, prohibited sets, dependency graph) from the
    /// persisted records in the reserved metadata area. Combined with a
    /// VFS snapshot this makes a whole HAC file system durable:
    ///
    /// 1. `hac_vfs::persist::snapshot(fs.vfs())` — namespace + metadata;
    /// 2. restore into a fresh VFS;
    /// 3. `recover_metadata()` on a new `HacFs` over it;
    /// 4. `ssync("/")` to rebuild the (volatile) index.
    ///
    /// Returns the number of semantic directories recovered. Records whose
    /// directory no longer exists are skipped; queries that no longer parse
    /// or whose references vanished are skipped (the directory degrades to
    /// a plain one rather than poisoning recovery).
    pub fn recover_metadata(&self) -> HacResult<u64> {
        let meta_dir = VPath::from_components([crate::state::META_DIR])?;
        let entries = match self.vfs.readdir(&meta_dir) {
            Ok(e) => e,
            Err(_) => return Ok(0),
        };
        let mut state = self.state.write();
        let mut recovered = 0;
        // Pass 1: restore UID bindings (queries reference them).
        let mut records: Vec<(FileId, crate::state::DirRecordDisk)> = Vec::new();
        for entry in &entries {
            let Some(num) = entry
                .name
                .strip_prefix('d')
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let dir = FileId(num);
            // The directory must still exist and be a directory.
            let Ok(path) = self.vfs.path_of(dir) else {
                continue;
            };
            let Ok(attr) = self.vfs.lstat(&path) else {
                continue;
            };
            if !attr.is_dir() {
                continue;
            }
            let Ok(meta_path) = meta_dir.join(&entry.name) else {
                continue;
            };
            let Ok(bytes) = self.vfs.read_file(&meta_path) else {
                continue;
            };
            let Ok(record) = hac_codec::decode_value::<crate::state::DirRecordDisk>(&bytes) else {
                continue;
            };
            state.uids.bind(DirUid(record.uid), dir);
            records.push((dir, record));
        }
        // Pass 2: rebuild semantic directories and their edges.
        for (dir, record) in records {
            let Some(query_text) = record.query else {
                continue;
            };
            let Ok(mut query) = parse(&query_text) else {
                continue;
            };
            let Ok(dir_path) = self.vfs.path_of(dir) else {
                continue;
            };
            if state
                .install_query_edges(&self.vfs, dir, &mut query, &dir_path)
                .is_err()
            {
                continue;
            }
            let uid = DirUid(record.uid);
            let mut sd = SemDir::new(uid, dir, query);
            for (name, kind, encoded) in record.links {
                let Some(target) = crate::state::decode_target(&encoded) else {
                    continue;
                };
                let kind = if kind == 1 {
                    LinkKind::Permanent
                } else {
                    LinkKind::Transient
                };
                sd.links.insert(name, LinkState { kind, target });
            }
            for encoded in record.prohibited {
                if let Some(target) = crate::state::decode_target(&encoded) {
                    sd.prohibited.insert(target);
                }
            }
            state.register_semdir_query(dir, &sd.query.expr);
            state.semdirs.insert(dir, sd);
            recovered += 1;
        }
        Ok(recovered)
    }

    // ------------------------------------------------------------------
    // Introspection for tests, benches and tools
    // ------------------------------------------------------------------

    /// Runs an ad-hoc query against the scope provided by `scope_dir`
    /// without creating a directory (raw Glimpse-style search, the baseline
    /// of Table 4).
    pub fn search(&self, scope_dir: &VPath, query_text: &str) -> HacResult<Vec<VPath>> {
        let query = parse(query_text)?;
        let dir = self.vfs.resolve_nofollow(scope_dir)?;
        let state = self.state.read();
        // "Search within this directory" means the reference scope: the
        // curated set for a semantic directory, the subtree for a plain one.
        let scope = state.reference_scope(&self.vfs, dir);
        let result = state.eval_local(&self.vfs, &self.registry, &query.expr, &scope.local);
        Ok(result
            .ids()
            .into_iter()
            .filter_map(|doc| self.vfs.path_of(FileId(doc.0)).ok())
            .collect())
    }

    /// Like [`HacFs::search`], additionally returning the index's work
    /// counters — how many candidates were examined, how many verified
    /// against live content, how many were index false positives. The
    /// shell's `explain` command prints this.
    pub fn search_explained(
        &self,
        scope_dir: &VPath,
        query_text: &str,
    ) -> HacResult<(Vec<VPath>, hac_index::EvalStats)> {
        let query = parse(query_text)?;
        let dir = self.vfs.resolve_nofollow(scope_dir)?;
        let state = self.state.read();
        let scope = state.reference_scope(&self.vfs, dir);
        let mut stats = hac_index::EvalStats::default();
        let result = state.eval_local_timed(
            &self.vfs,
            &self.registry,
            &query.expr,
            &scope.local,
            &mut stats,
        );
        let hits = result
            .ids()
            .into_iter()
            .filter_map(|doc| self.vfs.path_of(FileId(doc.0)).ok())
            .collect();
        Ok((hits, stats))
    }

    /// The scope a directory currently provides (diagnostics).
    pub fn scope_of(&self, path: &VPath) -> HacResult<Scope> {
        let dir = self.vfs.resolve_nofollow(path)?;
        let state = self.state.read();
        Ok(state.scope_provided(&self.vfs, dir))
    }

    /// The last evaluated local result bitmap of a semantic directory.
    pub fn result_bitmap(&self, path: &VPath) -> HacResult<Bitmap> {
        let dir = self.vfs.resolve_nofollow(path)?;
        let state = self.state.read();
        let sd = state
            .semdirs
            .get(&dir)
            .ok_or_else(|| HacError::NotSemantic(path.clone()))?;
        Ok(sd.last_result.clone())
    }

    /// Index statistics (Table 3).
    pub fn index_stats(&self) -> IndexStats {
        self.state.read().index.stats()
    }

    /// Resident bytes of all HAC metadata (§4 in-text space overhead).
    pub fn metadata_bytes(&self) -> u64 {
        self.state.read().metadata_bytes()
    }

    /// Whether a file is currently indexed.
    pub fn is_indexed(&self, path: &VPath) -> bool {
        match self.vfs.resolve(path) {
            Ok(id) => self.state.read().index.is_indexed(DocId(id.0)),
            Err(_) => false,
        }
    }

    /// Evaluation provider (verification callback) — exposed for benches.
    pub fn provider(&self) -> VfsProvider<'_> {
        VfsProvider {
            vfs: &self.vfs,
            registry: &self.registry,
        }
    }

    /// Declassifies and returns the query of a semantic directory (typed
    /// form, for tools).
    pub fn query_of(&self, path: &VPath) -> HacResult<Query> {
        let dir = self.vfs.resolve_nofollow(path)?;
        let state = self.state.read();
        let sd = state
            .semdirs
            .get(&dir)
            .ok_or_else(|| HacError::NotSemantic(path.clone()))?;
        Ok(sd.query.clone())
    }
}
