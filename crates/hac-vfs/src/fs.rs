//! The virtual file system.
//!
//! [`Vfs`] is the substrate the HAC layer builds on: a thread-safe,
//! in-process hierarchical file system with regular files, directories,
//! symbolic links, per-process file descriptors, a shared attribute cache,
//! and read-through syntactic mount points.
//!
//! The public surface deliberately mirrors the narrow API the paper's HAC
//! prototype required from its native file system ("HAC interacts with UNIX
//! using a well defined API which assumes very little about the native file
//! system").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use hac_obs::sync::{read, write};

use crate::attr::{Attr, FileId, LogicalTime, NodeKind};
use crate::attrcache::{AttrCache, CacheStats};
use crate::error::{VfsError, VfsResult};
use crate::fd::{Fd, OpenMode, ProcessId, ProcessRegistry};
use crate::node::{Node, NodeBody, NodeTable};
use crate::path::{is_component, VPath};

/// Maximum number of symbolic links a single resolution may traverse before
/// the VFS reports a cycle.
pub const MAX_LINK_DEPTH: usize = 40;

/// Default capacity of the shared attribute cache, in entries.
pub const DEFAULT_ATTR_CACHE_CAPACITY: usize = 4096;

/// One entry as returned by [`Vfs::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name within the directory.
    pub name: String,
    /// Id of the entry's node.
    pub id: FileId,
    /// Kind of the entry's node.
    pub kind: NodeKind,
}

/// Behaviour of [`Vfs::open`] when the path does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreatePolicy {
    /// Fail with [`VfsError::NotFound`] if missing.
    MustExist,
    /// Create an empty regular file if missing.
    CreateIfMissing,
    /// Create if missing, truncate to empty if present.
    CreateOrTruncate,
}

/// Cheap operation counters, useful when analysing where a layered file
/// system spends its substrate calls.
#[derive(Debug, Default)]
pub struct SyscallCounters {
    lookups: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    creates: AtomicU64,
    removes: AtomicU64,
    renames: AtomicU64,
}

/// Snapshot of [`SyscallCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallSnapshot {
    /// Path resolutions / stats / readdirs.
    pub lookups: u64,
    /// File content reads.
    pub reads: u64,
    /// File content writes.
    pub writes: u64,
    /// Node creations (files, dirs, symlinks).
    pub creates: u64,
    /// Node removals.
    pub removes: u64,
    /// Renames.
    pub renames: u64,
}

impl SyscallCounters {
    fn snapshot(&self) -> SyscallSnapshot {
        SyscallSnapshot {
            lookups: self.lookups.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            creates: self.creates.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
struct Inner {
    nodes: NodeTable,
    /// Mount points: directory id → foreign namespace grafted there.
    mounts: Vec<(FileId, Arc<Vfs>)>,
    clock: u64,
}

impl Inner {
    fn tick(&mut self) -> LogicalTime {
        self.clock += 1;
        LogicalTime(self.clock)
    }

    fn mount_at(&self, id: FileId) -> Option<Arc<Vfs>> {
        self.mounts
            .iter()
            .find(|(m, _)| *m == id)
            .map(|(_, v)| Arc::clone(v))
    }
}

/// Result of resolving a path that may cross a mount point.
enum Target {
    /// The path resolves inside this namespace.
    Local(FileId),
    /// The path continues inside a mounted namespace.
    Foreign(Arc<Vfs>, VPath),
}

/// The in-process hierarchical file system.
///
/// All methods take `&self`; interior locking makes a `Vfs` shareable via
/// [`Arc`] between the HAC layer, benchmark drivers and the reindex daemon.
///
/// # Examples
///
/// ```
/// use hac_vfs::{Vfs, VPath};
///
/// let fs = Vfs::new();
/// fs.mkdir_p(&VPath::parse("/home/user").unwrap()).unwrap();
/// fs.save(&VPath::parse("/home/user/note.txt").unwrap(), b"fingerprint minutiae").unwrap();
/// let data = fs.read_file(&VPath::parse("/home/user/note.txt").unwrap()).unwrap();
/// assert_eq!(&data[..], b"fingerprint minutiae");
/// ```
#[derive(Debug)]
pub struct Vfs {
    inner: RwLock<Inner>,
    attr_cache: AttrCache,
    procs: RwLock<ProcessRegistry>,
    counters: SyscallCounters,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates an empty namespace containing only the root directory.
    pub fn new() -> Self {
        Self::with_cache_capacity(DEFAULT_ATTR_CACHE_CAPACITY)
    }

    /// Creates an empty namespace with a custom attribute-cache capacity.
    pub fn with_cache_capacity(cache_entries: usize) -> Self {
        Vfs {
            inner: RwLock::new(Inner {
                nodes: NodeTable::with_root(),
                mounts: Vec::new(),
                clock: 0,
            }),
            attr_cache: AttrCache::new(cache_entries),
            procs: RwLock::new(ProcessRegistry::default()),
            counters: SyscallCounters::default(),
        }
    }

    // ------------------------------------------------------------------
    // Processes, statistics
    // ------------------------------------------------------------------

    /// Registers a lightweight process (owner of a descriptor table).
    pub fn spawn_process(&self) -> ProcessId {
        write(&self.procs).spawn()
    }

    /// Tears down a process and its descriptors.
    ///
    /// # Errors
    ///
    /// [`VfsError::BadProcess`] if the process is unknown.
    pub fn exit_process(&self, pid: ProcessId) -> VfsResult<()> {
        write(&self.procs).exit(pid)
    }

    /// Snapshot of the substrate-call counters.
    pub fn counters(&self) -> SyscallSnapshot {
        self.counters.snapshot()
    }

    /// Snapshot of attribute-cache statistics.
    pub fn attr_cache_stats(&self) -> CacheStats {
        self.attr_cache.stats()
    }

    /// Resident bytes of per-process state (descriptor tables), mirroring
    /// the paper's ~16 KB/process shared-memory figure.
    pub fn process_resident_bytes(&self) -> u64 {
        read(&self.procs).resident_bytes() + self.attr_cache.resident_bytes()
    }

    /// Approximate metadata footprint of the namespace in bytes (no file
    /// content), for the §4 space-overhead comparison.
    pub fn metadata_bytes(&self) -> u64 {
        read(&self.inner).nodes.metadata_bytes()
    }

    /// Number of live nodes, including the root.
    pub fn node_count(&self) -> usize {
        read(&self.inner).nodes.len()
    }

    /// Current logical time.
    pub fn now(&self) -> LogicalTime {
        LogicalTime(read(&self.inner).clock)
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Resolves a path to a node id, following symbolic links everywhere
    /// (including the final component). Crosses mount points.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`], [`VfsError::NotADirectory`],
    /// [`VfsError::TooManyLinks`], or [`VfsError::Unsupported`] when the
    /// path lands in a foreign namespace (foreign ids are not exposed; use
    /// the read operations, which delegate transparently).
    pub fn resolve(&self, path: &VPath) -> VfsResult<FileId> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, true, 0)? {
            Target::Local(id) => Ok(id),
            Target::Foreign(..) => Err(VfsError::Unsupported("foreign node id")),
        }
    }

    /// Like [`Vfs::resolve`] but does not follow a symlink in the final
    /// component, and does not descend into a mount covering the final
    /// component (so mount points themselves stay addressable for
    /// [`Vfs::mount`]/[`Vfs::unmount`] management).
    pub fn resolve_nofollow(&self, path: &VPath) -> VfsResult<FileId> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target_inner(path, false, 0, false)? {
            Target::Local(id) => Ok(id),
            Target::Foreign(..) => Err(VfsError::Unsupported("foreign node id")),
        }
    }

    /// Whether a path resolves (following links).
    pub fn exists(&self, path: &VPath) -> bool {
        self.stat(path).is_ok()
    }

    /// Reconstructs the absolute path of a node by walking parent pointers.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if the node is not live.
    pub fn path_of(&self, id: FileId) -> VfsResult<VPath> {
        let inner = read(&self.inner);
        let mut names: Vec<String> = Vec::new();
        let mut cur = id;
        let mut hops = 0usize;
        while cur != FileId::ROOT {
            let node = inner
                .nodes
                .get(cur)
                .ok_or_else(|| VfsError::NotFound(VPath::root()))?;
            names.push(node.name.clone());
            cur = node.parent;
            hops += 1;
            if hops > inner.nodes.len() {
                return Err(VfsError::NotFound(VPath::root()));
            }
        }
        names.reverse();
        VPath::from_components(names)
    }

    fn resolve_target(&self, path: &VPath, follow_last: bool, depth: usize) -> VfsResult<Target> {
        self.resolve_target_inner(path, follow_last, depth, true)
    }

    fn resolve_target_inner(
        &self,
        path: &VPath,
        follow_last: bool,
        depth: usize,
        cross_trailing_mount: bool,
    ) -> VfsResult<Target> {
        if depth > MAX_LINK_DEPTH {
            return Err(VfsError::TooManyLinks(path.clone()));
        }
        // Collect any symlink/mount redirection under the lock, then recurse
        // outside it so a foreign namespace never sees our lock held.
        enum Redirect {
            Done(FileId),
            FollowLink(VPath),
            IntoMount(Arc<Vfs>, VPath),
        }
        let redirect = {
            let inner = read(&self.inner);
            let comps: Vec<&str> = path.components().collect();
            let mut cur = FileId::ROOT;
            let mut redirect = None;
            let mut walked = VPath::root();
            for (i, comp) in comps.iter().enumerate() {
                let is_last = i + 1 == comps.len();
                // Descend through a mount point before looking up the child.
                if let Some(foreign) = inner.mount_at(cur) {
                    let rest = VPath::from_components(comps[i..].iter().map(|s| s.to_string()))?;
                    redirect = Some(Redirect::IntoMount(foreign, rest));
                    break;
                }
                let node = inner
                    .nodes
                    .get(cur)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = node
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(walked.clone()))?;
                let child = *entries
                    .get(*comp)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                walked = walked.join(comp)?;
                let child_node = inner
                    .nodes
                    .get(child)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                if let NodeBody::Symlink { target } = &child_node.body {
                    if is_last && !follow_last {
                        redirect = Some(Redirect::Done(child));
                        break;
                    }
                    // Splice the link target in front of the remaining
                    // components and restart.
                    let mut spliced: Vec<String> =
                        target.components().map(str::to_string).collect();
                    spliced.extend(comps[i + 1..].iter().map(|s| s.to_string()));
                    redirect = Some(Redirect::FollowLink(VPath::from_components(spliced)?));
                    break;
                }
                cur = child;
            }
            redirect.unwrap_or(Redirect::Done(cur))
        };
        match redirect {
            Redirect::Done(id) => {
                // A trailing mount point swallows the node it covers, unless
                // the caller manages mounts and needs the covered node.
                if cross_trailing_mount {
                    if let Some(foreign) = read(&self.inner).mount_at(id) {
                        return Ok(Target::Foreign(foreign, VPath::root()));
                    }
                }
                Ok(Target::Local(id))
            }
            Redirect::FollowLink(next) => {
                self.resolve_target_inner(&next, follow_last, depth + 1, cross_trailing_mount)
            }
            Redirect::IntoMount(foreign, rest) => Ok(Target::Foreign(foreign, rest)),
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// `stat`: attributes of the node at `path`, following symlinks. Served
    /// from the shared attribute cache when possible.
    pub fn stat(&self, path: &VPath) -> VfsResult<Attr> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, true, 0)? {
            Target::Local(id) => self.attr_of(id, path),
            Target::Foreign(ns, rest) => ns.stat(&rest),
        }
    }

    /// `lstat`: like [`Vfs::stat`] but reports a final-component symlink
    /// itself.
    pub fn lstat(&self, path: &VPath) -> VfsResult<Attr> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, false, 0)? {
            Target::Local(id) => self.attr_of(id, path),
            Target::Foreign(ns, rest) => ns.lstat(&rest),
        }
    }

    fn attr_of(&self, id: FileId, path: &VPath) -> VfsResult<Attr> {
        if let Some(attr) = self.attr_cache.get(id) {
            return Ok(attr);
        }
        let inner = read(&self.inner);
        let node = inner
            .nodes
            .get(id)
            .ok_or_else(|| VfsError::NotFound(path.clone()))?;
        let attr = node.attr();
        drop(inner);
        self.attr_cache.put(attr);
        Ok(attr)
    }

    /// Reads a whole regular file, following symlinks.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsADirectory`] when the path names a directory, plus the
    /// resolution errors.
    pub fn read_file(&self, path: &VPath) -> VfsResult<Arc<[u8]>> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, true, 0)? {
            Target::Local(id) => {
                let inner = read(&self.inner);
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                match &node.body {
                    NodeBody::File { data } => Ok(Arc::clone(data)),
                    NodeBody::Dir { .. } => Err(VfsError::IsADirectory(path.clone())),
                    NodeBody::Symlink { .. } => Err(VfsError::DanglingLink(path.clone())),
                }
            }
            Target::Foreign(ns, rest) => ns.read_file(&rest),
        }
    }

    /// Reads the target of a symbolic link without following it.
    pub fn readlink(&self, path: &VPath) -> VfsResult<VPath> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, false, 0)? {
            Target::Local(id) => {
                let inner = read(&self.inner);
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                match &node.body {
                    NodeBody::Symlink { target } => Ok(target.clone()),
                    _ => Err(VfsError::Unsupported("readlink on non-symlink")),
                }
            }
            Target::Foreign(ns, rest) => ns.readlink(&rest),
        }
    }

    /// Lists a directory in name order.
    pub fn readdir(&self, path: &VPath) -> VfsResult<Vec<DirEntry>> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, true, 0)? {
            Target::Local(id) => {
                let inner = read(&self.inner);
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = node
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
                let mut out = Vec::with_capacity(entries.len());
                for (name, child) in entries {
                    let kind = inner
                        .nodes
                        .get(*child)
                        .map(Node::kind)
                        .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                    out.push(DirEntry {
                        name: name.clone(),
                        id: *child,
                        kind,
                    });
                }
                Ok(out)
            }
            Target::Foreign(ns, rest) => ns.readdir(&rest),
        }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    fn require_local_parent(&self, path: &VPath) -> VfsResult<(FileId, String)> {
        let parent = path.parent().ok_or(VfsError::RootImmutable)?;
        let name = path.file_name().ok_or(VfsError::RootImmutable)?.to_string();
        match self.resolve_target(&parent, true, 0)? {
            Target::Local(id) => Ok((id, name)),
            Target::Foreign(..) => Err(VfsError::CrossMount(path.clone())),
        }
    }

    /// Creates a directory. The parent must exist.
    pub fn mkdir(&self, path: &VPath) -> VfsResult<FileId> {
        self.counters.creates.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let id = Self::insert_child(&mut write(&self.inner), parent, &name, path, |id, t| Node {
            id,
            parent,
            name: name.clone(),
            ctime: t,
            mtime: t,
            version: 0,
            body: NodeBody::Dir {
                entries: Default::default(),
            },
        })?;
        self.attr_cache.invalidate(parent);
        Ok(id)
    }

    /// Creates a directory and any missing ancestors; returns the id of the
    /// deepest directory. Existing directories along the way are accepted.
    pub fn mkdir_p(&self, path: &VPath) -> VfsResult<FileId> {
        let mut cur = VPath::root();
        let mut id = FileId::ROOT;
        for comp in path.components() {
            cur = cur.join(comp)?;
            match self.mkdir(&cur) {
                Ok(new_id) => id = new_id,
                Err(VfsError::AlreadyExists(_)) => {
                    id = self.resolve(&cur)?;
                    let attr = self.attr_of(id, &cur)?;
                    if !attr.is_dir() {
                        return Err(VfsError::NotADirectory(cur));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(id)
    }

    /// Creates an empty regular file.
    pub fn create(&self, path: &VPath) -> VfsResult<FileId> {
        self.counters.creates.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let id = Self::insert_child(&mut write(&self.inner), parent, &name, path, |id, t| Node {
            id,
            parent,
            name: name.clone(),
            ctime: t,
            mtime: t,
            version: 0,
            body: NodeBody::File {
                data: Arc::from([]),
            },
        })?;
        self.attr_cache.invalidate(parent);
        Ok(id)
    }

    /// Creates a symbolic link at `path` pointing to `target`.
    pub fn symlink(&self, path: &VPath, target: &VPath) -> VfsResult<FileId> {
        self.counters.creates.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let id = Self::insert_child(&mut write(&self.inner), parent, &name, path, |id, t| Node {
            id,
            parent,
            name: name.clone(),
            ctime: t,
            mtime: t,
            version: 0,
            body: NodeBody::Symlink {
                target: target.clone(),
            },
        })?;
        self.attr_cache.invalidate(parent);
        Ok(id)
    }

    /// Creates many symbolic links in one directory under a single lock
    /// acquisition. Either all links are created or none: every name is
    /// checked (well-formed, no collision) before anything is inserted.
    /// Used by bulk producers like HAC's scope resynchronization, where
    /// per-link locking would dominate.
    pub fn symlink_batch(&self, dir: &VPath, links: &[(String, VPath)]) -> VfsResult<Vec<FileId>> {
        if links.is_empty() {
            return Ok(Vec::new());
        }
        self.counters
            .creates
            .fetch_add(links.len() as u64, Ordering::Relaxed);
        let parent = match self.resolve_target(dir, true, 0)? {
            Target::Local(id) => id,
            Target::Foreign(..) => return Err(VfsError::CrossMount(dir.clone())),
        };
        let mut ids = Vec::with_capacity(links.len());
        {
            let mut inner = write(&self.inner);
            let t = inner.tick();
            {
                let pnode = inner
                    .nodes
                    .get(parent)
                    .ok_or_else(|| VfsError::NotFound(dir.clone()))?;
                let entries = pnode
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(dir.clone()))?;
                // Duplicate names inside the batch are also collisions.
                let mut seen = std::collections::HashSet::with_capacity(links.len());
                for (name, _) in links {
                    if !is_component(name) {
                        return Err(VfsError::InvalidPath(name.clone()));
                    }
                    if entries.contains_key(name) || !seen.insert(name.as_str()) {
                        return Err(VfsError::AlreadyExists(dir.join(name)?));
                    }
                }
            }
            for (name, target) in links {
                let id = inner.nodes.alloc_id();
                inner.nodes.insert(Node {
                    id,
                    parent,
                    name: name.clone(),
                    ctime: t,
                    mtime: t,
                    version: 0,
                    body: NodeBody::Symlink {
                        target: target.clone(),
                    },
                });
                ids.push(id);
            }
            let pnode = inner
                .nodes
                .get_mut(parent)
                .expect("parent vanished under write lock");
            pnode.mtime = t;
            let entries = pnode.dir_entries_mut().expect("parent is a directory");
            for ((name, _), id) in links.iter().zip(ids.iter()) {
                entries.insert(name.clone(), *id);
            }
        }
        self.attr_cache.invalidate(parent);
        Ok(ids)
    }

    fn insert_child(
        inner: &mut Inner,
        parent: FileId,
        name: &str,
        path: &VPath,
        make: impl Fn(FileId, LogicalTime) -> Node,
    ) -> VfsResult<FileId> {
        let t = inner.tick();
        {
            let pnode = inner
                .nodes
                .get(parent)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            let entries = pnode
                .dir_entries()
                .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
            if entries.contains_key(name) {
                return Err(VfsError::AlreadyExists(path.clone()));
            }
        }
        let id = inner.nodes.alloc_id();
        inner.nodes.insert(make(id, t));
        let pnode = inner
            .nodes
            .get_mut(parent)
            .ok_or_else(|| VfsError::NotFound(path.clone()))?;
        pnode.mtime = t;
        if let Some(entries) = pnode.dir_entries_mut() {
            entries.insert(name.to_string(), id);
        }
        Ok(id)
    }

    /// Replaces the content of an existing regular file (follows symlinks).
    pub fn write_file(&self, path: &VPath, data: &[u8]) -> VfsResult<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let id = match self.resolve_target(path, true, 0)? {
            Target::Local(id) => id,
            Target::Foreign(..) => return Err(VfsError::CrossMount(path.clone())),
        };
        {
            let mut inner = write(&self.inner);
            let t = inner.tick();
            let node = inner
                .nodes
                .get_mut(id)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            match &mut node.body {
                NodeBody::File { data: d } => {
                    *d = Arc::from(data);
                    node.mtime = t;
                    node.version += 1;
                }
                NodeBody::Dir { .. } => return Err(VfsError::IsADirectory(path.clone())),
                NodeBody::Symlink { .. } => return Err(VfsError::DanglingLink(path.clone())),
            }
        }
        self.attr_cache.invalidate(id);
        Ok(())
    }

    /// Creates the file if missing, then writes `data` (create-or-replace).
    pub fn save(&self, path: &VPath, data: &[u8]) -> VfsResult<FileId> {
        match self.create(path) {
            Ok(_) | Err(VfsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        self.write_file(path, data)?;
        self.resolve(path)
    }

    /// Appends bytes to an existing regular file.
    pub fn append(&self, path: &VPath, data: &[u8]) -> VfsResult<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let id = match self.resolve_target(path, true, 0)? {
            Target::Local(id) => id,
            Target::Foreign(..) => return Err(VfsError::CrossMount(path.clone())),
        };
        {
            let mut inner = write(&self.inner);
            let t = inner.tick();
            let node = inner
                .nodes
                .get_mut(id)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            match &mut node.body {
                NodeBody::File { data: d } => {
                    let mut buf = Vec::with_capacity(d.len() + data.len());
                    buf.extend_from_slice(d);
                    buf.extend_from_slice(data);
                    *d = buf.into();
                    node.mtime = t;
                    node.version += 1;
                }
                NodeBody::Dir { .. } => return Err(VfsError::IsADirectory(path.clone())),
                NodeBody::Symlink { .. } => return Err(VfsError::DanglingLink(path.clone())),
            }
        }
        self.attr_cache.invalidate(id);
        Ok(())
    }

    /// Removes a regular file or symbolic link (never follows the final
    /// component).
    pub fn unlink(&self, path: &VPath) -> VfsResult<()> {
        self.counters.removes.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let removed;
        {
            let mut inner = write(&self.inner);
            let t = inner.tick();
            let id = {
                let pnode = inner
                    .nodes
                    .get(parent)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = pnode
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
                *entries
                    .get(&name)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?
            };
            let node = inner
                .nodes
                .get(id)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            if node.kind() == NodeKind::Dir {
                return Err(VfsError::IsADirectory(path.clone()));
            }
            let pnode = inner
                .nodes
                .get_mut(parent)
                .expect("parent vanished under write lock");
            pnode.mtime = t;
            pnode
                .dir_entries_mut()
                .expect("parent is a directory")
                .remove(&name);
            inner.nodes.remove(id);
            removed = id;
        }
        self.attr_cache.invalidate(removed);
        self.attr_cache.invalidate(parent);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, path: &VPath) -> VfsResult<()> {
        self.counters.removes.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let removed;
        {
            let mut inner = write(&self.inner);
            let t = inner.tick();
            let id = {
                let pnode = inner
                    .nodes
                    .get(parent)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = pnode
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
                *entries
                    .get(&name)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?
            };
            {
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = node
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
                if !entries.is_empty() {
                    return Err(VfsError::NotEmpty(path.clone()));
                }
            }
            if inner.mount_at(id).is_some() {
                return Err(VfsError::CrossMount(path.clone()));
            }
            let pnode = inner
                .nodes
                .get_mut(parent)
                .expect("parent vanished under write lock");
            pnode.mtime = t;
            pnode
                .dir_entries_mut()
                .expect("parent is a directory")
                .remove(&name);
            inner.nodes.remove(id);
            removed = id;
        }
        self.attr_cache.invalidate(removed);
        self.attr_cache.invalidate(parent);
        Ok(())
    }

    /// Recursively removes a file, link, or directory subtree.
    pub fn remove_recursive(&self, path: &VPath) -> VfsResult<()> {
        let attr = self.lstat(path)?;
        if attr.kind != NodeKind::Dir {
            return self.unlink(path);
        }
        let children = self.readdir(path)?;
        for entry in children {
            self.remove_recursive(&path.join(&entry.name)?)?;
        }
        self.rmdir(path)
    }

    /// Renames (moves) a file, symlink, or directory. Refuses to replace an
    /// existing destination, to move a directory into its own subtree, or to
    /// cross a mount boundary.
    pub fn rename(&self, from: &VPath, to: &VPath) -> VfsResult<()> {
        self.counters.renames.fetch_add(1, Ordering::Relaxed);
        if from.is_root() || to.is_root() {
            return Err(VfsError::RootImmutable);
        }
        if to.starts_with(from) && from != to {
            return Err(VfsError::IntoSelf(from.clone()));
        }
        let (from_parent, from_name) = self.require_local_parent(from)?;
        let (to_parent, to_name) = self.require_local_parent(to)?;
        let moved;
        {
            let mut inner = write(&self.inner);
            let t = inner.tick();
            let id = {
                let pnode = inner
                    .nodes
                    .get(from_parent)
                    .ok_or_else(|| VfsError::NotFound(from.clone()))?;
                let entries = pnode
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(from.clone()))?;
                *entries
                    .get(&from_name)
                    .ok_or_else(|| VfsError::NotFound(from.clone()))?
            };
            {
                let dest = inner
                    .nodes
                    .get(to_parent)
                    .ok_or_else(|| VfsError::NotFound(to.clone()))?;
                let entries = dest
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(to.clone()))?;
                if entries.contains_key(&to_name) {
                    return Err(VfsError::AlreadyExists(to.clone()));
                }
            }
            // Guard against moving a directory under itself via ids (the
            // lexical check above misses moves through symlinks).
            let mut cursor = to_parent;
            loop {
                if cursor == id {
                    return Err(VfsError::IntoSelf(from.clone()));
                }
                if cursor == FileId::ROOT {
                    break;
                }
                cursor = inner
                    .nodes
                    .get(cursor)
                    .ok_or_else(|| VfsError::NotFound(to.clone()))?
                    .parent;
            }
            if inner.nodes.get(id).is_none() {
                return Err(VfsError::NotFound(from.clone()));
            }
            inner
                .nodes
                .get_mut(from_parent)
                .expect("source parent vanished under write lock")
                .dir_entries_mut()
                .expect("source parent is a directory")
                .remove(&from_name);
            {
                let node = inner.nodes.get_mut(id).expect("moved node vanished");
                node.parent = to_parent;
                node.name = to_name.clone();
                node.mtime = t;
            }
            {
                let dest = inner
                    .nodes
                    .get_mut(to_parent)
                    .expect("dest parent vanished");
                dest.mtime = t;
                dest.dir_entries_mut()
                    .expect("dest parent is a directory")
                    .insert(to_name.clone(), id);
            }
            inner
                .nodes
                .get_mut(from_parent)
                .expect("source parent vanished")
                .mtime = t;
            moved = id;
        }
        self.attr_cache.invalidate(moved);
        self.attr_cache.invalidate(from_parent);
        self.attr_cache.invalidate(to_parent);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mounts
    // ------------------------------------------------------------------

    /// Grafts a foreign namespace at an existing local directory (a
    /// *syntactic mount point*). Reads traverse into the mounted namespace;
    /// local mutations under the mount point are rejected with
    /// [`VfsError::CrossMount`].
    pub fn mount(&self, at: &VPath, ns: Arc<Vfs>) -> VfsResult<()> {
        let id = self.resolve_nofollow(at)?;
        {
            let inner = read(&self.inner);
            let node = inner
                .nodes
                .get(id)
                .ok_or_else(|| VfsError::NotFound(at.clone()))?;
            if node.kind() != NodeKind::Dir {
                return Err(VfsError::NotADirectory(at.clone()));
            }
        }
        let mut inner = write(&self.inner);
        if inner.mount_at(id).is_some() {
            return Err(VfsError::AlreadyExists(at.clone()));
        }
        inner.mounts.push((id, ns));
        Ok(())
    }

    /// Detaches a foreign namespace from a mount point.
    pub fn unmount(&self, at: &VPath) -> VfsResult<()> {
        let id = self.resolve_nofollow(at)?;
        let mut inner = write(&self.inner);
        let before = inner.mounts.len();
        inner.mounts.retain(|(m, _)| *m != id);
        if inner.mounts.len() == before {
            return Err(VfsError::NotFound(at.clone()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Descriptor I/O
    // ------------------------------------------------------------------

    /// Opens a file for descriptor-based I/O in process `pid`.
    pub fn open(
        &self,
        pid: ProcessId,
        path: &VPath,
        mode: OpenMode,
        policy: CreatePolicy,
    ) -> VfsResult<Fd> {
        let id = match self.resolve_target(path, true, 0) {
            Ok(Target::Local(id)) => {
                if policy == CreatePolicy::CreateOrTruncate {
                    self.write_file(path, b"")?;
                }
                id
            }
            Ok(Target::Foreign(..)) => return Err(VfsError::CrossMount(path.clone())),
            Err(VfsError::NotFound(_)) if policy != CreatePolicy::MustExist => self.create(path)?,
            Err(e) => return Err(e),
        };
        {
            let inner = read(&self.inner);
            let node = inner
                .nodes
                .get(id)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            if node.kind() == NodeKind::Dir {
                return Err(VfsError::IsADirectory(path.clone()));
            }
        }
        let mut procs = write(&self.procs);
        Ok(procs.table_mut(pid)?.open(id, mode))
    }

    /// Reads up to `len` bytes at the descriptor's offset, advancing it.
    pub fn read_fd(&self, pid: ProcessId, fd: Fd, len: usize) -> VfsResult<Vec<u8>> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        let (file, offset) = {
            let procs = read(&self.procs);
            let of = *procs.table(pid)?.get(fd)?;
            if !of.mode.can_read() {
                return Err(VfsError::BadMode("descriptor not open for reading"));
            }
            (of.file, of.offset)
        };
        let chunk = {
            let inner = read(&self.inner);
            let node = inner
                .nodes
                .get(file)
                .ok_or_else(|| VfsError::NotFound(VPath::root()))?;
            match &node.body {
                NodeBody::File { data } => {
                    let start = (offset as usize).min(data.len());
                    let end = (start + len).min(data.len());
                    data[start..end].to_vec()
                }
                _ => return Err(VfsError::BadMode("descriptor does not refer to a file")),
            }
        };
        let mut procs = write(&self.procs);
        procs.table_mut(pid)?.get_mut(fd)?.offset = offset + chunk.len() as u64;
        Ok(chunk)
    }

    /// Writes bytes at the descriptor's offset (zero-filling any gap),
    /// advancing it.
    pub fn write_fd(&self, pid: ProcessId, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let (file, offset) = {
            let procs = read(&self.procs);
            let of = *procs.table(pid)?.get(fd)?;
            if !of.mode.can_write() {
                return Err(VfsError::BadMode("descriptor not open for writing"));
            }
            (of.file, of.offset)
        };
        {
            let mut inner = write(&self.inner);
            let t = inner.tick();
            let node = inner
                .nodes
                .get_mut(file)
                .ok_or_else(|| VfsError::NotFound(VPath::root()))?;
            match &mut node.body {
                NodeBody::File { data: d } => {
                    let start = offset as usize;
                    let mut buf = d.to_vec();
                    if buf.len() < start {
                        buf.resize(start, 0);
                    }
                    let end = start + data.len();
                    if buf.len() < end {
                        buf.resize(end, 0);
                    }
                    buf[start..end].copy_from_slice(data);
                    *d = buf.into();
                    node.mtime = t;
                    node.version += 1;
                }
                _ => return Err(VfsError::BadMode("descriptor does not refer to a file")),
            }
        }
        self.attr_cache.invalidate(file);
        let mut procs = write(&self.procs);
        procs.table_mut(pid)?.get_mut(fd)?.offset = offset + data.len() as u64;
        Ok(data.len())
    }

    /// Repositions a descriptor's offset.
    pub fn seek(&self, pid: ProcessId, fd: Fd, offset: u64) -> VfsResult<()> {
        let mut procs = write(&self.procs);
        procs.table_mut(pid)?.get_mut(fd)?.offset = offset;
        Ok(())
    }

    /// Closes a descriptor.
    pub fn close(&self, pid: ProcessId, fd: Fd) -> VfsResult<()> {
        let mut procs = write(&self.procs);
        procs.table_mut(pid)?.close(fd)
    }

    // ------------------------------------------------------------------
    // Bulk access for indexing / persistence
    // ------------------------------------------------------------------

    /// Runs `f` over every live node (id, path, attr) in id order. Used by
    /// the indexer's full-scan pass and the walk helpers.
    pub fn for_each_node(&self, mut f: impl FnMut(FileId, &VPath, &Attr)) {
        // Collect under the lock, call back outside it, so `f` may re-enter
        // the VFS.
        let snapshot: Vec<(FileId, Attr)> = {
            let inner = read(&self.inner);
            inner.nodes.iter().map(|n| (n.id, n.attr())).collect()
        };
        for (id, attr) in snapshot {
            if let Ok(path) = self.path_of(id) {
                f(id, &path, &attr);
            }
        }
    }

    /// Clones the raw node table (for snapshot persistence).
    pub(crate) fn clone_nodes(&self) -> NodeTable {
        read(&self.inner).nodes.clone()
    }

    /// Replaces the node table wholesale (snapshot restore). Clears caches.
    pub(crate) fn replace_nodes(&self, nodes: NodeTable, clock: u64) {
        let mut inner = write(&self.inner);
        inner.nodes = nodes;
        inner.clock = clock;
        drop(inner);
        self.attr_cache.clear();
    }

    pub(crate) fn clock_value(&self) -> u64 {
        read(&self.inner).clock
    }
}
