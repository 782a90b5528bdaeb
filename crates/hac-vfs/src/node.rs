//! In-memory node table.
//!
//! The node table is the "disk" of this substrate: a slab of inodes indexed
//! by [`FileId`]. Ids are allocated monotonically and never reused, so stale
//! references from upper layers can be detected instead of silently aliasing
//! a new object.

use std::collections::BTreeMap;
use std::sync::Arc;

use hac_codec::{variant, Decode, Encode, Reader};

use crate::attr::{Attr, FileId, LogicalTime, NodeKind};
use crate::path::VPath;

/// Payload of a node, by kind.
#[derive(Debug, Clone)]
pub enum NodeBody {
    /// Regular file content.
    File {
        /// Raw bytes, shared: a whole-file read clones the `Arc`, not the
        /// content.
        data: Arc<[u8]>,
    },
    /// Directory entries, sorted by name for deterministic `readdir`.
    Dir {
        /// Child name → child id.
        entries: BTreeMap<String, FileId>,
    },
    /// Symbolic link target (a path, resolved lazily like POSIX symlinks;
    /// renaming the target leaves the link dangling until fixed — exactly
    /// the data-inconsistency window the paper describes in §2.4).
    Symlink {
        /// Target path.
        target: VPath,
    },
}

// Each variant is its index, then its one field; file bytes are a count
// and the raw bytes.
impl Encode for NodeBody {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeBody::File { data } => variant(out, 0, &data[..]),
            NodeBody::Dir { entries } => variant(out, 1, entries),
            NodeBody::Symlink { target } => variant(out, 2, target),
        }
    }
}

impl Decode for NodeBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, hac_codec::Error> {
        Ok(match r.varint()? {
            0 => NodeBody::File {
                data: Vec::<u8>::decode(r)?.into(),
            },
            1 => NodeBody::Dir {
                entries: Decode::decode(r)?,
            },
            2 => NodeBody::Symlink {
                target: Decode::decode(r)?,
            },
            _ => return Err(hac_codec::UNKNOWN_VARIANT),
        })
    }
}

/// A single inode: identity, bookkeeping, and payload.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: FileId,
    /// Id of the containing directory (the root points at itself).
    pub parent: FileId,
    /// Name under which the parent references this node (empty for root).
    pub name: String,
    /// Creation stamp.
    pub ctime: LogicalTime,
    /// Last-mutation stamp.
    pub mtime: LogicalTime,
    /// Content version, incremented by writes and truncates.
    pub version: u64,
    /// Kind-specific payload.
    pub body: NodeBody,
}

hac_codec::impl_codec!(Node {
    id,
    parent,
    name,
    ctime,
    mtime,
    version,
    body
});

impl Node {
    /// The node kind implied by the payload.
    pub fn kind(&self) -> NodeKind {
        match self.body {
            NodeBody::File { .. } => NodeKind::File,
            NodeBody::Dir { .. } => NodeKind::Dir,
            NodeBody::Symlink { .. } => NodeKind::Symlink,
        }
    }

    /// Logical size: bytes for files, entry count for directories, target
    /// length for symlinks.
    pub fn size(&self) -> u64 {
        match &self.body {
            NodeBody::File { data } => data.len() as u64,
            NodeBody::Dir { entries } => entries.len() as u64,
            NodeBody::Symlink { target } => target.to_string().len() as u64,
        }
    }

    /// Builds the `stat` view of this node.
    pub fn attr(&self) -> Attr {
        Attr {
            id: self.id,
            kind: self.kind(),
            size: self.size(),
            mtime: self.mtime,
            ctime: self.ctime,
            version: self.version,
        }
    }

    /// Directory entries, if this is a directory.
    pub fn dir_entries(&self) -> Option<&BTreeMap<String, FileId>> {
        match &self.body {
            NodeBody::Dir { entries } => Some(entries),
            _ => None,
        }
    }

    /// Mutable directory entries, if this is a directory.
    pub fn dir_entries_mut(&mut self) -> Option<&mut BTreeMap<String, FileId>> {
        match &mut self.body {
            NodeBody::Dir { entries } => Some(entries),
            _ => None,
        }
    }
}

/// The slab of all nodes in a namespace.
#[derive(Debug, Clone)]
pub struct NodeTable {
    nodes: BTreeMap<u64, Node>,
    next_id: u64,
}

hac_codec::impl_codec!(NodeTable { nodes, next_id });

impl NodeTable {
    /// Creates a table holding only a fresh root directory.
    pub fn with_root() -> Self {
        let root = Node {
            id: FileId::ROOT,
            parent: FileId::ROOT,
            name: String::new(),
            ctime: LogicalTime(0),
            mtime: LogicalTime(0),
            version: 0,
            body: NodeBody::Dir {
                entries: BTreeMap::new(),
            },
        };
        let mut nodes = BTreeMap::new();
        nodes.insert(0, root);
        NodeTable { nodes, next_id: 1 }
    }

    /// Allocates a fresh, never-before-used id.
    pub fn alloc_id(&mut self) -> FileId {
        let id = FileId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Inserts a node under its own id. Panics on id collision, which would
    /// indicate allocator misuse inside this crate (ids come only from
    /// [`Self::alloc_id`]).
    pub fn insert(&mut self, node: Node) {
        let prev = self.nodes.insert(node.id.0, node);
        debug_assert!(prev.is_none(), "FileId reuse in NodeTable::insert");
    }

    /// Looks up a node by id.
    pub fn get(&self, id: FileId) -> Option<&Node> {
        self.nodes.get(&id.0)
    }

    /// Looks up a node mutably by id.
    pub fn get_mut(&mut self, id: FileId) -> Option<&mut Node> {
        self.nodes.get_mut(&id.0)
    }

    /// Removes a node, returning it.
    pub fn remove(&mut self, id: FileId) -> Option<Node> {
        self.nodes.remove(&id.0)
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table holds no nodes (never true in practice: the root
    /// always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates all live nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Approximate bytes of metadata used by the table, excluding file
    /// content. Used by the space-overhead experiment (§4 in-text numbers).
    pub fn metadata_bytes(&self) -> u64 {
        let mut total = 0u64;
        for node in self.nodes.values() {
            total += std::mem::size_of::<Node>() as u64;
            total += node.name.len() as u64;
            match &node.body {
                NodeBody::Dir { entries } => {
                    for name in entries.keys() {
                        total += name.len() as u64 + 8 + 16;
                    }
                }
                NodeBody::Symlink { target } => total += target.to_string().len() as u64,
                NodeBody::File { .. } => {}
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_exists_and_is_dir() {
        let t = NodeTable::with_root();
        let root = t.get(FileId::ROOT).unwrap();
        assert_eq!(root.kind(), NodeKind::Dir);
        assert_eq!(root.parent, FileId::ROOT);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = NodeTable::with_root();
        let a = t.alloc_id();
        let b = t.alloc_id();
        assert_ne!(a, b);
        t.insert(Node {
            id: a,
            parent: FileId::ROOT,
            name: "a".into(),
            ctime: LogicalTime(1),
            mtime: LogicalTime(1),
            version: 0,
            body: NodeBody::File {
                data: Arc::from([]),
            },
        });
        t.remove(a);
        let c = t.alloc_id();
        assert_ne!(c, a);
        assert_ne!(c, b);
    }

    #[test]
    fn node_size_by_kind() {
        let file = Node {
            id: FileId(1),
            parent: FileId::ROOT,
            name: "f".into(),
            ctime: LogicalTime(0),
            mtime: LogicalTime(0),
            version: 0,
            body: NodeBody::File {
                data: Arc::from(&b"hello"[..]),
            },
        };
        assert_eq!(file.size(), 5);
        assert!(file.attr().is_file());

        let link = Node {
            id: FileId(2),
            parent: FileId::ROOT,
            name: "l".into(),
            ctime: LogicalTime(0),
            mtime: LogicalTime(0),
            version: 0,
            body: NodeBody::Symlink {
                target: VPath::parse("/x/y").unwrap(),
            },
        };
        assert_eq!(link.size(), 4);
        assert!(link.attr().is_symlink());
    }

    #[test]
    fn metadata_bytes_grows_with_entries() {
        let mut t = NodeTable::with_root();
        let before = t.metadata_bytes();
        let id = t.alloc_id();
        t.insert(Node {
            id,
            parent: FileId::ROOT,
            name: "somefile".into(),
            ctime: LogicalTime(1),
            mtime: LogicalTime(1),
            version: 0,
            body: NodeBody::File {
                data: Arc::from([]),
            },
        });
        assert!(t.metadata_bytes() > before);
    }
}
