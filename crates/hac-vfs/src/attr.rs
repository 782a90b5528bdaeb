//! File attributes and the logical clock.
//!
//! The VFS stamps every mutation with a monotonically increasing *logical
//! time*. Upper layers (notably HAC's lazy reindexer, paper §2.4) compare
//! these stamps against the time of the last index pass to find files whose
//! content changed since.

/// Stable identifier of a file-system object (an inode number).
///
/// `FileId`s are never reused within the lifetime of a [`crate::Vfs`], so
/// upper layers may safely key long-lived metadata (query results, permanent
/// and prohibited link sets) by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

hac_codec::impl_codec!(FileId(u64));

impl FileId {
    /// The id of the namespace root directory.
    pub const ROOT: FileId = FileId(0);
}

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Logical timestamp: the value of the VFS mutation counter when the stamped
/// event happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LogicalTime(pub u64);

hac_codec::impl_codec!(LogicalTime(u64));

/// The kind of a file-system node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A regular file with byte content.
    File,
    /// A directory containing named entries.
    Dir,
    /// A symbolic link storing a target path (resolved lazily).
    Symlink,
}

impl NodeKind {
    /// Single-character tag used by `ls`-style listings.
    pub fn tag(self) -> char {
        match self {
            NodeKind::File => '-',
            NodeKind::Dir => 'd',
            NodeKind::Symlink => 'l',
        }
    }
}

/// Status information for a node, as returned by `stat`.
///
/// This is also the unit cached by the shared attribute cache
/// ([`crate::attrcache`]), which the paper credits for Scan-phase speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// The node this attribute block describes.
    pub id: FileId,
    /// Node kind.
    pub kind: NodeKind,
    /// Content size in bytes (entry count for directories, target length for
    /// symlinks).
    pub size: u64,
    /// Logical time of the last content mutation.
    pub mtime: LogicalTime,
    /// Logical time of creation.
    pub ctime: LogicalTime,
    /// Content version: increments on every write/truncate. The reindexer
    /// compares versions, not byte contents.
    pub version: u64,
}

impl Attr {
    /// Whether the node is a directory.
    pub fn is_dir(&self) -> bool {
        self.kind == NodeKind::Dir
    }

    /// Whether the node is a regular file.
    pub fn is_file(&self) -> bool {
        self.kind == NodeKind::File
    }

    /// Whether the node is a symbolic link.
    pub fn is_symlink(&self) -> bool {
        self.kind == NodeKind::Symlink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags() {
        assert_eq!(NodeKind::File.tag(), '-');
        assert_eq!(NodeKind::Dir.tag(), 'd');
        assert_eq!(NodeKind::Symlink.tag(), 'l');
    }

    #[test]
    fn file_id_display_and_root() {
        assert_eq!(FileId::ROOT, FileId(0));
        assert_eq!(FileId(42).to_string(), "#42");
    }

    #[test]
    fn logical_time_orders() {
        assert!(LogicalTime(1) < LogicalTime(2));
        assert_eq!(LogicalTime::default(), LogicalTime(0));
    }
}
