//! Error type for VFS operations.

use std::fmt;

use crate::path::VPath;

/// Errors returned by [`crate::Vfs`] operations.
///
/// The variants mirror the POSIX error conditions a user-level file system
/// layer observes from its substrate (the paper's HAC layer "assumes very
/// little about the native file system" and only needs these distinctions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// A path component (or the final component) does not exist.
    NotFound(VPath),
    /// A non-final path component resolved to something other than a
    /// directory.
    NotADirectory(VPath),
    /// A directory was found where a regular file was required.
    IsADirectory(VPath),
    /// The destination of a create/mkdir/rename already exists.
    AlreadyExists(VPath),
    /// `rmdir` (or a rename over a directory) targeted a non-empty directory.
    NotEmpty(VPath),
    /// The path string could not be parsed (empty, not absolute, or contains
    /// a NUL / empty component).
    InvalidPath(String),
    /// Symbolic-link resolution exceeded the traversal limit, which indicates
    /// a link cycle.
    TooManyLinks(VPath),
    /// A symbolic link points at a path that no longer resolves.
    DanglingLink(VPath),
    /// The file descriptor is not open in the calling process.
    BadDescriptor(u32),
    /// The process handle is unknown (never created or already exited).
    BadProcess(u64),
    /// The operation would move an entry across a mount boundary.
    CrossMount(VPath),
    /// A rename would move a directory underneath itself.
    IntoSelf(VPath),
    /// The operation is not supported by the (possibly mounted, possibly
    /// flat) namespace that owns the path.
    Unsupported(&'static str),
    /// A namespace snapshot carries a version this build does not read.
    SnapshotVersion(u8),
    /// The root directory cannot be removed, renamed, or replaced.
    RootImmutable,
    /// An open mode forbids the attempted access (e.g. write on a read-only
    /// descriptor).
    BadMode(&'static str),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            VfsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            VfsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            VfsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            VfsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            VfsError::InvalidPath(s) => write!(f, "invalid path: {s:?}"),
            VfsError::TooManyLinks(p) => write!(f, "too many levels of symbolic links: {p}"),
            VfsError::DanglingLink(p) => write!(f, "dangling symbolic link: {p}"),
            VfsError::BadDescriptor(fd) => write!(f, "bad file descriptor: {fd}"),
            VfsError::BadProcess(pid) => write!(f, "unknown process: {pid}"),
            VfsError::CrossMount(p) => write!(f, "operation crosses a mount boundary: {p}"),
            VfsError::IntoSelf(p) => write!(f, "cannot move a directory into itself: {p}"),
            VfsError::Unsupported(what) => write!(f, "operation not supported: {what}"),
            VfsError::SnapshotVersion(v) => write!(f, "unsupported snapshot version {v}"),
            VfsError::RootImmutable => write!(f, "the root directory cannot be modified"),
            VfsError::BadMode(m) => write!(f, "operation violates open mode: {m}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// Convenient result alias for VFS operations.
pub type VfsResult<T> = Result<T, VfsError>;
