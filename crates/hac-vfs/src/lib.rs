//! # hac-vfs — hierarchical file system substrate
//!
//! An in-process, thread-safe hierarchical file system: the substrate on
//! which the HAC layer (`hac-core`) builds, standing in for the native UNIX
//! file system of the paper *Integrating Content-Based Access Mechanisms
//! with Hierarchical File Systems* (Gopal & Manber, OSDI '99).
//!
//! The crate provides:
//!
//! * [`Vfs`] — files, directories, POSIX-style symbolic links, rename,
//!   recursive removal, read-through *syntactic mount points*;
//! * per-process file-descriptor tables ([`fd`]) and a shared attribute
//!   cache ([`attrcache`]), the two structures the paper charges the Andrew
//!   benchmark's Copy/Read and Scan phases to;
//! * subtree [`mod@walk`] helpers and snapshot [`persist`]ence.
//!
//! Everything is deterministic: time is a logical mutation counter, ids are
//! allocated monotonically and never reused.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod attrcache;
pub mod error;
pub mod fd;
pub mod fs;
pub mod node;
pub mod path;
pub mod persist;
pub mod walk;

pub use attr::{Attr, FileId, LogicalTime, NodeKind};
pub use attrcache::{AttrCache, CacheStats};
pub use error::{VfsError, VfsResult};
pub use fd::{Fd, OpenMode, ProcessId};
pub use fs::{CreatePolicy, DirEntry, SyscallSnapshot, Vfs};
pub use path::VPath;
pub use walk::{files_under, walk, WalkEntry};
