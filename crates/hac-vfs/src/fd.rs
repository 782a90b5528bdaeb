//! Per-process open-file-descriptor tables.
//!
//! The paper's user-level layer maintains a per-process file-descriptor
//! table (charged to the Andrew benchmark's Copy and Read phases). The VFS
//! models lightweight "processes": a [`ProcessId`] owns a table mapping
//! small integer descriptors to open-file state (file id, offset, mode).

use std::collections::HashMap;

use crate::attr::FileId;
use crate::error::{VfsError, VfsResult};

/// Identifier of a lightweight process registered with the VFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub u64);

/// A small-integer descriptor, unique within one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u32);

/// Access mode requested at `open` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only access.
    Read,
    /// Write-only access (positioned writes; create/truncate are separate
    /// flags on `open`).
    Write,
    /// Read and write access.
    ReadWrite,
}

impl OpenMode {
    /// Whether reads are allowed.
    pub fn can_read(self) -> bool {
        matches!(self, OpenMode::Read | OpenMode::ReadWrite)
    }

    /// Whether writes are allowed.
    pub fn can_write(self) -> bool {
        matches!(self, OpenMode::Write | OpenMode::ReadWrite)
    }
}

/// State of one open descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFile {
    /// The file the descriptor refers to (descriptors survive renames, like
    /// POSIX: identity is the inode, not the path).
    pub file: FileId,
    /// Current seek offset in bytes.
    pub offset: u64,
    /// Allowed access.
    pub mode: OpenMode,
}

/// One process's descriptor table.
#[derive(Debug, Default)]
pub struct FdTable {
    open: HashMap<u32, OpenFile>,
    next_fd: u32,
}

impl FdTable {
    /// Allocates the lowest-numbered unused descriptor for `file`.
    pub fn open(&mut self, file: FileId, mode: OpenMode) -> Fd {
        // Reuse closed slots first, POSIX-style lowest-available.
        let mut fd = 0;
        while self.open.contains_key(&fd) {
            fd += 1;
        }
        self.next_fd = self.next_fd.max(fd + 1);
        self.open.insert(
            fd,
            OpenFile {
                file,
                offset: 0,
                mode,
            },
        );
        Fd(fd)
    }

    /// Looks up the state behind a descriptor.
    pub fn get(&self, fd: Fd) -> VfsResult<&OpenFile> {
        self.open.get(&fd.0).ok_or(VfsError::BadDescriptor(fd.0))
    }

    /// Looks up the state behind a descriptor, mutably.
    pub fn get_mut(&mut self, fd: Fd) -> VfsResult<&mut OpenFile> {
        self.open
            .get_mut(&fd.0)
            .ok_or(VfsError::BadDescriptor(fd.0))
    }

    /// Closes a descriptor.
    pub fn close(&mut self, fd: Fd) -> VfsResult<()> {
        self.open
            .remove(&fd.0)
            .map(|_| ())
            .ok_or(VfsError::BadDescriptor(fd.0))
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Approximate resident bytes of the table, for the memory-overhead
    /// report.
    pub fn resident_bytes(&self) -> u64 {
        (self.open.len() * std::mem::size_of::<(u32, OpenFile)>()) as u64
    }
}

/// Registry of all process descriptor tables in a VFS.
#[derive(Debug, Default)]
pub struct ProcessRegistry {
    tables: HashMap<u64, FdTable>,
    next_pid: u64,
}

impl ProcessRegistry {
    /// Registers a new process and returns its id.
    pub fn spawn(&mut self) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        self.tables.insert(pid.0, FdTable::default());
        pid
    }

    /// Removes a process and all of its open descriptors.
    pub fn exit(&mut self, pid: ProcessId) -> VfsResult<()> {
        self.tables
            .remove(&pid.0)
            .map(|_| ())
            .ok_or(VfsError::BadProcess(pid.0))
    }

    /// Gets a process's table.
    pub fn table(&self, pid: ProcessId) -> VfsResult<&FdTable> {
        self.tables.get(&pid.0).ok_or(VfsError::BadProcess(pid.0))
    }

    /// Gets a process's table, mutably.
    pub fn table_mut(&mut self, pid: ProcessId) -> VfsResult<&mut FdTable> {
        self.tables
            .get_mut(&pid.0)
            .ok_or(VfsError::BadProcess(pid.0))
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.tables.len()
    }

    /// Total resident bytes across all tables.
    pub fn resident_bytes(&self) -> u64 {
        self.tables.values().map(FdTable::resident_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_are_lowest_available() {
        let mut t = FdTable::default();
        let a = t.open(FileId(1), OpenMode::Read);
        let b = t.open(FileId(2), OpenMode::Read);
        assert_eq!((a, b), (Fd(0), Fd(1)));
        t.close(a).unwrap();
        let c = t.open(FileId(3), OpenMode::Write);
        assert_eq!(c, Fd(0));
        assert_eq!(t.open_count(), 2);
    }

    #[test]
    fn close_unknown_fd_fails() {
        let mut t = FdTable::default();
        assert_eq!(t.close(Fd(9)), Err(VfsError::BadDescriptor(9)));
        assert!(matches!(t.get(Fd(9)), Err(VfsError::BadDescriptor(9))));
    }

    #[test]
    fn modes_gate_access() {
        assert!(OpenMode::Read.can_read());
        assert!(!OpenMode::Read.can_write());
        assert!(OpenMode::Write.can_write());
        assert!(!OpenMode::Write.can_read());
        assert!(OpenMode::ReadWrite.can_read() && OpenMode::ReadWrite.can_write());
    }

    #[test]
    fn registry_spawns_and_exits() {
        let mut r = ProcessRegistry::default();
        let p1 = r.spawn();
        let p2 = r.spawn();
        assert_ne!(p1, p2);
        assert_eq!(r.process_count(), 2);
        r.table_mut(p1).unwrap().open(FileId(1), OpenMode::Read);
        assert_eq!(r.table(p1).unwrap().open_count(), 1);
        r.exit(p1).unwrap();
        assert!(matches!(r.table(p1), Err(VfsError::BadProcess(_))));
        assert_eq!(r.exit(p1), Err(VfsError::BadProcess(p1.0)));
    }

    #[test]
    fn resident_bytes_counts_open_files() {
        let mut r = ProcessRegistry::default();
        let p = r.spawn();
        assert_eq!(r.resident_bytes(), 0);
        r.table_mut(p).unwrap().open(FileId(1), OpenMode::Read);
        assert!(r.resident_bytes() > 0);
    }
}
