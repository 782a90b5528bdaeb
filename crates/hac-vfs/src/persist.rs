//! Snapshot persistence for a namespace.
//!
//! A snapshot is the envelope `HACV` v2 followed by the logical clock and
//! the node table in the `hac_codec` layout, so a file costs its bytes
//! plus a few bytes of varints. Snapshots cover the namespace structure
//! and file contents — descriptor tables, caches and mounts are runtime
//! state and are not persisted. Any other version, the `HACVFS01` layout
//! before it included, is refused by name; nothing migrates it.

use hac_codec::envelope;

use crate::error::{VfsError, VfsResult};
use crate::fs::Vfs;
use crate::node::NodeTable;

/// Magic bytes identifying a VFS snapshot.
const MAGIC: [u8; 4] = hac_codec::magic::VFS_SNAPSHOT;
/// The one snapshot version this build reads and writes.
const VERSION: u8 = 2;

struct Snapshot {
    clock: u64,
    nodes: NodeTable,
}

hac_codec::impl_codec!(Snapshot { clock, nodes });

/// Serializes the namespace to a byte vector.
///
/// # Errors
///
/// Never: encoding cannot fail. The `Result` keeps the signature stable
/// for existing callers.
pub fn snapshot(vfs: &Vfs) -> VfsResult<Vec<u8>> {
    let snap = Snapshot {
        clock: vfs.clock_value(),
        nodes: vfs.clone_nodes(),
    };
    let mut out = Vec::with_capacity(4096);
    envelope::seal(&mut out, MAGIC, VERSION);
    hac_codec::Encode::encode(&snap, &mut out);
    Ok(out)
}

/// Restores a namespace from bytes produced by [`snapshot`], replacing the
/// current contents of `vfs`.
///
/// # Errors
///
/// Returns [`VfsError::SnapshotVersion`] for a snapshot of another
/// version and [`VfsError::Unsupported`] when the bytes are not a valid
/// snapshot.
pub fn restore(vfs: &Vfs, bytes: &[u8]) -> VfsResult<()> {
    let (version, body) = envelope::open(bytes, MAGIC)
        .map_err(|_| VfsError::Unsupported("snapshot magic mismatch"))?;
    if version != VERSION {
        return Err(VfsError::SnapshotVersion(version));
    }
    let snap: Snapshot =
        hac_codec::decode_value(body).map_err(|_| VfsError::Unsupported("snapshot decode"))?;
    vfs.replace_nodes(snap.nodes, snap.clock);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::VPath;

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    #[test]
    fn snapshot_roundtrip_preserves_tree_and_content() {
        let fs = Vfs::new();
        fs.mkdir_p(&p("/docs/work")).unwrap();
        fs.save(&p("/docs/work/a.txt"), b"alpha").unwrap();
        fs.symlink(&p("/docs/link"), &p("/docs/work/a.txt"))
            .unwrap();
        let id_before = fs.resolve(&p("/docs/work/a.txt")).unwrap();

        let bytes = snapshot(&fs).unwrap();
        let restored = Vfs::new();
        restore(&restored, &bytes).unwrap();

        assert_eq!(&restored.read_file(&p("/docs/link")).unwrap()[..], b"alpha");
        assert_eq!(restored.resolve(&p("/docs/work/a.txt")).unwrap(), id_before);
        assert_eq!(restored.node_count(), fs.node_count());
    }

    #[test]
    fn restore_rejects_garbage() {
        let fs = Vfs::new();
        assert!(restore(&fs, b"not a snapshot").is_err());
        assert!(restore(&fs, b"").is_err());
        // Valid envelope but truncated body.
        assert!(restore(&fs, b"HACV\x02").is_err());
    }

    #[test]
    fn clock_survives_roundtrip() {
        let fs = Vfs::new();
        fs.mkdir(&p("/a")).unwrap();
        fs.mkdir(&p("/b")).unwrap();
        let clock = fs.now();
        let bytes = snapshot(&fs).unwrap();
        let restored = Vfs::new();
        restore(&restored, &bytes).unwrap();
        assert_eq!(restored.now(), clock);
    }
}
