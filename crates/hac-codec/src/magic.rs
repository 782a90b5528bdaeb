//! The one definition of every magic HAC writes. Each format's public
//! name for its magic (`SNAPSHOT_MAGIC`, `MANIFEST_MAGIC`, …) is an alias
//! of a constant here, and a test refuses two formats sharing a magic: a
//! blob of one must never pass for the other.

/// Full index snapshot (`hac-core`).
pub const INDEX_SNAPSHOT: [u8; 4] = *b"HACI";
/// Index delta segment (`hac-core`).
pub const SEGMENT: [u8; 4] = *b"HACS";
/// Doc→path sidecar of a checkpoint (`hac-core`).
pub const DOC_PATHS: [u8; 4] = *b"HACP";
/// Store manifest (`hac-store`).
pub const MANIFEST: [u8; 4] = *b"HACM";
/// Federation shard map (`hac-fed`).
pub const SHARD_MAP: [u8; 4] = *b"HACF";
/// Metric-registry snapshot (`hac-obs`).
pub const METRICS: [u8; 4] = *b"HACR";
/// Span forest of one trace (`hac-obs`).
pub const SPANS: [u8; 4] = *b"HACT";
/// HACN frame header (`hac-net`).
pub const FRAME: [u8; 4] = *b"HACN";
/// VFS snapshot (`hac-vfs`).
pub const VFS_SNAPSHOT: [u8; 4] = *b"HACV";

#[cfg(test)]
mod tests {
    use super::*;

    /// Every magic above, by name.
    const ALL: [(&str, [u8; 4]); 9] = [
        ("INDEX_SNAPSHOT", INDEX_SNAPSHOT),
        ("SEGMENT", SEGMENT),
        ("DOC_PATHS", DOC_PATHS),
        ("MANIFEST", MANIFEST),
        ("SHARD_MAP", SHARD_MAP),
        ("METRICS", METRICS),
        ("SPANS", SPANS),
        ("FRAME", FRAME),
        ("VFS_SNAPSHOT", VFS_SNAPSHOT),
    ];

    #[test]
    fn no_two_magics_share_a_prefix() {
        for (i, (a, a_bytes)) in ALL.iter().enumerate() {
            assert!(a_bytes.starts_with(b"HAC"), "{a}");
            for (b, b_bytes) in &ALL[i + 1..] {
                assert_ne!(a_bytes, b_bytes, "{a} and {b} share a magic");
            }
        }
    }
}
