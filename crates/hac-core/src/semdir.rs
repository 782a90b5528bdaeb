//! Semantic-directory metadata and link classification (§2.3).
//!
//! Every semantic directory carries, besides its query, the paper's
//! three-way link classification:
//!
//! * **transient** — created by query evaluation; owned by HAC;
//! * **permanent** — created explicitly by the user; never touched by HAC;
//! * **prohibited** — once present, explicitly deleted by the user; HAC
//!   guarantees they are never silently re-added.
//!
//! Prohibition is keyed by link *target* (not name): the user rejected the
//! file, not the string.

use std::collections::{HashMap, HashSet};

use hac_index::Bitmap;
use hac_query::{DirUid, Query};
use hac_vfs::FileId;

use crate::remote::NamespaceId;

/// What a symlink in a semantic directory points at.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkTarget {
    /// A file in the local namespace (identity is the inode, so prohibition
    /// survives renames of the target).
    Local(FileId),
    /// A document in a mounted remote name space.
    Remote(NamespaceId, String),
}

/// Who owns a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Produced by query evaluation; HAC may add and remove these freely.
    Transient,
    /// Added explicitly by the user; HAC never removes these.
    Permanent,
}

/// Bookkeeping for one live symlink in a semantic directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkState {
    /// Ownership class.
    pub kind: LinkKind,
    /// What the link points at.
    pub target: LinkTarget,
}

/// Metadata of one semantic directory.
#[derive(Debug, Clone)]
pub struct SemDir {
    /// Stable identifier (also the node in the dependency graph).
    pub uid: DirUid,
    /// The directory's inode.
    pub dir: FileId,
    /// The user's query (path references bound to UIDs).
    pub query: Query,
    /// Live symlinks by entry name.
    pub links: HashMap<String, LinkState>,
    /// Targets the user deleted; never silently re-added (§2.3).
    pub prohibited: HashSet<LinkTarget>,
    /// Local result bitmap of the last evaluation (the paper's per-directory
    /// `N/8`-byte compact query-result representation).
    pub last_result: Bitmap,
}

impl SemDir {
    /// Creates metadata for a fresh semantic directory.
    pub fn new(uid: DirUid, dir: FileId, query: Query) -> Self {
        SemDir {
            uid,
            dir,
            query,
            links: HashMap::new(),
            prohibited: HashSet::new(),
            last_result: Bitmap::new(),
        }
    }

    /// Names of all links of a kind, sorted (deterministic for tests).
    pub fn names_of_kind(&self, kind: LinkKind) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .links
            .iter()
            .filter(|(_, s)| s.kind == kind)
            .map(|(n, _)| n.as_str())
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether any live link already points at `target`.
    pub fn has_target(&self, target: &LinkTarget) -> bool {
        self.links.values().any(|s| &s.target == target)
    }

    /// The set of local targets of permanent links.
    pub fn permanent_local_targets(&self) -> Vec<FileId> {
        self.links
            .values()
            .filter(|s| s.kind == LinkKind::Permanent)
            .filter_map(|s| match s.target {
                LinkTarget::Local(id) => Some(id),
                LinkTarget::Remote(..) => None,
            })
            .collect()
    }

    /// Remote targets currently linked (any kind), grouped by namespace.
    pub fn remote_targets(&self) -> HashMap<NamespaceId, HashSet<String>> {
        let mut out: HashMap<NamespaceId, HashSet<String>> = HashMap::new();
        for s in self.links.values() {
            if let LinkTarget::Remote(ns, id) = &s.target {
                out.entry(ns.clone()).or_default().insert(id.clone());
            }
        }
        out
    }

    /// Picks an unused entry name for a new link, based on the target's
    /// preferred name. Collisions get `~2`, `~3`, … suffixes.
    pub fn free_name(&self, preferred: &str, taken: impl Fn(&str) -> bool) -> String {
        let base = if preferred.is_empty() {
            "link"
        } else {
            preferred
        };
        if !taken(base) {
            return base.to_string();
        }
        for i in 2.. {
            let cand = format!("{base}~{i}");
            if !taken(&cand) {
                return cand;
            }
        }
        unreachable!("the counter loop always finds a free name")
    }

    /// Approximate resident bytes of this directory's HAC metadata (drives
    /// the §4 in-text space-overhead numbers).
    pub fn resident_bytes(&self) -> u64 {
        let mut total = self.query.source.len() as u64 + 64;
        for (name, state) in &self.links {
            total += name.len() as u64 + 24;
            if let LinkTarget::Remote(ns, id) = &state.target {
                total += (ns.0.len() + id.len()) as u64;
            }
        }
        for t in &self.prohibited {
            total += match t {
                LinkTarget::Local(_) => 8,
                LinkTarget::Remote(ns, id) => (ns.0.len() + id.len()) as u64,
            };
        }
        total += self.last_result.bytes();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_query::parse;

    fn sd() -> SemDir {
        SemDir::new(DirUid(1), FileId(5), parse("fingerprint").unwrap())
    }

    #[test]
    fn names_of_kind_sorted() {
        let mut d = sd();
        d.links.insert(
            "b".into(),
            LinkState {
                kind: LinkKind::Transient,
                target: LinkTarget::Local(FileId(1)),
            },
        );
        d.links.insert(
            "a".into(),
            LinkState {
                kind: LinkKind::Transient,
                target: LinkTarget::Local(FileId(2)),
            },
        );
        d.links.insert(
            "c".into(),
            LinkState {
                kind: LinkKind::Permanent,
                target: LinkTarget::Local(FileId(3)),
            },
        );
        assert_eq!(d.names_of_kind(LinkKind::Transient), vec!["a", "b"]);
        assert_eq!(d.names_of_kind(LinkKind::Permanent), vec!["c"]);
        assert_eq!(d.permanent_local_targets(), vec![FileId(3)]);
    }

    #[test]
    fn free_name_dedups_with_suffix() {
        let d = sd();
        let taken = |n: &str| n == "report" || n == "report~2";
        assert_eq!(d.free_name("report", taken), "report~3");
        assert_eq!(d.free_name("fresh", taken), "fresh");
        assert_eq!(d.free_name("", |_| false), "link");
    }

    #[test]
    fn remote_targets_grouped_by_namespace() {
        let mut d = sd();
        let ns = NamespaceId("lib".into());
        d.links.insert(
            "x".into(),
            LinkState {
                kind: LinkKind::Transient,
                target: LinkTarget::Remote(ns.clone(), "doc1".into()),
            },
        );
        d.links.insert(
            "y".into(),
            LinkState {
                kind: LinkKind::Permanent,
                target: LinkTarget::Remote(ns.clone(), "doc2".into()),
            },
        );
        let grouped = d.remote_targets();
        assert_eq!(grouped[&ns].len(), 2);
        assert!(d.has_target(&LinkTarget::Remote(ns, "doc1".into())));
    }

    #[test]
    fn resident_bytes_counts_result_bitmap() {
        let mut d = sd();
        let before = d.resident_bytes();
        let mut bm = Bitmap::new();
        bm.insert(hac_index::DocId(1023));
        d.last_result = bm;
        assert!(d.resident_bytes() >= before + 128);
    }
}
