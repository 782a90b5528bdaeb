//! Shared attribute cache.
//!
//! The paper (§4) stores an attribute cache in shared memory so that every
//! process sees file status without touching the underlying file system;
//! this sped up the Andrew benchmark's Scan phase. Here the cache is a
//! bounded map shared between all process handles of a [`crate::Vfs`], with
//! hit/miss accounting so the benchmarks can report its effect and its
//! memory footprint (the paper quotes ~16 KB per process).

use std::collections::HashMap;
use std::sync::Mutex;

use hac_obs::sync::lock;

use crate::attr::{Attr, FileId};

/// Statistics kept by the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to fall through to the node table.
    pub misses: u64,
    /// Entries evicted due to capacity.
    pub evictions: u64,
    /// Entries invalidated by mutations.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Inner {
    map: HashMap<FileId, (Attr, u64)>,
    clock: u64,
    stats: CacheStats,
}

/// A capacity-bounded attribute cache with LRU-ish eviction.
///
/// Eviction removes the least recently touched entry; exactness of the LRU
/// order is not load-bearing, the cache exists to model the paper's
/// shared-memory attribute cache and to make `stat`-heavy phases cheap.
#[derive(Debug)]
pub struct AttrCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl AttrCache {
    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        AttrCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Looks up an attribute, counting a hit or miss.
    pub fn get(&self, id: FileId) -> Option<Attr> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&id) {
            Some((attr, touched)) => {
                *touched = clock;
                let attr = *attr;
                inner.stats.hits += 1;
                Some(attr)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts or refreshes an attribute, evicting if over capacity.
    pub fn put(&self, attr: Attr) {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(attr.id, (attr, clock));
        if inner.map.len() > self.capacity {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(id, _)| *id)
            {
                inner.map.remove(&victim);
                inner.stats.evictions += 1;
            }
        }
    }

    /// Drops the cached attribute for `id`, if present.
    pub fn invalidate(&self, id: FileId) {
        let mut inner = lock(&self.inner);
        if inner.map.remove(&id).is_some() {
            inner.stats.invalidations += 1;
        }
    }

    /// Empties the cache (used when restoring a snapshot).
    pub fn clear(&self) {
        lock(&self.inner).map.clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        lock(&self.inner).stats
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes (entry payload only), for the §4 in-text
    /// memory-overhead experiment.
    pub fn resident_bytes(&self) -> u64 {
        let per_entry = std::mem::size_of::<(FileId, (Attr, u64))>() as u64;
        self.len() as u64 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{LogicalTime, NodeKind};

    fn attr(id: u64) -> Attr {
        Attr {
            id: FileId(id),
            kind: NodeKind::File,
            size: 1,
            mtime: LogicalTime(1),
            ctime: LogicalTime(1),
            version: 0,
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = AttrCache::new(8);
        assert!(cache.get(FileId(1)).is_none());
        cache.put(attr(1));
        assert_eq!(cache.get(FileId(1)).unwrap().id, FileId(1));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = AttrCache::new(2);
        cache.put(attr(1));
        cache.put(attr(2));
        // Touch 1 so that 2 becomes the LRU victim.
        cache.get(FileId(1));
        cache.put(attr(3));
        assert!(cache.get(FileId(2)).is_none());
        assert!(cache.get(FileId(1)).is_some());
        assert!(cache.get(FileId(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidate_removes_entry() {
        let cache = AttrCache::new(4);
        cache.put(attr(5));
        cache.invalidate(FileId(5));
        assert!(cache.get(FileId(5)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        // Invalidating a missing entry is a no-op.
        cache.invalidate(FileId(99));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn resident_bytes_tracks_len() {
        let cache = AttrCache::new(16);
        assert_eq!(cache.resident_bytes(), 0);
        cache.put(attr(1));
        cache.put(attr(2));
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() > 0);
    }
}
