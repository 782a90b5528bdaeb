//! A `ContentStore` wrapper that counts what crosses the store boundary:
//! object puts and their bytes, WAL bytes, and ref swaps (commit points).
//! The store layer is measured from outside with it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hac_store::{ContentHash, ContentStore, ObjectInfo, StoreResult};

/// Counts of mutating store traffic. The counters are statistics and
/// publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Counts {
    puts: AtomicU64,
    put_bytes: AtomicU64,
    wal_bytes: AtomicU64,
    ref_swaps: AtomicU64,
}

impl Counts {
    /// Objects put.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Bytes written: objects plus WAL appends.
    pub fn bytes_written(&self) -> u64 {
        self.put_bytes.load(Ordering::Relaxed) + self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Ref swaps: one per commit point (segment commit, merge, checkpoint).
    pub fn commits(&self) -> u64 {
        self.ref_swaps.load(Ordering::Relaxed)
    }
}

/// The counting wrapper.
pub struct CountingStore {
    inner: Arc<dyn ContentStore>,
    counts: Arc<Counts>,
}

impl CountingStore {
    /// Wraps `inner`; the returned handle reads the counters.
    pub fn new(inner: Arc<dyn ContentStore>) -> (CountingStore, Arc<Counts>) {
        let counts = Arc::new(Counts::default());
        (
            CountingStore {
                inner,
                counts: Arc::clone(&counts),
            },
            counts,
        )
    }

    fn count_put(&self, bytes: &[u8]) {
        self.counts.puts.fetch_add(1, Ordering::Relaxed);
        self.counts
            .put_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
}

impl ContentStore for CountingStore {
    fn put(&self, bytes: &[u8]) -> StoreResult<ContentHash> {
        self.count_put(bytes);
        self.inner.put(bytes)
    }

    fn put_raw(&self, hash: ContentHash, bytes: &[u8]) -> StoreResult<()> {
        self.count_put(bytes);
        self.inner.put_raw(hash, bytes)
    }

    fn get(&self, hash: ContentHash) -> StoreResult<Vec<u8>> {
        self.inner.get(hash)
    }

    fn contains(&self, hash: ContentHash) -> StoreResult<bool> {
        self.inner.contains(hash)
    }

    fn remove(&self, hash: ContentHash) -> StoreResult<bool> {
        self.inner.remove(hash)
    }

    fn objects(&self) -> StoreResult<Vec<ObjectInfo>> {
        self.inner.objects()
    }

    fn set_ref(&self, name: &str, hash: ContentHash) -> StoreResult<()> {
        self.counts.ref_swaps.fetch_add(1, Ordering::Relaxed);
        self.inner.set_ref(name, hash)
    }

    fn get_ref(&self, name: &str) -> StoreResult<Option<ContentHash>> {
        self.inner.get_ref(name)
    }

    fn wal_load(&self) -> StoreResult<Vec<u8>> {
        self.inner.wal_load()
    }

    fn wal_append(&self, bytes: &[u8]) -> StoreResult<()> {
        self.counts
            .wal_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.wal_append(bytes)
    }

    fn wal_reset(&self) -> StoreResult<()> {
        self.inner.wal_reset()
    }
}
