//! Remote name spaces (§3 of the paper).
//!
//! A *semantic mount point* connects local queries to a remote file or
//! query system. The remote side only has to answer content queries in the
//! shared query language — it does not need hierarchy, symlinks, or HAC.
//! `hac-remote` provides concrete implementations (a simulated web search
//! engine, another HAC instance, a flat file server); the trait lives here
//! so the core can be tested with in-crate fakes.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use hac_index::ContentExpr;

/// Identifier of a mounted remote name space. Must be unique among the
/// remotes mounted into one `HacFs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NamespaceId(pub String);

impl fmt::Display for NamespaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One result returned by a remote query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteDoc {
    /// Remote-unique identifier (URL, path, object key — opaque to HAC).
    pub id: String,
    /// Human-readable title used to name the imported symlink.
    pub title: String,
}

/// Errors surfaced by remote name spaces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RemoteError {
    /// The remote is unreachable or refused the request.
    Unavailable(String),
    /// The request exceeded the remote's deadline.
    Timeout,
    /// The requested document does not exist remotely.
    NotFound(String),
    /// The remote cannot evaluate this query shape.
    UnsupportedQuery(String),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Unavailable(m) => write!(f, "remote unavailable: {m}"),
            RemoteError::Timeout => write!(f, "remote timed out"),
            RemoteError::NotFound(id) => write!(f, "remote document not found: {id}"),
            RemoteError::UnsupportedQuery(m) => write!(f, "remote cannot evaluate query: {m}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// Shared retry/backoff/deadline configuration for anything that talks to
/// a remote: the reindex daemon's failure backoff and every mount client's
/// retry loop draw their tuning from one `RetryPolicy` so mounts do not
/// grow divergent backoff behaviour.
///
/// The delay schedule is the daemon's capped exponential:
/// `base_delay × 2^(failures-1)`, capped at `max_backoff_factor×`, plus up
/// to 25% deterministic jitter so co-failing clients do not retry in
/// lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per logical request (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry (and the daemon's base interval).
    pub base_delay: Duration,
    /// Backoff ceiling as a multiple of `base_delay`.
    pub max_backoff_factor: u32,
    /// Per-request I/O deadline (read and write) for network clients.
    pub request_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(50),
            max_backoff_factor: 64,
            request_timeout: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// The daemon's shape: no request-level retries of its own (the next
    /// tick is the retry), backoff from the reindex interval.
    pub fn daemon(interval: Duration) -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: interval,
            max_backoff_factor: crate::daemon::MAX_BACKOFF_FACTOR,
            request_timeout: Duration::ZERO,
        }
    }

    /// Delay before the next attempt after `consecutive_failures` failures
    /// in a row. `jitter_state` is caller-held xorshift64 state so the
    /// schedule is deterministic per client and free of RNG dependencies.
    pub fn delay(&self, consecutive_failures: u64, jitter_state: &mut u64) -> Duration {
        let exp = consecutive_failures.saturating_sub(1).min(31) as u32;
        let factor = 1u32
            .checked_shl(exp)
            .unwrap_or(self.max_backoff_factor)
            .min(self.max_backoff_factor.max(1));
        let base = self.base_delay.saturating_mul(factor);
        let mut x = *jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *jitter_state = x;
        let quarter_ns = (base.as_nanos() / 4).min(u64::MAX as u128) as u64;
        let jitter = if quarter_ns == 0 { 0 } else { x % quarter_ns };
        base + Duration::from_nanos(jitter)
    }

    /// Seeds jitter state off the base delay (determinism across runs
    /// matters more than unpredictability — see the daemon's rationale).
    pub fn seed_jitter(&self) -> u64 {
        0x9E37_79B9_7F4A_7C15 ^ (self.base_delay.as_nanos() as u64 | 1)
    }
}

/// Failure-injection policy shared by the simulated remotes and the network
/// test servers (moved here from `hac_remote::websearch` so every backend
/// injects faults the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Never fail.
    None,
    /// Fail every request with `Unavailable`.
    AlwaysDown,
    /// Fail each request whose sequence number is a multiple of `n`.
    EveryNth(u64),
    /// Time out every request (models a hung remote).
    AlwaysTimeout,
}

impl FailurePolicy {
    /// Applies the policy to request number `seq` (1-based).
    ///
    /// # Errors
    ///
    /// The injected [`RemoteError`] when the policy says this request
    /// fails.
    pub fn check(&self, seq: u64) -> Result<(), RemoteError> {
        match *self {
            FailurePolicy::None => Ok(()),
            FailurePolicy::AlwaysDown => {
                Err(RemoteError::Unavailable("engine offline".to_string()))
            }
            FailurePolicy::EveryNth(k) if k > 0 && seq.is_multiple_of(k) => Err(
                RemoteError::Unavailable(format!("transient fault on request {seq}")),
            ),
            FailurePolicy::EveryNth(_) => Ok(()),
            FailurePolicy::AlwaysTimeout => Err(RemoteError::Timeout),
        }
    }
}

/// A remote file or query system reachable through a semantic mount point.
///
/// The paper's only requirement: "all name spaces mounted on a multiple
/// semantic mount point must be accessible via the same query language."
/// Queries arrive as [`ContentExpr`] — the content projection of the local
/// query (directory references are resolved locally and never shipped).
pub trait RemoteQuerySystem: Send + Sync {
    /// This remote's stable namespace id.
    fn namespace(&self) -> NamespaceId;

    /// Evaluates a content query, returning matching remote documents.
    ///
    /// # Errors
    ///
    /// Implementations report connectivity and capability problems via
    /// [`RemoteError`]; HAC keeps the previous imported results for this
    /// namespace when a refresh fails.
    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError>;

    /// Evaluates a content query, depositing the results in `out`.
    ///
    /// The default simply delegates to [`RemoteQuerySystem::search`].
    /// Implementations that materialize results from a serialized form
    /// (e.g. a network client decoding a response) can override this to
    /// recycle `out`'s existing allocations, so steady-state polling of a
    /// namespace allocates nothing per refresh.
    ///
    /// # Errors
    ///
    /// Same as [`RemoteQuerySystem::search`]. On error the contents of
    /// `out` are unspecified (but valid).
    fn search_into(
        &self,
        query: &ContentExpr,
        out: &mut Vec<RemoteDoc>,
    ) -> Result<(), RemoteError> {
        *out = self.search(query)?;
        Ok(())
    }

    /// Fetches a remote document's content (for `sact` and browsing).
    ///
    /// # Errors
    ///
    /// [`RemoteError::NotFound`] for unknown ids, plus connectivity errors.
    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError>;

    /// Whether the most recent successful [`search`](Self::search) on this
    /// remote returned *partial* results — a federated coordinator that
    /// lost one or more shards mid-fan-out degrades to the union of the
    /// shards that answered and raises this marker instead of failing the
    /// whole query. Plain single-endpoint remotes are never partial.
    ///
    /// Semantic directory resync consults this flag: links imported from a
    /// partial namespace are refreshed *additively* (new hits appear,
    /// previously imported links survive), exactly like the
    /// keep-on-failure rule, so a dead shard can hide documents but never
    /// poison semdir state.
    fn last_partial(&self) -> bool {
        false
    }

    /// The remote's current durable-index manifest (HACM bytes), the root
    /// of segment-shipped replication. Remotes without a durable store
    /// report [`RemoteError::UnsupportedQuery`].
    ///
    /// # Errors
    ///
    /// [`RemoteError::UnsupportedQuery`] when the remote has no store,
    /// plus connectivity errors.
    fn manifest_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::UnsupportedQuery(
            "remote has no durable store".to_string(),
        ))
    }

    /// One content-addressed store object (segment, snapshot, or path
    /// sidecar) by hex hash — the fetch half of segment shipping. The
    /// caller verifies the returned bytes hash to `hash` before trusting
    /// them.
    ///
    /// # Errors
    ///
    /// [`RemoteError::NotFound`] for unknown hashes,
    /// [`RemoteError::UnsupportedQuery`] when the remote has no store.
    fn object_bytes(&self, hash: &str) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::UnsupportedQuery(format!(
            "remote has no durable store (object {hash})"
        )))
    }

    /// The shard map (HACF bytes) this remote belongs to, if it is one
    /// shard of a federated namespace. A client that mounts `fed://` asks
    /// any shard for the map, so clients and coordinator always agree on
    /// placement.
    ///
    /// # Errors
    ///
    /// [`RemoteError::NotFound`] when this remote is not part of a
    /// federation, plus connectivity errors.
    fn shard_map_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::NotFound("no shard map".to_string()))
    }

    /// The remote's recorded spans for one trace id (HACT bytes) — the
    /// pull half of cross-node trace stitching. A coordinator assembling
    /// `/trace/<id>` asks every shard that served part of the request for
    /// its span forest and stitches them under the client's root span.
    /// Remotes without an observability plane report
    /// [`RemoteError::UnsupportedQuery`].
    ///
    /// # Errors
    ///
    /// [`RemoteError::UnsupportedQuery`] when the remote does not record
    /// spans, plus connectivity errors. An id the remote never saw is
    /// *not* an error: it returns an empty forest (span rings evict, and
    /// absence of spans must not fail a stitch).
    fn trace_spans_bytes(&self, trace_id: u64) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::UnsupportedQuery(format!(
            "remote records no spans (trace {trace_id:016x})"
        )))
    }

    /// The remote's current metric-registry snapshot (HACR bytes) — one
    /// node's contribution to a federated `/fleet/metrics` scrape.
    /// Remotes without an observability plane report
    /// [`RemoteError::UnsupportedQuery`].
    ///
    /// # Errors
    ///
    /// [`RemoteError::UnsupportedQuery`] when the remote exports no
    /// metrics, plus connectivity errors.
    fn metrics_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::UnsupportedQuery(
            "remote exports no metrics".to_string(),
        ))
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! In-crate fake remote for core tests.

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use super::*;

    /// A fake remote with a fixed corpus of (id, words) pairs.
    pub struct FakeRemote {
        pub ns: &'static str,
        pub docs: Vec<(&'static str, &'static str)>,
        pub fail: AtomicBool,
        pub searches: AtomicU64,
    }

    impl FakeRemote {
        pub fn new(ns: &'static str, docs: Vec<(&'static str, &'static str)>) -> Self {
            FakeRemote {
                ns,
                docs,
                fail: AtomicBool::new(false),
                searches: AtomicU64::new(0),
            }
        }
    }

    impl RemoteQuerySystem for FakeRemote {
        fn namespace(&self) -> NamespaceId {
            NamespaceId(self.ns.to_string())
        }

        fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
            self.searches.fetch_add(1, Ordering::Relaxed);
            if self.fail.load(Ordering::Relaxed) {
                return Err(RemoteError::Unavailable("injected failure".into()));
            }
            fn matches(q: &ContentExpr, words: &[&str]) -> bool {
                match q {
                    ContentExpr::Term(t) => words.contains(&t.as_str()),
                    ContentExpr::All => true,
                    ContentExpr::Nothing => false,
                    ContentExpr::And(a, b) => matches(a, words) && matches(b, words),
                    ContentExpr::Or(a, b) => matches(a, words) || matches(b, words),
                    ContentExpr::AndNot(a, b) => matches(a, words) && !matches(b, words),
                    ContentExpr::Not(a) => !matches(a, words),
                    ContentExpr::Field(..)
                    | ContentExpr::Phrase(_)
                    | ContentExpr::Approx(..)
                    | ContentExpr::Prefix(_) => false,
                }
            }
            Ok(self
                .docs
                .iter()
                .filter(|(_, text)| {
                    let words: Vec<&str> = text.split_whitespace().collect();
                    matches(query, &words)
                })
                .map(|(id, _)| RemoteDoc {
                    id: id.to_string(),
                    title: id.to_string(),
                })
                .collect())
        }

        fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
            self.docs
                .iter()
                .find(|(d, _)| *d == id)
                .map(|(_, text)| text.as_bytes().to_vec())
                .ok_or_else(|| RemoteError::NotFound(id.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::FakeRemote;
    use super::*;

    #[test]
    fn fake_remote_answers_boolean_queries() {
        let r = FakeRemote::new(
            "lib",
            vec![("a", "fingerprint minutiae"), ("b", "cooking pasta")],
        );
        let hits = r.search(&ContentExpr::term("fingerprint")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "a");
        assert_eq!(r.fetch("b").unwrap(), b"cooking pasta".to_vec());
        assert!(matches!(r.fetch("zz"), Err(RemoteError::NotFound(_))));
    }

    #[test]
    fn retry_policy_delay_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_backoff_factor: 8,
            request_timeout: Duration::from_secs(1),
        };
        let mut jitter = p.seed_jitter();
        let mut prev = Duration::ZERO;
        for failures in 1..=4u64 {
            let d = p.delay(failures, &mut jitter);
            let base = Duration::from_millis(10) * (1u32 << (failures - 1));
            assert!(
                d >= base && d <= base + base / 4,
                "failure #{failures}: {d:?}"
            );
            assert!(d > prev);
            prev = d;
        }
        // Beyond the cap the delay stays at max_backoff_factor× (+ jitter).
        let capped = p.delay(100, &mut jitter);
        let ceiling = Duration::from_millis(80);
        assert!(capped >= ceiling && capped <= ceiling + ceiling / 4);
    }

    #[test]
    fn failure_policy_check_matches_documented_shape() {
        assert!(FailurePolicy::None.check(1).is_ok());
        assert!(matches!(
            FailurePolicy::AlwaysDown.check(1),
            Err(RemoteError::Unavailable(_))
        ));
        assert!(matches!(
            FailurePolicy::AlwaysTimeout.check(7),
            Err(RemoteError::Timeout)
        ));
        let every2 = FailurePolicy::EveryNth(2);
        assert!(every2.check(1).is_ok());
        assert!(every2.check(2).is_err());
        assert!(every2.check(3).is_ok());
        assert!(FailurePolicy::EveryNth(0).check(5).is_ok());
    }

    #[test]
    fn remote_types_roundtrip_through_the_codec() {
        let doc = RemoteDoc {
            id: "/pub/a.txt".to_string(),
            title: "a.txt".to_string(),
        };
        let bytes = hac_vfs::persist::encode_value(&doc).unwrap();
        let back: RemoteDoc = hac_vfs::persist::decode_value(&bytes).unwrap();
        assert_eq!(back, doc);
        for err in [
            RemoteError::Unavailable("x".into()),
            RemoteError::Timeout,
            RemoteError::NotFound("id".into()),
            RemoteError::UnsupportedQuery("q".into()),
        ] {
            let bytes = hac_vfs::persist::encode_value(&err).unwrap();
            let back: RemoteError = hac_vfs::persist::decode_value(&bytes).unwrap();
            assert_eq!(back, err);
        }
    }

    #[test]
    fn fake_remote_failure_injection() {
        let r = FakeRemote::new("lib", vec![]);
        r.fail.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(matches!(
            r.search(&ContentExpr::All),
            Err(RemoteError::Unavailable(_))
        ));
    }
}
