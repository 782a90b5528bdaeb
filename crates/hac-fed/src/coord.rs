//! The federation coordinator: scatter-gather queries over N shards.
//!
//! [`FedRemote`] implements `RemoteQuerySystem`, so a federated
//! namespace mounts through `smount` exactly like a single remote one —
//! the semantic-directory machinery never learns that its backend fans
//! out. Queries scatter to every shard concurrently (each shard client
//! is a pooled `hac-net` [`NetRemote`]), results union by document
//! id, and the whole fan-out runs under **one deadline budget**: a shard
//! that cannot answer in time degrades the response to an explicitly
//! flagged *partial* result instead of stalling or failing the mount.
//!
//! Degradation contract, in order of preference:
//!
//! 1. Shard answers → its documents are in the result.
//! 2. Shard errors retriably and has a read replica → the replica is
//!    tried within the same budget (failover).
//! 3. Shard (and replicas) fail or miss the deadline → the result is
//!    returned **without** that shard's documents and
//!    [`FedRemote::last_partial`] reports `true`; semdir resync then
//!    treats the namespace additively (keeps previously imported links,
//!    adds new ones) rather than dropping state it cannot re-verify.
//! 4. Every shard fails → the query errors ([`RemoteError::Unavailable`])
//!    like a single dead server would.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_index::ContentExpr;
use hac_net::client::{ClientConfig, NetRemote};

use crate::map::ShardMap;
use crate::FedError;

/// Tuning for a [`FedRemote`].
#[derive(Debug, Clone)]
pub struct FedConfig {
    /// Per-shard transport tuning: each shard client is a [`NetRemote`]
    /// with its own exclusive-checkout connection pool.
    pub client: ClientConfig,
    /// Deadline budget for one whole fan-out: scatter, per-shard
    /// evaluation, failover, and gather all share it. A shard that has
    /// not answered when it expires is dropped from the (partial) result.
    pub fanout_budget: Duration,
}

impl Default for FedConfig {
    fn default() -> Self {
        FedConfig {
            client: ClientConfig::default(),
            fanout_budget: Duration::from_secs(2),
        }
    }
}

/// Live health counters for one shard, aggregated since construction.
#[derive(Debug, Default)]
struct ShardStats {
    ok: AtomicU64,
    errors: AtomicU64,
    failovers: AtomicU64,
    timeouts: AtomicU64,
    /// Scatter failures (error or timeout) since the last success —
    /// the signal [`ShardHealth`] bands are derived from.
    consecutive_failures: AtomicU64,
}

impl ShardStats {
    /// Records one scatter outcome into the failure run and refreshes
    /// the shard's health gauge (`hac_fed_shard_health`: 0 up,
    /// 1 degraded, 2 down).
    fn settle(&self, ns: &str, shard_ns: &str, succeeded: bool) {
        let failures = if succeeded {
            self.consecutive_failures.store(0, Ordering::Relaxed);
            0
        } else {
            self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1
        };
        let band = match ShardHealth::from_consecutive_failures(failures) {
            ShardHealth::Up => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Down => 2,
        };
        hac_obs::gauge("hac_fed_shard_health", &[("ns", ns), ("shard", shard_ns)]).set(band);
    }
}

/// Consecutive scatter failures at which a shard is considered down.
pub const DOWN_AFTER_FAILURES: u64 = 3;

/// Health band of one shard, derived from its consecutive scatter
/// failures: a single failure may be a blip (`Degraded`), a run of
/// [`DOWN_AFTER_FAILURES`] is an outage (`Down`), and any success resets
/// the run (`Up`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The most recent scatter this shard participated in succeeded.
    Up,
    /// Recent failures, below the down threshold.
    Degraded,
    /// [`DOWN_AFTER_FAILURES`] or more failures in a row.
    Down,
}

impl ShardHealth {
    /// Stable lowercase label (`fed status`, `/fleet/health`, metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Up => "up",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Down => "down",
        }
    }

    fn from_consecutive_failures(failures: u64) -> ShardHealth {
        match failures {
            0 => ShardHealth::Up,
            f if f >= DOWN_AFTER_FAILURES => ShardHealth::Down,
            _ => ShardHealth::Degraded,
        }
    }
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A point-in-time snapshot of one shard's health, for `fed status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard namespace (e.g. `lib.2`).
    pub ns: String,
    /// The primary's address.
    pub addr: String,
    /// Read replicas attached for failover.
    pub replicas: usize,
    /// Successful shard answers.
    pub ok: u64,
    /// Failed shard answers (after failover, if any).
    pub errors: u64,
    /// Answers served by a replica after the primary failed.
    pub failovers: u64,
    /// Fan-outs this shard failed to answer within the budget.
    pub timeouts: u64,
    /// Failures (error or timeout) since the last success.
    pub consecutive_failures: u64,
}

impl ShardStatus {
    /// The health band the failure run places this shard in.
    pub fn health(&self) -> ShardHealth {
        ShardHealth::from_consecutive_failures(self.consecutive_failures)
    }
}

/// A point-in-time snapshot of the federation, for `fed status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FedStatus {
    /// The logical namespace clients mount.
    pub logical: String,
    /// Placement generation of the map in use.
    pub generation: u64,
    /// Whether the most recent query degraded to a partial result.
    pub last_partial: bool,
    /// Per-shard health.
    pub shards: Vec<ShardStatus>,
}

impl FedStatus {
    /// The `/fleet/health` JSON body: federation identity, the partial
    /// flag, and every shard's counters with its derived health band.
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"ns\":\"{}\",\"addr\":\"{}\",\"health\":\"{}\",\"replicas\":{},\
                     \"ok\":{},\"errors\":{},\"failovers\":{},\"timeouts\":{},\
                     \"consecutive_failures\":{}}}",
                    jescape(&s.ns),
                    jescape(&s.addr),
                    s.health(),
                    s.replicas,
                    s.ok,
                    s.errors,
                    s.failovers,
                    s.timeouts,
                    s.consecutive_failures,
                )
            })
            .collect();
        format!(
            "{{\"logical\":\"{}\",\"generation\":{},\"last_partial\":{},\"shards\":[{}]}}",
            jescape(&self.logical),
            self.generation,
            self.last_partial,
            shards.join(",")
        )
    }
}

/// Minimal JSON string escaping for namespace/address values.
fn jescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs `f` once per peer, each on its own detached thread continuing
/// the caller's trace, and gathers the answers until `deadline`. Slot `i`
/// holds peer `i`'s answer, or `None` if it had not answered in time.
/// Threads that outlive the deadline send into a dropped receiver, which
/// is harmless — the deadline bounds the *caller*, not the peer.
fn scatter<P, R, F>(peers: Vec<P>, deadline: Instant, f: F) -> Vec<Option<R>>
where
    P: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, P) -> R + Send + Sync + 'static,
{
    let mut out: Vec<Option<R>> = peers.iter().map(|_| None).collect();
    let f = Arc::new(f);
    let ctx = hac_obs::current_trace();
    let (tx, rx) = mpsc::channel();
    for (i, peer) in peers.into_iter().enumerate() {
        let f = Arc::clone(&f);
        let tx = tx.clone();
        thread::spawn(move || {
            let _trace = ctx.map(hac_obs::continue_trace);
            let _ = tx.send((i, f(i, peer)));
        });
    }
    drop(tx);
    for _ in 0..out.len() {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match rx.recv_timeout(deadline - now) {
            Ok((i, answer)) => out[i] = Some(answer),
            Err(_) => break, // deadline or all workers gone
        }
    }
    out
}

/// One shard's client set: the primary plus failover replicas.
struct Shard {
    primary: Arc<dyn RemoteQuerySystem>,
    replicas: Mutex<Vec<Arc<dyn RemoteQuerySystem>>>,
    stats: ShardStats,
}

/// Scatter-gather coordinator over a [`ShardMap`].
///
/// Implements `RemoteQuerySystem` for the *logical* namespace; drop it
/// into `HacFs::smount` like any other remote backend.
pub struct FedRemote {
    ns: NamespaceId,
    map: Arc<ShardMap>,
    shards: Vec<Arc<Shard>>,
    budget: Duration,
    partial: AtomicBool,
}

impl FedRemote {
    /// Connect a coordinator to every shard in `map` over `hac-net`.
    ///
    /// Dialing is lazy (inherited from [`NetRemote`]): construction does
    /// no I/O, and a shard that is down only costs its fan-outs.
    pub fn connect(map: ShardMap, config: FedConfig) -> FedRemote {
        let backends = map
            .shards
            .iter()
            .map(|s| {
                Arc::new(NetRemote::connect(&s.ns, &s.addr, config.client.clone()))
                    as Arc<dyn RemoteQuerySystem>
            })
            .collect();
        FedRemote::with_backends(map, backends, config.fanout_budget)
    }

    /// Build a coordinator over explicit shard backends (one per map
    /// entry, in placement order). This is the transport-free seam the
    /// federation tests and proptests use; [`FedRemote::connect`] is the
    /// same thing with `NetRemote` backends.
    ///
    /// # Panics
    ///
    /// If the map has no shards, or `backends.len()` disagrees with its
    /// shard count.
    pub fn with_backends(
        map: ShardMap,
        backends: Vec<Arc<dyn RemoteQuerySystem>>,
        fanout_budget: Duration,
    ) -> FedRemote {
        assert!(map.shard_count() > 0, "a federation has at least one shard");
        assert_eq!(
            backends.len(),
            map.shard_count(),
            "one backend per shard map entry"
        );
        FedRemote {
            ns: NamespaceId(map.logical.clone()),
            map: Arc::new(map),
            shards: backends
                .into_iter()
                .map(|primary| {
                    Arc::new(Shard {
                        primary,
                        replicas: Mutex::new(Vec::new()),
                        stats: ShardStats::default(),
                    })
                })
                .collect(),
            budget: fanout_budget,
            partial: AtomicBool::new(false),
        }
    }

    /// Fetch the shard map from a running shard server and connect to
    /// the whole federation it describes. `addr` is any shard's
    /// `host:port`; `logical` is the logical namespace (the server is
    /// probed via capabilities for a shard namespace of that family, so
    /// callers need not know shard numbering).
    ///
    /// # Errors
    ///
    /// Transport errors from the probe, or [`FedError::Store`] when the
    /// returned map fails validation.
    pub fn discover(logical: &str, addr: &str, config: FedConfig) -> Result<FedRemote, FedError> {
        let probe = NetRemote::connect(logical, addr, config.client.clone());
        let namespaces = probe.capabilities()?;
        let family = format!("{logical}.");
        let shard_ns = namespaces
            .iter()
            .find(|n| n.as_str() == logical || n.starts_with(&family))
            .ok_or_else(|| {
                RemoteError::NotFound(format!("no shard of `{logical}` exported at {addr}"))
            })?;
        let shard = NetRemote::connect(shard_ns, addr, config.client.clone());
        let map = ShardMap::decode(&shard.shard_map_bytes()?)?;
        Ok(FedRemote::connect(map, config))
    }

    /// Attach a read replica to shard `shard`; it is tried, in
    /// attachment order, when the primary fails retriably mid-fan-out.
    ///
    /// # Panics
    ///
    /// If `shard` is out of range.
    pub fn add_replica(&self, shard: usize, replica: Arc<dyn RemoteQuerySystem>) {
        self.shards[shard].replicas.lock().unwrap().push(replica);
    }

    /// The placement map this coordinator routes with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Point-in-time federation health, for `fed status`.
    pub fn status(&self) -> FedStatus {
        FedStatus {
            logical: self.map.logical.clone(),
            generation: self.map.generation,
            last_partial: self.partial.load(Ordering::Relaxed),
            shards: self
                .map
                .shards
                .iter()
                .zip(&self.shards)
                .map(|(entry, shard)| ShardStatus {
                    ns: entry.ns.clone(),
                    addr: entry.addr.clone(),
                    replicas: shard.replicas.lock().unwrap().len(),
                    ok: shard.stats.ok.load(Ordering::Relaxed),
                    errors: shard.stats.errors.load(Ordering::Relaxed),
                    failovers: shard.stats.failovers.load(Ordering::Relaxed),
                    timeouts: shard.stats.timeouts.load(Ordering::Relaxed),
                    consecutive_failures: shard.stats.consecutive_failures.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Every peer of the federation — each shard's primary plus its
    /// attached replicas — with the node label fleet output uses for it
    /// (`<shard-ns>@<addr>`; replicas have no map address, so they are
    /// labeled `<shard-ns>@replica<i>`).
    fn fleet_peers(&self) -> Vec<(String, Arc<dyn RemoteQuerySystem>)> {
        let mut peers = Vec::new();
        for (entry, shard) in self.map.shards.iter().zip(&self.shards) {
            peers.push((
                format!("{}@{}", entry.ns, entry.addr),
                Arc::clone(&shard.primary),
            ));
            for (i, replica) in shard.replicas.lock().unwrap().iter().enumerate() {
                peers.push((format!("{}@replica{i}", entry.ns), Arc::clone(replica)));
            }
        }
        peers
    }

    /// Scatters one fleet op to every peer under the fan-out budget.
    /// Every peer gets a slot in the result; unreachable, failing, or
    /// over-budget peers yield `None` — the same degrade-don't-fail
    /// contract scatter queries follow.
    fn scatter_fleet<T, F>(&self, op: &'static str, call: F) -> Vec<(String, Option<T>)>
    where
        T: Send + 'static,
        F: Fn(&dyn RemoteQuerySystem) -> Result<T, RemoteError> + Send + Sync + 'static,
    {
        let (nodes, backends): (Vec<String>, Vec<_>) = self.fleet_peers().into_iter().unzip();
        let deadline = Instant::now() + self.budget;
        let _span = hac_obs::span!("fed_fleet_scatter", op = op, peers = nodes.len());
        let answers = scatter(backends, deadline, move |_, backend| {
            call(backend.as_ref()).ok()
        });
        nodes
            .into_iter()
            .zip(answers)
            .map(|(node, answer)| (node, answer.flatten()))
            .collect()
    }

    /// Pulls every peer's span forest for `trace_id` (wire
    /// `TraceSpans`) — the transport half of a stitched `/trace/<id>`
    /// view, shaped for [`hac_obs::http::FleetHooks::trace_spans`].
    pub fn fleet_trace(&self, trace_id: u64) -> Vec<hac_obs::http::PeerSpans> {
        self.scatter_fleet("trace_spans", move |backend: &dyn RemoteQuerySystem| {
            let bytes = backend.trace_spans_bytes(trace_id)?;
            hac_obs::trace::decode_spans(&bytes).map_err(RemoteError::UnsupportedQuery)
        })
        .into_iter()
        .map(|(node, events)| hac_obs::http::PeerSpans { node, events })
        .collect()
    }

    /// Scrapes every peer's metric registry (wire `Metrics`) — the
    /// transport half of a `/fleet/metrics` merge, shaped for
    /// [`hac_obs::http::FleetHooks::metrics`].
    pub fn fleet_metrics(&self) -> Vec<hac_obs::http::PeerSnapshot> {
        self.scatter_fleet("metrics", |backend: &dyn RemoteQuerySystem| {
            let bytes = backend.metrics_bytes()?;
            hac_obs::Snapshot::decode(&bytes).map_err(RemoteError::UnsupportedQuery)
        })
        .into_iter()
        .map(|(node, snapshot)| hac_obs::http::PeerSnapshot { node, snapshot })
        .collect()
    }
}

/// Whether failing over to a replica can help: transport-shaped errors
/// can; semantic refusals (`NotFound`, `UnsupportedQuery`) would repeat.
fn retriable(e: &RemoteError) -> bool {
    matches!(e, RemoteError::Unavailable(_) | RemoteError::Timeout)
}

/// One shard's slice of a fan-out: primary first, replicas on retriable
/// failure. Runs on a detached worker thread; returns the final verdict
/// and whether a replica served it.
fn query_shard(shard: &Shard, query: &ContentExpr) -> (Result<Vec<RemoteDoc>, RemoteError>, bool) {
    match shard.primary.search(query) {
        Ok(docs) => (Ok(docs), false),
        Err(e) if retriable(&e) => {
            let replicas = shard.replicas.lock().unwrap().clone();
            for r in replicas {
                if let Ok(docs) = r.search(query) {
                    return (Ok(docs), true);
                }
            }
            (Err(e), false)
        }
        Err(e) => (Err(e), false),
    }
}

impl RemoteQuerySystem for FedRemote {
    fn namespace(&self) -> NamespaceId {
        self.ns.clone()
    }

    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        let ns = self.ns.0.as_str();
        let total = self.shards.len();
        let started = Instant::now();
        let deadline = started + self.budget;
        let _span = hac_obs::span!("fed_scatter", ns = ns, shards = total);
        hac_obs::counter("hac_fed_scatter_total", &[("ns", ns)]).inc();

        // Scatter: one detached worker per shard, gathered under the
        // shared budget.
        let query = query.clone();
        let answers = scatter(self.shards.clone(), deadline, move |i, shard| {
            let _span = hac_obs::span!("fed_shard_query", shard = i);
            query_shard(&shard, &query)
        });

        let mut docs: Vec<RemoteDoc> = Vec::new();
        let mut ok = 0usize;
        let mut last_err: Option<RemoteError> = None;
        for (i, answer) in answers.into_iter().enumerate() {
            let stats = &self.shards[i].stats;
            let shard_ns = self.map.shards[i].ns.as_str();
            let Some((result, via_replica)) = answer else {
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                stats.settle(ns, shard_ns, false);
                hac_obs::counter(
                    "hac_fed_shard_timeouts_total",
                    &[("ns", ns), ("shard", shard_ns)],
                )
                .inc();
                continue;
            };
            if via_replica {
                stats.failovers.fetch_add(1, Ordering::Relaxed);
                hac_obs::counter("hac_fed_failover_total", &[("ns", ns)]).inc();
            }
            match result {
                Ok(shard_docs) => {
                    ok += 1;
                    stats.ok.fetch_add(1, Ordering::Relaxed);
                    stats.settle(ns, shard_ns, true);
                    docs.extend(shard_docs);
                }
                Err(e) => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    stats.settle(ns, shard_ns, false);
                    hac_obs::counter(
                        "hac_fed_shard_errors_total",
                        &[("ns", ns), ("shard", shard_ns)],
                    )
                    .inc();
                    last_err = Some(e);
                }
            }
        }
        hac_obs::histogram("hac_fed_scatter_micros", &[("ns", ns)])
            .record(started.elapsed().as_micros() as u64);

        if ok == 0 {
            // Nothing answered: fail like a single dead server. `partial`
            // is irrelevant (the caller gets an Err, not a result).
            self.partial.store(false, Ordering::Relaxed);
            return Err(match last_err {
                Some(e) => e,
                None => RemoteError::Timeout,
            });
        }
        let partial = ok < total;
        self.partial.store(partial, Ordering::Relaxed);
        if partial {
            hac_obs::counter("hac_fed_partial_total", &[("ns", ns)]).inc();
        }
        // Shards own disjoint placement slices, but a misconfigured
        // backend could overlap; dedup by id keeps the union a set.
        docs.sort_by(|a, b| a.id.cmp(&b.id));
        docs.dedup_by(|a, b| a.id == b.id);
        Ok(docs)
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        // Point reads route by placement: exactly one shard owns `id`.
        let owner = self.map.shard_of(id);
        let shard = match self.shards.get(owner) {
            Some(s) => s,
            None => return Err(RemoteError::NotFound(id.to_string())),
        };
        match shard.primary.fetch(id) {
            Ok(bytes) => Ok(bytes),
            Err(e) if retriable(&e) => {
                // Replicas may decline fetch (they replicate the index,
                // not document bodies); try them anyway, then surface
                // the primary's error as the authoritative one.
                let replicas = shard.replicas.lock().unwrap().clone();
                for r in replicas {
                    if let Ok(bytes) = r.fetch(id) {
                        shard.stats.failovers.fetch_add(1, Ordering::Relaxed);
                        return Ok(bytes);
                    }
                }
                shard.stats.errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    fn last_partial(&self) -> bool {
        self.partial.load(Ordering::Relaxed)
    }

    fn shard_map_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        Ok(self.map.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ShardEntry;

    /// A scripted shard backend: fixed docs, optional failure, optional
    /// artificial latency.
    struct Scripted {
        ns: &'static str,
        docs: Vec<RemoteDoc>,
        fail: Option<RemoteError>,
        delay: Duration,
    }

    impl Scripted {
        fn ok(ns: &'static str, ids: &[&str]) -> Arc<dyn RemoteQuerySystem> {
            Arc::new(Scripted {
                ns,
                docs: ids
                    .iter()
                    .map(|id| RemoteDoc {
                        id: id.to_string(),
                        title: id.to_string(),
                    })
                    .collect(),
                fail: None,
                delay: Duration::ZERO,
            })
        }

        fn down(ns: &'static str) -> Arc<dyn RemoteQuerySystem> {
            Arc::new(Scripted {
                ns,
                docs: Vec::new(),
                fail: Some(RemoteError::Unavailable("down".into())),
                delay: Duration::ZERO,
            })
        }

        fn slow(ns: &'static str, ids: &[&str], delay: Duration) -> Arc<dyn RemoteQuerySystem> {
            Arc::new(Scripted {
                ns,
                docs: ids
                    .iter()
                    .map(|id| RemoteDoc {
                        id: id.to_string(),
                        title: id.to_string(),
                    })
                    .collect(),
                fail: None,
                delay,
            })
        }
    }

    impl RemoteQuerySystem for Scripted {
        fn namespace(&self) -> NamespaceId {
            NamespaceId(self.ns.to_string())
        }
        fn search(&self, _q: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
            if !self.delay.is_zero() {
                thread::sleep(self.delay);
            }
            match &self.fail {
                Some(e) => Err(e.clone()),
                None => Ok(self.docs.clone()),
            }
        }
        fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
            match &self.fail {
                Some(e) => Err(e.clone()),
                None => Ok(id.as_bytes().to_vec()),
            }
        }
        fn trace_spans_bytes(&self, trace_id: u64) -> Result<Vec<u8>, RemoteError> {
            if let Some(e) = &self.fail {
                return Err(e.clone());
            }
            let span = hac_obs::Event {
                name: format!("{}_span", self.ns),
                fields: vec![],
                at_micros: 1,
                duration_micros: Some(2),
                trace_id: Some(trace_id),
                span_id: Some(self.ns.len() as u64),
                parent_span_id: None,
            };
            Ok(hac_obs::trace::encode_spans(&[span]))
        }
        fn metrics_bytes(&self) -> Result<Vec<u8>, RemoteError> {
            if let Some(e) = &self.fail {
                return Err(e.clone());
            }
            let reg = hac_obs::Registry::new();
            reg.counter("t_shard_docs_total", &[])
                .add(self.docs.len() as u64);
            Ok(reg.snapshot().encode())
        }
    }

    fn map2() -> ShardMap {
        ShardMap {
            generation: 1,
            logical: "lib".into(),
            shards: vec![
                ShardEntry {
                    ns: "lib.0".into(),
                    addr: "none:0".into(),
                },
                ShardEntry {
                    ns: "lib.1".into(),
                    addr: "none:1".into(),
                },
            ],
        }
    }

    #[test]
    fn all_shards_up_is_a_complete_union() {
        let fed = FedRemote::with_backends(
            map2(),
            vec![
                Scripted::ok("lib.0", &["/a", "/c"]),
                Scripted::ok("lib.1", &["/b"]),
            ],
            Duration::from_secs(5),
        );
        let docs = fed.search(&ContentExpr::All).unwrap();
        let ids: Vec<&str> = docs.iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, vec!["/a", "/b", "/c"]);
        assert!(!fed.last_partial());
        let st = fed.status();
        assert_eq!(st.shards[0].ok, 1);
        assert_eq!(st.shards[1].ok, 1);
    }

    #[test]
    fn one_dead_shard_degrades_to_flagged_partial() {
        let fed = FedRemote::with_backends(
            map2(),
            vec![Scripted::ok("lib.0", &["/a"]), Scripted::down("lib.1")],
            Duration::from_secs(5),
        );
        let docs = fed.search(&ContentExpr::All).unwrap();
        assert_eq!(docs.len(), 1);
        assert!(fed.last_partial(), "lost shard must flag the result");
        assert_eq!(fed.status().shards[1].errors, 1);

        // A later fully successful fan-out clears the flag.
        let fed_ok = FedRemote::with_backends(
            map2(),
            vec![
                Scripted::ok("lib.0", &["/a"]),
                Scripted::ok("lib.1", &["/b"]),
            ],
            Duration::from_secs(5),
        );
        fed_ok.search(&ContentExpr::All).unwrap();
        assert!(!fed_ok.last_partial());
    }

    #[test]
    fn slow_shard_is_deadline_bounded() {
        let fed = FedRemote::with_backends(
            map2(),
            vec![
                Scripted::ok("lib.0", &["/a"]),
                Scripted::slow("lib.1", &["/b"], Duration::from_secs(10)),
            ],
            Duration::from_millis(150),
        );
        let t0 = Instant::now();
        let docs = fed.search(&ContentExpr::All).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "gather must not wait out a slow shard"
        );
        assert_eq!(docs.len(), 1);
        assert!(fed.last_partial());
        assert_eq!(fed.status().shards[1].timeouts, 1);
    }

    #[test]
    fn all_shards_down_is_an_error_not_an_empty_result() {
        let fed = FedRemote::with_backends(
            map2(),
            vec![Scripted::down("lib.0"), Scripted::down("lib.1")],
            Duration::from_secs(5),
        );
        assert!(matches!(
            fed.search(&ContentExpr::All),
            Err(RemoteError::Unavailable(_))
        ));
    }

    #[test]
    fn replica_failover_restores_a_dead_shards_slice() {
        let fed = FedRemote::with_backends(
            map2(),
            vec![Scripted::ok("lib.0", &["/a"]), Scripted::down("lib.1")],
            Duration::from_secs(5),
        );
        fed.add_replica(1, Scripted::ok("lib.1", &["/b"]));
        let docs = fed.search(&ContentExpr::All).unwrap();
        let ids: Vec<&str> = docs.iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, vec!["/a", "/b"]);
        assert!(!fed.last_partial(), "replica answer makes the union whole");
        let st = fed.status();
        assert_eq!(st.shards[1].failovers, 1);
        assert_eq!(st.shards[1].ok, 1);
    }

    #[test]
    fn health_bands_follow_the_failure_run() {
        // A shard that fails its first two calls, then recovers.
        struct Flaky {
            remaining_failures: AtomicU64,
        }
        impl RemoteQuerySystem for Flaky {
            fn namespace(&self) -> NamespaceId {
                NamespaceId("lib.1".into())
            }
            fn search(&self, _q: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
                let left = self.remaining_failures.load(Ordering::Relaxed);
                if left > 0 {
                    self.remaining_failures.store(left - 1, Ordering::Relaxed);
                    return Err(RemoteError::Unavailable("flaky".into()));
                }
                Ok(Vec::new())
            }
            fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
                Err(RemoteError::NotFound(id.into()))
            }
        }
        let fed = FedRemote::with_backends(
            map2(),
            vec![
                Scripted::ok("lib.0", &["/a"]),
                Arc::new(Flaky {
                    remaining_failures: AtomicU64::new(2),
                }),
            ],
            Duration::from_secs(5),
        );

        fed.search(&ContentExpr::All).unwrap();
        let st = fed.status();
        assert_eq!(st.shards[0].health(), ShardHealth::Up);
        assert_eq!(st.shards[1].health(), ShardHealth::Degraded);

        fed.search(&ContentExpr::All).unwrap();
        assert_eq!(fed.status().shards[1].consecutive_failures, 2);
        assert_eq!(fed.status().shards[1].health(), ShardHealth::Degraded);

        // Recovery resets the run outright — health is about the present.
        fed.search(&ContentExpr::All).unwrap();
        let st = fed.status();
        assert_eq!(st.shards[1].consecutive_failures, 0);
        assert_eq!(st.shards[1].health(), ShardHealth::Up);
        assert!(!st.last_partial);
    }

    #[test]
    fn down_after_enough_consecutive_failures_and_json_reports_it() {
        let fed = FedRemote::with_backends(
            map2(),
            vec![Scripted::ok("lib.0", &["/a"]), Scripted::down("lib.1")],
            Duration::from_secs(5),
        );
        for _ in 0..DOWN_AFTER_FAILURES {
            fed.search(&ContentExpr::All).unwrap();
        }
        let st = fed.status();
        assert_eq!(st.shards[1].health(), ShardHealth::Down);
        assert_eq!(st.shards[0].health(), ShardHealth::Up);
        let json = st.to_json();
        assert!(json.contains("\"logical\":\"lib\""), "{json}");
        assert!(json.contains("\"last_partial\":true"), "{json}");
        assert!(
            json.contains("\"ns\":\"lib.1\",\"addr\":\"none:1\",\"health\":\"down\""),
            "{json}"
        );
        assert!(json.contains("\"health\":\"up\""), "{json}");
    }

    #[test]
    fn fleet_scatter_covers_replicas_and_marks_dead_peers_none() {
        let fed = FedRemote::with_backends(
            map2(),
            vec![
                Scripted::ok("lib.0", &["/a", "/b"]),
                Scripted::down("lib.1"),
            ],
            Duration::from_secs(5),
        );
        fed.add_replica(1, Scripted::ok("lib.1", &["/c"]));

        let peers = fed.fleet_trace(0xbeef);
        let nodes: Vec<&str> = peers.iter().map(|p| p.node.as_str()).collect();
        assert_eq!(
            nodes,
            vec!["lib.0@none:0", "lib.1@none:1", "lib.1@replica0"]
        );
        let s0 = peers[0].events.as_ref().expect("live peer answers");
        assert_eq!(s0.len(), 1);
        assert_eq!(s0[0].name, "lib.0_span");
        assert_eq!(s0[0].trace_id, Some(0xbeef));
        assert!(peers[1].events.is_none(), "dead peer degrades to None");
        assert!(peers[2].events.is_some(), "replica answers independently");

        let scraped = fed.fleet_metrics();
        assert_eq!(scraped.len(), 3);
        let snap = scraped[0].snapshot.as_ref().expect("live peer snapshot");
        assert_eq!(snap.counter_value("t_shard_docs_total", &[]), Some(2));
        assert!(scraped[1].snapshot.is_none());
        assert_eq!(
            scraped[2]
                .snapshot
                .as_ref()
                .unwrap()
                .counter_value("t_shard_docs_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn fetch_routes_by_placement() {
        let map = map2();
        let doc = "/corpus/some-doc.txt";
        let owner = map.shard_of(doc);
        let backends: Vec<Arc<dyn RemoteQuerySystem>> = (0..2)
            .map(|i| {
                if i == owner {
                    Scripted::ok("owner", &[])
                } else {
                    Scripted::down("other")
                }
            })
            .collect();
        let fed = FedRemote::with_backends(map, backends, Duration::from_secs(5));
        // Routed to the healthy owner even though the other shard is down.
        assert_eq!(fed.fetch(doc).unwrap(), doc.as_bytes());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn a_federation_without_shards_is_refused() {
        FedRemote::with_backends(ShardMap::new("lib", &[]), vec![], Duration::from_secs(1));
    }

    #[test]
    fn status_snapshot_reflects_map() {
        let fed = FedRemote::with_backends(
            map2(),
            vec![Scripted::ok("lib.0", &[]), Scripted::ok("lib.1", &[])],
            Duration::from_secs(1),
        );
        let st = fed.status();
        assert_eq!(st.logical, "lib");
        assert_eq!(st.generation, 1);
        assert_eq!(st.shards.len(), 2);
        assert_eq!(st.shards[0].ns, "lib.0");
    }
}
