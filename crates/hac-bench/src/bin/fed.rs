//! Federation bench: scatter-gather query latency at 2/4/8 shards against
//! the single-server baseline, and replica catch-up lag over segment
//! shipping. Emitted as `BENCH_fed.json`.
//!
//! `cargo run -p hac-bench --release --bin fed`
//!
//! Lanes:
//!
//! * **single**: the whole corpus behind one `HacServer`, queried through
//!   one `NetRemote` — the baseline a federation must not embarrass.
//! * **fed-2 / fed-4 / fed-8**: the same corpus partitioned by the shard
//!   map's placement hash across N servers, queried through a `FedRemote`
//!   coordinator (scatter to every shard, union, dedup). Each lane checks
//!   the union is exactly the single-server result set and that no pass
//!   degraded to partial.
//! * **replica catch-up**: a store-attached primary exporting its durable
//!   trail; a fresh [`Replica`] converges over wire segment shipping.
//!   Reported as initial catch-up (cold, whole trail) and delta lag (one
//!   incremental sync after more writes land).
//!
//! Flags: `--docs N --requests N --replica-docs N` scale the corpus and
//! load; `--smoke` shrinks everything to CI size (and skips the contract
//! asserts); `--out PATH` moves the JSON snapshot (default
//! `BENCH_fed.json`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use hac_bench::{arg_flag, arg_str, arg_usize, report_metrics_snapshot};
use hac_core::{HacFs, RemoteQuerySystem};
use hac_fed::{FedConfig, FedRemote, Replica, ShardMap};
use hac_index::ContentExpr;
use hac_net::{ClientConfig, HacServer, NetRemote, ServerConfig};
use hac_remote::{RemoteHac, WebSearchSim};
use hac_vfs::VPath;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted[idx]
}

/// Sequential latency of `requests` searches; returns sorted samples and
/// asserts a stable hit count so every lane proves it answered the same
/// question.
fn measure(remote: &dyn RemoteQuerySystem, query: &ContentExpr, requests: usize) -> Vec<Duration> {
    let mut lat = Vec::with_capacity(requests);
    let mut hits = usize::MAX;
    for _ in 0..requests {
        let t = Instant::now();
        let docs = remote.search(query).expect("search");
        lat.push(t.elapsed());
        if hits == usize::MAX {
            hits = docs.len();
        } else {
            assert_eq!(hits, docs.len(), "result set drifted during the run");
        }
    }
    lat.sort();
    lat
}

/// The corpus: path-shaped ids (placement hashes them) with ~1/8 matching
/// the needle term.
fn corpus(docs: usize) -> Vec<(String, String)> {
    (0..docs)
        .map(|i| {
            let body = if i % 8 == 0 {
                format!("federated probe document {i} with needle term")
            } else {
                format!("filler document {i} about unrelated matters")
            };
            (format!("/d/doc{i}.txt"), body)
        })
        .collect()
}

/// Serves the corpus partitioned across `n` shards and returns the live
/// coordinator plus the servers to tear down.
fn fed_lane(docs: &[(String, String)], n: usize, config: FedConfig) -> (FedRemote, Vec<HacServer>) {
    // Placement depends only on shard count, so a provisional map with
    // unknown addresses partitions identically to the final one.
    let placement = ShardMap::new("bench", &vec![String::new(); n]);
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for shard in 0..n {
        let backend = Arc::new(WebSearchSim::new(&placement.shards[shard].ns));
        for (i, (path, body)) in docs.iter().enumerate() {
            if placement.shard_of(path) == shard {
                backend.publish(path, &format!("Doc {i}"), body.as_bytes());
            }
        }
        let server = HacServer::serve("127.0.0.1:0", vec![backend], ServerConfig::default())
            .expect("shard server");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    (
        FedRemote::connect(ShardMap::new("bench", &addrs), config),
        servers,
    )
}

/// Replica catch-up: cold convergence over the whole shipped trail, then
/// one delta sync. Returns (cold_ms, cold_segments, delta_ms).
fn replica_catchup(replica_docs: usize, client: ClientConfig) -> (f64, usize, f64) {
    let root = VPath::parse("/pub").expect("static path");
    let fs = Arc::new(HacFs::new());
    fs.attach_store(Arc::new(hac_store::MemStore::new()))
        .expect("attach store");
    fs.mkdir_p(&root).expect("mkdir");
    for i in 0..replica_docs {
        fs.save(
            &VPath::parse(&format!("/pub/doc{i}.txt")).expect("path"),
            format!("replicated corpus document {i} with shipping payload").as_bytes(),
        )
        .expect("save");
        // Seal segments along the way instead of one giant commit, so the
        // replica replays a realistic multi-segment trail.
        if i % 64 == 63 {
            fs.ssync(&VPath::root()).expect("ssync");
        }
    }
    fs.ssync(&VPath::root()).expect("ssync");

    let backend = Arc::new(RemoteHac::new("primary", Arc::clone(&fs), root));
    let server =
        HacServer::serve("127.0.0.1:0", vec![backend], ServerConfig::default()).expect("primary");
    let addr = server.local_addr().to_string();

    let remote = Arc::new(NetRemote::connect("primary", &addr, client));
    let replica = Replica::new(remote as Arc<dyn RemoteQuerySystem>);
    let t = Instant::now();
    let cold = replica.sync_once().expect("cold sync");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(cold.segments_applied > 0 || cold.base_reloaded);
    assert_eq!(replica.doc_count() as usize, replica_docs);
    assert!(
        replica.sync_once().expect("idle sync").in_sync,
        "cold sync must converge"
    );

    // The primary keeps writing; the next sync ships only the delta.
    for i in 0..replica_docs / 10 {
        fs.save(
            &VPath::parse(&format!("/pub/late{i}.txt")).expect("path"),
            format!("late replicated document {i}").as_bytes(),
        )
        .expect("save");
    }
    fs.ssync(&VPath::root()).expect("ssync");
    let t = Instant::now();
    let delta = replica.sync_once().expect("delta sync");
    let delta_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(delta.segments_applied >= 1 && !delta.base_reloaded);

    server.shutdown();
    (cold_ms, cold.segments_applied, delta_ms)
}

fn main() {
    let smoke = arg_flag("smoke");
    let docs = arg_usize("docs", if smoke { 240 } else { 4000 });
    let requests = arg_usize("requests", if smoke { 100 } else { 1500 });
    let replica_docs = arg_usize("replica-docs", if smoke { 64 } else { 800 });

    let corpus = corpus(docs);
    let needle = ContentExpr::term("needle");

    // Baseline: everything behind one server.
    let single_backend = Arc::new(WebSearchSim::new("bench"));
    for (i, (path, body)) in corpus.iter().enumerate() {
        single_backend.publish(path, &format!("Doc {i}"), body.as_bytes());
    }
    let single_server =
        HacServer::serve("127.0.0.1:0", vec![single_backend], ServerConfig::default())
            .expect("single server");
    let single_client = NetRemote::connect(
        "bench",
        &single_server.local_addr().to_string(),
        FedConfig::default().client,
    );
    let single_hits = single_client
        .search(&needle)
        .expect("baseline search")
        .len();
    let single = measure(&single_client, &needle, requests);

    // Federated lanes: same corpus, same query, 2/4/8 shards.
    let mut lanes: Vec<(usize, Vec<Duration>)> = Vec::new();
    for n in [2usize, 4, 8] {
        let (fed, servers) = fed_lane(&corpus, n, FedConfig::default());
        let union = fed.search(&needle).expect("federated search");
        assert_eq!(
            union.len(),
            single_hits,
            "{n}-shard union must equal the single-server result set"
        );
        assert!(!fed.last_partial(), "healthy lane must not degrade");
        lanes.push((n, measure(&fed, &needle, requests)));
        for server in servers {
            server.shutdown();
        }
    }

    let (catchup_ms, catchup_segments, delta_ms) =
        replica_catchup(replica_docs, FedConfig::default().client);

    println!("Federation bench ({docs} docs, {requests} requests/lane, needle query)");
    println!(
        "  {:<8} p50 {:>9.1} us   p99 {:>9.1} us",
        "single",
        us(percentile(&single, 50.0)),
        us(percentile(&single, 99.0))
    );
    for (n, lat) in &lanes {
        println!(
            "  {:<8} p50 {:>9.1} us   p99 {:>9.1} us",
            format!("fed-{n}"),
            us(percentile(lat, 50.0)),
            us(percentile(lat, 99.0))
        );
    }
    println!(
        "  replica catch-up: cold {catchup_ms:.1} ms ({catchup_segments} segments, \
         {replica_docs} docs), delta {delta_ms:.1} ms"
    );

    if !smoke {
        // A small federation must stay within one order of magnitude of a
        // single server on an all-shards query: the scatter is parallel,
        // so the cost is one extra hop + the union, not N× the work.
        let single_p50 = us(percentile(&single, 50.0));
        let fed2_p50 = us(percentile(&lanes[0].1, 50.0));
        assert!(
            fed2_p50 <= 10.0 * single_p50.max(50.0),
            "federation overhead blew up: fed-2 p50 {fed2_p50:.1} us vs single {single_p50:.1} us"
        );
    }

    let out = arg_str("out").unwrap_or_else(|| "BENCH_fed.json".to_string());
    let lanes_json = lanes
        .iter()
        .map(|(n, lat)| {
            format!(
                "  \"fed_{n}_p50_us\": {:.1},\n  \"fed_{n}_p99_us\": {:.1}",
                us(percentile(lat, 50.0)),
                us(percentile(lat, 99.0))
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"fed\",\n  \"smoke\": {smoke},\n  \"docs\": {docs},\n  \"requests_per_lane\": {requests},\n  \"needle_hits\": {single_hits},\n  \"single_p50_us\": {:.1},\n  \"single_p99_us\": {:.1},\n{lanes_json},\n  \"replica_docs\": {replica_docs},\n  \"replica_catchup_ms\": {catchup_ms:.1},\n  \"replica_catchup_segments\": {catchup_segments},\n  \"replica_delta_ms\": {delta_ms:.1}\n}}\n",
        us(percentile(&single, 50.0)),
        us(percentile(&single, 99.0)),
    );
    std::fs::write(&out, json).expect("write BENCH_fed.json");
    println!("\nsnapshot: {out}");
    report_metrics_snapshot("fed");

    single_server.shutdown();
}
