//! Tracing overhead: the same query and reindex work measured with
//! distributed tracing enabled vs disabled, plus the fleet **stitch**
//! tier — stitched-trace fetch latency over a 2-shard loopback
//! federation and the contract that span *collection* (wire
//! `TraceSpans` scatter) stays off the query hot path. Emitted as
//! `BENCH_trace.json`.
//!
//! `cargo run -p hac-bench --release --bin trace`
//!
//! Every operation runs under a root span either way (metrics are always
//! on); the toggle controls id minting, context propagation, and
//! histogram exemplars — exactly what `hac_obs::set_tracing_enabled`
//! gates in production. Flags: `--files N --queries N --passes N
//! --fetches N` scale the workload; `--smoke` shrinks everything to CI
//! size (and skips the contract assert — smoke boxes are noisy);
//! `--out PATH` moves the JSON snapshot (default `BENCH_trace.json`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hac_bench::{arg_flag, arg_str, arg_usize, report_metrics_snapshot};
use hac_core::{HacFs, RemoteQuerySystem};
use hac_fed::{FedConfig, FedRemote, ShardBackend, ShardMap};
use hac_index::ContentExpr;
use hac_net::{HacServer, ServerConfig};
use hac_remote::RemoteHac;
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted[idx]
}

/// Builds a corpus of `files` documents (1/8 match the probe query) with
/// a few semantic directories so resync passes do real work.
fn build_fs(files: usize) -> HacFs {
    let fs = HacFs::new();
    fs.mkdir_p(&p("/docs")).unwrap();
    for i in 0..files {
        let body = if i % 8 == 0 {
            format!("trace probe document {i} with needle term")
        } else {
            format!("filler document {i} about unrelated matters")
        };
        fs.save(&p(&format!("/docs/f{i}.txt")), body.as_bytes())
            .unwrap();
    }
    fs.ssync(&p("/")).unwrap();
    fs.smkdir(&p("/needles"), "needle").unwrap();
    fs.smkdir(&p("/fillers"), "filler").unwrap();
    fs
}

/// p50 of `n` root-spanned query evaluations.
fn query_p50(fs: &HacFs, n: usize) -> Duration {
    let mut lat = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let _root = hac_obs::span!("bench_query");
        let hits = fs.search(&p("/"), "needle").expect("search");
        lat.push(t.elapsed());
        assert!(!hits.is_empty());
    }
    lat.sort();
    percentile(&lat, 50.0)
}

/// p50 of `n` root-spanned incremental reindex passes; each pass touches
/// one file so the dirty path (tokenize + resync) runs.
fn reindex_p50(fs: &HacFs, n: usize) -> Duration {
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        fs.save(
            &p("/docs/f0.txt"),
            format!("trace probe document rewritten {i} with needle term").as_bytes(),
        )
        .unwrap();
        let t = Instant::now();
        let _root = hac_obs::span!("bench_reindex");
        fs.ssync(&p("/")).expect("ssync");
        lat.push(t.elapsed());
    }
    lat.sort();
    percentile(&lat, 50.0)
}

/// What the stitch tier measured: stitched-fetch latency samples
/// (sorted), federated-query p50 with the stitcher idle, and the same
/// p50 with a stitch loop hammering `TraceSpans` concurrently.
struct StitchReport {
    fetch_lat: Vec<Duration>,
    query_quiet: Duration,
    query_stitching: Duration,
}

/// The stitch tier: the same corpus served as a 2-shard loopback
/// federation (real `HacServer`s, real wire), federated queries minting
/// real multi-node traces, and the coordinator pulling peer span forests
/// over the wire `TraceSpans` op — exactly what `/trace/<id>` does on
/// a fleet obs server, minus the HTTP framing. The concurrent lane
/// proves span collection is read-side only: a stitch loop running flat
/// out must not move the query p50 beyond noise.
fn stitch_tier(fs: &Arc<HacFs>, queries: usize, fetches: usize) -> StitchReport {
    let provisional = Arc::new(ShardMap::new("stitch", &vec![String::new(); 2]));
    let mut servers = Vec::new();
    let mut backends = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..2 {
        let inner = Arc::new(RemoteHac::new(
            &provisional.shards[shard].ns,
            Arc::clone(fs),
            VPath::root(),
        ));
        let backend = Arc::new(ShardBackend::new(inner, Arc::clone(&provisional), shard));
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![backend.clone() as Arc<dyn RemoteQuerySystem>],
            ServerConfig::default(),
        )
        .expect("shard server");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
        backends.push(backend);
    }
    let mut map = ShardMap::new("stitch", &addrs);
    map.generation = 2;
    let map = Arc::new(map);
    for backend in &backends {
        backend.set_map(Arc::clone(&map));
    }
    let mut fed_map = ShardMap::new("stitch", &addrs);
    fed_map.generation = 2;
    let fed = Arc::new(FedRemote::connect(fed_map, FedConfig::default()));

    let query = ContentExpr::term("needle");
    let run_queries = |n: usize, ids: Option<&mut Vec<u64>>| -> Duration {
        let mut collected = ids;
        let mut lat = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            let _root = hac_obs::span!("bench_fed_query");
            if let (Some(ids), Some(ctx)) = (collected.as_deref_mut(), hac_obs::trace::current()) {
                ids.push(ctx.trace_id);
            }
            let hits = fed.search(&query).expect("federated search");
            lat.push(t.elapsed());
            assert!(!hits.is_empty(), "probe query must match");
        }
        lat.sort();
        percentile(&lat, 50.0)
    };

    // Quiet lane: federated queries with no stitch traffic, remembering
    // trace ids for the fetch lane (recent ids — the ring evicts).
    let mut ids = Vec::with_capacity(queries);
    let query_quiet = run_queries(queries, Some(&mut ids));
    let recent: Vec<u64> = ids.iter().rev().take(32).copied().collect();

    // Fetch lane: the server side of `/trace/<id>` — scatter `TraceSpans`
    // to both shards, merge with the local ring, assemble.
    let mut fetch_lat = Vec::with_capacity(fetches);
    for i in 0..fetches {
        let id = recent[i % recent.len()];
        let t = Instant::now();
        let peers = fed.fleet_trace(id);
        let mut events = hac_obs::recent_events();
        events.extend(hac_obs::slow_ops());
        for peer in peers {
            if let Some(spans) = peer.events {
                events.extend(spans);
            }
        }
        let tree = hac_obs::assemble(&events, id);
        fetch_lat.push(t.elapsed());
        if i == 0 {
            assert!(
                tree.span_count() >= 3,
                "a fresh federated trace must stitch multi-node spans, got {}",
                tree.span_count()
            );
        }
    }
    fetch_lat.sort();

    // Contended lane: the same query workload while a stitcher thread
    // pulls span forests at an aggressive scrape cadence (~200/s — two
    // orders of magnitude above any dashboard; a busy loop would
    // measure raw CPU contention on a small box, not collection cost).
    let stop = Arc::new(AtomicBool::new(false));
    let stitcher = {
        let fed = Arc::clone(&fed);
        let stop = Arc::clone(&stop);
        let id = recent[0];
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let peers = fed.fleet_trace(id);
                let mut events = hac_obs::recent_events();
                for peer in peers {
                    if let Some(spans) = peer.events {
                        events.extend(spans);
                    }
                }
                let _ = hac_obs::assemble(&events, id);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let query_stitching = run_queries(queries, None);
    stop.store(true, Ordering::Relaxed);
    stitcher.join().expect("stitcher thread");

    for server in servers {
        server.shutdown();
    }
    StitchReport {
        fetch_lat,
        query_quiet,
        query_stitching,
    }
}

fn main() {
    let smoke = arg_flag("smoke");
    let files = arg_usize("files", if smoke { 200 } else { 2000 });
    let queries = arg_usize("queries", if smoke { 100 } else { 1000 });
    let passes = arg_usize("passes", if smoke { 40 } else { 200 });
    let fetches = arg_usize("fetches", if smoke { 50 } else { 300 });

    let fs = Arc::new(build_fs(files));

    // Warm both paths before measuring either mode.
    let _ = query_p50(&fs, queries / 10 + 1);
    let _ = reindex_p50(&fs, passes / 10 + 1);

    hac_obs::set_tracing_enabled(true);
    let query_on = query_p50(&fs, queries);
    let reindex_on = reindex_p50(&fs, passes);

    hac_obs::set_tracing_enabled(false);
    let query_off = query_p50(&fs, queries);
    let reindex_off = reindex_p50(&fs, passes);
    hac_obs::set_tracing_enabled(true);

    // Sampler overhead: the same traced query workload with the
    // time-series sampler snapshotting the whole registry every 10 ms
    // in the background (100x the production default rate). Compared
    // against the traced baseline — the delta is what the windowed
    // rate/percentile layer costs the hot path.
    hac_obs::start_sampler(Duration::from_millis(10));
    let query_sampled = query_p50(&fs, queries);

    // Fleet stitch tier: 2-shard federation, wire span collection.
    let stitch = stitch_tier(&fs, queries.clamp(20, 400), fetches);

    let overhead = |on: Duration, off: Duration| (us(on) - us(off)) / us(off).max(1e-9) * 100.0;
    println!("Tracing overhead bench ({files} files, {queries} queries, {passes} passes)");
    println!(
        "  query   p50: on {:>9.1} us   off {:>9.1} us   overhead {:+.1}%",
        us(query_on),
        us(query_off),
        overhead(query_on, query_off)
    );
    println!(
        "  reindex p50: on {:>9.1} us   off {:>9.1} us   overhead {:+.1}%",
        us(reindex_on),
        us(reindex_off),
        overhead(reindex_on, reindex_off)
    );
    println!(
        "  query   p50 with 10ms sampler: {:>9.1} us   overhead vs traced {:+.1}%",
        us(query_sampled),
        overhead(query_sampled, query_on)
    );
    let stitch_p50 = percentile(&stitch.fetch_lat, 50.0);
    let stitch_p99 = percentile(&stitch.fetch_lat, 99.0);
    let stitch_overhead = overhead(stitch.query_stitching, stitch.query_quiet);
    println!(
        "  stitch  fetch p50 {:>9.1} us   p99 {:>9.1} us   ({fetches} fetches, 2 shards)",
        us(stitch_p50),
        us(stitch_p99),
    );
    println!(
        "  fed query p50: quiet {:>9.1} us   under stitch load {:>9.1} us   overhead {:+.1}%",
        us(stitch.query_quiet),
        us(stitch.query_stitching),
        stitch_overhead,
    );

    if !smoke {
        // The fleet-obs contract: span collection is read-side only —
        // a stitcher pulling span forests flat out must not move the
        // query hot path beyond noise. Asserted like the PR-8 wire
        // contracts, so a regression fails the run instead of silently
        // publishing a slower snapshot.
        assert!(
            us(stitch.query_stitching) <= 1.5 * us(stitch.query_quiet),
            "stitch hot-path contract violated: query p50 under stitch load \
             {:.1} us > 1.5x quiet p50 {:.1} us",
            us(stitch.query_stitching),
            us(stitch.query_quiet),
        );
    }

    let out = arg_str("out").unwrap_or_else(|| "BENCH_trace.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"trace\",\n  \"smoke\": {smoke},\n  \"files\": {files},\n  \"queries\": {queries},\n  \"reindex_passes\": {passes},\n  \"stitch_fetches\": {fetches},\n  \"query_p50_traced_us\": {:.1},\n  \"query_p50_untraced_us\": {:.1},\n  \"query_overhead_pct\": {:.1},\n  \"reindex_p50_traced_us\": {:.1},\n  \"reindex_p50_untraced_us\": {:.1},\n  \"reindex_overhead_pct\": {:.1},\n  \"query_p50_sampled_us\": {:.1},\n  \"sampler_overhead_pct\": {:.1},\n  \"stitch_fetch_p50_us\": {:.1},\n  \"stitch_fetch_p99_us\": {:.1},\n  \"fed_query_p50_quiet_us\": {:.1},\n  \"fed_query_p50_stitching_us\": {:.1},\n  \"stitch_hot_path_overhead_pct\": {:.1}\n}}\n",
        us(query_on),
        us(query_off),
        overhead(query_on, query_off),
        us(reindex_on),
        us(reindex_off),
        overhead(reindex_on, reindex_off),
        us(query_sampled),
        overhead(query_sampled, query_on),
        us(stitch_p50),
        us(stitch_p99),
        us(stitch.query_quiet),
        us(stitch.query_stitching),
        stitch_overhead,
    );
    std::fs::write(&out, json).expect("write BENCH_trace.json");
    println!("\nsnapshot: {out}");
    report_metrics_snapshot("trace");
}
