//! The federation over real sockets: N `HacServer`s each exporting one
//! [`ShardBackend`], a [`FedRemote`] coordinator scatter-gathering over
//! them, and a `ChaosProxy` killing a shard mid-query. The chaos matrix
//! the subsystem must survive:
//!
//! * shard killed mid-query → the fan-out stays deadline-bounded, the
//!   answer is explicitly flagged partial, and a semantic directory
//!   mounted on the federation keeps its previously imported links;
//! * a replica attached for the dead shard makes the union whole again;
//! * discovery bootstraps the whole federation from any one shard's
//!   address.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_core::HacFs;
use hac_fed::{FedConfig, FedRemote, ShardBackend, ShardMap};
use hac_index::ContentExpr;
use hac_net::{ChaosMode, ChaosProxy, ClientConfig, HacServer, ServerConfig};
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

/// A tiny in-memory full-corpus backend: term search over `(path, body)`
/// pairs. Each shard wraps one of these in a [`ShardBackend`], which
/// filters it down to the shard's placement slice.
struct Corpus {
    ns: &'static str,
    docs: Vec<(String, String)>,
}

impl Corpus {
    fn new(ns: &'static str, docs: &[(&str, &str)]) -> Arc<Corpus> {
        Arc::new(Corpus {
            ns,
            docs: docs
                .iter()
                .map(|(p, b)| (p.to_string(), b.to_string()))
                .collect(),
        })
    }

    fn matches(&self, expr: &ContentExpr, body: &str) -> bool {
        match expr {
            ContentExpr::Term(t) => body.split_whitespace().any(|w| w == t),
            ContentExpr::And(a, b) => self.matches(a, body) && self.matches(b, body),
            ContentExpr::Or(a, b) => self.matches(a, body) || self.matches(b, body),
            ContentExpr::All => true,
            _ => false,
        }
    }
}

impl RemoteQuerySystem for Corpus {
    fn namespace(&self) -> NamespaceId {
        NamespaceId(self.ns.to_string())
    }
    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        Ok(self
            .docs
            .iter()
            .filter(|(_, body)| self.matches(query, body))
            .map(|(path, _)| RemoteDoc {
                id: path.clone(),
                title: path.rsplit('/').next().unwrap_or(path).to_string(),
            })
            .collect())
    }
    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        self.docs
            .iter()
            .find(|(path, _)| path == id)
            .map(|(_, body)| body.as_bytes().to_vec())
            .ok_or_else(|| RemoteError::NotFound(id.to_string()))
    }
}

fn corpus() -> Vec<(&'static str, &'static str)> {
    (0..12)
        .map(|i| {
            // Leak is fine in tests; keeps Corpus::new signature simple.
            let path: &'static str = Box::leak(format!("/corpus/doc-{i}.txt").into_boxed_str());
            let body: &'static str = Box::leak(
                format!(
                    "federated corpus document {i} {}",
                    if i % 2 == 0 { "even" } else { "odd" }
                )
                .into_boxed_str(),
            );
            (path, body)
        })
        .collect()
}

fn fast_client() -> ClientConfig {
    let mut config = ClientConfig::default();
    config.retry.max_attempts = 2;
    config.retry.base_delay = Duration::from_millis(2);
    config.retry.request_timeout = Duration::from_millis(500);
    config.connect_timeout = Duration::from_millis(500);
    config
}

/// Spin up one server per shard over `docs`, shard 1 behind a chaos
/// proxy. Returns (fed, servers, proxy).
fn fed_cluster(
    n: usize,
    docs: &[(&str, &str)],
    budget: Duration,
) -> (FedRemote, Vec<HacServer>, ChaosProxy) {
    // Bootstrapping order: backends need a map before serving, but the
    // map needs the servers' real ports. Serve with a generation-1 map
    // holding empty addresses, learn the ports, then publish the
    // generation-2 map to every backend — placement hashes paths, not
    // addresses, so the upgrade is placement-neutral.
    let full: Vec<Arc<dyn RemoteQuerySystem>> = (0..n)
        .map(|_| Corpus::new("whole", docs) as Arc<dyn RemoteQuerySystem>)
        .collect();
    let provisional = Arc::new(ShardMap::new("lib", &vec![String::new(); n]));
    let mut servers = Vec::new();
    let mut backends = Vec::new();
    let mut proxy = None;
    let mut addrs = Vec::new();
    for (i, corpus) in full.iter().enumerate() {
        let backend = Arc::new(ShardBackend::new(
            Arc::clone(corpus),
            Arc::clone(&provisional),
            i,
        ));
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![backend.clone()],
            ServerConfig::default(),
        )
        .unwrap();
        if i == 1 {
            let px = ChaosProxy::start(server.local_addr()).unwrap();
            addrs.push(px.local_addr().to_string());
            proxy = Some(px);
        } else {
            addrs.push(server.local_addr().to_string());
        }
        servers.push(server);
        backends.push(backend);
    }
    let mut map = ShardMap::new("lib", &addrs);
    map.generation = 2;
    let map_arc = Arc::new(map.clone());
    for backend in &backends {
        backend.set_map(Arc::clone(&map_arc));
    }
    let fed = FedRemote::connect(
        map,
        FedConfig {
            client: fast_client(),
            fanout_budget: budget,
        },
    );
    (fed, servers, proxy.unwrap())
}

#[test]
fn scatter_gather_unions_all_shards_over_tcp() {
    let docs = corpus();
    let (fed, servers, proxy) = fed_cluster(3, &docs, Duration::from_secs(5));

    let hits = fed.search(&ContentExpr::Term("federated".into())).unwrap();
    assert_eq!(hits.len(), docs.len(), "union must cover the whole corpus");
    assert!(!fed.last_partial());

    // Point reads route to the owning shard.
    let body = fed.fetch(&hits[0].id).unwrap();
    assert!(!body.is_empty());

    proxy.stop();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn shard_killed_mid_query_degrades_to_deadline_bounded_partial() {
    let docs = corpus();
    let budget = Duration::from_millis(800);
    let (fed, mut servers, proxy) = fed_cluster(3, &docs, budget);

    // Semantic directory mounted on the federation, healthy import first.
    let fed = Arc::new(fed);
    let fs = HacFs::new();
    fs.mkdir_p(&p("/mnt")).unwrap();
    fs.smount(&p("/mnt"), fed.clone()).unwrap();
    fs.smkdir(&p("/q"), "federated").unwrap();
    let healthy: Vec<String> = fs
        .readdir(&p("/q"))
        .unwrap()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    assert_eq!(healthy.len(), docs.len(), "healthy import: {healthy:?}");

    let links_survive_outage = |label: &str| {
        let partials_before = hac_obs::snapshot()
            .counter_value("hac_remote_partial_results_total", &[("ns", "lib")])
            .unwrap_or(0);
        let t0 = Instant::now();
        fs.ssync(&p("/")).unwrap();
        assert!(
            t0.elapsed() < budget + Duration::from_secs(3),
            "{label}: resync took {:?}, not deadline-bounded",
            t0.elapsed()
        );
        let during: Vec<String> = fs
            .readdir(&p("/q"))
            .unwrap()
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(during, healthy, "{label}: outage must not drop links");
        assert!(
            fed.last_partial(),
            "{label}: coordinator must flag the degraded fan-out: {:?}",
            fed.status()
        );
        let partials_after = hac_obs::snapshot()
            .counter_value("hac_remote_partial_results_total", &[("ns", "lib")])
            .unwrap_or(0);
        assert!(
            partials_after > partials_before,
            "{label}: partial results must surface in metrics \
             ({partials_before} -> {partials_after})"
        );
    };

    // Shard 1 stalls mid-frame: its established connections freeze
    // mid-query. The client request timeout plus the fan-out budget
    // bound the pass; the answer degrades to flagged-partial.
    proxy.set_mode(ChaosMode::StallAfter(1));
    links_survive_outage("stalled shard");

    // Shard 1 killed outright: the server goes away, connections die.
    let shard1_addr = servers[1].local_addr().to_string();
    servers.remove(1).shutdown();
    proxy.set_mode(ChaosMode::Passthrough);
    links_survive_outage("killed shard");

    // Recovery: restart the shard on its old address; resync completes
    // the picture again with no state repair needed on the mount side.
    let restarted = HacServer::serve(
        &shard1_addr,
        vec![Arc::new(ShardBackend::new(
            Corpus::new("whole", &docs) as Arc<dyn RemoteQuerySystem>,
            Arc::new(fed.map().clone()),
            1,
        ))],
        ServerConfig::default(),
    )
    .unwrap();
    servers.push(restarted);
    fs.ssync(&p("/")).unwrap();
    assert_eq!(fs.readdir(&p("/q")).unwrap().len(), docs.len());
    assert!(!fed.last_partial(), "recovered fan-out is whole again");

    proxy.stop();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn replica_failover_makes_a_dead_shards_union_whole() {
    let docs = corpus();
    let (fed, servers, proxy) = fed_cluster(2, &docs, Duration::from_secs(2));

    // An in-process stand-in replica for shard 1: same placement slice.
    let map = Arc::new(fed.map().clone());
    let replica_backend = Arc::new(ShardBackend::new(
        Corpus::new("whole", &docs) as Arc<dyn RemoteQuerySystem>,
        map,
        1,
    ));
    fed.add_replica(1, replica_backend);

    proxy.set_mode(ChaosMode::RefuseConnections);
    let hits = fed.search(&ContentExpr::Term("federated".into())).unwrap();
    assert_eq!(
        hits.len(),
        docs.len(),
        "replica must restore the dead shard's slice"
    );
    assert!(!fed.last_partial(), "failover answer is not partial");
    assert!(fed.status().shards[1].failovers >= 1);

    proxy.stop();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn discover_bootstraps_the_federation_from_one_address() {
    let docs = corpus();
    let (fed, servers, proxy) = fed_cluster(2, &docs, Duration::from_secs(2));
    let seed_addr = fed.map().shards[0].addr.clone();

    let discovered = FedRemote::discover(
        "lib",
        &seed_addr,
        FedConfig {
            client: fast_client(),
            fanout_budget: Duration::from_secs(2),
        },
    )
    .unwrap();
    assert_eq!(discovered.map(), fed.map());
    let hits = discovered
        .search(&ContentExpr::Term("federated".into()))
        .unwrap();
    assert_eq!(hits.len(), docs.len());

    proxy.stop();
    for s in servers {
        s.shutdown();
    }
}
