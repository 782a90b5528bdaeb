//! End-to-end tests: a real `HacServer` on loopback, a `NetRemote` client
//! mounted into a second `HacFs` as a semantic mount point, and a
//! `ChaosProxy` between them injecting faults.
//!
//! The key invariant (paper §3): a flaky remote degrades a semantic
//! directory to *stale but intact* — previously imported links survive the
//! outage, errors land in metrics, and recovery resumes imports. The
//! network layer must never turn a socket failure into corrupted semdir
//! state.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hac_core::{HacFs, NamespaceId, RemoteError, RemoteQuerySystem};
use hac_index::ContentExpr;
use hac_net::wire::{self, Request, RequestBody, Response, ResponseBody, WireError};
use hac_net::{
    ChaosMode, ChaosProxy, ClientConfig, HacServer, NetRemote, ServerConfig, PROTOCOL_VERSION,
};
use hac_remote::{RemoteHac, WebSearchSim};
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

/// A server-side HacFs exporting `/pub` with three documents.
fn export_fs() -> Arc<HacFs> {
    let fs = Arc::new(HacFs::new());
    fs.mkdir_p(&p("/pub")).unwrap();
    fs.save(
        &p("/pub/reading.txt"),
        b"reading list semantic file systems survey",
    )
    .unwrap();
    fs.save(
        &p("/pub/hac.txt"),
        b"semantic directories and content queries",
    )
    .unwrap();
    fs.save(&p("/pub/gossip.txt"), b"hallway gossip").unwrap();
    fs.ssync(&p("/")).unwrap();
    fs
}

fn fast_retry() -> ClientConfig {
    let mut config = ClientConfig::default();
    config.retry.max_attempts = 2;
    config.retry.base_delay = Duration::from_millis(2);
    config.retry.request_timeout = Duration::from_secs(2);
    config
}

#[test]
fn semdir_scope_imports_over_tcp() {
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::new(RemoteHac::new(
            "colleague",
            export_fs(),
            p("/pub"),
        ))],
        ServerConfig::default(),
    )
    .unwrap();

    let client = Arc::new(NetRemote::connect(
        "colleague",
        &server.local_addr().to_string(),
        fast_retry(),
    ));
    assert_eq!(client.ping().unwrap(), hac_net::PROTOCOL_VERSION);
    assert_eq!(
        client.capabilities().unwrap(),
        vec!["colleague".to_string()]
    );

    let fs = HacFs::new();
    fs.mkdir_p(&p("/library")).unwrap();
    fs.smount(&p("/library"), client.clone()).unwrap();
    fs.smkdir(&p("/semantic"), "semantic").unwrap();

    let entries = fs.readdir(&p("/semantic")).unwrap();
    let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
    assert_eq!(entries.len(), 2, "two docs mention 'semantic': {names:?}");

    // Remote links fetch real bytes across the socket.
    for e in &entries {
        let body = fs.fetch_link(&p(&format!("/semantic/{}", e.name))).unwrap();
        assert!(!body.is_empty());
    }

    server.shutdown();
}

#[test]
fn flaky_mount_never_poisons_semdir_state() {
    let backend = Arc::new(WebSearchSim::new("flaky-web"));
    backend.publish("d1", "One", b"chaos testing fundamentals");
    backend.publish("d2", "Two", b"chaos engineering in practice");
    backend.publish("d3", "Three", b"unrelated pasta recipe");

    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![backend.clone()],
        ServerConfig::default(),
    )
    .unwrap();
    let proxy = ChaosProxy::start(server.local_addr()).unwrap();

    let client = Arc::new(NetRemote::connect(
        "flaky-web",
        &proxy.local_addr().to_string(),
        fast_retry(),
    ));
    let fs = HacFs::new();
    fs.mkdir_p(&p("/mnt")).unwrap();
    fs.smount(&p("/mnt"), client).unwrap();
    fs.smkdir(&p("/chaos"), "chaos").unwrap();
    let healthy: Vec<String> = fs
        .readdir(&p("/chaos"))
        .unwrap()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    assert_eq!(healthy.len(), 2, "imported over healthy proxy: {healthy:?}");

    let flaky = [("ns", "flaky-web"), ("op", "search")];
    let errors_before = hac_obs::snapshot()
        .counter_value("hac_net_errors_total", &flaky)
        .unwrap_or(0);

    // Outage: refuse connections. ssync must complete (partial results),
    // keep every previously imported link, and record the error.
    proxy.set_mode(ChaosMode::RefuseConnections);
    fs.ssync(&p("/")).unwrap();
    let during: Vec<String> = fs
        .readdir(&p("/chaos"))
        .unwrap()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    assert_eq!(during, healthy, "outage must not drop imported links");

    // Garbled bytes: frames arrive corrupt; same invariant.
    proxy.set_mode(ChaosMode::Garble);
    fs.ssync(&p("/")).unwrap();
    assert_eq!(
        fs.readdir(&p("/chaos")).unwrap().len(),
        healthy.len(),
        "garbled traffic must not drop imported links"
    );

    // Truncation mid-frame: same invariant.
    proxy.set_mode(ChaosMode::CloseAfter(5));
    fs.ssync(&p("/")).unwrap();
    assert_eq!(fs.readdir(&p("/chaos")).unwrap().len(), healthy.len());

    let errors_after = hac_obs::snapshot()
        .counter_value("hac_net_errors_total", &flaky)
        .unwrap_or(0);
    assert!(
        errors_after > errors_before,
        "faults must surface in hac_net_errors_total ({errors_before} -> {errors_after})"
    );
    assert!(proxy.fault_count() > 0);

    // Recovery: a new document published during the outage appears.
    backend.publish("d4", "Four", b"more chaos notes");
    proxy.set_mode(ChaosMode::Passthrough);
    fs.ssync(&p("/")).unwrap();
    assert_eq!(
        fs.readdir(&p("/chaos")).unwrap().len(),
        3,
        "recovery resumes imports"
    );

    proxy.stop();
    server.shutdown();
}

#[test]
fn concurrent_clients_share_a_bounded_pool() {
    const THREADS: usize = 8;
    const REQUESTS: usize = 10;

    let backend = Arc::new(WebSearchSim::new("pool-ns"));
    for i in 0..20 {
        backend.publish(
            &format!("doc{i}"),
            &format!("Doc {i}"),
            b"shared vocabulary for pool testing",
        );
    }
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![backend],
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut config = fast_retry();
    config.max_connections = 2; // force contention: 8 threads, 2 sockets
    let client = Arc::new(NetRemote::connect(
        "pool-ns",
        &server.local_addr().to_string(),
        config,
    ));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                for _ in 0..REQUESTS {
                    let docs = client.search(&ContentExpr::term("vocabulary")).unwrap();
                    assert_eq!(docs.len(), 20);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let snap = hac_obs::snapshot();
    let labels = [("ns", "pool-ns"), ("op", "search")];
    let requests = snap
        .counter_value("hac_net_requests_total", &labels)
        .unwrap_or(0);
    assert!(
        requests >= (THREADS * REQUESTS) as u64,
        "every request must be counted (got {requests})"
    );
    assert_eq!(
        snap.histogram_count("hac_net_request_duration_us", &labels),
        Some(requests)
    );
    // The pool never exceeded its cap; the gauge exists and is within it.
    let pool = snap
        .gauge_value("hac_net_pool_size", &[("ns", "pool-ns")])
        .expect("pool size gauge registered");
    assert!(
        (0..=2).contains(&pool),
        "pool gauge {pool} exceeded max_connections"
    );
    // Waiters drained back to zero once the burst finished.
    assert_eq!(
        snap.gauge_value("hac_net_pool_waiters", &[("ns", "pool-ns")]),
        Some(0)
    );
    assert_eq!(client.namespace(), NamespaceId("pool-ns".into()));

    server.shutdown();
}

#[test]
fn unknown_namespace_fails_fast_without_retry() {
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::new(RemoteHac::new("present", export_fs(), p("/pub")))],
        ServerConfig::default(),
    )
    .unwrap();
    let client = NetRemote::connect("absent", &server.local_addr().to_string(), fast_retry());
    let err = client.search(&ContentExpr::All).unwrap_err();
    assert!(
        matches!(err, RemoteError::Unavailable(_)),
        "unknown namespace maps to Unavailable, got {err:?}"
    );
    // Fatal errors must not burn retries: no retry counter for this ns.
    let retries = hac_obs::snapshot()
        .counter_value(
            "hac_net_retries_total",
            &[("ns", "absent"), ("op", "search")],
        )
        .unwrap_or(0);
    assert_eq!(retries, 0, "fatal errors must not burn retries");
    server.shutdown();
}

/// Sends one raw payload as a frame and decodes the answer with the one
/// response decoder.
fn raw_ask(conn: &mut TcpStream, payload: &[u8]) -> Response {
    wire::write_frame(conn, payload).unwrap();
    let bytes = wire::read_frame(conn, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
    wire::decode_response(&bytes).unwrap()
}

#[test]
fn one_version_and_one_codec_per_direction() {
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::new(WebSearchSim::new("contract"))],
        ServerConfig::default(),
    )
    .unwrap();
    let dial = || {
        let conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn
    };

    // A connection that never pings is answered in the response codec.
    let mut conn = dial();
    let caps = wire::encode_request(&Request::new(1, RequestBody::Capabilities));
    assert_eq!(
        raw_ask(&mut conn, &caps).body,
        ResponseBody::Capabilities {
            version: PROTOCOL_VERSION,
            namespaces: vec!["contract".to_string()],
        }
    );

    // The old two-field request shape (tuples and structs encode alike)
    // is refused, not silently accepted — and the connection survives.
    let old_shape = hac_vfs::persist::encode_value(&(2u64, RequestBody::Capabilities)).unwrap();
    let refused = raw_ask(&mut conn, &old_shape);
    assert_eq!(refused.id, 0);
    assert!(matches!(
        refused.body,
        ResponseBody::Err(WireError::BadRequest(_))
    ));
    assert!(matches!(
        raw_ask(&mut conn, &caps).body,
        ResponseBody::Capabilities { .. }
    ));

    // A first frame announcing any other version is refused, in the same
    // response codec as everything else.
    for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let ping = wire::encode_request(&Request::new(3, RequestBody::Ping { version }));
        assert_eq!(
            raw_ask(&mut dial(), &ping).body,
            ResponseBody::Err(WireError::VersionMismatch {
                server: PROTOCOL_VERSION,
                client: version,
            })
        );
    }
    server.shutdown();
}

#[test]
fn a_server_at_another_version_fails_the_client_fast() {
    // A peer one version ahead: refuses every ping it is sent, and counts
    // them.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut pings = 0;
        while let Ok(bytes) = wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN) {
            let req = wire::decode_request(&bytes).unwrap();
            let RequestBody::Ping { version } = req.body else {
                panic!("a refused client must send nothing but the handshake ping");
            };
            pings += 1;
            let refusal = ResponseBody::Err(WireError::VersionMismatch {
                server: PROTOCOL_VERSION + 1,
                client: version,
            });
            let payload = wire::encode_response(&Response::new(req.id, refusal));
            wire::write_frame(&mut conn, &payload).unwrap();
        }
        pings
    });

    let mut config = fast_retry();
    config.retry.max_attempts = 4;
    let client = NetRemote::connect("ahead", &addr, config);
    let err = client.search(&ContentExpr::All).unwrap_err();
    assert!(
        matches!(&err, RemoteError::Unavailable(m) if m.contains("version mismatch")),
        "got {err:?}"
    );
    let retries = hac_obs::snapshot()
        .counter_value(
            "hac_net_retries_total",
            &[("ns", "ahead"), ("op", "search")],
        )
        .unwrap_or(0);
    assert_eq!(retries, 0, "a version refusal must not be retried");
    drop(client);
    assert_eq!(peer.join().unwrap(), 1, "one handshake ping, no loop");
}
