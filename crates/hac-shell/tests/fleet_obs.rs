//! Fleet observability end to end, across real process boundaries: two
//! `hacsh` child processes each serve one shard of a federation
//! (`fed shard`), an in-test coordinator mounts it, runs one federated
//! query, and the coordinator's obs endpoint then proves the tentpole:
//!
//! * `/trace/<id>` stitches spans pulled from BOTH shard processes
//!   (wire `TraceSpans`) under the coordinator's request span, each
//!   tagged with its node label;
//! * `/fleet/metrics` merges ≥ 2 peer registries with `node` labels
//!   (wire `Metrics`);
//! * killing one shard degrades both endpoints — and `fed status` /
//!   `fleet stats` — to explicitly-partial output, never an error
//!   (the PR-9 partial-result contract).
//!
//! This file asserts over the process-global event ring, so it must not
//! share a test binary with unrelated span traffic.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use hac_shell::Shell;

/// Reserves a loopback port by binding, reading it back, and dropping
/// the listener. Racy in principle; in practice the child rebinds it
/// before anything else on a CI box grabs an ephemeral port.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// One shard of the federation, running in its own `hacsh` process. The
/// REPL keeps serving until stdin closes (or the test kills it).
struct ShardProc {
    child: Child,
    /// Held open so the child's REPL blocks on the next read.
    _stdin: std::process::ChildStdin,
}

fn spawn_shard(index: usize, peers: &str) -> ShardProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hacsh"))
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hacsh shard");
    let mut stdin = child.stdin.take().unwrap();
    // Same corpus in every process: placement filters each shard's
    // answers to its own doc-path hash range, so the union is exact.
    write!(
        stdin,
        "mkdir /docs\n\
         write /docs/a.txt fingerprint ridge patterns\n\
         write /docs/b.txt fingerprint whorl atlas\n\
         write /docs/c.txt grocery list\n\
         ssync\n\
         fed shard {index} lib {peers} /docs\n"
    )
    .unwrap();
    stdin.flush().unwrap();
    ShardProc {
        child,
        _stdin: stdin,
    }
}

fn wait_listening(port: u16) {
    for _ in 0..200 {
        if TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("shard on port {port} never came up");
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Pulls `"spans":N` out of a peer's meta entry in the stitched trace.
fn peer_meta(body: &str, node: &str, ok: bool) -> Option<u64> {
    let needle = format!("{{\"node\":\"{node}\",\"ok\":{ok},\"spans\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    let end = rest.find('}')?;
    rest[..end].parse().ok()
}

#[test]
fn stitched_traces_and_fleet_metrics_cross_process_boundaries() {
    let (port_a, port_b) = (free_port(), free_port());
    let peers = format!("127.0.0.1:{port_a},127.0.0.1:{port_b}");
    let (node_a, node_b) = (
        format!("lib.0@127.0.0.1:{port_a}"),
        format!("lib.1@127.0.0.1:{port_b}"),
    );

    let _shard_a = spawn_shard(0, &peers);
    let mut shard_b = spawn_shard(1, &peers);
    wait_listening(port_a);
    wait_listening(port_b);

    // Coordinator: mount the federation, run ONE federated query — its
    // trace id is what the stitched endpoint must reassemble.
    let mut coord = Shell::new();
    coord.exec("mkdir /mnt").unwrap();
    let mounted = coord
        .exec(&format!("mount /mnt fed://127.0.0.1:{port_a}/lib"))
        .unwrap();
    assert!(mounted.contains("2 shards"), "{mounted}");
    let out = coord.exec("smkdir /q fingerprint").unwrap();
    assert!(out.contains("2 links"), "{out}");

    let events = hac_obs::recent_events();
    let root = events
        .iter()
        .rfind(|e| {
            e.name == "hacsh_command" && e.fields.iter().any(|(k, v)| k == "cmd" && v == "smkdir")
        })
        .expect("smkdir command span recorded");
    let trace_id = root.trace_id.expect("command span carries a trace id");
    let hex = format!("{trace_id:016x}");

    coord.exec("obs-serve 127.0.0.1:0").unwrap();
    let obs = coord.obs_addr().expect("obs server running");

    // --- stitched trace: spans from two REMOTE processes, node-tagged.
    let (status, body) = http_get(obs, &format!("/trace/{hex}"));
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"partial\":false,"), "{body}");
    let spans_a = peer_meta(&body, &node_a, true).expect("shard a answered");
    let spans_b = peer_meta(&body, &node_b, true).expect("shard b answered");
    assert!(spans_a >= 1, "shard a contributed no spans: {body}");
    assert!(spans_b >= 1, "shard b contributed no spans: {body}");
    // The remote spans are in the tree itself, labeled with their node.
    assert!(body.contains(&format!("\"node\":\"{node_a}\"")), "{body}");
    assert!(body.contains("net_server_request"), "{body}");
    assert!(body.contains("hacsh_command"), "{body}");

    // --- federated metrics: ≥ 2 peer registries merged, node-labeled.
    let (status, metrics) = http_get(obs, "/fleet/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains(&format!("node=\"{node_a}\"")), "{metrics}");
    assert!(metrics.contains(&format!("node=\"{node_b}\"")), "{metrics}");
    assert!(
        metrics.contains(&format!("hac_fleet_peer_up{{node=\"{node_a}\"}} 1")),
        "{metrics}"
    );
    // Mirrored peer series feed the local sampler/SLO machinery.
    assert!(metrics.contains("hac_fleet_"), "{metrics}");

    let (status, health) = http_get(obs, "/fleet/health");
    assert_eq!(status, 200);
    assert!(health.contains("\"logical\":\"lib\""), "{health}");
    assert!(health.contains("\"health\":\"up\""), "{health}");

    // The shell front-ends agree with the HTTP ones.
    let stats = coord.exec("fleet stats").unwrap();
    assert!(
        stats.contains("fleet scrape: 2 peers (2 up, 0 down), result complete"),
        "{stats}"
    );
    let fed_status = coord.exec("fed status").unwrap();
    assert!(fed_status.contains("[up]"), "{fed_status}");

    // --- kill one shard: everything degrades to flagged-partial,
    // nothing errors.
    shard_b.child.kill().unwrap();
    let _ = shard_b.child.wait();

    let (status, body) = http_get(obs, &format!("/trace/{hex}"));
    assert_eq!(status, 200, "partial stitch must not be an error: {body}");
    assert!(body.starts_with("{\"partial\":true,"), "{body}");
    assert_eq!(peer_meta(&body, &node_b, false), Some(0), "{body}");
    let spans_a = peer_meta(&body, &node_a, true).expect("surviving shard still answers");
    assert!(spans_a >= 1, "{body}");

    let (status, metrics) = http_get(obs, "/fleet/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains(&format!("hac_fleet_peer_up{{node=\"{node_b}\"}} 0")),
        "{metrics}"
    );
    assert!(
        metrics.contains("hac_fleet_scrape_partial{node=\"coordinator\"} 1"),
        "{metrics}"
    );

    let stats = coord.exec("fleet stats").unwrap();
    assert!(stats.contains("result PARTIAL"), "{stats}");
    assert!(stats.contains("DOWN"), "{stats}");

    // A federated query against the half-dead fleet stays a partial
    // answer (PR-9 contract), and `fed status` reports the failure run.
    let resync = coord.exec("ssync").unwrap();
    assert!(resync.contains("dirs re-evaluated"), "{resync}");
    let fed_status = coord.exec("fed status").unwrap();
    assert!(fed_status.contains("last result PARTIAL"), "{fed_status}");
    assert!(
        fed_status.contains("[degraded]") || fed_status.contains("[down]"),
        "{fed_status}"
    );

    coord.exec("obs-serve stop").unwrap();
}
