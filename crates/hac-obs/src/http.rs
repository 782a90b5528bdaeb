//! Embedded pull-based observability endpoint.
//!
//! [`ObsServer`] is a deliberately tiny HTTP/1.1 server — std `TcpListener`,
//! an accept thread feeding a bounded queue, and a fixed worker pool (the
//! same shape as the `hac-net` request server) — that exposes the global
//! [`Obs`](crate::Obs) domain for scrapers and humans:
//!
//! | endpoint        | payload                                              |
//! |-----------------|------------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition (`# HELP`/`# TYPE` lines) |
//! | `/healthz`      | `ok` once the listener is up                         |
//! | `/statusz`      | caller-supplied status JSON (daemon/server/mounts)   |
//! | `/events`       | recent-events ring as a JSON array                   |
//! | `/slow`         | slow-op log as a JSON array                          |
//! | `/trace/<id>`   | assembled span tree for one trace id, JSON           |
//! | `/timeseries`   | windowed series (`?metric=<name>&window=<secs>`)     |
//! | `/alerts`       | SLO objective states + transition history, JSON      |
//! | `/fleet/metrics`| fleet-merged exposition, every sample `node`-labeled |
//! | `/fleet/health` | per-shard health + replica lag JSON                  |
//!
//! A server started with [`ObsServer::serve_fleet`] additionally follows
//! the federation: `/trace/<id>` scatter-fetches the span forest from
//! every peer (shards and their replicas) under a deadline budget and
//! stitches the union under the local request span — remote spans nest
//! automatically because the wire propagates `parent_span_id` — marking
//! the result `"partial":true` when a peer could not answer, never
//! erroring. The fetching itself lives behind [`FleetHooks`]: this crate
//! owns assembly and rendering, the caller (who has a `hac-net` client)
//! owns transport.
//!
//! Only `GET` is served; request paths are percent-decoded before
//! routing; every response closes the connection. When the bounded
//! accept queue overflows the request is *shed* with a best-effort
//! `503` (and counted) instead of queueing unboundedly. No external
//! dependencies, no TLS, no routing table — this binds to loopback (or
//! an operator-chosen address) next to a `hacsh` process.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::trace;

/// Read cap for the request head (we never need bodies).
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// Longest a shed connection may hold the accept thread while its
/// request is drained.
const SHED_DRAIN: Duration = Duration::from_millis(5);

/// Tuning for an [`ObsServer`] (defaults suit a loopback scrape target).
#[derive(Debug, Clone)]
pub struct ObsServerConfig {
    /// Worker threads serving scrape requests.
    pub workers: usize,
    /// Accepted connections waiting for a worker before shedding.
    pub queue_depth: usize,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
}

impl Default for ObsServerConfig {
    fn default() -> Self {
        ObsServerConfig {
            workers: 2,
            queue_depth: 32,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// Caller-supplied `/statusz` payload producer (must return JSON).
pub type StatusFn = Arc<dyn Fn() -> String + Send + Sync>;

/// One peer's contribution to a stitched trace: its node label and the
/// span forest it returned (`None` when it was unreachable or timed out
/// inside the fetch budget).
pub struct PeerSpans {
    /// Node label (`<shard-ns>@<addr>` by convention).
    pub node: String,
    /// Decoded span events, or `None` for an unreachable peer.
    pub events: Option<Vec<crate::Event>>,
}

/// One peer's contribution to a fleet metrics scrape.
pub struct PeerSnapshot {
    /// Node label.
    pub node: String,
    /// The peer's registry snapshot, or `None` for an unreachable peer.
    pub snapshot: Option<crate::Snapshot>,
}

/// Transport callbacks a fleet-aware [`ObsServer`] stitches with. The
/// closures are expected to scatter to the current federation under
/// their own deadline budget and report unreachable peers as `None`
/// entries rather than failing — the PR-9 partial-result contract.
/// A shell with no federation mounted returns empty vectors.
#[derive(Clone)]
pub struct FleetHooks {
    /// This node's own label in merged output (e.g. `coordinator` or its
    /// serve address).
    pub self_node: String,
    /// Fetch the span forest for a trace id from every peer.
    pub trace_spans: Arc<dyn Fn(u64) -> Vec<PeerSpans> + Send + Sync>,
    /// Scrape every peer's metric registry.
    pub metrics: Arc<dyn Fn() -> Vec<PeerSnapshot> + Send + Sync>,
    /// Render the fleet health JSON (shard health, replica lag).
    pub health: Arc<dyn Fn() -> String + Send + Sync>,
}

struct HttpQueue {
    conns: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
    depth: usize,
    io_timeout: Duration,
}

impl HttpQueue {
    fn push(&self, mut stream: TcpStream) {
        let mut conns = self.conns.lock().unwrap();
        if conns.len() >= self.depth {
            drop(conns);
            // Scrapers retry; shedding beats unbounded growth. Tell the
            // peer why (best effort — the write itself may fail) instead
            // of a bare reset.
            crate::counter("hac_obs_http_shed_total", &[]).inc();
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            let _ = stream.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
                  Content-Length: 9\r\nConnection: close\r\n\r\noverload\n",
            );
            // Closing a socket whose input is unread makes the kernel send
            // RST, which can destroy the 503 before the peer reads it: send
            // FIN after the reply, then read the request until the peer
            // closes or the short drain window ends.
            let _ = stream.shutdown(Shutdown::Write);
            let deadline = Instant::now() + SHED_DRAIN;
            let mut sink = [0u8; 1024];
            while let Some(left) = deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
            {
                let _ = stream.set_read_timeout(Some(left));
                if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                    break;
                }
            }
            return;
        }
        conns.push_back(stream);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut conns = self.conns.lock().unwrap();
        loop {
            if let Some(stream) = conns.pop_front() {
                return Some(stream);
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            conns = self.ready.wait(conns).unwrap();
        }
    }
}

/// Handle to a running observability HTTP server; shuts down on
/// [`shutdown`](Self::shutdown) or drop.
pub struct ObsServer {
    local_addr: SocketAddr,
    queue: Arc<HttpQueue>,
    threads: Vec<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving the global
    /// observability domain. `status` produces the `/statusz` JSON body.
    pub fn serve(addr: &str, status: StatusFn) -> std::io::Result<ObsServer> {
        ObsServer::serve_with(addr, status, ObsServerConfig::default())
    }

    /// Like [`serve`](Self::serve) with explicit worker/queue/timeout
    /// tuning (tests use tiny queues to exercise the shed path).
    pub fn serve_with(
        addr: &str,
        status: StatusFn,
        config: ObsServerConfig,
    ) -> std::io::Result<ObsServer> {
        ObsServer::start(addr, status, config, None)
    }

    /// Like [`serve_with`](Self::serve_with), additionally following a
    /// federation: `/trace/<id>` stitches peer spans, `/fleet/metrics`
    /// merges peer registries, `/fleet/health` reports shard health.
    pub fn serve_fleet(
        addr: &str,
        status: StatusFn,
        config: ObsServerConfig,
        fleet: FleetHooks,
    ) -> std::io::Result<ObsServer> {
        ObsServer::start(addr, status, config, Some(Arc::new(fleet)))
    }

    fn start(
        addr: &str,
        status: StatusFn,
        config: ObsServerConfig,
        fleet: Option<Arc<FleetHooks>>,
    ) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let queue = Arc::new(HttpQueue {
            conns: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            depth: config.queue_depth.max(1),
            io_timeout: config.io_timeout,
        });
        let workers = config.workers.max(1);
        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let status = Arc::clone(&status);
            let fleet = fleet.clone();
            threads.push(std::thread::spawn(move || {
                while let Some(stream) = queue.pop() {
                    let io_timeout = queue.io_timeout;
                    let _ = serve_connection(stream, &status, fleet.as_deref(), io_timeout);
                }
            }));
        }
        {
            let queue = Arc::clone(&queue);
            threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if queue.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    match stream {
                        Ok(stream) => queue.push(stream),
                        Err(_) => continue,
                    }
                }
            }));
        }
        Ok(ObsServer {
            local_addr,
            queue,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains workers, and joins all threads.
    pub fn shutdown(&mut self) {
        self.queue.shutdown.store(true, Ordering::Relaxed);
        self.queue.ready.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    status: &StatusFn,
    fleet: Option<&FleetHooks>,
    io_timeout: Duration,
) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the blank line ending the request head; we ignore bodies.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_HEAD {
            return respond(&mut stream, 400, "text/plain", "request too large\n");
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    // Split the query off before decoding so `%26` in a value cannot
    // smuggle in a separator, then percent-decode path and params.
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path);
    let query = parse_query(raw_query);
    let endpoint = normalize_endpoint(&path);
    crate::counter("hac_obs_http_requests_total", &[("endpoint", endpoint)]).inc();
    match endpoint {
        "metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &crate::prometheus(),
        ),
        "healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "statusz" => respond(&mut stream, 200, "application/json", &status()),
        "events" => respond(
            &mut stream,
            200,
            "application/json",
            &events_json(&crate::recent_events()),
        ),
        "slow" => respond(
            &mut stream,
            200,
            "application/json",
            &events_json(&crate::slow_ops()),
        ),
        "timeseries" => {
            // Pull-style fallback: a scrape with no sampler thread still
            // gets fresh points (daemonless CI smoke relies on this).
            crate::timeseries::sample_if_due();
            let metric = match query.iter().find(|(k, _)| k == "metric") {
                Some((_, m)) if !m.is_empty() => m.as_str(),
                _ => {
                    return respond(
                        &mut stream,
                        400,
                        "text/plain",
                        "missing required query param: metric\n",
                    )
                }
            };
            let window = query
                .iter()
                .find(|(k, _)| k == "window")
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .unwrap_or(60);
            match crate::timeseries::global().series_json(metric, window) {
                Some(json) => respond(&mut stream, 200, "application/json", &json),
                None => respond(&mut stream, 404, "text/plain", "unknown metric\n"),
            }
        }
        "alerts" => {
            crate::timeseries::sample_if_due();
            respond(
                &mut stream,
                200,
                "application/json",
                &crate::slo::engine().to_json(),
            )
        }
        "trace" => match trace::parse_id(path.trim_start_matches("/trace/")) {
            Some(id) => {
                // A span can sit in either (or both) rings; assembly dedups.
                let mut events = crate::recent_events();
                events.extend(crate::slow_ops());
                match fleet {
                    Some(hooks) => {
                        let body = stitched_trace_json(hooks, id, events);
                        match body {
                            Some(json) => respond(&mut stream, 200, "application/json", &json),
                            None => respond(&mut stream, 404, "text/plain", "unknown trace id\n"),
                        }
                    }
                    None => {
                        let tree = trace::assemble(&events, id);
                        if tree.roots.is_empty() {
                            respond(&mut stream, 404, "text/plain", "unknown trace id\n")
                        } else {
                            respond(&mut stream, 200, "application/json", &tree.to_json())
                        }
                    }
                }
            }
            // Malformed ids and unknown ids look the same to a client:
            // there is no such trace resource.
            None => respond(&mut stream, 404, "text/plain", "unknown trace id\n"),
        },
        "fleet_metrics" => match fleet {
            Some(hooks) => respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &fleet_metrics_text(hooks),
            ),
            None => respond(&mut stream, 404, "text/plain", "not a fleet node\n"),
        },
        "fleet_health" => match fleet {
            Some(hooks) => respond(&mut stream, 200, "application/json", &(hooks.health)()),
            None => respond(&mut stream, 404, "text/plain", "not a fleet node\n"),
        },
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Stitches local + peer spans for one trace id into the `/trace/<id>`
/// JSON. Remote spans nest under local ones automatically: the wire
/// propagated the trace context, so a peer's `net_server_request` span
/// carries the local client span as `parent_span_id`, and [`trace::
/// assemble`] attaches it there (orphans — parent evicted or on a third
/// node — surface as extra roots, not losses). Every remote span is
/// tagged `node=<peer>`; unreachable peers mark the result partial
/// instead of failing it. Returns `None` only when no node knows the id.
fn stitched_trace_json(
    hooks: &FleetHooks,
    id: u64,
    mut events: Vec<crate::Event>,
) -> Option<String> {
    let started = std::time::Instant::now();
    crate::counter("hac_fleet_stitch_total", &[]).inc();
    let peers = (hooks.trace_spans)(id);
    let mut partial = false;
    let mut peer_meta: Vec<String> = Vec::with_capacity(peers.len());
    for peer in peers {
        match peer.events {
            Some(remote) => {
                let remote: Vec<crate::Event> = remote
                    .into_iter()
                    .filter(|e| e.trace_id == Some(id))
                    .map(|mut e| {
                        if !e.fields.iter().any(|(k, _)| k == "node") {
                            e.fields.push(("node".to_string(), peer.node.clone()));
                        }
                        e
                    })
                    .collect();
                peer_meta.push(format!(
                    "{{\"node\":{},\"ok\":true,\"spans\":{}}}",
                    crate::events::jstr(&peer.node),
                    remote.len()
                ));
                events.extend(remote);
            }
            None => {
                partial = true;
                peer_meta.push(format!(
                    "{{\"node\":{},\"ok\":false,\"spans\":0}}",
                    crate::events::jstr(&peer.node)
                ));
            }
        }
    }
    if partial {
        crate::counter("hac_fleet_stitch_partial_total", &[]).inc();
    }
    let tree = trace::assemble(&events, id);
    crate::histogram("hac_fleet_stitch_us", &[]).record(started.elapsed().as_micros() as u64);
    if tree.roots.is_empty() && !partial {
        return None;
    }
    // Splice the fleet fields into the tree's JSON object head; the
    // remainder (span_count, roots) is untouched.
    let base = tree.to_json();
    Some(format!(
        "{{\"partial\":{partial},\"node\":{},\"peers\":[{}],{}",
        crate::events::jstr(&hooks.self_node),
        peer_meta.join(","),
        &base[1..]
    ))
}

/// Merges the local registry with every peer's scraped snapshot into one
/// `node`-labeled exposition, mirroring peer series into the global
/// registry ([`crate::absorb_fleet`]) so the sampler/SLO machinery sees
/// fleet-level rates. Unreachable peers degrade the scrape to partial
/// (`hac_fleet_scrape_partial 1`, `hac_fleet_peer_up{node=…} 0`) —
/// never to an error. Public so `hacsh fleet stats` and `/fleet/metrics`
/// share one scrape path (same markers, same mirroring).
pub fn fleet_metrics_text(hooks: &FleetHooks) -> String {
    crate::counter("hac_fleet_scrape_total", &[]).inc();
    let peers = (hooks.metrics)();
    let mut partial = false;
    let mut scraped: Vec<(String, crate::Snapshot)> = Vec::with_capacity(peers.len());
    for peer in peers {
        match peer.snapshot {
            Some(snap) => {
                crate::gauge("hac_fleet_peer_up", &[("node", &peer.node)]).set(1);
                crate::absorb_fleet(&peer.node, &snap);
                scraped.push((peer.node, snap));
            }
            None => {
                partial = true;
                crate::counter("hac_fleet_scrape_errors_total", &[]).inc();
                crate::gauge("hac_fleet_peer_up", &[("node", &peer.node)]).set(0);
            }
        }
    }
    crate::gauge("hac_fleet_scrape_partial", &[]).set(partial as i64);
    // Snapshot the local registry *after* the bookkeeping above so the
    // partial/up markers and mirrored series are part of the output.
    let mut merged = crate::snapshot().relabeled("node", &hooks.self_node);
    for (node, snap) in scraped {
        merged.absorb(snap.relabeled("node", &node));
    }
    merged.to_prometheus()
}

fn normalize_endpoint(path: &str) -> &'static str {
    match path {
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/statusz" => "statusz",
        "/events" => "events",
        "/slow" => "slow",
        "/timeseries" => "timeseries",
        "/alerts" => "alerts",
        "/fleet/metrics" => "fleet_metrics",
        "/fleet/health" => "fleet_health",
        p if p.starts_with("/trace/") => "trace",
        _ => "other",
    }
}

/// Decodes `%XX` escapes (and `+` as space) in a URL path or query
/// component; malformed escapes pass through literally.
fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    let h = std::str::from_utf8(h).ok()?;
                    u8::from_str_radix(h, 16).ok()
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded `(key, value)` pairs.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

fn events_json(events: &[crate::Event]) -> String {
    let items: Vec<String> = events.iter().map(|e| e.to_json()).collect();
    format!("[{}]", items.join(","))
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let code: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    #[test]
    fn serves_metrics_health_status_events_and_traces() {
        crate::counter("t_http_seen_total", &[]).inc();
        let trace_id;
        {
            let root = crate::global().span("t_http_root", vec![]);
            trace_id = root.context().unwrap().trace_id;
            drop(crate::global().span("t_http_child", vec![]));
        }
        let status: StatusFn = Arc::new(|| "{\"state\":\"testing\"}".to_string());
        let mut server = ObsServer::serve("127.0.0.1:0", status).unwrap();
        let addr = server.local_addr();

        let (code, body) = get(addr, "/healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("t_http_seen_total 1"), "{body}");
        assert!(body.contains("# TYPE t_http_seen_total counter"));

        let (code, body) = get(addr, "/statusz");
        assert_eq!(code, 200);
        assert_eq!(body, "{\"state\":\"testing\"}");

        let (code, body) = get(addr, "/events");
        assert_eq!(code, 200);
        assert!(body.starts_with('[') && body.ends_with(']'));
        assert!(body.contains("\"name\":\"t_http_root\""), "{body}");

        let (code, _) = get(addr, "/slow");
        assert_eq!(code, 200);

        let (code, body) = get(addr, &format!("/trace/{}", trace::format_id(trace_id)));
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"name\":\"t_http_root\""), "{body}");
        assert!(body.contains("\"name\":\"t_http_child\""), "{body}");

        let (code, _) = get(addr, "/trace/ffffffffffffffff");
        assert_eq!(code, 404, "unknown trace id");
        let (code, _) = get(addr, "/trace/zz");
        assert_eq!(code, 404, "malformed trace id is just an unknown trace");
        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);

        server.shutdown();
    }

    #[test]
    fn percent_decoded_paths_route_and_unknowns_404() {
        let status: StatusFn = Arc::new(String::new);
        let mut server = ObsServer::serve("127.0.0.1:0", status).unwrap();
        let addr = server.local_addr();

        // %6D%65trics → "metrics"
        let (code, body) = get(addr, "/%6D%65trics");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("# TYPE"), "{body}");

        // Encoded unknown path and encoded malformed trace id both 404.
        let (code, _) = get(addr, "/no%20such%20page");
        assert_eq!(code, 404);
        let (code, _) = get(addr, "/trace/%7A%7A");
        assert_eq!(code, 404);

        assert_eq!(percent_decode("a%2Fb+c%"), "a/b c%");
        assert_eq!(percent_decode("%zz"), "%zz");

        server.shutdown();
    }

    #[test]
    fn timeseries_and_alerts_endpoints() {
        crate::counter("t_http_ts_total", &[]).inc();
        crate::timeseries::sample_now();
        crate::counter("t_http_ts_total", &[]).inc();
        crate::timeseries::sample_now();

        let status: StatusFn = Arc::new(String::new);
        let mut server = ObsServer::serve("127.0.0.1:0", status).unwrap();
        let addr = server.local_addr();

        let (code, body) = get(addr, "/timeseries?metric=t_http_ts_total&window=60");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"metric\":\"t_http_ts_total\""), "{body}");
        assert!(body.contains("\"points\":["), "{body}");

        let (code, _) = get(addr, "/timeseries?metric=t_http_no_such_metric");
        assert_eq!(code, 404);
        let (code, body) = get(addr, "/timeseries");
        assert_eq!(code, 400, "{body}");

        let (code, body) = get(addr, "/alerts");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"active\":["), "{body}");
        assert!(body.contains("\"objectives\":["), "{body}");

        server.shutdown();
    }

    #[test]
    fn fleet_endpoints_stitch_merge_and_degrade_to_partial() {
        use std::sync::atomic::AtomicBool;

        let trace_id;
        {
            let root = crate::global().span("t_fleet_root", vec![]);
            trace_id = root.context().unwrap().trace_id;
        }
        let remote_span = move |name: &str, span_id: u64| crate::Event {
            name: name.to_string(),
            fields: vec![],
            at_micros: 1,
            duration_micros: Some(5),
            trace_id: Some(trace_id),
            span_id: Some(span_id),
            parent_span_id: None,
        };

        // shard1 flips to unreachable when `down` is set; shard0 stays up.
        let down = Arc::new(AtomicBool::new(false));
        let peer_reg = Arc::new(crate::Registry::new());
        peer_reg.counter("t_fleet_peer_total", &[]).add(4);
        let hooks = FleetHooks {
            self_node: "coord".to_string(),
            trace_spans: {
                let down = Arc::clone(&down);
                Arc::new(move |id| {
                    vec![
                        PeerSpans {
                            node: "s0@a:1".to_string(),
                            events: Some(vec![remote_span("t_fleet_s0", 0xA0)]),
                        },
                        PeerSpans {
                            node: "s1@b:2".to_string(),
                            events: if down.load(Ordering::Relaxed) {
                                None
                            } else {
                                // A span from another trace must be filtered out.
                                let mut evs = vec![remote_span("t_fleet_s1", 0xA1)];
                                let mut stray = remote_span("t_fleet_stray", 0xA2);
                                stray.trace_id = Some(id.wrapping_add(1));
                                evs.push(stray);
                                Some(evs)
                            },
                        },
                    ]
                })
            },
            metrics: {
                let down = Arc::clone(&down);
                let peer_reg = Arc::clone(&peer_reg);
                Arc::new(move || {
                    vec![
                        PeerSnapshot {
                            node: "s0@a:1".to_string(),
                            snapshot: Some(peer_reg.snapshot()),
                        },
                        PeerSnapshot {
                            node: "s1@b:2".to_string(),
                            snapshot: if down.load(Ordering::Relaxed) {
                                None
                            } else {
                                Some(peer_reg.snapshot())
                            },
                        },
                    ]
                })
            },
            health: Arc::new(|| "{\"shards\":[{\"shard\":0,\"health\":\"up\"}]}".to_string()),
        };
        let status: StatusFn = Arc::new(String::new);
        let mut server =
            ObsServer::serve_fleet("127.0.0.1:0", status, ObsServerConfig::default(), hooks)
                .unwrap();
        let addr = server.local_addr();

        // Healthy fleet: spans from both peers, node-tagged, not partial.
        let (code, body) = get(addr, &format!("/trace/{}", trace::format_id(trace_id)));
        assert_eq!(code, 200, "{body}");
        assert!(
            body.starts_with("{\"partial\":false,\"node\":\"coord\","),
            "{body}"
        );
        assert!(body.contains("\"name\":\"t_fleet_root\""), "{body}");
        assert!(body.contains("\"name\":\"t_fleet_s0\""), "{body}");
        assert!(body.contains("\"name\":\"t_fleet_s1\""), "{body}");
        assert!(
            !body.contains("t_fleet_stray"),
            "other-trace span leaked: {body}"
        );
        assert!(
            body.contains("{\"node\":\"s0@a:1\",\"ok\":true,\"spans\":1}"),
            "{body}"
        );
        assert!(
            body.contains("\"fields\":{\"node\":\"s0@a:1\"}"),
            "remote span untagged: {body}"
        );

        let (code, body) = get(addr, "/fleet/metrics");
        assert_eq!(code, 200, "{body}");
        assert!(
            body.contains("t_fleet_peer_total{node=\"s0@a:1\"} 4"),
            "{body}"
        );
        assert!(
            body.contains("t_fleet_peer_total{node=\"s1@b:2\"} 4"),
            "{body}"
        );
        assert!(
            body.contains("hac_fleet_peer_up{node=\"s0@a:1\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("hac_fleet_scrape_partial{node=\"coord\"} 0"),
            "{body}"
        );
        // Peer counters were mirrored into the global registry for SLOs.
        assert!(
            body.contains("hac_fleet_t_fleet_peer_total{node=\"s0@a:1\"}"),
            "{body}"
        );

        let (code, body) = get(addr, "/fleet/health");
        assert_eq!(code, 200);
        assert!(body.contains("\"health\":\"up\""), "{body}");

        // Kill shard1: both endpoints degrade to explicitly-partial output.
        down.store(true, Ordering::Relaxed);
        let (code, body) = get(addr, &format!("/trace/{}", trace::format_id(trace_id)));
        assert_eq!(code, 200, "{body}");
        assert!(body.starts_with("{\"partial\":true,"), "{body}");
        assert!(
            body.contains("{\"node\":\"s1@b:2\",\"ok\":false,\"spans\":0}"),
            "{body}"
        );
        assert!(
            body.contains("\"name\":\"t_fleet_s0\""),
            "reachable peer still stitched: {body}"
        );
        let (code, body) = get(addr, "/fleet/metrics");
        assert_eq!(code, 200, "{body}");
        assert!(
            body.contains("hac_fleet_scrape_partial{node=\"coord\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("hac_fleet_peer_up{node=\"s1@b:2\"} 0"),
            "{body}"
        );
        assert!(
            body.contains("t_fleet_peer_total{node=\"s0@a:1\"} 4"),
            "{body}"
        );

        server.shutdown();

        // A non-fleet server 404s the fleet endpoints.
        let status: StatusFn = Arc::new(String::new);
        let mut plain = ObsServer::serve("127.0.0.1:0", status).unwrap();
        let (code, body) = get(plain.local_addr(), "/fleet/metrics");
        assert_eq!((code, body.as_str()), (404, "not a fleet node\n"));
        let (code, _) = get(plain.local_addr(), "/fleet/health");
        assert_eq!(code, 404);
        plain.shutdown();
    }

    #[test]
    fn shed_queue_overflow_responds_503_and_counts() {
        let status: StatusFn = Arc::new(String::new);
        let config = ObsServerConfig {
            workers: 1,
            queue_depth: 1,
            io_timeout: Duration::from_secs(2),
        };
        let mut server = ObsServer::serve_with("127.0.0.1:0", status, config).unwrap();
        let addr = server.local_addr();
        let shed_before = crate::counter("hac_obs_http_shed_total", &[]).get();

        // Pin the single worker on a half-written request, then stuff
        // more idle connections in than the queue can hold.
        let mut blocker = TcpStream::connect(addr).unwrap();
        blocker.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(100));

        let mut held = Vec::new();
        let mut sheds = 0;
        for _ in 0..8 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut response = String::new();
            if stream.read_to_string(&mut response).is_ok() && response.starts_with("HTTP/1.1 503")
            {
                sheds += 1;
                continue;
            }
            held.push(stream);
        }
        assert!(sheds > 0, "expected at least one shed 503");
        let shed_after = crate::counter("hac_obs_http_shed_total", &[]).get();
        assert!(
            shed_after >= shed_before + sheds,
            "shed counter should cover every 503 ({shed_before} -> {shed_after}, saw {sheds})"
        );

        // Release the worker so shutdown can drain cleanly.
        blocker.write_all(b"Host: x\r\n\r\n").unwrap();
        drop(held);
        server.shutdown();
    }

    #[test]
    fn rejects_non_get() {
        let status: StatusFn = Arc::new(String::new);
        let server = ObsServer::serve("127.0.0.1:0", status).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }
}
