//! The observability endpoints, as a pure function from one HTTP/1.1
//! request head to the bytes of its response.
//!
//! [`respond`] routes a request head against the global [`Obs`](crate::Obs)
//! domain for scrapers and humans:
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
//! [`Routes`] with [`FleetHooks`] additionally follow the federation:
//! `/trace/<id>` scatter-fetches the span forest from every peer (shards
//! and their replicas) under a deadline budget and stitches the union
//! under the local request span — remote spans nest automatically because
//! the wire propagates `parent_span_id` — marking the result
//! `"partial":true` when a peer could not answer, never erroring. The
//! fetching itself lives behind [`FleetHooks`]: this crate owns assembly
//! and rendering, the caller (who has a `hac-net` client) owns transport.
//!
//! Only `GET` is served; request paths are percent-decoded before
//! routing; every response says `Connection: close`. A head longer than
//! [`MAX_REQUEST_HEAD`] gets a `400`. There are no sockets and no threads
//! here: `hac-net`'s `HacServer::serve_obs` reads the head, runs
//! [`respond`] on a CPU worker (the fleet routes block on peer fetches),
//! writes the bytes and closes the connection.

use std::sync::Arc;

use crate::trace;

/// Longest request head served; a longer one is answered with a `400`.
pub const MAX_REQUEST_HEAD: usize = 8 * 1024;

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

/// Transport callbacks fleet-aware [`Routes`] stitch with. The closures
/// are expected to scatter to the current federation under their own
/// deadline budget and report unreachable peers as `None` entries rather
/// than failing: a partial result, never an error. A shell with no
/// federation mounted returns empty vectors.
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

/// What the endpoints answer from: the `/statusz` producer and, on a node
/// that follows a federation, the fleet hooks (`None` 404s `/fleet/*`
/// and keeps `/trace/<id>` local).
pub struct Routes {
    /// Produces the `/statusz` JSON body.
    pub status: StatusFn,
    /// Federation transport for `/trace/<id>` stitching and `/fleet/*`.
    pub fleet: Option<FleetHooks>,
}

/// Whether `buf` holds everything [`respond`] needs: a complete request
/// head, or more than [`MAX_REQUEST_HEAD`] bytes (answered with a `400`).
pub fn head_ready(buf: &[u8]) -> bool {
    buf.len() > MAX_REQUEST_HEAD || head_len(buf).is_some()
}

/// Length of the request head in `buf`, through its terminating blank
/// line, if it is complete.
fn head_len(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Routes one request head (bodies are never read) and returns the full
/// HTTP/1.1 response: status line, headers and body.
pub fn respond(head: &[u8], routes: &Routes) -> Vec<u8> {
    let head = match head_len(head) {
        Some(n) if n <= MAX_REQUEST_HEAD => String::from_utf8_lossy(&head[..n]),
        _ => return response(400, "text/plain", "request too large\n"),
    };
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    if method != "GET" {
        return response(405, "text/plain", "method not allowed\n");
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
    let fleet = routes.fleet.as_ref();
    match endpoint {
        "metrics" => response(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &crate::prometheus(),
        ),
        "healthz" => response(200, "text/plain", "ok\n"),
        "statusz" => response(200, "application/json", &(routes.status)()),
        "events" => response(
            200,
            "application/json",
            &events_json(&crate::recent_events()),
        ),
        "slow" => response(200, "application/json", &events_json(&crate::slow_ops())),
        "timeseries" => {
            // A scrape is one of the sampling clocks: it gets fresh
            // points even in a process with no server loop or daemon.
            crate::timeseries::sample_if_due();
            let metric = match query.iter().find(|(k, _)| k == "metric") {
                Some((_, m)) if !m.is_empty() => m.as_str(),
                _ => return response(400, "text/plain", "missing required query param: metric\n"),
            };
            let window = query
                .iter()
                .find(|(k, _)| k == "window")
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .unwrap_or(60);
            match crate::timeseries::global().series_json(metric, window) {
                Some(json) => response(200, "application/json", &json),
                None => response(404, "text/plain", "unknown metric\n"),
            }
        }
        "alerts" => {
            crate::timeseries::sample_if_due();
            response(200, "application/json", &crate::slo::engine().to_json())
        }
        "trace" => {
            // Malformed ids and unknown ids look the same to a client:
            // there is no such trace resource.
            let body = trace::parse_id(path.trim_start_matches("/trace/")).and_then(|id| {
                // A span can sit in either (or both) rings; assembly dedups.
                let mut events = crate::recent_events();
                events.extend(crate::slow_ops());
                match fleet {
                    Some(hooks) => stitched_trace_json(hooks, id, events),
                    None => {
                        let tree = trace::assemble(&events, id);
                        (!tree.roots.is_empty()).then(|| tree.to_json())
                    }
                }
            });
            match body {
                Some(json) => response(200, "application/json", &json),
                None => response(404, "text/plain", "unknown trace id\n"),
            }
        }
        "fleet_metrics" => match fleet {
            Some(hooks) => response(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &fleet_metrics_text(hooks),
            ),
            None => response(404, "text/plain", "not a fleet node\n"),
        },
        "fleet_health" => match fleet {
            Some(hooks) => response(200, "application/json", &(hooks.health)()),
            None => response(404, "text/plain", "not a fleet node\n"),
        },
        _ => response(404, "text/plain", "not found\n"),
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
/// registry ([`crate::absorb_fleet`]) so the time-series/SLO machinery sees
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

fn response(code: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let mut out = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routes `GET <path>` and splits the response into status and body.
    fn get(routes: &Routes, path: &str) -> (u16, String) {
        send(routes, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn send(routes: &Routes, head: &str) -> (u16, String) {
        let response = String::from_utf8(respond(head.as_bytes(), routes)).unwrap();
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

    fn local(status: StatusFn) -> Routes {
        Routes {
            status,
            fleet: None,
        }
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
        let routes = local(status);

        let (code, body) = get(&routes, "/healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        let (code, body) = get(&routes, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("t_http_seen_total 1"), "{body}");
        assert!(body.contains("# TYPE t_http_seen_total counter"));

        let (code, body) = get(&routes, "/statusz");
        assert_eq!(code, 200);
        assert_eq!(body, "{\"state\":\"testing\"}");

        let (code, body) = get(&routes, "/events");
        assert_eq!(code, 200);
        assert!(body.starts_with('[') && body.ends_with(']'));
        assert!(body.contains("\"name\":\"t_http_root\""), "{body}");

        let (code, _) = get(&routes, "/slow");
        assert_eq!(code, 200);

        let (code, body) = get(&routes, &format!("/trace/{}", trace::format_id(trace_id)));
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"name\":\"t_http_root\""), "{body}");
        assert!(body.contains("\"name\":\"t_http_child\""), "{body}");

        let (code, _) = get(&routes, "/trace/ffffffffffffffff");
        assert_eq!(code, 404, "unknown trace id");
        let (code, _) = get(&routes, "/trace/zz");
        assert_eq!(code, 404, "malformed trace id is just an unknown trace");
        let (code, _) = get(&routes, "/nope");
        assert_eq!(code, 404);
    }

    #[test]
    fn percent_decoded_paths_route_and_unknowns_404() {
        let status: StatusFn = Arc::new(String::new);
        let routes = local(status);

        // %6D%65trics → "metrics"
        let (code, body) = get(&routes, "/%6D%65trics");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("# TYPE"), "{body}");

        // Encoded unknown path and encoded malformed trace id both 404.
        let (code, _) = get(&routes, "/no%20such%20page");
        assert_eq!(code, 404);
        let (code, _) = get(&routes, "/trace/%7A%7A");
        assert_eq!(code, 404);

        assert_eq!(percent_decode("a%2Fb+c%"), "a/b c%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn timeseries_and_alerts_endpoints() {
        crate::counter("t_http_ts_total", &[]).inc();
        crate::timeseries::sample_now();
        crate::counter("t_http_ts_total", &[]).inc();
        crate::timeseries::sample_now();

        let status: StatusFn = Arc::new(String::new);
        let routes = local(status);

        let (code, body) = get(&routes, "/timeseries?metric=t_http_ts_total&window=60");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"metric\":\"t_http_ts_total\""), "{body}");
        assert!(body.contains("\"points\":["), "{body}");

        let (code, _) = get(&routes, "/timeseries?metric=t_http_no_such_metric");
        assert_eq!(code, 404);
        let (code, body) = get(&routes, "/timeseries");
        assert_eq!(code, 400, "{body}");

        let (code, body) = get(&routes, "/alerts");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"active\":["), "{body}");
        assert!(body.contains("\"objectives\":["), "{body}");
    }

    #[test]
    fn fleet_endpoints_stitch_merge_and_degrade_to_partial() {
        use std::sync::atomic::{AtomicBool, Ordering};

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
        let routes = Routes {
            status: Arc::new(String::new),
            fleet: Some(hooks),
        };

        // Healthy fleet: spans from both peers, node-tagged, not partial.
        let (code, body) = get(&routes, &format!("/trace/{}", trace::format_id(trace_id)));
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

        let (code, body) = get(&routes, "/fleet/metrics");
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

        let (code, body) = get(&routes, "/fleet/health");
        assert_eq!(code, 200);
        assert!(body.contains("\"health\":\"up\""), "{body}");

        // Kill shard1: both endpoints degrade to explicitly-partial output.
        down.store(true, Ordering::Relaxed);
        let (code, body) = get(&routes, &format!("/trace/{}", trace::format_id(trace_id)));
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
        let (code, body) = get(&routes, "/fleet/metrics");
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

        // Routes without fleet hooks 404 the fleet endpoints.
        let plain = local(Arc::new(String::new));
        let (code, body) = get(&plain, "/fleet/metrics");
        assert_eq!((code, body.as_str()), (404, "not a fleet node\n"));
        let (code, _) = get(&plain, "/fleet/health");
        assert_eq!(code, 404);
    }

    #[test]
    fn refuses_non_get_oversized_heads_and_bad_trace_ids() {
        let routes = local(Arc::new(String::new));
        let (code, _) = send(&routes, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 405);

        // Over the cap, complete or not, the head is refused unread.
        let big = format!(
            "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_REQUEST_HEAD)
        );
        assert!(head_ready(big.as_bytes()));
        assert_eq!(
            send(&routes, &big),
            (400, "request too large\n".to_string())
        );
        let partial = "a".repeat(MAX_REQUEST_HEAD + 1);
        assert!(head_ready(partial.as_bytes()));
        assert_eq!(send(&routes, &partial).0, 400);

        // A head at the cap is served; an unfinished one is not ready.
        let at_cap = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}", "a".repeat(8000));
        let at_cap = format!(
            "{at_cap}{}\r\n\r\n",
            "a".repeat(MAX_REQUEST_HEAD - at_cap.len() - 4)
        );
        assert_eq!(at_cap.len(), MAX_REQUEST_HEAD);
        assert_eq!(send(&routes, &at_cap), (200, "ok\n".to_string()));
        assert!(!head_ready(b"GET /healthz HTTP/1.1\r\n"));

        assert_eq!(get(&routes, "/trace/zz").0, 404);
    }
}
