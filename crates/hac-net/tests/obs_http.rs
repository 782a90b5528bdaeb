//! The observability endpoints on the `HacServer` reactor
//! (`HacServer::serve_obs`): one HTTP/1.1 request per connection, routed
//! by `hac_obs::http::respond` on a CPU worker, answered and closed —
//! under the same deadlines and accept-time limit as HACN connections.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hac_net::{HacServer, ServerConfig};
use hac_obs::http::Routes;

fn routes(status: &'static str) -> Routes {
    Routes {
        status: Arc::new(move || status.to_string()),
        fleet: None,
    }
}

fn obs_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

/// Sends `head` and reads until the server closes: status code and body.
fn send(addr: SocketAddr, head: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(head.as_bytes()).unwrap();
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

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    send(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

#[test]
fn obs_endpoints_answer_and_close_on_the_reactor() {
    let server = HacServer::serve_obs(
        "127.0.0.1:0",
        routes("{\"state\":\"testing\"}"),
        obs_config(),
    )
    .unwrap();
    let addr = server.local_addr();
    let healthz = hac_obs::counter("hac_obs_http_requests_total", &[("endpoint", "healthz")]);
    let before = healthz.get();

    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
    assert_eq!(healthz.get(), before + 1);
    let (code, body) = get(addr, "/metrics");
    assert_eq!(code, 200);
    assert!(
        body.contains("# TYPE hac_obs_http_requests_total counter"),
        "{body}"
    );
    assert_eq!(
        get(addr, "/statusz"),
        (200, "{\"state\":\"testing\"}".to_string())
    );
    assert_eq!(get(addr, "/nope").0, 404);

    // A head split across writes is assembled before it is routed.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"GET /heal").unwrap();
    std::thread::sleep(Duration::from_millis(30));
    stream.write_all(b"thz HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.ends_with("\r\n\r\nok\n"), "{response}");
    server.shutdown();
}

#[test]
fn obs_refuses_non_get_oversized_heads_and_bad_trace_ids() {
    let server = HacServer::serve_obs("127.0.0.1:0", routes("{}"), obs_config()).unwrap();
    let addr = server.local_addr();

    let (code, body) = send(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!((code, body.as_str()), (405, "method not allowed\n"));

    let oversized = format!(
        "GET /metrics HTTP/1.1\r\nHost: x\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(10_000)
    );
    let (code, body) = send(addr, &oversized);
    assert_eq!((code, body.as_str()), (400, "request too large\n"));

    assert_eq!(get(addr, "/trace/zz").0, 404);
    // The server is unharmed by any of it.
    assert_eq!(get(addr, "/healthz").0, 200);
    server.shutdown();
}

#[test]
fn a_slow_route_blocks_neither_the_loop_nor_other_scrapes() {
    let slow = Routes {
        status: Arc::new(|| {
            std::thread::sleep(Duration::from_millis(600));
            "{}".to_string()
        }),
        fleet: None,
    };
    let server = HacServer::serve_obs("127.0.0.1:0", slow, obs_config()).unwrap();
    let addr = server.local_addr();
    let statusz = std::thread::spawn(move || get(addr, "/statusz"));
    std::thread::sleep(Duration::from_millis(100));
    // The slow route holds one worker; were it run on the loop thread,
    // this scrape would wait for it.
    let started = Instant::now();
    assert_eq!(get(addr, "/healthz").0, 200);
    assert!(
        started.elapsed() < Duration::from_millis(400),
        "healthz waited {:?} behind a slow route",
        started.elapsed()
    );
    assert_eq!(statusz.join().unwrap(), (200, "{}".to_string()));
    server.shutdown();
}

#[test]
fn obs_connections_past_max_connections_are_rejected_at_accept() {
    let server = HacServer::serve_obs(
        "127.0.0.1:0",
        routes("{}"),
        ServerConfig {
            max_connections: 1,
            ..obs_config()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let rejected = hac_obs::counter("hac_net_server_rejected_total", &[]);
    let before = rejected.get();

    // One silent connection fills the table…
    let held = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // …so the next is dropped at accept, unanswered.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = refused.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
    let mut response = Vec::new();
    let _ = refused.read_to_end(&mut response);
    assert!(
        response.is_empty(),
        "a rejected connection gets no response"
    );
    assert!(rejected.get() > before, "the reject must be counted");

    // Once the slot frees, scrapes are served again.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        if response.starts_with("HTTP/1.1 200") {
            break;
        }
        assert!(Instant::now() < deadline, "the freed slot was never reused");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn a_dribbled_head_is_reaped_as_a_slow_read() {
    let server = HacServer::serve_obs(
        "127.0.0.1:0",
        routes("{}"),
        ServerConfig {
            read_timeout: Duration::from_millis(150),
            ..obs_config()
        },
    )
    .unwrap();
    let slow_reads = hac_obs::counter("hac_net_server_reaped_total", &[("reason", "slow_read")]);
    let before = slow_reads.get();
    let mut loris = TcpStream::connect(server.local_addr()).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    loris.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    // The head never finishes: the server hangs up without a response.
    let mut response = Vec::new();
    let _ = loris.read_to_end(&mut response);
    assert!(
        response.is_empty(),
        "{:?}",
        String::from_utf8_lossy(&response)
    );
    assert!(
        slow_reads.get() > before,
        "shed must be recorded as a slow_read reap"
    );
    server.shutdown();
}
