//! `NetRemote`: a TCP client that *is* a [`RemoteQuerySystem`].
//!
//! Because `NetRemote` implements the same trait as the in-process
//! simulators, a networked mount drops into the semantic-mount machinery
//! unchanged — `HacFs::smount` neither knows nor cares that the backend
//! lives across a socket. Transport failures are folded into the
//! [`RemoteError`] taxonomy the scope evaluator already handles: scope
//! refreshes that hit a dead server keep previously imported results,
//! exactly as the paper's §3 prescribes for unreachable remotes.
//!
//! Reliability shape:
//!
//! * a bounded **connection pool** (idle sockets are reused; at most
//!   `max_connections` exist at once; excess callers wait on a condvar).
//!   A request checks its socket out exclusively until the answer
//!   arrives, so a slow request never blocks one on another socket, and
//!   a socket whose request failed or timed out is discarded, never
//!   reused;
//! * a **per-request deadline** (socket read/write timeouts);
//! * **capped exponential retry with jitter** via the shared
//!   [`RetryPolicy`] — the same backoff shape the reindex daemon uses.
//!
//! Retries apply only to *retriable* failures (connection refused/reset,
//! timeouts). Semantic errors from the far side — not found, unsupported
//! query, unknown namespace, version mismatch — fail fast.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem, RetryPolicy};
use hac_index::ContentExpr;

use crate::wire::{self, Request, RequestBody, ResponseBody, WireError, PROTOCOL_VERSION};

/// Tuning for a [`NetRemote`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Ceiling on live sockets to the server (pooled + in flight).
    pub max_connections: usize,
    /// How long a caller waits for a pooled socket before giving up.
    pub pool_wait: Duration,
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Retry/backoff/request-deadline knobs (shared with the daemon).
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_connections: 4,
            pool_wait: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
        }
    }
}

/// Per-op metric handles (see [`ClientMetrics`]).
struct OpMetrics {
    requests: hac_obs::Counter,
    duration: hac_obs::Histogram,
    errors: hac_obs::Counter,
    retries: hac_obs::Counter,
    server_time: hac_obs::Histogram,
    wire_overhead: hac_obs::Histogram,
}

impl OpMetrics {
    fn new(ns: &str, op: &str) -> OpMetrics {
        let labels = [("ns", ns), ("op", op)];
        OpMetrics {
            requests: hac_obs::counter("hac_net_requests_total", &labels),
            duration: hac_obs::histogram("hac_net_request_duration_us", &labels),
            errors: hac_obs::counter("hac_net_errors_total", &labels),
            retries: hac_obs::counter("hac_net_retries_total", &labels),
            server_time: hac_obs::histogram("hac_net_server_time_us", &labels),
            wire_overhead: hac_obs::histogram("hac_net_wire_overhead_us", &labels),
        }
    }
}

/// Metric handles resolved once per client. A registry lookup allocates
/// a `MetricId` and takes the process-wide registry lock — repeating
/// that on every request (from every caller thread) serializes the hot
/// path on one mutex.
struct ClientMetrics {
    bytes_written: hac_obs::Counter,
    bytes_read: hac_obs::Counter,
    search: OpMetrics,
    fetch: OpMetrics,
    ping: OpMetrics,
    capabilities: OpMetrics,
}

impl ClientMetrics {
    fn new(ns: &str) -> ClientMetrics {
        ClientMetrics {
            bytes_written: hac_obs::counter("hac_net_client_bytes_written_total", &[]),
            bytes_read: hac_obs::counter("hac_net_client_bytes_read_total", &[("ns", ns)]),
            search: OpMetrics::new(ns, "search"),
            fetch: OpMetrics::new(ns, "fetch"),
            ping: OpMetrics::new(ns, "ping"),
            capabilities: OpMetrics::new(ns, "capabilities"),
        }
    }

    fn op(&self, op: &str) -> &OpMetrics {
        match op {
            "search" => &self.search,
            "fetch" => &self.fetch,
            "ping" => &self.ping,
            _ => &self.capabilities,
        }
    }
}

/// A pooled socket that has passed the version handshake.
struct PooledConn {
    stream: TcpStream,
    /// Streaming receive state. A whole response usually arrives as one
    /// segment, so assembling frames from bulk reads costs one syscall
    /// where header-then-payload `read_exact`s cost two — and the buffer
    /// persists across the pool, so steady state reads allocate nothing.
    rx: wire::FrameDecoder,
}

struct PoolState {
    idle: Vec<PooledConn>,
    /// Sockets currently checked out or idle (never exceeds `max_connections`).
    total: usize,
    waiters: usize,
}

/// Mutex+condvar socket pool. `checkout` hands back either an idle socket
/// or permission to dial a new one; `put_back`/`discard` return capacity.
struct Pool {
    state: Mutex<PoolState>,
    available: Condvar,
    cap: usize,
    size: hac_obs::Gauge,
    waiting: hac_obs::Gauge,
}

enum Checkout {
    Reuse(PooledConn),
    Dial,
}

impl Pool {
    fn new(cap: usize, ns: &str) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                idle: Vec::new(),
                total: 0,
                waiters: 0,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
            size: hac_obs::gauge("hac_net_pool_size", &[("ns", ns)]),
            waiting: hac_obs::gauge("hac_net_pool_waiters", &[("ns", ns)]),
        }
    }

    fn checkout(&self, wait: Duration) -> Result<Checkout, RemoteError> {
        let deadline = Instant::now() + wait;
        let mut state = self.state.lock().expect("pool poisoned");
        loop {
            if let Some(conn) = state.idle.pop() {
                return Ok(Checkout::Reuse(conn));
            }
            if state.total < self.cap {
                state.total += 1;
                self.size.set(state.total as i64);
                return Ok(Checkout::Dial);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RemoteError::Timeout);
            }
            state.waiters += 1;
            self.waiting.set(state.waiters as i64);
            let (s, _) = self
                .available
                .wait_timeout(state, deadline - now)
                .expect("pool poisoned");
            state = s;
            state.waiters -= 1;
            self.waiting.set(state.waiters as i64);
        }
    }

    fn put_back(&self, conn: PooledConn) {
        let mut state = self.state.lock().expect("pool poisoned");
        state.idle.push(conn);
        self.available.notify_one();
    }

    /// Drops a broken socket and releases its capacity slot.
    fn discard(&self) {
        let mut state = self.state.lock().expect("pool poisoned");
        state.total = state.total.saturating_sub(1);
        self.size.set(state.total as i64);
        self.available.notify_one();
    }

    fn drain(&self) -> VecDeque<PooledConn> {
        let mut state = self.state.lock().expect("pool poisoned");
        let conns: VecDeque<PooledConn> = state.idle.drain(..).collect();
        state.total = state.total.saturating_sub(conns.len());
        self.size.set(state.total as i64);
        conns
    }
}

/// A remote query system reached over TCP.
pub struct NetRemote {
    ns: NamespaceId,
    addr: String,
    config: ClientConfig,
    pool: Pool,
    next_id: AtomicU64,
    jitter: Mutex<u64>,
    metrics: ClientMetrics,
}

impl NetRemote {
    /// Creates a client for namespace `ns` served at `addr`
    /// (`"host:port"`). No connection is made until the first request.
    pub fn connect(ns: &str, addr: &str, config: ClientConfig) -> Self {
        let jitter = config.retry.seed_jitter() ^ (ns.len() as u64) << 32 | addr.len() as u64;
        NetRemote {
            ns: NamespaceId(ns.to_string()),
            addr: addr.to_string(),
            pool: Pool::new(config.max_connections, ns),
            config,
            next_id: AtomicU64::new(1),
            jitter: Mutex::new(jitter | 1),
            metrics: ClientMetrics::new(ns),
        }
    }

    /// Parses a `tcp://host:port/namespace` URL into `(addr, ns)`.
    ///
    /// # Errors
    ///
    /// [`RemoteError::UnsupportedQuery`] when the URL does not match the
    /// scheme (we reuse the closest existing taxonomy entry rather than
    /// widening the enum for a parse failure).
    pub fn parse_url(url: &str) -> Result<(String, String), RemoteError> {
        let rest = url
            .strip_prefix("tcp://")
            .ok_or_else(|| RemoteError::UnsupportedQuery(format!("not a tcp:// url: {url}")))?;
        let (addr, ns) = rest
            .split_once('/')
            .ok_or_else(|| RemoteError::UnsupportedQuery(format!("missing /namespace: {url}")))?;
        if addr.is_empty() || ns.is_empty() {
            return Err(RemoteError::UnsupportedQuery(format!(
                "empty host or namespace: {url}"
            )));
        }
        Ok((addr.to_string(), ns.to_string()))
    }

    /// Builds a client straight from a `tcp://host:port/namespace` URL.
    ///
    /// # Errors
    ///
    /// See [`parse_url`](NetRemote::parse_url).
    pub fn from_url(url: &str, config: ClientConfig) -> Result<Self, RemoteError> {
        let (addr, ns) = Self::parse_url(url)?;
        Ok(Self::connect(&ns, &addr, config))
    }

    /// The server address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Asks the server which namespaces it exports.
    ///
    /// # Errors
    ///
    /// Transport failures map onto [`RemoteError`] like any request.
    pub fn capabilities(&self) -> Result<Vec<String>, RemoteError> {
        match self.request("capabilities", RequestBody::Capabilities)? {
            ResponseBody::Capabilities { namespaces, .. } => Ok(namespaces),
            other => Err(unexpected(other)),
        }
    }

    /// Round-trips a ping; returns the protocol version both sides speak.
    ///
    /// # Errors
    ///
    /// Transport failures map onto [`RemoteError`] like any request; a
    /// server at another version refuses (not retried).
    pub fn ping(&self) -> Result<u16, RemoteError> {
        let version = PROTOCOL_VERSION;
        match self.request("ping", RequestBody::Ping { version })? {
            ResponseBody::Pong { version } => Ok(version),
            other => Err(unexpected(other)),
        }
    }

    /// Closes every idle pooled socket. Requests in flight are unaffected.
    pub fn disconnect(&self) {
        for conn in self.pool.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Connects and performs the version handshake, so only sockets whose
    /// server speaks [`PROTOCOL_VERSION`] ever join the pool. A refusal
    /// surfaces as the server's own [`WireError::VersionMismatch`], which
    /// the retry loop treats as fatal.
    fn dial(&self) -> Result<PooledConn, AttemptError> {
        use std::net::ToSocketAddrs;
        let mut last = io::Error::new(io::ErrorKind::NotFound, "no address resolved");
        for addr in self.addr.as_str().to_socket_addrs()? {
            let stream = match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(stream) => stream,
                Err(e) => {
                    last = e;
                    continue;
                }
            };
            stream.set_read_timeout(Some(self.config.retry.request_timeout))?;
            stream.set_write_timeout(Some(self.config.retry.request_timeout))?;
            stream.set_nodelay(true)?;
            let mut conn = PooledConn {
                stream,
                rx: wire::FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN),
            };
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let version = PROTOCOL_VERSION;
            let pong = exchange(
                &conn.stream,
                &mut conn.rx,
                &Request::new(id, RequestBody::Ping { version }),
                &self.metrics.bytes_written,
            )?;
            return match pong.body {
                ResponseBody::Pong { .. } => Ok(conn),
                ResponseBody::Err(e) => Err(AttemptError::Wire(e)),
                _ => Err(AttemptError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "handshake: unexpected response to ping",
                ))),
            };
        }
        Err(AttemptError::Io(last))
    }

    /// One attempt: checkout/dial, send, receive, return socket to pool.
    ///
    /// The attempt runs under a `net_client_request` span whose context
    /// (when tracing is on) rides inside the request so the server's spans
    /// nest under it. A traced response reports how long the server spent,
    /// letting us split the round trip into server time
    /// (`hac_net_server_time_us`) and everything else — serialization,
    /// kernel, and network (`hac_net_wire_overhead_us`).
    fn attempt(&self, op: &'static str, body: &RequestBody) -> Result<ResponseBody, AttemptError> {
        let mut conn = match self.pool.checkout(self.config.pool_wait)? {
            Checkout::Reuse(conn) => conn,
            Checkout::Dial => match self.dial() {
                Ok(conn) => conn,
                Err(e) => {
                    self.pool.discard();
                    return Err(e);
                }
            },
        };
        let mut span = hac_obs::span!("net_client_request", ns = self.ns.0, op = op);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = Request {
            id,
            body: body.clone(),
            trace: span.context().map(Into::into),
        };
        let start = Instant::now();
        match exchange(
            &conn.stream,
            &mut conn.rx,
            &req,
            &self.metrics.bytes_written,
        ) {
            Ok(resp) => {
                if resp.id != id {
                    // Desynchronised stream (e.g. a previous timeout left a
                    // stale response buffered) — poison the socket.
                    self.pool.discard();
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    return Err(AttemptError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response id mismatch",
                    )));
                }
                self.metrics.bytes_read.add(resp.wire_len as u64);
                if let Some(server_us) = resp.server_elapsed_us {
                    let total_us = start.elapsed().as_micros() as u64;
                    let m = self.metrics.op(op);
                    m.server_time.record(server_us);
                    m.wire_overhead.record(total_us.saturating_sub(server_us));
                    span.field("server_us", server_us);
                }
                self.pool.put_back(conn);
                match resp.body {
                    ResponseBody::Err(e) => Err(AttemptError::Wire(e)),
                    ok => Ok(ok),
                }
            }
            Err(e) => {
                self.pool.discard();
                let _ = conn.stream.shutdown(Shutdown::Both);
                Err(AttemptError::Io(e))
            }
        }
    }

    /// Full request with retry. `op` labels the metrics.
    fn request(&self, op: &'static str, body: RequestBody) -> Result<ResponseBody, RemoteError> {
        let m = self.metrics.op(op);
        let start = Instant::now();
        let policy = &self.config.retry;
        let mut failures = 0u64;
        let result = loop {
            match self.attempt(op, &body) {
                Ok(ok) => break Ok(ok),
                Err(e) => {
                    let (remote, retriable) = e.classify();
                    failures += 1;
                    if !retriable || failures >= u64::from(policy.max_attempts.max(1)) {
                        break Err(remote);
                    }
                    m.retries.inc();
                    let delay = {
                        let mut jitter = self.jitter.lock().expect("jitter poisoned");
                        policy.delay(failures, &mut jitter)
                    };
                    std::thread::sleep(delay);
                }
            }
        };
        m.requests.inc();
        m.duration.record(start.elapsed().as_micros() as u64);
        if result.is_err() {
            m.errors.inc();
        }
        result
    }
}

impl Drop for NetRemote {
    fn drop(&mut self) {
        self.disconnect();
    }
}

impl RemoteQuerySystem for NetRemote {
    fn namespace(&self) -> NamespaceId {
        self.ns.clone()
    }

    fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        match self.request(
            "search",
            RequestBody::Search {
                ns: self.ns.0.clone(),
                query: query.clone(),
            },
        )? {
            ResponseBody::Docs(docs) => Ok(docs),
            other => Err(unexpected(other)),
        }
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "fetch",
            RequestBody::Fetch {
                ns: self.ns.0.clone(),
                doc: id.to_string(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn manifest_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "manifest",
            RequestBody::Manifest {
                ns: self.ns.0.clone(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn object_bytes(&self, hash: &str) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "object",
            RequestBody::Object {
                ns: self.ns.0.clone(),
                hash: hash.to_string(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn shard_map_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "shard_map",
            RequestBody::ShardMap {
                ns: self.ns.0.clone(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn trace_spans_bytes(&self, trace_id: u64) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "trace_spans",
            RequestBody::TraceSpans {
                ns: self.ns.0.clone(),
                trace_id,
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    fn metrics_bytes(&self) -> Result<Vec<u8>, RemoteError> {
        match self.request(
            "metrics",
            RequestBody::Metrics {
                ns: self.ns.0.clone(),
            },
        )? {
            ResponseBody::Blob(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }
}

/// A decoded response plus how many wire bytes it occupied.
struct Received {
    id: u64,
    body: ResponseBody,
    wire_len: usize,
    server_elapsed_us: Option<u64>,
}

/// One strict request/response round trip. The response is assembled
/// through `rx` from bulk reads — typically a single syscall for a whole
/// frame, against two for the header-then-payload `read_exact` pair.
fn exchange(
    mut conn: &TcpStream,
    rx: &mut wire::FrameDecoder,
    req: &Request,
    bytes_written: &hac_obs::Counter,
) -> io::Result<Received> {
    let bytes = wire::encode_request(req);
    wire::write_frame(&mut conn, &bytes)?;
    bytes_written.add(bytes.len() as u64 + 8);
    loop {
        if let Some(payload) = rx.next_frame()? {
            let resp = wire::decode_response(payload)?;
            return Ok(Received {
                id: resp.id,
                body: resp.body,
                wire_len: payload.len() + 8,
                server_elapsed_us: resp.server_elapsed_us,
            });
        }
        if rx.read_from(&mut conn)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
    }
}

fn unexpected(body: ResponseBody) -> RemoteError {
    RemoteError::Unavailable(format!("unexpected response kind: {body:?}"))
}

/// One attempt's failure, before the retry loop classifies it.
enum AttemptError {
    /// Transport-level: socket errors, timeouts, garbled frames.
    Io(io::Error),
    /// The server answered with a protocol-level error.
    Wire(WireError),
}

impl From<io::Error> for AttemptError {
    fn from(e: io::Error) -> Self {
        AttemptError::Io(e)
    }
}

impl From<RemoteError> for AttemptError {
    fn from(e: RemoteError) -> Self {
        // Pool-checkout timeout arrives as a RemoteError already.
        AttemptError::Wire(WireError::Remote(e))
    }
}

impl AttemptError {
    /// Maps onto the `RemoteError` taxonomy and decides retriability.
    fn classify(&self) -> (RemoteError, bool) {
        match self {
            AttemptError::Io(e) => match e.kind() {
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => (RemoteError::Timeout, true),
                io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof => (RemoteError::Unavailable(e.to_string()), true),
                _ => (RemoteError::Unavailable(e.to_string()), false),
            },
            AttemptError::Wire(w) => (w.clone().into_remote_error(), w.is_retriable()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_accepts_tcp_and_rejects_the_rest() {
        let (addr, ns) = NetRemote::parse_url("tcp://127.0.0.1:9470/library").unwrap();
        assert_eq!(addr, "127.0.0.1:9470");
        assert_eq!(ns, "library");
        assert!(NetRemote::parse_url("http://x/y").is_err());
        assert!(NetRemote::parse_url("tcp://hostonly").is_err());
        assert!(NetRemote::parse_url("tcp:///ns").is_err());
        assert!(NetRemote::parse_url("tcp://host:1/").is_err());
    }

    #[test]
    fn refused_connection_maps_to_unavailable_after_retries() {
        // Bind-then-drop gives us a port that refuses connections.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut config = ClientConfig::default();
        config.retry.max_attempts = 2;
        config.retry.base_delay = Duration::from_millis(1);
        let client = NetRemote::connect("nowhere", &format!("127.0.0.1:{port}"), config);
        let err = client.search(&ContentExpr::All).unwrap_err();
        assert!(matches!(err, RemoteError::Unavailable(_)), "got {err:?}");
    }

    #[test]
    fn classify_separates_retriable_from_fatal() {
        let timeout = AttemptError::Io(io::Error::new(io::ErrorKind::TimedOut, "t"));
        assert!(matches!(timeout.classify(), (RemoteError::Timeout, true)));
        let refused = AttemptError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "r"));
        assert!(matches!(
            refused.classify(),
            (RemoteError::Unavailable(_), true)
        ));
        let notfound = AttemptError::Wire(WireError::Remote(RemoteError::NotFound("x".into())));
        assert!(matches!(
            notfound.classify(),
            (RemoteError::NotFound(_), false)
        ));
        let unknown = AttemptError::Wire(WireError::UnknownNamespace("x".into()));
        assert!(matches!(
            unknown.classify(),
            (RemoteError::Unavailable(_), false)
        ));
        let bad = AttemptError::Io(io::Error::new(io::ErrorKind::InvalidData, "d"));
        assert!(matches!(
            bad.classify(),
            (RemoteError::Unavailable(_), false)
        ));
    }
}
