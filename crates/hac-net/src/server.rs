//! `HacServer`: exports [`RemoteQuerySystem`] backends over TCP, and
//! serves the observability endpoints over HTTP.
//!
//! Architecture: a single readiness-driven event loop (a [`polling`]
//! reactor over nonblocking sockets) owns every connection. Each
//! connection is a small state machine — an incremental
//! [`FrameDecoder`](crate::wire::FrameDecoder) assembling HACN frames
//! from whatever chunks the kernel delivers, and a write buffer flushed
//! at the end of each readiness cycle. A connection has at most one
//! request in flight: a frame the peer sent early waits in the decoder
//! and is served, in order, once the response before it is queued.
//! Query/index work runs on a small CPU worker pool off the loop;
//! completions post back through the poller's wakeup channel, so a slow
//! search never blocks the other ten thousand sockets. A per-namespace
//! cost model (EWMA of measured dispatch time) lets *proven-cheap*
//! requests run on the loop thread instead — no handoff, no wakeup — with
//! eligibility revoked by a single over-budget sample; unknown backends
//! always start on the workers.
//!
//! [`HacServer::serve_obs`] runs the same loop for the observability
//! endpoints: each connection carries one HTTP/1.1 request head, routed
//! by [`hac_obs::http::respond`] on a CPU worker, answered, and closed.
//!
//! Lifecycle hardening: an idle timeout reaps silent connections, a
//! mid-frame read deadline sheds slow-loris peers (a frame that started
//! must finish within `read_timeout`), a write-stall deadline drops
//! peers that stop draining responses, reads pause while a request is on
//! the CPU pool (backpressure, not disconnection), and shutdown drains
//! gracefully — in-flight requests finish and flush before sockets close.
//!
//! Every loop wakeup also pulls the time series forward
//! ([`hac_obs::sample_if_due`]), so a serving process samples without a
//! thread of its own.
//!
//! Metrics: the per-request/connection families from the blocking era
//! (`hac_net_server_requests_total{op}` …) plus event-loop telemetry:
//! `hac_net_server_wakeups_total`, `hac_net_server_ready_events_total`,
//! `hac_net_server_inline_total`, `hac_net_server_offloaded_total`, and
//! `hac_net_server_reaped_total{reason}`. They are process-wide, so they
//! count obs connections too.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hac_core::RemoteQuerySystem;
use polling::{Event, Interest, Poller};

use crate::wire::{
    self, FrameDecoder, Request, RequestBody, Response, ResponseBody, WireError, PROTOCOL_VERSION,
};

/// Tuning for a [`HacServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// CPU worker threads executing query/index work off the event loop
    /// (socket I/O no longer consumes workers; one loop thread serves
    /// every connection).
    pub workers: usize,
    /// Open connections held at once; beyond this, new connections are
    /// rejected at accept time.
    pub max_connections: usize,
    /// Deadline for finishing a frame once its first byte arrived — the
    /// slow-loris shed policy.
    pub read_timeout: Duration,
    /// Deadline for a stalled response write (peer stops draining), and
    /// the graceful-drain budget at shutdown.
    pub write_timeout: Duration,
    /// Connections with no traffic for this long are reaped.
    pub idle_timeout: Duration,
    /// Ceiling on one frame's payload.
    pub max_frame_len: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_connections: 1024,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// Listener registration key (connection keys are slab indices, well
/// below this; `usize::MAX` is the poller's own wakeup key).
const LISTENER_KEY: usize = usize::MAX - 1;

type Backends = BTreeMap<String, Arc<dyn RemoteQuerySystem>>;

/// What a server's connections speak, and what answers them.
enum Service {
    /// HACN frames, answered by the exported backends.
    Hacn(Arc<Backends>),
    /// One HTTP/1.1 request head per connection, answered by the obs
    /// routes.
    Obs(Arc<hac_obs::http::Routes>),
}

/// One unit of work handed to the CPU pool: it returns the payload of
/// the connection's response.
struct Job {
    key: usize,
    generation: u64,
    run: Box<dyn FnOnce() -> Vec<u8> + Send>,
}

/// A finished job's response payload, routed back to the loop.
struct Completion {
    key: usize,
    generation: u64,
    payload: Vec<u8>,
}

/// State shared between the loop thread, CPU workers, and the handle.
struct Shared {
    poller: Poller,
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Measured dispatch cost per namespace (`[search, fetch]` EWMAs in
    /// µs; 0 = no sample yet) — the loop's inline-vs-offload oracle.
    costs: Mutex<HashMap<String, [u64; 2]>>,
}

/// Ceiling under which a proven-cheap dispatch may run on the loop
/// thread itself. Two orders of magnitude below every reaping deadline,
/// so even a full pipeline of inline requests cannot starve the loop.
const INLINE_BUDGET_US: u64 = 250;

impl Shared {
    /// Whether `body` may run on the loop thread. Protocol ops (ping,
    /// capabilities) are O(1) and always eligible; search/fetch become
    /// eligible only after their measured cost for that namespace settles
    /// below [`INLINE_BUDGET_US`] — unknown backends start on the worker
    /// pool, where a slow call costs nobody else anything.
    fn inline_eligible(&self, body: &RequestBody) -> bool {
        let Some((ns, slot)) = cost_slot(body) else {
            return true;
        };
        let costs = self.costs.lock().expect("cost model poisoned");
        costs.get(ns).is_some_and(|c| {
            let ewma = c[slot];
            ewma != 0 && ewma < INLINE_BUDGET_US
        })
    }

    /// Feeds one measured dispatch into the cost model. A sample at or
    /// over budget replaces the average outright — one slow call revokes
    /// inline eligibility immediately — while cheap samples converge
    /// gently (¾ history, ¼ sample).
    fn record_cost(&self, key: Option<(&str, usize)>, us: u64) {
        let Some((ns, slot)) = key else { return };
        let mut costs = self.costs.lock().expect("cost model poisoned");
        let entry = match costs.get_mut(ns) {
            Some(entry) => entry,
            None => costs.entry(ns.to_string()).or_insert([0, 0]),
        };
        let sample = us.max(1);
        entry[slot] = if entry[slot] == 0 || sample >= INLINE_BUDGET_US {
            sample
        } else {
            (3 * entry[slot] + sample) / 4
        };
    }

    /// Dispatches `request` and feeds its measured cost into the model.
    fn serve(&self, request: Request, backends: &Backends) -> Response {
        let bill_to = cost_slot(&request.body).map(|(ns, slot)| (ns.to_string(), slot));
        let started = Instant::now();
        let response = dispatch(request, backends);
        self.record_cost(
            bill_to.as_ref().map(|(ns, slot)| (ns.as_str(), *slot)),
            started.elapsed().as_micros() as u64,
        );
        response
    }

    /// Queues `job` for the CPU pool and wakes one worker.
    fn offload(&self, job: Job) {
        self.jobs.lock().expect("job queue poisoned").push_back(job);
        self.jobs_ready.notify_one();
    }
}

/// The cost-model slot a request body bills to: `(namespace, 0)` for
/// search, `(namespace, 1)` for fetch-shaped ops, `None` for protocol
/// ops. Replication object pulls share the fetch slot — both are "read
/// one blob for this namespace" ops with the same backing-store cost
/// profile — while `Manifest`/`ShardMap` are small in-memory encodes,
/// cheap and bounded like `Capabilities`.
fn cost_slot(body: &RequestBody) -> Option<(&str, usize)> {
    match body {
        RequestBody::Search { ns, .. } => Some((ns, 0)),
        RequestBody::Fetch { ns, .. } => Some((ns, 1)),
        RequestBody::Object { ns, .. } => Some((ns, 1)),
        RequestBody::Ping { .. }
        | RequestBody::Capabilities
        | RequestBody::Manifest { .. }
        | RequestBody::ShardMap { .. }
        | RequestBody::TraceSpans { .. }
        | RequestBody::Metrics { .. } => None,
    }
}

/// Event-loop metric handles, resolved once at loop start. A registry
/// lookup allocates a `MetricId` and takes the process-wide registry
/// lock — fine per connection, far too heavy per readiness cycle at
/// tens of thousands of requests a second.
struct LoopMetrics {
    wakeups: hac_obs::Counter,
    ready_events: hac_obs::Counter,
    connections: hac_obs::Counter,
    rejected: hac_obs::Counter,
    active: hac_obs::Gauge,
    bytes_read: hac_obs::Counter,
    bytes_written: hac_obs::Counter,
    inline: hac_obs::Counter,
    offloaded: hac_obs::Counter,
}

impl LoopMetrics {
    fn new() -> LoopMetrics {
        LoopMetrics {
            wakeups: hac_obs::counter("hac_net_server_wakeups_total", &[]),
            ready_events: hac_obs::counter("hac_net_server_ready_events_total", &[]),
            connections: hac_obs::counter("hac_net_server_connections_total", &[]),
            rejected: hac_obs::counter("hac_net_server_rejected_total", &[]),
            active: hac_obs::gauge("hac_net_server_active_connections", &[]),
            bytes_read: hac_obs::counter("hac_net_server_bytes_read_total", &[]),
            bytes_written: hac_obs::counter("hac_net_server_bytes_written_total", &[]),
            inline: hac_obs::counter("hac_net_server_inline_total", &[]),
            offloaded: hac_obs::counter("hac_net_server_offloaded_total", &[]),
        }
    }
}

/// Per-op dispatch metric handles, resolved once per process (dispatch
/// runs on the loop thread and on every CPU worker).
struct OpStats {
    requests: hac_obs::Counter,
    duration: hac_obs::Histogram,
    errors: hac_obs::Counter,
}

fn op_stats(op: &str) -> &'static OpStats {
    static STATS: OnceLock<[OpStats; 9]> = OnceLock::new();
    let all = STATS.get_or_init(|| {
        [
            "ping",
            "capabilities",
            "search",
            "fetch",
            "manifest",
            "object",
            "shard_map",
            "trace_spans",
            "metrics",
        ]
        .map(|op| OpStats {
            requests: hac_obs::counter("hac_net_server_requests_total", &[("op", op)]),
            duration: hac_obs::histogram("hac_net_server_request_duration_us", &[("op", op)]),
            errors: hac_obs::counter("hac_net_server_errors_total", &[("op", op)]),
        })
    });
    match op {
        "ping" => &all[0],
        "capabilities" => &all[1],
        "search" => &all[2],
        "manifest" => &all[4],
        "object" => &all[5],
        "shard_map" => &all[6],
        "trace_spans" => &all[7],
        "metrics" => &all[8],
        _ => &all[3],
    }
}

/// Operational counters surfaced by [`HacServer::loop_stats`].
#[derive(Debug, Clone, Copy)]
pub struct LoopStats {
    /// CPU worker threads serving offloaded requests.
    pub workers: usize,
    /// Currently open connections.
    pub active_connections: i64,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Connections rejected at accept past `max_connections`.
    pub rejected_total: u64,
    /// Poller wakeups taken by the event loop.
    pub wakeups_total: u64,
    /// Requests served inline on the loop thread.
    pub inline_total: u64,
    /// Requests dispatched to the CPU worker pool.
    pub offloaded_total: u64,
}

/// A running TCP server: the HACN protocol over exported name spaces
/// ([`serve`](Self::serve)), or the observability endpoints over HTTP
/// ([`serve_obs`](Self::serve_obs)).
pub struct HacServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HacServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `backends`.
    /// Each backend is exported under its own
    /// [`namespace`](RemoteQuerySystem::namespace); registering two
    /// backends with the same namespace id keeps the first.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the poller.
    pub fn serve(
        addr: impl ToSocketAddrs,
        backends: Vec<Arc<dyn RemoteQuerySystem>>,
        config: ServerConfig,
    ) -> io::Result<HacServer> {
        let mut map = Backends::new();
        for b in backends {
            map.entry(b.namespace().0).or_insert(b);
        }
        let server = HacServer::start(addr, Service::Hacn(Arc::new(map)), config)?;
        hac_obs::gauge("hac_net_server_workers", &[]).set(server.workers.len() as i64);
        Ok(server)
    }

    /// Binds `addr` and serves the observability endpoints of
    /// [`hac_obs::http`] on the same event loop. Each connection carries
    /// one HTTP/1.1 request head (one over 8 KiB gets a `400`); its route
    /// runs on a CPU worker, never inline, because `/trace/<id>` and
    /// `/fleet/*` block on peer fetches; the server writes the response,
    /// then closes the connection. The read, write-stall and idle
    /// deadlines and the `max_connections` reject-at-accept apply as they
    /// do to HACN connections.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the poller.
    pub fn serve_obs(
        addr: impl ToSocketAddrs,
        routes: hac_obs::http::Routes,
        config: ServerConfig,
    ) -> io::Result<HacServer> {
        HacServer::start(addr, Service::Obs(Arc::new(routes)), config)
    }

    fn start(
        addr: impl ToSocketAddrs,
        service: Service,
        config: ServerConfig,
    ) -> io::Result<HacServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            poller: Poller::new()?,
            jobs: Mutex::new(VecDeque::new()),
            jobs_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            costs: Mutex::new(HashMap::new()),
        });
        shared
            .poller
            .add(listener.as_raw_fd(), LISTENER_KEY, Interest::READ)?;

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || cpu_worker(&shared, &shutdown))
            })
            .collect();

        let event_loop = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                EventLoop::new(listener, shared, service, config, shutdown).run();
            })
        };

        Ok(HacServer {
            addr,
            shutdown,
            shared,
            event_loop: Some(event_loop),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time snapshot of the event loop's operational counters,
    /// for `serve status`-style views. The counters are process-global
    /// registry metrics, so two servers in one process share them.
    pub fn loop_stats(&self) -> LoopStats {
        LoopStats {
            workers: self.workers.len(),
            active_connections: hac_obs::gauge("hac_net_server_active_connections", &[]).get(),
            connections_total: hac_obs::counter("hac_net_server_connections_total", &[]).get(),
            rejected_total: hac_obs::counter("hac_net_server_rejected_total", &[]).get(),
            wakeups_total: hac_obs::counter("hac_net_server_wakeups_total", &[]).get(),
            inline_total: hac_obs::counter("hac_net_server_inline_total", &[]).get(),
            offloaded_total: hac_obs::counter("hac_net_server_offloaded_total", &[]).get(),
        }
    }

    /// Stops accepting, lets in-flight requests finish and flush, joins
    /// every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.poller.notify();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        self.shared.jobs_ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HacServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// CPU worker: pops jobs, runs them, posts each completion back to the
/// loop through the poller's wakeup channel.
fn cpu_worker(shared: &Shared, shutdown: &AtomicBool) {
    loop {
        let job = {
            let mut q = shared.jobs.lock().expect("job queue poisoned");
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = shared
                    .jobs_ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("job queue poisoned");
                q = guard;
            }
        };
        let Some(job) = job else { return };
        let payload = (job.run)();
        shared
            .completions
            .lock()
            .expect("completion queue poisoned")
            .push(Completion {
                key: job.key,
                generation: job.generation,
                payload,
            });
        shared.poller.notify();
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// HACN frames as they assemble.
    decoder: FrameDecoder,
    /// The HTTP request head as it assembles (obs connections).
    head: Vec<u8>,
    /// Framed responses awaiting the socket, flushed at the end of each
    /// readiness cycle.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Reused encode buffer for responses produced on the loop thread
    /// (inline dispatches, and protocol errors answered without a worker
    /// round trip).
    scratch: Vec<u8>,
    generation: u64,
    /// A request is on the CPU pool. Reads pause, and later frames wait
    /// in the decoder, until its response is queued.
    in_flight: bool,
    /// Peer half-closed its write side; finish pending work, then close.
    read_closed: bool,
    /// The obs response is queued. Further input is discarded; once the
    /// response is flushed the server half-closes and waits for the
    /// peer's EOF, because closing with unread input resets the
    /// connection and can destroy the response in transit.
    answered: bool,
    interest: Interest,
    last_activity: Instant,
    /// When the currently-buffered partial frame started (slow-loris
    /// deadline); `None` while between frames or while a request is in
    /// flight.
    mid_frame_since: Option<Instant>,
    /// When the write buffer last failed to drain fully.
    write_stall_since: Option<Instant>,
}

impl Conn {
    fn append_response(&mut self, resp: &Response) {
        wire::encode_response_into(resp, &mut self.scratch);
        wire::append_frame(&mut self.write_buf, &self.scratch);
    }

    fn flushed(&self) -> bool {
        self.write_pos == self.write_buf.len()
    }

    /// Request bytes buffered but not yet dispatched.
    fn pending_bytes(&self) -> usize {
        self.decoder.pending_bytes() + self.head.len()
    }

    /// Starts, keeps or stops the slow-loris clock: it runs only while no
    /// request is in flight and a partial request sits in the buffer, so
    /// bytes the server holds back never count against the peer.
    fn update_read_clock(&mut self) {
        self.mid_frame_since = if !self.in_flight && self.pending_bytes() > 0 {
            self.mid_frame_since.or_else(|| Some(Instant::now()))
        } else {
            None
        };
    }
}

/// The reactor: owns the listener, the connection slab, and all routing
/// between sockets, the CPU pool, and completions.
struct EventLoop {
    shared: Arc<Shared>,
    service: Service,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    /// Parallel to `conns`; bumped on every slot reuse so completions for
    /// a dead connection cannot reach its successor.
    generations: Vec<u64>,
    free: Vec<usize>,
    active: usize,
    /// Connections touched this cycle, flushed together at its end.
    dirty: Vec<usize>,
    draining: bool,
    drain_deadline: Option<Instant>,
    metrics: LoopMetrics,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        service: Service,
        config: ServerConfig,
        shutdown: Arc<AtomicBool>,
    ) -> EventLoop {
        EventLoop {
            shared,
            service,
            config,
            shutdown,
            listener: Some(listener),
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            active: 0,
            dirty: Vec::new(),
            draining: false,
            drain_deadline: None,
            metrics: LoopMetrics::new(),
        }
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut chunk = vec![0u8; 16 * 1024];
        let mut last_scan = Instant::now();
        let scan_every = self.config.read_timeout.min(Duration::from_millis(100));
        loop {
            let timeout = if self.draining {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(50)
            };
            if self.shared.poller.wait(&mut events, Some(timeout)).is_err() {
                // A broken poller is unrecoverable; drain and bail.
                self.shutdown.store(true, Ordering::Release);
            }
            self.metrics.wakeups.inc();
            if !events.is_empty() {
                self.metrics.ready_events.add(events.len() as u64);
            }
            if self.shutdown.load(Ordering::Acquire) && !self.draining {
                self.begin_drain();
            }
            self.apply_completions();
            let taken = std::mem::take(&mut events);
            for ev in &taken {
                if ev.key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    if ev.readable {
                        self.conn_readable(ev.key, &mut chunk);
                    }
                    if ev.writable {
                        self.dirty.push(ev.key);
                    }
                }
            }
            events = taken;
            self.flush_dirty();
            // The loop wakes at least every 50 ms: it is the serving
            // process's time-series clock.
            hac_obs::sample_if_due();
            if last_scan.elapsed() >= scan_every {
                self.scan_deadlines();
                last_scan = Instant::now();
            }
            if self.draining {
                let expired = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if self.active == 0 || expired {
                    self.force_close_all();
                    return;
                }
            }
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.config.write_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.shared.poller.delete(listener.as_raw_fd());
        }
        // Idle connections close immediately; busy ones finish and flush.
        for key in 0..self.conns.len() {
            if self.conns[key].is_some() {
                self.dirty.push(key);
            }
        }
    }

    fn force_close_all(&mut self) {
        for key in 0..self.conns.len() {
            if self.conns[key].is_some() {
                self.close(key, None);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.metrics.connections.inc();
                    if self.active >= self.config.max_connections.max(1) {
                        // Stream dropped: the peer sees a reset instead of
                        // an unbounded connection table.
                        self.metrics.rejected.inc();
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = match self.free.pop() {
                        Some(k) => k,
                        None => {
                            self.conns.push(None);
                            self.generations.push(0);
                            self.conns.len() - 1
                        }
                    };
                    if self
                        .shared
                        .poller
                        .add(stream.as_raw_fd(), key, Interest::READ)
                        .is_err()
                    {
                        self.free.push(key);
                        continue;
                    }
                    self.conns[key] = Some(Conn {
                        stream,
                        decoder: FrameDecoder::new(self.config.max_frame_len),
                        head: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        scratch: Vec::new(),
                        generation: self.generations[key],
                        in_flight: false,
                        read_closed: false,
                        answered: false,
                        interest: Interest::READ,
                        last_activity: Instant::now(),
                        mid_frame_since: None,
                        write_stall_since: None,
                    });
                    self.active += 1;
                    self.metrics.active.add(1);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_readable(&mut self, key: usize, chunk: &mut [u8]) {
        let obs = matches!(self.service, Service::Obs(_));
        let mut failed = false;
        {
            let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) else {
                return;
            };
            loop {
                match conn.stream.read(chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        self.metrics.bytes_read.add(n as u64);
                        // An answered obs connection reads only to reach
                        // the peer's EOF, and goes idle if it keeps sending.
                        if !conn.answered {
                            if obs {
                                conn.head.extend_from_slice(&chunk[..n]);
                            } else {
                                conn.decoder.push(&chunk[..n]);
                            }
                            conn.last_activity = Instant::now();
                        }
                        if n < chunk.len() {
                            break;
                        }
                        // Socket may hold more, but cap what one connection
                        // buffers per cycle; level-triggered readiness
                        // resumes it next cycle (fairness + backpressure).
                        if conn.pending_bytes() > 256 * 1024 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close(key, None);
            return;
        }
        self.pump(key);
    }

    /// Dispatches what `key` has buffered, up to its one request in
    /// flight.
    fn pump(&mut self, key: usize) {
        match &self.service {
            Service::Hacn(_) => self.pump_frames(key),
            Service::Obs(_) => self.pump_head(key),
        }
    }

    /// Serves `key`'s complete frames in order: proven-cheap requests
    /// (per the cost model) run right here on the loop thread — no
    /// handoff, no wakeup — and the first one that is not goes to the CPU
    /// pool, where it cannot stall reads, writes, accepts, or deadline
    /// scans for every other connection. Frames behind it wait.
    fn pump_frames(&mut self, key: usize) {
        let Service::Hacn(backends) = &self.service else {
            return;
        };
        let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) else {
            return;
        };
        let mut framing_lost = false;
        let mut inlined = 0u64;
        while !conn.in_flight {
            let decoded = match conn.decoder.next_frame() {
                Ok(Some(payload)) => wire::decode_request(payload),
                Ok(None) => break,
                Err(_) => {
                    framing_lost = true;
                    break;
                }
            };
            let Ok(request) = decoded else {
                let resp = Response::new(
                    0,
                    ResponseBody::Err(WireError::BadRequest("undecodable request".to_string())),
                );
                conn.append_response(&resp);
                continue;
            };
            if self.shared.inline_eligible(&request.body) {
                conn.append_response(&self.shared.serve(request, backends));
                inlined += 1;
            } else {
                let shared = Arc::clone(&self.shared);
                let backends = Arc::clone(backends);
                self.shared.offload(Job {
                    key,
                    generation: conn.generation,
                    run: Box::new(move || wire::encode_response(&shared.serve(request, &backends))),
                });
                self.metrics.offloaded.inc();
                conn.in_flight = true;
            }
        }
        conn.update_read_clock();
        if inlined > 0 {
            self.metrics.inline.add(inlined);
        }
        if framing_lost {
            // The stream has no recoverable frame boundary; drop the
            // connection (any responses already buffered are lost with it,
            // matching the blocking server's behavior on garbage).
            self.close(key, None);
            return;
        }
        self.dirty.push(key);
    }

    /// Hands `key`'s request head to the CPU pool once it is complete (or
    /// over the size cap, which the route answers with a `400`).
    fn pump_head(&mut self, key: usize) {
        let Service::Obs(routes) = &self.service else {
            return;
        };
        let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) else {
            return;
        };
        if !conn.in_flight && !conn.answered && hac_obs::http::head_ready(&conn.head) {
            let head = std::mem::take(&mut conn.head);
            let routes = Arc::clone(routes);
            self.shared.offload(Job {
                key,
                generation: conn.generation,
                run: Box::new(move || hac_obs::http::respond(&head, &routes)),
            });
            self.metrics.offloaded.inc();
            conn.in_flight = true;
        }
        conn.update_read_clock();
        self.dirty.push(key);
    }

    fn apply_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut guard = self
                .shared
                .completions
                .lock()
                .expect("completion queue poisoned");
            std::mem::take(&mut *guard)
        };
        for c in done {
            if self.generations.get(c.key) != Some(&c.generation) {
                continue; // connection died while the job ran
            }
            let Some(conn) = self.conns.get_mut(c.key).and_then(Option::as_mut) else {
                continue;
            };
            match self.service {
                Service::Hacn(_) => wire::append_frame(&mut conn.write_buf, &c.payload),
                Service::Obs(_) => {
                    conn.write_buf.extend_from_slice(&c.payload);
                    conn.answered = true;
                }
            }
            conn.in_flight = false;
            // A frame that waited behind this request is served now.
            self.pump(c.key);
        }
    }

    fn flush_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for key in dirty {
            self.flush(key);
            self.sync_interest(key);
            self.maybe_close(key);
        }
    }

    /// One batched write per cycle: every response buffered for this
    /// connection goes out in a single syscall (until the socket pushes
    /// back).
    fn flush(&mut self, key: usize) {
        let mut failed = false;
        {
            let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) else {
                return;
            };
            if conn.flushed() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                return;
            }
            let mut progressed = false;
            while conn.write_pos < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        progressed = true;
                        self.metrics.bytes_written.add(n as u64);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if !failed {
                if conn.flushed() {
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    conn.write_stall_since = None;
                    if conn.answered {
                        let _ = conn.stream.shutdown(Shutdown::Write);
                    }
                } else if progressed || conn.write_stall_since.is_none() {
                    conn.write_stall_since = Some(Instant::now());
                }
            }
        }
        if failed {
            self.close(key, None);
        }
    }

    fn sync_interest(&mut self, key: usize) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) else {
            return;
        };
        let want = Interest {
            readable: !draining && !conn.read_closed && !conn.in_flight,
            writable: !conn.flushed(),
        };
        if want != conn.interest
            && self
                .shared
                .poller
                .modify(conn.stream.as_raw_fd(), key, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn maybe_close(&mut self, key: usize) {
        let should = {
            let Some(conn) = self.conns.get(key).and_then(Option::as_ref) else {
                return;
            };
            (conn.read_closed || self.draining) && !conn.in_flight && conn.flushed()
        };
        if should {
            self.close(key, None);
        }
    }

    fn scan_deadlines(&mut self) {
        let now = Instant::now();
        let mut reap: Vec<(usize, &'static str)> = Vec::new();
        for (key, slot) in self.conns.iter().enumerate() {
            let Some(conn) = slot.as_ref() else { continue };
            if conn
                .mid_frame_since
                .is_some_and(|t| now.duration_since(t) > self.config.read_timeout)
            {
                reap.push((key, "slow_read"));
            } else if conn
                .write_stall_since
                .is_some_and(|t| now.duration_since(t) > self.config.write_timeout)
            {
                reap.push((key, "slow_write"));
            } else if !conn.in_flight
                && conn.flushed()
                && conn.pending_bytes() == 0
                && now.duration_since(conn.last_activity) > self.config.idle_timeout
            {
                reap.push((key, "idle"));
            }
        }
        for (key, reason) in reap {
            self.close(key, Some(reason));
        }
    }

    fn close(&mut self, key: usize, reaped: Option<&'static str>) {
        let Some(conn) = self.conns.get_mut(key).and_then(Option::take) else {
            return;
        };
        // Counted before the peer can see the close.
        if let Some(reason) = reaped {
            hac_obs::counter("hac_net_server_reaped_total", &[("reason", reason)]).inc();
        }
        let _ = self.shared.poller.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.generations[key] += 1;
        self.free.push(key);
        self.active -= 1;
        self.metrics.active.add(-1);
    }
}

fn dispatch(request: Request, backends: &Backends) -> Response {
    let op = request.body.op();
    // Continue the client's trace on this thread: the context guard
    // parents the server span (and everything the backend records) under
    // the client-side request span. Declared before the span so the span
    // drops (and records) while the context is still installed.
    let _trace_guard = request.trace.map(|ctx| hac_obs::continue_trace(ctx.into()));
    let _span = hac_obs::span!("net_server_request", op = op, id = request.id);
    let start = Instant::now();
    let body = match request.body {
        RequestBody::Ping { version } => {
            if version == PROTOCOL_VERSION {
                ResponseBody::Pong { version }
            } else {
                ResponseBody::Err(WireError::VersionMismatch {
                    server: PROTOCOL_VERSION,
                    client: version,
                })
            }
        }
        RequestBody::Capabilities => ResponseBody::Capabilities {
            version: PROTOCOL_VERSION,
            namespaces: backends.keys().cloned().collect(),
        },
        RequestBody::Search { ns, query } => match backends.get(&ns) {
            None => ResponseBody::Err(WireError::UnknownNamespace(ns)),
            Some(backend) => match backend.search(&query) {
                Ok(docs) => ResponseBody::Docs(docs),
                Err(e) => ResponseBody::Err(WireError::Remote(e)),
            },
        },
        RequestBody::Fetch { ns, doc } => match backends.get(&ns) {
            None => ResponseBody::Err(WireError::UnknownNamespace(ns)),
            Some(backend) => match backend.fetch(&doc) {
                Ok(bytes) => ResponseBody::Blob(bytes),
                Err(e) => ResponseBody::Err(WireError::Remote(e)),
            },
        },
        // The federation and fleet-observability ops all answer with
        // `Blob`/`Err`, so the response codec has no tags of their own.
        RequestBody::Manifest { ns } => match backends.get(&ns) {
            None => ResponseBody::Err(WireError::UnknownNamespace(ns)),
            Some(backend) => match backend.manifest_bytes() {
                Ok(bytes) => ResponseBody::Blob(bytes),
                Err(e) => ResponseBody::Err(WireError::Remote(e)),
            },
        },
        RequestBody::Object { ns, hash } => match backends.get(&ns) {
            None => ResponseBody::Err(WireError::UnknownNamespace(ns)),
            Some(backend) => match backend.object_bytes(&hash) {
                Ok(bytes) => ResponseBody::Blob(bytes),
                Err(e) => ResponseBody::Err(WireError::Remote(e)),
            },
        },
        RequestBody::ShardMap { ns } => match backends.get(&ns) {
            None => ResponseBody::Err(WireError::UnknownNamespace(ns)),
            Some(backend) => match backend.shard_map_bytes() {
                Ok(bytes) => ResponseBody::Blob(bytes),
                Err(e) => ResponseBody::Err(WireError::Remote(e)),
            },
        },
        RequestBody::TraceSpans { ns, trace_id } => match backends.get(&ns) {
            None => ResponseBody::Err(WireError::UnknownNamespace(ns)),
            Some(backend) => match backend.trace_spans_bytes(trace_id) {
                Ok(bytes) => ResponseBody::Blob(bytes),
                Err(e) => ResponseBody::Err(WireError::Remote(e)),
            },
        },
        RequestBody::Metrics { ns } => match backends.get(&ns) {
            None => ResponseBody::Err(WireError::UnknownNamespace(ns)),
            Some(backend) => match backend.metrics_bytes() {
                Ok(bytes) => ResponseBody::Blob(bytes),
                Err(e) => ResponseBody::Err(WireError::Remote(e)),
            },
        },
    };
    let elapsed = start.elapsed().as_micros() as u64;
    let stats = op_stats(op);
    stats.requests.inc();
    stats.duration.record(elapsed);
    if matches!(body, ResponseBody::Err(_)) {
        stats.errors.inc();
    }
    Response {
        id: request.id,
        body,
        // Timing rides back only on traced requests: the client's
        // server-time/wire-overhead split is a tracing feature.
        server_elapsed_us: request.trace.is_some().then_some(elapsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError};
    use hac_index::ContentExpr;

    struct Fixed;

    impl RemoteQuerySystem for Fixed {
        fn namespace(&self) -> NamespaceId {
            NamespaceId("fixed".to_string())
        }
        fn search(&self, _q: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
            Ok(vec![RemoteDoc {
                id: "d1".into(),
                title: "Doc".into(),
            }])
        }
        fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
            if id == "d1" {
                Ok(b"body".to_vec())
            } else {
                Err(RemoteError::NotFound(id.to_string()))
            }
        }
    }

    /// Sends one request and decodes the response.
    fn ask(conn: &mut TcpStream, req: &Request) -> Response {
        let bytes = wire::encode_request(req);
        wire::write_frame(conn, &bytes).unwrap();
        let payload = wire::read_frame(conn, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        wire::decode_response(&payload).unwrap()
    }

    fn ping() -> RequestBody {
        RequestBody::Ping {
            version: PROTOCOL_VERSION,
        }
    }

    fn pong() -> ResponseBody {
        ResponseBody::Pong {
            version: PROTOCOL_VERSION,
        }
    }

    #[test]
    fn raw_socket_request_response_cycle() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(Fixed)],
            ServerConfig::default(),
        )
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        let pong = ask(
            &mut conn,
            &Request {
                id: 7,
                trace: None,
                body: RequestBody::Ping {
                    version: PROTOCOL_VERSION,
                },
            },
        );
        assert_eq!(pong.id, 7);
        assert_eq!(
            pong.body,
            ResponseBody::Pong {
                version: PROTOCOL_VERSION
            }
        );

        let caps = ask(
            &mut conn,
            &Request {
                id: 8,
                trace: None,
                body: RequestBody::Capabilities,
            },
        );
        assert_eq!(
            caps.body,
            ResponseBody::Capabilities {
                version: PROTOCOL_VERSION,
                namespaces: vec!["fixed".to_string()],
            }
        );

        let hits = ask(
            &mut conn,
            &Request {
                id: 9,
                trace: None,
                body: RequestBody::Search {
                    ns: "fixed".into(),
                    query: ContentExpr::All,
                },
            },
        );
        assert!(matches!(hits.body, ResponseBody::Docs(d) if d.len() == 1));

        let missing = ask(
            &mut conn,
            &Request {
                id: 10,
                trace: None,
                body: RequestBody::Fetch {
                    ns: "fixed".into(),
                    doc: "nope".into(),
                },
            },
        );
        assert_eq!(
            missing.body,
            ResponseBody::Err(WireError::Remote(RemoteError::NotFound("nope".into())))
        );

        let unknown_ns = ask(
            &mut conn,
            &Request {
                id: 11,
                trace: None,
                body: RequestBody::Search {
                    ns: "zzz".into(),
                    query: ContentExpr::All,
                },
            },
        );
        assert_eq!(
            unknown_ns.body,
            ResponseBody::Err(WireError::UnknownNamespace("zzz".into()))
        );

        server.shutdown();
    }

    #[test]
    fn any_other_version_is_refused() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(Fixed)],
            ServerConfig::default(),
        )
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for (id, version) in [(1, PROTOCOL_VERSION - 1), (2, PROTOCOL_VERSION + 1), (3, 1)] {
            let resp = ask(&mut conn, &Request::new(id, RequestBody::Ping { version }));
            assert_eq!(
                resp.body,
                ResponseBody::Err(WireError::VersionMismatch {
                    server: PROTOCOL_VERSION,
                    client: version
                })
            );
        }
        // A refusal changes nothing about the connection.
        assert_eq!(ask(&mut conn, &Request::new(4, ping())).body, pong());
        server.shutdown();
    }

    #[test]
    fn garbage_bytes_do_not_kill_the_server() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(Fixed)],
            ServerConfig::default(),
        )
        .unwrap();
        {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            conn.write_all(b"this is not a frame at all").unwrap();
        } // dropped: server sees bad magic and closes
        {
            // A well-formed frame with undecodable payload gets BadRequest.
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            wire::write_frame(&mut conn, b"\xFF\xFF\xFF").unwrap();
            let payload = wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
            let resp = wire::decode_response(&payload).unwrap();
            assert_eq!(resp.id, 0);
            assert!(matches!(
                resp.body,
                ResponseBody::Err(WireError::BadRequest(_))
            ));
        }
        // Server still answers a clean client.
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let pong = ask(
            &mut conn,
            &Request {
                id: 2,
                trace: None,
                body: RequestBody::Ping {
                    version: PROTOCOL_VERSION,
                },
            },
        );
        assert_eq!(pong.id, 2);
        server.shutdown();
    }

    #[test]
    fn slow_loris_is_reaped_while_healthy_connections_are_served() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(Fixed)],
            ServerConfig {
                read_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        )
        .unwrap();

        // The attacker starts a frame and dribbles one byte at a time.
        let frame = {
            let mut buf = Vec::new();
            let payload = wire::encode_request(&Request::new(1, RequestBody::Capabilities));
            wire::write_frame(&mut buf, &payload).unwrap();
            buf
        };
        let mut loris = TcpStream::connect(server.local_addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let reaped_before =
            hac_obs::counter("hac_net_server_reaped_total", &[("reason", "slow_read")]).get();
        let mut dead = false;
        for chunk in frame.chunks(1) {
            if loris.write_all(chunk).is_err() {
                dead = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(40));
            // A healthy client stays snappy the whole time.
            let mut healthy = TcpStream::connect(server.local_addr()).unwrap();
            healthy
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(ask(&mut healthy, &Request::new(9, ping())).body, pong());
        }
        if !dead {
            // The write side may not observe the reset; the read side must.
            let mut one = [0u8; 1];
            dead = matches!(loris.read(&mut one), Ok(0) | Err(_));
        }
        assert!(dead, "slow-loris connection must be shed");
        let reaped_after =
            hac_obs::counter("hac_net_server_reaped_total", &[("reason", "slow_read")]).get();
        assert!(
            reaped_after > reaped_before,
            "shed must be recorded as a slow_read reap"
        );
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(Fixed)],
            ServerConfig {
                idle_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ask(&mut conn, &Request::new(1, ping())).body, pong());
        // Go silent; the server should hang up on its own.
        let mut one = [0u8; 1];
        let closed = matches!(conn.read(&mut one), Ok(0) | Err(_));
        assert!(closed, "idle connection must be reaped");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_refuses_new_work() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(Fixed)],
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        server.shutdown(); // must not hang
                           // After shutdown the port no longer answers the protocol.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut conn) => {
                conn.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let bytes = wire::encode_request(&Request {
                    id: 1,
                    trace: None,
                    body: RequestBody::Capabilities,
                });
                let _ = wire::write_frame(&mut conn, &bytes);
                assert!(wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN).is_err());
            }
        }
    }

    /// A backend with a durable-store and observability surface: answers
    /// the federation and fleet ops from canned bytes.
    struct FedSrc;

    impl RemoteQuerySystem for FedSrc {
        fn namespace(&self) -> NamespaceId {
            NamespaceId("fed-src".to_string())
        }
        fn search(&self, _q: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
            Ok(Vec::new())
        }
        fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
            Err(RemoteError::NotFound(id.to_string()))
        }
        fn manifest_bytes(&self) -> Result<Vec<u8>, RemoteError> {
            Ok(b"HACM-manifest-bytes".to_vec())
        }
        fn object_bytes(&self, hash: &str) -> Result<Vec<u8>, RemoteError> {
            if hash == "cafe" {
                Ok(b"segment-bytes".to_vec())
            } else {
                Err(RemoteError::NotFound(hash.to_string()))
            }
        }
        fn shard_map_bytes(&self) -> Result<Vec<u8>, RemoteError> {
            Ok(b"HACF-map-bytes".to_vec())
        }
        fn trace_spans_bytes(&self, trace_id: u64) -> Result<Vec<u8>, RemoteError> {
            Ok(format!("HACT-spans-{trace_id:016x}").into_bytes())
        }
        fn metrics_bytes(&self) -> Result<Vec<u8>, RemoteError> {
            Ok(b"HACR-snapshot-bytes".to_vec())
        }
    }

    #[test]
    fn federation_ops_dispatch_to_backend_hooks() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(FedSrc), Arc::new(Fixed)],
            ServerConfig::default(),
        )
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        let manifest = ask(
            &mut conn,
            &Request::new(
                1,
                RequestBody::Manifest {
                    ns: "fed-src".into(),
                },
            ),
        );
        assert_eq!(
            manifest.body,
            ResponseBody::Blob(b"HACM-manifest-bytes".to_vec())
        );

        let object = ask(
            &mut conn,
            &Request::new(
                2,
                RequestBody::Object {
                    ns: "fed-src".into(),
                    hash: "cafe".into(),
                },
            ),
        );
        assert_eq!(object.body, ResponseBody::Blob(b"segment-bytes".to_vec()));

        let missing = ask(
            &mut conn,
            &Request::new(
                3,
                RequestBody::Object {
                    ns: "fed-src".into(),
                    hash: "dead".into(),
                },
            ),
        );
        assert_eq!(
            missing.body,
            ResponseBody::Err(WireError::Remote(RemoteError::NotFound("dead".into())))
        );

        let map = ask(
            &mut conn,
            &Request::new(
                4,
                RequestBody::ShardMap {
                    ns: "fed-src".into(),
                },
            ),
        );
        assert_eq!(map.body, ResponseBody::Blob(b"HACF-map-bytes".to_vec()));

        // A backend without a store surface answers with the default
        // refusals, not a hang or a closed socket.
        let plain = ask(
            &mut conn,
            &Request::new(5, RequestBody::Manifest { ns: "fixed".into() }),
        );
        assert!(matches!(
            plain.body,
            ResponseBody::Err(WireError::Remote(RemoteError::UnsupportedQuery(_)))
        ));
        let no_map = ask(
            &mut conn,
            &Request::new(6, RequestBody::ShardMap { ns: "fixed".into() }),
        );
        assert!(matches!(
            no_map.body,
            ResponseBody::Err(WireError::Remote(RemoteError::NotFound(_)))
        ));
        server.shutdown();
    }

    #[test]
    fn fleet_ops_dispatch_to_backend_hooks() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(FedSrc), Arc::new(Fixed)],
            ServerConfig::default(),
        )
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        let spans = ask(
            &mut conn,
            &Request::new(
                1,
                RequestBody::TraceSpans {
                    ns: "fed-src".into(),
                    trace_id: 0xabcd,
                },
            ),
        );
        assert_eq!(
            spans.body,
            ResponseBody::Blob(b"HACT-spans-000000000000abcd".to_vec())
        );

        let metrics = ask(
            &mut conn,
            &Request::new(
                2,
                RequestBody::Metrics {
                    ns: "fed-src".into(),
                },
            ),
        );
        assert_eq!(
            metrics.body,
            ResponseBody::Blob(b"HACR-snapshot-bytes".to_vec())
        );

        // A backend without an observability surface answers with the
        // default refusals, not a hang or a closed socket.
        let no_spans = ask(
            &mut conn,
            &Request::new(
                3,
                RequestBody::TraceSpans {
                    ns: "fixed".into(),
                    trace_id: 7,
                },
            ),
        );
        assert!(matches!(
            no_spans.body,
            ResponseBody::Err(WireError::Remote(RemoteError::UnsupportedQuery(_)))
        ));
        let unknown = ask(
            &mut conn,
            &Request::new(4, RequestBody::Metrics { ns: "nope".into() }),
        );
        assert!(matches!(
            unknown.body,
            ResponseBody::Err(WireError::UnknownNamespace(_))
        ));
        server.shutdown();
    }

    /// The inline cost model's revocation path, exercised directly: cheap
    /// samples earn a namespace loop-thread eligibility, and a *single*
    /// over-budget sample revokes it immediately (no EWMA decay window a
    /// slow backend could hide inside).
    #[test]
    fn one_overbudget_sample_revokes_inline_eligibility() {
        let shared = Shared {
            poller: Poller::new().unwrap(),
            jobs: Mutex::new(VecDeque::new()),
            jobs_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            costs: Mutex::new(HashMap::new()),
        };
        let search = RequestBody::Search {
            ns: "ns".into(),
            query: ContentExpr::All,
        };

        // Unknown namespaces start on the worker pool.
        assert!(!shared.inline_eligible(&search));

        // A run of cheap samples converges the EWMA below budget.
        for _ in 0..4 {
            shared.record_cost(cost_slot(&search), 40);
        }
        assert!(shared.inline_eligible(&search));

        // One sample at the budget replaces the average outright…
        shared.record_cost(cost_slot(&search), INLINE_BUDGET_US);
        assert!(
            !shared.inline_eligible(&search),
            "a single over-budget sample must revoke inline eligibility"
        );

        // …and the EWMA is the slow sample itself, not a blend: the next
        // cheap sample alone cannot win eligibility back ((3·250+40)/4 =
        // 197 < 250 would — so verify the actual blend math from the
        // recorded value, not a guess.
        let after = shared.costs.lock().unwrap()["ns"][0];
        assert_eq!(after, INLINE_BUDGET_US);

        // Fetch and search slots are independent: the search revocation
        // leaves fetch unknown (worker pool by default).
        let fetch = RequestBody::Fetch {
            ns: "ns".into(),
            doc: "d".into(),
        };
        assert!(!shared.inline_eligible(&fetch));
        shared.record_cost(cost_slot(&fetch), 10);
        assert!(shared.inline_eligible(&fetch));
        assert!(!shared.inline_eligible(&search));
    }

    /// The same revocation observed through a live server: a namespace
    /// that turned slow stops being served on the loop thread from the
    /// very next request.
    #[test]
    fn live_server_revokes_inline_after_slow_search() {
        use std::sync::atomic::AtomicU64;

        struct Adjustable {
            delay_us: AtomicU64,
        }

        impl RemoteQuerySystem for Adjustable {
            fn namespace(&self) -> NamespaceId {
                NamespaceId("adj".to_string())
            }
            fn search(&self, _q: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
                let us = self.delay_us.load(Ordering::Relaxed);
                if us > 0 {
                    std::thread::sleep(Duration::from_micros(us));
                }
                Ok(Vec::new())
            }
            fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
                Err(RemoteError::NotFound(id.to_string()))
            }
        }

        let backend = Arc::new(Adjustable {
            delay_us: AtomicU64::new(0),
        });
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::clone(&backend) as Arc<dyn RemoteQuerySystem>],
            ServerConfig::default(),
        )
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let search = RequestBody::Search {
            ns: "adj".into(),
            query: ContentExpr::All,
        };

        // Fast searches: the first lands on the worker pool (no sample
        // yet) and seeds the model; once the EWMA settles under budget the
        // namespace is inline-eligible.
        let mut id = 1;
        for _ in 0..4 {
            let resp = ask(&mut conn, &Request::new(id, search.clone()));
            assert!(matches!(resp.body, ResponseBody::Docs(_)));
            id += 1;
        }
        assert!(
            server.shared.inline_eligible(&search),
            "cheap namespace should have earned inline eligibility"
        );

        // Turn the backend slow. The next search still runs inline (the
        // model only learns from the sample) — and that one sample must
        // push the namespace back to the worker pool.
        backend.delay_us.store(2 * 1000, Ordering::Relaxed);
        let resp = ask(&mut conn, &Request::new(id, search.clone()));
        assert!(matches!(resp.body, ResponseBody::Docs(_)));
        assert!(
            !server.shared.inline_eligible(&search),
            "one over-budget sample must move the namespace off the loop thread"
        );
        server.shutdown();
    }
}
