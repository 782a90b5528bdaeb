//! `HacServer`: exports [`RemoteQuerySystem`] backends over TCP.
//!
//! Architecture: a single readiness-driven event loop (a [`polling`]
//! reactor over nonblocking sockets) owns every connection. Each
//! connection is a small state machine — an incremental
//! [`FrameDecoder`](crate::wire::FrameDecoder) assembling HACN frames
//! from whatever chunks the kernel delivers, and a write buffer that
//! batches every response completed in one readiness cycle into a
//! single flush. Query/index work runs on a small CPU worker pool off
//! the loop; completions post back through the poller's wakeup channel,
//! so a slow search never blocks the other ten thousand sockets.
//! Pipelined bursts fan out across the workers and may complete out of
//! order — the wire's request ids make that legal. A per-namespace cost
//! model (EWMA of measured dispatch time) lets *proven-cheap* requests
//! run on the loop thread instead — no handoff, no wakeup — with
//! eligibility revoked by a single over-budget sample; unknown backends
//! always start on the workers.
//!
//! Lifecycle hardening: an idle timeout reaps silent connections, a
//! mid-frame read deadline sheds slow-loris peers (a frame that started
//! must finish within `read_timeout`), a write-stall deadline drops
//! peers that stop draining responses, per-connection pipelining is
//! capped by pausing reads (backpressure, not disconnection), and
//! shutdown drains gracefully — in-flight requests finish and flush
//! before sockets close.
//!
//! Metrics: the per-request/connection families from the blocking era
//! (`hac_net_server_requests_total{op}` …) plus event-loop telemetry:
//! `hac_net_server_wakeups_total`, `hac_net_server_ready_events_total`,
//! `hac_net_server_frames_per_flush`, `hac_net_server_pipeline_depth`,
//! `hac_net_server_inline_total`, `hac_net_server_offloaded_total`, and
//! `hac_net_server_reaped_total{reason}`.

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
    /// Requests one connection may have in flight; past it the server
    /// pauses reading that socket (backpressure) until responses drain.
    pub max_pipeline: usize,
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
            max_pipeline: 128,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// Listener registration key (connection keys are slab indices, well
/// below this; `usize::MAX` is the poller's own wakeup key).
const LISTENER_KEY: usize = usize::MAX - 1;

/// One unit of backend work handed to the CPU pool.
struct Job {
    key: usize,
    generation: u64,
    request: Request,
}

/// A finished job's encoded response payload, routed back to the loop.
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
    pipeline_depth: hac_obs::Histogram,
    frames_per_flush: hac_obs::Histogram,
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
            pipeline_depth: hac_obs::histogram("hac_net_server_pipeline_depth", &[]),
            frames_per_flush: hac_obs::histogram("hac_net_server_frames_per_flush", &[]),
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

/// A running TCP server exporting one or more remote name spaces.
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
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // A serving process is an operational one: make sure the windowed
        // time-series layer is sampling (first starter wins; no-op later).
        hac_obs::start_sampler(Duration::from_millis(hac_obs::DEFAULT_SAMPLE_INTERVAL_MS));
        let mut map: BTreeMap<String, Arc<dyn RemoteQuerySystem>> = BTreeMap::new();
        for b in backends {
            map.entry(b.namespace().0).or_insert(b);
        }
        let backends = Arc::new(map);
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
                let backends = Arc::clone(&backends);
                std::thread::spawn(move || cpu_worker(&shared, &backends, &shutdown))
            })
            .collect();
        hac_obs::gauge("hac_net_server_workers", &[]).set(config.workers.max(1) as i64);

        let event_loop = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                EventLoop::new(listener, shared, backends, config, shutdown).run();
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

/// CPU worker: pops backend jobs, dispatches, encodes, posts the
/// completion back to the loop through the poller's wakeup channel.
fn cpu_worker(
    shared: &Shared,
    backends: &BTreeMap<String, Arc<dyn RemoteQuerySystem>>,
    shutdown: &AtomicBool,
) {
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
        let bill_to = cost_slot(&job.request.body).map(|(ns, slot)| (ns.to_string(), slot));
        let started = Instant::now();
        let response = dispatch(job.request, backends);
        shared.record_cost(
            bill_to.as_ref().map(|(ns, slot)| (ns.as_str(), *slot)),
            started.elapsed().as_micros() as u64,
        );
        let payload = wire::encode_response(&response);
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
    decoder: FrameDecoder,
    /// Framed responses awaiting the socket; one flush per readiness
    /// cycle drains every response completed in it.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Reused encode buffer for responses produced on the loop thread
    /// (inline dispatches, and protocol errors answered without a worker
    /// round trip).
    scratch: Vec<u8>,
    generation: u64,
    in_flight: usize,
    /// Peer half-closed its write side; finish pending work, then close.
    read_closed: bool,
    interest: Interest,
    last_activity: Instant,
    /// When the currently-buffered partial frame started (slow-loris
    /// deadline); `None` while between frames.
    mid_frame_since: Option<Instant>,
    /// When the write buffer last failed to drain fully.
    write_stall_since: Option<Instant>,
    /// Responses appended since the last flush (frames-per-flush metric).
    buffered_responses: usize,
}

impl Conn {
    fn append_response(&mut self, resp: &Response) {
        wire::encode_response_into(resp, &mut self.scratch);
        wire::append_frame(&mut self.write_buf, &self.scratch);
        self.buffered_responses += 1;
    }

    fn flushed(&self) -> bool {
        self.write_pos == self.write_buf.len()
    }
}

/// The reactor: owns the listener, the connection slab, and all routing
/// between sockets, the CPU pool, and completions.
struct EventLoop {
    shared: Arc<Shared>,
    /// For proven-cheap dispatches run on the loop thread itself (the
    /// cost model gates which; everything else goes to the CPU pool).
    backends: Arc<BTreeMap<String, Arc<dyn RemoteQuerySystem>>>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    /// Parallel to `conns`; bumped on every slot reuse so completions for
    /// a dead connection cannot reach its successor.
    generations: Vec<u64>,
    free: Vec<usize>,
    active: usize,
    total_in_flight: usize,
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
        backends: Arc<BTreeMap<String, Arc<dyn RemoteQuerySystem>>>,
        config: ServerConfig,
        shutdown: Arc<AtomicBool>,
    ) -> EventLoop {
        EventLoop {
            shared,
            backends,
            config,
            shutdown,
            listener: Some(listener),
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            active: 0,
            total_in_flight: 0,
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
                        write_buf: Vec::new(),
                        write_pos: 0,
                        scratch: Vec::new(),
                        generation: self.generations[key],
                        in_flight: 0,
                        read_closed: false,
                        interest: Interest::READ,
                        last_activity: Instant::now(),
                        mid_frame_since: None,
                        write_stall_since: None,
                        buffered_responses: 0,
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
                        conn.decoder.push(&chunk[..n]);
                        conn.last_activity = Instant::now();
                        if n < chunk.len() {
                            break;
                        }
                        // Socket may hold more, but cap what one connection
                        // buffers per cycle; level-triggered readiness
                        // resumes it next cycle (fairness + backpressure).
                        if conn.decoder.pending_bytes() > 256 * 1024 {
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

    /// Drains completed frames from `key`'s decoder (up to the pipeline
    /// cap) and fans the decoded requests out to the CPU pool.
    fn pump(&mut self, key: usize) {
        let max_pipeline = self.config.max_pipeline.max(1);
        let mut jobs: Vec<Job> = Vec::new();
        let mut framing_lost = false;
        {
            let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) else {
                return;
            };
            while conn.in_flight + jobs.len() < max_pipeline {
                let decoded = match conn.decoder.next_frame() {
                    Ok(Some(payload)) => wire::decode_request(payload),
                    Ok(None) => break,
                    Err(_) => {
                        framing_lost = true;
                        break;
                    }
                };
                match decoded {
                    Ok(request) => jobs.push(Job {
                        key,
                        generation: conn.generation,
                        request,
                    }),
                    Err(_) => {
                        let resp = Response::new(
                            0,
                            ResponseBody::Err(WireError::BadRequest(
                                "undecodable request".to_string(),
                            )),
                        );
                        conn.append_response(&resp);
                    }
                }
            }
            conn.mid_frame_since = if !framing_lost && conn.decoder.pending_bytes() > 0 {
                conn.mid_frame_since.or_else(|| Some(Instant::now()))
            } else {
                None
            };
        }
        if !jobs.is_empty() {
            self.metrics.pipeline_depth.record(jobs.len() as u64);
            // Proven-cheap dispatches (per the cost model) run right here
            // on the loop thread — no handoff, no wakeup, the whole
            // request served in one readiness cycle. Unknown or slow ones
            // go to the CPU pool, where they cannot stall reads, writes,
            // accepts, or deadline scans for every other connection.
            let mut offload: Vec<Job> = Vec::new();
            let mut inlined = 0u64;
            for job in jobs {
                if !self.shared.inline_eligible(&job.request.body) {
                    offload.push(job);
                    continue;
                }
                let bill_to = cost_slot(&job.request.body).map(|(ns, slot)| (ns.to_string(), slot));
                let started = Instant::now();
                let response = dispatch(job.request, &self.backends);
                self.shared.record_cost(
                    bill_to.as_ref().map(|(ns, slot)| (ns.as_str(), *slot)),
                    started.elapsed().as_micros() as u64,
                );
                if let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) {
                    conn.append_response(&response);
                }
                inlined += 1;
            }
            if inlined > 0 {
                self.metrics.inline.add(inlined);
            }
            if !offload.is_empty() {
                self.metrics.offloaded.add(offload.len() as u64);
                let n = offload.len();
                self.total_in_flight += n;
                if let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) {
                    conn.in_flight += n;
                }
                let mut q = self.shared.jobs.lock().expect("job queue poisoned");
                q.extend(offload);
                drop(q);
                if n == 1 {
                    self.shared.jobs_ready.notify_one();
                } else {
                    self.shared.jobs_ready.notify_all();
                }
            }
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

    fn apply_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut guard = self
                .shared
                .completions
                .lock()
                .expect("completion queue poisoned");
            std::mem::take(&mut *guard)
        };
        if done.is_empty() {
            return;
        }
        let mut repump: Vec<usize> = Vec::new();
        for c in done {
            if self.generations.get(c.key) != Some(&c.generation) {
                continue; // connection died while the job ran
            }
            let Some(conn) = self.conns.get_mut(c.key).and_then(Option::as_mut) else {
                continue;
            };
            wire::append_frame(&mut conn.write_buf, &c.payload);
            conn.buffered_responses += 1;
            conn.in_flight -= 1;
            self.total_in_flight -= 1;
            // Frames that were decoded-but-capped (pipeline backpressure)
            // can proceed now that a slot freed up.
            if conn.decoder.pending_bytes() > 0 {
                repump.push(c.key);
            }
            self.dirty.push(c.key);
        }
        for key in repump {
            self.pump(key);
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
            if conn.buffered_responses > 0 {
                self.metrics
                    .frames_per_flush
                    .record(conn.buffered_responses as u64);
                conn.buffered_responses = 0;
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
        let max_pipeline = self.config.max_pipeline.max(1);
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(key).and_then(Option::as_mut) else {
            return;
        };
        let want = Interest {
            readable: !draining && !conn.read_closed && conn.in_flight < max_pipeline,
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
            (conn.read_closed || self.draining) && conn.in_flight == 0 && conn.flushed()
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
            } else if conn.in_flight == 0
                && conn.flushed()
                && conn.decoder.pending_bytes() == 0
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
        let _ = self.shared.poller.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.generations[key] += 1;
        self.free.push(key);
        self.active -= 1;
        self.total_in_flight -= conn.in_flight;
        self.metrics.active.add(-1);
        if let Some(reason) = reaped {
            hac_obs::counter("hac_net_server_reaped_total", &[("reason", reason)]).inc();
        }
    }
}

fn dispatch(request: Request, backends: &BTreeMap<String, Arc<dyn RemoteQuerySystem>>) -> Response {
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
    use std::collections::BTreeSet;

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
    fn pipelined_requests_are_all_answered_with_matching_ids() {
        let server = HacServer::serve(
            "127.0.0.1:0",
            vec![Arc::new(Fixed)],
            ServerConfig::default(),
        )
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Send three requests before reading any response. Completions may
        // arrive out of order (the ids exist precisely so that is legal).
        for id in [100u64, 101, 102] {
            let bytes = wire::encode_request(&Request {
                id,
                trace: None,
                body: RequestBody::Capabilities,
            });
            wire::write_frame(&mut conn, &bytes).unwrap();
        }
        let mut got = BTreeSet::new();
        for _ in 0..3 {
            let payload = wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
            let resp = wire::decode_response(&payload).unwrap();
            assert!(matches!(resp.body, ResponseBody::Capabilities { .. }));
            got.insert(resp.id);
        }
        assert_eq!(got, BTreeSet::from([100, 101, 102]));
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
