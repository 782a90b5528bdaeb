//! The metrics registry: named counters, gauges, and log₂-bucketed
//! histograms, all updated through lock-free atomic handles.
//!
//! Metrics are identified by `(name, sorted label pairs)`. Handle lookup
//! takes a short registry lock; the handles themselves are `Arc`-backed
//! atomics, so the hot path (incrementing inside query evaluation or a
//! reindex pass) never blocks.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of histogram buckets: bucket 0 holds values ≤ 1, bucket `k`
/// (1 ≤ k < 64) holds values in `(2^(k-1), 2^k]`, bucket 64 is the
/// overflow for values above `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value (log₂ bucketing; boundaries are
/// powers of two and each power of two lands in the bucket it bounds).
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        (64 - (value - 1).leading_zeros()) as usize
    }
}

/// Inclusive upper bound of a bucket, or `None` for the overflow bucket.
pub fn bucket_upper_bound(index: usize) -> Option<u64> {
    if index >= 64 {
        None
    } else {
        Some(1u64 << index)
    }
}

/// Monotonic counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge handle (a settable signed value).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

pub(crate) struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    // Last trace id observed per bucket (0 = none): the exemplar linking a
    // latency outlier back to its span tree.
    exemplars: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Log₂-bucketed histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation. When the recording thread carries a trace
    /// context, the trace id is kept as the bucket's exemplar.
    pub fn record(&self, value: u64) {
        let idx = bucket_index(value);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        if let Some(ctx) = crate::trace::current() {
            self.0.exemplars[idx].store(ctx.trace_id, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) observation counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }

    /// Per-bucket last-seen trace-id exemplars (0 = none recorded).
    pub fn exemplars(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.exemplars[i].load(Ordering::Relaxed))
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Fully-qualified metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Metric name (`hac_*` by convention here).
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders `name{k="v",…}` (bare name when label-free).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }
}

fn escape_label(v: &str) -> String {
    // Prometheus text exposition: label values escape backslash, quote,
    // and newline (a raw newline would split the sample line in two).
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    // `# HELP` text escapes backslash and newline only (no quotes).
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Curated `# HELP` text for the workspace's metric families.
const CURATED_HELP: &[(&str, &str)] = &[
    ("hac_ssync_passes_total", "Reindex (ssync) passes completed"),
    ("hac_ssync_duration_us", "Wall time of one ssync pass"),
    (
        "hac_reindex_passes_total",
        "Reindex daemon passes by outcome",
    ),
    (
        "hac_reindex_backoff_ms",
        "Current daemon failure backoff delay",
    ),
    (
        "hac_reindex_dirty_docs",
        "Documents queued for retokenization",
    ),
    ("hac_query_evals_total", "Semantic query evaluations"),
    (
        "hac_query_eval_duration_us",
        "Latency of one semantic query evaluation",
    ),
    (
        "hac_query_results",
        "Result-set cardinality per query evaluation",
    ),
    (
        "hac_net_requests_total",
        "Client requests sent over the HACN wire",
    ),
    (
        "hac_net_request_duration_us",
        "Client-observed request latency",
    ),
    (
        "hac_net_errors_total",
        "Client requests that ended in an error",
    ),
    ("hac_net_retries_total", "Client request retries"),
    (
        "hac_net_server_requests_total",
        "Requests served, by operation",
    ),
    (
        "hac_net_server_request_duration_us",
        "Server-side request service time",
    ),
    (
        "hac_net_server_errors_total",
        "Served requests that returned an error",
    ),
    (
        "hac_net_server_rejected_total",
        "Connections rejected at accept past max_connections",
    ),
    ("hac_net_server_wakeups_total", "Event-loop poller wakeups"),
    (
        "hac_net_server_ready_events_total",
        "Readiness events delivered per poller wakeup",
    ),
    (
        "hac_net_server_pipeline_depth",
        "In-flight pipelined requests per connection",
    ),
    (
        "hac_net_server_frames_per_flush",
        "Response frames batched into one socket flush",
    ),
    (
        "hac_net_server_inline_total",
        "Requests served on the event-loop thread (cost model)",
    ),
    (
        "hac_net_server_offloaded_total",
        "Requests dispatched to the CPU worker pool",
    ),
    (
        "hac_net_server_reaped_total",
        "Connections reaped, by reason (idle, slow-read, write-stall)",
    ),
    (
        "hac_net_server_workers",
        "CPU worker threads serving offloaded requests",
    ),
    (
        "hac_net_stray_responses_total",
        "Pipelined responses with no waiting caller",
    ),
    ("hac_store_commit_us", "Durable index store commit latency"),
    (
        "hac_store_segments_live",
        "Live segments in the durable index store",
    ),
    (
        "hac_slo_breaches_total",
        "Objective transitions into the breach state",
    ),
    ("hac_slo_state", "Objective state (0 ok, 1 warn, 2 breach)"),
    (
        "hac_slo_evals_total",
        "Objective evaluations by the sampler",
    ),
    ("hac_ts_samples_total", "Time-series sampler ticks"),
    (
        "hac_ts_sample_duration_us",
        "Cost of one time-series sampling tick",
    ),
    ("hac_ts_sampler_interval_ms", "Configured sampling interval"),
    (
        "hac_obs_http_shed_total",
        "Observability HTTP requests shed (503) at the full queue",
    ),
    (
        "hac_obs_http_requests_total",
        "Observability HTTP requests by endpoint",
    ),
    (
        "hac_events_dropped_total",
        "Events evicted from a full ring",
    ),
    (
        "hac_slow_ops_total",
        "Spans exceeding the slow-op threshold",
    ),
    ("hac_span_duration_us", "Span durations by span name"),
    (
        "hac_fed_scatter_total",
        "Federated fan-outs started by the coordinator",
    ),
    (
        "hac_fed_scatter_micros",
        "Wall time of one federated fan-out (scatter to gather)",
    ),
    (
        "hac_fed_failover_total",
        "Shard answers served by a replica after the primary failed",
    ),
    (
        "hac_fed_shard_errors_total",
        "Shard answers that ended in an error (after failover)",
    ),
    (
        "hac_fed_shard_timeouts_total",
        "Shards that missed the fan-out deadline budget",
    ),
    (
        "hac_fed_partial_total",
        "Fan-outs degraded to an explicitly partial result",
    ),
    (
        "hac_fed_segments_shipped_total",
        "Index segments fetched and replayed by replicas",
    ),
    (
        "hac_fed_replica_manifest_seq",
        "Manifest revision a replica has applied",
    ),
    (
        "hac_fed_replica_lag_segments",
        "Segments behind the primary's manifest at sync start",
    ),
    (
        "hac_fed_replica_lag_us",
        "Wall-clock lag behind the primary's last commit stamp",
    ),
    (
        "hac_fed_shard_health",
        "Shard health band from consecutive failures (0 up, 1 degraded, 2 down)",
    ),
    (
        "hac_fleet_scrape_total",
        "Fleet metric scrapes (peer registries pulled)",
    ),
    (
        "hac_fleet_scrape_errors_total",
        "Peer registries that failed to answer a fleet scrape",
    ),
    (
        "hac_fleet_scrape_partial",
        "Whether the last fleet scrape was missing peers (0/1)",
    ),
    (
        "hac_fleet_peer_up",
        "Per-peer reachability at the last fleet scrape (0/1)",
    ),
    ("hac_fleet_stitch_total", "Cross-node trace stitches served"),
    (
        "hac_fleet_stitch_partial_total",
        "Trace stitches missing at least one peer's spans",
    ),
    (
        "hac_fleet_stitch_us",
        "Wall time of one cross-node trace stitch",
    ),
];

/// `# HELP` text for a metric name: an explicitly registered string, the
/// curated table, or readable text derived from the name itself — every
/// `# TYPE` line is guaranteed a preceding `# HELP` line.
pub fn help_for(name: &str, registered: Option<&str>) -> String {
    if let Some(h) = registered {
        return h.to_string();
    }
    if let Some((_, h)) = CURATED_HELP.iter().find(|(n, _)| *n == name) {
        return (*h).to_string();
    }
    // Derived fallback: strip conventional prefixes/suffixes into prose.
    let mut words = name.trim_start_matches("hac_").replace('_', " ");
    let suffix = if let Some(w) = words.strip_suffix(" total") {
        words = w.to_string();
        " (cumulative count)"
    } else if let Some(w) = words.strip_suffix(" us") {
        words = w.to_string();
        " in microseconds"
    } else if let Some(w) = words.strip_suffix(" ms") {
        words = w.to_string();
        " in milliseconds"
    } else {
        ""
    };
    format!("{words}{suffix}")
}

/// One counter/gauge sample in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric identity.
    pub id: MetricId,
    /// Sampled value.
    pub value: i128,
}

/// One histogram in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Metric identity.
    pub id: MetricId,
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: u64,
    /// Per-bucket (non-cumulative) counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Per-bucket last-seen trace-id exemplars (0 = none).
    pub exemplars: [u64; HISTOGRAM_BUCKETS],
}

/// Point-in-time copy of every registered metric, sorted by identity.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter samples.
    pub counters: Vec<Sample>,
    /// Gauge samples.
    pub gauges: Vec<Sample>,
    /// Histogram samples.
    pub histograms: Vec<HistogramSample>,
    /// Explicitly registered per-name help strings
    /// (see [`Registry::set_help`]).
    pub help: BTreeMap<String, String>,
}

impl Snapshot {
    /// Value of a counter, if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let id = MetricId::new(name, labels);
        self.counters
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.value as u64)
    }

    /// Value of a gauge, if present.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let id = MetricId::new(name, labels);
        self.gauges
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.value as i64)
    }

    /// Observation count of a histogram, if present.
    pub fn histogram_count(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let id = MetricId::new(name, labels);
        self.histograms.iter().find(|s| s.id == id).map(|s| s.count)
    }

    /// Sum of a counter over every label combination it was recorded with.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.id.name == name)
            .map(|s| s.value as u64)
            .sum()
    }

    /// Renders Prometheus text exposition: one `# HELP` + `# TYPE` comment
    /// pair per metric name followed by its `name{label="…"} value`
    /// samples; histograms as cumulative `_bucket`/`_sum`/`_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed = String::new();
        let help = &self.help;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            // Samples are sorted by id, so every label set of one name is
            // contiguous and gets a single HELP+TYPE pair.
            if typed != name {
                let text = help_for(name, help.get(name).map(String::as_str));
                out.push_str(&format!("# HELP {name} {}\n", escape_help(&text)));
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                typed = name.to_string();
            }
        };
        for s in &self.counters {
            type_line(&mut out, &s.id.name, "counter");
            out.push_str(&format!("{} {}\n", s.id.render(), s.value));
        }
        for s in &self.gauges {
            type_line(&mut out, &s.id.name, "gauge");
            out.push_str(&format!("{} {}\n", s.id.render(), s.value));
        }
        for h in &self.histograms {
            type_line(&mut out, &h.id.name, "histogram");
            let mut cumulative = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                cumulative += b;
                // Skip empty tail buckets, but always emit +Inf below.
                if *b == 0 && !(cumulative > 0 && i == 0) {
                    continue;
                }
                let le = match bucket_upper_bound(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                let mut id = h.id.clone();
                id.name = format!("{}_bucket", id.name);
                id.labels.push(("le".to_string(), le));
                out.push_str(&format!("{} {}\n", id.render(), cumulative));
            }
            let mut inf = h.id.clone();
            inf.name = format!("{}_bucket", inf.name);
            inf.labels.push(("le".to_string(), "+Inf".to_string()));
            out.push_str(&format!("{} {}\n", inf.render(), h.count));
            let mut sum_id = h.id.clone();
            sum_id.name = format!("{}_sum", sum_id.name);
            out.push_str(&format!("{} {}\n", sum_id.render(), h.sum));
            let mut count_id = h.id.clone();
            count_id.name = format!("{}_count", count_id.name);
            out.push_str(&format!("{} {}\n", count_id.render(), h.count));
        }
        out
    }

    /// Renders the snapshot as a JSON object (hand-rolled: this crate is
    /// deliberately dependency-light).
    pub fn to_json(&self) -> String {
        fn jstr(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn labels_json(labels: &[(String, String)]) -> String {
            let inner: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{}:{}", jstr(k), jstr(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        let mut parts: Vec<String> = Vec::new();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                    jstr(&s.id.name),
                    labels_json(&s.id.labels),
                    s.value
                )
            })
            .collect();
        parts.push(format!("\"counters\":[{}]", counters.join(",")));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                    jstr(&s.id.name),
                    labels_json(&s.id.labels),
                    s.value
                )
            })
            .collect();
        parts.push(format!("\"gauges\":[{}]", gauges.join(",")));
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(i, c)| {
                        let le = match bucket_upper_bound(i) {
                            Some(b) => format!("{b}"),
                            None => "\"+Inf\"".to_string(),
                        };
                        if h.exemplars[i] != 0 {
                            format!(
                                "{{\"le\":{le},\"count\":{c},\"trace\":\"{}\"}}",
                                crate::trace::format_id(h.exemplars[i])
                            )
                        } else {
                            format!("{{\"le\":{le},\"count\":{c}}}")
                        }
                    })
                    .collect();
                format!(
                    "{{\"name\":{},\"labels\":{},\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                    jstr(&h.id.name),
                    labels_json(&h.id.labels),
                    h.count,
                    h.sum,
                    buckets.join(",")
                )
            })
            .collect();
        parts.push(format!("\"histograms\":[{}]", histograms.join(",")));
        format!("{{{}}}", parts.join(","))
    }
}

/// Snapshot wire magic (wire `Metrics` payloads). `HACR`, for *registry*:
/// `HACS` is `hac-core`'s on-disk segment magic, and no two formats may
/// share one.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HACR";
/// Current snapshot wire format version.
pub const SNAPSHOT_VERSION: u8 = 1;

impl Snapshot {
    /// Serializes the snapshot into the versioned binary layout the
    /// wire `Metrics` op ships between nodes: counters, gauges, and
    /// histograms (with exemplars), plus registered help text. The
    /// layout follows the shard map's idiom — magic and version up
    /// front, strict arity, loud failures.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.counters.len() * 48);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        let put_id = |out: &mut Vec<u8>, id: &MetricId| {
            put_str(out, &id.name);
            out.extend_from_slice(&(id.labels.len() as u32).to_le_bytes());
            for (k, v) in &id.labels {
                put_str(out, k);
                put_str(out, v);
            }
        };
        for samples in [&self.counters, &self.gauges] {
            out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
            for s in samples.iter() {
                put_id(&mut out, &s.id);
                out.extend_from_slice(&s.value.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for h in &self.histograms {
            put_id(&mut out, &h.id);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            for b in &h.buckets {
                out.extend_from_slice(&b.to_le_bytes());
            }
            for e in &h.exemplars {
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.help.len() as u32).to_le_bytes());
        for (k, v) in &self.help {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out
    }

    /// Decodes a snapshot encoded by [`Snapshot::encode`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation found.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, String> {
        let mut cur = bytes;
        let mut take = |n: usize, what: &str| -> Result<&[u8], String> {
            if cur.len() < n {
                return Err(format!("metric snapshot truncated at {what}"));
            }
            let (head, tail) = cur.split_at(n);
            cur = tail;
            Ok(head)
        };
        if take(4, "magic")? != SNAPSHOT_MAGIC {
            return Err("bad metric snapshot magic".to_string());
        }
        let version = take(1, "version")?[0];
        if version != SNAPSHOT_VERSION {
            return Err(format!("unsupported metric snapshot version {version}"));
        }
        let u32_of =
            |b: &[u8]| -> usize { u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize };
        let u64_of = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
        macro_rules! string {
            ($what:expr) => {{
                let len = u32_of(take(4, $what)?);
                let raw = take(len, $what)?;
                String::from_utf8(raw.to_vec()).map_err(|_| format!("{} not utf-8", $what))?
            }};
        }
        macro_rules! id {
            () => {{
                let name = string!("metric name");
                let label_count = u32_of(take(4, "label count")?);
                let mut labels = Vec::with_capacity(label_count.min(16));
                for _ in 0..label_count {
                    let k = string!("label key");
                    let v = string!("label value");
                    labels.push((k, v));
                }
                MetricId { name, labels }
            }};
        }
        let mut snap = Snapshot::default();
        for kind in ["counter", "gauge"] {
            let count = u32_of(take(4, kind)?);
            let samples = if kind == "counter" {
                &mut snap.counters
            } else {
                &mut snap.gauges
            };
            for _ in 0..count {
                let id = id!();
                let value = i128::from_le_bytes(take(16, "sample value")?.try_into().unwrap());
                samples.push(Sample { id, value });
            }
        }
        let hist_count = u32_of(take(4, "histogram count")?);
        for _ in 0..hist_count {
            let id = id!();
            let count = u64_of(take(8, "histogram count field")?);
            let sum = u64_of(take(8, "histogram sum")?);
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for b in &mut buckets {
                *b = u64_of(take(8, "bucket")?);
            }
            let mut exemplars = [0u64; HISTOGRAM_BUCKETS];
            for e in &mut exemplars {
                *e = u64_of(take(8, "exemplar")?);
            }
            snap.histograms.push(HistogramSample {
                id,
                count,
                sum,
                buckets,
                exemplars,
            });
        }
        let help_count = u32_of(take(4, "help count")?);
        for _ in 0..help_count {
            let k = string!("help name");
            let v = string!("help text");
            snap.help.insert(k, v);
        }
        if !cur.is_empty() {
            return Err("trailing bytes after metric snapshot".to_string());
        }
        Ok(snap)
    }

    /// Returns the snapshot with `key="value"` added to every sample's
    /// label set — how a fleet merge tags each node's registry before
    /// unioning them (`node="host:port"`). Samples already carrying the
    /// key are left alone: a mirrored peer series
    /// (`hac_fleet_…{node="peer"}`) keeps naming its origin rather than
    /// the node that happens to re-export it.
    pub fn relabeled(mut self, key: &str, value: &str) -> Snapshot {
        let relabel = |id: &mut MetricId| {
            if id.labels.iter().any(|(k, _)| k == key) {
                return;
            }
            id.labels.push((key.to_string(), value.to_string()));
            id.labels.sort();
        };
        for s in self.counters.iter_mut().chain(self.gauges.iter_mut()) {
            relabel(&mut s.id);
        }
        for h in self.histograms.iter_mut() {
            relabel(&mut h.id);
        }
        self
    }

    /// Unions another snapshot into this one and restores the sorted-by-id
    /// invariant [`Snapshot::to_prometheus`] depends on (every label set
    /// of one name contiguous). Callers tag each side with a
    /// distinguishing label ([`Snapshot::relabeled`]) first. Ids can
    /// still collide when a peer shares this process's registry (an
    /// in-process `fed follow` replica re-exports the coordinator's own
    /// already-`node`-labeled scrape markers); exact duplicates keep the
    /// first copy — `self`'s, the freshest — so the exposition never
    /// emits one series twice.
    pub fn absorb(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        for (k, v) in other.help {
            self.help.entry(k).or_insert(v);
        }
        // Stable sorts: within an id, self's samples stay ahead of
        // absorbed ones, so dedup keeps self's value.
        self.counters.sort_by(|a, b| a.id.cmp(&b.id));
        self.counters.dedup_by(|a, b| a.id == b.id);
        self.gauges.sort_by(|a, b| a.id.cmp(&b.id));
        self.gauges.dedup_by(|a, b| a.id == b.id);
        self.histograms.sort_by(|a, b| a.id.cmp(&b.id));
        self.histograms.dedup_by(|a, b| a.id == b.id);
    }
}

/// A registry of named metrics.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricId, Metric>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) a counter.
    ///
    /// # Panics
    ///
    /// If the same name+labels is already registered as another metric
    /// type — a programming error in the instrumentation.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Returns (registering on first use) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Returns (registering on first use) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Histogram(Histogram(Arc::new(HistogramInner::new()))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or replaces) the `# HELP` text of a metric name.
    /// Unregistered names fall back to curated/derived text — every
    /// exposed metric always has a HELP line.
    pub fn set_help(&self, name: &str, help: &str) {
        self.help.lock().insert(name.to_string(), help.to_string());
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock();
        let mut snap = Snapshot {
            help: self.help.lock().clone(),
            ..Snapshot::default()
        };
        for (id, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push(Sample {
                    id: id.clone(),
                    value: c.get() as i128,
                }),
                Metric::Gauge(g) => snap.gauges.push(Sample {
                    id: id.clone(),
                    value: g.get() as i128,
                }),
                Metric::Histogram(h) => snap.histograms.push(HistogramSample {
                    id: id.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.buckets(),
                    exemplars: h.exemplars(),
                }),
            }
        }
        snap
    }
}
