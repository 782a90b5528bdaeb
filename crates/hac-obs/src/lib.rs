//! `hac-obs`: std-only observability for the HAC workspace.
//!
//! Three pieces, all in-memory and allocation-frugal:
//!
//! * a metrics [`Registry`] of named counters, gauges, and log₂-bucketed
//!   latency histograms, with [`Snapshot`]s renderable as Prometheus text
//!   exposition or JSON ([`metrics`]);
//! * a structured event/span API — [`span!`] guards that record their
//!   duration on drop into a bounded ring of recent [`Event`]s
//!   ([`events`]);
//! * a slow-op log: spans exceeding a configurable threshold are copied
//!   to a dedicated ring and counted.
//!
//! It also holds the workspace's one lock policy, the poison-ignoring
//! [`sync::lock`]/[`sync::read`]/[`sync::write`] helpers.
//!
//! Most callers use the process-wide instance via [`global()`] and the
//! top-level convenience functions; tests construct private [`Obs`] or
//! [`Registry`] values to avoid cross-test interference.

pub mod events;
pub mod http;
pub mod metrics;
pub mod slo;
pub mod sync;
pub mod timeseries;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use events::{Event, EventRing, SpanGuard};
pub use http::{ObsServer, ObsServerConfig};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSample, MetricId,
    Registry, Sample, Snapshot, HISTOGRAM_BUCKETS,
};
pub use slo::{Alert, Objective, SloEngine, SloSpec, SloState};
pub use timeseries::{
    sample_if_due, sample_now, sampler_running, start_sampler, GaugeWindow, TimeSeries,
    DEFAULT_SAMPLE_INTERVAL_MS,
};
pub use trace::{
    assemble, continue_trace, current as current_trace, set_tracing_enabled, tracing_enabled,
    ContextGuard, SpanNode, TraceContext, TraceTree,
};

/// Default capacity of the recent-events ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;
/// Default capacity of the slow-op log.
pub const DEFAULT_SLOW_OP_CAPACITY: usize = 128;
/// Default slow-op threshold in microseconds (100 ms).
pub const DEFAULT_SLOW_OP_THRESHOLD_US: u64 = 100_000;

/// One observability domain: a metrics registry, the recent-events ring,
/// and the slow-op log, sharing a common epoch for event timestamps.
pub struct Obs {
    registry: Registry,
    events: EventRing,
    slow_ops: EventRing,
    slow_op_threshold_us: AtomicU64,
    epoch: Instant,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// Creates an empty domain with default ring capacities and threshold.
    pub fn new() -> Self {
        let registry = Registry::new();
        // Register the overflow counters eagerly so they appear (at 0) in
        // every snapshot, not only after the first drop.
        let events_dropped = registry.counter("hac_events_dropped_total", &[("ring", "events")]);
        let slow_dropped = registry.counter("hac_events_dropped_total", &[("ring", "slow")]);
        Obs {
            registry,
            events: EventRing::with_drop_counter(DEFAULT_EVENT_CAPACITY, events_dropped),
            slow_ops: EventRing::with_drop_counter(DEFAULT_SLOW_OP_CAPACITY, slow_dropped),
            slow_op_threshold_us: AtomicU64::new(DEFAULT_SLOW_OP_THRESHOLD_US),
            epoch: Instant::now(),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The recent-events ring.
    pub fn events_ring(&self) -> &EventRing {
        &self.events
    }

    /// The slow-op log.
    pub fn slow_ops_ring(&self) -> &EventRing {
        &self.slow_ops
    }

    /// Microseconds since this domain was created.
    pub fn uptime_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Current slow-op threshold in microseconds.
    pub fn slow_op_threshold_micros(&self) -> u64 {
        self.slow_op_threshold_us.load(Ordering::Relaxed)
    }

    /// Sets the slow-op threshold; spans at least this slow are logged.
    pub fn set_slow_op_threshold_micros(&self, micros: u64) {
        self.slow_op_threshold_us.store(micros, Ordering::Relaxed);
    }

    /// Opens a span in this domain (most callers use the [`span!`] macro).
    pub fn span(&self, name: &'static str, fields: Vec<(String, String)>) -> SpanGuard<'_> {
        SpanGuard::enter(self, name, fields)
    }

    /// Records an instant (duration-less) event. When the thread carries a
    /// trace context the event joins that trace as a child of the current
    /// span.
    pub fn event(&self, name: &str, fields: Vec<(String, String)>) {
        let ctx = trace::current();
        self.events.push(Event {
            name: name.to_string(),
            fields,
            at_micros: self.uptime_micros(),
            duration_micros: None,
            trace_id: ctx.map(|c| c.trace_id),
            span_id: None,
            parent_span_id: ctx.map(|c| c.span_id),
        });
    }
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// The process-wide observability domain.
pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(Obs::new)
}

/// Counter handle from the global registry.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Counter {
    global().registry().counter(name, labels)
}

/// Gauge handle from the global registry.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Gauge {
    global().registry().gauge(name, labels)
}

/// Histogram handle from the global registry.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Histogram {
    global().registry().histogram(name, labels)
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().registry().snapshot()
}

/// Prometheus text exposition of the global registry.
pub fn prometheus() -> String {
    snapshot().to_prometheus()
}

/// Recent events from the global ring, oldest first.
pub fn recent_events() -> Vec<Event> {
    global().events_ring().snapshot()
}

/// Slow operations from the global log, oldest first.
pub fn slow_ops() -> Vec<Event> {
    global().slow_ops_ring().snapshot()
}

/// Sets the global slow-op threshold in microseconds.
pub fn set_slow_op_threshold_micros(micros: u64) {
    global().set_slow_op_threshold_micros(micros)
}

/// Last-seen totals per mirrored fleet counter, so repeated scrapes add
/// only the delta (mirrored counters stay monotonic).
static FLEET_LAST: OnceLock<Mutex<std::collections::HashMap<MetricId, u64>>> = OnceLock::new();

/// Mirrors a peer's scraped metric snapshot into the *global* registry
/// under fleet names, feeding the sampler/SLO machinery with fleet-level
/// series:
///
/// * every counter `hac_x_total{…}` becomes
///   `hac_fleet_hac_x_total{…,node="<node>"}`, advanced by the delta
///   since the previous scrape of the same peer (absolute peer totals
///   would double-count on every scrape);
/// * every gauge becomes `hac_fleet_<name>{…,node}` set to the peer's
///   value;
/// * histograms are not mirrored (percentiles do not merge across
///   processes; fleet latency objectives read per-node series instead).
///
/// Because the mirrors live in the ordinary global registry, the PR-7
/// sampler windows them like any local metric, so burn-rate SLOs can be
/// declared over fleet-level rates (`hac_fleet_hac_net_errors_total
/// rate < 10/s over 60s`). Peer metrics already carrying the
/// `hac_fleet_` prefix are skipped: a peer that scrapes its own fleet
/// must not cascade mirrors of mirrors.
pub fn absorb_fleet(node: &str, snap: &Snapshot) {
    let last = FLEET_LAST.get_or_init(Default::default);
    let reg = global().registry();
    for s in &snap.counters {
        if s.id.name.starts_with("hac_fleet_") {
            continue;
        }
        let mut id = s.id.clone();
        id.name = format!("hac_fleet_{}", id.name);
        id.labels.push(("node".to_string(), node.to_string()));
        id.labels.sort();
        let value = s.value.max(0) as u64;
        let mut seen = sync::lock(last);
        let prev = seen.insert(id.clone(), value).unwrap_or(0);
        drop(seen);
        let labels: Vec<(&str, &str)> = id
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        // A peer restart resets its totals; treat a shrinking counter as
        // a fresh baseline instead of a negative delta.
        reg.counter(&id.name, &labels)
            .add(value.saturating_sub(prev));
    }
    for s in &snap.gauges {
        if s.id.name.starts_with("hac_fleet_") {
            continue;
        }
        let mut id = s.id.clone();
        id.name = format!("hac_fleet_{}", id.name);
        id.labels.push(("node".to_string(), node.to_string()));
        id.labels.sort();
        let labels: Vec<(&str, &str)> = id
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        reg.gauge(&id.name, &labels).set(s.value as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn concurrent_counter_and_histogram_updates_land_exactly() {
        let reg = Arc::new(Registry::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    let c = reg.counter("t_ops_total", &[]);
                    let h = reg.histogram("t_latency_us", &[]);
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record((t as u64) * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.counter_value("t_ops_total", &[]), Some(total));
        assert_eq!(snap.histogram_count("t_latency_us", &[]), Some(total));
        // Sum of 0..total recorded exactly once each.
        let h = &snap.histograms[0];
        assert_eq!(h.sum, total * (total - 1) / 2);
        assert_eq!(h.buckets.iter().sum::<u64>(), total);
    }

    #[test]
    fn histogram_bucket_boundaries_at_powers_of_two() {
        // Bucket 0 holds {0, 1}; bucket k holds (2^(k-1), 2^k].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        for k in 1..63usize {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p), k, "2^{k} must land in bucket {k}");
            assert_eq!(
                bucket_index(p + 1),
                k + 1,
                "2^{k}+1 spills to bucket {}",
                k + 1
            );
            // 2^k - 1 stays inside (2^(k-1), 2^k] — still bucket k.
            assert_eq!(bucket_index(p - 1), if k == 1 { 0 } else { k });
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), Some(1));
        assert_eq!(bucket_upper_bound(3), Some(8));
        assert_eq!(bucket_upper_bound(64), None);

        let reg = Registry::new();
        let h = reg.histogram("t_pow2", &[]);
        h.record(8);
        h.record(9);
        let b = h.buckets();
        assert_eq!(b[3], 1); // 8 ∈ (4, 8]
        assert_eq!(b[4], 1); // 9 ∈ (8, 16]
    }

    fn instant(name: &str, at: u64) -> Event {
        Event {
            name: name.to_string(),
            fields: vec![],
            at_micros: at,
            duration_micros: None,
            trace_id: None,
            span_id: None,
            parent_span_id: None,
        }
    }

    #[test]
    fn event_ring_drops_oldest_first_and_counts_drops() {
        let reg = Registry::new();
        let dropped = reg.counter("t_dropped_total", &[("ring", "events")]);
        let ring = EventRing::with_drop_counter(3, dropped.clone());
        for i in 0..5 {
            ring.push(instant(&format!("e{i}"), i));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 3);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(dropped.get(), 2);
    }

    #[test]
    fn obs_surfaces_drop_counters_in_snapshot() {
        let obs = Obs::new();
        let snap = obs.registry().snapshot();
        // Registered eagerly: present at zero before any overflow.
        assert_eq!(
            snap.counter_value("hac_events_dropped_total", &[("ring", "events")]),
            Some(0)
        );
        assert_eq!(
            snap.counter_value("hac_events_dropped_total", &[("ring", "slow")]),
            Some(0)
        );
        for i in 0..(DEFAULT_EVENT_CAPACITY as u64 + 7) {
            obs.event("flood", vec![("i".into(), i.to_string())]);
        }
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.counter_value("hac_events_dropped_total", &[("ring", "events")]),
            Some(7)
        );
    }

    #[test]
    fn span_records_duration_and_slow_ops() {
        let obs = Obs::new();
        obs.set_slow_op_threshold_micros(0); // everything is "slow"
        {
            let mut span = obs.span("t_span", vec![("k".into(), "v".into())]);
            span.field("extra", 7);
        }
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.histogram_count("hac_span_duration_us", &[("span", "t_span")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("hac_slow_ops_total", &[("span", "t_span")]),
            Some(1)
        );
        let slow = obs.slow_ops_ring().snapshot();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, "t_span");
        assert!(slow[0].duration_micros.is_some());
        assert!(slow[0].render().contains("extra=7"));
        assert_eq!(obs.events_ring().len(), 1);

        // Raise the threshold: fast spans stay out of the slow-op log.
        obs.set_slow_op_threshold_micros(u64::MAX);
        drop(obs.span("t_fast", vec![]));
        assert_eq!(obs.slow_ops_ring().len(), 1);
        assert_eq!(obs.events_ring().len(), 2);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("t_reqs_total", &[("ns", "web")]).add(3);
        reg.gauge("t_depth", &[]).set(-2);
        let h = reg.histogram("t_lat_us", &[]);
        h.record(1);
        h.record(5);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("t_reqs_total{ns=\"web\"} 3"));
        assert!(text.contains("t_depth -2"));
        assert!(text.contains("t_lat_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("t_lat_us_bucket{le=\"8\"} 2"));
        assert!(text.contains("t_lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("t_lat_us_sum 6"));
        assert!(text.contains("t_lat_us_count 2"));
        // Every TYPE line is preceded by a HELP line for the same name.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {name} ")),
                    "TYPE without preceding HELP for {name}: {:?}",
                    lines.get(i.saturating_sub(1))
                );
            }
        }
        // One TYPE line per metric name, preceding its samples.
        assert!(text.contains("# TYPE t_reqs_total counter"));
        assert!(text.contains("# TYPE t_depth gauge"));
        assert!(text.contains("# TYPE t_lat_us histogram"));
        assert_eq!(text.matches("# TYPE t_lat_us histogram").count(), 1);
        // Every sample line parses as `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (id, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(value.parse::<i64>().is_ok(), "bad value in {line:?}");
            assert!(!id.is_empty());
        }
    }

    #[test]
    fn prometheus_escapes_pathological_label_values() {
        let reg = Registry::new();
        // A semdir path an adversarial user could create: backslashes,
        // quotes, and an embedded newline.
        let path = "/sem/a\\b\"c\nd";
        reg.counter("t_semdir_total", &[("dir", path)]).inc();
        let text = reg.snapshot().to_prometheus();
        assert!(
            text.contains("t_semdir_total{dir=\"/sem/a\\\\b\\\"c\\nd\"} 1"),
            "escaped label missing in {text:?}"
        );
        // No raw newline may survive inside a sample line.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.rsplit_once(' ').is_some(), "split line: {line:?}");
            let (id, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<i64>().is_ok(), "bad value in {line:?}");
            assert!(!id.is_empty());
        }
    }

    #[test]
    fn json_snapshot_shape() {
        let reg = Registry::new();
        reg.counter("t_c", &[("a", "b")]).inc();
        reg.histogram("t_h", &[]).record(4);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(
            json.contains("\"counters\":[{\"name\":\"t_c\",\"labels\":{\"a\":\"b\"},\"value\":1}]")
        );
        assert!(json.contains("\"histograms\":[{\"name\":\"t_h\",\"labels\":{},\"count\":1,\"sum\":4,\"buckets\":[{\"le\":4,\"count\":1}]}]"));
    }

    #[test]
    fn spans_inherit_trace_context_and_leave_exemplars() {
        let obs = Obs::new();
        obs.set_slow_op_threshold_micros(u64::MAX);
        let root_ctx;
        {
            let root = obs.span("t_troot", vec![]);
            root_ctx = root.context().expect("tracing on by default");
            assert_eq!(current_trace(), Some(root_ctx));
            {
                let child = obs.span("t_tchild", vec![]);
                let child_ctx = child.context().unwrap();
                assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
                assert_ne!(child_ctx.span_id, root_ctx.span_id);
                assert_eq!(current_trace(), Some(child_ctx));
            }
            assert_eq!(current_trace(), Some(root_ctx), "child restored parent");
        }
        assert_eq!(current_trace(), None, "root restored empty context");

        let events = obs.events_ring().snapshot();
        assert_eq!(events.len(), 2, "child recorded before root");
        let (child_ev, root_ev) = (&events[0], &events[1]);
        assert_eq!(root_ev.name, "t_troot");
        assert_eq!(root_ev.trace_id, Some(root_ctx.trace_id));
        assert_eq!(root_ev.parent_span_id, None);
        assert_eq!(child_ev.trace_id, Some(root_ctx.trace_id));
        assert_eq!(child_ev.parent_span_id, root_ev.span_id);

        // The ring assembles back into a nested tree.
        let tree = assemble(&events, root_ctx.trace_id);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].event.name, "t_troot");
        assert_eq!(tree.roots[0].children[0].event.name, "t_tchild");

        // The duration histograms kept the trace id as a bucket exemplar.
        let snap = obs.registry().snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.id.render().contains("t_tchild"))
            .expect("child duration histogram");
        assert!(
            h.exemplars.contains(&root_ctx.trace_id),
            "exemplar links histogram to trace"
        );
        assert!(snap.to_json().contains(&format!(
            "\"trace\":\"{}\"",
            trace::format_id(root_ctx.trace_id)
        )));
    }

    #[test]
    fn global_registry_is_shared() {
        counter("t_global_shared_total", &[]).add(2);
        let snap = snapshot();
        assert!(snap.counter_value("t_global_shared_total", &[]).unwrap() >= 2);
        let _ = prometheus();
    }

    #[test]
    fn snapshot_codec_roundtrips_and_rejects_corruption() {
        let reg = Registry::new();
        reg.counter("t_codec_total", &[("ns", "lib"), ("shard", "0")])
            .add(42);
        reg.gauge("t_codec_depth", &[]).set(-7);
        let h = reg.histogram("t_codec_us", &[("op", "search")]);
        h.record(3);
        h.record(900);
        reg.set_help("t_codec_total", "codec test counter");
        let snap = reg.snapshot();

        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).expect("roundtrip");
        assert_eq!(back.to_prometheus(), snap.to_prometheus());
        assert_eq!(
            back.counter_value("t_codec_total", &[("ns", "lib"), ("shard", "0")]),
            Some(42)
        );
        assert_eq!(back.gauge_value("t_codec_depth", &[]), Some(-7));
        assert_eq!(
            back.histogram_count("t_codec_us", &[("op", "search")]),
            Some(2)
        );
        assert_eq!(
            back.help.get("t_codec_total").map(String::as_str),
            Some("codec test counter")
        );

        // An empty snapshot also roundtrips.
        let empty = Snapshot::decode(&Snapshot::default().encode()).unwrap();
        assert!(empty.counters.is_empty() && empty.gauges.is_empty());

        // Every truncation is rejected, as are bad magic/version/trailing.
        for n in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..n]).is_err(), "truncated at {n}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(Snapshot::decode(&bad).unwrap_err().contains("magic"));
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(Snapshot::decode(&bad).unwrap_err().contains("version"));
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(Snapshot::decode(&bad).unwrap_err().contains("trailing"));
    }

    #[test]
    fn relabeled_absorb_merge_keeps_exposition_invariants() {
        let a = Registry::new();
        a.counter("t_merge_total", &[("ns", "lib")]).add(1);
        a.histogram("t_merge_us", &[]).record(5);
        let b = Registry::new();
        b.counter("t_merge_total", &[("ns", "lib")]).add(2);
        b.gauge("t_merge_depth", &[]).set(9);

        let mut merged = a.snapshot().relabeled("node", "a:1");
        merged.absorb(b.snapshot().relabeled("node", "b:2"));
        let text = merged.to_prometheus();
        assert!(
            text.contains("t_merge_total{node=\"a:1\",ns=\"lib\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("t_merge_total{node=\"b:2\",ns=\"lib\"} 2"),
            "{text}"
        );
        assert!(text.contains("t_merge_depth{node=\"b:2\"} 9"), "{text}");
        assert!(text.contains("t_merge_us_count{node=\"a:1\"} 1"), "{text}");
        // The sorted-by-id invariant holds after absorb: one TYPE line
        // per metric name even with samples from two nodes.
        assert_eq!(text.matches("# TYPE t_merge_total counter").count(), 1);
    }

    #[test]
    fn absorb_fleet_mirrors_deltas_and_skips_fleet_prefixed_series() {
        let peer = Registry::new();
        peer.counter("t_absorb_src_total", &[("ns", "lib")]).add(5);
        peer.gauge("t_absorb_lag", &[]).set(3);
        peer.counter("hac_fleet_t_no_cascade_total", &[]).inc();
        absorb_fleet("n1:70", &peer.snapshot());
        let snap = snapshot();
        assert_eq!(
            snap.counter_value(
                "hac_fleet_t_absorb_src_total",
                &[("node", "n1:70"), ("ns", "lib")]
            ),
            Some(5)
        );
        assert_eq!(
            snap.gauge_value("hac_fleet_t_absorb_lag", &[("node", "n1:70")]),
            Some(3)
        );
        assert_eq!(
            snap.counter_value(
                "hac_fleet_hac_fleet_t_no_cascade_total",
                &[("node", "n1:70")]
            ),
            None,
            "fleet mirrors must not cascade"
        );

        // A second scrape adds only the delta; a shrinking total (peer
        // restart) is a fresh baseline, not a negative delta.
        peer.counter("t_absorb_src_total", &[("ns", "lib")]).add(2);
        absorb_fleet("n1:70", &peer.snapshot());
        let grown = Registry::new();
        grown.counter("t_absorb_src_total", &[("ns", "lib")]).add(1); // "restarted" peer
        absorb_fleet("n1:70", &grown.snapshot());
        assert_eq!(
            snapshot().counter_value(
                "hac_fleet_t_absorb_src_total",
                &[("node", "n1:70"), ("ns", "lib")]
            ),
            Some(7)
        );
    }
}
