//! Reading the layers from outside: the spans and registry series the
//! program already emits.
//!
//! * [`Tracer`] wraps each op of a traced lane in a bench-side root span,
//!   reads the event ring after the op, assembles the op's span tree and
//!   folds every span's *self time* (its duration minus the part of that
//!   interval its child spans cover) into per-name totals.
//! * [`Registry`] is a snapshot of the metrics registry looked up by
//!   string: a renamed or removed series reads as "absent", never as a
//!   compile error.

use std::collections::BTreeMap;
use std::time::Instant;

use hac_obs::{Event, SpanNode};

use crate::stats::{median, time_us};

/// Totals of one span name over a lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans seen.
    pub count: u64,
    /// Sum of durations, µs.
    pub total_us: u64,
    /// Sum of self times, µs.
    pub self_us: u64,
}

/// Per-op tracing of a lane, in traced and untraced slices. Untraced it
/// only times.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: BTreeMap<String, SpanTotals>,
    /// `(at_micros, name, duration)` of the newest event already read.
    last_seen: Option<(u64, String, Option<u64>)>,
    collected: u64,
    dropped: u64,
    slice_ended0: u64,
    slice_collected0: u64,
    /// Scatter spans: `(scatter duration, longest shard child)` sums.
    scatter_us: u64,
    scatter_slowest_us: u64,
    ops: u64,
}

/// Identity of an event for the "already read" marker.
fn marker(e: &Event) -> (u64, String, Option<u64>) {
    (e.at_micros, e.name.clone(), e.duration_micros)
}

impl Tracer {
    /// A tracer whose lane starts untraced (the process-wide toggle is
    /// set to match); [`Tracer::slice`] switches.
    pub fn new() -> Tracer {
        hac_obs::set_tracing_enabled(false);
        Tracer::default()
    }

    /// Starts a traced or untraced slice of the lane. A traced slice
    /// reads the ring after each op; when it ends, the spans the program
    /// ended during the slice (by the registry) minus the span events
    /// the bench read is what the ring dropped unread.
    pub fn slice(&mut self, traced: bool) {
        if self.enabled {
            // Count first, read second: a span of a scatter thread that
            // ends in between is then read without having been counted,
            // never counted without a chance to be read.
            let ended = Registry::now().spans_ended() - self.slice_ended0;
            self.read_new();
            self.dropped += ended.saturating_sub(self.collected - self.slice_collected0);
        }
        self.enabled = traced;
        hac_obs::set_tracing_enabled(traced);
        if traced {
            self.last_seen = hac_obs::recent_events().last().map(marker);
            self.slice_ended0 = Registry::now().spans_ended();
            self.slice_collected0 = self.collected;
        }
    }

    /// Whether ops are traced right now.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Span-end events the ring dropped before the bench read them, over
    /// all finished traced slices.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Runs one op and returns its result and caller-side time in µs.
    /// Traced, the op runs under a root span named `name`, and the ring
    /// is read (outside the timed region) as soon as it completes.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            return time_us(f);
        }
        let t = Instant::now();
        let root = hac_obs::span!(name);
        let trace_id = root.context().map(|c| c.trace_id);
        let out = f();
        drop(root);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.ops += 1;
        if let Some(id) = trace_id {
            self.read_ring(id);
        }
        (out, us)
    }

    /// The events pushed since the last read. A marker that fell off the
    /// ring means everything in it is new (and some were lost, which
    /// `dropped` reports).
    fn read_new(&mut self) -> Vec<Event> {
        let mut events = hac_obs::recent_events();
        let fresh_from = self
            .last_seen
            .as_ref()
            .and_then(|m| events.iter().rposition(|e| &marker(e) == m))
            .map_or(0, |i| i + 1);
        events.drain(..fresh_from);
        self.collected += events
            .iter()
            .filter(|e| e.duration_micros.is_some())
            .count() as u64;
        if let Some(e) = events.last() {
            self.last_seen = Some(marker(e));
        }
        events
    }

    fn read_ring(&mut self, trace_id: u64) {
        let events = self.read_new();
        let tree = hac_obs::trace::assemble(&events, trace_id);
        for root in &tree.roots {
            self.fold(root);
        }
    }

    fn fold(&mut self, node: &SpanNode) {
        let Some(duration) = node.event.duration_micros else {
            return;
        };
        let end = node.event.at_micros;
        let start = end.saturating_sub(duration);
        // Children may overlap (scatter threads): cover = union of their
        // intervals, clipped to the parent.
        let mut kids: Vec<(u64, u64)> = node
            .children
            .iter()
            .filter_map(|c| {
                let d = c.event.duration_micros?;
                let e = c.event.at_micros.min(end);
                let s = c.event.at_micros.saturating_sub(d).max(start);
                (s < e).then_some((s, e))
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = start;
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        let t = self.spans.entry(node.event.name.clone()).or_default();
        t.count += 1;
        t.total_us += duration;
        t.self_us += duration.saturating_sub(covered);
        if node.event.name == "fed_scatter" {
            let slowest = node
                .children
                .iter()
                .filter(|c| c.event.name == "fed_shard_query")
                .filter_map(|c| c.event.duration_micros)
                .max()
                .unwrap_or(0);
            self.scatter_us += duration;
            self.scatter_slowest_us += slowest;
        }
        for child in &node.children {
            self.fold(child);
        }
    }

    /// Totals of a span name (zero when the lane never saw it).
    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Mean self time of a span name per occurrence, µs.
    pub fn self_us_per_span(&self, name: &str) -> f64 {
        let t = self.span(name);
        if t.count == 0 {
            0.0
        } else {
            t.self_us as f64 / t.count as f64
        }
    }

    /// Mean duration of a span name per occurrence, µs.
    pub fn total_us_per_span(&self, name: &str) -> f64 {
        let t = self.span(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_us as f64 / t.count as f64
        }
    }

    /// Traced ops run.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Span-end events read from the ring.
    pub fn collected(&self) -> u64 {
        self.collected
    }

    /// `(scatter self time per scatter µs, slowest shard's share)`:
    /// scatter duration minus its longest shard child, and that child as
    /// a share of the scatter.
    pub fn scatter(&self) -> (f64, f64) {
        let n = self.span("fed_scatter").count;
        if n == 0 || self.scatter_us == 0 {
            return (0.0, 0.0);
        }
        (
            self.scatter_us.saturating_sub(self.scatter_slowest_us) as f64 / n as f64,
            self.scatter_slowest_us as f64 / self.scatter_us as f64,
        )
    }

    /// The per-span profile of the lane, one line per span name, for the
    /// human-readable part of the output.
    pub fn profile(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().map(|(name, t)| {
            format!(
                "span {name:<22} n={:<6} total {:>10.1} us/span  self {:>10.1} us/span",
                t.count,
                t.total_us as f64 / t.count as f64,
                t.self_us as f64 / t.count as f64
            )
        })
    }

    /// Runs a seeded op sequence in slices of `slice_ops` indices, each
    /// slice once untraced and once traced (which goes first alternates),
    /// until `until` and for two slices at least: the two busy times then
    /// compare the same ops. `op(tracer, index)` runs one op and returns
    /// its µs. Returns `[untraced, traced]` busy time, µs.
    pub fn replay_slices(
        &mut self,
        slice_ops: usize,
        until: Instant,
        mut op: impl FnMut(&mut Tracer, usize) -> f64,
    ) -> [f64; 2] {
        let mut busy = [0.0; 2];
        let mut slice = 0;
        while slice < 2 || Instant::now() < until {
            for pass in 0..2 {
                let traced = (slice + pass) % 2 == 1;
                self.slice(traced);
                for i in slice * slice_ops..(slice + 1) * slice_ops {
                    busy[usize::from(traced)] += op(self, i);
                }
            }
            slice += 1;
        }
        self.slice(false);
        busy
    }
}

/// Tracing overhead in percent from `[untraced, traced]` busy time.
pub fn overhead_pct(busy: [f64; 2]) -> f64 {
    (busy[1] / busy[0] - 1.0) * 100.0
}

/// Median cost of one registry snapshot, µs.
pub fn snapshot_us() -> f64 {
    let us: Vec<f64> = (0..20)
        .map(|_| time_us(|| std::hint::black_box(hac_obs::snapshot())).1)
        .collect();
    median(&us)
}

/// A point-in-time copy of the metrics registry, addressed by string.
pub struct Registry(hac_obs::Snapshot);

impl Registry {
    /// Snapshots the process-global registry.
    pub fn now() -> Registry {
        Registry(hac_obs::snapshot())
    }

    /// Sum of a counter over its label sets (those carrying
    /// `label=value`, when given). A series that does not exist reads 0,
    /// like a layer that did no work.
    pub fn counter_where(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        self.0
            .counters
            .iter()
            .filter(|s| s.id.name == name)
            .filter(|s| {
                label.is_none_or(|(k, v)| s.id.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| s.value as u64)
            .sum()
    }

    /// Sum of a counter over all its label sets.
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_where(name, None)
    }

    /// How much a counter grew since `earlier`.
    pub fn delta(&self, earlier: &Registry, name: &str) -> f64 {
        self.counter(name) as f64 - earlier.counter(name) as f64
    }

    /// `(count, sum, buckets)` of a histogram merged over its label sets.
    pub fn histogram(&self, name: &str) -> Option<Hist> {
        let mut out: Option<Hist> = None;
        for h in self.0.histograms.iter().filter(|h| h.id.name == name) {
            let acc = out.get_or_insert_with(Hist::default);
            acc.count += h.count;
            acc.sum += h.sum;
            if acc.buckets.len() < h.buckets.len() {
                acc.buckets.resize(h.buckets.len(), 0);
            }
            for (a, b) in acc.buckets.iter_mut().zip(h.buckets.iter()) {
                *a += b;
            }
        }
        out
    }

    /// Total observations of `hac_span_duration_us` over every span name:
    /// how many spans the program ended so far.
    pub fn spans_ended(&self) -> u64 {
        self.histogram("hac_span_duration_us")
            .map_or(0, |h| h.count)
    }
}

/// A merged log₂ histogram (bucket `k` holds values in `(2^(k-1), 2^k]`).
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Per-bucket counts.
    pub buckets: Vec<u64>,
}

impl Hist {
    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: Option<&Hist>) -> Hist {
        let Some(e) = earlier else {
            return self.clone();
        };
        Hist {
            count: self.count.saturating_sub(e.count),
            sum: self.sum.saturating_sub(e.sum),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| b.saturating_sub(e.buckets.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Percentile estimated by linear interpolation inside the bucket
    /// that holds it (buckets are a factor of two wide, so this is coarse).
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = pct / 100.0 * self.count as f64;
        let mut below = 0.0;
        for (k, &n) in self.buckets.iter().enumerate() {
            let n = n as f64;
            if n > 0.0 && below + n >= target {
                let lo = if k == 0 {
                    0.0
                } else {
                    (1u64 << (k - 1)) as f64
                };
                let hi = (1u64 << k.min(62)) as f64;
                return lo + (hi - lo) * ((target - below) / n).clamp(0.0, 1.0);
            }
            below += n;
        }
        0.0
    }
}
