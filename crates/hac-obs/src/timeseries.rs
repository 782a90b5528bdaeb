//! Windowed time-series collection over the metrics [`Registry`].
//!
//! Every metric in the workspace is a monotonic point-in-time value; this
//! module turns them into *series*: [`sample_if_due`], pulled from ticks
//! that already exist (server loop wakeups, daemon ticks, scrapes, `top`),
//! snapshots the global registry at most once per configurable interval
//! and stores per-metric **deltas** in fixed-capacity ring buffers. From
//! those deltas the layer derives:
//!
//! * rolling **rates** over arbitrary windows (1s/10s/60s are the
//!   conventional ones: [`TimeSeries::rate`]);
//! * windowed **histogram percentiles** — p50/p95/p99 estimated from the
//!   log₂-bucket deltas accumulated inside the window
//!   ([`TimeSeries::percentile_us`]);
//! * gauge **min/max/last** over a window ([`TimeSeries::gauge_window`]).
//!
//! All aggregations are *name-level*: deltas are merged across every label
//! set of a metric name, which is what dashboards and SLOs want (`top`
//! shows the server's total rps, not one `{op="search"}` slice; ask for a
//! single slice via the JSON series, which keeps label sets separate).
//!
//! The first observation of a metric only records a baseline — otherwise a
//! counter that was alive long before sampling started would show up as
//! one giant spike. Each stored point also carries the time covered since
//! the previous sample (`dt`), so rates stay honest across missed ticks
//! and the pullers' irregular cadence.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{bucket_upper_bound, MetricId, Snapshot, HISTOGRAM_BUCKETS};
use crate::sync::lock;

/// Default sampling interval: [`sample_if_due`] samples at most this often.
pub const DEFAULT_SAMPLE_INTERVAL_MS: u64 = 1000;
/// Samples retained per metric (at the default interval: ~2 minutes).
pub const DEFAULT_SERIES_CAPACITY: usize = 128;
/// The conventional dashboard windows, in seconds.
pub const WINDOWS_SECS: [u64; 3] = [1, 10, 60];

/// One counter tick: `delta` new increments covering `dt_us` of wall time.
#[derive(Debug, Clone, Copy)]
struct CounterPoint {
    at_us: u64,
    dt_us: u64,
    delta: u64,
}

/// One gauge observation.
#[derive(Debug, Clone, Copy)]
struct GaugePoint {
    at_us: u64,
    value: i64,
}

/// One histogram tick: per-bucket observation deltas (sparse — only
/// buckets that moved), plus count/sum deltas.
#[derive(Debug, Clone)]
struct HistogramPoint {
    at_us: u64,
    dt_us: u64,
    count_delta: u64,
    sum_delta: u64,
    buckets: Vec<(u16, u64)>,
}

enum Series {
    Counter {
        points: VecDeque<CounterPoint>,
        last_total: u64,
    },
    Gauge {
        points: VecDeque<GaugePoint>,
    },
    Histogram {
        points: VecDeque<HistogramPoint>,
        last_buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
        last_count: u64,
        last_sum: u64,
    },
}

/// Rolling min/max/last of a gauge over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeWindow {
    /// Smallest sampled value in the window.
    pub min: i64,
    /// Largest sampled value in the window.
    pub max: i64,
    /// Most recent sampled value.
    pub last: i64,
}

/// Per-metric ring buffers of sampled deltas, with windowed derivations.
pub struct TimeSeries {
    epoch: Instant,
    capacity: usize,
    interval_ms: AtomicU64,
    last_sample_us: AtomicU64,
    samples: AtomicU64,
    series: Mutex<BTreeMap<MetricId, Series>>,
}

impl TimeSeries {
    /// An empty store retaining `capacity` samples per metric.
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            epoch: Instant::now(),
            capacity: capacity.max(2),
            interval_ms: AtomicU64::new(DEFAULT_SAMPLE_INTERVAL_MS),
            last_sample_us: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Microseconds since this store was created (the series time axis).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Configured sampling interval in milliseconds.
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms.load(Ordering::Relaxed)
    }

    /// Sets the sampling interval (used by [`sample_if_due`] and reported
    /// in the JSON series).
    pub fn set_interval_ms(&self, ms: u64) {
        self.interval_ms.store(ms.max(1), Ordering::Relaxed);
    }

    /// Completed sampling ticks.
    pub fn sample_count(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Whether a sample is due: none yet, or one interval has elapsed
    /// since the last.
    fn due(&self) -> bool {
        let since = self
            .now_us()
            .saturating_sub(self.last_sample_us.load(Ordering::Relaxed));
        self.sample_count() == 0 || since >= self.interval_ms() * 1000
    }

    /// Ingests one registry snapshot: records the delta of every metric
    /// since the previous call. First sight of a metric records a baseline
    /// only (no point), so pre-existing totals don't appear as a spike.
    pub fn sample(&self, snap: &Snapshot) {
        let at_us = self.now_us();
        let mut series = lock(&self.series);
        for c in &snap.counters {
            let total = c.value.max(0) as u64;
            let entry = series.entry(c.id.clone()).or_insert(Series::Counter {
                points: VecDeque::new(),
                last_total: total,
            });
            if let Series::Counter { points, last_total } = entry {
                if self.samples.load(Ordering::Relaxed) > 0 || !points.is_empty() {
                    let dt_us = at_us.saturating_sub(point_at(points.back(), 0));
                    push_capped(
                        points,
                        CounterPoint {
                            at_us,
                            dt_us: effective_dt(dt_us, at_us, points.is_empty(), self),
                            delta: total.saturating_sub(*last_total),
                        },
                        self.capacity,
                    );
                }
                *last_total = total;
            }
        }
        for g in &snap.gauges {
            let entry = series.entry(g.id.clone()).or_insert(Series::Gauge {
                points: VecDeque::new(),
            });
            if let Series::Gauge { points } = entry {
                push_capped(
                    points,
                    GaugePoint {
                        at_us,
                        value: g.value as i64,
                    },
                    self.capacity,
                );
            }
        }
        for h in &snap.histograms {
            let entry = series.entry(h.id.clone()).or_insert(Series::Histogram {
                points: VecDeque::new(),
                last_buckets: Box::new(h.buckets),
                last_count: h.count,
                last_sum: h.sum,
            });
            if let Series::Histogram {
                points,
                last_buckets,
                last_count,
                last_sum,
            } = entry
            {
                let fresh_metric = self.samples.load(Ordering::Relaxed) == 0 && points.is_empty();
                if !fresh_metric {
                    let mut deltas = Vec::new();
                    for (i, b) in h.buckets.iter().enumerate() {
                        let d = b.saturating_sub(last_buckets[i]);
                        if d > 0 {
                            deltas.push((i as u16, d));
                        }
                    }
                    let dt_us = at_us.saturating_sub(point_at_h(points.back(), 0));
                    push_capped(
                        points,
                        HistogramPoint {
                            at_us,
                            dt_us: effective_dt(dt_us, at_us, points.is_empty(), self),
                            count_delta: h.count.saturating_sub(*last_count),
                            sum_delta: h.sum.saturating_sub(*last_sum),
                            buckets: deltas,
                        },
                        self.capacity,
                    );
                }
                **last_buckets = h.buckets;
                *last_count = h.count;
                *last_sum = h.sum;
            }
        }
        drop(series);
        self.last_sample_us.store(at_us, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-second rate of a counter **name** (summed across label sets)
    /// over the trailing `window_secs`. `None` before two samples exist.
    pub fn rate(&self, name: &str, window_secs: u64) -> Option<f64> {
        let cutoff = self
            .now_us()
            .saturating_sub(window_secs.saturating_mul(1_000_000));
        let series = lock(&self.series);
        let mut delta = 0u64;
        let mut dt_us = 0u64;
        let mut seen = false;
        for (id, s) in series.range(range_for(name)) {
            debug_assert_eq!(id.name, name);
            if let Series::Counter { points, .. } = s {
                let mut label_dt = 0u64;
                for p in points.iter().rev() {
                    if p.at_us < cutoff {
                        break;
                    }
                    seen = true;
                    delta += p.delta;
                    label_dt += p.dt_us;
                }
                // Label sets tick together; the covered span is the
                // longest one, not the sum over label sets.
                dt_us = dt_us.max(label_dt);
            }
        }
        if !seen || dt_us == 0 {
            return None;
        }
        Some(delta as f64 / (dt_us as f64 / 1e6))
    }

    /// Windowed delta sum of a counter name (numerator for ratios).
    pub fn window_delta(&self, name: &str, window_secs: u64) -> Option<u64> {
        let cutoff = self
            .now_us()
            .saturating_sub(window_secs.saturating_mul(1_000_000));
        let series = lock(&self.series);
        let mut delta = 0u64;
        let mut seen = false;
        for (_, s) in series.range(range_for(name)) {
            if let Series::Counter { points, .. } = s {
                for p in points.iter().rev() {
                    if p.at_us < cutoff {
                        break;
                    }
                    seen = true;
                    delta += p.delta;
                }
            }
        }
        seen.then_some(delta)
    }

    /// `numerator / denominator` of two counter names over a window
    /// (e.g. error ratio). `None` until the denominator saw any delta.
    pub fn ratio(&self, numerator: &str, denominator: &str, window_secs: u64) -> Option<f64> {
        let num = self.window_delta(numerator, window_secs).unwrap_or(0);
        let den = self.window_delta(denominator, window_secs)?;
        if den == 0 {
            return None;
        }
        Some(num as f64 / den as f64)
    }

    /// Windowed percentile estimate (in the histogram's unit) of a
    /// histogram name, merged across label sets: log₂-bucket deltas in the
    /// window are accumulated and the percentile is linearly interpolated
    /// inside its bucket. `None` with no observations in the window.
    pub fn percentile_us(&self, name: &str, window_secs: u64, pct: f64) -> Option<u64> {
        let cutoff = self
            .now_us()
            .saturating_sub(window_secs.saturating_mul(1_000_000));
        let series = lock(&self.series);
        let mut merged = [0u64; HISTOGRAM_BUCKETS];
        let mut total = 0u64;
        for (_, s) in series.range(range_for(name)) {
            if let Series::Histogram { points, .. } = s {
                for p in points.iter().rev() {
                    if p.at_us < cutoff {
                        break;
                    }
                    for &(i, d) in &p.buckets {
                        merged[i as usize] += d;
                        total += d;
                    }
                }
            }
        }
        drop(series);
        if total == 0 {
            return None;
        }
        let target = ((pct / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &count) in merged.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if cumulative + count >= target {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = bucket_upper_bound(i).unwrap_or(lower.saturating_mul(2).max(1));
                let into = (target - cumulative) as f64 / count as f64;
                return Some(lower + ((upper - lower) as f64 * into) as u64);
            }
            cumulative += count;
        }
        None
    }

    /// Min/max/last of a gauge name over a window (across label sets).
    pub fn gauge_window(&self, name: &str, window_secs: u64) -> Option<GaugeWindow> {
        let cutoff = self
            .now_us()
            .saturating_sub(window_secs.saturating_mul(1_000_000));
        let series = lock(&self.series);
        let mut out: Option<GaugeWindow> = None;
        for (_, s) in series.range(range_for(name)) {
            if let Series::Gauge { points } = s {
                for p in points.iter().rev() {
                    if p.at_us < cutoff {
                        break;
                    }
                    let w = out.get_or_insert(GaugeWindow {
                        min: p.value,
                        max: p.value,
                        // Iterating newest-first: the first point seen for
                        // this label set is its latest.
                        last: p.value,
                    });
                    w.min = w.min.min(p.value);
                    w.max = w.max.max(p.value);
                }
            }
        }
        out
    }

    /// JSON for `/timeseries?metric=<name>&window=<secs>`: every label set
    /// of `name` with its raw points in the window, plus windowed
    /// summaries (rates for counters, p50/p95/p99 for histograms,
    /// min/max/last for gauges). `None` when the name was never sampled.
    pub fn series_json(&self, name: &str, window_secs: u64) -> Option<String> {
        use crate::events::jstr;
        let cutoff = self
            .now_us()
            .saturating_sub(window_secs.saturating_mul(1_000_000));
        let series = lock(&self.series);
        let mut rendered: Vec<String> = Vec::new();
        let mut found = false;
        for (id, s) in series.range(range_for(name)) {
            found = true;
            let labels: Vec<String> = id
                .labels
                .iter()
                .map(|(k, v)| format!("{}:{}", jstr(k), jstr(v)))
                .collect();
            let labels = format!("{{{}}}", labels.join(","));
            match s {
                Series::Counter { points, .. } => {
                    let pts: Vec<String> = points
                        .iter()
                        .filter(|p| p.at_us >= cutoff)
                        .map(|p| {
                            let rate = if p.dt_us > 0 {
                                p.delta as f64 / (p.dt_us as f64 / 1e6)
                            } else {
                                0.0
                            };
                            format!(
                                "{{\"t_us\":{},\"delta\":{},\"rate\":{rate:.3}}}",
                                p.at_us, p.delta
                            )
                        })
                        .collect();
                    rendered.push(format!(
                        "{{\"labels\":{labels},\"kind\":\"counter\",\"points\":[{}]}}",
                        pts.join(",")
                    ));
                }
                Series::Gauge { points } => {
                    let pts: Vec<String> = points
                        .iter()
                        .filter(|p| p.at_us >= cutoff)
                        .map(|p| format!("{{\"t_us\":{},\"value\":{}}}", p.at_us, p.value))
                        .collect();
                    rendered.push(format!(
                        "{{\"labels\":{labels},\"kind\":\"gauge\",\"points\":[{}]}}",
                        pts.join(",")
                    ));
                }
                Series::Histogram { points, .. } => {
                    let pts: Vec<String> = points
                        .iter()
                        .filter(|p| p.at_us >= cutoff)
                        .map(|p| {
                            let rate = if p.dt_us > 0 {
                                p.count_delta as f64 / (p.dt_us as f64 / 1e6)
                            } else {
                                0.0
                            };
                            format!(
                                "{{\"t_us\":{},\"count\":{},\"sum\":{},\"rate\":{rate:.3}}}",
                                p.at_us, p.count_delta, p.sum_delta
                            )
                        })
                        .collect();
                    rendered.push(format!(
                        "{{\"labels\":{labels},\"kind\":\"histogram\",\"points\":[{}]}}",
                        pts.join(",")
                    ));
                }
            }
        }
        drop(series);
        if !found {
            return None;
        }
        let mut summary: Vec<String> = Vec::new();
        for w in WINDOWS_SECS {
            if let Some(r) = self.rate(name, w) {
                summary.push(format!("\"rate_{w}s\":{r:.3}"));
            }
        }
        for pct in [50.0, 95.0, 99.0] {
            if let Some(v) = self.percentile_us(name, window_secs, pct) {
                summary.push(format!("\"p{:.0}\":{v}", pct));
            }
        }
        if let Some(g) = self.gauge_window(name, window_secs) {
            summary.push(format!(
                "\"min\":{},\"max\":{},\"last\":{}",
                g.min, g.max, g.last
            ));
        }
        let summary = if summary.is_empty() {
            String::new()
        } else {
            format!(",{}", summary.join(","))
        };
        Some(format!(
            "{{\"metric\":{},\"window_secs\":{window_secs},\"now_us\":{},\
             \"interval_ms\":{},\"samples\":{}{summary},\"series\":[{}]}}",
            crate::events::jstr(name),
            self.now_us(),
            self.interval_ms(),
            self.sample_count(),
            rendered.join(",")
        ))
    }
}

/// Key range covering every label set of one metric name in the sorted
/// series map (label sets of a name are contiguous under `MetricId` order).
fn range_for(name: &str) -> std::ops::RangeInclusive<MetricId> {
    let lo = MetricId {
        name: name.to_string(),
        labels: Vec::new(),
    };
    let hi = MetricId {
        name: name.to_string(),
        labels: vec![(String::from("\u{10FFFF}"), String::new())],
    };
    lo..=hi
}

fn point_at(p: Option<&CounterPoint>, default: u64) -> u64 {
    p.map(|p| p.at_us).unwrap_or(default)
}

fn point_at_h(p: Option<&HistogramPoint>, default: u64) -> u64 {
    p.map(|p| p.at_us).unwrap_or(default)
}

/// The covered span of a point: time since that metric's previous point,
/// or — for a metric first seen after sampling began (its baseline tick) —
/// one sampling interval, which is the only honest guess available.
fn effective_dt(dt_us: u64, _at_us: u64, first_point: bool, ts: &TimeSeries) -> u64 {
    if first_point || dt_us == 0 {
        ts.interval_ms().saturating_mul(1000).max(1)
    } else {
        dt_us
    }
}

fn push_capped<T>(points: &mut VecDeque<T>, point: T, capacity: usize) {
    if points.len() >= capacity {
        points.pop_front();
    }
    points.push_back(point);
}

// ---------------------------------------------------------------------
// The global store and its pullers.
// ---------------------------------------------------------------------

static GLOBAL_TS: OnceLock<TimeSeries> = OnceLock::new();
/// Serializes samples: two concurrent delta computations would
/// double-count, and a puller that waited here re-checks whether the
/// sample it came for was already taken.
static SAMPLE_GATE: Mutex<()> = Mutex::new(());

/// The process-wide time-series store (fed from the global registry).
pub fn global() -> &'static TimeSeries {
    GLOBAL_TS.get_or_init(|| TimeSeries::new(DEFAULT_SERIES_CAPACITY))
}

/// Takes one sample of the global registry right now and re-evaluates the
/// SLO engine against the updated series.
pub fn sample_now() {
    let _gate = lock(&SAMPLE_GATE);
    sample_global();
}

/// Samples only when at least one interval elapsed since the last sample.
/// Cheap to call unconditionally, so the ticks that already exist pull
/// the series forward: every `HacServer` loop wakeup, every daemon tick,
/// every `/timeseries` and `/alerts` scrape and every `top` frame. Any
/// number of concurrent pullers take one sample per interval between
/// them.
pub fn sample_if_due() {
    let ts = global();
    if !ts.due() {
        return;
    }
    let _gate = lock(&SAMPLE_GATE);
    if ts.due() {
        sample_global();
    }
}

/// One sample of the global registry; the caller holds `SAMPLE_GATE`.
fn sample_global() {
    let t = Instant::now();
    let ts = global();
    ts.sample(&crate::snapshot());
    crate::slo::engine().evaluate(ts);
    crate::counter("hac_ts_samples_total", &[]).inc();
    crate::histogram("hac_ts_sample_duration_us", &[]).record(t.elapsed().as_micros() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use std::time::Duration;

    #[test]
    fn first_sight_records_baseline_not_spike() {
        let reg = Registry::new();
        reg.counter("t_ts_total", &[]).add(1_000_000);
        let ts = TimeSeries::new(16);
        ts.sample(&reg.snapshot());
        // One sample: only a baseline, no rate yet.
        assert_eq!(ts.rate("t_ts_total", 60), None);
        reg.counter("t_ts_total", &[]).add(10);
        ts.sample(&reg.snapshot());
        let r = ts.rate("t_ts_total", 60).expect("two samples give a rate");
        assert!(r > 0.0, "rate from deltas, not totals: {r}");
        // The million pre-existing increments never entered the series.
        assert_eq!(ts.window_delta("t_ts_total", 3600), Some(10));
    }

    #[test]
    fn rate_merges_label_sets_and_respects_window() {
        let reg = Registry::new();
        let a = reg.counter("t_rl_total", &[("op", "a")]);
        let b = reg.counter("t_rl_total", &[("op", "b")]);
        let ts = TimeSeries::new(16);
        ts.sample(&reg.snapshot());
        a.add(30);
        b.add(70);
        ts.sample(&reg.snapshot());
        assert_eq!(ts.window_delta("t_rl_total", 3600), Some(100));
        let r = ts.rate("t_rl_total", 3600).unwrap();
        assert!(r > 0.0);
    }

    #[test]
    fn percentile_from_windowed_bucket_deltas() {
        let reg = Registry::new();
        let h = reg.histogram("t_tp_us", &[]);
        let ts = TimeSeries::new(16);
        ts.sample(&reg.snapshot());
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        ts.sample(&reg.snapshot());
        let p50 = ts.percentile_us("t_tp_us", 3600, 50.0).unwrap();
        let p99 = ts.percentile_us("t_tp_us", 3600, 99.0).unwrap();
        assert!(p50 <= 128, "p50 in the fast bucket, got {p50}");
        assert!(p99 > 65_536, "p99 in the slow bucket, got {p99}");
        // Percentiles are *windowed*: pre-window observations are invisible.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(ts.percentile_us("t_tp_us", 0, 99.0), None);
        assert_eq!(ts.percentile_us("t_absent_us", 3600, 99.0), None);
    }

    #[test]
    fn gauge_window_tracks_min_max_last() {
        let reg = Registry::new();
        let g = reg.gauge("t_tg", &[]);
        let ts = TimeSeries::new(16);
        for v in [5i64, -3, 12, 7] {
            g.set(v);
            ts.sample(&reg.snapshot());
        }
        let w = ts.gauge_window("t_tg", 3600).unwrap();
        assert_eq!((w.min, w.max, w.last), (-3, 12, 7));
    }

    #[test]
    fn ring_capacity_bounds_memory() {
        let reg = Registry::new();
        let c = reg.counter("t_cap_total", &[]);
        let ts = TimeSeries::new(4);
        for _ in 0..20 {
            c.inc();
            ts.sample(&reg.snapshot());
        }
        let series = lock(&ts.series);
        match series.values().next().unwrap() {
            Series::Counter { points, .. } => assert_eq!(points.len(), 4),
            _ => panic!("counter series expected"),
        }
    }

    #[test]
    fn series_json_shape() {
        let reg = Registry::new();
        reg.counter("t_js_total", &[("ns", "x")]).inc();
        reg.histogram("t_js_us", &[]).record(7);
        let ts = TimeSeries::new(16);
        ts.sample(&reg.snapshot());
        reg.counter("t_js_total", &[("ns", "x")]).add(4);
        reg.histogram("t_js_us", &[]).record(9);
        ts.sample(&reg.snapshot());
        let json = ts.series_json("t_js_total", 60).unwrap();
        assert!(json.contains("\"metric\":\"t_js_total\""), "{json}");
        assert!(json.contains("\"kind\":\"counter\""), "{json}");
        assert!(json.contains("\"delta\":4"), "{json}");
        assert!(json.contains("\"rate_60s\":"), "{json}");
        let json = ts.series_json("t_js_us", 60).unwrap();
        assert!(json.contains("\"kind\":\"histogram\""), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        assert_eq!(ts.series_json("t_nope", 60), None);
    }
}
