//! Declarative service-level objectives evaluated against the
//! [`timeseries`](crate::timeseries) layer.
//!
//! An objective is a compact one-line spec (carried in `HacConfig`):
//!
//! ```text
//! query-latency: hac_query_eval_duration_us p99 < 5ms over 60s
//! net-errors:    hac_net_errors_total/hac_net_requests_total ratio < 0.1% over 60s
//! shed-rate:     hac_obs_http_shed_total rate < 10/s over 60s
//! ```
//!
//! Each sampler tick re-evaluates every objective over **two** burn-rate
//! windows: the *fast* window (the one declared in the spec) and a *slow*
//! window [`SLOW_WINDOW_FACTOR`]× longer. The classic multi-window rule
//! keeps alerts both quick and unflappable:
//!
//! * fast **and** slow window violated → **BREACH** (the budget is
//!   burning and has been for a while — page);
//! * fast only → **WARN** (a blip; the slow window absorbs it);
//! * neither → **OK**.
//!
//! State transitions are pushed into a bounded alert ring and surfaced as
//! `hac_slo_breaches_total{slo=…}` / `hac_slo_state{slo=…}`; `/alerts` on
//! the [`ObsServer`](crate::ObsServer) and `hacsh slo status` read both.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use crate::events::jstr;
use crate::sync::lock;
use crate::timeseries::TimeSeries;

/// The slow burn-rate window, as a multiple of the spec's window.
pub const SLOW_WINDOW_FACTOR: u64 = 5;
/// Alerts retained in the ring.
pub const ALERT_RING_CAPACITY: usize = 64;

/// What an objective measures.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// `metric pNN < threshold` — a windowed histogram percentile must
    /// stay under `threshold_us` (in the histogram's unit, µs by
    /// convention).
    LatencyP {
        /// Histogram metric name.
        metric: String,
        /// Percentile (e.g. `99.0`).
        pct: f64,
        /// Inclusive ceiling.
        threshold_us: u64,
    },
    /// `errors/total ratio < X%` — the windowed delta ratio of two
    /// counters must stay under `max_ratio` (a fraction, `0.001` = 0.1%).
    ErrorRatio {
        /// Numerator counter name.
        errors: String,
        /// Denominator counter name.
        total: String,
        /// Inclusive ceiling as a fraction.
        max_ratio: f64,
    },
    /// `metric rate < N/s` — a counter's windowed per-second rate must
    /// stay under `max_per_sec`.
    RateBelow {
        /// Counter metric name.
        metric: String,
        /// Inclusive ceiling in events per second.
        max_per_sec: f64,
    },
}

/// One declared objective: a name, what it measures, and its fast window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (the `slo` label on its metrics and alerts).
    pub name: String,
    /// The measurement and threshold.
    pub objective: Objective,
    /// Fast burn-rate window in seconds (the slow window is
    /// [`SLOW_WINDOW_FACTOR`]× this).
    pub window_secs: u64,
}

impl SloSpec {
    /// Parses the one-line spec grammar (see module docs). An optional
    /// `name:` prefix names the objective; otherwise the metric name is
    /// used.
    ///
    /// # Errors
    ///
    /// A human-readable description of what failed to parse.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let mut rest = spec.trim();
        let mut name = None;
        if let Some((n, r)) = rest.split_once(':') {
            if !n.contains(char::is_whitespace) {
                name = Some(n.trim().to_string());
                rest = r.trim();
            }
        }
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        let [metric, kind, lt, threshold, over, window] = tokens.as_slice() else {
            return Err(format!(
                "expected `<metric> <p99|ratio|rate> < <threshold> over <window>`, got {spec:?}"
            ));
        };
        if *lt != "<" {
            return Err(format!("expected `<` before the threshold, got {lt:?}"));
        }
        if *over != "over" {
            return Err(format!("expected `over <window>`, got {over:?}"));
        }
        let window_secs = parse_duration_secs(window)?;
        let objective = if let Some(pct) = kind.strip_prefix('p') {
            let pct: f64 = pct
                .parse()
                .map_err(|_| format!("bad percentile {kind:?}"))?;
            if !(0.0..=100.0).contains(&pct) {
                return Err(format!("percentile out of range: {pct}"));
            }
            Objective::LatencyP {
                metric: metric.to_string(),
                pct,
                threshold_us: parse_duration_us(threshold)?,
            }
        } else if *kind == "ratio" {
            let (errors, total) = metric.split_once('/').ok_or_else(|| {
                format!("ratio objectives need `errors/total` metrics, got {metric:?}")
            })?;
            Objective::ErrorRatio {
                errors: errors.to_string(),
                total: total.to_string(),
                max_ratio: parse_percent(threshold)?,
            }
        } else if *kind == "rate" {
            if threshold.ends_with('%') {
                return Err(format!(
                    "a percent threshold needs a denominator — use `errors/total ratio < {threshold}`"
                ));
            }
            let per_sec = threshold
                .strip_suffix("/s")
                .ok_or_else(|| format!("rate threshold must end in `/s`, got {threshold:?}"))?;
            Objective::RateBelow {
                metric: metric.to_string(),
                max_per_sec: per_sec
                    .parse()
                    .map_err(|_| format!("bad rate {threshold:?}"))?,
            }
        } else {
            return Err(format!(
                "unknown objective kind {kind:?} (p<NN>|ratio|rate)"
            ));
        };
        let name = name.unwrap_or_else(|| match &objective {
            Objective::LatencyP { metric, .. } | Objective::RateBelow { metric, .. } => {
                metric.clone()
            }
            Objective::ErrorRatio { errors, .. } => errors.clone(),
        });
        Ok(SloSpec {
            name,
            objective,
            window_secs,
        })
    }

    /// The default objective set wired into `HacConfig::default()`:
    /// generous thresholds that only fire on genuine distress.
    pub fn default_set() -> Vec<SloSpec> {
        [
            "query-latency: hac_query_eval_duration_us p99 < 250ms over 10s",
            "net-errors: hac_net_errors_total/hac_net_requests_total ratio < 5% over 10s",
            "server-latency: hac_net_server_request_duration_us p99 < 250ms over 10s",
            "store-commit: hac_store_commit_us p99 < 500ms over 10s",
        ]
        .iter()
        .map(|s| SloSpec::parse(s).expect("default SLO specs parse"))
        .collect()
    }

    /// Renders the spec back into its one-line grammar.
    pub fn render(&self) -> String {
        match &self.objective {
            Objective::LatencyP {
                metric,
                pct,
                threshold_us,
            } => format!(
                "{}: {metric} p{pct:.0} < {threshold_us}us over {}s",
                self.name, self.window_secs
            ),
            Objective::ErrorRatio {
                errors,
                total,
                max_ratio,
            } => format!(
                "{}: {errors}/{total} ratio < {}% over {}s",
                self.name,
                max_ratio * 100.0,
                self.window_secs
            ),
            Objective::RateBelow {
                metric,
                max_per_sec,
            } => format!(
                "{}: {metric} rate < {max_per_sec}/s over {}s",
                self.name, self.window_secs
            ),
        }
    }

    /// The numeric threshold this objective compares against.
    pub fn threshold(&self) -> f64 {
        match &self.objective {
            Objective::LatencyP { threshold_us, .. } => *threshold_us as f64,
            Objective::ErrorRatio { max_ratio, .. } => *max_ratio,
            Objective::RateBelow { max_per_sec, .. } => *max_per_sec,
        }
    }
}

fn parse_duration_secs(s: &str) -> Result<u64, String> {
    if let Some(v) = s.strip_suffix("ms") {
        let ms: u64 = v.parse().map_err(|_| format!("bad window {s:?}"))?;
        return Ok((ms / 1000).max(1));
    }
    if let Some(v) = s.strip_suffix('m') {
        let m: u64 = v.parse().map_err(|_| format!("bad window {s:?}"))?;
        return Ok(m * 60);
    }
    if let Some(v) = s.strip_suffix('s') {
        return v.parse().map_err(|_| format!("bad window {s:?}"));
    }
    Err(format!("window needs a unit (s|m), got {s:?}"))
}

fn parse_duration_us(s: &str) -> Result<u64, String> {
    if let Some(v) = s.strip_suffix("us") {
        return v.parse().map_err(|_| format!("bad duration {s:?}"));
    }
    if let Some(v) = s.strip_suffix("ms") {
        let ms: u64 = v.parse().map_err(|_| format!("bad duration {s:?}"))?;
        return Ok(ms * 1000);
    }
    if let Some(v) = s.strip_suffix('s') {
        let secs: u64 = v.parse().map_err(|_| format!("bad duration {s:?}"))?;
        return Ok(secs * 1_000_000);
    }
    Err(format!("duration needs a unit (us|ms|s), got {s:?}"))
}

fn parse_percent(s: &str) -> Result<f64, String> {
    let v = s
        .strip_suffix('%')
        .ok_or_else(|| format!("ratio threshold must end in `%`, got {s:?}"))?;
    let pct: f64 = v.parse().map_err(|_| format!("bad percentage {s:?}"))?;
    Ok(pct / 100.0)
}

/// Health of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloState {
    /// Within budget in both windows.
    Ok,
    /// Fast window violated; slow window still inside budget.
    Warn,
    /// Both burn-rate windows violated.
    Breach,
}

impl SloState {
    /// Lowercase label for rendering.
    pub fn as_str(&self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Breach => "breach",
        }
    }
}

/// One state transition of an objective.
#[derive(Debug, Clone)]
pub struct Alert {
    /// Objective name.
    pub slo: String,
    /// State entered.
    pub state: SloState,
    /// Series time of the transition (µs on the time-series axis).
    pub at_us: u64,
    /// Measured value in the fast window at transition time.
    pub value: f64,
    /// The objective's threshold.
    pub threshold: f64,
    /// Human-readable summary.
    pub message: String,
}

impl Alert {
    /// JSON object for `/alerts`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"slo\":{},\"state\":{},\"at_us\":{},\"value\":{:.6},\
             \"threshold\":{:.6},\"message\":{}}}",
            jstr(&self.slo),
            jstr(self.state.as_str()),
            self.at_us,
            self.value,
            self.threshold,
            jstr(&self.message)
        )
    }
}

struct SloRuntime {
    spec: SloSpec,
    state: SloState,
    /// Last measured fast-window value, if any data existed.
    last_value: Option<f64>,
}

/// Current health of one objective (a snapshot of engine state).
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The declared objective.
    pub spec: SloSpec,
    /// Current state.
    pub state: SloState,
    /// Most recent fast-window measurement (`None` = no data yet).
    pub value: Option<f64>,
}

/// Evaluates installed objectives on every sampler tick.
#[derive(Default)]
pub struct SloEngine {
    slos: Mutex<Vec<SloRuntime>>,
    alerts: Mutex<VecDeque<Alert>>,
}

impl SloEngine {
    /// Replaces the installed objectives. States restart at OK; the alert
    /// ring is preserved (history survives reconfiguration).
    pub fn install(&self, specs: &[SloSpec]) {
        let mut slos = lock(&self.slos);
        *slos = specs
            .iter()
            .map(|spec| {
                crate::gauge("hac_slo_state", &[("slo", &spec.name)]).set(0);
                SloRuntime {
                    spec: spec.clone(),
                    state: SloState::Ok,
                    last_value: None,
                }
            })
            .collect();
    }

    /// Number of installed objectives.
    pub fn len(&self) -> usize {
        lock(&self.slos).len()
    }

    /// True when no objectives are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-measures every objective against `ts` and records state
    /// transitions (called once per sampler tick).
    pub fn evaluate(&self, ts: &TimeSeries) {
        let now = ts.now_us();
        let mut slos = lock(&self.slos);
        for rt in slos.iter_mut() {
            crate::counter("hac_slo_evals_total", &[("slo", &rt.spec.name)]).inc();
            let fast = measure(ts, &rt.spec.objective, rt.spec.window_secs);
            let slow = measure(
                ts,
                &rt.spec.objective,
                rt.spec.window_secs * SLOW_WINDOW_FACTOR,
            );
            rt.last_value = fast;
            let threshold = rt.spec.threshold();
            let violated = |v: Option<f64>| v.is_some_and(|v| v > threshold);
            let next = match (violated(fast), violated(slow)) {
                (true, true) => SloState::Breach,
                (true, false) => SloState::Warn,
                // No fast-window data or back inside budget: recovered.
                _ => SloState::Ok,
            };
            if next != rt.state {
                let value = fast.unwrap_or(0.0);
                let message = format!(
                    "{} {} (fast-window value {:.3} vs threshold {:.3})",
                    rt.spec.name,
                    next.as_str(),
                    value,
                    threshold
                );
                if next == SloState::Breach {
                    crate::counter("hac_slo_breaches_total", &[("slo", &rt.spec.name)]).inc();
                }
                crate::gauge("hac_slo_state", &[("slo", &rt.spec.name)]).set(match next {
                    SloState::Ok => 0,
                    SloState::Warn => 1,
                    SloState::Breach => 2,
                });
                crate::global().event(
                    "slo_transition",
                    vec![
                        ("slo".to_string(), rt.spec.name.clone()),
                        ("state".to_string(), next.as_str().to_string()),
                    ],
                );
                let mut alerts = lock(&self.alerts);
                if alerts.len() >= ALERT_RING_CAPACITY {
                    alerts.pop_front();
                }
                alerts.push_back(Alert {
                    slo: rt.spec.name.clone(),
                    state: next,
                    at_us: now,
                    value,
                    threshold,
                    message,
                });
                rt.state = next;
            }
        }
    }

    /// Current status of every installed objective.
    pub fn status(&self) -> Vec<SloStatus> {
        lock(&self.slos)
            .iter()
            .map(|rt| SloStatus {
                spec: rt.spec.clone(),
                state: rt.state,
                value: rt.last_value,
            })
            .collect()
    }

    /// Recent state transitions, oldest first.
    pub fn recent_alerts(&self) -> Vec<Alert> {
        lock(&self.alerts).iter().cloned().collect()
    }

    /// JSON for `/alerts`: objectives currently not-OK plus the
    /// transition history ring.
    pub fn to_json(&self) -> String {
        let status = self.status();
        let active: Vec<String> = status
            .iter()
            .filter(|s| s.state != SloState::Ok)
            .map(|s| {
                format!(
                    "{{\"slo\":{},\"state\":{},\"value\":{},\"threshold\":{:.6},\
                     \"window_secs\":{}}}",
                    jstr(&s.spec.name),
                    jstr(s.state.as_str()),
                    s.value
                        .map(|v| format!("{v:.6}"))
                        .unwrap_or_else(|| "null".to_string()),
                    s.spec.threshold(),
                    s.spec.window_secs
                )
            })
            .collect();
        let objectives: Vec<String> = status
            .iter()
            .map(|s| {
                format!(
                    "{{\"slo\":{},\"spec\":{},\"state\":{}}}",
                    jstr(&s.spec.name),
                    jstr(&s.spec.render()),
                    jstr(s.state.as_str())
                )
            })
            .collect();
        let recent: Vec<String> = self.recent_alerts().iter().map(Alert::to_json).collect();
        format!(
            "{{\"active\":[{}],\"objectives\":[{}],\"recent\":[{}]}}",
            active.join(","),
            objectives.join(","),
            recent.join(",")
        )
    }
}

fn measure(ts: &TimeSeries, objective: &Objective, window_secs: u64) -> Option<f64> {
    match objective {
        Objective::LatencyP { metric, pct, .. } => ts
            .percentile_us(metric, window_secs, *pct)
            .map(|v| v as f64),
        Objective::ErrorRatio { errors, total, .. } => ts.ratio(errors, total, window_secs),
        Objective::RateBelow { metric, .. } => ts.rate(metric, window_secs),
    }
}

static ENGINE: OnceLock<SloEngine> = OnceLock::new();

/// The process-wide SLO engine (evaluated by the global sampler).
pub fn engine() -> &'static SloEngine {
    ENGINE.get_or_init(SloEngine::default)
}

/// Installs objectives into the global engine.
pub fn install(specs: &[SloSpec]) {
    engine().install(specs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn parse_grammar_round_trips() {
        let s = SloSpec::parse("query: hac_query_eval_duration_us p99 < 5ms over 60s").unwrap();
        assert_eq!(s.name, "query");
        assert_eq!(s.window_secs, 60);
        assert_eq!(
            s.objective,
            Objective::LatencyP {
                metric: "hac_query_eval_duration_us".to_string(),
                pct: 99.0,
                threshold_us: 5000,
            }
        );
        let s = SloSpec::parse("hac_net_errors_total/hac_net_requests_total ratio < 0.1% over 60s")
            .unwrap();
        assert_eq!(s.name, "hac_net_errors_total");
        assert_eq!(
            s.objective,
            Objective::ErrorRatio {
                errors: "hac_net_errors_total".to_string(),
                total: "hac_net_requests_total".to_string(),
                max_ratio: 0.001,
            }
        );
        let s = SloSpec::parse("shed: hac_obs_http_shed_total rate < 10/s over 5m").unwrap();
        assert_eq!(s.window_secs, 300);
        assert_eq!(
            s.objective,
            Objective::RateBelow {
                metric: "hac_obs_http_shed_total".to_string(),
                max_per_sec: 10.0,
            }
        );
        // The spec renders back into parseable form.
        let again = SloSpec::parse(&s.render()).unwrap();
        assert_eq!(again, s);

        assert!(SloSpec::parse("x p99 5ms over 60s").is_err());
        assert!(SloSpec::parse("x rate < 0.1% over 60s")
            .unwrap_err()
            .contains("denominator"));
        assert!(
            SloSpec::parse("x ratio < 1% over 60s").is_err(),
            "no denominator"
        );
        assert!(SloSpec::parse("x p200 < 1ms over 60s").is_err());
        assert!(SloSpec::parse("").is_err());
        for spec in SloSpec::default_set() {
            assert!(!spec.name.is_empty());
        }
    }

    /// Drives a private engine + timeseries through OK → WARN/BREACH → OK.
    #[test]
    fn burn_rate_state_machine_and_alert_ring() {
        let reg = Registry::new();
        let h = reg.histogram("t_slo_lat_us", &[]);
        let ts = TimeSeries::new(256);
        let engine = SloEngine::default();
        engine.install(&[SloSpec::parse("lat: t_slo_lat_us p99 < 1ms over 60s").unwrap()]);

        // Healthy traffic: everything under 1ms.
        for _ in 0..50 {
            h.record(100);
        }
        ts.sample(&reg.snapshot());
        ts.sample(&reg.snapshot());
        engine.evaluate(&ts);
        assert_eq!(engine.status()[0].state, SloState::Ok);
        assert!(engine.recent_alerts().is_empty(), "no transition yet");

        // Distress: p99 blows through the ceiling. Both burn windows see
        // the same (bad) data, so the state goes straight to BREACH.
        for _ in 0..200 {
            h.record(50_000);
        }
        ts.sample(&reg.snapshot());
        engine.evaluate(&ts);
        let status = &engine.status()[0];
        assert_eq!(status.state, SloState::Breach);
        assert!(status.value.unwrap() > 1000.0);
        let alerts = engine.recent_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].state, SloState::Breach);
        assert!(
            alerts[0].message.contains("lat breach"),
            "{}",
            alerts[0].message
        );

        // Evaluating again without new distress keeps the state (no
        // duplicate alerts while breached).
        engine.evaluate(&ts);
        assert_eq!(engine.recent_alerts().len(), 1);

        let json = engine.to_json();
        assert!(json.contains("\"active\":[{\"slo\":\"lat\""), "{json}");
        assert!(json.contains("\"state\":\"breach\""), "{json}");
    }

    #[test]
    fn error_ratio_objective_recovers() {
        let reg = Registry::new();
        let errs = reg.counter("t_slo_errs_total", &[]);
        let total = reg.counter("t_slo_reqs_total", &[]);
        let ts = TimeSeries::new(256);
        let engine = SloEngine::default();
        engine.install(&[SloSpec::parse(
            "errs: t_slo_errs_total/t_slo_reqs_total ratio < 10% over 60s",
        )
        .unwrap()]);

        total.add(100);
        ts.sample(&reg.snapshot());
        // Half the traffic errors: 50% ≫ 10%.
        errs.add(50);
        total.add(100);
        ts.sample(&reg.snapshot());
        engine.evaluate(&ts);
        assert_eq!(engine.status()[0].state, SloState::Breach);

        // A long clean stretch dilutes the windowed ratio below budget.
        for _ in 0..20 {
            total.add(1000);
            ts.sample(&reg.snapshot());
        }
        engine.evaluate(&ts);
        assert_eq!(
            engine.status()[0].state,
            SloState::Ok,
            "recovery transitions back"
        );
        let alerts = engine.recent_alerts();
        assert_eq!(alerts.last().unwrap().state, SloState::Ok);
    }
}
