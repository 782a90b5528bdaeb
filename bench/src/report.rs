//! The metric tables (names, units, direction, regression bounds), the
//! outcome of one run and its result line, the multi-run report, and
//! `compare`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::Repeats;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of a table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics are not gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them (see the README for what each measures on
/// each workload). The bounds are three times the widest spread over ten
/// seeds seen on the 2-core sandbox the benchmark was defined on, capped
/// at the contract's 0.25; the sandbox's noise, not the program's, sets
/// them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("smkdir_p50_us", "us", Lower, 0.25),
    e2e("fsop_p50_us", "us", Lower, 0.25),
    e2e("ssync_p50_ms", "ms", Lower, 0.25),
];

/// Per-layer metrics, `<crate>.<name>`. A workload that does not exercise
/// a layer reports 0 for it: the layer did no work.
pub const PER_LAYER: &[MetricDef] = &[
    // hac-query
    layer("query.parse_us", "us", Lower),
    // hac-index
    layer("index.eval_self_us", "us", Lower),
    layer("index.postings_per_result", "count", Lower),
    layer("index.candidates_per_result", "count", Lower),
    layer("index.tokenize_us_per_doc", "us", Lower),
    layer("index.apply_us_per_doc", "us", Lower),
    layer("index.bytes_per_doc", "B", Lower),
    layer("index_docs_per_s", "1/s", Higher),
    // hac-core
    layer("core.query_eval_self_us", "us", Lower),
    layer("core.search_p50_us.point", "us", Lower),
    layer("core.search_p50_us.needle", "us", Lower),
    layer("core.search_p50_us.many", "us", Lower),
    layer("core.search_p50_us.boolean", "us", Lower),
    layer("core.search_p50_us.scoped", "us", Lower),
    layer("core.search_p50_us.dirref", "us", Lower),
    layer("core.search_self_us", "us", Lower),
    layer("core.structural_fsop_p50_us", "us", Lower),
    layer("core.semdir_resync_self_us", "us", Lower),
    layer("core.links_per_smkdir", "count", Lower),
    layer("core.ssync_plan_apply_self_us", "us", Lower),
    layer("core.ssync_tokenize_us", "us", Lower),
    layer("core.ssync_resync_us", "us", Lower),
    layer("core.ssync_warm_ms", "ms", Lower),
    layer("core.ssync_1file_ms", "ms", Lower),
    layer("core.ssync_64file_ms", "ms", Lower),
    layer("core.semdirs_resynced_per_round", "count", Lower),
    layer("core.result_cache_hit_ratio", "ratio", Higher),
    layer("ssync_p90_ms", "ms", Lower),
    layer("recovery_ms", "ms", Lower),
    // hac-vfs
    layer("vfs.raw_fsop_p50_us", "us", Lower),
    layer("vfs.walk_us_per_entry", "us", Lower),
    layer("vfs.resolve_ns", "ns", Lower),
    layer("vfs.snapshot_ms", "ms", Lower),
    layer("vfs.restore_ms", "ms", Lower),
    // hac-store
    layer("store.commit_us", "us", Lower),
    layer("store.recover_us", "us", Lower),
    layer("store.puts_per_commit", "count", Lower),
    layer("store.bytes_written_per_user_byte", "ratio", Lower),
    layer("store.maintain_ms_total", "ms", Lower),
    layer("store.merges", "count", Lower),
    layer("store.checkpoints", "count", Lower),
    layer("store.segments_live_at_end", "count", Lower),
    layer("store.file_commit_us", "us", Lower),
    layer("store.crash_recovered_ok", "count", Higher),
    layer("store_bytes_per_user_byte", "ratio", Lower),
    // hac-net
    layer("net.wire_overhead_us", "us", Lower),
    layer("net.server_time_us_p50", "us", Lower),
    layer("net.client_wire_overhead_us_p50", "us", Lower),
    layer("net.bytes_per_request", "B", Lower),
    layer("net.frames_per_flush", "count", Higher),
    layer("net.inline_share", "ratio", Higher),
    layer("net.errors", "count", Lower),
    layer("net.p99_us.r1000", "us", Lower),
    layer("net.p99_us.r2000", "us", Lower),
    layer("net.p99_us.r5000", "us", Lower),
    layer("net.p99_us.r10000", "us", Lower),
    layer("net.p99_us.r20000", "us", Lower),
    layer("net.generator_lag_us_p99", "us", Lower),
    layer("rate_ok_rps", "1/s", Higher),
    // hac-remote
    layer("remote.websim_search_us", "us", Lower),
    layer("remote.hac_search_us", "us", Lower),
    // hac-fed
    layer("fed.scatter_overhead_us", "us", Lower),
    layer("fed.scatter_self_us", "us", Lower),
    layer("fed.slowest_shard_share", "ratio", Lower),
    layer("fed.query_p50_us.s1", "us", Lower),
    layer("fed.query_p50_us.s2", "us", Lower),
    layer("fed.query_p50_us.s8", "us", Lower),
    layer("fed.partial_results", "count", Lower),
    layer("fed.replica_objects_per_catchup", "count", Lower),
    layer("fed.replica_bytes_per_catchup", "B", Lower),
    layer("replica_catchup_ms", "ms", Lower),
    // hac-obs
    layer("obs.tracing_overhead_pct.local_query", "%", Lower),
    layer("obs.tracing_overhead_pct.edit_sync", "%", Lower),
    layer("obs.tracing_overhead_pct.remote_serve", "%", Lower),
    layer("obs.tracing_overhead_pct.fed_scatter", "%", Lower),
    layer("obs.spans_dropped", "count", Lower),
    layer("obs.snapshot_us", "us", Lower),
    // all layers
    layer("failed_share", "ratio", Lower),
];

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "local_query",
        "read path, in-process: hac-query, hac-index and hac-core scope/link code do all the work; store, net and fed do none",
    ),
    (
        "edit_sync",
        "write path, durable: file edits, incremental ssync and segment commits through hac-store; read-side gains bought with write cost show here",
    ),
    (
        "remote_serve",
        "wire-bound serving: one HacServer, 2 connections, closed loop and fixed-rate open loop; hac-net owns the latency, the backend is cheap",
    ),
    (
        "fed_scatter",
        "scatter/merge over 4 shards and a semantic mount of the federation; thread-per-shard coordination in hac-fed owns the latency",
    ),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, refused or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric. The name must be in a table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "metric {name} is in no table");
        self.metrics.insert(name, value);
    }

    /// Adds a line to the human-readable output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// metrics of `table`, each with its unit. A metric of the table the
    /// workload did not set reads 0 (the layer did no work).
    pub fn result_line(&self, table: &[MetricDef]) -> Json {
        let metrics = table.iter().map(|m| {
            let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
            (
                m.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Checks a result line against the contract: its four keys, metric
/// names of `[A-Za-z0-9_.-]+` that are exactly those of `table`, finite
/// numbers, and (end-to-end only) no zero.
pub fn validate_line(line: &Json, table: &[MetricDef], nonzero: bool) -> Result<(), String> {
    let obj = line.as_obj().ok_or("result line is not an object")?;
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    if line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) < 1.0 {
        return Err("attempted is below 1".into());
    }
    let metrics = line
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?;
    if metrics.len() != table.len() {
        return Err(format!(
            "{} metrics printed, table has {}",
            metrics.len(),
            table.len()
        ));
    }
    for ((name, m), want) in metrics.iter().zip(table) {
        let well_formed = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !well_formed || name != want.name {
            return Err(format!("metric {name:?} where {:?} was due", want.name));
        }
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        if m.get("unit").and_then(Json::as_str) != Some(want.unit) {
            return Err(format!("metric {name} has the wrong unit"));
        }
        if nonzero && v == 0.0 {
            return Err(format!("end-to-end metric {name} is 0"));
        }
    }
    Ok(())
}

/// The verdict of `compare` on one workload × metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread of either side is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the repeats of one metric on two sides.
pub fn verdict(m: &MetricDef, a: &Repeats, b: &Repeats) -> Verdict {
    if a.median == 0.0 {
        return if b.median == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = B worse than A, as a share of A's median.
    let worse_by = match m.better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if a.spread() > m.bound || b.spread() > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Values of every metric of every workload of a report file:
/// workload → metric → repeats.
pub type Cells = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads the `end_to_end` (or `per_layer`) cells of a report written by
/// `run`.
pub fn cells(report: &Json, table: &str) -> Result<Cells, String> {
    let mut out = Cells::new();
    let workloads = report
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("report has no workloads")?;
    for (w, body) in workloads {
        let metrics = body
            .get(table)
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("workload {w} has no {table}"))?;
        let row = out.entry(w.clone()).or_default();
        for (name, m) in metrics {
            let values = m
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{w}.{name} has no values"))?;
            row.insert(
                name.clone(),
                values.iter().filter_map(Json::as_f64).collect(),
            );
        }
    }
    Ok(out)
}

/// `compare A B`: one row per workload × end-to-end metric with both
/// medians, quartiles, the bound and the verdict; then the per-layer
/// count metrics that differ. Returns the table and whether any cell is
/// `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let (ea, eb) = (cells(a, "end_to_end")?, cells(b, "end_to_end")?);
    let mut out = format!(
        "{:<13} {:<15} {:>12} {:>23} {:>12} {:>23} {:>6}  verdict\n",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    let mut any_worse = false;
    for (w, row) in &ea {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (row.get(m.name), eb.get(w).and_then(|r| r.get(m.name)))
            else {
                return Err(format!("{w}.{} is missing on one side", m.name));
            };
            let (ra, rb) = (Repeats::of(va), Repeats::of(vb));
            let v = verdict(m, &ra, &rb);
            any_worse |= v == Verdict::Worse;
            out.push_str(&format!(
                "{:<13} {:<15} {:>12.3} {:>11.3}..{:<10.3} {:>12.3} {:>11.3}..{:<10.3} {:>5.0}%  {}\n",
                w,
                m.name,
                ra.median,
                ra.q1,
                ra.q3,
                rb.median,
                rb.q1,
                rb.q3,
                m.bound * 100.0,
                v.as_str()
            ));
        }
    }
    let (la, lb) = (cells(a, "per_layer")?, cells(b, "per_layer")?);
    for (w, row) in &la {
        for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
            let (Some(va), Some(vb)) = (row.get(m.name), lb.get(w).and_then(|r| r.get(m.name)))
            else {
                continue;
            };
            // A count repeats exactly: every repeat on both sides is one value.
            if va.iter().chain(vb).any(|v| Some(v) != va.first()) {
                out.push_str(&format!(
                    "count differs: {w} {} A {va:?} B {vb:?}\n",
                    m.name
                ));
            }
        }
    }
    Ok((out, any_worse))
}
