//! The four workloads. Each sets up `SETUPS` times (median → `setup_s`),
//! self-checks its catalogue, measures for `--seconds`, and returns the
//! end-to-end metrics (untraced run) or the per-layer ones (traced run).

pub mod edit_sync;
pub mod fed_scatter;
pub mod local_query;
pub mod mount;
pub mod remote_serve;

use crate::catalogue::Sizes;
use crate::fixture::peak_rss_mb;
use crate::obs::snapshot_us;
use crate::report::Outcome;

/// What a workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Seed of every input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Corpus sizes.
    pub sizes: Sizes,
}

/// Runs a workload by name and adds what every workload reports alike.
pub fn run(name: &str, args: &Args) -> Result<Outcome, String> {
    let (mut out, tally) = match name {
        "local_query" => local_query::run(args),
        "edit_sync" => edit_sync::run(args),
        "remote_serve" => remote_serve::run(args),
        "fed_scatter" => fed_scatter::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    if args.trace {
        out.set("obs.snapshot_us", snapshot_us());
        out.set(
            "failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
    } else {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(out)
}
