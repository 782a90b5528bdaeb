//! # hac-bench — the paper's evaluation, regenerated
//!
//! One module per concern:
//!
//! * [`andrew`] — the five-phase Andrew Benchmark (Tables 1–2 workload);
//! * [`fsops`] — the target abstraction (raw substrate, HAC);
//! * [`baselines`] — Jade-like and Pseudo-like user-level layers (Table 2);
//! * [`tables`] — runners producing each table's rows.
//!
//! Binaries (`cargo run -p hac-bench --release --bin <name>`):
//! `table1`, `table2`, `table3`, `table4`, `overheads`, `all_tables`.
//! Scale knobs are flags, e.g. `--files 17000` for the paper-scale
//! Table 3; defaults are laptop-sized. Performance of the layers beyond
//! the paper (store, wire, federation, tracing) is measured by the
//! separate end-to-end benchmark package under `bench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod andrew;
pub mod baselines;
pub mod fsops;
pub mod tables;

/// Parses `--name value` from the command line, with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    for window in args.windows(2) {
        if window[0] == format!("--{name}") {
            if let Ok(v) = window[1].parse() {
                return v;
            }
        }
    }
    default
}

/// Parses `--name value` from the command line as a string.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for window in args.windows(2) {
        if window[0] == format!("--{name}") {
            return Some(window[1].clone());
        }
    }
    None
}

/// Writes a JSON snapshot of the global hac-obs metrics registry alongside
/// the table output, so a bench run leaves a machine-readable record of
/// the work it did (passes, query latencies, postings scanned, …).
/// The path comes from `--metrics-out <path>`, defaulting to
/// `hac_metrics_<bin>.json` in the working directory.
pub fn dump_metrics_snapshot(bin: &str) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::PathBuf::from(
        arg_str("metrics-out").unwrap_or_else(|| format!("hac_metrics_{bin}.json")),
    );
    std::fs::write(&path, hac_obs::snapshot().to_json())?;
    Ok(path)
}

/// Calls [`dump_metrics_snapshot`] and reports the result on stdout/stderr
/// (shared tail of every table binary).
pub fn report_metrics_snapshot(bin: &str) {
    match dump_metrics_snapshot(bin) {
        Ok(path) => println!("\nmetrics snapshot: {}", path.display()),
        Err(e) => eprintln!("\nmetrics snapshot failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn arg_parsers_fall_back_to_defaults() {
        // The test binary's args don't contain our flags.
        assert_eq!(super::arg_usize("definitely-not-set", 7), 7);
        assert_eq!(super::arg_str("definitely-not-set"), None);
    }
}
