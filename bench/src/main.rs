//! Command line of the benchmark.
//!
//! ```text
//! hac-e2e-bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! hac-e2e-bench run [--seed N] [--seconds S] [--repeats K] [--out FILE] [--smoke]
//! hac-e2e-bench compare A.json B.json
//! hac-e2e-bench manifest
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the result object. `run` runs every
//! workload, untraced then traced, each in a child process of its own
//! (fresh metrics registry, own peak memory), and writes a report;
//! `compare` judges two reports; `manifest` prints `BENCHMARK.json` from
//! the metric tables (a test checks the committed file against them).

use std::process::{Command, ExitCode, Stdio};

use hac_e2e_bench::catalogue::{self, Sizes};
use hac_e2e_bench::json::Json;
use hac_e2e_bench::report::{self, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use hac_e2e_bench::workloads::{self, Args};

/// `--name value` from the command line.
fn arg(args: &[String], name: &str) -> Option<String> {
    args.windows(2)
        .find(|w| w[0] == format!("--{name}"))
        .map(|w| w[1].clone())
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == &format!("--{name}"))
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match arg(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} {v:?} is not a valid value")),
        None => Ok(default),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("manifest") => {
            println!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hac-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The run header: what a number depends on besides the code.
fn header(seed: u64, seconds: f64, sizes: &Sizes) -> Json {
    let tool = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("commit", Json::str(tool("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(tool("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("setups_per_run", Json::Num(catalogue::SETUPS as f64)),
        (
            "docs",
            Json::obj([
                ("local_query", Json::Num(sizes.local_docs as f64)),
                ("edit_sync", Json::Num(sizes.edit_docs as f64)),
                ("remote_serve", Json::Num(sizes.remote_docs as f64)),
                ("fed_scatter", Json::Num(sizes.fed_docs as f64)),
            ]),
        ),
        ("generator_threads", Json::Num(2.0)),
        (
            "library_default_threads",
            Json::obj([
                (
                    "server_workers",
                    Json::Num(hac_net::ServerConfig::default().workers as f64),
                ),
                ("server_event_loops", Json::Num(1.0)),
                (
                    "reindex_threads",
                    Json::Num(hac_core::HacConfig::default().effective_reindex_threads() as f64),
                ),
                ("fed_scatter_threads_per_query", Json::str("one per shard")),
            ]),
        ),
    ])
}

/// One run of one workload: the contract the driver speaks.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let workload = arg(args, "workload").ok_or("--workload is required (or `run`, `compare`)")?;
    let seed: u64 = parsed(args, "seed", 1)?;
    let seconds: f64 = parsed(args, "seconds", f64::from(RUN_SECONDS))?;
    let trace = match arg(args, "trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside 0..=60"));
    }
    let sizes = if flag(args, "smoke") {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let table: &[MetricDef] = if trace { PER_LAYER } else { END_TO_END };

    println!("# {}", header(seed, seconds, &sizes).render());
    println!("# workload {workload} trace {}", u8::from(trace));
    let outcome = workloads::run(
        &workload,
        &Args {
            seed,
            seconds,
            trace,
            sizes,
        },
    )?;
    for line in &outcome.notes {
        println!("# {line}");
    }
    for m in table {
        println!(
            "{:<40} {:>16.4} {}",
            m.name,
            outcome.metrics.get(m.name).copied().unwrap_or(0.0),
            m.unit
        );
    }
    let line = outcome.result_line(table);
    report::validate_line(&line, table, !trace)?;
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, untraced then traced, each in its own child process.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = parsed(args, "seed", 1)?;
    let smoke = flag(args, "smoke");
    let seconds: f64 = parsed(
        args,
        "seconds",
        if smoke { 1.0 } else { f64::from(RUN_SECONDS) },
    )?;
    let repeats: usize = parsed(args, "repeats", 1)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sizes = if smoke { Sizes::SMOKE } else { Sizes::FULL };

    let mut workloads_json = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let mut tables = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for (table_name, table, trace) in [
            ("end_to_end", END_TO_END, "0"),
            ("per_layer", PER_LAYER, "1"),
        ] {
            let mut values: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
            for rep in 0..repeats {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()]);
                if smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                if !output.status.success() {
                    return Err(format!("{workload} --trace {trace} failed:\n{stdout}"));
                }
                if rep == 0 {
                    print!("{stdout}");
                }
                let last = stdout.lines().last().unwrap_or("");
                let line = Json::parse(last)
                    .map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
                report::validate_line(&line, table, trace == "0")?;
                all_correct &= line.get("correct") == Some(&Json::Bool(true));
                attempted += line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                failed += line.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                for (i, m) in table.iter().enumerate() {
                    let v = line
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|mv| mv.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    values[i].push(v);
                }
            }
            let cells = table.iter().zip(values).map(|(m, v)| {
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("values", Json::Arr(v.into_iter().map(Json::Num).collect())),
                    ]),
                )
            });
            tables.push((table_name, Json::obj(cells)));
        }
        tables.push(("attempted", Json::Num(attempted)));
        tables.push(("failed", Json::Num(failed)));
        workloads_json.push((*workload, Json::obj(tables)));
    }
    let report = Json::obj([
        ("header", header(seed, seconds, &sizes)),
        ("repeats", Json::Num(repeats as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        return Err("metric tables exceed the contract's limits".into());
    }
    match arg(args, "out") {
        Some(path) => {
            std::fs::write(&path, report.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
            println!("# report written to {path}");
        }
        None => println!("{}", report.render()),
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Seconds one run measures for, as `BENCHMARK.json` states it.
const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json`, one entry per line.
fn manifest() -> String {
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
    ];
    let metric = |m: &MetricDef, bound: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if bound {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        Json::Arr(command.iter().map(|c| Json::str(*c)).collect()).render(),
        list(
            WORKLOADS
                .iter()
                .map(|(name, why)| Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))]))
                .collect()
        ),
        list(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        list(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

/// `compare A.json B.json`.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|s| Json::parse(&s).map_err(|e| format!("{path}: {e}")))
    };
    let (table, any_worse) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
