//! Runs every table at default scale (what EXPERIMENTS.md records).
//!
//! `cargo run -p hac-bench --release --bin all_tables`

use hac_bench::arg_usize;
use hac_bench::tables::{ms, print_table, run_overheads, run_table1, run_table2, run_table3};
use hac_corpus::{DocCollectionSpec, SourceTreeSpec};

fn main() {
    let tree = SourceTreeSpec {
        modules: arg_usize("modules", 16),
        files_per_module: arg_usize("files-per-module", 10),
        functions_per_file: 3,
        statements: 6,
        seed: 11,
    };
    let docs = DocCollectionSpec {
        files: arg_usize("files", 2000),
        mean_words: arg_usize("words", 150),
        vocab: 8000,
        ..Default::default()
    };
    let iters = arg_usize("iters", 12);

    // Table 1.
    let t1 = run_table1(&tree, iters);
    print_table(
        "Table 1: Results of Andrew Benchmark (milliseconds)",
        &["Phase", "UNIX (ms)", "HAC (ms)", "HAC/UNIX"],
        &t1.rows(),
    );
    println!(
        "HAC total slowdown: {:.1}% (paper: 46-50%)",
        t1.slowdown_percent()
    );

    // Table 2.
    let rows = run_table2(&tree, iters);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                ms(r.total),
                format!("{:.1}", r.slowdown_percent),
                r.paper_percent.map(|v| v.to_string()).unwrap_or_default(),
            ]
        })
        .collect();
    print_table(
        "Table 2: Comparison with other user-level file systems",
        &[
            "File System",
            "Andrew total (ms)",
            "% slowdown",
            "% slowdown (paper)",
        ],
        &table,
    );

    // Table 3.
    let t3 = run_table3(&docs);
    print_table(
        "Table 3: Indexing time and space",
        &["Configuration", "Time (ms)", "Index+metadata bytes"],
        &[
            vec![
                "Glimpse on UNIX".into(),
                ms(t3.raw_time),
                t3.raw_space.to_string(),
            ],
            vec![
                "Glimpse via HAC".into(),
                ms(t3.hac_time),
                t3.hac_space.to_string(),
            ],
        ],
    );
    println!(
        "time overhead: {:.1}% (paper: 27%)   space overhead: {:.1}% (paper: 15%)",
        t3.time_overhead_percent(),
        t3.space_overhead_percent()
    );

    // Table 4, both index modes.
    for (label, granularity) in [
        ("block-addressed index", hac_index::Granularity::default()),
        ("exact index", hac_index::Granularity::Exact),
    ] {
        let rows = hac_bench::tables::run_table4_with(&docs, iters.max(3), granularity);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.class.to_string(),
                    r.matches.to_string(),
                    ms(r.search_time),
                    ms(r.smkdir_time),
                    format!("{:.2}x", r.ratio()),
                ]
            })
            .collect();
        print_table(
            &format!("Table 4: search vs semantic-directory creation — {label}"),
            &[
                "Class",
                "Matches",
                "search (ms)",
                "smkdir (ms)",
                "smkdir/search",
            ],
            &table,
        );
    }

    // In-text overheads.
    let o = run_overheads(&tree, &docs);
    print_table(
        "In-text overheads (§4)",
        &["Quantity", "Measured"],
        &[
            vec![
                "UNIX namespace metadata (bytes)".into(),
                o.unix_bytes.to_string(),
            ],
            vec![
                "HAC namespace+metadata (bytes)".into(),
                o.hac_bytes.to_string(),
            ],
            vec![
                "HAC space overhead (%)".into(),
                format!("{:.1}", o.space_overhead_percent()),
            ],
            vec![
                "Per-process memory (bytes)".into(),
                o.per_process_bytes.to_string(),
            ],
            vec![
                format!("Result bitmap, N={} (bytes)", o.n_docs),
                o.bitmap_bytes.to_string(),
            ],
        ],
    );

    hac_bench::report_metrics_snapshot("all_tables");
}
