//! End-to-end observability: after an `ssync` over a populated tree, the
//! global hac-obs registry must show the reindex pass, the files it
//! indexed, and one query-evaluation latency sample per semantic directory
//! re-evaluated — without one series per directory name. All assertions
//! are deltas against a pre-test snapshot (the registry is process-global
//! and other tests run in parallel); which directories were re-evaluated
//! is read from the operation's own trace, so it is exact.

use hac_core::HacFs;
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).unwrap()
}

/// Runs `f` under a root span and returns the `dir` field of every
/// `semdir_resync` span of that trace, read back from the event ring.
fn resynced_dirs<T>(f: impl FnOnce() -> T) -> (T, Vec<String>) {
    let root = hac_obs::span!("test_root");
    let trace = root.context().expect("tracing is on").trace_id;
    let out = f();
    drop(root);
    let dirs = hac_obs::recent_events()
        .into_iter()
        .filter(|e| e.trace_id == Some(trace) && e.name == "semdir_resync")
        .filter_map(|e| e.fields.into_iter().find(|(k, _)| k == "dir"))
        .map(|(_, dir)| dir)
        .collect();
    (out, dirs)
}

#[test]
fn ssync_populates_the_metrics_registry() {
    let before = hac_obs::snapshot();

    let fs = HacFs::new();
    fs.mkdir_p(&p("/obs_it/docs")).unwrap();
    fs.save(&p("/obs_it/docs/fp.txt"), b"fingerprint ridge survey")
        .unwrap();
    fs.save(&p("/obs_it/docs/db.txt"), b"database join survey")
        .unwrap();
    fs.save(&p("/obs_it/docs/misc.txt"), b"unrelated contents")
        .unwrap();
    fs.smkdir(&p("/obs_it/fp"), "fingerprint").unwrap();
    fs.smkdir(&p("/obs_it/surveys"), "survey").unwrap();

    let (report, resynced) = resynced_dirs(|| fs.ssync(&p("/")).unwrap());
    assert!(report.dirs_synced >= 2);

    let after = hac_obs::snapshot();
    let delta = |name: &str| {
        after.counter_value(name, &[]).unwrap_or(0) - before.counter_value(name, &[]).unwrap_or(0)
    };

    // At least one reindex pass ran.
    assert!(
        delta("hac_ssync_passes_total") >= 1,
        "no ssync pass counted"
    );
    // It indexed a nonzero number of files.
    assert!(
        delta("hac_reindex_files_indexed_total") >= 3,
        "files indexed not counted"
    );

    // Each semantic directory re-evaluated is counted, and its
    // `semdir_resync` span names it…
    assert!(delta("hac_semdir_reeval_total") >= 2);
    for dir in ["/obs_it/fp", "/obs_it/surveys"] {
        assert!(
            resynced.iter().any(|d| d == dir),
            "no re-evaluation traced for {dir}: {resynced:?}"
        );
    }
    // …and contributed a query-eval latency histogram sample.
    let eval_samples = after
        .histogram_count("hac_query_eval_duration_us", &[])
        .unwrap_or(0)
        - before
            .histogram_count("hac_query_eval_duration_us", &[])
            .unwrap_or(0);
    assert!(
        eval_samples >= 2,
        "expected one query-eval sample per semdir, saw {eval_samples}"
    );

    // The dependency cascade was measured.
    assert!(delta("hac_cascade_reevals_total") >= 2);

    // The span API recorded the ssync itself.
    assert!(
        after
            .histogram_count("hac_span_duration_us", &[("span", "ssync")])
            .unwrap_or(0)
            >= 1
    );
    let prom = after.to_prometheus();
    assert!(prom.contains("hac_ssync_passes_total"));
    assert!(prom.contains("hac_query_eval_duration_us_bucket"));
}

#[test]
fn fresh_semdir_names_do_not_grow_the_registry() {
    let fs = HacFs::new();
    fs.mkdir_p(&p("/obs_card/docs")).unwrap();
    fs.save(&p("/obs_card/docs/a.txt"), b"cardinality probe")
        .unwrap();
    fs.ssync(&p("/")).unwrap();
    for i in 0..20 {
        fs.smkdir(&p(&format!("/obs_card/q{i}")), "probe").unwrap();
    }
    let series = hac_obs::snapshot()
        .counters
        .iter()
        .filter(|s| s.id.name == "hac_semdir_reeval_total")
        .count();
    assert_eq!(series, 1, "one series however many semdirs exist");
}
