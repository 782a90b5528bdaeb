//! The lock-split, incremental reindex pipeline end to end:
//!
//! * an unchanged tree resynchronizes **zero** semantic directories (and
//!   says so through `hac_resync_semdirs_skipped_total` /
//!   `hac_reindex_dirty_docs`);
//! * a dirty document re-evaluates exactly the directories it can affect —
//!   the term-matching directory plus its transitive dependents — and
//!   nothing else;
//! * queries keep being answered while a large tokenize phase is in
//!   flight (the phase holds no state lock);
//! * cascaded re-evaluations against an unchanged index generation are
//!   served from the query-result cache.
//!
//! The hac-obs registry is process-global and tests run in parallel, so
//! every assertion is a delta against a pre-test snapshot, and which
//! directories an operation re-evaluated is read from that operation's
//! own trace.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hac_core::{HacConfig, HacFs};
use hac_index::transducer::Transducer;
use hac_index::{tokenize_text, Token, TransducerRegistry};
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).unwrap()
}

fn counter_delta(
    before: &hac_obs::Snapshot,
    after: &hac_obs::Snapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> u64 {
    after.counter_value(name, labels).unwrap_or(0) - before.counter_value(name, labels).unwrap_or(0)
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
fn unchanged_tree_ssync_reevaluates_zero_semdirs() {
    let fs = HacFs::new();
    fs.mkdir_p(&p("/warm/docs")).unwrap();
    fs.save(&p("/warm/docs/a.txt"), b"alpha ridge survey")
        .unwrap();
    fs.save(&p("/warm/docs/b.txt"), b"beta join survey")
        .unwrap();
    fs.smkdir(&p("/warm/alphas"), "alpha").unwrap();
    fs.smkdir(&p("/warm/surveys"), "survey").unwrap();

    // Cold pass: indexes the tree and re-evaluates both directories.
    let cold = fs.ssync(&p("/")).unwrap();
    assert!(cold.added >= 2);
    assert_eq!(cold.dirs_synced, 2);

    // Warm pass on the untouched tree: nothing is dirty, so nothing —
    // content or scope — may be re-done.
    let before = hac_obs::snapshot();
    let warm = fs.ssync(&p("/")).unwrap();
    let after = hac_obs::snapshot();

    assert_eq!(warm.added, 0);
    assert_eq!(warm.updated, 0);
    assert_eq!(warm.removed, 0);
    assert_eq!(
        warm.dirs_synced, 0,
        "unchanged tree must resync zero semdirs"
    );
    assert_eq!(
        counter_delta(&before, &after, "hac_resync_semdirs_skipped_total", &[]),
        2,
        "both directories must count as skipped"
    );
    assert_eq!(
        after.gauge_value("hac_reindex_dirty_docs", &[]),
        Some(0),
        "the pass must report an empty dirty set"
    );

    // The links materialized by the cold pass are still there.
    assert!(fs.exists(&p("/warm/alphas/a.txt")));
    assert!(fs.exists(&p("/warm/surveys/a.txt")));
    assert!(fs.exists(&p("/warm/surveys/b.txt")));
}

#[test]
fn dirty_doc_reevaluates_exactly_matching_semdir_and_dependents() {
    let fs = HacFs::new();
    fs.mkdir_p(&p("/precise/docs")).unwrap();
    fs.save(&p("/precise/docs/target.txt"), b"plain filler words")
        .unwrap();
    fs.save(&p("/precise/docs/zebra.txt"), b"zebra crossing")
        .unwrap();
    // A matches on a term; B depends on A through a path reference; C is
    // an unrelated bystander.
    fs.smkdir(&p("/precise/a"), "alpha").unwrap();
    fs.smkdir(&p("/precise/b"), "path(/precise/a)").unwrap();
    fs.smkdir(&p("/precise/c"), "zebra").unwrap();
    fs.ssync(&p("/")).unwrap();

    // The edit makes target.txt match A. Its dirty terms ("alpha",
    // "plain", "filler", "words") intersect A's query; B follows as A's
    // dependent; C's term ("zebra") stays clean.
    fs.write_file(&p("/precise/docs/target.txt"), b"alpha plain filler words")
        .unwrap();
    let before = hac_obs::snapshot();
    let (report, resynced) = resynced_dirs(|| fs.ssync(&p("/")).unwrap());
    let after = hac_obs::snapshot();

    assert_eq!(report.updated, 1);
    assert_eq!(report.dirs_synced, 2, "exactly {{A, B}} must re-evaluate");
    let reevals = |dir: &str| resynced.iter().filter(|d| *d == dir).count();
    assert_eq!(reevals("/precise/a"), 1, "A matches the dirty term");
    assert_eq!(reevals("/precise/b"), 1, "B is A's dependent");
    assert_eq!(reevals("/precise/c"), 0, "C must be skipped");
    assert!(
        counter_delta(&before, &after, "hac_resync_semdirs_skipped_total", &[]) >= 1,
        "the skipped bystander must be counted"
    );

    // And the cascade actually propagated the new result.
    assert!(fs.exists(&p("/precise/a/target.txt")));
    assert!(fs.exists(&p("/precise/b/target.txt")));
    assert!(!fs.exists(&p("/precise/c/target.txt")));
}

/// Stretches the tokenize phase: 15ms per `.slow` file.
struct SlowTransducer;

impl Transducer for SlowTransducer {
    fn name(&self) -> &'static str {
        "slow"
    }

    fn matches(&self, file_name: &str) -> bool {
        file_name.ends_with(".slow")
    }

    fn extract(&self, _file_name: &str, content: &[u8]) -> Vec<Token> {
        std::thread::sleep(Duration::from_millis(15));
        tokenize_text(content)
    }
}

#[test]
fn queries_are_served_while_tokenize_phase_is_in_flight() {
    let mut registry = TransducerRegistry::new();
    registry.register(Box::new(SlowTransducer));
    // One tokenize worker: 30 files × 15ms ≥ 450ms with no state lock held.
    let fs = HacFs::with_config(HacConfig {
        reindex_threads: 1,
        ..Default::default()
    })
    .with_registry(registry);

    fs.mkdir_p(&p("/live/docs")).unwrap();
    fs.save(&p("/live/docs/needle.txt"), b"needle in plain sight")
        .unwrap();
    for i in 0..30 {
        fs.save(
            &p(&format!("/live/docs/bulk{i:02}.slow")),
            format!("bulk content number {i}").as_bytes(),
        )
        .unwrap();
    }
    fs.smkdir(&p("/live/found"), "needle").unwrap();
    fs.ssync(&p("/")).unwrap();

    // Dirty every slow file so the next pass re-tokenizes all of them.
    for i in 0..30 {
        fs.append(&p(&format!("/live/docs/bulk{i:02}.slow")), b" touched")
            .unwrap();
    }

    let done = AtomicBool::new(false);
    let served_during_pass = std::thread::scope(|s| {
        let pass = s.spawn(|| {
            let report = fs.ssync(&p("/")).unwrap();
            done.store(true, Ordering::SeqCst);
            report
        });
        let mut served = 0u64;
        while !done.load(Ordering::SeqCst) {
            let started = Instant::now();
            let hits = fs.search(&p("/live"), "needle").unwrap();
            assert_eq!(hits, vec![p("/live/docs/needle.txt")]);
            let bytes = fs.read_file(&p("/live/docs/needle.txt")).unwrap();
            assert_eq!(&bytes[..], b"needle in plain sight");
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "query stalled behind the tokenize phase"
            );
            if !done.load(Ordering::SeqCst) {
                served += 1;
            }
        }
        let report = pass.join().unwrap();
        assert_eq!(report.updated, 30);
        served
    });
    assert!(
        served_during_pass >= 3,
        "expected queries to complete during the ≥450ms tokenize phase, \
         saw {served_during_pass}"
    );
}

#[test]
fn cascade_reuses_cached_results_on_unchanged_generation() {
    let fs = HacFs::new();
    fs.mkdir_p(&p("/cache/docs")).unwrap();
    fs.save(&p("/cache/docs/hit.txt"), b"memo about caching")
        .unwrap();
    fs.save(&p("/cache/docs/other.txt"), b"unrelated filler")
        .unwrap();

    let before = hac_obs::snapshot();
    fs.smkdir(&p("/cache/memos"), "memo").unwrap();
    let mid = hac_obs::snapshot();
    assert!(
        counter_delta(&before, &mid, "hac_query_cache_misses_total", &[]) >= 1,
        "first evaluation must miss and populate the cache"
    );

    // Renaming an unrelated file cascades a dependent resync through the
    // semdir's scope anchor, but neither the index generation nor the
    // scope's doc set moved — the raw result must come from the cache.
    let ((), resynced) = resynced_dirs(|| {
        fs.rename(&p("/cache/docs/other.txt"), &p("/cache/docs/other2.txt"))
            .unwrap()
    });
    let after = hac_obs::snapshot();
    assert!(
        resynced.iter().any(|d| d == "/cache/memos"),
        "rename under the scope must cascade to the semdir"
    );
    assert!(
        counter_delta(&mid, &after, "hac_query_cache_hits_total", &[]) >= 1,
        "re-evaluation against an unchanged generation must hit the cache"
    );

    // A content change bumps the generation and must invalidate: the next
    // resync may not serve the stale result.
    fs.save(&p("/cache/docs/more.txt"), b"second memo").unwrap();
    fs.ssync(&p("/")).unwrap();
    let end = hac_obs::snapshot();
    assert!(
        counter_delta(&after, &end, "hac_query_cache_misses_total", &[]) >= 1,
        "generation bump must invalidate the cached result"
    );
    assert!(fs.exists(&p("/cache/memos/hit.txt")));
    assert!(fs.exists(&p("/cache/memos/more.txt")));
}

/// The durable-store side of the incremental pipeline: an apply phase
/// seals everything it landed into exactly **one** segment, and a pass
/// that lands nothing writes none.
///
/// The segment counter is process-global, so the store-less tests in this
/// binary contribute zero to it and the deltas below stay exact.
#[test]
fn incremental_apply_writes_exactly_one_segment() {
    let fs = HacFs::new();
    fs.attach_store(std::sync::Arc::new(hac_store::MemStore::new()))
        .unwrap();
    fs.mkdir_p(&p("/seal/docs")).unwrap();
    fs.save(&p("/seal/docs/a.txt"), b"alpha ledger entry")
        .unwrap();
    fs.save(&p("/seal/docs/b.txt"), b"beta ledger entry")
        .unwrap();
    fs.smkdir(&p("/seal/ledgers"), "ledger").unwrap();

    // Cold pass: many docs, still one apply phase, still one segment.
    let before = hac_obs::snapshot();
    fs.ssync(&p("/")).unwrap();
    let cold = hac_obs::snapshot();
    assert_eq!(
        counter_delta(&before, &cold, "hac_store_segments_written_total", &[]),
        1,
        "the cold apply phase must seal one segment"
    );

    // Warm pass on the untouched tree: nothing applied, nothing sealed.
    fs.ssync(&p("/")).unwrap();
    let warm = hac_obs::snapshot();
    assert_eq!(
        counter_delta(&cold, &warm, "hac_store_segments_written_total", &[]),
        0,
        "an empty apply phase may not write a segment"
    );

    // Incremental pass over a single dirty doc: exactly one more segment,
    // regardless of how many semdirs the change cascades through.
    fs.write_file(&p("/seal/docs/a.txt"), b"alpha ledger rewritten")
        .unwrap();
    let report = fs.ssync(&p("/")).unwrap();
    let after = hac_obs::snapshot();
    assert_eq!(report.updated, 1);
    assert_eq!(
        counter_delta(&warm, &after, "hac_store_segments_written_total", &[]),
        1,
        "the incremental apply phase must seal exactly one segment"
    );

    // The sealed trail is replayable: live segment count matches the
    // number of apply phases that landed anything.
    let status = fs.store_status().unwrap();
    assert_eq!(status.segments_live, 2);
}
