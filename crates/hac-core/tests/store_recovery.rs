//! Crash recovery: persistence killed at every mutation point, in both
//! fail-stop and torn-write styles, must recover to an *exact* commit
//! point — never a partial state — and one `ssync` after recovery must
//! converge to the latest content.
//!
//! The "machine" is a `HacFs` whose durable media are (a) a VFS content
//! snapshot and (b) a [`MemStore`] shared across "reboots". The crash is
//! injected with [`FaultStore`], which kills the store after a budgeted
//! number of mutations; the VFS itself never crashes (the paper's CBA
//! layer owns index durability, not file durability).

use std::sync::Arc;

use hac_core::HacFs;
use hac_store::{ContentStore, CrashStyle, FaultStore, FileStore, MemStore};
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).unwrap()
}

const TERMS: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "shared", "mutated", "newdoc",
];

/// Everything recovery must reproduce exactly: per-term results, doc
/// count, and the index generation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexState {
    hits: Vec<(String, Vec<String>)>,
    docs: u64,
    generation: u64,
}

fn capture(fs: &HacFs) -> IndexState {
    let hits = TERMS
        .iter()
        .map(|t| {
            let mut paths: Vec<String> = fs
                .search(&p("/"), t)
                .unwrap()
                .into_iter()
                .map(|v| v.to_string())
                .collect();
            paths.sort();
            (t.to_string(), paths)
        })
        .collect();
    IndexState {
        hits,
        docs: fs.index_stats().docs,
        generation: fs.index_generation(),
    }
}

/// Builds the corpus and runs pass 1 (`ssync`).
fn build_and_pass1(fs: &HacFs) {
    fs.mkdir_p(&p("/docs")).unwrap();
    fs.save(&p("/docs/a.txt"), b"alpha shared").unwrap();
    fs.save(&p("/docs/b.txt"), b"beta shared").unwrap();
    fs.save(&p("/docs/c.txt"), b"gamma shared").unwrap();
    fs.ssync(&p("/")).unwrap();
}

/// Mutates content and runs pass 2 (`ssync`): an update, a removal, and
/// an addition, so the pass-2 segment carries both adds and removes.
fn mutate_and_pass2(fs: &HacFs) {
    fs.save(&p("/docs/a.txt"), b"alpha mutated").unwrap();
    fs.unlink(&p("/docs/b.txt")).unwrap();
    fs.save(&p("/docs/d.txt"), b"delta shared newdoc").unwrap();
    fs.ssync(&p("/")).unwrap();
}

/// Runs the full two-pass scenario against a store that dies after
/// `budget` mutations, returning the machine and the durable medium
/// (which survives the "reboot").
fn run_scenario(budget: u64, style: CrashStyle) -> (HacFs, Arc<dyn ContentStore>) {
    let durable: Arc<dyn ContentStore> = Arc::new(MemStore::new());
    let faulty = Arc::new(FaultStore::new(Arc::clone(&durable), budget, style));
    let fs = HacFs::new();
    fs.attach_store(faulty as Arc<dyn ContentStore>).unwrap();
    build_and_pass1(&fs);
    mutate_and_pass2(&fs);
    (fs, durable)
}

/// "Reboots the machine": restores the crashed namespace into a fresh
/// `HacFs`, re-attaches the (post-crash) durable store, and recovers.
fn reboot(crashed: &HacFs, durable: Arc<dyn ContentStore>) -> HacFs {
    let bytes = hac_vfs::persist::snapshot(crashed.vfs()).unwrap();
    let fresh = HacFs::new();
    hac_vfs::persist::restore(fresh.vfs(), &bytes).unwrap();
    fresh.recover_metadata().unwrap();
    fresh.attach_store(durable).unwrap();
    fresh.load_index().unwrap();
    fresh
}

#[test]
fn crash_matrix_recovers_to_exact_commit_points() {
    // The live end state, with no store attached (the behavior baseline).
    let reference = HacFs::new();
    build_and_pass1(&reference);
    mutate_and_pass2(&reference);
    let live_end = capture(&reference);

    // Learn the commit boundaries from one clean counted run.
    let durable: Arc<dyn ContentStore> = Arc::new(MemStore::new());
    let counting = Arc::new(FaultStore::counting(Arc::clone(&durable)));
    let fs = HacFs::new();
    fs.attach_store(Arc::clone(&counting) as Arc<dyn ContentStore>)
        .unwrap();
    build_and_pass1(&fs);
    let pass1_ops = counting.mutations();
    mutate_and_pass2(&fs);
    let total_ops = counting.mutations();
    assert!(pass1_ops >= 3, "pass 1 must hit the store: {pass1_ops}");
    assert!(total_ops > pass1_ops, "pass 2 must hit the store too");
    assert_eq!(
        capture(&fs),
        live_end,
        "store attachment must not change results"
    );

    // The only legal recovery outcomes: the durable state at each commit
    // boundary (no commit, after pass 1, after pass 2), each reconciled
    // against the final namespace on load. A budget exactly at a boundary
    // is a clean prefix — no commit is ever interrupted.
    let boundaries: Vec<IndexState> = [0, pass1_ops, total_ops]
        .into_iter()
        .map(|b| {
            let (fs, durable) = run_scenario(b, CrashStyle::Fail);
            capture(&reboot(&fs, durable))
        })
        .collect();
    assert_eq!(
        boundaries[2], live_end,
        "a crash-free run must recover exactly the live end state"
    );

    for style in [CrashStyle::Fail, CrashStyle::Torn] {
        for budget in 0..=total_ops {
            let (fs, durable) = run_scenario(budget, style);
            // The crash never poisons the in-memory index.
            assert_eq!(
                capture(&fs),
                live_end,
                "style {style:?} budget {budget}: in-memory state corrupted"
            );

            let back = reboot(&fs, Arc::clone(&durable));
            let recovered = capture(&back);
            assert!(
                boundaries.contains(&recovered),
                "style {style:?} budget {budget}: recovered a PARTIAL state:\n\
                 {recovered:#?}\nexpected one of the three commit boundaries"
            );
            if budget >= total_ops {
                assert_eq!(
                    recovered, boundaries[2],
                    "no crash (budget {budget}) must recover the final state"
                );
            }

            // One reconciliation pass converges on the live content.
            back.ssync(&p("/")).unwrap();
            let converged = capture(&back);
            assert_eq!(
                (&converged.hits, converged.docs),
                (&live_end.hits, live_end.docs),
                "style {style:?} budget {budget}: ssync after recovery did not converge"
            );

            // And the repaired store now survives a clean reboot, replaying
            // to exactly the converged state.
            let again = reboot(&back, Arc::clone(&durable));
            assert_eq!(
                capture(&again),
                capture(&back),
                "style {style:?} budget {budget}: second recovery diverged"
            );
        }
    }
}

#[test]
fn file_store_survives_a_torn_mid_commit_crash() {
    let dir = std::env::temp_dir().join(format!(
        "hac-store-recovery-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let durable: Arc<dyn ContentStore> = Arc::new(FileStore::open(&dir).unwrap());

    // Die during the pass-2 commit, after the WAL append and segment put
    // (each commit is 5 store mutations; budget 7 tears the manifest put).
    // The sealed WAL record must carry the commit through recovery.
    let faulty = Arc::new(FaultStore::new(Arc::clone(&durable), 7, CrashStyle::Torn));
    let fs = HacFs::new();
    fs.attach_store(faulty as Arc<dyn ContentStore>).unwrap();
    build_and_pass1(&fs);
    mutate_and_pass2(&fs);
    let state2 = capture(&fs);

    let back = reboot(&fs, Arc::clone(&durable));
    assert_eq!(
        capture(&back),
        state2,
        "WAL tail must complete the interrupted on-disk commit"
    );
    let report = back.ssync(&p("/")).unwrap();
    assert_eq!(report.added + report.updated + report.removed, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_beats_cold_reindex_on_warm_start() {
    // A durable store makes load_index a real warm start: after recovery
    // the next ssync re-tokenizes nothing.
    let durable: Arc<dyn ContentStore> = Arc::new(MemStore::new());
    let fs = HacFs::new();
    fs.attach_store(Arc::clone(&durable)).unwrap();
    build_and_pass1(&fs);
    let state1 = capture(&fs);

    let back = reboot(&fs, durable);
    assert_eq!(capture(&back), state1);
    let report = back.ssync(&p("/")).unwrap();
    assert_eq!(report.added, 0, "recovered index must be warm");
    assert_eq!(report.updated, 0);
    assert_eq!(report.removed, 0);
}

#[test]
fn corrupt_manifest_degrades_to_cold_rebuild_then_heals() {
    let durable = Arc::new(MemStore::new());
    let fs = HacFs::new();
    fs.attach_store(Arc::clone(&durable) as Arc<dyn ContentStore>)
        .unwrap();
    build_and_pass1(&fs);
    let state1 = capture(&fs);

    // Smash the manifest object the `current` ref points at.
    let manifest_hash = durable.get_ref("current").unwrap().unwrap();
    durable.put_raw(manifest_hash, b"not a manifest").unwrap();

    // Reboot: attachment survives (fresh lineage), recovery reports
    // nothing usable, the index cold-rebuilds, and the next commit heals
    // the store.
    let bytes = hac_vfs::persist::snapshot(fs.vfs()).unwrap();
    let fresh = HacFs::new();
    hac_vfs::persist::restore(fresh.vfs(), &bytes).unwrap();
    fresh.recover_metadata().unwrap();
    fresh
        .attach_store(Arc::clone(&durable) as Arc<dyn ContentStore>)
        .unwrap();
    assert!(
        !fresh.load_index().unwrap(),
        "corrupt manifest: no warm start"
    );
    fresh.ssync(&p("/")).unwrap();
    let rebuilt = capture(&fresh);
    assert_eq!((&rebuilt.hits, rebuilt.docs), (&state1.hits, state1.docs));

    // The rebuild committed a fresh lineage: a clean reboot now recovers.
    let again = reboot(&fresh, durable);
    let replayed = capture(&again);
    assert_eq!((&replayed.hits, replayed.docs), (&state1.hits, state1.docs));
}

#[test]
fn legacy_snapshots_load_only_with_the_envelope_and_future_versions_degrade() {
    use hac_core::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

    // A store-less fs persists the versioned single-file snapshot.
    let fs = HacFs::new();
    build_and_pass1(&fs);
    let state1 = capture(&fs);
    fs.persist_index().unwrap();
    let index_path = p("/.hac-meta/index");
    let bytes = fs.vfs().read_file(&index_path).unwrap();
    assert_eq!(
        &bytes[..4],
        &SNAPSHOT_MAGIC,
        "snapshot carries the envelope"
    );
    assert_eq!(bytes[4], SNAPSHOT_VERSION);

    let restore = |mutate: &dyn Fn(&mut Vec<u8>)| {
        let snapshot = hac_vfs::persist::snapshot(fs.vfs()).unwrap();
        let fresh = HacFs::new();
        hac_vfs::persist::restore(fresh.vfs(), &snapshot).unwrap();
        fresh.recover_metadata().unwrap();
        let mut raw = fresh.vfs().read_file(&index_path).unwrap().to_vec();
        mutate(&mut raw);
        fresh.vfs().save(&index_path, &raw).unwrap();
        fresh
    };

    // Versioned snapshot loads.
    let versioned = restore(&|_| {});
    assert!(versioned.load_index().unwrap());
    assert_eq!(capture(&versioned), state1);

    // A pre-envelope (headerless) snapshot is refused as a counted decode
    // failure; the next ssync rebuilds cold.
    let failures = || {
        hac_obs::snapshot()
            .counter_value("hac_index_snapshot_decode_failures_total", &[])
            .unwrap_or(0)
    };
    let failures_before = failures();
    let headerless = restore(&|raw| {
        raw.drain(..5);
    });
    assert!(!headerless.load_index().unwrap());
    assert!(failures() > failures_before);

    // The tagged layout's version 1 and a future version are refused
    // gracefully (counted skew, cold rebuild).
    let skews = || {
        hac_obs::snapshot()
            .counter_value("hac_index_snapshot_version_skew_total", &[])
            .unwrap_or(0)
    };
    for version in [1, SNAPSHOT_VERSION + 1] {
        let skew_before = skews();
        let skewed = restore(&|raw| raw[4] = version);
        assert!(!skewed.load_index().unwrap(), "version {version}");
        assert_eq!(skews(), skew_before + 1, "version {version}");
        skewed.ssync(&p("/")).unwrap();
        let rebuilt = capture(&skewed);
        assert_eq!((&rebuilt.hits, rebuilt.docs), (&state1.hits, state1.docs));
    }

    // Garbage is refused too (counted decode failure).
    let garbage = restore(&|raw| {
        raw.clear();
        raw.extend_from_slice(b"\xff\xfe\xfd junk");
    });
    assert!(!garbage.load_index().unwrap());
}

#[test]
fn daemon_tick_merges_segments_under_threshold() {
    let fs = HacFs::with_config(hac_core::HacConfig {
        store_merge_threshold: 3,
        ..Default::default()
    });
    fs.attach_store(Arc::new(MemStore::new())).unwrap();
    fs.mkdir_p(&p("/docs")).unwrap();
    // Seven passes, each committing one segment.
    for i in 0..7 {
        fs.save(
            &p(&format!("/docs/f{i}.txt")),
            format!("doc number {i}").as_bytes(),
        )
        .unwrap();
        fs.ssync(&p("/")).unwrap();
    }
    let before = fs.store_status().unwrap();
    assert_eq!(before.segments_live, 7);

    // The daemon's tick = ssync + store_maintain.
    fs.store_maintain().unwrap();
    let after = fs.store_status().unwrap();
    assert_eq!(
        after.segments_live, 3,
        "merge folds the oldest run back to the threshold"
    );

    // The merged run still recovers the same index.
    let state = capture(&fs);
    let back = reboot(&fs, fs.store().unwrap().backend());
    assert_eq!(capture(&back), state);

    // When the delta run outweighs the index, maintenance checkpoints.
    for i in 0..7 {
        fs.save(
            &p(&format!("/docs/f{i}.txt")),
            format!("rewritten {i}").as_bytes(),
        )
        .unwrap();
        fs.ssync(&p("/")).unwrap();
    }
    fs.store_maintain().unwrap();
    let tiered = fs.store_status().unwrap();
    assert!(
        tiered.base_present && tiered.segments_live == 0,
        "oversized delta run must checkpoint into a base: {tiered:?}"
    );
    let back = reboot(&fs, fs.store().unwrap().backend());
    assert_eq!(capture(&back), capture(&fs));
}
