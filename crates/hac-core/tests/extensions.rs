//! Tests for features beyond the paper's minimum: implicit metadata
//! attributes and index persistence.

use hac_core::HacFs;
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).unwrap()
}

#[test]
fn implicit_name_and_ext_attributes() {
    let fs = HacFs::new();
    fs.mkdir(&p("/docs")).unwrap();
    fs.save(&p("/docs/annual-report.txt"), b"numbers and words")
        .unwrap();
    fs.save(&p("/docs/notes.md"), b"more words").unwrap();
    fs.save(&p("/docs/README"), b"introduction").unwrap();
    fs.ssync(&p("/")).unwrap();

    // Query by extension.
    let hits = fs.search(&p("/"), "ext:txt").unwrap();
    assert_eq!(hits.len(), 1);
    assert!(hits[0].to_string().ends_with("annual-report.txt"));

    // Query by file-name word (hyphen splits into words).
    let hits = fs.search(&p("/"), "name:report").unwrap();
    assert_eq!(hits.len(), 1);
    let hits = fs.search(&p("/"), "name:readme").unwrap();
    assert_eq!(hits.len(), 1);

    // Name words do not pollute content words.
    assert!(fs.search(&p("/"), "report").unwrap().is_empty());

    // And they compose with content queries in semantic directories.
    fs.smkdir(&p("/md-notes"), "words AND ext:md").unwrap();
    assert_eq!(fs.readdir(&p("/md-notes")).unwrap().len(), 1);
}

#[test]
fn index_persistence_warm_start() {
    let fs = HacFs::new();
    fs.mkdir(&p("/docs")).unwrap();
    for i in 0..20 {
        fs.save(
            &p(&format!("/docs/f{i}.txt")),
            format!("word{i} common").as_bytes(),
        )
        .unwrap();
    }
    fs.ssync(&p("/")).unwrap();
    fs.persist_index().unwrap();
    let snapshot = hac_vfs::persist::snapshot(fs.vfs()).unwrap();

    // Restore into a fresh instance and warm-start from the persisted
    // index — no re-tokenization needed before queries work.
    let fresh = HacFs::new();
    hac_vfs::persist::restore(fresh.vfs(), &snapshot).unwrap();
    assert!(fresh.load_index().unwrap());
    assert_eq!(fresh.index_stats().docs, 20);
    assert_eq!(fresh.search(&p("/"), "word7").unwrap().len(), 1);

    // A subsequent ssync reports nothing to do (the index is current).
    let report = fresh.ssync(&p("/")).unwrap();
    assert_eq!((report.added, report.updated, report.removed), (0, 0, 0));

    // Content changed after persist: reconciled by ssync, as usual.
    fresh
        .save(&p("/docs/f0.txt"), b"rewritten entirely")
        .unwrap();
    fresh.ssync(&p("/")).unwrap();
    assert!(fresh.search(&p("/"), "word0").unwrap().is_empty());
    assert_eq!(fresh.search(&p("/"), "rewritten").unwrap().len(), 1);
}

#[test]
fn load_index_absent_returns_false() {
    let fs = HacFs::new();
    let before = hac_obs::snapshot();
    assert!(!fs.load_index().unwrap());
    let absent = hac_obs::snapshot();
    assert_eq!(
        counter_value(&absent, "hac_index_snapshot_decode_failures_total")
            - counter_value(&before, "hac_index_snapshot_decode_failures_total"),
        0,
        "a missing snapshot is not a decode failure"
    );
    // Garbage index file: refused, current index untouched — and counted,
    // so a layout change forcing a full reindex is visible to operators.
    fs.vfs().mkdir_p(&p("/.hac-meta")).unwrap();
    fs.vfs().save(&p("/.hac-meta/index"), b"garbage").unwrap();
    assert!(!fs.load_index().unwrap());
    let after = hac_obs::snapshot();
    assert_eq!(
        counter_value(&after, "hac_index_snapshot_decode_failures_total")
            - counter_value(&absent, "hac_index_snapshot_decode_failures_total"),
        1
    );
}

fn counter_value(snap: &hac_obs::Snapshot, name: &str) -> u64 {
    snap.counter_value(name, &[]).unwrap_or(0)
}

#[test]
fn hacfs_is_send_sync_and_concurrent_reads_survive_ssync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HacFs>();

    let fs = std::sync::Arc::new(HacFs::new());
    fs.mkdir(&p("/docs")).unwrap();
    for i in 0..50 {
        fs.save(
            &p(&format!("/docs/f{i}.txt")),
            format!("token{} shared", i % 5).as_bytes(),
        )
        .unwrap();
    }
    fs.ssync(&p("/")).unwrap();
    fs.smkdir(&p("/t0"), "token0").unwrap();

    // Readers hammer searches and listings while a writer mutates and
    // syncs; nothing may deadlock or panic.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let fs = std::sync::Arc::clone(&fs);
        let stop = std::sync::Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = fs.search(&p("/"), "token1");
                let _ = fs.readdir(&p("/t0"));
                let _ = fs.read_file(&p("/docs/f1.txt"));
                reads += 1;
            }
            reads
        }));
    }
    for i in 0..20 {
        fs.save(&p(&format!("/docs/new{i}.txt")), b"token0 fresh")
            .unwrap();
        fs.ssync(&p("/")).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    // Final state is consistent.
    assert_eq!(fs.readdir(&p("/t0")).unwrap().len(), 10 + 20);
}

#[test]
fn reserved_areas_hidden_from_hac_listings() {
    let fs = HacFs::new();
    fs.mkdir(&p("/visible")).unwrap();
    // Metadata records exist after the mkdir…
    assert!(fs.vfs().exists(&p("/.hac-meta")));
    // …but HAC-level listings of the root never show the reserved areas.
    let names: Vec<String> = fs
        .readdir(&p("/"))
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["visible"]);
    // The raw substrate still exposes them for tooling.
    let raw: Vec<String> = fs
        .vfs()
        .readdir(&p("/"))
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(raw.contains(&".hac-meta".to_string()));
}
