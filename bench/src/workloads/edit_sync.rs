//! `edit_sync` — the write path, durable.
//!
//! A corpus with 16 standing semantic directories and a `VfsStore`
//! attached behind the bench's `CountingStore` (what `hacsh` attaches by
//! default: deterministic, no disk noise). Rounds of eight seeded file ops
//! through `HacFs` — save new, overwrite, append, rename a file, unlink,
//! rename a directory a standing query references — each followed by one
//! `ssync("/")` that commits a segment; `store_maintain` every 16 rounds.
//! Then a short query lane over the edited corpus. The traced run adds
//! the bare-`Vfs` lane, the `ssync` side lanes, restarts, the crash lane
//! and the `FileStore` lane.

use std::sync::Arc;
use std::time::Instant;

use hac_core::{HacFs, VfsStore};
use hac_corpus::DocCollectionSpec;
use hac_index::{DocDelta, DocId, Index};
use hac_store::{CrashStyle, FaultStore, FileStore, MemStore};
use hac_vfs::{persist, Vfs};

use crate::catalogue::{
    self, Catalogue, CRASH_BUDGET, EDIT_MIX, FILE_COMMITS, MAINTAIN_EVERY, PASSES, RESTARTS,
    SIDE_ROUNDS, WEIGH_AT_ROUND,
};
use crate::counting_store::{CountingStore, Counts};
use crate::fixture::{
    check_queries, check_semdirs, deadline, make_semdirs, model_of, p, populate, setup_median,
    vfs_probes, Tally,
};
use crate::lanes::{ssync, Edit, Editor, ReadMix, ReadSamples};
use crate::obs::{Registry, Tracer};
use crate::oracle::Model;
use crate::report::Outcome;
use crate::stats::{median, p50_chunked, p99_chunked, percentile, rate_chunked, sorted, time_us};
use crate::workloads::Args;

const ROUND: [Edit; catalogue::EDITS_PER_ROUND] = [
    Edit::SaveNew,
    Edit::Overwrite,
    Edit::Append,
    Edit::Overwrite,
    Edit::RenameFile,
    Edit::Append,
    Edit::Unlink,
    Edit::RenameDir,
];

struct Built {
    fs: HacFs,
    counts: Arc<Counts>,
    cold_us: f64,
}

fn build(spec: &DocCollectionSpec, cat: &Catalogue) -> Built {
    let fs = HacFs::new();
    populate(fs.vfs(), spec);
    let (store, counts) = CountingStore::new(Arc::new(VfsStore::new(Arc::clone(fs.vfs()))));
    fs.attach_store(Arc::new(store)).expect("attach store");
    let (cold, cold_us) = time_us(|| fs.ssync(&p("/")));
    cold.expect("cold ssync");
    make_semdirs(&fs, cat);
    Built {
        fs,
        counts,
        cold_us,
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<(Outcome, Tally), String> {
    let spec = catalogue::spec(args.sizes.edit_docs, args.seed);
    let (mut model, corpus_bytes) = model_of(&spec);
    let mut cat = catalogue::edit(&mut model)?;
    let mut colds = Vec::new();
    let (built, setup_s) = setup_median(
        || {
            let b = build(&spec, &cat);
            colds.push(b.cold_us);
            b
        },
        drop,
    );

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    check_semdirs(&built.fs, &cat, &model, &mut tally);
    check_queries(&built.fs, &cat, &mut tally);
    let mut lane = Lane {
        args,
        fs: &built.fs,
        counts: &built.counts,
        corpus_bytes,
        cat: &mut cat,
        model: &mut model,
        tally: &mut tally,
    };
    if args.trace {
        out.set(
            "index_docs_per_s",
            spec.files as f64 / (median(&colds) / 1e6),
        );
        lane.traced(&spec, &mut out);
    } else {
        out.set("setup_s", setup_s);
        lane.untraced(&mut out);
    }
    Ok((out, tally))
}

/// Samples of the edit rounds.
#[derive(Default)]
struct Rounds {
    /// Content ops (save, overwrite, append) through `HacFs`, µs.
    fsop_us: Vec<f64>,
    /// The same ops on the bare namespace, µs.
    raw_us: Vec<f64>,
    /// Structural ops (rename, unlink) through `HacFs`, µs.
    structural_us: Vec<f64>,
    /// `ssync` per round, ms, by whether the round was traced.
    ssync_ms: [Vec<f64>; 2],
    /// Busy time of each round (file ops, `ssync`, maintenance when due)
    /// by whether the round was traced, µs.
    busy_us: [Vec<f64>; 2],
    dirs_synced: Vec<f64>,
    maintain_ms: Vec<f64>,
    done: usize,
}

struct Lane<'a> {
    args: &'a Args,
    fs: &'a HacFs,
    counts: &'a Counts,
    corpus_bytes: u64,
    cat: &'a mut Catalogue,
    model: &'a mut Model,
    tally: &'a mut Tally,
}

impl Lane<'_> {
    /// One edit round: eight file ops, one `ssync`, maintenance when due.
    fn round(
        &mut self,
        editor: &mut Editor,
        raw: Option<&Vfs>,
        tracer: &mut Tracer,
        acc: &mut Rounds,
    ) {
        // Each round salts its new text with the term of one standing
        // `few` directory, so every round dirties a directory of each class.
        let salt = self.cat.sems[acc.done % 7].query.text();
        let traced = usize::from(tracer.enabled());
        let mut hac_us = 0.0;
        for kind in ROUND {
            let (us, raw, ok) = editor.apply(kind, &salt, self.fs, raw, self.model, self.cat);
            self.tally.check(ok, || format!("{kind:?} failed"));
            hac_us += us;
            if kind.is_structural() {
                acc.structural_us.push(us);
            } else {
                acc.fsop_us.push(us);
                acc.raw_us.push(raw);
            }
        }
        let (us, report, ok) = ssync(self.fs, tracer);
        self.tally.check(ok, || "ssync failed".into());
        acc.ssync_ms[traced].push(us / 1e3);
        let mut busy = hac_us + us;
        acc.dirs_synced.push(report.dirs_synced as f64);
        acc.done += 1;
        if acc.done.is_multiple_of(MAINTAIN_EVERY) {
            let (r, us) = tracer.op("bench_maintain", || self.fs.store_maintain());
            self.tally
                .check(r.is_ok(), || "store_maintain failed".into());
            acc.maintain_ms.push(us / 1e3);
            busy += us;
        }
        acc.busy_us[traced].push(busy);
    }

    fn verify_after_edits(&mut self) {
        self.cat.refresh(self.model);
        check_semdirs(self.fs, self.cat, self.model, self.tally);
        check_queries(self.fs, self.cat, self.tally);
    }

    fn untraced(&mut self, out: &mut Outcome) {
        let mut tracer = Tracer::new();
        let mut editor = Editor::new(self.args.seed, self.model, self.fs, None);
        let mut acc = Rounds::default();
        let mut reads = ReadSamples::default();
        let share = self.args.seconds / PASSES as f64;
        // The two lanes take turns (see `local_query`).
        for _ in 0..PASSES {
            let until = deadline(share, 0.6);
            let floor = acc.done + 4;
            while acc.done < floor || Instant::now() < until {
                self.round(&mut editor, None, &mut tracer, &mut acc);
            }
            self.verify_after_edits();
            let mix = ReadMix {
                fs: self.fs,
                cat: self.cat,
                mix: &EDIT_MIX,
                seed: self.args.seed,
            };
            mix.lane(
                50,
                deadline(share, 0.4),
                &mut tracer,
                &mut reads,
                self.tally,
            );
        }
        // File edits applied *and* synced per second.
        out.set(
            "ops_per_s",
            ROUND.len() as f64 * rate_chunked(&acc.busy_us[0]),
        );
        out.set("query_p50_us", p50_chunked(&reads.search_us));
        out.set("query_p99_us", p99_chunked(&reads.search_us));
        out.set("smkdir_p50_us", median(&reads.smkdir_us));
        out.set("fsop_p50_us", median(&acc.fsop_us));
        out.set("ssync_p50_ms", median(&acc.ssync_ms[0]));
        out.note(format!(
            "samples: {} rounds of {} file ops and one ssync, {} searches, {} smkdirs",
            acc.done,
            ROUND.len(),
            reads.search_us.len(),
            reads.smkdir_us.len()
        ));
    }

    fn traced(&mut self, spec: &DocCollectionSpec, out: &mut Outcome) {
        let mut tracer = Tracer::new();
        // The interposition lane: the same edit trace on a bare namespace,
        // op by op, so drift lands on both alike.
        let raw = Vfs::new();
        populate(&raw, spec);
        let mut editor = Editor::new(self.args.seed, self.model, self.fs, Some(&raw));
        let mut acc = Rounds::default();
        let reg0 = Registry::now();
        let puts0 = (self.counts.puts(), self.counts.commits());
        let bytes0 = self.counts.bytes_written();
        let until = deadline(self.args.seconds, 0.45);
        let mut weighed = false;
        while acc.done < WEIGH_AT_ROUND || Instant::now() < until {
            tracer.slice(acc.done % 2 == 1);
            self.round(&mut editor, Some(&raw), &mut tracer, &mut acc);
            // Counts are taken at a fixed round, so they repeat exactly
            // however many rounds the window allows.
            if acc.done == WEIGH_AT_ROUND {
                self.weigh(&reg0, puts0, bytes0, &editor, &acc, out);
                weighed = true;
            }
        }
        tracer.slice(false);
        if !weighed {
            self.weigh(&reg0, puts0, bytes0, &editor, &acc, out);
        }
        self.verify_after_edits();

        out.set("vfs.raw_fsop_p50_us", median(&acc.raw_us));
        out.set("core.structural_fsop_p50_us", median(&acc.structural_us));
        let all_ssync: Vec<f64> = acc.ssync_ms.iter().flatten().copied().collect();
        out.set("ssync_p90_ms", percentile(&sorted(all_ssync), 90.0));
        out.set(
            "core.ssync_plan_apply_self_us",
            tracer.self_us_per_span("ssync"),
        );
        out.set(
            "core.ssync_tokenize_us",
            tracer.total_us_per_span("ssync_tokenize"),
        );
        out.set(
            "core.ssync_resync_us",
            tracer.total_us_per_span("ssync_resync"),
        );
        out.set(
            "core.semdir_resync_self_us",
            tracer.self_us_per_span("semdir_resync"),
        );
        out.set(
            "core.query_eval_self_us",
            tracer.self_us_per_span("query_eval"),
        );
        out.set("index.eval_self_us", tracer.self_us_per_span("index_eval"));
        out.set("store.commit_us", tracer.total_us_per_span("store_commit"));
        out.set(
            "obs.tracing_overhead_pct.edit_sync",
            (median(&acc.busy_us[1]) / median(&acc.busy_us[0]) - 1.0) * 100.0,
        );
        out.note(format!(
            "{} rounds, half traced; spans read: {}",
            acc.done,
            tracer.collected()
        ));

        self.side_lanes(&mut editor, &mut tracer, out);
        self.restarts(&mut tracer, out);
        out.set("obs.spans_dropped", tracer.dropped() as f64);
        out.notes.extend(tracer.profile());
        let ok = crash_lane(self.args.seed);
        self.tally.check(ok, || {
            "an acknowledged commit was lost across the crash".into()
        });
        out.set("store.crash_recovered_ok", f64::from(u8::from(ok)));
        match file_store_lane(self.args.seed) {
            Ok(us) => out.set("store.file_commit_us", us),
            Err(e) => {
                self.tally.check(false, || format!("FileStore lane: {e}"));
            }
        }
        self.probes(spec, out);
    }

    /// The exact counts, at round `WEIGH_AT_ROUND`.
    fn weigh(
        &mut self,
        reg0: &Registry,
        (puts0, commits0): (u64, u64),
        bytes0: u64,
        editor: &Editor,
        acc: &Rounds,
        out: &mut Outcome,
    ) {
        let reg = Registry::now();
        let delta = |name: &str| reg.delta(reg0, name);
        let (hits, misses) = (
            delta("hac_query_cache_hits_total"),
            delta("hac_query_cache_misses_total"),
        );
        out.set(
            "core.result_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        out.set("core.semdirs_resynced_per_round", median(&acc.dirs_synced));
        out.set(
            "store.puts_per_commit",
            (self.counts.puts() - puts0) as f64 / (self.counts.commits() - commits0).max(1) as f64,
        );
        out.set(
            "store.bytes_written_per_user_byte",
            (self.counts.bytes_written() - bytes0) as f64 / editor.user_bytes.max(1) as f64,
        );
        out.set("store.maintain_ms_total", acc.maintain_ms.iter().sum());
        out.set("store.merges", delta("hac_store_segments_merged_total"));
        out.set("store.checkpoints", delta("hac_store_checkpoints_total"));
        let status = self.fs.store_status();
        self.tally
            .check(status.is_ok(), || "store_status failed".into());
        if let Ok(status) = status {
            out.set("store.segments_live_at_end", status.segments_live as f64);
            // Every object the store holds, garbage included: what the
            // "disk" carries per byte of the user's corpus.
            out.set(
                "store_bytes_per_user_byte",
                status.object_bytes as f64 / self.corpus_bytes as f64,
            );
        }
    }

    /// Ten rounds each of an unchanged-tree, a 1-file and a many-file
    /// `ssync`.
    fn side_lanes(&mut self, editor: &mut Editor, tracer: &mut Tracer, out: &mut Outcome) {
        for (name, files) in [
            ("core.ssync_warm_ms", 0),
            ("core.ssync_1file_ms", 1),
            ("core.ssync_64file_ms", self.args.sizes.many_files),
        ] {
            let mut ms = Vec::new();
            for _ in 0..SIDE_ROUNDS {
                for _ in 0..files {
                    let (_, _, ok) =
                        editor.apply(Edit::Append, "", self.fs, None, self.model, self.cat);
                    self.tally.check(ok, || "append failed".into());
                }
                let (us, report, ok) = ssync(self.fs, tracer);
                // Appends may pick one document twice.
                let changed = report.added + report.updated + report.removed;
                self.tally.check(ok && changed <= files as u64, || {
                    format!("{name}: ssync reindexed {changed} files for {files} edits")
                });
                ms.push(us / 1e3);
            }
            out.set(name, median(&ms));
        }
    }

    /// Restarts: snapshot the namespace, restore it into a fresh
    /// instance, recover metadata, attach the store, load the index; the
    /// next `ssync` must find nothing to do and every answer must still
    /// equal the oracle's.
    fn restarts(&mut self, tracer: &mut Tracer, out: &mut Outcome) {
        self.cat.refresh(self.model);
        let (mut snap_ms, mut restore_ms, mut recovery_ms) = (Vec::new(), Vec::new(), Vec::new());
        tracer.slice(true);
        for _ in 0..RESTARTS {
            let (image, us) = time_us(|| persist::snapshot(self.fs.vfs()));
            snap_ms.push(us / 1e3);
            let Ok(image) = image else {
                self.tally.check(false, || "snapshot failed".into());
                continue;
            };
            let fresh = HacFs::new();
            let (warm, us) = tracer.op("bench_recover", || {
                let (restored, us) = time_us(|| persist::restore(fresh.vfs(), &image));
                restore_ms.push(us / 1e3);
                restored.is_ok()
                    && fresh.recover_metadata().is_ok()
                    && fresh
                        .attach_store(Arc::new(VfsStore::new(Arc::clone(fresh.vfs()))))
                        .is_ok()
                    && fresh.load_index().unwrap_or(false)
            });
            recovery_ms.push(us / 1e3);
            self.tally
                .check(warm, || "restart did not warm-start from the store".into());
            let zero = fresh
                .ssync(&p("/"))
                .is_ok_and(|r| r.added + r.updated + r.removed == 0);
            self.tally
                .check(zero, || "ssync after restart found work to do".into());
            check_semdirs(&fresh, self.cat, self.model, self.tally);
            check_queries(&fresh, self.cat, self.tally);
        }
        tracer.slice(false);
        out.set("vfs.snapshot_ms", median(&snap_ms));
        out.set("vfs.restore_ms", median(&restore_ms));
        out.set("recovery_ms", median(&recovery_ms));
        out.set(
            "store.recover_us",
            tracer.total_us_per_span("store_recover"),
        );
    }

    fn probes(&mut self, spec: &DocCollectionSpec, out: &mut Outcome) {
        // Tokenizer and index apply on up to 1 000 of the corpus's own
        // documents, outside any HacFs.
        let vfs = Vfs::new();
        let col = populate(&vfs, spec);
        let bodies: Vec<_> = col
            .files
            .iter()
            .take(1000)
            .filter_map(|f| vfs.read_file(f).ok())
            .collect();
        let n = bodies.len().max(1) as f64;
        let (deltas, us) = time_us(|| {
            bodies
                .iter()
                .enumerate()
                .map(|(i, b)| DocDelta {
                    doc: DocId(i as u64),
                    version: 1,
                    tokens: hac_index::tokenize_text(b),
                })
                .collect::<Vec<_>>()
        });
        out.set("index.tokenize_us_per_doc", us / n);
        let mut index = Index::new(Default::default());
        let (_, us) = time_us(|| index.apply_delta(&deltas, &[]));
        out.set("index.apply_us_per_doc", us / n);

        let stats = self.fs.index_stats();
        out.set(
            "index.bytes_per_doc",
            stats.total_bytes() as f64 / stats.docs.max(1) as f64,
        );
        vfs_probes(self.fs, self.args.seed, out);
    }
}

/// The durability check: commits go through a `FaultStore` that tears the
/// `CRASH_BUDGET`-th mutating op and fails everything after it. The
/// instance is dropped; a fresh one opens the *inner* store — only the
/// bytes it accepted — and every document whose `ssync` completed before
/// the crash must be found by a search, without another `ssync`.
fn crash_lane(seed: u64) -> bool {
    let inner = Arc::new(MemStore::new());
    let fault = Arc::new(FaultStore::new(
        Arc::clone(&inner) as _,
        CRASH_BUDGET,
        CrashStyle::Torn,
    ));
    let fs = HacFs::new();
    populate(fs.vfs(), &catalogue::spec(40, seed));
    if fs.attach_store(Arc::clone(&fault) as _).is_err() {
        return false;
    }
    let mut acknowledged = Vec::new();
    for k in 0..CRASH_BUDGET {
        let marker = format!("crashmark{k}x");
        let path = p(&format!("/db/crash{k}.txt"));
        if fs
            .save(&path, format!("durable {marker}").as_bytes())
            .is_err()
            || fs.ssync(&p("/")).is_err()
        {
            return false;
        }
        if fault.has_crashed() {
            break;
        }
        acknowledged.push((marker, path));
    }
    if !fault.has_crashed() || acknowledged.is_empty() {
        return false;
    }
    // The namespace is the simulated disk's other half; files written
    // before the crash are on it.
    let Ok(image) = persist::snapshot(fs.vfs()) else {
        return false;
    };
    drop(fs);
    let fresh = HacFs::new();
    let reopened = persist::restore(fresh.vfs(), &image).is_ok()
        && fresh.recover_metadata().is_ok()
        && fresh.attach_store(inner as _).is_ok()
        && fresh.load_index().unwrap_or(false);
    reopened
        && acknowledged.iter().all(|(marker, path)| {
            fresh
                .search(&p("/"), marker)
                .is_ok_and(|hits| hits == [path.clone()])
        })
}

/// `FILE_COMMITS` one-file commits on a `FileStore` in a directory of the
/// checkout (real rename + fsync on the sandbox's disk): mean
/// `store_commit` span, µs. Informational.
fn file_store_lane(seed: u64) -> Result<f64, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_tmp")
        .join(format!("filestore-{}", std::process::id()));
    let result = (|| {
        let store = FileStore::open(&dir).map_err(|e| e.to_string())?;
        let fs = HacFs::new();
        let col = populate(fs.vfs(), &catalogue::spec(40, seed));
        fs.attach_store(Arc::new(store))
            .map_err(|e| e.to_string())?;
        fs.ssync(&p("/")).map_err(|e| e.to_string())?;
        let mut tracer = Tracer::new();
        tracer.slice(true);
        for i in 0..FILE_COMMITS {
            let path = &col.files[i % col.files.len()];
            fs.append(path, format!(" filecommit{i}").as_bytes())
                .map_err(|e| e.to_string())?;
            let (_, _, ok) = ssync(&fs, &mut tracer);
            if !ok {
                return Err("ssync on FileStore failed".to_string());
            }
        }
        tracer.slice(false);
        Ok(tracer.total_us_per_span("store_commit"))
    })();
    // Leave nothing behind, whatever happened.
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}
