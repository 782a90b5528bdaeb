//! `local_query` — the read path, in-process, no network, no store.
//!
//! A corpus under `/db`, 48 standing semantic directories in a 3-level
//! hierarchy under `/sem`, and one closed-loop client running the seeded
//! mix of [`LOCAL_MIX`](crate::catalogue::LOCAL_MIX) through
//! `HacFs::search`, with a transient `smkdir` every 25th op. A short edit
//! lane (9 content file ops and an unlink, then `ssync("/")`) takes turns
//! with it, so the workload also says what an ordinary file op and an
//! incremental reindex cost on a namespace of this size without a store.

use std::time::Instant;

use hac_core::HacFs;
use hac_corpus::DocCollectionSpec;

use crate::catalogue::{self, Catalogue, Class, LOCAL_MIX, PASSES, SLICE_OPS};
use crate::fixture::{
    check_queries, check_semdirs, deadline, make_semdirs, model_of, p, populate, setup_median,
    vfs_probes, Tally,
};
use crate::lanes::{ssync, Edit, Editor, ReadMix, ReadSamples};
use crate::obs::{overhead_pct, Registry, Tracer};
use crate::oracle::Model;
use crate::report::Outcome;
use crate::stats::{median, p50_chunked, p99_chunked, rate_chunked, time_us};
use crate::workloads::Args;

/// A round of the edit lane: nine content ops (enough of them per
/// `ssync` for a steady median) and the unlink that keeps the namespace
/// from growing.
const EDIT_ROUND: [Edit; 10] = [
    Edit::SaveNew,
    Edit::Overwrite,
    Edit::Append,
    Edit::Overwrite,
    Edit::Append,
    Edit::Overwrite,
    Edit::Append,
    Edit::Overwrite,
    Edit::Append,
    Edit::Unlink,
];

fn build(spec: &DocCollectionSpec, cat: &Catalogue) -> HacFs {
    let fs = HacFs::new();
    populate(fs.vfs(), spec);
    fs.ssync(&p("/")).expect("cold ssync");
    make_semdirs(&fs, cat);
    fs
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<(Outcome, Tally), String> {
    let spec = catalogue::spec(args.sizes.local_docs, args.seed);
    let (mut model, _) = model_of(&spec);
    let mut cat = catalogue::local(&mut model)?;
    let (fs, setup_s) = setup_median(|| build(&spec, &cat), drop);

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    check_semdirs(&fs, &cat, &model, &mut tally);
    check_queries(&fs, &cat, &mut tally);
    if args.trace {
        traced(args, &fs, &cat, &mut out, &mut tally);
    } else {
        out.set("setup_s", setup_s);
        untraced(args, &fs, &mut cat, &mut model, &mut out, &mut tally);
    }
    Ok((out, tally))
}

fn untraced(
    args: &Args,
    fs: &HacFs,
    cat: &mut Catalogue,
    model: &mut Model,
    out: &mut Outcome,
    tally: &mut Tally,
) {
    let mut tracer = Tracer::new();
    let mut editor = Editor::new(args.seed, model, fs, None);
    let (mut fsop_us, mut ssync_ms) = (Vec::new(), Vec::new());
    let mut reads = ReadSamples::default();
    // The two lanes take turns, so that a noisy stretch of the host
    // lands on a part of each and the chunk medians shrug it off.
    for _ in 0..PASSES {
        // Edit lane: a quarter of the window.
        let until = deadline(args.seconds / PASSES as f64, 0.25);
        let rounds_before = ssync_ms.len();
        while ssync_ms.len() == rounds_before || Instant::now() < until {
            for kind in EDIT_ROUND {
                let (us, _, ok) = editor.apply(kind, "", fs, None, model, cat);
                tally.check(ok, || format!("{kind:?} failed"));
                if !kind.is_structural() {
                    fsop_us.push(us);
                }
            }
            let (us, _, ok) = ssync(fs, &mut tracer);
            tally.check(ok, || "ssync failed".into());
            ssync_ms.push(us / 1e3);
        }
        cat.refresh(model);
        check_semdirs(fs, cat, model, tally);

        // Read lane: the rest.
        let mix = ReadMix {
            fs,
            cat,
            mix: &LOCAL_MIX,
            seed: args.seed,
        };
        mix.lane(
            50,
            deadline(args.seconds / PASSES as f64, 0.75),
            &mut tracer,
            &mut reads,
            tally,
        );
    }
    out.set("ops_per_s", rate_chunked(&reads.op_us));
    out.set("query_p50_us", p50_chunked(&reads.search_us));
    out.set("query_p99_us", p99_chunked(&reads.search_us));
    out.set("smkdir_p50_us", median(&reads.smkdir_us));
    out.set("fsop_p50_us", median(&fsop_us));
    out.set("ssync_p50_ms", median(&ssync_ms));
    out.note(format!(
        "samples: {} searches, {} smkdirs, {} content file ops, {} ssyncs",
        reads.search_us.len(),
        reads.smkdir_us.len(),
        fsop_us.len(),
        ssync_ms.len()
    ));
}

fn traced(args: &Args, fs: &HacFs, cat: &Catalogue, out: &mut Outcome, tally: &mut Tally) {
    let mut tracer = Tracer::new();

    // The read mix in slices, each run untraced and traced, so the
    // overhead compares the same ops.
    let mix = ReadMix {
        fs,
        cat,
        mix: &LOCAL_MIX,
        seed: args.seed,
    };
    let (mut plain, mut spans) = (ReadSamples::default(), ReadSamples::default());
    let busy = tracer.replay_slices(SLICE_OPS, deadline(args.seconds, 0.7), |tracer, i| {
        let into = if tracer.enabled() {
            &mut spans
        } else {
            &mut plain
        };
        mix.run(i, tracer, into, tally)
    });

    for class in Class::ALL {
        out.set(
            class.search_metric(),
            median(&plain.by_class[class as usize]),
        );
    }
    out.set("index.eval_self_us", tracer.self_us_per_span("index_eval"));
    out.set(
        "core.query_eval_self_us",
        tracer.self_us_per_span("query_eval"),
    );
    out.set(
        "core.search_self_us",
        tracer.self_us_per_span("bench_search"),
    );
    out.set(
        "core.semdir_resync_self_us",
        tracer.self_us_per_span("semdir_resync"),
    );
    // Over one cycle of the transient directories: exact, so it repeats.
    out.set(
        "core.links_per_smkdir",
        cat.smkdirs.iter().map(|s| s.expect.count).sum::<usize>() as f64
            / cat.smkdirs.len().max(1) as f64,
    );
    out.set("obs.tracing_overhead_pct.local_query", overhead_pct(busy));
    out.set("obs.spans_dropped", tracer.dropped() as f64);
    out.note(format!(
        "traced {} ops; spans read: {}",
        tracer.ops(),
        tracer.collected()
    ));
    out.notes.extend(tracer.profile());

    // Count pass: every catalogue query once; exact, so it repeats.
    let before = Registry::now();
    let mut results = 0u64;
    for q in &cat.queries {
        let hits = fs.search(&p(q.scope.dir()), &q.expr.text());
        results += hits.map_or(0, |h| h.len() as u64);
    }
    let after = Registry::now();
    out.set(
        "index.postings_per_result",
        after.delta(&before, "hac_index_postings_scanned_total") / results.max(1) as f64,
    );
    out.set(
        "index.candidates_per_result",
        after.delta(&before, "hac_index_candidates_total") / results.max(1) as f64,
    );

    probes(args, fs, cat, out);
}

/// Layer probes on this workload's own inputs.
fn probes(args: &Args, fs: &HacFs, cat: &Catalogue, out: &mut Outcome) {
    let texts: Vec<String> = cat.queries.iter().map(|q| q.expr.text()).collect();
    let parse_us: Vec<f64> = (0..50)
        .map(|_| {
            let (_, us) = time_us(|| {
                for t in &texts {
                    std::hint::black_box(hac_query::parse(std::hint::black_box(t)).is_ok());
                }
            });
            us / texts.len() as f64
        })
        .collect();
    out.set("query.parse_us", median(&parse_us));

    vfs_probes(fs, args.seed, out);
    let stats = fs.index_stats();
    out.set(
        "index.bytes_per_doc",
        stats.total_bytes() as f64 / stats.docs.max(1) as f64,
    );
}
