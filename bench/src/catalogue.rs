//! The single table of the benchmark: corpus sizes, lane shares, mix
//! weights, ladder rates, and the named query catalogue with its
//! selectivity bands.
//!
//! Terms are chosen by frequency rank (`Vocabulary::word_at_rank`), then
//! every catalogue query's *measured* hit count — a brute-force scan of
//! the generated corpus — is checked against its band. A seed whose
//! corpus cannot fill the catalogue aborts the run before anything is
//! measured.

use std::collections::HashSet;

use hac_corpus::{DocCollectionSpec, Vocabulary};

use crate::oracle::{Digest, Expr, Model, Scope, SemDef};

/// Mean words per generated document.
pub const MEAN_WORDS: usize = 80;
/// Vocabulary size of every corpus.
pub const VOCAB: usize = 8000;
/// Files per corpus directory.
pub const FILES_PER_DIR: usize = 100;
/// How many times a run sets up, to report the median set-up time.
pub const SETUPS: usize = 5;

/// Arrival rates of the open-loop ladder, requests per second.
pub const LADDER_RPS: [u32; 5] = [1000, 2000, 5000, 10000, 20000];
/// The ladder step whose latency is `query_p50_us` / `query_p99_us` of
/// `remote_serve`.
pub const OPEN_LOOP_RPS: u32 = 5000;
/// Latency limit a ladder step must meet at its tail percentile, µs.
pub const LATENCY_LIMIT_US: f64 = 2000.0;
/// A step fails when more than this share of its requests was still
/// unsent at the end of its window.
pub const BACKLOG_LIMIT: f64 = 0.01;

/// Corpus and structure sizes of the four workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `local_query`: documents.
    pub local_docs: usize,
    /// `edit_sync`: documents.
    pub edit_docs: usize,
    /// `remote_serve`: documents behind the server.
    pub remote_docs: usize,
    /// `fed_scatter`: documents over all shards.
    pub fed_docs: usize,
    /// Local documents of the importing `HacFs` in the two mount lanes.
    pub mount_docs: usize,
    /// `fed_scatter`: documents a replica round writes on the primary.
    pub replica_batch: usize,
    /// `fed_scatter`: documents of the replica primary before the rounds.
    pub replica_docs: usize,
    /// Files the 64-file `ssync` side lane touches.
    pub many_files: usize,
}

impl Sizes {
    /// The gated sizes. The measured window of a run (`run_seconds` of
    /// `BENCHMARK.json`) and the cost of a whole-namespace `ssync` (it
    /// grows faster than the square of the namespace at this commit: 3 ms
    /// at 300 documents, 160 ms at 1 500) set them, not the paper's 17 000
    /// files: `edit_sync` must fit a hundred rounds in its share.
    pub const FULL: Sizes = Sizes {
        local_docs: 2000,
        edit_docs: 600,
        remote_docs: 2000,
        fed_docs: 4000,
        mount_docs: 200,
        replica_batch: 64,
        replica_docs: 512,
        many_files: 64,
    };

    /// `--smoke`: everything small enough for a whole `run` in seconds.
    pub const SMOKE: Sizes = Sizes {
        local_docs: 300,
        edit_docs: 300,
        remote_docs: 300,
        fed_docs: 400,
        mount_docs: 60,
        replica_batch: 8,
        replica_docs: 32,
        many_files: 8,
    };
}

/// The corpus spec every lane derives from `--seed`.
pub fn spec(files: usize, seed: u64) -> DocCollectionSpec {
    DocCollectionSpec {
        files,
        mean_words: MEAN_WORDS,
        vocab: VOCAB,
        files_per_dir: FILES_PER_DIR,
        seed,
    }
}

/// Query classes of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// One term, about 0.5 % of the documents.
    Point,
    /// One term, about 5 %.
    Needle,
    /// One term, more than half.
    Many,
    /// AND / OR / AND NOT of two or three terms.
    Boolean,
    /// Searched inside a subdirectory or a semantic directory.
    Scoped,
    /// A term AND a reference to a standing semantic directory.
    DirRef,
}

impl Class {
    /// Every class, in mix order.
    pub const ALL: [Class; 6] = [
        Class::Point,
        Class::Needle,
        Class::Many,
        Class::Boolean,
        Class::Scoped,
        Class::DirRef,
    ];

    /// The per-class caller-median metric of the traced read lane.
    pub fn search_metric(self) -> &'static str {
        match self {
            Class::Point => "core.search_p50_us.point",
            Class::Needle => "core.search_p50_us.needle",
            Class::Many => "core.search_p50_us.many",
            Class::Boolean => "core.search_p50_us.boolean",
            Class::Scoped => "core.search_p50_us.scoped",
            Class::DirRef => "core.search_p50_us.dirref",
        }
    }

    /// Suffix of the per-class metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Needle => "needle",
            Class::Many => "many",
            Class::Boolean => "boolean",
            Class::Scoped => "scoped",
            Class::DirRef => "dirref",
        }
    }
}

/// Selectivity classes as `(target, tolerance)` shares of the corpus:
/// terms are the ones whose measured document frequency is closest to
/// the target, and a query whose hit count leaves `target ± tolerance`
/// aborts the run.
pub const POINT: (f64, f64) = (0.005, 0.002);
/// Needle: about 5 %.
pub const NEEDLE: (f64, f64) = (0.05, 0.01);
/// Many: more than half.
pub const MANY: (f64, f64) = (0.6, 0.1);
/// The remote needle: about an eighth, so the reply is codec-bound.
pub const REMOTE_NEEDLE: (f64, f64) = (0.12, 0.015);

/// Mix weights by class, in [`Class::ALL`] order (they sum to 100).
pub const LOCAL_MIX: [u32; 6] = [60, 8, 2, 10, 10, 10];
/// `edit_sync` query lane: point / needle / many / boolean at the root
/// (the 2 % of broad queries are where the p99 sits, as in `LOCAL_MIX`).
pub const EDIT_MIX: [u32; 6] = [58, 20, 2, 20, 0, 0];
/// `remote_serve`: 70 % point search, 20 % needle search, 10 % fetch
/// (fetch takes the `Many` slot: the remote mix has no broad query).
pub const REMOTE_MIX: [u32; 3] = [70, 20, 10];
/// `fed_scatter`: 80 % point, 20 % needle.
pub const FED_MIX: [u32; 2] = [80, 20];

/// The lanes of an untraced run take turns this many times, so that a
/// noisy stretch of the host lands on a part of each lane.
pub const PASSES: usize = 3;
/// One `smkdir` per this many searches in the read lanes.
pub const SEARCHES_PER_SMKDIR: usize = 24;
/// File ops per edit round.
pub const EDITS_PER_ROUND: usize = 8;
/// `store_maintain` every this many edit rounds.
pub const MAINTAIN_EVERY: usize = 16;
/// The edit round after whose maintenance step the store is weighed.
pub const WEIGH_AT_ROUND: usize = 32;
/// Rounds of each `ssync` side lane (warm, 1-file, 64-file) and restarts.
pub const SIDE_ROUNDS: usize = 10;
/// Restarts of the recovery lane.
pub const RESTARTS: usize = 5;
/// Commits of the `FileStore` side lane.
pub const FILE_COMMITS: usize = 50;
/// Mutating store ops the crash lane lets through before tearing one.
pub const CRASH_BUDGET: u64 = 23;
/// Ops per traced or untraced slice of a traced lane.
pub const SLICE_OPS: usize = 32;

/// A named catalogue query with its band and expected answer.
#[derive(Debug, Clone)]
pub struct Query {
    /// Stable name (`point03`, `scoped01`, …).
    pub name: String,
    /// Class.
    pub class: Class,
    /// Where it is searched.
    pub scope: Scope,
    /// What is searched.
    pub expr: Expr,
    /// Inclusive hit-count band.
    pub band: (usize, usize),
    /// The oracle's answer (refreshed after edits).
    pub expect: Digest,
}

/// A transient `smkdir` of a read lane.
#[derive(Debug, Clone)]
pub struct Smkdir {
    /// Where it is created (and removed).
    pub path: String,
    /// Its query.
    pub query: Expr,
    /// Expected links.
    pub expect: Digest,
}

/// Everything a workload asks of one corpus.
#[derive(Debug, Clone, Default)]
pub struct Catalogue {
    /// Standing semantic directories, in creation order.
    pub sems: Vec<SemDef>,
    /// The query catalogue.
    pub queries: Vec<Query>,
    /// Transient `smkdir`s, cycled.
    pub smkdirs: Vec<Smkdir>,
    /// Query indices by class, in [`Class::ALL`] order.
    members: [Vec<usize>; 6],
}

impl Catalogue {
    /// Indices of the queries of one class.
    pub fn of(&self, class: Class) -> &[usize] {
        &self.members[class as usize]
    }

    /// Follows a directory rename in every `path(...)` reference, as the
    /// system's rename-stable query references do.
    pub fn rename_dir(&mut self, from: &str, to: &str) {
        fn walk(e: &mut Expr, from: &str, to: &str) {
            match e {
                Expr::Dir(p) if p == from => *p = to.to_string(),
                Expr::And(a, b) | Expr::Or(a, b) | Expr::AndNot(a, b) => {
                    walk(a, from, to);
                    walk(b, from, to);
                }
                _ => {}
            }
        }
        for s in &mut self.sems {
            walk(&mut s.query, from, to);
        }
    }

    /// Installs the standing directories in the model and refreshes every
    /// expected answer from it (after set-up and after every batch of
    /// edits).
    pub fn refresh(&mut self, model: &mut Model) {
        model.set_semdirs(&self.sems);
        for q in &mut self.queries {
            q.expect = Digest::of(model.search(&q.scope, &q.expr));
        }
        for s in &mut self.smkdirs {
            s.expect = Digest::of(model.links_if_created(&s.path, &s.query));
        }
    }

    /// The start-up self-check: every query's measured hit count sits in
    /// its band, every standing directory links something.
    pub fn check(&self, model: &Model) -> Result<(), String> {
        for q in &self.queries {
            let (lo, hi) = q.band;
            if q.expect.count < lo || q.expect.count > hi {
                return Err(format!(
                    "catalogue query {} ({}) has {} hits, outside its band {lo}..={hi}",
                    q.name,
                    q.expr.text(),
                    q.expect.count
                ));
            }
        }
        for s in &self.sems {
            if model.links_of(&s.path).is_empty() {
                return Err(format!("standing directory {} links nothing", s.path));
            }
        }
        for s in &self.smkdirs {
            if s.expect.count == 0 {
                return Err(format!("transient directory {} links nothing", s.path));
            }
        }
        Ok(())
    }
}

/// The hit-count band `target ± tolerance`, both shares of the corpus size.
fn band(docs: usize, target: f64, tolerance: f64) -> (usize, usize) {
    let lo = (docs as f64 * (target - tolerance)).floor().max(1.0) as usize;
    let hi = (docs as f64 * (target + tolerance)).ceil() as usize;
    (lo, hi.max(lo + 1))
}

/// Picks terms by measured document frequency.
pub struct Picker {
    /// `(word, rank, document frequency)` of every vocabulary word that
    /// occurs.
    words: Vec<(String, usize, usize)>,
    docs: usize,
    taken: HashSet<String>,
}

impl Picker {
    /// A picker over `model`'s corpus.
    pub fn new(model: &Model) -> Picker {
        let vocab = Vocabulary::new(VOCAB, 1.0);
        let df = model.doc_freqs();
        Picker {
            words: (0..VOCAB)
                .filter_map(|rank| {
                    let w = vocab.word_at_rank(rank);
                    df.get(w).map(|&n| (w.to_string(), rank, n))
                })
                .collect(),
            docs: model.len(),
            taken: HashSet::new(),
        }
    }

    /// The `n` unused words whose document frequency is closest to
    /// `target` (a share of the corpus), all within `tolerance` of it.
    /// Closest first, so that what a query costs varies as little with
    /// the seed as the corpus allows; ties go to the more frequent rank.
    pub fn terms(
        &mut self,
        what: &str,
        n: usize,
        target: f64,
        tolerance: f64,
    ) -> Result<Vec<String>, String> {
        let (lo, hi) = band(self.docs, target, tolerance);
        let want = self.docs as f64 * target;
        let mut fit: Vec<&(String, usize, usize)> = self
            .words
            .iter()
            .filter(|(w, _, df)| (lo..=hi).contains(df) && !self.taken.contains(w))
            .collect();
        fit.sort_by(|a, b| {
            let (da, db) = ((a.2 as f64 - want).abs(), (b.2 as f64 - want).abs());
            da.total_cmp(&db).then(a.1.cmp(&b.1))
        });
        if fit.len() < n {
            return Err(format!(
                "only {} of {n} {what} terms have {lo}..={hi} hits in this corpus",
                fit.len()
            ));
        }
        let out: Vec<String> = fit[..n].iter().map(|(w, _, _)| w.clone()).collect();
        self.taken.extend(out.iter().cloned());
        Ok(out)
    }
}

/// `build(term)` for the first of `terms`, tried from `from` and
/// wrapping, that has a hit in `scope`.
fn first_hit(
    model: &Model,
    scope: &Scope,
    terms: &[&String],
    from: usize,
    build: impl Fn(&str) -> Expr,
) -> Result<Expr, String> {
    (0..terms.len())
        .map(|k| build(terms[(from + k) % terms.len()]))
        .find(|expr| !model.search(scope, expr).is_empty())
        .ok_or_else(|| format!("no catalogue term has a hit in {scope:?}"))
}

fn query(name: String, class: Class, scope: Scope, expr: Expr, band: (usize, usize)) -> Query {
    Query {
        name,
        class,
        scope,
        expr,
        band,
        expect: Digest::default(),
    }
}

/// The single-term queries of a corpus and the terms behind them.
struct Terms {
    queries: Vec<Query>,
    point: Vec<String>,
    needle: Vec<String>,
    many: Vec<String>,
}

/// Single-term queries of the three selectivity classes, searched at `/`.
fn term_queries(
    pick: &mut Picker,
    docs: usize,
    points: usize,
    needles: usize,
    manys: usize,
) -> Result<Terms, String> {
    let point = pick.terms("point", points, POINT.0, POINT.1)?;
    let needle = pick.terms("needle", needles, NEEDLE.0, NEEDLE.1)?;
    let many = pick.terms("many", manys, MANY.0, MANY.1)?;
    let mut queries = Vec::new();
    for (class, terms, (target, tolerance)) in [
        (Class::Point, &point, POINT),
        (Class::Needle, &needle, NEEDLE),
        (Class::Many, &many, MANY),
    ] {
        for (i, t) in terms.iter().enumerate() {
            queries.push(query(
                format!("{}{i:02}", class.name()),
                class,
                Scope::Root,
                Expr::term(t),
                band(docs, target, tolerance),
            ));
        }
    }
    Ok(Terms {
        queries,
        point,
        needle,
        many,
    })
}

/// Boolean queries over already-picked terms, searched at `/`. Each shape
/// takes the first combination of terms that has a hit: the intersection
/// of two given 5 % terms may well be empty.
fn boolean_queries(
    model: &Model,
    point: &[String],
    needle: &[String],
    many: &[String],
) -> Result<Vec<Query>, String> {
    let t = |s: &String| Expr::term(s);
    let pairs = || {
        (0..needle.len()).flat_map(|i| (i + 1..needle.len()).map(move |j| (&needle[i], &needle[j])))
    };
    let mut shapes: Vec<Vec<Expr>> = vec![
        pairs().map(|(a, b)| Expr::and(t(a), t(b))).collect(),
        vec![Expr::or(t(&needle[2]), t(&point[0]))],
        pairs().map(|(a, b)| Expr::and_not(t(a), t(b))).collect(),
        vec![Expr::or(Expr::or(t(&point[1]), t(&point[2])), t(&point[3]))],
    ];
    if let Some(m) = many.first() {
        shapes.push(
            pairs()
                .map(|(a, b)| Expr::and_not(Expr::and(t(m), t(a)), t(b)))
                .collect(),
        );
        shapes.push(point.iter().map(|p| Expr::and(t(m), t(p))).collect());
    }
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, candidates)| {
            let expr = candidates
                .into_iter()
                .find(|e| !model.search(&Scope::Root, e).is_empty())
                .ok_or_else(|| format!("no term combination of boolean shape {i} has a hit"))?;
            Ok(query(
                format!("boolean{i:02}"),
                Class::Boolean,
                Scope::Root,
                expr,
                (1, model.len()),
            ))
        })
        .collect()
}

/// The `local_query` catalogue: 48 standing directories in a 3-level
/// hierarchy under `/sem`, the six query classes, and eight transient
/// `smkdir`s (six needle-selectivity at `/`, one point, one nested).
pub fn local(model: &mut Model) -> Result<Catalogue, String> {
    let docs = model.len();
    let mut pick = Picker::new(model);
    let tops = pick.terms("top-level", 3, 0.15, 0.03)?;
    let kids = pick.terms("child", 3, 0.40, 0.08)?;
    let grands = pick.terms("grandchild", 4, 0.25, 0.05)?;
    let Terms {
        mut queries,
        point,
        needle,
        many,
    } = term_queries(&mut pick, docs, 32, 8, 2)?;
    let few = pick.terms("smkdir", 1, POINT.0, POINT.1)?;
    let wide = pick.terms("smkdir", 7, NEEDLE.0, NEEDLE.1)?;

    let mut sems = Vec::new();
    for (i, top) in tops.iter().enumerate() {
        sems.push(SemDef {
            path: format!("/sem/t{i}"),
            query: Expr::term(top),
        });
        for (j, kid) in kids.iter().enumerate() {
            sems.push(SemDef {
                path: format!("/sem/t{i}/c{j}"),
                query: Expr::term(kid),
            });
            for (k, grand) in grands.iter().enumerate() {
                sems.push(SemDef {
                    path: format!("/sem/t{i}/c{j}/g{k}"),
                    query: Expr::term(grand),
                });
            }
        }
    }

    queries.extend(boolean_queries(model, &point, &needle, &many)?);
    let anything = (1, docs);
    // Queries evaluated inside a scope take the first needle term (then
    // many term) that has a hit there: a narrow scope of a small corpus
    // may hold none of a given term.
    model.set_semdirs(&sems);
    let narrow: Vec<&String> = needle.iter().chain(&many).collect();
    let dirs = docs.div_ceil(FILES_PER_DIR);
    // Scoped: three inside a corpus subdirectory (scope = a subtree walk),
    // three inside a standing directory (scope = its link set).
    for i in 0..3 {
        let subtree = Scope::Subtree(format!("/db/d{:04}", (i * 3 + 1) % dirs));
        let expr = first_hit(model, &subtree, &[&many[i % 2]], 0, Expr::term)?;
        queries.push(query(
            format!("scoped{i:02}"),
            Class::Scoped,
            subtree,
            expr,
            anything,
        ));
        let sem = Scope::Sem(format!("/sem/t{i}"));
        let expr = first_hit(model, &sem, &narrow, i, Expr::term)?;
        queries.push(query(
            format!("scoped{:02}", i + 3),
            Class::Scoped,
            sem,
            expr,
            anything,
        ));
    }
    for i in 0..4 {
        let dir = format!("/sem/t{}/c{}", i % 3, i % 2);
        let expr = first_hit(model, &Scope::Root, &narrow, i, |t| {
            Expr::and(Expr::term(t), Expr::Dir(dir.clone()))
        })?;
        queries.push(query(
            format!("dirref{i:02}"),
            Class::DirRef,
            Scope::Root,
            expr,
            anything,
        ));
    }

    // Six of eight are needle-selectivity at `/`, so the median `smkdir`
    // sits inside that cluster, not between two kinds.
    let nested = first_hit(
        model,
        &Scope::Sem("/sem/t0".to_string()),
        &wide[6..].iter().chain(&many).collect::<Vec<_>>(),
        0,
        Expr::term,
    )?;
    let at_root = |t: &String| ("/tmpq", Expr::term(t));
    let smkdirs = [
        at_root(&wide[0]),
        at_root(&few[0]),
        at_root(&wide[1]),
        at_root(&wide[2]),
        ("/sem/t0/tmpq", nested),
        at_root(&wide[3]),
        at_root(&wide[4]),
        at_root(&wide[5]),
    ]
    .into_iter()
    .map(|(path, query)| Smkdir {
        path: path.to_string(),
        query,
        expect: Digest::default(),
    })
    .collect();

    finish(
        Catalogue {
            sems,
            queries,
            smkdirs,
            ..Catalogue::default()
        },
        model,
    )
}

/// The `edit_sync` catalogue: 16 standing directories (7 few, 6 needle,
/// 2 many, 1 directory reference), point / needle / boolean queries at
/// `/`, five transient `smkdir`s (four at `/`, one nested).
pub fn edit(model: &mut Model) -> Result<Catalogue, String> {
    let docs = model.len();
    let mut pick = Picker::new(model);
    let few = pick.terms("few", 7, POINT.0, POINT.1)?;
    let mid = pick.terms("needle", 6, NEEDLE.0, NEEDLE.1)?;
    let broad = pick.terms("many", 2, MANY.0, MANY.1)?;
    let Terms {
        mut queries,
        point,
        needle,
        ..
    } = term_queries(&mut pick, docs, 32, 8, 0)?;
    let extra = pick.terms("smkdir", 5, NEEDLE.0, NEEDLE.1)?;
    // The broad queries reuse the two `many` directories' terms: few
    // words of a small corpus are that frequent.
    for (i, t) in broad.iter().enumerate() {
        queries.push(query(
            format!("many{i:02}"),
            Class::Many,
            Scope::Root,
            Expr::term(t),
            band(docs, MANY.0, MANY.1),
        ));
    }
    queries.extend(boolean_queries(model, &point, &needle, &broad)?);

    let mut sems = Vec::new();
    for (i, t) in few.iter().enumerate() {
        sems.push(SemDef {
            path: format!("/q/few{i}"),
            query: Expr::term(t),
        });
    }
    for (i, t) in broad.iter().enumerate() {
        sems.push(SemDef {
            path: format!("/q/many{i}"),
            query: Expr::term(t),
        });
    }
    // None of them nested under another: at this commit a semantic
    // directory nested in one that links a renamed file or directory keeps
    // a stale result after the next `ssync` (README, "What the first full
    // run says"), and this workload renames both every round. Nesting is
    // `local_query`'s business.
    for (i, t) in mid.iter().enumerate() {
        sems.push(SemDef {
            path: format!("/q/needle{i}"),
            query: Expr::term(t),
        });
    }
    // The directory reference: a term inside a corpus subdirectory that
    // the edit rounds rename back and forth.
    sems.push(SemDef {
        path: "/q/ref".to_string(),
        query: Expr::and(Expr::term(&broad[0]), Expr::Dir(RENAMED_DIR.0.to_string())),
    });

    let smkdirs = [
        ("/tmpq", &extra[0]),
        ("/tmpq", &extra[1]),
        ("/q/many0/tmpq", &extra[4]),
        ("/tmpq", &extra[2]),
        ("/tmpq", &extra[3]),
    ]
    .into_iter()
    .map(|(path, term)| Smkdir {
        path: path.to_string(),
        query: Expr::term(term),
        expect: Digest::default(),
    })
    .collect();
    finish(
        Catalogue {
            sems,
            queries,
            smkdirs,
            ..Catalogue::default()
        },
        model,
    )
}

/// The corpus directory the `edit_sync` rounds rename (and its other name).
pub const RENAMED_DIR: (&str, &str) = ("/db/d0001", "/db/d0001x");

/// The remote catalogues (`remote_serve`, `fed_scatter`): point queries
/// of at most three hits, needle queries of about an eighth of
/// the corpus (the reply is codec-bound), all at the remote root.
pub fn remote(model: &mut Model, points: usize, needles: usize) -> Result<Catalogue, String> {
    let docs = model.len();
    let mut pick = Picker::new(model);
    let one = 1.0 / docs as f64;
    let point = pick.terms("remote point", points, 2.0 * one, one)?;
    let needle = pick.terms("remote needle", needles, REMOTE_NEEDLE.0, REMOTE_NEEDLE.1)?;
    let mut queries = Vec::new();
    for (i, t) in point.iter().enumerate() {
        queries.push(query(
            format!("point{i:02}"),
            Class::Point,
            Scope::Root,
            Expr::term(t),
            (1, 3),
        ));
    }
    for (i, t) in needle.iter().enumerate() {
        queries.push(query(
            format!("needle{i:02}"),
            Class::Needle,
            Scope::Root,
            Expr::term(t),
            band(docs, REMOTE_NEEDLE.0, REMOTE_NEEDLE.1),
        ));
    }
    finish(
        Catalogue {
            queries,
            ..Catalogue::default()
        },
        model,
    )
}

fn finish(mut cat: Catalogue, model: &mut Model) -> Result<Catalogue, String> {
    for (i, q) in cat.queries.iter().enumerate() {
        cat.members[q.class as usize].push(i);
    }
    cat.refresh(model);
    cat.check(model)?;
    Ok(cat)
}
