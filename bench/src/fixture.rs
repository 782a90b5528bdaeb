//! What the four workloads share: building a populated `HacFs`, text for
//! edits, checked ops (every reply is compared with the oracle), the
//! pass/fail tally and the process's peak memory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hac_core::{HacFs, LinkTarget, RemoteDoc};
use hac_corpus::{generate_docs, DocCollectionSpec, Vocabulary};
use hac_net::{ClientConfig, HacServer, NetRemote};
use hac_remote::WebSearchSim;
use hac_vfs::{VPath, Vfs};

use crate::catalogue::{Catalogue, Smkdir, SETUPS, VOCAB};
use crate::obs::Tracer;
use crate::oracle::{Digest, Model};
use crate::stats::{median, time_us, Rng};

/// Parses a path the bench itself wrote.
pub fn p(s: &str) -> VPath {
    VPath::parse(s).expect("bench-made path")
}

/// Ops attempted and failed. A failed op is one that returned an error,
/// was refused, or answered differently from the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one op.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one op and says on stderr what went wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failed < 5 {
            eprintln!("FAILED: {}", what());
        }
        self.note(ok);
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Keeps the machine's CPUs from idling while a lane with blocking
/// hand-offs between threads (client, event loop, workers, scatter
/// threads) is measured. On a virtual machine an idle CPU is handed back to
/// the hypervisor, and getting it back costs tens of microseconds to
/// milliseconds, depending on the host's other tenants: in the two
/// remote workloads that wake-up, not the program, was the largest term
/// of every latency and most of the run-to-run noise (with the two
/// threads below, `remote_serve` got 15–40 % faster and its spread over
/// seeds fell from 10–30 % to 5–12 %). The threads only ever yield, so a
/// runnable thread of the program takes their CPU at once. Stopped and
/// joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one yielding thread per CPU, two at most: the program's
    /// hand-offs bounce between a client and the event loop.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let n = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // The loop cannot panic; nothing to report.
            let _ = t.join();
        }
    }
}

/// Sets up `SETUPS` times, keeps the last instance, and returns it with
/// the median set-up time in seconds. Earlier instances are torn down by
/// `teardown` before the next is built, so at most one is alive.
pub fn setup_median<T>(mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), median(&times))
}

/// Generates the corpus under `/db` of `vfs`.
pub fn populate(vfs: &Vfs, spec: &DocCollectionSpec) -> hac_corpus::DocCollection {
    generate_docs(vfs, &p("/db"), spec).expect("corpus generation")
}

/// The oracle's view of a freshly generated corpus, and its size in bytes.
pub fn model_of(spec: &DocCollectionSpec) -> (Model, u64) {
    let vfs = Vfs::new();
    let col = populate(&vfs, spec);
    let mut model = Model::new();
    for f in &col.files {
        model.upsert(&f.to_string(), &vfs.read_file(f).expect("generated file"));
    }
    (model, col.bytes)
}

/// `(id, title, content)` of a document published to a `WebSearchSim`.
pub type Doc = (String, String, Vec<u8>);

/// Every document of a corpus, for publishing. The id is the path, so
/// placement hashes it.
pub fn remote_docs(spec: &DocCollectionSpec) -> Vec<Doc> {
    let vfs = Vfs::new();
    populate(&vfs, spec)
        .files
        .iter()
        .map(|f| {
            (
                f.to_string(),
                f.file_name().unwrap_or("doc").to_string(),
                vfs.read_file(f).expect("generated file").to_vec(),
            )
        })
        .collect()
}

/// Publishes documents to a fresh backend.
pub fn backend(ns: &str, docs: &[Doc]) -> Arc<WebSearchSim> {
    let sim = WebSearchSim::new(ns);
    for (id, title, content) in docs {
        sim.publish(id, title, content);
    }
    Arc::new(sim)
}

/// A client of namespace `ns` on `server` that owns one connection.
pub fn client(ns: &str, server: &HacServer) -> Arc<NetRemote> {
    Arc::new(NetRemote::connect(
        ns,
        &server.local_addr().to_string(),
        ClientConfig {
            max_connections: 1,
            ..ClientConfig::default()
        },
    ))
}

/// Creates the catalogue's standing directories (parents first).
pub fn make_semdirs(fs: &HacFs, cat: &Catalogue) {
    for s in &cat.sems {
        let path = p(&s.path);
        if let Some(parent) = path.parent() {
            fs.mkdir_p(&parent).expect("semdir parent");
        }
        fs.smkdir(&path, &s.query.text()).expect("standing smkdir");
    }
}

/// Seeded text for edits: words drawn log-uniformly by rank, which is
/// Zipf with exponent 1 like the corpus generator's own sampler.
pub struct TextGen {
    vocab: Vocabulary,
    rng: Rng,
}

impl TextGen {
    /// A generator on its own random stream.
    pub fn new(seed: u64, stream: u64) -> TextGen {
        TextGen {
            vocab: Vocabulary::new(VOCAB, 1.0),
            rng: Rng::new(seed, stream),
        }
    }

    /// `n` words.
    pub fn text(&mut self, n: usize) -> String {
        let mut out = String::with_capacity(n * 7);
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            let u = self.rng.next_u64() as f64 / u64::MAX as f64;
            let rank = ((VOCAB as f64).powf(u) as usize).saturating_sub(1);
            out.push_str(self.vocab.word_at_rank(rank));
        }
        out
    }

    /// The generator's random stream, for choosing what to edit.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// Names of a semantic directory's link targets: local paths and remote
/// document ids.
pub fn link_targets(fs: &HacFs, dir: &VPath) -> Vec<String> {
    fs.list_links(dir)
        .map(|links| {
            links
                .into_iter()
                .filter_map(|l| match l.target {
                    LinkTarget::Local(id) => fs.vfs().path_of(id).ok().map(|p| p.to_string()),
                    LinkTarget::Remote(_, id) => Some(id),
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One checked `HacFs::search`: caller-side µs, and whether the reply
/// equals the oracle's.
pub fn search(
    fs: &HacFs,
    tracer: &mut Tracer,
    dir: &VPath,
    text: &str,
    expect: &Digest,
) -> (f64, bool) {
    let (reply, us) = tracer.op("bench_search", || fs.search(dir, text));
    let ok = reply.is_ok_and(|hits| Digest::of(hits.iter().map(VPath::to_string)) == *expect);
    (us, ok)
}

/// One checked `smkdir` (timed until its links are materialised),
/// followed by an untimed `remove_recursive`.
pub fn smkdir(fs: &HacFs, tracer: &mut Tracer, s: &Smkdir) -> (f64, bool) {
    let path = p(&s.path);
    let text = s.query.text();
    let (made, us) = tracer.op("bench_smkdir", || fs.smkdir(&path, &text));
    let ok = made.is_ok() && Digest::of(link_targets(fs, &path)) == s.expect;
    let removed = fs.remove_recursive(&path).is_ok();
    (us, ok && removed)
}

/// Digest of a remote reply's document ids.
pub fn digest_docs(docs: &[RemoteDoc]) -> Digest {
    Digest::of(docs.iter().map(|d| d.id.as_str()))
}

/// Checks every standing directory's links against the oracle.
pub fn check_semdirs(fs: &HacFs, cat: &Catalogue, model: &Model, tally: &mut Tally) {
    for s in &cat.sems {
        let got = Digest::of(link_targets(fs, &p(&s.path)));
        let want = Digest::of(model.links_of(&s.path));
        tally.check(got == want, || {
            format!(
                "semdir {} links {} documents, oracle says {}",
                s.path, got.count, want.count
            )
        });
    }
}

/// Checks every catalogue query once against the oracle (untimed).
pub fn check_queries(fs: &HacFs, cat: &Catalogue, tally: &mut Tally) {
    let mut off = Tracer::default();
    for q in &cat.queries {
        let (_, ok) = search(fs, &mut off, &p(q.scope.dir()), &q.expr.text(), &q.expect);
        tally.check(ok, || format!("query {} disagrees with the oracle", q.name));
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A deadline `share` of `seconds` from now.
pub fn deadline(seconds: f64, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds * share)
}

/// `hac-vfs` probes: a walk over the corpus (median of five, per entry)
/// and 10 000 seeded path lookups.
pub fn vfs_probes(fs: &HacFs, seed: u64, out: &mut crate::report::Outcome) {
    let db = p("/db");
    let mut paths = Vec::new();
    let walks: Vec<f64> = (0..5)
        .map(|_| {
            let (entries, us) = time_us(|| hac_vfs::walk(fs.vfs(), &db).unwrap_or_default());
            let n = entries.len().max(1);
            paths = entries.into_iter().map(|e| e.path).collect();
            us / n as f64
        })
        .collect();
    out.set("vfs.walk_us_per_entry", median(&walks));
    out.set("vfs.resolve_ns", resolve_ns(fs, &paths, seed));
}

/// Mean cost of 10 000 seeded path lookups, ns.
fn resolve_ns(fs: &HacFs, paths: &[hac_vfs::VPath], seed: u64) -> f64 {
    if paths.is_empty() {
        return 0.0;
    }
    let mut rng = Rng::new(seed, 0x7e50);
    let picks: Vec<usize> = (0..10_000).map(|_| rng.below(paths.len())).collect();
    let (found, us) = time_us(|| {
        picks
            .iter()
            .filter(|&&i| std::hint::black_box(fs.vfs().resolve(&paths[i])).is_ok())
            .count()
    });
    std::hint::black_box(found);
    us * 1e3 / picks.len() as f64
}
