//! Lanes shared by several workloads: the seeded read mix over a `HacFs`
//! (searches by class plus transient `smkdir`s) and the editor that
//! applies seeded file ops through `HacFs`, mirrors them in the oracle
//! and, when asked, on a bare `Vfs`.

use std::collections::VecDeque;
use std::time::Instant;

use hac_core::HacFs;
use hac_vfs::Vfs;

use crate::catalogue::{Catalogue, Class, RENAMED_DIR, SEARCHES_PER_SMKDIR};
use crate::fixture::{p, search, smkdir, Tally, TextGen};
use crate::obs::Tracer;
use crate::oracle::Model;
use crate::stats::{time_us, Rng};

/// Samples of a read lane.
#[derive(Debug, Default)]
pub struct ReadSamples {
    /// Search latency by class, µs, in [`Class::ALL`] order.
    pub by_class: [Vec<f64>; 6],
    /// Search latency pooled over the mix, µs, in the order taken.
    pub search_us: Vec<f64>,
    /// Duration of every timed op, µs, in the order taken.
    pub op_us: Vec<f64>,
    /// `smkdir` latency, µs.
    pub smkdir_us: Vec<f64>,
}

/// The seeded read mix over one `HacFs`: searches by class weight, and a
/// transient `smkdir` every `SEARCHES_PER_SMKDIR + 1`-th op.
pub struct ReadMix<'a> {
    /// The instance under test.
    pub fs: &'a HacFs,
    /// Its catalogue (expected answers included).
    pub cat: &'a Catalogue,
    /// Class weights.
    pub mix: &'a [u32; 6],
    /// Seed of the op sequence.
    pub seed: u64,
}

impl ReadMix<'_> {
    /// Runs op `i` of the mix, checked against the oracle, and returns
    /// its µs. Which op that is depends on the seed and `i` only, so a
    /// slice of the sequence can be replayed (untraced, then traced).
    pub fn run(
        &self,
        i: usize,
        tracer: &mut Tracer,
        out: &mut ReadSamples,
        tally: &mut Tally,
    ) -> f64 {
        let cat = self.cat;
        let every = SEARCHES_PER_SMKDIR + 1;
        let us = if !cat.smkdirs.is_empty() && i % every == every - 1 {
            let s = &cat.smkdirs[i / every % cat.smkdirs.len()];
            let (us, ok) = smkdir(self.fs, tracer, s);
            tally.check(ok, || {
                format!("smkdir {} disagrees with the oracle", s.path)
            });
            out.smkdir_us.push(us);
            us
        } else {
            let mut rng = Rng::new(self.seed, i as u64);
            let members = cat.of(Class::ALL[rng.weighted(self.mix)]);
            let q = &cat.queries[members[rng.below(members.len())]];
            let (us, ok) = search(
                self.fs,
                tracer,
                &p(q.scope.dir()),
                &q.expr.text(),
                &q.expect,
            );
            tally.check(ok, || {
                format!("search {} disagrees with the oracle", q.name)
            });
            out.by_class[q.class as usize].push(us);
            out.search_us.push(us);
            us
        };
        out.op_us.push(us);
        us
    }

    /// Runs the mix closed-loop until `deadline` (and for `min_ops` ops at
    /// least), continuing the op sequence where `out` left off.
    pub fn lane(
        &self,
        min_ops: usize,
        deadline: Instant,
        tracer: &mut Tracer,
        out: &mut ReadSamples,
        tally: &mut Tally,
    ) {
        let floor = out.op_us.len() + min_ops;
        while out.op_us.len() < floor || Instant::now() < deadline {
            self.run(out.op_us.len(), tracer, out, tally);
        }
    }
}

/// The kinds of file op an edit round is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Save a new file.
    SaveNew,
    /// Overwrite an existing corpus document.
    Overwrite,
    /// Append to an existing corpus document.
    Append,
    /// Rename a file saved by an earlier round.
    RenameFile,
    /// Unlink a file saved by an earlier round.
    Unlink,
    /// Rename the corpus directory a standing query references.
    RenameDir,
}

impl Edit {
    /// Whether the op changes the namespace (rename, unlink) rather than
    /// a file's content. Structural ops restore scope consistency before
    /// they return and cost milliseconds where content ops cost
    /// microseconds, so the two are never pooled into one median.
    pub fn is_structural(self) -> bool {
        matches!(self, Edit::RenameFile | Edit::Unlink | Edit::RenameDir)
    }
}

/// Applies seeded edits through `HacFs` and mirrors them in the oracle.
pub struct Editor {
    text: TextGen,
    /// Corpus documents eligible for overwrite/append (outside the
    /// renamed directory, whose paths move).
    stable: Vec<String>,
    fresh: VecDeque<String>,
    renamed: VecDeque<String>,
    seq: usize,
    dir_renamed: bool,
    /// Bytes of user data written by the edits so far.
    pub user_bytes: u64,
}

/// Directory new files are saved under.
pub const NEW_DIR: &str = "/db/new";

impl Editor {
    /// An editor over `model`'s corpus. `fs` (and `raw`, the bare
    /// namespace of the interposition lane) get the directory new files
    /// go to.
    pub fn new(seed: u64, model: &Model, fs: &HacFs, raw: Option<&Vfs>) -> Editor {
        fs.mkdir_p(&p(NEW_DIR)).expect("mkdir for new files");
        if let Some(raw) = raw {
            raw.mkdir_p(&p(NEW_DIR)).expect("mkdir for new files");
        }
        let moving = format!("{}/", RENAMED_DIR.0);
        Editor {
            text: TextGen::new(seed, 0xed17),
            stable: model
                .paths()
                .filter(|path| !path.starts_with(&moving))
                .cloned()
                .collect(),
            fresh: VecDeque::new(),
            renamed: VecDeque::new(),
            seq: 0,
            dir_renamed: false,
            user_bytes: 0,
        }
    }

    fn pick_stable(&mut self) -> String {
        let i = self.text.rng().below(self.stable.len());
        self.stable[i].clone()
    }

    /// Applies one edit. `salt` is appended to new text (a term of a
    /// standing query, so that the edit dirties that directory). Returns
    /// the time through `HacFs`, the time of the same op on `raw` (0
    /// without one), and whether both succeeded.
    pub fn apply(
        &mut self,
        kind: Edit,
        salt: &str,
        fs: &HacFs,
        raw: Option<&Vfs>,
        model: &mut Model,
        cat: &mut Catalogue,
    ) -> (f64, f64, bool) {
        // Fall back to a save while there is nothing to rename or unlink.
        let kind = match kind {
            Edit::RenameFile if self.fresh.is_empty() => Edit::SaveNew,
            Edit::Unlink if self.renamed.is_empty() && self.fresh.is_empty() => Edit::SaveNew,
            k => k,
        };
        match kind {
            Edit::SaveNew | Edit::Overwrite => {
                let path = if kind == Edit::SaveNew {
                    self.seq += 1;
                    let path = format!("{NEW_DIR}/n{:06}.txt", self.seq);
                    self.fresh.push_back(path.clone());
                    path
                } else {
                    self.pick_stable()
                };
                let body = format!("{} {salt}", self.text.text(80));
                self.user_bytes += body.len() as u64;
                model.upsert(&path, body.as_bytes());
                let vp = p(&path);
                let (a, hac_us) = time_us(|| fs.save(&vp, body.as_bytes()));
                let (b, raw_us) = on_raw(raw, |v| v.save(&vp, body.as_bytes()).is_ok());
                (hac_us, raw_us, a.is_ok() && b)
            }
            Edit::Append => {
                let path = self.pick_stable();
                let body = format!(" {} {salt}", self.text.text(6));
                self.user_bytes += body.len() as u64;
                model.append(&path, body.as_bytes());
                let vp = p(&path);
                let (a, hac_us) = time_us(|| fs.append(&vp, body.as_bytes()));
                let (b, raw_us) = on_raw(raw, |v| v.append(&vp, body.as_bytes()).is_ok());
                (hac_us, raw_us, a.is_ok() && b)
            }
            Edit::RenameFile => {
                let from = self.fresh.pop_front().expect("checked above");
                let to = format!("{NEW_DIR}/m{}", &from[NEW_DIR.len() + 2..]);
                model.rename(&from, &to);
                self.renamed.push_back(to.clone());
                let (vf, vt) = (p(&from), p(&to));
                let (a, hac_us) = time_us(|| fs.rename(&vf, &vt));
                let (b, raw_us) = on_raw(raw, |v| v.rename(&vf, &vt).is_ok());
                (hac_us, raw_us, a.is_ok() && b)
            }
            Edit::Unlink => {
                let path = self
                    .renamed
                    .pop_front()
                    .or_else(|| self.fresh.pop_front())
                    .expect("checked above");
                model.remove(&path);
                let vp = p(&path);
                let (a, hac_us) = time_us(|| fs.unlink(&vp));
                let (b, raw_us) = on_raw(raw, |v| v.unlink(&vp).is_ok());
                (hac_us, raw_us, a.is_ok() && b)
            }
            Edit::RenameDir => {
                let (from, to) = if self.dir_renamed {
                    (RENAMED_DIR.1, RENAMED_DIR.0)
                } else {
                    RENAMED_DIR
                };
                self.dir_renamed = !self.dir_renamed;
                model.rename(from, to);
                cat.rename_dir(from, to);
                let (vf, vt) = (p(from), p(to));
                let (a, hac_us) = time_us(|| fs.rename(&vf, &vt));
                let (b, raw_us) = on_raw(raw, |v| v.rename(&vf, &vt).is_ok());
                (hac_us, raw_us, a.is_ok() && b)
            }
        }
    }
}

/// Runs `f` on the bare namespace, when there is one: `(ok, µs)`.
fn on_raw(raw: Option<&Vfs>, f: impl FnOnce(&Vfs) -> bool) -> (bool, f64) {
    match raw {
        Some(v) => time_us(|| f(v)),
        None => (true, 0.0),
    }
}

/// One timed, traced `ssync("/")`: µs, the report, and whether it
/// succeeded.
pub fn ssync(fs: &HacFs, tracer: &mut Tracer) -> (f64, hac_core::SyncReport, bool) {
    let root = p("/");
    let (r, us) = tracer.op("bench_ssync", || fs.ssync(&root));
    match r {
        Ok(report) => (us, report, true),
        Err(_) => (us, hac_core::SyncReport::default(), false),
    }
}
