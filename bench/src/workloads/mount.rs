//! The importing side of the two remote workloads: a local `HacFs` with a
//! remote query system `smount`ed at `/lib`, a few standing semantic
//! directories that import remote results, and the lane that times what a
//! user of such a mount does — `smkdir` (remote import and link
//! materialisation), ordinary file ops, and `ssync("/")`, which
//! re-evaluates every importing directory through the mount.
//!
//! Local files are written in words no corpus word can equal (they hold
//! digits), so what a directory under `/lib` links is exactly what the
//! remote side answers, and the oracle needs the remote corpus only.

use std::sync::Arc;
use std::time::Instant;

use hac_core::{HacFs, RemoteQuerySystem};

use crate::catalogue::{Catalogue, Class};
use crate::fixture::{link_targets, p, Tally};
use crate::lanes::ssync;
use crate::obs::Tracer;
use crate::oracle::Digest;
use crate::stats::time_us;

/// Standing importing directories under `/lib`.
pub const STANDING: usize = 4;

fn local_text(i: usize) -> String {
    (0..40)
        .map(|j| format!("w0rd{}", (i * 7 + j * 13) % 500))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Builds the importer: `docs` local files, the mount, one cold `ssync`,
/// and `STANDING` importing directories (point and needle queries
/// alternating).
pub fn build(remote: Arc<dyn RemoteQuerySystem>, docs: usize, cat: &Catalogue) -> HacFs {
    let fs = HacFs::new();
    fs.mkdir_p(&p("/home")).expect("mkdir /home");
    for i in 0..docs {
        fs.save(&p(&format!("/home/n{i:05}.txt")), local_text(i).as_bytes())
            .expect("local file");
    }
    fs.mkdir_p(&p("/lib")).expect("mkdir /lib");
    fs.smount(&p("/lib"), remote).expect("smount");
    fs.ssync(&p("/")).expect("cold ssync");
    for (i, qi) in standing(cat).into_iter().enumerate() {
        fs.smkdir(&p(&format!("/lib/s{i}")), &cat.queries[qi].expr.text())
            .expect("standing import");
    }
    fs
}

/// Catalogue queries behind the standing directories.
fn standing(cat: &Catalogue) -> Vec<usize> {
    let (points, needles) = (cat.of(Class::Point), cat.of(Class::Needle));
    (0..STANDING)
        .map(|i| {
            if i % 2 == 0 {
                points[i / 2 % points.len()]
            } else {
                needles[i / 2 % needles.len()]
            }
        })
        .collect()
}

/// Checks that every standing directory links what the oracle says the
/// remote side holds.
pub fn check_standing(fs: &HacFs, cat: &Catalogue, tally: &mut Tally) {
    for (i, qi) in standing(cat).into_iter().enumerate() {
        let got = Digest::of(link_targets(fs, &p(&format!("/lib/s{i}"))));
        tally.check(got == cat.queries[qi].expect, || {
            format!(
                "/lib/s{i} links {} documents, oracle says {}",
                got.count, cat.queries[qi].expect.count
            )
        });
    }
}

/// Samples of the mount lane.
#[derive(Debug, Default)]
pub struct MountSamples {
    /// `smkdir` under the mount, µs.
    pub smkdir_us: Vec<f64>,
    /// Local content file ops (save, overwrite, append), µs.
    pub fsop_us: Vec<f64>,
    /// `ssync("/")`, ms.
    pub ssync_ms: Vec<f64>,
}

/// Runs rounds of the mount lane until `until` (at least `min_rounds`),
/// adding to `out`: one needle `smkdir` under `/lib` (checked, then
/// removed untimed), five local content file ops and an unlink, one
/// `ssync("/")` (standing directories checked after).
pub fn lane(
    fs: &HacFs,
    cat: &Catalogue,
    min_rounds: usize,
    until: Instant,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut MountSamples,
) {
    let needles = cat.of(Class::Needle);
    let tmp = p("/lib/tmpq");
    let floor = out.ssync_ms.len() + min_rounds;
    while out.ssync_ms.len() < floor || Instant::now() < until {
        let round = out.ssync_ms.len();
        let q = &cat.queries[needles[round % needles.len()]];
        let text = q.expr.text();
        let (made, us) = tracer.op("bench_smkdir", || fs.smkdir(&tmp, &text));
        let ok = made.is_ok() && Digest::of(link_targets(fs, &tmp)) == q.expect;
        let removed = fs.remove_recursive(&tmp).is_ok();
        tally.check(ok && removed, || {
            format!(
                "smkdir under the mount disagrees with the oracle on {}",
                q.name
            )
        });
        out.smkdir_us.push(us);

        let fresh = p(&format!("/home/x{round:05}.txt"));
        let old = p(&format!("/home/n{:05}.txt", round % 50));
        let body = local_text(round + 1000);
        // Content ops are the samples; the unlink that keeps the
        // namespace from growing is structural and not pooled with them
        // (see `Edit::is_structural`).
        for kind in 0..5 {
            let (ok, us) = time_us(|| match kind {
                0 => fs.save(&fresh, body.as_bytes()).is_ok(),
                1 | 3 => fs.save(&old, body.as_bytes()).is_ok(),
                _ => fs.append(&old, b" w0rd7 w0rd9").is_ok(),
            });
            tally.check(ok, || "a local file op failed".into());
            out.fsop_us.push(us);
        }
        tally.check(fs.unlink(&fresh).is_ok(), || "local unlink failed".into());

        let (us, _, ok) = ssync(fs, tracer);
        tally.check(ok, || "ssync failed".into());
        out.ssync_ms.push(us / 1e3);
        check_standing(fs, cat, tally);
    }
}
