//! Random file-system operation traces.
//!
//! Deterministic operation sequences for stress tests and failure-injection
//! runs — a seedable counterpart to the proptest strategies used in the
//! unit suites.

use hac_vfs::VPath;

use crate::rng::Rng;
use crate::words::Vocabulary;

/// One operation in a trace, expressed path-wise so any file system layer
/// (raw VFS, HAC, baselines) can replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Create a directory (parents exist by construction).
    Mkdir(VPath),
    /// Create or overwrite a file with text.
    Save(VPath, String),
    /// Delete a file.
    Unlink(VPath),
    /// Move a file.
    Rename(VPath, VPath),
    /// Read a file (may fail if a prior op removed it — replayers ignore
    /// errors).
    Read(VPath),
}

/// Parameters of a trace.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Number of operations.
    pub ops: usize,
    /// Number of directory slots.
    pub dirs: usize,
    /// Number of file slots per directory.
    pub files_per_dir: usize,
    /// Words per written file.
    pub words: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            ops: 200,
            dirs: 4,
            files_per_dir: 8,
            words: 24,
            seed: 3,
        }
    }
}

/// Generates a replayable trace. The first `dirs` operations are the
/// `Mkdir`s so replays never hit missing parents.
pub fn generate_trace(spec: &TraceSpec) -> Vec<TraceOp> {
    let vocab = Vocabulary::new(500, 1.0);
    let mut r = Rng::seeded(spec.seed);
    let dir = |d: usize| VPath::parse(&format!("/t{d}")).expect("static path");
    let file = |d: usize, f: usize| VPath::parse(&format!("/t{d}/f{f}")).expect("static path");
    let mut out: Vec<TraceOp> = (0..spec.dirs).map(|d| TraceOp::Mkdir(dir(d))).collect();
    for _ in 0..spec.ops {
        let d = r.range(0..spec.dirs);
        let f = r.range(0..spec.files_per_dir);
        let op = match r.range(0..10) {
            0..=4 => TraceOp::Save(file(d, f), vocab.sample_text(&mut r, spec.words)),
            5..=6 => TraceOp::Read(file(d, f)),
            7 => TraceOp::Unlink(file(d, f)),
            8 => {
                let d2 = r.range(0..spec.dirs);
                TraceOp::Rename(file(d, f), file(d2, spec.files_per_dir + f))
            }
            _ => TraceOp::Read(file(d, f)),
        };
        out.push(op);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_vfs::Vfs;

    #[test]
    fn trace_is_deterministic() {
        let a = generate_trace(&TraceSpec::default());
        let b = generate_trace(&TraceSpec::default());
        assert_eq!(a, b);
        assert_eq!(a.len(), 200 + 4);
    }

    #[test]
    fn trace_replays_on_a_vfs() {
        let vfs = Vfs::new();
        let mut errors = 0;
        for op in generate_trace(&TraceSpec::default()) {
            let r = match op {
                TraceOp::Mkdir(p) => vfs.mkdir(&p).map(|_| ()),
                TraceOp::Save(p, text) => vfs.save(&p, text.as_bytes()).map(|_| ()),
                TraceOp::Unlink(p) => vfs.unlink(&p),
                TraceOp::Rename(a, b) => vfs.rename(&a, &b),
                TraceOp::Read(p) => vfs.read_file(&p).map(|_| ()),
            };
            if r.is_err() {
                errors += 1;
            }
        }
        // Most operations succeed; some reads/unlinks of missing slots fail
        // by design.
        assert!(errors < 150, "too many failures: {errors}");
        assert!(vfs.node_count() > 4);
    }
}
