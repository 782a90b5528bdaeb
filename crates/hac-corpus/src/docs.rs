//! Text document collections (Table 3/4 workload).
//!
//! The paper's second experiment indexes "a database consisting of over
//! 17000 files that occupy about 150 MB". This generator produces a
//! deterministic collection with the same shape at any scale: Zipf word
//! frequencies, log-normal-ish file sizes, and a directory fan-out.

use hac_vfs::{VPath, Vfs, VfsResult};

use crate::rng::Rng;
use crate::words::Vocabulary;

/// Parameters of a document collection.
#[derive(Debug, Clone)]
pub struct DocCollectionSpec {
    /// Number of files to generate.
    pub files: usize,
    /// Mean words per file.
    pub mean_words: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Files per directory before a new directory is opened.
    pub files_per_dir: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DocCollectionSpec {
    fn default() -> Self {
        DocCollectionSpec {
            files: 400,
            mean_words: 120,
            vocab: 4000,
            files_per_dir: 50,
            seed: 1999,
        }
    }
}

impl DocCollectionSpec {
    /// A spec sized to approximate the paper's full experiment (17 000
    /// files, ~150 MB → ~8.8 KB ≈ 1300 words per file).
    pub fn paper_scale() -> Self {
        DocCollectionSpec {
            files: 17_000,
            mean_words: 1_300,
            vocab: 60_000,
            files_per_dir: 200,
            seed: 1999,
        }
    }
}

/// Summary of a generated collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocCollection {
    /// Root directory of the collection.
    pub root: VPath,
    /// Paths of every generated file.
    pub files: Vec<VPath>,
    /// Total bytes written.
    pub bytes: u64,
}

/// Generates a document collection under `root` (created if missing).
///
/// # Errors
///
/// Propagates VFS errors (e.g. `root` names an existing file).
pub fn generate_docs(
    vfs: &Vfs,
    root: &VPath,
    spec: &DocCollectionSpec,
) -> VfsResult<DocCollection> {
    let vocab = Vocabulary::new(spec.vocab, 1.0);
    let mut r = Rng::seeded(spec.seed);
    vfs.mkdir_p(root)?;
    let mut files = Vec::with_capacity(spec.files);
    let mut bytes = 0u64;
    for i in 0..spec.files {
        let dir_no = i / spec.files_per_dir.max(1);
        let dir = root.join(&format!("d{dir_no:04}"))?;
        if i % spec.files_per_dir.max(1) == 0 {
            vfs.mkdir_p(&dir)?;
        }
        // Word counts spread geometrically around the mean: many small
        // files, a heavy tail of large ones.
        let factor = r.range_f64(0.25..2.5);
        let n = ((spec.mean_words as f64) * factor) as usize + 1;
        let text = vocab.sample_text(&mut r, n);
        let path = dir.join(&format!("doc{i:06}.txt"))?;
        bytes += text.len() as u64;
        vfs.save(&path, text.as_bytes())?;
        files.push(path);
    }
    Ok(DocCollection {
        root: root.clone(),
        files,
        bytes,
    })
}

/// Picks query terms with a target selectivity from the vocabulary used by
/// [`generate_docs`]: low ranks match a lot of files, deep ranks match very
/// few — the three query classes of Table 4.
pub fn term_for_selectivity(spec: &DocCollectionSpec, selectivity: Selectivity) -> String {
    let vocab = Vocabulary::new(spec.vocab, 1.0);
    let rank = match selectivity {
        Selectivity::Many => 2,
        Selectivity::Intermediate => spec.vocab / 40,
        Selectivity::Few => spec.vocab / 4,
    };
    vocab.word_at_rank(rank).to_string()
}

/// The three query classes of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selectivity {
    /// "queries that matched very few files"
    Few,
    /// "an intermediate number of files"
    Intermediate,
    /// "queries that matched a lot of files"
    Many,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    #[test]
    fn generates_requested_file_count() {
        let vfs = Vfs::new();
        let spec = DocCollectionSpec {
            files: 120,
            ..Default::default()
        };
        let col = generate_docs(&vfs, &p("/db"), &spec).unwrap();
        assert_eq!(col.files.len(), 120);
        assert!(col.bytes > 0);
        // Directory fan-out: 120 files / 50 per dir = 3 dirs.
        let dirs = vfs.readdir(&p("/db")).unwrap();
        assert_eq!(dirs.len(), 3);
        // All files exist and are non-empty.
        for f in &col.files {
            assert!(vfs.stat(f).unwrap().size > 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = {
            let vfs = Vfs::new();
            let col = generate_docs(&vfs, &p("/db"), &DocCollectionSpec::default()).unwrap();
            vfs.read_file(&col.files[7]).unwrap()
        };
        let b = {
            let vfs = Vfs::new();
            let col = generate_docs(&vfs, &p("/db"), &DocCollectionSpec::default()).unwrap();
            vfs.read_file(&col.files[7]).unwrap()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn selectivity_terms_have_distinct_frequencies() {
        let vfs = Vfs::new();
        let spec = DocCollectionSpec {
            files: 300,
            ..Default::default()
        };
        let col = generate_docs(&vfs, &p("/db"), &spec).unwrap();
        let count = |term: &str| {
            col.files
                .iter()
                .filter(|f| {
                    let content = vfs.read_file(f).unwrap();
                    String::from_utf8_lossy(&content)
                        .split_whitespace()
                        .any(|w| w == term)
                })
                .count()
        };
        let many = count(&term_for_selectivity(&spec, Selectivity::Many));
        let mid = count(&term_for_selectivity(&spec, Selectivity::Intermediate));
        let few = count(&term_for_selectivity(&spec, Selectivity::Few));
        assert!(many > mid, "many={many} mid={mid}");
        assert!(mid >= few, "mid={mid} few={few}");
        assert!(
            many > col.files.len() / 2,
            "'many' should hit most files: {many}"
        );
    }
}
