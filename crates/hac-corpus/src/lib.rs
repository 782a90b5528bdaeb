//! # hac-corpus — synthetic corpora and workloads
//!
//! Deterministic generators for every input the paper's evaluation needs
//! but that cannot ship with a reproduction:
//!
//! * [`docs`] — Zipf text collections (the 17 000-file / 150 MB database of
//!   Tables 3–4, at any scale);
//! * [`mail`] — RFC-822-ish mailboxes for the running example and the mail
//!   transducer;
//! * [`source_tree`] — C-like source trees (the Andrew Benchmark input of
//!   Tables 1–2);
//! * [`trace`] — replayable random operation traces for stress tests;
//! * [`words`] — the seeded Zipf vocabulary sampler underneath them all,
//!   drawing from one private splitmix64 stream.
//!
//! Everything is a pure function of its spec (including the seed), so
//! benchmark runs are reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod docs;
pub mod mail;
mod rng;
pub mod source_tree;
pub mod trace;
pub mod words;

pub use docs::{
    generate_docs, term_for_selectivity, DocCollection, DocCollectionSpec, Selectivity,
};
pub use mail::{generate_mailbox, MailMeta, MailboxSpec};
pub use source_tree::{generate_source_tree, SourceTree, SourceTreeSpec};
pub use trace::{generate_trace, TraceOp, TraceSpec};
pub use words::Vocabulary;

#[cfg(test)]
mod tests {
    use hac_vfs::{VPath, Vfs};

    use super::*;

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a 64 over `bytes`, continuing from `h`.
    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Hash of every file's path and content, in generation order.
    fn files_hash(vfs: &Vfs, files: &[VPath]) -> u64 {
        files.iter().fold(FNV_OFFSET, |h, f| {
            let h = fnv1a(h, f.to_string().as_bytes());
            fnv1a(h, &vfs.read_file(f).unwrap())
        })
    }

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    /// Every benchmark input is generated here, so the bytes of each
    /// generator and of the sampler under them are pinned. The values were
    /// captured before the random stream moved into this crate; a change
    /// to any of them changes every corpus.
    #[test]
    fn corpus_is_pinned() {
        let vfs = Vfs::new();
        let docs = generate_docs(
            &vfs,
            &p("/db"),
            &DocCollectionSpec {
                files: 40,
                mean_words: 30,
                vocab: 800,
                files_per_dir: 16,
                seed: 7,
            },
        )
        .unwrap();
        let mail = generate_mailbox(
            &vfs,
            &p("/mail"),
            &MailboxSpec {
                messages: 12,
                body_words: 16,
                seed: 7,
            },
        )
        .unwrap();
        let mail: Vec<VPath> = mail.into_iter().map(|m| m.path).collect();
        let tree = generate_source_tree(
            &vfs,
            &p("/src"),
            &SourceTreeSpec {
                modules: 2,
                files_per_module: 2,
                functions_per_file: 2,
                statements: 3,
                seed: 7,
            },
        )
        .unwrap();
        let trace = generate_trace(&TraceSpec {
            ops: 60,
            seed: 7,
            ..TraceSpec::default()
        })
        .iter()
        .fold(FNV_OFFSET, |h, op| {
            let (tag, a, b, text) = match op {
                TraceOp::Mkdir(a) => (0u8, a, None, ""),
                TraceOp::Save(a, text) => (1, a, None, text.as_str()),
                TraceOp::Unlink(a) => (2, a, None, ""),
                TraceOp::Rename(a, b) => (3, a, Some(b), ""),
                TraceOp::Read(a) => (4, a, None, ""),
            };
            let h = fnv1a(h, &[tag]);
            let h = fnv1a(h, a.to_string().as_bytes());
            let h = fnv1a(h, b.map(VPath::to_string).unwrap_or_default().as_bytes());
            fnv1a(h, text.as_bytes())
        });
        let text = Vocabulary::new(300, 1.0).sample_text(&mut rng::Rng::seeded(7), 64);
        assert_eq!(files_hash(&vfs, &docs.files), 0xf27f_5722_03ae_28cc, "docs");
        assert_eq!(files_hash(&vfs, &mail), 0x1b88_54a9_cac0_4531, "mail");
        assert_eq!(
            files_hash(&vfs, &tree.files),
            0x2629_69c0_8c42_9451,
            "source tree"
        );
        assert_eq!(trace, 0x4d85_6ae0_032b_7351, "trace");
        assert_eq!(
            fnv1a(FNV_OFFSET, text.as_bytes()),
            0xb086_3a3a_70aa_3f51,
            "sample_text"
        );
    }
}
