//! # hac-index — Glimpse-like content-based access engine
//!
//! The CBA (content-based access) mechanism of the HAC reproduction,
//! standing in for Glimpse in *Integrating Content-Based Access Mechanisms
//! with Hierarchical File Systems* (Gopal & Manber, OSDI '99):
//!
//! * [`token`] / [`transducer`] — tokenization and SFS-style attribute
//!   extraction (mail headers, C source, plain text);
//! * [`lexicon`] / [`engine`] — a two-level, block-addressed inverted index
//!   in Glimpse's design (small index + candidate verification), with an
//!   exact-granularity mode as an ablation point;
//! * [`bitmap`] — the paper's `N/8`-byte result bitmaps;
//! * [`expr`] — the boolean content-query language (AND / OR / AND NOT /
//!   NOT, phrases, fields, agrep-style approximate terms);
//! * [`approx`] — banded edit-distance matching.
//!
//! The index is deliberately *lazy* about content changes: documents enter
//! and leave only through explicit `add_doc` / `remove_doc` / `rebuild`
//! calls, because the paper's data-consistency policy (§2.4) reconciles
//! content at reindex time, not instantly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod bitmap;
pub mod engine;
pub mod expr;
pub mod lexicon;
pub mod segment;
pub mod token;
pub mod transducer;

pub use bitmap::{Bitmap, DocId};
pub use engine::{DocDelta, DocProvider, EvalStats, Granularity, Index, IndexStats};
pub use expr::ContentExpr;
pub use lexicon::{Lexicon, TermId};
pub use segment::{Segment, SegmentDoc};
pub use token::{tokenize_text, Token};
pub use transducer::{Transducer, TransducerRegistry};
