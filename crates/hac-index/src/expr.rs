//! Content query expressions.
//!
//! `ContentExpr` is the boolean query language the CBA engine evaluates —
//! the role Glimpse's search expressions play in the paper. The full HAC
//! query language (`hac-query`) additionally has directory references; it
//! lowers its content parts into this type.

use hac_codec::{Decode, Encode, Reader};

/// A boolean query over indexed content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentExpr {
    /// Matches documents containing the word.
    Term(String),
    /// Matches documents carrying the attribute `name`=`value` (emitted by a
    /// transducer).
    Field(String, String),
    /// Matches documents containing the words consecutively.
    Phrase(Vec<String>),
    /// Matches documents containing any word within the given edit distance
    /// of the pattern (Glimpse's approximate matching).
    Approx(String, u8),
    /// Matches documents containing any word with this prefix (`finger*`),
    /// a practical subset of Glimpse's regular-expression patterns.
    Prefix(String),
    /// Conjunction.
    And(Box<ContentExpr>, Box<ContentExpr>),
    /// Disjunction.
    Or(Box<ContentExpr>, Box<ContentExpr>),
    /// `lhs AND NOT rhs`.
    AndNot(Box<ContentExpr>, Box<ContentExpr>),
    /// Complement within the evaluation universe.
    Not(Box<ContentExpr>),
    /// Matches every document in the universe.
    All,
    /// Matches nothing.
    Nothing,
}

// Variant indexes follow declaration order; one-field variants carry the
// field bare, wider ones a sequence of their fields.
impl Encode for ContentExpr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ContentExpr::Term(t) => {
                hac_codec::variant(out, 0);
                t.encode(out);
            }
            ContentExpr::Field(n, v) => {
                hac_codec::variant(out, 1);
                (n, v).encode(out);
            }
            ContentExpr::Phrase(ws) => {
                hac_codec::variant(out, 2);
                ws.encode(out);
            }
            ContentExpr::Approx(t, k) => {
                hac_codec::variant(out, 3);
                (t, k).encode(out);
            }
            ContentExpr::Prefix(t) => {
                hac_codec::variant(out, 4);
                t.encode(out);
            }
            ContentExpr::And(a, b) => {
                hac_codec::variant(out, 5);
                (a, b).encode(out);
            }
            ContentExpr::Or(a, b) => {
                hac_codec::variant(out, 6);
                (a, b).encode(out);
            }
            ContentExpr::AndNot(a, b) => {
                hac_codec::variant(out, 7);
                (a, b).encode(out);
            }
            ContentExpr::Not(a) => {
                hac_codec::variant(out, 8);
                a.encode(out);
            }
            ContentExpr::All => hac_codec::unit_variant(out, 9),
            ContentExpr::Nothing => hac_codec::unit_variant(out, 10),
        }
    }
}

impl Decode for ContentExpr {
    fn decode(r: &mut Reader<'_>) -> Result<Self, hac_codec::Error> {
        Ok(match r.variant()? {
            0 => ContentExpr::Term(Decode::decode(r)?),
            1 => {
                let (n, v) = Decode::decode(r)?;
                ContentExpr::Field(n, v)
            }
            2 => ContentExpr::Phrase(Decode::decode(r)?),
            3 => {
                let (t, k) = Decode::decode(r)?;
                ContentExpr::Approx(t, k)
            }
            4 => ContentExpr::Prefix(Decode::decode(r)?),
            5 => {
                let (a, b) = Decode::decode(r)?;
                ContentExpr::And(a, b)
            }
            6 => {
                let (a, b) = Decode::decode(r)?;
                ContentExpr::Or(a, b)
            }
            7 => {
                let (a, b) = Decode::decode(r)?;
                ContentExpr::AndNot(a, b)
            }
            8 => ContentExpr::Not(Decode::decode(r)?),
            9 => {
                r.unit()?;
                ContentExpr::All
            }
            10 => {
                r.unit()?;
                ContentExpr::Nothing
            }
            _ => return Err(hac_codec::UNKNOWN_VARIANT),
        })
    }
}

impl ContentExpr {
    /// `a AND b` without manual boxing.
    pub fn and(a: ContentExpr, b: ContentExpr) -> ContentExpr {
        ContentExpr::And(Box::new(a), Box::new(b))
    }

    /// `a OR b` without manual boxing.
    pub fn or(a: ContentExpr, b: ContentExpr) -> ContentExpr {
        ContentExpr::Or(Box::new(a), Box::new(b))
    }

    /// `a AND NOT b` without manual boxing.
    pub fn and_not(a: ContentExpr, b: ContentExpr) -> ContentExpr {
        ContentExpr::AndNot(Box::new(a), Box::new(b))
    }

    /// `NOT a` without manual boxing.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: ContentExpr) -> ContentExpr {
        ContentExpr::Not(Box::new(a))
    }

    /// A case-folded term.
    pub fn term(w: &str) -> ContentExpr {
        ContentExpr::Term(w.to_ascii_lowercase())
    }

    /// A case-folded field match.
    pub fn field(name: &str, value: &str) -> ContentExpr {
        ContentExpr::Field(name.to_ascii_lowercase(), value.to_ascii_lowercase())
    }

    /// Collects every plain term mentioned anywhere in the expression.
    pub fn terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let ContentExpr::Term(t) = e {
                out.push(t.as_str());
            }
        });
        out
    }

    /// Depth of the expression tree (diagnostics, fuzz shrink metric).
    pub fn depth(&self) -> usize {
        match self {
            ContentExpr::And(a, b) | ContentExpr::Or(a, b) | ContentExpr::AndNot(a, b) => {
                1 + a.depth().max(b.depth())
            }
            ContentExpr::Not(a) => 1 + a.depth(),
            _ => 1,
        }
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a ContentExpr)) {
        f(self);
        match self {
            ContentExpr::And(a, b) | ContentExpr::Or(a, b) | ContentExpr::AndNot(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ContentExpr::Not(a) => a.walk(f),
            _ => {}
        }
    }
}

impl std::fmt::Display for ContentExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContentExpr::Term(t) => write!(f, "{t}"),
            ContentExpr::Field(n, v) => write!(f, "{n}:{v}"),
            ContentExpr::Phrase(ws) => write!(f, "\"{}\"", ws.join(" ")),
            ContentExpr::Approx(t, k) => write!(f, "~{k}:{t}"),
            ContentExpr::Prefix(t) => write!(f, "{t}*"),
            ContentExpr::And(a, b) => write!(f, "({a} AND {b})"),
            ContentExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            ContentExpr::AndNot(a, b) => write!(f, "({a} AND NOT {b})"),
            ContentExpr::Not(a) => write!(f, "(NOT {a})"),
            ContentExpr::All => write!(f, "*"),
            ContentExpr::Nothing => write!(f, "∅"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fold_case() {
        assert_eq!(
            ContentExpr::term("FiNgEr"),
            ContentExpr::Term("finger".into())
        );
        assert_eq!(
            ContentExpr::field("From", "Alice"),
            ContentExpr::Field("from".into(), "alice".into())
        );
    }

    #[test]
    fn display_is_parenthesized() {
        let e = ContentExpr::and_not(
            ContentExpr::term("fingerprint"),
            ContentExpr::term("murder"),
        );
        assert_eq!(e.to_string(), "(fingerprint AND NOT murder)");
    }

    #[test]
    fn terms_collects_all_leaves() {
        let e = ContentExpr::or(
            ContentExpr::and(ContentExpr::term("a1"), ContentExpr::term("b2")),
            ContentExpr::not(ContentExpr::term("c3")),
        );
        assert_eq!(e.terms(), vec!["a1", "b2", "c3"]);
        assert_eq!(e.depth(), 3);
    }
}
