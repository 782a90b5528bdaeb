//! Recursive-descent query parser.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! query   := or
//! or      := and ( OR and )*
//! and     := unary ( [AND [NOT] | AND-less juxtaposition] unary )*
//! unary   := NOT unary | primary
//! primary := '(' query ')' | phrase | ~approx | field | pathref | word | '*'
//! ```
//!
//! Juxtaposition is conjunction (`fingerprint email` ≡ `fingerprint AND
//! email`), matching Glimpse's habit. `AND NOT` parses into the dedicated
//! [`QueryExpr::AndNot`] node the paper's running example uses
//! ("fingerprint AND NOT murder").
//!
//! No query parses into a tree deeper than [`ContentExpr::MAX_DEPTH`], the
//! bound the wire decoder enforces: that counts nesting by parentheses and
//! `NOT`, and the length of a left-deep `AND`/`OR` chain. Parentheses nest
//! the parser even where they add no depth, so more than `MAX_DEPTH` of
//! them open at once are refused too.

use std::fmt;

use hac_index::ContentExpr;

use crate::ast::{DirRef, Query, QueryExpr};
use crate::lexer::{lex, LexError, Tok};

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// The query contained no expression.
    Empty,
    /// `)` without matching `(`, or missing `)`.
    UnbalancedParen,
    /// An operator missing its operand.
    MissingOperand(&'static str),
    /// Tokens remained after a complete expression.
    TrailingInput,
    /// The expression nests deeper than [`ContentExpr::MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lexical error: {e}"),
            ParseError::Empty => write!(f, "empty query"),
            ParseError::UnbalancedParen => write!(f, "unbalanced parentheses"),
            ParseError::MissingOperand(op) => write!(f, "operator {op} is missing an operand"),
            ParseError::TrailingInput => write!(f, "unexpected trailing input"),
            ParseError::TooDeep => write!(
                f,
                "query nests deeper than {} levels",
                ContentExpr::MAX_DEPTH
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses a query string into a [`Query`].
///
/// # Examples
///
/// ```
/// use hac_query::parse;
///
/// let q = parse("fingerprint AND NOT murder").unwrap();
/// assert_eq!(q.display_with(|_| None), "(fingerprint AND NOT murder)");
/// ```
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input; never panics.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        parens: 0,
    };
    let (expr, _) = p.parse_or()?;
    if p.pos != p.toks.len() {
        return Err(ParseError::TrailingInput);
    }
    Ok(Query {
        expr,
        source: input.to_string(),
    })
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Parentheses open around the current position: the parser's own
    /// recursion depth.
    parens: usize,
}

/// A parsed subtree and its depth (1 for a leaf).
type Node = (QueryExpr, usize);

/// Depth of a node over children of depth `a` and `b`, refused past the
/// bound before the node is built.
fn parent_depth(a: usize, b: usize) -> Result<usize, ParseError> {
    let depth = 1 + a.max(b);
    if depth > ContentExpr::MAX_DEPTH {
        return Err(ParseError::TooDeep);
    }
    Ok(depth)
}

/// Reports an operator whose operand is absent.
fn missing(op: &'static str) -> impl Fn(ParseError) -> ParseError {
    move |e| match e {
        ParseError::Empty => ParseError::MissingOperand(op),
        other => other,
    }
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w == kw)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// `or` and the `and` chains under it. Both levels loop rather than
    /// recurse, so only parentheses nest the parser.
    fn parse_or(&mut self) -> Result<Node, ParseError> {
        let mut or: Option<Node> = None;
        loop {
            let first = self.parse_unary();
            let (mut left, mut depth) = match or {
                Some(_) => first.map_err(missing("OR"))?,
                None => first?,
            };
            loop {
                // Explicit AND [NOT], or juxtaposition: another primary
                // begins here.
                let op = if self.peek_keyword("and") {
                    self.bump();
                    if self.peek_keyword("not") {
                        self.bump();
                        "AND NOT"
                    } else {
                        "AND"
                    }
                } else {
                    match self.peek() {
                        Some(Tok::Word(w)) if w == "or" => break,
                        Some(Tok::RParen) | None => break,
                        Some(_) => "AND",
                    }
                };
                let (right, d) = self.parse_unary().map_err(missing(op))?;
                depth = parent_depth(depth, d)?;
                left = if op == "AND" {
                    QueryExpr::and(left, right)
                } else {
                    QueryExpr::and_not(left, right)
                };
            }
            or = Some(match or {
                Some((acc, d)) => (QueryExpr::or(acc, left), parent_depth(d, depth)?),
                None => (left, depth),
            });
            if !self.peek_keyword("or") {
                return Ok(or.expect("one operand parsed"));
            }
            self.bump();
        }
    }

    /// `unary` and the `primary` under it.
    fn parse_unary(&mut self) -> Result<Node, ParseError> {
        let mut nots = 0;
        while self.peek_keyword("not") {
            self.bump();
            nots += 1;
        }
        let primary = if matches!(self.peek(), Some(Tok::LParen)) {
            self.bump();
            self.parse_group()
        } else {
            leaf(self.bump())
        };
        let (mut expr, mut depth) = match nots {
            0 => primary?,
            _ => primary.map_err(missing("NOT"))?,
        };
        for _ in 0..nots {
            depth = parent_depth(depth, 0)?;
            expr = QueryExpr::not(expr);
        }
        Ok((expr, depth))
    }

    /// The rest of `'(' query ')'`.
    fn parse_group(&mut self) -> Result<Node, ParseError> {
        if self.parens >= ContentExpr::MAX_DEPTH {
            return Err(ParseError::TooDeep);
        }
        self.parens += 1;
        let inner = self.parse_or()?;
        self.parens -= 1;
        match self.bump() {
            Some(Tok::RParen) => Ok(inner),
            _ => Err(ParseError::UnbalancedParen),
        }
    }
}

/// A primary that is not a group.
fn leaf(tok: Option<Tok>) -> Result<Node, ParseError> {
    let expr = match tok {
        None => return Err(ParseError::Empty),
        Some(Tok::LParen | Tok::RParen) => return Err(ParseError::UnbalancedParen),
        Some(Tok::Word(w)) => QueryExpr::Term(w),
        Some(Tok::Field(n, v)) => QueryExpr::Field(n, v),
        Some(Tok::Phrase(ws)) => QueryExpr::Phrase(ws),
        Some(Tok::Approx(t, k)) => QueryExpr::Approx(t, k),
        Some(Tok::Prefix(t)) => QueryExpr::Prefix(t),
        Some(Tok::PathRef(p)) => QueryExpr::Dir(DirRef::Path(p)),
        Some(Tok::Star) => QueryExpr::All,
    };
    Ok((expr, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_vfs::VPath;

    fn show(q: &str) -> String {
        parse(q).unwrap().display_with(|_| None)
    }

    #[test]
    fn single_term() {
        assert_eq!(show("fingerprint"), "fingerprint");
    }

    #[test]
    fn precedence_or_lower_than_and() {
        assert_eq!(show("a OR b AND c"), "(a OR (b AND c))");
        assert_eq!(show("a AND b OR c"), "((a AND b) OR c)");
    }

    #[test]
    fn juxtaposition_is_and() {
        assert_eq!(show("finger print email"), "((finger AND print) AND email)");
    }

    #[test]
    fn and_not_is_a_single_node() {
        let q = parse("fingerprint AND NOT murder").unwrap();
        assert!(matches!(q.expr, QueryExpr::AndNot(..)));
    }

    #[test]
    fn unary_not_nests() {
        assert_eq!(show("NOT NOT a"), "(NOT (NOT a))");
        assert_eq!(show("a AND (NOT b)"), "(a AND (NOT b))");
    }

    #[test]
    fn parens_override() {
        assert_eq!(show("(a OR b) AND c"), "((a OR b) AND c)");
        assert_eq!(parse("(a"), Err(ParseError::UnbalancedParen));
        assert_eq!(parse("a)"), Err(ParseError::TrailingInput));
        assert_eq!(parse(")"), Err(ParseError::UnbalancedParen));
    }

    #[test]
    fn empty_and_operator_errors() {
        assert_eq!(parse(""), Err(ParseError::Empty));
        assert_eq!(parse("a AND"), Err(ParseError::MissingOperand("AND")));
        assert_eq!(parse("a OR"), Err(ParseError::MissingOperand("OR")));
        assert_eq!(parse("NOT"), Err(ParseError::MissingOperand("NOT")));
        assert_eq!(
            parse("a AND NOT"),
            Err(ParseError::MissingOperand("AND NOT"))
        );
    }

    #[test]
    fn the_papers_running_example() {
        // §2.5: "<old query> AND <path-name of parent>".
        let q = parse("fingerprint AND path(/projects)").unwrap();
        assert_eq!(
            q.expr.unbound_paths(),
            vec![VPath::parse("/projects").unwrap()]
        );
        assert_eq!(
            show("fingerprint AND path(/projects)"),
            "(fingerprint AND path(/projects))"
        );
    }

    #[test]
    fn mixed_leaves() {
        let q = show("from:alice \"status report\" ~2:kernl *");
        assert_eq!(
            q,
            "(((from:alice AND \"status report\") AND ~2:kernl) AND *)"
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(show("a and b or not c"), "((a AND b) OR (NOT c))");
    }

    #[test]
    fn nesting_past_max_depth_is_refused() {
        let max = ContentExpr::MAX_DEPTH;
        let depth = |q: &str| parse(q).map(|q| q.expr.content_projection().depth());
        // NOT chains, parentheses around them, and left-deep AND/OR chains
        // all count; exactly MAX_DEPTH parses.
        let nots = |n: usize| format!("{}a", "NOT ".repeat(n));
        assert_eq!(depth(&nots(max - 1)), Ok(max));
        assert_eq!(depth(&nots(max)), Err(ParseError::TooDeep));
        let parens = |n: usize| format!("{}{}{}", "(NOT ".repeat(n), "a", ")".repeat(n));
        assert_eq!(depth(&parens(max - 1)), Ok(max));
        assert_eq!(depth(&parens(max)), Err(ParseError::TooDeep));
        let chain = |n: usize, op: &str| {
            let mut q = "a".to_string();
            for _ in 0..n {
                q.push_str(op);
            }
            q
        };
        for op in [" OR a", " AND a", " AND NOT a", " a"] {
            assert_eq!(depth(&chain(max - 1, op)), Ok(max), "{op}");
            assert_eq!(depth(&chain(max, op)), Err(ParseError::TooDeep), "{op}");
        }
        // Redundant parentheses nest the parser, so they are bounded too,
        // and a hostile nesting fails without exhausting the stack.
        let wrapped = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(depth(&wrapped(max)), Ok(1));
        assert_eq!(depth(&wrapped(100_000)), Err(ParseError::TooDeep));
        assert_eq!(depth(&nots(100_000)), Err(ParseError::TooDeep));
        assert_eq!(depth(&chain(100_000, " OR a")), Err(ParseError::TooDeep));
    }
}

#[cfg(test)]
mod prefix_tests {
    use super::*;

    #[test]
    fn prefix_parses_and_displays() {
        let q = parse("finger* AND NOT email").unwrap();
        assert!(matches!(
            &q.expr,
            QueryExpr::AndNot(a, _) if matches!(&**a, QueryExpr::Prefix(p) if p == "finger")
        ));
        assert_eq!(q.display_with(|_| None), "(finger* AND NOT email)");
    }

    #[test]
    fn bare_star_is_still_all() {
        assert!(matches!(parse("*").unwrap().expr, QueryExpr::All));
    }
}
