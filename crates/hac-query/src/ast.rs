//! Query abstract syntax.
//!
//! A HAC query is a boolean expression over content predicates *and
//! directory references* (§2.5 of the paper): naming a directory in a query
//! pulls in that directory's current, possibly hand-edited result set. The
//! paper stores stable unique identifiers instead of path names inside
//! queries so that renames do not invalidate them; [`DirRef`] models both
//! states (as-parsed path, bound UID).

use hac_index::ContentExpr;
use hac_vfs::VPath;

/// Stable unique identifier of a directory, as kept in HAC's global
/// UID ↔ path map. Allocated by the HAC layer, never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirUid(pub u64);

impl std::fmt::Display for DirUid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uid:{}", self.0)
    }
}

/// A reference to another directory inside a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirRef {
    /// As parsed from user input: a path name. Must be bound to a UID
    /// before the query is stored (paths are not rename-stable).
    Path(VPath),
    /// Bound form: the directory's stable UID.
    Uid(DirUid),
}

/// A node of the query expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryExpr {
    /// A content word.
    Term(String),
    /// A transducer-extracted attribute, `name:value`.
    Field(String, String),
    /// Consecutive words, `"like this"`.
    Phrase(Vec<String>),
    /// Approximate word match, `~word` or `~2:word` (edit distance).
    Approx(String, u8),
    /// Prefix word match, `finger*`.
    Prefix(String),
    /// The result set of another directory (§2.5).
    Dir(DirRef),
    /// Conjunction.
    And(Box<QueryExpr>, Box<QueryExpr>),
    /// Disjunction.
    Or(Box<QueryExpr>, Box<QueryExpr>),
    /// `lhs AND NOT rhs`.
    AndNot(Box<QueryExpr>, Box<QueryExpr>),
    /// Complement within the evaluation scope.
    Not(Box<QueryExpr>),
    /// Everything in scope.
    All,
}

impl QueryExpr {
    /// `a AND b` without manual boxing.
    pub fn and(a: QueryExpr, b: QueryExpr) -> QueryExpr {
        QueryExpr::And(Box::new(a), Box::new(b))
    }

    /// `a OR b` without manual boxing.
    pub fn or(a: QueryExpr, b: QueryExpr) -> QueryExpr {
        QueryExpr::Or(Box::new(a), Box::new(b))
    }

    /// `a AND NOT b` without manual boxing.
    pub fn and_not(a: QueryExpr, b: QueryExpr) -> QueryExpr {
        QueryExpr::AndNot(Box::new(a), Box::new(b))
    }

    /// `NOT a` without manual boxing.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: QueryExpr) -> QueryExpr {
        QueryExpr::Not(Box::new(a))
    }

    /// Visits every node.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a QueryExpr)) {
        f(self);
        match self {
            QueryExpr::And(a, b) | QueryExpr::Or(a, b) | QueryExpr::AndNot(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            QueryExpr::Not(a) => a.walk(f),
            _ => {}
        }
    }

    /// Rewrites every node bottom-up.
    pub fn map(self, f: &mut impl FnMut(QueryExpr) -> QueryExpr) -> QueryExpr {
        let rebuilt = match self {
            QueryExpr::And(a, b) => QueryExpr::And(Box::new(a.map(f)), Box::new(b.map(f))),
            QueryExpr::Or(a, b) => QueryExpr::Or(Box::new(a.map(f)), Box::new(b.map(f))),
            QueryExpr::AndNot(a, b) => QueryExpr::AndNot(Box::new(a.map(f)), Box::new(b.map(f))),
            QueryExpr::Not(a) => QueryExpr::Not(Box::new(a.map(f))),
            leaf => leaf,
        };
        f(rebuilt)
    }

    /// All directory UIDs this query depends on. Unbound path references
    /// are not included — bind them first.
    pub fn referenced_uids(&self) -> Vec<DirUid> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let QueryExpr::Dir(DirRef::Uid(uid)) = e {
                if !out.contains(uid) {
                    out.push(*uid);
                }
            }
        });
        out
    }

    /// All still-unbound path references.
    pub fn unbound_paths(&self) -> Vec<VPath> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let QueryExpr::Dir(DirRef::Path(p)) = e {
                out.push(p.clone());
            }
        });
        out
    }

    /// Whether the expression contains any directory reference.
    pub fn has_dir_refs(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, QueryExpr::Dir(_)) {
                found = true;
            }
        });
        found
    }

    /// Projects the query onto pure content for shipping to a remote query
    /// system (§3): directory references collapse to `All`, because a remote
    /// name space cannot resolve local directories — the local evaluator
    /// re-applies them as set restrictions afterwards.
    pub fn content_projection(&self) -> ContentExpr {
        match self {
            QueryExpr::Term(t) => ContentExpr::Term(t.clone()),
            QueryExpr::Field(n, v) => ContentExpr::Field(n.clone(), v.clone()),
            QueryExpr::Phrase(ws) => ContentExpr::Phrase(ws.clone()),
            QueryExpr::Approx(t, k) => ContentExpr::Approx(t.clone(), *k),
            QueryExpr::Prefix(t) => ContentExpr::Prefix(t.clone()),
            QueryExpr::Dir(_) => ContentExpr::All,
            QueryExpr::And(a, b) => {
                ContentExpr::and(a.content_projection(), b.content_projection())
            }
            QueryExpr::Or(a, b) => ContentExpr::or(a.content_projection(), b.content_projection()),
            QueryExpr::AndNot(a, b) => {
                ContentExpr::and_not(a.content_projection(), b.content_projection())
            }
            QueryExpr::Not(a) => ContentExpr::not(a.content_projection()),
            QueryExpr::All => ContentExpr::All,
        }
    }
}

/// A complete query: the expression plus the original source text (kept for
/// user-facing display and re-parsing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The parsed expression.
    pub expr: QueryExpr,
    /// The source text the user wrote.
    pub source: String,
}

impl Query {
    /// Binds every path reference to a UID via `resolve`, so the stored
    /// query survives renames (§2.5). Fails if any path cannot be resolved.
    pub fn bind_paths<E>(
        &mut self,
        mut resolve: impl FnMut(&VPath) -> Result<DirUid, E>,
    ) -> Result<(), E> {
        let expr = std::mem::replace(&mut self.expr, QueryExpr::All);
        let mut err = None;
        let bound = expr.map(&mut |e| match e {
            QueryExpr::Dir(DirRef::Path(p)) if err.is_none() => match resolve(&p) {
                Ok(uid) => QueryExpr::Dir(DirRef::Uid(uid)),
                Err(e) => {
                    err = Some(e);
                    QueryExpr::Dir(DirRef::Path(p))
                }
            },
            other => other,
        });
        self.expr = bound;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Renders the query with UIDs translated back to current path names
    /// via `path_of` (the user-visible form; unknown UIDs render as
    /// `uid:N`).
    pub fn display_with(&self, mut path_of: impl FnMut(DirUid) -> Option<VPath>) -> String {
        fn go(e: &QueryExpr, path_of: &mut impl FnMut(DirUid) -> Option<VPath>) -> String {
            match e {
                QueryExpr::Term(t) => t.clone(),
                QueryExpr::Field(n, v) => format!("{n}:{v}"),
                QueryExpr::Phrase(ws) => format!("\"{}\"", ws.join(" ")),
                QueryExpr::Approx(t, k) => format!("~{k}:{t}"),
                QueryExpr::Prefix(t) => format!("{t}*"),
                QueryExpr::Dir(DirRef::Path(p)) => format!("path({p})"),
                QueryExpr::Dir(DirRef::Uid(uid)) => match path_of(*uid) {
                    Some(p) => format!("path({p})"),
                    None => format!("{uid}"),
                },
                QueryExpr::And(a, b) => {
                    format!("({} AND {})", go(a, path_of), go(b, path_of))
                }
                QueryExpr::Or(a, b) => format!("({} OR {})", go(a, path_of), go(b, path_of)),
                QueryExpr::AndNot(a, b) => {
                    format!("({} AND NOT {})", go(a, path_of), go(b, path_of))
                }
                QueryExpr::Not(a) => format!("(NOT {})", go(a, path_of)),
                QueryExpr::All => "*".to_string(),
            }
        }
        go(&self.expr, &mut path_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    #[test]
    fn bind_paths_rewrites_to_uids() {
        let mut q = Query {
            expr: QueryExpr::and(
                QueryExpr::Term("x".into()),
                QueryExpr::Dir(DirRef::Path(p("/mail"))),
            ),
            source: "x AND path(/mail)".into(),
        };
        q.bind_paths(|path| {
            assert_eq!(path, &p("/mail"));
            Ok::<_, ()>(DirUid(7))
        })
        .unwrap();
        assert_eq!(q.expr.referenced_uids(), vec![DirUid(7)]);
        assert!(q.expr.unbound_paths().is_empty());
    }

    #[test]
    fn bind_paths_propagates_errors() {
        let mut q = Query {
            expr: QueryExpr::Dir(DirRef::Path(p("/gone"))),
            source: "path(/gone)".into(),
        };
        assert_eq!(
            q.bind_paths(|_| Err::<DirUid, _>("no such dir")),
            Err("no such dir")
        );
    }

    #[test]
    fn content_projection_drops_dir_refs() {
        let e = QueryExpr::and(
            QueryExpr::Term("fingerprint".into()),
            QueryExpr::Dir(DirRef::Uid(DirUid(3))),
        );
        assert_eq!(
            e.content_projection(),
            ContentExpr::and(ContentExpr::Term("fingerprint".into()), ContentExpr::All)
        );
    }

    #[test]
    fn display_resolves_uids_to_paths() {
        let q = Query {
            expr: QueryExpr::and_not(
                QueryExpr::Dir(DirRef::Uid(DirUid(1))),
                QueryExpr::Term("murder".into()),
            ),
            source: String::new(),
        };
        let shown = q.display_with(|uid| (uid == DirUid(1)).then(|| p("/fingerprint")));
        assert_eq!(shown, "(path(/fingerprint) AND NOT murder)");
        let unknown = q.display_with(|_| None);
        assert_eq!(unknown, "(uid:1 AND NOT murder)");
    }

    #[test]
    fn referenced_uids_deduplicates() {
        let e = QueryExpr::or(
            QueryExpr::Dir(DirRef::Uid(DirUid(2))),
            QueryExpr::Dir(DirRef::Uid(DirUid(2))),
        );
        assert_eq!(e.referenced_uids(), vec![DirUid(2)]);
        assert!(e.has_dir_refs());
        assert!(!QueryExpr::Term("a".into()).has_dir_refs());
    }
}
