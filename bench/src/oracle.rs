//! The in-run correctness oracle: a model of the generated corpus that
//! answers every catalogue query by brute-force scan, sharing nothing
//! with the index under test except the tokenizer (so that "a word" means
//! the same thing on both sides).
//!
//! Search results and semantic-directory links must equal what the model
//! says; any mismatch is a failed op, never a panic.

use std::collections::{BTreeMap, HashMap};

use hac_index::{tokenize_text, ContentExpr};

/// A boolean content query, or a reference to a directory's scope.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Documents containing the word.
    Term(String),
    /// Both.
    And(Box<Expr>, Box<Expr>),
    /// Either.
    Or(Box<Expr>, Box<Expr>),
    /// Left without right.
    AndNot(Box<Expr>, Box<Expr>),
    /// `path(...)` reference: the link set of a standing semantic
    /// directory, or the subtree of a plain one.
    Dir(String),
}

impl Expr {
    /// A term.
    pub fn term(t: &str) -> Expr {
        Expr::Term(t.to_string())
    }

    /// Conjunction.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Disjunction.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// Difference.
    pub fn and_not(a: Expr, b: Expr) -> Expr {
        Expr::AndNot(Box::new(a), Box::new(b))
    }

    /// The query text `hac_query::parse` reads.
    pub fn text(&self) -> String {
        match self {
            Expr::Term(t) => t.clone(),
            Expr::And(a, b) => format!("({} AND {})", a.text(), b.text()),
            Expr::Or(a, b) => format!("({} OR {})", a.text(), b.text()),
            Expr::AndNot(a, b) => format!("({} AND NOT {})", a.text(), b.text()),
            Expr::Dir(p) => format!("path({p})"),
        }
    }

    /// The content expression a remote query system receives. Directory
    /// references have no remote meaning and are not used in remote lanes.
    pub fn content(&self) -> ContentExpr {
        match self {
            Expr::Term(t) => ContentExpr::term(t),
            Expr::And(a, b) => ContentExpr::and(a.content(), b.content()),
            Expr::Or(a, b) => ContentExpr::or(a.content(), b.content()),
            Expr::AndNot(a, b) => ContentExpr::and_not(a.content(), b.content()),
            Expr::Dir(_) => ContentExpr::All,
        }
    }
}

/// Where a search runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Scope {
    /// `/`: every indexed document.
    Root,
    /// A plain directory: the documents below it.
    Subtree(String),
    /// A standing semantic directory: the documents it links.
    Sem(String),
}

impl Scope {
    /// The directory handed to `HacFs::search`.
    pub fn dir(&self) -> &str {
        match self {
            Scope::Root => "/",
            Scope::Subtree(p) | Scope::Sem(p) => p,
        }
    }
}

/// A standing semantic directory of a workload.
#[derive(Debug, Clone)]
pub struct SemDef {
    /// Where it lives.
    pub path: String,
    /// Its query.
    pub query: Expr,
}

/// An order-independent digest of a result set: its size and the XOR of
/// the FNV-1a hashes of its members. Cheap enough to take of every reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Members.
    pub count: usize,
    /// XOR of member hashes.
    pub xor: u64,
}

impl Digest {
    /// Digest of a set of names.
    pub fn of<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> Digest {
        let mut d = Digest::default();
        for s in items {
            d.count += 1;
            d.xor ^= fnv1a(s.as_ref().as_bytes());
        }
        d
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // XOR-combining raw FNV values of near-identical names cancels
    // structure; one multiply-shift round decorrelates them.
    h ^ (h >> 29)
}

/// The corpus as the oracle sees it: path → sorted distinct word ids.
#[derive(Debug, Default, Clone)]
pub struct Model {
    words: HashMap<String, u32>,
    docs: BTreeMap<String, Vec<u32>>,
    /// Expected link set of every standing semantic directory, by path.
    sems: BTreeMap<String, Vec<String>>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the model holds no document.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Every document path, ascending.
    pub fn paths(&self) -> impl Iterator<Item = &String> {
        self.docs.keys()
    }

    fn word_id(&mut self, w: &str) -> u32 {
        let next = self.words.len() as u32;
        *self.words.entry(w.to_string()).or_insert(next)
    }

    /// Inserts or replaces a document.
    pub fn upsert(&mut self, path: &str, content: &[u8]) {
        let mut ids: Vec<u32> = tokenize_text(content)
            .iter()
            .filter_map(|t| t.as_word())
            .map(|w| self.word_id(w))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        self.docs.insert(path.to_string(), ids);
    }

    /// Appends to a document (the appended text starts at a word
    /// boundary, so its words are the only new ones).
    pub fn append(&mut self, path: &str, content: &[u8]) {
        let mut added: Vec<u32> = tokenize_text(content)
            .iter()
            .filter_map(|t| t.as_word())
            .map(|w| self.word_id(w))
            .collect();
        if let Some(ids) = self.docs.get_mut(path) {
            ids.append(&mut added);
            ids.sort_unstable();
            ids.dedup();
        }
    }

    /// Removes a document.
    pub fn remove(&mut self, path: &str) {
        self.docs.remove(path);
    }

    /// Moves a file, or every document below a directory.
    pub fn rename(&mut self, from: &str, to: &str) {
        if let Some(ids) = self.docs.remove(from) {
            self.docs.insert(to.to_string(), ids);
            return;
        }
        let prefix = format!("{from}/");
        let moved: Vec<String> = self
            .docs
            .range(prefix.clone()..)
            .take_while(|(p, _)| p.starts_with(&prefix))
            .map(|(p, _)| p.clone())
            .collect();
        for old in moved {
            let ids = self.docs.remove(&old).expect("listed above");
            self.docs
                .insert(format!("{to}/{}", &old[prefix.len()..]), ids);
        }
    }

    /// Document frequency of every word that occurs.
    pub fn doc_freqs(&self) -> HashMap<&str, usize> {
        let mut by_id = vec![0usize; self.words.len()];
        for ids in self.docs.values() {
            for id in ids {
                by_id[*id as usize] += 1;
            }
        }
        self.words
            .iter()
            .map(|(w, id)| (w.as_str(), by_id[*id as usize]))
            .collect()
    }

    fn matches(&self, expr: &Expr, path: &str, ids: &[u32]) -> bool {
        match expr {
            Expr::Term(t) => self
                .words
                .get(t.as_str())
                .is_some_and(|id| ids.binary_search(id).is_ok()),
            Expr::And(a, b) => self.matches(a, path, ids) && self.matches(b, path, ids),
            Expr::Or(a, b) => self.matches(a, path, ids) || self.matches(b, path, ids),
            Expr::AndNot(a, b) => self.matches(a, path, ids) && !self.matches(b, path, ids),
            Expr::Dir(dir) => self.in_scope_of(dir, path),
        }
    }

    fn in_scope_of(&self, dir: &str, path: &str) -> bool {
        match self.sems.get(dir) {
            Some(links) => links.binary_search_by(|l| l.as_str().cmp(path)).is_ok(),
            None => path.starts_with(dir) && path.as_bytes().get(dir.len()) == Some(&b'/'),
        }
    }

    /// Brute-force answer to `expr` searched in `scope`: ascending paths.
    pub fn search(&self, scope: &Scope, expr: &Expr) -> Vec<String> {
        self.docs
            .iter()
            .filter(|(path, _)| match scope {
                Scope::Root => true,
                Scope::Subtree(d) | Scope::Sem(d) => self.in_scope_of(d, path),
            })
            .filter(|(path, ids)| self.matches(expr, path, ids))
            .map(|(path, _)| path.clone())
            .collect()
    }

    /// The scope a semantic directory at `path` is evaluated in: the link
    /// set of its nearest semantic ancestor, else everything (plain
    /// directories are transparent).
    fn parent_scope(&self, path: &str) -> Scope {
        path.rmatch_indices('/')
            .map(|(i, _)| &path[..i])
            .find(|anc| self.sems.contains_key(*anc))
            .map_or(Scope::Root, |anc| Scope::Sem(anc.to_string()))
    }

    /// (Re)computes the expected link set of every standing semantic
    /// directory. `defs` is in creation order: a directory comes after
    /// its ancestors and after any directory its query references.
    pub fn set_semdirs(&mut self, defs: &[SemDef]) {
        self.sems.clear();
        for def in defs {
            let links = self.links_if_created(&def.path, &def.query);
            self.sems.insert(def.path.clone(), links);
        }
    }

    /// Expected links of a standing semantic directory.
    pub fn links_of(&self, sem: &str) -> &[String] {
        self.sems.get(sem).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Expected links of a semantic directory that does not exist yet.
    pub fn links_if_created(&self, path: &str, query: &Expr) -> Vec<String> {
        self.search(&self.parent_scope(path), query)
    }
}
