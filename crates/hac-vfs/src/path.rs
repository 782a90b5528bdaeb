//! Absolute, normalized virtual paths.
//!
//! Every path handled by the VFS is absolute and normalized at parse time:
//! `.` components are dropped and `..` components are resolved lexically
//! (the root's parent is the root itself, as in POSIX). Symbolic links are
//! *not* resolved here — that is the resolver's job ([`crate::Vfs`]), because
//! link expansion needs the live namespace.

use std::fmt;

use crate::error::{VfsError, VfsResult};

/// An absolute, normalized path inside a [`crate::Vfs`] namespace.
///
/// `VPath` is an ordered list of non-empty components; the empty list is the
/// root `/`. Parsing rejects relative paths and components containing NUL.
///
/// # Examples
///
/// ```
/// use hac_vfs::VPath;
///
/// let p = VPath::parse("/home//user/./notes/../mail").unwrap();
/// assert_eq!(p.to_string(), "/home/user/mail");
/// assert_eq!(p.file_name(), Some("mail"));
/// assert_eq!(p.parent().unwrap().to_string(), "/home/user");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VPath {
    components: Vec<String>,
}

hac_codec::impl_codec!(VPath { components });

impl VPath {
    /// The root path `/`.
    pub fn root() -> Self {
        VPath {
            components: Vec::new(),
        }
    }

    /// Parses an absolute path string, normalizing `.`, `..` and repeated
    /// separators.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::InvalidPath`] if the string is empty, does not
    /// start with `/`, or contains a NUL byte.
    pub fn parse(s: &str) -> VfsResult<Self> {
        if s.is_empty() || !s.starts_with('/') || s.contains('\0') {
            return Err(VfsError::InvalidPath(s.to_string()));
        }
        let mut components: Vec<String> = Vec::new();
        for comp in s.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    // Lexical parent; the root is its own parent.
                    components.pop();
                }
                other => components.push(other.to_string()),
            }
        }
        Ok(VPath { components })
    }

    /// Builds a path directly from components. Components must be non-empty
    /// and must not contain `/` or NUL.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::InvalidPath`] when any component is malformed.
    pub fn from_components<I, S>(iter: I) -> VfsResult<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut components = Vec::new();
        for c in iter {
            let c: String = c.into();
            if !is_component(&c) {
                return Err(VfsError::InvalidPath(c));
            }
            components.push(c);
        }
        Ok(VPath { components })
    }

    /// Whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// Number of components (0 for the root).
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// The final component, or `None` for the root.
    pub fn file_name(&self) -> Option<&str> {
        self.components.last().map(String::as_str)
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<VPath> {
        if self.components.is_empty() {
            None
        } else {
            Some(VPath {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// Returns a new path with `name` appended.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::InvalidPath`] for malformed component names.
    pub fn join(&self, name: &str) -> VfsResult<VPath> {
        if !is_component(name) {
            return Err(VfsError::InvalidPath(name.to_string()));
        }
        let mut components = self.components.clone();
        components.push(name.to_string());
        Ok(VPath { components })
    }

    /// Whether `self` equals `ancestor` or lies beneath it.
    pub fn starts_with(&self, ancestor: &VPath) -> bool {
        self.components.len() >= ancestor.components.len()
            && self.components[..ancestor.components.len()] == ancestor.components[..]
    }

    /// Iterates over the path components from the root downwards.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.components.iter().map(String::as_str)
    }

    /// Rewrites the `old_prefix` of this path to `new_prefix`; used when a
    /// directory is renamed and every recorded path under it must follow.
    ///
    /// Returns `None` when the path does not start with `old_prefix`.
    pub fn rebase(&self, old_prefix: &VPath, new_prefix: &VPath) -> Option<VPath> {
        if !self.starts_with(old_prefix) {
            return None;
        }
        let mut components = new_prefix.components.clone();
        components.extend_from_slice(&self.components[old_prefix.components.len()..]);
        Some(VPath { components })
    }
}

/// Whether `name` is a well-formed path component: non-empty, not `.` or
/// `..`, and free of `/` and NUL.
pub(crate) fn is_component(name: &str) -> bool {
    !(name.is_empty() || name == "." || name == ".." || name.contains(['/', '\0']))
}

impl fmt::Display for VPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return f.write_str("/");
        }
        for c in &self.components {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for VPath {
    type Err = VfsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalizes_dots_and_slashes() {
        let p = VPath::parse("/a//b/./c/../d").unwrap();
        assert_eq!(p.to_string(), "/a/b/d");
    }

    #[test]
    fn root_parses_and_displays() {
        assert_eq!(VPath::parse("/").unwrap(), VPath::root());
        assert_eq!(VPath::root().to_string(), "/");
        assert!(VPath::root().is_root());
        assert_eq!(VPath::root().parent(), None);
    }

    #[test]
    fn dotdot_at_root_stays_at_root() {
        assert_eq!(VPath::parse("/../..").unwrap(), VPath::root());
        assert_eq!(VPath::parse("/../a").unwrap().to_string(), "/a");
    }

    #[test]
    fn relative_and_empty_rejected() {
        assert!(matches!(VPath::parse(""), Err(VfsError::InvalidPath(_))));
        assert!(matches!(VPath::parse("a/b"), Err(VfsError::InvalidPath(_))));
        assert!(matches!(
            VPath::parse("/a\0b"),
            Err(VfsError::InvalidPath(_))
        ));
    }

    #[test]
    fn join_validates_component() {
        let p = VPath::parse("/a").unwrap();
        assert_eq!(p.join("b").unwrap().to_string(), "/a/b");
        assert!(p.join("").is_err());
        assert!(p.join("x/y").is_err());
        assert!(p.join("..").is_err());
    }

    #[test]
    fn starts_with_and_rebase() {
        let p = VPath::parse("/a/b/c").unwrap();
        let a = VPath::parse("/a").unwrap();
        let z = VPath::parse("/z").unwrap();
        assert!(p.starts_with(&a));
        assert!(p.starts_with(&p));
        assert!(!p.starts_with(&z));
        assert!(!a.starts_with(&p));
        assert_eq!(p.rebase(&a, &z).unwrap().to_string(), "/z/b/c");
        assert_eq!(p.rebase(&z, &a), None);
        // Rebasing the prefix itself yields the new prefix.
        assert_eq!(a.rebase(&a, &z).unwrap(), z);
    }

    #[test]
    fn file_name_and_parent() {
        let p = VPath::parse("/x/y").unwrap();
        assert_eq!(p.file_name(), Some("y"));
        assert_eq!(p.parent().unwrap().to_string(), "/x");
        assert_eq!(p.parent().unwrap().parent().unwrap(), VPath::root());
    }

    #[test]
    fn from_components_roundtrip() {
        let p = VPath::from_components(["usr", "lib"]).unwrap();
        assert_eq!(p.to_string(), "/usr/lib");
        assert!(VPath::from_components(["ok", "bad/part"]).is_err());
        assert!(VPath::from_components([".."]).is_err());
    }
}
