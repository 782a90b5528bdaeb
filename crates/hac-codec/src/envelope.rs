//! The envelope every versioned HAC object opens with: a 4-byte magic
//! from [`crate::magic`], then a version byte, then the body.
//!
//! The envelope only frames; each format keeps its own version policy
//! on what [`open`] returns. HACM reads versions 1 and 2, HACI reports
//! any other version as a skew for the caller to rebuild from, and the
//! rest refuse every version but their current one.

use crate::{Error, END};

/// Writes the envelope header; the body follows.
pub fn seal(out: &mut Vec<u8>, magic: [u8; 4], version: u8) {
    out.extend_from_slice(&magic);
    out.push(version);
}

/// Checks the magic, returning the version byte and the body.
///
/// # Errors
///
/// `bytes` do not start with `magic`, or end before the version byte.
pub fn open(bytes: &[u8], magic: [u8; 4]) -> Result<(u8, &[u8]), Error> {
    let rest = bytes.strip_prefix(&magic).ok_or(Error("bad magic"))?;
    let (&version, body) = rest.split_first().ok_or(END)?;
    Ok((version, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_open() {
        let mut out = Vec::new();
        seal(&mut out, *b"HACX", 3);
        out.push(9);
        assert_eq!(open(&out, *b"HACX"), Ok((3, &[9u8][..])));
        assert_eq!(open(&out[..5], *b"HACX"), Ok((3, &[][..])));
        assert_eq!(open(&out, *b"HACY"), Err(Error("bad magic")));
        assert!(open(&out[..4], *b"HACX").is_err());
        assert!(open(&out[..3], *b"HACX").is_err());
    }
}
