//! The primitives of HAC's one layout, and the one cursor over them.
//!
//! No byte names a type: the format's own code says what comes next.
//! HACM, HACF, HACR, HACT and HACN responses call these directly and keep
//! their integers at natural width; the [`Encode`](crate::Encode) layer
//! builds every other format from the varint and the flag byte.
//!
//! | shape | bytes |
//! |---|---|
//! | `u8` … `u64`, `i128` | the integer LE, at its natural width |
//! | varint | LEB128: seven bits a byte, low group first, the high bit set on all but the last ([`put_varint`] / [`Reader::varint`]) |
//! | 32-byte hash | the bytes ([`Reader::array`]) |
//! | count | u32 LE ([`put_len`] / [`Reader::len`]) |
//! | string, byte run | u32 LE length, then the bytes (a string's UTF-8) |
//! | `Option<u64>` | flag byte `0`, or flag byte `1` and the u64 LE |

use crate::{Error, END, MAX_PREALLOC};

/// Writes `v` as a LEB128 varint: one byte below 128, ten at most.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Writes a u32 count or length.
///
/// # Panics
///
/// If `n` does not fit in a u32: no format may silently truncate one.
#[inline]
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("fixed-layout lengths fit in a u32");
    out.extend_from_slice(&n.to_le_bytes());
}

/// Writes a u32 length, then `bytes`.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Writes a u32 length, then the UTF-8 of `s`.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Writes a flag byte, then the value when there is one.
#[inline]
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// A strict reader over HAC bytes. Every read fails with an [`Error`]
/// when the input ends first, so does a flag byte other than 0 or 1, a
/// string that is not UTF-8 and a varint with more than one encoding;
/// [`Reader::finish`] refuses leftovers.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if n > self.rest.len() {
            return Err(END);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// Bytes not yet read.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Reads `N` raw bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` LE.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Error> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32` LE.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64` LE.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a LEB128 varint, refusing one past 64 bits and one with a
    /// redundant high zero group, so each value has exactly one encoding.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, Error> {
        let mut value = 0;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(Error("varint overflows 64 bits"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return if byte == 0 && shift > 0 {
                    Err(Error("non-minimal varint"))
                } else {
                    Ok(value)
                };
            }
            shift += 7;
        }
    }

    /// Reads an `i128` LE.
    #[inline]
    pub fn i128(&mut self) -> Result<i128, Error> {
        self.array().map(i128::from_le_bytes)
    }

    /// Reads a u32 count or length (not the reader's own length). It is
    /// untrusted: callers reserve at most a bounded capacity from it, as
    /// [`Reader::seq`] does.
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, Error> {
        Ok(self.u32()? as usize)
    }

    /// Reads a u32 length, then that many bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let n = self.len()?;
        self.take(n)
    }

    /// Reads a u32 length, then that many bytes of UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<String, Error> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| Error("invalid UTF-8"))
    }

    /// Reads a flag byte: `0` is false, `1` is true.
    #[inline]
    pub fn flag(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error("bad flag byte")),
        }
    }

    /// Reads a flag byte, then a `u64` LE when the flag is set.
    #[inline]
    pub fn opt_u64(&mut self) -> Result<Option<u64>, Error> {
        Ok(if self.flag()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Reads a u32 count, then that many items with `item`.
    pub fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Ends the read, refusing leftover bytes.
    pub fn finish(self) -> Result<(), Error> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(Error("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_roundtrips_and_hostile_bytes_are_refused() {
        let mut out = vec![7];
        out.extend_from_slice(&0x0102u16.to_le_bytes());
        out.extend_from_slice(&(-5i128).to_le_bytes());
        out.extend_from_slice(&[9; 32]);
        put_str(&mut out, "héllo");
        put_bytes(&mut out, &[0, 255]);
        put_opt_u64(&mut out, Some(u64::MAX));
        put_opt_u64(&mut out, None);
        put_len(&mut out, 2);
        out.extend_from_slice(&[1, 2]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.i128(), Ok(-5));
        assert_eq!(r.array(), Ok([9u8; 32]));
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.bytes(), Ok(&[0u8, 255][..]));
        assert_eq!(r.opt_u64(), Ok(Some(u64::MAX)));
        assert_eq!(r.opt_u64(), Ok(None));
        assert_eq!(r.seq(Reader::u8), Ok(vec![1, 2]));
        assert_eq!(r.finish(), Ok(()));

        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(END));
        assert_eq!(Reader::new(&[2]).flag(), Err(Error("bad flag byte")));
        assert_eq!(Reader::new(&[1, 0]).finish(), Err(Error("trailing bytes")));
        let bad_utf8 = [1, 0, 0, 0, 0xff];
        assert_eq!(Reader::new(&bad_utf8).str(), Err(Error("invalid UTF-8")));
        // A u32::MAX length or count fails without reserving it.
        let max = u32::MAX.to_le_bytes();
        assert_eq!(Reader::new(&max).bytes(), Err(END));
        assert_eq!(Reader::new(&max).seq(Reader::u64), Err(END));
    }
}
