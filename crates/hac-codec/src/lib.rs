//! # hac-codec — HAC's byte layout
//!
//! Every byte HAC persists or sends goes through this crate, in one
//! untagged layout read by one [`Reader`], and every versioned object
//! opens with one [`envelope`]: a magic from the [`magic`] registry and a
//! version byte.
//!
//! The [`fixed`] module holds the primitives and the cursor. Formats read
//! field by field — the store manifest (`HACM`), the shard map (`HACF`),
//! metric snapshots (`HACR`), span forests (`HACT`) and HACN responses —
//! call them directly. The structured ones — VFS snapshots (`HACV`), index
//! snapshots (`HACI`), segments (`HACS`), path sidecars (`HACP`), the
//! per-directory metadata records of the paper's §4 and HACN requests —
//! go through the thin positional [`Encode`]/[`Decode`] layer here:
//!
//! | value | bytes |
//! |---|---|
//! | `u8` | the byte |
//! | `u16`, `u32`, `u64` | a LEB128 varint ([`fixed::put_varint`]) |
//! | `String` | varint length, UTF-8 |
//! | `Vec`, slice | varint count, each element in order |
//! | `BTreeMap` | varint count, key, value, … in ascending key order |
//! | `Option` | flag byte `0`, or flag byte `1` and the value |
//! | enum variant | varint index, then its fields in order |
//! | struct, tuple | its fields in declaration order, no header |
//! | newtype struct | the inner value |
//!
//! Nothing in the bytes names a type, so a layout change is caught by
//! the envelope's version, not in-band. Each value still has exactly one
//! encoding: the decoder refuses a varint that is not minimal or does not
//! fit in 64 bits, an integer too wide for its field, a flag byte other
//! than 0 or 1, a map key out of order, and trailing bytes. Plain structs
//! get their impls from [`impl_codec!`]; enums are written by hand next
//! to their definition.
//!
//! Every format is pinned byte for byte by the workspace's golden tests;
//! a layout change is a version bump of every envelope it touches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

pub mod envelope;
pub mod fixed;
pub mod magic;

pub use fixed::{put_varint, Reader};

/// Largest capacity a decoder reserves up front from a count it read:
/// the count is untrusted, so bigger collections grow as elements
/// actually decode.
const MAX_PREALLOC: usize = 4096;

/// Why bytes failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error(&'static str);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Error {}

/// Error for input that ends before the value does.
pub(crate) const END: Error = Error("unexpected end of input");

/// Error for an enum variant index the decoding type does not have.
pub const UNKNOWN_VARIANT: Error = Error("unknown variant index");

/// Error for a recursive value nested deeper than its type allows.
pub const TOO_DEEP: Error = Error("nesting too deep");

/// Error for a key that appears twice in a collection of unique keys.
pub const DUPLICATE_KEY: Error = Error("duplicate key");

/// A value with a byte layout.
pub trait Encode {
    /// Appends this value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read back from its byte layout.
pub trait Decode: Sized {
    /// Reads one value, checking every length, range and flag on the way.
    ///
    /// # Errors
    ///
    /// Any [`Error`] when the bytes are not a value of this type.
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Encodes one value.
pub fn encode_value<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes one value that must span all of `bytes`.
///
/// # Errors
///
/// Any [`Error`] from the value's decoder, or trailing bytes after it.
pub fn decode_value<T: Decode>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Writes enum variant `index`, then its fields: one value, or a tuple
/// of several. A unit variant is [`put_varint`] of its index alone.
pub fn variant<T: Encode + ?Sized>(out: &mut Vec<u8>, index: u64, fields: &T) {
    put_varint(out, index);
    fields.encode(out);
}

/// Implements [`Encode`] and [`Decode`] for a plain struct.
///
/// * `impl_codec!(Name { a, b, c })` — a named struct, written as its
///   fields in the listed order (the declaration order);
/// * `impl_codec!(Name(Inner))` — a newtype struct, written as `Inner`.
///
/// A field missing from the list fails to compile in the decoder.
#[macro_export]
macro_rules! impl_codec {
    ($ty:ident($inner:ty)) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::Encode::encode(&self.0, out)
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::Error> {
                Ok($ty(<$inner as $crate::Decode>::decode(r)?))
            }
        }
    };
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::Encode::encode(&self.$field, out);)+
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::Error> {
                Ok($ty {
                    $($field: $crate::Decode::decode(r)?,)+
                })
            }
        }
    };
}

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.u8()
    }
}

macro_rules! varint {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, u64::from(*self));
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
                <$ty>::try_from(r.varint()?).map_err(|_| Error("integer out of range"))
            }
        }
    )+};
}

varint!(u16, u32, u64);

/// Reads a varint count of items that each take at least one byte, so a
/// count past the bytes left is refused before anything is reserved.
fn count(r: &mut Reader<'_>) -> Result<usize, Error> {
    let n = usize::try_from(r.varint()?).map_err(|_| END)?;
    if n > r.remaining() {
        return Err(END);
    }
    Ok(n)
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = count(r)?;
        std::str::from_utf8(r.take(n)?)
            .map(str::to_owned)
            .map_err(|_| Error("invalid UTF-8"))
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = count(r)?;
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
            None => out.push(0),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.flag()? {
            T::decode(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = count(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(Error("map keys out of order"));
            }
            out.insert(k, V::decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        vals: Vec<u32>,
        opt: Option<u8>,
    }
    impl_codec!(Demo { name, vals, opt });

    #[derive(Debug, PartialEq)]
    struct Id(u64);
    impl_codec!(Id(u64));

    fn demo() -> Demo {
        Demo {
            name: "x".into(),
            vals: vec![1, 300],
            opt: Some(2),
        }
    }

    #[test]
    fn structs_are_their_fields_in_order() {
        let bytes = encode_value(&demo());
        assert_eq!(bytes, [1, b'x', 2, 1, 0xac, 0x02, 1, 2]);
        assert_eq!(decode_value::<Demo>(&bytes).unwrap(), demo());
        // A newtype is its inner value.
        assert_eq!(encode_value(&Id(7)), encode_value(&7u64));
        assert_eq!(decode_value::<Id>(&encode_value(&7u64)).unwrap(), Id(7));
        // A byte vector is its count and the raw bytes.
        assert_eq!(encode_value(&vec![0u8, 255]), [2, 0, 255]);
    }

    #[test]
    fn varints_have_exactly_one_encoding() {
        let cases: [(u64, &[u8]); 5] = [
            (0, &[0]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (1 << 32, &[0x80, 0x80, 0x80, 0x80, 0x10]),
            (
                u64::MAX,
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            ),
        ];
        for (v, bytes) in cases {
            assert_eq!(encode_value(&v), bytes, "{v}");
            assert_eq!(decode_value::<u64>(bytes), Ok(v), "{v}");
        }
        // Narrowing refuses values that do not fit.
        let wide = encode_value(&(u64::from(u32::MAX) + 1));
        assert_eq!(
            decode_value::<u32>(&wide),
            Err(Error("integer out of range"))
        );
        assert_eq!(decode_value::<u32>(&encode_value(&u32::MAX)), Ok(u32::MAX));
        assert_eq!(
            decode_value::<u16>(&encode_value(&65_536u64)),
            Err(Error("integer out of range"))
        );
        // Past 64 bits, in the tenth byte or with an eleventh.
        let overflow = Error("varint overflows 64 bits");
        let mut tenth = [0xff; 10];
        tenth[9] = 0x02;
        assert_eq!(decode_value::<u64>(&tenth), Err(overflow));
        let mut eleventh = [0x80; 11];
        eleventh[10] = 0x01;
        assert_eq!(decode_value::<u64>(&eleventh), Err(overflow));
        // A redundant high zero group.
        let non_minimal = Error("non-minimal varint");
        assert_eq!(decode_value::<u64>(&[0x80, 0x00]), Err(non_minimal));
        assert_eq!(decode_value::<u64>(&[0xff, 0x80, 0x00]), Err(non_minimal));
        // Unterminated.
        assert_eq!(decode_value::<u64>(&[0x80]), Err(END));
    }

    #[test]
    fn maps_options_and_tuples_roundtrip() {
        let map: BTreeMap<String, (u8, String)> = [
            ("j".to_string(), (1u8, "v".to_string())),
            ("k".to_string(), (2u8, "w".to_string())),
        ]
        .into_iter()
        .collect();
        let bytes = encode_value(&map);
        assert_eq!(decode_value::<BTreeMap<_, _>>(&bytes).unwrap(), map);
        // The same entries, repeated or out of order, are refused.
        let first = encode_value(&("j", (1u8, "v")));
        let second = encode_value(&("k", (2u8, "w")));
        for entries in [[&first, &first], [&second, &first]] {
            let bad = [&[2u8][..], entries[0], entries[1]].concat();
            assert_eq!(
                decode_value::<BTreeMap<String, (u8, String)>>(&bad),
                Err(Error("map keys out of order"))
            );
        }
        let none: Option<Box<u64>> = None;
        assert_eq!(encode_value(&none), [0]);
        assert_eq!(
            decode_value::<Option<u64>>(&[2]),
            Err(Error("bad flag byte"))
        );
    }

    #[test]
    fn hostile_bytes_are_refused() {
        // Bad UTF-8, and trailing bytes.
        assert_eq!(
            decode_value::<String>(&[1, 0xff]),
            Err(Error("invalid UTF-8"))
        );
        let mut extra = encode_value(&demo());
        extra.push(0);
        assert_eq!(decode_value::<Demo>(&extra), Err(Error("trailing bytes")));
        // A count past the input fails without reserving it.
        let huge = encode_value(&u64::MAX);
        assert_eq!(decode_value::<String>(&huge), Err(END));
        assert_eq!(decode_value::<Vec<u64>>(&huge), Err(END));
        assert_eq!(decode_value::<BTreeMap<u8, u8>>(&huge), Err(END));
        assert_eq!(decode_value::<Vec<u8>>(&[3, 1, 2]), Err(END));
    }
}
