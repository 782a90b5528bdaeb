//! # hac-codec — HAC's byte layouts
//!
//! Every byte HAC persists or sends goes through this crate, in one of
//! two layouts, and every versioned object opens with one [`envelope`]:
//! a magic from the [`magic`] registry and a version byte.
//!
//! The **tagged layout** (this module) serves every structured value:
//! VFS snapshots (`HACVFS01`), index snapshots (`HACI`), segments
//! (`HACS`), path sidecars (`HACP`), the per-directory metadata records
//! of the paper's §4, and HACN requests. Each value is a one-byte tag
//! followed by its payload, so a decoder checks every value's shape
//! before it trusts it:
//!
//! | value | bytes |
//! |---|---|
//! | `u8` … `u64` | [`T_U64`], u64 LE |
//! | `String` | [`T_STR`], length u64 LE, UTF-8 |
//! | `Vec`, tuple, struct | [`T_SEQ`], length u64 LE, each element in order |
//! | `BTreeMap`, `HashMap` | [`T_MAP`], length u64 LE, key, value, … |
//! | `Option` | [`T_NONE`], or [`T_SOME`] and the value |
//! | enum variant | [`T_VARIANT`], index u64 LE, then [`T_UNIT`], the one field, or a [`T_SEQ`] of the fields |
//! | newtype struct | the inner value, untagged |
//!
//! Structs are positional (declaration order, no names) and a decoder
//! refuses any other arity, so a layout change fails loudly instead of
//! shifting fields. Plain structs get their impls from [`impl_codec!`];
//! enums are written by hand next to their definition. The layout spends
//! bytes freely — a file's content costs nine bytes per byte.
//!
//! The **[`fixed`] layout** serves the formats read field by field: the
//! store manifest (`HACM`), the shard map (`HACF`), metric snapshots
//! (`HACR`), span forests (`HACT`) and HACN responses. Integers sit at
//! their natural width with no tags; the format's own code says what
//! comes next.
//!
//! Both layouts are pinned byte for byte by the workspace's golden
//! tests; a change to either is a version bump of every envelope it
//! touches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};

pub mod envelope;
pub mod fixed;
pub mod magic;

/// Tag of an unsigned integer.
pub const T_U64: u8 = 1;
/// Tag of a UTF-8 string.
pub const T_STR: u8 = 2;
/// Tag of a sequence, tuple or struct.
pub const T_SEQ: u8 = 3;
/// Tag of a map.
pub const T_MAP: u8 = 4;
/// Tag of `None`.
pub const T_NONE: u8 = 5;
/// Tag of `Some`, followed by the value.
pub const T_SOME: u8 = 6;
/// Tag of a unit enum variant's (empty) payload.
pub const T_UNIT: u8 = 7;
/// Tag of an enum variant, followed by its index and payload.
pub const T_VARIANT: u8 = 8;
/// Reserved: boolean (no current format writes it).
pub const T_BOOL: u8 = 9;
/// Reserved: signed integer (no current format writes it).
pub const T_I64: u8 = 10;
/// Reserved: float (no current format writes it).
pub const T_F64: u8 = 11;
/// Reserved: opaque bytes (no current format writes it).
pub const T_BYTES: u8 = 12;

/// Largest capacity a decoder reserves up front from a length it read:
/// the length is untrusted, so bigger collections grow as elements
/// actually decode.
const MAX_PREALLOC: u64 = 4096;

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

/// A value with a byte layout.
pub trait Encode {
    /// Appends this value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read back from its byte layout.
pub trait Decode: Sized {
    /// Reads one value, checking every tag, length and arity on the way.
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
    let mut r = Reader(fixed::Reader::new(bytes));
    let value = T::decode(&mut r)?;
    r.0.finish()?;
    Ok(value)
}

/// Writes `tag` followed by `v` as u64 LE.
fn put_tagged(out: &mut Vec<u8>, tag: u8, v: u64) {
    out.push(tag);
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes the header of a struct (or struct/tuple variant payload) with
/// `arity` fields; the fields follow in order.
pub fn struct_header(out: &mut Vec<u8>, arity: u64) {
    put_tagged(out, T_SEQ, arity);
}

/// Writes the header of enum variant `index`; its payload follows.
pub fn variant(out: &mut Vec<u8>, index: u64) {
    put_tagged(out, T_VARIANT, index);
}

/// Writes a unit enum variant.
pub fn unit_variant(out: &mut Vec<u8>, index: u64) {
    variant(out, index);
    out.push(T_UNIT);
}

/// A cursor over tagged bytes being decoded: the [`fixed::Reader`]
/// underneath reads the tags and the u64 words after them.
pub struct Reader<'a>(fixed::Reader<'a>);

impl<'a> Reader<'a> {
    /// Reads `len` raw bytes; a length past the input is [`END`].
    fn take(&mut self, len: u64) -> Result<&'a [u8], Error> {
        self.0.take(usize::try_from(len).map_err(|_| END)?)
    }

    /// Reads `tag` followed by a u64 LE.
    fn tagged(&mut self, tag: u8) -> Result<u64, Error> {
        self.tag(tag)?;
        self.0.u64()
    }

    /// Reads one tag byte and checks it is `tag`.
    fn tag(&mut self, tag: u8) -> Result<(), Error> {
        if self.0.u8()? == tag {
            Ok(())
        } else {
            Err(Error("unexpected tag"))
        }
    }

    /// Reads a struct header and checks it announces exactly `arity`
    /// fields.
    ///
    /// # Errors
    ///
    /// Any other tag or arity, or the input ends first.
    pub fn struct_of(&mut self, arity: u64) -> Result<(), Error> {
        if self.tagged(T_SEQ)? != arity {
            return Err(Error("struct arity mismatch"));
        }
        Ok(())
    }

    /// Reads an enum variant header, returning the variant index.
    ///
    /// # Errors
    ///
    /// Any other tag, or the input ends first.
    pub fn variant(&mut self) -> Result<u64, Error> {
        self.tagged(T_VARIANT)
    }

    /// Reads the payload of a unit variant.
    ///
    /// # Errors
    ///
    /// Any other tag, or the input ends first.
    pub fn unit(&mut self) -> Result<(), Error> {
        self.tag(T_UNIT)
    }
}

/// Implements [`Encode`] and [`Decode`] for a plain struct.
///
/// * `impl_codec!(Name { a, b, c })` — a named struct, written as a
///   [`T_SEQ`] of its fields in the listed order (the declaration order);
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
                $crate::struct_header(out, [$(stringify!($field)),+].len() as u64);
                $($crate::Encode::encode(&self.$field, out);)+
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::Error> {
                r.struct_of([$(stringify!($field)),+].len() as u64)?;
                Ok($ty {
                    $($field: $crate::Decode::decode(r)?,)+
                })
            }
        }
    };
}

macro_rules! unsigned {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                put_tagged(out, T_U64, u64::from(*self));
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
                <$ty>::try_from(r.tagged(T_U64)?).map_err(|_| Error("integer out of range"))
            }
        }
    )+};
}

unsigned!(u8, u16, u32, u64);

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_tagged(out, T_STR, self.len() as u64);
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
        let len = r.tagged(T_STR)?;
        let bytes = r.take(len)?;
        std::str::from_utf8(bytes)
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

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        put_tagged(out, T_SEQ, self.len() as u64);
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
        let len = r.tagged(T_SEQ)?;
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC) as usize);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(T_SOME);
                v.encode(out);
            }
            None => out.push(T_NONE),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.0.u8()? {
            T_NONE => Ok(None),
            T_SOME => T::decode(r).map(Some),
            _ => Err(Error("unexpected tag")),
        }
    }
}

fn encode_map<'a, K: Encode + 'a, V: Encode + 'a>(
    out: &mut Vec<u8>,
    len: usize,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    put_tagged(out, T_MAP, len as u64);
    for (k, v) in entries {
        k.encode(out);
        v.encode(out);
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_map(out, self.len(), self.iter());
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = r.tagged(T_MAP)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            out.insert(k, V::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Encode, V: Encode, S> Encode for HashMap<K, V, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_map(out, self.len(), self.iter());
    }
}

impl<K: Decode + Hash + Eq, V: Decode, S: BuildHasher + Default> Decode for HashMap<K, V, S> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = r.tagged(T_MAP)?;
        let mut out =
            HashMap::with_capacity_and_hasher(len.min(MAX_PREALLOC) as usize, S::default());
        for _ in 0..len {
            let k = K::decode(r)?;
            out.insert(k, V::decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! tuple {
    ($len:expr; $($name:ident . $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                struct_header(out, $len);
                $(self.$idx.encode(out);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
                r.struct_of($len)?;
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple!(2; A.0, B.1);
tuple!(3; A.0, B.1, C.2);

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
            vals: vec![1, 2, 3],
            opt: Some(2),
        }
    }

    #[test]
    fn structs_roundtrip_as_positional_sequences() {
        let bytes = encode_value(&demo());
        assert_eq!(&bytes[..9], &[T_SEQ, 3, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_value::<Demo>(&bytes).unwrap(), demo());
        // A newtype is its inner value, untagged.
        assert_eq!(encode_value(&Id(7)), encode_value(&7u64));
        assert_eq!(decode_value::<Id>(&encode_value(&7u64)).unwrap(), Id(7));
    }

    #[test]
    fn maps_and_tuples_roundtrip() {
        let map: BTreeMap<String, (u8, String)> = [("k".to_string(), (1u8, "v".to_string()))]
            .into_iter()
            .collect();
        assert_eq!(
            decode_value::<BTreeMap<_, _>>(&encode_value(&map)).unwrap(),
            map
        );
        let hashed: HashMap<String, u16> = [("a".to_string(), 9u16)].into_iter().collect();
        assert_eq!(
            decode_value::<HashMap<_, _>>(&encode_value(&hashed)).unwrap(),
            hashed
        );
        let none: Option<Box<u64>> = None;
        assert_eq!(encode_value(&none), vec![T_NONE]);
    }

    #[test]
    fn arity_tags_and_ranges_are_checked() {
        // A two-field tuple is not a three-field struct.
        let pair = encode_value(&("x".to_string(), vec![1u32]));
        assert_eq!(
            decode_value::<Demo>(&pair),
            Err(Error("struct arity mismatch"))
        );
        // A string is not an integer.
        assert_eq!(
            decode_value::<u64>(&encode_value("1")),
            Err(Error("unexpected tag"))
        );
        // Narrowing refuses values that do not fit.
        assert_eq!(
            decode_value::<u8>(&encode_value(&256u64)),
            Err(Error("integer out of range"))
        );
        assert_eq!(
            decode_value::<u16>(&encode_value(&65_535u64)).unwrap(),
            u16::MAX
        );
        // Trailing bytes are refused.
        let mut extra = encode_value(&demo());
        extra.push(0);
        assert_eq!(decode_value::<Demo>(&extra), Err(Error("trailing bytes")));
    }

    #[test]
    fn hostile_lengths_fail_without_allocating_them() {
        for tag in [T_STR, T_SEQ, T_MAP] {
            let mut bytes = Vec::new();
            put_tagged(&mut bytes, tag, u64::MAX);
            assert!(decode_value::<String>(&bytes).is_err());
            assert!(decode_value::<Vec<u64>>(&bytes).is_err());
            assert!(decode_value::<HashMap<String, u64>>(&bytes).is_err());
        }
    }
}
