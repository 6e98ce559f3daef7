//! Relational values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::schema::DataType;

/// A single column value inside a tuple. 24 bytes.
///
/// A string of up to 22 bytes lives inside the value, so creating,
/// cloning and dropping it touch no heap; a longer one is reference
/// counted, so cloning tuples while routing them through exchanges does
/// not copy its bytes. See [`Str`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string: inline when short, shared when long.
    Str(Str),
    /// Boolean.
    Bool(bool),
}

/// The longest string kept inline: what fits in `Value`'s 24 bytes beside
/// the length byte and the one tag byte `Value` and `Str` share.
const INLINE_MAX: u8 = 22;

/// An immutable UTF-8 string, the payload of [`Value::Str`]. It derefs to
/// `str`; whether it is inline or shared is not observable through it.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the string.
    Inline {
        len: u8,
        bytes: [u8; INLINE_MAX as usize],
    },
    Shared(Arc<str>),
}

impl Str {
    /// Copies `s` inline if it fits, and into a shared `Arc<str>` if not.
    fn new(s: &str) -> Str {
        match u8::try_from(s.len()) {
            Ok(len @ 0..=INLINE_MAX) => {
                let mut bytes = [0; INLINE_MAX as usize];
                bytes[..s.len()].copy_from_slice(s.as_bytes());
                Str(Repr::Inline { len, bytes })
            }
            _ => Str(Repr::Shared(Arc::from(s))),
        }
    }

    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                // SAFETY: an inline `Str` is only built by `Str::new`, which
                // copies the first `len` bytes whole from a `&str`, and it
                // is never mutated, so those bytes are valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(&bytes[..usize::from(*len)]) }
            }
            Repr::Shared(s) => s,
        }
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Str) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl Value {
    /// Creates a string value from anything stringy.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Str::new(s.as_ref()))
    }

    /// The data type this value inhabits, or `None` for NULL (which
    /// inhabits every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view, if the value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float view: floats directly, integers widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String view, if the value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view, if the value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Approximate in-memory/serialized size in bytes, used by the network
    /// cost model.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len(),
        }
    }

    /// A stable 64-bit hash used for hash partitioning. NULL hashes to a
    /// fixed sentinel; numeric types hash by bit pattern so that the same
    /// logical key always lands in the same bucket.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over a type tag plus the payload bytes: simple, stable
        // across runs and platforms, and good enough for bucket routing.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        match self {
            Value::Null => fnv(OFFSET, &[0]),
            Value::Int(v) => fnv(OFFSET ^ 1, &v.to_le_bytes()),
            Value::Float(v) => fnv(OFFSET ^ 2, &v.to_bits().to_le_bytes()),
            Value::Str(s) => fnv(OFFSET ^ 3, s.as_bytes()),
            Value::Bool(b) => fnv(OFFSET ^ 4, &[u8::from(*b)]),
        }
    }

    /// SQL-style equality: NULL equals nothing, numeric types compare by
    /// value across Int/Float.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (a, b) => match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }

    /// SQL-style ordering comparison; `None` when either side is NULL or
    /// the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_str().cmp(b.as_str())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.stable_hash().hash(state);
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::str("ab").as_str(), Some("ab"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::str("abcd").byte_size(), 4);
        assert_eq!(Value::Null.byte_size(), 1);
    }

    #[test]
    fn stable_hash_is_deterministic_and_discriminates() {
        assert_eq!(Value::Int(7).stable_hash(), Value::Int(7).stable_hash());
        assert_ne!(Value::Int(7).stable_hash(), Value::Int(8).stable_hash());
        assert_ne!(Value::str("a").stable_hash(), Value::str("b").stable_hash());
        // Type-tagged: Int(0) and Bool(false) must not collide by accident
        // of byte representation.
        assert_ne!(
            Value::Int(0).stable_hash(),
            Value::Bool(false).stable_hash()
        );
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Int(1).sql_eq(&Value::Null));
        assert!(Value::Int(1).sql_eq(&Value::Int(1)));
        assert!(Value::Int(1).sql_eq(&Value::Float(1.0)));
        assert!(!Value::str("x").sql_eq(&Value::Int(1)));
    }

    #[test]
    fn sql_cmp_numeric_and_string() {
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("b").sql_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(String::from("hi")), Value::str("hi"));
        assert_eq!(Value::from(1.25f64), Value::Float(1.25));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::str("p").to_string(), "p");
    }

    #[test]
    fn a_value_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    /// FNV-1a from the type-3 offset, written out independently of
    /// `stable_hash`: routing, buckets and result digests all depend on
    /// a string hashing to exactly this.
    fn fnv1a_tag3(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ 3;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Every observable of a string value is what `&str` gives, on both
    /// sides of the inline/shared boundary and for every pair across it.
    #[test]
    fn property_strings_behave_as_str_across_the_inline_boundary() {
        use crate::check::{Check, Gen};
        use crate::wire::{self, Reader};

        Check::new("string values behave as str").cases(64).run(
            |g| {
                let mut strings: Vec<String> =
                    [0, 21, 22, 23, 64].iter().map(|&n| "a".repeat(n)).collect();
                // 22, 24 and 23 bytes: the last 'é' ends on, past and
                // across the inline bound.
                strings.push("é".repeat(11));
                strings.push("é".repeat(12));
                strings.push(format!("a{}", "é".repeat(11)));
                for s in g.vec_of(0, 12, |g| {
                    g.vec_of(0, 30, |g| *g.pick(&['a', 'z', 'é', '愚', '🦀', '"', '\n']))
                }) {
                    // Each generated string with its last character
                    // changed, so some pairs differ in one place only.
                    let mut near = s.clone();
                    if let Some(last) = near.pop() {
                        near.push(if last == 'a' { 'z' } else { 'a' });
                    }
                    strings.push(s.into_iter().collect());
                    strings.push(near.into_iter().collect());
                }
                strings
            },
            |strings: &Vec<String>| {
                for s in strings {
                    let v = Value::str(s);
                    let Value::Str(payload) = &v else {
                        return Err(format!("{s:?} is not a Value::Str"));
                    };
                    if v.stable_hash() != fnv1a_tag3(s.as_bytes()) {
                        return Err(format!("{s:?}: stable_hash moved"));
                    }
                    if v.as_str() != Some(s.as_str()) || &**payload != s {
                        return Err(format!("{s:?}: reads back differently"));
                    }
                    if payload.to_string() != *s || v.to_string() != *s {
                        return Err(format!("{s:?}: Display differs from str"));
                    }
                    if format!("{payload:?}") != format!("{s:?}")
                        || format!("{v:?}") != format!("Str({s:?})")
                    {
                        return Err(format!("{s:?}: Debug differs from str"));
                    }
                    let mut bytes = Vec::new();
                    wire::put_value(&mut bytes, &v);
                    let mut want = vec![3];
                    wire::put_varint(&mut want, s.len() as u64);
                    want.extend_from_slice(s.as_bytes());
                    if bytes != want {
                        return Err(format!("{s:?}: wire bytes changed"));
                    }
                    let back = wire::get_value(&mut Reader::new(&bytes))
                        .map_err(|e| format!("{s:?}: decode failed: {e}"))?;
                    if back != v || back.as_str() != Some(s.as_str()) {
                        return Err(format!("{s:?}: wire round trip changed it"));
                    }
                }
                for a in strings {
                    for b in strings {
                        let (va, vb) = (Value::str(a), Value::str(b));
                        if (va == vb) != (a == b)
                            || va.sql_eq(&vb) != (a == b)
                            || va.sql_cmp(&vb) != Some(a.as_str().cmp(b.as_str()))
                        {
                            return Err(format!("{a:?} vs {b:?}: compares unlike str"));
                        }
                    }
                }
                Ok(())
            },
        );
    }
}
