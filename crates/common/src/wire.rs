//! Wire serialization for values and tuples.
//!
//! The socket substrate moves tuple blocks between processes, so the
//! payload types need a byte-level encoding. This module is the single
//! place that knows it: LEB128 varints for lengths and sequence numbers,
//! zigzag varints for signed integers, IEEE-754 little-endian for
//! floats, and length-prefixed UTF-8 for strings. Everything is
//! deterministic (no per-process hashing, no pointer identity) so the
//! same tuple always encodes to the same bytes — which is what lets the
//! parity oracles compare runs across substrates and lets a duplicated
//! frame be byte-identical to the original.
//!
//! Decoding is defensive: every read checks remaining length, string
//! payloads are validated as UTF-8, and unknown tags are loud
//! [`GridError::Execution`] errors rather than panics, because the bytes
//! come from another process over a real socket.

use std::sync::Arc;

use crate::error::{GridError, Result};
use crate::tuple::Tuple;
use crate::value::Value;

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, high bit
/// set on every byte but the last). At most 10 bytes for a `u64`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped (`0, -1, 1, -2, ...` → `0, 1, 2, 3, ...`)
/// so small negative integers stay small on the wire.
pub fn put_varint_signed(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// A cursor over a received byte slice. All reads are bounds-checked and
/// return [`GridError::Execution`] on truncation or malformed input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn truncated(&self, what: &str) -> GridError {
        GridError::Execution(format!(
            "wire: truncated {what} at offset {} of {} bytes",
            self.pos,
            self.buf.len()
        ))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.truncated("byte"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint, rejecting encodings longer than 10 bytes.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(GridError::Execution(
            "wire: varint longer than 10 bytes".into(),
        ))
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn varint_signed(&mut self) -> Result<i64> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated("payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Appends `v` as its IEEE-754 bits, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian IEEE-754 float.
pub fn get_f64(r: &mut Reader<'_>) -> Result<f64> {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(r.bytes(8)?);
    Ok(f64::from_le_bytes(bytes))
}

/// Appends `s` as a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string, borrowed from the buffer.
pub fn get_str<'a>(r: &mut Reader<'a>) -> Result<&'a str> {
    let len = get_count(r, "string length")?;
    std::str::from_utf8(r.bytes(len)?)
        .map_err(|e| GridError::Execution(format!("wire: invalid UTF-8 string: {e}")))
}

/// Reads a varint that must fit a `u32` (`what` names it in the error).
pub fn get_u32(r: &mut Reader<'_>, what: &str) -> Result<u32> {
    u32::try_from(r.varint()?).map_err(|_| GridError::Execution(format!("wire: {what} overflow")))
}

/// Reads an element count (or byte length). Every element occupies at
/// least one byte, so a count beyond the bytes that remain is corrupt:
/// rejecting it here is the one rule that keeps a flipped length byte
/// from demanding gigabytes of pre-allocation.
pub fn get_count(r: &mut Reader<'_>, what: &str) -> Result<usize> {
    let n = r.varint()?;
    match usize::try_from(n) {
        Ok(n) if n <= r.remaining() => Ok(n),
        _ => Err(GridError::Execution(format!(
            "wire: {what} {n} exceeds {} remaining bytes",
            r.remaining()
        ))),
    }
}

// Value tags. Stable on the wire: new variants append, never renumber.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Appends one value: a tag byte followed by the payload.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            put_varint_signed(out, *i);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
    }
}

/// Reads one value.
pub fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(r.varint_signed()?)),
        TAG_FLOAT => Ok(Value::Float(get_f64(r)?)),
        TAG_STR => Ok(Value::str(get_str(r)?)),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        tag => Err(GridError::Execution(format!(
            "wire: unknown value tag {tag}"
        ))),
    }
}

/// Appends one tuple: `seq`, arity, then each value.
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_varint(out, t.seq());
    put_varint(out, t.arity() as u64);
    for v in t.values() {
        put_value(out, v);
    }
}

/// Reads one tuple, collecting its values straight into the tuple's one
/// allocation.
pub fn get_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    let seq = r.varint()?;
    let arity = get_count(r, "tuple arity")?;
    // A `map` over a range has an exact length, so `collect` allocates the
    // `Arc<[Value]>` once; collecting `Result`s would fill a `Vec` first.
    // So the first error is set aside, and it stops further reads.
    let mut failed = None;
    let values: Arc<[Value]> = (0..arity)
        .map(|_| {
            if failed.is_none() {
                match get_value(r) {
                    Ok(v) => return v,
                    Err(e) => failed = Some(e),
                }
            }
            Value::Null
        })
        .collect();
    match failed {
        Some(e) => Err(e),
        None => Ok(Tuple::with_seq(values, seq)),
    }
}

/// Appends a slice of tuples: a count then each tuple.
pub fn put_tuples(out: &mut Vec<u8>, tuples: &[Tuple]) {
    put_varint(out, tuples.len() as u64);
    for t in tuples {
        put_tuple(out, t);
    }
}

/// Reads a counted sequence of tuples.
pub fn get_tuples(r: &mut Reader<'_>) -> Result<Vec<Tuple>> {
    let n = get_count(r, "tuple count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_tuple(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{Check, Gen};
    use crate::rng::DetRng;

    fn round_trip_varint(v: u64) -> u64 {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        Reader::new(&buf).varint().unwrap()
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            assert_eq!(round_trip_varint(v), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            let mut buf = Vec::new();
            put_varint_signed(&mut buf, v);
            assert_eq!(Reader::new(&buf).varint_signed().unwrap(), v);
        }
    }

    #[test]
    fn values_and_tuples_round_trip() {
        let tuples = vec![
            Tuple::with_seq(
                vec![
                    Value::Null,
                    Value::Int(-42),
                    Value::Float(1.5),
                    Value::str("héllo"),
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::str(""),
                ],
                77,
            ),
            Tuple::with_seq(vec![], u64::MAX),
        ];
        let mut buf = Vec::new();
        put_tuples(&mut buf, &tuples);
        let mut r = Reader::new(&buf);
        assert_eq!(get_tuples(&mut r).unwrap(), tuples);
        assert!(r.is_empty());
    }

    #[test]
    fn encoding_is_deterministic() {
        let t = Tuple::with_seq(vec![Value::str("abc"), Value::Int(7)], 9);
        let mut a = Vec::new();
        let mut b = Vec::new();
        put_tuple(&mut a, &t);
        put_tuple(&mut b, &t.clone());
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_input_errors_instead_of_panicking() {
        // Truncated varint (continuation bit set, no next byte).
        assert!(Reader::new(&[0x80]).varint().is_err());
        // Over-long varint.
        assert!(Reader::new(&[0x80; 11]).varint().is_err());
        // Unknown value tag.
        assert!(get_value(&mut Reader::new(&[99])).is_err());
        // Truncated float payload.
        assert!(get_value(&mut Reader::new(&[TAG_FLOAT, 0, 0])).is_err());
        // String length pointing past the end.
        assert!(get_value(&mut Reader::new(&[TAG_STR, 200])).is_err());
        // Invalid UTF-8 payload.
        assert!(get_value(&mut Reader::new(&[TAG_STR, 2, 0xff, 0xfe])).is_err());
        // A tuple whose second value is bad fails as a whole.
        assert!(get_tuple(&mut Reader::new(&[0, 3, TAG_NULL, 99, TAG_NULL])).is_err());
        // Absurd counts bail before allocating.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert!(get_tuples(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn property_random_tuples_round_trip() {
        Check::new("wire_round_trip").cases(64).run(
            |g: &mut DetRng| {
                g.vec_of(0, 8, |g| {
                    let seq = g.next_u64();
                    let vals = g.vec_of(0, 6, |g| match g.usize_in(0, 5) {
                        0 => Value::Null,
                        1 => Value::Int(g.next_u64() as i64),
                        2 => Value::Float(g.f64_in(-1e12, 1e12)),
                        3 => Value::Bool(g.flip()),
                        _ => {
                            let len = g.usize_in(0, 12);
                            Value::str(
                                (0..len)
                                    .map(|_| g.pick(&['a', 'ß', '愚', 'z']))
                                    .collect::<String>(),
                            )
                        }
                    });
                    Tuple::with_seq(vals, seq)
                })
            },
            |tuples: &Vec<Tuple>| {
                let mut buf = Vec::new();
                put_tuples(&mut buf, tuples);
                let mut r = Reader::new(&buf);
                let back = get_tuples(&mut r).map_err(|e| format!("decode failed: {e}"))?;
                if !r.is_empty() {
                    return Err(format!("{} bytes left over", r.remaining()));
                }
                if &back == tuples {
                    Ok(())
                } else {
                    Err("round trip changed the tuples".into())
                }
            },
        );
    }
}
