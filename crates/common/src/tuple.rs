//! Tuples: immutable rows of values.
//!
//! Tuples are the unit of data flow through the query engine and the unit
//! of bookkeeping in the recovery logs, so they carry a per-query sequence
//! number that identifies them across redistribution.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// An immutable row. Cloning shares the underlying values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Arc<[Value]>,
    /// Sequence number assigned by the producing scan; stable across
    /// repartitioning, used by checkpoints and acknowledgements.
    seq: u64,
}

impl Tuple {
    /// Creates a tuple with sequence number zero.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
            seq: 0,
        }
    }

    /// Creates a tuple with an explicit sequence number. `values` may be
    /// a `Vec` or values already collected into their final `Arc<[Value]>`.
    pub fn with_seq(values: impl Into<Arc<[Value]>>, seq: u64) -> Self {
        Tuple {
            values: values.into(),
            seq,
        }
    }

    /// Returns a copy of this tuple with a different sequence number.
    pub fn renumbered(&self, seq: u64) -> Self {
        Tuple {
            values: Arc::clone(&self.values),
            seq,
        }
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The producer-assigned sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Approximate serialized size in bytes (payload only).
    pub fn byte_size(&self) -> usize {
        self.values.iter().map(Value::byte_size).sum()
    }

    /// Concatenates two tuples (the output of a join); keeps the left
    /// tuple's sequence number.
    pub fn concat(&self, right: &Tuple) -> Tuple {
        self.concat_with_seq(right, self.seq)
    }

    /// Concatenates two tuples under sequence number `seq`, collecting
    /// both value slices straight into one allocation.
    pub fn concat_with_seq(&self, right: &Tuple, seq: u64) -> Tuple {
        Tuple {
            values: self
                .values
                .iter()
                .chain(right.values.iter())
                .cloned()
                .collect(),
            seq,
        }
    }

    /// Projects onto the given column indices, keeping the sequence number.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices
                .iter()
                .map(|&i| self.values[i].clone())
                .collect::<Vec<_>>()
                .into(),
            seq: self.seq,
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<Value>, seq: u64) -> Tuple {
        Tuple::with_seq(vals, seq)
    }

    #[test]
    fn basic_access() {
        let tup = t(vec![Value::Int(1), Value::str("x")], 9);
        assert_eq!(tup.arity(), 2);
        assert_eq!(tup.seq(), 9);
        assert_eq!(tup.value(0), &Value::Int(1));
        assert_eq!(tup.values()[1], Value::str("x"));
    }

    #[test]
    fn byte_size_sums_values() {
        let tup = Tuple::new(vec![Value::Int(1), Value::str("abc")]);
        assert_eq!(tup.byte_size(), 8 + 3);
    }

    #[test]
    fn concat_keeps_left_seq() {
        let l = t(vec![Value::Int(1)], 5);
        let r = t(vec![Value::Int(2)], 8);
        let j = l.concat(&r);
        assert_eq!(j.arity(), 2);
        assert_eq!(j.seq(), 5);
        assert_eq!(j.value(1), &Value::Int(2));
    }

    #[test]
    fn concat_with_seq_takes_the_given_seq() {
        let l = t(vec![Value::Int(1), Value::str("x")], 5);
        let r = t(vec![Value::Int(2)], 8);
        let j = l.concat_with_seq(&r, 8);
        assert_eq!(j.seq(), 8);
        assert_eq!(j.values(), &[Value::Int(1), Value::str("x"), Value::Int(2)]);
    }

    #[test]
    fn project_reorders() {
        let tup = t(vec![Value::Int(1), Value::Int(2), Value::Int(3)], 4);
        let p = tup.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
        assert_eq!(p.seq(), 4);
    }

    #[test]
    fn renumbered_shares_values() {
        let tup = Tuple::new(vec![Value::str("abc")]);
        let r = tup.renumbered(77);
        assert_eq!(r.seq(), 77);
        assert_eq!(r.values(), tup.values());
    }

    #[test]
    fn display() {
        let tup = Tuple::new(vec![Value::Int(1), Value::Null]);
        assert_eq!(tup.to_string(), "[1, NULL]");
    }
}
