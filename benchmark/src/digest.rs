//! An order-independent digest of a result multiset.
//!
//! Executors deliver the same tuples in a different order on every run,
//! so a result is compared with its reference as a multiset: the tuple
//! count plus two commutative folds (wrapping sum and xor) of a
//! per-tuple hash over `Tuple::values()`. One dropped, duplicated or
//! altered tuple changes the count or the sum; sequence numbers are not
//! hashed, because recalls and joins renumber tuples without changing
//! the answer.

use gridq_common::{Tuple, Value};

/// The digest of a multiset of tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Tuples folded in.
    pub count: u64,
    /// Wrapping sum of the per-tuple hashes.
    pub sum: u64,
    /// Xor of the per-tuple hashes.
    pub xor: u64,
}

/// SplitMix64's finaliser: spreads the positional FNV fold over all 64
/// bits so the wrapping sum does not cancel on near-equal tuples.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Position-sensitive hash of one tuple's values.
pub fn tuple_hash(values: &[Value]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ values.len() as u64;
    for v in values {
        h = (h ^ v.stable_hash()).wrapping_mul(0x0000_0100_0000_01b3);
        h = h.rotate_left(23);
    }
    mix(h)
}

impl Digest {
    /// Folds one tuple in.
    pub fn add(&mut self, values: &[Value]) {
        let h = tuple_hash(values);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    /// The digest of a whole result.
    pub fn of<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Digest {
        let mut d = Digest::default();
        for t in tuples {
            d.add(t.values());
        }
        d
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{:016x}:{:016x}", self.count, self.sum, self.xor)
    }
}
