//! The crate's one hash index: key hash to `u32` entry id, chained per
//! bucket. A hash aggregate's group table numbers its groups with it and a
//! hash join's build side its build rows.
//!
//! Three flat arrays, no per-key allocation:
//!
//! * `heads`: a power-of-two array of chain heads, one per bucket. A
//!   bucket is the top bits of `hash · 2^64/φ`: the hashes of nearby int
//!   keys differ mostly in their low bits, and of floats in their high
//!   ones; the product's top bits depend on all of them (the raw top bits
//!   put 4,000 int keys in 505 of 4,096 buckets). There are at least
//!   twice as many buckets as entries, and at least [`BATCH_CAPACITY`]:
//!   whether a probe's chain is empty or ends is a branch the CPU cannot
//!   predict, so sparse buckets pay. Missing lookups into 30 entries cost
//!   13 ns over 32 buckets and 2 ns over 1,024; into 120,000 entries
//!   22 ns over 131,072 buckets and 15 ns over 262,144; hits gain alike
//!   (2 vCPU shared VM, 2M random probes).
//! * `next`: one chain link per entry.
//! * `hashes`: the full 64-bit hash per entry, compared before any key.
//!
//! Equal hashes are candidates, not proofs: callers confirm each with
//! their key equality ([`rdb_vector::KeyCells::cell_eq`]).

use rdb_vector::BATCH_CAPACITY;

use crate::error::ExecError;

/// No entry: an empty bucket, or the end of a chain.
const NONE: u32 = u32::MAX;

/// The most entries an index holds. Ids stay below [`NONE`].
pub(crate) const MAX_ENTRIES: usize = NONE as usize - 1;

/// Key hash to entry id (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct HashIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl HashIndex {
    /// An index over `hashes`, entry `i` hashing to `hashes[i]`, that
    /// links only the entries `linked` admits. Chains are built from the
    /// last entry back to the first, so [`HashIndex::candidates`] yields
    /// ids in ascending order. More than [`MAX_ENTRIES`] entries is an
    /// error.
    pub(crate) fn over(
        hashes: Vec<u64>,
        linked: impl Fn(usize) -> bool,
    ) -> Result<HashIndex, ExecError> {
        check_entries(hashes.len())?;
        let mut index = HashIndex {
            heads: Vec::new(),
            next: vec![NONE; hashes.len()],
            hashes,
        };
        if !index.hashes.is_empty() {
            index.link(buckets_for(index.hashes.len()), linked);
        }
        Ok(index)
    }

    #[inline]
    fn bucket(&self, h: u64) -> usize {
        let spread = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (spread >> (64 - self.heads.len().trailing_zeros())) as usize
    }

    /// The full hash of entry `id`.
    #[cfg(test)]
    pub(crate) fn hash(&self, id: usize) -> u64 {
        self.hashes[id]
    }

    /// The linked entries whose hash is `h`, in chain order.
    #[inline]
    pub(crate) fn candidates(&self, h: u64) -> Candidates<'_> {
        let at = if self.heads.is_empty() {
            NONE
        } else {
            self.heads[self.bucket(h)]
        };
        Candidates { index: self, at, h }
    }

    /// The first entry among `h`'s candidates for which `same_key` holds.
    #[inline]
    pub(crate) fn find(&self, h: u64, mut same_key: impl FnMut(usize) -> bool) -> Option<u32> {
        self.candidates(h).find(|&id| same_key(id as usize))
    }

    /// Register the next entry id under `h` and return it, doubling the
    /// buckets when the entries outgrow half of them.
    pub(crate) fn insert(&mut self, h: u64) -> u32 {
        assert!(
            self.hashes.len() < MAX_ENTRIES,
            "at most {MAX_ENTRIES} index entries"
        );
        let id = self.hashes.len() as u32;
        self.next.push(NONE);
        self.hashes.push(h);
        if 2 * self.hashes.len() > self.heads.len() {
            self.link(buckets_for(self.hashes.len()), |_| true);
        } else {
            let b = self.bucket(h);
            self.next[id as usize] = self.heads[b];
            self.heads[b] = id;
        }
        id
    }

    /// Relink every admitted entry into `buckets` chains, last entry first.
    fn link(&mut self, buckets: usize, linked: impl Fn(usize) -> bool) {
        self.heads.clear();
        self.heads.resize(buckets, NONE);
        for id in (0..self.hashes.len()).rev() {
            if linked(id) {
                let b = self.bucket(self.hashes[id]);
                self.next[id] = self.heads[b];
                self.heads[b] = id as u32;
            }
        }
    }

    /// Bytes held: the capacity of the three arrays.
    pub(crate) fn size_bytes(&self) -> usize {
        4 * self.heads.capacity() + 4 * self.next.capacity() + 8 * self.hashes.capacity()
    }

    #[cfg(test)]
    pub(crate) fn capacities(&self) -> (usize, usize, usize) {
        (
            self.heads.capacity(),
            self.next.capacity(),
            self.hashes.capacity(),
        )
    }
}

/// Buckets for `entries` entries (see the module docs).
fn buckets_for(entries: usize) -> usize {
    (2 * entries).next_power_of_two().max(BATCH_CAPACITY)
}

/// An index over `entries` entries fits its `u32` ids.
fn check_entries(entries: usize) -> Result<(), ExecError> {
    if entries > MAX_ENTRIES {
        return Err(ExecError::msg(format!(
            "hash index over {entries} rows: at most {MAX_ENTRIES} fit its u32 row ids"
        )));
    }
    Ok(())
}

/// Iterator over one hash's candidates (see [`HashIndex::candidates`]).
pub(crate) struct Candidates<'a> {
    index: &'a HashIndex,
    at: u32,
    h: u64,
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.at != NONE {
            let id = self.at;
            self.at = self.index.next[id as usize];
            if self.index.hashes[id as usize] == self.h {
                return Some(id);
            }
        }
        None
    }
}

/// Seeded key generators shared by the aggregate and join property tests.
#[cfg(test)]
pub(crate) mod testing {
    use rdb_vector::{DataType, Value};

    /// SplitMix64: seeded cases without a dependency.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }

        pub(crate) fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }

        pub(crate) fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }
    }

    pub(crate) const TYPES: [DataType; 5] = [
        DataType::Bool,
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Date,
    ];

    /// Value `v` of a domain of type `t`. The first few floats are both
    /// zeros, NaNs of two signs and of two payloads, and infinity; the
    /// first string is empty.
    pub(crate) fn domain(t: DataType, v: u64) -> Value {
        match t {
            DataType::Bool => Value::Bool(v % 2 == 1),
            DataType::Int => Value::Int(v as i64 - 1_000),
            DataType::Float => Value::Float(match v {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => -f64::NAN,
                4 => f64::from_bits(0x7ff8_0000_0000_0001),
                5 => f64::INFINITY,
                _ => (v as f64 - 60.0) * 0.375,
            }),
            DataType::Str => Value::str(if v == 0 {
                String::new()
            } else {
                format!("k{v}")
            }),
            DataType::Date => Value::Date(v as i32 - 500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_yield_linked_entries_in_id_order() {
        // Three hashes, one of them shared by four entries, entry 5 unlinked.
        let hashes = vec![7, 9, 7, 7, 11, 7, 7];
        let index = HashIndex::over(hashes, |i| i != 5).unwrap();
        assert_eq!(index.candidates(7).collect::<Vec<_>>(), [0, 2, 3, 6]);
        assert_eq!(index.candidates(9).collect::<Vec<_>>(), [1]);
        assert_eq!(index.candidates(12).count(), 0);
        assert_eq!(index.find(7, |i| i > 2), Some(3));
    }

    #[test]
    fn buckets_shared_by_different_hashes_keep_them_apart() {
        // Hashes that differ only below the bucket bits share a chain, and
        // only the entries whose full hash matches come back.
        let hashes: Vec<u64> = (0..64).collect();
        let mut index = HashIndex::over(hashes.clone(), |_| true).unwrap();
        index.link(2, |_| true);
        for h in hashes {
            assert_eq!(index.candidates(h).collect::<Vec<_>>(), [h as u32]);
        }
    }

    #[test]
    fn empty_and_single_entry_indexes() {
        let empty = HashIndex::over(Vec::new(), |_| true).unwrap();
        assert_eq!(empty.candidates(0).count(), 0);
        assert_eq!(empty.size_bytes(), 0);
        let one = HashIndex::over(vec![3], |_| true).unwrap();
        assert_eq!(one.candidates(3).collect::<Vec<_>>(), [0]);
        let none_linked = HashIndex::over(vec![3], |_| false).unwrap();
        assert_eq!(none_linked.candidates(3).count(), 0);
    }

    #[test]
    fn inserts_grow_and_stay_findable() {
        let mut index = HashIndex::default();
        for h in 0..5000u64 {
            assert_eq!(index.insert(h * 31), h as u32);
        }
        assert!(index.capacities().0 >= 10_000, "two buckets per entry");
        for h in 0..5000u64 {
            assert_eq!(index.find(h * 31, |_| true), Some(h as u32));
        }
        assert_eq!(index.hash(17), 17 * 31);
    }

    #[test]
    fn entry_count_is_bounded_by_the_id_width() {
        assert!(check_entries(MAX_ENTRIES).is_ok());
        let err = check_entries(MAX_ENTRIES + 1).unwrap_err();
        assert!(err.message().contains("4294967295 rows"), "{err}");
    }
}
