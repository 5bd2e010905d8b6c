//! Vectorized row hashing over key column sets, and the one definition of
//! key equality.
//!
//! [`hash_columns`] hashes a batch of rows in one pass **per column** (the
//! type `match` runs once per batch, not once per row), folding each
//! column's contribution into a per-row `u64` accumulator with an
//! FxHash-style mix. Hash joins and hash aggregation both key on it.
//!
//! Hashes are *candidates*, not proofs: callers confirm with
//! [`key_rows_eq`] (or, for keys held outside a [`Column`], with
//! [`KeyCells::cell_eq`]), the positional equality of SQL `IS NOT
//! DISTINCT FROM`: NULL equals NULL, `-0.0` equals `0.0`, and cells of
//! different column types are never equal. Rows equal under it hash
//! equally —
//!
//! * per-cell type tags keep `Int(2)` apart from `Float(2.0)` and
//!   `Bool(true)` apart from `Int(1)`;
//! * `-0.0` normalizes to `0.0` before hashing;
//! * NULL folds in its own tag (and nothing else), so NULL keys group
//!   with each other and never silently with real values;
//! * a string folds in its dictionary entry's content hash
//!   ([`str_hash`], precomputed once per entry), never its bytes per row:
//!   equal strings hash equally whatever dictionary holds them, and the
//!   content hash mixes the length before the bytes, so `("ab","c")` and
//!   `("a","bc")` stay distinct across multi-column keys.

use crate::column::{Column, ColumnSlice};

/// Per-row hash seed (FNV-1a offset basis; any fixed constant works).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Mix multiplier borrowed from FxHash — cheap and well-distributed for
/// word-at-a-time folding.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

// Per-cell type tags (any distinct constants would do).
const TAG_NULL: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_INT: u64 = 2;
const TAG_FLOAT: u64 = 3;
const TAG_STR: u64 = 4;
const TAG_DATE: u64 = 5;

/// Fold one word into the accumulator.
#[inline(always)]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(K)
}

/// Compute one hash per physical row of `cols` (all columns must have at
/// least `rows` rows), writing into `hashes`. The buffer is cleared and
/// resized — reuse it across batches to keep the loop allocation-free.
pub fn hash_columns(cols: &[&Column], rows: usize, hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.resize(rows, SEED);
    for col in cols {
        hash_column(col, hashes);
    }
}

/// Fold one column's window into the per-row accumulators (one typed loop
/// per batch; the valid/NULL branch only exists when a mask is present).
fn hash_column(col: &Column, hashes: &mut [u64]) {
    let n = hashes.len();
    debug_assert!(col.len() >= n, "column shorter than hash buffer");
    macro_rules! fold {
        ($vals:expr, $tag:expr, $conv:expr) => {{
            let vals = $vals;
            match col.validity() {
                None => {
                    for (h, v) in hashes.iter_mut().zip(&vals[..n]) {
                        *h = mix(mix(*h, $tag), $conv(v));
                    }
                }
                Some(mask) => {
                    for ((h, v), valid) in hashes.iter_mut().zip(&vals[..n]).zip(&mask[..n]) {
                        *h = if *valid {
                            mix(mix(*h, $tag), $conv(v))
                        } else {
                            mix(*h, TAG_NULL)
                        };
                    }
                }
            }
        }};
    }
    match col.values() {
        ColumnSlice::Bool(v) => fold!(v, TAG_BOOL, |x: &bool| *x as u64),
        ColumnSlice::Int(v) => fold!(v, TAG_INT, |x: &i64| *x as u64),
        ColumnSlice::Float(v) => fold!(v, TAG_FLOAT, |x: &f64| norm_float(*x).to_bits()),
        ColumnSlice::Date(v) => fold!(v, TAG_DATE, |x: &i32| *x as u64),
        ColumnSlice::Str(v) => {
            let dict = v.dict();
            fold!(v.codes(), TAG_STR, |c: &u32| dict.hash(*c))
        }
    }
}

/// The content hash of a string: what a dictionary precomputes per entry
/// and a string key cell folds in. Equal strings hash equally.
pub fn str_hash(s: &str) -> u64 {
    hash_str(SEED, s)
}

/// `-0.0` hashes (and compares, see [`KeyCells::cell_eq`]) as `0.0`.
#[inline(always)]
fn norm_float(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// Fold a string cell: tag, length, then the bytes eight at a time.
#[inline]
fn hash_str(h: u64, s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut h = mix(mix(h, TAG_STR), bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        // The tail as a little-endian word, zero-padded.
        let tail = rem.iter().rev().fold(0u64, |w, &b| (w << 8) | b as u64);
        h = mix(h, tail);
    }
    h
}

/// Positional row-key equality across two column sets: row `i` of `a`
/// against row `j` of `b`, one [`KeyCells::cell_eq`] per column. Used to
/// confirm hash-bucket candidates.
pub fn key_rows_eq(a: &[&Column], i: usize, b: &[&Column], j: usize) -> bool {
    debug_assert_eq!(a.len(), b.len(), "key column arity mismatch");
    a.iter()
        .zip(b.iter())
        .all(|(ca, cb)| KeyCells::of(ca).cell_eq(i, &KeyCells::of(cb), j))
}

/// One key column as key equality reads it: typed values plus an optional
/// validity mask (absent: every row valid). A [`Column`] gives one with
/// [`KeyCells::of`]; state kept in plain vectors (a hash aggregate's group
/// keys) gives one with [`KeyCells::new`], so both compare under the same
/// rule.
#[derive(Debug, Clone, Copy)]
pub struct KeyCells<'a> {
    values: ColumnSlice<'a>,
    validity: Option<&'a [bool]>,
}

impl<'a> KeyCells<'a> {
    /// Cells over `values`, NULL where `validity` is `false`.
    #[inline]
    pub fn new(values: ColumnSlice<'a>, validity: Option<&'a [bool]>) -> Self {
        KeyCells { values, validity }
    }

    /// The cells of `col`'s window.
    #[inline]
    pub fn of(col: &'a Column) -> Self {
        KeyCells::new(col.values(), col.validity())
    }

    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.validity.is_none_or(|m| m[i])
    }

    /// Key equality of cell `i` here with cell `j` of `other`: NULL equals
    /// NULL (`IS NOT DISTINCT FROM`), `-0.0` equals `0.0`, NaNs are equal
    /// when their bits are, and cells of different types are never equal.
    #[inline]
    pub fn cell_eq(&self, i: usize, other: &KeyCells<'_>, j: usize) -> bool {
        match (self.is_valid(i), other.is_valid(j)) {
            (false, false) => return true,
            (true, true) => {}
            _ => return false,
        }
        match (self.values, other.values) {
            (ColumnSlice::Bool(x), ColumnSlice::Bool(y)) => x[i] == y[j],
            (ColumnSlice::Int(x), ColumnSlice::Int(y)) => x[i] == y[j],
            (ColumnSlice::Float(x), ColumnSlice::Float(y)) => {
                norm_float(x[i]).to_bits() == norm_float(y[j]).to_bits()
            }
            (ColumnSlice::Str(x), ColumnSlice::Str(y)) => x.eq_at(i, &y, j),
            (ColumnSlice::Date(x), ColumnSlice::Date(y)) => x[i] == y[j],
            // Different column types never compare equal (their hashes
            // carry distinct tags too).
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::types::DataType;
    use crate::value::Value;

    fn hash_one(cols: &[&Column], row: usize) -> u64 {
        let n = cols[0].len();
        let mut hs = Vec::new();
        hash_columns(cols, n, &mut hs);
        hs[row]
    }

    #[test]
    fn equal_rows_hash_equal() {
        let a = Column::from_ints(vec![5, 7, 5]);
        let b = Column::from_strs(["x", "y", "x"]);
        let cols = [&a, &b];
        assert_eq!(hash_one(&cols, 0), hash_one(&cols, 2));
        assert_ne!(hash_one(&cols, 0), hash_one(&cols, 1));
    }

    #[test]
    fn key_equality_implies_hash_equality() {
        // Sweep pairs across NULLs, signed zeros, NaN and empty strings;
        // wherever `key_rows_eq` holds the hashes must agree (the inverse
        // is collision territory and not asserted).
        let mut ib = ColumnBuilder::new(DataType::Int, 7);
        for v in [Some(1), Some(1), None, None, Some(1), Some(1), Some(1)] {
            ib.push(v.map_or(Value::Null, Value::Int));
        }
        let ints = ib.finish();
        let floats = Column::from_floats(vec![0.0, -0.0, 2.5, 2.5, f64::NAN, f64::NAN, 0.0]);
        let strs = Column::from_strs(["", "", "", "", "", "", "a"]);
        let cols = [&ints, &floats, &strs];
        let mut hs = Vec::new();
        hash_columns(&cols, 7, &mut hs);
        let mut equal_pairs = 0;
        for i in 0..7 {
            for j in 0..7 {
                if key_rows_eq(&cols, i, &cols, j) {
                    assert_eq!(hs[i], hs[j], "rows {i},{j} are equal keys");
                    equal_pairs += 1;
                }
            }
        }
        // The diagonal plus, both ways round, 0.0/-0.0 (rows 0, 1), NULL
        // ints (2, 3) and NaNs of the same bits (4, 5); row 6 differs from
        // row 0 only by a non-empty string.
        assert_eq!(equal_pairs, 7 + 6);
    }

    #[test]
    fn type_tags_keep_int_and_float_apart() {
        let i = Column::from_ints(vec![2]);
        let f = Column::from_floats(vec![2.0]);
        assert_ne!(hash_one(&[&i], 0), hash_one(&[&f], 0));
        assert!(!key_rows_eq(&[&i], 0, &[&f], 0));
        let b = Column::from_bools(vec![true]);
        let one = Column::from_ints(vec![1]);
        assert_ne!(hash_one(&[&b], 0), hash_one(&[&one], 0));
    }

    #[test]
    fn negative_zero_normalizes() {
        let f = Column::from_floats(vec![0.0, -0.0]);
        assert_eq!(hash_one(&[&f], 0), hash_one(&[&f], 1));
        assert!(key_rows_eq(&[&f], 0, &[&f], 1));
    }

    #[test]
    fn string_boundaries_do_not_smear() {
        let a1 = Column::from_strs(["ab"]);
        let b1 = Column::from_strs(["c"]);
        let a2 = Column::from_strs(["a"]);
        let b2 = Column::from_strs(["bc"]);
        assert_ne!(hash_one(&[&a1, &b1], 0), hash_one(&[&a2, &b2], 0));
        // Long strings exercise the chunked tail path.
        let long = Column::from_strs(["abcdefghijklmnop", "abcdefghijklmnoq"]);
        assert_ne!(hash_one(&[&long], 0), hash_one(&[&long], 1));
    }

    #[test]
    fn string_tails_hash_as_zero_padded_words() {
        for s in ["", "a", "abc", "abcdefgh", "abcdefghi", "abcdefghijklmno"] {
            let bytes = s.as_bytes();
            let mut want = mix(mix(SEED, TAG_STR), bytes.len() as u64);
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                want = mix(want, u64::from_le_bytes(word));
            }
            assert_eq!(hash_str(SEED, s), want, "{s:?}");
        }
    }

    #[test]
    fn nulls_group_with_nulls_only() {
        let mut b = ColumnBuilder::new(DataType::Int, 3);
        b.push_null();
        b.push_null();
        b.push(Value::Int(0));
        let c = b.finish();
        let cols = [&c];
        assert_eq!(hash_one(&cols, 0), hash_one(&cols, 1));
        assert_ne!(hash_one(&cols, 0), hash_one(&cols, 2));
        assert!(key_rows_eq(&cols, 0, &cols, 1));
        assert!(!key_rows_eq(&cols, 0, &cols, 2));
    }

    #[test]
    fn hashes_respect_column_windows() {
        let wide = Column::from_ints(vec![9, 1, 2, 9]);
        let window = wide.slice(1, 2);
        let plain = Column::from_ints(vec![1, 2]);
        let mut hw = Vec::new();
        let mut hp = Vec::new();
        hash_columns(&[&window], 2, &mut hw);
        hash_columns(&[&plain], 2, &mut hp);
        assert_eq!(hw, hp);
    }
}
