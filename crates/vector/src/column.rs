//! Typed column vectors with Arc-shared storage and optional validity masks.
//!
//! A [`Column`] is the unit of vectorized processing: a typed array of
//! values plus an optional boolean validity mask (absent mask means "all
//! rows valid"). Storage is reference-counted and immutable once built:
//!
//! * `Column::clone` is an `Arc` refcount bump — **no data is copied**;
//! * [`Column::slice`] is O(1): it shares the same storage and narrows the
//!   `(offset, len)` window;
//! * [`ColumnBuilder::finish`] always produces **unique** storage, so the
//!   build side of the data path never pays copy-on-write;
//! * the rare in-place mutation (e.g. boolean negation over a freshly
//!   computed mask) goes through [`Column::map_bools`], which uses
//!   `Arc::make_mut` copy-on-write: it mutates in place when the column
//!   holds the only reference and copies the window otherwise.
//!
//! **Strings are dictionary codes.** A string column holds one `u32` code
//! per row and an `Arc`-shared [`StrDict`] of distinct strings; there is
//! no other string form. Gathers move codes only: `clone` and `slice`
//! share both, [`Column::take`] and [`Column::filter`] gather new codes
//! over the *same* dictionary, and [`Column::concat`] of columns sharing
//! one dictionary copies codes alone (otherwise the builder merges the
//! inputs' referenced entries into a new dictionary). A shared dictionary
//! can be far larger than the window over it, so [`Column::size_bytes`]
//! counts the whole dictionary (it never under-counts), and
//! [`Column::compact_dict`] re-encodes a window that references few of
//! many entries.
//!
//! Operators transform whole columns at a time; per-row [`Value`] extraction
//! exists for tests, literals, and result display.

use std::sync::Arc;

use crate::dict::{DictBuilder, Recoder, StrDict};
use crate::types::DataType;
use crate::value::Value;

/// The typed, reference-counted storage of a column.
///
/// Cloning any variant bumps a refcount; the payload vector itself is
/// shared. A [`Column`] views a contiguous window of this storage, so
/// indices here are *storage* positions — use the column's accessors
/// ([`Column::values`], `Column::as_*`) for window-relative access.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Booleans (filter results, flags).
    Bool(Arc<Vec<bool>>),
    /// 64-bit integers (keys, quantities, counts).
    Int(Arc<Vec<i64>>),
    /// 64-bit floats (prices, rates).
    Float(Arc<Vec<f64>>),
    /// UTF-8 strings as dictionary codes: row `i` is entry `codes[i]` of
    /// `dict`.
    Str {
        /// One code per row.
        codes: Arc<Vec<u32>>,
        /// The distinct strings the codes index.
        dict: Arc<StrDict>,
    },
    /// Dates as days since 1970-01-01.
    Date(Arc<Vec<i32>>),
}

impl ColumnData {
    /// Wrap a boolean vector (single allocation, no copy).
    pub fn bools(v: Vec<bool>) -> Self {
        ColumnData::Bool(Arc::new(v))
    }

    /// Wrap an integer vector.
    pub fn ints(v: Vec<i64>) -> Self {
        ColumnData::Int(Arc::new(v))
    }

    /// Wrap a float vector.
    pub fn floats(v: Vec<f64>) -> Self {
        ColumnData::Float(Arc::new(v))
    }

    /// Wrap string codes over `dict`. Every code must index an entry.
    pub fn coded(codes: Vec<u32>, dict: Arc<StrDict>) -> Self {
        debug_assert!(
            codes.iter().all(|&c| (c as usize) < dict.len()),
            "string code out of dictionary range"
        );
        ColumnData::Str {
            codes: Arc::new(codes),
            dict,
        }
    }

    /// Wrap a date vector.
    pub fn dates(v: Vec<i32>) -> Self {
        ColumnData::Date(Arc::new(v))
    }

    /// Number of rows in the underlying storage (not the viewing window).
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    /// Whether the storage has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The data type of this storage.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str { .. } => DataType::Str,
            ColumnData::Date(_) => DataType::Date,
        }
    }

    /// Whether `self` and `other` share the same storage allocation
    /// (`Arc::ptr_eq` identity — the zero-copy test hook).
    pub fn ptr_eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Int(a), ColumnData::Int(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Float(a), ColumnData::Float(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Str { codes: a, dict: da }, ColumnData::Str { codes: b, dict: db }) => {
                Arc::ptr_eq(a, b) && Arc::ptr_eq(da, db)
            }
            (ColumnData::Date(a), ColumnData::Date(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A borrowed, window-relative view of a column's payload.
///
/// This is what operators match on for type dispatch; the slices cover
/// exactly the column's `(offset, len)` window, so `slice[i]` is row `i`
/// of the column.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// Booleans.
    Bool(&'a [bool]),
    /// 64-bit integers.
    Int(&'a [i64]),
    /// 64-bit floats.
    Float(&'a [f64]),
    /// Strings: codes over a dictionary.
    Str(StrSlice<'a>),
    /// Dates as days since epoch.
    Date(&'a [i32]),
}

impl ColumnSlice<'_> {
    /// The data type of the viewed payload.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnSlice::Bool(_) => DataType::Bool,
            ColumnSlice::Int(_) => DataType::Int,
            ColumnSlice::Float(_) => DataType::Float,
            ColumnSlice::Str(_) => DataType::Str,
            ColumnSlice::Date(_) => DataType::Date,
        }
    }
}

/// A window of string codes and the dictionary they index.
#[derive(Debug, Clone, Copy)]
pub struct StrSlice<'a> {
    codes: &'a [u32],
    dict: &'a Arc<StrDict>,
}

impl<'a> StrSlice<'a> {
    /// Codes over `dict` (every code must index an entry).
    #[inline]
    pub(crate) fn new(codes: &'a [u32], dict: &'a Arc<StrDict>) -> Self {
        StrSlice { codes, dict }
    }

    /// One code per row.
    #[inline]
    pub fn codes(&self) -> &'a [u32] {
        self.codes
    }

    /// The dictionary the codes index.
    #[inline]
    pub fn dict(&self) -> &'a Arc<StrDict> {
        self.dict
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string of row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &'a str {
        self.dict.get(self.codes[i])
    }

    /// The content hash of row `i`'s string.
    #[inline]
    pub fn hash(&self, i: usize) -> u64 {
        self.dict.hash(self.codes[i])
    }

    /// The rows' strings in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + 'a {
        let dict: &'a StrDict = self.dict;
        self.codes.iter().map(move |&c| dict.get(c))
    }

    /// Whether `self` and `other` index the same dictionary, so equal
    /// codes mean equal strings and unequal codes unequal ones.
    #[inline]
    pub(crate) fn same_dict(&self, other: &StrSlice<'_>) -> bool {
        Arc::ptr_eq(self.dict, other.dict)
    }

    /// Whether row `i` here and row `j` of `other` hold equal strings:
    /// codes within one dictionary, hashes then bytes across two.
    #[inline]
    pub fn eq_at(&self, i: usize, other: &StrSlice<'_>, j: usize) -> bool {
        if self.same_dict(other) {
            self.codes[i] == other.codes[j]
        } else {
            self.hash(i) == other.hash(j) && self.get(i) == other.get(j)
        }
    }

    /// Byte order of row `i` here against row `j` of `other`.
    #[inline]
    pub fn cmp_at(&self, i: usize, other: &StrSlice<'_>, j: usize) -> std::cmp::Ordering {
        if self.same_dict(other) && self.codes[i] == other.codes[j] {
            return std::cmp::Ordering::Equal;
        }
        self.get(i).cmp(other.get(j))
    }
}

/// A typed column: a window over shared storage plus an optional validity
/// mask.
///
/// `validity == None` means every row is valid; otherwise `validity[i]`
/// (window-relative) indicates whether row `i` holds a real value
/// (`false` = SQL NULL). The payload slot of an invalid row contains an
/// arbitrary default and must not be interpreted.
///
/// Cloning and slicing share storage; see the module docs for the full
/// ownership model.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    /// Validity mask over the *full* storage (window applied on access).
    validity: Option<Arc<Vec<bool>>>,
    /// First storage row of the window.
    offset: usize,
    /// Window length in rows.
    len: usize,
}

impl Column {
    /// Wrap storage with no NULLs, viewing its full length.
    pub fn new(data: ColumnData) -> Self {
        let len = data.len();
        Column {
            data,
            validity: None,
            offset: 0,
            len,
        }
    }

    /// Wrap storage with a validity mask. The mask is dropped if it is all
    /// `true`, keeping the "no mask = all valid" invariant canonical.
    pub fn with_validity(data: ColumnData, validity: Vec<bool>) -> Self {
        assert_eq!(data.len(), validity.len(), "validity length mismatch");
        let len = data.len();
        if validity.iter().all(|&v| v) {
            Column {
                data,
                validity: None,
                offset: 0,
                len,
            }
        } else {
            Column {
                data,
                validity: Some(Arc::new(validity)),
                offset: 0,
                len,
            }
        }
    }

    /// Column of `i64` values, no NULLs.
    pub fn from_ints(v: Vec<i64>) -> Self {
        Column::new(ColumnData::ints(v))
    }

    /// Column of `f64` values, no NULLs.
    pub fn from_floats(v: Vec<f64>) -> Self {
        Column::new(ColumnData::floats(v))
    }

    /// Column of booleans, no NULLs.
    pub fn from_bools(v: Vec<bool>) -> Self {
        Column::new(ColumnData::bools(v))
    }

    /// Column of strings, no NULLs.
    pub fn from_strs<S: AsRef<str>>(v: impl IntoIterator<Item = S>) -> Self {
        let mut b = ColumnBuilder::new(DataType::Str, 0);
        for s in v {
            b.push_str(s.as_ref());
        }
        b.finish()
    }

    /// Column of dates (days since epoch), no NULLs.
    pub fn from_dates(v: Vec<i32>) -> Self {
        Column::new(ColumnData::dates(v))
    }

    /// Column of `n` NULLs of type `dtype`: one fill of the payload and
    /// one of the mask (strings: code 0 of a one-entry dictionary).
    pub fn nulls(dtype: DataType, n: usize) -> Self {
        let data = match dtype {
            DataType::Bool => ColumnData::bools(vec![false; n]),
            DataType::Int => ColumnData::ints(vec![0; n]),
            DataType::Float => ColumnData::floats(vec![0.0; n]),
            DataType::Str => ColumnData::coded(vec![0; n], DictBuilder::new().finish_for(n)),
            DataType::Date => ColumnData::dates(vec![0; n]),
        };
        Column::with_validity(data, vec![false; n])
    }

    /// Build a column of the given type from scalar values (may contain
    /// `Value::Null`). Panics on a type mismatch.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Self {
        let mut b = ColumnBuilder::new(dtype, values.len());
        for v in values {
            b.push(v.clone());
        }
        b.finish()
    }

    /// Number of rows in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The data type.
    #[inline]
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Borrow the payload of the window as a typed slice view.
    #[inline]
    pub fn values(&self) -> ColumnSlice<'_> {
        let (o, l) = (self.offset, self.len);
        match &self.data {
            ColumnData::Bool(v) => ColumnSlice::Bool(&v[o..o + l]),
            ColumnData::Int(v) => ColumnSlice::Int(&v[o..o + l]),
            ColumnData::Float(v) => ColumnSlice::Float(&v[o..o + l]),
            ColumnData::Str { codes, dict } => {
                ColumnSlice::Str(StrSlice::new(&codes[o..o + l], dict))
            }
            ColumnData::Date(v) => ColumnSlice::Date(&v[o..o + l]),
        }
    }

    /// Borrow the shared storage (full length, ignoring the window). For
    /// storage-identity checks and advanced zero-copy plumbing; row access
    /// should go through [`Column::values`] or the `as_*` accessors.
    pub fn storage(&self) -> &ColumnData {
        &self.data
    }

    /// Whether `self` and `other` share the same payload allocation
    /// (regardless of their windows). The zero-copy assertion hook.
    pub fn shares_storage(&self, other: &Column) -> bool {
        self.data.ptr_eq(&other.data)
    }

    /// Borrow the validity mask over the window if one is present.
    ///
    /// Note: a window of a wider mask may be all-`true`; callers that only
    /// need per-row checks should prefer [`Column::is_valid`].
    #[inline]
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity
            .as_ref()
            .map(|m| &m[self.offset..self.offset + self.len])
    }

    /// Whether row `i` (window-relative) is valid (not NULL).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.validity.as_ref().is_none_or(|m| m[self.offset + i])
    }

    /// Number of NULL rows in the window.
    pub fn null_count(&self) -> usize {
        self.validity()
            .map_or(0, |m| m.iter().filter(|&&v| !v).count())
    }

    /// Extract row `i` as a scalar [`Value`] (NULL-aware). For tests and
    /// display paths only; not used in the vectorized hot loop.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self.values() {
            ColumnSlice::Bool(v) => Value::Bool(v[i]),
            ColumnSlice::Int(v) => Value::Int(v[i]),
            ColumnSlice::Float(v) => Value::Float(v[i]),
            ColumnSlice::Str(v) => Value::str(v.get(i)),
            ColumnSlice::Date(v) => Value::Date(v[i]),
        }
    }

    /// Gather rows by window-relative index: `out[k] = self[indices[k]]`.
    /// Produces unique (unshared) storage; a string column's new codes
    /// share its dictionary.
    pub fn take(&self, indices: &[u32]) -> Column {
        let data = match self.values() {
            ColumnSlice::Bool(v) => {
                ColumnData::bools(indices.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnSlice::Int(v) => {
                ColumnData::ints(indices.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnSlice::Float(v) => {
                ColumnData::floats(indices.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnSlice::Str(v) => ColumnData::coded(
                indices.iter().map(|&i| v.codes()[i as usize]).collect(),
                v.dict().clone(),
            ),
            ColumnSlice::Date(v) => {
                ColumnData::dates(indices.iter().map(|&i| v[i as usize]).collect())
            }
        };
        match self.validity() {
            None => Column::new(data),
            Some(m) => {
                Column::with_validity(data, indices.iter().map(|&i| m[i as usize]).collect())
            }
        }
    }

    /// Keep only rows where `mask[i]` is true. `mask.len()` must equal
    /// `self.len()`.
    pub fn filter(&self, mask: &[bool]) -> Column {
        assert_eq!(mask.len(), self.len(), "filter mask length mismatch");
        let indices: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i as u32))
            .collect();
        self.take(&indices)
    }

    /// Contiguous sub-range `[offset, offset+len)` of the window as a new
    /// column. **O(1)**: the result shares storage with `self`.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        assert!(
            offset + len <= self.len,
            "slice [{offset}, {offset}+{len}) out of bounds for column of {} rows",
            self.len
        );
        Column {
            data: self.data.clone(),
            validity: self.validity.clone(),
            offset: self.offset + offset,
            len,
        }
    }

    /// Concatenate columns of identical type into one. Panics if `cols` is
    /// empty or types differ. A single input is returned as a zero-copy
    /// shared clone; string columns sharing one dictionary keep it and
    /// copy codes only.
    pub fn concat(cols: &[&Column]) -> Column {
        assert!(!cols.is_empty(), "concat of zero columns");
        if cols.len() == 1 {
            return cols[0].clone();
        }
        let dtype = cols[0].data_type();
        let total: usize = cols.iter().map(|c| c.len()).sum();
        let mut b = ColumnBuilder::new(dtype, total);
        for c in cols {
            assert_eq!(c.data_type(), dtype, "concat type mismatch");
            b.append_column(c);
        }
        b.finish()
    }

    /// In-memory footprint of the window in bytes, what the recycler's
    /// cache accounts: fixed-width payload (4 B per string code) plus the
    /// **whole** string dictionary plus the validity mask. Shared windows
    /// report their own span of codes and values, but a dictionary is
    /// counted in full however few of its entries the window references,
    /// so the sum over cached columns never under-counts what they pin.
    pub fn size_bytes(&self) -> usize {
        self.payload_bytes() + self.dict().map_or(0, |d| d.size_bytes())
    }

    /// The bytes this window adds to a stream of windows over the same
    /// storage (a scan's morsels, an operator's output batches): its
    /// payload and mask, and of a string dictionary at most the share its
    /// rows can reference — all of it once the window has as many rows as
    /// the dictionary has entries. Execution metrics and size estimates
    /// sum this per batch; [`Column::size_bytes`] is the hard count.
    pub fn stream_bytes(&self) -> usize {
        let share = self.dict().map_or(0, |d| {
            if d.len() <= self.len {
                d.size_bytes()
            } else {
                d.size_bytes() / d.len() * self.len
            }
        });
        self.payload_bytes() + share
    }

    fn payload_bytes(&self) -> usize {
        let payload = match self.values() {
            ColumnSlice::Bool(v) => v.len(),
            ColumnSlice::Int(v) => v.len() * 8,
            ColumnSlice::Float(v) => v.len() * 8,
            ColumnSlice::Str(v) => v.len() * 4,
            ColumnSlice::Date(v) => v.len() * 4,
        };
        payload + self.validity.as_ref().map_or(0, |_| self.len)
    }

    /// The string dictionary, for a string column.
    pub fn dict(&self) -> Option<&Arc<StrDict>> {
        match &self.data {
            ColumnData::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// This column with a dictionary of only the entries its valid rows
    /// reference, when its dictionary has more entries than it has rows
    /// (a shared clone otherwise, and for every other type). A small
    /// window kept past its producer — a cached result — then pins what
    /// it uses, not a table's dictionary.
    pub fn compact_dict(&self) -> Column {
        match self.dict() {
            Some(d) if d.len() > self.len => {
                let mut b = ColumnBuilder::new(DataType::Str, self.len);
                b.append_reencoded(self);
                b.finish()
            }
            _ => self.clone(),
        }
    }

    /// Borrow as `&[i64]`, panicking if not an int column. (NULL payload
    /// slots hold defaults; callers that accept NULLs must check the mask
    /// separately.)
    #[inline]
    pub fn as_ints(&self) -> &[i64] {
        match self.values() {
            ColumnSlice::Int(v) => v,
            other => panic!("expected int column, got {}", other.data_type()),
        }
    }

    /// Borrow as `&[f64]`.
    #[inline]
    pub fn as_floats(&self) -> &[f64] {
        match self.values() {
            ColumnSlice::Float(v) => v,
            other => panic!("expected float column, got {}", other.data_type()),
        }
    }

    /// Borrow as `&[bool]`.
    #[inline]
    pub fn as_bools(&self) -> &[bool] {
        match self.values() {
            ColumnSlice::Bool(v) => v,
            other => panic!("expected bool column, got {}", other.data_type()),
        }
    }

    /// Borrow as string codes over their dictionary.
    #[inline]
    pub fn as_strs(&self) -> StrSlice<'_> {
        match self.values() {
            ColumnSlice::Str(v) => v,
            other => panic!("expected str column, got {}", other.data_type()),
        }
    }

    /// Borrow as `&[i32]` date days.
    #[inline]
    pub fn as_dates(&self) -> &[i32] {
        match self.values() {
            ColumnSlice::Date(v) => v,
            other => panic!("expected date column, got {}", other.data_type()),
        }
    }

    /// Apply `f` to every boolean in the window, keeping the validity mask.
    ///
    /// Copy-on-write: when this column holds the only reference to its
    /// storage and views it fully, the transform happens **in place**
    /// (`Arc::make_mut`, no allocation); otherwise the window is copied
    /// once. Panics if the column is not boolean.
    pub fn map_bools(mut self, f: impl Fn(bool) -> bool) -> Column {
        match &mut self.data {
            ColumnData::Bool(storage) => {
                if self.offset == 0 && self.len == storage.len() && Arc::get_mut(storage).is_some()
                {
                    for b in Arc::make_mut(storage).iter_mut() {
                        *b = f(*b);
                    }
                    self
                } else {
                    let vals: Vec<bool> = storage[self.offset..self.offset + self.len]
                        .iter()
                        .map(|&b| f(b))
                        .collect();
                    let validity = self
                        .validity
                        .as_ref()
                        .map(|m| m[self.offset..self.offset + self.len].to_vec());
                    match validity {
                        None => Column::from_bools(vals),
                        Some(m) => Column::with_validity(ColumnData::bools(vals), m),
                    }
                }
            }
            other => panic!("expected bool column, got {}", other.data_type()),
        }
    }

    /// All rows as scalar values (test/display helper).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

/// Logical equality: same type, same window length, same payload and
/// validity per row. Two columns viewing different windows of different
/// storage compare equal when their windows hold the same rows.
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let payload_eq = match (self.values(), other.values()) {
            (ColumnSlice::Bool(a), ColumnSlice::Bool(b)) => a == b,
            (ColumnSlice::Int(a), ColumnSlice::Int(b)) => a == b,
            (ColumnSlice::Float(a), ColumnSlice::Float(b)) => a == b,
            // A NULL string's code is unspecified: compare valid rows.
            (ColumnSlice::Str(a), ColumnSlice::Str(b)) => {
                (0..self.len).all(|i| !self.is_valid(i) || a.eq_at(i, &b, i))
            }
            (ColumnSlice::Date(a), ColumnSlice::Date(b)) => a == b,
            _ => false,
        };
        payload_eq && (0..self.len).all(|i| self.is_valid(i) == other.is_valid(i))
    }
}

/// Incremental builder for a [`Column`] of a fixed type.
///
/// `finish` always yields **unique** storage: nothing shares the produced
/// Arc until the column is cloned or sliced, so builders are the safe place
/// to create data that later flows through the zero-copy path. (A string
/// column's codes are unique; its dictionary is shared when every appended
/// column shared one.)
#[derive(Debug)]
pub struct ColumnBuilder {
    dtype: DataType,
    bools: Vec<bool>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    codes: Vec<u32>,
    strs: StrCodes,
    dates: Vec<i32>,
    validity: Vec<bool>,
    has_null: bool,
}

/// The dictionary a string builder's codes index.
#[derive(Debug, Default)]
enum StrCodes {
    /// No string appended yet (only NULLs, if anything).
    #[default]
    Unset,
    /// Every code so far came from appended columns sharing this
    /// dictionary.
    Shared(Arc<StrDict>),
    /// Codes of a dictionary this builder interns into.
    Own(Recoder),
}

impl ColumnBuilder {
    /// New builder for `dtype`, reserving `capacity` rows.
    pub fn new(dtype: DataType, capacity: usize) -> Self {
        let mut b = ColumnBuilder {
            dtype,
            bools: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
            codes: Vec::new(),
            strs: StrCodes::Unset,
            dates: Vec::new(),
            validity: Vec::with_capacity(capacity),
            has_null: false,
        };
        match dtype {
            DataType::Bool => b.bools.reserve(capacity),
            DataType::Int => b.ints.reserve(capacity),
            DataType::Float => b.floats.reserve(capacity),
            DataType::Str => b.codes.reserve(capacity),
            DataType::Date => b.dates.reserve(capacity),
        }
        b
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Append one scalar. `Value::Null` appends a NULL; floats accept int
    /// values (promoted). Panics on other type mismatches.
    pub fn push(&mut self, v: Value) {
        if v.is_null() {
            self.push_null();
            return;
        }
        match (self.dtype, v) {
            (DataType::Bool, Value::Bool(x)) => self.bools.push(x),
            (DataType::Int, Value::Int(x)) => self.ints.push(x),
            (DataType::Float, Value::Float(x)) => self.floats.push(x),
            (DataType::Float, Value::Int(x)) => self.floats.push(x as f64),
            (DataType::Str, Value::Str(x)) => return self.push_str(&x),
            (DataType::Date, Value::Date(x)) => self.dates.push(x),
            (dt, v) => panic!("type mismatch pushing {v:?} into {dt} builder"),
        }
        self.validity.push(true);
    }

    /// Append one string (a string builder only).
    pub fn push_str(&mut self, s: &str) {
        assert_eq!(
            self.dtype,
            DataType::Str,
            "push_str into {} builder",
            self.dtype
        );
        let code = self.own_dict().intern(s);
        self.codes.push(code);
        self.validity.push(true);
    }

    /// Append a NULL row.
    pub fn push_null(&mut self) {
        self.has_null = true;
        self.validity.push(false);
        match self.dtype {
            DataType::Bool => self.bools.push(false),
            DataType::Int => self.ints.push(0),
            DataType::Float => self.floats.push(0.0),
            DataType::Str => self.codes.push(0),
            DataType::Date => self.dates.push(0),
        }
    }

    /// Append every row of `col`'s window (must have the same type).
    pub fn append_column(&mut self, col: &Column) {
        assert_eq!(col.data_type(), self.dtype, "append type mismatch");
        match col.values() {
            ColumnSlice::Bool(v) => self.bools.extend_from_slice(v),
            ColumnSlice::Int(v) => self.ints.extend_from_slice(v),
            ColumnSlice::Float(v) => self.floats.extend_from_slice(v),
            ColumnSlice::Str(v) => {
                if v.is_empty() {
                    return;
                }
                let shared = match &self.strs {
                    StrCodes::Unset => {
                        self.strs = StrCodes::Shared(v.dict().clone());
                        true
                    }
                    StrCodes::Shared(d) => Arc::ptr_eq(d, v.dict()),
                    StrCodes::Own(_) => false,
                };
                if shared {
                    self.codes.extend_from_slice(v.codes());
                } else {
                    self.append_reencoded(col);
                    return;
                }
            }
            ColumnSlice::Date(v) => self.dates.extend_from_slice(v),
        }
        self.extend_validity(col);
    }

    /// Append `col`'s rows (a string column) as codes of this builder's
    /// own dictionary.
    fn append_reencoded(&mut self, col: &Column) {
        let v = col.as_strs();
        let mask = col.validity();
        let valid = |i: usize| mask.is_none_or(|m| m[i]);
        self.own_dict();
        let StrCodes::Own(own) = &mut self.strs else {
            unreachable!("own_dict sets an own dictionary")
        };
        if v.dict().len() > v.len() {
            // Fewer rows than entries: intern row by row, keep no map.
            self.codes.extend((0..v.len()).map(|i| {
                if valid(i) {
                    own.intern_hashed(v.get(i), v.hash(i))
                } else {
                    0
                }
            }));
        } else {
            let mut r = own.of(v.dict());
            let codes = v.codes().iter().enumerate();
            self.codes
                .extend(codes.map(|(i, &c)| if valid(i) { r.code(c) } else { 0 }));
        }
        self.extend_validity(col);
    }

    fn extend_validity(&mut self, col: &Column) {
        match col.validity() {
            None => self.validity.extend(std::iter::repeat_n(true, col.len())),
            Some(m) => {
                // A window of a wider mask can be all-true; track honestly
                // so `finish` keeps the canonical no-mask form.
                if m.iter().any(|&v| !v) {
                    self.has_null = true;
                }
                self.validity.extend_from_slice(m);
            }
        }
    }

    /// Switch to a dictionary of this builder's own, re-encoding the codes
    /// appended under a shared one.
    fn own_dict(&mut self) -> &mut Recoder {
        if !matches!(self.strs, StrCodes::Own(_)) {
            let mut own = Recoder::default();
            if let StrCodes::Shared(d) = &self.strs {
                let mut r = own.of(d);
                for (c, &valid) in self.codes.iter_mut().zip(&self.validity) {
                    *c = if valid { r.code(*c) } else { 0 };
                }
            }
            self.strs = StrCodes::Own(own);
        }
        let StrCodes::Own(own) = &mut self.strs else {
            unreachable!("set just above")
        };
        own
    }

    /// Finish into a [`Column`] with unique storage.
    pub fn finish(self) -> Column {
        let data = match self.dtype {
            DataType::Bool => ColumnData::bools(self.bools),
            DataType::Int => ColumnData::ints(self.ints),
            DataType::Float => ColumnData::floats(self.floats),
            DataType::Str => {
                let dict = match self.strs {
                    StrCodes::Shared(d) => d,
                    StrCodes::Own(own) => own.finish_for(self.codes.len()),
                    StrCodes::Unset => DictBuilder::new().finish_for(self.codes.len()),
                };
                ColumnData::coded(self.codes, dict)
            }
            DataType::Date => ColumnData::dates(self.dates),
        };
        if self.has_null {
            Column::with_validity(data, self.validity)
        } else {
            Column::new(data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_get() {
        let c = Column::from_ints(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(1), Value::Int(2));
        assert_eq!(c.data_type(), DataType::Int);
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn builder_with_nulls() {
        let mut b = ColumnBuilder::new(DataType::Float, 4);
        b.push(Value::Float(1.5));
        b.push_null();
        b.push(Value::Int(2)); // int promoted into float builder
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0), Value::Float(1.5));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Float(2.0));
    }

    #[test]
    fn nulls_match_a_builder_of_nulls() {
        for t in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Date,
        ] {
            for n in [0, 1, 5] {
                let mut b = ColumnBuilder::new(t, n);
                for _ in 0..n {
                    b.push_null();
                }
                let want = b.finish();
                let got = Column::nulls(t, n);
                assert_eq!(got, want, "{t} x{n}");
                assert_eq!(got.data_type(), t);
                assert_eq!(got.null_count(), n);
                assert_eq!(got.validity().is_none(), n == 0, "canonical mask");
            }
        }
    }

    #[test]
    fn all_valid_mask_is_dropped() {
        let c = Column::with_validity(ColumnData::ints(vec![1, 2]), vec![true, true]);
        assert!(c.validity().is_none());
    }

    #[test]
    fn take_gathers_values_and_validity() {
        let mut b = ColumnBuilder::new(DataType::Str, 3);
        b.push(Value::str("a"));
        b.push_null();
        b.push(Value::str("c"));
        let c = b.finish();
        let t = c.take(&[2, 0, 1, 2]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(0), Value::str("c"));
        assert_eq!(t.get(1), Value::str("a"));
        assert_eq!(t.get(2), Value::Null);
        assert_eq!(t.get(3), Value::str("c"));
    }

    #[test]
    fn filter_keeps_masked_rows() {
        let c = Column::from_ints(vec![10, 20, 30, 40]);
        let f = c.filter(&[true, false, false, true]);
        assert_eq!(f.to_values(), vec![Value::Int(10), Value::Int(40)]);
    }

    #[test]
    fn slice_extracts_range() {
        let c = Column::from_dates(vec![1, 2, 3, 4, 5]);
        let s = c.slice(1, 3);
        assert_eq!(s.as_dates(), &[2, 3, 4]);
    }

    #[test]
    fn clone_and_slice_share_storage() {
        let c = Column::from_ints(vec![1, 2, 3, 4]);
        let cl = c.clone();
        assert!(c.shares_storage(&cl), "clone must not copy payload");
        let s = c.slice(1, 2);
        assert!(c.shares_storage(&s), "slice must not copy payload");
        assert_eq!(s.as_ints(), &[2, 3]);
        // Nested slices stay shared and window-correct.
        let s2 = s.slice(1, 1);
        assert!(s2.shares_storage(&c));
        assert_eq!(s2.as_ints(), &[3]);
        // Gathers produce fresh storage.
        let t = c.take(&[0]);
        assert!(!t.shares_storage(&c));
    }

    #[test]
    fn sliced_validity_is_window_relative() {
        let mut b = ColumnBuilder::new(DataType::Int, 4);
        b.push(Value::Int(1));
        b.push_null();
        b.push(Value::Int(3));
        b.push(Value::Int(4));
        let c = b.finish();
        let s = c.slice(1, 2);
        assert_eq!(s.null_count(), 1);
        assert!(!s.is_valid(0));
        assert!(s.is_valid(1));
        assert_eq!(s.get(0), Value::Null);
        assert_eq!(s.get(1), Value::Int(3));
        // An all-valid window of a masked column behaves as fully valid.
        let tail = c.slice(2, 2);
        assert_eq!(tail.null_count(), 0);
        assert_eq!(tail.to_values(), vec![Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn logical_equality_ignores_windowing() {
        let a = Column::from_ints(vec![9, 1, 2, 9]).slice(1, 2);
        let b = Column::from_ints(vec![1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, Column::from_ints(vec![1, 3]));
    }

    #[test]
    fn map_bools_cow() {
        // Unique storage: mutated in place (storage pointer survives).
        let c = Column::from_bools(vec![true, false]);
        let flipped = c.map_bools(|b| !b);
        assert_eq!(flipped.as_bools(), &[false, true]);
        // Shared storage: copy-on-write leaves the original intact.
        let c = Column::from_bools(vec![true, false]);
        let keep = c.clone();
        let flipped = c.map_bools(|b| !b);
        assert_eq!(flipped.as_bools(), &[false, true]);
        assert_eq!(keep.as_bools(), &[true, false]);
        assert!(!flipped.shares_storage(&keep));
    }

    #[test]
    fn concat_joins_columns() {
        let a = Column::from_ints(vec![1, 2]);
        let b = Column::from_ints(vec![3]);
        let c = Column::concat(&[&a, &b]);
        assert_eq!(c.as_ints(), &[1, 2, 3]);
        // Single-input concat is zero-copy.
        let one = Column::concat(&[&a]);
        assert!(one.shares_storage(&a));
    }

    #[test]
    fn concat_preserves_nulls() {
        let a = Column::from_ints(vec![1]);
        let mut bb = ColumnBuilder::new(DataType::Int, 1);
        bb.push_null();
        let b = bb.finish();
        let c = Column::concat(&[&a, &b]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(1), Value::Null);
    }

    #[test]
    fn size_bytes_accounts_for_strings() {
        let c = Column::from_strs(["ab", "cdef", "ab"]);
        // 3 codes of 4 B, plus the dictionary: 2 + 4 bytes of two entries
        // and 12 B (offset and hash) per entry.
        assert_eq!(c.size_bytes(), 3 * 4 + 6 + 2 * 12);
        // A window counts the whole dictionary; a stream of windows
        // counts its share.
        assert_eq!(c.slice(0, 1).size_bytes(), 4 + 6 + 2 * 12);
        assert_eq!(c.slice(0, 1).stream_bytes(), 4 + 15);
        let i = Column::from_ints(vec![0; 10]);
        assert_eq!(i.size_bytes(), 80);
        // A slice accounts only for its window.
        assert_eq!(i.slice(0, 5).size_bytes(), 40);
    }

    #[test]
    fn from_values_roundtrip() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3)];
        let c = Column::from_values(DataType::Int, &vals);
        assert_eq!(c.to_values(), vals);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn builder_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(DataType::Int, 1);
        b.push(Value::str("oops"));
    }

    #[test]
    fn bool_column_access() {
        let c = Column::from_bools(vec![true, false]);
        assert_eq!(c.as_bools(), &[true, false]);
        assert_eq!(c.get(1), Value::Bool(false));
    }

    #[test]
    fn append_all_valid_window_of_masked_column_stays_unmasked() {
        let mut b = ColumnBuilder::new(DataType::Int, 3);
        b.push_null();
        b.push(Value::Int(1));
        b.push(Value::Int(2));
        let c = b.finish();
        let valid_tail = c.slice(1, 2);
        let mut out = ColumnBuilder::new(DataType::Int, 2);
        out.append_column(&valid_tail);
        let r = out.finish();
        assert!(r.validity().is_none(), "all-valid append keeps no mask");
        assert_eq!(r.as_ints(), &[1, 2]);
    }
}
