//! Blocking hash aggregation over columnar group state.
//!
//! **Group ids.** A `GroupTable` numbers its groups `0, 1, 2, …` in
//! first-seen order and keeps their keys as typed key columns: row `g` of
//! each is group `g`'s key as first seen (a later `-0.0` joins the `0.0`
//! group and leaves the kept key alone). A row's key is read as one
//! **key word** per key column: a fixed-width value's bits, and for a
//! string its *table-local key id* — the code of the string in a
//! dictionary the table owns. Each incoming `(dictionary, code)` pair is
//! mapped to its key id once per distinct dictionary `Arc` (a scan's
//! morsels share their table's), so no string is hashed or compared per
//! row. Then:
//!
//! * when every key is a string and the combinations of key ids (NULL
//!   included) fit in 2^16, the group id is read from a dense array
//!   indexed by the combination — no hashing at all (Q1's two flags);
//! * any other key set hashes its key words into the crate's one hash
//!   index (the `index` module, which join build sides use too) and
//!   confirms candidates by word: NULL equals NULL, `-0.0` equals `0.0`,
//!   NaNs are equal when their bits are — the key equality of
//!   [`rdb_vector::KeyCells::cell_eq`], which hash joins use.
//!
//! A dense table that outgrows 2^16 combinations rehashes its groups into
//! the index once. A keyless aggregate has exactly one group, id 0, from
//! the start (so an empty global input still yields its one row) and
//! reads no keys.
//!
//! **Per-aggregate kernels.** `fold` resolves every live row of a batch to
//! a `u32` group id in one pass. Batches are consumed selection-aware:
//! filtered batches arrive as shared columns plus a selection vector and
//! only the selected rows are folded in, so nothing upstream ever
//! gathered. Then each aggregate runs one typed loop over the `(row,
//! group id)` pairs into its own state vector, indexed by group id:
//! counts; int and float sums, each with a seen flag that tells 0 from the
//! NULL sum of no values; and min/max as a typed column compared in
//! `Value` order (floats by `total_cmp`, strings by bytes, kept as codes
//! of a dictionary the state owns). A float sum adds each group's
//! values in row order, batch after batch: the serial fold, which is why
//! parallel aggregation partitions only exact aggregates
//! ([`AggFunc::is_exact`]) and why [`ResumedAgg`] may continue a cached
//! sum. `count(distinct)` keeps one hash set of `(group id, value word)`
//! pairs per aggregate and, per group, the number of pairs it owns.
//!
//! **Deterministic emission order.** The breaker emits groups sorted by
//! group key (ascending `Value` order: NULL first, floats by
//! `total_cmp`), *not* in first-seen order. It sorts a permutation of group
//! ids by the key columns, gathers the keys with [`Column::take`] and
//! finishes each state vector straight into a column. The output is thus
//! independent of input batch arrival order — and therefore of worker
//! interleaving under morsel-driven parallel execution (see
//! [`crate::parallel`]) — which the recycler requires: fingerprint-identical
//! plans must publish byte-identical `MaterializedResult`s whether they ran
//! at DOP 1 or 8.
//!
//! Hashing is FxHash-style throughout (the key-word hash, and the vendored
//! FxHash for the distinct pairs): the keys are the data being
//! aggregated, and SipHash's DoS resistance buys nothing here.
//!
//! The same `GroupTable` state backs the [`aggregate`] breaker — serial
//! input folds into one table, partitioned input into one per worker,
//! merged into the first with `GroupTable::merge` (the sort then erases
//! the merge order) — and delta repair: [`ResumedAgg`] and
//! [`retract_count_groups`] load a cached result's key and value columns
//! back into it.

use std::cmp::Ordering;
use std::ops::AddAssign;
use std::sync::Arc;

use fxhash::FxHashSet;

use rdb_expr::{eval, AggFunc, Expr};
use rdb_vector::{Batch, Column, ColumnData, ColumnSlice, DataType, Recoder, BATCH_CAPACITY};

use crate::error::FailSlot;
use crate::index::HashIndex;
use crate::metrics::OpMetrics;
use crate::op::BlockingExec;
use crate::parallel::{fold_input, Pipeline};

/// What the kernels need of a fixed-width cell type: `Value` order, the
/// payload a NULL slot holds (what `ColumnBuilder::push_null` writes), and
/// the key word it is grouped by (see the module docs).
trait Cell: Copy {
    fn order(&self, other: &Self) -> Ordering;
    fn null() -> Self;
    fn word(self) -> u64;
    fn from_word(w: u64) -> Self;
}

macro_rules! ord_cell {
    ($($t:ty => $null:expr, |$x:ident| $word:expr, |$w:ident| $back:expr;)*) => {$(
        impl Cell for $t {
            #[inline]
            fn order(&self, other: &Self) -> Ordering {
                self.cmp(other)
            }
            fn null() -> Self {
                $null
            }
            #[inline]
            fn word(self) -> u64 {
                let $x = self;
                $word
            }
            #[inline]
            fn from_word($w: u64) -> Self {
                $back
            }
        }
    )*};
}
ord_cell!(
    bool => false, |x| x as u64, |w| w != 0;
    i64 => 0, |x| x as u64, |w| w as i64;
    i32 => 0, |x| x as u32 as u64, |w| w as u32 as i32;
    u32 => 0, |x| x as u64, |w| w as u32;
);

impl Cell for f64 {
    #[inline]
    fn order(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
    fn null() -> Self {
        0.0
    }
    #[inline]
    fn word(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

/// The code in `into` of each entry of `from`'s dictionary (merging two
/// tables' strings).
fn recode_all(into: &mut Recoder, from: &Recoder) -> Vec<u32> {
    let d = from.dict().dict();
    (0..d.len() as u32)
        .map(|c| into.intern_hashed(d.get(c), d.hash(c)))
        .collect()
}

/// A growable typed column with one cell per group: a group key column,
/// or the running min/max of an aggregate. `valid[g] == false` is NULL
/// (for min/max: no value seen yet) over a [`Cell::null`] payload (code 0
/// for strings).
struct Cells {
    data: CellData,
    valid: Vec<bool>,
}

enum CellData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Codes of the table-owned dictionary in `strs`.
    Str(Vec<u32>, Recoder),
    Date(Vec<i32>),
}

/// Evaluate `$body` with `$d` bound to the typed vector of `$data` (the
/// codes, for strings).
macro_rules! each_type {
    ($data:expr, |$d:ident| $body:expr) => {
        match $data {
            CellData::Bool($d) => $body,
            CellData::Int($d) => $body,
            CellData::Float($d) => $body,
            CellData::Str($d, _) => $body,
            CellData::Date($d) => $body,
        }
    };
}

/// Evaluate `$fixed` with `$d` bound to the typed vector of `$data` and
/// `$s` to the slice of the same type in `$slice`, or `$str` for strings
/// with `$c`, `$t` and `$v` bound to the codes, the table strings and the
/// string slice. Panics when the types differ.
macro_rules! same_type {
    ($data:expr, $slice:expr, |$d:ident, $s:ident| $fixed:expr, |$c:ident, $t:ident, $v:ident| $str:expr) => {
        match ($data, $slice) {
            (CellData::Bool($d), ColumnSlice::Bool($s)) => $fixed,
            (CellData::Int($d), ColumnSlice::Int($s)) => $fixed,
            (CellData::Float($d), ColumnSlice::Float($s)) => $fixed,
            (CellData::Date($d), ColumnSlice::Date($s)) => $fixed,
            (CellData::Str($c, $t), ColumnSlice::Str($v)) => $str,
            (_, s) => panic!("aggregate cells cannot take a {} column", s.data_type()),
        }
    };
}

impl Cells {
    fn new(dtype: DataType) -> Cells {
        let data = match dtype {
            DataType::Bool => CellData::Bool(Vec::new()),
            DataType::Int => CellData::Int(Vec::new()),
            DataType::Float => CellData::Float(Vec::new()),
            DataType::Str => CellData::Str(Vec::new(), Recoder::default()),
            DataType::Date => CellData::Date(Vec::new()),
        };
        Cells {
            data,
            valid: Vec::new(),
        }
    }

    /// A copy of `col`'s window, or `None` when `col` is not of `dtype`.
    fn from_column(dtype: DataType, col: &Column) -> Option<Cells> {
        if col.data_type() != dtype {
            return None;
        }
        let mut cells = Cells::new(dtype);
        let (mut words, mut valid) = (Vec::new(), Vec::new());
        cells.read_words(col, None, col.len(), &mut words, &mut valid);
        for (w, ok) in words.into_iter().zip(valid) {
            cells.push_word(w, ok);
        }
        Some(cells)
    }

    fn data_type(&self) -> DataType {
        match &self.data {
            CellData::Bool(_) => DataType::Bool,
            CellData::Int(_) => DataType::Int,
            CellData::Float(_) => DataType::Float,
            CellData::Str(..) => DataType::Str,
            CellData::Date(_) => DataType::Date,
        }
    }

    /// The key word of each live row of `col` (NULL rows: 0, not valid):
    /// the value's bits, a string's code here.
    fn read_words(
        &mut self,
        col: &Column,
        sel: Option<&[u32]>,
        live: usize,
        words: &mut Vec<u64>,
        valid: &mut Vec<bool>,
    ) {
        words.clear();
        valid.clear();
        let mask = col.validity();
        same_type!(
            &mut self.data,
            col.values(),
            |_d, s| read_live(sel, live, mask, words, valid, |row| s[row].word()),
            |_c, strs, v| {
                let mut r = strs.of(v.dict());
                let codes = v.codes();
                read_live(sel, live, mask, words, valid, |row| {
                    r.code(codes[row]) as u64
                })
            }
        );
    }

    /// Group `g`'s key word (`Cell::word`; a string's code).
    #[inline]
    fn word(&self, g: usize) -> u64 {
        each_type!(&self.data, |d| d[g].word())
    }

    /// Whether group `g`'s key equals a key cell with word `w` (when
    /// `valid`): floats compare with `-0.0` as `0.0`, NaNs by bits.
    #[inline]
    fn key_eq(&self, g: usize, w: u64, valid: bool) -> bool {
        if self.valid[g] != valid {
            return false;
        }
        !valid
            || match &self.data {
                CellData::Float(v) => norm_word(true, v[g].word()) == norm_word(true, w),
                _ => self.word(g) == w,
            }
    }

    /// Append a cell from its key word (a NULL unless `valid`).
    fn push_word(&mut self, w: u64, valid: bool) {
        self.valid.push(valid);
        let w = if valid { w } else { 0 };
        each_type!(&mut self.data, |d| d.push(Cell::from_word(w)));
    }

    /// Pad with NULLs to `n` cells.
    fn resize(&mut self, n: usize) {
        self.valid.resize(n, false);
        each_type!(&mut self.data, |d| d.resize(n, Cell::null()));
    }

    /// Fold the live rows of `col` into the running min (`keep == Less`)
    /// or max (`keep == Greater`).
    fn fold_extreme(&mut self, col: &Column, rows: Rows<'_>, keep: Ordering) {
        let mask = col.validity();
        let valid = &mut self.valid;
        same_type!(
            &mut self.data,
            col.values(),
            |best, vals| rows.for_each(|row, g| {
                if mask.is_none_or(|m| m[row]) {
                    offer(best, valid, g, vals[row], keep);
                }
            }),
            |best, strs, vals| {
                let mut r = strs.of(vals.dict());
                rows.for_each(|row, g| {
                    if mask.is_none_or(|m| m[row])
                        && (!valid[g] || vals.get(row).cmp(r.get(best[g])) == keep)
                    {
                        best[g] = r.code(vals.codes()[row]);
                        valid[g] = true;
                    }
                });
            }
        );
    }

    /// Combine `other`'s extremes, group `og` there into group `map[og]`.
    fn merge_extreme(&mut self, other: Cells, map: &[u32], keep: Ordering) {
        let valid = &mut self.valid;
        match (&mut self.data, &other.data) {
            (CellData::Str(best, strs), CellData::Str(theirs, their_strs)) => {
                let d = their_strs.dict().dict();
                for (og, &g) in map.iter().enumerate() {
                    if !other.valid[og] {
                        continue;
                    }
                    let (g, s) = (g as usize, d.get(theirs[og]));
                    if !valid[g] || s.cmp(strs.dict().get(best[g])) == keep {
                        best[g] = strs.intern_hashed(s, d.hash(theirs[og]));
                        valid[g] = true;
                    }
                }
            }
            // Same fixed-width type: their cells are their words.
            (data, _) => each_type!(data, |best| {
                for (og, &g) in map.iter().enumerate() {
                    if other.valid[og] {
                        let v = Cell::from_word(other.word(og));
                        offer(best, valid, g as usize, v, keep);
                    }
                }
            }),
        }
    }

    /// Group ids `perm` sorted by these cells, NULL first (stably when
    /// `stable`); strings in byte order of their entries.
    fn sort(&self, perm: &mut [u32], stable: bool) {
        match &self.data {
            CellData::Str(codes, strs) => {
                let d = strs.dict().dict();
                let mut by_bytes: Vec<u32> = (0..d.len() as u32).collect();
                by_bytes.sort_unstable_by(|&a, &b| d.get(a).cmp(d.get(b)));
                let mut rank = vec![0u32; d.len()];
                for (r, &c) in by_bytes.iter().enumerate() {
                    rank[c as usize] = r as u32;
                }
                let ranks: Vec<u32> = codes
                    .iter()
                    .map(|&c| rank.get(c as usize).copied().unwrap_or(0))
                    .collect();
                sort_by_cells(perm, &ranks, &self.valid, stable);
            }
            data => each_type!(data, |d| sort_by_cells(perm, d, &self.valid, stable)),
        }
    }

    fn into_column(self) -> Column {
        let data = match self.data {
            CellData::Bool(v) => ColumnData::bools(v),
            CellData::Int(v) => ColumnData::ints(v),
            CellData::Float(v) => ColumnData::floats(v),
            CellData::Str(codes, strs) => {
                let dict = strs.finish_for(codes.len());
                ColumnData::coded(codes, dict)
            }
            CellData::Date(v) => ColumnData::dates(v),
        };
        Column::with_validity(data, self.valid)
    }
}

/// Push the key word of each of the `live` rows (`sel`, or the first
/// `live` physical rows), 0 and not valid for a NULL row.
#[inline(always)]
fn read_live(
    sel: Option<&[u32]>,
    live: usize,
    mask: Option<&[bool]>,
    words: &mut Vec<u64>,
    valid: &mut Vec<bool>,
    mut word: impl FnMut(usize) -> u64,
) {
    match (sel, mask) {
        (None, None) => {
            words.extend((0..live).map(word));
            valid.resize(live, true);
        }
        (Some(sel), None) => {
            words.extend(sel.iter().map(|&row| word(row as usize)));
            valid.resize(live, true);
        }
        _ => {
            for li in 0..live {
                let row = sel.map_or(li, |s| s[li] as usize);
                let ok = mask.is_none_or(|m| m[row]);
                valid.push(ok);
                words.push(if ok { word(row) } else { 0 });
            }
        }
    }
}

/// A key word as it hashes and compares: a float's with `-0.0` as `0.0`.
#[inline(always)]
fn norm_word(float: bool, w: u64) -> u64 {
    if float && f64::from_bits(w) == 0.0 {
        0
    } else {
        w
    }
}

/// Cell `i` of `vals`, or the NULL payload unless `valid`.
#[inline]
fn cell_or_null<T: Cell>(vals: &[T], valid: bool, i: usize) -> T {
    if valid {
        vals[i]
    } else {
        T::null()
    }
}

/// `vals` with each NULL slot's payload reset to [`Cell::null`].
fn copy_cells<T: Cell>(vals: &[T], valid: &[bool]) -> Vec<T> {
    (0..vals.len())
        .map(|i| cell_or_null(vals, valid[i], i))
        .collect()
}

/// Make `v` group `g`'s extreme if it is the first value or beats the
/// current one (`keep`: `Less` for min, `Greater` for max).
#[inline]
fn offer<T: Cell>(best: &mut [T], valid: &mut [bool], g: usize, v: T, keep: Ordering) {
    if !valid[g] || v.order(&best[g]) == keep {
        best[g] = v;
        valid[g] = true;
    }
}

/// The live rows of one batch (physical positions) with their group ids.
#[derive(Clone, Copy)]
struct Rows<'a> {
    sel: Option<&'a [u32]>,
    gids: &'a [u32],
}

impl Rows<'_> {
    #[inline(always)]
    fn for_each(self, mut f: impl FnMut(usize, usize)) {
        match self.sel {
            Some(sel) => {
                for (&row, &g) in sel.iter().zip(self.gids) {
                    f(row as usize, g as usize);
                }
            }
            None => {
                for (row, &g) in self.gids.iter().enumerate() {
                    f(row, g as usize);
                }
            }
        }
    }
}

/// Fold a sum's live rows, converting each value with `conv`.
fn add_sums<T, U: AddAssign>(
    total: &mut [U],
    seen: &mut [bool],
    vals: &[T],
    mask: Option<&[bool]>,
    rows: Rows<'_>,
    conv: impl Fn(&T) -> U,
) {
    rows.for_each(|row, g| {
        if mask.is_none_or(|m| m[row]) {
            total[g] += conv(&vals[row]);
            seen[g] = true;
        }
    });
}

/// The `(group id, value)` pairs of one `count(distinct)`, each value as
/// one word: its key word with `-0.0` as `0.0` (`Value` equality), a
/// string as its code in `strs`.
struct DistinctPairs {
    set: FxHashSet<(u32, u64)>,
    strs: Recoder,
}

impl DistinctPairs {
    /// Insert the live rows' pairs, counting new ones per group.
    fn insert(&mut self, count: &mut [i64], col: &Column, rows: Rows<'_>) {
        let mask = col.validity();
        let set = &mut self.set;
        let mut add = |row: usize, g: usize, w: u64| {
            if mask.is_none_or(|m| m[row]) && set.insert((g as u32, w)) {
                count[g] += 1;
            }
        };
        match col.values() {
            ColumnSlice::Bool(v) => rows.for_each(|row, g| add(row, g, v[row].word())),
            ColumnSlice::Int(v) => rows.for_each(|row, g| add(row, g, v[row].word())),
            ColumnSlice::Float(v) => {
                rows.for_each(|row, g| add(row, g, norm_word(true, v[row].word())))
            }
            ColumnSlice::Date(v) => rows.for_each(|row, g| add(row, g, v[row].word())),
            ColumnSlice::Str(v) => {
                let mut r = self.strs.of(v.dict());
                rows.for_each(|row, g| {
                    if mask.is_none_or(|m| m[row]) {
                        add(row, g, r.code(v.codes()[row]) as u64)
                    }
                })
            }
        }
    }

    /// Move `other`'s pairs in, group `og` to group `map[og]`, counting
    /// new ones per group.
    fn merge(&mut self, other: DistinctPairs, map: &[u32], count: &mut [i64]) {
        let codes = recode_all(&mut self.strs, &other.strs);
        let strings = !codes.is_empty();
        for (og, w) in other.set {
            let w = if strings { codes[w as usize] as u64 } else { w };
            let g = map[og as usize];
            if self.set.insert((g, w)) {
                count[g as usize] += 1;
            }
        }
    }
}

/// Add `from`'s sums into `total`, group `og` to group `map[og]`.
fn merge_sums<T: AddAssign + Copy>(
    total: &mut [T],
    seen: &mut [bool],
    from: (Vec<T>, Vec<bool>),
    map: &[u32],
) {
    for (og, &g) in map.iter().enumerate() {
        total[g as usize] += from.0[og];
        seen[g as usize] |= from.1[og];
    }
}

/// One aggregate's state over every group, indexed by group id.
enum State {
    /// `count(*)` and `count(expr)`.
    Count(Vec<i64>),
    /// `sum` over ints; `seen` tells 0 from the NULL sum of no values.
    SumInt { total: Vec<i64>, seen: Vec<bool> },
    /// `sum` over anything else, added as `f64` in row order.
    SumFloat { total: Vec<f64>, seen: Vec<bool> },
    /// `min` (`keep == Less`) or `max` (`keep == Greater`).
    Extreme { best: Cells, keep: Ordering },
    /// `count(distinct)`: the pairs seen and each group's count of them.
    Distinct {
        pairs: DistinctPairs,
        count: Vec<i64>,
    },
}

impl State {
    /// The empty state. `avg` has none: [`rdb_plan::normalize()`] lowers
    /// it to `sum` and `count`, and the builder rejects a plan that still
    /// holds one.
    fn new(func: &AggFunc, input_types: &[DataType]) -> State {
        match func {
            AggFunc::CountStar | AggFunc::Count(_) => State::Count(Vec::new()),
            AggFunc::Sum(e) => match e.data_type(input_types) {
                DataType::Int => State::SumInt {
                    total: Vec::new(),
                    seen: Vec::new(),
                },
                _ => State::SumFloat {
                    total: Vec::new(),
                    seen: Vec::new(),
                },
            },
            AggFunc::Min(e) => State::Extreme {
                best: Cells::new(e.data_type(input_types)),
                keep: Ordering::Less,
            },
            AggFunc::Max(e) => State::Extreme {
                best: Cells::new(e.data_type(input_types)),
                keep: Ordering::Greater,
            },
            AggFunc::CountDistinct(_) => State::Distinct {
                pairs: DistinctPairs {
                    set: FxHashSet::default(),
                    strs: Recoder::default(),
                },
                count: Vec::new(),
            },
            AggFunc::Avg(_) => unreachable!("avg is lowered to sum and count before execution"),
        }
    }

    /// The state whose serial fold over a group's rows produced the
    /// finished values in `col` (one row per group), or `None` when a
    /// finished value under-determines the state (`count distinct` loses
    /// its set) or `col` has the wrong type. The recovered state continues
    /// the *exact* serial fold: folding further rows into it yields
    /// bit-identical results to re-folding the whole input from scratch —
    /// including float sums, because `(((0 + a) + b) + c)` resumed after
    /// `b` is literally the same operation sequence.
    fn resumed(func: &AggFunc, input_types: &[DataType], col: &Column) -> Option<State> {
        let valid: Vec<bool> = (0..col.len()).map(|i| col.is_valid(i)).collect();
        let promoted = |v: &[i64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
        Some(match (State::new(func, input_types), col.values()) {
            // No groups: nothing to recover.
            (fresh, _) if col.is_empty() => fresh,
            (State::Count(_), ColumnSlice::Int(v)) if col.null_count() == 0 => {
                State::Count(v.to_vec())
            }
            // `copy_cells` leaves a NULL sum's total at the 0 it started
            // from.
            (State::SumInt { .. }, ColumnSlice::Int(v)) => State::SumInt {
                total: copy_cells(v, &valid),
                seen: valid,
            },
            (State::SumFloat { .. }, ColumnSlice::Float(v)) => State::SumFloat {
                total: copy_cells(v, &valid),
                seen: valid,
            },
            (State::SumFloat { .. }, ColumnSlice::Int(v)) => State::SumFloat {
                total: copy_cells(&promoted(v), &valid),
                seen: valid,
            },
            (State::Extreme { best, keep }, _) => State::Extreme {
                best: Cells::from_column(best.data_type(), col)?,
                keep,
            },
            _ => return None,
        })
    }

    /// Pad with empty group states to `n` groups.
    fn resize(&mut self, n: usize) {
        match self {
            State::Count(c) | State::Distinct { count: c, .. } => c.resize(n, 0),
            State::SumInt { total, seen } => {
                total.resize(n, 0);
                seen.resize(n, false);
            }
            State::SumFloat { total, seen } => {
                total.resize(n, 0.0);
                seen.resize(n, false);
            }
            State::Extreme { best, .. } => best.resize(n),
        }
    }

    /// Fold one batch's live rows; `arg` is the evaluated argument column
    /// (`None` for `count(*)`).
    fn fold(&mut self, arg: Option<&Column>, rows: Rows<'_>) {
        let Some(col) = arg else {
            let State::Count(n) = self else {
                unreachable!("only count(*) has no argument")
            };
            rows.for_each(|_, g| n[g] += 1);
            return;
        };
        let mask = col.validity();
        match self {
            State::Count(n) => match mask {
                None => rows.for_each(|_, g| n[g] += 1),
                Some(m) => rows.for_each(|row, g| n[g] += m[row] as i64),
            },
            State::SumInt { total, seen } => {
                add_sums(total, seen, col.as_ints(), mask, rows, |x| *x)
            }
            State::SumFloat { total, seen } => match col.values() {
                ColumnSlice::Float(v) => add_sums(total, seen, v, mask, rows, |x| *x),
                ColumnSlice::Int(v) => add_sums(total, seen, v, mask, rows, |x| *x as f64),
                // Other values have no float reading and never add.
                _ => {}
            },
            State::Extreme { best, keep } => best.fold_extreme(col, rows, *keep),
            State::Distinct { pairs, count } => pairs.insert(count, col, rows),
        }
    }

    /// Combine the state of another table computed over a disjoint row
    /// subset, its group `og` into group `map[og]` here.
    fn merge(&mut self, other: State, map: &[u32]) {
        match (self, other) {
            (State::Count(a), State::Count(b)) => {
                for (og, &g) in map.iter().enumerate() {
                    a[g as usize] += b[og];
                }
            }
            (State::SumInt { total, seen }, State::SumInt { total: t, seen: s }) => {
                merge_sums(total, seen, (t, s), map)
            }
            (State::SumFloat { total, seen }, State::SumFloat { total: t, seen: s }) => {
                merge_sums(total, seen, (t, s), map)
            }
            (State::Extreme { best, keep }, State::Extreme { best: other, .. }) => {
                best.merge_extreme(other, map, *keep)
            }
            (State::Distinct { pairs, count }, State::Distinct { pairs: other, .. }) => {
                pairs.merge(other, map, count)
            }
            _ => unreachable!("merging aggregate states of different shapes"),
        }
    }

    /// The finished values, one row per group.
    fn finish(self) -> Column {
        match self {
            State::Count(n) | State::Distinct { count: n, .. } => Column::from_ints(n),
            State::SumInt { total, seen } => Column::with_validity(ColumnData::ints(total), seen),
            State::SumFloat { total, seen } => {
                Column::with_validity(ColumnData::floats(total), seen)
            }
            State::Extreme { best, .. } => best.into_column(),
        }
    }
}

/// No group: an empty dense slot, or a key the table does not hold.
const NONE: u32 = u32::MAX;

/// The most key-code combinations a dense group lookup covers.
const DENSE_SLOTS: usize = 1 << 16;

/// How a group table finds a key's group id (see the module docs).
enum Lookup {
    /// Every key is a string: the group id of each combination of key
    /// slots (NULL as 0, code `c` as `c + 1`), key `k`'s slot weighted by
    /// the product of the radixes before it.
    Dense { radix: Vec<usize>, ids: Vec<u32> },
    /// Any other key set: an index over hashes of the key words.
    Hashed(HashIndex),
}

/// Columnar group state: the shared state of serial, partitioned parallel
/// and resumed aggregation (see the module docs).
pub(crate) struct GroupTable {
    group_by: Vec<Expr>,
    aggs: Vec<AggFunc>,
    /// Row `g` of each is group `g`'s key as first seen.
    keys: Vec<Cells>,
    /// Unused for a keyless aggregate.
    lookup: Lookup,
    /// One per aggregate, each `groups` long.
    states: Vec<State>,
    groups: usize,
    /// Scratch for the keys being resolved: per key column one word and
    /// validity per key, then per key its hash or dense slot, and its
    /// group id.
    words: Vec<Vec<u64>>,
    valid: Vec<Vec<bool>>,
    lookups: Vec<u64>,
    gids: Vec<u32>,
}

impl GroupTable {
    pub(crate) fn new(group_by: Vec<Expr>, aggs: Vec<AggFunc>, input_types: Vec<DataType>) -> Self {
        let keys: Vec<Cells> = group_by
            .iter()
            .map(|e| Cells::new(e.data_type(&input_types)))
            .collect();
        let states = aggs.iter().map(|a| State::new(a, &input_types)).collect();
        let all_strings = keys.iter().all(|k| k.data_type() == DataType::Str);
        let lookup = if !keys.is_empty() && all_strings && keys.len() <= 16 {
            Lookup::Dense {
                radix: vec![1; keys.len()],
                ids: vec![NONE],
            }
        } else {
            Lookup::Hashed(HashIndex::default())
        };
        let mut table = GroupTable {
            group_by,
            aggs,
            groups: usize::from(keys.is_empty()),
            words: vec![Vec::new(); keys.len()],
            valid: vec![Vec::new(); keys.len()],
            keys,
            lookup,
            states,
            lookups: Vec::new(),
            gids: Vec::new(),
        };
        table.resize_states();
        table
    }

    /// A table holding `cached`'s groups: an aggregate's emitted rows,
    /// group keys then finished aggregate values, one dense row per group.
    /// `None` when a state cannot be recovered (see `State::resumed`).
    fn load(
        cached: &Batch,
        group_by: Vec<Expr>,
        aggs: Vec<AggFunc>,
        input_types: Vec<DataType>,
    ) -> Option<GroupTable> {
        let mut table = GroupTable::new(group_by, aggs, input_types.clone());
        let group_len = table.keys.len();
        if group_len == 0 {
            // The global aggregate always emits exactly its one row.
            if cached.rows() != 1 {
                return None;
            }
        } else {
            for (k, col) in cached.columns()[..group_len].iter().enumerate() {
                let (words, valid) = (&mut table.words[k], &mut table.valid[k]);
                table.keys[k].read_words(col, cached.sel(), cached.rows(), words, valid);
            }
            table.assign(cached.rows(), true);
            // Emitted keys are distinct: each row is a new group.
            if table.groups != cached.rows() {
                return None;
            }
        }
        for (j, (state, agg)) in table.states.iter_mut().zip(&table.aggs).enumerate() {
            *state = State::resumed(agg, &input_types, cached.column(group_len + j))?;
        }
        Some(table)
    }

    fn resize_states(&mut self) {
        for s in &mut self.states {
            s.resize(self.groups);
        }
    }

    /// Fold a batch in, selection-aware.
    pub(crate) fn fold(&mut self, batch: &Batch) {
        if self.keys.is_empty() {
            self.gids.clear();
            self.gids.resize(batch.rows(), 0);
        } else {
            for (k, e) in self.group_by.iter().enumerate() {
                let col = eval(e, batch);
                let (words, valid) = (&mut self.words[k], &mut self.valid[k]);
                self.keys[k].read_words(&col, batch.sel(), batch.rows(), words, valid);
            }
            self.assign(batch.rows(), true);
            self.resize_states();
        }
        let rows = Rows {
            sel: batch.sel(),
            gids: &self.gids,
        };
        for (state, agg) in self.states.iter_mut().zip(&self.aggs) {
            let arg = agg.argument().map(|e| eval(e, batch));
            state.fold(arg.as_ref(), rows);
        }
    }

    /// Resolve the `n` keys in `words`/`valid` to group ids in
    /// `self.gids`, adding a group for each key not seen before when
    /// `insert` (`NONE` for it otherwise).
    fn assign(&mut self, n: usize, insert: bool) {
        self.fit_dense();
        let GroupTable {
            keys,
            lookup,
            groups,
            words,
            valid,
            lookups,
            gids,
            ..
        } = self;
        gids.clear();
        let mut add = |li: usize, keys: &mut [Cells]| {
            for (k, cells) in keys.iter_mut().enumerate() {
                cells.push_word(words[k][li], valid[k][li]);
            }
            *groups += 1;
            (*groups - 1) as u32
        };
        match lookup {
            Lookup::Dense { radix, ids } => {
                dense_slots(radix, words, valid, n, lookups);
                for (li, &at) in lookups.iter().enumerate() {
                    let at = at as usize;
                    if ids[at] == NONE && insert {
                        ids[at] = add(li, keys);
                    }
                    gids.push(ids[at]);
                }
            }
            Lookup::Hashed(index) => {
                hash_keys(keys, words, valid, n, lookups);
                for (li, &h) in lookups.iter().enumerate() {
                    let same = |g: usize| {
                        keys.iter()
                            .enumerate()
                            .all(|(k, c)| c.key_eq(g, words[k][li], valid[k][li]))
                    };
                    let g = match index.find(h, same) {
                        Some(g) => g,
                        None if insert => {
                            add(li, keys);
                            index.insert(h)
                        }
                        None => NONE,
                    };
                    gids.push(g);
                }
            }
        }
    }

    /// Size a dense lookup for every code interned so far: grow a key's
    /// radix to cover its codes and re-place the groups, or switch to a
    /// hashed lookup once the combinations outgrow [`DENSE_SLOTS`].
    fn fit_dense(&mut self) {
        let Lookup::Dense { radix, .. } = &self.lookup else {
            return;
        };
        let want: Vec<usize> = self
            .keys
            .iter()
            .zip(radix)
            .map(|(k, &r)| match &k.data {
                CellData::Str(_, strs) => r.max((strs.dict().len() + 1).next_power_of_two()),
                _ => unreachable!("dense lookups have string keys only"),
            })
            .collect();
        if want == *radix {
            return;
        }
        let slots = want
            .iter()
            .try_fold(1usize, |p, &r| p.checked_mul(r))
            .filter(|&p| p <= DENSE_SLOTS);
        // Re-place every group: its key words are its cells'.
        let (keys, n) = (&self.keys, self.groups);
        let words: Vec<Vec<u64>> = keys
            .iter()
            .map(|c| (0..n).map(|g| c.word(g)).collect())
            .collect();
        let valid: Vec<Vec<bool>> = keys.iter().map(|c| c.valid.clone()).collect();
        let mut at = Vec::new();
        self.lookup = match slots {
            Some(slots) => {
                dense_slots(&want, &words, &valid, n, &mut at);
                let mut ids = vec![NONE; slots];
                for (g, &a) in at.iter().enumerate() {
                    ids[a as usize] = g as u32;
                }
                Lookup::Dense { radix: want, ids }
            }
            None => {
                hash_keys(keys, &words, &valid, n, &mut at);
                let mut index = HashIndex::default();
                for h in at {
                    index.insert(h);
                }
                Lookup::Hashed(index)
            }
        };
    }

    /// Put `other`'s group keys into the key scratch, in this table's
    /// string codes.
    fn read_keys_of(&mut self, other: &GroupTable) {
        for (k, (mine, theirs)) in self.keys.iter_mut().zip(&other.keys).enumerate() {
            let codes = match (&mut mine.data, &theirs.data) {
                (CellData::Str(_, strs), CellData::Str(_, their_strs)) => {
                    Some(recode_all(strs, their_strs))
                }
                _ => None,
            };
            self.words[k] = (0..other.groups)
                .map(|og| match &codes {
                    Some(c) if theirs.valid[og] => c[theirs.word(og) as usize] as u64,
                    _ => theirs.word(og),
                })
                .collect();
            self.valid[k] = theirs.valid.clone();
        }
    }

    /// The group here of each of `other`'s groups, added when missing if
    /// `insert` (`NONE` otherwise).
    fn map_groups(&mut self, other: &GroupTable, insert: bool) -> Vec<u32> {
        if self.keys.is_empty() {
            return vec![0; other.groups];
        }
        self.read_keys_of(other);
        self.assign(other.groups, insert);
        std::mem::take(&mut self.gids)
    }

    /// Absorb another partial table computed over a disjoint row subset.
    pub(crate) fn merge(&mut self, other: GroupTable) {
        let map = self.map_groups(&other, true);
        self.resize_states();
        for (state, o) in self.states.iter_mut().zip(other.states) {
            state.merge(o, &map);
        }
    }

    /// Key columns then finished aggregate columns, in group id order.
    fn into_columns(self) -> Vec<Column> {
        let keys = self.keys.into_iter().map(Cells::into_column);
        keys.chain(self.states.into_iter().map(State::finish))
            .collect()
    }

    /// Group ids in ascending key order (`Value` order, NULL first),
    /// sorted one key column at a time from the last: every pass after
    /// the first is stable, so it keeps the order of the keys after it.
    fn sorted_ids(&self) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..self.groups as u32).collect();
        for (pass, k) in self.keys.iter().rev().enumerate() {
            k.sort(&mut perm, pass > 0);
        }
        perm
    }

    /// Emit every group, sorted by key (see the module docs).
    pub(crate) fn finish(self, output_types: &[DataType]) -> Vec<Batch> {
        let perm = self.sorted_ids();
        emit(&self.into_columns(), &perm, output_types)
    }
}

/// The dense slot of each of the `n` keys of `words`/`valid` into `at`
/// (NULL as 0, code `c` as `c + 1`, key column `k` weighted by the product
/// of the radixes before it), one key column at a time.
fn dense_slots(
    radix: &[usize],
    words: &[Vec<u64>],
    valid: &[Vec<bool>],
    n: usize,
    at: &mut Vec<u64>,
) {
    at.clear();
    at.resize(n, 0);
    let mut stride = 1;
    for (k, r) in radix.iter().enumerate() {
        for ((a, &w), &ok) in at.iter_mut().zip(&words[k]).zip(&valid[k]) {
            *a += ok as u64 * (w + 1) * stride;
        }
        stride *= *r as u64;
    }
}

/// Hash the `n` keys of the key scratch into `hashes`: per key column its
/// word (floats with `-0.0` as `0.0`) behind a valid tag, or a NULL tag.
fn hash_keys(
    keys: &[Cells],
    words: &[Vec<u64>],
    valid: &[Vec<bool>],
    n: usize,
    hashes: &mut Vec<u64>,
) {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mix = |h: u64, v: u64| (h.rotate_left(5) ^ v).wrapping_mul(K);
    hashes.clear();
    hashes.resize(n, 0xcbf2_9ce4_8422_2325);
    for (k, cells) in keys.iter().enumerate() {
        let float = matches!(cells.data, CellData::Float(_));
        for ((h, &w), &ok) in hashes.iter_mut().zip(&words[k][..n]).zip(&valid[k][..n]) {
            *h = if ok {
                mix(mix(*h, 1), norm_word(float, w))
            } else {
                mix(*h, 0)
            };
        }
    }
}

/// Sort `perm` by the cells it indexes, NULL first.
fn sort_by_cells<T: Cell>(perm: &mut [u32], vals: &[T], valid: &[bool], stable: bool) {
    let cmp = |a: &u32, b: &u32| {
        let (a, b) = (*a as usize, *b as usize);
        valid[a].cmp(&valid[b]).then_with(|| {
            if valid[a] {
                vals[a].order(&vals[b])
            } else {
                Ordering::Equal
            }
        })
    };
    if stable {
        perm.sort_by(cmp);
    } else {
        perm.sort_unstable_by(cmp);
    }
}

/// Gather the groups `perm` names, in that order, into output batches.
fn emit(columns: &[Column], perm: &[u32], output_types: &[DataType]) -> Vec<Batch> {
    debug_assert!(
        columns
            .iter()
            .map(Column::data_type)
            .eq(output_types.iter().copied()),
        "aggregate output types"
    );
    perm.chunks(BATCH_CAPACITY)
        .map(|chunk| Batch::new(columns.iter().map(|c| c.take(chunk)).collect()))
        .collect()
}

/// An aggregation table re-materialized from a cached result so that new
/// input rows can be folded in *incrementally* — the delta-repair kernel
/// for appends. `resume` loads every group's key and state from its
/// finished output row (see `State::resumed` for which aggregates admit
/// this), `fold` continues the serial fold with delta rows, and `finish`
/// re-emits the sorted groups. The emitted batches are byte-identical to
/// recomputing the aggregate over old ++ delta input.
pub struct ResumedAgg {
    table: GroupTable,
    output_types: Vec<DataType>,
}

impl ResumedAgg {
    /// Rebuild group state from `cached` (the aggregate's emitted rows:
    /// group keys then finished aggregate values, dense). Returns `None`
    /// when any aggregate's state cannot be recovered from its finished
    /// value.
    pub fn resume(
        cached: &Batch,
        group_by: Vec<Expr>,
        aggs: Vec<AggFunc>,
        input_types: Vec<DataType>,
        output_types: Vec<DataType>,
    ) -> Option<ResumedAgg> {
        Some(ResumedAgg {
            table: GroupTable::load(cached, group_by, aggs, input_types)?,
            output_types,
        })
    }

    /// Continue the fold with a (delta) input batch, selection-aware.
    pub fn fold(&mut self, batch: &Batch) {
        self.table.fold(batch);
    }

    /// Re-emit the sorted group rows.
    pub fn finish(self) -> Vec<Batch> {
        self.table.finish(&self.output_types)
    }
}

/// Delete-repair for pure counting aggregates: subtract the deleted rows'
/// per-group counts from `cached` and drop groups whose `count(*)` hits
/// zero. Requires every aggregate to be `count(*)` or `count(expr)` with
/// at least one `count(*)` present — the `count(*)` column proves a group
/// lost *all* its rows (retraction), which no other finished value can
/// (`sum` over `[5, NULL]` minus 5 is NULL, not 0). Returns `None` when
/// the gate fails, a deleted row's group is missing from the cache, or a
/// count would go negative — the caller must evict instead.
pub fn retract_count_groups(
    cached: &Batch,
    group_by: Vec<Expr>,
    aggs: Vec<AggFunc>,
    input_types: Vec<DataType>,
    output_types: Vec<DataType>,
    deleted_input: &[Batch],
) -> Option<Vec<Batch>> {
    let star = aggs.iter().position(|a| matches!(a, AggFunc::CountStar))?;
    if !aggs
        .iter()
        .all(|a| matches!(a, AggFunc::CountStar | AggFunc::Count(_)))
    {
        return None;
    }
    let mut retract = GroupTable::new(group_by.clone(), aggs.clone(), input_types.clone());
    for b in deleted_input {
        retract.fold(b);
    }
    let mut table = GroupTable::load(cached, group_by, aggs, input_types)?;
    let map = table.map_groups(&retract, false);
    for (og, &g) in map.iter().enumerate() {
        // Every deleted row existed in the old table, so its group must be
        // in the cached result; a miss means the cache and the delta have
        // diverged and repair is unsound.
        if g == NONE {
            return None;
        }
        let g = g as usize;
        for (state, sub) in table.states.iter_mut().zip(&retract.states) {
            let (State::Count(n), State::Count(d)) = (state, sub) else {
                unreachable!("count-only aggregates have count states");
            };
            n[g] -= d[og];
            if n[g] < 0 {
                return None;
            }
        }
    }
    let State::Count(stars) = &table.states[star] else {
        unreachable!("count(*) has a count state");
    };
    // A grouped aggregate drops fully-retracted groups; the global
    // (group-less) row survives even at zero, exactly like recomputing
    // over empty input. Cached rows are already in sorted-key order and
    // retraction only drops rows, so the order invariant is preserved
    // without re-sorting.
    let global = table.keys.is_empty();
    let keep: Vec<u32> = (0..table.groups as u32)
        .filter(|&g| global || stars[g as usize] > 0)
        .collect();
    Some(emit(&table.into_columns(), &keep, &output_types))
}

/// Blocking hash aggregation: folds the whole input into a
/// `GroupTable` (one per worker when partitioned, merged into the first),
/// then streams the groups sorted by group key. With no group keys it
/// produces exactly one row (also for empty input, per SQL semantics).
/// `input_types` are the input's column types; `output_types` the output
/// schema types (groups then aggregates).
pub fn aggregate(
    input: Pipeline,
    group_by: Vec<Expr>,
    aggs: Vec<AggFunc>,
    input_types: Vec<DataType>,
    output_types: Vec<DataType>,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
) -> BlockingExec {
    assert_eq!(group_by.len() + aggs.len(), output_types.len());
    // Partitioned only when every accumulator merges exactly
    // (`AggFunc::is_exact`): per-worker partial tables merged (and
    // key-sorted) here are then bit-identical to serial execution. Float
    // sums keep the serial fold order over the index-ordered input (the
    // scan/filter/probe work below still runs on workers): partitioned
    // float addition would drift in the low-order bits and break
    // byte-identical cache replay across DOPs.
    let partition = aggs.iter().all(|a| a.is_exact(&input_types));
    let work = metrics.clone();
    let build = move || {
        let table = fold_input(
            input,
            partition,
            work,
            || GroupTable::new(group_by.clone(), aggs.clone(), input_types.clone()),
            |table, _chunk, batch| table.fold(&batch),
            GroupTable::merge,
        )?;
        Ok(table.finish(&output_types))
    };
    BlockingExec::new(build, metrics, fail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::testing::over;
    use crate::index::testing::{domain, Rng, TYPES};
    use crate::op::testing::BatchSource;
    use crate::op::{run_to_batch, Operator};
    use rdb_vector::{ColumnBuilder, Value};

    fn src(cols: Vec<Column>) -> Box<dyn Operator> {
        BatchSource::boxed(vec![Batch::new(cols)])
    }

    /// A serial aggregate over `child`.
    fn hash_agg(
        child: Box<dyn Operator>,
        group_by: Vec<Expr>,
        aggs: Vec<AggFunc>,
        input_types: Vec<DataType>,
        output_types: Vec<DataType>,
    ) -> BlockingExec {
        aggregate(
            over(child, vec![]),
            group_by,
            aggs,
            input_types,
            output_types,
            OpMetrics::shared(),
            FailSlot::shared(),
        )
    }

    #[test]
    fn grouped_aggregation() {
        let child = src(vec![
            Column::from_strs(["a", "b", "a", "a"]),
            Column::from_ints(vec![1, 2, 3, 4]),
        ]);
        let mut agg = hash_agg(
            child,
            vec![Expr::col(0)],
            vec![
                AggFunc::Sum(Expr::col(1)),
                AggFunc::CountStar,
                AggFunc::Max(Expr::col(1)),
            ],
            vec![DataType::Str, DataType::Int],
            vec![DataType::Str, DataType::Int, DataType::Int, DataType::Int],
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(out.rows(), 2);
        let rows = out.to_rows();
        assert_eq!(
            rows[0],
            vec![Value::str("a"), Value::Int(8), Value::Int(3), Value::Int(4)]
        );
        assert_eq!(
            rows[1],
            vec![Value::str("b"), Value::Int(2), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn emission_is_sorted_by_group_key_not_arrival_order() {
        // Keys arrive in descending order interleaved across batches; the
        // breaker must emit ascending regardless.
        let child = BatchSource::boxed(vec![
            Batch::new(vec![Column::from_ints(vec![9, 3, 7])]),
            Batch::new(vec![Column::from_ints(vec![1, 9, 5])]),
        ]);
        let mut agg = hash_agg(
            child,
            vec![Expr::col(0)],
            vec![AggFunc::CountStar],
            vec![DataType::Int],
            vec![DataType::Int, DataType::Int],
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(out.column(0).as_ints(), &[1, 3, 5, 7, 9]);
        assert_eq!(out.column(1).as_ints(), &[1, 1, 1, 1, 2]);
    }

    #[test]
    fn partial_tables_merge_to_the_same_result() {
        let mk = || {
            GroupTable::new(
                vec![Expr::col(0)],
                vec![
                    AggFunc::Sum(Expr::col(1)),
                    AggFunc::CountStar,
                    AggFunc::Min(Expr::col(1)),
                    AggFunc::Max(Expr::col(1)),
                    AggFunc::CountDistinct(Expr::col(1)),
                ],
                vec![DataType::Int, DataType::Int],
            )
        };
        let b1 = Batch::new(vec![
            Column::from_ints(vec![1, 2, 1]),
            Column::from_ints(vec![10, 20, 30]),
        ]);
        let b2 = Batch::new(vec![
            Column::from_ints(vec![2, 3, 1]),
            Column::from_ints(vec![40, 50, 10]),
        ]);
        // Serial: both batches into one table.
        let mut serial = mk();
        serial.fold(&b1);
        serial.fold(&b2);
        // Parallel: one table per batch, merged.
        let mut p1 = mk();
        p1.fold(&b1);
        let mut p2 = mk();
        p2.fold(&b2);
        p1.merge(p2);
        let types = vec![
            DataType::Int,
            DataType::Int,
            DataType::Int,
            DataType::Int,
            DataType::Int,
            DataType::Int,
        ];
        let a = serial.finish(&types);
        let b = p1.finish(&types);
        assert_eq!(Batch::concat(&a).to_rows(), Batch::concat(&b).to_rows());
    }

    #[test]
    fn global_aggregation_on_empty_input() {
        let child = BatchSource::boxed(vec![]);
        let mut agg = hash_agg(
            child,
            vec![],
            vec![AggFunc::CountStar, AggFunc::Sum(Expr::col(0))],
            vec![DataType::Int],
            vec![DataType::Int, DataType::Int],
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn min_max_and_distinct() {
        let child = src(vec![
            Column::from_ints(vec![1, 1, 1, 1]),
            Column::from_floats(vec![2.0, 8.0, 2.0, 4.0]),
        ]);
        let mut agg = hash_agg(
            child,
            vec![Expr::col(0)],
            vec![
                AggFunc::Min(Expr::col(1)),
                AggFunc::Max(Expr::col(1)),
                AggFunc::CountDistinct(Expr::col(1)),
            ],
            vec![DataType::Int, DataType::Float],
            vec![
                DataType::Int,
                DataType::Float,
                DataType::Float,
                DataType::Int,
            ],
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(
            out.row(0),
            vec![
                Value::Int(1),
                Value::Float(2.0),
                Value::Float(8.0),
                Value::Int(3)
            ]
        );
    }

    #[test]
    fn count_skips_nulls_sum_int() {
        let mut b = ColumnBuilder::new(DataType::Int, 3);
        b.push(Value::Int(5));
        b.push_null();
        b.push(Value::Int(7));
        let child = src(vec![b.finish()]);
        let mut agg = hash_agg(
            child,
            vec![],
            vec![
                AggFunc::Count(Expr::col(0)),
                AggFunc::CountStar,
                AggFunc::Sum(Expr::col(0)),
            ],
            vec![DataType::Int],
            vec![DataType::Int, DataType::Int, DataType::Int],
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(
            out.row(0),
            vec![Value::Int(2), Value::Int(3), Value::Int(12)]
        );
    }

    #[test]
    fn group_by_expression() {
        let child = src(vec![Column::from_ints(vec![10, 11, 20, 21, 30])]);
        let mut agg = hash_agg(
            child,
            vec![Expr::col(0).div(Expr::lit(10))], // int div promotes to float
            vec![AggFunc::CountStar],
            vec![DataType::Int],
            vec![DataType::Float, DataType::Int],
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(out.rows(), 5); // 1.0, 1.1, 2.0, 2.1, 3.0 are distinct
    }

    #[test]
    fn progress_moves_to_one() {
        let child = src(vec![Column::from_ints(vec![1])]);
        let mut agg = hash_agg(
            child,
            vec![Expr::col(0)],
            vec![AggFunc::CountStar],
            vec![DataType::Int],
            vec![DataType::Int, DataType::Int],
        );
        assert_eq!(agg.progress(), 0.0);
        while agg.next_batch().is_some() {}
        assert_eq!(agg.progress(), 1.0);
    }

    /// The row-at-a-time aggregate this module ran before its state became
    /// columnar, kept as an independent reference: `Value` keys in a hash
    /// map (whose equality is the key equality — NULL equals NULL, `-0.0`
    /// equals `0.0`, types never mix), one `Acc` per group and aggregate,
    /// and emission through `ColumnBuilder`.
    mod reference {
        use std::collections::{HashMap, HashSet};

        use rdb_expr::{eval, AggFunc, Expr};
        use rdb_vector::{Batch, Column, ColumnBuilder, DataType, Value, BATCH_CAPACITY};

        enum Acc {
            Count(i64),
            SumInt { total: i64, seen: bool },
            SumFloat { total: f64, seen: bool },
            Min(Option<Value>),
            Max(Option<Value>),
            Distinct(HashSet<Value>),
        }

        impl Acc {
            fn new(func: &AggFunc, input_types: &[DataType]) -> Acc {
                match func {
                    AggFunc::CountStar | AggFunc::Count(_) => Acc::Count(0),
                    AggFunc::Sum(e) => match e.data_type(input_types) {
                        DataType::Int => Acc::SumInt {
                            total: 0,
                            seen: false,
                        },
                        _ => Acc::SumFloat {
                            total: 0.0,
                            seen: false,
                        },
                    },
                    AggFunc::Min(_) => Acc::Min(None),
                    AggFunc::Max(_) => Acc::Max(None),
                    AggFunc::CountDistinct(_) => Acc::Distinct(HashSet::new()),
                    AggFunc::Avg(_) => unreachable!(),
                }
            }

            fn update(&mut self, arg: Option<&Column>, i: usize) {
                let v = arg.map(|c| c.get(i));
                match (self, v) {
                    (Acc::Count(n), None) => *n += 1,
                    (_, Some(Value::Null)) => {}
                    (Acc::Count(n), Some(_)) => *n += 1,
                    (Acc::SumInt { total, seen }, Some(v)) => {
                        *total += v.as_int().unwrap();
                        *seen = true;
                    }
                    (Acc::SumFloat { total, seen }, Some(v)) => {
                        if let Some(f) = v.as_float() {
                            *total += f;
                            *seen = true;
                        }
                    }
                    (Acc::Min(cur), Some(v)) => {
                        if cur.as_ref().is_none_or(|m| v < *m) {
                            *cur = Some(v);
                        }
                    }
                    (Acc::Max(cur), Some(v)) => {
                        if cur.as_ref().is_none_or(|m| v > *m) {
                            *cur = Some(v);
                        }
                    }
                    (Acc::Distinct(set), Some(v)) => {
                        set.insert(v);
                    }
                    _ => unreachable!("argument shape"),
                }
            }

            fn merge(&mut self, other: Acc) {
                match (self, other) {
                    (Acc::Count(a), Acc::Count(b)) => *a += b,
                    (Acc::SumInt { total, seen }, Acc::SumInt { total: t, seen: s }) => {
                        *total += t;
                        *seen |= s;
                    }
                    (Acc::SumFloat { total, seen }, Acc::SumFloat { total: t, seen: s }) => {
                        *total += t;
                        *seen |= s;
                    }
                    (Acc::Min(cur), Acc::Min(Some(v))) => {
                        if cur.as_ref().is_none_or(|m| v < *m) {
                            *cur = Some(v);
                        }
                    }
                    (Acc::Max(cur), Acc::Max(Some(v))) => {
                        if cur.as_ref().is_none_or(|m| v > *m) {
                            *cur = Some(v);
                        }
                    }
                    (Acc::Min(_), Acc::Min(None)) | (Acc::Max(_), Acc::Max(None)) => {}
                    (Acc::Distinct(set), Acc::Distinct(other)) => set.extend(other),
                    _ => unreachable!("accumulator shapes"),
                }
            }

            fn finish(&self) -> Value {
                match self {
                    Acc::Count(n) => Value::Int(*n),
                    Acc::SumInt { total, seen } => {
                        if *seen {
                            Value::Int(*total)
                        } else {
                            Value::Null
                        }
                    }
                    Acc::SumFloat { total, seen } => {
                        if *seen {
                            Value::Float(*total)
                        } else {
                            Value::Null
                        }
                    }
                    Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
                    Acc::Distinct(set) => Value::Int(set.len() as i64),
                }
            }

            fn resume(func: &AggFunc, input_types: &[DataType], v: Value) -> Option<Acc> {
                match func {
                    AggFunc::CountStar | AggFunc::Count(_) => v.as_int().map(Acc::Count),
                    AggFunc::Sum(e) => match e.data_type(input_types) {
                        DataType::Int => Some(Acc::SumInt {
                            total: v.as_int().unwrap_or(0),
                            seen: !v.is_null(),
                        }),
                        _ => Some(if v.is_null() {
                            Acc::SumFloat {
                                total: 0.0,
                                seen: false,
                            }
                        } else {
                            Acc::SumFloat {
                                total: v.as_float()?,
                                seen: true,
                            }
                        }),
                    },
                    AggFunc::Min(_) => Some(Acc::Min((!v.is_null()).then_some(v))),
                    AggFunc::Max(_) => Some(Acc::Max((!v.is_null()).then_some(v))),
                    AggFunc::CountDistinct(_) | AggFunc::Avg(_) => None,
                }
            }
        }

        pub(super) struct Table {
            group_by: Vec<Expr>,
            aggs: Vec<AggFunc>,
            input_types: Vec<DataType>,
            index: HashMap<Vec<Value>, usize>,
            groups: Vec<(Vec<Value>, Vec<Acc>)>,
        }

        impl Table {
            pub(super) fn new(
                group_by: Vec<Expr>,
                aggs: Vec<AggFunc>,
                input_types: Vec<DataType>,
            ) -> Table {
                Table {
                    group_by,
                    aggs,
                    input_types,
                    index: HashMap::new(),
                    groups: Vec::new(),
                }
            }

            fn group(&mut self, key: Vec<Value>) -> usize {
                if let Some(&g) = self.index.get(&key) {
                    return g;
                }
                let accs = self
                    .aggs
                    .iter()
                    .map(|a| Acc::new(a, &self.input_types))
                    .collect();
                self.groups.push((key.clone(), accs));
                self.index.insert(key, self.groups.len() - 1);
                self.groups.len() - 1
            }

            pub(super) fn fold(&mut self, batch: &Batch) {
                let keys: Vec<Column> = self.group_by.iter().map(|e| eval(e, batch)).collect();
                let args: Vec<Option<Column>> = self
                    .aggs
                    .iter()
                    .map(|a| a.argument().map(|e| eval(e, batch)))
                    .collect();
                for li in 0..batch.rows() {
                    let row = batch.to_physical(li);
                    let g = self.group(keys.iter().map(|c| c.get(row)).collect());
                    for (acc, arg) in self.groups[g].1.iter_mut().zip(&args) {
                        acc.update(arg.as_ref(), row);
                    }
                }
            }

            pub(super) fn merge(&mut self, other: Table) {
                for (key, accs) in other.groups {
                    if let Some(&g) = self.index.get(&key) {
                        for (acc, o) in self.groups[g].1.iter_mut().zip(accs) {
                            acc.merge(o);
                        }
                    } else {
                        self.groups.push((key.clone(), accs));
                        self.index.insert(key, self.groups.len() - 1);
                    }
                }
            }

            pub(super) fn finish(mut self, output_types: &[DataType]) -> Vec<Batch> {
                if self.group_by.is_empty() {
                    self.group(vec![]);
                }
                self.groups.sort_by(|a, b| a.0.cmp(&b.0));
                let rows: Vec<Vec<Value>> = self
                    .groups
                    .iter()
                    .map(|(key, accs)| {
                        key.iter()
                            .cloned()
                            .chain(accs.iter().map(Acc::finish))
                            .collect()
                    })
                    .collect();
                emit(&rows, output_types)
            }

            pub(super) fn resume(
                cached: &Batch,
                group_by: Vec<Expr>,
                aggs: Vec<AggFunc>,
                input_types: Vec<DataType>,
            ) -> Option<Table> {
                let group_len = group_by.len();
                let mut table = Table::new(group_by, aggs, input_types);
                for row in cached.to_rows() {
                    let accs = table
                        .aggs
                        .iter()
                        .zip(&row[group_len..])
                        .map(|(a, v)| Acc::resume(a, &table.input_types, v.clone()))
                        .collect::<Option<Vec<Acc>>>()?;
                    let key = row[..group_len].to_vec();
                    table.groups.push((key.clone(), accs));
                    table.index.insert(key, table.groups.len() - 1);
                }
                Some(table)
            }
        }

        fn emit(rows: &[Vec<Value>], output_types: &[DataType]) -> Vec<Batch> {
            rows.chunks(BATCH_CAPACITY)
                .map(|chunk| {
                    let cols = output_types
                        .iter()
                        .enumerate()
                        .map(|(k, t)| {
                            let mut b = ColumnBuilder::new(*t, chunk.len());
                            for row in chunk {
                                b.push(row[k].clone());
                            }
                            b.finish()
                        })
                        .collect();
                    Batch::new(cols)
                })
                .collect()
        }

        pub(super) fn retract(
            cached: &Batch,
            group_by: Vec<Expr>,
            aggs: Vec<AggFunc>,
            input_types: Vec<DataType>,
            output_types: &[DataType],
            deleted: &[Batch],
        ) -> Option<Vec<Batch>> {
            let star = aggs.iter().position(|a| matches!(a, AggFunc::CountStar))?;
            let group_len = group_by.len();
            let mut sub = Table::new(group_by, aggs, input_types);
            for b in deleted {
                sub.fold(b);
            }
            let mut rows = cached.to_rows();
            let at: HashMap<Vec<Value>, usize> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| (r[..group_len].to_vec(), i))
                .collect();
            for (key, accs) in &sub.groups {
                let row = &mut rows[*at.get(key)?];
                for (cell, acc) in row[group_len..].iter_mut().zip(accs) {
                    let (Value::Int(old), Value::Int(d)) = (&*cell, acc.finish()) else {
                        return None;
                    };
                    if *old - d < 0 {
                        return None;
                    }
                    *cell = Value::Int(*old - d);
                }
            }
            rows.retain(|r| group_len == 0 || r[group_len + star] != Value::Int(0));
            Some(emit(&rows, output_types))
        }
    }

    /// One seeded case: input batches (some with selection vectors over
    /// junk rows), their column types, and the aggregate's shape.
    struct Case {
        batches: Vec<Batch>,
        input_types: Vec<DataType>,
        group_by: Vec<Expr>,
        aggs: Vec<AggFunc>,
        output_types: Vec<DataType>,
    }

    fn gen_case(rng: &mut Rng, count_only: bool) -> Case {
        let n_keys = rng.below(4) as usize;
        let key_types: Vec<DataType> = (0..n_keys).map(|_| rng.pick(&TYPES)).collect();
        // Groups: log-uniform up to ~50k, spread over the key columns.
        let bits = rng.below(17);
        let groups = (1 + rng.below(1 << bits)).min(50_000);
        let per_key = (groups as f64).powf(1.0 / n_keys.max(1) as f64).ceil() as u64;
        let rows = rng.below(groups * 3 + 10).min(60_000) as usize;
        // Keys, then one argument column of every type.
        let mut input_types = key_types.clone();
        input_types.extend(TYPES);
        let null_pct: Vec<u64> = input_types
            .iter()
            .map(|_| rng.pick(&[0, 0, 5, 30]))
            .collect();
        let cell = |rng: &mut Rng, c: usize| -> Value {
            if rng.chance(null_pct[c]) {
                return Value::Null;
            }
            let t = input_types[c];
            if c < n_keys {
                return domain(t, rng.below(per_key));
            }
            match t {
                DataType::Int => Value::Int(rng.below(2_000_001) as i64 - 1_000_000),
                DataType::Float => match rng.below(50) {
                    0 => Value::Float(-0.0),
                    1 => Value::Float(f64::NAN),
                    // Mixed magnitudes make the order of float additions
                    // show in the low bits.
                    k => Value::Float(
                        (rng.below(1 << 20) as f64 - 5e5) * 10f64.powi(k as i32 % 9 - 4),
                    ),
                },
                _ => domain(t, rng.below(40)),
            }
        };
        let width = input_types.len();
        let mut batches = Vec::new();
        let mut left = rows;
        while left > 0 || rng.chance(10) {
            let most = rng.pick(&[8, 300, 1024]);
            let live = (1 + rng.below(most)).min(left as u64) as usize;
            left -= live;
            let junk = if rng.chance(50) {
                rng.below(live as u64 + 3) as usize
            } else {
                0
            };
            let mut values: Vec<Vec<Value>> = vec![Vec::new(); width];
            let mut sel = Vec::new();
            let (mut l, mut j) = (live, junk);
            while l + j > 0 {
                if l > 0 && (j == 0 || rng.chance(60)) {
                    sel.push(values[0].len() as u32);
                    l -= 1;
                } else {
                    j -= 1;
                }
                for (c, col) in values.iter_mut().enumerate() {
                    col.push(cell(rng, c));
                }
            }
            let cols = values
                .iter()
                .zip(&input_types)
                .map(|(v, t)| Column::from_values(*t, v))
                .collect();
            let batch = Batch::new(cols);
            batches.push(if junk > 0 {
                batch.with_selection(Arc::new(sel))
            } else {
                batch
            });
        }
        let group_by: Vec<Expr> = (0..n_keys).map(Expr::col).collect();
        let arg = |rng: &mut Rng| Expr::col(rng.below(width as u64) as usize);
        let mut aggs = vec![AggFunc::CountStar];
        for _ in 0..rng.below(6) {
            aggs.push(match (count_only, rng.below(6)) {
                (true, 0) => AggFunc::CountStar,
                (true, _) | (false, 0) => AggFunc::Count(arg(rng)),
                (false, 1) => AggFunc::Sum(Expr::col(n_keys + rng.pick(&[1, 2]))),
                (false, 2) => AggFunc::Min(arg(rng)),
                (false, 3) => AggFunc::Max(arg(rng)),
                _ => AggFunc::CountDistinct(arg(rng)),
            });
        }
        let k = rng.below(aggs.len() as u64) as usize;
        aggs.swap(0, k);
        let output_types = key_types
            .iter()
            .copied()
            .chain(aggs.iter().map(|a| a.data_type(&input_types)))
            .collect();
        Case {
            batches,
            input_types,
            group_by,
            aggs,
            output_types,
        }
    }

    /// Equal types, lengths, validity masks and payload bits (floats by
    /// `to_bits`, NULL slots included).
    fn assert_bit_equal(got: &[Batch], want: &[Batch], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: batch count");
        for (g, w) in got.iter().zip(want) {
            assert!(g.sel().is_none() && w.sel().is_none(), "{what}: selection");
            assert_eq!(g.width(), w.width(), "{what}: width");
            for (k, (a, b)) in g.columns().iter().zip(w.columns()).enumerate() {
                assert_eq!(a.data_type(), b.data_type(), "{what}: column {k} type");
                assert_eq!(a.validity(), b.validity(), "{what}: column {k} validity");
                let same = match (a.values(), b.values()) {
                    (ColumnSlice::Float(x), ColumnSlice::Float(y)) => x
                        .iter()
                        .map(|f| f.to_bits())
                        .eq(y.iter().map(|f| f.to_bits())),
                    _ => a == b,
                };
                assert!(same, "{what}: column {k}\n got {a:?}\nwant {b:?}");
            }
        }
    }

    /// The emitted rows as one dense batch (zero rows when none).
    fn dense(out: &[Batch], types: &[DataType]) -> Batch {
        if out.is_empty() {
            Batch::new(
                types
                    .iter()
                    .map(|t| ColumnBuilder::new(*t, 0).finish())
                    .collect(),
            )
        } else {
            Batch::concat(out)
        }
    }

    #[test]
    fn columnar_table_matches_row_reference() {
        let cases = if cfg!(debug_assertions) { 30 } else { 300 };
        for case in 0..cases {
            let mut rng = Rng(0x5eed_0000 + case);
            let c = gen_case(&mut rng, case % 3 == 0);
            let what = format!("case {case}");
            let ours =
                || GroupTable::new(c.group_by.clone(), c.aggs.clone(), c.input_types.clone());
            let theirs =
                || reference::Table::new(c.group_by.clone(), c.aggs.clone(), c.input_types.clone());

            let mut table = ours();
            let mut want = theirs();
            for b in &c.batches {
                table.fold(b);
                want.fold(b);
            }
            let serial = table.finish(&c.output_types);
            assert_bit_equal(
                &serial,
                &want.finish(&c.output_types),
                &format!("{what} serial"),
            );

            // Partials over a random split of the batches, merged in order.
            if c.aggs.iter().all(|a| a.is_exact(&c.input_types)) {
                let parts = 1 + rng.below(4) as usize;
                let mut tables: Vec<GroupTable> = (0..parts).map(|_| ours()).collect();
                let mut refs: Vec<reference::Table> = (0..parts).map(|_| theirs()).collect();
                for b in &c.batches {
                    let p = rng.below(parts as u64) as usize;
                    tables[p].fold(b);
                    refs[p].fold(b);
                }
                let merged = tables.into_iter().reduce(|mut a, b| {
                    a.merge(b);
                    a
                });
                let merged_ref = refs.into_iter().reduce(|mut a, b| {
                    a.merge(b);
                    a
                });
                assert_bit_equal(
                    &merged.unwrap().finish(&c.output_types),
                    &merged_ref.unwrap().finish(&c.output_types),
                    &format!("{what} merged"),
                );
            }

            // Resume from the emitted rows of a prefix, fold the rest: the
            // same bits as folding everything at once.
            let split = rng.below(c.batches.len() as u64 + 1) as usize;
            let (old, delta) = c.batches.split_at(split);
            let mut prefix = ours();
            for b in old {
                prefix.fold(b);
            }
            let cached = dense(&prefix.finish(&c.output_types), &c.output_types);
            let resumed = ResumedAgg::resume(
                &cached,
                c.group_by.clone(),
                c.aggs.clone(),
                c.input_types.clone(),
                c.output_types.clone(),
            );
            let resumed_ref = reference::Table::resume(
                &cached,
                c.group_by.clone(),
                c.aggs.clone(),
                c.input_types.clone(),
            );
            let distinct = c
                .aggs
                .iter()
                .any(|a| matches!(a, AggFunc::CountDistinct(_)));
            // A distinct count's set is lost in its finished value, unless
            // there is no group to recover.
            let resumable = !distinct || cached.rows() == 0;
            assert_eq!(resumed.is_some(), resumable, "{what}: resumable");
            assert_eq!(resumed_ref.is_some(), resumable, "{what}: reference");
            if let (Some(mut r), Some(mut r_ref)) = (resumed, resumed_ref) {
                for b in delta {
                    r.fold(b);
                    r_ref.fold(b);
                }
                let out = r.finish();
                assert_bit_equal(
                    &out,
                    &r_ref.finish(&c.output_types),
                    &format!("{what} resumed"),
                );
                assert_bit_equal(&out, &serial, &format!("{what} resumed vs recomputed"));
            }

            // Retract a random subset of the input from the full result.
            let deleted: Vec<Batch> = c
                .batches
                .iter()
                .filter(|_| rng.chance(40))
                .cloned()
                .collect();
            let cached = dense(&serial, &c.output_types);
            let retracted = retract_count_groups(
                &cached,
                c.group_by.clone(),
                c.aggs.clone(),
                c.input_types.clone(),
                c.output_types.clone(),
                &deleted,
            );
            let count_only = c
                .aggs
                .iter()
                .all(|a| matches!(a, AggFunc::CountStar | AggFunc::Count(_)));
            assert_eq!(retracted.is_some(), count_only, "{what}: retractable");
            if let Some(out) = retracted {
                let want = reference::retract(
                    &cached,
                    c.group_by.clone(),
                    c.aggs.clone(),
                    c.input_types.clone(),
                    &c.output_types,
                    &deleted,
                )
                .expect("reference retracts what the table retracts");
                assert_bit_equal(&out, &want, &format!("{what} retracted"));
            }
        }
    }
}
