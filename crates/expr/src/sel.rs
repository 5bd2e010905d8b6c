//! Allocation-free selection kernel: predicates compiled into per-batch
//! index loops.
//!
//! Evaluating a filter through [`crate::eval::eval`] alone materializes a
//! physical-length Bool column per batch per predicate and, for every
//! comparison against a literal, broadcasts the literal into a full column
//! first. This module avoids both costs.
//!
//! [`CompiledPredicate::compile`] splits a predicate at its top-level `AND`
//! once, at operator-construction time, into conjuncts of four kinds:
//!
//! * **Range.** Every `col <op> literal` (either orientation, a non-NULL,
//!   non-string literal, `op` not `<>`) on one column is one conjunct: its
//!   bounds are merged into one interval by [`Interval`]'s `add_lo` /
//!   `add_hi`, so `l_shipdate >= lo AND l_shipdate < hi` (and `BETWEEN`,
//!   which binds to `>= AND <=`) is one pass. A `col <> literal` is a
//!   range of its own: the point interval, negated.
//! * **Pair.** `a <op> b` over two columns, one typed loop when both are
//!   of one domain (`l_commitdate < l_receiptdate`).
//! * **String test.** A string column compared with a string literal, or
//!   tested with `LIKE` or `IN`: its verdict is kept per dictionary entry
//!   (`strs::EntryMemo`), computed the first time a row references the
//!   entry and reused by every later row and morsel over the same
//!   dictionary — a scan's morsels all share their table's.
//! * **General.** Anything else, evaluated through [`crate::eval::eval`]
//!   and folded into the index buffer (NULL collapses to false).
//!
//! **Order.** Two-sided ranges run first, then one-sided ranges (and
//! `<>`), then pairs, then string tests, then general conjuncts, each kind
//! in the order it was written. The conjunction is an intersection, so the
//! order changes what a pass costs, not what it selects.
//!
//! **Lowering.** The column's type is known only at the first batch, so a
//! range is lowered then, once per column type, into an inclusive window
//! `[lo, lo + width]` of order keys in the column's physical domain, and
//! a row passes iff it is non-NULL and `(key - lo) as unsigned <= width`
//! (negated for `<>`): one compare per row, no branch on the operator.
//! The lowering is exact, i.e. it selects the rows [`Value::cmp`] — and so
//! `eval` — would:
//!
//! * a Date column's key is its `i32`, an Int column's its `i64`, a Bool
//!   column's `0`/`1`; a strict bound moves by one, and a move past the
//!   end of the domain empties the window;
//! * a Float column's key is the `i64` whose two's-complement order is
//!   `f64::total_cmp`'s order of the floats (`-0.0 < 0.0`, NaN above
//!   `+∞`), so a strict bound moves by one key as well; an Int literal on
//!   it is its `f64`;
//! * a Float literal `l` on an Int column becomes the Int bound selecting
//!   the rows `x` for which `(x as f64).total_cmp(&l)` passes — a binary
//!   search, since `x as f64` is monotone but not injective past 2^53;
//! * a literal of another type keeps its conjuncts on the general path
//!   (where comparing, say, a date with an int fails as it always has);
//! * an empty window selects nothing without reading the column, and an
//!   empty `<>` window passes every non-NULL row.
//!
//! [`CompiledPredicate::select_into`] then evaluates the conjunction as one
//! pass per conjunct over a caller-owned `Vec<u32>` of qualifying
//! **physical** row indices: the first conjunct seeds the buffer with a
//! branch-free write-and-advance loop (`out[k] = i; k += pass as usize`),
//! later conjuncts refine it in place. No `Vec<bool>`, no literal
//! broadcast, no allocation once the scratch buffer is warm.
//!
//! Splitting at top-level `AND` is exact at the filter boundary: a row
//! passes a Kleene conjunction collapsed with "NULL is not true" iff every
//! conjunct is *strictly* true for it, which is precisely the intersection
//! of the per-conjunct index sets. NULL literals, nested `OR`s, `CASE`s,
//! etc. all take the general path and keep their three-valued semantics.

use std::cmp::Ordering;

use rdb_vector::column::ColumnSlice;
use rdb_vector::{Batch, DataType, Value};

use crate::eval::eval;
use crate::expr::{CmpOp, Expr};
use crate::ranges::Interval;
use crate::strs::{EntryMemo, StrTest};

/// A predicate pre-split into conjuncts with their evaluation strategy
/// chosen. Compile once per operator, reuse for every batch (string tests
/// keep per-entry verdicts across batches, ranges their lowered window,
/// hence `&mut self`).
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    conjuncts: Vec<Conjunct>,
}

#[derive(Debug, Clone)]
enum Conjunct {
    /// Every `column <op> literal` on one column, as one window test.
    Range(Range),
    /// `a <op> b` over two columns; `expr` when their types differ.
    Pair {
        a: usize,
        op: CmpOp,
        b: usize,
        expr: Expr,
    },
    /// `column <op> 'literal'`, `column [NOT] LIKE` or `column [NOT] IN
    /// (...)`: over a string column, one memoized verdict per dictionary
    /// entry; over any other column, `expr` through the general walk.
    StrTest {
        col: usize,
        test: StrTest,
        memo: EntryMemo,
        expr: Expr,
    },
    /// Anything else — evaluated through the general expression walk,
    /// then folded into the index buffer (NULL collapses to false).
    General(Expr),
}

/// The bounds on one column, and their window in the domain of the last
/// column type seen.
#[derive(Debug, Clone)]
struct Range {
    col: usize,
    /// `(op, literal)`, oriented `column <op> literal`, `op` one of `<`,
    /// `<=`, `>`, `>=`: an `=` is `>=` and `<=`, a `<>` the same, negated.
    bounds: Vec<(CmpOp, Value)>,
    negated: bool,
    /// The conjuncts the bounds came from: the general path when a literal
    /// does not compare with the column's type.
    exprs: Vec<Expr>,
    lowered: Option<(DataType, Window)>,
}

#[derive(Debug, Clone, Copy)]
enum Window {
    /// No row passes.
    Empty,
    /// A non-NULL row passes iff its order key `k` has
    /// `(k - lo) as unsigned <= width`, xor `negated`.
    Keys { lo: i64, width: u64, negated: bool },
    /// A literal of a type the column does not compare with.
    Mismatch,
}

impl CompiledPredicate {
    /// Split `expr` at its top-level `AND`, classify each conjunct, merge
    /// the bounds on each column into one range and order the conjuncts
    /// (see the module docs).
    pub fn compile(expr: &Expr) -> CompiledPredicate {
        let parts = match expr {
            Expr::And(parts) => parts.as_slice(),
            other => std::slice::from_ref(other),
        };
        let mut conjuncts: Vec<Conjunct> = Vec::with_capacity(parts.len());
        for e in parts {
            match classify(e) {
                Conjunct::Range(r) if !r.negated => {
                    let same_col = conjuncts.iter_mut().find_map(|c| match c {
                        Conjunct::Range(m) if m.col == r.col && !m.negated => Some(m),
                        _ => None,
                    });
                    match same_col {
                        Some(m) => {
                            m.bounds.extend(r.bounds);
                            m.exprs.extend(r.exprs);
                        }
                        None => conjuncts.push(Conjunct::Range(r)),
                    }
                }
                c => conjuncts.push(c),
            }
        }
        conjuncts.sort_by_key(Conjunct::rank);
        CompiledPredicate { conjuncts }
    }

    /// Number of compiled conjuncts, after the bounds on each column are
    /// merged into one range (diagnostics / EXPLAIN).
    pub fn conjunct_count(&self) -> usize {
        self.conjuncts.len()
    }

    /// Fill `out` with the qualifying physical row indices of `batch`,
    /// starting from the batch's own selection vector (or all physical
    /// rows when it has none). `out` is cleared first; reuse it across
    /// batches to stay allocation-free.
    pub fn select_into(&mut self, batch: &Batch, out: &mut Vec<u32>) {
        self.run(batch, out, false);
    }

    /// [`CompiledPredicate::select_into`] over **all** physical rows,
    /// ignoring any selection vector on the batch.
    pub fn select_physical_into(&mut self, batch: &Batch, out: &mut Vec<u32>) {
        self.run(batch, out, true);
    }

    /// Refine an existing physical-index list in place: keep only the
    /// indices satisfying every conjunct. Used by fused pipelines, where
    /// the live selection is chain state rather than a batch attribute.
    pub fn refine(&mut self, batch: &Batch, sel: &mut Vec<u32>) {
        for c in &mut self.conjuncts {
            if sel.is_empty() {
                return;
            }
            apply_conjunct(c, batch, sel, true, false);
        }
    }

    fn run(&mut self, batch: &Batch, out: &mut Vec<u32>, physical: bool) {
        out.clear();
        let mut seeded = false;
        for c in &mut self.conjuncts {
            apply_conjunct(c, batch, out, seeded, physical);
            seeded = true;
            if out.is_empty() {
                return;
            }
        }
        if !seeded {
            // An empty conjunction (`AND` of nothing) selects everything.
            seed_all(batch, out, physical);
        }
    }
}

impl Conjunct {
    /// Position in the evaluation order (see the module docs).
    fn rank(&self) -> u8 {
        match self {
            Conjunct::Range(r) if r.two_sided() => 0,
            Conjunct::Range(_) => 1,
            Conjunct::Pair { .. } => 2,
            Conjunct::StrTest { .. } => 3,
            Conjunct::General(_) => 4,
        }
    }
}

fn classify(e: &Expr) -> Conjunct {
    let str_test = |col: usize, test| Conjunct::StrTest {
        col,
        test,
        memo: EntryMemo::default(),
        expr: e.clone(),
    };
    let col_cmp = |col: usize, op: CmpOp, lit: &Value| match lit {
        Value::Str(s) => str_test(col, StrTest::Cmp(op, s.clone())),
        _ => {
            let ops = match op {
                CmpOp::Eq | CmpOp::Ne => vec![CmpOp::Ge, CmpOp::Le],
                op => vec![op],
            };
            Conjunct::Range(Range {
                col,
                bounds: ops.into_iter().map(|op| (op, lit.clone())).collect(),
                negated: op == CmpOp::Ne,
                exprs: vec![e.clone()],
                lowered: None,
            })
        }
    };
    match e {
        Expr::Cmp(op, a, b) => match (&**a, &**b) {
            (Expr::Col(i), Expr::Lit(v)) if !v.is_null() => col_cmp(*i, *op, v),
            (Expr::Lit(v), Expr::Col(i)) if !v.is_null() => col_cmp(*i, op.flipped(), v),
            (Expr::Col(a), Expr::Col(b)) => Conjunct::Pair {
                a: *a,
                op: *op,
                b: *b,
                expr: e.clone(),
            },
            _ => Conjunct::General(e.clone()),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match &**expr {
            Expr::Col(i) => str_test(
                *i,
                StrTest::Like {
                    pattern: pattern.clone(),
                    negated: *negated,
                },
            ),
            _ => Conjunct::General(e.clone()),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => match &**expr {
            Expr::Col(i) => str_test(*i, StrTest::in_list(list, *negated)),
            _ => Conjunct::General(e.clone()),
        },
        _ => Conjunct::General(e.clone()),
    }
}

impl Range {
    /// Bounded on both sides: the narrow windows that run first.
    fn two_sided(&self) -> bool {
        let has = |lower: bool| self.bounds.iter().any(|(op, _)| is_lower(*op) == lower);
        !self.negated && has(true) && has(false)
    }

    /// The window for a column of type `dtype`, from the lowest and the
    /// highest order key of its domain.
    fn lower(&self, dtype: DataType) -> Window {
        let (min, max) = match dtype {
            DataType::Int | DataType::Float => (i64::MIN, i64::MAX),
            DataType::Date => (i32::MIN as i64, i32::MAX as i64),
            DataType::Bool => (0, 1),
            DataType::Str => return Window::Mismatch,
        };
        let mut iv = Interval::unconstrained();
        for (op, lit) in &self.bounds {
            let Some((k, inclusive)) = key_bound(dtype, *op, lit) else {
                return Window::Mismatch;
            };
            match is_lower(*op) {
                true => iv.add_lo(Value::Int(k), inclusive),
                false => iv.add_hi(Value::Int(k), inclusive),
            }
        }
        let key = |b: Option<(Value, bool)>, unbounded: i64, step: fn(i64) -> Option<i64>| match b {
            None => Some(unbounded),
            Some((Value::Int(k), true)) => Some(k),
            Some((Value::Int(k), false)) => step(k),
            Some(_) => unreachable!("bounds are keys"),
        };
        let lo = key(iv.lo, min, |k| k.checked_add(1));
        let hi = key(iv.hi, max, |k| k.checked_sub(1));
        match (lo, hi) {
            (Some(lo), Some(hi)) if lo <= hi => Window::Keys {
                lo,
                width: hi.wrapping_sub(lo) as u64,
                negated: self.negated,
            },
            _ if self.negated => Window::Keys {
                lo: min,
                width: max.wrapping_sub(min) as u64,
                negated: false,
            },
            _ => Window::Empty,
        }
    }
}

/// `>` and `>=` bound a column from below.
fn is_lower(op: CmpOp) -> bool {
    matches!(op, CmpOp::Gt | CmpOp::Ge)
}

/// `column <op> lit` as a bound `(key, inclusive)` on the order keys of a
/// column of type `dtype`; `None` when `lit` does not compare with it.
fn key_bound(dtype: DataType, op: CmpOp, lit: &Value) -> Option<(i64, bool)> {
    let inclusive = matches!(op, CmpOp::Le | CmpOp::Ge);
    let key = match (dtype, lit) {
        (DataType::Int, Value::Int(l)) => *l,
        (DataType::Float, Value::Float(l)) => float_key(*l),
        (DataType::Float, Value::Int(l)) => float_key(*l as f64),
        (DataType::Date, Value::Date(l)) => *l as i64,
        (DataType::Bool, Value::Bool(l)) => *l as i64,
        (DataType::Int, Value::Float(l)) => {
            // A lower bound is the first int passing `>=`/`>`. An upper
            // bound is the complement of a lower one (`x <= l` is `NOT
            // x > l`), so it lies strictly below the first int passing the
            // other test. With no such int, a lower bound lies past the
            // end of the domain and an upper bound bounds nothing.
            let lower = is_lower(op);
            let first = first_int(*l, inclusive == lower);
            return Some(first.map_or((i64::MAX, !lower), |k| (k, lower)));
        }
        _ => return None,
    };
    Some((key, inclusive))
}

/// The least `x: i64` with `(x as f64).total_cmp(&l)` at least `Equal`
/// (`inclusive`) or `Greater`; `None` when there is none. The test is
/// monotone in `x`, so a binary search over the whole domain finds it.
fn first_int(l: f64, inclusive: bool) -> Option<i64> {
    let passes = |x: i128| {
        let o = (x as i64 as f64).total_cmp(&l);
        o.is_gt() || (inclusive && o.is_eq())
    };
    let (mut lo, mut hi) = (i64::MIN as i128, i64::MAX as i128 + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    i64::try_from(lo).ok()
}

/// `f`'s order key: the two's-complement order of the keys is
/// `f64::total_cmp`'s order of the floats (the same transform it uses).
#[inline]
fn float_key(f: f64) -> i64 {
    let b = f.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Seed/refine driver: one branch-free pass writing surviving indices.
///
/// When `seeded`, refines `out` in place; otherwise seeds it from the
/// batch's selection (or `0..physical_rows` when `physical` or no
/// selection is present).
fn drive<F: FnMut(usize) -> bool>(
    batch: &Batch,
    out: &mut Vec<u32>,
    seeded: bool,
    physical: bool,
    mut pass: F,
) {
    if seeded {
        let mut k = 0;
        for j in 0..out.len() {
            let p = out[j];
            out[k] = p;
            k += pass(p as usize) as usize;
        }
        out.truncate(k);
        return;
    }
    match batch.sel().filter(|_| !physical) {
        Some(sel) => {
            out.resize(sel.len(), 0);
            let mut k = 0;
            for &p in sel {
                out[k] = p;
                k += pass(p as usize) as usize;
            }
            out.truncate(k);
        }
        None => {
            let n = batch.physical_rows();
            out.resize(n, 0);
            let mut k = 0;
            for i in 0..n {
                out[k] = i as u32;
                k += pass(i) as usize;
            }
            out.truncate(k);
        }
    }
}

/// [`drive`] over the rows valid in both masks (`None`: all valid).
fn drive_valid<F: Fn(usize) -> bool>(
    batch: &Batch,
    out: &mut Vec<u32>,
    seeded: bool,
    physical: bool,
    masks: [Option<&[bool]>; 2],
    pass: F,
) {
    match masks {
        [None, None] => drive(batch, out, seeded, physical, pass),
        [Some(m), None] | [None, Some(m)] => {
            drive(batch, out, seeded, physical, |i| m[i] & pass(i))
        }
        [Some(m), Some(n)] => drive(batch, out, seeded, physical, |i| m[i] & n[i] & pass(i)),
    }
}

/// Seed `out` with every in-domain row (empty-conjunction case).
fn seed_all(batch: &Batch, out: &mut Vec<u32>, physical: bool) {
    match batch.sel().filter(|_| !physical) {
        Some(sel) => out.extend_from_slice(sel),
        None => out.extend(0..batch.physical_rows() as u32),
    }
}

fn apply_conjunct(
    c: &mut Conjunct,
    batch: &Batch,
    out: &mut Vec<u32>,
    seeded: bool,
    physical: bool,
) {
    match c {
        Conjunct::Range(r) => apply_range(r, batch, out, seeded, physical),
        Conjunct::Pair { a, op, b, expr } => {
            let (ca, cb) = (batch.column(*a), batch.column(*b));
            let masks = [ca.validity(), cb.validity()];
            // Bit `ord + 1` of `passing` (Less = -1, Equal, Greater) says
            // whether the operator passes that ordering: one branch-free
            // test for all six.
            let passing = [Ordering::Less, Ordering::Equal, Ordering::Greater]
                .iter()
                .enumerate()
                .fold(0u8, |m, (bit, &o)| m | ((op.test(o) as u8) << bit));
            macro_rules! pair {
                ($x:expr, $y:expr, $key:expr) => {{
                    let (x, y, key) = ($x, $y, $key);
                    drive_valid(batch, out, seeded, physical, masks, |i| {
                        let (l, r) = (key(x[i]), key(y[i]));
                        (passing >> ((l >= r) as u8 + (l > r) as u8)) & 1 == 1
                    })
                }};
            }
            match (ca.values(), cb.values()) {
                (ColumnSlice::Int(x), ColumnSlice::Int(y)) => pair!(x, y, |v: i64| v),
                (ColumnSlice::Date(x), ColumnSlice::Date(y)) => pair!(x, y, |v: i32| v),
                (ColumnSlice::Float(x), ColumnSlice::Float(y)) => pair!(x, y, float_key),
                (ColumnSlice::Bool(x), ColumnSlice::Bool(y)) => pair!(x, y, |v: bool| v),
                _ => apply_general(expr, batch, out, seeded, physical),
            }
        }
        Conjunct::StrTest {
            col,
            test,
            memo,
            expr,
        } => {
            let column = batch.column(*col);
            let ColumnSlice::Str(s) = column.values() else {
                return apply_general(expr, batch, out, seeded, physical);
            };
            let codes = s.codes();
            let mut verdicts = memo.over(s.dict());
            match column.validity() {
                None => drive(batch, out, seeded, physical, |i| {
                    verdicts.get(codes[i], test)
                }),
                Some(m) => drive(batch, out, seeded, physical, |i| {
                    m[i] && verdicts.get(codes[i], test)
                }),
            }
        }
        Conjunct::General(e) => apply_general(e, batch, out, seeded, physical),
    }
}

/// One range: lower it for the column's type if that is new, then one
/// pass of `(key - lo) as unsigned <= width` in the column's own width.
fn apply_range(r: &mut Range, batch: &Batch, out: &mut Vec<u32>, seeded: bool, physical: bool) {
    let column = batch.column(r.col);
    let dtype = column.data_type();
    let window = match r.lowered {
        Some((t, w)) if t == dtype => w,
        _ => {
            let w = r.lower(dtype);
            r.lowered = Some((dtype, w));
            w
        }
    };
    let (lo, width, negated) = match window {
        Window::Keys { lo, width, negated } => (lo, width, negated),
        Window::Empty => return out.clear(),
        Window::Mismatch => {
            let mut seeded = seeded;
            for e in &r.exprs {
                apply_general(e, batch, out, seeded, physical);
                seeded = true;
                if out.is_empty() {
                    return;
                }
            }
            return;
        }
    };
    let masks = [column.validity(), None];
    macro_rules! window {
        ($vals:expr, $inside:expr) => {{
            let (vals, inside) = ($vals, $inside);
            // Two loops, not `inside != negated`: the xor costs a pass
            // over an int column about twice its time.
            if negated {
                drive_valid(batch, out, seeded, physical, masks, |i| !inside(vals[i]))
            } else {
                drive_valid(batch, out, seeded, physical, masks, |i| inside(vals[i]))
            }
        }};
    }
    match column.values() {
        ColumnSlice::Int(v) => window!(v, |x: i64| x.wrapping_sub(lo) as u64 <= width),
        ColumnSlice::Date(v) => {
            // A non-empty window of a date column lies inside `i32`.
            let (lo, width) = (lo as i32, width as u32);
            window!(v, |x: i32| x.wrapping_sub(lo) as u32 <= width)
        }
        ColumnSlice::Float(v) => {
            window!(v, |x: f64| float_key(x).wrapping_sub(lo) as u64 <= width)
        }
        ColumnSlice::Bool(v) => window!(v, |x: bool| (x as i64).wrapping_sub(lo) as u64 <= width),
        ColumnSlice::Str(_) => unreachable!("a string column lowers to a mismatch"),
    }
}

/// General conjunct: evaluate as a boolean column, fold NULL to false.
fn apply_general(e: &Expr, batch: &Batch, out: &mut Vec<u32>, seeded: bool, physical: bool) {
    let c = eval(e, batch);
    assert_eq!(c.data_type(), DataType::Bool, "predicate must be boolean");
    let vals = c.as_bools();
    drive_valid(batch, out, seeded, physical, [c.validity(), None], |i| {
        vals[i]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_vector::column::{Column, ColumnBuilder};
    use std::sync::Arc;

    fn batch() -> Batch {
        let mut nb = ColumnBuilder::new(DataType::Int, 5);
        nb.push(Value::Int(10));
        nb.push_null();
        nb.push(Value::Int(30));
        nb.push(Value::Int(40));
        nb.push(Value::Int(50));
        Batch::new(vec![
            Column::from_ints(vec![1, 2, 3, 4, 5]),
            Column::from_floats(vec![0.5, 1.5, 2.5, 3.5, 4.5]),
            nb.finish(),
            Column::from_strs(["a", "b", "c", "d", "e"]),
        ])
    }

    fn select(expr: &Expr, b: &Batch) -> Vec<u32> {
        let mut out = Vec::new();
        CompiledPredicate::compile(expr).select_into(b, &mut out);
        out
    }

    #[test]
    fn single_colcmp_selects_indices() {
        let b = batch();
        assert_eq!(select(&Expr::col(0).gt(Expr::lit(3)), &b), vec![3, 4]);
        assert_eq!(select(&Expr::col(1).le(Expr::lit(1.5)), &b), vec![0, 1]);
        assert_eq!(
            select(&Expr::col(3).ge(Expr::lit(Value::str("d"))), &b),
            vec![3, 4]
        );
    }

    #[test]
    fn flipped_literal_orientation() {
        let b = batch();
        // 3 < col0  ≡  col0 > 3
        let e = Expr::Cmp(CmpOp::Lt, Box::new(Expr::lit(3)), Box::new(Expr::col(0)));
        assert_eq!(select(&e, &b), vec![3, 4]);
    }

    #[test]
    fn conjunction_intersects_branch_free() {
        let b = batch();
        let e = Expr::col(0)
            .gt(Expr::lit(1))
            .and(Expr::col(1).lt(Expr::lit(4.0)));
        let mut p = CompiledPredicate::compile(&e);
        assert_eq!(p.conjunct_count(), 2);
        let mut out = Vec::new();
        p.select_into(&b, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn null_rows_never_pass() {
        let b = batch();
        assert_eq!(select(&Expr::col(2).ge(Expr::lit(0)), &b), vec![0, 2, 3, 4]);
        // Mixed promotion against a float literal.
        assert_eq!(select(&Expr::col(2).gt(Expr::lit(25.0)), &b), vec![2, 3, 4]);
    }

    #[test]
    fn composes_with_existing_selection() {
        let b = batch().with_selection(Arc::new(vec![0, 2, 4]));
        assert_eq!(select(&Expr::col(0).gt(Expr::lit(1)), &b), vec![2, 4]);
        // The physical domain ignores the selection.
        let mut out = Vec::new();
        CompiledPredicate::compile(&Expr::col(0).gt(Expr::lit(1)))
            .select_physical_into(&b, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn refine_narrows_chain_state() {
        let b = batch();
        let mut sel: Vec<u32> = vec![0, 1, 2, 3, 4];
        CompiledPredicate::compile(&Expr::col(0).gt(Expr::lit(2))).refine(&b, &mut sel);
        assert_eq!(sel, vec![2, 3, 4]);
        CompiledPredicate::compile(&Expr::col(1).lt(Expr::lit(4.0))).refine(&b, &mut sel);
        assert_eq!(sel, vec![2, 3]);
    }

    #[test]
    fn general_expressions_fall_back_and_agree() {
        let b = batch();
        // OR is not splittable: general path, same outcome as the Bool
        // column `eval` computes (`value && valid`) — col 2 is NULL in
        // row 1, so the second disjunct exercises the NULL collapse.
        let e = Expr::col(0)
            .eq(Expr::lit(1))
            .or(Expr::col(2).ge(Expr::lit(40)));
        let c = eval(&e, &b);
        let from_eval: Vec<u32> = (0..b.rows())
            .filter(|&i| c.as_bools()[i] && c.is_valid(i))
            .map(|i| i as u32)
            .collect();
        assert_eq!(from_eval, vec![0, 3, 4]);
        assert_eq!(select(&e, &b), from_eval);
    }

    #[test]
    fn null_literal_comparison_selects_nothing() {
        let b = batch();
        let e = Expr::col(0).gt(Expr::lit(Value::Null));
        assert_eq!(select(&e, &b), Vec::<u32>::new());
    }

    #[test]
    fn window_on_one_column_is_one_range_run_first() {
        let b = batch();
        // Written last, the window on column 0 runs first: a one-sided
        // bound on column 1 ahead of its two bounds.
        let e = Expr::col(1)
            .lt(Expr::lit(4.0))
            .and(Expr::col(0).ge(Expr::lit(2)))
            .and(Expr::lit(5).gt(Expr::col(0)));
        let mut p = CompiledPredicate::compile(&e);
        assert_eq!(p.conjunct_count(), 2);
        let Conjunct::Range(first) = &p.conjuncts[0] else {
            panic!("a range runs first: {:?}", p.conjuncts[0]);
        };
        assert_eq!((first.col, first.bounds.len()), (0, 2));
        assert!(first.two_sided());
        let mut out = Vec::new();
        p.select_into(&b, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(matches!(
            p.conjuncts[0],
            Conjunct::Range(Range {
                lowered: Some((
                    DataType::Int,
                    Window::Keys {
                        lo: 2,
                        width: 2,
                        ..
                    }
                )),
                ..
            })
        ));
    }

    #[test]
    fn contradictory_window_selects_nothing() {
        let b = batch();
        let e = Expr::col(0)
            .gt(Expr::lit(3))
            .and(Expr::col(0).lt(Expr::lit(2)));
        let mut p = CompiledPredicate::compile(&e);
        assert_eq!(p.conjunct_count(), 1);
        let mut out = vec![9];
        p.select_into(&b, &mut out);
        assert!(out.is_empty());
        assert!(matches!(
            p.conjuncts[0],
            Conjunct::Range(Range {
                lowered: Some((_, Window::Empty)),
                ..
            })
        ));
        // `x < 2.5 AND x > 2` over ints: no int between.
        let e = Expr::col(0)
            .lt(Expr::lit(2.5))
            .and(Expr::col(0).gt(Expr::lit(2)));
        assert_eq!(select(&e, &b), Vec::<u32>::new());
    }

    #[test]
    fn mismatched_types_fail_as_before() {
        // A literal or a column of a type the column does not compare
        // with goes through `eval`, which fails; it never selects nothing.
        let b = Batch::new(vec![
            Column::from_dates(vec![1, 5]),
            Column::from_ints(vec![1, 5]),
        ]);
        for e in [
            Expr::col(0)
                .ge(Expr::lit(1))
                .and(Expr::col(0).lt(Expr::lit(Value::Date(9)))),
            Expr::col(0).lt(Expr::col(1)),
        ] {
            assert!(
                std::panic::catch_unwind(|| select(&e, &b)).is_err(),
                "{e:?}"
            );
        }
    }
}
