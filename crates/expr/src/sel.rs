//! Allocation-free selection kernel: predicates compiled into per-batch
//! index loops.
//!
//! Evaluating a filter through [`crate::eval::eval`] alone materializes a
//! physical-length Bool column per batch per predicate and, for every
//! comparison against a literal, broadcasts the literal into a full column
//! first. This module avoids both costs:
//!
//! * [`CompiledPredicate::compile`] splits a predicate into its top-level
//!   conjuncts once, at operator-construction time. Conjuncts of the shape
//!   `col <op> literal` (either orientation) are classified as direct
//!   column/scalar comparisons; everything else stays a general expression
//!   evaluated through [`crate::eval::eval`].
//! * [`CompiledPredicate::select_into`] then evaluates the conjunction as
//!   one pass per conjunct over a caller-owned `Vec<u32>` of qualifying
//!   **physical** row indices: the first conjunct seeds the buffer with a
//!   branch-free write-and-advance loop (`out[k] = i; k += pass as usize`),
//!   later conjuncts refine it in place. No `Vec<bool>`, no literal
//!   broadcast, no allocation once the scratch buffer is warm.
//! * A string column compared with a string literal, or tested with
//!   `LIKE` or `IN`, is a string test: its verdict is kept per dictionary
//!   entry (`strs::EntryMemo`), computed the first time a row
//!   references the entry and reused by every later row and morsel over
//!   the same dictionary — a scan's morsels all share their table's.
//!
//! Splitting at top-level `AND` is exact at the filter boundary: a row
//! passes a Kleene conjunction collapsed with "NULL is not true" iff every
//! conjunct is *strictly* true for it, which is precisely the intersection
//! of the per-conjunct index sets. NULL literals, nested `OR`s, `CASE`s,
//! etc. all take the general path and keep their three-valued semantics.

use rdb_vector::column::{Column, ColumnSlice};
use rdb_vector::{Batch, DataType, Value};

use crate::eval::eval;
use crate::expr::{CmpOp, Expr};
use crate::strs::{EntryMemo, StrTest};

/// A predicate pre-split into conjuncts with their evaluation strategy
/// chosen. Compile once per operator, reuse for every batch (string tests
/// keep per-entry verdicts across batches, hence `&mut self`).
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    conjuncts: Vec<Conjunct>,
}

#[derive(Debug, Clone)]
enum Conjunct {
    /// `column <op> literal` — evaluated as a direct typed loop, no
    /// intermediate columns.
    ColCmp { col: usize, op: CmpOp, lit: Value },
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

impl CompiledPredicate {
    /// Split `expr` at its top-level `AND` and classify each conjunct.
    pub fn compile(expr: &Expr) -> CompiledPredicate {
        let conjuncts = match expr {
            Expr::And(parts) => parts.iter().map(classify).collect(),
            other => vec![classify(other)],
        };
        CompiledPredicate { conjuncts }
    }

    /// Number of top-level conjuncts (diagnostics / EXPLAIN).
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

fn classify(e: &Expr) -> Conjunct {
    let str_test = |col: usize, test| Conjunct::StrTest {
        col,
        test,
        memo: EntryMemo::default(),
        expr: e.clone(),
    };
    let col_cmp = |col: usize, op: CmpOp, lit: &Value| match lit {
        Value::Str(s) => str_test(col, StrTest::Cmp(op, s.clone())),
        _ => Conjunct::ColCmp {
            col,
            op,
            lit: lit.clone(),
        },
    };
    match e {
        Expr::Cmp(op, a, b) => match (&**a, &**b) {
            (Expr::Col(i), Expr::Lit(v)) if !v.is_null() => col_cmp(*i, *op, v),
            (Expr::Lit(v), Expr::Col(i)) if !v.is_null() => col_cmp(*i, op.flipped(), v),
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
        Conjunct::ColCmp { col, op, lit } => {
            let column = batch.column(*col);
            if !apply_colcmp(column, *op, lit, batch, out, seeded, physical) {
                // Rare typed combination with no direct loop: fall back to
                // the general evaluator for this conjunct only.
                let e = Expr::Cmp(
                    *op,
                    Box::new(Expr::Col(*col)),
                    Box::new(Expr::Lit(lit.clone())),
                );
                apply_general(&e, batch, out, seeded, physical);
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

/// Direct typed column-vs-literal loop. Returns false when the type pair
/// has no fast path (caller falls back to general evaluation).
fn apply_colcmp(
    col: &Column,
    op: CmpOp,
    lit: &Value,
    batch: &Batch,
    out: &mut Vec<u32>,
    seeded: bool,
    physical: bool,
) -> bool {
    macro_rules! run {
        ($vals:expr, $pass:expr) => {{
            let vals = $vals;
            let pass = $pass;
            match col.validity() {
                None => drive(batch, out, seeded, physical, |i| pass(&vals[i])),
                Some(m) => drive(batch, out, seeded, physical, |i| m[i] && pass(&vals[i])),
            }
            true
        }};
    }
    match (col.values(), lit) {
        (ColumnSlice::Int(v), Value::Int(l)) => {
            let l = *l;
            match op {
                CmpOp::Eq => run!(v, move |x: &i64| *x == l),
                CmpOp::Ne => run!(v, move |x: &i64| *x != l),
                CmpOp::Lt => run!(v, move |x: &i64| *x < l),
                CmpOp::Le => run!(v, move |x: &i64| *x <= l),
                CmpOp::Gt => run!(v, move |x: &i64| *x > l),
                CmpOp::Ge => run!(v, move |x: &i64| *x >= l),
            }
        }
        (ColumnSlice::Float(v), Value::Float(l)) => {
            let l = *l;
            let test = cmp_test(op);
            run!(v, move |x: &f64| test(x.total_cmp(&l)))
        }
        (ColumnSlice::Int(v), Value::Float(l)) => {
            let l = *l;
            let test = cmp_test(op);
            run!(v, move |x: &i64| test((*x as f64).total_cmp(&l)))
        }
        (ColumnSlice::Float(v), Value::Int(l)) => {
            let l = *l as f64;
            let test = cmp_test(op);
            run!(v, move |x: &f64| test(x.total_cmp(&l)))
        }
        (ColumnSlice::Date(v), Value::Date(l)) => {
            let l = *l;
            let test = cmp_test(op);
            run!(v, move |x: &i32| test(x.cmp(&l)))
        }
        (ColumnSlice::Bool(v), Value::Bool(l)) => {
            let l = *l;
            let test = cmp_test(op);
            run!(v, move |x: &bool| test(x.cmp(&l)))
        }
        _ => false,
    }
}

/// Ordering-based test for one comparison operator.
#[inline]
fn cmp_test(op: CmpOp) -> impl Fn(std::cmp::Ordering) -> bool + Copy {
    move |o| op.test(o)
}

/// General conjunct: evaluate as a boolean column, fold NULL to false.
fn apply_general(e: &Expr, batch: &Batch, out: &mut Vec<u32>, seeded: bool, physical: bool) {
    let c = eval(e, batch);
    assert_eq!(c.data_type(), DataType::Bool, "predicate must be boolean");
    let vals = c.as_bools();
    match c.validity() {
        None => drive(batch, out, seeded, physical, |i| vals[i]),
        Some(m) => drive(batch, out, seeded, physical, |i| vals[i] && m[i]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_vector::column::ColumnBuilder;
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
}
