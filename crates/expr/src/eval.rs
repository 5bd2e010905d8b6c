//! Column-at-a-time expression evaluation.
//!
//! [`eval`] produces one output column per expression per input batch. NULL
//! handling follows SQL: comparisons and arithmetic are NULL if any operand
//! is NULL; `AND`/`OR` use Kleene three-valued logic. Collapsing NULL to
//! `false` is the filter boundary's job
//! ([`crate::sel::CompiledPredicate`]), not this module's.
//!
//! Evaluation works at the batch's **physical** row level: output columns
//! have `batch.physical_rows()` rows, aligned with the input columns, and
//! any selection vector on the batch simply rides along (the vectorized
//! convention — computing over unselected rows is cheaper than gathering).
//!
//! The common numeric/date cases run over raw slices; rarer type
//! combinations fall back to a per-row dispatch via [`rdb_vector::row::cmp_cell`].
//! String kernels (`LIKE`, `IN`, `SUBSTR`, comparison with a constant)
//! run once per dictionary entry when that is no more work than once per
//! row (the `strs` module).

use std::borrow::Cow;

use rdb_vector::column::{Column, ColumnBuilder, ColumnData, ColumnSlice};
use rdb_vector::row::cmp_cell;
use rdb_vector::types::{month_of_date, year_of_date};
use rdb_vector::{Batch, DataType, DictBuilder, Value};

use crate::expr::{ArithOp, CmpOp, Expr};
use crate::strs::{substr_column, test_rows, StrTest};

/// Evaluate `expr` over `batch`, producing a column of
/// `batch.physical_rows()` rows aligned with the batch's columns.
///
/// `expr` must be canonical (no [`Expr::Named`]); bind it first.
pub fn eval(expr: &Expr, batch: &Batch) -> Column {
    let rows = batch.physical_rows();
    match expr {
        Expr::Col(i) => batch.column(*i).clone(),
        Expr::Named(n) => panic!("cannot evaluate unbound column '{n}'"),
        Expr::Param(n) => panic!("cannot evaluate unsubstituted parameter '{n}'"),
        Expr::Lit(v) => broadcast(v, rows),
        Expr::Cmp(op, a, b) => cmp_columns(*op, &eval(a, batch), &eval(b, batch)),
        Expr::Arith(op, a, b) => arith_columns(*op, &eval(a, batch), &eval(b, batch)),
        Expr::And(parts) => kleene(parts, batch, true),
        Expr::Or(parts) => kleene(parts, batch, false),
        Expr::Not(e) => {
            // Freshly computed predicate columns are uniquely owned, so the
            // negation happens in place (copy-on-write otherwise).
            eval(e, batch).map_bools(|b| !b)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let c = eval(expr, batch);
            let test = StrTest::Like {
                pattern: pattern.clone(),
                negated: *negated,
            };
            rebuild_bool(test_rows(c.as_strs(), |s| test.test(s)), &c)
        }
        Expr::Substr { expr, start, len } => substr_column(&eval(expr, batch), *start, *len),
        Expr::Year(e) => {
            let c = eval(e, batch);
            let vals: Vec<i64> = c
                .as_dates()
                .iter()
                .map(|&d| year_of_date(d) as i64)
                .collect();
            carry_validity(ColumnData::ints(vals), &c)
        }
        Expr::Month(e) => {
            let c = eval(e, batch);
            let vals: Vec<i64> = c
                .as_dates()
                .iter()
                .map(|&d| month_of_date(d) as i64)
                .collect();
            carry_validity(ColumnData::ints(vals), &c)
        }
        Expr::Case {
            branches,
            otherwise,
        } => eval_case(branches, otherwise, batch),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let c = eval(expr, batch);
            rebuild_bool(in_list(&c, list, *negated), &c)
        }
        Expr::IsNull { expr, negated } => {
            let c = eval(expr, batch);
            let vals: Vec<bool> = (0..rows).map(|i| c.is_valid(i) == *negated).collect();
            Column::from_bools(vals)
        }
    }
}

fn broadcast(v: &Value, rows: usize) -> Column {
    match v {
        Value::Null => Column::nulls(DataType::Int, rows),
        Value::Bool(x) => Column::from_bools(vec![*x; rows]),
        Value::Int(x) => Column::from_ints(vec![*x; rows]),
        Value::Float(x) => Column::from_floats(vec![*x; rows]),
        Value::Str(s) => {
            let mut dict = DictBuilder::new();
            dict.intern(s);
            Column::new(ColumnData::coded(vec![0; rows], dict.finish()))
        }
        Value::Date(d) => Column::from_dates(vec![*d; rows]),
    }
}

/// `IN` membership per row of `c`, one typed loop per column type. A list
/// element matches only cells of its own type, as `Value` equality has it
/// (an `Int` element never matches a float column); floats compare by
/// canonical bits, so `-0.0` matches `0.0`. A NULL row is `false`.
fn in_list(c: &Column, list: &[Value], negated: bool) -> Vec<bool> {
    fn member<'a, K: PartialEq>(
        cells: impl Iterator<Item = K>,
        list: &'a [Value],
        key: impl Fn(&'a Value) -> Option<K>,
        negated: bool,
    ) -> Vec<bool> {
        let keys: Vec<K> = list.iter().filter_map(key).collect();
        cells.map(|v| keys.contains(&v) != negated).collect()
    }
    let float = |v: &Value| match v {
        Value::Float(f) => Some(Value::float_bits(*f)),
        _ => None,
    };
    let mut vals = match c.values() {
        ColumnSlice::Bool(v) => member(v.iter().copied(), list, Value::as_bool, negated),
        ColumnSlice::Int(v) => member(v.iter().copied(), list, Value::as_int, negated),
        ColumnSlice::Float(v) => member(
            v.iter().map(|&f| Value::float_bits(f)),
            list,
            float,
            negated,
        ),
        ColumnSlice::Str(v) => {
            let test = StrTest::in_list(list, negated);
            test_rows(v, |s| test.test(s))
        }
        ColumnSlice::Date(v) => member(v.iter().copied(), list, Value::as_date, negated),
    };
    if let Some(valid) = c.validity() {
        for (v, &ok) in vals.iter_mut().zip(valid) {
            *v &= ok;
        }
    }
    vals
}

/// Combine validity of two inputs: output row valid iff both inputs valid.
fn merged_validity(a: &Column, b: &Column) -> Option<Vec<bool>> {
    match (a.validity(), b.validity()) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(m.to_vec()),
        (Some(ma), Some(mb)) => Some(ma.iter().zip(mb).map(|(&x, &y)| x && y).collect()),
    }
}

fn rebuild_bool(vals: Vec<bool>, source: &Column) -> Column {
    match source.validity() {
        None => Column::from_bools(vals),
        Some(m) => Column::with_validity(ColumnData::bools(vals), m.to_vec()),
    }
}

fn carry_validity(data: ColumnData, source: &Column) -> Column {
    match source.validity() {
        None => Column::new(data),
        Some(m) => Column::with_validity(data, m.to_vec()),
    }
}

fn cmp_columns(op: CmpOp, a: &Column, b: &Column) -> Column {
    let rows = a.len();
    assert_eq!(rows, b.len());
    let test = |ord| op.test(ord);
    // Fast paths over raw slices for the hot type combinations.
    let vals: Vec<bool> = match (a.values(), b.values()) {
        (ColumnSlice::Int(x), ColumnSlice::Int(y)) => {
            x.iter().zip(y).map(|(l, r)| test(l.cmp(r))).collect()
        }
        (ColumnSlice::Float(x), ColumnSlice::Float(y)) => {
            x.iter().zip(y).map(|(l, r)| test(l.total_cmp(r))).collect()
        }
        (ColumnSlice::Date(x), ColumnSlice::Date(y)) => {
            x.iter().zip(y).map(|(l, r)| test(l.cmp(r))).collect()
        }
        (ColumnSlice::Int(x), ColumnSlice::Float(y)) => x
            .iter()
            .zip(y)
            .map(|(l, r)| test((*l as f64).total_cmp(r)))
            .collect(),
        (ColumnSlice::Float(x), ColumnSlice::Int(y)) => x
            .iter()
            .zip(y)
            .map(|(l, r)| test(l.total_cmp(&(*r as f64))))
            .collect(),
        // Against a constant (a broadcast literal is one entry): once per
        // entry of the other side.
        (ColumnSlice::Str(x), ColumnSlice::Str(y)) if y.dict().len() == 1 => {
            let cmp = StrTest::Cmp(op, y.get(0).into());
            test_rows(x, |s| cmp.test(s))
        }
        (ColumnSlice::Str(x), ColumnSlice::Str(y)) if x.dict().len() == 1 => {
            let cmp = StrTest::Cmp(op.flipped(), x.get(0).into());
            test_rows(y, |s| cmp.test(s))
        }
        (ColumnSlice::Str(x), ColumnSlice::Str(y)) => {
            (0..rows).map(|i| test(x.cmp_at(i, &y, i))).collect()
        }
        _ => (0..rows).map(|i| test(cmp_cell(a, i, b, i))).collect(),
    };
    match merged_validity(a, b) {
        None => Column::from_bools(vals),
        Some(m) => Column::with_validity(ColumnData::bools(vals), m),
    }
}

fn arith_columns(op: ArithOp, a: &Column, b: &Column) -> Column {
    let rows = a.len();
    assert_eq!(rows, b.len());
    let data = match (a.values(), b.values()) {
        // Integer arithmetic stays integral except division.
        (ColumnSlice::Int(x), ColumnSlice::Int(y)) => match op {
            ArithOp::Add => ColumnData::ints(x.iter().zip(y).map(|(l, r)| l + r).collect()),
            ArithOp::Sub => ColumnData::ints(x.iter().zip(y).map(|(l, r)| l - r).collect()),
            ArithOp::Mul => ColumnData::ints(x.iter().zip(y).map(|(l, r)| l * r).collect()),
            ArithOp::Div => ColumnData::floats(
                x.iter()
                    .zip(y)
                    .map(|(l, r)| *l as f64 / *r as f64)
                    .collect(),
            ),
        },
        // Date shifted by days.
        (ColumnSlice::Date(x), ColumnSlice::Int(y)) => match op {
            ArithOp::Add => {
                ColumnData::dates(x.iter().zip(y).map(|(l, r)| l + *r as i32).collect())
            }
            ArithOp::Sub => {
                ColumnData::dates(x.iter().zip(y).map(|(l, r)| l - *r as i32).collect())
            }
            _ => panic!("unsupported date arithmetic {op:?}"),
        },
        (ColumnSlice::Int(x), ColumnSlice::Date(y)) if op == ArithOp::Add => {
            ColumnData::dates(x.iter().zip(y).map(|(l, r)| *l as i32 + r).collect())
        }
        // Everything else promotes to float.
        _ => {
            let xf = to_f64(a);
            let yf = to_f64(b);
            let f = |l: f64, r: f64| match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => l / r,
            };
            ColumnData::floats(xf.iter().zip(yf.iter()).map(|(&l, &r)| f(l, r)).collect())
        }
    };
    match merged_validity(a, b) {
        None => Column::new(data),
        Some(m) => Column::with_validity(data, m),
    }
}

/// Borrow-or-promote a numeric column as `f64`s: float columns are
/// **borrowed** (no copy); int columns are converted once.
fn to_f64(c: &Column) -> Cow<'_, [f64]> {
    match c.values() {
        ColumnSlice::Int(v) => Cow::Owned(v.iter().map(|&x| x as f64).collect()),
        ColumnSlice::Float(v) => Cow::Borrowed(v),
        other => panic!("cannot coerce {} to float", other.data_type()),
    }
}

/// Kleene AND (`and = true`) / OR (`and = false`) over the operand columns.
fn kleene(parts: &[Expr], batch: &Batch, and: bool) -> Column {
    let rows = batch.physical_rows();
    let cols: Vec<Column> = parts.iter().map(|p| eval(p, batch)).collect();
    let mut vals = vec![and; rows]; // identity element
    let mut nulls = vec![false; rows];
    for c in &cols {
        let cv = c.as_bools();
        for i in 0..rows {
            let valid = c.is_valid(i);
            if and {
                if valid && !cv[i] {
                    vals[i] = false;
                    nulls[i] = false;
                } else if !valid && vals[i] {
                    nulls[i] = true;
                }
            } else if valid && cv[i] {
                vals[i] = true;
                nulls[i] = false;
            } else if !valid && !vals[i] {
                nulls[i] = true;
            }
        }
    }
    // In AND, a row that saw a `false` is decided regardless of NULLs; the
    // loop above already clears the null flag on decision. Symmetrically for
    // OR with `true`.
    if nulls.iter().any(|&n| n) {
        let validity: Vec<bool> = nulls.iter().map(|&n| !n).collect();
        Column::with_validity(ColumnData::bools(vals), validity)
    } else {
        Column::from_bools(vals)
    }
}

fn eval_case(branches: &[(Expr, Expr)], otherwise: &Expr, batch: &Batch) -> Column {
    let rows = batch.physical_rows();
    // Branch conditions are read straight off their evaluated columns
    // (NULL collapses to "not taken"), no intermediate masks.
    let conds: Vec<Column> = branches
        .iter()
        .map(|(c, _)| {
            let col = eval(c, batch);
            assert_eq!(
                col.data_type(),
                DataType::Bool,
                "CASE condition must be boolean"
            );
            col
        })
        .collect();
    let cond_vals: Vec<&[bool]> = conds.iter().map(|c| c.as_bools()).collect();
    let vals: Vec<Column> = branches.iter().map(|(_, v)| eval(v, batch)).collect();
    let other = eval(otherwise, batch);
    let dtype = vals.first().map_or(other.data_type(), |c| c.data_type());
    let mut b = ColumnBuilder::new(dtype, rows);
    // `i` indexes three parallel column sets; a range loop is the clear
    // shape here.
    #[allow(clippy::needless_range_loop)]
    'rows: for i in 0..rows {
        for (k, cond) in conds.iter().enumerate() {
            if cond_vals[k][i] && cond.is_valid(i) {
                b.push(vals[k].get(i));
                continue 'rows;
            }
        }
        b.push(other.get(i));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_vector::types::date_from_ymd;

    /// The predicate's Bool column with NULL collapsed to `false`, read
    /// straight off [`eval`] — independent of the selection kernel.
    fn mask(expr: &Expr, batch: &Batch) -> Vec<bool> {
        let c = eval(expr, batch);
        let vals = c.as_bools();
        (0..vals.len()).map(|i| vals[i] && c.is_valid(i)).collect()
    }

    fn batch() -> Batch {
        Batch::new(vec![
            Column::from_ints(vec![1, 2, 3, 4]),
            Column::from_floats(vec![0.5, 1.5, 2.5, 3.5]),
            Column::from_dates(vec![
                date_from_ymd(1995, 1, 15),
                date_from_ymd(1995, 6, 1),
                date_from_ymd(1996, 2, 2),
                date_from_ymd(1997, 12, 31),
            ]),
            Column::from_strs(["PROMO STEEL", "SMALL BRASS", "PROMO TIN", "ECO COPPER"]),
        ])
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        assert_eq!(eval(&Expr::col(0), &b).as_ints(), &[1, 2, 3, 4]);
        assert_eq!(eval(&Expr::lit(7), &b).as_ints(), &[7, 7, 7, 7]);
    }

    #[test]
    fn comparisons() {
        let b = batch();
        let e = Expr::col(0).le(Expr::lit(2));
        assert_eq!(mask(&e, &b), vec![true, true, false, false]);
        let e = Expr::col(1).gt(Expr::lit(1.5));
        assert_eq!(mask(&e, &b), vec![false, false, true, true]);
        // int vs float promotion
        let e = Expr::col(0).eq(Expr::lit(2.0));
        assert_eq!(mask(&e, &b), vec![false, true, false, false]);
    }

    #[test]
    fn arithmetic() {
        let b = batch();
        let e = Expr::col(0).mul(Expr::lit(10));
        assert_eq!(eval(&e, &b).as_ints(), &[10, 20, 30, 40]);
        let e = Expr::col(0).add(Expr::col(1));
        assert_eq!(eval(&e, &b).as_floats(), &[1.5, 3.5, 5.5, 7.5]);
        let e = Expr::col(0).div(Expr::lit(2));
        assert_eq!(eval(&e, &b).as_floats(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn date_arithmetic_and_extraction() {
        let b = batch();
        let e = Expr::col(2).add(Expr::lit(1));
        assert_eq!(eval(&e, &b).as_dates()[0], date_from_ymd(1995, 1, 16));
        let e = Expr::col(2).year();
        assert_eq!(eval(&e, &b).as_ints(), &[1995, 1995, 1996, 1997]);
        let e = Expr::col(2).month();
        assert_eq!(eval(&e, &b).as_ints(), &[1, 6, 2, 12]);
    }

    #[test]
    fn boolean_logic() {
        let b = batch();
        let e = Expr::col(0)
            .gt(Expr::lit(1))
            .and(Expr::col(0).lt(Expr::lit(4)));
        assert_eq!(mask(&e, &b), vec![false, true, true, false]);
        let e = Expr::col(0)
            .eq(Expr::lit(1))
            .or(Expr::col(0).eq(Expr::lit(4)));
        assert_eq!(mask(&e, &b), vec![true, false, false, true]);
        let e = Expr::col(0).gt(Expr::lit(2)).not();
        assert_eq!(mask(&e, &b), vec![true, true, false, false]);
    }

    #[test]
    fn like_and_substr() {
        let b = batch();
        let e = Expr::col(3).like("PROMO%");
        assert_eq!(mask(&e, &b), vec![true, false, true, false]);
        let e = Expr::col(3).not_like("%STEEL");
        assert_eq!(mask(&e, &b), vec![false, true, true, true]);
        let e = Expr::col(3).substr(1, 5);
        assert_eq!(
            eval(&e, &b).to_values(),
            vec![
                Value::str("PROMO"),
                Value::str("SMALL"),
                Value::str("PROMO"),
                Value::str("ECO C")
            ]
        );
    }

    #[test]
    fn substr_clamps_out_of_range() {
        let b = Batch::new(vec![Column::from_strs(["ab"])]);
        let e = Expr::col(0).substr(2, 10);
        assert_eq!(eval(&e, &b).to_values(), vec![Value::str("b")]);
        let e = Expr::col(0).substr(5, 2);
        assert_eq!(eval(&e, &b).to_values(), vec![Value::str("")]);
    }

    #[test]
    fn in_list() {
        let b = batch();
        let e = Expr::col(0).in_list([Value::Int(1), Value::Int(3)]);
        assert_eq!(mask(&e, &b), vec![true, false, true, false]);
        let e = Expr::col(3).not_in_list([Value::str("PROMO STEEL")]);
        assert_eq!(mask(&e, &b), vec![false, true, true, true]);
    }

    #[test]
    fn case_expression() {
        let b = batch();
        let e = Expr::case(
            vec![
                (Expr::col(0).le(Expr::lit(1)), Expr::lit(100)),
                (Expr::col(0).le(Expr::lit(3)), Expr::lit(200)),
            ],
            Expr::lit(0),
        );
        assert_eq!(eval(&e, &b).as_ints(), &[100, 200, 200, 0]);
    }

    #[test]
    fn null_propagation_in_cmp() {
        let mut cb = ColumnBuilder::new(DataType::Int, 3);
        cb.push(Value::Int(1));
        cb.push_null();
        cb.push(Value::Int(3));
        let b = Batch::new(vec![cb.finish()]);
        let e = Expr::col(0).gt(Expr::lit(0));
        let c = eval(&e, &b);
        assert_eq!(c.null_count(), 1);
        // NULL collapses to false at the predicate boundary.
        assert_eq!(mask(&e, &b), vec![true, false, true]);
    }

    #[test]
    fn kleene_and_with_null() {
        // NULL AND false = false; NULL AND true = NULL.
        let mut cb = ColumnBuilder::new(DataType::Int, 2);
        cb.push_null();
        cb.push_null();
        let b = Batch::new(vec![cb.finish(), Column::from_ints(vec![0, 1])]);
        let e = Expr::col(0)
            .gt(Expr::lit(0))
            .and(Expr::col(1).eq(Expr::lit(1)));
        let c = eval(&e, &b);
        assert!(c.is_valid(0), "NULL AND false is false, not NULL");
        assert_eq!(c.get(0), Value::Bool(false));
        assert!(!c.is_valid(1), "NULL AND true stays NULL");
    }

    #[test]
    fn kleene_or_with_null() {
        // NULL OR true = true; NULL OR false = NULL.
        let mut cb = ColumnBuilder::new(DataType::Int, 2);
        cb.push_null();
        cb.push_null();
        let b = Batch::new(vec![cb.finish(), Column::from_ints(vec![1, 0])]);
        let e = Expr::col(0)
            .gt(Expr::lit(0))
            .or(Expr::col(1).eq(Expr::lit(1)));
        let c = eval(&e, &b);
        assert_eq!(c.get(0), Value::Bool(true));
        assert!(!c.is_valid(1));
    }

    #[test]
    fn is_null_checks() {
        let mut cb = ColumnBuilder::new(DataType::Int, 2);
        cb.push_null();
        cb.push(Value::Int(1));
        let b = Batch::new(vec![cb.finish()]);
        assert_eq!(mask(&Expr::col(0).is_null(), &b), vec![true, false]);
        assert_eq!(mask(&Expr::col(0).is_not_null(), &b), vec![false, true]);
    }

    #[test]
    fn in_list_with_null_is_false() {
        let mut cb = ColumnBuilder::new(DataType::Int, 1);
        cb.push_null();
        let b = Batch::new(vec![cb.finish()]);
        let e = Expr::col(0).in_list([Value::Int(1)]);
        assert_eq!(mask(&e, &b), vec![false]);
    }
}

/// `IN` as it was evaluated before the typed loops: one `Value` per row
/// and a scan of the list with `Value` equality. The reference the typed
/// loops are checked against.
#[cfg(test)]
fn in_list_by_value(c: &Column, list: &[Value], negated: bool) -> Column {
    let vals = (0..c.len())
        .map(|i| {
            let v = c.get(i);
            !v.is_null() && (list.contains(&v) != negated)
        })
        .collect();
    rebuild_bool(vals, c)
}

#[cfg(test)]
mod in_list_tests {
    use super::*;

    /// One column per type, each with a NULL row, and candidate list
    /// elements: every type's own values, the other types' look-alikes
    /// (an `Int` 0 for a float zero, a `Float` 1.0 for an int 1) and NULL.
    fn columns() -> Vec<Column> {
        let nan = f64::NAN;
        let with_null = |dtype, vals: Vec<Value>| Column::from_values(dtype, &vals);
        vec![
            with_null(
                DataType::Bool,
                vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            ),
            with_null(
                DataType::Int,
                vec![Value::Int(1), Value::Null, Value::Int(0), Value::Int(-7)],
            ),
            with_null(
                DataType::Float,
                vec![
                    Value::Float(0.0),
                    Value::Float(-0.0),
                    Value::Null,
                    Value::Float(nan),
                    Value::Float(1.0),
                    Value::Float(2.5),
                ],
            ),
            with_null(
                DataType::Str,
                vec![
                    Value::str(""),
                    Value::str("a"),
                    Value::Null,
                    Value::str("ab"),
                ],
            ),
            with_null(
                DataType::Date,
                vec![Value::Date(0), Value::Null, Value::Date(9000)],
            ),
        ]
    }

    fn elements() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-7),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::str(""),
            Value::str("ab"),
            Value::Date(0),
            Value::Date(9000),
        ]
    }

    #[test]
    fn typed_loops_match_value_equality() {
        let elems = elements();
        // Every list of up to three elements: empty, single-typed and
        // mixed-type lists alike.
        let mut lists: Vec<Vec<Value>> = vec![vec![]];
        for a in 0..elems.len() {
            lists.push(vec![elems[a].clone()]);
            for b in a..elems.len() {
                lists.push(vec![elems[a].clone(), elems[b].clone()]);
                for c in (b..elems.len()).step_by(3) {
                    lists.push(vec![elems[a].clone(), elems[b].clone(), elems[c].clone()]);
                }
            }
        }
        for col in columns() {
            let batch = Batch::new(vec![col.clone()]);
            for list in &lists {
                for negated in [false, true] {
                    let e = Expr::InList {
                        expr: Box::new(Expr::col(0)),
                        list: list.clone(),
                        negated,
                    };
                    let got = eval(&e, &batch);
                    let want = in_list_by_value(&col, list, negated);
                    assert_eq!(
                        got,
                        want,
                        "{} IN {list:?} negated={negated}",
                        col.data_type()
                    );
                    // NULL rows are false and invalid, not just invalid.
                    for i in 0..col.len() {
                        if !col.is_valid(i) {
                            assert!(!got.as_bools()[i] && !got.is_valid(i));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn floats_match_by_canonical_bits_only() {
        let col = Column::from_floats(vec![-0.0, 0.0, 1.0]);
        let batch = Batch::new(vec![col]);
        let e = Expr::col(0).in_list([Value::Float(0.0)]);
        assert_eq!(eval(&e, &batch).as_bools(), &[true, true, false]);
        // An int element never matches a float cell of the same number.
        let e = Expr::col(0).in_list([Value::Int(1), Value::Int(0)]);
        assert_eq!(eval(&e, &batch).as_bools(), &[false, false, false]);
        let e = Expr::col(0).not_in_list([Value::Int(1)]);
        assert_eq!(eval(&e, &batch).as_bools(), &[true, true, true]);
    }
}
