//! Seeded property tests of the selection kernels.
//!
//! The string test covers the per-entry string kernels: `=`, `<`, `LIKE`,
//! `IN` and `SUBSTR` over dictionary-coded columns, through [`eval`] (per
//! entry when the dictionary is no larger than the batch, per row
//! otherwise) and through a [`CompiledPredicate`] fed several batches over
//! one dictionary (verdicts memoized per entry), against a per-row
//! reference over `Option<String>`s. Windows over small and large
//! dictionaries, with NULLs.
//!
//! The numeric test covers the typed range and column-to-column kernels:
//! conjunctions of `col <op> literal` (either orientation, Int or Float
//! literals, `<>`, duplicated and contradictory bounds) and `col <op> col`
//! over Int, Float, Date and Bool columns with NULLs and extreme values
//! (i64 and i32 limits, ±2^53±1, ±0.0, NaN, ±∞), through
//! `select_into`, `select_physical_into`, `refine` and [`eval`], with and
//! without a batch selection, against a per-row `Value::cmp` reference.
//!
//! 300 cases each with optimizations, 30 without.

use rdb_expr::like::like_match;
use std::sync::Arc;

use rdb_expr::{eval, CmpOp, CompiledPredicate, Expr};
use rdb_vector::{Batch, Column, ColumnBuilder, DataType, Value};

/// SplitMix64: a small seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

const WORDS: [&str; 8] = ["", "a", "ab", "abc", "héllo", "日本語", "b", "PROMO x"];

/// String `k` of a domain built from [`WORDS`].
fn string(k: u64) -> String {
    let w = WORDS[(k % WORDS.len() as u64) as usize];
    match k / WORDS.len() as u64 {
        0 => w.to_string(),
        n => format!("{w}{n}"),
    }
}

/// One predicate or projection over column 0, and its per-row reference
/// (`None`: NULL).
enum Kernel {
    Pred(Expr, Box<dyn Fn(&str) -> bool>),
    Substr(usize, usize),
}

fn kernel(rng: &mut Rng) -> Kernel {
    let lit = string(rng.below(30));
    let l = lit.clone();
    match rng.below(7) {
        0 => Kernel::Pred(
            Expr::col(0).eq(Expr::lit(Value::str(&lit))),
            Box::new(move |s| s == l),
        ),
        1 => Kernel::Pred(
            Expr::col(0).lt(Expr::lit(Value::str(&lit))),
            Box::new(move |s| s < l.as_str()),
        ),
        2 => Kernel::Pred(
            Expr::lit(Value::str(&lit)).le(Expr::col(0)),
            Box::new(move |s| l.as_str() <= s),
        ),
        3 => {
            let pattern =
                ["%b%", "a_", "_", "%語", "h_llo%", "%", "PROMO%", "__"][rng.below(8) as usize];
            let negated = rng.chance(30);
            let e = if negated {
                Expr::col(0).not_like(pattern)
            } else {
                Expr::col(0).like(pattern)
            };
            Kernel::Pred(e, Box::new(move |s| like_match(s, pattern) != negated))
        }
        4 => {
            let list: Vec<String> = (0..1 + rng.below(4))
                .map(|_| string(rng.below(30)))
                .collect();
            let negated = rng.chance(30);
            let values: Vec<Value> = list
                .iter()
                .map(Value::str)
                // A non-string element never matches a string cell.
                .chain([Value::Int(1)])
                .collect();
            let e = if negated {
                Expr::col(0).not_in_list(values)
            } else {
                Expr::col(0).in_list(values)
            };
            Kernel::Pred(e, Box::new(move |s| list.iter().any(|l| l == s) != negated))
        }
        _ => Kernel::Substr(rng.below(5) as usize, rng.below(4) as usize),
    }
}

/// Characters `start..start + len` (1-based), clamped.
fn substr_reference(s: &str, start: usize, len: usize) -> String {
    s.chars().skip(start.saturating_sub(1)).take(len).collect()
}

fn build(cells: &[Option<String>]) -> Column {
    let mut b = ColumnBuilder::new(DataType::Str, cells.len());
    for c in cells {
        match c {
            Some(s) => b.push_str(s),
            None => b.push_null(),
        }
    }
    b.finish()
}

#[test]
fn per_entry_kernels_match_per_row_reference() {
    let cases = if cfg!(debug_assertions) { 30 } else { 300 };
    for case in 0..cases {
        let mut rng = Rng(0x5717_0000 + case);
        let what = format!("case {case}");
        let domain = [3, 30, 5000][rng.below(3) as usize];
        let null_pct = [0, 10, 50][rng.below(3) as usize];
        let n = 1 + rng.below(2000) as usize;
        let cells: Vec<Option<String>> = (0..n)
            .map(|_| (!rng.chance(null_pct)).then(|| string(rng.below(domain))))
            .collect();
        let col = build(&cells);
        // Batches over windows of the one column: they share its
        // dictionary, which is larger than a small window.
        let mut windows = Vec::new();
        let mut at = 0;
        while at < n {
            let len = (1 + rng.below(300) as usize).min(n - at);
            windows.push((at, len));
            at += len;
        }
        match kernel(&mut rng) {
            Kernel::Pred(e, test) => {
                let mut compiled = CompiledPredicate::compile(&e);
                for &(off, len) in &windows {
                    let batch = Batch::new(vec![col.slice(off, len)]);
                    let want: Vec<bool> = cells[off..off + len]
                        .iter()
                        .map(|c| c.as_deref().is_some_and(&test))
                        .collect();
                    let got = eval(&e, &batch);
                    let got: Vec<bool> = (0..len)
                        .map(|i| got.is_valid(i) && got.as_bools()[i])
                        .collect();
                    assert_eq!(got, want, "{what}: eval {e:?} over [{off}, +{len})");
                    let mut sel = Vec::new();
                    compiled.select_into(&batch, &mut sel);
                    let want_sel: Vec<u32> =
                        (0..len as u32).filter(|&i| want[i as usize]).collect();
                    assert_eq!(sel, want_sel, "{what}: compiled {e:?} over [{off}, +{len})");
                }
            }
            Kernel::Substr(start, len) => {
                let e = Expr::col(0).substr(start.max(1), len);
                for &(off, wlen) in &windows {
                    let batch = Batch::new(vec![col.slice(off, wlen)]);
                    let got = eval(&e, &batch);
                    for (i, c) in cells[off..off + wlen].iter().enumerate() {
                        assert_eq!(got.is_valid(i), c.is_some(), "{what}: substr validity");
                        if let Some(s) = c {
                            assert_eq!(
                                got.as_strs().get(i),
                                substr_reference(s, start.max(1), len),
                                "{what}: substr({s:?}, {start}, {len})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Column types of the numeric test's batch: two columns of each, so that
/// `col <op> col` has a partner of its own type.
const NUMERIC: [DataType; 8] = [
    DataType::Int,
    DataType::Int,
    DataType::Float,
    DataType::Float,
    DataType::Date,
    DataType::Date,
    DataType::Bool,
    DataType::Bool,
];

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A value of `dtype`: mostly small, so that bounds cut through the
/// data, otherwise one of the domain's edge values.
fn numeric(rng: &mut Rng, dtype: DataType) -> Value {
    const P53: i64 = 1 << 53;
    let small = rng.below(41) as i64 - 20;
    let edge = rng.chance(30);
    match dtype {
        DataType::Int => Value::Int(if edge {
            [
                i64::MIN,
                i64::MIN + 1,
                i64::MAX,
                i64::MAX - 1,
                P53,
                P53 + 1,
                P53 - 1,
                -P53,
                -P53 - 1,
                -P53 + 1,
            ][rng.below(10) as usize]
        } else {
            small
        }),
        DataType::Float => Value::Float(if edge {
            [
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                P53 as f64,
                (P53 + 1) as f64,
                (P53 - 1) as f64,
                -(P53 as f64),
                (-P53 - 1) as f64,
                i64::MAX as f64,
                i64::MIN as f64,
                f64::MAX,
                f64::MIN_POSITIVE,
            ][rng.below(15) as usize]
        } else {
            small as f64 / 2.0
        }),
        DataType::Date => Value::Date(if edge {
            [i32::MIN, i32::MIN + 1, i32::MAX, i32::MAX - 1, 0][rng.below(5) as usize]
        } else {
            9000 + small as i32
        }),
        DataType::Bool => Value::Bool(rng.chance(50)),
        DataType::Str => unreachable!("the numeric test has no string column"),
    }
}

/// A literal a column of `dtype` compares with: Int and Float columns
/// take either numeric literal, Date and Bool their own.
fn literal(rng: &mut Rng, dtype: DataType) -> Value {
    match dtype {
        DataType::Int | DataType::Float if rng.chance(50) => numeric(rng, DataType::Int),
        DataType::Int | DataType::Float => numeric(rng, DataType::Float),
        other => numeric(rng, other),
    }
}

/// One side of a comparison.
#[derive(Clone)]
enum Side {
    Col(usize),
    Lit(Value),
}

impl Side {
    fn expr(&self) -> Expr {
        match self {
            Side::Col(i) => Expr::col(*i),
            Side::Lit(v) => Expr::lit(v.clone()),
        }
    }

    fn value<'a>(&'a self, row: &'a [Value]) -> &'a Value {
        match self {
            Side::Col(i) => &row[*i],
            Side::Lit(v) => v,
        }
    }
}

/// One conjunct `a <op> b`.
struct Cmp {
    op: CmpOp,
    a: Side,
    b: Side,
}

impl Cmp {
    fn expr(&self) -> Expr {
        Expr::Cmp(self.op, Box::new(self.a.expr()), Box::new(self.b.expr()))
    }

    /// The per-row reference: both sides non-NULL and `Value::cmp`
    /// passing the operator.
    fn passes(&self, row: &[Value]) -> bool {
        let (a, b) = (self.a.value(row), self.b.value(row));
        !a.is_null() && !b.is_null() && self.op.test(a.cmp(b))
    }
}

fn numeric_conjunct(rng: &mut Rng, earlier: &[Cmp]) -> Cmp {
    let op = OPS[rng.below(6) as usize];
    if rng.chance(15) {
        // `col <op> col`: mostly a partner of the column's own type,
        // sometimes Int against Float.
        let a = rng.below(8) as usize;
        let b = match NUMERIC[a] {
            DataType::Int | DataType::Float if rng.chance(25) => {
                (if a < 2 { 2 } else { 0 }) + rng.below(2) as usize
            }
            _ => a / 2 * 2 + rng.below(2) as usize,
        };
        return Cmp {
            op,
            a: Side::Col(a),
            b: Side::Col(b),
        };
    }
    let (col, op, lit) = match earlier.last() {
        // A bound repeated, or its contradiction.
        Some(Cmp {
            op: prev,
            a: Side::Col(col),
            b: Side::Lit(lit),
        }) if rng.chance(25) => {
            let op = if rng.chance(50) {
                *prev
            } else {
                prev.flipped()
            };
            (*col, op, lit.clone())
        }
        _ => {
            // Few columns, so that bounds on one column meet.
            let col = [0, 2, 4, 6, 1, 3][rng.below(6) as usize];
            (col, op, literal(rng, NUMERIC[col]))
        }
    };
    Cmp {
        op,
        a: Side::Col(col),
        b: Side::Lit(lit),
    }
}

/// Rows `0..n` each kept with probability `pct`%, in order.
fn subset(rng: &mut Rng, n: usize, pct: u64) -> Vec<u32> {
    (0..n as u32).filter(|_| rng.chance(pct)).collect()
}

#[test]
fn numeric_kernels_match_per_row_reference() {
    let cases = if cfg!(debug_assertions) { 30 } else { 300 };
    for case in 0..cases {
        let mut rng = Rng(0x4e75_0000 + case);
        let what = format!("case {case}");
        let n = 1 + rng.below(1500) as usize;
        let null_pct = [0, 10, 10][rng.below(3) as usize];
        let columns: Vec<Column> = NUMERIC
            .iter()
            .map(|&t| {
                let mut b = ColumnBuilder::new(t, n);
                for _ in 0..n {
                    match rng.chance(null_pct) {
                        true => b.push_null(),
                        false => b.push(numeric(&mut rng, t)),
                    }
                }
                b.finish()
            })
            .collect();
        let mut conjuncts = Vec::new();
        for _ in 0..1 + rng.below(5) {
            let c = numeric_conjunct(&mut rng, &conjuncts);
            conjuncts.push(c);
        }
        // Either orientation: `lit <op> col` written as `col <flipped> lit`.
        let exprs = conjuncts.iter().map(|c| match (&c.a, &c.b) {
            (Side::Col(_), Side::Lit(_)) if rng.chance(50) => Cmp {
                op: c.op.flipped(),
                a: c.b.clone(),
                b: c.a.clone(),
            }
            .expr(),
            _ => c.expr(),
        });
        let e = Expr::and_all(exprs.collect::<Vec<_>>());
        let passes = |row: &[Value]| conjuncts.iter().all(|c| c.passes(row));
        // One compiled predicate fed every window, as a scan feeds it.
        let mut compiled = CompiledPredicate::compile(&e);
        let mut at = 0;
        while at < n {
            let len = (1 + rng.below(400) as usize).min(n - at);
            let mut batch = Batch::new(columns.iter().map(|c| c.slice(at, len)).collect());
            let want: Vec<bool> = (0..len).map(|i| passes(&batch.physical_row(i))).collect();
            let picked = |rows: &[u32]| -> Vec<u32> {
                rows.iter().copied().filter(|&i| want[i as usize]).collect()
            };
            let got = eval(&e, &batch);
            let got: Vec<bool> = (0..len)
                .map(|i| got.is_valid(i) && got.as_bools()[i])
                .collect();
            assert_eq!(got, want, "{what}: eval {e:?} over [{at}, +{len})");
            let all: Vec<u32> = (0..len as u32).collect();
            let domain = if rng.chance(40) {
                let sel = subset(&mut rng, len, 60);
                batch = batch.with_selection(Arc::new(sel.clone()));
                sel
            } else {
                all.clone()
            };
            let mut out = vec![7];
            compiled.select_into(&batch, &mut out);
            assert_eq!(
                out,
                picked(&domain),
                "{what}: select_into {e:?} [{at}, +{len})"
            );
            compiled.select_physical_into(&batch, &mut out);
            assert_eq!(out, picked(&all), "{what}: select_physical_into {e:?}");
            let mut sel = subset(&mut rng, len, 50);
            let want_sel = picked(&sel);
            compiled.refine(&batch, &mut sel);
            assert_eq!(sel, want_sel, "{what}: refine {e:?} [{at}, +{len})");
            at += len;
        }
    }
}
