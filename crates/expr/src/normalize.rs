//! Expression canonicalization for recycler matching.
//!
//! The recycler matches subplans *structurally* (paper §III-A), so two
//! semantically identical predicates that differ only textually — `a AND b`
//! vs `b AND a`, `5 < x` vs `x > 5`, `1 + 1` vs `2` — fingerprint as
//! different subplans and recycle nothing. [`normalize_expr`] rewrites an
//! expression into a canonical form so that such variants converge:
//!
//! * **commutative ordering** — AND/OR operand lists are flattened,
//!   deduplicated, and sorted by a deterministic key;
//! * **constant folding** — arithmetic and comparisons over literals are
//!   evaluated (mirroring the engine's vectorized semantics exactly; cases
//!   where folding could change a result or a derived type are left alone);
//! * **comparison canonicalization** — a literal on the left moves right
//!   (`5 < x` → `x > 5`), and symmetric operators (`=`, `<>`) order their
//!   operands deterministically;
//! * **NOT pushdown** — `NOT (a < b)` → `a >= b`, `NOT (x IS NULL)` →
//!   `x IS NOT NULL`, double negation elimination. All rewrites are valid
//!   under Kleene three-valued logic (comparisons are NULL iff an operand
//!   is NULL, and flipping the operator preserves that).
//!
//! Every rewrite preserves semantics *including* NULL behaviour and the
//! derived output type; normalization is therefore safe to run on every
//! plan before fingerprinting, which is exactly what the session layer
//! does.

use rdb_vector::Value;

use crate::expr::{ArithOp, CmpOp, Expr};

/// Canonicalize an expression (see the module docs). Idempotent:
/// `normalize_expr(&normalize_expr(e)) == normalize_expr(e)`.
pub fn normalize_expr(e: &Expr) -> Expr {
    // Bottom-up: children first, then local rules.
    let e = e.map_children(&mut |c| normalize_expr(c));
    match e {
        Expr::Arith(op, a, b) => fold_arith(op, *a, *b),
        Expr::Cmp(op, a, b) => fold_cmp(op, *a, *b),
        Expr::And(items) => rebuild_junction(items, true),
        Expr::Or(items) => rebuild_junction(items, false),
        Expr::Not(inner) => push_not(*inner),
        other => other,
    }
}

/// Kleene negation of a comparison operator (`NOT (a < b)` ≡ `a >= b`:
/// both are NULL exactly when an operand is NULL).
fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
    }
}

/// A deterministic total sort key. Structurally equal expressions render
/// identically, so dedup-after-sort is exact; distinct expressions that
/// happen to render alike merely tie (the sort is stable).
fn sort_key(e: &Expr) -> String {
    e.to_string()
}

fn fold_arith(op: ArithOp, a: Expr, b: Expr) -> Expr {
    if let (Expr::Lit(x), Expr::Lit(y)) = (&a, &b) {
        if let Some(v) = const_arith(op, x, y) {
            return Expr::Lit(v);
        }
    }
    Expr::Arith(op, Box::new(a), Box::new(b))
}

/// Evaluate `x op y` over literals, mirroring `rdb_expr::eval`'s
/// column-at-a-time semantics. Returns `None` where folding is unsafe:
/// integer overflow, division (int/int division changes the derived
/// type, and division by zero changes NULL/∞ behaviour), or type
/// combinations the executor would reject.
fn const_arith(op: ArithOp, x: &Value, y: &Value) -> Option<Value> {
    use Value::*;
    if x.is_null() || y.is_null() {
        return Some(Null);
    }
    Some(match (x, y, op) {
        // Integer arithmetic stays integral (checked: never fold UB).
        (Int(l), Int(r), ArithOp::Add) => Int(l.checked_add(*r)?),
        (Int(l), Int(r), ArithOp::Sub) => Int(l.checked_sub(*r)?),
        (Int(l), Int(r), ArithOp::Mul) => Int(l.checked_mul(*r)?),
        (Int(_), Int(_), ArithOp::Div) => return None,
        // Date shifted by days.
        (Date(l), Int(r), ArithOp::Add) => Date(l + *r as i32),
        (Date(l), Int(r), ArithOp::Sub) => Date(l - *r as i32),
        (Int(l), Date(r), ArithOp::Add) => Date(*l as i32 + r),
        // Float-promoting combinations.
        (Int(_) | Float(_), Int(_) | Float(_), _) => {
            let (l, r) = (x.as_float()?, y.as_float()?);
            if op == ArithOp::Div && r == 0.0 {
                return None;
            }
            Float(match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => l / r,
            })
        }
        _ => return None,
    })
}

/// Whether an expression is a constant at execution time: a literal, or a
/// parameter placeholder (substituted with a literal before execution).
fn is_const(e: &Expr) -> bool {
    matches!(e, Expr::Lit(_) | Expr::Param(_))
}

fn fold_cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
    if let (Expr::Lit(x), Expr::Lit(y)) = (&a, &b) {
        if let Some(v) = const_cmp(op, x, y) {
            return Expr::Lit(v);
        }
    }
    // Constant on the left moves right: `5 < x` → `x > 5` (parameters
    // count as constants — `$hi > x` and `x < $hi` must converge).
    if is_const(&a) && !is_const(&b) {
        return Expr::Cmp(op.flipped(), Box::new(b), Box::new(a));
    }
    // Symmetric operators order their operands deterministically.
    if matches!(op, CmpOp::Eq | CmpOp::Ne)
        && is_const(&a) == is_const(&b)
        && sort_key(&a) > sort_key(&b)
    {
        return Expr::Cmp(op, Box::new(b), Box::new(a));
    }
    Expr::Cmp(op, Box::new(a), Box::new(b))
}

/// Evaluate `x op y` over literals with the executor's comparison
/// semantics (ints exactly, floats by `total_cmp`, int/float promoted).
/// `None` for type combinations outside the executor's fast paths.
fn const_cmp(op: CmpOp, x: &Value, y: &Value) -> Option<Value> {
    use std::cmp::Ordering;
    if x.is_null() || y.is_null() {
        return Some(Value::Null);
    }
    let ord: Ordering = match (x, y) {
        (Value::Int(l), Value::Int(r)) => l.cmp(r),
        (Value::Date(l), Value::Date(r)) => l.cmp(r),
        (Value::Str(l), Value::Str(r)) => l.cmp(r),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            x.as_float()?.total_cmp(&y.as_float()?)
        }
        _ => return None,
    };
    let t = match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    };
    Some(Value::Bool(t))
}

/// Canonical AND/OR: flatten, drop neutral literals, absorb dominant
/// literals (`FALSE AND x` ≡ `FALSE` and `TRUE OR x` ≡ `TRUE` for every
/// `x` including NULL), dedup (idempotence holds in Kleene logic), sort.
fn rebuild_junction(items: Vec<Expr>, is_and: bool) -> Expr {
    let mut flat = Vec::with_capacity(items.len());
    for e in items {
        match e {
            Expr::And(inner) if is_and => flat.extend(inner),
            Expr::Or(inner) if !is_and => flat.extend(inner),
            other => flat.push(other),
        }
    }
    let neutral = is_and;
    let mut out: Vec<Expr> = Vec::with_capacity(flat.len());
    for e in flat {
        match e {
            Expr::Lit(Value::Bool(b)) if b == neutral => {} // drop neutral
            Expr::Lit(Value::Bool(b)) if b != neutral => {
                return Expr::Lit(Value::Bool(!neutral)); // dominant literal
            }
            other => out.push(other),
        }
    }
    out.sort_by_cached_key(sort_key);
    out.dedup();
    match out.len() {
        0 => Expr::Lit(Value::Bool(neutral)),
        1 => out.pop().unwrap(),
        _ => {
            if is_and {
                Expr::And(out)
            } else {
                Expr::Or(out)
            }
        }
    }
}

/// Push a NOT into its operand where the rewrite is exactly
/// NULL-preserving; otherwise keep the NOT node.
fn push_not(inner: Expr) -> Expr {
    match inner {
        Expr::Lit(Value::Bool(b)) => Expr::Lit(Value::Bool(!b)),
        Expr::Lit(Value::Null) => Expr::Lit(Value::Null),
        Expr::Not(e) => *e,
        // Comparisons are NULL iff an operand is NULL; the negated
        // operator has the same NULL set, so this is Kleene-exact.
        Expr::Cmp(op, a, b) => fold_cmp(negate(op), *a, *b),
        // IS [NOT] NULL is never NULL itself.
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr,
            negated: !negated,
        },
        other => Expr::Not(Box::new(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(e: Expr) -> Expr {
        normalize_expr(&e)
    }

    #[test]
    fn and_operands_sorted_and_deduped() {
        let a = Expr::col(0).gt(Expr::lit(5));
        let b = Expr::col(1).lt(Expr::lit(2.5));
        let ab = n(a.clone().and(b.clone()));
        let ba = n(b.clone().and(a.clone()));
        assert_eq!(ab, ba);
        let dup = n(Expr::and_all([a.clone(), b.clone(), a.clone()]));
        assert_eq!(dup, ab);
    }

    #[test]
    fn literal_moves_right() {
        // 5 < x  →  x > 5
        let e = n(Expr::lit(5).lt(Expr::col(0)));
        assert_eq!(e, Expr::col(0).gt(Expr::lit(5)));
        // x > 5 is already canonical.
        assert_eq!(
            n(Expr::col(0).gt(Expr::lit(5))),
            Expr::col(0).gt(Expr::lit(5))
        );
    }

    #[test]
    fn symmetric_ops_order_operands() {
        let e1 = n(Expr::col(1).eq(Expr::col(0)));
        let e2 = n(Expr::col(0).eq(Expr::col(1)));
        assert_eq!(e1, e2);
        // Lit stays on the right even though '5' sorts before '$0'.
        assert_eq!(
            n(Expr::col(0).eq(Expr::lit(5))),
            Expr::col(0).eq(Expr::lit(5))
        );
    }

    #[test]
    fn constants_fold() {
        assert_eq!(n(Expr::lit(2).add(Expr::lit(3))), Expr::lit(5));
        assert_eq!(n(Expr::lit(2.0).mul(Expr::lit(4.0))), Expr::lit(8.0));
        assert_eq!(n(Expr::lit(1).lt(Expr::lit(2))), Expr::lit(true));
        assert_eq!(
            n(Expr::lit(Value::Date(10)).add(Expr::lit(5))),
            Expr::lit(Value::Date(15))
        );
        // Int/int division would change the derived type: left alone.
        let d = Expr::lit(4).div(Expr::lit(2));
        assert_eq!(n(d.clone()), d);
        // Division by zero: left alone.
        let z = Expr::lit(4.0).div(Expr::lit(0.0));
        assert_eq!(n(z.clone()), z);
        // NULL propagates.
        assert_eq!(
            n(Expr::lit(Value::Null).add(Expr::lit(3))),
            Expr::lit(Value::Null)
        );
    }

    #[test]
    fn junction_absorption_kleene_safe() {
        let x = Expr::col(0).gt(Expr::lit(0));
        // FALSE AND x ≡ FALSE even when x is NULL.
        assert_eq!(n(Expr::lit(false).and(x.clone())), Expr::lit(false));
        // TRUE AND x ≡ x.
        assert_eq!(n(Expr::lit(true).and(x.clone())), n(x.clone()));
        // TRUE OR x ≡ TRUE.
        assert_eq!(n(Expr::lit(true).or(x.clone())), Expr::lit(true));
        // FALSE OR x ≡ x.
        assert_eq!(n(Expr::lit(false).or(x.clone())), n(x));
    }

    #[test]
    fn not_pushes_into_comparisons() {
        let e = n(Expr::col(0).lt(Expr::lit(5)).not());
        assert_eq!(e, Expr::col(0).ge(Expr::lit(5)));
        let e = n(Expr::col(0).is_null().not());
        assert_eq!(e, Expr::col(0).is_not_null());
        let e = n(Expr::col(0).lt(Expr::lit(5)).not().not());
        assert_eq!(e, Expr::col(0).lt(Expr::lit(5)));
        // LIKE under NOT is left alone (pattern semantics stay visible).
        let like = Expr::col(0).like("a%").not();
        assert_eq!(n(like.clone()), like);
    }

    #[test]
    fn idempotent() {
        let exprs = [
            Expr::lit(3)
                .lt(Expr::col(2))
                .and(Expr::col(1).eq(Expr::col(0))),
            Expr::lit(1).add(Expr::lit(2)).mul(Expr::col(0)),
            Expr::col(0).lt(Expr::lit(5)).not(),
            Expr::or_all([
                Expr::col(2).gt(Expr::lit(1)),
                Expr::col(0).lt(Expr::lit(3)),
                Expr::lit(false),
            ]),
        ];
        for e in exprs {
            let once = normalize_expr(&e);
            assert_eq!(normalize_expr(&once), once, "not idempotent: {e}");
        }
    }

    #[test]
    fn nested_and_or_canonical_across_variants() {
        // (a AND b) AND c  vs  c AND (b AND a)
        let a = Expr::col(0).gt(Expr::lit(1));
        let b = Expr::col(1).le(Expr::lit(2));
        let c = Expr::col(2).ne(Expr::lit(3));
        let v1 = n(a.clone().and(b.clone()).and(c.clone()));
        let v2 = n(c.and(b.and(a)));
        assert_eq!(v1, v2);
    }
}
