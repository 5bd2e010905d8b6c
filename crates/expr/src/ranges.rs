//! Conjunctive range analysis for tuple subsumption (paper §IV-A).
//!
//! A cached selection result `σ_q(R)` can answer a new selection `σ_p(R)`
//! when `p ⇒ q` (every row satisfying `p` also satisfies `q`); the new
//! result is then derived by evaluating `σ_p` over the cached rows instead
//! of over `R`. This module decides implication for the decidable fragment
//! that covers the workloads: conjunctions of single-column range and
//! equality/membership constraints.
//!
//! Anything outside the fragment (ORs, LIKE, CASE, multi-column terms)
//! makes [`analyze_conjunction`] return `None`, and subsumption falls back
//! to a conservative syntactic check.

use std::collections::BTreeMap;

use rdb_vector::Value;

use crate::expr::{CmpOp, Expr};

/// A per-column interval constraint with optional inclusive bounds and an
/// optional membership list (from `IN`/`=`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Interval {
    /// Lower bound and whether it is inclusive.
    pub lo: Option<(Value, bool)>,
    /// Upper bound and whether it is inclusive.
    pub hi: Option<(Value, bool)>,
    /// If set, the value must additionally be a member of this list.
    pub members: Option<Vec<Value>>,
}

impl Interval {
    /// The unconstrained interval.
    pub fn unconstrained() -> Interval {
        Interval::default()
    }

    /// Tighten with a lower bound.
    pub(crate) fn add_lo(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.lo {
            None => true,
            Some((cur, cur_inc)) => match v.cmp(cur) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *cur_inc && !inclusive,
                std::cmp::Ordering::Less => false,
            },
        };
        if replace {
            self.lo = Some((v, inclusive));
        }
    }

    /// Tighten with an upper bound.
    pub(crate) fn add_hi(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.hi {
            None => true,
            Some((cur, cur_inc)) => match v.cmp(cur) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *cur_inc && !inclusive,
                std::cmp::Ordering::Greater => false,
            },
        };
        if replace {
            self.hi = Some((v, inclusive));
        }
    }

    /// Tighten with a membership list (intersecting any existing one).
    fn add_members(&mut self, vs: Vec<Value>) {
        self.members = Some(match self.members.take() {
            None => vs,
            Some(old) => old.into_iter().filter(|v| vs.contains(v)).collect(),
        });
    }

    /// Whether every value satisfying `self` also satisfies `other`.
    pub fn implies(&self, other: &Interval) -> bool {
        // Lower bound of other must be no tighter than ours.
        let lo_ok = match (&other.lo, &self.lo) {
            (None, _) => true,
            (Some(_), None) => self.members_imply_lo(other),
            (Some((ov, oi)), Some((sv, si))) => match sv.cmp(ov) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *oi || !*si,
                std::cmp::Ordering::Less => self.members_imply_lo(other),
            },
        };
        let hi_ok = match (&other.hi, &self.hi) {
            (None, _) => true,
            (Some(_), None) => self.members_imply_hi(other),
            (Some((ov, oi)), Some((sv, si))) => match sv.cmp(ov) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *oi || !*si,
                std::cmp::Ordering::Greater => self.members_imply_hi(other),
            },
        };
        let members_ok = match (&other.members, &self.members) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(om), Some(sm)) => sm.iter().all(|v| om.contains(v)),
        };
        lo_ok && hi_ok && members_ok
    }

    fn members_imply_lo(&self, other: &Interval) -> bool {
        match (&self.members, &other.lo) {
            (Some(sm), Some((ov, oi))) => sm.iter().all(|v| match v.cmp(ov) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *oi,
                std::cmp::Ordering::Less => false,
            }),
            _ => false,
        }
    }

    fn members_imply_hi(&self, other: &Interval) -> bool {
        match (&self.members, &other.hi) {
            (Some(sm), Some((ov, oi))) => sm.iter().all(|v| match v.cmp(ov) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *oi,
                std::cmp::Ordering::Greater => false,
            }),
            _ => false,
        }
    }
}

/// The constraint target of one conjunct: a plain column or `year(column)`.
///
/// `year()` appears as a group/selection key in the binning rewrites, so the
/// analysis treats `year(col)` as a distinct constrained dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RangeKey {
    /// Constraint on column `i`.
    Col(usize),
    /// Constraint on `year(column i)`.
    YearOf(usize),
}

/// Extract per-column interval constraints from a conjunctive predicate.
///
/// Returns `None` if any conjunct is outside the decidable fragment. A
/// constant `true` yields an empty map (implied by everything).
pub fn analyze_conjunction(expr: &Expr) -> Option<BTreeMap<RangeKey, Interval>> {
    let mut out = BTreeMap::new();
    if collect(expr, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn collect(expr: &Expr, out: &mut BTreeMap<RangeKey, Interval>) -> bool {
    match expr {
        Expr::And(parts) => parts.iter().all(|p| collect(p, out)),
        Expr::Lit(Value::Bool(true)) => true,
        Expr::Cmp(op, a, b) => {
            // Accept `key op literal` and `literal op key`.
            if let (Some(key), Expr::Lit(v)) = (range_key(a), b.as_ref()) {
                apply_cmp(out.entry(key).or_default(), *op, v.clone());
                true
            } else if let (Expr::Lit(v), Some(key)) = (a.as_ref(), range_key(b)) {
                apply_cmp(out.entry(key).or_default(), op.flipped(), v.clone());
                true
            } else {
                false
            }
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            if let Some(key) = range_key(expr) {
                out.entry(key).or_default().add_members(list.clone());
                true
            } else {
                false
            }
        }
        _ => false,
    }
}

fn range_key(e: &Expr) -> Option<RangeKey> {
    match e {
        Expr::Col(i) => Some(RangeKey::Col(*i)),
        Expr::Year(inner) => match inner.as_ref() {
            Expr::Col(i) => Some(RangeKey::YearOf(*i)),
            _ => None,
        },
        _ => None,
    }
}

fn apply_cmp(iv: &mut Interval, op: CmpOp, v: Value) {
    match op {
        CmpOp::Eq => {
            iv.add_lo(v.clone(), true);
            iv.add_hi(v.clone(), true);
            iv.add_members(vec![v]);
        }
        CmpOp::Lt => iv.add_hi(v, false),
        CmpOp::Le => iv.add_hi(v, true),
        CmpOp::Gt => iv.add_lo(v, false),
        CmpOp::Ge => iv.add_lo(v, true),
        // `<>` does not constrain a range usefully; treat as unconstrained
        // (sound: it can only make the predicate *more* selective, and we
        // only ever use analysis results on the *implying* side after an
        // exact structural check fails — see `implies`).
        CmpOp::Ne => {}
    }
}

/// A predicate's per-key interval constraints, analysed once so that
/// implication between two analysed predicates is a comparison of
/// intervals, with no further walk over either expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranges(BTreeMap<RangeKey, Interval>);

impl Ranges {
    /// Analyse `expr`; `None` when it is outside the decidable fragment.
    /// `Ne` conjuncts are dropped by [`analyze_conjunction`]; dropping one
    /// from an implied predicate would be unsound, so a predicate
    /// containing `<>` is outside the fragment here.
    pub fn of(expr: &Expr) -> Option<Ranges> {
        if contains_ne(expr) {
            return None;
        }
        analyze_conjunction(expr).map(Ranges)
    }

    /// Whether every row satisfying `self`'s predicate satisfies
    /// `other`'s: each constraint in `other` must be implied by `self`'s
    /// constraint on that key.
    pub fn implies(&self, other: &Ranges) -> bool {
        other
            .0
            .iter()
            .all(|(key, oiv)| self.0.get(key).is_some_and(|siv| siv.implies(oiv)))
    }
}

/// Does predicate `p` imply predicate `q` (within the decidable fragment)?
///
/// Conservative: returns `false` when either predicate cannot be analyzed
/// (see [`Ranges::of`]).
pub fn implies(p: &Expr, q: &Expr) -> bool {
    match (Ranges::of(p), Ranges::of(q)) {
        (Some(rp), Some(rq)) => rp.implies(&rq),
        _ => false,
    }
}

fn contains_ne(e: &Expr) -> bool {
    if let Expr::Cmp(CmpOp::Ne, _, _) = e {
        return true;
    }
    e.children().iter().any(|c| contains_ne(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c0() -> Expr {
        Expr::col(0)
    }

    #[test]
    fn tighter_range_implies_looser() {
        let p = c0().ge(Expr::lit(5)).and(c0().le(Expr::lit(10)));
        let q = c0().ge(Expr::lit(0)).and(c0().le(Expr::lit(20)));
        assert!(implies(&p, &q));
        assert!(!implies(&q, &p));
    }

    #[test]
    fn equal_bounds_inclusivity() {
        let p = c0().gt(Expr::lit(5));
        let q = c0().ge(Expr::lit(5));
        assert!(implies(&p, &q), "x>5 implies x>=5");
        assert!(!implies(&q, &p), "x>=5 does not imply x>5");
        assert!(implies(&p, &p));
        assert!(implies(&q, &q));
    }

    #[test]
    fn equality_implies_range() {
        let p = c0().eq(Expr::lit(7));
        let q = c0().ge(Expr::lit(5)).and(c0().le(Expr::lit(10)));
        assert!(implies(&p, &q));
        assert!(!implies(&q, &p));
    }

    #[test]
    fn membership_subset() {
        let p = c0().in_list([Value::Int(1), Value::Int(2)]);
        let q = c0().in_list([Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(implies(&p, &q));
        assert!(!implies(&q, &p));
    }

    #[test]
    fn membership_implies_range() {
        let p = c0().in_list([Value::Int(3), Value::Int(4)]);
        let q = c0().ge(Expr::lit(1)).and(c0().le(Expr::lit(5)));
        assert!(implies(&p, &q));
    }

    #[test]
    fn unconstrained_is_implied() {
        let p = c0().eq(Expr::lit(1));
        let q = Expr::lit(true);
        assert!(implies(&p, &q), "anything implies TRUE");
        assert!(!implies(&q, &p));
    }

    #[test]
    fn different_columns_do_not_mix() {
        let p = c0().eq(Expr::lit(1));
        let q = Expr::col(1).eq(Expr::lit(1));
        assert!(!implies(&p, &q));
        // Constraining extra columns is fine on the implying side.
        let p2 = c0().eq(Expr::lit(1)).and(Expr::col(1).eq(Expr::lit(1)));
        assert!(implies(&p2, &q));
    }

    #[test]
    fn year_constraints() {
        let p = Expr::col(2).year().eq(Expr::lit(1995));
        let q = Expr::col(2).year().ge(Expr::lit(1994));
        assert!(implies(&p, &q));
        // year(col) and col are different keys.
        let r = Expr::col(2).ge(Expr::lit(1994));
        assert!(!implies(&p, &r));
    }

    #[test]
    fn non_analyzable_is_conservative() {
        let p = Expr::col(3).like("a%");
        let q = Expr::lit(true);
        // LIKE is outside the fragment; implies(p, TRUE) falls back to the
        // analyzable side: TRUE analyzes to empty map, so p must analyze too.
        assert!(!implies(&p, &q) || implies(&p, &q)); // just must not panic
        let r = c0().ge(Expr::lit(0));
        assert!(!implies(&p, &r));
    }

    #[test]
    fn ne_rejected_everywhere() {
        let p = c0().ne(Expr::lit(5)).and(c0().ge(Expr::lit(0)));
        let q = c0().ge(Expr::lit(0));
        // Sound would be true, but `<>` pushes us out of the fragment.
        assert!(!implies(&p, &q));
        assert!(!implies(&q, &p));
    }

    #[test]
    fn literal_on_left_side() {
        // `5 <= x` is `x >= 5`.
        let p = Expr::lit(5).le(c0());
        let q = c0().ge(Expr::lit(0));
        assert!(implies(&p, &q));
    }

    #[test]
    fn interval_implies_direct() {
        let mut a = Interval::unconstrained();
        a.add_lo(Value::Int(5), true);
        a.add_hi(Value::Int(6), true);
        let mut b = Interval::unconstrained();
        b.add_lo(Value::Int(5), true);
        assert!(a.implies(&b));
        assert!(!b.implies(&a));
        assert!(Interval::unconstrained().implies(&Interval::unconstrained()));
    }
}
