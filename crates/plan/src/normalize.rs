//! Plan normalization: the canonical form every plan passes through
//! before fingerprinting.
//!
//! The recycler matches work by plan structure (paper §III), so every
//! caller that assembles a [`Plan`] is a chance to miss the cache: `a AND
//! b` vs `b AND a`, a redundant identity projection, or a filter written
//! above a join instead of below it all fingerprint as distinct subplans
//! and recycle nothing. [`normalize`] is the single lowering point where
//! equivalent plans converge — the session layer runs it on *every*
//! prepared statement (SQL-text and builder-built alike), so textual and
//! structural variants of the same query land on the same recycler-graph
//! nodes.
//!
//! Rules (each exactly semantics-preserving, including NULL behaviour,
//! output schema, and output column names):
//!
//! * every operator's expressions are canonicalized with
//!   [`rdb_expr::normalize_expr`] (commutative AND/OR ordering, constant
//!   folding, comparison canonicalization);
//! * adjacent selections merge into one conjunction;
//! * a selection whose predicate folded to `TRUE` disappears;
//! * selections sink below joins: conjuncts that reference only one side
//!   move into that side (left side of any join; right side of inner
//!   joins), so `σ(A ⋈ B)` and `σ(A) ⋈ B` converge;
//! * equi-join key pairs sort deterministically (`a.x = b.y AND a.u =
//!   b.v` is a conjunction — pair order is irrelevant);
//! * identity projections (`π_{$0,…,$n-1}` preserving the input names)
//!   disappear, and stacked projections compose into one.
//!
//! Store/Cached wrappers never appear here: normalization runs before the
//! recycler rewrite. The pass is idempotent and runs each node to a local
//! fixpoint, so the result is stable under re-normalization.

use rdb_expr::{normalize_expr, Expr};
use rdb_storage::Catalog;

use crate::node::{JoinKind, Plan};

/// Upper bound on local rewrite iterations per node; rules strictly
/// shrink or reorder, so this is never reached in practice.
const MAX_LOCAL_PASSES: usize = 16;

/// Normalize a bound plan into canonical form (see the module docs).
///
/// `catalog` supplies schemas where a rule needs operator arity (join
/// splits, identity-projection checks); a plan whose schema cannot be
/// derived (unknown table, parameters in typed positions) skips those
/// rules rather than failing — normalization never errors.
pub fn normalize(plan: &Plan, catalog: &Catalog) -> Plan {
    normalize_owned(plan.clone(), catalog)
}

fn normalize_owned(mut plan: Plan, catalog: &Catalog) -> Plan {
    // Bottom-up: children first, each moved out and back.
    for c in plan.children_mut() {
        let child = std::mem::replace(c, Plan::UnionAll { children: vec![] });
        *c = normalize_owned(child, catalog);
    }
    normalize_local_exprs(&mut plan);
    for _ in 0..MAX_LOCAL_PASSES {
        match apply_local_rules(plan, catalog) {
            Ok(next) => plan = next,
            Err(unchanged) => return unchanged,
        }
    }
    plan
}

/// Canonicalize every expression held directly by this node.
fn normalize_local_exprs(plan: &mut Plan) {
    let _ = plan.try_for_each_slot_mut(&mut |e, _| {
        *e = normalize_expr(e);
        Ok::<_, ()>(())
    });
    // An equi-join is a conjunction of per-pair equalities, so the pair
    // order is semantically irrelevant; sort pairs for a canonical order
    // (the executor keys on pair positions, so the two sides must be
    // permuted together).
    if let Plan::Join {
        left_keys,
        right_keys,
        ..
    } = plan
    {
        let mut pairs: Vec<(Expr, Expr)> = std::mem::take(left_keys)
            .into_iter()
            .zip(std::mem::take(right_keys))
            .collect();
        pairs.sort_by_cached_key(|(l, r)| (l.to_string(), r.to_string()));
        (*left_keys, *right_keys) = pairs.into_iter().unzip();
    }
}

/// One round of structural rewrites at this node: `Ok` with the rewritten
/// node when a rule fired, `Err` with the node unchanged otherwise.
fn apply_local_rules(plan: Plan, catalog: &Catalog) -> Result<Plan, Plan> {
    match plan {
        // σ_TRUE(x) → x.
        Plan::Select { child, predicate } if predicate == Expr::lit(true) => Ok(*child),
        Plan::Select { child, predicate } => match *child {
            // σ_p(σ_q(x)) → σ_{p ∧ q}(x).
            Plan::Select {
                child: inner,
                predicate: q,
            } => Ok(Plan::Select {
                child: inner,
                predicate: normalize_expr(&predicate.and(q)),
            }),
            // σ over a join: sink single-sided conjuncts.
            join @ Plan::Join { .. } => push_below_join(predicate, join, catalog),
            child => Err(Plan::Select {
                child: Box::new(child),
                predicate,
            }),
        },
        Plan::Project {
            child,
            exprs,
            names,
        } => match *child {
            // π ∘ π composes.
            Plan::Project {
                child: inner_child,
                exprs: inner_exprs,
                ..
            } => Ok(Plan::Project {
                child: inner_child,
                exprs: exprs
                    .iter()
                    .map(|e| normalize_expr(&subst_cols(e, &inner_exprs)))
                    .collect(),
                names,
            }),
            // Identity projection (same positions, same names) vanishes.
            child if is_identity_projection(&child, &exprs, &names, catalog) => Ok(child),
            child => Err(Plan::Project {
                child: Box::new(child),
                exprs,
                names,
            }),
        },
        other => Err(other),
    }
}

/// Whether `π_{exprs as names}(child)` reproduces `child` exactly.
fn is_identity_projection(
    child: &Plan,
    exprs: &[Expr],
    names: &[String],
    catalog: &Catalog,
) -> bool {
    exprs.iter().enumerate().all(|(i, e)| *e == Expr::Col(i))
        && schema_of(child, catalog).is_ok_and(|s| {
            s.len() == exprs.len()
                && s.names() == names.iter().map(|s| s.as_str()).collect::<Vec<_>>()
        })
}

/// Schema derivation that cannot panic on parameterized templates: typed
/// positions containing parameters are reported as an error instead.
fn schema_of(plan: &Plan, catalog: &Catalog) -> Result<rdb_vector::Schema, ()> {
    if plan.param_in_typed_position().is_some() {
        return Err(());
    }
    plan.schema(catalog).map_err(|_| ())
}

/// Replace `Col(i)` with `exprs[i]` (projection composition).
fn subst_cols(e: &Expr, exprs: &[Expr]) -> Expr {
    match e {
        Expr::Col(i) => exprs[*i].clone(),
        _ => e.map_children(&mut |c| subst_cols(c, exprs)),
    }
}

/// Where a conjunct above a join can go.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Left,
    Right,
    Above,
}

/// Sink the conjuncts of `predicate` below `join` where safe:
///
/// * conjuncts reading only left columns move into the left input — valid
///   for inner, left-outer (they would reject the same left rows before
///   or after padding), semi, and anti joins;
/// * conjuncts reading only right columns move into the right input —
///   valid for inner joins only (for left-outer they must filter matches,
///   not input rows; for semi/anti the predicate cannot reference the
///   right side at all);
/// * everything else stays above the join.
///
/// `Err` returns `σ_predicate(join)` unchanged when nothing moves.
fn push_below_join(predicate: Expr, join: Plan, catalog: &Catalog) -> Result<Plan, Plan> {
    let Plan::Join {
        left,
        right,
        kind,
        left_keys,
        right_keys,
    } = join
    else {
        unreachable!("caller matched a join");
    };
    // The broadcast side of a single join must produce exactly one row;
    // filtering it could change that invariant's failure mode. Leave alone.
    let left_width = match kind {
        JoinKind::Single => None,
        _ => schema_of(&left, catalog).ok().map(|s| s.len()),
    };
    let conjuncts: &[Expr] = match &predicate {
        Expr::And(items) => items,
        other => std::slice::from_ref(other),
    };
    let sides: Vec<Side> = conjuncts
        .iter()
        .map(|c| {
            let Some(lw) = left_width else {
                return Side::Above;
            };
            let mut cols = Vec::new();
            c.columns_used(&mut cols);
            if cols.iter().all(|&i| i < lw) {
                Side::Left
            } else if cols.iter().all(|&i| i >= lw) && kind == JoinKind::Inner {
                Side::Right
            } else {
                Side::Above
            }
        })
        .collect();
    if sides.iter().all(|&s| s == Side::Above) {
        return Err(Plan::Select {
            child: Box::new(Plan::Join {
                left,
                right,
                kind,
                left_keys,
                right_keys,
            }),
            predicate,
        });
    }
    let lw = left_width.unwrap_or(0);
    let shift = if sides.contains(&Side::Right) {
        shift_map(lw, plan_width(&right, catalog))
    } else {
        Vec::new()
    };
    let conjuncts = match predicate {
        Expr::And(items) => items,
        other => vec![other],
    };
    let (mut to_left, mut to_right, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    for (c, side) in conjuncts.into_iter().zip(sides) {
        match side {
            Side::Left => to_left.push(c),
            Side::Right => to_right.push(c.remap_cols(&shift)),
            Side::Above => residual.push(c),
        }
    }
    let wrap = |child: Box<Plan>, mut preds: Vec<Expr>| -> Box<Plan> {
        if preds.is_empty() {
            return child;
        }
        // Merge into an existing selection rather than stacking a second
        // one — stacked selects would differ from the equivalent
        // single-select plan and break idempotency.
        let inner = match *child {
            Plan::Select {
                child: inner,
                predicate,
            } => {
                preds.push(predicate);
                inner
            }
            other => Box::new(other),
        };
        Box::new(Plan::Select {
            child: inner,
            predicate: normalize_expr(&Expr::and_all(preds)),
        })
    };
    let new_join = Plan::Join {
        left: wrap(left, to_left),
        right: wrap(right, to_right),
        kind,
        left_keys,
        right_keys,
    };
    if residual.is_empty() {
        Ok(new_join)
    } else {
        Ok(Plan::Select {
            child: Box::new(new_join),
            predicate: normalize_expr(&Expr::and_all(residual)),
        })
    }
}

/// Column remap translating join-output positions `lw..lw+rw` into
/// right-input positions `0..rw` (positions below `lw` are never used by
/// the conjuncts this is applied to).
fn shift_map(lw: usize, rw: usize) -> Vec<usize> {
    (0..lw + rw).map(|i| i.saturating_sub(lw)).collect()
}

fn plan_width(plan: &Plan, catalog: &Catalog) -> usize {
    schema_of(plan, catalog).map(|s| s.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::scan;
    use crate::fingerprint::structural_hash;
    use rdb_expr::AggFunc;
    use rdb_storage::TableBuilder;
    use rdb_vector::{DataType, Schema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Int),
        ]);
        let mut t = TableBuilder::new("t", schema, 1);
        t.push_row(vec![Value::Int(1), Value::Float(2.0), Value::Int(3)]);
        cat.register(t.finish()).unwrap();
        let schema = Schema::from_pairs([("x", DataType::Int), ("y", DataType::Str)]);
        let mut u = TableBuilder::new("u", schema, 1);
        u.push_row(vec![Value::Int(1), Value::str("s")]);
        cat.register(u.finish()).unwrap();
        cat
    }

    fn norm(p: Plan) -> Plan {
        let cat = catalog();
        let bound = p.bind(&cat).unwrap();
        normalize(&bound, &cat)
    }

    #[test]
    fn reordered_conjuncts_converge() {
        let p1 = scan("t", &["a", "b"]).select(
            Expr::name("a")
                .gt(Expr::lit(1))
                .and(Expr::name("b").lt(Expr::lit(2.0))),
        );
        let p2 = scan("t", &["a", "b"]).select(
            Expr::name("b")
                .lt(Expr::lit(2.0))
                .and(Expr::name("a").gt(Expr::lit(1))),
        );
        assert_eq!(norm(p1), norm(p2));
    }

    #[test]
    fn flipped_comparisons_converge() {
        let p1 = scan("t", &["a"]).select(Expr::lit(5).lt(Expr::name("a")));
        let p2 = scan("t", &["a"]).select(Expr::name("a").gt(Expr::lit(5)));
        assert_eq!(norm(p1.clone()), norm(p2.clone()));
        assert_eq!(structural_hash(&norm(p1)), structural_hash(&norm(p2)));
    }

    #[test]
    fn adjacent_selects_merge() {
        let stacked = scan("t", &["a", "b"])
            .select(Expr::name("a").gt(Expr::lit(1)))
            .select(Expr::name("b").lt(Expr::lit(2.0)));
        let single = scan("t", &["a", "b"]).select(
            Expr::name("a")
                .gt(Expr::lit(1))
                .and(Expr::name("b").lt(Expr::lit(2.0))),
        );
        assert_eq!(norm(stacked), norm(single));
    }

    #[test]
    fn true_select_vanishes() {
        let p = scan("t", &["a"]).select(Expr::lit(1).lt(Expr::lit(2)));
        assert_eq!(norm(p), scan("t", &["a"]));
    }

    #[test]
    fn select_sinks_below_inner_join() {
        // σ over join with single-sided conjuncts ≡ pre-filtered join.
        let above = scan("t", &["a", "b"])
            .inner_join(
                scan("u", &["x", "y"]),
                vec![Expr::name("a")],
                vec![Expr::name("x")],
            )
            .select(
                Expr::name("a")
                    .gt(Expr::lit(1))
                    .and(Expr::name("y").eq(Expr::lit(Value::str("s")))),
            );
        let below = scan("t", &["a", "b"])
            .select(Expr::name("a").gt(Expr::lit(1)))
            .inner_join(
                scan("u", &["x", "y"]).select(Expr::name("y").eq(Expr::lit(Value::str("s")))),
                vec![Expr::name("a")],
                vec![Expr::name("x")],
            );
        assert_eq!(norm(above), norm(below));
    }

    #[test]
    fn cross_side_conjunct_stays_above() {
        let p = scan("t", &["a"])
            .inner_join(
                scan("u", &["x"]),
                vec![Expr::name("a")],
                vec![Expr::name("x")],
            )
            .select(Expr::col(0).lt(Expr::col(1)));
        let n = norm(p);
        assert!(
            matches!(&n, Plan::Select { child, .. } if matches!(**child, Plan::Join { .. })),
            "cross-side predicate must stay above the join:\n{n}"
        );
    }

    #[test]
    fn left_outer_pushes_left_only() {
        let p = scan("t", &["a"])
            .join(
                scan("u", &["x", "y"]),
                JoinKind::LeftOuter,
                vec![Expr::name("a")],
                vec![Expr::name("x")],
            )
            .select(
                Expr::name("a")
                    .gt(Expr::lit(0))
                    .and(Expr::name("y").eq(Expr::lit(Value::str("s")))),
            );
        let n = norm(p);
        // The right-side conjunct must remain above the join.
        match &n {
            Plan::Select { child, predicate } => {
                assert!(matches!(**child, Plan::Join { .. }));
                assert!(predicate.to_string().contains('='), "{predicate}");
            }
            other => panic!("expected residual select, got:\n{other}"),
        }
    }

    #[test]
    fn identity_projection_vanishes() {
        let p =
            scan("t", &["a", "b"]).project(vec![(Expr::name("a"), "a"), (Expr::name("b"), "b")]);
        assert_eq!(norm(p), scan("t", &["a", "b"]));
        // Renaming projections survive (names are client-visible).
        let renamed =
            scan("t", &["a", "b"]).project(vec![(Expr::name("a"), "z"), (Expr::name("b"), "b")]);
        assert!(matches!(norm(renamed), Plan::Project { .. }));
    }

    #[test]
    fn stacked_projections_compose() {
        let stacked = scan("t", &["a", "b"])
            .project(vec![
                (Expr::name("a").add(Expr::name("a")), "s"),
                (Expr::name("b"), "b"),
            ])
            .project(vec![(Expr::col(0).add(Expr::col(0)), "d")]);
        let flat = scan("t", &["a", "b"]).project(vec![(
            Expr::name("a")
                .add(Expr::name("a"))
                .add(Expr::name("a").add(Expr::name("a"))),
            "d",
        )]);
        assert_eq!(norm(stacked), norm(flat));
    }

    #[test]
    fn join_key_pairs_sort_together() {
        let p1 = scan("t", &["a", "c"]).inner_join(
            scan("u", &["x"]),
            vec![Expr::name("a"), Expr::name("c")],
            vec![Expr::name("x"), Expr::name("x")],
        );
        let p2 = scan("t", &["a", "c"]).inner_join(
            scan("u", &["x"]),
            vec![Expr::name("c"), Expr::name("a")],
            vec![Expr::name("x"), Expr::name("x")],
        );
        assert_eq!(norm(p1), norm(p2));
    }

    #[test]
    fn pushdown_merges_into_existing_select() {
        // Regression: a conjunct pushed below the join must merge into the
        // child's existing selection, not stack a second Select — the two
        // spellings below are equivalent and must share one canonical form.
        let above = scan("t", &["a"])
            .select(Expr::name("a").lt(Expr::lit(5)))
            .inner_join(
                scan("u", &["x"]),
                vec![Expr::name("a")],
                vec![Expr::name("x")],
            )
            .select(Expr::col(0).gt(Expr::lit(1)));
        let below = scan("t", &["a"])
            .select(
                Expr::name("a")
                    .lt(Expr::lit(5))
                    .and(Expr::name("a").gt(Expr::lit(1))),
            )
            .inner_join(
                scan("u", &["x"]),
                vec![Expr::name("a")],
                vec![Expr::name("x")],
            );
        let cat = catalog();
        let na = normalize(&above.bind(&cat).unwrap(), &cat);
        let nb = normalize(&below.bind(&cat).unwrap(), &cat);
        assert_eq!(na, nb, "above:\n{na}\nbelow:\n{nb}");
        assert_eq!(structural_hash(&na), structural_hash(&nb));
        assert_eq!(normalize(&na, &cat), na, "must be idempotent");
    }

    #[test]
    fn normalization_is_idempotent() {
        let cat = catalog();
        let plans = [
            scan("t", &["a", "b"])
                .select(Expr::lit(3).lt(Expr::name("a")))
                .aggregate(
                    vec![(Expr::name("a"), "a")],
                    vec![(AggFunc::Sum(Expr::name("b")), "sb")],
                ),
            scan("t", &["a"])
                .inner_join(
                    scan("u", &["x"]),
                    vec![Expr::name("a")],
                    vec![Expr::name("x")],
                )
                .select(Expr::name("a").gt(Expr::lit(1)))
                .limit(3),
        ];
        for p in plans {
            let bound = p.bind(&cat).unwrap();
            let once = normalize(&bound, &cat);
            assert_eq!(normalize(&once, &cat), once, "not idempotent:\n{once}");
        }
    }

    #[test]
    fn templates_with_params_normalize() {
        let cat = catalog();
        let p = scan("t", &["a", "b"])
            .select(
                Expr::param("hi")
                    .gt(Expr::name("a"))
                    .and(Expr::name("b").lt(Expr::param("lo"))),
            )
            .bind(&cat)
            .unwrap();
        let n = normalize(&p, &cat);
        assert!(n.has_params());
        // Param comparison flipped into canonical column-left form.
        match &n {
            Plan::Select { predicate, .. } => {
                assert!(predicate.to_string().contains("($0 < :hi)"), "{predicate}");
            }
            other => panic!("unexpected {other}"),
        }
    }
}
