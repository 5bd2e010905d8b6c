//! Proactive recycling strategies (paper §IV-B).
//!
//! These rewrites deliberately make a single query *more* expensive in order
//! to create a reusable intermediate with high recycling potential. The
//! paper evaluates them by manually rewriting the plans of TPC-H Q1, Q16
//! and Q19 ("since proactive rules are not implemented in the recycler, we
//! simulate their benefit by manually altering query plans"); we implement
//! the rewrites as real plan-to-plan transformations and the TPC-H layer
//! applies them to the same three queries in PA mode.
//!
//! * [`widen_top_n`] — run `topN(Q, N_wide)` instead of `topN(Q, n)`; the
//!   widened result subsumes any smaller top-N with the same ordering.
//! * [`cube_with_selections`] — pull a selection above an aggregation by
//!   extending the GROUP BY with the selection columns; the unselected
//!   "cube" is the shared, cacheable intermediate (Fig. 5 left).
//! * [`cube_with_binning`] — for range predicates over high-cardinality
//!   (date) columns: bin by year, answer the contained bins from the cube
//!   and the residual range directly, then union and re-aggregate (Fig. 5
//!   right).

use rdb_expr::{AggFunc, CmpOp, Expr};
use rdb_plan::Plan;
use rdb_vector::types::{date_from_ymd, year_of_date};
use rdb_vector::Value;

/// Re-aggregation of partial aggregates sitting at
/// `offset..offset+partials.len()` of the input (paper §IV-B: "standard
/// aggregate calculation decomposition rules"), or `None` when one does not
/// decompose (`count distinct`). `avg` is not among them: the rewrites run
/// on plans [`rdb_plan::lower_avg`] has already turned into `sum` and
/// `count`.
fn reaggregate(partials: &[AggFunc], offset: usize) -> Option<Vec<AggFunc>> {
    partials
        .iter()
        .enumerate()
        .map(|(i, p)| p.reaggregate(offset + i))
        .collect()
}

/// Top-N widening: rewrite `topN(Q, n)` into `topN(topN(Q, wide_n), n)`.
///
/// The inner, widened top-N is "practically as cheap" as the original
/// (§IV-B) yet subsumes every smaller top-N with the same ordering, so the
/// recycler can cache it once and answer all subsequent pagings from it.
/// Returns `None` when the root is not a top-N or is already wide enough.
pub fn widen_top_n(plan: &Plan, wide_n: usize) -> Option<Plan> {
    match plan {
        Plan::TopN { child, keys, n } if *n < wide_n => {
            let inner = Plan::TopN {
                child: child.clone(),
                keys: keys.clone(),
                n: wide_n,
            };
            Some(Plan::TopN {
                child: Box::new(inner),
                keys: keys.clone(),
                n: *n,
            })
        }
        _ => None,
    }
}

/// Cube caching with selections (Fig. 5 left): rewrite
/// `γ Fα (σ_p(R))` into `γ Fα'' ( σ_p' ( γ∪c Fα' (R) ) )`.
///
/// Applies when the root is an aggregation directly over a selection, the
/// predicate only references input columns (canonical `Col` refs), and all
/// aggregates are decomposable. The caller enforces the distinct-count
/// heuristic on the added grouping columns (paper: "apply the proactive
/// rule only if the number of distinct values ... is smaller than a
/// threshold").
pub fn cube_with_selections(plan: &Plan) -> Option<Plan> {
    let Plan::Aggregate {
        child,
        group_by,
        group_names,
        aggs,
        agg_names,
    } = plan
    else {
        return None;
    };
    let Plan::Select {
        child: base,
        predicate,
    } = child.as_ref()
    else {
        return None;
    };
    // The selection columns to add to the grouping.
    let mut pred_cols: Vec<usize> = Vec::new();
    predicate.columns_used(&mut pred_cols);
    if pred_cols.is_empty() {
        return None;
    }
    pred_cols.sort_unstable();

    // Special case (Q16's shape): every selection column is already a
    // grouping column. Selecting on group keys partitions the groups
    // exactly, so the selection can simply be pulled above the unselected
    // aggregate — no re-aggregation, which also makes non-decomposable
    // aggregates like `count(distinct ...)` eligible.
    if pred_cols
        .iter()
        .all(|&c| group_by.iter().any(|g| *g == Expr::col(c)))
    {
        let inner = Plan::Aggregate {
            child: base.clone(),
            group_by: group_by.clone(),
            group_names: group_names.clone(),
            aggs: aggs.clone(),
            agg_names: agg_names.clone(),
        };
        let mut remap: Vec<usize> = (0..base_arity_upper_bound(predicate, group_by)).collect();
        for &c in &pred_cols {
            let pos = group_by
                .iter()
                .position(|g| *g == Expr::col(c))
                .expect("checked above");
            if c >= remap.len() {
                remap.resize(c + 1, 0);
            }
            remap[c] = pos;
        }
        return Some(inner.select(predicate.remap_cols(&remap)));
    }

    // Inner cube: group by (γ ∪ c) over the *unselected* input.
    let mut inner_groups: Vec<(Expr, String)> = group_by
        .iter()
        .zip(group_names)
        .map(|(e, n)| (e.clone(), n.clone()))
        .collect();
    // Positions of each predicate column in the inner output; reuse an
    // existing group expression when the column is already grouped on.
    let mut pred_pos = Vec::with_capacity(pred_cols.len());
    for &c in &pred_cols {
        match inner_groups.iter().position(|(e, _)| *e == Expr::col(c)) {
            Some(i) => pred_pos.push(i),
            None => {
                inner_groups.push((Expr::col(c), format!("selcol_{c}")));
                pred_pos.push(inner_groups.len() - 1);
            }
        }
    }
    let outer_aggs = reaggregate(aggs, inner_groups.len())?;
    let inner = Plan::Aggregate {
        child: base.clone(),
        group_by: inner_groups.iter().map(|(e, _)| e.clone()).collect(),
        group_names: inner_groups.iter().map(|(_, n)| n.clone()).collect(),
        aggs: aggs.clone(),
        agg_names: (0..aggs.len()).map(|i| format!("p{i}")).collect(),
    };
    // Pull the selection above the cube: remap predicate columns to their
    // inner-output positions.
    let mut remap: Vec<usize> = (0..base_arity_upper_bound(predicate, group_by)).collect();
    for (k, &c) in pred_cols.iter().enumerate() {
        if c >= remap.len() {
            remap.resize(c + 1, 0);
        }
        remap[c] = pred_pos[k];
    }
    let lifted_pred = predicate.remap_cols(&remap);
    let selected = inner.select(lifted_pred);
    // Outer re-aggregation back to γ.
    Some(Plan::Aggregate {
        child: Box::new(selected),
        group_by: (0..group_by.len()).map(Expr::col).collect(),
        group_names: group_names.clone(),
        aggs: outer_aggs,
        agg_names: agg_names.clone(),
    })
}

fn base_arity_upper_bound(predicate: &Expr, group_by: &[Expr]) -> usize {
    let mut cols = Vec::new();
    predicate.columns_used(&mut cols);
    for g in group_by {
        g.columns_used(&mut cols);
    }
    cols.into_iter().max().map_or(0, |m| m + 1)
}

/// Cube caching with binning (Fig. 5 right): rewrite
/// `γ Fα (σ_{d ≤ D}(R))` into
/// `γ Fα'' ( (σ_{year(d) < year(D)} cube) ∪ (γ Fα' σ_{jan1(D) ≤ d ≤ D}(R)) )`
/// where `cube = γ∪year(d) Fα'(R)`.
///
/// Applies when the root is an aggregation over a selection whose predicate
/// is a single upper bound on a date column. The year-binned cube is the
/// shared intermediate.
pub fn cube_with_binning(plan: &Plan) -> Option<Plan> {
    let Plan::Aggregate {
        child,
        group_by,
        group_names,
        aggs,
        agg_names,
    } = plan
    else {
        return None;
    };
    let Plan::Select {
        child: base,
        predicate,
    } = child.as_ref()
    else {
        return None;
    };
    // Match `Col(c) <= Date(D)`.
    let (col, bound) = match predicate {
        Expr::Cmp(CmpOp::Le, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(Value::Date(d))) => (*c, *d),
            _ => return None,
        },
        _ => return None,
    };
    let g = group_by.len();
    let (left_aggs, outer_aggs) = (reaggregate(aggs, g + 1)?, reaggregate(aggs, g)?);
    let bound_year = year_of_date(bound);
    let year_start = date_from_ymd(bound_year, 1, 1);
    let partial_names: Vec<String> = (0..aggs.len()).map(|i| format!("p{i}")).collect();

    // Shared intermediate: the year cube over the unselected input.
    let mut cube_groups = group_by.clone();
    let mut cube_group_names = group_names.clone();
    cube_groups.push(Expr::col(col).year());
    cube_group_names.push(format!("year_{col}"));
    let cube = Plan::Aggregate {
        child: base.clone(),
        group_by: cube_groups,
        group_names: cube_group_names,
        aggs: aggs.clone(),
        agg_names: partial_names.clone(),
    };
    // Left branch: contained bins, re-aggregated down to γ so the two
    // union branches have identical schemas.
    let left = Plan::Aggregate {
        child: Box::new(cube.select(Expr::col(g).lt(Expr::lit(bound_year as i64)))),
        group_by: (0..g).map(Expr::col).collect(),
        group_names: group_names.clone(),
        aggs: left_aggs,
        agg_names: partial_names.clone(),
    };
    // Right branch: the residual range, computed directly.
    let residual = Expr::col(col)
        .ge(Expr::lit(Value::Date(year_start)))
        .and(Expr::col(col).le(Expr::lit(Value::Date(bound))));
    let right = Plan::Aggregate {
        child: Box::new(base.as_ref().clone().select(residual)),
        group_by: group_by.clone(),
        group_names: group_names.clone(),
        aggs: aggs.clone(),
        agg_names: partial_names,
    };
    // Union and final re-aggregation.
    let unioned = Plan::UnionAll {
        children: vec![left, right],
    };
    Some(Plan::Aggregate {
        child: Box::new(unioned),
        group_by: (0..g).map(Expr::col).collect(),
        group_names: group_names.clone(),
        aggs: outer_aggs,
        agg_names: agg_names.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_exec::{build, run_to_batch, ExecContext};
    use rdb_plan::{scan, SortKeyExpr};
    use rdb_storage::{Catalog, TableBuilder};
    use rdb_vector::{Batch, DataType, Schema};
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([
            ("flag", DataType::Str),
            ("qty", DataType::Int),
            ("price", DataType::Float),
            ("ship", DataType::Date),
            ("mode", DataType::Str),
        ]);
        let mut b = TableBuilder::new("items", schema, 500);
        for i in 0..500i64 {
            b.push_row(vec![
                Value::str(if i % 3 == 0 { "A" } else { "B" }),
                Value::Int(i % 7),
                Value::Float((i % 13) as f64 * 1.5),
                Value::Date(date_from_ymd(
                    1993 + (i % 5) as i32,
                    1 + (i % 12) as u32,
                    10,
                )),
                Value::str(["AIR", "RAIL", "SHIP"][(i % 3) as usize]),
            ]);
        }
        cat.register(b.finish()).expect("register table");
        ExecContext::new(Arc::new(cat))
    }

    fn run(ctx: &ExecContext, plan: &Plan) -> Batch {
        let bound = plan.bind(&ctx.catalog).unwrap();
        let mut tree = build(&bound, ctx).unwrap();
        run_to_batch(tree.root.as_mut())
    }

    fn sorted_rows(b: &Batch) -> Vec<Vec<Value>> {
        let mut rows = b.to_rows();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    /// Compare float-bearing rows with tolerance.
    fn assert_rows_close(a: &Batch, b: &Batch) {
        let (ra, rb) = (sorted_rows(a), sorted_rows(b));
        assert_eq!(ra.len(), rb.len(), "row count mismatch");
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.len(), y.len());
            for (vx, vy) in x.iter().zip(y) {
                match (vx, vy) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        assert!((fx - fy).abs() < 1e-9, "{fx} vs {fy}")
                    }
                    (Value::Float(fx), Value::Int(iy)) | (Value::Int(iy), Value::Float(fx)) => {
                        assert!((fx - *iy as f64).abs() < 1e-9)
                    }
                    _ => assert_eq!(vx, vy),
                }
            }
        }
    }

    /// The paper's Fig. 5 (left) query shape: aggregate over a selection.
    fn q_select_agg() -> Plan {
        scan("items", &["flag", "qty", "price", "ship", "mode"])
            .select(Expr::name("mode").eq(Expr::lit("AIR")))
            .aggregate(
                vec![(Expr::name("flag"), "flag")],
                vec![
                    (AggFunc::Sum(Expr::name("qty")), "sum_qty"),
                    (AggFunc::CountStar, "n"),
                    (AggFunc::Min(Expr::name("price")), "min_price"),
                ],
            )
    }

    #[test]
    fn cube_with_selections_is_equivalent() {
        let ctx = ctx();
        let original = q_select_agg();
        let bound = original.bind(&ctx.catalog).unwrap();
        let rewritten = cube_with_selections(&bound).expect("pattern applies");
        assert_rows_close(&run(&ctx, &bound), &run(&ctx, &rewritten));
        // The rewrite contains the shared unselected cube.
        let txt = rewritten.to_string();
        assert!(!txt.contains("union"), "no union in plain cube");
        assert!(
            txt.matches("aggregate").count() >= 2,
            "inner + outer aggregate"
        );
    }

    #[test]
    fn cube_with_selections_group_key_predicate() {
        // Q16's shape: the selection references only grouping columns, so
        // the rewrite is a plain pull-up — valid even for count distinct.
        let ctx = ctx();
        let original = scan("items", &["flag", "qty", "mode"])
            .select(
                Expr::name("flag")
                    .eq(Expr::lit("A"))
                    .and(Expr::name("qty").in_list([Value::Int(1), Value::Int(2)])),
            )
            .aggregate(
                vec![(Expr::name("flag"), "flag"), (Expr::name("qty"), "qty")],
                vec![(AggFunc::CountDistinct(Expr::name("mode")), "modes")],
            );
        let bound = original.bind(&ctx.catalog).unwrap();
        let rewritten = cube_with_selections(&bound).expect("group-key predicate applies");
        // The rewrite is a selection over the unselected aggregate.
        assert!(matches!(&rewritten, Plan::Select { child, .. }
            if matches!(child.as_ref(), Plan::Aggregate { .. })));
        assert_rows_close(&run(&ctx, &bound), &run(&ctx, &rewritten));
    }

    #[test]
    fn cube_with_selections_rejects_non_matching() {
        let plain = scan("items", &["qty"]);
        assert!(cube_with_selections(&plain).is_none());
        // Count-distinct blocks decomposition.
        let cd = scan("items", &["qty", "mode"])
            .select(Expr::col(1).eq(Expr::lit("AIR")))
            .aggregate(vec![], vec![(AggFunc::CountDistinct(Expr::col(0)), "d")]);
        assert!(cube_with_selections(&cd).is_none());
    }

    #[test]
    fn cube_with_binning_is_equivalent() {
        let ctx = ctx();
        // Q1 shape: upper-bound date predicate under an aggregation.
        let d = date_from_ymd(1995, 3, 1);
        let original = scan("items", &["flag", "qty", "price", "ship"])
            .select(Expr::name("ship").le(Expr::lit(Value::Date(d))))
            .aggregate(
                vec![(Expr::name("flag"), "flag")],
                vec![
                    (AggFunc::Sum(Expr::name("qty")), "sum_qty"),
                    (AggFunc::Count(Expr::name("qty")), "count_qty"),
                    (AggFunc::CountStar, "n"),
                ],
            );
        let bound = original.bind(&ctx.catalog).unwrap();
        let rewritten = cube_with_binning(&bound).expect("pattern applies");
        assert!(rewritten.to_string().contains("union_all"));
        assert_rows_close(&run(&ctx, &bound), &run(&ctx, &rewritten));
    }

    #[test]
    fn cube_with_binning_boundary_years() {
        let ctx = ctx();
        // Bound inside the earliest data year: left branch is empty.
        let d = date_from_ymd(1993, 6, 15);
        let original = scan("items", &["flag", "qty", "ship"])
            .select(Expr::name("ship").le(Expr::lit(Value::Date(d))))
            .aggregate(
                vec![(Expr::name("flag"), "flag")],
                vec![(AggFunc::Sum(Expr::name("qty")), "s")],
            );
        let bound = original.bind(&ctx.catalog).unwrap();
        let rewritten = cube_with_binning(&bound).unwrap();
        assert_rows_close(&run(&ctx, &bound), &run(&ctx, &rewritten));
    }

    #[test]
    fn cube_with_binning_rejects_other_predicates() {
        let p = scan("items", &["flag", "qty", "ship"])
            .select(Expr::col(2).gt(Expr::lit(Value::Date(0))))
            .aggregate(vec![(Expr::col(0), "f")], vec![(AggFunc::CountStar, "n")]);
        assert!(cube_with_binning(&p).is_none());
    }

    #[test]
    fn widen_top_n_wraps_and_preserves_semantics() {
        let ctx = ctx();
        let original =
            scan("items", &["qty", "price"]).top_n(vec![SortKeyExpr::desc(Expr::name("price"))], 5);
        let bound = original.bind(&ctx.catalog).unwrap();
        let widened = widen_top_n(&bound, 100).unwrap();
        match &widened {
            Plan::TopN { child, n, .. } => {
                assert_eq!(*n, 5);
                assert!(matches!(child.as_ref(), Plan::TopN { n: 100, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let a = run(&ctx, &bound);
        let b = run(&ctx, &widened);
        assert_eq!(a.column(1).as_floats(), b.column(1).as_floats());
        // Already wide enough → no rewrite.
        assert!(widen_top_n(&bound, 5).is_none());
        assert!(widen_top_n(&bound, 3).is_none());
    }
}
