//! Incremental repair of cached results from DML deltas.
//!
//! Evicting every dependent cache entry on each write to a base table
//! loses, under a mixed read/write workload, exactly the entries that are
//! most expensive to rebuild. This crate turns eviction into a continuum
//! (following "Revisiting Reuse in Main Memory Database Systems"). The
//! delta is the storage commit itself, [`rdb_storage::Commit`] — the
//! value the write-ahead log records: the appended rows as one batch, a
//! delete's positions (whose values are gathered from the predecessor
//! snapshot only when a kernel reads them), or a wholesale replacement —
//! and each dependent entry is either **repaired in place** or evicted,
//! depending on a conservative classification of its plan.
//!
//! # Repairability rules
//!
//! Classification is per `(plan, changed table)` pair, computed once at
//! graph-insert time ([`classify`]):
//!
//! | class               | shape                                                | append                     | delete                          |
//! |---------------------|------------------------------------------------------|----------------------------|---------------------------------|
//! | `repairable-select` | Select/Project/probe-side-safe Join chain over the scan | run plan over delta, pushed as a tail chunk | evict (no row identity) |
//! | `repairable-agg`    | that chain under a root Aggregate, no count(distinct) | resume fold, fold delta   | count-gated retraction, else evict |
//! | `repairable-topn`   | that chain under a root TopN                         | stable merge with top-N of delta | evict                     |
//! | `evict-only`        | everything else                                      | evict                      | evict                           |
//!
//! A chain is *probe-side-safe* when the changed table's scan occurs exactly
//! once, every operator between it and the root is Select, Project, or a
//! Join whose changed-table side is the **probe** (left) input with kind
//! inner/semi/anti/single — those emit probe rows in probe order, so
//! appended base rows surface as appended output rows. A left-outer join is
//! evict-only even on the probe side: its NULL-padded rows are emitted at
//! each *batch* boundary, so its output order depends on the scan's batch
//! grid, which an append shifts. A join whose **build** side scans the
//! changed table is evict-only (the build must be rebuilt), as is any
//! Sort/Limit/UnionAll on the path or a non-root Aggregate.
//!
//! # The float-exactness carve-out
//!
//! Repaired entries must be **byte-identical** to recomputation at any
//! degree of parallelism. For aggregates this rules out merging
//! independently computed delta partials: `old + (d1 + d2)` is not
//! `((old + d1) + d2)` in floating point. Instead, append-repair *resumes*
//! the serial fold — the cached finished value of a float `sum` **is** the
//! exact intermediate state of the serial fold over the old rows, so
//! continuing that fold with the delta rows one by one reproduces
//! recomputation bit for bit. `sum`/`min`/`max`/`count` therefore stay
//! repairable (floats included); `count(distinct)` does not — its finished
//! value under-determines the accumulator (the value set) — and classifies
//! as evict-only. `avg` never gets here: [`rdb_plan::normalize()`] lowers
//! it to a repairable `sum` and `count` under a projection.
//!
//! Delete-repair of aggregates is gated harder: only pure counting
//! aggregates (`count(*)`/`count(expr)`, with `count(*)` present to detect
//! fully-retracted groups) can subtract deleted rows soundly. A `sum` can
//! not: the group `[5, NULL]` sums to 5, deleting the 5 must yield NULL,
//! but subtraction yields 0.
//!
//! # Delta evaluation
//!
//! Repair kernels evaluate the entry's own plan (or the aggregate's child)
//! over a *delta catalog*: the post-commit snapshot with the changed table
//! swapped for a table holding only the delta rows. Evaluation is serial
//! (DOP 1) — delta batches are tiny, and serial order is what the resume
//! fold and the top-N merge tie-breaks are defined against.
//!
//! # Cost
//!
//! A cached result is a chunk list (`rdb_storage::ChunkList`), the type
//! base-table snapshots use. A select-class repair pushes the delta's
//! output rows as a tail chunk ([`MaterializedResult::append`]): it costs
//! the delta plus amortized O(log `SEAL_ROWS`) tail merges, and the
//! repaired version shares every sealed chunk with the one it replaces, so
//! a four-row append to a 100k-row selection neither copies nor frees the
//! selection. Aggregate and top-N results are small; their kernels gather
//! the cached rows into one batch and rebuild a single chunk.

use std::sync::Arc;

use rdb_exec::{ExecContext, FnRegistry, MaterializedResult, ResumedAgg};
use rdb_expr::{eval, AggFunc};
use rdb_plan::{JoinKind, Plan};
use rdb_storage::{Catalog, CatalogSnapshot, Change, Commit, Table};
use rdb_vector::row::{cmp_cell, SortOrder};
use rdb_vector::{Batch, Column, Schema};

/// How a cached entry can react to a change of one of its base tables.
/// See the module docs for the full rules table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Repairability {
    /// Select/Project/probe-safe-Join chain: the delta's output rows are
    /// pushed as a tail chunk.
    Select,
    /// Root aggregate over such a chain with resumable aggregates.
    Agg,
    /// Root top-N over such a chain.
    TopN,
    /// Must be evicted on any change.
    EvictOnly,
}

impl Repairability {
    /// Label for explain/stats output.
    pub fn label(&self) -> &'static str {
        match self {
            Repairability::Select => "repairable-select",
            Repairability::Agg => "repairable-agg",
            Repairability::TopN => "repairable-topn",
            Repairability::EvictOnly => "evict-only",
        }
    }

    /// Whether any repair path exists at all.
    pub fn repairable(&self) -> bool {
        !matches!(self, Repairability::EvictOnly)
    }
}

/// Number of scans of `table` in the subtree.
fn scan_count(plan: &Plan, table: &str) -> usize {
    let own = matches!(plan, Plan::Scan { table: t, .. } if t == table) as usize;
    own + plan
        .children()
        .iter()
        .map(|c| scan_count(c, table))
        .sum::<usize>()
}

/// Whether rows appended to `table` surface as rows appended at the end of
/// this subtree's (serial, concatenated) output, with the pre-existing
/// output prefix unchanged. This is the invariant select-class repair
/// rests on.
fn streams_appends(plan: &Plan, table: &str) -> bool {
    match plan {
        Plan::Scan { table: t, .. } => t == table,
        Plan::Select { child, .. } | Plan::Project { child, .. } => streams_appends(child, table),
        Plan::Join {
            left, right, kind, ..
        } => {
            matches!(
                kind,
                JoinKind::Inner | JoinKind::Semi | JoinKind::Anti | JoinKind::Single
            ) && scan_count(right, table) == 0
                && streams_appends(left, table)
        }
        _ => false,
    }
}

/// Whether `aggs` qualify for count-gated delete retraction: all counting,
/// with a `count(*)` present to detect fully-retracted groups.
pub fn count_only(aggs: &[AggFunc]) -> bool {
    aggs.iter().any(|a| matches!(a, AggFunc::CountStar))
        && aggs
            .iter()
            .all(|a| matches!(a, AggFunc::CountStar | AggFunc::Count(_)))
}

/// Classify how the cached output of `plan` can be repaired when `table`
/// changes. Conservative and purely syntactic: anything not provably safe
/// is [`Repairability::EvictOnly`].
pub fn classify(plan: &Plan, table: &str) -> Repairability {
    if scan_count(plan, table) != 1 {
        return Repairability::EvictOnly;
    }
    match plan {
        Plan::Aggregate { child, aggs, .. } => {
            // Every accumulator but a distinct set can be recovered from
            // its finished value (the float-exactness carve-out above).
            let resumable = !aggs.iter().any(|a| matches!(a, AggFunc::CountDistinct(_)));
            if streams_appends(child, table) && resumable {
                Repairability::Agg
            } else {
                Repairability::EvictOnly
            }
        }
        Plan::TopN { child, .. } => {
            if streams_appends(child, table) {
                Repairability::TopN
            } else {
                Repairability::EvictOnly
            }
        }
        _ => {
            if streams_appends(plan, table) {
                Repairability::Select
            } else {
                Repairability::EvictOnly
            }
        }
    }
}

/// The node-level explain annotation: the best class across the plan's
/// base tables (a node is worth repairing if *some* write pattern repairs
/// it), or evict-only when every table change evicts it.
pub fn classify_node(plan: &Plan) -> Repairability {
    let mut best = Repairability::EvictOnly;
    for t in plan.base_tables() {
        let c = classify(plan, &t);
        if c.repairable() {
            best = c;
            break;
        }
    }
    best
}

/// The post-commit snapshot with the changed table swapped for a table
/// holding only `rows` (the delta). Plans evaluated over this catalog see
/// every other table at its pinned version and the changed table as just
/// its delta.
fn delta_catalog(snapshot: &CatalogSnapshot, delta: &Commit, rows: &Batch) -> Catalog {
    let mut cat = Catalog::new();
    for (name, _) in snapshot.epochs() {
        if name == delta.table {
            continue;
        }
        if let Some(t) = snapshot.get(&name) {
            cat.register(t.clone()).expect("snapshot names are unique");
        }
    }
    let columns: Vec<Column> = (0..delta.schema.len())
        .map(|i| rows.column(i).clone())
        .collect();
    cat.register(Arc::new(Table::new_at_epoch(
        delta.table.clone(),
        delta.schema.clone(),
        columns,
        delta.epoch,
    )))
    .expect("delta table name is free");
    cat
}

/// Evaluate a bound plan serially (DOP 1, no recycler) over `catalog`.
/// Returns `None` if the plan fails to build or to run — the caller
/// falls back to eviction rather than erroring the write path.
fn run_serial(plan: &Plan, catalog: Catalog, functions: &Arc<FnRegistry>) -> Option<Vec<Batch>> {
    let ctx = ExecContext::new(Arc::new(catalog)).with_functions(functions.clone());
    rdb_exec::build(plan, &ctx).ok()?.drain().ok()
}

/// Evaluate `plan` over the appended rows only: the appended output rows
/// for a select-class plan. `None` when the change is not an append or
/// the plan fails. Used both by repair and by live subscriptions.
pub fn eval_append(
    plan: &Plan,
    schema: &Schema,
    delta: &Commit,
    snapshot: &CatalogSnapshot,
    functions: &Arc<FnRegistry>,
) -> Option<Batch> {
    let Change::Append(rows) = &delta.change else {
        return None;
    };
    let batches = run_serial(plan, delta_catalog(snapshot, delta, rows), functions)?;
    Some(Batch::concat_or_empty(schema, &batches))
}

/// Re-evaluate `plan` in full at `snapshot` (serial). The subscription
/// fallback when a change cannot be expressed as an appended delta.
pub fn eval_full(
    plan: &Plan,
    schema: &Schema,
    snapshot: &CatalogSnapshot,
    functions: &Arc<FnRegistry>,
) -> Option<Batch> {
    let batches = run_serial(plan, snapshot.to_catalog(), functions)?;
    Some(Batch::concat_or_empty(schema, &batches))
}

/// Repair the cached output of `plan` for `delta`, or `None` when the
/// entry must be evicted instead. The returned result is byte-identical
/// to recomputing `plan` at the post-commit snapshot (see the module docs
/// for why, kernel by kernel).
pub fn repair(
    plan: &Plan,
    cached: &MaterializedResult,
    delta: &Commit,
    snapshot: &CatalogSnapshot,
    functions: &Arc<FnRegistry>,
) -> Option<MaterializedResult> {
    let schema = &cached.schema;
    match classify(plan, &delta.table) {
        Repairability::EvictOnly => None,
        // Deleted rows have no positional identity inside the cached
        // result (duplicate-valued rows are indistinguishable), so a
        // value-level anti-join cannot guarantee byte-identity: a delete
        // evicts (`eval_append` refuses it).
        Repairability::Select => {
            let tail = eval_append(plan, schema, delta, snapshot, functions)?;
            Some(cached.append(&[tail]))
        }
        Repairability::Agg => {
            let Plan::Aggregate {
                child,
                group_by,
                aggs,
                ..
            } = plan
            else {
                return None;
            };
            // Only count retraction reads a delete's values: it gathers
            // them by position from the predecessor snapshot.
            let (rows, appending) = match &delta.change {
                Change::Append(rows) => (rows.clone(), true),
                Change::Delete { .. } if count_only(aggs) => (delta.deleted_rows()?, false),
                _ => return None,
            };
            let cat = delta_catalog(snapshot, delta, &rows);
            let input_types: Vec<_> = child
                .schema(&cat)
                .ok()?
                .fields()
                .iter()
                .map(|f| f.dtype)
                .collect();
            let output_types: Vec<_> = schema.fields().iter().map(|f| f.dtype).collect();
            let delta_input = run_serial(child, cat, functions)?;
            let old = cached.to_batch();
            let out = if appending {
                let mut resumed = ResumedAgg::resume(
                    &old,
                    group_by.clone(),
                    aggs.clone(),
                    input_types,
                    output_types,
                )?;
                for b in &delta_input {
                    resumed.fold(b);
                }
                resumed.finish()
            } else {
                rdb_exec::retract_count_groups(
                    &old,
                    group_by.clone(),
                    aggs.clone(),
                    input_types,
                    output_types,
                    &delta_input,
                )?
            };
            Some(MaterializedResult::from_batches(schema.clone(), &out))
        }
        Repairability::TopN => {
            let Plan::TopN { keys, n, .. } = plan else {
                return None;
            };
            let delta_batch = eval_append(plan, schema, delta, snapshot, functions)?;
            let merged = merge_top_n(&cached.to_batch(), &delta_batch, keys, *n)?;
            Some(MaterializedResult::from_batches(schema.clone(), &[merged]))
        }
    }
}

/// Stable two-way merge of the cached top-N rows with the top-N of the
/// delta, keeping the first `n`. Old rows win key ties: in a full
/// recomputation every pre-existing row's scan position precedes every
/// appended row's, and the executor's top-N breaks ties by position. Both
/// inputs are already in ascending (key, position) order, so the merge
/// reproduces recomputation exactly.
fn merge_top_n(
    old: &Batch,
    delta: &Batch,
    keys: &[rdb_plan::SortKeyExpr],
    n: usize,
) -> Option<Batch> {
    let old_keys: Vec<Column> = keys.iter().map(|k| eval(&k.expr, old)).collect();
    let new_keys: Vec<Column> = keys.iter().map(|k| eval(&k.expr, delta)).collect();
    let orders: Vec<SortOrder> = keys.iter().map(|k| k.order).collect();
    let le_old = |i: usize, j: usize| -> bool {
        for ((a, b), ord) in old_keys.iter().zip(&new_keys).zip(&orders) {
            match ord.apply(cmp_cell(a, i, b, j)) {
                std::cmp::Ordering::Less => return true,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal => continue,
            }
        }
        true // tie: the old row's position is smaller
    };
    // Picks index `old ++ delta`: old row `i` is `i`, delta row `j` is
    // `old.rows() + j`.
    let mut picks: Vec<u32> = Vec::with_capacity(n.min(old.rows() + delta.rows()));
    let (mut i, mut j) = (0usize, 0usize);
    while picks.len() < n && (i < old.rows() || j < delta.rows()) {
        if j >= delta.rows() || (i < old.rows() && le_old(i, j)) {
            picks.push(i as u32);
            i += 1;
        } else {
            picks.push((old.rows() + j) as u32);
            j += 1;
        }
    }
    Some(Batch::concat(&[old.clone(), delta.clone()]).take(&picks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rdb_expr::Expr;
    use rdb_plan::builder::scan;
    use rdb_plan::SortKeyExpr;
    use rdb_storage::{TableBuilder, SEAL_ROWS};
    use rdb_vector::{DataType, Value};

    fn catalog_with(rows: &[(i64, f64)]) -> Catalog {
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, rows.len());
        for (k, v) in rows {
            b.push_row(vec![Value::Int(*k), Value::Float(*v)]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish()).unwrap();
        cat
    }

    fn bound(plan: Plan, cat: &Catalog) -> Plan {
        plan.bind(cat).unwrap()
    }

    #[test]
    fn classification_rules() {
        let cat = catalog_with(&[(1, 1.0)]);
        let sel = bound(
            scan("t", &["k", "v"]).select(Expr::name("k").gt(Expr::lit(0))),
            &cat,
        );
        assert_eq!(classify(&sel, "t"), Repairability::Select);

        let agg = bound(
            scan("t", &["k", "v"]).aggregate(
                vec![(Expr::name("k"), "k")],
                vec![(AggFunc::Sum(Expr::name("v")), "s")],
            ),
            &cat,
        );
        assert_eq!(classify(&agg, "t"), Repairability::Agg);

        // `avg` lowers to a repairable `sum` and `count` below a
        // projection.
        let avg = rdb_plan::lower_avg(bound(
            scan("t", &["k", "v"]).aggregate(vec![], vec![(AggFunc::Avg(Expr::name("v")), "a")]),
            &cat,
        ));
        let Plan::Project { child, .. } = &avg else {
            panic!("avg lowers under a projection:\n{avg}");
        };
        assert_eq!(classify(child, "t"), Repairability::Agg);
        let distinct = bound(
            scan("t", &["k", "v"])
                .aggregate(vec![], vec![(AggFunc::CountDistinct(Expr::name("v")), "d")]),
            &cat,
        );
        assert_eq!(classify(&distinct, "t"), Repairability::EvictOnly);

        let top = bound(
            scan("t", &["k", "v"]).top_n(vec![SortKeyExpr::asc(Expr::name("k"))], 3),
            &cat,
        );
        assert_eq!(classify(&top, "t"), Repairability::TopN);

        let sort = bound(
            scan("t", &["k", "v"]).sort(vec![SortKeyExpr::asc(Expr::name("k"))]),
            &cat,
        );
        assert_eq!(classify(&sort, "t"), Repairability::EvictOnly);
        assert_eq!(classify(&sel, "other"), Repairability::EvictOnly);
    }

    #[test]
    fn join_sides_classify_asymmetrically() {
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
        let mut b = TableBuilder::new("u", schema, 1);
        b.push_row(vec![Value::Int(1), Value::Float(0.5)]);
        let mut cat = catalog_with(&[(1, 1.0)]);
        cat.register(b.finish()).unwrap();
        let probe = bound(
            scan("t", &["k", "v"]).inner_join(
                scan("u", &["k"]),
                vec![Expr::name("k")],
                vec![Expr::name("k")],
            ),
            &cat,
        );
        assert_eq!(classify(&probe, "t"), Repairability::Select);
        assert_eq!(
            classify(&probe, "u"),
            Repairability::EvictOnly,
            "build side crossing evicts"
        );
        let outer = bound(
            scan("t", &["k", "v"]).join(
                scan("u", &["k"]),
                JoinKind::LeftOuter,
                vec![Expr::name("k")],
                vec![Expr::name("k")],
            ),
            &cat,
        );
        assert_eq!(
            classify(&outer, "t"),
            Repairability::EvictOnly,
            "left outer pads at batch boundaries"
        );
    }

    fn materialize(plan: &Plan, cat: &Catalog, schema: &Schema) -> MaterializedResult {
        let ctx = ExecContext::new(Arc::new(cat_clone(cat)));
        let mut tree = rdb_exec::build(plan, &ctx).unwrap();
        let batches = tree.drain().unwrap();
        MaterializedResult::from_batches(schema.clone(), &batches)
    }

    // Catalog is not Clone; rebuild over the same snapshots.
    fn cat_clone(cat: &Catalog) -> Catalog {
        cat.snapshot().to_catalog()
    }

    #[test]
    fn select_repair_matches_recompute() {
        let cat = catalog_with(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let plan = bound(
            scan("t", &["k", "v"]).select(Expr::name("k").gt(Expr::lit(1))),
            &cat,
        );
        let schema = plan.schema(&cat).unwrap();
        let cached = materialize(&plan, &cat, &schema);

        let new_rows = vec![
            vec![Value::Int(0), Value::Float(0.25)],
            vec![Value::Int(9), Value::Float(9.5)],
        ];
        let (delta, _) = cat.versioned("t").unwrap().append(&new_rows).unwrap();
        let delta = delta.unwrap();
        let snap = cat.snapshot();
        let fns = Arc::new(FnRegistry::new());
        let repaired = repair(&plan, &cached, &delta, &snap, &fns).expect("repairable");
        let recomputed = materialize(&plan, &snap.to_catalog(), &schema);
        assert_eq!(
            repaired.to_batch().to_rows(),
            recomputed.to_batch().to_rows()
        );
        assert_eq!(repaired.size_bytes(), recomputed.size_bytes());
    }

    #[test]
    fn agg_float_sum_repair_is_bit_exact() {
        // Values chosen so float addition order matters in low-order bits.
        let rows: Vec<(i64, f64)> = (0..50)
            .map(|i| (i % 3, 0.1 * (i as f64) + 1e-9 * ((i * 7 % 11) as f64)))
            .collect();
        let cat = catalog_with(&rows);
        let plan = bound(
            scan("t", &["k", "v"]).aggregate(
                vec![(Expr::name("k"), "k")],
                vec![
                    (AggFunc::Sum(Expr::name("v")), "s"),
                    (AggFunc::CountStar, "n"),
                    (AggFunc::Min(Expr::name("v")), "lo"),
                ],
            ),
            &cat,
        );
        let schema = plan.schema(&cat).unwrap();
        let cached = materialize(&plan, &cat, &schema);
        let new_rows: Vec<Vec<Value>> = (0..17)
            .map(|i| vec![Value::Int(i % 4), Value::Float(0.01 * i as f64 + 1e-10)])
            .collect();
        let (delta, _) = cat.versioned("t").unwrap().append(&new_rows).unwrap();
        let delta = delta.unwrap();
        let snap = cat.snapshot();
        let fns = Arc::new(FnRegistry::new());
        let repaired = repair(&plan, &cached, &delta, &snap, &fns).expect("repairable");
        let recomputed = materialize(&plan, &snap.to_catalog(), &schema);
        assert_eq!(
            repaired.to_batch().to_rows(),
            recomputed.to_batch().to_rows(),
            "resumed float fold must be bit-exact"
        );
    }

    #[test]
    fn count_delete_retraction_drops_empty_groups() {
        let cat = catalog_with(&[(1, 1.0), (1, 2.0), (2, 3.0)]);
        let plan = bound(
            scan("t", &["k", "v"]).aggregate(
                vec![(Expr::name("k"), "k")],
                vec![
                    (AggFunc::CountStar, "n"),
                    (AggFunc::Count(Expr::name("v")), "nv"),
                ],
            ),
            &cat,
        );
        let schema = plan.schema(&cat).unwrap();
        let cached = materialize(&plan, &cat, &schema);
        // Delete every k == 2 row.
        let vt = cat.versioned("t").unwrap();
        let (delta, _) = vt
            .delete_where(|t| t.column(0).as_ints().iter().map(|&k| k == 2).collect())
            .unwrap();
        let delta = delta.unwrap();
        assert_eq!(
            delta.deleted_rows().unwrap().to_rows(),
            [vec![Value::Int(2), Value::Float(3.0)]]
        );
        let snap = cat.snapshot();
        let fns = Arc::new(FnRegistry::new());
        let repaired = repair(&plan, &cached, &delta, &snap, &fns).expect("count-gated repair");
        let recomputed = materialize(&plan, &snap.to_catalog(), &schema);
        assert_eq!(
            repaired.to_batch().to_rows(),
            recomputed.to_batch().to_rows()
        );
        assert_eq!(repaired.rows(), 1, "k == 2 group fully retracted");
    }

    #[test]
    fn sum_delete_falls_back() {
        let cat = catalog_with(&[(1, 1.0)]);
        let plan = bound(
            scan("t", &["k", "v"]).aggregate(
                vec![(Expr::name("k"), "k")],
                vec![(AggFunc::Sum(Expr::name("v")), "s")],
            ),
            &cat,
        );
        let schema = plan.schema(&cat).unwrap();
        let cached = materialize(&plan, &cat, &schema);
        let (delta, _) = cat
            .versioned("t")
            .unwrap()
            .delete_where(|t| vec![true; t.rows()])
            .unwrap();
        let delta = delta.unwrap();
        let snap = cat.snapshot();
        let fns = Arc::new(FnRegistry::new());
        assert!(
            repair(&plan, &cached, &delta, &snap, &fns).is_none(),
            "sum cannot retract"
        );
    }

    #[test]
    fn top_n_merge_matches_recompute_with_ties() {
        let rows: Vec<(i64, f64)> = vec![(5, 0.5), (1, 0.1), (5, 0.55), (2, 0.2), (9, 0.9)];
        let cat = catalog_with(&rows);
        let plan = bound(
            scan("t", &["k", "v"]).top_n(vec![SortKeyExpr::asc(Expr::name("k"))], 4),
            &cat,
        );
        let schema = plan.schema(&cat).unwrap();
        let cached = materialize(&plan, &cat, &schema);
        // Delta rows include key ties with existing rows: old must win.
        let new_rows = vec![
            vec![Value::Int(5), Value::Float(0.51)],
            vec![Value::Int(0), Value::Float(0.0)],
            vec![Value::Int(2), Value::Float(0.21)],
        ];
        let (delta, _) = cat.versioned("t").unwrap().append(&new_rows).unwrap();
        let delta = delta.unwrap();
        let snap = cat.snapshot();
        let fns = Arc::new(FnRegistry::new());
        let repaired = repair(&plan, &cached, &delta, &snap, &fns).expect("repairable");
        let recomputed = materialize(&plan, &snap.to_catalog(), &schema);
        assert_eq!(
            repaired.to_batch().to_rows(),
            recomputed.to_batch().to_rows()
        );
    }

    #[test]
    fn empty_delta_output_still_patches() {
        let cat = catalog_with(&[(1, 1.0)]);
        let plan = bound(
            scan("t", &["k", "v"]).select(Expr::name("k").gt(Expr::lit(100))),
            &cat,
        );
        let schema = plan.schema(&cat).unwrap();
        let cached = materialize(&plan, &cat, &schema);
        let new_rows = vec![vec![Value::Int(2), Value::Float(2.0)]];
        let (delta, _) = cat.versioned("t").unwrap().append(&new_rows).unwrap();
        let delta = delta.unwrap();
        let snap = cat.snapshot();
        let fns = Arc::new(FnRegistry::new());
        let repaired = repair(&plan, &cached, &delta, &snap, &fns).expect("repairable");
        assert_eq!(repaired.rows(), 0, "no delta row passes the predicate");
    }

    // ---- append repair over shared chunk lists ----------------------------

    fn wide_schema() -> Schema {
        Schema::from_pairs([
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
        ])
    }

    /// One of 40 group strings, of lengths 1 to 9.
    fn group(n: u64) -> Value {
        Value::str(format!("{}{}", "s".repeat(n as usize % 7), n % 40))
    }

    /// Floats on a 1/8 grid, so top-N keys tie often.
    fn grid_float(n: u64) -> Value {
        Value::Float((n % 2000) as f64 / 8.0 - 125.0)
    }

    /// A base row: never a NULL key, so `k >= cut` keeps all but `cut`
    /// rows and the cached selection is past `SEAL_ROWS`.
    fn base_row(k: i64) -> Vec<Value> {
        let n = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        vec![
            Value::Int(k),
            if n.is_multiple_of(13) {
                Value::Null
            } else {
                group(n)
            },
            if n.is_multiple_of(11) {
                Value::Null
            } else {
                grid_float(n)
            },
        ]
    }

    /// An appended row: NULLs in every column, the key included.
    fn appended_row(rng: &mut SmallRng, k: i64) -> Vec<Value> {
        let mut maybe = |v: Value| if rng.gen_bool(0.1) { Value::Null } else { v };
        let n = k as u64 * 31 + 7;
        vec![maybe(Value::Int(k)), maybe(group(n)), maybe(grid_float(n))]
    }

    /// `plan` run from scratch over `cat`: its output stream, compacted.
    fn recompute(plan: &Plan, cat: Catalog) -> Vec<Batch> {
        let ctx = ExecContext::new(Arc::new(cat));
        let mut tree = rdb_exec::build(plan, &ctx).unwrap();
        tree.drain().unwrap().iter().map(Batch::compact).collect()
    }

    /// Rows `[offset, offset + len)` of a batch stream, as columns.
    fn window(stream: &[Batch], mut offset: usize, len: usize) -> Vec<Column> {
        let mut parts: Vec<Batch> = Vec::new();
        let mut left = len;
        for b in stream {
            if left == 0 {
                break;
            }
            if offset >= b.rows() {
                offset -= b.rows();
                continue;
            }
            let take = (b.rows() - offset).min(left);
            parts.push(b.slice(offset, take));
            (offset, left) = (0, left - take);
        }
        Batch::concat(&parts).into_columns()
    }

    /// Asserts that `repaired` is what recomputation produced — the same
    /// rows, cut into batches on the morsel grid of the row count — that
    /// it shares every sealed chunk of `prev`, that its chunk count stays
    /// within the chunk list's bound, and that its byte count is the sum
    /// over its chunks.
    ///
    /// With `trust_shared`, a batch lying wholly inside the leading chunks
    /// `repaired` shares with `prev` is not compared again: it is a window
    /// of the very same chunk at the same rows as in `prev`, which an
    /// earlier call checked.
    fn assert_repaired(
        what: &str,
        prev: &MaterializedResult,
        repaired: &MaterializedResult,
        recomputed: &[Batch],
        trust_shared: bool,
    ) {
        let (before, after) = (prev.chunks().chunks(), repaired.chunks().chunks());
        let shared_rows: usize = before
            .iter()
            .zip(after)
            .take_while(|(a, b)| trust_shared && Arc::ptr_eq(a, b))
            .map(|(a, _)| a.rows())
            .sum();
        let rows = repaired.rows();
        assert_eq!(
            rows,
            recomputed.iter().map(Batch::rows).sum::<usize>(),
            "{what}: rows"
        );
        let got = repaired.batches();
        assert_eq!(
            got.len(),
            rdb_vector::morsel_count(rows),
            "{what}: batch count"
        );
        for (i, g) in got.iter().enumerate() {
            let (offset, len) = rdb_vector::morsel_bounds(rows, i);
            assert_eq!(g.rows(), len, "{what}: batch {i} length");
            if offset + len <= shared_rows {
                continue;
            }
            assert!(
                g.columns() == window(recomputed, offset, len).as_slice(),
                "{what}: batch {i}"
            );
        }
        for (k, chunk) in before.iter().enumerate() {
            if chunk.rows() >= SEAL_ROWS {
                assert!(
                    Arc::ptr_eq(chunk, &after[k]),
                    "{what}: sealed chunk {k} copied"
                );
            }
        }
        let bound = rows / SEAL_ROWS + SEAL_ROWS.ilog2() as usize + 1;
        assert!(after.len() <= bound, "{what}: {} chunks", after.len());
        let scratch: usize = after
            .iter()
            .flat_map(|c| c.columns())
            .map(Column::size_bytes)
            .sum();
        assert_eq!(repaired.size_bytes(), scratch, "{what}: size_bytes");
    }

    /// Random append sequences, NULLs and strings included, against a
    /// selection, an aggregate and a top-N cached over a base past
    /// `SEAL_ROWS`: every repair equals recomputation at its snapshot and
    /// shares every sealed chunk of the version it replaces.
    #[test]
    fn append_repairs_share_sealed_chunks_and_equal_recompute() {
        // Optimized builds (CI runs this crate's tests with --release too)
        // afford ten times the cases.
        let cases: u64 = if cfg!(debug_assertions) { 30 } else { 300 };
        let base_rows = SEAL_ROWS as i64 + 300;
        let mut b = TableBuilder::new("t", wide_schema(), base_rows as usize);
        for k in 0..base_rows {
            b.push_row(base_row(k));
        }
        let base = b.finish();
        let fns = Arc::new(FnRegistry::new());
        for seed in 0..cases {
            let mut rng = SmallRng::seed_from_u64(0xDE17A ^ seed);
            let mut cat = Catalog::new();
            cat.register(base.clone()).unwrap();
            // The selection keeps the whole base; the aggregate and the
            // top-N read only its last rows and what is appended, so
            // recomputing them stays cheap.
            let chain =
                |cut: i64| scan("t", &["k", "s", "f"]).select(Expr::name("k").ge(Expr::lit(cut)));
            let late = base_rows - rng.gen_range(1..200);
            let plans = [
                ("select", chain(0)),
                (
                    "agg",
                    chain(late).aggregate(
                        vec![(Expr::name("s"), "s")],
                        vec![
                            (AggFunc::Sum(Expr::name("f")), "sf"),
                            (AggFunc::CountStar, "n"),
                            (AggFunc::Count(Expr::name("f")), "nf"),
                            (AggFunc::Min(Expr::name("k")), "lo"),
                            (AggFunc::Max(Expr::name("f")), "hi"),
                        ],
                    ),
                ),
                (
                    "top-n",
                    chain(late).top_n(
                        vec![
                            SortKeyExpr::desc(Expr::name("f")),
                            SortKeyExpr::asc(Expr::name("s")),
                        ],
                        rng.gen_range(1..60),
                    ),
                ),
            ];
            let plans: Vec<(&str, Plan, Schema)> = plans
                .into_iter()
                .map(|(what, plan)| {
                    let plan = bound(plan, &cat);
                    let schema = plan.schema(&cat).unwrap();
                    (what, plan, schema)
                })
                .collect();
            let mut cached: Vec<MaterializedResult> = plans
                .iter()
                .map(|(_, plan, schema)| materialize(plan, &cat, schema))
                .collect();
            assert!(cached[0].chunks().chunks()[0].rows() >= SEAL_ROWS);
            let mut next_key = base_rows;
            // 1 to 300 appends, most cases short: every step recomputes
            // three plans over the whole base, and about one case in
            // sixteen still runs past 150 appends.
            let u: f64 = rng.gen_range(0.0..1.0);
            let steps = 300f64.powf(u * u).round() as usize;
            for step in 0..steps {
                let n = match rng.gen_range(0..40) {
                    0 => rng.gen_range(64..1100),
                    1..=4 => rng.gen_range(9..64),
                    _ => rng.gen_range(1..=8),
                };
                let rows: Vec<Vec<Value>> = (next_key..next_key + n)
                    .map(|k| appended_row(&mut rng, k))
                    .collect();
                next_key += n;
                let (delta, _) = cat.versioned("t").unwrap().append(&rows).unwrap();
                let delta = delta.unwrap();
                let snap = cat.snapshot();
                for ((what, plan, _), prev) in plans.iter().zip(cached.iter_mut()) {
                    let what = format!("seed {seed} step {step} {what}");
                    let repaired = repair(plan, prev, &delta, &snap, &fns)
                        .unwrap_or_else(|| panic!("{what}: repair refused"));
                    let recomputed = recompute(plan, snap.to_catalog());
                    let trust_shared = step > 0 && step + 1 < steps;
                    assert_repaired(&what, prev, &repaired, &recomputed, trust_shared);
                    *prev = repaired;
                }
            }
        }
    }
}
