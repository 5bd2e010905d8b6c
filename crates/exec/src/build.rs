//! Plan-to-executor builder.
//!
//! Every span of pipelining nodes (`Select`, `Project`, join probes,
//! store tees) becomes one [`crate::fuse::FusedChain`] over its source — a
//! morsel dispenser when the span sits on a table scan or a cached result,
//! the built child operator otherwise; a bare scan or cached leaf is a
//! chain of no stages. With `ExecContext::parallelism > 1` the builder
//! additionally splits dispenser-rooted chains across a worker pool at the
//! natural consumer points — the plan root and the blocking breakers
//! (aggregate, top-N, sort) — and drives the same chain serially
//! everywhere else. Serial and parallel builds of the same plan produce
//! byte-identical output streams (see [`crate::parallel`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use rdb_expr::{AggFunc, Expr};
use rdb_plan::{Plan, PlanError, StoreMode};
use rdb_storage::Table;
use rdb_vector::{Batch, DataType, Schema};

use crate::agg::aggregate;
use crate::context::ExecContext;
use crate::error::{ExecError, FailSlot};
use crate::fuse::{build_stages, collect_chain, ChainSource, FusedPipelineExec};
use crate::join::{BuildPublish, BuildSide, SharedBuild};
use crate::metrics::{MetricsNode, OpMetrics};
use crate::op::{collect_all, Operator};
use crate::parallel::{build_source, BreakerInput, GatherExec, MorselDispenser};
use crate::scan::fn_scan;
use crate::sort::{sort, top_n, LimitExec, UnionAllExec};
use crate::store::StateCost;

/// A built executor: the root operator, the per-node metrics tree (parallel
/// to the plan), and the output schema.
pub struct ExecTree {
    /// Root operator; pull until `None`.
    pub root: Box<dyn Operator>,
    /// Metrics mirroring the plan shape (for recycler annotation).
    pub metrics: MetricsNode,
    /// Output schema.
    pub schema: Schema,
    /// Failure slot shared with the execution's pipeline drivers; consult
    /// after the stream ends to distinguish completion from a failed stage
    /// or worker.
    pub fail: Arc<FailSlot>,
}

impl ExecTree {
    /// Drain the root to completion. `Err` when the execution recorded a
    /// failure: the stream then ended short and its batches are dropped.
    pub fn drain(&mut self) -> Result<Vec<Batch>, ExecError> {
        let batches = collect_all(self.root.as_mut());
        match self.fail.get() {
            Some(e) => Err(e),
            None => Ok(batches),
        }
    }
}

/// Build a physical operator tree from a *bound* plan.
pub fn build(plan: &Plan, ctx: &ExecContext) -> Result<ExecTree, PlanError> {
    if plan.has_named() {
        return Err(PlanError::msg(
            "plan contains unresolved column names; call bind() first",
        ));
    }
    let schema = plan.schema(&ctx.catalog)?;
    // The stream edge is itself a pipeline consumer: a dispenser-rooted
    // chain with no breaker above it parallelizes here.
    let (root, metrics) = build_gathered(plan, ctx)?;
    Ok(ExecTree {
        root,
        metrics,
        schema,
        fail: ctx.fail.clone(),
    })
}

fn types_of(schema: &Schema) -> Vec<DataType> {
    schema.fields().iter().map(|f| f.dtype).collect()
}

/// Construct the shared build side for a hash join from its build input
/// as the recycler rewrote it: a `Cached` input leasing a build side is
/// adopted as-is (nothing below it runs), a build target
/// ([`StoreMode::Build`]) is built and offered back to the store under its
/// tag once the first prober constructs it, and anything else is built
/// with no store involved. Used by every probe stage, so the same artifact
/// serves any source kind and any DOP.
pub(crate) fn join_build(
    right: &Plan,
    right_keys: &[Expr],
    right_types: &[DataType],
    m: &Arc<OpMetrics>,
    ctx: &ExecContext,
) -> Result<(Arc<SharedBuild>, MetricsNode), PlanError> {
    let (input, target) = match right {
        Plan::Cached { tag, .. } => {
            if let Some(b) = ctx.store.as_ref().and_then(|s| s.fetch_build(*tag)) {
                // The input's metrics placeholder stays zero-call.
                let metrics = MetricsNode::leaf(OpMetrics::shared());
                return Ok((SharedBuild::ready(b), metrics));
            }
            (right, None)
        }
        Plan::Store {
            child,
            tag,
            mode: StoreMode::Build,
        } => (&**child, Some(*tag)),
        _ => (right, None),
    };
    let (op, mut metrics) = build_node(input, ctx)?;
    let publish = match target {
        None => None,
        Some(tag) => {
            let store = ctx
                .store
                .clone()
                .ok_or_else(|| PlanError::msg("build target without a result store"))?;
            let (cancel, fail, input_metrics) = (ctx.cancel.clone(), ctx.fail.clone(), metrics);
            // The target is a plan level with no work of its own.
            metrics = MetricsNode::new(OpMetrics::shared(), vec![input_metrics.clone()]);
            Some(Box::new(move |built: &Arc<BuildSide>, took: Duration| {
                if cancel.as_ref().is_some_and(|c| c.load(Ordering::Acquire)) || fail.is_set() {
                    return; // cancelled or failed mid-build: the index may be truncated
                }
                // Reconstruction work = draining the build input plus
                // indexing its rows (the deterministic analog of cost_ns).
                let cost = StateCost {
                    cost_ns: took.as_nanos() as f64,
                    cost_work: input_metrics.inclusive_work() as f64 + built.rows() as f64,
                };
                store.publish_build(tag, built.clone(), cost);
            }) as BuildPublish)
        }
    };
    let (keys, types) = (right_keys.to_vec(), right_types.to_vec());
    Ok((
        SharedBuild::new(op, keys, types, m.clone(), publish),
        metrics,
    ))
}

/// The morsel source of a chain rooted at `leaf`, with the leaf's metrics
/// node, when `leaf` is a table scan (the pinned snapshot's version, under
/// the scan's projection) or a cached result (its lease, fetched now), and
/// `None` for any other node. Dispenser metrics read time 0: no decision
/// reads a leaf's cost.
pub(crate) fn leaf_dispenser(
    leaf: &Plan,
    ctx: &ExecContext,
) -> Result<Option<(Arc<MorselDispenser>, MetricsNode)>, PlanError> {
    let m = OpMetrics::shared();
    let dispenser = match leaf {
        Plan::Scan { table, cols } => {
            let t = ctx
                .table(table)
                .ok_or_else(|| PlanError::unknown_table(table))?;
            let projection = cols
                .iter()
                .map(|c| {
                    t.schema()
                        .index_of(c)
                        .ok_or_else(|| PlanError::unknown_column(c, format!("table '{table}'")))
                })
                .collect::<Result<_, _>>()?;
            MorselDispenser::new(t, projection, m.clone())
        }
        Plan::Cached { tag, .. } => {
            let store = ctx
                .store
                .as_ref()
                .ok_or_else(|| PlanError::msg("cached node without a result store"))?;
            let result = store
                .fetch(*tag)
                .ok_or_else(|| PlanError::msg(format!("no leased result for cached tag {tag}")))?;
            // Read like a table: a snapshot sharing the result's chunks, on
            // the grid `MaterializedResult::batches` cuts.
            let chunks = result.chunks().chunks().to_vec();
            let table = Table::from_chunks("cached", result.schema.clone(), chunks, 0);
            let all = (0..result.schema.len()).collect();
            MorselDispenser::new(Arc::new(table), all, m.clone())
        }
        _ => return Ok(None),
    };
    let dispenser = dispenser.with_cancel(ctx.cancel.clone());
    Ok(Some((Arc::new(dispenser), MetricsNode::leaf(m))))
}

/// Build `plan` as an order-preserving parallel pipeline if it is a
/// suitable dispenser-rooted chain, else serially. Used at every point
/// where a consumer accepts the canonical batch sequence: the plan root
/// and sort inputs.
fn build_gathered(
    plan: &Plan,
    ctx: &ExecContext,
) -> Result<(Box<dyn Operator>, MetricsNode), PlanError> {
    if let Some(source) = build_source(plan, ctx)? {
        let metrics = source.metrics.clone();
        return Ok((Box::new(GatherExec::new(source)), metrics));
    }
    build_node(plan, ctx)
}

/// The input of a folding breaker. A suitable dispenser-rooted chain is split
/// across workers when `partition` allows the breaker to fold per-worker
/// partials, and gathered into the canonical batch sequence otherwise;
/// anything else is built serially.
fn breaker_input(
    child: &Plan,
    partition: bool,
    ctx: &ExecContext,
) -> Result<(BreakerInput, MetricsNode), PlanError> {
    Ok(match build_source(child, ctx)? {
        Some(source) => {
            let metrics = source.metrics.clone();
            let input = if partition {
                BreakerInput::Partitioned(Box::new(source))
            } else {
                BreakerInput::Operator(Box::new(GatherExec::new(source)))
            };
            (input, metrics)
        }
        None => {
            let (op, metrics) = build_node(child, ctx)?;
            (BreakerInput::Operator(op), metrics)
        }
    })
}

fn build_node(
    plan: &Plan,
    ctx: &ExecContext,
) -> Result<(Box<dyn Operator>, MetricsNode), PlanError> {
    let m = OpMetrics::shared();
    Ok(match plan {
        Plan::FnScan { name, args, .. } => {
            let f = ctx
                .functions
                .get(name)
                .ok_or_else(|| PlanError::unknown_function(name))?
                .clone();
            // Arguments must be constant by execution time; prepared
            // templates substitute their parameters before building.
            let values = args
                .iter()
                .map(|a| match a {
                    rdb_expr::Expr::Lit(v) => Ok(v.clone()),
                    other => Err(PlanError::msg(format!(
                        "table function '{name}' argument '{other}' is not a literal; \
                         substitute parameters before execution"
                    ))),
                })
                .collect::<Result<Vec<_>, _>>()?;
            (
                Box::new(fn_scan(f, values, m.clone(), ctx.fail.clone())),
                MetricsNode::leaf(m),
            )
        }
        Plan::Scan { .. }
        | Plan::Cached { .. }
        | Plan::Select { .. }
        | Plan::Project { .. }
        | Plan::Join { .. }
        | Plan::Store { .. } => {
            // One chain for the whole pipelining span, over whatever sits
            // below it (see `crate::fuse`); a bare leaf is a chain of no
            // stages.
            let (stages, source) = collect_chain(plan);
            let (source, source_metrics) = match leaf_dispenser(source, ctx)? {
                Some((dispenser, sm)) => (ChainSource::Morsels(dispenser), sm),
                None => {
                    let (op, sm) = build_node(source, ctx)?;
                    (ChainSource::Operator(op, 0), sm)
                }
            };
            let (chain, metrics) = build_stages(&stages, source_metrics, ctx)?;
            (Box::new(FusedPipelineExec::new(source, chain)), metrics)
        }
        Plan::Aggregate {
            child,
            group_by,
            aggs,
            ..
        } => {
            if aggs.iter().any(|a| matches!(a, AggFunc::Avg(_))) {
                // Only lineage persisted before `normalize` lowered `avg`
                // can still carry one.
                return Err(PlanError::msg(
                    "avg must be lowered to sum and count (rdb_plan::normalize) before execution",
                ));
            }
            let input_types = types_of(&child.schema(&ctx.catalog)?);
            let output_types = types_of(&plan.schema(&ctx.catalog)?);
            // Partitioned parallel aggregation — but only when every
            // accumulator merges exactly (`AggFunc::is_exact`): per-worker
            // partial tables merged (and key-sorted) at this breaker are
            // then bit-identical to serial execution. Float sums instead
            // keep the serial fold order over a parallel-gathered input
            // (the scan/filter/probe work below still parallelizes),
            // because partitioned float addition would drift in the
            // low-order bits and break byte-identical cache replay across
            // DOPs.
            let exact = aggs.iter().all(|a| a.is_exact(&input_types));
            let (input, cm) = breaker_input(child, exact, ctx)?;
            (
                Box::new(aggregate(
                    input,
                    group_by.clone(),
                    aggs.clone(),
                    input_types,
                    output_types,
                    m.clone(),
                    ctx.fail.clone(),
                )),
                MetricsNode::new(m, vec![cm]),
            )
        }
        Plan::TopN { child, keys, n } => {
            let output_types = types_of(&child.schema(&ctx.catalog)?);
            // Partitioned parallel top-N: per-worker heap runs merged at
            // this breaker (position tie-breaks keep it deterministic).
            let (input, cm) = breaker_input(child, true, ctx)?;
            (
                Box::new(top_n(
                    input,
                    keys.clone(),
                    *n,
                    output_types,
                    m.clone(),
                    ctx.fail.clone(),
                )),
                MetricsNode::new(m, vec![cm]),
            )
        }
        Plan::Sort { child, keys } => {
            // Sort is order-insensitive to its input, but the serial sort
            // is stable — feeding it the canonical (gathered) sequence
            // keeps ties byte-identical to serial execution while the
            // scan/filter/probe work below still parallelizes.
            let (c, cm) = build_gathered(child, ctx)?;
            (
                Box::new(sort(c, keys.clone(), m.clone(), ctx.fail.clone())),
                MetricsNode::new(m, vec![cm]),
            )
        }
        Plan::Limit { child, n } => {
            let (c, cm) = build_node(child, ctx)?;
            (
                Box::new(LimitExec::new(c, *n, m.clone())),
                MetricsNode::new(m, vec![cm]),
            )
        }
        Plan::UnionAll { children } => {
            let mut ops = Vec::with_capacity(children.len());
            let mut ms = Vec::with_capacity(children.len());
            for c in children {
                let (op, cm) = build_node(c, ctx)?;
                ops.push(op);
                ms.push(cm);
            }
            (
                Box::new(UnionAllExec::new(ops, m.clone())),
                MetricsNode::new(m, ms),
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::run_to_batch;
    use crate::store::testing::MockStore;
    use crate::store::{MaterializedResult, ResultStore};
    use rdb_expr::{AggFunc, Expr};
    use rdb_plan::{scan, SortKeyExpr, StoreMode};
    use rdb_storage::{Catalog, TableBuilder};
    use rdb_vector::Value;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("tag", DataType::Str),
        ]);
        let mut b = TableBuilder::new("t", schema, 100);
        for i in 0..100i64 {
            b.push_row(vec![
                Value::Int(i % 10),
                Value::Float(i as f64),
                Value::str(if i % 2 == 0 { "even" } else { "odd" }),
            ]);
        }
        cat.register(b.finish()).expect("register table");
        ExecContext::new(Arc::new(cat))
    }

    #[test]
    fn full_pipeline_runs() {
        let ctx = ctx();
        let plan = scan("t", &["k", "v", "tag"])
            .select(Expr::name("tag").eq(Expr::lit("even")))
            .aggregate(
                vec![(Expr::name("k"), "k")],
                vec![
                    (AggFunc::Sum(Expr::name("v")), "sv"),
                    (AggFunc::CountStar, "n"),
                ],
            )
            .sort(vec![SortKeyExpr::asc(Expr::name("k"))])
            .bind(&ctx.catalog)
            .unwrap();
        let mut tree = build(&plan, &ctx).unwrap();
        let out = run_to_batch(tree.root.as_mut());
        assert_eq!(out.rows(), 5); // even k: 0,2,4,6,8
        assert_eq!(out.column(0).as_ints(), &[0, 2, 4, 6, 8]);
        // k=0 matches v=0,10,...,90 → all even i with i%10==0: 0,10,...,90 → sum 450
        assert_eq!(out.column(1).as_floats()[0], 450.0);
        assert_eq!(out.column(2).as_ints(), &[10, 10, 10, 10, 10]);
        assert_eq!(tree.schema.names(), vec!["k", "sv", "n"]);
        // Metrics were collected.
        assert!(tree.metrics.inclusive_work() > 0);
        assert_eq!(tree.metrics.cardinality(), 5);
    }

    #[test]
    fn join_and_topn_pipeline() {
        let ctx = ctx();
        let left = scan("t", &["k", "v"]);
        let right = scan("t", &["k", "tag"]).aggregate(
            vec![(Expr::name("k"), "gk")],
            vec![(AggFunc::CountStar, "cnt")],
        );
        let plan = left
            .inner_join(right, vec![Expr::name("k")], vec![Expr::name("gk")])
            .top_n(vec![SortKeyExpr::desc(Expr::name("v"))], 3)
            .bind(&ctx.catalog)
            .unwrap();
        let mut tree = build(&plan, &ctx).unwrap();
        let out = run_to_batch(tree.root.as_mut());
        assert_eq!(out.rows(), 3);
        assert_eq!(out.column(1).as_floats(), &[99.0, 98.0, 97.0]);
    }

    /// `big`: 3,000 rows (`k` = i % 7, `v` = i), three morsels; `two`: a
    /// two-row table, too many for a single join's build side. A mock
    /// result store takes what tees publish.
    fn morsel_ctx(dop: usize) -> ExecContext {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Int)]);
        let mut b = TableBuilder::new("big", schema, 3000);
        for i in 0..3000i64 {
            b.push_row(vec![Value::Int(i % 7), Value::Int(i)]);
        }
        cat.register(b.finish()).expect("register table");
        let mut b = TableBuilder::new("two", Schema::from_pairs([("x", DataType::Int)]), 2);
        b.push_row(vec![Value::Int(1)]);
        b.push_row(vec![Value::Int(2)]);
        cat.register(b.finish()).expect("register table");
        ExecContext::new(Arc::new(cat))
            .with_parallelism(dop)
            .with_store(Arc::new(MockStore::default()))
    }

    /// `big`'s rows with `v > 100`: 2,899 of them, in all three morsels.
    fn filtered() -> Plan {
        scan("big", &["k", "v"]).select(Expr::name("v").gt(Expr::lit(100)))
    }

    #[test]
    fn gather_reports_end_after_its_workers() {
        let ctx = morsel_ctx(8);
        let plan = filtered().bind(&ctx.catalog).unwrap();
        let mut tree = build(&plan, &ctx).unwrap();
        while tree.root.next_batch().is_some() {}
        // The root just returned `None` for the first time: every worker
        // (three, one per morsel) has flushed its chain's metrics.
        let filter = &tree.metrics.metrics;
        let leaf = &tree.metrics.children[0].metrics;
        assert_eq!(filter.rows_out(), 2899);
        assert_eq!(filter.calls(), 6, "3 morsels and 3 exhausted pulls");
        assert_eq!((leaf.rows_out(), leaf.calls()), (3000, 3));
    }

    #[test]
    fn tee_publishes_once_under_a_partitioned_aggregate() {
        let plan = filtered().store(5, StoreMode::Materialize).aggregate(
            vec![(Expr::name("k"), "k")],
            vec![(AggFunc::CountStar, "n")],
        );
        let published = |dop: usize| {
            let store = Arc::new(MockStore::default());
            let ctx = morsel_ctx(dop).with_store(store.clone());
            let plan = plan.clone().bind(&ctx.catalog).unwrap();
            let Plan::Aggregate { child, .. } = &plan else {
                unreachable!()
            };
            let partitioned = build_source(child, &ctx).unwrap().is_some();
            assert_eq!(partitioned, dop > 1, "DOP {dop}");
            let mut tree = build(&plan, &ctx).unwrap();
            while tree.root.next_batch().is_some() {}
            assert!(tree.fail.get().is_none());
            assert_eq!(store.publishes.lock().as_slice(), &[5], "DOP {dop}");
            store.fetch(5).unwrap().to_batch().to_rows()
        };
        let serial = published(1);
        assert_eq!(serial.len(), 2899);
        for dop in [2, 8] {
            assert_eq!(published(dop), serial, "DOP {dop}");
        }
    }

    #[test]
    fn tee_abandons_over_a_failed_input() {
        let failing = || {
            scan("big", &["k", "v"])
                .single_join(scan("two", &["x"]))
                .store(6, StoreMode::Materialize)
        };
        let plans = [
            ("root tee", failing()),
            (
                "tee under an aggregate",
                failing().aggregate(vec![], vec![(AggFunc::CountStar, "n")]),
            ),
        ];
        for (what, plan) in plans {
            for dop in [1, 2] {
                let store = Arc::new(MockStore::default());
                let ctx = morsel_ctx(dop).with_store(store.clone());
                let plan = plan.clone().bind(&ctx.catalog).unwrap();
                let mut tree = build(&plan, &ctx).unwrap();
                while tree.root.next_batch().is_some() {}
                assert!(tree.fail.get().is_some(), "{what} at DOP {dop}");
                assert!(store.publishes.lock().is_empty(), "{what} at DOP {dop}");
                assert_eq!(
                    store.abandoned.lock().as_slice(),
                    &[6],
                    "{what} at DOP {dop}"
                );
            }
        }
    }

    #[test]
    fn tee_abandons_a_cancelled_execution() {
        for dop in [1, 2] {
            let store = Arc::new(MockStore::default());
            let cancel = Arc::new(AtomicBool::new(false));
            let ctx = morsel_ctx(dop)
                .with_store(store.clone())
                .with_cancel(Some(cancel.clone()));
            let plan = filtered()
                .store(8, StoreMode::Materialize)
                .bind(&ctx.catalog)
                .unwrap();
            let mut tree = build(&plan, &ctx).unwrap();
            assert!(tree.root.next_batch().is_some());
            cancel.store(true, Ordering::Release);
            while tree.root.next_batch().is_some() {}
            assert!(store.publishes.lock().is_empty(), "DOP {dop}");
            assert_eq!(store.abandoned.lock().as_slice(), &[8], "DOP {dop}");
        }
    }

    #[test]
    fn cached_leaf_chains_run_on_workers() {
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Int)]);
        let cached = Plan::Cached {
            tag: 4,
            schema: schema.clone(),
        }
        .select(Expr::name("v").gt(Expr::lit(100)));
        let plan = cached.clone().aggregate(
            vec![(Expr::name("k"), "k")],
            vec![(AggFunc::CountStar, "n")],
        );
        let run = |dop: usize| {
            let store = Arc::new(MockStore::default());
            let ctx = morsel_ctx(dop).with_store(store.clone());
            let big = ctx.table("big").unwrap().batches(&[0, 1]);
            store.publish(4, MaterializedResult::from_batches(schema.clone(), &big));
            let input = cached.clone().bind(&ctx.catalog).unwrap();
            let partitioned = build_source(&input, &ctx).unwrap().is_some();
            assert_eq!(partitioned, dop > 1, "DOP {dop}");
            let plan = plan.clone().bind(&ctx.catalog).unwrap();
            let mut tree = build(&plan, &ctx).unwrap();
            Batch::concat(&tree.drain().unwrap()).to_rows()
        };
        let serial = run(1);
        assert_eq!(serial.len(), 7);
        assert_eq!(run(2), serial);
    }

    #[test]
    fn breakers_emit_nothing_over_a_failed_input() {
        let input = || scan("big", &["k", "v"]).single_join(scan("two", &["x"]));
        let breakers = [
            (
                "keyless aggregate",
                input().aggregate(vec![], vec![(AggFunc::CountStar, "n")]),
            ),
            (
                "grouped aggregate",
                input().aggregate(
                    vec![(Expr::name("k"), "k")],
                    vec![(AggFunc::CountStar, "n")],
                ),
            ),
            (
                "top-N",
                input().top_n(vec![SortKeyExpr::asc(Expr::name("v"))], 5),
            ),
            (
                "sort",
                input().sort(vec![SortKeyExpr::asc(Expr::name("k"))]),
            ),
        ];
        for (what, plan) in breakers {
            for dop in [1, 2] {
                let ctx = morsel_ctx(dop);
                let plan = plan.clone().bind(&ctx.catalog).unwrap();
                let mut tree = build(&plan, &ctx).unwrap();
                let rows: usize = collect_all(tree.root.as_mut())
                    .iter()
                    .map(|b| b.rows())
                    .sum();
                assert_eq!(rows, 0, "{what} at DOP {dop} emitted rows");
                let err = tree.fail.get().expect("the failure is recorded");
                assert!(
                    err.message().contains("exactly one row, got 2"),
                    "{what} at DOP {dop}: {err}"
                );
            }
        }
    }

    #[test]
    fn breaker_metrics_do_not_depend_on_dop() {
        let breakers = [
            (
                "aggregate",
                filtered().aggregate(
                    vec![(Expr::name("k"), "k")],
                    vec![
                        (AggFunc::CountStar, "n"),
                        (AggFunc::Sum(Expr::name("v")), "sv"),
                    ],
                ),
            ),
            (
                "top-N",
                filtered().top_n(vec![SortKeyExpr::desc(Expr::name("k"))], 1500),
            ),
            // Partitioned at DOP 4: the tee runs on the workers.
            (
                "aggregate over a store",
                filtered().store(1, StoreMode::Materialize).aggregate(
                    vec![(Expr::name("k"), "k")],
                    vec![(AggFunc::CountStar, "n")],
                ),
            ),
        ];
        for (what, plan) in breakers {
            let run = |dop: usize| {
                let ctx = morsel_ctx(dop);
                let plan = plan.clone().bind(&ctx.catalog).unwrap();
                let mut tree = build(&plan, &ctx).unwrap();
                assert_eq!(tree.root.progress(), 0.0, "{what} at DOP {dop}");
                let out = tree.drain().unwrap();
                assert_eq!(tree.root.progress(), 1.0, "{what} at DOP {dop}");
                let m = &tree.metrics.metrics;
                let measured = (
                    Batch::concat(&out).to_rows(),
                    m.own_work(),
                    m.calls(),
                    m.rows_out(),
                );
                (measured, tree.metrics)
            };
            let (serial, metrics) = run(1);
            assert_eq!(serial.1, 2899 + serial.3, "{what}: own work is rows folded");
            if what == "aggregate over a store" {
                // The tee timing rule: the stored node is charged up to
                // the tee's entry, the tee up to its exit, and the node
                // above it the whole step.
                let tee = &metrics.children[0];
                let stored = &tee.children[0];
                assert!(
                    stored.inclusive_time_ns() <= tee.inclusive_time_ns()
                        && tee.inclusive_time_ns() <= metrics.inclusive_time_ns(),
                    "stored {} ns, tee {} ns, above {} ns",
                    stored.inclusive_time_ns(),
                    tee.inclusive_time_ns(),
                    metrics.inclusive_time_ns()
                );
            }
            assert_eq!(run(4).0, serial, "{what}");
        }
    }

    #[test]
    fn build_target_publishes_once_at_any_dop() {
        let plan = filtered().inner_join(
            scan("two", &["x"]).store(3, StoreMode::Build),
            vec![Expr::name("k")],
            vec![Expr::name("x")],
        );
        let run = |dop: usize| {
            let store = Arc::new(MockStore::default());
            let ctx = morsel_ctx(dop).with_store(store.clone());
            let plan = plan.clone().bind(&ctx.catalog).unwrap();
            let mut tree = build(&plan, &ctx).unwrap();
            let rows = Batch::concat(&tree.drain().unwrap()).to_rows();
            assert_eq!(store.builds.lock().as_slice(), &[3], "DOP {dop}");
            assert!(store.publishes.lock().is_empty(), "DOP {dop}");
            rows
        };
        let serial = run(1);
        assert_eq!(serial.len(), 828, "k in {{1, 2}}: 414 rows each");
        assert_eq!(run(4), serial);
    }

    #[test]
    fn build_target_outside_a_build_input_rejected() {
        let ctx = morsel_ctx(1);
        let plan = filtered()
            .store(3, StoreMode::Build)
            .bind(&ctx.catalog)
            .unwrap();
        let Err(err) = build(&plan, &ctx) else {
            panic!("a build target over a probe side must fail the build");
        };
        assert!(err.to_string().contains("build input"), "{err}");
    }

    #[test]
    fn unbound_plan_rejected() {
        let ctx = ctx();
        let plan = scan("t", &["k"]).select(Expr::name("k").gt(Expr::lit(1)));
        assert!(build(&plan, &ctx).is_err());
    }

    #[test]
    fn unknown_table_rejected() {
        let ctx = ctx();
        let plan = scan("missing", &["x"]);
        assert!(build(&plan, &ctx).is_err());
    }

    #[test]
    fn store_without_result_store_rejected() {
        let ctx = ctx();
        let plan = scan("t", &["k"])
            .store(1, StoreMode::Materialize)
            .bind(&ctx.catalog)
            .unwrap();
        assert!(build(&plan, &ctx).is_err());
    }
}
