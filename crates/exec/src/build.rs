//! Plan-to-executor builder.
//!
//! Every span of pipelining nodes (`Select`, `Project`, join probes)
//! becomes one [`crate::fuse::FusedChain`] over its source — a morsel
//! dispenser when the span sits on a base-table scan, the built child
//! operator otherwise. With `ExecContext::parallelism > 1` the builder
//! additionally splits scan-rooted chains across a worker pool at the
//! natural consumer points — the plan root, store tees, and the blocking
//! breakers (aggregate, top-N, sort) — and drives the same chain serially
//! everywhere else. Serial and parallel builds of the same plan produce
//! byte-identical output streams (see [`crate::parallel`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rdb_expr::{AggFunc, Expr};
use rdb_plan::{Plan, PlanError, StoreMode};
use rdb_vector::{Batch, DataType, Schema};

use crate::agg::HashAggExec;
use crate::context::ExecContext;
use crate::error::{ExecError, FailSlot};
use crate::fuse::{build_stages, collect_chain, ChainSource, FusedPipelineExec};
use crate::join::{BuildPublish, BuildSide, SharedBuild};
use crate::metrics::{MetricsNode, OpMetrics};
use crate::op::{collect_all, Operator};
use crate::parallel::{
    build_source, GatherExec, MorselDispenser, ParallelAggExec, ParallelTopNExec,
};
use crate::scan::{FnScanExec, ScanExec};
use crate::sort::{LimitExec, SortExec, TopNExec, UnionAllExec};
use crate::store::{CachedExec, StateCost, StoreExec};

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
    // The stream edge is itself a pipeline consumer: a scan-rooted chain
    // with no breaker above it parallelizes here.
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

/// Deterministic discriminator for a hash-build artifact: two joins may
/// share a build subplan but index it on different key expressions, so the
/// keys are part of the artifact identity.
fn state_variant(keys: &[Expr]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{keys:?}").hash(&mut h);
    h.finish()
}

/// Construct the shared build side for a hash join, going through the
/// recycler's operator-state cache when one is attached: a warm build is
/// adopted as-is (the right subtree never executes) and a cold build is
/// offered back to the cache once the first prober materializes it. Used
/// by every probe stage, so the same artifact serves any source kind and
/// any DOP.
pub(crate) fn join_build(
    right: &Plan,
    right_keys: &[Expr],
    right_types: &[DataType],
    m: &Arc<OpMetrics>,
    ctx: &ExecContext,
) -> Result<(Arc<SharedBuild>, MetricsNode), PlanError> {
    let variant = state_variant(right_keys);
    // Build recycling is on when a result store is attached *and* a
    // snapshot is pinned.
    let recycling = ctx
        .store
        .clone()
        .and_then(|store| Some((store, ctx.state_epochs(right)?)));
    if let Some((store, epochs)) = &recycling {
        if let Some(b) = store.fetch_state(right, variant, epochs) {
            // Warm build: the subtree's metrics placeholder stays
            // zero-call, so the recycler's annotation pass leaves the
            // cold-run cost statistics untouched.
            return Ok((
                SharedBuild::ready(b),
                MetricsNode::leaf(OpMetrics::shared()),
            ));
        }
    }
    let (right_op, right_metrics) = build_node(right, ctx)?;
    let publish = recycling.map(|(store, epochs)| {
        let plan = right.clone();
        let cancel = ctx.cancel.clone();
        let fail = ctx.fail.clone();
        let rm = right_metrics.clone();
        Box::new(move |built: &Arc<BuildSide>, cost: StateCost| {
            if cancel.as_ref().is_some_and(|c| c.load(Ordering::Acquire)) || fail.is_set() {
                return; // cancelled or failed mid-build: the index may be truncated
            }
            // Reconstruction work = draining the build subtree plus
            // indexing its rows (the deterministic analog of cost_ns).
            let cost = StateCost {
                cost_work: rm.inclusive_work() as f64 + cost.rows as f64,
                ..cost
            };
            store.publish_state(&plan, variant, built.clone(), cost, &epochs);
        }) as BuildPublish
    });
    Ok((
        SharedBuild::new(
            right_op,
            right_keys.to_vec(),
            right_types.to_vec(),
            m.clone(),
            publish,
        ),
        right_metrics,
    ))
}

/// Resolve a scan's table version (the pinned snapshot's, if any) and its
/// column projection.
fn resolve_scan(
    table: &str,
    cols: &[String],
    ctx: &ExecContext,
) -> Result<(Arc<rdb_storage::Table>, Vec<usize>), PlanError> {
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
    Ok((t, projection))
}

/// The morsel source of a scan-rooted chain, with the scan's metrics leaf.
pub(crate) fn scan_dispenser(
    table: &str,
    cols: &[String],
    ctx: &ExecContext,
) -> Result<(Arc<MorselDispenser>, MetricsNode), PlanError> {
    let (t, projection) = resolve_scan(table, cols, ctx)?;
    let m = OpMetrics::shared();
    let dispenser = MorselDispenser::new(t, projection, m.clone()).with_cancel(ctx.cancel.clone());
    Ok((Arc::new(dispenser), MetricsNode::leaf(m)))
}

/// Build `plan` as an order-preserving parallel pipeline if it is a
/// suitable scan-rooted chain, else serially. Used at every point where a
/// consumer accepts the canonical batch sequence: the plan root, store
/// tees, and sort inputs.
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

fn build_node(
    plan: &Plan,
    ctx: &ExecContext,
) -> Result<(Box<dyn Operator>, MetricsNode), PlanError> {
    let m = OpMetrics::shared();
    Ok(match plan {
        Plan::Scan { table, cols } => {
            let (t, projection) = resolve_scan(table, cols, ctx)?;
            (
                Box::new(ScanExec::new(t, projection, m.clone()).with_cancel(ctx.cancel.clone())),
                MetricsNode::leaf(m),
            )
        }
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
                Box::new(FnScanExec::new(f, values, m.clone())),
                MetricsNode::leaf(m),
            )
        }
        Plan::Select { .. } | Plan::Project { .. } | Plan::Join { .. } => {
            // One chain for the whole pipelining span, over whatever sits
            // below it (see `crate::fuse`).
            let (stages, source) = collect_chain(plan);
            let (source, source_metrics) = match source {
                Plan::Scan { table, cols } => {
                    let (dispenser, sm) = scan_dispenser(table, cols, ctx)?;
                    (ChainSource::Morsels(dispenser), sm)
                }
                other => {
                    let (op, sm) = build_node(other, ctx)?;
                    (ChainSource::Operator(op), sm)
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
            if aggs.iter().all(|a| a.is_exact(&input_types)) {
                if let Some(source) = build_source(child, ctx)? {
                    let cm = source.metrics.clone();
                    return Ok((
                        Box::new(ParallelAggExec::new(
                            source,
                            group_by.clone(),
                            aggs.clone(),
                            input_types,
                            output_types,
                            m.clone(),
                        )),
                        MetricsNode::new(m, vec![cm]),
                    ));
                }
            }
            let (c, cm) = build_gathered(child, ctx)?;
            (
                Box::new(HashAggExec::new(
                    c,
                    group_by.clone(),
                    aggs.clone(),
                    input_types,
                    output_types,
                    m.clone(),
                )),
                MetricsNode::new(m, vec![cm]),
            )
        }
        Plan::TopN { child, keys, n } => {
            let output_types = types_of(&child.schema(&ctx.catalog)?);
            // Partitioned parallel top-N: per-worker heap runs merged at
            // this breaker (position tie-breaks keep it deterministic).
            if let Some(source) = build_source(child, ctx)? {
                let cm = source.metrics.clone();
                return Ok((
                    Box::new(ParallelTopNExec::new(
                        source,
                        keys.clone(),
                        *n,
                        output_types,
                        m.clone(),
                    )),
                    MetricsNode::new(m, vec![cm]),
                ));
            }
            let (c, cm) = build_node(child, ctx)?;
            (
                Box::new(TopNExec::new(c, keys.clone(), *n, output_types, m.clone())),
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
                Box::new(SortExec::new(c, keys.clone(), m.clone())),
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
        Plan::Cached { tag, .. } => {
            let store = ctx
                .store
                .clone()
                .ok_or_else(|| PlanError::msg("cached node without a result store"))?;
            (
                Box::new(CachedExec::new(*tag, store, m.clone())),
                MetricsNode::leaf(m),
            )
        }
        Plan::Store { child, tag, mode } => {
            let store = ctx
                .store
                .clone()
                .ok_or_else(|| PlanError::msg("store node without a result store"))?;
            let child_schema = child.schema(&ctx.catalog)?;
            // The tee buffers the canonical batch sequence, so a parallel
            // pipeline below it publishes byte-identically to serial.
            let (c, cm) = build_gathered(child, ctx)?;
            (
                Box::new(
                    StoreExec::new(
                        c,
                        *tag,
                        child_schema,
                        store,
                        *mode == StoreMode::Speculate,
                        m.clone(),
                    )
                    .with_cancel(ctx.cancel.clone())
                    .with_fail(ctx.fail.clone()),
                ),
                MetricsNode::new(m, vec![cm]),
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::run_to_batch;
    use rdb_expr::{AggFunc, Expr};
    use rdb_plan::{scan, SortKeyExpr};
    use rdb_storage::{Catalog, TableBuilder};
    use rdb_vector::Value;
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
