//! The pipeline executor: filter → project → join-probe chains run as one
//! push-style loop per input batch.
//!
//! A [`FusedChain`] is the only implementation of selection, projection
//! and join-probe semantics in this crate. Every maximal span of
//! pipelining plan nodes (`Select`, `Project`, and the probe side of
//! `Join`) becomes one chain over one source, and the chain pushes each
//! input batch through all of its stages before the next is pulled:
//!
//! * selections are **chain state** — a reusable `Vec<u32>` of surviving
//!   physical row indices, seeded from the input's selection vector (if it
//!   carries one) and narrowed in place by the branch-free kernel
//!   ([`rdb_expr::CompiledPredicate`]) with no per-batch `Vec<bool>` and
//!   no literal broadcasts;
//! * probe keys are hashed in bulk ([`rdb_vector::hash_columns`]) into a
//!   reusable buffer, the probe loop is a chain walk plus a typed
//!   candidate confirmation, and its match and unmatched row lists are
//!   reusable buffers too;
//! * batches are only re-wrapped at the chain edge, not between stages.
//!
//! # Two source kinds
//!
//! A chain's source ([`ChainSource`]) is either a [`MorselDispenser`] over
//! a base-table scan or any other child operator (aggregate, top-N,
//! cached read, store tee, table function, union). A dispenser can be
//! shared, so a scan-rooted chain runs serially on the caller's thread or
//! cloned once per worker ([`crate::parallel`]) — the same code either
//! way. An operator-sourced chain is driven serially, one input batch at
//! a time, and reports its source's progress.
//!
//! # Boundary rule
//!
//! A chain changes the *iteration shape* of a pipeline, never its
//! observable batch sequence. It spans pipelining stages only and always
//! stops at pipeline breakers (aggregate, sort, top-N, the build side of
//! a join), at `Store`/`StateTee` tees, and at gather points. Those
//! boundaries are where the recycler observes batches — a store tee must
//! publish byte-identical `MaterializedResult`s at any DOP — so per input
//! batch a chain emits the same logical rows in the same order whoever
//! drives it, with the sparse-compaction heuristic
//! ([`crate::filter::COMPACT_FRACTION`]), NULL-key and
//! candidate-verification join behavior, and the per-plan-node rows /
//! bytes / work / calls metrics the recycler's cost model consumes.
//!
//! # Timing rule
//!
//! A chain cannot time stages individually, so one driver step — the
//! source pull *and* the push through every stage — is measured as a
//! whole and charged to every stage of the span. The span root's time is
//! therefore inclusive of its whole subtree (what the recycler reads for
//! subtree cost); interior stages over-report by the stages above them.
//! All counters accumulate in per-chain `StageLocal`s and are flushed to
//! the shared atomics every `FLUSH_EVERY` steps and at end of input —
//! per-stage atomic traffic per morsel is measurable overhead.
//!
//! # Failure rule
//!
//! A stage that panics (a comparison between incompatible types bound at
//! run time, a shared build that failed in another worker) or meets a
//! structurally invalid input (a `single` join whose build side is not
//! one row) does not unwind through its driver: [`FusedChain::step`]
//! records an [`ExecError`] in the execution's [`FailSlot`] and ends the
//! chain's stream — serially and on every worker alike.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rdb_expr::{eval, CompiledPredicate, Expr};
use rdb_plan::{JoinKind, Plan, PlanError};
use rdb_vector::{hash_columns, Batch, Column, DataType};

use crate::context::ExecContext;
use crate::error::{panic_message, ExecError, FailSlot};
use crate::filter::COMPACT_FRACTION;
use crate::join::{BuildSide, ProbePairs, SharedBuild};
use crate::metrics::{MetricsNode, OpMetrics};
use crate::op::Operator;
use crate::parallel::MorselDispenser;

/// One pipeline stage, with the metrics of the plan node it executes.
#[derive(Clone)]
pub enum FusedStage {
    /// `Select`: narrow the live selection with a compiled predicate.
    Filter {
        pred: CompiledPredicate,
        metrics: Arc<OpMetrics>,
    },
    /// `Project`: recompute the column set over the physical rows.
    Project {
        exprs: Vec<Expr>,
        metrics: Arc<OpMetrics>,
    },
    /// `Join` probe against a shared (possibly recycled) build side.
    Probe {
        build: Arc<SharedBuild>,
        kind: JoinKind,
        left_keys: Vec<Expr>,
        /// Build-side column types (NULL padding for left-outer joins).
        right_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
        /// Lazily resolved build side (first input through this chain).
        built: Option<Arc<BuildSide>>,
    },
}

impl FusedStage {
    fn metrics(&self) -> &Arc<OpMetrics> {
        match self {
            FusedStage::Filter { metrics, .. }
            | FusedStage::Project { metrics, .. }
            | FusedStage::Probe { metrics, .. } => metrics,
        }
    }
}

/// Per-stage measurement counters accumulated *locally* in the chain and
/// flushed to the shared atomic [`OpMetrics`] in bulk — per-morsel atomic
/// RMWs on every stage are exactly the kind of per-row overhead the push
/// loop exists to remove.
#[derive(Clone, Copy, Default)]
struct StageLocal {
    time: u64,
    calls: u64,
    rows: u64,
    bytes: u64,
    work: u64,
}

/// Steps between metric flushes: keeps the shared counters fresh enough
/// for mid-flight progress estimates while amortizing the atomic traffic.
const FLUSH_EVERY: u32 = 64;

/// A chain of pipeline stages plus its reusable scratch buffers. One
/// instance per driver (clones share the `Arc`ed metrics, build sides and
/// failure slot but own their scratch), advanced one input batch at a
/// time via [`FusedChain::step`].
#[derive(Clone)]
pub struct FusedChain {
    stages: Vec<FusedStage>,
    /// Locally accumulated per-stage counters (see [`StageLocal`]).
    locals: Vec<StageLocal>,
    /// Steps since the last metrics flush.
    since_flush: u32,
    /// Live selection indices (chain state between stages).
    sel_scratch: Vec<u32>,
    /// Second index buffer (semi/anti probe output).
    aux_scratch: Vec<u32>,
    /// Per-row probe-key hashes.
    hash_scratch: Vec<u64>,
    /// Inner and left-outer probe output.
    pairs_scratch: ProbePairs,
    /// Where a failing stage reports (shared with the whole execution).
    fail: Arc<FailSlot>,
    /// Set once a step failed: the chain's stream has ended.
    failed: bool,
}

impl FusedChain {
    /// Chain over `stages`, bottom (nearest the source) first, reporting
    /// stage failures into `fail`.
    pub fn new(stages: Vec<FusedStage>, fail: Arc<FailSlot>) -> FusedChain {
        let locals = vec![StageLocal::default(); stages.len()];
        FusedChain {
            stages,
            locals,
            since_flush: 0,
            sel_scratch: Vec::new(),
            aux_scratch: Vec::new(),
            hash_scratch: Vec::new(),
            pairs_scratch: ProbePairs::default(),
            fail,
            failed: false,
        }
    }

    /// One driver step, shared by the serial operator and the parallel
    /// workers: pull the next input with `pull` (which may tag it, e.g.
    /// with its morsel index) and push it through every stage. The pull
    /// happens inside the measured span (see the module's timing rule).
    ///
    /// `None` ends the chain's stream: the source is exhausted, or a stage
    /// failed and the error is in the failure slot. `Some((tag, None))`
    /// means this input's rows were all filtered out or unmatched.
    pub fn step<T>(
        &mut self,
        pull: impl FnOnce() -> Option<(T, Batch)>,
    ) -> Option<(T, Option<Batch>)> {
        if self.failed {
            return None;
        }
        let start = Instant::now();
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            pull()
                .map(|(tag, input)| {
                    run_chain(
                        &mut self.stages,
                        &mut self.locals,
                        input,
                        &mut self.sel_scratch,
                        &mut self.aux_scratch,
                        &mut self.hash_scratch,
                        &mut self.pairs_scratch,
                    )
                    .map(|out| (tag, out))
                })
                .transpose()
        }));
        let elapsed = start.elapsed().as_nanos() as u64;
        // Every stage counts every pull, the exhausted one and those an
        // earlier stage emptied included, so a call count is zero only if
        // the chain never ran — the recycler's marker for a subtree
        // skipped by a warm operator-state hit.
        for l in &mut self.locals {
            l.time += elapsed;
            l.calls += 1;
        }
        let out = match stepped {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => self.fail_with(e),
            Err(p) => self.fail_with(ExecError::msg(format!(
                "pipeline stage panicked: {}",
                panic_message(p.as_ref())
            ))),
        };
        self.since_flush += 1;
        // End of input: publish before the consumer (recycler completion,
        // a breaker counting partials) can observe the stream's end.
        if out.is_none() || self.since_flush >= FLUSH_EVERY {
            self.flush();
        }
        out
    }

    fn fail_with<T>(&mut self, err: ExecError) -> Option<T> {
        self.fail.set(err);
        self.failed = true;
        None
    }

    /// Publish the locally accumulated counters into the shared metrics.
    /// Idempotent (locals drain to zero); called periodically, at end of
    /// input, and on drop as a safety net for cancelled executions.
    pub fn flush(&mut self) {
        self.since_flush = 0;
        for (stage, l) in self.stages.iter().zip(self.locals.iter_mut()) {
            let m = stage.metrics();
            m.add_time(l.time);
            m.calls
                .fetch_add(l.calls, std::sync::atomic::Ordering::Relaxed);
            m.add_rows(l.rows);
            m.add_bytes(l.bytes);
            m.add_work(l.work);
            *l = StageLocal::default();
        }
    }
}

impl Drop for FusedChain {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Logical output bytes for a stage emitting `rows` of `cur` — the same
/// selectivity-scaled estimate [`Batch::size_bytes`] reports for a
/// selected batch. `span` caches the summed column bytes of `cur` across
/// consecutive stages that leave the columns untouched.
fn out_bytes(cur: &Batch, rows: usize, span: &mut Option<usize>) -> u64 {
    let span =
        *span.get_or_insert_with(|| cur.columns().iter().map(|c| c.size_bytes()).sum::<usize>());
    (span * rows).checked_div(cur.physical_rows()).unwrap_or(0) as u64
}

fn run_chain(
    stages: &mut [FusedStage],
    locals: &mut [StageLocal],
    input: Batch,
    sel_buf: &mut Vec<u32>,
    aux: &mut Vec<u32>,
    hashes: &mut Vec<u64>,
    pairs: &mut ProbePairs,
) -> Result<Option<Batch>, ExecError> {
    // The live selection is `sel_buf` when `dense` is false, all physical
    // rows of `cur` otherwise. A selection on `cur` itself (an operator
    // source may hand one in) only seeds `sel_buf` and is never read
    // again: `dense` turns true only where `cur` is rebuilt.
    let mut cur = input;
    let mut dense = match cur.sel() {
        Some(sel) => {
            sel_buf.clear();
            sel_buf.extend_from_slice(sel);
            false
        }
        None => true,
    };
    // Summed column bytes of `cur`, invalidated whenever `cur`'s columns
    // change (compaction, projection, probe output).
    let mut span: Option<usize> = None;
    for (stage, local) in stages.iter_mut().zip(locals.iter_mut()) {
        match stage {
            FusedStage::Filter { pred, .. } => {
                if dense {
                    pred.select_physical_into(&cur, sel_buf);
                } else {
                    pred.refine(&cur, sel_buf);
                }
                // Checked first so a zero-row input is dropped too:
                // downstream operators never see empty batches.
                if sel_buf.is_empty() {
                    return Ok(None);
                }
                dense = dense && sel_buf.len() == cur.physical_rows();
                // Sparse compaction: below 1-in-COMPACT_FRACTION survivors,
                // gather now so later stages stop computing over dead rows.
                if !dense && sel_buf.len() * COMPACT_FRACTION < cur.physical_rows() {
                    cur = cur.take_physical(sel_buf);
                    dense = true;
                    span = None;
                }
                let rows = live_len(&cur, dense, sel_buf);
                local.rows += rows as u64;
                local.bytes += out_bytes(&cur, rows, &mut span);
            }
            FusedStage::Project { exprs, .. } => {
                cur = Batch::new(exprs.iter().map(|e| eval(e, &cur)).collect());
                span = None;
                let rows = live_len(&cur, dense, sel_buf);
                local.rows += rows as u64;
                local.bytes += out_bytes(&cur, rows, &mut span);
            }
            FusedStage::Probe {
                build,
                kind,
                left_keys,
                right_types,
                built,
                ..
            } => {
                let b = match built {
                    Some(b) => b.clone(),
                    None => built.insert(build.get()?).clone(),
                };
                let in_rows = live_len(&cur, dense, sel_buf);
                local.work += in_rows as u64;
                match kind {
                    JoinKind::Single => {
                        if b.rows() != 1 {
                            return Err(ExecError::msg(format!(
                                "single join build side must have exactly one row, got {}",
                                b.rows()
                            )));
                        }
                        // Broadcast the build row across the physical rows
                        // and keep the live selection: the probe columns
                        // stay shared, nothing is gathered.
                        let idx = vec![0u32; cur.physical_rows()];
                        let mut cols: Vec<Column> = cur.columns().to_vec();
                        cols.extend(b.batch().take(&idx).into_columns());
                        cur = Batch::new(cols);
                        span = None;
                        local.rows += in_rows as u64;
                        local.bytes += out_bytes(&cur, in_rows, &mut span);
                    }
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        // Key columns are evaluated (and hashed in bulk)
                        // over the physical rows; the live selection
                        // decides which of them probe.
                        let key_cols: Vec<Column> =
                            left_keys.iter().map(|e| eval(e, &cur)).collect();
                        let key_refs: Vec<&Column> = key_cols.iter().collect();
                        hash_columns(&key_refs, cur.physical_rows(), hashes);
                        b.probe_pairs(
                            &key_refs,
                            hashes,
                            live_rows(&cur, dense, sel_buf),
                            *kind == JoinKind::LeftOuter,
                            pairs,
                        );
                        let mut cols = cur.take_physical(&pairs.left).into_columns();
                        cols.extend(b.batch().take_physical(&pairs.right).into_columns());
                        let matched = Batch::new(cols);
                        cur = if pairs.unmatched.is_empty() {
                            matched
                        } else {
                            let pad_left = cur.take_physical(&pairs.unmatched);
                            let n = pad_left.rows();
                            let mut cols = pad_left.into_columns();
                            cols.extend(right_types.iter().map(|t| Column::nulls(*t, n)));
                            Batch::concat(&[matched, Batch::new(cols)])
                        };
                        dense = true;
                        span = None;
                        if cur.rows() == 0 {
                            return Ok(None);
                        }
                        local.rows += cur.rows() as u64;
                        local.bytes += cur.size_bytes() as u64;
                    }
                    JoinKind::Semi | JoinKind::Anti => {
                        let key_cols: Vec<Column> =
                            left_keys.iter().map(|e| eval(e, &cur)).collect();
                        let key_refs: Vec<&Column> = key_cols.iter().collect();
                        hash_columns(&key_refs, cur.physical_rows(), hashes);
                        aux.clear();
                        b.probe_keep(
                            &key_refs,
                            hashes,
                            live_rows(&cur, dense, sel_buf),
                            *kind == JoinKind::Semi,
                            aux,
                        );
                        // Zero-copy: the output is the probe batch
                        // narrowed to the qualifying rows.
                        std::mem::swap(sel_buf, aux);
                        dense = false;
                        if sel_buf.is_empty() {
                            return Ok(None);
                        }
                        local.rows += sel_buf.len() as u64;
                        local.bytes += out_bytes(&cur, sel_buf.len(), &mut span);
                    }
                }
            }
        }
    }
    Ok(Some(if dense {
        cur
    } else {
        cur.with_selection(Arc::new(std::mem::take(sel_buf)))
    }))
}

/// How many rows of `cur` are live.
fn live_len(cur: &Batch, dense: bool, sel: &[u32]) -> usize {
    if dense {
        cur.physical_rows()
    } else {
        sel.len()
    }
}

/// The live physical rows of `cur`, in order — the probe loops' row domain.
fn live_rows<'a>(cur: &Batch, dense: bool, sel: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    let (sel, dense_end) = if dense {
        (&sel[..0], cur.physical_rows() as u32)
    } else {
        (sel, 0)
    };
    sel.iter().copied().chain(0..dense_end)
}

/// Where a chain's input batches come from (see the module docs).
pub enum ChainSource {
    /// Morsels of a base-table scan.
    Morsels(Arc<MorselDispenser>),
    /// Any other child operator, pulled one batch at a time.
    Operator(Box<dyn Operator>),
}

/// The serial pipeline operator: drives one [`FusedChain`] over its source
/// on the caller's thread. Under parallel execution clones of the same
/// chain run inside per-worker segments instead (see
/// [`crate::parallel::ParallelSource`]).
pub struct FusedPipelineExec {
    source: ChainSource,
    chain: FusedChain,
}

impl FusedPipelineExec {
    /// Wrap a built pipeline.
    pub fn new(source: ChainSource, chain: FusedChain) -> FusedPipelineExec {
        FusedPipelineExec { source, chain }
    }
}

impl Operator for FusedPipelineExec {
    fn next_batch(&mut self) -> Option<Batch> {
        loop {
            let out = match &mut self.source {
                ChainSource::Morsels(d) => self.chain.step(|| d.next_morsel())?.1,
                ChainSource::Operator(op) => {
                    self.chain.step(|| op.next_batch().map(|b| ((), b)))?.1
                }
            };
            if out.is_some() {
                return out;
            }
        }
    }

    fn progress(&self) -> f64 {
        match &self.source {
            ChainSource::Morsels(d) => d.progress(),
            ChainSource::Operator(op) => op.progress(),
        }
    }
}

/// The pipelining span headed by `plan`: its stages top-down, and the
/// first node below them that is not a pipelining stage — the chain's
/// source. The stage list is empty when `plan` itself is not one. This is
/// the only place a span is recognized; the builder, the parallel source
/// and EXPLAIN all ask here.
pub(crate) fn collect_chain(plan: &Plan) -> (Vec<&Plan>, &Plan) {
    let mut stages: Vec<&Plan> = Vec::new();
    let mut cur = plan;
    loop {
        let below = match cur {
            Plan::Select { child, .. } | Plan::Project { child, .. } => child,
            Plan::Join { left, .. } => left,
            _ => return (stages, cur),
        };
        stages.push(cur);
        cur = below;
    }
}

/// Number of plan nodes the executor runs as one chain headed by `plan`
/// (the source excluded), or `None` when `plan` is not a pipelining
/// stage. EXPLAIN uses this to annotate spans.
pub fn fused_span(plan: &Plan) -> Option<usize> {
    let n = collect_chain(plan).0.len();
    (n > 0).then_some(n)
}

/// Build the chain for `stages` (top-down, as [`collect_chain`] returns
/// them) over a source whose metrics subtree is `source_metrics`, and the
/// metrics tree mirroring the span. Join build sides route through the
/// operator-state cache ([`crate::build::join_build`]) — the same
/// artifact whatever the source kind or DOP.
pub(crate) fn build_stages(
    stages: &[&Plan],
    source_metrics: MetricsNode,
    ctx: &ExecContext,
) -> Result<(FusedChain, MetricsNode), PlanError> {
    let mut node = source_metrics;
    let mut fused: Vec<FusedStage> = Vec::with_capacity(stages.len());
    // Bottom-up: reverse the collected top-down chain.
    for stage in stages.iter().rev() {
        let m = OpMetrics::shared();
        match stage {
            Plan::Select { predicate, .. } => {
                node = MetricsNode::new(m.clone(), vec![node]);
                fused.push(FusedStage::Filter {
                    pred: CompiledPredicate::compile(predicate),
                    metrics: m,
                });
            }
            Plan::Project { exprs, .. } => {
                node = MetricsNode::new(m.clone(), vec![node]);
                fused.push(FusedStage::Project {
                    exprs: exprs.clone(),
                    metrics: m,
                });
            }
            Plan::Join {
                right,
                kind,
                left_keys,
                right_keys,
                ..
            } => {
                let right_types: Vec<DataType> = right
                    .schema(&ctx.catalog)?
                    .fields()
                    .iter()
                    .map(|f| f.dtype)
                    .collect();
                let (build, right_metrics) =
                    crate::build::join_build(right, right_keys, &right_types, &m, ctx)?;
                node = MetricsNode::new(m.clone(), vec![node, right_metrics]);
                fused.push(FusedStage::Probe {
                    build,
                    kind: *kind,
                    left_keys: left_keys.clone(),
                    right_types,
                    metrics: m,
                    built: None,
                });
            }
            _ => unreachable!("collect_chain admits only Select/Project/Join"),
        }
    }
    Ok((FusedChain::new(fused, ctx.fail.clone()), node))
}

/// Test drivers shared with `filter.rs` and `join.rs`, whose hand-computed
/// cases run against the chain over both source kinds.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::op::run_to_batch;
    pub(crate) use crate::op::testing::BatchSource;
    use rdb_storage::Table;
    use rdb_vector::{Field, Schema};

    /// `stages` over an operator source replaying `input`.
    pub(crate) fn over_operator(stages: Vec<FusedStage>, input: Vec<Batch>) -> FusedPipelineExec {
        FusedPipelineExec::new(
            ChainSource::Operator(BatchSource::boxed(input)),
            FusedChain::new(stages, FailSlot::shared()),
        )
    }

    /// `stages` over a morsel dispenser scanning the rows of `input`
    /// (non-empty) as one table.
    pub(crate) fn over_morsels(stages: Vec<FusedStage>, input: &[Batch]) -> FusedPipelineExec {
        let all = Batch::concat(input);
        let fields = all
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
            .collect();
        let projection = (0..all.width()).collect();
        let table = Arc::new(Table::new("t", Schema::new(fields), all.into_columns()));
        let dispenser = MorselDispenser::new(table, projection, OpMetrics::shared());
        FusedPipelineExec::new(
            ChainSource::Morsels(Arc::new(dispenser)),
            FusedChain::new(stages, FailSlot::shared()),
        )
    }

    /// `batch` with a dead copy inserted after every row and a selection
    /// vector narrowing it back to the original rows: what a chain sees
    /// from a source that filtered upstream.
    pub(crate) fn with_dead_rows(batch: &Batch) -> Batch {
        let n = batch.rows() as u32;
        let doubled: Vec<u32> = (0..n).flat_map(|i| [i, i]).collect();
        let live: Vec<u32> = (0..n).map(|i| 2 * i).collect();
        batch.take(&doubled).with_selection(Arc::new(live))
    }

    /// Run `stages` over `input` every way a chain can be fed — a morsel
    /// dispenser, an operator source with dense batches, an operator
    /// source whose batches carry selections — assert the three agree on
    /// the logical rows and their order, and return them.
    pub(crate) fn run_every_way(stages: Vec<FusedStage>, input: Vec<Batch>) -> Batch {
        let selected = input.iter().map(with_dead_rows).collect();
        let from_morsels = run_to_batch(&mut over_morsels(stages.clone(), &input));
        let dense = run_to_batch(&mut over_operator(stages.clone(), input));
        let sparse = run_to_batch(&mut over_operator(stages, selected));
        assert_eq!(
            from_morsels.to_rows(),
            dense.to_rows(),
            "morsel vs operator source"
        );
        assert_eq!(
            dense.to_rows(),
            sparse.to_rows(),
            "dense vs selection-carrying input"
        );
        dense
    }

    /// A `Select` stage with fresh metrics.
    pub(crate) fn filter(pred: Expr) -> FusedStage {
        FusedStage::Filter {
            pred: CompiledPredicate::compile(&pred),
            metrics: OpMetrics::shared(),
        }
    }

    /// A `Project` stage with fresh metrics.
    pub(crate) fn project(exprs: Vec<Expr>) -> FusedStage {
        FusedStage::Project {
            exprs,
            metrics: OpMetrics::shared(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;
    use crate::op::run_to_batch;
    use rdb_plan::scan;

    fn ints(v: Vec<i64>) -> Batch {
        Batch::new(vec![Column::from_ints(v)])
    }

    fn stage_metrics(stages: &[FusedStage]) -> Vec<Arc<OpMetrics>> {
        stages.iter().map(|s| s.metrics().clone()).collect()
    }

    #[test]
    fn spans_are_recognized_over_any_source() {
        let dim = scan("d", &["k"]);
        let over_scan = scan("t", &["k"])
            .select(Expr::col(0).gt(Expr::lit(1)))
            .join(dim, JoinKind::Semi, vec![Expr::col(0)], vec![Expr::col(0)])
            .project(vec![(Expr::col(0), "k")]);
        let (stages, source) = collect_chain(&over_scan);
        assert_eq!(stages.len(), 3, "select, probe and project are one span");
        assert!(matches!(stages[0], Plan::Project { .. }), "top-down");
        assert!(matches!(source, Plan::Scan { table, .. } if table == "t"));
        assert_eq!(fused_span(&over_scan), Some(3));
        // A breaker ends the span below it and starts no span itself.
        let above = scan("t", &["k"])
            .top_n(vec![], 5)
            .select(Expr::col(0).gt(Expr::lit(1)));
        let (stages, source) = collect_chain(&above);
        assert_eq!(stages.len(), 1);
        assert!(matches!(source, Plan::TopN { .. }));
        assert_eq!(fused_span(source), None);
        assert_eq!(fused_span(&scan("t", &["k"])), None);
    }

    #[test]
    fn metrics_match_the_per_node_contract() {
        // Morsel 1 is killed by the first filter, morsel 2 passes both.
        let stages = vec![
            filter(Expr::col(0).gt(Expr::lit(10))),
            filter(Expr::col(0).lt(Expr::lit(13))),
        ];
        let ms = stage_metrics(&stages);
        assert_eq!(ms[1].calls(), 0, "never ran: the zero-call marker");
        let mut exec = over_operator(stages, vec![ints(vec![1, 2, 3]), ints(vec![11, 12, 13])]);
        let out = run_to_batch(&mut exec);
        assert_eq!(out.to_rows().len(), 2);
        // Two inputs plus the exhausted pull, on every stage — the stage
        // above a killed input included.
        assert_eq!(ms[0].calls(), 3);
        assert_eq!(ms[1].calls(), 3);
        assert_eq!(ms[0].rows_out(), 3);
        assert_eq!(ms[1].rows_out(), 2);
        assert_eq!(ms[1].bytes_out(), out.size_bytes() as u64);
        // One span time, charged to every stage.
        assert!(ms[0].time_ns() > 0);
        assert_eq!(ms[0].time_ns(), ms[1].time_ns());
    }

    #[test]
    fn span_time_includes_the_source_pull() {
        struct Slow(Option<Batch>);
        impl Operator for Slow {
            fn next_batch(&mut self) -> Option<Batch> {
                std::thread::sleep(std::time::Duration::from_millis(5));
                self.0.take()
            }
            fn progress(&self) -> f64 {
                0.25
            }
        }
        let stages = vec![filter(Expr::col(0).gt(Expr::lit(0)))];
        let ms = stage_metrics(&stages);
        let mut exec = FusedPipelineExec::new(
            ChainSource::Operator(Box::new(Slow(Some(ints(vec![1]))))),
            FusedChain::new(stages, FailSlot::shared()),
        );
        assert_eq!(exec.progress(), 0.25, "an operator source's own meter");
        assert_eq!(run_to_batch(&mut exec).rows(), 1);
        // Both pulls (the batch and the exhausted one) slept inside the span.
        assert!(ms[0].time_ns() >= 10_000_000, "{} ns", ms[0].time_ns());
    }
}
