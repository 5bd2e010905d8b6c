//! The pipeline executor: filter → project → join-probe chains run as one
//! push-style loop per input batch.
//!
//! A [`FusedChain`] is the only implementation of selection, projection,
//! join-probe and store-tee semantics in this crate. Every maximal span of
//! pipelining plan nodes (`Select`, `Project`, the probe side of `Join`,
//! and `Store`) becomes one chain over one source, and the chain pushes
//! each input batch through all of its stages before the next is pulled:
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
//! A chain's source ([`ChainSource`]) is either a [`MorselDispenser`] —
//! over a table snapshot or a cached result, on the morsel grid of its
//! row count — or an operator (aggregate, top-N, sort, limit, table
//! function, union). A bare scan or cached leaf is a chain of no stages.
//! A dispenser can be shared, so a dispenser-rooted chain runs serially or
//! cloned once per worker ([`crate::parallel`]) — the same code either
//! way. An operator-sourced chain is driven serially and reports its
//! source's progress. Each input carries its index in canonical order:
//! the morsel index, or the operator's batch ordinal.
//!
//! # Boundary rule
//!
//! A chain changes the *iteration shape* of a pipeline, never its
//! observable batch sequence. It spans pipelining stages only and always
//! stops at pipeline breakers (aggregate, sort, top-N, the build side of
//! a join), at `Limit` and `UnionAll`, and at gather points. Per input it
//! emits the same logical rows in the same order whoever drives it, with
//! the sparse-compaction heuristic ([`crate::filter::COMPACT_FRACTION`]),
//! NULL-key and candidate-verification join behavior, and the per-node
//! rows / bytes / work / calls metrics the recycler's cost model consumes.
//! A store tee records each input's live rows under its index and
//! publishes them in index order — byte-identical at any DOP — when the
//! chain's consumer resolves it, once, before reporting end of stream.
//!
//! # Timing rule
//!
//! A chain cannot time stages individually, so one driver step — the
//! source pull *and* the push through every stage — is measured as a
//! whole and charged to the stages of the span, so the span root's time is
//! inclusive of its subtree (what the recycler reads for subtree cost). A
//! store tee splits the step: stages below it are charged up to the tee's
//! entry, the tee up to its exit, stages above it the whole step — a
//! stored node's cost leaves out speculation and the stages above. A leaf
//! read through a dispenser is not timed. Counters accumulate in
//! per-chain `StageLocal`s, flushed to the shared atomics every
//! `FLUSH_EVERY` steps and at end of input.
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
use rdb_plan::{JoinKind, Plan, PlanError, StoreMode};
use rdb_vector::{hash_columns, Batch, Column, DataType};

use crate::context::ExecContext;
use crate::error::{panic_message, ExecError, FailSlot};
use crate::filter::COMPACT_FRACTION;
use crate::join::{BuildSide, ProbePairs, SharedBuild};
use crate::metrics::{MetricsNode, OpMetrics};
use crate::op::Operator;
use crate::parallel::MorselDispenser;
use crate::store::StoreTee;

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
    /// `Store`: record the live rows into the store's tee, shared by every
    /// clone of the chain, and pass them on unchanged.
    Tee {
        tee: Arc<StoreTee>,
        metrics: Arc<OpMetrics>,
    },
}

impl FusedStage {
    fn metrics(&self) -> &Arc<OpMetrics> {
        match self {
            FusedStage::Filter { metrics, .. }
            | FusedStage::Project { metrics, .. }
            | FusedStage::Probe { metrics, .. }
            | FusedStage::Tee { metrics, .. } => metrics,
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

/// A chain's reusable buffers.
#[derive(Clone, Default)]
struct Scratch {
    /// Live selection indices (chain state between stages).
    sel: Vec<u32>,
    /// Second index buffer (semi/anti probe output).
    aux: Vec<u32>,
    /// Per-row probe-key hashes.
    hashes: Vec<u64>,
    /// Inner and left-outer probe output.
    pairs: ProbePairs,
    /// `(stage, entry, exit)` of each tee this step's input reached,
    /// bottom-up (see the module's timing rule).
    tee_marks: Vec<(usize, Instant, Instant)>,
}

/// A chain of pipeline stages plus its reusable scratch buffers. One
/// instance per driver (clones share the `Arc`ed metrics, build sides,
/// store tees and failure slot but own their scratch), advanced one input
/// batch at a time via [`FusedChain::step`].
#[derive(Clone)]
pub struct FusedChain {
    stages: Vec<FusedStage>,
    /// Locally accumulated per-stage counters (see [`StageLocal`]).
    locals: Vec<StageLocal>,
    /// Steps since the last metrics flush.
    since_flush: u32,
    /// Whether this clone has stepped yet (the first step starts the tees'
    /// speculation clocks).
    begun: bool,
    scratch: Scratch,
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
            begun: false,
            scratch: Scratch::default(),
            fail,
            failed: false,
        }
    }

    fn tees(&self) -> impl Iterator<Item = &StoreTee> {
        self.stages.iter().filter_map(|s| match s {
            FusedStage::Tee { tee, .. } => Some(&**tee),
            _ => None,
        })
    }

    /// One driver step, shared by the serial operator and the parallel
    /// workers: pull the next `(index, input)` from `source` and push it
    /// through every stage. The pull happens inside the measured span (see
    /// the module's timing rule).
    ///
    /// `None` ends the chain's stream: the source is exhausted, or a stage
    /// failed and the error is in the failure slot. `Some((idx, None))`
    /// means this input's rows were all filtered out or unmatched.
    pub fn step(&mut self, source: &mut ChainSource) -> Option<(u64, Option<Batch>)> {
        if self.failed {
            return None;
        }
        let start = Instant::now();
        if !self.begun {
            self.begun = true;
            self.tees().for_each(|t| t.begin(start));
        }
        self.scratch.tee_marks.clear();
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            let Some((idx, input)) = source.pull() else {
                return Ok(None);
            };
            let out = run_chain(
                &mut self.stages,
                &mut self.locals,
                &mut self.scratch,
                idx,
                input,
                source,
            )?;
            Ok(Some((idx, out)))
        }));
        let end = Instant::now();
        // Every stage counts every pull, the exhausted one and those an
        // earlier stage emptied included, so a call count is zero only if
        // the chain never ran — the recycler's marker for a join build
        // input never drained (its probe side was empty). A stage below a
        // tee is charged up to the tee's entry, a tee up to its exit.
        let mut marks = self.scratch.tee_marks.iter().peekable();
        for (i, l) in self.locals.iter_mut().enumerate() {
            let until = match marks.peek() {
                Some(&&(tee, entry, _)) if i < tee => entry,
                Some(&&(_, _, exit)) => {
                    marks.next();
                    exit
                }
                None => end,
            };
            l.time += until.duration_since(start).as_nanos() as u64;
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

    /// Resolve every store tee of the chain (`StoreTee::resolve`). Only
    /// the chain's consumer calls this, once its whole input is in: the
    /// serial operator at end of input, a gather or a partitioned breaker
    /// once every worker is done — never a worker.
    pub(crate) fn resolve_tees(&self) {
        self.tees().for_each(StoreTee::resolve);
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
    let span = *span.get_or_insert_with(|| cur.columns().iter().map(Column::stream_bytes).sum());
    (span * rows).checked_div(cur.physical_rows()).unwrap_or(0) as u64
}

/// Push input `idx` through every stage. `source` is the chain's source,
/// whose progress a speculating tee reads.
fn run_chain(
    stages: &mut [FusedStage],
    locals: &mut [StageLocal],
    scratch: &mut Scratch,
    idx: u64,
    input: Batch,
    source: &ChainSource,
) -> Result<Option<Batch>, ExecError> {
    let Scratch {
        sel: sel_buf,
        aux,
        hashes,
        pairs,
        tee_marks,
    } = scratch;
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
    for (i, (stage, local)) in stages.iter_mut().zip(locals.iter_mut()).enumerate() {
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
            FusedStage::Tee { tee, .. } => {
                let entry = Instant::now();
                let rows = live_len(&cur, dense, sel_buf);
                local.rows += rows as u64;
                local.bytes += out_bytes(&cur, rows, &mut span);
                let live = || {
                    if dense {
                        cur.clone()
                    } else {
                        cur.clone().with_selection(Arc::new(sel_buf.clone()))
                    }
                };
                tee.record(idx, live, || source.progress());
                tee_marks.push((i, entry, Instant::now()));
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

/// Where a chain's input batches come from (see the module docs). Each
/// input carries an index, its place in canonical order: the morsel index,
/// or the batch ordinal of an operator.
pub enum ChainSource {
    /// Morsels of a table snapshot or a cached result.
    Morsels(Arc<MorselDispenser>),
    /// Any other child operator, pulled one batch at a time, with the
    /// number of batches pulled so far.
    Operator(Box<dyn Operator>, u64),
}

impl ChainSource {
    fn pull(&mut self) -> Option<(u64, Batch)> {
        match self {
            ChainSource::Morsels(d) => d.next_morsel(),
            ChainSource::Operator(op, pulled) => {
                let batch = op.next_batch()?;
                *pulled += 1;
                Some((*pulled - 1, batch))
            }
        }
    }

    fn progress(&self) -> f64 {
        match self {
            ChainSource::Morsels(d) => d.progress(),
            ChainSource::Operator(op, _) => op.progress(),
        }
    }
}

/// The serial pipeline operator: drives one [`FusedChain`] over its source
/// on the caller's thread, and resolves the chain's store tees at end of
/// input, before it reports end of stream. Under parallel execution clones
/// of the same chain run on workers instead (see
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
            match self.chain.step(&mut self.source) {
                Some((_, Some(out))) => return Some(out),
                Some((_, None)) => {}
                None => {
                    self.chain.resolve_tees();
                    return None;
                }
            }
        }
    }

    fn progress(&self) -> f64 {
        self.source.progress()
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
            Plan::Select { child, .. }
            | Plan::Project { child, .. }
            | Plan::Store { child, .. } => child,
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
/// metrics tree mirroring the span. Join build sides come from
/// [`crate::build::join_build`], which follows the tags the recycler put
/// on the build input — the same artifact whatever the source kind or
/// DOP. Each store gets its one tee for this execution; a build target
/// outside a join's build input is an error.
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
            Plan::Store {
                mode: StoreMode::Build,
                ..
            } => {
                return Err(PlanError::msg(
                    "a build target is only valid as a join's build input",
                ));
            }
            Plan::Store { child, tag, mode } => {
                let store = ctx
                    .store
                    .clone()
                    .ok_or_else(|| PlanError::msg("store node without a result store"))?;
                let tee = StoreTee::new(
                    *tag,
                    child.schema(&ctx.catalog)?,
                    store,
                    *mode == StoreMode::Speculate,
                    ctx.cancel.clone(),
                    ctx.fail.clone(),
                );
                node = MetricsNode::new(m.clone(), vec![node]);
                fused.push(FusedStage::Tee {
                    tee: Arc::new(tee),
                    metrics: m,
                });
            }
            _ => unreachable!("collect_chain admits only Select/Project/Join/Store"),
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
            ChainSource::Operator(BatchSource::boxed(input), 0),
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
    use crate::store::testing::tee;
    use crate::store::{MaterializedResult, ResultStore, SpeculationEstimate, StoreVerdict};
    use rdb_plan::{scan, StoreMode};

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
        // A store tee is a stage; a cached result is a source, like a scan.
        let cached = Plan::Cached {
            tag: 1,
            schema: rdb_vector::Schema::from_pairs([("k", DataType::Int)]),
        };
        let teed = cached
            .select(Expr::col(0).gt(Expr::lit(1)))
            .store(2, StoreMode::Speculate);
        let (stages, source) = collect_chain(&teed);
        assert!(matches!(stages[0], Plan::Store { .. }));
        assert_eq!(stages.len(), 2);
        assert!(matches!(source, Plan::Cached { .. }));
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
            ChainSource::Operator(Box::new(Slow(Some(ints(vec![1])))), 0),
            FusedChain::new(stages, FailSlot::shared()),
        );
        assert_eq!(exec.progress(), 0.25, "an operator source's own meter");
        assert_eq!(run_to_batch(&mut exec).rows(), 1);
        // Both pulls (the batch and the exhausted one) slept inside the span.
        assert!(ms[0].time_ns() >= 10_000_000, "{} ns", ms[0].time_ns());
    }

    #[test]
    fn tee_time_is_charged_to_the_tee_and_above() {
        // A speculating store whose verdict takes 5 ms: that time belongs
        // to the tee and the stage above it, never to the stage below.
        struct SlowVerdict;
        impl ResultStore for SlowVerdict {
            fn fetch(&self, _tag: u64) -> Option<Arc<MaterializedResult>> {
                None
            }
            fn publish(&self, _tag: u64, _result: MaterializedResult) {}
            fn abandon(&self, _tag: u64) {}
            fn speculate(&self, _tag: u64, _est: &SpeculationEstimate) -> StoreVerdict {
                std::thread::sleep(std::time::Duration::from_millis(5));
                StoreVerdict::Undecided
            }
        }
        let schema = rdb_vector::Schema::from_pairs([("x", DataType::Int)]);
        let stages = vec![
            filter(Expr::col(0).gt(Expr::lit(0))),
            tee(1, schema, Arc::new(SlowVerdict), true),
            filter(Expr::col(0).gt(Expr::lit(0))),
        ];
        let ms = stage_metrics(&stages);
        let mut exec = over_operator(stages, vec![ints(vec![1, 2]), ints(vec![3])]);
        assert_eq!(run_to_batch(&mut exec).rows(), 3);
        let [below, tee, above] = [0, 1, 2].map(|i| ms[i].time_ns());
        // Two inputs reached the tee, one verdict each.
        assert!(tee >= below + 10_000_000, "below {below} ns, tee {tee} ns");
        assert!(above >= tee, "tee {tee} ns, above {above} ns");
    }
}
