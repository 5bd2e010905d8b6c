//! Morsel-driven intra-query parallelism.
//!
//! A *pipeline* — the stretch of pipelining stages (selection,
//! projection, join probes) between a base-table scan and the next
//! pipeline breaker — is the unit of parallel execution. The scan is split
//! into [`rdb_vector::BATCH_CAPACITY`]-sized **morsels** (O(1) zero-copy
//! column windows over the pinned table snapshot); a [`MorselDispenser`]
//! hands them out to workers on demand, which is the load balancing: fast
//! workers simply take more morsels. Every worker owns a private clone of
//! the pipeline's [`FusedChain`] — the same chain the serial executor
//! drives, advanced one morsel at a time — so no stage state is ever
//! shared between threads. Only three things are: the dispenser, the
//! per-plan-node [`OpMetrics`] (atomic counters, summed across workers),
//! and a hash join's [`crate::join::SharedBuild`] (built exactly once, by
//! the first worker that needs it).
//!
//! **Determinism.** Parallel execution must be observationally identical
//! to serial execution — the recycler caches results by plan fingerprint
//! and replays them byte-for-byte, so a `store` tee under a parallel
//! pipeline has to publish the same `MaterializedResult` at any DOP:
//!
//! * the morsel grid is a pure function of the table's row count
//!   ([`rdb_vector::morsel_count`]), identical to the serial scan's batch
//!   boundaries;
//! * each morsel's trip through the chain is a pure function of the
//!   morsel (stages are deterministic), so worker interleaving can only
//!   permute *whole morsel outputs*;
//! * [`GatherExec`] undoes that permutation: workers tag outputs with
//!   their morsel index and the gather re-sequences them, emitting exactly
//!   the serial batch sequence;
//! * order-insensitive breakers take the other route: parallel aggregation
//!   merges per-worker `GroupTable` partials and sorts groups by key
//!   (the serial aggregate emits in the same sorted order), and parallel
//!   top-N merges per-worker heap runs whose ties are broken by global
//!   scan position (the serial top-N uses the same rule).
//!
//! **Failure.** A failing stage ends its worker's chain with a structured
//! [`ExecError`] in the query's shared [`FailSlot`] (see [`crate::fuse`]),
//! and a worker panicking anywhere else records one before its channel
//! sender drops; the consumer detects the shortfall (morsels missing, a
//! partial missing or the slot set), ends the stream cleanly, and the
//! error surfaces through
//! [`crate::stream::ExecStream::error`] — no panic crosses the gather
//! boundary, and a poisoned source can never publish a truncated result.
//! The pool itself survives ([`crate::pool`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

use rdb_expr::{AggFunc, Expr};
use rdb_plan::{Plan, SortKeyExpr};
use rdb_storage::Table;
use rdb_vector::{morsel_bounds, morsel_count, Batch, DataType};

use crate::agg::{emit_groups, GroupTable};
use crate::error::{panic_message, ExecError, FailSlot};
use crate::fuse::{build_stages, collect_chain, FusedChain};
use crate::metrics::{MetricsNode, OpMetrics};
use crate::op::{timed_next, Operator};
use crate::pool::{run_jobs, Job, WorkerPool};
use crate::sort::TopNState;

/// Hands out `(morsel index, batch)` pairs from a pinned table snapshot.
/// The atomic cursor *is* the work-stealing: workers pull the next morsel
/// whenever they finish one, so skew balances itself at morsel granularity.
pub struct MorselDispenser {
    table: Arc<Table>,
    projection: Vec<usize>,
    next: AtomicUsize,
    total: usize,
    metrics: Arc<OpMetrics>,
    cancel: Option<Arc<AtomicBool>>,
}

impl MorselDispenser {
    /// Dispense the morsels of `table` under `projection`.
    pub fn new(table: Arc<Table>, projection: Vec<usize>, metrics: Arc<OpMetrics>) -> Self {
        let total = morsel_count(table.rows());
        MorselDispenser {
            table,
            projection,
            next: AtomicUsize::new(0),
            total,
            metrics,
            cancel: None,
        }
    }

    /// Observe a cancellation flag: a set flag stops morsel hand-out, so
    /// every worker winds down at its next morsel boundary — the parallel
    /// analog of the serial scan's batch-boundary cancel check. The flag
    /// is only loaded, never cleared.
    pub fn with_cancel(mut self, cancel: Option<Arc<AtomicBool>>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Whether the query driving this dispenser has been cancelled.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Acquire))
    }

    /// Total number of morsels.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Claim the next morsel, or `None` when the scan is exhausted (or the
    /// query was cancelled).
    pub fn next_morsel(&self) -> Option<(u64, Batch)> {
        if self.cancelled() {
            return None;
        }
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.total {
            return None;
        }
        let (offset, len) = morsel_bounds(self.table.rows(), idx);
        let batch = self.table.scan_batch(&self.projection, offset, len);
        self.metrics.add_call();
        self.metrics.add_rows(batch.rows() as u64);
        self.metrics.add_bytes(batch.size_bytes() as u64);
        Some((idx as u64, batch))
    }

    /// Fraction of morsels dispatched so far.
    pub fn progress(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.next.load(Ordering::Relaxed).min(self.total) as f64 / self.total as f64
    }
}

/// A constructed parallel pipeline, ready to be wrapped by a consumer
/// ([`GatherExec`], [`ParallelAggExec`], [`ParallelTopNExec`]).
pub struct ParallelSource {
    /// Shared morsel source (also the progress meter).
    pub dispenser: Arc<MorselDispenser>,
    /// One private chain per worker: clones of one prototype, sharing the
    /// `Arc`ed per-plan-node metrics and build sides but owning their
    /// scratch buffers.
    pub segments: Vec<FusedChain>,
    /// Metrics tree mirroring the pipeline's plan shape.
    pub metrics: MetricsNode,
    /// Pool to run on (`None`: plain spawned threads).
    pub pool: Option<Arc<WorkerPool>>,
    /// Where workers record failures (shared with the whole execution).
    pub fail: Arc<FailSlot>,
}

/// Try to construct a parallel pipeline over `plan` with up to
/// `ctx.parallelism` workers. Returns `Ok(None)` when parallel execution
/// cannot pay off — decided from what is observable here: the span must
/// be rooted at a base-table scan (only a dispenser can be shared), the
/// scan must split into at least two morsels, and the DOP must be at
/// least 2. The caller then builds the same chain for serial execution.
pub fn build_source(
    plan: &Plan,
    ctx: &crate::context::ExecContext,
) -> Result<Option<ParallelSource>, rdb_plan::PlanError> {
    let (stages, source) = collect_chain(plan);
    let Plan::Scan { table, cols } = source else {
        return Ok(None);
    };
    // A bare scan has no per-morsel work to parallelize.
    if ctx.parallelism < 2 || stages.is_empty() {
        return Ok(None);
    }
    let (dispenser, scan_metrics) = crate::build::scan_dispenser(table, cols, ctx)?;
    if dispenser.total() < 2 {
        return Ok(None); // single morsel: serial is strictly cheaper
    }
    let (chain, metrics) = build_stages(&stages, scan_metrics, ctx)?;
    let segments = vec![chain; ctx.parallelism.min(dispenser.total())];
    Ok(Some(ParallelSource {
        dispenser,
        segments,
        metrics,
        pool: ctx.pool.clone(),
        fail: ctx.fail.clone(),
    }))
}

// ---------------------------------------------------------------------------
// Gather: order-preserving parallel pipeline execution
// ---------------------------------------------------------------------------

/// How many morsel results may sit in flight per worker before producers
/// block (backpressure toward a slow consumer).
const GATHER_BACKLOG_PER_WORKER: usize = 4;

struct GatherRun {
    rx: Receiver<(u64, Option<Batch>)>,
    /// Out-of-order arrivals waiting for their turn.
    pending: BTreeMap<u64, Option<Batch>>,
    /// Next morsel index to release.
    next: u64,
    total: u64,
}

enum GatherState {
    Pending(Option<ParallelSource>),
    Running(GatherRun),
    Done,
}

/// Runs a parallel pipeline and re-sequences worker outputs into canonical
/// morsel order, so downstream consumers (stores, breakers, the stream
/// edge) observe exactly the serial batch sequence.
pub struct GatherExec {
    state: GatherState,
    dispenser: Arc<MorselDispenser>,
    fail: Arc<FailSlot>,
}

impl GatherExec {
    /// Wrap a built parallel source.
    pub fn new(source: ParallelSource) -> GatherExec {
        let dispenser = source.dispenser.clone();
        let fail = source.fail.clone();
        GatherExec {
            state: GatherState::Pending(Some(source)),
            dispenser,
            fail,
        }
    }

    fn start(source: ParallelSource) -> GatherRun {
        let ParallelSource {
            dispenser,
            segments,
            pool,
            ..
        } = source;
        let workers = segments.len();
        let (tx, rx) = sync_channel(workers * GATHER_BACKLOG_PER_WORKER);
        let total = dispenser.total() as u64;
        let jobs: Vec<Job> = segments
            .into_iter()
            .map(|mut seg| {
                let dispenser = dispenser.clone();
                let tx = tx.clone();
                // Every fallible part of this loop runs inside `step`,
                // which reports into the fail slot itself.
                Box::new(move || {
                    // Hold each morsel's output until the next one is
                    // claimed: the chain's end-of-input metrics flush then
                    // happens before this worker's final send, i.e.
                    // strictly before the consumer can observe stream end.
                    let mut held: Option<(u64, Option<Batch>)> = None;
                    while let Some(out) = seg.step(|| dispenser.next_morsel()) {
                        if let Some(prev) = held.replace(out) {
                            if tx.send(prev).is_err() {
                                return; // consumer dropped the stream
                            }
                        }
                    }
                    if let Some(prev) = held {
                        let _ = tx.send(prev);
                    }
                }) as Job
            })
            .collect();
        drop(tx);
        run_jobs(pool.as_ref(), jobs);
        GatherRun {
            rx,
            pending: BTreeMap::new(),
            next: 0,
            total,
        }
    }
}

impl Operator for GatherExec {
    fn next_batch(&mut self) -> Option<Batch> {
        loop {
            match &mut self.state {
                GatherState::Pending(source) => {
                    let Some(source) = source.take() else {
                        self.fail
                            .set(ExecError::msg("parallel gather restarted after teardown"));
                        self.state = GatherState::Done;
                        return None;
                    };
                    self.state = GatherState::Running(Self::start(source));
                }
                GatherState::Running(run) => {
                    if run.next == run.total {
                        self.state = GatherState::Done;
                        return None;
                    }
                    if let Some(out) = run.pending.remove(&run.next) {
                        run.next += 1;
                        if out.is_some() {
                            return out;
                        }
                        continue;
                    }
                    match run.rx.recv() {
                        Ok((idx, out)) => {
                            run.pending.insert(idx, out);
                        }
                        Err(_) => {
                            if !self.dispenser.cancelled() {
                                // A worker ended short: a failed stage
                                // already put the cause in the slot; make
                                // sure *something* is there, then end the
                                // stream. The session layer reads the slot
                                // and aborts recycler bookkeeping — a
                                // truncated stream never publishes.
                                self.fail.set(ExecError::msg(format!(
                                    "parallel pipeline worker failed before morsel {} of {}",
                                    run.next, run.total
                                )));
                            }
                            // On cancel the missing indices will simply
                            // never arrive; the connection layer reports
                            // the cancel itself.
                            self.state = GatherState::Done;
                            return None;
                        }
                    }
                }
                GatherState::Done => return None,
            }
        }
    }

    fn progress(&self) -> f64 {
        match &self.state {
            GatherState::Done => 1.0,
            // Morsels *dispatched* (the serial scan meter's analog);
            // slightly ahead of what has been emitted, which is what
            // speculative stores want for extrapolation.
            _ => self.dispenser.progress(),
        }
    }
}

// ---------------------------------------------------------------------------
// Partitioned breakers: aggregation and top-N over per-worker partials
// ---------------------------------------------------------------------------

/// Run the pipeline to completion, one `fold` state per worker, and hand
/// the partials back. `fold` receives the morsel index alongside each
/// output batch (top-N derives position tie-breaks from it; aggregation
/// ignores it). A dead worker never sends its partial — the shortfall
/// comes back as the structured error the worker recorded. (Cancellation
/// is not a shortfall: it stops morsel hand-out, so every worker still
/// winds down normally and sends its partial.)
fn run_partials<S: Send + 'static>(
    source: ParallelSource,
    make: impl Fn() -> S,
    fold: impl Fn(&mut S, u64, Batch) + Send + Sync + Clone + 'static,
) -> Result<Vec<S>, ExecError> {
    let ParallelSource {
        dispenser,
        segments,
        pool,
        fail,
        ..
    } = source;
    let workers = segments.len();
    let (tx, rx) = sync_channel(workers);
    let jobs: Vec<Job> = segments
        .into_iter()
        .map(|mut seg| {
            let dispenser = dispenser.clone();
            let tx = tx.clone();
            let fold = fold.clone();
            let fail = fail.clone();
            let mut state = make();
            Box::new(move || {
                let res = catch_unwind(AssertUnwindSafe(move || {
                    // The chain flushes its deferred metrics at end of
                    // input, i.e. before the partial is sent: the breaker
                    // counts partials to detect completion.
                    while let Some((idx, out)) = seg.step(|| dispenser.next_morsel()) {
                        if let Some(out) = out {
                            fold(&mut state, idx, out);
                        }
                    }
                    let _ = tx.send(state);
                }));
                if let Err(p) = res {
                    fail.set(ExecError::msg(format!(
                        "parallel pipeline worker panicked: {}",
                        panic_message(p.as_ref())
                    )));
                }
            }) as Job
        })
        .collect();
    drop(tx);
    run_jobs(pool.as_ref(), jobs);
    let partials: Vec<S> = rx.into_iter().collect();
    // A worker whose chain recorded a stage failure still winds down and
    // sends its (truncated) partial, so the slot is checked as well.
    if partials.len() != workers || fail.is_set() {
        return Err(fail.get().unwrap_or_else(|| {
            ExecError::msg(format!(
                "a parallel breaker worker failed ({} of {workers} partials arrived)",
                partials.len(),
            ))
        }));
    }
    Ok(partials)
}

/// Partitioned hash aggregation: every worker folds its morsels into a
/// private `GroupTable`; the partials are merged at the breaker and the
/// merged groups emitted sorted by key — the same order the serial
/// aggregate emits, so the result is independent of the merge order.
pub struct ParallelAggExec {
    source: Option<ParallelSource>,
    group_by: Vec<Expr>,
    aggs: Vec<AggFunc>,
    input_types: Vec<DataType>,
    output_types: Vec<DataType>,
    output: Option<Vec<Batch>>,
    emitted: usize,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
}

impl ParallelAggExec {
    /// See [`crate::agg::HashAggExec::new`] for the parameter contract.
    pub fn new(
        source: ParallelSource,
        group_by: Vec<Expr>,
        aggs: Vec<AggFunc>,
        input_types: Vec<DataType>,
        output_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        assert_eq!(group_by.len() + aggs.len(), output_types.len());
        let fail = source.fail.clone();
        ParallelAggExec {
            source: Some(source),
            group_by,
            aggs,
            input_types,
            output_types,
            output: None,
            emitted: 0,
            metrics,
            fail,
        }
    }

    fn build(&mut self) -> Result<Vec<Batch>, ExecError> {
        let Some(source) = self.source.take() else {
            return Err(ExecError::msg(
                "parallel aggregate restarted after teardown",
            ));
        };
        let group_by = self.group_by.clone();
        let aggs = self.aggs.clone();
        let input_types = self.input_types.clone();
        let agg_metrics = self.metrics.clone();
        let partials = run_partials(
            source,
            || GroupTable::new(group_by.clone(), aggs.clone(), input_types.clone()),
            move |table, _idx, batch| {
                agg_metrics.add_work(batch.rows() as u64);
                table.fold(&batch);
            },
        )?;
        let mut merged = GroupTable::new(
            self.group_by.clone(),
            self.aggs.clone(),
            self.input_types.clone(),
        );
        for p in partials {
            merged.merge(p);
        }
        let states = merged.into_sorted_states();
        Ok(emit_groups(
            &states,
            &self.output_types,
            self.group_by.len(),
        ))
    }
}

impl Operator for ParallelAggExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.output.is_none() {
                match self.build() {
                    Ok(built) => self.output = Some(built),
                    Err(e) => {
                        // Surface through the fail slot and end the stream.
                        self.fail.set(e);
                        self.output = Some(Vec::new());
                    }
                }
            }
            let out = self.output.as_ref()?;
            if self.emitted < out.len() {
                let b = out[self.emitted].clone();
                self.emitted += 1;
                Some(b)
            } else {
                None
            }
        })
    }

    fn progress(&self) -> f64 {
        match &self.output {
            None => 0.0,
            Some(out) => {
                if out.is_empty() {
                    1.0
                } else {
                    self.emitted as f64 / out.len() as f64
                }
            }
        }
    }
}

/// Partitioned top-N: per-worker heap runs (ties broken by global scan
/// position, exactly like the serial operator) merged at the breaker.
pub struct ParallelTopNExec {
    source: Option<ParallelSource>,
    keys: Vec<SortKeyExpr>,
    n: usize,
    output_types: Vec<DataType>,
    output: Option<Vec<Batch>>,
    emitted: usize,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
}

impl ParallelTopNExec {
    /// Keep the first `n` rows of the pipeline under `keys` order.
    pub fn new(
        source: ParallelSource,
        keys: Vec<SortKeyExpr>,
        n: usize,
        output_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        let fail = source.fail.clone();
        ParallelTopNExec {
            source: Some(source),
            keys,
            n,
            output_types,
            output: None,
            emitted: 0,
            metrics,
            fail,
        }
    }

    fn build(&mut self) -> Result<Vec<Batch>, ExecError> {
        let Some(source) = self.source.take() else {
            return Err(ExecError::msg("parallel top-N restarted after teardown"));
        };
        let keys = self.keys.clone();
        let n = self.n;
        let topn_metrics = self.metrics.clone();
        let partials = run_partials(
            source,
            || TopNState::new(keys.clone(), n),
            move |state, idx, batch| {
                topn_metrics.add_work(batch.rows() as u64);
                // The morsel index feeds the global-scan-position
                // tie-break, matching the serial operator's chunk ordinal.
                state.fold(&batch, idx);
            },
        )?;
        let mut merged = TopNState::new(self.keys.clone(), self.n);
        for p in partials {
            merged.merge(p);
        }
        Ok(merged.into_batches(&self.output_types))
    }
}

impl Operator for ParallelTopNExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.output.is_none() {
                match self.build() {
                    Ok(built) => self.output = Some(built),
                    Err(e) => {
                        self.fail.set(e);
                        self.output = Some(Vec::new());
                    }
                }
            }
            let out = self.output.as_ref()?;
            if self.emitted < out.len() {
                let b = out[self.emitted].clone();
                self.emitted += 1;
                Some(b)
            } else {
                None
            }
        })
    }

    fn progress(&self) -> f64 {
        match &self.output {
            None => 0.0,
            Some(out) => {
                if out.is_empty() {
                    1.0
                } else {
                    self.emitted as f64 / out.len() as f64
                }
            }
        }
    }
}
