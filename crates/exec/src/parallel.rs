//! Morsel-driven intra-query parallelism.
//!
//! A *pipeline* — the stretch of pipelining stages (selection,
//! projection, join probes, store tees) between a table scan or a cached
//! leaf and the next pipeline breaker — is the unit of parallel
//! execution. The leaf is split into [`rdb_vector::BATCH_CAPACITY`]-sized
//! **morsels** (O(1) zero-copy column windows over the pinned table
//! snapshot or the leased result); a [`MorselDispenser`] hands them out to
//! workers on demand, which is the load balancing: fast workers simply
//! take more morsels. Every worker owns a private clone of the pipeline's
//! [`FusedChain`] — the same chain the serial executor drives, advanced
//! one morsel at a time — so no stage-local state is ever shared between
//! threads. Only four things are: the dispenser, the per-plan-node
//! [`OpMetrics`] (atomic counters, summed across workers), a hash join's
//! [`crate::join::SharedBuild`] (built exactly once, by the first worker
//! that needs it), and a store's [`crate::store::StoreTee`] (one lock,
//! taken once per morsel that reaches the tee).
//!
//! **Determinism.** Parallel execution must be observationally identical
//! to serial execution — the recycler caches results by plan fingerprint
//! and replays them byte-for-byte, so a `store` tee in a parallel
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
//! * a store tee records `(morsel index, batch)` pairs as workers deliver
//!   them and publishes them in morsel order — the serial sequence, with
//!   the morsels a stage below the tee emptied left out, as serially;
//! * order-insensitive breakers take the other route: an aggregate or
//!   top-N over [`BreakerInput::Partitioned`] input folds one state per
//!   worker and merges the partials into the first (`fold_input`, the
//!   same driver that folds serial input into one state). Aggregation
//!   maps each partial's group ids onto the merged table's and sorts
//!   groups by key, the order the serial aggregate emits; top-N breaks
//!   ties by global scan position, morsel index here and batch ordinal
//!   serially.
//!
//! **Completion.** A worker never resolves a tee. The consumer of a
//! parallel pipeline does, exactly once, when its whole input is in: a
//! [`GatherExec`] once every morsel has arrived *and* its channel has
//! disconnected (every worker has exited, its chain's metrics flushed),
//! a partitioned breaker once every partial is in. Only then does the
//! consumer see end of stream. A consumer that stops early (a `LIMIT`, a
//! dropped stream) resolves nothing; the recycler abandons the target.
//!
//! **Failure.** A failing stage ends its worker's chain with a structured
//! [`ExecError`] in the query's shared [`FailSlot`] (see [`crate::fuse`]),
//! and a worker panicking anywhere else records one before its channel
//! sender drops; the gather detects the shortfall (morsels missing),
//! ends the stream cleanly, and the error surfaces through
//! [`crate::stream::ExecStream::error`] — no panic crosses the gather
//! boundary, and a tee over a poisoned source abandons instead of
//! publishing a truncated result.
//! Breakers follow one rule, serial or partitioned: once the input ends,
//! a set slot (or a missing partial) is the answer, and the breaker emits
//! no rows. The pool itself survives ([`crate::pool`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

use rdb_plan::Plan;
use rdb_storage::Table;
use rdb_vector::{morsel_bounds, morsel_count, Batch};

use crate::error::{panic_message, ExecError, FailSlot};
use crate::fuse::{build_stages, collect_chain, ChainSource, FusedChain};
use crate::metrics::{MetricsNode, OpMetrics};
use crate::op::Operator;
use crate::pool::{run_jobs, Job, WorkerPool};

/// Hands out `(morsel index, batch)` pairs from a pinned table snapshot
/// (a base table's, or one over a cached result's chunks). The atomic
/// cursor *is* the work-stealing: workers pull the next morsel whenever
/// they finish one, so skew balances itself at morsel granularity.
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

/// A constructed parallel pipeline, ready to be consumed by a
/// [`GatherExec`] or a folding breaker ([`BreakerInput::Partitioned`]).
pub struct ParallelSource {
    /// Shared morsel source (also the progress meter).
    pub dispenser: Arc<MorselDispenser>,
    /// The chain every worker runs a private clone of (sharing the
    /// `Arc`ed per-plan-node metrics, build sides and store tees, owning
    /// its scratch buffers). The consumer keeps it to resolve the chain's
    /// store tees once every worker is done.
    pub chain: FusedChain,
    /// Number of workers.
    pub workers: usize,
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
/// have at least one stage and be rooted at a dispenser (a table scan or
/// a cached result: only a dispenser can be shared), which must split
/// into at least two morsels, and the DOP must be at least 2. The caller
/// then builds the same chain for serial execution.
pub fn build_source(
    plan: &Plan,
    ctx: &crate::context::ExecContext,
) -> Result<Option<ParallelSource>, rdb_plan::PlanError> {
    let (stages, leaf) = collect_chain(plan);
    // A bare leaf has no per-morsel work to parallelize.
    if ctx.parallelism < 2 || stages.is_empty() {
        return Ok(None);
    }
    let Some((dispenser, leaf_metrics)) = crate::build::leaf_dispenser(leaf, ctx)? else {
        return Ok(None);
    };
    if dispenser.total() < 2 {
        return Ok(None); // single morsel: serial is strictly cheaper
    }
    let (chain, metrics) = build_stages(&stages, leaf_metrics, ctx)?;
    Ok(Some(ParallelSource {
        workers: ctx.parallelism.min(dispenser.total()),
        dispenser,
        chain,
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
    /// The workers' chain, whose store tees resolve at the end.
    chain: FusedChain,
}

enum GatherState {
    Pending(Option<ParallelSource>),
    Running(GatherRun),
    Done,
}

/// Runs a parallel pipeline and re-sequences worker outputs into canonical
/// morsel order, so downstream consumers (breakers, the stream edge)
/// observe exactly the serial batch sequence. It reports end of stream
/// only once its channel has disconnected — every worker has exited, its
/// chain's metrics flushed — and after resolving the chain's store tees.
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
            chain,
            workers,
            pool,
            ..
        } = source;
        let (tx, rx) = sync_channel(workers * GATHER_BACKLOG_PER_WORKER);
        let total = dispenser.total() as u64;
        let jobs: Vec<Job> = (0..workers)
            .map(|_| {
                let mut seg = chain.clone();
                let mut source = ChainSource::Morsels(dispenser.clone());
                let tx = tx.clone();
                // Every fallible part of this loop runs inside `step`,
                // which reports into the fail slot itself.
                Box::new(move || {
                    while let Some(out) = seg.step(&mut source) {
                        if tx.send(out).is_err() {
                            return; // consumer dropped the stream
                        }
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
            chain,
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
                            // Every worker has exited.
                            if run.next < run.total && !self.dispenser.cancelled() {
                                // A worker ended short: a failed stage
                                // already put the cause in the slot; make
                                // sure *something* is there, then end the
                                // stream. The tees below abandon, and the
                                // session layer reads the slot and aborts
                                // recycler bookkeeping — a truncated
                                // stream never publishes.
                                self.fail.set(ExecError::msg(format!(
                                    "parallel pipeline worker failed before morsel {} of {}",
                                    run.next, run.total
                                )));
                            }
                            // On cancel the missing indices will simply
                            // never arrive; the connection layer reports
                            // the cancel itself.
                            run.chain.resolve_tees();
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
            // slightly ahead of what has been emitted.
            _ => self.dispenser.progress(),
        }
    }
}

// ---------------------------------------------------------------------------
// Breaker input: one fold over serial or partitioned input
// ---------------------------------------------------------------------------

/// The input a folding breaker (aggregate, top-N, sort) consumes.
pub enum BreakerInput {
    /// A serial child operator: folded into one state, with its batch
    /// ordinal as the chunk.
    Operator(Box<dyn Operator>),
    /// A dispenser-rooted pipeline split across workers: folded into one
    /// state per worker, with the morsel index as the chunk.
    Partitioned(Box<ParallelSource>),
}

/// Fold a breaker's whole input and merge the partial states into the
/// first. `fold` receives each batch with its chunk, the batch's place in
/// canonical scan order (top-N derives position tie-breaks from it). Every
/// folded row counts as one unit of `metrics`' own work.
///
/// Once the input ends, a set `fail` slot is the answer for either kind
/// of input: a breaker never emits a result folded from a stream that
/// ended short.
pub(crate) fn fold_input<S: Send + 'static>(
    input: BreakerInput,
    fail: &FailSlot,
    metrics: Arc<OpMetrics>,
    make: impl Fn() -> S,
    fold: impl Fn(&mut S, u64, Batch) + Send + Sync + Clone + 'static,
    merge: impl Fn(&mut S, S),
) -> Result<S, ExecError> {
    let fold = move |state: &mut S, chunk: u64, batch: Batch| {
        metrics.add_work(batch.rows() as u64);
        fold(state, chunk, batch);
    };
    let partials = match input {
        BreakerInput::Operator(mut op) => {
            let mut state = make();
            let mut chunk = 0;
            while let Some(batch) = op.next_batch() {
                fold(&mut state, chunk, batch);
                chunk += 1;
            }
            vec![state]
        }
        BreakerInput::Partitioned(source) => run_partials(*source, make, fold),
    };
    if let Some(e) = fail.get() {
        return Err(e);
    }
    let merged = partials.into_iter().reduce(|mut first, p| {
        merge(&mut first, p);
        first
    });
    merged.ok_or_else(|| ExecError::msg("a partitioned breaker ran no workers"))
}

/// Run the pipeline to completion, one `fold` state per worker, hand the
/// partials back, and then — every worker done — resolve the chain's store
/// tees. A dead worker never sends its partial: the shortfall is recorded
/// in the fail slot (keeping the worker's own error if it recorded one),
/// so the tees abandon and [`fold_input`] returns it. A worker whose chain
/// recorded a stage failure still winds down and sends its (truncated)
/// partial. (Cancellation is not a shortfall: it stops morsel hand-out, so
/// every worker still winds down normally and sends its partial.)
fn run_partials<S: Send + 'static>(
    source: ParallelSource,
    make: impl Fn() -> S,
    fold: impl Fn(&mut S, u64, Batch) + Send + Sync + Clone + 'static,
) -> Vec<S> {
    let ParallelSource {
        dispenser,
        chain,
        workers,
        pool,
        fail,
        ..
    } = source;
    let (tx, rx) = sync_channel(workers);
    let jobs: Vec<Job> = (0..workers)
        .map(|_| {
            let mut seg = chain.clone();
            let mut source = ChainSource::Morsels(dispenser.clone());
            let tx = tx.clone();
            let fold = fold.clone();
            let fail = fail.clone();
            let mut state = make();
            Box::new(move || {
                let res = catch_unwind(AssertUnwindSafe(move || {
                    // The chain flushes its deferred metrics at end of
                    // input, i.e. before the partial is sent: the breaker
                    // counts partials to detect completion.
                    while let Some((idx, out)) = seg.step(&mut source) {
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
    if partials.len() != workers {
        fail.set(ExecError::msg(format!(
            "a parallel breaker worker failed ({} of {workers} partials arrived)",
            partials.len(),
        )));
    }
    chain.resolve_tees();
    partials
}
