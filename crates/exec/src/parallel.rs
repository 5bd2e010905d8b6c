//! Morsel-driven intra-query parallelism.
//!
//! A [`Pipeline`] — a source and the stretch of pipelining stages
//! (selection, projection, join probes, store tees, limits) over it, up to
//! the consumer that ends it — is the unit of parallel execution. One
//! driver runs it on the caller's thread or on N workers; only a chain over
//! a table scan or a cached leaf, with a stage and no `Limit`, takes
//! workers, and only where its consumer is the stream edge or a fold sink
//! (union arms and join build inputs run serially). The leaf is split into
//! [`rdb_vector::BATCH_CAPACITY`]-sized **morsels** (O(1) zero-copy column
//! windows over the pinned table snapshot or the leased result); a
//! [`MorselDispenser`] hands them out to workers on demand, which is the
//! load balancing: fast workers simply take more morsels. Every worker
//! owns a private clone of the pipeline's [`FusedChain`] — the same chain
//! the caller's thread drives serially, advanced one morsel at a time — so
//! no stage-local state is ever shared between threads. Only four things
//! are: the dispenser, the per-plan-node [`OpMetrics`] (atomic counters,
//! summed across workers), a hash join's [`crate::join::SharedBuild`]
//! (built exactly once, by the first worker that needs it), and a store's
//! [`crate::store::StoreTee`] (one lock, taken once per morsel that
//! reaches the tee).
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
//! * an index-ordered consumer (the stream edge, a sort, a float
//!   aggregate) undoes that permutation: workers tag outputs with their
//!   morsel index and the driver re-sequences them, emitting exactly the
//!   serial batch sequence;
//! * a store tee records `(morsel index, batch)` pairs as workers deliver
//!   them and publishes them in morsel order — the serial sequence, with
//!   the morsels a stage below the tee emptied left out, as serially;
//! * order-insensitive fold sinks take the other route: an exact
//!   aggregate or a top-N folds one state per worker and merges the
//!   partials into the first (`fold_input`, the same sink that folds
//!   the ordered sequence into one state). Aggregation maps each
//!   partial's group ids onto the merged table's and sorts groups by key,
//!   the order the serial aggregate emits; top-N breaks ties by global
//!   scan position, the input index either way.
//!
//! **Completion.** A worker never resolves a tee. The driver does,
//! exactly once, when the whole input is in: at end of input serially,
//! and on workers once every morsel has arrived *and* the channel has
//! disconnected (every worker has exited, its chain's metrics flushed),
//! or once every partial is in. Only then does the consumer see the end.
//! A stream dropped early resolves nothing, nor does a tee below a
//! satisfied `Limit`; the recycler abandons those targets.
//!
//! **Failure.** A failing stage ends its worker's chain with a structured
//! [`ExecError`] in the query's shared [`crate::FailSlot`] (see
//! [`crate::fuse`]), and a worker panicking anywhere else records one
//! before its channel sender drops; the driver detects the shortfall
//! (morsels or partials missing), ends the stream cleanly, and the error
//! surfaces through [`crate::stream::ExecStream::error`] — no panic
//! crosses a worker boundary, and a tee over a poisoned source abandons
//! instead of publishing a truncated result. Fold sinks — join build
//! collects included — follow one rule, serial or partitioned: once the
//! input ends, a set slot (or a missing partial) is the answer, and the
//! breaker emits no rows. The pool itself survives ([`crate::pool`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

use rdb_storage::Table;
use rdb_vector::{morsel_bounds, morsel_count, Batch};

use crate::error::{panic_message, ExecError};
use crate::fuse::{ChainSource, FusedChain};
use crate::metrics::OpMetrics;
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

// ---------------------------------------------------------------------------
// Pipeline: one driver, 1 worker or N
// ---------------------------------------------------------------------------

/// How many morsel results may sit in flight per worker before producers
/// block (backpressure toward a slow consumer).
const GATHER_BACKLOG_PER_WORKER: usize = 4;

/// A pipeline: its source and the [`FusedChain`] over it, ending in its
/// consumer. One driver runs it, on the caller's thread (1 worker) or on
/// N pool workers, and the consumer — the chain's sink — decides how the
/// rows arrive:
///
/// * a fold sink (aggregate, top-N, sort, a join's build collect) folds
///   the whole input through `fold_input`: one state per worker when it
///   may fold partitioned, else one state over the index-ordered
///   sequence;
/// * the stream edge pulls it as an [`Operator`], in index order, with at
///   most `GATHER_BACKLOG_PER_WORKER` outputs per worker in flight.
///
/// Only a dispenser-rooted chain with a stage and no `Limit` can run on
/// workers (`Pipeline::with_workers`).
pub struct Pipeline {
    source: ChainSource,
    chain: FusedChain,
    /// 1: the caller's thread steps the chain. More: clones of the chain
    /// on the pool, sharing the dispenser.
    workers: usize,
    /// Pool to run on (`None`: plain spawned threads).
    pool: Option<Arc<WorkerPool>>,
    /// The workers' outputs of an index-ordered pull, once started.
    gather: Option<Gather>,
    /// The stream ended and the chain's tees were resolved.
    done: bool,
}

/// Worker outputs being put back into index order.
struct Gather {
    rx: Receiver<(u64, Option<Batch>)>,
    /// Out-of-order arrivals waiting for their turn.
    pending: BTreeMap<u64, Option<Batch>>,
    /// Next morsel index to release.
    next: u64,
}

impl Pipeline {
    /// `chain` over `source`, run on the caller's thread.
    pub fn new(source: ChainSource, chain: FusedChain) -> Pipeline {
        Pipeline {
            source,
            chain,
            workers: 1,
            pool: None,
            gather: None,
            done: false,
        }
    }

    /// Run on up to `workers` workers of `pool` where that can pay off: a
    /// chain with a stage ([`FusedChain::runs_on_workers`]) over a
    /// dispenser of at least two morsels. Otherwise the caller's thread
    /// runs it.
    pub(crate) fn with_workers(mut self, workers: usize, pool: Option<Arc<WorkerPool>>) -> Self {
        if let ChainSource::Morsels(d) = &self.source {
            if self.chain.runs_on_workers() {
                self.workers = workers.min(d.total()).max(1);
                self.pool = pool;
            }
        }
        self
    }

    /// How many workers run the chain (1: the caller's thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The next non-empty output in index order. `None` ends the stream,
    /// once, after the chain's tees are resolved: serially at end of
    /// input, on workers once every worker has exited.
    fn next(&mut self) -> Option<(u64, Batch)> {
        if self.done {
            return None;
        }
        let out = if self.workers > 1 {
            self.gathered()
        } else {
            let (chain, source) = (&mut self.chain, &mut self.source);
            std::iter::from_fn(|| chain.step(source)).find_map(|(idx, out)| Some((idx, out?)))
        };
        if out.is_none() {
            self.finish();
        }
        out
    }

    /// The whole input is in: resolve the chain's tees, once.
    fn finish(&mut self) {
        self.done = true;
        self.chain.resolve_tees();
    }

    /// Start one job per worker, each made by `job` from a clone of the
    /// chain and the shared dispenser.
    fn start(&self, job: impl Fn(FusedChain, ChainSource) -> Job) {
        let ChainSource::Morsels(d) = &self.source else {
            unreachable!("only a dispenser-rooted chain runs on workers")
        };
        let jobs = (0..self.workers)
            .map(|_| job(self.chain.clone(), ChainSource::Morsels(d.clone())))
            .collect();
        run_jobs(self.pool.as_ref(), jobs);
    }

    /// The workers' next output in morsel order. Reports the end only once
    /// the channel has disconnected — every worker has exited, its chain's
    /// metrics flushed.
    fn gathered(&mut self) -> Option<(u64, Batch)> {
        if self.gather.is_none() {
            let (tx, rx) = sync_channel(self.workers * GATHER_BACKLOG_PER_WORKER);
            // Every fallible part of a worker's loop runs inside `step`,
            // which reports into the fail slot itself.
            self.start(|mut seg, mut source| {
                let tx = tx.clone();
                Box::new(move || {
                    while let Some(out) = seg.step(&mut source) {
                        if tx.send(out).is_err() {
                            return; // consumer dropped the stream
                        }
                    }
                })
            });
            self.gather = Some(Gather {
                rx,
                pending: BTreeMap::new(),
                next: 0,
            });
        }
        let (Some(g), ChainSource::Morsels(d)) = (&mut self.gather, &self.source) else {
            unreachable!("only a dispenser-rooted chain runs on workers")
        };
        loop {
            if let Some(out) = g.pending.remove(&g.next) {
                g.next += 1;
                match out {
                    Some(batch) => return Some((g.next - 1, batch)),
                    None => continue,
                }
            }
            match g.rx.recv() {
                Ok((idx, out)) => {
                    g.pending.insert(idx, out);
                }
                Err(_) => {
                    // Every worker has exited. Short of the last morsel
                    // and not cancelled, a worker ended early: a failed
                    // stage already put the cause in the slot; make sure
                    // *something* is there. The tees then abandon and the
                    // session layer aborts its recycler bookkeeping — a
                    // truncated stream never publishes. On cancel the
                    // missing indices simply never arrive; the connection
                    // layer reports the cancel itself.
                    let total = d.total() as u64;
                    if g.next < total && !d.cancelled() {
                        self.chain.fail_slot().set(ExecError::msg(format!(
                            "parallel pipeline worker failed before morsel {} of {total}",
                            g.next
                        )));
                    }
                    return None;
                }
            }
        }
    }

    /// Run the chain to completion on the workers, one `fold` state per
    /// worker, and hand the partials back. A dead worker never sends its
    /// partial: the shortfall is recorded in the fail slot (keeping the
    /// worker's own error if it recorded one). A worker whose chain
    /// recorded a stage failure still winds down and sends its
    /// (truncated) partial. (Cancellation is not a shortfall: it stops
    /// morsel hand-out, so every worker still winds down normally.)
    fn partials<S: Send + 'static>(
        &self,
        make: impl Fn() -> S,
        fold: impl Fn(&mut S, u64, Batch) + Send + Sync + Clone + 'static,
    ) -> Vec<S> {
        let fail = self.chain.fail_slot().clone();
        let (tx, rx) = sync_channel(self.workers);
        self.start(|mut seg, mut source| {
            let (tx, fold, fail) = (tx.clone(), fold.clone(), fail.clone());
            let mut state = make();
            Box::new(move || {
                let res = catch_unwind(AssertUnwindSafe(move || {
                    // The chain flushes its deferred metrics at end of
                    // input, i.e. before the partial is sent: the sink
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
            })
        });
        drop(tx);
        let partials: Vec<S> = rx.into_iter().collect();
        if partials.len() != self.workers {
            fail.set(ExecError::msg(format!(
                "a parallel breaker worker failed ({} of {} partials arrived)",
                partials.len(),
                self.workers,
            )));
        }
        partials
    }
}

/// The stream edge: the only pull consumer of a pipeline.
impl Operator for Pipeline {
    fn next_batch(&mut self) -> Option<Batch> {
        self.next().map(|(_, batch)| batch)
    }

    /// The source's meter (morsels dispatched, for a dispenser: slightly
    /// ahead of what has been emitted); 1 once a `Limit` stage stopped the
    /// chain or the stream ended.
    fn progress(&self) -> f64 {
        if self.done || self.chain.limited() {
            1.0
        } else {
            self.source.progress()
        }
    }
}

/// The fold sink: fold a pipeline's whole input and merge the partial
/// states into the first. With `partition` and more than one worker each
/// worker folds its own state; otherwise one state folds the
/// index-ordered sequence. `fold` receives each batch with its index in
/// canonical order (top-N derives position tie-breaks from it). Every
/// folded row counts as one unit of `metrics`' own work. The chain's tees
/// resolve once the whole input is in.
///
/// Once the input ends, a set fail slot is the answer: a breaker never
/// emits a result folded from a stream that ended short.
pub(crate) fn fold_input<S: Send + 'static>(
    mut input: Pipeline,
    partition: bool,
    metrics: Arc<OpMetrics>,
    make: impl Fn() -> S,
    fold: impl Fn(&mut S, u64, Batch) + Send + Sync + Clone + 'static,
    merge: impl Fn(&mut S, S),
) -> Result<S, ExecError> {
    let fold = move |state: &mut S, idx: u64, batch: Batch| {
        metrics.add_work(batch.rows() as u64);
        fold(state, idx, batch);
    };
    let partials = if partition && input.workers > 1 {
        let partials = input.partials(make, fold);
        input.finish();
        partials
    } else {
        let mut state = make();
        while let Some((idx, batch)) = input.next() {
            fold(&mut state, idx, batch);
        }
        vec![state]
    };
    if let Some(e) = input.chain.fail_slot().get() {
        return Err(e);
    }
    let merged = partials.into_iter().reduce(|mut first, p| {
        merge(&mut first, p);
        first
    });
    merged.ok_or_else(|| ExecError::msg("a partitioned breaker ran no workers"))
}
