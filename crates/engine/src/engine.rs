//! The pipelined engine: builder, admission gate, and stream runs.
//!
//! The public query surface is session-based (see [`crate::session`]):
//!
//! ```text
//! EngineBuilder -> Arc<Engine> -> Session -> Prepared -> QueryHandle
//! ```

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rdb_delta::Repairability;
use rdb_exec::{FnRegistry, WorkerPool};
use rdb_expr::{CompiledPredicate, Expr};
use rdb_plan::{Plan, PlanError};
use rdb_recycler::{Recycler, RecyclerConfig, RecyclerEvent, RepairOutcome};
use rdb_sql::SqlError;
use rdb_storage::{Catalog, Commit, Table};
use rdb_vector::{Batch, Schema, Value};

use crate::durability::{
    open_durability, spawn_checkpointer, warm_recycler, DurabilityConfig, DurabilityState, IoFault,
    NoFault,
};
use crate::session::Session;
use crate::statements::{self, Compiled, StatementCache, StatementCacheStats};
use crate::subscribe::{DeltaEvent, SubEntry, SubQueue, Subscription};

/// Fluent constructor for [`Engine`]:
///
/// ```text
/// let engine = Engine::builder(catalog)
///     .recycler(RecyclerConfig::default())
///     .max_concurrent_queries(12)
///     .build();
/// ```
pub struct EngineBuilder {
    catalog: Arc<Catalog>,
    functions: Arc<FnRegistry>,
    /// `None` disables recycling (the paper's OFF mode).
    recycling: Option<RecyclerConfig>,
    max_concurrent_queries: usize,
    admission_queue_limit: usize,
    parallelism: usize,
    data_dir: Option<PathBuf>,
    durability: DurabilityConfig,
    io_fault: Arc<dyn IoFault>,
}

impl EngineBuilder {
    /// Start building an engine over `catalog`. Defaults: recycling on with
    /// [`RecyclerConfig::default`], 12 concurrent queries (as in the
    /// paper), an unbounded admission queue (servers set a real bound so
    /// slow clients shed load instead of queueing forever), no table
    /// functions, and the DOP `RDB_DEFAULT_DOP` names (a positive integer;
    /// serial when unset or unparsable) — so whole test and bench suites
    /// can be swept across DOPs without code changes (the CI DOP matrix).
    pub fn new(catalog: Arc<Catalog>) -> EngineBuilder {
        EngineBuilder {
            catalog,
            functions: Arc::new(FnRegistry::new()),
            recycling: Some(RecyclerConfig::default()),
            max_concurrent_queries: 12,
            admission_queue_limit: usize::MAX,
            parallelism: std::env::var("RDB_DEFAULT_DOP")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(1)
                .max(1),
            data_dir: None,
            durability: DurabilityConfig::default(),
            io_fault: Arc::new(NoFault),
        }
    }

    /// Make the engine durable: recover `dir` (checkpoint + WAL tail) at
    /// build time, log every table commit through a write-ahead log before
    /// it becomes visible, checkpoint in the background, and warm the
    /// recycler from persisted lineage. Without a data directory the
    /// engine is purely in-memory, as before.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.data_dir = Some(dir.into());
        self
    }

    /// Tune durability (fsync policy, segment size, checkpoint cadence,
    /// lineage top-K). Only meaningful together with
    /// [`EngineBuilder::data_dir`].
    pub fn durability(mut self, config: DurabilityConfig) -> EngineBuilder {
        self.durability = config;
        self
    }

    /// Inject an I/O fault schedule into the WAL writer (crash/fault
    /// testing). Only meaningful together with [`EngineBuilder::data_dir`].
    pub fn io_fault(mut self, fault: Arc<dyn IoFault>) -> EngineBuilder {
        self.io_fault = fault;
        self
    }

    /// Attach table functions.
    pub fn functions(mut self, functions: Arc<FnRegistry>) -> EngineBuilder {
        self.functions = functions;
        self
    }

    /// Enable recycling with the given configuration.
    pub fn recycler(mut self, config: RecyclerConfig) -> EngineBuilder {
        self.recycling = Some(config);
        self
    }

    /// Disable recycling (the paper's OFF mode).
    pub fn no_recycler(mut self) -> EngineBuilder {
        self.recycling = None;
        self
    }

    /// Admission limit: queries executing simultaneously.
    pub fn max_concurrent_queries(mut self, n: usize) -> EngineBuilder {
        self.max_concurrent_queries = n;
        self
    }

    /// Bound the admission wait queue: once `n` queries are already
    /// waiting, further executions fail with [`rdb_plan::PlanErrorKind::Saturated`]
    /// instead of queueing (load shedding for serving layers).
    pub fn admission_queue_limit(mut self, n: usize) -> EngineBuilder {
        self.admission_queue_limit = n;
        self
    }

    /// Default degree of intra-query parallelism. `n > 1` creates a shared
    /// worker pool of `n` resident threads that every query's
    /// morsel-driven pipelines run on; `1` executes serially. Per-session
    /// overrides ([`crate::session::Session::set_parallelism`]) can exceed
    /// the pool size — excess workers run on overflow threads. Results
    /// are byte-identical at every DOP. Requests beyond the host's cores,
    /// here and per session, are clamped to the cap
    /// [`EngineBuilder::try_build`] resolves once per engine.
    pub fn parallelism(mut self, n: usize) -> EngineBuilder {
        self.parallelism = n.max(1);
        self
    }

    /// Construct the engine. Panics if recovery of the configured data
    /// directory fails — use [`EngineBuilder::try_build`] to handle that.
    pub fn build(self) -> Arc<Engine> {
        self.try_build().expect("engine build failed")
    }

    /// Construct the engine, surfacing recovery/WAL-open failures as
    /// errors instead of panicking. With a data directory this (1)
    /// replays checkpoint + WAL tail into the catalog, (2) installs the
    /// WAL as every table's commit hook, (3) re-executes persisted
    /// lineage to warm the recycler, and (4) spawns the background
    /// checkpointer.
    ///
    /// It also resolves the engine's DOP cap, once: the host's available
    /// cores, or no cap when `RDB_ALLOW_OVERSUBSCRIBE` (any value) is set
    /// at this call. Oversubscribing the host makes morsel pipelines
    /// slower, not faster: extra workers add context switches and contend
    /// on the morsel dispenser without adding compute. The CI DOP matrix
    /// sets the variable to run DOP 8 on small hosts, testing determinism
    /// rather than speed. Changing the variable later does not move the
    /// cap of an engine already built.
    pub fn try_build(self) -> Result<Arc<Engine>, PlanError> {
        // `available_parallelism` re-reads the cgroup and CPU-quota files
        // on every call (its docs: "It should not be called from hot
        // code"), so it is read here and never per statement.
        let dop_cap = match std::env::var_os("RDB_ALLOW_OVERSUBSCRIBE") {
            Some(_) => usize::MAX,
            None => std::thread::available_parallelism().map_or(1, |c| c.get()),
        };
        let parallelism = self.parallelism.min(dop_cap);
        let (durability, lineage) = match self.data_dir {
            Some(dir) => {
                let (state, report) =
                    open_durability(dir, self.durability, self.io_fault, &self.catalog)?;
                (Some(state), report.lineage)
            }
            None => (None, Vec::new()),
        };
        let recycler = self.recycling.map(Recycler::new);
        if let (Some(r), false) = (&recycler, lineage.is_empty()) {
            let hits = warm_recycler(&lineage, r, &self.catalog, &self.functions);
            if let Some(d) = &durability {
                d.recovery_warm_hits
                    .store(hits, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let engine = Arc::new(Engine {
            catalog: self.catalog,
            functions: self.functions,
            recycler,
            gate: Arc::new(Gate::new(
                self.max_concurrent_queries,
                self.admission_queue_limit,
            )),
            pool: (parallelism > 1).then(|| WorkerPool::new(parallelism)),
            parallelism,
            dop_cap,
            epoch: Instant::now(),
            durability,
            subscriptions: Mutex::new(Vec::new()),
            next_sub_id: AtomicU64::new(0),
            statements: StatementCache::default(),
        });
        if engine
            .durability
            .as_ref()
            .is_some_and(|d| d.config.auto_checkpoint)
        {
            spawn_checkpointer(&engine);
        }
        Ok(engine)
    }
}

/// The result of one fully materialized query execution.
#[derive(Debug)]
pub struct QueryOutcome {
    /// All result rows, concatenated.
    pub batch: Batch,
    /// Result schema.
    pub schema: Schema,
    /// Engine execution time: rewrite, build, and batch pulls; queue
    /// wait and client think-time between pulls excluded.
    pub wall: Duration,
    /// Matching/insertion time inside the recycler (0 when recycling off).
    pub match_ns: u64,
    /// Recycler events (rewrite-time and completion).
    pub events: Vec<RecyclerEvent>,
    /// Degree of intra-query parallelism this execution was granted (the
    /// builder may still run small scans serially; results are identical
    /// either way).
    pub dop: usize,
    /// Start/end offsets relative to the engine's epoch (for traces).
    pub started_at: Duration,
    /// End offset relative to the engine's epoch.
    pub finished_at: Duration,
}

impl QueryOutcome {
    /// Whether any cached result (exact or subsumption) was reused.
    pub fn reused(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                RecyclerEvent::Reused { .. } | RecyclerEvent::SubsumptionReused { .. }
            )
        })
    }

    /// Whether any result was materialized and admitted by this query.
    pub fn materialized(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, RecyclerEvent::Materialized { admitted: true, .. }))
    }

    /// Whether the query stalled waiting for a concurrent materialization.
    pub fn stalled(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, RecyclerEvent::Stalled { .. }))
    }
}

/// Which DML operation a [`WriteOutcome`] records (drives e.g. the pgwire
/// `CommandComplete` tag: `INSERT 0 n` vs `DELETE n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Rows appended (`INSERT`).
    Append,
    /// Rows deleted (`DELETE`).
    Delete,
    /// Whole table contents replaced ([`Engine::replace_table`]).
    Replace,
}

/// The result of one committed DML statement.
#[derive(Debug)]
pub struct WriteOutcome {
    /// Which operation this was.
    pub kind: WriteKind,
    /// The updated table.
    pub table: String,
    /// The epoch the write committed (every snapshot taken from here on
    /// sees it).
    pub epoch: u64,
    /// Rows appended or deleted.
    pub rows_affected: usize,
    /// What the recycler did about this write: [`RecyclerEvent::Repaired`]
    /// for cache entries patched in place from the delta,
    /// [`RecyclerEvent::Invalidated`] for entries evicted, and their
    /// counts (all empty when recycling is off).
    pub repair: RepairOutcome,
}

/// A labelled query inside a stream (labels drive the per-pattern
/// breakdowns of Figs. 8-10).
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Pattern label, e.g. `"Q1"`.
    pub label: String,
    /// The (named or bound) plan.
    pub plan: Plan,
}

impl WorkloadQuery {
    /// Construct a labelled query.
    pub fn new(label: impl Into<String>, plan: Plan) -> Self {
        WorkloadQuery {
            label: label.into(),
            plan,
        }
    }
}

/// Per-query record of a stream run.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Stream index.
    pub stream: usize,
    /// Position within the stream.
    pub index: usize,
    /// Pattern label.
    pub label: String,
    /// Start offset from the run's epoch.
    pub start: Duration,
    /// End offset from the run's epoch.
    pub end: Duration,
    /// Pure execution time (excluding queue wait).
    pub exec: Duration,
    /// Matching cost in the recycler.
    pub match_ns: u64,
    /// Reused a cached result.
    pub reused: bool,
    /// Materialized (and the cache admitted) a result.
    pub materialized: bool,
    /// Stalled on a concurrent materialization.
    pub stalled: bool,
}

/// Result of a multi-stream throughput run (Fig. 7's measured quantities).
#[derive(Debug)]
pub struct StreamsReport {
    /// Per-stream elapsed time: first query issued → last result received.
    pub stream_times: Vec<Duration>,
    /// Per-query records (Fig. 9's trace).
    pub records: Vec<QueryRecord>,
    /// Total wall time of the whole run.
    pub total: Duration,
}

impl StreamsReport {
    /// Average evaluation time per stream (the y-axis of Fig. 7).
    pub fn avg_stream_time(&self) -> Duration {
        if self.stream_times.is_empty() {
            return Duration::ZERO;
        }
        self.stream_times.iter().sum::<Duration>() / self.stream_times.len() as u32
    }

    /// Average pure execution time per query pattern label (Fig. 8).
    pub fn avg_exec_by_label(&self) -> Vec<(String, Duration)> {
        let mut acc: Vec<(String, Duration, u32)> = Vec::new();
        for r in &self.records {
            match acc.iter_mut().find(|(l, _, _)| *l == r.label) {
                Some((_, d, n)) => {
                    *d += r.exec;
                    *n += 1;
                }
                None => acc.push((r.label.clone(), r.exec, 1)),
            }
        }
        acc.into_iter().map(|(l, d, n)| (l, d / n)).collect()
    }
}

/// Point-in-time view of the admission scheduler (see
/// [`Engine::admission`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Queries that may execute simultaneously.
    pub capacity: usize,
    /// Admission slots currently held (executing queries).
    pub in_flight: usize,
    /// Queries waiting in the FIFO admission queue.
    pub queued: usize,
    /// Maximum queue depth before new queries are rejected.
    pub queue_limit: usize,
    /// Whether the gate has been closed for shutdown.
    pub closed: bool,
}

struct GateState {
    /// Free execution slots.
    slots: usize,
    /// Ticket source (monotonic).
    next_ticket: u64,
    /// Waiting tickets, strictly in arrival order.
    queue: std::collections::VecDeque<u64>,
    /// Closed gates admit nothing and fail all waiters.
    closed: bool,
}

/// FIFO-fair admission scheduler bounding concurrent query execution.
///
/// Each waiter draws a ticket and is admitted strictly in arrival order —
/// a slot freed under contention always goes to the longest-waiting query,
/// so no stream can starve behind a burst of rivals (the old
/// condvar-semaphore woke waiters in arbitrary order). The wait queue is
/// bounded: past `queue_limit` waiting queries, `acquire` rejects instead
/// of queueing, which is the engine-side backpressure signal a serving
/// layer turns into a client-visible "server overloaded" error. Closing
/// the gate (graceful shutdown) fails current and future waiters with
/// [`rdb_plan::PlanErrorKind::ShuttingDown`] while in-flight queries keep their
/// slots until they drain.
pub(crate) struct Gate {
    capacity: usize,
    queue_limit: usize,
    state: Mutex<GateState>,
    cond: Condvar,
}

impl Gate {
    fn new(capacity: usize, queue_limit: usize) -> Gate {
        let capacity = capacity.max(1);
        Gate {
            capacity,
            queue_limit,
            state: Mutex::new(GateState {
                slots: capacity,
                next_ticket: 0,
                queue: std::collections::VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Block until admitted (in strict arrival order). Fails fast when the
    /// wait queue is at capacity or the gate is closed.
    fn acquire(self: &Arc<Self>) -> Result<GateGuard, PlanError> {
        let mut s = self.state.lock();
        if s.closed {
            return Err(PlanError::shutting_down());
        }
        if s.slots > 0 && s.queue.is_empty() {
            // Fast path: no contention, no ticket needed.
            s.slots -= 1;
            drop(s);
            return Ok(GateGuard {
                gate: Arc::clone(self),
            });
        }
        if s.queue.len() >= self.queue_limit {
            return Err(PlanError::saturated(self.queue_limit));
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.queue.push_back(ticket);
        loop {
            if s.closed {
                s.queue.retain(|&t| t != ticket);
                // Our departure may unblock the (younger) new front.
                self.cond.notify_all();
                return Err(PlanError::shutting_down());
            }
            if s.slots > 0 && s.queue.front() == Some(&ticket) {
                s.queue.pop_front();
                s.slots -= 1;
                if s.slots > 0 && !s.queue.is_empty() {
                    // More slots remain for the next ticket in line.
                    self.cond.notify_all();
                }
                drop(s);
                return Ok(GateGuard {
                    gate: Arc::clone(self),
                });
            }
            self.cond.wait(&mut s);
        }
    }

    /// Non-blocking acquire. Respects FIFO fairness: a free slot with a
    /// non-empty queue belongs to the queue's front, not to opportunistic
    /// callers.
    fn try_acquire(self: &Arc<Self>) -> Option<GateGuard> {
        let mut s = self.state.lock();
        if s.closed || s.slots == 0 || !s.queue.is_empty() {
            return None;
        }
        s.slots -= 1;
        drop(s);
        Some(GateGuard {
            gate: Arc::clone(self),
        })
    }

    /// Close the gate: every current and future `acquire` fails with
    /// [`rdb_plan::PlanErrorKind::ShuttingDown`]; held slots drain normally.
    fn close(&self) {
        self.state.lock().closed = true;
        self.cond.notify_all();
    }

    fn snapshot(&self) -> AdmissionSnapshot {
        let s = self.state.lock();
        AdmissionSnapshot {
            capacity: self.capacity,
            in_flight: self.capacity - s.slots,
            queued: s.queue.len(),
            queue_limit: self.queue_limit,
            closed: s.closed,
        }
    }

    #[cfg(test)]
    fn available(&self) -> usize {
        self.state.lock().slots
    }
}

/// RAII admission slot: held by a [`crate::session::QueryHandle`] for as
/// long as its stream is live, and released on drop — so a panicking or
/// abandoned query can no longer leak a concurrency slot.
pub(crate) struct GateGuard {
    gate: Arc<Gate>,
}

impl std::fmt::Debug for GateGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateGuard").finish_non_exhaustive()
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock();
        s.slots += 1;
        drop(s);
        // Wake everyone; only the queue front can take the slot, the rest
        // re-check and sleep again (admission is rare enough that the
        // thundering herd costs less than per-ticket condvars would).
        self.gate.cond.notify_all();
    }
}

/// The pipelined engine.
pub struct Engine {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) functions: Arc<FnRegistry>,
    pub(crate) recycler: Option<Arc<Recycler>>,
    pub(crate) gate: Arc<Gate>,
    /// Shared worker pool for intra-query parallelism (`None` when the
    /// engine default DOP is 1; session overrides then run on plain
    /// threads).
    pub(crate) pool: Option<Arc<WorkerPool>>,
    /// Engine-default DOP, at most `dop_cap`.
    pub(crate) parallelism: usize,
    /// The most workers one execution is granted: the host's cores, or
    /// `usize::MAX` when built with `RDB_ALLOW_OVERSUBSCRIBE` set.
    /// Resolved once in [`EngineBuilder::try_build`].
    pub(crate) dop_cap: usize,
    pub(crate) epoch: Instant,
    /// WAL + checkpoint state (`None` without a data directory).
    pub(crate) durability: Option<DurabilityState>,
    /// Live query subscriptions. One lock serializes registration and
    /// write fan-out, which is what makes the initial-result/event-stream
    /// handoff gapless (see [`crate::subscribe`]).
    pub(crate) subscriptions: Mutex<Vec<SubEntry>>,
    pub(crate) next_sub_id: AtomicU64,
    /// SQL text → compiled statement (see [`crate::statements`]).
    pub(crate) statements: StatementCache,
}

impl Engine {
    /// Start building an engine over `catalog`.
    pub fn builder(catalog: Arc<Catalog>) -> EngineBuilder {
        EngineBuilder::new(catalog)
    }

    /// Open a session: the unit of client interaction that owns prepared
    /// statements and per-session statistics.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The recycler, if recycling is enabled.
    pub fn recycler(&self) -> Option<&Arc<Recycler>> {
        self.recycler.as_ref()
    }

    /// The table-function registry.
    pub fn functions(&self) -> &Arc<FnRegistry> {
        &self.functions
    }

    /// The engine-default degree of intra-query parallelism.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The DOP an execution is granted for a session override of
    /// `requested` workers (0: none): the override if set, else the engine
    /// default, both at most the DOP cap. A compare, never a host probe.
    pub(crate) fn granted_dop(&self, requested: usize) -> usize {
        match requested {
            0 => self.parallelism,
            n => n.min(self.dop_cap),
        }
    }

    /// Hits, misses and entries of the engine's compiled-statement cache.
    pub fn statement_cache_stats(&self) -> StatementCacheStats {
        self.statements.stats()
    }

    /// The compiled form of a SQL text, through the statement cache.
    pub(crate) fn compile(&self, text: &str) -> Result<Compiled, SqlError> {
        self.statements.get_or_compile(text, || {
            statements::compile(text, &self.catalog, &self.functions)
        })
    }

    /// Flush the recycler cache (no-op when recycling is off).
    pub fn flush_cache(&self) {
        if let Some(r) = &self.recycler {
            r.flush_cache();
        }
    }

    /// Append `rows` to a base table and commit a new epoch. In-flight
    /// queries keep reading their pinned snapshots; the recycler repairs
    /// or evicts exactly the cache entries that depended on `table`. An
    /// empty `rows` is a no-op: no epoch is committed and nothing is
    /// invalidated.
    ///
    /// DML visibility covers base-table scans only: a registered table
    /// *function* (e.g. the SkyServer cone search) is a black box that
    /// captures whatever inputs it was built with, so writes do not flow
    /// into function-backed relations — rebuild the `FnRegistry` (and the
    /// engine) to refresh them.
    pub fn append(&self, table: &str, rows: &[Vec<Value>]) -> Result<WriteOutcome, PlanError> {
        if self.is_read_only() {
            return Err(PlanError::read_only());
        }
        let vt = self
            .catalog
            .versioned(table)
            .ok_or_else(|| PlanError::unknown_table(table))?;
        let (commit, snap) = vt.append(rows).map_err(|e| self.write_error(e))?;
        let repair = self.notify_update(commit.as_ref());
        Ok(WriteOutcome {
            kind: WriteKind::Append,
            table: table.to_string(),
            epoch: snap.epoch(),
            rows_affected: rows.len(),
            repair,
        })
    }

    /// Delete every row of `table` matching `predicate` (named column
    /// references resolved against the table's schema; NULL evaluates to
    /// not-matched, as in a `WHERE` clause) and commit a new epoch. A
    /// predicate matching no rows is a no-op: no epoch is committed and
    /// nothing is invalidated. See [`Engine::append`] for the
    /// table-function visibility caveat.
    pub fn delete(&self, table: &str, predicate: &Expr) -> Result<WriteOutcome, PlanError> {
        if self.is_read_only() {
            return Err(PlanError::read_only());
        }
        let vt = self
            .catalog
            .versioned(table)
            .ok_or_else(|| PlanError::unknown_table(table))?;
        let bound = predicate.bind(vt.schema()).map_err(PlanError::from)?;
        if bound.has_params() {
            return Err(PlanError::msg(format!(
                "delete predicate for '{table}' contains unbound parameters; \
                 substitute them first"
            )));
        }
        let types: Vec<_> = vt.schema().fields().iter().map(|f| f.dtype).collect();
        let dtype = bound.data_type(&types);
        if dtype != rdb_vector::DataType::Bool {
            return Err(PlanError::type_mismatch(
                "boolean",
                dtype.to_string(),
                format!("delete predicate for '{table}'"),
            ));
        }
        // The mask is evaluated against the exact snapshot being replaced
        // (VersionedTable::delete_where re-runs it if a concurrent writer
        // commits first), so interleaved writers compose linearizably. The
        // commit holds the deleted positions and that snapshot, which is
        // where count retraction reads the deleted rows from.
        // Only the columns the predicate reads are scanned (one column, for
        // the row count, when it reads none: `WHERE TRUE`).
        let mut used = Vec::new();
        bound.columns_used(&mut used);
        if used.is_empty() {
            used.push(0);
        }
        let mut position = vec![0; vt.schema().len()];
        for (at, &col) in used.iter().enumerate() {
            position[col] = at;
        }
        let pred = CompiledPredicate::compile(&bound.remap_cols(&position));
        // A predicate that cannot be evaluated (a value of a type its
        // column does not compare with) fails like a query stage does: a
        // structured error, not a panic through the caller. The mask runs
        // before anything is swapped and under no lock, so nothing is
        // half-done when it gives up.
        let committed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vt.delete_where(|t| {
                let mut pred = pred.clone();
                let mut mask = vec![false; t.rows()];
                let mut doomed: Vec<u32> = Vec::new();
                let mut offset = 0;
                for b in t.batches(&used) {
                    pred.select_physical_into(&b, &mut doomed);
                    for &i in &doomed {
                        mask[offset + i as usize] = true;
                    }
                    offset += b.physical_rows();
                }
                mask
            })
        }))
        .map_err(|panic| {
            PlanError::msg(format!(
                "delete predicate for '{table}' failed: {}",
                rdb_exec::error::panic_message(panic.as_ref())
            ))
        })?;
        let (commit, snap) = committed.map_err(|e| self.write_error(e))?;
        Ok(WriteOutcome {
            kind: WriteKind::Delete,
            table: table.to_string(),
            epoch: snap.epoch(),
            rows_affected: commit.as_ref().map_or(0, Commit::rows),
            repair: self.notify_update(commit.as_ref()),
        })
    }

    /// Replace a base table's contents wholesale, committing the new
    /// contents as the next epoch. Unlike raw `Catalog::replace`, this
    /// routes the [`Change::Replace`](rdb_storage::Change::Replace) commit
    /// through [`Recycler::repair`], which evicts every cache entry that
    /// depended on the old contents, so none can serve stale rows.
    /// In-flight queries keep reading their pinned snapshots.
    pub fn replace_table(&self, table: Arc<Table>) -> Result<WriteOutcome, PlanError> {
        if self.is_read_only() {
            return Err(PlanError::read_only());
        }
        let name = table.name().to_string();
        let vt = self
            .catalog
            .versioned(&name)
            .ok_or_else(|| PlanError::unknown_table(&name))?;
        // A wholesale replacement has no row-level delta: dependent cache
        // entries evict, subscriptions refresh.
        let (commit, snap) = vt.replace(&table).map_err(|e| self.write_error(e))?;
        Ok(WriteOutcome {
            kind: WriteKind::Replace,
            table: name,
            epoch: snap.epoch(),
            rows_affected: table.rows(),
            repair: self.notify_update(commit.as_ref()),
        })
    }

    /// Map a storage-level write failure: once the WAL is poisoned the
    /// engine-visible cause is read-only mode, not the raw I/O message.
    fn write_error(&self, e: rdb_storage::StorageError) -> PlanError {
        if self.is_read_only() {
            PlanError::read_only()
        } else {
            PlanError::msg(e.to_string())
        }
    }

    /// Tell the recycler (and live subscriptions) a table committed
    /// `commit`, the value storage built and the WAL logged; a no-op write
    /// (`None`) committed nothing and leaves the cache hot. The recycler
    /// *repairs* dependent cache entries in place where their
    /// classification allows it and evicts the rest (every one, for a
    /// replace).
    fn notify_update(&self, commit: Option<&Commit>) -> RepairOutcome {
        let Some(commit) = commit else {
            return RepairOutcome::default();
        };
        let out = match &self.recycler {
            Some(r) => r.repair(commit, &self.catalog.snapshot(), &self.functions),
            None => RepairOutcome::default(),
        };
        self.fan_out(commit);
        out
    }

    /// Push this write's change to every subscription whose plan reads
    /// the changed table: an appended-rows [`DeltaEvent::Delta`] where the
    /// plan is select-class over that table and the write was an append,
    /// a full [`DeltaEvent::Refresh`] otherwise. Runs under the registry
    /// lock so fan-out serializes with registration (gapless handoff) and
    /// per-subscription event order follows epoch order.
    fn fan_out(&self, delta: &Commit) {
        let mut subs = self.subscriptions.lock();
        if subs.is_empty() {
            return;
        }
        let snapshot = Arc::new(self.catalog.snapshot());
        for entry in subs.iter_mut() {
            let Some(pos) = entry.tables.iter().position(|t| *t == delta.table) else {
                continue;
            };
            let seen = entry.epochs[pos];
            if delta.epoch <= seen {
                // Already inside the initial result (or a refresh that
                // raced ahead of this fan-out).
                continue;
            }
            if delta.epoch == seen + 1 && entry.classes[pos] == Repairability::Select {
                // `None` for anything but an append.
                if let Some(appended) = rdb_delta::eval_append(
                    &entry.plan,
                    &entry.schema,
                    delta,
                    &snapshot,
                    &self.functions,
                ) {
                    entry.epochs[pos] = delta.epoch;
                    if appended.rows() > 0 {
                        entry.queue.push(DeltaEvent::Delta {
                            appended,
                            epoch: delta.epoch,
                            table: delta.table.clone(),
                        });
                    }
                    continue;
                }
            }
            // Deletes, replacements, non-select plans, skipped epochs, or
            // a failed delta evaluation: re-evaluate in full. The refresh
            // reflects the *current* snapshot, so every table's seen epoch
            // advances to it.
            if let Some(full) =
                rdb_delta::eval_full(&entry.plan, &entry.schema, &snapshot, &self.functions)
            {
                for (i, t) in entry.tables.iter().enumerate() {
                    if let Some(e) = snapshot.epoch_of(t) {
                        entry.epochs[i] = e;
                    }
                }
                entry.queue.push(DeltaEvent::Refresh(full));
            }
        }
    }

    /// Register a live query: evaluate `plan` once against the current
    /// snapshot (serially — identical to any-DOP execution), queue the
    /// result as [`DeltaEvent::Initial`], and subscribe the plan to all
    /// its base tables. Taken under the registry lock, so no committed
    /// write can fall between the initial result and the event stream.
    pub(crate) fn subscribe(
        self: &Arc<Self>,
        plan: Plan,
        schema: Schema,
    ) -> Result<Subscription, PlanError> {
        let mut subs = self.subscriptions.lock();
        let snapshot = Arc::new(self.catalog.snapshot());
        let initial = rdb_delta::eval_full(&plan, &schema, &snapshot, &self.functions)
            .ok_or_else(|| PlanError::msg("subscription: initial evaluation failed"))?;
        let tables = plan.base_tables();
        let epochs = tables
            .iter()
            .map(|t| snapshot.epoch_of(t).unwrap_or(0))
            .collect();
        let classes = tables
            .iter()
            .map(|t| rdb_delta::classify(&plan, t))
            .collect();
        let id = self
            .next_sub_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let queue = Arc::new(SubQueue::new());
        queue.push(DeltaEvent::Initial(initial));
        if self.is_shutting_down() {
            queue.close();
        }
        subs.push(SubEntry {
            id,
            plan,
            schema: schema.clone(),
            tables,
            epochs,
            classes,
            queue: Arc::clone(&queue),
        });
        Ok(Subscription::new(Arc::clone(self), id, schema, queue))
    }

    pub(crate) fn unregister_subscription(&self, id: u64) {
        self.subscriptions.lock().retain(|s| s.id != id);
    }

    /// Live subscriptions currently registered.
    pub fn subscriptions_active(&self) -> usize {
        self.subscriptions.lock().len()
    }

    /// Acquire an admission slot, blocking (FIFO-fair) while the engine is
    /// at its concurrency limit. Fails when the wait queue is full or the
    /// engine is shutting down.
    pub(crate) fn admit(&self) -> Result<GateGuard, PlanError> {
        self.gate.acquire()
    }

    /// Acquire an admission slot only if one is free right now (and nobody
    /// is queued ahead — `try` never jumps the FIFO line).
    pub(crate) fn try_admit(&self) -> Option<GateGuard> {
        self.gate.try_acquire()
    }

    /// Point-in-time admission-scheduler counters: slots in use, queue
    /// depth, limits, and whether the engine is draining.
    pub fn admission(&self) -> AdmissionSnapshot {
        self.gate.snapshot()
    }

    /// Begin graceful shutdown: stop admitting queries and close every
    /// live subscription (queued events still drain; iteration then
    /// ends). Executions already holding a slot drain normally; queued
    /// and future executions fail with
    /// [`rdb_plan::PlanErrorKind::ShuttingDown`]. The background
    /// checkpointer is stopped and joined, so once this returns nothing
    /// of this engine writes a checkpoint unasked. Idempotent.
    pub fn shutdown(&self) {
        self.gate.close();
        for entry in self.subscriptions.lock().iter() {
            entry.queue.close();
        }
        if let Some(d) = &self.durability {
            d.stop_checkpointer();
        }
    }

    /// Whether [`Engine::shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.gate.snapshot().closed
    }

    /// Run several query streams concurrently (one session and thread per
    /// stream, bounded by the engine's admission gate), as in the TPC-H
    /// throughput test of §V.
    pub fn run_streams(self: &Arc<Self>, streams: &[Vec<WorkloadQuery>]) -> StreamsReport {
        let run_start = Instant::now();
        let mut stream_times = vec![Duration::ZERO; streams.len()];
        let mut records: Vec<QueryRecord> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(si, stream)| {
                    let engine = Arc::clone(self);
                    scope.spawn(move |_| {
                        let session = engine.session();
                        let stream_start = Instant::now();
                        let mut recs = Vec::with_capacity(stream.len());
                        for (qi, q) in stream.iter().enumerate() {
                            let out = session
                                .query(&q.plan)
                                .unwrap_or_else(|e| panic!("query {} failed: {e}", q.label))
                                .into_outcome();
                            recs.push(QueryRecord {
                                stream: si,
                                index: qi,
                                label: q.label.clone(),
                                start: out.started_at,
                                end: out.finished_at,
                                exec: out.wall,
                                match_ns: out.match_ns,
                                reused: out.reused(),
                                materialized: out.materialized(),
                                stalled: out.stalled(),
                            });
                        }
                        (si, stream_start.elapsed(), recs)
                    })
                })
                .collect();
            for h in handles {
                let (si, elapsed, mut recs) = h.join().expect("stream thread panicked");
                stream_times[si] = elapsed;
                records.append(&mut recs);
            }
        })
        .expect("stream scope failed");
        records.sort_by_key(|r| (r.stream, r.index));
        StreamsReport {
            stream_times,
            records,
            total: run_start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_expr::{AggFunc, Expr};
    use rdb_plan::scan;
    use rdb_recycler::CostModel;
    use rdb_storage::TableBuilder;
    use rdb_vector::{DataType, Value};

    fn catalog(rows: i64) -> Arc<Catalog> {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, rows as usize);
        for i in 0..rows {
            b.push_row(vec![Value::Int(i % 50), Value::Float(i as f64)]);
        }
        cat.register(b.finish()).expect("register table");
        Arc::new(cat)
    }

    fn agg_query(limit: i64) -> Plan {
        scan("t", &["k", "v"])
            .select(Expr::name("k").lt(Expr::lit(limit)))
            .aggregate(
                vec![(Expr::name("k"), "k")],
                vec![(AggFunc::Sum(Expr::name("v")), "sv")],
            )
    }

    fn det_config() -> RecyclerConfig {
        let mut c = RecyclerConfig::deterministic(1 << 20);
        c.spec_min_progress = 0.0;
        c
    }

    fn run(engine: &Arc<Engine>, plan: &Plan) -> QueryOutcome {
        engine.session().query(plan).unwrap().into_outcome()
    }

    #[test]
    fn off_mode_runs_plain() {
        let engine = Engine::builder(catalog(10_000)).no_recycler().build();
        let out = run(&engine, &agg_query(10));
        assert_eq!(out.batch.rows(), 10);
        assert!(out.events.is_empty());
        assert_eq!(out.match_ns, 0);
    }

    #[test]
    fn repeated_query_is_reused() {
        let engine = Engine::builder(catalog(20_000))
            .recycler(det_config())
            .build();
        let q = agg_query(10);
        let first = run(&engine, &q);
        assert!(!first.reused());
        assert!(first.materialized(), "speculation caches the aggregate");
        let second = run(&engine, &q);
        assert!(second.reused(), "second run must hit the cache");
        assert_eq!(first.batch.to_rows(), second.batch.to_rows());
        // Cached runs skip the scan work entirely.
        let r = engine.recycler().unwrap();
        assert!(r.cache_len() >= 1);
        assert!(r.stats.reuses.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }

    #[test]
    fn different_parameters_do_not_share_results() {
        let engine = Engine::builder(catalog(5_000))
            .recycler(det_config())
            .build();
        let a = run(&engine, &agg_query(10));
        let b = run(&engine, &agg_query(20));
        assert!(!b.reused() || b.batch.rows() == 20);
        assert_eq!(a.batch.rows(), 10);
        assert_eq!(b.batch.rows(), 20);
    }

    #[test]
    fn flush_forces_recompute() {
        let engine = Engine::builder(catalog(5_000))
            .recycler(det_config())
            .build();
        let q = agg_query(10);
        run(&engine, &q);
        engine.flush_cache();
        assert_eq!(engine.recycler().unwrap().cache_len(), 0);
        let again = run(&engine, &q);
        assert!(!again.reused());
        assert_eq!(again.batch.rows(), 10);
    }

    #[test]
    fn history_mode_needs_three_occurrences() {
        // Paper §V: "a result has to appear at least three times in a
        // workload for the [history] recycler to benefit from reusing it":
        // 1st inserts, 2nd is seen-before (gets a store), 3rd reuses.
        let mut cfg = det_config();
        cfg.mode = rdb_recycler::RecyclerMode::History;
        let engine = Engine::builder(catalog(5_000)).recycler(cfg).build();
        let q = agg_query(10);
        let first = run(&engine, &q);
        assert!(
            !first.materialized(),
            "history mode never stores first-timers"
        );
        let recycler = engine.recycler().unwrap();
        assert_eq!(recycler.cache_len(), 0, "nothing cached after one run");
        let second = run(&engine, &q);
        assert!(!second.reused());
        assert!(second.materialized(), "second occurrence materializes");
        let third = run(&engine, &q);
        assert!(third.reused(), "third occurrence reuses");
    }

    #[test]
    fn work_cost_model_annotations_flow() {
        let engine = Engine::builder(catalog(5_000))
            .recycler(det_config())
            .build();
        run(&engine, &agg_query(10));
        let r = engine.recycler().unwrap();
        assert!(r.graph_len() >= 3);
        r.with_graph(|g| {
            // Every node of the query got annotated with measured stats.
            let measured = (0..g.len())
                .filter(|&i| g.node(rdb_recycler::NodeId(i as u32)).stats.measured)
                .count();
            assert!(measured >= 3, "expected measured nodes, got {measured}");
            for i in 0..g.len() {
                let n = g.node(rdb_recycler::NodeId(i as u32));
                if n.stats.measured {
                    assert!(n.stats.bcost_work > 0.0);
                }
            }
        });
        let _ = CostModel::WorkUnits;
    }

    #[test]
    fn concurrent_identical_streams_share_work() {
        let engine = Engine::builder(catalog(20_000))
            .recycler(det_config())
            .build();
        let mk = |label: &str| WorkloadQuery::new(label, agg_query(10));
        let streams: Vec<Vec<WorkloadQuery>> =
            (0..4).map(|_| vec![mk("QA"), mk("QA"), mk("QA")]).collect();
        let report = engine.run_streams(&streams);
        assert_eq!(report.records.len(), 12);
        let reused = report.records.iter().filter(|r| r.reused).count();
        assert!(
            reused >= 8,
            "most of the 12 identical queries should reuse (got {reused})"
        );
        let by_label = report.avg_exec_by_label();
        assert_eq!(by_label.len(), 1);
        assert!(report.avg_stream_time() > Duration::ZERO);
    }

    #[test]
    fn streams_report_orders_records() {
        let engine = Engine::builder(catalog(1_000)).no_recycler().build();
        let streams: Vec<Vec<WorkloadQuery>> = (0..2)
            .map(|_| {
                vec![
                    WorkloadQuery::new("A", agg_query(5)),
                    WorkloadQuery::new("B", agg_query(15)),
                ]
            })
            .collect();
        let report = engine.run_streams(&streams);
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.records[0].stream, 0);
        assert_eq!(report.records[0].index, 0);
        assert_eq!(report.records[3].stream, 1);
        assert_eq!(report.records[3].index, 1);
        assert_eq!(report.stream_times.len(), 2);
    }

    #[test]
    fn gate_guard_releases_on_panic() {
        let engine = Engine::builder(catalog(1_000))
            .no_recycler()
            .max_concurrent_queries(1)
            .build();
        // A query that panics mid-stream must give its slot back.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let handle = engine.session().query(&agg_query(5)).unwrap();
            let _hold = handle;
            panic!("simulated query failure");
        }));
        assert!(caught.is_err());
        assert_eq!(engine.gate.available(), 1, "slot restored after panic");
        // The engine still accepts queries afterwards.
        let out = run(&engine, &agg_query(5));
        assert_eq!(out.batch.rows(), 5);
    }

    #[test]
    fn gate_admits_waiters_in_arrival_order() {
        // One slot, held. N waiters queue one at a time (each provably
        // enqueued before the next arrives, via the queue-depth counter);
        // releasing the slot repeatedly must admit them in exactly
        // arrival order — the starvation regression this gate fixes.
        let gate = Arc::new(Gate::new(1, usize::MAX));
        let held = gate.acquire().unwrap();
        const N: usize = 8;
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        for i in 0..N {
            let g = Arc::clone(&gate);
            let order = Arc::clone(&order);
            threads.push(std::thread::spawn(move || {
                let guard = g.acquire().unwrap();
                order.lock().push(i);
                drop(guard); // pass the slot to the next ticket
            }));
            // Wait until waiter i is actually queued before starting i+1,
            // so arrival order is deterministic.
            while gate.snapshot().queued < i + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*order.lock(), (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn gate_bounds_the_wait_queue() {
        let gate = Arc::new(Gate::new(1, 2));
        let _held = gate.acquire().unwrap();
        let mut waiters = Vec::new();
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            waiters.push(std::thread::spawn(move || {
                drop(gate.acquire().unwrap());
            }));
        }
        while gate.snapshot().queued < 2 {
            std::thread::yield_now();
        }
        // Third waiter exceeds the bound: rejected, not queued.
        let err = gate.acquire().expect_err("queue is full");
        assert!(
            matches!(err.kind, rdb_plan::PlanErrorKind::Saturated { limit: 2 }),
            "{err}"
        );
        drop(_held);
        for t in waiters {
            t.join().unwrap();
        }
    }

    #[test]
    fn gate_close_fails_waiters_and_new_arrivals() {
        let gate = Arc::new(Gate::new(1, usize::MAX));
        let held = gate.acquire().unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.acquire().map(|_| ()))
        };
        while gate.snapshot().queued < 1 {
            std::thread::yield_now();
        }
        gate.close();
        let err = waiter.join().unwrap().expect_err("waiter fails on close");
        assert!(matches!(err.kind, rdb_plan::PlanErrorKind::ShuttingDown));
        let err = gate.acquire().expect_err("closed gate admits nothing");
        assert!(matches!(err.kind, rdb_plan::PlanErrorKind::ShuttingDown));
        // The held slot still releases cleanly.
        drop(held);
        assert_eq!(gate.snapshot().in_flight, 0);
        assert!(gate.snapshot().closed);
    }

    #[test]
    fn try_admit_never_jumps_the_fifo_line() {
        let gate = Arc::new(Gate::new(1, usize::MAX));
        let held = gate.acquire().unwrap();
        let gate2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || drop(gate2.acquire().unwrap()));
        while gate.snapshot().queued < 1 {
            std::thread::yield_now();
        }
        // A slot is about to free up, but the queued waiter owns it.
        drop(held);
        assert!(
            gate.try_acquire().is_none() || gate.snapshot().queued == 0,
            "try_acquire must not overtake a queued waiter"
        );
        waiter.join().unwrap();
    }

    #[test]
    fn engine_shutdown_rejects_new_queries() {
        let engine = Engine::builder(catalog(1_000)).no_recycler().build();
        let out = run(&engine, &agg_query(5));
        assert_eq!(out.batch.rows(), 5);
        engine.shutdown();
        assert!(engine.is_shutting_down());
        let err = engine.session().query(&agg_query(5)).expect_err("closed");
        assert!(matches!(err.kind, rdb_plan::PlanErrorKind::ShuttingDown));
    }
}
