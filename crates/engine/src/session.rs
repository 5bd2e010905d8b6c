//! Sessions, prepared statements, and streaming query handles.
//!
//! The paper's recycler earns its keep on *streams of parameterized query
//! templates* (SkyServer sessions, TPC-H throughput streams); this module
//! is the client surface shaped around that workload:
//!
//! * [`Session`] — the unit of client interaction, opened from an engine;
//!   owns per-session statistics.
//! * [`Prepared`] — a query template, bound against the catalog **once**
//!   (once per engine for SQL text, which the statement cache of
//!   [`crate::statements`] shares between sessions) with its structural
//!   fingerprint computed up front; executed many times with different
//!   [`Params`].
//! * [`QueryHandle`] — a live query pulled
//!   vector-at-a-time via `Iterator<Item = Batch>`. The handle owns the
//!   engine's admission slot and the recycler bookkeeping: completion fires
//!   when the stream is drained, and a handle dropped half-way abandons its
//!   store targets without poisoning the recycler cache or leaking the
//!   slot. Materialization is explicit via [`QueryHandle::collect_batch`] /
//!   [`QueryHandle::into_outcome`].

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rdb_exec::{build, ExecContext, ExecStream, ResultStore};
use rdb_expr::{Expr, Params};
use rdb_plan::{structural_hash_at, Plan, PlanError};
use rdb_recycler::{PreparedQuery, Recycler, RecyclerEvent};
use rdb_sql::{Span, SqlError};
use rdb_storage::CatalogSnapshot;
use rdb_vector::{Batch, Schema, Value};

use crate::engine::{Engine, GateGuard, QueryOutcome, WriteOutcome};
use crate::statements::{self, Compiled, Template, Write, WriteStmt};

/// Monotonic counters describing one session's activity.
#[derive(Debug, Default)]
pub struct SessionStats {
    /// Statements prepared.
    pub prepared: AtomicU64,
    /// Executions started.
    pub executed: AtomicU64,
    /// Executions that reused a cached result (exact or subsumption).
    pub reused: AtomicU64,
    /// Executions whose stream was dropped before being drained.
    pub aborted: AtomicU64,
    /// Result rows streamed to the client.
    pub rows: AtomicU64,
    /// DML statements committed (appends + deletes).
    pub writes: AtomicU64,
    /// Rows appended by this session.
    pub rows_appended: AtomicU64,
    /// Rows deleted by this session.
    pub rows_deleted: AtomicU64,
    /// Executions granted a degree of parallelism above 1.
    pub parallel: AtomicU64,
    /// Cache entries this session's writes repaired in place from DML
    /// deltas (instead of evicting).
    pub repaired_hits: AtomicU64,
    /// Repair candidates of this session's writes that fell back to
    /// eviction.
    pub repair_fallbacks: AtomicU64,
    /// This session's writes whose delta was routed through the repair
    /// walk.
    pub deltas_applied: AtomicU64,
    /// Total engine execution time, nanoseconds: preparation plus batch
    /// pulls; queue wait and client think-time between pulls excluded.
    pub wall_ns: AtomicU64,
}

impl SessionStats {
    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> SessionStatsSnapshot {
        SessionStatsSnapshot {
            prepared: self.prepared.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            rows_appended: self.rows_appended.load(Ordering::Relaxed),
            rows_deleted: self.rows_deleted.load(Ordering::Relaxed),
            parallel: self.parallel.load(Ordering::Relaxed),
            repaired_hits: self.repaired_hits.load(Ordering::Relaxed),
            repair_fallbacks: self.repair_fallbacks.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            // A gauge, not a counter: filled in by [`Session::stats`]
            // from the engine's live registry.
            subscriptions_active: 0,
            wall: Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Plain-value snapshot of [`SessionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatsSnapshot {
    /// Statements prepared.
    pub prepared: u64,
    /// Executions started.
    pub executed: u64,
    /// Executions that reused a cached result.
    pub reused: u64,
    /// Executions dropped before being drained.
    pub aborted: u64,
    /// Result rows streamed.
    pub rows: u64,
    /// DML statements committed.
    pub writes: u64,
    /// Rows appended.
    pub rows_appended: u64,
    /// Rows deleted.
    pub rows_deleted: u64,
    /// Executions granted DOP > 1.
    pub parallel: u64,
    /// Cache entries repaired in place by this session's writes.
    pub repaired_hits: u64,
    /// Repair candidates that fell back to eviction.
    pub repair_fallbacks: u64,
    /// Writes whose delta was routed through the repair walk.
    pub deltas_applied: u64,
    /// Live subscriptions on the engine right now (a gauge; engine-wide,
    /// not per-session).
    pub subscriptions_active: u64,
    /// Total engine execution time (see [`SessionStats::wall_ns`]).
    pub wall: Duration,
}

/// A client session over an engine.
pub struct Session {
    engine: Arc<Engine>,
    stats: Arc<SessionStats>,
    /// Per-session DOP override; 0 means "inherit the engine default".
    /// Shared with this session's prepared statements, so changing it
    /// affects their subsequent executions too.
    parallelism: Arc<AtomicUsize>,
    /// Cooperative cancellation flag, threaded into every execution's
    /// [`ExecContext`]: operators observe it at batch/morsel boundaries
    /// and end their streams early. Owned by whoever drives the session
    /// (e.g. the server's connection loop, which also clears it); the
    /// engine side only ever *loads* it.
    cancel: Arc<AtomicBool>,
}

impl Session {
    pub(crate) fn new(engine: Arc<Engine>) -> Session {
        Session {
            engine,
            stats: Arc::new(SessionStats::default()),
            parallelism: Arc::new(AtomicUsize::new(0)),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The session's cancellation flag. Setting it makes in-flight
    /// executions of this session wind down at their next batch/morsel
    /// boundary (truncating their streams) and suppresses any cache
    /// publication from those runs. The caller owns clearing it before
    /// the next statement.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Replace the session's cancellation flag with an externally owned
    /// one, so that e.g. a wire-protocol frontend can register a single
    /// flag in its cancel-request registry and have it observed by the
    /// executor. Must be called before any statement is prepared: prepared
    /// statements capture the flag at prepare time.
    pub fn set_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = flag;
    }

    /// The engine this session talks to.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Per-session statistics (plus the engine-wide live-subscription
    /// gauge).
    pub fn stats(&self) -> SessionStatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.subscriptions_active = self.engine.subscriptions_active() as u64;
        snap
    }

    /// Override the degree of intra-query parallelism for this session's
    /// executions (including statements already prepared on it). The
    /// engine's shared worker pool is sized by
    /// [`crate::engine::EngineBuilder::parallelism`]; a larger session DOP
    /// still works, with the excess running on overflow threads. Like the
    /// builder's DOP, the override is clamped at execution to the engine's
    /// DOP cap: the host's available cores, resolved once when the engine
    /// was built ([`crate::engine::EngineBuilder::try_build`]), so a small
    /// host is not oversubscribed.
    pub fn set_parallelism(&self, dop: usize) {
        self.parallelism.store(dop.max(1), Ordering::Relaxed);
    }

    /// Revert to the engine-default DOP.
    pub fn clear_parallelism(&self) {
        self.parallelism.store(0, Ordering::Relaxed);
    }

    /// The DOP this session's executions currently get.
    pub fn parallelism(&self) -> usize {
        self.engine
            .granted_dop(self.parallelism.load(Ordering::Relaxed))
    }

    /// Prepare a query template: resolve every named column against the
    /// catalog, compute the structural fingerprint, and collect the
    /// template's parameter slots — all exactly once, however many times
    /// the statement is executed afterwards.
    pub fn prepare(&self, plan: &Plan) -> Result<Prepared, PlanError> {
        let engine = &self.engine;
        let template = statements::template(plan, &engine.catalog, &engine.functions)?;
        Ok(self.prepared(Arc::new(template)))
    }

    /// A prepared statement over a compiled template, fingerprinted
    /// against the table epochs of now.
    fn prepared(&self, template: Arc<Template>) -> Prepared {
        let fingerprint = fingerprint_against(&template.plan, &self.engine.catalog);
        self.stats.prepared.fetch_add(1, Ordering::Relaxed);
        Prepared {
            engine: Arc::clone(&self.engine),
            stats: Arc::clone(&self.stats),
            parallelism: Arc::clone(&self.parallelism),
            cancel: Arc::clone(&self.cancel),
            template,
            fingerprint,
        }
    }

    /// Prepare-and-execute convenience for a parameter-free plan.
    pub fn query(&self, plan: &Plan) -> Result<QueryHandle, PlanError> {
        self.prepare(plan)?.execute(&Params::none())
    }

    /// Compile one SQL statement, query or DML. The text is looked up in
    /// the engine's statement cache ([`crate::statements`]): a known text
    /// skips parse, bind and normalize and shares the template every
    /// session prepared from it; an unknown one is compiled here. A query
    /// comes back as a [`Prepared`] fingerprinted against the table epochs
    /// of now, so a template cached before a write still lands on the
    /// post-write cache entries.
    pub fn prepare_statement(&self, text: &str) -> Result<SqlStatement, SqlError> {
        Ok(match self.engine.compile(text)? {
            Compiled::Query(template) => SqlStatement::Query(self.prepared(template)),
            Compiled::Write(write) => SqlStatement::Write(PreparedWrite(write)),
        })
    }

    /// Prepare a query written as SQL text, through the engine's statement
    /// cache ([`Session::prepare_statement`]). The statement is parsed,
    /// bound against the catalog (scans pruned to referenced columns) and
    /// normalized once per engine, and fingerprinted exactly like a
    /// builder-built plan — a SQL template and its hand-assembled
    /// equivalent share recycler cache entries. `$name` placeholders
    /// become named parameters; `?` placeholders are numbered `"1"`,
    /// `"2"`, … left to right.
    ///
    /// Only queries can be *prepared*; route `INSERT` / `DELETE` text
    /// through [`Session::sql`].
    pub fn prepare_sql(&self, text: &str) -> Result<Prepared, SqlError> {
        match self.prepare_statement(text)? {
            SqlStatement::Query(prepared) => Ok(prepared),
            SqlStatement::Write(_) => Err(SqlError::bind(
                whole_span(text),
                "prepare_sql prepares queries; execute INSERT/DELETE through Session::sql",
            )),
        }
    }

    /// Compile (through the statement cache, see
    /// [`Session::prepare_statement`]) and execute one SQL statement with
    /// the given parameter bindings. Queries return a streaming
    /// [`QueryHandle`] (via [`SqlOutcome::Rows`]); `INSERT`/`DELETE`
    /// commit through [`Session::write`] — epoch bump, precise recycler
    /// repair or eviction — and return the [`WriteOutcome`].
    pub fn sql(&self, text: &str, params: &Params) -> Result<SqlOutcome, SqlError> {
        let wrap = |e: PlanError| SqlError::from_plan(whole_span(text), e);
        match self.prepare_statement(text)? {
            SqlStatement::Query(prepared) => {
                Ok(SqlOutcome::Rows(prepared.execute(params).map_err(wrap)?))
            }
            SqlStatement::Write(write) => self
                .write(&write, params)
                .map(SqlOutcome::Write)
                .map_err(wrap),
        }
    }

    /// Commit a compiled `INSERT` or `DELETE` with `params` bound to its
    /// placeholders, as [`Session::append`] or [`Session::delete`].
    pub fn write(&self, write: &PreparedWrite, params: &Params) -> Result<WriteOutcome, PlanError> {
        match &write.0.stmt {
            WriteStmt::Insert { table, rows } => {
                let concrete = rows
                    .iter()
                    .map(|row| row.iter().map(|cell| insert_value(cell, params)).collect())
                    .collect::<Result<Vec<Vec<Value>>, PlanError>>()?;
                self.append(table, &concrete)
            }
            WriteStmt::Delete { table, predicate } => {
                self.delete(table, &predicate.substitute_params(params)?)
            }
        }
    }

    /// Append `rows` to a base table, committing a new epoch and
    /// repairing or evicting exactly the dependent recycler cache entries. Queries
    /// already executing keep their pinned snapshots.
    pub fn append(&self, table: &str, rows: &[Vec<Value>]) -> Result<WriteOutcome, PlanError> {
        let out = self.engine.append(table, rows)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .rows_appended
            .fetch_add(out.rows_affected as u64, Ordering::Relaxed);
        self.note_repair(&out);
        Ok(out)
    }

    /// Delete the rows of `table` matching `predicate` (see
    /// [`Engine::delete`]), committing a new epoch with the same
    /// invalidation semantics as [`Session::append`].
    pub fn delete(&self, table: &str, predicate: &Expr) -> Result<WriteOutcome, PlanError> {
        let out = self.engine.delete(table, predicate)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .rows_deleted
            .fetch_add(out.rows_affected as u64, Ordering::Relaxed);
        self.note_repair(&out);
        Ok(out)
    }

    /// Fold one write's repair outcome into the session counters.
    fn note_repair(&self, out: &WriteOutcome) {
        let r = &out.repair;
        self.stats
            .repaired_hits
            .fetch_add(r.repaired, Ordering::Relaxed);
        self.stats
            .repair_fallbacks
            .fetch_add(r.fallbacks, Ordering::Relaxed);
        self.stats
            .deltas_applied
            .fetch_add(r.deltas_applied, Ordering::Relaxed);
    }

    /// Subscribe to a query written as SQL text: parse, bind, and
    /// substitute `params` exactly like [`Session::prepare_sql`] +
    /// execute, then register the concrete plan as a live query. The
    /// returned [`crate::Subscription`] yields
    /// [`crate::subscribe::DeltaEvent::Initial`] with the full result as
    /// of registration, then one event per committed write touching the
    /// plan's base tables — appended rows where the plan is select-class
    /// over the changed table, a full refresh otherwise (see
    /// [`crate::subscribe`]). The handoff is gapless: registration and
    /// write fan-out serialize on the engine's registry lock.
    pub fn subscribe_sql(
        &self,
        text: &str,
        params: &Params,
    ) -> Result<crate::subscribe::Subscription, SqlError> {
        let wrap = |e: PlanError| SqlError::from_plan(whole_span(text), e);
        let prepared = self.prepare_sql(text)?;
        let concrete = prepared
            .validated_concrete(params)
            .map_err(wrap)?
            .into_owned();
        if prepared.template.volatile {
            return Err(wrap(PlanError::msg(
                "cannot subscribe to a volatile table function",
            )));
        }
        let schema = concrete.schema(&self.engine.catalog).map_err(wrap)?;
        self.engine.subscribe(concrete, schema).map_err(wrap)
    }
}

/// The result of one [`Session::sql`] call: rows for queries, a commit
/// record for DML.
// The handle variant is big, but the value is transient (matched once at
// the call site); boxing it would tax the common query path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SqlOutcome {
    /// A query's streaming handle.
    Rows(QueryHandle),
    /// A committed write.
    Write(WriteOutcome),
}

impl SqlOutcome {
    /// The query handle, if this was a query.
    pub fn into_rows(self) -> Option<QueryHandle> {
        match self {
            SqlOutcome::Rows(h) => Some(h),
            SqlOutcome::Write(_) => None,
        }
    }

    /// The write record, if this was DML.
    pub fn into_write(self) -> Option<WriteOutcome> {
        match self {
            SqlOutcome::Write(w) => Some(w),
            SqlOutcome::Rows(_) => None,
        }
    }

    /// The query handle; panics on a write (use when the statement is
    /// known to be a query).
    pub fn expect_rows(self) -> QueryHandle {
        self.into_rows()
            .expect("statement was INSERT/DELETE, not a query")
    }
}

/// One SQL statement compiled by [`Session::prepare_statement`].
// Transient, matched once at the call site, like [`SqlOutcome`].
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SqlStatement {
    /// A query, ready to execute.
    Query(Prepared),
    /// An `INSERT` or `DELETE`, committed by [`Session::write`].
    Write(PreparedWrite),
}

/// A compiled `INSERT` or `DELETE`, shared through the statement cache.
#[derive(Debug, Clone)]
pub struct PreparedWrite(Arc<Write>);

impl PreparedWrite {
    /// Names of the statement's parameter slots, in first-occurrence
    /// order.
    pub fn param_names(&self) -> &[String] {
        &self.0.param_names
    }
}

/// The value of one `INSERT` cell under `params`.
fn insert_value(cell: &Expr, params: &Params) -> Result<Value, PlanError> {
    match cell {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Param(n) => params
            .get(n)
            .cloned()
            .ok_or_else(|| PlanError::unbound_parameter(n)),
        other => Err(PlanError::msg(format!("non-constant INSERT cell {other}"))),
    }
}

/// Span covering a whole statement (engine-level errors have no finer
/// position).
fn whole_span(text: &str) -> Span {
    Span::new(0, text.len())
}

/// The template's version-aware fingerprint against the catalog's current
/// table epochs.
fn fingerprint_against(template: &Plan, catalog: &rdb_storage::Catalog) -> u64 {
    structural_hash_at(template, &|t| catalog.epoch_of(t).unwrap_or(0))
}

/// A prepared statement: a bound template plus its fingerprint, executable
/// repeatedly with different parameter sets.
pub struct Prepared {
    engine: Arc<Engine>,
    stats: Arc<SessionStats>,
    /// The owning session's DOP override (0 = engine default), read at
    /// each execute.
    parallelism: Arc<AtomicUsize>,
    /// The owning session's cancellation flag (see
    /// [`Session::cancel_flag`]).
    cancel: Arc<AtomicBool>,
    /// The compiled template, shared with the statement cache and every
    /// other statement prepared from the same text.
    template: Arc<Template>,
    fingerprint: u64,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("param_names", &self.template.param_names)
            .field("template", &self.template.plan)
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// The bound template (parameter placeholders intact).
    pub fn template(&self) -> &Plan {
        &self.template.plan
    }

    /// Structural fingerprint of the template, incorporating the epoch of
    /// every scanned base table as of prepare time. Parameter slots hash
    /// as placeholders, so two preparations of the same template against
    /// the same table versions share a fingerprint regardless of the
    /// values later bound — while a DML commit in between changes it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The template's fingerprint against the catalog's *current* table
    /// epochs. Differs from [`Prepared::fingerprint`] iff a scanned table
    /// has been updated since this statement was prepared.
    pub fn fingerprint_now(&self) -> u64 {
        fingerprint_against(&self.template.plan, &self.engine.catalog)
    }

    /// Names of the template's parameter slots, in first-occurrence order.
    pub fn param_names(&self) -> &[String] {
        &self.template.param_names
    }

    /// A formatted plan tree annotated, per node, with the subtree's
    /// version-aware fingerprint and its recycler state right now:
    /// `cached` (a materialized result would be reused), `in-flight` (a
    /// concurrent query is producing it; an execution would stall on it),
    /// or `cold`. The probe is read-only — rendering a plan perturbs no
    /// recycler statistics.
    ///
    /// A parameterized template probes as `cold` below the parameterized
    /// operators (the recycler caches concrete results); use
    /// [`Prepared::explain_with`] to see the states a specific binding
    /// would hit.
    pub fn explain(&self) -> String {
        self.render_explain(&self.template.plan)
    }

    /// [`Prepared::explain`] for one concrete parameter binding.
    pub fn explain_with(&self, params: &Params) -> Result<String, PlanError> {
        Ok(self.render_explain(&self.template.plan.substitute_params(params)?))
    }

    fn render_explain(&self, plan: &Plan) -> String {
        use std::fmt::Write as _;
        // `inside`: how many nodes from `plan` down are stages of a span
        // that started above it.
        fn go(plan: &Plan, engine: &Engine, depth: usize, inside: usize, out: &mut String) {
            // Annotate the top of each pipelining span with the number of
            // plan nodes the executor runs as one push-style chain.
            // Interior nodes are part of the same span, so only the
            // outermost node carries the tag.
            let span = if inside > 0 {
                None
            } else {
                rdb_exec::fused_span(plan)
            };
            let fused = match span {
                Some(n) => format!(" [fused x{n}]"),
                None => String::new(),
            };
            let fp = fingerprint_against(plan, &engine.catalog);
            let state = match &engine.recycler {
                Some(r) => {
                    let probe = r.probe(plan);
                    // Cached nodes additionally carry their repairability
                    // class: what a DML delta on their base tables would
                    // do to the cached payload (patch in place vs evict).
                    if matches!(
                        probe,
                        rdb_recycler::CacheState::Cached | rdb_recycler::CacheState::CachedBuild
                    ) {
                        format!(
                            " [{}] [{}]",
                            probe.label(),
                            rdb_delta::classify_node(plan).label()
                        )
                    } else {
                        format!(" [{}]", probe.label())
                    }
                }
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{:indent$}{}  [fp {fp:016x}]{state}{fused}",
                "",
                plan.label(),
                indent = depth * 2
            );
            // The chain runs down the first child (filter/project input,
            // join probe side) for as many levels as it has stages; its
            // source and a join's build side start fresh pipelines and may
            // open their own spans.
            let below = span.map_or(inside.saturating_sub(1), |n| n - 1);
            for (i, c) in plan.children().into_iter().enumerate() {
                go(c, engine, depth + 1, if i == 0 { below } else { 0 }, out);
            }
        }
        let mut out = String::new();
        go(plan, &self.engine, 0, 0, &mut out);
        out
    }

    /// Execute with the given parameter bindings, returning a live,
    /// pull-based [`QueryHandle`]. Every slot must be bound and every
    /// binding must match a slot.
    ///
    /// Blocks while the engine is at its admission limit. Each live
    /// [`QueryHandle`] *holds* an admission slot until drained or dropped,
    /// so a single thread keeping `max_concurrent_queries` handles alive
    /// and then calling `execute` again deadlocks against itself — drain or
    /// drop handles before starting more queries than the limit, or use
    /// [`Prepared::try_execute`].
    ///
    /// Relatedly, with recycling enabled an execution may inject a
    /// materialization that only makes progress as its handle is pulled;
    /// starting a second identical execution while the first handle sits
    /// undrained makes the second stall for the recycler's `stall_timeout`
    /// before recomputing independently. Interleave pulls or drain handles
    /// promptly.
    pub fn execute(&self, params: &Params) -> Result<QueryHandle, PlanError> {
        let concrete = self.validated_concrete(params)?;
        let guard = self.engine.admit()?;
        self.start(&concrete, guard)
    }

    /// Non-blocking variant of [`Prepared::execute`]: returns `Ok(None)`
    /// when the engine is at its admission limit instead of waiting for a
    /// slot.
    pub fn try_execute(&self, params: &Params) -> Result<Option<QueryHandle>, PlanError> {
        let concrete = self.validated_concrete(params)?;
        match self.engine.try_admit() {
            Some(guard) => self.start(&concrete, guard).map(Some),
            None => Ok(None),
        }
    }

    /// Validate the bindings and substitute them into the template. A
    /// parameter-free statement borrows the template directly — the common
    /// stream-runner path pays no per-execution plan clone.
    fn validated_concrete<'a>(
        &'a self,
        params: &Params,
    ) -> Result<std::borrow::Cow<'a, Plan>, PlanError> {
        let Template {
            plan, param_names, ..
        } = &*self.template;
        for name in param_names {
            if params.get(name).is_none() {
                return Err(PlanError::unbound_parameter(name.clone()));
            }
        }
        for name in params.names() {
            if !param_names.iter().any(|n| n == name) {
                return Err(PlanError::msg(format!(
                    "unknown parameter '{name}' (template parameters: {param_names:?})"
                )));
            }
        }
        if param_names.is_empty() {
            return Ok(std::borrow::Cow::Borrowed(plan));
        }
        let concrete = plan.substitute_params(params)?;
        debug_assert!(!concrete.has_params());
        Ok(std::borrow::Cow::Owned(concrete))
    }

    /// Build the executor for a concrete plan under an already-held
    /// admission slot and wrap it in a handle.
    fn start(&self, concrete: &Plan, guard: GateGuard) -> Result<QueryHandle, PlanError> {
        self.stats.executed.fetch_add(1, Ordering::Relaxed);
        let engine = &self.engine;
        let started_at = engine.epoch.elapsed();
        let start = Instant::now();
        // The builder splits eligible pipelines across the engine's worker
        // pool; every scan still reads the one snapshot pinned below, so
        // all workers of this query see the same epoch vector.
        let dop = engine.granted_dop(self.parallelism.load(Ordering::Relaxed));
        if dop > 1 {
            self.stats.parallel.fetch_add(1, Ordering::Relaxed);
        }
        let with_parallelism = |mut ctx: ExecContext| {
            ctx = ctx
                .with_parallelism(dop)
                .with_cancel(Some(self.cancel.clone()));
            match &engine.pool {
                Some(pool) => ctx.with_pool(pool.clone()),
                None => ctx,
            }
        };
        // Pin the snapshot *before* the recycler rewrite: the rewrite's
        // freshness checks, the store targets' epoch records, and every
        // scan must all agree on one epoch vector, or a write landing
        // mid-preparation could mix versions within a single query.
        let snapshot = Arc::new(engine.catalog.snapshot());
        // A plan touching a volatile table function (e.g. the server's
        // `rdb_stats()`) must bypass the recycler entirely: caching its
        // result would both serve stale values and evict useful entries.
        // The template knows whether it does; binding cannot change that.
        let recycling = engine.recycler.as_ref().filter(|_| !self.template.volatile);
        let (stream, recycler) = match recycling {
            None => {
                let ctx = with_parallelism(
                    ExecContext::new(engine.catalog.clone())
                        .with_snapshot(snapshot.clone())
                        .with_functions(engine.functions.clone()),
                );
                (build(concrete, &ctx)?.into_stream(), None)
            }
            Some(recycler) => {
                let prepared = recycler.prepare_at(concrete, &engine.catalog, &|t| {
                    snapshot.epoch_of(t).unwrap_or(0)
                });
                let ctx = with_parallelism(
                    ExecContext::new(engine.catalog.clone())
                        .with_snapshot(snapshot.clone())
                        .with_functions(engine.functions.clone())
                        .with_store(recycler.clone() as Arc<dyn ResultStore>),
                );
                // A build failure after recycler.prepare must release the
                // rewrite's bookkeeping (in-flight store targets, tags,
                // leases) or every later structurally-equal query stalls on
                // a materialization that will never arrive.
                let stream = match build(&prepared.plan, &ctx) {
                    Ok(tree) => tree.into_stream(),
                    Err(e) => {
                        recycler.abort(&prepared);
                        return Err(e);
                    }
                };
                (stream, Some((recycler.clone(), prepared)))
            }
        };
        let (events, match_ns) = match &recycler {
            Some((_, prepared)) => (prepared.events.clone(), prepared.match_ns),
            None => (Vec::new(), 0),
        };
        Ok(QueryHandle {
            stream,
            snapshot,
            recycler,
            events,
            match_ns,
            dop,
            guard: Some(guard),
            epoch: engine.epoch,
            started_at,
            // Rewrite + executor construction count as engine time.
            exec: start.elapsed(),
            finished_at: started_at,
            rows: 0,
            stats: Arc::clone(&self.stats),
            cancel: Arc::clone(&self.cancel),
            completed: false,
        })
    }
}

/// A live query: pull result batches with `Iterator::next`. See the module
/// docs for the lifecycle.
pub struct QueryHandle {
    stream: ExecStream,
    snapshot: Arc<CatalogSnapshot>,
    recycler: Option<(Arc<Recycler>, PreparedQuery)>,
    events: Vec<RecyclerEvent>,
    match_ns: u64,
    dop: usize,
    guard: Option<GateGuard>,
    epoch: Instant,
    started_at: Duration,
    /// Time spent *inside the engine* — preparation plus batch pulls;
    /// client think-time between pulls is excluded.
    exec: Duration,
    finished_at: Duration,
    rows: u64,
    stats: Arc<SessionStats>,
    /// The session's cancel flag: a stream that ends while it is set was
    /// truncated, not drained, and must finalize as an abort.
    cancel: Arc<AtomicBool>,
    completed: bool,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("schema", &format_args!("{}", self.stream.schema()))
            .field("rows_streamed", &self.rows)
            .field("reused", &self.reused())
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

impl QueryHandle {
    /// Result schema.
    pub fn schema(&self) -> &Schema {
        self.stream.schema()
    }

    /// The catalog snapshot this query reads: every scan (and every cached
    /// result substituted by the recycler) reflects exactly these table
    /// versions, whatever DML commits while the stream is live. Re-running
    /// the plan against [`CatalogSnapshot::to_catalog`] of this value
    /// reproduces the result.
    pub fn snapshot(&self) -> &Arc<CatalogSnapshot> {
        &self.snapshot
    }

    /// Recycler events so far (rewrite-time immediately; completion events
    /// appear once the stream finishes).
    pub fn events(&self) -> &[RecyclerEvent] {
        &self.events
    }

    /// Whether a cached result (exact or subsumption) was substituted into
    /// this execution — known as soon as the handle exists.
    pub fn reused(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                RecyclerEvent::Reused { .. } | RecyclerEvent::SubsumptionReused { .. }
            )
        })
    }

    /// Matching/insertion time spent in the recycler's rewrite phase.
    pub fn match_ns(&self) -> u64 {
        self.match_ns
    }

    /// Degree of parallelism this execution was granted.
    pub fn dop(&self) -> usize {
        self.dop
    }

    /// Start offset relative to the engine's epoch.
    pub fn started_at(&self) -> Duration {
        self.started_at
    }

    /// Rows streamed out so far.
    pub fn rows_streamed(&self) -> u64 {
        self.rows
    }

    /// Root progress meter in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        self.stream.progress()
    }

    /// The execution failure recorded by a parallel pipeline worker, if
    /// any. A stream that ended with an error here ended *short*: the rows
    /// already pulled are valid but the result is truncated, the recycler
    /// saw an abort (nothing partial was cached), and the handle counts as
    /// aborted in session stats. `None` after a full drain means the
    /// result is complete.
    pub fn error(&self) -> Option<rdb_exec::ExecError> {
        self.stream.error()
    }

    /// Drain the remaining batches into one concatenated batch (the
    /// explicit materialization point).
    pub fn collect_batch(mut self) -> Batch {
        self.drain_remaining()
    }

    /// Drain the remaining batches and return the full outcome record
    /// (batch, schema, timings, recycler events).
    pub fn into_outcome(mut self) -> QueryOutcome {
        let batch = self.drain_remaining();
        QueryOutcome {
            batch,
            schema: self.stream.schema().clone(),
            wall: self.exec,
            match_ns: self.match_ns,
            events: std::mem::take(&mut self.events),
            dop: self.dop,
            started_at: self.started_at,
            finished_at: self.finished_at,
        }
    }

    fn drain_remaining(&mut self) -> Batch {
        let mut batches = Vec::new();
        for b in self.by_ref() {
            batches.push(b);
        }
        Batch::concat_or_empty(self.stream.schema(), &batches)
    }

    /// Close out the query exactly once: feed the recycler (annotation on a
    /// full drain, abandonment on an early drop), stamp timings, release
    /// the admission slot, and fold into session stats.
    fn finalize(&mut self, drained: bool) {
        if self.completed {
            return;
        }
        self.completed = true;
        if let Some((recycler, prepared)) = self.recycler.take() {
            let completion = if drained {
                recycler.complete(&prepared, self.stream.metrics())
            } else {
                recycler.abort(&prepared)
            };
            self.events.extend(completion);
        }
        self.finished_at = self.epoch.elapsed();
        self.guard = None;
        self.stats.rows.fetch_add(self.rows, Ordering::Relaxed);
        self.stats
            .wall_ns
            .fetch_add(self.exec.as_nanos() as u64, Ordering::Relaxed);
        if self.reused() {
            self.stats.reused.fetch_add(1, Ordering::Relaxed);
        }
        if !drained {
            self.stats.aborted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Iterator for QueryHandle {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.completed {
            return None;
        }
        let pull_start = Instant::now();
        let out = self.stream.next();
        self.exec += pull_start.elapsed();
        match out {
            Some(b) => {
                self.rows += b.rows() as u64;
                Some(b)
            }
            None => {
                // A cancelled or failed stream ended early: its metrics
                // describe a truncated run, so finalize as an abort (no
                // graph annotation, store targets abandoned) rather than a
                // completion. Worker failures surface through
                // [`QueryHandle::error`].
                let drained = !self.cancel.load(Ordering::Acquire) && self.stream.error().is_none();
                self.finalize(drained);
                None
            }
        }
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        self.finalize(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use rdb_expr::{AggFunc, Expr};
    use rdb_plan::scan;
    use rdb_recycler::RecyclerConfig;
    use rdb_storage::{Catalog, TableBuilder};
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

    fn det_engine(rows: i64) -> Arc<Engine> {
        let mut c = RecyclerConfig::deterministic(1 << 22);
        c.spec_min_progress = 0.0;
        EngineBuilder::new(catalog(rows)).recycler(c).build()
    }

    fn template() -> Plan {
        scan("t", &["k", "v"])
            .select(Expr::name("k").lt(Expr::param("limit")))
            .aggregate(
                vec![(Expr::name("k"), "k")],
                vec![(AggFunc::Sum(Expr::name("v")), "sv")],
            )
    }

    #[test]
    fn prepare_binds_once_and_collects_params() {
        let engine = det_engine(10_000);
        let session = engine.session();
        let prepared = session.prepare(&template()).unwrap();
        assert!(
            !prepared.template().has_named(),
            "names resolved at prepare"
        );
        assert!(prepared.template().has_params(), "params survive binding");
        assert_eq!(prepared.param_names(), &["limit".to_string()]);
        let again = session.prepare(&template()).unwrap();
        assert_eq!(prepared.fingerprint(), again.fingerprint());
        assert_eq!(session.stats().prepared, 2);
    }

    #[test]
    fn execute_validates_params() {
        let engine = det_engine(1_000);
        let session = engine.session();
        let prepared = session.prepare(&template()).unwrap();
        let missing = prepared.execute(&Params::none());
        assert!(missing.as_ref().is_err());
        assert!(missing.err().unwrap().to_string().contains("limit"));
        let unknown = prepared.execute(&Params::new().set("limit", 5i64).set("oops", 1i64));
        assert!(unknown.err().unwrap().to_string().contains("oops"));
    }

    #[test]
    fn same_params_hit_cache_different_params_do_not_share() {
        let engine = det_engine(20_000);
        let session = engine.session();
        let prepared = session.prepare(&template()).unwrap();
        let p10 = Params::new().set("limit", 10i64);
        let first = prepared.execute(&p10).unwrap().into_outcome();
        assert!(!first.reused());
        assert_eq!(first.batch.rows(), 10);
        let second = prepared.execute(&p10).unwrap().into_outcome();
        assert!(second.reused(), "identical params must hit the recycler");
        assert_eq!(first.batch.to_rows(), second.batch.to_rows());
        let other = prepared
            .execute(&Params::new().set("limit", 20i64))
            .unwrap()
            .into_outcome();
        assert_eq!(other.batch.rows(), 20, "different params compute fresh");
        assert_eq!(session.stats().executed, 3);
        assert_eq!(session.stats().reused, 1);
    }

    #[test]
    fn handle_streams_batch_at_a_time() {
        let engine = EngineBuilder::new(catalog(5_000)).no_recycler().build();
        let session = engine.session();
        let plan = scan("t", &["k", "v"]).bind(engine.catalog()).unwrap();
        let mut handle = session.query(&plan).unwrap();
        let first = handle.next().expect("at least one batch");
        assert!(first.rows() <= rdb_vector::BATCH_CAPACITY);
        let mut total = first.rows();
        for b in handle {
            total += b.rows();
        }
        assert_eq!(total, 5_000);
        assert_eq!(session.stats().rows, 5_000);
    }

    #[test]
    fn dropped_stream_releases_slot_and_keeps_cache_clean() {
        let engine = det_engine(50_000);
        let session = engine.session();
        let prepared = session.prepare(&template()).unwrap();
        let p = Params::new().set("limit", 30i64);
        {
            let mut handle = prepared.execute(&p).unwrap();
            let _ = handle.next(); // partially consume, then drop
        }
        assert_eq!(session.stats().aborted, 1);
        // The dropped execution must not have published a partial result:
        // the next run computes fresh, completely, and correctly.
        let out = prepared.execute(&p).unwrap().into_outcome();
        assert!(!out.reused(), "no partial result may satisfy this query");
        assert_eq!(out.batch.rows(), 30);
        // And the recycler is healthy: one more run reuses the full result.
        let again = prepared.execute(&p).unwrap().into_outcome();
        assert!(again.reused());
        assert_eq!(again.batch.to_rows(), out.batch.to_rows());
    }

    #[test]
    fn try_execute_reports_saturation_instead_of_blocking() {
        let engine = EngineBuilder::new(catalog(5_000))
            .no_recycler()
            .max_concurrent_queries(1)
            .build();
        let session = engine.session();
        let prepared = session.prepare(&template()).unwrap();
        let p = Params::new().set("limit", 10i64);
        let held = prepared.execute(&p).unwrap();
        // The only slot is held by `held`; a blocking execute here would
        // deadlock this thread, try_execute reports it instead.
        assert!(prepared.try_execute(&p).unwrap().is_none());
        drop(held);
        let handle = prepared.try_execute(&p).unwrap().expect("slot free again");
        assert_eq!(handle.collect_batch().rows(), 10);
    }

    #[test]
    fn parameterized_templates_still_validate_scans_at_prepare() {
        let engine = det_engine(100);
        let session = engine.session();
        // Positional refs + params: no bind pass runs, but the unknown
        // table must still fail at prepare, not at first execute.
        let plan = scan("no_such_table", &["x"]).select(Expr::col(0).lt(Expr::param("p")));
        let err = session.prepare(&plan).expect_err("must be rejected");
        assert!(err.to_string().contains("no_such_table"), "{err}");
    }

    #[test]
    fn params_in_typed_positions_are_rejected_at_prepare() {
        let engine = det_engine(100);
        let session = engine.session();
        let plan = scan("t", &["k"]).project(vec![(Expr::param("x"), "x")]);
        let err = session.prepare(&plan).expect_err("must be rejected");
        assert!(err.to_string().contains('x'), "{err}");
        // Even nested under further operators that previously panicked
        // during schema derivation.
        let nested = scan("t", &["k"])
            .project(vec![(Expr::param("x"), "x")])
            .select(Expr::name("x").gt(Expr::lit(0)));
        assert!(session.prepare(&nested).is_err());
    }

    #[test]
    fn empty_results_keep_schema_width() {
        let engine = EngineBuilder::new(catalog(1_000)).no_recycler().build();
        let session = engine.session();
        let none = scan("t", &["k", "v"]).select(Expr::name("k").lt(Expr::lit(-1)));
        let batch = session.query(&none).unwrap().collect_batch();
        assert_eq!(batch.rows(), 0);
        assert_eq!(batch.width(), 2, "zero-row result preserves the schema");
        let out = session.query(&none).unwrap().into_outcome();
        assert_eq!(out.batch.width(), 2);
        assert_eq!(out.schema.len(), 2);
    }

    #[test]
    fn build_failure_after_rewrite_does_not_wedge_the_recycler() {
        // A plan that passes prepare-time validation but fails at build
        // time (unknown table function; the registry is only consulted by
        // the executor builder). The recycler rewrite has already injected
        // store targets by then — a leaked in-flight entry would make every
        // later structurally-equal query stall for the full stall timeout.
        let mut c = RecyclerConfig::deterministic(1 << 22);
        c.spec_min_progress = 0.0;
        c.stall_timeout = Duration::from_secs(5);
        let engine = EngineBuilder::new(catalog(1_000)).recycler(c).build();
        let session = engine.session();
        let plan = rdb_plan::fn_scan_exprs(
            "no_such_function",
            vec![Expr::param("n")],
            Schema::from_pairs([("x", DataType::Int)]),
        );
        let prepared = session.prepare(&plan).unwrap();
        let p = Params::new().set("n", 3i64);
        assert!(prepared.execute(&p).is_err());
        // The second identical attempt must fail fast, not stall on the
        // first attempt's abandoned materialization.
        let start = Instant::now();
        assert!(prepared.execute(&p).is_err());
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "stalled on a leaked in-flight entry: {:?}",
            start.elapsed()
        );
        // And the engine still executes healthy queries.
        let out = session.query(
            &template()
                .substitute_params(&Params::new().set("limit", 5i64))
                .unwrap(),
        );
        assert_eq!(out.unwrap().collect_batch().rows(), 5);
    }

    #[test]
    fn prepare_rejects_named_columns_in_fn_scan_args() {
        let engine = det_engine(100);
        let session = engine.session();
        let plan = rdb_plan::fn_scan_exprs(
            "series",
            vec![Expr::name("k")],
            Schema::from_pairs([("x", DataType::Int)]),
        );
        let err = session.prepare(&plan).expect_err("must be rejected");
        assert!(err.to_string().contains("table-function"), "{err}");
    }

    #[test]
    fn fn_scan_templates_substitute_args() {
        use rdb_exec::{FnRegistry, TableFunction};
        use rdb_vector::{Batch, Column};

        struct Series;
        impl TableFunction for Series {
            fn schema(&self, _args: &[Value]) -> Schema {
                Schema::from_pairs([("x", DataType::Int)])
            }
            fn execute(&self, args: &[Value], work: &mut u64) -> Vec<Batch> {
                let n = args[0].as_int().expect("n") as usize;
                *work += n as u64;
                vec![Batch::new(vec![Column::from_ints((0..n as i64).collect())])]
            }
        }
        let mut reg = FnRegistry::new();
        reg.register("series", Arc::new(Series));
        let engine = EngineBuilder::new(catalog(10))
            .functions(Arc::new(reg))
            .no_recycler()
            .build();
        let session = engine.session();
        let plan = rdb_plan::fn_scan_exprs(
            "series",
            vec![Expr::param("n")],
            Schema::from_pairs([("x", DataType::Int)]),
        );
        let prepared = session.prepare(&plan).unwrap();
        let out = prepared
            .execute(&Params::new().set("n", 7i64))
            .unwrap()
            .collect_batch();
        assert_eq!(out.rows(), 7);
        // Unsubstituted execution is rejected, not silently wrong.
        assert!(prepared.execute(&Params::none()).is_err());
    }
}
