//! The embedded replay: the harness performs the server's steps for one
//! statement itself, by calling each layer's public function in the order
//! `rdb_server::conn` does — decode the frames, parse, bind, prepare,
//! execute, drain, encode. The plain path does each step once and gives
//! the embedded latency; the traced path wraps every call in a span.
//!
//! Span tree of a traced read:
//!
//! ```text
//! stmt
//! ├─ server.decode            parse_frame per frame + decode_param per value
//! ├─ engine.prepare           (not for a named statement: prepared once)
//! │  ├─ sql.parse             rdb_sql::parse
//! │  ├─ sql.bind              rdb_sql::bind_statement
//! │  ├─ plan.normalize        rdb_plan::normalize          (harness's own copy)
//! │  ├─ plan.fingerprint      rdb_plan::structural_hash_at (harness's own copy)
//! │  └─ (self)                Session::prepare, which normalizes and
//! │                           fingerprints again inside
//! ├─ trace.probe              the harness asking the recycler whether the whole
//! │                           result is cached (to classify the outcome)
//! ├─ engine.execute_call      Prepared::execute
//! │  └─ core.match            QueryHandle::match_ns, as measured by the recycler
//! ├─ exec.drain | core.replay pulling every batch; `core.replay` when the
//! │                           whole result came from the cache
//! └─ server.encode            row_description + data_row per row + command_complete
//! ```
//!
//! A traced write is `stmt → storage.commit | wal.append |
//! delta.repair_commit`: the same rows appended to three engines that
//! differ in one thing each (see [`WriteRig`]).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rdb_engine::{
    DurabilityConfig, Engine, FsyncPolicy, Prepared, QueryHandle, Session, WriteOutcome,
};
use rdb_expr::Params;
use rdb_plan::{Plan, PlanError};
use rdb_recycler::{CacheState, RecyclerEvent};
use rdb_server::protocol::{self as pg, Frontend};
use rdb_sql::{BoundStatement, CatalogWithFunctions};
use rdb_storage::Catalog;
use rdb_vector::{Batch, Value};

use crate::data::WriteOp;
use crate::measure::{median, us, Report};
use crate::oracle::{text_rows, Oracle, TextRows};
use crate::trace::Tracer;

/// How a statement reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// One `Query` message; parsed and prepared every time.
    Simple,
    /// Unnamed Parse+Bind+Execute+Sync; parsed and prepared every time.
    Extended,
    /// Bind+Execute+Sync on a statement parsed once per connection.
    Named,
}

/// One read statement of a replay.
pub enum Statement<'a> {
    /// SQL text as a wire client would send it.
    Sql {
        protocol: Protocol,
        /// Prepared-statement name (used by [`Protocol::Named`]).
        name: &'a str,
        sql: &'a str,
        /// Parameter values as wire text, in the server's binding order.
        wire: &'a [String],
    },
    /// A builder plan executed through `Session::prepare`, as the TPC-H
    /// stream runner does; no server and no SQL layer involved.
    Plan(&'a Plan),
}

impl Statement<'_> {
    /// The frontend bytes a wire client sends for this statement.
    fn request(&self) -> Vec<u8> {
        match self {
            Statement::Sql {
                protocol: Protocol::Simple,
                sql,
                ..
            } => crate::pgclient::simple_request(sql),
            Statement::Sql {
                protocol: Protocol::Extended,
                sql,
                wire,
                ..
            } => crate::pgclient::extended_request(sql, wire),
            Statement::Sql {
                protocol: Protocol::Named,
                name,
                wire,
                ..
            } => crate::pgclient::named_request(name, wire),
            Statement::Plan(_) => Vec::new(),
        }
    }
}

/// What the recycler did for one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Nothing reused.
    Cold,
    /// The whole result was cached.
    ExactHit,
    /// The whole result was cached and a write has patched that entry
    /// since this statement last read it.
    RepairedHit,
    /// A cached subsuming result was read and re-filtered.
    SubsumeHit,
    /// Some subtree came from the cache; the rest executed.
    PartialHit,
}

/// One executed read.
pub struct ReadOutcome {
    /// Statement start to end of encode, in microseconds.
    pub latency_us: f64,
    pub class: Class,
    /// Time in the recycler's rewrite phase.
    pub match_us: f64,
    /// `Prepared::execute` plus the drain, in microseconds.
    pub execute_drain_us: f64,
    /// The drain alone, in microseconds.
    pub drain_us: f64,
    pub rows: u64,
    /// Bytes the encoder produced.
    pub encoded_bytes: usize,
    /// Rows of the base tables the statement's plan scans.
    pub base_rows: u64,
    /// With `keep`: the result as text, and an oracle pinned to the table
    /// versions it was computed from.
    pub kept: Option<(TextRows, Oracle)>,
}

/// The embedded stand-in for one server connection.
pub struct Embedded {
    engine: Arc<Engine>,
    session: Session,
    named: HashMap<String, Prepared>,
    out: Vec<u8>,
}

/// Split a request into frames and decode each with the server's decoder.
fn decode_request(request: &[u8]) -> Vec<Frontend> {
    let mut frames = Vec::with_capacity(4);
    let mut at = 0usize;
    while at < request.len() {
        let tag = request[at];
        let len = u32::from_be_bytes(request[at + 1..at + 5].try_into().unwrap()) as usize;
        let body = &request[at + 5..at + 1 + len];
        frames.push(pg::parse_frame(tag, body).expect("the client encodes valid frames"));
        at += 1 + len;
    }
    frames
}

/// Decode every Bind value with the server's text decoder.
fn decode_values(frames: &[Frontend]) -> Vec<Value> {
    let mut values = Vec::new();
    for f in frames {
        if let Frontend::Bind { params, .. } = f {
            for raw in params {
                values.push(pg::decode_param(0, raw.as_deref()).expect("text parameters decode"));
            }
        }
    }
    values
}

/// Name decoded values like `Conn::on_bind` does: by position in the
/// prepared statement's parameter list.
fn bind_params(values: Vec<Value>, names: &[String]) -> Params {
    names
        .iter()
        .zip(values)
        .fold(Params::new(), |p, (n, v)| p.set(n.clone(), v))
}

fn classify(handle: &QueryHandle, root_cached: bool, after_write: bool) -> Class {
    let subsumed = handle
        .events()
        .iter()
        .any(|e| matches!(e, RecyclerEvent::SubsumptionReused { .. }));
    if subsumed {
        Class::SubsumeHit
    } else if !handle.reused() {
        Class::Cold
    } else if !root_cached {
        Class::PartialHit
    } else if after_write {
        Class::RepairedHit
    } else {
        Class::ExactHit
    }
}

fn encode(out: &mut Vec<u8>, handle: &QueryHandle, batches: &[Batch], describe: bool) -> u64 {
    out.clear();
    if describe {
        pg::row_description(out, handle.schema());
    }
    let mut rows = 0u64;
    for batch in batches {
        rows += batch.rows() as u64;
        for row in batch.to_rows() {
            pg::data_row(out, &row);
        }
    }
    pg::command_complete(out, &format!("SELECT {rows}"));
    pg::ready_for_query(out);
    rows
}

/// Rows of the base tables `plan` scans.
fn base_rows(engine: &Engine, plan: &Plan) -> u64 {
    plan.base_tables()
        .iter()
        .filter_map(|t| engine.catalog().get(t))
        .map(|t| t.rows() as u64)
        .sum()
}

/// Whether the recycler holds the statement's whole result right now.
fn root_cached(engine: &Engine, prepared: &Prepared, params: &Params) -> bool {
    let (Some(recycler), Ok(concrete)) = (
        engine.recycler(),
        prepared.template().substitute_params(params),
    ) else {
        return false;
    };
    matches!(recycler.probe(&concrete), CacheState::Cached)
}

/// Compile SQL text the way `Conn::classify` does.
fn compile(engine: &Engine, sql: &str) -> Result<Plan, String> {
    let provider = CatalogWithFunctions {
        catalog: engine.catalog().as_ref(),
        functions: engine.functions().as_ref(),
    };
    match rdb_sql::compile(sql, &provider).map_err(|e| e.render(sql))? {
        BoundStatement::Query(plan) => Ok(plan),
        _ => Err(format!("not a query: {sql}")),
    }
}

impl Embedded {
    pub fn new(engine: &Arc<Engine>) -> Embedded {
        Embedded {
            engine: engine.clone(),
            session: engine.session(),
            named: HashMap::new(),
            out: Vec::new(),
        }
    }

    /// Parse a named statement once, as a connection's `Parse` does.
    pub fn prepare_named(&mut self, name: &str, sql: &str) {
        let prepared = self
            .session
            .prepare_sql(sql)
            .unwrap_or_else(|e| panic!("prepare {name}: {}", e.render(sql)));
        self.named.insert(name.to_string(), prepared);
    }

    /// Execute one read with every step done once and nothing recorded;
    /// returns the embedded latency in microseconds, which the traced and
    /// wire passes are compared with.
    pub fn run_plain(&mut self, stmt: &Statement) -> Result<f64, String> {
        let plan_err = |e: PlanError| e.to_string();
        // Building the request is the client's work, not the server's.
        let request = stmt.request();
        let started = Instant::now();
        let values = decode_values(&decode_request(&request));
        let (mut handle, describe) = match stmt {
            Statement::Plan(plan) => {
                let prepared = self.session.prepare(plan).map_err(plan_err)?;
                (prepared.execute(&Params::none()).map_err(plan_err)?, false)
            }
            Statement::Sql {
                protocol: Protocol::Named,
                name,
                ..
            } => {
                let prepared = &self.named[*name];
                let params = bind_params(values, prepared.param_names());
                (prepared.execute(&params).map_err(plan_err)?, false)
            }
            Statement::Sql { protocol, sql, .. } => {
                let plan = compile(&self.engine, sql)?;
                let prepared = self.session.prepare(&plan).map_err(plan_err)?;
                let params = bind_params(values, prepared.param_names());
                (
                    prepared.execute(&params).map_err(plan_err)?,
                    *protocol == Protocol::Simple,
                )
            }
        };
        let batches: Vec<Batch> = handle.by_ref().collect();
        encode(&mut self.out, &handle, &batches, describe);
        Ok(us(started.elapsed()))
    }

    /// Execute one read with a span around every layer call. `after_write`
    /// says a write has committed since this statement last ran, which
    /// turns an exact hit into a repaired hit; `keep` retains the result
    /// for the oracle.
    pub fn run_traced(
        &mut self,
        tracer: &mut Tracer,
        stmt: &Statement,
        after_write: bool,
        keep: bool,
    ) -> Result<ReadOutcome, String> {
        let plan_err = |e: PlanError| e.to_string();
        let catalog = self.engine.catalog().clone();
        let request = stmt.request();
        let started = Instant::now();
        tracer.statement(|t| {
            let values = match stmt {
                Statement::Plan(_) => Vec::new(),
                Statement::Sql { .. } => t.span("server.decode", |_| {
                    decode_values(&decode_request(&request))
                }),
            };
            // Prepare: every time, except for a named statement.
            let fresh: Option<Prepared> = match stmt {
                Statement::Sql {
                    protocol: Protocol::Named,
                    ..
                } => None,
                _ => Some(t.span("engine.prepare", |t| -> Result<Prepared, String> {
                    let bound = match stmt {
                        Statement::Plan(plan) => (*plan).clone(),
                        Statement::Sql { sql, .. } => {
                            let ast = t
                                .span("sql.parse", |_| rdb_sql::parse(sql))
                                .map_err(|e| e.render(sql))?;
                            let provider = CatalogWithFunctions {
                                catalog: catalog.as_ref(),
                                functions: self.engine.functions().as_ref(),
                            };
                            match t
                                .span("sql.bind", |_| rdb_sql::bind_statement(&ast, &provider))
                                .map_err(|e| e.render(sql))?
                            {
                                BoundStatement::Query(plan) => plan,
                                _ => return Err(format!("not a query: {sql}")),
                            }
                        }
                    };
                    let normalized =
                        t.span("plan.normalize", |_| rdb_plan::normalize(&bound, &catalog));
                    t.span("plan.fingerprint", |_| {
                        std::hint::black_box(rdb_plan::structural_hash_at(&normalized, &|table| {
                            catalog.epoch_of(table).unwrap_or(0)
                        }))
                    });
                    self.session.prepare(&bound).map_err(plan_err)
                })?),
            };
            let prepared: &Prepared = match (&fresh, stmt) {
                (Some(p), _) => p,
                (None, Statement::Sql { name, .. }) => &self.named[*name],
                (None, Statement::Plan(_)) => unreachable!("plans are prepared every time"),
            };
            let params = bind_params(values, prepared.param_names());
            // What the classification needs is the harness's own work:
            // under a span of its own, and taken out of the latency.
            let probe = Instant::now();
            let (root_cached, base_rows) = t.span("trace.probe", |_| {
                (
                    root_cached(&self.engine, prepared, &params),
                    base_rows(&self.engine, prepared.template()),
                )
            });
            let probe_us = us(probe.elapsed());

            let call = Instant::now();
            let mut handle = t
                .span("engine.execute_call", |_| prepared.execute(&params))
                .map_err(plan_err)?;
            t.child_of_last("core.match", handle.match_ns());
            let class = classify(&handle, root_cached, after_write);
            let whole = matches!(class, Class::ExactHit | Class::RepairedHit);
            let drain = Instant::now();
            let batches: Vec<Batch> = t
                .span(if whole { "core.replay" } else { "exec.drain" }, |_| {
                    handle.by_ref().collect()
                });
            let drain_us = us(drain.elapsed());
            let execute_drain_us = us(call.elapsed());
            let rows = match stmt {
                Statement::Plan(_) => batches.iter().map(|b| b.rows() as u64).sum(),
                Statement::Sql { protocol, .. } => t.span("server.encode", |_| {
                    encode(
                        &mut self.out,
                        &handle,
                        &batches,
                        *protocol == Protocol::Simple,
                    )
                }),
            };
            let latency_us = us(started.elapsed()) - probe_us;
            let kept = keep.then(|| {
                let all = Batch::concat_or_empty(handle.schema(), &batches);
                (text_rows(&all), Oracle::at(&handle))
            });
            Ok(ReadOutcome {
                latency_us,
                class,
                match_us: handle.match_ns() as f64 / 1e3,
                execute_drain_us,
                drain_us,
                rows,
                encoded_bytes: match stmt {
                    Statement::Plan(_) => 0,
                    Statement::Sql { .. } => self.out.len(),
                },
                base_rows,
                kept,
            })
        })
    }
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

/// Apply one write through the embedded DML API.
pub fn apply_write(session: &Session, op: &WriteOp) -> Result<WriteOutcome, String> {
    match op {
        WriteOp::Insert { table, rows } => session.append(table, rows),
        WriteOp::Delete { key } => session.delete("lineitem", &WriteOp::predicate(*key)),
    }
    .map_err(|e| e.to_string())
}

/// Two reference engines beside the one under test. Timing the same write
/// on each separates the write path's layers from outside:
///
/// * `bare` — no recycler, no WAL: the storage commit alone;
/// * `logged` — no recycler, WAL with fsync on every commit: adds `wal`;
/// * the engine under test — recycler warm, no WAL: adds `delta` repair.
pub struct WriteRig {
    bare: Session,
    logged: Session,
    logged_engine: Arc<Engine>,
}

impl WriteRig {
    /// Both engines get a catalog of their own: a write must not be
    /// visible to the engine under test twice.
    pub fn new(
        bare: Arc<Catalog>,
        logged: Arc<Catalog>,
        wal_dir: &Path,
    ) -> Result<WriteRig, String> {
        let bare = Engine::builder(bare).no_recycler().build();
        let logged_engine = Engine::builder(logged)
            .no_recycler()
            .data_dir(wal_dir)
            .durability(DurabilityConfig {
                fsync: FsyncPolicy::Always,
                // Checkpoints are timed by explicit calls, not by a
                // background thread that would race the timed appends.
                auto_checkpoint: false,
                ..DurabilityConfig::default()
            })
            .try_build()
            .map_err(|e| e.to_string())?;
        Ok(WriteRig {
            bare: bare.session(),
            logged: logged_engine.session(),
            logged_engine,
        })
    }

    /// Apply `op` to all three engines under one statement's spans.
    pub fn run_traced(
        &self,
        tracer: &mut Tracer,
        under_test: &Session,
        op: &WriteOp,
    ) -> Result<WriteOutcome, String> {
        tracer.statement(|t| {
            t.span("storage.commit", |_| apply_write(&self.bare, op))?;
            t.span("wal.append", |_| apply_write(&self.logged, op))?;
            t.span("delta.repair_commit", |_| apply_write(under_test, op))
        })
    }

    /// The WAL-backed reference engine (for its byte and record counts
    /// and for timed checkpoints).
    pub fn logged(&self) -> &Arc<Engine> {
        &self.logged_engine
    }
}

// ---------------------------------------------------------------------------
// From spans to per-layer metrics
// ---------------------------------------------------------------------------

/// Per-layer metrics of one traced replay: the median self time of each
/// span name, latencies by outcome class, and what the two passes over
/// the same statements (plain, traced) say about tracing itself.
pub fn set_layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    reads: &[ReadOutcome],
    plain_us: &[f64],
) {
    let own = tracer.self_us_by_name();
    for (metric, span) in [
        ("server.decode_us", "server.decode"),
        ("server.encode_us", "server.encode"),
        ("sql.parse_us", "sql.parse"),
        ("sql.bind_us", "sql.bind"),
        ("plan.normalize_us", "plan.normalize"),
        ("plan.fingerprint_us", "plan.fingerprint"),
        ("engine.execute_call_us", "engine.execute_call"),
        ("core.match_us", "core.match"),
        ("core.replay_us", "core.replay"),
        ("exec.drain_us", "exec.drain"),
    ] {
        if let Some(samples) = own.get(span) {
            report.set(metric, median(samples), samples.len());
        }
    }
    // What the server spends preparing is the `engine.prepare` span less
    // the harness's own copies of normalize and fingerprint (the three
    // span names occur once per prepared statement, in step): parse, bind
    // and `Session::prepare`, the work of `Session::prepare_sql`.
    let total = tracer.durations_us("engine.prepare");
    if !total.is_empty() {
        let normalize = tracer.durations_us("plan.normalize");
        let fingerprint = tracer.durations_us("plan.fingerprint");
        let server_side: Vec<f64> = total
            .iter()
            .zip(normalize.iter().zip(&fingerprint))
            .map(|(t, (n, f))| t - n - f)
            .collect();
        report.set("engine.prepare_us", median(&server_side), total.len());
    }

    for (metric, class) in [
        ("engine.cold_us", Class::Cold),
        ("engine.exact_hit_us", Class::ExactHit),
        ("engine.repaired_hit_us", Class::RepairedHit),
        ("engine.subsume_hit_us", Class::SubsumeHit),
        ("engine.partial_hit_us", Class::PartialHit),
    ] {
        let of_class: Vec<f64> = reads
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.execute_drain_us)
            .collect();
        if !of_class.is_empty() {
            report.set(metric, median(&of_class), of_class.len());
        }
    }

    let matches: Vec<f64> = reads.iter().map(|r| r.match_us).collect();
    let decile = (matches.len() / 10).max(1);
    let first = median(&matches[..decile.min(matches.len())]);
    if first > 0.0 {
        let last = median(&matches[matches.len() - decile..]);
        report.set("core.match_growth", last / first, decile);
    }

    // Rows/µs is Mrows/s.
    let scan_rates: Vec<f64> = reads
        .iter()
        .filter(|r| r.class == Class::Cold && r.drain_us > 0.0)
        .map(|r| r.base_rows as f64 / r.drain_us)
        .collect();
    if !scan_rates.is_empty() {
        report.set(
            "exec.scan_mrows_per_s",
            median(&scan_rates),
            scan_rates.len(),
        );
    }
    report.set(
        "exec.rows_out",
        reads.iter().map(|r| r.rows).sum::<u64>() as f64,
        reads.len(),
    );
    report.set(
        "server.encode_bytes",
        reads.iter().map(|r| r.encoded_bytes).sum::<usize>() as f64,
        reads.len(),
    );

    let traced: Vec<f64> = reads.iter().map(|r| r.latency_us).collect();
    if !plain_us.is_empty() {
        report.set(
            "trace.overhead_frac",
            median(&traced) / median(plain_us) - 1.0,
            traced.len(),
        );
    }
    report.set(
        "trace.unattributed_frac",
        tracer.unattributed_frac(),
        traced.len(),
    );
}
