//! One client connection: startup negotiation, the simple and extended
//! query cycles, cancellation, and buffered, backpressured output.
//!
//! A connection is a state machine pumped by a pool worker (see
//! `server.rs` for who holds it when). `Conn::pump` waits for bytes with
//! *one* `read` — blocking, bounded by the linger timeout — acts on every
//! *complete* frame, flushes, and returns with partial frames left in the
//! input buffer. Responses accumulate in a bounded output buffer that is
//! flushed with blocking writes, so a client that stops reading stalls
//! only its own statement (TCP backpressure), never the reactor.
//!
//! # Socket mode
//!
//! The mode has one owner at a time and changes only at a hand-off:
//! **nonblocking while parked on the reactor** (`Conn::new`,
//! `Conn::park`) so its `peek` sweep never waits, **blocking with the
//! linger as read timeout while on a worker** (`Conn::attach`) so a
//! worker waiting for the next request sleeps in the kernel. Nothing in
//! between toggles it — not `fill`, not `flush`.
//!
//! Error discipline follows Postgres: SQL-level failures produce an
//! `ErrorResponse` and leave the connection healthy (the extended
//! protocol additionally discards messages until `Sync`); protocol-level
//! violations (unknown tags, truncated frames, binary formats) produce an
//! `ErrorResponse` and close *this* connection — never the server.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rdb_engine::{Engine, Prepared, QueryHandle, Session, SqlOutcome, WriteKind, WriteOutcome};
use rdb_expr::Params;
use rdb_plan::PlanErrorKind;
use rdb_sql::{BindErrorKind, BoundStatement, CatalogWithFunctions, Span, SqlError, SqlErrorKind};

use crate::protocol::{self as pg, Frontend, MAX_FRAME};
use crate::server::LINGER;
use crate::stats::ServerShared;

/// Flush the output buffer once it holds this much encoded data. Bounds
/// per-connection memory: at most one batch's rows are encoded beyond the
/// threshold before the (blocking) flush runs.
pub(crate) const FLUSH_THRESHOLD: usize = 64 << 10;

/// What one pump round left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pump {
    /// Bytes arrived and every complete frame was answered; the client may
    /// well have more to say.
    Idle,
    /// Nothing arrived for one linger; park the socket on the reactor.
    Quiet,
    /// The connection is finished (Terminate, EOF, error); drop it.
    Closed,
}

/// What one read brought.
enum Fill {
    Data,
    TimedOut,
    Eof,
}

/// A statement prepared over the wire, classified at Parse time. Queries
/// go through the engine's [`Prepared`] path — same template, same
/// normalization, same recycler fingerprints as an embedded
/// `Session::prepare_sql`. DML keeps its text and re-binds at Execute
/// (the engine's write path takes values, not a prepared template).
///
/// `wire_params` names the parameter each Bind value goes to, in wire
/// order (see [`wire_params`]).
enum Statement {
    Query {
        sql: String,
        prepared: Prepared,
        param_oids: Vec<i32>,
        wire_params: Vec<String>,
    },
    Dml {
        sql: String,
        param_oids: Vec<i32>,
        wire_params: Vec<String>,
    },
    Empty,
}

/// A bound portal: decoded parameters against a named statement.
struct Portal {
    statement: String,
    params: Params,
}

/// What an Execute decided to do, computed while the statement map is
/// borrowed and acted on after the borrow ends.
// Transient, matched once; boxing the handle would tax the query path.
#[allow(clippy::large_enum_variant)]
enum Exec {
    Handle(QueryHandle),
    Write(WriteOutcome),
    Empty,
    Fail { sql: String, err: SqlError },
}

pub(crate) struct Conn {
    stream: TcpStream,
    pid: i32,
    secret: i32,
    shared: Arc<ServerShared>,
    engine: Arc<Engine>,
    session: Option<Session>,
    cancel: Arc<AtomicBool>,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    started: bool,
    dead: bool,
    skip_to_sync: bool,
    statements: HashMap<String, Statement>,
    portals: HashMap<String, Portal>,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        pid: i32,
        secret: i32,
        cancel: Arc<AtomicBool>,
        shared: Arc<ServerShared>,
        engine: Arc<Engine>,
    ) -> std::io::Result<Conn> {
        // Born parked: the reactor holds it until the startup packet shows.
        stream.set_nonblocking(true)?;
        stream.set_read_timeout(Some(LINGER))?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            pid,
            secret,
            shared,
            engine,
            session: None,
            cancel,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            started: false,
            dead: false,
            skip_to_sync: false,
            statements: HashMap::new(),
            portals: HashMap::new(),
        })
    }

    pub(crate) fn pid(&self) -> i32 {
        self.pid
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Take the socket for a worker: reads block, up to the linger.
    pub(crate) fn attach(&mut self) -> std::io::Result<()> {
        self.stream.set_nonblocking(false)
    }

    /// Give the socket back to the reactor: reads and `peek` never block.
    pub(crate) fn park(&mut self) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)
    }

    /// Close an idle connection during graceful shutdown: tell the client
    /// why, then sever the socket. Runs on the reactor, so the (tiny)
    /// write is nonblocking: a client whose window is full misses the
    /// reason, not the close.
    pub(crate) fn close_for_shutdown(&mut self) {
        pg::error_response(
            &mut self.outbuf,
            "57P01",
            "terminating connection due to administrator command",
            None,
            None,
        );
        self.flush();
        self.dead = true;
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Wait (at most one linger) for bytes, act on every complete frame,
    /// flush responses.
    pub(crate) fn pump(&mut self) -> Pump {
        let eof = match self.fill() {
            Fill::TimedOut => return Pump::Quiet,
            Fill::Data => false,
            Fill::Eof => true,
        };
        while !self.dead {
            match self.next_frame() {
                Ok(None) => break,
                Ok(Some(Raw::Startup(body))) => self.on_startup(&body),
                Ok(Some(Raw::Tagged(tag, body))) => self.on_frame(tag, &body),
                Err(msg) => {
                    pg::error_response(&mut self.outbuf, "08P01", &msg, None, None);
                    self.dead = true;
                }
            }
        }
        if eof {
            self.dead = true;
        }
        self.flush();
        if self.dead {
            Pump::Closed
        } else {
            Pump::Idle
        }
    }

    /// One `read` per wake, blocking up to the socket's read timeout (the
    /// linger). Every complete frame is consumed before the next read and
    /// [`Conn::next_frame`] refuses a frame longer than [`MAX_FRAME`], so
    /// the buffer never holds more than one partial frame plus a chunk — a
    /// firehosing client waits in the kernel buffer, which is the
    /// read-side backpressure.
    fn fill(&mut self) -> Fill {
        use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let mut chunk = [0u8; 16 << 10];
        loop {
            return match self.stream.read(&mut chunk) {
                Ok(0) => Fill::Eof,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    Fill::Data
                }
                // A timed-out blocking read reports either, by platform.
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => Fill::TimedOut,
                Err(e) if e.kind() == Interrupted => continue,
                Err(_) => Fill::Eof,
            };
        }
    }

    fn next_frame(&mut self) -> Result<Option<Raw>, String> {
        if !self.started {
            if self.inbuf.len() < 4 {
                return Ok(None);
            }
            let len = i32::from_be_bytes(self.inbuf[..4].try_into().unwrap());
            if !(8..=MAX_FRAME as i32).contains(&len) {
                return Err(format!("invalid startup packet length {len}"));
            }
            let len = len as usize;
            if self.inbuf.len() < len {
                return Ok(None);
            }
            let body = self.inbuf[4..len].to_vec();
            self.inbuf.drain(..len);
            return Ok(Some(Raw::Startup(body)));
        }
        if self.inbuf.len() < 5 {
            return Ok(None);
        }
        let tag = self.inbuf[0];
        let len = i32::from_be_bytes(self.inbuf[1..5].try_into().unwrap());
        if !(4..=MAX_FRAME as i32).contains(&len) {
            return Err(format!("invalid message length {len} for tag {tag:#x}"));
        }
        let total = 1 + len as usize;
        if self.inbuf.len() < total {
            return Ok(None);
        }
        let body = self.inbuf[5..total].to_vec();
        self.inbuf.drain(..total);
        Ok(Some(Raw::Tagged(tag, body)))
    }

    // -- startup ----------------------------------------------------------

    fn on_startup(&mut self, body: &[u8]) {
        if body.len() < 4 {
            self.dead = true;
            return;
        }
        let code = i32::from_be_bytes(body[..4].try_into().unwrap());
        match code {
            pg::SSL_CODE | pg::GSSENC_CODE => {
                // Refused, not framed: a single 'N' byte, then the client
                // retries with a plain startup packet.
                self.outbuf.push(b'N');
            }
            pg::CANCEL_CODE if body.len() >= 12 => {
                let pid = i32::from_be_bytes(body[4..8].try_into().unwrap());
                let secret = i32::from_be_bytes(body[8..12].try_into().unwrap());
                self.shared.cancel(pid, secret);
                // A cancel connection carries nothing else and gets no
                // reply, matched or not.
                self.dead = true;
            }
            pg::PROTOCOL_V3 => {
                if self.shared.draining() {
                    pg::error_response(
                        &mut self.outbuf,
                        "57P03",
                        "the database system is shutting down",
                        None,
                        None,
                    );
                    self.dead = true;
                    return;
                }
                // Trust auth: the user/database startup parameters are
                // accepted as-is.
                let mut session = self.engine.session();
                // One flag, two observers: the connection's statement loop
                // checks-and-clears it between batches, and the executor's
                // operators (which only ever *load* it) wind down stuck
                // scans/morsels at their own boundaries.
                session.set_cancel_flag(Arc::clone(&self.cancel));
                self.session = Some(session);
                self.started = true;
                pg::authentication_ok(&mut self.outbuf);
                pg::parameter_status(&mut self.outbuf, "server_version", "14.0 (rdb)");
                pg::parameter_status(&mut self.outbuf, "server_encoding", "UTF8");
                pg::parameter_status(&mut self.outbuf, "client_encoding", "UTF8");
                pg::parameter_status(&mut self.outbuf, "DateStyle", "ISO, YMD");
                pg::parameter_status(&mut self.outbuf, "integer_datetimes", "on");
                pg::backend_key_data(&mut self.outbuf, self.pid, self.secret);
                pg::ready_for_query(&mut self.outbuf);
            }
            other => {
                pg::error_response(
                    &mut self.outbuf,
                    "08P01",
                    &format!("unsupported protocol version {other}"),
                    None,
                    None,
                );
                self.dead = true;
            }
        }
    }

    // -- post-startup dispatch --------------------------------------------

    fn on_frame(&mut self, tag: u8, body: &[u8]) {
        let frame = match pg::parse_frame(tag, body) {
            Ok(f) => f,
            Err(e) => {
                pg::error_response(&mut self.outbuf, "08P01", &e.to_string(), None, None);
                self.dead = true;
                return;
            }
        };
        match frame {
            Frontend::Terminate => self.dead = true,
            Frontend::Query(text) => self.simple_query(&text),
            Frontend::Sync => {
                self.skip_to_sync = false;
                pg::ready_for_query(&mut self.outbuf);
            }
            // Responses flush at the end of every pump anyway.
            Frontend::Flush => {}
            // After an extended-protocol error, everything up to Sync is
            // discarded.
            _ if self.skip_to_sync => {}
            Frontend::Parse {
                name,
                sql,
                param_oids,
            } => self.on_parse(name, &sql, param_oids),
            Frontend::Bind {
                portal,
                statement,
                params,
            } => self.on_bind(portal, statement, &params),
            Frontend::Describe { kind, name } => self.on_describe(kind, &name),
            Frontend::Execute { portal, .. } => self.on_execute(&portal),
            Frontend::Close { kind, name } => {
                if kind == b'S' {
                    self.statements.remove(&name);
                } else {
                    self.portals.remove(&name);
                }
                pg::close_complete(&mut self.outbuf);
            }
        }
    }

    // -- simple query cycle -----------------------------------------------

    fn simple_query(&mut self, text: &str) {
        let statements = pg::split_statements(text);
        if statements.is_empty() {
            pg::empty_query_response(&mut self.outbuf);
            pg::ready_for_query(&mut self.outbuf);
            return;
        }
        let statements: Vec<String> = statements.into_iter().map(str::to_string).collect();
        for sql in &statements {
            // An error aborts the rest of the query string, Postgres-style.
            if !self.run_simple(sql) {
                break;
            }
        }
        pg::ready_for_query(&mut self.outbuf);
    }

    fn run_simple(&mut self, sql: &str) -> bool {
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        self.shared.queries_active.fetch_add(1, Ordering::Relaxed);
        let outcome = self
            .session
            .as_ref()
            .expect("startup completed")
            .sql(sql, &Params::none());
        let ok = match outcome {
            Ok(SqlOutcome::Rows(handle)) => self.stream_rows(handle, true),
            Ok(SqlOutcome::Write(w)) => {
                pg::command_complete(&mut self.outbuf, &write_tag(&w));
                true
            }
            Err(e) => {
                self.sql_error(sql, &e);
                false
            }
        };
        self.shared.queries_active.fetch_sub(1, Ordering::Relaxed);
        if !ok {
            self.shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Stream a query's batches as DataRows, checking the cancel flag at
    /// every batch boundary and flushing whenever the output buffer fills.
    /// `send_desc` distinguishes the simple cycle (RowDescription precedes
    /// the rows — even for zero rows) from the extended cycle (Describe
    /// already announced it).
    fn stream_rows(&mut self, mut handle: QueryHandle, send_desc: bool) -> bool {
        if send_desc {
            pg::row_description(&mut self.outbuf, handle.schema());
        }
        let mut rows = 0u64;
        loop {
            if self.cancel.swap(false, Ordering::AcqRel) {
                // Dropping the handle mid-stream is the engine's abort
                // path: the admission slot frees, the recycler abandons
                // in-flight materializations without poisoning the cache.
                drop(handle);
                pg::error_response(
                    &mut self.outbuf,
                    "57014",
                    "canceling statement due to user request",
                    None,
                    None,
                );
                return false;
            }
            let Some(batch) = handle.next() else { break };
            rows += batch.rows() as u64;
            for row in batch.to_rows() {
                pg::data_row(&mut self.outbuf, &row);
            }
            if self.outbuf.len() >= FLUSH_THRESHOLD && !self.flush() {
                return false;
            }
        }
        // The executor observes the same flag at batch/morsel boundaries
        // and may have ended the stream early itself; a truncated result
        // must not masquerade as a completed SELECT.
        if self.cancel.swap(false, Ordering::AcqRel) {
            pg::error_response(
                &mut self.outbuf,
                "57014",
                "canceling statement due to user request",
                None,
                None,
            );
            return false;
        }
        // Likewise a stream a failed stage or worker ended short: report
        // the recorded error, not a row count.
        if let Some(e) = handle.error() {
            pg::error_response(&mut self.outbuf, "XX000", e.message(), None, None);
            return false;
        }
        pg::command_complete(&mut self.outbuf, &format!("SELECT {rows}"));
        true
    }

    // -- extended query cycle ---------------------------------------------

    fn on_parse(&mut self, name: String, sql: &str, param_oids: Vec<i32>) {
        match self.classify(sql, param_oids) {
            Ok(stmt) => {
                self.statements.insert(name, stmt);
                pg::parse_complete(&mut self.outbuf);
            }
            Err(e) => {
                self.sql_error(sql, &e);
                self.fail_extended();
            }
        }
    }

    /// Compile the statement text once at Parse. Queries become engine
    /// [`Prepared`] templates — wire prepared statements land on the same
    /// recycler fingerprints as embedded ones.
    fn classify(&self, sql: &str, param_oids: Vec<i32>) -> Result<Statement, SqlError> {
        let text = sql.trim();
        if text.is_empty() {
            return Ok(Statement::Empty);
        }
        let provider = CatalogWithFunctions {
            catalog: self.engine.catalog().as_ref(),
            functions: self.engine.functions().as_ref(),
        };
        match rdb_sql::compile(text, &provider)? {
            BoundStatement::Query(plan) => {
                let prepared = self
                    .session
                    .as_ref()
                    .expect("startup completed")
                    .prepare(&plan)
                    .map_err(|pe| SqlError::from_plan(Span::new(0, text.len()), pe))?;
                let wire_params = wire_params(prepared.param_names(), text)?;
                Ok(Statement::Query {
                    sql: text.to_string(),
                    prepared,
                    param_oids,
                    wire_params,
                })
            }
            BoundStatement::Insert { .. } | BoundStatement::Delete { .. } => Ok(Statement::Dml {
                sql: text.to_string(),
                wire_params: numbered_params(positional_param_count(text), text)?,
                param_oids,
            }),
        }
    }

    fn on_bind(&mut self, portal: String, statement: String, raw: &[Option<Vec<u8>>]) {
        let Some(stmt) = self.statements.get(&statement) else {
            pg::error_response(
                &mut self.outbuf,
                "26000",
                &format!("prepared statement \"{statement}\" does not exist"),
                None,
                None,
            );
            self.fail_extended();
            return;
        };
        // `template`: the names a query's execute accepts. A numbered
        // statement may skip a number; its value is decoded and dropped.
        let (names, template, oids): (&[String], Option<&[String]>, &[i32]) = match stmt {
            Statement::Query {
                prepared,
                param_oids,
                wire_params,
                ..
            } => (wire_params, Some(prepared.param_names()), param_oids),
            Statement::Dml {
                wire_params,
                param_oids,
                ..
            } => (wire_params, None, param_oids),
            Statement::Empty => (&[], None, &[]),
        };
        if raw.len() != names.len() {
            let (got, want) = (raw.len(), names.len());
            pg::error_response(
                &mut self.outbuf,
                "08P01",
                &format!(
                    "bind message supplies {got} parameters, \
                     but prepared statement requires {want}"
                ),
                None,
                None,
            );
            self.fail_extended();
            return;
        }
        let mut params = Params::new();
        for (i, value) in raw.iter().enumerate() {
            let oid = oids.get(i).copied().unwrap_or(0);
            match pg::decode_param(oid, value.as_deref()) {
                Ok(v) => {
                    if template.is_none_or(|t| t.contains(&names[i])) {
                        params = params.set(names[i].clone(), v);
                    }
                }
                Err(e) => {
                    pg::error_response(&mut self.outbuf, "22P02", &e.to_string(), None, None);
                    self.fail_extended();
                    return;
                }
            }
        }
        self.portals.insert(portal, Portal { statement, params });
        pg::bind_complete(&mut self.outbuf);
    }

    fn on_describe(&mut self, kind: u8, name: &str) {
        if kind == b'S' {
            let Some(stmt) = self.statements.get(name) else {
                pg::error_response(
                    &mut self.outbuf,
                    "26000",
                    &format!("prepared statement \"{name}\" does not exist"),
                    None,
                    None,
                );
                self.fail_extended();
                return;
            };
            match stmt {
                Statement::Query {
                    prepared,
                    param_oids,
                    wire_params,
                    ..
                } => {
                    let oids: Vec<i32> = (0..wire_params.len())
                        .map(|i| param_oids.get(i).copied().unwrap_or(0))
                        .collect();
                    pg::parameter_description(&mut self.outbuf, &oids);
                    // A parameterized template cannot derive its schema
                    // before binding; the portal Describe can.
                    match prepared.template().schema(self.engine.catalog()) {
                        Ok(schema) => pg::row_description(&mut self.outbuf, &schema),
                        Err(_) => pg::no_data(&mut self.outbuf),
                    }
                }
                Statement::Dml {
                    wire_params,
                    param_oids,
                    ..
                } => {
                    let oids: Vec<i32> = (0..wire_params.len())
                        .map(|i| param_oids.get(i).copied().unwrap_or(0))
                        .collect();
                    pg::parameter_description(&mut self.outbuf, &oids);
                    pg::no_data(&mut self.outbuf);
                }
                Statement::Empty => {
                    pg::parameter_description(&mut self.outbuf, &[]);
                    pg::no_data(&mut self.outbuf);
                }
            }
            return;
        }
        let Some(portal) = self.portals.get(name) else {
            pg::error_response(
                &mut self.outbuf,
                "34000",
                &format!("portal \"{name}\" does not exist"),
                None,
                None,
            );
            self.fail_extended();
            return;
        };
        match self.statements.get(&portal.statement) {
            Some(Statement::Query { prepared, .. }) => {
                let schema = prepared
                    .template()
                    .substitute_params(&portal.params)
                    .and_then(|p| p.schema(self.engine.catalog()));
                match schema {
                    Ok(s) => pg::row_description(&mut self.outbuf, &s),
                    Err(_) => pg::no_data(&mut self.outbuf),
                }
            }
            _ => pg::no_data(&mut self.outbuf),
        }
    }

    fn on_execute(&mut self, portal: &str) {
        let Some(p) = self.portals.get(portal) else {
            pg::error_response(
                &mut self.outbuf,
                "34000",
                &format!("portal \"{portal}\" does not exist"),
                None,
                None,
            );
            self.fail_extended();
            return;
        };
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        self.shared.queries_active.fetch_add(1, Ordering::Relaxed);
        let params = p.params.clone();
        // Decide while the statement map is borrowed; act afterwards (the
        // produced handle owns everything it needs).
        let exec = match self.statements.get(&p.statement) {
            None => Exec::Fail {
                sql: String::new(),
                err: SqlError::bind(
                    Span::default(),
                    format!("prepared statement \"{}\" does not exist", p.statement),
                ),
            },
            Some(Statement::Empty) => Exec::Empty,
            Some(Statement::Query { sql, prepared, .. }) => match prepared.execute(&params) {
                Ok(handle) => Exec::Handle(handle),
                Err(pe) => Exec::Fail {
                    sql: sql.clone(),
                    err: SqlError::from_plan(Span::new(0, sql.len()), pe),
                },
            },
            Some(Statement::Dml { sql, .. }) => {
                match self
                    .session
                    .as_ref()
                    .expect("startup completed")
                    .sql(sql, &params)
                {
                    Ok(SqlOutcome::Write(w)) => Exec::Write(w),
                    Ok(SqlOutcome::Rows(handle)) => Exec::Handle(handle),
                    Err(e) => Exec::Fail {
                        sql: sql.clone(),
                        err: e,
                    },
                }
            }
        };
        let ok = match exec {
            Exec::Empty => {
                pg::empty_query_response(&mut self.outbuf);
                true
            }
            Exec::Write(w) => {
                pg::command_complete(&mut self.outbuf, &write_tag(&w));
                true
            }
            // Extended protocol: Describe announced the row shape; Execute
            // sends only the data.
            Exec::Handle(handle) => self.stream_rows(handle, false),
            Exec::Fail { sql, err } => {
                self.sql_error(&sql, &err);
                false
            }
        };
        self.shared.queries_active.fetch_sub(1, Ordering::Relaxed);
        if !ok {
            self.fail_extended();
        }
    }

    /// Record an extended-protocol statement failure: count it and discard
    /// frames until the client's Sync.
    fn fail_extended(&mut self) {
        self.shared.errors.fetch_add(1, Ordering::Relaxed);
        self.skip_to_sync = true;
    }

    // -- errors and output ------------------------------------------------

    /// Encode a SQL error with its SQLSTATE, the 1-based character
    /// position of the offending span, and the caret-rendered report as
    /// detail.
    fn sql_error(&mut self, sql: &str, e: &SqlError) {
        let position = (!sql.is_empty()).then(|| {
            let start = e.span.start.min(sql.len());
            sql[..start].chars().count() + 1
        });
        let detail = (!sql.is_empty()).then(|| e.render(sql));
        pg::error_response(
            &mut self.outbuf,
            sqlstate(e),
            &e.message,
            position,
            detail.as_deref(),
        );
    }

    /// Flush the output buffer — blocking on a worker, which is the
    /// write-side backpressure point. A dead peer surfaces here and closes
    /// the connection.
    fn flush(&mut self) -> bool {
        if self.outbuf.is_empty() {
            return !self.dead;
        }
        let buf = std::mem::take(&mut self.outbuf);
        let ok = self.stream.write_all(&buf).is_ok();
        if !ok {
            self.dead = true;
        }
        ok
    }
}

/// A raw frame as cut from the input buffer.
enum Raw {
    Startup(Vec<u8>),
    Tagged(u8, Vec<u8>),
}

/// CommandComplete tag for a committed write, keyed on the engine's
/// [`WriteKind`] (`INSERT 0 n` / `DELETE n` — the shapes drivers parse).
fn write_tag(w: &WriteOutcome) -> String {
    match w.kind {
        WriteKind::Append => format!("INSERT 0 {}", w.rows_affected),
        WriteKind::Delete => format!("DELETE {}", w.rows_affected),
        WriteKind::Replace => format!("REPLACE {}", w.rows_affected),
    }
}

/// SQLSTATE for an error from the SQL frontend or the engine. Every arm
/// dispatches on structured kinds ([`BindErrorKind`], [`PlanErrorKind`]) —
/// never on message text, which is free to change without moving the
/// SQLSTATE.
fn sqlstate(e: &SqlError) -> &'static str {
    match &e.kind {
        SqlErrorKind::Bind(b) => match b {
            BindErrorKind::UnknownColumn => "42703",
            BindErrorKind::UnknownTable => "42P01",
            BindErrorKind::AmbiguousColumn => "42702",
            BindErrorKind::UnknownAggregate => "42883",
            BindErrorKind::Other => "42601",
        },
        SqlErrorKind::Lex | SqlErrorKind::Parse => "42601",
        SqlErrorKind::Plan(p) => match p {
            PlanErrorKind::UnknownTable { .. } => "42P01",
            PlanErrorKind::UnknownColumn { .. } => "42703",
            PlanErrorKind::UnknownFunction { .. } => "42883",
            PlanErrorKind::TypeMismatch { .. } => "42804",
            PlanErrorKind::ArityMismatch { .. } => "42601",
            PlanErrorKind::UnboundParameter { .. } => "08P01",
            PlanErrorKind::Saturated { .. } => "53300",
            PlanErrorKind::ShuttingDown => "57P01",
            // read_only_sql_transaction: the WAL failed and the engine
            // degraded to read-only; reads keep serving.
            PlanErrorKind::ReadOnly => "25006",
            PlanErrorKind::Other { .. } => "XX000",
        },
    }
}

/// The parameter each Bind value goes to, in wire order. Numbered
/// placeholders bind by number: value *i* is `$i+1` whatever order
/// normalization left the template's names in, and a number the statement
/// skips still takes a value. Named placeholders have no wire order of
/// their own and keep the template's.
fn wire_params(template: &[String], sql: &str) -> Result<Vec<String>, SqlError> {
    let numbers: Option<Vec<usize>> = template
        .iter()
        .map(|name| {
            let n: usize = name.parse().ok()?;
            (n >= 1 && n.to_string() == *name).then_some(n)
        })
        .collect();
    match numbers.and_then(|ns| ns.into_iter().max()) {
        Some(max) => numbered_params(max, sql),
        None => Ok(template.to_vec()),
    }
}

/// `$1..$n` as parameter names. A Bind counts its values in an `i16`: a
/// statement asking for more can never be bound, and its `$N` must not
/// size an allocation.
fn numbered_params(n: usize, sql: &str) -> Result<Vec<String>, SqlError> {
    if n > i16::MAX as usize {
        return Err(SqlError::bind(
            Span::new(0, sql.len()),
            format!("parameter ${n} is beyond the {} a Bind can carry", i16::MAX),
        ));
    }
    Ok((1..=n).map(|i| i.to_string()).collect())
}

/// Highest `$N` positional parameter in `sql` (outside single-quoted
/// strings); the parameter count of a DML statement.
fn positional_param_count(sql: &str) -> usize {
    let bytes = sql.as_bytes();
    let mut max = 0usize;
    let mut in_str = false;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => in_str = !in_str,
            b'$' if !in_str => {
                let mut j = i + 1;
                let mut n = 0usize;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    n = n
                        .saturating_mul(10)
                        .saturating_add((bytes[j] - b'0') as usize);
                    j += 1;
                }
                if j > i + 1 {
                    max = max.max(n);
                }
                i = j;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_params_counted_outside_strings() {
        assert_eq!(positional_param_count("INSERT INTO t VALUES ($1, $2)"), 2);
        assert_eq!(positional_param_count("DELETE FROM t WHERE k = $3"), 3);
        assert_eq!(positional_param_count("SELECT '$9'"), 0);
        assert_eq!(positional_param_count("SELECT 1"), 0);
    }

    #[test]
    fn write_tags_distinguish_insert_and_delete() {
        let ins = WriteOutcome {
            kind: WriteKind::Append,
            table: "t".into(),
            epoch: 1,
            rows_affected: 3,
            invalidated: Vec::new(),
            repaired: 0,
            repair_fallbacks: 0,
            deltas_applied: 0,
        };
        let del = WriteOutcome {
            kind: WriteKind::Delete,
            table: "t".into(),
            epoch: 2,
            rows_affected: 7,
            invalidated: Vec::new(),
            repaired: 0,
            repair_fallbacks: 0,
            deltas_applied: 0,
        };
        assert_eq!(write_tag(&ins), "INSERT 0 3");
        assert_eq!(write_tag(&del), "DELETE 7");
    }

    #[test]
    fn sqlstates_map_structured_kinds() {
        let err = |kind| SqlError {
            kind,
            span: rdb_sql::Span::new(0, 1),
            message: String::new(),
        };
        assert_eq!(
            sqlstate(&err(SqlErrorKind::Plan(PlanErrorKind::UnknownTable {
                table: "x".into()
            }))),
            "42P01"
        );
        assert_eq!(sqlstate(&err(SqlErrorKind::Parse)), "42601");
        assert_eq!(
            sqlstate(&err(SqlErrorKind::Plan(PlanErrorKind::ShuttingDown))),
            "57P01"
        );
        // Bind errors classify structurally: the message text is
        // deliberately nonsense to prove nothing string-matches it.
        let gibberish = "zxqv 9000";
        for (kind, state) in [
            (BindErrorKind::UnknownColumn, "42703"),
            (BindErrorKind::UnknownTable, "42P01"),
            (BindErrorKind::AmbiguousColumn, "42702"),
            (BindErrorKind::UnknownAggregate, "42883"),
            (BindErrorKind::Other, "42601"),
        ] {
            let e = SqlError::bind_as(rdb_sql::Span::new(0, 4), kind, gibberish);
            assert_eq!(sqlstate(&e), state, "{kind:?}");
        }
    }
}
