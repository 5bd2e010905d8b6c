//! `dash_hits` and `dash_writes` — a dashboard backend's pooled
//! connections over pgwire: two connections, closed loop (each waits for
//! its reply before sending the next statement), a pool of Q1/Q6/Q14 and
//! two selections with eight bindings each, pre-warmed.
//!
//! `dash_hits` sends unnamed Parse+Bind+Execute+Sync. Every statement is a
//! cache hit, so `exec` is idle and the statement is decode → parse → bind
//! → normalize → match under the recycler's mutex → replay → encode →
//! reactor hand-off: `server`, `sql`, `plan` and `core` changes show here
//! and nowhere else as strongly.
//!
//! `dash_writes` runs the same pool over *named* prepared statements with
//! every tenth operation a write, WAL on with the shipped fsync policy,
//! and ends by verifying every template, dropping the server, and
//! restarting on the same directory. The cache is used through *repair*
//! instead of replay; `storage` commit, `wal`, `delta`, checkpoints and
//! recovery join in, so a hit-path gain that taxes writes shows here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;
use rdb_engine::{DurabilityConfig, Engine, FsyncPolicy};
use rdb_recycler::RecyclerConfig;
use rdb_server::{Server, ServerBuilder};
use rdb_storage::Catalog;

use crate::data::{Binding, Pool, WriteOp, WriteSchedule, ROWS_PER_INSERT};
use crate::layers::{self, Embedded, Protocol, Statement, WriteRig};
use crate::measure::{median, quantile, us, Report, Round, RoundClock};
use crate::oracle::{difference, Digest, Oracle, TextRows};
use crate::pgclient::PgClient;
use crate::trace::Tracer;
use crate::{data, oracle, Config, SAMPLE_EVERY};

/// Pooled connections.
const CONNECTIONS: usize = 2;
/// Operations per connection in one round.
const OPS_PER_ROUND_HITS: usize = 250;
const OPS_PER_ROUND_WRITES: usize = 50;
/// `peak_rss_mb` is read after this many rounds. A round of reads leaves
/// nothing behind. With writes the peak is the checkpointer's copy of the
/// tables on top of a commit's; it has settled after some fifteen rounds,
/// and the slowest run seen had 32.
const RSS_AFTER_ROUNDS_HITS: usize = 3;
const RSS_AFTER_ROUNDS_WRITES: usize = 25;
/// Every this-many-th operation of a connection is a write.
const WRITE_EVERY: usize = 10;
/// Background checkpoint trigger, small enough that a run sees several.
const CHECKPOINT_BYTES: u64 = 24 << 10;
/// Writes between the final checkpoint and the restart: what recovery
/// replays. Their log records stay well below [`CHECKPOINT_BYTES`].
const TAIL_WRITES: usize = 8;
/// Passes over the pool before anything is measured.
const WARM_UP_PASSES: usize = 3;
/// Statements per measured second in the single-client replays.
const REPLAY_RATE_HITS: f64 = 400.0;
const REPLAY_RATE_WRITES: f64 = 20.0;

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_threshold_bytes: CHECKPOINT_BYTES,
        ..DurabilityConfig::default()
    }
}

fn serve(catalog: Arc<Catalog>, data_dir: Option<&Path>) -> Server {
    let mut builder = ServerBuilder::new(catalog)
        .recycler(RecyclerConfig::default())
        .workers(CONNECTIONS)
        .max_concurrent_queries(CONNECTIONS)
        .parallelism(1);
    if let Some(dir) = data_dir {
        builder = builder.data_dir(dir).durability(durability());
    }
    builder.serve().expect("server starts")
}

fn connect(server: &Server, pool: &Pool, named: bool) -> PgClient {
    let mut client = PgClient::connect(server.local_addr()).expect("client connects");
    if named {
        for t in &pool.templates {
            let reply = client.prepare(t.name, t.sql).expect("Parse round trip");
            assert!(reply.error.is_none(), "Parse {}: {:?}", t.name, reply.error);
        }
    }
    client
}

struct Setup {
    catalog: Arc<Catalog>,
    pool: Pool,
    server: Server,
    data_dir: Option<PathBuf>,
}

fn setup(cfg: &Config, writes: bool) -> Setup {
    let catalog = data::catalog(cfg.seed);
    let pool = Pool::new(&catalog, cfg.seed);
    let data_dir = writes.then(|| cfg.scratch.join("wal"));
    let server = serve(catalog.clone(), data_dir.as_deref());
    // Warm-up: speculation stores a result on its second execution at the
    // latest, so the third pass is served from the cache throughout.
    let mut client = connect(&server, &pool, false);
    for _ in 0..WARM_UP_PASSES {
        for b in &pool.bindings {
            let reply = client
                .extended(pool.templates[b.template].sql, &b.wire)
                .expect("warm-up round trip");
            assert!(reply.error.is_none(), "warm-up: {:?}", reply.error);
        }
    }
    client.terminate();
    Setup {
        catalog,
        pool,
        server,
        data_dir,
    }
}

// ---------------------------------------------------------------------------
// The operation stream of one connection
// ---------------------------------------------------------------------------

enum Op {
    /// Read a pool binding by index, or with `None` the connection's own
    /// key range right after its own commit — the probe whose answer must
    /// be exactly the connection's live rows.
    Read(Option<usize>),
    Write(WriteOp),
}

/// The seeded sequence of reads and writes one connection issues.
struct OpStream {
    rng: SmallRng,
    schedule: WriteSchedule,
    own_range: Binding,
    writes: bool,
    issued: usize,
    probe_due: bool,
}

impl OpStream {
    fn new(seed: u64, writer: usize, pool: &Pool, writes: bool) -> OpStream {
        let schedule = WriteSchedule::new(seed, writer);
        let (lo, hi) = schedule.key_range();
        OpStream {
            rng: data::rng(seed, 10 + writer as u64),
            own_range: pool.key_window(lo, hi),
            schedule,
            writes,
            issued: 0,
            probe_due: false,
        }
    }

    fn next(&mut self, pool: &Pool) -> Op {
        self.issued += 1;
        if self.writes && self.issued.is_multiple_of(WRITE_EVERY) {
            self.probe_due = true;
            return Op::Write(self.schedule.next_op());
        }
        if std::mem::take(&mut self.probe_due) {
            return Op::Read(None);
        }
        Op::Read(Some(self.rng.gen_range(0..pool.bindings.len())))
    }

    /// The binding an [`Op::Read`] names.
    fn binding<'a>(&'a self, pool: &'a Pool, index: Option<usize>) -> &'a Binding {
        index.map_or(&self.own_range, |i| &pool.bindings[i])
    }
}

/// Rows a write must report as affected.
fn expected_affected(op: &WriteOp) -> u64 {
    match op {
        WriteOp::Insert { rows, .. } => rows.len() as u64,
        WriteOp::Delete { .. } => ROWS_PER_INSERT as u64,
    }
}

// ---------------------------------------------------------------------------
// One wire connection
// ---------------------------------------------------------------------------

struct Connection {
    client: PgClient,
    stream: OpStream,
    named: bool,
    /// Per template: a commit of this connection has happened since the
    /// template was last read here.
    unread_since_write: Vec<bool>,
    write_us: Vec<f64>,
    read_after_write_us: Vec<f64>,
    /// Sampled replies: pool binding index and the rows' digest.
    samples: Vec<(usize, Digest)>,
    checkpoint_epochs: BTreeSet<u64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Connection {
    fn new(server: &Server, pool: &Pool, seed: u64, writer: usize, writes: bool) -> Connection {
        Connection {
            client: connect(server, pool, writes),
            stream: OpStream::new(seed, writer, pool, writes),
            named: writes,
            unread_since_write: vec![false; pool.templates.len()],
            write_us: Vec::new(),
            read_after_write_us: Vec::new(),
            samples: Vec::new(),
            checkpoint_epochs: BTreeSet::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Issue `ops` operations; returns the read latencies in microseconds.
    fn run(&mut self, server: &Server, pool: &Pool, ops: usize) -> Vec<f64> {
        let mut latencies = Vec::with_capacity(ops);
        for _ in 0..ops {
            self.attempted += 1;
            match self.stream.next(pool) {
                Op::Write(op) => {
                    let sql = op.sql();
                    let t0 = Instant::now();
                    let reply = self.client.simple(&sql);
                    self.write_us.push(us(t0.elapsed()));
                    match reply {
                        Ok(r)
                            if r.error.is_none()
                                && r.affected() == Some(expected_affected(&op)) => {}
                        Ok(r) => self
                            .failures
                            .push(format!("write {sql}: error {:?}, tag {:?}", r.error, r.tag)),
                        Err(e) => self.failures.push(format!("write {sql}: {e}")),
                    }
                    self.unread_since_write.fill(true);
                    self.checkpoint_epochs
                        .insert(server.engine().durability_stats().last_checkpoint_epoch);
                }
                Op::Read(index) => {
                    let binding = self.stream.binding(pool, index);
                    let template = &pool.templates[binding.template];
                    let t0 = Instant::now();
                    let reply = if self.named {
                        self.client.execute_named(template.name, &binding.wire)
                    } else {
                        self.client.extended(template.sql, &binding.wire)
                    };
                    let latency = us(t0.elapsed());
                    latencies.push(latency);
                    if std::mem::take(&mut self.unread_since_write[binding.template]) {
                        self.read_after_write_us.push(latency);
                    }
                    let reply = match reply {
                        Ok(r) if r.error.is_none() => r,
                        Ok(r) => {
                            self.failures
                                .push(format!("{}: {:?}", template.name, r.error));
                            continue;
                        }
                        Err(e) => {
                            self.failures.push(format!("{}: {e}", template.name));
                            continue;
                        }
                    };
                    if index.is_none() && reply.rows != self.stream.schedule.live_rows {
                        self.failures.push(format!(
                            "stale read: own key range shows {} rows after the commit, {} are live",
                            reply.rows, self.stream.schedule.live_rows
                        ));
                    }
                    // Without writes the tables never change, so a sampled
                    // reply can be checked against the oracle afterwards.
                    if let (false, Some(index)) = (self.named, index) {
                        if latencies.len() % SAMPLE_EVERY == 0 {
                            self.samples.push((index, Digest::of(&reply.decode_rows())));
                        }
                    }
                }
            }
        }
        latencies
    }
}

/// One round: every connection issues `ops` operations concurrently.
fn round(conns: &mut [Connection], server: &Server, pool: &Pool, ops: usize) -> Round {
    let clock = RoundClock::start();
    let mut latencies = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|c| scope.spawn(move || c.run(server, pool, ops)))
            .collect();
        for w in workers {
            latencies.extend(w.join().expect("connection thread panicked"));
        }
    });
    clock.finish(latencies, ops * conns.len())
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

fn fetch(client: &mut PgClient, pool: &Pool, b: &Binding) -> Result<TextRows, String> {
    let reply = client
        .extended(pool.templates[b.template].sql, &b.wire)
        .map_err(|e| e.to_string())?;
    match reply.error {
        Some(e) => Err(e),
        None => Ok(reply.decode_rows()),
    }
}

/// Every pool binding (and every writer's own range) over the wire
/// against the oracle over the server's current tables, plus the row
/// counts the acknowledged writes imply. Only valid while nothing writes.
fn verify_all(
    report: &mut Report,
    server: &Server,
    pool: &Pool,
    writers: &[OpStream],
    base_rows: (usize, usize),
    when: &str,
) {
    let oracle = Oracle::over(server.engine().catalog().clone());
    let mut client = connect(server, pool, false);
    let own_ranges = writers.iter().map(|w| &w.own_range);
    for b in pool.bindings.iter().chain(own_ranges) {
        let template = &pool.templates[b.template];
        let got = fetch(&mut client, pool, b);
        oracle::check(
            report,
            &oracle.sql(template.sql, &b.params),
            |want| match &got {
                Ok(got) => difference(got, want),
                Err(e) => Some(e.clone()),
            },
            || format!("{when}: {} {}", template.name, b.params),
        );
    }
    let live: usize = writers.iter().map(|w| w.schedule.live_rows).sum();
    let orders: usize = writers.iter().map(|w| w.schedule.orders_rows).sum();
    for (table, want) in [
        ("lineitem", base_rows.0 + live),
        ("orders", base_rows.1 + orders),
    ] {
        let got = client
            .simple(&format!("SELECT count(*) AS n FROM {table}"))
            .ok()
            .and_then(|r| r.decode_rows().first()?.first()?.clone());
        report.check(got == Some(want.to_string()), || {
            format!("{when}: {table} holds {got:?} rows, acknowledged writes imply {want}")
        });
    }
    client.terminate();
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pub fn run(cfg: &Config, writes: bool) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = crate::timed_setup(cfg, || setup(cfg, writes));
    report.set("setup_s", setup_s, crate::SETUPS);
    let Setup {
        catalog,
        pool,
        server,
        data_dir,
    } = setup;
    let before = server.stats();

    let mut conns: Vec<Connection> = (0..CONNECTIONS)
        .map(|c| Connection::new(&server, &pool, cfg.seed, c, writes))
        .collect();
    let ops = if writes {
        OPS_PER_ROUND_WRITES
    } else {
        OPS_PER_ROUND_HITS
    };
    let measuring = Instant::now();
    let mut rounds = Vec::new();
    while measuring.elapsed().as_secs_f64() < cfg.measuring_seconds() {
        rounds.push(round(&mut conns, &server, &pool, ops));
    }

    // Guards: a drifted stream must fail loudly, not be measured.
    let after = server.stats();
    let lookups = after.recycler_lookups - before.recycler_lookups;
    let hit_rate = (after.recycler_hits - before.recycler_hits) as f64 / lookups.max(1) as f64;
    if writes {
        report.check(after.repaired_hits > 0, || {
            "no cache entry was ever repaired".into()
        });
        report.check(after.repair_fallbacks > 0, || {
            "no repair ever fell back to eviction".into()
        });
    } else {
        report.check(hit_rate >= 0.95, || {
            format!("hit rate {hit_rate:.3} is below 0.95: the pool is not served from the cache")
        });
    }

    // The replay's statements once more over a single connection, for the
    // wire's share of a statement: the reads of connection 0's stream,
    // and with writes a third writer with a key range of its own.
    let replayed = (cfg.seconds
        * if writes {
            REPLAY_RATE_WRITES
        } else {
            REPLAY_RATE_HITS
        }) as usize;
    let mut single_wire_us = Vec::new();
    if cfg.trace {
        let mut single = Connection::new(&server, &pool, cfg.seed, CONNECTIONS, writes);
        single.stream.rng = data::rng(cfg.seed, 10);
        single_wire_us = single.run(&server, &pool, replayed);
        conns.push(single);
    }

    check_samples(&mut report, &catalog, &pool, &mut conns);
    let mut checkpoints: BTreeSet<u64> = BTreeSet::new();
    let mut write_us = Vec::new();
    let mut read_after_write_us = Vec::new();
    for conn in &mut conns {
        report.attempted += conn.attempted;
        for f in conn.failures.drain(..) {
            report.fail(f);
        }
        checkpoints.append(&mut conn.checkpoint_epochs);
        write_us.append(&mut conn.write_us);
        read_after_write_us.append(&mut conn.read_after_write_us);
    }
    // Epoch 0 is "no checkpoint yet".
    checkpoints.remove(&0);

    let mut writers: Vec<OpStream> = conns
        .into_iter()
        .map(|c| {
            // Orderly disconnects leave the server nothing to drain.
            c.client.terminate();
            c.stream
        })
        .collect();
    if writes {
        let dir = data_dir
            .as_deref()
            .expect("writes come with a data directory");
        restart_and_verify(cfg, &mut report, server, &pool, &mut writers, dir);
    } else {
        drop(server);
    }

    if !cfg.trace {
        report.set_end_to_end(
            &rounds,
            if writes {
                RSS_AFTER_ROUNDS_WRITES
            } else {
                RSS_AFTER_ROUNDS_HITS
            },
        );
        return report;
    }

    report.set_client_tail(&rounds);
    report.set("core.hit_rate", hit_rate, lookups as usize);
    if writes {
        report.set("write_p50_us", quantile(&write_us, 0.5), write_us.len());
        report.set("write_p95_us", quantile(&write_us, 0.95), write_us.len());
        report.set(
            "read_after_write_p50_us",
            median(&read_after_write_us),
            read_after_write_us.len(),
        );
        report.set("wal.checkpoints", checkpoints.len() as f64, 1);
    }
    replay(cfg, writes, &pool, replayed, &single_wire_us, &mut report);
    report
}

/// Sampled replies of the read-only workload against the oracle.
fn check_samples(
    report: &mut Report,
    catalog: &Arc<Catalog>,
    pool: &Pool,
    conns: &mut [Connection],
) {
    let oracle = Oracle::over(catalog.clone());
    let mut expected: Vec<Option<Result<TextRows, String>>> = vec![None; pool.bindings.len()];
    for conn in conns {
        for (index, got) in conn.samples.drain(..) {
            let b = &pool.bindings[index];
            let template = &pool.templates[b.template];
            let want = expected[index].get_or_insert_with(|| oracle.sql(template.sql, &b.params));
            oracle::check(
                report,
                want,
                |want| got.difference(want),
                || format!("{} {}", template.name, b.params),
            );
        }
    }
}

/// Checkpoint, write a short tail, verify every template, drop the
/// server, start a new one on the same directory, and verify again: every
/// acknowledged write must be back.
fn restart_and_verify(
    cfg: &Config,
    report: &mut Report,
    server: Server,
    pool: &Pool,
    writers: &mut [OpStream],
    data_dir: &Path,
) {
    // Nothing may write to the directory once the new server opens it,
    // as after a real crash. The old engine outlives its server (the
    // server's `rdb_stats()` function and the engine hold each other), and
    // so does its checkpointer, which cannot be watched from outside. An
    // explicit checkpoint waits for one in flight and leaves the log empty;
    // the tail written after it stays below the trigger, so the
    // checkpointer has nothing more to do and recovery replays exactly
    // the tail.
    let t0 = Instant::now();
    match server.engine().checkpoint() {
        Ok(true) if cfg.trace => report.set("wal.checkpoint_us", us(t0.elapsed()), 1),
        Ok(true) => {}
        other => report.fail(format!("explicit checkpoint: {other:?}")),
    }
    let mut client = connect(&server, pool, false);
    for _ in 0..TAIL_WRITES {
        let op = writers[0].schedule.next_op();
        let sql = op.sql();
        let acknowledged = client
            .simple(&sql)
            .is_ok_and(|r| r.error.is_none() && r.affected() == Some(expected_affected(&op)));
        report.check(acknowledged, || format!("tail write {sql}"));
    }
    client.terminate();

    // Rows before any write of this run: the fresh catalog's.
    let fresh = data::catalog(cfg.seed);
    let base_rows = (
        fresh.get("lineitem").expect("lineitem").rows(),
        fresh.get("orders").expect("orders").rows(),
    );
    verify_all(report, &server, pool, writers, base_rows, "before restart");
    drop(server);
    report.notes.push(
        "dropping the server leaves the OS page cache intact: recovery here proves \
         acknowledged writes survive a process restart, not a power loss"
            .to_string(),
    );

    let t0 = Instant::now();
    let server = serve(fresh, Some(data_dir));
    let mut client = PgClient::connect(server.local_addr()).expect("client connects");
    let first = client.simple("SELECT count(*) AS n FROM region");
    let recover_s = t0.elapsed().as_secs_f64();
    report.check(first.is_ok_and(|r| r.error.is_none()), || {
        "first statement after restart failed".into()
    });
    client.terminate();
    verify_all(report, &server, pool, writers, base_rows, "after restart");
    let d = server.engine().durability_stats();
    report.check(d.recovery_replayed == TAIL_WRITES as u64, || {
        format!(
            "recovery replayed {} records, the tail has {TAIL_WRITES}",
            d.recovery_replayed
        )
    });
    if cfg.trace {
        report.set("recover_s", recover_s, 1);
        report.set("wal.recover_replayed", d.recovery_replayed as f64, 1);
        report.set("engine.recover_warm_hits", d.recovery_warm_hits as f64, 1);
    }
}

// ---------------------------------------------------------------------------
// The single-client embedded replay (traced run)
// ---------------------------------------------------------------------------

/// An embedded engine like the server's, over a catalog of its own, with
/// the pool warmed the same way.
fn warmed_engine(cfg: &Config, pool: &Pool) -> Arc<Engine> {
    let engine = Engine::builder(data::catalog(cfg.seed))
        .recycler(RecyclerConfig::default())
        .max_concurrent_queries(CONNECTIONS)
        .parallelism(1)
        .build();
    let session = engine.session();
    for _ in 0..WARM_UP_PASSES {
        for b in &pool.bindings {
            let sql = pool.templates[b.template].sql;
            let handle = session
                .prepare_sql(sql)
                .unwrap_or_else(|e| panic!("{}", e.render(sql)))
                .execute(&b.params)
                .expect("warm-up executes");
            for batch in handle {
                std::hint::black_box(batch);
            }
        }
    }
    engine
}

fn front(engine: &Arc<Engine>, pool: &Pool, named: bool) -> Embedded {
    let mut front = Embedded::new(engine);
    if named {
        for t in &pool.templates {
            front.prepare_named(t.name, t.sql);
        }
    }
    front
}

/// `binding` as the wire carries it under `protocol`.
fn statement<'a>(pool: &'a Pool, binding: &'a Binding, protocol: Protocol) -> Statement<'a> {
    let template = &pool.templates[binding.template];
    Statement::Sql {
        protocol,
        name: template.name,
        sql: template.sql,
        wire: &binding.wire,
    }
}

fn replay(
    cfg: &Config,
    writes: bool,
    pool: &Pool,
    replayed: usize,
    dispatch_wire_us: &[f64],
    report: &mut Report,
) {
    let protocol = if writes {
        Protocol::Named
    } else {
        Protocol::Extended
    };

    // Plain pass: the embedded latency of the same statements.
    let mut plain_us = Vec::new();
    {
        let engine = warmed_engine(cfg, pool);
        let mut front = front(&engine, pool, writes);
        let session = engine.session();
        let mut stream = OpStream::new(cfg.seed, 0, pool, writes);
        for _ in 0..replayed {
            match stream.next(pool) {
                Op::Write(op) => {
                    if let Err(e) = layers::apply_write(&session, &op) {
                        report.fail(format!("embedded write: {e}"));
                    }
                }
                Op::Read(index) => {
                    let stmt = statement(pool, stream.binding(pool, index), protocol);
                    match front.run_plain(&stmt) {
                        Ok(latency) => plain_us.push(latency),
                        Err(e) => report.fail(format!("embedded read: {e}")),
                    }
                }
            }
        }
    }
    if !dispatch_wire_us.is_empty() {
        report.set(
            "server.dispatch_wait_us",
            median(dispatch_wire_us) - median(&plain_us),
            dispatch_wire_us.len(),
        );
    }

    // Traced pass, on an engine of its own in the same starting state.
    let engine = warmed_engine(cfg, pool);
    let mut front = front(&engine, pool, writes);
    let session = engine.session();
    let rig = writes.then(|| {
        WriteRig::new(
            data::catalog(cfg.seed),
            data::catalog(cfg.seed),
            &cfg.scratch.join("wal-rig"),
        )
        .expect("write rig builds")
    });
    let mut tracer = Tracer::new();
    let mut reads = Vec::new();
    let mut stream = OpStream::new(cfg.seed, 0, pool, writes);
    let mut unread_since_write = vec![false; pool.templates.len()];
    let mut user_bytes = 0u64;
    for n in 0..replayed {
        report.attempted += 1;
        match stream.next(pool) {
            Op::Write(op) => {
                let rig = rig.as_ref().expect("writes come with a rig");
                user_bytes += op.user_bytes();
                match rig.run_traced(&mut tracer, &session, &op) {
                    Ok(_) => unread_since_write.fill(true),
                    Err(e) => report.fail(format!("traced write: {e}")),
                }
            }
            Op::Read(index) => {
                let binding = stream.binding(pool, index);
                let template = &pool.templates[binding.template];
                let stmt = statement(pool, binding, protocol);
                let after_write = std::mem::take(&mut unread_since_write[binding.template]);
                let keep = n % SAMPLE_EVERY == 0 || index.is_none();
                let traced = front.run_traced(&mut tracer, &stmt, after_write, keep);
                let mut out = match traced {
                    Ok(out) => out,
                    Err(e) => {
                        report.fail(format!("traced {}: {e}", template.name));
                        continue;
                    }
                };
                if let Some((got, oracle)) = out.kept.take() {
                    oracle::check(
                        report,
                        &oracle.sql(template.sql, &binding.params),
                        |want| difference(&got, want),
                        || format!("traced {} {}", template.name, binding.params),
                    );
                }
                reads.push(out);
            }
        }
    }
    layers::set_layer_metrics(report, &tracer, &reads, &plain_us);
    crate::set_recycler_counts(report, &engine);

    if let Some(rig) = &rig {
        // The three spans of one write follow each other within
        // milliseconds, so the layer numbers are medians of per-write
        // differences: what the host did to all three cancels.
        let commit = tracer.durations_us("storage.commit");
        let over_commit = |span: &str| -> f64 {
            let paired: Vec<f64> = tracer
                .durations_us(span)
                .iter()
                .zip(&commit)
                .map(|(with, bare)| with - bare)
                .collect();
            // A difference below the noise of the commit itself reads 0.
            median(&paired).max(0.0)
        };
        let n = commit.len();
        report.set("storage.commit_us", median(&commit), n);
        report.set("wal.append_us", over_commit("wal.append"), n);
        report.set(
            "delta.repair_commit_us",
            over_commit("delta.repair_commit"),
            n,
        );
        let d = rig.logged().durability_stats();
        report.set("wal.records", d.wal_records as f64, 1);
        // No checkpoint has pruned the log yet: its bytes are everything
        // appended, after the 16-byte segment header.
        report.set(
            "wal.bytes_per_user_byte",
            d.wal_bytes.saturating_sub(16) as f64 / user_bytes.max(1) as f64,
            n,
        );
    }
    crate::write_trace(cfg, &tracer, report);
}
