//! `adhoc_cold` — the "Revisiting Reuse" case: one connection, simple
//! protocol, every statement a distinct text over windows no other
//! statement touches, so nothing can ever be reused and the recycler is
//! pure overhead. The cache budget (1 MiB) is a third of what the
//! statements offer for materialization, so admission and eviction churn.
//!
//! `exec` and the per-statement `sql`/`plan` work dominate; the recycler
//! graph only grows (it has no node removal), which shows as match-time
//! growth within a round and as RSS. Every round starts a fresh server
//! and replays the same statements.

use std::sync::Arc;
use std::time::Instant;

use rdb_engine::Engine;
use rdb_expr::Params;
use rdb_recycler::RecyclerConfig;
use rdb_server::{Server, ServerBuilder};
use rdb_storage::Catalog;

use crate::layers::{self, Embedded, Protocol, Statement};
use crate::measure::{cores, median, us, Report, Round, RoundClock};
use crate::oracle::{difference, Digest, Oracle};
use crate::pgclient::PgClient;
use crate::trace::Tracer;
use crate::{data, oracle, Config, SAMPLE_EVERY};

/// Distinct statements per server lifetime.
const STATEMENTS_PER_ROUND: usize = 400;
/// Statements per measured slice of a lifetime.
const SLICE: usize = 100;
/// Recycler cache budget. One round's statements offer about 3 MiB of
/// results and operator state for materialization, so 1 MiB keeps the
/// cache full and evicting from a quarter of the way into a round.
const CACHE_BYTES: u64 = 1 << 20;
/// Statements per measured second in the single-client replays.
const REPLAY_RATE: f64 = 40.0;
/// `peak_rss_mb` is read after two server lifetimes. Every further one
/// leaves 3–4 MiB behind, so a reading at the end would grow with the
/// run's speed.
const RSS_AFTER_SLICES: usize = 2 * STATEMENTS_PER_ROUND / SLICE;

struct Setup {
    catalog: Arc<Catalog>,
    statements: Vec<String>,
}

/// Intra-query parallelism of the measured workload. With two cores the
/// morsel-parallel path needs both at once, and every slice of CPU time
/// the hypervisor withholds stalls it: over ten seeds `stmts_per_s`
/// spread 28 % at DOP 2 against 8 % at DOP 1, while being no faster. The
/// traced run still reports what DOP = cores buys
/// (`exec.parallel_speedup`); a host with four or more cores should move
/// the workload itself there.
const DOP: usize = 1;

fn recycler() -> RecyclerConfig {
    RecyclerConfig::speculative(CACHE_BYTES)
}

fn serve(catalog: &Arc<Catalog>) -> Server {
    ServerBuilder::new(catalog.clone())
        .recycler(recycler())
        .workers(2)
        .max_concurrent_queries(2)
        .parallelism(DOP)
        .serve()
        .expect("server starts")
}

fn engine(catalog: &Arc<Catalog>, recycle: bool, dop: usize) -> Arc<Engine> {
    let builder = Engine::builder(catalog.clone())
        .max_concurrent_queries(2)
        .parallelism(dop);
    if recycle {
        builder.recycler(recycler())
    } else {
        builder.no_recycler()
    }
    .build()
}

/// `sql` as the simple protocol carries it.
fn simple(sql: &str) -> Statement<'_> {
    Statement::Sql {
        protocol: Protocol::Simple,
        name: "",
        sql,
        wire: &[],
    }
}

fn setup(cfg: &Config) -> Setup {
    let catalog = data::catalog(cfg.seed);
    let statements = data::adhoc_statements(cfg.seed, STATEMENTS_PER_ROUND);
    // Warm-up: a few statements of every shape through a throwaway
    // server touch every table and start the worker threads once.
    let server = serve(&catalog);
    let mut client = PgClient::connect(server.local_addr()).expect("client connects");
    for sql in statements.iter().take(25) {
        let reply = client.simple(sql).expect("warm-up round trip");
        assert!(reply.error.is_none(), "warm-up {sql}: {:?}", reply.error);
    }
    client.terminate();
    Setup {
        catalog,
        statements,
    }
}

/// One server lifetime: a fresh server, every statement once over one
/// connection. It is measured in slices of [`SLICE`] statements, each a
/// round with a steal reading of its own. Every [`SAMPLE_EVERY`]-th reply,
/// counted from `phase`, is kept.
fn lifetime(
    setup: &Setup,
    statements: &[String],
    phase: Option<usize>,
    report: &mut Report,
    samples: &mut Vec<(usize, Digest)>,
) -> (Vec<Round>, f64) {
    let server = serve(&setup.catalog);
    let mut client = PgClient::connect(server.local_addr()).expect("client connects");
    let mut rounds = Vec::new();
    for (slice, chunk) in statements.chunks(SLICE).enumerate() {
        let clock = RoundClock::start();
        let mut latencies = Vec::with_capacity(chunk.len());
        for (i, sql) in chunk.iter().enumerate() {
            let t0 = Instant::now();
            let reply = client.simple(sql);
            latencies.push(us(t0.elapsed()));
            match reply {
                Ok(r) if r.error.is_none() => {
                    let index = slice * SLICE + i;
                    if phase == Some(index % SAMPLE_EVERY) {
                        samples.push((index, Digest::of(&r.decode_rows())));
                    }
                }
                Ok(r) => report.fail(format!("{sql}: {:?}", r.error)),
                Err(e) => report.fail(format!("{sql}: {e}")),
            }
        }
        rounds.push(clock.finish(latencies, chunk.len()));
    }
    report.attempted += statements.len() as u64;
    let hit_rate = server.stats().hit_rate();
    client.terminate();
    (rounds, hit_rate)
}

fn verify(report: &mut Report, setup: &Setup, samples: &[(usize, Digest)]) {
    let oracle = Oracle::over(setup.catalog.clone());
    for (i, got) in samples {
        let sql = &setup.statements[*i];
        oracle::check(
            report,
            &oracle.sql(sql, &Params::none()),
            |want| got.difference(want),
            || sql.clone(),
        );
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = crate::timed_setup(cfg, || setup(cfg));
    report.set("setup_s", setup_s, crate::SETUPS);

    let measuring = Instant::now();
    let mut rounds = Vec::new();
    let mut hit_rates = Vec::new();
    let mut samples = Vec::new();
    while measuring.elapsed().as_secs_f64() < cfg.measuring_seconds() {
        let phase = hit_rates.len() % SAMPLE_EVERY;
        let (slices, hit_rate) = lifetime(
            &setup,
            &setup.statements,
            Some(phase),
            &mut report,
            &mut samples,
        );
        rounds.extend(slices);
        hit_rates.push(hit_rate);
    }
    let hit_rate = median(&hit_rates);
    report.check(hit_rate <= 0.02, || {
        format!("hit rate {hit_rate:.3} is above 0.02: the statements are not all distinct work")
    });
    verify(&mut report, &setup, &samples);

    if !cfg.trace {
        report.set_end_to_end(&rounds, RSS_AFTER_SLICES);
        return report;
    }

    report.set_client_tail(&rounds);
    report.set(
        "core.hit_rate",
        hit_rate,
        rounds.iter().map(|r| r.statements).sum(),
    );

    // Single-client replays of the first statements, each from a cold
    // start: over the wire, embedded with and without the recycler, and
    // embedded with spans.
    let replayed = ((cfg.seconds * REPLAY_RATE) as usize).clamp(1, setup.statements.len());
    let statements = &setup.statements[..replayed];
    let (wire, _) = lifetime(&setup, statements, None, &mut report, &mut Vec::new());
    let wire_us: Vec<f64> = wire
        .iter()
        .flat_map(|r| r.stmt_us.iter().copied())
        .collect();

    let plain = |recycle: bool, dop: usize, report: &mut Report| -> Vec<f64> {
        let engine = engine(&setup.catalog, recycle, dop);
        let mut front = Embedded::new(&engine);
        let mut latencies = Vec::with_capacity(statements.len());
        for sql in statements {
            let s = simple(sql);
            match front.run_plain(&s) {
                Ok(latency) => latencies.push(latency),
                Err(e) => report.fail(format!("embedded {sql}: {e}")),
            }
        }
        latencies
    };
    let plain_us = plain(true, DOP, &mut report);
    let off_us = plain(false, DOP, &mut report);
    let off_parallel_us = plain(false, cores(), &mut report);
    report.set(
        "exec.parallel_speedup",
        median(&off_us) / median(&off_parallel_us),
        off_us.len(),
    );
    report.set(
        "core.overhead_frac",
        median(&plain_us) / median(&off_us) - 1.0,
        plain_us.len(),
    );
    report.set(
        "server.dispatch_wait_us",
        median(&wire_us) - median(&plain_us),
        wire_us.len(),
    );

    let engine = engine(&setup.catalog, true, DOP);
    let mut front = Embedded::new(&engine);
    let mut tracer = Tracer::new();
    let mut reads = Vec::new();
    for (n, sql) in statements.iter().enumerate() {
        report.attempted += 1;
        let s = simple(sql);
        let keep = n.is_multiple_of(SAMPLE_EVERY);
        let mut out = match front.run_traced(&mut tracer, &s, false, keep) {
            Ok(out) => out,
            Err(e) => {
                report.fail(format!("traced {sql}: {e}"));
                continue;
            }
        };
        if let Some((got, oracle)) = out.kept.take() {
            oracle::check(
                &mut report,
                &oracle.sql(sql, &Params::none()),
                |want| difference(&got, want),
                || format!("traced {sql}"),
            );
        }
        reads.push(out);
    }
    layers::set_layer_metrics(&mut report, &tracer, &reads, &plain_us);
    crate::set_recycler_counts(&mut report, &engine);
    crate::write_trace(cfg, &tracer, &mut report);
    report
}
