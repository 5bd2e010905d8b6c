//! `tpch_streams` — the paper's Fig. 7: TPC-H throughput streams in SPEC
//! mode, executed embedded through `Session::prepare`/`execute`/drain.
//!
//! Work is `exec` (joins and aggregates on misses) and `core` (matching a
//! growing graph, subsumption, admission, hash-build and agg-table reuse).
//! `server`, `sql`, `wal` and `delta` do nothing here, so a change there
//! must show no move. The recycler's state depends on history, so every
//! round starts a fresh engine and replays one of six seeded sets of
//! streams, the same set in every sixth round; the cache (512 MiB) holds
//! a set's whole working set.

use std::sync::Arc;
use std::time::Instant;

use rdb_engine::{Engine, WorkloadQuery};
use rdb_expr::Params;
use rdb_recycler::RecyclerConfig;
use rdb_storage::Catalog;
use rdb_tpch::{make_streams, StreamOptions};

use crate::layers::{Embedded, Statement};
use crate::measure::{mean, median, us, Report, Round, RoundClock};
use crate::oracle::{difference, text_rows, Digest, Oracle};
use crate::trace::Tracer;
use crate::{data, layers, oracle, Config, SAMPLE_EVERY};

/// Client threads, each running its streams back to back.
const THREADS: usize = 2;
/// Streams per thread in one round: 8 streams, 176 statements.
const STREAMS_PER_THREAD: usize = 4;
/// Sets of streams a run cycles through, one per round. Which queries
/// meet which parameters decides what the recycler can share, so one set
/// of 8 streams is a narrow sample: with the catalog fixed and only the
/// streams reseeded, `stmt_p50_us` spread 0.13 and `stmts_per_s` 0.10
/// over eight runs, against 0.07 and 0.04 with the streams fixed and the
/// catalog reseeded. The median over rounds of six sets is what the run
/// reports.
const STREAM_SETS: usize = 6;
/// Recycler cache: larger than everything the streams materialize.
const CACHE_BYTES: u64 = 512 << 20;
/// `peak_rss_mb` is read after this many rounds (engine lifetimes): every
/// set of streams once.
const RSS_AFTER_ROUNDS: usize = STREAM_SETS;

struct Setup {
    catalog: Arc<Catalog>,
    /// [`STREAM_SETS`] sets of `THREADS * STREAMS_PER_THREAD` streams.
    sets: Vec<Vec<Vec<WorkloadQuery>>>,
}

/// One sampled statement result, to be checked against the oracle.
struct Sample {
    set: usize,
    stream: usize,
    query: usize,
    rows: Digest,
}

fn new_engine(catalog: &Arc<Catalog>, recycle: bool) -> Arc<Engine> {
    let builder = Engine::builder(catalog.clone())
        .max_concurrent_queries(THREADS)
        .parallelism(1);
    if recycle {
        let mut config = RecyclerConfig::speculative(CACHE_BYTES);
        // As in the paper's runs (and `fig7_throughput`): speculation may
        // commit from the first batch.
        config.spec_min_progress = 0.0;
        builder.recycler(config)
    } else {
        builder.no_recycler()
    }
    .build()
}

fn setup(cfg: &Config) -> Setup {
    let catalog = data::catalog(cfg.seed);
    let options = StreamOptions {
        seed: cfg.seed.wrapping_mul(7919) + 1,
        ..StreamOptions::new(STREAM_SETS * THREADS * STREAMS_PER_THREAD, data::SCALE)
    };
    let sets: Vec<Vec<Vec<WorkloadQuery>>> = make_streams(&catalog, &options)
        .chunks(THREADS * STREAMS_PER_THREAD)
        .map(<[_]>::to_vec)
        .collect();
    // Warm-up: one stream through a throwaway engine touches every table
    // and sizes the allocator's arenas.
    run_stream(
        &new_engine(&catalog, true),
        &sets[0][0],
        (0, 0),
        None,
        &mut Vec::new(),
    );
    Setup { catalog, sets }
}

/// Run one stream on a new session; returns its statement latencies (µs)
/// and wall seconds. Every `SAMPLE_EVERY`-th statement, counted from
/// `phase`, is kept for the oracle.
fn run_stream(
    engine: &Arc<Engine>,
    stream: &[WorkloadQuery],
    (set_index, stream_index): (usize, usize),
    phase: Option<usize>,
    samples: &mut Vec<Sample>,
) -> (Vec<f64>, f64) {
    let session = engine.session();
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(stream.len());
    for (qi, q) in stream.iter().enumerate() {
        let t0 = Instant::now();
        let handle = session
            .prepare(&q.plan)
            .and_then(|p| p.execute(&Params::none()))
            .unwrap_or_else(|e| panic!("{} failed: {e}", q.label));
        let keep = phase == Some((stream_index * stream.len() + qi) % SAMPLE_EVERY);
        if keep {
            let batch = handle.collect_batch();
            latencies.push(us(t0.elapsed()));
            samples.push(Sample {
                set: set_index,
                stream: stream_index,
                query: qi,
                rows: Digest::of(&text_rows(&batch)),
            });
        } else {
            for batch in handle {
                std::hint::black_box(batch);
            }
            latencies.push(us(t0.elapsed()));
        }
    }
    (latencies, started.elapsed().as_secs_f64())
}

/// One round: a fresh engine, every stream of one set once, two threads.
fn round(
    setup: &Setup,
    set: usize,
    phase: usize,
    samples: &mut Vec<Sample>,
) -> (Round, Vec<f64>, Arc<Engine>) {
    let engine = new_engine(&setup.catalog, true);
    let streams = &setup.sets[set];
    let clock = RoundClock::start();
    let mut latencies = Vec::new();
    let mut stream_s = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut mine = (Vec::new(), Vec::new(), Vec::new());
                    for (si, stream) in streams.iter().enumerate().skip(t).step_by(THREADS) {
                        let (lat, wall) =
                            run_stream(engine, stream, (set, si), Some(phase), &mut mine.2);
                        mine.0.extend(lat);
                        mine.1.push(wall);
                    }
                    mine
                })
            })
            .collect();
        for w in workers {
            let (lat, walls, kept) = w.join().expect("stream thread panicked");
            latencies.extend(lat);
            stream_s.extend(walls);
            samples.extend(kept);
        }
    });
    let statements = latencies.len();
    (clock.finish(latencies, statements), stream_s, engine)
}

fn verify(report: &mut Report, setup: &Setup, samples: &[Sample]) {
    let oracle = Oracle::over(setup.catalog.clone());
    for s in samples {
        let q = &setup.sets[s.set][s.stream][s.query];
        oracle::check(
            report,
            &oracle.plan(&q.plan),
            |want| s.rows.difference(want),
            || format!("set {} stream {} {}", s.set, s.stream, q.label),
        );
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = crate::timed_setup(cfg, || setup(cfg));
    report.set("setup_s", setup_s, crate::SETUPS);

    let measuring = Instant::now();
    let mut rounds = Vec::new();
    let mut stream_s = Vec::new();
    let mut samples = Vec::new();
    let mut last_engine = None;
    while measuring.elapsed().as_secs_f64() < cfg.measuring_seconds() {
        // Two engines alive at once would double the round's memory.
        drop(last_engine.take());
        let phase = rounds.len() % SAMPLE_EVERY;
        let (round, walls, engine) = round(&setup, rounds.len() % STREAM_SETS, phase, &mut samples);
        rounds.push(round);
        stream_s.push(mean(&walls));
        last_engine = Some(engine);
    }
    let engine = last_engine.expect("at least one round ran");
    report.attempted += rounds.iter().map(|r| r.statements as u64).sum::<u64>();
    verify(&mut report, &setup, &samples);

    if !cfg.trace {
        report.set_end_to_end(&rounds, RSS_AFTER_ROUNDS);
        return report;
    }

    report.set_client_tail(&rounds);
    report.set(
        "stream_s",
        median(&stream_s),
        stream_s.len() * THREADS * STREAMS_PER_THREAD,
    );
    let (hit_rate, lookups) = crate::hit_rate(&engine);
    report.set("core.hit_rate", hit_rate, lookups);
    drop(engine);

    // Single-client replay of the first streams of the first set: plain,
    // traced, and with the recycler off (the paper's OFF bar).
    let replayed = ((cfg.seconds * 0.8).round() as usize).clamp(2, setup.sets[0].len());
    let streams = &setup.sets[0][..replayed];
    let replay = |recycle: bool| -> (Vec<f64>, Vec<f64>) {
        let engine = new_engine(&setup.catalog, recycle);
        let mut front = Embedded::new(&engine);
        let (mut lat, mut walls) = (Vec::new(), Vec::new());
        for stream in streams {
            let t0 = Instant::now();
            for q in stream {
                let out = front
                    .run_plain(&Statement::Plan(&q.plan))
                    .unwrap_or_else(|e| panic!("{}: {e}", q.label));
                lat.push(out);
            }
            walls.push(t0.elapsed().as_secs_f64());
        }
        (lat, walls)
    };
    let (plain_us, spec_walls) = replay(true);
    let (_, off_walls) = replay(false);
    report.set(
        "core.recycle_speedup",
        mean(&off_walls) / mean(&spec_walls),
        spec_walls.len(),
    );

    let engine = new_engine(&setup.catalog, true);
    let mut front = Embedded::new(&engine);
    let mut tracer = Tracer::new();
    let mut reads = Vec::new();
    let mut n = 0usize;
    for (si, stream) in streams.iter().enumerate() {
        for q in stream {
            let keep = n.is_multiple_of(SAMPLE_EVERY);
            n += 1;
            let mut out = front
                .run_traced(&mut tracer, &Statement::Plan(&q.plan), false, keep)
                .unwrap_or_else(|e| panic!("{}: {e}", q.label));
            if let Some((rows, oracle)) = out.kept.take() {
                oracle::check(
                    &mut report,
                    &oracle.plan(&q.plan),
                    |want| difference(&rows, want),
                    || format!("traced stream {si} {}", q.label),
                );
            }
            reads.push(out);
        }
    }
    report.attempted += reads.len() as u64;
    layers::set_layer_metrics(&mut report, &tracer, &reads, &plain_us);
    crate::set_recycler_counts(&mut report, &engine);
    crate::write_trace(cfg, &tracer, &mut report);
    report
}
