//! Concurrent read/write stress over the update-aware recycler.
//!
//! N writer threads commit appends/deletes against TPC-H tables while M
//! reader threads execute the Q1/Q6/Q14 templates through the recycling
//! engine. Every query result is checked against a fresh
//! operator-at-a-time (materializing) run over **the exact catalog
//! snapshot the query read** (`QueryHandle::snapshot`): any stale cache
//! reuse, torn scan, or missed invalidation shows up as a row mismatch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler_db::engine::{Engine, MaterializingEngine};
use recycler_db::expr::Expr;
use recycler_db::plan::Plan;
use recycler_db::recycler::RecyclerConfig;
use recycler_db::tpch::{generate, templates, TpchConfig};
use recycler_db::vector::Value;

#[path = "support/writes.rs"]
mod writes;

use writes::sorted_rows;

const WRITERS: usize = 4;
const READERS: usize = 8;
const QUERIES_PER_READER: usize = 5;
const WRITES_PER_WRITER: usize = 8;

fn engine() -> Arc<Engine> {
    let cat = generate(&TpchConfig {
        scale: 0.003,
        seed: 13,
    });
    let mut config = RecyclerConfig::deterministic(256 << 20);
    config.spec_min_progress = 0.0;
    Engine::builder(cat).recycler(config).build()
}

/// A schema-valid lineitem row keyed for later deletion.
fn lineitem_row(rng: &mut SmallRng, orderkey: i64) -> Vec<Value> {
    vec![
        Value::Int(orderkey),
        Value::Int(rng.gen_range(1..50)),
        Value::Int(1),
        Value::Int(1),
        Value::Float(rng.gen_range(1..50) as f64),
        Value::Float(rng.gen_range(900.0..5000.0)),
        Value::Float(rng.gen_range(0..10) as f64 / 100.0),
        Value::Float(0.04),
        Value::str("N"),
        Value::str("O"),
        Value::Date(rng.gen_range(8700..10000)),
        Value::Date(9500),
        Value::Date(9510),
        Value::str("NONE"),
        Value::str("MAIL"),
    ]
}

/// One reader query: execute through the recycler, then replay the same
/// concrete plan on a materializing engine over the snapshot the handle
/// pinned. Returns whether the execution reused a cached result.
fn check_one(engine: &Arc<Engine>, concrete: &Plan, label: &str) -> bool {
    let session = engine.session();
    let handle = session.query(concrete).unwrap_or_else(|e| {
        panic!("{label}: execute failed: {e}");
    });
    let snapshot = handle.snapshot().clone();
    let out = handle.into_outcome();
    let baseline = MaterializingEngine::naive(Arc::new(snapshot.to_catalog()))
        .run(concrete)
        .unwrap_or_else(|e| panic!("{label}: baseline failed: {e}"));
    assert_eq!(
        sorted_rows(&out.batch),
        sorted_rows(&baseline.batch),
        "{label}: result diverges from the materializing run at the \
         snapshot this query read (epochs {:?})",
        snapshot.epochs(),
    );
    out.reused()
}

/// Parallel-pipeline variant: the same writer/reader collision, but every
/// reader query runs at DOP=4 — its morsels are claimed by several worker
/// threads off one pinned `CatalogSnapshot`. Snapshot isolation must hold
/// *across workers*: when a writer commits an epoch mid-query, no morsel
/// of that query may observe the new version (a torn scan would surface as
/// a row mismatch against the materializing run at the handle's snapshot).
/// Writers here are bounded (they pace through the reader phase instead of
/// churning until it ends) so the test terminates briskly on any core
/// count.
#[test]
fn parallel_readers_hold_snapshot_isolation_under_writes() {
    // Asserts an exact DOP=4 regardless of host width: opt out of the
    // engine's available-core clamp.
    std::env::set_var("RDB_ALLOW_OVERSUBSCRIBE", "1");
    const PAR_WRITERS: usize = 4;
    const PAR_READERS: usize = 8;
    const PAR_QUERIES: usize = 4;
    const PAR_WRITES: usize = 12;
    let cat = generate(&TpchConfig {
        scale: 0.003,
        seed: 29,
    });
    let mut config = RecyclerConfig::deterministic(256 << 20);
    config.spec_min_progress = 0.0;
    let engine = Engine::builder(cat).recycler(config).parallelism(4).build();
    let reuses = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for w in 0..PAR_WRITERS {
            let engine = Arc::clone(&engine);
            scope.spawn(move |_| {
                let mut rng = SmallRng::seed_from_u64(1_700 + w as u64);
                let session = engine.session();
                for i in 0..PAR_WRITES {
                    let orderkey = 2_000_000 + (w * 10_000 + i) as i64;
                    match i % 3 {
                        0 | 1 => {
                            let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..4))
                                .map(|_| lineitem_row(&mut rng, orderkey))
                                .collect();
                            session.append("lineitem", &rows).expect("append lineitem");
                        }
                        _ => {
                            session
                                .delete(
                                    "lineitem",
                                    &Expr::name("l_orderkey")
                                        .ge(Expr::lit(2_000_000i64))
                                        .and(Expr::name("l_quantity").lt(Expr::lit(10.0))),
                                )
                                .expect("delete lineitem");
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }
        for r in 0..PAR_READERS {
            let engine = Arc::clone(&engine);
            let reuses = &reuses;
            scope.spawn(move |_| {
                let mut rng = SmallRng::seed_from_u64(61 + r as u64);
                for q in 0..PAR_QUERIES {
                    let (template, params, label) = match (r + q) % 3 {
                        0 => (
                            templates::q1_template(),
                            templates::q1_params(&mut rng),
                            "Q1",
                        ),
                        1 => (
                            templates::q6_template(),
                            templates::q6_params(&mut rng),
                            "Q6",
                        ),
                        _ => (
                            templates::q14_template(),
                            templates::q14_params(&mut rng),
                            "Q14",
                        ),
                    };
                    let concrete = template.substitute_params(&params).unwrap();
                    let session = engine.session();
                    let handle = session.query(&concrete).unwrap();
                    assert_eq!(handle.dop(), 4, "reader queries must run parallel");
                    // Drop (abort) this probe before check_one re-executes
                    // the same plan, or the re-execution stalls on the
                    // probe's own undrained in-flight store.
                    drop(handle);
                    if check_one(
                        &engine,
                        &concrete,
                        &format!("par reader {r} query {q} {label}"),
                    ) {
                        reuses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    })
    .expect("no thread may panic");
    assert!(
        engine.catalog().epoch_of("lineitem").unwrap() > 0,
        "writers committed epochs during the reader phase"
    );
}

/// Operator-state artifacts under write churn. Writers hammer the probe
/// side (lineitem) of Q14 and periodically bump the *build* side (part)
/// while readers at DOP=4 execute distinct Q14 variants — which miss the
/// result cache but share the cached part hash build within each part
/// epoch. Every reader result is replayed on a materializing engine at the
/// snapshot it pinned: a build probed across a part epoch bump would
/// surface as a row mismatch. Zero mismatches = zero stale build reads.
#[test]
fn cached_hash_builds_stay_epoch_exact_under_writes() {
    const SB_WRITERS: usize = 2;
    const SB_READERS: usize = 6;
    const SB_QUERIES: usize = 4;
    const SB_WRITES: usize = 10;
    let cat = generate(&TpchConfig {
        scale: 0.003,
        seed: 47,
    });
    let mut config = RecyclerConfig::deterministic(256 << 20);
    config.spec_min_progress = 0.0;
    let engine = Engine::builder(cat).recycler(config).parallelism(4).build();
    let part_row = |i: i64| -> Vec<Value> {
        vec![
            Value::Int(3_000_000 + i),
            Value::str("stress zinc"),
            Value::str("Manufacturer#2"),
            Value::str("Brand#22"),
            Value::str("PROMO ANODIZED TIN"),
            Value::Int(9),
            Value::str("LG CASE"),
            Value::Float(812.0),
        ]
    };
    crossbeam::thread::scope(|scope| {
        for w in 0..SB_WRITERS {
            let engine = Arc::clone(&engine);
            scope.spawn(move |_| {
                let mut rng = SmallRng::seed_from_u64(4_000 + w as u64);
                let session = engine.session();
                for i in 0..SB_WRITES {
                    if i % 4 == 3 {
                        // Build-side bump: every cached part hash build
                        // must die here and never serve a later reader.
                        session
                            .append("part", &[part_row((w * 100 + i) as i64)])
                            .expect("append part");
                    } else {
                        let orderkey = 4_000_000 + (w * 10_000 + i) as i64;
                        let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..4))
                            .map(|_| lineitem_row(&mut rng, orderkey))
                            .collect();
                        session.append("lineitem", &rows).expect("append lineitem");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }
        for r in 0..SB_READERS {
            let engine = Arc::clone(&engine);
            scope.spawn(move |_| {
                let mut rng = SmallRng::seed_from_u64(83 + r as u64);
                for q in 0..SB_QUERIES {
                    let concrete = templates::q14_template()
                        .substitute_params(&templates::q14_params(&mut rng))
                        .unwrap();
                    check_one(&engine, &concrete, &format!("build reader {r} query {q}"));
                }
            });
        }
    })
    .expect("no thread may panic");
    assert!(
        engine.catalog().epoch_of("part").unwrap() > 0,
        "build-side epochs committed during the reader phase"
    );

    // Deterministic tail: with the writers quiet, two fresh Q14 variants
    // share one part build — the second must hit it warm, and both must
    // stay oracle-exact.
    let stats = &engine.recycler().unwrap().stats;
    let mut rng = SmallRng::seed_from_u64(555);
    let warm_before = stats.hash_build_hits.load(Ordering::Relaxed);
    for q in 0..2 {
        let concrete = templates::q14_template()
            .substitute_params(&templates::q14_params(&mut rng))
            .unwrap();
        check_one(&engine, &concrete, &format!("post-stress Q14 {q}"));
    }
    assert!(
        stats.hash_build_hits.load(Ordering::Relaxed) > warm_before,
        "the settled cache must serve the part build warm"
    );
}

#[test]
fn concurrent_writers_and_readers_never_see_stale_rows() {
    let engine = engine();
    let reuses = AtomicUsize::new(0);
    let readers_done = AtomicUsize::new(0);
    let lineitem_writes = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        // Writers: interleaved appends and deletes on lineitem, paced so
        // the write traffic spans the whole reader phase.
        for w in 0..WRITERS {
            let engine = Arc::clone(&engine);
            let readers_done = &readers_done;
            let lineitem_writes = &lineitem_writes;
            scope.spawn(move |_| {
                let mut rng = SmallRng::seed_from_u64(900 + w as u64);
                let session = engine.session();
                let mut i = 0usize;
                // At least WRITES_PER_WRITER ops, then keep churning until
                // every reader has finished.
                while i < WRITES_PER_WRITER || readers_done.load(Ordering::Relaxed) < READERS {
                    // Writer-owned orderkey space so deletes are targeted.
                    let orderkey = 1_000_000 + (w * 10_000 + i) as i64;
                    let out = match i % 3 {
                        0 | 1 => {
                            let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..4))
                                .map(|_| lineitem_row(&mut rng, orderkey))
                                .collect();
                            session.append("lineitem", &rows).expect("append lineitem")
                        }
                        _ => session
                            .delete(
                                "lineitem",
                                &Expr::name("l_orderkey")
                                    .ge(Expr::lit(1_000_000i64))
                                    .and(Expr::name("l_quantity").lt(Expr::lit(10.0))),
                            )
                            .expect("delete lineitem"),
                    };
                    // No-op deletes commit no epoch; count only effective
                    // writes so the epoch assertion below is exact.
                    if out.rows_affected > 0 {
                        lineitem_writes.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        // Readers: parameterized TPC-H templates, each checked against the
        // materializing engine at the snapshot it read.
        for r in 0..READERS {
            let engine = Arc::clone(&engine);
            let reuses = &reuses;
            let readers_done = &readers_done;
            scope.spawn(move |_| {
                let mut rng = SmallRng::seed_from_u64(31 + r as u64);
                for q in 0..QUERIES_PER_READER {
                    let (template, params, label) = match (r + q) % 3 {
                        0 => (
                            templates::q1_template(),
                            templates::q1_params(&mut rng),
                            "Q1",
                        ),
                        1 => (
                            templates::q6_template(),
                            templates::q6_params(&mut rng),
                            "Q6",
                        ),
                        _ => (
                            templates::q14_template(),
                            templates::q14_params(&mut rng),
                            "Q14",
                        ),
                    };
                    let concrete = template.substitute_params(&params).unwrap();
                    if check_one(&engine, &concrete, &format!("reader {r} query {q} {label}")) {
                        reuses.fetch_add(1, Ordering::Relaxed);
                    }
                }
                readers_done.fetch_add(1, Ordering::Relaxed);
            });
        }
    })
    .expect("no thread may panic");

    // Every effective write committed exactly one epoch, and the appends
    // alone (2 of every 3 ops per writer, never no-ops) guarantee plenty.
    let li_epoch = engine.catalog().epoch_of("lineitem").unwrap();
    assert_eq!(li_epoch as usize, lineitem_writes.load(Ordering::Relaxed));
    assert!(li_epoch as usize >= WRITERS * WRITES_PER_WRITER / 2);

    // The final state is still exact: one more check, single-threaded, and
    // a deterministic cache → update → invalidate round-trip to show the
    // machinery is alive after the churn.
    let mut rng = SmallRng::seed_from_u64(777);
    let q6 = templates::q6_template()
        .substitute_params(&templates::q6_params(&mut rng))
        .unwrap();
    check_one(&engine, &q6, "post-stress Q6 (compute)");
    assert!(check_one(&engine, &q6, "post-stress Q6 (replay)"));
    let stats = &engine.recycler().unwrap().stats;
    let invalidations_before = stats.invalidations.load(Ordering::Relaxed);
    let repaired_before = stats.repaired.load(Ordering::Relaxed);
    engine
        .session()
        .append("lineitem", &[lineitem_row(&mut rng, 2_000_000)])
        .unwrap();
    assert!(
        stats.invalidations.load(Ordering::Relaxed) > invalidations_before
            || stats.repaired.load(Ordering::Relaxed) > repaired_before,
        "the post-stress cached Q6 must be repaired or invalidated by the \
         append — never served stale"
    );
    check_one(&engine, &q6, "post-stress Q6 (recompute at new epoch)");
    let _ = reuses.load(Ordering::Relaxed); // informational; hit-rate under
                                            // churn is asserted in the bench
}
