//! Property suite for delta repair (`rdb_delta`): random interleavings of
//! appends, deletes, and queries — NULL-bearing data, count-gated aggregate
//! shapes, DOP 1 and 4 — where cached results are *repaired* in place on
//! every commit and each answer must be byte-identical to a fresh
//! materializing run over the snapshot the query read. Mirrors
//! `tests/update_property.rs`, which pins the evict-on-write baseline.
//!
//! Also covers the no-op fast path (a delta-free commit must not invoke the
//! repair walk) and the live-subscription surface built on top of repair.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler_db::engine::{DeltaEvent, Engine, MaterializingEngine};
use recycler_db::expr::{AggFunc, Expr, Params};
use recycler_db::plan::{scan, Plan};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{Batch, DataType, Schema, Value, BATCH_CAPACITY};

fn nullable_row(rng: &mut SmallRng) -> Vec<Value> {
    vec![
        if rng.gen_bool(0.15) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-20..40))
        },
        if rng.gen_bool(0.15) {
            Value::Null
        } else {
            Value::Float(rng.gen_range(-100.0..100.0))
        },
    ]
}

fn engine(seed: u64, rows: usize, dop: usize) -> Arc<Engine> {
    let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
    let mut b = TableBuilder::new("t", schema, rows);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..rows {
        b.push_row(nullable_row(&mut rng));
    }
    let mut cat = Catalog::new();
    cat.register(b.finish()).unwrap();
    let mut config = RecyclerConfig::deterministic(64 << 20);
    config.spec_min_progress = 0.0;
    Engine::builder(Arc::new(cat))
        .recycler(config)
        .parallelism(dop)
        .build()
}

/// Query pool over a shared `k >= cut` family. Shapes 0–1 match the
/// baseline suite; 2 is float-order-sensitive (global SUM/MIN, resumable
/// on append only); 3 is count-gated (CountStar + Count(expr)), the one
/// class where *deletes* are repaired by group retraction.
fn query(shape: usize, cut: i64) -> Plan {
    let base = scan("t", &["k", "v"]).select(Expr::name("k").ge(Expr::lit(cut)));
    match shape {
        0 => base,
        1 => base.aggregate(
            vec![(Expr::name("k"), "k")],
            vec![
                (AggFunc::Sum(Expr::name("v")), "sv"),
                (AggFunc::CountStar, "n"),
            ],
        ),
        2 => base.aggregate(
            vec![],
            vec![
                (AggFunc::Sum(Expr::name("v")), "sv"),
                (AggFunc::Min(Expr::name("v")), "mn"),
            ],
        ),
        _ => base.aggregate(
            vec![(Expr::name("k"), "k")],
            vec![
                (AggFunc::CountStar, "n"),
                (AggFunc::Count(Expr::name("v")), "nv"),
            ],
        ),
    }
}

fn sorted_rows(b: &Batch) -> Vec<Vec<Value>> {
    let mut rows = b.to_rows();
    rows.sort();
    rows
}

#[test]
fn random_repairs_are_byte_identical_to_recompute() {
    for dop in [1usize, 4] {
        let mut repaired_total = 0u64;
        let mut delete_repairs = 0u64;
        for seed in 0..4u64 {
            let engine = engine(3000 + seed, 800, dop);
            let session = engine.session();
            let mut rng = SmallRng::seed_from_u64(seed);
            let cuts: Vec<i64> = (0..4).map(|_| rng.gen_range(-25..25)).collect();
            let stats = &engine.recycler().unwrap().stats;
            for step in 0..120 {
                match rng.gen_range(0..10) {
                    // 20%: append a small NULL-bearing batch.
                    0 | 1 => {
                        let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..8))
                            .map(|_| nullable_row(&mut rng))
                            .collect();
                        session.append("t", &rows).unwrap();
                    }
                    // 10%: delete by a random predicate (NULL → kept).
                    2 => {
                        let before = stats.repaired.load(Ordering::Relaxed);
                        let pred = if rng.gen_bool(0.5) {
                            Expr::name("k").eq(Expr::lit(rng.gen_range(-20i64..40)))
                        } else {
                            Expr::name("v").gt(Expr::lit(rng.gen_range(60.0..100.0)))
                        };
                        session.delete("t", &pred).unwrap();
                        delete_repairs += stats.repaired.load(Ordering::Relaxed) - before;
                    }
                    // 70%: query, checked against the snapshot it read.
                    _ => {
                        let shape = rng.gen_range(0..4);
                        let cut = cuts[rng.gen_range(0..cuts.len())];
                        let plan = query(shape, cut);
                        let handle = session.query(&plan).unwrap();
                        let snapshot = handle.snapshot().clone();
                        let out = handle.into_outcome();
                        let baseline = MaterializingEngine::naive(Arc::new(snapshot.to_catalog()))
                            .run(&plan)
                            .unwrap();
                        // `Value` compares floats exactly, so this is a
                        // byte-identity check: repaired SUMs must carry the
                        // very bits a serial recompute would produce.
                        assert_eq!(
                            sorted_rows(&out.batch),
                            sorted_rows(&baseline.batch),
                            "dop {dop} seed {seed} step {step}: shape {shape} cut {cut} \
                             diverged (epochs {:?})",
                            snapshot.epochs()
                        );
                    }
                }
            }
            repaired_total += stats.repaired.load(Ordering::Relaxed);
        }
        // The mix must actually exercise repair, not collapse to eviction.
        assert!(
            repaired_total > 0,
            "dop {dop}: appends against a warm cache must repair entries"
        );
        assert!(
            delete_repairs > 0,
            "dop {dop}: count-gated aggregates must survive deletes via retraction"
        );
    }
}

#[test]
fn noop_dml_skips_the_repair_walk() {
    // Satellite: the no-op fast path. A delete matching nothing commits no
    // epoch and carries no delta — the repair walk must not run at all
    // (counted by `deltas_applied`, one bump per routed delta).
    let engine = engine(7, 400, 1);
    let session = engine.session();
    let plan = query(1, -25);
    session.query(&plan).unwrap().into_outcome();
    let stats = &engine.recycler().unwrap().stats;
    assert_eq!(stats.deltas_applied.load(Ordering::Relaxed), 0);

    session
        .delete("t", &Expr::name("k").gt(Expr::lit(10_000i64)))
        .unwrap();
    assert_eq!(
        stats.deltas_applied.load(Ordering::Relaxed),
        0,
        "a no-op delete must not invoke repair"
    );
    assert_eq!(stats.repaired.load(Ordering::Relaxed), 0);
    assert_eq!(stats.repair_fallbacks.load(Ordering::Relaxed), 0);
    assert!(
        session.query(&plan).unwrap().into_outcome().reused(),
        "the cache stays hot across a no-op commit"
    );

    // One real append → exactly one repair invocation, however many
    // entries it patched.
    session
        .append("t", &[vec![Value::Int(0), Value::Float(1.0)]])
        .unwrap();
    assert_eq!(
        stats.deltas_applied.load(Ordering::Relaxed),
        1,
        "one routed delta per non-empty commit"
    );
    let snap = session.stats();
    assert_eq!(snap.deltas_applied, 1);
    assert!(snap.repaired_hits + snap.repair_fallbacks >= 1);
}

#[test]
fn subscriptions_stream_initial_deltas_and_refreshes() {
    let engine = engine(11, 200, 1);
    let session = engine.session();
    let sub = session
        .subscribe_sql("SELECT k, v FROM t WHERE k >= 30", &Params::new())
        .unwrap();
    assert_eq!(engine.subscriptions_active(), 1);
    assert_eq!(session.stats().subscriptions_active, 1);

    let initial = match sub.try_next() {
        Some(DeltaEvent::Initial(b)) => b,
        other => panic!("want Initial first, got {other:?}"),
    };
    let oracle = |cat: Arc<Catalog>| {
        MaterializingEngine::naive(cat)
            .run(&scan("t", &["k", "v"]).select(Expr::name("k").ge(Expr::lit(30))))
            .unwrap()
            .batch
    };
    let before = oracle(Arc::new(engine.catalog().snapshot().to_catalog()));
    assert_eq!(sorted_rows(&initial), sorted_rows(&before));

    // A select-class append streams exactly the rows it adds.
    session
        .append(
            "t",
            &[
                vec![Value::Int(35), Value::Float(1.5)],
                vec![Value::Int(-5), Value::Float(2.5)],
            ],
        )
        .unwrap();
    match sub.try_next() {
        Some(DeltaEvent::Delta {
            appended,
            table,
            epoch,
        }) => {
            assert_eq!(table, "t");
            assert!(epoch > 0);
            assert_eq!(
                appended.to_rows(),
                vec![vec![Value::Int(35), Value::Float(1.5)]],
                "only rows passing the subscription's filter are delivered"
            );
        }
        other => panic!("want Delta after append, got {other:?}"),
    }

    // An append that contributes nothing produces no event at all.
    session
        .append("t", &[vec![Value::Int(-9), Value::Float(0.0)]])
        .unwrap();
    assert!(sub.try_next().is_none(), "filtered-out appends stay silent");

    // A delete can't be expressed as appended rows → full refresh, equal
    // to a recompute over the post-commit catalog.
    session
        .delete("t", &Expr::name("k").eq(Expr::lit(35i64)))
        .unwrap();
    match sub.try_next() {
        Some(DeltaEvent::Refresh(b)) => {
            let now = oracle(Arc::new(engine.catalog().snapshot().to_catalog()));
            assert_eq!(sorted_rows(&b), sorted_rows(&now));
        }
        other => panic!("want Refresh after delete, got {other:?}"),
    }

    // Dropping the handle unregisters it; later writes fan out to no one.
    drop(sub);
    assert_eq!(engine.subscriptions_active(), 0);
    assert_eq!(session.stats().subscriptions_active, 0);
    session
        .append("t", &[vec![Value::Int(31), Value::Float(0.0)]])
        .unwrap();
}

#[test]
fn shutdown_closes_subscriptions_after_draining() {
    let engine = engine(13, 100, 1);
    let session = engine.session();
    let sub = session
        .subscribe_sql("SELECT k FROM t WHERE k >= 0", &Params::new())
        .unwrap();
    session
        .append("t", &[vec![Value::Int(1), Value::Float(0.0)]])
        .unwrap();
    engine.shutdown();
    assert!(sub.is_closed());
    // The blocking iterator drains what was queued before the close, then
    // ends instead of hanging.
    let events: Vec<DeltaEvent> = sub.collect();
    assert_eq!(events.len(), 2, "Initial + one Delta, then end: {events:?}");
    assert!(matches!(events[0], DeltaEvent::Initial(_)));
    assert!(matches!(events[1], DeltaEvent::Delta { .. }));
}

#[test]
fn large_selection_repairs_share_its_chunks() {
    // A cached selection past 100k rows survives 200 four-row appends.
    // Each append is a select-class repair that pushes a small tail chunk
    // and shares the big one, so every read is a repaired hit equal to an
    // engine without a recycler, and replay still hands out the big
    // chunk's own storage for every batch but the last two (the seam
    // batch and the tail, which are gathered).
    const BASE: usize = 120_000;
    let catalog = || {
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, BASE);
        for i in 0..BASE as i64 {
            b.push_row(vec![Value::Int(i % 50 - 5), Value::Float(i as f64 / 4.0)]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish()).unwrap();
        Arc::new(cat)
    };
    let mut config = RecyclerConfig::deterministic(64 << 20);
    config.spec_min_progress = 0.0;
    let engine = Engine::builder(catalog()).recycler(config).build();
    let oracle = Engine::builder(catalog()).no_recycler().build();
    let plan = scan("t", &["k", "v"]).select(Expr::name("k").ge(Expr::lit(0i64)));
    let session = engine.session();
    let read = || {
        let mut handle = session.query(&plan).unwrap();
        let batches: Vec<Batch> = handle.by_ref().collect();
        (handle.reused(), batches)
    };

    session.query(&plan).unwrap().into_outcome();
    let (reused, first) = read();
    assert!(reused, "the selection is cached after its first run");
    let cached_rows: usize = first.iter().map(Batch::rows).sum();
    assert!(cached_rows >= 100_000, "{cached_rows} rows");
    let inside = cached_rows / BATCH_CAPACITY;

    let mut rng = SmallRng::seed_from_u64(24);
    for step in 0..200 {
        let rows: Vec<Vec<Value>> = (0..4).map(|_| nullable_row(&mut rng)).collect();
        let write = engine.append("t", &rows).unwrap();
        oracle.append("t", &rows).unwrap();
        assert!(
            write.repaired >= 1 && write.repair_fallbacks == 0,
            "step {step}: {write:?}"
        );
        let (reused, batches) = read();
        assert!(
            reused,
            "step {step}: the read after an append is a repaired hit"
        );
        let want = oracle.session().query(&plan).unwrap().into_outcome().batch;
        assert!(
            Batch::concat(&batches).columns() == Batch::concat(&[want]).columns(),
            "step {step}: repaired hit diverged from recomputation"
        );
        for (i, b) in batches.iter().take(inside).enumerate() {
            for c in 0..b.width() {
                assert!(
                    b.column(c).shares_storage(first[i].column(c)),
                    "step {step}: batch {i} column {c} was copied"
                );
            }
        }
        assert!(
            batches.len() - inside <= 2,
            "step {step}: {} batches",
            batches.len()
        );
    }
    let stats = &engine.recycler().unwrap().stats;
    assert_eq!(stats.repair_fallbacks.load(Ordering::Relaxed), 0);
    assert_eq!(stats.deltas_applied.load(Ordering::Relaxed), 200);
}
