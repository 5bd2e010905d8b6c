//! Seeded property test: random interleavings of appends, deletes, and
//! queries (NULL-bearing data, subsumable predicate families) compare the
//! recycling engine against the operator-at-a-time materializing engine at
//! every step — in the style of `tests/zero_copy.rs`, extended with DML.
//!
//! Queries repeat from a small pool so the recycler alternates between
//! computing, exact reuse, and subsumption reuse across epoch bumps; every
//! answer must equal a fresh materializing run over the snapshot the query
//! read.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler_db::engine::{Engine, MaterializingEngine};
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{scan, Plan};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{Batch, DataType, Schema, Value};

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

fn engine(seed: u64, rows: usize) -> Arc<Engine> {
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
    Engine::builder(Arc::new(cat)).recycler(config).build()
}

/// A small pool of query shapes over a shared `k >= cut` family, so wider
/// cuts subsume narrower ones (σ reuse) and repeats hit exactly.
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
        _ => base.aggregate(
            vec![],
            vec![
                (AggFunc::Sum(Expr::name("v")), "sv"),
                (AggFunc::Min(Expr::name("v")), "mn"),
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
fn random_interleavings_match_the_materializing_engine() {
    for seed in 0..4u64 {
        let engine = engine(1000 + seed, 800);
        let session = engine.session();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Small domains create repeats (reuse) and subsumption pairs.
        let cuts: Vec<i64> = (0..4).map(|_| rng.gen_range(-25..25)).collect();
        let mut queries = 0u64;
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
                    let pred = if rng.gen_bool(0.5) {
                        Expr::name("k").eq(Expr::lit(rng.gen_range(-20i64..40)))
                    } else {
                        Expr::name("v").gt(Expr::lit(rng.gen_range(60.0..100.0)))
                    };
                    session.delete("t", &pred).unwrap();
                }
                // 70%: query, checked against the snapshot it read.
                _ => {
                    let shape = rng.gen_range(0..3);
                    let cut = cuts[rng.gen_range(0..cuts.len())];
                    let plan = query(shape, cut);
                    let handle = session.query(&plan).unwrap();
                    let snapshot = handle.snapshot().clone();
                    let out = handle.into_outcome();
                    let baseline = MaterializingEngine::naive(Arc::new(snapshot.to_catalog()))
                        .run(&plan)
                        .unwrap();
                    assert_eq!(
                        sorted_rows(&out.batch),
                        sorted_rows(&baseline.batch),
                        "seed {seed} step {step}: shape {shape} cut {cut} diverged \
                         (epochs {:?})",
                        snapshot.epochs()
                    );
                    queries += 1;
                }
            }
        }
        // The interleaving exercised the full machinery, not a degenerate
        // corner: reuse happened, updates invalidated, results stayed exact.
        let stats = &engine.recycler().unwrap().stats;
        let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        assert!(queries > 50, "seed {seed}: want a query-heavy mix");
        assert!(
            load(&stats.reuses) + load(&stats.subsumption_reuses) > 0,
            "seed {seed}: some repeats must reuse"
        );
        assert!(
            load(&stats.invalidations) > 0,
            "seed {seed}: updates must invalidate cached entries"
        );
    }
}

#[test]
fn subsumption_reuse_respects_epochs() {
    // Deterministic core of the property: cache a wide selection, reuse it
    // through subsumption for a narrower one, update, and verify the stale
    // subsumer is neither reused nor resurrected. The update is a delete,
    // which a selection cannot repair (an append would patch the wide
    // entry to the new epoch, and reusing it would be *correct* — covered
    // in tests/delta_repair.rs); here we pin the stale-entry gate.
    let engine = engine(5, 400);
    let session = engine.session();
    let wide = query(0, -25);
    let narrow = query(0, 10);
    session.query(&wide).unwrap().into_outcome();
    assert!(session.query(&wide).unwrap().into_outcome().reused());
    let narrowed = session.query(&narrow).unwrap().into_outcome();
    // (Whether subsumption or exact matching served it, the answer must be
    // right; with the wide result cached, *some* reuse is expected.)
    assert!(narrowed.reused(), "narrow σ should reuse the wide result");

    let out = session
        .delete("t", &Expr::name("k").eq(Expr::lit(30)))
        .unwrap();
    assert!(out.rows_affected > 0, "the delete must commit an epoch");
    assert_eq!(out.repaired, 0, "selections do not repair deletes");
    let after = session.query(&narrow).unwrap().into_outcome();
    assert!(
        !after.reused(),
        "the stale wide result must not answer the new epoch"
    );
    let baseline = MaterializingEngine::naive(Arc::new(engine.catalog().snapshot().to_catalog()))
        .run(&narrow)
        .unwrap();
    assert_eq!(sorted_rows(&after.batch), sorted_rows(&baseline.batch));
}
