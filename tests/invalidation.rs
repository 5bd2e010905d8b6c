//! Update-aware recycling: fine-grained cache invalidation.
//!
//! The recycler graph knows which base tables every node reads, so a DML
//! commit on one table must evict **exactly** the dependent cache entries
//! (PAPER.md §V) — entries over other tables stay hot, and the recycler
//! keeps answering them from cache while the updated table's queries
//! recompute against the new epoch.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use recycler_db::engine::{Engine, MaterializingEngine};
use recycler_db::exec::ArtifactKind;
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{scan, Plan};
use recycler_db::recycler::{RecyclerConfig, RecyclerEvent};
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::tpch::{generate, templates, TpchConfig};
use recycler_db::vector::{Batch, DataType, Schema, Value};

fn det_config() -> RecyclerConfig {
    let mut c = RecyclerConfig::deterministic(256 << 20);
    c.spec_min_progress = 0.0;
    c
}

fn tpch_engine() -> Arc<Engine> {
    let cat = generate(&TpchConfig {
        scale: 0.005,
        seed: 42,
    });
    Engine::builder(cat).recycler(det_config()).build()
}

/// A schema-valid lineitem row.
fn lineitem_row(orderkey: i64) -> Vec<Value> {
    vec![
        Value::Int(orderkey),
        Value::Int(1),
        Value::Int(1),
        Value::Int(1),
        Value::Float(5.0),
        Value::Float(500.0),
        Value::Float(0.05),
        Value::Float(0.02),
        Value::str("N"),
        Value::str("O"),
        Value::Date(9000),
        Value::Date(9010),
        Value::Date(9020),
        Value::str("NONE"),
        Value::str("TRUCK"),
    ]
}

fn sorted_rows(b: &Batch) -> Vec<Vec<Value>> {
    let mut rows = b.to_rows();
    rows.sort();
    rows
}

/// Count cached (materialized) graph nodes that depend on `table`.
fn cached_over(engine: &Arc<Engine>, table: &str) -> usize {
    engine.recycler().unwrap().with_graph(|g| {
        g.materialized_nodes()
            .iter()
            .filter(|&&id| g.node(id).tables.iter().any(|t| t == table))
            .count()
    })
}

/// Count cached graph nodes that depend on `table` but NOT on `exclude` —
/// the entries an update to `exclude` must leave alone.
fn cached_over_only(engine: &Arc<Engine>, table: &str, exclude: &str) -> usize {
    engine.recycler().unwrap().with_graph(|g| {
        g.materialized_nodes()
            .iter()
            .filter(|&&id| {
                let tables = &g.node(id).tables;
                tables.iter().any(|t| t == table) && !tables.iter().any(|t| t == exclude)
            })
            .count()
    })
}

#[test]
fn updating_lineitem_evicts_exactly_the_dependent_entries() {
    let engine = tpch_engine();
    let session = engine.session();
    let mut rng = SmallRng::seed_from_u64(7);

    // Populate the cache: Q1/Q6/Q14 (all read lineitem; Q14 also part),
    // plus a part-only and an orders-only aggregate. Two executions each:
    // the first materializes, the second must reuse.
    let q1 = (
        session.prepare(&templates::q1_template()).unwrap(),
        templates::q1_params(&mut rng),
    );
    let q6 = (
        session.prepare(&templates::q6_template()).unwrap(),
        templates::q6_params(&mut rng),
    );
    let q14 = (
        session.prepare(&templates::q14_template()).unwrap(),
        templates::q14_params(&mut rng),
    );
    let part_only = scan("part", &["p_size"]).aggregate(
        vec![],
        vec![(AggFunc::Sum(Expr::name("p_size")), "total_size")],
    );
    let orders_only = scan("orders", &["o_totalprice"]).aggregate(
        vec![],
        vec![(AggFunc::Sum(Expr::name("o_totalprice")), "total_price")],
    );
    for (prepared, params) in [&q1, &q6, &q14] {
        let first = prepared.execute(params).unwrap().into_outcome();
        assert!(!first.reused());
        let second = prepared.execute(params).unwrap().into_outcome();
        assert!(second.reused(), "steady state before the update");
    }
    for q in [&part_only, &orders_only] {
        session.query(q).unwrap().into_outcome();
        assert!(session.query(q).unwrap().into_outcome().reused());
    }

    let recycler = engine.recycler().unwrap();
    let li_before = cached_over(&engine, "lineitem");
    // Q14's nodes read part *and* lineitem, so the update reaches them;
    // the survivors an update must not touch are the part-only and
    // orders-only entries.
    let part_pure_before = cached_over_only(&engine, "part", "lineitem");
    let orders_pure_before = cached_over_only(&engine, "orders", "lineitem");
    assert!(li_before >= 3, "Q1/Q6/Q14 roots cached (got {li_before})");
    assert!(part_pure_before >= 1 && orders_pure_before >= 1);
    let len_before = recycler.cache_len();

    // Update only lineitem.
    let out = session
        .append("lineitem", &[lineitem_row(1), lineitem_row(2)])
        .unwrap();
    assert_eq!(out.table, "lineitem");
    assert_eq!(out.rows_affected, 2);
    assert_eq!(out.epoch, 1);
    assert_eq!(out.deltas_applied, 1, "the append carries its delta");

    // Every lineitem-dependent entry got exactly one event: repaired in
    // place or evicted. The walk covers dependent hash builds too, tagged
    // by kind; Q14 builds on `part`, so every event here is a result's.
    let (mut results, mut repaired_results, mut evicted) = (0, 0, 0);
    for e in &out.invalidated {
        let (table, kind) = match e {
            RecyclerEvent::Repaired { table, .. } => {
                repaired_results += 1;
                (table, ArtifactKind::Result)
            }
            RecyclerEvent::Invalidated {
                table, kind, bytes, ..
            } => {
                assert!(*bytes > 0);
                evicted += 1;
                (table, *kind)
            }
            other => panic!("unexpected event {other:?}"),
        };
        assert_eq!(table, "lineitem");
        results += usize::from(kind == ArtifactKind::Result);
    }
    assert_eq!(results, li_before, "one event per dependent result entry");
    assert_eq!(
        out.invalidated.len(),
        li_before,
        "no lineitem-dependent operator state is cached"
    );
    assert_eq!(out.repaired as usize + evicted, out.invalidated.len());
    assert!(out.repaired >= 1, "Q6's sum is repaired in place");
    // Repaired entries stay, now at the new epoch; evicted ones are gone.
    assert_eq!(cached_over(&engine, "lineitem"), repaired_results);
    assert_eq!(recycler.cache_len(), len_before - evicted);
    let invalidations = recycler
        .stats
        .invalidations
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(invalidations as usize, evicted);

    // ...and nothing else: part-only/orders-only entries are untouched and
    // still hit. The part-only entry surviving while Q14 (part ⋈ lineitem)
    // was reached is the fine-grained part.
    assert_eq!(
        cached_over_only(&engine, "part", "lineitem"),
        part_pure_before
    );
    assert_eq!(
        cached_over_only(&engine, "orders", "lineitem"),
        orders_pure_before
    );
    assert!(session.query(&part_only).unwrap().into_outcome().reused());
    assert!(session.query(&orders_only).unwrap().into_outcome().reused());

    // Lineitem queries answer at the new epoch, correctly — repaired or
    // recomputed: compare each against a materializing run over the
    // current snapshot, then the recycler is healthy there: a repeat hits.
    let baseline_catalog = Arc::new(engine.catalog().snapshot().to_catalog());
    for (template, (prepared, params)) in [
        (templates::q1_template(), &q1),
        (templates::q6_template(), &q6),
        (templates::q14_template(), &q14),
    ] {
        let after = prepared.execute(params).unwrap();
        assert_eq!(after.snapshot().epoch_of("lineitem"), Some(1));
        let after = after.into_outcome();
        let concrete = template.substitute_params(params).unwrap();
        let baseline = MaterializingEngine::naive(baseline_catalog.clone())
            .run(&concrete)
            .unwrap();
        assert_eq!(sorted_rows(&after.batch), sorted_rows(&baseline.batch));
        assert!(prepared.execute(params).unwrap().into_outcome().reused());
    }
}

#[test]
fn cached_hash_builds_serve_probe_variants_and_die_with_their_table() {
    let engine = tpch_engine();
    let session = engine.session();
    let mut rng = SmallRng::seed_from_u64(99);
    let stats = &engine.recycler().unwrap().stats;
    let oracle = |concrete: &Plan, batch: &Batch, label: &str| {
        let baseline =
            MaterializingEngine::naive(Arc::new(engine.catalog().snapshot().to_catalog()))
                .run(concrete)
                .unwrap();
        assert_eq!(
            sorted_rows(batch),
            sorted_rows(&baseline.batch),
            "{label}: diverges from the materializing oracle"
        );
    };

    // Q14 joins a parameter-dependent lineitem probe against a fixed part
    // build. Distinct date ranges miss the *result* cache every time, but
    // after the first run the part build side is a cached operator-state
    // artifact every later variant probes warm.
    let prepared = session.prepare(&templates::q14_template()).unwrap();
    let mut param_sets = Vec::new();
    while param_sets.len() < 4 {
        let p = templates::q14_params(&mut rng);
        if !param_sets.contains(&p) {
            param_sets.push(p);
        }
    }
    for (i, params) in param_sets.iter().enumerate() {
        let out = prepared.execute(params).unwrap().into_outcome();
        assert!(!out.reused(), "distinct params must miss the result cache");
        let concrete = templates::q14_template().substitute_params(params).unwrap();
        oracle(&concrete, &out.batch, &format!("Q14 variant {i}"));
    }
    let warm_builds = stats
        .hash_build_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        warm_builds >= 3,
        "variants after the first must probe the cached part build \
         (got {warm_builds} warm hits)"
    );

    // An update to *lineitem* (probe side only) leaves the part build
    // alive: the next variant still probes it warm.
    session.append("lineitem", &[lineitem_row(50)]).unwrap();
    let extra = templates::q14_params(&mut rng);
    let out = prepared.execute(&extra).unwrap().into_outcome();
    let concrete = templates::q14_template().substitute_params(&extra).unwrap();
    oracle(&concrete, &out.batch, "Q14 after lineitem append");
    assert!(
        stats
            .hash_build_hits
            .load(std::sync::atomic::Ordering::Relaxed)
            > warm_builds,
        "a probe-side update must not evict the build-side artifact"
    );

    // An update to *part* kills the cached build: the invalidation events
    // include a hash-build artifact, and the next run must rebuild — it
    // may never probe a build from the old part epoch.
    let warm_before = stats
        .hash_build_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let out = session
        .append(
            "part",
            &[vec![
                Value::Int(1_000_000),
                Value::str("hazy zinc"),
                Value::str("Manufacturer#1"),
                Value::str("Brand#11"),
                Value::str("PROMO BURNISHED ZINC"),
                Value::Int(7),
                Value::str("SM BOX"),
                Value::Float(950.0),
            ]],
        )
        .unwrap();
    assert!(
        out.invalidated.iter().any(|e| matches!(
            e,
            RecyclerEvent::Invalidated {
                kind: ArtifactKind::HashBuild,
                ..
            }
        )),
        "the part build artifact must die with its table: {:?}",
        out.invalidated
    );
    let after = prepared.execute(&param_sets[0]).unwrap().into_outcome();
    let concrete = templates::q14_template()
        .substitute_params(&param_sets[0])
        .unwrap();
    oracle(&concrete, &after.batch, "Q14 after part append");
    assert_eq!(
        stats
            .hash_build_hits
            .load(std::sync::atomic::Ordering::Relaxed),
        warm_before,
        "no warm build may cross the part epoch bump"
    );
}

fn small_engine(rows: i64) -> Arc<Engine> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
    let mut b = TableBuilder::new("t", schema, rows as usize);
    for i in 0..rows {
        b.push_row(vec![Value::Int(i % 50), Value::Float(i as f64)]);
    }
    cat.register(b.finish()).unwrap();
    Engine::builder(Arc::new(cat))
        .recycler(det_config())
        .build()
}

fn sum_under(limit: i64) -> Plan {
    scan("t", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(limit)))
        .aggregate(vec![], vec![(AggFunc::Sum(Expr::name("v")), "sv")])
}

#[test]
fn append_and_delete_flow_through_query_results() {
    let engine = small_engine(1_000);
    let session = engine.session();
    let q = sum_under(1); // sum of v where k == 0: 0+50+100+...+950
    let first = session.query(&q).unwrap().into_outcome();
    let base: f64 = (0..1000).filter(|i| i % 50 == 0).map(|i| i as f64).sum();
    assert_eq!(first.batch.column(0).as_floats(), &[base]);
    assert!(session.query(&q).unwrap().into_outcome().reused());

    // Append two matching rows. The cached SUM aggregate is append-
    // repairable: the delta folds into the finished value in place, and
    // the next query *reuses* the repaired entry — at the new epoch, with
    // the new rows included, bit-exactly.
    let out = session
        .append(
            "t",
            &[
                vec![Value::Int(0), Value::Float(10_000.0)],
                vec![Value::Int(0), Value::Float(20_000.0)],
            ],
        )
        .unwrap();
    assert!(
        out.invalidated
            .iter()
            .any(|e| matches!(e, RecyclerEvent::Repaired { .. })),
        "cached aggregate repaired in place: {:?}",
        out.invalidated
    );
    assert!(out.repaired >= 1);
    assert_eq!(out.deltas_applied, 1);
    let after = session.query(&q).unwrap().into_outcome();
    assert!(after.reused(), "repaired entry serves the new epoch");
    assert_eq!(after.batch.column(0).as_floats(), &[base + 30_000.0]);

    // Delete them again by predicate. A float SUM cannot soundly retract
    // (no per-group count to gate on), so the delete falls back to
    // eviction and the next query recomputes.
    let out = session
        .delete("t", &Expr::name("v").ge(Expr::lit(10_000.0)))
        .unwrap();
    assert_eq!(out.rows_affected, 2);
    assert_eq!(out.epoch, 2);
    assert!(out.repair_fallbacks >= 1 || out.repaired == 0);
    let back = session.query(&q).unwrap().into_outcome();
    assert!(!back.reused(), "sum delete-repair must fall back to evict");
    assert_eq!(back.batch.column(0).as_floats(), &[base]);

    let stats = session.stats();
    assert_eq!(stats.writes, 2);
    assert_eq!(stats.rows_appended, 2);
    assert_eq!(stats.rows_deleted, 2);
    assert!(stats.repaired_hits >= 1);
    assert_eq!(stats.deltas_applied, 2, "both writes carried a delta");
}

#[test]
fn prepared_fingerprint_incorporates_table_epoch() {
    let engine = small_engine(100);
    let session = engine.session();
    let template = scan("t", &["k", "v"]).select(Expr::name("k").lt(Expr::param("limit")));
    let before = session.prepare(&template).unwrap();
    let again = session.prepare(&template).unwrap();
    assert_eq!(
        before.fingerprint(),
        again.fingerprint(),
        "same template, same epochs"
    );
    assert_eq!(before.fingerprint(), before.fingerprint_now());
    session
        .append("t", &[vec![Value::Int(1), Value::Float(1.0)]])
        .unwrap();
    assert_ne!(
        before.fingerprint(),
        before.fingerprint_now(),
        "epoch bump changes the version-aware fingerprint"
    );
    let fresh = session.prepare(&template).unwrap();
    assert_ne!(before.fingerprint(), fresh.fingerprint());
    assert_eq!(fresh.fingerprint(), before.fingerprint_now());
}

#[test]
fn dml_works_with_recycling_off() {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([("x", DataType::Int)]);
    let mut b = TableBuilder::new("t", schema, 2);
    b.push_row(vec![Value::Int(1)]);
    b.push_row(vec![Value::Int(2)]);
    cat.register(b.finish()).unwrap();
    let engine = Engine::builder(Arc::new(cat)).no_recycler().build();
    let session = engine.session();
    let out = session.append("t", &[vec![Value::Int(3)]]).unwrap();
    assert!(out.invalidated.is_empty(), "no recycler, no invalidations");
    let got = session.query(&scan("t", &["x"])).unwrap().collect_batch();
    assert_eq!(got.column(0).as_ints(), &[1, 2, 3]);
    session
        .delete("t", &Expr::name("x").eq(Expr::lit(2)))
        .unwrap();
    let got = session.query(&scan("t", &["x"])).unwrap().collect_batch();
    assert_eq!(got.column(0).as_ints(), &[1, 3]);
    // Unknown tables are rejected.
    assert!(session.append("nope", &[vec![Value::Int(1)]]).is_err());
    assert!(session.delete("nope", &Expr::lit(true)).is_err());
    // Non-boolean and parameterized predicates error instead of panicking.
    let err = session.delete("t", &Expr::name("x")).unwrap_err();
    assert!(err.to_string().contains("boolean"), "{err}");
    let err = session
        .delete("t", &Expr::name("x").gt(Expr::param("p")))
        .unwrap_err();
    assert!(err.to_string().contains("parameter"), "{err}");
    // No failed statement committed an epoch.
    assert_eq!(engine.catalog().epoch_of("t"), Some(2));
    // A predicate that reads no column still sees every row.
    let out = session.delete("t", &Expr::lit(true)).unwrap();
    assert_eq!(out.rows_affected, 2);
    assert_eq!(engine.catalog().get("t").unwrap().rows(), 0);
}

#[test]
fn noop_dml_commits_no_epoch_and_keeps_the_cache_hot() {
    let engine = small_engine(500);
    let session = engine.session();
    let q = sum_under(10);
    session.query(&q).unwrap().into_outcome();
    assert!(session.query(&q).unwrap().into_outcome().reused());
    let len = engine.recycler().unwrap().cache_len();

    // A delete matching nothing and an empty append change no data: no
    // epoch, no invalidation, no cache churn.
    let out = session
        .delete("t", &Expr::name("k").gt(Expr::lit(1_000_000)))
        .unwrap();
    assert_eq!(out.rows_affected, 0);
    assert_eq!(out.epoch, 0, "no-op delete commits no epoch");
    assert!(out.invalidated.is_empty());
    let out = session.append("t", &[]).unwrap();
    assert_eq!((out.rows_affected, out.epoch), (0, 0));
    assert!(out.invalidated.is_empty());
    assert_eq!(engine.recycler().unwrap().cache_len(), len);
    assert!(session.query(&q).unwrap().into_outcome().reused());
    // The no-op fast path never reaches the repair walk either.
    let stats = session.stats();
    assert_eq!(stats.deltas_applied, 0, "no-op DML applies no delta");
    assert_eq!(stats.repaired_hits + stats.repair_fallbacks, 0);
}

#[test]
fn invalidate_spares_entries_already_at_the_new_epoch() {
    let engine = small_engine(1_000);
    let session = engine.session();
    let q = sum_under(5);
    session
        .append("t", &[vec![Value::Int(0), Value::Float(1.0)]])
        .unwrap(); // epoch 1
    session.query(&q).unwrap().into_outcome();
    assert!(session.query(&q).unwrap().into_outcome().reused());
    let recycler = engine.recycler().unwrap();
    let len = recycler.cache_len();
    assert!(len > 0);
    // Re-announcing an epoch the cache is already at (the publish-ahead /
    // invalidate-catches-up ordering) must not evict the fresh entries.
    let events = recycler.invalidate("t", 1);
    assert!(
        events.is_empty(),
        "no fresh entry may be evicted: {events:?}"
    );
    assert_eq!(recycler.cache_len(), len);
    assert!(session.query(&q).unwrap().into_outcome().reused());
    // A genuinely newer epoch still evicts.
    let events = recycler.invalidate("t", 2);
    assert_eq!(events.len(), len);
}

#[test]
fn in_flight_stream_keeps_its_snapshot() {
    let engine = small_engine(5_000);
    let session = engine.session();
    // Plain scan spanning multiple batches.
    let mut handle = session.query(&scan("t", &["k", "v"])).unwrap();
    let first = handle.next().expect("first batch");
    assert_eq!(handle.snapshot().epoch_of("t"), Some(0));
    // A write lands mid-stream.
    session
        .append("t", &[vec![Value::Int(0), Value::Float(-1.0)]])
        .unwrap();
    let mut total = first.rows();
    for b in handle {
        total += b.rows();
    }
    assert_eq!(total, 5_000, "the pinned snapshot never sees the append");
    // A fresh query does.
    let total_after: usize = session
        .query(&scan("t", &["k", "v"]))
        .unwrap()
        .map(|b| b.rows())
        .sum();
    assert_eq!(total_after, 5_001);
}

#[test]
fn publish_racing_an_update_is_rejected_not_cached() {
    let engine = small_engine(5_000);
    let session = engine.session();
    let q = scan("t", &["k", "v"]).select(Expr::name("k").ge(Expr::lit(0)));
    // Start a run whose root store publishes only when the stream drains.
    let mut handle = session.query(&q).unwrap();
    let _first = handle.next().expect("first batch");
    // The update commits while the materialization is in flight.
    session
        .append("t", &[vec![Value::Int(999), Value::Float(0.0)]])
        .unwrap();
    let rest: Vec<Batch> = handle.collect();
    assert!(!rest.is_empty());
    // The produced result is from epoch 0 and must not have been admitted:
    // a repeat executes fresh against epoch 1 and sees the new row.
    let repeat = session.query(&q).unwrap().into_outcome();
    assert!(
        !repeat.reused(),
        "stale publish must not serve the new epoch"
    );
    assert_eq!(repeat.batch.rows(), 5_001);
    let stale = engine
        .recycler()
        .unwrap()
        .stats
        .stale_rejections
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(stale >= 1, "epoch gate rejected the in-flight publish");
}
