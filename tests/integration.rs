//! End-to-end integration tests spanning the whole workspace: engine +
//! recycler + executor + workloads.

use std::sync::Arc;

use recycler_db::engine::{Engine, MaterializingEngine, QueryOutcome, WorkloadQuery};
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{scan, Plan, SortKeyExpr};
use recycler_db::recycler::proactive::{cube_with_binning, cube_with_selections, widen_top_n};
use recycler_db::recycler::{RecyclerConfig, RecyclerMode};
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::types::date_from_ymd;
use recycler_db::vector::{DataType, Schema, Value};

fn catalog(rows: i64) -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("d", DataType::Date),
        ("tag", DataType::Str),
    ]);
    let mut b = TableBuilder::new("facts", schema, rows as usize);
    for i in 0..rows {
        b.push_row(vec![
            Value::Int(i % 40),
            Value::Float((i % 211) as f64 * 0.5),
            Value::Date(date_from_ymd(1993 + (i % 5) as i32, 1 + (i % 12) as u32, 7)),
            Value::str(["x", "y", "z"][(i % 3) as usize]),
        ]);
    }
    cat.register(b.finish()).expect("register table");
    Arc::new(cat)
}

fn det_engine(cat: Arc<Catalog>, cache: u64) -> Arc<Engine> {
    let mut c = RecyclerConfig::deterministic(cache);
    c.spec_min_progress = 0.0;
    Engine::builder(cat).recycler(c).build()
}

/// Execute a plan to completion through the session API.
fn run(engine: &Arc<Engine>, plan: &Plan) -> QueryOutcome {
    engine
        .session()
        .query(plan)
        .expect("query runs")
        .into_outcome()
}

fn agg(limit: i64) -> Plan {
    scan("facts", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(limit)))
        .aggregate(
            vec![(Expr::name("k"), "k")],
            vec![
                (AggFunc::Sum(Expr::name("v")), "sv"),
                (AggFunc::CountStar, "n"),
            ],
        )
}

#[test]
fn recycled_results_are_bit_identical_to_fresh_ones() {
    let cat = catalog(50_000);
    let off = Engine::builder(cat.clone()).no_recycler().build();
    let on = det_engine(cat, 1 << 24);
    for limit in [5, 10, 20, 10, 5, 20, 10] {
        let q = agg(limit);
        let a = run(&off, &q);
        let b = run(&on, &q);
        let mut ra = a.batch.to_rows();
        let mut rb = b.batch.to_rows();
        ra.sort_by(|x, y| x[0].cmp(&y[0]));
        rb.sort_by(|x, y| x[0].cmp(&y[0]));
        assert_eq!(ra, rb, "recycled answer differs for limit {limit}");
    }
}

#[test]
fn subsumption_reuses_wider_selection() {
    let cat = catalog(50_000);
    let engine = det_engine(cat.clone(), 1 << 24);
    // Wide selection first (cached by speculation: it feeds an aggregate;
    // materialize its child too by asking for the select subtree result
    // through an aggregate root).
    let wide = scan("facts", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(30)))
        .aggregate(vec![], vec![(AggFunc::CountStar, "n")]);
    run(&engine, &wide);
    run(&engine, &wide); // second run: select node seen before
    run(&engine, &wide); // history materializes the select subtree
                         // A strictly narrower selection with a *different* aggregate: the
                         // select node has no exact cached result, but k<10 ⇒ k<30.
    let narrow = scan("facts", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(10)))
        .aggregate(vec![], vec![(AggFunc::Sum(Expr::name("v")), "s")]);
    let out = run(&engine, &narrow);
    let expected = run(&Engine::builder(cat).no_recycler().build(), &narrow);
    assert_eq!(out.batch.to_rows(), expected.batch.to_rows());
    // Either the wide select was reused via subsumption, or (if the cache
    // chose different nodes) the narrow query at least ran correctly.
    let subs = engine
        .recycler()
        .unwrap()
        .stats
        .subsumption_reuses
        .load(std::sync::atomic::Ordering::Relaxed);
    let reuses = engine
        .recycler()
        .unwrap()
        .stats
        .reuses
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(subs + reuses > 0, "some reuse must have happened");
}

#[test]
fn topn_widening_end_to_end() {
    let cat = catalog(50_000);
    let engine = det_engine(cat.clone(), 1 << 24);
    let base = || scan("facts", &["k", "v"]).top_n(vec![SortKeyExpr::desc(Expr::name("v"))], 10);
    // Proactively widened first query caches the 1000-row top-N.
    let bound = base().bind(&cat).unwrap();
    let widened = widen_top_n(&bound, 1000).unwrap();
    run(&engine, &widened);
    // A later page request (top-50, same ordering) has no exact match but
    // is subsumed by the cached wide top-N.
    let page = scan("facts", &["k", "v"])
        .top_n(vec![SortKeyExpr::desc(Expr::name("v"))], 50)
        .bind(&cat)
        .unwrap();
    let out = run(&engine, &page);
    let expected = run(&Engine::builder(cat).no_recycler().build(), &page);
    assert_eq!(out.batch.rows(), 50);
    assert_eq!(
        out.batch.column(1).as_floats(),
        expected.batch.column(1).as_floats()
    );
    assert!(out.reused(), "page should reuse the widened top-N");
}

#[test]
fn proactive_rewrites_preserve_results_under_recycling() {
    let cat = catalog(80_000);
    let off = Engine::builder(cat.clone()).no_recycler().build();
    let engine = det_engine(cat.clone(), 1 << 26);
    for (i, day) in [(0, 1), (1, 6), (2, 3)] {
        let q = scan("facts", &["tag", "v", "d"])
            .select(Expr::name("d").le(Expr::lit(Value::Date(date_from_ymd(1994 + i, day, 15)))))
            .aggregate(
                vec![(Expr::name("tag"), "tag")],
                vec![
                    (AggFunc::Sum(Expr::name("v")), "sv"),
                    (AggFunc::Count(Expr::name("v")), "nv"),
                ],
            )
            .bind(&cat)
            .unwrap();
        let rewritten = cube_with_binning(&q).expect("binning applies");
        let a = run(&off, &q);
        let b = run(&engine, &rewritten);
        let mut ra = a.batch.to_rows();
        let mut rb = b.batch.to_rows();
        ra.sort_by(|x, y| x[0].cmp(&y[0]));
        rb.sort_by(|x, y| x[0].cmp(&y[0]));
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x[0], y[0]);
            for c in 1..x.len() {
                let (fx, fy) = (x[c].as_float().unwrap(), y[c].as_float().unwrap());
                assert!((fx - fy).abs() < 1e-6, "{fx} vs {fy}");
            }
        }
    }
    // The shared year-cube should be in the cache after the first query.
    assert!(engine.recycler().unwrap().cache_len() >= 1);

    // Same check for cube-with-selections.
    for tag in ["x", "y", "x"] {
        let q = scan("facts", &["tag", "v"])
            .select(Expr::name("tag").eq(Expr::lit(tag)))
            .aggregate(vec![], vec![(AggFunc::Sum(Expr::name("v")), "sv")])
            .bind(&cat)
            .unwrap();
        let rewritten = cube_with_selections(&q).expect("cube applies");
        let a = run(&off, &q);
        let b = run(&engine, &rewritten);
        let fa = a.batch.row(0)[0].as_float().unwrap();
        let fb = b.batch.row(0)[0].as_float().unwrap();
        assert!((fa - fb).abs() < 1e-6);
    }
}

#[test]
fn cache_pressure_evicts_but_stays_correct() {
    let cat = catalog(60_000);
    // A cache too small for everything: ~8 KiB.
    let engine = det_engine(cat.clone(), 8 * 1024);
    let off = Engine::builder(cat).no_recycler().build();
    for round in 0..3 {
        for limit in [5, 10, 15, 20, 25, 30] {
            let q = agg(limit);
            let a = run(&engine, &q);
            let b = run(&off, &q);
            let mut ra = a.batch.to_rows();
            let mut rb = b.batch.to_rows();
            ra.sort_by(|x, y| x[0].cmp(&y[0]));
            rb.sort_by(|x, y| x[0].cmp(&y[0]));
            assert_eq!(ra, rb, "round {round} limit {limit}");
        }
    }
    let r = engine.recycler().unwrap();
    assert!(r.cache_used() <= 8 * 1024, "cache respects its budget");
}

#[test]
fn concurrent_streams_with_stalls_produce_correct_results() {
    let cat = catalog(120_000);
    let engine = det_engine(cat.clone(), 1 << 26);
    let q = agg(12);
    let expected = run(&Engine::builder(cat).no_recycler().build(), &q)
        .batch
        .to_rows();
    let streams: Vec<Vec<WorkloadQuery>> = (0..8)
        .map(|_| vec![WorkloadQuery::new("A", q.clone()); 2])
        .collect();
    let report = engine.run_streams(&streams);
    assert_eq!(report.records.len(), 16);
    // Every query got the same answer (verified via one representative).
    let out = run(&engine, &q);
    let mut got = out.batch.to_rows();
    let mut exp = expected;
    got.sort_by(|x, y| x[0].cmp(&y[0]));
    exp.sort_by(|x, y| x[0].cmp(&y[0]));
    assert_eq!(got, exp);
    // Sharing happened: at least half the queries reused.
    let reused = report.records.iter().filter(|r| r.reused).count();
    assert!(reused >= 8, "expected extensive reuse, got {reused}");
}

#[test]
fn history_mode_never_speculates() {
    let cat = catalog(30_000);
    let mut c = RecyclerConfig::deterministic(1 << 24);
    c.mode = RecyclerMode::History;
    let engine = Engine::builder(cat).recycler(c).build();
    let out = run(&engine, &agg(7));
    assert!(!out.materialized());
    assert!(out.events.iter().all(|e| !matches!(
        e,
        recycler_db::recycler::RecyclerEvent::StoreInjected { .. }
    )));
}

#[test]
fn pipelined_and_materializing_engines_agree() {
    let cat = catalog(40_000);
    let pipe = Engine::builder(cat.clone()).no_recycler().build();
    let mat = MaterializingEngine::recycling(cat, None);
    for limit in [3, 9, 27] {
        let q = agg(limit);
        let a = run(&pipe, &q).batch.to_rows();
        let b = mat.run(&q).unwrap().batch.to_rows();
        let mut a = a;
        let mut b = b;
        a.sort_by(|x, y| x[0].cmp(&y[0]));
        b.sort_by(|x, y| x[0].cmp(&y[0]));
        assert_eq!(a, b);
    }
}

#[test]
fn flush_between_batches_mirrors_updates() {
    let cat = catalog(30_000);
    let engine = det_engine(cat, 1 << 24);
    let q = agg(11);
    run(&engine, &q);
    let warm = run(&engine, &q);
    assert!(warm.reused());
    engine.flush_cache();
    let cold = run(&engine, &q);
    assert!(!cold.reused(), "flush invalidates all cached results");
    let warm_again = run(&engine, &q);
    assert!(warm_again.reused(), "recycling resumes after the flush");
}

#[test]
fn tpch_smoke_with_recycling_matches_off() {
    use recycler_db::tpch::{generate, make_streams, StreamOptions, TpchConfig};
    let catalog = generate(&TpchConfig {
        scale: 0.002,
        seed: 5,
    });
    let streams = make_streams(&catalog, &StreamOptions::new(2, 0.002));
    let off = Engine::builder(catalog.clone()).no_recycler().build();
    let mut c = RecyclerConfig::speculative(1 << 26);
    c.spec_min_progress = 0.0;
    let on = Engine::builder(catalog).recycler(c).build();
    for q in streams.iter().flatten() {
        let a = run(&off, &q.plan);
        let b = run(&on, &q.plan);
        assert_eq!(
            a.batch.rows(),
            b.batch.rows(),
            "{} row count differs",
            q.label
        );
    }
}
