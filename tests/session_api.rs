//! End-to-end tests of the session-based query API: prepared statements,
//! parameter binding, streaming batch results, and structured execution
//! failures.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use recycler_db::engine::Engine;
use recycler_db::exec::{FnRegistry, TableFunction};
use recycler_db::expr::{AggFunc, Expr, Params};
use recycler_db::plan::{fn_scan, scan, Plan};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{Batch, DataType, Schema, Value, BATCH_CAPACITY};

fn catalog(rows: i64) -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("tag", DataType::Str),
    ]);
    let mut b = TableBuilder::new("facts", schema, rows as usize);
    for i in 0..rows {
        b.push_row(vec![
            Value::Int(i % 64),
            Value::Float((i % 211) as f64 * 0.5),
            Value::str(["x", "y", "z"][(i % 3) as usize]),
        ]);
    }
    cat.register(b.finish()).expect("register table");
    Arc::new(cat)
}

fn det_engine(rows: i64) -> Arc<Engine> {
    let mut c = RecyclerConfig::deterministic(1 << 24);
    c.spec_min_progress = 0.0;
    Engine::builder(catalog(rows)).recycler(c).build()
}

fn template() -> Plan {
    scan("facts", &["k", "v"])
        .select(Expr::name("k").lt(Expr::param("limit")))
        .aggregate(
            vec![(Expr::name("k"), "k")],
            vec![
                (AggFunc::Sum(Expr::name("v")), "sv"),
                (AggFunc::CountStar, "n"),
            ],
        )
}

#[test]
fn identical_params_hit_the_recycler_cache() {
    let engine = det_engine(30_000);
    let session = engine.session();
    let prepared = session.prepare(&template()).unwrap();
    let p = Params::new().set("limit", 12i64);
    let first = prepared.execute(&p).unwrap().into_outcome();
    assert!(!first.reused());
    assert_eq!(first.batch.rows(), 12);
    for _ in 0..3 {
        let again = prepared.execute(&p).unwrap().into_outcome();
        assert!(again.reused(), "identical params must reuse");
        assert_eq!(again.batch.to_rows(), first.batch.to_rows());
    }
    assert_eq!(session.stats().reused, 3);
}

#[test]
fn different_params_do_not_share_results() {
    let engine = det_engine(30_000);
    let session = engine.session();
    let prepared = session.prepare(&template()).unwrap();
    let a = prepared
        .execute(&Params::new().set("limit", 10i64))
        .unwrap()
        .into_outcome();
    let b = prepared
        .execute(&Params::new().set("limit", 20i64))
        .unwrap()
        .into_outcome();
    assert_eq!(a.batch.rows(), 10);
    assert_eq!(b.batch.rows(), 20);
    assert!(!b.reused(), "a different parameter draw must compute fresh");
    // Each parameterization is cached independently.
    let a2 = prepared
        .execute(&Params::new().set("limit", 10i64))
        .unwrap()
        .into_outcome();
    let b2 = prepared
        .execute(&Params::new().set("limit", 20i64))
        .unwrap()
        .into_outcome();
    assert!(a2.reused() && b2.reused());
    assert_eq!(a2.batch.to_rows(), a.batch.to_rows());
    assert_eq!(b2.batch.to_rows(), b.batch.to_rows());
}

#[test]
fn streaming_pulls_batch_at_a_time() {
    let engine = Engine::builder(catalog(BATCH_CAPACITY as i64 * 3 + 7))
        .no_recycler()
        .build();
    let session = engine.session();
    let plan = scan("facts", &["k", "v"]);
    let mut handle = session.query(&plan).unwrap();
    assert_eq!(handle.schema().names(), vec!["k", "v"]);
    let mut batches = 0;
    let mut rows = 0;
    for b in &mut handle {
        batches += 1;
        rows += b.rows();
        assert!(b.rows() <= BATCH_CAPACITY);
    }
    assert_eq!(batches, 4);
    assert_eq!(rows, BATCH_CAPACITY * 3 + 7);
}

#[test]
fn dropped_stream_does_not_poison_cache_or_leak_slot() {
    let mut c = RecyclerConfig::deterministic(1 << 24);
    c.spec_min_progress = 0.0;
    let engine = Engine::builder(catalog(60_000))
        .recycler(c)
        .max_concurrent_queries(1)
        .build();
    let session = engine.session();
    let prepared = session.prepare(&template()).unwrap();
    let p = Params::new().set("limit", 40i64);
    {
        let mut handle = prepared.execute(&p).unwrap();
        let _ = handle.next();
        // Dropped here, half-way through, while holding the only slot.
    }
    assert_eq!(session.stats().aborted, 1);
    // Slot released: with max_concurrent_queries(1) the next execution
    // would block forever on a leaked slot.
    let out = prepared.execute(&p).unwrap().into_outcome();
    assert!(!out.reused(), "the aborted run must not have published");
    assert_eq!(out.batch.rows(), 40);
    // Cache unpoisoned: the completed run's result is reused and correct.
    let again = prepared.execute(&p).unwrap().into_outcome();
    assert!(again.reused());
    assert_eq!(again.batch.to_rows(), out.batch.to_rows());
}

#[test]
fn stage_failures_end_the_stream_with_an_error_at_any_dop() {
    // Both drivers of the pipeline chain — the serial operator and the
    // morsel workers — must turn a failing stage into a structured error
    // on the handle: no panic, nothing cached, engine still serving.
    std::env::set_var("RDB_ALLOW_OVERSUBSCRIBE", "1");
    // `k < 'abc'` only fails when the comparison runs.
    let wrong_type = scan("facts", &["k"]).select(Expr::name("k").lt(Expr::param("p")));
    let p = Params::new().set("p", Value::str("abc"));
    // A `single` join promises a one-row build side; this one has two.
    let two_rows = scan("facts", &["v"]).limit(2);
    let bad_single = scan("facts", &["k"])
        .select(Expr::name("k").ge(Expr::lit(0)))
        .single_join(two_rows);
    for dop in [1usize, 2] {
        let mut c = RecyclerConfig::deterministic(1 << 24);
        c.spec_min_progress = 0.0;
        let engine = Engine::builder(catalog(20_000))
            .recycler(c)
            .parallelism(dop)
            .max_concurrent_queries(1)
            .build();
        let session = engine.session();
        // The only artifact either statement may leave behind is the
        // single join's build side: it was drained to completion and is
        // valid on its own; what failed is the probe.
        for (label, plan, params, artifacts) in [
            ("wrong-typed parameter", &wrong_type, &p, 0),
            ("two-row single join", &bad_single, &Params::none(), 1),
        ] {
            // Twice: the failed first run must have cached no result the
            // second could be served from.
            for attempt in 0..2 {
                let mut handle = session.prepare(plan).unwrap().execute(params).unwrap();
                assert_eq!(handle.dop(), dop);
                assert!(!handle.reused(), "{label} at DOP {dop}, attempt {attempt}");
                while handle.next().is_some() {}
                let err = handle
                    .error()
                    .unwrap_or_else(|| panic!("{label} at DOP {dop}: no error on the handle"));
                assert!(!err.message().is_empty());
            }
            assert!(
                engine.recycler().unwrap().cache_len() <= artifacts,
                "{label} at DOP {dop}: a failed stream must publish nothing"
            );
        }
        assert_eq!(
            session.stats().aborted,
            4,
            "failed streams count as aborted"
        );
        // Slot released and the engine still answers.
        let ok = scan("facts", &["k"]).select(Expr::name("k").lt(Expr::lit(3)));
        let out = session.query(&ok).unwrap().into_outcome();
        assert!(out.batch.rows() > 0);
    }
}

#[test]
fn prepare_rejects_unknown_columns_and_execute_validates_params() {
    let engine = det_engine(1_000);
    let session = engine.session();
    assert!(session.prepare(&scan("facts", &["nope"])).is_err());
    let prepared = session.prepare(&template()).unwrap();
    assert!(
        prepared.execute(&Params::none()).is_err(),
        "missing binding"
    );
    assert!(
        prepared
            .execute(&Params::new().set("limit", 5i64).set("extra", 1i64))
            .is_err(),
        "unknown binding"
    );
}

#[test]
fn collect_batch_is_the_explicit_materialization_point() {
    let engine = det_engine(5_000);
    let session = engine.session();
    let prepared = session.prepare(&template()).unwrap();
    let batch = prepared
        .execute(&Params::new().set("limit", 8i64))
        .unwrap()
        .collect_batch();
    assert_eq!(batch.rows(), 8);
}

/// `ticks()`: one row holding how many times it has been called. Volatile,
/// like the server's `rdb_stats()`.
#[derive(Default)]
struct Ticks(AtomicI64);

impl TableFunction for Ticks {
    fn schema(&self, _args: &[Value]) -> Schema {
        Schema::from_pairs([("tick", DataType::Int)])
    }

    fn execute(&self, _args: &[Value], work: &mut u64) -> Vec<Batch> {
        *work += 1;
        let tick = self.0.fetch_add(1, Ordering::Relaxed) + 1;
        vec![Batch::from_rows(
            &self.schema(&[]),
            &[vec![Value::Int(tick)]],
        )]
    }

    fn volatile(&self) -> bool {
        true
    }
}

#[test]
fn volatile_functions_bypass_the_recycler_on_every_execution() {
    // Whether a statement reads a volatile function is decided once per
    // compiled template; every execution of it, from one prepared
    // statement or from one cached SQL text, must still compute afresh
    // and leave nothing in the recycler.
    let mut fns = FnRegistry::new();
    fns.register("ticks", Arc::new(Ticks::default()));
    let mut c = RecyclerConfig::deterministic(1 << 24);
    c.spec_min_progress = 0.0;
    let engine = Engine::builder(catalog(1_000))
        .recycler(c)
        .functions(Arc::new(fns))
        .build();
    let session = engine.session();
    let ticks = fn_scan(
        "ticks",
        vec![],
        Schema::from_pairs([("tick", DataType::Int)]),
    )
    .select(Expr::name("tick").gt(Expr::lit(0)));
    let prepared = session.prepare(&ticks).unwrap();
    let mut want = 0;
    let mut check = |handle: recycler_db::engine::QueryHandle, how: &str| {
        want += 1;
        assert!(handle.events().is_empty(), "{how}: recycler events");
        let out = handle.into_outcome();
        assert_eq!(
            out.batch.to_rows(),
            vec![vec![Value::Int(want)]],
            "{how}: a fresh result"
        );
    };
    for _ in 0..3 {
        check(prepared.execute(&Params::none()).unwrap(), "prepared");
    }
    let sql = "SELECT tick FROM ticks() WHERE tick > 0";
    for _ in 0..4 {
        check(
            session.sql(sql, &Params::none()).unwrap().expect_rows(),
            "sql",
        );
    }
    assert!(
        engine.statement_cache_stats().hits >= 2,
        "the later SQL executions reuse the cached template"
    );
    let recycler = engine.recycler().unwrap();
    assert_eq!(recycler.stats.queries.load(Ordering::Relaxed), 0);
    assert_eq!((recycler.graph_len(), recycler.cache_len()), (0, 0));

    // The same engine still recycles a plain query.
    let p = Params::new().set("limit", 8i64);
    let plain = session.prepare(&template()).unwrap();
    assert!(!plain.execute(&p).unwrap().into_outcome().reused());
    assert!(plain.execute(&p).unwrap().into_outcome().reused());
}
