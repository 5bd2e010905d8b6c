//! The DOP cap is fixed when an engine is built: the host's available
//! cores, or no cap when `RDB_ALLOW_OVERSUBSCRIBE` was set at build time.
//!
//! This file is its own test binary with a single test, because it sets
//! and clears a process-wide environment variable that other suites set
//! too.

use std::sync::Arc;

use recycler_db::engine::{Engine, Session};
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{scan, Plan};
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{DataType, Schema, Value};

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
    let rows = 20_000;
    let mut b = TableBuilder::new("t", schema, rows);
    for i in 0..rows as i64 {
        b.push_row(vec![Value::Int(i % 97), Value::Float((i % 13) as f64)]);
    }
    cat.register(b.finish()).expect("register table");
    Arc::new(cat)
}

fn plan() -> Plan {
    scan("t", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(60)))
        .aggregate(
            vec![(Expr::name("k"), "k")],
            vec![
                (AggFunc::Sum(Expr::name("v")), "sv"),
                (AggFunc::CountStar, "n"),
            ],
        )
}

/// Run the plan, returning the DOP the execution was granted and its rows.
fn run(session: &Session) -> (usize, Vec<Vec<Value>>) {
    let handle = session.query(&plan()).expect("query");
    let dop = handle.dop();
    let out = handle.into_outcome();
    (dop, out.batch.to_rows())
}

#[test]
fn the_dop_cap_is_fixed_when_the_engine_is_built() {
    // CI's DOP matrix sets the variable for the whole run.
    std::env::remove_var("RDB_ALLOW_OVERSUBSCRIBE");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cat = catalog();

    let a = Engine::builder(cat.clone())
        .no_recycler()
        .parallelism(cores + 2)
        .build();
    assert_eq!(a.parallelism(), cores, "the engine default is clamped");
    let session_a = a.session();
    session_a.set_parallelism(cores + 3);
    assert_eq!(session_a.parallelism(), cores);
    let (dop, rows_a) = run(&session_a);
    assert_eq!(dop, cores, "a session override is clamped");

    std::env::set_var("RDB_ALLOW_OVERSUBSCRIBE", "1");
    let b = Engine::builder(cat)
        .no_recycler()
        .parallelism(cores + 2)
        .build();
    assert_eq!(b.parallelism(), cores + 2);
    let session_b = b.session();
    session_b.set_parallelism(cores + 3);
    assert_eq!(session_b.parallelism(), cores + 3);
    let (dop, rows_b) = run(&session_b);
    assert_eq!(dop, cores + 3, "built with the variable set: no cap");

    // A keeps the cap it was built with.
    let (dop, rows_a_again) = run(&session_a);
    assert_eq!(
        dop, cores,
        "the variable is read at build, not per statement"
    );
    std::env::remove_var("RDB_ALLOW_OVERSUBSCRIBE");

    assert!(!rows_a.is_empty());
    assert_eq!(rows_a, rows_b, "results do not depend on the DOP");
    assert_eq!(rows_a, rows_a_again);
}
