//! Proactive recycling (paper §IV-B): cube caching with selections and
//! with binning, demonstrated on Q1-style and Q19-style patterns.
//!
//! A sequence of queries that differ only in their selection parameter
//! cannot share results directly — every parameter change produces a new
//! plan. The proactive rewrites pull the selection above an aggregation
//! extended with the selection columns; the *parameter-free* inner cube is
//! then cached once and every subsequent query answers from it.
//!
//! Run with `cargo run --release --example proactive_cube`.

use std::sync::Arc;

use recycler_db::engine::Engine;
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{scan, Plan};
use recycler_db::recycler::proactive::{cube_with_binning, cube_with_selections};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::types::date_from_ymd;
use recycler_db::vector::{DataType, Schema, Value};

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([
        ("flag", DataType::Str),
        ("mode", DataType::Str),
        ("qty", DataType::Float),
        ("ship", DataType::Date),
    ]);
    let mut t = TableBuilder::new("items", schema, 600_000);
    for i in 0..600_000i64 {
        t.push_row(vec![
            Value::str(["A", "N", "R"][(i % 3) as usize]),
            Value::str(["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"][(i % 5) as usize]),
            Value::Float((i % 50) as f64 + 1.0),
            Value::Date(date_from_ymd(
                1993 + (i % 5) as i32,
                1 + (i % 12) as u32,
                15,
            )),
        ]);
    }
    cat.register(t.finish()).expect("register table");
    Arc::new(cat)
}

/// Q1-style: aggregate under a sliding date bound.
fn date_query(day: i32) -> Plan {
    scan("items", &["flag", "qty", "ship"])
        .select(Expr::name("ship").le(Expr::lit(Value::Date(day))))
        .aggregate(
            vec![(Expr::name("flag"), "flag")],
            vec![
                (AggFunc::Sum(Expr::name("qty")), "sum_qty"),
                (AggFunc::Count(Expr::name("qty")), "count_qty"),
                (AggFunc::CountStar, "n"),
            ],
        )
}

/// Q19-style: aggregate under a categorical selection.
fn mode_query(mode: &str) -> Plan {
    scan("items", &["flag", "mode", "qty"])
        .select(Expr::name("mode").eq(Expr::lit(mode)))
        .aggregate(
            vec![(Expr::name("flag"), "flag")],
            vec![(AggFunc::Sum(Expr::name("qty")), "sum_qty")],
        )
}

fn run_series(engine: &Arc<Engine>, plans: &[Plan], label: &str) {
    let session = engine.session();
    let t0 = std::time::Instant::now();
    let mut reused = 0;
    for p in plans {
        if session.query(p).expect("runs").into_outcome().reused() {
            reused += 1;
        }
    }
    println!(
        "{label:<28} {:>8.1} ms, {reused}/{} reused",
        t0.elapsed().as_secs_f64() * 1e3,
        plans.len()
    );
}

fn main() {
    let cat = catalog();
    let mk_engine = || {
        let mut c = RecyclerConfig::speculative(128 * 1024 * 1024);
        c.spec_min_progress = 0.0;
        Engine::builder(cat.clone()).recycler(c).build()
    };

    // Eight parameter variants per pattern — no two identical.
    let dates: Vec<Plan> = (0..8)
        .map(|i| {
            date_query(date_from_ymd(1994 + i % 4, 3 + (i as u32 % 6), 1))
                .bind(&cat)
                .unwrap()
        })
        .collect();
    let modes: Vec<Plan> = [
        "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "AIR", "RAIL", "SHIP",
    ]
    .iter()
    .map(|m| mode_query(m).bind(&cat).unwrap())
    .collect();

    println!("-- date-bounded aggregation (Q1 shape) --");
    run_series(&mk_engine(), &dates, "plain plans");
    let proactive: Vec<Plan> = dates
        .iter()
        .map(|p| cube_with_binning(p).expect("binning applies"))
        .collect();
    run_series(&mk_engine(), &proactive, "cube caching w/ binning");

    println!("\n-- categorical selection (Q19 shape) --");
    run_series(&mk_engine(), &modes, "plain plans");
    let proactive: Vec<Plan> = modes
        .iter()
        .map(|p| cube_with_selections(p).expect("cube applies"))
        .collect();
    run_series(&mk_engine(), &proactive, "cube caching w/ selections");

    println!(
        "\nThe proactive variants pay once to build the parameter-free cube,\n\
         then answer every later parameter variant from the cache (paper\n\
         §IV-B / Fig. 5)."
    );
}
