//! Shared inputs of the write suites (`tests/delta_repair.rs`,
//! `tests/update_property.rs`, `tests/invalidation.rs`,
//! `tests/update_stress.rs`): the seeded NULL-bearing `t(k, v)` table, the
//! `k >= cut` query pool, and an order-insensitive row comparison. One
//! copy, so every suite draws the same rows and plans from the same seeds.

#![allow(dead_code)]

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler_db::engine::{Engine, EngineBuilder};
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{scan, Plan};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{Batch, DataType, Schema, Value};

/// One `t(k, v)` row, each cell NULL with probability 0.15.
pub fn nullable_row(rng: &mut SmallRng) -> Vec<Value> {
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

/// An engine over `rows` seeded rows of `t`, recycling with a 64 MiB
/// deterministic cache that speculates from the first reference. The DOP
/// is the builder's default unless the caller sets one.
pub fn engine_builder(seed: u64, rows: usize) -> EngineBuilder {
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
    Engine::builder(Arc::new(cat)).recycler(config)
}

/// Query pool over a shared `k >= cut` family, so wider cuts subsume
/// narrower ones (σ reuse) and repeats hit exactly. 0 is a selection; 1
/// a grouped sum and count; 2 is float-order-sensitive (global SUM/MIN,
/// resumable on append only); 3 is count-gated (CountStar +
/// Count(expr)), the one class where *deletes* are repaired by group
/// retraction.
pub fn query(shape: usize, cut: i64) -> Plan {
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

/// The batch's rows in sorted order.
pub fn sorted_rows(b: &Batch) -> Vec<Vec<Value>> {
    let mut rows = b.to_rows();
    rows.sort();
    rows
}
