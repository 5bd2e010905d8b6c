//! Criterion microbench: vectorized operator throughput.
//!
//! Sanity numbers for the substrate (selection, aggregation, hash join) —
//! the absolute costs that the recycler's benefit metric trades against
//! cache space.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rdb_exec::{build, run_to_batch, ExecContext};
use rdb_expr::{AggFunc, Expr};
use rdb_plan::scan;
use rdb_storage::{Catalog, TableBuilder};
use rdb_vector::{DataType, Schema, Value};
use std::sync::Arc;

const ROWS: usize = 200_000;
/// Orders at TPC-H SF 0.02: a build side with one row per key.
const ORDERS: usize = 30_000;

fn ctx() -> ExecContext {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("d", DataType::Date),
        ("o", DataType::Int),
    ]);
    let mut b = TableBuilder::new("t", schema, ROWS);
    for i in 0..ROWS as i64 {
        b.push_row(vec![
            Value::Int(i % 1000),
            Value::Float((i % 97) as f64),
            Value::Date((i % 2500) as i32 + 8000),
            Value::Int(i * 7 % ORDERS as i64),
        ]);
    }
    cat.register(b.finish()).expect("register table");
    let schema = Schema::from_pairs([("rk", DataType::Int), ("tag", DataType::Str)]);
    let mut b = TableBuilder::new("dim", schema, 1000);
    for i in 0..1000i64 {
        b.push_row(vec![Value::Int(i), Value::str(format!("tag{}", i % 7))]);
    }
    cat.register(b.finish()).expect("register table");
    let schema = Schema::from_pairs([("ok", DataType::Int), ("price", DataType::Float)]);
    let mut b = TableBuilder::new("orders", schema, ORDERS);
    for i in 0..ORDERS as i64 {
        b.push_row(vec![Value::Int(i), Value::Float(i as f64 * 0.5)]);
    }
    cat.register(b.finish()).expect("register table");
    ExecContext::new(Arc::new(cat))
}

fn bench_exec(c: &mut Criterion) {
    let ctx = ctx();
    let mut group = c.benchmark_group("operators");
    group.throughput(Throughput::Elements(ROWS as u64));

    let filter_plan = scan("t", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(100)))
        .bind(&ctx.catalog)
        .unwrap();
    group.bench_function("filter_10pct", |b| {
        b.iter(|| {
            let mut t = build(&filter_plan, &ctx).unwrap();
            run_to_batch(t.root.as_mut()).rows()
        })
    });

    let agg_plan = scan("t", &["k", "v"])
        .aggregate(
            vec![(Expr::name("k"), "k")],
            vec![
                (AggFunc::Sum(Expr::name("v")), "s"),
                (AggFunc::CountStar, "n"),
            ],
        )
        .bind(&ctx.catalog)
        .unwrap();
    group.bench_function("hash_agg_1000_groups", |b| {
        b.iter(|| {
            let mut t = build(&agg_plan, &ctx).unwrap();
            run_to_batch(t.root.as_mut()).rows()
        })
    });

    let join_plan = scan("t", &["k", "v"])
        .inner_join(
            scan("dim", &["rk", "tag"]),
            vec![Expr::name("k")],
            vec![Expr::name("rk")],
        )
        .bind(&ctx.catalog)
        .unwrap();
    group.bench_function("hash_join_dim1000", |b| {
        b.iter(|| {
            let mut t = build(&join_plan, &ctx).unwrap();
            run_to_batch(t.root.as_mut()).rows()
        })
    });

    // An orders-sized build of 30,000 distinct keys, probed by every row:
    // what a build side costs per distinct key shows here, not over the
    // 1,000-row dimension above.
    let orders_plan = scan("t", &["o", "v"])
        .inner_join(
            scan("orders", &["ok", "price"]),
            vec![Expr::name("o")],
            vec![Expr::name("ok")],
        )
        .bind(&ctx.catalog)
        .unwrap();
    group.bench_function("hash_join_build_30k_unique", |b| {
        b.iter(|| {
            let mut t = build(&orders_plan, &ctx).unwrap();
            run_to_batch(t.root.as_mut()).rows()
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_exec
}
criterion_main!(benches);
