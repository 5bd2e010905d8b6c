//! Intra-query parallel scaling: scan-filter, hash-join, and hash-agg
//! pipelines at DOP ∈ {1, 2, 4, 8}.
//!
//! Each pipeline runs on a no-recycler engine (pure execution cost), with
//! the DOP=1 configuration exercising the untouched serial operators — so
//! the 1-worker column doubles as the no-regression check against the
//! pre-parallelism engine. Results are wall-clock medians over several
//! runs.
//!
//! **Hardware honesty:** speedup requires cores. The bench records
//! `available_parallelism` in the snapshot and only *asserts* the ≥2×
//! DOP=4 target for the scan-filter and hash-agg pipelines when the
//! machine actually has ≥4 CPUs; on fewer cores it reports the numbers
//! (expect ≈1×: the same morsels, time-sliced) and checks instead that
//! parallel overhead stays bounded.
//!
//! Emits `BENCH_parallel.json` at the workspace root (override with
//! `RDB_BENCH_OUT`).

use std::sync::Arc;
use std::time::Instant;

use rdb_engine::Engine;
use rdb_expr::{AggFunc, Expr};
use rdb_plan::{scan, Plan};
use rdb_storage::{Catalog, TableBuilder};
use rdb_vector::{DataType, Schema, Value};

const ROWS: usize = 2_000_000;
const DIM_ROWS: i64 = 1_000;
const DOPS: [usize; 4] = [1, 2, 4, 8];
const RUNS: usize = 5;

fn catalog() -> Arc<Catalog> {
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("g", DataType::Int),
        ("v", DataType::Int),
        ("f", DataType::Float),
    ]);
    let mut b = TableBuilder::new("fact", schema, ROWS);
    for i in 0..ROWS as i64 {
        b.push_row(vec![
            Value::Int(i % DIM_ROWS),
            Value::Int(i % 1_000),
            Value::Int(i % 97),
            Value::Float((i % 10_000) as f64 * 0.25),
        ]);
    }
    let dim_schema = Schema::from_pairs([("dk", DataType::Int), ("w", DataType::Int)]);
    let mut d = TableBuilder::new("dim", dim_schema, DIM_ROWS as usize);
    for i in 0..DIM_ROWS {
        d.push_row(vec![Value::Int(i), Value::Int(i * 7)]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish()).expect("register fact");
    cat.register(d.finish()).expect("register dim");
    Arc::new(cat)
}

/// The measured pipelines. All aggregates use exact accumulators so the
/// partitioned parallel breaker engages (float sums deliberately keep
/// serial fold order — see the `rdb_exec::parallel` docs — and would
/// measure the gather path instead).
fn pipelines() -> Vec<(&'static str, Plan)> {
    vec![
        (
            "scan_filter",
            scan("fact", &["k", "v", "f"])
                .select(Expr::name("v").lt(Expr::lit(30)))
                .select(Expr::name("f").gt(Expr::lit(100.0))),
        ),
        (
            "hash_join",
            scan("fact", &["k", "v"])
                .select(Expr::name("v").lt(Expr::lit(50)))
                .inner_join(
                    scan("dim", &["dk", "w"]),
                    vec![Expr::name("k")],
                    vec![Expr::name("dk")],
                )
                .aggregate(vec![], vec![(AggFunc::Sum(Expr::name("w")), "sw")]),
        ),
        (
            "hash_agg",
            scan("fact", &["g", "v"]).aggregate(
                vec![(Expr::name("g"), "g")],
                vec![
                    (AggFunc::Sum(Expr::name("v")), "sv"),
                    (AggFunc::CountStar, "n"),
                ],
            ),
        ),
    ]
}

/// Median wall time of `RUNS` full executions at the given DOP.
fn measure(cat: &Arc<Catalog>, plan: &Plan, dop: usize) -> (f64, usize) {
    let engine = Engine::builder(cat.clone())
        .no_recycler()
        .parallelism(dop)
        .build();
    let session = engine.session();
    // Warm-up run (first touch of the table pages).
    let rows = session
        .query(plan)
        .expect("query")
        .into_outcome()
        .batch
        .rows();
    let mut times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            let out = session.query(plan).expect("query").into_outcome();
            assert_eq!(out.batch.rows(), rows, "row count stable across runs");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[RUNS / 2], rows)
}

fn main() {
    rdb_bench::banner("parallel_scaling — morsel-driven pipelines at DOP 1/2/4/8");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("machine cores: {cores}\n");
    let cat = catalog();

    let mut table: Vec<(&str, Vec<f64>, usize)> = Vec::new();
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "pipeline", "dop1 (ms)", "dop2", "dop4", "dop8", "speedup@4", "rows"
    );
    for (name, plan) in pipelines() {
        let mut medians = Vec::new();
        let mut rows = 0;
        for dop in DOPS {
            let (ms, r) = measure(&cat, &plan, dop);
            medians.push(ms);
            rows = r;
        }
        println!(
            "{:>12} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>11.2}x {:>10}",
            name,
            medians[0],
            medians[1],
            medians[2],
            medians[3],
            medians[0] / medians[2],
            rows
        );
        table.push((name, medians, rows));
    }

    // Correctness-of-claims gates (see module docs for the hardware gate).
    // The hard 2x gate needs headroom beyond the 4 workers themselves (the
    // gather consumer and the OS also want a core): on exactly-4-vCPU
    // shared CI runners a strict 2.0x would flake, so those get a softer
    // floor and the full claim is asserted from 6 cores up.
    for (name, medians, _) in &table {
        let speedup4 = medians[0] / medians[2];
        let gated = *name == "scan_filter" || *name == "hash_agg";
        if gated && cores >= 6 {
            assert!(
                speedup4 >= 2.0,
                "{name}: expected >= 2x at DOP=4 on a {cores}-core machine, got {speedup4:.2}x"
            );
        } else if gated && cores >= 4 {
            assert!(
                speedup4 >= 1.3,
                "{name}: expected >= 1.3x at DOP=4 on a shared {cores}-core machine, \
                 got {speedup4:.2}x"
            );
        } else {
            // Time-sliced workers on too few cores: overhead must stay
            // bounded (morsels are coarse enough that the pool tax is
            // small).
            assert!(
                speedup4 > 0.55,
                "{name}: parallel overhead on {cores} core(s) too high ({speedup4:.2}x at DOP=4)"
            );
        }
        if cores == 1 {
            // The engine clamps DOP to the cap it resolved at build, the
            // available cores (these engines are built without
            // RDB_ALLOW_OVERSUBSCRIBE), so a DOP=8 request runs serial and
            // oversubscription must be free: no thread pool to spin up, no
            // gather reordering, no morsel hand-off tax.
            let over8 = medians[3] / medians[0];
            assert!(
                over8 <= 1.1,
                "{name}: requested DOP=8 on a 1-core host must clamp to serial \
                 (<= 1.1x dop1 time), got {over8:.2}x"
            );
        }
    }

    let out_path = std::env::var("RDB_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_parallel.json", env!("CARGO_MANIFEST_DIR")));
    let mut json = String::from("{\n\"bench\": \"parallel_scaling\",\n");
    json.push_str(&format!("\"cores\": {cores},\n\"rows\": {ROWS},\n"));
    for (i, (name, medians, rows)) in table.iter().enumerate() {
        json.push_str(&format!(
            "\"{name}\": {{\"dop1_ms\": {:.3}, \"dop2_ms\": {:.3}, \"dop4_ms\": {:.3}, \
             \"dop8_ms\": {:.3}, \"speedup_dop4\": {:.3}, \"result_rows\": {rows}}}{}\n",
            medians[0],
            medians[1],
            medians[2],
            medians[3],
            medians[0] / medians[2],
            if i + 1 == table.len() { "" } else { "," }
        ));
    }
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_parallel.json");
    println!("\nsnapshot written to {out_path}");
}
