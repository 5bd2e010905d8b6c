//! Operator-state recycling: cold vs recycled hash-join builds.
//!
//! A probe-dominated repeated join: every query probes the *same* large
//! build side (a 200k-row dimension table) with a different small probe
//! filter, so the result cache misses every time but — with recycling on —
//! the hash build is constructed once and served warm thereafter. The
//! `cold` configuration (recycling off) rebuilds it for every query; the
//! gap between the two is exactly the build cost the recycler saves.
//!
//! The stream also repeats a few variants verbatim, so warm *result* hits
//! mix with warm *build* hits — the per-kind counters tell them apart.
//!
//! Emits `BENCH_hashcache.json` at the workspace root (override with
//! `RDB_BENCH_OUT`).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use rdb_engine::Engine;
use rdb_expr::{AggFunc, Expr};
use rdb_plan::{scan, Plan};
use rdb_recycler::RecyclerConfig;
use rdb_storage::{Catalog, TableBuilder};
use rdb_vector::{DataType, Schema, Value};

const BUILD_ROWS: i64 = 200_000;
const PROBE_ROWS: i64 = 20_000;
const VARIANTS: usize = 10;
const REPEATS: usize = 4; // verbatim repeats → result-cache hits

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let dim_schema = Schema::from_pairs([
        ("d_key", DataType::Int),
        ("d_group", DataType::Int),
        ("d_weight", DataType::Float),
    ]);
    let mut dim = TableBuilder::new("dim", dim_schema, BUILD_ROWS as usize);
    for i in 0..BUILD_ROWS {
        dim.push_row(vec![
            Value::Int(i),
            Value::Int(i % 16),
            Value::Float((i % 1000) as f64 * 0.25),
        ]);
    }
    cat.register(dim.finish()).unwrap();
    let fact_schema = Schema::from_pairs([("f_key", DataType::Int), ("f_val", DataType::Float)]);
    let mut fact = TableBuilder::new("fact", fact_schema, PROBE_ROWS as usize);
    for i in 0..PROBE_ROWS {
        fact.push_row(vec![
            Value::Int((i * 7919) % BUILD_ROWS),
            Value::Float(i as f64 * 0.5),
        ]);
    }
    cat.register(fact.finish()).unwrap();
    Arc::new(cat)
}

/// One probe variant: a thin slice of the fact table joined against the
/// full dim build, aggregated so the output is small and deterministic.
fn variant(v: usize) -> Plan {
    let lo = (v as i64) * 1_000;
    scan("fact", &["f_key", "f_val"])
        .select(
            Expr::name("f_val")
                .ge(Expr::lit(lo as f64))
                .and(Expr::name("f_val").lt(Expr::lit((lo + 1_000) as f64))),
        )
        .inner_join(
            scan("dim", &["d_key", "d_group", "d_weight"]),
            vec![Expr::name("f_key")],
            vec![Expr::name("d_key")],
        )
        .aggregate(
            vec![(Expr::name("d_group"), "d_group")],
            vec![
                (AggFunc::Sum(Expr::name("f_val")), "sum_val"),
                (AggFunc::Sum(Expr::name("d_weight")), "sum_weight"),
            ],
        )
}

fn engine(recycling: bool, dop: usize) -> Arc<Engine> {
    let mut builder = Engine::builder(catalog()).parallelism(dop);
    builder = if recycling {
        let mut c = RecyclerConfig::deterministic(256 << 20);
        c.spec_min_progress = 0.0;
        builder.recycler(c)
    } else {
        builder.no_recycler()
    };
    builder.build()
}

struct RunResult {
    warmup_ms: f64,
    tail_ms: f64,
    result_hits: u64,
    hash_build_hits: u64,
    rows: Vec<Vec<Value>>,
}

/// Run the full stream (VARIANTS distinct + REPEATS verbatim) and time the
/// tail separately from the first (build-constructing) query.
fn run(engine: &Arc<Engine>) -> RunResult {
    let session = engine.session();
    let mut rows = Vec::new();
    let t0 = Instant::now();
    let first = session.query(&variant(0)).expect("query").into_outcome();
    rows.extend(first.batch.to_rows());
    let warmup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    for v in 1..VARIANTS {
        let out = session.query(&variant(v)).expect("query").into_outcome();
        rows.extend(out.batch.to_rows());
    }
    for v in 0..REPEATS {
        let out = session.query(&variant(v)).expect("query").into_outcome();
        rows.extend(out.batch.to_rows());
    }
    let tail_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (result_hits, hash_build_hits) = match engine.recycler() {
        Some(r) => (
            r.stats.reuses.load(Ordering::Relaxed)
                + r.stats.subsumption_reuses.load(Ordering::Relaxed),
            r.stats.hash_build_hits.load(Ordering::Relaxed),
        ),
        None => (0, 0),
    };
    RunResult {
        warmup_ms,
        tail_ms,
        result_hits,
        hash_build_hits,
        rows,
    }
}

fn main() {
    rdb_bench::banner("hash_reuse — cold vs recycled hash-join builds");
    let recycled_engine = engine(true, 1);
    let recycled = run(&recycled_engine);
    let cold_engine = engine(false, 1);
    let cold = run(&cold_engine);
    // The same stream at DOP 4, recycled: the shared build crosses worker
    // pipelines, and every row must come out identical to the serial run.
    let par_engine = engine(true, 4);
    let parallel = run(&par_engine);

    assert_eq!(cold.rows, recycled.rows, "recycled results must be exact");
    assert_eq!(
        recycled.rows, parallel.rows,
        "DOP must not change a single byte of any result"
    );
    assert!(
        recycled.hash_build_hits > 0,
        "probe variants must hit the cached build"
    );
    assert!(
        recycled.result_hits > 0,
        "verbatim repeats must hit the result cache"
    );

    let speedup = cold.tail_ms / recycled.tail_ms.max(1e-9);
    println!(
        "{:>12} {:>12} {:>10} {:>12} {:>12}",
        "config", "warmup(ms)", "tail(ms)", "build hits", "result hits"
    );
    for (name, r) in [
        ("recycled", &recycled),
        ("cold", &cold),
        ("dop4", &parallel),
    ] {
        println!(
            "{:>12} {:>12.1} {:>10.1} {:>12} {:>12}",
            name, r.warmup_ms, r.tail_ms, r.hash_build_hits, r.result_hits
        );
    }
    println!("\nrecycled builds are {speedup:.1}x cold builds on the probe-dominated tail");
    assert!(
        speedup >= 2.0,
        "recycled builds must be >= 2x cold builds (got {speedup:.2}x)"
    );

    let out_path = std::env::var("RDB_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_hashcache.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        "{{\n\"bench\": \"hash_reuse\",\n\"build_rows\": {},\n\"probe_rows\": {},\n\
         \"variants\": {},\n\"repeats\": {},\n\"cold_tail_ms\": {:.1},\n\
         \"recycled_tail_ms\": {:.1},\n\"speedup\": {:.2},\n\
         \"hash_build_hits\": {},\n\"result_hits\": {}\n}}\n",
        BUILD_ROWS,
        PROBE_ROWS,
        VARIANTS,
        REPEATS,
        cold.tail_ms,
        recycled.tail_ms,
        speedup,
        recycled.hash_build_hits,
        recycled.result_hits,
    );
    std::fs::write(&out_path, json).expect("write BENCH_hashcache.json");
    println!("snapshot written to {out_path}");
}
