//! Fig-style experiment: recycler benefit under an update-mixed workload.
//!
//! The paper's experiments are read-only; this bench measures what
//! update-aware caching preserves. A stream of TPC-H Q1/Q6/Q14 executions
//! (drawn from a small parameter pool, so repeats occur) is interleaved
//! with DML: every `1/WRITE_FRACTION`-th operation appends a few lineitem
//! rows, bumping the epoch. Three configurations:
//!
//! * `repair` — recycling on, deltas repair cached entries in place (the
//!   measured system, `rdb_delta`);
//! * `naive` — recycling off, same mix (the floor);
//! * `read_only` — recycling on, no writes (the ceiling).
//!
//! With repair, appends patch the cached selections and aggregates under
//! the new epoch vector instead of evicting them, so the hit rate stays
//! near the read-only ceiling. A verification pass replays the measured
//! stream comparing every answer against a materializing run over the
//! snapshot it read — zero tolerance for stale reads.
//!
//! Emits `BENCH_update.json` at the workspace root (override with
//! `RDB_BENCH_OUT`).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdb_engine::{Engine, MaterializingEngine};
use rdb_expr::Params;
use rdb_plan::Plan;
use rdb_recycler::RecyclerConfig;
use rdb_tpch::{generate, templates, TpchConfig};
use rdb_vector::{Batch, Value};

const QUERIES: usize = 240;
const WRITE_EVERY: usize = 10; // 10% write mix
const PARAM_POOL: usize = 2; // per template → repeats within the stream

fn lineitem_row(rng: &mut SmallRng, orderkey: i64) -> Vec<Value> {
    vec![
        Value::Int(orderkey),
        Value::Int(rng.gen_range(1..200)),
        Value::Int(1),
        Value::Int(1),
        Value::Float(rng.gen_range(1..50) as f64),
        Value::Float(rng.gen_range(900.0..5000.0)),
        Value::Float(rng.gen_range(0..10) as f64 / 100.0),
        Value::Float(0.04),
        Value::str("N"),
        Value::str("O"),
        Value::Date(rng.gen_range(8700..10000)),
        Value::Date(9500),
        Value::Date(9510),
        Value::str("NONE"),
        Value::str("RAIL"),
    ]
}

/// The query pool: Q1/Q6/Q14 from a pooled parameter domain (all read
/// lineitem, so lineitem appends hit them), plus part- and orders-side
/// aggregates that a lineitem write must leave hot — the mix that makes
/// write handling visible in the hit rate.
fn plan_pool() -> Vec<Plan> {
    use rdb_expr::{AggFunc, Expr};
    use rdb_plan::scan;
    let mut rng = SmallRng::seed_from_u64(4242);
    let mut pool = Vec::new();
    for _ in 0..PARAM_POOL {
        let p: Vec<(Plan, Params)> = vec![
            (templates::q1_template(), templates::q1_params(&mut rng)),
            (templates::q6_template(), templates::q6_params(&mut rng)),
            (templates::q14_template(), templates::q14_params(&mut rng)),
        ];
        for (t, params) in p {
            pool.push(t.substitute_params(&params).expect("substitute"));
        }
    }
    // Cross-table pool members (untouched by lineitem DML).
    for size in [15i64, 30] {
        pool.push(
            scan("part", &["p_size", "p_retailprice"])
                .select(Expr::name("p_size").lt(Expr::lit(size)))
                .aggregate(
                    vec![(Expr::name("p_size"), "p_size")],
                    vec![(AggFunc::Avg(Expr::name("p_retailprice")), "avg_price")],
                ),
        );
        pool.push(
            scan("orders", &["o_orderpriority", "o_totalprice"])
                .select(Expr::name("o_totalprice").gt(Expr::lit(size as f64 * 2_000.0)))
                .aggregate(
                    vec![(Expr::name("o_orderpriority"), "o_orderpriority")],
                    vec![(AggFunc::Sum(Expr::name("o_totalprice")), "total")],
                ),
        );
    }
    pool
}

struct RunResult {
    total_ms: f64,
    reuses: u64,
    repaired: u64,
    invalidations: u64,
    stale_rejections: u64,
    writes: usize,
}

fn sorted_rows(b: &Batch) -> Vec<Vec<Value>> {
    let mut rows = b.to_rows();
    rows.sort();
    rows
}

fn run(with_recycler: bool, with_writes: bool, verify: bool) -> RunResult {
    let cat = generate(&TpchConfig {
        scale: 0.01,
        seed: 77,
    });
    let mut builder = Engine::builder(cat);
    builder = if with_recycler {
        let mut c = RecyclerConfig::deterministic(256 << 20);
        c.spec_min_progress = 0.0;
        builder.recycler(c)
    } else {
        builder.no_recycler()
    };
    let engine = builder.build();
    let session = engine.session();
    let pool = plan_pool();
    let mut rng = SmallRng::seed_from_u64(99);
    let mut writes = 0usize;
    let mut reuses = 0u64;
    let mut stale_reads = 0usize;
    let t0 = Instant::now();
    let mut engine_ms = 0.0f64;
    for i in 0..QUERIES {
        if with_writes && i % WRITE_EVERY == WRITE_EVERY - 1 {
            // Alternate the updated table: lineitem bumps hit Q1/Q6/Q14,
            // orders bumps hit only the orders aggregates — the untouched
            // side of the pool must keep its cache either way.
            let w0 = Instant::now();
            if (i / WRITE_EVERY).is_multiple_of(2) {
                let rows: Vec<Vec<Value>> = (0..2)
                    .map(|_| lineitem_row(&mut rng, 5_000_000 + i as i64))
                    .collect();
                session.append("lineitem", &rows).expect("append lineitem");
            } else {
                session
                    .append(
                        "orders",
                        &[vec![
                            Value::Int(5_000_000 + i as i64),
                            Value::Int(1),
                            Value::str("O"),
                            Value::Float(rng.gen_range(1_000.0..200_000.0)),
                            Value::Date(9500),
                            Value::str("1-URGENT"),
                            Value::Int(0),
                            Value::str("bench append"),
                        ]],
                    )
                    .expect("append orders");
            }
            engine_ms += w0.elapsed().as_secs_f64() * 1e3;
            writes += 1;
            continue;
        }
        let plan = &pool[rng.gen_range(0..pool.len())];
        let q0 = Instant::now();
        let handle = session.query(plan).expect("query");
        let snapshot = verify.then(|| handle.snapshot().clone());
        let out = handle.into_outcome();
        engine_ms += q0.elapsed().as_secs_f64() * 1e3;
        if out.reused() {
            reuses += 1;
        }
        if let Some(snapshot) = snapshot {
            // Zero-stale-read check: every answer — repaired, reused, or
            // computed — must match a materializing run over the snapshot
            // the query read. Oracle time is excluded from `engine_ms`.
            let oracle = MaterializingEngine::naive(Arc::new(snapshot.to_catalog()))
                .run(plan)
                .expect("oracle");
            if sorted_rows(&out.batch) != sorted_rows(&oracle.batch) {
                stale_reads += 1;
            }
        }
    }
    let total_ms = if verify {
        engine_ms
    } else {
        t0.elapsed().as_secs_f64() * 1e3
    };
    assert_eq!(stale_reads, 0, "stale reads under the write mix");
    let (repaired, invalidations, stale_rejections) = match engine.recycler() {
        Some(r) => {
            let load =
                |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
            (
                load(&r.stats.repaired),
                load(&r.stats.invalidations),
                load(&r.stats.stale_rejections),
            )
        }
        None => (0, 0, 0),
    };
    RunResult {
        total_ms,
        reuses,
        repaired,
        invalidations,
        stale_rejections,
        writes,
    }
}

fn main() {
    rdb_bench::banner("update_mix — repair under a 10% write mix");
    // The measured run is also the verified run: every answer is compared
    // against a materializing oracle over its snapshot (oracle time is
    // kept out of the reported engine time).
    let repair = run(true, true, true);
    let naive = run(false, true, false);
    let read_only = run(true, false, false);

    let queries_mixed = QUERIES - repair.writes;
    let hit = |r: &RunResult, q: usize| r.reuses as f64 / q as f64;
    let hit_rate = hit(&repair, queries_mixed);
    let hit_rate_ro = hit(&read_only, QUERIES);
    println!(
        "{:>16} {:>12} {:>10} {:>8} {:>10} {:>8}",
        "config", "total (ms)", "queries", "reuses", "repaired", "inval"
    );
    for (name, r, q) in [
        ("repair", &repair, queries_mixed),
        ("naive", &naive, queries_mixed),
        ("read_only", &read_only, QUERIES),
    ] {
        println!(
            "{:>16} {:>12.1} {:>10} {:>8} {:>10} {:>8}",
            name, r.total_ms, q, r.reuses, r.repaired, r.invalidations
        );
    }
    println!(
        "\nhit-rate under 10% writes: repair {:.1}% \
         (read-only ceiling {:.1}%), {} entries repaired, 0 stale reads, \
         {} stale publishes rejected",
        hit_rate * 100.0,
        hit_rate_ro * 100.0,
        repair.repaired,
        repair.stale_rejections
    );
    assert!(
        repair.repaired > 0,
        "appends must repair cached entries in place"
    );
    assert!(
        hit_rate >= 0.85,
        "repair must hold the 10%-write hit rate at >= 85%, got {:.1}%",
        hit_rate * 100.0
    );

    let out_path = std::env::var("RDB_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_update.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        "{{\n\"bench\": \"update_mix\",\n\"queries\": {},\n\"write_every\": {},\n\
         \"writes\": {},\n\"repair_ms\": {:.1},\n\"naive_ms\": {:.1},\n\
         \"read_only_ms\": {:.1},\n\"reuses\": {},\n\"repaired\": {},\n\
         \"read_only_reuses\": {},\n\"hit_rate\": {:.4},\n\
         \"read_only_hit_rate\": {:.4},\n\"invalidations\": {},\n\
         \"stale_rejections\": {},\n\"stale_reads\": 0\n}}\n",
        queries_mixed,
        WRITE_EVERY,
        repair.writes,
        repair.total_ms,
        naive.total_ms,
        read_only.total_ms,
        repair.reuses,
        repair.repaired,
        read_only.reuses,
        hit_rate,
        hit_rate_ro,
        repair.invalidations,
        repair.stale_rejections
    );
    std::fs::write(&out_path, json).expect("write BENCH_update.json");
    println!("snapshot written to {out_path}");
}
