//! Microbench for `rdb_delta`: what does repairing a cached result cost
//! versus recomputing it, and how does the hit rate degrade as the write
//! mix grows?
//!
//! Part 1 — repair vs recompute latency, as the write→read round trip.
//! A pure-SUM aggregate (TPC-H Q6) over lineitem is cached, then hit
//! with small appends: the commit patches the cached entries in place and
//! the follow-up query is a cache hit. The same round trip on an engine
//! without a recycler recomputes from scratch. Repair work is
//! proportional to the delta, recompute to the table — the gap is the
//! point of the subsystem.
//!
//! Part 2 — hit-rate curve. The `update_mix` workload is swept across
//! write fractions 0%–30%; repair holds the curve near the read-only
//! ceiling.
//!
//! Emits `BENCH_repair.json` at the workspace root (override with
//! `RDB_BENCH_OUT`).

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdb_engine::Engine;
use rdb_recycler::RecyclerConfig;
use rdb_tpch::{generate, templates, TpchConfig};
use rdb_vector::Value;

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

fn engine(recycling: bool) -> std::sync::Arc<Engine> {
    let cat = generate(&TpchConfig {
        scale: 0.01,
        seed: 77,
    });
    if !recycling {
        return Engine::builder(cat).no_recycler().build();
    }
    let mut c = RecyclerConfig::deterministic(256 << 20);
    c.spec_min_progress = 0.0;
    Engine::builder(cat).recycler(c).build()
}

/// Median of per-iteration latencies, in microseconds.
fn median_us(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

struct Latency {
    commit_us: f64,
    after_write_us: f64,
    repaired: u64,
}

/// Part 1: the write→read round trip with and without a recycler. An
/// append commits against a warm Q6 (a pure-SUM aggregate — the
/// repairable class; Q1 carries AVGs, which are float-order-sensitive and
/// deliberately evict-only). With the recycler the commit patches the
/// cached entries in place and the follow-up query is a cache hit;
/// without one the follow-up query recomputes the aggregate from scratch.
fn latency(recycling: bool) -> Latency {
    const APPENDS: usize = 40;
    let engine = engine(recycling);
    let session = engine.session();
    let mut rng = SmallRng::seed_from_u64(31);
    let q6 = templates::q6_template()
        .substitute_params(&templates::q6_params(&mut rng))
        .expect("substitute");
    // Warm the cache: the aggregate (and its pipeline prefixes) land in
    // the recycler store.
    session.query(&q6).expect("warm").into_outcome();

    let mut commit_us = Vec::with_capacity(APPENDS);
    let mut after_us = Vec::with_capacity(APPENDS);
    for i in 0..APPENDS {
        let rows: Vec<Vec<Value>> = (0..4)
            .map(|_| lineitem_row(&mut rng, 6_000_000 + i as i64))
            .collect();
        let t0 = Instant::now();
        let out = session.append("lineitem", &rows).expect("append");
        commit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = Instant::now();
        let hit = session.query(&q6).expect("after-write").into_outcome();
        after_us.push(t1.elapsed().as_secs_f64() * 1e6);
        if recycling {
            assert!(
                out.repair.repaired >= 1,
                "append {i} must repair the cached Q6"
            );
            assert!(hit.reused(), "the repaired entry keeps serving");
        }
    }
    let repaired = engine
        .recycler()
        .map(|r| r.stats.repaired.load(std::sync::atomic::Ordering::Relaxed))
        .unwrap_or(0);
    Latency {
        commit_us: median_us(commit_us),
        after_write_us: median_us(after_us),
        repaired,
    }
}

/// Part 2: hit rate as a function of write fraction.
fn hit_rate(write_every: Option<usize>) -> f64 {
    const OPS: usize = 240;
    let engine = engine(true);
    let session = engine.session();
    let mut rng = SmallRng::seed_from_u64(99);
    let pool: Vec<_> = {
        let mut prng = SmallRng::seed_from_u64(4242);
        (0..2)
            .flat_map(|_| {
                vec![
                    (templates::q1_template(), templates::q1_params(&mut prng)),
                    (templates::q6_template(), templates::q6_params(&mut prng)),
                    (templates::q14_template(), templates::q14_params(&mut prng)),
                ]
            })
            .map(|(t, p)| t.substitute_params(&p).expect("substitute"))
            .collect()
    };
    let mut queries = 0usize;
    let mut reuses = 0usize;
    for i in 0..OPS {
        if let Some(every) = write_every {
            if i % every == every - 1 {
                let rows: Vec<Vec<Value>> = (0..2)
                    .map(|_| lineitem_row(&mut rng, 7_000_000 + i as i64))
                    .collect();
                session.append("lineitem", &rows).expect("append");
                continue;
            }
        }
        let plan = &pool[rng.gen_range(0..pool.len())];
        if session.query(plan).expect("query").into_outcome().reused() {
            reuses += 1;
        }
        queries += 1;
    }
    reuses as f64 / queries as f64
}

fn main() {
    rdb_bench::banner("delta_repair — repair cost and hit-rate curve");

    let rep = latency(true);
    let cold = latency(false);
    let speedup = cold.after_write_us / rep.after_write_us;
    println!(
        "write→read round trip (median): repair {:.0} us commit + {:.0} us \
         hit  vs  no recycler {:.0} us commit + {:.0} us recompute \
         ({} entries repaired; {speedup:.1}x faster after-write read)",
        rep.commit_us, rep.after_write_us, cold.commit_us, cold.after_write_us, rep.repaired
    );
    assert!(rep.repaired >= 40, "every append must repair the cached Q6");
    assert!(speedup > 1.0, "the post-write hit must beat a recompute");

    // Write fractions 0%..30%: `write_every = ceil(1/f)`.
    let mixes: [(f64, Option<usize>); 5] = [
        (0.0, None),
        (0.05, Some(20)),
        (0.10, Some(10)),
        (0.20, Some(5)),
        (0.30, Some(3)),
    ];
    println!("\n{:>10} {:>14}", "write mix", "repair hit%");
    let mut curve = String::new();
    for (frac, every) in mixes {
        let with_repair = hit_rate(every);
        println!("{:>9.0}% {:>13.1}%", frac * 100.0, with_repair * 100.0);
        if !curve.is_empty() {
            curve.push_str(",\n");
        }
        curve.push_str(&format!(
            "  {{\"write_mix\": {frac:.2}, \"repair_hit_rate\": {with_repair:.4}}}"
        ));
    }

    let out_path = std::env::var("RDB_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_repair.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        "{{\n\"bench\": \"delta_repair\",\n\
         \"repair_commit_us_median\": {:.1},\n\
         \"hit_after_repair_us_median\": {:.1},\n\
         \"no_recycler_commit_us_median\": {:.1},\n\
         \"recompute_after_write_us_median\": {:.1},\n\
         \"after_write_speedup\": {speedup:.2},\n\
         \"entries_repaired\": {},\n\
         \"hit_rate_curve\": [\n{curve}\n]\n}}\n",
        rep.commit_us, rep.after_write_us, cold.commit_us, cold.after_write_us, rep.repaired
    );
    std::fs::write(&out_path, json).expect("write BENCH_repair.json");
    println!("\nsnapshot written to {out_path}");
}
