//! Micro-benchmark: cache-hit replay cost as a function of result size.
//!
//! The recycler's value proposition is that a cache hit costs (almost)
//! nothing. This bench populates the recycler with a cached result of N
//! rows, then measures the cost of replaying it through a prepared
//! statement — a zero-stage chain over a morsel dispenser reading the
//! cached result's chunks → `QueryHandle`, the path a SkyServer hot
//! template takes on every repeat execution. With zero-copy batches the replay cost should be
//! near-independent of N; with deep-copied batches it grows linearly (a
//! memcpy tax proportional to the result).
//!
//! Emits a machine-readable snapshot to `BENCH_replay.json` at the
//! workspace root (override the path with `RDB_BENCH_OUT`) so CI and the
//! perf trajectory in CHANGES.md have a stable artifact to diff.

use std::time::Instant;

use rdb_bench::banner;
use rdb_engine::Engine;
use rdb_expr::{Expr, Params};
use rdb_plan::scan;
use rdb_recycler::RecyclerConfig;
use rdb_storage::{Catalog, TableBuilder};
use rdb_vector::{DataType, Schema, Value};
use std::sync::Arc;

const SAMPLES: usize = 30;

fn catalog(rows: usize) -> Arc<Catalog> {
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("tag", DataType::Str),
    ]);
    let mut b = TableBuilder::new("t", schema, rows);
    for i in 0..rows as i64 {
        b.push_row(vec![
            Value::Int(i),
            Value::Float(i as f64 * 0.5),
            Value::str(if i % 2 == 0 { "even" } else { "odd" }),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish()).expect("register table");
    Arc::new(cat)
}

struct Measurement {
    rows: usize,
    miss_ns: u64,
    replay_ns: u64,
    ns_per_row: f64,
}

fn measure(rows: usize) -> Measurement {
    let mut config = RecyclerConfig::deterministic(256 << 20);
    config.spec_min_progress = 0.0;
    let engine = Engine::builder(catalog(rows)).recycler(config).build();
    let session = engine.session();
    // Selects every row: the cached result is the full N-row table slice.
    let plan = scan("t", &["k", "v", "tag"]).select(Expr::name("k").ge(Expr::lit(0)));
    let prepared = session.prepare(&plan).expect("prepare");
    let params = Params::none();

    // First execution computes and materializes into the recycler cache.
    let t0 = Instant::now();
    let first = prepared.execute(&params).expect("first run").into_outcome();
    let miss_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(first.batch.rows(), rows);
    assert!(!first.reused(), "first run must compute");

    // Steady state: every execution replays the cached result. Drain the
    // handle batch-at-a-time (no concatenation) — the pipelined consumption
    // pattern — and take the median over SAMPLES runs.
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let mut handle = prepared.execute(&params).expect("replay");
        let mut seen = 0usize;
        for b in &mut handle {
            seen += b.rows();
        }
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(seen, rows);
        assert!(handle.reused(), "steady state must hit the cache");
        samples.push(ns);
    }
    samples.sort_unstable();
    let replay_ns = samples[samples.len() / 2];
    Measurement {
        rows,
        miss_ns,
        replay_ns,
        ns_per_row: replay_ns as f64 / rows as f64,
    }
}

fn main() {
    banner("micro_replay: cache-hit replay cost vs result size");
    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "rows", "miss (us)", "replay (us)", "ns/row"
    );
    let mut results = Vec::new();
    for &rows in &[10_000usize, 100_000, 400_000] {
        let m = measure(rows);
        println!(
            "{:>10} {:>14.1} {:>14.1} {:>12.2}",
            m.rows,
            m.miss_ns as f64 / 1e3,
            m.replay_ns as f64 / 1e3,
            m.ns_per_row
        );
        results.push(m);
    }

    // JSON snapshot for CI and the perf trajectory.
    let out_path = std::env::var("RDB_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_replay.json", env!("CARGO_MANIFEST_DIR")));
    let entries: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "  {{ \"rows\": {}, \"miss_ns\": {}, \"replay_ns\": {}, \"ns_per_row\": {:.3} }}",
                m.rows, m.miss_ns, m.replay_ns, m.ns_per_row
            )
        })
        .collect();
    let json = format!(
        "{{\n\"bench\": \"micro_replay\",\n\"samples\": {},\n\"results\": [\n{}\n]\n}}\n",
        SAMPLES,
        entries.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write BENCH_replay.json");
    println!("\nsnapshot written to {out_path}");
}
