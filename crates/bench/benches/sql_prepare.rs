//! SQL frontend microbench: parse + bind + normalize + fingerprint
//! latency for TPC-H Q1 text, and the recycler hit-rate over
//! textually-shuffled predicate variants of Q6 — the quantity the
//! normalization pass exists to maximize. Without normalization every
//! conjunct order / flipped comparison is a distinct fingerprint (no
//! sharing); with it they all converge.
//!
//! `prepare_sql` goes through the engine's compiled-statement cache, so
//! the full-prepare line times a text the cache has never seen (Q1 plus a
//! trailing `-- sample N` comment, which the lexer skips), and a separate
//! line times a repeated text, which the cache answers.
//!
//! Emits `BENCH_sql.json` at the workspace root (`RDB_BENCH_OUT`
//! overrides).

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdb_bench::banner;
use rdb_engine::Engine;
use rdb_expr::Params;
use rdb_plan::structural_hash;
use rdb_sql::{compile, parse, BoundStatement};
use rdb_tpch::sql::Q1_SQL;
use rdb_tpch::{generate, TpchConfig};

const SAMPLES: usize = 200;
const VARIANTS: usize = 48;

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// The five Q6 conjuncts with interchangeable textual forms: [canonical,
/// flipped].
const Q6_CONJUNCTS: [[&str; 2]; 5] = [
    ["l_shipdate >= $date_lo", "$date_lo <= l_shipdate"],
    ["l_shipdate < $date_hi", "$date_hi > l_shipdate"],
    ["l_discount >= $disc_lo", "$disc_lo <= l_discount"],
    ["l_discount <= $disc_hi", "$disc_hi >= l_discount"],
    ["l_quantity < $qty", "$qty > l_quantity"],
];

/// A textually-shuffled Q6: conjuncts permuted, comparisons randomly
/// flipped.
fn shuffled_q6(rng: &mut SmallRng) -> String {
    let mut order: Vec<usize> = (0..Q6_CONJUNCTS.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let conjuncts: Vec<&str> = order
        .iter()
        .map(|&i| Q6_CONJUNCTS[i][rng.gen_range(0..2)])
        .collect();
    format!(
        "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE {}",
        conjuncts.join(" AND ")
    )
}

fn main() {
    banner("sql_prepare: frontend latency + variant convergence");
    let catalog = generate(&TpchConfig {
        scale: rdb_bench::scale_factor(),
        seed: 42,
    });
    let engine = Engine::builder(catalog.clone()).build();
    let session = engine.session();

    // ---- Q1 frontend latency, split by phase -------------------------
    let mut parse_ns = Vec::with_capacity(SAMPLES);
    let mut compile_ns = Vec::with_capacity(SAMPLES);
    let mut prepare_ns = Vec::with_capacity(SAMPLES);
    let mut cached_ns = Vec::with_capacity(SAMPLES);
    // A text is admitted on its second sighting: after these two, every
    // prepare of `Q1_SQL` is a cache hit.
    for _ in 0..2 {
        session.prepare_sql(Q1_SQL).expect("prepare q1");
    }
    for sample in 0..SAMPLES {
        let t = Instant::now();
        let ast = parse(Q1_SQL).expect("parse q1");
        parse_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(ast);

        let t = Instant::now();
        let bound = compile(Q1_SQL, catalog.as_ref()).expect("bind q1");
        compile_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(bound);

        // A text never seen before: the full compile.
        let fresh = format!("{Q1_SQL}\n-- sample {sample}");
        let t = Instant::now();
        let prepared = session.prepare_sql(&fresh).expect("prepare q1");
        prepare_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(prepared.fingerprint());

        let t = Instant::now();
        let prepared = session.prepare_sql(Q1_SQL).expect("prepare q1");
        cached_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(prepared.fingerprint());
    }
    let (parse_ns, compile_ns, prepare_ns, cached_ns) = (
        median(parse_ns),
        median(compile_ns),
        median(prepare_ns),
        median(cached_ns),
    );
    println!("Q1 frontend latency (median of {SAMPLES}):");
    println!("  parse                {:>9.1} us", parse_ns as f64 / 1e3);
    println!("  parse+bind           {:>9.1} us", compile_ns as f64 / 1e3);
    println!("  full prepare_sql     {:>9.1} us", prepare_ns as f64 / 1e3);
    println!("  cached prepare_sql   {:>9.1} us", cached_ns as f64 / 1e3);

    // ---- Q6 variant convergence --------------------------------------
    // Raw (pre-normalization) fingerprints: the binder output hashed
    // as-is. Normalized fingerprints: what prepare_sql actually uses.
    let mut rng = SmallRng::seed_from_u64(0x6_5EED);
    let variants: Vec<String> = (0..VARIANTS).map(|_| shuffled_q6(&mut rng)).collect();
    let mut raw_fps = Vec::new();
    let mut norm_fps = Vec::new();
    for v in &variants {
        let BoundStatement::Query(plan) = compile(v, catalog.as_ref()).expect("bind variant")
        else {
            unreachable!("variants are queries")
        };
        raw_fps.push(structural_hash(&plan));
        norm_fps.push(
            session
                .prepare_sql(v)
                .expect("prepare variant")
                .fingerprint(),
        );
    }
    let distinct = |fps: &[u64]| {
        let mut s = fps.to_vec();
        s.sort_unstable();
        s.dedup();
        s.len()
    };
    let (raw_distinct, norm_distinct) = (distinct(&raw_fps), distinct(&norm_fps));

    // Execute every variant with identical parameters: after the first
    // miss, every execution should be a cache hit.
    let params = Params::new()
        .set("date_lo", rdb_vector_date(8766))
        .set("date_hi", rdb_vector_date(9131))
        .set("disc_lo", 0.05)
        .set("disc_hi", 0.07)
        .set("qty", 24.0);
    let mut hits = 0usize;
    for v in &variants {
        let out = session
            .prepare_sql(v)
            .expect("prepare")
            .execute(&params)
            .expect("execute")
            .into_outcome();
        if out.reused() {
            hits += 1;
        }
    }
    let hit_rate = hits as f64 / variants.len() as f64;
    println!("Q6 textual variants ({VARIANTS} shuffles, same parameters):");
    println!("  distinct fingerprints pre-normalization   {raw_distinct:>4}");
    println!("  distinct fingerprints post-normalization  {norm_distinct:>4}");
    println!(
        "  recycler hit rate                         {:>5.1}%  ({hits}/{VARIANTS})",
        hit_rate * 100.0
    );
    assert_eq!(norm_distinct, 1, "normalization must converge all variants");
    assert_eq!(hits, VARIANTS - 1, "all but the first execution must hit");

    // ---- JSON snapshot ------------------------------------------------
    let out_path = std::env::var("RDB_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_sql.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        "{{\n  \"bench\": \"sql_prepare\",\n  \"q1_parse_ns\": {parse_ns},\n  \
         \"q1_parse_bind_ns\": {compile_ns},\n  \"q1_prepare_sql_ns\": {prepare_ns},\n  \
         \"q1_prepare_sql_cached_ns\": {cached_ns},\n  \
         \"q6_variants\": {VARIANTS},\n  \"q6_distinct_fp_raw\": {raw_distinct},\n  \
         \"q6_distinct_fp_normalized\": {norm_distinct},\n  \"q6_hit_rate\": {hit_rate:.4}\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write BENCH_sql.json");
    println!("snapshot -> {out_path}");
}

/// `Value::Date` helper (keeps the bench free of a direct rdb_vector
/// import list).
fn rdb_vector_date(days: i32) -> rdb_vector::Value {
    rdb_vector::Value::Date(days)
}
