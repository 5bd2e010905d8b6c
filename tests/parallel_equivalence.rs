//! Parallel-equivalence property suite.
//!
//! Morsel-driven parallel execution claims to be *observationally
//! identical* to serial execution — not just row-set-equal but, for
//! every plan the builder parallelizes, byte-identical in row order
//! (deterministic gathers, key-sorted aggregate breakers, position
//! tie-broken top-N). This suite holds it to that claim:
//!
//! * TPC-H Q1/Q6/Q14 and the SkyServer cone template, at DOP ∈ {1, 2, 4,
//!   8} (plus `RDB_TEST_DOP` from the CI matrix), must produce rows
//!   **identical in order** to the DOP=1 run and row-set-identical to the
//!   operator-at-a-time materializing engine;
//! * seeded random plans (filters / projections / joins of every kind /
//!   aggregates / top-N / sort) over NULL-bearing random tables get the
//!   same checks, including selection-vector edge cases (all-true,
//!   all-false, sparse-compacted filters) and every source a pipeline
//!   chain can sit on: a scan, a table function, a union arm, and — with
//!   stages *above* a breaker — an aggregate / top-N / sort, the store tee
//!   the recycler wraps around it, and its cached result;
//! * the hash-aggregate breaker's output order is regression-pinned:
//!   sorted by group key, independent of DOP and of input arrival order.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler_db::engine::{Engine, MaterializingEngine};
use recycler_db::exec::{FnRegistry, TableFunction};
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{fn_scan, normalize, scan, union_all, JoinKind, Plan, SortKeyExpr};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{Batch, ColumnBuilder, DataType, Schema, Value};

/// This suite asserts exact DOPs up to 8 regardless of host width, so it
/// opts out of the engine's available-core clamp — the equivalence
/// contract is precisely that oversubscribed execution still produces
/// serial bytes. Engines read the variable when they are built, so each
/// test sets it before building any.
fn allow_oversubscribe() {
    std::env::set_var("RDB_ALLOW_OVERSUBSCRIBE", "1");
}

/// DOPs every check runs at; `RDB_TEST_DOP` (the CI matrix) adds one.
fn dop_matrix() -> Vec<usize> {
    let mut dops = vec![1, 2, 4, 8];
    if let Some(extra) = std::env::var("RDB_TEST_DOP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !dops.contains(&extra) {
            dops.push(extra);
        }
    }
    dops
}

/// A fresh engine at `dop` whose recycler caches every result it sees.
fn recycling_engine(
    cat: &Arc<Catalog>,
    functions: Option<&Arc<FnRegistry>>,
    dop: usize,
) -> Arc<Engine> {
    let mut config = RecyclerConfig::deterministic(256 << 20);
    config.spec_min_progress = 0.0;
    let mut builder = Engine::builder(cat.clone())
        .recycler(config)
        .parallelism(dop);
    if let Some(f) = functions {
        builder = builder.functions(f.clone());
    }
    builder.build()
}

/// Execute `plan` at `dop` on a fresh recycling engine; returns the
/// computed rows and the cache-replayed rows (order preserved).
fn run_at_dop(
    cat: &Arc<Catalog>,
    functions: Option<&Arc<FnRegistry>>,
    plan: &Plan,
    dop: usize,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let engine = recycling_engine(cat, functions, dop);
    let session = engine.session();
    let computed = session.query(plan).unwrap().into_outcome();
    assert_eq!(computed.dop, dop);
    let replayed = session.query(plan).unwrap().into_outcome();
    (computed.batch.to_rows(), replayed.batch.to_rows())
}

/// Whether any aggregation in `plan` still computes an `avg`.
fn holds_avg(plan: &Plan) -> bool {
    matches!(plan, Plan::Aggregate { aggs, .. } if aggs.iter().any(|a| matches!(a, AggFunc::Avg(_))))
        || plan.children().into_iter().any(holds_avg)
}

/// The full equivalence check for one plan: every DOP must reproduce the
/// serial row *order*, replay from cache identically, and agree with the
/// materializing oracle on the row set.
fn check_plan(cat: &Arc<Catalog>, functions: Option<&Arc<FnRegistry>>, plan: &Plan, label: &str) {
    let (serial, serial_replay) = run_at_dop(cat, functions, plan, 1);
    assert_eq!(
        serial, serial_replay,
        "{label}: serial replay diverges from serial compute"
    );
    let mut materializing = MaterializingEngine::naive(cat.clone());
    if let Some(f) = functions {
        materializing = materializing.with_functions(f.clone());
    }
    let oracle = materializing.run(plan).unwrap();
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort();
        rows
    };
    assert_eq!(
        sorted(serial.clone()),
        sorted(oracle.batch.to_rows()),
        "{label}: serial row set diverges from the materializing oracle"
    );
    for dop in dop_matrix() {
        if dop == 1 {
            continue;
        }
        let (parallel, replayed) = run_at_dop(cat, functions, plan, dop);
        assert_eq!(
            serial, parallel,
            "{label}: DOP={dop} rows (or their order) diverge from serial"
        );
        assert_eq!(
            parallel, replayed,
            "{label}: DOP={dop} cache replay diverges from its compute"
        );
    }
}

// ---- paper workloads -------------------------------------------------------

#[test]
fn tpch_q1_q6_q14_identical_at_every_dop() {
    allow_oversubscribe();
    use recycler_db::tpch::{build_query, generate, TpchConfig};
    let cat = generate(&TpchConfig {
        scale: 0.02,
        seed: 3,
    });
    for &q in &[1usize, 6, 14] {
        for seed in 0..2u64 {
            let mut rng = SmallRng::seed_from_u64(500 + seed);
            let plan = build_query(q, &mut rng, 0.02, false);
            check_plan(&cat, None, &plan, &format!("Q{q} seed {seed}"));
        }
    }
}

#[test]
fn skyserver_cones_identical_at_every_dop() {
    allow_oversubscribe();
    use recycler_db::skyserver::{functions, generate, nearby_query, SkyConfig};
    let cat = generate(&SkyConfig {
        objects: 8_000,
        seed: 9,
    });
    let fns = functions(&cat);
    for (i, (ra, dec, radius)) in [(150.0, -5.0, 2.0), (180.0, -1.0, 1.5), (150.0, -5.0, 4.0)]
        .into_iter()
        .enumerate()
    {
        let plan = nearby_query(
            ra,
            dec,
            radius,
            &["p_objid", "p_ra", "p_dec", "p_psfmag_r"],
            50,
        );
        check_plan(&cat, Some(&fns), &plan, &format!("cone {i}"));
    }
}

// ---- random plans over NULL-bearing data -----------------------------------

fn fact_schema() -> Schema {
    Schema::from_pairs([
        ("k", DataType::Int),
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("tag", DataType::Str),
    ])
}

/// A random table: int key (clustered), nullable int, nullable float,
/// low-cardinality string.
fn random_catalog(rng: &mut SmallRng, rows: usize) -> Arc<Catalog> {
    let mut tb = TableBuilder::new("t", fact_schema(), rows);
    for i in 0..rows {
        tb.push_row(vec![
            Value::Int(i as i64 % 97),
            if rng.gen_bool(0.15) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(-50..50))
            },
            if rng.gen_bool(0.15) {
                Value::Null
            } else {
                Value::Float(rng.gen_range(-8.0..8.0))
            },
            Value::str(["red", "green", "blue", "cyan"][rng.gen_range(0..4)]),
        ]);
    }
    // A small dimension table for joins (with a NULL key row).
    let dim_schema = Schema::from_pairs([("dk", DataType::Int), ("w", DataType::Float)]);
    let mut db = TableBuilder::new("dim", dim_schema, 40);
    for i in 0..40i64 {
        db.push_row(vec![
            if i == 13 {
                Value::Null
            } else {
                Value::Int(i * 3 % 97)
            },
            Value::Float(i as f64 * 0.5),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(tb.finish()).unwrap();
    cat.register(db.finish()).unwrap();
    Arc::new(cat)
}

/// `series(n)`: `n` deterministic NULL-bearing rows shaped like table
/// `t`, in batches of 700 — a table function for chains to sit on.
struct Series;

impl TableFunction for Series {
    fn schema(&self, _args: &[Value]) -> Schema {
        fact_schema()
    }

    fn execute(&self, args: &[Value], work: &mut u64) -> Vec<Batch> {
        let Value::Int(n) = args[0] else {
            panic!("series(n) takes an int")
        };
        *work += n as u64;
        let rows: Vec<i64> = (0..n).collect();
        rows.chunks(700)
            .map(|chunk| {
                let types = [DataType::Int, DataType::Int, DataType::Float, DataType::Str];
                let mut cols = types.map(|t| ColumnBuilder::new(t, chunk.len()));
                for &i in chunk {
                    cols[0].push(Value::Int(i % 97));
                    cols[1].push(if i % 6 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i * 7 % 101 - 50)
                    });
                    cols[2].push(if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Float((i * 13 % 160) as f64 / 10.0 - 8.0)
                    });
                    cols[3].push(Value::str(
                        ["red", "green", "blue", "cyan"][(i % 4) as usize],
                    ));
                }
                Batch::new(cols.into_iter().map(|c| c.finish()).collect())
            })
            .collect()
    }
}

fn series_registry() -> Arc<FnRegistry> {
    let mut fns = FnRegistry::new();
    fns.register("series", Arc::new(Series));
    Arc::new(fns)
}

/// A filter from a menu covering all-true, all-false, sparse, NULLs.
fn random_filter(rng: &mut SmallRng) -> Expr {
    match rng.gen_range(0..6) {
        0 => Expr::name("a").gt(Expr::lit(rng.gen_range(-60i64..60))),
        1 => Expr::name("b").le(Expr::lit(rng.gen_range(-9.0f64..9.0))),
        2 => Expr::name("tag").eq(Expr::lit("green")),
        3 => Expr::name("k").lt(Expr::lit(rng.gen_range(0i64..97))),
        4 => Expr::name("a").ge(Expr::lit(100i64)), // all-false
        _ => Expr::name("k").ge(Expr::lit(0i64)),   // all-true
    }
}

fn random_join_kind(rng: &mut SmallRng) -> JoinKind {
    match rng.gen_range(0..4) {
        0 => JoinKind::Inner,
        1 => JoinKind::LeftOuter,
        2 => JoinKind::Semi,
        _ => JoinKind::Anti,
    }
}

fn dim() -> Plan {
    scan("dim", &["dk", "w"])
}

/// A random pipeline — the one generator of this repository's plan-shape
/// property tests. Source: a scan (the shape the builder parallelizes), a
/// table function, or a union of two filtered scan arms. Then 0–3
/// filters, a probe of any kind half the time, and a breaker or a
/// projection on top. Half the breaker-topped plans get more pipeline
/// stages *above* the breaker; for those the breaker-rooted prefix is
/// returned too, so a caller can cache it first and make the upper chain
/// read it back.
fn random_plan(rng: &mut SmallRng) -> (Plan, Option<Plan>) {
    let mut plan = match rng.gen_range(0..8) {
        0 => fn_scan(
            "series",
            vec![Value::Int(rng.gen_range(1..3_000))],
            fact_schema(),
        ),
        1 => union_all(
            (0..2)
                .map(|_| scan("t", &["k", "a", "b", "tag"]).select(random_filter(rng)))
                .collect(),
        ),
        _ => scan("t", &["k", "a", "b", "tag"]),
    };
    for _ in 0..rng.gen_range(0..=3) {
        plan = plan.select(random_filter(rng));
    }
    if rng.gen_bool(0.5) {
        let kind = random_join_kind(rng);
        plan = plan.join(dim(), kind, vec![Expr::name("k")], vec![Expr::name("dk")]);
    }
    let top = rng.gen_range(0..5);
    let plan = match top {
        // Exact accumulators only: the builder partitions this aggregate
        // across workers (arbitrary merge order, still bit-identical).
        0 => plan.aggregate(
            vec![(Expr::name("tag"), "tag")],
            vec![
                (AggFunc::Sum(Expr::name("a")), "sa"),
                (AggFunc::CountStar, "n"),
                (AggFunc::Min(Expr::name("b")), "mn"),
                (AggFunc::Max(Expr::name("b")), "mx"),
                (AggFunc::CountDistinct(Expr::name("k")), "dk"),
            ],
        ),
        // Inexact (float) accumulators: the builder must keep serial fold
        // order (gathered input) to stay bit-identical.
        4 => plan.aggregate(
            vec![(Expr::name("tag"), "tag")],
            vec![
                (AggFunc::Avg(Expr::name("b")), "avg"),
                (AggFunc::Sum(Expr::name("b")), "sb"),
                (AggFunc::CountStar, "n"),
            ],
        ),
        1 => plan.top_n(
            vec![
                SortKeyExpr::desc(Expr::name("a")),
                SortKeyExpr::asc(Expr::name("k")),
            ],
            rng.gen_range(1..40),
        ),
        2 => plan.sort(vec![
            SortKeyExpr::asc(Expr::name("tag")),
            SortKeyExpr::desc(Expr::name("b")),
        ]),
        // A projection extends the chain; nothing to put "above" it.
        _ => {
            return (
                plan.project(vec![
                    (Expr::name("k").add(Expr::name("a")), "ka"),
                    (Expr::name("b"), "b"),
                ]),
                None,
            )
        }
    };
    if rng.gen_bool(0.5) {
        return (plan, None);
    }
    // Stages above the breaker: a chain whose source is an operator.
    let prefix = plan.clone();
    let upper = if top == 0 || top == 4 {
        // Aggregate output: (tag, ..., n, ...).
        let filtered = plan.select(Expr::name("n").gt(Expr::lit(rng.gen_range(0i64..300))));
        if rng.gen_bool(0.5) {
            filtered.project(vec![
                (Expr::name("tag"), "tag"),
                (Expr::name("n").mul(Expr::lit(2)), "n2"),
            ])
        } else {
            let kind = random_join_kind(rng);
            filtered
                .project(vec![(Expr::name("tag"), "tag"), (Expr::name("n"), "n")])
                .join(dim(), kind, vec![Expr::name("n")], vec![Expr::name("dk")])
        }
    } else {
        // Top-N / sort output: the probe-side columns come first.
        let narrowed = plan
            .select(Expr::name("a").gt(Expr::lit(rng.gen_range(-60i64..60))))
            .project(vec![
                (Expr::name("k"), "k2"),
                (Expr::name("a").add(Expr::lit(1)), "a1"),
                (Expr::name("b"), "b"),
            ]);
        if rng.gen_bool(0.5) {
            narrowed
        } else {
            let kind = random_join_kind(rng);
            narrowed.join(dim(), kind, vec![Expr::name("k2")], vec![Expr::name("dk")])
        }
    };
    (upper, Some(prefix))
}

/// With `prefix` (a breaker-rooted subplan of `plan`) already cached, the
/// stages above it run as a chain over a cached read; at every DOP that
/// must reproduce the rows of computing `plan` from scratch.
fn check_over_cached_prefix(
    cat: &Arc<Catalog>,
    functions: &Arc<FnRegistry>,
    prefix: &Plan,
    plan: &Plan,
    label: &str,
) {
    let (from_scratch, _) = run_at_dop(cat, Some(functions), plan, 1);
    for dop in dop_matrix() {
        let engine = recycling_engine(cat, Some(functions), dop);
        let session = engine.session();
        session.query(prefix).unwrap().into_outcome();
        let over_cache = session.query(plan).unwrap().into_outcome();
        assert!(
            over_cache.reused(),
            "{label}: DOP={dop} did not read the cached prefix"
        );
        assert_eq!(
            from_scratch,
            over_cache.batch.to_rows(),
            "{label}: DOP={dop} rows over the cached prefix diverge"
        );
    }
}

#[test]
fn random_plans_identical_at_every_dop() {
    allow_oversubscribe();
    let fns = series_registry();
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(7_000 + seed);
        let rows = rng.gen_range(1..9_000);
        let cat = random_catalog(&mut rng, rows);
        let (plan, prefix) = random_plan(&mut rng);
        let label = format!("random plan seed {seed} ({rows} rows)");
        let normalized = normalize(&plan.bind(&cat).unwrap(), &cat);
        assert!(!holds_avg(&normalized), "{label}: avg survives normalize");
        check_plan(&cat, Some(&fns), &plan, &label);
        if let Some(prefix) = prefix {
            check_over_cached_prefix(&cat, &fns, &prefix, &plan, &label);
        }
    }
}

// ---- deterministic aggregate order (regression) ----------------------------

#[test]
fn hash_agg_output_is_sorted_by_group_key_at_every_dop() {
    allow_oversubscribe();
    // Keys are inserted in descending scan order; the breaker must emit
    // ascending regardless of DOP or worker merge order. This pins the
    // determinism contract stable cache replay (and fig6/fig7 run-to-run
    // comparability) depends on.
    let schema = Schema::from_pairs([("g", DataType::Int), ("v", DataType::Int)]);
    let rows = 6_000;
    let mut tb = TableBuilder::new("t", schema, rows);
    for i in 0..rows as i64 {
        tb.push_row(vec![Value::Int(500 - (i % 500)), Value::Int(i)]);
    }
    let mut cat = Catalog::new();
    cat.register(tb.finish()).unwrap();
    let cat = Arc::new(cat);
    let plan = scan("t", &["g", "v"]).aggregate(
        vec![(Expr::name("g"), "g")],
        vec![(AggFunc::Sum(Expr::name("v")), "sv")],
    );
    for dop in dop_matrix() {
        let engine = Engine::builder(cat.clone())
            .no_recycler()
            .parallelism(dop)
            .build();
        let out = engine.session().query(&plan).unwrap().into_outcome();
        let keys: Vec<i64> = out.batch.column(0).as_ints().to_vec();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(
            keys, sorted,
            "DOP={dop}: aggregate emission must be ascending by group key"
        );
        assert_eq!(keys.len(), 500);
        // Twice in a row: identical bytes (not just identical sets).
        let again = engine.session().query(&plan).unwrap().into_outcome();
        assert_eq!(out.batch.to_rows(), again.batch.to_rows(), "DOP={dop}");
    }
}

#[test]
fn session_override_beats_engine_default_and_is_recorded() {
    allow_oversubscribe();
    let mut rng = SmallRng::seed_from_u64(42);
    let cat = random_catalog(&mut rng, 5_000);
    let engine = Engine::builder(cat).no_recycler().parallelism(2).build();
    let session = engine.session();
    assert_eq!(session.parallelism(), 2);
    let plan = scan("t", &["k", "a"]).select(Expr::name("k").lt(Expr::lit(50)));
    let h = session.query(&plan).unwrap();
    assert_eq!(h.dop(), 2);
    drop(h);
    session.set_parallelism(8);
    assert_eq!(session.parallelism(), 8);
    let out = session.query(&plan).unwrap().into_outcome();
    assert_eq!(out.dop, 8);
    session.clear_parallelism();
    assert_eq!(session.parallelism(), 2);
    assert_eq!(session.stats().parallel, 2, "both executions ran DOP > 1");
}
