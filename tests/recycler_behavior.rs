//! Behavioural scenario tests for the recycler: workload adaptation,
//! starvation resistance, store-decision discipline, and event reporting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use recycler_db::engine::{Engine, QueryOutcome};
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{scan, Plan, SortKeyExpr};
use recycler_db::recycler::{CostModel, RecyclerConfig, RecyclerEvent};
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{DataType, Schema, Value};

fn catalog(rows: i64) -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
    let mut b = TableBuilder::new("facts", schema, rows as usize);
    for i in 0..rows {
        b.push_row(vec![Value::Int(i % 64), Value::Float((i % 171) as f64)]);
    }
    cat.register(b.finish()).expect("register table");
    Arc::new(cat)
}

fn engine(cat: Arc<Catalog>, cache: u64, alpha: f64) -> Arc<Engine> {
    let mut c = RecyclerConfig::deterministic(cache);
    c.spec_min_progress = 0.0;
    c.aging_alpha = alpha;
    // The displacement scenarios below run with caches of a few dozen
    // bytes; a single result may occupy all of it.
    c.max_result_fraction = 1.0;
    Engine::builder(cat).recycler(c).build()
}

/// Execute a plan to completion through the session API.
fn run(engine: &Arc<Engine>, plan: &Plan) -> QueryOutcome {
    engine
        .session()
        .query(plan)
        .expect("query runs")
        .into_outcome()
}

/// Size of `q`'s cached root result, measured with an effectively unbounded
/// cache.
fn result_size(cat: &Arc<Catalog>, q: &Plan) -> u64 {
    let e = engine(cat.clone(), 1 << 24, 1.0);
    run(&e, q);
    e.recycler().unwrap().cache_used()
}

fn q(limit: i64) -> Plan {
    scan("facts", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(limit)))
        .aggregate(
            vec![(Expr::name("k"), "k")],
            vec![(AggFunc::Sum(Expr::name("v")), "sv")],
        )
}

/// Aging lets the recycler adapt to a workload shift (paper Eq. 5): after
/// phase A's pattern stops appearing, phase B's pattern must be able to
/// displace it even though A accumulated many references historically.
#[test]
fn aging_adapts_to_workload_shift() {
    let cat = catalog(40_000);
    // Tiny cache: fits the incoming pattern's result, but not both
    // patterns' results at once — phase B can only be cached by displacing
    // phase A's incumbent.
    let probe_size = result_size(&cat, &q(2));
    let e = engine(cat, probe_size + probe_size / 4, 0.5);
    // Phase A: q(1) runs many times, builds a large reference count.
    for _ in 0..6 {
        run(&e, &q(1));
    }
    // Phase B: the workload shifts entirely to q(2).
    let mut reused_late = false;
    for i in 0..12 {
        let out = run(&e, &q(2));
        if i >= 6 {
            reused_late |= out.reused();
        }
    }
    assert!(
        reused_late,
        "after the shift, the new pattern must eventually be cached and reused"
    );
}

/// New results are not starved by incumbents: the paper criticises systems
/// that "only manage reference statistics for already materialized
/// results, which may lead to starvation". Here a newcomer with a higher
/// benefit must displace a low-benefit incumbent even when the cache is
/// full.
#[test]
fn no_starvation_of_new_results() {
    let cat = catalog(60_000);
    // Cache fits roughly one result of the newcomer's size.
    let probe = result_size(&cat, &q(3));
    let e = engine(cat, probe + probe / 4, 1.0);
    run(&e, &q(1)); // incumbent cached (speculation)
                    // A different, similarly-sized result referenced repeatedly: its
                    // history benefit grows with each occurrence until it wins the
                    // replacement comparison.
    let mut reused = false;
    for _ in 0..8 {
        reused |= run(&e, &q(3)).reused();
    }
    assert!(
        reused,
        "repeatedly-referenced newcomer must displace the incumbent"
    );
}

/// Store operators are never injected under a reused (cached) subtree, and
/// a query reusing its own root result performs no materialization.
#[test]
fn no_store_under_reuse() {
    let cat = catalog(30_000);
    let e = engine(cat, 1 << 24, 1.0);
    let query = q(5);
    run(&e, &query);
    let out = run(&e, &query);
    assert!(out.reused());
    let stores = out
        .events
        .iter()
        .filter(|ev| matches!(ev, RecyclerEvent::StoreInjected { .. }))
        .count();
    assert_eq!(stores, 0, "a fully reused query must not inject stores");
}

/// Event streams are consistent: every admitted materialization event has
/// a matching store injection in the same query.
#[test]
fn event_stream_consistency() {
    let cat = catalog(30_000);
    let e = engine(cat, 1 << 24, 1.0);
    let out = run(&e, &q(9));
    let injected: Vec<_> = out
        .events
        .iter()
        .filter_map(|ev| match ev {
            RecyclerEvent::StoreInjected { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    for ev in &out.events {
        if let RecyclerEvent::Materialized { node, .. } = ev {
            assert!(
                injected.contains(node),
                "materialized {node:?} without a store injection"
            );
        }
    }
    assert!(!injected.is_empty(), "first run should speculate");
}

/// The recycler graph deduplicates shared subtrees across *different*
/// queries of one session (the paper's memory-footprint argument for the
/// AND-DAG).
#[test]
fn graph_shares_common_subtrees() {
    let cat = catalog(10_000);
    let e = engine(cat, 1 << 24, 1.0);
    run(&e, &q(7));
    let after_first = e.recycler().unwrap().graph_len();
    // Same scan+select, different aggregate: only one new node.
    let variant = scan("facts", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(7)))
        .aggregate(
            vec![(Expr::name("k"), "k")],
            vec![(AggFunc::CountStar, "n")],
        );
    run(&e, &variant);
    let after_second = e.recycler().unwrap().graph_len();
    assert_eq!(
        after_second,
        after_first + 1,
        "shared prefix must be unified in the graph"
    );
}

/// An intra-query shared subtree (the same subplan appearing twice in one
/// query) matches to a single graph node.
#[test]
fn intra_query_sharing_is_detected() {
    let cat = catalog(10_000);
    let e = engine(cat, 1 << 24, 1.0);
    let sub = scan("facts", &["k", "v"]).select(Expr::name("k").lt(Expr::lit(4)));
    let per_k = sub.clone().aggregate(
        vec![(Expr::name("k"), "k")],
        vec![(AggFunc::Sum(Expr::name("v")), "s")],
    );
    let total = sub.aggregate(vec![], vec![(AggFunc::Sum(Expr::name("v")), "t")]);
    let query = per_k
        .single_join(total)
        .select(Expr::name("s").gt(Expr::name("t").mul(Expr::lit(0.01))));
    let out = run(&e, &query);
    assert!(out.batch.rows() > 0);
    // The shared select subtree occupies one node: scan + select +
    // 2 aggregates + join + outer select = 6, not 8.
    assert_eq!(e.recycler().unwrap().graph_len(), 6);
}

/// Results too large for the configured cache fraction are never admitted,
/// but execution stays correct.
#[test]
fn oversized_results_are_refused() {
    let cat = catalog(50_000);
    let mut c = RecyclerConfig::deterministic(4096);
    c.spec_min_progress = 0.0;
    c.max_result_fraction = 0.25; // max 1 KiB per result
    let e = Engine::builder(cat.clone()).recycler(c).build();
    // A selection result of ~tens of KiB cannot be cached.
    let big = scan("facts", &["k", "v"]).select(Expr::name("k").ge(Expr::lit(0)));
    let wrapped = big.aggregate(
        vec![(Expr::name("k"), "k")],
        vec![(AggFunc::CountStar, "n")],
    );
    for _ in 0..3 {
        let out = run(&e, &wrapped);
        assert_eq!(out.batch.rows(), 64);
    }
    assert!(
        e.recycler().unwrap().cache_used() <= 4096,
        "cache budget must hold even under oversized offers"
    );
}

/// The `adhoc_cold` shape: a flood of distinct statements — selections,
/// aggregates and top-N over windows of one scan that no other statement
/// touches — on one engine. The recycler's bookkeeping per statement must
/// not grow with the statements it has seen: subsumption checks and
/// re-ranked cache entries over the last 500 statements stay within a
/// small constant of the first 500. Pinned by counts, not timers; every
/// answer must equal the recycler-less engine's.
#[test]
fn unique_query_flood_keeps_bookkeeping_flat() {
    const STATEMENTS: i64 = 2_000;
    const WINDOW: i64 = 4;
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Int)]);
    let rows = STATEMENTS * WINDOW;
    let mut b = TableBuilder::new("events", schema, rows as usize);
    for i in 0..rows {
        b.push_row(vec![Value::Int(i), Value::Int((i * 7919) % 1000)]);
    }
    cat.register(b.finish()).expect("register table");
    let cat = Arc::new(cat);
    let mut cfg = RecyclerConfig::speculative(2 * 1024);
    cfg.cost_model = CostModel::WorkUnits;
    let e = Engine::builder(cat.clone()).recycler(cfg).build();
    let off = Engine::builder(cat).no_recycler().build();
    let stats = &e.recycler().unwrap().stats;
    let counts = || {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (load(&stats.subsumption_checks), load(&stats.reranks))
    };
    let mut marks = Vec::new();
    for i in 0..STATEMENTS {
        if i == 500 || i == STATEMENTS - 500 {
            marks.push(counts());
        }
        let lo = i * WINDOW;
        let window = scan("events", &["k", "v"]).select(
            Expr::name("k")
                .ge(Expr::lit(lo))
                .and(Expr::name("k").lt(Expr::lit(lo + WINDOW))),
        );
        let plan = match i % 3 {
            0 => window,
            1 => window.aggregate(
                vec![],
                vec![
                    (AggFunc::Sum(Expr::name("v")), "s"),
                    (AggFunc::CountStar, "n"),
                ],
            ),
            _ => window.top_n(vec![SortKeyExpr::desc(Expr::name("v"))], 2),
        };
        let mut got = run(&e, &plan).batch.to_rows();
        let mut want = run(&off, &plan).batch.to_rows();
        got.sort();
        want.sort();
        assert_eq!(got, want, "statement {i}");
    }
    let end = counts();
    let first = marks[0];
    let last = (end.0 - marks[1].0, end.1 - marks[1].1);
    assert!(
        first.0 > 0 && first.1 > 0,
        "the flood exercises both: {first:?}"
    );
    // The first statements meet a cache that is still filling, with fewer
    // materialized selections to check against: a 2 KiB cache holds ~16
    // and fills within ~25 statements, which is what the slack covers.
    // A walk over every sibling ever inserted would add ~10^6 here.
    const SLACK: u64 = 500;
    assert!(
        last.0 <= first.0 + SLACK,
        "subsumption checks grew: {first:?} → {last:?}"
    );
    assert!(
        last.1 <= first.1 + SLACK,
        "re-ranks grew: {first:?} → {last:?}"
    );
}

#[test]
fn float_sums_are_not_reaggregated_from_a_finer_grouping() {
    // Float addition is not associative: re-aggregating per-(g, h) float
    // sums adds in another order than the scan does. Here the fine groups
    // are (0,0) = 1e16 + -1e16 = 0 and (0,1) = 1 + 1 = 2, so re-aggregating
    // them gives 2, while the scan-order sum ((1e16 + 1) - 1e16) + 1 is 1.
    let schema = Schema::from_pairs([
        ("g", DataType::Int),
        ("h", DataType::Int),
        ("v", DataType::Float),
    ]);
    let mut b = TableBuilder::new("t", schema, 4);
    for (h, v) in [(0, 1e16), (1, 1.0), (0, -1e16), (1, 1.0)] {
        b.push_row(vec![Value::Int(0), Value::Int(h), Value::Float(v)]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish()).unwrap();
    let engine = engine(Arc::new(cat), 1 << 20, 1.0);
    let selected = || scan("t", &["g", "h", "v"]).select(Expr::name("g").ge(Expr::lit(0i64)));
    let fine = selected().aggregate(
        vec![(Expr::name("g"), "g"), (Expr::name("h"), "h")],
        vec![(AggFunc::Sum(Expr::name("v")), "s")],
    );
    for _ in 0..3 {
        run(&engine, &fine);
    }
    let coarse = selected().aggregate(
        vec![(Expr::name("g"), "g")],
        vec![(AggFunc::Sum(Expr::name("v")), "s")],
    );
    let out = run(&engine, &coarse);
    assert!(
        !out.events
            .iter()
            .any(|e| matches!(e, RecyclerEvent::SubsumptionReused { .. })),
        "a float sum must not be derived from a finer grouping: {:?}",
        out.events
    );
    assert_eq!(
        out.batch.to_rows(),
        vec![vec![Value::Int(0), Value::Float(1.0)]],
        "scan-order sum"
    );
}
