//! The recycler's incremental bookkeeping against from-scratch
//! recomputation, over seeded random interleavings of everything that
//! moves it: prepare, execute (publish, publish_build), complete, abort,
//! repair (of appends, deletes and replaces), and flush. After every step:
//!
//! * every cache entry's benefit read at the current tick equals Eq. 1
//!   recomputed from the graph's statistics, and each size group lists
//!   its entries in increasing order of that benefit;
//! * every node's on-demand subsumers equal the all-pairs
//!   [`derive_subsumption`] over its materialized siblings;
//! * a node is materialized exactly when its result is cached, and no
//!   bare scan ever is.
//!
//! Plus the subsumer choice, pinned by row counts and ids, and the hash
//! builds the rewriter leases or targets.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdb_exec::{build, ExecContext, ExecTree, FnRegistry};
use rdb_expr::{AggFunc, Expr};
use rdb_plan::{scan, Plan, SortKeyExpr};
use rdb_storage::{Catalog, Change, ChunkList, Commit, TableBuilder};
use rdb_vector::{DataType, Schema, Value};

use super::*;
use crate::graph::derive_subsumption;

/// Random interleavings checked; the release build runs many more.
const CASES: u64 = if cfg!(debug_assertions) { 12 } else { 200 };
/// Steps per interleaving.
const STEPS: usize = 300;

fn catalog(seed: u64) -> Arc<Catalog> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let t = Schema::from_pairs([
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
    ]);
    let mut b = TableBuilder::new("t", t, 600);
    for _ in 0..600 {
        b.push_row(vec![
            Value::Int(rng.gen_range(0..60)),
            Value::Int(rng.gen_range(0..6)),
            Value::Int(rng.gen_range(0..1000)),
        ]);
    }
    cat.register(b.finish()).expect("register t");
    let u = Schema::from_pairs([("k", DataType::Int), ("d", DataType::Int)]);
    let mut b = TableBuilder::new("u", u, 12);
    for k in 0..12 {
        b.push_row(vec![Value::Int(k % 6), Value::Int(k)]);
    }
    cat.register(b.finish()).expect("register u");
    Arc::new(cat)
}

/// A plan over `t` from a small space, so that statements repeat (exact
/// hits), nest (subsumption), and share prefixes (DMDs and Eq. 3/4).
fn random_plan(rng: &mut SmallRng) -> Plan {
    let col = Expr::name;
    let mut p = scan("t", &["a", "b", "c"]);
    if rng.gen_bool(0.85) {
        let lo = rng.gen_range(0..3i64) * 10;
        let hi = lo + rng.gen_range(1..3i64) * 10;
        let mut pred = col("a").ge(Expr::lit(lo)).and(col("a").lt(Expr::lit(hi)));
        if rng.gen_bool(0.3) {
            pred = pred.and(col("b").lt(Expr::lit(rng.gen_range(2..6i64))));
        }
        p = p.select(pred);
    }
    let aggs = |rng: &mut SmallRng| {
        let mut aggs = vec![(AggFunc::Sum(col("c")), "s")];
        if rng.gen_bool(0.5) {
            aggs.push((AggFunc::CountStar, "n"));
        }
        aggs
    };
    match rng.gen_range(0..5) {
        0 => p,
        1 => {
            let groups = match rng.gen_range(0..3) {
                0 => vec![],
                1 => vec![(col("b"), "b")],
                _ => vec![(col("b"), "b"), (col("a"), "a")],
            };
            let aggs = aggs(rng);
            p.aggregate(groups, aggs)
        }
        2 => {
            let n = [3, 10, 30][rng.gen_range(0..3)];
            p.top_n(
                vec![SortKeyExpr::desc(col("c")), SortKeyExpr::asc(col("a"))],
                n,
            )
        }
        3 => {
            let joined = p.inner_join(scan("u", &["k", "d"]), vec![col("b")], vec![col("k")]);
            let aggs = aggs(rng);
            joined.aggregate(vec![(col("d"), "d")], aggs)
        }
        _ => p.project(vec![(col("a"), "a"), (col("c"), "c")]),
    }
}

/// Eq. 1 for one cache entry, recomputed from the graph's raw statistics
/// with no help from the incremental state.
fn reference_benefit(
    g: &RecyclerGraph,
    aid: ArtifactId,
    entry: &CacheEntry,
    cfg: &RecyclerConfig,
) -> f64 {
    let stats = &g.node(aid.node).stats;
    let h = stats.h_r * cfg.aging_alpha.powi((g.tick() - stats.last_tick) as i32);
    let b = match aid.kind {
        ArtifactKind::Result => {
            fn dmds(g: &RecyclerGraph, id: NodeId, out: &mut Vec<NodeId>) {
                for &c in &g.node(id).children {
                    if g.node(c).materialized {
                        out.push(c);
                    } else {
                        dmds(g, c, out);
                    }
                }
            }
            let mut below = Vec::new();
            dmds(g, aid.node, &mut below);
            let saved: f64 = below.iter().map(|&d| g.base_cost(d, cfg.cost_model)).sum();
            let true_cost = (g.base_cost(aid.node, cfg.cost_model) - saved).max(0.0);
            true_cost * h / stats.bytes.max(1) as f64
        }
        _ => entry.cost * h / entry.size.max(1) as f64,
    };
    if b > 0.0 {
        b
    } else {
        0.0
    }
}

/// The subsumers the removed insert-time edges would have offered: every
/// materialized sibling (other parent of the first child, or other scan
/// of the same table) that the plan-level rules accept.
fn reference_subsumers(g: &RecyclerGraph, id: NodeId) -> Vec<(NodeId, Derivation)> {
    let n = g.node(id);
    let siblings: Vec<NodeId> = match n.children.first() {
        Some(&c) => g.node(c).parents.values().flatten().copied().collect(),
        None => (0..g.len() as u32)
            .map(NodeId)
            .filter(|&l| match (&g.node(l).subtree, &n.subtree) {
                (Plan::Scan { table: x, .. }, Plan::Scan { table: y, .. }) => x == y,
                _ => false,
            })
            .collect(),
    };
    let input = n
        .children
        .first()
        .map_or_else(Schema::default, |&c| g.node(c).schema.clone());
    let mut out: Vec<(NodeId, Derivation)> = siblings
        .into_iter()
        .filter(|&s| s != id && g.node(s).materialized)
        .filter_map(|s| derive_subsumption(&n.subtree, &g.node(s).subtree, &input).map(|d| (s, d)))
        .collect();
    out.sort_by_key(|(s, _)| *s);
    out.dedup_by_key(|(s, _)| *s);
    out
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn check(rc: &Recycler, context: &str) {
    let st = rc.state.lock();
    let (g, cache, cfg) = (&st.graph, &st.cache, &rc.config);
    let groups = cache.group_orders();
    assert_eq!(
        groups.iter().map(Vec::len).sum::<usize>(),
        cache.len(),
        "{context}: every entry sits in exactly one group"
    );
    for group in &groups {
        let mut prev = 0.0;
        for &aid in group {
            let entry = cache.get_artifact(aid).expect("grouped entry exists");
            let want = reference_benefit(g, aid, entry, cfg);
            let got = cache.benefit(aid).expect("benefit of a cached entry");
            assert!(
                close(got, want),
                "{context}: {aid:?} benefit {got} vs {want}"
            );
            assert!(
                want >= prev || close(want, prev),
                "{context}: {aid:?} ({want}) ranked after a higher benefit ({prev})"
            );
            prev = want;
            assert!(cache.artifacts_of(aid.node).contains(&aid));
        }
    }
    for id in (0..g.len() as u32).map(NodeId) {
        let mut got = g.materialized_subsumers(id);
        got.sort_by_key(|(s, _)| *s);
        assert_eq!(
            got,
            reference_subsumers(g, id),
            "{context}: subsumers of {id:?}"
        );
        let node = g.node(id);
        assert_eq!(node.materialized, cache.contains(id), "{context}: {id:?}");
        assert!(
            !(node.materialized && matches!(node.subtree, Plan::Scan { .. })),
            "{context}: bare scan {id:?} materialized"
        );
    }
}

/// A query between `prepare` and `complete`/`abort`.
struct Open {
    prepared: PreparedQuery,
    tree: ExecTree,
    drained: bool,
}

fn open(rc: &Arc<Recycler>, catalog: &Arc<Catalog>, plan: &Plan) -> Open {
    let bound = plan.bind(catalog).expect("plan binds");
    let snapshot = Arc::new(catalog.snapshot());
    let prepared = rc.prepare_at(&bound, catalog, &|t| snapshot.epoch_of(t).unwrap_or(0));
    let ctx = ExecContext::new(catalog.clone())
        .with_store(rc.clone())
        .with_snapshot(snapshot);
    let tree = build(&prepared.plan, &ctx).expect("rewritten plan builds");
    Open {
        prepared,
        tree,
        drained: false,
    }
}

/// Commit a small append or delete to `t` or `u`; returns its commit.
fn write(rng: &mut SmallRng, catalog: &Catalog) -> Option<Commit> {
    let (name, width) = if rng.gen_bool(0.7) {
        ("t", 3)
    } else {
        ("u", 2)
    };
    let vt = catalog.versioned(name).expect("table exists");
    if rng.gen_bool(0.7) {
        let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..4))
            .map(|_| {
                (0..width)
                    .map(|_| Value::Int(rng.gen_range(0..60)))
                    .collect()
            })
            .collect();
        vt.append(&rows).expect("append commits").0
    } else {
        let doomed = Value::Int(rng.gen_range(0..60));
        vt.delete_where(|t| {
            let keys = t.column(0).to_values();
            keys.into_iter().map(|k| k == doomed).collect()
        })
        .expect("delete commits")
        .0
    }
}

fn interleaving(seed: u64) -> Arc<Recycler> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let catalog = catalog(seed);
    let functions = Arc::new(FnRegistry::new());
    let mut cfg = RecyclerConfig::deterministic(rng.gen_range(4..24) * 1024);
    cfg.max_result_fraction = 1.0;
    cfg.aging_alpha = [1.0, 0.97, 0.8][rng.gen_range(0..3)];
    cfg.spec_min_progress = 0.0;
    if rng.gen_bool(0.3) {
        cfg.mode = RecyclerMode::History;
    }
    // Open queries hold in-flight markers; a query wanting the same node
    // waits this long and then computes it itself.
    cfg.stall_timeout = Duration::from_millis(1);
    let rc = Recycler::new(cfg);
    let mut queries: Vec<Open> = Vec::new();
    for step in 0..STEPS {
        let context = format!("seed {seed} step {step}");
        match rng.gen_range(0..24) {
            0..=6 if queries.len() < 3 => {
                let plan = random_plan(&mut rng);
                queries.push(open(&rc, &catalog, &plan));
            }
            7..=12 => {
                if let Some(q) = queries.iter_mut().find(|q| !q.drained) {
                    q.tree.drain().expect("query runs");
                    q.drained = true;
                }
            }
            13..=18 => {
                if let Some(i) = queries.iter().position(|q| q.drained) {
                    let q = queries.remove(i);
                    rc.complete(&q.prepared, &q.tree.metrics);
                }
            }
            19 if !queries.is_empty() => {
                let q = queries.remove(rng.gen_range(0..queries.len()));
                drop(q.tree);
                rc.abort(&q.prepared);
            }
            20 | 21 => {
                if let Some(delta) = write(&mut rng, &catalog) {
                    if rng.gen_bool(0.5) {
                        rc.repair(&delta, &catalog.snapshot(), &functions);
                    } else {
                        // The same commit as a replace: no candidates,
                        // every stale dependent evicts.
                        let contents = catalog.get(&delta.table).expect("table exists");
                        let replace = Commit {
                            change: Change::Replace(ChunkList::new(contents.chunks().to_vec())),
                            ..delta
                        };
                        rc.repair(&replace, &catalog.snapshot(), &functions);
                    }
                }
            }
            22 if rng.gen_bool(0.2) => rc.flush_cache(),
            _ => {}
        }
        check(&rc, &context);
    }
    rc
}

#[test]
fn incremental_bookkeeping_matches_recomputation() {
    let mut reached = [0u64; 5];
    for seed in 0..CASES {
        let rc = interleaving(seed);
        let s = &rc.stats;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let evictions = rc.state.lock().cache.evictions;
        let counts = [
            load(&s.materializations),
            load(&s.subsumption_reuses),
            load(&s.repaired),
            evictions,
            load(&s.reranks),
        ];
        for (total, n) in reached.iter_mut().zip(counts) {
            *total += n;
        }
    }
    // The interleavings reach every mechanism they are meant to check.
    assert!(reached.iter().all(|&n| n > 0), "{reached:?}");
}

/// Run `plan` to completion; returns the recycler's events.
fn run(rc: &Arc<Recycler>, catalog: &Arc<Catalog>, plan: &Plan) -> Vec<RecyclerEvent> {
    let mut q = open(rc, catalog, plan);
    q.tree.drain().expect("query runs");
    let mut events = q.prepared.events.clone();
    events.extend(rc.complete(&q.prepared, &q.tree.metrics));
    events
}

fn subsumed_via(events: &[RecyclerEvent]) -> Option<NodeId> {
    events.iter().find_map(|e| match e {
        RecyclerEvent::SubsumptionReused { via, .. } => Some(*via),
        _ => None,
    })
}

#[test]
fn subsumer_with_fewest_rows_wins_then_lowest_id() {
    let catalog = catalog(7);
    let mut cfg = RecyclerConfig::deterministic(1 << 24);
    cfg.spec_min_progress = 0.0;
    let rc = Recycler::new(cfg);
    let window = |lo: i64, hi: i64| {
        scan("t", &["a", "b", "c"]).select(
            Expr::name("a")
                .ge(Expr::lit(lo))
                .and(Expr::name("a").lt(Expr::lit(hi))),
        )
    };
    let id = |rc: &Recycler, p: &Plan| {
        rc.with_graph(|g| g.find_exact(&p.bind(&catalog).unwrap()))
            .expect("plan is in the graph")
    };
    // Neither window implies the other, so both are stored; the one
    // stored second holds fewer rows and has the higher id, so neither
    // materialization order nor id order picks it.
    let (wide, narrow) = (window(0, 50), window(20, 60));
    run(&rc, &catalog, &wide);
    run(&rc, &catalog, &narrow);
    let (wide_id, narrow_id) = (id(&rc, &wide), id(&rc, &narrow));
    assert!(wide_id < narrow_id);
    assert_eq!(
        rc.with_graph(|g| g.subsumption_candidates(narrow_id).to_vec()),
        vec![wide_id, narrow_id],
        "both are materialized, in that order"
    );
    // Both subsume [25, 35): the one holding fewer rows is read.
    assert_eq!(
        subsumed_via(&run(&rc, &catalog, &window(25, 35))),
        Some(narrow_id)
    );

    // Two subsumers holding every row of `t` (`a` is in [0, 60)): the
    // lower id is read, though it was materialized second. It enters the
    // graph first under an aggregate that does not store it.
    let rc = Recycler::new(rc.config().clone());
    let (first, second) = (window(-10, 60), window(-5, 70));
    let count = first
        .clone()
        .aggregate(vec![], vec![(AggFunc::CountStar, "n")]);
    run(&rc, &catalog, &count);
    run(&rc, &catalog, &second);
    run(&rc, &catalog, &first);
    let (first_id, second_id) = (id(&rc, &first), id(&rc, &second));
    assert!(first_id < second_id);
    assert_eq!(
        rc.with_graph(|g| g.subsumption_candidates(first_id).to_vec()),
        vec![second_id, first_id]
    );
    assert_eq!(
        subsumed_via(&run(&rc, &catalog, &window(0, 50))),
        Some(first_id)
    );
}

#[test]
fn bare_scans_are_never_materialized() {
    let catalog = catalog(3);
    for mode in [RecyclerMode::Speculative, RecyclerMode::History] {
        let mut cfg = RecyclerConfig::deterministic(1 << 24);
        cfg.spec_min_progress = 0.0;
        cfg.mode = mode;
        let rc = Recycler::new(cfg);
        // A scan as the root, under a join's build side, and under an
        // aggregate, each seen often enough for the history rule.
        let plans = [
            scan("t", &["a", "b", "c"]),
            scan("t", &["a", "b", "c"]).inner_join(
                scan("u", &["k", "d"]),
                vec![Expr::name("b")],
                vec![Expr::name("k")],
            ),
            scan("u", &["k", "d"]).aggregate(vec![], vec![(AggFunc::CountStar, "n")]),
        ];
        for _ in 0..3 {
            for p in &plans {
                run(&rc, &catalog, p);
            }
        }
        rc.with_graph(|g| {
            for id in g.materialized_nodes() {
                assert!(!matches!(g.node(id).subtree, Plan::Scan { .. }), "{mode:?}");
            }
            assert!(
                !g.materialized_nodes().is_empty(),
                "{mode:?}: the rest is stored"
            );
        });
        // Nor does recovery warm-up install one.
        let bound = plans[0].bind(&catalog).unwrap();
        let result = {
            let ctx = ExecContext::new(catalog.clone());
            let mut tree = build(&bound, &ctx).unwrap();
            let batches = tree.drain().unwrap();
            Arc::new(MaterializedResult::from_batches(
                tree.schema.clone(),
                &batches,
            ))
        };
        let lineage = LineageEntry {
            plan: bound,
            epochs: vec![("t".into(), 0)],
            benefit: 1.0,
            heat: 1.0,
            cost_ns: 1.0,
            cost_work: 1.0,
            rows: result.rows() as u64,
            bytes: result.size_bytes() as u64,
        };
        assert!(!rc.warm(&lineage, &catalog, result));
    }
}

/// `t` joined with `u` on `b = k` (a hash build over `u`), for the rows of
/// `t` with `a < cut`.
fn join_below(cut: i64) -> Plan {
    scan("t", &["a", "b", "c"])
        .select(Expr::name("a").lt(Expr::lit(cut)))
        .inner_join(
            scan("u", &["k", "d"]),
            vec![Expr::name("b")],
            vec![Expr::name("k")],
        )
}

/// Hash builds in the cache.
fn cached_builds(rc: &Recycler) -> usize {
    rc.state
        .lock()
        .cache
        .highest_benefit_first()
        .filter(|a| a.kind == ArtifactKind::HashBuild)
        .count()
}

/// A join's build input in a rewritten plan (the first join found).
fn build_input(plan: &Plan) -> &Plan {
    match plan {
        Plan::Join { right, .. } => right,
        _ => build_input(plan.children()[0]),
    }
}

fn sorted_rows(batches: &[rdb_vector::Batch]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = batches.iter().flat_map(|b| b.to_rows()).collect();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// History mode injects no store into a first-seen plan, so the only tag
/// a first run holds is its join's build target.
fn history_recycler() -> Arc<Recycler> {
    let mut cfg = RecyclerConfig::deterministic(1 << 24);
    cfg.mode = RecyclerMode::History;
    Recycler::new(cfg)
}

#[test]
fn a_build_leased_at_prepare_survives_a_flush() {
    let catalog = catalog(5);
    let rc = history_recycler();
    run(&rc, &catalog, &join_below(20));
    assert_eq!(cached_builds(&rc), 1, "the cold join offered its build");

    let bound = join_below(40).bind(&catalog).unwrap();
    let hits = rc.stats.hash_build_hits.load(Ordering::Relaxed);
    let snapshot = Arc::new(catalog.snapshot());
    let prepared = rc.prepare_at(&bound, &catalog, &|t| snapshot.epoch_of(t).unwrap_or(0));
    assert!(matches!(build_input(&prepared.plan), Plan::Cached { .. }));
    rc.flush_cache();
    assert_eq!(cached_builds(&rc), 0);
    let ctx = ExecContext::new(catalog.clone())
        .with_store(rc.clone())
        .with_snapshot(snapshot);
    let mut tree = build(&prepared.plan, &ctx).expect("rewritten plan builds");
    let rows = sorted_rows(&tree.drain().expect("query runs"));
    rc.complete(&prepared, &tree.metrics);
    assert_eq!(rc.stats.hash_build_hits.load(Ordering::Relaxed), hits + 1);

    let cold = build(&bound, &ExecContext::new(catalog.clone()))
        .unwrap()
        .drain()
        .unwrap();
    assert_eq!(rows, sorted_rows(&cold));
    assert!(!rows.is_empty());
}

#[test]
fn a_build_input_over_a_store_or_a_cached_result_is_not_recycled() {
    let catalog = catalog(5);
    let mut cfg = RecyclerConfig::deterministic(1 << 24);
    cfg.spec_min_progress = 0.0;
    let rc = Recycler::new(cfg);
    // Speculation stores the aggregate on the build side the first time,
    // and the second join reads it from the cache.
    let counted = |cut: i64| {
        scan("t", &["a", "b", "c"])
            .select(Expr::name("a").lt(Expr::lit(cut)))
            .inner_join(
                scan("u", &["k", "d"]).aggregate(
                    vec![(Expr::name("k"), "k")],
                    vec![(AggFunc::CountStar, "n")],
                ),
                vec![Expr::name("b")],
                vec![Expr::name("k")],
            )
    };
    for (cut, stored) in [(20, true), (40, false)] {
        let mut q = open(&rc, &catalog, &counted(cut));
        match build_input(&q.prepared.plan) {
            Plan::Store { mode, .. } => {
                assert!(stored);
                assert_eq!(*mode, StoreMode::Speculate);
            }
            Plan::Cached { tag, .. } => {
                assert!(!stored);
                assert!(rc.fetch(*tag).is_some(), "a result, not a build");
            }
            other => panic!("build input {other:?}"),
        }
        q.tree.drain().expect("query runs");
        rc.complete(&q.prepared, &q.tree.metrics);
        assert_eq!(cached_builds(&rc), 0, "cut {cut}");
    }
    assert_eq!(rc.stats.hash_build_hits.load(Ordering::Relaxed), 0);
    assert_eq!(rc.stats.reuses.load(Ordering::Relaxed), 1);
}

#[test]
fn a_build_from_a_superseded_snapshot_is_rejected() {
    let catalog = catalog(5);
    let rc = history_recycler();
    let mut q = open(&rc, &catalog, &join_below(20));
    assert!(matches!(
        build_input(&q.prepared.plan),
        Plan::Store {
            mode: StoreMode::Build,
            ..
        }
    ));
    // `u` moves on after the query pinned it, before its join builds.
    let vt = catalog.versioned("u").unwrap();
    let rows = vec![vec![Value::Int(1), Value::Int(99)]];
    let (delta, _) = vt.append(&rows).unwrap();
    rc.repair(
        &delta.unwrap(),
        &catalog.snapshot(),
        &Arc::new(FnRegistry::new()),
    );
    q.tree.drain().expect("query runs");
    assert_eq!(rc.stats.stale_rejections.load(Ordering::Relaxed), 1);
    assert_eq!(cached_builds(&rc), 0);
    let events = rc.complete(&q.prepared, &q.tree.metrics);
    assert!(
        events.is_empty(),
        "a build target emits no event: {events:?}"
    );
    assert_eq!(rc.stats.abandoned.load(Ordering::Relaxed), 0);
}

/// The repair gate weighs a delta's rows against a node's cost in work
/// units (rows processed), which the graph keeps under every cost model:
/// under the time model a tiny node's cost in nanoseconds would let any
/// delta through.
#[test]
fn a_delta_larger_than_a_tiny_node_evicts_it_under_the_time_model() {
    let catalog = catalog(5);
    let mut cfg = RecyclerConfig::deterministic(1 << 24);
    cfg.cost_model = CostModel::Time;
    cfg.spec_min_progress = 0.0;
    let rc = Recycler::new(cfg);
    let plan = scan("u", &["k", "d"]).select(Expr::name("k").lt(Expr::lit(3)));
    run(&rc, &catalog, &plan);
    let id = rc
        .with_graph(|g| g.find_exact(&plan.bind(&catalog).unwrap()))
        .expect("plan is in the graph");
    assert!(rc.with_graph(|g| g.node(id).materialized && g.node(id).stats.measured));
    let rows: Vec<Vec<Value>> = (0..40)
        .map(|k| vec![Value::Int(k % 6), Value::Int(100 + k)])
        .collect();
    let (work, time) = rc.with_graph(|g| {
        (
            g.true_cost(id, CostModel::WorkUnits),
            g.true_cost(id, CostModel::Time),
        )
    });
    assert!(
        work < rows.len() as f64 && time > rows.len() as f64,
        "{work} {time}"
    );
    let (delta, _) = catalog.versioned("u").unwrap().append(&rows).unwrap();
    let out = rc.repair(
        &delta.unwrap(),
        &catalog.snapshot(),
        &Arc::new(FnRegistry::new()),
    );
    assert_eq!((out.repaired, out.fallbacks), (0, 0), "{out:?}");
    assert!(
        out.events
            .iter()
            .any(|e| matches!(e, RecyclerEvent::Invalidated { node, .. } if *node == id)),
        "{out:?}"
    );
    assert!(!rc.with_graph(|g| g.node(id).materialized));
}

#[test]
fn a_leased_build_drops_the_builds_leased_inside_it() {
    let catalog = catalog(5);
    let rc = history_recycler();
    let query = |cut: i64| {
        let nested = scan("u", &["k", "d"]).inner_join(
            scan("t", &["a", "b"]).select(Expr::name("a").lt(Expr::lit(5))),
            vec![Expr::name("k")],
            vec![Expr::name("b")],
        );
        scan("t", &["c", "b"])
            .select(Expr::name("c").lt(Expr::lit(cut)))
            .inner_join(nested, vec![Expr::name("b")], vec![Expr::name("k")])
    };
    // Both joins offer their builds. Aborted, the run annotates nothing,
    // so the next one injects no store either.
    let mut q = open(&rc, &catalog, &query(300));
    q.tree.drain().expect("query runs");
    rc.abort(&q.prepared);
    assert_eq!(cached_builds(&rc), 2);

    let mut q = open(&rc, &catalog, &query(600));
    assert!(matches!(build_input(&q.prepared.plan), Plan::Cached { .. }));
    assert_eq!(q.prepared.tags.len(), 1, "one lease, nothing below it");
    assert_eq!(rc.stats.hash_build_hits.load(Ordering::Relaxed), 1);
    let rows = sorted_rows(&q.tree.drain().expect("query runs"));
    rc.complete(&q.prepared, &q.tree.metrics);
    assert_eq!(rc.state.lock().tags.len(), 0);
    let bound = query(600).bind(&catalog).unwrap();
    let cold = build(&bound, &ExecContext::new(catalog.clone()))
        .unwrap()
        .drain()
        .unwrap();
    assert_eq!(rows, sorted_rows(&cold));
    assert!(!rows.is_empty());
}
