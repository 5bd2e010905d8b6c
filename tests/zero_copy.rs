//! Zero-copy semantics of the columnar data path.
//!
//! Two families of guarantees:
//!
//! 1. **Storage identity** (`Arc::ptr_eq` via `Column::shares_storage`):
//!    batch clones, slices, table scans, the store tee, and cache-hit
//!    replay must hand out *shared* column storage — no payload copies on
//!    the hot path.
//! 2. **Selection-vector equivalence**: executing with selection vectors
//!    (filters narrow batches instead of gathering) must produce exactly
//!    the same results as materializing execution — checked with
//!    property-style random predicates over NULL-bearing data and with the
//!    paper's workloads (TPC-H Q1/Q6/Q14, the SkyServer cone template)
//!    cross-checked against the operator-at-a-time MonetDB-style engine.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler_db::engine::{Engine, MaterializingEngine};
use recycler_db::exec::{
    build, run_to_batch, ExecContext, MaterializedResult, ResultStore, SpeculationEstimate,
    StoreVerdict,
};
use recycler_db::expr::{eval, AggFunc, CompiledPredicate, Expr};
use recycler_db::plan::{scan, JoinKind, Plan, StoreMode};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{Batch, Column, DataType, Schema, Value};

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// A small int/float/str table registered in a fresh catalog.
fn small_catalog(rows: usize) -> Arc<Catalog> {
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("tag", DataType::Str),
    ]);
    let mut b = TableBuilder::new("t", schema, rows);
    for i in 0..rows as i64 {
        b.push_row(vec![
            Value::Int(i),
            Value::Float(i as f64 * 0.25),
            Value::str(if i % 2 == 0 { "even" } else { "odd" }),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish()).expect("register table");
    Arc::new(cat)
}

// ---- storage identity -----------------------------------------------------

#[test]
fn batch_clone_and_slice_share_storage() {
    let b = Batch::new(vec![
        Column::from_ints((0..100).collect()),
        Column::from_strs((0..100).map(|i| format!("s{i}"))),
    ]);
    let cl = b.clone();
    for i in 0..b.width() {
        assert!(
            b.column(i).shares_storage(cl.column(i)),
            "Batch::clone must not copy column {i}"
        );
    }
    let s = b.slice(10, 50);
    for i in 0..b.width() {
        assert!(
            b.column(i).shares_storage(s.column(i)),
            "Batch::slice must not copy column {i}"
        );
    }
    assert_eq!(s.row(0), b.row(10));
}

#[test]
fn scan_batches_share_table_storage() {
    let cat = small_catalog(3000);
    let table = cat.get("t").expect("table registered").clone();
    let ctx = ExecContext::new(cat);
    let plan = scan("t", &["k", "v", "tag"]).bind(&ctx.catalog).unwrap();
    let mut tree = build(&plan, &ctx).unwrap();
    let mut batches = Vec::new();
    while let Some(b) = tree.root.next_batch() {
        batches.push(b);
    }
    assert!(batches.len() > 1, "multiple scan batches expected");
    for b in &batches {
        for (i, col) in b.columns().iter().enumerate() {
            assert!(
                col.shares_storage(&table.column(i)),
                "scan batches must be zero-copy slices of the table"
            );
        }
    }
}

#[test]
fn writes_share_untouched_chunks_and_scans_copy_only_at_a_seam() {
    let cat = small_catalog(3000);
    let engine = Engine::builder(cat.clone()).no_recycler().build();
    let base = cat.get("t").unwrap();
    let extra = |k: i64| vec![Value::Int(k), Value::Null, Value::str("new")];

    // An append shares every prior chunk with the snapshots that hold it.
    engine.append("t", &[extra(3000), extra(3001)]).unwrap();
    let appended = cat.get("t").unwrap();
    assert_eq!(appended.chunks().len(), 2);
    assert!(Arc::ptr_eq(&appended.chunks()[0], &base.chunks()[0]));
    // A delete rewrites the chunk holding the doomed row and shares the rest.
    engine
        .delete("t", &Expr::name("k").eq(Expr::lit(3000)))
        .unwrap();
    let deleted = cat.get("t").unwrap();
    assert!(Arc::ptr_eq(&deleted.chunks()[0], &base.chunks()[0]));
    assert!(!Arc::ptr_eq(&deleted.chunks()[1], &appended.chunks()[1]));
    engine
        .delete("t", &Expr::name("k").eq(Expr::lit(7)))
        .unwrap();
    let shrunk = cat.get("t").unwrap();
    assert!(!Arc::ptr_eq(&shrunk.chunks()[0], &base.chunks()[0]));
    assert!(Arc::ptr_eq(&shrunk.chunks()[1], &deleted.chunks()[1]));

    // Scanning the appended version: the batches inside the first chunk
    // are zero-copy slices of it; only the one straddling the seam (rows
    // 2048..3002 of 3000 + 2) is gathered. Same rows as the flat columns.
    let batches = appended.batches(&[0, 1, 2]);
    assert_eq!(batches.len(), 3);
    for (n, b) in batches.iter().enumerate() {
        for (i, col) in b.columns().iter().enumerate() {
            assert_eq!(
                col.shares_storage(&appended.chunks()[0].columns()[i]),
                n < 2,
                "batch {n} column {i}"
            );
        }
    }
    let rows: Vec<Vec<Value>> = batches.iter().flat_map(|b| b.to_rows()).collect();
    assert_eq!(rows, appended.to_rows());
    assert_eq!(rows.len(), 3002);
    assert_eq!(rows[3001], extra(3001));
}

/// Minimal `ResultStore` capturing published results.
#[derive(Default)]
struct TestStore {
    published: Mutex<HashMap<u64, Arc<MaterializedResult>>>,
}

impl ResultStore for TestStore {
    fn fetch(&self, tag: u64) -> Option<Arc<MaterializedResult>> {
        self.published.lock().unwrap().get(&tag).cloned()
    }
    fn publish(&self, tag: u64, result: MaterializedResult) {
        self.published.lock().unwrap().insert(tag, Arc::new(result));
    }
    fn abandon(&self, _tag: u64) {}
    fn speculate(&self, _tag: u64, _est: &SpeculationEstimate) -> StoreVerdict {
        StoreVerdict::Commit
    }
}

#[test]
fn store_tee_shares_storage_end_to_end() {
    // One scan batch flows through a materializing store: the published
    // result must still be the table's own storage — the tee buffered a
    // shared clone and the single-batch concat stayed zero-copy.
    let cat = small_catalog(800);
    let table = cat.get("t").expect("table registered").clone();
    let store = Arc::new(TestStore::default());
    let ctx = ExecContext::new(cat).with_store(store.clone() as Arc<dyn ResultStore>);
    let plan = scan("t", &["k", "v", "tag"])
        .store(7, StoreMode::Materialize)
        .bind(&ctx.catalog)
        .unwrap();
    let mut tree = build(&plan, &ctx).unwrap();
    let out = run_to_batch(tree.root.as_mut());
    assert_eq!(out.rows(), 800, "tuple flow uninterrupted");
    let published = store.fetch(7).expect("result published");
    for (i, col) in published.to_batch().columns().iter().enumerate() {
        assert!(
            col.shares_storage(&table.column(i)),
            "store tee must not copy column {i}"
        );
        assert!(
            col.shares_storage(out.column(i)),
            "pass-through output must share with the published result"
        );
    }
    // Replay re-chunks zero-copy as well.
    for b in published.batches() {
        assert!(b.column(0).shares_storage(&table.column(0)));
    }
}

#[test]
fn filter_emits_selection_without_gathering() {
    let cat = small_catalog(1000);
    let table = cat.get("t").expect("table registered").clone();
    let ctx = ExecContext::new(cat);
    let plan = scan("t", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(300)))
        .bind(&ctx.catalog)
        .unwrap();
    let mut tree = build(&plan, &ctx).unwrap();
    let b = tree.root.next_batch().expect("one batch");
    assert_eq!(b.rows(), 300, "logical rows narrowed");
    assert!(b.sel().is_some(), "partial filter emits a selection vector");
    assert!(
        b.column(0).shares_storage(&table.column(0)),
        "filter must not gather"
    );
    // Very sparse survivors are compacted on the spot instead (downstream
    // evaluation over mostly-dead physical rows would cost more).
    let plan = scan("t", &["k", "v"])
        .select(Expr::name("k").lt(Expr::lit(10)))
        .bind(&ctx.catalog)
        .unwrap();
    let mut tree = build(&plan, &ctx).unwrap();
    let b = tree.root.next_batch().expect("one batch");
    assert_eq!(b.rows(), 10);
    assert!(b.sel().is_none(), "sparse filter compacts");
    assert!(!b.column(0).shares_storage(&table.column(0)));
    // An all-true filter passes batches through without even a selection.
    let plan = scan("t", &["k", "v"])
        .select(Expr::name("k").ge(Expr::lit(0)))
        .bind(&ctx.catalog)
        .unwrap();
    let mut tree = build(&plan, &ctx).unwrap();
    let b = tree.root.next_batch().expect("one batch");
    assert!(b.sel().is_none(), "all-true filter adds no selection");
    assert!(b.column(0).shares_storage(&table.column(0)));
}

#[test]
fn cache_replay_hands_out_shared_batches() {
    let mut config = RecyclerConfig::deterministic(64 << 20);
    config.spec_min_progress = 0.0;
    let cat = small_catalog(1000);
    let table = cat.get("t").expect("table registered").clone();
    let engine = Engine::builder(cat).recycler(config).build();
    let session = engine.session();
    let plan = scan("t", &["k", "v", "tag"]).select(Expr::name("k").ge(Expr::lit(0)));
    let prepared = session.prepare(&plan).unwrap();
    let none = recycler_db::expr::Params::none();

    let first = prepared.execute(&none).unwrap().into_outcome();
    assert!(!first.reused());
    let second = prepared.execute(&none).unwrap().into_outcome();
    let third = prepared.execute(&none).unwrap().into_outcome();
    assert!(second.reused() && third.reused(), "steady state replays");
    assert_eq!(second.batch.to_rows(), first.batch.to_rows());
    for i in 0..second.batch.width() {
        assert!(
            second.batch.column(i).shares_storage(third.batch.column(i)),
            "two replays must share the cached allocation (column {i})"
        );
        // The whole chain — scan slice → store tee → publish → replay —
        // never copied: replays still hand out the base table's storage.
        assert!(
            second.batch.column(i).shares_storage(&table.column(i)),
            "replay must be zero-copy all the way to the table (column {i})"
        );
    }
}

// ---- selection-vector equivalence -----------------------------------------

#[test]
fn selection_kernel_matches_eval_mask() {
    // Random NULL-bearing data, random comparison predicates, with and
    // without a pre-existing selection: the selection kernel must agree
    // with the Bool column `eval` computes (`value && valid`, an
    // independent path) restricted to the selected rows.
    let mut r = rng(7);
    for case in 0..300 {
        let rows = r.gen_range(1..200);
        let mut b = recycler_db::vector::ColumnBuilder::new(DataType::Int, rows);
        for _ in 0..rows {
            if r.gen_bool(0.2) {
                b.push_null();
            } else {
                b.push(Value::Int(r.gen_range(-50..50)));
            }
        }
        let batch = Batch::new(vec![b.finish()]);
        let cut = r.gen_range(-60..60);
        let pred = Expr::col(0).gt(Expr::lit(cut));
        let truth = eval(&pred, &batch);
        let mask: Vec<bool> = (0..rows)
            .map(|i| truth.as_bools()[i] && truth.is_valid(i))
            .collect();

        // Optionally narrow the batch first.
        let (batch, selected): (Batch, Vec<u32>) = if r.gen_bool(0.5) {
            let sel: Vec<u32> = (0..rows as u32).filter(|_| r.gen_bool(0.6)).collect();
            (batch.with_selection(Arc::new(sel.clone())), sel)
        } else {
            (batch, (0..rows as u32).collect())
        };
        let expect: Vec<u32> = selected
            .iter()
            .copied()
            .filter(|&p| mask[p as usize])
            .collect();
        let mut got = Vec::new();
        CompiledPredicate::compile(&pred).select_into(&batch, &mut got);
        assert_eq!(got, expect, "case {case}");
    }
}

#[test]
fn selected_execution_matches_ground_truth_with_nulls() {
    // Random nullable tables through the full engine vs a row-at-a-time
    // ground truth computed from the raw values: a bare filter, then
    // filter → projection → probe for each of the five join kinds, with
    // NULLs among the probe keys and the build keys. (The materializing
    // engine shares the chain code, so it is no oracle for operator
    // semantics; this is.)
    let mut r = rng(11);
    let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort();
        rows
    };
    for case in 0..25 {
        let rows = r.gen_range(1..2500);
        let schema = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Float)]);
        let mut tb = TableBuilder::new("t", schema, rows);
        let mut raw: Vec<(Option<i64>, Option<f64>)> = Vec::with_capacity(rows);
        for _ in 0..rows {
            let a = (!r.gen_bool(0.25)).then(|| r.gen_range(-20i64..20));
            let b = (!r.gen_bool(0.25)).then(|| r.gen_range(-5.0f64..5.0));
            tb.push_row(vec![int(a), b.map_or(Value::Null, Value::Float)]);
            raw.push((a, b));
        }
        let dim_rows = r.gen_range(0..30);
        let dim_schema = Schema::from_pairs([("dk", DataType::Int), ("w", DataType::Int)]);
        let mut db = TableBuilder::new("d", dim_schema, dim_rows);
        let mut dim: Vec<(Option<i64>, i64)> = Vec::with_capacity(dim_rows);
        for w in 0..dim_rows as i64 {
            let dk = (!r.gen_bool(0.2)).then(|| r.gen_range(-20i64..20));
            db.push_row(vec![int(dk), Value::Int(w)]);
            dim.push((dk, w));
        }
        let mut cat = Catalog::new();
        cat.register(tb.finish()).expect("register table");
        cat.register(db.finish()).expect("register table");
        let engine = Engine::builder(Arc::new(cat)).no_recycler().build();
        let run = |plan: &Plan| {
            engine
                .session()
                .query(plan)
                .unwrap()
                .collect_batch()
                .to_rows()
        };

        // NULL a collapses to false at the filter boundary.
        let cut = r.gen_range(-20i64..20);
        let plan = scan("t", &["a", "b"]).select(Expr::name("a").gt(Expr::lit(cut)));
        let expect: Vec<Vec<Value>> = raw
            .iter()
            .filter(|(a, _)| a.is_some_and(|a| a > cut))
            .map(|(a, b)| vec![Value::Int(a.unwrap()), b.map_or(Value::Null, Value::Float)])
            .collect();
        assert_eq!(run(&plan), expect, "case {case} (cut {cut}, rows {rows})");

        // Filter on b (so NULL a survives to probe), project, then probe.
        let cutf = r.gen_range(-5.0f64..5.0);
        let probe_side = || {
            scan("t", &["a", "b"])
                .select(Expr::name("b").gt(Expr::lit(cutf)))
                .project(vec![
                    (Expr::name("a"), "a"),
                    (Expr::name("a").add(Expr::lit(1)), "a1"),
                ])
        };
        let live: Vec<Vec<Value>> = raw
            .iter()
            .filter(|(_, b)| b.is_some_and(|b| b > cutf))
            .map(|(a, _)| vec![int(*a), int(a.map(|a| a + 1))])
            .collect();
        // SQL equality: a NULL on either side matches nothing.
        let matches = |probe: &Value| -> Vec<Vec<Value>> {
            dim.iter()
                .filter(|(dk, _)| !probe.is_null() && int(*dk) == *probe)
                .map(|(dk, w)| vec![int(*dk), Value::Int(*w)])
                .collect()
        };
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let plan = probe_side().join(
                scan("d", &["dk", "w"]),
                kind,
                vec![Expr::name("a")],
                vec![Expr::name("dk")],
            );
            let mut expect: Vec<Vec<Value>> = Vec::new();
            for l in &live {
                let ms = matches(&l[0]);
                match kind {
                    JoinKind::Semi if !ms.is_empty() => expect.push(l.clone()),
                    JoinKind::Anti if ms.is_empty() => expect.push(l.clone()),
                    JoinKind::LeftOuter if ms.is_empty() => {
                        expect.push([l.clone(), vec![Value::Null, Value::Null]].concat())
                    }
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        expect.extend(ms.into_iter().map(|m| [l.clone(), m].concat()))
                    }
                    _ => {}
                }
            }
            // Within a batch a left-outer probe emits its matched rows
            // before its padded ones, so compare as sets here; emission
            // order is pinned by `parallel_equivalence`.
            assert_eq!(
                sorted(run(&plan)),
                sorted(expect),
                "case {case} {kind:?} (cutf {cutf}, rows {rows}, dim {dim_rows})"
            );
        }
        // Single: a one-row build side broadcast onto every live row.
        let plan = probe_side()
            .single_join(scan("d", &["dk"]).aggregate(vec![], vec![(AggFunc::CountStar, "n")]));
        let expect: Vec<Vec<Value>> = live
            .iter()
            .map(|l| [l.clone(), vec![Value::Int(dim_rows as i64)]].concat())
            .collect();
        assert_eq!(run(&plan), expect, "case {case} single (rows {rows})");
    }
}

/// Run one plan on the pipelined engine (computed, then replayed from
/// cache) and on the MonetDB-style materializing engine; all three row
/// sets must agree.
fn check_three_ways(cat: &Arc<Catalog>, plan: &Plan, label: &str) {
    check_three_ways_with(cat, plan, label, None)
}

fn check_three_ways_with(
    cat: &Arc<Catalog>,
    plan: &Plan,
    label: &str,
    functions: Option<Arc<recycler_db::exec::FnRegistry>>,
) {
    let mut config = RecyclerConfig::deterministic(256 << 20);
    config.spec_min_progress = 0.0;
    let mut builder = Engine::builder(cat.clone()).recycler(config);
    if let Some(f) = &functions {
        builder = builder.functions(f.clone());
    }
    let engine = builder.build();
    let session = engine.session();
    let computed = session.query(plan).unwrap().into_outcome();
    let replayed = session.query(plan).unwrap().into_outcome();

    let mut materializing = MaterializingEngine::naive(cat.clone());
    if let Some(f) = functions {
        materializing = materializing.with_functions(f);
    }
    let mat = materializing.run(plan).unwrap();

    // Sort rows for order-insensitive comparison (some plans end in an
    // aggregate whose emission order is hash-dependent).
    let norm = |b: &Batch| {
        let mut rows = b.to_rows();
        rows.sort();
        rows
    };
    assert_eq!(
        norm(&computed.batch),
        norm(&mat.batch),
        "{label}: selection-vector execution diverges from materializing"
    );
    assert_eq!(
        norm(&computed.batch),
        norm(&replayed.batch),
        "{label}: cache replay diverges from computed result"
    );
}

#[test]
fn tpch_q1_q6_q14_match_materializing_execution() {
    use recycler_db::tpch::{build_query, generate, TpchConfig};
    let cat = generate(&TpchConfig {
        scale: 0.01,
        seed: 3,
    });
    for &q in &[1usize, 6, 14] {
        for seed in 0..3u64 {
            let plan = build_query(q, &mut rng(100 + seed), 0.01, false);
            check_three_ways(&cat, &plan, &format!("Q{q} seed {seed}"));
        }
    }
}

#[test]
fn skyserver_template_matches_materializing_execution() {
    use recycler_db::skyserver::{functions, generate, nearby_query, SkyConfig};
    let cat = generate(&SkyConfig {
        objects: 5_000,
        seed: 9,
    });
    let fns = functions(&cat);
    // Coordinates sit on the synthetic catalog's cluster centers so the
    // cones return non-empty result sets.
    for (i, (ra, dec, radius)) in [(150.0, -5.0, 2.0), (180.0, -1.0, 1.0), (150.0, -5.0, 4.0)]
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
        check_three_ways_with(&cat, &plan, &format!("cone {i}"), Some(fns.clone()));
    }
}
