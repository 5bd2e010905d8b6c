//! Property-style tests over the core data structures and invariants.
//!
//! Sampled deterministically with a seeded RNG (the build environment has
//! no proptest): each property draws a few hundred random cases and checks
//! the invariant on every one, printing the failing case on violation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler_db::expr::{like::like_match, AggFunc, CmpOp, Expr};
use recycler_db::plan::{scan, structural_eq, structural_hash, Plan};
use recycler_db::recycler::{NodeId, RecyclerGraph};
use recycler_db::vector::types::{date_from_ymd, ymd_from_date};
use recycler_db::vector::{Column, DataType, Schema, Value};

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

// ---- calendar dates -------------------------------------------------------

#[test]
fn date_roundtrip() {
    let mut rng = rng(1);
    for _ in 0..2_000 {
        let days = rng.gen_range(-200_000i32..200_000);
        let (y, m, d) = ymd_from_date(days);
        assert_eq!(date_from_ymd(y, m, d), days);
        assert!((1..=12).contains(&m), "month {m} for {days}");
        assert!((1..=31).contains(&d), "day {d} for {days}");
    }
}

#[test]
fn date_order_preserved() {
    let mut rng = rng(2);
    for _ in 0..2_000 {
        let a = rng.gen_range(-100_000i32..100_000);
        let b = rng.gen_range(-100_000i32..100_000);
        let (ya, ma, da) = ymd_from_date(a);
        let (yb, mb, db) = ymd_from_date(b);
        assert_eq!(a.cmp(&b), (ya, ma, da).cmp(&(yb, mb, db)));
    }
}

// ---- LIKE matching vs. a naive reference ----------------------------------

/// Exponential-time but obviously-correct reference matcher.
fn like_ref(text: &[u8], pat: &[u8]) -> bool {
    match (pat.first(), text.first()) {
        (None, None) => true,
        (None, Some(_)) => false,
        (Some(b'%'), _) => {
            like_ref(text, &pat[1..]) || (!text.is_empty() && like_ref(&text[1..], pat))
        }
        (Some(b'_'), Some(_)) => like_ref(&text[1..], &pat[1..]),
        (Some(c), Some(t)) if c == t => like_ref(&text[1..], &pat[1..]),
        _ => false,
    }
}

fn sample_string(rng: &mut SmallRng, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

#[test]
fn like_matches_reference() {
    let mut rng = rng(3);
    for _ in 0..3_000 {
        let text = sample_string(&mut rng, b"abc", 12);
        let pat = sample_string(&mut rng, b"abc%_", 8);
        assert_eq!(
            like_match(&text, &pat),
            like_ref(text.as_bytes(), pat.as_bytes()),
            "text={text:?} pat={pat:?}"
        );
    }
}

// ---- predicate implication soundness ---------------------------------------

#[test]
fn implication_is_sound() {
    let mut rng = rng(4);
    for _ in 0..3_000 {
        let (lo1, hi1) = (rng.gen_range(-50i64..50), rng.gen_range(-50i64..50));
        let (lo2, hi2) = (rng.gen_range(-50i64..50), rng.gen_range(-50i64..50));
        let probe = rng.gen_range(-60i64..60);
        let p = Expr::col(0)
            .ge(Expr::lit(lo1))
            .and(Expr::col(0).le(Expr::lit(hi1)));
        let q = Expr::col(0)
            .ge(Expr::lit(lo2))
            .and(Expr::col(0).le(Expr::lit(hi2)));
        if recycler_db::expr::implies(&p, &q) {
            let sat = |lo: i64, hi: i64| probe >= lo && probe <= hi;
            if sat(lo1, hi1) {
                assert!(
                    sat(lo2, hi2),
                    "p=[{lo1},{hi1}] q=[{lo2},{hi2}] probe={probe}"
                );
            }
        }
    }
}

#[test]
fn implication_handles_strictness() {
    let mut rng = rng(5);
    for _ in 0..500 {
        let bound = rng.gen_range(-50i64..50);
        let strict = Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(bound)),
        );
        let loose = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(bound)),
        );
        assert!(recycler_db::expr::implies(&strict, &loose));
    }
}

// ---- column/batch invariants ------------------------------------------------

#[test]
fn take_then_concat_roundtrip() {
    let mut rng = rng(6);
    for _ in 0..300 {
        let n = rng.gen_range(1..100usize);
        let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let col = Column::from_ints(vals.clone());
        let split = n / 2;
        let left: Vec<u32> = (0..split as u32).collect();
        let right: Vec<u32> = (split as u32..n as u32).collect();
        let a = col.take(&left);
        let b = col.take(&right);
        let joined = Column::concat(&[&a, &b]);
        assert_eq!(joined.as_ints(), &vals[..]);
    }
}

#[test]
fn filter_never_grows() {
    let mut rng = rng(7);
    for _ in 0..300 {
        let n = rng.gen_range(0..80usize);
        let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(-100i64..100)).collect();
        let pivot = rng.gen_range(-100i64..100);
        let col = Column::from_ints(vals.clone());
        let mask: Vec<bool> = vals.iter().map(|&v| v < pivot).collect();
        let filtered = col.filter(&mask);
        assert!(filtered.len() <= col.len());
        assert_eq!(filtered.len(), mask.iter().filter(|&&b| b).count());
        assert!(filtered
            .to_values()
            .iter()
            .all(|v| v.as_int().unwrap() < pivot));
    }
}

// ---- recycler graph invariants ----------------------------------------------

fn arbitrary_plan(sel: i64, wide: bool, agg_on_k: bool) -> recycler_db::plan::Plan {
    let cols: &[&str] = if wide { &["k", "v"] } else { &["k"] };
    let p = scan("t", cols).select(Expr::col(0).lt(Expr::lit(sel)));
    if agg_on_k {
        p.aggregate(
            vec![(Expr::col(0), "k")],
            vec![(recycler_db::expr::AggFunc::CountStar, "n")],
        )
    } else {
        p
    }
}

fn schema_of(_p: &recycler_db::plan::Plan) -> Schema {
    Schema::from_pairs([("k", DataType::Int)])
}

/// Matching is idempotent: re-inserting any already-inserted plan adds no
/// nodes and matches the same ids.
#[test]
fn match_or_insert_idempotent() {
    let mut rng = rng(8);
    for _ in 0..50 {
        let count = rng.gen_range(1..20usize);
        let plans: Vec<(i64, bool, bool)> = (0..count)
            .map(|_| (rng.gen_range(0i64..5), rng.gen_bool(0.5), rng.gen_bool(0.5)))
            .collect();
        let mut g = RecyclerGraph::new();
        let mut ids = Vec::new();
        for (s, w, a) in &plans {
            let p = arbitrary_plan(*s, *w, *a);
            let m = g.match_or_insert(&p, &schema_of);
            ids.push(m.id);
        }
        let size = g.len();
        for ((s, w, a), expect) in plans.iter().zip(&ids) {
            let p = arbitrary_plan(*s, *w, *a);
            let m = g.match_or_insert(&p, &schema_of);
            assert_eq!(m.id, *expect, "re-match must find the same node");
            assert_eq!(m.inserted_count(), 0);
        }
        assert_eq!(g.len(), size, "idempotent re-insertions");
    }
}

/// Structural hash is consistent with structural equality.
#[test]
fn structural_hash_consistent() {
    let mut rng = rng(9);
    for _ in 0..2_000 {
        let p1 = arbitrary_plan(rng.gen_range(0i64..4), rng.gen_bool(0.5), rng.gen_bool(0.5));
        let p2 = arbitrary_plan(rng.gen_range(0i64..4), rng.gen_bool(0.5), rng.gen_bool(0.5));
        if structural_eq(&p1, &p2) {
            assert_eq!(structural_hash(&p1), structural_hash(&p2));
        }
        assert!(structural_eq(&p1, &p1));
    }
}

/// Materialize/evict round-trips restore hR exactly (no aging).
///
/// References are generated the way real queries produce them: a query that
/// could reuse a node could also have reused each of its descendants, so
/// bumping node `i` also bumps everything below it (the paper's invariant
/// `h_descendant >= h_ancestor`; Eq. 3/4 are only exact inverses under it).
#[test]
fn materialize_evict_restores_h() {
    let mut rng = rng(10);
    for _ in 0..100 {
        let bump_count = rng.gen_range(1..30usize);
        let bumps: Vec<usize> = (0..bump_count).map(|_| rng.gen_range(0..3usize)).collect();
        let mut g = RecyclerGraph::new();
        let p = arbitrary_plan(1, true, true);
        let m = g.match_or_insert(&p, &schema_of);
        let nodes = [m.id, m.children[0].id, m.children[0].children[0].id];
        for &b in &bumps {
            for &n in &nodes[b..] {
                g.bump_h(n, 1.0);
            }
        }
        let before: Vec<f64> = nodes.iter().map(|&n| g.decayed_h(n, 1.0)).collect();
        g.on_materialized(nodes[0], 1.0);
        g.on_evicted(nodes[0], 1.0);
        let after: Vec<f64> = nodes.iter().map(|&n| g.decayed_h(n, 1.0)).collect();
        for (x, y) in before.iter().zip(&after) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        let _ = NodeId(0);
    }
}

// ---- cache invariants ---------------------------------------------------------

/// The cache never exceeds its capacity, whatever the insertion sequence.
#[test]
fn cache_respects_capacity() {
    use recycler_db::exec::MaterializedResult;
    use recycler_db::recycler::RecyclerCache;
    use recycler_db::vector::Batch;
    use std::sync::Arc;

    let mut rng = rng(11);
    for _ in 0..50 {
        let count = rng.gen_range(1..40usize);
        let mut cache = RecyclerCache::new(2_000);
        for i in 0..count {
            let s = rng.gen_range(1..200usize);
            let b = rng.gen_range(0.0f64..10.0);
            let col = Column::from_ints(vec![0; s]);
            let r = Arc::new(MaterializedResult::from_batches(
                Schema::from_pairs([("x", DataType::Int)]),
                &[Batch::new(vec![col])],
            ));
            let _ = cache.insert(NodeId(i as u32), r, b, vec![]);
            assert!(cache.used() <= 2_000, "over budget: {}", cache.used());
        }
        // Flush empties completely.
        cache.flush();
        assert_eq!(cache.used(), 0);
        assert_eq!(cache.len(), 0);
    }
}

// ---- golden plan fingerprints ---------------------------------------------------

/// One plan per operator (every join kind, a parameterized table function,
/// the recycler-internal wrappers) plus the TPC-H and SkyServer templates,
/// each raw, bound, normalized and with parameters substituted.
fn golden_plans() -> Vec<(String, Plan)> {
    use recycler_db::plan::{
        fn_scan_exprs, normalize, union_all, JoinKind, SortKeyExpr, StoreMode,
    };

    let t = || scan("t", &["a", "b", "c"]);
    let u = || scan("u", &["x", "y"]);
    let pred = || {
        Expr::col(0)
            .gt(Expr::lit(3))
            .and(Expr::col(2).lt(Expr::param("hi")))
    };
    let join = |kind| t().join(u(), kind, vec![Expr::col(0)], vec![Expr::col(0)]);
    let mut plans: Vec<(String, Plan)> = vec![
        ("scan", t()),
        (
            "fn_scan",
            fn_scan_exprs(
                "f",
                vec![Expr::param("p"), Expr::lit(2.5)],
                Schema::from_pairs([("x", DataType::Int), ("d", DataType::Float)]),
            ),
        ),
        ("select", t().select(pred())),
        (
            "project",
            t().project(vec![
                (Expr::col(1).mul(Expr::lit(2.0)), "double"),
                (Expr::col(0), "a"),
            ]),
        ),
        (
            "aggregate",
            t().aggregate(
                vec![(Expr::col(0), "a")],
                vec![
                    (AggFunc::Sum(Expr::col(1)), "s"),
                    (AggFunc::CountStar, "n"),
                    (AggFunc::CountDistinct(Expr::col(2)), "d"),
                ],
            ),
        ),
        ("join_inner", join(JoinKind::Inner)),
        ("join_left_outer", join(JoinKind::LeftOuter)),
        ("join_semi", join(JoinKind::Semi)),
        ("join_anti", join(JoinKind::Anti)),
        (
            "join_single",
            t().single_join(u().aggregate(vec![], vec![(AggFunc::Max(Expr::col(0)), "m")])),
        ),
        (
            "top_n",
            t().top_n(
                vec![
                    SortKeyExpr::desc(Expr::col(1)),
                    SortKeyExpr::asc(Expr::col(0)),
                ],
                5,
            ),
        ),
        ("sort", t().sort(vec![SortKeyExpr::asc(Expr::col(2))])),
        ("limit", t().limit(7)),
        ("union_all", union_all(vec![t(), t().select(pred())])),
        (
            "cached",
            Plan::Cached {
                tag: 42,
                schema: Schema::from_pairs([("x", DataType::Int)]),
            },
        ),
        ("store", t().select(pred()).store(9, StoreMode::Speculate)),
    ]
    .into_iter()
    .map(|(n, p)| (n.to_string(), p))
    .collect();

    let mut templates = Vec::new();
    let tpch = recycler_db::tpch::generate(&recycler_db::tpch::TpchConfig {
        scale: 0.001,
        seed: 3,
    });
    for n in [1usize, 6, 14] {
        let (tpl, param_gen) = recycler_db::tpch::template(n).unwrap();
        let params = param_gen(&mut rng(5));
        templates.push((format!("tpch_q{n}"), tpl, params, tpch.clone()));
    }
    let sky = recycler_db::skyserver::generate(&recycler_db::skyserver::SkyConfig {
        objects: 200,
        seed: 1,
    });
    let (wide, narrow) = recycler_db::skyserver::session_templates();
    let (ra, dec, r) = recycler_db::skyserver::HOT_PARAMS;
    for (name, tpl) in [("sky_wide", wide), ("sky_narrow", narrow)] {
        let params = recycler_db::skyserver::cone_params(ra, dec, r);
        templates.push((name.to_string(), tpl, params, sky.clone()));
    }
    for (name, tpl, params, catalog) in templates {
        let bound = tpl.bind(&catalog).unwrap();
        let normalized = normalize(&bound, &catalog);
        let concrete = normalized.substitute_params(&params).unwrap();
        plans.push((format!("{name}_raw"), tpl));
        plans.push((format!("{name}_bound"), bound));
        plans.push((format!("{name}_normalized"), normalized));
        plans.push((format!("{name}_concrete"), concrete));
    }
    plans
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Fingerprints captured before the plan-node listings were introduced:
/// `(plan, structural_hash, structural_hash_at ×2, local_hash, signature,
/// FNV-1a of encode_plan)`. A changed value is a cold cache after upgrade
/// and a lineage file that no longer binds.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 6])] = &[
    ("scan", [0x22037c15ad03fddb, 0xa5170cb1ae1403c9, 0xd3f69dd935686d9b, 0x396c89040fb53aaf, 0x0000000080002040, 0x1fb7d868dd7295d9]),
    ("fn_scan", [0x983aff779dc9ccbb, 0x983aff779dc9ccbb, 0x983aff779dc9ccbb, 0x6853dcf6a220f60f, 0x0001000000000000, 0x2b8a18ba855a4748]),
    ("select", [0x5c6485f4fe40ebd1, 0x78625e6f1156304b, 0xe55c15ef2b501691, 0x1da5f7d29dc9d814, 0x0000000080002040, 0x62f097a67fda1b3d]),
    ("project", [0x26f0275c80277a0f, 0xc2a10c7dd3795995, 0xf99a231b7dfbef4f, 0xff82ea0acd76e4ee, 0x0000000080002040, 0x43ebefe40db0f62e]),
    ("aggregate", [0xf1282ab089be4a61, 0x5bd93d12a6de1c3b, 0xb100b6282b691fa1, 0x0d92db2961abe21a, 0x0000000080002040, 0xa61373ad011d813b]),
    ("join_inner", [0xac518c75b928278c, 0xa9782cfec489e0aa, 0x4d4ba93d0c0ec71b, 0x469b2e7585a0492c, 0x0000010084002040, 0x276d8db0ff171eb3]),
    ("join_left_outer", [0xfdeb7fe8bb87c466, 0x7b37468cb48da715, 0x1b2c7a16917c85c7, 0x187334d943168095, 0x0000010084002040, 0xcddbf03a28db8bf4]),
    ("join_semi", [0x19c1760c41a955f8, 0xa9448216822edb14, 0x53f987052779aab1, 0x1b2c4d3ce0e0e438, 0x0000010084002040, 0x81f7dfb5d779bbdd]),
    ("join_anti", [0x719edf803813c114, 0x7e6a786de53bdf50, 0xbfa5eb4be1e3b9dc, 0x25b309530f5bca66, 0x0000010084002040, 0x2866423f013e291e]),
    ("join_single", [0x66593aff336b8943, 0xf56a91c1373bddb6, 0x9dd5658824705cf3, 0x3f631dd750845ac2, 0x0000010084002040, 0x9596b998b3432d3a]),
    ("top_n", [0xca9b79e6e3c3b750, 0x6a4741751a83dd2a, 0x0214fa6970048c90, 0xce35b85aaacae666, 0x0000000080002040, 0xd9fd8021ab8e1683]),
    ("sort", [0x3054e68a7842af10, 0x34619cc2fbd4c4ea, 0xc0e26e856e9439d0, 0xb91ab832c2c3e7b8, 0x0000000080002040, 0xe6302d73c038cf3c]),
    ("limit", [0x2516f1c1ed017725, 0x31c7a63ba88f7cff, 0x389bb90a0465a1e5, 0xbb39cf050c33386c, 0x0000000080002040, 0x4c389ac6636be60d]),
    ("union_all", [0xe9bf3d63291ae577, 0xf4c08bb218bfa9a4, 0x7933a3e9ed66fa7c, 0xea63c3c596e7b153, 0x0000000080002040, 0x65b61bbd7b0f75bf]),
    ("cached", [0xa1ca4435cb5ead8a, 0xa1ca4435cb5ead8a, 0xa1ca4435cb5ead8a, 0xa573c63f5aac7ee2, 0x0000040000000000, 0x0000000000000000]),
    ("store", [0xbf936ad562c54270, 0x3e066c5372d1df72, 0xb6d0b0f1990f30b0, 0x790889e8ed7ede8f, 0x0000000080002040, 0x0000000000000000]),
    ("tpch_q1_raw", [0x4b27f2b068ea965d, 0x2a13b2d8a50e2db0, 0x5d66d14db7185ff3, 0x676d120661019eb3, 0x2008140040840000, 0x51e262ba3f6cc129]),
    ("tpch_q1_bound", [0xfa0b8b769981536a, 0x45f47434a421f53f, 0xeeabe3f799bffe9c, 0x412e7f2ee0ce9e6b, 0x2008140040840000, 0x696ed34fea900225]),
    ("tpch_q1_normalized", [0xfa0b8b769981536a, 0x45f47434a421f53f, 0xeeabe3f799bffe9c, 0x412e7f2ee0ce9e6b, 0x2008140040840000, 0x696ed34fea900225]),
    ("tpch_q1_concrete", [0x4d06b6ba583f31be, 0x3eba90f00f6ee713, 0xb3c6223761b80cc8, 0x412e7f2ee0ce9e6b, 0x2008140040840000, 0xdc66574e806b2d3f]),
    ("tpch_q6_raw", [0xd439ebf78e78f6b8, 0x911b6a2ed34c8a93, 0x540dbbd1144ca554, 0x019a3c11ac62c090, 0x2008000040800000, 0xe8fb9ed3e56713fe]),
    ("tpch_q6_bound", [0x0719bca9c5ce5e11, 0x90855516c7868f3a, 0x938deb2504e50b25, 0x9f36a79054187ae8, 0x2008000040800000, 0x83caa5fd955efdd4]),
    ("tpch_q6_normalized", [0xd47d00095bb28802, 0xa5d780ca096fdd49, 0xc8bb706a331d93f6, 0x9f36a79054187ae8, 0x2008000040800000, 0x0aca4b1b9927e940]),
    ("tpch_q6_concrete", [0x137cbae680488d3e, 0x5b8ad64854b75c45, 0xbff2ddb9fee33a1a, 0x9f36a79054187ae8, 0x2008000040800000, 0xaf51abd97c662f16]),
    ("tpch_q14_raw", [0xa698d4545c5abe2e, 0xb356523fa973b9d0, 0xfbbcd35ea3ff408b, 0x785f9df77038e6f6, 0x2000004040900000, 0xa4d05f5725288006]),
    ("tpch_q14_bound", [0x3162ee88dfd62a9d, 0x7407c11180139df0, 0xeaa10da07e2ded1d, 0x1ea9f795282f6b8b, 0x2000004040900000, 0x6bc7aadccb5954bf]),
    ("tpch_q14_normalized", [0x523521a480ae92ce, 0xa8f8daa42f5030f2, 0x5b52046405a7eb21, 0x1ea9f795282f6b8b, 0x2000004040900000, 0x89b16ef5264bce45]),
    ("tpch_q14_concrete", [0xc02deb04732fe852, 0x50680ef514ff0250, 0x99fa4c6c0fabd3b5, 0x1ea9f795282f6b8b, 0x2000004040900000, 0xedabbaae9c588026]),
    ("sky_wide_raw", [0xb5ddaaeac8b0cfa5, 0x1d7bd6131e6e6d88, 0xdb65dd9fa73d240a, 0x3add7c265dbcc405, 0x000204060080020c, 0xd866f37fe852d01d]),
    ("sky_wide_bound", [0x4aa57c3193930bd3, 0x287048ac5d68b8ab, 0xf8301f0333cf0240, 0x3add7c265dbcc405, 0x000204060080020c, 0x575e126184cf0731]),
    ("sky_wide_normalized", [0x4aa57c3193930bd3, 0x287048ac5d68b8ab, 0xf8301f0333cf0240, 0x3add7c265dbcc405, 0x000204060080020c, 0x575e126184cf0731]),
    ("sky_wide_concrete", [0x40a483189ff5d1de, 0xe302b6dabafad5f6, 0x1c8e497abfa3732d, 0x3add7c265dbcc405, 0x0002040600800208, 0xf8be42fa967ff95d]),
    ("sky_narrow_raw", [0x2fc8b93cd94631db, 0xe0796a47456e5981, 0xb432ae99c0aa196a, 0x3add7c265dbcc405, 0x000204000080000c, 0xcf36c29a7d9b2a64]),
    ("sky_narrow_bound", [0x5102d2adb4d59bab, 0xe9fe3c3c32dd00aa, 0x0ffb5f5cf68dc9e0, 0x3add7c265dbcc405, 0x000204000080000c, 0xc9bcc74518fa34a8]),
    ("sky_narrow_normalized", [0x5102d2adb4d59bab, 0xe9fe3c3c32dd00aa, 0x0ffb5f5cf68dc9e0, 0x3add7c265dbcc405, 0x000204000080000c, 0xc9bcc74518fa34a8]),
    ("sky_narrow_concrete", [0x15af48d5836d7af6, 0x0a35a0d6bc53a397, 0x75e585ea5f64b80d, 0x3add7c265dbcc405, 0x0002040200800008, 0xd201c3b86f6543b8]),
];

#[test]
fn plan_fingerprints_are_pinned() {
    use recycler_db::plan::{local_eq, local_hash, signature, structural_hash_at};
    use recycler_db::wal::codec::encode_plan;

    fn all_nodes<'a>(p: &'a Plan, out: &mut Vec<&'a Plan>) {
        out.push(p);
        for c in p.children() {
            all_nodes(c, out);
        }
    }

    let epochs_a = |t: &str| match t {
        "lineitem" => 3,
        "part" => 7,
        _ => 1,
    };
    let epochs_b = |t: &str| t.len() as u64 * 11;
    let mut actual = Vec::new();
    for (name, plan) in golden_plans() {
        let encoded = match plan {
            Plan::Cached { .. } | Plan::Store { .. } => 0,
            _ => fnv1a(&encode_plan(&plan).unwrap()),
        };
        actual.push((
            name.clone(),
            [
                structural_hash(&plan),
                structural_hash_at(&plan, &epochs_a),
                structural_hash_at(&plan, &epochs_b),
                local_hash(&plan),
                signature(&plan),
                encoded,
            ],
        ));
        let mut nodes = Vec::new();
        all_nodes(&plan, &mut nodes);
        for node in nodes {
            assert!(local_eq(node, &node.clone()), "{name}: {}", node.label());
        }
    }
    let rendered: String = actual
        .iter()
        .map(|(n, v)| {
            let v: Vec<String> = v.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    (\"{n}\", [{}]),\n", v.join(", "))
        })
        .collect();
    let expected: Vec<(String, [u64; 6])> =
        GOLDEN.iter().map(|(n, v)| (n.to_string(), *v)).collect();
    assert!(actual == expected, "fingerprints moved; now:\n{rendered}");
}

// ---- value total order ----------------------------------------------------------

#[test]
fn value_ordering_is_total_and_antisymmetric() {
    let mut rng = rng(12);
    for _ in 0..2_000 {
        let a = rng.gen_range(-1000i64..1000);
        let b = rng.gen_range(-1000.0f64..1000.0);
        let va = Value::Int(a);
        let vb = Value::Float(b);
        let ab = va.cmp(&vb);
        let ba = vb.cmp(&va);
        assert_eq!(ab, ba.reverse());
    }
}
