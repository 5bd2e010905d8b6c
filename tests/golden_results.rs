//! Golden query results, pinned by digest.
//!
//! Each query's answer is rendered the way a pgwire text client receives
//! it (column names and type OIDs, then every row through
//! `protocol::text_value`) and hashed with FNV-1a. A moved digest means a
//! query answers differently than it used to. The answers must also be
//! identical at DOP 1, 2, 4 and 8 and on a repeat run, which may be served
//! from the recycler cache.
//!
//! Pinned: TPC-H Q1 (builder template and SQL text, which must agree), and
//! Q3, Q10, Q13, Q16, Q17, Q18, Q21 and Q22 (builder only: the SQL subset
//! has no derived tables or single joins), and `avg` over an int column, a
//! float column, an all-NULL group and an empty global input. The `avg`
//! values are also checked bit for bit against an `f64` fold in scan
//! order; the int column's sums stay below 2^53, where that fold is exact.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use recycler_db::engine::Engine;
use recycler_db::expr::{AggFunc, Expr, Params};
use recycler_db::plan::{scan, Plan};
use recycler_db::server::protocol::{text_value, type_oid};
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::tpch::sql::Q1_SQL;
use recycler_db::tpch::templates::{q1_params, q1_template};
use recycler_db::tpch::{build_query, generate, TpchConfig};
use recycler_db::vector::{Batch, DataType, Schema, Value};

const DOPS: [usize; 4] = [1, 2, 4, 8];
const SCALE: f64 = 0.01;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Row description, then one line per data row, as text-format pgwire
/// renders them (`NULL` for SQL NULL).
fn render(schema: &Schema, batch: &Batch) -> String {
    let mut out: Vec<String> = vec![schema
        .fields()
        .iter()
        .map(|f| format!("{}:{}", f.name, type_oid(f.dtype)))
        .collect::<Vec<_>>()
        .join("|")];
    for row in batch.to_rows() {
        let cells: Vec<String> = row
            .iter()
            .map(|v| text_value(v).unwrap_or_else(|| "NULL".to_string()))
            .collect();
        out.push(cells.join("|"));
    }
    out.join("\n")
}

/// How a golden query reaches the engine.
enum Query {
    Plan(Plan),
    Template(Plan, Params),
    Sql(&'static str, Params),
}

/// Run `query` twice on `engine` (the repeat may be a cache hit) and
/// return the rendering, asserting both runs agree.
fn run(engine: &Arc<Engine>, query: &Query, what: &str) -> String {
    let session = engine.session();
    let once = || {
        let handle = match query {
            Query::Plan(p) => session.query(p).unwrap(),
            Query::Template(p, params) => session.prepare(p).unwrap().execute(params).unwrap(),
            Query::Sql(sql, params) => session
                .prepare_sql(sql)
                .unwrap_or_else(|e| panic!("{what}: {}", e.render(sql)))
                .execute(params)
                .unwrap(),
        };
        let schema = handle.schema().clone();
        let out = handle.into_outcome();
        render(&schema, &out.batch)
    };
    let first = once();
    assert_eq!(first, once(), "{what}: repeat run diverged");
    first
}

/// Render `query` at every DOP, assert the renderings are identical, and
/// return it.
fn at_every_dop(catalog: &Arc<Catalog>, query: &Query, what: &str) -> String {
    // The DOP contract holds on any host, so ask for the literal worker
    // count even where it oversubscribes the cores.
    std::env::set_var("RDB_ALLOW_OVERSUBSCRIBE", "1");
    let mut serial: Option<String> = None;
    for dop in DOPS {
        let engine = Engine::builder(catalog.clone()).parallelism(dop).build();
        let text = run(&engine, query, what);
        match &serial {
            None => serial = Some(text),
            Some(s) => assert_eq!(*s, text, "{what}: DOP {dop} diverged from DOP 1"),
        }
    }
    serial.unwrap()
}

fn assert_digest(what: &str, text: &str, want: u64) {
    let got = fnv1a(text.as_bytes());
    assert!(
        got == want,
        "{what}: digest {got:#018x}, pinned {want:#018x}; rendering:\n{text}"
    );
}

#[test]
fn tpch_results_are_pinned() {
    let catalog = generate(&TpchConfig {
        scale: SCALE,
        seed: 26,
    });
    let q1_params = q1_params(&mut SmallRng::seed_from_u64(1));
    let builder = at_every_dop(
        &catalog,
        &Query::Template(q1_template(), q1_params.clone()),
        "Q1 builder",
    );
    let sql = at_every_dop(&catalog, &Query::Sql(Q1_SQL, q1_params), "Q1 SQL");
    assert_eq!(builder, sql, "Q1: SQL and builder answers differ");
    assert_digest("Q1", &builder, 0xeb688352b2a4bf2b);

    let mut rng = SmallRng::seed_from_u64(17);
    let q17 = Query::Plan(build_query(17, &mut rng, SCALE, false));
    assert_digest(
        "Q17",
        &at_every_dop(&catalog, &q17, "Q17"),
        0x5d1515edd6eed9f5,
    );

    // The other aggregating patterns, each at its own number's seed:
    // multi-key string and date groups (Q3, Q10, Q18), a count of counts
    // (Q13), `count(distinct)` (Q16, Q21) and aggregates keyed by all
    // 15k order keys (Q18, Q21).
    for (n, want) in [
        (3, 0xc45b1771eb785f0e),
        (10, 0xc8d1305b5ac5b063),
        (13, 0x83f60988ec265ae3),
        (16, 0xcdc3f34e982f4d7a),
        (18, 0x289c3474fc367b03),
        (21, 0x6ba45c51e9a01a69),
    ] {
        let what = format!("Q{n}");
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let q = Query::Plan(build_query(n, &mut rng, SCALE, false));
        assert_digest(&what, &at_every_dop(&catalog, &q, &what), want);
    }

    // TPC-H's generator leaves every third customer without orders; this
    // one spreads orders over all of them, which would leave Q22 (customers
    // without orders) empty.
    catalog
        .versioned("orders")
        .unwrap()
        .delete_where(|t| {
            let custkey = t.column_by_name("o_custkey").unwrap();
            custkey.as_ints().iter().map(|&c| c % 3 == 0).collect()
        })
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(22);
    let q22 = Query::Plan(build_query(22, &mut rng, SCALE, false));
    assert_digest(
        "Q22",
        &at_every_dop(&catalog, &q22, "Q22"),
        0x88ee0beae38cf7f4,
    );
}

/// Rows of `a(g, i, f)`: groups 0 and 1 interleaved with group 2, whose
/// `i` and `f` are all NULL; group 1 has scattered NULLs. `i` sits near
/// 2·10^12, so a group's sum stays far below 2^53.
fn avg_rows() -> Vec<(i64, Option<i64>, Option<f64>)> {
    (0..4_500i64)
        .map(|k| {
            let g = k % 3;
            let i = 2_000_000_000_000 + k * 7_919;
            let f = 0.1 * k as f64 + 1e-3 * (k % 7) as f64;
            match g {
                0 => (g, Some(i), Some(f)),
                1 => (g, (k % 4 != 1).then_some(i), (k % 5 != 1).then_some(f)),
                _ => (g, None, None),
            }
        })
        .collect()
}

fn avg_catalog() -> Arc<Catalog> {
    let schema = Schema::from_pairs([
        ("g", DataType::Int),
        ("i", DataType::Int),
        ("f", DataType::Float),
    ]);
    let rows = avg_rows();
    let mut b = TableBuilder::new("a", schema, rows.len());
    for (g, i, f) in rows {
        b.push_row(vec![
            Value::Int(g),
            i.map_or(Value::Null, Value::Int),
            f.map_or(Value::Null, Value::Float),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish()).unwrap();
    Arc::new(cat)
}

/// `sum / count` of the non-NULL values, summed as `f64` in scan order;
/// NULL when there are none.
fn f64_fold(values: impl Iterator<Item = Option<f64>>) -> Value {
    let (sum, count) = values
        .flatten()
        .fold((0.0f64, 0i64), |(s, n), v| (s + v, n + 1));
    if count == 0 {
        Value::Null
    } else {
        Value::Float(sum / count as f64)
    }
}

fn avgs() -> Vec<(AggFunc, &'static str)> {
    vec![
        (AggFunc::Avg(Expr::name("i")), "avg_i"),
        (AggFunc::Avg(Expr::name("f")), "avg_f"),
    ]
}

#[test]
fn avg_results_are_pinned() {
    let catalog = avg_catalog();
    let rows = avg_rows();
    let expected = |g: Option<i64>| -> Vec<Value> {
        let of_group = || rows.iter().filter(move |r| g.is_none_or(|g| r.0 == g));
        vec![
            f64_fold(of_group().map(|r| r.1.map(|i| i as f64))),
            f64_fold(of_group().map(|r| r.2)),
        ]
    };

    let grouped = scan("a", &["g", "i", "f"]).aggregate(vec![(Expr::name("g"), "g")], avgs());
    let text = at_every_dop(&catalog, &Query::Plan(grouped.clone()), "grouped avg");
    let engine = Engine::builder(catalog.clone()).build();
    let got = engine.session().query(&grouped).unwrap().into_outcome();
    for (g, row) in got.batch.to_rows().iter().enumerate() {
        let g = g as i64;
        assert_eq!(row[0], Value::Int(g));
        assert_eq!(row[1..], expected(Some(g)), "group {g}: avg vs f64 fold");
    }
    assert_eq!(got.batch.rows(), 3);
    assert_eq!(got.batch.row(2)[1..], [Value::Null, Value::Null]);
    assert_digest("grouped avg", &text, 0xe8eac07d6fb94298);

    let global = scan("a", &["g", "i", "f"]).aggregate(vec![], avgs());
    let text = at_every_dop(&catalog, &Query::Plan(global.clone()), "global avg");
    let got = engine.session().query(&global).unwrap().into_outcome();
    assert_eq!(got.batch.to_rows(), vec![expected(None)]);
    assert_digest("global avg", &text, 0x161e35335c1fba42);

    let empty = scan("a", &["g", "i", "f"])
        .select(Expr::name("g").gt(Expr::lit(100i64)))
        .aggregate(vec![], avgs());
    let text = at_every_dop(&catalog, &Query::Plan(empty.clone()), "empty avg");
    let got = engine.session().query(&empty).unwrap().into_outcome();
    assert_eq!(got.batch.to_rows(), vec![vec![Value::Null, Value::Null]]);
    assert_digest("empty avg", &text, 0x7eff0018b2ab66ba);
}
