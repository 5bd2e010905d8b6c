//! End-to-end tests of the SQL text frontend: `Session::prepare_sql` /
//! `Session::sql`, normalization convergence across textual variants,
//! recycler cache sharing between SQL and builder plans, DML lowering,
//! EXPLAIN annotations, and span-carrying errors.

use std::sync::Arc;

use recycler_db::engine::{Engine, SqlOutcome};
use recycler_db::expr::{AggFunc, Expr, Params};
use recycler_db::plan::scan;
use recycler_db::recycler::RecyclerConfig;
use recycler_db::sql::SqlErrorKind;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{DataType, Schema, Value};

fn catalog(rows: i64) -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("tag", DataType::Str),
        ("d", DataType::Date),
    ]);
    let mut b = TableBuilder::new("facts", schema, rows as usize);
    for i in 0..rows {
        b.push_row(vec![
            Value::Int(i % 64),
            Value::Float((i % 211) as f64 * 0.5),
            Value::str(["x", "y", "z"][(i % 3) as usize]),
            Value::Date((i % 400) as i32),
        ]);
    }
    cat.register(b.finish()).expect("register facts");
    let schema = Schema::from_pairs([("id", DataType::Int), ("name", DataType::Str)]);
    let mut b = TableBuilder::new("dim", schema, 64);
    for i in 0..64 {
        b.push_row(vec![Value::Int(i), Value::str(format!("n{i}"))]);
    }
    cat.register(b.finish()).expect("register dim");
    Arc::new(cat)
}

fn det_engine(rows: i64) -> Arc<Engine> {
    let mut c = RecyclerConfig::deterministic(1 << 24);
    c.spec_min_progress = 0.0;
    Engine::builder(catalog(rows)).recycler(c).build()
}

#[test]
fn textual_variants_share_fingerprints_and_cache() {
    // The acceptance property: reordered conjuncts and flipped
    // comparisons are the same statement to the recycler.
    let engine = det_engine(20_000);
    let session = engine.session();
    let v1 = "SELECT k, sum(v) AS sv FROM facts \
              WHERE k < 32 AND v > 1.5 GROUP BY k";
    let v2 = "SELECT k, sum(v) AS sv FROM facts \
              WHERE 1.5 < v AND 32 > k GROUP BY k";
    let p1 = session.prepare_sql(v1).unwrap();
    let p2 = session.prepare_sql(v2).unwrap();
    assert_eq!(
        p1.fingerprint(),
        p2.fingerprint(),
        "textual variants must fingerprint identically:\n{}\nvs\n{}",
        p1.template(),
        p2.template()
    );
    let a = p1.execute(&Params::none()).unwrap().into_outcome();
    assert!(!a.reused(), "first execution computes");
    let b = p2.execute(&Params::none()).unwrap().into_outcome();
    assert!(b.reused(), "the variant must hit the recycler cache");
    assert_eq!(a.batch.to_rows(), b.batch.to_rows());
}

#[test]
fn sql_and_builder_plans_share_cache_entries() {
    let engine = det_engine(20_000);
    let session = engine.session();
    let sql = "SELECT k, sum(v) AS sv FROM facts WHERE k < $limit GROUP BY k";
    let builder = scan("facts", &["k", "v"])
        .select(Expr::name("k").lt(Expr::param("limit")))
        .aggregate(
            vec![(Expr::name("k"), "k")],
            vec![(AggFunc::Sum(Expr::name("v")), "sv")],
        );
    let from_sql = session.prepare_sql(sql).unwrap();
    let from_builder = session.prepare(&builder).unwrap();
    assert_eq!(from_sql.fingerprint(), from_builder.fingerprint());
    let params = Params::new().set("limit", 10i64);
    let a = from_sql.execute(&params).unwrap().into_outcome();
    let b = from_builder.execute(&params).unwrap().into_outcome();
    assert!(b.reused(), "builder plan must reuse the SQL plan's result");
    assert_eq!(a.batch.to_rows(), b.batch.to_rows());
}

#[test]
fn where_above_join_converges_with_prefiltered_join() {
    // Filter placement is normalized: WHERE over the join vs a
    // pre-filtered derived table fingerprint identically.
    let engine = det_engine(5_000);
    let session = engine.session();
    let above = "SELECT k, name FROM facts INNER JOIN dim ON k = id WHERE v > 50.0";
    let p_above = session.prepare_sql(above).unwrap();
    let builder_below = scan("facts", &["k", "v"])
        .select(Expr::name("v").gt(Expr::lit(50.0)))
        .inner_join(
            scan("dim", &["id", "name"]),
            vec![Expr::name("k")],
            vec![Expr::name("id")],
        )
        .project(vec![(Expr::col(0), "k"), (Expr::col(3), "name")]);
    let p_below = session.prepare(&builder_below).unwrap();
    assert_eq!(
        p_above.fingerprint(),
        p_below.fingerprint(),
        "pushdown must converge:\n{}\nvs\n{}",
        p_above.template(),
        p_below.template()
    );
    let a = p_above.execute(&Params::none()).unwrap().into_outcome();
    let b = p_below.execute(&Params::none()).unwrap().into_outcome();
    assert!(b.reused());
    assert_eq!(a.batch.to_rows(), b.batch.to_rows());
}

#[test]
fn comma_join_equals_explicit_join() {
    let engine = det_engine(5_000);
    let session = engine.session();
    let explicit = "SELECT k, name FROM facts INNER JOIN dim ON k = id";
    let comma = "SELECT k, name FROM facts, dim WHERE k = id";
    let p1 = session.prepare_sql(explicit).unwrap();
    let p2 = session.prepare_sql(comma).unwrap();
    assert_eq!(p1.fingerprint(), p2.fingerprint());
    let a = p1.execute(&Params::none()).unwrap().collect_batch();
    let b = p2.execute(&Params::none()).unwrap().collect_batch();
    assert_eq!(a.to_rows(), b.to_rows());
}

#[test]
fn aliases_and_qualified_names() {
    let engine = det_engine(2_000);
    let session = engine.session();
    let sql = "SELECT f.k AS key, d.name FROM facts AS f INNER JOIN dim d \
               ON f.k = d.id WHERE f.v >= 0.0 ORDER BY key LIMIT 7";
    let handle = session
        .prepare_sql(sql)
        .unwrap()
        .execute(&Params::none())
        .unwrap();
    assert_eq!(handle.schema().names(), vec!["key", "name"]);
    let batch = handle.collect_batch();
    assert_eq!(batch.rows(), 7);
    let keys = batch.column(0).as_ints();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "sorted by key");
}

#[test]
fn group_having_union_and_placeholders() {
    let engine = det_engine(5_000);
    let session = engine.session();
    // HAVING with an aggregate not in the select list; positional
    // placeholders numbered left to right.
    let sql = "SELECT tag, count(*) AS n FROM facts WHERE k < ? \
               GROUP BY tag HAVING sum(v) > ? \
               UNION ALL SELECT tag, count(*) AS n FROM facts WHERE k >= 60 GROUP BY tag";
    let prepared = session.prepare_sql(sql).unwrap();
    // Normalization orders conjuncts canonically, so slot order is not
    // textual order — but both positional slots are collected.
    let mut names = prepared.param_names().to_vec();
    names.sort();
    assert_eq!(names, &["1", "2"]);
    let params = Params::new().set("1", 8i64).set("2", 10.0);
    let batch = prepared.execute(&params).unwrap().collect_batch();
    assert!(batch.rows() >= 3, "both union arms contribute");
    // Equivalent single-arm check against a builder plan.
    let arm = scan("facts", &["k", "v", "tag"])
        .select(Expr::name("k").lt(Expr::lit(8)))
        .aggregate(
            vec![(Expr::name("tag"), "tag")],
            vec![
                (AggFunc::CountStar, "n"),
                (AggFunc::Sum(Expr::name("v")), "sv"),
            ],
        )
        .select(Expr::name("sv").gt(Expr::lit(10.0)))
        .project(vec![(Expr::col(0), "tag"), (Expr::col(1), "n")]);
    let rows_sql: usize = session
        .prepare_sql(
            "SELECT tag, count(*) AS n FROM facts WHERE k < 8 GROUP BY tag HAVING sum(v) > 10.0",
        )
        .unwrap()
        .execute(&Params::none())
        .unwrap()
        .collect_batch()
        .rows();
    let rows_builder = session.query(&arm).unwrap().collect_batch().rows();
    assert_eq!(rows_sql, rows_builder);
}

#[test]
fn semi_and_anti_joins() {
    let engine = det_engine(2_000);
    let session = engine.session();
    let semi = session
        .prepare_sql("SELECT k FROM facts SEMI JOIN dim ON k = id WHERE k < 10")
        .unwrap()
        .execute(&Params::none())
        .unwrap()
        .collect_batch();
    assert!(semi.rows() > 0);
    assert!(semi.column(0).as_ints().iter().all(|&k| k < 10));
    let anti = session
        .prepare_sql("SELECT k FROM facts ANTI JOIN dim ON k = id")
        .unwrap()
        .execute(&Params::none())
        .unwrap()
        .collect_batch();
    // dim covers ids 0..64 and facts has k in 0..64: every row matches.
    assert_eq!(anti.rows(), 0);
}

#[test]
fn scalar_functions_and_literals() {
    let engine = det_engine(3_000);
    let session = engine.session();
    let sql = "SELECT k, year(d) AS y, month(d) AS m, substr(tag, 1, 1) AS t0 \
               FROM facts WHERE d >= DATE '1970-06-01' AND tag LIKE 'x%' \
               AND k IN (1, 2, 3) AND v IS NOT NULL LIMIT 20";
    let batch = session
        .prepare_sql(sql)
        .unwrap()
        .execute(&Params::none())
        .unwrap()
        .collect_batch();
    assert!(batch.rows() > 0);
    assert!(batch
        .column(1)
        .as_ints()
        .iter()
        .all(|&y| y == 1970 || y == 1971));
}

#[test]
fn sql_dml_roundtrip_with_invalidation() {
    let engine = det_engine(5_000);
    let session = engine.session();
    let count_sql = "SELECT count(*) AS n FROM facts WHERE k = 63";
    let n0 = {
        let out = session.sql(count_sql, &Params::none()).unwrap();
        out.expect_rows().collect_batch().column(0).as_ints()[0]
    };
    // INSERT through SQL commits an epoch and invalidates the count.
    let out = session
        .sql(
            "INSERT INTO facts (k, v, tag, d) VALUES (63, 1.0, 'x', DATE '1970-01-05'), \
             (63, $v, 'y', DATE '1970-01-06')",
            &Params::new().set("v", 2.5),
        )
        .unwrap();
    let write = out.into_write().expect("INSERT is a write");
    assert_eq!(write.rows_affected, 2);
    let n1 = {
        let out = session.sql(count_sql, &Params::none()).unwrap();
        out.expect_rows().collect_batch().column(0).as_ints()[0]
    };
    assert_eq!(n1, n0 + 2, "inserted rows are visible");
    // DELETE them again (parameterized predicate).
    let out = session
        .sql(
            // No pre-existing k=63 row has d in the 1970-01-05..06 window
            // (impossible residues mod 64/400), so exactly the two
            // inserted rows match.
            "DELETE FROM facts WHERE k = 63 AND d >= $cut AND d <= DATE '1970-01-06'",
            &Params::new().set("cut", Value::Date(4)),
        )
        .unwrap();
    let write = out.into_write().expect("DELETE is a write");
    assert_eq!(write.rows_affected, 2);
    let n2 = {
        let out = session.sql(count_sql, &Params::none()).unwrap();
        out.expect_rows().collect_batch().column(0).as_ints()[0]
    };
    assert_eq!(n2, n0);
    assert_eq!(session.stats().writes, 2);
}

#[test]
fn prepare_sql_rejects_dml() {
    let engine = det_engine(100);
    let session = engine.session();
    let err = session
        .prepare_sql("INSERT INTO facts (k, v, tag, d) VALUES (1, 1.0, 'x', DATE '1970-01-01')")
        .unwrap_err();
    assert!(err.message.contains("Session::sql"), "{err}");
}

#[test]
fn explain_reports_fingerprints_and_cache_states() {
    let engine = det_engine(10_000);
    let session = engine.session();
    let sql = "SELECT k, sum(v) AS sv FROM facts WHERE k < 12 GROUP BY k";
    let prepared = session.prepare_sql(sql).unwrap();
    let cold = prepared.explain();
    assert!(cold.contains("[fp "), "fingerprints annotated: {cold}");
    assert!(cold.contains("scan facts"), "{cold}");
    assert!(
        cold.contains("[cold]"),
        "never-executed plan is cold: {cold}"
    );
    assert!(!cold.contains("[cached]"), "{cold}");
    // The WHERE below the aggregate is a one-stage pipeline span; every
    // span is tagged, once, at its top node.
    assert_eq!(cold.matches("[fused x1]").count(), 1, "{cold}");
    // Execute; the aggregate result materializes, and EXPLAIN shows it.
    let out = prepared.execute(&Params::none()).unwrap().into_outcome();
    assert!(out.materialized(), "deterministic config caches this");
    let warm = prepared.explain();
    assert!(
        warm.contains("[cached]"),
        "after execution some node must be cached:\n{warm}"
    );
    // The no-recycler engine renders without state annotations.
    let plain_engine = Engine::builder(catalog(100)).no_recycler().build();
    let plain = plain_engine.session().prepare_sql(sql).unwrap().explain();
    assert!(!plain.contains("[cold]"), "{plain}");
    assert!(plain.contains("[fp "), "{plain}");
}

#[test]
fn errors_carry_spans_and_kinds() {
    let engine = det_engine(100);
    let session = engine.session();
    // Unknown column: span points at the token.
    let sql = "SELECT bogus FROM facts";
    let err = session.prepare_sql(sql).unwrap_err();
    assert_eq!(&sql[err.span.start..err.span.end], "bogus");
    let rendered = err.render(sql);
    assert!(rendered.contains("^^^^^"), "{rendered}");
    // Unknown table: structured plan kind preserved.
    let err = session.prepare_sql("SELECT x FROM ghost").unwrap_err();
    assert!(
        matches!(
            &err.kind,
            SqlErrorKind::Plan(recycler_db::plan::PlanErrorKind::UnknownTable { table })
                if table == "ghost"
        ),
        "{:?}",
        err.kind
    );
    // Ambiguous column.
    let err = session
        .prepare_sql("SELECT k FROM facts f, facts g WHERE f.k = g.k")
        .unwrap_err();
    assert!(err.message.contains("ambiguous"), "{err}");
    // Aggregates misplaced.
    let err = session
        .prepare_sql("SELECT k FROM facts WHERE sum(v) > 1.0")
        .unwrap_err();
    assert!(err.message.contains("aggregate"), "{err}");
    // Ungrouped column in an aggregate query.
    let err = session
        .prepare_sql("SELECT k, sum(v) AS s FROM facts GROUP BY tag")
        .unwrap_err();
    assert!(err.message.contains("GROUP BY"), "{err}");
    // Lex error.
    let err = session.prepare_sql("SELECT 'open FROM facts").unwrap_err();
    assert!(matches!(err.kind, SqlErrorKind::Lex), "{err}");
}

#[test]
fn select_star_and_bare_table() {
    let engine = det_engine(500);
    let session = engine.session();
    let batch = session
        .prepare_sql("SELECT * FROM dim ORDER BY id DESC LIMIT 3")
        .unwrap()
        .execute(&Params::none())
        .unwrap()
        .collect_batch();
    assert_eq!(batch.width(), 2);
    assert_eq!(batch.column(0).as_ints(), &[63, 62, 61]);
    // A query touching no columns still scans something for row counts.
    let n = session
        .prepare_sql("SELECT count(*) AS n FROM dim")
        .unwrap()
        .execute(&Params::none())
        .unwrap()
        .collect_batch();
    assert_eq!(n.column(0).as_ints(), &[64]);
}

#[test]
fn sql_runs_against_no_recycler_engine() {
    let engine = Engine::builder(catalog(1_000)).no_recycler().build();
    let session = engine.session();
    let out = session
        .sql(
            "SELECT k, v FROM facts WHERE k = $k ORDER BY v DESC LIMIT 5",
            &Params::new().set("k", 3i64),
        )
        .unwrap();
    let batch = match out {
        SqlOutcome::Rows(h) => h.collect_batch(),
        SqlOutcome::Write(_) => panic!("query returned a write outcome"),
    };
    assert!(batch.rows() <= 5);
    assert!(batch.column(0).as_ints().iter().all(|&k| k == 3));
}

#[test]
fn substring_and_like_count_characters() {
    let mut cat = Catalog::new();
    let mut b = TableBuilder::new("words", Schema::from_pairs([("w", DataType::Str)]), 5);
    for w in ["héllo", "é", "ab", "日本語", "x"] {
        b.push_row(vec![Value::str(w)]);
    }
    cat.register(b.finish()).expect("register words");
    let engine = Engine::builder(Arc::new(cat)).no_recycler().build();
    let session = engine.session();
    let rows = |sql: &str| -> Vec<Vec<Value>> {
        match session.sql(sql, &Params::none()).unwrap() {
            SqlOutcome::Rows(h) => h.collect_batch().to_rows(),
            SqlOutcome::Write(_) => panic!("query returned a write outcome"),
        }
    };
    // Positions are characters: byte slicing would cut 'é' in half.
    assert_eq!(
        rows("SELECT substring(w from 2 for 2) AS s FROM words WHERE w = 'héllo'"),
        vec![vec![Value::str("él")]]
    );
    assert_eq!(
        rows("SELECT substr(w, 3, 1) AS s FROM words WHERE w LIKE '日%'"),
        vec![vec![Value::str("語")]]
    );
    // `_` is one character, multi-byte or not.
    assert_eq!(
        rows("SELECT w FROM words WHERE w LIKE '_' ORDER BY w"),
        vec![vec![Value::str("x")], vec![Value::str("é")]]
    );
    assert_eq!(
        rows("SELECT w FROM words WHERE w LIKE 'h_llo'"),
        vec![vec![Value::str("héllo")]]
    );
}

#[test]
fn explain_tags_a_span_below_a_breaker_that_sources_a_span() {
    let engine = det_engine(1_000);
    let sql = "SELECT k, sum(v) AS sv FROM facts WHERE k < 12 GROUP BY k HAVING sum(v) > 0";
    let explain = engine.session().prepare_sql(sql).unwrap().explain();
    // HAVING's select is a span over the aggregate; the aggregate folds
    // its own pipeline, whose WHERE select is a span of its own.
    assert_eq!(explain.matches("[fused x").count(), 2, "{explain}");
    for stage in ["select ($1 > 0)", "select ($0 < 12)"] {
        let line = explain
            .lines()
            .find(|l| l.trim_start().starts_with(stage))
            .unwrap_or_else(|| panic!("no {stage} line:\n{explain}"));
        assert!(line.contains("[fused x"), "{stage} untagged:\n{explain}");
    }
}
