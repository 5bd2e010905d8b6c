//! The 22 TPC-H query patterns as plan builders.
//!
//! Each builder produces one fixed "optimized" plan shape per pattern (the
//! recycler matches optimized plans, §II) with QGEN-style parameters drawn
//! from [`crate::params`]. Correlated subqueries are decorrelated the way a
//! real optimizer would: scalar subqueries become single-row broadcast
//! joins, `EXISTS`/`NOT EXISTS` become semi/anti joins, and Q21's
//! "different supplier" conditions become distinct-count filters.

use rand::rngs::SmallRng;
use rdb_expr::{AggFunc, Expr};
use rdb_plan::{scan, JoinKind, Plan, SortKeyExpr};
use rdb_vector::types::add_months;
use rdb_vector::Value;

use crate::params;

fn col(n: &str) -> Expr {
    Expr::name(n)
}

fn revenue() -> Expr {
    col("l_extendedprice").mul(Expr::lit(1.0).sub(col("l_discount")))
}

fn strs(xs: &[&str]) -> Vec<Value> {
    xs.iter().map(|s| Value::str(*s)).collect()
}

/// Q1 — pricing summary report.
pub fn q1(rng: &mut SmallRng) -> Plan {
    let d = params::q1_date(rng);
    scan(
        "lineitem",
        &[
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
            "l_shipdate",
        ],
    )
    .select(col("l_shipdate").le(Expr::lit(Value::Date(d))))
    .aggregate(
        vec![
            (col("l_returnflag"), "l_returnflag"),
            (col("l_linestatus"), "l_linestatus"),
        ],
        vec![
            (AggFunc::Sum(col("l_quantity")), "sum_qty"),
            (AggFunc::Sum(col("l_extendedprice")), "sum_base_price"),
            (AggFunc::Sum(revenue()), "sum_disc_price"),
            (
                AggFunc::Sum(revenue().mul(Expr::lit(1.0).add(col("l_tax")))),
                "sum_charge",
            ),
            (AggFunc::Avg(col("l_quantity")), "avg_qty"),
            (AggFunc::Avg(col("l_extendedprice")), "avg_price"),
            (AggFunc::Avg(col("l_discount")), "avg_disc"),
            (AggFunc::CountStar, "count_order"),
        ],
    )
    .sort(vec![
        SortKeyExpr::asc(col("l_returnflag")),
        SortKeyExpr::asc(col("l_linestatus")),
    ])
}

/// Q2 — minimum-cost supplier.
pub fn q2(rng: &mut SmallRng) -> Plan {
    let size = params::size(rng);
    let syll = params::type_syllable3(rng);
    let region = params::region(rng);
    let supplier_geo = || {
        scan(
            "supplier",
            &[
                "s_suppkey",
                "s_name",
                "s_address",
                "s_nationkey",
                "s_phone",
                "s_acctbal",
            ],
        )
        .inner_join(
            scan("nation", &["n_nationkey", "n_name", "n_regionkey"]).inner_join(
                scan("region", &["r_regionkey", "r_name"])
                    .select(col("r_name").eq(Expr::lit(Value::str(&region)))),
                vec![col("n_regionkey")],
                vec![col("r_regionkey")],
            ),
            vec![col("s_nationkey")],
            vec![col("n_nationkey")],
        )
    };
    let min_cost = scan("partsupp", &["ps_partkey", "ps_suppkey", "ps_supplycost"])
        .inner_join(
            supplier_geo(),
            vec![col("ps_suppkey")],
            vec![col("s_suppkey")],
        )
        .aggregate(
            vec![(col("ps_partkey"), "mc_partkey")],
            vec![(AggFunc::Min(col("ps_supplycost")), "min_sc")],
        );
    scan("part", &["p_partkey", "p_mfgr", "p_type", "p_size"])
        .select(
            col("p_size")
                .eq(Expr::lit(size))
                .and(col("p_type").like(format!("%{syll}"))),
        )
        .inner_join(
            scan("partsupp", &["ps_partkey", "ps_suppkey", "ps_supplycost"]).inner_join(
                supplier_geo(),
                vec![col("ps_suppkey")],
                vec![col("s_suppkey")],
            ),
            vec![col("p_partkey")],
            vec![col("ps_partkey")],
        )
        .inner_join(
            min_cost,
            vec![col("ps_partkey"), col("ps_supplycost")],
            vec![col("mc_partkey"), col("min_sc")],
        )
        .top_n(
            vec![
                SortKeyExpr::desc(col("s_acctbal")),
                SortKeyExpr::asc(col("n_name")),
                SortKeyExpr::asc(col("s_name")),
                SortKeyExpr::asc(col("p_partkey")),
            ],
            100,
        )
        .project(vec![
            (col("s_acctbal"), "s_acctbal"),
            (col("s_name"), "s_name"),
            (col("n_name"), "n_name"),
            (col("p_partkey"), "p_partkey"),
            (col("p_mfgr"), "p_mfgr"),
            (col("s_address"), "s_address"),
            (col("s_phone"), "s_phone"),
        ])
}

/// Q3 — shipping priority.
pub fn q3(rng: &mut SmallRng) -> Plan {
    let seg = params::segment(rng);
    let d = params::q3_date(rng);
    scan(
        "lineitem",
        &["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    .select(col("l_shipdate").gt(Expr::lit(Value::Date(d))))
    .inner_join(
        scan(
            "orders",
            &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        )
        .select(col("o_orderdate").lt(Expr::lit(Value::Date(d))))
        .inner_join(
            scan("customer", &["c_custkey", "c_mktsegment"])
                .select(col("c_mktsegment").eq(Expr::lit(Value::str(&seg)))),
            vec![col("o_custkey")],
            vec![col("c_custkey")],
        ),
        vec![col("l_orderkey")],
        vec![col("o_orderkey")],
    )
    .aggregate(
        vec![
            (col("l_orderkey"), "l_orderkey"),
            (col("o_orderdate"), "o_orderdate"),
            (col("o_shippriority"), "o_shippriority"),
        ],
        vec![(AggFunc::Sum(revenue()), "revenue")],
    )
    .top_n(
        vec![
            SortKeyExpr::desc(col("revenue")),
            SortKeyExpr::asc(col("o_orderdate")),
        ],
        10,
    )
}

/// Q4 — order priority checking.
pub fn q4(rng: &mut SmallRng) -> Plan {
    let d = params::first_of_month(rng);
    scan("orders", &["o_orderkey", "o_orderdate", "o_orderpriority"])
        .select(
            col("o_orderdate")
                .ge(Expr::lit(Value::Date(d)))
                .and(col("o_orderdate").lt(Expr::lit(Value::Date(add_months(d, 3))))),
        )
        .join(
            scan("lineitem", &["l_orderkey", "l_commitdate", "l_receiptdate"])
                .select(col("l_commitdate").lt(col("l_receiptdate"))),
            JoinKind::Semi,
            vec![col("o_orderkey")],
            vec![col("l_orderkey")],
        )
        .aggregate(
            vec![(col("o_orderpriority"), "o_orderpriority")],
            vec![(AggFunc::CountStar, "order_count")],
        )
        .sort(vec![SortKeyExpr::asc(col("o_orderpriority"))])
}

/// Q5 — local supplier volume.
pub fn q5(rng: &mut SmallRng) -> Plan {
    let region = params::region(rng);
    let d = params::year_start(rng);
    scan(
        "lineitem",
        &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    .inner_join(
        scan("supplier", &["s_suppkey", "s_nationkey"]).inner_join(
            scan("nation", &["n_nationkey", "n_name", "n_regionkey"]).inner_join(
                scan("region", &["r_regionkey", "r_name"])
                    .select(col("r_name").eq(Expr::lit(Value::str(&region)))),
                vec![col("n_regionkey")],
                vec![col("r_regionkey")],
            ),
            vec![col("s_nationkey")],
            vec![col("n_nationkey")],
        ),
        vec![col("l_suppkey")],
        vec![col("s_suppkey")],
    )
    .inner_join(
        scan("orders", &["o_orderkey", "o_custkey", "o_orderdate"]).select(
            col("o_orderdate")
                .ge(Expr::lit(Value::Date(d)))
                .and(col("o_orderdate").lt(Expr::lit(Value::Date(add_months(d, 12))))),
        ),
        vec![col("l_orderkey")],
        vec![col("o_orderkey")],
    )
    .inner_join(
        scan("customer", &["c_custkey", "c_nationkey"]),
        vec![col("o_custkey")],
        vec![col("c_custkey")],
    )
    .select(col("c_nationkey").eq(col("s_nationkey")))
    .aggregate(
        vec![(col("n_name"), "n_name")],
        vec![(AggFunc::Sum(revenue()), "revenue")],
    )
    .sort(vec![SortKeyExpr::desc(col("revenue"))])
}

/// Q6 — forecasting revenue change.
pub fn q6(rng: &mut SmallRng) -> Plan {
    let d = params::year_start(rng);
    let disc = params::discount(rng);
    let qty = params::q6_quantity(rng);
    scan(
        "lineitem",
        &["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    .select(Expr::and_all([
        col("l_shipdate").ge(Expr::lit(Value::Date(d))),
        col("l_shipdate").lt(Expr::lit(Value::Date(add_months(d, 12)))),
        col("l_discount").ge(Expr::lit(disc - 0.01001)),
        col("l_discount").le(Expr::lit(disc + 0.01001)),
        col("l_quantity").lt(Expr::lit(qty as f64)),
    ]))
    .aggregate(
        vec![],
        vec![(
            AggFunc::Sum(col("l_extendedprice").mul(col("l_discount"))),
            "revenue",
        )],
    )
}

/// Q7 — volume shipping between two nations.
pub fn q7(rng: &mut SmallRng) -> Plan {
    let (n1, n2) = params::nation_pair(rng);
    let pair = [Value::str(&n1), Value::str(&n2)];
    scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )
    .select(
        col("l_shipdate")
            .ge(Expr::lit(Value::Date(rdb_vector::date_from_ymd(
                1995, 1, 1,
            ))))
            .and(
                col("l_shipdate").le(Expr::lit(Value::Date(rdb_vector::date_from_ymd(
                    1996, 12, 31,
                )))),
            ),
    )
    .inner_join(
        scan("supplier", &["s_suppkey", "s_nationkey"]).inner_join(
            scan("nation", &["n_nationkey", "n_name"])
                .select(col("n_name").in_list(pair.clone()))
                .project(vec![
                    (col("n_nationkey"), "sn_nationkey"),
                    (col("n_name"), "supp_nation"),
                ]),
            vec![col("s_nationkey")],
            vec![col("sn_nationkey")],
        ),
        vec![col("l_suppkey")],
        vec![col("s_suppkey")],
    )
    .inner_join(
        scan("orders", &["o_orderkey", "o_custkey"]),
        vec![col("l_orderkey")],
        vec![col("o_orderkey")],
    )
    .inner_join(
        scan("customer", &["c_custkey", "c_nationkey"]).inner_join(
            scan("nation", &["n_nationkey", "n_name"])
                .select(col("n_name").in_list(pair))
                .project(vec![
                    (col("n_nationkey"), "cn_nationkey"),
                    (col("n_name"), "cust_nation"),
                ]),
            vec![col("c_nationkey")],
            vec![col("cn_nationkey")],
        ),
        vec![col("o_custkey")],
        vec![col("c_custkey")],
    )
    .select(
        col("supp_nation")
            .clone()
            .eq(Expr::lit(Value::str(&n1)))
            .and(col("cust_nation").eq(Expr::lit(Value::str(&n2))))
            .or(col("supp_nation")
                .eq(Expr::lit(Value::str(&n2)))
                .and(col("cust_nation").eq(Expr::lit(Value::str(&n1))))),
    )
    .aggregate(
        vec![
            (col("supp_nation"), "supp_nation"),
            (col("cust_nation"), "cust_nation"),
            (col("l_shipdate").year(), "l_year"),
        ],
        vec![(AggFunc::Sum(revenue()), "revenue")],
    )
    .sort(vec![
        SortKeyExpr::asc(col("supp_nation")),
        SortKeyExpr::asc(col("cust_nation")),
        SortKeyExpr::asc(col("l_year")),
    ])
}

/// Q8 — national market share.
pub fn q8(rng: &mut SmallRng) -> Plan {
    let nation = params::nation(rng);
    let region = params::region(rng);
    let ptype = params::full_type(rng);
    scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
    )
    .inner_join(
        scan("part", &["p_partkey", "p_type"])
            .select(col("p_type").eq(Expr::lit(Value::str(&ptype)))),
        vec![col("l_partkey")],
        vec![col("p_partkey")],
    )
    .inner_join(
        scan("orders", &["o_orderkey", "o_custkey", "o_orderdate"]).select(
            col("o_orderdate")
                .ge(Expr::lit(Value::Date(rdb_vector::date_from_ymd(
                    1995, 1, 1,
                ))))
                .and(
                    col("o_orderdate").le(Expr::lit(Value::Date(rdb_vector::date_from_ymd(
                        1996, 12, 31,
                    )))),
                ),
        ),
        vec![col("l_orderkey")],
        vec![col("o_orderkey")],
    )
    .inner_join(
        scan("customer", &["c_custkey", "c_nationkey"]).inner_join(
            scan("nation", &["n_nationkey", "n_regionkey"]).inner_join(
                scan("region", &["r_regionkey", "r_name"])
                    .select(col("r_name").eq(Expr::lit(Value::str(&region)))),
                vec![col("n_regionkey")],
                vec![col("r_regionkey")],
            ),
            vec![col("c_nationkey")],
            vec![col("n_nationkey")],
        ),
        vec![col("o_custkey")],
        vec![col("c_custkey")],
    )
    .inner_join(
        scan("supplier", &["s_suppkey", "s_nationkey"]).inner_join(
            scan("nation", &["n_nationkey", "n_name"]).project(vec![
                (col("n_nationkey"), "n2_nationkey"),
                (col("n_name"), "n2_name"),
            ]),
            vec![col("s_nationkey")],
            vec![col("n2_nationkey")],
        ),
        vec![col("l_suppkey")],
        vec![col("s_suppkey")],
    )
    .aggregate(
        vec![(col("o_orderdate").year(), "o_year")],
        vec![
            (
                AggFunc::Sum(Expr::case(
                    vec![(col("n2_name").eq(Expr::lit(Value::str(&nation))), revenue())],
                    Expr::lit(0.0),
                )),
                "nation_volume",
            ),
            (AggFunc::Sum(revenue()), "total_volume"),
        ],
    )
    .project(vec![
        (col("o_year"), "o_year"),
        (col("nation_volume").div(col("total_volume")), "mkt_share"),
    ])
    .sort(vec![SortKeyExpr::asc(col("o_year"))])
}

/// Q9 — product type profit measure.
pub fn q9(rng: &mut SmallRng) -> Plan {
    let color = params::color(rng);
    scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )
    .inner_join(
        scan("part", &["p_partkey", "p_name"]).select(col("p_name").like(format!("%{color}%"))),
        vec![col("l_partkey")],
        vec![col("p_partkey")],
    )
    .inner_join(
        scan("partsupp", &["ps_partkey", "ps_suppkey", "ps_supplycost"]),
        vec![col("l_partkey"), col("l_suppkey")],
        vec![col("ps_partkey"), col("ps_suppkey")],
    )
    .inner_join(
        scan("supplier", &["s_suppkey", "s_nationkey"]).inner_join(
            scan("nation", &["n_nationkey", "n_name"]),
            vec![col("s_nationkey")],
            vec![col("n_nationkey")],
        ),
        vec![col("l_suppkey")],
        vec![col("s_suppkey")],
    )
    .inner_join(
        scan("orders", &["o_orderkey", "o_orderdate"]),
        vec![col("l_orderkey")],
        vec![col("o_orderkey")],
    )
    .aggregate(
        vec![
            (col("n_name"), "nation"),
            (col("o_orderdate").year(), "o_year"),
        ],
        vec![(
            AggFunc::Sum(revenue().sub(col("ps_supplycost").mul(col("l_quantity")))),
            "sum_profit",
        )],
    )
    .sort(vec![
        SortKeyExpr::asc(col("nation")),
        SortKeyExpr::desc(col("o_year")),
    ])
}

/// Q10 — returned item reporting.
pub fn q10(rng: &mut SmallRng) -> Plan {
    let d = params::q10_date(rng);
    scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_extendedprice",
            "l_discount",
            "l_returnflag",
        ],
    )
    .select(col("l_returnflag").eq(Expr::lit("R")))
    .inner_join(
        scan("orders", &["o_orderkey", "o_custkey", "o_orderdate"]).select(
            col("o_orderdate")
                .ge(Expr::lit(Value::Date(d)))
                .and(col("o_orderdate").lt(Expr::lit(Value::Date(add_months(d, 3))))),
        ),
        vec![col("l_orderkey")],
        vec![col("o_orderkey")],
    )
    .inner_join(
        scan(
            "customer",
            &[
                "c_custkey",
                "c_name",
                "c_address",
                "c_nationkey",
                "c_phone",
                "c_acctbal",
            ],
        )
        .inner_join(
            scan("nation", &["n_nationkey", "n_name"]),
            vec![col("c_nationkey")],
            vec![col("n_nationkey")],
        ),
        vec![col("o_custkey")],
        vec![col("c_custkey")],
    )
    .aggregate(
        vec![
            (col("c_custkey"), "c_custkey"),
            (col("c_name"), "c_name"),
            (col("c_acctbal"), "c_acctbal"),
            (col("c_phone"), "c_phone"),
            (col("n_name"), "n_name"),
            (col("c_address"), "c_address"),
        ],
        vec![(AggFunc::Sum(revenue()), "revenue")],
    )
    .top_n(vec![SortKeyExpr::desc(col("revenue"))], 20)
}

/// Q11 — important stock identification.
pub fn q11(rng: &mut SmallRng, scale: f64) -> Plan {
    let nation = params::nation(rng);
    let fraction = params::q11_fraction(scale);
    let ps_nation = || {
        scan(
            "partsupp",
            &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
        )
        .inner_join(
            scan("supplier", &["s_suppkey", "s_nationkey"]).inner_join(
                scan("nation", &["n_nationkey", "n_name"])
                    .select(col("n_name").eq(Expr::lit(Value::str(&nation)))),
                vec![col("s_nationkey")],
                vec![col("n_nationkey")],
            ),
            vec![col("ps_suppkey")],
            vec![col("s_suppkey")],
        )
    };
    let value = col("ps_supplycost").mul(col("ps_availqty"));
    ps_nation()
        .aggregate(
            vec![(col("ps_partkey"), "ps_partkey")],
            vec![(AggFunc::Sum(value.clone()), "value")],
        )
        .single_join(ps_nation().aggregate(vec![], vec![(AggFunc::Sum(value), "total")]))
        .select(col("value").gt(col("total").mul(Expr::lit(fraction))))
        .project(vec![
            (col("ps_partkey"), "ps_partkey"),
            (col("value"), "value"),
        ])
        .sort(vec![SortKeyExpr::desc(col("value"))])
}

/// Q12 — shipping modes and order priority.
pub fn q12(rng: &mut SmallRng) -> Plan {
    let (m1, m2) = params::ship_mode_pair(rng);
    let d = params::year_start(rng);
    let high = col("o_orderpriority").in_list(strs(&["1-URGENT", "2-HIGH"]));
    scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_shipdate",
            "l_commitdate",
            "l_receiptdate",
            "l_shipmode",
        ],
    )
    .select(Expr::and_all([
        col("l_shipmode").in_list([Value::str(&m1), Value::str(&m2)]),
        col("l_commitdate").lt(col("l_receiptdate")),
        col("l_shipdate").lt(col("l_commitdate")),
        col("l_receiptdate").ge(Expr::lit(Value::Date(d))),
        col("l_receiptdate").lt(Expr::lit(Value::Date(add_months(d, 12)))),
    ]))
    .inner_join(
        scan("orders", &["o_orderkey", "o_orderpriority"]),
        vec![col("l_orderkey")],
        vec![col("o_orderkey")],
    )
    .aggregate(
        vec![(col("l_shipmode"), "l_shipmode")],
        vec![
            (
                AggFunc::Sum(Expr::case(vec![(high.clone(), Expr::lit(1))], Expr::lit(0))),
                "high_line_count",
            ),
            (
                AggFunc::Sum(Expr::case(vec![(high, Expr::lit(0))], Expr::lit(1))),
                "low_line_count",
            ),
        ],
    )
    .sort(vec![SortKeyExpr::asc(col("l_shipmode"))])
}

/// Q13 — customer distribution.
pub fn q13(rng: &mut SmallRng) -> Plan {
    let (w1, w2) = params::q13_words(rng);
    scan("customer", &["c_custkey"])
        .join(
            scan("orders", &["o_orderkey", "o_custkey", "o_comment"])
                .select(col("o_comment").not_like(format!("%{w1}%{w2}%")))
                .project(vec![
                    (col("o_orderkey"), "o_orderkey"),
                    (col("o_custkey"), "o_custkey"),
                ]),
            JoinKind::LeftOuter,
            vec![col("c_custkey")],
            vec![col("o_custkey")],
        )
        .aggregate(
            vec![(col("c_custkey"), "c_custkey")],
            vec![(AggFunc::Count(col("o_orderkey")), "c_count")],
        )
        .aggregate(
            vec![(col("c_count"), "c_count")],
            vec![(AggFunc::CountStar, "custdist")],
        )
        .sort(vec![
            SortKeyExpr::desc(col("custdist")),
            SortKeyExpr::desc(col("c_count")),
        ])
}

/// Q14 — promotion effect.
pub fn q14(rng: &mut SmallRng) -> Plan {
    let d = params::month_in_93_97(rng);
    scan(
        "lineitem",
        &["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    .select(
        col("l_shipdate")
            .ge(Expr::lit(Value::Date(d)))
            .and(col("l_shipdate").lt(Expr::lit(Value::Date(add_months(d, 1))))),
    )
    .inner_join(
        scan("part", &["p_partkey", "p_type"]),
        vec![col("l_partkey")],
        vec![col("p_partkey")],
    )
    .aggregate(
        vec![],
        vec![
            (
                AggFunc::Sum(Expr::case(
                    vec![(col("p_type").like("PROMO%"), revenue())],
                    Expr::lit(0.0),
                )),
                "promo",
            ),
            (AggFunc::Sum(revenue()), "total"),
        ],
    )
    .project(vec![(
        Expr::lit(100.0).mul(col("promo")).div(col("total")),
        "promo_revenue",
    )])
}

/// Q15 — top supplier.
pub fn q15(rng: &mut SmallRng) -> Plan {
    let d = params::month_in_93_97(rng);
    let revenue_view = || {
        scan(
            "lineitem",
            &["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        )
        .select(
            col("l_shipdate")
                .ge(Expr::lit(Value::Date(d)))
                .and(col("l_shipdate").lt(Expr::lit(Value::Date(add_months(d, 3))))),
        )
        .aggregate(
            vec![(col("l_suppkey"), "supplier_no")],
            vec![(AggFunc::Sum(revenue()), "total_revenue")],
        )
    };
    scan("supplier", &["s_suppkey", "s_name", "s_address", "s_phone"])
        .inner_join(
            revenue_view(),
            vec![col("s_suppkey")],
            vec![col("supplier_no")],
        )
        .single_join(revenue_view().aggregate(
            vec![],
            vec![(AggFunc::Max(col("total_revenue")), "max_rev")],
        ))
        .select(col("total_revenue").eq(col("max_rev")))
        .project(vec![
            (col("s_suppkey"), "s_suppkey"),
            (col("s_name"), "s_name"),
            (col("s_address"), "s_address"),
            (col("s_phone"), "s_phone"),
            (col("total_revenue"), "total_revenue"),
        ])
        .sort(vec![SortKeyExpr::asc(col("s_suppkey"))])
}

/// Q16 — parts/supplier relationship. `pa` selects the proactive shape
/// (selection directly under the aggregate, ready for cube caching).
pub fn q16(rng: &mut SmallRng, pa: bool) -> Plan {
    let brand = params::brand(rng);
    let tprefix = params::type_prefix2(rng);
    let sizes: Vec<Value> = params::eight_sizes(rng)
        .into_iter()
        .map(Value::Int)
        .collect();
    let predicate = Expr::and_all([
        col("p_brand").ne(Expr::lit(Value::str(&brand))),
        col("p_type").not_like(format!("{tprefix}%")),
        col("p_size").in_list(sizes),
    ]);
    let base = |part: Plan| {
        scan("partsupp", &["ps_partkey", "ps_suppkey"])
            .inner_join(part, vec![col("ps_partkey")], vec![col("p_partkey")])
            .join(
                scan("supplier", &["s_suppkey", "s_comment"])
                    .select(col("s_comment").like("%Customer%Complaints%"))
                    .project(vec![(col("s_suppkey"), "bad_suppkey")]),
                JoinKind::Anti,
                vec![col("ps_suppkey")],
                vec![col("bad_suppkey")],
            )
    };
    let agg = |p: Plan| {
        p.aggregate(
            vec![
                (col("p_brand"), "p_brand"),
                (col("p_type"), "p_type"),
                (col("p_size"), "p_size"),
            ],
            vec![(AggFunc::CountDistinct(col("ps_suppkey")), "supplier_cnt")],
        )
    };
    let part_all = scan("part", &["p_partkey", "p_brand", "p_type", "p_size"]);
    let shaped = if pa {
        // Selection pulled directly under the aggregate so the cube rewrite
        // applies (paper §IV-B, applied to Q16 in §V).
        agg(base(part_all).select(predicate))
    } else {
        agg(base(part_all.select(predicate)))
    };
    shaped.sort(vec![
        SortKeyExpr::desc(col("supplier_cnt")),
        SortKeyExpr::asc(col("p_brand")),
        SortKeyExpr::asc(col("p_type")),
        SortKeyExpr::asc(col("p_size")),
    ])
}

/// Q17 — small-quantity-order revenue.
pub fn q17(rng: &mut SmallRng) -> Plan {
    let brand = params::brand(rng);
    let container = params::container(rng);
    scan("lineitem", &["l_partkey", "l_quantity", "l_extendedprice"])
        .inner_join(
            scan("part", &["p_partkey", "p_brand", "p_container"]).select(
                col("p_brand")
                    .eq(Expr::lit(Value::str(&brand)))
                    .and(col("p_container").eq(Expr::lit(Value::str(&container)))),
            ),
            vec![col("l_partkey")],
            vec![col("p_partkey")],
        )
        .inner_join(
            scan("lineitem", &["l_partkey", "l_quantity"]).aggregate(
                vec![(col("l_partkey"), "a_partkey")],
                vec![(AggFunc::Avg(col("l_quantity")), "avg_qty")],
            ),
            vec![col("l_partkey")],
            vec![col("a_partkey")],
        )
        .select(col("l_quantity").lt(Expr::lit(0.2).mul(col("avg_qty"))))
        .aggregate(
            vec![],
            vec![(AggFunc::Sum(col("l_extendedprice")), "total")],
        )
        .project(vec![(col("total").div(Expr::lit(7.0)), "avg_yearly")])
}

/// Q18 — large volume customers.
pub fn q18(rng: &mut SmallRng) -> Plan {
    let qty = params::q18_quantity(rng);
    let bigs = scan("lineitem", &["l_orderkey", "l_quantity"])
        .aggregate(
            vec![(col("l_orderkey"), "big_okey")],
            vec![(AggFunc::Sum(col("l_quantity")), "sum_qty")],
        )
        .select(col("sum_qty").gt(Expr::lit(qty as f64)))
        .project(vec![(col("big_okey"), "big_okey")]);
    scan("lineitem", &["l_orderkey", "l_quantity"])
        .inner_join(
            scan(
                "orders",
                &["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
            )
            .join(
                bigs,
                JoinKind::Semi,
                vec![col("o_orderkey")],
                vec![col("big_okey")],
            )
            .inner_join(
                scan("customer", &["c_custkey", "c_name"]),
                vec![col("o_custkey")],
                vec![col("c_custkey")],
            ),
            vec![col("l_orderkey")],
            vec![col("o_orderkey")],
        )
        .aggregate(
            vec![
                (col("c_name"), "c_name"),
                (col("c_custkey"), "c_custkey"),
                (col("o_orderkey"), "o_orderkey"),
                (col("o_orderdate"), "o_orderdate"),
                (col("o_totalprice"), "o_totalprice"),
            ],
            vec![(AggFunc::Sum(col("l_quantity")), "sum_qty")],
        )
        .top_n(
            vec![
                SortKeyExpr::desc(col("o_totalprice")),
                SortKeyExpr::asc(col("o_orderdate")),
            ],
            100,
        )
}

/// Q19 — discounted revenue. `pa` selects the proactive shape (the
/// disjunction sits directly under the aggregate for cube caching).
pub fn q19(rng: &mut SmallRng, pa: bool) -> Plan {
    let (q1, q2, q3) = params::q19_quantities(rng);
    let b1 = params::brand(rng);
    let b2 = params::brand(rng);
    let b3 = params::brand(rng);
    let branch = |brand: &str, containers: &[&str], qlo: i64, shi: i64| {
        Expr::and_all([
            col("p_brand").eq(Expr::lit(Value::str(brand))),
            col("p_container").in_list(strs(containers)),
            col("l_quantity").ge(Expr::lit(qlo as f64)),
            col("l_quantity").le(Expr::lit((qlo + 10) as f64)),
            col("p_size").ge(Expr::lit(1)),
            col("p_size").le(Expr::lit(shi)),
        ])
    };
    let disjunction = Expr::or_all([
        branch(&b1, &["SM CASE", "SM BOX", "SM PACK", "SM PKG"], q1, 5),
        branch(&b2, &["MED BAG", "MED BOX", "MED PKG", "MED PACK"], q2, 10),
        branch(&b3, &["LG CASE", "LG BOX", "LG PACK", "LG PKG"], q3, 15),
    ]);
    let joined = scan(
        "lineitem",
        &[
            "l_partkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipinstruct",
            "l_shipmode",
        ],
    )
    .select(
        col("l_shipinstruct")
            .eq(Expr::lit("DELIVER IN PERSON"))
            .and(col("l_shipmode").in_list(strs(&["AIR", "AIR REG"]))),
    )
    .inner_join(
        scan("part", &["p_partkey", "p_brand", "p_size", "p_container"]),
        vec![col("l_partkey")],
        vec![col("p_partkey")],
    );
    let filtered = joined.select(disjunction);
    let agg = filtered.aggregate(vec![], vec![(AggFunc::Sum(revenue()), "revenue")]);
    // The non-PA "optimized" plan pushes the disjunction below the
    // aggregation too; the only difference is that PA mode later applies
    // the cube rewrite to this shape.
    let _ = pa;
    agg
}

/// Q20 — potential part promotion.
pub fn q20(rng: &mut SmallRng) -> Plan {
    let color = params::color(rng);
    let d = params::year_start(rng);
    let nation = params::nation(rng);
    let qtys = scan(
        "lineitem",
        &["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )
    .select(
        col("l_shipdate")
            .ge(Expr::lit(Value::Date(d)))
            .and(col("l_shipdate").lt(Expr::lit(Value::Date(add_months(d, 12))))),
    )
    .aggregate(
        vec![
            (col("l_partkey"), "q_partkey"),
            (col("l_suppkey"), "q_suppkey"),
        ],
        vec![(AggFunc::Sum(col("l_quantity")), "q_sum")],
    );
    let eligible = scan("partsupp", &["ps_partkey", "ps_suppkey", "ps_availqty"])
        .join(
            scan("part", &["p_partkey", "p_name"])
                .select(col("p_name").like(format!("{color}%")))
                .project(vec![(col("p_partkey"), "cp_partkey")]),
            JoinKind::Semi,
            vec![col("ps_partkey")],
            vec![col("cp_partkey")],
        )
        .inner_join(
            qtys,
            vec![col("ps_partkey"), col("ps_suppkey")],
            vec![col("q_partkey"), col("q_suppkey")],
        )
        .select(col("ps_availqty").gt(Expr::lit(0.5).mul(col("q_sum"))))
        .project(vec![(col("ps_suppkey"), "ok_suppkey")]);
    scan(
        "supplier",
        &["s_suppkey", "s_name", "s_address", "s_nationkey"],
    )
    .join(
        eligible,
        JoinKind::Semi,
        vec![col("s_suppkey")],
        vec![col("ok_suppkey")],
    )
    .inner_join(
        scan("nation", &["n_nationkey", "n_name"])
            .select(col("n_name").eq(Expr::lit(Value::str(&nation)))),
        vec![col("s_nationkey")],
        vec![col("n_nationkey")],
    )
    .project(vec![
        (col("s_name"), "s_name"),
        (col("s_address"), "s_address"),
    ])
    .sort(vec![SortKeyExpr::asc(col("s_name"))])
}

/// Q21 — suppliers who kept orders waiting.
pub fn q21(rng: &mut SmallRng) -> Plan {
    let nation = params::nation(rng);
    let failed = || {
        scan(
            "lineitem",
            &["l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"],
        )
        .select(col("l_receiptdate").gt(col("l_commitdate")))
    };
    let multi = scan("lineitem", &["l_orderkey", "l_suppkey"])
        .aggregate(
            vec![(col("l_orderkey"), "m_okey")],
            vec![(AggFunc::CountDistinct(col("l_suppkey")), "nsupp")],
        )
        .select(col("nsupp").gt(Expr::lit(1)))
        .project(vec![(col("m_okey"), "m_okey")]);
    let multi_failed = failed()
        .aggregate(
            vec![(col("l_orderkey"), "f_okey")],
            vec![(AggFunc::CountDistinct(col("l_suppkey")), "nfail")],
        )
        .select(col("nfail").gt(Expr::lit(1)))
        .project(vec![(col("f_okey"), "f_okey")]);
    failed()
        .inner_join(
            scan("supplier", &["s_suppkey", "s_name", "s_nationkey"]).inner_join(
                scan("nation", &["n_nationkey", "n_name"])
                    .select(col("n_name").eq(Expr::lit(Value::str(&nation)))),
                vec![col("s_nationkey")],
                vec![col("n_nationkey")],
            ),
            vec![col("l_suppkey")],
            vec![col("s_suppkey")],
        )
        .inner_join(
            scan("orders", &["o_orderkey", "o_orderstatus"])
                .select(col("o_orderstatus").eq(Expr::lit("F"))),
            vec![col("l_orderkey")],
            vec![col("o_orderkey")],
        )
        .join(
            multi,
            JoinKind::Semi,
            vec![col("l_orderkey")],
            vec![col("m_okey")],
        )
        .join(
            multi_failed,
            JoinKind::Anti,
            vec![col("l_orderkey")],
            vec![col("f_okey")],
        )
        .aggregate(
            vec![(col("s_name"), "s_name")],
            vec![(AggFunc::CountStar, "numwait")],
        )
        .top_n(
            vec![
                SortKeyExpr::desc(col("numwait")),
                SortKeyExpr::asc(col("s_name")),
            ],
            100,
        )
}

/// Q22 — global sales opportunity.
pub fn q22(rng: &mut SmallRng) -> Plan {
    let codes: Vec<Value> = params::seven_codes(rng)
        .into_iter()
        .map(Value::from)
        .collect();
    let code_expr = col("c_phone").substr(1, 2);
    let avg_bal = scan("customer", &["c_phone", "c_acctbal"])
        .select(
            col("c_acctbal")
                .gt(Expr::lit(0.0))
                .and(code_expr.clone().in_list(codes.clone())),
        )
        .aggregate(vec![], vec![(AggFunc::Avg(col("c_acctbal")), "avg_bal")]);
    scan("customer", &["c_custkey", "c_phone", "c_acctbal"])
        .select(code_expr.clone().in_list(codes))
        .single_join(avg_bal)
        .select(col("c_acctbal").gt(col("avg_bal")))
        .join(
            scan("orders", &["o_custkey"]),
            JoinKind::Anti,
            vec![col("c_custkey")],
            vec![col("o_custkey")],
        )
        .aggregate(
            vec![(code_expr, "cntrycode")],
            vec![
                (AggFunc::CountStar, "numcust"),
                (AggFunc::Sum(col("c_acctbal")), "totacctbal"),
            ],
        )
        .sort(vec![SortKeyExpr::asc(col("cntrycode"))])
}

/// Build pattern `n` (1..=22) with parameters drawn from `rng`.
///
/// `pa` requests the proactive plan shape for the patterns the paper
/// rewrites (Q16 and Q19; Q1's binning rewrite applies to the standard
/// shape and is performed by [`crate::streams`]).
pub fn build_query(n: usize, rng: &mut SmallRng, scale: f64, pa: bool) -> Plan {
    match n {
        1 => q1(rng),
        2 => q2(rng),
        3 => q3(rng),
        4 => q4(rng),
        5 => q5(rng),
        6 => q6(rng),
        7 => q7(rng),
        8 => q8(rng),
        9 => q9(rng),
        10 => q10(rng),
        11 => q11(rng, scale),
        12 => q12(rng),
        13 => q13(rng),
        14 => q14(rng),
        15 => q15(rng),
        16 => q16(rng, pa),
        17 => q17(rng),
        18 => q18(rng),
        19 => q19(rng, pa),
        20 => q20(rng),
        21 => q21(rng),
        22 => q22(rng),
        other => panic!("no TPC-H pattern Q{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchConfig};
    use rand::SeedableRng;
    use rdb_exec::{build as build_exec, run_to_batch, ExecContext};
    use rdb_storage::Catalog;
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        generate(&TpchConfig {
            scale: 0.005,
            seed: 11,
        })
    }

    #[test]
    fn all_22_queries_bind_and_run() {
        let cat = catalog();
        let ctx = ExecContext::new(cat.clone());
        let mut rng = SmallRng::seed_from_u64(99);
        for n in 1..=22 {
            let plan = build_query(n, &mut rng, 0.005, false);
            let bound = plan
                .bind(&cat)
                .unwrap_or_else(|e| panic!("Q{n} failed to bind: {e}"));
            // The executor runs what `normalize` leaves: no `avg`.
            let bound = rdb_plan::lower_avg(bound);
            let mut tree =
                build_exec(&bound, &ctx).unwrap_or_else(|e| panic!("Q{n} failed to build: {e}"));
            let out = run_to_batch(tree.root.as_mut());
            // Smoke checks: schema is non-empty and execution terminates.
            assert!(!tree.schema.is_empty(), "Q{n} has empty schema");
            // Row-bound sanity for the top-N queries.
            match n {
                2 | 18 | 21 => assert!(out.rows() <= 100, "Q{n} exceeds top-N"),
                3 => assert!(out.rows() <= 10),
                10 => assert!(out.rows() <= 20),
                _ => {}
            }
        }
    }

    #[test]
    fn q1_produces_flag_status_groups() {
        let cat = catalog();
        let ctx = ExecContext::new(cat.clone());
        let mut rng = SmallRng::seed_from_u64(1);
        let bound = rdb_plan::lower_avg(q1(&mut rng).bind(&cat).unwrap());
        let mut tree = build_exec(&bound, &ctx).unwrap();
        let out = run_to_batch(tree.root.as_mut());
        // (returnflag, linestatus) combinations: at most 3 × 2.
        assert!(out.rows() >= 3 && out.rows() <= 6, "got {}", out.rows());
        assert_eq!(tree.schema.names()[0], "l_returnflag");
        // count_order is positive everywhere.
        let counts = out.column(9).as_ints();
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn q6_revenue_matches_manual_computation() {
        let cat = catalog();
        let ctx = ExecContext::new(cat.clone());
        let mut rng = SmallRng::seed_from_u64(5);
        let plan = q6(&mut rng);
        let bound = plan.bind(&cat).unwrap();
        let mut tree = build_exec(&bound, &ctx).unwrap();
        let out = run_to_batch(tree.root.as_mut());
        assert_eq!(out.rows(), 1);
        // Recompute by hand over the raw table.
        let li = cat.get("lineitem").unwrap();
        let column = |name: &str| li.column_by_name(name).unwrap();
        let (ship, disc) = (column("l_shipdate"), column("l_discount"));
        let (qty, price) = (column("l_quantity"), column("l_extendedprice"));
        let (ship, disc) = (ship.as_dates(), disc.as_floats());
        let (qty, price) = (qty.as_floats(), price.as_floats());
        // Extract the parameters back out of the plan's predicate — easier:
        // re-derive them from the same seeded rng.
        let mut rng2 = SmallRng::seed_from_u64(5);
        let d = params::year_start(&mut rng2);
        let dc = params::discount(&mut rng2);
        let qv = params::q6_quantity(&mut rng2) as f64;
        let d_end = add_months(d, 12);
        let expected: f64 = (0..li.rows())
            .filter(|&i| {
                ship[i] >= d
                    && ship[i] < d_end
                    && disc[i] >= dc - 0.01001
                    && disc[i] <= dc + 0.01001
                    && qty[i] < qv
            })
            .map(|i| price[i] * disc[i])
            .sum();
        match out.row(0)[0] {
            Value::Float(got) => assert!((got - expected).abs() < 1e-6),
            Value::Null => assert_eq!(expected, 0.0),
            ref other => panic!("unexpected {other:?}"),
        }
        let _ = params::q6_quantity; // silence path when inlined
    }

    #[test]
    fn q13_histogram_sums_to_customer_count() {
        let cat = catalog();
        let ctx = ExecContext::new(cat.clone());
        let mut rng = SmallRng::seed_from_u64(2);
        let bound = q13(&mut rng).bind(&cat).unwrap();
        let mut tree = build_exec(&bound, &ctx).unwrap();
        let out = run_to_batch(tree.root.as_mut());
        let total: i64 = out.column(1).as_ints().iter().sum();
        assert_eq!(total as usize, cat.get("customer").unwrap().rows());
        // All bucket keys are valid counts (the outer join guarantees
        // customers without orders land in bucket 0, when any exist).
        assert!(out.column(0).as_ints().iter().all(|&c| c >= 0));
    }

    #[test]
    fn q16_pa_shape_matches_standard_results() {
        let cat = catalog();
        let ctx = ExecContext::new(cat.clone());
        let mut a = SmallRng::seed_from_u64(31);
        let mut b = SmallRng::seed_from_u64(31);
        let std_plan = q16(&mut a, false).bind(&cat).unwrap();
        let pa_plan = q16(&mut b, true).bind(&cat).unwrap();
        let mut t1 = build_exec(&std_plan, &ctx).unwrap();
        let mut t2 = build_exec(&pa_plan, &ctx).unwrap();
        let r1 = run_to_batch(t1.root.as_mut());
        let r2 = run_to_batch(t2.root.as_mut());
        assert_eq!(r1.to_rows(), r2.to_rows());
    }

    #[test]
    fn same_seed_same_plan() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        assert_eq!(q3(&mut a), q3(&mut b));
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(q3(&mut a), q3(&mut c));
    }
}
