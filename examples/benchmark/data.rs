//! Workload inputs, all derived from `--seed`: the TPC-H catalog, the
//! dashboard statement pool, the ad-hoc statement stream, and the write
//! schedule. The program under test receives only these generated inputs,
//! never the seed.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rdb_engine::Engine;
use rdb_expr::{Expr, Params};
use rdb_server::protocol::text_value;
use rdb_storage::Catalog;
use rdb_tpch::{generate, TpchConfig};
use rdb_vector::{date_from_ymd, Value};

/// TPC-H scale factor of every workload: ~120 k lineitem rows.
pub const SCALE: f64 = 0.02;

/// The seeded TPC-H database.
pub fn catalog(seed: u64) -> Arc<Catalog> {
    generate(&TpchConfig { scale: SCALE, seed })
}

/// An independent generator for one purpose (`stream`) under one seed.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

// ---------------------------------------------------------------------------
// Dashboard pool
// ---------------------------------------------------------------------------

/// Selection returning ~2 k rows: six weeks of shipments.
const SEL_WIDE_SQL: &str = "\
SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice \
FROM lineitem WHERE l_shipdate >= $lo AND l_shipdate < $hi";

/// Selection returning a few dozen rows: a window of order keys. With the
/// write workload each connection also binds it to its own key range,
/// where the answer is exactly the rows that connection has inserted and
/// not yet deleted.
const SEL_KEYS_SQL: &str = "\
SELECT l_orderkey, l_linenumber, l_quantity \
FROM lineitem WHERE l_orderkey >= $lo AND l_orderkey < $hi";

/// Index of [`SEL_KEYS_SQL`] in [`Pool::templates`].
pub const SEL_KEYS: usize = 4;

/// Bindings per template in the pool.
const BINDINGS: usize = 8;

/// One statement text of the dashboard pool.
pub struct Template {
    /// Short name, also the wire name of the prepared statement.
    pub name: &'static str,
    /// SQL text with `$name` placeholders.
    pub sql: &'static str,
    /// Placeholder names in the order the server binds wire parameters:
    /// `Prepared::param_names()` of the *normalized* template, which is
    /// not the textual order (normalization reorders conjuncts).
    pub param_order: Vec<String>,
}

impl Template {
    /// Wire text of `params`, in the server's binding order.
    pub fn wire_params(&self, params: &Params) -> Vec<String> {
        self.param_order
            .iter()
            .map(|n| {
                let v = params.get(n).expect("binding covers every placeholder");
                text_value(v).expect("pool parameters are never NULL")
            })
            .collect()
    }
}

/// One executable pool entry: a template with concrete parameters.
pub struct Binding {
    pub template: usize,
    pub params: Params,
    /// `params` as wire text, in the server's binding order.
    pub wire: Vec<String>,
}

/// The dashboard's statement pool: Q1/Q6/Q14 and two selections, eight
/// bindings each.
pub struct Pool {
    pub templates: Vec<Template>,
    pub bindings: Vec<Binding>,
}

impl Pool {
    pub fn new(catalog: &Arc<Catalog>, seed: u64) -> Pool {
        // Parameter order comes from the engine's own prepare, on a
        // throwaway engine over the same catalog.
        let engine = Engine::builder(catalog.clone()).no_recycler().build();
        let session = engine.session();
        let texts: [(&'static str, &'static str); 5] = [
            ("q1", rdb_tpch::sql::Q1_SQL),
            ("q6", rdb_tpch::sql::Q6_SQL),
            ("q14", rdb_tpch::sql::Q14_SQL),
            ("sel_wide", SEL_WIDE_SQL),
            ("sel_keys", SEL_KEYS_SQL),
        ];
        let templates: Vec<Template> = texts
            .into_iter()
            .map(|(name, sql)| Template {
                name,
                sql,
                param_order: session
                    .prepare_sql(sql)
                    .unwrap_or_else(|e| panic!("pool template {name}: {}", e.render(sql)))
                    .param_names()
                    .to_vec(),
            })
            .collect();
        let max_key = max_order_key(catalog);
        let mut rng = rng(seed, 1);
        let mut bindings = Vec::new();
        for (t, template) in templates.iter().enumerate() {
            let mut seen: Vec<Vec<String>> = Vec::new();
            while seen.len() < BINDINGS {
                let params = match t {
                    0 => rdb_tpch::templates::q1_params(&mut rng),
                    1 => rdb_tpch::templates::q6_params(&mut rng),
                    2 => rdb_tpch::templates::q14_params(&mut rng),
                    3 => {
                        let lo = date_from_ymd(1992, 3, 1) + rng.gen_range(0..2200);
                        Params::new()
                            .set("lo", Value::Date(lo))
                            .set("hi", Value::Date(lo + 42))
                    }
                    _ => {
                        let lo = rng.gen_range(1..max_key - 64);
                        Params::new().set("lo", lo).set("hi", lo + 64)
                    }
                };
                // Distinct bindings only: the pool size is part of the
                // workload's definition.
                let wire = template.wire_params(&params);
                if !seen.contains(&wire) {
                    seen.push(wire.clone());
                    bindings.push(Binding {
                        template: t,
                        params,
                        wire,
                    });
                }
            }
        }
        Pool {
            templates,
            bindings,
        }
    }

    /// A binding of the key-window selection over `[lo, hi)`.
    pub fn key_window(&self, lo: i64, hi: i64) -> Binding {
        let params = Params::new().set("lo", lo).set("hi", hi);
        Binding {
            template: SEL_KEYS,
            wire: self.templates[SEL_KEYS].wire_params(&params),
            params,
        }
    }
}

fn max_order_key(catalog: &Catalog) -> i64 {
    let orders = catalog.get("orders").expect("orders table").rows();
    // dbgen's sparse keys: 8 used out of every 32.
    (orders as i64) * 4
}

// ---------------------------------------------------------------------------
// Ad-hoc stream
// ---------------------------------------------------------------------------

fn date_lit(days: i32) -> String {
    format!(
        "DATE '{}'",
        text_value(&Value::Date(days)).expect("date renders")
    )
}

/// Days every ad-hoc date window spans.
const ADHOC_WINDOW_DAYS: i32 = 45;

/// `n` distinct statement texts in five shapes: filter + aggregate,
/// filter + project (a few hundred rows), filtered lineitem ⋈ filtered
/// part, group-by on orders, and top-N.
///
/// Every statement filters its probe table on a date window of the same
/// width with a start no other statement has, and the join shape filters
/// its build side on a price window built the same way. Windows overlap
/// but none contains another, so neither an exact match, nor subsumption,
/// nor a cached hash build can serve any statement: the recycler only
/// pays. What the statements offer for materialization adds up to several
/// times the cache budget.
pub fn adhoc_statements(seed: u64, n: usize) -> Vec<String> {
    let mut rng = rng(seed, 2);
    // 1992-01-02 .. 1998-08-02 holds every shipdate and orderdate.
    let first = date_from_ymd(1992, 1, 2);
    let step = (2400 / n as i32).max(1);
    let mut starts: Vec<i32> = (0..n as i32).collect();
    starts.shuffle(&mut rng);
    starts
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let lo = first + w * step;
            let (lo, hi) = (date_lit(lo), date_lit(lo + ADHOC_WINDOW_DAYS));
            match i % 5 {
                0 => format!(
                    "SELECT sum(l_extendedprice * l_discount) AS revenue, count(*) AS n \
                     FROM lineitem WHERE l_shipdate >= {lo} AND l_shipdate < {hi} \
                     AND l_quantity < {}",
                    rng.gen_range(20..50)
                ),
                1 => format!(
                    "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem \
                     WHERE l_shipdate >= {lo} AND l_shipdate < {hi} \
                     AND l_quantity < {} AND l_discount >= 0.0{}",
                    rng.gen_range(6..10),
                    rng.gen_range(1..4)
                ),
                2 => {
                    // Retail prices span 900..2100: a 150-wide window per
                    // statement, its start indexed like the date window's.
                    let p_lo = 900.0 + 1050.0 * w as f64 / n as f64;
                    format!(
                        "SELECT sum(l_extendedprice) AS total, count(*) AS n \
                         FROM lineitem INNER JOIN part ON l_partkey = p_partkey \
                         WHERE l_shipdate >= {lo} AND l_shipdate < {hi} \
                         AND p_retailprice >= {p_lo:?} AND p_retailprice < {:?}",
                        p_lo + 150.0
                    )
                }
                3 => format!(
                    "SELECT o_orderpriority, count(*) AS n, sum(o_totalprice) AS total \
                     FROM orders WHERE o_orderdate >= {lo} AND o_orderdate < {hi} \
                     GROUP BY o_orderpriority ORDER BY o_orderpriority"
                ),
                _ => format!(
                    "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem \
                     WHERE l_shipdate >= {lo} AND l_shipdate < {hi} \
                     ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT {}",
                    rng.gen_range(5..20)
                ),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Write schedule
// ---------------------------------------------------------------------------

/// First order key of the range the benchmark's writers insert into, far
/// above every generated key.
const WRITE_KEY_BASE: i64 = 100_000_000;
/// Key range reserved per writer.
const WRITE_KEY_STRIDE: i64 = 1_000_000;
/// Rows per lineitem insert.
pub const ROWS_PER_INSERT: usize = 4;

/// One write of the schedule, in both the forms the benchmark needs: SQL
/// text for the wire and values for the embedded API.
pub enum WriteOp {
    Insert {
        table: &'static str,
        rows: Vec<Vec<Value>>,
    },
    /// Delete one earlier-inserted lineitem key (all its rows).
    Delete { key: i64 },
}

impl WriteOp {
    /// The statement as SQL text.
    pub fn sql(&self) -> String {
        match self {
            WriteOp::Insert { table, rows } => {
                let tuples: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        let cells: Vec<String> = r.iter().map(sql_literal).collect();
                        format!("({})", cells.join(", "))
                    })
                    .collect();
                format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
            }
            WriteOp::Delete { key } => format!("DELETE FROM lineitem WHERE l_orderkey = {key}"),
        }
    }

    /// The delete's predicate for `Session::delete`.
    pub fn predicate(key: i64) -> Expr {
        Expr::name("l_orderkey").eq(Expr::lit(key))
    }

    /// Bytes of user data the write carries: 8 per number, 4 per date,
    /// the UTF-8 length per string.
    pub fn user_bytes(&self) -> u64 {
        match self {
            WriteOp::Insert { rows, .. } => rows
                .iter()
                .flatten()
                .map(|v| match v {
                    Value::Str(s) => s.len() as u64,
                    Value::Date(_) => 4,
                    _ => 8,
                })
                .sum(),
            WriteOp::Delete { .. } => 8,
        }
    }
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        // `{:?}` keeps the decimal point, so the literal lexes as a float.
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{s}'"),
        Value::Date(d) => date_lit(*d),
        Value::Null => "NULL".to_string(),
        Value::Bool(b) => b.to_string().to_uppercase(),
    }
}

/// The write schedule of one writer: of every five writes the fifth
/// deletes the oldest key the writer still has live, and of the others
/// every fourth inserts one `orders` row; the rest insert
/// [`ROWS_PER_INSERT`] lineitem rows under a fresh key. Keys live in a
/// range reserved for the writer, so its own live rows are known exactly
/// whatever the other writer does.
pub struct WriteSchedule {
    rng: SmallRng,
    writer: i64,
    next: i64,
    /// Lineitem keys inserted and not yet deleted, oldest first.
    live: std::collections::VecDeque<i64>,
    /// Lineitem rows this writer has live once every issued write is
    /// acknowledged.
    pub live_rows: usize,
    /// `orders` rows inserted.
    pub orders_rows: usize,
}

impl WriteSchedule {
    pub fn new(seed: u64, writer: usize) -> WriteSchedule {
        WriteSchedule {
            rng: rng(seed, 100 + writer as u64),
            writer: writer as i64,
            next: 0,
            live: Default::default(),
            live_rows: 0,
            orders_rows: 0,
        }
    }

    /// The writer's reserved key range `[lo, hi)`.
    pub fn key_range(&self) -> (i64, i64) {
        let lo = WRITE_KEY_BASE + self.writer * WRITE_KEY_STRIDE;
        (lo, lo + WRITE_KEY_STRIDE)
    }

    /// The next write.
    pub fn next_op(&mut self) -> WriteOp {
        let w = self.next;
        self.next += 1;
        let key = self.key_range().0 + w;
        if w % 5 == 4 {
            if let Some(key) = self.live.pop_front() {
                self.live_rows -= ROWS_PER_INSERT;
                return WriteOp::Delete { key };
            }
        }
        let rng = &mut self.rng;
        if w % 4 == 3 {
            self.orders_rows += 1;
            let date = date_from_ymd(1992, 1, 2) + rng.gen_range(0..2400);
            return WriteOp::Insert {
                table: "orders",
                rows: vec![vec![
                    Value::Int(key),
                    Value::Int(rng.gen_range(1..1000)),
                    Value::str("O"),
                    Value::Float(rng.gen_range(1000..400_000) as f64 / 100.0),
                    Value::Date(date),
                    Value::str("3-MEDIUM"),
                    Value::Int(0),
                    Value::str("benchmark order"),
                ]],
            };
        }
        self.live.push_back(key);
        self.live_rows += ROWS_PER_INSERT;
        let ship = date_from_ymd(1992, 3, 1) + rng.gen_range(0..2200);
        let rows = (0..ROWS_PER_INSERT as i64)
            .map(|line| {
                vec![
                    Value::Int(key),
                    Value::Int(rng.gen_range(1..1000)),
                    Value::Int(rng.gen_range(1..100)),
                    Value::Int(line + 1),
                    Value::Float(rng.gen_range(1..50) as f64),
                    Value::Float(rng.gen_range(90_000..9_000_000) as f64 / 100.0),
                    Value::Float(rng.gen_range(0..11) as f64 / 100.0),
                    Value::Float(rng.gen_range(0..9) as f64 / 100.0),
                    Value::str(if line % 2 == 0 { "N" } else { "R" }),
                    Value::str("O"),
                    Value::Date(ship + line as i32),
                    Value::Date(ship + 20),
                    Value::Date(ship + 25),
                    Value::str("NONE"),
                    Value::str("MAIL"),
                ]
            })
            .collect();
        WriteOp::Insert {
            table: "lineitem",
            rows,
        }
    }
}
