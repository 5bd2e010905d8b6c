//! Synthetic SkyServer workload (paper §V, Fig. 6).
//!
//! The paper's real-world experiment uses a 100 GB subset of SDSS SkyServer
//! DR7 and a 100-query log whose dominant pattern is
//!
//! ```sql
//! SELECT p.objID, p.run, ... FROM fGetNearbyObjEq(195, 2.5, 0.5) n,
//!        PhotoPrimary p WHERE n.objID = p.objID LIMIT 10;
//! ```
//!
//! with queries "either identical to the one above, or share the
//! computation of fGetNearbyObjEq(195, 2.5, 0.5)". We cannot ship SDSS
//! data, so this crate builds the closest synthetic equivalent (see
//! DESIGN.md): a `photoprimary` table of objects with sky positions, an
//! expensive `fgetnearbyobjeq` cone-search table function (full-scan
//! great-circle filter), and a session generator reproducing the query-log
//! structure (a hot parameter triple shared by most queries).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdb_engine::WorkloadQuery;
use rdb_exec::{FnRegistry, TableFunction};
use rdb_expr::Params;
use rdb_plan::{fn_scan_exprs, scan, Plan};
use rdb_storage::{Catalog, Table, TableBuilder};
use rdb_vector::{Batch, Column, DataType, Schema, Value, BATCH_CAPACITY};

/// Configuration of the synthetic sky catalog.
#[derive(Debug, Clone, Copy)]
pub struct SkyConfig {
    /// Number of objects in `photoprimary`.
    pub objects: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SkyConfig {
    fn default() -> Self {
        SkyConfig {
            objects: 50_000,
            seed: 4242,
        }
    }
}

/// Generate the `photoprimary` table.
pub fn generate(config: &SkyConfig) -> Arc<Catalog> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([
        ("p_objid", DataType::Int),
        ("p_ra", DataType::Float),
        ("p_dec", DataType::Float),
        ("p_run", DataType::Int),
        ("p_rerun", DataType::Int),
        ("p_camcol", DataType::Int),
        ("p_field", DataType::Int),
        ("p_obj", DataType::Int),
        ("p_type", DataType::Int),
        ("p_psfmag_r", DataType::Float),
        ("p_psfmag_g", DataType::Float),
    ]);
    let mut b = TableBuilder::new("photoprimary", schema, config.objects);
    for i in 0..config.objects {
        // Cluster objects around a handful of sky regions so cone searches
        // return non-trivial but small result sets.
        let center = (i % 8) as f64;
        let ra = 150.0 + center * 15.0 + rng.gen_range(-4.0..4.0);
        let dec = -5.0 + center * 2.0 + rng.gen_range(-3.0..3.0);
        b.push_row(vec![
            Value::Int(i as i64 + 1_000_000),
            Value::Float(ra),
            Value::Float(dec),
            Value::Int(rng.gen_range(1000..9999)),
            Value::Int(rng.gen_range(1..50)),
            Value::Int(rng.gen_range(1..7)),
            Value::Int(rng.gen_range(1..900)),
            Value::Int(rng.gen_range(0..255)),
            Value::Int(if rng.gen_bool(0.7) { 6 } else { 3 }),
            Value::Float(rng.gen_range(14.0..24.0)),
            Value::Float(rng.gen_range(14.0..24.0)),
        ]);
    }
    cat.register(b.finish()).expect("register table");
    Arc::new(cat)
}

/// `fGetNearbyObjEq(ra, dec, radius_arcmin)`: all objects within the cone,
/// with their distance, ordered by distance. Implemented as a full-scan
/// great-circle filter, which is deliberately expensive — this is the
/// shared computation the recycler amortizes.
pub struct FGetNearbyObjEq {
    table: Arc<Table>,
}

impl FGetNearbyObjEq {
    /// Bind the function to the generated `photoprimary` table.
    pub fn new(catalog: &Catalog) -> Self {
        FGetNearbyObjEq {
            table: catalog
                .get("photoprimary")
                .expect("photoprimary must exist")
                .clone(),
        }
    }

    /// The function's output schema.
    pub fn output_schema() -> Schema {
        Schema::from_pairs([("n_objid", DataType::Int), ("n_distance", DataType::Float)])
    }
}

impl TableFunction for FGetNearbyObjEq {
    fn schema(&self, _args: &[Value]) -> Schema {
        Self::output_schema()
    }

    fn execute(&self, args: &[Value], work: &mut u64) -> Vec<Batch> {
        let ra0 = args[0].as_float().expect("ra").to_radians();
        let dec0 = args[1].as_float().expect("dec").to_radians();
        let radius_deg = args[2].as_float().expect("radius") / 60.0; // arcmin → deg
        let cos_limit = radius_deg.to_radians().cos();
        let column = |name: &str| self.table.column_by_name(name).expect(name);
        let (objid, ra, dec) = (column("p_objid"), column("p_ra"), column("p_dec"));
        let (objid, ra, dec) = (objid.as_ints(), ra.as_floats(), dec.as_floats());
        *work += self.table.rows() as u64;
        let mut hits: Vec<(i64, f64)> = Vec::new();
        for i in 0..self.table.rows() {
            let (rai, deci) = (ra[i].to_radians(), dec[i].to_radians());
            // Great-circle angular separation via the spherical law of
            // cosines (adequate for arcminute-scale radii).
            let cos_sep = dec0.sin() * deci.sin() + dec0.cos() * deci.cos() * (rai - ra0).cos();
            if cos_sep >= cos_limit {
                hits.push((objid[i], cos_sep.clamp(-1.0, 1.0).acos().to_degrees()));
            }
        }
        hits.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut out = Vec::new();
        for chunk in hits.chunks(BATCH_CAPACITY) {
            out.push(Batch::new(vec![
                Column::from_ints(chunk.iter().map(|h| h.0).collect()),
                Column::from_floats(chunk.iter().map(|h| h.1).collect()),
            ]));
        }
        out
    }
}

/// Register the SkyServer functions over a generated catalog.
pub fn functions(catalog: &Catalog) -> Arc<FnRegistry> {
    let mut reg = FnRegistry::new();
    reg.register("fgetnearbyobjeq", Arc::new(FGetNearbyObjEq::new(catalog)));
    Arc::new(reg)
}

/// The paper's dominant query pattern: cone search joined to
/// `photoprimary`, `LIMIT n`.
pub fn nearby_query(ra: f64, dec: f64, radius: f64, cols: &[&str], limit: usize) -> Plan {
    nearby_template(cols, limit)
        .substitute_params(&cone_params(ra, dec, radius))
        .expect("cone template substitutes")
}

/// Prepared-statement template of the dominant pattern: the cone-search
/// arguments are `:ra` / `:dec` / `:radius` parameter slots, so a session
/// prepares the pattern once and executes it per log entry.
pub fn nearby_template(cols: &[&str], limit: usize) -> Plan {
    scan("photoprimary", cols)
        .inner_join(
            fn_scan_exprs(
                "fgetnearbyobjeq",
                vec![
                    rdb_expr::Expr::param("ra"),
                    rdb_expr::Expr::param("dec"),
                    rdb_expr::Expr::param("radius"),
                ],
                FGetNearbyObjEq::output_schema(),
            ),
            vec![rdb_expr::Expr::name("p_objid")],
            vec![rdb_expr::Expr::name("n_objid")],
        )
        .limit(limit)
}

/// Bindings for [`nearby_template`].
pub fn cone_params(ra: f64, dec: f64, radius: f64) -> Params {
    Params::new()
        .set("ra", ra)
        .set("dec", dec)
        .set("radius", radius)
}

/// The dominant pattern as SQL text — the `Session::prepare_sql` form of
/// [`nearby_template`], with the same `$ra` / `$dec` / `$radius` slots.
/// Lowering + normalization converge it onto the builder template's
/// fingerprint, so SQL clients and plan-builder clients share the cone
/// search's cache entry.
pub fn nearby_sql(cols: &[&str], limit: usize) -> String {
    format!(
        "SELECT {}, n_objid, n_distance \
         FROM photoprimary INNER JOIN fgetnearbyobjeq($ra, $dec, $radius) \
         ON p_objid = n_objid LIMIT {limit}",
        cols.join(", ")
    )
}

/// The two session templates as SQL text (wide and narrow projections).
pub fn session_sql_templates() -> (String, String) {
    (nearby_sql(&WIDE_COLS, 10), nearby_sql(&NARROW_COLS, 10))
}

/// Session (query log) generation options.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Number of queries (the paper's log has 100).
    pub queries: usize,
    /// Fraction of queries using the hot parameter triple.
    pub hot_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            queries: 100,
            hot_fraction: 0.85,
            seed: 99,
        }
    }
}

/// The hot parameter triple (the paper's `fGetNearbyObjEq(195, 2.5, 0.5)`;
/// re-centred into our synthetic sky).
pub const HOT_PARAMS: (f64, f64, f64) = (195.0, 2.5, 30.0);

const WIDE_COLS: [&str; 8] = [
    "p_objid",
    "p_run",
    "p_rerun",
    "p_camcol",
    "p_field",
    "p_obj",
    "p_type",
    "p_psfmag_r",
];
const NARROW_COLS: [&str; 4] = ["p_objid", "p_run", "p_type", "p_psfmag_r"];

/// Which of the two session templates a log entry executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionTemplate {
    /// The dominant pattern's wide projection.
    Wide,
    /// The narrow-projection variant sharing the cone search.
    Narrow,
}

/// One entry of a prepared-statement query log: which template to execute
/// and with what parameter bindings.
#[derive(Debug, Clone)]
pub struct SessionQuery {
    /// Pattern label (`hot` / `hot_narrow` / `cold`).
    pub label: &'static str,
    /// Template selector.
    pub template: SessionTemplate,
    /// Cone-search parameter bindings.
    pub params: Params,
}

/// The two templates a SkyServer session prepares once: the dominant wide
/// pattern and its narrow-projection variant.
pub fn session_templates() -> (Plan, Plan) {
    (
        nearby_template(&WIDE_COLS, 10),
        nearby_template(&NARROW_COLS, 10),
    )
}

/// Generate the query log in prepared form: every entry references one of
/// the two [`session_templates`] with parameter bindings, mirroring how the
/// paper's log shares `fGetNearbyObjEq(195, 2.5, 0.5)` across most queries.
pub fn make_prepared_session(options: &SessionOptions) -> Vec<SessionQuery> {
    let mut rng = SmallRng::seed_from_u64(options.seed);
    let (ra, dec, r) = HOT_PARAMS;
    (0..options.queries)
        .map(|_| {
            if rng.gen_bool(options.hot_fraction) {
                if rng.gen_bool(0.7) {
                    SessionQuery {
                        label: "hot",
                        template: SessionTemplate::Wide,
                        params: cone_params(ra, dec, r),
                    }
                } else {
                    SessionQuery {
                        label: "hot_narrow",
                        template: SessionTemplate::Narrow,
                        params: cone_params(ra, dec, r),
                    }
                }
            } else {
                let ra2 = 150.0 + rng.gen_range(0..8) as f64 * 15.0;
                let dec2 = -5.0 + rng.gen_range(0..8) as f64 * 2.0;
                SessionQuery {
                    label: "cold",
                    template: SessionTemplate::Wide,
                    params: cone_params(ra2, dec2, 20.0),
                }
            }
        })
        .collect()
}

/// Generate a query session as concrete labelled plans (the prepared log
/// with every entry's parameters substituted) — the form the stream runner
/// and the operator-at-a-time baseline consume.
pub fn make_session(options: &SessionOptions) -> Vec<WorkloadQuery> {
    let (wide, narrow) = session_templates();
    make_prepared_session(options)
        .into_iter()
        .map(|q| {
            let template = match q.template {
                SessionTemplate::Wide => &wide,
                SessionTemplate::Narrow => &narrow,
            };
            WorkloadQuery::new(
                q.label,
                template
                    .substitute_params(&q.params)
                    .expect("session params substitute"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_exec::{build, run_to_batch, ExecContext};

    fn setup() -> (Arc<Catalog>, ExecContext) {
        let cat = generate(&SkyConfig {
            objects: 5_000,
            seed: 1,
        });
        let ctx = ExecContext::new(cat.clone()).with_functions(functions(&cat));
        (cat, ctx)
    }

    #[test]
    fn cone_search_returns_sorted_nearby_objects() {
        let (cat, _ctx) = setup();
        let f = FGetNearbyObjEq::new(&cat);
        let mut work = 0;
        let out = f.execute(
            &[Value::Float(195.0), Value::Float(2.5), Value::Float(60.0)],
            &mut work,
        );
        assert_eq!(work, 5_000, "full scan work accounted");
        if let Some(first) = out.first() {
            let d = first.column(1).as_floats();
            assert!(d.windows(2).all(|w| w[0] <= w[1]), "sorted by distance");
            assert!(d.iter().all(|&x| x <= 1.0 + 1e-9), "within 60 arcmin");
        }
    }

    #[test]
    fn wider_radius_returns_more() {
        let (cat, _) = setup();
        let f = FGetNearbyObjEq::new(&cat);
        let mut w = 0;
        let narrow: usize = f
            .execute(
                &[Value::Float(195.0), Value::Float(2.5), Value::Float(10.0)],
                &mut w,
            )
            .iter()
            .map(|b| b.rows())
            .sum();
        let wide: usize = f
            .execute(
                &[Value::Float(195.0), Value::Float(2.5), Value::Float(120.0)],
                &mut w,
            )
            .iter()
            .map(|b| b.rows())
            .sum();
        assert!(wide >= narrow);
        assert!(wide > 0, "clustered sky must have nearby objects");
    }

    #[test]
    fn nearby_query_executes_with_limit() {
        let (cat, ctx) = setup();
        let plan = nearby_query(195.0, 2.5, 60.0, &WIDE_COLS, 10)
            .bind(&cat)
            .unwrap();
        let mut tree = build(&plan, &ctx).unwrap();
        let out = run_to_batch(tree.root.as_mut());
        assert!(out.rows() <= 10);
        assert_eq!(tree.schema.len(), WIDE_COLS.len() + 2);
    }

    #[test]
    fn prepared_session_shares_hot_cone_search() {
        let cat = generate(&SkyConfig {
            objects: 3_000,
            seed: 2,
        });
        let engine = rdb_engine::Engine::builder(cat.clone())
            .functions(functions(&cat))
            .build();
        let session = engine.session();
        let (wide, narrow) = session_templates();
        let wide = session.prepare(&wide).unwrap();
        let narrow = session.prepare(&narrow).unwrap();
        assert_eq!(wide.param_names(), &["ra", "dec", "radius"]);
        let log = make_prepared_session(&SessionOptions {
            queries: 30,
            hot_fraction: 0.9,
            seed: 5,
        });
        let mut reused = 0;
        for q in &log {
            let prepared = match q.template {
                SessionTemplate::Wide => &wide,
                SessionTemplate::Narrow => &narrow,
            };
            let out = prepared.execute(&q.params).unwrap().into_outcome();
            assert!(out.batch.rows() <= 10);
            if out.reused() {
                reused += 1;
            }
        }
        assert!(
            reused >= log.len() / 2,
            "hot-dominated log must reuse heavily (got {reused}/{})",
            log.len()
        );
    }

    #[test]
    fn sql_cone_template_converges_with_builder() {
        let cat = generate(&SkyConfig {
            objects: 2_000,
            seed: 9,
        });
        let engine = rdb_engine::Engine::builder(cat.clone())
            .functions(functions(&cat))
            .build();
        let session = engine.session();
        let (wide_sql, narrow_sql) = session_sql_templates();
        let (wide_tpl, narrow_tpl) = session_templates();
        for (sql, tpl) in [(&wide_sql, &wide_tpl), (&narrow_sql, &narrow_tpl)] {
            let from_sql = session
                .prepare_sql(sql)
                .unwrap_or_else(|e| panic!("{}", e.render(sql)));
            let from_builder = session.prepare(tpl).unwrap();
            assert!(
                rdb_plan::structural_eq(from_sql.template(), from_builder.template()),
                "cone templates diverge\nSQL:\n{}\nbuilder:\n{}",
                from_sql.template(),
                from_builder.template()
            );
            assert_eq!(from_sql.fingerprint(), from_builder.fingerprint());
            assert_eq!(from_sql.param_names(), &["ra", "dec", "radius"]);
        }
        // Executions share the cone search across frontends: the builder
        // execution reuses the SQL execution's materialized cone.
        let (ra, dec, r) = HOT_PARAMS;
        let params = cone_params(ra, dec, r);
        let from_sql = session.prepare_sql(&wide_sql).unwrap();
        let a = from_sql.execute(&params).unwrap().into_outcome();
        let from_builder = session.prepare(&wide_tpl).unwrap();
        let b = from_builder.execute(&params).unwrap().into_outcome();
        assert!(b.reused(), "builder run must reuse the SQL run's cone");
        assert_eq!(a.batch.to_rows(), b.batch.to_rows());
    }

    #[test]
    fn session_structure_matches_log() {
        let session = make_session(&SessionOptions {
            queries: 100,
            hot_fraction: 0.85,
            seed: 5,
        });
        assert_eq!(session.len(), 100);
        let hot = session
            .iter()
            .filter(|q| q.label.starts_with("hot"))
            .count();
        assert!(hot >= 70, "most queries share the hot cone search ({hot})");
        let cold = session.iter().filter(|q| q.label == "cold").count();
        assert!(cold > 0, "some queries are cold");
        // Identical hot queries are structurally identical plans.
        let hots: Vec<&WorkloadQuery> = session.iter().filter(|q| q.label == "hot").collect();
        assert!(hots.windows(2).all(|w| w[0].plan == w[1].plan));
    }
}
