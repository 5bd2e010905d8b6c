//! The engine's compiled-statement cache: SQL text → its compiled form.
//!
//! A statement's text is parsed, bound and normalized once per engine,
//! not once per `Parse`: the recycler's own idea applied to the frontend.
//! Keying by the text alone is sound because the binder and
//! [`rdb_plan::normalize()`] read only table schemas and the function
//! registry. The catalog's table set and the registry are fixed for the
//! engine's lifetime (both sit behind an `Arc`), and a table's schema
//! survives every write. Neither step reads dictionaries or epochs, so
//! what stays per statement is the fingerprint against the *current*
//! table epochs, which [`crate::Prepared`] computes from the cached
//! template whenever it is prepared.
//!
//! The cache rules follow the recycler's:
//!
//! * a text is admitted on its second sighting (HIST): a fixed array of
//!   text hashes remembers first sightings, so a stream of unique texts
//!   pays one hash and one probe on top of its compiles and leaves no
//!   entries behind;
//! * only successful compiles are kept, so an error is compiled again and
//!   keeps its span;
//! * the entry count is bounded by [`ENTRIES`], and a full cache evicts by
//!   CLOCK (a hit sets an entry's reference bit; the hand clears bits until
//!   it finds an entry without one).

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fxhash::{FxHashMap, FxHasher};
use parking_lot::Mutex;
use rdb_exec::FnRegistry;
use rdb_expr::Expr;
use rdb_plan::{Plan, PlanError};
use rdb_sql::{BoundStatement, CatalogWithFunctions, Span, SqlError};
use rdb_storage::Catalog;

/// Compiled statements the cache holds at most.
pub const ENTRIES: usize = 256;

/// Buckets of the first-sighting array (a power of two).
const SIGHTINGS: usize = 4096;

/// A query template: the normalized plan, its parameter slots, and
/// whether it reads a volatile table function.
#[derive(Debug)]
pub(crate) struct Template {
    pub(crate) plan: Plan,
    pub(crate) param_names: Vec<String>,
    /// The plan reads a table function registered as volatile (e.g. the
    /// server's `rdb_stats()`): every execution bypasses the recycler.
    /// Binding parameters never changes which functions a plan reads.
    pub(crate) volatile: bool,
}

/// A bound `INSERT` or `DELETE` and its parameter slots.
#[derive(Debug)]
pub(crate) struct Write {
    pub(crate) stmt: WriteStmt,
    pub(crate) param_names: Vec<String>,
}

/// What a write does, with its values or predicate still holding the
/// statement's parameter placeholders.
#[derive(Debug)]
pub(crate) enum WriteStmt {
    /// Rows of literal or parameter cells, in table-schema order.
    Insert { table: String, rows: Vec<Vec<Expr>> },
    /// A row filter positional over the table's schema.
    Delete { table: String, predicate: Expr },
}

/// One SQL text, compiled: what the cache hands out.
#[derive(Debug, Clone)]
pub(crate) enum Compiled {
    Query(Arc<Template>),
    Write(Arc<Write>),
}

/// Point-in-time counters of the statement cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatementCacheStats {
    /// Texts served from the cache.
    pub hits: u64,
    /// Texts compiled (successfully or not).
    pub misses: u64,
    /// Compiled statements held right now (at most [`ENTRIES`]).
    pub entries: u64,
}

/// The bounded text → compiled-statement map (see the module docs).
pub(crate) struct StatementCache {
    clock: Mutex<Clock>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct Clock {
    /// Text hash → slot.
    index: FxHashMap<u64, usize>,
    slots: Vec<Slot>,
    hand: usize,
    /// The hash of the last text first seen in each bucket.
    seen: Box<[u64]>,
}

struct Slot {
    hash: u64,
    text: Box<str>,
    compiled: Compiled,
    referenced: bool,
}

impl Default for StatementCache {
    fn default() -> Self {
        StatementCache {
            clock: Mutex::new(Clock {
                index: FxHashMap::default(),
                slots: Vec::new(),
                hand: 0,
                seen: vec![0; SIGHTINGS].into_boxed_slice(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl StatementCache {
    /// The compiled form of `text`: the cached one, or `compile()`'s,
    /// which is kept when it succeeded and `text` was seen before. Two
    /// callers compiling the same text at once both get whichever result
    /// was cached first.
    pub(crate) fn get_or_compile(
        &self,
        text: &str,
        compile: impl FnOnce() -> Result<Compiled, SqlError>,
    ) -> Result<Compiled, SqlError> {
        let mut h = FxHasher::default();
        h.write(text.as_bytes());
        let hash = h.finish();
        let admit = {
            let mut clock = self.clock.lock();
            if let Some(hit) = clock.get(hash, text) {
                drop(clock);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            clock.sighted(hash)
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = compile()?;
        Ok(if admit {
            self.clock.lock().insert(hash, text, compiled)
        } else {
            compiled
        })
    }

    pub(crate) fn stats(&self) -> StatementCacheStats {
        StatementCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.clock.lock().slots.len() as u64,
        }
    }
}

impl Clock {
    fn get(&mut self, hash: u64, text: &str) -> Option<Compiled> {
        let slot = &mut self.slots[*self.index.get(&hash)?];
        (&*slot.text == text).then(|| {
            slot.referenced = true;
            slot.compiled.clone()
        })
    }

    /// Whether `hash` was the last text first seen in its bucket; if not,
    /// it is now.
    fn sighted(&mut self, hash: u64) -> bool {
        let bucket = &mut self.seen[(hash >> (64 - SIGHTINGS.trailing_zeros())) as usize];
        std::mem::replace(bucket, hash) == hash
    }

    /// Cache `compiled` under `text` and return what the cache now holds
    /// for it: an entry another caller put there first wins.
    fn insert(&mut self, hash: u64, text: &str, compiled: Compiled) -> Compiled {
        if let Some(resident) = self.get(hash, text) {
            return resident;
        }
        let slot = Slot {
            hash,
            text: text.into(),
            compiled: compiled.clone(),
            referenced: false,
        };
        // A different text with the same hash gives up its slot.
        let at = match self.index.get(&hash) {
            Some(&at) => at,
            None if self.slots.len() < ENTRIES => {
                self.slots.push(slot);
                self.index.insert(hash, self.slots.len() - 1);
                return compiled;
            }
            None => self.victim(),
        };
        self.index.remove(&self.slots[at].hash);
        self.slots[at] = slot;
        self.index.insert(hash, at);
        compiled
    }

    /// CLOCK: the first slot from the hand on whose reference bit is
    /// clear, clearing bits on the way.
    fn victim(&mut self) -> usize {
        loop {
            let at = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[at];
            if !std::mem::take(&mut slot.referenced) {
                return at;
            }
        }
    }
}

/// Parse, bind and normalize `text`. Engine-level errors have no finer
/// position than the whole statement.
pub(crate) fn compile(
    text: &str,
    catalog: &Catalog,
    functions: &FnRegistry,
) -> Result<Compiled, SqlError> {
    let provider = CatalogWithFunctions { catalog, functions };
    let whole = |e: PlanError| SqlError::from_plan(Span::new(0, text.len()), e);
    Ok(match rdb_sql::compile(text, &provider)? {
        BoundStatement::Query(plan) => Compiled::Query(Arc::new(
            template(&plan, catalog, functions).map_err(whole)?,
        )),
        BoundStatement::Insert { table, rows } => {
            let mut param_names = Vec::new();
            rows.iter()
                .flatten()
                .for_each(|cell| cell.param_names(&mut param_names));
            Compiled::Write(Arc::new(Write {
                stmt: WriteStmt::Insert { table, rows },
                param_names,
            }))
        }
        BoundStatement::Delete { table, predicate } => {
            let mut param_names = Vec::new();
            predicate.param_names(&mut param_names);
            Compiled::Write(Arc::new(Write {
                stmt: WriteStmt::Delete { table, predicate },
                param_names,
            }))
        }
    })
}

/// Resolve every named column of `plan` against the catalog, check its
/// scans, normalize it, collect its parameter slots and note whether it
/// reads a volatile table function: everything a prepared query computes
/// once, whatever the table epochs.
pub(crate) fn template(
    plan: &Plan,
    catalog: &Catalog,
    functions: &FnRegistry,
) -> Result<Template, PlanError> {
    if let Some(name) = plan.param_in_typed_position() {
        // Schema derivation (which binding needs) would have to type
        // the placeholder; reject up front rather than panic inside it.
        return Err(PlanError::msg(format!(
            "parameter '{name}' appears in a projection or aggregate \
             expression; its type is unknown before binding — move the \
             parameter into a predicate, or substitute before preparing"
        )));
    }
    let bound = if plan.has_named() {
        plan.bind(catalog)?
    } else {
        plan.clone()
    };
    if bound.has_named() {
        // bind() resolves every legal named reference; anything left is
        // structurally unresolvable (e.g. a column name in a
        // table-function argument, which has no input schema).
        return Err(PlanError::msg(
            "plan contains unresolvable named column references \
             (table-function arguments cannot reference columns)",
        ));
    }
    if bound.has_params() {
        // A parameterized template cannot derive its full output schema
        // before substitution, but its table references can and must be
        // checked now — "bound against the catalog once at prepare".
        validate_scans(&bound, catalog)?;
    } else {
        // Full schema validation (unknown tables or columns fail at
        // prepare time, not execute time).
        bound.schema(catalog)?;
    }
    // Canonicalize before fingerprinting: every prepared statement —
    // SQL text or hand-built — passes through the same normalization,
    // so equivalent variants (reordered conjuncts, flipped
    // comparisons, redundant projections) share recycler-graph nodes.
    let plan = rdb_plan::normalize(&bound, catalog);
    let param_names = plan.param_names();
    let volatile = contains_volatile_fn(&plan, functions);
    Ok(Template {
        plan,
        param_names,
        volatile,
    })
}

/// Whether the plan reads any table function registered as volatile
/// (per-call results; never recycled).
fn contains_volatile_fn(plan: &Plan, functions: &FnRegistry) -> bool {
    if let Plan::FnScan { name, .. } = plan {
        if functions.is_volatile(name) {
            return true;
        }
    }
    plan.children()
        .iter()
        .any(|c| contains_volatile_fn(c, functions))
}

/// Check every base-table scan in the subtree against the catalog (table
/// exists, projected columns exist).
fn validate_scans(plan: &Plan, catalog: &Catalog) -> Result<(), PlanError> {
    if matches!(plan, Plan::Scan { .. }) {
        plan.schema(catalog)?;
    }
    plan.children()
        .iter()
        .try_for_each(|c| validate_scans(c, catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineBuilder};
    use crate::materializing::MaterializingEngine;
    use crate::session::SqlOutcome;
    use rdb_expr::Params;
    use rdb_recycler::RecyclerConfig;
    use rdb_storage::TableBuilder;
    use rdb_vector::{DataType, Schema, Value};

    fn engine() -> Arc<Engine> {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, 1_000);
        for i in 0..1_000 {
            b.push_row(vec![Value::Int(i % 50), Value::Float(i as f64)]);
        }
        cat.register(b.finish()).expect("register table");
        EngineBuilder::new(Arc::new(cat))
            .recycler(RecyclerConfig::deterministic(1 << 22))
            .build()
    }

    /// The shared template behind a prepared query.
    fn template_of(engine: &Arc<Engine>, sql: &str) -> Arc<Template> {
        match engine.compile(sql).expect("compiles") {
            Compiled::Query(t) => t,
            Compiled::Write(_) => panic!("{sql} is a query"),
        }
    }

    #[test]
    fn statement_cache_admits_on_the_second_sighting() {
        let engine = engine();
        let session = engine.session();
        let sql = "SELECT k, sum(v) AS sv FROM t WHERE k < $lim GROUP BY k";
        for _ in 0..5 {
            session.prepare_sql(sql).unwrap();
        }
        let stats = engine.statement_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (2, 3, 1));
        // A text seen once leaves nothing behind.
        session.prepare_sql("SELECT k FROM t").unwrap();
        assert_eq!(engine.statement_cache_stats().entries, 1);
        // DML is compiled through the same cache.
        let insert = "INSERT INTO t VALUES ($1, $2)";
        for _ in 0..3 {
            session
                .sql(insert, &Params::new().set("1", 1i64).set("2", 0.5))
                .unwrap();
        }
        let stats = engine.statement_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (5, 4, 2));
    }

    #[test]
    fn statement_cache_concurrent_compiles_agree() {
        let engine = engine();
        for round in 0..16 {
            let sql = format!("SELECT k, v FROM t WHERE k < $lim AND v > {round}.5");
            // The first sighting: the two compiles below are admitted.
            engine.session().prepare_sql(&sql).unwrap();
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let (engine, barrier, sql) = (engine.clone(), barrier.clone(), sql.clone());
                    std::thread::spawn(move || {
                        let session = engine.session();
                        barrier.wait();
                        let prepared = session.prepare_sql(&sql).expect("compiles");
                        (prepared.fingerprint(), template_of(&engine, &sql))
                    })
                })
                .collect();
            let got: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
            assert_eq!(got[0].0, got[1].0, "one fingerprint");
            assert!(Arc::ptr_eq(&got[0].1, &got[1].1), "one shared template");
            assert_eq!(
                engine.statement_cache_stats().entries,
                round + 1,
                "one entry per text"
            );
        }
    }

    #[test]
    fn statement_cache_flood_stays_bounded() {
        let engine = engine();
        let session = engine.session();
        for i in 0..3 * ENTRIES {
            let sql = format!("SELECT k FROM t WHERE k < {i}");
            session.prepare_sql(&sql).unwrap();
            session.prepare_sql(&sql).unwrap();
            assert!(engine.statement_cache_stats().entries as usize <= ENTRIES);
        }
        assert_eq!(engine.statement_cache_stats().entries as usize, ENTRIES);
        // The most recent text is resident; the first was evicted.
        let before = engine.statement_cache_stats();
        session
            .prepare_sql(&format!("SELECT k FROM t WHERE k < {}", 3 * ENTRIES - 1))
            .unwrap();
        session.prepare_sql("SELECT k FROM t WHERE k < 0").unwrap();
        let after = engine.statement_cache_stats();
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses - before.misses, 1);
    }

    #[test]
    fn failed_compiles_are_not_cached_and_keep_their_spans() {
        let engine = engine();
        let session = engine.session();
        for sql in ["SELECT bogus FROM t WHERE k < $1", "SELECT x FROM ghost"] {
            let first = session.prepare_sql(sql).unwrap_err();
            for _ in 0..3 {
                let again = session.prepare_sql(sql).unwrap_err();
                assert_eq!(again.span, first.span, "{sql}");
                assert_eq!(again.kind, first.kind, "{sql}");
                assert_eq!(again.render(sql), first.render(sql), "{sql}");
            }
        }
        let bogus = "SELECT bogus FROM t WHERE k < $1";
        let err = session.prepare_sql(bogus).unwrap_err();
        assert_eq!(&bogus[err.span.start..err.span.end], "bogus");
        let stats = engine.statement_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (9, 0, 0));
    }

    #[test]
    fn cached_template_is_fingerprinted_at_the_epochs_of_now() {
        let engine = engine();
        let session = engine.session();
        let sql = "SELECT k, sum(v) AS sv FROM t WHERE k < $lim GROUP BY k";
        let params = Params::new().set("lim", 7i64);
        let before = session.prepare_sql(sql).unwrap();
        session.prepare_sql(sql).unwrap();
        assert_eq!(before.execute(&params).unwrap().collect_batch().rows(), 7);
        let written = session
            .sql(
                "INSERT INTO t VALUES (3, 1000.0), (60, 1.0)",
                &Params::none(),
            )
            .unwrap();
        assert!(matches!(written, SqlOutcome::Write(_)));
        let hits = engine.statement_cache_stats().hits;
        let after = session.prepare_sql(sql).unwrap();
        assert_eq!(
            engine.statement_cache_stats().hits,
            hits + 1,
            "served cached"
        );
        assert_ne!(after.fingerprint(), before.fingerprint());
        assert_eq!(after.fingerprint(), before.fingerprint_now());

        let mut got = after.execute(&params).unwrap().collect_batch().to_rows();
        let provider = CatalogWithFunctions {
            catalog: engine.catalog(),
            functions: engine.functions(),
        };
        let BoundStatement::Query(fresh) = rdb_sql::compile(sql, &provider).unwrap() else {
            panic!("{sql} is a query");
        };
        let oracle = MaterializingEngine::naive(engine.catalog().clone());
        let mut want = oracle
            .run(&fresh.substitute_params(&params).unwrap())
            .unwrap()
            .batch
            .to_rows();
        got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(got, want);
        assert!(
            got.contains(&vec![Value::Int(3), Value::Float(10560.0)]),
            "{got:?}"
        );
    }
}
