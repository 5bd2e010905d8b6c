//! Operator-at-a-time baseline engine ("MonetDB-style").
//!
//! The paper contrasts its pipelined recycler with the MonetDB recycler of
//! Ivanova et al. \[10\], whose execution paradigm materializes *every*
//! intermediate result as a by-product. This module reproduces that
//! behaviour for the Fig. 6 comparison:
//!
//! * every operator runs to completion and its full result is materialized;
//! * with recycling enabled, every intermediate is admitted to the cache
//!   (materialization is free), and incoming subtrees are matched directly
//!   against cached results;
//! * with a bounded cache, the lowest-benefit entries are evicted
//!   (`benefit = cost · refs / size`, as in \[10\]).
//!
//! Consequently the cache must hold *all* intermediates of a result's
//! subtree for the final result to be cheap, which is exactly the
//! "MonetDB needs 1.5 GB where the recycler graph needs a few hundred KB"
//! effect the paper reports.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rdb_exec::{
    build, ExecContext, FnRegistry, MaterializedResult, ResultStore, SpeculationEstimate,
    StoreVerdict,
};
use rdb_plan::{structural_eq, structural_hash, Plan, PlanError};
use rdb_storage::Catalog;
use rdb_vector::Batch;

/// One cached intermediate.
struct MatEntry {
    plan: Plan,
    result: Arc<MaterializedResult>,
    cost_ns: f64,
    refs: u64,
    size: u64,
}

impl MatEntry {
    fn benefit(&self) -> f64 {
        self.cost_ns * self.refs as f64 / self.size.max(1) as f64
    }
}

#[derive(Default)]
struct MatCache {
    entries: HashMap<u64, MatEntry>,
    used: u64,
    capacity: Option<u64>,
    hits: u64,
    evictions: u64,
}

impl MatCache {
    fn lookup(&mut self, plan: &Plan) -> Option<Arc<MaterializedResult>> {
        let h = structural_hash(plan);
        let e = self.entries.get_mut(&h)?;
        if structural_eq(&e.plan, plan) {
            e.refs += 1;
            self.hits += 1;
            Some(e.result.clone())
        } else {
            None
        }
    }

    fn admit(&mut self, plan: &Plan, result: Arc<MaterializedResult>, cost_ns: f64) {
        let h = structural_hash(plan);
        if self.entries.contains_key(&h) {
            return;
        }
        let size = (result.size_bytes() as u64).max(1);
        if let Some(cap) = self.capacity {
            if size > cap {
                return;
            }
        }
        self.used += size;
        self.entries.insert(
            h,
            MatEntry {
                plan: plan.clone(),
                result,
                cost_ns,
                refs: 1,
                size,
            },
        );
        // Evict lowest-benefit entries while over capacity ([10]'s policy).
        if let Some(cap) = self.capacity {
            while self.used > cap {
                let victim = self
                    .entries
                    .iter()
                    .min_by(|a, b| {
                        a.1.benefit()
                            .partial_cmp(&b.1.benefit())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(k, _)| *k);
                match victim {
                    Some(k) => {
                        let e = self.entries.remove(&k).expect("victim exists");
                        self.used -= e.size;
                        self.evictions += 1;
                    }
                    None => break,
                }
            }
        }
    }

    fn flush(&mut self) {
        self.entries.clear();
        self.used = 0;
    }
}

/// Trivial result store backing single-operator execution: the child
/// results of the operator being evaluated are exposed as cached reads.
#[derive(Default)]
struct ChildStore {
    children: Mutex<HashMap<u64, Arc<MaterializedResult>>>,
}

impl ResultStore for ChildStore {
    fn fetch(&self, tag: u64) -> Option<Arc<MaterializedResult>> {
        self.children.lock().get(&tag).cloned()
    }
    fn publish(&self, _tag: u64, _result: MaterializedResult) {}
    fn abandon(&self, _tag: u64) {}
    fn speculate(&self, _tag: u64, _est: &SpeculationEstimate) -> StoreVerdict {
        StoreVerdict::Cancel
    }
}

/// Outcome of one operator-at-a-time query execution.
#[derive(Debug)]
pub struct MatOutcome {
    /// Final result rows.
    pub batch: Batch,
    /// Wall-clock time.
    pub wall: Duration,
    /// Number of subtrees answered from the cache.
    pub cache_hits: u64,
    /// Number of intermediates materialized by this query.
    pub materialized: u64,
}

/// The operator-at-a-time engine.
pub struct MaterializingEngine {
    catalog: Arc<Catalog>,
    functions: Arc<FnRegistry>,
    cache: Option<Mutex<MatCache>>,
}

impl MaterializingEngine {
    /// Engine without recycling (the Fig. 6 "naive" baseline).
    pub fn naive(catalog: Arc<Catalog>) -> Self {
        MaterializingEngine {
            catalog,
            functions: Arc::new(FnRegistry::new()),
            cache: None,
        }
    }

    /// Engine with \[10\]-style recycling. `capacity` of `None` means an
    /// unlimited cache (the paper's "Unlimited" configuration).
    pub fn recycling(catalog: Arc<Catalog>, capacity: Option<u64>) -> Self {
        MaterializingEngine {
            catalog,
            functions: Arc::new(FnRegistry::new()),
            cache: Some(Mutex::new(MatCache {
                capacity,
                ..Default::default()
            })),
        }
    }

    /// Attach table functions.
    pub fn with_functions(mut self, functions: Arc<FnRegistry>) -> Self {
        self.functions = functions;
        self
    }

    /// Bytes currently cached (0 when recycling is off).
    pub fn cache_used(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.lock().used)
    }

    /// Cached entry count.
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.lock().entries.len())
    }

    /// Flush the cache (between Fig. 6 batches).
    pub fn flush_cache(&self) {
        if let Some(c) = &self.cache {
            c.lock().flush();
        }
    }

    /// Execute a query operator-at-a-time.
    pub fn run(&self, plan: &Plan) -> Result<MatOutcome, PlanError> {
        let bound = if plan.has_named() {
            plan.bind(&self.catalog)?
        } else {
            plan.clone()
        };
        // The executor knows no `avg`; lower it without the rest of
        // `normalize`, so this engine stays an independent oracle.
        let bound = rdb_plan::lower_avg(bound);
        let start = Instant::now();
        let mut hits = 0;
        let mut mats = 0;
        let (result, _cost) = self.eval(&bound, &mut hits, &mut mats)?;
        Ok(MatOutcome {
            batch: result.to_batch(),
            wall: start.elapsed(),
            cache_hits: hits,
            materialized: mats,
        })
    }

    /// Recursively evaluate `plan`, materializing every operator result.
    /// Returns the result and the inclusive cost in nanoseconds.
    fn eval(
        &self,
        plan: &Plan,
        hits: &mut u64,
        mats: &mut u64,
    ) -> Result<(Arc<MaterializedResult>, f64), PlanError> {
        // Recycler lookup first: matching happens directly on cached
        // results (no recycler graph in [10]).
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.lock().lookup(plan) {
                *hits += 1;
                return Ok((hit, 0.0));
            }
        }
        let t0 = Instant::now();
        // Evaluate children fully first (operator-at-a-time).
        let mut child_results = Vec::new();
        let mut child_cost = 0.0;
        for c in plan.children() {
            let (r, cost) = self.eval(c, hits, mats)?;
            child_results.push(r);
            child_cost += cost;
        }
        // Evaluate this single operator over the materialized children.
        let store = Arc::new(ChildStore::default());
        let mut cached_children = Vec::with_capacity(child_results.len());
        for (i, r) in child_results.iter().enumerate() {
            store.children.lock().insert(i as u64, r.clone());
            cached_children.push(Plan::Cached {
                tag: i as u64,
                schema: r.schema.clone(),
            });
        }
        let single = plan.with_children(cached_children);
        let ctx = ExecContext::new(self.catalog.clone())
            .with_functions(self.functions.clone())
            .with_store(store as Arc<dyn ResultStore>);
        let mut tree = build(&single, &ctx)?;
        let batches = tree.drain().map_err(|e| PlanError::msg(e.to_string()))?;
        let schema = plan.schema(&self.catalog)?;
        let result = Arc::new(MaterializedResult::from_batches(schema, &batches));
        let cost = t0.elapsed().as_nanos() as f64 + child_cost;
        if let Some(cache) = &self.cache {
            cache.lock().admit(plan, result.clone(), cost);
            *mats += 1;
        }
        Ok((result, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_expr::{AggFunc, Expr};
    use rdb_plan::scan;
    use rdb_storage::TableBuilder;
    use rdb_vector::{DataType, Schema, Value};

    fn catalog() -> Arc<Catalog> {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, 5000);
        for i in 0..5000i64 {
            b.push_row(vec![Value::Int(i % 20), Value::Float(i as f64)]);
        }
        cat.register(b.finish()).expect("register table");
        Arc::new(cat)
    }

    fn q() -> Plan {
        scan("t", &["k", "v"])
            .select(Expr::name("k").lt(Expr::lit(5)))
            .aggregate(
                vec![(Expr::name("k"), "k")],
                vec![(AggFunc::Sum(Expr::name("v")), "s")],
            )
    }

    #[test]
    fn naive_execution_matches_pipelined_semantics() {
        let cat = catalog();
        let eng = MaterializingEngine::naive(cat.clone());
        let out = eng.run(&q()).unwrap();
        assert_eq!(out.batch.rows(), 5);
        assert_eq!(out.cache_hits, 0);
        assert_eq!(out.materialized, 0);
        assert_eq!(eng.cache_len(), 0);
    }

    #[test]
    fn recycling_caches_every_intermediate() {
        let eng = MaterializingEngine::recycling(catalog(), None);
        let out1 = eng.run(&q()).unwrap();
        // scan, select, aggregate = 3 intermediates.
        assert_eq!(out1.materialized, 3);
        assert_eq!(eng.cache_len(), 3);
        let out2 = eng.run(&q()).unwrap();
        assert_eq!(out2.cache_hits, 1, "root answered straight from cache");
        assert_eq!(out2.materialized, 0);
        assert_eq!(out1.batch.to_rows(), out2.batch.to_rows());
    }

    #[test]
    fn shared_prefix_hits_partial_results() {
        let eng = MaterializingEngine::recycling(catalog(), None);
        eng.run(&q()).unwrap();
        // Same scan+select, different aggregate: hits the select result.
        let q2 = scan("t", &["k", "v"])
            .select(Expr::name("k").lt(Expr::lit(5)))
            .aggregate(
                vec![(Expr::name("k"), "k")],
                vec![(AggFunc::CountStar, "n")],
            );
        let out = eng.run(&q2).unwrap();
        assert_eq!(out.cache_hits, 1);
        assert_eq!(out.materialized, 1); // only the new aggregate
    }

    #[test]
    fn bounded_cache_evicts_lowest_benefit() {
        // Cache big enough for small results but not the scan copy.
        let eng = MaterializingEngine::recycling(catalog(), Some(16 * 1024));
        let out = eng.run(&q()).unwrap();
        assert!(out.materialized >= 1);
        assert!(eng.cache_used() <= 16 * 1024);
    }

    #[test]
    fn flush_clears() {
        let eng = MaterializingEngine::recycling(catalog(), None);
        eng.run(&q()).unwrap();
        assert!(eng.cache_len() > 0);
        eng.flush_cache();
        assert_eq!(eng.cache_len(), 0);
        let again = eng.run(&q()).unwrap();
        assert_eq!(again.cache_hits, 0);
    }
}
