//! Execution context: catalog, table functions, and the result store hook.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use rdb_storage::{Catalog, CatalogSnapshot, Table};
use rdb_vector::{Batch, Schema, Value};

use crate::error::FailSlot;
use crate::pool::WorkerPool;
use crate::store::ResultStore;

/// A table-valued function (e.g. SkyServer's `fGetNearbyObjEq`): given
/// literal arguments it produces a relation. The executor treats it as an
/// expensive leaf; its identity (name + arguments) is what the recycler
/// matches on.
pub trait TableFunction: Send + Sync {
    /// Output schema for the given arguments.
    fn schema(&self, args: &[Value]) -> Schema;

    /// Compute the full result. `work` receives the number of abstract work
    /// units expended (e.g. rows examined), so deterministic cost accounting
    /// can include the function's hidden effort.
    fn execute(&self, args: &[Value], work: &mut u64) -> Vec<Batch>;

    /// Volatile functions produce a fresh result on every call (server
    /// statistics, clocks); the engine never routes them through the
    /// recycler, so their results are neither cached nor matched.
    fn volatile(&self) -> bool {
        false
    }
}

/// Name → table function registry.
#[derive(Default)]
pub struct FnRegistry {
    fns: HashMap<String, Arc<dyn TableFunction>>,
}

impl FnRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        FnRegistry::default()
    }

    /// Register a function under `name`.
    pub fn register(&mut self, name: impl Into<String>, f: Arc<dyn TableFunction>) {
        self.fns.insert(name.into(), f);
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn TableFunction>> {
        self.fns.get(name)
    }

    /// Whether `name` resolves to a function declared volatile.
    pub fn is_volatile(&self, name: &str) -> bool {
        self.fns.get(name).is_some_and(|f| f.volatile())
    }
}

/// Everything the plan-to-executor builder needs.
#[derive(Clone)]
pub struct ExecContext {
    /// Base tables (schemas, and current versions when no snapshot is
    /// pinned).
    pub catalog: Arc<Catalog>,
    /// Point-in-time table versions this execution reads. When set, every
    /// scan resolves its table here, so the whole query sees one consistent
    /// epoch vector regardless of concurrent DML; without it scans read
    /// each table's current version at build time.
    pub snapshot: Option<Arc<CatalogSnapshot>>,
    /// Table functions.
    pub functions: Arc<FnRegistry>,
    /// Recycler cache hook; `None` runs without recycling (a plan with a
    /// store or cached node then fails to build).
    pub store: Option<Arc<dyn ResultStore>>,
    /// Degree of intra-query parallelism the builder may use (1 = serial;
    /// the serial and parallel plans produce byte-identical results, see
    /// [`crate::parallel`]). Pipelines are only split when the scan is
    /// large enough to yield multiple morsels.
    pub parallelism: usize,
    /// Worker pool parallel pipelines run on; without one they fall back
    /// to plain spawned threads.
    pub pool: Option<Arc<WorkerPool>>,
    /// Cooperative cancellation flag. Operators with long-running phases
    /// (scans, morsel dispensers, build drains) *load* it at batch/morsel
    /// boundaries and end their stream early when set — they never clear
    /// it, so the connection layer's own check-and-clear still observes
    /// the cancel and reports `57014` to the client.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Shared failure slot for this execution: pipeline chains and
    /// parallel workers record structured errors here instead of
    /// panicking through their driver (see [`crate::error`]). Store tees
    /// also consult it to suppress publishing truncated results.
    pub fail: Arc<FailSlot>,
}

impl ExecContext {
    /// Context over a catalog with no functions and no recycler.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        ExecContext {
            catalog,
            snapshot: None,
            functions: Arc::new(FnRegistry::new()),
            store: None,
            parallelism: 1,
            pool: None,
            cancel: None,
            fail: FailSlot::shared(),
        }
    }

    /// Set the degree of parallelism (clamped to at least 1).
    pub fn with_parallelism(mut self, dop: usize) -> Self {
        self.parallelism = dop.max(1);
        self
    }

    /// Attach a worker pool for parallel pipelines.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach a table-function registry.
    pub fn with_functions(mut self, functions: Arc<FnRegistry>) -> Self {
        self.functions = functions;
        self
    }

    /// Attach a result store (the recycler cache).
    pub fn with_store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Pin this execution to a catalog snapshot.
    pub fn with_snapshot(mut self, snapshot: Arc<CatalogSnapshot>) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// Attach a cancellation flag (see the field docs for the contract).
    pub fn with_cancel(mut self, cancel: Option<Arc<AtomicBool>>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Resolve the table version scans must read: the pinned snapshot's if
    /// one is set, the catalog's current version otherwise.
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        match &self.snapshot {
            Some(s) => s.get(name).cloned(),
            None => self.catalog.get(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_vector::{Column, DataType};

    struct Ones;
    impl TableFunction for Ones {
        fn schema(&self, _args: &[Value]) -> Schema {
            Schema::from_pairs([("one", DataType::Int)])
        }
        fn execute(&self, _args: &[Value], work: &mut u64) -> Vec<Batch> {
            *work += 1;
            vec![Batch::new(vec![Column::from_ints(vec![1])])]
        }
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = FnRegistry::new();
        reg.register("ones", Arc::new(Ones));
        assert!(reg.get("ones").is_some());
        assert!(reg.get("none").is_none());
        let mut work = 0;
        let out = reg.get("ones").unwrap().execute(&[], &mut work);
        assert_eq!(out[0].rows(), 1);
        assert_eq!(work, 1);
    }
}
