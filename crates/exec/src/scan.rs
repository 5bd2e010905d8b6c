//! The table-function leaf. (A table scan is no operator: it is the
//! morsel dispenser at the root of a chain, see [`crate::fuse`].)

use std::sync::Arc;

use rdb_vector::Value;

use crate::context::TableFunction;
use crate::error::FailSlot;
use crate::metrics::OpMetrics;
use crate::op::BlockingExec;

/// Table-function scan: computes the function's full result on first pull
/// (functions are black boxes with no incremental interface), then streams
/// it out in batches. Its own work is the work the function reports.
pub fn fn_scan(
    function: Arc<dyn TableFunction>,
    args: Vec<Value>,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
) -> BlockingExec {
    let work_metrics = metrics.clone();
    let build = move || {
        let mut work = 0u64;
        let batches = function.execute(&args, &mut work);
        work_metrics.add_work(work);
        Ok(batches)
    };
    BlockingExec::new(build, metrics, fail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::context::ExecContext;
    use crate::op::{run_to_batch, Operator};
    use rdb_plan::scan;
    use rdb_storage::{Catalog, TableBuilder};
    use rdb_vector::{Batch, Column, DataType, Schema};

    #[test]
    fn scan_projects_and_batches() {
        let schema = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema, 2500);
        for i in 0..2500 {
            b.push_row(vec![Value::Int(i), Value::Int(i * 2)]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish()).expect("register table");
        let ctx = ExecContext::new(Arc::new(cat));
        // A bare scan is a chain of no stages over the dispenser.
        let plan = scan("t", &["b"]).bind(&ctx.catalog).unwrap();
        let mut tree = build(&plan, &ctx).unwrap();
        assert_eq!(tree.root.progress(), 0.0);
        let out = run_to_batch(tree.root.as_mut());
        assert_eq!(out.rows(), 2500);
        assert_eq!(out.width(), 1);
        assert_eq!(out.column(0).as_ints()[2], 4);
        assert_eq!(tree.root.progress(), 1.0);
        let m = &tree.metrics.metrics;
        assert_eq!(m.rows_out(), 2500);
        assert_eq!(m.calls(), 3, "one call per morsel");
        assert_eq!(
            m.time_ns(),
            0,
            "a leaf read through the dispenser is not timed"
        );
    }

    struct Doubler;
    impl TableFunction for Doubler {
        fn schema(&self, _args: &[Value]) -> Schema {
            Schema::from_pairs([("x", DataType::Int)])
        }
        fn execute(&self, args: &[Value], work: &mut u64) -> Vec<Batch> {
            let n = args[0].as_int().unwrap();
            *work += 1000; // pretend the function scanned 1000 rows
            vec![Batch::new(vec![Column::from_ints(vec![n * 2])])]
        }
    }

    #[test]
    fn fn_scan_executes_once_and_reports_work() {
        let m = OpMetrics::shared();
        let mut f = fn_scan(
            Arc::new(Doubler),
            vec![Value::Int(21)],
            m.clone(),
            FailSlot::shared(),
        );
        assert_eq!(f.progress(), 0.0);
        let out = run_to_batch(&mut f);
        assert_eq!(out.column(0).as_ints(), &[42]);
        assert_eq!(m.own_work(), 1001); // 1000 hidden + 1 row out
        assert_eq!(f.progress(), 1.0);
    }
}
