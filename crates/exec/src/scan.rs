//! Leaf operators: table scan and table-function scan.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rdb_storage::Table;
use rdb_vector::{Batch, Value, BATCH_CAPACITY};

use crate::context::TableFunction;
use crate::error::FailSlot;
use crate::metrics::OpMetrics;
use crate::op::{timed_next, BlockingExec, Operator};

/// Sequential scan over an in-memory table with column projection. Each
/// batch is an O(1) zero-copy slice of the table's columns.
pub struct ScanExec {
    table: Arc<Table>,
    projection: Vec<usize>,
    offset: usize,
    metrics: Arc<OpMetrics>,
    cancel: Option<Arc<AtomicBool>>,
}

impl ScanExec {
    /// Scan `table`, emitting the columns at `projection` positions.
    pub fn new(table: Arc<Table>, projection: Vec<usize>, metrics: Arc<OpMetrics>) -> Self {
        ScanExec {
            table,
            projection,
            offset: 0,
            metrics,
            cancel: None,
        }
    }

    /// Observe a cancellation flag: a set flag ends the scan at the next
    /// batch boundary, which bounds cancel latency even when every batch
    /// feeds a long operator chain above. The flag is only loaded, never
    /// cleared (the connection layer owns the clear).
    pub fn with_cancel(mut self, cancel: Option<Arc<AtomicBool>>) -> Self {
        self.cancel = cancel;
        self
    }
}

impl Operator for ScanExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.offset >= self.table.rows() {
                return None;
            }
            if self
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::Acquire))
            {
                return None; // cancelled: end the stream early
            }
            let len = BATCH_CAPACITY.min(self.table.rows() - self.offset);
            let batch = self.table.scan_batch(&self.projection, self.offset, len);
            self.offset += len;
            Some(batch)
        })
    }

    fn progress(&self) -> f64 {
        if self.table.rows() == 0 {
            1.0
        } else {
            self.offset as f64 / self.table.rows() as f64
        }
    }
}

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
    use crate::op::run_to_batch;
    use rdb_storage::TableBuilder;
    use rdb_vector::{Column, DataType, Schema};

    fn table(rows: usize) -> Arc<Table> {
        let schema = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema, rows);
        for i in 0..rows {
            b.push_row(vec![Value::Int(i as i64), Value::Int((i * 2) as i64)]);
        }
        b.finish()
    }

    #[test]
    fn scan_projects_and_batches() {
        let t = table(2500);
        let m = OpMetrics::shared();
        let mut scan = ScanExec::new(t, vec![1], m.clone());
        assert_eq!(scan.progress(), 0.0);
        let out = run_to_batch(&mut scan);
        assert_eq!(out.rows(), 2500);
        assert_eq!(out.width(), 1);
        assert_eq!(out.column(0).as_ints()[2], 4);
        assert_eq!(scan.progress(), 1.0);
        assert_eq!(m.rows_out(), 2500);
        assert!(m.time_ns() > 0);
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
