//! Per-operator run-time measurements.
//!
//! The recycler's benefit metric is fed by *measured* statistics (paper
//! §III-C: "the base cost ... is measured during the execution of each
//! operator"). Every operator owns an [`OpMetrics`]; the builder assembles
//! them into a [`MetricsNode`] tree parallel to the plan so that, after a
//! query finishes, the recycler can read per-subtree cost, cardinality and
//! size.
//!
//! Two cost views are maintained:
//!
//! * **inclusive wall time** — time spent inside `next_batch` of the
//!   operator (children included), i.e. the cost of computing that subtree's
//!   result: exactly the paper's base cost;
//! * **work units** — a deterministic proxy (rows produced plus
//!   operator-declared extra work such as rows scanned or hashed), summed
//!   over the subtree on demand. Unit tests use work units so benefit and
//!   eviction decisions are exact and repeatable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters owned by one physical operator. All fields are atomics so the
/// concurrent engine can read them while a query runs (e.g. a speculative
/// store extrapolating mid-flight).
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Inclusive wall-clock nanoseconds spent in this operator's
    /// `next_batch` (children included).
    pub time_ns: AtomicU64,
    /// Rows emitted by this operator.
    pub rows_out: AtomicU64,
    /// Bytes emitted by this operator (the paper estimates result sizes
    /// from cardinality and sampled tuple widths; we measure the batch
    /// footprint directly, which is the same quantity without sampling
    /// error).
    pub bytes_out: AtomicU64,
    /// Operator-declared extra work units (rows scanned, rows hashed, ...).
    pub extra_work: AtomicU64,
    /// Number of `next_batch` calls.
    pub calls: AtomicU64,
}

impl OpMetrics {
    /// Fresh zeroed metrics behind an `Arc`.
    pub fn shared() -> Arc<OpMetrics> {
        Arc::new(OpMetrics::default())
    }

    /// Add inclusive time.
    pub fn add_time(&self, ns: u64) {
        self.time_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Add emitted rows.
    pub fn add_rows(&self, rows: u64) {
        self.rows_out.fetch_add(rows, Ordering::Relaxed);
    }

    /// Add emitted bytes.
    pub fn add_bytes(&self, bytes: u64) {
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Add operator-declared work.
    pub fn add_work(&self, units: u64) {
        self.extra_work.fetch_add(units, Ordering::Relaxed);
    }

    /// Count one call.
    pub fn add_call(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Inclusive time in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        self.time_ns.load(Ordering::Relaxed)
    }

    /// Rows emitted so far.
    pub fn rows_out(&self) -> u64 {
        self.rows_out.load(Ordering::Relaxed)
    }

    /// Bytes emitted so far.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// `next_batch` calls so far. Zero means the operator never ran —
    /// e.g. it sits in a join build input that was never drained because
    /// the probe side was empty — which the recycler uses to keep zeroed
    /// metrics out of its cost stats.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Exclusive work units of this operator alone.
    pub fn own_work(&self) -> u64 {
        self.rows_out.load(Ordering::Relaxed) + self.extra_work.load(Ordering::Relaxed)
    }
}

/// Metrics tree mirroring the plan shape.
#[derive(Debug, Clone)]
pub struct MetricsNode {
    /// This operator's counters.
    pub metrics: Arc<OpMetrics>,
    /// Children in plan order.
    pub children: Vec<MetricsNode>,
}

impl MetricsNode {
    /// Leaf node.
    pub fn leaf(metrics: Arc<OpMetrics>) -> Self {
        MetricsNode {
            metrics,
            children: Vec::new(),
        }
    }

    /// Internal node.
    pub fn new(metrics: Arc<OpMetrics>, children: Vec<MetricsNode>) -> Self {
        MetricsNode { metrics, children }
    }

    /// Inclusive wall time of this subtree (already measured inclusively).
    pub fn inclusive_time_ns(&self) -> u64 {
        self.metrics.time_ns()
    }

    /// Inclusive work units: own work plus all descendants'.
    pub fn inclusive_work(&self) -> u64 {
        self.metrics.own_work()
            + self
                .children
                .iter()
                .map(|c| c.inclusive_work())
                .sum::<u64>()
    }

    /// Rows this subtree's root emitted (the result cardinality).
    pub fn cardinality(&self) -> u64 {
        self.metrics.rows_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = OpMetrics::shared();
        m.add_time(100);
        m.add_time(50);
        m.add_rows(10);
        m.add_work(5);
        m.add_call();
        assert_eq!(m.time_ns(), 150);
        assert_eq!(m.rows_out(), 10);
        assert_eq!(m.own_work(), 15);
    }

    #[test]
    fn inclusive_work_sums_subtree() {
        let leaf1 = OpMetrics::shared();
        leaf1.add_rows(100);
        let leaf2 = OpMetrics::shared();
        leaf2.add_work(40);
        let root = OpMetrics::shared();
        root.add_rows(7);
        let tree = MetricsNode::new(
            root,
            vec![MetricsNode::leaf(leaf1), MetricsNode::leaf(leaf2)],
        );
        assert_eq!(tree.inclusive_work(), 147);
        assert_eq!(tree.cardinality(), 7);
    }

    #[test]
    fn inclusive_time_is_roots_own_measurement() {
        let child = OpMetrics::shared();
        child.add_time(70);
        let root = OpMetrics::shared();
        root.add_time(100); // measured inclusively already
        let tree = MetricsNode::new(root, vec![MetricsNode::leaf(child)]);
        assert_eq!(tree.inclusive_time_ns(), 100);
    }
}
