//! Ordering operators: full sort, heap top-N, limit, and union-all.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rdb_expr::eval;
use rdb_plan::SortKeyExpr;
use rdb_vector::column::ColumnBuilder;
use rdb_vector::row::{RowCmp, SortOrder};
use rdb_vector::{Batch, Column, DataType, Value, BATCH_CAPACITY};

use crate::error::FailSlot;
use crate::metrics::OpMetrics;
use crate::op::{timed_next, BlockingExec, Operator};
use crate::parallel::{fold_input, BreakerInput};

/// Blocking full sort by the given keys: folds the whole input into a
/// `Vec<Batch>`, then sorts it stably. The input must be the canonical
/// (serial or gathered) batch sequence, so ties keep their scan order.
pub fn sort(
    input: Box<dyn Operator>,
    keys: Vec<SortKeyExpr>,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
) -> BlockingExec {
    let (work, slot) = (metrics.clone(), fail.clone());
    let build = move || {
        let batches = fold_input(
            BreakerInput::Operator(input),
            &slot,
            work,
            Vec::new,
            |batches, _chunk, batch| batches.push(batch),
            Vec::extend,
        )?;
        Ok(sort_batches(&batches, &keys))
    };
    BlockingExec::new(build, metrics, fail)
}

fn sort_batches(batches: &[Batch], keys: &[SortKeyExpr]) -> Vec<Batch> {
    if batches.is_empty() {
        return Vec::new();
    }
    let all = Batch::concat(batches);
    let key_cols: Vec<Column> = keys.iter().map(|k| eval(&k.expr, &all)).collect();
    let key_refs: Vec<&Column> = key_cols.iter().collect();
    let orders: Vec<SortOrder> = keys.iter().map(|k| k.order).collect();
    let cmp = RowCmp::new(&key_refs, &key_refs, &orders);
    let mut idx: Vec<u32> = (0..all.rows() as u32).collect();
    idx.sort_by(|&a, &b| cmp.cmp(a as usize, b as usize));
    let sorted = all.take(&idx);
    // Re-chunk into standard batches.
    let mut out = Vec::new();
    let mut offset = 0;
    while offset < sorted.rows() {
        let len = BATCH_CAPACITY.min(sorted.rows() - offset);
        out.push(sorted.slice(offset, len));
        offset += len;
    }
    out
}

/// A heap entry: sort-key values, the full row, and the row's global
/// position in scan order. The position is the final tie-break key, which
/// makes top-N fully deterministic on duplicate sort keys — the
/// earliest-scanned row wins — independent of heap internals *and* of
/// which parallel worker folded the row in.
pub(crate) struct HeapRow {
    keys: Vec<Value>,
    row: Vec<Value>,
    pos: u64,
    orders: Arc<[SortOrder]>,
}

impl HeapRow {
    fn key_cmp(&self, other: &Self) -> Ordering {
        for ((a, b), ord) in self.keys.iter().zip(&other.keys).zip(self.orders.iter()) {
            let c = ord.apply(a.cmp(b));
            if c != Ordering::Equal {
                return c;
            }
        }
        // Positions are unique, so the order is total (and `Eq` below is
        // consistent with it).
        self.pos.cmp(&other.pos)
    }
}

impl PartialEq for HeapRow {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapRow {}
impl PartialOrd for HeapRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapRow {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key_cmp(other)
    }
}

/// The accumulating state of a top-N: an N-row max-heap whose root is the
/// *worst* retained row. [`top_n`] folds serial input into one and
/// partitioned input into one per worker, then combines those with
/// [`TopNState::merge`] — the position tie-break (see [`HeapRow`]) makes
/// the merged result byte-identical to the serial one regardless of how
/// rows were distributed over workers.
pub(crate) struct TopNState {
    keys: Vec<SortKeyExpr>,
    orders: Arc<[SortOrder]>,
    n: usize,
    heap: BinaryHeap<HeapRow>,
}

impl TopNState {
    pub(crate) fn new(keys: Vec<SortKeyExpr>, n: usize) -> Self {
        let orders: Arc<[SortOrder]> = keys.iter().map(|k| k.order).collect();
        TopNState {
            keys,
            orders,
            n,
            heap: BinaryHeap::with_capacity(n + 1),
        }
    }

    fn offer(&mut self, entry: HeapRow) {
        if self.heap.len() < self.n {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry.key_cmp(worst) == Ordering::Less {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// Fold a batch in. `chunk` identifies the batch's place in canonical
    /// scan order (input ordinal serially, morsel index in parallel); row
    /// positions are derived from it, so ties resolve identically either
    /// way.
    pub(crate) fn fold(&mut self, batch: &Batch, chunk: u64) {
        if self.n == 0 {
            return;
        }
        let key_cols: Vec<Column> = self.keys.iter().map(|k| eval(&k.expr, batch)).collect();
        let mut seq = 0u64;
        // Key columns are physical-length; walk the selected rows.
        batch.for_each_selected(|row| {
            let entry = HeapRow {
                keys: key_cols.iter().map(|c| c.get(row)).collect(),
                row: batch.physical_row(row),
                pos: (chunk << 32) | seq,
                orders: self.orders.clone(),
            };
            seq += 1;
            self.offer(entry);
        });
    }

    /// Combine a partial run produced over a disjoint chunk subset.
    pub(crate) fn merge(&mut self, other: TopNState) {
        for entry in other.heap {
            self.offer(entry);
        }
    }

    /// Finish: retained rows ascending by (key, position), chunked into
    /// output batches.
    pub(crate) fn into_batches(self, output_types: &[DataType]) -> Vec<Batch> {
        let rows: Vec<HeapRow> = self.heap.into_sorted_vec(); // ascending
        let mut out = Vec::new();
        let mut offset = 0;
        while offset < rows.len() {
            let len = BATCH_CAPACITY.min(rows.len() - offset);
            let mut builders: Vec<ColumnBuilder> = output_types
                .iter()
                .map(|t| ColumnBuilder::new(*t, len))
                .collect();
            for r in &rows[offset..offset + len] {
                for (i, v) in r.row.iter().enumerate() {
                    builders[i].push(v.clone());
                }
            }
            out.push(Batch::new(
                builders.into_iter().map(|b| b.finish()).collect(),
            ));
            offset += len;
        }
        out
    }
}

/// Heap-based top-N (paper §IV-B): folds the input into an N-row
/// max-heap (one per worker when partitioned, merged into the first), so
/// the cost is `O(M log N)` rather than a full sort. Emits rows in key
/// order.
pub fn top_n(
    input: BreakerInput,
    keys: Vec<SortKeyExpr>,
    n: usize,
    output_types: Vec<DataType>,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
) -> BlockingExec {
    let (work, slot) = (metrics.clone(), fail.clone());
    let build = move || {
        let state = fold_input(
            input,
            &slot,
            work,
            || TopNState::new(keys.clone(), n),
            |state, chunk, batch| state.fold(&batch, chunk),
            TopNState::merge,
        )?;
        Ok(state.into_batches(&output_types))
    };
    BlockingExec::new(build, metrics, fail)
}

/// Pass through the first `n` rows, then stop pulling.
pub struct LimitExec {
    child: Box<dyn Operator>,
    remaining: usize,
    metrics: Arc<OpMetrics>,
}

impl LimitExec {
    /// First `n` rows of `child`.
    pub fn new(child: Box<dyn Operator>, n: usize, metrics: Arc<OpMetrics>) -> Self {
        LimitExec {
            child,
            remaining: n,
            metrics,
        }
    }
}

impl Operator for LimitExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.remaining == 0 {
                return None;
            }
            let batch = self.child.next_batch()?;
            if batch.rows() <= self.remaining {
                self.remaining -= batch.rows();
                Some(batch)
            } else {
                let out = batch.slice(0, self.remaining);
                self.remaining = 0;
                Some(out)
            }
        })
    }

    fn progress(&self) -> f64 {
        if self.remaining == 0 {
            1.0
        } else {
            self.child.progress()
        }
    }
}

/// Bag union: drains children in order.
pub struct UnionAllExec {
    children: Vec<Box<dyn Operator>>,
    current: usize,
    metrics: Arc<OpMetrics>,
}

impl UnionAllExec {
    /// Union of `children` (same schemas).
    pub fn new(children: Vec<Box<dyn Operator>>, metrics: Arc<OpMetrics>) -> Self {
        UnionAllExec {
            children,
            current: 0,
            metrics,
        }
    }
}

impl Operator for UnionAllExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            while self.current < self.children.len() {
                if let Some(b) = self.children[self.current].next_batch() {
                    return Some(b);
                }
                self.current += 1;
            }
            None
        })
    }

    fn progress(&self) -> f64 {
        if self.children.is_empty() {
            return 1.0;
        }
        let done = self.current as f64;
        let cur = if self.current < self.children.len() {
            self.children[self.current].progress()
        } else {
            0.0
        };
        ((done + cur) / self.children.len() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::run_to_batch;
    use crate::op::testing::BatchSource;
    use rdb_expr::Expr;

    fn src(vals: Vec<i64>, extra: Vec<f64>) -> Box<dyn Operator> {
        BatchSource::boxed(vec![Batch::new(vec![
            Column::from_ints(vals),
            Column::from_floats(extra),
        ])])
    }

    fn sorted(child: Box<dyn Operator>, keys: Vec<SortKeyExpr>) -> BlockingExec {
        sort(child, keys, OpMetrics::shared(), FailSlot::shared())
    }

    /// A serial top-N over `child`.
    fn top(
        child: Box<dyn Operator>,
        keys: Vec<SortKeyExpr>,
        n: usize,
        output_types: Vec<DataType>,
    ) -> BlockingExec {
        top_n(
            BreakerInput::Operator(child),
            keys,
            n,
            output_types,
            OpMetrics::shared(),
            FailSlot::shared(),
        )
    }

    #[test]
    fn sort_orders_rows() {
        let child = src(vec![3, 1, 2], vec![0.3, 0.1, 0.2]);
        let mut s = sorted(child, vec![SortKeyExpr::asc(Expr::col(0))]);
        let out = run_to_batch(&mut s);
        assert_eq!(out.column(0).as_ints(), &[1, 2, 3]);
        assert_eq!(out.column(1).as_floats(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn sort_desc_and_secondary_key() {
        let child = src(vec![1, 1, 2], vec![0.1, 0.9, 0.5]);
        let mut s = sorted(
            child,
            vec![
                SortKeyExpr::desc(Expr::col(0)),
                SortKeyExpr::asc(Expr::col(1)),
            ],
        );
        let out = run_to_batch(&mut s);
        assert_eq!(out.column(0).as_ints(), &[2, 1, 1]);
        assert_eq!(out.column(1).as_floats(), &[0.5, 0.1, 0.9]);
    }

    #[test]
    fn top_n_keeps_best() {
        let child = src(vec![5, 3, 9, 1, 7], vec![0.5, 0.3, 0.9, 0.1, 0.7]);
        let mut t = top(
            child,
            vec![SortKeyExpr::asc(Expr::col(0))],
            3,
            vec![DataType::Int, DataType::Float],
        );
        let out = run_to_batch(&mut t);
        assert_eq!(out.column(0).as_ints(), &[1, 3, 5]);
    }

    #[test]
    fn top_n_desc() {
        let child = src(vec![5, 3, 9, 1, 7], vec![0.0; 5]);
        let mut t = top(
            child,
            vec![SortKeyExpr::desc(Expr::col(0))],
            2,
            vec![DataType::Int, DataType::Float],
        );
        let out = run_to_batch(&mut t);
        assert_eq!(out.column(0).as_ints(), &[9, 7]);
    }

    #[test]
    fn top_n_smaller_input() {
        let child = src(vec![2, 1], vec![0.0; 2]);
        let mut t = top(
            child,
            vec![SortKeyExpr::asc(Expr::col(0))],
            10,
            vec![DataType::Int, DataType::Float],
        );
        let out = run_to_batch(&mut t);
        assert_eq!(out.column(0).as_ints(), &[1, 2]);
    }

    #[test]
    fn limit_truncates() {
        let child = src(vec![1, 2, 3, 4], vec![0.0; 4]);
        let mut l = LimitExec::new(child, 2, OpMetrics::shared());
        let out = run_to_batch(&mut l);
        assert_eq!(out.column(0).as_ints(), &[1, 2]);
        assert_eq!(l.progress(), 1.0);
    }

    #[test]
    fn union_concatenates() {
        let a = src(vec![1], vec![0.1]);
        let b = src(vec![2, 3], vec![0.2, 0.3]);
        let mut u = UnionAllExec::new(vec![a, b], OpMetrics::shared());
        let out = run_to_batch(&mut u);
        assert_eq!(out.column(0).as_ints(), &[1, 2, 3]);
        assert_eq!(u.progress(), 1.0);
    }
}
