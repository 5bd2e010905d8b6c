//! Execution batches: equal-length column sets with optional selection
//! vectors.
//!
//! A [`Batch`] is a horizontal chunk of a result. Its columns always have
//! the same *physical* length; an optional **selection vector** (`sel`)
//! narrows the batch to a subset of those rows without moving any data —
//! the standard vectorized answer to filtering (a filter emits the same
//! shared columns plus a list of qualifying row indices instead of
//! gathering survivors into fresh columns).
//!
//! Terminology used throughout the executor:
//!
//! * **physical** rows/indices — positions in the columns themselves
//!   (`0..physical_rows()`); expression evaluation works at this level and
//!   produces physical-length columns.
//! * **logical** rows — the rows the batch represents (`rows()`): all
//!   physical rows when there is no selection, else `sel.len()` rows in
//!   selection order.
//!
//! Row-level accessors ([`Batch::row`], [`Batch::take`], [`Batch::slice`],
//! [`Batch::filter`]) are logical. Operators that walk rows use
//! [`Batch::sel`]/[`Batch::physical_rows`] to iterate physical positions
//! directly. [`Batch::compact`] materializes the selection (a gather) and
//! is only called at pipeline breakers, store boundaries, and the public
//! stream edge — everywhere else batches flow zero-copy.

use std::sync::Arc;

use crate::column::Column;
use crate::value::Value;
use crate::{morsel_bounds, morsel_count};

/// A horizontal chunk of a result: equal-length columns plus an optional
/// selection vector.
///
/// Batches do not carry a schema; operators know their output schema
/// statically and batches are positional. `Batch::clone` is O(width) `Arc`
/// refcount bumps — no row data is copied.
#[derive(Debug, Clone)]
pub struct Batch {
    columns: Vec<Column>,
    /// Physical length of every column.
    physical: usize,
    /// Selected physical row indices, ascending; `None` = all rows.
    sel: Option<Arc<Vec<u32>>>,
    /// Logical row count (`sel.len()` when a selection is present).
    rows: usize,
}

impl Batch {
    /// Build a batch from columns; all columns must have identical length.
    pub fn new(columns: Vec<Column>) -> Self {
        let physical = columns.first().map_or(0, |c| c.len());
        for c in &columns {
            assert_eq!(c.len(), physical, "batch column length mismatch");
        }
        Batch {
            columns,
            physical,
            sel: None,
            rows: physical,
        }
    }

    /// An empty batch with zero columns and zero rows (used by operators
    /// producing a single aggregate row from empty input edge cases).
    pub fn empty() -> Self {
        Batch {
            columns: Vec::new(),
            physical: 0,
            sel: None,
            rows: 0,
        }
    }

    /// Attach a selection vector of **physical** row indices, replacing any
    /// existing selection (callers compose selections before attaching —
    /// see `rdb_expr::CompiledPredicate::select_into`). Zero-copy: the
    /// columns are shared.
    pub fn with_selection(mut self, sel: Arc<Vec<u32>>) -> Self {
        debug_assert!(
            sel.iter().all(|&i| (i as usize) < self.physical),
            "selection index out of bounds"
        );
        self.rows = sel.len();
        self.sel = Some(sel);
        self
    }

    /// The selection vector, if this batch is narrowed to a subset of its
    /// physical rows.
    #[inline]
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_ref().map(|s| &s[..])
    }

    /// Number of logical rows (what downstream operators see).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of physical rows in each column.
    #[inline]
    pub fn physical_rows(&self) -> usize {
        self.physical
    }

    /// Whether the batch has zero logical rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The physical columns, in schema order. Index these with physical
    /// row positions (see module docs).
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Physical column at position `i`.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Consume into the column vector. Panics if a selection is still
    /// attached — compact first; dropping a selection silently would
    /// resurrect filtered-out rows.
    pub fn into_columns(self) -> Vec<Column> {
        assert!(
            self.sel.is_none(),
            "into_columns on a selected batch; call compact() first"
        );
        self.columns
    }

    /// Physical row index of logical row `i`.
    #[inline]
    pub fn to_physical(&self, i: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[i] as usize,
            None => i,
        }
    }

    /// Call `f` with the physical index of every selected row, in order.
    #[inline]
    pub fn for_each_selected(&self, mut f: impl FnMut(usize)) {
        match &self.sel {
            Some(sel) => {
                for &p in sel.iter() {
                    f(p as usize);
                }
            }
            None => {
                for p in 0..self.physical {
                    f(p);
                }
            }
        }
    }

    /// Materialize the selection: gather selected rows into fresh,
    /// unselected columns. Without a selection this is a zero-copy clone.
    pub fn compact(&self) -> Batch {
        match &self.sel {
            None => self.clone(),
            Some(sel) => Batch::new(self.columns.iter().map(|c| c.take(sel)).collect()),
        }
    }

    /// Gather logical rows by index across all columns (`indices` are
    /// logical positions; the result carries no selection).
    pub fn take(&self, indices: &[u32]) -> Batch {
        match &self.sel {
            None => self.take_physical(indices),
            Some(sel) => {
                let phys: Vec<u32> = indices.iter().map(|&i| sel[i as usize]).collect();
                self.take_physical(&phys)
            }
        }
    }

    /// Gather **physical** rows by index, ignoring any selection. The
    /// operator-internal gather primitive (joins and aggregates compute
    /// physical indices directly).
    pub fn take_physical(&self, indices: &[u32]) -> Batch {
        Batch::new(self.columns.iter().map(|c| c.take(indices)).collect())
    }

    /// Keep logical rows where `mask` is true, across all columns.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        assert_eq!(mask.len(), self.rows, "filter mask length mismatch");
        let indices: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i as u32))
            .collect();
        self.take(&indices)
    }

    /// Contiguous sub-range of logical rows. Zero-copy for unselected
    /// batches (column windows); selected batches share columns and carry
    /// the corresponding slice of the selection.
    pub fn slice(&self, offset: usize, len: usize) -> Batch {
        match &self.sel {
            None => Batch::new(self.columns.iter().map(|c| c.slice(offset, len)).collect()),
            Some(sel) => {
                let sub: Vec<u32> = sel[offset..offset + len].to_vec();
                Batch {
                    columns: self.columns.clone(),
                    physical: self.physical,
                    sel: Some(Arc::new(sub)),
                    rows: len,
                }
            }
        }
    }

    /// Concatenate batches of identical width and column types, compacting
    /// any selections. A single unselected input is returned as a zero-copy
    /// shared clone.
    pub fn concat(batches: &[Batch]) -> Batch {
        assert!(!batches.is_empty(), "concat of zero batches");
        if batches.len() == 1 {
            return batches[0].compact();
        }
        let compacted: Vec<Batch> = batches.iter().map(|b| b.compact()).collect();
        let width = compacted[0].width();
        let mut cols = Vec::with_capacity(width);
        for i in 0..width {
            let parts: Vec<&Column> = compacted.iter().map(|b| b.column(i)).collect();
            cols.push(Column::concat(&parts));
        }
        Batch::new(cols)
    }

    /// Rows to columns: the one place schema-ordered row values (an
    /// append, a deleted-row capture, a logged delta) become a dense
    /// batch. Cells coerce as [`crate::column::ColumnBuilder::push`] does
    /// (NULL anywhere, ints promote to float); `rows` must already be
    /// validated against `schema`.
    pub fn from_rows(schema: &crate::schema::Schema, rows: &[Vec<Value>]) -> Batch {
        Batch::new(
            schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let mut b = crate::column::ColumnBuilder::new(f.dtype, rows.len());
                    for row in rows {
                        b.push(row[i].clone());
                    }
                    b.finish()
                })
                .collect(),
        )
    }

    /// Concatenate batches, producing a zero-row batch that preserves the
    /// schema's width (one empty column per field) when there are none —
    /// the materialization helper for result collection points.
    pub fn concat_or_empty(schema: &crate::schema::Schema, batches: &[Batch]) -> Batch {
        if batches.is_empty() {
            Batch::new(
                schema
                    .fields()
                    .iter()
                    .map(|f| crate::column::ColumnBuilder::new(f.dtype, 0).finish())
                    .collect(),
            )
        } else {
            Batch::concat(batches)
        }
    }

    /// The `idx`-th [`crate::BATCH_CAPACITY`]-sized morsel of this batch:
    /// a zero-copy window, the unit of work-stealing under morsel-driven
    /// parallel execution and of re-chunking on cache replay. Morsel
    /// boundaries are a pure function of row count, so every execution of
    /// the same data — serial or any DOP — sees identical batch edges.
    pub fn morsel(&self, idx: usize) -> Batch {
        let (offset, len) = morsel_bounds(self.rows, idx);
        self.slice(offset, len)
    }

    /// Number of morsels covering this batch (see [`Batch::morsel`]).
    pub fn morsel_count(&self) -> usize {
        morsel_count(self.rows)
    }

    /// Extract one **physical** row as scalar values.
    pub fn physical_row(&self, p: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(p)).collect()
    }

    /// Extract one logical row as scalar values (test/display helper).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.physical_row(self.to_physical(i))
    }

    /// All logical rows as scalar value vectors (test helper).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Approximate in-memory footprint in bytes, as a stream of batches
    /// adds up: each column's [`Column::stream_bytes`] (a string
    /// dictionary counts at most the share the batch's rows can
    /// reference), and for a selected batch the shared columns' span
    /// scaled by the selectivity. An estimate for execution metrics;
    /// exact accounting ([`Column::size_bytes`]) happens where results
    /// are kept.
    pub fn size_bytes(&self) -> usize {
        let span: usize = self.columns.iter().map(|c| c.stream_bytes()).sum();
        match &self.sel {
            None => span,
            Some(_) if self.physical == 0 => 0,
            Some(_) => span * self.rows / self.physical,
        }
    }
}

/// Logical equality: same width and the same logical rows (selection and
/// windowing resolved), NULL-aware.
impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.width() == other.width()
            && self.rows == other.rows
            && self.to_rows() == other.to_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::new(vec![
            Column::from_ints(vec![1, 2, 3]),
            Column::from_strs(["a", "b", "c"]),
        ])
    }

    #[test]
    fn dimensions() {
        let b = batch();
        assert_eq!(b.rows(), 3);
        assert_eq!(b.width(), 2);
        assert!(!b.is_empty());
        assert!(Batch::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unequal_columns_rejected() {
        Batch::new(vec![
            Column::from_ints(vec![1]),
            Column::from_ints(vec![1, 2]),
        ]);
    }

    #[test]
    fn take_and_filter() {
        let b = batch();
        let t = b.take(&[2, 0]);
        assert_eq!(t.row(0), vec![Value::Int(3), Value::str("c")]);
        let f = b.filter(&[false, true, false]);
        assert_eq!(f.rows(), 1);
        assert_eq!(f.row(0), vec![Value::Int(2), Value::str("b")]);
    }

    #[test]
    fn slice_and_concat() {
        let b = batch();
        let s1 = b.slice(0, 1);
        let s2 = b.slice(1, 2);
        let c = Batch::concat(&[s1, s2]);
        assert_eq!(c.to_rows(), b.to_rows());
    }

    #[test]
    fn clone_and_slice_share_column_storage() {
        let b = batch();
        let cl = b.clone();
        assert!(b.column(0).shares_storage(cl.column(0)));
        let s = b.slice(1, 2);
        assert!(b.column(1).shares_storage(s.column(1)));
        assert_eq!(s.row(0), vec![Value::Int(2), Value::str("b")]);
    }

    #[test]
    fn selection_narrows_without_moving_data() {
        let b = batch().with_selection(Arc::new(vec![0, 2]));
        assert_eq!(b.rows(), 2);
        assert_eq!(b.physical_rows(), 3);
        assert_eq!(b.row(1), vec![Value::Int(3), Value::str("c")]);
        assert_eq!(b.to_physical(1), 2);
        let mut seen = Vec::new();
        b.for_each_selected(|p| seen.push(p));
        assert_eq!(seen, vec![0, 2]);
        // Columns are untouched (still 3 physical rows, shared).
        assert_eq!(b.column(0).as_ints(), &[1, 2, 3]);
    }

    #[test]
    fn compact_materializes_selection() {
        let src = batch();
        let b = src.clone().with_selection(Arc::new(vec![2, 0]));
        let c = b.compact();
        assert!(c.sel().is_none());
        assert_eq!(c.rows(), 2);
        assert_eq!(c.column(0).as_ints(), &[3, 1]);
        assert!(!c.column(0).shares_storage(src.column(0)));
        // Compacting an unselected batch is zero-copy.
        let cc = src.compact();
        assert!(cc.column(0).shares_storage(src.column(0)));
    }

    #[test]
    fn logical_take_filter_slice_respect_selection() {
        let b = batch().with_selection(Arc::new(vec![0, 2]));
        let t = b.take(&[1]);
        assert_eq!(t.to_rows(), vec![vec![Value::Int(3), Value::str("c")]]);
        let f = b.filter(&[true, false]);
        assert_eq!(f.to_rows(), vec![vec![Value::Int(1), Value::str("a")]]);
        let s = b.slice(1, 1);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.row(0), vec![Value::Int(3), Value::str("c")]);
        // Sliced selection still shares the columns.
        assert!(s.column(0).shares_storage(b.column(0)));
    }

    #[test]
    fn concat_compacts_selected_batches() {
        let a = batch().with_selection(Arc::new(vec![1]));
        let b = batch();
        let c = Batch::concat(&[a, b]);
        assert_eq!(c.rows(), 4);
        assert_eq!(c.column(0).as_ints(), &[2, 1, 2, 3]);
        assert!(c.sel().is_none());
    }

    #[test]
    fn single_batch_concat_is_zero_copy() {
        let b = batch();
        let c = Batch::concat(std::slice::from_ref(&b));
        assert!(c.column(0).shares_storage(b.column(0)));
    }

    #[test]
    #[should_panic(expected = "compact")]
    fn into_columns_rejects_selected_batch() {
        let _ = batch().with_selection(Arc::new(vec![0])).into_columns();
    }

    #[test]
    fn logical_equality() {
        let a = batch().with_selection(Arc::new(vec![1]));
        let b = batch().slice(1, 1);
        assert_eq!(a, b);
        assert_ne!(a, batch());
    }

    #[test]
    fn size_accounting() {
        let b = batch();
        assert_eq!(
            b.size_bytes(),
            b.column(0).size_bytes() + b.column(1).size_bytes()
        );
        // Selected batches report a selectivity-scaled estimate.
        let sel = b.clone().with_selection(Arc::new(vec![0]));
        assert!(sel.size_bytes() < b.size_bytes());
    }
}
