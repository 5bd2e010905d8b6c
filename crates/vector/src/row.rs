//! Row-wise helpers: NULL-key detection and multi-column comparison.
//!
//! Sort, top-N and the hash aggregate's emission order need a total order
//! over rows; it is implemented here over column sets, so the executor
//! crates stay free of per-type dispatch in their own code. Key equality
//! and hashing live in [`crate::hash`].

use std::cmp::Ordering;

use crate::column::{Column, ColumnSlice};

/// Sort direction for one key column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// Ascending, NULLs first.
    Asc,
    /// Descending, NULLs last.
    Desc,
}

impl SortOrder {
    /// Apply the direction to an ascending ordering.
    #[inline]
    pub fn apply(self, ord: Ordering) -> Ordering {
        match self {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        }
    }
}

/// Whether any key column is NULL at `row` (joins skip such rows).
pub fn row_has_null_key(cols: &[&Column], row: usize) -> bool {
    cols.iter().any(|c| !c.is_valid(row))
}

/// Multi-column row comparator for sort and top-N.
///
/// Compares row `i` of one column set with row `j` of another (they may be
/// the same set) under per-key sort directions. NULLs order first under
/// `Asc` (and therefore last under `Desc`).
pub struct RowCmp<'a> {
    left: &'a [&'a Column],
    right: &'a [&'a Column],
    orders: &'a [SortOrder],
}

impl<'a> RowCmp<'a> {
    /// Comparator between two column sets (pass the same set twice to
    /// compare rows within one batch).
    pub fn new(left: &'a [&'a Column], right: &'a [&'a Column], orders: &'a [SortOrder]) -> Self {
        assert_eq!(left.len(), right.len());
        assert_eq!(left.len(), orders.len());
        RowCmp {
            left,
            right,
            orders,
        }
    }

    /// Compare row `i` on the left with row `j` on the right.
    pub fn cmp(&self, i: usize, j: usize) -> Ordering {
        for (k, order) in self.orders.iter().enumerate() {
            let ord = cmp_cell(self.left[k], i, self.right[k], j);
            let ord = order.apply(ord);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// Compare a single cell of `a` at `i` with a cell of `b` at `j`
/// (ascending, NULLs first). Panics if the column types differ.
pub fn cmp_cell(a: &Column, i: usize, b: &Column, j: usize) -> Ordering {
    match (a.is_valid(i), b.is_valid(j)) {
        (false, false) => return Ordering::Equal,
        (false, true) => return Ordering::Less,
        (true, false) => return Ordering::Greater,
        (true, true) => {}
    }
    match (a.values(), b.values()) {
        (ColumnSlice::Bool(x), ColumnSlice::Bool(y)) => x[i].cmp(&y[j]),
        (ColumnSlice::Int(x), ColumnSlice::Int(y)) => x[i].cmp(&y[j]),
        (ColumnSlice::Float(x), ColumnSlice::Float(y)) => x[i].total_cmp(&y[j]),
        (ColumnSlice::Str(x), ColumnSlice::Str(y)) => x.cmp_at(i, &y, j),
        (ColumnSlice::Date(x), ColumnSlice::Date(y)) => x[i].cmp(&y[j]),
        (ColumnSlice::Int(x), ColumnSlice::Float(y)) => (x[i] as f64).total_cmp(&y[j]),
        (ColumnSlice::Float(x), ColumnSlice::Int(y)) => x[i].total_cmp(&(y[j] as f64)),
        (a, b) => panic!("cannot compare {} with {}", a.data_type(), b.data_type()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::hash::key_rows_eq;
    use crate::types::DataType;
    use crate::value::Value;

    #[test]
    fn nulls_group_together_but_differ_from_values() {
        let mut b = ColumnBuilder::new(DataType::Int, 3);
        b.push_null();
        b.push_null();
        b.push(Value::Int(0));
        let c = b.finish();
        let cols = [&c];
        assert!(key_rows_eq(&cols, 0, &cols, 1));
        assert!(!key_rows_eq(&cols, 0, &cols, 2));
        assert!(row_has_null_key(&cols, 0));
        assert!(!row_has_null_key(&cols, 2));
    }

    #[test]
    fn row_cmp_multi_key() {
        let a = Column::from_ints(vec![1, 1, 2]);
        let b = Column::from_floats(vec![9.0, 3.0, 1.0]);
        let cols: Vec<&Column> = vec![&a, &b];
        let orders = [SortOrder::Asc, SortOrder::Desc];
        let cmp = RowCmp::new(&cols, &cols, &orders);
        // (1, 9.0) vs (1, 3.0): first key ties, second desc => 9.0 first
        assert_eq!(cmp.cmp(0, 1), Ordering::Less);
        // (1, ..) vs (2, ..)
        assert_eq!(cmp.cmp(1, 2), Ordering::Less);
        assert_eq!(cmp.cmp(2, 0), Ordering::Greater);
        assert_eq!(cmp.cmp(0, 0), Ordering::Equal);
    }

    #[test]
    fn cmp_cell_nulls_first() {
        let mut b = ColumnBuilder::new(DataType::Int, 2);
        b.push_null();
        b.push(Value::Int(1));
        let c = b.finish();
        assert_eq!(cmp_cell(&c, 0, &c, 1), Ordering::Less);
        assert_eq!(cmp_cell(&c, 1, &c, 0), Ordering::Greater);
        assert_eq!(cmp_cell(&c, 0, &c, 0), Ordering::Equal);
    }

    #[test]
    fn cmp_cell_numeric_promotion() {
        let i = Column::from_ints(vec![2]);
        let f = Column::from_floats(vec![2.5]);
        assert_eq!(cmp_cell(&i, 0, &f, 0), Ordering::Less);
    }
}
