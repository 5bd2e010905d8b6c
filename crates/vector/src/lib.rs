//! Columnar vector data model for the recycler-db engine.
//!
//! This crate is the lowest layer of the workspace: it defines the data
//! representation that flows through the pipelined executor in
//! vector-at-a-time fashion (the execution paradigm of Vectorwise, the system
//! the recycling paper integrates with).
//!
//! * [`DataType`] / [`Value`] — the scalar type system (bool, int, float,
//!   string, date) with an explicit `Null`.
//! * [`Column`] — a typed column of values with an optional validity mask.
//!   Strings are dictionary codes over an `Arc`-shared [`StrDict`]
//!   ([`dict`]); there is no other string form.
//! * [`Batch`] — a horizontal slice of a result: a set of equal-length
//!   columns, at most [`BATCH_CAPACITY`] rows.
//! * [`Schema`] / [`Field`] — named, typed column metadata.
//! * [`row`] — row-wise helpers: multi-column comparators for sort/top-N
//!   and the hash aggregate's emission order.
//! * [`hash`] — vectorized per-row hashing over key column sets and the
//!   one key equality ([`KeyCells`]) hash joins and hash aggregation
//!   confirm candidates with.
//!
//! # Ownership model: shared columns, selection vectors, explicit copies
//!
//! The hot data path is **zero-copy**. Column payloads live in
//! reference-counted storage (`Arc`), and the cheap operations are exactly
//! the ones the pipelined recycler leans on:
//!
//! * `Column::clone` / `Batch::clone` — refcount bumps. The recycler's
//!   store tee and cache-hit replay hand out shared batches; a cache hit
//!   costs O(batches), not O(rows).
//! * [`Column::slice`] / `Batch::slice` — O(1) windows over the same
//!   storage. Table scans slice base columns instead of rebuilding them.
//! * Filters attach a **selection vector** (`Batch::with_selection`): the
//!   list of qualifying physical row indices rides along with the shared
//!   columns and downstream operators iterate it directly.
//!
//! Copies happen at three explicit points only:
//!
//! * [`ColumnBuilder`] output — builders always produce *unique* storage,
//!   so freshly computed results never pay copy-on-write;
//! * gathers (`take`/`compact`) at pipeline breakers (sort, aggregation
//!   build, join build side), at store/materialization boundaries, and at
//!   the public stream edge, where positional results must be dense (a
//!   string column's gather copies its `u32` codes and shares its
//!   dictionary);
//! * genuine mutation, which goes through copy-on-write
//!   (`Arc::make_mut`, e.g. [`Column::map_bools`]) and degrades to a
//!   window copy only when the storage is shared.
//!
//! Operators that merely reorder, tee, or replay data must **not** call
//! `compact`; operators that hand positional data to code indexing
//! `0..rows()` into raw column slices must.
//!
//! [`BATCH_CAPACITY`] (1024 rows) is the scan/re-chunk granule: big enough
//! to amortize per-batch dispatch, small enough that one batch's worth of
//! operator-local vectors stays cache-resident. Raising it trades cache
//! locality for fewer pulls; with zero-copy slicing the re-chunk cost
//! itself is negligible either way.

pub mod batch;
pub mod column;
pub mod dict;
pub mod hash;
pub mod row;
pub mod schema;
pub mod types;
pub mod value;

pub use batch::Batch;
pub use column::{Column, ColumnBuilder, ColumnData, ColumnSlice, StrSlice};
pub use dict::{DictBuilder, Recoder, StrDict};
pub use hash::{hash_columns, key_rows_eq, KeyCells};
pub use row::{RowCmp, SortOrder};
pub use schema::{Field, Schema};
pub use types::{date_from_ymd, format_date, ymd_from_date, DataType};
pub use value::Value;

/// Maximum number of rows in one execution batch.
///
/// Vectorwise-style engines use vector sizes around 1K so that a full set of
/// operator-local vectors fits in the CPU cache.
pub const BATCH_CAPACITY: usize = 1024;

/// Number of [`BATCH_CAPACITY`]-sized morsels covering `rows` rows — the
/// scheduling granule of morsel-driven parallel scans. Deterministic by
/// construction: the morsel grid depends only on the row count, never on
/// the degree of parallelism, so batch boundaries (and everything built on
/// them, like a store tee's published result) are identical at any DOP.
pub const fn morsel_count(rows: usize) -> usize {
    rows.div_ceil(BATCH_CAPACITY)
}

/// `(offset, len)` of morsel `idx` over `rows` rows (`idx` must be in
/// `0..morsel_count(rows)`).
pub fn morsel_bounds(rows: usize, idx: usize) -> (usize, usize) {
    let offset = idx * BATCH_CAPACITY;
    assert!(offset < rows, "morsel {idx} out of range for {rows} rows");
    (offset, BATCH_CAPACITY.min(rows - offset))
}
