//! In-memory columnar storage: versioned tables and the catalog.
//!
//! Base tables are fully resident columnar arrays (the paper's evaluation
//! uses warm runs with the working set in the buffer pool, so an in-memory
//! store preserves the relevant behaviour). Unlike the paper — which
//! leaves update handling out of scope (§II) apart from noting that cached
//! results must be invalidated when their base tables change (§V) — tables
//! here are **mutable through versioning**:
//!
//! * [`Table`] is one immutable, epoch-stamped snapshot: a name, a schema
//!   and a [`ChunkList`], an ordered list of `Arc`-shared column
//!   [`Chunk`]s, so holding a snapshot costs nothing and survives any
//!   number of later commits. The chunk list is also what a cached result
//!   (`rdb_exec::MaterializedResult`) holds: an append to either pushes a
//!   tail chunk that merges geometrically until it seals at [`SEAL_ROWS`],
//!   and shares every chunk before it;
//! * [`VersionedTable`] is the mutable wrapper: `append`/`delete_where`
//!   commit a new snapshot with the epoch bumped by one — sharing every
//!   chunk the write did not touch, so a write costs its delta — while
//!   concurrent readers keep their pinned version (O(1) snapshot reads,
//!   no torn scans);
//! * [`Catalog`] maps names to versioned tables and hands out
//!   [`CatalogSnapshot`]s — the per-query unit of consistency whose epoch
//!   vector also keys the recycler's cache-freshness checks;
//! * every write is described once, by the [`Commit`] its table builds:
//!   the table, schema and epoch, and the [`Change`] — the appended rows
//!   as one batch, a delete's positions, a replacement's chunks. The
//!   [`CommitHook`] sees it in exact epoch order before the version swap
//!   (the anchor point for the `rdb_wal` write-ahead log, which encodes
//!   it), and the writer gets the same value back to repair cached
//!   results and feed live subscriptions. [`VersionedTable::apply_logged`]
//!   and [`VersionedTable::restore`] are the replay entry points.

use std::fmt;

pub mod catalog;
pub mod chunks;
pub mod table;

pub use catalog::{Catalog, CatalogSnapshot};
pub use chunks::{Chunk, ChunkList, SEAL_ROWS};
pub use table::{rows_to_batch, Change, Commit, CommitHook, Table, TableBuilder, VersionedTable};

/// Errors from catalog registration and table mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError(pub String);

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage error: {}", self.0)
    }
}

impl std::error::Error for StorageError {}
