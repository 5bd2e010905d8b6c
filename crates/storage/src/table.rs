//! Columnar tables: immutable chunked snapshots and versioned mutable
//! wrappers.

use std::sync::Arc;

use parking_lot::RwLock;
use rdb_vector::column::{Column, ColumnBuilder};
use rdb_vector::{Batch, DataType, Schema, Value, BATCH_CAPACITY};

use crate::chunks::{Chunk, ChunkList};
use crate::StorageError;

/// An immutable, fully in-memory columnar **snapshot** of a table at one
/// epoch: a name, a schema, an epoch and a [`ChunkList`] of `Arc`-shared
/// [`Chunk`]s. In-flight scans hold an `Arc<Table>` and keep reading their
/// version's chunks however many updates commit concurrently; consecutive
/// versions share every chunk a write did not touch.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    data: ChunkList,
    epoch: u64,
}

impl Table {
    /// Build a table from full-length columns matching `schema` (epoch 0).
    pub fn new(name: impl Into<String>, schema: Schema, columns: Vec<Column>) -> Self {
        Table::new_at_epoch(name, schema, columns, 0)
    }

    /// Build a single-chunk table snapshot stamped with an explicit epoch.
    pub fn new_at_epoch(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        epoch: u64,
    ) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        let rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields().iter().zip(&columns) {
            assert_eq!(c.len(), rows, "column '{}' length mismatch", f.name);
        }
        Table::from_chunks(name, schema, vec![Arc::new(Chunk::new(columns))], epoch)
    }

    /// Build a snapshot over existing chunks (shared, not copied). Empty
    /// chunks are dropped; a chunk that does not fit `schema` is a
    /// programming error and panics.
    pub fn from_chunks(
        name: impl Into<String>,
        schema: Schema,
        chunks: Vec<Arc<Chunk>>,
        epoch: u64,
    ) -> Self {
        for c in &chunks {
            if let Some(why) = c.mismatch(&schema) {
                panic!("{why}");
            }
        }
        Table {
            name: name.into(),
            schema,
            data: ChunkList::new(chunks),
            epoch,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version this snapshot belongs to. Epoch 0 is the freshly loaded
    /// table; every committed append/delete bumps it by one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// The chunks, row order (none of them empty).
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        self.data.chunks()
    }

    /// Full column by position, as one contiguous [`Column`]: a zero-copy
    /// clone while the table is a single chunk (every freshly loaded
    /// table), a gather over all rows otherwise. Loader and test
    /// convenience — scans go through [`Table::scan_batch`].
    pub fn column(&self, i: usize) -> Column {
        self.data.column(&self.schema, i)
    }

    /// Full column by name (see [`Table::column`]).
    pub fn column_by_name(&self, name: &str) -> Option<Column> {
        self.schema.index_of(name).map(|i| self.column(i))
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.size_bytes()
    }

    /// One scan batch: rows `[offset, offset+len)` of the columns at
    /// positions `projection`. A range inside one chunk — every batch of a
    /// freshly loaded table, all but one in 64 over sealed appended chunks
    /// — is an O(1) slice per column; a range that straddles a chunk seam
    /// is gathered (see [`ChunkList::scan_batch`]). Either way the rows are
    /// the same, so callers keep cutting batches on the grid of the
    /// table's row count alone.
    pub fn scan_batch(&self, projection: &[usize], offset: usize, len: usize) -> Batch {
        self.data.scan_batch(&self.schema, projection, offset, len)
    }

    /// Iterate the whole table as batches of at most [`BATCH_CAPACITY`] rows
    /// over the given column positions (test/loader helper; the executor
    /// drives its own scan cursor).
    pub fn batches(&self, projection: &[usize]) -> Vec<Batch> {
        let rows = self.rows();
        let mut out = Vec::with_capacity(rows / BATCH_CAPACITY + 1);
        let mut offset = 0;
        while offset < rows {
            let len = BATCH_CAPACITY.min(rows - offset);
            out.push(self.scan_batch(projection, offset, len));
            offset += len;
        }
        out
    }

    /// All rows as owned values, row-major (test and inspection helper;
    /// nothing on a write path calls it).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.data.to_rows()
    }
}

/// What one epoch commit did to its table, in the form the commit
/// already holds it: nothing here is rebuilt for the log or for the
/// recycler.
#[derive(Debug, Clone)]
pub enum Change {
    /// Rows appended after the predecessor's last row: one dense batch (no
    /// selection) in schema order, the columns the new tail chunk shares.
    Append(Batch),
    /// Rows removed, by ascending position in the predecessor snapshot.
    /// `before` is that snapshot (an `Arc` clone) when the commit was made
    /// in this process; a delete read back from a log has positions only.
    Delete {
        /// Deleted row positions.
        positions: Vec<u64>,
        /// The predecessor snapshot, when there is one to read.
        before: Option<Arc<Table>>,
    },
    /// Wholesale replacement: the new contents, sharing their chunks.
    Replace(ChunkList),
}

/// One epoch commit: which table, under what schema (so replay can detect
/// drift), the epoch it produced, and the [`Change`]. This is the only
/// description of a write. [`VersionedTable`] builds it once per commit,
/// hands it to the [`CommitHook`] (the write-ahead log encodes it) and
/// returns it to the writer, who passes the same value on to cache repair
/// and live subscriptions; log replay decodes it and
/// [`VersionedTable::apply_logged`] applies it.
#[derive(Debug, Clone)]
pub struct Commit {
    /// Committing table.
    pub table: String,
    /// The table's schema at commit time.
    pub schema: Schema,
    /// Epoch the commit produces (predecessor epoch + 1).
    pub epoch: u64,
    /// What the commit did.
    pub change: Change,
}

impl Commit {
    /// Rows the change touches: appended, deleted, or installed.
    pub fn rows(&self) -> usize {
        match &self.change {
            Change::Append(rows) => rows.rows(),
            Change::Delete { positions, .. } => positions.len(),
            Change::Replace(data) => data.rows(),
        }
    }

    /// The deleted rows' values, gathered by position from the
    /// predecessor snapshot. `None` for an append or a replace, and for a
    /// delete read back from a log.
    pub fn deleted_rows(&self) -> Option<Batch> {
        match &self.change {
            Change::Delete {
                positions,
                before: Some(before),
            } => Some(before.data.take(&self.schema, positions)),
            _ => None,
        }
    }
}

/// `rows` as one batch of `schema`'s columns, each row first checked
/// against the schema's arity and types (NULL anywhere, ints promote to
/// float, as `ColumnBuilder::push` does). Rows from outside the program,
/// a client's or a log's, for table `table`, become columns here.
pub fn rows_to_batch(
    table: &str,
    schema: &Schema,
    rows: &[Vec<Value>],
) -> Result<Batch, StorageError> {
    for row in rows {
        if row.len() != schema.len() {
            return Err(StorageError(format!(
                "row arity {} does not match schema arity {} of '{table}'",
                row.len(),
                schema.len(),
            )));
        }
        for (v, f) in row.iter().zip(schema.fields()) {
            let ok = match v.data_type() {
                None => true,
                Some(dt) => dt == f.dtype || (dt == DataType::Int && f.dtype == DataType::Float),
            };
            if !ok {
                return Err(StorageError(format!(
                    "value {v} does not match column '{}' type {:?} of '{table}'",
                    f.name, f.dtype
                )));
            }
        }
    }
    Ok(Batch::from_rows(schema, rows))
}

/// Observer invoked for every [`VersionedTable`] commit, **under the
/// table's write lock, after the epoch check and before the pointer
/// swap**. That placement is the whole durability contract: per table,
/// hook invocations happen in exactly epoch order, and a hook error
/// aborts the commit before any reader can observe the new version — a
/// WAL implementing this trait therefore logs every epoch before it
/// becomes visible, with no gaps and no reordering.
///
/// Implementations must be fast or accept that readers of *this* table
/// block behind them for the duration (e.g. an `fsync` under the WAL's
/// `FsyncPolicy::Always`; other tables and all snapshots already taken
/// are unaffected).
pub trait CommitHook: Send + Sync {
    /// Log `commit`; an error aborts it (nothing is swapped).
    fn before_commit(&self, commit: &Commit) -> Result<(), StorageError>;
}

/// Row-oriented builder used by the data generators.
pub struct TableBuilder {
    name: String,
    schema: Schema,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// New builder for `schema`, reserving `capacity` rows per column.
    pub fn new(name: impl Into<String>, schema: Schema, capacity: usize) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, capacity))
            .collect();
        TableBuilder {
            name: name.into(),
            schema,
            builders,
        }
    }

    /// Append one row; `values` must match the schema arity and types.
    pub fn push_row(&mut self, values: Vec<Value>) {
        assert_eq!(values.len(), self.builders.len(), "row arity mismatch");
        for (b, v) in self.builders.iter_mut().zip(values) {
            b.push(v);
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.builders.first().map_or(0, |b| b.len())
    }

    /// Whether no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish into an immutable [`Table`].
    pub fn finish(self) -> Arc<Table> {
        let columns = self.builders.into_iter().map(|b| b.finish()).collect();
        Arc::new(Table::new(self.name, self.schema, columns))
    }
}

/// A mutable table: a sequence of immutable [`Table`] snapshots, one per
/// epoch. Readers take an O(1) [`VersionedTable::snapshot`] (an `Arc`
/// clone under a read lock held for nanoseconds) and are never blocked by
/// or exposed to later writes; writers build the successor's chunk list
/// **outside** any lock against the snapshot they started from, then
/// commit with an epoch compare-and-swap — the write lock is held only
/// for the pointer swap, so heavy writers cannot starve readers, and a
/// writer that lost a race rebuilds against the winner's snapshot.
///
/// Cost model: snapshots never copy anything (`Arc` clone), and a commit
/// costs its delta, not the table. An append is
/// [`ChunkList::push_tail`]: one tail chunk from the new rows, every older
/// chunk shared by refcount, geometric merges among the unsealed tail
/// chunks. A delete is [`ChunkList::without_rows`]: it rewrites only the
/// chunks that hold a doomed row and shares the rest, so the cost of a
/// recently appended row is its small tail chunk, of a row in a sealed
/// chunk that whole chunk (a bulk load is one chunk, whatever its size).
/// Finding the doomed rows is the caller's scan of the columns its
/// predicate names.
pub struct VersionedTable {
    name: String,
    schema: Schema,
    current: RwLock<Arc<Table>>,
    /// Durability observer; see [`CommitHook`] for the ordering contract.
    hook: RwLock<Option<Arc<dyn CommitHook>>>,
}

impl std::fmt::Debug for VersionedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedTable")
            .field("name", &self.name)
            .field("schema", &self.schema)
            .field("current", &self.current)
            .field("hooked", &self.hook.read().is_some())
            .finish()
    }
}

impl VersionedTable {
    /// Wrap an initial snapshot (its epoch is preserved).
    pub fn new(initial: Arc<Table>) -> Self {
        VersionedTable {
            name: initial.name().to_string(),
            schema: initial.schema().clone(),
            current: RwLock::new(initial),
            hook: RwLock::new(None),
        }
    }

    /// Install (or swap) the commit hook. Every subsequent commit is
    /// reported to `hook` before its pointer swap; commits already past
    /// their epoch check are unaffected.
    pub fn set_commit_hook(&self, hook: Arc<dyn CommitHook>) {
        *self.hook.write() = Some(hook);
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema (invariant across versions).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The current snapshot: O(1), never blocks writers for longer than the
    /// pointer swap, and stays valid (and immutable) forever.
    pub fn snapshot(&self) -> Arc<Table> {
        self.current.read().clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch()
    }

    /// A snapshot over `data`, whose chunks already fit the schema.
    fn version(&self, data: ChunkList, epoch: u64) -> Arc<Table> {
        Arc::new(Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            data,
            epoch,
        })
    }

    /// Commit `next(old)` as the successor of the current snapshot, or
    /// keep the current one if the build returns `None` (no epoch is spent
    /// on a no-op). The build runs outside any lock; the commit re-checks
    /// the epoch under the write lock (held only for the swap) and
    /// rebuilds on a lost race, so writers serialize logically without
    /// ever blocking readers behind the build.
    ///
    /// If a [`CommitHook`] is installed it runs under the write lock,
    /// after the epoch check and before the swap: only the CAS winner
    /// reaches the hook, so per-table hook invocations are exactly the
    /// committed epoch sequence. A hook error aborts the commit — the
    /// current snapshot stays in place and the error propagates. Returns
    /// the [`Commit`] (none for a no-op) and the snapshot now current.
    fn commit(
        &self,
        mut next: impl FnMut(&Arc<Table>) -> Result<Option<(ChunkList, Change)>, StorageError>,
    ) -> Result<(Option<Commit>, Arc<Table>), StorageError> {
        loop {
            let old = self.snapshot();
            let Some((data, change)) = next(&old)? else {
                return Ok((None, old));
            };
            let candidate = self.version(data, old.epoch() + 1);
            let mut cur = self.current.write();
            if cur.epoch() == old.epoch() {
                let commit = Commit {
                    table: self.name.clone(),
                    schema: self.schema.clone(),
                    epoch: candidate.epoch(),
                    change,
                };
                let hook = self.hook.read().clone();
                if let Some(hook) = hook {
                    hook.before_commit(&commit)?;
                }
                *cur = candidate.clone();
                return Ok((Some(commit), candidate));
            }
            // Another writer committed first: rebuild against its result.
        }
    }

    /// Append `rows` (validated against the schema) and commit a new
    /// snapshot. The rows become columns once, before the commit loop;
    /// the new tail chunk and the commit's [`Change::Append`] share them.
    /// The commit costs the new rows plus the tail merges they trigger
    /// (see the type-level cost model); every older chunk is shared with
    /// the snapshots that already hold it. An empty `rows` is a no-op: no
    /// epoch is committed and no [`Commit`] returned.
    pub fn append(
        &self,
        rows: &[Vec<Value>],
    ) -> Result<(Option<Commit>, Arc<Table>), StorageError> {
        let batch = rows_to_batch(&self.name, &self.schema, rows)?;
        self.commit(|old| {
            Ok((batch.rows() > 0).then(|| {
                let tail = Chunk::new(batch.columns().to_vec());
                (old.data.push_tail(tail), Change::Append(batch.clone()))
            }))
        })
    }

    /// Delete the rows for which `mask_of` returns `true` and commit a new
    /// snapshot. The mask is always evaluated against the snapshot
    /// actually being replaced (re-evaluated if a concurrent writer commits
    /// first), so interleaved deletes compose linearizably. Only chunks
    /// holding a deleted row are rewritten. The [`Change::Delete`] holds
    /// the deleted positions and the predecessor snapshot, so the deleted
    /// values are gathered only by a reader that wants them
    /// ([`Commit::deleted_rows`]). A mask matching no rows is a no-op:
    /// nothing is rebuilt and no epoch is committed.
    pub fn delete_where(
        &self,
        mask_of: impl Fn(&Table) -> Vec<bool>,
    ) -> Result<(Option<Commit>, Arc<Table>), StorageError> {
        self.commit(|old| {
            let doomed = mask_of(old);
            if doomed.len() != old.rows() {
                return Err(StorageError(format!(
                    "delete mask has {} entries for {} rows of '{}'",
                    doomed.len(),
                    old.rows(),
                    self.name
                )));
            }
            let positions: Vec<u64> = doomed
                .iter()
                .enumerate()
                .filter_map(|(i, &d)| d.then_some(i as u64))
                .collect();
            Ok((!positions.is_empty()).then(|| {
                let change = Change::Delete {
                    positions,
                    before: Some(old.clone()),
                };
                (old.data.without_rows(&doomed), change)
            }))
        })
    }

    /// Replace the contents wholesale with `table` (same schema required),
    /// committing it as the next epoch. The new version and the commit's
    /// [`Change::Replace`] share `table`'s chunks. A replace always
    /// commits.
    pub fn replace(&self, table: &Table) -> Result<(Option<Commit>, Arc<Table>), StorageError> {
        if table.schema() != &self.schema {
            return Err(StorageError(format!(
                "replacement schema for '{}' does not match",
                self.name
            )));
        }
        self.commit(|_| {
            Ok(Some((
                table.data.clone(),
                Change::Replace(table.data.clone()),
            )))
        })
    }

    /// Force-install `chunks` as the contents at `epoch`, bypassing the
    /// commit hook and the CAS loop. Recovery only: this is how a
    /// checkpoint image is loaded before WAL replay. Not linearizable
    /// against concurrent writers — recovery runs single-threaded before
    /// the engine serves anything.
    pub fn restore(&self, chunks: Vec<Arc<Chunk>>, epoch: u64) -> Result<Arc<Table>, StorageError> {
        chunks.iter().try_for_each(|c| self.check_fit(c))?;
        let table = self.version(ChunkList::new(chunks), epoch);
        *self.current.write() = table.clone();
        Ok(table)
    }

    /// Re-apply a logged commit, bypassing the commit hook (recovery: WAL
    /// replay). Its epoch must be exactly the successor of the current
    /// epoch; commits at or below the current epoch are already reflected
    /// (covered by a checkpoint) and report `Ok(false)`. A gap is an
    /// error — the log is missing records. Costs what the original commit
    /// cost: an append adds a tail chunk, a delete rewrites the chunks it
    /// touches, a replace installs its chunks.
    pub fn apply_logged(&self, commit: &Commit) -> Result<bool, StorageError> {
        let old = self.snapshot();
        let epoch = commit.epoch;
        if epoch <= old.epoch() {
            return Ok(false);
        }
        if epoch != old.epoch() + 1 {
            return Err(StorageError(format!(
                "replay gap: table '{}' is at epoch {} but the next log record is epoch {}",
                self.name,
                old.epoch(),
                epoch
            )));
        }
        let data = match &commit.change {
            Change::Append(rows) => {
                let tail = Chunk::new(rows.columns().to_vec());
                self.check_fit(&tail)?;
                old.data.push_tail(tail)
            }
            Change::Delete { positions, .. } => {
                let mut doomed = vec![false; old.rows()];
                for &i in positions {
                    let slot = doomed.get_mut(i as usize).ok_or_else(|| {
                        StorageError(format!(
                            "replay delete index {} out of range for {} rows of '{}'",
                            i,
                            old.rows(),
                            self.name
                        ))
                    })?;
                    *slot = true;
                }
                old.data.without_rows(&doomed)
            }
            Change::Replace(data) => {
                data.chunks().iter().try_for_each(|c| self.check_fit(c))?;
                data.clone()
            }
        };
        *self.current.write() = self.version(data, epoch);
        Ok(true)
    }

    /// Whether `chunk` can hold rows of this table.
    fn check_fit(&self, chunk: &Chunk) -> Result<(), StorageError> {
        match chunk.mismatch(&self.schema) {
            Some(why) => Err(StorageError(format!(
                "chunk does not fit '{}': {why}",
                self.name
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::SEAL_ROWS;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rdb_vector::DataType;

    fn table() -> Arc<Table> {
        let schema = Schema::from_pairs([("id", DataType::Int), ("name", DataType::Str)]);
        let mut b = TableBuilder::new("t", schema, 4);
        for i in 0..4 {
            b.push_row(vec![Value::Int(i), Value::str(format!("r{i}"))]);
        }
        b.finish()
    }

    #[test]
    fn builder_roundtrip() {
        let t = table();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.name(), "t");
        assert_eq!(t.column_by_name("id").unwrap().as_ints(), &[0, 1, 2, 3]);
        assert!(t.column_by_name("zz").is_none());
    }

    #[test]
    fn scan_batch_projects_and_slices() {
        let t = table();
        let b = t.scan_batch(&[1], 1, 2);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row(0), vec![Value::str("r1")]);
        // Over-long request clamps to table end.
        let b = t.scan_batch(&[0], 3, 100);
        assert_eq!(b.rows(), 1);
        // Past the end: no rows, the projected types.
        let b = t.scan_batch(&[1], 9, 5);
        assert_eq!(b.rows(), 0);
        assert_eq!(b.column(0).data_type(), DataType::Str);
    }

    #[test]
    fn scan_batches_share_table_storage() {
        let t = table();
        let b = t.scan_batch(&[0, 1], 1, 2);
        assert!(b.column(0).shares_storage(&t.column(0)));
        assert!(b.column(1).shares_storage(&t.column(1)));
    }

    #[test]
    fn batches_cover_all_rows() {
        let schema = Schema::from_pairs([("x", DataType::Int)]);
        let mut bld = TableBuilder::new("big", schema, 3000);
        for i in 0..3000 {
            bld.push_row(vec![Value::Int(i)]);
        }
        let t = bld.finish();
        let batches = t.batches(&[0]);
        assert_eq!(batches.len(), 3); // 1024 + 1024 + 952
        let total: usize = batches.iter().map(|b| b.rows()).sum();
        assert_eq!(total, 3000);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn schema_enforced() {
        let schema = Schema::from_pairs([("x", DataType::Int)]);
        Table::new("bad", schema, vec![Column::from_strs(["a"])]);
    }

    fn versioned() -> VersionedTable {
        VersionedTable::new(table())
    }

    fn ids(t: &Table) -> Vec<i64> {
        t.column(0).as_ints().to_vec()
    }

    fn id_in(doomed: impl Fn(i64) -> bool) -> impl Fn(&Table) -> Vec<bool> {
        move |t| ids(t).into_iter().map(&doomed).collect()
    }

    #[test]
    fn append_bumps_epoch_and_preserves_snapshots() {
        let vt = versioned();
        let before = vt.snapshot();
        assert_eq!(before.epoch(), 0);
        let (_, after) = vt
            .append(&[
                vec![Value::Int(4), Value::str("r4")],
                vec![Value::Int(5), Value::Null],
            ])
            .unwrap();
        assert_eq!(after.epoch(), 1);
        assert_eq!(vt.epoch(), 1);
        assert_eq!(after.rows(), 6);
        assert_eq!(ids(&after), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(after.column(1).get(5), Value::Null);
        // The pinned snapshot is untouched.
        assert_eq!(before.rows(), 4);
        assert_eq!(before.epoch(), 0);
    }

    #[test]
    fn append_validates_rows() {
        let vt = versioned();
        // Arity.
        assert!(vt.append(&[vec![Value::Int(9)]]).is_err());
        // Type.
        assert!(vt
            .append(&[vec![Value::str("oops"), Value::str("r")]])
            .is_err());
        // A failed append commits nothing.
        assert_eq!(vt.epoch(), 0);
        assert_eq!(vt.snapshot().rows(), 4);
    }

    #[test]
    fn delete_where_filters_captures_and_bumps_epoch() {
        let vt = versioned();
        let (deleted, after) = vt.delete_where(id_in(|x| x % 2 == 0)).unwrap();
        assert_eq!(
            deleted.unwrap().deleted_rows().unwrap().to_rows(),
            vec![
                vec![Value::Int(0), Value::str("r0")],
                vec![Value::Int(2), Value::str("r2")]
            ]
        );
        assert_eq!(after.epoch(), 1);
        assert_eq!(ids(&after), &[1, 3]);
        // A mask matching nothing spends no epoch.
        let (deleted, same) = vt.delete_where(id_in(|_| false)).unwrap();
        assert!(deleted.is_none());
        assert!(Arc::ptr_eq(&same, &after));
        // Mask length is checked against the locked snapshot.
        assert!(vt.delete_where(|_| vec![true]).is_err());
        assert_eq!(vt.epoch(), 1, "failed delete commits nothing");
    }

    #[derive(Default)]
    struct RecordingHook {
        records: parking_lot::Mutex<Vec<Commit>>,
        fail: std::sync::atomic::AtomicBool,
    }

    impl CommitHook for RecordingHook {
        fn before_commit(&self, commit: &Commit) -> Result<(), StorageError> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(StorageError("injected hook failure".to_string()));
            }
            self.records.lock().push(commit.clone());
            Ok(())
        }
    }

    #[test]
    fn commit_hook_sees_every_epoch_in_order() {
        let vt = versioned();
        let hook = Arc::new(RecordingHook::default());
        vt.set_commit_hook(hook.clone());
        vt.append(&[vec![Value::Int(4), Value::str("r4")]]).unwrap();
        vt.delete_where(id_in(|x| x == 0)).unwrap();
        // No-ops spend no epoch and reach no hook.
        vt.append(&[]).unwrap();
        let records = hook.records.lock();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].epoch, 1);
        assert!(matches!(&records[0].change, Change::Append(rows) if rows.rows() == 1));
        assert_eq!(records[1].epoch, 2);
        assert!(
            matches!(&records[1].change, Change::Delete { positions, .. } if *positions == [0]),
            "delete logs predecessor row positions"
        );
    }

    #[test]
    fn failing_hook_aborts_commit() {
        let vt = versioned();
        let hook = Arc::new(RecordingHook::default());
        hook.fail.store(true, std::sync::atomic::Ordering::Relaxed);
        vt.set_commit_hook(hook);
        let err = vt.append(&[vec![Value::Int(9), Value::Null]]).unwrap_err();
        assert!(err.to_string().contains("injected hook failure"));
        assert_eq!(vt.epoch(), 0, "aborted commit swaps nothing");
        assert_eq!(vt.snapshot().rows(), 4);
    }

    #[test]
    fn apply_logged_replays_deltas_exactly() {
        let source = versioned();
        let hook = Arc::new(RecordingHook::default());
        source.set_commit_hook(hook.clone());
        source
            .append(&[
                vec![Value::Int(4), Value::str("r4")],
                vec![Value::Int(5), Value::Null],
            ])
            .unwrap();
        source.delete_where(id_in(|x| x % 2 == 1)).unwrap();
        source.replace(&table()).unwrap();
        source.append(&[vec![Value::Int(6), Value::Null]]).unwrap();

        let replica = versioned();
        for record in hook.records.lock().iter() {
            assert!(replica.apply_logged(record).unwrap());
        }
        let (a, b) = (source.snapshot(), replica.snapshot());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.to_rows(), b.to_rows());

        // Already-applied records are skipped, gaps are errors, and so is
        // a delete of a row that is not there.
        let first = hook.records.lock()[0].clone();
        assert!(!replica.apply_logged(&first).unwrap());
        assert!(replica
            .apply_logged(&Commit {
                epoch: 99,
                ..first.clone()
            })
            .is_err());
        let wild = Commit {
            epoch: b.epoch() + 1,
            change: Change::Delete {
                positions: vec![77],
                before: None,
            },
            ..first
        };
        assert!(replica.apply_logged(&wild).is_err());
        assert_eq!(replica.epoch(), b.epoch());
    }

    #[test]
    fn restore_installs_chunks_at_epoch() {
        let vt = versioned();
        let chunk = |ids: Vec<i64>| {
            let names = Column::from_strs(ids.iter().map(|i| format!("x{i}")));
            Arc::new(Chunk::new(vec![Column::from_ints(ids), names]))
        };
        let (a, b) = (chunk(vec![7, 8]), chunk(vec![9]));
        vt.restore(vec![a.clone(), b.clone()], 5).unwrap();
        let snap = vt.snapshot();
        assert_eq!(snap.epoch(), 5);
        assert_eq!(ids(&snap), &[7, 8, 9]);
        assert!(Arc::ptr_eq(&snap.chunks()[0], &a) && Arc::ptr_eq(&snap.chunks()[1], &b));
        // A chunk of another shape is refused and nothing is installed.
        let alien = Arc::new(Chunk::new(vec![Column::from_ints(vec![1])]));
        assert!(vt.restore(vec![alien], 6).is_err());
        assert_eq!(vt.epoch(), 5);
    }

    #[test]
    fn snapshots_are_o1_arc_clones() {
        let vt = versioned();
        let a = vt.snapshot();
        let b = vt.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "snapshot is a pointer clone");
        assert!(a.column(0).shares_storage(&b.column(0)));
    }

    // ---- chunk sharing, merging, seams ------------------------------------

    fn wide_schema() -> Schema {
        Schema::from_pairs([
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
        ])
    }

    /// Row `k` of the reference data: NULLs and strings included.
    fn wide_row(k: i64) -> Vec<Value> {
        vec![
            Value::Int(k),
            if k % 7 == 3 {
                Value::Null
            } else {
                Value::str(format!("s{k}"))
            },
            if k % 11 == 5 {
                Value::Null
            } else {
                Value::Float(k as f64 / 4.0)
            },
        ]
    }

    fn wide_rows(keys: std::ops::Range<i64>) -> Vec<Vec<Value>> {
        keys.map(wide_row).collect()
    }

    fn wide_table(rows: i64) -> VersionedTable {
        let mut b = TableBuilder::new("w", wide_schema(), rows as usize);
        for r in wide_rows(0..rows) {
            b.push_row(r);
        }
        VersionedTable::new(b.finish())
    }

    fn chunk_rows(t: &Table) -> Vec<usize> {
        t.chunks().iter().map(|c| c.rows()).collect()
    }

    /// `table` holds exactly `model`: by rows, and by `scan_batch` over
    /// the whole morsel grid, full and partial projections.
    fn assert_matches(table: &Table, model: &[Vec<Value>], what: &str) {
        assert_eq!(table.rows(), model.len(), "{what}: row count");
        assert_eq!(
            table.rows(),
            chunk_rows(table).iter().sum::<usize>(),
            "{what}: chunks cover the table"
        );
        assert!(
            chunk_rows(table).iter().all(|&r| r > 0),
            "{what}: an empty chunk"
        );
        let all: Vec<usize> = (0..table.schema().len()).collect();
        let last = [all.len() - 1];
        for idx in 0..rdb_vector::morsel_count(table.rows()) {
            let (offset, len) = rdb_vector::morsel_bounds(table.rows(), idx);
            let full = table.scan_batch(&all, offset, len);
            let narrow = table.scan_batch(&last, offset, len);
            assert_eq!(full.rows(), len, "{what}: morsel {idx}");
            for i in 0..len {
                assert_eq!(
                    full.physical_row(i),
                    model[offset + i],
                    "{what}: row {}",
                    offset + i
                );
                assert_eq!(narrow.column(0).get(i), model[offset + i][last[0]]);
            }
        }
    }

    #[test]
    fn append_shares_every_prior_chunk_and_merges_small_tails() {
        let vt = wide_table(4096);
        let base = vt.snapshot();
        assert_eq!(chunk_rows(&base), [4096]);
        // 4096 >= 2 * 10: the base is shared, the tail is its own chunk.
        let (_, one) = vt.append(&wide_rows(4096..4106)).unwrap();
        assert_eq!(chunk_rows(&one), [4096, 10]);
        assert!(Arc::ptr_eq(&one.chunks()[0], &base.chunks()[0]));
        // 10 < 2 * 10: the two tails merge; the base is still shared.
        let (_, two) = vt.append(&wide_rows(4106..4116)).unwrap();
        assert_eq!(chunk_rows(&two), [4096, 20]);
        assert!(Arc::ptr_eq(&two.chunks()[0], &base.chunks()[0]));
        // 20 >= 2 * 5: nothing merges, both prior chunks are shared.
        let (_, three) = vt.append(&wide_rows(4116..4121)).unwrap();
        assert_eq!(chunk_rows(&three), [4096, 20, 5]);
        for k in 0..2 {
            assert!(Arc::ptr_eq(&three.chunks()[k], &two.chunks()[k]));
        }
        // A tail that outgrows everything unsealed before it folds it all.
        let (_, four) = vt.append(&wide_rows(4121..7000)).unwrap();
        assert_eq!(chunk_rows(&four), [7000]);
        assert_matches(&four, &wide_rows(0..7000), "after four appends");
        // Older snapshots kept their own chunk lists.
        assert_matches(&three, &wide_rows(0..4121), "third snapshot");
        assert_matches(&base, &wide_rows(0..4096), "base snapshot");
    }

    #[test]
    fn sealed_chunks_never_merge_and_chunk_count_stays_logarithmic() {
        let sealed = SEAL_ROWS as i64 + 100;
        let vt = wide_table(sealed);
        let base = vt.snapshot();
        // A tail larger than half the base would merge with an unsealed
        // base; a sealed one is left alone.
        let big = sealed + SEAL_ROWS as i64 - 1;
        let (_, after) = vt.append(&wide_rows(sealed..big)).unwrap();
        assert_eq!(chunk_rows(&after), [sealed as usize, SEAL_ROWS - 1]);
        assert!(Arc::ptr_eq(&after.chunks()[0], &base.chunks()[0]));
        // Single-row appends: sizes at least halve from chunk to chunk, so
        // there are never more than log2(SEAL_ROWS) + 1 unsealed chunks.
        let mut next = big;
        for _ in 0..300 {
            let (_, t) = vt.append(&wide_rows(next..next + 1)).unwrap();
            next += 1;
            let sizes = chunk_rows(&t);
            assert!(Arc::ptr_eq(&t.chunks()[0], &base.chunks()[0]));
            assert!(sizes.len() <= 2 + SEAL_ROWS.ilog2() as usize, "{sizes:?}");
            for pair in sizes[1..].windows(2) {
                assert!(pair[0] >= SEAL_ROWS || pair[0] >= 2 * pair[1], "{sizes:?}");
            }
        }
        assert_matches(&vt.snapshot(), &wide_rows(0..next), "after the single rows");
    }

    #[test]
    fn delete_shares_every_untouched_chunk() {
        let vt = wide_table(4096);
        vt.append(&wide_rows(4096..4106)).unwrap();
        let (_, before) = vt.append(&wide_rows(4106..4110)).unwrap();
        assert_eq!(chunk_rows(&before), [4096, 10, 4]);
        // A doomed row in the middle chunk: only that chunk is rewritten.
        let (gone, after) = vt.delete_where(id_in(|k| k == 4100)).unwrap();
        let gone = gone.unwrap().deleted_rows().unwrap().to_rows();
        assert_eq!(gone, vec![wide_row(4100)]);
        assert_eq!(chunk_rows(&after), [4096, 9, 4]);
        assert!(Arc::ptr_eq(&after.chunks()[0], &before.chunks()[0]));
        assert!(!Arc::ptr_eq(&after.chunks()[1], &before.chunks()[1]));
        assert!(Arc::ptr_eq(&after.chunks()[2], &before.chunks()[2]));
        // A chunk emptied by a delete disappears; its neighbours are shared.
        let (gone, last) = vt.delete_where(id_in(|k| k >= 4106)).unwrap();
        assert_eq!(gone.unwrap().rows(), 4);
        assert_eq!(chunk_rows(&last), [4096, 9]);
        assert!(Arc::ptr_eq(&last.chunks()[0], &before.chunks()[0]));
        assert!(Arc::ptr_eq(&last.chunks()[1], &after.chunks()[1]));
        // Replacement shares the replacement's chunks, not the old ones.
        let fresh = wide_table(3).snapshot();
        let (_, replaced) = vt.replace(&fresh).unwrap();
        assert!(Arc::ptr_eq(&replaced.chunks()[0], &fresh.chunks()[0]));
        assert_matches(&before, &wide_rows(0..4110), "snapshot before the deletes");
    }

    #[test]
    fn morsels_straddling_two_and_three_chunks_gather_the_same_rows() {
        let chunk = |keys: std::ops::Range<i64>| {
            Arc::new(Chunk::new(
                Batch::from_rows(&wide_schema(), &wide_rows(keys)).into_columns(),
            ))
        };
        // Morsel 0 = rows 0..1024 spans three chunks (1000 + 10 + 14 of
        // 30), morsel 1 two (16 of 30 + 1008 of 1500), morsel 2 none.
        let chunks = vec![
            chunk(0..1000),
            chunk(1000..1010),
            chunk(1010..1040),
            chunk(1040..2540),
        ];
        let t = Table::from_chunks("w", wide_schema(), chunks, 3);
        let model = wide_rows(0..2540);
        assert_matches(&t, &model, "four chunks");
        let all = [0, 1, 2];
        let seam3 = t.scan_batch(&all, 0, 1024);
        let seam2 = t.scan_batch(&all, 1024, 1024);
        let inside = t.scan_batch(&all, 2048, 492);
        for (c, &i) in all.iter().enumerate() {
            assert!(!seam3.column(c).shares_storage(&t.chunks()[0].columns()[i]));
            assert!(!seam2.column(c).shares_storage(&t.chunks()[3].columns()[i]));
            assert!(
                inside.column(c).shares_storage(&t.chunks()[3].columns()[i]),
                "a range inside one chunk is a zero-copy slice"
            );
        }
        // NULLs survive the gather on both sides of a seam.
        assert_eq!(seam3.physical_row(1005), wide_row(1005)); // k % 11 == 5
        assert_eq!(seam3.physical_row(1011), wide_row(1011)); // k % 7 == 3
        assert_eq!(t.to_rows()[1039], wide_row(1039));
        assert_eq!(t.column(1).to_values()[1039], wide_row(1039)[1]);
    }

    /// Any interleaving of append / delete / replace on the chunked table
    /// equals a flat reference at every snapshot still held.
    #[test]
    fn chunked_table_equals_flat_reference_under_random_writes() {
        // Optimized builds (CI runs this crate's tests with --release too)
        // afford ten times the cases, and tables that cross the seal.
        let cases: u64 = if cfg!(debug_assertions) { 30 } else { 300 };
        for seed in 0..cases {
            let mut rng = SmallRng::seed_from_u64(0x5EA1 ^ seed);
            let sealed_base = !cfg!(debug_assertions) && seed % 25 == 0;
            let base = if sealed_base {
                SEAL_ROWS as i64 + rng.gen_range(0..2000)
            } else {
                rng.gen_range(0..3000)
            };
            let vt = wide_table(base);
            let mut model = wide_rows(0..base);
            let mut next_key = base;
            let mut held: Vec<(Arc<Table>, Vec<Vec<Value>>)> = vec![(vt.snapshot(), model.clone())];
            for step in 0..if sealed_base { 10 } else { 40 } {
                match rng.gen_range(0..10) {
                    0..=5 => {
                        let n = match rng.gen_range(0..4) {
                            0 => 1,
                            1 => rng.gen_range(1..16),
                            2 => rng.gen_range(16..1500),
                            _ => rng.gen_range(1..4) * 1024,
                        };
                        let rows = wide_rows(next_key..next_key + n);
                        next_key += n;
                        vt.append(&rows).unwrap();
                        model.extend(rows);
                    }
                    6..=8 => {
                        // One row, a contiguous run, or a sprinkle.
                        let rows = model.len();
                        let mut doomed = vec![false; rows];
                        match rng.gen_range(0..3) {
                            _ if rows == 0 => {}
                            0 => doomed[rng.gen_range(0..rows)] = true,
                            1 => {
                                let lo = rng.gen_range(0..rows);
                                let hi = (lo + rng.gen_range(1..2000)).min(rows);
                                doomed[lo..hi].fill(true);
                            }
                            _ => doomed.iter_mut().for_each(|d| *d = rng.gen_bool(0.05)),
                        }
                        let (commit, _) = vt.delete_where(|_| doomed.clone()).unwrap();
                        let gone =
                            commit.map_or(Vec::new(), |c| c.deleted_rows().unwrap().to_rows());
                        let mut flags = doomed.iter();
                        let mut expect_gone = Vec::new();
                        model.retain(|row| {
                            let d = *flags.next().unwrap();
                            if d {
                                expect_gone.push(row.clone());
                            }
                            !d
                        });
                        assert_eq!(gone, expect_gone, "seed {seed} step {step}: captured rows");
                    }
                    _ => {
                        let n = rng.gen_range(0..2500);
                        let fresh = wide_table(n).snapshot();
                        vt.replace(&fresh).unwrap();
                        model = wide_rows(0..n);
                    }
                }
                held.push((vt.snapshot(), model.clone()));
                if held.len() > 4 {
                    held.remove(rng.gen_range(0..held.len()));
                }
                for (snap, rows) in &held {
                    let what = format!("seed {seed} step {step} epoch {}", snap.epoch());
                    assert_matches(snap, rows, &what);
                }
            }
            let (last, rows) = held.last().unwrap();
            assert_eq!(&last.to_rows(), rows, "seed {seed}: to_rows");
        }
    }
}
