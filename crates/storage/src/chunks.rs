//! Immutable column chunks and the `Arc`-shared chunk list built from
//! them: the one representation of a run of rows that a base-table
//! snapshot and a cached result both use.

use std::sync::Arc;

use rdb_vector::column::{Column, ColumnBuilder};
use rdb_vector::{Batch, Schema, Value, BATCH_CAPACITY};

/// Rows at which a chunk is **sealed**: it no longer takes part in the
/// tail merges of [`ChunkList::push_tail`], so it is copied (and
/// checkpointed) exactly once. A constant multiple of [`BATCH_CAPACITY`]
/// — at most one scan batch in that many straddles a sealed seam.
pub const SEAL_ROWS: usize = 64 * BATCH_CAPACITY;

/// An immutable run of rows, stored as one full-length [`Column`] per
/// schema field. Chunks are the unit snapshots share by refcount, the
/// unit a delete rewrites, and the unit a checkpoint persists.
#[derive(Debug)]
pub struct Chunk {
    columns: Vec<Column>,
    rows: usize,
    bytes: usize,
}

impl Chunk {
    /// Wrap equal-length columns.
    pub fn new(columns: Vec<Column>) -> Chunk {
        let rows = columns.first().map_or(0, Column::len);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "chunk column length mismatch"
        );
        let bytes = columns.iter().map(Column::size_bytes).sum();
        Chunk {
            columns,
            rows,
            bytes,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The columns, schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Approximate in-memory footprint in bytes (the columns' sum).
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// One chunk holding the rows of `parts`, in order.
    fn concat(parts: &[&Chunk]) -> Chunk {
        Chunk::new(
            (0..parts[0].columns.len())
                .map(|i| {
                    let cols: Vec<&Column> = parts.iter().map(|p| &p.columns[i]).collect();
                    Column::concat(&cols)
                })
                .collect(),
        )
    }

    /// Why this chunk cannot hold rows of `schema`, if it cannot.
    pub(crate) fn mismatch(&self, schema: &Schema) -> Option<String> {
        if self.columns.len() != schema.len() {
            return Some(format!(
                "chunk has {} columns, schema has {}",
                self.columns.len(),
                schema.len()
            ));
        }
        schema
            .fields()
            .iter()
            .zip(&self.columns)
            .find(|(f, c)| c.data_type() != f.dtype)
            .map(|(f, c)| {
                format!(
                    "column '{}' type mismatch: chunk holds {}, schema says {}",
                    f.name,
                    c.data_type(),
                    f.dtype
                )
            })
    }

    fn row_values(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }
}

/// An ordered list of non-empty, `Arc`-shared [`Chunk`]s: the rows of a
/// table snapshot or of a cached result. Cloning it, and every derived
/// list, shares the chunks by refcount.
///
/// Cost model: [`ChunkList::push_tail`] costs the new rows plus the tail
/// merges they trigger. While the chunk before the tail is unsealed
/// (under [`SEAL_ROWS`]) and smaller than twice the tail, the two merge,
/// so unsealed chunks at least halve in size towards the end of the list:
/// a row is copied O(log [`SEAL_ROWS`]) times before its chunk seals and
/// never again, and a list holds O(rows appended / [`SEAL_ROWS`] + log
/// [`SEAL_ROWS`]) chunks with no compaction thread.
/// [`ChunkList::without_rows`] rewrites only the chunks holding a doomed
/// row. [`ChunkList::scan_batch`] slices inside a chunk and gathers only
/// at a seam, so readers cut batches on the grid of the row count alone.
#[derive(Debug, Clone, Default)]
pub struct ChunkList {
    chunks: Vec<Arc<Chunk>>,
    /// `starts[k]` is the row at which `chunks[k]` begins.
    starts: Vec<usize>,
    rows: usize,
    /// Sum of the chunks' `size_bytes`, kept as chunks come and go.
    bytes: usize,
}

impl ChunkList {
    /// A list over existing chunks (shared, not copied); empty chunks are
    /// dropped.
    pub fn new(chunks: Vec<Arc<Chunk>>) -> ChunkList {
        let mut list = ChunkList::default();
        for c in chunks {
            list.push_chunk(c);
        }
        list
    }

    fn push_chunk(&mut self, chunk: Arc<Chunk>) {
        if chunk.rows == 0 {
            return;
        }
        self.starts.push(self.rows);
        self.rows += chunk.rows;
        self.bytes += chunk.bytes;
        self.chunks.push(chunk);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Approximate in-memory footprint in bytes: the sum over the chunks,
    /// maintained incrementally.
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// The chunks, row order (none of them empty).
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// This list followed by `tail`, merged geometrically: every trailing
    /// unsealed chunk smaller than twice what follows it is folded into
    /// one new chunk with the tail (one copy, however many fold).
    /// Everything before that is shared. An empty `tail` shares all.
    pub fn push_tail(&self, tail: Chunk) -> ChunkList {
        let chunks = &self.chunks;
        let mut keep = chunks.len();
        let mut merged = tail.rows;
        while keep > 0 && chunks[keep - 1].rows < SEAL_ROWS && chunks[keep - 1].rows < 2 * merged {
            keep -= 1;
            merged += chunks[keep].rows;
        }
        let mut out = ChunkList {
            chunks: chunks[..keep].to_vec(),
            starts: self.starts[..keep].to_vec(),
            rows: self.starts.get(keep).copied().unwrap_or(self.rows),
            bytes: self.bytes - chunks[keep..].iter().map(|c| c.bytes).sum::<usize>(),
        };
        if keep == chunks.len() {
            out.push_chunk(Arc::new(tail));
        } else {
            let mut parts: Vec<&Chunk> = chunks[keep..].iter().map(|c| &**c).collect();
            parts.push(&tail);
            out.push_chunk(Arc::new(Chunk::concat(&parts)));
        }
        out
    }

    /// This list without the rows `doomed` marks (one flag per row): a
    /// chunk holding no doomed row is shared, the others are rewritten,
    /// or dropped when nothing of them is left.
    pub fn without_rows(&self, doomed: &[bool]) -> ChunkList {
        ChunkList::new(
            self.chunks
                .iter()
                .zip(&self.starts)
                .map(|(chunk, &start)| {
                    let doomed = &doomed[start..start + chunk.rows];
                    if !doomed.contains(&true) {
                        return chunk.clone();
                    }
                    let kept: Vec<u32> = (0..chunk.rows as u32)
                        .filter(|&i| !doomed[i as usize])
                        .collect();
                    Arc::new(Chunk::new(
                        chunk.columns.iter().map(|c| c.take(&kept)).collect(),
                    ))
                })
                .collect(),
        )
    }

    /// One batch: rows `[offset, offset+len)` of the columns at positions
    /// `projection` (types from `schema`, which the chunks hold). A range
    /// inside one chunk is zero-copy: each batch column is an O(1) slice
    /// sharing the chunk's storage. A range that straddles a chunk seam is
    /// gathered into fresh columns, `len` rows of copying. Either way the
    /// rows are the same.
    pub fn scan_batch(
        &self,
        schema: &Schema,
        projection: &[usize],
        offset: usize,
        len: usize,
    ) -> Batch {
        let len = len.min(self.rows.saturating_sub(offset));
        let (mut at, end) = (offset, offset + len);
        let mut k = self.starts.partition_point(|&s| s <= at).saturating_sub(1);
        if len > 0 && end <= self.starts[k] + self.chunks[k].rows {
            let (chunk, local) = (&self.chunks[k], at - self.starts[k]);
            return Batch::new(
                projection
                    .iter()
                    .map(|&i| chunk.columns[i].slice(local, len))
                    .collect(),
            );
        }
        // A seam (or no rows at all): gather what each chunk contributes.
        let mut builders: Vec<ColumnBuilder> = projection
            .iter()
            .map(|&i| ColumnBuilder::new(schema.field(i).dtype, len))
            .collect();
        while at < end {
            let chunk = &self.chunks[k];
            let local = at - self.starts[k];
            let take = (chunk.rows - local).min(end - at);
            for (b, &i) in builders.iter_mut().zip(projection) {
                b.append_column(&chunk.columns[i].slice(local, take));
            }
            at += take;
            k += 1;
        }
        Batch::new(builders.into_iter().map(|b| b.finish()).collect())
    }

    /// Column `i` over all rows as one contiguous [`Column`]: a zero-copy
    /// clone while the list is a single chunk, a gather otherwise.
    pub fn column(&self, schema: &Schema, i: usize) -> Column {
        match self.chunks.as_slice() {
            [] => ColumnBuilder::new(schema.field(i).dtype, 0).finish(),
            chunks => {
                let cols: Vec<&Column> = chunks.iter().map(|c| &c.columns[i]).collect();
                Column::concat(&cols)
            }
        }
    }

    /// The rows at ascending `positions`, gathered into one batch of
    /// `schema`'s columns: one `take` per chunk holding any of them.
    pub(crate) fn take(&self, schema: &Schema, positions: &[u64]) -> Batch {
        let mut parts = Vec::new();
        let mut rest = positions;
        for (chunk, &start) in self.chunks.iter().zip(&self.starts) {
            let n = rest.partition_point(|&p| (p as usize) < start + chunk.rows);
            if n > 0 {
                let local: Vec<u32> = rest[..n]
                    .iter()
                    .map(|&p| (p as usize - start) as u32)
                    .collect();
                parts.push(Batch::new(
                    chunk.columns.iter().map(|c| c.take(&local)).collect(),
                ));
            }
            rest = &rest[n..];
        }
        Batch::concat_or_empty(schema, &parts)
    }

    /// All rows as owned values, row-major.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.chunks
            .iter()
            .flat_map(|c| (0..c.rows).map(|i| c.row_values(i)))
            .collect()
    }
}
