//! Checkpoints: every base table's chunks, each in a file of its own, a
//! manifest that names them, and the recycler's top-K lineage.
//!
//! A checkpoint is **chunk-granular and columnar**. A table snapshot is a
//! list of immutable `Arc`-shared chunks (`rdb_storage::Chunk`), and a
//! chunk never changes once it exists, so each one is written **once**: to
//! `chunk-<id>.col`, the magic `"RDBCHNK1"`, a CRC frame with the shape
//! (rows, column types) and then one CRC frame per column per 64 k rows,
//! encoded straight from the column slices and streamed through one
//! reusable buffer. A later checkpoint finds the
//! chunk still referenced, recognises it by address and writes nothing for
//! it: a checkpoint costs the chunks born since the last one.
//!
//! `checkpoint.bin` is the **manifest**: the magic `"RDBCKPT2"` and one CRC
//! frame holding, per table, name, epoch, schema and the ordered
//! `(chunk id, rows)` list, then the lineage entries. It is written to
//! `checkpoint.tmp` after every new chunk file (and the directory entry
//! that names it) is synced, fsynced, and atomically renamed over the
//! previous manifest: a crash at any earlier point leaves the old manifest
//! and every file it names intact, never a half-new checkpoint. After the
//! rename, chunk files no manifest names any more — the previous
//! checkpoint's replaced chunks, or what an interrupted checkpoint left
//! behind — are swept; only then are WAL segments the checkpointed epochs
//! cover deletable (see [`crate::wal::Wal::prune`]).

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

use rdb_recycler::LineageEntry;
use rdb_storage::{Chunk, Table};
use rdb_vector::{Column, Schema};

use crate::codec::{
    self, put_column, put_dtype, put_schema, put_str, put_u32, put_u64, read_column, read_dtype,
    read_schema, Reader,
};
use crate::fault::{sync_through, write_through, IoFault};
use crate::frame::{begin_frame, end_frame, read_frame, scan_frames};
use crate::WalError;

/// Magic bytes opening the manifest.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"RDBCKPT2";

/// Magic of the format this one replaced: one file holding every table
/// row by row. Recognised only to be refused by name.
const ROW_IMAGE_MAGIC: &[u8; 8] = b"RDBCKPT1";

/// Manifest file name within a data directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Magic bytes opening every chunk file.
pub const CHUNK_MAGIC: &[u8; 8] = b"RDBCHNK1";

/// Rows per column frame of a chunk file: bounds the encode/decode buffer
/// (a frame of strings stays far below [`crate::frame::MAX_FRAME_LEN`])
/// whatever the size of a bulk-loaded chunk.
const BLOCK_ROWS: usize = 1 << 16;

/// File name of chunk `id`.
pub fn chunk_file_name(id: u64) -> String {
    format!("chunk-{id:08}.col")
}

/// Parse a chunk id out of a file name.
pub fn parse_chunk_name(name: &str) -> Option<u64> {
    name.strip_prefix("chunk-")?
        .strip_suffix(".col")?
        .parse()
        .ok()
}

/// Ids of all chunk files in `dir` (unordered).
pub fn list_chunk_files(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Some(id) = entry?.file_name().to_str().and_then(parse_chunk_name) {
            out.push(id);
        }
    }
    Ok(out)
}

/// One chunk as the manifest names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// The chunk's file is [`chunk_file_name`]`(id)`.
    pub id: u64,
    /// Rows the file must hold.
    pub rows: u64,
}

/// One table's entry in the manifest.
#[derive(Debug, Clone)]
pub struct TableCheckpoint {
    /// Table name.
    pub name: String,
    /// Epoch the image reflects.
    pub epoch: u64,
    /// Schema at checkpoint time (replay validates against the live one).
    pub schema: Schema,
    /// The table's chunks, row order.
    pub chunks: Vec<ChunkRef>,
}

/// A whole manifest: base tables plus persisted recycler lineage.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// Every base table's entry.
    pub tables: Vec<TableCheckpoint>,
    /// Top-K benefit lineage entries (may be empty).
    pub lineage: Vec<LineageEntry>,
}

impl Checkpoint {
    /// Highest table epoch in the checkpoint.
    pub fn max_epoch(&self) -> u64 {
        self.tables.iter().map(|t| t.epoch).max().unwrap_or(0)
    }
}

fn sync_dir(dir: &Path) {
    // Make created, renamed and removed names durable.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes the checkpoints of one data directory and remembers which chunk
/// sits in which file, so that a chunk is written once however many
/// checkpoints reference it.
pub struct CheckpointWriter {
    dir: PathBuf,
    fault: Arc<dyn IoFault>,
    /// The chunks the manifest on disk names, by address. The `Weak` keeps
    /// the allocation — so the address — from being reused by another
    /// chunk for as long as the entry stands, without keeping the columns
    /// of a chunk the tables have let go of.
    on_disk: HashMap<usize, (Weak<Chunk>, u64)>,
    next_id: u64,
}

impl CheckpointWriter {
    /// A writer for `dir`, told which chunks recovery loaded from which
    /// files (`RecoveryReport::chunks`). Ids continue above every chunk
    /// file present, referenced or not.
    pub fn open(
        dir: &Path,
        fault: Arc<dyn IoFault>,
        loaded: &[(u64, Arc<Chunk>)],
    ) -> Result<CheckpointWriter, WalError> {
        let next_id = list_chunk_files(dir)?
            .into_iter()
            .max()
            .map_or(1, |m| m + 1);
        Ok(CheckpointWriter {
            dir: dir.to_path_buf(),
            fault,
            on_disk: loaded
                .iter()
                .map(|(id, c)| (Arc::as_ptr(c) as usize, (Arc::downgrade(c), *id)))
                .collect(),
            next_id,
        })
    }

    /// Checkpoint `tables` and `lineage` durably: write the chunks no file
    /// holds yet, then the manifest (tmp + fsync + atomic rename + dir
    /// fsync), then sweep the chunk files nothing references. On an error
    /// before the rename the previous checkpoint stands untouched.
    /// Lineage entries whose plans cannot be serialized are skipped —
    /// warming is an optimization, not a correctness requirement.
    pub fn write(
        &mut self,
        tables: &[Arc<Table>],
        lineage: &[LineageEntry],
    ) -> Result<(), WalError> {
        let mut referenced: HashMap<usize, (Weak<Chunk>, u64)> = HashMap::new();
        let mut manifest = Vec::with_capacity(4096);
        let mut buf = Vec::new();
        let first_new_id = self.next_id;
        begin_frame(&mut manifest);
        put_u32(&mut manifest, tables.len() as u32);
        for t in tables {
            put_str(&mut manifest, t.name());
            put_u64(&mut manifest, t.epoch());
            put_schema(&mut manifest, t.schema());
            put_u32(&mut manifest, t.chunks().len() as u32);
            for chunk in t.chunks() {
                let key = Arc::as_ptr(chunk) as usize;
                let known = self.on_disk.get(&key).or_else(|| referenced.get(&key));
                let id = match known {
                    Some(&(_, id)) => id,
                    None => {
                        let id = self.next_id;
                        self.next_id += 1;
                        self.write_chunk(id, chunk, &mut buf)?;
                        id
                    }
                };
                referenced.insert(key, (Arc::downgrade(chunk), id));
                put_u64(&mut manifest, id);
                put_u64(&mut manifest, chunk.rows() as u64);
            }
        }
        let encodable: Vec<Vec<u8>> = lineage
            .iter()
            .filter_map(|e| codec::encode_lineage(e).ok())
            .collect();
        put_u32(&mut manifest, encodable.len() as u32);
        for bytes in &encodable {
            put_u32(&mut manifest, bytes.len() as u32);
            manifest.extend_from_slice(bytes);
        }
        end_frame(&mut manifest);
        if self.next_id != first_new_id {
            // The manifest must not name a file whose directory entry
            // could still be lost.
            sync_dir(&self.dir);
        }

        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut f = File::create(&tmp)?;
            write_through(&*self.fault, &mut f, CHECKPOINT_MAGIC)?;
            write_through(&*self.fault, &mut f, &manifest)?;
            sync_through(&*self.fault, &f)?;
        }
        std::fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        sync_dir(&self.dir);
        self.on_disk = referenced;
        self.sweep()
    }

    /// Delete every chunk file the manifest on disk does not name.
    fn sweep(&self) -> Result<(), WalError> {
        let live: HashSet<u64> = self.on_disk.values().map(|&(_, id)| id).collect();
        for id in list_chunk_files(&self.dir)? {
            if !live.contains(&id) {
                std::fs::remove_file(self.dir.join(chunk_file_name(id)))?;
            }
        }
        Ok(())
    }

    /// Write `chunk` to its own file and sync it. `buf` is the one frame
    /// buffer, reused across columns and chunks.
    fn write_chunk(&self, id: u64, chunk: &Chunk, buf: &mut Vec<u8>) -> Result<(), WalError> {
        let mut f = File::create(self.dir.join(chunk_file_name(id)))?;
        write_through(&*self.fault, &mut f, CHUNK_MAGIC)?;
        begin_frame(buf);
        put_u64(buf, chunk.rows() as u64);
        put_u32(buf, chunk.columns().len() as u32);
        for c in chunk.columns() {
            put_dtype(buf, c.data_type());
        }
        end_frame(buf);
        write_through(&*self.fault, &mut f, buf)?;
        for c in chunk.columns() {
            for offset in (0..chunk.rows()).step_by(BLOCK_ROWS) {
                begin_frame(buf);
                put_column(buf, &c.slice(offset, BLOCK_ROWS.min(chunk.rows() - offset)));
                end_frame(buf);
                write_through(&*self.fault, &mut f, buf)?;
            }
        }
        sync_through(&*self.fault, &f)?;
        Ok(())
    }
}

/// Load chunk `chunk.id` of a table of `schema` from `dir`. A file that is
/// missing, cut short, CRC-damaged, of another shape than the manifest
/// says, or longer than its frames is [`WalError::Corrupt`] naming the
/// file: the WAL may have been pruned against this checkpoint, so there is
/// nothing to fall back to.
pub fn read_chunk(dir: &Path, chunk: ChunkRef, schema: &Schema) -> Result<Chunk, WalError> {
    let path = dir.join(chunk_file_name(chunk.id));
    let damaged = |why: String| WalError::Corrupt(format!("chunk file {}: {why}", path.display()));
    let file = File::open(&path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => damaged("named by the manifest but missing".to_string()),
        _ => WalError::Io(e),
    })?;
    decode_chunk(&mut BufReader::new(file), chunk.rows, schema).map_err(|e| match e {
        WalError::Corrupt(why) => damaged(why),
        other => other,
    })
}

/// Decode one chunk file's bytes: `rows` rows of `schema`'s column types.
fn decode_chunk(input: &mut impl Read, rows: u64, schema: &Schema) -> Result<Chunk, WalError> {
    let corrupt = |why: String| Err(WalError::Corrupt(why));
    let mut magic = [0u8; 8];
    if input.read_exact(&mut magic).is_err() || &magic != CHUNK_MAGIC {
        return corrupt("bad or short magic".to_string());
    }
    let mut buf = Vec::new();
    read_frame(input, &mut buf)?;
    let mut shape = Reader::new(&buf);
    let held = shape.u64()?;
    let types = (0..shape.count()?)
        .map(|_| read_dtype(&mut shape))
        .collect::<Result<Vec<_>, _>>()?;
    if held != rows || !types.iter().eq(schema.fields().iter().map(|f| &f.dtype)) {
        return corrupt(format!(
            "holds {held} rows of {types:?}, the manifest says {rows} rows of {schema:?}"
        ));
    }
    if rows == 0 {
        return corrupt("holds no rows: an empty chunk is never written".to_string());
    }
    let rows = rows as usize;
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let mut blocks = Vec::with_capacity(rows.div_ceil(BLOCK_ROWS));
        for offset in (0..rows).step_by(BLOCK_ROWS) {
            read_frame(input, &mut buf)?;
            let mut r = Reader::new(&buf);
            blocks.push(read_column(
                &mut r,
                field.dtype,
                BLOCK_ROWS.min(rows - offset),
            )?);
            if !r.is_empty() {
                return corrupt("trailing bytes in a column frame".to_string());
            }
        }
        columns.push(Column::concat(&blocks.iter().collect::<Vec<_>>()));
    }
    if input.read(&mut [0u8])? != 0 {
        return corrupt("bytes after the last column frame".to_string());
    }
    Ok(Chunk::new(columns))
}

/// Read the manifest in `dir`, if one exists. A missing file is
/// `Ok(None)` (cold start); a damaged file, or one in the superseded
/// row-image format, is an error — the WAL may have been pruned against
/// it, so silently ignoring it could lose data.
pub fn read_checkpoint(dir: &Path) -> Result<Option<Checkpoint>, WalError> {
    let path = dir.join(CHECKPOINT_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(WalError::Io(e)),
    }
    if bytes.starts_with(ROW_IMAGE_MAGIC) {
        return Err(WalError::Corrupt(format!(
            "{} is an RDBCKPT1 row-image checkpoint; this build reads only the RDBCKPT2 \
             chunk manifest and does not convert the older format",
            path.display()
        )));
    }
    if !bytes.starts_with(CHECKPOINT_MAGIC) {
        return Err(WalError::Corrupt(format!(
            "{} is not a checkpoint manifest (bad magic)",
            path.display()
        )));
    }
    let scan = scan_frames(&bytes[8..]);
    let (off, len) = match (scan.payloads.first(), scan.defect) {
        (Some(&p), None) if scan.payloads.len() == 1 => p,
        _ => {
            return Err(WalError::Corrupt(format!(
                "{} body is damaged (CRC or framing)",
                path.display()
            )))
        }
    };
    let body = &bytes[8..][off..off + len];
    let mut r = Reader::new(body);
    let ntables = r.count()?;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = r.str()?;
        let epoch = r.u64()?;
        let schema = read_schema(&mut r)?;
        let nchunks = r.count()?;
        let mut chunks = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            chunks.push(ChunkRef {
                id: r.u64()?,
                rows: r.u64()?,
            });
        }
        tables.push(TableCheckpoint {
            name,
            epoch,
            schema,
            chunks,
        });
    }
    let nlineage = r.count()?;
    let mut lineage = Vec::with_capacity(nlineage);
    for _ in 0..nlineage {
        let n = r.count()?;
        lineage.push(codec::decode_lineage(r.bytes(n)?)?);
    }
    Ok(Some(Checkpoint { tables, lineage }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoFault;
    use rdb_vector::{DataType, Value};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdb-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn schema() -> Schema {
        Schema::from_pairs([
            ("x", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
            ("d", DataType::Date),
            ("b", DataType::Bool),
        ])
    }

    /// Rows `keys` with NULLs in every nullable position somewhere.
    fn chunk(keys: std::ops::Range<i64>) -> Arc<Chunk> {
        let null_every = |n: i64, k: i64, v: Value| if k % n == 0 { Value::Null } else { v };
        let col = |dtype, f: &dyn Fn(i64) -> Value| {
            Column::from_values(dtype, &keys.clone().map(f).collect::<Vec<_>>())
        };
        Arc::new(Chunk::new(vec![
            col(DataType::Int, &Value::Int),
            col(DataType::Str, &|k| {
                null_every(3, k, Value::str(format!("s{k}")))
            }),
            col(DataType::Float, &|k| {
                null_every(5, k, Value::Float(k as f64 / 8.0))
            }),
            col(DataType::Date, &|k| null_every(7, k, Value::Date(k as i32))),
            col(DataType::Bool, &|k| {
                null_every(11, k, Value::Bool(k % 2 == 0))
            }),
        ]))
    }

    fn table(epoch: u64, chunks: Vec<Arc<Chunk>>) -> Arc<Table> {
        Arc::new(Table::from_chunks("t", schema(), chunks, epoch))
    }

    fn writer(dir: &Path) -> CheckpointWriter {
        CheckpointWriter::open(dir, Arc::new(NoFault), &[]).unwrap()
    }

    /// Counts the bytes written through it.
    #[derive(Default)]
    struct Meter(std::sync::atomic::AtomicUsize);

    impl IoFault for Meter {
        fn on_write(&self, len: usize) -> crate::WriteFault {
            self.0.fetch_add(len, std::sync::atomic::Ordering::Relaxed);
            crate::WriteFault::Allow
        }
    }

    fn load(dir: &Path) -> Vec<Vec<Vec<Value>>> {
        let ckpt = read_checkpoint(dir).unwrap().unwrap();
        ckpt.tables
            .iter()
            .map(|t| {
                let chunks = t
                    .chunks
                    .iter()
                    .map(|&c| Arc::new(read_chunk(dir, c, &t.schema).unwrap()))
                    .collect();
                Table::from_chunks(&t.name, t.schema.clone(), chunks, t.epoch).to_rows()
            })
            .collect()
    }

    fn chunk_ids(dir: &Path) -> Vec<u64> {
        let mut ids = list_chunk_files(dir).unwrap();
        ids.sort();
        ids
    }

    #[test]
    fn chunks_are_written_once_and_orphans_swept() {
        let dir = temp_dir("once");
        assert!(read_checkpoint(&dir).unwrap().is_none(), "cold start");
        let meter = Arc::new(Meter::default());
        let written = || meter.0.swap(0, std::sync::atomic::Ordering::Relaxed);
        let mut w = CheckpointWriter::open(&dir, meter.clone(), &[]).unwrap();
        // A chunk past one block of rows, and a small one.
        let (a, b) = (chunk(0..BLOCK_ROWS as i64 + 10), chunk(100_000..100_020));
        let first = table(9, vec![a.clone(), b.clone()]);
        w.write(std::slice::from_ref(&first), &[]).unwrap();
        assert_eq!(chunk_ids(&dir), [1, 2]);
        assert_eq!(load(&dir), [first.to_rows()]);
        let back = read_checkpoint(&dir).unwrap().unwrap();
        assert_eq!((back.tables[0].epoch, back.max_epoch()), (9, 9));
        assert_eq!(back.tables[0].chunks[1], ChunkRef { id: 2, rows: 20 });
        assert!(!dir.join("checkpoint.tmp").exists());
        let manifest_len = std::fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len() as usize;
        assert!(
            written() > 64 * manifest_len,
            "the chunks dwarf the manifest"
        );

        // Same chunks again: only the manifest is written.
        w.write(std::slice::from_ref(&first), &[]).unwrap();
        assert_eq!(chunk_ids(&dir), [1, 2]);
        assert_eq!(written(), manifest_len);

        // `b` replaced: one new file, `b`'s swept, `a`'s kept; a stray
        // chunk file (an interrupted checkpoint's) goes with it.
        std::fs::write(dir.join(chunk_file_name(40)), b"half a chunk").unwrap();
        let second = table(10, vec![a.clone(), chunk(100_000..100_050)]);
        w.write(std::slice::from_ref(&second), &[]).unwrap();
        assert_eq!(chunk_ids(&dir), [1, 3]);
        let small = std::fs::metadata(dir.join(chunk_file_name(3)))
            .unwrap()
            .len() as usize;
        assert_eq!(
            written(),
            small + manifest_len,
            "one small chunk and the manifest"
        );
        assert_eq!(load(&dir), [second.to_rows()]);

        // A writer opened over the directory numbers past what it finds
        // and, told what recovery loaded, does not rewrite it.
        let loaded = [(1, a.clone())];
        let mut w = CheckpointWriter::open(&dir, Arc::new(NoFault), &loaded).unwrap();
        w.write(&[table(11, vec![a, chunk(7..9)])], &[]).unwrap();
        assert_eq!(chunk_ids(&dir), [1, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_is_a_named_error_never_a_misparse() {
        let dir = temp_dir("damage");
        let t = table(3, vec![chunk(0..500)]);
        writer(&dir).write(std::slice::from_ref(&t), &[]).unwrap();
        let chunk_path = dir.join(chunk_file_name(1));
        let good = std::fs::read(&chunk_path).unwrap();
        let entry = read_checkpoint(&dir).unwrap().unwrap().tables.remove(0);
        let read = || read_chunk(&dir, entry.chunks[0], &entry.schema);
        let corrupt_naming = |r: Result<Chunk, WalError>, what: &str| match r {
            Err(WalError::Corrupt(m)) => assert!(m.contains("chunk-00000001.col"), "{what}: {m}"),
            other => panic!("{what}: {other:?}"),
        };
        assert_eq!(read().unwrap().rows(), 500);

        // Cut at every length, one flipped bit anywhere, bytes appended.
        for cut in (0..good.len()).step_by(37).chain([good.len() - 1]) {
            std::fs::write(&chunk_path, &good[..cut]).unwrap();
            corrupt_naming(read(), "truncated");
        }
        for at in (0..good.len()).step_by(101) {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            std::fs::write(&chunk_path, &bad).unwrap();
            corrupt_naming(read(), "bit flip");
        }
        let mut long = good.clone();
        long.push(0);
        std::fs::write(&chunk_path, &long).unwrap();
        corrupt_naming(read(), "trailing byte");
        std::fs::remove_file(&chunk_path).unwrap();
        corrupt_naming(read(), "missing");
        // The manifest and the file must agree on the shape.
        std::fs::write(&chunk_path, &good).unwrap();
        let other_rows = ChunkRef { id: 1, rows: 499 };
        corrupt_naming(read_chunk(&dir, other_rows, &entry.schema), "row count");
        let narrower = Schema::from_pairs([("x", DataType::Int)]);
        corrupt_naming(read_chunk(&dir, entry.chunks[0], &narrower), "schema");

        // The manifest: damaged, foreign, and the superseded format.
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_checkpoint(&dir), Err(WalError::Corrupt(_))));
        std::fs::write(&path, b"not a manifest").unwrap();
        assert!(matches!(read_checkpoint(&dir), Err(WalError::Corrupt(_))));
        bytes[..8].copy_from_slice(ROW_IMAGE_MAGIC);
        std::fs::write(&path, &bytes).unwrap();
        match read_checkpoint(&dir) {
            Err(WalError::Corrupt(m)) => assert!(m.contains("RDBCKPT1"), "{m}"),
            other => panic!("old format: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
