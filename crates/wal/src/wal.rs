//! The WAL writer: segmented appends, fsync policy, poisoning, pruning.
//!
//! One [`Wal`] serves a whole data directory. It implements
//! [`CommitHook`], so installing it on a catalog (see
//! `Catalog::set_commit_hook`) makes every table commit durable before
//! it becomes visible. All writer state sits behind one mutex — commits
//! to *different* tables serialize on the log, which is what makes the
//! log a single total order consistent with every per-table epoch order.
//!
//! # Poisoning
//!
//! The first failed write or fsync permanently poisons the log: the
//! failing commit is aborted by the hook error (the in-memory swap never
//! happens), and every later append fails fast with
//! [`WalError::Poisoned`] without touching the file. This keeps memory
//! and disk consistent under a dying device and gives the engine a
//! stable signal for read-only mode.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rdb_storage::{Commit, CommitHook, StorageError};

use crate::fault::{sync_through, write_through, IoFault};
use crate::frame::encode_frame;
use crate::segment::{
    list_segments, scan_segment, segment_file_name, segment_header, SEGMENT_HEADER,
};
use crate::{DurabilityConfig, FsyncPolicy, WalError, SEGMENT_BYTES};

/// Live (not yet pruned) segment bookkeeping.
struct SegmentMeta {
    seq: u64,
    path: PathBuf,
    /// Bytes written (valid prefix on open; exact length while live).
    bytes: u64,
    /// Highest epoch logged per table in this segment — the pruning key:
    /// a segment is deletable once a checkpoint covers all of these.
    table_max: HashMap<String, u64>,
}

struct Writer {
    file: File,
    segments: Vec<SegmentMeta>,
}

impl Writer {
    fn current(&mut self) -> &mut SegmentMeta {
        self.segments.last_mut().expect("writer has a segment")
    }
}

/// The write-ahead log for one data directory. See the module docs.
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    fault: Arc<dyn IoFault>,
    inner: Mutex<Writer>,
    poisoned: AtomicBool,
    /// Bytes across all live segments (headers included).
    bytes_total: AtomicU64,
    /// Bytes appended since the last checkpoint/prune.
    bytes_since_checkpoint: AtomicU64,
    /// Records appended over the WAL's lifetime in this process.
    records: AtomicU64,
    /// Appends since the last fsync (EveryN bookkeeping).
    unsynced: AtomicU64,
}

impl Wal {
    /// Open (or create) the WAL in `dir`, appending after the last
    /// complete record. A torn or corrupt tail on the newest segment is
    /// truncated here, before any new append can interleave with it.
    pub fn open(
        dir: &Path,
        config: &DurabilityConfig,
        fault: Arc<dyn IoFault>,
    ) -> Result<Arc<Wal>, WalError> {
        std::fs::create_dir_all(dir)?;
        let mut segments = Vec::new();
        for (seq, path) in list_segments(dir)? {
            // Crash mid-creation leaves a short or torn header and,
            // provably, no acknowledged records (the header syncs before
            // any append): discard the file rather than failing to open.
            if !crate::segment::header_intact(&path)? {
                std::fs::remove_file(&path)?;
                continue;
            }
            let scan = scan_segment(&path)?;
            if scan.has_tail_garbage() {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.clean_len)?;
                f.sync_data()?;
            }
            let mut table_max = HashMap::new();
            for rec in &scan.records {
                let e = table_max.entry(rec.table.clone()).or_insert(0u64);
                *e = (*e).max(rec.epoch);
            }
            segments.push(SegmentMeta {
                seq,
                path,
                bytes: scan.clean_len,
                table_max,
            });
        }
        let file = match segments.last() {
            Some(meta) => OpenOptions::new().append(true).open(&meta.path)?,
            None => {
                let meta = new_segment(dir, 1)?;
                let file = OpenOptions::new().append(true).open(&meta.path)?;
                segments.push(meta);
                file
            }
        };
        let bytes_total: u64 = segments.iter().map(|s| s.bytes).sum();
        Ok(Arc::new(Wal {
            dir: dir.to_path_buf(),
            policy: config.fsync,
            fault,
            inner: Mutex::new(Writer { file, segments }),
            poisoned: AtomicBool::new(false),
            bytes_total: AtomicU64::new(bytes_total),
            bytes_since_checkpoint: AtomicU64::new(0),
            records: AtomicU64::new(0),
            unsynced: AtomicU64::new(0),
        }))
    }

    /// Whether an earlier I/O failure has poisoned the log.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Bytes across all live segments.
    pub fn wal_bytes(&self) -> u64 {
        self.bytes_total.load(Ordering::Relaxed)
    }

    /// Bytes appended since the last checkpoint (the checkpoint trigger).
    pub fn bytes_since_checkpoint(&self) -> u64 {
        self.bytes_since_checkpoint.load(Ordering::Relaxed)
    }

    /// Records appended by this process.
    pub fn records_appended(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Append one commit, honouring the fsync policy. Any failure
    /// poisons the log (see the module docs).
    pub fn append(&self, rec: &Commit) -> Result<(), WalError> {
        if self.is_poisoned() {
            return Err(WalError::Poisoned);
        }
        let frame = encode_frame(&crate::codec::encode_record(rec));
        let mut w = self.inner.lock();
        // Rotate if the frame would overflow a non-empty segment.
        if w.current().bytes + frame.len() as u64 > SEGMENT_BYTES
            && w.current().bytes > SEGMENT_HEADER
        {
            if let Err(e) = self.rotate_locked(&mut w) {
                self.poison();
                return Err(e);
            }
        }
        if let Err(e) = write_through(&*self.fault, &mut w.file, &frame) {
            // Whatever part of the frame landed is on its way to the disk.
            let _ = w.file.sync_data();
            self.poison();
            return Err(WalError::Io(e));
        }
        let sync_due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                self.unsynced.fetch_add(1, Ordering::Relaxed) + 1 >= n.max(1) as u64
            }
            FsyncPolicy::Off => false,
        };
        if sync_due {
            if let Err(e) = self.sync_locked(&mut w) {
                self.poison();
                return Err(e);
            }
        }
        {
            let cur = w.current();
            cur.bytes += frame.len() as u64;
            let e = cur.table_max.entry(rec.table.clone()).or_insert(0);
            *e = (*e).max(rec.epoch);
        }
        self.bytes_total
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.bytes_since_checkpoint
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn sync_locked(&self, w: &mut Writer) -> Result<(), WalError> {
        sync_through(&*self.fault, &w.file)?;
        self.unsynced.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Explicit flush to stable storage (used by tests and shutdown).
    pub fn sync(&self) -> Result<(), WalError> {
        if self.is_poisoned() {
            return Err(WalError::Poisoned);
        }
        let mut w = self.inner.lock();
        self.sync_locked(&mut w).inspect_err(|_| self.poison())
    }

    fn rotate_locked(&self, w: &mut Writer) -> Result<(), WalError> {
        let next_seq = w.current().seq + 1;
        // Durably finish the old segment before opening its successor.
        w.file.sync_data()?;
        let meta = new_segment(&self.dir, next_seq)?;
        w.file = OpenOptions::new().append(true).open(&meta.path)?;
        w.segments.push(meta);
        self.bytes_total
            .fetch_add(SEGMENT_HEADER, Ordering::Relaxed);
        Ok(())
    }

    /// After a checkpoint at `epochs` (table → checkpointed epoch) has
    /// landed durably: rotate to a fresh segment and delete every older
    /// segment fully covered by the checkpoint. A segment containing any
    /// record *newer* than the checkpoint survives — recovery skips the
    /// covered records individually.
    pub fn prune(&self, epochs: &HashMap<String, u64>) -> Result<u64, WalError> {
        if self.is_poisoned() {
            return Err(WalError::Poisoned);
        }
        let mut w = self.inner.lock();
        if w.current().bytes > SEGMENT_HEADER {
            if let Err(e) = self.rotate_locked(&mut w) {
                self.poison();
                return Err(e);
            }
        }
        let mut dropped = 0u64;
        let last = w.segments.len() - 1;
        let mut keep = Vec::with_capacity(w.segments.len());
        for (i, seg) in w.segments.drain(..).enumerate() {
            let covered = i < last
                && seg
                    .table_max
                    .iter()
                    .all(|(t, &e)| epochs.get(t).is_some_and(|&ck| ck >= e));
            if covered {
                std::fs::remove_file(&seg.path)?;
                dropped += seg.bytes;
                self.bytes_total.fetch_sub(seg.bytes, Ordering::Relaxed);
            } else {
                keep.push(seg);
            }
        }
        w.segments = keep;
        self.bytes_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(dropped)
    }
}

fn new_segment(dir: &Path, seq: u64) -> Result<SegmentMeta, WalError> {
    let path = dir.join(segment_file_name(seq));
    let mut f = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    f.write_all(&segment_header(seq))?;
    f.sync_data()?;
    Ok(SegmentMeta {
        seq,
        path,
        bytes: SEGMENT_HEADER,
        table_max: HashMap::new(),
    })
}

impl CommitHook for Wal {
    fn before_commit(&self, commit: &Commit) -> Result<(), StorageError> {
        self.append(commit)
            .map_err(|e| StorageError(format!("wal append failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recover, NoFault};
    use rdb_storage::{Catalog, Change, TableBuilder};
    use rdb_vector::Batch;
    use rdb_vector::{DataType, Schema, Value};

    #[test]
    fn appends_past_the_segment_size_rotate_and_recover_in_order() {
        let dir = std::env::temp_dir().join(format!("rdb-wal-{}-rotate", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::from_pairs([("k", DataType::Int), ("pad", DataType::Str)]);
        let config = DurabilityConfig {
            fsync: FsyncPolicy::Off,
            ..DurabilityConfig::default()
        };
        let wal = Wal::open(&dir, &config, Arc::new(NoFault)).unwrap();
        // Records of ~1/16 segment each: 24 of them fill one segment and
        // spill into a second.
        let (records, rows_per_record) = (24u64, 128i64);
        let pad = "x".repeat((SEGMENT_BYTES / 16 / rows_per_record as u64) as usize);
        let mut expected = Vec::new();
        for epoch in 1..=records {
            let rows: Vec<Vec<Value>> = (0..rows_per_record)
                .map(|i| {
                    let k = (epoch as i64 - 1) * rows_per_record + i;
                    vec![Value::Int(k), Value::str(format!("{k}{pad}"))]
                })
                .collect();
            expected.extend(rows.iter().cloned());
            let rec = Commit {
                table: "t".to_string(),
                schema: schema.clone(),
                epoch,
                change: Change::Append(Batch::from_rows(&schema, &rows)),
            };
            wal.append(&rec).unwrap();
        }
        assert_eq!(list_segments(&dir).unwrap().len(), 2, "one rotation");
        drop(wal);

        let mut catalog = Catalog::new();
        catalog
            .register(TableBuilder::new("t", schema, 0).finish())
            .unwrap();
        let report = recover(&dir, &catalog).unwrap();
        assert_eq!(report.replayed_records, records);
        assert_eq!(report.truncated_segments, 0);
        assert_eq!(report.max_epoch, records);
        let t = catalog.get("t").unwrap();
        assert_eq!(t.epoch(), records);
        assert_eq!(t.to_rows(), expected, "every row, in commit order");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
