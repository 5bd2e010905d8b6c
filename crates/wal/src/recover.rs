//! Crash recovery: checkpoint load + WAL tail replay.
//!
//! Recovery is idempotent and prefix-correct: the recovered state is
//! always exactly the committed epochs whose records (a) were covered by
//! the checkpoint or (b) survive complete and CRC-valid in the WAL — a
//! prefix of the per-table commit order, because the WAL was appended in
//! epoch order. Torn or corrupt tails are truncated on disk (so the next
//! append cannot interleave with garbage) and counted in the report,
//! never panicked on.

use std::path::Path;

use std::sync::Arc;

use rdb_recycler::LineageEntry;
use rdb_storage::{Catalog, Chunk};

use crate::checkpoint::{read_checkpoint, read_chunk};
use crate::segment::{list_segments, scan_segment};
use crate::WalError;

/// What recovery found and did. Returned to the engine, surfaced through
/// `rdb_stats()`.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Tables restored from the checkpoint image.
    pub checkpoint_tables: usize,
    /// Highest epoch in the checkpoint.
    pub checkpoint_epoch: u64,
    /// WAL records applied on top of the checkpoint.
    pub replayed_records: u64,
    /// WAL records skipped because the checkpoint already covered them.
    pub skipped_records: u64,
    /// Segments whose tail had to be truncated (torn/corrupt writes).
    pub truncated_segments: u64,
    /// Bytes of tail garbage discarded.
    pub truncated_bytes: u64,
    /// Persisted lineage entries, ready for recycler warm-up.
    pub lineage: Vec<LineageEntry>,
    /// Every chunk loaded from the checkpoint, with the id of its file:
    /// what [`crate::CheckpointWriter::open`] needs to not write them again.
    pub chunks: Vec<(u64, Arc<Chunk>)>,
    /// Highest epoch recovered across all tables.
    pub max_epoch: u64,
}

/// Recover `dir` into `catalog`: load the checkpoint's chunks as columns
/// (if there is one), truncate damaged tails, and replay the surviving WAL
/// records in order. The catalog must already contain every table the log
/// mentions (schemas are code, data is log) with its seed contents;
/// recovered tables are force-restored over the seed.
///
/// Runs before the engine serves anything — single-threaded, no
/// concurrent writers.
pub fn recover(dir: &Path, catalog: &Catalog) -> Result<RecoveryReport, WalError> {
    let mut report = RecoveryReport::default();
    std::fs::create_dir_all(dir)?;

    if let Some(ckpt) = read_checkpoint(dir)? {
        report.checkpoint_tables = ckpt.tables.len();
        report.checkpoint_epoch = ckpt.max_epoch();
        for t in &ckpt.tables {
            let vt = catalog.versioned(&t.name).ok_or_else(|| {
                WalError::Corrupt(format!(
                    "checkpoint references table '{}' missing from the catalog",
                    t.name
                ))
            })?;
            if vt.schema() != &t.schema {
                return Err(WalError::Corrupt(format!(
                    "checkpoint schema for '{}' does not match the catalog",
                    t.name
                )));
            }
            let mut chunks = Vec::with_capacity(t.chunks.len());
            for &chunk in &t.chunks {
                let loaded = Arc::new(read_chunk(dir, chunk, &t.schema)?);
                report.chunks.push((chunk.id, loaded.clone()));
                chunks.push(loaded);
            }
            vt.restore(chunks, t.epoch)
                .map_err(|e| WalError::Corrupt(e.to_string()))?;
            report.max_epoch = report.max_epoch.max(t.epoch);
        }
        report.lineage = ckpt.lineage;
    }

    let mut halted = false;
    for (_, path) in list_segments(dir)? {
        if halted {
            // A defect in an earlier segment means everything after it is
            // past the torn point; records there would be a gap. Drop the
            // whole segment (this only happens with exotic damage — a
            // normal crash tears the *last* segment).
            let len = std::fs::metadata(&path)?.len();
            std::fs::remove_file(&path)?;
            report.truncated_segments += 1;
            report.truncated_bytes += len;
            continue;
        }
        // A short or wrong-magic header means the crash hit segment
        // creation itself (see `header_intact`), so the file provably
        // holds no acknowledged records: delete it outright.
        if !crate::segment::header_intact(&path)? {
            let len = std::fs::metadata(&path)?.len();
            std::fs::remove_file(&path)?;
            report.truncated_segments += 1;
            report.truncated_bytes += len;
            halted = true;
            continue;
        }
        let scan = scan_segment(&path)?;
        if scan.has_tail_garbage() {
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.clean_len)?;
            f.sync_data()?;
            report.truncated_segments += 1;
            report.truncated_bytes += scan.total_len - scan.clean_len;
            halted = true;
        }
        for rec in &scan.records {
            let vt = catalog.versioned(&rec.table).ok_or_else(|| {
                WalError::Corrupt(format!(
                    "log references table '{}' missing from the catalog",
                    rec.table
                ))
            })?;
            if vt.schema() != &rec.schema {
                return Err(WalError::Corrupt(format!(
                    "logged schema for '{}' does not match the catalog",
                    rec.table
                )));
            }
            let applied = vt
                .apply_logged(rec)
                .map_err(|e| WalError::Corrupt(e.to_string()))?;
            if applied {
                report.replayed_records += 1;
            } else {
                report.skipped_records += 1;
            }
            report.max_epoch = report.max_epoch.max(rec.epoch);
        }
    }
    Ok(report)
}
