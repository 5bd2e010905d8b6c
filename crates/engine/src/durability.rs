//! Engine-level durability: recovery, the WAL hook, checkpoints, and the
//! lineage-warmed recycler.
//!
//! The mechanics (framing, segments, fsync policy, fault injection) live
//! in `rdb_wal`; this module owns the *policy*: when the engine boots with
//! a data directory it recovers checkpoint + WAL tail, installs the WAL as
//! the catalog-wide commit hook (so every epoch is logged **before** its
//! pointer swap), re-executes persisted lineage to re-seed the recycler,
//! and runs a background checkpointer that persists the chunks born since
//! the last checkpoint and prunes covered WAL segments.
//!
//! # Read-only degradation
//!
//! The first failed WAL write or fsync poisons the log: the failing commit
//! is aborted (memory never runs ahead of disk), and from then on every
//! write fails fast with [`rdb_plan::PlanErrorKind::ReadOnly`] while reads
//! keep serving from the in-memory epochs — which are exactly the epochs
//! the log covers, so no stale or phantom data is visible.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use parking_lot::Mutex;
use rdb_exec::{build, ExecContext, FnRegistry, MaterializedResult};
use rdb_plan::PlanError;
use rdb_recycler::{LineageEntry, Recycler};
use rdb_storage::{Catalog, Table};
use rdb_wal::{CheckpointWriter, RecoveryReport, Wal};

pub use rdb_wal::{DurabilityConfig, FsyncPolicy, IoFault, NoFault, ScriptedFault, WalError};

use crate::engine::Engine;

/// Live durability state owned by an [`Engine`] built with a data
/// directory.
pub(crate) struct DurabilityState {
    pub(crate) wal: Arc<Wal>,
    pub(crate) config: DurabilityConfig,
    /// Highest table epoch covered by the last checkpoint written (or
    /// recovered) in this process.
    pub(crate) last_checkpoint_epoch: AtomicU64,
    /// WAL records replayed during recovery at boot.
    pub(crate) recovery_replayed: u64,
    /// Lineage entries successfully re-materialized into the recycler at
    /// boot.
    pub(crate) recovery_warm_hits: AtomicU64,
    /// Writes checkpoints and knows which chunk is in which file; the
    /// lock serializes checkpoints (manual + background).
    pub(crate) checkpoints: Mutex<CheckpointWriter>,
    /// The background checkpointer, while it runs: dropping the sender
    /// ends its wait between polls at once.
    checkpointer: Mutex<Option<(Sender<()>, JoinHandle<()>)>>,
}

impl DurabilityState {
    /// Stop the background checkpointer and wait for it — through a
    /// checkpoint it is in the middle of — so that nothing of this engine
    /// writes to the data directory afterwards. Idempotent.
    pub(crate) fn stop_checkpointer(&self) {
        let Some((stop, thread)) = self.checkpointer.lock().take() else {
            return;
        };
        drop(stop);
        // A checkpointer that panicked has stopped as well.
        let _ = thread.join();
    }
}

/// Point-in-time durability counters, surfaced through `rdb_stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Bytes across all live WAL segments (0 without a data directory).
    pub wal_bytes: u64,
    /// Records appended to the WAL by this process.
    pub wal_records: u64,
    /// Highest epoch covered by the last checkpoint.
    pub last_checkpoint_epoch: u64,
    /// WAL records replayed during boot recovery.
    pub recovery_replayed: u64,
    /// Cache entries re-materialized from persisted lineage at boot.
    pub recovery_warm_hits: u64,
    /// Whether the engine has degraded to read-only (WAL poisoned).
    pub read_only: bool,
}

/// Recover `dir` into `catalog` and open the WAL for appending, returning
/// the installed state plus the recovery report (whose lineage the caller
/// feeds to [`warm_recycler`]).
pub(crate) fn open_durability(
    dir: PathBuf,
    config: DurabilityConfig,
    fault: Arc<dyn IoFault>,
    catalog: &Catalog,
) -> Result<(DurabilityState, RecoveryReport), PlanError> {
    let report = rdb_wal::recover(&dir, catalog)
        .map_err(|e| PlanError::msg(format!("recovery from '{}' failed: {e}", dir.display())))?;
    let open_failed =
        |e: WalError| PlanError::msg(format!("wal open in '{}' failed: {e}", dir.display()));
    let checkpoints =
        CheckpointWriter::open(&dir, fault.clone(), &report.chunks).map_err(open_failed)?;
    let wal = Wal::open(&dir, &config, fault).map_err(open_failed)?;
    // From here on, every commit on every table is logged before its
    // pointer swap.
    catalog.set_commit_hook(wal.clone());
    let state = DurabilityState {
        wal,
        config,
        last_checkpoint_epoch: AtomicU64::new(report.checkpoint_epoch),
        recovery_replayed: report.replayed_records,
        recovery_warm_hits: AtomicU64::new(0),
        checkpoints: Mutex::new(checkpoints),
        checkpointer: Mutex::new(None),
    };
    Ok((state, report))
}

/// Re-execute persisted lineage entries against the recovered catalog and
/// insert the results into the recycler, so the first post-restart queries
/// hit a warm cache instead of a cold one. Entries that no longer build
/// (schema drift, planner changes) are skipped — warming is an
/// optimization, never a correctness requirement.
pub(crate) fn warm_recycler(
    lineage: &[LineageEntry],
    recycler: &Recycler,
    catalog: &Arc<Catalog>,
    functions: &Arc<FnRegistry>,
) -> u64 {
    let mut hits = 0u64;
    for entry in lineage {
        if entry.plan.has_named() {
            continue; // defensive: lineage plans are persisted bound
        }
        let Ok(schema) = entry.plan.schema(catalog) else {
            continue;
        };
        let ctx = ExecContext::new(catalog.clone()).with_functions(functions.clone());
        let Ok(mut tree) = build(&entry.plan, &ctx) else {
            continue;
        };
        let Ok(batches) = tree.drain() else {
            continue;
        };
        let result = Arc::new(MaterializedResult::from_batches(schema, &batches));
        if recycler.warm(entry, catalog, result) {
            hits += 1;
        }
    }
    hits
}

impl Engine {
    /// Whether the engine has degraded to read-only mode because the WAL
    /// can no longer make writes durable. Reads keep serving; writes fail
    /// with [`rdb_plan::PlanErrorKind::ReadOnly`].
    pub fn is_read_only(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(|d| d.wal.is_poisoned())
    }

    /// Durability counters (all zero / `read_only: false` when the engine
    /// was built without a data directory).
    pub fn durability_stats(&self) -> DurabilityStats {
        match &self.durability {
            Some(d) => DurabilityStats {
                wal_bytes: d.wal.wal_bytes(),
                wal_records: d.wal.records_appended(),
                last_checkpoint_epoch: d.last_checkpoint_epoch.load(Ordering::Relaxed),
                recovery_replayed: d.recovery_replayed,
                recovery_warm_hits: d.recovery_warm_hits.load(Ordering::Relaxed),
                read_only: d.wal.is_poisoned(),
            },
            None => DurabilityStats::default(),
        }
    }

    /// Write a checkpoint now: persist every chunk of every base table
    /// that no earlier checkpoint wrote, then the manifest naming each
    /// table's chunks plus the recycler's top-K lineage, sweep the chunk
    /// files nothing references any more, and prune WAL segments the
    /// checkpoint fully covers. Costs the rows committed since the last
    /// checkpoint, not the tables. Returns `Ok(false)` when the engine has
    /// no data directory. Concurrent writers are safe: commits racing the
    /// snapshot land in segments the prune provably keeps (see
    /// `Wal::prune`).
    pub fn checkpoint(&self) -> Result<bool, PlanError> {
        let Some(d) = &self.durability else {
            return Ok(false);
        };
        let mut checkpoints = d.checkpoints.lock();
        if d.wal.is_poisoned() {
            return Err(PlanError::read_only());
        }
        let snap = self.catalog.snapshot();
        let lineage = self
            .recycler
            .as_ref()
            .map(|r| r.lineage_top(d.config.warm_top_k))
            .unwrap_or_default();
        let cover: HashMap<String, u64> = snap.epochs().into_iter().collect();
        let mut tables: Vec<Arc<Table>> = cover
            .keys()
            .map(|name| snap.get(name).expect("snapshot table").clone())
            .collect();
        tables.sort_by(|a, b| a.name().cmp(b.name()));
        checkpoints
            .write(&tables, &lineage)
            .map_err(|e| PlanError::msg(format!("checkpoint failed: {e}")))?;
        d.wal
            .prune(&cover)
            .map_err(|e| PlanError::msg(format!("wal prune failed: {e}")))?;
        let max_epoch = cover.values().copied().max().unwrap_or(0);
        d.last_checkpoint_epoch.store(max_epoch, Ordering::Relaxed);
        Ok(true)
    }
}

/// Spawn the background checkpointer: polls the WAL growth counter and
/// checkpoints once it crosses the configured threshold. Holds only a
/// [`Weak`] engine reference and waits between polls on a channel whose
/// sender the engine owns, so dropping the engine ends the thread at once
/// and [`Engine::shutdown`] can join it.
pub(crate) fn spawn_checkpointer(engine: &Arc<Engine>) {
    let weak: Weak<Engine> = Arc::downgrade(engine);
    let d = engine.durability.as_ref().expect("durability configured");
    let (poll, threshold) = (
        d.config.checkpoint_poll,
        d.config.checkpoint_threshold_bytes,
    );
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let thread = std::thread::Builder::new()
        .name("rdb-checkpointer".to_string())
        .spawn(move || loop {
            // Nothing is ever sent: anything but a timeout means the
            // engine let go of the sender.
            if stopped.recv_timeout(poll) != Err(RecvTimeoutError::Timeout) {
                return;
            }
            let Some(engine) = weak.upgrade() else {
                return;
            };
            let Some(d) = &engine.durability else {
                return;
            };
            if engine.is_shutting_down() || d.wal.is_poisoned() {
                return;
            }
            if d.wal.bytes_since_checkpoint() >= threshold {
                // A poisoned-mid-checkpoint failure is terminal for the
                // thread; the engine is read-only either way.
                if engine.checkpoint().is_err() {
                    return;
                }
            }
        })
        .expect("spawn rdb-checkpointer");
    *d.checkpointer.lock() = Some((stop, thread));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_expr::{AggFunc, Expr};
    use rdb_plan::{scan, Plan};
    use rdb_recycler::RecyclerConfig;
    use rdb_storage::TableBuilder;
    use rdb_vector::{DataType, Schema, Value};
    use rdb_wal::codec::{decode_lineage, encode_lineage};

    /// Lineage written before `normalize` lowered `avg` still decodes, and
    /// warming skips it — the executor refuses an `avg` — while the other
    /// entries warm as usual.
    #[test]
    fn lineage_holding_avg_decodes_and_is_skipped_by_warm_up() {
        let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, 100);
        for i in 0..100 {
            b.push_row(vec![Value::Int(i % 7), Value::Float(i as f64 / 4.0)]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish()).unwrap();
        let catalog = Arc::new(cat);
        let entry = |agg: AggFunc| LineageEntry {
            plan: scan("t", &["k", "v"])
                .aggregate(vec![(Expr::name("k"), "k")], vec![(agg, "x")])
                .bind(&catalog)
                .unwrap(),
            epochs: vec![("t".to_string(), 0)],
            benefit: 1.0,
            heat: 1.0,
            cost_ns: 1e6,
            cost_work: 100.0,
            rows: 7,
            bytes: 112,
        };
        let old = decode_lineage(&encode_lineage(&entry(AggFunc::Avg(Expr::name("v")))).unwrap())
            .unwrap();
        assert!(
            matches!(&old.plan, Plan::Aggregate { aggs, .. } if matches!(aggs[0], AggFunc::Avg(_))),
            "{}",
            old.plan
        );
        let recycler = Recycler::new(RecyclerConfig::deterministic(1 << 20));
        let lineage = [old, entry(AggFunc::Sum(Expr::name("v")))];
        let functions = Arc::new(FnRegistry::new());
        assert_eq!(warm_recycler(&lineage, &recycler, &catalog, &functions), 1);
        assert_eq!(recycler.cache_len(), 1);
    }
}
