//! Durability end to end: crash recovery, fault injection, checkpointing,
//! lineage-warmed recovery, and WAL/epoch ordering under concurrency.
//!
//! The centerpiece is a kill-at-random-offset harness: a deterministic
//! workload runs with `FsyncPolicy::Always`, recording the durable WAL
//! length at every acknowledgement; then the log is truncated at 50+
//! seeded offsets (some with garbage appended, as a torn write would
//! leave) and rebooted. Every recovered state must equal some prefix of
//! the committed epoch sequence, include every write acknowledged at or
//! below the kill offset, and never panic.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use recycler_db::engine::{
    DurabilityConfig, Engine, FsyncPolicy, IoFault, NoFault, ScriptedFault, WriteKind,
};
use recycler_db::expr::{AggFunc, Expr, Params};
use recycler_db::plan::{scan, PlanErrorKind};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{DataType, Schema, Value};
use recycler_db::wal::checkpoint::{chunk_file_name, list_chunk_files, read_checkpoint};
use recycler_db::wal::segment::{list_segments, scan_segment};
use recycler_db::wal::WriteFault;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdb-dur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The seed catalog every boot starts from: schemas are code, data is
/// recovered from the log.
fn seed_catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([("k", DataType::Int), ("s", DataType::Str)]);
    cat.register(TableBuilder::new("t", schema, 0).finish())
        .unwrap();
    let schema2 = Schema::from_pairs([("x", DataType::Int)]);
    cat.register(TableBuilder::new("u", schema2, 0).finish())
        .unwrap();
    Arc::new(cat)
}

fn no_auto() -> DurabilityConfig {
    DurabilityConfig {
        auto_checkpoint: false,
        ..DurabilityConfig::default()
    }
}

fn row(i: i64) -> Vec<Value> {
    vec![Value::Int(i), Value::str(format!("r{i}"))]
}

/// The deterministic workload: 60 commits on `t` (appends with a delete
/// every fifth op), epoch `e` is op `e - 1`.
#[derive(Clone, Copy)]
enum Op {
    App(i64),
    Del(i64),
}

fn ops() -> Vec<Op> {
    (0..60)
        .map(|i| {
            if i % 5 == 4 {
                Op::Del(i - 4)
            } else {
                Op::App(i)
            }
        })
        .collect()
}

/// Apply one op to the in-memory model (mirrors what the engine does).
fn apply_model(model: &mut Vec<Vec<Value>>, op: Op) {
    match op {
        Op::App(i) => model.push(row(i)),
        Op::Del(k) => model.retain(|r| r[0] != Value::Int(k)),
    }
}

fn run_op(engine: &Arc<Engine>, op: Op) {
    match op {
        Op::App(i) => {
            engine.append("t", &[row(i)]).unwrap();
        }
        Op::Del(k) => {
            let out = engine
                .delete("t", &Expr::name("k").eq(Expr::lit(k)))
                .unwrap();
            assert_eq!(out.rows_affected, 1, "workload deletes always match");
        }
    }
}

fn table_rows(catalog: &Catalog, name: &str) -> Vec<Vec<Value>> {
    catalog.get(name).unwrap().to_rows()
}

/// Seeded LCG (no external RNG needed, fully reproducible).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }
}

#[test]
fn kill_at_any_offset_recovers_a_consistent_prefix() {
    let src = temp_dir("kill-src");

    // Run the workload durably, recording the WAL length at every ack.
    // With FsyncPolicy::Always an acknowledged commit is on disk, so a
    // crash that preserves >= that length must recover it.
    let mut snapshots: Vec<Vec<Vec<Value>>> = vec![Vec::new()]; // snapshots[e] = state at epoch e
    let mut acked: Vec<u64> = Vec::new();
    {
        let engine = Engine::builder(seed_catalog())
            .data_dir(&src)
            .durability(no_auto())
            .try_build()
            .unwrap();
        let mut model = Vec::new();
        for op in ops() {
            run_op(&engine, op);
            apply_model(&mut model, op);
            snapshots.push(model.clone());
            acked.push(engine.durability_stats().wal_bytes);
        }
        assert_eq!(engine.catalog().epoch_of("t"), Some(60));
    }
    let seg = src.join("wal-000001.seg");
    let full = std::fs::metadata(&seg).unwrap().len();
    assert_eq!(full, *acked.last().unwrap(), "single segment, no rotation");

    // 50+ seeded kill offsets: spread over the file plus exact ack
    // boundaries and the (torn-header) region below 16 bytes.
    let mut kills: Vec<u64> = vec![0, 1, 15, 16, 17, acked[0], acked[0] + 1, full - 1, full];
    let mut rng = Lcg(0xD1CE_F00D);
    while kills.len() < 56 {
        kills.push(rng.next() % (full + 1));
    }

    for (i, &kill) in kills.iter().enumerate() {
        let dir = temp_dir(&format!("kill-{i}"));
        std::fs::copy(&seg, dir.join("wal-000001.seg")).unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal-000001.seg"))
            .unwrap();
        f.set_len(kill).unwrap();
        drop(f);
        if i % 2 == 1 {
            // Torn writes leave garbage, not clean truncation.
            let garbage: Vec<u8> = (0..25).map(|_| rng.next() as u8).collect();
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("wal-000001.seg"))
                .unwrap();
            f.write_all(&garbage).unwrap();
        }

        // Reboot. Must never panic or error; must land on a prefix.
        let engine = Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(no_auto())
            .try_build()
            .unwrap_or_else(|e| panic!("kill point {i} at {kill}: recovery failed: {e}"));
        let e = engine.catalog().epoch_of("t").unwrap();
        assert!(e <= 60, "kill {i}: epoch {e} beyond committed history");
        assert_eq!(
            table_rows(engine.catalog(), "t"),
            snapshots[e as usize],
            "kill {i} at {kill}: state is not the epoch-{e} prefix"
        );
        // Zero lost acknowledged writes: everything acked at or below the
        // surviving length is recovered.
        let must_have = acked.iter().filter(|&&o| o <= kill).count() as u64;
        assert!(
            e >= must_have,
            "kill {i} at {kill}: recovered epoch {e} < acknowledged {must_have}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&src);
}

#[test]
fn checkpoint_plus_wal_tail_restores_exact_state() {
    let dir = temp_dir("ckpt");
    {
        let engine = Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(no_auto())
            .try_build()
            .unwrap();
        for i in 0..10 {
            engine.append("t", &[row(i)]).unwrap();
        }
        assert!(engine.checkpoint().unwrap());
        let stats = engine.durability_stats();
        assert_eq!(stats.last_checkpoint_epoch, 10);
        // Everything before the checkpoint is pruned from the log.
        for i in 10..15 {
            engine.append("t", &[row(i)]).unwrap();
        }
        engine.append("u", &[vec![Value::Int(7)]]).unwrap();
    }
    let engine = Engine::builder(seed_catalog())
        .data_dir(&dir)
        .durability(no_auto())
        .try_build()
        .unwrap();
    assert_eq!(engine.catalog().epoch_of("t"), Some(15));
    assert_eq!(engine.catalog().epoch_of("u"), Some(1));
    let expect: Vec<Vec<Value>> = (0..15).map(row).collect();
    assert_eq!(table_rows(engine.catalog(), "t"), expect);
    assert_eq!(table_rows(engine.catalog(), "u"), vec![vec![Value::Int(7)]]);
    let stats = engine.durability_stats();
    assert_eq!(stats.recovery_replayed, 6, "the 6 post-checkpoint commits");
    assert_eq!(stats.last_checkpoint_epoch, 10);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- chunk-granular checkpoints: crash points, orphans, cost --------------

fn boot_with(dir: &Path, fault: Arc<dyn IoFault>) -> Arc<Engine> {
    Engine::builder(seed_catalog())
        .data_dir(dir)
        .durability(no_auto())
        .io_fault(fault)
        .try_build()
        .unwrap_or_else(|e| panic!("recovery of {} failed: {e}", dir.display()))
}

fn boot(dir: &Path) -> Arc<Engine> {
    boot_with(dir, Arc::new(NoFault))
}

/// Ten appends, checkpoint A, five more: the state checkpoint B starts
/// from. Whatever happens to B, a restart must find A plus this tail.
fn life_up_to_checkpoint_b(engine: &Engine) {
    for i in 0..10 {
        engine.append("t", &[row(i)]).unwrap();
    }
    assert!(engine.checkpoint().unwrap());
    for i in 10..15 {
        engine.append("t", &[row(i)]).unwrap();
    }
    engine.append("u", &[vec![Value::Int(7)]]).unwrap();
}

fn assert_life_recovered(engine: &Engine, what: &str) {
    assert_eq!(engine.catalog().epoch_of("t"), Some(15), "{what}");
    let expect: Vec<Vec<Value>> = (0..15).map(row).collect();
    assert_eq!(table_rows(engine.catalog(), "t"), expect, "{what}");
    assert_eq!(
        table_rows(engine.catalog(), "u"),
        vec![vec![Value::Int(7)]],
        "{what}"
    );
}

/// Chunk files present, and chunk files the manifest names.
fn chunk_files(dir: &Path) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let present = list_chunk_files(dir).unwrap().into_iter().collect();
    let manifest = read_checkpoint(dir).unwrap().expect("a manifest");
    let named = manifest
        .tables
        .iter()
        .flat_map(|t| t.chunks.iter().map(|c| c.id))
        .collect();
    (present, named)
}

fn copy_files<'a>(from: &Path, to: &Path, names: impl IntoIterator<Item = &'a String>) {
    for name in names {
        std::fs::copy(from.join(name), to.join(name)).unwrap();
    }
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn a_checkpoint_cut_at_any_write_or_sync_leaves_the_previous_one_plus_the_tail() {
    // Which writes and fsyncs belong to checkpoint B: count on a clean run.
    let probe = Arc::new(ScriptedFault::default());
    let (writes, syncs) = {
        let dir = temp_dir("cut-probe");
        let engine = boot_with(&dir, probe.clone());
        life_up_to_checkpoint_b(&engine);
        let from = (probe.writes_seen(), probe.syncs_seen());
        assert!(engine.checkpoint().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        (from.0..probe.writes_seen(), from.1..probe.syncs_seen())
    };
    // Two tables with new chunks (magic, shape, a frame per column, one
    // sync each), then the manifest's magic, body and sync.
    assert!(writes.end - writes.start >= 9, "{writes:?}");
    assert!(syncs.end - syncs.start >= 3, "{syncs:?}");

    // A write that lands nothing, one byte, or a longer prefix: between
    // them every chunk file is cut at its magic, inside a frame header
    // and inside a payload; the last two writes and the last sync are the
    // manifest's, after every chunk file is complete and synced.
    let faults = writes
        .flat_map(|n| {
            [
                ScriptedFault::disk_full_at(n),
                ScriptedFault::torn_at(n, 1),
                ScriptedFault::torn_at(n, 11),
            ]
        })
        .chain(syncs.map(ScriptedFault::fsync_fail_at));
    for (i, fault) in faults.enumerate() {
        let what = format!("cut {i} ({fault:?})");
        let dir = temp_dir(&format!("cut-{i}"));
        {
            let engine = boot_with(&dir, Arc::new(fault));
            life_up_to_checkpoint_b(&engine);
            assert!(engine.checkpoint().is_err(), "{what}: B must fail");
            assert!(!engine.is_read_only(), "{what}: no commit failed");
            // The crash: nothing of this engine runs again.
        }
        let engine = boot(&dir);
        assert_life_recovered(&engine, &what);
        let stats = engine.durability_stats();
        assert_eq!(stats.last_checkpoint_epoch, 10, "{what}: checkpoint A");
        assert_eq!(stats.recovery_replayed, 6, "{what}: A's whole tail");

        // The next checkpoint collects whatever the cut one left behind.
        assert!(engine.checkpoint().unwrap());
        let (present, named) = chunk_files(&dir);
        assert_eq!(present, named, "{what}: orphans after a full checkpoint");
        drop(engine);
        let engine = boot(&dir);
        assert_life_recovered(&engine, &what);
        assert_eq!(engine.durability_stats().recovery_replayed, 0, "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Run the life up to checkpoint B in a fresh directory, copy the
/// directory, then let B complete: `(after B, just before B)`.
fn around_checkpoint_b(name: &str) -> (PathBuf, PathBuf) {
    let dir = temp_dir(name);
    let before = temp_dir(&format!("{name}-before"));
    let engine = boot(&dir);
    life_up_to_checkpoint_b(&engine);
    copy_files(&dir, &before, &file_names(&dir));
    assert!(engine.checkpoint().unwrap());
    (dir, before)
}

#[test]
fn a_kill_at_any_byte_of_a_new_chunk_file_recovers_the_previous_checkpoint() {
    let (dir, before) = around_checkpoint_b("any-byte");
    let born: Vec<String> = file_names(&dir)
        .difference(&file_names(&before))
        .filter(|n| n.starts_with("chunk-"))
        .cloned()
        .collect();
    assert!(!born.is_empty(), "B wrote chunk files");
    for name in &born {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        for cut in 0..=bytes.len() {
            // The directory as B found it, plus this much of one file.
            let crash = temp_dir("any-byte-crash");
            copy_files(&before, &crash, &file_names(&before));
            std::fs::write(crash.join(name), &bytes[..cut]).unwrap();
            let what = format!("{name} cut at {cut} of {}", bytes.len());
            let engine = boot(&crash);
            assert_life_recovered(&engine, &what);
            assert_eq!(
                engine.durability_stats().last_checkpoint_epoch,
                10,
                "{what}"
            );
        }
    }
    for d in [dir, before, temp_dir("any-byte-crash")] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn a_crash_between_the_manifest_rename_and_the_sweep_recovers_the_new_checkpoint() {
    let (dir, before) = around_checkpoint_b("sweep");
    // Undo everything B did after its rename: the chunk files only A
    // named and the log segment B pruned are back beside B's manifest.
    let swept: Vec<String> = file_names(&before)
        .difference(&file_names(&dir))
        .cloned()
        .collect();
    assert!(
        swept.iter().any(|n| n.starts_with("chunk-"))
            && swept.iter().any(|n| n.starts_with("wal-")),
        "B replaced chunks and pruned the log: {swept:?}"
    );
    copy_files(&before, &dir, &swept);
    let (present, named) = chunk_files(&dir);
    assert!(present.is_superset(&named) && present != named);

    let engine = boot(&dir);
    assert_life_recovered(&engine, "rename done, sweep not");
    let stats = engine.durability_stats();
    assert_eq!(stats.last_checkpoint_epoch, 15, "B's manifest, not A's");
    assert_eq!(stats.recovery_replayed, 0, "B covers the whole log");
    // Orphans wait for the next checkpoint, which also takes new rows.
    engine.append("t", &[row(15)]).unwrap();
    assert!(engine.checkpoint().unwrap());
    let (present, named) = chunk_files(&dir);
    assert_eq!(present, named, "orphans collected");
    drop(engine);
    let engine = boot(&dir);
    let expect: Vec<Vec<Value>> = (0..16).map(row).collect();
    assert_eq!(table_rows(engine.catalog(), "t"), expect);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&before);
}

#[test]
fn a_damaged_or_superseded_checkpoint_fails_recovery_with_a_named_error() {
    let dir = temp_dir("named-error");
    {
        let engine = boot(&dir);
        life_up_to_checkpoint_b(&engine);
        assert!(engine.checkpoint().unwrap());
    }
    let boot_error = || {
        Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(no_auto())
            .try_build()
            .err()
            .expect("recovery must refuse this directory")
            .to_string()
    };
    let victim = dir.join(chunk_file_name(
        *chunk_files(&dir).1.iter().next().expect("a chunk"),
    ));
    let name = victim.file_name().unwrap().to_str().unwrap().to_string();
    let good = std::fs::read(&victim).unwrap();

    // A manifest naming a CRC-damaged or a missing chunk file.
    let mut bad = good.clone();
    *bad.last_mut().unwrap() ^= 0x01;
    std::fs::write(&victim, &bad).unwrap();
    let err = boot_error();
    assert!(err.contains("corruption") && err.contains(&name), "{err}");
    std::fs::remove_file(&victim).unwrap();
    let err = boot_error();
    assert!(err.contains(&name) && err.contains("missing"), "{err}");
    std::fs::write(&victim, &good).unwrap();
    drop(boot(&dir));

    // A directory left by a build that wrote row-image checkpoints.
    let manifest = dir.join("checkpoint.bin");
    let mut old = std::fs::read(&manifest).unwrap();
    old[..8].copy_from_slice(b"RDBCKPT1");
    std::fs::write(&manifest, &old).unwrap();
    let err = boot_error();
    assert!(
        err.contains("corruption") && err.contains("RDBCKPT1"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Counts the bytes written through it.
#[derive(Default)]
struct Meter(AtomicU64);

impl IoFault for Meter {
    fn on_write(&self, len: usize) -> WriteFault {
        self.0.fetch_add(len as u64, Ordering::Relaxed);
        WriteFault::Allow
    }
}

#[test]
fn a_checkpoint_after_k_small_appends_writes_bytes_proportional_to_k() {
    // A table past the seal size, so its bulk is one sealed chunk.
    const BULK: i64 = 70_000;
    let bulky = || {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([("k", DataType::Int), ("s", DataType::Str)]);
        let mut t = TableBuilder::new("t", schema, BULK as usize);
        for i in 0..BULK {
            t.push_row(row(i));
        }
        cat.register(t.finish()).unwrap();
        Arc::new(cat)
    };
    let dir = temp_dir("delta-bytes");
    let meter = Arc::new(Meter::default());
    let engine = Engine::builder(bulky())
        .data_dir(&dir)
        .durability(no_auto())
        .io_fault(meter.clone())
        .try_build()
        .unwrap();
    let checkpoint_bytes = || {
        let before = meter.0.load(Ordering::Relaxed);
        assert!(engine.checkpoint().unwrap());
        meter.0.load(Ordering::Relaxed) - before
    };
    let whole = checkpoint_bytes();
    assert!(
        whole > 1_000_000,
        "the first checkpoint writes the table: {whole}"
    );

    // `row(i)` is under 20 bytes on disk. The unsealed tail may be
    // rewritten whole (tail merges), so a checkpoint after k appends costs
    // at most the rows appended since the bulk load, plus a manifest of a
    // few hundred bytes.
    let mut next = BULK;
    for (k, bound) in [(10, 1_000), (100, 3_500)] {
        for _ in 0..k {
            engine.append("t", &[row(next)]).unwrap();
            next += 1;
        }
        let cost = checkpoint_bytes();
        assert!(cost < bound, "{k} appends cost {cost} bytes");
        assert!(cost * 300 < whole, "{k} appends cost {cost} of {whole}");
    }
    let idle = checkpoint_bytes();
    assert!(idle < 500, "nothing new: the manifest alone, {idle} bytes");

    drop(engine);
    let engine = Engine::builder(bulky())
        .data_dir(&dir)
        .durability(no_auto())
        .try_build()
        .unwrap();
    assert_eq!(engine.durability_stats().recovery_replayed, 0);
    let expect: Vec<Vec<Value>> = (0..next).map(row).collect();
    assert_eq!(table_rows(engine.catalog(), "t"), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_recovery_is_idempotent() {
    let dir = temp_dir("idem");
    {
        let engine = Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(no_auto())
            .try_build()
            .unwrap();
        for i in 0..5 {
            engine.append("t", &[row(i)]).unwrap();
        }
    }
    for _ in 0..3 {
        let engine = Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(no_auto())
            .try_build()
            .unwrap();
        assert_eq!(engine.catalog().epoch_of("t"), Some(5));
        assert_eq!(table_rows(engine.catalog(), "t").len(), 5);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One fault scenario: run appends until the injected fault fires, then
/// verify read-only degradation and that reboot recovers a consistent
/// prefix containing every acknowledged write.
fn fault_scenario(name: &str, fault: ScriptedFault) {
    let dir = temp_dir(name);
    let mut acked_epochs = 0u64;
    {
        let engine = Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(no_auto())
            .io_fault(Arc::new(fault))
            .try_build()
            .unwrap();
        let mut failed = false;
        for i in 0..10 {
            match engine.append("t", &[row(i)]) {
                Ok(out) => {
                    assert!(!failed, "writes must not succeed after poisoning");
                    acked_epochs = out.epoch;
                }
                Err(e) => {
                    assert!(
                        matches!(e.kind, PlanErrorKind::ReadOnly),
                        "{name}: wrong error kind: {e}"
                    );
                    failed = true;
                }
            }
        }
        assert!(failed, "{name}: the injected fault never fired");
        assert!(engine.is_read_only());
        assert!(engine.durability_stats().read_only);

        // Reads keep serving, at exactly the last committed epoch — no
        // stale data, no phantom rows from the failed commit.
        let q = scan("t", &["k"]).aggregate(vec![], vec![(AggFunc::CountStar, "n")]);
        let out = engine.session().query(&q).unwrap().into_outcome();
        assert_eq!(
            out.batch.column(0).as_ints(),
            &[acked_epochs as i64],
            "{name}: visible rows must match acknowledged appends"
        );

        // Writes stay rejected with the structured read-only error.
        let err = engine.append("t", &[row(99)]).unwrap_err();
        assert!(matches!(err.kind, PlanErrorKind::ReadOnly), "{name}: {err}");
        let err = engine
            .delete("t", &Expr::name("k").eq(Expr::lit(0)))
            .unwrap_err();
        assert!(matches!(err.kind, PlanErrorKind::ReadOnly), "{name}: {err}");
    }

    // Reboot without the fault: a consistent prefix, nothing acked lost.
    let engine = Engine::builder(seed_catalog())
        .data_dir(&dir)
        .durability(no_auto())
        .try_build()
        .unwrap();
    let e = engine.catalog().epoch_of("t").unwrap();
    // A logged-but-unacknowledged commit (e.g. the write landed, the
    // fsync failed) may legitimately reappear: acked <= recovered.
    assert!(
        e >= acked_epochs && e <= acked_epochs + 1,
        "{name}: recovered epoch {e}, acked {acked_epochs}"
    );
    let expect: Vec<Vec<Value>> = (0..e as i64).map(row).collect();
    assert_eq!(table_rows(engine.catalog(), "t"), expect, "{name}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_poisons_and_recovers() {
    fault_scenario("torn", ScriptedFault::torn_at(4, 7));
}

#[test]
fn short_write_of_one_byte_poisons_and_recovers() {
    fault_scenario("short", ScriptedFault::torn_at(2, 1));
}

#[test]
fn disk_full_poisons_and_recovers() {
    fault_scenario("disk-full", ScriptedFault::disk_full_at(5));
}

#[test]
fn fsync_failure_poisons_and_recovers() {
    fault_scenario("fsync-fail", ScriptedFault::fsync_fail_at(6));
}

#[test]
fn recovery_warms_the_recycler_from_persisted_lineage() {
    let dir = temp_dir("warm");
    let mut cfg = RecyclerConfig::deterministic(1 << 20);
    cfg.spec_min_progress = 0.0;
    let q = scan("t", &["k", "s"])
        .select(Expr::name("k").lt(Expr::lit(40)))
        .aggregate(vec![], vec![(AggFunc::Sum(Expr::name("k")), "sum_k")]);
    let expected;
    {
        let engine = Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(no_auto())
            .recycler(cfg.clone())
            .try_build()
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..50).map(row).collect();
        engine.append("t", &rows).unwrap();
        let first = engine.session().query(&q).unwrap().into_outcome();
        assert!(!first.reused());
        let second = engine.session().query(&q).unwrap().into_outcome();
        assert!(second.reused(), "steady state: the query is cached");
        expected = second.batch.to_rows();
        assert!(engine.checkpoint().unwrap(), "lineage persisted");
    }

    let engine = Engine::builder(seed_catalog())
        .data_dir(&dir)
        .durability(no_auto())
        .recycler(cfg)
        .try_build()
        .unwrap();
    let stats = engine.durability_stats();
    assert!(
        stats.recovery_warm_hits >= 1,
        "lineage should warm at least the cached aggregate (got {})",
        stats.recovery_warm_hits
    );
    // The very first post-restart execution hits the warmed cache — the
    // whole point of persisting lineage.
    let out = engine.session().query(&q).unwrap().into_outcome();
    assert!(out.reused(), "first post-restart execution must be warm");
    assert_eq!(out.batch.to_rows(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark ledger's `dash_writes` reads `engine.recover_warm_hits`
/// = 0 after its restart, and that is what its sequence must give. Every
/// round of that workload ends with a `DELETE` on the one table all pooled
/// statements read, and the explicit checkpoint follows the last round. A
/// delete cannot be repaired into a select-class entry (deleted rows have
/// no position in the cached result) nor into an aggregate that is not
/// count-only, so it evicts every cached *result*; what survives is
/// operator state over tables the delete did not touch (there: the hash
/// build over `part`), which lineage skips by design. The checkpoint
/// therefore carries no lineage, and recovery has nothing to warm. The
/// same statements checkpointed after reads have run again warm the cache
/// as intended — through eight tail writes into the same tables.
#[test]
fn a_checkpoint_right_after_a_delete_carries_no_lineage_and_warms_nothing() {
    let mut cfg = RecyclerConfig::deterministic(1 << 20);
    cfg.spec_min_progress = 0.0;
    let boot = |dir: &Path| {
        Engine::builder(seed_catalog())
            .data_dir(dir)
            .durability(no_auto())
            .recycler(cfg.clone())
            .try_build()
            .unwrap()
    };
    // The pool: an aggregate and a selection over `t`, prepared once with
    // parameters, and a join whose build side `u` no write below touches.
    let hi = || Params::new().set("hi", 40i64);
    let pool = [
        ("SELECT sum(k) AS sum_k FROM t WHERE k < $hi", hi()),
        (
            "SELECT k, s FROM t WHERE k >= $lo AND k < $hi",
            hi().set("lo", 10i64),
        ),
        (
            "SELECT sum(k) AS joined FROM t JOIN u ON k = x WHERE k < $hi",
            hi(),
        ),
    ];
    let read_pool = |engine: &Arc<Engine>| -> Vec<(bool, Vec<Vec<Value>>)> {
        let session = engine.session();
        pool.iter()
            .map(|(sql, params)| {
                let out = session
                    .prepare_sql(sql)
                    .unwrap()
                    .execute(params)
                    .unwrap()
                    .into_outcome();
                (out.reused(), out.batch.to_rows())
            })
            .collect()
    };
    let tail_writes = |engine: &Arc<Engine>, from: i64| {
        for i in from..from + 8 {
            let (table, r) = if i % 4 == 3 {
                ("u", vec![Value::Int(i)])
            } else {
                ("t", row(i))
            };
            engine.append(table, &[r]).unwrap();
        }
    };

    // The ledger's order: reads, writes, a delete last, then checkpoint.
    let dir = temp_dir("warm-after-delete");
    {
        let engine = boot(&dir);
        engine
            .append("t", &(0..50).map(row).collect::<Vec<_>>())
            .unwrap();
        engine
            .append("u", &[vec![Value::Int(12)], vec![Value::Int(30)]])
            .unwrap();
        read_pool(&engine);
        assert!(read_pool(&engine).iter().all(|(reused, _)| *reused));
        engine.append("t", &[row(50)]).unwrap();
        let repaired = read_pool(&engine);
        assert!(repaired.iter().any(|(reused, _)| *reused), "appends repair");
        let out = engine
            .delete("t", &Expr::name("k").eq(Expr::lit(20)))
            .unwrap();
        assert_eq!((out.rows_affected, out.repair.repaired), (1, 0));
        let recycler = engine.recycler().unwrap();
        assert!(
            recycler.lineage_top(16).is_empty(),
            "the delete evicted every cached result over t"
        );
        assert!(engine.checkpoint().unwrap());
        assert!(read_checkpoint(&dir).unwrap().unwrap().lineage.is_empty());
        tail_writes(&engine, 100);
    }
    let engine = boot(&dir);
    let stats = engine.durability_stats();
    assert_eq!(stats.recovery_replayed, 8);
    assert_eq!(stats.recovery_warm_hits, 0, "no lineage, nothing to warm");
    let cold = read_pool(&engine);
    assert!(cold.iter().all(|(reused, _)| !*reused));

    // Checkpointed once the reads have run again, the same pool comes
    // back warm, at the state the tail writes left.
    read_pool(&engine);
    assert!(engine.checkpoint().unwrap());
    let persisted = read_checkpoint(&dir).unwrap().unwrap().lineage.len();
    assert!(persisted >= pool.len(), "{persisted} lineage entries");
    tail_writes(&engine, 200);
    let expected: Vec<Vec<Vec<Value>>> = {
        let oracle = Engine::builder(Arc::new(engine.catalog().snapshot().to_catalog())).build();
        read_pool(&oracle)
            .into_iter()
            .map(|(_, rows)| rows)
            .collect()
    };
    drop(engine);
    let engine = boot(&dir);
    let stats = engine.durability_stats();
    assert_eq!(stats.recovery_replayed, 8);
    assert!(
        stats.recovery_warm_hits >= pool.len() as u64,
        "every persisted result warms (got {})",
        stats.recovery_warm_hits
    );
    for ((reused, rows), want) in read_pool(&engine).into_iter().zip(expected) {
        assert!(reused, "first execution after the restart is warm");
        assert_eq!(rows, want, "and reflects the tail writes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replace_table_invalidates_cached_results() {
    // Satellite: wholesale replacement must run the same invalidation
    // walk as append/delete — a cached result over the old contents can
    // never be served afterwards.
    let dir = temp_dir("replace");
    let mut cfg = RecyclerConfig::deterministic(1 << 20);
    cfg.spec_min_progress = 0.0;
    let engine = Engine::builder(seed_catalog())
        .data_dir(&dir)
        .durability(no_auto())
        .recycler(cfg)
        .try_build()
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..20).map(row).collect();
    engine.append("t", &rows).unwrap();
    let q = scan("t", &["k", "s"]).aggregate(vec![], vec![(AggFunc::CountStar, "n")]);
    engine.session().query(&q).unwrap().into_outcome();
    let cached = engine.session().query(&q).unwrap().into_outcome();
    assert!(cached.reused());
    assert_eq!(cached.batch.column(0).as_ints(), &[20]);

    // Replace t wholesale with 3 rows.
    let schema = Schema::from_pairs([("k", DataType::Int), ("s", DataType::Str)]);
    let mut b = TableBuilder::new("t", schema, 3);
    for i in 0..3 {
        b.push_row(row(i));
    }
    let out = engine.replace_table(b.finish()).unwrap();
    assert_eq!(out.kind, WriteKind::Replace);
    assert_eq!(out.rows_affected, 3);
    assert!(
        !out.repair.events.is_empty(),
        "replacement must evict dependent cache entries"
    );

    let fresh = engine.session().query(&q).unwrap().into_outcome();
    assert_eq!(
        fresh.batch.column(0).as_ints(),
        &[3],
        "stale cached count served after replace"
    );

    // And the replacement itself is durable.
    drop(engine);
    let engine = Engine::builder(seed_catalog())
        .data_dir(&dir)
        .durability(no_auto())
        .try_build()
        .unwrap();
    assert_eq!(table_rows(engine.catalog(), "t").len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decode every WAL record (all segments, in order) as `(table, epoch)`.
fn logged_epochs(dir: &Path) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (_, path) in list_segments(dir).unwrap() {
        let scan = scan_segment(&path).unwrap();
        assert!(scan.defect.is_none(), "clean shutdown leaves no garbage");
        for rec in scan.records {
            out.push((rec.table, rec.epoch));
        }
    }
    out
}

#[test]
fn concurrent_writers_racing_a_checkpoint_keep_wal_order_equal_to_epoch_order() {
    // Satellite: the epoch CAS commit loop under contention, with a
    // checkpoint (and its segment rotation + pruning) racing the
    // writers. The WAL must contain exactly the committed epochs of
    // each table, strictly ordered, with no gaps past the checkpoint.
    let dir = temp_dir("race");
    let final_t;
    let final_u;
    {
        let engine = Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(DurabilityConfig {
                fsync: FsyncPolicy::EveryN(8),
                auto_checkpoint: false,
                ..DurabilityConfig::default()
            })
            .try_build()
            .unwrap();
        crossbeam::thread::scope(|s| {
            for w in 0..4 {
                let engine = &engine;
                s.spawn(move |_| {
                    for i in 0..40 {
                        let v = (w * 100 + i) as i64;
                        if w % 2 == 0 {
                            engine.append("t", &[row(v)]).unwrap();
                        } else {
                            engine.append("u", &[vec![Value::Int(v)]]).unwrap();
                        }
                    }
                });
            }
            let engine = &engine;
            s.spawn(move |_| {
                for _ in 0..5 {
                    engine.checkpoint().unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        })
        .unwrap();
        final_t = engine.catalog().epoch_of("t").unwrap();
        final_u = engine.catalog().epoch_of("u").unwrap();
        assert_eq!(final_t, 80, "2 writers x 40 appends");
        assert_eq!(final_u, 80);
    }

    // WAL order == epoch order, per table, strictly increasing.
    let mut last_t = 0u64;
    let mut last_u = 0u64;
    let mut seen_t = HashSet::new();
    let mut seen_u = HashSet::new();
    for (table, epoch) in logged_epochs(&dir) {
        match table.as_str() {
            "t" => {
                assert!(epoch > last_t, "t: epoch {epoch} after {last_t}");
                last_t = epoch;
                seen_t.insert(epoch);
            }
            "u" => {
                assert!(epoch > last_u, "u: epoch {epoch} after {last_u}");
                last_u = epoch;
                seen_u.insert(epoch);
            }
            other => panic!("unexpected table {other}"),
        }
    }
    // Surviving segments + checkpoint must cover history up to the final
    // epochs: prove it by rebooting and comparing exact contents.
    let engine = Engine::builder(seed_catalog())
        .data_dir(&dir)
        .durability(no_auto())
        .try_build()
        .unwrap();
    assert_eq!(engine.catalog().epoch_of("t"), Some(final_t));
    assert_eq!(engine.catalog().epoch_of("u"), Some(final_u));
    let mut t_vals: Vec<i64> = table_rows(engine.catalog(), "t")
        .iter()
        .map(|r| match r[0] {
            Value::Int(v) => v,
            _ => unreachable!(),
        })
        .collect();
    t_vals.sort();
    let mut expect_t: Vec<i64> = (0..4)
        .filter(|w| w % 2 == 0)
        .flat_map(|w| (0..40).map(move |i| (w * 100 + i) as i64))
        .collect();
    expect_t.sort();
    assert_eq!(t_vals, expect_t, "every committed append recovered once");
    assert_eq!(table_rows(engine.catalog(), "u").len(), 80);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_checkpointer_truncates_the_log() {
    let dir = temp_dir("auto-ckpt");
    {
        let engine = Engine::builder(seed_catalog())
            .data_dir(&dir)
            .durability(DurabilityConfig {
                fsync: FsyncPolicy::Off,
                checkpoint_threshold_bytes: 4 << 10, // tiny: trigger fast
                checkpoint_poll: std::time::Duration::from_millis(10),
                ..DurabilityConfig::default()
            })
            .try_build()
            .unwrap();
        for i in 0..200 {
            engine.append("t", &[row(i)]).unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.durability_stats().last_checkpoint_epoch == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "background checkpointer never fired"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    assert!(
        dir.join("checkpoint.bin").exists(),
        "checkpoint file written by the background thread"
    );
    let engine = Engine::builder(seed_catalog())
        .data_dir(&dir)
        .durability(no_auto())
        .try_build()
        .unwrap();
    assert_eq!(engine.catalog().epoch_of("t"), Some(200));
    assert_eq!(table_rows(engine.catalog(), "t").len(), 200);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_engine_is_unchanged() {
    // No data_dir: no WAL, no read-only mode, zeroed durability stats.
    let engine = Engine::builder(seed_catalog()).build();
    engine.append("t", &[row(1)]).unwrap();
    assert!(!engine.is_read_only());
    let stats = engine.durability_stats();
    assert_eq!(stats.wal_bytes, 0);
    assert!(!stats.read_only);
    assert!(!engine.checkpoint().unwrap(), "no-op without a data dir");
}
