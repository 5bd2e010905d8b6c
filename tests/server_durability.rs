//! Durability over the wire: a pgwire server backed by a data directory,
//! including the read-only degradation contract under injected WAL
//! failures — writes fail with SQLSTATE 25006 while reads keep serving
//! exactly the acknowledged data.

#[path = "support/pg_client.rs"]
mod pg_client;

use std::path::PathBuf;
use std::sync::Arc;

use pg_client::PgClient;
use recycler_db::engine::{DurabilityConfig, ScriptedFault};
use recycler_db::server::ServerBuilder;
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{DataType, Schema, Value};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdb-srv-dur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn catalog(rows: i64) -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]);
    let mut t = TableBuilder::new("t", schema, rows as usize);
    for i in 0..rows {
        t.push_row(vec![Value::Int(i), Value::Float(i as f64)]);
    }
    cat.register(t.finish()).unwrap();
    Arc::new(cat)
}

fn no_auto() -> DurabilityConfig {
    DurabilityConfig {
        auto_checkpoint: false,
        ..DurabilityConfig::default()
    }
}

#[test]
fn writes_survive_a_server_restart() {
    let dir = temp_dir("restart");
    {
        let server = ServerBuilder::new(catalog(10))
            .data_dir(&dir)
            .durability(no_auto())
            .serve()
            .unwrap();
        let mut client = PgClient::connect(server.local_addr()).unwrap();
        let cycle = client
            .query("INSERT INTO t VALUES (100, 1.0), (101, 2.0)")
            .unwrap();
        assert_eq!(cycle.command_tags(), vec!["INSERT 0 2".to_string()]);
        let cycle = client.query("DELETE FROM t WHERE k = 0").unwrap();
        assert_eq!(cycle.command_tags(), vec!["DELETE 1".to_string()]);
        client.terminate();
    }
    // Same seed catalog; the log replays the two commits on top.
    let server = ServerBuilder::new(catalog(10))
        .data_dir(&dir)
        .durability(no_auto())
        .serve()
        .unwrap();
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    let cycle = client
        .query("SELECT count(*) FROM t WHERE k >= 100")
        .unwrap();
    assert_eq!(cycle.rows(), vec![vec![Some("2".to_string())]]);
    let cycle = client.query("SELECT count(*) FROM t WHERE k = 0").unwrap();
    assert_eq!(cycle.rows(), vec![vec![Some("0".to_string())]]);
    let stats = server.stats();
    assert!(stats.wal_bytes > 0, "live WAL behind the server");
    assert!(!stats.read_only);
    client.terminate();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_failure_degrades_to_read_only_while_reads_keep_serving() {
    let dir = temp_dir("read-only");
    let server = ServerBuilder::new(catalog(50))
        .data_dir(&dir)
        .durability(no_auto())
        .io_fault(Arc::new(ScriptedFault::disk_full_at(2)))
        .serve()
        .unwrap();
    let mut client = PgClient::connect(server.local_addr()).unwrap();

    // Two commits fit before the injected disk-full.
    let a = client.query("INSERT INTO t VALUES (200, 1.0)").unwrap();
    assert_eq!(a.command_tags(), vec!["INSERT 0 1".to_string()]);
    let b = client.query("INSERT INTO t VALUES (201, 1.0)").unwrap();
    assert_eq!(b.command_tags(), vec!["INSERT 0 1".to_string()]);

    // The third write hits the fault: structured SQLSTATE, not a hangup.
    let c = client.query("INSERT INTO t VALUES (202, 1.0)").unwrap();
    let err = c.first_error();
    assert_eq!(err.sqlstate(), "25006", "read_only_sql_transaction");
    assert!(
        err.error_message().contains("read-only"),
        "{}",
        err.error_message()
    );

    // The same connection keeps serving reads — and sees exactly the two
    // acknowledged inserts, not the failed third (no stale, no phantom).
    let cycle = client
        .query("SELECT count(*) FROM t WHERE k >= 200")
        .unwrap();
    assert_eq!(cycle.rows(), vec![vec![Some("2".to_string())]]);

    // A *fresh* connection works too, and later writes still say 25006.
    let mut second = PgClient::connect(server.local_addr()).unwrap();
    let cycle = second.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(cycle.rows(), vec![vec![Some("52".to_string())]]);
    let cycle = second.query("DELETE FROM t WHERE k = 1").unwrap();
    assert_eq!(cycle.first_error().sqlstate(), "25006");

    // rdb_stats() reports the degradation.
    let stats = client.query("SELECT * FROM rdb_stats()").unwrap();
    let read_only = stats
        .rows()
        .into_iter()
        .find(|r| r[0].as_deref() == Some("read_only"))
        .expect("read_only metric");
    assert_eq!(read_only[1].as_deref(), Some("1"));
    assert!(server.stats().read_only);

    client.terminate();
    second.terminate();
    drop(server);

    // Reboot without the fault: both acknowledged inserts survived.
    let server = ServerBuilder::new(catalog(50))
        .data_dir(&dir)
        .durability(no_auto())
        .serve()
        .unwrap();
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    let cycle = client
        .query("SELECT count(*) FROM t WHERE k >= 200")
        .unwrap();
    assert_eq!(cycle.rows(), vec![vec![Some("2".to_string())]]);
    client.terminate();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rdb_stats_exposes_durability_metrics() {
    let dir = temp_dir("stats");
    let server = ServerBuilder::new(catalog(10))
        .data_dir(&dir)
        .durability(no_auto())
        .serve()
        .unwrap();
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    client.query("INSERT INTO t VALUES (900, 9.0)").unwrap();
    let cycle = client.query("SELECT * FROM rdb_stats()").unwrap();
    let metric = |name: &str| -> f64 {
        cycle
            .rows()
            .into_iter()
            .find(|r| r[0].as_deref() == Some(name))
            .unwrap_or_else(|| panic!("metric {name} missing"))[1]
            .as_deref()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(metric("wal_bytes") > 0.0);
    assert_eq!(metric("last_checkpoint_epoch"), 0.0, "no checkpoint yet");
    assert_eq!(metric("recovery_warm_hits"), 0.0, "cold start");
    assert_eq!(metric("read_only"), 0.0);
    server.engine().checkpoint().unwrap();
    let cycle = client.query("SELECT * FROM rdb_stats()").unwrap();
    let ckpt = cycle
        .rows()
        .into_iter()
        .find(|r| r[0].as_deref() == Some("last_checkpoint_epoch"))
        .unwrap()[1]
        .as_deref()
        .unwrap()
        .parse::<f64>()
        .unwrap();
    assert_eq!(ckpt, 1.0, "checkpoint covers the insert's epoch");
    client.terminate();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropping_the_server_frees_its_engine_and_stops_its_checkpointer() {
    let dir = temp_dir("drop");
    // Auto-checkpointing on, with a trigger low enough that the
    // checkpointer is at work while the client writes.
    let busy = || DurabilityConfig {
        checkpoint_threshold_bytes: 64,
        checkpoint_poll: std::time::Duration::from_millis(1),
        ..DurabilityConfig::default()
    };
    let server = ServerBuilder::new(catalog(10))
        .data_dir(&dir)
        .durability(busy())
        .serve()
        .unwrap();
    let engine = Arc::downgrade(server.engine());
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    for k in 100..140 {
        let cycle = client
            .query(&format!("INSERT INTO t VALUES ({k}, 1.0)"))
            .unwrap();
        assert_eq!(cycle.command_tags(), vec!["INSERT 0 1".to_string()]);
    }
    // `rdb_stats()` lives in the engine's function registry and reaches
    // back to the engine: that must not be a cycle.
    assert!(client.query("SELECT * FROM rdb_stats()").is_ok());
    client.terminate();
    drop(server);
    assert!(
        engine.upgrade().is_none(),
        "the engine must not outlive its server"
    );

    // Nothing of the old engine writes to the directory any more, so a
    // successor can open it straight away — no explicit checkpoint, no
    // grace period — and finds every acknowledged insert.
    let server = ServerBuilder::new(catalog(10))
        .data_dir(&dir)
        .durability(busy())
        .serve()
        .unwrap();
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    let cycle = client
        .query("SELECT count(*) FROM t WHERE k >= 100")
        .unwrap();
    assert_eq!(cycle.rows(), vec![vec![Some("40".to_string())]]);
    client.terminate();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
