//! End-to-end wire-protocol tests: a real [`rdb_server::Server`] on an
//! ephemeral port, talked to by the in-repo pgwire client
//! (`tests/support/pg_client.rs`) over real sockets.

#[path = "support/pg_client.rs"]
mod pg_client;

use std::sync::Arc;
use std::time::Duration;

use pg_client::PgClient;
use recycler_db::recycler::RecyclerConfig;
use recycler_db::server::{Server, ServerBuilder};
use recycler_db::storage::{Catalog, TableBuilder};
use recycler_db::vector::{DataType, Schema, Value};

fn catalog(rows: i64) -> Arc<Catalog> {
    let mut cat = Catalog::new();
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("s", DataType::Str),
    ]);
    let mut t = TableBuilder::new("t", schema, rows as usize);
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(i % 100),
            Value::Float(i as f64 * 0.5),
            Value::str(["red", "green", "blue"][(i % 3) as usize]),
        ]);
    }
    cat.register(t.finish()).unwrap();
    Arc::new(cat)
}

fn recycling_server(rows: i64) -> Server {
    let mut config = RecyclerConfig::deterministic(64 << 20);
    config.spec_min_progress = 0.0;
    ServerBuilder::new(catalog(rows))
        .recycler(config)
        .serve()
        .expect("bind server")
}

#[test]
fn startup_then_simple_query_roundtrip() {
    let server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    assert!(client.pid > 0, "BackendKeyData delivered");

    let cycle = client.query("SELECT k, v FROM t WHERE k < 3").unwrap();
    let desc = cycle.row_description().expect("RowDescription");
    assert_eq!(desc.column_names(), vec!["k", "v"]);
    let rows = cycle.rows();
    assert_eq!(rows.len(), 30, "3 keys x 10 dups in 1000 rows");
    assert!(rows
        .iter()
        .all(|r| r[0].as_deref().unwrap().parse::<i64>().unwrap() < 3));
    assert_eq!(cycle.command_tags(), vec![format!("SELECT {}", rows.len())]);
    client.terminate();
}

#[test]
fn empty_result_still_sends_row_description() {
    let server = recycling_server(100);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    let cycle = client.query("SELECT k, s FROM t WHERE k < -1").unwrap();
    let desc = cycle
        .row_description()
        .expect("zero-row results must still describe their columns");
    assert_eq!(desc.column_names(), vec!["k", "s"]);
    assert!(cycle.rows().is_empty());
    assert_eq!(cycle.command_tags(), vec!["SELECT 0".to_string()]);
}

#[test]
fn write_outcomes_map_to_postgres_tags() {
    let server = recycling_server(100);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    let cycle = client
        .query("INSERT INTO t VALUES (500, 1.5, 'red'), (501, 2.5, 'blue')")
        .unwrap();
    assert_eq!(cycle.command_tags(), vec!["INSERT 0 2".to_string()]);

    let cycle = client.query("DELETE FROM t WHERE k = 500").unwrap();
    assert_eq!(cycle.command_tags(), vec!["DELETE 1".to_string()]);

    // Multiple statements in one Query message, each tagged.
    let cycle = client
        .query("INSERT INTO t VALUES (600, 0.0, 'red'); DELETE FROM t WHERE k = 600; SELECT k FROM t WHERE k = 600")
        .unwrap();
    assert_eq!(
        cycle.command_tags(),
        vec![
            "INSERT 0 1".to_string(),
            "DELETE 1".to_string(),
            "SELECT 0".to_string()
        ]
    );
}

#[test]
fn errors_carry_sqlstate_and_span_position() {
    let server = recycling_server(100);
    let mut client = PgClient::connect(server.local_addr()).unwrap();

    let cycle = client.query("SELECT nope FROM t").unwrap();
    let err = cycle.first_error();
    assert_eq!(err.sqlstate(), "42703", "unknown column");
    let fields = err.error_fields();
    let position = fields
        .iter()
        .find(|(c, _)| *c == b'P')
        .map(|(_, v)| v.clone())
        .expect("position field");
    assert_eq!(position, "8", "1-based char offset of 'nope'");
    let detail = fields
        .iter()
        .find(|(c, _)| *c == b'D')
        .map(|(_, v)| v.clone())
        .expect("detail field");
    assert!(detail.contains('^'), "caret rendering in detail: {detail}");

    let cycle = client.query("SELECT k FROM missing").unwrap();
    assert_eq!(cycle.first_error().sqlstate(), "42P01", "unknown table");

    let cycle = client.query("SELEC k FROM t").unwrap();
    assert_eq!(cycle.first_error().sqlstate(), "42601", "syntax error");

    // An error aborts the rest of the query string...
    let cycle = client
        .query("SELECT nope FROM t; INSERT INTO t VALUES (900, 0.0, 'red')")
        .unwrap();
    assert_eq!(cycle.errors().len(), 1);
    assert!(cycle.command_tags().is_empty(), "second statement skipped");
    // ...but the connection survives and the skipped insert never ran.
    let cycle = client.query("SELECT k FROM t WHERE k = 900").unwrap();
    assert_eq!(cycle.command_tags(), vec!["SELECT 0".to_string()]);
}

#[test]
fn extended_protocol_binds_positional_params() {
    let server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();

    let cycle = client
        .extended("SELECT k, v FROM t WHERE k < $1", &[Some("2")])
        .unwrap();
    assert!(
        cycle.row_description().is_some(),
        "Describe(portal) announces the row shape"
    );
    assert_eq!(cycle.rows().len(), 20);
    assert_eq!(cycle.command_tags(), vec!["SELECT 20".to_string()]);

    // Same template, different binding — fresh result.
    let cycle = client
        .extended("SELECT k, v FROM t WHERE k < $1", &[Some("5")])
        .unwrap();
    assert_eq!(cycle.rows().len(), 50);

    // DML through the extended path, with a NULL parameter elsewhere.
    let cycle = client
        .extended(
            "INSERT INTO t VALUES ($1, $2, $3)",
            &[Some("700"), Some("7.5"), None],
        )
        .unwrap();
    assert_eq!(cycle.command_tags(), vec!["INSERT 0 1".to_string()]);
    let cycle = client
        .extended("DELETE FROM t WHERE k = $1", &[Some("700")])
        .unwrap();
    assert_eq!(cycle.command_tags(), vec!["DELETE 1".to_string()]);

    // Parameter-count mismatch: error, then the connection recovers.
    let cycle = client
        .extended("SELECT k FROM t WHERE k < $1", &[])
        .unwrap();
    assert_eq!(cycle.first_error().sqlstate(), "08P01");
    let cycle = client
        .extended("SELECT k FROM t WHERE k < $1", &[Some("1")])
        .unwrap();
    assert_eq!(cycle.rows().len(), 10);
    client.terminate();
}

#[test]
fn failed_execution_reports_xx000_not_a_row_count() {
    // Parse with no parameter types, then bind text that can only be a
    // string against an integer comparison: the statement fails when the
    // comparison runs. The client must get an ErrorResponse — not a
    // `SELECT n` for the truncated stream, not silence — then
    // ReadyForQuery, and the connection must keep working.
    let server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(std::time::Duration::from_secs(20)));
    let cycle = client
        .extended("SELECT k FROM t WHERE k < $1", &[Some("abc")])
        .unwrap();
    assert_eq!(cycle.first_error().sqlstate(), "XX000");
    assert!(!cycle.first_error().error_message().is_empty());
    assert!(cycle.command_tags().is_empty(), "no completion tag");
    let cycle = client
        .extended("SELECT k FROM t WHERE k < $1", &[Some("1")])
        .unwrap();
    assert_eq!(cycle.rows().len(), 10);
    // The same for a write whose predicate cannot be evaluated: an
    // error, nothing deleted, and the connection (and its worker) live on.
    let cycle = client
        .extended("DELETE FROM t WHERE k = $1", &[Some("abc")])
        .unwrap();
    assert_eq!(cycle.first_error().sqlstate(), "XX000");
    assert!(cycle.command_tags().is_empty(), "no completion tag");
    let cycle = client.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(cycle.rows(), vec![vec![Some("1000".to_string())]]);
    client.terminate();
}

#[test]
fn named_statements_rebind_and_reexecute() {
    let server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    client
        .send_parse("tpl", "SELECT k FROM t WHERE k < $1", &[20])
        .unwrap();
    client.send_describe(b'S', "tpl").unwrap();
    client.send_sync().unwrap();
    let cycle = client.read_cycle().unwrap();
    assert!(
        cycle.messages.iter().any(|m| m.tag == b'1'),
        "ParseComplete"
    );
    assert!(
        cycle.messages.iter().any(|m| m.tag == b't'),
        "ParameterDescription"
    );

    for (limit, want) in [("1", 10), ("3", 30)] {
        client.send_bind("", "tpl", &[Some(limit)]).unwrap();
        client.send_execute("", 0).unwrap();
        client.send_sync().unwrap();
        let cycle = client.read_cycle().unwrap();
        assert!(cycle.messages.iter().any(|m| m.tag == b'2'), "BindComplete");
        assert_eq!(cycle.rows().len(), want, "limit {limit}");
    }
    client.terminate();
}

#[test]
fn many_clients_share_recycler_results_across_connections() {
    let server = recycling_server(20_000);
    let addr = server.local_addr();
    let clients = 64;
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = PgClient::connect(addr).unwrap();
                // Every client runs the same parameterized template with
                // the same binding: one computes, the rest reuse.
                let cycle = client
                    .extended("SELECT k, v FROM t WHERE k < $1", &[Some("40")])
                    .unwrap();
                assert!(cycle.errors().is_empty(), "{:?}", cycle.errors());
                let n = cycle.rows().len();
                client.terminate();
                n
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 8000, "identical results for everyone");
    }
    let stats = server.stats();
    assert_eq!(stats.connections_total, clients as u64);
    assert!(
        stats.recycler_hits >= 1,
        "cross-connection executions must land on shared cache entries: {stats:?}"
    );
}

/// One value of an `rdb_stats()` reply.
fn metric(cycle: &pg_client::Cycle, name: &str) -> f64 {
    cycle
        .rows()
        .iter()
        .find(|r| r[0].as_deref() == Some(name))
        .unwrap_or_else(|| panic!("metric {name} missing"))[1]
        .as_deref()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn rdb_stats_is_queryable_and_never_stale() {
    let server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    let first = client.query("SELECT * FROM rdb_stats()").unwrap();
    assert_eq!(
        first.row_description().unwrap().column_names(),
        vec!["metric", "value"]
    );
    assert_eq!(metric(&first, "connections"), 1.0);
    let statements_then = metric(&first, "statements");

    client.query("SELECT k FROM t WHERE k < 5").unwrap();
    let second = client.query("SELECT * FROM rdb_stats()").unwrap();
    // A cached stats result would freeze the counters; volatility keeps
    // them live.
    assert!(
        metric(&second, "statements") >= statements_then + 2.0,
        "stats must not be served from the recycler cache"
    );

    // The repair counters round-trip over the wire. With no writes yet
    // they all sit at zero; a DML against a warm cache routes a delta
    // through the repair walk and the next read must see it.
    assert_eq!(metric(&second, "repaired_hits"), 0.0);
    assert_eq!(metric(&second, "repair_fallbacks"), 0.0);
    assert_eq!(metric(&second, "deltas_applied"), 0.0);
    assert_eq!(metric(&second, "subscriptions_active"), 0.0);
    client
        .query("INSERT INTO t VALUES (2000, 1.5, 'red')")
        .unwrap();
    let third = client.query("SELECT * FROM rdb_stats()").unwrap();
    assert!(
        metric(&third, "deltas_applied") >= 1.0,
        "an insert against a warm cache must route a delta through repair"
    );
    assert!(
        metric(&third, "repaired_hits") + metric(&third, "repair_fallbacks") >= 1.0,
        "the cached selection must be repaired or fall back to eviction"
    );
}

#[test]
fn cancel_request_interrupts_a_streaming_query() {
    // Small per-key duplication, joined on k: 200k result rows streamed
    // in ~200 batches, plenty of boundaries to observe the cancel flag.
    let server = recycling_server(20_000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    client
        .send(
            b'Q',
            b"SELECT a.v FROM t AS a JOIN t AS b ON a.k = b.k WHERE a.k < 5\0",
        )
        .unwrap();
    // Wait for the stream to start (RowDescription + first rows), then
    // fire the out-of-band cancel and drain what remains.
    let desc = client.read_message().unwrap();
    assert_eq!(desc.tag, b'T');
    client.cancel().unwrap();
    let canceled_at = std::time::Instant::now();
    let mut cancel_latency = None;
    let mut data_rows = 0u64;
    loop {
        let m = client.read_message().unwrap();
        match m.tag {
            b'Z' => break,
            b'D' => data_rows += 1,
            b'E' => {
                assert_eq!(m.sqlstate(), "57014");
                cancel_latency = Some(canceled_at.elapsed());
            }
            _ => {}
        }
    }
    let latency = cancel_latency.expect("query must be canceled mid-stream");
    // The flag is observed by the executor itself at every batch/morsel
    // boundary (not just between protocol-level batches), so the latency
    // bound is one boundary plus CI noise — far below a full result scan.
    assert!(
        latency < Duration::from_millis(750),
        "cancel took {latency:?}"
    );
    assert!(
        data_rows < 1_000_000,
        "the full join result must not have been streamed"
    );
    // The connection survives a cancel and keeps working.
    let cycle = client.query("SELECT k FROM t WHERE k < 1").unwrap();
    assert!(cycle.errors().is_empty());
    assert_eq!(cycle.rows().len(), 200);
    assert!(server.stats().cancels >= 1);
}

#[test]
fn cancel_reaches_morsels_inside_parallel_pipelines() {
    // DOP 4: the join runs as a partitioned pipeline whose workers pull
    // morsels from a shared dispenser. The cancel flag must cross the
    // session into those workers — each stops at its next morsel — and
    // the truncated stream must surface as 57014, never as a successful
    // (but short) SELECT.
    let mut config = RecyclerConfig::deterministic(64 << 20);
    config.spec_min_progress = 0.0;
    let server = ServerBuilder::new(catalog(20_000))
        .recycler(config)
        .parallelism(4)
        .serve()
        .expect("bind server");
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    client
        .send(
            b'Q',
            b"SELECT a.v FROM t AS a JOIN t AS b ON a.k = b.k WHERE a.k < 5\0",
        )
        .unwrap();
    let desc = client.read_message().unwrap();
    assert_eq!(desc.tag, b'T');
    client.cancel().unwrap();
    let canceled_at = std::time::Instant::now();
    let mut cancel_latency = None;
    let mut data_rows = 0u64;
    loop {
        let m = client.read_message().unwrap();
        match m.tag {
            b'Z' => break,
            b'D' => data_rows += 1,
            b'E' => {
                assert_eq!(m.sqlstate(), "57014");
                cancel_latency = Some(canceled_at.elapsed());
            }
            _ => {}
        }
    }
    let latency = cancel_latency.expect("parallel query must be canceled mid-stream");
    assert!(
        latency < Duration::from_millis(750),
        "parallel cancel took {latency:?}"
    );
    assert!(
        data_rows < 1_000_000,
        "the full parallel join result must not have been streamed"
    );
    // The connection survives, and a rerun of the *same* query completes
    // in full — cancellation must not have published a truncated build
    // or result into the cache.
    let rerun = client
        .query("SELECT a.v FROM t AS a JOIN t AS b ON a.k = b.k WHERE a.k < 5")
        .unwrap();
    assert!(rerun.errors().is_empty());
    assert_eq!(rerun.rows().len(), 200_000, "5 keys x 200 dups each side");
    assert!(server.stats().cancels >= 1);
}

#[test]
fn malformed_messages_kill_the_connection_not_the_server() {
    let server = recycling_server(100);
    let addr = server.local_addr();
    let attacks: Vec<Vec<u8>> = vec![
        // Unknown message tag after a healthy startup.
        b"z\x00\x00\x00\x04".to_vec(),
        // Negative length.
        b"Q\xff\xff\xff\xff".to_vec(),
        // Length beyond the frame cap.
        b"Q\x7f\xff\xff\xff".to_vec(),
        // Describe with a bogus kind.
        b"D\x00\x00\x00\x06X\x00".to_vec(),
        // Bind demanding binary-format parameters.
        {
            let mut b = vec![b'B'];
            let body = b"\x00\x00\x00\x01\x00\x01";
            b.extend_from_slice(&((body.len() + 4) as i32).to_be_bytes());
            b.extend_from_slice(body);
            b
        },
        // Garbage that is not a frame at all.
        vec![0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x13, 0x37],
    ];
    for (i, attack) in attacks.iter().enumerate() {
        let mut client = PgClient::connect(addr).unwrap();
        client.send_raw(attack).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5)));
        // The server answers with ErrorResponse and/or closes; it must
        // never hang this connection.
        while client.read_message().is_ok() {}
        // And the server is still healthy for the next client.
        let mut fresh =
            PgClient::connect(addr).unwrap_or_else(|e| panic!("server died after attack {i}: {e}"));
        let cycle = fresh.query("SELECT k FROM t WHERE k < 1").unwrap();
        assert!(cycle.errors().is_empty());
        fresh.terminate();
    }
    // Startup-packet garbage too.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    std::io::Write::write_all(&mut s, &[0x00, 0x00, 0x00, 0x03]).unwrap();
    drop(s);
    let mut fresh = PgClient::connect(addr).unwrap();
    assert!(fresh.query("SELECT 1 AS one").is_ok());
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let mut server = recycling_server(50_000);
    let addr = server.local_addr();
    let mut client = PgClient::connect(addr).unwrap();
    client.send(b'Q', b"SELECT k, v FROM t\0").unwrap();
    // The statement is provably in flight: its RowDescription arrived.
    let desc = client.read_message().unwrap();
    assert_eq!(desc.tag, b'T');

    let reader = std::thread::spawn(move || {
        let mut rows = 0u64;
        let mut tags = Vec::new();
        while let Ok(m) = client.read_message() {
            match m.tag {
                b'D' => rows += 1,
                b'C' => tags.push(m.command_tag()),
                _ => {}
            }
        }
        (rows, tags)
    });
    server.shutdown(Duration::from_secs(30));
    let (rows, tags) = reader.join().unwrap();
    assert_eq!(rows, 50_000, "every in-flight row must be delivered");
    assert_eq!(tags, vec!["SELECT 50000".to_string()]);
    // And the server is gone: new connections are refused.
    assert!(
        PgClient::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn ssl_and_gssenc_requests_are_refused_then_startup_proceeds() {
    let server = recycling_server(100);
    let addr = server.local_addr();
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    use std::io::{Read, Write};
    // SSLRequest
    let mut pkt = Vec::new();
    pkt.extend_from_slice(&8i32.to_be_bytes());
    pkt.extend_from_slice(&80877103i32.to_be_bytes());
    s.write_all(&pkt).unwrap();
    let mut byte = [0u8; 1];
    s.read_exact(&mut byte).unwrap();
    assert_eq!(byte[0], b'N', "SSL refused in cleartext");
    drop(s);
    // A normal client still works.
    let mut client = PgClient::connect(addr).unwrap();
    assert!(client.query("SELECT k FROM t WHERE k < 1").is_ok());
}

// ---------------------------------------------------------------------------
// Numbered parameters
// ---------------------------------------------------------------------------

/// The rows of `sql` from an embedded session on the server's engine, in
/// the wire's text format.
fn embedded_rows(server: &Server, sql: &str) -> Vec<Vec<Option<String>>> {
    use recycler_db::engine::SqlOutcome;
    use recycler_db::expr::Params;
    use recycler_db::server::protocol::text_value;
    let session = server.engine().session();
    let Ok(SqlOutcome::Rows(handle)) = session.sql(sql, &Params::none()) else {
        panic!("embedded query failed: {sql}");
    };
    let mut rows = Vec::new();
    for batch in handle {
        for row in batch.to_rows() {
            rows.push(row.iter().map(text_value).collect());
        }
    }
    rows
}

#[test]
fn numbered_parameters_bind_by_number_not_by_position_in_the_text() {
    let server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    // (statement, values for $1.., the same statement with them written in)
    let cases: [(&str, &[Option<&str>], &str); 4] = [
        (
            "SELECT k, v FROM t WHERE v < $2 AND k >= $1",
            &[Some("5"), Some("20.5")],
            "SELECT k, v FROM t WHERE v < 20.5 AND k >= 5",
        ),
        (
            "SELECT k, v FROM t WHERE k >= $2 AND v < $1 AND k <= $2",
            &[Some("300.0"), Some("7")],
            "SELECT k, v FROM t WHERE k >= 7 AND v < 300.0 AND k <= 7",
        ),
        (
            "SELECT k, s FROM t WHERE s = $3 AND k < $1 AND v < $2",
            &[Some("9"), Some("100.0"), Some("red")],
            "SELECT k, s FROM t WHERE s = 'red' AND k < 9 AND v < 100.0",
        ),
        // A number the statement skips still takes a value.
        (
            "SELECT k FROM t WHERE k < $2",
            &[Some("77"), Some("3")],
            "SELECT k FROM t WHERE k < 3",
        ),
    ];
    for (sql, values, inlined) in cases {
        let cycle = client.extended(sql, values).unwrap();
        assert!(cycle.errors().is_empty(), "{sql}: {:?}", cycle.errors());
        let mut got = cycle.rows();
        let mut want = embedded_rows(&server, inlined);
        assert!(!want.is_empty(), "{inlined} selects nothing");
        got.sort();
        want.sort();
        assert_eq!(got, want, "{sql}");
    }

    // Declared types belong to their numbers too: $1 is the float, $2 the
    // int, whichever the text mentions first.
    client
        .send_parse(
            "typed",
            "SELECT k FROM t WHERE k >= $2 AND v < $1",
            &[701, 20],
        )
        .unwrap();
    client.send_describe(b'S', "typed").unwrap();
    client
        .send_bind("", "typed", &[Some("300"), Some("7")])
        .unwrap();
    client.send_execute("", 0).unwrap();
    client.send_sync().unwrap();
    let cycle = client.read_cycle().unwrap();
    assert!(cycle.errors().is_empty(), "{:?}", cycle.errors());
    let described = cycle
        .messages
        .iter()
        .find(|m| m.tag == b't')
        .expect("ParameterDescription");
    let mut want = 2i16.to_be_bytes().to_vec();
    want.extend_from_slice(&701i32.to_be_bytes());
    want.extend_from_slice(&20i32.to_be_bytes());
    assert_eq!(described.body, want, "OIDs in $n order");
    assert_eq!(
        cycle.rows().len(),
        embedded_rows(&server, "SELECT k FROM t WHERE k >= 7 AND v < 300.0").len()
    );

    // Too few values for the highest number is an arity error.
    let cycle = client
        .extended("SELECT k FROM t WHERE k < $2", &[Some("3")])
        .unwrap();
    assert_eq!(cycle.first_error().sqlstate(), "08P01");
    // A parameter number no Bind could ever carry is refused at Parse,
    // not allocated for.
    for sql in [
        "SELECT k FROM t WHERE k < $4000000000",
        "DELETE FROM t WHERE k = $4000000000",
    ] {
        let cycle = client.extended(sql, &[]).unwrap();
        assert_eq!(cycle.first_error().sqlstate(), "42601", "{sql}");
    }
    client.terminate();
}

// ---------------------------------------------------------------------------
// Hot connections stay on their worker
// ---------------------------------------------------------------------------

/// Poll `pred` until it holds; a state the server never reaches fails the
/// test with `what` instead of hanging it.
fn wait_for(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while !pred() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting until {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn silent_connections_hold_no_pool_thread_after_one_linger() {
    let server = recycling_server(100);
    let mut clients: Vec<PgClient> = (0..64)
        .map(|_| PgClient::connect(server.local_addr()).unwrap())
        .collect();
    // Each was on a worker for its startup; none says anything more.
    wait_for("all 64 connections are parked", || {
        let s = server.stats();
        s.connections_on_workers == 0 && s.connections_parked == 64
    });
    assert!(server.stats().reactor_dispatches >= 64);

    // The same gauges from SQL: the one asking is the one on a worker.
    let stats = clients[0].query("SELECT * FROM rdb_stats()").unwrap();
    assert_eq!(metric(&stats, "connections"), 64.0);
    assert_eq!(metric(&stats, "connections_on_workers"), 1.0);
    assert_eq!(metric(&stats, "connections_parked"), 63.0);

    // A client in a request/reply loop stays on its worker: most of its
    // statements never see the reactor, and the counters say so.
    let dispatched = metric(&stats, "reactor_dispatches");
    let hot = metric(&stats, "hot_pumps");
    let statements = 200;
    for _ in 0..statements {
        let cycle = clients[0].query("SELECT k FROM t WHERE k < 2").unwrap();
        assert_eq!(cycle.rows().len(), 2);
    }
    let stats = clients[0].query("SELECT * FROM rdb_stats()").unwrap();
    let (dispatched, hot) = (
        metric(&stats, "reactor_dispatches") - dispatched,
        metric(&stats, "hot_pumps") - hot,
    );
    assert!(
        hot >= statements as f64 / 2.0 && dispatched <= statements as f64 / 2.0,
        "{statements} back-to-back statements: {hot} hot pumps, {dispatched} reactor dispatches"
    );
    // And it gives the thread back once it stops talking.
    wait_for("the talker is parked again", || {
        let s = server.stats();
        s.connections_on_workers == 0 && s.connections_parked == 64
    });
}

#[test]
fn kept_connections_are_dealt_out_again() {
    let server = ServerBuilder::new(catalog(100))
        .workers(2)
        .serve()
        .expect("bind server");
    let addr = server.local_addr();
    // Two clients in request/reply loops, as many as the pool has
    // residents, for a dozen reseat intervals.
    let talk = move || {
        let mut client = PgClient::connect(addr).unwrap();
        let until = std::time::Instant::now() + Duration::from_millis(100);
        while std::time::Instant::now() < until {
            let cycle = client.query("SELECT k FROM t WHERE k < 2").unwrap();
            assert_eq!(cycle.rows().len(), 2);
        }
        client.terminate();
    };
    let before = server.stats();
    let talkers = [std::thread::spawn(talk), std::thread::spawn(talk)];
    for t in talkers {
        t.join().unwrap();
    }
    let after = server.stats();
    let dispatched = after.reactor_dispatches - before.reactor_dispatches;
    let hot = after.hot_pumps - before.hot_pumps;
    // Each came through the reactor once to start with; every further
    // dispatch is a new deal (or, on a slow day, a linger that ran out).
    assert!(
        dispatched >= 2 + 4 && hot >= 2 * dispatched,
        "kept, but not for good: {hot} hot pumps, {dispatched} reactor dispatches"
    );
}

#[test]
fn nobody_lingers_while_the_pool_is_crowded() {
    let mut config = RecyclerConfig::deterministic(64 << 20);
    config.spec_min_progress = 0.0;
    let server = ServerBuilder::new(catalog(20_000))
        .recycler(config)
        .workers(1)
        .serve()
        .expect("bind server");
    // One resident thread, and this connection pins it: a million-row
    // result nobody reads blocks its worker in `write` once the socket
    // buffers are full.
    let mut hog = PgClient::connect(server.local_addr()).unwrap();
    hog.send_raw(&pg_client::frame::query(
        "SELECT a.v, b.v FROM t AS a JOIN t AS b ON a.k = b.k WHERE a.k < 25",
    ))
    .unwrap();
    assert_eq!(hog.read_message().unwrap().tag, b'T');
    wait_for("the hog is alone on a worker", || {
        let s = server.stats();
        s.connections_on_workers == 1 && s.statements_active == 1
    });

    // Every other connection is now one more than the pool has residents:
    // each of its statements is one pump, then back to the reactor.
    let before = server.stats();
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    let statements = 20;
    for _ in 0..statements {
        let cycle = client.query("SELECT k FROM t WHERE k < 1").unwrap();
        assert_eq!(cycle.rows().len(), 200);
    }
    let after = server.stats();
    assert_eq!(after.statements_active, 1, "the hog is still streaming");
    assert_eq!(after.hot_pumps, before.hot_pumps, "nobody was kept");
    assert!(
        after.reactor_dispatches - before.reactor_dispatches >= statements,
        "every statement came through the reactor: {before:?} -> {after:?}"
    );
    client.terminate();
    // Hang up on the hog so the server's drain has nothing to wait for.
    drop(hog);
}

#[test]
fn a_lingering_connection_is_idle_for_shutdown() {
    let mut server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(20)));
    for _ in 0..50 {
        client.query("SELECT k FROM t WHERE k < 2").unwrap();
    }
    assert!(
        server.stats().hot_pumps > 0,
        "a request/reply loop keeps its worker"
    );
    // The last reply is a moment old: the connection is lingering on its
    // worker (or, on a slow day, already parked — idle either way).
    let started = std::time::Instant::now();
    server.shutdown(Duration::from_secs(30));
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "an idle connection must not hold the drain to its deadline: {took:?}"
    );
    let notice = client
        .read_message()
        .expect("the reason precedes the close");
    assert_eq!(notice.tag, b'E');
    assert_eq!(notice.sqlstate(), "57P01");
    assert!(client.read_message().is_err(), "then the socket closes");
}

#[test]
fn a_request_split_across_a_linger_expiry_is_answered_once() {
    let server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(20)));
    let request = pg_client::frame::query("SELECT k FROM t WHERE k < 3");
    let (head, tail) = request.split_at(request.len() / 2);
    // Bytes reach a worker through the reactor or, if the connection is
    // still lingering after its startup, directly.
    let pumps = |s: recycler_db::server::ServerStatsSnapshot| s.reactor_dispatches + s.hot_pumps;
    let pumped = pumps(server.stats());
    client.send_raw(head).unwrap();
    // Half a frame reached a worker, which waited one linger for the rest
    // and then parked the connection, buffer and all.
    wait_for("the half-sent request is parked", || {
        let s = server.stats();
        pumps(s) > pumped && s.connections_on_workers == 0 && s.connections_parked == 1
    });
    client.send_raw(tail).unwrap();
    let cycle = client.read_cycle().unwrap();
    assert!(cycle.errors().is_empty(), "{:?}", cycle.errors());
    assert_eq!(cycle.command_tags(), vec!["SELECT 30".to_string()]);
    // Exactly one answer: the next cycle is the next statement's.
    let cycle = client.query("SELECT k FROM t WHERE k < 1").unwrap();
    assert_eq!(cycle.command_tags(), vec!["SELECT 10".to_string()]);
    client.terminate();
}

// ---------------------------------------------------------------------------
// The engine's compiled-statement cache over the wire
// ---------------------------------------------------------------------------

#[test]
fn dml_bind_arity_comes_from_the_compiled_statement() {
    let server = recycling_server(1000);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    // A `$2` inside a comment is no parameter: one value binds.
    let cycle = client
        .extended("DELETE FROM t WHERE k = $1 -- was $2", &[Some("7")])
        .unwrap();
    assert!(cycle.errors().is_empty(), "{:?}", cycle.errors());
    assert_eq!(cycle.command_tags(), vec!["DELETE 10".to_string()]);
    // Named parameters take one value each, in template order.
    let cycle = client
        .extended("DELETE FROM t WHERE k = $lo", &[Some("8")])
        .unwrap();
    assert!(cycle.errors().is_empty(), "{:?}", cycle.errors());
    assert_eq!(cycle.command_tags(), vec!["DELETE 10".to_string()]);
    let cycle = client
        .extended(
            "INSERT INTO t VALUES ($k, $v, $s)",
            &[Some("8"), Some("0.5"), Some("red")],
        )
        .unwrap();
    assert!(cycle.errors().is_empty(), "{:?}", cycle.errors());
    assert_eq!(cycle.command_tags(), vec!["INSERT 0 1".to_string()]);
    let cycle = client
        .query("SELECT k FROM t WHERE k >= 7 AND k <= 8")
        .unwrap();
    assert_eq!(cycle.rows(), vec![vec![Some("8".to_string())]]);
    client.terminate();
}

#[test]
fn connections_share_compiled_statements() {
    let server = recycling_server(1000);
    let mut a = PgClient::connect(server.local_addr()).unwrap();
    let mut b = PgClient::connect(server.local_addr()).unwrap();
    let stats = "SELECT * FROM rdb_stats()";
    // Seen twice, the stats text is cached itself and reads as one hit.
    a.query(stats).unwrap();
    let before = a.query(stats).unwrap();
    let sql = "SELECT k, v FROM t WHERE k < $1";
    for round in 0..3 {
        for client in [&mut a, &mut b] {
            let cycle = client.extended(sql, &[Some("4")]).unwrap();
            assert!(
                cycle.errors().is_empty(),
                "round {round}: {:?}",
                cycle.errors()
            );
            assert_eq!(cycle.rows().len(), 40);
        }
    }
    let after = b.query(stats).unwrap();
    let delta = |name: &str| metric(&after, name) - metric(&before, name);
    // Admitted on its second sighting: two compiles, then four hits.
    assert_eq!(delta("statement_cache_misses"), 2.0);
    assert_eq!(
        delta("statement_cache_hits"),
        5.0,
        "four Parses and the stats query"
    );
    assert_eq!(metric(&after, "statement_cache_entries"), 2.0);
}

#[test]
fn a_statement_that_fails_to_bind_fails_again_with_its_span() {
    let server = recycling_server(100);
    let mut client = PgClient::connect(server.local_addr()).unwrap();
    let sql = "SELECT k, nope FROM t WHERE k < $1";
    let fields = |cycle: &pg_client::Cycle| {
        let err = cycle.first_error();
        let fields = err.error_fields();
        let field = |code: u8| {
            fields
                .iter()
                .find(|(c, _)| *c == code)
                .map(|(_, v)| v.clone())
        };
        (err.sqlstate(), field(b'P'), field(b'D'))
    };
    let first = fields(&client.extended(sql, &[Some("1")]).unwrap());
    assert_eq!(first.0, "42703");
    assert_eq!(first.1.as_deref(), Some("11"), "1-based offset of 'nope'");
    assert!(
        first.2.as_deref().is_some_and(|d| d.contains("^^^^")),
        "{first:?}"
    );
    for _ in 0..3 {
        assert_eq!(fields(&client.extended(sql, &[Some("1")]).unwrap()), first);
    }
    let stats = client.query("SELECT * FROM rdb_stats()").unwrap();
    assert_eq!(metric(&stats, "statement_cache_misses"), 5.0);
    assert_eq!(metric(&stats, "statement_cache_entries"), 0.0);
}
