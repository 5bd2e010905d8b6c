//! A minimal interactive SQL REPL over a session.
//!
//! Run with `cargo run --release --example sql_repl`. The engine loads a
//! small TPC-H catalog (scale it with `RDB_SF`); type SQL statements at
//! the prompt — `SELECT` streams rows, `INSERT` / `DELETE` commit through
//! the DML path and report how many cache entries the recycler repaired
//! and evicted. Meta-commands:
//!
//! ```text
//! \explain <sql>   show the normalized plan with per-node fingerprints
//!                  and recycler state (cached / in-flight / cold)
//! \stats           session + recycler counters
//! \tables          catalog contents
//! \quit            exit (EOF works too)
//! ```

use std::io::{self, BufRead, Write};

use recycler_db::engine::{Engine, SqlOutcome};
use recycler_db::expr::Params;
use recycler_db::recycler::RecyclerEvent;
use recycler_db::tpch::{generate, TpchConfig};

const MAX_PRINT_ROWS: usize = 20;

fn main() {
    let scale = std::env::var("RDB_SF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);
    eprintln!("loading TPC-H catalog at SF {scale} …");
    let catalog = generate(&TpchConfig { scale, seed: 42 });
    let engine = Engine::builder(catalog).build();
    let session = engine.session();
    eprintln!("ready. \\quit exits, \\explain <sql> shows recycler state.");

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("sql> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        if line == "\\stats" {
            let s = session.stats();
            println!(
                "prepared {}  executed {}  reused {}  rows {}  writes {}  wall {:?}",
                s.prepared, s.executed, s.reused, s.rows, s.writes, s.wall
            );
            if let Some(r) = engine.recycler() {
                println!(
                    "recycler: {} graph nodes, {} cached results, {} bytes",
                    r.graph_len(),
                    r.cache_len(),
                    r.cache_used()
                );
            }
            continue;
        }
        if line == "\\tables" {
            let mut names = engine.catalog().table_names();
            names.sort();
            for n in names {
                println!(
                    "{n}  ({} rows)  {}",
                    engine.catalog().get(n).map(|t| t.rows()).unwrap_or(0),
                    engine
                        .catalog()
                        .schema_of(n)
                        .map(|s| s.to_string())
                        .unwrap_or_default(),
                );
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix("\\explain ") {
            match session.prepare_sql(sql) {
                Ok(prepared) => print!("{}", prepared.explain()),
                Err(e) => println!("{}", e.render(sql)),
            }
            continue;
        }
        match session.sql(line, &Params::none()) {
            Err(e) => println!("{}", e.render(line)),
            Ok(SqlOutcome::Write(w)) => {
                let evicted = w
                    .repair
                    .events
                    .iter()
                    .filter(|e| matches!(e, RecyclerEvent::Invalidated { .. }))
                    .count();
                println!(
                    "ok: {} rows affected in '{}' (epoch {}, {} cache entries repaired, {} evicted)",
                    w.rows_affected, w.table, w.epoch, w.repair.repaired, evicted
                );
            }
            Ok(SqlOutcome::Rows(handle)) => {
                let names: Vec<String> = handle
                    .schema()
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                println!("{}", names.join(" | "));
                let reused_upfront = handle.reused();
                let mut printed = 0usize;
                let mut total = 0usize;
                for batch in handle {
                    for row in batch.to_rows() {
                        total += 1;
                        if printed < MAX_PRINT_ROWS {
                            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                            println!("{}", cells.join(" | "));
                            printed += 1;
                        }
                    }
                }
                if total > printed {
                    println!("… {} more rows", total - printed);
                }
                println!(
                    "({total} rows{})",
                    if reused_upfront { ", recycled" } else { "" }
                );
            }
        }
    }
}
