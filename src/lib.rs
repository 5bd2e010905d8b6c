//! # recycler-db
//!
//! A vectorized, pipelined query engine with an **intermediate-result
//! recycler** — a full reproduction of *"Recycling in Pipelined Query
//! Evaluation"* (Nagel, Boncz, Viglas; ICDE 2013).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`vector`] — columnar batches, values, schemas;
//! * [`expr`] — vectorized expressions, parameter placeholders, and range
//!   analysis;
//! * [`storage`] — versioned in-memory tables (epoch-stamped
//!   append/delete with O(1) snapshot reads) and the catalog;
//! * [`plan`] — logical query trees with structural fingerprints,
//!   parameter slots, and the [`plan::normalize()`] canonicalization pass
//!   every prepared statement goes through;
//! * [`sql`] — the SQL text frontend: lexer, recursive-descent parser,
//!   spanned AST, and the binder lowering to plans;
//! * [`exec`] — the pipelined vector-at-a-time executor (incl. the `store`
//!   operator, progress meters, and the public [`exec::ExecStream`] pull
//!   loop);
//! * [`recycler`] — the paper's contribution: recycler graph, benefit
//!   metric, recycler cache, subsumption, speculation, proactive rewrites;
//! * [`engine`] — the session-based engine façade plus the MonetDB-style
//!   operator-at-a-time baseline;
//! * [`tpch`] / [`skyserver`] — the paper's two workloads, with prepared
//!   templates.
//!
//! ## Quickstart
//!
//! Queries go through a session: prepare a template once (binding against
//! the catalog and fingerprinting happen here), then execute it repeatedly
//! with bound parameters, pulling results batch-at-a-time. The recycler
//! turns repeated executions into cache hits.
//!
//! ```
//! use recycler_db::engine::Engine;
//! use recycler_db::expr::{AggFunc, Expr, Params};
//! use recycler_db::plan::scan;
//! use recycler_db::storage::TableBuilder;
//! use recycler_db::vector::{DataType, Schema, Value};
//! use std::sync::Arc;
//!
//! // Load a table.
//! let mut catalog = recycler_db::storage::Catalog::new();
//! let mut t = TableBuilder::new(
//!     "sales",
//!     Schema::from_pairs([("item", DataType::Int), ("amount", DataType::Float)]),
//!     4,
//! );
//! for (i, a) in [(1, 10.0), (1, 20.0), (2, 5.0), (2, 2.5)] {
//!     t.push_row(vec![Value::Int(i), Value::Float(a)]);
//! }
//! catalog.register(t.finish()).expect("register table");
//!
//! // An engine with recycling on, and a session over it.
//! let engine = Engine::builder(Arc::new(catalog)).build();
//! let session = engine.session();
//!
//! // Prepare a parameterized aggregation template once...
//! let template = scan("sales", &["item", "amount"])
//!     .select(Expr::name("item").eq(Expr::param("item")))
//!     .aggregate(vec![], vec![(AggFunc::Sum(Expr::name("amount")), "total")]);
//! let prepared = session.prepare(&template).unwrap();
//! assert_eq!(prepared.param_names(), &["item".to_string()]);
//!
//! // ...execute it with bound parameters, streaming result batches.
//! let params = Params::new().set("item", 1i64);
//! let first: Vec<_> = prepared.execute(&params).unwrap().collect();
//! assert_eq!(first.iter().map(|b| b.rows()).sum::<usize>(), 1);
//!
//! // The second execution with identical parameters reuses the cached
//! // result instead of recomputing.
//! let second = prepared.execute(&params).unwrap();
//! assert!(second.reused());
//! let batch = second.collect_batch();
//! assert_eq!(batch.column(0).as_floats(), &[30.0]);
//!
//! // Updates commit a new table epoch. Instead of evicting the cached
//! // aggregate, the recycler *repairs* it in place from the append's
//! // delta (folding the new row into the finished sum), so the next
//! // execution still reuses — now serving the new epoch's answer.
//! let write = session
//!     .append("sales", &[vec![Value::Int(1), Value::Float(70.0)]])
//!     .unwrap();
//! assert!(write.repaired >= 1);
//! let after = prepared.execute(&params).unwrap();
//! assert!(after.reused(), "repaired entries keep serving");
//! assert_eq!(after.collect_batch().column(0).as_floats(), &[100.0]);
//! ```

pub use rdb_engine as engine;
pub use rdb_exec as exec;
pub use rdb_expr as expr;
pub use rdb_plan as plan;
pub use rdb_recycler as recycler;
pub use rdb_server as server;
pub use rdb_skyserver as skyserver;
pub use rdb_sql as sql;
pub use rdb_storage as storage;
pub use rdb_tpch as tpch;
pub use rdb_vector as vector;
pub use rdb_wal as wal;
