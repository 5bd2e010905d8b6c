//! Postgres-wire-protocol serving layer over the recycling engine.
//!
//! `rdb_server` puts the engine behind a socket: any Postgres client or
//! driver that speaks protocol v3 with text-format values can connect
//! (trust auth), run SQL, prepare statements, and cancel running queries.
//! The recycler sits under all of it — two clients issuing the same
//! parameterized template land on the same fingerprints and share cached
//! results, which is exactly the multi-user session workload the
//! recycling paper targets.
//!
//! # What's mapped where
//!
//! | Wire concept | Engine concept |
//! |---|---|
//! | connection startup | [`rdb_engine::Engine::session`] |
//! | simple `Query` | [`rdb_engine::Session::sql`] per statement |
//! | `Parse` | [`rdb_engine::Session::prepare_statement`] (through the engine's statement cache) |
//! | `Bind` + `Execute` | [`rdb_engine::Prepared::execute`] / [`rdb_engine::Session::write`] with [`rdb_expr::Params`] |
//! | `CancelRequest` | dropping the [`rdb_engine::QueryHandle`] mid-stream |
//! | `ErrorResponse` | [`rdb_sql::SqlError`] with SQLSTATE, position, caret detail |
//! | `SELECT * FROM rdb_stats()` | [`ServerStatsSnapshot`] as a volatile table function |
//!
//! # Threading model
//!
//! Three kinds of thread, none per-connection:
//!
//! * **reactor** (one): owns the listener and every *parked* connection;
//!   accepts, then sweeps the parked set with nonblocking `peek`. A
//!   parked connection costs a map entry, not a thread — thousands of
//!   quiet clients are fine.
//! * **connection handlers** (a small pool, [`ServerBuilder::workers`]):
//!   a readable connection is pumped here — frames decoded, statements
//!   executed, responses encoded — and then *kept*, the thread asleep in
//!   the kernel on the socket, for a few milliseconds: the next request
//!   of a client in a request/reply loop wakes its worker directly, with
//!   no reactor trip in between. A connection that stays quiet goes back
//!   to the reactor, and while more connections are on workers than the
//!   pool has residents nobody is kept at all. Kept connections change
//!   threads every few milliseconds (`RESEAT` in `server.rs`), so none
//!   lives on one placement of its worker. Past its residents the pool
//!   overflows instead of queueing, so neither a slow statement nor a
//!   lingering worker blocks another connection's pump.
//! * **engine workers**: intra-query parallelism, unchanged from the
//!   embedded engine.
//!
//! A socket is nonblocking while parked and blocking (with the linger as
//! its read timeout) while on a worker; see `server.rs` and `conn.rs`.
//!
//! Admission control is the engine's FIFO-fair gate: at most
//! [`ServerBuilder::max_concurrent_queries`] statements execute at once,
//! later arrivals queue in arrival order up to
//! [`ServerBuilder::admission_queue_limit`], and arrivals past that are
//! refused immediately with SQLSTATE `53300` (load shedding beats
//! unbounded queueing under overload).
//!
//! # Backpressure
//!
//! Bounded on both sides of every connection. A worker reads one chunk
//! per wake and answers every complete frame before it reads again.
//! Responses accumulate in an encode buffer flushed with *blocking*
//! writes whenever it passes ~64 KiB — a client that stops reading stalls
//! its own statement through the TCP window and nothing else; the reactor
//! never blocks on a socket.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] stops accepting (new connections are refused
//! with `57P03`), closes idle connections — parked or lingering — with
//! `57P01`, and lets statements already executing stream to completion —
//! no in-flight result is lost. Stragglers past the drain deadline are
//! aborted through the cancel path and their sockets severed. Dropping
//! the [`Server`] shuts down with a 5-second deadline, then shuts the
//! engine down (joining its checkpointer) and lets go of it.
//!
//! ```no_run
//! use std::sync::Arc;
//! use rdb_storage::Catalog;
//! use rdb_server::ServerBuilder;
//!
//! let server = ServerBuilder::new(Arc::new(Catalog::new()))
//!     .max_concurrent_queries(12)
//!     .serve()
//!     .unwrap();
//! println!("listening on {}", server.local_addr());
//! ```

pub mod conn;
pub mod protocol;
pub mod server;
pub mod stats;

pub use server::{Server, ServerBuilder};
pub use stats::{ServerShared, ServerStatsSnapshot};
