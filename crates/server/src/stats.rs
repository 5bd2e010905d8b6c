//! Server-wide statistics and the `rdb_stats()` table function.
//!
//! One [`ServerShared`] instance is threaded through the listener, the
//! reactor, and every connection; its counters are lock-free atomics so
//! the hot paths never serialize on a stats mutex. The `rdb_stats()`
//! table function renders a point-in-time snapshot as a two-column
//! relation — `SELECT * FROM rdb_stats()` works over any connection, and
//! because the function is declared *volatile* the engine never routes it
//! through the recycler (a cached stats result would be stale by
//! definition).
//!
//! Three rows report the engine's compiled-statement cache (SQL text →
//! template, see `rdb_engine::statements`), which every Parse and simple
//! `Q` statement goes through, `rdb_stats()` queries included:
//!
//! * `statement_cache_hits` — texts served compiled, skipping parse, bind
//!   and normalize;
//! * `statement_cache_misses` — texts compiled, successfully or not (the
//!   count of compiles);
//! * `statement_cache_entries` — compiled statements held right now (a
//!   constant bound, `rdb_engine::statements::ENTRIES`).

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use rdb_engine::Engine;
use rdb_exec::TableFunction;
use rdb_vector::{Batch, Column, DataType, Schema, Value};

/// Server lifecycle phase (stored in `ServerShared::state`).
pub const STATE_RUNNING: u8 = 0;
/// Draining: no new connections, in-flight statements finish.
pub const STATE_DRAINING: u8 = 1;
/// Stopped: reactor and listener have exited.
pub const STATE_STOPPED: u8 = 2;

/// A connection's cancel handle: the backend secret plus the flag the
/// statement loop polls between batches, and a socket clone so a blocked
/// write can be severed from outside.
pub(crate) struct CancelEntry {
    pub secret: i32,
    pub flag: Arc<AtomicBool>,
    pub stream: Option<TcpStream>,
}

/// State shared by every thread of one server: lifecycle, counters, the
/// cancel-key registry, and (once built) the engine.
pub struct ServerShared {
    /// Filled right after the engine is constructed (the `rdb_stats()`
    /// function is registered *before* the engine exists, so it reaches
    /// the engine through here). Weak, because the engine's function
    /// registry owns `rdb_stats()` and `rdb_stats()` owns this struct: a
    /// strong reference would close a cycle that keeps a dropped server's
    /// engine alive. Once the engine is gone its counters read zero.
    pub(crate) engine: OnceLock<Weak<Engine>>,
    /// Lifecycle phase: RUNNING → DRAINING → STOPPED.
    pub(crate) state: AtomicU8,
    /// Currently open connections.
    pub(crate) connections: AtomicU64,
    /// Connections ever accepted.
    pub(crate) connections_total: AtomicU64,
    /// Connections held by a pool thread right now (executing or
    /// lingering). The reactor may only exit once this is back to zero,
    /// and a worker compares it with the pool's resident count to decide
    /// whether its connection may linger.
    pub(crate) connections_on_workers: AtomicU64,
    /// Resident pool threads spoken for: one per connection job that was
    /// queued for a resident, from dispatch until the job lets go of its
    /// connection (see `server::dispatch`).
    pub(crate) seats_taken: AtomicU64,
    /// Bumped by the reactor every `server::RESEAT`; a worker that sees it
    /// move sends its connection back to be seated afresh.
    pub(crate) reseat: AtomicU64,
    /// Hand-offs of a readable connection from the reactor to the pool.
    pub(crate) reactor_dispatches: AtomicU64,
    /// Pumps served by a worker that kept its connection: requests that
    /// never made a reactor trip.
    pub(crate) hot_pumps: AtomicU64,
    /// Statements executed (queries + DML + failed).
    pub(crate) queries: AtomicU64,
    /// Statements currently executing or streaming.
    pub(crate) queries_active: AtomicU64,
    /// Statements that returned an error to the client.
    pub(crate) errors: AtomicU64,
    /// CancelRequests that matched a live backend.
    pub(crate) cancels: AtomicU64,
    /// pid → cancel handle for every live connection.
    pub(crate) cancel_registry: Mutex<HashMap<i32, CancelEntry>>,
}

impl Default for ServerShared {
    fn default() -> Self {
        ServerShared {
            engine: OnceLock::new(),
            state: AtomicU8::new(STATE_RUNNING),
            connections: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_on_workers: AtomicU64::new(0),
            seats_taken: AtomicU64::new(0),
            reseat: AtomicU64::new(0),
            reactor_dispatches: AtomicU64::new(0),
            hot_pumps: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            queries_active: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
            cancel_registry: Mutex::new(HashMap::new()),
        }
    }
}

impl ServerShared {
    pub(crate) fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    pub(crate) fn draining(&self) -> bool {
        self.state() != STATE_RUNNING
    }

    /// Handle a CancelRequest: if `(pid, secret)` matches a live backend,
    /// set its cancel flag. Never reports success or failure to the
    /// requester (per protocol).
    pub(crate) fn cancel(&self, pid: i32, secret: i32) {
        let reg = self.cancel_registry.lock();
        if let Some(e) = reg.get(&pid) {
            if e.secret == secret {
                e.flag.store(true, Ordering::Release);
                self.cancels.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Force-abort every live connection: set all cancel flags and sever
    /// the sockets, so even a statement blocked on a slow client's TCP
    /// window unblocks (the drain-deadline path of graceful shutdown).
    pub(crate) fn abort_all(&self) {
        let reg = self.cancel_registry.lock();
        for e in reg.values() {
            e.flag.store(true, Ordering::Release);
            if let Some(s) = &e.stream {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Point-in-time snapshot of everything `rdb_stats()` reports. The
    /// engine's counters read zero once the engine is gone.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        let engine = self.engine.get().and_then(Weak::upgrade);
        let durability = engine
            .as_ref()
            .map(|e| e.durability_stats())
            .unwrap_or_default();
        // Two loads, not one instant: saturate rather than wrap when a
        // connection retires in between.
        let connections = self.connections.load(Ordering::Relaxed);
        let on_workers = self.connections_on_workers.load(Ordering::Relaxed);
        let mut s = ServerStatsSnapshot {
            connections,
            connections_total: self.connections_total.load(Ordering::Relaxed),
            connections_on_workers: on_workers,
            connections_parked: connections.saturating_sub(on_workers),
            reactor_dispatches: self.reactor_dispatches.load(Ordering::Relaxed),
            hot_pumps: self.hot_pumps.load(Ordering::Relaxed),
            statements: self.queries.load(Ordering::Relaxed),
            statements_active: self.queries_active.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cancels: self.cancels.load(Ordering::Relaxed),
            draining: self.draining(),
            wal_bytes: durability.wal_bytes,
            last_checkpoint_epoch: durability.last_checkpoint_epoch,
            recovery_warm_hits: durability.recovery_warm_hits,
            read_only: durability.read_only,
            ..ServerStatsSnapshot::default()
        };
        let Some(engine) = engine else {
            return s;
        };
        let adm = engine.admission();
        s.queries_in_flight = adm.in_flight as u64;
        s.queue_depth = adm.queued as u64;
        s.subscriptions_active = engine.subscriptions_active() as u64;
        let statements = engine.statement_cache_stats();
        s.statement_cache_hits = statements.hits;
        s.statement_cache_misses = statements.misses;
        s.statement_cache_entries = statements.entries;
        if let Some(r) = engine.recycler() {
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            s.recycler_hits = load(&r.stats.reuses) + load(&r.stats.subsumption_reuses);
            s.recycler_lookups = load(&r.stats.queries);
            s.cache_entries = r.cache_len() as u64;
            s.cache_bytes = r.cache_used();
            s.invalidations = load(&r.stats.invalidations);
            s.hash_build_hits = load(&r.stats.hash_build_hits);
            s.repaired_hits = load(&r.stats.repaired);
            s.repair_fallbacks = load(&r.stats.repair_fallbacks);
            s.deltas_applied = load(&r.stats.deltas_applied);
        }
        s
    }
}

/// Plain-value snapshot of server statistics (also the row set of
/// `rdb_stats()`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Currently open connections.
    pub connections: u64,
    /// Connections ever accepted.
    pub connections_total: u64,
    /// Connections held by a pool thread right now (executing a statement
    /// or lingering for the next one).
    pub connections_on_workers: u64,
    /// Connections no thread holds: parked on the reactor, or on their way
    /// back to it.
    pub connections_parked: u64,
    /// Hand-offs of a readable connection from the reactor to the pool.
    pub reactor_dispatches: u64,
    /// Pumps served by a worker that had kept its connection — requests
    /// answered without a reactor trip.
    pub hot_pumps: u64,
    /// Statements executed.
    pub statements: u64,
    /// Statements currently executing or streaming.
    pub statements_active: u64,
    /// Statements that errored.
    pub errors: u64,
    /// Matched CancelRequests.
    pub cancels: u64,
    /// Queries holding an engine admission slot right now.
    pub queries_in_flight: u64,
    /// Queries waiting in the engine's admission queue.
    pub queue_depth: u64,
    /// Recycler reuses (exact + subsumption).
    pub recycler_hits: u64,
    /// Recycler lookups (prepared queries).
    pub recycler_lookups: u64,
    /// Cached results.
    pub cache_entries: u64,
    /// Bytes in the recycler cache.
    pub cache_bytes: u64,
    /// Cache entries evicted by DML.
    pub invalidations: u64,
    /// Queries served a cached hash-join build side (operator-state
    /// artifact) instead of rebuilding it.
    pub hash_build_hits: u64,
    /// Cache entries repaired in place from DML deltas instead of being
    /// evicted.
    pub repaired_hits: u64,
    /// Repair candidates that fell back to eviction.
    pub repair_fallbacks: u64,
    /// Non-empty DML deltas routed through the repair walk.
    pub deltas_applied: u64,
    /// Live query subscriptions registered on the engine right now.
    pub subscriptions_active: u64,
    /// Statement texts served from the engine's compiled-statement cache.
    pub statement_cache_hits: u64,
    /// Statement texts compiled (the cache missed).
    pub statement_cache_misses: u64,
    /// Compiled statements the cache holds.
    pub statement_cache_entries: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Bytes across all live WAL segments (0 without a data directory).
    pub wal_bytes: u64,
    /// Highest epoch covered by the last checkpoint.
    pub last_checkpoint_epoch: u64,
    /// Cache entries re-materialized from persisted lineage at boot.
    pub recovery_warm_hits: u64,
    /// Whether the engine degraded to read-only (WAL failure).
    pub read_only: bool,
}

impl ServerStatsSnapshot {
    /// Recycler hit rate over all lookups, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.recycler_lookups == 0 {
            0.0
        } else {
            self.recycler_hits as f64 / self.recycler_lookups as f64
        }
    }

    fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("connections", self.connections as f64),
            ("connections_total", self.connections_total as f64),
            ("connections_on_workers", self.connections_on_workers as f64),
            ("connections_parked", self.connections_parked as f64),
            ("reactor_dispatches", self.reactor_dispatches as f64),
            ("hot_pumps", self.hot_pumps as f64),
            ("statements", self.statements as f64),
            ("statements_active", self.statements_active as f64),
            ("errors", self.errors as f64),
            ("cancels", self.cancels as f64),
            ("queries_in_flight", self.queries_in_flight as f64),
            ("queue_depth", self.queue_depth as f64),
            ("recycler_hits", self.recycler_hits as f64),
            ("recycler_lookups", self.recycler_lookups as f64),
            ("recycler_hit_rate", self.hit_rate()),
            ("cache_entries", self.cache_entries as f64),
            ("cache_bytes", self.cache_bytes as f64),
            ("invalidations", self.invalidations as f64),
            ("hash_build_hits", self.hash_build_hits as f64),
            ("repaired_hits", self.repaired_hits as f64),
            ("repair_fallbacks", self.repair_fallbacks as f64),
            ("deltas_applied", self.deltas_applied as f64),
            ("subscriptions_active", self.subscriptions_active as f64),
            ("statement_cache_hits", self.statement_cache_hits as f64),
            ("statement_cache_misses", self.statement_cache_misses as f64),
            (
                "statement_cache_entries",
                self.statement_cache_entries as f64,
            ),
            ("draining", if self.draining { 1.0 } else { 0.0 }),
            ("wal_bytes", self.wal_bytes as f64),
            ("last_checkpoint_epoch", self.last_checkpoint_epoch as f64),
            ("recovery_warm_hits", self.recovery_warm_hits as f64),
            ("read_only", if self.read_only { 1.0 } else { 0.0 }),
        ]
    }
}

/// The `rdb_stats()` table function: `(metric str, value float)` rows.
/// Declared volatile, so results bypass the recycler entirely.
pub struct StatsFn {
    pub(crate) shared: Arc<ServerShared>,
}

impl TableFunction for StatsFn {
    fn schema(&self, _args: &[Value]) -> Schema {
        Schema::from_pairs([("metric", DataType::Str), ("value", DataType::Float)])
    }

    fn execute(&self, _args: &[Value], work: &mut u64) -> Vec<Batch> {
        let rows = self.shared.snapshot().rows();
        *work += rows.len() as u64;
        let (names, values): (Vec<&str>, Vec<f64>) = rows.into_iter().unzip();
        vec![Batch::new(vec![
            Column::from_strs(names),
            Column::from_floats(values),
        ])]
    }

    fn volatile(&self) -> bool {
        true
    }
}

/// Wait until `pred` holds or `timeout` elapses, polling gently.
pub(crate) fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    while start.elapsed() < timeout {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    pred()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_expr::Params;
    use rdb_storage::{Catalog, TableBuilder};

    #[test]
    fn engine_counters_read_zero_once_the_engine_is_gone() {
        let mut catalog = Catalog::new();
        let mut t = TableBuilder::new("t", Schema::from_pairs([("k", DataType::Int)]), 1);
        t.push_row(vec![Value::Int(1)]);
        catalog.register(t.finish()).expect("register table");
        let engine = Engine::builder(Arc::new(catalog)).build();
        let shared = ServerShared::default();
        shared
            .engine
            .set(Arc::downgrade(&engine))
            .expect("engine set once");
        shared.connections_total.fetch_add(3, Ordering::Relaxed);
        let rows = engine
            .session()
            .sql("SELECT k FROM t", &Params::none())
            .expect("query runs");
        if let rdb_engine::SqlOutcome::Rows(handle) = rows {
            handle.for_each(drop);
        }
        assert_eq!(shared.snapshot().recycler_lookups, 1);

        drop(engine);
        let after = shared.snapshot();
        assert_eq!(after.recycler_lookups, 0, "nothing left to ask");
        assert_eq!(after.connections_total, 3, "the server's own counters stay");
    }
}
