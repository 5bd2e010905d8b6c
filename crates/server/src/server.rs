//! The server proper: listener, readiness reactor, connection-handler
//! pool, graceful shutdown.
//!
//! # Threading model
//!
//! One **reactor** thread owns the listener and every *idle* connection.
//! It accepts new sockets (nonblocking) and sweeps the idle set with
//! `peek` — a connection with readable bytes (or EOF) is handed to the
//! shared [`WorkerPool`], pumped until its input has no complete frame,
//! and sent back. Idle connections therefore cost a map entry and one
//! `peek` per sweep, not a thread: thousands of mostly-idle clients park
//! on the reactor while the pool's threads serve only the active ones.
//! The pool overflows rather than queues (see `rdb_exec::pool`), so one
//! slow statement never delays another connection's pump behind it.
//!
//! # Backpressure
//!
//! Per connection and bounded on both sides: reads stop once a full
//! frame's worth of bytes is buffered, and responses accumulate in a
//! bounded encode buffer flushed with *blocking* writes — a client that
//! stops reading stalls exactly its own statement via the TCP window.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] drains: the reactor stops accepting, idle
//! connections are closed with `57P01`, and statements already executing
//! run to completion — no result in flight is lost. Connections still
//! busy past the drain deadline are aborted (cancel flag + socket
//! shutdown). Dropping the server shuts it down with a default deadline.

use std::hash::{BuildHasher, Hasher};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rdb_engine::{DurabilityConfig, Engine, EngineBuilder, IoFault};
use rdb_exec::{FnRegistry, WorkerPool};
use rdb_recycler::RecyclerConfig;
use rdb_storage::Catalog;

use crate::conn::{Conn, Pump};
use crate::stats::{
    wait_until, CancelEntry, ServerShared, ServerStatsSnapshot, StatsFn, STATE_DRAINING,
    STATE_RUNNING, STATE_STOPPED,
};

/// Reactor sweep interval while nothing is ready.
const SWEEP_PAUSE: Duration = Duration::from_micros(500);

/// Configure and start a [`Server`].
pub struct ServerBuilder {
    catalog: Arc<Catalog>,
    functions: FnRegistry,
    recycler: Option<RecyclerConfig>,
    max_concurrent: usize,
    admission_queue_limit: usize,
    parallelism: usize,
    workers: usize,
    addr: String,
    data_dir: Option<std::path::PathBuf>,
    durability: DurabilityConfig,
    io_fault: Option<Arc<dyn IoFault>>,
}

impl ServerBuilder {
    /// A server over `catalog` with recycling on (default config), bound
    /// to an ephemeral localhost port.
    pub fn new(catalog: Arc<Catalog>) -> ServerBuilder {
        ServerBuilder {
            catalog,
            functions: FnRegistry::new(),
            recycler: Some(RecyclerConfig::default()),
            max_concurrent: 12,
            admission_queue_limit: 256,
            parallelism: 1,
            workers: 8,
            addr: "127.0.0.1:0".to_string(),
            data_dir: None,
            durability: DurabilityConfig::default(),
            io_fault: None,
        }
    }

    /// Serve durably out of `dir`: recover it at startup, write-ahead log
    /// every commit, and checkpoint in the background (see
    /// `EngineBuilder::data_dir`).
    pub fn data_dir(mut self, dir: impl Into<std::path::PathBuf>) -> ServerBuilder {
        self.data_dir = Some(dir.into());
        self
    }

    /// Tune durability (fsync policy, checkpoint cadence); only meaningful
    /// with [`ServerBuilder::data_dir`].
    pub fn durability(mut self, config: DurabilityConfig) -> ServerBuilder {
        self.durability = config;
        self
    }

    /// Inject an I/O fault schedule into the WAL writer (fault testing).
    pub fn io_fault(mut self, fault: Arc<dyn IoFault>) -> ServerBuilder {
        self.io_fault = Some(fault);
        self
    }

    /// Table functions to expose (the server adds `rdb_stats()` on top).
    pub fn functions(mut self, functions: FnRegistry) -> ServerBuilder {
        self.functions = functions;
        self
    }

    /// Recycler configuration (defaults to [`RecyclerConfig::default`]).
    pub fn recycler(mut self, config: RecyclerConfig) -> ServerBuilder {
        self.recycler = Some(config);
        self
    }

    /// Disable recycling.
    pub fn no_recycler(mut self) -> ServerBuilder {
        self.recycler = None;
        self
    }

    /// Engine admission limit (concurrently *executing* queries).
    pub fn max_concurrent_queries(mut self, n: usize) -> ServerBuilder {
        self.max_concurrent = n.max(1);
        self
    }

    /// Bound on the engine's FIFO admission wait queue; arrivals past it
    /// are rejected with SQLSTATE `53300` instead of queued.
    pub fn admission_queue_limit(mut self, n: usize) -> ServerBuilder {
        self.admission_queue_limit = n;
        self
    }

    /// Intra-query parallelism (the engine's default DOP).
    pub fn parallelism(mut self, n: usize) -> ServerBuilder {
        self.parallelism = n.max(1);
        self
    }

    /// Resident connection-handler threads. Active connections beyond
    /// this run on overflow threads; idle ones cost no thread at all.
    pub fn workers(mut self, n: usize) -> ServerBuilder {
        self.workers = n.max(1);
        self
    }

    /// Listen address (default `127.0.0.1:0`).
    pub fn addr(mut self, addr: impl Into<String>) -> ServerBuilder {
        self.addr = addr.into();
        self
    }

    /// Build the engine, bind the listener, and start serving.
    pub fn serve(self) -> std::io::Result<Server> {
        let shared = Arc::new(ServerShared::default());
        let mut functions = self.functions;
        functions.register(
            "rdb_stats",
            Arc::new(StatsFn {
                shared: Arc::clone(&shared),
            }),
        );
        let mut builder = EngineBuilder::new(self.catalog)
            .functions(Arc::new(functions))
            .max_concurrent_queries(self.max_concurrent)
            .admission_queue_limit(self.admission_queue_limit)
            .parallelism(self.parallelism);
        builder = match self.recycler {
            Some(config) => builder.recycler(config),
            None => builder.no_recycler(),
        };
        if let Some(dir) = self.data_dir {
            builder = builder.data_dir(dir).durability(self.durability);
        }
        if let Some(fault) = self.io_fault {
            builder = builder.io_fault(fault);
        }
        let engine = builder
            .try_build()
            .map_err(|e| std::io::Error::other(format!("engine build failed: {e}")))?;
        let _ = shared.engine.set(Arc::clone(&engine));

        let listener = TcpListener::bind(&self.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let pool = WorkerPool::new(self.workers);
        let reactor = {
            let shared = Arc::clone(&shared);
            let engine = Arc::clone(&engine);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("rdb-reactor".to_string())
                .spawn(move || reactor_loop(listener, shared, engine, pool))
                .expect("spawn reactor thread")
        };
        Ok(Server {
            shared,
            engine,
            addr,
            reactor: Some(reactor),
            _pool: pool,
        })
    }
}

/// A running pgwire server. See the module docs for the threading model.
pub struct Server {
    shared: Arc<ServerShared>,
    engine: Arc<Engine>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    _pool: Arc<WorkerPool>,
}

impl Server {
    /// The bound address (useful with the default ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the wire (same instance every connection talks
    /// to — embedded sessions share its recycler cache with wire ones).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Point-in-time server statistics (the `rdb_stats()` row set).
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.snapshot()
    }

    /// Gracefully shut down: stop accepting, close idle connections,
    /// let executing statements finish, abort whatever is still running
    /// after `drain`. Idempotent.
    pub fn shutdown(&mut self, drain: Duration) {
        let was = self
            .shared
            .state
            .compare_exchange(
                STATE_RUNNING,
                STATE_DRAINING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if was {
            let shared = Arc::clone(&self.shared);
            if !wait_until(drain, || shared.state() == STATE_STOPPED) {
                // Past the deadline: force every straggler off. Their
                // statement loops see the cancel flag at the next batch,
                // and severed sockets unblock any write in progress.
                shared.abort_all();
            }
        }
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(5));
    }
}

/// The reactor: accept, sweep, dispatch, drain. Owns the listener and all
/// idle connections; active connections live on pool threads and come
/// back through the channel.
fn reactor_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    engine: Arc<Engine>,
    pool: Arc<WorkerPool>,
) {
    let (tx, rx): (Sender<Conn>, Receiver<Conn>) = std::sync::mpsc::channel();
    let mut idle: Vec<Conn> = Vec::new();
    // Connections currently on a pool thread. The reactor may only exit
    // once these have all come back (or retired).
    let active = Arc::new(AtomicU64::new(0));
    let mut next_pid: i32 = 1;
    let secret_seed = std::collections::hash_map::RandomState::new();

    loop {
        let draining = shared.draining();
        let mut progressed = false;

        // 1. Accept (until draining).
        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progressed = true;
                        let pid = next_pid;
                        next_pid = next_pid.wrapping_add(1).max(1);
                        let mut h = secret_seed.build_hasher();
                        h.write_i32(pid);
                        let secret = h.finish() as i32;
                        let flag = Arc::new(AtomicBool::new(false));
                        if let Ok(conn) = Conn::new(
                            stream,
                            pid,
                            secret,
                            Arc::clone(&flag),
                            Arc::clone(&shared),
                            Arc::clone(&engine),
                        ) {
                            shared.cancel_registry.lock().insert(
                                pid,
                                CancelEntry {
                                    secret,
                                    flag,
                                    stream: conn.stream().try_clone().ok(),
                                },
                            );
                            shared.connections.fetch_add(1, Ordering::Relaxed);
                            shared.connections_total.fetch_add(1, Ordering::Relaxed);
                            idle.push(conn);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // 2. Collect connections coming back from pool threads.
        while let Ok(conn) = rx.try_recv() {
            progressed = true;
            idle.push(conn);
        }

        // 3. Draining: idle connections are closed, not kept.
        if draining {
            for mut conn in idle.drain(..) {
                conn.close_for_shutdown();
                retire(&shared, conn.pid());
            }
            if active.load(Ordering::Acquire) == 0 {
                shared.state.store(STATE_STOPPED, Ordering::Release);
                return;
            }
            std::thread::sleep(SWEEP_PAUSE);
            continue;
        }

        // 4. Sweep: dispatch every readable (or dead) idle connection.
        let mut i = 0;
        while i < idle.len() {
            if readable(&idle[i]) {
                progressed = true;
                let conn = idle.swap_remove(i);
                dispatch(conn, &pool, &tx, &shared, &active);
            } else {
                i += 1;
            }
        }

        if !progressed {
            std::thread::sleep(SWEEP_PAUSE);
        }
    }
}

/// Whether a nonblocking `peek` reports bytes, EOF, or an error — anything
/// a pump should look at.
fn readable(conn: &Conn) -> bool {
    let mut b = [0u8; 1];
    match conn.stream().peek(&mut b) {
        Ok(_) => true,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    }
}

/// Run one pump on a pool thread; the connection comes back via `tx`
/// unless it closed.
fn dispatch(
    mut conn: Conn,
    pool: &Arc<WorkerPool>,
    tx: &Sender<Conn>,
    shared: &Arc<ServerShared>,
    active: &Arc<AtomicU64>,
) {
    /// Counts the pump out — and, unless the connection went back to the
    /// reactor, retires it — when dropped, so a panicking `pump` cannot
    /// leave shutdown waiting for an `active` count that never reaches
    /// zero or a cancel entry for a connection nobody serves.
    struct InFlight {
        shared: Arc<ServerShared>,
        active: Arc<AtomicU64>,
        pid: Option<i32>,
    }
    impl Drop for InFlight {
        fn drop(&mut self) {
            if let Some(pid) = self.pid {
                retire(&self.shared, pid);
            }
            self.active.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let tx = tx.clone();
    active.fetch_add(1, Ordering::AcqRel);
    let in_flight = InFlight {
        shared: Arc::clone(shared),
        active: Arc::clone(active),
        pid: Some(conn.pid()),
    };
    pool.run(Box::new(move || {
        // Bound here so the whole guard (not one field of it) moves into
        // the job and drops when the job ends or unwinds.
        let mut in_flight = in_flight;
        if let Pump::Idle = conn.pump() {
            // The reactor only exits after active drops to zero, so the
            // receiver is still alive; a failed send can only mean
            // teardown, where dropping the conn is correct.
            in_flight.pid = None;
            drop(tx.send(conn));
        }
    }));
}

/// Remove a finished connection's cancel entry and count it out.
fn retire(shared: &ServerShared, pid: i32) {
    shared.cancel_registry.lock().remove(&pid);
    shared.connections.fetch_sub(1, Ordering::Relaxed);
}
