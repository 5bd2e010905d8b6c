//! The server proper: listener, readiness reactor, connection-handler
//! pool, graceful shutdown.
//!
//! # Threading model
//!
//! A connection is in one of two places. **Parked** connections belong to
//! the one **reactor** thread, which also owns the listener: it accepts
//! new sockets and sweeps the parked set with a nonblocking `peek`. A
//! connection with readable bytes (or EOF) is handed to the shared
//! [`WorkerPool`], and from then on it is **on a worker**: the pool thread
//! pumps it — one blocking `read`, every complete frame answered, one
//! flush — and then *keeps* it, asleep in the kernel on the socket, for up
//! to `LINGER`. The next request of a client in a request/reply loop
//! wakes that same thread directly; no sweep, no hand-off, no channel trip
//! stands between a statement and the hit that serves it. A connection
//! goes back to the reactor when it stays quiet for one linger, or at once
//! after a pump when the pool is *crowded* — more connections on workers
//! than the pool has resident threads — because a lingering worker would
//! then be a thread that another connection's request has to spawn.
//!
//! So a parked connection costs a map entry and one `peek` per sweep,
//! never a thread: thousands of mostly-idle clients sit on the reactor
//! while threads go to the connections that are talking, and past the
//! pool's size every request is one pump per hand-off. Past its size the
//! pool overflows rather than queues (see `rdb_exec::pool`), so neither a
//! slow statement nor a lingering worker delays another connection's
//! pump; up to its size the reactor counts the residents out itself
//! (*seats*, see `dispatch`), so a connection on its way back finds the
//! resident it left instead of a thread spawned in the gap. Between
//! sweeps the reactor waits on the channel connections come back through,
//! so a returning connection gets its `peek` at once.
//!
//! Which thread keeps which connection is not for keeps. Pool threads
//! stay on the CPU they last ran on, and a client on the same machine
//! pays for every wake that crosses CPUs, so a seating is a draw — and
//! once drawn it would last as long as both sides keep talking. While two
//! or more connections are kept, the reactor therefore calls them all
//! back every `RESEAT`: each returns after the pump it is in and is dealt
//! out again with its next request, last back first, to the resident
//! longest idle — to another thread than before if another is free. Over
//! any stretch longer than a few deals every connection has then sat
//! everywhere, and what a client sees is the mean of the draws and not
//! one of them.
//!
//! The socket's mode follows its place — nonblocking while parked,
//! blocking with the linger as read timeout while on a worker — and
//! changes only at the hand-off (see `conn.rs`).
//!
//! # Backpressure
//!
//! Per connection and bounded on both sides: a worker reads one chunk per
//! wake and answers every complete frame before reading again, so at most
//! one partial frame is buffered and a firehosing client waits in the
//! kernel buffer; responses accumulate in a bounded encode buffer flushed
//! with *blocking* writes — a client that stops reading stalls exactly
//! its own statement via the TCP window. A client that sends half a frame
//! and stalls holds a worker for one linger, then parks like any quiet
//! connection until the rest arrives.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] drains: the reactor stops accepting, idle
//! connections are closed with `57P01`, and statements already executing
//! run to completion — no result in flight is lost. A lingering
//! connection is idle: its worker parks it within one linger (or right
//! after the statement it was serving), and the reactor closes it like
//! the rest. Connections still busy past the drain deadline are aborted
//! (cancel flag + socket shutdown, which also ends a blocked read or
//! write). Dropping the server shuts it down with a default deadline and
//! then shuts its engine down, which joins the checkpointer; the engine
//! is freed with the last reference to it.

use std::hash::{BuildHasher, Hasher};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// How long a worker keeps a connection that has gone quiet, blocked in
/// the kernel on its socket, before parking it on the reactor. Long
/// enough to cover a client's turnaround between a reply and its next
/// request; short enough that a client that stops talking (or stalls
/// mid-frame) gives the thread back, and shutdown finds it idle, within
/// a few milliseconds.
pub(crate) const LINGER: Duration = Duration::from_millis(5);

/// How often the reactor calls the kept connections back to seat them
/// afresh, once two or more are kept.
///
/// Pool threads stay on the CPU they ran on last, so where a connection is
/// seated decides what its statements cost: a client on the same machine
/// and its worker wake each other, and the trip is cheap when the two
/// share a CPU and dear when they do not (two cores, one local client
/// each: ~160 µs against ~250 µs a statement). Left alone a seating lasts
/// for seconds, and what a client sees is the seating it drew. Dealing the
/// kept connections out again this often lets none of them keep a lucky or
/// an unlucky seat for long; each pays one sweep wait per `RESEAT` for it.
const RESEAT: Duration = Duration::from_millis(8);

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
        let _ = shared.engine.set(Arc::downgrade(&engine));

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
        // The server built this engine and nothing serves from it any
        // more: stop its checkpointer here, where a successor opening the
        // same data directory can rely on it.
        self.engine.shutdown();
    }
}

/// The reactor: accept, sweep, dispatch, drain. Owns the listener and all
/// parked connections; the others live on pool threads and come back
/// through the channel.
fn reactor_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    engine: Arc<Engine>,
    pool: Arc<WorkerPool>,
) {
    let (tx, rx): (Sender<Conn>, Receiver<Conn>) = std::sync::mpsc::channel();
    let mut parked: Vec<Conn> = Vec::new();
    let mut next_pid: i32 = 1;
    let secret_seed = std::collections::hash_map::RandomState::new();
    let mut reseat_at = Instant::now() + RESEAT;

    loop {
        let draining = shared.draining();
        // Read before the channel is drained: a worker sends its
        // connection back *before* it counts itself out, so a zero seen
        // here means everything that will ever come back is in the channel.
        let workers_done = shared.connections_on_workers.load(Ordering::Acquire) == 0;
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
                            parked.push(conn);
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
            parked.push(conn);
        }

        // 3. Draining: parked connections are closed, not kept.
        if draining {
            for mut conn in parked.drain(..) {
                conn.close_for_shutdown();
                retire(&shared, conn.pid());
            }
            if workers_done {
                shared.state.store(STATE_STOPPED, Ordering::Release);
                return;
            }
        } else {
            // 4. Sweep: dispatch every readable (or dead) parked connection,
            // last come first served. Residents are woken longest idle
            // first, so of the connections that came back since the last
            // sweep none goes to the thread it came from if another is free.
            for i in (0..parked.len()).rev() {
                if readable(&parked[i]) {
                    progressed = true;
                    let conn = parked.swap_remove(i);
                    dispatch(conn, &pool, &tx, &shared);
                }
            }
            // Time for a new deal (see `RESEAT`)? One kept connection has
            // nobody to change seats with.
            let now = Instant::now();
            if now >= reseat_at {
                reseat_at = now + RESEAT;
                if shared.connections_on_workers.load(Ordering::Acquire) >= 2 {
                    shared.reseat.fetch_add(1, Ordering::Release);
                }
            }
        }

        // 5. Nothing moved: wait a sweep interval, or less — a connection
        // coming back wakes the reactor at once, and gets its `peek` (or,
        // draining, its `57P01`) without waiting out the pause.
        if !progressed {
            if let Ok(conn) = rx.recv_timeout(SWEEP_PAUSE) {
                parked.push(conn);
            }
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

/// Hand a readable connection to a pool thread, which pumps it for as
/// long as requests keep arriving within [`LINGER`] of each other, the
/// pool is not crowded and the reactor has not called for a new deal. The
/// connection comes back via `tx` unless it closed.
///
/// The job takes a *seat* — one of the pool's resident threads — if one
/// is left, and is then queued for it; only past the last seat does the
/// pool spawn. A resident that has just sent its connection back is
/// still a few instructions short of idle, and the pool, asked then,
/// would start a thread for the next request (and the allocator an arena
/// for the thread) while the resident it was meant for goes to sleep. The
/// seat count is the server's own and exact: a job gives its seat up
/// before it gives its connection up.
fn dispatch(conn: Conn, pool: &Arc<WorkerPool>, tx: &Sender<Conn>, shared: &Arc<ServerShared>) {
    /// Counts the connection off its worker, gives the seat back — and,
    /// unless the connection went back to the reactor, retires it — when
    /// dropped, so a panicking `pump` cannot leave shutdown waiting for a
    /// count that never reaches zero, a seat nobody sits on, or a cancel
    /// entry for a connection nobody serves.
    struct OnWorker {
        shared: Arc<ServerShared>,
        pid: Option<i32>,
        seated: bool,
    }
    impl OnWorker {
        fn unseat(&mut self) {
            if std::mem::take(&mut self.seated) {
                self.shared.seats_taken.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
    impl Drop for OnWorker {
        fn drop(&mut self) {
            self.unseat();
            if let Some(pid) = self.pid {
                retire(&self.shared, pid);
            }
            self.shared
                .connections_on_workers
                .fetch_sub(1, Ordering::AcqRel);
        }
    }
    let residents = pool.size() as u64;
    // Only the reactor takes seats, so what it reads it can take.
    let seated = shared.seats_taken.load(Ordering::Acquire) < residents;
    if seated {
        shared.seats_taken.fetch_add(1, Ordering::AcqRel);
    }
    shared.reactor_dispatches.fetch_add(1, Ordering::Relaxed);
    shared.connections_on_workers.fetch_add(1, Ordering::AcqRel);
    let on_worker = OnWorker {
        shared: Arc::clone(shared),
        pid: Some(conn.pid()),
        seated,
    };
    let tx = tx.clone();
    let job = Box::new(move || {
        // Bound here, guard first, so that the job ending or unwinding
        // drops the connection (and its hold on the engine) before the
        // guard counts it out: once the count is zero nothing of this
        // connection is left.
        let mut on_worker = on_worker;
        let mut conn = conn;
        let shared = Arc::clone(&on_worker.shared);
        if conn.attach().is_err() {
            return;
        }
        let deal = shared.reseat.load(Ordering::Acquire);
        let mut kept = false;
        loop {
            match conn.pump() {
                Pump::Closed => return,
                Pump::Quiet => break,
                Pump::Idle => {}
            }
            if kept {
                shared.hot_pumps.fetch_add(1, Ordering::Relaxed);
            }
            // Keep the connection only while every connection on a worker
            // can have a resident thread: beyond that a lingering worker
            // would be one some other connection's request has to spawn.
            let crowded = shared.connections_on_workers.load(Ordering::Acquire) > residents;
            if crowded || shared.draining() || shared.reseat.load(Ordering::Acquire) != deal {
                break;
            }
            kept = true;
        }
        if conn.park().is_ok() {
            // The reactor only exits after the count drops to zero, so the
            // receiver is still alive; a failed send can only mean
            // teardown, where dropping the conn is correct.
            on_worker.pid = None;
            on_worker.unseat();
            drop(tx.send(conn));
        }
    });
    if seated {
        pool.queue(job);
    } else {
        pool.run(job);
    }
}

/// Remove a finished connection's cancel entry and count it out.
fn retire(shared: &ServerShared, pid: i32) {
    shared.cancel_registry.lock().remove(&pid);
    shared.connections.fetch_sub(1, Ordering::Relaxed);
}
