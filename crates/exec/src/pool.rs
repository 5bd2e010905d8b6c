//! A small shared worker pool for intra-query parallelism.
//!
//! Morsel-driven pipelines (see [`crate::parallel`]) submit one job per
//! worker; each job loops over morsels until the shared dispenser runs dry,
//! so correctness never depends on how many pool threads actually pick the
//! jobs up — a saturated pool just runs them with less overlap.
//!
//! Two properties matter for the engine:
//!
//! * **No deadlock under nesting.** A job may block on other jobs (a hash
//!   join's shared build side can contain a nested parallel pipeline, and a
//!   pipeline job blocks on its gather channel under backpressure). A job
//!   is queued only when an idle worker can be *reserved* for it — the
//!   idle count and the queue live under one lock, and `queued ≤ idle`
//!   holds for everything [`WorkerPool::run`] submits — otherwise it
//!   spawns a fresh overflow thread. A job submitted that way never waits
//!   behind a blocked one. ([`WorkerPool::queue`] is the opt-out for a
//!   caller that owns the pool and does its own counting.)
//! * **Panic isolation.** A panicking job must not take the pool down with
//!   it: jobs run under `catch_unwind`, and the failure surfaces to the
//!   consumer through its closed result channel (the gather operator
//!   panics on the consumer thread, exactly like a serial operator would).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// A unit of pipeline work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<Job>,
    /// Workers currently blocked in `available.wait` (maintained under this
    /// same lock, so `run` reads an exact value).
    idle: usize,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// Fixed set of resident threads executing submitted jobs, with overflow
/// spawning when no resident is free. Dropping the pool joins the resident
/// threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    size: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish()
    }
}

impl WorkerPool {
    /// Pool with `size` resident worker threads (at least one).
    pub fn new(size: usize) -> Arc<WorkerPool> {
        let size = size.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rdb-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            threads: Mutex::new(threads),
            size,
        })
    }

    /// Number of resident threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `job` on an idle resident thread, or on a fresh overflow thread
    /// when none can be reserved (see module docs: a submitted job must
    /// never queue behind a job that may be blocked waiting for it).
    ///
    /// Overflow is deliberate, not an oversight: under heavy query
    /// concurrency most pipeline jobs will spawn rather than queue, which
    /// costs a thread spawn (~tens of µs against ms-scale pipelines) but
    /// buys *cross-query liveness isolation* — queueing a query's jobs
    /// behind another query's would let one client holding an undrained
    /// handle (whose workers sit blocked on gather backpressure) stall
    /// every other query on the pool.
    pub fn run(&self, job: Job) {
        {
            let mut q = self.shared.queue.lock();
            if q.jobs.len() < q.idle {
                q.jobs.push_back(job);
                self.shared.available.notify_one();
                return;
            }
        }
        std::thread::spawn(move || run_quietly(job));
    }

    /// Queue `job` for the next resident thread to come free, with no idle
    /// one reserved for it and no overflow thread spawned: for a caller
    /// that keeps count of what it has running here, knows a resident is
    /// on its way back, and would rather wait for that thread than start
    /// another. The job may sit behind a running one until then — which
    /// is why [`WorkerPool::run`] never does this on its own.
    pub fn queue(&self, job: Job) {
        self.shared.queue.lock().jobs.push_back(job);
        self.shared.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Under the queue lock, which a worker holds from checking the flag
        // to going to sleep: otherwise the wake-up can fall between the
        // two and the join below never returns.
        {
            let _q = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut q = shared.queue.lock();
    loop {
        if let Some(job) = q.jobs.pop_front() {
            drop(q);
            run_quietly(job);
            q = shared.queue.lock();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        q.idle += 1;
        shared.available.wait(&mut q);
        q.idle -= 1;
    }
}

/// Run a job, swallowing panics: the failure reaches the consumer through
/// the job's dropped channel sender, not by killing the pool thread.
fn run_quietly(job: Job) {
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
}

/// Run `jobs` on `pool`, or on plain spawned threads when the caller has no
/// pool (a per-session DOP override on an engine built without one).
pub fn run_jobs(pool: Option<&Arc<WorkerPool>>, jobs: Vec<Job>) {
    match pool {
        Some(pool) => {
            for job in jobs {
                pool.run(job);
            }
        }
        None => {
            for job in jobs {
                std::thread::spawn(move || run_quietly(job));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_pool_drains_on_drop() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..20 {
            let counter = counter.clone();
            let tx = tx.clone();
            pool.run(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            }));
        }
        drop(tx);
        for _ in 0..20 {
            rx.recv().expect("job completed");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 20);
        drop(pool); // must not hang
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.run(Box::new(|| panic!("job failure")));
        pool.run(Box::new(move || {
            let _ = tx.send(42);
        }));
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn saturated_pool_overflows_instead_of_queueing() {
        // One resident thread blocked on a nested dependency; the nested
        // job must still run (on an overflow thread), or this deadlocks.
        let pool = WorkerPool::new(1);
        let (inner_tx, inner_rx) = mpsc::channel();
        let (outer_tx, outer_rx) = mpsc::channel();
        let pool2 = Arc::clone(&pool);
        pool.run(Box::new(move || {
            pool2.run(Box::new(move || {
                let _ = inner_tx.send(());
            }));
            inner_rx.recv().expect("nested job ran");
            let _ = outer_tx.send(());
        }));
        outer_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("nested submission must not deadlock");
    }

    #[test]
    fn a_queued_job_waits_for_the_resident_instead_of_spawning() {
        let pool = WorkerPool::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (ran_tx, ran_rx) = mpsc::channel();
        let first = ran_tx.clone();
        pool.queue(Box::new(move || {
            gate_rx.recv().expect("gate opens");
            let _ = first.send(std::thread::current().id());
        }));
        // The only resident is taken: `run` would spawn, `queue` waits.
        pool.queue(Box::new(move || {
            let _ = ran_tx.send(std::thread::current().id());
        }));
        assert!(
            ran_rx
                .recv_timeout(std::time::Duration::from_millis(50))
                .is_err(),
            "nothing runs while the resident is held"
        );
        gate_tx.send(()).unwrap();
        let resident = ran_rx.recv().expect("held job finished");
        assert_eq!(ran_rx.recv().expect("queued job ran"), resident);
    }
}
