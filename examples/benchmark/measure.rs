//! Measurement primitives: order statistics over samples, the process's
//! CPU time and peak RSS, what keeps a shared host out of the numbers
//! ([`Awake`], [`discount`]), and the per-run report every workload
//! fills in.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Microseconds of a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (nearest rank on the sorted samples); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The median; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// CPUs this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The two libc calls the benchmark needs and `std` does not offer: a CPU
/// clock finer than the 10 ms ticks of `/proc/self/stat`, and the
/// scheduling class of the [`Awake`] threads. Linux only, like the `/proc`
/// files read below.
mod sys {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    #[repr(C)]
    struct SchedParam {
        priority: c_int,
    }

    extern "C" {
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
        fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    const SCHED_IDLE: c_int = 5;

    /// Nanoseconds on `clock`; 0 if the kernel refuses it.
    pub fn clock_ns(clock: c_int) -> u64 {
        let mut time = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `time` is a live, writable `struct timespec` (two C
        // longs on every 64-bit Linux libc), which is all the call needs.
        let rc = unsafe { clock_gettime(clock, &mut time) };
        if rc == 0 {
            time.sec as u64 * 1_000_000_000 + time.nsec as u64
        } else {
            0
        }
    }

    /// Move the calling thread to `SCHED_IDLE`: it runs only while nothing
    /// else wants its CPU. False if the kernel refuses.
    pub fn idle_priority() -> bool {
        let param = SchedParam { priority: 0 };
        // SAFETY: pid 0 names the calling thread, and `param` is a live
        // `struct sched_param` (one C int) for the duration of the call.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
}

/// CPU nanoseconds the [`Awake`] threads have burned: the harness's, not
/// the program's.
static SPUN_NS: AtomicU64 = AtomicU64::new(0);

/// CPU seconds (user + system) of this process so far, every thread dead
/// or alive, less what the [`Awake`] threads burned.
pub fn cpu_seconds() -> f64 {
    let all = sys::clock_ns(sys::CLOCK_PROCESS_CPUTIME_ID);
    all.saturating_sub(SPUN_NS.load(Ordering::Relaxed)) as f64 / 1e9
}

/// User and system CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100). The
/// [`Awake`] threads spend nearly all their time in user mode, so theirs
/// is taken out of the user share.
pub fn cpu_user_sys_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let field = |n: usize| -> f64 {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    let spun = SPUN_NS.load(Ordering::Relaxed) as f64 / 1e9;
    ((field(14) - spun).max(0.0), field(15))
}

/// Keeps the machine's CPUs from going idle while a workload runs: one
/// thread per CPU that spins at `SCHED_IDLE`, so it runs only while no
/// other thread wants the CPU and yields the moment one does.
///
/// The sandbox is a small virtual machine on a host that runs more
/// virtual CPUs than it has cores. A virtual CPU that goes idle gives its
/// core away and waits for the host to schedule it again when work
/// arrives, which takes up to milliseconds and is counted as `steal`. A
/// server between statements idles thousands of times a second: with two
/// connections `dash_hits` saw 10–40 % of its CPU time stolen and its
/// median latency doubled, for minutes at a time, while the same
/// statements with the CPUs kept busy saw next to none. What the host does to
/// a sleeping guest is not a property of the program under test, so the
/// benchmark takes it out — the equivalent of booting with `idle=poll`.
/// The spinners' CPU time is accounted in [`SPUN_NS`] and left out of
/// every CPU number reported.
pub struct Awake {
    stop: Arc<AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

/// Whether the process's control group caps its CPU time (cgroup v2's
/// `cpu.max`, v1's `cpu.cfs_quota_us`): spinning would use the quota up
/// and get the program throttled with it.
fn cpu_quota() -> bool {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let v2 = read("/sys/fs/cgroup/cpu.max");
    let v1 = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    v2.split_whitespace().next().is_some_and(|q| q != "max")
        || v1.trim().parse::<i64>().is_ok_and(|q| q > 0)
}

impl Awake {
    pub fn start() -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = if cpu_quota() {
            eprintln!("note: CPU quota in force, the CPUs are left to idle");
            0
        } else {
            cores()
        };
        let spinners = (0..cpus)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    // At normal priority the spinner would take a share
                    // of the CPU from the program: rather not spin.
                    if !sys::idle_priority() {
                        eprintln!("note: SCHED_IDLE refused, a CPU is left to idle");
                        return;
                    }
                    let mut seen = sys::clock_ns(sys::CLOCK_THREAD_CPUTIME_ID);
                    while !stop.load(Ordering::Relaxed) {
                        // Tens of microseconds between clock readings.
                        for _ in 0..2_000 {
                            std::hint::spin_loop();
                        }
                        let now = sys::clock_ns(sys::CLOCK_THREAD_CPUTIME_ID);
                        SPUN_NS.fetch_add(now.saturating_sub(seen), Ordering::Relaxed);
                        seen = now;
                    }
                })
            })
            .collect();
        Awake { stop, spinners }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// Seconds the hypervisor ran something else while this machine had work
/// to do, summed over all CPUs since boot (`steal`, field 8 of the first
/// line of `/proc/stat`).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.0)
        / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
        / 1024.0
}

/// One measured slice of a workload, a second or less: its statement
/// latencies, wall time, the CPU the whole process burned and the CPU the
/// hypervisor withheld meanwhile.
#[derive(Debug, Default)]
pub struct Round {
    /// Read-statement latencies in microseconds.
    pub stmt_us: Vec<f64>,
    /// Statements attempted (reads and writes).
    pub statements: usize,
    /// Wall seconds of the round.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) during the round.
    pub cpu_s: f64,
    /// Seconds of CPU the hypervisor withheld from the machine meanwhile.
    pub steal_s: f64,
    /// The process's peak RSS so far, read when the round ended.
    pub peak_rss_mb: f64,
}

/// Share of the machine's CPU time the hypervisor withheld during `r`.
fn stolen_share(r: &Round) -> f64 {
    r.steal_s / (r.wall_s * cores() as f64)
}

/// The factor that takes the stolen CPU time out of a reading of round
/// `r`: `exp(-cpus · share)`, where `cpus` is how many CPUs the reading
/// waits for.
///
/// With the CPUs kept busy ([`Awake`]) the host still preempts them when
/// its other guests want the cores: hardly ever on a calm day, a third of
/// the time on a bad one, in bursts of seconds. What the neighbours do is
/// not a property of the program, so the measuring time is cut into rounds
/// of a second or less, each with its own reading of `steal`, and each
/// round's numbers are discounted by what was stolen during that round
/// before the median over the rounds is taken.
///
/// A reading taken on one thread — a latency, or CPU time, since the
/// guest's clocks run on while its CPU is away — is long by the share of
/// the time its own CPU was away: `cpus` = 1. A closed loop stalls while
/// either side's CPU is away (the one left is of little use while the
/// thread everyone waits for sits on the other), so the time per
/// statement is long by the shares of all CPUs together: `cpus` =
/// [`cores`]. The exponential equals `1 - cpus · share` for small shares
/// and stays positive for large ones. README, "Steadiness", has the
/// spreads measured with and without the discount.
fn discount(r: &Round, cpus: usize) -> f64 {
    (-(cpus as f64) * stolen_share(r)).exp()
}

impl Round {
    /// The round's wall seconds with the stolen time taken out, for a
    /// round that is one timing: a set-up, which like a closed loop
    /// stalls while either CPU is away. (A set-up that took 0.34 s on a
    /// calm host took 1.06 s with 46 % stolen and 2.45 s with 77 %; over
    /// eight runs of one seed the median of five set-ups spread 0.58 as
    /// read and 0.12 with the stolen time out.)
    pub fn wall_less_stolen_s(&self) -> f64 {
        self.wall_s * discount(self, cores())
    }
}

/// Starts a [`Round`]: wall clock and CPU baseline.
pub struct RoundClock {
    started: Instant,
    cpu0: f64,
    steal0: f64,
}

impl RoundClock {
    pub fn start() -> RoundClock {
        RoundClock {
            started: Instant::now(),
            cpu0: cpu_seconds(),
            steal0: steal_seconds(),
        }
    }

    /// Close the round over the given read latencies and statement count.
    pub fn finish(self, stmt_us: Vec<f64>, statements: usize) -> Round {
        Round {
            stmt_us,
            statements,
            wall_s: self.started.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu0,
            steal_s: steal_seconds() - self.steal0,
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// What one benchmark run produced: counts for the result line, metric
/// values by name, and the sample count behind each timing.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (statements, plus oracle and guard checks).
    pub attempted: u64,
    /// Operations that failed: an error reply, a result the oracle
    /// rejects, a guard that does not hold.
    pub failed: u64,
    /// Why each failure happened, for the log.
    pub failures: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Metric name → number of samples behind the value.
    pub samples: BTreeMap<&'static str, usize>,
    /// Free-form lines for the log (host facts, caveats).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric computed from `n` samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, n);
    }

    /// Record a failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Count one checked operation; a false `ok` fails it with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// The end-to-end metrics every workload reports: each is computed
    /// per round with the round's stolen CPU time taken out (see
    /// [`discount`]), and the run's value is the median over the rounds.
    /// `setup_s` is set by the caller. `peak_rss_mb` is the high-water
    /// mark when round `rss_after_rounds` ended (or the last, if there
    /// are fewer): a fixed amount of work, so that a faster run, with more
    /// rounds in its time, does not report more memory.
    pub fn set_end_to_end(&mut self, rounds: &[Round], rss_after_rounds: usize) {
        self.notes.push(format!(
            "{} rounds (stolen % of CPU time, p50 us, p95 us, statements/s, CPU us/statement, peak RSS MiB): {}",
            rounds.len(),
            rounds
                .iter()
                .map(|r| format!(
                    "{:.1}/{:.0}/{:.0}/{:.0}/{:.0}/{:.0}",
                    stolen_share(r) * 100.0,
                    quantile(&r.stmt_us, 0.50),
                    quantile(&r.stmt_us, 0.95),
                    r.statements as f64 / r.wall_s,
                    r.cpu_s * 1e6 / r.statements as f64,
                    r.peak_rss_mb
                ))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let reads: usize = rounds.iter().map(|r| r.stmt_us.len()).sum();
        let stmts: usize = rounds.iter().map(|r| r.statements).sum();
        // (median over the rounds as read, with the stolen time taken out)
        let over_rounds = |cpus: usize, f: &dyn Fn(&Round) -> f64| -> (f64, f64) {
            let as_read: Vec<f64> = rounds.iter().map(f).collect();
            let discounted: Vec<f64> = rounds.iter().map(|r| f(r) * discount(r, cpus)).collect();
            (median(&as_read), median(&discounted))
        };
        let p50 = over_rounds(1, &|r| quantile(&r.stmt_us, 0.50));
        let cpu_ms = over_rounds(1, &|r| r.cpu_s * 1e3 / r.statements as f64);
        // Throughput is discounted as time per statement, which is what
        // stolen time adds to.
        let s_per_stmt = over_rounds(cores(), &|r| r.wall_s / r.statements as f64);
        self.notes.push(format!(
            "medians with the stolen time left in: stmt_p50_us {:.4}, cpu_ms_per_stmt {:.4}, stmts_per_s {:.4}",
            p50.0,
            cpu_ms.0,
            1.0 / s_per_stmt.0
        ));
        self.set("stmt_p50_us", p50.1, reads);
        self.set("cpu_ms_per_stmt", cpu_ms.1, stmts);
        self.set("stmts_per_s", 1.0 / s_per_stmt.1, stmts);
        let rss_round = &rounds[rss_after_rounds.min(rounds.len()) - 1];
        self.set("peak_rss_mb", rss_round.peak_rss_mb, 1);
    }

    /// Tail latencies and process CPU, reported under `client.` and
    /// `process.` but never gated: with two cores on a shared host the
    /// tail measures the neighbours. Over ten seeds of 20 s runs the
    /// per-round p95, discounted like the median, still spread 5–22 %,
    /// more than the widest bound the issue allows (15 %).
    pub fn set_client_tail(&mut self, rounds: &[Round]) {
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.stmt_us.iter().copied())
            .collect();
        self.set("client.stmt_p95_us", quantile(&all, 0.95), all.len());
        self.set("client.stmt_p99_us", quantile(&all, 0.99), all.len());
        self.set("client.stmt_max_us", quantile(&all, 1.0), all.len());
        let (user, sys) = cpu_user_sys_seconds();
        self.set("process.cpu_user_s", user, 1);
        self.set("process.cpu_sys_s", sys, 1);
    }
}
