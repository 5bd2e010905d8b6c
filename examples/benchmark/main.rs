//! The repository's benchmark: four workloads over the recycling server,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one, a correctness oracle in the same command, and `compare`
//! as the regression gate. See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! benchmark compare <a.jsonl> <b.jsonl>
//! benchmark manifest
//! ```
//!
//! A run starts itself four more times with `--setup-only 1` to time the
//! workload's set-up in processes of their own (see [`timed_setup`]).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod adhoc_cold;
mod compare;
mod dash;
mod data;
mod layers;
mod ledger;
mod measure;
mod oracle;
mod pgclient;
mod tpch_streams;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::atomic::Ordering;

use rdb_engine::Engine;

use measure::{Report, RoundClock};

/// One statement in this many is kept and checked against the oracle.
pub const SAMPLE_EVERY: usize = 50;
/// Set-ups timed per benchmark run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// What a `--setup-only` child prints before its set-up time in seconds.
const SETUP_LINE: &str = "setup_s";

/// One benchmark run's arguments.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up, print the time it took and exit (see [`timed_setup`]).
    pub setup_only: bool,
    /// A directory of the run's own, for WAL directories.
    pub scratch: PathBuf,
}

impl Config {
    /// Seconds of rounds that feed the end-to-end and `client.` numbers.
    /// A traced run spends the rest of its time on the single-client
    /// replays.
    pub fn measuring_seconds(&self) -> f64 {
        self.seconds * if self.trace { 0.35 } else { 1.0 }
    }
}

/// Set up once in this process and return what was built with `setup_s`:
/// the median of this set-up's time and of [`SETUPS`]` - 1` more, each
/// timed in a child process of its own before this one starts.
///
/// The other set-ups cannot run here: an engine built by
/// `ServerBuilder::serve()` is never freed (README, "Findings"), so each
/// would leave its catalog, cache and checkpointer thread behind and
/// `peak_rss_mb` would measure the harness. A child (`--setup-only 1`)
/// prints its time and exits from inside this function.
pub fn timed_setup<T>(cfg: &Config, setup: impl FnOnce() -> T) -> (T, f64) {
    if cfg.setup_only {
        let clock = RoundClock::start();
        let built = setup();
        println!(
            "{SETUP_LINE} {}",
            clock.finish(Vec::new(), 0).wall_less_stolen_s()
        );
        drop(built);
        let _ = std::fs::remove_dir_all(&cfg.scratch);
        std::process::exit(0);
    }
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut times: Vec<f64> = (1..SETUPS)
        .map(|_| {
            let child = Command::new(&exe)
                .args(["--workload", &cfg.workload])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--setup-only", "1"])
                .output()
                .expect("a set-up child starts");
            let stdout = String::from_utf8_lossy(&child.stdout);
            stdout
                .lines()
                .find_map(|l| l.strip_prefix(SETUP_LINE)?.trim().parse::<f64>().ok())
                .unwrap_or_else(|| {
                    panic!(
                        "set-up child ({}) printed no time: {}",
                        child.status,
                        String::from_utf8_lossy(&child.stderr)
                    )
                })
        })
        .collect();
    let clock = RoundClock::start();
    let built = setup();
    times.push(clock.finish(Vec::new(), 0).wall_less_stolen_s());
    (built, measure::median(&times))
}

/// The recycler's counters and sizes, as per-layer metrics.
pub fn set_recycler_counts(report: &mut Report, engine: &Engine) {
    let Some(recycler) = engine.recycler() else {
        return;
    };
    let s = &recycler.stats;
    for (name, counter) in [
        ("core.exact_hits", &s.reuses),
        ("core.subsumption_hits", &s.subsumption_reuses),
        ("core.hash_build_hits", &s.hash_build_hits),
        ("core.agg_table_hits", &s.agg_table_hits),
        ("core.materializations", &s.materializations),
        ("core.stalls", &s.stalls),
        ("core.stale_rejections", &s.stale_rejections),
        ("delta.repaired", &s.repaired),
        ("delta.fallbacks", &s.repair_fallbacks),
        ("delta.deltas_applied", &s.deltas_applied),
    ] {
        report.set(name, counter.load(Ordering::Relaxed) as f64, 1);
    }
    report.set("core.graph_nodes", recycler.graph_len() as f64, 1);
    report.set("core.cache_entries", recycler.cache_len() as f64, 1);
    report.set("core.cache_bytes", recycler.cache_used() as f64, 1);
}

/// Hits over lookups, as the server's own `rdb_stats()` defines it.
pub fn hit_rate(engine: &Engine) -> (f64, usize) {
    let Some(recycler) = engine.recycler() else {
        return (0.0, 0);
    };
    let s = &recycler.stats;
    let hits = s.reuses.load(Ordering::Relaxed) + s.subsumption_reuses.load(Ordering::Relaxed);
    let lookups = s.queries.load(Ordering::Relaxed);
    (hits as f64 / lookups.max(1) as f64, lookups as usize)
}

/// Write the run's spans next to the run directories, one file per
/// workload (a later run of the workload replaces it).
pub fn write_trace(cfg: &Config, tracer: &trace::Tracer, report: &mut Report) {
    let path = cfg
        .scratch
        .with_file_name(format!("{}.trace.jsonl", cfg.workload));
    match tracer.write_jsonl(&path) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
}

/// A directory for this run's files, inside the build's target directory
/// (which the checkout's `.gitignore` already covers).
fn scratch_dir(workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?
        .join("benchmark-run")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn parse_args(args: &[String]) -> Result<(Config, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--setup-only" => setup_only = value == "1",
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !ledger::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = ledger::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("unknown workload {workload}; one of {names:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.unwrap_or(ledger::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    let scratch = scratch_dir(&workload, seed).map_err(|e| format!("scratch directory: {e}"))?;
    Ok((
        Config {
            workload,
            seed,
            seconds,
            trace: trace.unwrap_or(false),
            setup_only,
            scratch,
        },
        out,
    ))
}

/// The result line: exactly the metrics of the run's mode, every one of
/// them, with all their digits.
fn result_json(cfg: &Config, report: &Report) -> String {
    let table = if cfg.trace {
        ledger::PER_LAYER
    } else {
        ledger::END_TO_END
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            // A layer the workload does not exercise reads 0.
            let value = report.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn run_workload(cfg: &Config, out: Option<PathBuf>) -> ExitCode {
    if ledger::COMMITTED_MANIFEST != ledger::manifest() {
        eprintln!(
            "benchmark: BENCHMARK.json differs from the tables in ledger.rs; \
             write the output of `benchmark manifest` to it"
        );
        return ExitCode::from(2);
    }
    println!(
        "benchmark: workload={} seed={} seconds={} trace={} cores={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        measure::cores()
    );
    // A set-up child runs under its parent's spinners.
    let awake = (!cfg.setup_only).then(measure::Awake::start);
    let mut report = match cfg.workload.as_str() {
        "tpch_streams" => tpch_streams::run(cfg),
        "dash_hits" => dash::run(cfg, false),
        "dash_writes" => dash::run(cfg, true),
        "adhoc_cold" => adhoc_cold::run(cfg),
        other => unreachable!("parse_args admitted {other}"),
    };
    drop(awake);
    if cfg.trace {
        report.set("client.attempted", report.attempted as f64, 1);
        report.set("client.failed", report.failed as f64, 1);
    }

    // A metric the tables do not list, or a gated one left unset, is a
    // bug in the benchmark itself.
    for name in report.metrics.keys() {
        if ledger::find(name).is_none() {
            report
                .failures
                .push(format!("metric {name} is not in the ledger"));
            report.failed += 1;
        }
    }
    if !cfg.trace {
        for m in ledger::END_TO_END {
            if report.metrics.get(m.name).is_none_or(|v| *v <= 0.0) {
                report
                    .failures
                    .push(format!("end-to-end metric {} is missing or zero", m.name));
                report.failed += 1;
            }
        }
    }

    for note in &report.notes {
        println!("note: {note}");
    }
    println!(
        "{:<28} {:>16} {:<8} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for (name, value) in &report.metrics {
        let unit = ledger::find(name).map_or("?", |m| m.unit);
        let n = report.samples.get(name).copied().unwrap_or(0);
        println!("{name:<28} {value:>16.4} {unit:<8} {n:>9}");
    }
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    // WAL directories and checkpoints; the span file lives outside.
    let _ = std::fs::remove_dir_all(&cfg.scratch);

    let line = result_json(cfg, &report);
    if let Some(path) = out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            cfg.workload, cfg.seed, cfg.trace as u8
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("FAILED: appending to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", ledger::manifest());
            ExitCode::SUCCESS
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: benchmark compare <a.jsonl> <b.jsonl>");
                ExitCode::from(2)
            }
        },
        _ => match parse_args(&args) {
            Ok((cfg, out)) => run_workload(&cfg, out),
            Err(e) => {
                eprintln!("benchmark: {e}");
                eprintln!(
                    "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]"
                );
                ExitCode::from(2)
            }
        },
    }
}
