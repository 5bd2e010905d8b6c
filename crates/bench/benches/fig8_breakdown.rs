//! Figure 8 — per-query-pattern breakdown of the largest throughput run.
//!
//! Paper setup: the 256-stream run broken down into the 22 patterns; for
//! each mode the average *pure execution* time (excluding queue wait) of
//! each pattern relative to naive. Paper observations: in HIST every query
//! but Q9 improves (Q9's COLOR parameter has ~92 values, so repeats are too
//! rare for history); SPEC improves every pattern; PA further improves
//! exactly Q1, Q16, Q19.

use std::collections::HashMap;
use std::time::Duration;

use rdb_bench::{banner, max_streams, scale_factor};
use rdb_engine::Engine;
use rdb_recycler::RecyclerConfig;
use rdb_tpch::{generate, make_streams, StreamOptions, TpchConfig};

fn avg_by_label(report: &rdb_engine::StreamsReport) -> HashMap<String, Duration> {
    report.avg_exec_by_label().into_iter().collect()
}

fn main() {
    banner("Figure 8: per-pattern avg execution time relative to OFF");
    let sf = scale_factor();
    let n = 256usize.min(max_streams());
    println!("scale factor {sf}, {n} streams");
    let catalog = generate(&TpchConfig {
        scale: sf,
        seed: 2013,
    });
    let cache: u64 = 512 * 1024 * 1024;

    let mut results: Vec<(String, HashMap<String, Duration>)> = Vec::new();
    for mode in ["OFF", "HIST", "SPEC", "PA"] {
        let opts = if mode == "PA" {
            StreamOptions::new(n, sf).proactive()
        } else {
            StreamOptions::new(n, sf)
        };
        let streams = make_streams(&catalog, &opts);
        let builder = Engine::builder(catalog.clone());
        let engine = match mode {
            "OFF" => builder.no_recycler(),
            "HIST" => builder.recycler(RecyclerConfig::history(cache)),
            _ => {
                let mut c = RecyclerConfig::speculative(cache);
                c.spec_min_progress = 0.0;
                builder.recycler(c)
            }
        }
        .build();
        let report = engine.run_streams(&streams);
        results.push((mode.to_string(), avg_by_label(&report)));
    }

    let off = results[0].1.clone();
    println!(
        "\n{:>5} {:>10} {:>10} {:>10}",
        "query", "HIST/OFF", "SPEC/OFF", "PA/OFF"
    );
    for q in 1..=22 {
        let label = format!("Q{q}");
        let base = off.get(&label).map(|d| d.as_secs_f64()).unwrap_or(0.0);
        let rel = |mode_idx: usize| -> String {
            match results[mode_idx].1.get(&label) {
                Some(d) if base > 0.0 => format!("{:.2}", d.as_secs_f64() / base),
                _ => "-".into(),
            }
        };
        println!("{:>5} {:>10} {:>10} {:>10}", label, rel(1), rel(2), rel(3));
    }
    println!(
        "\nPaper shape: HIST < 1.0 for all patterns except Q9 (~1.0);\n\
         SPEC ≤ HIST everywhere; PA further lowers only Q1, Q16, Q19."
    );
}
