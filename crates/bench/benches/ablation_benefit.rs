//! Ablation bench (not in the paper): which design choices of §III-C/§IV
//! carry the improvement?
//!
//! Axes, each called out in DESIGN.md:
//! * aging factor α (§III-C);
//! * cache size sweep (the benefit metric + Dantzig replacement must
//!   degrade gracefully as the cache shrinks).

use std::time::Duration;

use rdb_bench::{banner, ms, scale_factor};
use rdb_engine::Engine;
use rdb_recycler::RecyclerConfig;
use rdb_tpch::{generate, make_streams, StreamOptions, TpchConfig};

fn run(catalog: &std::sync::Arc<rdb_storage::Catalog>, sf: f64, cfg: RecyclerConfig) -> Duration {
    let streams = make_streams(catalog, &StreamOptions::new(16, sf));
    let engine = Engine::builder(catalog.clone()).recycler(cfg).build();
    engine.run_streams(&streams).avg_stream_time()
}

fn base(cache: u64) -> RecyclerConfig {
    let mut c = RecyclerConfig::speculative(cache);
    c.spec_min_progress = 0.0;
    c
}

fn main() {
    banner("Ablation: recycler design choices (16-stream TPC-H, avg ms/stream)");
    let sf = scale_factor();
    let catalog = generate(&TpchConfig {
        scale: sf,
        seed: 2013,
    });
    let cache: u64 = 256 * 1024 * 1024;

    let full = run(&catalog, sf, base(cache));
    println!("\n{:<34} {:>10}", "configuration", "ms/stream");
    println!("{:<34} {:>10}", "full recycler", ms(full));

    let mut fast_age = base(cache);
    fast_age.aging_alpha = 0.5;
    println!(
        "{:<34} {:>10}",
        "aggressive aging (alpha=0.5)",
        ms(run(&catalog, sf, fast_age))
    );

    println!("\ncache size sweep:");
    for shift in [14u32, 18, 22, 26] {
        let c = 1u64 << shift;
        println!(
            "{:<34} {:>10}",
            format!("cache = {} KiB", c / 1024),
            ms(run(&catalog, sf, base(c)))
        );
    }
    println!(
        "\nExpected shape: the full recycler is fastest; shrinking the cache\n\
         degrades smoothly (benefit-ordered eviction); over-aggressive aging\n\
         loses reuse opportunities."
    );
}
