//! The ledger: every workload and every metric the benchmark reports,
//! with unit, direction, regression bound and whether a count must repeat
//! exactly. `BENCHMARK.json` at the repository root is `benchmark
//! manifest` printed from these tables, which every run checks;
//! `benchmark compare` reads its bounds from them.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the base by which the metric may
    /// worsen before `compare` flags it.
    pub bound: Option<f64>,
    /// A count that a deterministic replay must reproduce bit for bit.
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit: "count",
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures (`run_seconds` of the manifest).
pub const RUN_SECONDS: u32 = 20;

/// The workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tpch_streams",
        "paper Fig. 7: shared TPC-H streams, cache fits; exec and core work, server/sql/wal/delta idle",
    ),
    (
        "dash_hits",
        "pooled dashboard statements, all cache hits: decode, parse, bind, match, replay, encode; exec idle",
    ),
    (
        "adhoc_cold",
        "every statement distinct, cache 1 MiB: zero reuse, the recycler is pure overhead on exec and sql",
    ),
    (
        "dash_writes",
        "the dashboard pool with one write in ten, WAL on: repair instead of replay, commit, checkpoint, recovery",
    ),
];

/// What a user of the system sees. Reported by the untraced run, on every
/// workload. A bound is about twice the widest spread single runs of
/// unchanged code showed on the two-core shared host (README, "Bounds");
/// a bound the benchmark's own repeats cross would gate nothing.
pub const END_TO_END: &[Metric] = &[
    gated("stmt_p50_us", "us", Lower, 0.15),
    gated("stmts_per_s", "1/s", Higher, 0.20),
    gated("cpu_ms_per_stmt", "ms", Lower, 0.20),
    gated("peak_rss_mb", "MiB", Lower, 0.15),
    gated("setup_s", "s", Lower, 0.25),
];

/// Single layers, measured from outside by the traced run. A metric whose
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Workload-specific end-to-end numbers; they cannot be gated because
    // a gated metric must exist on every workload.
    layer("stream_s", "s", Lower),
    layer("write_p50_us", "us", Lower),
    layer("write_p95_us", "us", Lower),
    layer("read_after_write_p50_us", "us", Lower),
    layer("recover_s", "s", Lower),
    // server
    layer("server.decode_us", "us", Lower),
    layer("server.encode_us", "us", Lower),
    exact("server.encode_bytes", Lower),
    layer("server.dispatch_wait_us", "us", Lower),
    // sql, plan, engine
    layer("sql.parse_us", "us", Lower),
    layer("sql.bind_us", "us", Lower),
    layer("plan.normalize_us", "us", Lower),
    layer("plan.fingerprint_us", "us", Lower),
    layer("engine.prepare_us", "us", Lower),
    layer("engine.execute_call_us", "us", Lower),
    layer("engine.cold_us", "us", Lower),
    layer("engine.exact_hit_us", "us", Lower),
    layer("engine.subsume_hit_us", "us", Lower),
    layer("engine.partial_hit_us", "us", Lower),
    layer("engine.repaired_hit_us", "us", Lower),
    // core (the recycler)
    layer("core.match_us", "us", Lower),
    layer("core.replay_us", "us", Lower),
    layer("core.match_growth", "ratio", Lower),
    layer("core.hit_rate", "ratio", Higher),
    exact("core.exact_hits", Higher),
    exact("core.subsumption_hits", Higher),
    exact("core.hash_build_hits", Higher),
    exact("core.agg_table_hits", Higher),
    exact("core.materializations", Lower),
    exact("core.stalls", Lower),
    exact("core.stale_rejections", Lower),
    exact("core.graph_nodes", Lower),
    layer("core.cache_entries", "count", Higher),
    layer("core.cache_bytes", "bytes", Lower),
    layer("core.recycle_speedup", "ratio", Higher),
    layer("core.overhead_frac", "ratio", Lower),
    // exec
    layer("exec.drain_us", "us", Lower),
    layer("exec.scan_mrows_per_s", "Mrows/s", Higher),
    exact("exec.rows_out", Lower),
    layer("exec.parallel_speedup", "ratio", Higher),
    // storage, wal, delta
    layer("storage.commit_us", "us", Lower),
    layer("wal.append_us", "us", Lower),
    layer("delta.repair_commit_us", "us", Lower),
    layer("wal.bytes_per_user_byte", "ratio", Lower),
    exact("wal.records", Lower),
    exact("delta.repaired", Higher),
    exact("delta.fallbacks", Lower),
    exact("delta.deltas_applied", Lower),
    layer("wal.checkpoints", "count", Lower),
    layer("wal.checkpoint_us", "us", Lower),
    layer("wal.recover_replayed", "count", Lower),
    layer("engine.recover_warm_hits", "count", Higher),
    // client, process, tracing itself
    layer("client.stmt_p95_us", "us", Lower),
    layer("client.stmt_p99_us", "us", Lower),
    layer("client.stmt_max_us", "us", Lower),
    layer("client.attempted", "count", Higher),
    layer("client.failed", "count", Lower),
    layer("process.cpu_user_s", "s", Lower),
    layer("process.cpu_sys_s", "s", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.unattributed_frac", "ratio", Lower),
];

/// The metric named `name`, from either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json` as it was when this program was built. A run refuses
/// to measure unless it equals [`manifest`], so the file the driver reads
/// and the tables `compare` reads cannot drift apart.
pub const COMMITTED_MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound.expect("end-to-end metrics are gated")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"examples/benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"examples/benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
