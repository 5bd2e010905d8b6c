//! Recycler configuration.

use std::time::Duration;

/// Which cost measurement feeds the benefit metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Measured wall-clock nanoseconds (the paper's setting).
    Time,
    /// Deterministic work units (rows processed); used by unit tests so
    /// benefit and eviction decisions are exactly repeatable.
    WorkUnits,
}

/// Execution mode of the recycler (paper §V evaluates these three plus OFF).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecyclerMode {
    /// History mode (HIST): only materialize results whose plans occurred
    /// before; all decisions are made in the rewriting phase.
    History,
    /// Speculation mode (SPEC): history plus speculative materialization of
    /// small expensive first-time results, decided at run time (§III-D).
    Speculative,
}

/// Tunables for the recycler. Defaults follow the paper where it names
/// values (`h = 0.001` for speculation) and otherwise use conservative
/// settings exercised by the test suite.
#[derive(Debug, Clone)]
pub struct RecyclerConfig {
    /// Recycler cache capacity in bytes.
    pub cache_bytes: u64,
    /// HIST vs SPEC.
    pub mode: RecyclerMode,
    /// Cost source for the benefit metric.
    pub cost_model: CostModel,
    /// Aging factor α < 1 (paper Eq. 5); applied lazily per query tick.
    pub aging_alpha: f64,
    /// Minimum (decayed) reference count before a seen-before result is
    /// considered for materialization in the rewriting phase.
    pub min_refs_to_store: f64,
    /// The paper's small constant h used for speculative benefit (§III-D).
    pub spec_h: f64,
    /// Benefit floor for admitting results into an un-full cache.
    pub benefit_floor: f64,
    /// A single result may use at most this fraction of the cache.
    pub max_result_fraction: f64,
    /// Speculation makes no commit/cancel decision before this progress.
    pub spec_min_progress: f64,
    /// How long a query stalls waiting for a concurrent materialization of
    /// the same result before giving up and recomputing.
    pub stall_timeout: Duration,
    /// Look for a materialized subsumer when exact matching fails (§IV-A).
    pub enable_subsumption: bool,
}

impl Default for RecyclerConfig {
    fn default() -> Self {
        RecyclerConfig {
            cache_bytes: 256 * 1024 * 1024,
            mode: RecyclerMode::Speculative,
            cost_model: CostModel::Time,
            aging_alpha: 0.995,
            min_refs_to_store: 0.5,
            spec_h: 0.001,
            benefit_floor: 0.0,
            max_result_fraction: 0.5,
            spec_min_progress: 0.05,
            stall_timeout: Duration::from_secs(10),
            enable_subsumption: true,
        }
    }
}

impl RecyclerConfig {
    /// History-mode config with the given cache size.
    pub fn history(cache_bytes: u64) -> Self {
        RecyclerConfig {
            cache_bytes,
            mode: RecyclerMode::History,
            ..Default::default()
        }
    }

    /// Speculative-mode config with the given cache size.
    pub fn speculative(cache_bytes: u64) -> Self {
        RecyclerConfig {
            cache_bytes,
            mode: RecyclerMode::Speculative,
            ..Default::default()
        }
    }

    /// Deterministic variant for unit tests: work-unit costs, no aging.
    pub fn deterministic(cache_bytes: u64) -> Self {
        RecyclerConfig {
            cache_bytes,
            cost_model: CostModel::WorkUnits,
            aging_alpha: 1.0,
            ..Default::default()
        }
    }

    /// Largest admissible single result.
    pub fn max_result_bytes(&self) -> u64 {
        (self.cache_bytes as f64 * self.max_result_fraction) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RecyclerConfig::default();
        assert!(c.aging_alpha < 1.0);
        assert_eq!(c.spec_h, 0.001);
        assert!(c.max_result_bytes() < c.cache_bytes);
    }

    #[test]
    fn presets() {
        assert_eq!(RecyclerConfig::history(1).mode, RecyclerMode::History);
        assert_eq!(
            RecyclerConfig::speculative(1).mode,
            RecyclerMode::Speculative
        );
        let d = RecyclerConfig::deterministic(1);
        assert_eq!(d.cost_model, CostModel::WorkUnits);
        assert_eq!(d.aging_alpha, 1.0);
    }
}
