//! Throughput-run stream generation (paper §V, TPC-H throughput test).
//!
//! Each stream consists of the 22 query patterns in a permuted order with
//! per-stream random parameters, "according to the benchmark
//! specification". In PA mode the plans of Q1, Q16 and Q19 are replaced by
//! their proactive variants (cube caching with binning for Q1, cube caching
//! with selections for Q16/Q19), mirroring the paper's manual rewrites.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rdb_engine::WorkloadQuery;
use rdb_plan::Plan;
use rdb_recycler::proactive::{cube_with_binning, cube_with_selections};
use rdb_storage::Catalog;

use crate::queries::build_query;

/// Options for stream generation.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Number of streams.
    pub streams: usize,
    /// Scale factor of the database the streams run against (parameterizes
    /// Q11's FRACTION).
    pub scale: f64,
    /// Base RNG seed; stream `i` uses `seed + i`.
    pub seed: u64,
    /// Apply the proactive rewrites to Q1/Q16/Q19 (the paper's PA mode).
    pub proactive: bool,
    /// Restrict streams to these patterns (1-based); `None` = all 22.
    /// Fig. 9's detailed trace uses {1, 8, 13, 18, 19, 21}.
    pub patterns: Option<Vec<usize>>,
}

impl StreamOptions {
    /// Standard options for `n` streams at the given scale.
    pub fn new(streams: usize, scale: f64) -> Self {
        StreamOptions {
            streams,
            scale,
            seed: 7001,
            proactive: false,
            patterns: None,
        }
    }

    /// Enable the proactive plan variants.
    pub fn proactive(mut self) -> Self {
        self.proactive = true;
        self
    }

    /// Use only the given patterns.
    pub fn with_patterns(mut self, patterns: Vec<usize>) -> Self {
        self.patterns = Some(patterns);
        self
    }
}

/// Apply `rewrite` at the topmost plan node where it succeeds.
fn apply_topdown(plan: &Plan, rewrite: &dyn Fn(&Plan) -> Option<Plan>) -> Option<Plan> {
    if let Some(p) = rewrite(plan) {
        return Some(p);
    }
    let children = plan.children();
    for (i, c) in children.iter().enumerate() {
        if let Some(newc) = apply_topdown(c, rewrite) {
            let mut new_children: Vec<Plan> = children.iter().map(|x| (*x).clone()).collect();
            new_children[i] = newc;
            return Some(plan.with_children(new_children));
        }
    }
    None
}

/// Build one stream's worth of bound, labelled queries.
pub fn make_stream(
    catalog: &Catalog,
    options: &StreamOptions,
    stream_id: usize,
) -> Vec<WorkloadQuery> {
    let mut rng = SmallRng::seed_from_u64(options.seed + stream_id as u64);
    let mut patterns: Vec<usize> = options
        .patterns
        .clone()
        .unwrap_or_else(|| (1..=22).collect());
    patterns.shuffle(&mut rng);
    patterns
        .iter()
        .map(|&n| {
            let pa = options.proactive && matches!(n, 16 | 19);
            let plan = build_query(n, &mut rng, options.scale, pa);
            let mut bound = plan
                .bind(catalog)
                .unwrap_or_else(|e| panic!("Q{n} bind failed: {e}"));
            if options.proactive {
                // The rewrites re-aggregate `sum`s and `count`s; Q1's
                // `avg`s become those below a projection, which
                // `apply_topdown` looks through.
                bound = rdb_plan::lower_avg(bound);
                let rewritten = match n {
                    1 => apply_topdown(&bound, &|p| cube_with_binning(p)),
                    16 | 19 => apply_topdown(&bound, &|p| cube_with_selections(p)),
                    _ => None,
                };
                if let Some(p) = rewritten {
                    bound = p;
                }
            }
            WorkloadQuery::new(format!("Q{n}"), bound)
        })
        .collect()
}

/// Build all streams for a throughput run.
pub fn make_streams(catalog: &Catalog, options: &StreamOptions) -> Vec<Vec<WorkloadQuery>> {
    (0..options.streams)
        .map(|i| make_stream(catalog, options, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchConfig};

    #[test]
    fn streams_have_all_patterns_permuted() {
        let cat = generate(&TpchConfig {
            scale: 0.002,
            seed: 1,
        });
        let opts = StreamOptions::new(3, 0.002);
        let streams = make_streams(&cat, &opts);
        assert_eq!(streams.len(), 3);
        for s in &streams {
            assert_eq!(s.len(), 22);
            let mut labels: Vec<&str> = s.iter().map(|q| q.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), 22, "each pattern exactly once");
        }
        // Orders differ between streams (permutation).
        let order0: Vec<&str> = streams[0].iter().map(|q| q.label.as_str()).collect();
        let order1: Vec<&str> = streams[1].iter().map(|q| q.label.as_str()).collect();
        assert_ne!(order0, order1);
        // All plans are bound.
        assert!(streams.iter().flatten().all(|q| !q.plan.has_named()));
    }

    #[test]
    fn restricted_patterns() {
        let cat = generate(&TpchConfig {
            scale: 0.002,
            seed: 1,
        });
        let opts = StreamOptions::new(2, 0.002).with_patterns(vec![1, 8, 13, 18, 19, 21]);
        let streams = make_streams(&cat, &opts);
        for s in &streams {
            assert_eq!(s.len(), 6);
        }
    }

    #[test]
    fn proactive_mode_rewrites_q1_q16_q19() {
        let cat = generate(&TpchConfig {
            scale: 0.002,
            seed: 1,
        });
        let opts = StreamOptions::new(1, 0.002).proactive();
        let stream = make_stream(&cat, &opts, 0);
        let q1 = stream.iter().find(|q| q.label == "Q1").unwrap();
        assert!(
            q1.plan.to_string().contains("union_all"),
            "Q1 PA uses the binning rewrite:\n{}",
            q1.plan
        );
        let q19 = stream.iter().find(|q| q.label == "Q19").unwrap();
        // The cube rewrite produces ≥2 aggregates (inner cube + outer).
        assert!(
            q19.plan.to_string().matches("aggregate").count() >= 2,
            "Q19 PA uses the cube rewrite:\n{}",
            q19.plan
        );
        let q16 = stream.iter().find(|q| q.label == "Q16").unwrap();
        // Q16's cube rewrite pulls the selection above the aggregate.
        let txt = q16.plan.to_string();
        let sel_pos = txt
            .find("select ((p_brand")
            .or_else(|| txt.find("select (($"));
        assert!(sel_pos.is_some() || txt.contains("select"), "{txt}");
    }

    #[test]
    fn determinism_per_seed() {
        let cat = generate(&TpchConfig {
            scale: 0.002,
            seed: 1,
        });
        let opts = StreamOptions::new(1, 0.002);
        let a = make_stream(&cat, &opts, 0);
        let b = make_stream(&cat, &opts, 0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.plan, y.plan);
        }
    }
}
