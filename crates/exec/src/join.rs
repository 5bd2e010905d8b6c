//! Hash-join build sides: inner, left outer, semi, anti, and single-row
//! broadcast joins all probe a [`BuildSide`].
//!
//! The build side (right input) is drained into a hash table first — the
//! only materialization a pipelined engine performs for joins — and the
//! probe side then streams through it as a stage of its pipeline's chain
//! ([`crate::fuse::FusedStage::Probe`], where the per-kind output shaping
//! lives). The index maps pre-computed 64-bit key hashes
//! ([`rdb_vector::hash_columns`]: one typed pass per key column, no
//! per-row byte encoding) to candidate build rows; probes hash a whole
//! batch's keys in bulk and confirm candidates with the positional
//! equality predicate [`rdb_vector::key_rows_eq`], so the row-at-a-time
//! work left in the probe loop is an array lookup and a typed compare.

use std::sync::Arc;

use fxhash::{FxBuildHasher, FxHashMap};

use rdb_expr::{eval, Expr};
use rdb_vector::column::ColumnBuilder;
use rdb_vector::row::row_has_null_key;
use rdb_vector::{hash_columns, key_rows_eq, Batch, Column, DataType};

use crate::metrics::OpMetrics;
use crate::op::Operator;

pub use rdb_plan::JoinKind;

/// The materialized build side of a hash join: the concatenated build
/// input plus its key index. Under morsel-driven parallel execution one
/// build side is shared by every probe worker of the query (see
/// [`SharedBuild`]), which is also what keeps a `store` tee under the build
/// subtree publishing exactly once. A build side is also a first-class
/// recycler artifact: published keyed by its build subplan, a later query
/// joining against the same subplan probes it without rebuilding.
#[derive(Debug)]
pub struct BuildSide {
    /// Concatenated build input.
    batch: Batch,
    /// Key columns evaluated over `batch`, kept to confirm hash-bucket
    /// candidates positionally (hashes are candidates, not proofs).
    key_cols: Vec<Column>,
    /// Key hash → row indices in `batch`, each list in build-row order
    /// (which is what keeps join output order identical across runs).
    index: FxHashMap<u64, Vec<u32>>,
}

impl BuildSide {
    /// Build-side row count.
    pub fn rows(&self) -> usize {
        self.batch.rows()
    }

    /// Memory footprint in bytes: the batch, the kept key columns, and an
    /// estimate of the hash index (hash words, row-id lists, per-entry
    /// bookkeeping). This is what the recycler cache accounts for a cached
    /// build side.
    pub fn size_bytes(&self) -> usize {
        let index_bytes: usize = self
            .index
            .values()
            .map(|v| std::mem::size_of::<u64>() + v.len() * std::mem::size_of::<u32>() + 48)
            .sum();
        let key_bytes: usize = self.key_cols.iter().map(|c| c.size_bytes()).sum();
        self.batch.size_bytes() + key_bytes + index_bytes
    }

    /// The concatenated build batch (dense; gathers index it physically).
    pub(crate) fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Map-side probe over prepared probe keys: for every probe row
    /// yielded by `rows` (physical indices, in order), append the verified
    /// `(probe, build)` match pairs; rows with no match — including NULL
    /// keys, which no indexed build row can equal — go to `unmatched` when
    /// `want_unmatched` (left outer).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_pairs(
        &self,
        probe_keys: &[&Column],
        hashes: &[u64],
        rows: impl Iterator<Item = u32>,
        want_unmatched: bool,
        left_idx: &mut Vec<u32>,
        right_idx: &mut Vec<u32>,
        unmatched: &mut Vec<u32>,
    ) {
        let build_keys: Vec<&Column> = self.key_cols.iter().collect();
        for row in rows {
            let mut any = false;
            if let Some(cands) = self.index.get(&hashes[row as usize]) {
                for &r in cands {
                    if key_rows_eq(probe_keys, row as usize, &build_keys, r as usize) {
                        left_idx.push(row);
                        right_idx.push(r);
                        any = true;
                    }
                }
            }
            if !any && want_unmatched {
                unmatched.push(row);
            }
        }
    }

    /// Existence probe (semi/anti): keep the probe rows whose
    /// has-a-verified-match status equals `want_match`. NULL probe keys
    /// never match (no indexed build row can equal them).
    pub(crate) fn probe_keep(
        &self,
        probe_keys: &[&Column],
        hashes: &[u64],
        rows: impl Iterator<Item = u32>,
        want_match: bool,
        keep: &mut Vec<u32>,
    ) {
        let build_keys: Vec<&Column> = self.key_cols.iter().collect();
        for row in rows {
            let has = self.index.get(&hashes[row as usize]).is_some_and(|cands| {
                cands
                    .iter()
                    .any(|&r| key_rows_eq(probe_keys, row as usize, &build_keys, r as usize))
            });
            if has == want_match {
                keep.push(row);
            }
        }
    }
}

/// Drain `right` and index it on `right_keys` (`right_types` shape a
/// zero-row build so gathers still work).
pub(crate) fn build_side(
    right: &mut dyn Operator,
    right_keys: &[Expr],
    right_types: &[DataType],
    metrics: &OpMetrics,
) -> BuildSide {
    let mut batches = Vec::new();
    while let Some(b) = right.next_batch() {
        metrics.add_work(b.rows() as u64);
        batches.push(b);
    }
    let batch = if batches.is_empty() {
        // Zero-row batch with the right column types, so gathers work.
        Batch::new(
            right_types
                .iter()
                .map(|t| ColumnBuilder::new(*t, 0).finish())
                .collect(),
        )
    } else {
        Batch::concat(&batches)
    };
    let mut index: FxHashMap<u64, Vec<u32>> =
        FxHashMap::with_capacity_and_hasher(batch.rows(), FxBuildHasher::default());
    let mut key_cols: Vec<Column> = Vec::new();
    if !right_keys.is_empty() {
        key_cols = right_keys.iter().map(|e| eval(e, &batch)).collect();
        let key_refs: Vec<&Column> = key_cols.iter().collect();
        let mut hashes = Vec::new();
        hash_columns(&key_refs, batch.rows(), &mut hashes);
        for (row, &h) in hashes.iter().enumerate() {
            if row_has_null_key(&key_refs, row) {
                continue; // SQL equality never matches NULL keys
            }
            index.entry(h).or_default().push(row as u32);
        }
    }
    BuildSide {
        batch,
        key_cols,
        index,
    }
}

/// A build side computed once and shared across probe workers. The first
/// worker to need it drains the build operator under the lock (including
/// any `store` tee inside, which therefore publishes exactly once and in
/// deterministic serial order); the rest block briefly, then share the
/// `Arc`.
pub struct SharedBuild {
    state: parking_lot::Mutex<SharedBuildState>,
}

/// Called once, right after a pending build side is first constructed,
/// with the build and its measured construction cost — the recycler's
/// publish hook. Never called for warm ([`SharedBuild::ready`]) builds.
pub type BuildPublish = Box<dyn FnOnce(&Arc<BuildSide>, crate::store::StateCost) + Send>;

enum SharedBuildState {
    Pending {
        right: Box<dyn Operator>,
        right_keys: Vec<Expr>,
        right_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
        publish: Option<BuildPublish>,
    },
    Ready(Arc<BuildSide>),
    /// The building worker panicked mid-drain. The mutex does not poison,
    /// so this sentinel is what keeps a later worker from re-draining the
    /// half-consumed build operator into an *incomplete* index — wrong
    /// join rows would then stream out before the query ever failed.
    Failed,
}

impl SharedBuild {
    /// Wrap a build operator for on-demand, build-once sharing. `publish`
    /// (if any) fires once when the build side is first constructed.
    pub fn new(
        right: Box<dyn Operator>,
        right_keys: Vec<Expr>,
        right_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
        publish: Option<BuildPublish>,
    ) -> Arc<SharedBuild> {
        Arc::new(SharedBuild {
            state: parking_lot::Mutex::new(SharedBuildState::Pending {
                right,
                right_keys,
                right_types,
                metrics,
                publish,
            }),
        })
    }

    /// A build side already in hand (a recycler warm hit): every worker
    /// shares it immediately; the build operator is never constructed,
    /// never drained, and nothing is re-published.
    pub fn ready(built: Arc<BuildSide>) -> Arc<SharedBuild> {
        Arc::new(SharedBuild {
            state: parking_lot::Mutex::new(SharedBuildState::Ready(built)),
        })
    }

    pub(crate) fn get(&self) -> Arc<BuildSide> {
        let mut st = self.state.lock();
        // Take the pending pieces out and leave `Failed` behind while
        // draining: if the drain panics (unwinding through the
        // non-poisoning lock), every later worker sees the sentinel and
        // fails loudly instead of indexing the half-drained remainder.
        match std::mem::replace(&mut *st, SharedBuildState::Failed) {
            SharedBuildState::Ready(b) => {
                *st = SharedBuildState::Ready(b.clone());
                b
            }
            SharedBuildState::Pending {
                mut right,
                right_keys,
                right_types,
                metrics,
                publish,
            } => {
                let start = std::time::Instant::now();
                let built = Arc::new(build_side(
                    right.as_mut(),
                    &right_keys,
                    &right_types,
                    &metrics,
                ));
                if let Some(publish) = publish {
                    let rows = built.rows() as u64;
                    publish(
                        &built,
                        crate::store::StateCost {
                            cost_ns: start.elapsed().as_nanos() as f64,
                            cost_work: rows as f64,
                            rows,
                        },
                    );
                }
                *st = SharedBuildState::Ready(built.clone());
                built
            }
            SharedBuildState::Failed => {
                panic!("shared join build side failed in another worker")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailSlot;
    use crate::fuse::testing::*;
    use crate::fuse::{ChainSource, FusedChain, FusedPipelineExec, FusedStage};
    use rdb_vector::Value;

    /// A probe stage of `kind` on column 0 of both sides, over a build
    /// side made of `right` (one batch, or none at all).
    fn probe(kind: JoinKind, right: Option<Vec<Column>>, right_types: Vec<DataType>) -> FusedStage {
        let keys = if kind == JoinKind::Single {
            vec![]
        } else {
            vec![Expr::col(0)]
        };
        let metrics = OpMetrics::shared();
        FusedStage::Probe {
            build: SharedBuild::new(
                BatchSource::boxed(right.map(Batch::new).into_iter().collect()),
                keys.clone(),
                right_types.clone(),
                metrics.clone(),
                None,
            ),
            kind,
            left_keys: keys,
            right_types,
            metrics,
            built: None,
        }
    }

    fn left(cols: Vec<Column>) -> Vec<Batch> {
        vec![Batch::new(cols)]
    }

    #[test]
    fn inner_join_matches_pairs() {
        let right = vec![
            Column::from_ints(vec![2, 3, 3]),
            Column::from_floats(vec![0.2, 0.3, 0.33]),
        ];
        let out = run_every_way(
            vec![probe(
                JoinKind::Inner,
                Some(right),
                vec![DataType::Int, DataType::Float],
            )],
            left(vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_strs(["a", "b", "c"]),
            ]),
        );
        // 2→1 match, 3→2 matches, in probe-row then build-row order.
        assert_eq!(out.column(0).as_ints(), &[2, 3, 3]);
        assert_eq!(out.column(1).to_values()[0], Value::str("b"));
        assert_eq!(out.column(2).as_ints(), &[2, 3, 3]);
        assert_eq!(out.column(3).as_floats(), &[0.2, 0.3, 0.33]);
    }

    #[test]
    fn left_outer_pads_with_nulls() {
        let right = vec![Column::from_ints(vec![2]), Column::from_strs(["hit"])];
        let out = run_every_way(
            vec![probe(
                JoinKind::LeftOuter,
                Some(right),
                vec![DataType::Int, DataType::Str],
            )],
            left(vec![Column::from_ints(vec![1, 2])]),
        );
        // Matched rows first, then the NULL-padded unmatched ones.
        assert_eq!(
            out.to_rows(),
            vec![
                vec![Value::Int(2), Value::Int(2), Value::str("hit")],
                vec![Value::Int(1), Value::Null, Value::Null],
            ]
        );
    }

    #[test]
    fn semi_and_anti() {
        let mk = || left(vec![Column::from_ints(vec![1, 2, 3, 4])]);
        let right = || Some(vec![Column::from_ints(vec![2, 4, 4])]);
        let semi = probe(JoinKind::Semi, right(), vec![DataType::Int]);
        let out = run_every_way(vec![semi.clone()], mk());
        assert_eq!(out.column(0).as_ints(), &[2, 4]); // no duplication
        let anti = probe(JoinKind::Anti, right(), vec![DataType::Int]);
        let out = run_every_way(vec![anti], mk());
        assert_eq!(out.column(0).as_ints(), &[1, 3]);
        // Zero-copy: the probe batch comes out narrowed, not gathered.
        let input = mk();
        let out = over_operator(vec![semi], input.clone())
            .next_batch()
            .unwrap();
        assert_eq!(out.sel(), Some(&[1u32, 3][..]));
        assert!(out.column(0).shares_storage(input[0].column(0)));
    }

    #[test]
    fn single_join_broadcasts() {
        let single = probe(
            JoinKind::Single,
            Some(vec![Column::from_floats(vec![9.5])]),
            vec![DataType::Float],
        );
        let input = left(vec![Column::from_ints(vec![1, 2, 3])]);
        let out = run_every_way(vec![single.clone()], input.clone());
        assert_eq!(out.rows(), 3);
        assert_eq!(out.column(1).as_floats(), &[9.5, 9.5, 9.5]);
        // The probe columns stay shared and the selection rides along.
        let sparse = with_dead_rows(&input[0]);
        let out = over_operator(vec![single], vec![sparse.clone()])
            .next_batch()
            .unwrap();
        assert_eq!(out.sel(), sparse.sel());
        assert!(out.column(0).shares_storage(sparse.column(0)));
    }

    #[test]
    fn single_join_rejects_a_multi_row_build_side() {
        let single = probe(
            JoinKind::Single,
            Some(vec![Column::from_floats(vec![9.5, 1.0])]),
            vec![DataType::Float],
        );
        let fail = FailSlot::shared();
        let two_inputs = [
            left(vec![Column::from_ints(vec![1])]),
            left(vec![Column::from_ints(vec![2])]),
        ]
        .concat();
        let mut exec = FusedPipelineExec::new(
            ChainSource::Operator(BatchSource::boxed(two_inputs)),
            FusedChain::new(vec![single], fail.clone()),
        );
        assert!(exec.next_batch().is_none(), "stream ends, no panic");
        let err = fail.get().expect("structured error recorded");
        assert!(err.message().contains("exactly one row, got 2"), "{err}");
        assert!(exec.next_batch().is_none(), "a failed chain stays ended");
    }

    #[test]
    fn empty_build_side() {
        let mk = || left(vec![Column::from_ints(vec![1, 2])]);
        let inner = probe(JoinKind::Inner, None, vec![DataType::Int]);
        assert!(run_every_way(vec![inner], mk()).is_empty());
        let anti = probe(JoinKind::Anti, None, vec![DataType::Int]);
        assert_eq!(run_every_way(vec![anti], mk()).rows(), 2);
        let outer = probe(JoinKind::LeftOuter, None, vec![DataType::Int]);
        let out = run_every_way(vec![outer], mk());
        assert_eq!(out.rows(), 2);
        assert_eq!(out.column(1).null_count(), 2);
    }

    #[test]
    fn null_keys_never_match() {
        let nullable = || {
            let mut b = ColumnBuilder::new(DataType::Int, 2);
            b.push(Value::Int(1));
            b.push_null();
            b.finish()
        };
        let mk = |kind| probe(kind, Some(vec![nullable()]), vec![DataType::Int]);
        let out = run_every_way(vec![mk(JoinKind::Inner)], left(vec![nullable()]));
        assert_eq!(out.rows(), 1, "NULL = NULL must not match");
        let out = run_every_way(vec![mk(JoinKind::Semi)], left(vec![nullable()]));
        assert_eq!(out.to_rows(), vec![vec![Value::Int(1)]]);
        let out = run_every_way(vec![mk(JoinKind::Anti)], left(vec![nullable()]));
        assert_eq!(out.to_rows(), vec![vec![Value::Null]]);
        let out = run_every_way(vec![mk(JoinKind::LeftOuter)], left(vec![nullable()]));
        assert_eq!(
            out.to_rows(),
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Null, Value::Null]
            ]
        );
    }

    #[test]
    fn probe_work_counts_live_input_rows() {
        let stage = probe(
            JoinKind::Semi,
            Some(vec![Column::from_ints(vec![2])]),
            vec![DataType::Int],
        );
        let FusedStage::Probe { metrics, .. } = &stage else {
            unreachable!()
        };
        let metrics = metrics.clone();
        let input = with_dead_rows(&Batch::new(vec![Column::from_ints(vec![1, 2, 3])]));
        let out = over_operator(vec![stage], vec![input]).next_batch();
        assert_eq!(out.unwrap().rows(), 1);
        // One build row drained plus three live (not six physical) probes.
        assert_eq!(
            metrics.own_work(),
            1 + 3 + 1,
            "build + probe work + rows out"
        );
    }
}
