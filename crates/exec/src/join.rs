//! Hash-join build sides: inner, left outer, semi, anti, and single-row
//! broadcast joins all probe a [`BuildSide`].
//!
//! The build side (right input) is drained into a hash table first — the
//! only materialization a pipelined engine performs for joins — and the
//! probe side then streams through it as a stage of its pipeline's chain
//! ([`crate::fuse::FusedStage::Probe`], where the per-kind output shaping
//! lives).
//!
//! **Layout.** A build side is the concatenated build batch, its key
//! columns, and the crate's one hash index (the `index` module, which hash
//! aggregation's group table uses too) over the build rows: a
//! power-of-two array of `u32` chain heads, a `u32` chain link per build
//! row and the full 64-bit key hash ([`rdb_vector::hash_columns`]: one
//! typed pass per key column, no per-row byte encoding) per build row.
//! Three flat arrays, so there is no allocation per distinct key and
//! [`BuildSide::size_bytes`] is exact. Chains are linked from the last
//! build row back to the first, so a chain yields its candidates in
//! build-row order and join output order never depends on the hash.
//! Build rows with a NULL key are never linked: SQL equality never matches
//! them. An index holds at most `u32::MAX - 1` rows; a larger build side
//! is an [`ExecError`].
//!
//! **Probing.** Probes hash a whole batch's keys in bulk, walk each row's
//! chain comparing full hashes, and confirm a candidate with
//! [`rdb_vector::KeyCells::cell_eq`] per key column, so the row-at-a-time
//! work left in the probe loop is an array walk and a typed compare.

use std::sync::Arc;

use rdb_expr::{eval, Expr};
use rdb_vector::column::ColumnBuilder;
use rdb_vector::row::row_has_null_key;
use rdb_vector::{hash_columns, Batch, Column, DataType, KeyCells};

use crate::error::ExecError;
use crate::index::HashIndex;
use crate::metrics::OpMetrics;
use crate::parallel::{fold_input, Pipeline};

pub use rdb_plan::JoinKind;

/// The materialized build side of a hash join: the concatenated build
/// input plus its key index (see the module docs for the layout). Under
/// morsel-driven parallel execution one build side is shared by every
/// probe worker of the query (see [`SharedBuild`]), which is also what
/// keeps a `store` tee under the build subtree publishing exactly once. A
/// build side is also a first-class recycler artifact: built under a
/// build target and published by its tag, it is leased by the recycler's
/// rewriter to a later query joining against the same build input, which
/// probes it without rebuilding.
#[derive(Debug)]
pub struct BuildSide {
    /// Concatenated build input.
    batch: Batch,
    /// Key columns evaluated over `batch`, kept to confirm hash
    /// candidates positionally (hashes are candidates, not proofs).
    key_cols: Vec<Column>,
    /// Key hash → build rows of `batch`; rows with a NULL key unlinked.
    /// Empty for a keyless (single) join.
    index: HashIndex,
}

impl BuildSide {
    /// Index `batch` on its key columns, whose per-row hashes are
    /// `hashes`.
    fn indexed(
        batch: Batch,
        key_cols: Vec<Column>,
        hashes: Vec<u64>,
    ) -> Result<BuildSide, ExecError> {
        let refs: Vec<&Column> = key_cols.iter().collect();
        let index = HashIndex::over(hashes, |row| !row_has_null_key(&refs, row))?;
        Ok(BuildSide {
            batch,
            key_cols,
            index,
        })
    }

    /// Build-side row count.
    pub fn rows(&self) -> usize {
        self.batch.rows()
    }

    /// Memory footprint in bytes: the batch's and the kept key columns'
    /// [`Column::size_bytes`] (string dictionaries in full), and the
    /// capacity of the index's three arrays. This is what the recycler
    /// cache accounts for a cached build side.
    pub fn size_bytes(&self) -> usize {
        let cols = self.batch.columns().iter().chain(&self.key_cols);
        cols.map(Column::size_bytes).sum::<usize>() + self.index.size_bytes()
    }

    /// The concatenated build batch (dense; gathers index it physically).
    pub(crate) fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Whether probe row `row` and build row `r` have equal keys.
    #[inline]
    fn keys_eq(probe: &[KeyCells<'_>], row: u32, build: &[KeyCells<'_>], r: u32) -> bool {
        probe
            .iter()
            .zip(build)
            .all(|(p, b)| p.cell_eq(row as usize, b, r as usize))
    }

    /// Map-side probe over prepared probe keys: for every probe row
    /// yielded by `rows` (physical indices, in order), the verified
    /// `(probe, build)` match pairs, build rows ascending; rows with no
    /// match — including NULL keys, which no indexed build row can equal —
    /// go to `unmatched` when `want_unmatched` (left outer). Overwrites
    /// `out`.
    pub(crate) fn probe_pairs(
        &self,
        probe_keys: &[&Column],
        hashes: &[u64],
        rows: impl Iterator<Item = u32>,
        want_unmatched: bool,
        out: &mut ProbePairs,
    ) {
        out.left.clear();
        out.right.clear();
        out.unmatched.clear();
        let probe: Vec<KeyCells<'_>> = probe_keys.iter().map(|c| KeyCells::of(c)).collect();
        let build: Vec<KeyCells<'_>> = self.key_cols.iter().map(KeyCells::of).collect();
        for row in rows {
            let before = out.left.len();
            for r in self.index.candidates(hashes[row as usize]) {
                if Self::keys_eq(&probe, row, &build, r) {
                    out.left.push(row);
                    out.right.push(r);
                }
            }
            if want_unmatched && out.left.len() == before {
                out.unmatched.push(row);
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
        let probe: Vec<KeyCells<'_>> = probe_keys.iter().map(|c| KeyCells::of(c)).collect();
        let build: Vec<KeyCells<'_>> = self.key_cols.iter().map(KeyCells::of).collect();
        for row in rows {
            let has = self
                .index
                .candidates(hashes[row as usize])
                .any(|r| Self::keys_eq(&probe, row, &build, r));
            if has == want_match {
                keep.push(row);
            }
        }
    }
}

/// What [`BuildSide::probe_pairs`] finds, kept by a chain as scratch
/// reused from batch to batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ProbePairs {
    /// Matched probe rows, one per pair.
    pub(crate) left: Vec<u32>,
    /// The build row of each pair.
    pub(crate) right: Vec<u32>,
    /// Probe rows without a match (left outer only).
    pub(crate) unmatched: Vec<u32>,
}

/// Index the build input's `batches` on `right_keys` (`right_types` shape
/// a zero-row build so gathers still work).
pub(crate) fn build_side(
    batches: Vec<Batch>,
    right_keys: &[Expr],
    right_types: &[DataType],
) -> Result<BuildSide, ExecError> {
    let batch = if batches.is_empty() {
        // Zero-row batch with the right column types, so gathers work.
        Batch::new(
            right_types
                .iter()
                .map(|t| ColumnBuilder::new(*t, 0).finish())
                .collect(),
        )
    } else {
        // A build side outlives its input: keep only the dictionary
        // entries it references (see `Column::compact_dict`).
        let batch = Batch::concat(&batches);
        Batch::new(batch.columns().iter().map(Column::compact_dict).collect())
    };
    let key_cols: Vec<Column> = right_keys.iter().map(|e| eval(e, &batch)).collect();
    let mut hashes = Vec::new();
    if !key_cols.is_empty() {
        let key_refs: Vec<&Column> = key_cols.iter().collect();
        hash_columns(&key_refs, batch.rows(), &mut hashes);
    }
    BuildSide::indexed(batch, key_cols, hashes)
}

/// A build side computed once and shared across probe workers. The first
/// worker to need it collects the build input's pipeline under the lock
/// (including any `store` tee inside, which therefore publishes exactly
/// once and in deterministic serial order); the rest block briefly, then
/// share the `Arc`. The collect is a fold sink and follows the breaker
/// rule: an input that ended on a failure fails the build, so no probe
/// ever reads a build side that is short of rows.
pub struct SharedBuild {
    state: parking_lot::Mutex<SharedBuildState>,
}

/// Called once, right after a pending build side is first constructed,
/// with the build and the time constructing it took — the recycler's
/// publish hook. Never called for warm ([`SharedBuild::ready`]) builds.
pub type BuildPublish = Box<dyn FnOnce(&Arc<BuildSide>, std::time::Duration) + Send>;

enum SharedBuildState {
    Pending {
        right: Box<Pipeline>,
        right_keys: Vec<Expr>,
        right_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
        publish: Option<BuildPublish>,
    },
    Ready(Arc<BuildSide>),
    /// The build failed: its input ended on a failure, its index would
    /// not fit, or the building worker panicked mid-build. The mutex does
    /// not poison, so this sentinel is what keeps a later worker from
    /// re-draining the half-consumed build input into an *incomplete*
    /// index — wrong join rows would then stream out before the query
    /// ever failed. Every later worker reports the same error.
    Failed(ExecError),
}

impl SharedBuild {
    /// Wrap a build input for on-demand, build-once sharing. `publish`
    /// (if any) fires once when the build side is first constructed.
    pub fn new(
        right: Pipeline,
        right_keys: Vec<Expr>,
        right_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
        publish: Option<BuildPublish>,
    ) -> Arc<SharedBuild> {
        Arc::new(SharedBuild {
            state: parking_lot::Mutex::new(SharedBuildState::Pending {
                right: Box::new(right),
                right_keys,
                right_types,
                metrics,
                publish,
            }),
        })
    }

    /// A build side already in hand (leased from the recycler): every worker
    /// shares it immediately; no build input is constructed or drained,
    /// and nothing is re-published.
    pub fn ready(built: Arc<BuildSide>) -> Arc<SharedBuild> {
        Arc::new(SharedBuild {
            state: parking_lot::Mutex::new(SharedBuildState::Ready(built)),
        })
    }

    /// The build side, built by the first caller.
    pub(crate) fn get(&self) -> Result<Arc<BuildSide>, ExecError> {
        let mut st = self.state.lock();
        // Take the pending pieces out and leave `Failed` behind while
        // draining: if the drain panics (unwinding through the
        // non-poisoning lock), every later worker sees the sentinel and
        // fails loudly instead of indexing the half-drained remainder.
        let in_flight = SharedBuildState::Failed(ExecError::msg(
            "shared join build side failed in another worker",
        ));
        match std::mem::replace(&mut *st, in_flight) {
            SharedBuildState::Ready(b) => {
                *st = SharedBuildState::Ready(b.clone());
                Ok(b)
            }
            SharedBuildState::Pending {
                right,
                right_keys,
                right_types,
                metrics,
                publish,
            } => {
                let start = std::time::Instant::now();
                let push = |batches: &mut Vec<Batch>, _idx, b| batches.push(b);
                let built = fold_input(*right, false, metrics, Vec::new, push, Vec::extend)
                    .and_then(|batches| build_side(batches, &right_keys, &right_types))
                    .inspect_err(|e| *st = SharedBuildState::Failed(e.clone()))?;
                let built = Arc::new(built);
                if let Some(publish) = publish {
                    publish(&built, start.elapsed());
                }
                *st = SharedBuildState::Ready(built.clone());
                Ok(built)
            }
            SharedBuildState::Failed(e) => {
                *st = SharedBuildState::Failed(e.clone());
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailSlot;
    use crate::fuse::testing::*;
    use crate::fuse::{ChainSource, FusedChain, FusedStage};
    use crate::op::Operator;
    use crate::parallel::Pipeline;
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
                over_operator(vec![], right.map(Batch::new).into_iter().collect()),
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
        let mut exec = Pipeline::new(
            ChainSource::Operator(BatchSource::boxed(two_inputs), 0),
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

/// The build-side index this module kept before the flat chained one: a
/// map from key hash to the build rows with that hash, one `Vec` per
/// distinct hash, each in build-row order (so the map's hasher does not
/// matter), confirmed with `key_rows_eq`. The reference the flat index is
/// checked against.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use rdb_vector::row::row_has_null_key;
    use rdb_vector::{key_rows_eq, Column};

    pub(super) struct Index {
        key_cols: Vec<Column>,
        index: HashMap<u64, Vec<u32>>,
    }

    impl Index {
        /// Index build rows whose keys are `key_cols` and hashes `hashes`.
        pub(super) fn new(key_cols: Vec<Column>, hashes: &[u64]) -> Index {
            let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
            let key_refs: Vec<&Column> = key_cols.iter().collect();
            for (row, &h) in hashes.iter().enumerate() {
                if row_has_null_key(&key_refs, row) {
                    continue;
                }
                index.entry(h).or_default().push(row as u32);
            }
            Index { key_cols, index }
        }

        pub(super) fn probe_pairs(
            &self,
            probe_keys: &[&Column],
            hashes: &[u64],
            rows: impl Iterator<Item = u32>,
            want_unmatched: bool,
        ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
            let (mut left_idx, mut right_idx, mut unmatched) = (vec![], vec![], vec![]);
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
            (left_idx, right_idx, unmatched)
        }

        pub(super) fn probe_keep(
            &self,
            probe_keys: &[&Column],
            hashes: &[u64],
            rows: impl Iterator<Item = u32>,
            want_match: bool,
        ) -> Vec<u32> {
            let build_keys: Vec<&Column> = self.key_cols.iter().collect();
            rows.filter(|&row| {
                let has = self.index.get(&hashes[row as usize]).is_some_and(|cands| {
                    cands
                        .iter()
                        .any(|&r| key_rows_eq(probe_keys, row as usize, &build_keys, r as usize))
                });
                has == want_match
            })
            .collect()
        }
    }
}

/// The flat index against [`reference`], and what the recycler accounts
/// for a build side.
#[cfg(test)]
mod index_tests {
    use super::*;
    use crate::fuse::testing::over_operator;
    use crate::fuse::FusedStage;
    use crate::index::testing::{domain, Rng, TYPES};
    use crate::op::run_to_batch;
    use rdb_vector::Value;

    /// One seeded case: build keys plus a column holding the build row
    /// number, and probe keys plus a column holding the probe row number
    /// over physical rows some of which are junk, with the live ones in
    /// `sel`.
    struct Case {
        key_types: Vec<DataType>,
        build: Batch,
        probe: Batch,
        sel: Vec<u32>,
    }

    fn gen_case(rng: &mut Rng) -> Case {
        let n_keys = 1 + rng.below(3) as usize;
        let key_types: Vec<DataType> = (0..n_keys).map(|_| rng.pick(&TYPES)).collect();
        // A small domain per key column keeps NULLs, both zeros, NaNs and
        // the empty string frequent; a large one gives many distinct keys.
        let per_key = rng.pick(&[3, 8, 40, 400]);
        let null_pct = rng.pick(&[0, 0, 5, 30]);
        let key = |rng: &mut Rng| -> Vec<Value> {
            key_types
                .iter()
                .map(|&t| {
                    if rng.chance(null_pct) {
                        Value::Null
                    } else {
                        domain(t, rng.below(per_key))
                    }
                })
                .collect()
        };
        // Distinct build keys (empty build sides included), each repeated
        // 1–50 times, the repeats scattered over the build rows.
        let distinct = rng.pick(&[0, 1, 10, 200, 1500]);
        let max_dup = rng.pick(&[1, 3, 50]);
        let mut build_rows: Vec<Vec<Value>> = Vec::new();
        for _ in 0..distinct {
            if build_rows.len() >= 2000 {
                break;
            }
            let k = key(rng);
            for _ in 0..1 + rng.below(max_dup) {
                build_rows.push(k.clone());
            }
        }
        for i in (1..build_rows.len()).rev() {
            build_rows.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // Probe rows: mostly build keys, some fresh ones, each followed by
        // 0–2 junk rows the selection skips.
        let mut probe_rows: Vec<Vec<Value>> = Vec::new();
        let mut sel = Vec::new();
        for _ in 0..rng.below(500) {
            let k = if !build_rows.is_empty() && rng.chance(70) {
                build_rows[rng.below(build_rows.len() as u64) as usize].clone()
            } else {
                key(rng)
            };
            sel.push(probe_rows.len() as u32);
            probe_rows.push(k);
            for _ in 0..rng.below(3) {
                probe_rows.push(key(rng));
            }
        }
        let columns = |rows: &[Vec<Value>]| -> Vec<Column> {
            key_types
                .iter()
                .enumerate()
                .map(|(c, &t)| {
                    let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                    Column::from_values(t, &vals)
                })
                .collect()
        };
        let mut build_cols = columns(&build_rows);
        build_cols.push(Column::from_ints((0..build_rows.len() as i64).collect()));
        let mut probe_cols = columns(&probe_rows);
        probe_cols.push(Column::from_ints((0..probe_rows.len() as i64).collect()));
        let probe = Batch::new(probe_cols);
        Case {
            key_types,
            build: Batch::new(build_cols),
            probe,
            sel,
        }
    }

    fn key_exprs(n: usize) -> Vec<Expr> {
        (0..n).map(Expr::col).collect()
    }

    /// Both indexes over `case` under `collide`'s view of the hashes must
    /// give the same pairs, unmatched rows and keeps, in the same order.
    fn assert_same_probes(case: &Case, collide: impl Fn(u64) -> u64, what: &str) {
        let n_keys = case.key_types.len();
        let build_keys: Vec<Column> = case.build.columns()[..n_keys].to_vec();
        let probe_keys: Vec<&Column> = case.probe.columns()[..n_keys].iter().collect();
        let hashed = |cols: &[&Column], rows: usize| -> Vec<u64> {
            let mut hs = Vec::new();
            hash_columns(cols, rows, &mut hs);
            hs.into_iter().map(&collide).collect()
        };
        let build_hashes = hashed(&build_keys.iter().collect::<Vec<_>>(), case.build.rows());
        let probe_hashes = hashed(&probe_keys, case.probe.rows());
        let ours = BuildSide::indexed(case.build.clone(), build_keys.clone(), build_hashes.clone())
            .unwrap();
        let theirs = reference::Index::new(build_keys, &build_hashes);
        let rows = || case.sel.iter().copied();
        // One scratch for both probes, as a chain reuses it.
        let mut pairs = ProbePairs::default();
        for want_unmatched in [false, true] {
            ours.probe_pairs(
                &probe_keys,
                &probe_hashes,
                rows(),
                want_unmatched,
                &mut pairs,
            );
            let (left, right, unmatched) =
                theirs.probe_pairs(&probe_keys, &probe_hashes, rows(), want_unmatched);
            let want = ProbePairs {
                left,
                right,
                unmatched,
            };
            assert_eq!(pairs, want, "{what}: pairs, unmatched={want_unmatched}");
        }
        for want_match in [true, false] {
            let mut keep = vec![];
            ours.probe_keep(&probe_keys, &probe_hashes, rows(), want_match, &mut keep);
            let want = theirs.probe_keep(&probe_keys, &probe_hashes, rows(), want_match);
            assert_eq!(keep, want, "{what}: keep, match={want_match}");
        }
    }

    /// What a join of `kind` must emit for `case`, from the reference
    /// index, as `(probe row, build row)` ids: matched pairs, then for a
    /// left outer join the unmatched probe rows (no build row); for semi
    /// and anti joins the kept probe rows.
    fn reference_ids(case: &Case, kind: JoinKind) -> Vec<(i64, Option<i64>)> {
        let n_keys = case.key_types.len();
        let build_keys: Vec<Column> = case.build.columns()[..n_keys].to_vec();
        let probe_keys: Vec<&Column> = case.probe.columns()[..n_keys].iter().collect();
        let mut build_hashes = Vec::new();
        hash_columns(
            &build_keys.iter().collect::<Vec<_>>(),
            case.build.rows(),
            &mut build_hashes,
        );
        let mut probe_hashes = Vec::new();
        hash_columns(&probe_keys, case.probe.rows(), &mut probe_hashes);
        let theirs = reference::Index::new(build_keys, &build_hashes);
        let rows = case.sel.iter().copied();
        match kind {
            JoinKind::Inner | JoinKind::LeftOuter => {
                let want_unmatched = kind == JoinKind::LeftOuter;
                let (l, r, u) =
                    theirs.probe_pairs(&probe_keys, &probe_hashes, rows, want_unmatched);
                let matched = l
                    .into_iter()
                    .zip(r)
                    .map(|(l, r)| (l as i64, Some(r as i64)));
                matched
                    .chain(u.into_iter().map(|l| (l as i64, None)))
                    .collect()
            }
            JoinKind::Semi | JoinKind::Anti => theirs
                .probe_keep(&probe_keys, &probe_hashes, rows, kind == JoinKind::Semi)
                .into_iter()
                .map(|l| (l as i64, None))
                .collect(),
            JoinKind::Single => unreachable!("keyless"),
        }
    }

    /// `case`'s probe through a chain's probe stage of `kind`, fed the
    /// probe batch twice so the chain's scratch carries over between
    /// inputs.
    fn chain_output(case: &Case, kind: JoinKind) -> Batch {
        let right_types: Vec<DataType> =
            case.build.columns().iter().map(|c| c.data_type()).collect();
        let keys = if kind == JoinKind::Single {
            vec![]
        } else {
            key_exprs(case.key_types.len())
        };
        let stage = FusedStage::Probe {
            build: SharedBuild::new(
                over_operator(vec![], vec![case.build.clone()]),
                keys.clone(),
                right_types.clone(),
                OpMetrics::shared(),
                None,
            ),
            kind,
            left_keys: keys,
            right_types,
            metrics: OpMetrics::shared(),
            built: None,
        };
        let input = case
            .probe
            .clone()
            .with_selection(Arc::new(case.sel.clone()));
        run_to_batch(&mut over_operator(vec![stage], vec![input.clone(), input]))
    }

    /// The `(probe row, build row)` ids of a chain's output (see
    /// [`reference_ids`]), after checking that its probe columns are the
    /// probe rows it names.
    fn chain_ids(case: &Case, kind: JoinKind) -> Vec<(i64, Option<i64>)> {
        let out = chain_output(case, kind);
        if out.rows() == 0 {
            return vec![];
        }
        let probe_width = case.probe.width();
        let ids = |c: usize| -> Vec<Option<i64>> {
            let col = out.column(c);
            (0..out.rows())
                .map(|i| col.is_valid(i).then(|| col.as_ints()[i]))
                .collect()
        };
        let probe_ids: Vec<i64> = ids(probe_width - 1).into_iter().flatten().collect();
        let rows: Vec<u32> = probe_ids.iter().map(|&i| i as u32).collect();
        for (c, want) in case.probe.take(&rows).columns().iter().enumerate() {
            // `Value` equality: NaN keys equal themselves.
            assert_eq!(
                out.column(c).to_values(),
                want.to_values(),
                "probe column {c}"
            );
        }
        let build_ids = if out.width() > probe_width {
            ids(out.width() - 1)
        } else {
            vec![None; out.rows()]
        };
        probe_ids.into_iter().zip(build_ids).collect()
    }

    #[test]
    fn flat_index_matches_the_map_reference() {
        let cases = if cfg!(debug_assertions) { 30 } else { 300 };
        for case in 0..cases {
            let mut rng = Rng(0x10e1_0000 + case);
            let c = gen_case(&mut rng);
            let what = format!("case {case} ({:?})", c.key_types);
            assert_same_probes(&c, |h| h, &what);
            // Forced collisions: unequal keys share hashes, so only the
            // key comparison tells candidates apart (and every probe walks
            // a third of the build side, so only over small ones).
            if c.build.rows() <= 400 {
                assert_same_probes(&c, |h| h % 3, &format!("{what}, 3 hashes"));
                assert_same_probes(&c, |_| 7, &format!("{what}, one hash"));
            }
            for kind in [
                JoinKind::Inner,
                JoinKind::LeftOuter,
                JoinKind::Semi,
                JoinKind::Anti,
            ] {
                let want = reference_ids(&c, kind);
                let twice = [want.clone(), want].concat();
                assert_eq!(chain_ids(&c, kind), twice, "{what}: {kind:?} chain");
            }
        }
    }

    #[test]
    fn single_join_over_a_selection() {
        let build = Batch::new(vec![Column::from_ints(vec![4]), Column::from_strs(["x"])]);
        let case = Case {
            key_types: vec![DataType::Int],
            build,
            probe: Batch::new(vec![Column::from_ints(vec![1, 2, 3])]),
            sel: vec![0, 2],
        };
        let rows = chain_output(&case, JoinKind::Single).to_rows();
        let want = |k| vec![Value::Int(k), Value::Int(4), Value::str("x")];
        assert_eq!(rows, [want(1), want(3), want(1), want(3)]);
    }

    #[test]
    fn size_bytes_is_batch_keys_and_index_capacity() {
        let keys = Column::from_values(
            DataType::Str,
            &[
                Value::str("a"),
                Value::Null,
                Value::str("b"),
                Value::str("a"),
            ],
        );
        let build = Batch::new(vec![keys, Column::from_floats(vec![1.0, 2.0, 3.0, 4.0])]);
        let built = build_side(
            vec![build.clone()],
            &key_exprs(1),
            &[DataType::Str, DataType::Float],
        )
        .unwrap();
        let (heads, next, hashes) = built.index.capacities();
        assert!(heads.is_power_of_two() && heads >= built.rows());
        assert!(next >= built.rows() && hashes >= built.rows());
        let key_bytes: usize = built.key_cols.iter().map(|c| c.size_bytes()).sum();
        assert_eq!(
            built.size_bytes(),
            build.size_bytes() + key_bytes + 4 * heads + 4 * next + 8 * hashes
        );
        // No index at all for a keyless build.
        let keyless =
            build_side(vec![build.clone()], &[], &[DataType::Str, DataType::Float]).unwrap();
        assert_eq!(keyless.size_bytes(), build.size_bytes());
    }

    #[test]
    fn a_failed_build_fails_every_later_prober() {
        // The pipeline catches a panicking input; indexing it is what can
        // still panic under the lock: here the key column is missing from
        // the (column-less) build batch.
        let shared = SharedBuild::new(
            over_operator(vec![], vec![]),
            key_exprs(1),
            vec![],
            OpMetrics::shared(),
            None,
        );
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shared.get()));
        assert!(first.is_err(), "the building worker's panic unwinds");
        for _ in 0..2 {
            let err = shared.get().unwrap_err();
            assert!(err.message().contains("failed in another worker"), "{err}");
        }
    }
}
