//! Blocking hash aggregation.
//!
//! The group table hashes encoded key bytes with the vendored FxHash (the
//! keys are derived from the data being aggregated; SipHash's DoS
//! resistance buys nothing) and input batches are consumed
//! selection-aware: filtered batches arrive as shared columns plus a
//! selection vector and only the selected rows are folded in — the
//! aggregate is the pipeline breaker, so nothing upstream ever gathered.
//!
//! **Deterministic emission order.** The breaker emits groups sorted by
//! group key (ascending `Value` order, NULLs first), *not* in hash-table
//! insertion order. This makes the output independent of input batch
//! arrival order — and therefore of worker interleaving under
//! morsel-driven parallel execution (see [`crate::parallel`]) — which the
//! recycler requires: fingerprint-identical plans must publish
//! byte-identical `MaterializedResult`s whether they ran at DOP 1 or 8.
//!
//! The same `GroupTable` state backs both the serial [`HashAggExec`] and
//! the partitioned parallel aggregation: each worker folds its morsels into
//! a private table, and the partials are merged pairwise at the breaker
//! (`GroupTable::merge`), where the sort then erases the merge order.

use std::sync::Arc;

use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};

use rdb_expr::{eval, AggFunc, Expr};
use rdb_vector::column::ColumnBuilder;
use rdb_vector::row::encode_row_key;
use rdb_vector::{Batch, Column, DataType, Value, BATCH_CAPACITY};

use crate::metrics::OpMetrics;
use crate::op::{timed_next, Operator};

/// One per-group accumulator.
#[derive(Debug)]
pub(crate) enum Acc {
    /// `count(*)` / `count(expr)`.
    Count(i64),
    /// `sum` over integers; `seen` distinguishes 0 from SQL NULL-sum.
    SumInt { total: i64, seen: bool },
    /// `sum` over floats.
    SumFloat { total: f64, seen: bool },
    /// `min`.
    Min(Option<Value>),
    /// `max`.
    Max(Option<Value>),
    /// `count(distinct expr)`.
    Distinct(FxHashSet<Value>),
}

impl Acc {
    /// The empty accumulator. `avg` has none: [`rdb_plan::normalize()`]
    /// lowers it to `sum` and `count`, and the builder rejects a plan
    /// that still holds one.
    fn new(func: &AggFunc, input_types: &[DataType]) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count(_) => Acc::Count(0),
            AggFunc::Sum(e) => match e.data_type(input_types) {
                DataType::Int => Acc::SumInt {
                    total: 0,
                    seen: false,
                },
                _ => Acc::SumFloat {
                    total: 0.0,
                    seen: false,
                },
            },
            AggFunc::Min(_) => Acc::Min(None),
            AggFunc::Max(_) => Acc::Max(None),
            AggFunc::CountDistinct(_) => Acc::Distinct(FxHashSet::default()),
            AggFunc::Avg(_) => unreachable!("avg is lowered to sum and count before execution"),
        }
    }

    /// Fold in row `i` of the evaluated argument column (`None` for
    /// `count(*)`).
    fn update(&mut self, arg: Option<&Column>, i: usize) {
        match self {
            Acc::Count(n) => match arg {
                None => *n += 1,
                Some(c) => {
                    if c.is_valid(i) {
                        *n += 1;
                    }
                }
            },
            Acc::SumInt { total, seen } => {
                let c = arg.expect("sum needs an argument");
                if c.is_valid(i) {
                    *total += c.as_ints()[i];
                    *seen = true;
                }
            }
            Acc::SumFloat { total, seen } => {
                let c = arg.expect("sum needs an argument");
                if c.is_valid(i) {
                    *total += match c.get(i).as_float() {
                        Some(f) => f,
                        None => return,
                    };
                    *seen = true;
                }
            }
            Acc::Min(cur) => {
                let c = arg.expect("min needs an argument");
                if c.is_valid(i) {
                    let v = c.get(i);
                    if cur.as_ref().is_none_or(|m| v < *m) {
                        *cur = Some(v);
                    }
                }
            }
            Acc::Max(cur) => {
                let c = arg.expect("max needs an argument");
                if c.is_valid(i) {
                    let v = c.get(i);
                    if cur.as_ref().is_none_or(|m| v > *m) {
                        *cur = Some(v);
                    }
                }
            }
            Acc::Distinct(set) => {
                let c = arg.expect("count distinct needs an argument");
                if c.is_valid(i) {
                    set.insert(c.get(i));
                }
            }
        }
    }

    /// Combine a partial accumulator produced by another worker over a
    /// disjoint subset of the same group's rows.
    pub(crate) fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (
                Acc::SumInt { total, seen },
                Acc::SumInt {
                    total: t2,
                    seen: s2,
                },
            ) => {
                *total += t2;
                *seen |= s2;
            }
            (
                Acc::SumFloat { total, seen },
                Acc::SumFloat {
                    total: t2,
                    seen: s2,
                },
            ) => {
                *total += t2;
                *seen |= s2;
            }
            (Acc::Min(cur), Acc::Min(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|m| v < *m) {
                        *cur = Some(v);
                    }
                }
            }
            (Acc::Max(cur), Acc::Max(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|m| v > *m) {
                        *cur = Some(v);
                    }
                }
            }
            (Acc::Distinct(set), Acc::Distinct(other)) => set.extend(other),
            _ => unreachable!("merging accumulators of different shapes"),
        }
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::SumInt { total, seen } => {
                if *seen {
                    Value::Int(*total)
                } else {
                    Value::Null
                }
            }
            Acc::SumFloat { total, seen } => {
                if *seen {
                    Value::Float(*total)
                } else {
                    Value::Null
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Distinct(set) => Value::Int(set.len() as i64),
        }
    }
}

pub(crate) struct Group {
    key: Vec<Value>,
    accs: Vec<Acc>,
}

/// A hash table from group key to accumulator states: the shared state of
/// serial and partitioned parallel aggregation.
pub(crate) struct GroupTable {
    group_by: Vec<Expr>,
    aggs: Vec<AggFunc>,
    input_types: Vec<DataType>,
    groups: FxHashMap<Vec<u8>, usize>,
    states: Vec<Group>,
    key_buf: Vec<u8>,
}

impl GroupTable {
    pub(crate) fn new(group_by: Vec<Expr>, aggs: Vec<AggFunc>, input_types: Vec<DataType>) -> Self {
        GroupTable {
            group_by,
            aggs,
            input_types,
            // Pre-size for one full vector of distinct keys; the map grows
            // only when the workload really has more groups than that.
            groups: FxHashMap::with_capacity_and_hasher(BATCH_CAPACITY, FxBuildHasher::default()),
            states: Vec::new(),
            key_buf: Vec::new(),
        }
    }

    /// Fold a batch in, selection-aware.
    pub(crate) fn fold(&mut self, batch: &Batch) {
        let key_cols: Vec<Column> = self.group_by.iter().map(|e| eval(e, batch)).collect();
        let key_refs: Vec<&Column> = key_cols.iter().collect();
        let arg_cols: Vec<Option<Column>> = self
            .aggs
            .iter()
            .map(|a| a.argument().map(|e| eval(e, batch)))
            .collect();
        let sel = batch.sel();
        for li in 0..batch.rows() {
            // Selection-aware: `row` is the physical position.
            let row = match sel {
                Some(s) => s[li] as usize,
                None => li,
            };
            self.key_buf.clear();
            encode_row_key(&key_refs, row, &mut self.key_buf);
            let idx = match self.groups.get(&self.key_buf) {
                Some(&i) => i,
                None => {
                    let idx = self.states.len();
                    self.states.push(Group {
                        key: key_refs.iter().map(|c| c.get(row)).collect(),
                        accs: self
                            .aggs
                            .iter()
                            .map(|a| Acc::new(a, &self.input_types))
                            .collect(),
                    });
                    self.groups.insert(self.key_buf.clone(), idx);
                    idx
                }
            };
            for (acc, arg) in self.states[idx].accs.iter_mut().zip(&arg_cols) {
                acc.update(arg.as_ref(), row);
            }
        }
    }

    /// Absorb another partial table computed over a disjoint row subset.
    pub(crate) fn merge(&mut self, other: GroupTable) {
        let GroupTable {
            groups, mut states, ..
        } = other;
        for (key_bytes, other_idx) in groups {
            // Each state is consumed exactly once (group keys are unique),
            // so take the accumulators out by swap.
            let g = &mut states[other_idx];
            let accs = std::mem::take(&mut g.accs);
            let key = std::mem::take(&mut g.key);
            match self.groups.get(&key_bytes) {
                Some(&i) => {
                    for (acc, o) in self.states[i].accs.iter_mut().zip(accs) {
                        acc.merge(o);
                    }
                }
                None => {
                    let idx = self.states.len();
                    self.states.push(Group { key, accs });
                    self.groups.insert(key_bytes, idx);
                }
            }
        }
    }

    /// Finish: sort groups by key for deterministic emission (see module
    /// docs), adding SQL's single empty-input row for global aggregation.
    pub(crate) fn into_sorted_states(mut self) -> Vec<Group> {
        if self.states.is_empty() && self.group_by.is_empty() {
            self.states.push(Group {
                key: vec![],
                accs: self
                    .aggs
                    .iter()
                    .map(|a| Acc::new(a, &self.input_types))
                    .collect(),
            });
        }
        self.states.sort_by(|a, b| a.key.cmp(&b.key));
        self.states
    }
}

/// Chunk sorted group states into output batches.
pub(crate) fn emit_groups(
    states: &[Group],
    output_types: &[DataType],
    group_len: usize,
) -> Vec<Batch> {
    let width = output_types.len();
    let mut out = Vec::new();
    let mut offset = 0;
    while offset < states.len() {
        let len = BATCH_CAPACITY.min(states.len() - offset);
        let mut builders: Vec<ColumnBuilder> = output_types
            .iter()
            .map(|t| ColumnBuilder::new(*t, len))
            .collect();
        for g in &states[offset..offset + len] {
            for (k, v) in g.key.iter().enumerate() {
                builders[k].push(v.clone());
            }
            for (a, acc) in g.accs.iter().enumerate() {
                builders[group_len + a].push(acc.finish());
            }
        }
        let cols: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
        debug_assert_eq!(cols.len(), width);
        out.push(Batch::new(cols));
        offset += len;
    }
    out
}

/// Recover the accumulator whose serial fold over the group's rows
/// produced the finished value `v`, or `None` when the finished value
/// under-determines the state (`count distinct` loses its set). The recovered accumulator continues the
/// *exact* serial fold: folding further rows into it yields bit-identical
/// results to re-folding the whole input from scratch — including float
/// sums, because `(((0 + a) + b) + c)` resumed after `b` is literally the
/// same operation sequence.
fn resume_acc(func: &AggFunc, input_types: &[DataType], v: Value) -> Option<Acc> {
    match func {
        AggFunc::CountStar | AggFunc::Count(_) => match v {
            Value::Int(n) => Some(Acc::Count(n)),
            _ => None,
        },
        AggFunc::Sum(e) => match e.data_type(input_types) {
            DataType::Int => Some(match v {
                Value::Int(t) => Acc::SumInt {
                    total: t,
                    seen: true,
                },
                _ => Acc::SumInt {
                    total: 0,
                    seen: false,
                },
            }),
            _ => match v {
                Value::Null => Some(Acc::SumFloat {
                    total: 0.0,
                    seen: false,
                }),
                other => Some(Acc::SumFloat {
                    total: other.as_float()?,
                    seen: true,
                }),
            },
        },
        AggFunc::Min(_) => Some(Acc::Min(match v {
            Value::Null => None,
            other => Some(other),
        })),
        AggFunc::Max(_) => Some(Acc::Max(match v {
            Value::Null => None,
            other => Some(other),
        })),
        AggFunc::CountDistinct(_) | AggFunc::Avg(_) => None,
    }
}

/// An aggregation table re-materialized from a cached result so that new
/// input rows can be folded in *incrementally* — the delta-repair kernel
/// for appends. `resume` rebuilds every group's accumulator from its
/// finished output row (see `resume_acc` for which aggregates admit
/// this), `fold` continues the serial fold with delta rows, and `finish`
/// re-emits the sorted groups. The emitted batches are byte-identical to
/// recomputing the aggregate over old ++ delta input.
pub struct ResumedAgg {
    table: GroupTable,
    output_types: Vec<DataType>,
    group_len: usize,
}

impl ResumedAgg {
    /// Rebuild group state from `cached` (the aggregate's emitted rows:
    /// group keys then finished aggregate values, dense). Returns `None`
    /// when any aggregate's state cannot be recovered from its finished
    /// value.
    pub fn resume(
        cached: &Batch,
        group_by: Vec<Expr>,
        aggs: Vec<AggFunc>,
        input_types: Vec<DataType>,
        output_types: Vec<DataType>,
    ) -> Option<ResumedAgg> {
        let group_len = group_by.len();
        let mut table = GroupTable::new(group_by, aggs, input_types);
        let key_refs: Vec<&Column> = cached.columns()[..group_len].iter().collect();
        let mut key_buf = Vec::new();
        for row in 0..cached.rows() {
            let accs = table
                .aggs
                .iter()
                .enumerate()
                .map(|(j, a)| {
                    resume_acc(a, &table.input_types, cached.column(group_len + j).get(row))
                })
                .collect::<Option<Vec<Acc>>>()?;
            key_buf.clear();
            encode_row_key(&key_refs, row, &mut key_buf);
            let idx = table.states.len();
            table.states.push(Group {
                key: key_refs.iter().map(|c| c.get(row)).collect(),
                accs,
            });
            table.groups.insert(key_buf.clone(), idx);
        }
        Some(ResumedAgg {
            table,
            output_types,
            group_len,
        })
    }

    /// Continue the fold with a (delta) input batch, selection-aware.
    pub fn fold(&mut self, batch: &Batch) {
        self.table.fold(batch);
    }

    /// Re-emit the sorted group rows.
    pub fn finish(self) -> Vec<Batch> {
        let states = self.table.into_sorted_states();
        emit_groups(&states, &self.output_types, self.group_len)
    }
}

/// Delete-repair for pure counting aggregates: subtract the deleted rows'
/// per-group counts from `cached` and drop groups whose `count(*)` hits
/// zero. Requires every aggregate to be `count(*)` or `count(expr)` with
/// at least one `count(*)` present — the `count(*)` column proves a group
/// lost *all* its rows (retraction), which no other finished value can
/// (`sum` over `[5, NULL]` minus 5 is NULL, not 0). Returns `None` when
/// the gate fails, a deleted row's group is missing from the cache, or a
/// count would go negative — the caller must evict instead.
pub fn retract_count_groups(
    cached: &Batch,
    group_by: Vec<Expr>,
    aggs: Vec<AggFunc>,
    input_types: Vec<DataType>,
    output_types: Vec<DataType>,
    deleted_input: &[Batch],
) -> Option<Vec<Batch>> {
    let star = aggs.iter().position(|a| matches!(a, AggFunc::CountStar))?;
    if !aggs
        .iter()
        .all(|a| matches!(a, AggFunc::CountStar | AggFunc::Count(_)))
    {
        return None;
    }
    let group_len = group_by.len();
    let mut retract = GroupTable::new(group_by, aggs.clone(), input_types);
    for b in deleted_input {
        retract.fold(b);
    }
    let key_refs: Vec<&Column> = cached.columns()[..group_len].iter().collect();
    let mut index: FxHashMap<Vec<u8>, usize> =
        FxHashMap::with_capacity_and_hasher(cached.rows(), FxBuildHasher::default());
    let mut key_buf = Vec::new();
    for row in 0..cached.rows() {
        key_buf.clear();
        encode_row_key(&key_refs, row, &mut key_buf);
        index.insert(key_buf.clone(), row);
    }
    let mut sub = vec![vec![0i64; aggs.len()]; cached.rows()];
    for (key_bytes, &idx) in &retract.groups {
        // Every deleted row existed in the old table, so its group must be
        // in the cached result; a miss means the cache and the delta have
        // diverged and repair is unsound.
        let row = *index.get(key_bytes)?;
        for (j, acc) in retract.states[idx].accs.iter().enumerate() {
            sub[row][j] = match acc {
                Acc::Count(n) => *n,
                _ => return None,
            };
        }
    }
    let mut states = Vec::with_capacity(cached.rows());
    for (row, sub_row) in sub.iter().enumerate() {
        let mut accs = Vec::with_capacity(aggs.len());
        for (j, _) in aggs.iter().enumerate() {
            let old = match cached.column(group_len + j).get(row) {
                Value::Int(n) => n,
                _ => return None,
            };
            let new = old - sub_row[j];
            if new < 0 {
                return None;
            }
            accs.push(Acc::Count(new));
        }
        let star_count = match &accs[star] {
            Acc::Count(n) => *n,
            _ => unreachable!(),
        };
        // A grouped aggregate drops fully-retracted groups; the global
        // (group-less) row survives even at zero, exactly like recomputing
        // over empty input.
        if group_len > 0 && star_count == 0 {
            continue;
        }
        states.push(Group {
            key: key_refs.iter().map(|c| c.get(row)).collect(),
            accs,
        });
    }
    // Cached rows are already in sorted-key order and retraction only
    // drops rows, so the order invariant is preserved without re-sorting.
    Some(emit_groups(&states, &output_types, group_len))
}

/// Blocking hash aggregation: consumes the whole input, then streams the
/// grouped result sorted by group key. With no group keys it produces
/// exactly one row (also for empty input, per SQL semantics).
pub struct HashAggExec {
    child: Box<dyn Operator>,
    group_by: Vec<Expr>,
    aggs: Vec<AggFunc>,
    input_types: Vec<DataType>,
    output_types: Vec<DataType>,
    output: Option<Vec<Batch>>,
    emitted_batches: usize,
    metrics: Arc<OpMetrics>,
}

impl HashAggExec {
    /// Create the operator. `input_types` are the child's column types;
    /// `output_types` the output schema types (groups then aggregates).
    pub fn new(
        child: Box<dyn Operator>,
        group_by: Vec<Expr>,
        aggs: Vec<AggFunc>,
        input_types: Vec<DataType>,
        output_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        assert_eq!(group_by.len() + aggs.len(), output_types.len());
        HashAggExec {
            child,
            group_by,
            aggs,
            input_types,
            output_types,
            output: None,
            emitted_batches: 0,
            metrics,
        }
    }

    fn build(&mut self) -> Vec<Batch> {
        let mut table = GroupTable::new(
            self.group_by.clone(),
            self.aggs.clone(),
            self.input_types.clone(),
        );
        while let Some(batch) = self.child.next_batch() {
            self.metrics.add_work(batch.rows() as u64);
            table.fold(&batch);
        }
        let states = table.into_sorted_states();
        emit_groups(&states, &self.output_types, self.group_by.len())
    }
}

impl Operator for HashAggExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.output.is_none() {
                let built = self.build();
                self.output = Some(built);
            }
            let out = self.output.as_ref().unwrap();
            if self.emitted_batches < out.len() {
                let b = out[self.emitted_batches].clone();
                self.emitted_batches += 1;
                Some(b)
            } else {
                None
            }
        })
    }

    fn progress(&self) -> f64 {
        match &self.output {
            None => 0.0,
            Some(out) => {
                if out.is_empty() {
                    1.0
                } else {
                    self.emitted_batches as f64 / out.len() as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::run_to_batch;
    use crate::op::testing::BatchSource;

    fn src(cols: Vec<Column>) -> Box<dyn Operator> {
        BatchSource::boxed(vec![Batch::new(cols)])
    }

    #[test]
    fn grouped_aggregation() {
        let child = src(vec![
            Column::from_strs(["a", "b", "a", "a"]),
            Column::from_ints(vec![1, 2, 3, 4]),
        ]);
        let mut agg = HashAggExec::new(
            child,
            vec![Expr::col(0)],
            vec![
                AggFunc::Sum(Expr::col(1)),
                AggFunc::CountStar,
                AggFunc::Max(Expr::col(1)),
            ],
            vec![DataType::Str, DataType::Int],
            vec![DataType::Str, DataType::Int, DataType::Int, DataType::Int],
            OpMetrics::shared(),
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(out.rows(), 2);
        let rows = out.to_rows();
        assert_eq!(
            rows[0],
            vec![Value::str("a"), Value::Int(8), Value::Int(3), Value::Int(4)]
        );
        assert_eq!(
            rows[1],
            vec![Value::str("b"), Value::Int(2), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn emission_is_sorted_by_group_key_not_arrival_order() {
        // Keys arrive in descending order interleaved across batches; the
        // breaker must emit ascending regardless.
        let child = BatchSource::boxed(vec![
            Batch::new(vec![Column::from_ints(vec![9, 3, 7])]),
            Batch::new(vec![Column::from_ints(vec![1, 9, 5])]),
        ]);
        let mut agg = HashAggExec::new(
            child,
            vec![Expr::col(0)],
            vec![AggFunc::CountStar],
            vec![DataType::Int],
            vec![DataType::Int, DataType::Int],
            OpMetrics::shared(),
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(out.column(0).as_ints(), &[1, 3, 5, 7, 9]);
        assert_eq!(out.column(1).as_ints(), &[1, 1, 1, 1, 2]);
    }

    #[test]
    fn partial_tables_merge_to_the_same_result() {
        let mk = || {
            GroupTable::new(
                vec![Expr::col(0)],
                vec![
                    AggFunc::Sum(Expr::col(1)),
                    AggFunc::CountStar,
                    AggFunc::Min(Expr::col(1)),
                    AggFunc::Max(Expr::col(1)),
                    AggFunc::CountDistinct(Expr::col(1)),
                ],
                vec![DataType::Int, DataType::Int],
            )
        };
        let b1 = Batch::new(vec![
            Column::from_ints(vec![1, 2, 1]),
            Column::from_ints(vec![10, 20, 30]),
        ]);
        let b2 = Batch::new(vec![
            Column::from_ints(vec![2, 3, 1]),
            Column::from_ints(vec![40, 50, 10]),
        ]);
        // Serial: both batches into one table.
        let mut serial = mk();
        serial.fold(&b1);
        serial.fold(&b2);
        // Parallel: one table per batch, merged.
        let mut p1 = mk();
        p1.fold(&b1);
        let mut p2 = mk();
        p2.fold(&b2);
        p1.merge(p2);
        let types = vec![
            DataType::Int,
            DataType::Int,
            DataType::Int,
            DataType::Int,
            DataType::Int,
            DataType::Int,
        ];
        let a = emit_groups(&serial.into_sorted_states(), &types, 1);
        let b = emit_groups(&p1.into_sorted_states(), &types, 1);
        assert_eq!(Batch::concat(&a).to_rows(), Batch::concat(&b).to_rows());
    }

    #[test]
    fn global_aggregation_on_empty_input() {
        let child = BatchSource::boxed(vec![]);
        let mut agg = HashAggExec::new(
            child,
            vec![],
            vec![AggFunc::CountStar, AggFunc::Sum(Expr::col(0))],
            vec![DataType::Int],
            vec![DataType::Int, DataType::Int],
            OpMetrics::shared(),
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn min_max_and_distinct() {
        let child = src(vec![
            Column::from_ints(vec![1, 1, 1, 1]),
            Column::from_floats(vec![2.0, 8.0, 2.0, 4.0]),
        ]);
        let mut agg = HashAggExec::new(
            child,
            vec![Expr::col(0)],
            vec![
                AggFunc::Min(Expr::col(1)),
                AggFunc::Max(Expr::col(1)),
                AggFunc::CountDistinct(Expr::col(1)),
            ],
            vec![DataType::Int, DataType::Float],
            vec![
                DataType::Int,
                DataType::Float,
                DataType::Float,
                DataType::Int,
            ],
            OpMetrics::shared(),
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(
            out.row(0),
            vec![
                Value::Int(1),
                Value::Float(2.0),
                Value::Float(8.0),
                Value::Int(3)
            ]
        );
    }

    #[test]
    fn count_skips_nulls_sum_int() {
        let mut b = ColumnBuilder::new(DataType::Int, 3);
        b.push(Value::Int(5));
        b.push_null();
        b.push(Value::Int(7));
        let child = src(vec![b.finish()]);
        let mut agg = HashAggExec::new(
            child,
            vec![],
            vec![
                AggFunc::Count(Expr::col(0)),
                AggFunc::CountStar,
                AggFunc::Sum(Expr::col(0)),
            ],
            vec![DataType::Int],
            vec![DataType::Int, DataType::Int, DataType::Int],
            OpMetrics::shared(),
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(
            out.row(0),
            vec![Value::Int(2), Value::Int(3), Value::Int(12)]
        );
    }

    #[test]
    fn group_by_expression() {
        let child = src(vec![Column::from_ints(vec![10, 11, 20, 21, 30])]);
        let mut agg = HashAggExec::new(
            child,
            vec![Expr::col(0).div(Expr::lit(10))], // int div promotes to float
            vec![AggFunc::CountStar],
            vec![DataType::Int],
            vec![DataType::Float, DataType::Int],
            OpMetrics::shared(),
        );
        let out = run_to_batch(&mut agg);
        assert_eq!(out.rows(), 5); // 1.0, 1.1, 2.0, 2.1, 3.0 are distinct
    }

    #[test]
    fn progress_moves_to_one() {
        let child = src(vec![Column::from_ints(vec![1])]);
        let mut agg = HashAggExec::new(
            child,
            vec![Expr::col(0)],
            vec![AggFunc::CountStar],
            vec![DataType::Int],
            vec![DataType::Int, DataType::Int],
            OpMetrics::shared(),
        );
        assert_eq!(agg.progress(), 0.0);
        while agg.next_batch().is_some() {}
        assert_eq!(agg.progress(), 1.0);
    }
}
