//! The `store` tee and the cached-result type (paper §II, §III-D).
//!
//! A `Store` plan node is a stage of the fused chain it sits in
//! ([`crate::fuse::FusedStage::Tee`]), so it tees tuples *without
//! interrupting the tuple flow*: the chain's scan or breaker below and the
//! stages above it run in the same push loop, serially or on every worker.
//! Per execution a store has one [`StoreTee`], which can
//!
//! * **pass along** tuples (after a cancelled speculation),
//! * **record** them while run-time estimates decide whether the result is
//!   worth materializing (speculation), or
//! * **materialize** them into the recycler cache (decision already made in
//!   the rewriting phase — history mode).
//!
//! Speculative stores extrapolate the result's final cost and size from the
//! chain source's *progress meter*: a source that has handed out `n` of `m`
//! morsels has progress `n/m`, and `estimate = observed/progress`. The
//! recycler supplies the verdict through [`ResultStore::speculate`]. The
//! tee records `(input index, batch)` pairs, so whatever order workers
//! deliver them in, the chain's consumer publishes them in input order
//! when it resolves the tee at end of input.
//!
//! A cached leaf is read like a table: a [`crate::parallel::MorselDispenser`]
//! over the leased result's chunks, on the morsel grid of its row count.
//!
//! Both directions of the cache are zero-copy: the tee records **shared**
//! batch clones (refcount bumps; data is only gathered once, when the
//! recording is concatenated into the published [`MaterializedResult`]),
//! and replay cuts the cached result into O(1) column slices, so a cache
//! hit costs O(#morsels) rather than O(result bytes).
//!
//! A [`MaterializedResult`] holds its rows as an `rdb_storage::ChunkList`,
//! the type base-table snapshots use. A published result is one chunk. An
//! append repair ([`MaterializedResult::append`]) pushes a tail chunk and
//! shares every sealed chunk with the version it replaces; replay cuts the
//! same morsel grid of the row count as before, slicing inside a chunk and
//! gathering only the batches that straddle a chunk seam.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rdb_storage::{Chunk, ChunkList};
use rdb_vector::{morsel_bounds, morsel_count, Batch, Column, Schema};

use parking_lot::Mutex;

use crate::error::FailSlot;
use crate::join::BuildSide;

/// A fully materialized (intermediate or final) query result: its rows
/// as a [`ChunkList`], the type base-table snapshots use, so a repaired
/// version shares every sealed chunk with the one it replaces.
#[derive(Debug, Clone)]
pub struct MaterializedResult {
    /// Result schema (graph-canonical names).
    pub schema: Schema,
    data: ChunkList,
}

/// `batches` as one chunk of a kept result, dictionaries compacted (see
/// [`MaterializedResult::from_batches`]).
fn kept_chunk(schema: &Schema, batches: &[Batch]) -> Chunk {
    let batch = Batch::concat_or_empty(schema, batches);
    Chunk::new(batch.columns().iter().map(Column::compact_dict).collect())
}

impl MaterializedResult {
    /// Build from collected batches: one chunk, gathered once (zero-copy
    /// for a single selection-free batch). A string column whose
    /// dictionary has more entries than the result has rows is
    /// re-encoded ([`Column::compact_dict`]): a ten-row result must not
    /// pin a table's 30,000-entry comment dictionary.
    pub fn from_batches(schema: Schema, batches: &[Batch]) -> Self {
        let chunk = kept_chunk(&schema, batches);
        MaterializedResult {
            schema,
            data: ChunkList::new(vec![Arc::new(chunk)]),
        }
    }

    /// This result followed by the rows of `tail` (an append repair):
    /// [`ChunkList::push_tail`], so the cost is the tail plus the merges
    /// it triggers, and every sealed chunk is shared with `self`.
    pub fn append(&self, tail: &[Batch]) -> Self {
        let tail = kept_chunk(&self.schema, tail);
        MaterializedResult {
            schema: self.schema.clone(),
            data: self.data.push_tail(tail),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Memory footprint in bytes (what the recycler cache accounts): the
    /// chunks' sum, kept as chunks come and go.
    pub fn size_bytes(&self) -> usize {
        self.data.size_bytes()
    }

    /// The rows as chunks.
    pub fn chunks(&self) -> &ChunkList {
        &self.data
    }

    /// Cut into standard execution batches along the morsel grid of the
    /// row count. A batch inside one chunk is zero-copy (O(1) slices of
    /// the chunk's columns); one straddling a chunk seam is gathered.
    pub fn batches(&self) -> Vec<Batch> {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        (0..morsel_count(self.rows()))
            .map(|i| {
                let (offset, len) = morsel_bounds(self.rows(), i);
                self.data.scan_batch(&self.schema, &all, offset, len)
            })
            .collect()
    }

    /// All rows as one contiguous batch: zero-copy while the result is a
    /// single chunk, a gather otherwise. For kernels that need the whole
    /// result at once (aggregate resume, top-N merge) and for tests.
    pub fn to_batch(&self) -> Batch {
        Batch::new(
            (0..self.schema.len())
                .map(|i| self.data.column(&self.schema, i))
                .collect(),
        )
    }
}

/// Run-time estimate snapshot handed to the recycler during speculation.
#[derive(Debug, Clone)]
pub struct SpeculationEstimate {
    /// Progress of the producing subtree in `[0, 1]` (0 = unknown yet).
    pub progress: f64,
    /// Rows buffered so far.
    pub buffered_rows: u64,
    /// Bytes buffered so far.
    pub buffered_bytes: usize,
    /// Extrapolated final row count (`buffered_rows / progress`).
    pub est_rows: f64,
    /// Extrapolated final size in bytes.
    pub est_bytes: f64,
    /// Extrapolated final subtree cost in nanoseconds.
    pub est_cost_ns: f64,
}

/// Recycler's answer to a speculation snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreVerdict {
    /// Keep buffering; ask again on the next batch.
    #[default]
    Undecided,
    /// Materializing is beneficial: buffer to completion and publish.
    Commit,
    /// Not beneficial: drop the buffer and pass tuples along.
    Cancel,
}

/// Which kind of reusable artifact a cache entry holds. Results are the
/// paper's materialized result sets; hash builds are *operator state*
/// (HashStash-style reuse): the hash table a join would otherwise rebuild
/// from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// A materialized result set (streamable batches).
    Result,
    /// A hash-join build side (concatenated build batches + key index).
    HashBuild,
}

/// Measured cost of constructing a piece of operator state, reported at
/// publish time so the recycler can rank the artifact against competing
/// cache entries.
#[derive(Debug, Clone, Copy, Default)]
pub struct StateCost {
    /// Wall-clock construction time in nanoseconds.
    pub cost_ns: f64,
    /// Deterministic work units (rows processed).
    pub cost_work: f64,
}

/// The executor-facing interface of the recycler cache. Implemented by
/// `rdb-recycler`; a trivial implementation can be used for tests. Every
/// call names a tag the recycler's rewriter put into the plan (a lease or
/// a target); the executor makes no reuse decision of its own.
pub trait ResultStore: Send + Sync {
    /// Fetch the result leased under `tag` (set up by the rewriter when it
    /// substituted a cached result into the plan).
    fn fetch(&self, tag: u64) -> Option<Arc<MaterializedResult>>;

    /// A store operator finished producing the result for `tag`; the
    /// implementation decides admission/replacement.
    fn publish(&self, tag: u64, result: MaterializedResult);

    /// A speculative store abandoned materialization of `tag`.
    fn abandon(&self, tag: u64);

    /// Speculation decision callback (paper §III-D).
    fn speculate(&self, tag: u64, est: &SpeculationEstimate) -> StoreVerdict;

    /// Fetch the hash-join build side leased under `tag` (set up by the
    /// rewriter when it substituted a cached build for a join's build
    /// input). `None` when the tag leases a result instead, or for a store
    /// without a build cache (the default).
    fn fetch_build(&self, tag: u64) -> Option<Arc<BuildSide>> {
        let _ = tag;
        None
    }

    /// A join built its build input under the build target `tag`
    /// ([`rdb_plan::StoreMode::Build`]); `cost` is what constructing it
    /// took. Admission is the implementation's call. Default: drop.
    fn publish_build(&self, tag: u64, build: Arc<BuildSide>, cost: StateCost) {
        let _ = (tag, build, cost);
    }
}

/// Where a store's tee stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Recording while speculating.
    Speculating,
    /// Recording with a commit decision (history mode starts here).
    Committed,
    /// Passing through: the speculation was cancelled, or the tee was
    /// resolved.
    PassThrough,
}

/// What a tee has recorded so far.
struct TeeState {
    phase: Phase,
    /// `(input index, batch)` in arrival order: shared clones (refcount
    /// bumps), gathered once, in index order, at publish.
    recorded: Vec<(u64, Batch)>,
    rows: u64,
    bytes: usize,
    /// Start of the first step of any clone of the tee's chain.
    started: Option<Instant>,
}

/// The `store` operator's state for one execution (paper §II, §III-D):
/// the tee stage of every clone of its chain records into it under one
/// lock, taken once per input that reaches the tee, and the chain's
/// consumer resolves it exactly once, after the last input
/// (`StoreTee::resolve`).
pub struct StoreTee {
    tag: u64,
    schema: Schema,
    store: Arc<dyn ResultStore>,
    /// Query cancel flag: a cancelled query's stream may end early, so the
    /// recording would be a *truncated* result — abandon instead of publish.
    cancel: Option<Arc<AtomicBool>>,
    /// Execution failure slot: a recorded failure also means the stream
    /// ended short, so the recording is equally untrusted.
    fail: Arc<FailSlot>,
    state: Mutex<TeeState>,
}

impl StoreTee {
    /// A tee publishing under `tag`. `speculative` selects the paper's
    /// speculation mode; otherwise the materialization decision was
    /// already made by the rewriter.
    pub(crate) fn new(
        tag: u64,
        schema: Schema,
        store: Arc<dyn ResultStore>,
        speculative: bool,
        cancel: Option<Arc<AtomicBool>>,
        fail: Arc<FailSlot>,
    ) -> StoreTee {
        StoreTee {
            tag,
            schema,
            store,
            cancel,
            fail,
            state: Mutex::new(TeeState {
                phase: if speculative {
                    Phase::Speculating
                } else {
                    Phase::Committed
                },
                recorded: Vec::new(),
                rows: 0,
                bytes: 0,
                started: None,
            }),
        }
    }

    /// Start the speculation clock at `at`, the first step of a chain
    /// clone; later calls keep the earliest.
    pub(crate) fn begin(&self, at: Instant) {
        self.state.lock().started.get_or_insert(at);
    }

    /// Record input `idx`. `batch` builds its live rows and runs only
    /// while recording; a speculating tee then extrapolates from
    /// `progress`, the chain source's meter, and asks the recycler for a
    /// verdict.
    pub(crate) fn record(
        &self,
        idx: u64,
        batch: impl FnOnce() -> Batch,
        progress: impl FnOnce() -> f64,
    ) {
        let mut st = self.state.lock();
        if st.phase == Phase::PassThrough {
            return;
        }
        let batch = batch();
        st.rows += batch.rows() as u64;
        st.bytes += batch.size_bytes();
        st.recorded.push((idx, batch));
        if st.phase == Phase::Speculating {
            let est = estimate(&st, progress().clamp(0.0, 1.0));
            match self.store.speculate(self.tag, &est) {
                StoreVerdict::Undecided => {}
                StoreVerdict::Commit => st.phase = Phase::Committed,
                StoreVerdict::Cancel => {
                    st.recorded = Vec::new();
                    st.rows = 0;
                    st.bytes = 0;
                    st.phase = Phase::PassThrough;
                    self.store.abandon(self.tag);
                }
            }
        }
    }

    /// End of input, called once by the chain's consumer: abandon when the
    /// stream may have ended short (a set fail slot or cancel flag), let
    /// a still-undecided speculation decide once more with exact numbers
    /// (progress 1), and publish on commit the recorded batches in input
    /// order. The tee then passes through.
    pub(crate) fn resolve(&self) {
        let mut st = self.state.lock();
        let publish = match st.phase {
            Phase::PassThrough => return,
            _ if self
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::Acquire))
                || self.fail.is_set() =>
            {
                false
            }
            Phase::Committed => true,
            Phase::Speculating => {
                let est = estimate(&st, 1.0);
                self.store.speculate(self.tag, &est) == StoreVerdict::Commit
            }
        };
        st.phase = Phase::PassThrough;
        let mut recorded = std::mem::take(&mut st.recorded);
        drop(st);
        if !publish {
            self.store.abandon(self.tag);
            return;
        }
        recorded.sort_unstable_by_key(|(idx, _)| *idx);
        let batches: Vec<Batch> = recorded.into_iter().map(|(_, b)| b).collect();
        let result = MaterializedResult::from_batches(self.schema.clone(), &batches);
        self.store.publish(self.tag, result);
    }
}

/// Extrapolate the final result from what `st` recorded by `progress`.
fn estimate(st: &TeeState, progress: f64) -> SpeculationEstimate {
    let p = progress.max(1e-6);
    let elapsed = st.started.map_or(0.0, |t| t.elapsed().as_nanos() as f64);
    SpeculationEstimate {
        progress,
        buffered_rows: st.rows,
        buffered_bytes: st.bytes,
        est_rows: st.rows as f64 / p,
        est_bytes: st.bytes as f64 / p,
        est_cost_ns: elapsed / p,
    }
}

/// A recycler stand-in for this crate's tee tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::fuse::FusedStage;
    use crate::metrics::OpMetrics;
    use std::collections::HashMap;

    /// Records what tees do; answers every speculation with `verdict`.
    #[derive(Default)]
    pub(crate) struct MockStore {
        pub(crate) published: Mutex<HashMap<u64, Arc<MaterializedResult>>>,
        /// Every `publish` call's tag, in order.
        pub(crate) publishes: Mutex<Vec<u64>>,
        pub(crate) abandoned: Mutex<Vec<u64>>,
        /// Every `publish_build` call's tag, in order.
        pub(crate) builds: Mutex<Vec<u64>>,
        pub(crate) verdict: Mutex<StoreVerdict>,
        /// `speculate` calls.
        pub(crate) calls: Mutex<u64>,
    }

    impl ResultStore for MockStore {
        fn fetch(&self, tag: u64) -> Option<Arc<MaterializedResult>> {
            self.published.lock().get(&tag).cloned()
        }
        fn publish(&self, tag: u64, result: MaterializedResult) {
            self.publishes.lock().push(tag);
            self.published.lock().insert(tag, Arc::new(result));
        }
        fn abandon(&self, tag: u64) {
            self.abandoned.lock().push(tag);
        }
        fn speculate(&self, _tag: u64, _est: &SpeculationEstimate) -> StoreVerdict {
            *self.calls.lock() += 1;
            *self.verdict.lock()
        }
        fn publish_build(&self, tag: u64, _build: Arc<BuildSide>, _cost: StateCost) {
            self.builds.lock().push(tag);
        }
    }

    /// A tee stage recording rows of `schema` for `tag` into `store`.
    pub(crate) fn tee(
        tag: u64,
        schema: Schema,
        store: Arc<dyn ResultStore>,
        speculative: bool,
    ) -> FusedStage {
        FusedStage::Tee {
            tee: Arc::new(StoreTee::new(
                tag,
                schema,
                store,
                speculative,
                None,
                FailSlot::shared(),
            )),
            metrics: OpMetrics::shared(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{tee, MockStore};
    use super::*;
    use crate::build::build;
    use crate::context::ExecContext;
    use crate::fuse::testing::{over_morsels, over_operator};
    use crate::op::run_to_batch;
    use rdb_plan::Plan;
    use rdb_storage::Catalog;
    use rdb_vector::{Column, DataType};

    fn schema() -> Schema {
        Schema::from_pairs([("x", DataType::Int)])
    }

    /// A lone tee for `tag` over `groups` (one batch each), fed by an
    /// operator and then by a morsel dispenser, each run with a fresh
    /// store from `store`: the runs' outputs, with their stores.
    fn tee_over_both<S: ResultStore + 'static>(
        groups: &[Vec<i64>],
        tag: u64,
        speculative: bool,
        store: impl Fn() -> Arc<S>,
    ) -> Vec<(Batch, Arc<S>)> {
        let input: Vec<Batch> = groups
            .iter()
            .map(|g| Batch::new(vec![Column::from_ints(g.clone())]))
            .collect();
        [false, true]
            .into_iter()
            .map(|morsels| {
                let s = store();
                let stage = tee(tag, schema(), s.clone(), speculative);
                let mut exec = if morsels {
                    over_morsels(vec![stage], &input)
                } else {
                    over_operator(vec![stage], input.clone())
                };
                (run_to_batch(&mut exec), s)
            })
            .collect()
    }

    fn mock(verdict: StoreVerdict) -> impl Fn() -> Arc<MockStore> {
        move || {
            let store = Arc::new(MockStore::default());
            *store.verdict.lock() = verdict;
            store
        }
    }

    #[test]
    fn materialize_mode_tees_and_publishes() {
        let runs = tee_over_both(
            &[vec![1, 2], vec![3]],
            7,
            false,
            mock(StoreVerdict::Undecided),
        );
        for (out, store) in runs {
            assert_eq!(out.column(0).as_ints(), &[1, 2, 3], "flow uninterrupted");
            let published = store.fetch(7).expect("result published");
            assert_eq!(published.to_batch().column(0).as_ints(), &[1, 2, 3]);
            assert!(published.size_bytes() > 0);
        }
    }

    #[test]
    fn speculation_commit_publishes() {
        for (_, store) in tee_over_both(&[vec![1], vec![2]], 1, true, mock(StoreVerdict::Commit)) {
            assert!(store.fetch(1).is_some());
            assert!(store.abandoned.lock().is_empty());
        }
    }

    #[test]
    fn speculation_cancel_drops_buffer() {
        let runs = tee_over_both(
            &[vec![1], vec![2], vec![3]],
            2,
            true,
            mock(StoreVerdict::Cancel),
        );
        for (out, store) in runs {
            assert_eq!(out.rows(), 3, "tuples still flow after cancel");
            assert!(store.fetch(2).is_none());
            assert_eq!(store.abandoned.lock().as_slice(), &[2]);
            // Speculation stops after the cancel verdict.
            assert_eq!(*store.calls.lock(), 1);
        }
    }

    #[test]
    fn undecided_speculation_resolves_at_completion() {
        // Recycler stays undecided mid-flight; at end-of-stream the store
        // asks one final time with exact numbers (progress == 1).
        #[derive(Default)]
        struct DecideAtEnd(MockStore);
        impl ResultStore for DecideAtEnd {
            fn fetch(&self, t: u64) -> Option<Arc<MaterializedResult>> {
                self.0.fetch(t)
            }
            fn publish(&self, t: u64, r: MaterializedResult) {
                self.0.publish(t, r)
            }
            fn abandon(&self, t: u64) {
                self.0.abandon(t)
            }
            fn speculate(&self, _t: u64, est: &SpeculationEstimate) -> StoreVerdict {
                if est.progress >= 1.0 {
                    StoreVerdict::Commit
                } else {
                    StoreVerdict::Undecided
                }
            }
        }
        let runs = tee_over_both(&[vec![1], vec![2]], 3, true, || {
            Arc::new(DecideAtEnd::default())
        });
        for (_, store) in runs {
            assert!(store.fetch(3).is_some());
        }
    }

    #[test]
    fn cached_exec_replays() {
        // A cached leaf is a zero-stage chain over a dispenser.
        let store = Arc::new(MockStore::default());
        store.publish(
            9,
            MaterializedResult::from_batches(
                schema(),
                &[Batch::new(vec![Column::from_ints(vec![5, 6])])],
            ),
        );
        let ctx = ExecContext::new(Arc::new(Catalog::new())).with_store(store);
        let plan = Plan::Cached {
            tag: 9,
            schema: schema(),
        };
        let mut tree = build(&plan, &ctx).unwrap();
        let out = run_to_batch(tree.root.as_mut());
        assert_eq!(out.column(0).as_ints(), &[5, 6]);
        assert_eq!(tree.root.progress(), 1.0);
    }

    #[test]
    fn empty_result_materializes_with_width() {
        let r = MaterializedResult::from_batches(schema(), &[]);
        assert_eq!(r.rows(), 0);
        assert_eq!(r.to_batch().width(), 1);
        assert!(r.batches().is_empty());
    }

    #[test]
    fn cached_leaf_without_lease_fails_the_build() {
        let ctx =
            ExecContext::new(Arc::new(Catalog::new())).with_store(Arc::new(MockStore::default()));
        let plan = Plan::Cached {
            tag: 42,
            schema: schema(),
        };
        let Err(err) = build(&plan, &ctx) else {
            panic!("a missing lease must fail the build");
        };
        assert!(err.to_string().contains("cached tag 42"), "{err}");
    }
}
