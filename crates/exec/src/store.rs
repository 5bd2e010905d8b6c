//! The `store` operator and cached-result scan (paper §II, §III-D).
//!
//! A [`StoreExec`] wraps an arbitrary sub-pipeline and can, *without
//! interrupting the tuple flow*:
//!
//! * **pass along** tuples (after a cancelled speculation),
//! * **buffer** them while run-time estimates decide whether the result is
//!   worth materializing (speculation), or
//! * **materialize** them into the recycler cache (decision already made in
//!   the rewriting phase — history mode).
//!
//! Speculative stores extrapolate the result's final cost and size from the
//! producing operator's *progress meter*: an operator that has processed
//! `n` of `m` tuples has progress `n/m`, and `estimate = observed/progress`.
//! The recycler supplies the verdict through [`ResultStore::speculate`].
//!
//! [`CachedExec`] replays a previously materialized result.
//!
//! Both directions of the cache are zero-copy: the tee buffers **shared**
//! batch clones (refcount bumps; data is only gathered once, when the
//! buffer is concatenated into the published [`MaterializedResult`]), and
//! replay re-chunks the cached result with O(1) column slices, so a cache
//! hit costs O(#batches) rather than O(result bytes).
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

use rdb_plan::Plan;
use rdb_storage::{Chunk, ChunkList};
use rdb_vector::{morsel_bounds, morsel_count, Batch, Schema};

use crate::error::FailSlot;
use crate::join::BuildSide;
use crate::metrics::OpMetrics;
use crate::op::{timed_next, Operator};

/// A fully materialized (intermediate or final) query result: its rows
/// as a [`ChunkList`], the type base-table snapshots use, so a repaired
/// version shares every sealed chunk with the one it replaces.
#[derive(Debug, Clone)]
pub struct MaterializedResult {
    /// Result schema (graph-canonical names).
    pub schema: Schema,
    data: ChunkList,
}

impl MaterializedResult {
    /// Build from collected batches: one chunk, gathered once (zero-copy
    /// for a single selection-free batch).
    pub fn from_batches(schema: Schema, batches: &[Batch]) -> Self {
        let batch = Batch::concat_or_empty(&schema, batches);
        MaterializedResult {
            schema,
            data: ChunkList::new(vec![Arc::new(Chunk::new(batch.into_columns()))]),
        }
    }

    /// This result followed by the rows of `tail` (an append repair):
    /// [`ChunkList::push_tail`], so the cost is the tail plus the merges
    /// it triggers, and every sealed chunk is shared with `self`.
    pub fn append(&self, tail: &[Batch]) -> Self {
        let tail = Batch::concat_or_empty(&self.schema, tail);
        MaterializedResult {
            schema: self.schema.clone(),
            data: self.data.push_tail(Chunk::new(tail.into_columns())),
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
    /// Rows held by the state.
    pub rows: u64,
}

/// The executor-facing interface of the recycler cache. Implemented by
/// `rdb-recycler`; a trivial implementation can be used for tests.
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

    /// Fetch the cached hash-join build side of `plan` (the build
    /// subplan) indexed under `variant` (its join keys), if one exists
    /// whose recorded epochs equal `epochs` (the querying snapshot's
    /// versions of the subplan's base tables). Default: no operator-state
    /// cache.
    fn fetch_state(
        &self,
        plan: &Plan,
        variant: u64,
        epochs: &[(String, u64)],
    ) -> Option<Arc<BuildSide>> {
        let _ = (plan, variant, epochs);
        None
    }

    /// Offer a freshly built hash-join build side of `plan` to the cache.
    /// `epochs` are the base-table versions it was built from;
    /// admission/replacement is the implementation's call. Default: drop.
    fn publish_state(
        &self,
        plan: &Plan,
        variant: u64,
        build: Arc<BuildSide>,
        cost: StateCost,
        epochs: &[(String, u64)],
    ) {
        let _ = (plan, variant, build, cost, epochs);
    }
}

/// Execution-side behaviour of a store operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Buffering while speculating.
    Speculating,
    /// Buffering with a commit decision (history mode starts here).
    Committed,
    /// Passing through after a cancelled speculation.
    PassThrough,
    /// Finished (buffer published or discarded).
    Done,
}

/// The `store` operator.
pub struct StoreExec {
    child: Box<dyn Operator>,
    tag: u64,
    schema: Schema,
    store: Arc<dyn ResultStore>,
    phase: Phase,
    buffer: Vec<Batch>,
    buffered_rows: u64,
    buffered_bytes: usize,
    started: Option<Instant>,
    /// Query cancel flag: a cancelled query's stream may end early, so the
    /// buffer would be a *truncated* result — abandon instead of publish.
    cancel: Option<Arc<AtomicBool>>,
    /// Execution failure slot: a recorded worker failure also means the
    /// stream ended short, so the buffer is equally untrusted.
    fail: Option<Arc<FailSlot>>,
    metrics: Arc<OpMetrics>,
}

impl StoreExec {
    /// Create a store operator over `child`.
    ///
    /// `speculative` selects the paper's speculation mode; otherwise the
    /// materialization decision was already made by the rewriter.
    pub fn new(
        child: Box<dyn Operator>,
        tag: u64,
        schema: Schema,
        store: Arc<dyn ResultStore>,
        speculative: bool,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        StoreExec {
            child,
            tag,
            schema,
            store,
            phase: if speculative {
                Phase::Speculating
            } else {
                Phase::Committed
            },
            buffer: Vec::new(),
            buffered_rows: 0,
            buffered_bytes: 0,
            started: None,
            cancel: None,
            fail: None,
            metrics,
        }
    }

    /// Attach the query's cancel flag (see the `cancel` field).
    pub fn with_cancel(mut self, cancel: Option<Arc<AtomicBool>>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attach the execution's failure slot (see the `fail` field).
    pub fn with_fail(mut self, fail: Arc<FailSlot>) -> Self {
        self.fail = Some(fail);
        self
    }

    /// Whether the stream can no longer be trusted to be complete: the
    /// query was cancelled or a pipeline worker recorded a failure.
    fn compromised(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Acquire))
            || self.fail.as_ref().is_some_and(|f| f.is_set())
    }

    fn estimate(&self) -> SpeculationEstimate {
        let progress = self.child.progress().clamp(0.0, 1.0);
        let elapsed = self
            .started
            .map(|t| t.elapsed().as_nanos() as f64)
            .unwrap_or(0.0);
        let p = progress.max(1e-6);
        SpeculationEstimate {
            progress,
            buffered_rows: self.buffered_rows,
            buffered_bytes: self.buffered_bytes,
            est_rows: self.buffered_rows as f64 / p,
            est_bytes: self.buffered_bytes as f64 / p,
            est_cost_ns: elapsed / p,
        }
    }
}

impl Operator for StoreExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.started.is_none() {
                self.started = Some(Instant::now());
            }
            match self.child.next_batch() {
                Some(batch) => {
                    match self.phase {
                        // The tee buffers *shared* clones (refcount bumps);
                        // data is gathered once, at publish time.
                        Phase::Speculating => {
                            self.buffer.push(batch.clone());
                            self.buffered_rows += batch.rows() as u64;
                            self.buffered_bytes += batch.size_bytes();
                            let est = self.estimate();
                            match self.store.speculate(self.tag, &est) {
                                StoreVerdict::Undecided => {}
                                StoreVerdict::Commit => self.phase = Phase::Committed,
                                StoreVerdict::Cancel => {
                                    self.buffer.clear();
                                    self.buffered_rows = 0;
                                    self.buffered_bytes = 0;
                                    self.phase = Phase::PassThrough;
                                    self.store.abandon(self.tag);
                                }
                            }
                        }
                        Phase::Committed => {
                            self.buffer.push(batch.clone());
                            self.buffered_rows += batch.rows() as u64;
                            self.buffered_bytes += batch.size_bytes();
                        }
                        Phase::PassThrough | Phase::Done => {}
                    }
                    Some(batch)
                }
                None => {
                    match self.phase {
                        Phase::Speculating | Phase::Committed => {
                            // End of stream while still buffering: a
                            // still-undecided speculation at completion has
                            // exact numbers; let the recycler decide once
                            // more with progress 1, then publish on commit.
                            let publish = if self.compromised() {
                                // The child stream may have been cut short
                                // by a cancel or a worker failure; the
                                // buffer cannot be trusted to be complete.
                                self.store.abandon(self.tag);
                                false
                            } else if self.phase == Phase::Committed {
                                true
                            } else {
                                let mut est = self.estimate();
                                est.progress = 1.0;
                                est.est_rows = self.buffered_rows as f64;
                                est.est_bytes = self.buffered_bytes as f64;
                                match self.store.speculate(self.tag, &est) {
                                    StoreVerdict::Commit => true,
                                    _ => {
                                        self.store.abandon(self.tag);
                                        false
                                    }
                                }
                            };
                            if publish {
                                let result = MaterializedResult::from_batches(
                                    self.schema.clone(),
                                    &self.buffer,
                                );
                                self.store.publish(self.tag, result);
                            }
                            self.buffer.clear();
                            self.phase = Phase::Done;
                        }
                        Phase::PassThrough => self.phase = Phase::Done,
                        Phase::Done => {}
                    }
                    None
                }
            }
        })
    }

    fn progress(&self) -> f64 {
        self.child.progress()
    }
}

/// Reads a materialized result from the cache.
pub struct CachedExec {
    tag: u64,
    store: Arc<dyn ResultStore>,
    batches: Option<Vec<Batch>>,
    next: usize,
    metrics: Arc<OpMetrics>,
}

impl CachedExec {
    /// Replay the result leased under `tag`.
    pub fn new(tag: u64, store: Arc<dyn ResultStore>, metrics: Arc<OpMetrics>) -> Self {
        CachedExec {
            tag,
            store,
            batches: None,
            next: 0,
            metrics,
        }
    }
}

impl Operator for CachedExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.batches.is_none() {
                let result = self
                    .store
                    .fetch(self.tag)
                    .unwrap_or_else(|| panic!("no leased result for tag {}", self.tag));
                self.batches = Some(result.batches());
            }
            let batches = self.batches.as_ref().unwrap();
            if self.next < batches.len() {
                let b = batches[self.next].clone();
                self.next += 1;
                Some(b)
            } else {
                None
            }
        })
    }

    fn progress(&self) -> f64 {
        match &self.batches {
            None => 0.0,
            Some(b) => {
                if b.is_empty() {
                    1.0
                } else {
                    self.next as f64 / b.len() as f64
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
    use parking_lot::Mutex;
    use rdb_vector::{Column, DataType};
    use std::collections::HashMap;

    fn src(groups: Vec<Vec<i64>>) -> Box<dyn Operator> {
        BatchSource::boxed(
            groups
                .into_iter()
                .map(|g| Batch::new(vec![Column::from_ints(g)]))
                .collect(),
        )
    }

    #[derive(Default)]
    struct MockStore {
        published: Mutex<HashMap<u64, Arc<MaterializedResult>>>,
        abandoned: Mutex<Vec<u64>>,
        verdict: Mutex<StoreVerdict>,
        calls: Mutex<u64>,
    }

    impl ResultStore for MockStore {
        fn fetch(&self, tag: u64) -> Option<Arc<MaterializedResult>> {
            self.published.lock().get(&tag).cloned()
        }
        fn publish(&self, tag: u64, result: MaterializedResult) {
            self.published.lock().insert(tag, Arc::new(result));
        }
        fn abandon(&self, tag: u64) {
            self.abandoned.lock().push(tag);
        }
        fn speculate(&self, _tag: u64, _est: &SpeculationEstimate) -> StoreVerdict {
            *self.calls.lock() += 1;
            *self.verdict.lock()
        }
    }

    fn schema() -> Schema {
        Schema::from_pairs([("x", DataType::Int)])
    }

    #[test]
    fn materialize_mode_tees_and_publishes() {
        let store = Arc::new(MockStore::default());
        let mut op = StoreExec::new(
            src(vec![vec![1, 2], vec![3]]),
            7,
            schema(),
            store.clone(),
            false,
            OpMetrics::shared(),
        );
        let out = run_to_batch(&mut op);
        assert_eq!(out.column(0).as_ints(), &[1, 2, 3], "flow uninterrupted");
        let published = store.fetch(7).expect("result published");
        assert_eq!(published.to_batch().column(0).as_ints(), &[1, 2, 3]);
        assert!(published.size_bytes() > 0);
    }

    #[test]
    fn speculation_commit_publishes() {
        let store = Arc::new(MockStore::default());
        *store.verdict.lock() = StoreVerdict::Commit;
        let mut op = StoreExec::new(
            src(vec![vec![1], vec![2]]),
            1,
            schema(),
            store.clone(),
            true,
            OpMetrics::shared(),
        );
        run_to_batch(&mut op);
        assert!(store.fetch(1).is_some());
        assert!(store.abandoned.lock().is_empty());
    }

    #[test]
    fn speculation_cancel_drops_buffer() {
        let store = Arc::new(MockStore::default());
        *store.verdict.lock() = StoreVerdict::Cancel;
        let mut op = StoreExec::new(
            src(vec![vec![1], vec![2], vec![3]]),
            2,
            schema(),
            store.clone(),
            true,
            OpMetrics::shared(),
        );
        let out = run_to_batch(&mut op);
        assert_eq!(out.rows(), 3, "tuples still flow after cancel");
        assert!(store.fetch(2).is_none());
        assert_eq!(store.abandoned.lock().as_slice(), &[2]);
        // Speculation stops after the cancel verdict.
        assert_eq!(*store.calls.lock(), 1);
    }

    #[test]
    fn undecided_speculation_resolves_at_completion() {
        // Recycler stays undecided mid-flight; at end-of-stream the store
        // asks one final time with exact numbers (progress == 1).
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
        let store = Arc::new(DecideAtEnd(MockStore::default()));
        let mut op = StoreExec::new(
            src(vec![vec![1], vec![2]]),
            3,
            schema(),
            store.clone(),
            true,
            OpMetrics::shared(),
        );
        run_to_batch(&mut op);
        assert!(store.fetch(3).is_some());
    }

    #[test]
    fn cached_exec_replays() {
        let store = Arc::new(MockStore::default());
        store.publish(
            9,
            MaterializedResult::from_batches(
                schema(),
                &[Batch::new(vec![Column::from_ints(vec![5, 6])])],
            ),
        );
        let mut c = CachedExec::new(9, store, OpMetrics::shared());
        let out = run_to_batch(&mut c);
        assert_eq!(out.column(0).as_ints(), &[5, 6]);
        assert_eq!(c.progress(), 1.0);
    }

    #[test]
    fn empty_result_materializes_with_width() {
        let r = MaterializedResult::from_batches(schema(), &[]);
        assert_eq!(r.rows(), 0);
        assert_eq!(r.to_batch().width(), 1);
        assert!(r.batches().is_empty());
    }

    #[test]
    #[should_panic(expected = "no leased result")]
    fn cached_exec_panics_without_lease() {
        let store = Arc::new(MockStore::default());
        let mut c = CachedExec::new(42, store, OpMetrics::shared());
        c.next_batch();
    }
}
