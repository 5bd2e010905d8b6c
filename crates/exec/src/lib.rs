//! Pipelined, vectorized query executor.
//!
//! Operators pull [`rdb_vector::Batch`]es from their children
//! (vector-at-a-time, the Vectorwise paradigm the paper targets), and
//! every span of pipelining work between them — filter → project →
//! join-probe — runs as one push-style [`FusedChain`] per input batch
//! ([`fuse`]): the single implementation of selection, projection and
//! probe semantics, over a base-table scan or over any other child
//! operator. Pipelines only break at blocking operators (hash
//! aggregation, sort, top-N, join build sides) — intermediate results are
//! *not* materialized unless the recycler decides to, which is the entire
//! point of the paper.
//!
//! With `ExecContext::parallelism > 1` scan-rooted chains execute
//! **morsel-driven parallel** (see [`parallel`] for the model and its
//! determinism guarantees, and [`pool`] for the worker pool): scans split
//! into morsels claimed by workers on demand, each worker drives a clone
//! of the same chain, pipeline breakers merge per-worker partials, and
//! order-preserving gathers keep every observable byte — including what a
//! [`StoreExec`] tee publishes into the recycler — identical to serial
//! execution at any degree of parallelism. A chain never crosses pipeline
//! breakers, store tees, or gather points — see [`fuse`] for the boundary,
//! timing and failure rules.
//!
//! Recycler integration points (paper §II):
//!
//! * [`StoreExec`] — the `store` operator: pass along / buffer
//!   (speculation) / materialize the tuple flow without interrupting it;
//! * [`CachedExec`] — reads a previously materialized result;
//! * [`ResultStore`] — the trait through which store/cached operators talk
//!   to the recycler cache (implemented by `rdb-recycler`);
//! * [`OpMetrics`] / [`MetricsNode`] — per-operator run-time measurements
//!   (inclusive wall time, rows, abstract work units) used to annotate the
//!   recycler graph after each query, and *progress meters* (§III-D) used
//!   by speculative stores to extrapolate cost and size.

pub mod agg;
pub mod build;
pub mod context;
pub mod error;
pub mod filter;
pub mod fuse;
pub(crate) mod index;
pub mod join;
pub mod metrics;
pub mod op;
pub mod parallel;
pub mod pool;
pub mod scan;
pub mod sort;
pub mod store;
pub mod stream;

pub use agg::{retract_count_groups, ResumedAgg};
pub use build::{build, ExecTree};
pub use context::{ExecContext, FnRegistry, TableFunction};
pub use error::{ExecError, FailSlot};
pub use fuse::{fused_span, FusedChain, FusedPipelineExec};
pub use join::{BuildPublish, BuildSide, SharedBuild};
pub use metrics::{MetricsNode, OpMetrics};
pub use op::{collect_all, run_to_batch, Operator};
pub use parallel::{GatherExec, MorselDispenser, ParallelAggExec, ParallelTopNExec};
pub use pool::WorkerPool;
pub use store::{
    ArtifactKind, CachedExec, MaterializedResult, ResultStore, SpeculationEstimate, StateCost,
    StoreExec, StoreVerdict,
};
pub use stream::ExecStream;
