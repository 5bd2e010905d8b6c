//! Pipelined, vectorized query executor.
//!
//! A query runs as [`Pipeline`]s: a source, and one push-style
//! [`FusedChain`] over it that runs every span of pipelining work —
//! filter → project → join-probe → store tee → limit — per input batch
//! ([`fuse`]), vector-at-a-time (the Vectorwise paradigm the paper
//! targets). The chain is the single implementation of selection,
//! projection, probe, tee and limit semantics. It ends in its consumer,
//! the sink: a breaker's fold (hash aggregation, top-N, sort), a join's
//! build collect, or the stream edge, the only place rows are pulled.
//! A chain's source is a morsel dispenser (a table snapshot or a cached
//! result), a breaker's folded output ([`BlockingExec`], which also runs
//! table functions) or a `UnionAll`'s arms. Pipelines only break at
//! breakers and join build sides; intermediate results are *not*
//! materialized unless the recycler decides to, which is the entire
//! point of the paper.
//!
//! Two operators remain, and both are pulled: a [`Pipeline`] at the
//! stream edge, and a [`BlockingExec`] by the chain above it.
//!
//! With `ExecContext::parallelism > 1` dispenser-rooted chains execute
//! **morsel-driven parallel** (see [`parallel`] for the model and its
//! determinism guarantees, and [`pool`] for the worker pool): the
//! dispenser splits its rows into morsels claimed by workers on demand,
//! each worker drives a clone of the same chain, fold sinks merge
//! per-worker partials, and store tees record by morsel index and publish
//! in morsel order, so every observable byte — including what a tee
//! publishes into the recycler — is identical to serial execution at any
//! degree of parallelism. A chain never crosses a breaker — see [`fuse`]
//! for the boundary, timing and failure rules.
//!
//! Recycler integration points (paper §II):
//!
//! * [`store::StoreTee`] — the `store` operator, a chain stage: pass along
//!   / record (speculation) / materialize the tuple flow without
//!   interrupting it, resolved once by the chain's consumer;
//! * [`MorselDispenser`] — a chain source that also reads a previously
//!   materialized result, like a table;
//! * [`SharedBuild`] — a join's build side, adopted from a leased cache
//!   artifact when the build input is a `Cached` node holding a build,
//!   and published back when the input is a build target
//!   (`StoreMode::Build`);
//! * [`ResultStore`] — the trait through which tees, cached leaves and
//!   join builds talk to the recycler cache (implemented by
//!   `rdb-recycler`), by tag only: every reuse decision was made by the
//!   recycler's rewriter before the plan was built;
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
pub use fuse::{fused_span, FusedChain};
pub use join::{BuildPublish, BuildSide, SharedBuild};
pub use metrics::{MetricsNode, OpMetrics};
pub use op::{collect_all, run_to_batch, BlockingExec, Operator};
pub use parallel::{MorselDispenser, Pipeline};
pub use pool::WorkerPool;
pub use store::{
    ArtifactKind, MaterializedResult, ResultStore, SpeculationEstimate, StateCost, StoreVerdict,
};
pub use stream::ExecStream;
