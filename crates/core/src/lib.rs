//! # rdb-recycler — recycling for pipelined query evaluation
//!
//! A from-scratch implementation of the recycler of *"Recycling in
//! Pipelined Query Evaluation"* (Nagel, Boncz, Viglas; ICDE 2013): an
//! online, autonomous mechanism that caches selected intermediate and final
//! query results in a pipelined (vector-at-a-time) engine and reuses them
//! across queries.
//!
//! Components (paper section in parentheses):
//!
//! * [`graph::RecyclerGraph`] — the AND-DAG of past optimized query trees
//!   with hash-key/signature matching, reference statistics, DMD-based true
//!   cost, and lazy aging (§II, §III-A/B/C);
//! * [`cache::RecyclerCache`] — the finite result cache with size-grouped
//!   Dantzig-greedy admission and replacement (§III-E);
//! * [`recycler::Recycler`] — the rewriter (reuse substitution, store
//!   injection, stalling on concurrent materializations) and the
//!   executor-facing [`rdb_exec::ResultStore`] implementation including the
//!   speculation policy (§II, §III-D);
//! * [`proactive`] — top-N widening and cube caching with selections /
//!   binning (§IV-B);
//! * subsumption (§IV-A) is found on demand among a node's materialized
//!   siblings in [`graph`], which also holds the derivations.
//!
//! ## Updates & invalidation (PAPER.md §V)
//!
//! The paper notes that under updates "the results in the recycler graph
//! that are affected... have to be invalidated" but leaves the mechanism
//! out of scope. This crate implements it, keyed on **table epochs**:
//! every committed append/delete bumps the base table's epoch
//! (`rdb_storage::VersionedTable`), queries pin an epoch vector via a
//! catalog snapshot, and freshness is enforced at three points:
//!
//! 1. **Eager eviction** — [`Recycler::invalidate`]`(table, epoch)` walks
//!    the operator graph upward from the changed table's scan leaves
//!    (every [`graph::GraphNode`] records its base-table footprint) and
//!    evicts exactly the dependent cache entries, emitting
//!    [`RecyclerEvent::Invalidated`] per entry and counting
//!    `stats.invalidations`. Entries over untouched tables survive, which
//!    is what makes invalidation *fine-grained*: updating `lineitem`
//!    leaves a cached `orders` aggregate hot.
//! 2. **Reuse gate** — every [`cache::CacheEntry`] records the
//!    `(table, epoch)` pairs it was computed from; the rewriter
//!    substitutes an entry (exact or subsumption) only when those match
//!    the querying snapshot's epochs, so a racing update between commit
//!    and invalidation can never cause a stale read.
//! 3. **Publish gate** — store targets record their producing snapshot's
//!    epochs at rewrite time; a materialization that completes after a
//!    newer epoch committed is discarded (`stats.stale_rejections`)
//!    instead of poisoning the cache.
//!
//! Graph nodes (and their reference statistics `hR`) survive
//! invalidation — only materialized results die. History therefore keeps
//! steering store decisions across updates, which is why the recycler
//! retains most of its benefit under a write-mixed workload (see
//! `BENCH_update.json`).
//!
//! ## Operator-state artifacts & the artifact cost model
//!
//! Beyond the paper's materialized results, the cache holds **operator
//! state**: hash-join build sides ([`rdb_exec::BuildSide`]), keyed by the
//! *build subplan* plus an [`rdb_exec::ArtifactKind`] and a variant
//! discriminator (the join-key expressions). An aggregate's output is
//! cached only as the aggregate node's result. Every entry — result or
//! state — is a
//! [`cache::CacheArtifact`] charged against the same byte budget, with a
//! uniform benefit currency:
//!
//! * **results** re-derive benefit from the graph whenever one of its
//!   inputs changes (Eq. 1: true cost × decayed `hR` / bytes);
//! * **state artifacts** use their *measured construction cost* (reported
//!   at publish time via [`rdb_exec::StateCost`], in the configured
//!   [`config::CostModel`]'s units) times the producing node's decayed
//!   `hR`, divided by the artifact's bytes.
//!
//! Because both kinds price reuse in saved-cost-per-byte, the evictor can
//! trade a cached hash table against a cached result for the same node —
//! whichever saves less per byte goes first. State artifacts ride the
//! same epoch machinery as results (recorded epochs, the three freshness
//! points above) but are *epoch-exact both directions*: a build produced
//! under different epochs is never adopted. They are deliberately absent
//! from checkpoint lineage — recovery re-executes the producing subplan
//! and re-publishes through the normal path.

pub mod cache;
pub mod config;
pub mod graph;
pub mod proactive;
pub mod recycler;

pub use cache::{ArtifactId, CacheArtifact, CacheEntry, RecyclerCache};
pub use config::{CostModel, RecyclerConfig, RecyclerMode};
pub use graph::{Derivation, MatchTree, NodeId, RecyclerGraph};
pub use rdb_delta::Repairability;
pub use recycler::{
    CacheState, LineageEntry, PreparedQuery, Recycler, RecyclerEvent, RecyclerStats, RepairOutcome,
};
