//! The recycler: rewriting, store injection, speculation, and annotation.
//!
//! Per query (paper Fig. 1):
//!
//! 1. [`Recycler::prepare_at`] — matches the optimized query tree against
//!    the recycler graph (inserting unmatched nodes), bumps reference
//!    counts, substitutes cached results (exact matches first, then
//!    subsumption) and hash builds, injects `store` operators where
//!    materialization is (or might be) beneficial and build targets
//!    elsewhere, and returns the rewritten plan: every reuse decision,
//!    under one lock.
//! 2. The engine executes the rewritten plan; stores and joins call back
//!    into the recycler through the [`ResultStore`] trait by tag
//!    (speculation verdicts, leases, publication of results and builds).
//! 3. [`Recycler::complete`] — annotates the recycler graph with measured
//!    costs/cardinalities/sizes from the run and releases this query's
//!    cache leases.
//!
//! Concurrency: all state sits behind one mutex; queries that need a result
//! currently being materialized by another query **stall** on a condition
//! variable until it is published or abandoned (paper §V: "the recycler
//! stalls all but one").
//!
//! Bookkeeping under that mutex is proportional to what a call touched:
//! releasing the lock re-ranks only the cache entries whose Eq. 1 inputs
//! changed while it was held (see [`crate::cache`]), and subsumption looks
//! only at materialized siblings (see [`crate::graph`]).

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use rdb_exec::{
    ArtifactKind, BuildSide, FnRegistry, MaterializedResult, MetricsNode, ResultStore,
    SpeculationEstimate, StateCost, StoreVerdict,
};
use rdb_plan::{Plan, StoreMode};
use rdb_storage::{Catalog, CatalogSnapshot};
use rdb_storage::{Change, Commit};
use rdb_vector::Schema;

use crate::cache::{ArtifactId, CacheArtifact, CacheEntry, RecyclerCache, Removed};
use crate::config::{CostModel, RecyclerConfig, RecyclerMode, MIN_REFS_TO_STORE, SPEC_H};
use crate::graph::{Derivation, MatchTree, NodeId, RecyclerGraph};

/// Events a query generates while interacting with the recycler; the engine
/// timestamps and aggregates them (Fig. 9's trace).
#[derive(Debug, Clone, PartialEq)]
pub enum RecyclerEvent {
    /// A cached result was substituted for an exact-matching subtree.
    Reused {
        /// The reused node.
        node: NodeId,
        /// Size of the reused result.
        bytes: u64,
    },
    /// A cached subsuming result was substituted (paper §IV-A).
    SubsumptionReused {
        /// The query's node.
        node: NodeId,
        /// The cached subsumer actually read.
        via: NodeId,
    },
    /// A store operator was injected over this node's subtree.
    StoreInjected {
        /// Target node.
        node: NodeId,
        /// True for speculation-mode stores.
        speculative: bool,
    },
    /// The query waited for a concurrent materialization of `node`.
    Stalled {
        /// Node being produced elsewhere.
        node: NodeId,
        /// How long the query waited.
        waited: Duration,
        /// Whether the wait ended with a usable result.
        satisfied: bool,
    },
    /// A store operator finished and published this result.
    Materialized {
        /// Produced node.
        node: NodeId,
        /// Result size.
        bytes: u64,
        /// Whether the cache admitted it.
        admitted: bool,
    },
    /// A speculative store cancelled (or never completed) materialization.
    Abandoned {
        /// Target node.
        node: NodeId,
    },
    /// A cached entry was **repaired in place** from a committed DML
    /// delta instead of being evicted (`rdb_delta`): the entry now holds
    /// the post-commit bytes under the new epoch vector.
    Repaired {
        /// The repaired node (its result: hash builds are evicted, never
        /// repaired).
        node: NodeId,
        /// Size of the repaired artifact.
        bytes: u64,
        /// The updated table whose delta was applied.
        table: String,
        /// Row count of the repaired result.
        rows: u64,
    },
    /// A cached entry was evicted because a base table it depends on was
    /// updated (PAPER.md §V: cached intermediates are invalidated when
    /// their base tables change).
    Invalidated {
        /// The evicted node.
        node: NodeId,
        /// Which artifact kind was evicted (the walk covers results *and*
        /// cached operator state — a hash build over a changed table is as
        /// stale as a result over it).
        kind: ArtifactKind,
        /// Size of the evicted artifact.
        bytes: u64,
        /// The updated table that made it stale.
        table: String,
    },
}

/// The rewritten query, ready for execution, plus bookkeeping for
/// [`Recycler::complete`].
#[derive(Debug)]
pub struct PreparedQuery {
    /// Rewritten, bound plan (with `Cached`/`Store` nodes).
    pub plan: Plan,
    /// Query identifier (the graph tick at preparation).
    pub qid: u64,
    /// Tags issued to this query (leases and store targets).
    pub tags: Vec<u64>,
    /// `(path into rewritten plan, graph node)` pairs to annotate after
    /// execution.
    pub annotations: Vec<(Vec<usize>, NodeId)>,
    /// Rewrite-time events.
    pub events: Vec<RecyclerEvent>,
    /// Matching + insertion time (Fig. 10's measured quantity).
    pub match_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreOutcome {
    Published { admitted: bool, bytes: u64 },
    Abandoned,
}

#[derive(Debug)]
enum TagEntry {
    /// A pinned cache artifact this query reads: a result under a `Cached`
    /// leaf, or a hash build under a join's `Cached` build input.
    Lease(CacheArtifact),
    /// A store target this query may produce.
    StoreTarget {
        node: NodeId,
        /// The owning query (in-flight bookkeeping is released only by
        /// its owner — a superseded producer must not clear a fresh
        /// producer's marker).
        qid: u64,
        /// `(table, epoch)` of the node's base tables as pinned by the
        /// producing query's snapshot. Publishing checks these against the
        /// recycler's current epochs so a result computed from an
        /// already-superseded snapshot is never admitted.
        base_epochs: Vec<(String, u64)>,
        last_est: Option<SpeculationEstimate>,
        resolved: Option<StoreOutcome>,
    },
    /// A join build input this query builds (`StoreMode::Build`): the
    /// build side is offered to the cache as `aid`, built from the tables
    /// at `epochs`. Never in flight: no other query waits on it.
    BuildTarget {
        aid: ArtifactId,
        epochs: Vec<(String, u64)>,
    },
}

#[derive(Debug)]
struct State {
    graph: RecyclerGraph,
    cache: RecyclerCache,
    tags: HashMap<u64, TagEntry>,
    /// Node → qid of the query currently materializing it. When a fresh
    /// query supersedes a stale-epoch producer (see
    /// `RewriteRun::store_decision`), the marker moves to the fresh qid;
    /// owner-checked release keeps the superseded producer from clearing
    /// it on resolve.
    in_flight: HashMap<NodeId, u64>,
    /// Latest committed epoch per base table, as reported by
    /// [`Recycler::repair`]. Tables never updated are absent (their
    /// epoch is whatever it was at load).
    table_epochs: HashMap<String, u64>,
    next_tag: u64,
}

impl State {
    /// Whether a base table committed past the epoch a producer pinned in
    /// `epochs`. One pinned *ahead* of the last write seen (its `repair`
    /// call hasn't run yet) is fresh: `repair` spares its entry later.
    fn superseded(&self, epochs: &[(String, u64)]) -> bool {
        epochs
            .iter()
            .any(|(t, e)| self.table_epochs.get(t).is_some_and(|cur| cur > e))
    }

    /// Release a node's in-flight marker, but only if `qid` still owns it.
    fn release_in_flight(&mut self, node: NodeId, qid: u64) {
        if self.in_flight.get(&node) == Some(&qid) {
            self.in_flight.remove(&node);
        }
    }

    /// Re-rank the cache entries of every graph node whose Eq. 1 inputs
    /// changed since the last call. Returns how many entries it re-ranked.
    fn rerank_changed(&mut self, cfg: &RecyclerConfig) -> u64 {
        let mut reranked = 0;
        for node in self.graph.take_changed() {
            for aid in self.cache.artifacts_of(node) {
                let Some(entry) = self.cache.get_artifact(aid) else {
                    continue;
                };
                let benefit = benefit_of(&self.graph, aid, entry, cfg);
                self.cache.rerank(aid, benefit);
                reranked += 1;
            }
        }
        reranked
    }
}

/// Eq. 1 for one cache entry at the current tick. A result earns its
/// node's true cost per byte of the node's measured size; operator state
/// earns its own construction cost per byte it holds (a warm hit saves the
/// build, not the whole subtree). Both are weighted by the node's decayed
/// `hR`.
fn benefit_of(
    graph: &RecyclerGraph,
    aid: ArtifactId,
    entry: &CacheEntry,
    cfg: &RecyclerConfig,
) -> f64 {
    match aid.kind {
        ArtifactKind::Result => graph.benefit(aid.node, cfg.cost_model, cfg.aging_alpha),
        ArtifactKind::HashBuild => {
            entry.cost * graph.decayed_h(aid.node, cfg.aging_alpha) / entry.size.max(1) as f64
        }
    }
}

/// The recycler state under its lock. Releasing it re-ranks the cache
/// entries whose benefit inputs changed meanwhile, so the benefit order is
/// current whenever the lock is free. Every path that mutates the graph
/// takes the lock through [`Recycler::lock`].
///
/// Payloads taken out of the cache under the lock are parked in
/// `displaced` and freed only after the mutex is released: fields drop in
/// declaration order, and `guard` comes first. A displaced result can be
/// megabytes of columns, and every statement waits on this lock.
struct Locked<'a> {
    guard: MutexGuard<'a, State>,
    recycler: &'a Recycler,
    displaced: Vec<CacheArtifact>,
}

impl Locked<'_> {
    /// Free `payload` once the lock is released.
    fn displace(&mut self, payload: CacheArtifact) {
        self.displaced.push(payload);
    }

    /// Graph bookkeeping (Eq. 4) for entries the cache evicted; their
    /// payloads are freed once the lock is released.
    fn evicted(&mut self, removed: Vec<Removed>) {
        let alpha = self.recycler.config.aging_alpha;
        for (id, entry) in removed {
            if id.kind == ArtifactKind::Result {
                self.guard.graph.on_evicted(id.node, alpha);
            }
            self.displaced.push(entry.artifact);
        }
    }
}

impl Deref for Locked<'_> {
    type Target = State;
    fn deref(&self) -> &State {
        &self.guard
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut State {
        &mut self.guard
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        // A panic under the lock is a bug already being reported; a
        // second one here would abort the process instead.
        if std::thread::panicking() {
            return;
        }
        let reranked = self.guard.rerank_changed(&self.recycler.config);
        self.recycler
            .stats
            .reranks
            .fetch_add(reranked, Ordering::Relaxed);
    }
}

/// Aggregate counters (exposed for tests, examples, and benches).
#[derive(Debug, Default)]
pub struct RecyclerStats {
    /// Queries prepared.
    pub queries: AtomicU64,
    /// Exact-match reuses.
    pub reuses: AtomicU64,
    /// Subsumption-based reuses.
    pub subsumption_reuses: AtomicU64,
    /// Results published and admitted to the cache.
    pub materializations: AtomicU64,
    /// Store operators whose materialization was abandoned/cancelled.
    pub abandoned: AtomicU64,
    /// Times a query stalled on a concurrent materialization.
    pub stalls: AtomicU64,
    /// Cache entries evicted because a base table changed.
    pub invalidations: AtomicU64,
    /// Cache entries repaired in place from a DML delta.
    pub repaired: AtomicU64,
    /// Repair candidates that fell back to eviction (kernel refused, a
    /// race intervened, or the repaired payload no longer fit).
    pub repair_fallbacks: AtomicU64,
    /// Non-empty appends and deletes [`Recycler::repair`] took at a
    /// current snapshot (replaces and moved-on snapshots only evict).
    pub deltas_applied: AtomicU64,
    /// Publishes rejected because the producing query's snapshot was
    /// superseded before its store completed.
    pub stale_rejections: AtomicU64,
    /// Hash-join build sides leased from the cache instead of rebuilt.
    pub hash_build_hits: AtomicU64,
    /// Always 0: aggregation tables are no longer cached apart from an
    /// aggregate's result. Kept while the benchmark ledger still reads it.
    pub agg_table_hits: AtomicU64,
    /// Materialized subsumer candidates the rewriter examined (one
    /// derivation check each).
    pub subsumption_checks: AtomicU64,
    /// Cache entries re-ranked because their node's Eq. 1 inputs changed.
    pub reranks: AtomicU64,
}

macro_rules! bump {
    ($stats:expr, $field:ident) => {
        $stats.$field.fetch_add(1, Ordering::Relaxed)
    };
}

/// The recycler. Share it between the engine and the executor via `Arc`;
/// it implements [`ResultStore`] so store/cached operators talk to it
/// directly.
pub struct Recycler {
    config: RecyclerConfig,
    /// Mutate only through [`Recycler::lock`].
    state: Mutex<State>,
    resolved_cond: Condvar,
    /// Aggregate counters.
    pub stats: RecyclerStats,
}

impl Recycler {
    /// New recycler with the given configuration.
    pub fn new(config: RecyclerConfig) -> Arc<Recycler> {
        Arc::new(Recycler {
            state: Mutex::new(State {
                graph: RecyclerGraph::new(),
                cache: RecyclerCache::with_aging(config.cache_bytes, config.aging_alpha),
                tags: HashMap::new(),
                in_flight: HashMap::new(),
                table_epochs: HashMap::new(),
                next_tag: 1,
            }),
            resolved_cond: Condvar::new(),
            config,
            stats: RecyclerStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &RecyclerConfig {
        &self.config
    }

    fn lock(&self) -> Locked<'_> {
        Locked {
            guard: self.state.lock(),
            recycler: self,
            displaced: Vec::new(),
        }
    }

    /// Number of nodes in the recycler graph.
    pub fn graph_len(&self) -> usize {
        self.state.lock().graph.len()
    }

    /// Bytes currently in the recycler cache.
    pub fn cache_used(&self) -> u64 {
        self.state.lock().cache.used()
    }

    /// Number of cached results.
    pub fn cache_len(&self) -> usize {
        self.state.lock().cache.len()
    }

    /// Flush the cache (Fig. 6's simulated refresh): evict everything and
    /// restore reference counts per Eq. 4.
    pub fn flush_cache(&self) {
        let mut st = self.lock();
        let flushed = st.cache.flush();
        st.evicted(flushed);
    }

    /// A base table committed `delta` — the storage [`Commit`], the same
    /// value the write-ahead log recorded; the one entry point for every
    /// write. Walk the operator graph upward from the changed leaf
    /// (PAPER.md §V): dependent cache entries over other tables stay
    /// untouched, stale dependents are repaired in place where the
    /// insert-time classification allows it, and the rest are evicted
    /// with one [`RecyclerEvent::Invalidated`] each. Repaired entries are
    /// byte-identical to recomputation at the post-commit snapshot and
    /// adopt the new epoch vector, so subsequent queries reuse them
    /// directly — this is what keeps the hit rate up under a write-mixed
    /// workload. In-flight materializations over the old version are not
    /// interrupted, but their eventual publish is rejected by the epoch
    /// gate in [`ResultStore::publish`].
    ///
    /// `snapshot` must be the post-commit snapshot. Repair requires
    /// `snapshot.epoch_of(delta.table) == delta.epoch` and an append or a
    /// delete; a [`Change::Replace`], or a snapshot that has moved on,
    /// yields no repair candidates, so every stale dependent evicts. Must
    /// be called *after* the table's new version is committed (the
    /// engine's DML path does this); callers mutating storage behind the
    /// engine's back get stale reuse until they do.
    ///
    /// Structure: candidates are collected under the recycler lock, the
    /// repair kernels run **unlocked** (they evaluate subplans), and
    /// patches re-validate epochs under the lock — a raced entry falls
    /// back to eviction, never to a stale patch. Only results are repair
    /// candidates; hash-build artifacts always evict: their probe index
    /// is positional and cheap to rebuild relative to re-verifying it.
    pub fn repair(
        &self,
        delta: &Commit,
        snapshot: &CatalogSnapshot,
        functions: &Arc<FnRegistry>,
    ) -> RepairOutcome {
        let table = delta.table.as_str();
        let new_epoch = delta.epoch;
        let mut out = RepairOutcome::default();
        let repairing = !matches!(delta.change, Change::Replace(_))
            && snapshot.epoch_of(table) == Some(new_epoch);
        if repairing {
            bump!(self.stats, deltas_applied);
            out.deltas_applied = 1;
        }
        let alpha = self.config.aging_alpha;
        let model = self.config.cost_model;

        struct Candidate {
            node: NodeId,
            plan: Plan,
            cached: Arc<MaterializedResult>,
            epochs: Vec<(String, u64)>,
        }

        // Phase 1 (locked): bump the table's epoch, split stale dependents
        // into repair candidates and immediate evictions.
        let mut candidates: Vec<Candidate> = Vec::new();
        {
            let mut st = self.lock();
            let cur = st.table_epochs.entry(table.to_string()).or_insert(0);
            *cur = (*cur).max(new_epoch);
            for id in st.graph.dependents_of_table(table) {
                // Cost gate: when the delta carries more rows than the
                // node's own true cost in work units (rows processed,
                // kept whatever the configured cost model), recomputing on
                // demand is no worse than repairing eagerly. Unmeasured
                // nodes always repair.
                let repairable = repairing
                    && st.graph.node(id).repairability_for(table).repairable()
                    && (!st.graph.node(id).stats.measured
                        || (delta.rows() as f64) <= st.graph.true_cost(id, CostModel::WorkUnits));
                for aid in st.cache.artifacts_of(id) {
                    let Some(entry) = st.cache.get_artifact(aid) else {
                        continue;
                    };
                    // Already fresh: a producer pinned at the new version
                    // published before this call; its work is valid.
                    if entry
                        .epochs
                        .iter()
                        .any(|(t, e)| t == table && *e >= new_epoch)
                    {
                        continue;
                    }
                    // Repair applies one epoch step exactly: the entry must
                    // sit at the immediately preceding version of the
                    // changed table and at the snapshot's version of every
                    // other table it reads.
                    let one_step = entry
                        .epochs
                        .iter()
                        .any(|(t, e)| t == table && e + 1 == new_epoch);
                    let others_current = entry
                        .epochs
                        .iter()
                        .all(|(t, e)| t == table || snapshot.epoch_of(t) == Some(*e));
                    match entry.artifact.as_result() {
                        Some(cached) if repairable && one_step && others_current => {
                            candidates.push(Candidate {
                                node: id,
                                plan: st.graph.node(id).subtree.clone(),
                                cached: cached.clone(),
                                epochs: entry.epochs.clone(),
                            });
                        }
                        _ => {
                            if let Some(entry) = st.cache.remove_artifact(aid) {
                                let bytes = entry.size;
                                st.evicted(vec![(aid, entry)]);
                                bump!(self.stats, invalidations);
                                out.events.push(RecyclerEvent::Invalidated {
                                    node: id,
                                    kind: aid.kind,
                                    bytes,
                                    table: table.to_string(),
                                });
                            }
                        }
                    }
                }
            }
        }

        // Phase 2 (unlocked): evaluate the repair kernels. A select-class
        // repair shares every sealed chunk of the cached result, so it
        // costs the delta, not the result.
        let repaired: Vec<Option<Arc<MaterializedResult>>> = candidates
            .iter()
            .map(|c| {
                rdb_delta::repair(&c.plan, &c.cached, delta, snapshot, functions).map(Arc::new)
            })
            .collect();

        // Phase 3 (locked): re-validate each candidate and swap in its
        // repaired payload, falling back to eviction when the kernel
        // refused, the entry changed underneath us, or the repaired payload
        // no longer fits. Every payload this takes out of the cache is
        // freed after the lock is released, as are the candidates' pins on
        // the pre-repair payloads (`candidates` outlives the guard).
        let mut st = self.lock();
        for (c, repaired) in candidates.iter().zip(repaired) {
            let id = c.node;
            let aid = ArtifactId::result(id);
            let Some(entry) = st.cache.get_artifact(aid) else {
                continue; // already gone (raced invalidate/flush)
            };
            if entry.epochs != c.epochs {
                continue; // raced publish at other epochs: leave it alone
            }
            let old_bytes = entry.size;
            let patched = match repaired {
                None => {
                    if let Some(stale) = st.cache.remove_artifact(aid) {
                        st.displace(stale.artifact);
                    }
                    false
                }
                Some(r) => {
                    let new_epochs: Vec<(String, u64)> = c
                        .epochs
                        .iter()
                        .map(|(t, e)| (t.clone(), if t == table { new_epoch } else { *e }))
                        .collect();
                    let bytes = r.size_bytes() as u64;
                    let rows = r.rows() as u64;
                    let benefit = st.graph.benefit(id, model, alpha);
                    match st.cache.patch_artifact(
                        aid,
                        CacheArtifact::Result(r),
                        benefit,
                        new_epochs,
                    ) {
                        Ok((replaced, evicted)) => {
                            st.displace(replaced);
                            st.evicted(evicted);
                            out.repaired += 1;
                            bump!(self.stats, repaired);
                            out.events.push(RecyclerEvent::Repaired {
                                node: id,
                                bytes,
                                table: table.to_string(),
                                rows,
                            });
                            true
                        }
                        // The entry is gone: it could not hold the repair.
                        Err(payloads) => {
                            payloads.into_iter().for_each(|p| st.displace(p));
                            false
                        }
                    }
                }
            };
            if !patched {
                st.graph.on_evicted(id, alpha);
                out.fallbacks += 1;
                bump!(self.stats, repair_fallbacks);
                bump!(self.stats, invalidations);
                out.events.push(RecyclerEvent::Invalidated {
                    node: id,
                    kind: ArtifactKind::Result,
                    bytes: old_bytes,
                    table: table.to_string(),
                });
            }
        }
        drop(st);
        out
    }

    /// Rewrite a bound query plan for execution (paper Fig. 1's rewriter
    /// rules). `catalog` supplies schemas for newly inserted graph nodes;
    /// `epoch_of` reports the epoch at which the query's snapshot pins
    /// each base table — cached results are substituted only when their
    /// recorded epochs match, and store targets record these epochs so a
    /// publish that outlives its snapshot is rejected.
    pub fn prepare_at(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        epoch_of: &dyn Fn(&str) -> u64,
    ) -> PreparedQuery {
        assert!(!plan.has_named(), "prepare() requires a bound plan");
        bump!(self.stats, queries);
        let schema_of =
            |p: &Plan| -> Schema { p.schema(catalog).expect("bound plan must have a schema") };

        let mut st = self.lock();
        let qid = st.graph.advance_tick();
        st.cache.set_tick(qid);

        // --- matching + insertion (Algorithm 1) ---
        let match_start = Instant::now();
        let mtree = st.graph.match_or_insert(plan, &schema_of);
        // Reference bookkeeping: every pre-existing node whose result could
        // have answered this query (no materialized ancestor inside the
        // matched region) gains a reference.
        bump_references(&mut st.graph, &mtree, false, self.config.aging_alpha);
        let match_ns = match_start.elapsed().as_nanos() as u64;

        // --- rewriting: reuse substitution + store injection ---
        let mut events = Vec::new();
        let mut ignore_stall: Vec<NodeId> = Vec::new();
        let outcome = loop {
            let mut rw = RewriteRun {
                cfg: &self.config,
                stats: &self.stats,
                qid,
                epoch_of,
                schema_of: &schema_of,
                tags: Vec::new(),
                annots: Vec::new(),
                events: Vec::new(),
                build_leases: Vec::new(),
                ignore_stall: &ignore_stall,
            };
            match rw.rewrite(&mut st, plan, &mtree, true) {
                Ok(new_plan) => break (new_plan, rw.tags, rw.annots, rw.events, rw.build_leases),
                Err(stall_on) => {
                    // Roll back anything this attempt created.
                    for t in rw.tags {
                        if let Some(TagEntry::StoreTarget { node, qid, .. }) = st.tags.remove(&t) {
                            st.release_in_flight(node, qid);
                        }
                    }
                    bump!(self.stats, stalls);
                    let waited = Instant::now();
                    let deadline = waited + self.config.stall_timeout;
                    let mut timed_out = false;
                    while st.in_flight.contains_key(&stall_on) {
                        if self
                            .resolved_cond
                            .wait_until(&mut st.guard, deadline)
                            .timed_out()
                        {
                            timed_out = true;
                            break;
                        }
                    }
                    let satisfied = !timed_out && st.cache.contains(stall_on);
                    events.push(RecyclerEvent::Stalled {
                        node: stall_on,
                        waited: waited.elapsed(),
                        satisfied,
                    });
                    if timed_out {
                        // Give up waiting: compute it ourselves this time.
                        ignore_stall.push(stall_on);
                    }
                }
            }
        };
        let (new_plan, tags, annots, mut rw_events, build_leases) = outcome;
        events.append(&mut rw_events);
        // A leased build saved this query the node's build cost: count it
        // as a reference, keeping the node's heat honest.
        for id in build_leases {
            bump!(self.stats, hash_build_hits);
            st.graph.bump_h(id, self.config.aging_alpha);
        }
        for e in &events {
            match e {
                RecyclerEvent::Reused { .. } => {
                    bump!(self.stats, reuses);
                }
                RecyclerEvent::SubsumptionReused { .. } => {
                    bump!(self.stats, subsumption_reuses);
                }
                _ => {}
            }
        }
        PreparedQuery {
            plan: new_plan,
            qid,
            tags,
            annotations: annots,
            events,
            match_ns,
        }
    }

    /// Post-execution hook for a fully drained query: annotate measured
    /// statistics onto the graph, resolve dangling store targets, release
    /// leases, and report completion events.
    pub fn complete(&self, prepared: &PreparedQuery, metrics: &MetricsNode) -> Vec<RecyclerEvent> {
        self.finish(prepared, Some(metrics))
    }

    /// Completion hook for a query whose result stream was dropped before
    /// being drained: store targets that never published are abandoned and
    /// leases released, but the graph is *not* annotated — partial
    /// measurements would corrupt the benefit statistics.
    pub fn abort(&self, prepared: &PreparedQuery) -> Vec<RecyclerEvent> {
        self.finish(prepared, None)
    }

    fn finish(
        &self,
        prepared: &PreparedQuery,
        metrics: Option<&MetricsNode>,
    ) -> Vec<RecyclerEvent> {
        let mut st = self.lock();
        // Annotate each computed node with its measured statistics (only
        // when the query ran to completion).
        if let Some(metrics) = metrics {
            for (path, node) in &prepared.annotations {
                let Some(m) = metrics_at(metrics, path) else {
                    continue;
                };
                if m.metrics.calls() == 0 {
                    // The operator never ran: it sits in a join's build
                    // input that was never drained because the probe side
                    // was empty. Annotating its zeroed counters would wipe
                    // the cost statistics measured when it did run.
                    continue;
                }
                let Some(sub) = plan_at(&prepared.plan, path) else {
                    continue;
                };
                let from_base = !reads_cached_result(sub, &st.tags);
                st.graph.annotate(
                    *node,
                    m.inclusive_time_ns() as f64,
                    m.inclusive_work() as f64,
                    m.cardinality(),
                    m.metrics.bytes_out(),
                    from_base,
                );
            }
        }
        // Resolve store targets that never finished (e.g. a LIMIT above the
        // store stopped pulling) and collect completion events.
        let mut events = Vec::new();
        let mut notify = false;
        for t in &prepared.tags {
            let Some(entry) = st.tags.get(t) else {
                continue;
            };
            if let TagEntry::StoreTarget {
                node,
                qid,
                resolved,
                ..
            } = entry
            {
                let (node, qid) = (*node, *qid);
                match resolved {
                    Some(StoreOutcome::Published { admitted, bytes }) => {
                        events.push(RecyclerEvent::Materialized {
                            node,
                            bytes: *bytes,
                            admitted: *admitted,
                        });
                    }
                    Some(StoreOutcome::Abandoned) => {
                        events.push(RecyclerEvent::Abandoned { node });
                    }
                    None => {
                        events.push(RecyclerEvent::Abandoned { node });
                        bump!(self.stats, abandoned);
                        st.release_in_flight(node, qid);
                        notify = true;
                    }
                }
            }
        }
        // Release this query's tags. A lease may be the last pin on an
        // artifact the cache already let go of: free it after the lock.
        for t in &prepared.tags {
            if let Some(TagEntry::Lease(artifact)) = st.tags.remove(t) {
                st.displace(artifact);
            }
        }
        // Releasing the lock re-ranks the entries of the nodes annotated
        // above.
        drop(st);
        if notify {
            self.resolved_cond.notify_all();
        }
        events
    }

    /// Run a read-only closure over the recycler graph (tests/inspection).
    pub fn with_graph<R>(&self, f: impl FnOnce(&RecyclerGraph) -> R) -> R {
        f(&self.state.lock().graph)
    }

    /// Read-only probe of one subplan's recycler state (for `EXPLAIN`):
    /// does the graph know this exact subtree, and if so, is its result
    /// cached right now, being materialized by a live query, or neither?
    /// Inserts nothing and bumps no reference statistics.
    pub fn probe(&self, plan: &Plan) -> CacheState {
        let st = self.state.lock();
        match st.graph.find_exact(plan) {
            None => CacheState::Unknown,
            Some(id) => {
                if st.cache.contains(id) {
                    CacheState::Cached
                } else if st
                    .cache
                    .artifacts_of(id)
                    .iter()
                    .any(|a| a.kind == ArtifactKind::HashBuild)
                {
                    CacheState::CachedBuild
                } else if st.in_flight.contains_key(&id) {
                    CacheState::InFlight
                } else {
                    CacheState::Cold
                }
            }
        }
    }

    // ---- lineage persistence (write-ahead lineage, PAPERS.md) ------------

    /// The `k` highest-benefit cache entries as persistable
    /// [`LineageEntry`] lineage — plan subtree, epoch vector, and the
    /// statistics a restarted recycler needs to value the entry the way
    /// the live one did. Checkpointed alongside base tables so recovery
    /// can rebuild the cache by re-executing subplans instead of waiting
    /// for the workload to rediscover them ("Revisiting Reuse": the
    /// top-benefit entries are exactly the ones worth warming first).
    ///
    /// Only *result* artifacts are persisted: hash builds are
    /// deliberately skipped — recovery re-executes lineage plans through
    /// the normal pipeline, and the first post-restart join rebuilds and
    /// republishes its build side at the recovered epochs anyway, so
    /// persisting it would buy nothing and complicate the checkpoint
    /// format.
    pub fn lineage_top(&self, k: usize) -> Vec<LineageEntry> {
        let st = self.state.lock();
        let alpha = self.config.aging_alpha;
        st.cache
            .highest_benefit_first()
            .filter(|aid| aid.kind == ArtifactKind::Result)
            .take(k)
            .filter_map(|aid| {
                let entry = st.cache.get_artifact(aid)?;
                let node = st.graph.node(aid.node);
                Some(LineageEntry {
                    plan: node.subtree.clone(),
                    epochs: entry.epochs.clone(),
                    benefit: st.cache.benefit(aid)?,
                    heat: st.graph.decayed_h(aid.node, alpha),
                    cost_ns: node.stats.bcost_ns,
                    cost_work: node.stats.bcost_work,
                    rows: node.stats.rows,
                    bytes: node.stats.bytes,
                })
            })
            .collect()
    }

    /// Recovery warm-up: install `result` — a fresh execution of
    /// `entry.plan` against the recovered `catalog` — as a cached entry,
    /// seeding the graph node with the checkpointed cost/heat statistics
    /// so benefit ranking survives the restart. Returns whether the entry
    /// is cached afterwards (the admission policy may still reject it, and
    /// a bare scan, a copy of a base table, is never cached).
    pub fn warm(
        &self,
        entry: &LineageEntry,
        catalog: &Catalog,
        result: Arc<MaterializedResult>,
    ) -> bool {
        assert!(!entry.plan.has_named(), "lineage plans are bound");
        if matches!(entry.plan, Plan::Scan { .. }) {
            return false;
        }
        let alpha = self.config.aging_alpha;
        let mut st = self.lock();
        let schema_of =
            |p: &Plan| -> Schema { p.schema(catalog).expect("lineage plan must have a schema") };
        let id = st.graph.match_or_insert(&entry.plan, &schema_of).id;
        st.graph.annotate(
            id,
            entry.cost_ns,
            entry.cost_work,
            entry.rows,
            entry.bytes,
            true,
        );
        st.graph.seed_heat(id, entry.heat, alpha);
        // The entry is keyed by the epochs of the *fresh* execution, not
        // the checkpointed vector: the caller re-ran the subplan against
        // the recovered catalog, so that is what the result reflects.
        let epochs: Vec<(String, u64)> = st
            .graph
            .node(id)
            .tables
            .iter()
            .map(|t| (t.clone(), catalog.epoch_of(t).unwrap_or(0)))
            .collect();
        for (t, e) in &epochs {
            let cur = st.table_epochs.entry(t.clone()).or_insert(0);
            *cur = (*cur).max(*e);
        }
        if st.cache.contains(id) {
            return true;
        }
        match st.cache.insert(id, result, entry.benefit, epochs) {
            Ok(evicted) => {
                st.evicted(evicted);
                if !st.graph.node(id).materialized {
                    st.graph.on_materialized(id, alpha);
                }
                true
            }
            Err(refused) => {
                st.displace(refused);
                false
            }
        }
    }
}

/// Result of one [`Recycler::repair`] call.
#[derive(Debug, Default)]
pub struct RepairOutcome {
    /// Per-entry events: [`RecyclerEvent::Repaired`] for patched entries,
    /// [`RecyclerEvent::Invalidated`] for everything evicted (whether it
    /// was never repairable or fell back).
    pub events: Vec<RecyclerEvent>,
    /// Entries repaired in place.
    pub repaired: u64,
    /// Repair candidates that fell back to eviction.
    pub fallbacks: u64,
    /// 1 when the delta was a non-empty append or delete at a current
    /// snapshot (so its stale dependents were repair candidates), else 0.
    pub deltas_applied: u64,
}

/// One cache entry's persistable lineage: the plan that produced it, the
/// base-table epochs it was computed under, and the statistics that rank
/// it. Everything needed to re-create the entry on a restarted engine by
/// re-executing the plan — the "write-ahead lineage" alternative to
/// persisting result bytes, which stay valid only as long as their
/// epochs anyway.
#[derive(Debug, Clone)]
pub struct LineageEntry {
    /// Bound canonical plan of the cached subtree.
    pub plan: Plan,
    /// `(table, epoch)` vector the result was computed under.
    pub epochs: Vec<(String, u64)>,
    /// Benefit at checkpoint time (Eq. 1).
    pub benefit: f64,
    /// Decayed reference heat `hR` at checkpoint time.
    pub heat: f64,
    /// Measured base cost, wall nanoseconds.
    pub cost_ns: f64,
    /// Measured base cost, abstract work units.
    pub cost_work: f64,
    /// Result cardinality.
    pub rows: u64,
    /// Result size in bytes.
    pub bytes: u64,
}

/// Result of [`Recycler::probe`]: the recycler-side status of one subplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// A materialized result is in the cache; an execution would reuse it.
    Cached,
    /// No cached result, but a cached hash-join build side of this
    /// subtree exists; a join building on it would skip its build phase.
    CachedBuild,
    /// A concurrent query is materializing this result right now; an
    /// execution would stall on it.
    InFlight,
    /// The graph knows the subtree but holds no result for it.
    Cold,
    /// The subtree has never been seen by the recycler.
    Unknown,
}

impl CacheState {
    /// Short label for plan annotations.
    pub fn label(self) -> &'static str {
        match self {
            CacheState::Cached => "cached",
            CacheState::CachedBuild => "cached-build",
            CacheState::InFlight => "in-flight",
            CacheState::Cold => "cold",
            CacheState::Unknown => "cold",
        }
    }
}

/// Walk the (query plan, match tree) pair and bump references on
/// pre-existing nodes with no materialized ancestor in the matched region.
fn bump_references(graph: &mut RecyclerGraph, mt: &MatchTree, mat_above: bool, alpha: f64) {
    if !mt.inserted && !mat_above {
        graph.bump_h(mt.id, alpha);
    }
    let mat_here = mat_above || graph.node(mt.id).materialized;
    for c in &mt.children {
        bump_references(graph, c, mat_here, alpha);
    }
}

/// One rewrite attempt (may be retried after a stall).
struct RewriteRun<'a> {
    cfg: &'a RecyclerConfig,
    stats: &'a RecyclerStats,
    qid: u64,
    /// Epoch at which the query's snapshot pins each base table.
    epoch_of: &'a dyn Fn(&str) -> u64,
    /// Output schema of a bound subplan.
    schema_of: &'a dyn Fn(&Plan) -> Schema,
    tags: Vec<u64>,
    annots: Vec<(Vec<usize>, NodeId)>,
    events: Vec<RecyclerEvent>,
    /// Build nodes whose hash build this attempt leased.
    build_leases: Vec<NodeId>,
    ignore_stall: &'a [NodeId],
}

impl<'a> RewriteRun<'a> {
    /// Whether a cached entry's recorded base-table epochs match the
    /// query's snapshot — the freshness condition for substituting it.
    /// A mismatch in either direction (entry older after a racing update,
    /// or entry newer than a query holding an older snapshot) disqualifies
    /// the entry; this query must compute from its own pinned versions.
    fn entry_fresh(&self, entry: &crate::cache::CacheEntry) -> bool {
        entry.epochs.iter().all(|(t, e)| (self.epoch_of)(t) == *e)
    }
    /// Returns the rewritten plan, or `Err(node)` if the query must stall
    /// on a concurrent materialization of `node`.
    fn rewrite(
        &mut self,
        st: &mut State,
        plan: &Plan,
        mt: &MatchTree,
        is_root: bool,
    ) -> Result<Plan, NodeId> {
        let id = mt.id;

        // Rule 1: substitute an exactly-matching cached result — but only
        // when it was computed from the same table versions this query's
        // snapshot pins (update-awareness: a stale entry is dead weight
        // here even if invalidation hasn't caught up with it yet).
        if let Some(entry) = st.cache.get(id) {
            if self.entry_fresh(entry) {
                let result = entry.artifact.clone();
                let bytes = entry.size;
                let schema = st.graph.node(id).schema.clone();
                let tag = self.issue(st, TagEntry::Lease(result));
                self.events.push(RecyclerEvent::Reused { node: id, bytes });
                return Ok(Plan::Cached { tag, schema });
            }
        }

        // Rule 2: another query is currently producing this result — stall
        // (paper §V) unless we already waited too long for it, or the
        // producer pinned different table versions (its result can never
        // satisfy this snapshot, so waiting would be pure loss).
        if let Some(&owner) = st.in_flight.get(&id) {
            if owner != self.qid
                && !self.ignore_stall.contains(&id)
                && self.producer_epochs_match(st, id)
            {
                return Err(id);
            }
        }

        // Rule 3: subsumption (only when no exact cached result exists).
        if let Some(derived) = self.try_subsumption(st, plan, id) {
            return Ok(derived);
        }

        // Recurse into children.
        let mut new_children = Vec::with_capacity(mt.children.len());
        let mut child_annots: Vec<(Vec<usize>, NodeId)> = Vec::new();
        for (i, (c_plan, c_mt)) in plan.children().iter().zip(&mt.children).enumerate() {
            let saved = std::mem::take(&mut self.annots);
            let events = self.events.len();
            let issued = (self.tags.len(), self.build_leases.len());
            let mut child = self.rewrite(st, c_plan, c_mt, false)?;
            let mut produced = std::mem::replace(&mut self.annots, saved);
            // Every `Store` or `Cached` node a result puts into the plan
            // comes with an event; a join's build input without one reads
            // and stores no result, and its hash build is the recycler's.
            if let (1, Plan::Join { right_keys, .. }) = (i, plan) {
                if self.events.len() == events {
                    let aid = ArtifactId {
                        node: c_mt.id,
                        kind: ArtifactKind::HashBuild,
                        variant: rdb_plan::fx_hash(right_keys),
                    };
                    child = self.hash_build(st, c_plan, child, aid, &mut produced, issued);
                }
            }
            for (mut p, n) in produced {
                p.insert(0, i);
                child_annots.push((p, n));
            }
            new_children.push(child);
        }
        let rebuilt = plan.with_children(new_children);
        self.annots.append(&mut child_annots);
        // This node is computed by this query: annotate it afterwards.
        self.annots.push((Vec::new(), id));

        // Rule 4: store injection.
        if let Some(speculative) = self.store_decision(st, plan, id, is_root) {
            let base_epochs = self.pinned_epochs(st, id);
            let tag = self.issue(
                st,
                TagEntry::StoreTarget {
                    node: id,
                    qid: self.qid,
                    base_epochs,
                    last_est: None,
                    resolved: None,
                },
            );
            // May overwrite a stale-epoch producer's marker (that is the
            // supersession store_decision allowed); owner-checked release
            // keeps the superseded producer from clearing ours.
            st.in_flight.insert(id, self.qid);
            self.events.push(RecyclerEvent::StoreInjected {
                node: id,
                speculative,
            });
            // The store wrapper adds one plan level above this node.
            for (p, _) in self.annots.iter_mut() {
                p.insert(0, 0);
            }
            return Ok(Plan::Store {
                child: Box::new(rebuilt),
                tag,
                mode: if speculative {
                    StoreMode::Speculate
                } else {
                    StoreMode::Materialize
                },
            });
        }
        Ok(rebuilt)
    }

    /// Enter `entry` into the tag table under a new tag issued to this
    /// query.
    fn issue(&mut self, st: &mut State, entry: TagEntry) -> u64 {
        let tag = st.next_tag;
        st.next_tag += 1;
        st.tags.insert(tag, entry);
        self.tags.push(tag);
        tag
    }

    /// `(table, epoch)` of `id`'s base tables as this query's snapshot
    /// pins them.
    fn pinned_epochs(&self, st: &State, id: NodeId) -> Vec<(String, u64)> {
        st.graph
            .node(id)
            .tables
            .iter()
            .map(|t| (t.clone(), (self.epoch_of)(t)))
            .collect()
    }

    /// A join's build input `plan`, rewritten to `input`, whose hash
    /// build would be the artifact `aid`; `annots` are the input's
    /// annotations and `issued` the lengths of the tag and build-lease
    /// lists before its rewrite. A fresh cached build is leased in the
    /// input's place; nothing below it is computed, so its annotations and
    /// whatever its rewrite issued are dropped. Otherwise the input becomes
    /// a build target, and the executor offers what it builds to the cache.
    fn hash_build(
        &mut self,
        st: &mut State,
        plan: &Plan,
        input: Plan,
        aid: ArtifactId,
        annots: &mut Vec<(Vec<usize>, NodeId)>,
        issued: (usize, usize),
    ) -> Plan {
        if let Some(entry) = st.cache.get_artifact(aid) {
            if self.entry_fresh(entry) {
                let build = entry.artifact.clone();
                for t in self.tags.drain(issued.0..) {
                    st.tags.remove(&t);
                }
                self.build_leases.truncate(issued.1);
                let tag = self.issue(st, TagEntry::Lease(build));
                self.build_leases.push(aid.node);
                annots.clear();
                let schema = (self.schema_of)(plan);
                return Plan::Cached { tag, schema };
            }
        }
        let epochs = self.pinned_epochs(st, aid.node);
        let tag = self.issue(st, TagEntry::BuildTarget { aid, epochs });
        // The target adds one plan level above the input.
        for (p, _) in annots.iter_mut() {
            p.insert(0, 0);
        }
        Plan::Store {
            child: Box::new(input),
            tag,
            mode: StoreMode::Build,
        }
    }

    /// Whether the query currently materializing `id` pinned the same
    /// base-table epochs as this query (stalling on a producer from
    /// another snapshot can never pay off).
    fn producer_epochs_match(&self, st: &State, id: NodeId) -> bool {
        st.tags.values().any(|t| {
            matches!(
                t,
                TagEntry::StoreTarget { node, base_epochs, resolved: None, .. }
                    if *node == id
                        && base_epochs.iter().all(|(t, e)| (self.epoch_of)(t) == *e)
            )
        })
    }

    /// Substitute a materialized subsuming result if one exists and is
    /// fresh for this query's snapshot. Among several, the one holding the
    /// fewest rows is derived from (the least re-filtering or
    /// re-aggregation), the lowest node id on a tie — the same choice in
    /// every process.
    fn try_subsumption(&mut self, st: &mut State, plan: &Plan, id: NodeId) -> Option<Plan> {
        let checks = st.graph.subsumption_candidates(id).len() as u64;
        if checks == 0 {
            return None;
        }
        self.stats
            .subsumption_checks
            .fetch_add(checks, Ordering::Relaxed);
        let (subsumer, derivation, result) = st
            .graph
            .materialized_subsumers(id)
            .into_iter()
            .filter_map(|(s, d)| {
                let entry = st.cache.get(s)?;
                self.entry_fresh(entry)
                    .then(|| (s, d, entry.result().clone()))
            })
            .min_by_key(|(s, _, r)| (r.rows(), *s))?;
        let schema = st.graph.node(subsumer).schema.clone();
        let tag = self.issue(st, TagEntry::Lease(CacheArtifact::Result(result)));
        let cached = Plan::Cached { tag, schema };
        let derived = match &derivation {
            Derivation::Reselect => match plan {
                Plan::Select { predicate, .. } => cached.select(predicate.clone()),
                _ => return None,
            },
            Derivation::ProjectCols(cols) => {
                let sup_schema = &st.graph.node(subsumer).schema;
                let items: Vec<(rdb_expr::Expr, &str)> = cols
                    .iter()
                    .map(|&c| (rdb_expr::Expr::col(c), sup_schema.field(c).name.as_str()))
                    .collect();
                cached.project(items)
            }
            Derivation::Reaggregate {
                group_cols,
                agg_cols,
            } => match plan {
                Plan::Aggregate {
                    group_names,
                    aggs,
                    agg_names,
                    ..
                } => {
                    let groups: Vec<(rdb_expr::Expr, &str)> = group_cols
                        .iter()
                        .zip(group_names)
                        .map(|(&c, n)| (rdb_expr::Expr::col(c), n.as_str()))
                        .collect();
                    let new_aggs: Vec<(rdb_expr::AggFunc, &str)> = aggs
                        .iter()
                        .zip(agg_cols)
                        .zip(agg_names)
                        .map(|((a, &c), n)| {
                            (a.reaggregate(c).expect("checked decomposable"), n.as_str())
                        })
                        .collect();
                    cached.aggregate(groups, new_aggs)
                }
                _ => return None,
            },
            Derivation::Retopn => match plan {
                Plan::TopN { keys, n, .. } => cached.top_n(keys.clone(), *n),
                _ => return None,
            },
        };
        self.events.push(RecyclerEvent::SubsumptionReused {
            node: id,
            via: subsumer,
        });
        Some(derived)
    }

    /// Decide whether to put a store operator above this node. Returns
    /// `Some(speculative)` to inject.
    fn store_decision(&self, st: &State, plan: &Plan, id: NodeId, is_root: bool) -> Option<bool> {
        // Never re-materialize a base-table copy, and never store what is
        // already cached or being produced *at our epochs*. A producer
        // pinned at superseded epochs does not block us: its publish will
        // be rejected by the epoch gate, and without our own store the
        // first fresh result after a write would never repopulate the
        // cache.
        if matches!(plan, Plan::Scan { .. }) {
            return None;
        }
        let node = st.graph.node(id);
        if node.materialized
            || (st.in_flight.contains_key(&id) && self.producer_epochs_match(st, id))
        {
            return None;
        }
        if node.stats.measured {
            // History rule: results seen before, with enough references and
            // an admissible benefit, are materialized outright.
            let h = st.graph.decayed_h(id, self.cfg.aging_alpha);
            if h < MIN_REFS_TO_STORE {
                return None;
            }
            let bytes = node.stats.bytes.max(1);
            if bytes > self.cfg.max_result_bytes() {
                return None;
            }
            let benefit = st
                .graph
                .benefit(id, self.cfg.cost_model, self.cfg.aging_alpha);
            if benefit <= 0.0 {
                return None;
            }
            st.cache.would_admit(bytes, benefit).then_some(false)
        } else {
            // Speculation rule (§III-D): first-time results behind
            // designated operators (expensive, expected-small results).
            if self.cfg.mode != RecyclerMode::Speculative {
                return None;
            }
            let designated = is_root
                || matches!(
                    plan,
                    Plan::Aggregate { .. } | Plan::TopN { .. } | Plan::FnScan { .. }
                );
            designated.then_some(true)
        }
    }
}

fn metrics_at<'a>(root: &'a MetricsNode, path: &[usize]) -> Option<&'a MetricsNode> {
    let mut cur = root;
    for &i in path {
        cur = cur.children.get(i)?;
    }
    Some(cur)
}

fn plan_at<'a>(root: &'a Plan, path: &[usize]) -> Option<&'a Plan> {
    let mut cur = root;
    for &i in path {
        let children = cur.children();
        cur = children.get(i).copied()?;
    }
    Some(cur)
}

/// Whether `plan` reads a leased result. A leased hash build is not one:
/// the join over it computes its output from base tables and only skips
/// rebuilding its build side.
fn reads_cached_result(plan: &Plan, tags: &HashMap<u64, TagEntry>) -> bool {
    match plan {
        Plan::Cached { tag, .. } => matches!(
            tags.get(tag),
            Some(TagEntry::Lease(CacheArtifact::Result(_)))
        ),
        _ => plan.children().iter().any(|c| reads_cached_result(c, tags)),
    }
}

impl ResultStore for Recycler {
    fn fetch(&self, tag: u64) -> Option<Arc<MaterializedResult>> {
        match self.state.lock().tags.get(&tag) {
            Some(TagEntry::Lease(artifact)) => artifact.as_result().cloned(),
            _ => None,
        }
    }

    fn fetch_build(&self, tag: u64) -> Option<Arc<BuildSide>> {
        match self.state.lock().tags.get(&tag) {
            Some(TagEntry::Lease(artifact)) => artifact.as_build().cloned(),
            _ => None,
        }
    }

    fn publish(&self, tag: u64, result: MaterializedResult) {
        let mut st = self.lock();
        let Some(TagEntry::StoreTarget {
            node,
            qid,
            base_epochs,
            last_est,
            resolved,
        }) = st.tags.get(&tag)
        else {
            return;
        };
        let (node, qid, last_est) = (*node, *qid, last_est.clone());
        let base_epochs = base_epochs.clone();
        if resolved.is_some() {
            return;
        }
        // Freshness gate: a result produced from a superseded snapshot is
        // discarded instead of poisoning the cache (this closes the
        // publish-after-write race).
        if st.superseded(&base_epochs) {
            self.stats.stale_rejections.fetch_add(1, Ordering::Relaxed);
            self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
            if let Some(TagEntry::StoreTarget { resolved, .. }) = st.tags.get_mut(&tag) {
                *resolved = Some(StoreOutcome::Abandoned);
            }
            st.release_in_flight(node, qid);
            drop(st);
            self.resolved_cond.notify_all();
            return;
        }
        let bytes = result.size_bytes() as u64;
        let model = self.config.cost_model;
        let alpha = self.config.aging_alpha;
        // Benefit: measured statistics if the node has history, else the
        // speculative estimate with the paper's constant h.
        let benefit = if st.graph.node(node).stats.measured {
            st.graph.benefit(node, model, alpha)
        } else {
            let cost = last_est.as_ref().map(|e| e.est_cost_ns).unwrap_or(0.0);
            cost * SPEC_H / bytes.max(1) as f64
        };
        let result = Arc::new(result);
        let admitted = if st.cache.contains(node) {
            // A concurrent duplicate publish (two fresh producers racing)
            // already cached it: this copy is freed after the lock.
            st.displace(CacheArtifact::Result(result));
            true
        } else {
            match st.cache.insert(node, result, benefit, base_epochs) {
                Ok(evicted) => {
                    st.evicted(evicted);
                    // Eq. 3's hR propagation runs once per materialization.
                    if !st.graph.node(node).materialized {
                        st.graph.on_materialized(node, alpha);
                    }
                    true
                }
                Err(refused) => {
                    st.displace(refused);
                    false
                }
            }
        };
        if admitted {
            self.stats.materializations.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(TagEntry::StoreTarget { resolved, .. }) = st.tags.get_mut(&tag) {
            *resolved = Some(StoreOutcome::Published { admitted, bytes });
        }
        st.release_in_flight(node, qid);
        drop(st);
        self.resolved_cond.notify_all();
    }

    fn abandon(&self, tag: u64) {
        let mut st = self.state.lock();
        if let Some(TagEntry::StoreTarget {
            node,
            qid,
            resolved,
            ..
        }) = st.tags.get_mut(&tag)
        {
            let (node, qid) = (*node, *qid);
            if resolved.is_none() {
                *resolved = Some(StoreOutcome::Abandoned);
                self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
            }
            st.release_in_flight(node, qid);
        }
        drop(st);
        self.resolved_cond.notify_all();
    }

    /// Offer the build side a join built under the build target `tag` to
    /// the cache: dropped when the artifact is already cached, rejected by
    /// the same staleness gate as a result, then subject to the size bound
    /// and the normal admission/replacement policy — a hash build competes
    /// for bytes against every other artifact on benefit alone.
    fn publish_build(&self, tag: u64, build: Arc<BuildSide>, cost: StateCost) {
        let mut st = self.lock();
        let Some(TagEntry::BuildTarget { aid, epochs }) = st.tags.get(&tag) else {
            return;
        };
        let (aid, epochs) = (*aid, epochs.clone());
        if st.cache.get_artifact(aid).is_some() {
            return;
        }
        if st.superseded(&epochs) {
            bump!(self.stats, stale_rejections);
            return;
        }
        let size = build.size_bytes() as u64;
        if size > self.config.max_result_bytes() {
            return;
        }
        let model_cost = match self.config.cost_model {
            CostModel::Time => cost.cost_ns,
            CostModel::WorkUnits => cost.cost_work,
        };
        // Benefit mirrors Eq. 1 with the artifact's own construction cost:
        // a warm hit saves the build, not the whole subtree. First-seen
        // nodes fall back to the speculation constant h for admission;
        // once admitted, the entry is ranked on Eq. 1 like every other.
        let h = st
            .graph
            .decayed_h(aid.node, self.config.aging_alpha)
            .max(SPEC_H);
        let benefit = model_cost * h / size.max(1) as f64;
        match st.cache.insert_artifact(
            aid,
            CacheArtifact::HashBuild(build),
            benefit,
            model_cost,
            epochs,
        ) {
            Ok(evicted) => {
                st.evicted(evicted);
                st.graph.mark_changed(aid.node);
            }
            Err(refused) => st.displace(refused),
        }
    }

    fn speculate(&self, tag: u64, est: &SpeculationEstimate) -> StoreVerdict {
        let mut st = self.state.lock();
        let Some(TagEntry::StoreTarget { last_est, .. }) = st.tags.get_mut(&tag) else {
            return StoreVerdict::Cancel;
        };
        *last_est = Some(est.clone());
        // Too large for the cache no matter what: cancel immediately.
        if est.buffered_bytes as u64 > self.config.max_result_bytes() {
            return StoreVerdict::Cancel;
        }
        if est.progress < self.config.spec_min_progress {
            return StoreVerdict::Undecided;
        }
        if est.est_bytes as u64 > self.config.max_result_bytes() {
            return StoreVerdict::Cancel;
        }
        // Paper §III-D: plug the estimates and a small constant h into the
        // benefit metric and let the admission policy decide.
        let benefit = est.est_cost_ns * SPEC_H / est.est_bytes.max(1.0);
        if st.cache.would_admit(est.est_bytes as u64, benefit) {
            StoreVerdict::Commit
        } else if est.progress >= 1.0 {
            StoreVerdict::Cancel
        } else {
            StoreVerdict::Undecided
        }
    }
}

#[cfg(test)]
mod tests;
