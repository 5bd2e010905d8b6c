//! The recycler graph (paper §II, §III-A/B/C).
//!
//! An AND-DAG unifying every optimized query tree the system has seen. Each
//! node is one relational operator with its parameters; identical subtrees
//! are merged and stored once, so finding an exact match for a query subtree
//! costs one bottom-up pass with hash-indexed candidate lookups
//! (Algorithm 1). Nodes are annotated with reference statistics (`hR`),
//! measured base cost, cardinality and size, which feed the benefit metric.
//!
//! Leaf candidates are found through a global hash table keyed by the leaf's
//! hash-key; non-leaf candidates are the *parents* of the already-matched
//! child, indexed per node by a small hash table (hash-key → parent ids) and
//! pruned by the column-bitmask signature, exactly as §III-A describes.
//!
//! Subsumption (§IV-A) is found on demand rather than stored as OR-edges:
//! every rule needs identical children and the same operator kind, and
//! only a materialized subsumer is of use, so the candidates for a node are
//! the materialized nodes of its kind over its first child — an index that
//! materialization and eviction maintain. Inserting a node is therefore
//! hash probes plus a push, whatever the number of siblings, and a check
//! compares children by id and a `Select`'s ranges analysed at insertion.
//!
//! Every change to a node's Eq. 1 inputs (`hR`, measured cost and size,
//! the set of directly materialized descendants) queues the node in a
//! changed list, which the recycler drains to re-rank exactly those cache
//! entries.

use std::collections::{HashMap, HashSet};
use std::mem::{discriminant, Discriminant};

use rdb_expr::{implies, Ranges};
use rdb_plan::{local_eq, local_hash, signature, Plan};
use rdb_vector::{DataType, Schema};

use crate::config::CostModel;

/// Identifier of a node in the recycler graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Run-time statistics annotated on a graph node (paper Fig. 3).
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Importance factor `hR` (paper §III-C), stored at `last_tick`.
    pub h_r: f64,
    /// Tick at which `h_r` was last touched (lazy aging).
    pub last_tick: u64,
    /// Measured base cost in nanoseconds (cost from base tables).
    pub bcost_ns: f64,
    /// Measured base cost in deterministic work units.
    pub bcost_work: f64,
    /// Times this node's result has been computed.
    pub executions: u64,
    /// Measured result cardinality.
    pub rows: u64,
    /// Measured result size in bytes.
    pub bytes: u64,
    /// Whether cost/size have been measured at least once.
    pub measured: bool,
}

/// How a subsuming node's cached result can be turned into this node's
/// result (paper §IV-A).
#[derive(Debug, Clone, PartialEq)]
pub enum Derivation {
    /// Tuple subsumption for selections: re-apply this node's predicate
    /// over the subsumer's rows.
    Reselect,
    /// Column subsumption: project the given positions of the subsumer.
    ProjectCols(Vec<usize>),
    /// Tuple subsumption for aggregations: re-aggregate the subsumer.
    /// `group_cols[i]` is the subsumer output position of this node's i-th
    /// group key; `agg_cols[j]` the position of the partial aggregate that
    /// this node's j-th aggregate re-aggregates.
    Reaggregate {
        /// Positions of this node's group keys in the subsumer output.
        group_cols: Vec<usize>,
        /// Positions of the partial aggregates in the subsumer output.
        agg_cols: Vec<usize>,
    },
    /// Top-N subsumption: the subsumer kept at least as many rows under the
    /// same ordering; re-apply top-N over it.
    Retopn,
}

/// One operator node in the recycler graph.
#[derive(Debug)]
pub struct GraphNode {
    /// Canonical (bound) plan of the whole subtree rooted here.
    pub subtree: Plan,
    /// Output schema (graph-canonical names: those of the inserting query).
    pub schema: Schema,
    /// Base tables the subtree reads (deduplicated): the node's
    /// invalidation footprint — an update to any of them makes this node's
    /// cached result stale.
    pub tables: Vec<String>,
    /// Per-table repairability, parallel to `tables`: how this node's
    /// cached result can react to a committed delta of each base table
    /// (classified once at insertion — the subtree never changes).
    pub repair: Vec<rdb_delta::Repairability>,
    /// Children in plan order.
    pub children: Vec<NodeId>,
    /// Hash-key of the local operator (type + parameters).
    pub hash_key: u64,
    /// Column-bitmask signature of the subtree.
    pub signature: u64,
    /// Parent index: local hash-key → parent node ids.
    pub parents: HashMap<u64, Vec<NodeId>>,
    /// Annotated statistics.
    pub stats: NodeStats,
    /// Whether the result currently sits in the recycler cache.
    pub materialized: bool,
    /// A `Select`'s predicate ranges, analysed once at insertion for
    /// subsumption checks (`None` for other operators and for predicates
    /// outside the analysable fragment).
    pub ranges: Option<Ranges>,
    /// Whether the node sits in [`RecyclerGraph`]'s changed list.
    changed: bool,
}

impl GraphNode {
    /// How this node's cached result reacts to a committed delta of
    /// `table` (evict-only for tables outside its footprint).
    pub fn repairability_for(&self, table: &str) -> rdb_delta::Repairability {
        self.tables
            .iter()
            .position(|t| t == table)
            .map(|i| self.repair[i])
            .unwrap_or(rdb_delta::Repairability::EvictOnly)
    }
}

/// Result of matching one query-tree node.
#[derive(Debug, Clone)]
pub struct MatchTree {
    /// The graph node this query node unified with.
    pub id: NodeId,
    /// True if the node did not exist before this query (it was inserted).
    pub inserted: bool,
    /// Children in plan order.
    pub children: Vec<MatchTree>,
}

impl MatchTree {
    /// Count nodes that were newly inserted.
    pub fn inserted_count(&self) -> usize {
        (self.inserted as usize)
            + self
                .children
                .iter()
                .map(|c| c.inserted_count())
                .sum::<usize>()
    }
}

/// The recycler graph. Callers (the `Recycler`) guard it with a lock; the
/// methods themselves are single-threaded.
#[derive(Debug, Default)]
pub struct RecyclerGraph {
    nodes: Vec<GraphNode>,
    /// Global leaf hash table: leaf hash-key → leaf node ids.
    leaf_index: HashMap<u64, Vec<NodeId>>,
    /// Scan leaves per base table, where a walk over the table's
    /// dependents starts.
    table_leaves: HashMap<String, Vec<NodeId>>,
    /// Materialized nodes by (first child, operator kind): the only nodes
    /// that can subsume one another.
    materialized_siblings: HashMap<SiblingKey, Vec<NodeId>>,
    /// Nodes whose Eq. 1 inputs changed since the last
    /// [`RecyclerGraph::take_changed`], each once.
    changed: Vec<NodeId>,
    /// Query counter driving lazy aging.
    tick: u64,
}

/// A node's first child and operator kind.
type SiblingKey = (NodeId, Discriminant<Plan>);

impl RecyclerGraph {
    /// Empty graph.
    pub fn new() -> Self {
        RecyclerGraph::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current query tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advance the aging clock by one query.
    pub fn advance_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &GraphNode {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut GraphNode {
        &mut self.nodes[id.0 as usize]
    }

    // ---- matching + insertion (Algorithm 1) ------------------------------

    /// Match the canonical plan `plan` against the graph bottom-up,
    /// inserting nodes that have no exact match (§III-B). Returns the
    /// match/insert annotation tree.
    ///
    /// `schema_of` supplies the output schema for inserted nodes.
    pub fn match_or_insert(
        &mut self,
        plan: &Plan,
        schema_of: &dyn Fn(&Plan) -> Schema,
    ) -> MatchTree {
        // Store and Cached wrappers never enter the graph; the rewriter
        // guarantees plans arriving here contain neither.
        debug_assert!(!matches!(plan, Plan::Store { .. } | Plan::Cached { .. }));
        let children: Vec<MatchTree> = plan
            .children()
            .iter()
            .map(|c| self.match_or_insert(c, schema_of))
            .collect();
        let child_ids: Vec<NodeId> = children.iter().map(|c| c.id).collect();
        let key = local_hash(plan);
        let sig = signature(plan);

        let found = if child_ids.is_empty() {
            // Leaf: global hash table (paper: table scans matched through a
            // global hash table), pruned by signature.
            self.leaf_index.get(&key).and_then(|cands| {
                cands.iter().copied().find(|&c| {
                    let n = self.node(c);
                    n.signature == sig && local_eq(&n.subtree, plan)
                })
            })
        } else {
            // Non-leaf: candidates are parents of the matched first child
            // (paper lines 8-13); all children must match.
            let first = child_ids[0];
            self.node(first).parents.get(&key).and_then(|cands| {
                cands.iter().copied().find(|&p| {
                    let n = self.node(p);
                    n.signature == sig && n.children == child_ids && local_eq(&n.subtree, plan)
                })
            })
        };

        match found {
            Some(id) => MatchTree {
                id,
                inserted: false,
                children,
            },
            None => {
                let id = self.insert_node(plan, schema_of(plan), &child_ids, key, sig);
                MatchTree {
                    id,
                    inserted: true,
                    children,
                }
            }
        }
    }

    /// Read-only exact lookup: the graph node whose subtree structurally
    /// equals `plan`, if one exists. Same candidate walk as
    /// [`RecyclerGraph::match_or_insert`], but inserts nothing and bumps
    /// no statistics. Outside tests it serves `EXPLAIN` only, which
    /// reports recycler state without perturbing it; every reuse decision
    /// matches once, through `match_or_insert`, in the rewriter.
    pub fn find_exact(&self, plan: &Plan) -> Option<NodeId> {
        if matches!(plan, Plan::Store { .. } | Plan::Cached { .. }) {
            return None;
        }
        let child_ids: Vec<NodeId> = plan
            .children()
            .iter()
            .map(|c| self.find_exact(c))
            .collect::<Option<_>>()?;
        let key = local_hash(plan);
        let sig = signature(plan);
        if child_ids.is_empty() {
            self.leaf_index.get(&key).and_then(|cands| {
                cands.iter().copied().find(|&c| {
                    let n = self.node(c);
                    n.signature == sig && local_eq(&n.subtree, plan)
                })
            })
        } else {
            let first = child_ids[0];
            self.node(first).parents.get(&key).and_then(|cands| {
                cands.iter().copied().find(|&p| {
                    let n = self.node(p);
                    n.signature == sig && n.children == child_ids && local_eq(&n.subtree, plan)
                })
            })
        }
    }

    fn insert_node(
        &mut self,
        plan: &Plan,
        schema: Schema,
        child_ids: &[NodeId],
        key: u64,
        sig: u64,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let tick = self.tick;
        let tables = plan.base_tables();
        let repair = tables
            .iter()
            .map(|t| rdb_delta::classify(plan, t))
            .collect();
        let ranges = match plan {
            Plan::Select { predicate, .. } => Ranges::of(predicate),
            _ => None,
        };
        self.nodes.push(GraphNode {
            subtree: plan.clone(),
            schema,
            tables,
            repair,
            children: child_ids.to_vec(),
            hash_key: key,
            signature: sig,
            parents: HashMap::new(),
            stats: NodeStats {
                last_tick: tick,
                ..Default::default()
            },
            materialized: false,
            ranges,
            changed: false,
        });
        if child_ids.is_empty() {
            self.leaf_index.entry(key).or_default().push(id);
            if let Plan::Scan { table, .. } = plan {
                self.table_leaves.entry(table.clone()).or_default().push(id);
            }
        } else {
            for &c in child_ids {
                self.node_mut(c).parents.entry(key).or_default().push(id);
            }
        }
        id
    }

    // ---- subsumption (§IV-A), found on demand -----------------------------

    fn sibling_key(&self, id: NodeId) -> Option<SiblingKey> {
        let n = self.node(id);
        n.children.first().map(|&c| (c, discriminant(&n.subtree)))
    }

    /// The nodes that could subsume `id`: materialized nodes of its
    /// operator kind over the same first child (possibly `id` itself).
    pub fn subsumption_candidates(&self, id: NodeId) -> &[NodeId] {
        self.sibling_key(id)
            .and_then(|k| self.materialized_siblings.get(&k))
            .map_or(&[], Vec::as_slice)
    }

    /// How `sub`'s result derives from `sup`'s, for two graph nodes:
    /// [`derive_subsumption`]'s rules with children compared by id and a
    /// `Select`'s implication decided on the ranges analysed at insertion.
    fn derive_between(&self, sub: NodeId, sup: NodeId) -> Option<Derivation> {
        let (a, b) = (self.node(sub), self.node(sup));
        if sub == sup || a.children != b.children {
            return None;
        }
        // The input both sides read (a scan has no subsumer).
        let input = &self.node(*a.children.first()?).schema;
        match (&a.subtree, &b.subtree) {
            (Plan::Select { predicate: p, .. }, Plan::Select { predicate: q, .. }) => {
                let implied = match (&a.ranges, &b.ranges) {
                    (Some(rp), Some(rq)) => p != q && rp.implies(rq),
                    _ => false,
                };
                implied.then_some(Derivation::Reselect)
            }
            (sub, sup) => derive_local(sub, sup, input),
        }
    }

    /// Materialized subsumers of `id` with their derivations, in the order
    /// materialization indexed them.
    pub fn materialized_subsumers(&self, id: NodeId) -> Vec<(NodeId, Derivation)> {
        self.subsumption_candidates(id)
            .iter()
            .filter_map(|&s| self.derive_between(id, s).map(|d| (s, d)))
            .collect()
    }

    // ---- hR bookkeeping (§III-C) ------------------------------------------

    /// Queue `id` for re-ranking: one of its Eq. 1 inputs changed.
    pub(crate) fn mark_changed(&mut self, id: NodeId) {
        let n = self.node_mut(id);
        if !n.changed {
            n.changed = true;
            self.changed.push(id);
        }
    }

    /// Drain the nodes whose Eq. 1 inputs changed since the last call.
    pub(crate) fn take_changed(&mut self) -> Vec<NodeId> {
        let changed = std::mem::take(&mut self.changed);
        for &id in &changed {
            self.node_mut(id).changed = false;
        }
        changed
    }

    /// Queue the nearest materialized ancestors of `id` — the nodes that
    /// have it, or would have it, as a DMD, so whose true cost (Eq. 2)
    /// moves when its cost or materialization does.
    fn mark_materialized_ancestors(&mut self, id: NodeId) {
        let mut stack = vec![id];
        let mut seen = HashSet::new();
        let mut found = Vec::new();
        while let Some(n) = stack.pop() {
            for &p in self.node(n).parents.values().flatten() {
                if seen.insert(p) {
                    if self.node(p).materialized {
                        found.push(p);
                    } else {
                        stack.push(p);
                    }
                }
            }
        }
        for p in found {
            self.mark_changed(p);
        }
    }

    /// `hR` of `id` decayed to the current tick (read-only).
    pub fn decayed_h(&self, id: NodeId, alpha: f64) -> f64 {
        let s = &self.node(id).stats;
        let dt = self.tick.saturating_sub(s.last_tick);
        s.h_r * alpha.powi(dt as i32)
    }

    /// Apply lazy aging to `id`'s stored `hR` and bring it to the current
    /// tick (paper: "all aging is performed at once whenever a node is
    /// referenced").
    fn age_to_now(&mut self, id: NodeId, alpha: f64) {
        let tick = self.tick;
        let s = &mut self.node_mut(id).stats;
        let dt = tick.saturating_sub(s.last_tick);
        if dt > 0 {
            s.h_r *= alpha.powi(dt as i32);
            s.last_tick = tick;
        }
    }

    /// Increment `hR` after a query reference.
    pub fn bump_h(&mut self, id: NodeId, alpha: f64) {
        self.age_to_now(id, alpha);
        self.node_mut(id).stats.h_r += 1.0;
        self.mark_changed(id);
    }

    /// Install persisted reference heat on `id` (recovery warm-up): the
    /// node keeps the larger of its live and checkpointed `hR`, so
    /// replaying old lineage can never *reduce* heat accumulated since.
    pub fn seed_heat(&mut self, id: NodeId, h: f64, alpha: f64) {
        self.age_to_now(id, alpha);
        let s = &mut self.node_mut(id).stats;
        s.h_r = s.h_r.max(h);
        self.mark_changed(id);
    }

    /// Mark `id` materialized and propagate Eq. 3: descendants down to (and
    /// including) each DMD lose `h_id` (Algorithm 2).
    pub fn on_materialized(&mut self, id: NodeId, alpha: f64) {
        self.set_materialized(id, true);
        self.age_to_now(id, alpha);
        let h = self.node(id).stats.h_r;
        let children = self.node(id).children.clone();
        for c in children {
            self.update_h_r(c, h, alpha);
        }
    }

    /// Unmark `id` and propagate Eq. 4 (the reverse of Eq. 3).
    pub fn on_evicted(&mut self, id: NodeId, alpha: f64) {
        self.set_materialized(id, false);
        self.age_to_now(id, alpha);
        let h = self.node(id).stats.h_r;
        let children = self.node(id).children.clone();
        for c in children {
            self.update_h_r(c, -h, alpha);
        }
    }

    /// Flip `id`'s materialized flag, keep the subsumption index in step,
    /// and queue the nodes whose benefit depends on the flag: `id` and its
    /// nearest materialized ancestors (their DMD sets change).
    fn set_materialized(&mut self, id: NodeId, materialized: bool) {
        self.node_mut(id).materialized = materialized;
        if let Some(key) = self.sibling_key(id) {
            let list = self.materialized_siblings.entry(key).or_default();
            list.retain(|&n| n != id);
            if materialized {
                list.push(id);
            } else if list.is_empty() {
                self.materialized_siblings.remove(&key);
            }
        }
        self.mark_changed(id);
        self.mark_materialized_ancestors(id);
    }

    /// Algorithm 2: `h_m -= delta`; stop at materialized nodes, else recurse.
    fn update_h_r(&mut self, m: NodeId, delta: f64, alpha: f64) {
        self.age_to_now(m, alpha);
        let s = &mut self.node_mut(m).stats;
        s.h_r = (s.h_r - delta).max(0.0);
        self.mark_changed(m);
        if self.node(m).materialized {
            return;
        }
        let children = self.node(m).children.clone();
        for c in children {
            self.update_h_r(c, delta, alpha);
        }
    }

    // ---- cost + benefit (§III-C) ------------------------------------------

    /// Annotate measured run-time statistics on a node after a query
    /// computed its result. `from_base` is false when the computation used
    /// cached intermediates (then the measurement is not a *base* cost and
    /// only cardinality/size are updated).
    pub fn annotate(
        &mut self,
        id: NodeId,
        cost_ns: f64,
        cost_work: f64,
        rows: u64,
        bytes: u64,
        from_base: bool,
    ) {
        let s = &mut self.node_mut(id).stats;
        if from_base {
            // "updated with the current measurement each time the result is
            // recomputed to reflect the most up-to-date system load"
            s.bcost_ns = cost_ns;
            s.bcost_work = cost_work;
        }
        s.rows = rows;
        s.bytes = bytes;
        s.executions += 1;
        s.measured = true;
        self.mark_changed(id);
        // A materialized node is a DMD of its nearest materialized
        // ancestors: its base cost is part of their true cost.
        if self.node(id).materialized {
            self.mark_materialized_ancestors(id);
        }
    }

    /// Direct materialized descendants of `id` (paper's DMDs).
    pub fn dmds(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &c in &self.node(id).children {
            self.collect_dmds(c, &mut out);
        }
        out
    }

    fn collect_dmds(&self, id: NodeId, out: &mut Vec<NodeId>) {
        if self.node(id).materialized {
            out.push(id);
            return;
        }
        for &c in &self.node(id).children {
            self.collect_dmds(c, out);
        }
    }

    /// Base cost under the selected model.
    pub fn base_cost(&self, id: NodeId, model: CostModel) -> f64 {
        let s = &self.node(id).stats;
        match model {
            CostModel::Time => s.bcost_ns,
            CostModel::WorkUnits => s.bcost_work,
        }
    }

    /// True cost (Eq. 2): base cost minus the base costs of the DMDs.
    pub fn true_cost(&self, id: NodeId, model: CostModel) -> f64 {
        let base = self.base_cost(id, model);
        let saved: f64 = self
            .dmds(id)
            .iter()
            .map(|&d| self.base_cost(d, model))
            .sum();
        (base - saved).max(0.0)
    }

    /// Benefit metric (Eq. 1): `cost(R) · hR / size(R)`.
    pub fn benefit(&self, id: NodeId, model: CostModel, alpha: f64) -> f64 {
        let size = self.node(id).stats.bytes.max(1) as f64;
        self.true_cost(id, model) * self.decayed_h(id, alpha) / size
    }

    // ---- invalidation (PAPER.md §V) ----------------------------------------

    /// Every node whose result depends on `table`, found by walking the
    /// operator graph upward from the changed leaf: start at the scan
    /// leaves over `table`, then follow parent edges transitively. This is
    /// exactly the set an update to `table` makes stale — nodes over other
    /// tables are never visited, which is what makes invalidation precise.
    pub fn dependents_of_table(&self, table: &str) -> Vec<NodeId> {
        let mut queue: Vec<NodeId> = self.table_leaves.get(table).cloned().unwrap_or_default();
        let mut seen: HashSet<NodeId> = queue.iter().copied().collect();
        let mut out = Vec::new();
        while let Some(id) = queue.pop() {
            out.push(id);
            for &p in self.node(id).parents.values().flatten() {
                if seen.insert(p) {
                    queue.push(p);
                }
            }
        }
        out.sort();
        out
    }

    /// All currently materialized node ids (test/inspection helper).
    pub fn materialized_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&id| self.node(id).materialized)
            .collect()
    }
}

/// Can `sub`'s result be derived from `sup`'s result (both canonical plans
/// with identical children, whose output is `input`)? Implements the
/// paper's tuple subsumption for selections, column and tuple subsumption
/// for aggregations, and top-N widening. Bare scans have no rule: the
/// recycler never stores one, so there is never a cached scan to derive
/// from.
pub fn derive_subsumption(sub: &Plan, sup: &Plan, input: &Schema) -> Option<Derivation> {
    // Children must be structurally identical for all rules below.
    let sub_children = sub.children();
    let sup_children = sup.children();
    if sub_children.len() != sup_children.len()
        || sub_children
            .iter()
            .zip(&sup_children)
            .any(|(a, b)| !rdb_plan::structural_eq(a, b))
    {
        return None;
    }
    match (sub, sup) {
        // Tuple subsumption for selections: σ_p ⊂ σ_q when p ⇒ q.
        (Plan::Select { predicate: p, .. }, Plan::Select { predicate: q, .. }) => {
            (p != q && implies(p, q)).then_some(Derivation::Reselect)
        }
        _ => derive_local(sub, sup, input),
    }
}

/// The rules of [`derive_subsumption`] that look at operator parameters
/// only (children are already known to be identical, with output `input`).
fn derive_local(sub: &Plan, sup: &Plan, input: &Schema) -> Option<Derivation> {
    match (sub, sup) {
        (
            Plan::Aggregate {
                group_by: g1,
                aggs: a1,
                ..
            },
            Plan::Aggregate {
                group_by: g2,
                aggs: a2,
                ..
            },
        ) => {
            if g1 == g2 {
                // Column subsumption: same groups, aggregates a subset.
                if a1 == a2 {
                    return None; // exact matching handles this
                }
                let mut positions: Vec<usize> = (0..g1.len()).collect();
                for a in a1 {
                    let p = a2.iter().position(|x| x == a)?;
                    positions.push(g2.len() + p);
                }
                Some(Derivation::ProjectCols(positions))
            } else {
                // Tuple subsumption: sup groups strictly finer (superset of
                // keys); re-aggregate.
                let group_cols: Option<Vec<usize>> =
                    g1.iter().map(|g| g2.iter().position(|x| x == g)).collect();
                let group_cols = group_cols?;
                let input: Vec<DataType> = input.fields().iter().map(|f| f.dtype).collect();
                let mut agg_cols = Vec::with_capacity(a1.len());
                for a in a1 {
                    // The partial aggregate must exist in sup and be
                    // re-aggregable (sum of sums, etc.) without changing a
                    // bit: a float sum re-added in another order is not
                    // what recomputation gives.
                    let p = a2.iter().position(|x| x == a)?;
                    if a.reaggregate(0).is_none() || !a.is_exact(&input) {
                        return None;
                    }
                    agg_cols.push(g2.len() + p);
                }
                Some(Derivation::Reaggregate {
                    group_cols,
                    agg_cols,
                })
            }
        }
        // Top-N widening: same ordering, sup kept at least as many rows.
        (
            Plan::TopN {
                keys: k1, n: n1, ..
            },
            Plan::TopN {
                keys: k2, n: n2, ..
            },
        ) => {
            if k1 == k2 && n2 >= n1 && n1 != n2 {
                Some(Derivation::Retopn)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_expr::{AggFunc, Expr};
    use rdb_plan::scan;
    use rdb_vector::{DataType, Schema};

    fn sch(_p: &Plan) -> Schema {
        Schema::from_pairs([("x", DataType::Int)])
    }

    fn q1() -> Plan {
        scan("t", &["a", "b"])
            .select(Expr::col(0).gt(Expr::lit(5)))
            .aggregate(vec![(Expr::col(1), "g")], vec![(AggFunc::CountStar, "n")])
    }

    #[test]
    fn identical_queries_unify() {
        let mut g = RecyclerGraph::new();
        let m1 = g.match_or_insert(&q1(), &sch);
        assert_eq!(m1.inserted_count(), 3);
        assert_eq!(g.len(), 3);
        let m2 = g.match_or_insert(&q1(), &sch);
        assert_eq!(m2.inserted_count(), 0);
        assert_eq!(g.len(), 3);
        assert_eq!(m1.id, m2.id);
    }

    #[test]
    fn shared_prefix_is_merged() {
        let mut g = RecyclerGraph::new();
        g.match_or_insert(&q1(), &sch);
        // Same scan+select, different aggregate.
        let q2 = scan("t", &["a", "b"])
            .select(Expr::col(0).gt(Expr::lit(5)))
            .aggregate(vec![(Expr::col(0), "g")], vec![(AggFunc::CountStar, "n")]);
        let m = g.match_or_insert(&q2, &sch);
        assert_eq!(m.inserted_count(), 1, "only the aggregate is new");
        assert_eq!(g.len(), 4);
        // Different select parameter forks earlier.
        let q3 = scan("t", &["a", "b"]).select(Expr::col(0).gt(Expr::lit(6)));
        let m = g.match_or_insert(&q3, &sch);
        assert_eq!(m.inserted_count(), 1);
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn renamed_outputs_still_unify() {
        let mut g = RecyclerGraph::new();
        let a = scan("t", &["a"]).project(vec![(Expr::col(0).add(Expr::lit(1)), "x")]);
        let b = scan("t", &["a"]).project(vec![(Expr::col(0).add(Expr::lit(1)), "y")]);
        g.match_or_insert(&a, &sch);
        let m = g.match_or_insert(&b, &sch);
        assert_eq!(m.inserted_count(), 0, "names are handled by mappings");
    }

    #[test]
    fn bump_and_decay() {
        let mut g = RecyclerGraph::new();
        let m = g.match_or_insert(&q1(), &sch);
        g.bump_h(m.id, 0.5);
        assert_eq!(g.decayed_h(m.id, 0.5), 1.0);
        g.advance_tick();
        g.advance_tick();
        assert_eq!(g.decayed_h(m.id, 0.5), 0.25);
        g.bump_h(m.id, 0.5);
        assert_eq!(g.decayed_h(m.id, 0.5), 1.25);
    }

    #[test]
    fn materialize_updates_descendant_h() {
        // Fig. 3-style scenario: materializing a node subtracts its h from
        // descendants down to the first materialized node.
        let mut g = RecyclerGraph::new();
        let m = g.match_or_insert(&q1(), &sch);
        let agg = m.id;
        let sel = m.children[0].id;
        let sc = m.children[0].children[0].id;
        // Give everyone some references.
        for _ in 0..5 {
            g.bump_h(sel, 1.0);
            g.bump_h(sc, 1.0);
        }
        for _ in 0..2 {
            g.bump_h(agg, 1.0);
        }
        g.on_materialized(agg, 1.0);
        assert_eq!(g.decayed_h(sel, 1.0), 3.0); // 5 - 2
        assert_eq!(g.decayed_h(sc, 1.0), 3.0);
        // Evicting restores.
        g.on_evicted(agg, 1.0);
        assert_eq!(g.decayed_h(sel, 1.0), 5.0);
        assert_eq!(g.decayed_h(sc, 1.0), 5.0);
    }

    #[test]
    fn update_stops_at_materialized_boundary() {
        let mut g = RecyclerGraph::new();
        let m = g.match_or_insert(&q1(), &sch);
        let agg = m.id;
        let sel = m.children[0].id;
        let sc = m.children[0].children[0].id;
        for _ in 0..4 {
            g.bump_h(sc, 1.0);
        }
        g.bump_h(sel, 1.0);
        g.bump_h(agg, 1.0);
        // Materialize the selection first: scan loses h_sel.
        g.on_materialized(sel, 1.0);
        assert_eq!(g.decayed_h(sc, 1.0), 3.0);
        // Now materialize the aggregate: propagation stops at the
        // materialized selection; the scan is unaffected (paper: nodes
        // below a DMD are not modified).
        g.on_materialized(agg, 1.0);
        assert_eq!(g.decayed_h(sel, 1.0), 0.0);
        assert_eq!(g.decayed_h(sc, 1.0), 3.0);
    }

    #[test]
    fn true_cost_subtracts_dmds() {
        let mut g = RecyclerGraph::new();
        let m = g.match_or_insert(&q1(), &sch);
        let agg = m.id;
        let sel = m.children[0].id;
        let sc = m.children[0].children[0].id;
        g.annotate(sc, 100.0, 100.0, 1000, 8000, true);
        g.annotate(sel, 400.0, 400.0, 10, 80, true);
        g.annotate(agg, 500.0, 500.0, 2, 16, true);
        assert_eq!(g.true_cost(agg, CostModel::WorkUnits), 500.0);
        g.on_materialized(sel, 1.0);
        assert_eq!(g.dmds(agg), vec![sel]);
        assert_eq!(g.true_cost(agg, CostModel::WorkUnits), 100.0);
        // Benefit = cost*h/size.
        g.bump_h(agg, 1.0);
        g.bump_h(agg, 1.0);
        assert!((g.benefit(agg, CostModel::WorkUnits, 1.0) - 100.0 * 2.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn select_subsumption_edges() {
        let mut g = RecyclerGraph::new();
        let wide = scan("t", &["a"]).select(Expr::col(0).ge(Expr::lit(0)));
        let narrow = scan("t", &["a"]).select(
            Expr::col(0)
                .ge(Expr::lit(5))
                .and(Expr::col(0).le(Expr::lit(9))),
        );
        let mw = g.match_or_insert(&wide, &sch);
        let mn = g.match_or_insert(&narrow, &sch);
        assert_eq!(g.derive_between(mn.id, mw.id), Some(Derivation::Reselect));
        assert_eq!(g.derive_between(mw.id, mn.id), None);
        // Nothing materialized: no candidates at all.
        assert!(g.subsumption_candidates(mn.id).is_empty());
        assert!(g.materialized_subsumers(mn.id).is_empty());
        g.on_materialized(mw.id, 1.0);
        assert_eq!(
            g.materialized_subsumers(mn.id),
            vec![(mw.id, Derivation::Reselect)]
        );
        // A materialized node is never its own subsumer.
        assert!(g.materialized_subsumers(mw.id).is_empty());
        g.on_evicted(mw.id, 1.0);
        assert!(g.subsumption_candidates(mn.id).is_empty());
    }

    #[test]
    fn reverse_subsumption_edge_on_insert() {
        // Insert the narrow select first, then the wide one: once the wide
        // one is materialized the lookup finds narrow ⊂ wide, whatever the
        // insertion order.
        let mut g = RecyclerGraph::new();
        let narrow = scan("t", &["a"]).select(
            Expr::col(0)
                .ge(Expr::lit(5))
                .and(Expr::col(0).le(Expr::lit(9))),
        );
        let wide = scan("t", &["a"]).select(Expr::col(0).ge(Expr::lit(0)));
        let mn = g.match_or_insert(&narrow, &sch);
        let mw = g.match_or_insert(&wide, &sch);
        g.on_materialized(mw.id, 1.0);
        assert_eq!(
            g.materialized_subsumers(mn.id),
            vec![(mw.id, Derivation::Reselect)]
        );
        // Candidates share the operator kind: an aggregate over the same
        // scan, materialized, is not one.
        let agg = scan("t", &["a"]).aggregate(vec![], vec![(AggFunc::CountStar, "n")]);
        let ma = g.match_or_insert(&agg, &sch);
        g.on_materialized(ma.id, 1.0);
        assert_eq!(g.subsumption_candidates(mn.id), &[mw.id]);
    }

    /// Output of `scan("t", &["a", "b", "c"])`, with `c` of type `c_type`.
    fn abc(c_type: DataType) -> Schema {
        Schema::from_pairs([("a", DataType::Int), ("b", DataType::Int), ("c", c_type)])
    }

    #[test]
    fn aggregate_subsumption_variants() {
        let base = || scan("t", &["a", "b", "c"]);
        let ints = abc(DataType::Int);
        // Finer grouping subsumes coarser (tuple subsumption).
        let fine = base().aggregate(
            vec![(Expr::col(0), "g0"), (Expr::col(1), "g1")],
            vec![(AggFunc::Sum(Expr::col(2)), "s")],
        );
        let coarse = base().aggregate(
            vec![(Expr::col(0), "g0")],
            vec![(AggFunc::Sum(Expr::col(2)), "s")],
        );
        match derive_subsumption(&coarse, &fine, &ints) {
            Some(Derivation::Reaggregate {
                group_cols,
                agg_cols,
            }) => {
                assert_eq!(group_cols, vec![0]);
                assert_eq!(agg_cols, vec![2]);
            }
            other => panic!("expected reaggregate, got {other:?}"),
        }
        assert!(derive_subsumption(&fine, &coarse, &ints).is_none());
        // Same groups, extra aggregates: column subsumption.
        let more = base().aggregate(
            vec![(Expr::col(0), "g0")],
            vec![
                (AggFunc::Sum(Expr::col(2)), "s"),
                (AggFunc::Min(Expr::col(2)), "m"),
            ],
        );
        match derive_subsumption(&coarse, &more, &ints) {
            Some(Derivation::ProjectCols(pos)) => assert_eq!(pos, vec![0, 1]),
            other => panic!("expected project, got {other:?}"),
        }
        // A float sum re-added per finer group is not the scan-order sum:
        // no tuple subsumption, while projecting columns stays exact.
        let floats = abc(DataType::Float);
        assert!(derive_subsumption(&coarse, &fine, &floats).is_none());
        assert!(matches!(
            derive_subsumption(&coarse, &more, &floats),
            Some(Derivation::ProjectCols(_))
        ));
        // Min over floats re-aggregates exactly.
        let fine_min = base().aggregate(
            vec![(Expr::col(0), "g0"), (Expr::col(1), "g1")],
            vec![(AggFunc::Min(Expr::col(2)), "m")],
        );
        let coarse_min = base().aggregate(
            vec![(Expr::col(0), "g0")],
            vec![(AggFunc::Min(Expr::col(2)), "m")],
        );
        assert!(matches!(
            derive_subsumption(&coarse_min, &fine_min, &floats),
            Some(Derivation::Reaggregate { .. })
        ));
    }

    #[test]
    fn topn_subsumption() {
        use rdb_plan::SortKeyExpr;
        let keys = || vec![SortKeyExpr::desc(Expr::col(0))];
        let small = scan("t", &["a"]).top_n(keys(), 10);
        let big = scan("t", &["a"]).top_n(keys(), 10_000);
        let input = abc(DataType::Int);
        assert_eq!(
            derive_subsumption(&small, &big, &input),
            Some(Derivation::Retopn)
        );
        assert!(derive_subsumption(&big, &small, &input).is_none());
        let other_keys = scan("t", &["a"]).top_n(vec![SortKeyExpr::asc(Expr::col(0))], 10_000);
        assert!(derive_subsumption(&small, &other_keys, &input).is_none());
    }

    #[test]
    fn dependents_walk_covers_exactly_the_table_subgraph() {
        let mut g = RecyclerGraph::new();
        // q1 over t: scan(t) → select → aggregate.
        let m_t = g.match_or_insert(&q1(), &sch);
        // A two-table join query over t and u.
        let join = scan("t", &["a", "b"])
            .select(Expr::col(0).gt(Expr::lit(5)))
            .inner_join(scan("u", &["a"]), vec![Expr::col(0)], vec![Expr::col(0)]);
        let m_join = g.match_or_insert(&join, &sch);
        // A u-only query.
        let m_u = g.match_or_insert(&scan("u", &["a"]).limit(3), &sch);

        let deps_t = g.dependents_of_table("t");
        // Everything reachable from scan(t): the 3 q1 nodes + the join
        // (which shares the scan+select prefix).
        assert!(deps_t.contains(&m_t.id));
        assert!(deps_t.contains(&m_join.id));
        assert!(!deps_t.contains(&m_u.id), "u-only nodes untouched");
        for &id in &deps_t {
            assert!(
                g.node(id).tables.iter().any(|t| t == "t"),
                "every dependent reads t"
            );
        }
        let deps_u = g.dependents_of_table("u");
        assert!(deps_u.contains(&m_join.id), "join depends on both tables");
        assert!(deps_u.contains(&m_u.id));
        assert!(!deps_u.contains(&m_t.id));
        assert!(g.dependents_of_table("nope").is_empty());
    }

    #[test]
    fn different_children_block_subsumption() {
        let a = scan("t", &["a"]).select(Expr::col(0).gt(Expr::lit(5)));
        let b = scan("u", &["a"]).select(Expr::col(0).gt(Expr::lit(0)));
        assert!(derive_subsumption(&a, &b, &abc(DataType::Int)).is_none());
    }
}
