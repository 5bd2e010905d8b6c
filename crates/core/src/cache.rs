//! The recycler cache (paper §II, §III-E), generalized to *artifacts*.
//!
//! A finite in-memory cache managed as a knapsack along the lines of
//! Dantzig's greedy algorithm: entries are classified into groups by the
//! logarithm of their size; within a group they are kept in increasing
//! benefit order. A new entry replaces a set of same-group entries only if
//! that set has lower average benefit and frees enough space.
//!
//! The order is kept incrementally. Under lazy aging every entry's benefit
//! decays by the same factor α per query tick, so the order between two
//! entries does not depend on the tick: each entry is ranked by the
//! tick-invariant `ln(benefit at tick t) − t·ln α`, and each group is an
//! ordered set keyed by (rank, id). An entry is "moved to a different
//! position in the group whenever its benefit changes" (§III-E) literally:
//! [`RecyclerCache::rerank`] is one O(log n) remove and insert, and the
//! recycler calls it only for entries whose Eq. 1 inputs changed. An
//! entry's benefit at the current tick is computed only where one is read
//! — a victim scan or [`RecyclerCache::benefit`].
//!
//! The cache no longer holds only materialized result sets: a cache entry
//! is a [`CacheArtifact`] — a result or a hash-join build side — each
//! charged by its own byte footprint and ranked by its own benefit. The
//! evictor is artifact-blind: a cached hash table competes against a
//! cached result (even for the same graph node) purely on
//! benefit-per-byte, which is exactly the knapsack's currency.
//!
//! Benefit ordering is NaN-safe with a *NaN-lowest* policy: a benefit that
//! arrives as NaN (e.g. a zero-cost/zero-heat division) is normalized to
//! `0.0` at the boundary, so it sorts at the bottom of its group, is the
//! first eviction victim, and can never poison the order or an
//! average-benefit sum.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use rdb_exec::{ArtifactKind, BuildSide, MaterializedResult};

use crate::graph::NodeId;

/// Identity of one cache entry: the graph node that produced it, which
/// kind of artifact it is, and a `variant` discriminator for kinds where
/// one subplan can yield several distinct artifacts (a build side is
/// keyed by a hash of its build keys too — two joins sharing a build
/// input but joining on different columns must not collide). `variant`
/// is 0 for results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactId {
    /// Graph node of the producing subplan.
    pub node: NodeId,
    /// Artifact kind.
    pub kind: ArtifactKind,
    /// Kind-specific discriminator (hash of the build keys for
    /// [`ArtifactKind::HashBuild`], 0 otherwise).
    pub variant: u64,
}

impl ArtifactId {
    /// The result artifact of `node`.
    pub fn result(node: NodeId) -> ArtifactId {
        ArtifactId {
            node,
            kind: ArtifactKind::Result,
            variant: 0,
        }
    }
}

/// The payload of one cache entry.
#[derive(Debug, Clone)]
pub enum CacheArtifact {
    /// A materialized result set.
    Result(Arc<MaterializedResult>),
    /// A hash-join build side (batch + key index).
    HashBuild(Arc<BuildSide>),
}

impl CacheArtifact {
    /// Which artifact kind this is.
    pub fn kind(&self) -> ArtifactKind {
        match self {
            CacheArtifact::Result(_) => ArtifactKind::Result,
            CacheArtifact::HashBuild(_) => ArtifactKind::HashBuild,
        }
    }

    /// Memory footprint charged against the cache budget.
    pub fn size_bytes(&self) -> usize {
        match self {
            CacheArtifact::Result(r) => r.size_bytes(),
            CacheArtifact::HashBuild(b) => b.size_bytes(),
        }
    }

    /// The materialized result, if this artifact is one.
    pub fn as_result(&self) -> Option<&Arc<MaterializedResult>> {
        match self {
            CacheArtifact::Result(r) => Some(r),
            _ => None,
        }
    }

    /// The hash-join build side, if this artifact is one.
    pub fn as_build(&self) -> Option<&Arc<BuildSide>> {
        match self {
            CacheArtifact::HashBuild(b) => Some(b),
            CacheArtifact::Result(_) => None,
        }
    }
}

/// One cached artifact.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The cached payload.
    pub artifact: CacheArtifact,
    /// Size charged against the cache budget.
    pub size: u64,
    /// Measured construction cost under the active cost model. Results
    /// re-derive their benefit from the graph; operator-state artifacts
    /// re-derive it from this cost (`cost · h / size`).
    pub cost: f64,
    /// `(table, epoch)` of every base table the artifact was computed
    /// from: the versions under which this entry is valid. A query whose
    /// snapshot pins any of these tables at a different epoch must not
    /// reuse the entry.
    pub epochs: Vec<(String, u64)>,
    /// Benefit (B(R) of Eq. 1) at tick `valued_at`, NaN-normalized; read
    /// it at the current tick through [`RecyclerCache::benefit`].
    benefit: f64,
    valued_at: u64,
    /// `benefit` as a tick-invariant rank: the entry's key in benefit
    /// order.
    rank: Rank,
}

/// Log-domain, tick-invariant benefit: `ln(benefit at tick t) − t·ln α`
/// (`−∞` for a zero benefit). Totally ordered.
#[derive(Debug, Clone, Copy)]
struct Rank(f64);

impl PartialEq for Rank {
    fn eq(&self, other: &Rank) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Rank) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Rank) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An entry's key in benefit order: ties between equal ranks break by id.
type Ranked = (Rank, ArtifactId);

/// An entry taken out of the cache, payload included: methods that
/// remove or replace an entry hand its payload back, so the recycler can
/// drop it after releasing its lock.
pub type Removed = (ArtifactId, CacheEntry);

impl CacheEntry {
    /// The materialized result (panics on operator-state artifacts; used
    /// by result-only paths that looked the entry up via a result id).
    pub fn result(&self) -> &Arc<MaterializedResult> {
        self.artifact
            .as_result()
            .expect("cache entry is not a result artifact")
    }
}

/// The finite artifact cache.
#[derive(Debug)]
pub struct RecyclerCache {
    capacity: u64,
    used: u64,
    entries: HashMap<ArtifactId, CacheEntry>,
    /// Node → its cached artifacts, any kind.
    by_node: HashMap<NodeId, Vec<ArtifactId>>,
    /// log2(size) → the group's entries in increasing benefit order.
    groups: BTreeMap<u32, BTreeSet<Ranked>>,
    /// Every entry in increasing benefit order, across groups.
    order: BTreeSet<Ranked>,
    /// Aging factor: an entry valued at tick `t` is worth
    /// `benefit · alpha^(tick − t)` now.
    alpha: f64,
    /// The current query tick (the graph's aging clock).
    tick: u64,
    /// Counters for reporting.
    pub admissions: u64,
    /// Evictions performed by the replacement policy.
    pub evictions: u64,
    /// Artifacts rejected by the admission/replacement policy.
    pub rejections: u64,
}

fn group_of(size: u64) -> u32 {
    64 - size.max(1).leading_zeros()
}

/// The NaN-lowest policy: a NaN benefit normalizes to `0.0` — the floor —
/// before it is stored or compared, so ordering stays total and benefit
/// sums stay finite. Eq. 1 is never negative; a negative input is floored
/// too, so every rank is a logarithm of a non-negative number.
fn sane_benefit(b: f64) -> f64 {
    if b > 0.0 {
        b
    } else {
        0.0
    }
}

impl RecyclerCache {
    /// Cache with the given byte capacity whose benefits do not age.
    pub fn new(capacity: u64) -> Self {
        RecyclerCache::with_aging(capacity, 1.0)
    }

    /// Cache with the given byte capacity whose benefits age by `alpha`
    /// per tick, as the graph's `hR` does (Eq. 5).
    pub fn with_aging(capacity: u64, alpha: f64) -> Self {
        RecyclerCache {
            capacity,
            used: 0,
            entries: HashMap::new(),
            by_node: HashMap::new(),
            groups: BTreeMap::new(),
            order: BTreeSet::new(),
            alpha,
            tick: 0,
            admissions: 0,
            evictions: 0,
            rejections: 0,
        }
    }

    /// Move the aging clock to `tick`; benefits passed in afterwards are
    /// taken as valued at `tick`.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// The benefit of `id` at the current tick.
    pub fn benefit(&self, id: ArtifactId) -> Option<f64> {
        self.entries.get(&id).map(|e| self.benefit_now(e))
    }

    fn benefit_now(&self, e: &CacheEntry) -> f64 {
        let dt = self.tick.saturating_sub(e.valued_at);
        e.benefit * self.alpha.powi(dt as i32)
    }

    /// The rank of a (sane) benefit valued at the current tick.
    fn rank_of(&self, benefit: f64) -> Rank {
        Rank(benefit.ln() - self.tick as f64 * self.alpha.ln())
    }

    fn link(&mut self, key: Ranked, size: u64) {
        self.groups.entry(group_of(size)).or_default().insert(key);
        self.order.insert(key);
    }

    fn unlink(&mut self, key: Ranked, size: u64) {
        let group = group_of(size);
        if let Some(set) = self.groups.get_mut(&group) {
            set.remove(&key);
            if set.is_empty() {
                self.groups.remove(&group);
            }
        }
        self.order.remove(&key);
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently used.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the cached *result* of a node.
    pub fn get(&self, id: NodeId) -> Option<&CacheEntry> {
        self.entries.get(&ArtifactId::result(id))
    }

    /// Look up any cached artifact.
    pub fn get_artifact(&self, id: ArtifactId) -> Option<&CacheEntry> {
        self.entries.get(&id)
    }

    /// Whether `id`'s result is cached.
    pub fn contains(&self, id: NodeId) -> bool {
        self.entries.contains_key(&ArtifactId::result(id))
    }

    /// The cached artifacts of `node`, any kind.
    pub fn artifacts_of(&self, node: NodeId) -> Vec<ArtifactId> {
        self.by_node.get(&node).cloned().unwrap_or_default()
    }

    /// Would the admission/replacement policy accept an artifact of this
    /// size and benefit right now? (Non-mutating preview used by the
    /// rewriter to decide store injection.)
    pub fn would_admit(&self, size: u64, benefit: f64) -> bool {
        let benefit = sane_benefit(benefit);
        if size > self.capacity {
            return false;
        }
        if self.used + size <= self.capacity {
            return true;
        }
        self.find_victims(size, benefit).is_some()
    }

    /// Victim search (paper §III-E): scan candidates in increasing benefit
    /// order, tracking accumulated size and average benefit; succeed when
    /// enough space frees up while the set's average benefit stays below the
    /// candidate's. The same-size group is scanned first (Dantzig locality);
    /// if it cannot free enough space the scan widens to all entries, so a
    /// high-benefit newcomer is never starved just because the incumbents
    /// happen to sit in other size groups. Either scan stops at the first
    /// entry whose benefit matches or beats the candidate's, so a
    /// low-benefit candidate against a full cache costs O(1).
    fn find_victims(&self, size: u64, benefit: f64) -> Option<Vec<ArtifactId>> {
        if let Some(group) = self.groups.get(&group_of(size)) {
            if let Some(victims) = self.scan_victims(group, size, benefit) {
                return Some(victims);
            }
        }
        self.scan_victims(&self.order, size, benefit)
    }

    fn scan_victims(
        &self,
        candidates: &BTreeSet<Ranked>,
        size: u64,
        benefit: f64,
    ) -> Option<Vec<ArtifactId>> {
        let mut victims = Vec::new();
        let mut freed = 0u64;
        let mut benefit_sum = 0.0;
        for &(_, id) in candidates {
            let e = &self.entries[&id];
            let b = self.benefit_now(e);
            // (a) average benefit must stay below the new entry's.
            let avg = (benefit_sum + b) / (victims.len() + 1) as f64;
            if avg >= benefit {
                return None;
            }
            victims.push(id);
            freed += e.size;
            benefit_sum += b;
            // (b) enough space including globally free bytes.
            if self.used - freed + size <= self.capacity {
                return Some(victims);
            }
        }
        None
    }

    /// Try to insert a node's *result*, valid at the given base-table
    /// `epochs`. Returns `Ok(evicted)` on success (possibly empty), or
    /// hands the result back as `Err` if the policy rejected it. An `id`
    /// already cached is left alone: `Ok` with nothing evicted, and the
    /// newcomer dropped (callers that may race check first). The
    /// caller is responsible for graph-side bookkeeping (Eq. 3/4) on the
    /// returned evictions.
    pub fn insert(
        &mut self,
        id: NodeId,
        result: Arc<MaterializedResult>,
        benefit: f64,
        epochs: Vec<(String, u64)>,
    ) -> Result<Vec<Removed>, CacheArtifact> {
        self.insert_artifact(
            ArtifactId::result(id),
            CacheArtifact::Result(result),
            benefit,
            0.0,
            epochs,
        )
    }

    /// Try to insert any artifact. Same contract as
    /// [`RecyclerCache::insert`]; `cost` is the artifact's measured
    /// construction cost (used to re-derive operator-state benefits).
    pub fn insert_artifact(
        &mut self,
        id: ArtifactId,
        artifact: CacheArtifact,
        benefit: f64,
        cost: f64,
        epochs: Vec<(String, u64)>,
    ) -> Result<Vec<Removed>, CacheArtifact> {
        debug_assert_eq!(artifact.kind(), id.kind);
        let benefit = sane_benefit(benefit);
        let size = (artifact.size_bytes() as u64).max(1);
        if self.entries.contains_key(&id) {
            return Ok(Vec::new()); // already cached (concurrent publish)
        }
        let Some(evicted) = self.make_room(size, benefit) else {
            self.rejections += 1;
            return Err(artifact);
        };
        let rank = self.rank_of(benefit);
        self.place(
            id,
            CacheEntry {
                artifact,
                size,
                cost,
                epochs,
                benefit,
                valued_at: self.tick,
                rank,
            },
        );
        self.admissions += 1;
        Ok(evicted)
    }

    /// Evict victims until `size` more bytes fit, if the policy lets a
    /// newcomer of `benefit` displace them; `None` leaves the cache as it
    /// was.
    fn make_room(&mut self, size: u64, benefit: f64) -> Option<Vec<Removed>> {
        if size > self.capacity {
            return None;
        }
        if self.used + size <= self.capacity {
            return Some(Vec::new());
        }
        let victims = self.find_victims(size, benefit)?;
        self.evictions += victims.len() as u64;
        Some(
            victims
                .into_iter()
                .filter_map(|v| self.remove_artifact(v).map(|e| (v, e)))
                .collect(),
        )
    }

    /// Store `entry` under `id` and index it (budget, node, benefit order).
    fn place(&mut self, id: ArtifactId, entry: CacheEntry) {
        self.used += entry.size;
        self.link((entry.rank, id), entry.size);
        self.by_node.entry(id.node).or_default().push(id);
        self.entries.insert(id, entry);
    }

    /// Replace a cached artifact's payload in place (incremental repair):
    /// the entry keeps its identity and construction cost but adopts the
    /// repaired payload's size, a recomputed benefit, and the post-commit
    /// epoch vector. Deliberately *not* counted as an admission — repair
    /// updates an entry the policy already accepted.
    ///
    /// Returns `Ok((replaced, evicted))`: the payload the entry held and
    /// the victims displaced when the repaired payload grew past free
    /// space. Returns `Err(payloads)` when the cache cannot hold the
    /// repaired payload — **the entry is removed** in that case, since its
    /// pre-repair bytes are stale either way; the caller records the
    /// eviction — or when `id` is not cached. Either way no payload is
    /// freed here.
    pub fn patch_artifact(
        &mut self,
        id: ArtifactId,
        artifact: CacheArtifact,
        benefit: f64,
        epochs: Vec<(String, u64)>,
    ) -> Result<(CacheArtifact, Vec<Removed>), Vec<CacheArtifact>> {
        debug_assert_eq!(artifact.kind(), id.kind);
        let benefit = sane_benefit(benefit);
        let new_size = (artifact.size_bytes() as u64).max(1);
        let Some(mut entry) = self.remove_artifact(id) else {
            return Err(vec![artifact]);
        };
        let Some(evicted) = self.make_room(new_size, benefit) else {
            return Err(vec![entry.artifact, artifact]);
        };
        let replaced = std::mem::replace(&mut entry.artifact, artifact);
        entry.size = new_size;
        entry.benefit = benefit;
        entry.valued_at = self.tick;
        entry.rank = self.rank_of(benefit);
        entry.epochs = epochs;
        self.place(id, entry);
        Ok((replaced, evicted))
    }

    /// Re-value `id` at the current tick and move it to its new position
    /// in benefit order (paper §III-E: "whenever the benefit of a result
    /// changes ... the result is moved to a different position in the
    /// group"). O(log n).
    pub fn rerank(&mut self, id: ArtifactId, benefit: f64) {
        let benefit = sane_benefit(benefit);
        let (rank, tick) = (self.rank_of(benefit), self.tick);
        let Some(e) = self.entries.get_mut(&id) else {
            return;
        };
        let (old, size) = (e.rank, e.size);
        e.benefit = benefit;
        e.valued_at = tick;
        e.rank = rank;
        if old != rank {
            self.unlink((old, id), size);
            self.link((rank, id), size);
        }
    }

    /// Remove a node's result entry (eviction or invalidation).
    pub fn remove(&mut self, id: NodeId) -> Option<CacheEntry> {
        self.remove_artifact(ArtifactId::result(id))
    }

    /// Remove one artifact.
    pub fn remove_artifact(&mut self, id: ArtifactId) -> Option<CacheEntry> {
        let e = self.entries.remove(&id)?;
        self.used -= e.size;
        self.unlink((e.rank, id), e.size);
        if let Some(ids) = self.by_node.get_mut(&id.node) {
            ids.retain(|&a| a != id);
            if ids.is_empty() {
                self.by_node.remove(&id.node);
            }
        }
        Some(e)
    }

    /// Remove every artifact of `node` (invalidation covers all kinds).
    pub fn remove_node(&mut self, node: NodeId) -> Vec<(ArtifactId, CacheEntry)> {
        self.artifacts_of(node)
            .into_iter()
            .filter_map(|a| self.remove_artifact(a).map(|e| (a, e)))
            .collect()
    }

    /// Empty the cache (the Fig. 6 "refresh" scenario). Returns the
    /// removed entries for graph-side bookkeeping.
    pub fn flush(&mut self) -> Vec<Removed> {
        let ids: Vec<ArtifactId> = self.entries.keys().copied().collect();
        ids.into_iter()
            .filter_map(|id| self.remove_artifact(id).map(|e| (id, e)))
            .collect()
    }

    /// Every cached artifact, highest benefit first (ties: highest id).
    pub fn highest_benefit_first(&self) -> impl Iterator<Item = ArtifactId> + '_ {
        self.order.iter().rev().map(|&(_, id)| id)
    }

    /// Each size group's artifacts in the group's benefit order, smallest
    /// sizes first.
    #[cfg(test)]
    pub(crate) fn group_orders(&self) -> Vec<Vec<ArtifactId>> {
        self.groups
            .values()
            .map(|set| set.iter().map(|&(_, id)| id).collect())
            .collect()
    }

    /// All cached artifact ids (unordered).
    pub fn artifact_ids(&self) -> Vec<ArtifactId> {
        self.entries.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_vector::{Batch, Column, DataType, Schema};

    fn result(ints: usize) -> Arc<MaterializedResult> {
        let col = Column::from_ints(vec![7; ints]);
        Arc::new(MaterializedResult::from_batches(
            Schema::from_pairs([("x", DataType::Int)]),
            &[Batch::new(vec![col])],
        ))
    }

    /// Insert a result; the evicted ids, or `None` when rejected.
    fn put(
        c: &mut RecyclerCache,
        node: u32,
        r: Arc<MaterializedResult>,
        benefit: f64,
    ) -> Option<Vec<ArtifactId>> {
        c.insert(NodeId(node), r, benefit, vec![])
            .ok()
            .map(|evicted| evicted.into_iter().map(|(id, _)| id).collect())
    }

    #[test]
    fn group_classification() {
        assert_eq!(group_of(1), 1);
        assert_eq!(group_of(2), 2);
        assert_eq!(group_of(1024), 11);
        assert_eq!(group_of(1500), 11);
        assert_eq!(group_of(2048), 12);
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = RecyclerCache::new(10_000);
        let r = result(10); // 80 bytes
        assert_eq!(put(&mut c, 1, r.clone(), 5.0), Some(vec![]));
        assert!(c.contains(NodeId(1)));
        assert_eq!(c.used(), 80);
        assert_eq!(c.len(), 1);
        assert_eq!(c.benefit(ArtifactId::result(NodeId(1))), Some(5.0));
    }

    #[test]
    fn benefits_age_without_reordering() {
        let mut c = RecyclerCache::with_aging(10_000, 0.5);
        put(&mut c, 1, result(10), 8.0);
        c.set_tick(2);
        // Valued two ticks later: 3.0 now beats the aged 8.0 (= 2.0).
        put(&mut c, 2, result(10), 3.0);
        let id = |n| ArtifactId::result(NodeId(n));
        assert_eq!(c.benefit(id(1)), Some(2.0));
        assert_eq!(c.group_orders(), vec![vec![id(1), id(2)]]);
        // Time passing moves every benefit, never the order.
        c.set_tick(5);
        assert_eq!(c.benefit(id(1)), Some(0.25));
        assert_eq!(c.benefit(id(2)), Some(0.375));
        assert_eq!(c.group_orders(), vec![vec![id(1), id(2)]]);
        assert_eq!(
            c.highest_benefit_first().collect::<Vec<_>>(),
            vec![id(2), id(1)]
        );
    }

    #[test]
    fn oversized_result_rejected() {
        let mut c = RecyclerCache::new(50);
        assert_eq!(put(&mut c, 1, result(100), 100.0), None);
        assert_eq!(c.rejections, 1);
    }

    #[test]
    fn replacement_evicts_lower_benefit_same_group() {
        // Capacity fits exactly two 80-byte results.
        let mut c = RecyclerCache::new(160);
        put(&mut c, 1, result(10), 1.0);
        put(&mut c, 2, result(10), 2.0);
        assert_eq!(c.used(), 160);
        // Higher-benefit newcomer evicts the lowest-benefit same-group
        // entry.
        let evicted = put(&mut c, 3, result(10), 3.0).unwrap();
        assert_eq!(evicted, vec![ArtifactId::result(NodeId(1))]);
        assert!(c.contains(NodeId(2)));
        assert!(c.contains(NodeId(3)));
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn replacement_refuses_when_average_benefit_higher() {
        let mut c = RecyclerCache::new(160);
        put(&mut c, 1, result(10), 5.0);
        put(&mut c, 2, result(10), 6.0);
        assert_eq!(put(&mut c, 3, result(10), 4.0), None);
        assert!(c.contains(NodeId(1)));
        assert!(c.contains(NodeId(2)));
        assert_eq!(c.rejections, 1);
    }

    #[test]
    fn replacement_can_evict_multiple() {
        // Two 40-byte entries must both go to fit one 80-byte result...
        // but different sizes land in different groups, so build same-group
        // sizes: 10 ints = 80 bytes → group 7; 5 ints = 40 bytes → group 6.
        // Use three 80-byte entries and capacity 240.
        let mut c = RecyclerCache::new(240);
        put(&mut c, 1, result(10), 1.0);
        put(&mut c, 2, result(10), 2.0);
        put(&mut c, 3, result(10), 9.0);
        // Need 80 free; nothing free → evict 1 (benefit 1): enough.
        let evicted = put(&mut c, 4, result(10), 5.0).unwrap();
        assert_eq!(evicted, vec![ArtifactId::result(NodeId(1))]);
        // Now insert something that needs two evictions: fill up again.
        let evicted = put(&mut c, 5, result(10), 10.0).unwrap();
        assert_eq!(evicted, vec![ArtifactId::result(NodeId(2))]);
    }

    #[test]
    fn would_admit_previews_without_mutation() {
        let mut c = RecyclerCache::new(160);
        put(&mut c, 1, result(10), 5.0);
        put(&mut c, 2, result(10), 6.0);
        assert!(!c.would_admit(80, 4.0));
        assert!(c.would_admit(80, 7.0));
        assert_eq!(c.len(), 2, "preview must not mutate");
    }

    #[test]
    fn flush_empties_and_reports() {
        let mut c = RecyclerCache::new(1000);
        put(&mut c, 1, result(5), 1.0);
        put(&mut c, 2, result(5), 2.0);
        let mut flushed: Vec<ArtifactId> = c.flush().into_iter().map(|(id, _)| id).collect();
        flushed.sort();
        assert_eq!(
            flushed,
            vec![ArtifactId::result(NodeId(1)), ArtifactId::result(NodeId(2))]
        );
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn rebenefit_reorders_groups() {
        let mut c = RecyclerCache::new(1000);
        put(&mut c, 1, result(10), 1.0);
        put(&mut c, 2, result(10), 2.0);
        // Invert benefits; victim search should now pick NodeId(2) first.
        c.rerank(ArtifactId::result(NodeId(1)), 9.0);
        c.rerank(ArtifactId::result(NodeId(2)), 0.5);
        let mut c2 = c;
        c2.capacity = 160;
        c2.used = 160;
        let evicted = put(&mut c2, 3, result(10), 5.0).unwrap();
        assert_eq!(evicted, vec![ArtifactId::result(NodeId(2))]);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut c = RecyclerCache::new(1000);
        put(&mut c, 1, result(5), 1.0);
        assert_eq!(put(&mut c, 1, result(5), 1.0), Some(vec![]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn nan_benefit_sorts_lowest_and_evicts_first() {
        // A zero-cost/zero-heat entry arrives with a NaN benefit: it must
        // not panic the group sort, and it must be the first victim.
        let mut c = RecyclerCache::new(160);
        assert!(put(&mut c, 1, result(10), f64::NAN).is_some());
        assert_eq!(
            c.benefit(ArtifactId::result(NodeId(1))),
            Some(0.0),
            "NaN-lowest"
        );
        put(&mut c, 2, result(10), 2.0);
        // Re-rank with a NaN benefit: still total ordering.
        c.rerank(ArtifactId::result(NodeId(1)), f64::NAN);
        c.rerank(ArtifactId::result(NodeId(2)), 2.0);
        let evicted = put(&mut c, 3, result(10), 1.0).unwrap();
        assert_eq!(evicted, vec![ArtifactId::result(NodeId(1))]);
        // A NaN candidate is floored to 0 benefit: it cannot displace a
        // positive-benefit incumbent.
        assert!(!c.would_admit(80, f64::NAN));
    }

    /// A hash-join build side over `rows` int keys: what a join executed
    /// over a two-table catalog offers its result store for a build
    /// target.
    fn build_side(rows: i64) -> Arc<BuildSide> {
        use rdb_exec::{
            build, ExecContext, ResultStore, SpeculationEstimate, StateCost, StoreVerdict,
        };
        use rdb_expr::Expr;
        use rdb_plan::{scan, StoreMode};
        use rdb_storage::{Catalog, TableBuilder};
        use rdb_vector::Value;
        use std::sync::Mutex;

        #[derive(Default)]
        struct Capture(Mutex<Option<Arc<BuildSide>>>);
        impl ResultStore for Capture {
            fn fetch(&self, _: u64) -> Option<Arc<MaterializedResult>> {
                None
            }
            fn publish(&self, _: u64, _: MaterializedResult) {}
            fn abandon(&self, _: u64) {}
            fn speculate(&self, _: u64, _: &SpeculationEstimate) -> StoreVerdict {
                StoreVerdict::Cancel
            }
            fn publish_build(&self, _: u64, build: Arc<BuildSide>, _: StateCost) {
                *self.0.lock().unwrap() = Some(build);
            }
        }

        let mut cat = Catalog::new();
        for (table, col) in [("p", "a"), ("b", "k")] {
            let schema = Schema::from_pairs([(col, DataType::Int)]);
            let mut t = TableBuilder::new(table, schema, rows as usize);
            for k in 0..rows {
                t.push_row(vec![Value::Int(k)]);
            }
            cat.register(t.finish()).expect("register");
        }
        let cat = Arc::new(cat);
        let plan = scan("p", &["a"])
            .inner_join(
                scan("b", &["k"]).store(1, StoreMode::Build),
                vec![Expr::name("a")],
                vec![Expr::name("k")],
            )
            .bind(&cat)
            .expect("join binds");
        let store = Arc::new(Capture::default());
        let ctx = ExecContext::new(cat.clone()).with_store(store.clone());
        build(&plan, &ctx)
            .expect("join builds")
            .drain()
            .expect("join runs");
        let built = store.0.lock().unwrap().take();
        built.expect("the join published its build side")
    }

    #[test]
    fn artifacts_share_budget_across_kinds() {
        // A result and a hash-build artifact for the *same node* coexist,
        // and the evictor trades one against the other on benefit alone.
        let build = build_side(100);
        let build_bytes = build.size_bytes() as u64;
        // A result of (nearly) the build's size sits in its size group.
        let ints = build.size_bytes() / 8;
        let result_bytes = result(ints).size_bytes() as u64;
        assert_eq!(group_of(result_bytes), group_of(build_bytes));
        let mut c = RecyclerCache::new(result_bytes + build_bytes);
        put(&mut c, 1, result(ints), 1.0);
        let aid = ArtifactId {
            node: NodeId(1),
            kind: ArtifactKind::HashBuild,
            variant: 7,
        };
        assert!(c
            .insert_artifact(aid, CacheArtifact::HashBuild(build), 5.0, 100.0, vec![])
            .is_ok());
        assert_eq!(c.len(), 2);
        assert_eq!(c.used(), result_bytes + build_bytes);
        assert_eq!(c.artifacts_of(NodeId(1)).len(), 2);
        // A newcomer beats the result but not the build side.
        let evicted = put(&mut c, 2, result(ints), 3.0).unwrap();
        assert_eq!(evicted, vec![ArtifactId::result(NodeId(1))]);
        assert!(c.get_artifact(aid).is_some(), "build side survived");
        // remove_node sweeps every kind.
        assert_eq!(c.remove_node(NodeId(2)).len(), 1);
        put(&mut c, 1, result(ints), 1.0);
        let mut removed: Vec<ArtifactId> = c
            .remove_node(NodeId(1))
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        removed.sort();
        assert_eq!(removed, vec![ArtifactId::result(NodeId(1)), aid]);
        assert!(c.is_empty());
    }

    #[test]
    fn removals_and_patches_hand_payloads_back() {
        // The cache frees no payload itself: what it replaces, evicts or
        // refuses comes back to the caller (the recycler frees it after
        // releasing its lock).
        let mut c = RecyclerCache::new(160);
        let old = result(10);
        put(&mut c, 1, old.clone(), 1.0);
        put(&mut c, 2, result(10), 5.0);
        let id = ArtifactId::result(NodeId(1));
        // A patch that fits swaps the payload and returns the old one.
        let new = result(10);
        let (replaced, evicted) = c
            .patch_artifact(id, CacheArtifact::Result(new.clone()), 1.0, vec![])
            .unwrap();
        assert!(Arc::ptr_eq(replaced.as_result().unwrap(), &old));
        assert!(evicted.is_empty());
        assert!(Arc::ptr_eq(c.get(NodeId(1)).unwrap().result(), &new));
        // A patch the cache cannot hold removes the entry and returns both
        // payloads.
        let huge = CacheArtifact::Result(result(100));
        let Err(back) = c.patch_artifact(id, huge, 1.0, vec![]) else {
            panic!("an 800-byte payload does not fit 160 bytes");
        };
        assert_eq!(back.len(), 2);
        assert!(Arc::ptr_eq(back[0].as_result().unwrap(), &new));
        assert!(!c.contains(NodeId(1)));
        // A refused insert hands the newcomer back; an admission returns
        // its victims' payloads.
        let Err(refused) = c.insert(NodeId(3), result(100), 9.0, vec![]) else {
            panic!("oversized");
        };
        assert_eq!(refused.size_bytes(), 800);
        put(&mut c, 4, result(10), 6.0);
        let evicted = c.insert(NodeId(5), result(10), 7.0, vec![]).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, ArtifactId::result(NodeId(2)));
        assert_eq!(evicted[0].1.artifact.size_bytes(), 80);
    }
}
