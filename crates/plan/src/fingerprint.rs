//! Structural fingerprints for recycler-graph matching.
//!
//! The paper's matcher (§III-A) attaches two quantities to every node:
//!
//! * a **hash-key** derived from characteristics that must exactly match
//!   (operator type and parameters) — [`local_hash`] here, with the twist
//!   that user-assigned output names are *excluded*: the paper handles
//!   renaming via name mappings, so `π_{x+1 as a}` and `π_{x+1 as b}` must
//!   land in the same hash bucket and compare equal structurally;
//! * a **signature**: an integer mask in which each column switches on one
//!   bit, used to quickly eliminate candidates that do not provide all
//!   needed columns — [`signature`] here, computed over the *base-table
//!   columns the subtree reads* so that it is invariant under renaming.
//!
//! Equality ([`local_eq`] / [`structural_eq`]) compares parameters exactly;
//! hash collisions therefore never cause false matches, only wasted probes.

use std::hash::{Hash, Hasher};

use crate::node::Plan;

/// A minimal Fx-style hasher (multiply-xor): low quality but very fast,
/// which is what the matching hot path wants; collisions only cost an extra
/// exact comparison.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Hash any `Hash` value with [`FxHasher`].
pub fn fx_hash<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Operator-kind discriminant (part of the hash-key): the discriminant of
/// the node's identity (`Plan::identity`).
pub fn kind_tag(plan: &Plan) -> u8 {
    plan.identity().kind_tag()
}

/// The node's hash-key: the hash of its identity (`Plan::identity`) —
/// operator type plus local parameters, excluding user-assigned output
/// names and children.
pub fn local_hash(plan: &Plan) -> u64 {
    fx_hash(&plan.identity())
}

/// Exact comparison of two nodes' identities: operator type and local
/// parameters, excluding user-assigned output names and children.
pub fn local_eq(a: &Plan, b: &Plan) -> bool {
    a.identity() == b.identity()
}

/// Structural equality of whole subtrees (local params + recursive
/// children), ignoring user-assigned output names throughout.
pub fn structural_eq(a: &Plan, b: &Plan) -> bool {
    if !local_eq(a, b) {
        return false;
    }
    let ca = a.children();
    let cb = b.children();
    ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| structural_eq(x, y))
}

/// Hash of the whole subtree consistent with [`structural_eq`].
pub fn structural_hash(plan: &Plan) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(local_hash(plan));
    for c in plan.children() {
        h.write_u64(structural_hash(c));
    }
    h.finish()
}

/// Version-aware fingerprint: [`structural_hash`] with each base-table
/// scan additionally mixing in that table's epoch (as supplied by
/// `epoch_of`, typically a catalog or snapshot lookup). Two structurally
/// identical plans fingerprint differently iff any table they scan has
/// been updated in between — the identity under which a cached result is
/// valid for reuse (PAPER.md §V: cached intermediates must be invalidated
/// when their base tables change).
pub fn structural_hash_at(plan: &Plan, epoch_of: &dyn Fn(&str) -> u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(local_hash(plan));
    if let Plan::Scan { table, .. } = plan {
        h.write_u64(epoch_of(table));
    }
    for c in plan.children() {
        h.write_u64(structural_hash_at(c, epoch_of));
    }
    h.finish()
}

/// The column-bitmask signature: one bit per base-table column read by the
/// subtree (`hash(table.column) % 64`), unioned bottom-up. A candidate whose
/// signature is missing a bit cannot provide all needed columns.
pub fn signature(plan: &Plan) -> u64 {
    match plan {
        Plan::Scan { table, cols } => {
            let mut sig = 0u64;
            for c in cols {
                sig |= 1u64 << (fx_hash(&(table.as_str(), c.as_str())) % 64);
            }
            sig
        }
        Plan::FnScan { name, args, .. } => 1u64 << (fx_hash(&(name.as_str(), args)) % 64),
        Plan::Cached { tag, .. } => 1u64 << (tag % 64),
        _ => plan
            .children()
            .iter()
            .map(|c| signature(c))
            .fold(0, |acc, s| acc | s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::scan;
    use rdb_expr::{AggFunc, Expr};

    fn base() -> Plan {
        scan("lineitem", &["l_qty", "l_price"]).select(Expr::col(0).gt(Expr::lit(5)))
    }

    #[test]
    fn identical_plans_same_fingerprint() {
        let a = base();
        let b = base();
        assert!(structural_eq(&a, &b));
        assert_eq!(structural_hash(&a), structural_hash(&b));
        assert_eq!(local_hash(&a), local_hash(&b));
        assert_eq!(signature(&a), signature(&b));
    }

    #[test]
    fn parameter_change_breaks_match() {
        let a = base();
        let b = scan("lineitem", &["l_qty", "l_price"]).select(Expr::col(0).gt(Expr::lit(6)));
        assert!(!structural_eq(&a, &b));
        assert_ne!(local_hash(&a), local_hash(&b));
    }

    #[test]
    fn output_names_do_not_matter() {
        let a = base().project(vec![(Expr::col(1).mul(Expr::lit(2.0)), "x")]);
        let b = base().project(vec![(
            Expr::col(1).mul(Expr::lit(2.0)),
            "totally_different",
        )]);
        assert!(structural_eq(&a, &b));
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn aggregate_names_do_not_matter_but_functions_do() {
        let g = |name: &'static str, f: AggFunc| {
            base().aggregate(vec![(Expr::col(0), "k")], vec![(f, name)])
        };
        let a = g("s1", AggFunc::Sum(Expr::col(1)));
        let b = g("s2", AggFunc::Sum(Expr::col(1)));
        let c = g("s1", AggFunc::Avg(Expr::col(1)));
        assert!(structural_eq(&a, &b));
        assert!(!structural_eq(&a, &c));
    }

    #[test]
    fn child_difference_breaks_structural_match_only() {
        let a = base().limit(10);
        let b = scan("lineitem", &["l_qty", "l_price"])
            .select(Expr::col(0).gt(Expr::lit(99)))
            .limit(10);
        // Same local node (limit 10)...
        assert!(local_eq(&a, &b));
        assert_eq!(local_hash(&a), local_hash(&b));
        // ...but different subtrees.
        assert!(!structural_eq(&a, &b));
        assert_ne!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn signature_is_union_of_base_columns() {
        let narrow = scan("lineitem", &["l_qty"]);
        let wide = scan("lineitem", &["l_qty", "l_price"]);
        let sig_n = signature(&narrow);
        let sig_w = signature(&wide);
        assert_eq!(sig_n & sig_w, sig_n, "wide signature covers narrow");
        assert!(sig_w.count_ones() >= sig_n.count_ones());
        // Signature survives renaming projections.
        let renamed = wide.clone().project(vec![(Expr::col(0), "renamed")]);
        assert_eq!(signature(&renamed), sig_w);
    }

    #[test]
    fn different_tables_different_signature() {
        let a = scan("lineitem", &["l_qty"]);
        let b = scan("orders", &["l_qty"]);
        assert_ne!(signature(&a), signature(&b));
    }

    #[test]
    fn kind_tags_distinct_per_variant() {
        let plans = [
            scan("t", &["a"]),
            scan("t", &["a"]).select(Expr::lit(true)),
            scan("t", &["a"]).limit(1),
            scan("t", &["a"]).sort(vec![]),
        ];
        let tags: Vec<u8> = plans.iter().map(kind_tag).collect();
        let mut unique = tags.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), tags.len());
    }

    #[test]
    fn fx_hash_stable() {
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_ne!(fx_hash(&42u64), fx_hash(&43u64));
    }

    #[test]
    fn epoch_aware_fingerprint_tracks_table_versions() {
        let q = base().limit(10);
        let at = |e_li: u64| structural_hash_at(&q, &|t| if t == "lineitem" { e_li } else { 0 });
        // Same epochs → same fingerprint, and stable across calls.
        assert_eq!(at(0), at(0));
        // An epoch bump on a scanned table changes the fingerprint.
        assert_ne!(at(0), at(1));
        // An epoch bump on an *unscanned* table does not.
        let with_orders = |e_o: u64| {
            structural_hash_at(&q, &|t| match t {
                "orders" => e_o,
                _ => 3,
            })
        };
        assert_eq!(with_orders(5), with_orders(9));
    }

    #[test]
    fn base_tables_deduplicated_in_order() {
        let q = scan("lineitem", &["l_qty"])
            .inner_join(
                scan("part", &["p_key"]),
                vec![Expr::col(0)],
                vec![Expr::col(0)],
            )
            .inner_join(
                scan("lineitem", &["l_qty"]),
                vec![Expr::col(0)],
                vec![Expr::col(0)],
            );
        assert_eq!(q.base_tables(), vec!["lineitem", "part"]);
        // Cached reads carry no base-table dependency of their own.
        let cached = Plan::Cached {
            tag: 1,
            schema: rdb_vector::Schema::new(vec![]),
        };
        assert!(cached.base_tables().is_empty());
    }
}
