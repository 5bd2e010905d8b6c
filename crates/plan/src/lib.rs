//! Logical query plans ("query trees").
//!
//! The recycler operates on *optimized query trees* (paper §II): each query
//! is a single tree of relational operators with concrete parameters. This
//! crate defines that tree ([`Plan`]), the bind pass that canonicalizes
//! named column references into positional ones, and the structural
//! fingerprints the recycler graph uses for fast matching:
//!
//! * [`local_hash`] — the paper's *hash-key*: a hash of the operator
//!   type and its parameters (excluding user-assigned output names, which
//!   are handled by name mappings, §III-B);
//! * [`signature`] — the paper's *signature*: a 64-bit column bitmask
//!   used to quickly eliminate candidates that do not provide the needed
//!   columns. We derive it from the set of base-table columns the subtree
//!   reads, which is invariant under output renaming.
//!
//! Plans also carry two recycler-inserted operator kinds that never enter
//! the recycler graph: [`Plan::Cached`] (read a materialized result) and
//! [`Plan::Store`] (tee the flow into the cache), mirroring the paper's
//! `store` operator and cached-result substitution.

pub mod builder;
pub mod fingerprint;
pub mod node;
pub mod normalize;

pub use builder::{fn_scan, fn_scan_exprs, scan, union_all};
pub use fingerprint::{
    fx_hash, kind_tag, local_eq, local_hash, signature, structural_eq, structural_hash,
    structural_hash_at, FxHasher,
};
pub use node::{JoinKind, Plan, PlanError, PlanErrorKind, SortKeyExpr, StoreMode};
pub use normalize::normalize;
