//! Vectorized expression AST and evaluation for recycler-db.
//!
//! Expressions are the parameters of plan operators (selection predicates,
//! projection lists, aggregate arguments, join keys). They matter to the
//! recycler in two ways:
//!
//! 1. **Exact matching** (paper §III-A): two plan nodes match only if their
//!    parameters are equal, so [`Expr`] implements structural `Eq`/`Hash`.
//! 2. **Subsumption** (paper §IV-A): a cached selection can answer a new,
//!    stricter selection. [`ranges`] extracts conjunctive per-column range
//!    constraints from predicates and decides implication.
//!
//! Evaluation ([`eval`](mod@eval)) is column-at-a-time over [`rdb_vector::Batch`]es
//! with SQL NULL semantics (three-valued logic collapses to "NULL is not
//! true" at filter boundaries).

pub mod agg;
pub mod error;
pub mod eval;
pub mod expr;
pub mod like;
pub mod normalize;
pub mod params;
pub mod ranges;
pub mod sel;
mod strs;

pub use agg::AggFunc;
pub use error::ExprError;
pub use eval::eval;
pub use expr::{ArithOp, CmpOp, Expr};
pub use normalize::normalize_expr;
pub use params::Params;
pub use ranges::{analyze_conjunction, implies, Interval, Ranges};
pub use sel::CompiledPredicate;
