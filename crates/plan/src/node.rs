//! The plan node enum, its per-operator listings, schema derivation, and
//! the bind pass.
//!
//! Each operator's parts are declared once, in three listings:
//!
//! * **children** — [`Plan::children`] / [`Plan::children_mut`];
//! * **expression slots** — `Plan::try_for_each_slot` /
//!   `Plan::try_for_each_slot_mut`: every expression the node holds,
//!   with the child input it ranges over and whether the output type
//!   depends on it (`Slot`);
//! * **match identity** — `Plan::identity`: the parameters the recycler
//!   matches on exactly, output names excluded (`Identity`).
//!
//! Everything else per operator derives from them: rebuilding with new
//! children, binding, parameter substitution, the normalizer's expression
//! pass, and the hash-key and exact comparison of
//! [`crate::fingerprint`]. Adding an operator means touching the three
//! listings plus the kind tag (the identity's discriminant,
//! [`crate::kind_tag`]), [`Plan::label`], [`Plan::schema`] and the
//! executor — nothing else. The WAL lineage codec stays explicit on
//! purpose: it is a byte-pinned on-disk format.

use std::fmt;

use rdb_expr::{AggFunc, Expr};
use rdb_storage::Catalog;
use rdb_vector::row::SortOrder;
use rdb_vector::{DataType, Field, Schema};

/// Join variants supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner equi-join; output = left columns ++ right columns.
    Inner,
    /// Left outer equi-join; unmatched left rows pad the right side with
    /// NULLs.
    LeftOuter,
    /// Left semi join (SQL `EXISTS`); output = left columns.
    Semi,
    /// Left anti join (SQL `NOT EXISTS`); output = left columns.
    Anti,
    /// Broadcast join against a single-row right side (decorrelated scalar
    /// subquery); key lists must be empty and the right side must produce
    /// exactly one row. Output = left columns ++ right columns.
    Single,
}

impl JoinKind {
    /// Short SQL-ish label.
    pub fn label(self) -> &'static str {
        match self {
            JoinKind::Inner => "inner",
            JoinKind::LeftOuter => "left_outer",
            JoinKind::Semi => "semi",
            JoinKind::Anti => "anti",
            JoinKind::Single => "single",
        }
    }
}

/// One sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortKeyExpr {
    /// Key expression over the input.
    pub expr: Expr,
    /// Direction.
    pub order: SortOrder,
}

impl SortKeyExpr {
    /// Ascending key.
    pub fn asc(expr: Expr) -> Self {
        SortKeyExpr {
            expr,
            order: SortOrder::Asc,
        }
    }

    /// Descending key.
    pub fn desc(expr: Expr) -> Self {
        SortKeyExpr {
            expr,
            order: SortOrder::Desc,
        }
    }
}

/// Behaviour of a recycler-injected [`Plan::Store`] node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreMode {
    /// Materialization already decided (history mode): tee every batch into
    /// the cache while passing it along.
    Materialize,
    /// Speculative (paper §III-D): buffer copies of the flow while run-time
    /// estimates decide; cancel buffering if not deemed beneficial.
    Speculate,
}

/// What went wrong during schema derivation, binding, or execution
/// preparation. Structured so higher layers (notably the SQL frontend)
/// can attach their own context — source spans, statement text — without
/// re-parsing rendered messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanErrorKind {
    /// A base-table reference did not resolve against the catalog.
    UnknownTable {
        /// The unresolved table name.
        table: String,
    },
    /// A column reference did not resolve against its input schema.
    UnknownColumn {
        /// The unresolved column name.
        column: String,
        /// Where it was looked up (a schema rendering or operator label).
        context: String,
    },
    /// A table-function reference did not resolve against the registry.
    UnknownFunction {
        /// The unresolved function name.
        name: String,
    },
    /// An expression or operator was typed inconsistently.
    TypeMismatch {
        /// What the operator required.
        expected: String,
        /// What it got.
        found: String,
        /// Where.
        context: String,
    },
    /// Mismatched list lengths (join keys, union arms, insert rows).
    ArityMismatch {
        /// Description of the mismatch.
        context: String,
    },
    /// A parameter placeholder had no binding (or appeared somewhere it
    /// cannot, e.g. a typed projection position).
    UnboundParameter {
        /// The parameter name.
        name: String,
    },
    /// The engine's admission wait queue is at capacity; the query was
    /// rejected rather than queued (load shedding under overload).
    Saturated {
        /// Queue capacity that was exceeded.
        limit: usize,
    },
    /// The engine is shutting down and no longer admits queries.
    ShuttingDown,
    /// The engine has degraded to read-only mode (its write-ahead log can
    /// no longer persist commits); reads keep serving, writes are
    /// rejected with this error until the operator intervenes.
    ReadOnly,
    /// Anything else (free-form).
    Other {
        /// The message.
        message: String,
    },
}

/// Errors from schema derivation / binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The structured cause.
    pub kind: PlanErrorKind,
}

impl PlanError {
    /// Free-form error.
    pub fn msg(message: impl Into<String>) -> PlanError {
        PlanError {
            kind: PlanErrorKind::Other {
                message: message.into(),
            },
        }
    }

    /// Unknown base table.
    pub fn unknown_table(table: impl Into<String>) -> PlanError {
        PlanError {
            kind: PlanErrorKind::UnknownTable {
                table: table.into(),
            },
        }
    }

    /// Unknown column in `context`.
    pub fn unknown_column(column: impl Into<String>, context: impl Into<String>) -> PlanError {
        PlanError {
            kind: PlanErrorKind::UnknownColumn {
                column: column.into(),
                context: context.into(),
            },
        }
    }

    /// Unknown table function.
    pub fn unknown_function(name: impl Into<String>) -> PlanError {
        PlanError {
            kind: PlanErrorKind::UnknownFunction { name: name.into() },
        }
    }

    /// Type mismatch in `context`.
    pub fn type_mismatch(
        expected: impl Into<String>,
        found: impl Into<String>,
        context: impl Into<String>,
    ) -> PlanError {
        PlanError {
            kind: PlanErrorKind::TypeMismatch {
                expected: expected.into(),
                found: found.into(),
                context: context.into(),
            },
        }
    }

    /// Arity mismatch.
    pub fn arity(context: impl Into<String>) -> PlanError {
        PlanError {
            kind: PlanErrorKind::ArityMismatch {
                context: context.into(),
            },
        }
    }

    /// Unbound (or ill-placed) parameter.
    pub fn unbound_parameter(name: impl Into<String>) -> PlanError {
        PlanError {
            kind: PlanErrorKind::UnboundParameter { name: name.into() },
        }
    }

    /// Admission queue full.
    pub fn saturated(limit: usize) -> PlanError {
        PlanError {
            kind: PlanErrorKind::Saturated { limit },
        }
    }

    /// Engine shutting down.
    pub fn shutting_down() -> PlanError {
        PlanError {
            kind: PlanErrorKind::ShuttingDown,
        }
    }

    /// Engine degraded to read-only (durability failure).
    pub fn read_only() -> PlanError {
        PlanError {
            kind: PlanErrorKind::ReadOnly,
        }
    }

    /// The offending identifier, when the kind names one (table, column,
    /// function, or parameter). Lets callers highlight the exact token.
    pub fn subject(&self) -> Option<&str> {
        match &self.kind {
            PlanErrorKind::UnknownTable { table } => Some(table),
            PlanErrorKind::UnknownColumn { column, .. } => Some(column),
            PlanErrorKind::UnknownFunction { name } => Some(name),
            PlanErrorKind::UnboundParameter { name } => Some(name),
            _ => None,
        }
    }
}

impl From<rdb_expr::ExprError> for PlanError {
    fn from(e: rdb_expr::ExprError) -> PlanError {
        match e {
            rdb_expr::ExprError::UnknownColumn { column, schema } => {
                PlanError::unknown_column(column, format!("schema {schema}"))
            }
            rdb_expr::ExprError::UnboundParameter { name } => PlanError::unbound_parameter(name),
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan error: ")?;
        match &self.kind {
            PlanErrorKind::UnknownTable { table } => write!(f, "unknown table '{table}'"),
            PlanErrorKind::UnknownColumn { column, context } => {
                write!(f, "unknown column '{column}' in {context}")
            }
            PlanErrorKind::UnknownFunction { name } => {
                write!(f, "unknown table function '{name}'")
            }
            PlanErrorKind::TypeMismatch {
                expected,
                found,
                context,
            } => write!(f, "{context}: expected {expected}, got {found}"),
            PlanErrorKind::ArityMismatch { context } => write!(f, "{context}"),
            PlanErrorKind::UnboundParameter { name } => {
                write!(f, "no value bound for parameter '{name}'")
            }
            PlanErrorKind::Saturated { limit } => {
                write!(f, "admission queue full ({limit} queries already waiting)")
            }
            PlanErrorKind::ShuttingDown => write!(f, "engine is shutting down"),
            PlanErrorKind::ReadOnly => write!(
                f,
                "engine is read-only: the write-ahead log failed and writes \
                 can no longer be made durable"
            ),
            PlanErrorKind::Other { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A logical query plan node.
///
/// Plans are built with named column references and then [`Plan::bind`]
/// resolves every name into a position, yielding the canonical form the
/// recycler matches on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Plan {
    /// Base-table scan of the named columns (in the given order).
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Projected column names.
        cols: Vec<String>,
    },
    /// Table-function scan (e.g. SkyServer's `fGetNearbyObjEq`); a leaf with
    /// a declared output schema. The executor resolves the function by name.
    FnScan {
        /// Function name.
        name: String,
        /// Constant arguments (part of the match identity). Literals in a
        /// concrete plan; prepared templates may use [`Expr::Param`]
        /// placeholders, substituted before execution.
        args: Vec<Expr>,
        /// Declared output schema.
        schema: Schema,
    },
    /// Selection.
    Select {
        /// Input.
        child: Box<Plan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Projection: computes `exprs`, names them `names`.
    Project {
        /// Input.
        child: Box<Plan>,
        /// Output expressions.
        exprs: Vec<Expr>,
        /// Output names (not part of the structural identity).
        names: Vec<String>,
    },
    /// Hash aggregation: `group_by` keys then `aggs`.
    Aggregate {
        /// Input.
        child: Box<Plan>,
        /// Grouping key expressions.
        group_by: Vec<Expr>,
        /// Output names of the grouping keys.
        group_names: Vec<String>,
        /// Aggregate functions.
        aggs: Vec<AggFunc>,
        /// Output names of the aggregates.
        agg_names: Vec<String>,
    },
    /// Hash equi-join; `left_keys[i]` pairs with `right_keys[i]`.
    Join {
        /// Probe side.
        left: Box<Plan>,
        /// Build side.
        right: Box<Plan>,
        /// Join variant.
        kind: JoinKind,
        /// Probe key expressions (over left schema).
        left_keys: Vec<Expr>,
        /// Build key expressions (over right schema).
        right_keys: Vec<Expr>,
    },
    /// Heap-based top-N (paper §IV-B: `topN` keeps an N-sized heap).
    TopN {
        /// Input.
        child: Box<Plan>,
        /// Sort keys.
        keys: Vec<SortKeyExpr>,
        /// Number of rows to keep.
        n: usize,
    },
    /// Full sort.
    Sort {
        /// Input.
        child: Box<Plan>,
        /// Sort keys.
        keys: Vec<SortKeyExpr>,
    },
    /// First-N rows without ordering.
    Limit {
        /// Input.
        child: Box<Plan>,
        /// Row budget.
        n: usize,
    },
    /// Bag union of same-schema children.
    UnionAll {
        /// Inputs.
        children: Vec<Plan>,
    },
    /// Recycler-inserted: read a materialized result from the cache.
    /// Never inserted into the recycler graph.
    Cached {
        /// Cache handle issued by the recycler.
        tag: u64,
        /// Schema of the cached result.
        schema: Schema,
    },
    /// Recycler-inserted: tee the child's output into the cache under `tag`.
    /// Never inserted into the recycler graph.
    Store {
        /// Input.
        child: Box<Plan>,
        /// Cache handle issued by the recycler.
        tag: u64,
        /// Materialize vs. speculate.
        mode: StoreMode,
    },
}

/// Where an expression slot of a node reads its columns from.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    /// Index of the child whose output the expression ranges over; `None`
    /// for table-function arguments, which read no input (literals or
    /// parameter placeholders) and are never bound.
    pub(crate) input: Option<usize>,
    /// Whether [`Plan::schema`] derives an output column's type from the
    /// expression (so it cannot hold a parameter before substitution).
    pub(crate) typed: bool,
}

impl Slot {
    const ARGUMENT: Slot = Slot {
        input: None,
        typed: false,
    };
    const FIRST: Slot = Slot {
        input: Some(0),
        typed: false,
    };
    const SECOND: Slot = Slot {
        input: Some(1),
        typed: false,
    };
    const TYPED: Slot = Slot {
        input: Some(0),
        typed: true,
    };
}

/// A node's match identity (paper §III-A): operator kind plus the
/// parameters that must match exactly, excluding user-assigned output
/// names and children. [`crate::local_eq`] compares identities and
/// [`crate::local_hash`] hashes one; the derived `Hash` writes the
/// discriminant — the operator's kind tag — first, then the parameters in
/// the order listed.
#[derive(PartialEq, Hash)]
#[repr(u8)]
pub(crate) enum Identity<'a> {
    /// Table and projected columns.
    Scan(&'a str, &'a [String]) = 1,
    /// Function name, arguments, declared output width.
    FnScan(&'a str, &'a [Expr], usize) = 2,
    /// Predicate.
    Select(&'a Expr) = 3,
    /// Output expressions.
    Project(&'a [Expr]) = 4,
    /// Grouping keys and aggregate functions.
    Aggregate(&'a [Expr], &'a [AggFunc]) = 5,
    /// Join variant, probe keys, build keys.
    Join(JoinKind, &'a [Expr], &'a [Expr]) = 6,
    /// Sort keys and row count.
    TopN(&'a [SortKeyExpr], usize) = 7,
    /// Sort keys.
    Sort(&'a [SortKeyExpr]) = 8,
    /// Row budget.
    Limit(usize) = 9,
    /// Number of arms.
    UnionAll(usize) = 10,
    /// Cache handle.
    Cached(u64) = 11,
    /// Cache handle.
    Store(u64) = 12,
}

impl Identity<'_> {
    /// The operator's kind tag: this identity's discriminant.
    pub(crate) fn kind_tag(&self) -> u8 {
        // SAFETY: `Identity` is `repr(u8)`, so its layout begins with the
        // `u8` discriminant (see `std::mem::discriminant`).
        unsafe { *(self as *const Self).cast::<u8>() }
    }
}

/// Expands the children and expression-slot listings twice: over shared
/// references (`children`, `try_for_each_slot`) and over mutable ones
/// (`children_mut`, `try_for_each_slot_mut`).
macro_rules! listings {
    ($children:ident, $slots:ident, $iter:ident, $argument:ident $(, $mut:tt)?) => {
        impl Plan {
            /// Child subplans in order.
            pub fn $children(&$($mut)? self) -> Vec<&$($mut)? Plan> {
                match self {
                    Plan::Scan { .. } | Plan::FnScan { .. } | Plan::Cached { .. } => vec![],
                    Plan::Select { child, .. }
                    | Plan::Project { child, .. }
                    | Plan::Aggregate { child, .. }
                    | Plan::TopN { child, .. }
                    | Plan::Sort { child, .. }
                    | Plan::Limit { child, .. }
                    | Plan::Store { child, .. } => vec![child],
                    Plan::Join { left, right, .. } => vec![left, right],
                    Plan::UnionAll { children } => children.$iter().collect(),
                }
            }

            /// Visit every expression held directly by this node (not its
            /// children) with the [`Slot`] it occupies, stopping at the
            /// first error.
            pub(crate) fn $slots<E>(
                &$($mut)? self,
                f: &mut impl FnMut(&$($mut)? Expr, Slot) -> Result<(), E>,
            ) -> Result<(), E> {
                match self {
                    Plan::Scan { .. }
                    | Plan::Limit { .. }
                    | Plan::UnionAll { .. }
                    | Plan::Cached { .. }
                    | Plan::Store { .. } => Ok(()),
                    Plan::FnScan { args, .. } => args.$iter().try_for_each(|e| f(e, Slot::ARGUMENT)),
                    Plan::Select { predicate, .. } => f(predicate, Slot::FIRST),
                    Plan::Project { exprs, .. } => exprs.$iter().try_for_each(|e| f(e, Slot::TYPED)),
                    Plan::Aggregate { group_by, aggs, .. } => {
                        group_by.$iter().try_for_each(|e| f(e, Slot::TYPED))?;
                        aggs.$iter()
                            .filter_map(AggFunc::$argument)
                            .try_for_each(|e| f(e, Slot::TYPED))
                    }
                    Plan::Join {
                        left_keys,
                        right_keys,
                        ..
                    } => {
                        left_keys.$iter().try_for_each(|e| f(e, Slot::FIRST))?;
                        right_keys.$iter().try_for_each(|e| f(e, Slot::SECOND))
                    }
                    Plan::TopN { keys, .. } | Plan::Sort { keys, .. } => keys
                        .$iter()
                        .try_for_each(|k| f(&$($mut)? k.expr, Slot::FIRST)),
                }
            }
        }
    };
}

listings!(children, try_for_each_slot, iter, argument);
listings!(
    children_mut,
    try_for_each_slot_mut,
    iter_mut,
    argument_mut,
    mut
);

impl Plan {
    // ---- fluent builders -------------------------------------------------

    /// `σ_predicate(self)`.
    pub fn select(self, predicate: Expr) -> Plan {
        Plan::Select {
            child: Box::new(self),
            predicate,
        }
    }

    /// `π_{exprs as names}(self)`.
    pub fn project(self, items: Vec<(Expr, &str)>) -> Plan {
        let (exprs, names) = items.into_iter().map(|(e, n)| (e, n.to_string())).unzip();
        Plan::Project {
            child: Box::new(self),
            exprs,
            names,
        }
    }

    /// `γ_{groups; aggs}(self)`.
    pub fn aggregate(self, groups: Vec<(Expr, &str)>, aggs: Vec<(AggFunc, &str)>) -> Plan {
        let (group_by, group_names) = groups.into_iter().map(|(e, n)| (e, n.to_string())).unzip();
        let (aggs, agg_names) = aggs.into_iter().map(|(a, n)| (a, n.to_string())).unzip();
        Plan::Aggregate {
            child: Box::new(self),
            group_by,
            group_names,
            aggs,
            agg_names,
        }
    }

    /// Hash join with the given kind and key lists.
    pub fn join(
        self,
        right: Plan,
        kind: JoinKind,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
    ) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            kind,
            left_keys,
            right_keys,
        }
    }

    /// Inner equi-join convenience.
    pub fn inner_join(self, right: Plan, left_keys: Vec<Expr>, right_keys: Vec<Expr>) -> Plan {
        self.join(right, JoinKind::Inner, left_keys, right_keys)
    }

    /// Broadcast join against a one-row subplan (scalar subquery).
    pub fn single_join(self, right: Plan) -> Plan {
        self.join(right, JoinKind::Single, vec![], vec![])
    }

    /// Heap top-N.
    pub fn top_n(self, keys: Vec<SortKeyExpr>, n: usize) -> Plan {
        Plan::TopN {
            child: Box::new(self),
            keys,
            n,
        }
    }

    /// Full sort.
    pub fn sort(self, keys: Vec<SortKeyExpr>) -> Plan {
        Plan::Sort {
            child: Box::new(self),
            keys,
        }
    }

    /// Row limit.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            child: Box::new(self),
            n,
        }
    }

    /// Wrap in a recycler store operator.
    pub fn store(self, tag: u64, mode: StoreMode) -> Plan {
        Plan::Store {
            child: Box::new(self),
            tag,
            mode,
        }
    }

    // ---- structure -------------------------------------------------------

    /// The node's match identity: its kind and the parameters listed in
    /// [`Identity`].
    pub(crate) fn identity(&self) -> Identity<'_> {
        match self {
            Plan::Scan { table, cols } => Identity::Scan(table, cols),
            Plan::FnScan { name, args, schema } => Identity::FnScan(name, args, schema.len()),
            Plan::Select { predicate, .. } => Identity::Select(predicate),
            Plan::Project { exprs, .. } => Identity::Project(exprs),
            Plan::Aggregate { group_by, aggs, .. } => Identity::Aggregate(group_by, aggs),
            Plan::Join {
                kind,
                left_keys,
                right_keys,
                ..
            } => Identity::Join(*kind, left_keys, right_keys),
            Plan::TopN { keys, n, .. } => Identity::TopN(keys, *n),
            Plan::Sort { keys, .. } => Identity::Sort(keys),
            Plan::Limit { n, .. } => Identity::Limit(*n),
            Plan::UnionAll { children } => Identity::UnionAll(children.len()),
            Plan::Cached { tag, .. } => Identity::Cached(*tag),
            Plan::Store { tag, .. } => Identity::Store(*tag),
        }
    }

    /// Rebuild this node with new children (same arity required).
    pub fn with_children(&self, new_children: Vec<Plan>) -> Plan {
        let mut next = self.clone();
        let slots = next.children_mut();
        assert_eq!(slots.len(), new_children.len(), "arity mismatch");
        for (slot, child) in slots.into_iter().zip(new_children) {
            *slot = child;
        }
        next
    }

    /// Names of every base table scanned in the subtree, deduplicated in
    /// first-occurrence order. The recycler keys invalidation and cache
    /// freshness on this set.
    pub fn base_tables(&self) -> Vec<String> {
        fn go(plan: &Plan, out: &mut Vec<String>) {
            if let Plan::Scan { table, .. } = plan {
                if !out.iter().any(|t| t == table) {
                    out.push(table.clone());
                }
            }
            for c in plan.children() {
                go(c, out);
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    /// Number of plan nodes in the subtree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Short label naming the operator and its parameters.
    pub fn label(&self) -> String {
        match self {
            Plan::Scan { table, cols } => format!("scan {table} [{}]", cols.join(", ")),
            Plan::FnScan { name, args, .. } => {
                let a: Vec<String> = args.iter().map(|v| v.to_string()).collect();
                format!("fn_scan {name}({})", a.join(", "))
            }
            Plan::Select { predicate, .. } => format!("select {predicate}"),
            Plan::Project { exprs, names, .. } => {
                let items: Vec<String> = exprs
                    .iter()
                    .zip(names)
                    .map(|(e, n)| format!("{e} as {n}"))
                    .collect();
                format!("project [{}]", items.join(", "))
            }
            Plan::Aggregate { group_by, aggs, .. } => {
                let g: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
                let a: Vec<String> = aggs.iter().map(|f| f.to_string()).collect();
                format!("aggregate by [{}] compute [{}]", g.join(", "), a.join(", "))
            }
            Plan::Join {
                kind,
                left_keys,
                right_keys,
                ..
            } => {
                let l: Vec<String> = left_keys.iter().map(|e| e.to_string()).collect();
                let r: Vec<String> = right_keys.iter().map(|e| e.to_string()).collect();
                format!(
                    "{}_join on [{}]=[{}]",
                    kind.label(),
                    l.join(", "),
                    r.join(", ")
                )
            }
            Plan::TopN { keys, n, .. } => format!("top_{n} by {}", keys_label(keys)),
            Plan::Sort { keys, .. } => format!("sort by {}", keys_label(keys)),
            Plan::Limit { n, .. } => format!("limit {n}"),
            Plan::UnionAll { children } => format!("union_all of {}", children.len()),
            Plan::Cached { tag, .. } => format!("cached #{tag}"),
            Plan::Store { tag, mode, .. } => format!("store #{tag} ({mode:?})"),
        }
    }

    // ---- schema + bind ---------------------------------------------------

    /// Derive the output schema. Works on both named and bound plans.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema, PlanError> {
        match self {
            Plan::Scan { table, cols } => {
                let t = catalog
                    .schema_of(table)
                    .ok_or_else(|| PlanError::unknown_table(table))?;
                let names: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
                t.project(&names).ok_or_else(|| {
                    let missing = cols
                        .iter()
                        .find(|c| t.index_of(c).is_none())
                        .map(|c| c.as_str())
                        .unwrap_or("?");
                    PlanError::unknown_column(missing, format!("scan of '{table}'"))
                })
            }
            Plan::FnScan { schema, .. } => Ok(schema.clone()),
            Plan::Select { child, .. } => child.schema(catalog),
            Plan::Project {
                child,
                exprs,
                names,
            } => {
                let input = child.schema(catalog)?;
                let tys = input_types(&input);
                let fields = exprs
                    .iter()
                    .zip(names)
                    .map(|(e, n)| {
                        let bound = e.bind(&input).map_err(PlanError::from)?;
                        Ok(Field::new(n.clone(), bound.data_type(&tys)))
                    })
                    .collect::<Result<Vec<_>, PlanError>>()?;
                Ok(Schema::new(fields))
            }
            Plan::Aggregate {
                child,
                group_by,
                group_names,
                aggs,
                agg_names,
            } => {
                let input = child.schema(catalog)?;
                let tys = input_types(&input);
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for (e, n) in group_by.iter().zip(group_names) {
                    let bound = e.bind(&input).map_err(PlanError::from)?;
                    fields.push(Field::new(n.clone(), bound.data_type(&tys)));
                }
                for (a, n) in aggs.iter().zip(agg_names) {
                    let mut bound = a.clone();
                    if let Some(arg) = bound.argument_mut() {
                        *arg = arg.bind(&input)?;
                    }
                    fields.push(Field::new(n.clone(), bound.data_type(&tys)));
                }
                Ok(Schema::new(fields))
            }
            Plan::Join {
                left, right, kind, ..
            } => {
                let l = left.schema(catalog)?;
                match kind {
                    JoinKind::Semi | JoinKind::Anti => Ok(l),
                    _ => Ok(l.join(&right.schema(catalog)?)),
                }
            }
            Plan::TopN { child, .. } | Plan::Sort { child, .. } | Plan::Limit { child, .. } => {
                child.schema(catalog)
            }
            Plan::UnionAll { children } => {
                let first = children
                    .first()
                    .ok_or_else(|| PlanError::msg("empty union"))?
                    .schema(catalog)?;
                for c in &children[1..] {
                    let s = c.schema(catalog)?;
                    if s.len() != first.len()
                        || s.fields()
                            .iter()
                            .zip(first.fields())
                            .any(|(a, b)| a.dtype != b.dtype)
                    {
                        return Err(PlanError::type_mismatch(
                            first.to_string(),
                            s.to_string(),
                            "union arm schemas must agree",
                        ));
                    }
                }
                Ok(first)
            }
            Plan::Cached { schema, .. } => Ok(schema.clone()),
            Plan::Store { child, .. } => child.schema(catalog),
        }
    }

    /// Resolve every named column reference to a position, bottom-up,
    /// producing the canonical plan the recycler matches on. Each
    /// expression slot binds against the schema of the input it ranges
    /// over.
    pub fn bind(&self, catalog: &Catalog) -> Result<Plan, PlanError> {
        fn go(plan: &mut Plan, catalog: &Catalog) -> Result<(), PlanError> {
            for c in plan.children_mut() {
                go(c, catalog)?;
            }
            let inputs = plan
                .children()
                .iter()
                .map(|c| c.schema(catalog))
                .collect::<Result<Vec<_>, _>>()?;
            plan.try_for_each_slot_mut(&mut |e, slot| {
                if let Some(i) = slot.input {
                    *e = e.bind(&inputs[i])?;
                }
                Ok::<_, PlanError>(())
            })?;
            if let Plan::Join {
                kind,
                left_keys,
                right_keys,
                ..
            } = plan
            {
                if left_keys.len() != right_keys.len() {
                    return Err(PlanError::arity("join key arity mismatch"));
                }
                if *kind == JoinKind::Single && !left_keys.is_empty() {
                    return Err(PlanError::arity("single join takes no keys"));
                }
            }
            Ok(())
        }
        let mut plan = self.clone();
        go(&mut plan, catalog)?;
        Ok(plan)
    }

    /// Visit every expression in the subtree, pre-order, stopping at the
    /// first error.
    fn try_for_each_expr<E>(
        &self,
        f: &mut impl FnMut(&Expr, Slot) -> Result<(), E>,
    ) -> Result<(), E> {
        self.try_for_each_slot(f)?;
        self.children()
            .into_iter()
            .try_for_each(|c| c.try_for_each_expr(f))
    }

    /// Whether any expression in the subtree still contains named references.
    pub fn has_named(&self) -> bool {
        self.try_for_each_expr(&mut |e, _| if e.has_named() { Err(()) } else { Ok(()) })
            .is_err()
    }

    /// Whether any expression in the subtree contains a parameter
    /// placeholder (i.e. the plan is a prepared template, not executable
    /// as-is).
    pub fn has_params(&self) -> bool {
        self.try_for_each_expr(&mut |e, _| if e.has_params() { Err(()) } else { Ok(()) })
            .is_err()
    }

    /// Names of all parameter placeholders in the subtree, deduplicated in
    /// first-occurrence order.
    pub fn param_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        let _ = self.try_for_each_expr(&mut |e, _| {
            e.param_names(&mut out);
            Ok::<_, ()>(())
        });
        out
    }

    /// First parameter placeholder appearing in a `Slot::typed` position
    /// — one whose *output type* depends on it. Such templates cannot
    /// derive a schema before substitution, so they are rejected at
    /// prepare time instead of panicking inside type derivation.
    pub fn param_in_typed_position(&self) -> Option<String> {
        self.try_for_each_expr(&mut |e, slot| {
            let mut names = Vec::new();
            if slot.typed {
                e.param_names(&mut names);
            }
            names.into_iter().next().map_or(Ok(()), Err)
        })
        .err()
    }

    /// Replace every [`Expr::Param`] in the subtree with the literal bound
    /// to its name, producing a concrete executable plan. Errors if any
    /// placeholder has no binding.
    pub fn substitute_params(&self, params: &rdb_expr::Params) -> Result<Plan, PlanError> {
        fn go(plan: &mut Plan, params: &rdb_expr::Params) -> Result<(), PlanError> {
            for c in plan.children_mut() {
                go(c, params)?;
            }
            plan.try_for_each_slot_mut(&mut |e, _| {
                *e = e.substitute_params(params)?;
                Ok(())
            })
        }
        let mut plan = self.clone();
        go(&mut plan, params)?;
        Ok(plan)
    }
}

fn keys_label(keys: &[SortKeyExpr]) -> String {
    let parts: Vec<String> = keys
        .iter()
        .map(|k| {
            format!(
                "{}{}",
                k.expr,
                match k.order {
                    SortOrder::Asc => "",
                    SortOrder::Desc => " desc",
                }
            )
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

fn input_types(schema: &Schema) -> Vec<DataType> {
    schema.fields().iter().map(|f| f.dtype).collect()
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(plan: &Plan, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            writeln!(f, "{:indent$}{}", "", plan.label(), indent = depth * 2)?;
            for c in plan.children() {
                go(c, f, depth + 1)?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::scan;
    use rdb_storage::TableBuilder;
    use rdb_vector::Value;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([
            ("l_qty", DataType::Int),
            ("l_price", DataType::Float),
            ("l_date", DataType::Date),
        ]);
        let mut b = TableBuilder::new("lineitem", schema, 1);
        b.push_row(vec![Value::Int(1), Value::Float(10.0), Value::Date(0)]);
        cat.register(b.finish()).expect("register table");
        let schema = Schema::from_pairs([("o_id", DataType::Int), ("o_flag", DataType::Str)]);
        let mut b = TableBuilder::new("orders", schema, 1);
        b.push_row(vec![Value::Int(1), Value::str("F")]);
        cat.register(b.finish()).expect("register table");
        cat
    }

    #[test]
    fn scan_schema_projects() {
        let cat = catalog();
        let p = scan("lineitem", &["l_price", "l_qty"]);
        let s = p.schema(&cat).unwrap();
        assert_eq!(s.names(), vec!["l_price", "l_qty"]);
        assert!(scan("nope", &["x"]).schema(&cat).is_err());
    }

    #[test]
    fn bind_produces_positional_plan() {
        let cat = catalog();
        let p = scan("lineitem", &["l_qty", "l_price"])
            .select(Expr::name("l_qty").gt(Expr::lit(3)))
            .project(vec![(Expr::name("l_price").mul(Expr::lit(2.0)), "double")]);
        assert!(p.has_named());
        let bound = p.bind(&cat).unwrap();
        assert!(!bound.has_named());
        let s = bound.schema(&cat).unwrap();
        assert_eq!(s.names(), vec!["double"]);
        assert_eq!(s.field(0).dtype, DataType::Float);
    }

    #[test]
    fn bind_reports_unknown_names() {
        let cat = catalog();
        let p = scan("lineitem", &["l_qty"]).select(Expr::name("bogus").gt(Expr::lit(3)));
        let err = p.bind(&cat).unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    #[test]
    fn aggregate_schema() {
        let cat = catalog();
        let p = scan("lineitem", &["l_qty", "l_price", "l_date"]).aggregate(
            vec![(Expr::name("l_date").year(), "y")],
            vec![
                (AggFunc::Sum(Expr::name("l_qty")), "sq"),
                (AggFunc::Avg(Expr::name("l_price")), "ap"),
                (AggFunc::CountStar, "n"),
            ],
        );
        let s = p.schema(&cat).unwrap();
        assert_eq!(s.names(), vec!["y", "sq", "ap", "n"]);
        assert_eq!(s.field(0).dtype, DataType::Int);
        assert_eq!(s.field(1).dtype, DataType::Int);
        assert_eq!(s.field(2).dtype, DataType::Float);
        let bound = p.bind(&cat).unwrap();
        assert!(!bound.has_named());
    }

    #[test]
    fn aggregate_schema_reports_unknown_argument_column() {
        let p = scan("lineitem", &["l_qty"])
            .aggregate(vec![], vec![(AggFunc::Sum(Expr::name("bogus")), "s")]);
        let err = p.schema(&catalog()).unwrap_err();
        assert!(
            matches!(&err.kind, PlanErrorKind::UnknownColumn { column, .. } if column == "bogus"),
            "{err}"
        );
        assert_eq!(err.subject(), Some("bogus"));
    }

    #[test]
    fn join_schema_by_kind() {
        let cat = catalog();
        let l = scan("lineitem", &["l_qty"]);
        let r = scan("orders", &["o_id", "o_flag"]);
        let inner = l.clone().inner_join(
            r.clone(),
            vec![Expr::name("l_qty")],
            vec![Expr::name("o_id")],
        );
        assert_eq!(
            inner.schema(&cat).unwrap().names(),
            vec!["l_qty", "o_id", "o_flag"]
        );
        let semi = l.clone().join(
            r.clone(),
            JoinKind::Semi,
            vec![Expr::name("l_qty")],
            vec![Expr::name("o_id")],
        );
        assert_eq!(semi.schema(&cat).unwrap().names(), vec!["l_qty"]);
        let bound = inner.bind(&cat).unwrap();
        match &bound {
            Plan::Join {
                left_keys,
                right_keys,
                ..
            } => {
                assert_eq!(left_keys[0], Expr::col(0));
                assert_eq!(right_keys[0], Expr::col(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn union_schema_checked() {
        let cat = catalog();
        let a = scan("lineitem", &["l_qty"]);
        let b = scan("orders", &["o_id"]);
        let u = Plan::UnionAll {
            children: vec![a.clone(), b],
        };
        assert!(u.schema(&cat).is_ok());
        let bad = Plan::UnionAll {
            children: vec![a, scan("orders", &["o_flag"])],
        };
        assert!(bad.schema(&cat).is_err());
    }

    #[test]
    fn with_children_rebuilds() {
        let cat = catalog();
        let p = scan("lineitem", &["l_qty"]).select(Expr::name("l_qty").gt(Expr::lit(0)));
        let replacement = scan("lineitem", &["l_qty"]).limit(1);
        let rebuilt = p.with_children(vec![replacement.clone()]);
        match &rebuilt {
            Plan::Select { child, .. } => assert_eq!(child.as_ref(), &replacement),
            other => panic!("unexpected {other:?}"),
        }
        assert!(rebuilt.schema(&cat).is_ok());
    }

    #[test]
    fn node_count_and_labels() {
        let p = scan("lineitem", &["l_qty"])
            .select(Expr::name("l_qty").gt(Expr::lit(0)))
            .limit(5);
        assert_eq!(p.node_count(), 3);
        assert!(p.label().starts_with("limit"));
        let rendered = p.to_string();
        assert!(rendered.contains("scan lineitem"));
        assert!(rendered.contains("select"));
    }

    #[test]
    fn single_join_rejects_keys() {
        let cat = catalog();
        let p = scan("lineitem", &["l_qty"]).join(
            scan("orders", &["o_id"]),
            JoinKind::Single,
            vec![Expr::name("l_qty")],
            vec![Expr::name("o_id")],
        );
        assert!(p.bind(&cat).is_err());
    }

    #[test]
    fn store_and_cached_are_transparent() {
        let cat = catalog();
        let p = scan("lineitem", &["l_qty"]).store(7, StoreMode::Materialize);
        assert_eq!(p.schema(&cat).unwrap().names(), vec!["l_qty"]);
        let c = Plan::Cached {
            tag: 7,
            schema: Schema::from_pairs([("x", DataType::Int)]),
        };
        assert_eq!(c.schema(&cat).unwrap().names(), vec!["x"]);
    }

    #[test]
    fn has_named_sees_fn_scan_args() {
        let p = crate::builder::fn_scan_exprs(
            "f",
            vec![Expr::name("col")],
            Schema::from_pairs([("x", DataType::Int)]),
        );
        assert!(p.has_named(), "named refs in fn-scan args must be visible");
        let ok = crate::builder::fn_scan_exprs(
            "f",
            vec![Expr::param("n")],
            Schema::from_pairs([("x", DataType::Int)]),
        );
        assert!(!ok.has_named());
        assert!(ok.has_params());
    }

    #[test]
    fn substitute_params_fills_every_slot() {
        let p = scan("lineitem", &["l_qty", "l_price"])
            .select(
                Expr::name("l_qty")
                    .gt(Expr::param("qty"))
                    .and(Expr::name("l_price").lt(Expr::param("price"))),
            )
            .bind(&catalog())
            .unwrap();
        assert!(p.has_params());
        assert_eq!(p.param_names(), vec!["qty", "price"]);
        let params = rdb_expr::Params::new().set("qty", 1i64).set("price", 9.0);
        let concrete = p.substitute_params(&params).unwrap();
        assert!(!concrete.has_params());
        // Missing binding errors and names the slot.
        let partial = rdb_expr::Params::new().set("qty", 1i64);
        let err = p.substitute_params(&partial).unwrap_err();
        assert!(err.to_string().contains("price"), "{err}");
    }
}
