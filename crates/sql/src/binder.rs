//! Name resolution and lowering: SQL AST → bound [`Plan`] / DML.
//!
//! The binder resolves every table, alias, and column against a schema
//! provider, prunes base-table scans to exactly the referenced columns
//! (in table-schema order, so SQL-lowered scans converge with hand-built
//! plans), extracts hash-join keys from `ON` / comma-join `WHERE`
//! conjuncts, and lowers aggregates by splitting select items into an
//! `Aggregate` node plus a projection over its output. The produced plan
//! is *bound* (positional column references throughout) and ready for
//! [`rdb_plan::normalize()`].

use rdb_expr::{AggFunc, ArithOp, Expr};
use rdb_plan::{JoinKind, Plan, SortKeyExpr};
use rdb_storage::Catalog;
use rdb_vector::{Schema, Value};

use crate::ast::*;
use crate::error::{BindErrorKind, Span, SqlError};

/// Schema source for binding: base tables plus table functions.
pub trait SqlCatalog {
    /// Schema of a base table.
    fn table_schema(&self, name: &str) -> Option<Schema>;

    /// Output schema of a table function called with `args` (parameter
    /// placeholders appear as [`Value::Null`]).
    fn function_schema(&self, name: &str, args: &[Value]) -> Option<Schema>;
}

impl SqlCatalog for Catalog {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.schema_of(name).cloned()
    }

    fn function_schema(&self, _name: &str, _args: &[Value]) -> Option<Schema> {
        None
    }
}

/// A catalog paired with a table-function registry (the engine's view).
pub struct CatalogWithFunctions<'a> {
    /// Base tables.
    pub catalog: &'a Catalog,
    /// Table functions.
    pub functions: &'a rdb_exec::FnRegistry,
}

impl SqlCatalog for CatalogWithFunctions<'_> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.catalog.schema_of(name).cloned()
    }

    fn function_schema(&self, name: &str, args: &[Value]) -> Option<Schema> {
        self.functions.get(name).map(|f| f.schema(args))
    }
}

/// A lowered statement.
#[derive(Debug, Clone)]
pub enum BoundStatement {
    /// A query: a bound, positional plan (run it through
    /// [`rdb_plan::normalize()`] before fingerprinting).
    Query(Plan),
    /// `INSERT INTO … VALUES …`: rows of literal/parameter expressions in
    /// table-schema order.
    Insert {
        /// Target table.
        table: String,
        /// Rows; each cell is [`Expr::Lit`] or [`Expr::Param`].
        rows: Vec<Vec<Expr>>,
    },
    /// `DELETE FROM … [WHERE …]`: predicate positional over the full
    /// table schema (`TRUE` when absent).
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        predicate: Expr,
    },
}

/// Lower a parsed statement against `catalog`.
pub fn bind_statement(
    stmt: &Statement,
    catalog: &dyn SqlCatalog,
) -> Result<BoundStatement, SqlError> {
    match stmt {
        Statement::Select(s) => Ok(BoundStatement::Query(bind_select(s, catalog)?)),
        Statement::Insert(i) => bind_insert(i, catalog),
        Statement::Delete(d) => bind_delete(d, catalog),
    }
}

// ---- scopes ---------------------------------------------------------------

/// One in-scope column: where it came from and what it is called.
#[derive(Debug, Clone)]
struct ScopeCol {
    /// Table alias (or table/function name when unaliased).
    qualifier: String,
    /// Column name.
    name: String,
}

/// The flat list of columns visible to expressions, in plan-output order.
#[derive(Debug, Clone, Default)]
struct Scope {
    cols: Vec<ScopeCol>,
}

impl Scope {
    fn resolve(&self, qualifier: Option<&str>, name: &str, span: Span) -> Result<usize, SqlError> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.name == name && qualifier.map(|q| q == c.qualifier).unwrap_or(true))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(SqlError::bind_as(
                span,
                BindErrorKind::UnknownColumn,
                match qualifier {
                    Some(q) => format!("unknown column '{q}.{name}'"),
                    None => format!("unknown column '{name}'"),
                },
            )),
            1 => Ok(matches[0]),
            _ => Err(SqlError::bind_as(
                span,
                BindErrorKind::AmbiguousColumn,
                format!(
                    "ambiguous column '{name}' (matches {}); qualify it",
                    matches
                        .iter()
                        .map(|&i| format!("{}.{}", self.cols[i].qualifier, self.cols[i].name))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )),
        }
    }

    fn extend(&mut self, other: Scope) {
        self.cols.extend(other.cols);
    }

    fn len(&self) -> usize {
        self.cols.len()
    }
}

// ---- FROM lowering --------------------------------------------------------

/// A lowered relation: its plan and its column scope.
struct Relation {
    plan: Plan,
    scope: Scope,
}

struct Binder<'a> {
    catalog: &'a dyn SqlCatalog,
}

impl Binder<'_> {
    /// Lower one `FROM` source: a pruned table scan or a function scan.
    fn table_ref(&self, t: &TableRef, referenced: &ColumnUse) -> Result<Relation, SqlError> {
        let binding = t.alias.clone().unwrap_or_else(|| t.name.clone());
        match &t.args {
            None => {
                let schema = self.catalog.table_schema(&t.name).ok_or_else(|| {
                    SqlError::from_plan(t.span, rdb_plan::PlanError::unknown_table(&t.name))
                })?;
                // Scan exactly the referenced columns, in schema order —
                // the same order a careful hand-built plan uses, so the
                // two converge. A relation nothing references still needs
                // one column to carry row counts.
                let mut positions: Vec<usize> = referenced.for_binding(&binding);
                positions.sort_unstable();
                positions.dedup();
                if positions.is_empty() {
                    positions.push(0);
                }
                let cols: Vec<String> = positions
                    .iter()
                    .map(|&i| schema.field(i).name.clone())
                    .collect();
                let scope = Scope {
                    cols: cols
                        .iter()
                        .map(|c| ScopeCol {
                            qualifier: binding.clone(),
                            name: c.clone(),
                        })
                        .collect(),
                };
                Ok(Relation {
                    plan: Plan::Scan {
                        table: t.name.clone(),
                        cols,
                    },
                    scope,
                })
            }
            Some(args) => {
                let empty = Scope::default();
                let arg_exprs: Vec<Expr> = args
                    .iter()
                    .map(|a| lower_scalar(a, &empty))
                    .collect::<Result<_, _>>()?;
                // Probe the registry with literal arguments; parameters
                // appear as NULLs (function schemas may not depend on
                // placeholder values).
                let probe: Vec<Value> = arg_exprs
                    .iter()
                    .map(|e| match e {
                        Expr::Lit(v) => v.clone(),
                        _ => Value::Null,
                    })
                    .collect();
                let schema = self
                    .catalog
                    .function_schema(&t.name.to_ascii_lowercase(), &probe)
                    .ok_or_else(|| {
                        SqlError::from_plan(t.span, rdb_plan::PlanError::unknown_function(&t.name))
                    })?;
                let scope = Scope {
                    cols: schema
                        .fields()
                        .iter()
                        .map(|f| ScopeCol {
                            qualifier: binding.clone(),
                            name: f.name.clone(),
                        })
                        .collect(),
                };
                Ok(Relation {
                    plan: Plan::FnScan {
                        name: t.name.to_ascii_lowercase(),
                        args: arg_exprs,
                        schema,
                    },
                    scope,
                })
            }
        }
    }

    /// Join `right` onto `left` with keys extracted from `conjuncts`
    /// (equality comparisons spanning the two sides). Non-key conjuncts
    /// go to `residual` for inner joins and are an error otherwise.
    fn join(
        &self,
        left: Relation,
        right: Relation,
        kind: JoinKind,
        conjuncts: Vec<SExpr>,
        at: Span,
        residual: &mut Vec<Expr>,
    ) -> Result<Relation, SqlError> {
        let lw = left.scope.len();
        let mut combined = left.scope.clone();
        combined.extend(right.scope.clone());
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for c in &conjuncts {
            let bound = lower_scalar(c, &combined)?;
            if let Some((lk, rk)) = split_equi(&bound, lw) {
                left_keys.push(lk);
                right_keys.push(rk);
                continue;
            }
            if kind == JoinKind::Inner {
                residual.push(bound);
            } else {
                return Err(SqlError::bind(
                    c.span,
                    format!(
                        "a {} join condition must be a conjunction of \
                         equalities between the two sides",
                        kind.label()
                    ),
                ));
            }
        }
        if left_keys.is_empty() {
            // Point at the condition that failed to provide a key, when
            // there is one; otherwise at the relation itself.
            let span = conjuncts.first().map(|c| c.span).unwrap_or(at);
            return Err(SqlError::bind(
                span,
                "no equi-join condition links this relation to the others \
                 (hash joins need at least one `left = right` equality)",
            ));
        }
        let scope = match kind {
            JoinKind::Semi | JoinKind::Anti => left.scope,
            _ => combined,
        };
        Ok(Relation {
            plan: Plan::Join {
                left: Box::new(left.plan),
                right: Box::new(right.plan),
                kind,
                left_keys,
                right_keys,
            },
            scope,
        })
    }
}

/// If `e` is `a = b` with `a` reading only columns `< lw` and `b` only
/// columns `>= lw` (or vice versa), return the per-side key expressions
/// (right side rebased to its own input positions).
fn split_equi(e: &Expr, lw: usize) -> Option<(Expr, Expr)> {
    let Expr::Cmp(rdb_expr::CmpOp::Eq, a, b) = e else {
        return None;
    };
    let side = |x: &Expr| -> Option<bool> {
        let mut cols = Vec::new();
        x.columns_used(&mut cols);
        if cols.is_empty() {
            return None; // a constant is not a join key side
        }
        if cols.iter().all(|&i| i < lw) {
            Some(true)
        } else if cols.iter().all(|&i| i >= lw) {
            Some(false)
        } else {
            None
        }
    };
    let rebase = |x: &Expr| {
        let mut cols = Vec::new();
        x.columns_used(&mut cols);
        let max = cols.iter().max().copied().unwrap_or(0);
        let map: Vec<usize> = (0..=max).map(|i| i.saturating_sub(lw)).collect();
        x.remap_cols(&map)
    };
    match (side(a), side(b)) {
        (Some(true), Some(false)) => Some(((**a).clone(), rebase(b))),
        (Some(false), Some(true)) => Some(((**b).clone(), rebase(a))),
        _ => None,
    }
}

// ---- column-use pre-pass --------------------------------------------------

/// Which schema positions of each `FROM` binding the statement touches.
struct ColumnUse {
    /// `(binding alias, schema, referenced positions)`.
    entries: Vec<(String, Schema, Vec<usize>)>,
}

impl ColumnUse {
    fn for_binding(&self, binding: &str) -> Vec<usize> {
        self.entries
            .iter()
            .find(|(b, _, _)| b == binding)
            .map(|(_, _, p)| p.clone())
            .unwrap_or_default()
    }
}

/// Walk every expression of the core and record, per table binding, the
/// set of referenced schema positions. Also validates column names (with
/// spans) before any plan exists.
fn collect_column_use(core: &SelectCore, catalog: &dyn SqlCatalog) -> Result<ColumnUse, SqlError> {
    // Gather the bindings: (alias, schema, is_table).
    let mut entries: Vec<(String, Schema, Vec<usize>)> = Vec::new();
    let mut seen = Vec::new();
    let mut add_ref = |t: &TableRef| -> Result<(), SqlError> {
        let binding = t.alias.clone().unwrap_or_else(|| t.name.clone());
        if seen.contains(&binding) {
            return Err(SqlError::bind(
                t.span,
                format!("duplicate table binding '{binding}'; alias one of them"),
            ));
        }
        seen.push(binding.clone());
        let schema = match &t.args {
            None => catalog.table_schema(&t.name).ok_or_else(|| {
                SqlError::from_plan(t.span, rdb_plan::PlanError::unknown_table(&t.name))
            })?,
            Some(args) => {
                let probe: Vec<Value> = args
                    .iter()
                    .map(|a| match &a.kind {
                        SExprKind::Lit(v) => v.clone(),
                        _ => Value::Null,
                    })
                    .collect();
                catalog
                    .function_schema(&t.name.to_ascii_lowercase(), &probe)
                    .ok_or_else(|| {
                        SqlError::from_plan(t.span, rdb_plan::PlanError::unknown_function(&t.name))
                    })?
            }
        };
        entries.push((binding, schema, Vec::new()));
        Ok(())
    };
    for item in &core.from {
        add_ref(&item.first)?;
        for j in &item.joins {
            add_ref(&j.table)?;
        }
    }

    // Record a column reference.
    let mut record = |qualifier: Option<&str>, name: &str, span: Span| -> Result<(), SqlError> {
        match qualifier {
            Some(q) => {
                let Some((_, schema, used)) = entries.iter_mut().find(|(b, _, _)| b == q) else {
                    return Err(SqlError::bind_as(
                        span,
                        BindErrorKind::UnknownTable,
                        format!("unknown table or alias '{q}'"),
                    ));
                };
                let Some(i) = schema.index_of(name) else {
                    return Err(SqlError::bind_as(
                        span,
                        BindErrorKind::UnknownColumn,
                        format!("unknown column '{name}' in '{q}'"),
                    ));
                };
                used.push(i);
                Ok(())
            }
            None => {
                let hits: Vec<usize> = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, s, _))| s.index_of(name).is_some())
                    .map(|(i, _)| i)
                    .collect();
                match hits.len() {
                    0 => Err(SqlError::bind_as(
                        span,
                        BindErrorKind::UnknownColumn,
                        format!("unknown column '{name}'"),
                    )),
                    1 => {
                        let (_, schema, used) = &mut entries[hits[0]];
                        used.push(schema.index_of(name).unwrap());
                        Ok(())
                    }
                    _ => Err(SqlError::bind_as(
                        span,
                        BindErrorKind::AmbiguousColumn,
                        format!(
                            "ambiguous column '{name}' (in {}); qualify it",
                            hits.iter()
                                .map(|&i| entries[i].0.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )),
                }
            }
        }
    };

    type Record<'r> = dyn FnMut(Option<&str>, &str, Span) -> Result<(), SqlError> + 'r;
    let mut walk = |e: &SExpr| -> Result<(), SqlError> {
        fn go(e: &SExpr, record: &mut Record<'_>) -> Result<(), SqlError> {
            if let SExprKind::Column { qualifier, name } = &e.kind {
                record(qualifier.as_deref(), name, e.span)?;
            }
            for c in e.children() {
                go(c, record)?;
            }
            Ok(())
        }
        go(e, &mut record)
    };

    let mut star = false;
    for item in &core.items {
        if matches!(item.expr.kind, SExprKind::Star) {
            star = true;
        } else {
            walk(&item.expr)?;
        }
    }
    if let Some(w) = &core.where_ {
        walk(w)?;
    }
    for g in &core.group_by {
        walk(g)?;
    }
    if let Some(h) = &core.having {
        walk(h)?;
    }
    for item in &core.from {
        for j in &item.joins {
            walk(&j.on)?;
        }
    }
    if star {
        // `SELECT *` touches every column of every binding.
        for (_, schema, used) in &mut entries {
            used.extend(0..schema.len());
        }
    }
    Ok(ColumnUse { entries })
}

// ---- SELECT lowering ------------------------------------------------------

/// Lower a full select statement (union arms + order/limit).
fn bind_select(stmt: &SelectStatement, catalog: &dyn SqlCatalog) -> Result<Plan, SqlError> {
    let mut arms = Vec::with_capacity(stmt.arms.len());
    let mut first_names: Option<Vec<String>> = None;
    for core in &stmt.arms {
        let (plan, names) = bind_core(core, catalog)?;
        if first_names.is_none() {
            first_names = Some(names);
        }
        arms.push(plan);
    }
    let mut plan = if arms.len() == 1 {
        arms.pop().unwrap()
    } else {
        Plan::UnionAll { children: arms }
    };
    let names = first_names.unwrap_or_default();

    if !stmt.order_by.is_empty() {
        // ORDER BY resolves against the *output* columns (aliases /
        // projected names), the only schema a union or projection exposes.
        let out_scope = Scope {
            cols: names
                .iter()
                .map(|n| ScopeCol {
                    qualifier: String::new(),
                    name: n.clone(),
                })
                .collect(),
        };
        let mut keys = Vec::with_capacity(stmt.order_by.len());
        for k in &stmt.order_by {
            let expr = lower_scalar(&k.expr, &out_scope).map_err(|mut e| {
                e.message = format!(
                    "{} (ORDER BY sees the output columns: {})",
                    e.message,
                    names.join(", ")
                );
                e
            })?;
            keys.push(if k.desc {
                SortKeyExpr::desc(expr)
            } else {
                SortKeyExpr::asc(expr)
            });
        }
        plan = match stmt.limit {
            Some(n) => plan.top_n(keys, n as usize),
            None => plan.sort(keys),
        };
    } else if let Some(n) = stmt.limit {
        plan = plan.limit(n as usize);
    }
    Ok(plan)
}

/// Lower one select core; returns the plan and its output column names.
fn bind_core(core: &SelectCore, catalog: &dyn SqlCatalog) -> Result<(Plan, Vec<String>), SqlError> {
    let binder = Binder { catalog };
    let referenced = collect_column_use(core, catalog)?;

    // WHERE conjuncts; comma joins consume the equi ones that link them.
    let mut where_conjuncts: Vec<SExpr> = match &core.where_ {
        Some(w) => split_and(w),
        None => Vec::new(),
    };
    let mut residual: Vec<Expr> = Vec::new();

    // Left-deep join tree in FROM order.
    let mut current: Option<Relation> = None;
    for item in &core.from {
        let mut rel = binder.table_ref(&item.first, &referenced)?;
        // Comma item: link to the accumulated scope via WHERE equi
        // conjuncts.
        if let Some(left) = current.take() {
            let lw = left.scope.len();
            let mut combined = left.scope.clone();
            combined.extend(rel.scope.clone());
            // A conjunct is a candidate key if it binds over the combined
            // scope and splits cleanly across the two sides.
            let mut keys = Vec::new();
            where_conjuncts.retain(|c| {
                if let Ok(bound) = lower_scalar(c, &combined) {
                    if split_equi(&bound, lw).is_some() {
                        keys.push(c.clone());
                        return false;
                    }
                }
                true
            });
            rel = binder.join(
                left,
                rel,
                JoinKind::Inner,
                keys,
                item.first.span,
                &mut residual,
            )?;
        }
        // Explicit joins chained onto this item.
        let mut acc = rel;
        for j in &item.joins {
            let right = binder.table_ref(&j.table, &referenced)?;
            let on_conjuncts = split_and(&j.on);
            acc = binder.join(
                acc,
                right,
                j.kind,
                on_conjuncts,
                j.table.span,
                &mut residual,
            )?;
        }
        current = Some(acc);
    }
    let rel = current.expect("grammar guarantees at least one FROM item");
    let scope = rel.scope;
    let mut plan = rel.plan;

    // WHERE (remaining conjuncts) + inner-join residuals.
    let mut filters = residual;
    for c in &where_conjuncts {
        filters.push(lower_scalar(c, &scope)?);
    }
    if !filters.is_empty() {
        plan = plan.select(Expr::and_all(filters));
    }

    // Select items: expand `*`, derive output names.
    let mut items: Vec<(SExpr, String)> = Vec::new();
    for item in &core.items {
        if matches!(item.expr.kind, SExprKind::Star) {
            for c in &scope.cols {
                items.push((
                    SExpr::new(
                        SExprKind::Column {
                            qualifier: Some(c.qualifier.clone()),
                            name: c.name.clone(),
                        },
                        item.expr.span,
                    ),
                    c.name.clone(),
                ));
            }
            continue;
        }
        let name = item.alias.clone().unwrap_or_else(|| match &item.expr.kind {
            SExprKind::Column { name, .. } => name.clone(),
            other => {
                // Deterministic default name for computed columns.
                let _ = other;
                item.expr.to_sql()
            }
        });
        items.push((item.expr.clone(), name));
    }

    let grouped = !core.group_by.is_empty()
        || core.having.is_some()
        || items.iter().any(|(e, _)| e.has_aggregate());

    if !grouped {
        let names: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
        let exprs: Vec<Expr> = items
            .iter()
            .map(|(e, _)| lower_scalar(e, &scope))
            .collect::<Result<_, _>>()?;
        let plan = Plan::Project {
            child: Box::new(plan),
            exprs,
            names: names.clone(),
        };
        return Ok((plan, names));
    }

    // ---- aggregate lowering ----
    let group_exprs: Vec<Expr> = core
        .group_by
        .iter()
        .map(|g| lower_scalar(g, &scope))
        .collect::<Result<_, _>>()?;
    let mut agg = AggContext {
        scope: &scope,
        groups: &group_exprs,
        aggs: Vec::new(),
    };
    // Lower select items over the aggregate output space.
    let mut out_exprs = Vec::with_capacity(items.len());
    for (e, _) in &items {
        out_exprs.push(agg.lower(e)?);
    }
    // HAVING lowers in the same context (may introduce hidden aggregates).
    let having = match &core.having {
        Some(h) => Some(agg.lower(h)?),
        None => None,
    };

    // Output names for the aggregate node: select aliases where a group
    // key / aggregate surfaces directly, synthesized otherwise.
    let n_groups = group_exprs.len();
    let mut group_names: Vec<String> = (0..n_groups).map(|i| format!("g{i}")).collect();
    let mut agg_names: Vec<String> = (0..agg.aggs.len()).map(|i| format!("a{i}")).collect();
    for ((_, name), out) in items.iter().zip(&out_exprs) {
        if let Expr::Col(i) = out {
            if *i < n_groups {
                group_names[*i] = name.clone();
            } else {
                agg_names[*i - n_groups] = name.clone();
            }
        }
    }

    let aggs = agg.aggs;
    let mut out_plan = Plan::Aggregate {
        child: Box::new(plan),
        group_by: group_exprs.clone(),
        group_names: group_names.clone(),
        aggs,
        agg_names: agg_names.clone(),
    };
    if let Some(h) = having {
        out_plan = out_plan.select(h);
    }
    let names: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
    let out_plan = Plan::Project {
        child: Box::new(out_plan),
        exprs: out_exprs,
        names: names.clone(),
    };
    Ok((out_plan, names))
}

/// Context for lowering expressions over an aggregate's output.
struct AggContext<'a> {
    scope: &'a Scope,
    groups: &'a [Expr],
    aggs: Vec<AggFunc>,
}

impl AggContext<'_> {
    /// Lower `e` into the aggregate output space: aggregate calls become
    /// references to (deduplicated) aggregate columns, subtrees matching
    /// a GROUP BY expression become group-key references, and anything
    /// else recurses — a bare column that matches neither is an error.
    fn lower(&mut self, e: &SExpr) -> Result<Expr, SqlError> {
        // Aggregate call → aggregate output column.
        if let SExprKind::Agg {
            func,
            distinct,
            arg,
        } = &e.kind
        {
            let bound_arg = match arg {
                None => None,
                Some(a) => {
                    if a.has_aggregate() {
                        return Err(SqlError::bind(a.span, "aggregate calls cannot nest"));
                    }
                    Some(lower_scalar(a, self.scope)?)
                }
            };
            let f = make_agg(func, *distinct, bound_arg, e.span)?;
            let idx = match self.aggs.iter().position(|x| *x == f) {
                Some(i) => i,
                None => {
                    self.aggs.push(f);
                    self.aggs.len() - 1
                }
            };
            return Ok(Expr::Col(self.groups.len() + idx));
        }
        // Whole subtree equals a group key?
        if !e.has_aggregate() {
            if let Ok(bound) = lower_scalar(e, self.scope) {
                if let Some(i) = self.groups.iter().position(|g| *g == bound) {
                    return Ok(Expr::Col(i));
                }
                // Constants pass through unchanged.
                let mut cols = Vec::new();
                bound.columns_used(&mut cols);
                if cols.is_empty() && !matches!(e.kind, SExprKind::Column { .. }) {
                    return Ok(bound);
                }
            }
        }
        // A bare column that matched no group key cannot appear here.
        if let SExprKind::Column { name, .. } = &e.kind {
            return Err(SqlError::bind(
                e.span,
                format!("column '{name}' must appear in GROUP BY or inside an aggregate"),
            ));
        }
        // Recurse and rebuild.
        self.rebuild(e)
    }

    fn rebuild(&mut self, e: &SExpr) -> Result<Expr, SqlError> {
        match &e.kind {
            SExprKind::Cmp(op, a, b) => Ok(Expr::Cmp(
                *op,
                Box::new(self.lower(a)?),
                Box::new(self.lower(b)?),
            )),
            SExprKind::Arith(op, a, b) => Ok(Expr::Arith(
                *op,
                Box::new(self.lower(a)?),
                Box::new(self.lower(b)?),
            )),
            SExprKind::And(items) => Ok(Expr::and_all(
                items
                    .iter()
                    .map(|i| self.lower(i))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            SExprKind::Or(items) => Ok(Expr::or_all(
                items
                    .iter()
                    .map(|i| self.lower(i))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            SExprKind::Not(a) => Ok(self.lower(a)?.not()),
            SExprKind::Neg(a) => Ok(Expr::Arith(
                ArithOp::Sub,
                Box::new(Expr::lit(0)),
                Box::new(self.lower(a)?),
            )),
            SExprKind::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.lower(expr)?),
                negated: *negated,
            }),
            SExprKind::Case {
                branches,
                otherwise,
            } => {
                let bs = branches
                    .iter()
                    .map(|(c, t)| Ok((self.lower(c)?, self.lower(t)?)))
                    .collect::<Result<Vec<_>, SqlError>>()?;
                let other = match otherwise {
                    Some(o) => self.lower(o)?,
                    None => Expr::Lit(Value::Null),
                };
                Ok(Expr::case(bs, other))
            }
            _ => Err(SqlError::bind(
                e.span,
                "this expression must appear in GROUP BY or inside an aggregate",
            )),
        }
    }
}

// ---- scalar lowering ------------------------------------------------------

/// Lower a scalar expression over `scope` into a positional [`Expr`].
fn lower_scalar(e: &SExpr, scope: &Scope) -> Result<Expr, SqlError> {
    match &e.kind {
        SExprKind::Column { qualifier, name } => scope
            .resolve(qualifier.as_deref(), name, e.span)
            .map(Expr::Col),
        SExprKind::Star => Err(SqlError::bind(
            e.span,
            "'*' is only valid as a select item or inside count(*)",
        )),
        SExprKind::Lit(v) => Ok(Expr::Lit(v.clone())),
        SExprKind::Param(n) => Ok(Expr::Param(n.clone())),
        SExprKind::Question(i) => Ok(Expr::Param(i.to_string())),
        SExprKind::Cmp(op, a, b) => Ok(Expr::Cmp(
            *op,
            Box::new(lower_scalar(a, scope)?),
            Box::new(lower_scalar(b, scope)?),
        )),
        SExprKind::Arith(op, a, b) => Ok(Expr::Arith(
            *op,
            Box::new(lower_scalar(a, scope)?),
            Box::new(lower_scalar(b, scope)?),
        )),
        SExprKind::And(items) => Ok(Expr::and_all(
            items
                .iter()
                .map(|i| lower_scalar(i, scope))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        SExprKind::Or(items) => Ok(Expr::or_all(
            items
                .iter()
                .map(|i| lower_scalar(i, scope))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        SExprKind::Not(a) => Ok(lower_scalar(a, scope)?.not()),
        SExprKind::Neg(a) => Ok(Expr::Arith(
            ArithOp::Sub,
            Box::new(Expr::lit(0)),
            Box::new(lower_scalar(a, scope)?),
        )),
        SExprKind::Like {
            expr,
            pattern,
            negated,
        } => Ok(Expr::Like {
            expr: Box::new(lower_scalar(expr, scope)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        SExprKind::InList {
            expr,
            list,
            negated,
        } => {
            let probe = lower_scalar(expr, scope)?;
            let values: Vec<Value> = list
                .iter()
                .map(|i| match &i.kind {
                    SExprKind::Lit(v) => Ok(v.clone()),
                    _ => Err(SqlError::bind(i.span, "IN list elements must be literals")),
                })
                .collect::<Result<_, _>>()?;
            Ok(Expr::InList {
                expr: Box::new(probe),
                list: values,
                negated: *negated,
            })
        }
        SExprKind::Between { expr, lo, hi } => {
            let probe = lower_scalar(expr, scope)?;
            let lo = lower_scalar(lo, scope)?;
            let hi = lower_scalar(hi, scope)?;
            Ok(probe.clone().ge(lo).and(probe.le(hi)))
        }
        SExprKind::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(lower_scalar(expr, scope)?),
            negated: *negated,
        }),
        SExprKind::Case {
            branches,
            otherwise,
        } => {
            let bs = branches
                .iter()
                .map(|(c, t)| Ok((lower_scalar(c, scope)?, lower_scalar(t, scope)?)))
                .collect::<Result<Vec<_>, SqlError>>()?;
            let other = match otherwise {
                Some(o) => lower_scalar(o, scope)?,
                None => Expr::Lit(Value::Null),
            };
            Ok(Expr::case(bs, other))
        }
        SExprKind::Func { name, args } => lower_func(name, args, scope, e.span),
        SExprKind::Agg { .. } => Err(SqlError::bind(
            e.span,
            "aggregate calls are only valid in a SELECT list or HAVING",
        )),
    }
}

fn lower_func(name: &str, args: &[SExpr], scope: &Scope, span: Span) -> Result<Expr, SqlError> {
    let arity = |n: usize| -> Result<(), SqlError> {
        if args.len() != n {
            return Err(SqlError::from_plan(
                span,
                rdb_plan::PlanError::arity(format!(
                    "{name}() takes {n} argument{}, got {}",
                    if n == 1 { "" } else { "s" },
                    args.len()
                )),
            ));
        }
        Ok(())
    };
    match name {
        "year" => {
            arity(1)?;
            Ok(Expr::Year(Box::new(lower_scalar(&args[0], scope)?)))
        }
        "month" => {
            arity(1)?;
            Ok(Expr::Month(Box::new(lower_scalar(&args[0], scope)?)))
        }
        "substr" => {
            arity(3)?;
            let s = lower_scalar(&args[0], scope)?;
            let as_pos = |a: &SExpr, what: &str, min: i64| -> Result<usize, SqlError> {
                match &a.kind {
                    SExprKind::Lit(Value::Int(i)) if *i >= min => Ok(*i as usize),
                    _ => Err(SqlError::bind(
                        a.span,
                        format!("substr {what} must be an integer literal >= {min}"),
                    )),
                }
            };
            let start = as_pos(&args[1], "start (1-based)", 1)?;
            let len = as_pos(&args[2], "length", 0)?;
            Ok(Expr::Substr {
                expr: Box::new(s),
                start,
                len,
            })
        }
        other => Err(SqlError::from_plan(
            span,
            rdb_plan::PlanError::unknown_function(other),
        )),
    }
}

fn make_agg(
    func: &str,
    distinct: bool,
    arg: Option<Expr>,
    span: Span,
) -> Result<AggFunc, SqlError> {
    Ok(match (func, distinct, arg) {
        ("count", false, None) => AggFunc::CountStar,
        ("count", false, Some(a)) => AggFunc::Count(a),
        ("count", true, Some(a)) => AggFunc::CountDistinct(a),
        ("count_distinct", _, Some(a)) => AggFunc::CountDistinct(a),
        ("sum", _, Some(a)) => AggFunc::Sum(a),
        ("min", _, Some(a)) => AggFunc::Min(a),
        ("max", _, Some(a)) => AggFunc::Max(a),
        ("avg", _, Some(a)) => AggFunc::Avg(a),
        (f, _, None) => return Err(SqlError::bind(span, format!("{f}() requires an argument"))),
        (f, _, _) => {
            return Err(SqlError::bind_as(
                span,
                BindErrorKind::UnknownAggregate,
                format!("unknown aggregate '{f}'"),
            ));
        }
    })
}

/// Split a conjunction into its top-level conjuncts.
fn split_and(e: &SExpr) -> Vec<SExpr> {
    match &e.kind {
        SExprKind::And(items) => items.iter().flat_map(split_and).collect(),
        _ => vec![e.clone()],
    }
}

// ---- DML lowering ---------------------------------------------------------

fn bind_insert(i: &Insert, catalog: &dyn SqlCatalog) -> Result<BoundStatement, SqlError> {
    let schema = catalog.table_schema(&i.table).ok_or_else(|| {
        SqlError::from_plan(i.table_span, rdb_plan::PlanError::unknown_table(&i.table))
    })?;
    // Map the (optional) column list onto schema order: every schema
    // column must be named exactly once.
    let order: Vec<usize> = if i.columns.is_empty() {
        (0..schema.len()).collect()
    } else {
        if i.columns.len() != schema.len() {
            return Err(SqlError::from_plan(
                i.table_span,
                rdb_plan::PlanError::arity(format!(
                    "INSERT column list must name all {} columns of '{}', got {}",
                    schema.len(),
                    i.table,
                    i.columns.len()
                )),
            ));
        }
        let mut order = vec![usize::MAX; schema.len()];
        for (pos, (name, span)) in i.columns.iter().enumerate() {
            let Some(si) = schema.index_of(name) else {
                return Err(SqlError::bind_as(
                    *span,
                    BindErrorKind::UnknownColumn,
                    format!("unknown column '{name}' in '{}'", i.table),
                ));
            };
            if order[si] != usize::MAX {
                return Err(SqlError::bind(
                    *span,
                    format!("column '{name}' listed twice"),
                ));
            }
            order[si] = pos;
        }
        order
    };
    let empty = Scope::default();
    let mut rows = Vec::with_capacity(i.rows.len());
    for row in &i.rows {
        if row.len() != schema.len() {
            let span = row
                .first()
                .map(|e| e.span.union(row.last().unwrap().span))
                .unwrap_or(i.table_span);
            return Err(SqlError::from_plan(
                span,
                rdb_plan::PlanError::arity(format!(
                    "INSERT row has {} values, table '{}' has {} columns",
                    row.len(),
                    i.table,
                    schema.len()
                )),
            ));
        }
        let mut cells = Vec::with_capacity(row.len());
        for &src in &order {
            let cell = &row[src];
            let lowered = lower_scalar(cell, &empty)?;
            match &lowered {
                Expr::Lit(_) | Expr::Param(_) => cells.push(lowered),
                _ => {
                    return Err(SqlError::bind(
                        cell.span,
                        "INSERT values must be literals or parameters",
                    ))
                }
            }
        }
        rows.push(cells);
    }
    Ok(BoundStatement::Insert {
        table: i.table.clone(),
        rows,
    })
}

fn bind_delete(d: &Delete, catalog: &dyn SqlCatalog) -> Result<BoundStatement, SqlError> {
    let schema = catalog.table_schema(&d.table).ok_or_else(|| {
        SqlError::from_plan(d.table_span, rdb_plan::PlanError::unknown_table(&d.table))
    })?;
    let scope = Scope {
        cols: schema
            .fields()
            .iter()
            .map(|f| ScopeCol {
                qualifier: d.table.clone(),
                name: f.name.clone(),
            })
            .collect(),
    };
    let predicate = match &d.where_ {
        Some(w) => {
            if w.has_aggregate() {
                return Err(SqlError::bind(
                    w.span,
                    "aggregates are not allowed in DELETE predicates",
                ));
            }
            lower_scalar(w, &scope)?
        }
        None => Expr::lit(true),
    };
    Ok(BoundStatement::Delete {
        table: d.table.clone(),
        predicate,
    })
}
