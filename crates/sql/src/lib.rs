//! SQL text frontend for recycler-db.
//!
//! A hand-written lexer + recursive-descent parser for a pragmatic SQL
//! subset, an AST with byte spans ([`ast`]), and a binder ([`binder`])
//! that resolves names against the catalog and lowers to the engine's
//! [`rdb_plan::Plan`]. The point of the layer is *cache convergence*: all
//! SQL lowers through one code path, scans are pruned to referenced
//! columns in schema order, and the session layer normalizes every lowered
//! plan ([`rdb_plan::normalize()`]) before fingerprinting — so textual
//! variants of the same query (`a AND b` vs `b AND a`, `5 < x` vs
//! `x > 5`, filters above vs below a join) land on the same
//! recycler-graph nodes and reuse each other's materialized results.
//!
//! # Supported grammar
//!
//! ```text
//! statement   := select_stmt | insert | delete
//!
//! select_stmt := select_core (UNION ALL select_core)*
//!                [ORDER BY out_col [ASC|DESC] (',' …)*] [LIMIT int]
//! select_core := SELECT item (',' item)*
//!                FROM from_item (',' from_item)*
//!                [WHERE expr]
//!                [GROUP BY expr (',' …)*] [HAVING expr]
//! item        := '*' | expr [[AS] alias]
//! from_item   := table_ref join*
//! table_ref   := name ['(' expr (',' …)* ')']   -- table function call
//!                [[AS] alias]
//! join        := (JOIN | INNER JOIN | LEFT [OUTER] JOIN |
//!                 SEMI JOIN | ANTI JOIN) table_ref ON expr
//!
//! insert      := INSERT INTO name ['(' col (',' …)* ')']
//!                VALUES '(' expr (',' …)* ')' (',' '(' … ')')*
//! delete      := DELETE FROM name [WHERE expr]
//!
//! expr        := usual precedence: OR < AND < NOT <
//!                {= <> < <= > >=, IS [NOT] NULL, [NOT] LIKE 'pat',
//!                 [NOT] IN (lit, …), BETWEEN a AND b} < + - < * / < unary -
//! primary     := int | float | 'string' | TRUE | FALSE | NULL
//!              | DATE 'YYYY-MM-DD'
//!              | $name | ?                       -- parameter placeholders
//!              | column | alias.column
//!              | year(e) | month(e) | extract(year|month from e)
//!              | substr(s, start, len) | substring(s from start for len)
//!              | count(*) | count([distinct] e) | sum(e) | min(e)
//!              | max(e) | avg(e)
//!              | CASE WHEN c THEN v … [ELSE e] END | '(' expr ')'
//! ```
//!
//! Notes:
//!
//! * **Placeholders** `$name` lower to [`rdb_expr::Expr::Param`] with that
//!   name; `?` placeholders are numbered left to right from 1 and lower to
//!   parameters named `"1"`, `"2"`, … — bind them with
//!   `Params::new().set("1", …)`.
//! * **Joins** are hash equi-joins: every `ON` must contain at least one
//!   `left = right` equality; non-equality conjuncts are allowed on inner
//!   joins (they become a filter above the join, which normalization then
//!   sinks as far as it can). Comma-separated `FROM` items are inner
//!   joins whose equalities are taken from `WHERE`.
//! * **ORDER BY** resolves against the statement's *output* columns
//!   (select aliases), after projection — `ORDER BY` + `LIMIT` lowers to
//!   the heap top-N operator, `ORDER BY` alone to a full sort.
//! * **Aggregates** may appear in select items and `HAVING`, arbitrarily
//!   nested in scalar expressions (`100.0 * sum(a) / sum(b)`); any other
//!   column reference must match a `GROUP BY` expression.
//!
//! # Entry points
//!
//! [`parse`] produces a [`ast::Statement`] (with
//! [`ast::Statement::to_sql`] as the canonical printer), and
//! [`bind_statement`] lowers it against a [`SqlCatalog`]. Most callers go
//! through the engine session instead: `Session::prepare_sql(text)`
//! prepares a SQL query template and `Session::sql(text, params)` executes
//! any statement, including DML.

pub mod ast;
pub mod binder;
pub mod error;
pub mod lexer;
pub mod parser;

pub use ast::Statement;
pub use binder::{bind_statement, BoundStatement, CatalogWithFunctions, SqlCatalog};
pub use error::{BindErrorKind, Span, SqlError, SqlErrorKind};
pub use parser::parse;

/// Parse and lower in one step.
pub fn compile(sql: &str, catalog: &dyn SqlCatalog) -> Result<BoundStatement, SqlError> {
    bind_statement(&parse(sql)?, catalog)
}
