//! The expression AST.
//!
//! Column references come in two forms: [`Expr::Named`] (by name, used when
//! building plans by hand) and [`Expr::Col`] (positional, the canonical form
//! the recycler matches on). A plan-level bind pass converts every `Named`
//! into `Col` against the operator's input schema; canonical plans contain no
//! `Named` nodes.

use std::fmt;

use rdb_vector::{DataType, Schema, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// SQL token for display.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The same comparison with its operands swapped (`a < b` ≡ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Whether an operand pair ordered `ord` passes this comparison.
    #[inline]
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering;
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// SQL token for display.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A scalar expression over the rows of one input batch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Positional reference into the input schema (canonical form).
    Col(usize),
    /// Named reference, resolved to [`Expr::Col`] by the bind pass.
    Named(String),
    /// Named parameter placeholder of a prepared statement, replaced by a
    /// literal via [`Expr::substitute_params`] before execution. Placeholders
    /// survive the bind pass, so a prepared template is bound once and
    /// substituted per execution.
    Param(String),
    /// Literal scalar.
    Lit(Value),
    /// Comparison; NULL if either side is NULL.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic; ints stay ints, any float operand promotes to float;
    /// `Date ± Int` shifts by days.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Conjunction (Kleene three-valued).
    And(Vec<Expr>),
    /// Disjunction (Kleene three-valued).
    Or(Vec<Expr>),
    /// Negation (NULL stays NULL).
    Not(Box<Expr>),
    /// SQL `LIKE` / `NOT LIKE` with `%` and `_` wildcards.
    Like {
        /// String input.
        expr: Box<Expr>,
        /// Pattern with `%` (any run) and `_` (any single char).
        pattern: String,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `substring(expr from start for len)`, 1-based `start`.
    Substr {
        /// String input.
        expr: Box<Expr>,
        /// 1-based start offset (in bytes; workloads are ASCII).
        start: usize,
        /// Length in bytes.
        len: usize,
    },
    /// `extract(year from date)` as Int.
    Year(Box<Expr>),
    /// `extract(month from date)` as Int.
    Month(Box<Expr>),
    /// `CASE WHEN c1 THEN v1 [WHEN ...] ELSE e END`; first match wins.
    Case {
        /// `(condition, value)` branches in order.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` value.
        otherwise: Box<Expr>,
    },
    /// `expr [NOT] IN (v1, v2, ...)` over a literal list.
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// Literal membership list.
        list: Vec<Value>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr IS NULL` / `IS NOT NULL` (never NULL itself).
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
}

impl Expr {
    // ---- constructors ---------------------------------------------------

    /// Positional column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Named column reference.
    pub fn name(n: impl Into<String>) -> Expr {
        Expr::Named(n.into())
    }

    /// Named parameter placeholder (prepared-statement slot).
    pub fn param(n: impl Into<String>) -> Expr {
        Expr::Param(n.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(other))
    }

    /// N-ary AND (flattens nested ANDs).
    pub fn and_all(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        let mut flat = Vec::new();
        for e in exprs {
            match e {
                Expr::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Expr::lit(true),
            1 => flat.pop().unwrap(),
            _ => Expr::And(flat),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::and_all([self, other])
    }

    /// N-ary OR.
    pub fn or_all(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        let mut flat = Vec::new();
        for e in exprs {
            match e {
                Expr::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Expr::lit(false),
            1 => flat.pop().unwrap(),
            _ => Expr::Or(flat),
        }
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::or_all([self, other])
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self LIKE pattern`.
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
            negated: false,
        }
    }

    /// `self NOT LIKE pattern`.
    pub fn not_like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
            negated: true,
        }
    }

    /// `substring(self from start for len)` (1-based).
    pub fn substr(self, start: usize, len: usize) -> Expr {
        Expr::Substr {
            expr: Box::new(self),
            start,
            len,
        }
    }

    /// `extract(year from self)`.
    pub fn year(self) -> Expr {
        Expr::Year(Box::new(self))
    }

    /// `extract(month from self)`.
    pub fn month(self) -> Expr {
        Expr::Month(Box::new(self))
    }

    /// `self BETWEEN lo AND hi` (inclusive), expanded to a conjunction so
    /// range analysis sees plain comparisons.
    pub fn between(self, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        let lo = Expr::Lit(lo.into());
        let hi = Expr::Lit(hi.into());
        self.clone().ge(lo).and(self.le(hi))
    }

    /// `self IN (list)`.
    pub fn in_list(self, list: impl IntoIterator<Item = Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list: list.into_iter().collect(),
            negated: false,
        }
    }

    /// `self NOT IN (list)`.
    pub fn not_in_list(self, list: impl IntoIterator<Item = Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list: list.into_iter().collect(),
            negated: true,
        }
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: false,
        }
    }

    /// `self IS NOT NULL`.
    pub fn is_not_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: true,
        }
    }

    /// `CASE WHEN ... END` with an explicit ELSE.
    pub fn case(branches: Vec<(Expr, Expr)>, otherwise: Expr) -> Expr {
        Expr::Case {
            branches,
            otherwise: Box::new(otherwise),
        }
    }

    // ---- traversal ------------------------------------------------------

    /// Visit every child expression.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Col(_) | Expr::Named(_) | Expr::Param(_) | Expr::Lit(_) => vec![],
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => vec![a, b],
            Expr::And(v) | Expr::Or(v) => v.iter().collect(),
            Expr::Not(e)
            | Expr::Like { expr: e, .. }
            | Expr::Substr { expr: e, .. }
            | Expr::Year(e)
            | Expr::Month(e)
            | Expr::InList { expr: e, .. }
            | Expr::IsNull { expr: e, .. } => vec![e],
            Expr::Case {
                branches,
                otherwise,
            } => {
                let mut out: Vec<&Expr> = Vec::with_capacity(branches.len() * 2 + 1);
                for (c, v) in branches {
                    out.push(c);
                    out.push(v);
                }
                out.push(otherwise);
                out
            }
        }
    }

    /// Rebuild this node with children transformed by `f` (bottom-up map).
    pub fn map_children(&self, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
        match self {
            Expr::Col(_) | Expr::Named(_) | Expr::Param(_) | Expr::Lit(_) => self.clone(),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, Box::new(f(a)), Box::new(f(b))),
            Expr::Arith(op, a, b) => Expr::Arith(*op, Box::new(f(a)), Box::new(f(b))),
            Expr::And(v) => Expr::And(v.iter().map(&mut *f).collect()),
            Expr::Or(v) => Expr::Or(v.iter().map(&mut *f).collect()),
            Expr::Not(e) => Expr::Not(Box::new(f(e))),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(f(expr)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::Substr { expr, start, len } => Expr::Substr {
                expr: Box::new(f(expr)),
                start: *start,
                len: *len,
            },
            Expr::Year(e) => Expr::Year(Box::new(f(e))),
            Expr::Month(e) => Expr::Month(Box::new(f(e))),
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches.iter().map(|(c, v)| (f(c), f(v))).collect(),
                otherwise: Box::new(f(otherwise)),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(f(expr)),
                list: list.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(f(expr)),
                negated: *negated,
            },
        }
    }

    /// Resolve every [`Expr::Named`] against `schema`, producing a canonical
    /// positional expression. Returns a structured error naming any missing
    /// column.
    pub fn bind(&self, schema: &Schema) -> Result<Expr, crate::ExprError> {
        match self {
            Expr::Named(n) => {
                schema
                    .index_of(n)
                    .map(Expr::Col)
                    .ok_or_else(|| crate::ExprError::UnknownColumn {
                        column: n.clone(),
                        schema: schema.to_string(),
                    })
            }
            _ => {
                let mut err = None;
                let out = self.map_children(&mut |c| match c.bind(schema) {
                    Ok(e) => e,
                    Err(e) => {
                        err.get_or_insert(e);
                        c.clone()
                    }
                });
                match err {
                    Some(e) => Err(e),
                    None => Ok(out),
                }
            }
        }
    }

    /// Remap positional references: `Col(i)` becomes `Col(map[i])`.
    /// Used when substituting a cached result whose column order differs.
    pub fn remap_cols(&self, map: &[usize]) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(map[*i]),
            _ => self.map_children(&mut |c| c.remap_cols(map)),
        }
    }

    /// Collect the set of input column positions this expression reads.
    pub fn columns_used(&self, out: &mut Vec<usize>) {
        if let Expr::Col(i) = self {
            if !out.contains(i) {
                out.push(*i);
            }
        }
        for c in self.children() {
            c.columns_used(out);
        }
    }

    /// Whether the expression contains any unresolved [`Expr::Named`].
    pub fn has_named(&self) -> bool {
        matches!(self, Expr::Named(_)) || self.children().iter().any(|c| c.has_named())
    }

    /// Whether the expression contains any [`Expr::Param`] placeholder.
    pub fn has_params(&self) -> bool {
        matches!(self, Expr::Param(_)) || self.children().iter().any(|c| c.has_params())
    }

    /// Collect the names of all parameter placeholders (deduplicated, in
    /// first-occurrence order).
    pub fn param_names(&self, out: &mut Vec<String>) {
        if let Expr::Param(n) = self {
            if !out.iter().any(|x| x == n) {
                out.push(n.clone());
            }
        }
        for c in self.children() {
            c.param_names(out);
        }
    }

    /// Replace every [`Expr::Param`] with the literal bound to its name.
    /// Returns a structured error naming the first unbound parameter.
    pub fn substitute_params(&self, params: &crate::Params) -> Result<Expr, crate::ExprError> {
        match self {
            Expr::Param(n) => params
                .get(n)
                .map(|v| Expr::Lit(v.clone()))
                .ok_or_else(|| crate::ExprError::UnboundParameter { name: n.clone() }),
            _ => {
                let mut err = None;
                let out = self.map_children(&mut |c| match c.substitute_params(params) {
                    Ok(e) => e,
                    Err(e) => {
                        err.get_or_insert(e);
                        c.clone()
                    }
                });
                match err {
                    Some(e) => Err(e),
                    None => Ok(out),
                }
            }
        }
    }

    /// Result type given the input column types. Panics on ill-typed
    /// expressions (plans are type-checked when bound).
    pub fn data_type(&self, input: &[DataType]) -> DataType {
        match self {
            Expr::Col(i) => input[*i],
            Expr::Named(n) => panic!("unbound column '{n}' has no type"),
            Expr::Param(n) => panic!(
                "parameter '{n}' has no type; substitute parameters before deriving a schema"
            ),
            Expr::Lit(v) => v.data_type().unwrap_or(DataType::Int),
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Like { .. }
            | Expr::InList { .. }
            | Expr::IsNull { .. } => DataType::Bool,
            Expr::Arith(op, a, b) => {
                let (ta, tb) = (a.data_type(input), b.data_type(input));
                match (ta, tb) {
                    (DataType::Date, DataType::Int) | (DataType::Int, DataType::Date) => {
                        DataType::Date
                    }
                    // Integer division yields a float (see `eval`).
                    (DataType::Int, DataType::Int) if *op != ArithOp::Div => DataType::Int,
                    _ => DataType::Float,
                }
            }
            Expr::Substr { .. } => DataType::Str,
            Expr::Year(_) | Expr::Month(_) => DataType::Int,
            Expr::Case {
                branches,
                otherwise,
            } => branches
                .first()
                .map(|(_, v)| v.data_type(input))
                .unwrap_or_else(|| otherwise.data_type(input)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "${i}"),
            Expr::Named(n) => write!(f, "{n}"),
            Expr::Param(n) => write!(f, ":{n}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::And(v) => {
                write!(f, "(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Or(v) => {
                write!(f, "(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(
                    f,
                    "({expr} {}LIKE '{pattern}')",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Substr { expr, start, len } => {
                write!(f, "substr({expr}, {start}, {len})")
            }
            Expr::Year(e) => write!(f, "year({e})"),
            Expr::Month(e) => write!(f, "month({e})"),
            Expr::Case {
                branches,
                otherwise,
            } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                write!(f, " ELSE {otherwise} END")
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Str),
        ])
    }

    #[test]
    fn bind_resolves_names() {
        let e = Expr::name("a").lt(Expr::name("b"));
        let bound = e.bind(&schema()).unwrap();
        assert_eq!(bound, Expr::col(0).lt(Expr::col(1)));
        assert!(!bound.has_named());
    }

    #[test]
    fn bind_reports_missing_column() {
        let e = Expr::name("zz").lt(Expr::lit(1));
        let err = e.bind(&schema()).unwrap_err();
        assert_eq!(err.name(), "zz");
        assert!(err.to_string().contains("zz"), "{err}");
    }

    #[test]
    fn structural_equality_for_matching() {
        let a = Expr::col(0)
            .lt(Expr::lit(5))
            .and(Expr::col(1).ge(Expr::lit(1.5)));
        let b = Expr::col(0)
            .lt(Expr::lit(5))
            .and(Expr::col(1).ge(Expr::lit(1.5)));
        let c = Expr::col(0)
            .lt(Expr::lit(6))
            .and(Expr::col(1).ge(Expr::lit(1.5)));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn and_flattens() {
        let e = Expr::lit(true)
            .and(Expr::lit(false))
            .and(Expr::col(0).eq(Expr::lit(1)));
        match e {
            Expr::And(v) => assert_eq!(v.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn and_all_identity() {
        assert_eq!(Expr::and_all([]), Expr::lit(true));
        assert_eq!(Expr::and_all([Expr::col(1)]), Expr::col(1));
        assert_eq!(Expr::or_all([]), Expr::lit(false));
    }

    #[test]
    fn between_expands_to_range() {
        let e = Expr::col(0).between(1i64, 5i64);
        assert_eq!(
            e,
            Expr::col(0)
                .ge(Expr::lit(1))
                .and(Expr::col(0).le(Expr::lit(5)))
        );
    }

    #[test]
    fn types_infer() {
        let tys = [
            DataType::Int,
            DataType::Float,
            DataType::Date,
            DataType::Str,
        ];
        assert_eq!(
            Expr::col(0).add(Expr::col(0)).data_type(&tys),
            DataType::Int
        );
        assert_eq!(
            Expr::col(0).add(Expr::col(1)).data_type(&tys),
            DataType::Float
        );
        assert_eq!(
            Expr::col(2).add(Expr::lit(3)).data_type(&tys),
            DataType::Date
        );
        assert_eq!(Expr::col(2).year().data_type(&tys), DataType::Int);
        assert_eq!(Expr::col(3).substr(1, 2).data_type(&tys), DataType::Str);
        assert_eq!(
            Expr::col(0).lt(Expr::lit(1)).data_type(&tys),
            DataType::Bool
        );
    }

    #[test]
    fn columns_used_collects() {
        let e = Expr::col(2)
            .year()
            .eq(Expr::lit(1995))
            .and(Expr::col(0).lt(Expr::col(2)));
        let mut used = Vec::new();
        e.columns_used(&mut used);
        used.sort_unstable();
        assert_eq!(used, vec![0, 2]);
    }

    #[test]
    fn remap_cols_rewrites_positions() {
        let e = Expr::col(0).add(Expr::col(2));
        let r = e.remap_cols(&[5, 6, 7]);
        assert_eq!(r, Expr::col(5).add(Expr::col(7)));
    }

    #[test]
    fn display_renders_sql_like_text() {
        let e = Expr::name("x")
            .le(Expr::lit(3))
            .and(Expr::name("s").like("a%"));
        assert_eq!(e.to_string(), "((x <= 3) AND (s LIKE 'a%'))");
    }

    #[test]
    fn case_children_traversal() {
        let e = Expr::case(
            vec![(Expr::col(0).eq(Expr::lit(1)), Expr::lit(10))],
            Expr::lit(0),
        );
        assert_eq!(e.children().len(), 3);
    }
}
