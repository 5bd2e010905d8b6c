//! Aggregate function specifications.
//!
//! These are *plan parameters* — the executor crate implements the actual
//! accumulation. They live here so that both the plan crate (structural
//! matching in the recycler graph) and the executor can use them.

use std::fmt;

use rdb_vector::DataType;

use crate::expr::Expr;

/// An aggregate function over an argument expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count(*)` — counts rows.
    CountStar,
    /// `count(expr)` — counts non-NULL values.
    Count(Expr),
    /// `sum(expr)`.
    Sum(Expr),
    /// `min(expr)`.
    Min(Expr),
    /// `max(expr)`.
    Max(Expr),
    /// `avg(expr)` = sum/count over non-NULL values.
    Avg(Expr),
    /// `count(distinct expr)`.
    CountDistinct(Expr),
}

impl AggFunc {
    /// The argument expression, if any.
    pub fn argument(&self) -> Option<&Expr> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(e)
            | AggFunc::Sum(e)
            | AggFunc::Min(e)
            | AggFunc::Max(e)
            | AggFunc::Avg(e)
            | AggFunc::CountDistinct(e) => Some(e),
        }
    }

    /// The argument expression, if any, for rewriting in place.
    pub fn argument_mut(&mut self) -> Option<&mut Expr> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(e)
            | AggFunc::Sum(e)
            | AggFunc::Min(e)
            | AggFunc::Max(e)
            | AggFunc::Avg(e)
            | AggFunc::CountDistinct(e) => Some(e),
        }
    }

    /// Output type given the input column types.
    pub fn data_type(&self, input: &[DataType]) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count(_) | AggFunc::CountDistinct(_) => DataType::Int,
            AggFunc::Sum(e) => match e.data_type(input) {
                DataType::Int => DataType::Int,
                _ => DataType::Float,
            },
            AggFunc::Min(e) | AggFunc::Max(e) => e.data_type(input),
            AggFunc::Avg(_) => DataType::Float,
        }
    }

    /// Whether a re-aggregation of this function's partial results uses the
    /// same function (`sum` of `sum`s, `min` of `min`s). `count` re-aggregates
    /// via `sum`; `avg` and `count distinct` are not decomposable without
    /// auxiliary columns. Used by the proactive cube-caching rewrites (paper
    /// §IV-B: "standard aggregate calculation decomposition rules").
    pub fn reaggregate(&self, partial_col: usize) -> Option<AggFunc> {
        let arg = Expr::col(partial_col);
        match self {
            AggFunc::CountStar | AggFunc::Count(_) => Some(AggFunc::Sum(arg)),
            AggFunc::Sum(_) => Some(AggFunc::Sum(arg)),
            AggFunc::Min(_) => Some(AggFunc::Min(arg)),
            AggFunc::Max(_) => Some(AggFunc::Max(arg)),
            AggFunc::Avg(_) | AggFunc::CountDistinct(_) => None,
        }
    }

    /// Short name for display.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count(_) => "count",
            AggFunc::Sum(_) => "sum",
            AggFunc::Min(_) => "min",
            AggFunc::Max(_) => "max",
            AggFunc::Avg(_) => "avg",
            AggFunc::CountDistinct(_) => "count_distinct",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.argument() {
            None => write!(f, "{}", self.name()),
            Some(e) => write!(f, "{}({e})", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types() {
        let tys = [DataType::Int, DataType::Float];
        assert_eq!(AggFunc::CountStar.data_type(&tys), DataType::Int);
        assert_eq!(AggFunc::Sum(Expr::col(0)).data_type(&tys), DataType::Int);
        assert_eq!(AggFunc::Sum(Expr::col(1)).data_type(&tys), DataType::Float);
        assert_eq!(AggFunc::Avg(Expr::col(0)).data_type(&tys), DataType::Float);
        assert_eq!(AggFunc::Min(Expr::col(1)).data_type(&tys), DataType::Float);
    }

    #[test]
    fn reaggregation_rules() {
        assert_eq!(
            AggFunc::CountStar.reaggregate(2),
            Some(AggFunc::Sum(Expr::col(2)))
        );
        assert_eq!(
            AggFunc::Sum(Expr::col(0)).reaggregate(1),
            Some(AggFunc::Sum(Expr::col(1)))
        );
        assert_eq!(
            AggFunc::Min(Expr::col(0)).reaggregate(1),
            Some(AggFunc::Min(Expr::col(1)))
        );
        assert_eq!(AggFunc::Avg(Expr::col(0)).reaggregate(1), None);
        assert_eq!(AggFunc::CountDistinct(Expr::col(0)).reaggregate(1), None);
    }

    #[test]
    fn display() {
        assert_eq!(AggFunc::CountStar.to_string(), "count(*)");
        assert_eq!(AggFunc::Sum(Expr::col(3)).to_string(), "sum($3)");
    }

    #[test]
    fn structural_equality() {
        assert_eq!(AggFunc::Sum(Expr::col(1)), AggFunc::Sum(Expr::col(1)));
        assert_ne!(AggFunc::Sum(Expr::col(1)), AggFunc::Sum(Expr::col(2)));
        assert_ne!(AggFunc::Sum(Expr::col(1)), AggFunc::Avg(Expr::col(1)));
    }
}
