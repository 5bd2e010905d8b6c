//! Selection and projection semantics of the pipeline chain.
//!
//! Both stages ([`crate::fuse::FusedStage::Filter`] and
//! [`crate::fuse::FusedStage::Project`]) are zero-copy on the common
//! path: a filter narrows the chain's live selection instead of gathering
//! survivors, and a projection computes over the shared physical columns
//! and leaves the selection alone. Column data is only moved at a
//! pipeline breaker or store boundary — with one deliberate exception:
//! when a filter keeps fewer than 1 in [`COMPACT_FRACTION`] rows it
//! compacts immediately, because downstream expression evaluation works
//! over *physical* rows and, at very low selectivity, computing over the
//! dead rows costs more than one small gather.
//!
//! The hand-computed cases below pin those semantics against the chain,
//! over both source kinds and over dense and selection-carrying input.

/// Below `physical_rows / COMPACT_FRACTION` surviving rows a filter
/// gathers instead of narrowing the selection (see module docs).
pub const COMPACT_FRACTION: usize = 16;

#[cfg(test)]
mod tests {
    use crate::fuse::testing::*;
    use crate::op::Operator;
    use rdb_expr::Expr;
    use rdb_vector::{Batch, Column, Value};

    fn ints(groups: Vec<Vec<i64>>) -> Vec<Batch> {
        groups
            .into_iter()
            .map(|g| Batch::new(vec![Column::from_ints(g)]))
            .collect()
    }

    #[test]
    fn filter_compacts_and_skips_empty() {
        let out = run_every_way(
            vec![filter(Expr::col(0).ge(Expr::lit(4)))],
            ints(vec![vec![1, 2, 3], vec![4, 5], vec![100]]),
        );
        assert_eq!(out.column(0).as_ints(), &[4, 5, 100]);
    }

    #[test]
    fn filter_emits_selection_and_shares_columns() {
        let stages = vec![filter(Expr::col(0).ge(Expr::lit(3)))];
        let input = ints(vec![vec![1, 2, 3, 4]]);
        for mut exec in [
            over_morsels(stages.clone(), &input),
            over_operator(stages.clone(), input.clone()),
        ] {
            let out = exec.next_batch().unwrap();
            assert_eq!(out.rows(), 2);
            assert_eq!(out.sel(), Some(&[2u32, 3][..]), "selection, not a gather");
            assert_eq!(out.column(0).as_ints(), &[1, 2, 3, 4], "columns untouched");
        }
        // An input selection is narrowed in place: still no gather.
        let sparse = with_dead_rows(&input[0]);
        let out = over_operator(stages, vec![sparse.clone()])
            .next_batch()
            .unwrap();
        assert_eq!(out.sel(), Some(&[4u32, 6][..]));
        assert!(out.column(0).shares_storage(sparse.column(0)));
    }

    #[test]
    fn sparse_survivors_are_compacted() {
        // 1 survivor of 32 physical rows is below 1-in-COMPACT_FRACTION.
        let stages = vec![filter(Expr::col(0).eq(Expr::lit(7)))];
        let input = ints(vec![(0..32).collect()]);
        let out = over_operator(stages, input).next_batch().unwrap();
        assert!(out.sel().is_none(), "gathered");
        assert_eq!(out.column(0).as_ints(), &[7]);
    }

    #[test]
    fn all_true_filter_passes_batch_through() {
        let stages = vec![filter(Expr::col(0).ge(Expr::lit(0)))];
        let input = ints(vec![vec![1, 2]]);
        for mut exec in [
            over_morsels(stages.clone(), &input),
            over_operator(stages.clone(), input.clone()),
        ] {
            let out = exec.next_batch().unwrap();
            assert!(out.sel().is_none(), "all-true adds no selection");
            assert_eq!(out.rows(), 2);
        }
        // Nothing narrowed: an operator source's columns come out uncopied.
        let out = over_operator(stages.clone(), input.clone())
            .next_batch()
            .unwrap();
        assert!(out.column(0).shares_storage(input[0].column(0)));
        // Selection-carrying input keeps exactly its selection.
        let out = over_operator(stages, vec![with_dead_rows(&input[0])])
            .next_batch()
            .unwrap();
        assert_eq!(out.sel(), Some(&[0u32, 2][..]));
    }

    #[test]
    fn project_carries_selection() {
        let stages = vec![
            filter(Expr::col(0).gt(Expr::lit(10))),
            project(vec![Expr::col(0).add(Expr::lit(1))]),
        ];
        let input = ints(vec![vec![10, 20, 30]]);
        let out = over_operator(stages.clone(), input.clone())
            .next_batch()
            .unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.sel(), Some(&[1u32, 2][..]));
        let expect = vec![vec![Value::Int(21)], vec![Value::Int(31)]];
        assert_eq!(out.to_rows(), expect);
        assert_eq!(run_every_way(stages, input).to_rows(), expect);
    }

    #[test]
    fn filter_empty_result() {
        let stages = vec![filter(Expr::col(0).gt(Expr::lit(10)))];
        assert!(run_every_way(stages.clone(), ints(vec![vec![1, 2]])).is_empty());
        // A zero-row input is dropped as well, not passed on as "all rows
        // qualify": downstream operators never see empty batches.
        let mut exec = over_operator(stages, ints(vec![vec![]]));
        assert!(exec.next_batch().is_none());
    }

    #[test]
    fn project_computes_columns() {
        let stages = vec![project(vec![Expr::col(0).mul(Expr::lit(10)), Expr::col(0)])];
        let out = run_every_way(stages, ints(vec![vec![1, 2]]));
        assert_eq!(out.column(0).as_ints(), &[10, 20]);
        assert_eq!(out.column(1).as_ints(), &[1, 2]);
    }

    #[test]
    fn progress_is_the_sources() {
        let stages = vec![filter(Expr::lit(true))];
        let input = ints(vec![vec![1], vec![2]]);
        let mut exec = over_operator(stages.clone(), input.clone());
        assert_eq!(exec.progress(), 0.0);
        exec.next_batch();
        assert_eq!(exec.progress(), 0.5);
        // A dispenser meters morsels handed out (both rows fit in one).
        let mut exec = over_morsels(stages, &input);
        assert_eq!(exec.progress(), 0.0);
        exec.next_batch();
        assert_eq!(exec.progress(), 1.0);
    }
}
