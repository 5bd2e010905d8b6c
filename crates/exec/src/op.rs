//! The pull interface and execution helpers.

use std::sync::Arc;
use std::time::Instant;

use rdb_vector::Batch;

use crate::error::{ExecError, FailSlot};
use crate::metrics::OpMetrics;

/// A pull-based, vector-at-a-time operator. Two implement it: a
/// [`crate::Pipeline`], pulled at the stream edge (and as a union arm),
/// and a [`BlockingExec`], a breaker's folded output pulled by the chain
/// above it. Everything else runs inside a chain.
///
/// `next_batch` returns `None` when exhausted. `progress` is the paper's
/// *progress meter* (§III-D): a pipeline reports its source's completion
/// fraction, a breaker the fraction of its output emitted.
pub trait Operator: Send {
    /// Produce the next batch, or `None` at end of stream.
    fn next_batch(&mut self) -> Option<Batch>;

    /// Completion fraction in `[0, 1]`.
    fn progress(&self) -> f64;
}

/// Measure one pull inclusively into `metrics`: time, one call, and the
/// rows and bytes returned — how a breaker and a union node are charged,
/// so `metrics.time_ns` is the inclusive subtree cost.
pub(crate) fn timed_next(metrics: &OpMetrics, f: impl FnOnce() -> Option<Batch>) -> Option<Batch> {
    let start = Instant::now();
    let out = f();
    metrics.add_time(start.elapsed().as_nanos() as u64);
    metrics.add_call();
    if let Some(b) = &out {
        metrics.add_rows(b.rows() as u64);
        metrics.add_bytes(b.size_bytes() as u64);
    }
    out
}

/// What a [`BlockingExec`] runs on its first pull: its whole output.
type BuildFn = Box<dyn FnOnce() -> Result<Vec<Batch>, ExecError> + Send>;

/// A pipeline breaker's output: builds it whole on the first pull, then
/// streams it as the source of the chain above. Every blocking operator
/// is one — hash aggregation, top-N and sort (fold sinks over their input
/// pipeline, `crate::parallel::fold_input`) and a table-function scan
/// ([`crate::scan::fn_scan`]). A cached result is no breaker: it is read
/// through a morsel dispenser.
///
/// The build runs inside the first pull, which is timed inclusively, so
/// the node's time includes its input's. `progress` reads 0 before the build and
/// emitted/len after it (1 for an empty output). A build that returns
/// `Err` records it in the fail slot and ends the stream with no rows.
pub struct BlockingExec {
    build: Option<BuildFn>,
    output: std::vec::IntoIter<Batch>,
    len: usize,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
}

impl BlockingExec {
    /// A breaker that runs `build` on its first pull.
    pub fn new(
        build: impl FnOnce() -> Result<Vec<Batch>, ExecError> + Send + 'static,
        metrics: Arc<OpMetrics>,
        fail: Arc<FailSlot>,
    ) -> BlockingExec {
        BlockingExec {
            build: Some(Box::new(build)),
            output: Vec::new().into_iter(),
            len: 0,
            metrics,
            fail,
        }
    }
}

impl Operator for BlockingExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if let Some(build) = self.build.take() {
                match build() {
                    Ok(output) => {
                        self.len = output.len();
                        self.output = output.into_iter();
                    }
                    Err(e) => self.fail.set(e),
                }
            }
            self.output.next()
        })
    }

    fn progress(&self) -> f64 {
        if self.build.is_some() {
            0.0
        } else if self.len == 0 {
            1.0
        } else {
            (self.len - self.output.len()) as f64 / self.len as f64
        }
    }
}

/// Drain an operator into a vector of batches.
pub fn collect_all(op: &mut dyn Operator) -> Vec<Batch> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch() {
        out.push(b);
    }
    out
}

/// Drain an operator and concatenate into a single batch (empty batch if no
/// rows were produced and the width is unknown).
pub fn run_to_batch(op: &mut dyn Operator) -> Batch {
    let batches = collect_all(op);
    if batches.is_empty() {
        Batch::empty()
    } else {
        Batch::concat(&batches)
    }
}

/// The replay stub this crate's unit tests feed operators from.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Replays fixed batches; progress is the fraction handed out.
    pub(crate) struct BatchSource {
        batches: std::collections::VecDeque<Batch>,
        total: usize,
    }

    impl BatchSource {
        pub(crate) fn boxed(batches: Vec<Batch>) -> Box<dyn Operator> {
            let total = batches.len();
            Box::new(BatchSource {
                batches: batches.into(),
                total,
            })
        }
    }

    impl Operator for BatchSource {
        fn next_batch(&mut self) -> Option<Batch> {
            self.batches.pop_front()
        }
        fn progress(&self) -> f64 {
            1.0 - self.batches.len() as f64 / self.total.max(1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::BatchSource;
    use super::*;
    use rdb_vector::Column;

    #[test]
    fn collect_and_concat() {
        let b1 = Batch::new(vec![Column::from_ints(vec![1, 2])]);
        let b2 = Batch::new(vec![Column::from_ints(vec![3])]);
        let all = run_to_batch(BatchSource::boxed(vec![b1, b2]).as_mut());
        assert_eq!(all.column(0).as_ints(), &[1, 2, 3]);
        assert!(run_to_batch(BatchSource::boxed(vec![]).as_mut()).is_empty());
    }

    #[test]
    fn timed_next_counts() {
        let m = OpMetrics::default();
        let out = timed_next(&m, || {
            Some(Batch::new(vec![Column::from_ints(vec![1, 2, 3])]))
        });
        assert_eq!(out.unwrap().rows(), 3);
        assert_eq!(m.rows_out(), 3);
        assert_eq!(m.calls.load(std::sync::atomic::Ordering::Relaxed), 1);
    }
}
