//! The correctness oracle: a second engine with the recycler off, run
//! serially over the same table versions, whose answers sampled results
//! must equal cell for cell. Results are compared in the wire's text
//! rendering, so embedded and wire statements share one check.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rdb_engine::{Engine, QueryHandle};
use rdb_expr::Params;
use rdb_plan::Plan;
use rdb_server::protocol::text_value;
use rdb_storage::Catalog;
use rdb_vector::Batch;

use crate::measure::Report;

/// Result rows as the wire renders them (`None` = NULL).
pub type TextRows = Vec<Vec<Option<String>>>;

/// Render a batch the way the server's `DataRow` encoder does.
pub fn text_rows(batch: &Batch) -> TextRows {
    batch
        .to_rows()
        .iter()
        .map(|row| row.iter().map(text_value).collect())
        .collect()
}

/// A recycler-free, DOP-1 engine over `catalog`.
pub struct Oracle {
    engine: Arc<Engine>,
}

impl Oracle {
    /// An oracle reading the catalog's current (and future) table
    /// versions. Only meaningful while no write is in flight.
    pub fn over(catalog: Arc<Catalog>) -> Oracle {
        Oracle {
            engine: Engine::builder(catalog)
                .no_recycler()
                .parallelism(1)
                .build(),
        }
    }

    /// An oracle pinned to the table versions `handle` reads, whatever
    /// commits afterwards.
    pub fn at(handle: &QueryHandle) -> Oracle {
        Oracle::over(Arc::new(handle.snapshot().to_catalog()))
    }

    /// The answer to a SQL query.
    pub fn sql(&self, sql: &str, params: &Params) -> Result<TextRows, String> {
        let handle = self
            .engine
            .session()
            .sql(sql, params)
            .map_err(|e| e.render(sql))?
            .into_rows()
            .ok_or_else(|| format!("oracle asked to run DML: {sql}"))?;
        Ok(text_rows(&handle.collect_batch()))
    }

    /// The answer to a builder plan.
    pub fn plan(&self, plan: &Plan) -> Result<TextRows, String> {
        let handle = self
            .engine
            .session()
            .query(plan)
            .map_err(|e| e.to_string())?;
        Ok(text_rows(&handle.collect_batch()))
    }
}

/// Describe the first difference between two results, if any.
pub fn difference(got: &TextRows, want: &TextRows) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} rows, oracle has {}", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .map(|i| format!("row {i}: {:?}, oracle has {:?}", got[i], want[i]))
}

/// What a sampled result keeps until the run's measuring is over: its row
/// count and a hash of its text. Holding the rows themselves would add
/// the harness's memory to the peak RSS the run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    rows: usize,
    hash: u64,
}

impl Digest {
    pub fn of(rows: &TextRows) -> Digest {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        rows.hash(&mut hasher);
        Digest {
            rows: rows.len(),
            hash: hasher.finish(),
        }
    }

    /// Describe how the digested result differs from the oracle's, if it
    /// does.
    pub fn difference(&self, want: &TextRows) -> Option<String> {
        if self.rows != want.len() {
            Some(format!("{} rows, oracle has {}", self.rows, want.len()))
        } else if *self != Digest::of(want) {
            Some(format!(
                "{} rows like the oracle's, but their text differs",
                self.rows
            ))
        } else {
            None
        }
    }
}

/// Count one oracle check on `report`: `differs` describes how the result
/// under test differs from the oracle's answer `want`, if it does; `what`
/// names the statement for the failure message.
pub fn check(
    report: &mut Report,
    want: &Result<TextRows, String>,
    differs: impl FnOnce(&TextRows) -> Option<String>,
    what: impl FnOnce() -> String,
) {
    let verdict = match want {
        Ok(want) => differs(want),
        Err(e) => Some(e.clone()),
    };
    report.check(verdict.is_none(), || {
        format!("{}: {}", what(), verdict.as_deref().unwrap_or_default())
    });
}
