//! Engine façades tying plans, the recycler, and the executor together.
//!
//! * [`Engine`] — the pipelined, vector-at-a-time engine the paper targets.
//!   Built via [`EngineBuilder`]; queried through sessions: [`Session`]
//!   prepares statements ([`Prepared`]) whose executions stream results
//!   batch-at-a-time through [`QueryHandle`] (`Iterator<Item = Batch>`).
//!   Supports concurrent query streams with a Vectorwise-style admission
//!   limit ("Vectorwise was set up to execute 12 queries in parallel"),
//!   held as an RAII slot for the lifetime of each query handle.
//! * [`MaterializingEngine`] — the operator-at-a-time comparison baseline
//!   (MonetDB-style, after Ivanova et al. \[10\]): every operator fully
//!   materializes its result, and with recycling enabled every intermediate
//!   is admitted to the cache and matched directly against cached results.

pub mod durability;
pub mod engine;
pub mod materializing;
pub mod session;
pub mod subscribe;

pub use durability::{
    DurabilityConfig, DurabilityStats, FsyncPolicy, IoFault, NoFault, ScriptedFault, WalError,
};
pub use engine::{
    AdmissionSnapshot, Engine, EngineBuilder, EngineConfig, QueryOutcome, QueryRecord,
    StreamsReport, WorkloadQuery, WriteKind, WriteOutcome,
};
pub use materializing::{MatOutcome, MaterializingEngine};
pub use session::{
    BatchStream, Prepared, QueryHandle, Session, SessionStats, SessionStatsSnapshot, SqlOutcome,
};
pub use subscribe::{DeltaEvent, Subscription};
