//! Durability for the epoch-versioned storage layer: a write-ahead log of
//! table commits, chunk-granular columnar checkpoints with persisted
//! recycler lineage, and crash recovery that replays both.
//!
//! # On-disk format
//!
//! A data directory holds numbered **segment files** and at most one
//! **checkpoint**: a manifest and the chunk files it names.
//!
//! ```text
//! data/
//!   wal-000001.seg      segment: "RDBWAL01" magic + seq, then frames
//!   wal-000002.seg
//!   checkpoint.bin      manifest: "RDBCKPT2" magic, one CRC-framed body
//!   chunk-00000001.col  one table chunk: "RDBCHNK1" magic, CRC-framed columns
//!   chunk-00000002.col
//! ```
//!
//! Every record in a segment is a **frame**:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. A frame payload is one
//! [`Commit`], the value the committing table built and handed to this
//! log: kind (append / delete / replace), table name, the schema it
//! committed under (so replay detects drift), the epoch it produced, then
//! an append's or a replacement's rows, written row-major from its
//! columns, or a delete's row positions. Replay decodes the same type,
//! type-checking the logged values against the logged schema. The manifest
//! carries every base table (name, epoch, schema, ordered chunk ids) plus
//! the top-K benefit entries of the recycler cache as [`LineageEntry`]
//! lineage — plans and statistics, not result bytes; each chunk file holds
//! one immutable table chunk as columns and is written once (see
//! [`checkpoint`]).
//!
//! # Logging and recovery contract
//!
//! The WAL implements [`CommitHook`] and is installed on every
//! [`rdb_storage::VersionedTable`]: each epoch commit is appended (and,
//! policy permitting, fsynced) **before the version pointer swap**, under
//! the table's write lock — so per table, the log order is exactly the
//! epoch order, with no gaps. Recovery ([`recover()`]) loads the
//! checkpoint, then replays every surviving segment in order, applying
//! records whose epoch exceeds the recovered table's. A torn or corrupt
//! tail — short frame, CRC mismatch, impossible length — is detected,
//! **cleanly truncated to the last complete record**, and reported; it is
//! never a panic. Recovered state is therefore always a prefix of the
//! committed epoch sequence.
//!
//! # Fsync policy trade-offs
//!
//! * [`FsyncPolicy::Always`] — fsync inside every commit. An
//!   acknowledged write is durable; a crash loses nothing acknowledged.
//!   Each commit pays a device flush, and readers of the committing
//!   table can block behind it for the duration of the swap-lock hold.
//! * [`FsyncPolicy::EveryN`] — fsync once per `n` appends. Bounded loss
//!   window (at most `n − 1` acknowledged commits), a fraction of the
//!   flush cost.
//! * [`FsyncPolicy::Off`] — never fsync explicitly; the OS page cache
//!   decides. Fastest, loses up to everything since the last writeback
//!   on power failure — but still torn-tail safe: whatever prefix did
//!   reach the disk recovers cleanly.
//!
//! # Read-only degradation
//!
//! Any WAL write or fsync failure **poisons** the log: the failing
//! commit is aborted (the in-memory version is *not* swapped, so memory
//! and log never disagree), and every later append fails fast with
//! [`WalError::Poisoned`]. The engine maps this to its structured
//! read-only error (SQLSTATE `25006` over the wire): reads — which never
//! touch the WAL — keep serving snapshots, writes are rejected until the
//! operator replaces the volume and restarts. Degradation is a mode, not
//! a crash.
//!
//! [`Commit`]: rdb_storage::Commit
//! [`CommitHook`]: rdb_storage::CommitHook
//! [`LineageEntry`]: rdb_recycler::LineageEntry

use std::fmt;
use std::time::Duration;

pub mod checkpoint;
pub mod codec;
pub mod fault;
pub mod frame;
pub mod recover;
pub mod segment;
pub mod wal;

pub use checkpoint::{
    read_checkpoint, read_chunk, Checkpoint, CheckpointWriter, ChunkRef, TableCheckpoint,
};
pub use fault::{IoFault, NoFault, ScriptedFault, WriteFault};
pub use recover::{recover, RecoveryReport};
pub use wal::Wal;

/// When the WAL flushes appended records to stable storage. See the
/// crate docs for the trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync inside every commit: zero acknowledged-write loss.
    Always,
    /// Fsync once per `n` appends: loss window of at most `n − 1`
    /// acknowledged commits.
    EveryN(u32),
    /// Never fsync explicitly; the OS decides when dirty pages land.
    Off,
}

/// Segment rotation threshold in bytes: an append that would carry a
/// non-empty segment past it goes to a new segment.
pub const SEGMENT_BYTES: u64 = 8 << 20;

/// Durability tuning knobs, consumed by `EngineBuilder::durability`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Flush policy (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Background checkpoint trigger: WAL bytes appended since the last
    /// checkpoint (default 4 MiB).
    pub checkpoint_threshold_bytes: u64,
    /// Whether the engine runs the background checkpointer (default on;
    /// manual `Engine::checkpoint` works either way).
    pub auto_checkpoint: bool,
    /// Background checkpointer poll interval (default 250 ms).
    pub checkpoint_poll: Duration,
    /// How many top-benefit recycler entries to checkpoint as lineage and
    /// re-execute on recovery (default 16).
    pub warm_top_k: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_threshold_bytes: 4 << 20,
            auto_checkpoint: true,
            checkpoint_poll: Duration::from_millis(250),
            warm_top_k: 16,
        }
    }
}

/// Errors from WAL append, checkpointing, and recovery.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes that should be readable are not (bad magic, CRC
    /// mismatch mid-log, replay gap, undecodable payload).
    Corrupt(String),
    /// The log was poisoned by an earlier I/O failure; no further
    /// appends are accepted (the engine is read-only).
    Poisoned,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corruption: {m}"),
            WalError::Poisoned => write!(
                f,
                "wal is poisoned by an earlier write failure; engine is read-only"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}
