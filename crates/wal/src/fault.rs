//! Fault injection for the WAL and checkpoint writers.
//!
//! Every physical write and fsync the WAL and the checkpoint writer
//! perform is routed through an [`IoFault`] first, so tests (and the
//! crash harness) can simulate the disk failing in the ways real disks
//! fail: torn writes (a prefix of the frame lands), short writes, fsync
//! errors, and disk-full — all without a real faulty device — and can
//! count the bytes a piece of work puts on disk. Production uses
//! [`NoFault`], which compiles down to nothing.

use std::sync::atomic::{AtomicU64, Ordering};

/// What an injected fault does to one frame write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Write the full frame normally.
    Allow,
    /// Write only the first `bytes` of the frame, then fail the call —
    /// a torn/short write: the partial bytes *do* land on disk, so
    /// recovery must detect and truncate them.
    Short {
        /// Prefix length that reaches the disk.
        bytes: usize,
    },
    /// Write nothing and fail with `ENOSPC` (disk full).
    DiskFull,
}

/// Decides the fate of each WAL write and fsync. Threaded through the
/// writer; see the module docs.
pub trait IoFault: Send + Sync {
    /// Called before each physical write with its length in bytes.
    fn on_write(&self, len: usize) -> WriteFault {
        let _ = len;
        WriteFault::Allow
    }

    /// Called before each fsync; returning `true` fails the fsync.
    fn on_fsync(&self) -> bool {
        false
    }
}

/// Write `bytes` to `out` the way `fault` decides: whole, as a torn
/// prefix followed by an error, or not at all.
pub(crate) fn write_through(
    fault: &dyn IoFault,
    out: &mut impl std::io::Write,
    bytes: &[u8],
) -> std::io::Result<()> {
    use std::io::{Error, ErrorKind};
    match fault.on_write(bytes.len()) {
        WriteFault::Allow => out.write_all(bytes),
        WriteFault::Short { bytes: landed } => {
            // The torn prefix lands on disk — recovery must cope.
            let _ = out.write_all(&bytes[..landed]);
            Err(Error::new(ErrorKind::WriteZero, "injected torn write"))
        }
        WriteFault::DiskFull => Err(Error::new(ErrorKind::StorageFull, "injected disk full")),
    }
}

/// Fsync `file` unless `fault` fails the call.
pub(crate) fn sync_through(fault: &dyn IoFault, file: &std::fs::File) -> std::io::Result<()> {
    if fault.on_fsync() {
        return Err(std::io::Error::other("injected fsync failure"));
    }
    file.sync_data()
}

/// The production fault layer: never fails anything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFault;

impl IoFault for NoFault {}

/// A scripted injector: fail the `i`-th write (0-based, counting every
/// frame write) and/or the `j`-th fsync, in a chosen mode. Earlier and
/// later operations succeed, which is exactly how a single media error
/// presents.
#[derive(Debug, Default)]
pub struct ScriptedFault {
    writes: AtomicU64,
    syncs: AtomicU64,
    /// Index of the write to fail, if any.
    pub fail_write_at: Option<u64>,
    /// If set, the failing write lands this many prefix bytes (torn
    /// write); if unset, it is a disk-full (nothing lands).
    pub torn_bytes: Option<usize>,
    /// Index of the fsync to fail, if any.
    pub fail_fsync_at: Option<u64>,
}

impl ScriptedFault {
    /// Fail the `n`-th write as disk-full.
    pub fn disk_full_at(n: u64) -> ScriptedFault {
        ScriptedFault {
            fail_write_at: Some(n),
            ..ScriptedFault::default()
        }
    }

    /// Fail the `n`-th write as a torn write landing `bytes` bytes.
    pub fn torn_at(n: u64, bytes: usize) -> ScriptedFault {
        ScriptedFault {
            fail_write_at: Some(n),
            torn_bytes: Some(bytes),
            ..ScriptedFault::default()
        }
    }

    /// Fail the `n`-th fsync.
    pub fn fsync_fail_at(n: u64) -> ScriptedFault {
        ScriptedFault {
            fail_fsync_at: Some(n),
            ..ScriptedFault::default()
        }
    }

    /// Writes observed so far.
    pub fn writes_seen(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Fsyncs observed so far.
    pub fn syncs_seen(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

impl IoFault for ScriptedFault {
    fn on_write(&self, len: usize) -> WriteFault {
        let i = self.writes.fetch_add(1, Ordering::Relaxed);
        if Some(i) == self.fail_write_at {
            match self.torn_bytes {
                Some(bytes) => WriteFault::Short {
                    bytes: bytes.min(len.saturating_sub(1)),
                },
                None => WriteFault::DiskFull,
            }
        } else {
            WriteFault::Allow
        }
    }

    fn on_fsync(&self) -> bool {
        let i = self.syncs.fetch_add(1, Ordering::Relaxed);
        Some(i) == self.fail_fsync_at
    }
}
