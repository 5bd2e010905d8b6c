//! Segment files: naming, headers, and scanning.
//!
//! A segment starts with a 16-byte header — the magic `"RDBWAL01"` and
//! the segment's sequence number (`u64` LE) — followed by frames (see
//! [`crate::frame`]). Sequence numbers are strictly increasing across a
//! data directory; recovery replays segments in sequence order.

use std::io::Read;
use std::path::{Path, PathBuf};

use rdb_storage::Commit;

use crate::frame::{scan_frames, TailDefect};
use crate::{codec, WalError};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"RDBWAL01";

/// Segment header length: magic + sequence number.
pub const SEGMENT_HEADER: u64 = 16;

/// File name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:06}.seg")
}

/// Parse a segment sequence number out of a file name.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    rest.parse().ok()
}

/// All segment files in `dir`, sorted by sequence number.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// The segment header bytes for sequence `seq`.
pub fn segment_header(seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER as usize);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out
}

/// Whether `path` begins with a complete, well-formed segment header.
/// A short or wrong-magic header means the segment's creation never
/// durably completed (the header is synced before any record append is
/// acknowledged), so the file provably holds no acknowledged records —
/// callers delete it rather than scanning.
pub fn header_intact(path: &Path) -> Result<bool, WalError> {
    let mut head = [0u8; SEGMENT_HEADER as usize];
    let mut f = std::fs::File::open(path)?;
    let mut filled = 0;
    while filled < head.len() {
        let n = f.read(&mut head[filled..])?;
        if n == 0 {
            return Ok(false); // short header
        }
        filled += n;
    }
    Ok(&head[..8] == SEGMENT_MAGIC)
}

/// One scanned segment: its decoded records and tail diagnosis.
#[derive(Debug)]
pub struct SegmentScan {
    /// Sequence number from the header.
    pub seq: u64,
    /// Every complete, CRC-valid record, in log order.
    pub records: Vec<Commit>,
    /// Byte length of the valid prefix (header + good frames).
    pub clean_len: u64,
    /// Total file length on disk.
    pub total_len: u64,
    /// Tail defect, if the scan stopped before the end.
    pub defect: Option<TailDefect>,
}

impl SegmentScan {
    /// Whether the file carries garbage past the valid prefix.
    pub fn has_tail_garbage(&self) -> bool {
        self.defect.is_some() || self.clean_len < self.total_len
    }
}

/// Read and scan one segment file. Torn or corrupt tails are reported,
/// not fatal; a bad *header* is fatal (the file is not a segment).
pub fn scan_segment(path: &Path) -> Result<SegmentScan, WalError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let total_len = bytes.len() as u64;
    if bytes.len() < SEGMENT_HEADER as usize || &bytes[..8] != SEGMENT_MAGIC {
        return Err(WalError::Corrupt(format!(
            "{} is not a WAL segment (bad or short header)",
            path.display()
        )));
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let body = &bytes[SEGMENT_HEADER as usize..];
    let scan = scan_frames(body);
    let mut records = Vec::with_capacity(scan.payloads.len());
    let mut clean_len = SEGMENT_HEADER;
    let mut defect = scan.defect;
    for &(off, len) in &scan.payloads {
        match codec::decode_record(&body[off..off + len]) {
            Ok(rec) => {
                records.push(rec);
                clean_len = SEGMENT_HEADER + (off + len) as u64;
            }
            // A frame whose CRC matches but whose payload does not decode
            // is treated like a corrupt tail: keep the prefix before it.
            Err(_) => {
                defect = Some(TailDefect::Corrupt);
                break;
            }
        }
    }
    Ok(SegmentScan {
        seq,
        records,
        clean_len,
        total_len,
        defect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrip() {
        assert_eq!(segment_file_name(7), "wal-000007.seg");
        assert_eq!(parse_segment_name("wal-000007.seg"), Some(7));
        assert_eq!(parse_segment_name("wal-1000000.seg"), Some(1_000_000));
        assert_eq!(parse_segment_name("checkpoint.bin"), None);
        assert_eq!(parse_segment_name("wal-x.seg"), None);
    }
}
