//! The length-prefixed, CRC-checked frame: `[len u32][crc32 u32][payload]`.
//!
//! Frames are the unit of torn-write detection. A scan walks frames from
//! the front and stops at the first one that is incomplete (length runs
//! past the buffer) or whose CRC does not match — everything before that
//! point is trusted, everything from it on is a tail to truncate.

use crate::WalError;

/// Bytes of frame header (`len` + `crc32`).
pub const FRAME_HEADER: usize = 8;

/// Frames larger than this are treated as corruption rather than
/// allocated: a torn length field can otherwise claim gigabytes.
pub const MAX_FRAME_LEN: u32 = 256 << 20;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC-32 of `data` (the zlib/PNG polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Encode one frame around `payload`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    begin_frame(&mut out);
    out.extend_from_slice(payload);
    end_frame(&mut out);
    out
}

/// Start a frame in a reusable buffer: empty `buf` and leave room for the
/// header. The caller appends the payload and closes with [`end_frame`],
/// so a payload is encoded once, in place, with no second copy.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
}

/// Fill in the header of the frame [`begin_frame`] started in `buf`.
pub fn end_frame(buf: &mut [u8]) {
    let (header, payload) = buf.split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Read exactly one frame from `input`, leaving its payload in `buf`.
/// Input that ends early, a length beyond [`MAX_FRAME_LEN`] and a CRC
/// mismatch are all [`WalError::Corrupt`]: the caller knows how
/// many frames its file must hold.
pub fn read_frame(input: &mut impl std::io::Read, buf: &mut Vec<u8>) -> Result<(), WalError> {
    let mut exact = |dst: &mut [u8]| {
        input.read_exact(dst).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                WalError::Corrupt("frame is cut short".to_string())
            }
            _ => WalError::Io(e),
        })
    };
    let mut header = [0u8; FRAME_HEADER];
    exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(WalError::Corrupt(format!(
            "frame length {len} is beyond any frame written"
        )));
    }
    buf.resize(len as usize, 0);
    exact(buf)?;
    if crc32(buf) != crc {
        return Err(WalError::Corrupt("frame CRC mismatch".to_string()));
    }
    Ok(())
}

/// Why a frame scan stopped before the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailDefect {
    /// The last frame's bytes run past the end (torn/short write).
    Truncated,
    /// A complete frame's CRC did not match (corrupted write).
    Corrupt,
}

/// Result of scanning a byte buffer for frames.
#[derive(Debug)]
pub struct FrameScan {
    /// `(offset, len)` of each valid frame's payload, in order.
    pub payloads: Vec<(usize, usize)>,
    /// Byte length of the valid prefix (end of the last good frame).
    pub clean_len: usize,
    /// Why the scan stopped early, if it did.
    pub defect: Option<TailDefect>,
}

/// Walk `bytes` front to back, collecting every complete CRC-valid frame
/// and stopping (without panicking) at the first defect.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    let mut defect = None;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER {
            defect = Some(TailDefect::Truncated);
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            defect = Some(TailDefect::Corrupt);
            break;
        }
        let len = len as usize;
        let start = pos + FRAME_HEADER;
        if bytes.len() - start < len {
            defect = Some(TailDefect::Truncated);
            break;
        }
        if crc32(&bytes[start..start + len]) != crc {
            defect = Some(TailDefect::Corrupt);
            break;
        }
        payloads.push((start, len));
        pos = start + len;
    }
    let clean_len = if defect.is_some() {
        payloads.last().map_or(0, |&(off, len)| off + len)
    } else {
        pos
    };
    FrameScan {
        payloads,
        clean_len,
        defect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = encode_frame(b"alpha");
        buf.extend(encode_frame(b""));
        buf.extend(encode_frame(b"gamma!"));
        let scan = scan_frames(&buf);
        assert!(scan.defect.is_none());
        assert_eq!(scan.clean_len, buf.len());
        let got: Vec<&[u8]> = scan.payloads.iter().map(|&(o, l)| &buf[o..o + l]).collect();
        assert_eq!(got, vec![&b"alpha"[..], &b""[..], &b"gamma!"[..]]);
    }

    #[test]
    fn streamed_frames_roundtrip_and_report_damage() {
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        buf.extend_from_slice(b"in place");
        end_frame(&mut buf);
        assert_eq!(buf, encode_frame(b"in place"));
        let mut file = buf.clone();
        file.extend(encode_frame(b""));
        let mut input = &file[..];
        let mut payload = Vec::new();
        read_frame(&mut input, &mut payload).unwrap();
        assert_eq!(payload, b"in place");
        read_frame(&mut input, &mut payload).unwrap();
        assert!(payload.is_empty());
        // Nothing left, a cut frame, a flipped bit, an absurd length.
        assert!(read_frame(&mut input, &mut payload).is_err());
        assert!(read_frame(&mut &buf[..buf.len() - 1], &mut payload).is_err());
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(read_frame(&mut &bad[..], &mut payload).is_err());
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut &bad[..], &mut payload).is_err());
    }

    #[test]
    fn torn_tail_is_detected_not_fatal() {
        let mut buf = encode_frame(b"keep me");
        let keep = buf.len();
        let torn = encode_frame(b"torn write");
        buf.extend(&torn[..torn.len() - 3]);
        let scan = scan_frames(&buf);
        assert_eq!(scan.defect, Some(TailDefect::Truncated));
        assert_eq!(scan.clean_len, keep);
        assert_eq!(scan.payloads.len(), 1);
    }

    #[test]
    fn corrupt_crc_is_detected() {
        let mut buf = encode_frame(b"keep me");
        let keep = buf.len();
        let mut bad = encode_frame(b"bitrot victim");
        let flip = bad.len() - 1;
        bad[flip] ^= 0x40;
        buf.extend(&bad);
        let scan = scan_frames(&buf);
        assert_eq!(scan.defect, Some(TailDefect::Corrupt));
        assert_eq!(scan.clean_len, keep);
        assert_eq!(scan.payloads.len(), 1);
    }

    #[test]
    fn absurd_length_is_corruption_not_allocation() {
        let mut buf = encode_frame(b"ok");
        let keep = buf.len();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0xAB; 64]);
        let scan = scan_frames(&buf);
        assert_eq!(scan.defect, Some(TailDefect::Corrupt));
        assert_eq!(scan.clean_len, keep);
    }
}
