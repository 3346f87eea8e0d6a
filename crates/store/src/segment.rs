//! CRC-framed segment format and torn-write recovery.
//!
//! A segment is a header followed by frames:
//!
//! ```text
//! header  := magic "SITMSEG1" (8 bytes)
//! frame   := marker 0x5A | payload_len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! The scanner walks frames front to back and stops at the **first**
//! anomaly — a wrong marker, a length overrunning the buffer or the
//! 16 MiB bound, or a checksum mismatch. Everything before the anomaly is
//! returned; the anomaly offset tells the log store where to truncate.
//! This is the standard WAL tail-repair contract: a crash mid-append
//! loses at most the record being written, never an earlier one
//! (property-tested with random truncation and byte flips).

use crate::crc::crc32;

/// Segment magic, also serving as a format version. Version 1 carries
/// no offset directory: frames are discovered only by scanning front to
/// back. The log store keeps writing v1 (its records are always read
/// sequentially anyway).
pub const MAGIC: &[u8; 8] = b"SITMSEG1";

/// Version-2 segment magic: the file carries an offset directory frame
/// (see `warehouse`), so readers can open headers only and seek
/// straight to individual trajectory frames.
pub const MAGIC_V2: &[u8; 8] = b"SITMSEG2";

/// Version-3 segment magic: in addition to the v2 header frames, the
/// file persists a sort-column frame (fixed-width per-row content sort
/// keys; see `warehouse`) between the directory and rollup frames, so
/// content-key ordering never decodes unreturned rows.
pub const MAGIC_V3: &[u8; 8] = b"SITMSEG3";

/// Frame marker byte preceding every frame.
pub const FRAME_MARKER: u8 = 0x5A;

/// Hard bound on payload size; larger lengths are treated as corruption.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Per-frame overhead: marker + length + checksum.
pub const FRAME_OVERHEAD: usize = 1 + 4 + 4;

/// Why a scan stopped before the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// The buffer is shorter than the magic or carries a different one.
    BadHeader,
    /// A frame started with the wrong marker byte.
    BadMarker {
        /// Byte offset of the bad frame.
        offset: usize,
    },
    /// A frame header or payload ran past the end of the buffer (torn
    /// write).
    Torn {
        /// Byte offset of the torn frame.
        offset: usize,
    },
    /// A declared payload length exceeded [`MAX_PAYLOAD`].
    Oversized {
        /// Byte offset of the frame.
        offset: usize,
        /// Declared length.
        declared: u32,
    },
    /// The payload checksum did not match.
    BadChecksum {
        /// Byte offset of the frame.
        offset: usize,
    },
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Corruption::BadHeader => write!(f, "segment header missing or wrong"),
            Corruption::BadMarker { offset } => write!(f, "bad frame marker at {offset}"),
            Corruption::Torn { offset } => write!(f, "torn frame at {offset}"),
            Corruption::Oversized { offset, declared } => {
                write!(f, "oversized frame at {offset} ({declared} bytes)")
            }
            Corruption::BadChecksum { offset } => write!(f, "checksum mismatch at {offset}"),
        }
    }
}

/// Result of scanning a segment buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome<'a> {
    /// Payloads of every intact frame, in order.
    pub payloads: Vec<&'a [u8]>,
    /// Bytes of the buffer covered by the header and intact frames — the
    /// safe truncation point.
    pub valid_len: usize,
    /// The anomaly that stopped the scan, if the buffer did not end
    /// cleanly.
    pub corruption: Option<Corruption>,
}

/// Appends the segment header to an empty buffer.
pub fn write_header(buf: &mut Vec<u8>) {
    buf.extend_from_slice(MAGIC);
}

/// Appends the version-2 segment header to an empty buffer.
pub fn write_header_v2(buf: &mut Vec<u8>) {
    buf.extend_from_slice(MAGIC_V2);
}

/// Appends the version-3 segment header to an empty buffer.
pub fn write_header_v3(buf: &mut Vec<u8>) {
    buf.extend_from_slice(MAGIC_V3);
}

/// The header layout, in one place: `marker | payload_len u32 LE |
/// crc u32 LE`. [`write_frame`] appends it ahead of a payload; the
/// network tier patches it over the bytes it reserved ahead of a
/// message encoded in place (and passes its second marker).
pub fn frame_header(marker: u8, payload_len: u32, crc: u32) -> [u8; FRAME_OVERHEAD] {
    let mut header = [0u8; FRAME_OVERHEAD];
    header[0] = marker;
    header[1..5].copy_from_slice(&payload_len.to_le_bytes());
    header[5..9].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Appends one frame.
pub fn write_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "payload exceeds MAX_PAYLOAD"
    );
    buf.extend_from_slice(&frame_header(
        FRAME_MARKER,
        payload.len() as u32,
        crc32(payload),
    ));
    buf.extend_from_slice(payload);
}

/// Scans a segment buffer, validating the header and every frame.
/// Accepts any format version — the frame layout is identical; the
/// versions differ only in which frames a writer emits.
pub fn scan(data: &[u8]) -> ScanOutcome<'_> {
    if data.len() < MAGIC.len()
        || (&data[..MAGIC.len()] != MAGIC
            && &data[..MAGIC.len()] != MAGIC_V2
            && &data[..MAGIC.len()] != MAGIC_V3)
    {
        return ScanOutcome {
            payloads: Vec::new(),
            valid_len: 0,
            corruption: Some(Corruption::BadHeader),
        };
    }
    let mut payloads = Vec::new();
    let mut offset = MAGIC.len();
    while offset < data.len() {
        let frame_start = offset;
        if data[offset] != FRAME_MARKER {
            return ScanOutcome {
                payloads,
                valid_len: frame_start,
                corruption: Some(Corruption::BadMarker {
                    offset: frame_start,
                }),
            };
        }
        if data.len() - offset < FRAME_OVERHEAD {
            return ScanOutcome {
                payloads,
                valid_len: frame_start,
                corruption: Some(Corruption::Torn {
                    offset: frame_start,
                }),
            };
        }
        let len = u32::from_le_bytes(data[offset + 1..offset + 5].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(data[offset + 5..offset + 9].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return ScanOutcome {
                payloads,
                valid_len: frame_start,
                corruption: Some(Corruption::Oversized {
                    offset: frame_start,
                    declared: len,
                }),
            };
        }
        let body_start = offset + FRAME_OVERHEAD;
        let body_end = body_start + len as usize;
        if body_end > data.len() {
            return ScanOutcome {
                payloads,
                valid_len: frame_start,
                corruption: Some(Corruption::Torn {
                    offset: frame_start,
                }),
            };
        }
        let payload = &data[body_start..body_end];
        if crc32(payload) != crc {
            return ScanOutcome {
                payloads,
                valid_len: frame_start,
                corruption: Some(Corruption::BadChecksum {
                    offset: frame_start,
                }),
            };
        }
        payloads.push(payload);
        offset = body_end;
    }
    ScanOutcome {
        payloads,
        valid_len: data.len(),
        corruption: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_header(&mut buf);
        for p in payloads {
            write_frame(&mut buf, p);
        }
        buf
    }

    #[test]
    fn clean_round_trip() {
        let buf = segment(&[b"alpha", b"", b"gamma-delta"]);
        let out = scan(&buf);
        assert_eq!(out.payloads, vec![b"alpha".as_slice(), b"", b"gamma-delta"]);
        assert_eq!(out.valid_len, buf.len());
        assert_eq!(out.corruption, None);
    }

    #[test]
    fn empty_segment_is_clean() {
        let buf = segment(&[]);
        let out = scan(&buf);
        assert!(out.payloads.is_empty());
        assert_eq!(out.corruption, None);
    }

    #[test]
    fn missing_or_wrong_header() {
        assert_eq!(scan(b"").corruption, Some(Corruption::BadHeader));
        assert_eq!(scan(b"SITM").corruption, Some(Corruption::BadHeader));
        assert_eq!(scan(b"WRONGMAG").corruption, Some(Corruption::BadHeader));
        assert_eq!(scan(b"SITMSEG9").corruption, Some(Corruption::BadHeader));
    }

    #[test]
    fn v2_header_scans_with_the_same_frame_layout() {
        let mut buf = Vec::new();
        write_header_v2(&mut buf);
        write_frame(&mut buf, b"zone");
        write_frame(&mut buf, b"dir");
        let out = scan(&buf);
        assert_eq!(out.payloads, vec![b"zone".as_slice(), b"dir"]);
        assert_eq!(out.corruption, None);
        assert_eq!(out.valid_len, buf.len());
    }

    #[test]
    fn v3_header_scans_with_the_same_frame_layout() {
        let mut buf = Vec::new();
        write_header_v3(&mut buf);
        write_frame(&mut buf, b"zone");
        write_frame(&mut buf, b"dir");
        write_frame(&mut buf, b"sort");
        let out = scan(&buf);
        assert_eq!(out.payloads, vec![b"zone".as_slice(), b"dir", b"sort"]);
        assert_eq!(out.corruption, None);
        assert_eq!(out.valid_len, buf.len());
    }

    #[test]
    fn torn_tail_keeps_earlier_frames() {
        let buf = segment(&[b"first", b"second"]);
        // Cut inside the second frame, at every possible point.
        let first_end = MAGIC.len() + FRAME_OVERHEAD + 5;
        for cut in first_end + 1..buf.len() {
            let out = scan(&buf[..cut]);
            assert_eq!(out.payloads, vec![b"first".as_slice()], "cut at {cut}");
            assert_eq!(out.valid_len, first_end);
            assert!(matches!(out.corruption, Some(Corruption::Torn { .. })));
        }
    }

    #[test]
    fn payload_corruption_is_caught_by_crc() {
        let mut buf = segment(&[b"first", b"second"]);
        let second_body = buf.len() - 6; // inside "second"
        buf[second_body] ^= 0x01;
        let out = scan(&buf);
        assert_eq!(out.payloads, vec![b"first".as_slice()]);
        assert!(matches!(
            out.corruption,
            Some(Corruption::BadChecksum { .. })
        ));
    }

    #[test]
    fn marker_corruption_stops_scan() {
        let mut buf = segment(&[b"first", b"second"]);
        let second_frame = MAGIC.len() + FRAME_OVERHEAD + 5;
        buf[second_frame] = 0x00;
        let out = scan(&buf);
        assert_eq!(out.payloads.len(), 1);
        assert_eq!(
            out.corruption,
            Some(Corruption::BadMarker {
                offset: second_frame
            })
        );
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = segment(&[]);
        buf.push(FRAME_MARKER);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let out = scan(&buf);
        assert!(
            matches!(out.corruption, Some(Corruption::Oversized { declared, .. }) if declared == u32::MAX)
        );
        assert_eq!(out.valid_len, MAGIC.len());
    }

    #[test]
    fn valid_len_is_append_point() {
        // Scanning, truncating to valid_len, and appending a frame must
        // yield a clean segment containing old-prefix + new frame.
        let mut buf = segment(&[b"keep", b"lost"]);
        buf.truncate(buf.len() - 2); // tear the second frame
        let out = scan(&buf);
        let mut repaired = buf[..out.valid_len].to_vec();
        write_frame(&mut repaired, b"appended");
        let out2 = scan(&repaired);
        assert_eq!(out2.payloads, vec![b"keep".as_slice(), b"appended"]);
        assert_eq!(out2.corruption, None);
    }
}
