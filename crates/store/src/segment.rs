//! CRC frames, the log header, and torn-write recovery.
//!
//! Every durable artifact in this crate is a magic followed by frames:
//!
//! ```text
//! frame   := marker 0x5A | payload_len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! Record logs ([`crate::log`]: checkpoints, the warehouse manifest, the
//! object index) open with the magic `SITMSEG1` ([`MAGIC`]); warehouse
//! segment files open with `SITMSEG3` and a fixed run of header frames,
//! a layout only `warehouse::format` knows. The frame itself has one
//! writer, [`frame_header`], and one validator, [`read_frame`]: every
//! reader in the crate — the log scanner here, the segment files'
//! headers-only open, single-row read and whole-run decode — calls it,
//! so a damaged frame gets the same verdict wherever it is met.
//!
//! The scanner walks a log's frames front to back and stops at the
//! **first** anomaly — a wrong marker, a length overrunning the buffer
//! or the 16 MiB bound, or a checksum mismatch. Everything before the
//! anomaly is returned; the anomaly offset tells the log store where to
//! truncate. This is the standard WAL tail-repair contract: a crash
//! mid-append loses at most the record being written, never an earlier
//! one (property-tested with random truncation and byte flips).

use crate::crc::crc32;

/// The magic every record log opens with. Frames behind it are
/// discovered only by scanning front to back.
pub const MAGIC: &[u8; 8] = b"SITMSEG1";

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

/// Result of scanning a log buffer.
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

/// Appends the log header to an empty buffer.
pub fn write_header(buf: &mut Vec<u8>) {
    buf.extend_from_slice(MAGIC);
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

/// Splits the 8 header bytes after a frame's marker into the declared
/// payload length and checksum — the one reader of the layout
/// [`frame_header`] writes, shared with the network tier (which checks
/// its own markers and bounds around it).
pub fn split_frame_header(after_marker: &[u8; FRAME_OVERHEAD - 1]) -> (u32, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *after_marker;
    (
        u32::from_le_bytes([l0, l1, l2, l3]),
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
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

/// Decodes the header of the frame that starts `data`: marker, then
/// header present, then the [`MAX_PAYLOAD`] bound. Returns the declared
/// payload length and checksum; the body is not looked at, so a reader
/// that has only the header bytes in hand (a file-backed open) learns
/// here how many more to fetch before calling [`read_frame`]. `offset`
/// is where the frame sits in its file, for the verdict.
pub(crate) fn parse_frame_header(data: &[u8], offset: usize) -> Result<(usize, u32), Corruption> {
    let Some(&marker) = data.first() else {
        return Err(Corruption::Torn { offset });
    };
    if marker != FRAME_MARKER {
        return Err(Corruption::BadMarker { offset });
    }
    let Some(after_marker) = data.get(1..FRAME_OVERHEAD) else {
        return Err(Corruption::Torn { offset });
    };
    let (len, crc) = split_frame_header(after_marker.try_into().expect("8 bytes"));
    if len > MAX_PAYLOAD {
        return Err(Corruption::Oversized {
            offset,
            declared: len,
        });
    }
    Ok((len as usize, crc))
}

/// Validates the frame that starts `data` — the reader twin of
/// [`frame_header`]: marker, header present, [`MAX_PAYLOAD`] (before
/// anything is sized by the declared length), body present, checksum.
/// Returns the payload, borrowed, and the frame's whole length; or the
/// first anomaly, placed at `offset` — where the caller says the frame
/// sits in its file. Bytes after the frame are ignored, and nothing is
/// allocated.
pub fn read_frame(data: &[u8], offset: usize) -> Result<(&[u8], usize), Corruption> {
    let (len, crc) = parse_frame_header(data, offset)?;
    let Some(payload) = data.get(FRAME_OVERHEAD..FRAME_OVERHEAD + len) else {
        return Err(Corruption::Torn { offset });
    };
    if crc32(payload) != crc {
        return Err(Corruption::BadChecksum { offset });
    }
    Ok((payload, FRAME_OVERHEAD + len))
}

/// Scans a log buffer, validating the header and every frame.
pub fn scan(data: &[u8]) -> ScanOutcome<'_> {
    let mut outcome = ScanOutcome {
        payloads: Vec::new(),
        valid_len: 0,
        corruption: None,
    };
    if !data.starts_with(MAGIC) {
        outcome.corruption = Some(Corruption::BadHeader);
        return outcome;
    }
    outcome.valid_len = MAGIC.len();
    while outcome.valid_len < data.len() {
        match read_frame(&data[outcome.valid_len..], outcome.valid_len) {
            Ok((payload, frame_len)) => {
                outcome.payloads.push(payload);
                outcome.valid_len += frame_len;
            }
            Err(anomaly) => {
                outcome.corruption = Some(anomaly);
                break;
            }
        }
    }
    outcome
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
    fn v3_header_scans_with_the_same_frame_layout() {
        // Segment files open with their own magic (`warehouse::format`),
        // so the log scanner refuses one — but the frames behind that
        // magic are the frames of a log, read by the same validator.
        let mut buf = b"SITMSEG3".to_vec();
        write_frame(&mut buf, b"zone");
        write_frame(&mut buf, b"dir");
        write_frame(&mut buf, b"sort");
        assert_eq!(scan(&buf).corruption, Some(Corruption::BadHeader));
        let mut payloads = Vec::new();
        let mut offset = 8;
        while offset < buf.len() {
            let (payload, frame_len) = read_frame(&buf[offset..], offset).unwrap();
            payloads.push(payload);
            offset += frame_len;
        }
        assert_eq!(payloads, vec![b"zone".as_slice(), b"dir", b"sort"]);
        assert_eq!(offset, buf.len());
    }

    /// One damaged frame behind one intact frame: every way a frame can
    /// be wrong, and the verdict it must get.
    fn damaged_frames() -> Vec<(&'static str, Vec<u8>, Corruption)> {
        let intact = segment(&[b"first"]);
        let offset = intact.len();
        let mut whole = intact.clone();
        write_frame(&mut whole, b"second");
        let mut cases = Vec::new();
        let mut bad_marker = whole.clone();
        bad_marker[offset] = 0x00;
        cases.push(("marker", bad_marker, Corruption::BadMarker { offset }));
        // The header torn at each of its 9 bytes (0 of them present is
        // a clean end, not a frame).
        for present in 1..FRAME_OVERHEAD {
            let torn = whole[..offset + present].to_vec();
            cases.push(("torn header", torn, Corruption::Torn { offset }));
        }
        let torn_body = whole[..whole.len() - 1].to_vec();
        cases.push(("torn body", torn_body, Corruption::Torn { offset }));
        // One past the bound, with not a byte of body behind it: the
        // bound is checked before the length sizes anything.
        let mut oversized = intact.clone();
        oversized.extend_from_slice(&frame_header(FRAME_MARKER, MAX_PAYLOAD + 1, 0));
        let declared = MAX_PAYLOAD + 1;
        cases.push((
            "oversized",
            oversized,
            Corruption::Oversized { offset, declared },
        ));
        let mut bad_crc = whole.clone();
        *bad_crc.last_mut().unwrap() ^= 0x01;
        cases.push(("checksum", bad_crc, Corruption::BadChecksum { offset }));
        cases
    }

    #[test]
    fn read_frame_gives_every_kind_of_damage_its_verdict() {
        let first_end = MAGIC.len() + FRAME_OVERHEAD + 5;
        for (what, buf, verdict) in damaged_frames() {
            assert_eq!(
                read_frame(&buf[MAGIC.len()..], MAGIC.len()),
                Ok((b"first".as_slice(), FRAME_OVERHEAD + 5)),
                "{what}: the intact frame in front still reads"
            );
            assert_eq!(
                read_frame(&buf[first_end..], first_end),
                Err(verdict),
                "{what}"
            );
        }
        // No bytes, no frame.
        assert_eq!(read_frame(&[], 7), Err(Corruption::Torn { offset: 7 }));
        // A payload at exactly the bound is legal.
        assert!(parse_frame_header(&frame_header(FRAME_MARKER, MAX_PAYLOAD, 0), 0).is_ok());
    }

    #[test]
    fn scan_stops_at_the_validators_verdict() {
        let first_end = MAGIC.len() + FRAME_OVERHEAD + 5;
        for (what, buf, verdict) in damaged_frames() {
            let out = scan(&buf);
            assert_eq!(out.payloads, vec![b"first".as_slice()], "{what}");
            assert_eq!(out.valid_len, first_end, "{what}");
            assert_eq!(out.corruption, Some(verdict), "{what}");
        }
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
