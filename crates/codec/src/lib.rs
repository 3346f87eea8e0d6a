#![warn(missing_docs)]

//! # sitm-codec
//!
//! The byte-level primitives under every binary format in the SITM
//! workspace — segment rows, checkpoint payloads, warehouse headers,
//! wire messages and observability payloads alike:
//!
//! * [`put_u64`] / [`take_u64`] — LEB128 varints (1–10 bytes);
//! * [`put_i64`] / [`take_i64`] — ZigZag-mapped signed varints;
//! * [`put_str`] / [`take_str`], [`put_bytes`] / [`take_bytes`] —
//!   length-prefixed UTF-8 strings and byte blobs, read borrowed;
//! * [`take_tag`] / [`take_flag`] — one tag byte, one 0/1 flag byte;
//! * [`take_count`] — an element count bounded by the bytes left, so a
//!   hostile count is refused before anything is allocated for it;
//! * [`take_span`] — an interval written as a ZigZag start (a delta from
//!   a base) and an unsigned duration, with overflow-checked arithmetic.
//!
//! Writers append to a `Vec<u8>`; readers split what they read off the
//! front of a `&mut &[u8]` cursor and never panic: a short, overlong or
//! out-of-range input is an [`Error`], which each format's own error
//! type absorbs through a `From`.
//!
//! Every primitive is `#[inline]`, so a decoder in another crate reads
//! its common case without a call. The common case of a row is one
//! byte: [`take_u64`] returns a first byte below `0x80` at once, since
//! that byte is a whole varint, and reads a longer varint in one cold,
//! out-of-line call. The row codec (`sitm_store::codec`) adds the other
//! two fast paths of a row on top: a leading `0` byte is the empty
//! annotation set, and a `0` transition tag is the unknown transition.
//! All three are the general path's first step taken early. They
//! accept and refuse exactly the inputs the general path does, with
//! the same value or the same error; `sitm-serve`'s
//! `tests/decode_verdicts.rs` pins that over every truncation and bit
//! flip of a fixed corpus.

mod varint;

pub use varint::{put_i64, put_u64, take_i64, take_u64};

/// Why a primitive could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer ended inside a value.
    Eof,
    /// A varint past 64 bits, or a span whose start or end is past
    /// `i64`.
    Overflow,
    /// A declared length or element count the remaining bytes cannot
    /// hold.
    Overrun {
        /// The length or count declared.
        declared: u64,
        /// Bytes left in the buffer.
        available: usize,
    },
    /// A string that is not UTF-8.
    BadUtf8,
    /// A flag byte other than 0 or 1.
    BadFlag(u8),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Eof => write!(f, "buffer ended inside a value"),
            Error::Overflow => write!(f, "integer overflow"),
            Error::Overrun {
                declared,
                available,
            } => write!(
                f,
                "declared length {declared} exceeds remaining {available} bytes"
            ),
            Error::BadUtf8 => write!(f, "string is not valid UTF-8"),
            Error::BadFlag(b) => write!(f, "flag byte {b:#04x} is neither 0 nor 1"),
        }
    }
}

impl std::error::Error for Error {}

/// Appends `bytes` behind their varint length.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Appends `s` as [`put_bytes`] of its UTF-8 bytes.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Splits one tag byte off the front of `buf`.
#[inline]
pub fn take_tag(buf: &mut &[u8]) -> Result<u8, Error> {
    let Some((&tag, rest)) = buf.split_first() else {
        return Err(Error::Eof);
    };
    *buf = rest;
    Ok(tag)
}

/// Splits one flag byte off the front of `buf`: 0 is `false`, 1 is
/// `true`, anything else is [`Error::BadFlag`].
#[inline]
pub fn take_flag(buf: &mut &[u8]) -> Result<bool, Error> {
    match take_tag(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(Error::BadFlag(other)),
    }
}

/// Splits a varint count off the front of `buf`, refused unless the
/// bytes left could hold that many elements of at least `min_bytes`
/// each (`min_bytes` 0 counts as 1).
#[inline]
pub fn take_count(buf: &mut &[u8], min_bytes: usize) -> Result<usize, Error> {
    let declared = take_u64(buf)?;
    if declared > (buf.len() / min_bytes.max(1)) as u64 {
        return Err(Error::Overrun {
            declared,
            available: buf.len(),
        });
    }
    Ok(declared as usize)
}

/// Splits a blob written by [`put_bytes`] off the front of `buf`,
/// borrowed.
#[inline]
pub fn take_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], Error> {
    let len = take_count(buf, 1)?;
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    Ok(head)
}

/// Splits a string written by [`put_str`] off the front of `buf`,
/// borrowed.
#[inline]
pub fn take_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, Error> {
    std::str::from_utf8(take_bytes(buf)?).map_err(|_| Error::BadUtf8)
}

/// Splits an interval off the front of `buf`: a ZigZag start, as a
/// delta from `base`, then an unsigned duration. Returns `(start, end)`;
/// a start or end past `i64` is [`Error::Overflow`].
#[inline]
pub fn take_span(buf: &mut &[u8], base: i64) -> Result<(i64, i64), Error> {
    let start = base.checked_add(take_i64(buf)?).ok_or(Error::Overflow)?;
    let duration = take_u64(buf)?;
    let end = i64::try_from(duration)
        .ok()
        .and_then(|d| start.checked_add(d))
        .ok_or(Error::Overflow)?;
    Ok((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_blobs_are_borrowed_and_bounded() {
        let mut buf = Vec::new();
        put_str(&mut buf, "é·µ");
        put_str(&mut buf, "");
        let mut cursor = buf.as_slice();
        assert_eq!(take_str(&mut cursor), Ok("é·µ"));
        assert_eq!(take_str(&mut cursor), Ok(""));
        assert!(cursor.is_empty());
        // A length one past the bytes behind it.
        let mut short = vec![4];
        short.extend_from_slice(b"abc");
        assert_eq!(
            take_bytes(&mut short.as_slice()),
            Err(Error::Overrun {
                declared: 4,
                available: 3
            })
        );
        assert_eq!(
            take_str(&mut [2u8, 0xff, 0xfe].as_slice()),
            Err(Error::BadUtf8)
        );
    }

    #[test]
    fn tags_and_flags() {
        let mut cursor: &[u8] = &[7, 0, 1, 2];
        assert_eq!(take_tag(&mut cursor), Ok(7));
        assert_eq!(take_flag(&mut cursor), Ok(false));
        assert_eq!(take_flag(&mut cursor), Ok(true));
        assert_eq!(take_flag(&mut cursor), Err(Error::BadFlag(2)));
        assert_eq!(take_tag(&mut cursor), Err(Error::Eof));
        assert_eq!(take_flag(&mut cursor), Err(Error::Eof));
    }

    /// A count is weighed against the bytes left before the caller can
    /// size an allocation by it.
    #[test]
    fn hostile_counts_are_refused_before_allocation() {
        for min_bytes in [0, 1, 2, 5, 8] {
            let mut buf = Vec::new();
            put_u64(&mut buf, u64::MAX);
            buf.extend_from_slice(&[0; 16]);
            assert_eq!(
                take_count(&mut buf.as_slice(), min_bytes),
                Err(Error::Overrun {
                    declared: u64::MAX,
                    available: 16
                }),
                "min_bytes {min_bytes}"
            );
            // The largest count the 16 bytes can hold passes; one more
            // does not.
            let fits = 16 / min_bytes.max(1);
            for (count, ok) in [(fits, true), (fits + 1, false)] {
                let mut buf = Vec::new();
                put_u64(&mut buf, count as u64);
                buf.extend_from_slice(&[0; 16]);
                assert_eq!(
                    take_count(&mut buf.as_slice(), min_bytes).is_ok(),
                    ok,
                    "count {count}, min_bytes {min_bytes}"
                );
            }
        }
    }

    fn span(delta: i64, duration: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_i64(&mut buf, delta);
        put_u64(&mut buf, duration);
        buf
    }

    #[test]
    fn spans_are_deltas_plus_durations() {
        assert_eq!(take_span(&mut span(-5, 95).as_slice(), 0), Ok((-5, 90)));
        assert_eq!(
            take_span(&mut span(60, 0).as_slice(), 1_000),
            Ok((1_060, 1_060))
        );
        assert_eq!(
            take_span(&mut span(i64::MIN, i64::MAX as u64).as_slice(), 0),
            Ok((i64::MIN, -1))
        );
        assert_eq!(
            take_span(&mut span(-1, 1).as_slice(), i64::MAX),
            Ok((i64::MAX - 1, i64::MAX))
        );
        // Truncated anywhere.
        let whole = span(300, 300);
        for cut in 0..whole.len() {
            assert_eq!(
                take_span(&mut &whole[..cut], 0),
                Err(Error::Eof),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn span_overflow_is_an_error_at_either_end() {
        // The start: base + delta past i64, both ways.
        assert_eq!(
            take_span(&mut span(1, 0).as_slice(), i64::MAX),
            Err(Error::Overflow)
        );
        assert_eq!(
            take_span(&mut span(-1, 0).as_slice(), i64::MIN),
            Err(Error::Overflow)
        );
        // The end: start + duration past i64, and a duration that is
        // not an i64 at all.
        assert_eq!(
            take_span(&mut span(i64::MAX, 1).as_slice(), 0),
            Err(Error::Overflow)
        );
        assert_eq!(
            take_span(&mut span(0, 1 << 63).as_slice(), 0),
            Err(Error::Overflow)
        );
        assert_eq!(
            take_span(&mut span(i64::MIN, u64::MAX).as_slice(), 0),
            Err(Error::Overflow)
        );
    }
}
