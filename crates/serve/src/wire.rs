//! Stream framing: the CRC-framed, length-prefixed envelope every
//! request and response travels in.
//!
//! The frame layout is byte-identical to the segment/log frame the
//! storage tier already torture-tests ([`sitm_store::segment`]):
//!
//! ```text
//! frame := marker 0x5A | payload_len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! Reusing the durable format on the wire buys the same properties the
//! WAL gets from it: a torn or bit-flipped frame is detected *before*
//! any payload decoding runs, the oversize bound rejects hostile
//! lengths before allocation, and the torture tests
//! (`tests/wire_torture.rs`) can reuse the every-byte-offset idiom from
//! `crates/store/tests/warehouse.rs` wholesale.
//!
//! ## One syscall per message
//!
//! A message costs one `write` and, when it fits the read buffer, one
//! `read`. Outgoing frames are assembled *in place*: `begin_frame`
//! reserves the header in the connection's output buffer, the codec
//! encodes straight after it, `finish_frame` patches marker, length
//! and CRC over the reservation, and the whole frame leaves in one
//! `write_all` — on a `TCP_NODELAY` socket a header written apart from
//! its payload is a segment of its own that wakes the peer before the
//! payload exists. Incoming bytes go through a `FrameReader`: a std
//! `BufReader` of fixed capacity (64 KiB) in front of the socket, so
//! marker, header and a small body — or several pipelined frames —
//! arrive in one `read`, and a payload buffer reused from message to
//! message that the codec decodes from by reference. A body larger
//! than the read buffer is read straight into the payload buffer
//! (`BufReader` bypasses itself for large reads), after the oversize
//! check. Memory per connection is bounded: the read buffer never
//! grows, and a payload or output buffer that grew past 1 MiB for one
//! message is freed as soon as that message is done, so a 16 MiB page
//! does not stay pinned by an idle session.
//!
//! [`write_frame`], [`write_traced_frame`], [`read_message`] and
//! [`read_frame`] are the same framing for callers that hold a bare
//! stream and no buffers (tests, the benchmark's traced client): one
//! `write_all` per frame, a fresh payload `Vec` per read.
//!
//! ## Liveness
//!
//! Unlike a file, a socket has liveness concerns, so the reader is
//! split: `FrameReader::read` blocks until a full frame (or a definite
//! error) arrives, while `FrameReader::read_or_idle` treats a read
//! timeout *before the first byte of a frame* as "no request yet" —
//! the hook the server's session loop uses to poll its shutdown flag
//! without dropping long-lived idle connections. The buffer does not
//! blur that rule: the socket is only read when the buffer is empty,
//! so a timeout there means no byte of the next frame has arrived,
//! and a frame already buffered is returned without touching the
//! socket. A timeout *mid-frame* (the buffer ran dry inside an
//! envelope) is a stall, tolerated `MIDFRAME_TIMEOUT_PATIENCE` times
//! in a row before the peer is declared dead.
//!
//! ## The traced envelope
//!
//! A second marker byte, [`TRACED_FRAME_MARKER`] (`0x5B`), carries the
//! same CRC-checked frame plus a fixed 16-byte [`TraceContext`] prefix
//! inside the checksummed body:
//!
//! ```text
//! traced := marker 0x5B | body_len u32 LE | crc32(marker | body) u32 LE | body
//! body   := trace_id u64 LE | parent_span_id u64 LE | payload
//! ```
//!
//! Unlike the plain frame, the traced checksum also covers the marker
//! byte: the two markers differ by a single bit, so a CRC over the
//! body alone would let a one-bit marker flip silently re-frame a
//! traced message as a plain one (context bytes leaking into the
//! payload) — covering the marker makes the flip a checksum error in
//! both directions.
//!
//! This is how a federation fan-out keeps **one** trace id across
//! peers: the caller writes its active context ahead of the request
//! payload, and the receiving server adopts it instead of generating a
//! fresh one. The extension is optional end to end — [`read_message`]
//! accepts both markers, and a plain [`read_frame`] reader simply
//! discards the context — so traced and untraced endpoints interoperate
//! frame by frame.

use std::io::{BufReader, ErrorKind, Read, Write};

use sitm_obs::trace::TraceContext;
use sitm_obs::Counter;
use sitm_store::segment::{self, frame_header, FRAME_MARKER, FRAME_OVERHEAD, MAX_PAYLOAD};
use sitm_store::{crc32, Crc32};

/// Marker byte opening a trace-context-carrying frame (plain frames
/// open with [`FRAME_MARKER`], `0x5A`).
pub const TRACED_FRAME_MARKER: u8 = 0x5B;

/// Bytes the trace context occupies at the head of a traced frame's
/// body (two little-endian `u64`s).
pub const TRACE_ENVELOPE_BYTES: usize = 16;

/// Capacity of a [`FrameReader`]'s read buffer: what one `read` can
/// bring in, fixed for the life of the connection.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// A per-connection message buffer (incoming payload, outgoing frame)
/// keeps its allocation from message to message up to this capacity;
/// past it the buffer is freed once the message is done.
const RETAINED_BUFFER_BYTES: usize = 1 << 20;

/// Framing-level failures. Payload decoding has its own error type
/// ([`sitm_store::CodecError`], surfaced via [`crate::ServeError`]).
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An I/O failure (including mid-frame EOF and mid-frame timeouts).
    Io(std::io::Error),
    /// The frame did not start with [`FRAME_MARKER`].
    BadMarker(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload checksum did not match: corruption in flight.
    BadChecksum,
    /// A traced frame's body is too short to hold its context prefix.
    BadEnvelope(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::BadMarker(b) => write!(f, "bad frame marker {b:#04x}"),
            WireError::Oversized(n) => write!(f, "frame declares {n} bytes (over the bound)"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::BadEnvelope(n) => {
                write!(f, "traced frame body of {n} bytes cannot hold a context")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One frame off the wire: the payload plus the trace context it
/// carried, if its envelope had one ([`TRACED_FRAME_MARKER`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    /// The context from a traced envelope; `None` for a plain frame.
    pub trace: Option<TraceContext>,
    /// The protocol payload (request or response bytes).
    pub payload: Vec<u8>,
}

/// The longest body a frame of either kind may declare: the payload
/// bound, plus the context bytes that ride on top in a traced frame.
fn max_body_len(traced: bool) -> usize {
    MAX_PAYLOAD as usize + if traced { TRACE_ENVELOPE_BYTES } else { 0 }
}

/// The write side's bound check: `InvalidInput`, never a panic (see
/// [`write_frame`]).
fn check_body_len(body_len: usize, traced: bool) -> std::io::Result<()> {
    if body_len > max_body_len(traced) {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("frame body of {body_len} bytes exceeds the frame bound"),
        ));
    }
    Ok(())
}

/// The traced frame's checksum: CRC over the marker byte *followed by*
/// the body (given in pieces, in order), so a one-bit marker flip
/// (`0x5B` ↔ `0x5A`) cannot pass either marker's check (see the module
/// docs).
fn traced_crc(body: &[&[u8]]) -> u32 {
    let mut check = Crc32::new();
    check.update(&[TRACED_FRAME_MARKER]);
    for piece in body {
        check.update(piece);
    }
    check.finish()
}

/// Starts a frame in `out` (cleared first): reserves the header and,
/// with a context, opens the traced envelope. The caller appends the
/// payload — encoding it straight into `out` — and [`finish_frame`]
/// patches the header over the reservation.
pub(crate) fn begin_frame(out: &mut Vec<u8>, trace: Option<TraceContext>) {
    out.clear();
    let marker = if trace.is_some() {
        TRACED_FRAME_MARKER
    } else {
        FRAME_MARKER
    };
    out.extend_from_slice(&frame_header(marker, 0, 0));
    if let Some(ctx) = trace {
        out.extend_from_slice(&ctx.trace_id.to_le_bytes());
        out.extend_from_slice(&ctx.parent_span_id.to_le_bytes());
    }
}

/// Completes a frame opened by [`begin_frame`]: length and CRC of
/// everything after the header go into the header, and `frame` is ready
/// for one `write_all`. Fails (see [`check_body_len`]) only when the
/// body is over the bound.
pub(crate) fn finish_frame(frame: &mut [u8]) -> std::io::Result<()> {
    let (header, body) = frame.split_at_mut(FRAME_OVERHEAD);
    let marker = header[0];
    let traced = marker == TRACED_FRAME_MARKER;
    check_body_len(body.len(), traced)?;
    let crc = if traced {
        traced_crc(&[body])
    } else {
        crc32(body)
    };
    header.copy_from_slice(&frame_header(marker, body.len() as u32, crc));
    Ok(())
}

/// Frees a message buffer that one large message grew past
/// [`RETAINED_BUFFER_BYTES`]; smaller ones keep their allocation for
/// the next message.
pub(crate) fn release_if_large(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_BUFFER_BYTES {
        *buf = Vec::new();
    }
}

/// Writes one frame (marker, length, CRC, payload) with one `write_all`
/// and flushes. A payload over [`MAX_PAYLOAD`] is an `InvalidInput`
/// error, not a panic — on a network path the caller substitutes a
/// smaller message (the server downgrades an oversized response to an
/// `Error` reply; the client tells the caller to split the batch).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    check_body_len(payload.len(), false)?;
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    segment::write_frame(&mut frame, payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Writes one traced frame: the same CRC-checked envelope with `ctx`
/// prefixed inside the body (see the module docs for the grammar).
/// The payload bound is unchanged — the 16 context bytes ride on top.
pub fn write_traced_frame(
    w: &mut impl Write,
    ctx: TraceContext,
    payload: &[u8],
) -> std::io::Result<()> {
    check_body_len(TRACE_ENVELOPE_BYTES + payload.len(), true)?;
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + TRACE_ENVELOPE_BYTES + payload.len());
    begin_frame(&mut frame, Some(ctx));
    frame.extend_from_slice(payload);
    finish_frame(&mut frame)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Mid-frame read timeouts tolerated before a stalled peer is declared
/// dead. The server's session sockets carry a short `read_timeout` so
/// *idle* connections can poll the shutdown flag; once a frame has
/// started, that knob must not double as the stall threshold — a slow
/// client legitimately pauses between packets of a large frame. With
/// the default 25 ms poll this allows ~10 s of mid-frame silence.
const MIDFRAME_TIMEOUT_PATIENCE: u32 = 400;

/// Reads exactly `buf.len()` bytes, retrying interrupted reads and up
/// to [`MIDFRAME_TIMEOUT_PATIENCE`] read timeouts (socket-level
/// `read_timeout` firings while the peer refills its send buffer).
/// Distinguishes a clean close *before any byte* (`Ok(false)`) from a
/// mid-buffer EOF (error) when `clean_close_ok` is set.
fn read_exact_or_close(
    r: &mut impl Read,
    buf: &mut [u8],
    clean_close_ok: bool,
) -> Result<bool, WireError> {
    let mut filled = 0;
    let mut timeouts = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && clean_close_ok {
                    return Ok(false);
                }
                return Err(WireError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )));
            }
            Ok(n) => {
                filled += n;
                // Progress resets the stall clock: the patience bounds
                // one continuous silence, not the frame's total
                // transfer time (a 16 MiB frame in slow bursts is a
                // legitimate peer, not a stalled one).
                timeouts = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                timeouts += 1;
                if timeouts > MIDFRAME_TIMEOUT_PATIENCE {
                    return Err(WireError::Io(e));
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads the rest of a frame whose marker byte has already been
/// consumed: header, bound and envelope checks, then the payload into
/// `payload` (resized to fit, its old contents overwritten) and the
/// CRC over what arrived. A traced frame's context is read apart from
/// the payload, so `payload` never holds anything the codec must skip.
/// Returns the frame's length on the wire and its context.
fn read_frame_rest(
    r: &mut impl Read,
    marker: u8,
    payload: &mut Vec<u8>,
) -> Result<(usize, Option<TraceContext>), WireError> {
    let traced = match marker {
        FRAME_MARKER => false,
        TRACED_FRAME_MARKER => true,
        other => return Err(WireError::BadMarker(other)),
    };
    let mut header = [0u8; FRAME_OVERHEAD - 1];
    read_exact_or_close(r, &mut header, false)?;
    let (len, crc) = segment::split_frame_header(&header);
    let body_len = len as usize;
    if body_len > max_body_len(traced) {
        return Err(WireError::Oversized(len));
    }
    if traced && body_len < TRACE_ENVELOPE_BYTES {
        return Err(WireError::BadEnvelope(len));
    }
    let mut context_bytes = [0u8; TRACE_ENVELOPE_BYTES];
    let context = &mut context_bytes[..if traced { TRACE_ENVELOPE_BYTES } else { 0 }];
    read_exact_or_close(r, context, false)?;
    let payload_len = body_len - context.len();
    if payload.capacity() < payload_len {
        // A fresh zeroed allocation rather than `resize`: nothing
        // stale is copied over, and a hostile length costs address
        // space, not touched pages, until its bytes actually arrive.
        *payload = vec![0u8; payload_len];
    } else {
        payload.resize(payload_len, 0);
    }
    read_exact_or_close(r, payload, false)?;
    let expected = if traced {
        traced_crc(&[context, payload])
    } else {
        crc32(payload)
    };
    if expected != crc {
        return Err(WireError::BadChecksum);
    }
    let trace = traced.then(|| TraceContext {
        trace_id: u64::from_le_bytes(context[0..8].try_into().expect("8 bytes")),
        parent_span_id: u64::from_le_bytes(context[8..16].try_into().expect("8 bytes")),
    });
    Ok((FRAME_OVERHEAD + body_len, trace))
}

/// Blocks for the first byte of the next frame; a clean peer close
/// instead of it is [`WireError::Closed`].
fn read_marker(r: &mut impl Read) -> Result<u8, WireError> {
    let mut marker = [0u8; 1];
    if !read_exact_or_close(r, &mut marker, true)? {
        return Err(WireError::Closed);
    }
    Ok(marker[0])
}

/// Reads one message — plain or traced envelope — blocking until it
/// arrives. A clean peer close between frames yields
/// [`WireError::Closed`].
pub fn read_message(r: &mut impl Read) -> Result<WireMessage, WireError> {
    let marker = read_marker(r)?;
    let mut payload = Vec::new();
    let (_, trace) = read_frame_rest(r, marker, &mut payload)?;
    Ok(WireMessage { trace, payload })
}

/// Reads one full frame, blocking until it arrives, discarding any
/// trace context — the compatibility reader for callers that don't
/// trace. A clean peer close between frames yields
/// [`WireError::Closed`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    read_message(r).map(|m| m.payload)
}

/// A connection's read half: a fixed-capacity buffer in front of the
/// stream (one `read` brings in every frame that has arrived, up to
/// [`READ_BUFFER_BYTES`]) and the payload buffer each message lands in,
/// reused from one message to the next. It owns the stream; the write
/// half is [`FrameReader::get_ref`] (`&TcpStream` is `Write`), so one
/// descriptor serves both directions and dropping the reader drops
/// whatever it had buffered with the connection it came from.
pub(crate) struct FrameReader<R: Read> {
    inner: BufReader<R>,
    payload: Vec<u8>,
}

/// One frame read through a [`FrameReader`], borrowing its payload
/// buffer. Dropping the frame is what ends the message: a payload
/// buffer that grew past [`RETAINED_BUFFER_BYTES`] is freed there.
pub(crate) struct Frame<'a> {
    /// The context from a traced envelope; `None` for a plain frame.
    pub trace: Option<TraceContext>,
    /// Bytes this frame occupied on the wire, envelope included.
    pub wire_len: usize,
    payload: &'a mut Vec<u8>,
}

impl Frame<'_> {
    /// The protocol payload (request or response bytes).
    pub fn payload(&self) -> &[u8] {
        self.payload
    }
}

impl Drop for Frame<'_> {
    fn drop(&mut self) {
        release_if_large(self.payload);
    }
}

impl<R: Read> FrameReader<R> {
    pub fn new(stream: R) -> FrameReader<R> {
        FrameReader {
            inner: BufReader::with_capacity(READ_BUFFER_BYTES, stream),
            payload: Vec::new(),
        }
    }

    /// The stream underneath — the connection's write half.
    pub fn get_ref(&self) -> &R {
        self.inner.get_ref()
    }

    fn frame_after(&mut self, marker: u8) -> Result<Frame<'_>, WireError> {
        let (wire_len, trace) = read_frame_rest(&mut self.inner, marker, &mut self.payload)?;
        Ok(Frame {
            trace,
            wire_len,
            payload: &mut self.payload,
        })
    }

    /// Reads one frame, blocking until it arrives. A clean peer close
    /// between frames yields [`WireError::Closed`].
    pub fn read(&mut self) -> Result<Frame<'_>, WireError> {
        let marker = read_marker(&mut self.inner)?;
        self.frame_after(marker)
    }

    /// Like [`FrameReader::read`], but a read timeout *before the first
    /// byte* of a frame (the socket's `read_timeout` firing with
    /// nothing buffered) returns `Ok(None)` instead of an error, so a
    /// session loop can interleave shutdown checks with waiting for the
    /// next request.
    pub fn read_or_idle(&mut self) -> Result<Option<Frame<'_>>, WireError> {
        let mut marker = [0u8; 1];
        loop {
            return match self.inner.read(&mut marker) {
                Ok(0) => Err(WireError::Closed),
                Ok(_) => Ok(Some(self.frame_after(marker[0])?)),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    Ok(None)
                }
                Err(e) => Err(WireError::Io(e)),
            };
        }
    }
}

/// A stream half that counts the `read` or `write` calls made on it —
/// one per syscall on a socket — into a metrics counter.
pub(crate) struct CountedIo<'a, S> {
    inner: S,
    calls: &'a Counter,
}

impl<'a, S> CountedIo<'a, S> {
    pub fn new(inner: S, calls: &'a Counter) -> CountedIo<'a, S> {
        CountedIo { inner, calls }
    }
}

impl<S: Read> Read for CountedIo<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls.inc();
        self.inner.read(buf)
    }
}

impl<S: Write> Write for CountedIo<'_, S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls.inc();
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn round_trips_through_a_byte_stream() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[0xAB; 1000]).unwrap();
        let mut cursor: &[u8] = &stream;
        assert_eq!(read_frame(&mut cursor).unwrap(), b"alpha");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), vec![0xAB; 1000]);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Closed)));
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let buf = framed(b"payload-bytes");
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            assert!(read_frame(&mut cursor).is_err(), "cut {cut}");
        }
        // Cut 0 is the clean-close case.
        assert!(matches!(read_frame(&mut &buf[..0]), Err(WireError::Closed)));
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let buf = framed(b"payload-bytes");
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x01;
            let mut cursor: &[u8] = &corrupt;
            match read_frame(&mut cursor) {
                Err(_) => {}
                // A flip in the length field can also *shorten* the
                // declared payload so the frame still checks out only
                // if the CRC happens to match — CRC32 makes that
                // impossible for a 1-bit flip.
                Ok(payload) => panic!("flip at {i} slipped through: {payload:?}"),
            }
        }
    }

    fn ctx() -> TraceContext {
        TraceContext {
            trace_id: 0x0123_4567_89AB_CDEF,
            parent_span_id: 42,
        }
    }

    #[test]
    fn traced_frames_round_trip_with_their_context() {
        let mut stream = Vec::new();
        write_traced_frame(&mut stream, ctx(), b"req").unwrap();
        write_traced_frame(&mut stream, ctx(), b"").unwrap();
        write_frame(&mut stream, b"plain").unwrap();
        let mut cursor: &[u8] = &stream;
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            WireMessage {
                trace: Some(ctx()),
                payload: b"req".to_vec()
            }
        );
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            WireMessage {
                trace: Some(ctx()),
                payload: Vec::new()
            },
            "an empty payload still carries its context"
        );
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            WireMessage {
                trace: None,
                payload: b"plain".to_vec()
            },
            "plain frames interleave with traced ones"
        );
        assert!(matches!(read_message(&mut cursor), Err(WireError::Closed)));
    }

    #[test]
    fn plain_readers_discard_the_context() {
        let mut stream = Vec::new();
        write_traced_frame(&mut stream, ctx(), b"legacy-peer").unwrap();
        assert_eq!(read_frame(&mut stream.as_slice()).unwrap(), b"legacy-peer");
    }

    #[test]
    fn traced_truncations_and_flips_are_clean_errors() {
        let mut buf = Vec::new();
        write_traced_frame(&mut buf, ctx(), b"payload-bytes").unwrap();
        for cut in 1..buf.len() {
            assert!(read_message(&mut &buf[..cut]).is_err(), "cut {cut}");
        }
        assert!(matches!(
            read_message(&mut &buf[..0]),
            Err(WireError::Closed)
        ));
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x01;
            match read_message(&mut corrupt.as_slice()) {
                Err(_) => {}
                Ok(msg) => panic!("flip at {i} slipped through: {msg:?}"),
            }
        }
    }

    #[test]
    fn traced_body_too_short_for_a_context_is_rejected() {
        // A hand-built traced frame whose body is 8 bytes: valid CRC,
        // but no room for the 16-byte context.
        let body = [0xAAu8; 8];
        let mut buf = vec![TRACED_FRAME_MARKER];
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&traced_crc(&[&body]).to_le_bytes());
        buf.extend_from_slice(&body);
        assert!(matches!(
            read_message(&mut buf.as_slice()),
            Err(WireError::BadEnvelope(8))
        ));
    }

    #[test]
    fn traced_bound_admits_a_max_payload_plus_context() {
        let payload = vec![0x5Cu8; MAX_PAYLOAD as usize];
        let mut buf = Vec::new();
        write_traced_frame(&mut buf, ctx(), &payload).unwrap();
        let msg = read_message(&mut buf.as_slice()).unwrap();
        assert_eq!(msg.payload.len(), MAX_PAYLOAD as usize);
        assert_eq!(msg.trace, Some(ctx()));
        // One byte past that is oversized.
        let mut buf = vec![TRACED_FRAME_MARKER];
        buf.extend_from_slice(&(MAX_PAYLOAD + TRACE_ENVELOPE_BYTES as u32 + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_message(&mut buf.as_slice()),
            Err(WireError::Oversized(_))
        ));
        // And the plain marker does not get the extended bound.
        let mut buf = vec![FRAME_MARKER];
        buf.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_message(&mut buf.as_slice()),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn oversized_and_bad_marker_are_rejected() {
        let mut buf = vec![FRAME_MARKER];
        buf.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Oversized(_))
        ));
        let buf = [0x00u8; 16];
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::BadMarker(0))
        ));
    }

    #[test]
    fn incremental_traced_crc_equals_the_concatenated_form() {
        // The checksum the format defines: CRC over marker ++ body as
        // one buffer. Feeding the pieces to one digest must agree, at
        // every split of the body.
        fn concatenated(body: &[u8]) -> u32 {
            let mut check = vec![TRACED_FRAME_MARKER];
            check.extend_from_slice(body);
            crc32(&check)
        }
        let big: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        for body in [&[][..], &[0x7F], &big] {
            assert_eq!(traced_crc(&[body]), concatenated(body));
            let (context, payload) = body.split_at(body.len().min(TRACE_ENVELOPE_BYTES));
            assert_eq!(traced_crc(&[context, payload]), concatenated(body));
        }
    }

    /// A byte stream that hands out at most `chunk` bytes per `read` —
    /// what a socket does when that is all that has arrived.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn payload_of(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 253) as u8).collect()
    }

    #[test]
    fn every_frame_is_exactly_one_write() {
        let sizes = [0usize, 1, 100, READ_BUFFER_BYTES, 1 << 20];
        for len in sizes {
            let payload = payload_of(len);
            for traced in [false, true] {
                let writes = Counter::default();
                let mut sink = Vec::new();
                let mut w = CountedIo::new(&mut sink, &writes);
                if traced {
                    write_traced_frame(&mut w, ctx(), &payload).unwrap();
                } else {
                    write_frame(&mut w, &payload).unwrap();
                }
                assert_eq!(writes.get(), 1, "{len} B, traced {traced}");

                // The in-place path the server and the client use
                // produces the same bytes, for the same one write.
                let writes = Counter::default();
                let mut in_place = Vec::new();
                let mut out = Vec::new();
                begin_frame(&mut out, traced.then(ctx));
                out.extend_from_slice(&payload);
                finish_frame(&mut out).unwrap();
                CountedIo::new(&mut in_place, &writes)
                    .write_all(&out)
                    .unwrap();
                assert_eq!(writes.get(), 1);
                assert_eq!(in_place, sink, "{len} B, traced {traced}");
            }
        }
    }

    #[test]
    fn an_oversized_frame_is_invalid_input_on_every_write_path() {
        let payload = vec![0u8; MAX_PAYLOAD as usize + 1];
        let mut sink = Vec::new();
        for result in [
            write_frame(&mut sink, &payload),
            write_traced_frame(&mut sink, ctx(), &payload),
        ] {
            assert_eq!(result.unwrap_err().kind(), ErrorKind::InvalidInput);
        }
        assert!(sink.is_empty(), "nothing of a refused frame is written");
        let mut out = Vec::new();
        begin_frame(&mut out, None);
        out.extend_from_slice(&payload);
        assert_eq!(
            finish_frame(&mut out).unwrap_err().kind(),
            ErrorKind::InvalidInput
        );
    }

    #[test]
    fn an_available_small_frame_is_exactly_one_read() {
        for traced in [false, true] {
            let mut stream = Vec::new();
            if traced {
                write_traced_frame(&mut stream, ctx(), b"point-query").unwrap();
            } else {
                write_frame(&mut stream, b"point-query").unwrap();
            }
            let reads = Counter::default();
            let mut reader = FrameReader::new(CountedIo::new(stream.as_slice(), &reads));
            let frame = reader.read().unwrap();
            assert_eq!(frame.payload(), b"point-query");
            assert_eq!(frame.trace, traced.then(ctx));
            assert_eq!(frame.wire_len, stream.len());
            drop(frame);
            assert_eq!(reads.get(), 1, "traced {traced}");
        }
    }

    #[test]
    fn frames_delivered_in_one_read_cost_no_further_reads() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first").unwrap();
        write_traced_frame(&mut stream, ctx(), b"second").unwrap();
        let reads = Counter::default();
        let mut reader = FrameReader::new(CountedIo::new(stream.as_slice(), &reads));
        assert_eq!(reader.read().unwrap().payload(), b"first");
        assert_eq!(reader.read_or_idle().unwrap().unwrap().payload(), b"second");
        assert_eq!(reads.get(), 1, "the second frame came from the buffer");
        assert!(matches!(reader.read(), Err(WireError::Closed)));
    }

    #[test]
    fn a_body_larger_than_the_read_buffer_round_trips_and_is_released() {
        let payload = payload_of(3 * RETAINED_BUFFER_BYTES);
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        write_frame(&mut stream, b"after").unwrap();
        // 1000-byte reads: the frame straddles the buffer many times.
        for chunk in [1000, usize::MAX] {
            let mut reader = FrameReader::new(Chunked {
                data: &stream,
                chunk,
            });
            let frame = reader.read().unwrap();
            assert_eq!(frame.payload(), payload.as_slice());
            drop(frame);
            assert_eq!(
                reader.payload.capacity(),
                0,
                "a payload buffer past the retained bound is freed with its message"
            );
            assert_eq!(reader.read().unwrap().payload(), b"after");
            assert!(reader.payload.capacity() > 0, "a small one is kept");
        }
    }

    /// Alternates one byte with one read timeout, like a peer trickling
    /// a frame over a socket whose `read_timeout` keeps firing.
    struct Trickle<'a> {
        bytes: Chunked<'a>,
        stall: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.stall = !self.stall;
            if self.stall {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_timeout_is_idle_only_before_the_first_byte_of_a_frame() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"slow").unwrap();
        write_traced_frame(&mut stream, ctx(), b"peer").unwrap();
        let mut reader = FrameReader::new(Trickle {
            bytes: Chunked {
                data: &stream,
                chunk: 1,
            },
            stall: false,
        });
        // Nothing buffered, nothing arrived: idle. Then the frame
        // parses through a timeout between every two bytes.
        assert!(reader.read_or_idle().unwrap().is_none());
        assert_eq!(reader.read_or_idle().unwrap().unwrap().payload(), b"slow");
        assert!(reader.read_or_idle().unwrap().is_none());
        let frame = reader.read_or_idle().unwrap().unwrap();
        assert_eq!((frame.payload(), frame.trace), (&b"peer"[..], Some(ctx())));
    }

    #[test]
    fn a_peer_silent_mid_frame_past_the_patience_is_an_error() {
        struct Stalled<'a>(&'a [u8]);
        impl Read for Stalled<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(ErrorKind::WouldBlock.into());
                }
                self.0.read(buf)
            }
        }
        let stream = framed(b"never-finished");
        let mut reader = FrameReader::new(Stalled(&stream[..stream.len() - 1]));
        assert!(matches!(
            reader.read_or_idle(),
            Err(WireError::Io(e)) if e.kind() == ErrorKind::WouldBlock
        ));
    }
}
