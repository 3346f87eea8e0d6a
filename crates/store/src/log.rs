//! The durable snapshot log.
//!
//! [`LogStore<R>`] persists any [`Record`] type — the warehouse's
//! [`ManifestRecord`](crate::ManifestRecord)s — to a single segment
//! file. Each record is a whole snapshot and only the newest one is
//! ever read back, so the log keeps two:
//!
//! * **open** reads the file, scans its frames ([`segment::scan`]),
//!   decodes every intact record, and — when the tail is torn or
//!   corrupted — truncates the file back to the last intact frame;
//! * **commit** is the only write: it atomically rewrites the log to
//!   the previously committed record followed by the new one (write
//!   `<path>.tmp`, fsync, rename over the original, fsync the
//!   directory). A crash at any byte of a commit leaves either the old
//!   file or the new one, and both end in a complete snapshot; the
//!   previous record is the fallback when the newest one is damaged
//!   later. The previous record is kept as its encoded bytes, seeded at
//!   open from the last record recovered.
//!
//! A frame that passes its CRC but fails to *decode* (possible only with
//! software bugs, deliberate tampering or a record written in an older
//! layout, not torn writes) is surfaced in the [`RecoveryReport`] and
//! skipped, so one poisoned record cannot take the rest of the log
//! hostage.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::codec::CodecError;
use crate::segment::{self, Corruption};

/// A value the log can persist.
pub trait Record: Sized {
    /// Appends the binary form to `buf`.
    fn encode_record(&self, buf: &mut Vec<u8>);
    /// Decodes from a payload; must consume exactly the record.
    fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

/// What [`LogStore::open`] found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Records recovered intact.
    pub recovered: usize,
    /// Bytes discarded from the tail (0 for a clean shutdown).
    pub truncated_bytes: u64,
    /// The anomaly that caused truncation, if any.
    pub corruption: Option<Corruption>,
    /// Frames whose CRC was intact but whose payload failed to decode.
    pub undecodable_frames: usize,
}

impl RecoveryReport {
    /// True when the log was closed cleanly and fully decoded.
    pub fn is_clean(&self) -> bool {
        self.truncated_bytes == 0 && self.corruption.is_none() && self.undecodable_frames == 0
    }
}

/// Errors from the log store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Encoding/decoding failure.
    Codec(CodecError),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A crash-recoverable log of whole snapshots that keeps the newest two.
#[derive(Debug)]
pub struct LogStore<R: Record> {
    path: PathBuf,
    records: usize,
    bytes: u64,
    /// The newest committed record, encoded: the first frame the next
    /// commit rewrites the log to.
    previous: Option<Vec<u8>>,
    _marker: PhantomData<R>,
}

impl<R: Record> LogStore<R> {
    /// Opens (or creates) the log at `path`, recovering its contents.
    ///
    /// Returns the store, the decoded records, and a report of any
    /// repair performed. The last decoded record is what the next
    /// [`LogStore::commit`] keeps beside its own.
    pub fn open(
        path: impl AsRef<Path>,
    ) -> Result<(LogStore<R>, Vec<R>, RecoveryReport), StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        // A brand-new (empty) file gets a header; anything else must scan.
        if data.is_empty() {
            let mut header = Vec::new();
            segment::write_header(&mut header);
            file.write_all(&header)?;
            file.sync_all()?;
            let bytes = header.len() as u64;
            return Ok((
                LogStore {
                    path,
                    records: 0,
                    bytes,
                    previous: None,
                    _marker: PhantomData,
                },
                Vec::new(),
                RecoveryReport {
                    recovered: 0,
                    truncated_bytes: 0,
                    corruption: None,
                    undecodable_frames: 0,
                },
            ));
        }

        let outcome = segment::scan(&data);
        if outcome.corruption == Some(Corruption::BadHeader) {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not a SITM segment file",
            )));
        }
        let mut records = Vec::with_capacity(outcome.payloads.len());
        let mut previous = None;
        let mut undecodable = 0usize;
        for payload in &outcome.payloads {
            let mut cursor: &[u8] = payload;
            match R::decode_record(&mut cursor) {
                Ok(r) if cursor.is_empty() => {
                    records.push(r);
                    previous = Some(*payload);
                }
                _ => undecodable += 1,
            }
        }
        let truncated = (data.len() - outcome.valid_len) as u64;
        if truncated > 0 {
            file.set_len(outcome.valid_len as u64)?;
            file.sync_all()?;
        }
        let report = RecoveryReport {
            recovered: records.len(),
            truncated_bytes: truncated,
            corruption: outcome.corruption,
            undecodable_frames: undecodable,
        };
        Ok((
            LogStore {
                path,
                records: records.len(),
                bytes: outcome.valid_len as u64,
                previous: previous.map(<[u8]>::to_vec),
                _marker: PhantomData,
            },
            records,
            report,
        ))
    }

    /// Commits `record`: atomically rewrites the log to the previously
    /// committed (or last recovered) record followed by `record`.
    /// Durable on return. On an error `record` may or may not have
    /// reached the file, and the next commit keeps the previous record
    /// beside its own, not this one.
    pub fn commit(&mut self, record: &R) -> Result<(), StoreError> {
        let mut newest = Vec::new();
        record.encode_record(&mut newest);
        let previous = self.previous.take();
        let frames: Vec<&[u8]> = previous
            .iter()
            .chain([&newest])
            .map(Vec::as_slice)
            .collect();
        let written = self.compact(&frames);
        self.previous = if written.is_ok() {
            Some(newest)
        } else {
            previous
        };
        written
    }

    /// Records in the log: those recovered, or after a commit the one
    /// or two it wrote.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Bytes of the log file covered by intact data.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically replaces the log's contents with one frame per
    /// encoded record: writes a fresh segment beside the log, fsyncs
    /// it, renames it over the original, and fsyncs the directory.
    fn compact(&mut self, payloads: &[&[u8]]) -> Result<(), StoreError> {
        let mut buf = Vec::new();
        segment::write_header(&mut buf);
        for payload in payloads {
            segment::write_frame(&mut buf, payload);
        }
        let tmp_path = self.path.with_extension("tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&buf)?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        self.bytes = buf.len() as u64;
        self.records = payloads.len();
        // The rename itself lives in the directory entry; without this
        // fsync a power failure can resurrect the pre-commit file even
        // though commit() already returned success. (Unix only:
        // directories cannot be opened as files elsewhere, and NTFS
        // metadata updates don't use this idiom.)
        #[cfg(unix)]
        if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A unique throwaway path; removed by `TempPath::drop`.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> TempPath {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            TempPath(
                std::env::temp_dir()
                    .join(format!("sitm-store-{tag}-{}-{n}.log", std::process::id())),
            )
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(self.0.with_extension("tmp"));
        }
    }

    /// A record that is one string.
    #[derive(Debug)]
    struct Tag(String);

    impl Record for Tag {
        fn encode_record(&self, buf: &mut Vec<u8>) {
            sitm_codec::put_str(buf, &self.0);
        }

        fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Tag(sitm_codec::take_str(buf)?.to_owned()))
        }
    }

    fn frame(tag: &str) -> Tag {
        Tag(tag.to_owned())
    }

    fn tags(records: &[Tag]) -> Vec<&str> {
        records.iter().map(|r| r.0.as_str()).collect()
    }

    /// Appends one framed record to the end of the log's file and
    /// fsyncs it — a log no commit wrote, as a torn or tampered file
    /// presents itself. Returns the frame's byte offset.
    fn append(log: &mut LogStore<Tag>, record: &Tag) -> u64 {
        let mut payload = Vec::new();
        record.encode_record(&mut payload);
        let mut frame = Vec::new();
        segment::write_frame(&mut frame, &payload);
        let mut file = OpenOptions::new().append(true).open(&log.path).unwrap();
        file.write_all(&frame).unwrap();
        file.sync_all().unwrap();
        let offset = log.bytes;
        log.bytes += frame.len() as u64;
        log.records += 1;
        offset
    }

    #[test]
    fn create_append_reopen() {
        let tmp = TempPath::new("basic");
        {
            let (mut log, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
            assert!(records.is_empty());
            assert!(report.is_clean());
            append(&mut log, &frame("a"));
            append(&mut log, &frame("b"));
            assert_eq!(log.len(), 2);
        }
        let (log, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(tags(&records), vec!["a", "b"]);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let tmp = TempPath::new("torn");
        {
            let (mut log, _, _) = LogStore::<Tag>::open(&tmp.0).unwrap();
            append(&mut log, &frame("keep"));
            append(&mut log, &frame("lost"));
        }
        // Tear the last frame.
        let data = std::fs::read(&tmp.0).unwrap();
        std::fs::write(&tmp.0, &data[..data.len() - 3]).unwrap();

        let (mut log, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert_eq!(tags(&records), vec!["keep"]);
        assert!(report.truncated_bytes > 0);
        assert!(matches!(report.corruption, Some(Corruption::Torn { .. })));
        assert_eq!(
            std::fs::metadata(&tmp.0).unwrap().len(),
            log.size_bytes(),
            "the file is cut back to its last intact frame"
        );
        // The repaired log takes a commit, which keeps the last
        // recovered record, and reopens cleanly.
        log.commit(&frame("after-crash")).unwrap();
        drop(log);
        let (_, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(tags(&records), vec!["keep", "after-crash"]);
    }

    #[test]
    fn flipped_payload_byte_is_dropped() {
        let tmp = TempPath::new("flip");
        {
            let (mut log, _, _) = LogStore::<Tag>::open(&tmp.0).unwrap();
            append(&mut log, &frame("keep"));
            append(&mut log, &frame("corrupt"));
        }
        let mut data = std::fs::read(&tmp.0).unwrap();
        let n = data.len();
        data[n - 4] ^= 0xFF; // inside the last payload
        std::fs::write(&tmp.0, &data).unwrap();
        let (_, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            report.corruption,
            Some(Corruption::BadChecksum { .. })
        ));
    }

    #[test]
    fn non_segment_file_is_refused() {
        let tmp = TempPath::new("junk");
        std::fs::write(&tmp.0, b"definitely not a segment").unwrap();
        match LogStore::<Tag>::open(&tmp.0) {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn compact_rewrites_atomically() {
        let tmp = TempPath::new("compact");
        let (mut log, _, _) = LogStore::<Tag>::open(&tmp.0).unwrap();
        for i in 0..10 {
            append(&mut log, &frame(&format!("t{i}")));
        }
        let before = log.size_bytes();
        // Keep only two records.
        let encode = |r: &Tag| {
            let mut buf = Vec::new();
            r.encode_record(&mut buf);
            buf
        };
        let (x, y) = (encode(&frame("x")), encode(&frame("y")));
        log.compact(&[&x, &y]).unwrap();
        assert_eq!(log.len(), 2);
        assert!(log.size_bytes() < before);
        assert_eq!(std::fs::metadata(&tmp.0).unwrap().len(), log.size_bytes());
        assert!(!tmp.0.with_extension("tmp").exists(), "renamed away");
        drop(log);
        let (_, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(tags(&records), vec!["x", "y"]);
    }

    #[test]
    fn commit_keeps_the_previous_and_the_newest_record() {
        let tmp = TempPath::new("commit");
        {
            let (mut log, _, _) = LogStore::<Tag>::open(&tmp.0).unwrap();
            log.commit(&frame("a")).unwrap();
            assert_eq!(log.len(), 1);
            for tag in ["b", "c"] {
                log.commit(&frame(tag)).unwrap();
                assert_eq!(log.len(), 2);
                assert_eq!(std::fs::metadata(&tmp.0).unwrap().len(), log.size_bytes());
            }
        }
        // A reopen seeds the previous record from the last one recovered.
        let (mut log, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(tags(&records), vec!["b", "c"]);
        log.commit(&frame("d")).unwrap();
        drop(log);
        let (_, records, _) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert_eq!(tags(&records), vec!["c", "d"]);
    }

    #[test]
    fn an_undecodable_last_frame_is_not_kept() {
        let tmp = TempPath::new("undecodable");
        {
            let (mut log, _, _) = LogStore::<Tag>::open(&tmp.0).unwrap();
            log.commit(&frame("good")).unwrap();
        }
        // A frame whose CRC holds but whose record does not decode.
        let mut data = std::fs::read(&tmp.0).unwrap();
        segment::write_frame(&mut data, &[0xFF]);
        std::fs::write(&tmp.0, &data).unwrap();
        let (mut log, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert_eq!(tags(&records), vec!["good"]);
        assert_eq!(report.undecodable_frames, 1);
        log.commit(&frame("next")).unwrap();
        drop(log);
        let (_, records, report) = LogStore::<Tag>::open(&tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(tags(&records), vec!["good", "next"]);
    }

    #[test]
    fn append_offsets_are_monotonic() {
        let tmp = TempPath::new("offsets");
        let (mut log, _, _) = LogStore::<Tag>::open(&tmp.0).unwrap();
        let a = append(&mut log, &frame("a"));
        let b = append(&mut log, &frame("b"));
        assert_eq!(a, segment::MAGIC.len() as u64);
        assert!(b > a);
        assert_eq!(log.path(), tmp.0.as_path());
    }
}
