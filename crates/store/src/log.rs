//! The durable append-only log store.
//!
//! [`LogStore<R>`] persists any [`Record`] type (semantic trajectories,
//! raw visit records) to a single segment file:
//!
//! * **open** reads the file, scans its frames ([`segment::scan`]),
//!   decodes every intact record, and — when the tail is torn or
//!   corrupted — truncates the file back to the last intact frame so the
//!   next append lands on a clean boundary;
//! * **append** encodes, frames, and writes one record;
//! * **sync** fsyncs, making everything appended so far crash-durable;
//! * **compact** atomically rewrites the log (write to `<path>.tmp`,
//!   fsync, rename over the original), the standard snapshot pattern.
//!
//! A frame that passes its CRC but fails to *decode* (possible only with
//! software bugs or deliberate tampering, not torn writes) is surfaced in
//! the [`RecoveryReport`] and skipped, so one poisoned record cannot take
//! the rest of the log hostage.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use sitm_core::SemanticTrajectory;
use sitm_louvre::VisitRecord;

use crate::codec::{
    self, decode_trajectory, decode_visit, encode_trajectory, encode_visit, CodecError,
};
use crate::segment::{self, Corruption};

/// A value the log can persist.
pub trait Record: Sized {
    /// Appends the binary form to `buf`.
    fn encode_record(&self, buf: &mut Vec<u8>);
    /// Decodes from a payload; must consume exactly the record.
    fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

impl Record for SemanticTrajectory {
    fn encode_record(&self, buf: &mut Vec<u8>) {
        encode_trajectory(buf, self);
    }
    fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError> {
        decode_trajectory(buf)
    }
}

impl Record for VisitRecord {
    fn encode_record(&self, buf: &mut Vec<u8>) {
        encode_visit(buf, self);
    }
    fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError> {
        decode_visit(buf)
    }
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

/// An append-only, crash-recoverable record log.
#[derive(Debug)]
pub struct LogStore<R: Record> {
    file: File,
    path: PathBuf,
    records: usize,
    bytes: u64,
    scratch: Vec<u8>,
    _marker: PhantomData<R>,
}

impl<R: Record> LogStore<R> {
    /// Opens (or creates) the log at `path`, recovering its contents.
    ///
    /// Returns the store positioned for append, the decoded records, and
    /// a report of any repair performed.
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
                    file,
                    path,
                    records: 0,
                    bytes,
                    scratch: Vec::new(),
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
        let mut undecodable = 0usize;
        for payload in &outcome.payloads {
            let mut cursor: &[u8] = payload;
            match R::decode_record(&mut cursor) {
                Ok(r) if cursor.is_empty() => records.push(r),
                _ => undecodable += 1,
            }
        }
        let truncated = (data.len() - outcome.valid_len) as u64;
        if truncated > 0 {
            file.set_len(outcome.valid_len as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(outcome.valid_len as u64))?;
        let report = RecoveryReport {
            recovered: records.len(),
            truncated_bytes: truncated,
            corruption: outcome.corruption,
            undecodable_frames: undecodable,
        };
        Ok((
            LogStore {
                file,
                path,
                records: records.len(),
                bytes: outcome.valid_len as u64,
                scratch: Vec::new(),
                _marker: PhantomData,
            },
            records,
            report,
        ))
    }

    /// Appends one record; returns its byte offset in the file. Durable
    /// only after [`LogStore::sync`].
    pub fn append(&mut self, record: &R) -> Result<u64, StoreError> {
        let offset = self.bytes;
        self.scratch.clear();
        record.encode_record(&mut self.scratch);
        let mut frame = Vec::with_capacity(self.scratch.len() + segment::FRAME_OVERHEAD);
        segment::write_frame(&mut frame, &self.scratch);
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(offset)
    }

    /// Appends many records, then returns the count written.
    pub fn append_batch<'a, I>(&mut self, records: I) -> Result<usize, StoreError>
    where
        R: 'a,
        I: IntoIterator<Item = &'a R>,
    {
        let mut n = 0;
        for r in records {
            self.append(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Records currently in the log (recovered + appended).
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

    /// Atomically replaces the log's contents with `records`: writes a
    /// fresh segment beside the log, fsyncs it, and renames it over the
    /// original. On success the store points at the new file.
    pub fn compact(&mut self, records: &[R]) -> Result<(), StoreError> {
        let mut buf = Vec::new();
        segment::write_header(&mut buf);
        for r in records {
            self.scratch.clear();
            r.encode_record(&mut self.scratch);
            segment::write_frame(&mut buf, &self.scratch);
        }
        let tmp_path = self.path.with_extension("tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&buf)?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // Point the store at the new inode *before* anything else can
        // fail, so an error below never leaves appends going to the
        // replaced pre-compaction file.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.bytes = buf.len() as u64;
        self.records = records.len();
        // The rename itself lives in the directory entry; without this
        // fsync a power failure can resurrect the pre-compaction file
        // even though compact() already returned success. (Unix only:
        // directories cannot be opened as files elsewhere, and NTFS
        // metadata updates don't use this idiom.)
        #[cfg(unix)]
        if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    }
}

/// Re-export used by doctests and downstream error matching.
pub use codec::CodecError as LogCodecError;

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{
        Annotation, AnnotationSet, PresenceInterval, Timestamp, Trace, TransitionTaken,
    };
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_space::CellRef;
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

    fn traj(mo: &str, start: i64) -> SemanticTrajectory {
        let stay = PresenceInterval::new(
            TransitionTaken::Unknown,
            CellRef::new(LayerIdx::from_index(0), NodeId::from_index(1)),
            Timestamp(start),
            Timestamp(start + 60),
        );
        SemanticTrajectory::new(
            mo,
            Trace::new(vec![stay]).unwrap(),
            AnnotationSet::from_iter([Annotation::goal("visit")]),
        )
        .unwrap()
    }

    #[test]
    fn create_append_reopen() {
        let tmp = TempPath::new("basic");
        {
            let (mut log, records, report) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
            assert!(records.is_empty());
            assert!(report.is_clean());
            log.append(&traj("a", 0)).unwrap();
            log.append(&traj("b", 100)).unwrap();
            log.sync().unwrap();
            assert_eq!(log.len(), 2);
        }
        let (log, records, report) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].moving_object, "a");
        assert_eq!(records[1].moving_object, "b");
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let tmp = TempPath::new("torn");
        {
            let (mut log, _, _) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
            log.append(&traj("keep", 0)).unwrap();
            log.append(&traj("lost", 100)).unwrap();
            log.sync().unwrap();
        }
        // Tear the last frame.
        let data = std::fs::read(&tmp.0).unwrap();
        std::fs::write(&tmp.0, &data[..data.len() - 3]).unwrap();

        let (mut log, records, report) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].moving_object, "keep");
        assert!(report.truncated_bytes > 0);
        assert!(matches!(report.corruption, Some(Corruption::Torn { .. })));
        // The repaired log accepts appends and reopens cleanly.
        log.append(&traj("after-crash", 200)).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, records, report) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
        assert!(report.is_clean());
        let names: Vec<&str> = records.iter().map(|r| r.moving_object.as_str()).collect();
        assert_eq!(names, vec!["keep", "after-crash"]);
    }

    #[test]
    fn flipped_payload_byte_is_dropped() {
        let tmp = TempPath::new("flip");
        {
            let (mut log, _, _) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
            log.append(&traj("keep", 0)).unwrap();
            log.append(&traj("corrupt", 100)).unwrap();
            log.sync().unwrap();
        }
        let mut data = std::fs::read(&tmp.0).unwrap();
        let n = data.len();
        data[n - 4] ^= 0xFF; // inside the last payload
        std::fs::write(&tmp.0, &data).unwrap();
        let (_, records, report) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
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
        match LogStore::<SemanticTrajectory>::open(&tmp.0) {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn compact_rewrites_atomically() {
        let tmp = TempPath::new("compact");
        let (mut log, _, _) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
        for i in 0..10 {
            log.append(&traj(&format!("t{i}"), i * 100)).unwrap();
        }
        log.sync().unwrap();
        let before = log.size_bytes();
        // Keep only two records.
        let keep = [traj("x", 0), traj("y", 100)];
        log.compact(&keep).unwrap();
        assert_eq!(log.len(), 2);
        assert!(log.size_bytes() < before);
        // Appends still work after compaction, and reopen sees 3 records.
        log.append(&traj("z", 200)).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, records, report) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
        assert!(report.is_clean());
        let names: Vec<&str> = records.iter().map(|r| r.moving_object.as_str()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn visit_record_log() {
        use sitm_louvre::{Device, ZoneDetectionRecord};
        let tmp = TempPath::new("visits");
        let visit = VisitRecord {
            visit_id: 1,
            visitor_id: 7,
            device: Device::Ios,
            detections: vec![ZoneDetectionRecord {
                zone_id: 60887,
                start: Timestamp(0),
                end: Timestamp(3600),
            }],
        };
        {
            let (mut log, _, _) = LogStore::<VisitRecord>::open(&tmp.0).unwrap();
            log.append_batch(
                [&visit, &visit]
                    .into_iter()
                    .cloned()
                    .collect::<Vec<_>>()
                    .iter(),
            )
            .unwrap();
            log.sync().unwrap();
        }
        let (_, records, _) = LogStore::<VisitRecord>::open(&tmp.0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], visit);
    }

    #[test]
    fn append_offsets_are_monotonic() {
        let tmp = TempPath::new("offsets");
        let (mut log, _, _) = LogStore::<SemanticTrajectory>::open(&tmp.0).unwrap();
        let a = log.append(&traj("a", 0)).unwrap();
        let b = log.append(&traj("b", 10)).unwrap();
        assert_eq!(a, segment::MAGIC.len() as u64);
        assert!(b > a);
        assert_eq!(log.path(), tmp.0.as_path());
    }
}
