//! Append-only frame capture log: the pipeline's black-box flight data.
//!
//! Every [`FramePacket`] the source stage emits is appended to a
//! schema-versioned, FNV-checksummed binary log, fsync'd in bounded
//! segments. The log serves two consumers:
//!
//! * **shard recovery** — when a `shard.kill` fault marks an accumulator
//!   shard lost mid-block, the accumulate stage re-reads the block's
//!   frames from the log and rebuilds the shard bit-exactly;
//! * **incident replay** — `htims pipeline --replay <dir>` feeds the
//!   logged frames back through a fresh pipeline and reproduces the
//!   original output FNV bit-exactly, cross-process.
//!
//! ## On-disk format
//!
//! A log directory holds numbered segment files `seg-NNNNNN.htcl`. Each
//! segment starts with an 8-byte header — magic `HTCL` plus a
//! little-endian `u32` [`CAPTURE_SCHEMA_VERSION`] — followed by records:
//!
//! ```text
//! u32  payload_len         (bytes)
//! u64  seq_no
//! u8   flags               (bit 0: has_checksum)
//! [u64 checksum]           (present iff bit 0 set)
//! [u8] payload             (payload_len bytes)
//! u64  record_fnv          (FNV-1a 64 over all preceding record bytes)
//! ```
//!
//! All integers little-endian. `origin_ns` is deliberately *not* logged —
//! it is wall-clock metadata excluded from the payload checksum, and
//! replay re-stamps it so end-to-end latency histograms stay meaningful.
//! Segments rotate at a byte threshold and are fsync'd on rotation and on
//! [`CaptureLog::finish`]. Opening for read validates every record's FNV
//! and *physically truncates* a corrupt tail (the torn write of a crashed
//! producer), keeping every intact prefix record.
//!
//! Reads take each segment into one exactly-sized buffer, locate records
//! from their length fields, and check the FNV trailers four records at a
//! time in lock-step ([`fnv1a64_x4`]), across segment boundaries; a
//! record counts only if every earlier record of its segment does.
//! Payloads are handed out as zero-copy slices of the segment buffer.

use ims_fpga::dma::{fnv1a64, fnv1a64_x4, FramePacket};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version stamped into every segment header; bumped on any record-format
/// change so stale logs fail loudly instead of misparsing.
pub const CAPTURE_SCHEMA_VERSION: u32 = 1;

/// Segment-file magic, the first four bytes of every segment.
pub const CAPTURE_MAGIC: &[u8; 4] = b"HTCL";

/// Default segment rotation threshold (bytes of records per segment).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

const HEADER_LEN: u64 = 8;

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.htcl"))
}

#[derive(Debug)]
enum Mode {
    /// Writable: `append` encodes and buffers records, rotating segments.
    Append {
        writer: BufWriter<File>,
        segment: u64,
        written: u64,
        segment_bytes: u64,
    },
    /// Replay handle: `append` is a no-op, reads come from disk.
    ReadOnly,
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    mode: Mode,
}

/// A handle to a capture-log directory; cheap to clone (clones share the
/// writer), safe to append from whichever thread runs the source stage
/// while the accumulate stage reads frames back for a shard rebuild.
#[derive(Debug, Clone)]
pub struct CaptureLog {
    inner: Arc<Mutex<Inner>>,
}

impl CaptureLog {
    /// Creates (or resets) `dir` as a fresh writable log: stale segment
    /// files are removed and segment 0 is opened with its header written.
    pub fn create(dir: &Path) -> std::io::Result<Self> {
        Self::create_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`create`](Self::create) with an explicit rotation threshold —
    /// tests use small segments to exercise rotation and tail truncation.
    pub fn create_with_segment_bytes(dir: &Path, segment_bytes: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "htcl") {
                std::fs::remove_file(path)?;
            }
        }
        let writer = open_segment(dir, 0)?;
        Ok(Self {
            inner: Arc::new(Mutex::new(Inner {
                dir: dir.to_path_buf(),
                mode: Mode::Append {
                    writer,
                    segment: 0,
                    written: 0,
                    segment_bytes: segment_bytes.max(1),
                },
            })),
        })
    }

    /// Opens an existing log read-only, validating every segment in
    /// order. A record whose FNV trailer does not match — a torn tail
    /// from a crashed producer — is handled by *physically truncating*
    /// that segment at the last intact record and ignoring any later
    /// segments; every validated prefix record survives.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        if !segment_path(dir, 0).exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no capture segments in {}", dir.display()),
            ));
        }
        for segment in Scanner::new(dir) {
            let intact = segment.intact_len();
            if intact < segment.bytes?.len() {
                let file = OpenOptions::new().write(true).open(&segment.path)?;
                file.set_len(intact as u64)?;
                file.sync_all()?;
                ims_obs::static_counter!("capture.tail_truncations").incr();
                break; // later segments postdate the torn write
            }
        }
        Ok(Self {
            inner: Arc::new(Mutex::new(Inner {
                dir: dir.to_path_buf(),
                mode: Mode::ReadOnly,
            })),
        })
    }

    /// The log directory.
    pub fn dir(&self) -> PathBuf {
        self.inner.lock().unwrap().dir.clone()
    }

    /// Appends one packet (no-op on a read-only handle). Rotation flushes
    /// and fsyncs the finished segment, so at most the live segment's
    /// tail is at risk from a crash — exactly what truncation-on-open
    /// repairs.
    pub fn append(&self, packet: &FramePacket) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let dir = inner.dir.clone();
        let Mode::Append {
            writer,
            segment,
            written,
            segment_bytes,
        } = &mut inner.mode
        else {
            return Ok(());
        };
        let record = encode_record(packet);
        if *written > 0 && *written + record.len() as u64 > *segment_bytes {
            writer.flush()?;
            writer.get_ref().sync_all()?;
            *segment += 1;
            *writer = open_segment(&dir, *segment)?;
            *written = 0;
        }
        writer.write_all(&record)?;
        *written += record.len() as u64;
        ims_obs::static_counter!("capture.frames_logged").incr();
        ims_obs::static_counter!("capture.bytes_logged").add(record.len() as u64);
        Ok(())
    }

    /// Flushes and fsyncs the live segment (no-op read-only). Call at end
    /// of run so the log survives the process.
    pub fn finish(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if let Mode::Append { writer, .. } = &mut inner.mode {
            writer.flush()?;
            writer.get_ref().sync_all()?;
        }
        Ok(())
    }

    /// Reads every logged packet, in append order. Works on both handle
    /// modes (a writable handle flushes first, so a mid-run rebuild sees
    /// everything appended so far). Each segment's records are read up to
    /// its first torn or corrupt one (a handle that skipped `open`'s
    /// validation — the mid-run rebuild path — may see its own live
    /// segment's tail mid-write). Payloads are zero-copy slices of the
    /// segment buffers. `origin_ns` is re-stamped at read time — it is
    /// not logged (see the module docs).
    pub fn read_all(&self) -> std::io::Result<Vec<FramePacket>> {
        let mut inner = self.inner.lock().unwrap();
        if let Mode::Append { writer, .. } = &mut inner.mode {
            writer.flush()?;
        }
        let dir = inner.dir.clone();
        drop(inner);
        let mut out = Vec::new();
        for segment in Scanner::new(&dir) {
            let accepted = segment.accepted();
            let bytes = segment.bytes?;
            out.extend(segment.records[..accepted].iter().map(|r| FramePacket {
                seq_no: r.seq_no,
                payload: bytes.slice(r.payload.clone()),
                checksum: r.checksum,
                origin_ns: ims_obs::trace::now_ns(),
            }));
        }
        Ok(out)
    }

    /// Reads exactly the packets with the given seq-nos, in the order
    /// asked (repeats allowed), erroring if any is missing — the
    /// shard-rebuild read path, where a partial frame set would rebuild a
    /// *wrong* shard rather than no shard. One pass over the log builds a
    /// `seq_no → packet` map; a seq-no logged twice resolves to its first
    /// record.
    pub fn read_frames(&self, seq_nos: &[u64]) -> std::io::Result<Vec<FramePacket>> {
        let mut by_seq = HashMap::new();
        for p in self.read_all()? {
            by_seq.entry(p.seq_no).or_insert(p);
        }
        seq_nos
            .iter()
            .map(|seq| {
                by_seq.get(seq).cloned().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("frame {seq} not in capture log"),
                    )
                })
            })
            .collect()
    }
}

fn open_segment(dir: &Path, index: u64) -> std::io::Result<BufWriter<File>> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(segment_path(dir, index))?;
    let mut writer = BufWriter::new(file);
    writer.write_all(CAPTURE_MAGIC)?;
    writer.write_all(&CAPTURE_SCHEMA_VERSION.to_le_bytes())?;
    Ok(writer)
}

fn encode_record(packet: &FramePacket) -> Vec<u8> {
    let mut buf = Vec::with_capacity(packet.payload.len() + 32);
    buf.extend_from_slice(&(packet.payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&packet.seq_no.to_le_bytes());
    buf.push(u8::from(packet.checksum.is_some()));
    if let Some(sum) = packet.checksum {
        buf.extend_from_slice(&sum.to_le_bytes());
    }
    buf.extend_from_slice(&packet.payload);
    let fnv = fnv1a64(&buf);
    buf.extend_from_slice(&fnv.to_le_bytes());
    buf
}

/// Where one record sits in its segment buffer, located from its length
/// fields alone (its FNV trailer is checked separately).
#[derive(Debug)]
struct Record {
    /// Offset of the record's first byte.
    at: usize,
    /// The payload; its end is where the FNV trailer starts, so the
    /// hashed bytes are `at..payload.end`.
    payload: std::ops::Range<usize>,
    /// The FNV trailer's value.
    stored_fnv: u64,
    seq_no: u64,
    checksum: Option<u64>,
}

impl Record {
    /// Offset just past the record.
    fn end(&self) -> usize {
        self.payload.end + 8
    }
}

/// Locates the record starting at `bytes[at..]`, or `None` when the
/// bytes left are too short to hold it (a torn tail).
fn locate_record(bytes: &[u8], at: usize) -> Option<Record> {
    let rest = &bytes[at..];
    let word = |off: usize, n: usize| rest.get(off..off.checked_add(n)?);
    let payload_len = u32::from_le_bytes(word(0, 4)?.try_into().ok()?) as usize;
    let seq_no = u64::from_le_bytes(word(4, 8)?.try_into().ok()?);
    let has_checksum = *rest.get(12)? & 1 != 0;
    let mut off = 13usize;
    let checksum = if has_checksum {
        off += 8;
        Some(u64::from_le_bytes(word(13, 8)?.try_into().ok()?))
    } else {
        None
    };
    let trailer = off.checked_add(payload_len)?;
    let stored_fnv = u64::from_le_bytes(word(trailer, 8)?.try_into().ok()?);
    Some(Record {
        at,
        payload: at + off..at + trailer,
        stored_fnv,
        seq_no,
        checksum,
    })
}

fn read_header(bytes: &[u8], path: &Path) -> std::io::Result<()> {
    if bytes.len() < HEADER_LEN as usize || &bytes[0..4] != CAPTURE_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: not a capture segment", path.display()),
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != CAPTURE_SCHEMA_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: capture schema v{version}, this build reads v{CAPTURE_SCHEMA_VERSION}",
                path.display()
            ),
        ));
    }
    Ok(())
}

/// One segment file read whole into one exactly-sized buffer, with its
/// records located and (once the scanner reaches them) verified.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    /// The file's bytes, or the error reading it or its header.
    bytes: std::io::Result<bytes::Bytes>,
    /// Every record the length fields locate, in file order (none when
    /// `bytes` is an error).
    records: Vec<Record>,
    /// FNV verdicts for `records[..verdicts.len()]`.
    verdicts: Vec<bool>,
}

impl Segment {
    fn read(path: PathBuf) -> Self {
        let bytes = std::fs::read(&path).and_then(|b| read_header(&b, &path).map(|()| b));
        let mut records = Vec::new();
        if let Ok(b) = &bytes {
            let mut at = HEADER_LEN as usize;
            while let Some(r) = (at < b.len()).then(|| locate_record(b, at)).flatten() {
                at = r.end();
                records.push(r);
            }
        }
        Self {
            path,
            bytes: bytes.map(bytes::Bytes::from),
            records,
            verdicts: Vec::new(),
        }
    }

    fn unverified(&self) -> usize {
        self.records.len() - self.verdicts.len()
    }

    /// Records accepted: record i is accepted only if its FNV matches and
    /// every earlier record was accepted.
    fn accepted(&self) -> usize {
        self.verdicts.iter().take_while(|&&ok| ok).count()
    }

    /// Length of the intact prefix (header plus accepted records); the
    /// rest of the file is a torn or corrupt tail.
    fn intact_len(&self) -> usize {
        match self.records.get(self.accepted()) {
            Some(r) => r.at,
            None => self.records.last().map_or(HEADER_LEN as usize, Record::end),
        }
    }
}

/// Records hashed in lock-step by [`fnv1a64_x4`].
const LANES: usize = 4;

/// Walks a log's segments in order, yielding each once all its records
/// are verified. Record trailers are checked [`LANES`] records at a time
/// — four independent FNV chains, taken in log order across segment
/// boundaries — so a segment is read ahead of the one being yielded only
/// as far as the next group needs. Stopping early (as `open` does at a
/// torn segment) leaves later segments unread past that look-ahead.
struct Scanner<'a> {
    dir: &'a Path,
    next_index: u64,
    exhausted: bool,
    queue: VecDeque<Segment>,
}

impl<'a> Scanner<'a> {
    fn new(dir: &'a Path) -> Self {
        Self {
            dir,
            next_index: 0,
            exhausted: false,
            queue: VecDeque::new(),
        }
    }

    /// Reads the next segment file into the queue; `false` at the end.
    fn read_next(&mut self) -> bool {
        let path = segment_path(self.dir, self.next_index);
        if self.exhausted || !path.exists() {
            self.exhausted = true;
            return false;
        }
        self.queue.push_back(Segment::read(path));
        self.next_index += 1;
        true
    }

    /// Hashes the next (up to) [`LANES`] unverified records of the queue
    /// in lock-step and records their verdicts.
    fn verify_group(&mut self) {
        let mut group: Vec<(usize, usize)> = Vec::with_capacity(LANES);
        for (q, seg) in self.queue.iter().enumerate() {
            let from = seg.verdicts.len();
            let take = seg.unverified().min(LANES - group.len());
            group.extend((from..from + take).map(|r| (q, r)));
        }
        let mut parts: [&[u8]; LANES] = [&[]; LANES];
        for (part, &(q, r)) in parts.iter_mut().zip(&group) {
            let seg = &self.queue[q];
            // Only a readable segment has located records.
            let bytes = seg.bytes.as_deref().unwrap_or_default();
            let rec = &seg.records[r];
            *part = &bytes[rec.at..rec.payload.end];
        }
        let hashes = fnv1a64_x4(parts);
        for (&(q, r), hash) in group.iter().zip(hashes) {
            let seg = &mut self.queue[q];
            let ok = hash == seg.records[r].stored_fnv;
            seg.verdicts.push(ok);
        }
    }
}

impl Iterator for Scanner<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        loop {
            if self.queue.front().is_some_and(|s| s.unverified() == 0) {
                return self.queue.pop_front();
            }
            let pending: usize = self.queue.iter().map(Segment::unverified).sum();
            if pending < LANES && self.read_next() {
                continue;
            }
            if pending == 0 {
                return None;
            }
            self.verify_group();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("htims_capture_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn packet(seq: u64, checked: bool) -> FramePacket {
        let words: Vec<u32> = (0..16)
            .map(|i| (i as u32).wrapping_mul(seq as u32 + 3))
            .collect();
        if checked {
            FramePacket::from_words_checked(seq, &words)
        } else {
            FramePacket::from_words(seq, &words)
        }
    }

    #[test]
    fn round_trips_packets_across_segments() {
        let dir = temp_dir("roundtrip");
        // Tiny segments force several rotations.
        let log = CaptureLog::create_with_segment_bytes(&dir, 200).unwrap();
        let packets: Vec<FramePacket> = (0..12).map(|i| packet(i, i % 2 == 0)).collect();
        for p in &packets {
            log.append(p).unwrap();
        }
        log.finish().unwrap();
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| e
                    .as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "htcl"))
                .count()
                > 1,
            "small segment limit must rotate"
        );

        let reader = CaptureLog::open(&dir).unwrap();
        let back = reader.read_all().unwrap();
        assert_eq!(back.len(), packets.len());
        for (a, b) in packets.iter().zip(&back) {
            assert_eq!(a.seq_no, b.seq_no);
            assert_eq!(a.payload, b.payload);
            assert_eq!(a.checksum, b.checksum);
            assert!(b.verify());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_frames_selects_by_seq_and_errors_on_missing() {
        let dir = temp_dir("select");
        // Small segments: the 64 packets span many of them.
        let log = CaptureLog::create_with_segment_bytes(&dir, 500).unwrap();
        let packets: Vec<FramePacket> = (0..64).map(|i| packet(i, i % 3 == 0)).collect();
        for p in &packets {
            log.append(p).unwrap();
        }
        // Out of order, with repeats, first and last included.
        let picks = [63, 6, 2, 2, 40, 0, 63, 17, 6];
        let picked = log.read_frames(&picks).unwrap();
        assert_eq!(picked.len(), picks.len());
        for (p, &seq) in picked.iter().zip(&picks) {
            let want = &packets[seq as usize];
            assert_eq!(p.seq_no, seq);
            assert_eq!(p.payload, want.payload);
            assert_eq!(p.checksum, want.checksum);
        }
        assert!(log.read_frames(&[]).unwrap().is_empty());
        for missing in [&[99][..], &[5, 64, 7], &[3, 3, u64::MAX]] {
            let err = log.read_frames(missing).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{missing:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_truncated_on_open_keeping_prefix() {
        let dir = temp_dir("tail");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..5 {
            log.append(&packet(i, true)).unwrap();
        }
        log.finish().unwrap();
        // Simulate a torn write: chop bytes off the live segment's tail.
        let seg = segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 7)
            .unwrap();

        let reader = CaptureLog::open(&dir).unwrap();
        let back = reader.read_all().unwrap();
        assert_eq!(back.len(), 4, "intact prefix records survive");
        assert!(back.iter().all(|p| p.verify()));
        // Truncation was physical: re-opening finds a clean log.
        assert!(std::fs::metadata(&seg).unwrap().len() < len - 7);
        let again = CaptureLog::open(&dir).unwrap();
        assert_eq!(again.read_all().unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_body_is_detected_by_record_fnv() {
        let dir = temp_dir("flip");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..3 {
            log.append(&packet(i, false)).unwrap();
        }
        log.finish().unwrap();
        // Flip one byte inside the *last* record's payload.
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();

        let back = CaptureLog::open(&dir).unwrap().read_all().unwrap();
        assert_eq!(back.len(), 2, "FNV catches the corrupt record");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_fail_loudly() {
        let dir = temp_dir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), b"NOPE0000").unwrap();
        assert!(CaptureLog::open(&dir).is_err());
        let mut hdr = CAPTURE_MAGIC.to_vec();
        hdr.extend_from_slice(&(CAPTURE_SCHEMA_VERSION + 1).to_le_bytes());
        std::fs::write(segment_path(&dir, 0), &hdr).unwrap();
        let err = CaptureLog::open(&dir).unwrap_err().to_string();
        assert!(err.contains("schema"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writable_handle_reads_back_mid_run() {
        // The shard-rebuild path: read through the same (still-open)
        // writable handle, no finish() yet.
        let dir = temp_dir("midrun");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..4 {
            log.append(&packet(i, false)).unwrap();
        }
        let back = log.read_frames(&[0, 3]).unwrap();
        assert_eq!(back[0].seq_no, 0);
        assert_eq!(back[1].seq_no, 3);
        // And appending continues to work afterwards.
        log.append(&packet(4, false)).unwrap();
        assert_eq!(log.read_all().unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_append_is_a_noop() {
        let dir = temp_dir("readonly");
        let log = CaptureLog::create(&dir).unwrap();
        log.append(&packet(0, false)).unwrap();
        log.finish().unwrap();
        let ro = CaptureLog::open(&dir).unwrap();
        ro.append(&packet(1, false)).unwrap();
        ro.finish().unwrap();
        assert_eq!(ro.read_all().unwrap().len(), 1, "read-only must not grow");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The sequential record walk the reader replaced, kept as its oracle:
    /// parses one record from `bytes[at..]`, returning `(seq_no, payload,
    /// checksum, next_offset)`, or `None` for a short or FNV-mismatched
    /// record (a torn tail).
    fn decode_record(bytes: &[u8], at: usize) -> Option<(Logged, usize)> {
        let rest = &bytes[at..];
        if rest.len() < 13 {
            return None;
        }
        let payload_len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let seq_no = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let has_checksum = rest[12] & 1 != 0;
        let mut off = 13;
        let checksum = if has_checksum {
            if rest.len() < off + 8 {
                return None;
            }
            let sum = u64::from_le_bytes(rest[off..off + 8].try_into().unwrap());
            off += 8;
            Some(sum)
        } else {
            None
        };
        if rest.len() < off + payload_len + 8 {
            return None;
        }
        let payload = rest[off..off + payload_len].to_vec();
        off += payload_len;
        let stored_fnv = u64::from_le_bytes(rest[off..off + 8].try_into().unwrap());
        if fnv1a64(&rest[..off]) != stored_fnv {
            return None;
        }
        Some(((seq_no, payload, checksum), at + off + 8))
    }

    /// `(seq_no, payload, checksum)` of one record.
    type Logged = (u64, Vec<u8>, Option<u64>);

    fn logged(packets: &[FramePacket]) -> Vec<Logged> {
        packets
            .iter()
            .map(|p| (p.seq_no, p.payload.to_vec(), p.checksum))
            .collect()
    }

    /// Oracle `read_all`: every segment in order, each up to its first
    /// record that fails to decode. `None` where a header is bad.
    fn oracle_read(segments: &[Vec<u8>]) -> Option<Vec<Logged>> {
        let mut out = Vec::new();
        for bytes in segments {
            read_header(bytes, Path::new("seg")).ok()?;
            let mut at = HEADER_LEN as usize;
            while let Some((rec, next)) = (at < bytes.len())
                .then(|| decode_record(bytes, at))
                .flatten()
            {
                out.push(rec);
                at = next;
            }
        }
        Some(out)
    }

    /// Oracle `open`: truncates the first segment with a torn or corrupt
    /// record at its last intact record and leaves later segments alone.
    fn oracle_open(segments: &mut [Vec<u8>]) {
        for bytes in segments.iter_mut() {
            let mut at = HEADER_LEN as usize;
            while at < bytes.len() {
                match decode_record(bytes, at) {
                    Some((_, next)) => at = next,
                    None => {
                        bytes.truncate(at);
                        return;
                    }
                }
            }
        }
    }

    fn write_segments(dir: &Path, segments: &[Vec<u8>]) {
        for (i, bytes) in segments.iter().enumerate() {
            std::fs::write(segment_path(dir, i as u64), bytes).unwrap();
        }
    }

    fn read_segments(dir: &Path, count: usize) -> Vec<Vec<u8>> {
        (0..count as u64)
            .map(|i| std::fs::read(segment_path(dir, i)).unwrap())
            .collect()
    }

    /// Checks the reader against the oracle on one (possibly damaged)
    /// log: `read_all` on a handle that skipped validation, then `open`'s
    /// truncation, then `read_all` after it.
    fn assert_matches_oracle(dir: &Path, segments: &[Vec<u8>], case: &str) {
        write_segments(dir, segments);
        let raw = CaptureLog {
            inner: Arc::new(Mutex::new(Inner {
                dir: dir.to_path_buf(),
                mode: Mode::ReadOnly,
            })),
        };
        let want = oracle_read(segments).expect("headers are intact");
        assert_eq!(logged(&raw.read_all().unwrap()), want, "read_all, {case}");

        let mut opened = segments.to_vec();
        oracle_open(&mut opened);
        let log = CaptureLog::open(dir).unwrap();
        assert_eq!(read_segments(dir, segments.len()), opened, "open, {case}");
        let want = oracle_read(&opened).expect("headers are intact");
        assert_eq!(
            logged(&log.read_all().unwrap()),
            want,
            "read after open, {case}"
        );
    }

    #[test]
    fn reader_matches_the_sequential_walk_under_flips_and_truncation() {
        let dir = temp_dir("adversarial");
        // 12 records of two lengths (checked ones carry 8 more bytes),
        // three per segment: every four-record group straddles segments.
        let log = CaptureLog::create_with_segment_bytes(&dir, 300).unwrap();
        for i in 0..12 {
            log.append(&packet(i, i % 2 == 1)).unwrap();
        }
        log.finish().unwrap();
        let n_segments = std::fs::read_dir(&dir).unwrap().count();
        assert!(n_segments >= 3, "{n_segments} segments");
        let pristine = read_segments(&dir, n_segments);
        assert_matches_oracle(&dir, &pristine, "intact");

        // Locate every record with the oracle walk.
        let mut records = Vec::new();
        for (s, bytes) in pristine.iter().enumerate() {
            let mut at = HEADER_LEN as usize;
            while let Some((_, next)) = (at < bytes.len())
                .then(|| decode_record(bytes, at))
                .flatten()
            {
                records.push((s, at, next));
                at = next;
            }
        }
        assert_eq!(records.len(), 12);
        // The first record, one mid-log (last of its segment), and the
        // last record of the log.
        for &(s, start, end) in [records[0], records[5], records[11]].iter() {
            for at in start..end {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut damaged = pristine.clone();
                    damaged[s][at] ^= mask;
                    assert_matches_oracle(
                        &dir,
                        &damaged,
                        &format!("seg {s} byte {at} ^ {mask:#x}"),
                    );
                }
                let mut torn = pristine.clone();
                torn[s].truncate(at);
                assert_matches_oracle(&dir, &torn, &format!("seg {s} cut at {at}"));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_length_field_reads_as_a_torn_tail() {
        let dir = temp_dir("oversized");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..3 {
            log.append(&packet(i, true)).unwrap();
        }
        log.finish().unwrap();
        let mut seg = read_segments(&dir, 1);
        // The second record's payload_len claims 4 GiB.
        let (_, second) = decode_record(&seg[0], HEADER_LEN as usize).unwrap();
        seg[0][second..second + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_matches_oracle(&dir, &seg, "payload_len = u32::MAX");
        assert_eq!(CaptureLog::open(&dir).unwrap().read_all().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_payloads_are_slices_of_one_segment_buffer() {
        let dir = temp_dir("zerocopy");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..3 {
            log.append(&packet(i, i == 1)).unwrap();
        }
        let back = log.read_all().unwrap();
        // One segment: consecutive payloads sit one record apart in the
        // same allocation.
        let gap = |a: &FramePacket, b: &FramePacket| {
            b.payload.as_ptr() as usize - a.payload.as_ptr() as usize
        };
        assert_eq!(gap(&back[0], &back[1]), back[0].len_bytes() + 8 + 13 + 8);
        assert_eq!(gap(&back[1], &back[2]), back[1].len_bytes() + 8 + 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
