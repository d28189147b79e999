//! Disk-backed segmented trace captures with a block index — the one
//! on-disk binary trace format.
//!
//! A capture holds the 64-byte frames of [`crate::frame`], grouped into
//! fixed-size **segments**, with a per-segment index entry and a footer
//! that lets a reader seek — so queries run in O(one segment) memory
//! and skip whole segments the index proves irrelevant.
//!
//! # File layout (version 3, little-endian)
//!
//! ```text
//! header    16 B  CAPTURE_MAGIC (8) · version u32 · frame_len u32
//! data            segments and checkpoint blobs, back to back:
//!   segment       N×64 B frames ([`crate::frame`]'s codec); the last
//!                 segment may hold fewer than segment_frames
//!   blob          a checkpoint labelled k sits right before segment
//!                 k's data, or last when k equals the segment count
//! extension       optional (absent iff trailer ext_offset == 0):
//!                   EXT_MAGIC (8) · checkpoints u32 · alerts_len u32
//!                   · per checkpoint: seg_index u64 · blob_len u32
//!                   · alerts JSONL bytes
//! directory       one SEGMENT_ENTRY_LEN-byte entry per segment:
//!                   offset u64 · frames u32 · at_min u64 · at_max u64
//!                   · kind_counts [u32; TAG_COUNT] · node_filter [u8; 32]
//! trailer   48 B  dir_offset u64 · segments u64 · frames u64
//!                 · frames_dropped u64 · ext_offset u64 · TRAILER_MAGIC (8)
//! ```
//!
//! The trailer is fixed-size and *last*, so a reader opens a capture by
//! reading the final 48 bytes, seeking to the directory, and loading
//! `segments × 128` bytes of index — never the data. Because the
//! directory and trailer are written only by [`CaptureWriter::finish`],
//! a capture that was cut off mid-write fails validation loudly instead
//! of silently truncating a forensic record. The writer is append-only
//! (no seeks), so [`CaptureSink`] gathers frames and blobs into
//! [`WRITE_CHUNK`]-byte chunks and hands the file one chunk per `write`;
//! a slice of at least a chunk goes to the file directly.
//! [`TraceSink::flush`] still puts everything pushed so far on disk. A
//! crash loses only the tail that was never flushed, now up to one
//! chunk, and the file then fails validation as above.
//!
//! **Checkpoints** are opaque blobs keyed by segment index (the health
//! plane stores serialized detector-bank state there — this crate never
//! interprets the bytes). The writer puts each one into the data region
//! the moment it is taken, so a recording holds no blob in memory; the
//! extension block after the data keeps only their `(seg_index,
//! blob_len)` index plus an embedded alert-JSONL stream. Blob offsets
//! are not stored: the reader derives them while it walks the directory,
//! and segments and blobs must **tile** `[16, ext_offset)` exactly — a
//! blob labelled `k` starts where segment `k`'s data starts and that
//! segment's recorded offset follows the blob. Labels rise strictly, are
//! at most the segment count, name a segment that holds data (or the
//! end), and every blob is non-empty; so any change to a label, a blob
//! length or a segment offset breaks the tiling and fails the open.
//!
//! Opening reads the extension block's 16-byte head, its entry heads
//! (one contiguous read) and the alert JSONL, and never a blob: the
//! bytes an open reads do not depend on blob size. The index records
//! each blob's place ([`BlobRef`]) and [`CaptureReader::checkpoint_blob`]
//! reads one on demand — a windowed replay reads the one it restores.
//! The index must fill the block exactly: bad magic, entry heads running
//! past the block, an alert length that does not fill the rest, and
//! alerts that are not UTF-8 all fail the open.
//!
//! Older versions are read unchanged through the same open path, which
//! differs only in where blob offsets come from. Version 1 wrote the
//! `ext_offset` slot as a reserved zero ("no extension block"). Version
//! 2 kept every blob inside the extension block, right after its entry
//! head, so segments alone tile the data region and the reader seeks
//! over the blobs to index them.

//! # Compacted segments
//!
//! `wmsn-trace compact` rewrites old segments down to their directory
//! summaries: a compacted segment keeps its full index entry (frame
//! count, `at` range, kind counts, node filter — so index-only queries
//! like [`capture_counts`] stay *exact*) but its frame data is gone
//! from the file. The entry's `offset` field is the
//! [`COMPACTED_OFFSET`] sentinel. Any frame-level read that touches a
//! compacted segment is a **hard error**, never a silently partial
//! answer.
//!
//! # The index is a pruner, not an oracle
//!
//! Each entry carries the segment's `at` range, exact per-kind event
//! counts, and a 256-bit bloom filter over every node id its events
//! mention. [`CaptureReader::scan`] skips a segment only when the index
//! *proves* no frame can match ([`ScanFilter`]); within a scanned
//! segment every frame is still checked exactly, so query answers are
//! identical to a full decode — the index only buys speed, never
//! changes results.
//!
//! # Dropped frames are part of the record
//!
//! The trailer carries a `frames_dropped` count
//! ([`CaptureWriter::set_frames_dropped`]). Nothing in this crate drops
//! frames — a sink records inline on the simulation thread — so fresh
//! captures record zero;
//! compaction carries an input capture's count forward, and `wmsn-trace`
//! warns on stderr before answering queries from a file whose count is
//! non-zero, because such a file is a sample, not a transcript.

use crate::event::{DropCause, TraceEvent, TraceKind, TraceTier, Visit};
use crate::frame::{decode_frame, encode_frame, event_tag, tag_name, FRAME_LEN, TAG_COUNT};
use crate::replay::EventSource;
use crate::sink::TraceSink;
use std::any::Any;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use wmsn_util::codec::{DecodeError, Reader};
use wmsn_util::NodeId;

/// Magic bytes opening a segmented trace capture.
pub const CAPTURE_MAGIC: [u8; 8] = *b"WMSNTRS\0";
/// Magic bytes closing the capture trailer.
pub const TRAILER_MAGIC: [u8; 8] = *b"WMSNTRF\0";
/// Magic bytes opening the optional extension block (checkpoints +
/// embedded alerts).
pub const EXT_MAGIC: [u8; 8] = *b"WMSNTRX\0";
/// Capture container version written by [`CaptureWriter`]. Versions 1
/// (no extension block, no compacted segments) and 2 (checkpoint blobs
/// inside the extension block) are still read.
pub const CAPTURE_VERSION: u32 = 3;
/// Sentinel `offset` of a compacted segment's directory entry: the
/// index entry is intact but the frame data has been removed.
pub const COMPACTED_OFFSET: u64 = u64::MAX;
/// Size of the capture header, bytes (magic, version, frame length).
pub const CAPTURE_HEADER_LEN: usize = 16;
/// Size of one segment-directory entry, bytes.
pub const SEGMENT_ENTRY_LEN: usize = 128;
/// Size of the capture trailer, bytes.
pub const TRAILER_LEN: usize = 48;
/// Size of the per-segment node-membership bloom filter, bytes (256
/// bits, 2 hash positions per id).
pub const NODE_FILTER_LEN: usize = 32;
/// Default frames per segment: 8192 × 64 B = 512 KiB of data per
/// segment — the unit of both read buffering and index granularity.
pub const DEFAULT_SEGMENT_FRAMES: usize = 8192;
/// Bytes a [`CaptureSink`] gathers before it writes them to the file.
/// A recording then makes one `write` per chunk instead of one per
/// 8 KiB; a slice at least this long (a whole segment copied by
/// [`CaptureWriter::push_segment_raw`], a large checkpoint blob) goes
/// to the file directly.
pub const WRITE_CHUNK: usize = 128 * 1024;

/// Tuning for a capture writer.
#[derive(Clone, Copy, Debug)]
pub struct CaptureConfig {
    /// Frames per segment (the last segment may be shorter). Larger
    /// segments mean fewer index entries but coarser skipping and a
    /// bigger per-segment read buffer.
    pub segment_frames: usize,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            segment_frames: DEFAULT_SEGMENT_FRAMES,
        }
    }
}

/// Final telemetry of one finished capture.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaptureStats {
    /// Frames written.
    pub frames: u64,
    /// Segments written.
    pub segments: u64,
    /// Total file size, bytes (header + data + directory + trailer).
    pub bytes: u64,
    /// Dropped-frame count recorded in the trailer.
    pub frames_dropped: u64,
}

/// One segment's directory entry: where it is, what it spans, and
/// conservative membership summaries for index-driven skipping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Byte offset of the segment's first frame.
    pub offset: u64,
    /// Frames in the segment.
    pub frames: u32,
    /// Minimum causal `at` stamp of any frame in the segment.
    pub at_min: u64,
    /// Maximum causal `at` stamp of any frame in the segment.
    pub at_max: u64,
    /// Exact event count per wire tag (index `tag - 1`).
    pub kind_counts: [u32; TAG_COUNT],
    /// Bloom filter over every node id mentioned by any frame.
    pub node_filter: [u8; NODE_FILTER_LEN],
}

impl SegmentMeta {
    fn empty(offset: u64) -> SegmentMeta {
        SegmentMeta {
            offset,
            frames: 0,
            at_min: u64::MAX,
            at_max: 0,
            kind_counts: [0; TAG_COUNT],
            node_filter: [0; NODE_FILTER_LEN],
        }
    }

    /// Whether the segment *may* contain a frame mentioning `id`.
    /// `false` is definitive (no false negatives); `true` is a maybe.
    pub fn maybe_mentions(&self, id: NodeId) -> bool {
        let (a, b) = filter_positions(id);
        self.node_filter[a / 8] & (1 << (a % 8)) != 0
            && self.node_filter[b / 8] & (1 << (b % 8)) != 0
    }

    /// Exact count of frames with wire tag `tag` (0 for unknown tags).
    pub fn count_of_tag(&self, tag: u8) -> u64 {
        let i = usize::from(tag).wrapping_sub(1);
        self.kind_counts.get(i).map_or(0, |&c| c as u64)
    }

    /// Whether this segment's frame data has been removed by
    /// compaction (the index entry itself is still exact).
    pub fn is_compacted(&self) -> bool {
        self.offset == COMPACTED_OFFSET
    }
}

/// The two bloom bit positions (0..256) for a node id — a SplitMix64
/// finalizer over the id, deterministic across platforms.
fn filter_positions(id: NodeId) -> (usize, usize) {
    let mut x = (id.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x & 0xFF) as usize, ((x >> 8) & 0xFF) as usize)
}

fn filter_insert(filter: &mut [u8; NODE_FILTER_LEN], id: NodeId) {
    let (a, b) = filter_positions(id);
    filter[a / 8] |= 1 << (a % 8);
    filter[b / 8] |= 1 << (b % 8);
}

/// Hands every node id an event mentions to the wrapped closure: the
/// `id` fields and the present `opt_id` fields of its schema row
/// (sender, receiver, origin, next hop, gateway — whichever the
/// variant carries).
struct NodeIds<F>(F);

impl<F: FnMut(NodeId)> Visit for NodeIds<F> {
    fn u8(&mut self, _: &'static str, _: u8) {}
    fn u16(&mut self, _: &'static str, _: u16) {}
    fn u32(&mut self, _: &'static str, _: u32) {}
    fn u64(&mut self, _: &'static str, _: u64) {}
    fn f64(&mut self, _: &'static str, _: f64) {}
    fn bool(&mut self, _: &'static str, _: bool) {}
    fn id(&mut self, _: &'static str, v: NodeId) {
        (self.0)(v);
    }
    fn opt_id(&mut self, _: &'static str, v: Option<NodeId>) {
        if let Some(n) = v {
            (self.0)(n);
        }
    }
    fn tier(&mut self, _: &'static str, _: TraceTier) {}
    fn kind(&mut self, _: &'static str, _: TraceKind) {}
    fn cause(&mut self, _: &'static str, _: DropCause) {}
}

/// Whether an event mentions `id` in any of its node fields. Runs once
/// per decoded frame of a node-filtered scan, hence `#[inline]`.
#[inline]
fn event_mentions(ev: &TraceEvent, id: NodeId) -> bool {
    let mut hit = false;
    ev.walk(&mut NodeIds(|n| hit |= n == id));
    hit
}

/// Whether `head` (the first bytes of a file) opens a segmented
/// capture.
pub fn is_segmented_capture(head: &[u8]) -> bool {
    head.len() >= CAPTURE_MAGIC.len() && head[..CAPTURE_MAGIC.len()] == CAPTURE_MAGIC
}

// ------------------------------------------------------------ writer --

/// Append-only segmented capture writer. Frames go straight to the
/// writer as they arrive; the directory and trailer are written by
/// [`CaptureWriter::finish`]. No seeking, so any `Write` works.
#[derive(Debug)]
pub struct CaptureWriter<W: Write> {
    w: W,
    segment_frames: usize,
    pos: u64,
    dir: Vec<SegmentMeta>,
    cur: Option<SegmentMeta>,
    frames: u64,
    frames_dropped: u64,
    /// `(seg_index, blob_len)` of every checkpoint written so far — the
    /// extension index. The blobs themselves are already in the data.
    checkpoints: Vec<(u64, u32)>,
    /// Embedded alert JSONL for the extension block.
    alerts_jsonl: String,
}

impl<W: Write> CaptureWriter<W> {
    /// Wrap a writer; the capture header is written immediately.
    pub fn new(mut w: W, cfg: CaptureConfig) -> std::io::Result<CaptureWriter<W>> {
        w.write_all(&CAPTURE_MAGIC)?;
        w.write_all(&CAPTURE_VERSION.to_le_bytes())?;
        w.write_all(&(FRAME_LEN as u32).to_le_bytes())?;
        Ok(CaptureWriter {
            w,
            segment_frames: cfg.segment_frames.max(1),
            pos: CAPTURE_HEADER_LEN as u64,
            dir: Vec::new(),
            cur: None,
            frames: 0,
            frames_dropped: 0,
            checkpoints: Vec::new(),
            alerts_jsonl: String::new(),
        })
    }

    /// Append one event (with its causal `(at, key)` stamp), sealing a
    /// segment whenever the configured frame count fills. Returns
    /// `true` when this push sealed a segment — the hook checkpointing
    /// sinks use to snapshot detector state at segment boundaries.
    pub fn push(&mut self, ev: &TraceEvent, at: u64, key: u64) -> std::io::Result<bool> {
        let frame = encode_frame(ev, at, key);
        let pos = self.pos;
        let cur = self.cur.get_or_insert_with(|| SegmentMeta::empty(pos));
        cur.frames += 1;
        cur.at_min = cur.at_min.min(at);
        cur.at_max = cur.at_max.max(at);
        cur.kind_counts[event_tag(ev) as usize - 1] += 1;
        ev.walk(&mut NodeIds(|n| filter_insert(&mut cur.node_filter, n)));
        let full = cur.frames as usize >= self.segment_frames;
        self.w.write_all(&frame)?;
        self.pos += FRAME_LEN as u64;
        self.frames += 1;
        if full {
            self.seal();
        }
        Ok(full)
    }

    fn seal(&mut self) {
        if let Some(m) = self.cur.take() {
            self.dir.push(m);
        }
    }

    /// Segments sealed so far (the index the next sealed segment will
    /// get — useful for keying checkpoints).
    pub fn segments_sealed(&self) -> u64 {
        self.dir.len() as u64
    }

    /// Write an opaque checkpoint blob keyed by segment index: "detector
    /// state after segments `[0..seg_index)`". The blob goes into the
    /// data region at once, right before segment `seg_index`; the writer
    /// keeps only its label and length, and this layer never interprets
    /// the bytes. `InvalidInput` unless `seg_index` equals
    /// [`CaptureWriter::segments_sealed`], no partial segment is open,
    /// the label is above the previous one and the blob is non-empty
    /// (see the module docs for why the reader needs each).
    pub fn add_checkpoint(&mut self, seg_index: u64, blob: Vec<u8>) -> std::io::Result<()> {
        let sealed = self.segments_sealed();
        let why = if self.cur.is_some() {
            format!("segment {sealed} is partly written")
        } else if seg_index != sealed {
            format!("{sealed} segments are sealed")
        } else if self
            .checkpoints
            .last()
            .is_some_and(|&(prev, _)| prev >= seg_index)
        {
            "a checkpoint already has this label".to_string()
        } else if blob.is_empty() {
            "the blob is empty".to_string()
        } else {
            let len = len_u32(blob.len(), "checkpoint blob")?;
            self.w.write_all(&blob)?;
            self.pos += u64::from(len);
            self.checkpoints.push((seg_index, len));
            return Ok(());
        };
        Err(invalid_input(format!(
            "checkpoint for segment {seg_index} rejected: {why}"
        )))
    }

    /// Embed the run's alert JSONL stream in the extension block, so
    /// `explain <alert-index>` resolves alerts without a replay.
    pub fn set_alerts_jsonl(&mut self, jsonl: String) {
        self.alerts_jsonl = jsonl;
    }

    /// Copy one segment's frame data verbatim (compaction's retained
    /// path): `bytes` must be exactly `meta.frames` encoded frames. The
    /// entry keeps `meta`'s summaries with the offset rebased to this
    /// file. Seals any partial streamed segment first.
    pub fn push_segment_raw(&mut self, meta: &SegmentMeta, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.len() != meta.frames as usize * FRAME_LEN {
            return Err(invalid_input(format!(
                "segment data is {} bytes, entry says {} frames",
                bytes.len(),
                meta.frames
            )));
        }
        self.seal();
        self.w.write_all(bytes)?;
        let mut m = *meta;
        m.offset = self.pos;
        self.pos += bytes.len() as u64;
        self.frames += m.frames as u64;
        self.dir.push(m);
        Ok(())
    }

    /// Append a compacted directory entry (compaction's dropped path):
    /// `meta`'s summaries are kept — so index-only queries stay exact —
    /// but no frame data is written and the entry's offset becomes the
    /// [`COMPACTED_OFFSET`] sentinel. Seals any partial segment first.
    /// `InvalidInput` if a checkpoint was just written for this segment:
    /// a checkpoint must precede a segment that holds data.
    pub fn push_compacted(&mut self, meta: &SegmentMeta) -> std::io::Result<()> {
        self.seal();
        let seg = self.segments_sealed();
        if self.checkpoints.last().is_some_and(|&(k, _)| k == seg) {
            return Err(invalid_input(format!(
                "segment {seg} has a checkpoint and cannot be compacted"
            )));
        }
        let mut m = *meta;
        m.offset = COMPACTED_OFFSET;
        self.frames += m.frames as u64;
        self.dir.push(m);
        Ok(())
    }

    /// Record the dropped-frame count carried into the trailer (see
    /// [`CaptureStats::frames_dropped`]).
    pub fn set_frames_dropped(&mut self, n: u64) {
        self.frames_dropped = n;
    }

    /// Frames written so far.
    pub fn frames_written(&self) -> u64 {
        self.frames
    }

    /// Flush buffered data frames (directory and trailer are only
    /// written by [`CaptureWriter::finish`]).
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }

    /// Seal the partial segment, write the extension block (if any
    /// checkpoints or alerts were attached), the directory and the
    /// trailer, flush, and hand back the writer plus final telemetry.
    pub fn finish(mut self) -> std::io::Result<(W, CaptureStats)> {
        self.seal();
        let ext_offset = if self.checkpoints.is_empty() && self.alerts_jsonl.is_empty() {
            0u64
        } else {
            let start = self.pos;
            self.w.write_all(&EXT_MAGIC)?;
            let n = len_u32(self.checkpoints.len(), "checkpoint count")?;
            self.w.write_all(&n.to_le_bytes())?;
            let alerts_len = len_u32(self.alerts_jsonl.len(), "alert JSONL")?;
            self.w.write_all(&alerts_len.to_le_bytes())?;
            for (seg, len) in &self.checkpoints {
                self.w.write_all(&seg.to_le_bytes())?;
                self.w.write_all(&len.to_le_bytes())?;
            }
            self.w.write_all(self.alerts_jsonl.as_bytes())?;
            self.pos += EXT_HEAD_LEN + EXT_ENTRY_HEAD_LEN * u64::from(n) + u64::from(alerts_len);
            start
        };
        let dir_offset = self.pos;
        let mut entry = [0u8; SEGMENT_ENTRY_LEN];
        for m in &self.dir {
            entry[0..8].copy_from_slice(&m.offset.to_le_bytes());
            entry[8..12].copy_from_slice(&m.frames.to_le_bytes());
            entry[12..20].copy_from_slice(&m.at_min.to_le_bytes());
            entry[20..28].copy_from_slice(&m.at_max.to_le_bytes());
            for (i, c) in m.kind_counts.iter().enumerate() {
                entry[28 + 4 * i..32 + 4 * i].copy_from_slice(&c.to_le_bytes());
            }
            entry[96..128].copy_from_slice(&m.node_filter);
            self.w.write_all(&entry)?;
            self.pos += SEGMENT_ENTRY_LEN as u64;
        }
        self.w.write_all(&dir_offset.to_le_bytes())?;
        self.w.write_all(&(self.dir.len() as u64).to_le_bytes())?;
        self.w.write_all(&self.frames.to_le_bytes())?;
        self.w.write_all(&self.frames_dropped.to_le_bytes())?;
        self.w.write_all(&ext_offset.to_le_bytes())?;
        self.w.write_all(&TRAILER_MAGIC)?;
        self.pos += TRAILER_LEN as u64;
        self.w.flush()?;
        let stats = CaptureStats {
            frames: self.frames,
            segments: self.dir.len() as u64,
            bytes: self.pos,
            frames_dropped: self.frames_dropped,
        };
        Ok((self.w, stats))
    }
}

fn invalid_input(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
}

/// A length as the `u32` the format stores, or `InvalidInput`.
fn len_u32(len: usize, what: &str) -> std::io::Result<u32> {
    u32::try_from(len).map_err(|_| invalid_input(format!("{what} {len} does not fit in u32")))
}

/// `w` behind a [`WRITE_CHUNK`]-byte buffer: the write path of
/// [`CaptureSink`].
fn chunked<W: Write>(w: W) -> BufWriter<W> {
    BufWriter::with_capacity(WRITE_CHUNK, w)
}

/// File-backed capture sink, installed inline as a `World`'s
/// [`TraceSink`]: frame encoding, segment bookkeeping and the chunked
/// disk writes run on the simulation thread. Like every other sink,
/// write errors are swallowed — tracing must never
/// alter simulation behaviour — but a failed capture stops counting
/// frames and [`CaptureSink::finalize`] reports `None`.
#[derive(Debug)]
pub struct CaptureSink {
    w: Option<CaptureWriter<BufWriter<File>>>,
    path: PathBuf,
    failed: bool,
    stats: Option<CaptureStats>,
}

impl CaptureSink {
    /// Create (truncating) a capture file at `path`.
    pub fn create(path: impl Into<PathBuf>, cfg: CaptureConfig) -> std::io::Result<CaptureSink> {
        let path = path.into();
        let w = CaptureWriter::new(chunked(File::create(&path)?), cfg)?;
        Ok(CaptureSink {
            w: Some(w),
            path,
            failed: false,
            stats: None,
        })
    }

    /// The capture file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames written so far.
    pub fn frames_written(&self) -> u64 {
        self.w.as_ref().map_or(0, CaptureWriter::frames_written)
    }

    /// Append one frame, as [`TraceSink::record_keyed`] does. Returns
    /// the number of segments sealed so far when this frame sealed one
    /// — the hook a checkpointing sink keys its snapshots on.
    pub fn push(&mut self, ev: &TraceEvent, at: u64, key: u64) -> Option<u64> {
        let w = self.w.as_mut().filter(|_| !self.failed)?;
        match w.push(ev, at, key) {
            Ok(sealed) => sealed.then(|| w.segments_sealed()),
            Err(_) => {
                self.failed = true;
                None
            }
        }
    }

    /// Write a checkpoint blob (see [`CaptureWriter::add_checkpoint`]).
    /// A rejected or failed write marks the capture failed.
    pub fn add_checkpoint(&mut self, seg_index: u64, blob: Vec<u8>) {
        if let Some(w) = self.w.as_mut().filter(|_| !self.failed) {
            if w.add_checkpoint(seg_index, blob).is_err() {
                self.failed = true;
            }
        }
    }

    /// Embed an alert JSONL stream (see [`CaptureWriter::set_alerts_jsonl`]).
    pub fn set_alerts_jsonl(&mut self, jsonl: String) {
        if let Some(w) = &mut self.w {
            w.set_alerts_jsonl(jsonl);
        }
    }

    /// Write the directory and trailer (idempotent). `None` if any
    /// write failed — the capture file is not trustworthy.
    pub fn finalize(&mut self) -> Option<CaptureStats> {
        if let Some(w) = self.w.take() {
            match w.finish() {
                Ok((_, stats)) if !self.failed => self.stats = Some(stats),
                _ => self.failed = true,
            }
        }
        self.stats
    }
}

impl Drop for CaptureSink {
    /// Best-effort footer on drop, so a capture is seekable even if the
    /// owner forgot to finalize.
    fn drop(&mut self) {
        let _ = self.finalize();
    }
}

impl TraceSink for CaptureSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.record_keyed(ev, ev.t(), 0);
    }
    fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
        self.push(ev, at, key);
    }
    fn flush(&mut self) {
        if let Some(w) = &mut self.w {
            let _ = w.flush();
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ------------------------------------------------------------ reader --

/// Which frames a scan wants. Segment-level checks use the index
/// (conservative: may admit a segment with no matches, never skips one
/// with a match); frame-level checks are exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanFilter {
    at_range: Option<(u64, u64)>,
    node: Option<NodeId>,
    kind_mask: Option<u32>,
}

impl ScanFilter {
    /// Match every frame.
    pub fn all() -> ScanFilter {
        ScanFilter::default()
    }

    /// Restrict to frames with causal stamp `lo <= at <= hi`.
    pub fn with_at_range(mut self, lo: u64, hi: u64) -> ScanFilter {
        self.at_range = Some((lo, hi));
        self
    }

    /// Restrict to frames whose event mentions `node` in any field.
    pub fn with_node(mut self, node: NodeId) -> ScanFilter {
        self.node = Some(node);
        self
    }

    /// Restrict to the named event kinds (names as in
    /// [`TraceEvent::name`]; unknown names match nothing).
    pub fn with_kind_names(mut self, names: &[&str]) -> ScanFilter {
        let mut mask = 0u32;
        for t in 1..=TAG_COUNT as u8 {
            if tag_name(t).is_some_and(|n| names.contains(&n)) {
                mask |= 1 << (t - 1);
            }
        }
        self.kind_mask = Some(mask);
        self
    }

    fn admits_segment(&self, m: &SegmentMeta) -> bool {
        if let Some((lo, hi)) = self.at_range {
            if m.at_max < lo || m.at_min > hi {
                return false;
            }
        }
        if let Some(n) = self.node {
            if !m.maybe_mentions(n) {
                return false;
            }
        }
        if let Some(mask) = self.kind_mask {
            let any = (0..TAG_COUNT).any(|i| mask & (1 << i) != 0 && m.kind_counts[i] > 0);
            if !any {
                return false;
            }
        }
        true
    }

    /// Exact per-frame check. Runs once per decoded frame, so it is
    /// always inlined: scan loops are instantiated in the calling
    /// crate, where this would otherwise stay an out-of-line call that
    /// reloads the event it was just handed.
    #[inline(always)]
    pub(crate) fn admits_frame(&self, ev: &TraceEvent, at: u64) -> bool {
        if let Some((lo, hi)) = self.at_range {
            if at < lo || at > hi {
                return false;
            }
        }
        if let Some(mask) = self.kind_mask {
            if mask & (1 << (event_tag(ev) - 1)) == 0 {
                return false;
            }
        }
        if let Some(n) = self.node {
            if !event_mentions(ev, n) {
                return false;
            }
        }
        true
    }
}

/// What one scan did — the observable value of the index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Segments whose frames were decoded.
    pub segments_scanned: u64,
    /// Segments the index proved could not match.
    pub segments_skipped: u64,
    /// Frames decoded.
    pub frames_decoded: u64,
    /// Frames that matched the filter (= callback invocations).
    pub frames_matched: u64,
}

/// Where one embedded checkpoint blob lies in the capture file. The
/// reader indexes blobs at open and leaves their bytes on disk until
/// [`CaptureReader::checkpoint_blob`] reads one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlobRef {
    offset: u64,
    len: u32,
}

impl BlobRef {
    /// Byte offset of the blob's first byte in the capture file.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Blob length, bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the blob is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One checkpoint as the extension block indexes it: its label, its
/// blob length and, where the block records one (versions 1 and 2 keep
/// blobs inside it), the blob's offset. A version-3 blob's offset is
/// derived while the directory is walked.
type ExtEntry = (u64, u32, Option<u64>);

/// Extension-block index: the checkpoint entries plus the embedded
/// alert JSONL.
type ExtensionIndex = (Vec<ExtEntry>, String);

/// Size of the extension block's head: magic, checkpoint count, alert
/// length.
const EXT_HEAD_LEN: u64 = 16;
/// Size of one checkpoint entry's head: `seg_index u64 · blob_len u32`.
const EXT_ENTRY_HEAD_LEN: u64 = 12;

fn corrupt_ext(what: String) -> String {
    format!("corrupt extension block: {what}")
}

/// Read and check the extension block's head at `ext_offset`: the
/// block `[ext_offset, dir_offset)` must hold it and it must open with
/// [`EXT_MAGIC`]. Returns `(checkpoints, alerts_len)`.
fn read_extension_head<R: Read + Seek>(
    r: &mut R,
    ext_offset: u64,
    dir_offset: u64,
) -> Result<(u32, u64), String> {
    let block_len = dir_offset - ext_offset;
    if block_len < EXT_HEAD_LEN {
        return Err(corrupt_ext(format!(
            "{block_len} bytes, shorter than its head"
        )));
    }
    r.seek(SeekFrom::Start(ext_offset))
        .map_err(|e| format!("seek error: {e}"))?;
    let mut head = [0u8; EXT_HEAD_LEN as usize];
    r.read_exact(&mut head)
        .map_err(|e| format!("short extension block: {e}"))?;
    let bad = |e: DecodeError| corrupt_ext(e.to_string());
    let mut h = Reader::new(&head);
    if h.raw(EXT_MAGIC.len()).map_err(bad)? != EXT_MAGIC {
        return Err(corrupt_ext("bad magic".into()));
    }
    let n_checkpoints = h.u32().map_err(bad)?;
    let alerts_len = u64::from(h.u32().map_err(bad)?);
    Ok((n_checkpoints, alerts_len))
}

/// Parse one checkpoint entry head: `(seg_index, blob_len)`.
fn parse_entry_head(bytes: &[u8]) -> Result<(u64, u32), String> {
    let mut e = Reader::new(bytes);
    let bad = |e: DecodeError| corrupt_ext(e.to_string());
    Ok((e.u64().map_err(bad)?, e.u32().map_err(bad)?))
}

fn parse_alerts(bytes: Vec<u8>) -> Result<String, String> {
    String::from_utf8(bytes).map_err(|e| corrupt_ext(format!("alerts not UTF-8: {e}")))
}

/// Index a version-1/2 extension block `[ext_offset, dir_offset)`: walk
/// its entry heads, seeking over the blob after each, and read only the
/// alert JSONL. The entries and alerts must fill the block exactly —
/// trailing or missing bytes are corruption, not slack.
fn index_extension<R: Read + Seek>(
    r: &mut R,
    ext_offset: u64,
    dir_offset: u64,
) -> Result<ExtensionIndex, String> {
    let (n_checkpoints, alerts_len) = read_extension_head(r, ext_offset, dir_offset)?;
    let mut checkpoints = Vec::new();
    let mut pos = ext_offset + EXT_HEAD_LEN;
    for i in 0..n_checkpoints {
        if dir_offset - pos < EXT_ENTRY_HEAD_LEN {
            return Err(corrupt_ext(format!(
                "checkpoint {i} of {n_checkpoints} runs past the block"
            )));
        }
        let mut entry = [0u8; EXT_ENTRY_HEAD_LEN as usize];
        r.read_exact(&mut entry)
            .map_err(|e| format!("short extension block: checkpoint {i}: {e}"))?;
        let (seg, len) = parse_entry_head(&entry)?;
        let offset = pos + EXT_ENTRY_HEAD_LEN;
        if dir_offset - offset < u64::from(len) {
            return Err(corrupt_ext(format!(
                "checkpoint {i}: {len}-byte blob at {offset} runs past the block (ends at {dir_offset})"
            )));
        }
        r.seek(SeekFrom::Current(i64::from(len)))
            .map_err(|e| format!("seek error: {e}"))?;
        checkpoints.push((seg, len, Some(offset)));
        pos = offset + u64::from(len);
    }
    if dir_offset - pos != alerts_len {
        return Err(corrupt_ext(format!(
            "{} bytes, indexed {} + {alerts_len} alert bytes",
            dir_offset - ext_offset,
            pos - ext_offset
        )));
    }
    let mut alerts = vec![0u8; alerts_len as usize];
    r.read_exact(&mut alerts)
        .map_err(|e| format!("short extension block: alerts: {e}"))?;
    Ok((checkpoints, parse_alerts(alerts)?))
}

/// Index a version-3 extension block `[ext_offset, dir_offset)`: its
/// head, then every entry head and the alert JSONL in one read. The
/// block holds nothing else, so its length must equal exactly what the
/// head declares.
fn read_extension_index<R: Read + Seek>(
    r: &mut R,
    ext_offset: u64,
    dir_offset: u64,
) -> Result<ExtensionIndex, String> {
    let (n_checkpoints, alerts_len) = read_extension_head(r, ext_offset, dir_offset)?;
    let block_len = dir_offset - ext_offset;
    let index_len = EXT_HEAD_LEN + EXT_ENTRY_HEAD_LEN * u64::from(n_checkpoints);
    if index_len > block_len {
        return Err(corrupt_ext(format!(
            "{n_checkpoints} checkpoint entry heads: the index runs past the block ({block_len} bytes)"
        )));
    }
    if block_len - index_len != alerts_len {
        return Err(corrupt_ext(format!(
            "{block_len} bytes, indexed {index_len} + {alerts_len} alert bytes"
        )));
    }
    // Bounded by the block, which lies inside the file.
    let mut rest = vec![0u8; (block_len - EXT_HEAD_LEN) as usize];
    r.read_exact(&mut rest)
        .map_err(|e| format!("short extension block: {e}"))?;
    let alerts = rest.split_off((index_len - EXT_HEAD_LEN) as usize);
    let checkpoints = rest
        .chunks_exact(EXT_ENTRY_HEAD_LEN as usize)
        .map(|head| parse_entry_head(head).map(|(seg, len)| (seg, len, None)))
        .collect::<Result<_, _>>()?;
    Ok((checkpoints, parse_alerts(alerts)?))
}

/// Claim the next `len` bytes of the data region, at `*pos`, for the
/// version-3 blob of checkpoint `c` (labelled `seg`) and return its
/// offset. `next` is the segment the blob precedes (`None` at the end):
/// it must hold data, or the label would not be the only one that puts
/// the blob here.
fn place_blob(
    pos: &mut u64,
    data_end: u64,
    c: usize,
    seg: u64,
    len: u32,
    next: Option<&SegmentMeta>,
) -> Result<u64, String> {
    let end = pos
        .checked_add(u64::from(len))
        .filter(|&end| end <= data_end);
    let why = if len == 0 {
        "its blob is empty".to_string()
    } else if next.is_some_and(SegmentMeta::is_compacted) {
        "it precedes a compacted segment".to_string()
    } else if let Some(end) = end {
        return Ok(std::mem::replace(pos, end));
    } else {
        format!("its {len}-byte blob at {pos} runs past the data region (ends at {data_end})")
    };
    Err(format!(
        "corrupt capture index: checkpoint {c} (segment {seg}): {why}"
    ))
}

/// Parse one directory entry (the inverse of the layout
/// [`CaptureWriter::finish`] writes).
fn parse_entry(entry: &[u8; SEGMENT_ENTRY_LEN]) -> Result<SegmentMeta, DecodeError> {
    let mut r = Reader::new(entry);
    let (offset, frames, at_min, at_max) = (r.u64()?, r.u32()?, r.u64()?, r.u64()?);
    let mut kind_counts = [0u32; TAG_COUNT];
    for c in &mut kind_counts {
        *c = r.u32()?;
    }
    let mut node_filter = [0u8; NODE_FILTER_LEN];
    node_filter.copy_from_slice(r.raw(NODE_FILTER_LEN)?);
    r.finish()?;
    Ok(SegmentMeta {
        offset,
        frames,
        at_min,
        at_max,
        kind_counts,
        node_filter,
    })
}

/// Seekable reader over a segmented capture: validates the footer and
/// directory up front, then serves index-driven segment-at-a-time
/// scans. Peak memory is one segment's data plus the directory,
/// independent of capture size.
#[derive(Debug)]
pub struct CaptureReader<R: Read + Seek> {
    r: R,
    dir: Vec<SegmentMeta>,
    frames: u64,
    frames_dropped: u64,
    bytes: u64,
    buf: Vec<u8>,
    version: u32,
    /// Checked at open: each blob lies inside the data region (v3) or
    /// the extension block (v1/v2), so `checkpoint_blob` reads at once.
    checkpoints: Vec<(u64, BlobRef)>,
    alerts_jsonl: String,
}

impl CaptureReader<BufReader<File>> {
    /// Open a capture file.
    pub fn open(path: impl AsRef<Path>) -> Result<CaptureReader<BufReader<File>>, String> {
        let f = File::open(path.as_ref())
            .map_err(|e| format!("open {}: {e}", path.as_ref().display()))?;
        CaptureReader::new(BufReader::new(f))
    }
}

impl<R: Read + Seek> CaptureReader<R> {
    /// Validate header, trailer and directory of a seekable capture.
    pub fn new(mut r: R) -> Result<CaptureReader<R>, String> {
        let mut head = [0u8; CAPTURE_HEADER_LEN];
        r.read_exact(&mut head)
            .map_err(|e| format!("short capture header: {e}"))?;
        let bad = |e: DecodeError| format!("corrupt capture header: {e}");
        let mut h = Reader::new(&head);
        if h.raw(CAPTURE_MAGIC.len()).map_err(bad)? != CAPTURE_MAGIC {
            return Err("bad magic: not a segmented trace capture".into());
        }
        let version = h.u32().map_err(bad)?;
        if !(1..=CAPTURE_VERSION).contains(&version) {
            return Err(format!(
                "unsupported capture version {version} (expected 1..={CAPTURE_VERSION})"
            ));
        }
        let flen = h.u32().map_err(bad)? as usize;
        if flen != FRAME_LEN {
            return Err(format!(
                "unsupported frame length {flen} (expected {FRAME_LEN})"
            ));
        }
        let bytes = r
            .seek(SeekFrom::End(0))
            .map_err(|e| format!("seek error: {e}"))?;
        if bytes < (CAPTURE_HEADER_LEN + TRAILER_LEN) as u64 {
            return Err(format!(
                "capture too short ({bytes} bytes): missing trailer (unfinished write?)"
            ));
        }
        r.seek(SeekFrom::Start(bytes - TRAILER_LEN as u64))
            .map_err(|e| format!("seek error: {e}"))?;
        let mut tr = [0u8; TRAILER_LEN];
        r.read_exact(&mut tr)
            .map_err(|e| format!("short trailer: {e}"))?;
        let bad = |e: DecodeError| format!("corrupt trailer: {e}");
        let mut t = Reader::new(&tr);
        let dir_offset = t.u64().map_err(bad)?;
        let segments = t.u64().map_err(bad)?;
        let frames = t.u64().map_err(bad)?;
        let frames_dropped = t.u64().map_err(bad)?;
        let ext_offset = t.u64().map_err(bad)?;
        if t.raw(TRAILER_MAGIC.len()).map_err(bad)? != TRAILER_MAGIC {
            return Err("bad trailer magic: capture not finalized (unfinished write?)".into());
        }
        let want_len = segments
            .checked_mul(SEGMENT_ENTRY_LEN as u64)
            .and_then(|d| d.checked_add(dir_offset))
            .and_then(|v| v.checked_add(TRAILER_LEN as u64));
        if dir_offset < CAPTURE_HEADER_LEN as u64 || want_len != Some(bytes) {
            return Err(format!(
                "inconsistent trailer: dir_offset {dir_offset}, {segments} segments, file {bytes} bytes"
            ));
        }
        // The data region ends where the extension block (if any)
        // starts; otherwise at the directory.
        if ext_offset != 0 && (ext_offset < CAPTURE_HEADER_LEN as u64 || ext_offset >= dir_offset) {
            return Err(format!(
                "inconsistent trailer: extension block at {ext_offset} outside data region (directory at {dir_offset})"
            ));
        }
        let data_end = if ext_offset != 0 {
            ext_offset
        } else {
            dir_offset
        };
        let (entries, alerts_jsonl) = match ext_offset {
            0 => (Vec::new(), String::new()),
            _ if version == CAPTURE_VERSION => {
                read_extension_index(&mut r, ext_offset, dir_offset)?
            }
            _ => index_extension(&mut r, ext_offset, dir_offset)?,
        };
        let misplaced = (0..entries.len())
            .find(|&i| entries[i].0 > segments || (i > 0 && entries[i].0 <= entries[i - 1].0));
        if let Some(i) = misplaced {
            return Err(corrupt_ext(format!(
                "checkpoint {i} labelled segment {}: labels must rise strictly and stay within the {segments} segments",
                entries[i].0
            )));
        }
        r.seek(SeekFrom::Start(dir_offset))
            .map_err(|e| format!("seek error: {e}"))?;
        // Walk the directory, claiming the data region front to back:
        // before segment i comes the checkpoint labelled i, if any — in
        // version 3 its blob occupies the next bytes — then segment i's
        // frames. `segments` fits the file: the trailer check above.
        let mut dir = Vec::with_capacity(segments as usize);
        let mut checkpoints = Vec::with_capacity(entries.len());
        let mut pending = entries.into_iter().peekable();
        let mut pos = CAPTURE_HEADER_LEN as u64;
        let mut frame_sum = 0u64;
        let mut entry = [0u8; SEGMENT_ENTRY_LEN];
        for i in 0..=segments {
            let m = if i < segments {
                r.read_exact(&mut entry)
                    .map_err(|e| format!("short directory entry {i}: {e}"))?;
                Some(parse_entry(&entry).map_err(|e| format!("corrupt directory entry {i}: {e}"))?)
            } else {
                None
            };
            if let Some((seg, len, offset)) = pending.next_if(|e| e.0 == i) {
                let offset = match offset {
                    Some(offset) => offset,
                    None => {
                        place_blob(&mut pos, data_end, checkpoints.len(), seg, len, m.as_ref())?
                    }
                };
                checkpoints.push((seg, BlobRef { offset, len }));
            }
            let Some(m) = m else { break };
            if m.frames == 0 || (!m.is_compacted() && m.offset != pos) {
                return Err(format!(
                    "corrupt directory: segment {i} at offset {} (expected {pos}), {} frames",
                    m.offset, m.frames
                ));
            }
            // Compacted entries hold no frame data, so the data region
            // does not advance; their frames still count toward the
            // logical total so index-only queries stay exact.
            if !m.is_compacted() {
                pos += m.frames as u64 * FRAME_LEN as u64;
            }
            frame_sum += m.frames as u64;
            dir.push(m);
        }
        if pos != data_end || frame_sum != frames {
            return Err(format!(
                "corrupt capture index: segments and blobs end at {pos} (data region ends at {data_end}), {frame_sum} frames indexed ({frames} in trailer)"
            ));
        }
        Ok(CaptureReader {
            r,
            dir,
            frames,
            frames_dropped,
            bytes,
            buf: Vec::new(),
            version,
            checkpoints,
            alerts_jsonl,
        })
    }

    /// The segment directory, in file order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.dir
    }

    /// Total frames in the capture.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Dropped-frame count recorded in the trailer. Non-zero means the
    /// capture is an incomplete sample of the trace stream.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Total file size, bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Container version from the header (1 to [`CAPTURE_VERSION`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Index of the embedded detector checkpoints as `(seg_index, blob)`
    /// pairs: "state after segments `[0..seg_index)`". The blobs stay on
    /// disk; [`CaptureReader::checkpoint_blob`] reads one.
    pub fn checkpoints(&self) -> &[(u64, BlobRef)] {
        &self.checkpoints
    }

    /// Read the bytes of checkpoint `i` (an index into
    /// [`CaptureReader::checkpoints`]). Opaque at this layer;
    /// `wmsn-health` owns the codec.
    pub fn checkpoint_blob(&mut self, i: usize) -> Result<Vec<u8>, String> {
        let (seg, b) = *self.checkpoints.get(i).ok_or_else(|| {
            format!(
                "checkpoint {i} out of range ({} embedded)",
                self.checkpoints.len()
            )
        })?;
        self.r
            .seek(SeekFrom::Start(b.offset))
            .map_err(|e| format!("seek error: {e}"))?;
        let mut blob = vec![0u8; b.len()];
        self.r
            .read_exact(&mut blob)
            .map_err(|e| format!("checkpoint {i} (segment {seg}): short read: {e}"))?;
        Ok(blob)
    }

    /// The alert JSONL stream embedded at capture time ("" if none).
    pub fn alerts_jsonl(&self) -> &str {
        &self.alerts_jsonl
    }

    fn load_segment(&mut self, idx: usize) -> Result<usize, String> {
        let m = self.dir[idx];
        if m.is_compacted() {
            return Err(format!(
                "segment {idx} is compacted: frame data removed by retention, only index summaries remain"
            ));
        }
        self.r
            .seek(SeekFrom::Start(m.offset))
            .map_err(|e| format!("seek error: {e}"))?;
        let need = m.frames as usize * FRAME_LEN;
        self.buf.resize(need, 0);
        self.r
            .read_exact(&mut self.buf)
            .map_err(|e| format!("segment {idx}: short read: {e}"))?;
        Ok(m.frames as usize)
    }

    /// Read one segment's raw frame bytes (compaction's copy path).
    /// Errors on compacted segments like any frame-level read.
    pub fn read_segment_raw(&mut self, idx: usize) -> Result<Vec<u8>, String> {
        let n = self.load_segment(idx)?;
        Ok(self.buf[..n * FRAME_LEN].to_vec())
    }

    fn decode_loaded(&self, idx: usize, j: usize) -> Result<(TraceEvent, u64, u64), String> {
        let b = self
            .buf
            .get(j * FRAME_LEN..(j + 1) * FRAME_LEN)
            .and_then(|b| <&[u8; FRAME_LEN]>::try_from(b).ok())
            .ok_or_else(|| format!("segment {idx} frame {j}: not loaded"))?;
        decode_frame(b).map_err(|e| format!("segment {idx} frame {j}: {e}"))
    }

    /// Visit every frame the filter admits, in file order, decoding one
    /// segment at a time and skipping segments the index rules out.
    /// Hard-errors if an admitted segment has been compacted away —
    /// frame-level answers over compacted ranges would be silently
    /// wrong, so they fail loudly instead.
    pub fn scan<F: FnMut(&TraceEvent, u64, u64)>(
        &mut self,
        filter: &ScanFilter,
        f: F,
    ) -> Result<ScanStats, String> {
        let end = self.dir.len();
        self.scan_range(0..end, filter, f)
    }

    /// [`CaptureReader::scan`] restricted to segments `range` — the
    /// windowed-replay primitive: a caller that knows which segments a
    /// time window touches decodes only those.
    pub fn scan_range<F: FnMut(&TraceEvent, u64, u64)>(
        &mut self,
        range: std::ops::Range<usize>,
        filter: &ScanFilter,
        mut f: F,
    ) -> Result<ScanStats, String> {
        let mut stats = ScanStats::default();
        for idx in range {
            if !filter.admits_segment(&self.dir[idx]) {
                stats.segments_skipped += 1;
                continue;
            }
            stats.segments_scanned += 1;
            let frames = self.load_segment(idx)?;
            for j in 0..frames {
                let (ev, at, key) = self.decode_loaded(idx, j)?;
                stats.frames_decoded += 1;
                if filter.admits_frame(&ev, at) {
                    stats.frames_matched += 1;
                    f(&ev, at, key);
                }
            }
        }
        Ok(stats)
    }
}

impl<R: Read + Seek> EventSource for CaptureReader<R> {
    /// Event counts per wire tag, from the index alone: the writer
    /// counts the very events it encodes, so no frame is decoded.
    fn tag_counts(&self) -> [u64; TAG_COUNT] {
        let mut totals = [0u64; TAG_COUNT];
        for seg in &self.dir {
            for (t, &c) in totals.iter_mut().zip(&seg.kind_counts) {
                *t += c as u64;
            }
        }
        totals
    }

    fn scan<F: FnMut(&TraceEvent, u64, u64)>(
        &mut self,
        filter: &ScanFilter,
        f: F,
    ) -> Result<ScanStats, String> {
        CaptureReader::scan(self, filter, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::exhaustive_events;
    use crate::replay::{
        capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, Replay,
    };
    use std::io::Cursor;

    /// A deterministic mixed stream: several copies of the exhaustive
    /// event set with distinct, increasing `(at, key)` stamps.
    fn stream(copies: usize) -> Vec<(TraceEvent, u64, u64)> {
        let mut out = Vec::new();
        let mut at = 0u64;
        for c in 0..copies {
            for (i, ev) in exhaustive_events().into_iter().enumerate() {
                at += 1 + (i as u64 % 3);
                out.push((ev, at, ((c as u64) << 32) | i as u64));
            }
        }
        out
    }

    fn write_capture(frames: &[(TraceEvent, u64, u64)], segment_frames: usize) -> Vec<u8> {
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames }).expect("header");
        for (ev, at, key) in frames {
            w.push(ev, *at, *key).expect("push");
        }
        let (bytes, _) = w.finish().expect("finish");
        bytes
    }

    #[test]
    fn round_trips_through_segments_with_exact_index() {
        let frames = stream(4);
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 7 }).expect("header");
        for (ev, at, key) in &frames {
            w.push(ev, *at, *key).expect("push");
        }
        w.set_frames_dropped(5);
        let (bytes, stats) = w.finish().expect("finish");
        assert_eq!(stats.frames, frames.len() as u64);
        assert_eq!(stats.segments, frames.len().div_ceil(7) as u64);
        assert_eq!(stats.bytes, bytes.len() as u64);
        assert_eq!(stats.frames_dropped, 5);
        assert!(is_segmented_capture(&bytes));

        let mut r = CaptureReader::new(Cursor::new(bytes)).expect("open");
        assert_eq!(r.frames(), frames.len() as u64);
        assert_eq!(r.frames_dropped(), 5);
        assert_eq!(r.segments().len(), frames.len().div_ceil(7));
        // Index invariants: at ranges and kind counts are exact, node
        // filters have no false negatives.
        let mut cursor = 0usize;
        for seg in r.segments().to_vec() {
            let slice = &frames[cursor..cursor + seg.frames as usize];
            cursor += seg.frames as usize;
            assert_eq!(seg.at_min, slice.iter().map(|f| f.1).min().unwrap());
            assert_eq!(seg.at_max, slice.iter().map(|f| f.1).max().unwrap());
            let mut counts = [0u32; TAG_COUNT];
            for (ev, _, _) in slice {
                counts[event_tag(ev) as usize - 1] += 1;
                ev.walk(&mut NodeIds(|n| {
                    assert!(seg.maybe_mentions(n), "false negative")
                }));
            }
            assert_eq!(seg.kind_counts, counts);
        }
        assert_eq!(cursor, frames.len());
        // Full scan reproduces every frame, stamps included, in order.
        let mut got = Vec::new();
        let s = r
            .scan(&ScanFilter::all(), |ev, at, key| got.push((*ev, at, key)))
            .expect("scan");
        assert_eq!(got, frames);
        assert_eq!(s.segments_skipped, 0);
        assert_eq!(s.frames_matched, frames.len() as u64);
    }

    #[test]
    fn empty_capture_round_trips() {
        let bytes = write_capture(&[], 8);
        assert_eq!(bytes.len(), CAPTURE_HEADER_LEN + TRAILER_LEN);
        let mut r = CaptureReader::new(Cursor::new(bytes)).expect("open");
        assert_eq!(r.frames(), 0);
        let s = r
            .scan(&ScanFilter::all(), |_, _, _| panic!())
            .expect("scan");
        assert_eq!(s, ScanStats::default());
        assert!(capture_counts(&r).is_empty());
    }

    #[test]
    fn filters_are_exact_and_skip_segments() {
        // Kind-clustered stream: 20 Rx frames, then 20 Energy frames —
        // with 8-frame segments the kind filter must skip whole
        // segments on both sides.
        let mut frames = Vec::new();
        for i in 0..20u64 {
            frames.push((
                TraceEvent::Rx {
                    t: i,
                    seq: i,
                    node: NodeId(1),
                },
                i,
                i,
            ));
        }
        for i in 20..40u64 {
            frames.push((
                TraceEvent::Energy {
                    t: i,
                    node: NodeId(2),
                    consumed_j: i as f64,
                },
                i,
                i,
            ));
        }
        let bytes = write_capture(&frames, 8);
        let mut r = CaptureReader::new(Cursor::new(bytes)).expect("open");

        let mut got = 0u64;
        let s = r
            .scan(
                &ScanFilter::all().with_kind_names(&["energy"]),
                |ev, _, _| {
                    assert!(matches!(ev, TraceEvent::Energy { .. }));
                    got += 1;
                },
            )
            .expect("scan");
        assert_eq!(got, 20);
        assert!(s.segments_skipped >= 2, "{s:?}");
        assert!(s.frames_decoded < frames.len() as u64);

        // Node filter: an id never mentioned skips everything.
        let s = r
            .scan(&ScanFilter::all().with_node(NodeId(777)), |_, _, _| {
                panic!("node 777 never occurs")
            })
            .expect("scan");
        assert_eq!(s.segments_scanned, 0);
        assert_eq!(s.segments_skipped, 5);

        // Time-range filter: only the covering segments are read.
        let mut got = Vec::new();
        let s = r
            .scan(&ScanFilter::all().with_at_range(10, 12), |_, at, _| {
                got.push(at)
            })
            .expect("scan");
        assert_eq!(got, vec![10, 11, 12]);
        assert!(s.segments_skipped >= 3, "{s:?}");
    }

    #[test]
    fn corruption_and_truncation_are_hard_errors() {
        let frames = stream(2);
        let bytes = write_capture(&frames, 8);
        // Truncation (lost trailer byte).
        let e = CaptureReader::new(Cursor::new(bytes[..bytes.len() - 1].to_vec())).unwrap_err();
        assert!(e.contains("trailer") || e.contains("inconsistent"), "{e}");
        // An unfinalized capture (data only, no footer).
        let cut = CAPTURE_HEADER_LEN + 8 * FRAME_LEN;
        let e = CaptureReader::new(Cursor::new(bytes[..cut].to_vec())).unwrap_err();
        assert!(e.contains("trailer") || e.contains("short"), "{e}");
        // Bad header magic.
        let mut bad = bytes.clone();
        bad[0] = b'{';
        assert!(CaptureReader::new(Cursor::new(bad)).is_err());
        // Corrupt directory offset.
        let mut bad = bytes.clone();
        let dir_offset = u64::from_le_bytes(
            bytes[bytes.len() - TRAILER_LEN..bytes.len() - TRAILER_LEN + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        bad[dir_offset] ^= 0xFF;
        let e = CaptureReader::new(Cursor::new(bad)).unwrap_err();
        assert!(e.contains("corrupt directory"), "{e}");

        // A cut inside any region — header, segment data, extension
        // block, directory, trailer — is an error, never a panic.
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 8 }).expect("header");
        for (ev, at, key) in &frames {
            if w.push(ev, *at, *key).expect("push") && w.segments_sealed() == 1 {
                w.add_checkpoint(1, vec![1, 2, 3]).expect("checkpoint");
            }
        }
        w.set_alerts_jsonl("{}\n".into());
        let (bytes, _) = w.finish().expect("finish");
        let trailer_u64 = |at: usize| {
            let mut r = Reader::new(&bytes[bytes.len() - TRAILER_LEN + at..]);
            r.u64().expect("trailer field") as usize
        };
        let (dir_offset, ext_offset) = (trailer_u64(0), trailer_u64(32));
        assert!(CaptureReader::new(Cursor::new(bytes.clone())).is_ok());
        for (region, cut) in [
            ("header", CAPTURE_HEADER_LEN / 2),
            ("segment", CAPTURE_HEADER_LEN + 3 * FRAME_LEN + 5),
            ("extension", ext_offset + 10),
            ("directory", dir_offset + SEGMENT_ENTRY_LEN / 2),
            ("trailer", bytes.len() - TRAILER_LEN / 2),
        ] {
            let r = CaptureReader::new(Cursor::new(bytes[..cut].to_vec()));
            assert!(r.is_err(), "cut in the {region} at byte {cut} was accepted");
        }
    }

    #[test]
    fn queries_match_replay_exactly() {
        // A stream with real message structure on top of the
        // exhaustive set: two messages, one delivered, plus drops and
        // energy timelines.
        let mut frames = stream(2);
        let extra = [
            TraceEvent::Forward {
                t: 500,
                node: NodeId(5),
                origin: NodeId(5),
                msg_id: 9,
                next: Some(NodeId(3)),
                hops: 1,
            },
            TraceEvent::Forward {
                t: 510,
                node: NodeId(3),
                origin: NodeId(5),
                msg_id: 9,
                next: None,
                hops: 2,
            },
            TraceEvent::Deliver {
                t: 520,
                node: NodeId(9),
                origin: NodeId(5),
                msg_id: 9,
                hops: 2,
                latency_us: 20,
            },
            TraceEvent::Drop {
                t: 530,
                seq: 42,
                node: NodeId(7),
                cause: crate::event::DropCause::Collision,
            },
            TraceEvent::Drop {
                t: 531,
                seq: 42,
                node: NodeId(8),
                cause: crate::event::DropCause::Loss,
            },
            TraceEvent::Energy {
                t: 540,
                node: NodeId(7),
                consumed_j: 0.25,
            },
        ];
        for (i, ev) in extra.into_iter().enumerate() {
            frames.push((ev, 1000 + i as u64, i as u64));
        }
        let events: Vec<TraceEvent> = frames.iter().map(|f| f.0).collect();
        let mut replay = Replay::from_events(&events);
        let mut r = CaptureReader::new(Cursor::new(write_capture(&frames, 5))).expect("open");

        // The index-skipping reader and the unindexed in-memory source
        // answer every query identically.
        assert_eq!(capture_counts(&r), capture_counts(&replay));
        assert_eq!(r.frames() as usize, replay.len());
        for (origin, msg_id) in [(5u64, 9u64), (5, 99), (1, 11), (123456, 1), (u64::MAX, 0)] {
            assert_eq!(
                capture_path_of(&mut r, origin, msg_id).expect("scan"),
                capture_path_of(&mut replay, origin, msg_id).expect("scan"),
                "path {origin}/{msg_id}"
            );
        }
        let path = capture_path_of(&mut r, 5, 9).expect("scan").expect("found");
        assert_eq!(path.hops.len(), 2);
        assert_eq!(path.delivered, Some((520, 9, 2, 20)));
        for seq in [42u64, 9, u64::MAX, 7] {
            assert_eq!(
                capture_drops_of_seq(&mut r, seq).expect("scan"),
                capture_drops_of_seq(&mut replay, seq).expect("scan"),
                "drops {seq}"
            );
        }
        assert_eq!(capture_drops_of_seq(&mut r, 42).expect("scan").len(), 2);
        for node in [7u64, 4, 2, 999, u64::MAX] {
            assert_eq!(
                capture_energy_of(&mut r, node).expect("scan"),
                capture_energy_of(&mut replay, node).expect("scan"),
                "energy {node}"
            );
        }
    }

    #[test]
    fn scan_reports_the_location_of_a_corrupt_frame() {
        let frames = stream(2);
        let mut bytes = write_capture(&frames, 8);
        // Corrupt the tag of frame 3 of segment 1.
        let victim = CAPTURE_HEADER_LEN + (8 + 3) * FRAME_LEN;
        bytes[victim + 16] = 200;
        let mut r = CaptureReader::new(Cursor::new(bytes)).expect("the index is intact");
        let mut seen = 0;
        let err = r.scan(&ScanFilter::all(), |_, _, _| seen += 1).unwrap_err();
        assert!(err.contains("segment 1 frame 3"), "{err}");
        assert_eq!(seen, 8 + 3, "frames before the corrupt one are delivered");
    }

    #[test]
    fn capture_sink_writes_a_valid_file() {
        let dir = std::env::temp_dir().join(format!("wmsn-capture-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("test.wcap");
        let frames = stream(2);
        let mut sink =
            CaptureSink::create(&path, CaptureConfig { segment_frames: 16 }).expect("create");
        for (ev, at, key) in &frames {
            sink.record_keyed(ev, *at, *key);
        }
        assert_eq!(sink.frames_written(), frames.len() as u64);
        let stats = sink.finalize().expect("finalize");
        assert_eq!(sink.finalize().expect("idempotent").frames, stats.frames);
        drop(sink);
        let mut r = CaptureReader::open(&path).expect("open");
        assert_eq!(r.frames(), frames.len() as u64);
        assert_eq!(r.frames_dropped(), 0);
        assert_eq!(r.bytes(), stats.bytes);
        let mut got = Vec::new();
        r.scan(&ScanFilter::all(), |ev, at, key| got.push((*ev, at, key)))
            .expect("scan");
        assert_eq!(got, frames);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `Write` that counts the calls reaching it.
    #[derive(Default)]
    struct CountingWrite {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn capture_writes_go_out_in_whole_chunks() {
        // 24 segments of 512 frames, each followed by a 40 KB
        // checkpoint: about 1.75 MB, which an 8 KiB buffer hands over
        // in about 120 writes.
        let segment_frames = 512;
        let frames: Vec<_> = stream(1)
            .into_iter()
            .cycle()
            .take(24 * segment_frames)
            .collect();
        let mut w = CaptureWriter::new(
            chunked(CountingWrite::default()),
            CaptureConfig { segment_frames },
        )
        .expect("header");
        for (ev, at, key) in &frames {
            if w.push(ev, *at, *key).expect("push") {
                let sealed = w.segments_sealed();
                w.add_checkpoint(sealed, vec![sealed as u8; 40_000])
                    .expect("checkpoint");
            }
        }
        let (buffered, stats) = w.finish().expect("finish");
        let sink = buffered
            .into_inner()
            .map_err(|e| e.into_error())
            .expect("flush");
        assert_eq!(sink.bytes.len() as u64, stats.bytes);
        let bound = sink.bytes.len().div_ceil(WRITE_CHUNK) + 4;
        assert!(
            sink.writes <= bound,
            "{} writes for {} bytes (bound {bound})",
            sink.writes,
            sink.bytes.len()
        );
        // The bytes are those of an unbuffered writer.
        let mut plain =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames }).expect("header");
        for (ev, at, key) in &frames {
            if plain.push(ev, *at, *key).expect("push") {
                let sealed = plain.segments_sealed();
                plain
                    .add_checkpoint(sealed, vec![sealed as u8; 40_000])
                    .expect("checkpoint");
            }
        }
        assert_eq!(plain.finish().expect("finish").0, sink.bytes);
    }

    #[test]
    fn capture_sink_flush_puts_every_pushed_frame_and_blob_on_disk() {
        let dir = std::env::temp_dir().join(format!("wmsn-capture-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("flush.wcap");
        // 1,500 frames and 23 blobs: about 98 KB, under one chunk.
        let frames: Vec<_> = stream(1).into_iter().cycle().take(1500).collect();
        let mut sink =
            CaptureSink::create(&path, CaptureConfig { segment_frames: 64 }).expect("create");
        let mut expected = Vec::new();
        expected.extend_from_slice(&CAPTURE_MAGIC);
        expected.extend_from_slice(&CAPTURE_VERSION.to_le_bytes());
        expected.extend_from_slice(&(FRAME_LEN as u32).to_le_bytes());
        for (i, (ev, at, key)) in frames.iter().enumerate() {
            expected.extend_from_slice(&encode_frame(ev, *at, *key));
            if let Some(sealed) = sink.push(ev, *at, *key) {
                let blob = vec![0xB0 | sealed as u8; 100];
                sink.add_checkpoint(sealed, blob.clone());
                expected.extend_from_slice(&blob);
            }
            if i == 1000 {
                // Nothing reaches the file before a chunk fills...
                assert!(expected.len() < WRITE_CHUNK);
                assert_eq!(std::fs::metadata(&path).expect("stat").len(), 0);
            }
            // ...and a flush puts every frame and blob pushed so far in
            // it.
            if i >= 1000 && i % 97 == 5 {
                TraceSink::flush(&mut sink);
                assert_eq!(std::fs::read(&path).expect("read"), expected, "frame {i}");
            }
        }
        TraceSink::flush(&mut sink);
        assert_eq!(std::fs::read(&path).expect("read"), expected);
        drop(sink);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extension_block_round_trips_checkpoints_and_alerts() {
        let frames = stream(3);
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 8 }).expect("header");
        let mut boundaries = Vec::new();
        for (ev, at, key) in &frames {
            if w.push(ev, *at, *key).expect("push") {
                let sealed = w.segments_sealed();
                w.add_checkpoint(sealed, vec![sealed as u8; 5 + sealed as usize])
                    .expect("checkpoint");
                boundaries.push(sealed);
            }
        }
        w.set_alerts_jsonl("{\"alert\":\"x\"}\n".into());
        let (bytes, stats) = w.finish().expect("finish");
        assert_eq!(stats.bytes, bytes.len() as u64);
        assert!(!boundaries.is_empty());

        let mut r = CaptureReader::new(Cursor::new(bytes)).expect("open");
        assert_eq!(r.version(), CAPTURE_VERSION);
        assert_eq!(r.alerts_jsonl(), "{\"alert\":\"x\"}\n");
        assert_eq!(r.checkpoints().len(), boundaries.len());
        for (i, want) in boundaries.iter().enumerate() {
            let (seg, blob) = r.checkpoints()[i];
            assert_eq!(seg, *want);
            assert_eq!(blob.len(), 5 + *want as usize);
            let bytes = r.checkpoint_blob(i).expect("read blob");
            assert_eq!(bytes, vec![*want as u8; 5 + *want as usize]);
        }
        assert!(r.checkpoint_blob(boundaries.len()).is_err());
        // The extension block is invisible to frame-level reads.
        let mut got = Vec::new();
        r.scan(&ScanFilter::all(), |ev, at, key| got.push((*ev, at, key)))
            .expect("scan");
        assert_eq!(got, frames);
    }

    #[test]
    fn version_1_files_still_open() {
        // A version-1 file is exactly a version-2 file with no
        // extension block and a 1 in the header version slot.
        let frames = stream(2);
        let mut bytes = write_capture(&frames, 8);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let mut r = CaptureReader::new(Cursor::new(bytes)).expect("open v1");
        assert_eq!(r.version(), 1);
        assert!(r.checkpoints().is_empty());
        assert_eq!(r.alerts_jsonl(), "");
        let mut got = Vec::new();
        r.scan(&ScanFilter::all(), |ev, at, key| got.push((*ev, at, key)))
            .expect("scan");
        assert_eq!(got, frames);
        // Unknown future versions stay hard errors.
        let mut bad = write_capture(&frames, 8);
        bad[8..12].copy_from_slice(&(CAPTURE_VERSION + 1).to_le_bytes());
        assert!(CaptureReader::new(Cursor::new(bad))
            .unwrap_err()
            .contains("unsupported capture version"));
    }

    #[test]
    fn compacted_segments_keep_the_index_and_fail_frame_reads_loudly() {
        let frames = stream(3);
        let src_bytes = write_capture(&frames, 8);
        let mut src = CaptureReader::new(Cursor::new(src_bytes)).expect("open src");
        let n_segs = src.segments().len();
        assert!(n_segs >= 4, "want >= 4 segments, got {n_segs}");

        // Rewrite with the first half compacted, the rest retained.
        let keep_from = n_segs / 2;
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 8 }).expect("header");
        for idx in 0..n_segs {
            let meta = src.segments()[idx];
            if idx < keep_from {
                w.push_compacted(&meta).expect("compact");
            } else {
                if idx == keep_from {
                    w.add_checkpoint(keep_from as u64, vec![7; 3])
                        .expect("checkpoint");
                }
                let raw = src.read_segment_raw(idx).expect("raw");
                w.push_segment_raw(&meta, &raw).expect("copy");
            }
        }
        let (bytes, stats) = w.finish().expect("finish");
        assert_eq!(stats.frames, frames.len() as u64);

        let mut r = CaptureReader::new(Cursor::new(bytes)).expect("open compacted");
        assert_eq!(r.frames(), frames.len() as u64);
        assert_eq!(r.segments().len(), n_segs);
        // Index entries (hence index-only queries) survive unchanged.
        assert_eq!(capture_counts(&r), capture_counts(&src));
        for (idx, (a, b)) in r.segments().iter().zip(src.segments()).enumerate() {
            assert_eq!(a.is_compacted(), idx < keep_from);
            assert_eq!(
                (a.frames, a.at_min, a.at_max),
                (b.frames, b.at_min, b.at_max)
            );
            assert_eq!(a.kind_counts, b.kind_counts);
            assert_eq!(a.node_filter, b.node_filter);
        }
        // A scan over the retained tail works and matches the source.
        let first_kept_at = r.segments()[keep_from].at_min;
        let want: Vec<_> = frames
            .iter()
            .copied()
            .filter(|f| f.1 >= first_kept_at)
            .collect();
        let mut got = Vec::new();
        r.scan_range(keep_from..n_segs, &ScanFilter::all(), |ev, at, key| {
            got.push((*ev, at, key))
        })
        .expect("tail scan");
        assert_eq!(got, want);
        // A frame-level read touching a compacted segment fails loudly.
        let e = r.scan(&ScanFilter::all(), |_, _, _| {}).unwrap_err();
        assert!(e.contains("compacted"), "{e}");
        let e = r.read_segment_raw(0).unwrap_err();
        assert!(e.contains("compacted"), "{e}");
        // But a filtered scan whose index pruning avoids the compacted
        // range still answers.
        let mut n = 0u64;
        r.scan(
            &ScanFilter::all().with_at_range(first_kept_at, u64::MAX),
            |_, _, _| n += 1,
        )
        .expect("pruned scan");
        assert_eq!(n, want.len() as u64);
    }

    #[test]
    fn extension_corruption_is_a_hard_open_error() {
        // The data region: segment 0 at 16, the 3-byte blob of the
        // checkpoint labelled 1 at `blob` = 16 + 8 frames, segment 1
        // right after it. The block: head at `ext`, the one entry head
        // at `ext + 16` (label, then blob_len at `ext + 24`), the 3-byte
        // alert JSONL at `ext + 28`, the directory at `ext + 31`.
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 8 }).expect("header");
        for (ev, at, key) in &stream(2) {
            if w.push(ev, *at, *key).expect("push") && w.segments_sealed() == 1 {
                w.add_checkpoint(1, vec![1, 2, 3]).expect("checkpoint");
            }
        }
        w.set_alerts_jsonl("{}\n".into());
        let (bytes, _) = w.finish().expect("finish");
        let tr = bytes.len() - TRAILER_LEN;
        let ext = Reader::new(&bytes[tr + 32..]).u64().expect("ext_offset") as usize;
        let blob = CAPTURE_HEADER_LEN + 8 * FRAME_LEN;
        let r = CaptureReader::new(Cursor::new(bytes.clone())).expect("intact capture opens");
        assert_eq!(r.checkpoints()[0].1.offset(), blob as u64);
        assert_eq!(r.segments()[1].offset, blob as u64 + 3);
        assert_eq!(r.alerts_jsonl(), "{}\n");
        let patch = |at: usize, with: &[u8]| {
            let mut bad = bytes.clone();
            bad[at..at + with.len()].copy_from_slice(with);
            CaptureReader::new(Cursor::new(bad)).map(|_| ())
        };
        let e = patch(ext, b"X").expect_err("bad magic");
        assert!(e.contains("bad magic"), "{e}");
        // Inflated lengths and counts: each fails the open, never
        // panics or allocates by the field's word. A blob length now
        // places the blob in the data region, so a wrong one breaks the
        // tiling there.
        let past_data = (ext - blob + 1) as u32;
        let into_segment = format!("segment 1 at offset {} (expected {})", blob + 3, blob + 4);
        for (what, at, v, want) in [
            (
                "blob_len past the block",
                ext + 24,
                u32::MAX,
                "runs past the data region",
            ),
            (
                "blob_len one past the block",
                ext + 24,
                past_data,
                "runs past the data region",
            ),
            ("blob_len into the next segment", ext + 24, 4, &into_segment),
            ("count past the block", ext + 8, 2, "runs past the block"),
            ("count u32::MAX", ext + 8, u32::MAX, "runs past the block"),
            ("alert length short", ext + 12, 2, "alert bytes"),
            ("alert length long", ext + 12, 4, "alert bytes"),
            ("alert length u32::MAX", ext + 12, u32::MAX, "alert bytes"),
        ] {
            let e = patch(at, &v.to_le_bytes()).expect_err(what);
            assert!(e.contains("corrupt") && e.contains(want), "{what}: {e}");
        }
        // Labels: out of range, moved to another segment, and an empty
        // blob.
        for (what, at, with, want) in [
            (
                "label past the segments",
                ext + 16,
                99u64.to_le_bytes().to_vec(),
                "labels must rise strictly",
            ),
            (
                "label moved later",
                ext + 16,
                2u64.to_le_bytes().to_vec(),
                "segment 1 at offset",
            ),
            (
                "label moved earlier",
                ext + 16,
                0u64.to_le_bytes().to_vec(),
                "segment 0 at offset 16",
            ),
            (
                "empty blob",
                ext + 24,
                0u32.to_le_bytes().to_vec(),
                "blob is empty",
            ),
        ] {
            let e = patch(at, &with).expect_err(what);
            assert!(e.contains("corrupt") && e.contains(want), "{what}: {e}");
        }
        let e = patch(ext + 29, &[0xFF]).expect_err("non-UTF-8 alerts");
        assert!(e.contains("not UTF-8"), "{e}");
        // ext_offset leaving too few bytes for the block head, and
        // pointing past the directory.
        let e = patch(tr + 32, &(ext as u64 + 31 - 8).to_le_bytes()).expect_err("short block");
        assert!(e.contains("shorter than its head"), "{e}");
        let e = patch(tr + 32, &(bytes.len() as u64).to_le_bytes()).expect_err("past directory");
        assert!(e.contains("extension block"), "{e}");
    }

    #[test]
    fn checkpoints_reach_the_writer_at_once_and_are_not_kept() {
        let frames = stream(2);
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 8 }).expect("header");
        let mut blobs = Vec::new();
        for (ev, at, key) in &frames {
            if w.push(ev, *at, *key).expect("push") {
                let sealed = w.segments_sealed();
                let blob = vec![0xA0 | sealed as u8; 100 + sealed as usize];
                let before = w.w.len();
                w.add_checkpoint(sealed, blob.clone()).expect("checkpoint");
                // The blob is in the underlying writer when the call
                // returns, right after the segment it follows ...
                assert_eq!(w.w[before..], blob[..]);
                blobs.push(blob);
            }
        }
        // ... and the writer keeps only each one's label and length.
        let index: Vec<(u64, u32)> = (1..)
            .zip(&blobs)
            .map(|(k, b)| (k, b.len() as u32))
            .collect();
        assert_eq!(w.checkpoints, index);
        let (bytes, stats) = w.finish().expect("finish");
        // Every blob byte is written once: the file is the frames, the
        // blobs, the index, the directory and the trailer.
        let blob_bytes: usize = blobs.iter().map(Vec::len).sum();
        let want = CAPTURE_HEADER_LEN
            + frames.len() * FRAME_LEN
            + blob_bytes
            + EXT_HEAD_LEN as usize
            + EXT_ENTRY_HEAD_LEN as usize * blobs.len()
            + stats.segments as usize * SEGMENT_ENTRY_LEN
            + TRAILER_LEN;
        assert_eq!(bytes.len(), want);
        let mut r = CaptureReader::new(Cursor::new(bytes)).expect("open");
        for (i, blob) in blobs.iter().enumerate() {
            assert_eq!(&r.checkpoint_blob(i).expect("blob"), blob);
        }
    }

    #[test]
    fn writer_rejects_misplaced_checkpoints() {
        let frames = stream(1);
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 8 }).expect("header");
        // A rejected checkpoint is InvalidInput and writes nothing.
        let rejected = |w: &mut CaptureWriter<Vec<u8>>, seg: u64, blob: Vec<u8>| {
            let before = w.w.len();
            let e = w.add_checkpoint(seg, blob).expect_err("rejected");
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
            assert_eq!(w.w.len(), before, "{e}");
            e.to_string()
        };
        // The label must equal the sealed segment count.
        assert!(rejected(&mut w, 1, vec![1]).contains("0 segments are sealed"));
        w.add_checkpoint(0, vec![1])
            .expect("label 0 before any frame");
        // It must rise above the previous label.
        assert!(rejected(&mut w, 0, vec![1]).contains("already has this label"));
        // No partial segment may be open.
        for (ev, at, key) in &frames[..3] {
            w.push(ev, *at, *key).expect("push");
        }
        assert!(rejected(&mut w, 0, vec![1]).contains("segment 0 is partly written"));
        assert!(rejected(&mut w, 1, vec![1]).contains("segment 0 is partly written"));
        for (ev, at, key) in &frames[3..8] {
            w.push(ev, *at, *key).expect("push");
        }
        assert_eq!(w.segments_sealed(), 1);
        assert!(rejected(&mut w, 0, vec![1]).contains("1 segments are sealed"));
        assert!(rejected(&mut w, 1, Vec::new()).contains("the blob is empty"));
        w.add_checkpoint(1, vec![2, 2])
            .expect("label 1 after segment 0");
        // A checkpoint's segment must hold data.
        let meta = w.dir[0];
        let e = w
            .push_compacted(&meta)
            .expect_err("compacted after a checkpoint");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
        // The capture is still whole.
        let (bytes, _) = w.finish().expect("finish");
        let r = CaptureReader::new(Cursor::new(bytes)).expect("open");
        let labels: Vec<u64> = r.checkpoints().iter().map(|c| c.0).collect();
        assert_eq!(labels, [0, 1]);
        assert_eq!(r.segments().len(), 1);

        // A capture sink that meets a rejected checkpoint is failed.
        let dir = std::env::temp_dir().join(format!("wmsn-capture-reject-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut sink =
            CaptureSink::create(dir.join("reject.wcap"), CaptureConfig::default()).expect("create");
        sink.record_keyed(&frames[0].0, frames[0].1, frames[0].2);
        sink.add_checkpoint(1, vec![1]);
        assert!(sink.finalize().is_none());
        drop(sink);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A small version-3 capture exercising every placement: a blob
    /// before segment 0, a compacted segment, a blob before the segment
    /// after it, and a blob at the end of the data region.
    fn small_v3_capture() -> Vec<u8> {
        let src_bytes = write_capture(&stream(1), 4);
        let mut src = CaptureReader::new(Cursor::new(src_bytes)).expect("open src");
        let n = src.segments().len();
        assert!(n >= 4, "{n} segments");
        let mut w =
            CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 4 }).expect("header");
        for idx in 0..n {
            let meta = src.segments()[idx];
            if idx == 1 {
                w.push_compacted(&meta).expect("compact");
                continue;
            }
            if idx == 0 || idx == 2 {
                w.add_checkpoint(idx as u64, vec![idx as u8 + 1; 5 + idx])
                    .expect("checkpoint");
            }
            let raw = src.read_segment_raw(idx).expect("raw");
            w.push_segment_raw(&meta, &raw).expect("copy");
        }
        w.add_checkpoint(n as u64, vec![0xEE; 4])
            .expect("end checkpoint");
        w.set_alerts_jsonl("{\"a\":1}\n{\"b\":2}\n".into());
        w.finish().expect("finish").0
    }

    #[test]
    fn v3_index_mutations_fail_or_open_identically() {
        let bytes = small_v3_capture();
        let good = CaptureReader::new(Cursor::new(bytes.clone())).expect("intact capture opens");
        let (segments, checkpoints) = (good.segments().to_vec(), good.checkpoints().to_vec());
        assert_eq!(checkpoints.len(), 3);
        assert!(segments[1].is_compacted());
        // The outcome the property allows: an error, or the same index.
        let check = |bad: Vec<u8>, what: &str| {
            if let Ok(r) = CaptureReader::new(Cursor::new(bad)) {
                assert_eq!(r.segments(), segments, "{what}");
                assert_eq!(r.checkpoints(), checkpoints, "{what}");
            }
        };
        for cut in 0..bytes.len() {
            check(bytes[..cut].to_vec(), &format!("cut at {cut}"));
        }
        let trailer = |at: usize| {
            let mut r = Reader::new(&bytes[bytes.len() - TRAILER_LEN + at..]);
            r.u64().expect("trailer field") as usize
        };
        let (dir, ext) = (trailer(0), trailer(32));
        // The extension index, and each directory entry's offset and
        // frame count.
        let positions = (ext..dir).chain(
            (0..segments.len())
                .flat_map(|i| dir + i * SEGMENT_ENTRY_LEN..dir + i * SEGMENT_ENTRY_LEN + 12),
        );
        // Of all these, only an alert byte changed to other valid
        // UTF-8 opens.
        let alerts = dir - good.alerts_jsonl().len()..dir;
        let mut opened = 0;
        for at in positions {
            for byte in (0..=u8::MAX).filter(|&b| b != bytes[at]) {
                let mut bad = bytes.clone();
                bad[at] = byte;
                if CaptureReader::new(Cursor::new(bad.clone())).is_ok() {
                    assert!(alerts.contains(&at), "byte {at} set to {byte:#04x} opens");
                    opened += 1;
                }
                check(bad, &format!("byte {at} set to {byte:#04x}"));
            }
        }
        assert!(opened > 0);
    }

    /// Counts the bytes read through it.
    struct CountingReader<R> {
        inner: R,
        read: u64,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n as u64;
            Ok(n)
        }
    }

    impl<R: Seek> Seek for CountingReader<R> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn open_reads_the_index_and_no_checkpoint_blob() {
        let frames = stream(3);
        let alerts = "{\"alert\":\"x\"}\n{\"alert\":\"y\"}\n";
        let capture = |blob_len: usize| {
            let mut w = CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames: 8 })
                .expect("header");
            for (ev, at, key) in &frames {
                if w.push(ev, *at, *key).expect("push") {
                    let sealed = w.segments_sealed();
                    w.add_checkpoint(sealed, vec![sealed as u8; blob_len])
                        .expect("checkpoint");
                }
            }
            w.set_alerts_jsonl(alerts.into());
            w.finish().expect("finish").0
        };
        let mut read = Vec::new();
        for blob_len in [10, 10_000] {
            let bytes = capture(blob_len);
            let mut r = CaptureReader::new(CountingReader {
                inner: Cursor::new(bytes),
                read: 0,
            })
            .expect("open");
            let checkpoints = r.checkpoints().len() as u64;
            assert!(checkpoints >= 5);
            let want = (CAPTURE_HEADER_LEN + TRAILER_LEN) as u64
                + r.segments().len() as u64 * SEGMENT_ENTRY_LEN as u64
                + EXT_HEAD_LEN
                + EXT_ENTRY_HEAD_LEN * checkpoints
                + alerts.len() as u64;
            assert_eq!(r.r.read, want, "blob_len {blob_len}");
            read.push(r.r.read);
            // One blob costs exactly its own bytes.
            let before = r.r.read;
            assert_eq!(r.checkpoint_blob(2).expect("blob").len(), blob_len);
            assert_eq!(r.r.read - before, blob_len as u64);
        }
        assert_eq!(read[0], read[1], "open must not read checkpoint blobs");
    }
}
