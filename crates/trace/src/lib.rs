//! Structured tracing and observability for the WMSN simulator.
//!
//! The simulator's end-of-run [`Metrics`] counters say *what* happened;
//! this crate records *why*: a compact structured event model covering
//! the full packet lifecycle (enqueue, tx-start, rx, drop-with-cause,
//! forward, deliver) plus protocol decision events (SPR RREQ floods and
//! cached-route answers, MLR route selection with the energy terms that
//! justified it, gateway moves, node sleep/kill).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** The world holds an
//!    `Option<Box<dyn TraceSink>>`; every hook is a branch on that
//!    `Option`, and events are only *constructed* when a sink is
//!    installed. The PR-1 hot-path numbers must not move.
//! 2. **Deterministic output.** Event emission happens at points that
//!    are themselves deterministic (same seed → same schedule), and the
//!    JSONL serialisation uses the workspace's insertion-ordered
//!    [`wmsn_util::json::Json`] with fixed key order — so a trace file
//!    is byte-identical run to run for a fixed seed.
//! 3. **No external dependencies.** Serialisation, parsing and replay
//!    are all in-tree.
//!
//! [`Metrics`]: https://docs.rs/wmsn-sim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod event;
pub mod frame;
pub mod hist;
pub mod parse;
pub mod replay;
pub mod sink;
pub mod structured;

pub use capture::{
    is_segmented_capture, BlobRef, CaptureConfig, CaptureReader, CaptureSink, CaptureStats,
    CaptureWriter, ScanFilter, ScanStats, SegmentMeta, CAPTURE_MAGIC, CAPTURE_VERSION,
    COMPACTED_OFFSET, DEFAULT_SEGMENT_FRAMES, EXT_MAGIC,
};
pub use event::{DropCause, TraceEvent, TraceKind, TraceTier};
pub use frame::{decode_frame, encode_frame, event_tag, tag_name, FRAME_LEN, TAG_COUNT};
pub use hist::Histogram;
pub use parse::{parse_line, Value};
pub use replay::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, EventSource, Replay,
};
pub use sink::{expect_sink, BufferSink, CountingSink, JsonlSink, NullSink, TraceSink};
pub use structured::{log_error, log_record, record_line, write_stdout};
