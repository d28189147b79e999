//! `wmsn-trace` output piped into a reader that stops early (`| head`)
//! must end the process quietly, not with a panic on the closed pipe.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use wmsn_trace::{CaptureConfig, CaptureWriter, TraceEvent};
use wmsn_util::NodeId;

#[test]
fn index_into_a_closed_pipe_exits_without_a_panic() {
    // One frame per segment: `index` prints a line per segment, about
    // 1.3 MB in all — more than a pipe buffers, so once the reader
    // hangs up the writer must meet the closed pipe.
    let dir = std::env::temp_dir().join(format!("wmsn-closed-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("many-segments.wcap");
    let file = std::fs::File::create(&path).expect("create capture");
    let mut w = CaptureWriter::new(
        std::io::BufWriter::new(file),
        CaptureConfig { segment_frames: 1 },
    )
    .expect("header");
    for t in 0..10_000u64 {
        let ev = TraceEvent::Rx {
            t,
            seq: t,
            node: NodeId(1),
        };
        w.push(&ev, t, 0).expect("push");
    }
    w.finish().expect("finish");

    let mut child = Command::new(env!("CARGO_BIN_EXE_wmsn-trace"))
        .arg("index")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wmsn-trace");
    let mut out = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    out.read_line(&mut line).expect("first line");
    assert!(line.contains("\"capture_index\""), "{line}");
    drop(out);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(status.success(), "{status:?}: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
