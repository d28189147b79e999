//! A thin structured-logging facade for human-triggered output.
//!
//! Experiment tables, bench reports and CLI progress used to be ad-hoc
//! `println!` text; everything now goes through [`record_line`] so all
//! tool output shares one machine-parseable shape — the same flat
//! JSON-object-per-line format as the trace files, distinguished by a
//! leading `"record"` field instead of `"ev"`.

use std::io::{ErrorKind, Write};
use wmsn_util::json::Json;

/// Format one structured record line: a compact JSON object whose
/// first field is `"record": kind`, followed by `fields` in order.
pub fn record_line(kind: &str, fields: Vec<(&'static str, Json)>) -> String {
    let mut all = Vec::with_capacity(fields.len() + 1);
    all.push(("record", Json::from(kind)));
    all.extend(fields);
    Json::obj(all).to_string()
}

/// Print one structured record line to stdout (see [`write_stdout`]).
pub fn log_record(kind: &str, fields: Vec<(&'static str, Json)>) {
    write_stdout(format_args!("{}\n", record_line(kind, fields)));
}

/// Write to stdout through its lock. A closed pipe — the reader went
/// away, as `head` does — ends the process quietly with status 0
/// instead of panicking; any other write error is reported on stderr
/// and exits 1.
pub fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error writing stdout: {e}");
        std::process::exit(1);
    }
}

/// Print one structured record line to stderr (for errors / usage).
pub fn log_error(kind: &str, fields: Vec<(&'static str, Json)>) {
    eprintln!("{}", record_line(kind, fields));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lines_are_flat_parseable_json() {
        let line = record_line(
            "bench",
            vec![("name", Json::from("e1")), ("median_s", Json::from(0.5))],
        );
        assert_eq!(line, r#"{"record":"bench","name":"e1","median_s":0.5}"#);
        let rec = crate::parse::parse_line(&line).unwrap();
        assert_eq!(
            crate::parse::get(&rec, "record").unwrap().as_str(),
            Some("bench")
        );
    }
}
