//! Minimal parser for the flat JSONL trace format.
//!
//! The trace wire form is deliberately restricted — one object per
//! line, string keys, scalar values (number / string / bool / null),
//! no nesting — so the parser can be small, dependency-free and strict.
//! Anything outside that subset is a hard error: the CI smoke step
//! relies on parse failures to catch format rot.

/// A scalar JSON value from a trace line.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON null.
    Null,
    /// true / false.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
}

impl Value {
    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One parsed trace line: insertion-ordered key/value pairs.
pub type Record = Vec<(String, Value)>;

/// Look a key up in a [`Record`].
pub fn get<'a>(rec: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    rec.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.bump().ok_or_else(|| self.err("truncated escape"))?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let h = self.bump().ok_or_else(|| self.err("truncated \\u"))?;
                                let d = (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad \\u digit"))?;
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u code"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control char in string")),
                c => {
                    // Re-assemble UTF-8 multi-byte sequences verbatim.
                    let start = self.i - 1;
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = start + len;
                    let chunk = self
                        .s
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.i = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("truncated value"))? {
            b'"' => Ok(Value::Str(self.string()?)),
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("nested values are not part of the trace format")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parse one trace line into a [`Record`]. Returns a descriptive error
/// for anything outside the flat-object subset.
pub fn parse_line(line: &str) -> Result<Record, String> {
    let mut p = Parser {
        s: line.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut rec = Record::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.i += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if rec.iter().any(|(k, _)| *k == key) {
                return Err(p.err(&format!("duplicate key '{key}'")));
            }
            p.skip_ws();
            p.expect(b':')?;
            let val = p.value()?;
            rec.push((key, val));
            p.skip_ws();
            match p.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(p.err("expected ',' or '}'")),
            }
        }
    }
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_typical_trace_line() {
        let rec = parse_line(
            r#"{"ev":"tx_start","t":42,"seq":7,"src":3,"dst":null,"tier":"sensor","bytes":32}"#,
        )
        .unwrap();
        assert_eq!(get(&rec, "ev").unwrap().as_str(), Some("tx_start"));
        assert_eq!(get(&rec, "t").unwrap().as_u64(), Some(42));
        assert_eq!(get(&rec, "dst"), Some(&Value::Null));
        assert_eq!(get(&rec, "missing"), None);
    }

    #[test]
    fn parses_floats_bools_and_escapes() {
        let rec = parse_line(r#"{"x":-1.5e3,"ok":true,"off":false,"s":"a\"b\\cA"}"#).unwrap();
        assert_eq!(get(&rec, "x").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(get(&rec, "ok"), Some(&Value::Bool(true)));
        assert_eq!(get(&rec, "s").unwrap().as_str(), Some("a\"b\\cA"));
        assert_eq!(get(&rec, "x").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_nesting_truncation_and_garbage() {
        assert!(parse_line(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_line(r#"{"a":[1]}"#).is_err());
        assert!(parse_line(r#"{"a":1"#).is_err());
        assert!(parse_line(r#"{"a":1} extra"#).is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{}").unwrap().is_empty());
        let err = parse_line(r#"{"a":1,"b":2,"a":1}"#).unwrap_err();
        assert!(err.contains("duplicate key 'a'"), "{err}");
    }

    #[test]
    fn round_trips_event_serialisation() {
        use crate::event::{TraceEvent, TraceKind, TraceTier};
        use wmsn_util::NodeId;
        let ev = TraceEvent::TxStart {
            t: 9,
            seq: 1,
            src: NodeId(2),
            dst: Some(NodeId(5)),
            tier: TraceTier::Mesh,
            kind: TraceKind::Control,
            bytes: 20,
        };
        let rec = parse_line(&ev.to_json().to_string()).unwrap();
        assert_eq!(get(&rec, "dst").unwrap().as_u64(), Some(5));
        assert_eq!(get(&rec, "tier").unwrap().as_str(), Some("mesh"));
    }
}
