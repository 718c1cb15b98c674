//! chrome://tracing trace-event JSON: the writer for the profiling
//! plane's export, plus a minimal parser/validator so `obs-smoke` can
//! check well-formedness without a JSON dependency.
//!
//! The format is the "JSON Object Format" from the Trace Event spec:
//! `{"traceEvents": [...], "otherData": {...}}` where each event here
//! is a complete (`"ph": "X"`) event with `ts`/`dur` in microseconds
//! relative to profiler start. Load the file at `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use std::collections::{BTreeMap, BTreeSet};

use crate::profile::TraceEvent;
use crate::rss;

/// Quotes `s` as a JSON string literal — the one escaper behind every
/// JSON document the workspace writes (traces, reports, campaigns).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the trace-event JSON document for `events`.
///
/// `otherData` carries the sidecar numbers that would otherwise tempt
/// someone to put wall-clock into a report: peak RSS and per-category
/// span aggregates (count, total µs, spans/s).
pub fn render(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"name\": ");
        out.push_str(&json_string(&ev.name));
        out.push_str(", \"cat\": ");
        out.push_str(&json_string(&ev.cat));
        out.push_str(", \"ph\": \"X\", \"ts\": ");
        out.push_str(&ev.ts.to_string());
        out.push_str(", \"dur\": ");
        out.push_str(&ev.dur.to_string());
        out.push_str(", \"pid\": 1, \"tid\": ");
        out.push_str(&ev.tid.to_string());
        out.push_str(", \"args\": {");
        for (j, (k, v)) in ev.args.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(k));
            out.push_str(": ");
            out.push_str(&json_string(v));
        }
        out.push_str("}}");
    }
    out.push_str("\n], \"otherData\": {");
    let mut first = true;
    let mut put = |out: &mut String, k: &str, v: u64| {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{k}\": {v}"));
    };
    if let Some(kb) = rss::peak_rss_kb() {
        put(&mut out, "peak_rss_kb", kb);
    }
    let mut by_cat: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for ev in events {
        let e = by_cat.entry(&ev.cat).or_default();
        e.0 += 1;
        e.1 += ev.dur;
    }
    for (cat, (count, micros)) in by_cat {
        put(&mut out, &format!("spans.{cat}.count"), count);
        put(&mut out, &format!("spans.{cat}.micros"), micros);
        if let Some(per_sec) = (count * 1_000_000).checked_div(micros) {
            put(&mut out, &format!("spans.{cat}.per_sec"), per_sec);
        }
    }
    out.push_str("}}\n");
    out
}

// ---- minimal JSON reader (validation only) ----

/// A parsed JSON value. Numbers are kept as the raw token; the
/// validator only needs to know they are numeric.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our
                            // own output; map them to the replacement
                            // character rather than rejecting.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// What [`validate`] extracts from a well-formed trace document.
#[derive(Debug)]
pub struct TraceSummary {
    /// Number of trace events.
    pub events: usize,
    /// Distinct span names.
    pub names: BTreeSet<String>,
    /// Distinct span categories.
    pub cats: BTreeSet<String>,
}

/// Checks that `text` is well-formed trace-event JSON (object format,
/// every event a complete event with the required fields) and returns
/// the name/category inventory.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let doc = parse(text)?;
    let events = match doc.get("traceEvents") {
        Some(Value::Arr(evs)) => evs,
        _ => return Err("missing \"traceEvents\" array".to_string()),
    };
    let mut names = BTreeSet::new();
    let mut cats = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| {
            ev.get(k)
                .ok_or_else(|| format!("event {i}: missing \"{k}\""))
        };
        let str_field = |k: &str| match field(k)? {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("event {i}: \"{k}\" is not a string")),
        };
        let num_field = |k: &str| match field(k)? {
            Value::Num(_) => Ok(()),
            _ => Err(format!("event {i}: \"{k}\" is not a number")),
        };
        if str_field("ph")? != "X" {
            return Err(format!("event {i}: \"ph\" is not \"X\""));
        }
        for k in ["ts", "dur", "pid", "tid"] {
            num_field(k)?;
        }
        names.insert(str_field("name")?);
        cats.insert(str_field("cat")?);
    }
    if doc.get("otherData").is_none() {
        return Err("missing \"otherData\"".to_string());
    }
    Ok(TraceSummary {
        events: events.len(),
        names,
        cats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, cat: &str) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ts: 10,
            dur: 5,
            tid: 1,
            args: vec![("k".to_string(), "v\"q".to_string())],
        }
    }

    #[test]
    fn render_round_trips_through_validate() {
        let json = render(&[ev("mix.batch", "psc"), ev("job.run", "runner")]);
        let summary = validate(&json).expect("render output must validate");
        assert_eq!(summary.events, 2);
        assert!(summary.names.contains("mix.batch"));
        assert!(summary.cats.contains("runner"));
    }

    #[test]
    fn event_strings_are_escaped_byte_for_byte() {
        let json = render(&[ev("q\"b\\n\nr\rt\tc\u{1}é", "psc")]);
        let first = json.lines().nth(1).unwrap();
        assert_eq!(
            first,
            "  {\"name\": \"q\\\"b\\\\n\\nr\\rt\\tc\\u0001é\", \"cat\": \"psc\", \"ph\": \"X\", \
             \"ts\": 10, \"dur\": 5, \"pid\": 1, \"tid\": 1, \"args\": {\"k\": \"v\\\"q\"}}"
        );
    }

    #[test]
    fn empty_trace_validates() {
        let summary = validate(&render(&[])).unwrap();
        assert_eq!(summary.events, 0);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"traceEvents\": [{}], \"otherData\": {}}").is_err());
        assert!(validate("not json").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse("{\"a\\n\": [1, -2.5e1, true, null, \"\\u0041\"]}").unwrap();
        let arr = v.get("a\n").unwrap();
        assert_eq!(
            *arr,
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(-25.0),
                Value::Bool(true),
                Value::Null,
                Value::Str("A".to_string()),
            ])
        );
    }
}
