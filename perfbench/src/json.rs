//! A minimal JSON writer. Reading goes through `pm_obs::trace::parse`,
//! which the tests also use to prove every document written here parses.

/// A JSON value under construction. Object members keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Written with every digit Rust needs to round-trip the `f64`.
    Num(f64),
    /// Whole numbers, written without a fraction.
    Int(u64),
    Str(String),
    /// A document that is already rendered (a child run's output line).
    Raw(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON cannot carry {x}");
                out.push_str(&format!("{x}"));
            }
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_str(s, out),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_obs::trace::{parse, Value};

    #[test]
    fn written_documents_round_trip_through_the_obs_parser() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("name", Json::str("a \"quoted\"\\ line\n\ttab \u{1}")),
            (
                "metrics",
                Json::obj([(
                    "wall_s",
                    Json::obj([("value", Json::Num(1.2034e-3)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Num(-2.5), Json::Int(0)])),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'), "one line: {text}");
        let parsed = parse(&text).expect("writer output parses");
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get("attempted"), Some(&Value::Num(1000.0)));
        assert_eq!(
            parsed.get("name"),
            Some(&Value::Str("a \"quoted\"\\ line\n\ttab \u{1}".into()))
        );
        let wall = parsed.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value"), Some(&Value::Num(1.2034e-3)));
        assert_eq!(
            parsed.get("list"),
            Some(&Value::Arr(vec![Value::Num(-2.5), Value::Num(0.0)]))
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 0.1 + 0.2;
        let text = Json::Num(x).render();
        assert_eq!(text.parse::<f64>().unwrap(), x);
        assert_eq!(Json::Int(u64::MAX).render(), u64::MAX.to_string());
    }

    #[test]
    #[should_panic(expected = "JSON cannot carry")]
    fn non_finite_numbers_are_a_bug() {
        Json::Num(f64::NAN).render();
    }
}
