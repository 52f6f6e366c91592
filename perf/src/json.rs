//! A small JSON writer for records and the result line. Reading goes through
//! `raw_trace::json`, the parser the workspace already has; the tests below
//! round-trip this writer through it.

use std::fmt::Write as _;

/// A JSON value to be written. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, written without a fraction.
    Int(u64),
    /// A measured number, written with every digit `f64` holds.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for files people read and diff.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => write!(out, "{n}").expect("write to String"),
            Value::Num(x) => {
                assert!(x.is_finite(), "JSON cannot carry {x}");
                // `{:?}` keeps a trailing `.0` on whole values, so a measured
                // number never reads back as an integer token.
                write!(out, "{x:?}").expect("write to String");
            }
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_trace::json::{parse, Json};

    fn sample() -> Value {
        Value::obj([
            ("name", Value::str("sim \"dense\"\n\ttab\\ \u{1} é")),
            ("passes", Value::Int(48)),
            ("pass_ms", Value::Num(651.234_567_890_123)),
            ("whole", Value::Num(3.0)),
            ("tiny", Value::Num(1.5e-9)),
            ("ok", Value::Bool(true)),
            ("empty", Value::Arr(vec![])),
            (
                "list",
                Value::Arr(vec![Value::Int(1), Value::obj([("k", Value::Bool(false))])]),
            ),
        ])
    }

    fn check(parsed: &Json) {
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("sim \"dense\"\n\ttab\\ \u{1} é")
        );
        assert_eq!(parsed.get("passes").and_then(Json::as_f64), Some(48.0));
        assert_eq!(
            parsed.get("pass_ms").and_then(Json::as_f64),
            Some(651.234_567_890_123)
        );
        assert_eq!(parsed.get("whole").and_then(Json::as_f64), Some(3.0));
        assert_eq!(parsed.get("tiny").and_then(Json::as_f64), Some(1.5e-9));
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("empty").and_then(Json::as_arr), Some(&[][..]));
        let list = parsed.get("list").and_then(Json::as_arr).unwrap();
        assert_eq!(list[1].get("k"), Some(&Json::Bool(false)));
    }

    #[test]
    fn compact_round_trips_through_the_workspace_parser() {
        let text = sample().render();
        assert!(!text.contains('\n'), "compact form is one line");
        check(&parse(&text).expect("valid JSON"));
    }

    #[test]
    fn pretty_round_trips_through_the_workspace_parser() {
        let text = sample().render_pretty();
        assert!(text.ends_with("}\n"));
        check(&parse(&text).expect("valid JSON"));
    }

    #[test]
    #[should_panic(expected = "JSON cannot carry")]
    fn non_finite_numbers_are_refused() {
        let _ = Value::Num(f64::NAN).render();
    }
}
