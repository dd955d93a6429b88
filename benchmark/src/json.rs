//! A JSON writer: the result line, the trace lines, the suite document and
//! `BENCHMARK.json` are all rendered from [`Json`] values.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Counts and identifiers, rendered without a fraction.
    Int(u64),
    /// Measurements, rendered with every digit `f64` round-trips.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is the order of insertion, so output is reproducible.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Self {
        Json::Str(s.to_owned())
    }

    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders on one line.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders indented by two spaces per level, with a trailing newline.
    pub fn pretty(&self) -> String {
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
        let separator = if indent.is_some() { ": " } else { ":" };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // JSON has no NaN or infinity; a measurement that produced one
            // is a harness bug, reported where the metric is built.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push('"');
                    escape_into(key, out);
                    out.push('"');
                    out.push_str(separator);
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

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let v = Json::str("a\"b\\c\nd\te\r\u{1}é");
        assert_eq!(v.line(), "\"a\\\"b\\\\c\\nd\\te\\r\\u0001é\"");
        let keyed = Json::obj([("k\"", Json::Int(1))]);
        assert_eq!(keyed.line(), "{\"k\\\"\":1}");
    }

    #[test]
    fn numbers_keep_every_digit_and_non_finite_is_null() {
        assert_eq!(Json::Num(1.2034).line(), "1.2034");
        assert_eq!(Json::Num(0.1 + 0.2).line(), "0.30000000000000004");
        assert_eq!(Json::Num(1e-7).line(), "0.0000001");
        assert_eq!(Json::Num(3.0).line(), "3");
        assert_eq!(Json::Num(f64::NAN).line(), "null");
        assert_eq!(Json::Int(u64::MAX).line(), "18446744073709551615");
    }

    #[test]
    fn nesting_renders_compact_and_pretty() {
        let v = Json::obj([
            ("ok", Json::Bool(true)),
            ("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(v.line(), "{\"ok\":true,\"xs\":[1,2],\"empty\":[]}");
        assert_eq!(
            v.pretty(),
            "{\n  \"ok\": true,\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}\n"
        );
    }
}
