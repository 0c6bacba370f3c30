//! A minimal JSON emitter, shared by every artifact writer in the
//! workspace (telemetry snapshots, plan-explainability reports, the
//! committed `BENCH_*.json` benchmark files).
//!
//! The workspace bans external dependencies, so this is a small tree
//! model rather than serde: build a [`JsonValue`], call
//! [`JsonValue::render`]. Objects preserve insertion order (the committed
//! benchmark artifacts are diffed as text, so field order must be
//! stable), integers render exactly, and floats render with an explicit
//! decimal count so output never depends on shortest-float formatting.

/// A JSON value under construction.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered exactly.
    UInt(u64),
    /// A signed integer, rendered exactly.
    Int(i64),
    /// A float rendered with a fixed number of decimals
    /// (non-finite values render as `null`).
    Float(f64, usize),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved on render.
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(u64::from(v))
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl JsonValue {
    /// An empty object, ready for [`JsonValue::push`].
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects — a builder
    /// misuse, not a data error).
    pub fn push(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            JsonValue::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("push on non-object JSON value {other:?}"),
        }
        self
    }

    /// Builder-style [`JsonValue::push`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.push(key, value);
        self
    }

    /// A float field rendered with `decimals` decimal places.
    pub fn float(value: f64, decimals: usize) -> Self {
        JsonValue::Float(value, decimals)
    }

    /// Renders the value as pretty-printed JSON (two-space indent) with a
    /// trailing newline, matching the committed artifact style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => out.push_str(&v.to_string()),
            JsonValue::Int(v) => out.push_str(&v.to_string()),
            JsonValue::Float(v, decimals) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:.decimals$}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    escape_into(out, key);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl JsonValue {
    /// Parses a JSON document. Numbers with a fraction or exponent parse
    /// as [`JsonValue::Float`] (decimals recorded from the literal, capped
    /// at 17); integers parse as [`JsonValue::UInt`]/[`JsonValue::Int`].
    /// This is the read side of [`JsonValue::render`] — enough to validate
    /// and query committed `BENCH_*.json` artifacts, not a general
    /// streaming parser. A key repeated within one object is an error:
    /// [`JsonValue::get`] would silently read only the first.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up a field of an object (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a float ([`JsonValue::Float`] or any integer).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(v, _) => Some(*v),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_keyword("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} at byte {at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // renderer; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", char::from(other))),
                    }
                }
                _ => {
                    // Copy one UTF-8 scalar (input is a &str, so slicing
                    // at a char boundary is safe via chars()).
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut decimals = 0usize;
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            decimals = (self.pos - frac_start).min(17);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
            Ok(JsonValue::Float(v, decimals))
        } else if text.starts_with('-') {
            let v: i64 = text
                .parse()
                .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
            Ok(JsonValue::Int(v))
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
            Ok(JsonValue::UInt(v))
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

    #[test]
    fn renders_nested_object_with_stable_order() {
        let v = JsonValue::object()
            .with("b", 2u64)
            .with("a", JsonValue::Array(vec![1u64.into(), JsonValue::Null]))
            .with("s", "x\"y\\z");
        let text = v.render();
        assert_eq!(
            text,
            "{\n  \"b\": 2,\n  \"a\": [\n    1,\n    null\n  ],\n  \"s\": \"x\\\"y\\\\z\"\n}\n"
        );
    }

    #[test]
    fn floats_use_fixed_decimals_and_nonfinite_is_null() {
        assert_eq!(JsonValue::float(1.25, 3).render(), "1.250\n");
        assert_eq!(JsonValue::float(f64::NAN, 1).render(), "null\n");
        assert_eq!(JsonValue::float(f64::INFINITY, 1).render(), "null\n");
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(JsonValue::object().render(), "{}\n");
        assert_eq!(JsonValue::Array(Vec::new()).render(), "[]\n");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let v = JsonValue::object()
            .with("schema_version", 2u64)
            .with("neg", JsonValue::Int(-3))
            .with("ratio", JsonValue::float(2.25, 2))
            .with(
                "arr",
                JsonValue::Array(vec![JsonValue::Null, true.into(), "s\"x".into()]),
            );
        let parsed = JsonValue::parse(&v.render()).expect("round trip");
        assert_eq!(parsed, v);
        assert_eq!(
            parsed.get("schema_version").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(parsed.get("ratio").and_then(JsonValue::as_f64), Some(2.25));
        assert_eq!(
            parsed.get("arr").and_then(|a| match a {
                JsonValue::Array(items) => items.get(2).and_then(JsonValue::as_str),
                _ => None,
            }),
            Some("s\"x")
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{}extra").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn parse_rejects_a_key_repeated_within_one_object() {
        let err = JsonValue::parse("{\"a\": 1, \"b\": 2, \"a\": 1}").unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
        assert!(JsonValue::parse("{\"x\": {\"a\": 1, \"a\": 2}}").is_err());
        // The same key in sibling objects is fine.
        assert!(JsonValue::parse("[{\"a\": 1}, {\"a\": 2}]").is_ok());
    }

    #[test]
    fn parse_handles_exponents_and_unicode_escapes() {
        assert_eq!(JsonValue::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            JsonValue::parse("\"a\\u0041\"").unwrap().as_str(),
            Some("aA")
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(
            JsonValue::from("a\u{01}b\nc").render(),
            "\"a\\u0001b\\nc\"\n"
        );
    }
}
