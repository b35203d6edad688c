//! The workspace's one JSON reader and writer (it vendors no serde).
//!
//! Every product document goes out through the writer: the RunReport,
//! its critical-path block, `nekstat summary --json`, the fault-sweep
//! summary and the Chrome trace.
//! [`object`] and [`array`] start a document and an [`Obj`] fills one
//! object's members, in the order they are written. The layout is fixed:
//! no spaces, each array element on its own line and an array closed by
//! `\n]`, so an object without arrays is one line. Integers are written
//! as they display, other numbers by [`push_f64`].
//!
//! The reader is a small recursive-descent parser producing a [`Value`]
//! tree, whose [`Value::num`], [`Value::uint`] and [`Value::text`] read a
//! member with 0 or `""` standing in for a missing one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object (key order not preserved; keys are unique).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64, if a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric member `key`, or 0.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    /// Non-negative integral member `key`, or 0.
    pub fn uint(&self, key: &str) -> u64 {
        self.get(key).and_then(Value::as_u64).unwrap_or(0)
    }

    /// String member `key`, or `""`.
    pub fn text(&self, key: &str) -> &str {
        self.get(key).and_then(Value::as_str).unwrap_or_default()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and its input is a file from outside the program
/// (`nekstat` reads any report it is given), so the depth must not be
/// the writer's to choose; a RunReport nests 4 deep.
pub const MAX_DEPTH: usize = 64;

/// Parse `text` as a single JSON document.
///
/// # Errors
/// A human-readable message with a byte offset on malformed input or on
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let s = &self.bytes[self.pos..];
                    let step = match s[0] {
                        b if b < 0x80 => 1,
                        b if b >> 5 == 0b110 => 2,
                        b if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    out.push_str(
                        std::str::from_utf8(&s[..step])
                            .map_err(|_| format!("invalid utf-8 at byte {}", self.pos))?,
                    );
                    self.pos += step;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// One JSON object; `fill` writes its members.
pub fn object(fill: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fill);
    out
}

/// A JSON array with one object per item, each on its own line; `each`
/// writes an item's members. (Every array the documents hold is an array
/// of objects.)
pub fn array<I: IntoIterator>(items: I, each: impl FnMut(&mut Obj<'_>, I::Item)) -> String {
    let mut out = String::new();
    write_array(&mut out, items, each);
    out
}

fn write_object(out: &mut String, fill: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    fill(&mut Obj { out, empty: true });
    out.push('}');
}

fn write_array<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut each: impl FnMut(&mut Obj<'_>, I::Item),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        write_object(out, |o| each(o, item));
    }
    out.push_str("\n]");
}

/// The members of one object being written. Each method appends one
/// member and returns the object, so members chain in document order.
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Obj<'_> {
    /// Start member `key`; the caller writes its value.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        push_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        push_str(self.key(key), v);
        self
    }

    /// A number member, written by [`push_f64`].
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        push_f64(self.key(key), v);
        self
    }

    /// An integer member.
    pub fn uint(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// An integer member that may be absent, written as `null`.
    pub fn opt_uint(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.uint(key, v),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// An object member; `fill` writes its members.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.key(key), fill);
        self
    }

    /// An array member, as [`array`] writes one.
    pub fn arr<I: IntoIterator>(
        &mut self,
        key: &str,
        items: I,
        each: impl FnMut(&mut Obj<'_>, I::Item),
    ) -> &mut Self {
        write_array(self.key(key), items, each);
        self
    }
}

/// Append `s` as a JSON string (with quotes) to `out`.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` as a JSON number (shortest round-trip form; non-finite
/// values — which no virtual-clock quantity produces — write as 0).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, "x\n\"y\""], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn writer_escapes_round_trip() {
        let mut out = String::new();
        push_str(&mut out, "line\nwith \"quotes\" and \\ tab\t\u{1}");
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("line\nwith \"quotes\" and \\ tab\t\u{1}"));
    }

    #[test]
    fn writer_layout_and_accessors() {
        let doc = object(|o| {
            o.text("s", "a\"b")
                .num("x", 2.0)
                .num("nan", f64::NAN)
                .uint("n", 7)
                .opt_uint("none", None)
                .bool("ok", true)
                .obj("empty", |_| {})
                .arr("rows", [1u64, 2], |o, i| {
                    o.uint("i", i);
                })
                .arr("list", std::iter::empty::<u64>(), |_, _| {});
        });
        assert_eq!(
            doc,
            "{\"s\":\"a\\\"b\",\"x\":2.0,\"nan\":0,\"n\":7,\"none\":null,\"ok\":true,\
             \"empty\":{},\"rows\":[\n{\"i\":1},\n{\"i\":2}\n],\"list\":[\n]}"
        );
        let v = parse(&doc).unwrap();
        assert_eq!((v.text("s"), v.num("x"), v.uint("n")), ("a\"b", 2.0, 7));
        assert_eq!(
            (v.text("missing"), v.num("missing"), v.uint("s")),
            ("", 0.0, 0)
        );
    }

    #[test]
    fn f64_round_trips_shortest_form() {
        for x in [0.0, 1.5, 0.1, 1e-12, 123456.789, 2.5e8] {
            let mut out = String::new();
            push_f64(&mut out, x);
            let v = parse(&out).unwrap();
            assert_eq!(v.as_f64(), Some(x), "{out}");
        }
    }
}
