//! The flat-object JSON codec (scalar values only, no external
//! dependency): [`JsonWriter`] encodes, [`JsonObject`] decodes.

use std::collections::BTreeMap;
use std::fmt;

/// Error produced when a JSONL line cannot be parsed back into a
/// [`SimEvent`](crate::SimEvent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventParseError {
    message: String,
    /// Whether [`Display`](fmt::Display) leaves out the `invalid event
    /// line:` prefix: set for a well-formed schema header whose version
    /// overflows `u32`.
    bare: bool,
}

impl EventParseError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        EventParseError {
            message: message.into(),
            bare: false,
        }
    }

    /// An error whose [`Display`](fmt::Display) is `message` alone.
    pub(crate) fn bare(message: impl Into<String>) -> Self {
        EventParseError {
            message: message.into(),
            bare: true,
        }
    }

    /// What is wrong with the line, without the `invalid event line:`
    /// prefix that [`Display`](fmt::Display) adds. Readers of lines that
    /// are not events (protocol ops) word their own errors with it.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for EventParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.bare {
            f.write_str("invalid event line: ")?;
        }
        f.write_str(&self.message)
    }
}

impl std::error::Error for EventParseError {}

/// Builds one flat JSON object on one line: the encoder behind every
/// record this workspace writes (events, serve journal and replies, sweep
/// rows), so they all escape strings and print numbers the same way.
///
/// Fields appear in call order. Strings escape `"`, `\`, `\n`, `\r` and
/// `\t` by name and other control characters as `\u00XX`; floats print as
/// Rust's shortest round-trip form, non-finite ones as `null`.
///
/// ```
/// use rubick_obs::{JsonObject, JsonWriter};
///
/// let mut w = JsonWriter::new("ok");
/// w.str("op", "submit");
/// w.uint("job", 7);
/// let line = w.finish();
/// assert_eq!(line, r#"{"type":"ok","op":"submit","job":7}"#);
/// assert_eq!(JsonObject::parse(&line).unwrap().uint("job").unwrap(), 7);
/// ```
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// An object whose first field is `"type":ty`.
    pub fn new(ty: &str) -> Self {
        JsonWriter::appending(String::with_capacity(128), ty)
    }

    /// An object with no leading `type` field.
    pub fn untyped() -> Self {
        JsonWriter::open(String::with_capacity(128))
    }

    /// Starts an object at the end of `out`, which [`JsonWriter::finish`]
    /// hands back with the object appended.
    fn open(mut out: String) -> Self {
        out.push('{');
        JsonWriter { out }
    }

    /// [`JsonWriter::new`], appending to `out`.
    pub(crate) fn appending(out: String, ty: &str) -> Self {
        let mut w = JsonWriter::open(out);
        w.str("type", ty);
        w
    }

    fn key(&mut self, k: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        push_json_str(&mut self.out, k);
        self.out.push(':');
    }

    /// A string field.
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        push_json_str(&mut self.out, v);
    }

    /// A numeric field (`null` when `v` is not finite).
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        push_json_f64(&mut self.out, v);
    }

    /// A numeric-or-null field.
    pub fn opt_num(&mut self, k: &str, v: Option<f64>) {
        self.key(k);
        match v {
            Some(v) => push_json_f64(&mut self.out, v),
            None => self.out.push_str("null"),
        }
    }

    /// An unsigned-integer field.
    pub fn uint(&mut self, k: &str, v: u64) {
        self.key(k);
        push_u64(&mut self.out, v);
    }

    /// A `true`/`false` field.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// A field whose value is an already-formatted JSON token, such as a
    /// fixed-precision number from `format!("{:.3}", x)` or `null`. The
    /// caller guarantees the token is valid JSON.
    pub fn raw(&mut self, k: &str, token: &str) {
        self.key(k);
        self.out.push_str(token);
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Pushes `s` as a JSON string. The text before the first byte that needs
/// an escape (a quote, a backslash or a control character; all ASCII, so
/// never inside a multi-byte character) is copied whole.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let plain = s
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(s.len());
    out.push_str(&s[..plain]);
    for c in s[plain..].chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Pushes the decimal digits of `v`, as `{v}` prints them.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// `{}` on `f64` is Rust's shortest string that round-trips to the same
/// bits, which keeps the log both compact and lossless. Non-finite values
/// never occur in simulation output (times and throughputs are finite), but
/// encode them as `null` rather than emitting invalid JSON.
///
/// An integral value below 1e15 in magnitude (so exactly an `i64`) prints
/// under `{}` as its integer digits with no fraction or exponent, so it
/// takes the integer path; `-0.0` (which prints `-0`) and everything else
/// go through `{}`.
fn push_json_f64(out: &mut String, v: f64) {
    if v.abs() < 1e15 && v.trunc() == v && (v != 0.0 || v.is_sign_positive()) {
        if v < 0.0 {
            out.push('-');
        }
        push_u64(out, v.abs() as u64);
    } else if v.is_finite() {
        use fmt::Write as _;
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A parsed scalar, borrowed from its [`JsonObject`] buffer: the raw number
/// token is kept as text so integers larger than 2^53 survive the trip
/// untruncated.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JsonValue<'a> {
    Null,
    Num(&'a str),
    Str(&'a str),
}

/// A byte range of [`JsonObject::buf`].
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

/// A [`JsonValue`] as a span of the owning buffer.
#[derive(Debug, Clone, Copy)]
enum Value {
    Null,
    Num(Span),
    Str(Span),
}

/// One `"key":value` pair.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: Span,
    value: Value,
}

/// One parsed flat JSON object with tolerant, by-key accessors: the
/// decoder behind every record this workspace reads — events, serve-session
/// ops, sweep JSONL rows, compaction markers. Unknown fields are simply
/// never looked up; missing fields error (or default, via the `*_or`
/// accessors) at lookup time.
///
/// It holds a copy of the trimmed line, followed by the unescaped text of
/// any string that held an escape, plus the pairs in line order as spans
/// of that buffer. A string without escapes is a span of the line itself.
/// Lookups scan from the back, so a repeated key reads as its last value.
#[derive(Clone)]
pub struct JsonObject {
    buf: String,
    entries: Vec<Entry>,
}

impl JsonObject {
    /// Parses one line holding a flat JSON object (string / number / null
    /// values only).
    pub fn parse(line: &str) -> Result<JsonObject, EventParseError> {
        let src = line.trim();
        let mut p = Parser {
            src,
            pos: 0,
            obj: JsonObject {
                buf: String::with_capacity(src.len()),
                entries: Vec::with_capacity(16),
            },
        };
        p.obj.buf.push_str(src);
        p.object()?;
        if !p.rest().trim().is_empty() {
            return Err(EventParseError::new("trailing data after object"));
        }
        Ok(p.obj)
    }

    fn text(&self, span: Span) -> &str {
        &self.buf[span.start..span.end]
    }

    fn value(&self, entry: &Entry) -> JsonValue<'_> {
        match entry.value {
            Value::Null => JsonValue::Null,
            Value::Num(span) => JsonValue::Num(self.text(span)),
            Value::Str(span) => JsonValue::Str(self.text(span)),
        }
    }

    fn find(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().rev().find(|e| self.text(e.key) == key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.find(key).is_some()
    }

    /// The pairs as a last-wins map: what equality and `Debug` see.
    fn map(&self) -> BTreeMap<&str, JsonValue<'_>> {
        self.entries
            .iter()
            .map(|e| (self.text(e.key), self.value(e)))
            .collect()
    }

    fn get(&self, key: &str) -> Result<JsonValue<'_>, EventParseError> {
        self.find(key)
            .map(|e| self.value(e))
            .ok_or_else(|| EventParseError::new(format!("missing field {key:?}")))
    }

    /// The `type` field, present on every record this workspace writes.
    pub fn ty(&self) -> Result<&str, EventParseError> {
        self.str("type")
    }

    /// A required string field.
    pub fn str(&self, key: &str) -> Result<&str, EventParseError> {
        match self.get(key)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(EventParseError::new(format!(
                "field {key:?} is not a string"
            ))),
        }
    }

    /// A required finite numeric field: a token that overflows `f64`
    /// (`1e999`) is an error, since the writer could only print it back as
    /// `null`.
    pub fn num(&self, key: &str) -> Result<f64, EventParseError> {
        match self.get(key)? {
            JsonValue::Num(raw) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                Ok(_) => Err(EventParseError::new(format!(
                    "field {key:?}: number {raw:?} is not finite"
                ))),
                Err(_) => Err(EventParseError::new(format!(
                    "field {key:?}: bad number {raw:?}"
                ))),
            },
            _ => Err(EventParseError::new(format!(
                "field {key:?} is not a number"
            ))),
        }
    }

    /// A finite-numeric-or-null field (`null` reads as `None`).
    pub fn opt_num(&self, key: &str) -> Result<Option<f64>, EventParseError> {
        match self.get(key)? {
            JsonValue::Null => Ok(None),
            JsonValue::Num(_) => Ok(Some(self.num(key)?)),
            _ => Err(EventParseError::new(format!(
                "field {key:?} is not a number or null"
            ))),
        }
    }

    /// A required unsigned-integer field.
    pub fn uint(&self, key: &str) -> Result<u64, EventParseError> {
        match self.get(key)? {
            JsonValue::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| EventParseError::new(format!("field {key:?}: bad integer {raw:?}"))),
            _ => Err(EventParseError::new(format!(
                "field {key:?} is not a number"
            ))),
        }
    }

    /// A required unsigned-integer field that must fit in `u32`.
    pub fn uint32(&self, key: &str) -> Result<u32, EventParseError> {
        u32::try_from(self.uint(key)?)
            .map_err(|_| EventParseError::new(format!("field {key:?} overflows u32")))
    }

    /// Like [`JsonObject::uint`], but a *missing* key yields `default` instead
    /// of an error — for counters added to an event after its schema
    /// version shipped. A present-but-malformed value still errors.
    pub fn uint_or(&self, default: u64, key: &str) -> Result<u64, EventParseError> {
        if self.contains(key) {
            self.uint(key)
        } else {
            Ok(default)
        }
    }

    /// A string field that may be absent.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, EventParseError> {
        if self.contains(key) {
            self.str(key).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A numeric field defaulting when absent (present-but-bad still
    /// errors).
    pub fn num_or(&self, default: f64, key: &str) -> Result<f64, EventParseError> {
        if self.contains(key) {
            self.num(key)
        } else {
            Ok(default)
        }
    }
}

impl PartialEq for JsonObject {
    fn eq(&self, other: &JsonObject) -> bool {
        self.map() == other.map()
    }
}

impl fmt::Debug for JsonObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonObject")
            .field("map", &self.map())
            .finish()
    }
}

/// A minimal parser for the flat JSON objects this crate emits: one object
/// per line, scalar values only (string, number, null). It reads `src`
/// (which `obj.buf` starts as a copy of, so offsets agree) and records
/// each pair into `obj`.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    obj: JsonObject,
}

impl Parser<'_> {
    fn rest(&self) -> &str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        self.pos = self.src.len() - self.rest().trim_start().len();
    }

    fn eat(&mut self, c: u8) -> Result<(), EventParseError> {
        self.skip_ws();
        if self.rest().as_bytes().first() == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(EventParseError::new(format!(
                "expected {:?} at {:?}",
                char::from(c),
                truncate(self.rest())
            )))
        }
    }

    fn object(&mut self) -> Result<(), EventParseError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.rest().starts_with('}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            self.obj.entries.push(Entry { key, value });
            self.skip_ws();
            if self.rest().starts_with(',') {
                self.pos += 1;
            } else {
                return self.eat(b'}');
            }
        }
    }

    fn value(&mut self) -> Result<Value, EventParseError> {
        self.skip_ws();
        if self.rest().starts_with('"') {
            return Ok(Value::Str(self.string()?));
        }
        if self.rest().starts_with("null") {
            self.pos += 4;
            return Ok(Value::Null);
        }
        let len = self
            .rest()
            .bytes()
            .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(self.rest().len());
        if len == 0 {
            return Err(EventParseError::new(format!(
                "expected scalar at {:?}",
                truncate(self.rest())
            )));
        }
        let start = self.pos;
        self.pos += len;
        Ok(Value::Num(Span {
            start,
            end: self.pos,
        }))
    }

    /// A string: a span of the line when it holds no escape, else the
    /// unescaped text appended to the buffer.
    fn string(&mut self) -> Result<Span, EventParseError> {
        self.eat(b'"')?;
        let start = self.pos;
        match self.rest().bytes().position(|b| b == b'"' || b == b'\\') {
            Some(len) if self.rest().as_bytes()[len] == b'"' => {
                self.pos += len + 1;
                Ok(Span {
                    start,
                    end: start + len,
                })
            }
            Some(len) => {
                let buf = &mut self.obj.buf;
                let unescaped = buf.len();
                buf.push_str(&self.src[start..start + len]);
                self.pos += len;
                self.unescape()?;
                Ok(Span {
                    start: unescaped,
                    end: self.obj.buf.len(),
                })
            }
            None => Err(EventParseError::new("unterminated string")),
        }
    }

    /// Decodes the rest of a string from its first escape up to and past
    /// its closing quote, appending the text to the buffer.
    fn unescape(&mut self) -> Result<(), EventParseError> {
        let src = self.src;
        let rest = &src[self.pos..];
        let out = &mut self.obj.buf;
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(());
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((j, 'u')) => {
                        let hex = rest
                            .get(j + 1..j + 5)
                            .ok_or_else(|| EventParseError::new("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| EventParseError::new("bad \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| EventParseError::new("bad \\u code point"))?,
                        );
                        // Skip the four hex digits just consumed.
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    _ => return Err(EventParseError::new("bad escape sequence")),
                },
                c => out.push(c),
            }
        }
        Err(EventParseError::new("unterminated string"))
    }
}

fn truncate(s: &str) -> &str {
    let end = s.char_indices().nth(24).map(|(i, _)| i).unwrap_or(s.len());
    &s[..end]
}
