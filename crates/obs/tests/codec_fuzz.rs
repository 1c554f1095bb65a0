//! Differential fuzz tier for the flat-JSON codec.
//!
//! The reference side is the codec as it was before the span-based
//! parser and the writer fast paths: a `BTreeMap`-backed decoder that
//! copies every key and value, a char-by-char string escaper, and `{}`
//! formatting for every number. Both sides read the same arbitrary text,
//! near-JSON and byte soup, and must agree on every outcome a caller can
//! observe: `Ok`/`Err`, the error text, every accessor, equality and
//! `Debug`. Neither may panic. The writer must print exactly what the
//! reference prints for random `f64` bit patterns, integers and strings,
//! and the log reader must split, classify and forgive a torn tail
//! exactly as a `BufRead::lines` reader does.

use proptest::prelude::*;
use rubick_obs::{
    read_event_log_tolerant, EventLogError, JsonObject, JsonWriter, LogLine, SimEvent,
};
use std::collections::BTreeMap;
use std::io::BufRead;

// ---------------------------------------------------------------------------
// The reference codec.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum RefValue {
    Null,
    Num(String),
    Str(String),
}

#[derive(Debug, Clone, PartialEq)]
struct RefFields {
    map: BTreeMap<String, RefValue>,
}

struct RefParser<'a> {
    rest: &'a str,
}

fn truncate(s: &str) -> &str {
    let end = s.char_indices().nth(24).map(|(i, _)| i).unwrap_or(s.len());
    &s[..end]
}

impl RefParser<'_> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn eat(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if let Some(r) = self.rest.strip_prefix(c) {
            self.rest = r;
            Ok(())
        } else {
            Err(format!("expected {c:?} at {:?}", truncate(self.rest)))
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, RefValue>, String> {
        self.eat('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.rest.starts_with('}') {
            self.rest = &self.rest[1..];
            return Ok(map);
        }
        loop {
            let key = self.string()?;
            self.eat(':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            if let Some(r) = self.rest.strip_prefix(',') {
                self.rest = r;
            } else {
                self.eat('}')?;
                return Ok(map);
            }
        }
    }

    fn value(&mut self) -> Result<RefValue, String> {
        self.skip_ws();
        if self.rest.starts_with('"') {
            return Ok(RefValue::Str(self.string()?));
        }
        if let Some(r) = self.rest.strip_prefix("null") {
            self.rest = r;
            return Ok(RefValue::Null);
        }
        let end = self
            .rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(format!("expected scalar at {:?}", truncate(self.rest)));
        }
        let (tok, rest) = self.rest.split_at(end);
        self.rest = rest;
        Ok(RefValue::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((j, 'u')) => {
                        let hex = self
                            .rest
                            .get(j + 1..j + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| "bad \\u code point".to_string())?,
                        );
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    _ => return Err("bad escape sequence".to_string()),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }
}

impl RefFields {
    fn parse(line: &str) -> Result<RefFields, String> {
        let mut p = RefParser { rest: line.trim() };
        let map = p.object()?;
        if !p.rest.trim().is_empty() {
            return Err("trailing data after object".to_string());
        }
        Ok(RefFields { map })
    }

    fn get(&self, key: &str) -> Result<&RefValue, String> {
        self.map
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            RefValue::Str(s) => Ok(s),
            _ => Err(format!("field {key:?} is not a string")),
        }
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            RefValue::Num(raw) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                Ok(_) => Err(format!("field {key:?}: number {raw:?} is not finite")),
                Err(_) => Err(format!("field {key:?}: bad number {raw:?}")),
            },
            _ => Err(format!("field {key:?} is not a number")),
        }
    }

    fn opt_num(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key)? {
            RefValue::Null => Ok(None),
            RefValue::Num(_) => Ok(Some(self.num(key)?)),
            _ => Err(format!("field {key:?} is not a number or null")),
        }
    }

    fn uint(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            RefValue::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("field {key:?}: bad integer {raw:?}")),
            _ => Err(format!("field {key:?} is not a number")),
        }
    }

    fn uint32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.uint(key)?).map_err(|_| format!("field {key:?} overflows u32"))
    }

    fn contains(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Every accessor `JsonObject` offers, evaluated at `key`, as text.
    fn observe(&self, key: &str) -> Vec<String> {
        vec![
            format!("{:?}", self.contains(key)),
            format!("{:?}", self.str(key)),
            format!("{:?}", self.num(key).map(f64::to_bits)),
            format!("{:?}", self.uint(key)),
            format!("{:?}", self.uint32(key)),
            format!("{:?}", self.opt_num(key).map(|v| v.map(f64::to_bits))),
            format!(
                "{:?}",
                if self.contains(key) {
                    self.str(key).map(Some)
                } else {
                    Ok(None)
                }
            ),
            format!(
                "{:?}",
                if self.contains(key) {
                    self.uint(key)
                } else {
                    Ok(7)
                }
            ),
            format!(
                "{:?}",
                if self.contains(key) {
                    self.num(key).map(f64::to_bits)
                } else {
                    Ok(2.5f64.to_bits())
                }
            ),
        ]
    }
}

/// The same observations through the public [`JsonObject`] API.
fn observe(obj: &JsonObject, key: &str) -> Vec<String> {
    let msg = |e: rubick_obs::EventParseError| e.message().to_string();
    vec![
        format!("{:?}", obj.contains(key)),
        format!("{:?}", obj.str(key).map_err(msg)),
        format!("{:?}", obj.num(key).map(f64::to_bits).map_err(msg)),
        format!("{:?}", obj.uint(key).map_err(msg)),
        format!("{:?}", obj.uint32(key).map_err(msg)),
        format!(
            "{:?}",
            obj.opt_num(key).map(|v| v.map(f64::to_bits)).map_err(msg)
        ),
        format!("{:?}", obj.opt_str(key).map_err(msg)),
        format!("{:?}", obj.uint_or(7, key).map_err(msg)),
        format!("{:?}", obj.num_or(2.5, key).map(f64::to_bits).map_err(msg)),
    ]
}

fn ref_push_json_str(out: &mut String, s: &str) {
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

fn ref_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------------
// The differential checks.
// ---------------------------------------------------------------------------

/// Parses `line` both ways and checks every observable agrees.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    let reference = RefFields::parse(line);
    let parsed = JsonObject::parse(line);
    match (&reference, &parsed) {
        (Err(want), Err(got)) => {
            prop_assert_eq!(want.as_str(), got.message(), "error text of {:?}", line);
        }
        (Ok(want), Ok(got)) => {
            let mut keys: Vec<&str> = want.map.keys().map(String::as_str).collect();
            keys.extend(["type", "a", "", "missing", "b\"", "é"]);
            for key in keys {
                prop_assert_eq!(
                    want.observe(key),
                    observe(got, key),
                    "{:?} at {:?}",
                    line,
                    key
                );
            }
            prop_assert_eq!(
                format!("JsonObject {{ map: {:?} }}", want.map),
                format!("{got:?}")
            );
            // A reparse of the same line is equal; so is its clone.
            prop_assert!(JsonObject::parse(line).ok().as_ref() == Some(got));
            prop_assert!(got.clone() == *got);
        }
        _ => prop_assert!(
            false,
            "{:?}: reference {:?} vs parser {:?}",
            line,
            reference,
            parsed
        ),
    }
    // Event decoding goes through the same parser: a line the reference
    // rejects is rejected with the same text.
    if let Err(want) = &reference {
        let got = SimEvent::from_jsonl(line).expect_err("reference rejected the line");
        prop_assert_eq!(want.as_str(), got.message());
    }
    Ok(())
}

/// Equality of two parsed lines matches the reference's map equality.
fn check_pair(a: &str, b: &str) -> Result<(), TestCaseError> {
    if let (Ok(ra), Ok(rb), Ok(pa), Ok(pb)) = (
        RefFields::parse(a),
        RefFields::parse(b),
        JsonObject::parse(a),
        JsonObject::parse(b),
    ) {
        prop_assert_eq!(ra == rb, pa == pb, "{:?} vs {:?}", a, b);
    }
    Ok(())
}

/// Fragments near-JSON is assembled from: structure, keys, every kind of
/// scalar, escapes good and bad, non-ASCII, Unicode whitespace, and junk.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "{",
    "}",
    ":",
    ",",
    ",",
    "\"",
    " ",
    "\t",
    "\r\n",
    "\u{2003}",
    "\u{a0}",
    "\u{feff}",
    "\"type\"",
    "\"a\"",
    "\"a\"",
    "\"b\\\"\"",
    "\"\\u00e9\"",
    "\"é\"",
    "\"\"",
    "\"a\\u0041\"",
    "1",
    "1.5",
    "1.50",
    "-0",
    "0",
    "-1",
    "1e999",
    "-1e999",
    "1e-400",
    "+5",
    "1.",
    ".5",
    "--1",
    "18446744073709551615",
    "18446744073709551616",
    "9007199254740993",
    "4294967296",
    "null",
    "nul",
    "nullx",
    "true",
    "\"x\"",
    "\"x\\ny\"",
    "\"\\t\\r\\/\"",
    "\"\\uD800\"",
    "\"\\u+041\"",
    "\"\\u12\"",
    "\"\\u00zz\"",
    "\"\\q\"",
    "\"\\",
    "\"é\\u00e9\"",
    "\"\u{1}\"",
    "x",
    "[",
    "]",
    "\u{10ffff}",
    "😀",
    "\"😀\\\"\"",
];

fn fragment_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..FRAGMENTS.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

const KEYS: &[&str] = &[
    "type", "a", "b", "a", "é", "k\\\"q", "a\\u0062", "", "x\\ty",
];
const VALUES: &[&str] = &[
    "1",
    "1.5",
    "1.50",
    "-0",
    "0",
    "2.5e3",
    "1e999",
    "18446744073709551616",
    "18446744073709551615",
    "9007199254740993",
    "4294967296",
    "null",
    "\"x\"",
    "\"job_submitted\"",
    "\"é\\n\\u0001\"",
    "\"\\\\\"",
    "\"\"",
    "\"tick_skipped\"",
];
const SPACES: &[&str] = &["", "", "", " ", "\t", "\n", "\u{2003}", "\u{3000} "];

/// A well-formed object (keys may repeat) with random whitespace, then
/// optionally trailing data or a truncation at a char boundary.
fn object_text() -> impl Strategy<Value = String> {
    (
        prop::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len(), 0usize..64), 0..8),
        0usize..8,
        0usize..200,
    )
        .prop_map(|(entries, tail, cut)| {
            let ws = |i: usize| SPACES[i % SPACES.len()];
            let mut s = String::from(ws(cut));
            s.push('{');
            for (n, (k, v, w)) in entries.iter().enumerate() {
                if n > 0 {
                    s.push(',');
                }
                s.push_str(ws(*w));
                s.push('"');
                s.push_str(KEYS[*k]);
                s.push('"');
                s.push_str(ws(w / 8));
                s.push(':');
                s.push_str(ws(w / 3));
                s.push_str(VALUES[*v]);
            }
            s.push_str(ws(tail));
            s.push('}');
            match tail {
                0 => s.push_str(" x"),
                1 => s.push_str("{}"),
                2 => {
                    let cut = s.char_indices().nth(cut % (s.chars().count() + 1));
                    s.truncate(cut.map_or(s.len(), |(i, _)| i));
                }
                _ => {}
            }
            s
        })
}

/// Random characters: mostly ASCII (where JSON's structure lives), some
/// control characters, some anywhere in Unicode.
fn char_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..6, 0u32..0x11_0000), 0..40).prop_map(|cs| {
        cs.into_iter()
            .filter_map(|(class, raw)| match class {
                0..=2 => char::from_u32(0x20 + raw % 0x5f),
                3 => char::from_u32(raw % 0x20),
                4 => ['{', '}', '"', ':', ',', '\\']
                    .get(raw as usize % 6)
                    .copied(),
                _ => char::from_u32(raw),
            })
            .collect()
    })
}

/// Writes `bytes` to a fresh file and reads it with the reference reader:
/// `BufRead::lines`, blank lines skipped, each line classified, the first
/// bad line forgiven only if no line follows it.
/// Returns the classified lines, their text, and whether the tail was torn.
fn ref_read(path: &std::path::Path) -> Result<(Vec<LogLine>, Vec<String>, bool), EventLogError> {
    let classify = |line: &str, line_no: u64| -> Result<LogLine, EventLogError> {
        let err = |e: rubick_obs::EventParseError| EventLogError {
            line: line_no,
            message: e.to_string(),
        };
        let obj = JsonObject::parse(line).map_err(err)?;
        let ty = obj.ty().map_err(err)?;
        if ty == "schema" {
            let version =
                u32::try_from(obj.uint("version").map_err(err)?).map_err(|_| EventLogError {
                    line: line_no,
                    message: "schema version overflows u32".into(),
                })?;
            return Ok(LogLine::Schema(version));
        }
        if SimEvent::known_type(ty) {
            return SimEvent::from_jsonl(line).map(LogLine::Event).map_err(err);
        }
        Ok(LogLine::Other(obj))
    };
    let file = std::fs::File::open(path).expect("test file exists");
    let mut lines = Vec::new();
    let mut raws = Vec::new();
    let mut deferred = None;
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line_no = i as u64 + 1;
        let item = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => classify(&line, line_no).map(|classified| (classified, line)),
            Err(e) => Err(EventLogError {
                line: line_no,
                message: format!("read error: {e}"),
            }),
        };
        match item {
            Ok((line, raw)) => {
                if let Some(e) = deferred.take() {
                    return Err(e);
                }
                lines.push(line);
                raws.push(raw);
            }
            Err(e) => {
                if let Some(prior) = deferred.take() {
                    return Err(prior);
                }
                deferred = Some(e);
            }
        }
    }
    Ok((lines, raws, deferred.is_some()))
}

fn check_log(bytes: &[u8], tag: &str) -> Result<(), TestCaseError> {
    let path = std::env::temp_dir().join(format!(
        "rubick-codec-fuzz-{tag}-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).expect("temp dir is writable");
    let want = ref_read(&path);
    let got = read_event_log_tolerant(&path).expect("file is readable");
    std::fs::remove_file(&path).ok();
    match (&want, &got) {
        (Err(w), Err(g)) => prop_assert_eq!(w, g),
        (Ok((lines, raws, torn)), Ok(log)) => {
            prop_assert_eq!(lines, &log.lines);
            let got_raws: Vec<&str> = (0..log.lines.len()).map(|i| log.raw(i)).collect();
            prop_assert_eq!(raws, &got_raws);
            prop_assert_eq!(*torn, log.torn_tail);
            prop_assert!(bytes.starts_with(log.text.as_bytes()));
            if !log.torn_tail {
                prop_assert_eq!(log.text.as_bytes(), bytes);
            }
            prop_assert_eq!(log.spans.len(), log.lines.len());
            for (i, line) in log.lines.iter().enumerate() {
                // The raw text of a line reads back as that line.
                let raw = log.raw(i);
                let again = match line {
                    LogLine::Event(_) => SimEvent::from_jsonl(raw).map(LogLine::Event),
                    LogLine::Schema(_) | LogLine::Other(_) => {
                        JsonObject::parse(raw).map(LogLine::Other)
                    }
                };
                match (line, again) {
                    (LogLine::Schema(_), Ok(_)) => {}
                    (_, again) => prop_assert_eq!(Ok(line.clone()), again),
                }
            }
        }
        _ => prop_assert!(false, "reference {:?} vs reader {:?}", want, got),
    }
    Ok(())
}

/// Lines a log is assembled from: events, headers, ops, near misses.
fn log_lines() -> Vec<String> {
    let ev = SimEvent::TickSkipped { at: 1.5, round: 2 };
    vec![
        ev.to_jsonl(),
        r#"{"round":2,"at":1.50,"type":"tick_skipped"}"#.to_string(),
        rubick_obs::schema_header_line(),
        r#"{"type":"schema","version":4294967296}"#.to_string(),
        r#"{"type":"submit","job":1}"#.to_string(),
        r#"{"type":"tick_skipped","at":"x","round":2}"#.to_string(),
        r#"{"type":"tick_skip"#.to_string(),
        "   ".to_string(),
        String::new(),
        "garbage".to_string(),
    ]
}

fn log_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec((0usize..10, 0usize..4), 0..8),
        prop::collection::vec(0u32..256, 0..6),
        0usize..3,
    )
        .prop_map(|(lines, junk, ending)| {
            let pool = log_lines();
            let mut out = Vec::new();
            for (i, (line, end)) in lines.iter().enumerate() {
                out.extend_from_slice(pool[*line].as_bytes());
                if i + 1 < lines.len() || ending > 0 {
                    out.extend_from_slice(if *end == 0 { b"\r\n" } else { b"\n" });
                }
            }
            // Arbitrary bytes (possibly invalid UTF-8) as a final line.
            if ending == 2 {
                out.extend(junk.iter().map(|&b| b as u8));
            }
            out
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_parses_like_the_reference(text in char_text()) {
        check_line(&text)?;
        check_line(&format!("{{\"a\":\"{text}\"}}"))?;
        check_line(&format!("{{\"{text}\":1}}"))?;
    }

    #[test]
    fn arbitrary_bytes_parse_like_the_reference(bytes in prop::collection::vec(0u32..256, 0..48)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check_line(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn near_json_parses_like_the_reference(a in fragment_text(), b in fragment_text()) {
        check_line(&a)?;
        check_line(&format!("{a}{b}"))?;
        check_pair(&a, &b)?;
    }

    #[test]
    fn objects_parse_and_compare_like_the_reference(a in object_text(), b in object_text()) {
        check_line(&a)?;
        check_pair(&a, &b)?;
        check_pair(&a, &a.replace(' ', ""))?;
    }

    #[test]
    fn logs_read_like_the_reference(bytes in log_bytes()) {
        check_log(&bytes, "log")?;
    }

    #[test]
    fn numbers_print_like_display(bits in 0u64..u64::MAX, int in 0u64..(1u64 << 52), shift in 0u32..12) {
        let int = int as f64 * f64::from(1u32 << shift);
        for v in [f64::from_bits(bits), int, -int, int + 0.5, f64::from_bits(bits ^ (1 << 63))] {
            let mut w = JsonWriter::untyped();
            w.num("v", v);
            w.opt_num("o", Some(v));
            let want = format!("{{\"v\":{},\"o\":{}}}", ref_f64(v), ref_f64(v));
            prop_assert_eq!(w.finish(), want, "{:e} ({:#x})", v, v.to_bits());
        }
        let mut w = JsonWriter::untyped();
        w.uint("u", bits);
        w.uint("i", int as u64);
        prop_assert_eq!(w.finish(), format!("{{\"u\":{bits},\"i\":{}}}", int as u64));
    }

    #[test]
    fn strings_escape_like_the_reference(text in char_text()) {
        let mut w = JsonWriter::new(&text);
        w.str(&text, &text);
        let mut want = String::from("{");
        ref_push_json_str(&mut want, "type");
        want.push(':');
        ref_push_json_str(&mut want, &text);
        want.push(',');
        ref_push_json_str(&mut want, &text);
        want.push(':');
        ref_push_json_str(&mut want, &text);
        want.push('}');
        let line = w.finish();
        prop_assert_eq!(&line, &want);
        let back = JsonObject::parse(&line).unwrap();
        prop_assert_eq!(back.str(&text).unwrap(), text.as_str());
    }
}

#[test]
fn number_edges_print_like_display() {
    let two53 = (1u64 << 53) as f64;
    let mut edges = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        two53,
        two53 - 1.0,
        two53 + 2.0,
        -two53,
        1e15,
        -1e15,
        1e15 - 1.0,
        -(1e15 - 1.0),
        1e15 + 1.0,
        999_999_999_999_999.9,
        1e16,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::EPSILON,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    for k in -3i32..=3 {
        edges.push(1e15_f64.next_up_by(k));
        edges.push(two53.next_up_by(k));
    }
    for v in edges {
        let mut w = JsonWriter::untyped();
        w.num("v", v);
        assert_eq!(w.finish(), format!("{{\"v\":{}}}", ref_f64(v)), "{v:e}");
    }
    for v in [
        0,
        9,
        10,
        99,
        100,
        u64::from(u32::MAX),
        u64::MAX - 1,
        u64::MAX,
    ] {
        let mut w = JsonWriter::untyped();
        w.uint("u", v);
        assert_eq!(w.finish(), format!("{{\"u\":{v}}}"));
    }
}

/// `next_up`/`next_down` applied `|k|` times.
trait NextUpBy {
    fn next_up_by(self, k: i32) -> f64;
}

impl NextUpBy for f64 {
    fn next_up_by(self, k: i32) -> f64 {
        let step = |v: f64| {
            let bits = v.to_bits();
            match (k > 0, v >= 0.0) {
                (true, true) | (false, false) => f64::from_bits(bits + 1),
                _ => f64::from_bits(bits - 1),
            }
        };
        (0..k.unsigned_abs()).fold(self, |v, _| step(v))
    }
}
