//! The workspace's one JSON codec: a value type, a strict parser, and the
//! two encoders every document is written with.
//!
//! The workspace's vendored `serde` stand-in is a no-op (see `vendor/serde`),
//! so nothing can rely on derived serialisation; this module is the
//! self-contained replacement.  It supports objects with ordered keys,
//! arrays, strings with full escape handling (including `\uXXXX` and
//! surrogate pairs), `i64` integers, finite floats, booleans and `null`.
//!
//! Every JSON document the stack writes is built as a [`Json`] value and
//! printed here, so there is one string escaper, one number spelling and
//! one layout policy:
//!
//! * [`Json::encode`] — compact, no insignificant whitespace: the
//!   `mwl_serve` wire protocol, one message per line.
//! * [`Json::encode_pretty`] — the layout of the committed report files
//!   (the batch report, the `BENCH_*.json` gates, Chrome traces).
//!
//! Floats print in their shortest round-trip form; a writer that wants
//! fewer digits rounds through [`rounded`] first.
//!
//! Parsing is strict: a [`Json::parse`] call must consume the entire input
//! (ignoring surrounding whitespace) or it fails — a half-valid line is a
//! protocol error, not a prefix.  Nesting is bounded by [`MAX_DEPTH`], so a
//! hostile document cannot exhaust the parsing thread's stack.

use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
///
/// Legitimate documents nest at most four deep (a submit's
/// `graph → edges → [from, to]`); anything past this bound is rejected
/// with a [`JsonError`] instead of recursing further.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map), so a
/// value printed with [`Json::encode`] round-trips byte-identically —
/// the property the service's determinism guarantees are built on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the protocol's only numeric type).
    Int(i64),
    /// A finite floating-point number (measurements in report files).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing content is an error).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Prints the value as compact JSON (no insignificant whitespace).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out, ",", ":");
        out
    }

    /// Prints the value in the layout of the workspace's report files,
    /// with a trailing newline.
    ///
    /// A root object puts each member on its own line at a 2-space
    /// indent, and an array member of the root puts each element on its
    /// own line at a 4-space indent.  Everything below that is printed
    /// inline with `", "` and `": "` separators.  A root that is not an
    /// object prints inline.
    #[must_use]
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        let Json::Object(pairs) = self else {
            self.encode_into(&mut out, ", ", ": ");
            out.push('\n');
            return out;
        };
        out.push_str("{\n");
        for (i, (key, value)) in pairs.iter().enumerate() {
            out.push_str("  ");
            encode_string(key, &mut out);
            out.push_str(": ");
            if let Json::Array(items) = value {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    item.encode_into(&mut out, ", ", ": ");
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            } else {
                value.encode_into(&mut out, ", ", ": ");
            }
            out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    fn encode_into(&self, out: &mut String, comma: &str, colon: &str) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(x) => {
                // `{:?}` prints the shortest representation that round-trips;
                // non-finite values have no JSON spelling and become null.
                if x.is_finite() {
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => encode_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    item.encode_into(out, comma, colon);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    encode_string(key, out);
                    out.push_str(colon);
                    value.encode_into(out, comma, colon);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// `x` rounded to `decimals` places, as a [`Json::Float`]: the one way a
/// writer limits the digits a measurement prints with.
///
/// ```
/// use mwl_obs::json::{rounded, Json};
///
/// assert_eq!(rounded(5.3801, 3).encode(), "5.38");
/// assert_eq!(rounded(2.0, 1), Json::Float(2.0));
/// ```
#[must_use]
pub fn rounded(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Float((x * scale).round() / scale)
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Unsigned counts; values above `i64::MAX` saturate, and no count or
/// counter gets there.
macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(u: $t) -> Self {
                Json::Int(i64::try_from(u).unwrap_or(i64::MAX))
            }
        }
    )*};
}
from_unsigned!(u32, u64, usize);

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

/// `None` prints as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

/// Collects values into a [`Json::Array`].
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// Escapes and quotes a string: the workspace's only JSON string escaper.
fn encode_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    };
                    self.pos += 1;
                    out.push(escaped);
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("raw control character in string"));
                }
                Some(_) => {
                    // One whole character: `pos` only ever advances past
                    // complete characters, so it sits on a char boundary.
                    let rest = self.input.get(self.pos..).unwrap_or_default();
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the `XXXX` after `\\u`, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xDC00..=0xDFFF).contains(&unit) {
            return Err(self.error("unpaired low surrogate"));
        }
        if !(0xD800..=0xDBFF).contains(&unit) {
            return char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape"));
        }
        // High surrogate: a \uXXXX low surrogate must follow to form one
        // supplementary character.
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return Err(self.error("unpaired high surrogate"));
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xDC00..=0xDFFF).contains(&low) {
            return Err(self.error("invalid low surrogate"));
        }
        let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.input[start..self.pos];
        if is_float {
            // An overflowing literal (`1e999`) has no finite value and no
            // encoding to round-trip through, so it is out of range.
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Json::Float(x)),
                Ok(_) => Err(self.error("number out of range")),
                Err(_) => Err(self.error("invalid number")),
            }
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.error("integer out of range"))
        }
    }
}

/// Convenience: an object builder preserving insertion order.
#[derive(Debug, Default)]
pub struct ObjectBuilder(Vec<(String, Json)>);

impl ObjectBuilder {
    /// Creates an empty object builder.
    #[must_use]
    pub fn new() -> Self {
        ObjectBuilder(Vec::new())
    }

    /// Appends a field of any type with a [`Json`] conversion.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Object(self.0)
    }
}

/// An artifact check in progress: reads a parsed document by dotted path
/// (object keys and array indices, `"arms.0.total_area"`; `""` is the
/// document itself) and collects every violated assertion as a
/// `"path: message"` string, so one run reports all of them.
///
/// The readers are lenient, so a missing or mistyped field fails the
/// assertion that reads it instead of stopping the check: a number reads
/// as NaN (every comparison with it is false), a string as `""`, an array
/// as empty.  [`Check::each`] records a missing array as a violation.
///
/// ```
/// use mwl_obs::json::{Check, Json};
///
/// let doc = Json::parse(r#"{"jobs": {"ok": 3, "failed": 1}}"#).unwrap();
/// let mut c = Check::new(&doc);
/// c.positive("jobs.ok");
/// c.is("jobs.failed", 0u64);
/// assert_eq!(c.finish(), ["jobs.failed: expected 0, found 1"]);
/// ```
#[derive(Debug)]
pub struct Check<'a> {
    doc: &'a Json,
    violations: Vec<String>,
}

impl<'a> Check<'a> {
    /// Starts a check of `doc`.
    #[must_use]
    pub fn new(doc: &'a Json) -> Self {
        Check {
            doc,
            violations: Vec::new(),
        }
    }

    /// The value at `path`.
    #[must_use]
    pub fn value(&self, path: &str) -> Option<&'a Json> {
        let mut keys = path.split('.').filter(|key| !key.is_empty());
        keys.try_fold(self.doc, |value, key| match value {
            Json::Array(items) => items.get(key.parse::<usize>().ok()?),
            _ => value.get(key),
        })
    }

    /// The number at `path`, or NaN.
    #[must_use]
    pub fn num(&self, path: &str) -> f64 {
        match self.value(path) {
            Some(Json::Int(i)) => *i as f64,
            Some(Json::Float(x)) => *x,
            _ => f64::NAN,
        }
    }

    /// The string at `path`, or `""`.
    #[must_use]
    pub fn text(&self, path: &str) -> &'a str {
        self.value(path).and_then(Json::as_str).unwrap_or("")
    }

    /// The values of `key` in the elements of the array at `path` that
    /// have it.
    #[must_use]
    pub fn column(&self, path: &str, key: &str) -> Vec<Json> {
        let items = self
            .value(path)
            .and_then(Json::as_array)
            .unwrap_or_default();
        items
            .iter()
            .filter_map(|item| item.get(key))
            .cloned()
            .collect()
    }

    /// Records `message` against `path` unless `ok`.
    pub fn require(&mut self, ok: bool, path: &str, message: &str) {
        if !ok {
            self.violations.push(format!("{path}: {message}"));
        }
    }

    /// Requires the value at `path` to equal `expected`; numbers compare
    /// by value, so `1` equals `1.0`.
    pub fn is(&mut self, path: &str, expected: impl Into<Json>) {
        let expected = expected.into();
        let found = self.value(path);
        let same = match expected {
            Json::Int(_) | Json::Float(_) => self.num(path) == Check::new(&expected).num(""),
            _ => found == Some(&expected),
        };
        let found = found.map_or_else(|| "nothing".to_string(), Json::encode);
        let message = format!("expected {}, found {found}", expected.encode());
        self.require(same, path, &message);
    }

    /// Requires the number at `path` to be positive.
    pub fn positive(&mut self, path: &str) {
        let found = self.num(path);
        self.require(found > 0.0, path, &format!("{found} is not positive"));
    }

    /// Requires the value at `path` to be a finite number.
    pub fn number(&mut self, path: &str) {
        let found = self.num(path);
        self.require(found.is_finite(), path, "not a number");
    }

    /// Requires the number at `path` to be at least `min`.
    pub fn at_least(&mut self, path: &str, min: f64) {
        let found = self.num(path);
        self.require(found >= min, path, &format!("{found} is below {min}"));
    }

    /// Requires the number at `path` to equal the number at `other`.
    pub fn same(&mut self, path: &str, other: &str) {
        let (a, b) = (self.num(path), self.num(other));
        self.require(a == b, path, &format!("{a} differs from {other} = {b}"));
    }

    /// Requires the object at `path` to have exactly the keys `keys`, in
    /// any order.
    pub fn keys(&mut self, path: &str, keys: &[&str]) {
        let found: Vec<&str> = match self.value(path) {
            Some(Json::Object(pairs)) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        let ok = found.len() == keys.len() && keys.iter().all(|k| found.contains(k));
        self.require(ok, path, &format!("keys {found:?} are not {keys:?}"));
    }

    /// Requires the value at `path` to be an array and runs `check` on
    /// every element, recording its violations under `path[i]`.
    pub fn each(&mut self, path: &str, check: impl Fn(&mut Check<'a>)) {
        let items = self.value(path).and_then(Json::as_array);
        self.require(items.is_some(), path, "not an array");
        for (i, item) in items.unwrap_or_default().iter().enumerate() {
            let mut row = Check::new(item);
            check(&mut row);
            let found = row.violations.into_iter().map(|v| {
                let dot = if v.starts_with(':') { "" } else { "." };
                format!("{path}[{i}]{dot}{v}")
            });
            self.violations.extend(found);
        }
    }

    /// The violated assertions, in the order they were checked.
    #[must_use]
    pub fn finish(self) -> Vec<String> {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_requires_an_array_and_indexes_its_violations() {
        let doc = Json::parse(r#"{"rows": [{"n": 1}, {"n": 0}], "one": {"n": 1}}"#).unwrap();
        let mut c = Check::new(&doc);
        c.each("rows", |row| row.positive("n"));
        c.each("one", |row| row.positive("n"));
        c.each("gone", |row| row.positive("n"));
        let expected = [
            "rows[1].n: 0 is not positive",
            "one: not an array",
            "gone: not an array",
        ];
        assert_eq!(c.finish(), expected);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"d"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(vec![]));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line\nquote\"back\\slash\ttab\u{1}control\u{1F600}emoji";
        let encoded = Json::Str(original.to_string()).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(original));
        assert_eq!(Json::from("a\nb\u{1}").encode(), r#""a\nb\u0001""#);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dx""#).is_err());
        assert!(Json::parse(r#""\ud83d\u0041""#).is_err());
        assert!(Json::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\x\"",
            "\"unterminated",
            "nul",
            "01a",
            "9223372036854775808",
            "1e999",
            "-1e400",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn encode_is_parse_inverse_on_protocol_values() {
        let value = ObjectBuilder::new()
            .field("type", "submit")
            .field("id", 7u64)
            .field("ok", true)
            .field("xs", Json::Array(vec![Json::Int(1), Json::Null]))
            .build();
        let encoded = value.encode();
        assert_eq!(Json::parse(&encoded).unwrap(), value);
        assert_eq!(Json::parse(&encoded).unwrap().encode(), encoded);
    }

    #[test]
    fn i64_boundaries_round_trip() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let encoded = Json::Int(v).encode();
            assert_eq!(Json::parse(&encoded).unwrap(), Json::Int(v));
        }
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn a_million_open_brackets_fail_without_recursing() {
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn pretty_layout_matches_the_report_files() {
        let value = ObjectBuilder::new()
            .field("schema", "s")
            .field("speedup", rounded(5.380_4, 3))
            .field("limit", 0.05)
            .field("target", 6.0)
            .field("missing", None::<u64>)
            .field(
                "block",
                ObjectBuilder::new()
                    .field("xs", [1u64, 2, 4].into_iter().collect::<Json>())
                    .field("empty", Json::Object(vec![]))
                    .build(),
            )
            .field(
                "rows",
                [1u64, 2]
                    .into_iter()
                    .map(|w| ObjectBuilder::new().field("workers", w).build())
                    .collect::<Json>(),
            )
            .field("none", Json::Array(vec![]))
            .build();
        assert_eq!(
            value.encode_pretty(),
            "{\n  \"schema\": \"s\",\n  \"speedup\": 5.38,\n  \"limit\": 0.05,\n  \
             \"target\": 6.0,\n  \"missing\": null,\n  \
             \"block\": {\"xs\": [1, 2, 4], \"empty\": {}},\n  \"rows\": [\n    \
             {\"workers\": 1},\n    {\"workers\": 2}\n  ],\n  \"none\": [\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&value.encode_pretty()).unwrap(), value);
        assert_eq!(Json::Int(3).encode_pretty(), "3\n");
    }

    #[test]
    fn floats_print_shortest_round_trip() {
        for (x, text) in [(2.5, "2.5"), (1.0, "1.0"), (0.020_96, "0.02096")] {
            assert_eq!(Json::Float(x).encode(), text);
            assert_eq!(Json::parse(text).unwrap(), Json::Float(x));
        }
        assert_eq!(rounded(2_347.689_4, 3).encode(), "2347.689");
        assert_eq!(rounded(0.468_64, 4).encode(), "0.4686");
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
    }
}
