//! The `/v1/predict` body decoder: one pass over the bytes, straight into
//! the flat row-major shape that validation and execution consume.
//!
//! [`decode_predict`] accepts exactly the bodies the serde path
//! (`serde_json::from_slice::<PredictRequest>`) accepts, with the same
//! result and the same error messages. That includes the vendored JSON
//! reader's leniencies:
//!
//! - the body is checked for UTF-8 once, up front;
//! - leading zeros (`007`), and integral floats (`3.0`, `1e2`, `-0`) read
//!   as codes;
//! - the first of duplicate keys wins, and `null` reads as absent;
//! - unknown keys are skipped at any depth up to [`MAX_DEPTH`], which
//!   counts every value, scalars included;
//! - all syntax errors come before type errors, which are reported in
//!   field order (`model`, `rows`, `rows_raw`), not body order.
//!
//! Nothing here builds a `serde::Value`, a per-row `Vec` or a per-cell
//! `String`: codes are written into one `Vec<u32>`, labels and the model
//! name are borrowed from the body, and only a string with escapes is
//! unescaped into an owned copy.

use std::borrow::Cow;

use hamlet_ml::contract::FlatRows;
use serde::value::Number;

use crate::error::ServeError;

/// Nesting cap, the vendored JSON reader's: the top-level value is depth
/// 1 and every value inside a container is one deeper.
pub const MAX_DEPTH: usize = 128;

/// A `/v1/predict` body decoded by [`decode_predict`]: the wire shape of
/// [`super::PredictRequest`] with its rows already flat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictBody<'a> {
    /// Registry name or pinned key; borrowed unless it has escapes.
    pub model: Cow<'a, str>,
    /// `rows`: the codes, row-major, with each row's width.
    pub rows: Option<FlatRows<u32>>,
    /// `rows_raw`: the labels, row-major, each borrowed from the body
    /// unless it has escapes.
    pub rows_raw: Option<FlatRows<Cow<'a, str>>>,
}

/// Decodes a `/v1/predict` body in one pass (see the module docs for what
/// it accepts). Every error is a [`ServeError::BadRequest`]; a syntax
/// error names its byte offset.
pub fn decode_predict(body: &[u8]) -> Result<PredictBody<'_>, ServeError> {
    let text = std::str::from_utf8(body).map_err(|e| bad(format!("invalid UTF-8: {e}")))?;
    let mut s = Scanner {
        text,
        bytes: body,
        pos: 0,
        depth: 0,
    };
    let fields = s
        .body()
        .map_err(|Syntax { what, pos }| bad(format!("{what} at byte {pos}")))?;
    let fields = fields.map_err(|kind| {
        bad(format!(
            "expected object for PredictRequest, got {}",
            kind.name()
        ))
    })?;
    let model = match fields.model {
        Some(Ok(model)) => model,
        Some(Err(kind)) => return Err(mismatch("model", ("string", kind))),
        None => return Err(mismatch("model", ("string", Kind::Null))),
    };
    Ok(PredictBody {
        model,
        rows: fields
            .rows
            .unwrap_or(Ok(None))
            .map_err(|m| mismatch("rows", m))?,
        rows_raw: fields
            .rows_raw
            .unwrap_or(Ok(None))
            .map_err(|m| mismatch("rows_raw", m))?,
    })
}

fn bad(msg: String) -> ServeError {
    ServeError::BadRequest(msg)
}

fn mismatch(field: &str, (expected, got): Mismatch) -> ServeError {
    bad(format!("{field}: expected {expected}, got {}", got.name()))
}

/// The JSON kind of a value, named as type errors name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// A field's first type error: the expected type and the kind found.
type Mismatch = (&'static str, Kind);

/// A field's decoded value, or its first type error.
type Decoded<T> = Result<Option<FlatRows<T>>, Mismatch>;

/// The three known keys, each from its first occurrence (`None` = absent).
#[derive(Default)]
struct Fields<'a> {
    model: Option<Result<Cow<'a, str>, Kind>>,
    rows: Option<Decoded<u32>>,
    rows_raw: Option<Decoded<Cow<'a, str>>>,
}

/// A syntax error: what the reader expected, and the byte offset where.
struct Syntax {
    what: &'static str,
    pos: usize,
}

/// A scan result; a type error found inside is part of the `Ok` value.
type Scan<T> = Result<T, Syntax>;

/// What `rows` (codes) and `rows_raw` (labels) hold.
trait Cell<'a>: Sized {
    /// The type name type errors use.
    const EXPECTED: &'static str;
    /// The common case (a short plain code, a label without escapes),
    /// read without error plumbing; `None`, with nothing consumed, when
    /// the next value needs [`Cell::read`].
    fn plain(s: &mut Scanner<'a>) -> Option<Self>;
    /// Any value in a cell's place: a cell, or the kind found instead.
    /// Cells sit at depth 4, so only a container here opens a level that
    /// counts against [`MAX_DEPTH`].
    fn read(s: &mut Scanner<'a>) -> Scan<Result<Self, Kind>>;
}

impl<'a> Cell<'a> for u32 {
    const EXPECTED: &'static str = "u32";

    fn plain(s: &mut Scanner<'a>) -> Option<Self> {
        s.plain_code()
    }

    fn read(s: &mut Scanner<'a>) -> Scan<Result<Self, Kind>> {
        s.code()
    }
}

impl<'a> Cell<'a> for Cow<'a, str> {
    const EXPECTED: &'static str = "string";

    fn plain(s: &mut Scanner<'a>) -> Option<Self> {
        s.plain_label()
    }

    fn read(s: &mut Scanner<'a>) -> Scan<Result<Self, Kind>> {
        s.label()
    }
}

struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Scanner<'a> {
    fn err(&self, what: &'static str) -> Syntax {
        Syntax {
            what,
            pos: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `lit`, or fails with `what` where it should start.
    fn literal(&mut self, lit: &[u8], what: &'static str) -> Scan<()> {
        if !self.bytes[self.pos..].starts_with(lit) {
            return Err(self.err(what));
        }
        self.pos += lit.len();
        Ok(())
    }

    /// Opens one value's nesting level (every value has one).
    fn enter(&mut self) -> Scan<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    /// The whole body: the known keys of a top-level object, or the kind
    /// of any other value.
    fn body(&mut self) -> Scan<Result<Fields<'a>, Kind>> {
        self.skip_ws();
        self.enter()?;
        let top = if self.peek() == Some(b'{') {
            self.pos += 1;
            let mut fields = Fields::default();
            self.seq(b'}', |s| {
                let key = s.key()?;
                match &*key {
                    "model" if fields.model.is_none() => fields.model = Some(s.label()?),
                    "rows" if fields.rows.is_none() => {
                        // Each code takes a digit and a separator at least,
                        // so this holds every code the body can carry.
                        let most = (s.bytes.len() - s.pos) / 2 + 1;
                        fields.rows = Some(s.rows(most)?);
                    }
                    "rows_raw" if fields.rows_raw.is_none() => {
                        fields.rows_raw = Some(s.rows(0)?);
                    }
                    _ => {
                        s.value()?;
                    }
                }
                Ok(())
            })?;
            Ok(fields)
        } else {
            Err(self.value_inner()?)
        };
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(top)
    }

    /// The items of an array or object whose opening bracket was just
    /// consumed, up to and including `close`.
    fn seq(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Scan<()>) -> Scan<()> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ if close == b']' => return Err(self.err("expected ',' or ']'")),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// An object key and its `:`, leaving the scanner at the value.
    fn key(&mut self) -> Scan<Cow<'a, str>> {
        let key = self.string()?;
        self.skip_ws();
        self.literal(b":", "expected ':'")?;
        self.skip_ws();
        Ok(key)
    }

    /// `rows`/`rows_raw`: `null`, or an array of arrays of cells, read
    /// into a buffer of `capacity`. After the first type error the rest is
    /// only checked for syntax.
    fn rows<T: Cell<'a>>(&mut self, capacity: usize) -> Scan<Decoded<T>> {
        self.enter()?;
        if self.peek() != Some(b'[') {
            let kind = self.value_inner()?;
            self.depth -= 1;
            return Ok(match kind {
                Kind::Null => Ok(None),
                kind => Err(("array", kind)),
            });
        }
        self.pos += 1;
        let mut rows = FlatRows {
            cells: Vec::with_capacity(capacity),
            widths: Vec::new(),
        };
        let mut first_bad: Option<Mismatch> = None;
        self.seq(b']', |s| {
            s.enter()?;
            if s.peek() != Some(b'[') {
                let kind = s.value_inner()?;
                first_bad.get_or_insert(("array", kind));
            } else {
                s.pos += 1;
                let start = rows.cells.len();
                if first_bad.is_some() || !s.plain_row(&mut rows.cells) {
                    s.seq(b']', |s| {
                        if first_bad.is_none() {
                            if let Some(value) = T::plain(s) {
                                rows.cells.push(value);
                                return Ok(());
                            }
                        }
                        match T::read(s)? {
                            Ok(value) if first_bad.is_none() => rows.cells.push(value),
                            Ok(_) => {}
                            Err(kind) => {
                                first_bad.get_or_insert((T::EXPECTED, kind));
                            }
                        }
                        Ok(())
                    })?;
                }
                if first_bad.is_none() {
                    rows.widths.push(rows.cells.len() - start);
                }
            }
            s.depth -= 1;
            Ok(())
        })?;
        self.depth -= 1;
        Ok(match first_bad {
            Some(m) => Err(m),
            None => Ok(Some(rows)),
        })
    }

    /// The common row: plain cells separated by bare commas, through the
    /// closing `]`. Pushes its cells and returns true; otherwise consumes
    /// nothing, leaves `cells` as it was and returns false.
    fn plain_row<T: Cell<'a>>(&mut self, cells: &mut Vec<T>) -> bool {
        let (mark, len) = (self.pos, cells.len());
        while let Some(cell) = T::plain(self) {
            cells.push(cell);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return true;
                }
                _ => break,
            }
        }
        cells.truncate(len);
        self.pos = mark;
        false
    }

    /// A code of up to nine plain digits that ends its number, or `None`,
    /// with nothing consumed, for any other value.
    fn plain_code(&mut self) -> Option<u32> {
        let start = self.pos;
        let mut code = 0u32;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            code = code.wrapping_mul(10).wrapping_add(u32::from(b - b'0'));
            self.pos += 1;
        }
        if matches!(self.pos - start, 1..=9) && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Some(code);
        }
        self.pos = start;
        None
    }

    /// A string without escapes, or `None`, with nothing consumed, for any
    /// other value.
    fn plain_label(&mut self) -> Option<Cow<'a, str>> {
        if self.peek() != Some(b'"') {
            return None;
        }
        let start = self.pos + 1;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        if self.bytes[start + len] != b'"' {
            return None;
        }
        self.pos = start + len + 1;
        Some(Cow::Borrowed(&self.text[start..start + len]))
    }

    /// A value in a code's place: a number that is an integer in `u32`
    /// range, or the kind found instead.
    fn code(&mut self) -> Scan<Result<u32, Kind>> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => Ok(self.number()?.ok_or(Kind::Number)),
            _ => Ok(Err(self.value()?)),
        }
    }

    /// A value in a label's (or the model name's) place: a string, or the
    /// kind found instead.
    fn label(&mut self) -> Scan<Result<Cow<'a, str>, Kind>> {
        match self.peek() {
            Some(b'"') => Ok(Ok(self.string()?)),
            _ => Ok(Err(self.value()?)),
        }
    }

    /// Any value, checked for syntax and skipped.
    fn value(&mut self) -> Scan<Kind> {
        self.enter()?;
        let kind = self.value_inner()?;
        self.depth -= 1;
        Ok(kind)
    }

    /// Any value below the current nesting level, checked for syntax and
    /// skipped; returns its kind.
    fn value_inner(&mut self) -> Scan<Kind> {
        match self.peek() {
            Some(b'n') => self
                .literal(b"null", "expected `null`")
                .map(|()| Kind::Null),
            Some(b't') => self
                .literal(b"true", "expected `true`")
                .map(|()| Kind::Bool),
            Some(b'f') => self
                .literal(b"false", "expected `false`")
                .map(|()| Kind::Bool),
            Some(b'"') => self.string().map(|_| Kind::String),
            Some(b'[') => {
                self.pos += 1;
                self.seq(b']', |s| s.value().map(drop))?;
                Ok(Kind::Array)
            }
            Some(b'{') => {
                self.pos += 1;
                self.seq(b'}', |s| {
                    s.key()?;
                    s.value().map(drop)
                })?;
                Ok(Kind::Object)
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| Kind::Number),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A number token, read like the vendored reader reads it: `-`?
    /// digits\* (`.` digits\*)? (`e` [`+-`]? digits\*)?, then parsed as
    /// `u64`, `i64` or `f64` in that order (`f64` only once it has a `.`
    /// or an exponent). Returns the value when it is an integer in `u32`
    /// range, as a `u32` field would deserialize it.
    fn number(&mut self) -> Scan<Option<u32>> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.text[start..self.pos];
        let int = if is_float {
            None
        } else {
            text.parse()
                .map(Number::UInt)
                .or_else(|_| text.parse().map(Number::Int))
                .ok()
        };
        let number = match int {
            Some(n) => n,
            None => Number::Float(text.parse().map_err(|_| self.err("invalid number"))?),
        };
        Ok(number.as_u64().and_then(|u| u32::try_from(u).ok()))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// A string, borrowed from the body unless it has escapes.
    fn string(&mut self) -> Scan<Cow<'a, str>> {
        self.literal(b"\"", "expected '\"'")?;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // The body is valid UTF-8 and quotes and backslashes are ASCII,
            // so every slice below falls on character boundaries.
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    let tail = &self.text[run..self.pos - 1];
                    return Ok(match owned {
                        None => Cow::Borrowed(&self.text[start..self.pos - 1]),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(_) => {
                    let run = &self.text[run..self.pos];
                    self.pos += 1;
                    let c = self.escape()?;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(c);
                }
            }
        }
    }

    /// The character of an escape whose backslash was just consumed.
    fn escape(&mut self) -> Scan<char> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    self.literal(b"\\u", "expected `\\u`")?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    /// The four bytes after `\u`, read with `u32::from_str_radix` as the
    /// vendored reader reads them (so `+41` passes for `0041`).
    fn hex4(&mut self) -> Scan<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let code = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

/// One test per accepted-grammar quirk, each run through [`decode_predict`]
/// and the serde reference (`serde_json::from_slice::<PredictRequest>`),
/// so a swap of the JSON reader shows exactly which behaviours differ.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PredictRequest;

    /// The nested shape both decoders are compared in.
    type Nested = (String, Option<Vec<Vec<u32>>>, Option<Vec<Vec<String>>>);

    fn nested(body: PredictBody<'_>) -> Nested {
        let rows_raw = body.rows_raw.map(|raw| {
            raw.rows()
                .map(|row| row.iter().map(|l| l.to_string()).collect())
                .collect()
        });
        let rows = body
            .rows
            .map(|rows| rows.rows().map(<[u32]>::to_vec).collect());
        (body.model.into_owned(), rows, rows_raw)
    }

    /// Decodes `body` both ways, asserts the two agree (value or error
    /// message), and returns the result.
    fn both(body: impl AsRef<[u8]>) -> Result<Nested, String> {
        let body = body.as_ref();
        let ours = decode_predict(body).map(nested).map_err(|e| e.to_string());
        let reference = serde_json::from_slice::<PredictRequest>(body)
            .map(|r| (r.model, r.rows, r.rows_raw))
            .map_err(|e| ServeError::BadRequest(e.to_string()).to_string());
        assert_eq!(ours, reference, "body {:?}", String::from_utf8_lossy(body));
        ours
    }

    fn coded(model: &str, rows: &[&[u32]]) -> Result<Nested, String> {
        Ok((
            model.into(),
            Some(rows.iter().map(|r| r.to_vec()).collect()),
            None,
        ))
    }

    #[test]
    fn plain_bodies_decode_flat() {
        let body = decode_predict(b"{\"model\":\"m\",\"rows\":[[1,2],[],[3]]}").unwrap();
        assert!(matches!(body.model, Cow::Borrowed("m")));
        let rows = body.rows.unwrap();
        assert_eq!(rows.cells, vec![1, 2, 3]);
        assert_eq!(rows.widths, vec![2, 0, 1]);
        let body = decode_predict(b"{\"model\":\"m\",\"rows_raw\":[[\"v0\",\"x\"]]}").unwrap();
        let raw = body.rows_raw.unwrap();
        assert!(raw.cells.iter().all(|l| matches!(l, Cow::Borrowed(_))));
        assert_eq!(raw.cells, vec!["v0", "x"]);
        assert_eq!(both("{\"model\":\"m\",\"rows\":[]}"), coded("m", &[]));
    }

    #[test]
    fn leading_zeros_read_as_codes() {
        assert_eq!(
            both("{\"model\":\"m\",\"rows\":[[007,00,0,0000000000012]]}"),
            coded("m", &[&[7, 0, 0, 12]])
        );
    }

    #[test]
    fn integral_floats_read_as_codes() {
        assert_eq!(
            both("{\"model\":\"m\",\"rows\":[[3.0,1e2,1E0,-0,-0.0,0.5e1,4294967295.0,1e-400]]}"),
            coded("m", &[&[3, 100, 1, 0, 0, 5, u32::MAX, 0]])
        );
        for code in [
            "0.5",
            "-1",
            "4294967296",
            "1e10",
            "99999999999999999999",
            "1e400",
        ] {
            let err = both(format!("{{\"model\":\"m\",\"rows\":[[{code}]]}}")).unwrap_err();
            assert_eq!(err, "bad request: rows: expected u32, got number");
        }
        // A number the reader cannot parse at all is a syntax error.
        assert!(both("{\"model\":\"m\",\"rows\":[[1e]]}").is_err());
        assert!(both("{\"model\":\"m\",\"rows\":[[-]]}").is_err());
    }

    #[test]
    fn first_duplicate_key_wins() {
        assert_eq!(
            both("{\"model\":\"a\",\"rows\":[[1]],\"model\":\"b\",\"rows\":[[2]]}"),
            coded("a", &[&[1]])
        );
        // Even when the first is `null`, and whatever type the later one has.
        assert_eq!(
            both("{\"model\":\"a\",\"rows\":null,\"rows\":[[2]],\"model\":7}"),
            Ok(("a".into(), None, None))
        );
    }

    #[test]
    fn null_reads_as_absent() {
        assert_eq!(
            both("{\"model\":\"m\",\"rows\":null,\"rows_raw\":[[\"v0\"]]}"),
            Ok(("m".into(), None, Some(vec![vec!["v0".into()]])))
        );
        // Not for the model, which is required.
        assert_eq!(
            both("{\"model\":null,\"rows\":[[1]]}").unwrap_err(),
            "bad request: model: expected string, got null"
        );
        assert_eq!(
            both("{\"rows\":[[1]]}").unwrap_err(),
            "bad request: model: expected string, got null"
        );
    }

    #[test]
    fn unknown_keys_are_skipped_at_any_depth_up_to_max_depth() {
        // The object is depth 1 and the unknown key's value depth 2, so
        // 126 nested arrays put the innermost scalar at MAX_DEPTH.
        let deepest = MAX_DEPTH - 2;
        let arrays = format!("{}0{}", "[".repeat(deepest), "]".repeat(deepest));
        let objects = format!(
            "{}0{}",
            "{\"k\":[".repeat(deepest / 2),
            "]}".repeat(deepest / 2)
        );
        for value in [arrays, objects] {
            assert_eq!(
                both(format!(
                    "{{\"extra\":{value},\"model\":\"m\",\"rows\":[[1]]}}"
                )),
                coded("m", &[&[1]])
            );
        }
        assert_eq!(
            both(
                "{\"x\":{\"model\":\"inner\",\"rows\":[[\"a\"]]},\"model\":\"m\",\
                 \"y\":[true,false,null,-1.5e3,\"s\\n\"],\"rows\":[[1]],\"z\":{}}"
            ),
            coded("m", &[&[1]])
        );
    }

    #[test]
    fn depth_129_is_a_400() {
        let body = format!(
            "{{\"extra\":{}0{},\"model\":\"m\",\"rows\":[[1]]}}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        let err = both(&body).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        assert!(matches!(
            decode_predict(body.as_bytes()),
            Err(ServeError::BadRequest(_))
        ));
        // The same holds inside the rows themselves.
        let body = format!(
            "{{\"model\":\"m\",\"rows\":[[{}0{}]]}}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        assert!(both(body).unwrap_err().contains("nesting"));
    }

    #[test]
    fn escaped_model_names_and_labels_are_unescaped() {
        let got = both(
            "{\"model\":\"caf\\u00e9\",\"rows_raw\":[[\"v\\u0030\",\"\\u00e9t\\u00e9\",\
             \"\\ud83d\\ude00\",\"tab\\there\\/\\\\\\\"\"]]}",
        )
        .unwrap();
        assert_eq!(got.0, "café");
        assert_eq!(
            got.2,
            Some(vec![vec![
                "v0".into(),
                "été".into(),
                "😀".into(),
                "tab\there/\\\"".into()
            ]])
        );
        // `u32::from_str_radix` takes a sign, so the reader reads `\u+041`.
        assert_eq!(both("{\"model\":\"\\u+041\"}").unwrap().0, "A");
        // An escaped key still names its field.
        assert_eq!(
            both("{\"mod\\u0065l\":\"m\",\"rows\":[[1]]}"),
            coded("m", &[&[1]])
        );
        for bad in [
            "\\ud83d",
            "\\ud83d\\u0041",
            "\\ude00",
            "\\q",
            "\\u00g0",
            "\\u00",
        ] {
            assert!(both(format!("{{\"model\":\"{bad}\"}}")).is_err(), "{bad}");
        }
    }

    #[test]
    fn rows_before_model_and_whitespace_anywhere() {
        assert_eq!(
            both(" \r\n{ \"rows\" :\t[ [ 1 , 2 ] ,[3,4]\n] , \"model\" : \"m\" } \n"),
            coded("m", &[&[1, 2], &[3, 4]])
        );
    }

    #[test]
    fn type_errors_come_in_field_order_after_syntax_errors() {
        // `rows` comes first in the body but `model` first in the struct.
        assert_eq!(
            both("{\"rows\":[[\"x\"]],\"rows_raw\":[[1]],\"model\":5}").unwrap_err(),
            "bad request: model: expected string, got number"
        );
        assert_eq!(
            both("{\"rows_raw\":[[1]],\"rows\":[[1],2],\"model\":\"m\"}").unwrap_err(),
            "bad request: rows: expected array, got number"
        );
        assert_eq!(
            both("{\"rows_raw\":[[\"a\",{}]],\"model\":\"m\"}").unwrap_err(),
            "bad request: rows_raw: expected string, got object"
        );
        assert_eq!(
            both("[{\"model\":\"m\"}]").unwrap_err(),
            "bad request: expected object for PredictRequest, got array"
        );
        // A syntax error anywhere wins over any type error.
        assert!(both("{\"model\":5,\"rows\":[[1,]]}")
            .unwrap_err()
            .contains("at byte"));
    }

    #[test]
    fn syntax_errors_name_the_byte_offset() {
        for body in [
            "",
            "{",
            "{\"model\":\"m\",\"rows\":[[1,2]",
            "{\"model\":\"m\"} x",
            "{\"model\" \"m\"}",
            "{\"model\":\"m\",}",
            "{\"model\":nul}",
            "{\"model\":\"m",
            "{\"model\":\"m\\",
        ] {
            let err = both(body).unwrap_err();
            assert!(err.contains("at byte"), "{body}: {err}");
        }
    }

    #[test]
    fn invalid_utf8_is_a_400() {
        let mut body = b"{\"model\":\"m\",\"rows_raw\":[[\"v".to_vec();
        body.extend_from_slice(&[0xff, b'"', b']', b']', b'}']);
        let err = both(&body).unwrap_err();
        assert!(err.starts_with("bad request: invalid UTF-8"), "{err}");
        assert!(matches!(
            decode_predict(&body),
            Err(ServeError::BadRequest(_))
        ));
    }
}
