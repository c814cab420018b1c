//! A minimal, dependency-free JSON value, writer, and parser.
//!
//! The workspace builds offline, so `serde_json` is unavailable; every
//! observability artifact (metrics snapshots, trace lines, flight
//! recorder files) is encoded and decoded by this module instead. The
//! subset is deliberately small but *closed*: everything [`Json::render`]
//! emits, [`parse`] reads back to an equal value, with integers kept
//! exact ([`Json::Int`] is `i128`, wide enough for any `u64` seed) and
//! floats reserved for genuinely fractional measurements.

use core::fmt;

/// A parsed or to-be-rendered JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction, no exponent), kept exact.
    Int(i128),
    /// A fractional or exponent-bearing number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, with insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Move the value under `key` out of an object, removing the field,
    /// so a large payload changes hands without a deep copy.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => {
                let at = fields.iter().position(|(k, _)| k == key)?;
                Some(fields.remove(at).1)
            }
            _ => None,
        }
    }

    /// This value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// This value as a `usize`, if it is a non-negative integer in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the compact rendering to `out`, so a caller can frame a
    /// value without first copying it into an enclosing object.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let text = format!("{f}");
                    out.push_str(&text);
                    // `{}` on a whole f64 prints no dot; keep a marker
                    // so the round trip preserves the variant.
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The offset of the first byte of `bytes` equal to one of `stops` or
/// below `below` (at most 0x80; 0 for none), testing 8 bytes per step
/// in a `u64`. A byte `b` is below `n` when `b - n` borrows into its
/// clear high bit, and equals `c` when `b ^ c` is below 1; a borrow
/// only runs upwards from a truly flagged byte, so the lowest flag of a
/// word is exact. The tail is a zero-padded word, its padding masked.
pub fn scan<const N: usize>(bytes: &[u8], stops: [u8; N], below: u8) -> Option<usize> {
    const LO: u64 = u64::from_ne_bytes([0x01; 8]);
    let lt = |w: u64, n: u8| w.wrapping_sub(LO * u64::from(n)) & !w & (LO << 7);
    let flags = |w| stops.iter().fold(lt(w, below), |m, &c| m | lt(w ^ (LO * u64::from(c)), 1));
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let m = flags(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        if m != 0 {
            return Some(8 * i + m.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let word = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
    let m = flags(word) & !(u64::MAX << (8 * tail.len()));
    (m != 0).then(|| bytes.len() - tail.len() + m.trailing_zeros() as usize / 8)
}

/// Append `s` to `out` as a quoted, escaped JSON string. Each run of
/// bytes that needs no escape is found by [`scan`] and copied with one
/// `push_str`.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    while let Some(len) = scan(&s.as_bytes()[run..], [b'"', b'\\'], 0x20) {
        // The byte is ASCII, so `i` is a char boundary.
        let i = run + len;
        out.push_str(&s[run..i]);
        match s.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{b:04x}"));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Why a parse failed: a message and the byte offset it refers to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON value from `input` (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`JsonError`] on malformed input.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one
            // go: both are ASCII, so the run ends on a char boundary.
            let Some(len) = scan(&self.bytes[self.pos..], [b'"', b'\\'], 0) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            let end = self.pos + len;
            out.push_str(&self.text[self.pos..end]);
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(out);
            }
            let Some(e) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let cp = self.hex4()?;
                    // Surrogate pairs: combine a high surrogate with
                    // the following \uXXXX low surrogate.
                    let c = if (0xD800..0xDC00).contains(&cp) {
                        if self.bytes[self.pos..].starts_with(b"\\u") {
                            self.pos += 2;
                            let lo = self.hex4()?;
                            let combined =
                                0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF);
                            char::from_u32(combined)
                        } else {
                            None
                        }
                    } else {
                        char::from_u32(cp)
                    };
                    out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                }
                _ => return Err(self.err("invalid escape character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if fractional {
            text.parse::<f64>().map(Json::Float).map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>().map(Json::Int).map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(u64::MAX as i128),
            Json::Float(1.5),
            Json::Str("he\"ll\\o\nworld".to_string()),
            Json::Str("π ≠ ⊥".to_string()),
        ] {
            assert_eq!(parse(&v.render()).unwrap(), v, "{}", v.render());
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = Json::Obj(vec![
            ("a".to_string(), Json::Arr(vec![Json::Int(1), Json::Null, Json::Bool(false)])),
            ("nested".to_string(), Json::Obj(vec![("x".to_string(), Json::Float(0.25))])),
            ("empty".to_string(), Json::Arr(Vec::new())),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = u64::MAX - 3;
        let v = Json::Obj(vec![("seed".to_string(), Json::Int(seed as i128))]);
        let back = parse(&v.render()).unwrap();
        assert_eq!(back.get("seed").and_then(Json::as_u64), Some(seed));
    }

    #[test]
    fn whole_floats_stay_floats() {
        let v = Json::Float(3.0);
        let rendered = v.render();
        assert!(rendered.contains('.'), "{rendered}");
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "name": "cas", "xs": [1, 2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("cas"));
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_position() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\"", "nulll"] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn remove_moves_a_field_out_of_an_object() {
        let mut v = parse(r#"{"a": [1, 2], "b": "x"}"#).unwrap();
        assert_eq!(v.remove("a"), Some(Json::Arr(vec![Json::Int(1), Json::Int(2)])));
        assert_eq!(v.remove("a"), None);
        assert_eq!(v.render(), r#"{"b":"x"}"#);
        assert_eq!(Json::Int(1).remove("a"), None);
    }

    /// The per-character writer `write_escaped` replaced: the oracle
    /// its output must match byte for byte.
    fn write_escaped_per_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Fragments whose concatenations put quotes, backslashes, control
    /// characters and multi-byte UTF-8 at the edges of escape-free runs.
    const PIECES: &[&str] = &[
        "a", "xyz", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "/", "é", "π≠⊥",
        "😀", "\u{10ffff}", "\u{fffd}", " ",
    ];

    proptest::proptest! {
        /// Rendering is byte-identical to the per-character writer and
        /// parses back to the same string; the same string with some
        /// characters spelled as `\u` escapes (astral ones as surrogate
        /// pairs) parses back too.
        #[test]
        fn strings_round_trip_through_the_run_copying_codec(
            lead in 0..=17usize,
            pieces in proptest::collection::vec(proptest::sample::select(PIECES.to_vec()), 0..24),
            spell_mask in proptest::prelude::any::<u64>(),
        ) {
            // A lead of plain bytes moves every piece across the scan's
            // 8-byte word edges.
            let s = " ".repeat(lead) + &pieces.concat();
            let mut fast = String::new();
            write_escaped(&s, &mut fast);
            let mut oracle = String::new();
            write_escaped_per_char(&s, &mut oracle);
            proptest::prop_assert_eq!(&fast, &oracle);
            proptest::prop_assert_eq!(parse(&fast).unwrap(), Json::Str(s.clone()));

            let mut spelled = String::from("\"");
            for (i, c) in s.chars().enumerate() {
                if spell_mask >> (i % 64) & 1 == 1 {
                    for unit in c.encode_utf16(&mut [0u16; 2]) {
                        let _ = fmt::Write::write_fmt(&mut spelled, format_args!("\\u{unit:04x}"));
                    }
                } else {
                    let mut one = String::new();
                    write_escaped_per_char(c.encode_utf8(&mut [0u8; 4]), &mut one);
                    spelled.push_str(&one[1..one.len() - 1]);
                }
            }
            spelled.push('"');
            proptest::prop_assert_eq!(parse(&spelled).unwrap(), Json::Str(s));
        }
    }

    /// `len` bytes of characters no scan stops at: 0x20, 0x7f, `#` and
    /// `]` (one bit away from `"` and `\`), and the two-byte `é`, whose
    /// bytes both have the high bit set.
    fn plain(len: usize) -> String {
        let mut s = String::new();
        for c in [' ', '#', '\u{7f}', ']', 'é'].into_iter().cycle() {
            if s.len() == len {
                break;
            }
            s.push(if s.len() + c.len_utf8() > len { ' ' } else { c });
        }
        s
    }

    #[test]
    fn specials_are_found_at_every_offset_of_the_scan_words() {
        for len in 0..=40 {
            assert_eq!(scan(plain(len).as_bytes(), [b'"', b'\\'], 0x20), None, "{len}");
            for special in ['"', '\\', '\u{0}', '\u{1f}'] {
                for at in (0..=17).filter(|&at| at < len) {
                    let s = plain(at) + &special.to_string() + &plain(len - at - 1);
                    let quote_or_backslash = special == '"' || special == '\\';
                    let want = quote_or_backslash.then_some(at);
                    assert_eq!(scan(s.as_bytes(), [b'"', b'\\'], 0), want, "{special:?} at {at}");
                    assert_eq!(scan(s.as_bytes(), [b'"', b'\\'], 0x20), Some(at), "{special:?}");
                    let mut fast = String::new();
                    write_escaped(&s, &mut fast);
                    let mut oracle = String::new();
                    write_escaped_per_char(&s, &mut oracle);
                    assert_eq!(fast, oracle, "{special:?} at {at} of {len}");
                    assert_eq!(parse(&fast).unwrap(), Json::Str(s));
                }
            }
        }
    }

    #[test]
    fn an_unterminated_string_fails_at_its_end_at_every_word_offset() {
        for k in 0..3 {
            for r in 0..8 {
                let body = plain(8 * k + r);
                let err = parse(&format!("\"{body}")).expect_err("unterminated");
                assert_eq!((err.message.as_str(), err.at), ("unterminated string", body.len() + 1));
                let err = parse(&format!("\"{body}\\")).expect_err("unterminated escape");
                assert_eq!((err.message.as_str(), err.at), ("unterminated escape", body.len() + 2));
            }
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Json::Str("Aé".to_string()));
        // A surrogate pair (😀).
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".to_string()));
    }
}
