//! Wire plumbing: a JSON parser over [`dfm_bench::json::JsonValue`],
//! the field reader every protocol and spec decoder goes through
//! (`Fields`, with its `Field` types and the enum ↔ wire-name table
//! helpers), bounded line framing, hex payload transport, and the
//! FNV-1a digest the checkpoint files and report digests share.
//!
//! The parser is the read half of the workspace's hand-rolled JSON
//! story (the write half lives in [`dfm_bench::json`]). It is total:
//! any byte soup returns `Err`, never a panic — fuzzed in the wire
//! protocol tests. It reads RFC 8259 JSON and nothing looser (numbers
//! follow the grammar exactly, a `\u` escape is exactly four hex
//! digits), and it is one pass, linear in the frame: a string is copied
//! one unescaped run at a time, so a frame that is 99 % one hex string
//! costs about a `memcpy` of it. Together with [`MAX_LINE_BYTES`] that
//! bounds what one frame can cost a connection thread in time as well
//! as in memory.
//!
//! The field reader holds the wire layer's one rule: a *required*
//! field that is absent, `null` or mistyped is an error naming the
//! context, type and key; an *optional* field that is absent or `null`
//! takes its default and is an error when present but mistyped;
//! integers are exactly integral, at most 2⁵³ in magnitude (every
//! integer an f64 carries exactly) and range-checked into the target
//! type; keys no decoder asks for are ignored.

use dfm_bench::json::JsonValue;
use std::io::BufRead;

/// Maximum accepted request/response line, bytes. Big enough for a
/// multi-megabyte hex GDS upload, small enough to bound a hostile
/// connection's memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Maximum JSON nesting depth the parser follows.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document (object/array/scalar) from `s`.
///
/// # Errors
///
/// A human-readable message with a byte offset; never panics, at any
/// input.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut p = Parser {
        src: s,
        bytes,
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte 0x{c:02x} at offset {}", self.pos)),
            None => Err(format!("unexpected end of input at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    /// Consumes one or more ASCII digits; `start` names the number in
    /// the diagnostic.
    fn digits(&mut self, start: usize) -> Result<(), String> {
        let n = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if n == 0 {
            return Err(format!("bad number at offset {start}"));
        }
        self.pos += n;
        Ok(())
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` and nothing
    /// looser: a leading zero ends the integer part, so `01` leaves a
    /// trailing `1` for the caller to refuse.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits(start)?;
        }
        if self.eat(b'.') {
            self.digits(start)?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits(start)?;
        }
        let n: f64 = self.src[start..self.pos]
            .parse()
            .map_err(|_| format!("bad number at offset {start}"))?;
        if n.is_finite() {
            Ok(JsonValue::Num(n))
        } else {
            Err(format!("non-finite number at offset {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let open = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One unescaped run up to the next quote, backslash or raw
            // control byte. Every such byte is ASCII, so the run ends on
            // a char boundary of `src` and is copied whole.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            self.pos = run.map_or(self.bytes.len(), |n| start + n);
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(format!("unterminated string from offset {open}")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(format!("raw control character at offset {}", self.pos)),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        // self.pos is at the 'u'; diagnostics name the backslash.
        let esc = self.pos - 1;
        let u1 = self.hex4(self.pos + 1)?;
        self.pos += 5;
        if (0xd800..0xdc00).contains(&u1) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let u2 = self.hex4(self.pos + 2)?;
                if (0xdc00..0xe000).contains(&u2) {
                    self.pos += 6;
                    let cp = 0x10000 + ((u1 - 0xd800) << 10) + (u2 - 0xdc00);
                    return char::from_u32(cp)
                        .ok_or_else(|| format!("bad surrogate pair at offset {esc}"));
                }
            }
            return Err(format!("lone high surrogate at offset {esc}"));
        }
        char::from_u32(u1).ok_or_else(|| format!("bad \\u codepoint at offset {esc}"))
    }

    /// Exactly four hex digits at `at` (no sign, no fewer).
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| format!("truncated \\u escape at offset {at}"))?;
        digits.iter().try_fold(0u32, |acc, &c| {
            nibble(c)
                .map(|n| (acc << 4) | u32::from(n))
                .ok_or_else(|| format!("bad \\u escape at offset {at}"))
        })
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value(depth + 1)?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            let v = self.value(depth + 1)?;
            items.push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }
}

/// Largest integer magnitude a wire number may carry: 2⁵³, up to which
/// an f64 holds every integer exactly.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// The wire layer's one field reader: a borrowed view of one JSON
/// object plus the context name its diagnostics carry. Every protocol
/// and spec field is decoded through [`Fields::req`], [`Fields::opt`]
/// or [`Fields::nullable`], so what an absent, `null`, mistyped or
/// too-large field means is decided here and nowhere else. Keys the
/// decoder never asks for are ignored.
pub(crate) struct Fields<'a> {
    ctx: &'a str,
    obj: &'a JsonValue,
}

impl<'a> Fields<'a> {
    /// Views `v`, which must be an object, as the fields of `ctx`.
    pub(crate) fn of(v: &'a JsonValue, ctx: &'a str) -> Result<Fields<'a>, String> {
        match v {
            JsonValue::Obj(_) => Ok(Fields { ctx, obj: v }),
            _ => Err(format!("{ctx} must be a JSON object")),
        }
    }

    /// An optional field: absent or `null` is `None`; anything that is
    /// not a well-formed `T` is an error, never a silent default.
    pub(crate) fn opt<T: Field<'a>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.obj.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => T::read(v).map(Some).ok_or_else(|| self.needs::<T>(key)),
        }
    }

    /// A required field: absent, `null` or mistyped is an error.
    pub(crate) fn req<T: Field<'a>>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| self.needs::<T>(key))
    }

    /// An optional field whose `null` is a value of its own (the
    /// spec's layers, where `null` says "no layer" and absent says
    /// "the default layer"): absent is `None`, `null` is `Some(None)`.
    pub(crate) fn nullable<T: Field<'a>>(&self, key: &str) -> Result<Option<Option<T>>, String> {
        match self.obj.get(key) {
            Some(JsonValue::Null) => Ok(Some(None)),
            _ => Ok(self.opt(key)?.map(Some)),
        }
    }

    fn needs<T: Field<'a>>(&self, key: &str) -> String {
        format!("{} needs {} \"{key}\"", self.ctx, T::TYPE)
    }
}

/// A type [`Fields`] can read out of one JSON value.
pub(crate) trait Field<'a>: Sized {
    /// How diagnostics name the type, article included.
    const TYPE: &'static str;
    /// `None` when `v` is not a well-formed `Self`.
    fn read(v: &'a JsonValue) -> Option<Self>;
}

impl<'a> Field<'a> for bool {
    const TYPE: &'static str = "a boolean";
    fn read(v: &'a JsonValue) -> Option<bool> {
        v.as_bool()
    }
}

impl<'a> Field<'a> for &'a str {
    const TYPE: &'static str = "a string";
    fn read(v: &'a JsonValue) -> Option<&'a str> {
        v.as_str()
    }
}

impl<'a> Field<'a> for String {
    const TYPE: &'static str = "a string";
    fn read(v: &'a JsonValue) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// Integers: exactly integral, at most 2⁵³ in magnitude, and in the
/// target type's range — the wire layer's only integer check.
macro_rules! int_field {
    ($($t:ty => $name:literal),*) => {$(
        impl<'a> Field<'a> for $t {
            const TYPE: &'static str = $name;
            fn read(v: &'a JsonValue) -> Option<$t> {
                let n = v.as_f64()?;
                if n.fract() != 0.0 || n.abs() > MAX_EXACT_INT {
                    return None;
                }
                <$t>::try_from(n as i64).ok()
            }
        }
    )*};
}
int_field!(
    i64 => "an integer",
    u64 => "a non-negative integer",
    usize => "a non-negative integer",
    u8 => "an integer in 0..=255"
);

/// An exact u64 shipped as a decimal string ([`JsonValue::u64_str`]):
/// score bits exceed the integers a JSON number carries exactly.
pub(crate) struct U64Str(pub(crate) u64);

impl<'a> Field<'a> for U64Str {
    const TYPE: &'static str = "a u64 decimal string";
    fn read(v: &'a JsonValue) -> Option<U64Str> {
        v.as_str()?.parse().ok().map(U64Str)
    }
}

/// A nested object, handed on to that object's own decoder.
impl<'a> Field<'a> for &'a JsonValue {
    const TYPE: &'static str = "an object";
    fn read(v: &'a JsonValue) -> Option<&'a JsonValue> {
        matches!(v, JsonValue::Obj(_)).then_some(v)
    }
}

/// An array whose every element is a well-formed `T`.
impl<'a, T: Field<'a>> Field<'a> for Vec<T> {
    const TYPE: &'static str = "an array";
    fn read(v: &'a JsonValue) -> Option<Vec<T>> {
        v.as_arr()?.iter().map(T::read).collect()
    }
}

/// A half-open `[lo, hi]` tile range.
impl<'a> Field<'a> for (usize, usize) {
    const TYPE: &'static str = "a [lo, hi] pair";
    fn read(v: &'a JsonValue) -> Option<(usize, usize)> {
        match v.as_arr()? {
            [lo, hi] => usize::read(lo).zip(usize::read(hi)),
            _ => None,
        }
    }
}

/// The wire name of `v` in an enum ↔ name table; [`by_name`] reads the
/// same table the other way, so each name is written once.
pub(crate) fn name_of<T: PartialEq>(table: &[(T, &'static str)], v: &T) -> &'static str {
    table
        .iter()
        .find(|(t, _)| t == v)
        .expect("every variant is in its wire-name table")
        .1
}

/// The variant a wire name stands for in an enum ↔ name table.
pub(crate) fn by_name<T: Copy>(table: &[(T, &'static str)], name: &str) -> Option<T> {
    table.iter().find(|(_, n)| *n == name).map(|(t, _)| *t)
}

/// Reads one `\n`-terminated frame, rejecting lines longer than
/// `max_bytes`. Returns `Ok(None)` on a clean EOF before any byte.
/// Handles partial reads by construction ([`BufRead::fill_buf`] loops
/// until the delimiter arrives).
///
/// # Errors
///
/// `Err` on I/O failure, an over-long line, or EOF mid-line.
pub fn read_frame(reader: &mut impl BufRead, max_bytes: usize) -> Result<Option<String>, String> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf().map_err(|e| format!("read: {e}"))?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err("eof inside frame".to_string())
            };
        }
        let take = buf.iter().position(|&b| b == b'\n');
        match take {
            Some(i) => {
                if line.len() + i > max_bytes {
                    return Err(format!("frame longer than {max_bytes} bytes"));
                }
                line.extend_from_slice(&buf[..i]);
                reader.consume(i + 1);
                let s = String::from_utf8(line).map_err(|_| "frame is not utf-8".to_string())?;
                return Ok(Some(s));
            }
            None => {
                let n = buf.len();
                if line.len() + n > max_bytes {
                    // Drain what we can see, then refuse: the caller
                    // closes the connection, bounding memory.
                    return Err(format!("frame longer than {max_bytes} bytes"));
                }
                line.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

/// Hex-encodes binary payloads (GDS uploads) for the JSON transport.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

/// The value of one hex digit, either case.
fn nibble(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Decodes [`to_hex`] output.
///
/// # Errors
///
/// On odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("hex payload has odd length".to_string());
    }
    let nib = |c: u8| nibble(c).ok_or_else(|| format!("bad hex digit 0x{c:02x}"));
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nib(pair[0])? << 4) | nib(pair[1])?);
    }
    Ok(out)
}

/// The signoff digest — checkpoint seals, cache-key spec/deck digests,
/// coordinator ids, and the digests printed in report text. FNV-1a 64
/// in shape, but **not** [`dfm_cache::fnv1a_64`]: the multiplier has
/// one more zero than the FNV prime, and its output is baked into every
/// `DFMS` file and the report bytes the golden digests pin, so the two
/// cannot merge without a format change (a unit test pins both).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_what_the_writer_renders() {
        let doc = JsonValue::obj([
            ("cmd", JsonValue::str("submit")),
            ("n", JsonValue::Num(42.0)),
            ("frac", JsonValue::Num(-0.125)),
            ("flag", JsonValue::Bool(false)),
            ("null", JsonValue::Null),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::str("x\"y\n")]),
            ),
        ]);
        let parsed = parse_json(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn rejects_garbage_with_errors_not_panics() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"",
            "{\"a\":}",
            "tru",
            "nul",
            "1e999",
            "\"\\q\"",
            "\"unterminated",
            "{\"a\":1}x",
            "\"\\ud800\"",
            "01e",
            "--3",
            // A \u escape is exactly four hex digits: no sign, no fewer.
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u004\"",
            "\"\\u00\"",
            "\"\\ud800\\u+c00\"",
            // Surrogates that do not pair up.
            "\"\\ud800\\u0041\"",
            "\"\\ud800x\"",
            "\"\\udc00\"",
            // Numbers outside -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
            "01",
            "-01",
            "00.5",
            "1.",
            "-.5",
            "1.e3",
            ".5",
            "+1",
            "-",
            "1e",
            "1e+",
            "0x10",
            "[01]",
            "{\"a\":-01}",
            "1.5.2",
            "1e3e3",
            // Raw control bytes inside a string.
            "\"a\nb\"",
            "\"\u{1}\"",
            "\"\u{1f}\"",
        ] {
            let e = parse_json(bad).expect_err(bad);
            assert!(
                e.contains("offset "),
                "{bad:?}: diagnostic {e:?} has no offset"
            );
        }
        for (bad, diagnostic) in [
            ("[\"abc", "unterminated string from offset 1"),
            ("[\"\\ud800\"]", "lone high surrogate at offset 2"),
            ("\"ab\\udc00\"", "bad \\u codepoint at offset 3"),
            ("\"ab\\u+041\"", "bad \\u escape at offset 5"),
            ("\"abc\u{1}\"", "raw control character at offset 4"),
            ("[1,-01]", "expected ',' or ']' at offset 5"),
        ] {
            assert_eq!(parse_json(bad), Err(diagnostic.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn numbers_in_the_rfc_8259_grammar_parse_exactly() {
        for ok in [
            "0", "-0", "7", "10", "-12", "0.5", "-0.125", "1e3", "1E+3", "2.5e-3", "0e0",
        ] {
            assert_eq!(
                parse_json(ok),
                Ok(JsonValue::Num(ok.parse().unwrap())),
                "{ok:?}"
            );
        }
    }

    #[test]
    fn depth_limit_is_an_error() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            parse_json("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            JsonValue::str("Aé😀")
        );
    }

    /// The char-at-a-time escaper the run-copying writer replaced, kept
    /// as the reference its bytes are compared against.
    fn reference_escape(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    /// Every escape class, raw control bytes, DEL, and 1- to 4-byte
    /// UTF-8 scalars (including the largest of each width).
    const PALETTE: &[&str] = &[
        "\"",
        "\\",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{8}",
        "\u{c}",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        " ",
        "a",
        "é",
        "\u{7ff}",
        "€",
        "\u{ffff}",
        "😀",
        "\u{10ffff}",
    ];

    #[test]
    fn strings_round_trip_byte_equal_to_the_reference_and_every_prefix_errs() {
        use dfm_bench::json::escape;
        use dfm_check::{check, prop_assert, prop_assert_eq, vec, Config};
        // Short pieces of palette atoms, plus one run of 0..3 KiB of a
        // single atom spliced in at a generated position.
        let gen = (
            vec((0..PALETTE.len(), 1usize..4), 0..24),
            0..PALETTE.len(),
            0usize..3072,
            0usize..24,
        );
        check(
            "codec_string_round_trip",
            &Config::with_cases(64),
            &gen,
            |(pieces, atom, run, at)| {
                let mut parts: Vec<String> =
                    pieces.iter().map(|&(p, n)| PALETTE[p].repeat(n)).collect();
                let long = PALETTE[*atom];
                parts.insert(
                    (*at).min(parts.len()),
                    long.repeat(run.div_ceil(long.len())),
                );
                let s = parts.concat();
                let text = escape(&s);
                prop_assert_eq!(text, reference_escape(&s));
                prop_assert_eq!(parse_json(&text), Ok(JsonValue::Str(s.clone())));
                for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                    prop_assert!(
                        parse_json(&text[..cut]).is_err(),
                        "prefix of {cut} bytes parsed"
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn frames_split_on_newlines() {
        let mut r = BufReader::new(&b"one\ntwo\n"[..]);
        assert_eq!(read_frame(&mut r, 100).unwrap(), Some("one".to_string()));
        assert_eq!(read_frame(&mut r, 100).unwrap(), Some("two".to_string()));
        assert_eq!(read_frame(&mut r, 100).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut r = BufReader::new(&b"aaaaaaaaaaaaaaaaaaaa\n"[..]);
        assert!(read_frame(&mut r, 8).is_err());
    }

    #[test]
    fn one_byte_at_a_time_reader_still_frames() {
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut r = BufReader::with_capacity(1, OneByte(b"hello world\n"));
        assert_eq!(
            read_frame(&mut r, 100).unwrap(),
            Some("hello world".to_string())
        );
    }

    #[test]
    fn hex_round_trips() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_64(b"a"), fnv1a_64(b"b"));
        // Load-bearing: report text and DFMS seals embed this value, so
        // it must not drift to the standard-prime digest the cache uses.
        assert_eq!(fnv1a_64(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(dfm_cache::fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
