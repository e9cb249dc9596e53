//! The workspace's one JSON codec: escaping, float formatting, and a
//! strict recursive-descent parser.
//!
//! The workspace is std-only, so run reports and bench and lint
//! baselines are serialized by hand with [`escape`] and [`fmt_f64`];
//! `bench-diff` and `fefet-lint` read their baselines back with
//! [`parse`]. [`validate`] is the same parser with the value thrown
//! away; the CI smoke step (and the `telemetry_report` example it
//! runs) uses it to prove a committed artifact is well-formed JSON.

/// Escapes a string for embedding inside a JSON string literal
/// (quotes are **not** added by this function).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value. Finite values use scientific
/// notation (valid JSON numbers); non-finite values have no JSON
/// number representation and become `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Object members keep document order; with
/// duplicate keys, [`Json::get`] finds the first.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting depth accepted by [`parse`]; our run
/// reports nest 4–5 levels deep, so 64 is generous while still keeping
/// the recursive parser stack-bounded.
const MAX_DEPTH: usize = 64;

/// Parses `src` as exactly one JSON value (with optional surrounding
/// whitespace), following RFC 8259's grammar strictly: no leading
/// zeros, no bare or trailing decimal points, exactly four hex digits
/// per `\u` escape. A `\u` escape naming a surrogate half decodes to
/// U+FFFD (no writer in this workspace emits one). Errors carry the
/// byte offset of the first problem.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: src.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// Validates that `src` is exactly one well-formed JSON value: [`parse`]
/// with the value discarded.
pub fn validate(src: &str) -> Result<(), String> {
    parse(src).map(|_| ())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte '{}' at {}", c as char, self.i)),
            None => Err(format!("unexpected end of input at byte {}", self.i)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        // Bounded: each member consumes at least one byte of input.
        while self.i <= self.b.len() {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
        Err(format!("unterminated object at byte {}", self.i))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        // Bounded: each element consumes at least one byte of input.
        while self.i <= self.b.len() {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
        Err(format!("unterminated array at byte {}", self.i))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        // Raw bytes are copied through unchanged (the input is a &str,
        // so they stay valid UTF-8); escapes append their encoding.
        let mut out = Vec::new();
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => {
                    return String::from_utf8(out)
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))
                }
                b'\\' => {
                    let ch = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    };
                    self.i += 1;
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.i - 1))
                }
                b => out.push(b),
            }
        }
        Err(format!("unterminated string at byte {}", self.i))
    }

    /// Decodes the four hex digits after `\u`, leaving the cursor on
    /// the last of them.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = 0;
        for _ in 0..4 {
            self.i += 1;
            let digit = self
                .peek()
                .and_then(|h| char::from(h).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
            code = code * 16 + digit;
        }
        Ok(char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER))
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            Err(format!("expected digit at byte {}", self.i))
        } else {
            Ok(())
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // Integer part: "0" alone, or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(format!("expected digit at byte {}", self.i)),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        // The grammar above admits only what `f64::from_str` accepts.
        self.b
            .get(start..self.i)
            .and_then(|t| std::str::from_utf8(t).ok())
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        let end = self.i + word.len();
        if self.b.get(self.i..end) == Some(word.as_bytes()) {
            self.i = end;
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_values() {
        for ok in [
            "null",
            "true",
            "false",
            "0",
            "-0",
            "-1.5e-3",
            "1e0",
            "2E+10",
            "\"a \\\"quoted\\\" string\\n\"",
            "\"\\u00e9\\/\\b\\f\"",
            "[]",
            "[1, 2, 3]",
            "{}",
            r#"{"a": {"b": [1.25e2, null]}, "c": "d"}"#,
            "  { \"k\" : [ true , false ] }  ",
            // A lint baseline and a lint findings report.
            r#"{"version": 1, "entries": [{"file": "a.rs", "rule": "hot-alloc", "count": 2}]}"#,
            r#"{"tool": "fefet-lint", "findings": [], "counts": {}, "baseline": null}"#,
        ] {
            assert!(validate(ok).is_ok(), "rejected valid JSON: {ok}");
        }
    }

    #[test]
    fn rejects_malformed_values() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1 2]",
            "1 2",
            "01",
            "1.",
            ".5",
            "-.5",
            "1e",
            "+1",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\u+123\"",
            "\"\\u12\"",
            "\"raw \u{1} control\"",
            "{} extra",
            "NaN",
            "inf",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed JSON: {bad:?}");
        }
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e-7").unwrap(), Json::Num(-1.5e-7));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(
            parse("\"\\u00e9 \\ud800 \u{e9}\"").unwrap(),
            Json::Str("\u{e9} \u{fffd} \u{e9}".into())
        );
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": false, "d": true}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Json::Bool(false)));
        assert_eq!(v.get("missing"), None);
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("c"));
        assert_eq!(arr[2].as_str(), None);
    }

    #[test]
    fn roundtrips_a_tinybench_report() {
        let src = r#"{
          "suite": "solvers",
          "mode": "full",
          "samples": [
            {"name": "lu/8", "median_s": 5.1e-7, "min_s": 4.7e-7, "iters": 10, "batches": 5}
          ]
        }"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("full"));
        let s = &v.get("samples").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(s.get("min_s").and_then(Json::as_f64), Some(4.7e-7));
    }

    #[test]
    fn rejects_excessive_nesting() {
        let nest = |depth: usize| "[".repeat(depth) + "1" + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH + 2)).is_err());
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
    }

    #[test]
    fn escape_handles_specials_and_roundtrips() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        for s in ["ctrl \u{2} tab\t quote\" back\\", "a \"b\"\\\n\tc", "ünï\r"] {
            let quoted = format!("\"{}\"", escape(s));
            assert_eq!(parse(&quoted).unwrap(), Json::Str(s.into()), "{quoted}");
        }
    }

    #[test]
    fn fmt_f64_emits_valid_json_numbers() {
        for v in [0.0, 1.0, -1.5, 3.25e-12, 6.02e23, f64::MIN_POSITIVE] {
            let s = fmt_f64(v);
            let back = parse(&s).ok().and_then(|j| j.as_f64());
            assert!(
                back.is_some_and(|b| b.to_bits() == v.to_bits()),
                "{v} -> {s} -> {back:?}"
            );
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }
}
