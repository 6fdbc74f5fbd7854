//! Strict JSON (RFC 8259): one value tree, one reader and one string
//! escape for every JSON surface in the workspace.
//!
//! The reader keeps numbers exact. Integers that fit `i128` parse
//! without allocating into [`Json::Int`], so `u64` digests, budget
//! ceilings and `i64` counters survive a round trip bit for bit; any
//! other number keeps its source text in [`Json::Num`]. Nesting deeper
//! than [`MAX_DEPTH`] is an error, so hostile input cannot overflow the
//! stack.

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// workspace writes stays below 8; the cap only bounds the recursion on
/// hostile input.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no fraction, no exponent) that fits `i128`, exact.
    Int(i128),
    /// Any other number, as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (the first member named `key`);
    /// `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// String payload, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact unsigned integer payload, `None` for anything else.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Numeric value as `f64` (lossy beyond 2^53); `None` for
    /// non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Array items, `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members in source order, `None` for non-objects.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses one strict JSON document (the whole input must be consumed,
/// up to trailing whitespace).
///
/// # Errors
///
/// A byte-positioned message for malformed input, including nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("byte {}: trailing garbage", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// The character at the cursor, for error messages.
    fn found(&self) -> String {
        match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
            Some(c) => format!("`{c}`"),
            None => "end of input".into(),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "byte {}: expected `{}`, found {}",
                self.pos,
                b as char,
                self.found()
            ))
        }
    }

    /// Consumes the opening bracket of an array or object, one level
    /// deeper.
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "byte {}: nesting deeper than {MAX_DEPTH} levels",
                self.pos
            ));
        }
        self.depth += 1;
        self.expect(bracket)
    }

    /// After an item: `true` on `,`, `false` on `close` (one level
    /// shallower), an error otherwise.
    fn next_item(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        if self.eat(b',') {
            return Ok(true);
        }
        if self.eat(close) {
            self.depth -= 1;
            return Ok(false);
        }
        Err(format!(
            "byte {}: expected `,` or `{}`, found {}",
            self.pos,
            close as char,
            self.found()
        ))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("byte {}: unexpected {}", self.pos, self.found())),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("byte {}: expected `{word}`", self.pos))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let int_start = self.pos;
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.digits() > 0 {
                    return Err(format!("byte {start}: malformed number, leading zero"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(format!("byte {start}: malformed number, no integer digits")),
        }
        let int_end = self.pos;
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(format!(
                    "byte {start}: malformed number, no digits after `.`"
                ));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!(
                    "byte {start}: malformed number, no exponent digits"
                ));
            }
        }
        // Any 38 decimal digits fit i128 (its maximum is about 1.7e38).
        let digits = &self.bytes[int_start..int_end];
        if integral && digits.len() <= 38 {
            let n = digits
                .iter()
                .fold(0i128, |n, &d| n * 10 + i128::from(d - b'0'));
            return Ok(Json::Int(if negative { -n } else { n }));
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run ends at an ASCII byte or at the end of input, so
            // both slice ends are character boundaries.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape_sequence()?);
                }
                Some(b) => {
                    return Err(format!(
                        "byte {}: unescaped control character 0x{b:02x} in string",
                        self.pos
                    ))
                }
                None => return Err(format!("byte {}: unterminated string", self.pos)),
            }
        }
    }

    /// The character a backslash escape stands for; the cursor is just
    /// past the backslash.
    fn escape_sequence(&mut self) -> Result<char, String> {
        let at = self.pos;
        let Some(esc) = self.peek() else {
            return Err(format!("byte {at}: dangling escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&high)
                    && self.bytes[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(format!("byte {at}: unpaired surrogate \\u{high:04x}"));
                    }
                    0x1_0000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    high
                };
                char::from_u32(code)
                    .ok_or_else(|| format!("byte {at}: unpaired surrogate \\u{code:04x}"))?
            }
            _ => {
                self.pos = at;
                return Err(format!("byte {at}: unsupported escape {}", self.found()));
            }
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("byte {}: truncated \\u escape", self.pos))?;
        let mut code = 0;
        for &h in hex {
            let digit = char::from(h)
                .to_digit(16)
                .ok_or_else(|| format!("byte {}: malformed \\u escape", self.pos))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.open(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if !self.next_item(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.open(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            if !self.next_item(b'}')? {
                return Ok(Json::Obj(members));
            }
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal: `"` and `\`,
/// the `\n`/`\t`/`\r` shorthands, `\u00XX` for other control
/// characters; everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_request_shapes() {
        let v = parse(r#"{"cmd":"synth","rate":4,"pin_budget":[48,64],"opts":{"x":true}}"#)
            .expect("parses");
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("synth"));
        assert_eq!(v.get("rate").and_then(Json::as_u64), Some(4));
        let budget: Vec<u64> = v
            .get("pin_budget")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|j| j.as_u64().unwrap())
            .collect();
        assert_eq!(budget, vec![48, 64]);
        assert_eq!(v.get("opts").unwrap().get("x"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(parse("{} extra").is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse("{\"a\":}").is_err());
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_numbers() {
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("{\"a\":1.2.3}").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "\"unterminated",
            "01x",
            "1.",
            "1e",
            "{\"a\":1} extra",
            "tru",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "0",
            "-1.5e10",
            "true",
            "null",
            "[]",
            "{}",
            "{\"a\":[1,2,{\"b\":\"\\u0041\"}]}",
            "  {\"x\":false}  ",
        ] {
            parse(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "01", "1.", "-", "1e", "+1", ".5", "1e+", "-01", "0x1", "1.e3",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse("-0"), Ok(Json::Int(0)));
        assert_eq!(parse("1.50"), Ok(Json::Num("1.50".into())));
        assert_eq!(parse("2E-3"), Ok(Json::Num("2E-3".into())));
        assert_eq!(parse("-1.5e10").unwrap().as_f64(), Some(-1.5e10));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn integer_extremes_round_trip_exactly() {
        let max = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(max, Json::Int(u64::MAX.into()));
        assert_eq!(max.as_u64(), Some(u64::MAX));
        let min = parse(&i64::MIN.to_string()).unwrap();
        assert_eq!(min, Json::Int(i64::MIN.into()));
        assert_eq!(min.as_u64(), None);
        // Neighbours that collide as f64 stay distinct.
        assert_ne!(
            parse("12501005524302218597").unwrap(),
            parse("12501005524302218598").unwrap()
        );
        // Beyond i128 the source text is kept.
        let huge = "1".repeat(40);
        assert_eq!(parse(&huge), Ok(Json::Num(huge.clone())));
        assert_ne!(parse(&huge), parse(&format!("{huge}1")));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line1\nline2\t\"quoted\" \\ end";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = parse(&doc).expect("escaped text parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse("\"a\\u0041\\u00e9\"").expect("parses");
        assert_eq!(v.as_str(), Some("aA\u{e9}"));
        let v = parse("\"\\ud83d\\ude00 \\b\\f\\/\"").expect("surrogate pair parses");
        assert_eq!(v.as_str(), Some("\u{1f600} \u{8}\u{c}/"));
        for lone in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\u12\"",
        ] {
            assert!(parse(lone).is_err(), "accepted {lone:?}");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        assert!(parse("\"a\tb\"").is_err());
        assert!(parse("\"a\nb\"").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // The reproducer that used to overflow the stack.
        assert!(parse(&"[".repeat(200_000)).unwrap_err().contains("nesting"));
        // Depth is per path, not per document.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 50].join(","));
        assert!(parse(&wide).is_ok());
    }

    /// Bytes biased toward JSON's structural alphabet, so arbitrary
    /// input reaches deep into the grammar.
    const ALPHABET: &[u8] = b"[]{}\",:0123456789-+.eEtrufalsn\\u /\t\n";

    /// Code points biased toward the ones `escape` rewrites.
    fn to_char(x: u32) -> char {
        match x % 4 {
            0 => char::from_u32((x >> 2) % 0x20).unwrap(),
            1 => ['"', '\\', '/', '\u{7f}'][(x >> 2) as usize % 4],
            _ => char::from_u32((x >> 2) % 0x11_0000).unwrap_or('\u{fffd}'),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
            let shaped: Vec<u8> = bytes
                .iter()
                .map(|&b| ALPHABET[b as usize % ALPHABET.len()])
                .collect();
            let _ = parse(&String::from_utf8_lossy(&shaped));
        }

        #[test]
        fn escaped_strings_parse_back(codes in prop::collection::vec(any::<u32>(), 0..48)) {
            let s: String = codes.iter().map(|&x| to_char(x)).collect();
            let doc = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse(&doc), Ok(Json::Str(s)));
        }
    }
}
