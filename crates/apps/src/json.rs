//! A minimal JSON reader.
//!
//! The workspace serializes its reports with a hand-rolled emitter (no
//! serde — the build is offline); the readers beside the writers in
//! [`trials`](crate::trials), and `campaignd`'s spec and journal parsers,
//! need the inverse. This is a small recursive-descent parser covering exactly
//! the JSON the emitters produce: objects, arrays, strings with the
//! standard escapes, numbers (including exponents), booleans and null.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction, no exponent) that fits in `i128`.
    ///
    /// Kept exact so 128-bit energy-quanta counters survive parsing:
    /// `f64` can only represent integers up to 2^53 exactly, and a
    /// campaign's quanta overflow that.
    Int(i128),
    /// An integer literal above `i128::MAX` that fits in `u128`: the top
    /// half of the quanta range, kept exact for the same reason.
    UInt(u128),
    /// Any other number: fractions, exponents, and integers outside
    /// `i128::MIN..=u128::MAX` (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (duplicate keys are kept as-is;
    /// [`Json::get`] returns the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value of `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when this is a number. Integers coerce (with
    /// the usual `f64` rounding above 2^53); use [`Json::as_i128`] /
    /// [`Json::as_u128`] where exactness matters.
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(x) => Some(*x as f64),
            Json::UInt(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The exact integer value, when this is an integer literal.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The exact non-negative integer value, when this is an integer
    /// literal that fits. The accessor for energy-quanta fields.
    #[allow(clippy::cast_sign_loss)]
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Int(x) if *x >= 0 => Some(*x as u128),
            Json::UInt(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs never occur in our emitters'
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b.is_ascii() => {
                    out.push(char::from(b));
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut exact = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            exact = false;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            exact = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if exact {
            // Integer literal: keep it lossless anywhere in
            // `i128::MIN..=u128::MAX`, so every u128 quantum the emitters
            // write reads back; only a literal beyond that falls back to f64.
            if let Ok(x) = text.parse::<i128>() {
                return Ok(Json::Int(x));
            }
            if let Ok(x) = text.parse::<u128>() {
                return Ok(Json::UInt(x));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".to_owned()));
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".to_owned()));
    }

    #[test]
    fn integers_beyond_f64_precision_stay_exact() {
        // 2^53 and 2^53 + 1 collapse to the same f64; the parser must
        // keep them distinct, or a reader could accept reports whose
        // quanta actually differ.
        let a = Json::parse("9007199254740992").unwrap();
        let b = Json::parse("9007199254740993").unwrap();
        assert_ne!(a, b);
        assert_eq!(a.as_u128(), Some(9_007_199_254_740_992));
        assert_eq!(b.as_u128(), Some(9_007_199_254_740_993));
        assert_eq!(b.as_i128(), Some(9_007_199_254_740_993));
        // The f64 view of both rounds to the same value — the documented
        // lossy coercion.
        assert_eq!(a.as_f64(), b.as_f64());
        // Negative integers have no u128 reading.
        assert_eq!(Json::parse("-3").unwrap().as_u128(), None);
        // Fractions and exponents are not integers.
        assert_eq!(Json::parse("2.0").unwrap().as_u128(), None);
        assert_eq!(Json::parse("2e0").unwrap().as_u128(), None);
        // Integers above i128::MAX stay exact up to u128::MAX; they have
        // no i128 reading.
        let huge = Json::parse("340282366920938463463374607431768211455").unwrap();
        assert_eq!(huge, Json::UInt(u128::MAX));
        assert_eq!((huge.as_u128(), huge.as_i128()), (Some(u128::MAX), None));
        let above = Json::parse("170141183460469231731687303715884105728").unwrap();
        assert_eq!(above.as_u128(), Some(1 << 127));
        let lowest = Json::parse("-170141183460469231731687303715884105728").unwrap();
        assert_eq!(lowest, Json::Int(i128::MIN));
        // Only a literal beyond u128 (or below i128) falls back to f64.
        for beyond in
            ["340282366920938463463374607431768211456", "-170141183460469231731687303715884105729"]
        {
            assert!(matches!(Json::parse(beyond).unwrap(), Json::Num(_)), "{beyond}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x","d":{}}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].as_f64(), Some(2.0));
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("d").and_then(Json::as_object), Some(&[][..]));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn round_trips_a_real_campaign_report() {
        use crate::trials::{CampaignOptions, CampaignReport, TrialSpec};
        let app = crate::all_apps().remove(2); // MonteCarlo
        let report = CampaignReport::collect(
            &[TrialSpec::reference(&app)][..],
            &CampaignOptions::with_threads(1),
        );
        let v = Json::parse(&report.to_json()).expect("emitter output parses");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("enerj-campaign/7"));
        let trials = v.get("trials").and_then(Json::as_array).unwrap();
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0].get("app").and_then(Json::as_str), Some("MonteCarlo"));
    }
}
