//! Minimal JSON — just enough for trace reports and rule packs, with no
//! dependency: a writer with correct string escaping and
//! locale-independent number formatting, and a small, strict reader
//! that reports errors by line and column.

/// Escape a string for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
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

/// Format a number the way JSON expects (no NaN/Inf, no trailing
/// noise: integers stay integral, fractions keep two decimals).
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// An in-order JSON object builder.
#[derive(Debug, Default)]
pub struct Object {
    parts: Vec<String>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Add a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.parts.push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Add a numeric field.
    pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
        self.parts.push(format!("\"{}\":{}", escape(key), number(value)));
        self
    }

    /// Add a pre-serialized JSON value.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.parts.push(format!("\"{}\":{}", escape(key), json));
        self
    }

    /// Serialize the object.
    pub fn build(&self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// A parsed JSON value; object keys keep file order (the canonical
/// formatter depends on it).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object, as key/value pairs in file order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A string, unescaped.
    Str(String),
    /// A number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parse one JSON value spanning all of `text` (surrounding whitespace
/// allowed). Duplicate object keys are rejected; errors name the line
/// and column where parsing stopped.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.fail("trailing characters after the top-level value"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> String {
        let (mut line, mut col) = (1usize, 1usize);
        for &c in &self.b[..self.i.min(self.b.len())] {
            if c == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        format!("line {line}, col {col}: {msg}")
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.fail(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut kv = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.ws();
            let key = self.string()?;
            if kv.iter().any(|(k, _)| *k == key) {
                return Err(self.fail(&format!("duplicate key \"{key}\"")));
            }
            self.ws();
            self.eat(b':')?;
            self.ws();
            let v = self.value()?;
            kv.push((key, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err(self.fail("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| self.fail("bad \\u escape"))?;
                            let n = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.fail("bad \\u escape"))?;
                            out.push(
                                char::from_u32(n).ok_or_else(|| self.fail("bad \\u code point"))?,
                            );
                            self.i += 4;
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| self.fail("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.fail("bad number"))
    }
}
