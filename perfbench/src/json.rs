//! The little JSON the benchmark reads and writes (the repository takes no
//! external dependencies): string escaping, number formatting, and the
//! two-level `{workload: {counter: integer}}` file of exact counters.

use std::collections::BTreeMap;

/// Exact counters per workload.
pub type Counters = BTreeMap<String, BTreeMap<String, u64>>;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has
/// (non-finite values, which JSON cannot hold, become 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders counters one workload per line, keys sorted.
pub fn write_counters(c: &Counters) -> String {
    let rows: Vec<String> = c
        .iter()
        .map(|(w, kv)| {
            let fields: Vec<String> = kv
                .iter()
                .map(|(k, v)| format!("{}: {v}", string(k)))
                .collect();
            format!("  {}: {{{}}}", string(w), fields.join(", "))
        })
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Parses what [`write_counters`] writes: an object of objects of
/// non-negative integers, with plain (unescaped) keys.
pub fn parse_counters(text: &str) -> Result<Counters, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        pos: 0,
    };
    let mut out = Counters::new();
    p.object(|p, workload| {
        let mut kv = BTreeMap::new();
        p.object(|p, key| {
            kv.insert(key, p.integer()?);
            Ok(())
        })?;
        out.insert(workload, kv);
        Ok(())
    })?;
    p.ws();
    if p.pos != p.s.len() {
        return Err(format!("trailing text at byte {}", p.pos));
    }
    Ok(out)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.pos).copied()
    }

    fn key(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.pos;
        while self
            .s
            .get(self.pos)
            .is_some_and(|&b| b != b'"' && b != b'\\')
        {
            self.pos += 1;
        }
        let key = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
        self.eat(b'"')?;
        Ok(key)
    }

    fn integer(&mut self) -> Result<u64, String> {
        self.ws();
        let start = self.pos;
        while self.s.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| format!("expected an integer at byte {start}"))
    }

    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.key()?;
            self.eat(b':')?;
            field(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip() {
        let mut c = Counters::new();
        c.entry("gc-tree".into())
            .or_default()
            .insert("steps".into(), 424_230);
        c.entry("gc-tree".into())
            .or_default()
            .insert("pages.freed".into(), 0);
        c.entry("compile".into()).or_default();
        assert_eq!(parse_counters(&write_counters(&c)), Ok(c));
        assert!(parse_counters("{\"a\": {\"b\": -1}}").is_err());
        assert!(parse_counters("{\"a\": {}} x").is_err());
    }

    #[test]
    fn strings_and_numbers_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(number(0.125), "0.125");
        assert_eq!(number(f64::NAN), "0");
    }
}
