//! Flat JSON Lines: the one result format of the benchmark.
//!
//! Every line is one object whose values are strings or numbers — no
//! nesting — so the reader is a small tokenizer, not a JSON library.

use faure_trace::json_escape;
use std::fmt::Write as _;

/// A value of a flat object.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Num(f64),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

/// Formats a measured number with all its digits. Non-finite values
/// (which no measurement should produce) are written as 0 so the line
/// stays valid JSON; Rust's shortest round-trip float formatting never
/// uses an exponent.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Renders one flat object.
pub fn object(fields: &[(&str, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", json_escape(key));
        match value {
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Value::Num(n) => out.push_str(&number(*n)),
        }
    }
    out.push('}');
    out
}

/// One measured value of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    pub unit: String,
    pub rep: u32,
}

impl Record {
    pub fn to_line(&self) -> String {
        object(&[
            ("workload", self.workload.as_str().into()),
            ("metric", self.metric.as_str().into()),
            ("value", self.value.into()),
            ("unit", self.unit.as_str().into()),
            ("rep", f64::from(self.rep).into()),
        ])
    }

    /// Reads a record line; `None` for any other flat object (a header
    /// record) and for lines that are not flat objects at all.
    pub fn from_line(line: &str) -> Option<Record> {
        let fields = parse_object(line)?;
        let text = |key: &str| match lookup(&fields, key)? {
            Value::Str(s) => Some(s.clone()),
            Value::Num(_) => None,
        };
        let num = |key: &str| match lookup(&fields, key)? {
            Value::Num(n) => Some(*n),
            Value::Str(_) => None,
        };
        Some(Record {
            workload: text("workload")?,
            metric: text("metric")?,
            value: num("value")?,
            unit: text("unit")?,
            rep: num("rep")? as u32,
        })
    }
}

fn lookup<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Tokenizes one flat object. Returns `None` on anything else: nested
/// values, trailing text, unterminated strings.
pub fn parse_object(line: &str) -> Option<Vec<(String, Value)>> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next()? != '{' {
        return None;
    }
    skip_space(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return chars.next().is_none().then_some(fields);
    }
    loop {
        skip_space(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_space(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_space(&mut chars);
        let value = if chars.peek() == Some(&'"') {
            Value::Str(parse_string(&mut chars)?)
        } else {
            let mut text = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == '}' || c.is_whitespace() {
                    break;
                }
                text.push(c);
                chars.next();
            }
            Value::Num(text.parse().ok()?)
        };
        fields.push((key, value));
        skip_space(&mut chars);
        match chars.next()? {
            ',' => continue,
            '}' => break,
            _ => return None,
        }
    }
    skip_space(&mut chars);
    chars.next().is_none().then_some(fields)
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_space(chars: &mut Chars<'_>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut Chars<'_>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c @ ('"' | '\\' | '/') => out.push(c),
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let r = Record {
            workload: "reach_batch".into(),
            metric: "op_p50_ms".into(),
            value: 1432.078125,
            unit: "ms".into(),
            rep: 3,
        };
        let line = r.to_line();
        assert_eq!(
            line,
            r#"{"workload":"reach_batch","metric":"op_p50_ms","value":1432.078125,"unit":"ms","rep":3}"#
        );
        assert_eq!(Record::from_line(&line), Some(r));
    }

    #[test]
    fn escapes_survive_the_round_trip() {
        let line = object(&[("rustc", "a \"b\"\\\n\u{1}".into()), ("n", 2.5.into())]);
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields[0].1, Value::Str("a \"b\"\\\n\u{1}".into()));
        assert_eq!(fields[1].1, Value::Num(2.5));
    }

    #[test]
    fn rejects_what_is_not_a_flat_object() {
        assert_eq!(parse_object(r#"{"a":{"b":1}}"#), None);
        assert_eq!(parse_object(r#"{"a":1} x"#), None);
        assert_eq!(parse_object(r#"{"a":"unterminated}"#), None);
        assert_eq!(parse_object("plain text"), None);
        assert_eq!(parse_object("{}"), Some(vec![]));
        // A header is a flat object but not a record.
        assert_eq!(Record::from_line(r#"{"header":1,"seed":7}"#), None);
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(number(f64::NAN), "0");
    }
}
