//! The workspace's one JSON writer: compact output (no whitespace),
//! keys in call order; commas, nesting and escaping handled here and
//! nowhere else.
//!
//! [`object()`] / [`array()`] build a document; inside, the `object` /
//! `array` methods nest through a closure, so brackets always balance.
//! A value is anything whose `Display` is already JSON — integers,
//! booleans, finite floats, a `format_args!` with a fixed precision, a
//! fragment another call rendered — and text goes in as [`Str`], which
//! quotes and escapes whatever it displays. Every emitter in the
//! workspace — the `--metrics` document, bench rows, `explain` and
//! `check --format json`, the Chrome trace, the telemetry JSONL line —
//! goes through it, which is what lets CI reject a hand-assembled `{{"`
//! literal.

use std::borrow::Cow;
use std::fmt::{self, Display, Write as _};

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> Cow<'_, str> {
    if !s.chars().any(|c| c == '"' || c == '\\' || c < '\u{20}') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < '\u{20}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// A string value: what `T` displays, quoted and escaped.
#[derive(Clone, Copy, Debug)]
pub struct Str<T>(pub T);

impl<T: Display> Display for Str<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// Escapes what is written through it, piece by piece, so clean
        /// text (the usual case: keys, names) is never copied.
        struct Escaping<'a, 'b>(&'a mut fmt::Formatter<'b>);
        impl fmt::Write for Escaping<'_, '_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.write_str(&json_escape(s))
            }
        }
        f.write_str("\"")?;
        write!(Escaping(f), "{}", self.0)?;
        f.write_str("\"")
    }
}

/// An object under construction.
#[derive(Debug)]
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

/// An array under construction.
#[derive(Debug)]
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

fn comma(out: &mut String, first: &mut bool) {
    if !std::mem::replace(first, false) {
        out.push(',');
    }
}

fn write_object(out: &mut String, f: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    f(&mut Obj { out, first: true });
    out.push('}');
}

fn write_array(out: &mut String, f: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    f(&mut Arr { out, first: true });
    out.push(']');
}

/// Renders one object.
pub fn object(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, f);
    out
}

/// Renders one array.
pub fn array(f: impl FnOnce(&mut Arr<'_>)) -> String {
    let mut out = String::new();
    write_array(&mut out, f);
    out
}

impl Obj<'_> {
    fn key(&mut self, key: &str) {
        comma(self.out, &mut self.first);
        self.out.push('"');
        self.out.push_str(&json_escape(key));
        self.out.push_str("\":");
    }

    /// `"key":value` — `value` is written as it displays (see the
    /// module docs); wrap a string in [`Str`].
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// `"key":{…}`.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.key(key);
        write_object(self.out, f);
        self
    }

    /// `"key":[…]`.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        self.key(key);
        write_array(self.out, f);
        self
    }
}

impl Arr<'_> {
    /// One element per value, each written as it displays.
    pub fn items<V: Display>(&mut self, values: impl IntoIterator<Item = V>) -> &mut Self {
        for v in values {
            comma(self.out, &mut self.first);
            let _ = write!(self.out, "{v}");
        }
        self
    }

    /// One object element.
    pub fn object(&mut self, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        comma(self.out, &mut self.first);
        write_object(self.out, f);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_with_commas_in_call_order() {
        let doc = object(|o| {
            o.field("n", 1u64).field("s", Str("a\"b")).field("f", 0.5);
            o.object("inner", |i| {
                i.field("ok", true).field("none", "null");
            });
            o.array("xs", |a| {
                a.items([1usize, 2]).items([Str("z")]);
                a.object(|e| {
                    e.field("rate", format_args!("{:.4}", 0.25));
                });
            });
            o.array("empty", |_| {});
        });
        assert_eq!(
            doc,
            "{\"n\":1,\"s\":\"a\\\"b\",\"f\":0.5,\"inner\":{\"ok\":true,\"none\":null},\
             \"xs\":[1,2,\"z\",{\"rate\":0.2500}],\"empty\":[]}"
        );
    }

    #[test]
    fn keys_are_escaped_and_fragments_go_in_verbatim() {
        let inner = array(|a| {
            a.items(["1.500"]);
        });
        assert_eq!(
            object(|o| {
                o.field("k\n", &inner);
            }),
            "{\"k\\n\":[1.500]}"
        );
    }
}
