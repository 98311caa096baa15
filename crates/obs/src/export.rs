//! Shared formatting helpers for deterministic JSON/CSV exports.
//!
//! Every JSON export in the workspace renders through [`JsonWriter`]. Exports
//! iterate sorted collections and render a float only with an explicit number
//! of decimals, so identical inputs always render identical bytes.

use std::fmt::{self, Write};

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Quote a CSV field if it contains a delimiter, quote, or newline.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A JSON scalar: an integer, a `bool`, a string (escaped), or an `Option`
/// of one (`None` renders `null`). A float is not a scalar: it goes through
/// [`JsonWriter::fixed`] with an explicit number of decimals.
pub trait JsonScalar {
    fn write_json(&self, out: &mut String);
}

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalar!(u32, u64, usize, i64, bool);

impl JsonScalar for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl JsonScalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: JsonScalar + ?Sized> JsonScalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: JsonScalar> JsonScalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A streaming JSON writer: the one renderer behind every export.
///
/// A container opens in one of two layouts. *One item per line* (`obj`,
/// `arr`): each item starts a new line indented two spaces per open
/// container, items are joined by `,\n`, and an empty container renders
/// `[\n\n]`. *Inline* (`obj_inline`, `arr_inline`): items are joined by `, `
/// on the current line. Keys and string values are always escaped.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    open: Vec<Container>,
    /// A key was just written: the next value follows it on the same line.
    after_key: bool,
}

struct Container {
    close: char,
    lines: bool,
    empty: bool,
}

impl JsonWriter {
    /// Open an object, one member per line.
    pub fn obj(&mut self) -> &mut Self {
        self.open('{', '}', true)
    }

    /// Open an object on the current line.
    pub fn obj_inline(&mut self) -> &mut Self {
        self.open('{', '}', false)
    }

    /// Open an array, one element per line.
    pub fn arr(&mut self) -> &mut Self {
        self.open('[', ']', true)
    }

    /// Open an array on the current line.
    pub fn arr_inline(&mut self) -> &mut Self {
        self.open('[', ']', false)
    }

    /// Close the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        debug_assert!(!self.open.is_empty(), "end() with no open container");
        if let Some(c) = self.open.pop() {
            if c.lines {
                self.newline(c.empty);
            }
            self.out.push(c.close);
        }
        self
    }

    /// An object member's key; the next value is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.item();
        k.write_json(&mut self.out);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    pub fn val(&mut self, v: impl JsonScalar) -> &mut Self {
        self.item();
        v.write_json(&mut self.out);
        self
    }

    /// One [`val`](JsonWriter::val) per item.
    pub fn vals<T: JsonScalar>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Self {
        for v in items {
            self.val(v);
        }
        self
    }

    /// `key(k).val(v)`.
    pub fn field(&mut self, k: &str, v: impl JsonScalar) -> &mut Self {
        self.key(k).val(v)
    }

    /// A float with exactly `decimals` digits after the point; NaN and the
    /// infinities render `null`.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.raw(format_args!("{v:.decimals$}"))
        } else {
            self.val(None::<u64>)
        }
    }

    /// Embed an already-rendered value verbatim: a nested document or a
    /// fixed-point number.
    pub fn raw(&mut self, v: impl fmt::Display) -> &mut Self {
        self.item();
        let _ = write!(self.out, "{v}");
        self
    }

    /// The rendered document, newline-terminated.
    pub fn finish(mut self) -> String {
        debug_assert!(self.open.is_empty(), "finish() with an open container");
        self.out.push('\n');
        self.out
    }

    fn open(&mut self, open: char, close: char, lines: bool) -> &mut Self {
        self.item();
        self.out.push(open);
        let empty = true;
        self.open.push(Container {
            close,
            lines,
            empty,
        });
        self
    }

    /// Separator and indentation ahead of the next item of the innermost
    /// container; nothing right after a key.
    fn item(&mut self) {
        let after_key = std::mem::take(&mut self.after_key);
        let Some(c) = self.open.last_mut().filter(|_| !after_key) else {
            return;
        };
        let (first, lines) = (std::mem::replace(&mut c.empty, false), c.lines);
        if !first {
            self.out.push(',');
        }
        if lines {
            self.newline(false);
        } else if !first {
            self.out.push(' ');
        }
    }

    /// A line break (two for an empty container) indented to the current
    /// depth.
    fn newline(&mut self, blank: bool) {
        self.out.push_str(if blank { "\n\n" } else { "\n" });
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn nested_layouts_indent_by_depth() {
        let mut w = JsonWriter::default();
        w.obj().field("n", 1u64);
        w.key("rows").arr();
        w.obj().field("a", "x").key("inner").obj_inline();
        w.field("b", -2i64)
            .key("c")
            .arr_inline()
            .vals([3u32, 4])
            .end();
        w.end().end();
        w.obj_inline()
            .field("d", true)
            .key("e")
            .arr()
            .val(5u32)
            .end()
            .end();
        w.end().end();
        assert_eq!(
            w.finish(),
            "{\n  \"n\": 1,\n  \"rows\": [\n    {\n      \"a\": \"x\",\n      \
             \"inner\": {\"b\": -2, \"c\": [3, 4]}\n    },\n    \
             {\"d\": true, \"e\": [\n        5\n      ]}\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::default();
        w.obj();
        w.key("a").arr().end();
        w.key("o").obj().end();
        w.key("i").arr_inline().end();
        w.key("j").obj_inline().end();
        w.end();
        assert_eq!(
            w.finish(),
            "{\n  \"a\": [\n\n  ],\n  \"o\": {\n\n  },\n  \"i\": [],\n  \"j\": {}\n}\n"
        );
        let mut top = JsonWriter::default();
        top.arr().end();
        assert_eq!(top.finish(), "[\n\n]\n");
    }

    #[test]
    fn keys_and_strings_are_escaped() {
        let evil = "q\"b\\n\nc\u{7}";
        let mut w = JsonWriter::default();
        w.obj_inline().field(evil, evil).end();
        assert_eq!(
            w.finish(),
            "{\"q\\\"b\\\\n\\nc\\u0007\": \"q\\\"b\\\\n\\nc\\u0007\"}\n"
        );
    }

    #[test]
    fn null_fixed_and_raw() {
        let mut w = JsonWriter::default();
        w.arr_inline()
            .val(None::<u64>)
            .val(Some(7u64))
            .fixed(1.23456, 3)
            .fixed(2.0, 1)
            .fixed(f64::NAN, 2)
            .fixed(f64::NEG_INFINITY, 2)
            .raw(format_args!("{}.{:03}", 12, 5))
            .raw("{\"pre\": 1}")
            .end();
        assert_eq!(
            w.finish(),
            "[null, 7, 1.235, 2.0, null, null, 12.005, {\"pre\": 1}]\n"
        );
    }
}
