//! The tree's one JSON writer, its checker, and the gate every
//! `BENCH_*.json` `--check` ends in. No dependency: the build is offline.
//!
//! [`JsonWriter`] streams objects and arrays into a `String`, each laid
//! out [`Layout::Inline`] (`{"a": 1, "b": [2, 3]}`) or [`Layout::Lines`]
//! (one member per line, two spaces per open container, the closing
//! bracket on its own line), so a report nests in a document at its
//! depth. A [`JsonScalar`] is an integer, a `bool`, `None` (`null`), a
//! string (`"` and `\` escaped, `\n` `\r` `\t`, other control characters
//! as `\u00XX`) or an `f64` in Rust's shortest round-trip form (equal bits
//! print equal text on every machine; a non-finite value is `null`).
//! [`document`] adds a file's final newline.
//!
//! [`gate`] writes an artifact; under `--check` it adds a failure unless
//! [`is_well_formed_json`] accepts the text, prints each failure as
//! `<tool>: CHECK FAILED: <why>` and returns the exit code.
//!
//! [`is_well_formed_json`] checks RFC 8259 syntax, no schema: one value;
//! space, tab, CR, LF between tokens; numbers
//! `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`; no raw byte below
//! 0x20 in a string, whose escapes are `\" \\ \/ \b \f \n \r \t \uXXXX`.

use std::fmt::Write as _;
use std::process::ExitCode;

/// How a container lays out its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// All members on one line, separated by `, `.
    Inline,
    /// One member per line, indented two spaces per open container.
    Lines,
}

/// A value written as one JSON token.
pub trait JsonScalar {
    /// Appends the token to `out`.
    fn write_token(&self, out: &mut String);
}

macro_rules! decimal_scalars {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn write_token(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
decimal_scalars!(bool, u64, usize, i32);

impl JsonScalar for f64 {
    fn write_token(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl JsonScalar for str {
    fn write_token(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
        out.push('"');
    }
}

impl JsonScalar for String {
    fn write_token(&self, out: &mut String) {
        self.as_str().write_token(out);
    }
}

impl<T: JsonScalar + ?Sized> JsonScalar for &T {
    fn write_token(&self, out: &mut String) {
        (**self).write_token(out);
    }
}

impl<T: JsonScalar> JsonScalar for Option<T> {
    fn write_token(&self, out: &mut String) {
        match self {
            Some(v) => v.write_token(out),
            None => out.push_str("null"),
        }
    }
}

/// A streaming JSON writer; see the [module docs](self) for the format.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The open containers, innermost last: layout, and whether a member
    /// was written.
    open: Vec<(Layout, bool)>,
    /// A key was just written, so the next value is its member's value.
    keyed: bool,
}

impl JsonWriter {
    /// Writes an object; `members` writes its members with
    /// [`JsonWriter::key`] or [`JsonWriter::field`].
    pub fn object(&mut self, layout: Layout, members: impl FnOnce(&mut JsonWriter)) -> &mut Self {
        self.container(layout, ['{', '}'], members)
    }

    /// Writes an array; `items` writes its items.
    pub fn array(&mut self, layout: Layout, items: impl FnOnce(&mut JsonWriter)) -> &mut Self {
        self.container(layout, ['[', ']'], items)
    }

    /// Writes the key of an object member; the value written next is the
    /// member's value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.next_member();
        name.write_token(&mut self.out);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Writes an object member whose value is a scalar.
    pub fn field(&mut self, name: &str, value: impl JsonScalar) -> &mut Self {
        self.key(name).value(value)
    }

    /// Writes a scalar: an array item, or the value of the key just
    /// written.
    pub fn value(&mut self, value: impl JsonScalar) -> &mut Self {
        self.next_member();
        value.write_token(&mut self.out);
        self
    }

    /// The text written.
    pub fn finish(self) -> String {
        self.out
    }

    fn container(
        &mut self,
        layout: Layout,
        [open, close]: [char; 2],
        body: impl FnOnce(&mut JsonWriter),
    ) -> &mut Self {
        self.next_member();
        self.out.push(open);
        self.open.push((layout, false));
        body(self);
        self.open.pop();
        if layout == Layout::Lines {
            self.newline();
        }
        self.out.push(close);
        self
    }

    /// Separates what comes next from the innermost container's previous
    /// member, unless it is the value of a key.
    fn next_member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let Some((layout, written)) = self.open.last_mut() else {
            return;
        };
        let (layout, later) = (*layout, std::mem::replace(written, true));
        if later {
            self.out.push(',');
        }
        match layout {
            Layout::Inline if later => self.out.push(' '),
            Layout::Inline => {}
            Layout::Lines => self.newline(),
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }
}

/// A JSON file's text: the value `write` writes, then a newline.
pub fn document(write: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    write(&mut w);
    let mut text = w.finish();
    text.push('\n');
    text
}

/// The end of every `BENCH_*.json` producer: writes `text` to `path`.
/// `failures` is `None` without `--check`; with it, the gate adds one
/// unless `text` is well-formed JSON, prints each as
/// `<tool>: CHECK FAILED: <failure>`, and fails the run if there is any.
pub fn gate(tool: &str, path: &str, text: &str, failures: Option<Vec<String>>) -> ExitCode {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("{tool}: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{tool}: wrote {path}");
    let Some(mut failures) = failures else {
        return ExitCode::SUCCESS;
    };
    if !is_well_formed_json(text) {
        failures.push(format!("{path} is not well-formed JSON"));
    }
    for f in &failures {
        eprintln!("{tool}: CHECK FAILED: {f}");
    }
    if failures.is_empty() {
        println!("{tool}: check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Whether `text` is one well-formed JSON value (syntax only; see the
/// [module docs](self) for the grammar).
pub fn is_well_formed_json(text: &str) -> bool {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    if !p.value() {
        return false;
    }
    p.skip_ws();
    p.pos == p.bytes.len()
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn lit(&mut self, s: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(s.as_bytes());
        self.pos += if hit { s.len() } else { 0 };
        hit
    }

    fn value(&mut self) -> bool {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.eat(b'{') && self.members(b'}', Self::pair),
            Some(b'[') => self.eat(b'[') && self.members(b']', Self::value),
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true"),
            Some(b'f') => self.lit("false"),
            Some(b'n') => self.lit("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    /// An object's or array's members after its opening bracket: none, or
    /// `member`s separated by commas, then `close`.
    fn members(&mut self, close: u8, member: fn(&mut Self) -> bool) -> bool {
        self.skip_ws();
        if self.eat(close) {
            return true;
        }
        loop {
            if !member(self) {
                return false;
            }
            self.skip_ws();
            if !self.eat(b',') {
                return self.eat(close);
            }
        }
    }

    /// An object member: a string key, `:`, a value.
    fn pair(&mut self) -> bool {
        self.skip_ws();
        if !self.string() {
            return false;
        }
        self.skip_ws();
        self.eat(b':') && self.value()
    }

    fn string(&mut self) -> bool {
        if !self.eat(b'"') {
            return false;
        }
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return true,
                b'\\' => {
                    // `\uXXXX` takes four hex digits; the other escapes none.
                    let len = match self.peek() {
                        Some(b'u') => 5,
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => 1,
                        _ => return false,
                    };
                    let hex = self.bytes.get(self.pos + 1..self.pos + len);
                    if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                        return false;
                    }
                    self.pos += len;
                }
                // A control byte must be escaped.
                0..=0x1f => return false,
                _ => {}
            }
        }
        false
    }

    /// RFC 8259: `-`? then `0` or `[1-9][0-9]*`, then an optional
    /// fraction and an optional exponent, each with at least one digit.
    fn number(&mut self) -> bool {
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return false;
        }
        if self.eat(b'.') && !self.digits() {
            return false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            return self.digits();
        }
        true
    }

    /// Consumes a run of digits; false when there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_nest_at_their_depth() {
        let text = document(|w| {
            w.object(Layout::Lines, |w| {
                w.field("s", "a\"b\\c\n\u{1}").field("n", None::<u64>);
                w.key("row").object(Layout::Inline, |w| {
                    w.field("x", 1.5)
                        .field("inf", f64::INFINITY)
                        .field("t", true);
                    w.key("v").array(Layout::Inline, |w| {
                        w.value(1u64).value(-2).value(0.1 + 0.2);
                    });
                    w.key("e").array(Layout::Inline, |_| {});
                });
                w.key("inner").object(Layout::Lines, |w| {
                    w.field("k", 7usize);
                    w.key("empty").array(Layout::Lines, |_| {});
                });
            });
        });
        let expected = "{\n  \"s\": \"a\\\"b\\\\c\\n\\u0001\",\n  \"n\": null,\n  \
            \"row\": {\"x\": 1.5, \"inf\": null, \"t\": true, \"v\": [1, -2, 0.30000000000000004], \
            \"e\": []},\n  \"inner\": {\n    \"k\": 7,\n    \"empty\": [\n    ]\n  }\n}\n";
        assert_eq!(text, expected);
        assert!(is_well_formed_json(&text));
    }

    #[test]
    fn a_bare_inline_object_has_no_newline() {
        let mut w = JsonWriter::default();
        w.object(Layout::Inline, |w| {
            w.field("a", 1u64).field("b", 2u64);
        });
        assert_eq!(w.finish(), "{\"a\": 1, \"b\": 2}");
    }

    #[test]
    fn json_checker_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2,]",
            "{\"a\" 1}",
            "nulll",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "{\"bad\\escape\": 1}",
            "{\"a\": -}",
            "[-]",
            "[1., 01, 1e]",
            "[1.]",
            "[01]",
            "[1e]",
            "[1e+]",
            "[-01]",
            "\"raw\nnewline\"",
            "\"raw\ttab\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\x\"",
            "{\"a\": 1,}",
            "[,]",
            "{1: 2}",
            "[1 2]",
            "[tru]",
        ] {
            assert!(!is_well_formed_json(bad), "accepted: {bad:?}");
        }
        for good in [
            "null",
            "-1.5e-3",
            "[0, -0, 0.5, 10, 1E+2, 2.5e-10, 18446744073709551615]",
            "\"escaped\\nnewline\"",
            "[]",
            "{}",
            " { \"a\" : [ ] , \"b\" : { } } ",
            "{\"a\": [1, {\"b\": \"\\u00e9\"}], \"c\": true}",
        ] {
            assert!(is_well_formed_json(good), "rejected: {good:?}");
        }
    }

    #[test]
    fn committed_artifacts_are_well_formed() {
        for (name, text) in [
            (
                "BENCH_trace.json",
                include_str!("../../../BENCH_trace.json"),
            ),
            (
                "BENCH_serve.json",
                include_str!("../../../BENCH_serve.json"),
            ),
            (
                "BENCH_search.json",
                include_str!("../../../BENCH_search.json"),
            ),
            (
                "BENCH_fusion.json",
                include_str!("../../../BENCH_fusion.json"),
            ),
            (
                "BENCH_interp.json",
                include_str!("../../../BENCH_interp.json"),
            ),
        ] {
            assert!(is_well_formed_json(text), "{name} is not well-formed");
        }
    }
}
