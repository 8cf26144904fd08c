//! Log serialization: a human-readable text table, CSV, and a compact
//! binary encoding.
//!
//! There is no standard interchange structure for workflow logs (the paper
//! notes real systems spread them over several stores), so this module
//! provides three self-describing formats:
//!
//! * [`text`] — the pipe-separated table of the paper's Figure 3; good for
//!   eyeballing and for docs/tests.
//! * [`csv`] — comma-separated with quoting; good for spreadsheets and
//!   external tools.
//! * [`binary`] — length-prefixed binary built on [`bytes`]; good for
//!   large benchmark logs.
//! * [`xes`] — a pragmatic subset of the IEEE XES standard, for
//!   interchange with process-mining tools (ProM, pm4py).

pub mod binary;
pub mod csv;
pub mod text;
pub mod xes;

use std::collections::HashSet;
use std::sync::Arc;

use crate::names::{Activity, AttrName};
use crate::{AttrMap, Value};

/// Renders a value for the text/CSV formats. Strings that would not
/// re-parse as the same string (they look numeric/boolean, are empty,
/// have surrounding whitespace, or contain separator characters) are
/// double-quoted with backslash escapes; everything else uses the plain
/// [`Value`] display.
pub(crate) fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) if needs_quoting(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                if c == '"' || c == '\\' {
                    out.push('\\');
                }
                out.push(c);
            }
            out.push('"');
            out
        }
        Value::Float(x) => {
            // Floats must re-parse as floats: integral values get a
            // trailing `.0`, non-finite values use the reserved tokens
            // recognised by `Interner::value`.
            if x.is_nan() {
                if x.is_sign_negative() {
                    "-NaN".to_string()
                } else {
                    "NaN".to_string()
                }
            } else if x.is_infinite() {
                if *x > 0.0 {
                    "inf".to_string()
                } else {
                    "-inf".to_string()
                }
            } else {
                let mut s = format!("{x}");
                if !s.contains(['.', 'e', 'E']) {
                    s.push_str(".0");
                }
                s
            }
        }
        other => other.to_string(),
    }
}

fn needs_quoting(s: &str) -> bool {
    if s.is_empty() || s.trim() != s {
        return true;
    }
    if s.contains(['"', '\\', ',', ';', '|', '=']) {
        return true;
    }
    // The reserved non-finite float tokens must stay floats.
    if matches!(s, "NaN" | "-NaN" | "inf" | "-inf") {
        return true;
    }
    // Would it re-parse as a non-string value? (Value's FromStr is
    // infallible: Err = Infallible.)
    let reparsed: Value = match s.parse() {
        Ok(v) => v,
        Err(never) => match never {},
    };
    !matches!(reparsed, Value::Str(_))
}

/// Shares one allocation between equal names and string values while a
/// reader builds a log: a 184k-record log holds a few dozen distinct
/// activity and attribute names, and its string values repeat (states,
/// hospitals, an instance's referral id), so each distinct string is
/// allocated once and every later occurrence is a reference-count bump.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    activities: HashSet<Activity>,
    attrs: HashSet<AttrName>,
    strings: HashSet<Arc<str>>,
}

impl Interner {
    /// The shared activity name `s`.
    pub(crate) fn activity(&mut self, s: &str) -> Activity {
        if let Some(a) = self.activities.get(s) {
            return a.clone();
        }
        let a = Activity::new(s);
        self.activities.insert(a.clone());
        a
    }

    /// The shared attribute name `s`.
    pub(crate) fn attr(&mut self, s: &str) -> AttrName {
        if let Some(a) = self.attrs.get(s) {
            return a.clone();
        }
        let a = AttrName::new(s);
        self.attrs.insert(a.clone());
        a
    }

    /// The shared string `s`.
    pub(crate) fn string(&mut self, s: &str) -> Arc<str> {
        if let Some(a) = self.strings.get(s) {
            return Arc::clone(a);
        }
        let a: Arc<str> = Arc::from(s);
        self.strings.insert(Arc::clone(&a));
        a
    }

    /// [`parse_value`] with shared string payloads.
    pub(crate) fn value(&mut self, s: &str) -> Value {
        parse_value(s, |s| self.string(s))
    }
}

/// Parses a value rendered by [`render_value`]: a double-quoted token is
/// unescaped into a string; anything else goes through [`Value`]'s
/// `FromStr`. `string` makes the payload of a string value.
pub(crate) fn parse_value(s: &str, string: impl FnOnce(&str) -> Arc<str>) -> Value {
    let s = s.trim();
    match s {
        "NaN" => return Value::Float(f64::NAN),
        "-NaN" => return Value::Float(-f64::NAN),
        "inf" => return Value::Float(f64::INFINITY),
        "-inf" => return Value::Float(f64::NEG_INFINITY),
        _ => {}
    }
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        let inner = &s[1..s.len() - 1];
        if !inner.contains('\\') {
            return Value::Str(string(inner));
        }
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                if let Some(next) = chars.next() {
                    out.push(next);
                }
            } else {
                out.push(c);
            }
        }
        return Value::Str(string(&out));
    }
    crate::value::parse_scalar(s).unwrap_or_else(|| Value::Str(string(s)))
}

/// Renders an attribute map as `name=value` entries joined by `sep`
/// (empty string for an empty map).
pub(crate) fn render_map(map: &AttrMap, sep: &str) -> String {
    let mut out = String::new();
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(k.as_str());
        out.push('=');
        out.push_str(&render_value(v));
    }
    out
}

/// Splits `s` on the ASCII separator `sep`, ignoring separators inside
/// double-quoted values (with backslash escapes). The pieces borrow from
/// `s` and are not trimmed; `n` separators outside quotes give `n + 1`
/// pieces.
pub(crate) fn split_entries(s: &str, sep: u8) -> SplitEntries<'_> {
    SplitEntries {
        rest: Some(s),
        sep,
        quoted: s.contains('"'),
    }
}

/// The iterator of [`split_entries`].
pub(crate) struct SplitEntries<'a> {
    rest: Option<&'a str>,
    sep: u8,
    /// Whether the input holds a quote at all; most lines do not, and are
    /// cut with a plain (vectorized) search for the separator.
    quoted: bool,
}

impl<'a> Iterator for SplitEntries<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest?;
        if !self.quoted {
            return Some(match s.find(char::from(self.sep)) {
                Some(i) => {
                    self.rest = Some(&s[i + 1..]);
                    &s[..i]
                }
                None => {
                    self.rest = None;
                    s
                }
            });
        }
        let (mut in_quotes, mut escaped) = (false, false);
        // The separator, quote and backslash are ASCII, so a byte match is
        // never inside a multi-byte character and `i` is a char boundary.
        for (i, &b) in s.as_bytes().iter().enumerate() {
            if escaped {
                escaped = false;
                continue;
            }
            match b {
                b'\\' if in_quotes => escaped = true,
                b'"' => in_quotes = !in_quotes,
                _ if b == self.sep && !in_quotes => {
                    self.rest = Some(&s[i + 1..]);
                    return Some(&s[..i]);
                }
                _ => {}
            }
        }
        self.rest = None;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_values_render_unquoted() {
        assert_eq!(render_value(&Value::Int(42)), "42");
        assert_eq!(render_value(&Value::from("active")), "active");
        assert_eq!(
            render_value(&Value::from("Public Hospital")),
            "Public Hospital"
        );
        assert_eq!(render_value(&Value::Undefined), "⊥");
    }

    #[test]
    fn ambiguous_strings_are_quoted() {
        // Numeric-looking strings (hex ids with only digit/e characters).
        assert_eq!(render_value(&Value::from("12e34")), "\"12e34\"");
        assert_eq!(render_value(&Value::from("12345")), "\"12345\"");
        assert_eq!(render_value(&Value::from("true")), "\"true\"");
        assert_eq!(render_value(&Value::from("")), "\"\"");
        assert_eq!(render_value(&Value::from("a,b")), "\"a,b\"");
        assert_eq!(render_value(&Value::from("x=y")), "\"x=y\"");
    }

    #[test]
    fn rendered_values_round_trip() {
        for v in [
            Value::Int(-3),
            Value::Float(2.5),
            Value::Bool(false),
            Value::Undefined,
            Value::from("plain"),
            Value::from("12e34"),
            Value::from("999"),
            Value::from("with \"quotes\" and \\slash"),
            Value::from("a;b,c|d=e"),
            Value::from(" padded "),
            // Floats that print like integers or reserved tokens.
            Value::Float(0.0),
            Value::Float(-7.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            // Strings colliding with the reserved float tokens.
            Value::from("NaN"),
            Value::from("-NaN"),
            Value::from("inf"),
            Value::from("-inf"),
            // Strings containing the field separator.
            Value::from("a|b"),
        ] {
            let rendered = render_value(&v);
            assert_eq!(
                Interner::default().value(&rendered),
                v,
                "failed on {rendered}"
            );
        }
    }

    #[test]
    fn integral_floats_render_distinguishably_from_ints() {
        assert_eq!(render_value(&Value::Float(3.0)), "3.0");
        assert_eq!(render_value(&Value::Int(3)), "3");
    }

    #[test]
    fn split_entries_respects_quotes() {
        let entries: Vec<&str> = split_entries(r#"a="x,y", b=2"#, b',').collect();
        assert_eq!(entries, vec![r#"a="x,y""#, " b=2"]);
        let entries: Vec<&str> = split_entries(r#"a="he said \";\"";b=1"#, b';').collect();
        assert_eq!(entries.len(), 2);
        let entries: Vec<&str> = split_entries("x||y|", b'|').collect();
        assert_eq!(entries, vec!["x", "", "y", ""]);
    }
}
