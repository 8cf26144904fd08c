//! The pipe-separated text format of Figure 3.
//!
//! One record per line, six `|`-separated fields:
//!
//! ```text
//! lsn | wid | is-lsn | activity | αin | αout
//! 4 | 1 | 3 | CheckIn | balance=1000, referId=034d1 | referState=active
//! ```
//!
//! Attribute maps are comma-separated `name=value` pairs, or `-` when
//! empty. A leading header line (starting with `lsn`) is written by
//! [`write_text`] and skipped by [`read_text`]. Attribute names must not
//! contain `=`, `,`, or `|`; values must not contain `,` or `|` (the
//! formats in this crate target the paper's value universe, not arbitrary
//! binary data — use [`crate::io::binary`] for that).

use std::sync::Arc;

use super::{parse_value, split_entries, Interner};
use crate::attrs::AttrMap;
use crate::error::ParseLogError;
use crate::lazy::{Maps, Source};
use crate::log::Log;
use crate::record::LogRecord;

/// Renders a log as a Figure 3-style table with a header line.
///
/// Unlike [`LogRecord`]'s human-oriented `Display`, this renderer quotes
/// attribute values that would otherwise be ambiguous (numeric-looking
/// strings, separators), so [`read_text`] round-trips losslessly.
#[must_use]
pub fn write_text(log: &Log) -> String {
    let mut out = String::from("lsn | wid | is-lsn | t | in | out\n");
    let render = |m: &AttrMap| {
        if m.is_empty() {
            "-".to_string()
        } else {
            super::render_map(m, ", ")
        }
    };
    for r in log.iter() {
        let (input, output) = r.peek_maps(|i, o| (render(i), render(o)));
        out.push_str(&format!(
            "{} | {} | {} | {} | {input} | {output}\n",
            r.lsn(),
            r.wid(),
            r.is_lsn(),
            r.activity(),
        ));
    }
    out
}

/// Parses a log from the text format.
///
/// Fields are borrowed slices of `text`, and activity names are interned,
/// so equal names share one allocation. Every attribute map is checked
/// here, but decoded only when a record's [`input`](LogRecord::input) or
/// [`output`](LogRecord::output) is first read: the log keeps one copy of
/// `text` for that, unless every map is empty.
///
/// # Errors
///
/// Returns [`ParseLogError`] if a line is malformed or the records do not
/// form a valid log (Definition 2).
pub fn read_text(text: &str) -> Result<Log, ParseLogError> {
    // One record per line at most: reserving up front spares the copies
    // (and the doubled peak) of growing a multi-megabyte vector.
    let mut records = Vec::with_capacity(text.bytes().filter(|&b| b == b'\n').count() + 1);
    let mut interner = Interner::default();
    let mut src = None;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with("lsn") {
            continue;
        }
        records.push(parse_line(text, trimmed, line_no, &mut interner, &mut src)?);
    }
    Ok(Log::new(records)?)
}

/// Parses one record from `line`, a slice of `text`. Its maps become
/// ranges of `src`, the copy of `text` made for the first record with a
/// nonempty map.
fn parse_line(
    text: &str,
    line: &str,
    line_no: usize,
    interner: &mut Interner,
    src: &mut Option<Arc<Source>>,
) -> Result<LogRecord, ParseLogError> {
    // Quote-aware split: a '|' inside a quoted attribute value is data.
    let mut fields = [""; 6];
    let mut found = 0;
    for field in split_entries(line, b'|') {
        if let Some(slot) = fields.get_mut(found) {
            *slot = field.trim();
        }
        found += 1;
    }
    if found != 6 {
        return Err(ParseLogError::BadShape {
            line: line_no,
            message: format!("expected 6 '|'-separated fields, found {found}"),
        });
    }
    let lsn: u64 = fields[0].parse().map_err(|_| ParseLogError::BadNumber {
        line: line_no,
        field: "lsn",
        text: fields[0].to_string(),
    })?;
    let wid: u64 = fields[1].parse().map_err(|_| ParseLogError::BadNumber {
        line: line_no,
        field: "wid",
        text: fields[1].to_string(),
    })?;
    let is_lsn: u32 = fields[2].parse().map_err(|_| ParseLogError::BadNumber {
        line: line_no,
        field: "is-lsn",
        text: fields[2].to_string(),
    })?;
    if fields[3].is_empty() {
        return Err(ParseLogError::BadShape {
            line: line_no,
            message: "activity name is empty".to_string(),
        });
    }
    let mut empty = true;
    for map in fields[4..].iter().filter(|map| !is_empty_map(map)) {
        empty = false;
        for entry in entries(map) {
            entry.map_err(|message| ParseLogError::BadShape {
                line: line_no,
                message,
            })?;
        }
    }
    let maps = if empty {
        Maps::empty()
    } else {
        let src = src.get_or_insert_with(|| Arc::new(Source::Text(text.to_owned())));
        let start = |field: &str| field.as_ptr() as usize - text.as_ptr() as usize;
        let (input, output) = (start(fields[4]), start(fields[5]));
        let (input_end, output_end) = (input + fields[4].len(), output + fields[5].len());
        Maps::raw(src, [input, input_end, output, output_end])
    };
    Ok(LogRecord::with_maps(
        lsn,
        wid,
        is_lsn,
        interner.activity(fields[3]),
        maps,
    ))
}

/// Whether a trimmed map field stands for the empty map.
fn is_empty_map(field: &str) -> bool {
    field.is_empty() || field == "-"
}

/// The `(name, value)` entries of a trimmed, nonempty map field, each
/// trimmed, or for a malformed entry the message of its error.
fn entries(field: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    split_entries(field, b',').map(|pair| {
        let pair = pair.trim();
        let Some((name, value)) = pair.split_once('=') else {
            return Err(format!("attribute entry {pair:?} is not name=value"));
        };
        let name = name.trim();
        if name.is_empty() {
            return Err("attribute name is empty".to_string());
        }
        Ok((name, value))
    })
}

/// Decodes a trimmed map field that [`read_text`] has checked.
pub(crate) fn decode_map(field: &str) -> AttrMap {
    if is_empty_map(field) {
        return AttrMap::new();
    }
    entries(field)
        .flatten()
        .map(|(name, value)| (name, parse_value(value, |s| Arc::from(s))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::record::{Lsn, Wid};
    use crate::Value;

    #[test]
    fn figure3_round_trips() {
        let log = paper::figure3_log();
        let text = write_text(&log);
        let back = read_text(&text).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn header_comments_and_blank_lines_are_skipped() {
        let text = "\
lsn | wid | is-lsn | t | in | out
# a comment

1 | 1 | 1 | START | - | -
2 | 1 | 2 | A | x=1 | y=2
";
        let log = read_text(text).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.get(Lsn(2)).unwrap().input().get_or_undefined("x"),
            Value::Int(1)
        );
    }

    #[test]
    fn wrong_field_count_is_reported_with_line_number() {
        let err = read_text("1 | 1 | 1 | START | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { line: 1, .. }));
    }

    #[test]
    fn bad_numbers_name_the_field() {
        let err = read_text("x | 1 | 1 | START | - | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadNumber { field: "lsn", .. }));
        let err = read_text("1 | y | 1 | START | - | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadNumber { field: "wid", .. }));
        let err = read_text("1 | 1 | z | START | - | -").unwrap_err();
        assert!(matches!(
            err,
            ParseLogError::BadNumber {
                field: "is-lsn",
                ..
            }
        ));
    }

    #[test]
    fn malformed_attribute_pairs_are_rejected() {
        let err = read_text("1 | 1 | 1 | START | novalue | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
        let err = read_text("1 | 1 | 1 | START | =1 | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
    }

    #[test]
    fn empty_activity_is_rejected() {
        let err = read_text("1 | 1 | 1 |  | - | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
    }

    #[test]
    fn invalid_log_structure_is_reported() {
        // Valid lines but is-lsn 1 is not START.
        let err = read_text("1 | 1 | 1 | A | - | -").unwrap_err();
        assert!(matches!(err, ParseLogError::Invalid(_)));
    }

    #[test]
    fn values_with_spaces_survive() {
        let text = "1 | 1 | 1 | START | - | -\n2 | 1 | 2 | A | - | hospital=Public Hospital";
        let log = read_text(text).unwrap();
        assert_eq!(
            log.record(Wid(1), 2u32.into())
                .unwrap()
                .output()
                .get_or_undefined("hospital"),
            Value::from("Public Hospital")
        );
    }
}
