//! CSV serialization of logs.
//!
//! Six columns: `lsn,wid,is_lsn,activity,input,output`. The attribute-map
//! columns hold `name=value` pairs separated by `;` and are quoted when
//! they contain commas, quotes, or newlines (RFC 4180-style doubling of
//! quotes). A small hand-rolled CSV reader/writer keeps the crate free of
//! external parsing dependencies.

use std::borrow::Cow;

use super::{split_entries, Interner};
use crate::attrs::AttrMap;
use crate::error::ParseLogError;
use crate::log::Log;
use crate::record::LogRecord;

/// Renders a log as CSV with a header row.
#[must_use]
pub fn write_csv(log: &Log) -> String {
    let mut out = String::from("lsn,wid,is_lsn,activity,input,output\n");
    for r in log.iter() {
        out.push_str(&r.lsn().to_string());
        out.push(',');
        out.push_str(&r.wid().to_string());
        out.push(',');
        out.push_str(&r.is_lsn().to_string());
        out.push(',');
        push_field(&mut out, r.activity().as_str());
        out.push(',');
        r.peek_maps(|input, output| {
            push_field(&mut out, &attr_map_field(input));
            out.push(',');
            push_field(&mut out, &attr_map_field(output));
        });
        out.push('\n');
    }
    out
}

fn attr_map_field(map: &AttrMap) -> String {
    super::render_map(map, ";")
}

fn push_field(out: &mut String, field: &str) {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Parses a log from CSV produced by [`write_csv`] (or compatible).
///
/// Unquoted fields are borrowed slices of `text`; names and string values
/// are interned as in [`read_text`](super::text::read_text).
///
/// # Errors
///
/// Returns [`ParseLogError`] on malformed rows or an invalid log.
pub fn read_csv(text: &str) -> Result<Log, ParseLogError> {
    let mut records = Vec::new();
    let mut interner = Interner::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() || (line_no == 1 && line.starts_with("lsn")) {
            continue;
        }
        let fields = split_csv_line(line, line_no)?;
        if fields.len() != 6 {
            return Err(ParseLogError::BadShape {
                line: line_no,
                message: format!("expected 6 columns, found {}", fields.len()),
            });
        }
        let number_error = |field: &'static str, text: &str| ParseLogError::BadNumber {
            line: line_no,
            field,
            text: text.to_string(),
        };
        let lsn: u64 = fields[0]
            .parse()
            .map_err(|_| number_error("lsn", &fields[0]))?;
        let wid: u64 = fields[1]
            .parse()
            .map_err(|_| number_error("wid", &fields[1]))?;
        let is_lsn: u32 = fields[2]
            .parse()
            .map_err(|_| number_error("is-lsn", &fields[2]))?;
        if fields[3].is_empty() {
            return Err(ParseLogError::BadShape {
                line: line_no,
                message: "activity name is empty".to_string(),
            });
        }
        let input = parse_semi_map(&fields[4], line_no, &mut interner)?;
        let output = parse_semi_map(&fields[5], line_no, &mut interner)?;
        records.push(LogRecord::new(
            lsn,
            wid,
            is_lsn,
            interner.activity(&fields[3]),
            input,
            output,
        ));
    }
    Ok(Log::new(records)?)
}

fn parse_semi_map(
    text: &str,
    line_no: usize,
    interner: &mut Interner,
) -> Result<AttrMap, ParseLogError> {
    let mut map = AttrMap::new();
    if text.trim().is_empty() {
        return Ok(map);
    }
    for pair in split_entries(text, b';') {
        let Some((name, value)) = pair.split_once('=') else {
            return Err(ParseLogError::BadShape {
                line: line_no,
                message: format!("attribute entry {pair:?} is not name=value"),
            });
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(ParseLogError::BadShape {
                line: line_no,
                message: "attribute name is empty".to_string(),
            });
        }
        map.set(interner.attr(name), interner.value(value));
    }
    Ok(map)
}

/// Splits one CSV row. A row without quotes is cut in place; a quoted
/// field (RFC 4180 quote doubling) is copied out unescaped.
fn split_csv_line(line: &str, line_no: usize) -> Result<Vec<Cow<'_, str>>, ParseLogError> {
    if !line.contains('"') {
        return Ok(line.split(',').map(Cow::Borrowed).collect());
    }
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(Cow::Owned(std::mem::take(&mut cur))),
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(ParseLogError::BadShape {
            line: line_no,
            message: "unterminated quoted field".to_string(),
        });
    }
    fields.push(Cow::Owned(cur));
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::record::Lsn;

    #[test]
    fn figure3_round_trips_through_csv() {
        let log = paper::figure3_log();
        let csv = write_csv(&log);
        let back = read_csv(&csv).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn header_is_emitted_once_and_skipped_on_read() {
        let log = paper::figure3_log();
        let csv = write_csv(&log);
        assert!(csv.starts_with("lsn,wid,is_lsn,activity,input,output\n"));
        assert_eq!(csv.lines().count(), 21);
    }

    #[test]
    fn quoted_fields_handle_commas_and_quotes() {
        let fields = split_csv_line(r#"1,"a,b","say ""hi""",c"#, 1).unwrap();
        assert_eq!(fields, vec!["1", "a,b", "say \"hi\"", "c"]);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(split_csv_line(r#"1,"oops"#, 3).is_err());
    }

    #[test]
    fn wrong_column_count_is_rejected() {
        let err = read_csv("1,1,1,START,").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
    }

    #[test]
    fn values_containing_commas_survive() {
        // An attribute value with a comma forces quoting of the map column.
        let mut b = crate::LogBuilder::new();
        let w = b.start_instance();
        b.append(
            w,
            "A",
            crate::attrs! { "note" => "x, y" },
            crate::AttrMap::new(),
        )
        .unwrap();
        let log = b.build().unwrap();
        let back = read_csv(&write_csv(&log)).unwrap();
        assert_eq!(
            back.get(Lsn(2)).unwrap().input().get_or_undefined("note"),
            crate::Value::from("x, y")
        );
    }

    #[test]
    fn bad_attribute_pair_is_rejected() {
        let err = read_csv("1,1,1,START,broken,").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
    }
}
