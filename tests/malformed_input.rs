//! Malformed-input coverage at the facade level: parser errors carry
//! line positions, `Log::merge` handles wid collisions and renumbers
//! lsns, and the structural validators surface typed errors (never
//! panics) for every Definition 2 violation reachable through parsing.

use wlq::io::binary::read_binary;
use wlq::{attrs, io::text::read_text, IsLsn, Log, LogBuilder, LogError, Lsn, ParseLogError, Wid};

fn two_instance_log(first: &str, second: &str) -> Log {
    let mut b = LogBuilder::new();
    let w1 = b.start_instance();
    let w2 = b.start_instance();
    b.append(w1, first, attrs! {}, attrs! {}).unwrap();
    b.append(w2, second, attrs! {}, attrs! {}).unwrap();
    b.end_instance(w1).unwrap();
    b.end_instance(w2).unwrap();
    b.build().unwrap()
}

// ---------------------------------------------------------------- parser

#[test]
fn parse_errors_carry_the_offending_line_number() {
    // Line 1 is the header, line 2 is fine, line 3 is short a field.
    let text = "\
lsn | wid | is-lsn | t | in | out
1 | 1 | 1 | START | - | -
2 | 1 | 2 | A | -
";
    let err = read_text(text).unwrap_err();
    match err {
        ParseLogError::BadShape { line, ref message } => {
            assert_eq!(line, 3);
            assert!(
                message.contains("6"),
                "message explains the shape: {message}"
            );
        }
        other => panic!("expected BadShape, got {other:?}"),
    }
    assert!(err.to_string().starts_with("line 3:"), "{err}");
}

#[test]
fn blank_and_comment_lines_still_count_for_positions() {
    let text = "\
# comment on line 1

3 | 1 | 1 | START | - | -
";
    // Line 3 holds the bad record (lsn 3 in a 1-record log).
    let err = read_text(text).unwrap_err();
    assert!(matches!(
        err,
        ParseLogError::Invalid(LogError::LsnGap { .. })
    ));
}

#[test]
fn bad_numbers_report_line_field_and_text() {
    let text = "1 | 1 | 1 | START | - | -\n2 | one | 2 | A | - | -";
    match read_text(text).unwrap_err() {
        ParseLogError::BadNumber { line, field, text } => {
            assert_eq!(line, 2);
            assert_eq!(field, "wid");
            assert_eq!(text, "one");
        }
        other => panic!("expected BadNumber, got {other:?}"),
    }
}

#[test]
fn every_definition2_violation_surfaces_as_a_typed_parse_error() {
    type Expect = fn(&LogError) -> bool;
    let cases: [(&str, Expect); 5] = [
        // Two records claim lsn 1.
        (
            "1 | 1 | 1 | START | - | -\n1 | 2 | 1 | START | - | -",
            |e| matches!(e, LogError::DuplicateLsn(Lsn(1))),
        ),
        // lsns {1, 3} are not 1..=2.
        ("1 | 1 | 1 | START | - | -\n3 | 1 | 2 | A | - | -", |e| {
            matches!(e, LogError::LsnGap { .. })
        }),
        // is-lsn 1 without START.
        ("1 | 1 | 1 | A | - | -", |e| {
            matches!(e, LogError::StartMismatch { .. })
        }),
        // Instance skips is-lsn 2.
        ("1 | 1 | 1 | START | - | -\n2 | 1 | 3 | A | - | -", |e| {
            matches!(e, LogError::NonConsecutiveIsLsn { .. })
        }),
        // A record after the instance's END.
        (
            "1 | 1 | 1 | START | - | -\n2 | 1 | 2 | END | - | -\n3 | 1 | 3 | A | - | -",
            |e| matches!(e, LogError::RecordAfterEnd { .. }),
        ),
    ];
    for (text, expected) in cases {
        match read_text(text).unwrap_err() {
            ParseLogError::Invalid(ref e) => {
                assert!(expected(e), "wrong LogError for {text:?}: {e:?}");
            }
            other => panic!("expected Invalid(_) for {text:?}, got {other:?}"),
        }
    }
}

#[test]
fn empty_input_is_an_empty_log_error_not_a_panic() {
    assert!(matches!(
        read_text("").unwrap_err(),
        ParseLogError::Invalid(LogError::Empty)
    ));
    assert!(matches!(
        read_text("# only comments\n\n").unwrap_err(),
        ParseLogError::Invalid(LogError::Empty)
    ));
}

// ------------------------------------------------------ attribute maps
//
// Readers leave attribute maps encoded until first access, but check
// every map while reading: a malformed map fails the read itself, with
// the line (text) or record (binary) that holds it.

fn expect_bad_shape(err: ParseLogError, line: usize, needle: &str) {
    match err {
        ParseLogError::BadShape {
            line: got,
            ref message,
        } => {
            assert_eq!(got, line, "{message}");
            assert!(message.contains(needle), "{message:?} lacks {needle:?}");
        }
        other => panic!("expected BadShape on line {line}, got {other:?}"),
    }
}

#[test]
fn a_text_entry_without_equals_fails_the_read_on_its_line() {
    let text = "\
lsn | wid | is-lsn | t | in | out
1 | 1 | 1 | START | - | -
2 | 1 | 2 | A | x=1 | y=2
3 | 1 | 3 | B | x=1, novalue | -
";
    expect_bad_shape(
        read_text(text).unwrap_err(),
        4,
        "\"novalue\" is not name=value",
    );
}

#[test]
fn an_empty_text_attribute_name_fails_the_read_on_its_line() {
    let text = "1 | 1 | 1 | START | - | -\n2 | 1 | 2 | A | x=1 |  = 5";
    expect_bad_shape(read_text(text).unwrap_err(), 2, "attribute name is empty");
}

/// A binary log of `START` then one record `A` of instance 1 whose input
/// map is `input` (already encoded) and whose output map is empty.
fn binary_log(input: &[u8]) -> Vec<u8> {
    fn record(out: &mut Vec<u8>, lsn: u64, is_lsn: u32, activity: &str, input: &[u8]) {
        out.extend(lsn.to_le_bytes());
        out.extend(1u64.to_le_bytes());
        out.extend(is_lsn.to_le_bytes());
        out.extend((activity.len() as u32).to_le_bytes());
        out.extend(activity.as_bytes());
        out.extend(input);
        out.extend(0u32.to_le_bytes());
    }
    let mut out = b"WLQ1".to_vec();
    out.extend(2u64.to_le_bytes());
    record(&mut out, 1, 1, "START", &0u32.to_le_bytes());
    record(&mut out, 2, 2, "A", input);
    out
}

/// One encoded map entry: the name, then the value's tag and payload.
fn entry(name: &[u8], tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = (name.len() as u32).to_le_bytes().to_vec();
    out.extend(name);
    out.push(tag);
    out.extend(payload);
    out
}

fn map(count: u32, entries: &[Vec<u8>]) -> Vec<u8> {
    let mut out = count.to_le_bytes().to_vec();
    out.extend(entries.concat());
    out
}

#[test]
fn binary_maps_are_checked_while_reading() {
    let int = 7i64.to_le_bytes();
    let good = map(1, &[entry(b"balance", 2, &int)]);
    let log = read_binary(binary_log(&good).into()).unwrap();
    assert_eq!(
        log.get(Lsn(2)).unwrap().input(),
        &attrs! { "balance" => 7i64 }
    );

    let mut string = 2u32.to_le_bytes().to_vec();
    string.extend([0xff, 0xfe]);
    for (what, input) in [
        ("bad value tag", map(1, &[entry(b"balance", 9, &int)])),
        ("non-UTF-8 name", map(1, &[entry(&[0xc3, 0x28], 2, &int)])),
        ("non-UTF-8 string", map(1, &[entry(b"note", 4, &string)])),
        ("truncated map", map(2, &[entry(b"balance", 2, &int)])),
    ] {
        let err = read_binary(binary_log(&input).into()).unwrap_err();
        // The bytes after a corrupt map can never parse as the rest of
        // record 1, so the reader names that record.
        match err {
            ParseLogError::BadShape { line, ref message } => {
                assert_eq!(line, 0, "{what}");
                assert_eq!(message, "truncated record 1", "{what}");
            }
            other => panic!("{what}: expected BadShape, got {other:?}"),
        }
    }
}

// ----------------------------------------------------------------- merge

#[test]
fn merge_remaps_colliding_wids_to_fresh_ones() {
    // Both sources use wids 1 and 2 internally.
    let a = two_instance_log("A1", "A2");
    let b = two_instance_log("B1", "B2");
    let merged = Log::merge([a, b]).unwrap();

    assert_eq!(merged.num_instances(), 4);
    let wids: Vec<Wid> = merged.wids().collect();
    assert_eq!(wids, vec![Wid(1), Wid(2), Wid(3), Wid(4)]);

    // Each original instance survives intact under its new wid: one
    // task record between START and END, with its activity preserved.
    let mut activities: Vec<String> = merged
        .wids()
        .map(|w| {
            assert_eq!(merged.instance_len(w), 3);
            merged
                .record(w, IsLsn(2))
                .unwrap()
                .activity()
                .as_str()
                .to_string()
        })
        .collect();
    activities.sort();
    assert_eq!(activities, ["A1", "A2", "B1", "B2"]);
}

#[test]
fn merge_renumbers_lsns_to_a_single_sequence() {
    let a = two_instance_log("A1", "A2");
    let b = two_instance_log("B1", "B2");
    let total = a.len() + b.len();
    let merged = Log::merge([a, b]).unwrap();

    assert_eq!(merged.len(), total);
    for (i, r) in merged.iter().enumerate() {
        assert_eq!(r.lsn(), Lsn(i as u64 + 1), "lsns are exactly 1..=|L|");
    }
    // The merge result is itself a valid log under the public validator.
    assert!(Log::new(merged.records().to_vec()).is_ok());
}

#[test]
fn merge_interleaves_sources_round_robin() {
    let a = two_instance_log("A1", "A2");
    let b = two_instance_log("B1", "B2");
    let merged = Log::merge([a.clone(), b]).unwrap();
    // Records alternate a, b, a, b while both sources have records left.
    let first_two: Vec<&str> = merged
        .iter()
        .take(2)
        .map(|r| r.activity().as_str())
        .collect();
    assert_eq!(first_two, ["START", "START"]);
    let a_len = a.len();
    let from_a = merged
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .count();
    assert_eq!(from_a, a_len, "even slots come from the first source");
}

#[test]
fn merge_of_no_logs_is_an_empty_error() {
    assert_eq!(Log::merge([]).unwrap_err(), LogError::Empty);
}

#[test]
fn merge_of_one_log_reproduces_its_shape() {
    let a = two_instance_log("A1", "A2");
    let merged = Log::merge([a.clone()]).unwrap();
    assert_eq!(merged.len(), a.len());
    assert_eq!(merged.num_instances(), a.num_instances());
    let acts: Vec<&str> = merged.iter().map(|r| r.activity().as_str()).collect();
    let orig: Vec<&str> = a.iter().map(|r| r.activity().as_str()).collect();
    assert_eq!(acts, orig);
}

// ---------------------------------------------------------- other ops

#[test]
fn prefix_of_length_zero_is_rejected_not_panicking() {
    let log = two_instance_log("A1", "A2");
    assert_eq!(log.prefix(Lsn(0)).unwrap_err(), LogError::Empty);
    // And an over-long prefix clamps to the whole log.
    assert_eq!(log.prefix(Lsn(10_000)).unwrap().len(), log.len());
}

#[test]
fn filtering_out_every_instance_is_rejected_not_panicking() {
    let log = two_instance_log("A1", "A2");
    assert_eq!(
        log.filter_instances(|_| false).unwrap_err(),
        LogError::Empty
    );
}
