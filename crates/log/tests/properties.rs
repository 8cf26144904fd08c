//! Property tests of the log crate: builder validity, serialization
//! round-trips over randomly-shaped logs with arbitrary attribute values,
//! and index consistency.

use proptest::prelude::{
    any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, Strategy,
};

use wlq_log::{io, AttrMap, Log, LogBuilder, LogStats, Value};

/// Arbitrary attribute values covering every kind.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Undefined),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // NaN payload bits are canonicalised: the text formats encode
        // NaN as a token, so only sign and canonical payload survive.
        any::<f64>().prop_map(|x| {
            Value::Float(if x.is_nan() {
                if x.is_sign_negative() {
                    -f64::NAN
                } else {
                    f64::NAN
                }
            } else {
                x
            })
        }),
        "[ -~]{0,12}".prop_map(Value::from), // printable ASCII incl. specials
    ]
}

fn arb_map() -> impl Strategy<Value = AttrMap> {
    prop::collection::vec(("[a-z]{1,6}", arb_value()), 0..4)
        .prop_map(|entries| entries.into_iter().collect())
}

/// A random multi-instance log: per instance, a list of
/// `(activity, input, output)` task records, interleaved round-robin.
fn arb_log() -> impl Strategy<Value = Log> {
    prop::collection::vec(
        prop::collection::vec(("[A-E]", arb_map(), arb_map()), 0..6),
        1..4,
    )
    .prop_map(|instances| {
        let mut b = LogBuilder::new();
        let wids: Vec<_> = instances.iter().map(|_| b.start_instance()).collect();
        let longest = instances.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (i, tasks) in instances.iter().enumerate() {
                if let Some((act, input, output)) = tasks.get(step) {
                    b.append(wids[i], act.as_str(), input.clone(), output.clone())
                        .unwrap();
                }
            }
        }
        // Close every second instance.
        for (i, &wid) in wids.iter().enumerate() {
            if i % 2 == 0 {
                b.end_instance(wid).unwrap();
            }
        }
        b.build().unwrap()
    })
}

proptest! {
    /// Whatever the builder produces, `Log::new` accepts (valid by
    /// construction, revalidated on assembly).
    #[test]
    fn builder_output_is_always_valid(log in arb_log()) {
        let records = log.clone().into_records();
        prop_assert_eq!(Log::new(records).unwrap(), log);
    }

    /// Text, CSV, binary, and XES round-trip arbitrary logs byte-exactly
    /// — including NaN floats, quotes, separators, and ⊥ values.
    #[test]
    fn all_formats_round_trip(log in arb_log()) {
        let text = io::text::write_text(&log);
        prop_assert_eq!(&io::text::read_text(&text).unwrap(), &log);
        let csv = io::csv::write_csv(&log);
        prop_assert_eq!(&io::csv::read_csv(&csv).unwrap(), &log);
        let bin = io::binary::write_binary(&log);
        prop_assert_eq!(&io::binary::read_binary(bin).unwrap(), &log);
        let xes = io::xes::write_xes(&log);
        prop_assert_eq!(&io::xes::read_xes(&xes).unwrap(), &log);
    }

    /// The index agrees with a direct scan for every (wid, activity).
    #[test]
    fn index_matches_direct_scan(log in arb_log()) {
        let index = log.index();
        for wid in log.wids() {
            for activity in log.activities() {
                let scanned: Vec<_> = log
                    .instance(wid)
                    .filter(|r| r.activity() == &activity)
                    .map(wlq_log::LogRecord::is_lsn)
                    .collect();
                prop_assert_eq!(
                    index.postings(wid, activity.as_str()),
                    scanned.as_slice()
                );
                // Complement partitions the instance.
                let complement = index.complement_postings(wid, activity.as_str());
                prop_assert_eq!(
                    complement.len() + scanned.len(),
                    log.instance_len(wid)
                );
            }
        }
    }

    /// Statistics are internally consistent.
    #[test]
    fn stats_are_consistent(log in arb_log()) {
        let stats = LogStats::compute(&log);
        prop_assert_eq!(stats.num_records, log.len());
        prop_assert_eq!(stats.num_instances, log.num_instances());
        let total: usize = stats.activity_counts.values().sum();
        prop_assert_eq!(total, log.len());
        prop_assert!(stats.min_instance_len <= stats.max_instance_len);
        prop_assert!(
            stats.completed_instances <= stats.num_instances,
            "completed > total"
        );
    }

    /// Every prefix of a valid log is valid, and prefixes nest.
    #[test]
    fn prefixes_are_valid_and_monotone(log in arb_log()) {
        let mut previous_len = 0;
        for upto in 1..=log.len() as u64 {
            let prefix = log.prefix(wlq_log::Lsn(upto)).unwrap();
            prop_assert_eq!(prefix.len(), upto as usize);
            prop_assert!(prefix.len() >= previous_len);
            previous_len = prefix.len();
        }
    }

    /// Merging a log with Figure 3 preserves both sides' instance shapes.
    #[test]
    fn merge_preserves_instance_multisets(log in arb_log()) {
        let fig3 = wlq_log::paper::figure3_log();
        let merged = Log::merge([log.clone(), fig3.clone()]).unwrap();
        prop_assert_eq!(merged.len(), log.len() + fig3.len());
        prop_assert_eq!(
            merged.num_instances(),
            log.num_instances() + fig3.num_instances()
        );
        // Per-instance length multiset is preserved.
        let mut expected: Vec<usize> = log
            .wids()
            .map(|w| log.instance_len(w))
            .chain(fig3.wids().map(|w| fig3.instance_len(w)))
            .collect();
        let mut actual: Vec<usize> =
            merged.wids().map(|w| merged.instance_len(w)).collect();
        expected.sort_unstable();
        actual.sort_unstable();
        prop_assert_eq!(expected, actual);
    }
}
