//! The log's one-pass core: the activity index and the statistics that
//! `Log::new` builds while validating must equal a naive recomputation
//! from `records()`, on random valid logs, on Figure 3, on every derived
//! log (projection, merge, prefix, filter) and after every file format's
//! round trip.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use wlq::{
    io, paper, Activity, IsLsn, Log, LogRecord, LogStats, Lsn, PlanStats, Wid, END_ACTIVITY,
};

/// Everything the index and the statistics claim, recomputed from the
/// records alone: each instance's activity sequence, in is-lsn order.
fn sequences(log: &Log) -> BTreeMap<Wid, Vec<Activity>> {
    let mut seqs: BTreeMap<Wid, Vec<Activity>> = BTreeMap::new();
    for r in log.records() {
        seqs.entry(r.wid()).or_default().push(r.activity().clone());
    }
    seqs
}

/// Asserts that `log`'s prebuilt index and statistics equal the naive
/// recomputation.
fn assert_consistent(log: &Log) {
    let seqs = sequences(log);
    let index = log.index();
    assert_eq!(
        index.wids().collect::<Vec<_>>(),
        seqs.keys().copied().collect::<Vec<_>>()
    );
    assert_eq!(index.num_instances(), seqs.len());
    assert_eq!(index.num_records(), log.len());
    // Ids just outside the present ones (and between them) hold nothing.
    let absent = seqs
        .keys()
        .flat_map(|w| [w.get().wrapping_sub(1), w.get().wrapping_add(1)])
        .map(Wid)
        .filter(|w| !seqs.contains_key(w));
    for wid in absent {
        assert_eq!(index.instance_len(wid), 0, "{wid}");
        assert!(index.sequence(wid).is_empty(), "{wid}");
        assert!(index.postings(wid, "START").is_empty(), "{wid}");
        assert!(log.record(wid, IsLsn(1)).is_none(), "{wid}");
        assert!(!log.is_completed(wid), "{wid}");
    }

    let mut names: Vec<Activity> = log.records().iter().map(|r| r.activity().clone()).collect();
    names.sort();
    names.dedup();
    assert_eq!(log.activities(), names);

    // Per instance: postings, complement postings, activity_at, length.
    let missing = "NeverExecuted";
    for (&wid, seq) in &seqs {
        assert_eq!(index.instance_len(wid), seq.len(), "{wid}");
        assert_eq!(log.instance_len(wid), seq.len(), "{wid}");
        for (i, act) in seq.iter().enumerate() {
            let is_lsn = IsLsn(i as u32 + 1);
            assert_eq!(index.activity_at(wid, is_lsn), Some(act));
            let record = log.record(wid, is_lsn).expect("record exists");
            assert_eq!((record.wid(), record.is_lsn()), (wid, is_lsn));
        }
        assert_eq!(index.activity_at(wid, IsLsn(seq.len() as u32 + 1)), None);
        assert_eq!(index.activity_at(wid, IsLsn(0)), None);
        for name in names.iter().map(Activity::as_str).chain([missing]) {
            let hits: Vec<IsLsn> = (1..=seq.len() as u32)
                .map(IsLsn)
                .filter(|p| seq[p.get() as usize - 1] == name)
                .collect();
            let misses: Vec<IsLsn> = (1..=seq.len() as u32)
                .map(IsLsn)
                .filter(|p| seq[p.get() as usize - 1] != name)
                .collect();
            assert_eq!(index.postings(wid, name), hits.as_slice(), "{wid} {name}");
            assert_eq!(index.complement_postings(wid, name), misses, "{wid} {name}");
            if let Some(id) = index.activity_id(name) {
                assert_eq!(index.postings_of(wid, id), hits.as_slice());
                assert_eq!(index.activity(id), name);
            }
        }
        let completed = seq.last().is_some_and(|a| a == END_ACTIVITY);
        assert_eq!(log.is_completed(wid), completed, "{wid}");
    }

    // Whole-log statistics.
    let mut counts: BTreeMap<Activity, usize> = BTreeMap::new();
    for r in log.records() {
        *counts.entry(r.activity().clone()).or_default() += 1;
    }
    let lens = seqs.values().map(Vec::len);
    let expected = LogStats {
        num_records: log.len(),
        num_instances: seqs.len(),
        completed_instances: seqs
            .values()
            .filter(|s| s.last().is_some_and(|a| a == END_ACTIVITY))
            .count(),
        activity_counts: counts.clone(),
        min_instance_len: lens.clone().min().unwrap_or(0),
        max_instance_len: lens.max().unwrap_or(0),
    };
    assert_eq!(LogStats::compute(log), expected);
    assert_eq!(index.completed_instances(), expected.completed_instances);
    assert_eq!(index.min_instance_len(), expected.min_instance_len);
    assert_eq!(index.max_instance_len(), expected.max_instance_len);

    // Per-activity counts and per-instance posting maxima.
    let plan_stats = PlanStats::compute(log, index);
    for (name, &count) in &counts {
        let id = index
            .activity_id(name.as_str())
            .expect("executed activity has an id");
        assert_eq!(index.activity_count(id), count, "{name}");
        assert_eq!(index.total_count(name.as_str()), count, "{name}");
        let max = seqs
            .values()
            .map(|s| s.iter().filter(|a| *a == name).count())
            .max()
            .unwrap_or(0);
        assert_eq!(index.max_instance_postings(id), max, "{name}");
        assert_eq!(
            plan_stats.max_instance_postings(name.as_str()),
            max,
            "{name}"
        );
    }
    assert_eq!(index.total_count(missing), 0);
    assert_eq!(plan_stats.max_instance_postings(missing), 0);
}

/// Asserts that two logs' indexes and statistics say the same things,
/// name by name (activity ids are per log).
fn assert_same_index(a: &Log, b: &Log) {
    assert_eq!(LogStats::compute(a), LogStats::compute(b));
    let (ia, ib) = (a.index(), b.index());
    assert_eq!(ia.wids().collect::<Vec<_>>(), ib.wids().collect::<Vec<_>>());
    for wid in ia.wids() {
        let names = |log: &Log| -> Vec<Activity> {
            log.index()
                .sequence(wid)
                .iter()
                .map(|&id| log.index().activity(id).clone())
                .collect()
        };
        assert_eq!(names(a), names(b), "{wid}");
        for name in a.activities() {
            assert_eq!(
                ia.postings(wid, name.as_str()),
                ib.postings(wid, name.as_str())
            );
        }
    }
    for name in a.activities() {
        let max = |log: &Log| {
            let index = log.index();
            index
                .activity_id(name.as_str())
                .map(|id| index.max_instance_postings(id))
        };
        assert_eq!(max(a), max(b), "{name}");
    }
}

/// The same records with every wid mapped through `f` (which must be
/// injective): exercises sparse and out-of-order instance ids.
fn rewid(log: &Log, f: impl Fn(u64) -> u64) -> Log {
    let records = log
        .records()
        .iter()
        .map(|r| {
            LogRecord::new(
                r.lsn(),
                f(r.wid().get()),
                r.is_lsn(),
                r.activity().clone(),
                r.input().clone(),
                r.output().clone(),
            )
        })
        .collect();
    Log::new(records).expect("renumbering wids keeps a log valid")
}

fn random_log(seed: u64) -> Log {
    wlq_fuzz::random_log(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn figure3_index_and_stats_match_recomputation() {
    let log = paper::figure3_log();
    assert_consistent(&log);
    assert_consistent(&rewid(&log, |w| 1000 - 10 * w));
}

#[test]
fn unsorted_input_builds_the_same_index() {
    let log = paper::figure3_log();
    let mut records = log.records().to_vec();
    records.reverse();
    let shuffled = Log::new(records).unwrap();
    assert_eq!(shuffled, log);
    assert_same_index(&shuffled, &log);
    assert_consistent(&shuffled);
}

#[test]
fn derived_logs_keep_the_index_consistent() {
    for seed in 0..40 {
        let log = random_log(seed);
        for wid in log.wids() {
            assert_consistent(&log.project_instance(wid).unwrap());
        }
        assert_consistent(&Log::merge([log.clone(), paper::figure3_log(), log.clone()]).unwrap());
        for upto in 1..=log.len() as u64 {
            assert_consistent(&log.prefix(Lsn(upto)).unwrap());
        }
        let first = log.wids().next().unwrap();
        assert_consistent(&log.filter_instances(|w| w != first).unwrap_or(log.clone()));
        assert_consistent(&log.filter_instances(|w| w.get() % 2 == 1).unwrap());
    }
}

#[test]
fn every_format_round_trips_to_an_equal_index() {
    for seed in 0..40 {
        let log = random_log(seed);
        let text = io::text::read_text(&io::text::write_text(&log)).unwrap();
        let binary = io::binary::read_binary(io::binary::write_binary(&log)).unwrap();
        let csv = io::csv::read_csv(&io::csv::write_csv(&log)).unwrap();
        let xes = io::xes::read_xes(&io::xes::write_xes(&log)).unwrap();
        for back in [&text, &binary, &csv, &xes] {
            assert_eq!(back, &log, "seed {seed}");
            assert_same_index(back, &log);
        }
    }
    let log = paper::figure3_log();
    let text = io::text::read_text(&io::text::write_text(&log)).unwrap();
    assert_same_index(&text, &log);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random valid logs (the differential fuzzer's generator), with dense
    /// and with sparse, descending instance ids.
    #[test]
    fn prebuilt_index_and_stats_equal_naive_recomputation(seed in any::<u64>()) {
        let log = random_log(seed);
        assert_consistent(&log);
        assert_consistent(&rewid(&log, |w| u64::MAX - 3 * w));
    }
}
