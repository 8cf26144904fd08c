//! Random input generation: valid logs, patterns over their alphabet,
//! and adversarial *invalid* record sets violating Definition 2.

use rand::{rngs::StdRng, Rng};

use wlq_log::{attrs, Activity, AttrMap, Log, LogBuilder, LogRecord};
use wlq_pattern::{CmpOp, Op, Pattern, PatternGenConfig, Predicate, Scope};

/// The activity alphabet used by generated logs and patterns, `T0..Tk`.
#[must_use]
pub fn alphabet(size: usize) -> Vec<String> {
    (0..size).map(|i| format!("T{i}")).collect()
}

/// Generates a random valid log: 1–6 interleaved instances, each with a
/// random trace over a small alphabet, some instances closed by `END`
/// and some left running, occasional `balance` inputs and outputs so
/// predicates have something to look at.
///
/// The builder maintains Definition 2 by construction, so the result is
/// valid for any random choices.
pub fn random_log(rng: &mut StdRng) -> Log {
    let alphabet_size = rng.gen_range(2..=5usize);
    let names = alphabet(alphabet_size);
    let instances = rng.gen_range(1..=6usize);
    let events = rng.gen_range(0..=30usize);

    let mut b = LogBuilder::new();
    let mut open: Vec<wlq_log::Wid> = (0..instances).map(|_| b.start_instance()).collect();
    for _ in 0..events {
        if open.is_empty() {
            break;
        }
        let slot = rng.gen_range(0..open.len());
        let wid = open[slot];
        if rng.gen_bool(0.08) {
            // Close this instance for good.
            b.end_instance(wid).expect("instance is open");
            open.swap_remove(slot);
            continue;
        }
        let name = &names[rng.gen_range(0..names.len())];
        let balance = |rng: &mut StdRng| {
            if rng.gen_bool(0.3) {
                attrs! { "balance" => rng.gen_range(0..10_000i64) }
            } else {
                AttrMap::new()
            }
        };
        let (input, output) = (balance(rng), balance(rng));
        b.append(wid, name.as_str(), input, output)
            .expect("instance is open");
    }
    b.build().expect("builder wrote at least the START records")
}

/// Generates a random pattern over `log`'s alphabet (plus one activity
/// the log never executes, so "no match" and `¬t` cases are exercised).
/// Some atoms carry a predicate on `balance` or on an attribute no
/// record has.
pub fn random_pattern_for(rng: &mut StdRng, log: &Log) -> Pattern {
    let mut names: Vec<String> = log
        .activities()
        .iter()
        .map(|a| a.as_str().to_string())
        .filter(|a| a != "START" && a != "END")
        .collect();
    names.push("Zmissing".to_string());
    // Occasionally query the boundary markers directly.
    if rng.gen_bool(0.2) {
        names.push("START".to_string());
        names.push("END".to_string());
    }
    let config = PatternGenConfig {
        alphabet: names,
        max_depth: rng.gen_range(1..=4usize),
        branch_prob: 0.7,
        negation_prob: 0.25,
        ops: vec![Op::Consecutive, Op::Sequential, Op::Choice, Op::Parallel],
    };
    let pattern = wlq_pattern::random_pattern(rng, &config);
    with_predicates(rng, pattern)
}

/// Attaches a random predicate to about a quarter of `pattern`'s atoms.
fn with_predicates(rng: &mut StdRng, pattern: Pattern) -> Pattern {
    match pattern {
        Pattern::Atom(atom) if rng.gen_bool(0.25) => {
            let k = rng.gen_range(0..10_000i64);
            let predicate = match rng.gen_range(0..3) {
                0 => Predicate::new("balance", CmpOp::Ge, k).scoped(Scope::Output),
                1 => Predicate::new("balance", CmpOp::Lt, k).scoped(Scope::Input),
                _ => {
                    let op = if rng.gen_bool(0.5) {
                        CmpOp::Eq
                    } else {
                        CmpOp::Ne
                    };
                    Predicate::new("zmissing", op, k)
                }
            };
            Pattern::Atom(atom.with_predicate(predicate))
        }
        Pattern::Binary { op, left, right } => Pattern::binary(
            op,
            with_predicates(rng, *left),
            with_predicates(rng, *right),
        ),
        atom => atom,
    }
}

/// The Definition 2 violation an [`invalid_records`] sample carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidKind {
    /// No records at all (a log must be nonempty).
    Empty,
    /// Two records share an lsn (condition 1).
    DuplicateLsn,
    /// The lsns are not exactly `1..=|L|` (condition 1).
    LsnGap,
    /// `is-lsn = 1` without `START`, or `START` elsewhere (condition 2).
    StartMismatch,
    /// An instance's is-lsns skip a value (condition 3).
    NonConsecutiveIsLsn,
    /// A record appears after its instance's `END` (condition 4).
    RecordAfterEnd,
}

impl InvalidKind {
    /// All violation kinds, for round-robin coverage.
    pub const ALL: [InvalidKind; 6] = [
        InvalidKind::Empty,
        InvalidKind::DuplicateLsn,
        InvalidKind::LsnGap,
        InvalidKind::StartMismatch,
        InvalidKind::NonConsecutiveIsLsn,
        InvalidKind::RecordAfterEnd,
    ];
}

fn rebuild(r: &LogRecord, lsn: u64, is_lsn: u32, activity: Option<&Activity>) -> LogRecord {
    LogRecord::new(
        lsn,
        r.wid(),
        is_lsn,
        activity.unwrap_or_else(|| r.activity()).clone(),
        r.input().clone(),
        r.output().clone(),
    )
}

/// Produces a record set that violates Definition 2 in the way `kind`
/// describes, by mutating a freshly generated valid log. `Log::new`
/// must reject every sample with a typed [`wlq_log::LogError`].
pub fn invalid_records(rng: &mut StdRng, kind: InvalidKind) -> Vec<LogRecord> {
    let base = random_log(rng);
    let mut records: Vec<LogRecord> = base.records().to_vec();
    match kind {
        InvalidKind::Empty => Vec::new(),
        InvalidKind::DuplicateLsn => {
            let i = rng.gen_range(0..records.len());
            let own = records[i].lsn().get();
            let stolen = records[rng.gen_range(0..records.len())].lsn().get();
            // Guarantee a real mutation even if we stole our own lsn:
            // wrap to another record's lsn (lsns are exactly 1..=|L|),
            // or — for a single-record log — to a gap at 2, which is
            // equally invalid (condition 1 either way).
            let target = if stolen != own {
                stolen
            } else if records.len() == 1 {
                2
            } else {
                (own % records.len() as u64) + 1
            };
            records[i] = rebuild(&records[i], target, records[i].is_lsn().get(), None);
            records
        }
        InvalidKind::LsnGap => {
            let i = rng.gen_range(0..records.len());
            let beyond = records.len() as u64 + 1 + rng.gen_range(0..5u64);
            records[i] = rebuild(&records[i], beyond, records[i].is_lsn().get(), None);
            records
        }
        InvalidKind::StartMismatch => {
            let i = rng.gen_range(0..records.len());
            let r = &records[i];
            let mutated = if r.is_start() {
                // START demoted to a later slot of its instance.
                rebuild(r, r.lsn().get(), 2, None)
            } else {
                // A task record claiming slot 1 without being START.
                rebuild(r, r.lsn().get(), 1, None)
            };
            records[i] = mutated;
            records
        }
        InvalidKind::NonConsecutiveIsLsn => {
            let i = rng.gen_range(0..records.len());
            let r = &records[i];
            let skipped = r.is_lsn().get() + 1 + rng.gen_range(1..4u32);
            records[i] = rebuild(r, r.lsn().get(), skipped, None);
            records
        }
        InvalidKind::RecordAfterEnd => {
            // Close the first instance, then keep talking to it.
            let wid = base.wids().next().expect("log is nonempty");
            let next_is = base.instance_len(wid) as u32 + 1;
            let next_lsn = records.len() as u64 + 1;
            records.push(LogRecord::end(next_lsn, wid, next_is));
            records.push(LogRecord::new(
                next_lsn + 1,
                wid,
                next_is + 1,
                "Tlate",
                AttrMap::new(),
                AttrMap::new(),
            ));
            records
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_logs_are_valid_and_deterministic() {
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let log = random_log(&mut rng);
            // Re-validate through the public constructor.
            let revalidated = Log::new(log.records().to_vec()).expect("generated log is valid");
            assert_eq!(revalidated, log);
            // Same seed, same log.
            let mut rng2 = StdRng::seed_from_u64(seed);
            assert_eq!(random_log(&mut rng2), log);
        }
    }

    #[test]
    fn generated_patterns_use_the_log_alphabet() {
        let mut rng = StdRng::seed_from_u64(3);
        let log = random_log(&mut rng);
        for _ in 0..20 {
            let p = random_pattern_for(&mut rng, &log);
            // Round-trips through the parser (also proves printability).
            let reparsed: Pattern = p.to_string().parse().expect("generated pattern reparses");
            assert_eq!(reparsed, p);
        }
    }

    #[test]
    fn every_invalid_kind_is_rejected_with_a_typed_error() {
        for seed in 0..30u64 {
            for kind in InvalidKind::ALL {
                let mut rng = StdRng::seed_from_u64(seed);
                let records = invalid_records(&mut rng, kind);
                let err = Log::new(records).expect_err("mutated records must be rejected");
                // The error is a structured LogError, renderable.
                assert!(!err.to_string().is_empty(), "{kind:?}: {err:?}");
            }
        }
    }
}
