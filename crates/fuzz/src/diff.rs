//! Differential evaluation: run one `(log, pattern)` pair under every
//! strategy and report the first disagreement.

use std::fmt;

use wlq_engine::{
    evaluate_parallel, fast_count, profile_evaluation, Evaluator, IncidentSet, Strategy,
    StreamingEvaluator,
};
use wlq_log::{io, Log};
use wlq_pattern::Pattern;

/// A cross-strategy disagreement on one `(log, pattern)` pair.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The strategy that disagreed with the naive reference.
    pub strategy: String,
    /// Incident count under the paper-faithful naive evaluation.
    pub expected: usize,
    /// Incident count (or error text) the diverging strategy produced.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} diverged: naive found {} incident(s), got {}",
            self.strategy, self.expected, self.got
        )
    }
}

fn against(reference: &IncidentSet, name: &str, got: &IncidentSet) -> Option<Divergence> {
    if got == reference {
        None
    } else {
        Some(Divergence {
            strategy: name.to_string(),
            expected: reference.len(),
            got: format!("{} incident(s)", got.len()),
        })
    }
}

/// Evaluates `pattern` over `log` under every strategy and cross-checks
/// the results against the paper-faithful naive evaluation. Returns the
/// first divergence, or `None` when all strategies agree.
///
/// Covered, against the `NaivePaper` oracle (Algorithm 1): `Batch` (the
/// planner with rewrites off) and `Planned` (the cost-based planner) on
/// `evaluate`, `count` and `exists` — `count`/`exists` include the
/// counting-DP routing; parallel evaluation with 1 and 4 workers under
/// `Batch` and `Planned`; a full streaming replay; profiled evaluation
/// with 1 and 4 workers under every strategy (the profiler must be
/// strictly read-only); and — when the pattern is a chain — the
/// `fast_count` DP. The log is also written as text and as binary and
/// read back: the copy must be equal, and NaivePaper and Planned over it
/// must give the reference answer.
#[must_use]
pub fn check(log: &Log, pattern: &Pattern) -> Option<Divergence> {
    let reference = Evaluator::with_strategy(log, Strategy::NaivePaper).evaluate(pattern);

    // Both plans — the tree as written and the planner's rewrite — with
    // per-node physical operators; count/exists route chains through the
    // counting DP, so all three entry points are checked.
    for strategy in [Strategy::Batch, Strategy::Planned] {
        let eval = Evaluator::with_strategy(log, strategy);
        if let Some(d) = against(
            &reference,
            &format!("{strategy:?}"),
            &eval.evaluate(pattern),
        ) {
            return Some(d);
        }
        let count = eval.count(pattern);
        if count != reference.len() {
            return Some(Divergence {
                strategy: format!("{strategy:?}::count"),
                expected: reference.len(),
                got: format!("{count} (count only)"),
            });
        }
        let exists = eval.exists(pattern);
        if exists == reference.is_empty() {
            return Some(Divergence {
                strategy: format!("{strategy:?}::exists"),
                expected: reference.len(),
                got: format!("exists = {exists}"),
            });
        }
    }

    for strategy in [Strategy::Batch, Strategy::Planned] {
        for threads in [1usize, 4] {
            let name = format!("parallel({threads}, {strategy:?})");
            match evaluate_parallel(log, pattern, threads, strategy) {
                Ok(set) => {
                    if let Some(d) = against(&reference, &name, &set) {
                        return Some(d);
                    }
                }
                Err(e) => {
                    return Some(Divergence {
                        strategy: name,
                        expected: reference.len(),
                        got: format!("error: {e}"),
                    });
                }
            }
        }
    }

    let mut stream = StreamingEvaluator::new(pattern.clone());
    for record in log.iter() {
        if let Err(e) = stream.append(record) {
            return Some(Divergence {
                strategy: "streaming-replay".to_string(),
                expected: reference.len(),
                got: format!("rejected valid record at lsn {}: {e}", record.lsn()),
            });
        }
    }
    if let Some(d) = against(&reference, "streaming-replay", &stream.incidents()) {
        return Some(d);
    }

    // Profiled execution mirrors the executor and the oracle with
    // instrumented copies; the mirror must be byte-identical — same
    // incident set, and counters consistent with it.
    for strategy in [Strategy::NaivePaper, Strategy::Batch, Strategy::Planned] {
        for threads in [1usize, 4] {
            let name = format!("profiled({threads}, {strategy:?})");
            match profile_evaluation(log, pattern, strategy, threads) {
                Ok((set, profile)) => {
                    if let Some(d) = against(&reference, &name, &set) {
                        return Some(d);
                    }
                    let root_emitted = profile
                        .nodes
                        .first()
                        .map_or(0, |n| n.metrics.incidents_emitted);
                    if profile.total_incidents != reference.len() as u64
                        || root_emitted != reference.len() as u64
                    {
                        return Some(Divergence {
                            strategy: name,
                            expected: reference.len(),
                            got: format!(
                                "profile counters: total {}, root emitted {root_emitted}",
                                profile.total_incidents
                            ),
                        });
                    }
                }
                Err(e) => {
                    return Some(Divergence {
                        strategy: name,
                        expected: reference.len(),
                        got: format!("error: {e}"),
                    });
                }
            }
        }
    }

    if let Some(count) = fast_count(log, pattern) {
        if count != reference.len() {
            return Some(Divergence {
                strategy: "fast_count".to_string(),
                expected: reference.len(),
                got: format!("{count} (count only)"),
            });
        }
    }

    check_round_trips(log, pattern, &reference)
}

/// Writes `log` as text and as binary, reads each back, and checks that
/// the log read back gives the reference answer under the paper's
/// Algorithm 1 and under the planner, and that it is equal. The answers
/// come first, so that predicate leaves read attribute maps the reader
/// left encoded, not maps a comparison decoded.
fn check_round_trips(log: &Log, pattern: &Pattern, reference: &IncidentSet) -> Option<Divergence> {
    let round_trips = [
        ("text", io::text::read_text(&io::text::write_text(log))),
        (
            "binary",
            io::binary::read_binary(io::binary::write_binary(log)),
        ),
    ];
    for (format, read_back) in round_trips {
        let diverged = |what: &str, got: String| Divergence {
            strategy: format!("{format} round trip: {what}"),
            expected: reference.len(),
            got,
        };
        let back = match read_back {
            Ok(back) => back,
            Err(e) => return Some(diverged("read", format!("error: {e}"))),
        };
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            let eval = Evaluator::with_strategy(&back, strategy);
            let name = format!("{strategy:?}");
            if let Some(d) = against(reference, &name, &eval.evaluate(pattern)) {
                return Some(diverged(&d.strategy, d.got));
            }
            if eval.count(pattern) != reference.len() {
                return Some(diverged(
                    &name,
                    format!("{} (count only)", eval.count(pattern)),
                ));
            }
        }
        if &back != log {
            return Some(diverged("read", format!("a different log: {back}")));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn figure3_battery_has_no_divergence() {
        let log = wlq_log::paper::figure3_log();
        for src in [
            "SeeDoctor",
            "UpdateRefer -> GetReimburse",
            "GetRefer ~> CheckIn",
            "!SeeDoctor ~> PayTreatment",
            "(SeeDoctor & PayTreatment) | UpdateRefer",
            "START ~> GetRefer",
            "!GetRefer ~> END",
        ] {
            let p: Pattern = src.parse().unwrap();
            assert!(check(&log, &p).is_none(), "diverged on {src}");
        }
    }

    #[test]
    fn random_smoke_runs_clean() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for _ in 0..25 {
            let log = crate::gen::random_log(&mut rng);
            let p = crate::gen::random_pattern_for(&mut rng, &log);
            assert!(check(&log, &p).is_none(), "diverged on {p} over {log}");
        }
    }
}
