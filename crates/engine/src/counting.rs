//! Enumeration-free counting for chain patterns.
//!
//! `|incL(p)|` for a chain of atoms `a1 θ1 a2 θ2 …` (each `θi` consecutive
//! or sequential) can be computed *without materialising a single
//! incident*: a left-to-right dynamic program over each instance counts,
//! for every prefix length `j`, the assignments whose `j`-th record ends
//! at or before the current position. One pass per instance gives the
//! exact count in `O(m·k)` — breaking through the `Θ(n1·n2)` output bound
//! of Lemma 1 whenever only the count (or existence) is needed.
//!
//! Chains are exactly the patterns whose incidents are strictly
//! increasing position tuples, so distinct assignments are distinct
//! incident sets and the DP count equals `|incL(p)|`.
//!
//! [`Evaluator::count`](crate::Evaluator::count) and
//! [`Evaluator::exists`](crate::Evaluator::exists) — and through them
//! [`Query::count`](crate::Query::count) at any thread count — use this
//! fast path automatically when the physical plan's tree is a supported
//! chain.

use wlq_log::{ActivityId, Log};
use wlq_pattern::{Atom, Op, Pattern};

/// The operator linking two adjacent chain atoms: a strict subset of
/// [`Op`], so downstream code cannot observe a choice/parallel operator
/// inside a chain by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainOp {
    /// `~>` — the next record is the immediate successor.
    Cons,
    /// `->` — the next record is any later record.
    Seq,
}

/// A flattened `~>`/`->` chain. The first atom is stored apart from the
/// `(operator, atom)` tail, so "every non-first step has an operator" is a
/// structural fact rather than a runtime invariant to `expect` on.
#[derive(Debug, Clone)]
struct Chain {
    first: Atom,
    tail: Vec<(ChainOp, Atom)>,
}

impl Chain {
    /// The atoms in order, paired with the operator *before* each
    /// (`None` exactly for the first).
    fn steps(&self) -> impl Iterator<Item = (Option<ChainOp>, &Atom)> {
        std::iter::once((None, &self.first))
            .chain(self.tail.iter().map(|(op, atom)| (Some(*op), atom)))
    }
}

/// Flattens `pattern` into a `~>`/`->` chain of atoms, or `None` if the
/// pattern contains a choice or parallel operator anywhere, or uses
/// attribute predicates (which need record access). Nested `~>`/`->`
/// parenthesisations *are* supported — any shape whose operators are all
/// consecutive/sequential flattens to the same chain — which is what lets
/// the planner route every rewriting of a chain pattern here.
fn as_chain(pattern: &Pattern) -> Option<Chain> {
    fn walk(p: &Pattern, atoms: &mut Vec<Atom>, ops: &mut Vec<ChainOp>) -> bool {
        match p {
            Pattern::Atom(atom) => {
                if !atom.predicates.is_empty() {
                    return false;
                }
                atoms.push(atom.clone());
                true
            }
            Pattern::Binary {
                op: op @ (Op::Consecutive | Op::Sequential),
                left,
                right,
            } => {
                // The operator sits between left's last atom and right's
                // first atom, in any parenthesisation.
                if !walk(left, atoms, ops) {
                    return false;
                }
                ops.push(if *op == Op::Consecutive {
                    ChainOp::Cons
                } else {
                    ChainOp::Seq
                });
                walk(right, atoms, ops)
            }
            Pattern::Binary { .. } => false,
        }
    }
    let mut atoms = Vec::new();
    let mut ops = Vec::new();
    if !walk(pattern, &mut atoms, &mut ops) {
        return None;
    }
    // A successful walk pushes one operator per binary node visited, i.e.
    // exactly one fewer than the atoms it flattens.
    debug_assert_eq!(ops.len() + 1, atoms.len());
    let mut atoms = atoms.into_iter();
    let first = atoms.next()?;
    Some(Chain {
        first,
        tail: ops.into_iter().zip(atoms).collect(),
    })
}

/// Counts `|incL(pattern)|` without materialising incidents, if the
/// pattern is a supported chain. Returns `None` (caller falls back to
/// full evaluation) otherwise.
///
/// # Examples
///
/// ```
/// use wlq_engine::{fast_count, Evaluator};
/// use wlq_log::paper;
///
/// let log = paper::figure3_log();
/// let p = "SeeDoctor -> PayTreatment".parse().unwrap();
/// assert_eq!(fast_count(&log, &p), Some(Evaluator::new(&log).count(&p)));
/// ```
#[must_use]
pub fn fast_count(log: &Log, pattern: &Pattern) -> Option<usize> {
    let chain = as_chain(pattern)?;
    let index = log.index();
    // Each step as (operator before it, activity id, negated); an activity
    // the log never executes has no id, so it matches no record (or, if
    // negated, every record).
    let steps: Vec<(Option<ChainOp>, Option<ActivityId>, bool)> = chain
        .steps()
        .map(|(op, atom)| (op, index.activity_id(atom.activity.as_str()), atom.negated))
        .collect();
    let k = steps.len();
    // exact[j]: assignments of the first j+1 atoms whose last record is
    // the *current* position. cum[j]: same but last record at any
    // position strictly before the current one.
    let mut cum = vec![0usize; k];
    let mut exact = vec![0usize; k];
    let mut total = 0usize;
    for wid in index.wids() {
        cum.fill(0);
        exact.fill(0);
        for &activity in index.sequence(wid) {
            // Highest j first: a consecutive step reads exact[j - 1] of
            // the *previous* position, which is still in place.
            for j in (0..k).rev() {
                let (op_before, id, negated) = steps[j];
                exact[j] = match ((id == Some(activity)) != negated, op_before) {
                    (false, _) => 0,
                    (true, None) => 1,
                    (true, Some(ChainOp::Seq)) => cum[j - 1],
                    (true, Some(ChainOp::Cons)) => exact[j - 1],
                };
            }
            // Fold this position into the cumulative counts *after*
            // computing exact (cum must lag by one position).
            for (c, e) in cum.iter_mut().zip(&exact) {
                *c += e;
            }
        }
        total += cum[k - 1];
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use proptest::prelude::{prop, proptest, ProptestConfig};
    use wlq_log::{attrs, paper, LogBuilder};

    use crate::eval::Strategy;

    fn check(log: &Log, src: &str) {
        let p: Pattern = src.parse().unwrap();
        let fast = fast_count(log, &p).unwrap_or_else(|| panic!("{src} not a chain"));
        // The DP must agree with every enumeration path, including the
        // batch evaluator's ref-counting (which also never materialises).
        for strategy in [Strategy::NaivePaper, Strategy::Batch, Strategy::Planned] {
            let slow = Evaluator::with_strategy(log, strategy).count(&p);
            assert_eq!(fast, slow, "{src} under {strategy:?}");
        }
    }

    #[test]
    fn chain_counts_match_enumeration_on_figure3() {
        let log = paper::figure3_log();
        for src in [
            "SeeDoctor",
            "!SeeDoctor",
            "SeeDoctor -> PayTreatment",
            "SeeDoctor ~> PayTreatment",
            "GetRefer ~> CheckIn -> GetReimburse",
            "SeeDoctor -> SeeDoctor",
            "START -> !START -> END",
            "SeeDoctor -> UpdateRefer -> GetReimburse",
        ] {
            check(&log, src);
        }
    }

    #[test]
    fn unsupported_shapes_return_none() {
        let log = paper::figure3_log();
        for src in [
            "A | B",
            "A & B",
            "(A | B) -> C",
            "A -> (B & C)",
            "GetRefer[out.balance > 100]",
        ] {
            let p: Pattern = src.parse().unwrap();
            assert_eq!(fast_count(&log, &p), None, "{src}");
        }
    }

    #[test]
    fn planner_routes_counts_through_the_right_path() {
        let log = paper::figure3_log();
        let planned = Evaluator::with_strategy(&log, Strategy::Planned);
        let reference = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        // Nested `~>`/`->` parenthesisations flatten to chains: the plan
        // flags the counting DP and the count matches enumeration.
        for src in [
            "SeeDoctor -> (UpdateRefer -> GetReimburse)",
            "(GetRefer ~> CheckIn) -> GetReimburse",
            "START -> (!START ~> END)",
        ] {
            let p: Pattern = src.parse().unwrap();
            let plan = planned.physical_plan(&p).unwrap();
            assert!(plan.is_counting_chain(), "{src} should take the DP");
            assert_eq!(planned.count(&p), reference.count(&p), "{src}");
        }
        // Choice/parallel/predicates must NOT be flagged — they fall back
        // to plan execution, still with the correct count.
        for src in [
            "SeeDoctor | UpdateRefer",
            "SeeDoctor & PayTreatment",
            "(CheckIn | SeeDoctor) -> GetReimburse",
            "GetRefer[out.balance > 100] -> SeeDoctor",
        ] {
            let p: Pattern = src.parse().unwrap();
            let plan = planned.physical_plan(&p).unwrap();
            assert!(!plan.is_counting_chain(), "{src} must not take the DP");
            assert_eq!(planned.count(&p), reference.count(&p), "{src}");
        }
    }

    #[test]
    fn quadratic_output_counted_in_linear_time() {
        // n A's then n B's: |incL(A -> B)| = n² but the count never
        // materialises it.
        let n = 500;
        let mut b = LogBuilder::new();
        let w = b.start_instance();
        for _ in 0..n {
            b.append(w, "A", attrs! {}, attrs! {}).unwrap();
        }
        for _ in 0..n {
            b.append(w, "B", attrs! {}, attrs! {}).unwrap();
        }
        let log = b.build().unwrap();
        let p: Pattern = "A -> B".parse().unwrap();
        assert_eq!(fast_count(&log, &p), Some(n * n));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random logs × random chains: DP count ≡ enumeration count.
        #[test]
        fn fast_count_equals_enumeration(
            activities in prop::collection::vec(0..3usize, 0..14),
            chain in prop::collection::vec((0..3usize, prop::bool::ANY, prop::bool::ANY), 1..4),
        ) {
            const NAMES: [&str; 3] = ["A", "B", "C"];
            let mut b = LogBuilder::new();
            let w = b.start_instance();
            for &a in &activities {
                b.append(w, NAMES[a], attrs! {}, attrs! {}).unwrap();
            }
            let log = b.build().unwrap();

            let mut pattern: Option<Pattern> = None;
            for &(name, negated, consecutive) in &chain {
                let atom = if negated {
                    Pattern::not_atom(NAMES[name])
                } else {
                    Pattern::atom(NAMES[name])
                };
                pattern = Some(match pattern {
                    None => atom,
                    Some(acc) if consecutive => acc.cons(atom),
                    Some(acc) => acc.seq(atom),
                });
            }
            let pattern = pattern.expect("nonempty chain");
            let fast = fast_count(&log, &pattern).expect("chain supported");
            let slow = Evaluator::new(&log).count(&pattern);
            assert_eq!(fast, slow, "{pattern} on {log}");
        }
    }
}
