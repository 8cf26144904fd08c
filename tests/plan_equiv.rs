//! Plan-equivalence suite for the cost-based query planner.
//!
//! Random logs × random patterns (depth ≤ 4): every rewrite candidate the
//! planner enumerates (Theorems 2–5) must evaluate to exactly the same
//! `incL(p)` as the original pattern, and the chosen physical plan — with
//! its per-node operator selection and `count`/`exists` routing — must
//! agree with the paper-faithful naive evaluation. The planner searches
//! the rewrites of the optimizer's reshape too, so no plan is costlier
//! by its own estimate than planning that reshape as written.

use proptest::prelude::*;

use wlq::{
    attrs, Evaluator, Log, LogBuilder, LogStats, Op, Optimizer, Pattern, Planner,
    Strategy as EvalStrategy,
};

const ALPHABET: [&str; 4] = ["A", "B", "C", "D"];

/// Random patterns over the alphabet, depth ≤ 4 (up to 16 leaves).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let leaf = prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| Pattern::atom(ALPHABET[i])),
        1 => (0..ALPHABET.len()).prop_map(|i| Pattern::not_atom(ALPHABET[i])),
    ];
    leaf.prop_recursive(4, 16, 2, |inner| {
        (0..4u8, inner.clone(), inner).prop_map(|(op, l, r)| {
            let op = match op {
                0 => Op::Consecutive,
                1 => Op::Sequential,
                2 => Op::Choice,
                _ => Op::Parallel,
            };
            Pattern::binary(op, l, r)
        })
    })
}

/// Random logs: 1–4 instances, each 0–10 task records, interleaved.
fn arb_log() -> impl Strategy<Value = Log> {
    prop::collection::vec(prop::collection::vec(0..ALPHABET.len(), 0..10), 1..5).prop_map(
        |instances| {
            let mut b = LogBuilder::new();
            let wids: Vec<_> = instances.iter().map(|_| b.start_instance()).collect();
            let longest = instances.iter().map(Vec::len).max().unwrap_or(0);
            for step in 0..longest {
                for (i, acts) in instances.iter().enumerate() {
                    if let Some(&a) = acts.get(step) {
                        b.append(wids[i], ALPHABET[a], attrs! {}, attrs! {})
                            .unwrap();
                    }
                }
            }
            b.build().unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Theorem 2–5 rewrites are semantics-preserving: every candidate tree
    /// the planner enumerates has the same incident set as the original.
    #[test]
    fn every_rewrite_candidate_preserves_incidents(log in arb_log(), p in arb_pattern()) {
        let reference = Evaluator::with_strategy(&log, EvalStrategy::NaivePaper);
        let expected = reference.evaluate(&p);
        let planner = Planner::from_log(&log);
        for candidate in planner.candidates(&p) {
            let got = reference.evaluate(&candidate.pattern);
            prop_assert_eq!(
                &expected,
                &got,
                "rewrite {} ({}) of {} changed incL(p)",
                &candidate.pattern,
                candidate.rule,
                &p
            );
        }
    }

    /// The chosen physical plan — rewrite plus per-node operators — still
    /// computes exactly `incL(p)`, whichever candidate won.
    #[test]
    fn planned_execution_matches_naive(log in arb_log(), p in arb_pattern()) {
        let naive = Evaluator::with_strategy(&log, EvalStrategy::NaivePaper);
        let planned = Evaluator::with_strategy(&log, EvalStrategy::Planned);
        let expected = naive.evaluate(&p);
        let got = planned.evaluate(&p);
        prop_assert_eq!(&expected, &got, "planned evaluation diverged on {}", &p);
        // count/exists go through their own routing (counting DP for
        // chains, ref counting otherwise) — check them independently.
        prop_assert_eq!(expected.len(), planned.count(&p), "planned count diverged on {}", &p);
        prop_assert_eq!(
            !expected.is_empty(),
            planned.exists(&p),
            "planned exists diverged on {}",
            &p
        );
    }

    /// The planner's search space covers the optimizer's reshape: the
    /// chosen plan costs no more, by the planner's own estimate, than any
    /// candidate rewrite of `optimize(p)` planned as written.
    #[test]
    fn plan_is_no_costlier_than_any_rewrite_of_the_reshape(log in arb_log(), p in arb_pattern()) {
        let planner = Planner::from_log(&log);
        let optimizer = Optimizer::new(LogStats::compute(&log));
        let chosen = planner.plan(&p).cost();
        for c in planner.candidates(&optimizer.optimize(&p)) {
            let alternative = planner.plan_as_written(&c.pattern).cost();
            prop_assert!(
                chosen <= alternative,
                "plan of {} costs {} > {} for {} ({})",
                &p, chosen, alternative, &c.pattern, c.rule
            );
        }
    }

    /// The two physical strategies and the oracle agree on every entry
    /// point.
    #[test]
    fn batch_planned_and_naive_agree(log in arb_log(), p in arb_pattern()) {
        let naive = Evaluator::with_strategy(&log, EvalStrategy::NaivePaper);
        let expected = naive.evaluate(&p);
        prop_assert_eq!(expected.len(), naive.count(&p));
        prop_assert_eq!(!expected.is_empty(), naive.exists(&p));
        for strategy in [EvalStrategy::Batch, EvalStrategy::Planned] {
            let eval = Evaluator::with_strategy(&log, strategy);
            prop_assert_eq!(&expected, &eval.evaluate(&p), "{:?} evaluate on {}", strategy, &p);
            prop_assert_eq!(expected.len(), eval.count(&p), "{:?} count on {}", strategy, &p);
            prop_assert_eq!(
                !expected.is_empty(),
                eval.exists(&p),
                "{:?} exists on {}",
                strategy,
                &p
            );
        }
    }
}
