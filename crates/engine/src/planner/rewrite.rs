//! Candidate enumeration: the equivalent trees the planner costs.
//!
//! Every candidate is derived from the input pattern by rewrites the
//! paper proves semantics-preserving:
//!
//! * **Theorems 2/4** (associativity of `⊙`/`→`/`⊗`/`⊕` and of mixed
//!   sequence chains): left-deep and right-deep reshapes, plus the
//!   algebraic optimizer's matrix-chain DP parenthesisation.
//! * **Theorem 3** (commutativity of `⊗`/`⊕`): the optimizer reorders
//!   commutative chain operands smallest-first.
//! * **Theorem 5** (distributivity over `⊗`): factoring shared operands
//!   out of choices, and — bounded, since it is exponential — the inverse
//!   distribution to choice normal form.
//!
//! The set always contains the original pattern, so costing candidates
//! can never regress: the worst case is choosing the tree that was going
//! to run anyway. Equivalence of every candidate is differentially
//! verified (`wlq-difffuzz` and `tests/plan_equiv.rs`).

use wlq_pattern::rewrite::{factor, left_deep, right_deep};
use wlq_pattern::{choice_normal_form, from_alternatives, Optimizer, Pattern};

/// One equivalent rewriting of the query, labelled with the rule that
/// produced it.
#[derive(Debug, Clone)]
pub struct RewriteCandidate {
    /// The rewritten pattern.
    pub pattern: Pattern,
    /// The rewrite rule (for `explain` output).
    pub rule: &'static str,
}

/// Distribution to choice normal form is exponential in the number of
/// choice operators; only expansions up to this many alternatives are
/// considered.
const MAX_ALTERNATIVES: usize = 8;

fn push(out: &mut Vec<RewriteCandidate>, pattern: Pattern, rule: &'static str) {
    if !out.iter().any(|c| c.pattern == pattern) {
        out.push(RewriteCandidate { pattern, rule });
    }
}

/// Enumerates the candidate trees for `p`, deduplicated, original first.
#[must_use]
pub fn candidates(optimizer: &Optimizer, p: &Pattern) -> Vec<RewriteCandidate> {
    let mut out = Vec::with_capacity(6);
    push_rewrites(&mut out, p, optimizer.optimize(p));
    out
}

/// The planner's search space: `candidates(p)` ∪
/// `candidates(optimizer.optimize(p))`, deduplicated, original first.
///
/// The optimizer's reshape is itself a candidate of `p`; rewriting it once
/// more reaches trees (a factored or re-associated reshape) that no single
/// rewrite of `p` yields. The optimizer is not quite idempotent, so the
/// reshape of the reshape is a candidate too.
#[must_use]
pub fn search_space(optimizer: &Optimizer, p: &Pattern) -> Vec<RewriteCandidate> {
    let reshaped = optimizer.optimize(p);
    let mut out = Vec::with_capacity(12);
    if reshaped == *p {
        // The reshape's candidates are `p`'s own.
        push_rewrites(&mut out, p, reshaped);
        return out;
    }
    let reshaped_twice = optimizer.optimize(&reshaped);
    push_rewrites(&mut out, p, reshaped.clone());
    push_rewrites(&mut out, &reshaped, reshaped_twice);
    out
}

/// Pushes `p` and its single-rule rewrites, `reshaped` being the
/// optimizer's output for `p`.
fn push_rewrites(out: &mut Vec<RewriteCandidate>, p: &Pattern, reshaped: Pattern) {
    push(out, p.clone(), "original");
    push(out, factor(p), "factor common choice operands (Thm 5)");
    push(out, reshaped, "cost-based reshape (Thms 2-4)");
    push(out, left_deep(p), "left-deep chains (Thms 2/4)");
    push(out, right_deep(p), "right-deep chains (Thms 2/4)");
    let alternatives = choice_normal_form(p);
    if alternatives.len() > 1 && alternatives.len() <= MAX_ALTERNATIVES {
        if let Some(distributed) = from_alternatives(&alternatives) {
            push(out, distributed, "distribute over choice (Thm 5)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::{paper, LogStats};

    fn parse(s: &str) -> Pattern {
        s.parse().expect("valid pattern")
    }

    fn optimizer() -> Optimizer {
        Optimizer::new(LogStats::compute(&paper::figure3_log()))
    }

    #[test]
    fn original_is_always_first() {
        let p = parse("SeeDoctor -> PayTreatment");
        let cands = candidates(&optimizer(), &p);
        assert_eq!(cands[0].pattern, p);
        assert_eq!(cands[0].rule, "original");
    }

    #[test]
    fn atoms_yield_a_single_candidate() {
        let cands = candidates(&optimizer(), &parse("SeeDoctor"));
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn candidates_are_deduplicated() {
        let p = parse("SeeDoctor -> PayTreatment");
        let cands = candidates(&optimizer(), &p);
        for (i, a) in cands.iter().enumerate() {
            for b in &cands[i + 1..] {
                assert_ne!(a.pattern, b.pattern, "duplicate candidate {}", a.pattern);
            }
        }
    }

    #[test]
    fn factored_and_distributed_shapes_both_appear() {
        let p = parse("(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)");
        let cands = candidates(&optimizer(), &p);
        let rules: Vec<&str> = cands.iter().map(|c| c.rule).collect();
        assert!(rules.iter().any(|r| r.contains("factor")), "{rules:?}");
        // The original is already in distributed form, so re-distribution
        // dedups away; the factored tree must be a genuine alternative.
        assert!(cands
            .iter()
            .any(|c| c.pattern == parse("SeeDoctor -> (PayTreatment | UpdateRefer)")));
    }

    #[test]
    fn deep_reshapes_cover_both_directions() {
        let p = parse("A -> (B -> (C -> D))");
        let cands = candidates(&optimizer(), &p);
        assert!(cands
            .iter()
            .any(|c| c.pattern == parse("((A -> B) -> C) -> D")));
        assert!(cands.iter().any(|c| c.pattern == p));
    }
}
