//! Cost-based query planning: algebraic rewrites plus per-node physical
//! operator selection.
//!
//! The planner sits between parsing and evaluation. Given a pattern it
//!
//! 1. collects per-task cardinality and span statistics from the log and
//!    its activity index ([`PlanStats`]),
//! 2. enumerates equivalent trees via the paper's Theorem 2–5 rewrites
//!    ([`RewriteCandidate`]) — of the pattern and of the algebraic
//!    optimizer's reshape of it ([`search_space`]), so no separate
//!    optimization pass runs before the planner,
//! 3. costs every candidate bottom-up with Lemma-1-style per-operator
//!    bounds refined per physical implementation ([`PlanCost`]), and
//! 4. picks the cheapest tree with a physical operator chosen per node
//!    ([`PhysicalPlan`]): nested loop, batch kernel, or the sort-merge
//!    sequential join — plus a flag routing `count()`/`exists()` to the
//!    enumeration-free counting DP when the pattern is a `~>`/`→` chain.
//!
//! Rewrites never change semantics: every candidate evaluates to the same
//! `incL(p)` (differentially verified by `wlq-difffuzz` and the
//! `plan_equiv` proptest). Because the original pattern is always among
//! the candidates, planning can never pick a tree worse than not planning
//! — by its own estimates — and [`crate::Strategy::Planned`] is therefore
//! the default strategy. [`Planner::plan_as_written`] skips step 2 and
//! keeps the tree as written; it is [`crate::Strategy::Batch`]. Every
//! strategy but the paper's Algorithm 1 oracle runs a [`PhysicalPlan`].

mod cost;
mod plan;
mod rewrite;
mod stats;

pub use cost::{JoinShape, PlanCost};
pub use plan::{PhysOp, PhysicalPlan, PlanNode, PlanRow, Planner};
pub use rewrite::{candidates, search_space, RewriteCandidate};
pub use stats::PlanStats;
