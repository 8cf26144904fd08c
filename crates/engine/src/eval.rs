//! The evaluator: strategies, leaf evaluation, and the per-query entry
//! points over one physical executor.

use wlq_log::{IsLsn, Log, LogIndex, Wid};
use wlq_pattern::{Atom, Op, Pattern};

use crate::batch::{BatchArena, IncidentBatch};
use crate::counting::fast_count;
use crate::incident::Incident;
use crate::incident_set::IncidentSet;
use crate::planner::{PhysOp, PhysicalPlan, PlanNode, Planner};
use crate::{kernels, naive};

/// How the evaluator runs a query.
///
/// Every strategy but [`NaivePaper`](Strategy::NaivePaper) runs one
/// physical executor: a [`PhysicalPlan`] over the flat arena-backed
/// [`IncidentBatch`] kernels. The strategies differ only in which tree
/// the planner hands it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// The paper's Algorithm 1: nested-loop joins, `O(n1·n2)` per
    /// operator, over one `Vec<Incident>` per node. Kept as the reference
    /// oracle the other strategies are checked against.
    NaivePaper,
    /// The planner with rewrites off ([`Planner::plan_as_written`]): the
    /// pattern's tree as written, with a physical operator chosen per node
    /// by cost. Produces identical incident sets.
    Batch,
    /// Cost-based planning ([`Planner::plan`]): the query is rewritten via
    /// the paper's Theorem 2–5 equivalences, the cheapest tree is chosen
    /// by Lemma-1-style estimates, and each node gets a physical operator
    /// (nested loop, batch kernel, or sort-merge sequential join).
    /// Produces identical incident sets; see `crate::planner`.
    #[default]
    Planned,
}

/// Combines two per-instance incident lists under `op` using `strategy`.
///
/// [`Strategy::NaivePaper`] runs the paper's Algorithm 1 operators; the
/// other strategies convert to [`IncidentBatch`]es and run the batch
/// kernels. Both produce the same sorted, deduplicated output. Callers
/// holding classic incident lists (incident trees) come through here; the
/// evaluator's own executor and the streaming evaluator stay flat end to
/// end.
#[must_use]
pub fn combine(strategy: Strategy, op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
    match (strategy, op) {
        (Strategy::NaivePaper, Op::Consecutive) => naive::consecutive_eval(left, right),
        (Strategy::NaivePaper, Op::Sequential) => naive::sequential_eval(left, right),
        (Strategy::NaivePaper, Op::Choice) => naive::choice_eval(left, right),
        (Strategy::NaivePaper, Op::Parallel) => naive::parallel_eval(left, right),
        (Strategy::Batch | Strategy::Planned, _) => {
            let Some(wid) = left.first().or_else(|| right.first()).map(Incident::wid) else {
                return Vec::new();
            };
            let l = IncidentBatch::from_incidents(wid, left);
            let r = IncidentBatch::from_incidents(wid, right);
            kernels::combine_batch(op, &l, &r).into_incidents()
        }
    }
}

/// Whether one record satisfies an atom's attribute predicates.
fn atom_admits(atom: &Atom, log: &Log, wid: Wid, position: IsLsn) -> bool {
    if atom.predicates.is_empty() {
        return true;
    }
    // Index positions always exist in the log the index was built from; a
    // miss (impossible by construction) conservatively admits nothing.
    let Some(record) = log.record(wid, position) else {
        return false;
    };
    atom.predicates
        .iter()
        .all(|pred| pred.matches(record.input(), record.output()))
}

/// Calls `f` on each is-lsn of `wid` that an atom's activity test selects,
/// ascending: the postings of `t`, or every other position for `¬t`. The
/// name is resolved to its dictionary id once per call; nothing is
/// allocated.
fn for_each_position(atom: &Atom, index: &LogIndex, wid: Wid, mut f: impl FnMut(IsLsn)) {
    let id = index.activity_id(atom.activity.as_str());
    if atom.negated {
        index.complement_of(wid, id).for_each(f);
    } else if let Some(id) = id {
        for &p in index.postings_of(wid, id) {
            f(p);
        }
    }
}

/// The incidents of an atomic pattern in one instance: every record whose
/// activity matches (`t`), or doesn't (`¬t`), filtered by the atom's
/// attribute predicates (extension).
#[must_use]
pub fn leaf_incidents(atom: &Atom, log: &Log, index: &LogIndex, wid: Wid) -> Vec<Incident> {
    let mut out = Vec::new();
    for_each_position(atom, index, wid, |p| {
        if atom_admits(atom, log, wid, p) {
            out.push(Incident::singleton(wid, p));
        }
    });
    out
}

/// Like [`leaf_incidents`], emitting straight into a pooled
/// [`IncidentBatch`]: one position per matching record, no per-incident
/// allocation. Postings are ascending, so the batch is born finished.
pub fn leaf_batch(
    atom: &Atom,
    log: &Log,
    index: &LogIndex,
    wid: Wid,
    arena: &mut BatchArena,
) -> IncidentBatch {
    let mut batch = arena.alloc(wid);
    for_each_position(atom, index, wid, |p| {
        if atom_admits(atom, log, wid, p) {
            batch.push_singleton(p);
        }
    });
    batch
}

/// What one query runs: a physical plan, or — under
/// [`Strategy::NaivePaper`] — the pattern as written, under the paper's
/// Algorithm 1 oracle.
#[derive(Debug)]
pub(crate) enum Exec<'p> {
    /// The planner's physical plan, run over the batch kernels.
    Plan(PhysicalPlan),
    /// The pattern, evaluated by Algorithm 1.
    Oracle(&'p Pattern),
}

impl Exec<'_> {
    /// The pattern that runs: the plan's chosen tree, or the pattern as
    /// written.
    pub(crate) fn pattern(&self) -> &Pattern {
        match self {
            Exec::Plan(plan) => plan.pattern(),
            Exec::Oracle(pattern) => pattern,
        }
    }
}

/// Evaluates incident-pattern queries over one log.
///
/// The evaluator borrows the log's activity index ([`LogIndex`], built by
/// [`Log::new`]); each [`evaluate`](Self::evaluate) call then runs in
/// time bounded by Lemma 1 / Theorem 1.
///
/// Every per-query method has two paths: under [`Strategy::Batch`] and
/// [`Strategy::Planned`] it plans the pattern once and runs the physical
/// plan per instance over one [`BatchArena`]; under
/// [`Strategy::NaivePaper`] it runs the paper's Algorithm 1.
///
/// # Examples
///
/// ```
/// use wlq_engine::Evaluator;
/// use wlq_log::paper;
/// use wlq_pattern::Pattern;
///
/// let log = paper::figure3_log();
/// let eval = Evaluator::new(&log);
/// // "Any students updating their referral before being reimbursed?"
/// let p: Pattern = "UpdateRefer -> GetReimburse".parse().unwrap();
/// assert!(eval.exists(&p));
/// assert_eq!(eval.count(&p), 1);
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    log: &'a Log,
    index: &'a LogIndex,
    strategy: Strategy,
    /// `None` only under [`Strategy::NaivePaper`].
    planner: Option<Planner>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with the default ([`Strategy::Planned`])
    /// strategy.
    #[must_use]
    pub fn new(log: &'a Log) -> Self {
        Self::with_strategy(log, Strategy::default())
    }

    /// Creates an evaluator with an explicit strategy.
    #[must_use]
    pub fn with_strategy(log: &'a Log, strategy: Strategy) -> Self {
        let index = log.index();
        let planner = (strategy != Strategy::NaivePaper).then(|| Planner::new(log, index));
        Evaluator {
            log,
            index,
            strategy,
            planner,
        }
    }

    /// The log being queried.
    #[must_use]
    pub fn log(&self) -> &'a Log {
        self.log
    }

    /// The evaluator's activity index.
    #[must_use]
    pub fn index(&self) -> &'a LogIndex {
        self.index
    }

    /// The active strategy.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The physical plan this evaluator runs for `pattern`:
    /// [`Planner::plan`] under [`Strategy::Planned`],
    /// [`Planner::plan_as_written`] under [`Strategy::Batch`], and `None`
    /// under [`Strategy::NaivePaper`].
    #[must_use]
    pub fn physical_plan(&self, pattern: &Pattern) -> Option<PhysicalPlan> {
        let planner = self.planner.as_ref()?;
        Some(if self.strategy == Strategy::Batch {
            planner.plan_as_written(pattern)
        } else {
            planner.plan(pattern)
        })
    }

    /// Plans `pattern` once, for the per-instance loops.
    pub(crate) fn prepare<'p>(&self, pattern: &'p Pattern) -> Exec<'p> {
        match self.physical_plan(pattern) {
            Some(plan) => Exec::Plan(plan),
            None => Exec::Oracle(pattern),
        }
    }

    /// Executes one physical plan node for one instance, drawing and
    /// retiring batches in the caller's arena.
    #[must_use]
    pub fn execute_plan_in(
        &self,
        node: &PlanNode,
        wid: Wid,
        arena: &mut BatchArena,
    ) -> IncidentBatch {
        match node {
            PlanNode::Leaf { atom, .. } => leaf_batch(atom, self.log, self.index, wid, arena),
            PlanNode::Join {
                op,
                phys,
                left,
                right,
                ..
            } => {
                let l = self.execute_plan_in(left, wid, arena);
                // Short-circuit: for the three conjunctive operators an
                // empty side forces an empty result.
                if l.is_empty() && *op != Op::Choice {
                    return l;
                }
                let r = self.execute_plan_in(right, wid, arena);
                let mut out = arena.alloc(wid);
                match phys {
                    PhysOp::NestedLoop => kernels::nested_loop_kernel(*op, &l, &r, &mut out),
                    PhysOp::BatchKernel => kernels::combine_batch_into(*op, &l, &r, &mut out),
                    PhysOp::SortMergeSeq => kernels::sequential_sort_merge_kernel(&l, &r, &mut out),
                }
                arena.recycle(l);
                arena.recycle(r);
                out
            }
        }
    }

    /// Executes a physical plan for one instance and materializes the
    /// result as classic incidents.
    ///
    /// The root join gets the late-materialization treatment: when it is
    /// a `⊙`/`→` node, [`kernels::materialize_join`] writes each union
    /// straight into its final `Vec` instead of round-tripping the full
    /// output through a batch pool plus [`IncidentBatch::drain_incidents`]
    /// — at the query boundary that round-trip is pure overhead, and for
    /// wide joins it re-copies every emitted position.
    fn materialize_plan_in(
        &self,
        node: &PlanNode,
        wid: Wid,
        arena: &mut BatchArena,
    ) -> Vec<Incident> {
        if let PlanNode::Join {
            op: op @ (Op::Consecutive | Op::Sequential),
            left,
            right,
            ..
        } = node
        {
            let l = self.execute_plan_in(left, wid, arena);
            if l.is_empty() {
                arena.recycle(l);
                return Vec::new();
            }
            let r = self.execute_plan_in(right, wid, arena);
            let direct = kernels::materialize_join(*op, &l, &r);
            if let Some(incidents) = direct {
                arena.recycle(l);
                arena.recycle(r);
                return incidents;
            }
            let mut out = arena.alloc(wid);
            kernels::combine_batch_into(*op, &l, &r, &mut out);
            arena.recycle(l);
            arena.recycle(r);
            let incidents = out.drain_incidents();
            arena.recycle(out);
            return incidents;
        }
        let mut batch = self.execute_plan_in(node, wid, arena);
        let incidents = batch.drain_incidents();
        arena.recycle(batch);
        incidents
    }

    /// The paper's Algorithm 1 over one instance: the oracle.
    fn oracle_instance(&self, pattern: &Pattern, wid: Wid) -> Vec<Incident> {
        match pattern {
            Pattern::Atom(atom) => leaf_incidents(atom, self.log, self.index, wid),
            Pattern::Binary { op, left, right } => {
                let l = self.oracle_instance(left, wid);
                // Short-circuit: for the three conjunctive operators an
                // empty side forces an empty result.
                if l.is_empty() && *op != Op::Choice {
                    return Vec::new();
                }
                let r = self.oracle_instance(right, wid);
                combine(Strategy::NaivePaper, *op, &l, &r)
            }
        }
    }

    /// The incidents of one instance under `exec`; plans draw their
    /// batches from `arena`.
    pub(crate) fn instance_incidents(
        &self,
        exec: &Exec<'_>,
        wid: Wid,
        arena: &mut BatchArena,
    ) -> Vec<Incident> {
        match exec {
            Exec::Plan(plan) => self.materialize_plan_in(plan.root(), wid, arena),
            Exec::Oracle(pattern) => self.oracle_instance(pattern, wid),
        }
    }

    /// The number of incidents of one instance under `exec`. A plan
    /// counts [`IncidentBatch`] refs: no incident is materialized.
    fn instance_len(&self, exec: &Exec<'_>, wid: Wid, arena: &mut BatchArena) -> usize {
        match exec {
            Exec::Plan(plan) => {
                let batch = self.execute_plan_in(plan.root(), wid, arena);
                let n = batch.len();
                arena.recycle(batch);
                n
            }
            Exec::Oracle(pattern) => self.oracle_instance(pattern, wid).len(),
        }
    }

    /// `|incL(p)|` from [`fast_count`]'s `O(m·k)` dynamic program, when
    /// `exec` is a plan whose tree is a `~>`/`->` chain of predicate-free
    /// atoms; `None` otherwise.
    pub(crate) fn counting_dp(&self, exec: &Exec<'_>) -> Option<usize> {
        match exec {
            Exec::Plan(plan) if plan.is_counting_chain() => fast_count(self.log, plan.pattern()),
            _ => None,
        }
    }

    /// [`evaluate`](Self::evaluate) of a prepared query.
    pub(crate) fn evaluate_exec(&self, exec: &Exec<'_>) -> IncidentSet {
        let mut arena = BatchArena::new();
        IncidentSet::from_partitions(
            self.index
                .wids()
                .map(|wid| (wid, self.instance_incidents(exec, wid, &mut arena))),
        )
    }

    /// Computes `incL(p)`: all incidents of `p` in the log.
    ///
    /// The pattern is planned once; the plan then runs per instance in
    /// the flat [`IncidentBatch`] layout over one [`BatchArena`],
    /// converting to [`Incident`]s only at the root.
    #[must_use]
    pub fn evaluate(&self, pattern: &Pattern) -> IncidentSet {
        self.evaluate_exec(&self.prepare(pattern))
    }

    /// Computes the incidents of `p` within a single instance.
    ///
    /// Each call plans `pattern` anew and allocates a fresh arena; to
    /// visit many instances, use [`evaluate`](Self::evaluate), which plans
    /// once.
    #[must_use]
    pub fn evaluate_instance(&self, pattern: &Pattern, wid: Wid) -> Vec<Incident> {
        self.instance_incidents(&self.prepare(pattern), wid, &mut BatchArena::new())
    }

    /// Whether any incident of `p` exists. Early-exits at the first
    /// matching instance; chain plans skip enumeration via the counting
    /// DP.
    #[must_use]
    pub fn exists(&self, pattern: &Pattern) -> bool {
        let exec = self.prepare(pattern);
        if let Some(n) = self.counting_dp(&exec) {
            return n > 0;
        }
        let mut arena = BatchArena::new();
        self.index
            .wids()
            .any(|wid| self.instance_len(&exec, wid, &mut arena) > 0)
    }

    /// Number of incidents of `p` in the log, `|incL(p)|`.
    ///
    /// A plan counts [`IncidentBatch`] refs directly — no incident is
    /// ever materialized — and a plan whose tree is a `~>`/`->` chain of
    /// predicate-free atoms skips enumeration entirely via
    /// [`fast_count`]'s `O(m·k)` dynamic program.
    #[must_use]
    pub fn count(&self, pattern: &Pattern) -> usize {
        let exec = self.prepare(pattern);
        if let Some(n) = self.counting_dp(&exec) {
            return n;
        }
        let mut arena = BatchArena::new();
        self.index
            .wids()
            .map(|wid| self.instance_len(&exec, wid, &mut arena))
            .sum()
    }

    /// The instances containing at least one incident of `p`.
    #[must_use]
    pub fn matching_instances(&self, pattern: &Pattern) -> Vec<Wid> {
        let exec = self.prepare(pattern);
        let mut arena = BatchArena::new();
        self.index
            .wids()
            .filter(|&wid| self.instance_len(&exec, wid, &mut arena) > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    fn parse(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn example3_update_before_reimburse() {
        // incL(UpdateRefer → GetReimburse) = {{l14, l20}}.
        let log = paper::figure3_log();
        for strategy in [Strategy::NaivePaper, Strategy::Batch, Strategy::Planned] {
            let eval = Evaluator::with_strategy(&log, strategy);
            let set = eval.evaluate(&parse("UpdateRefer -> GetReimburse"));
            assert_eq!(set.len(), 1);
            let o = set.iter().next().unwrap();
            let lsns: Vec<u64> = o
                .positions()
                .iter()
                .map(|&p| log.record(o.wid(), p).unwrap().lsn().get())
                .collect();
            assert_eq!(lsns, vec![14, 20]);
        }
    }

    #[test]
    fn example3_second_pattern_corrected() {
        // The paper's Example 3 says {l13, l14, l19} but l19 is
        // TakeTreatment; Definition 4 (and the paper's own Example 5)
        // give {l13, l14, l20}.
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        let set = eval.evaluate(&parse("SeeDoctor -> (UpdateRefer -> GetReimburse)"));
        assert_eq!(set.len(), 1);
        let o = set.iter().next().unwrap();
        let lsns: Vec<u64> = o
            .positions()
            .iter()
            .map(|&p| log.record(o.wid(), p).unwrap().lsn().get())
            .collect();
        assert_eq!(lsns, vec![13, 14, 20]);
    }

    #[test]
    fn atomic_patterns_count_matching_records() {
        let log = paper::figure3_log();
        for strategy in [Strategy::NaivePaper, Strategy::Batch, Strategy::Planned] {
            let eval = Evaluator::with_strategy(&log, strategy);
            assert_eq!(eval.count(&parse("SeeDoctor")), 4);
            assert_eq!(eval.count(&parse("START")), 3);
            assert_eq!(eval.count(&parse("Missing")), 0);
            assert_eq!(eval.count(&parse("!START")), 17);
        }
    }

    #[test]
    fn consecutive_vs_sequential_on_figure3() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        // SeeDoctor immediately followed by PayTreatment: wid1 twice
        // (l9-l10, l11-l12) and wid2 once (l17-l18).
        assert_eq!(eval.count(&parse("SeeDoctor ~> PayTreatment")), 3);
        // With gaps allowed there are more.
        let seq = eval.count(&parse("SeeDoctor -> PayTreatment"));
        assert!(seq > 3, "sequential should dominate consecutive, got {seq}");
    }

    #[test]
    fn choice_counts_union() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        assert_eq!(
            eval.count(&parse("SeeDoctor | UpdateRefer")),
            eval.count(&parse("SeeDoctor")) + eval.count(&parse("UpdateRefer"))
        );
        // Choice of a pattern with itself deduplicates.
        assert_eq!(eval.count(&parse("SeeDoctor | SeeDoctor")), 4);
    }

    #[test]
    fn parallel_requires_distinct_records() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        // SeeDoctor ⊕ SeeDoctor: ordered pairs of distinct SeeDoctor
        // records of one instance: wid1 has 2 (2 ordered pairs), wid2 has
        // 2 — but incidents are *sets*, so {a,b} = {b,a}: 1 per instance…
        // each unordered pair appears once after dedup.
        assert_eq!(eval.count(&parse("SeeDoctor & SeeDoctor")), 2);
    }

    #[test]
    fn exists_and_matching_instances() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        assert!(eval.exists(&parse("UpdateRefer -> GetReimburse")));
        assert!(!eval.exists(&parse("GetReimburse -> UpdateRefer")));
        assert_eq!(
            eval.matching_instances(&parse("GetRefer")),
            vec![Wid(1), Wid(2), Wid(3)]
        );
        assert_eq!(eval.matching_instances(&parse("UpdateRefer")), vec![Wid(2)]);
    }

    #[test]
    fn predicates_filter_leaves() {
        // The intro query: referrals with balance > 5000 — none initially,
        // but > 900 matches wid 1 and 2.
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        assert_eq!(eval.count(&parse("GetRefer[out.balance > 5000]")), 0);
        assert_eq!(eval.count(&parse("GetRefer[out.balance > 900]")), 2);
        assert_eq!(eval.count(&parse("GetRefer[out.balance > 100]")), 3);
        // The update raised wid 2's balance to 5000: visible at UpdateRefer.
        assert_eq!(eval.count(&parse("UpdateRefer[out.balance >= 5000]")), 1);
    }

    #[test]
    fn strategies_agree_on_a_pattern_battery() {
        let log = paper::figure3_log();
        let naive = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        for strategy in [Strategy::Batch, Strategy::Planned] {
            let eval = Evaluator::with_strategy(&log, strategy);
            for src in [
                "GetRefer ~> CheckIn",
                "GetRefer -> GetReimburse",
                "SeeDoctor & PayTreatment",
                "(GetRefer -> CheckIn) | (SeeDoctor ~> PayTreatment)",
                "!CheckIn ~> SeeDoctor",
                "START -> (UpdateRefer | CompleteRefer)",
                "(SeeDoctor & SeeDoctor) -> GetReimburse",
            ] {
                let p = parse(src);
                let wid = Wid(2);
                assert_eq!(
                    naive.evaluate(&p),
                    eval.evaluate(&p),
                    "{strategy:?} on {src}"
                );
                assert_eq!(naive.count(&p), eval.count(&p), "{strategy:?} on {src}");
                assert_eq!(naive.exists(&p), eval.exists(&p), "{strategy:?} on {src}");
                assert_eq!(
                    naive.matching_instances(&p),
                    eval.matching_instances(&p),
                    "{strategy:?} on {src}"
                );
                assert_eq!(
                    naive.evaluate_instance(&p, wid),
                    eval.evaluate_instance(&p, wid),
                    "{strategy:?} on {src}"
                );
            }
        }
    }

    #[test]
    fn empty_side_short_circuit_is_semantically_neutral() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        // Left side never matches: conjunctive composites are empty…
        assert_eq!(eval.count(&parse("Nope ~> SeeDoctor")), 0);
        assert_eq!(eval.count(&parse("Nope -> SeeDoctor")), 0);
        assert_eq!(eval.count(&parse("Nope & SeeDoctor")), 0);
        // …but choice still yields the right side.
        assert_eq!(eval.count(&parse("Nope | SeeDoctor")), 4);
    }
}
