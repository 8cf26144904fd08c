//! Incremental evaluation over an append-only log.
//!
//! Workflow logs only ever grow, and the paper motivates log querying for
//! *runtime* monitoring as well as post-hoc analysis. The
//! [`StreamingEvaluator`] keeps, for every open workflow instance and
//! every node of the pattern's incident tree, the incidents seen so far
//! as one [`IncidentBatch`], and on each appended record computes only
//! the *new* incidents (the delta) bottom-up with the batch kernels.
//!
//! **Exact delta rule.** A valid append to instance `w` carries the
//! position `p = next is-lsn of w`, larger than every stored position of
//! `w`, and an incident of the grown instance that misses `p` is an
//! incident of the old one; so every delta incident contains `p`. With
//! `old` the incidents before the append and `Δ` the new ones:
//!
//! ```text
//! Δ(p1 ⊙ p2) = old1 ⊙ Δ2        Δ(p1 → p2) = old1 → Δ2
//! Δ(p1 ⊕ p2) = (Δ1 ⊕ old2) ∪ (old1 ⊕ Δ2)
//! Δ(p1 ⊗ p2) = Δ1 ∪ Δ2
//! ```
//!
//! Proof in one line: `⊙`/`→` pair `o1` with an `o2` that lies wholly
//! after it, which `p ∈ o1` rules out for every `o2` (old ones lie before
//! `p`, new ones contain it), and `⊕` pairs must be disjoint, which two
//! incidents both containing `p` are not. The old incidents never contain
//! `p`, so a node absorbs its delta by a sorted merge of two disjoint
//! batches, and the deltas of successive appends partition the final
//! answer.
//!
//! Each append costs one hash lookup for its instance plus kernel and
//! merge work on that instance's batches alone; a node whose children
//! both have empty deltas does nothing. When an instance ends, no later record can reach
//! it, so only its root incidents are kept. The evaluator reports the
//! *new root incidents* per append — a monitoring callback can alert the
//! moment an anomalous pattern completes.

use std::collections::HashMap;

use parking_lot::Mutex;
use wlq_log::{IsLsn, LogError, LogRecord, Wid};
use wlq_pattern::{Atom, Op, Pattern};

use crate::batch::IncidentBatch;
use crate::error::EngineError;
use crate::incident::Incident;
use crate::incident_set::IncidentSet;
use crate::kernels::{choice_kernel, combine_batch_into};

/// One node of the flattened incident tree. Children precede their parent,
/// so the root is the last node.
#[derive(Debug, Clone)]
enum Node {
    Leaf(Atom),
    Op { op: Op, left: usize, right: usize },
}

/// Appends `p`'s nodes to `nodes` in post-order, returning the index of
/// `p`'s root.
fn flatten(p: &Pattern, nodes: &mut Vec<Node>) -> usize {
    let node = match p {
        Pattern::Atom(atom) => Node::Leaf(atom.clone()),
        Pattern::Binary { op, left, right } => Node::Op {
            op: *op,
            left: flatten(left, nodes),
            right: flatten(right, nodes),
        },
    };
    nodes.push(node);
    nodes.len() - 1
}

/// Whether `record` is an incident of the atomic pattern `atom`.
fn admits(atom: &Atom, record: &LogRecord) -> bool {
    (record.activity() == &atom.activity) != atom.negated
        && atom
            .predicates
            .iter()
            .all(|p| p.matches(record.input(), record.output()))
}

/// Everything the evaluator keeps about one workflow instance.
#[derive(Debug, Clone)]
struct Instance {
    /// The is-lsn the instance's next record must carry.
    next: IsLsn,
    /// Whether the instance has seen its `END` record.
    closed: bool,
    /// The incidents found so far, one batch per node in post-order. Once
    /// the instance is closed only the root's batch is kept.
    nodes: Vec<IncidentBatch>,
}

/// Evaluates a pattern incrementally over an append-only record stream.
///
/// # Examples
///
/// ```
/// use wlq_engine::StreamingEvaluator;
/// use wlq_log::paper;
/// use wlq_pattern::Pattern;
///
/// let p: Pattern = "UpdateRefer -> GetReimburse".parse().unwrap();
/// let mut stream = StreamingEvaluator::new(p);
/// let mut alerts = 0;
/// for record in paper::figure3_log().iter() {
///     alerts += stream.append(record).unwrap().len();
/// }
/// assert_eq!(alerts, 1); // the wid-2 anomaly fires exactly once
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEvaluator {
    pattern: Pattern,
    nodes: Vec<Node>,
    instances: HashMap<Wid, Instance>,
    /// Per-node deltas of the current append, reused across appends.
    deltas: Vec<IncidentBatch>,
    /// Scratch batches for the two `⊕` delta terms and for absorbing.
    scratch: [IncidentBatch; 2],
    records_seen: usize,
}

impl StreamingEvaluator {
    /// Creates a streaming evaluator for `pattern`.
    #[must_use]
    pub fn new(pattern: Pattern) -> Self {
        let mut nodes = Vec::new();
        flatten(&pattern, &mut nodes);
        let empty = IncidentBatch::new(Wid(0));
        StreamingEvaluator {
            pattern,
            deltas: vec![empty.clone(); nodes.len()],
            nodes,
            instances: HashMap::new(),
            scratch: [empty.clone(), empty],
            records_seen: 0,
        }
    }

    /// The pattern being monitored.
    #[must_use]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of records consumed so far.
    #[must_use]
    pub fn records_seen(&self) -> usize {
        self.records_seen
    }

    /// Appends one record, returning the *new* root incidents it completes.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidLog`] if the record violates the
    /// per-instance ordering invariants of Definition 2 (non-consecutive
    /// `is-lsn`, record after `END`, or a non-`START` first record). A
    /// rejected record leaves the evaluator unchanged.
    pub fn append(&mut self, record: &LogRecord) -> Result<Vec<Incident>, EngineError> {
        let wid = record.wid();
        // `entry` would reserve room for a vacant key before the checks,
        // so a new instance is inserted only once its record is accepted.
        let instance = match self.instances.get_mut(&wid) {
            Some(instance) => {
                check_order(record, instance.closed, instance.next)?;
                instance
            }
            None => {
                check_order(record, false, IsLsn::FIRST)?;
                self.instances.entry(wid).or_insert(Instance {
                    next: IsLsn::FIRST,
                    closed: false,
                    nodes: vec![IncidentBatch::new(wid); self.nodes.len()],
                })
            }
        };
        instance.next = record.is_lsn().next();
        instance.closed = record.is_end();
        self.records_seen += 1;

        let [left_term, right_term] = &mut self.scratch;
        for (i, node) in self.nodes.iter().enumerate() {
            let (below, rest) = self.deltas.split_at_mut(i);
            let delta = &mut rest[0];
            delta.reset(wid);
            match *node {
                Node::Leaf(ref atom) => {
                    if admits(atom, record) {
                        delta.push_singleton(record.is_lsn());
                    }
                }
                Node::Op { op, left, right } => {
                    let (d1, d2) = (&below[left], &below[right]);
                    if d1.is_empty() && d2.is_empty() {
                        continue;
                    }
                    let (old1, old2) = (&instance.nodes[left], &instance.nodes[right]);
                    match op {
                        Op::Consecutive | Op::Sequential => combine_batch_into(op, old1, d2, delta),
                        Op::Choice => choice_kernel(d1, d2, delta),
                        Op::Parallel => {
                            combine_batch_into(op, d1, old2, left_term);
                            combine_batch_into(op, old1, d2, right_term);
                            choice_kernel(left_term, right_term, delta);
                        }
                    }
                }
            }
        }

        // A closed instance keeps only its root, so only the root absorbs.
        let first_kept = if instance.closed {
            self.nodes.len() - 1
        } else {
            0
        };
        for (state, delta) in instance.nodes.iter_mut().zip(&self.deltas).skip(first_kept) {
            if delta.is_empty() {
                continue;
            }
            left_term.reset(wid);
            choice_kernel(state, delta, left_term);
            std::mem::swap(state, left_term);
        }
        if instance.closed {
            instance.nodes.drain(..first_kept);
            instance.nodes.shrink_to_fit();
        }
        Ok(self
            .deltas
            .last_mut()
            .map_or_else(Vec::new, IncidentBatch::drain_incidents))
    }

    /// The full incident set accumulated so far (equals a batch evaluation
    /// of the records seen).
    #[must_use]
    pub fn incidents(&self) -> IncidentSet {
        IncidentSet::from_partitions(
            self.instances
                .iter()
                .filter_map(|(&wid, instance)| Some((wid, instance.nodes.last()?.to_incidents()))),
        )
    }
}

/// Definition 2's per-instance ordering checks for `record`, given its
/// instance's state: not after `END`, consecutive is-lsn, and `START`
/// exactly at is-lsn 1.
fn check_order(record: &LogRecord, closed: bool, expected: IsLsn) -> Result<(), LogError> {
    let wid = record.wid();
    if closed {
        return Err(LogError::RecordAfterEnd {
            wid,
            lsn: record.lsn(),
        });
    }
    if record.is_lsn() != expected {
        return Err(LogError::NonConsecutiveIsLsn {
            wid,
            expected,
            found: record.is_lsn(),
        });
    }
    if (record.is_lsn() == IsLsn::FIRST) != record.is_start() {
        return Err(LogError::StartMismatch {
            lsn: record.lsn(),
            wid,
        });
    }
    Ok(())
}

/// A thread-safe wrapper around [`StreamingEvaluator`] for concurrent
/// producers (e.g. a workflow engine's worker threads appending to the
/// log), using a [`parking_lot::Mutex`].
#[derive(Debug)]
pub struct SharedStreamingEvaluator {
    inner: Mutex<StreamingEvaluator>,
}

impl SharedStreamingEvaluator {
    /// Wraps a streaming evaluator for shared use.
    #[must_use]
    pub fn new(pattern: Pattern) -> Self {
        SharedStreamingEvaluator {
            inner: Mutex::new(StreamingEvaluator::new(pattern)),
        }
    }

    /// Appends a record under the lock; see [`StreamingEvaluator::append`].
    ///
    /// # Errors
    ///
    /// Propagates the wrapped evaluator's [`EngineError`]s.
    pub fn append(&self, record: &LogRecord) -> Result<Vec<Incident>, EngineError> {
        self.inner.lock().append(record)
    }

    /// Snapshot of the accumulated incident set.
    #[must_use]
    pub fn incidents(&self) -> IncidentSet {
        self.inner.lock().incidents()
    }

    /// Number of records consumed.
    #[must_use]
    pub fn records_seen(&self) -> usize {
        self.inner.lock().records_seen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, Strategy};
    use wlq_log::{paper, Lsn};

    fn parse(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    fn replay(pattern: &str) -> (StreamingEvaluator, IncidentSet) {
        let log = paper::figure3_log();
        let mut stream = StreamingEvaluator::new(parse(pattern));
        let mut all_deltas = IncidentSet::new();
        for record in log.iter() {
            for incident in stream.append(record).unwrap() {
                assert!(all_deltas.insert(incident), "duplicate delta reported");
            }
        }
        (stream, all_deltas)
    }

    #[test]
    fn streaming_matches_batch_on_figure3() {
        let log = paper::figure3_log();
        let batch = Evaluator::new(&log);
        for src in [
            "SeeDoctor",
            "!SeeDoctor",
            "UpdateRefer -> GetReimburse",
            "SeeDoctor -> (UpdateRefer -> GetReimburse)",
            "GetRefer ~> CheckIn",
            "SeeDoctor & PayTreatment",
            "(GetRefer -> CheckIn) | UpdateRefer",
        ] {
            let (stream, deltas) = replay(src);
            let expected = batch.evaluate(&parse(src));
            assert_eq!(
                stream.incidents(),
                expected,
                "accumulated mismatch on {src}"
            );
            assert_eq!(deltas, expected, "delta union mismatch on {src}");
        }
    }

    /// Each append's delta is exactly what the oracle's answer gains on
    /// that record (`NaivePaper(prefix i) \ NaivePaper(prefix i-1)`), and
    /// the accumulated set is the oracle's answer on the whole log.
    #[test]
    fn all_strategies_stream_identically() {
        let log = paper::figure3_log();
        for src in [
            "SeeDoctor ~> PayTreatment",
            "GetRefer -> (SeeDoctor & PayTreatment)",
            "(SeeDoctor | !CheckIn) & (GetRefer -> !SeeDoctor)",
        ] {
            let p = parse(src);
            let mut stream = StreamingEvaluator::new(p.clone());
            let mut before = IncidentSet::new();
            for (i, record) in log.iter().enumerate() {
                let delta = stream.append(record).unwrap();
                let prefix = log.prefix(Lsn(i as u64 + 1)).unwrap();
                let after = Evaluator::with_strategy(&prefix, Strategy::NaivePaper).evaluate(&p);
                let gained: Vec<Incident> = after
                    .iter()
                    .filter(|o| !before.contains(o))
                    .cloned()
                    .collect();
                assert_eq!(delta, gained, "delta of l{} on {src}", i + 1);
                before = after;
            }
            assert_eq!(stream.incidents(), before, "accumulated mismatch on {src}");
        }
    }

    #[test]
    fn deltas_fire_at_completion_time() {
        let log = paper::figure3_log();
        let mut stream = StreamingEvaluator::new(parse("UpdateRefer -> GetReimburse"));
        let mut fired_at = None;
        for record in log.iter() {
            let delta = stream.append(record).unwrap();
            if !delta.is_empty() {
                assert!(fired_at.is_none());
                fired_at = Some(record.lsn().get());
            }
        }
        // The anomaly completes exactly when l20 (wid 2's GetReimburse)
        // arrives.
        assert_eq!(fired_at, Some(20));
    }

    #[test]
    fn records_seen_counts_appends() {
        let (stream, _) = replay("SeeDoctor");
        assert_eq!(stream.records_seen(), 20);
    }

    #[test]
    fn out_of_order_appends_are_rejected() {
        let log = paper::figure3_log();
        let mut stream = StreamingEvaluator::new(parse("A"));
        // Skipping the START record of wid 1 violates is-lsn continuity.
        let err = stream.append(&log.records()[2]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidLog(LogError::NonConsecutiveIsLsn { .. })
        ));
    }

    #[test]
    fn appends_after_end_are_rejected() {
        use wlq_log::LogRecord;
        let mut stream = StreamingEvaluator::new(parse("A"));
        stream.append(&LogRecord::start(1, 1u64)).unwrap();
        stream.append(&LogRecord::end(2, 1u64, 2u32)).unwrap();
        let extra = LogRecord::new(
            3u64,
            1u64,
            3u32,
            "A",
            Default::default(),
            Default::default(),
        );
        assert!(matches!(
            stream.append(&extra).unwrap_err(),
            EngineError::InvalidLog(LogError::RecordAfterEnd { .. })
        ));
    }

    #[test]
    fn first_record_must_be_start() {
        use wlq_log::LogRecord;
        let mut stream = StreamingEvaluator::new(parse("A"));
        let bad = LogRecord::new(
            1u64,
            1u64,
            1u32,
            "A",
            Default::default(),
            Default::default(),
        );
        assert!(matches!(
            stream.append(&bad).unwrap_err(),
            EngineError::InvalidLog(LogError::StartMismatch { .. })
        ));
    }

    /// A record that breaks Definition 2 leaves every part of the
    /// evaluator as it was, including after `END` freed an instance's
    /// inner nodes, and the valid records around it still add up to the
    /// oracle's answer.
    #[test]
    fn rejected_appends_change_nothing() {
        let mut b = wlq_log::LogBuilder::new();
        let (w1, w2) = (b.start_instance(), b.start_instance());
        for (wid, activity) in [
            (w1, "CheckIn"),
            (w2, "SeeDoctor"),
            (w1, "SeeDoctor"),
            (w2, "CheckIn"),
            (w1, "PayTreatment"),
            (w2, "PayTreatment"),
            (w1, "SeeDoctor"),
        ] {
            b.append(wid, activity, Default::default(), Default::default())
                .unwrap();
        }
        b.end_instance(w1).unwrap();
        b.append(w2, "SeeDoctor", Default::default(), Default::default())
            .unwrap();
        let log = b.build().unwrap();
        let p = parse("(CheckIn | !SeeDoctor) -> (SeeDoctor & PayTreatment)");
        let mut stream = StreamingEvaluator::new(p.clone());
        let bad = |wid: Wid, is_lsn: u32| {
            LogRecord::new(
                999u64,
                wid,
                is_lsn,
                "SeeDoctor",
                Default::default(),
                Default::default(),
            )
        };
        let reject = |stream: &mut StreamingEvaluator, record: &LogRecord| {
            let (state, incidents) = (format!("{stream:?}"), stream.incidents());
            let err = stream.append(record).unwrap_err();
            assert_eq!(format!("{stream:?}"), state, "{err} changed the state");
            assert_eq!(stream.incidents(), incidents);
            err
        };
        let mut deltas = IncidentSet::new();
        let mut ends = 0;
        for (i, record) in log.iter().enumerate() {
            let err = reject(&mut stream, &bad(Wid(99), 1));
            assert!(matches!(
                err,
                EngineError::InvalidLog(LogError::StartMismatch { .. })
            ));
            for incident in stream.append(record).unwrap() {
                assert!(deltas.insert(incident));
            }
            assert_eq!(stream.records_seen(), i + 1);
            let wid = record.wid();
            let next = record.is_lsn().get() + 1;
            if record.is_end() {
                ends += 1;
                assert_eq!(stream.instances[&wid].nodes.len(), 1, "inner state kept");
                let err = reject(&mut stream, &bad(wid, next));
                assert!(matches!(
                    err,
                    EngineError::InvalidLog(LogError::RecordAfterEnd { .. })
                ));
            } else {
                let err = reject(&mut stream, &bad(wid, next + 1));
                assert!(matches!(
                    err,
                    EngineError::InvalidLog(LogError::NonConsecutiveIsLsn { .. })
                ));
            }
        }
        assert_eq!(ends, 1);
        let expected = Evaluator::with_strategy(&log, Strategy::NaivePaper).evaluate(&p);
        assert!(!expected.is_empty());
        assert_eq!(stream.incidents(), expected);
        assert_eq!(deltas, expected);
    }

    #[test]
    fn shared_evaluator_is_usable_across_threads() {
        let log = paper::figure3_log();
        let shared = SharedStreamingEvaluator::new(parse("SeeDoctor"));
        // Appends must stay in per-wid order; split by instance across
        // threads (each instance's records stay ordered).
        crossbeam::thread::scope(|scope| {
            for wid in log.wids() {
                let shared = &shared;
                let records: Vec<_> = log.instance(wid).cloned().collect();
                scope.spawn(move |_| {
                    for r in records {
                        shared.append(&r).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(shared.records_seen(), 20);
        assert_eq!(shared.incidents().len(), 4);
    }

    #[test]
    fn choice_deltas_are_deduplicated() {
        let (stream, deltas) = replay("SeeDoctor | SeeDoctor");
        assert_eq!(stream.incidents().len(), 4);
        assert_eq!(deltas.len(), 4);
    }
}
