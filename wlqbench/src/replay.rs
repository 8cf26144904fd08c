//! Traced replays of the program's entry points.
//!
//! Each replay makes the same public calls, in the same order, as the
//! entry point it mirrors does at this commit, with a span around each
//! call. Untraced runs call the entry points themselves; a test checks
//! that a replay's spans add up to the untraced call.

use std::fs;
use std::path::Path;

use wlq_engine::kernels;
use wlq_engine::{
    fast_count, BatchArena, Evaluator, Incident, IncidentSet, PlanNode, Planner, Query, Strategy,
};
use wlq_log::{io, Log, LogStats, Wid};
use wlq_pattern::{Op, Optimizer, Pattern};

use crate::mem;
use crate::trace::Tracer;

/// Which answer an op asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every incident.
    List,
    /// The number of incidents.
    Count,
    /// Whether any incident exists.
    Exists,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::List => "list",
            Mode::Count => "count",
            Mode::Exists => "exists",
        }
    }
}

/// An op's answer.
pub enum Answer {
    Set(IncidentSet),
    Count(usize),
    Exists(bool),
}

impl Answer {
    /// Incidents the answer reports (none for an existence check).
    pub fn incidents(&self) -> usize {
        match self {
            Answer::Set(s) => s.len(),
            Answer::Count(n) => *n,
            Answer::Exists(_) => 0,
        }
    }
}

/// Reads a log file the way `wlq` does: `.bin` through the binary reader,
/// anything else as text.
pub fn load(tr: &mut Tracer, path: &Path) -> Result<Log, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let binary = path.extension().is_some_and(|e| e == "bin");
    let (log, mb) = if binary {
        let raw = tr
            .span("fs.read", |_| fs::read(path))
            .map_err(|e| err(&e))?;
        tr.span("io.read_binary", |_| {
            mem::resident_mb(|| io::binary::read_binary(raw.into()))
        })
    } else {
        let text = tr
            .span("fs.read", |_| fs::read_to_string(path))
            .map_err(|e| err(&e))?;
        tr.span("io.read_text", |_| {
            mem::resident_mb(|| io::text::read_text(&text))
        })
    };
    tr.gauge("log.resident_mb", mb);
    log.map_err(|e| err(&e))
}

/// `Query::plan`: log statistics, then the pattern-level optimizer.
fn query_plan(tr: &mut Tracer, log: &Log, q: &Query) -> Pattern {
    tr.span("query.plan", |tr| {
        let stats = tr.span("stats.compute", |_| LogStats::compute(log));
        tr.span("pattern.optimize", |_| {
            Optimizer::new(stats).optimize(q.pattern())
        })
    })
}

/// What `Evaluator::with_strategy(log, Strategy::Planned)` builds: the
/// activity index, then the planner over it. The evaluator is built
/// with the planner-free strategy so the index is built once; the replay
/// drives the planner itself.
pub fn build_evaluator<'a>(tr: &mut Tracer, log: &'a Log) -> (Evaluator<'a>, Planner) {
    let (ev, mb) = tr.span("index.build", |_| {
        mem::resident_mb(|| Evaluator::with_strategy(log, Strategy::Batch))
    });
    tr.gauge("index.resident_mb", mb);
    let planner = tr.span("planner.new", |_| Planner::new(log, ev.index()));
    (ev, planner)
}

/// The root of `Evaluator::evaluate` under the planned strategy: join
/// results of `⊙`/`→` roots are written straight into incidents.
fn materialize(ev: &Evaluator, node: &PlanNode, wid: Wid, arena: &mut BatchArena) -> Vec<Incident> {
    if let PlanNode::Join {
        op: op @ (Op::Consecutive | Op::Sequential),
        left,
        right,
        ..
    } = node
    {
        let l = ev.execute_plan_in(left, wid, arena);
        if l.is_empty() {
            arena.recycle(l);
            return Vec::new();
        }
        let r = ev.execute_plan_in(right, wid, arena);
        if let Some(incidents) = kernels::materialize_join(*op, &l, &r) {
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
    let mut batch = ev.execute_plan_in(node, wid, arena);
    let incidents = batch.drain_incidents();
    arena.recycle(batch);
    incidents
}

/// `Evaluator::evaluate` under the planned strategy.
pub fn eval_evaluate(
    tr: &mut Tracer,
    ev: &Evaluator,
    planner: &Planner,
    p: &Pattern,
) -> IncidentSet {
    tr.span("eval.evaluate", |tr| {
        let plan = tr.span("planner.plan", |_| planner.plan(p));
        let mut arena = BatchArena::new();
        let parts: Vec<_> = ev
            .index()
            .wids()
            .map(|wid| (wid, materialize(ev, plan.root(), wid, &mut arena)))
            .collect();
        IncidentSet::from_partitions(parts)
    })
}

/// `Evaluator::count` under the planned strategy.
pub fn eval_count(tr: &mut Tracer, ev: &Evaluator, planner: &Planner, p: &Pattern) -> usize {
    tr.span("eval.count", |tr| {
        let plan = tr.span("planner.plan", |_| planner.plan(p));
        if plan.is_counting_chain() {
            let log = ev.log();
            if let Some(n) = tr.span("counting.fast_count", |_| fast_count(log, plan.pattern())) {
                return n;
            }
        }
        let mut arena = BatchArena::new();
        ev.index()
            .wids()
            .map(|wid| {
                let batch = ev.execute_plan_in(plan.root(), wid, &mut arena);
                let n = batch.len();
                arena.recycle(batch);
                n
            })
            .sum()
    })
}

/// `Evaluator::exists` under the planned strategy.
pub fn eval_exists(tr: &mut Tracer, ev: &Evaluator, planner: &Planner, p: &Pattern) -> bool {
    tr.span("eval.exists", |tr| {
        let plan = tr.span("planner.plan", |_| planner.plan(p));
        if plan.is_counting_chain() {
            let log = ev.log();
            if let Some(n) = tr.span("counting.fast_count", |_| fast_count(log, plan.pattern())) {
                return n > 0;
            }
        }
        let mut arena = BatchArena::new();
        ev.index().wids().any(|wid| {
            let batch = ev.execute_plan_in(plan.root(), wid, &mut arena);
            let found = !batch.is_empty();
            arena.recycle(batch);
            found
        })
    })
}

/// `Query::find` with one thread.
pub fn query_find(tr: &mut Tracer, log: &Log, q: &Query) -> IncidentSet {
    tr.span("query.find", |tr| {
        let plan = query_plan(tr, log, q);
        let (ev, planner) = build_evaluator(tr, log);
        eval_evaluate(tr, &ev, &planner, &plan)
    })
}

/// `Query::count` with one thread.
pub fn query_count(tr: &mut Tracer, log: &Log, q: &Query) -> usize {
    tr.span("query.count", |tr| {
        let plan = query_plan(tr, log, q);
        if let Some(n) = tr.span("counting.fast_count", |_| fast_count(log, &plan)) {
            return n;
        }
        query_find(tr, log, q).len()
    })
}

/// `Query::exists` with one thread.
pub fn query_exists(tr: &mut Tracer, log: &Log, q: &Query) -> bool {
    tr.span("query.exists", |tr| {
        let plan = query_plan(tr, log, q);
        if let Some(n) = tr.span("counting.fast_count", |_| fast_count(log, &plan)) {
            return n > 0;
        }
        let (ev, planner) = build_evaluator(tr, log);
        eval_exists(tr, &ev, &planner, &plan)
    })
}

/// Runs `q` in `mode` through the `Query` facade: replayed with spans when
/// the tracer is on, called directly otherwise.
pub fn query(tr: &mut Tracer, log: &Log, q: &Query, mode: Mode) -> Result<Answer, String> {
    let err = |e: wlq_engine::EngineError| e.to_string();
    Ok(match (mode, tr.on()) {
        (Mode::List, false) => Answer::Set(q.find(log).map_err(err)?),
        (Mode::Count, false) => Answer::Count(q.count(log).map_err(err)?),
        (Mode::Exists, false) => Answer::Exists(q.exists(log).map_err(err)?),
        (Mode::List, true) => Answer::Set(query_find(tr, log, q)),
        (Mode::Count, true) => Answer::Count(query_count(tr, log, q)),
        (Mode::Exists, true) => Answer::Exists(query_exists(tr, log, q)),
    })
}

/// What `wlq query <file> <pattern> [--count]` prints on success.
pub fn cli_output(answer: &Answer) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match answer {
        Answer::Count(n) => {
            let _ = writeln!(out, "{n}");
        }
        Answer::Exists(b) => {
            let _ = writeln!(out, "{b}");
        }
        Answer::Set(incidents) => {
            let _ = writeln!(
                out,
                "{} incident(s) in {} instance(s)",
                incidents.len(),
                incidents.num_matched_instances()
            );
            for incident in incidents.iter().take(50) {
                let _ = writeln!(out, "  {incident}");
            }
            if incidents.len() > 50 {
                let _ = writeln!(out, "  … {} more", incidents.len() - 50);
            }
        }
    }
    out
}

/// `wlq query <file> <pattern> [--count]` in this process: read and
/// validate the log, parse the pattern, answer through the `Query`
/// facade, render, and free the log as the process would on exit.
pub fn cli_query(tr: &mut Tracer, path: &Path, src: &str, mode: Mode) -> Result<String, String> {
    let log = load(tr, path)?;
    let q = tr
        .span("pattern.parse", |_| Query::parse(src))
        .map_err(|e| e.to_string())?;
    let answer = query(tr, &log, &q, mode)?;
    let out = tr.span("cli.render", |_| cli_output(&answer));
    tr.span("log.drop", |_| {
        drop(answer);
        drop(log);
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    #[test]
    fn replays_answer_like_the_entry_points() {
        let log = paper::figure3_log();
        let mut tr = Tracer::new(true);
        for src in [
            "UpdateRefer -> GetReimburse",
            "CheckIn ~> SeeDoctor",
            "PayTreatment | TakeTreatment",
            "CheckIn & UpdateRefer",
            "GetRefer ~> !CheckIn",
            "UpdateRefer[out.balance >= 5000]",
        ] {
            let q = Query::parse(src).unwrap();
            assert_eq!(
                query_find(&mut tr, &log, &q),
                q.find(&log).unwrap(),
                "{src}"
            );
            assert_eq!(
                query_count(&mut tr, &log, &q),
                q.count(&log).unwrap(),
                "{src}"
            );
            assert_eq!(
                query_exists(&mut tr, &log, &q),
                q.exists(&log).unwrap(),
                "{src}"
            );
            let planned = Evaluator::new(&log);
            let (ev, planner) = build_evaluator(&mut tr, &log);
            let p = q.pattern();
            assert_eq!(
                eval_evaluate(&mut tr, &ev, &planner, p),
                planned.evaluate(p),
                "{src}"
            );
            assert_eq!(
                eval_count(&mut tr, &ev, &planner, p),
                planned.count(p),
                "{src}"
            );
            assert_eq!(
                eval_exists(&mut tr, &ev, &planner, p),
                planned.exists(p),
                "{src}"
            );
        }
    }

    #[test]
    fn replayed_find_spans_add_up_to_the_untraced_call() {
        use std::time::Instant;
        use wlq_workflow::{scenarios, simulate, SimulationConfig};
        let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(300, 5));
        let q = Query::parse("SeeDoctor -> GetReimburse").unwrap();
        let (mut direct, mut replayed) = (Vec::new(), Vec::new());
        // Alternate the two so that both see the same machine.
        for _ in 0..21 {
            let t0 = Instant::now();
            let set = q.find(&log).unwrap();
            direct.push(t0.elapsed().as_secs_f64());
            let mut tr = Tracer::new(true);
            let (replay_set, _) = tr.op(0, |tr| query_find(tr, &log, &q));
            assert_eq!(replay_set, set);
            let spans = tr.spans();
            let own = tr.self_times();
            let layers: u64 = (1..spans.len()).map(|i| own[i]).sum();
            assert_eq!(spans[1].name, "query.find");
            replayed.push(layers as f64 / 1e9);
        }
        let ratio = crate::stats::median(&replayed) / crate::stats::median(&direct);
        assert!(
            (0.67..1.5).contains(&ratio),
            "replayed / untraced = {ratio}"
        );
    }

    #[test]
    fn cli_output_matches_the_binary_format() {
        let log = paper::figure3_log();
        let q = Query::parse("SeeDoctor -> PayTreatment").unwrap();
        let set = q.find(&log).unwrap();
        let n = set.len();
        let text = cli_output(&Answer::Set(set));
        assert!(text.starts_with(&format!("{n} incident(s) in ")));
        assert_eq!(text.lines().count(), 1 + n.min(50));
        assert_eq!(cli_output(&Answer::Count(7)), "7\n");
    }
}
