//! The four workloads. Each sets itself up from a seed, computes every
//! op's expected answer with the paper's Algorithm 1 before timing starts,
//! and runs its op mix one rotation at a time.

use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use wlq::rules::RuleSet;
use wlq_engine::{Evaluator, IncidentSet, Planner, Query, Strategy, StreamingEvaluator};
use wlq_log::{io, Log};
use wlq_pattern::Pattern;
use wlq_workflow::{generator, scenarios, simulate, SimulationConfig};

use crate::mem;
use crate::record::Recorder;
use crate::replay::{self, Answer, Mode};
use crate::trace::Tracer;

/// Names of the workloads, in the order the doc lists them. `BENCHMARK.json`
/// gates all but `warm_session`, which moves too much with the host's load
/// (see the doc); it still runs on request.
pub const WORKLOADS: [&str; 4] = ["cold_cli", "warm_session", "dense_enum", "stream_append"];

/// Clinic instances in the `cold_cli` and `stream_append` logs (about
/// 184k records): larger than any cache on the machine.
const LARGE_CLINIC: usize = 20_000;
/// Clinic instances in the `warm_session` log (about 18k records).
const SMALL_CLINIC: usize = 2_000;
/// `dense_enum` log: long instances over few activities, so each query
/// enumerates hundreds of thousands of incidents.
const DENSE_INSTANCES: usize = 200;
const DENSE_LENGTH: usize = 200;
const DENSE_ALPHABET: usize = 8;
/// `⊙`, `→`, `⊗`, `⊕`, negation and nesting over the dense log.
const DENSE_PATTERNS: [&str; 6] = [
    "T0 ~> T1",
    "T0 -> T1",
    "T0 & T1",
    "(T0 | T1) -> (T2 & T3)",
    "T4 ~> !T5",
    "(T5 | T6) ~> (T7 -> T0)",
];
/// Patterns fed to the streaming evaluator: every operator and negation.
const STREAM_PATTERNS: [&str; 4] = [
    "CheckIn ~> SeeDoctor",
    "UpdateRefer -> GetReimburse",
    "CheckIn & (PayTreatment | TakeTreatment)",
    "GetRefer ~> !CheckIn",
];
/// In a traced `stream_append` pass, one append in this many is an op
/// with spans; the others run untraced and give the latency it is compared
/// with.
const STREAM_TRACE_EVERY: usize = 64;

/// What a workload needs from outside: its seed, a scratch directory
/// inside the checkout, the `wlq` binary and the checkout's example
/// patterns.
pub struct Ctx {
    pub seed: u64,
    pub dir: PathBuf,
    pub wlq: PathBuf,
    pub patterns: Vec<String>,
}

/// A workload after set-up.
pub trait Workload {
    /// Labels of the op kinds, in rotation order.
    fn kinds(&self) -> Vec<String>;
    /// Computes every op's expected answer with `Strategy::NaivePaper`.
    fn prepare_oracle(&mut self) -> Result<(), String>;
    /// Runs one rotation through the op mix, timing each op.
    fn cycle(&mut self, tr: &mut Tracer, rec: &mut Recorder);
    /// A recorder for one pass of this workload.
    fn recorder(&self) -> Recorder {
        Recorder::raw(self.kinds().len())
    }
    /// Peak RSS of what the timed phase ran, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        mem::self_peak_rss_mb()
    }
    /// Q-error of the planner's root estimate for each planned query.
    fn q_errors(&self) -> Vec<f64> {
        Vec::new()
    }
    /// Incidents one full pass of a stream emits (0 for other workloads).
    fn stream_emitted(&self) -> f64 {
        0.0
    }
}

/// Sets up workload `name`.
pub fn setup(name: &str, ctx: &Ctx, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold_cli" => Box::new(ColdCli::setup(ctx, tr)?),
        "warm_session" => Box::new(WarmSession::setup(ctx, tr)?),
        "dense_enum" => Box::new(DenseEnum::setup(ctx, tr)?),
        "stream_append" => Box::new(StreamAppend::setup(ctx, tr)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Patterns of a `.wlq` file: one per line, `#` comments and blank lines
/// skipped.
pub fn read_patterns(path: &Path) -> Result<Vec<String>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// An order-sensitive fingerprint of an incident set.
pub fn digest(set: &IncidentSet) -> u64 {
    let mut h = DefaultHasher::new();
    set.len().hash(&mut h);
    for incident in set.iter() {
        incident.hash(&mut h);
    }
    h.finish()
}

/// The oracle's answer to one query.
#[derive(Clone, Copy)]
pub struct Expected {
    pub count: usize,
    pub digest: u64,
}

impl Expected {
    fn of(set: &IncidentSet) -> Self {
        Expected {
            count: set.len(),
            digest: digest(set),
        }
    }

    /// Whether `answer` agrees with the oracle.
    pub fn matches(&self, answer: &Answer) -> bool {
        match answer {
            Answer::Set(s) => s.len() == self.count && digest(s) == self.digest,
            Answer::Count(n) => *n == self.count,
            Answer::Exists(b) => *b == (self.count > 0),
        }
    }
}

fn oracle(log: &Log, patterns: impl IntoIterator<Item = Pattern>) -> Vec<IncidentSet> {
    let naive = Evaluator::with_strategy(log, Strategy::NaivePaper);
    patterns.into_iter().map(|p| naive.evaluate(&p)).collect()
}

fn parse(tr: &mut Tracer, src: &str) -> Result<Query, String> {
    tr.span("pattern.parse", |_| Query::parse(src))
        .map_err(|e| format!("{src:?}: {e}"))
}

fn clinic(tr: &mut Tracer, instances: usize, seed: u64) -> Log {
    let (log, mb) = tr.span("workflow.simulate", |_| {
        mem::resident_mb(|| {
            simulate(
                &scenarios::clinic::model(),
                &SimulationConfig::new(instances, seed),
            )
        })
    });
    tr.gauge("log.resident_mb", mb);
    log
}

/// Writes `log` as `<stem>.txt` and `<stem>.bin` through the program's
/// writers and returns both paths.
fn write_files(tr: &mut Tracer, log: &Log, dir: &Path, stem: &str) -> Result<[PathBuf; 2], String> {
    let txt = dir.join(format!("{stem}.txt"));
    let bin = dir.join(format!("{stem}.bin"));
    let err = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    let text = tr.span("io.write_text", |_| io::text::write_text(log));
    tr.span("fs.write", |_| fs::write(&txt, &text))
        .map_err(|e| err(&txt, e))?;
    let binary = tr.span("io.write_binary", |_| io::binary::write_binary(log));
    tr.span("fs.write", |_| fs::write(&bin, &binary))
        .map_err(|e| err(&bin, e))?;
    let records = log.len() as f64;
    tr.gauge("io.text_bytes_per_record", text.len() as f64 / records);
    tr.gauge("io.binary_bytes_per_record", binary.len() as f64 / records);
    Ok([txt, bin])
}

/// Loads both files and checks they hold `log`, as a round-trip check of
/// the writers and readers.
fn load_both(tr: &mut Tracer, log: &Log, files: &[PathBuf; 2]) -> Result<Log, String> {
    let text = replay::load(tr, &files[0])?;
    let binary = replay::load(tr, &files[1])?;
    if &text != log || &binary != log {
        return Err("log read back differs from the log written".to_string());
    }
    Ok(text)
}

/// Records streamed through the census's streaming evaluator.
const CENSUS_APPENDS: usize = 2_000;

/// In a traced set-up, calls every layer once on the workload's own log
/// with `src`, so that every per-layer metric is measured on every
/// workload. Layers the workload's ops call get many more spans from the
/// ops, which the per-layer medians follow.
fn census(tr: &mut Tracer, log: &Log, dir: &Path, src: &str) -> Result<(), String> {
    if !tr.on() {
        return Ok(());
    }
    let files = write_files(tr, log, dir, "census")?;
    let loaded = load_both(tr, log, &files)?;
    tr.span("log.drop", |_| drop(loaded));
    let records = log.records().to_vec();
    tr.span("log.validate", |_| Log::new(records))
        .map_err(|e| e.to_string())?;
    let q = parse(tr, src)?;
    let mut answers = Vec::new();
    for mode in [Mode::List, Mode::Count, Mode::Exists] {
        answers.push(replay::query(tr, log, &q, mode)?);
    }
    let (ev, planner) = replay::build_evaluator(tr, log);
    let p = q.pattern();
    answers.push(Answer::Set(replay::eval_evaluate(tr, &ev, &planner, p)));
    answers.push(Answer::Count(replay::eval_count(tr, &ev, &planner, p)));
    answers.push(Answer::Exists(replay::eval_exists(tr, &ev, &planner, p)));
    for answer in &answers {
        tr.span("cli.render", |_| replay::cli_output(answer));
    }
    let mut stream = StreamingEvaluator::new(p.clone());
    for record in log.iter().take(CENSUS_APPENDS) {
        tr.span("streaming.append", |_| stream.append(record))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn q_error(estimate: f64, actual: usize) -> f64 {
    let (e, a) = (estimate.max(1.0), (actual as f64).max(1.0));
    (e / a).max(a / e)
}

/// Q-errors of the planner's root estimate on `patterns` against the
/// oracle's counts.
fn planner_q_errors(log: &Log, patterns: &[Pattern], expected: &[Expected]) -> Vec<f64> {
    let planner = Planner::from_log(log);
    patterns
        .iter()
        .zip(expected)
        .map(|(p, e)| {
            let plan = planner.plan(p);
            q_error(planner.cost().estimate_incidents(plan.pattern()), e.count)
        })
        .collect()
}

/// `cold_cli`: one `wlq query` process per op on a 184k-record log,
/// rotating `.txt`/`.bin` and count/list.
struct ColdCli {
    wlq: PathBuf,
    /// This benchmark's own executable, which replays `wlq query` traced.
    replayer: PathBuf,
    log: Log,
    files: [PathBuf; 2],
    patterns: Vec<String>,
    /// Expected stdout per pattern: (count mode, list mode).
    expected: Vec<(String, String)>,
    counts: Vec<Expected>,
    rotations: usize,
}

/// First argument that makes this benchmark replay one `wlq query`
/// command with spans (see [`replay_cli_main`]).
pub const REPLAY_CLI: &str = "replay-cli";

/// Runs `query <file> <pattern> [--count]` like `wlq` does, printing its
/// output on stdout and its spans on stderr for the parent benchmark.
pub fn replay_cli_main(args: &[String]) -> Result<(), String> {
    let [cmd, path, src, flags @ ..] = args else {
        return Err("usage: replay-cli query <file> <pattern> [--count]".to_string());
    };
    let mode = match flags {
        [] => Mode::List,
        [f] if f == "--count" => Mode::Count,
        _ => return Err(format!("unsupported flags {flags:?}")),
    };
    if cmd != "query" {
        return Err(format!("unsupported command {cmd:?}"));
    }
    mem::enable_counting();
    let mut tr = Tracer::new(true);
    let out = replay::cli_query(&mut tr, Path::new(path), src, mode)?;
    print!("{out}");
    eprint!("{}", tr.to_lines());
    Ok(())
}

const COLD_KINDS: [(usize, Mode); 4] = [
    (0, Mode::Count),
    (1, Mode::Count),
    (0, Mode::List),
    (1, Mode::List),
];

impl ColdCli {
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String> {
        let log = clinic(tr, LARGE_CLINIC, ctx.seed);
        let files = write_files(tr, &log, &ctx.dir, "cold")?;
        census(tr, &log, &ctx.dir, &ctx.patterns[0])?;
        Ok(ColdCli {
            wlq: ctx.wlq.clone(),
            replayer: std::env::current_exe().map_err(|e| e.to_string())?,
            log,
            files,
            patterns: ctx.patterns.clone(),
            expected: Vec::new(),
            counts: Vec::new(),
            rotations: 0,
        })
    }
}

impl Workload for ColdCli {
    fn kinds(&self) -> Vec<String> {
        COLD_KINDS
            .iter()
            .map(|(f, m)| format!("{} {}", ["txt", "bin"][*f], m.name()))
            .collect()
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        let patterns: Vec<Pattern> = self
            .patterns
            .iter()
            .map(|s| s.parse().map_err(|e| format!("{s:?}: {e}")))
            .collect::<Result<_, _>>()?;
        for set in oracle(&self.log, patterns) {
            self.counts.push(Expected::of(&set));
            let count = replay::cli_output(&Answer::Count(set.len()));
            self.expected
                .push((count, replay::cli_output(&Answer::Set(set))));
        }
        Ok(())
    }

    fn cycle(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        // Every rotation runs each pattern once, so any number of whole
        // rotations answers the same mix; the file format and mode move
        // one step per rotation.
        self.rotations += 1;
        for i in 0..self.patterns.len() {
            let kind = (i + self.rotations) % COLD_KINDS.len();
            let (format, mode) = COLD_KINDS[kind];
            let (src, path) = (&self.patterns[i], &self.files[format]);
            let want = match mode {
                Mode::Count => &self.expected[i].0,
                _ => &self.expected[i].1,
            };
            let (out, dt) = tr.op(kind as u32, |tr| {
                // A traced op replays the command in a fresh process of
                // this benchmark, so that it too starts with an empty heap.
                let mut cmd = if tr.on() {
                    let mut cmd = Command::new(&self.replayer);
                    cmd.arg(REPLAY_CLI);
                    cmd
                } else {
                    Command::new(&self.wlq)
                };
                cmd.arg("query").arg(path).arg(src);
                if mode == Mode::Count {
                    cmd.arg("--count");
                }
                let start = tr.now_ns();
                let out = cmd.output();
                if let (true, Ok(o)) = (tr.on(), &out) {
                    tr.adopt(&String::from_utf8_lossy(&o.stderr), start);
                }
                out
            });
            let ok = out.is_ok_and(|o| o.status.success() && o.stdout == want.as_bytes());
            let incidents = self.counts[i].count as f64;
            rec.op(
                kind as u32,
                dt.as_secs_f64(),
                ok,
                self.log.len() as f64,
                incidents,
            );
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        mem::children_peak_rss_mb()
    }

    fn q_errors(&self) -> Vec<f64> {
        // `wlq query` answers through `Query`, whose pattern-level plan the
        // planner then plans again.
        let plans: Vec<Pattern> = self
            .patterns
            .iter()
            .filter_map(|s| Query::parse(s).ok())
            .map(|q| q.plan(&self.log))
            .collect();
        planner_q_errors(&self.log, &plans, &self.counts)
    }
}

/// `warm_session`: `Query::{find,count,exists}` on a loaded 18k-record
/// log, for the example patterns and the clinic fraud rules.
struct WarmSession {
    log: Log,
    queries: Vec<(String, Query)>,
    expected: Vec<Expected>,
}

const WARM_MODES: [Mode; 3] = [Mode::List, Mode::Count, Mode::Exists];

impl WarmSession {
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String> {
        let generated = clinic(tr, SMALL_CLINIC, ctx.seed);
        let files = write_files(tr, &generated, &ctx.dir, "warm")?;
        let log = load_both(tr, &generated, &files)?;
        census(tr, &log, &ctx.dir, &ctx.patterns[0])?;
        let mut queries = Vec::new();
        for src in &ctx.patterns {
            queries.push((src.clone(), parse(tr, src)?));
        }
        let rules = RuleSet::parse(wlq::rules::CLINIC_FRAUD_RULES).map_err(|e| e.to_string())?;
        for rule in rules.rules() {
            queries.push((rule.query.pattern().to_string(), rule.query.clone()));
        }
        Ok(WarmSession {
            log,
            queries,
            expected: Vec::new(),
        })
    }
}

impl Workload for WarmSession {
    fn kinds(&self) -> Vec<String> {
        self.queries
            .iter()
            .flat_map(|(src, _)| {
                WARM_MODES
                    .iter()
                    .map(move |m| format!("{} {src}", m.name()))
            })
            .collect()
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        let patterns = self.queries.iter().map(|(_, q)| q.pattern().clone());
        self.expected = oracle(&self.log, patterns)
            .iter()
            .map(Expected::of)
            .collect();
        Ok(())
    }

    fn cycle(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        for (qi, (_, q)) in self.queries.iter().enumerate() {
            for (mi, &mode) in WARM_MODES.iter().enumerate() {
                let kind = (qi * WARM_MODES.len() + mi) as u32;
                let (answer, dt) = tr.op(kind, |tr| replay::query(tr, &self.log, q, mode));
                let ok = answer.as_ref().is_ok_and(|a| self.expected[qi].matches(a));
                let incidents = answer.map_or(0, |a| a.incidents()) as f64;
                rec.op(kind, dt.as_secs_f64(), ok, self.log.len() as f64, incidents);
            }
        }
    }

    fn q_errors(&self) -> Vec<f64> {
        let plans: Vec<Pattern> = self
            .queries
            .iter()
            .map(|(_, q)| q.plan(&self.log))
            .collect();
        planner_q_errors(&self.log, &plans, &self.expected)
    }
}

/// `dense_enum`: `Evaluator::{evaluate,count}` on long instances over
/// eight activities, where enumeration dominates.
struct DenseEnum {
    log: &'static Log,
    evaluator: Evaluator<'static>,
    /// The replay's index-only evaluator and planner (traced runs).
    replay: Option<(Evaluator<'static>, Planner)>,
    patterns: Vec<Pattern>,
    expected: Vec<Expected>,
}

const DENSE_MODES: [Mode; 2] = [Mode::List, Mode::Count];

impl DenseEnum {
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String> {
        let generated = tr.span("workflow.generate", |_| {
            generator::uniform_log(DENSE_INSTANCES, DENSE_LENGTH, DENSE_ALPHABET, ctx.seed)
        });
        let files = write_files(tr, &generated, &ctx.dir, "dense")?;
        // The evaluator borrows the log for the rest of the process, so
        // the log is leaked; each repeated set-up leaves one copy (a few
        // MB) behind, the same on every run.
        let log: &'static Log = Box::leak(Box::new(load_both(tr, &generated, &files)?));
        census(tr, log, &ctx.dir, DENSE_PATTERNS[0])?;
        let replay = tr.on().then(|| replay::build_evaluator(tr, log));
        let evaluator = Evaluator::new(log);
        let patterns = DENSE_PATTERNS
            .iter()
            .map(|s| parse(tr, s).map(|q| q.pattern().clone()))
            .collect::<Result<_, _>>()?;
        Ok(DenseEnum {
            log,
            evaluator,
            replay,
            patterns,
            expected: Vec::new(),
        })
    }
}

impl Workload for DenseEnum {
    fn kinds(&self) -> Vec<String> {
        self.patterns
            .iter()
            .flat_map(|p| DENSE_MODES.iter().map(move |m| format!("{} {p}", m.name())))
            .collect()
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        self.expected = oracle(self.log, self.patterns.iter().cloned())
            .iter()
            .map(Expected::of)
            .collect();
        Ok(())
    }

    fn cycle(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        for (pi, p) in self.patterns.iter().enumerate() {
            for (mi, &mode) in DENSE_MODES.iter().enumerate() {
                let kind = (pi * DENSE_MODES.len() + mi) as u32;
                let (answer, dt) = tr.op(kind, |tr| match (&self.replay, tr.on(), mode) {
                    (Some((ev, pl)), true, Mode::List) => {
                        Answer::Set(replay::eval_evaluate(tr, ev, pl, p))
                    }
                    (Some((ev, pl)), true, _) => Answer::Count(replay::eval_count(tr, ev, pl, p)),
                    (_, _, Mode::List) => Answer::Set(self.evaluator.evaluate(p)),
                    _ => Answer::Count(self.evaluator.count(p)),
                });
                let ok = self.expected[pi].matches(&answer);
                let incidents = answer.incidents() as f64;
                rec.op(kind, dt.as_secs_f64(), ok, self.log.len() as f64, incidents);
            }
        }
    }

    fn q_errors(&self) -> Vec<f64> {
        planner_q_errors(self.log, &self.patterns, &self.expected)
    }
}

/// `stream_append`: the 184k-record clinic log fed one record at a time
/// to a streaming evaluator per pattern.
struct StreamAppend {
    log: Log,
    patterns: Vec<Pattern>,
    expected: Vec<Expected>,
}

impl StreamAppend {
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String> {
        let log = clinic(tr, LARGE_CLINIC, ctx.seed);
        census(tr, &log, &ctx.dir, STREAM_PATTERNS[0])?;
        let patterns = STREAM_PATTERNS
            .iter()
            .map(|s| parse(tr, s).map(|q| q.pattern().clone()))
            .collect::<Result<_, _>>()?;
        Ok(StreamAppend {
            log,
            patterns,
            expected: Vec::new(),
        })
    }
}

impl Workload for StreamAppend {
    fn kinds(&self) -> Vec<String> {
        self.patterns
            .iter()
            .map(|p| format!("append {p}"))
            .collect()
    }

    fn recorder(&self) -> Recorder {
        Recorder::histogram(self.patterns.len())
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        self.expected = oracle(&self.log, self.patterns.iter().cloned())
            .iter()
            .map(Expected::of)
            .collect();
        Ok(())
    }

    fn cycle(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        for (kind, p) in self.patterns.iter().enumerate() {
            let kind = kind as u32;
            let mut stream = StreamingEvaluator::new(p.clone());
            let mut emitted = 0usize;
            let mut all_ok = true;
            for (i, record) in self.log.iter().enumerate() {
                if tr.on() && i % STREAM_TRACE_EVERY != 0 {
                    let t0 = Instant::now();
                    let out = stream.append(record);
                    tr.note_untraced(kind, t0.elapsed());
                    all_ok &= out.is_ok();
                    emitted += out.map_or(0, |v| v.len());
                    continue;
                }
                let (out, dt) = tr.op_once(kind, |tr| {
                    tr.span("streaming.append", |_| stream.append(record))
                });
                let n = out.as_ref().map_or(0, Vec::len);
                emitted += n;
                rec.op(kind, dt.as_secs_f64(), out.is_ok(), 1.0, n as f64);
            }
            let e = self.expected[kind as usize];
            rec.check(all_ok && emitted == e.count && digest(&stream.incidents()) == e.digest);
        }
    }

    fn q_errors(&self) -> Vec<f64> {
        planner_q_errors(&self.log, &self.patterns, &self.expected)
    }

    fn stream_emitted(&self) -> f64 {
        self.expected.iter().map(|e| e.count as f64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    #[test]
    fn a_wrong_oracle_answer_is_counted_as_failed() {
        let log = paper::figure3_log();
        let src = "UpdateRefer -> GetReimburse";
        let mut w = WarmSession {
            log,
            queries: vec![(src.to_string(), Query::parse(src).unwrap())],
            expected: Vec::new(),
        };
        w.prepare_oracle().unwrap();
        let mut rec = w.recorder();
        w.cycle(&mut Tracer::new(false), &mut rec);
        assert_eq!((rec.attempted, rec.failed), (3, 0));
        // One more incident than the truth: list and count now disagree,
        // while "exists" still holds.
        w.expected[0].count += 1;
        w.cycle(&mut Tracer::new(true), &mut rec);
        assert_eq!((rec.attempted, rec.failed), (6, 2));
    }

    #[test]
    fn example_patterns_are_read_without_comments() {
        let path = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../examples/patterns.wlq"
        ));
        let patterns = read_patterns(path).unwrap();
        assert!(patterns.len() >= 10);
        assert!(patterns
            .iter()
            .all(|p| !p.starts_with('#') && p.parse::<Pattern>().is_ok()));
    }
}
