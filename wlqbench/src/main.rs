//! End-to-end and per-layer benchmark of the WLQ workspace.
//!
//! ```text
//! wlqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          --wlq <path-to-wlq> --out <dir> [--rev <git-rev>] [--rustc <version>]
//! ```
//!
//! Run it through `run.py`, which builds the program and this benchmark
//! first. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the result file
//! written under `--out` adds provenance and every sample. The exit code
//! is 0 when every answer matched the oracle, 1 when one did not, and 2
//! when the run could not be made.

mod mem;
mod metrics;
mod record;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::metrics::Metric;
use crate::trace::{json_string, Tracer, SETUP_KIND};
use crate::workloads::{Ctx, Workload};

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    wlq: PathBuf,
    out: PathBuf,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = take("seed")?
        .parse()
        .map_err(|_| "--seed needs a whole number")?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        wlq: take("wlq")?.into(),
        out: take("out")?.into(),
        rev: take("rev").unwrap_or_else(|_| "unknown".into()),
        rustc: take("rustc").unwrap_or_else(|_| "unknown".into()),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(args)
}

/// Runs whole rotations of the op mix until `seconds` have passed.
fn measure(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64) -> record::Recorder {
    let mut rec = w.recorder();
    let t0 = Instant::now();
    loop {
        w.cycle(tr, &mut rec);
        if t0.elapsed().as_secs_f64() >= seconds {
            return rec;
        }
    }
}

fn run(args: &Args) -> Result<(BTreeMap<&'static str, Metric>, Report), String> {
    let dir = args.out.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        dir: dir.clone(),
        wlq: args.wlq.clone(),
        patterns: workloads::read_patterns(std::path::Path::new("examples/patterns.wlq"))?,
    };
    if ctx.patterns.is_empty() {
        return Err("examples/patterns.wlq holds no pattern".to_string());
    }
    let result = if args.trace {
        traced(args, &ctx)
    } else {
        untraced(args, &ctx)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// What a run saw besides its metrics, for the result file.
struct Report {
    attempted: u64,
    failed: u64,
    kinds: Vec<String>,
    samples: String,
    setup_s: Vec<f64>,
    spans_file: Option<PathBuf>,
}

fn untraced(args: &Args, ctx: &Ctx) -> Result<(BTreeMap<&'static str, Metric>, Report), String> {
    let mut tr = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t0 = Instant::now();
        let w = workloads::setup(&args.workload, ctx, &mut tr)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.ok_or("no set-up ran")?;
    w.prepare_oracle()?;
    mem::reset_self_peak_rss();
    let rec = measure(w.as_mut(), &mut tr, args.seconds);
    let peak = w.peak_rss_mb();
    let m = metrics::end_to_end(&rec, stats::median(&setup_s), peak);
    let report = Report {
        attempted: rec.attempted,
        failed: rec.failed,
        kinds: w.kinds(),
        samples: metrics::samples_json(&rec),
        setup_s,
        spans_file: None,
    };
    Ok((m, report))
}

fn traced(args: &Args, ctx: &Ctx) -> Result<(BTreeMap<&'static str, Metric>, Report), String> {
    mem::enable_counting();
    let mut tr = Tracer::new(true);
    let t0 = Instant::now();
    let (w, _) = tr.op_once(SETUP_KIND, |tr| workloads::setup(&args.workload, ctx, tr));
    let setup_s = vec![t0.elapsed().as_secs_f64()];
    let mut w = w?;
    w.prepare_oracle()?;
    // Each op also runs untraced right before its traced run (see
    // `Tracer::op`), so both see the same machine.
    let traced = measure(w.as_mut(), &mut tr, args.seconds);
    let kinds = w.kinds();
    let m = metrics::per_layer(&tr, &traced, w.as_ref());
    let spans_file = args
        .out
        .join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    let jsonl = tr.to_jsonl(|k| {
        if k == SETUP_KIND {
            "setup".to_string()
        } else {
            kinds[k as usize].clone()
        }
    });
    std::fs::write(&spans_file, jsonl).map_err(|e| format!("{}: {e}", spans_file.display()))?;
    let report = Report {
        attempted: traced.attempted,
        failed: traced.failed,
        kinds,
        samples: metrics::samples_json(&traced),
        setup_s,
        spans_file: Some(spans_file),
    };
    Ok((m, report))
}

/// The result file: provenance, every sample, and the printed result.
fn result_file(args: &Args, report: &Report, result: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kinds: Vec<String> = report.kinds.iter().map(|k| json_string(k)).collect();
    let spans = report.spans_file.as_ref().map_or("null".to_string(), |p| {
        json_string(&p.display().to_string())
    });
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"op_kinds\": [{}], \
         \"setup_s\": {}, \"samples\": {}, \"spans_file\": {spans}, \"result\": {result}}}\n",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&args.rev),
        json_string(&args.rustc),
        kinds.join(", "),
        metrics::number_list(report.setup_s.iter().copied()),
        report.samples,
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(workloads::REPLAY_CLI) {
        return match workloads::replay_cli_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("wlqbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wlqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (m, report) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wlqbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let result = metrics::result_line(&m, report.attempted, report.failed);
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let provenance = result_file(&args, &report, &result);
    if let Err(e) = std::fs::write(&file, provenance) {
        eprintln!("wlqbench: {}: {e}", file.display());
        return ExitCode::from(2);
    }
    eprint!(
        "{}",
        metrics::summary(&args.workload, &m, report.attempted, report.failed)
    );
    println!("{result}");
    if report.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
