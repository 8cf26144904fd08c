//! Metric definitions and the JSON the benchmark prints and writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::{Recorder, Samples};
use crate::stats;
use crate::trace::{json_string, Tracer, SETUP_KIND};
use crate::workloads::Workload;

/// A measured value with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("records_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("incidents_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs of every workload.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("fs.read_ms", "ms"),
    ("io.read_text_ms", "ms"),
    ("io.read_binary_ms", "ms"),
    ("log.validate_ms", "ms"),
    ("log.resident_mb", "MiB"),
    ("io.write_text_ms", "ms"),
    ("io.write_binary_ms", "ms"),
    ("io.text_bytes_per_record", "B"),
    ("io.binary_bytes_per_record", "B"),
    ("index.build_ms", "ms"),
    ("index.resident_mb", "MiB"),
    ("stats.compute_ms", "ms"),
    ("planner.new_ms", "ms"),
    ("query.find_ms", "ms"),
    ("query.count_ms", "ms"),
    ("query.exists_ms", "ms"),
    ("query.rebuild_share", "ratio"),
    ("pattern.parse_us", "us"),
    ("pattern.optimize_us", "us"),
    ("planner.plan_us", "us"),
    ("planner.root_q_error", "ratio"),
    ("eval.evaluate_ms", "ms"),
    ("eval.count_ms", "ms"),
    ("eval.exists_ms", "ms"),
    ("eval.incidents", "count"),
    ("counting.fast_count_ms", "ms"),
    ("streaming.append_us", "us"),
    ("streaming.emitted", "count"),
    ("cli.render_ms", "ms"),
    ("log.drop_ms", "ms"),
    ("op.ingest_share", "ratio"),
    ("op.exec_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Layers whose self time counts as ingest: reading, parsing and
/// validating the log, and building the index and statistics over it.
const INGEST_LAYERS: [&str; 5] = ["fs", "io", "log", "index", "stats"];
/// Layers whose self time counts as execution.
const EXEC_LAYERS: [&str; 2] = ["eval", "counting"];
/// Spans whose self time is rebuilt on every `Query` call.
const REBUILD_SPANS: [&str; 3] = ["stats.compute", "index.build", "planner.new"];

fn table(
    rows: &[(&'static str, &'static str)],
    value: impl Fn(&str) -> f64,
) -> BTreeMap<&'static str, Metric> {
    rows.iter()
        .map(|&(name, unit)| {
            let v = value(name);
            (
                name,
                Metric {
                    value: if v.is_finite() { v } else { 0.0 },
                    unit,
                },
            )
        })
        .collect()
}

/// End-to-end metrics of an untraced pass.
pub fn end_to_end(
    rec: &Recorder,
    setup_s: f64,
    peak_rss_mb: f64,
) -> BTreeMap<&'static str, Metric> {
    let secs = rec.op_seconds.max(f64::MIN_POSITIVE);
    table(&END_TO_END, |name| match name {
        "setup_s" => setup_s,
        "latency_p50_ms" => rec.typical_median_ms(),
        "latency_p90_ms" => rec.latency_ms(0.90),
        "latency_p99_ms" => rec.latency_ms(0.99),
        "records_per_s" => rec.records / secs,
        "queries_per_s" => rec.ops() as f64 / secs,
        "incidents_per_s" => rec.incidents / secs,
        "peak_rss_mb" => peak_rss_mb,
        _ => unreachable!("every end-to-end metric has a definition"),
    })
}

/// Per-op sums of one traced op, in milliseconds.
#[derive(Default, Clone, Copy)]
struct OpTimes {
    total: f64,
    attributed: f64,
    ingest: f64,
    exec: f64,
}

/// Per-layer metrics of a traced run.
pub fn per_layer(
    tr: &Tracer,
    traced: &Recorder,
    w: &dyn Workload,
) -> BTreeMap<&'static str, Metric> {
    let spans = tr.spans();
    let own = tr.self_times();
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        durations.entry(s.name).or_default().push(ms(s.dur_ns()));
    }
    let mut gauges: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(name, v) in tr.gauges() {
        gauges.entry(name).or_default().push(v);
    }

    // Per op (setup excluded): total, attributed and layer-group times.
    let ops = tr.ops();
    let mut per_op = vec![OpTimes::default(); ops.len()];
    let (mut rebuild, mut facade) = (0.0, 0.0);
    for (i, s) in spans.iter().enumerate() {
        let (kind, root) = ops[s.op as usize];
        if kind == SETUP_KIND {
            continue;
        }
        let t = &mut per_op[s.op as usize];
        if i as u32 == root {
            t.total = ms(s.dur_ns());
            continue;
        }
        let layer = s.name.split('.').next().unwrap_or("");
        t.attributed += ms(own[i]);
        if INGEST_LAYERS.contains(&layer) {
            t.ingest += ms(own[i]);
        }
        if EXEC_LAYERS.contains(&layer) {
            t.exec += ms(own[i]);
        }
        if REBUILD_SPANS.contains(&s.name) {
            rebuild += ms(own[i]);
        }
        if layer == "query" && s.parent == root {
            facade += ms(s.dur_ns());
        }
    }
    // Medians per op kind, summed over the kinds both passes ran.
    let untraced_medians = tr.untraced_medians_ms(w.kinds().len());
    let mut by_kind: BTreeMap<u32, Vec<OpTimes>> = BTreeMap::new();
    for (op, &(kind, _)) in ops.iter().enumerate() {
        if kind != SETUP_KIND {
            by_kind.entry(kind).or_default().push(per_op[op]);
        }
    }
    let mut sums = OpTimes::default();
    let mut untraced_sum = 0.0;
    for (kind, times) in &by_kind {
        let Some(Some(u)) = untraced_medians.get(*kind as usize) else {
            continue;
        };
        let med = |f: fn(&OpTimes) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());
        untraced_sum += u;
        sums.total += med(|t| t.total);
        sums.attributed += med(|t| t.attributed);
        sums.ingest += med(|t| t.ingest);
        sums.exec += med(|t| t.exec);
    }
    let share = |x: f64| {
        if untraced_sum > 0.0 {
            x / untraced_sum
        } else {
            0.0
        }
    };
    let q_errors = w.q_errors();

    table(&PER_LAYER, |name| match name {
        "query.rebuild_share" => {
            if facade > 0.0 {
                rebuild / facade
            } else {
                0.0
            }
        }
        "planner.root_q_error" => stats::median(&q_errors),
        "eval.incidents" => traced.incidents / traced.ops().max(1) as f64,
        "streaming.emitted" => w.stream_emitted(),
        "op.ingest_share" => share(sums.ingest),
        "op.exec_share" => share(sums.exec),
        "trace.unattributed_share" => 1.0 - share(sums.attributed),
        "trace.overhead_share" => share(sums.total) - 1.0,
        _ => {
            if name.ends_with("_mb") || name.ends_with("_per_record") {
                return gauges.get(name).map_or(0.0, |v| stats::median(v));
            }
            let (span, scale) = if let Some(s) = name.strip_suffix("_ms") {
                (s, 1.0)
            } else if let Some(s) = name.strip_suffix("_us") {
                (s, 1e3)
            } else {
                unreachable!("per-layer metric {name} has no definition")
            };
            durations
                .get(span)
                .map_or(0.0, |d| stats::median(d) * scale)
        }
    })
}

fn metrics_json(m: &BTreeMap<&'static str, Metric>) -> String {
    let mut out = String::from("{");
    for (i, (name, metric)) in m.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            metric.value,
            json_string(metric.unit)
        );
    }
    out.push('}');
    out
}

/// The line the benchmark prints last.
pub fn result_line(m: &BTreeMap<&'static str, Metric>, attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(m)
    )
}

pub fn number_list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Every latency sample of a pass as JSON: per op kind, a list of
/// milliseconds, or for histograms a list of `[lower_ns, count]` buckets.
pub fn samples_json(rec: &Recorder) -> String {
    match &rec.samples {
        Samples::Raw(per_kind) => {
            let kinds: Vec<String> = per_kind
                .iter()
                .map(|v| number_list(v.iter().copied()))
                .collect();
            format!("{{\"latency_ms\": [{}]}}", kinds.join(", "))
        }
        Samples::Hist(per_kind) => {
            let kinds: Vec<String> = per_kind
                .iter()
                .map(|h| {
                    let buckets: Vec<String> =
                        h.nonempty().map(|(lo, c)| format!("[{lo}, {c}]")).collect();
                    format!("[{}]", buckets.join(", "))
                })
                .collect();
            format!("{{\"latency_hist_ns\": [{}]}}", kinds.join(", "))
        }
    }
}

/// A human-readable summary for standard error.
pub fn summary(
    workload: &str,
    m: &BTreeMap<&'static str, Metric>,
    attempted: u64,
    failed: u64,
) -> String {
    let mut out = format!("{workload}\n");
    for (name, metric) in m {
        let _ = writeln!(out, "  {name:<28} {:>14.4} {}", metric.value, metric.unit);
    }
    let ratio = failed as f64 / attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  {:<28} {failed}/{attempted} = {ratio}",
        "failed_ratio"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .chain(crate::workloads::WORKLOADS);
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_known_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let split = listed.iter().position(|n| *n == END_TO_END[0].0).unwrap();
        let (workloads, metrics) = listed.split_at(split);
        assert!(!workloads.is_empty());
        assert!(workloads
            .iter()
            .all(|w| crate::workloads::WORKLOADS.contains(w)));
        let ours: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(metrics, ours.as_slice());
    }

    #[test]
    fn a_wrong_answer_counts_as_failed() {
        let mut rec = Recorder::raw(1);
        rec.op(0, 0.001, true, 1.0, 1.0);
        rec.op(0, 0.001, false, 1.0, 1.0);
        let line = result_line(&end_to_end(&rec, 1.0, 1.0), rec.attempted, rec.failed);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
    }
}
