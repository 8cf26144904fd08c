//! Flat arena-backed kernels vs the paper's incident-list operators.
//!
//! Two levels of comparison:
//!
//! * **Kernels** — `naive::*_eval` (Algorithm 1) over `Vec<Incident>`
//!   against [`wlq_engine::combine_batch_into`] over prebuilt
//!   [`IncidentBatch`] inputs with a recycled output batch (exactly how
//!   the executor drives the kernels). The join workloads (⊙/→) are the
//!   ones the flat layout targets: unions become bump-appends into the
//!   shared position pool and no per-incident `Vec` is ever allocated.
//! * **End to end** — `Evaluator` with `Strategy::NaivePaper` vs
//!   `Strategy::Batch` (the physical plan of the tree as written) vs
//!   `Strategy::Planned` on adversarial pair logs, where the plan keeps
//!   the flat representation through the whole pattern tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::{combine_batch_into, naive, Evaluator, Incident, IncidentBatch, Strategy};
use wlq_log::{IsLsn, Wid};
use wlq_pattern::{Op, Pattern};
use wlq_workflow::generator;

const WID: Wid = Wid(1);

/// Singleton incidents at `start, start + step, …` (`n` of them).
fn singletons(start: u32, step: u32, n: u32) -> Vec<Incident> {
    (0..n)
        .map(|i| Incident::singleton(WID, IsLsn(start + i * step)))
        .collect()
}

/// Width-2 incidents `{p, p + 1}` for `p = start, start + step, …`.
fn pairs(start: u32, step: u32, n: u32) -> Vec<Incident> {
    (0..n)
        .map(|i| {
            let p = start + i * step;
            Incident::from_positions(WID, vec![IsLsn(p), IsLsn(p + 1)])
        })
        .collect()
}

fn batch_of(incidents: &[Incident]) -> IncidentBatch {
    IncidentBatch::from_incidents(WID, incidents)
}

/// Benchmark one operator on one fixture pair, list vs flat.
fn bench_kernel_case(
    group: &mut criterion::BenchmarkGroup<'_>,
    op: Op,
    name: &str,
    left: &[Incident],
    right: &[Incident],
) {
    let eval = match op {
        Op::Consecutive => naive::consecutive_eval,
        Op::Sequential => naive::sequential_eval,
        Op::Choice => naive::choice_eval,
        Op::Parallel => naive::parallel_eval,
    };
    group.bench_with_input(BenchmarkId::new("lists", name), &(), |b, ()| {
        b.iter(|| black_box(eval(left, right)));
    });
    let (lb, rb) = (batch_of(left), batch_of(right));
    let mut out = IncidentBatch::new(WID);
    group.bench_with_input(BenchmarkId::new("batch", name), &(), |b, ()| {
        b.iter(|| {
            combine_batch_into(op, &lb, &rb, &mut out);
            black_box(out.len())
        });
    });
}

/// ⊙: every left incident chains into exactly one right incident.
fn bench_consecutive(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_consecutive");
    group.sample_size(10);
    for n in [256u32, 1024, 4096] {
        let left = singletons(0, 2, n);
        let right = singletons(1, 2, n);
        bench_kernel_case(
            &mut group,
            Op::Consecutive,
            &format!("dense_{n}"),
            &left,
            &right,
        );
    }
    group.finish();
}

/// →: all-pairs join, the quadratic worst case (~n²/2 output incidents).
fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_sequential");
    group.sample_size(10);
    for n in [64u32, 128, 256] {
        let left = singletons(0, 2, n);
        let right = singletons(1, 2, n);
        bench_kernel_case(
            &mut group,
            Op::Sequential,
            &format!("allpairs_{n}"),
            &left,
            &right,
        );
        let left = pairs(0, 4, n);
        let right = pairs(2, 4, n);
        bench_kernel_case(
            &mut group,
            Op::Sequential,
            &format!("width2_{n}"),
            &left,
            &right,
        );
    }
    group.finish();
}

/// ⊗: interleaved union.
fn bench_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_choice");
    group.sample_size(10);
    for n in [1024u32, 4096] {
        let left = singletons(0, 2, n);
        let right = singletons(1, 2, n);
        bench_kernel_case(
            &mut group,
            Op::Choice,
            &format!("interleaved_{n}"),
            &left,
            &right,
        );
    }
    group.finish();
}

/// ⊕: disjoint all-pairs unions (the concat fast path) at modest sizes.
fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_parallel");
    group.sample_size(10);
    for n in [64u32, 128] {
        let left = pairs(0, 4, n);
        let right = pairs(2, 4, n);
        bench_kernel_case(
            &mut group,
            Op::Parallel,
            &format!("disjoint_{n}"),
            &left,
            &right,
        );
    }
    group.finish();
}

/// The strategies compared end to end, with their benchmark id prefixes.
const STRATEGIES: [(&str, Strategy); 3] = [
    ("naive", Strategy::NaivePaper),
    ("batch", Strategy::Batch),
    ("planned", Strategy::Planned),
];

/// Whole-evaluator comparison on adversarial pair logs.
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_end_to_end");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let log = generator::pair_log("A", n, "B", n, true);
        for (name, src) in [("consecutive", "A ~> B"), ("sequential", "A -> B")] {
            let p: Pattern = src.parse().unwrap();
            for (id, strategy) in STRATEGIES {
                group.bench_with_input(BenchmarkId::new(format!("{id}_{name}"), n), &p, |b, p| {
                    let eval = Evaluator::with_strategy(&log, strategy);
                    b.iter(|| black_box(eval.evaluate(p)));
                });
            }
        }
    }
    group.finish();
}

/// Counting queries: a plan counts batch refs (here, a chain, through the
/// counting DP) without materialising an incident, while Algorithm 1
/// must build every `Vec<Incident>` first.
fn bench_end_to_end_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_count");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let log = generator::pair_log("A", n, "B", n, true);
        let p: Pattern = "A -> B".parse().unwrap();
        for (id, strategy) in STRATEGIES {
            group.bench_with_input(
                BenchmarkId::new(format!("{id}_sequential"), n),
                &p,
                |b, p| {
                    let eval = Evaluator::with_strategy(&log, strategy);
                    b.iter(|| black_box(eval.count(p)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_consecutive,
    bench_sequential,
    bench_choice,
    bench_parallel,
    bench_end_to_end,
    bench_end_to_end_count
);
criterion_main!(benches);
