//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **fixpoint strategy** — semi-naive vs naive iteration;
//! * **solver pruning policy** — never / end-of-stratum (the paper's
//!   batch Z3 step);
//! * **indexed matching** — `Table::find_matches` probe vs full scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faure_bench::workload;
use faure_core::{evaluate_with, EvalOptions, PrunePolicy};
use faure_net::queries;
use faure_storage::{Pattern, Table};

fn bench_fixpoint_strategy(c: &mut Criterion) {
    let w = workload(80, 1);
    let mut group = c.benchmark_group("ablation_fixpoint");
    group.sample_size(10);
    for (label, semi) in [("semi_naive", true), ("naive", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &semi, |b, &semi| {
            let opts = EvalOptions {
                semi_naive: semi,
                prune: PrunePolicy::Never,
                ..Default::default()
            };
            b.iter(|| {
                evaluate_with(&queries::reachability_program(), &w.db, &opts)
                    .expect("evaluation succeeds")
            })
        });
    }
    group.finish();
}

fn bench_prune_policy(c: &mut Criterion) {
    let w = workload(80, 1);
    let mut group = c.benchmark_group("ablation_prune_policy");
    group.sample_size(10);
    for (label, policy) in [
        ("never", PrunePolicy::Never),
        ("end_of_stratum", PrunePolicy::EndOfStratum),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &policy, |b, &policy| {
            let opts = EvalOptions {
                prune: policy,
                ..Default::default()
            };
            b.iter(|| {
                evaluate_with(&queries::reachability_program(), &w.db, &opts)
                    .expect("evaluation succeeds")
            })
        });
    }
    group.finish();
}

fn bench_index_vs_scan(c: &mut Criterion) {
    // Build a large F table and probe it with a constant pattern.
    let w = workload(2000, 1);
    let f = w.db.relation("F").expect("generated");
    let table = Table::from_relation(f);
    let reg = &w.db.cvars;
    let probe = [
        Pattern::Exact(faure_ctable::Term::int(500)),
        Pattern::Any,
        Pattern::Any,
    ];

    let mut group = c.benchmark_group("ablation_index");
    group.bench_function("indexed_probe", |b| {
        b.iter(|| table.find_matches(reg, &probe).len())
    });
    group.bench_function("full_scan", |b| {
        b.iter(|| {
            table
                .iter()
                .filter(|row| Table::match_row(reg, row, &probe).is_some())
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fixpoint_strategy,
    bench_prune_policy,
    bench_index_vs_scan
);
criterion_main!(benches);
