//! Criterion bench: LP/MILP solve time for Conductor models of growing size
//! (the statistical counterpart of Figure 16), plus a comparison of the
//! cold and warm-started (default) node starts.

use conductor_cloud::Catalog;
use conductor_core::{Goal, ModelConfig, ModelInstance, Planner, ResourcePool};
use conductor_lp::SolveOptions;
use conductor_mapreduce::Workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn pool() -> ResourcePool {
    ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0).with_compute_only(&["m1.large"])
}

fn bench_model_build(c: &mut Criterion) {
    let pool = pool();
    let spec = Workload::KMeans32Gb.spec();
    let mut group = c.benchmark_group("model_build");
    for horizon in [6usize, 12, 24] {
        group.bench_with_input(BenchmarkId::from_parameter(horizon), &horizon, |b, &h| {
            let config = ModelConfig {
                horizon_intervals: h,
                ..Default::default()
            };
            b.iter(|| ModelInstance::build(&pool, &spec, &config).unwrap());
        });
    }
    group.finish();
}

fn bench_plan_solve(c: &mut Criterion) {
    let spec = Workload::KMeans32Gb.spec();
    let mut group = c.benchmark_group("plan_solve");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    for deadline in [6.0f64, 8.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{deadline}h")),
            &deadline,
            |b, &d| {
                let planner = Planner::new(pool()).with_solve_options(SolveOptions {
                    time_limit: Duration::from_secs(30),
                    ..Default::default()
                });
                b.iter(|| {
                    planner
                        .plan(&spec, Goal::MinimizeCost { deadline_hours: d })
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// Cold vs warm node starts on the same planning workload. Expect
/// warm << cold.
fn bench_solver_configurations(c: &mut Criterion) {
    let spec = Workload::KMeans32Gb.spec();
    let mut group = c.benchmark_group("solver_config");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    let configs: [(&str, SolveOptions); 2] = [
        (
            "cold",
            SolveOptions {
                warm_start: false,
                ..Default::default()
            },
        ),
        ("warm", SolveOptions::default()),
    ];
    for (label, opts) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(label), &opts, |b, opts| {
            let planner = Planner::new(pool()).with_solve_options(SolveOptions {
                time_limit: Duration::from_secs(30),
                ..opts.clone()
            });
            b.iter(|| {
                planner
                    .plan(
                        &spec,
                        Goal::MinimizeCost {
                            deadline_hours: 6.0,
                        },
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

/// Horizon sweep: how solve time scales with model size (Figure 16's x-axis),
/// and the same sweep with migration variables enabled.
fn bench_horizon_sweep(c: &mut Criterion) {
    let spec = Workload::KMeans32Gb.spec();
    let mut group = c.benchmark_group("horizon_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    for migration in [false, true] {
        for deadline in [6.0f64, 8.0, 10.0] {
            let label = format!("{deadline}h{}", if migration { "-mig" } else { "" });
            group.bench_with_input(BenchmarkId::from_parameter(label), &deadline, |b, &d| {
                let planner = Planner::new(pool())
                    .with_migration(migration)
                    .with_solve_options(SolveOptions {
                        time_limit: Duration::from_secs(30),
                        ..Default::default()
                    });
                b.iter(|| {
                    planner
                        .plan(&spec, Goal::MinimizeCost { deadline_hours: d })
                        .unwrap()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_model_build,
    bench_plan_solve,
    bench_solver_configurations,
    bench_horizon_sweep
);
criterion_main!(benches);
