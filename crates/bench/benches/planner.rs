//! Criterion bench: end-to-end planning + simulated deployment of the
//! paper's headline scenario (the "modest overhead" claim of §6.2/§6.6).

use conductor_bench::experiments::solver_options;
use conductor_cloud::Catalog;
use conductor_core::{Goal, JobController, Planner, ResourcePool};
use conductor_mapreduce::Workload;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(15));
    group.bench_function("plan_and_deploy_cloud_only", |b| {
        let catalog = Catalog::aws_july_2011();
        let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
        let planner = Planner::new(pool).with_solve_options(solver_options());
        let controller =
            JobController::new(catalog, planner).expect("planner pool matches the catalog");
        let spec = Workload::KMeans32Gb.spec();
        b.iter(|| {
            controller
                .run(
                    &spec,
                    Goal::MinimizeCost {
                        deadline_hours: 6.0,
                    },
                )
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
