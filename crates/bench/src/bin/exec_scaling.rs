//! The execution kernel's scaling gate: nothing in a wakeup may cost
//! nodes² or the number of tasks, so the wall per task of a planner-free
//! `Engine::run` may grow only gently with the cluster. Runs the
//! benchmark's 50- and 200-node `exec_kernel` deployments (twenty tasks a
//! node, 200 Mbit uplink) in one process, interleaved, keeps each one's
//! fastest repetition, and exits non-zero when a task at 200 nodes costs
//! more than [`MAX_RATIO`] × a task at 50. Both sides share the process,
//! the host and the minute, so the ratio is stable where either wall alone
//! is not. Run with:
//! `cargo run --release -p conductor-bench --bin exec_scaling`

use conductor_cloud::catalog::mbps_to_gb_per_hour;
use conductor_cloud::Catalog;
use conductor_mapreduce::{DeploymentOptions, Engine, PlanFollowingScheduler, Workload};
use std::time::Instant;

/// The gate. The quadratic kernel read 6.6×, the linear one 2.2 – 2.4× and
/// the schedule view 2.1×, the slope then being two passes over the running
/// tasks (one task per busy node). The finish-ordered running set removed
/// both passes: on a shared two-core Xeon the ratio reads 1.08 – 1.10, so a
/// reading above 1.5× means a wakeup walks the busy nodes again. With no
/// event heap in `Engine::run` and a bitmap idle index, the same host reads
/// 0.625 – 0.631 µs per task at 50 nodes and 0.633 – 0.635 µs at 200, a
/// ratio of 1.00 – 1.01 (0.92 – 0.93 and 1.01 µs, 1.09, before).
const MAX_RATIO: f64 = 1.5;
const REPETITIONS: usize = 25;

fn main() {
    let engine = Engine::new(Catalog::aws_july_2011());
    let scheduler = PlanFollowingScheduler::cloud_only_defaults();
    let deployments = [(64, 50), (256, 200)].map(|(input_gb, nodes)| {
        let spec = Workload::KMeansScaled { input_gb }.spec();
        let options = DeploymentOptions {
            max_hours: 2_000.0,
            ..DeploymentOptions::new(format!("n{nodes}"), mbps_to_gb_per_hour(200.0))
                .with_nodes("m1.large", nodes, 0.0)
        };
        (nodes, spec, options)
    });

    let mut us_per_task = [f64::INFINITY; 2];
    for _ in 0..REPETITIONS {
        for ((_, spec, options), fastest) in deployments.iter().zip(&mut us_per_task) {
            let start = Instant::now();
            let report = engine
                .run(spec, options, &scheduler)
                .expect("deployment finishes");
            let us = start.elapsed().as_secs_f64() * 1e6;
            *fastest = fastest.min(us / report.total_tasks as f64);
        }
    }

    let ratio = us_per_task[1] / us_per_task[0];
    for ((nodes, ..), us) in deployments.iter().zip(us_per_task) {
        println!("{nodes:>4} nodes: {us:.3} us/task");
    }
    println!("ratio {ratio:.2} (gate {MAX_RATIO})");
    if ratio > MAX_RATIO {
        eprintln!("execution kernel scaling regressed: a task costs {ratio:.2}x more at 200 nodes than at 50");
        std::process::exit(1);
    }
}
