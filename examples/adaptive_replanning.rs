//! Adapting to mispredicted performance (§6.4, Figure 12).
//!
//! The model is seeded with an optimistic per-node throughput of 1.44 GB/h
//! while the nodes actually deliver 0.44 GB/h. The job runs as the only
//! tenant of a fleet session; once the hourly progress monitor has a
//! fielded node-hour to measure it detects the shortfall, Conductor
//! re-plans from the observed state and allocates enough extra nodes to
//! still meet the deadline, while a run that sticks to the initial plan
//! misses it.
//!
//! Run with: `cargo run --example adaptive_replanning -p conductor-core`

use conductor_cloud::Catalog;
use conductor_core::{AdaptiveController, Goal, ResourcePool};
use conductor_mapreduce::Workload;

fn main() {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let controller = AdaptiveController::new(catalog, pool);

    let report = controller
        .run_with_misprediction(
            &Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 7.0,
            },
            1.44, // predicted GB/h per node
            0.44, // actual GB/h per node
            1.0,  // the monitor ticks every hour
        )
        .expect("adaptive run");

    println!("=== Adapting to a 3.3x throughput misprediction (Figure 12) ===");
    println!(
        "initial plan : peak {} nodes, expected cost ${:.2}",
        report.initial_plan.peak_nodes("m1.large"),
        report.initial_plan.expected_cost
    );
    let fielded = &report.execution.allocation_timeline;
    match report.replanned_at_hours {
        Some(at) => println!(
            "deployed     : peak {} nodes (re-planned at {at:.0} h)",
            fielded.iter().map(|&(_, nodes)| nodes).max().unwrap_or(0)
        ),
        None => println!("monitor stayed quiet: no deviation, initial plan kept"),
    }
    println!();
    println!("node allocation actually deployed (Figure 12a):");
    for &(hour, nodes) in fielded {
        println!("  from hour {hour:>5.2}: {nodes:>3} x m1.large");
    }
    println!();
    println!(
        "job progress (Figure 12b): {} total tasks",
        report.execution.total_tasks
    );
    let mut next_mark = 0.0;
    for &(hour, tasks) in &report.execution.task_timeline {
        if hour >= next_mark {
            println!("  {:>5.2} h: {:>4} tasks completed", hour, tasks);
            next_mark += 0.5;
        }
    }
    println!();
    println!(
        "with adaptation    : finished in {:.2} h, met deadline: {:?}, cost ${:.2}",
        report.execution.completion_hours,
        report.execution.met_deadline,
        report.execution.total_cost
    );
    println!(
        "without adaptation : finished in {:.2} h, met deadline: {:?}, cost ${:.2}",
        report.without_adaptation.completion_hours,
        report.without_adaptation.met_deadline,
        report.without_adaptation.total_cost
    );
}
