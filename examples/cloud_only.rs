//! Cloud-only deployment comparison (§6.2, Figures 5 and 6).
//!
//! Compares Conductor's automatically planned deployment against the three
//! manual options the Hadoop/AWS documentation suggests: upload-to-HDFS
//! first, read directly from the customer's HDFS, and store everything on S3.
//!
//! Run with: `cargo run --example cloud_only -p conductor-core`

use conductor_cloud::{catalog::mbps_to_gb_per_hour, Catalog};
use conductor_core::{Goal, JobController, Planner, ResourcePool};
use conductor_mapreduce::{
    DataLocation, DeploymentOptions, Engine, ExecutionReport, LocalityScheduler, Workload,
};

fn print_report(report: &ExecutionReport) {
    println!(
        "  {:<22} cost ${:>6.2}   time {:>5.2} h   met deadline: {:?}",
        report.name, report.total_cost, report.completion_hours, report.met_deadline
    );
    for (category, cost) in report.cost_breakdown.iter() {
        if cost > 0.005 {
            println!("      {category:?}: ${cost:.2}");
        }
    }
}

fn main() {
    let catalog = Catalog::aws_july_2011();
    let uplink = mbps_to_gb_per_hour(16.0);
    let spec = Workload::KMeans32Gb.spec();
    let deadline = 6.0;
    let engine = Engine::new(catalog.clone());
    let upload_hours = spec.input_gb / uplink;

    println!(
        "=== Cloud-only deployment options for {} (deadline {deadline} h) ===",
        spec.name
    );

    // --- Conductor: plan automatically, deploy through the plan-following scheduler.
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let planner = Planner::new(pool);
    let controller =
        JobController::new(catalog.clone(), planner).expect("planner pool matches the catalog");
    let outcome = controller
        .run(
            &spec,
            Goal::MinimizeCost {
                deadline_hours: deadline,
            },
        )
        .expect("conductor plan");
    print_report(&outcome.execution);

    // --- Hadoop upload first: one node receives the upload into HDFS, then
    //     100 instances join and process.
    let upload_first = DeploymentOptions {
        upload_before_processing: true,
        deadline_hours: Some(deadline),
        ..DeploymentOptions::new("hadoop-upload-first", uplink)
            .with_nodes("m1.large", 1, 0.0)
            .with_nodes("m1.large", 100, upload_hours)
    };
    print_report(
        &engine
            .run(&spec, &upload_first, &LocalityScheduler)
            .expect("upload first"),
    );

    // --- Hadoop direct: 16 instances stream their input from the customer's
    //     HDFS over the uplink.
    let direct = DeploymentOptions {
        upload_plan: vec![],
        deadline_hours: Some(deadline),
        ..DeploymentOptions::new("hadoop-direct", uplink).with_nodes("m1.large", 16, 0.0)
    };
    print_report(
        &engine
            .run(&spec, &direct, &LocalityScheduler)
            .expect("direct"),
    );

    // --- Hadoop S3: upload everything to S3 first, then 100 instances read
    //     from S3 (processing takes just over an hour, but two are billed).
    let s3 = DeploymentOptions {
        upload_plan: vec![(DataLocation::S3, 1.0)],
        upload_before_processing: true,
        deadline_hours: Some(deadline),
        ..DeploymentOptions::new("hadoop-s3", uplink).with_nodes("m1.large", 100, upload_hours)
    };
    print_report(&engine.run(&spec, &s3, &LocalityScheduler).expect("s3"));

    println!();
    println!(
        "Conductor picked {} m1.large nodes and the storage mix {:?},",
        outcome.plan.peak_nodes("m1.large"),
        outcome.plan.storage_mix()
    );
    println!("matching the paper's observation that it lands near the cheapest option while meeting the deadline.");
}
