//! Equivalence regression for the event-kernel engine refactor.
//!
//! The monolithic `Engine::run` loop was rewritten as wakeup handlers on
//! the `conductor-sim` kernel (PR 3). These values were captured from the
//! pre-refactor engine on the standard scenarios and pinned to 1e-9: the
//! refactor must reproduce the old reports bit for bit, and any future
//! engine change that moves them is a deliberate semantic change, not an
//! accident of event ordering.

use conductor_cloud::{catalog::mbps_to_gb_per_hour, Catalog};
use conductor_mapreduce::{
    DataLocation, DeploymentOptions, Engine, LocalityScheduler, PlanFollowingScheduler, Workload,
};

fn assert_close(label: &str, got: f64, pinned: f64) {
    assert!(
        (got - pinned).abs() < 1e-9,
        "{label}: got {got:.12}, pre-refactor engine produced {pinned:.12}"
    );
}

/// The §6.2 Conductor-style deployment: 16 m1.large nodes, streamed
/// processing onto instance disks, 16 Mbit/s uplink.
#[test]
fn conductor_cloud_only_report_is_bit_identical_to_pre_refactor() {
    let engine = Engine::new(Catalog::aws_with_local_cluster(5));
    let uplink = mbps_to_gb_per_hour(16.0);
    let options = DeploymentOptions {
        deadline_hours: Some(6.0),
        ..DeploymentOptions::new("conductor", uplink).with_nodes("m1.large", 16, 0.0)
    };
    let report = engine
        .run(
            &Workload::KMeans32Gb.spec(),
            &options,
            &PlanFollowingScheduler::cloud_only_defaults(),
        )
        .unwrap();

    assert_close("completion_hours", report.completion_hours, 5.052862288743);
    assert_close("total_cost", report.total_cost, 35.8784);
    assert_close("map_done_at", report.phases.map_done_at, 4.914231338990);
    assert_close(
        "reduce_done_at",
        report.phases.reduce_done_at,
        5.005140429899,
    );
    assert_close("upload_hours", report.phases.upload_hours, 4.772185884444);
    assert_close(
        "download_hours",
        report.phases.download_hours,
        0.047721858844,
    );
    assert_close("wan_in_gb", report.wan_in_gb, 32.0);
    assert_close("wan_out_gb", report.wan_out_gb, 0.32);
    // 528 tasks finish at 513 distinct hours: one timeline sample each.
    assert_eq!(report.task_timeline.len(), 513);
    assert_eq!(report.met_deadline, Some(true));
}

/// The §6.2 "Hadoop S3" strategy: upload everything to S3 first, then 100
/// nodes burn through it (the roughly-double-cost case).
#[test]
fn hadoop_s3_report_is_bit_identical_to_pre_refactor() {
    let engine = Engine::new(Catalog::aws_with_local_cluster(5));
    let uplink = mbps_to_gb_per_hour(16.0);
    let upload_hours = 32.0 / uplink;
    let options = DeploymentOptions {
        upload_plan: vec![(DataLocation::S3, 1.0)],
        upload_before_processing: true,
        deadline_hours: Some(6.0),
        ..DeploymentOptions::new("hadoop-s3", uplink).with_nodes("m1.large", 100, upload_hours)
    };
    let report = engine
        .run(&Workload::KMeans32Gb.spec(), &options, &LocalityScheduler)
        .unwrap();

    assert_close("completion_hours", report.completion_hours, 6.128349301730);
    assert_close("total_cost", report.total_cost, 71.268980375570);
    assert_eq!(report.met_deadline, Some(false));
}

/// Two identical runs produce identical reports (the kernel's deterministic
/// event ordering end to end).
#[test]
fn repeated_runs_are_deterministic() {
    let engine = Engine::new(Catalog::aws_july_2011());
    let uplink = mbps_to_gb_per_hour(16.0);
    let options = DeploymentOptions {
        deadline_hours: Some(6.0),
        ..DeploymentOptions::new("det", uplink)
            .with_nodes("m1.large", 3, 0.0)
            .with_nodes("m1.large", 16, 1.0)
            .with_nodes("m1.large", 18, 2.0)
    };
    let spec = Workload::KMeans32Gb.spec();
    let sched = PlanFollowingScheduler::cloud_only_defaults();
    let a = engine.run(&spec, &options, &sched).unwrap();
    let b = engine.run(&spec, &options, &sched).unwrap();
    assert_eq!(a.completion_hours.to_bits(), b.completion_hours.to_bits());
    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
    assert_eq!(a.task_timeline, b.task_timeline);
    assert_eq!(a.allocation_timeline, b.allocation_timeline);
}
