//! Cross-crate integration tests below the planner level: the service
//! descriptions feed the resource layer, the plan drives the engine, and the
//! model's estimates agree with the engine's measurements within the expected
//! tolerances.

use conductor_cloud::{Catalog, ServiceDescription};
use conductor_core::{ExecutionPlan, Goal, ModelConfig, ModelInstance, Planner, ResourcePool};
use conductor_lp::{SolveContext, SolveOptions};
use conductor_mapreduce::engine::{DataLocation, DeploymentOptions, Engine};
use conductor_mapreduce::scheduler::{LocalityScheduler, PlanFollowingScheduler};
use conductor_mapreduce::Workload;

#[path = "support/oracle.rs"]
mod oracle;

/// The published-description workflow of §4.2: a pool built from JSON service
/// descriptions plans the same scenario as a pool built from the catalog.
#[test]
fn descriptions_and_catalog_produce_equivalent_pools() {
    let catalog = Catalog::aws_july_2011();
    let descriptions: Vec<ServiceDescription> = catalog
        .instances
        .iter()
        .map(ServiceDescription::from_instance)
        .chain(
            catalog
                .storages
                .iter()
                .map(ServiceDescription::from_storage),
        )
        .collect();
    // Round-trip through JSON, as a provider-published file would.
    let json = serde_json::to_string(&descriptions).unwrap();
    let parsed: Vec<ServiceDescription> = serde_json::from_str(&json).unwrap();
    let from_desc =
        ResourcePool::from_descriptions(&parsed, catalog.uplink_gb_per_hour(), 0.12, 1.0);
    let from_catalog = ResourcePool::from_catalog(&catalog, 1.0);
    assert_eq!(from_desc.compute.len(), from_catalog.compute.len());
    for c in &from_catalog.compute {
        let d = from_desc
            .compute_resource(&c.name)
            .expect("compute resource present");
        assert!((d.capacity_gbph - c.capacity_gbph).abs() < 1e-9);
        assert!((d.hourly_price - c.hourly_price).abs() < 1e-9);
    }
    assert!(from_desc.storage_resource("S3").is_some());
}

/// A plan extracted from the model can be executed by the engine and the
/// engine's completion time stays within the plan's horizon (the model is a
/// conservative fluid approximation of the task-level execution).
#[test]
fn plan_estimates_agree_with_engine_measurements() {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let spec = Workload::KMeans32Gb.spec();
    let model = ModelInstance::build(&pool, &spec, &ModelConfig::default()).unwrap();
    let solution = model.problem.solve().unwrap();
    let plan = ExecutionPlan::from_solution(&model, &solution);

    // The engine's root LP bound on a real planner model is the independent
    // oracle's, and the plan it returns respects that bound.
    let problem = &model.problem;
    let lower: Vec<f64> = problem.variables().iter().map(|v| v.lower).collect();
    let upper: Vec<f64> = problem.variables().iter().map(|v| v.upper).collect();
    let bound = oracle::solve_lp(problem, &lower, &upper).objective();
    let root = SolveContext::new()
        .relaxation_bound(problem, &SolveOptions::default())
        .unwrap();
    assert!(
        (root - bound).abs() <= 1e-6 * (1.0 + bound.abs()),
        "engine root bound {root} vs oracle {bound}"
    );
    assert!(solution.objective() >= bound - 1e-6);

    let engine = Engine::new(catalog);
    let options = plan.to_deployment_options(
        "cross-crate",
        pool.uplink_gbph,
        Some(6.0),
        &ExecutionPlan::default_location_map(),
    );
    let scheduler = PlanFollowingScheduler::cloud_only_defaults();
    let report = engine.run(&spec, &options, &scheduler).unwrap();
    assert_eq!(report.met_deadline, Some(true));
    // The measured cost is within 2x of the fluid model's estimate (round-up
    // billing and task granularity only add cost).
    assert!(report.total_cost >= plan.expected_cost * 0.8);
    assert!(report.total_cost <= plan.expected_cost * 2.0 + 5.0);
}

/// The plan-following scheduler never performs unplanned remote reads, so a
/// plan that stores everything in the cloud transfers exactly the input size
/// over the WAN; Hadoop's locality scheduler under the same deployment is
/// free to read remotely.
#[test]
fn plan_following_scheduler_bounds_wan_traffic() {
    let catalog = Catalog::aws_july_2011();
    let engine = Engine::new(catalog);
    let spec = Workload::KMeans32Gb.spec();
    let uplink = conductor_cloud::catalog::mbps_to_gb_per_hour(16.0);
    let opts = DeploymentOptions {
        upload_plan: vec![(DataLocation::InstanceDisk, 1.0)],
        deadline_hours: Some(6.0),
        ..DeploymentOptions::new("wan-bound", uplink).with_nodes("m1.large", 16, 0.0)
    };
    let planned = engine
        .run(&spec, &opts, &PlanFollowingScheduler::cloud_only_defaults())
        .unwrap();
    assert!((planned.wan_in_gb - spec.input_gb).abs() < 1e-6);

    // With no upload plan at all, the locality scheduler streams the input
    // remotely instead — same WAN volume, but unplanned.
    let remote_opts = DeploymentOptions {
        upload_plan: vec![],
        ..opts
    };
    let unplanned = engine.run(&spec, &remote_opts, &LocalityScheduler).unwrap();
    assert!(unplanned.wan_in_gb > spec.input_gb * 0.95);
}

/// Planning with the minimize-time goal never violates the budget and planning
/// with minimize-cost never violates the deadline horizon, across a small grid
/// of goals (consistency between the goal layer and the model layer).
#[test]
fn goals_translate_into_consistent_plans() {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let planner = Planner::new(pool);
    let spec = Workload::KMeans32Gb.spec();
    for deadline in [6.0, 8.0] {
        let (plan, _) = planner
            .plan(
                &spec,
                Goal::MinimizeCost {
                    deadline_hours: deadline,
                },
            )
            .unwrap();
        assert!(plan.expected_completion_hours <= deadline + 1e-9);
        assert_eq!(plan.len() as f64, deadline);
    }
    let (plan, _) = planner
        .plan(
            &spec,
            Goal::MinimizeTime {
                budget_usd: 100.0,
                max_hours: 10.0,
            },
        )
        .unwrap();
    assert!(plan.expected_cost <= 100.0 + 1e-6);
}
