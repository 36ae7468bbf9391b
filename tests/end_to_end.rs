//! End-to-end integration tests: planning, deployment and adaptation across
//! all crates, reproducing the qualitative claims of the paper's evaluation.

use conductor_cloud::{Catalog, CostCategory};
use conductor_core::{
    AdaptationReport, AdaptiveController, ConductorService, DeploymentOutcome, FleetConfig,
    FleetEvent, FleetJobRequest, Goal, JobController, Planner, ResourcePool,
};
use conductor_lp::SolveOptions;
use conductor_mapreduce::Workload;
use std::time::Duration;

fn fast_options() -> SolveOptions {
    SolveOptions {
        relative_gap: 0.02,
        max_nodes: 2_000,
        time_limit: Duration::from_secs(60),
        ..Default::default()
    }
}

fn cloud_controller() -> JobController {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    JobController::new(
        catalog,
        Planner::new(pool).with_solve_options(fast_options()),
    )
    .expect("planner pool matches the catalog")
}

/// §6.2: Conductor meets the 6-hour deadline on the cloud-only scenario, its
/// measured cost is in the same range as the plan's expectation, and the cost
/// is dominated by EC2 computation (not storage or transfer).
#[test]
fn cloud_only_deployment_matches_paper_shape() {
    let outcome = cloud_controller()
        .run(
            &Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 6.0,
            },
        )
        .unwrap();
    assert_eq!(outcome.execution.met_deadline, Some(true));
    assert!(outcome.plan.expected_cost > 20.0 && outcome.plan.expected_cost < 45.0);
    let compute = outcome
        .execution
        .cost_breakdown
        .get(CostCategory::Computation);
    assert!(compute > 0.5 * outcome.execution.total_cost);
    // The plan keeps the data on EC2 instance disks, as the paper reports.
    let mix = outcome.plan.storage_mix();
    assert!(mix.get("EC2-disk").copied().unwrap_or(0.0) > 0.9, "{mix:?}");
}

/// §6.3 (Figure 10): in the hybrid scenario Conductor uses the free local
/// nodes, meets the 4-hour deadline, and costs less than a cloud-only run of
/// the same job under the same deadline.
#[test]
fn hybrid_deployment_uses_local_nodes_and_saves_money() {
    let catalog = Catalog::aws_with_local_cluster(5);
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large", "local"]);
    let controller = JobController::new(
        catalog,
        Planner::new(pool).with_solve_options(fast_options()),
    )
    .expect("planner pool matches the catalog");
    let spec = Workload::KMeans32Gb.spec();
    let hybrid = controller
        .run(
            &spec,
            Goal::MinimizeCost {
                deadline_hours: 4.0,
            },
        )
        .unwrap();
    assert_eq!(hybrid.execution.met_deadline, Some(true));
    assert!(hybrid.plan.peak_nodes("local") > 0, "local nodes unused");

    // A cloud-only deployment cannot meet 4 hours at all (the 32 GB upload
    // alone takes ~4.6 h at 16 Mbit/s): only the hybrid's local nodes make
    // the deadline reachable.
    let cloud_catalog = Catalog::aws_july_2011();
    let cloud_pool =
        ResourcePool::from_catalog(&cloud_catalog, 1.0).with_compute_only(&["m1.large"]);
    let cloud_controller = JobController::new(
        cloud_catalog,
        Planner::new(cloud_pool).with_solve_options(fast_options()),
    )
    .expect("planner pool matches the catalog");
    assert!(
        cloud_controller
            .run(
                &spec,
                Goal::MinimizeCost {
                    deadline_hours: 4.0
                }
            )
            .is_err(),
        "cloud-only should be infeasible at 4 h"
    );
    // Even against a cloud-only run with a relaxed 6-hour deadline, the
    // hybrid plan (free local nodes, tighter deadline) is cheaper.
    let cloud_only = cloud_controller
        .run(
            &spec,
            Goal::MinimizeCost {
                deadline_hours: 6.0,
            },
        )
        .unwrap();
    assert!(
        hybrid.plan.expected_cost < cloud_only.plan.expected_cost,
        "hybrid {} vs cloud-only {}",
        hybrid.plan.expected_cost,
        cloud_only.plan.expected_cost
    );
}

/// The §6.4 experiment: plan for `predicted_gbph` per node, run on the real
/// 0.44 GB/h, monitor every hour, 7-hour deadline.
fn figure_12_report(predicted_gbph: f64) -> AdaptationReport {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    AdaptiveController::new(catalog, pool)
        .with_solve_options(fast_options())
        .run_with_misprediction(
            &Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 7.0,
            },
            predicted_gbph,
            0.44,
        )
        .unwrap()
}

/// §6.4 (Figure 12): with a 3.3x throughput misprediction, re-planning
/// rescues the deadline that a non-adaptive run misses, by deploying at
/// least twice the nodes the optimistic plan asked for.
#[test]
fn adaptation_rescues_mispredicted_deployment() {
    let report = figure_12_report(1.44);
    assert!(report.adaptation_rescued_deadline());
    let timeline = &report.execution.allocation_timeline;
    let deployed_peak = timeline.iter().map(|&(_, nodes)| nodes).max().unwrap();
    assert!(
        deployed_peak >= 2 * report.initial_plan.peak_nodes("m1.large"),
        "deployed peak {deployed_peak}"
    );
}

/// A minimize-time goal under a generous budget finishes near the uplink
/// lower bound; tightening the budget can only lengthen the plan.
#[test]
fn minimize_time_budget_tradeoff() {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let planner = Planner::new(pool).with_solve_options(fast_options());
    let spec = Workload::KMeans32Gb.spec();
    let (rich, _) = planner
        .plan(
            &spec,
            Goal::MinimizeTime {
                budget_usd: 80.0,
                max_hours: 12.0,
            },
        )
        .unwrap();
    let (poor, _) = planner
        .plan(
            &spec,
            Goal::MinimizeTime {
                budget_usd: 30.0,
                max_hours: 12.0,
            },
        )
        .unwrap();
    assert!(rich.expected_completion_hours <= poor.expected_completion_hours + 1e-9);
    assert!(rich.expected_cost <= 80.0 + 1e-6);
    assert!(poor.expected_cost <= 30.0 + 1e-6);
}

/// Plan cost, bill, completion (exact bits), task-timeline length and the
/// last allocation sample of one deployment.
fn fingerprint(outcome: &DeploymentOutcome) -> String {
    let exec = &outcome.execution;
    let &(released_at, nodes_left) = exec.allocation_timeline.last().unwrap();
    format!(
        "{:016x} {:016x} {:016x} {} {:016x}:{nodes_left}",
        outcome.plan.expected_cost.to_bits(),
        exec.total_cost.to_bits(),
        exec.completion_hours.to_bits(),
        exec.task_timeline.len(),
        released_at.to_bits(),
    )
}

/// Absolute pins of `JobController::run`, taken at the commit before the
/// controller became a one-tenant fleet. Never edit a value: a mismatch
/// means the single-job front end's behaviour moved.
#[test]
fn job_controller_outcomes_are_pinned() {
    let run = |catalog: Catalog, types: Option<&[&str]>, goal: Goal| {
        let mut pool = ResourcePool::from_catalog(&catalog, 1.0);
        if let Some(types) = types {
            pool = pool.with_compute_only(types);
        }
        let planner = Planner::new(pool).with_solve_options(fast_options());
        let controller = JobController::new(catalog, planner).unwrap();
        fingerprint(&controller.run(&Workload::KMeans32Gb.spec(), goal).unwrap())
    };
    let deadline = |deadline_hours| Goal::MinimizeCost { deadline_hours };
    let cloud = Catalog::aws_july_2011;
    // Cloud-only, 6 h: plan $26.052733, bill $29.4184, done at 5.802509549 h.
    assert_eq!(
        run(cloud(), Some(&["m1.large"]), deadline(6.0)),
        "403a0d7fe5520d14 403d6b1c432ca578 401735c51026da33 528 4014091629f98c9a:2"
    );
    // Hybrid, 5 free local nodes, 4 h: $19.768032 / $39.4748 / 1.827338844 h.
    assert_eq!(
        run(
            Catalog::aws_with_local_cluster(5),
            Some(&["m1.large", "local"]),
            deadline(4.0)
        ),
        "4033c49dbec2480f 4043bcc63f141204 3ffd3cc7a7c4478b 528 3ff22e8ba2e8ba2f:5"
    );
    // Fastest plan under $60 within 12 h: the cloud-only 6 h deployment.
    let fastest = Goal::MinimizeTime {
        budget_usd: 60.0,
        max_hours: 12.0,
    };
    assert_eq!(
        run(cloud(), Some(&["m1.large"]), fastest),
        "403a0d7fe5520d14 403d6b1c432ca578 401735c51026da33 528 4014091629f98c9a:2"
    );
    // Every instance type, 8 h: $22.305997 / $30.7784 / 7.138630950 h.
    assert_eq!(
        run(cloud(), None, deadline(8.0)),
        "40364e55ce274e23 403ec74538ef34d6 401c8df5458d9e92 528 401c1111111110fd:2"
    );
}

/// The Figure-12 counterfactual, pinned the same way: following the
/// optimistic plan on the slow cluster costs $30.4384, takes
/// 56.49658549520779 h and misses the deadline.
#[test]
fn figure_12_counterfactual_is_pinned() {
    let report = figure_12_report(1.44);
    let unadapted = &report.without_adaptation;
    assert_eq!(unadapted.total_cost.to_bits(), 0x403e_703a_fb7e_9100);
    assert_eq!(unadapted.completion_hours.to_bits(), 0x404c_3f90_1d0e_caef);
    assert_eq!(unadapted.met_deadline, Some(false));
}

/// A misprediction is an input the fleet takes — a pool whose throughput
/// disagrees with the catalog the engine runs on — and the event log alone
/// tells what the monitor did about it.
#[test]
fn fleet_monitor_rescues_a_pool_that_overstates_the_catalog() {
    let events = |pool_gbph: f64, tolerance: f64| {
        // The catalog's m1.large really delivers 0.44 GB/h.
        let catalog = Catalog::aws_july_2011();
        let mut pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
        pool.compute[0].capacity_gbph = pool_gbph;
        let mut fleet = ConductorService::new(catalog, pool)
            .with_solve_options(fast_options())
            .with_monitor_tolerance(tolerance)
            .open()
            .unwrap();
        let goal = Goal::MinimizeCost {
            deadline_hours: 7.0,
        };
        let solo = FleetJobRequest::new("solo", Workload::KMeans32Gb.spec(), goal, 0.0);
        fleet.submit(solo).unwrap();
        fleet.run_to_quiescence();
        fleet.events().to_vec()
    };
    let replans = |log: &[FleetEvent]| -> Vec<f64> {
        let hour = |e: &FleetEvent| match e {
            FleetEvent::Replanned { at_hours, .. } => Some(*at_hours),
            _ => None,
        };
        log.iter().filter_map(hour).collect()
    };
    let tolerance = FleetConfig::default().monitor_tolerance;

    // Plans for 1.44 GB/h, runs on 0.44: one re-plan, once there is a
    // fielded node-hour to measure, and the deadline holds.
    let rescued = events(1.44, tolerance);
    assert_eq!(replans(&rescued), [2.0]);
    assert!(rescued.iter().any(|e| matches!(
        e,
        FleetEvent::Completed {
            met_deadline: Some(true),
            ..
        }
    )));
    // Tolerance 1.0 never calls a job behind: no re-plan, deadline missed.
    let unmonitored = events(1.44, 1.0);
    assert!(replans(&unmonitored).is_empty());
    assert!(unmonitored
        .iter()
        .any(|e| matches!(e, FleetEvent::DeadlineMissed { .. })));
    // A pool that agrees with the catalog keeps the monitor quiet.
    assert!(replans(&events(0.44, tolerance)).is_empty());
}
