//! Planning against the residual capacity stays deterministic through every
//! way a running job's node schedule changes.
//!
//! `residual_at` (in `fleet/residual.rs`) resamples every active job's node
//! schedule per query, and its unit tests pin the arithmetic. These tests
//! drive it through the fleet: admissions, completions, monitor re-plans
//! (schedule splices), revocation recovery (schedule shifts) and mid-run
//! cancellations all change what later arrivals plan against, and each
//! fixture must reproduce its trajectory bit for bit when run twice.

mod support;

use conductor_bench::experiments::{churn_fixture, run_fleet_online};
use conductor_core::{FleetEvent, FleetJobRequest, FleetReport, Goal};
use conductor_mapreduce::Workload;
use support::fleet::storm_service;

fn request(tenant: &str, arrival: f64, deadline: f64) -> FleetJobRequest {
    FleetJobRequest::new(
        tenant,
        Workload::KMeans32Gb.spec(),
        Goal::MinimizeCost {
            deadline_hours: deadline,
        },
        arrival,
    )
}

fn assert_same_fleet(a: &FleetReport, b: &FleetReport) {
    assert_eq!(a.fleet_cost.to_bits(), b.fleet_cost.to_bits());
    assert_eq!(a.makespan_hours.to_bits(), b.makespan_hours.to_bits());
    assert_eq!(a.jobs_admitted, b.jobs_admitted);
    assert_eq!(a.deadlines_met, b.deadlines_met);
}

/// Poisson churn: arrivals plan against the live residual while other
/// tenants run and finish.
#[test]
fn residual_planning_is_deterministic_across_poisson_churn() {
    let (requests, service) = churn_fixture(16, 1.0);
    let first = run_fleet_online(&service, &requests);
    assert!(first.jobs_admitted > 0, "fixture admitted nothing");
    let second = run_fleet_online(&service, &requests);
    assert_same_fleet(&first, &second);
}

/// Revocation storm plus a mid-run cancellation: the storm shifts the
/// victim's remaining node schedule (the recovery path), the re-plan
/// splices a new one, and the cancel drops a live commitment — all while a
/// later arrival plans against the post-storm residual.
#[test]
fn residual_planning_is_deterministic_through_storms_replans_and_cancels() {
    let run = || {
        let prices: Vec<f64> = (0..48)
            .map(|t| if (2..4).contains(&t) { 0.5 } else { 0.2 })
            .collect();
        // Cap 100 and a 12 h deadline force the lone victim to rent
        // through the blackout (the pinned fleet_api storm scenario), so
        // the revocation genuinely fires.
        let service = storm_service(prices, 0.34, 100);
        let mut fleet = service.open().expect("storm fixture is valid");
        fleet.submit(request("victim", 0.0, 12.0)).unwrap();
        // Step past the [2, 4) blackout: the victim's remaining schedule
        // has been recovery-shifted and re-planned.
        fleet.step_until(5.0);
        // Two newcomers plan against the post-storm residual, then one is
        // cancelled mid-run: its commitments must leave the residual before
        // the next admission or monitor probe.
        let doomed = fleet.submit(request("doomed", 5.0, 20.0)).unwrap();
        fleet.submit(request("latecomer", 5.5, 22.0)).unwrap();
        fleet.step_until(7.0);
        let _ = fleet.cancel(doomed);
        fleet.run_to_quiescence();
        let events = fleet.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FleetEvent::Replanned { .. })),
            "the victim must be re-planned"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FleetEvent::Cancelled { .. })),
            "the cancel must land"
        );
        let report = fleet.report();
        assert_eq!(
            report.tenant("victim").unwrap().revoked_at_hours,
            vec![2.0],
            "the storm must actually strike"
        );
        report
    };
    let first = run();
    let second = run();
    assert_same_fleet(&first, &second);
    assert!(first.tenant("latecomer").unwrap().admitted);
}
