//! The incremental residual-capacity index against the full recompute it
//! replaced.
//!
//! `Fleet::residual_pool` is now served by a maintained commitment index
//! (`ResidualIndex`): per-job schedule views cached by `(schedule_epoch,
//! start)` and merged with an event sweep, instead of re-deriving every
//! active job's node commitments from scratch on each admission,
//! re-plan, monitor probe and mid-run submission. In debug builds every
//! call *cross-checks the index bitwise* against the retained
//! O(active² · steps) recompute via `debug_assert_eq!` — so driving the
//! fixtures below through admission, monitor re-planning, revocation
//! recovery (schedule shifts), straggler splices and mid-run
//! cancellation IS the equivalence property: any divergence between the
//! incremental and recomputed peaks panics the run. These tests pin that
//! the fixtures traverse every schedule-epoch mutation site, and that
//! the trajectories they produce stay deterministic.

mod support;

use conductor_bench::experiments::{churn_fixture, run_fleet_online};
use conductor_core::{FleetJobRequest, FleetReport, Goal};
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

/// Poisson churn: arrivals keyed off live residual capacity while other
/// tenants run, finish, get revoked by storms and re-plan — every
/// admission's residual goes through the index (and, in debug, through
/// the bitwise cross-check against the recompute).
#[test]
fn incremental_residual_matches_recompute_across_poisson_churn() {
    let (requests, service) = churn_fixture(16, 1.0);
    let first = run_fleet_online(&service, &requests);
    assert!(first.jobs_admitted > 0, "fixture admitted nothing");
    let second = run_fleet_online(&service, &requests);
    assert_same_fleet(&first, &second);
}

/// Revocation storm plus a mid-run cancellation: the storm shifts the
/// victim's remaining node schedule (a schedule-epoch bump via the
/// recovery path), the re-plan splices a new schedule (another bump),
/// and the cancel drops a live commitment from the index — all while a
/// later arrival plans against the post-storm residual.
#[test]
fn incremental_residual_survives_storms_replans_and_cancels() {
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
        // has been recovery-shifted and re-planned (two epoch bumps).
        fleet.step_until(5.0);
        // Two newcomers plan against the post-storm residual the index
        // now serves, then one is cancelled mid-run: its commitments must
        // leave the index before the next admission or monitor probe.
        let doomed = fleet.submit(request("doomed", 5.0, 20.0)).unwrap();
        fleet.submit(request("latecomer", 5.5, 22.0)).unwrap();
        fleet.step_until(7.0);
        let _ = fleet.cancel(doomed);
        fleet.run_to_quiescence();
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
