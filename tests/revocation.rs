//! Spot revocation storms as first-class fleet events: out-bid hours
//! terminate running sessions on the shared clock, survivors re-plan
//! against the post-storm residual, and the whole thing stays bitwise
//! deterministic.
//!
//! The storm fixtures use hand-written price traces so the out-bid hours
//! sit exactly where the scenario needs them; the churn-scale determinism
//! test reuses the Poisson fixture from `conductor_bench::experiments`.

mod support;

use conductor_bench::experiments::churn_fixture;
use conductor_core::{FleetJobRequest, Goal};
use conductor_mapreduce::Workload;
use support::fleet::{assert_accounts_balance, storm_prices, storm_service};

fn request(tenant: &str, deadline: f64) -> FleetJobRequest {
    FleetJobRequest::new(
        tenant,
        Workload::KMeans32Gb.spec(),
        Goal::MinimizeCost {
            deadline_hours: deadline,
        },
        0.0,
    )
}

#[test]
fn total_storm_kills_every_node_and_the_job_still_finishes() {
    // The market spikes above the bid for hours [2, 4): every spot node is
    // terminated at hour 2 and nothing can be acquired until hour 4.
    let service = storm_service(storm_prices(48, 2, 4), 0.34, 100);
    let report = service.run(&[request("victim", 12.0)]).unwrap();

    let victim = report.tenant("victim").unwrap();
    assert!(victim.admitted);
    assert_eq!(
        victim.failure, None,
        "job should limp home, not die: {:?}",
        victim.failure
    );
    // The storm actually hit: nodes were revoked at hour 2 and only there
    // (once dead, later out-bid hours find nothing to kill).
    assert_eq!(victim.revoked_at_hours, vec![2.0]);
    let exec = victim.execution.as_ref().unwrap();
    // Every task finished despite losing the whole cluster mid-run.
    assert_eq!(
        exec.task_timeline.last().map(|&(_, c)| c),
        Some(exec.total_tasks)
    );
    // The blackout really suspended the fleet: no allocation sample inside
    // (2, 4) shows any node (the kill empties the cluster, and the out-bid
    // market refuses every re-acquisition until the price recovers).
    for &(t, n) in &exec.allocation_timeline {
        if t > 2.0 + 1e-9 && t < 4.0 - 1e-9 {
            assert_eq!(n, 0, "allocation {n} at hour {t} during the blackout");
        }
    }
    // The deadline verdict is honest either way; the accounting must add up.
    assert_eq!(report.jobs_completed, 1);
    assert_accounts_balance(&report);
}

#[test]
fn storm_with_slack_is_rescued_by_a_forced_replan() {
    // A 7-hour deadline forces the plan to field nodes from the start (the
    // upload alone takes ~4.8 h), so the [2, 3) storm is guaranteed to hit
    // a working cluster — and leaves enough slack for the monitor to
    // re-plan the victim against the post-storm residual and still make
    // the deadline.
    let service = storm_service(storm_prices(48, 2, 3), 0.34, 100);
    let report = service.run(&[request("rescued", 7.0)]).unwrap();
    let rescued = report.tenant("rescued").unwrap();
    assert_eq!(rescued.revoked_at_hours, vec![2.0]);
    assert!(
        !rescued.replanned_at_hours.is_empty(),
        "storm victim was never re-planned"
    );
    // The forced re-plan happens at a monitor tick after the storm.
    assert!(rescued.replanned_at_hours[0] >= 2.0);
    let exec = rescued.execution.as_ref().unwrap();
    assert_eq!(exec.met_deadline, Some(true), "{:?}", exec.completion_hours);
    assert_accounts_balance(&report);
}

#[test]
fn storms_hit_every_concurrent_tenant_and_bills_still_add_up() {
    // Tight deadlines keep both tenants' clusters busy through hour 3, so
    // the one-hour storm terminates sessions of *both* — one market event,
    // fleet-wide consequences.
    let service = storm_service(storm_prices(72, 3, 4), 0.34, 200);
    let report = service
        .run(&[request("a", 6.0), request("b", 7.0)])
        .unwrap();
    assert_eq!(report.jobs_admitted, 2);
    assert_eq!(report.jobs_completed, 2);
    for tenant in ["a", "b"] {
        let t = report.tenant(tenant).unwrap();
        assert_eq!(
            t.revoked_at_hours,
            vec![3.0],
            "{tenant}: {:?}",
            t.revoked_at_hours
        );
    }
    assert_accounts_balance(&report);
}

#[test]
fn storm_runs_are_bitwise_deterministic() {
    let run = || {
        storm_service(storm_prices(48, 2, 4), 0.34, 100)
            .run(&[request("victim", 12.0)])
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.fleet_cost.to_bits(), b.fleet_cost.to_bits());
    assert_eq!(a.makespan_hours.to_bits(), b.makespan_hours.to_bits());
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.revoked_at_hours, tb.revoked_at_hours);
        assert_eq!(ta.replanned_at_hours, tb.replanned_at_hours);
        match (&ta.execution, &tb.execution) {
            (Some(ea), Some(eb)) => {
                assert_eq!(ea.total_cost.to_bits(), eb.total_cost.to_bits());
                assert_eq!(ea.task_timeline, eb.task_timeline);
                assert_eq!(ea.allocation_timeline, eb.allocation_timeline);
            }
            _ => panic!("executions diverge"),
        }
    }
}

#[test]
fn churn_fleet_with_storms_is_bitwise_deterministic() {
    // Same seed + trace => bitwise-identical fleet bills across runs, at
    // churn scale with real revocation storms along the way.
    let run = || {
        let (requests, service) = churn_fixture(16, 1.0);
        service.run(&requests).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.fleet_cost.to_bits(), b.fleet_cost.to_bits());
    assert_eq!(a.makespan_hours.to_bits(), b.makespan_hours.to_bits());
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.admitted, tb.admitted);
        assert_eq!(ta.revoked_at_hours, tb.revoked_at_hours);
        assert_eq!(ta.replanned_at_hours, tb.replanned_at_hours);
        if let (Some(ea), Some(eb)) = (&ta.execution, &tb.execution) {
            assert_eq!(ea.total_cost.to_bits(), eb.total_cost.to_bits());
        }
    }
    assert_accounts_balance(&a);
}
