//! Fleet-level integration: N concurrent jobs with staggered arrivals on
//! one shared clock, spot market and capacity pool (the multi-tenant
//! scenario the `ConductorService` tentpole exists for).
//!
//! The contention fixture itself lives in
//! `conductor_bench::experiments` — the `fleet_contention` binary and
//! these tests all run the same fleet:
//! four tenants with mixed deadlines arriving half-hourly, one shared
//! electricity-like spot trace, and a fleet-wide 90-node m1.large cap
//! (the shared spot trough herds every tenant into the same cheap hours,
//! so the cap genuinely binds across tenants, not per job).

mod support;

use conductor_bench::experiments::{fleet_contention_requests, fleet_contention_service};
use conductor_cloud::Catalog;
use conductor_core::{ConductorService, FleetJobRequest, FleetReport, Goal, ResourcePool};
use conductor_mapreduce::Workload;
use support::fleet::fast_options;

fn run_fleet(seed: u64) -> FleetReport {
    fleet_contention_service(seed)
        .run(&fleet_contention_requests())
        .expect("fleet run succeeds")
}

#[test]
fn four_tenant_contention_meets_every_deadline_and_bills_add_up() {
    let report = run_fleet(17);

    // All four jobs are admitted and complete.
    assert_eq!(report.jobs_admitted, 4, "{:#?}", report.tenants);
    assert_eq!(report.jobs_completed, 4);

    // Every tenant's deadline verdict: all four plans fit under the shared
    // cap and finish in time.
    for tenant in ["tenant-a", "tenant-b", "tenant-c", "tenant-d"] {
        let outcome = report.tenant(tenant).unwrap();
        let exec = outcome
            .execution
            .as_ref()
            .unwrap_or_else(|| panic!("{tenant} did not finish: {outcome:?}"));
        assert_eq!(
            exec.met_deadline,
            Some(true),
            "{tenant} missed its deadline: completion {:.2} h",
            exec.completion_hours
        );
    }
    assert_eq!(report.deadlines_met, 4);

    // Per-tenant bills sum to the fleet bill, and the category roll-up is
    // consistent with the total.
    let tenant_sum: f64 = report
        .tenants
        .iter()
        .filter_map(|t| t.execution.as_ref())
        .map(|e| e.total_cost)
        .sum();
    assert!(
        (report.fleet_cost - tenant_sum).abs() < 1e-9,
        "fleet {} vs tenant sum {}",
        report.fleet_cost,
        tenant_sum
    );
    assert!((report.fleet_breakdown.total() - report.fleet_cost).abs() < 1e-9);

    // The shared spot market shows up as a discount on every tenant's
    // compute bill: cheaper than renting the same node-hours on demand.
    for t in &report.tenants {
        let exec = t.execution.as_ref().unwrap();
        assert!(exec.total_cost > 0.0);
    }

    // Jobs genuinely overlapped (the fleet finished long before the sum of
    // the individual completion times).
    let serial_hours: f64 = report
        .tenants
        .iter()
        .filter_map(|t| t.execution.as_ref())
        .map(|e| e.completion_hours)
        .sum();
    assert!(
        report.makespan_hours < serial_hours,
        "no concurrency: makespan {} vs serial {}",
        report.makespan_hours,
        serial_hours
    );
}

#[test]
fn fleet_runs_are_deterministic_for_the_same_seed() {
    let a = run_fleet(17);
    let b = run_fleet(17);
    assert_eq!(a.fleet_cost.to_bits(), b.fleet_cost.to_bits());
    assert_eq!(a.makespan_hours.to_bits(), b.makespan_hours.to_bits());
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.tenant, tb.tenant);
        assert_eq!(ta.admitted, tb.admitted);
        assert_eq!(ta.replanned_at_hours, tb.replanned_at_hours);
        match (&ta.execution, &tb.execution) {
            (Some(ea), Some(eb)) => {
                assert_eq!(ea.total_cost.to_bits(), eb.total_cost.to_bits());
                assert_eq!(ea.completion_hours.to_bits(), eb.completion_hours.to_bits());
                assert_eq!(ea.task_timeline, eb.task_timeline);
            }
            (None, None) => {}
            _ => panic!("{}: executions diverge across runs", ta.tenant),
        }
    }

    // A different trace seed changes the market and therefore the bills
    // (same catalog, same jobs — only the shared market state moved).
    let c = run_fleet(18);
    assert!(
        (a.fleet_cost - c.fleet_cost).abs() > 1e-9,
        "spot trace seed had no effect on the fleet bill"
    );
}

#[test]
fn residual_planning_under_a_tight_cap_still_serves_later_arrivals() {
    // With a cap just above one job's peak, later arrivals must plan inside
    // what is left; the fleet stays functional (admitting what fits,
    // rejecting what cannot possibly plan).
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0)
        .with_compute_only(&["m1.large"])
        .with_compute_cap("m1.large", 30);
    let service = ConductorService::new(catalog, pool).with_solve_options(fast_options());
    let report = service
        .run(&[
            FleetJobRequest::new(
                "early",
                Workload::KMeans32Gb.spec(),
                Goal::MinimizeCost {
                    deadline_hours: 6.0,
                },
                0.0,
            ),
            FleetJobRequest::new(
                "late",
                Workload::KMeans32Gb.spec(),
                Goal::MinimizeCost {
                    deadline_hours: 12.0,
                },
                1.0,
            ),
        ])
        .unwrap();
    let early = report.tenant("early").unwrap();
    assert!(early.admitted);
    assert_eq!(early.execution.as_ref().unwrap().met_deadline, Some(true));
    let late = report.tenant("late").unwrap();
    // The late tenant's relaxed deadline lets it plan around the leftover
    // capacity.
    assert!(late.admitted, "late tenant rejected: {:?}", late.rejection);
    let exec = late.execution.as_ref().unwrap();
    assert_eq!(exec.met_deadline, Some(true));
    // Its plan really was squeezed: the peak is below the fleet cap minus
    // the early tenant's concurrent peak would allow at admission time.
    let late_peak = late.plan.as_ref().unwrap().peak_nodes("m1.large");
    assert!(late_peak <= 30, "late peak {late_peak}");
}
