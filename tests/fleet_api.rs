//! The incremental `Fleet` session API: batch-vs-incremental bitwise
//! equivalence (pinned on the Poisson-churn and revocation-storm
//! fixtures), event-stream ordering and determinism, mid-run
//! submit/cancel semantics, per-tenant spot bids, and the
//! rejected-submission paths.

mod support;

use conductor_bench::experiments::{churn_fixture, run_fleet_online};
use conductor_cloud::Catalog;
use conductor_core::{
    ConductorService, FleetConfig, FleetEvent, FleetJobRequest, FleetReport, Goal, OutcomeClass,
    ResourcePool, TenantState,
};
use conductor_mapreduce::Workload;
use std::sync::{Arc, Mutex};
use support::fleet::{fast_options, storm_prices, storm_service};

fn plain_service(cap: usize) -> ConductorService {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0)
        .with_compute_only(&["m1.large"])
        .with_compute_cap("m1.large", cap);
    ConductorService::new(catalog, pool).with_solve_options(fast_options())
}

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

fn small_request(tenant: &str, arrival: f64, deadline: f64) -> FleetJobRequest {
    FleetJobRequest::new(
        tenant,
        Workload::KMeansScaled { input_gb: 8 }.spec(),
        Goal::MinimizeCost {
            deadline_hours: deadline,
        },
        arrival,
    )
}

/// Bitwise comparison of two fleet reports: every aggregate and every
/// per-tenant float down to the last bit.
fn assert_reports_bitwise_equal(a: &FleetReport, b: &FleetReport) {
    assert_eq!(a.fleet_cost.to_bits(), b.fleet_cost.to_bits(), "fleet cost");
    assert_eq!(
        a.makespan_hours.to_bits(),
        b.makespan_hours.to_bits(),
        "makespan"
    );
    assert_eq!(a.jobs_admitted, b.jobs_admitted);
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.deadlines_met, b.deadlines_met);
    assert!(
        (a.fleet_breakdown.total() - b.fleet_breakdown.total()).abs() == 0.0,
        "breakdown totals diverge"
    );
    assert_eq!(a.tenants.len(), b.tenants.len());
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.tenant, tb.tenant);
        assert_eq!(
            ta.arrival_hours.to_bits(),
            tb.arrival_hours.to_bits(),
            "{}: arrival",
            ta.tenant
        );
        assert_eq!(ta.admitted, tb.admitted, "{}: admitted", ta.tenant);
        assert_eq!(ta.rejection, tb.rejection, "{}: rejection", ta.tenant);
        assert_eq!(ta.failure, tb.failure, "{}: failure", ta.tenant);
        assert_eq!(
            ta.replanned_at_hours, tb.replanned_at_hours,
            "{}: re-plans",
            ta.tenant
        );
        assert_eq!(
            ta.revoked_at_hours, tb.revoked_at_hours,
            "{}: revocations",
            ta.tenant
        );
        assert_eq!(
            ta.finished_at_hours.map(f64::to_bits),
            tb.finished_at_hours.map(f64::to_bits),
            "{}: finish hour",
            ta.tenant
        );
        match (&ta.execution, &tb.execution) {
            (Some(ea), Some(eb)) => {
                assert_eq!(
                    ea.total_cost.to_bits(),
                    eb.total_cost.to_bits(),
                    "{}: bill",
                    ta.tenant
                );
                assert_eq!(
                    ea.completion_hours.to_bits(),
                    eb.completion_hours.to_bits(),
                    "{}: completion",
                    ta.tenant
                );
                assert_eq!(ea.task_timeline, eb.task_timeline, "{}: tasks", ta.tenant);
                assert_eq!(
                    ea.allocation_timeline, eb.allocation_timeline,
                    "{}: allocations",
                    ta.tenant
                );
            }
            (None, None) => {}
            _ => panic!("{}: executions diverge between drivers", ta.tenant),
        }
    }
}

#[test]
fn batch_and_incremental_drivers_agree_bitwise_on_the_churn_fixture() {
    // The canonical Poisson fixture with real revocation storms: the batch
    // wrapper (submit-all-then-drain) and the online driver (step to each
    // arrival, submit then) must produce the identical fleet, bit for bit.
    let (requests, service) = churn_fixture(16, 1.0);
    let batch = service.run(&requests).expect("batch churn run");
    let online = run_fleet_online(&service, &requests);
    assert_reports_bitwise_equal(&batch, &online);
    assert!(batch.jobs_admitted > 0, "fixture admitted nothing");
}

#[test]
fn batch_and_incremental_drivers_agree_bitwise_on_the_storm_fixture() {
    // Revocation-storm fixture (mirrors tests/revocation.rs): a [2, 4)
    // blackout over one tenant, and a two-tenant storm with a rescue.
    let service = storm_service(storm_prices(48, 2, 4), 0.34, 100);
    let requests = [request("victim", 0.0, 12.0)];
    let batch = service.run(&requests).unwrap();
    let online = run_fleet_online(&service, &requests);
    assert_eq!(
        batch.tenant("victim").unwrap().revoked_at_hours,
        vec![2.0],
        "the storm must actually strike"
    );
    assert_reports_bitwise_equal(&batch, &online);

    let service = storm_service(storm_prices(72, 3, 4), 0.34, 200);
    let requests = [request("a", 0.0, 6.0), request("b", 0.0, 7.0)];
    let batch = service.run(&requests).unwrap();
    let online = run_fleet_online(&service, &requests);
    assert_reports_bitwise_equal(&batch, &online);
}

#[test]
fn batch_and_incremental_agree_across_an_idle_gap() {
    // A 30-hour dead window between arrivals: the online driver's monitor
    // chain goes quiet after the first job drains and must revive on the
    // *batch* tick grid (anchor + k·period, iterated) when the second job
    // is submitted — the scenario the grid-revival logic exists for.
    let service = plain_service(60);
    let requests = [
        small_request("early", 0.5, 5.0),
        small_request("late", 30.25, 5.0),
    ];
    let batch = service.run(&requests).unwrap();
    let online = run_fleet_online(&service, &requests);
    assert_eq!(batch.jobs_completed, 2);
    assert_reports_bitwise_equal(&batch, &online);
}

#[test]
fn event_stream_is_deterministic_and_in_clock_order() {
    // The rescue scenario emits the full vocabulary: Submitted, Admitted,
    // Planned, Revoked, Replanned, Completed. Two runs must produce the
    // identical stream, observers must see exactly the log, and at_hours
    // must never go backwards.
    let run = || {
        let service = storm_service(storm_prices(48, 2, 3), 0.34, 100);
        let mut fleet = service.open().expect("valid config");
        let observed: Arc<Mutex<Vec<FleetEvent>>> = Arc::default();
        let sink = Arc::clone(&observed);
        fleet.observe(Box::new(move |e: &FleetEvent| {
            sink.lock().unwrap().push(e.clone())
        }));
        fleet.submit(request("rescued", 0.0, 7.0)).unwrap();
        fleet.run_to_quiescence();
        let log = fleet.events().to_vec();
        assert_eq!(
            *observed.lock().unwrap(),
            log,
            "observers must see exactly the event log"
        );
        log
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "event stream must be deterministic across runs");

    for w in a.windows(2) {
        assert!(
            w[0].at_hours() <= w[1].at_hours() + 1e-9,
            "clock order violated: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    let kind = |e: &FleetEvent| -> &'static str {
        match e {
            FleetEvent::Submitted { .. } => "submitted",
            FleetEvent::Admitted { .. } => "admitted",
            FleetEvent::Planned { .. } => "planned",
            FleetEvent::Revoked { .. } => "revoked",
            FleetEvent::Replanned { .. } => "replanned",
            FleetEvent::Completed { .. } => "completed",
            _ => "other",
        }
    };
    let kinds: Vec<&str> = a.iter().map(kind).collect();
    for expected in [
        "submitted",
        "admitted",
        "planned",
        "revoked",
        "replanned",
        "completed",
    ] {
        assert!(
            kinds.contains(&expected),
            "missing `{expected}` in {kinds:?}"
        );
    }
    // Lifecycle order for the single tenant.
    let pos = |k: &str| kinds.iter().position(|x| *x == k).unwrap();
    assert!(pos("submitted") < pos("admitted"));
    assert!(pos("admitted") < pos("revoked"));
    assert!(pos("revoked") < pos("replanned"));
    assert!(pos("replanned") < pos("completed"));
}

#[test]
fn mid_run_submit_sees_live_state_and_residual_capacity() {
    let service = plain_service(60);
    let mut fleet = service.open().unwrap();
    let first = fleet.submit(small_request("first", 0.0, 5.0)).unwrap();

    // Step into the first job's run and look around.
    fleet.step_until(1.5);
    assert_eq!(fleet.now_hours(), 1.5);
    let status = fleet.status(first).unwrap();
    assert_eq!(status.state, TenantState::Running);
    let progress = status.progress.expect("running jobs expose progress");
    assert!(progress.total_tasks > 0);
    assert!(status.plan.is_some());

    // A mid-run submission with a stale arrival hour is clamped to now and
    // admitted against the residual the first job leaves.
    let second = fleet.submit(small_request("second", 0.2, 8.0)).unwrap();
    let s = fleet.status(second).unwrap();
    assert_eq!(s.state, TenantState::Queued);
    assert_eq!(s.arrival_hours, 1.5, "stale arrival clamps to now");

    fleet.run_to_quiescence();
    for id in [first, second] {
        let s = fleet.status(id).unwrap();
        assert_eq!(
            s.state,
            TenantState::Completed,
            "{}: {:?}",
            s.tenant,
            s.failure
        );
    }
    // The session's live bill equals the drained report's roll-up.
    let report = fleet.report();
    assert!((fleet.fleet_bill() - report.fleet_cost).abs() < 1e-9);
    assert_eq!(report.jobs_completed, 2);
}

#[test]
fn cancel_before_arrival_and_mid_run() {
    let service = plain_service(80);
    let mut fleet = service.open().unwrap();
    let running = fleet.submit(small_request("running", 0.0, 6.0)).unwrap();
    let queued = fleet.submit(small_request("queued", 40.0, 6.0)).unwrap();

    // Pre-arrival cancel: the submission never plans, never bills.
    assert_eq!(fleet.cancel(queued), Ok(true));
    assert_eq!(fleet.cancel(queued), Ok(false), "idempotent");
    assert_eq!(fleet.status(queued).unwrap().state, TenantState::Cancelled);

    // Mid-run cancel: abort at the current hour, keep the partial bill.
    fleet.step_until(2.0);
    assert_eq!(fleet.status(running).unwrap().state, TenantState::Running);
    assert_eq!(fleet.cancel(running), Ok(true));
    let s = fleet.status(running).unwrap();
    assert_eq!(s.state, TenantState::Cancelled);
    assert!(s.failure.as_deref().unwrap().contains("cancelled"));

    fleet.run_to_quiescence();
    let report = fleet.report();
    // The cancelled running job keeps its partial spend on the fleet bill
    // (the upload transfer alone is real money).
    let cancelled = report.tenant("running").unwrap();
    let partial = cancelled.execution.as_ref().expect("partial bill recorded");
    assert!(
        partial.total_cost > 0.0,
        "partial bill {}",
        partial.total_cost
    );
    assert!((report.fleet_cost - partial.total_cost).abs() < 1e-9);
    assert_eq!(report.jobs_completed, 0);
    assert_eq!(
        report.tenants_by_outcome(OutcomeClass::Failed).count(),
        1,
        "mid-run cancel is a failure outcome with a bill"
    );
    assert_eq!(report.tenants_by_outcome(OutcomeClass::Rejected).count(), 1);
    // Cancellation events were emitted for both.
    let cancels = fleet
        .events()
        .iter()
        .filter(|e| matches!(e, FleetEvent::Cancelled { .. }))
        .count();
    assert_eq!(cancels, 2);
}

#[test]
fn infeasible_residual_rejects_the_submission_with_an_event() {
    // Cap so small the second arrival cannot plan inside the leftover.
    let service = plain_service(16);
    let mut fleet = service.open().unwrap();
    fleet.submit(request("first", 0.0, 6.0)).unwrap();
    let crowded = fleet.submit(request("crowded-out", 0.5, 6.0)).unwrap();
    fleet.run_to_quiescence();

    let s = fleet.status(crowded).unwrap();
    assert_eq!(s.state, TenantState::Rejected);
    assert!(s.rejection.as_deref().unwrap().contains("planning failed"));
    let rejected: Vec<_> = fleet
        .events()
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Rejected { tenant, reason, .. } => Some((*tenant, reason.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(rejected.len(), 1);
    assert_eq!(rejected[0].0, crowded);
    assert!(rejected[0].1.contains("planning failed"));
    let report = fleet.report();
    assert_eq!(report.tenants_by_outcome(OutcomeClass::Rejected).count(), 1);
    assert_eq!(
        report.tenants_by_outcome(OutcomeClass::Completed).count(),
        1
    );
    // The solve that found no plan (an infeasible root relaxation) still
    // cost a model build and basis factorizations, and the rejected
    // tenant's outcome says how much — its own share, not the shared solve
    // context's running total.
    let planning = |tenant: &str| report.tenant(tenant).unwrap().planning.clone().unwrap();
    let (first, refused) = (planning("first"), planning("crowded-out"));
    assert!(refused.model_vars > 0 && refused.model_constraints > 0);
    assert!(refused.basis_factorizations > 0 && refused.nodes_explored == 0);
    assert!(
        refused.basis_factorizations < first.basis_factorizations,
        "the refusal reports {} factorizations after the admission's {}",
        refused.basis_factorizations,
        first.basis_factorizations
    );
}

#[test]
fn per_tenant_spot_bid_overrides_the_fleet_bid_in_revocations() {
    // The price never exceeds the 0.34 fleet bid, but a mini-spike to 0.28
    // at hours [2, 3) out-bids a tenant bidding 0.25: only that tenant is
    // struck, the default-bid tenant rides through untouched. The 7-hour
    // deadline forces both plans to field nodes from the start (the upload
    // alone takes ~4.8 h), so the spike is guaranteed to hit a working
    // cluster.
    let prices: Vec<f64> = (0..48).map(|t| if t == 2 { 0.28 } else { 0.20 }).collect();
    let service = storm_service(prices, 0.34, 200);
    let mut fleet = service.open().unwrap();
    let low = fleet
        .submit(request("low-bidder", 0.0, 7.0).with_spot_bid(0.25))
        .unwrap();
    let default = fleet.submit(request("default-bidder", 0.0, 7.0)).unwrap();
    fleet.run_to_quiescence();

    let low_status = fleet.status(low).unwrap();
    assert_eq!(
        low_status.revoked_at_hours,
        vec![2.0],
        "the per-tenant bid must trigger its own revocation"
    );
    let default_status = fleet.status(default).unwrap();
    assert!(
        default_status.revoked_at_hours.is_empty(),
        "the fleet-bid tenant must ride through the mini-spike: {:?}",
        default_status.revoked_at_hours
    );
    for id in [low, default] {
        let s = fleet.status(id).unwrap();
        assert_eq!(
            s.state,
            TenantState::Completed,
            "{}: {:?}",
            s.tenant,
            s.failure
        );
    }
    // And the batch wrapper accepts per-tenant bids identically.
    let batch = service
        .run(&[
            request("low-bidder", 0.0, 7.0).with_spot_bid(0.25),
            request("default-bidder", 0.0, 7.0),
        ])
        .unwrap();
    assert_eq!(
        batch.tenant("low-bidder").unwrap().revoked_at_hours,
        vec![2.0]
    );
    assert!(batch
        .tenant("default-bidder")
        .unwrap()
        .revoked_at_hours
        .is_empty());
}

#[test]
fn absent_per_tenant_bids_change_nothing() {
    // Explicitly passing the fleet bid per tenant is bitwise identical to
    // not passing one (the knob defaults to the fleet bid everywhere).
    let service = storm_service(storm_prices(48, 2, 4), 0.30, 100);
    let plain = [request("victim", 0.0, 12.0)];
    let with_bid = [request("victim", 0.0, 12.0).with_spot_bid(0.30)];
    let a = service.run(&plain).unwrap();
    let b = service.run(&with_bid).unwrap();
    assert_reports_bitwise_equal(&a, &b);
}

#[test]
fn invalid_submissions_and_configs_are_refused() {
    let service = plain_service(50);
    let mut fleet = service.open().unwrap();
    assert!(fleet.submit(request("nan", f64::NAN, 6.0)).is_err());
    assert!(fleet.submit(request("neg", -2.0, 6.0)).is_err());
    assert!(fleet
        .submit(request("bad-bid", 0.0, 6.0).with_spot_bid(f64::NEG_INFINITY))
        .is_err());
    assert!(fleet
        .submit(request("bad-bid", 0.0, 6.0).with_spot_bid(-0.01))
        .is_err());
    assert!(
        fleet.events().is_empty(),
        "refused submissions emit nothing"
    );

    // The batch wrapper surfaces the same validation.
    assert!(service.run(&[request("nan", f64::NAN, 6.0)]).is_err());
    assert!(service
        .run(&[request("bad", 0.0, 6.0).with_spot_bid(f64::NAN)])
        .is_err());

    // NaN monitor knobs fail loudly at open, not silently at tick time.
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let bad = FleetConfig {
        monitor_tolerance: f64::NAN,
        ..FleetConfig::default()
    };
    assert!(conductor_core::Fleet::new(catalog, pool, bad).is_err());

    // The service's bid builder stores what it is given, so an invalid fleet
    // bid reaches the same validation instead of being clamped to zero.
    for bid in [-1.0, f64::NAN] {
        assert!(
            plain_service(50).with_spot_bid(bid).open().is_err(),
            "fleet bid {bid} must be refused"
        );
    }
}
