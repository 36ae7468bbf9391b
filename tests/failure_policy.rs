//! The failure-policy layer end to end: seeded fault injection,
//! retry/backoff chains ending in completion or the dead-letter queue,
//! the admission gate's pause/resume hysteresis, the spot-market circuit
//! breaker with on-demand fallback, and the policy-comparison acceptance
//! criterion — retry+breaker+fallback strictly improves deadlines-met
//! over a no-policy fleet on the same faulted churn fixture, bitwise
//! reproducibly.

mod support;

use conductor_bench::experiments::{churn_fixture, churn_policy, run_fleet_online};
use conductor_cloud::Catalog;
use conductor_core::{
    BreakerState, CircuitBreakerConfig, ConductorService, FailurePolicy, FailureThreshold,
    FallbackTier, FaultEvent, FaultKind, FaultPlan, FleetEvent, FleetJobRequest, Goal,
    OutcomeClass, ResourcePool, RetryPolicy, TenantState,
};
use conductor_mapreduce::Workload;
use support::fleet::{canonical_json, fast_options, storm_prices, storm_service};

fn plain_service(cap: usize) -> ConductorService {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0)
        .with_compute_only(&["m1.large"])
        .with_compute_cap("m1.large", cap);
    ConductorService::new(catalog, pool).with_solve_options(fast_options())
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

/// An explicit fault plan: task failures at the given fleet hours, always
/// hitting the first running job in pid order (salt 0).
fn task_failures_at(hours: &[f64]) -> FaultPlan {
    FaultPlan {
        events: hours
            .iter()
            .map(|&at_hours| FaultEvent {
                at_hours,
                kind: FaultKind::TaskFailure,
                salt: 0,
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Retry chains and the dead-letter queue.
// ---------------------------------------------------------------------------

#[test]
fn fault_then_retry_completes_the_work() {
    // One tenant, one injected task failure at hour 1. The retry policy
    // re-submits the job 0.5 h later as a fresh arrival; the second
    // attempt runs fault-free and completes.
    let svc = plain_service(200).with_failure_policy(FailurePolicy {
        fault_plan: Some(task_failures_at(&[1.0])),
        retry: Some(RetryPolicy::default()),
        ..FailurePolicy::default()
    });
    let mut fleet = svc.open().unwrap();
    fleet.submit(small_request("solo", 0.0, 8.0)).unwrap();
    fleet.run_to_quiescence();
    let report = fleet.report();

    // The original attempt was aborted by the fault …
    let original = &report.tenants[0];
    assert_eq!(original.attempt, 0);
    assert!(original
        .failure
        .as_deref()
        .unwrap()
        .contains("injected fault"));
    // … and the retry is a fresh tenant record that completed on time.
    let retry = &report.tenants[1];
    assert_eq!(retry.attempt, 1);
    assert_eq!(retry.retry_of, Some(0));
    assert_eq!(retry.outcome_class(), OutcomeClass::Completed);
    assert_eq!(
        retry.execution.as_ref().unwrap().met_deadline,
        Some(true),
        "retry should finish within the original deadline"
    );
    assert_eq!(report.retries, 1);
    assert_eq!(report.dead_lettered, 0);
    assert!(fleet.dead_letters().is_empty());

    // The Retried event carries the deterministic backoff arrival:
    // base 0.5 h after the hour-1 fault.
    let retried = fleet
        .events()
        .iter()
        .find_map(|e| match e {
            FleetEvent::Retried {
                attempt,
                arrival_hours,
                at_hours,
                ..
            } => Some((*attempt, *arrival_hours, *at_hours)),
            _ => None,
        })
        .expect("a Retried event");
    assert_eq!(retried.0, 1);
    assert!((retried.1 - (retried.2 + 0.5)).abs() < 1e-12);
}

#[test]
fn exhausted_retries_land_in_the_dead_letter_queue() {
    // Faults at hours 1, 2.5, 4.5 kill the original and both retries
    // (max_retries = 2): attempt 0 dies at 1.0, retries at 1.5; attempt 1
    // dies at 2.5, retries at 3.5 (backoff doubled); attempt 2 dies at
    // 4.5 with the budget exhausted — dead-lettered.
    let svc = plain_service(200).with_failure_policy(FailurePolicy {
        fault_plan: Some(task_failures_at(&[1.0, 2.5, 4.5])),
        retry: Some(RetryPolicy::default()),
        ..FailurePolicy::default()
    });
    let mut fleet = svc.open().unwrap();
    fleet.submit(small_request("doomed", 0.0, 8.0)).unwrap();
    fleet.run_to_quiescence();
    let report = fleet.report();

    assert_eq!(report.tenants.len(), 3, "original + two retries");
    assert_eq!(report.retries, 2);
    assert_eq!(report.dead_lettered, 1);
    assert_eq!(
        report
            .tenants_by_outcome(OutcomeClass::DeadLettered)
            .count(),
        1
    );

    let dl = &fleet.dead_letters()[0];
    assert_eq!(dl.tenant.0, 2, "the final attempt is the dead letter");
    assert_eq!(dl.original.0, 0, "chained back to the root submission");
    assert_eq!(dl.attempts, 3);
    assert!(dl.reason.contains("injected fault"));
    assert_eq!(dl.tenant_name, "doomed");

    // The DeadLettered event mirrors the queue entry.
    assert!(fleet
        .events()
        .iter()
        .any(|e| matches!(e, FleetEvent::DeadLettered { attempts: 3, .. })));

    // Backoff doubles per attempt: second retry arrives 1.0 h (not
    // 0.5 h) after its predecessor's death.
    let arrivals: Vec<(usize, f64, f64)> = fleet
        .events()
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Retried {
                attempt,
                at_hours,
                arrival_hours,
                ..
            } => Some((*attempt, *at_hours, *arrival_hours)),
            _ => None,
        })
        .collect();
    assert_eq!(arrivals.len(), 2);
    assert!((arrivals[0].2 - (arrivals[0].1 + 0.5)).abs() < 1e-12);
    assert!((arrivals[1].2 - (arrivals[1].1 + 1.0)).abs() < 1e-12);
}

// ---------------------------------------------------------------------------
// Admission gate: pause/resume hysteresis.
// ---------------------------------------------------------------------------

#[test]
fn admission_pauses_on_failures_and_resumes_on_successes() {
    // Window of 2: two early faults fill it with failures (fraction 1.0 >
    // 0.5 → pause); a mid-pause arrival is refused with the gate's
    // reason; two clean completions flush the window (0.0 < 0.25 →
    // resume); a late arrival is admitted again.
    let threshold = FailureThreshold {
        window: 2,
        pause_above: 0.5,
        resume_below: 0.25,
        min_samples: 2,
    };
    let svc = plain_service(400).with_failure_policy(FailurePolicy {
        fault_plan: Some(task_failures_at(&[1.0, 1.1])),
        failure_threshold: Some(threshold),
        ..FailurePolicy::default()
    });
    let mut fleet = svc.open().unwrap();
    // Four early tenants: the faults kill `a` then `b`; `c` and `d`
    // survive and complete around hour 4-5.
    for (name, at) in [("a", 0.0), ("b", 0.1), ("c", 0.2), ("d", 0.3)] {
        fleet.submit(small_request(name, at, 8.0)).unwrap();
    }
    // `late-paused` arrives while the gate is down; `late-open` after the
    // completions have resumed it (MinimizeCost stretches `c` and `d`
    // toward their hour-8.2/8.3 deadlines, so the resume lands there).
    fleet
        .submit(small_request("late-paused", 2.0, 10.0))
        .unwrap();
    fleet.submit(small_request("late-open", 9.5, 16.0)).unwrap();
    fleet.run_to_quiescence();
    let report = fleet.report();

    let paused_at = fleet.events().iter().find_map(|e| match e {
        FleetEvent::AdmissionPaused { at_hours, .. } => Some(*at_hours),
        _ => None,
    });
    let resumed_at = fleet.events().iter().find_map(|e| match e {
        FleetEvent::AdmissionResumed { at_hours, .. } => Some(*at_hours),
        _ => None,
    });
    let paused_at = paused_at.expect("gate should pause after the two faults");
    let resumed_at = resumed_at.expect("gate should resume after the two completions");
    assert!(paused_at < resumed_at);
    assert!(!fleet.admission_paused(), "gate open at quiescence");

    let refused = report.tenant("late-paused").unwrap();
    assert!(!refused.admitted);
    assert!(
        refused
            .rejection
            .as_deref()
            .unwrap()
            .contains("admission paused"),
        "unexpected reason: {:?}",
        refused.rejection
    );
    let admitted = report.tenant("late-open").unwrap();
    assert!(admitted.admitted, "gate should have reopened by hour 9.5");
    assert_eq!(admitted.outcome_class(), OutcomeClass::Completed);
}

// ---------------------------------------------------------------------------
// Circuit breaker: open → half-open → closed, with on-demand fallback.
// ---------------------------------------------------------------------------

#[test]
fn breaker_walks_open_half_open_closed_and_fallback_keeps_the_deadline() {
    // Storm at hours [2, 5): three consecutive out-bid sweeps are three
    // strikes (threshold 3) — the breaker opens at hour 4. Hourly probes
    // then watch the trace: hour 5's probe still sees the dirty hour 4,
    // hours 6-7 accumulate the two clean hours (success threshold 2) and
    // half-open the breaker at 7; hour 8's probe closes it.
    let breaker = CircuitBreakerConfig {
        strike_threshold: 3,
        window_hours: 6.0,
        success_threshold_hours: 2,
        fallback: FallbackTier::OnDemand,
    };
    let svc = storm_service(storm_prices(72, 2, 5), 0.30, 200).with_failure_policy(FailurePolicy {
        circuit_breaker: Some(breaker),
        ..FailurePolicy::default()
    });
    let mut fleet = svc.open().unwrap();
    // `steady` holds spot nodes into the storm, eating all three strikes.
    fleet
        .submit(FleetJobRequest::new(
            "steady",
            Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 16.0,
            },
            0.0,
        ))
        .unwrap();
    // `urgent` arrives while the breaker is open: the fallback buys
    // on-demand capacity instead of waiting out the market.
    fleet.submit(small_request("urgent", 4.5, 10.5)).unwrap();
    fleet.run_to_quiescence();
    let report = fleet.report();

    let mut transitions = Vec::new();
    let mut fallback_tenant = None;
    for e in fleet.events() {
        match e {
            FleetEvent::BreakerOpened { at_hours, strikes } => {
                transitions.push(("open", *at_hours));
                assert_eq!(*strikes, 3);
            }
            FleetEvent::BreakerHalfOpen { at_hours } => transitions.push(("half-open", *at_hours)),
            FleetEvent::BreakerClosed { at_hours } => transitions.push(("closed", *at_hours)),
            FleetEvent::FallbackEngaged { tenant, .. } => fallback_tenant = Some(*tenant),
            _ => {}
        }
    }
    assert_eq!(
        transitions,
        vec![("open", 4.0), ("half-open", 7.0), ("closed", 8.0)],
        "breaker state walk"
    );
    assert_eq!(fleet.breaker_state(), Some(BreakerState::Closed));
    assert!(
        (report.breaker_open_hours - 3.0).abs() < 1e-9,
        "open from hour 4 to the half-open at 7, got {}",
        report.breaker_open_hours
    );

    // The mid-storm arrival was admitted on the fallback tier and met its
    // deadline even though the spot market was untouchable.
    let urgent = report.tenant("urgent").unwrap();
    assert!(urgent.admitted);
    assert_eq!(fallback_tenant.map(|t| t.0), Some(1));
    assert_eq!(
        urgent.execution.as_ref().unwrap().met_deadline,
        Some(true),
        "on-demand fallback should keep the deadline"
    );
}

// ---------------------------------------------------------------------------
// Satellite: a cancelled tenant's bill is quoted consistently.
// ---------------------------------------------------------------------------

#[test]
fn cancelled_tenant_bill_matches_the_pre_cancel_quote_and_fleet_bill() {
    let svc = plain_service(200);
    let mut fleet = svc.open().unwrap();
    let id = fleet.submit(small_request("quitter", 0.0, 8.0)).unwrap();
    fleet.step_until(1.3);

    // Mid-run: the status quote prices the open rental sessions exactly
    // as the abort would settle them (whole-hour ceiling), so the quote,
    // the fleet bill and the post-cancel bill all agree.
    let quote = fleet.status(id).unwrap();
    assert_eq!(quote.state, TenantState::Running);
    assert!(quote.bill_so_far > 0.0, "open sessions accrue charges");
    let fleet_bill_before = fleet.fleet_bill();
    assert!((fleet_bill_before - quote.bill_so_far).abs() < 1e-9);

    assert!(fleet.cancel(id).unwrap());
    let after = fleet.status(id).unwrap();
    assert_eq!(after.state, TenantState::Cancelled);
    assert!(
        (after.bill_so_far - quote.bill_so_far).abs() < 1e-9,
        "cancel settled {} but the quote said {}",
        after.bill_so_far,
        quote.bill_so_far
    );
    assert!((fleet.fleet_bill() - fleet_bill_before).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Acceptance: the policy strictly improves the faulted churn fixture,
// every tenant is terminal, bills sum, and reruns are bitwise identical.
// ---------------------------------------------------------------------------

/// The churn comparison pair: the same requests and storm-bearing service,
/// once with faults only and once with faults + retry + breaker/fallback.
fn churn_comparison(jobs: usize) -> (conductor_core::FleetReport, conductor_core::FleetReport) {
    let policy = churn_policy(20_260_808, jobs, {
        let (requests, _) = churn_fixture(jobs, 1.0);
        requests.last().map(|r| r.arrival_hours).unwrap_or(0.0) + 24.0
    });
    let faults_only = FailurePolicy {
        fault_plan: policy.fault_plan.clone(),
        ..FailurePolicy::default()
    };
    let with_policy = FailurePolicy {
        fault_plan: policy.fault_plan.clone(),
        retry: Some(RetryPolicy::default()),
        circuit_breaker: Some(CircuitBreakerConfig::default()),
        ..FailurePolicy::default()
    };
    let (requests, service) = churn_fixture(jobs, 1.0);
    let base = run_fleet_online(&service.clone().with_failure_policy(faults_only), &requests);
    let rescued = run_fleet_online(&service.with_failure_policy(with_policy), &requests);
    (base, rescued)
}

#[test]
fn retry_and_breaker_strictly_improve_deadlines_met_on_faulted_churn() {
    let (no_policy, with_policy) = churn_comparison(32);
    assert!(
        with_policy.deadlines_met > no_policy.deadlines_met,
        "retry+breaker+fallback should strictly improve deadlines met: {} vs {}",
        with_policy.deadlines_met,
        no_policy.deadlines_met
    );
    assert!(with_policy.retries > 0, "the policy actually engaged");

    // Every tenant — originals and retries — reached a terminal state.
    for t in &with_policy.tenants {
        assert!(
            t.execution.is_some() || t.rejection.is_some(),
            "{} (attempt {}) stranded non-terminal",
            t.tenant,
            t.attempt
        );
    }
    // Per-tenant bills still sum to the fleet bill under the policy.
    let tenant_sum: f64 = with_policy
        .tenants
        .iter()
        .filter_map(|t| t.execution.as_ref())
        .map(|e| e.total_cost)
        .sum();
    assert!(
        (with_policy.fleet_cost - tenant_sum).abs() < 1e-6 * with_policy.fleet_cost.max(1.0),
        "fleet {} vs tenant sum {}",
        with_policy.fleet_cost,
        tenant_sum
    );
}

#[test]
fn faulted_churn_reruns_are_bitwise_identical() {
    // The full policy (faults + retry + gate + breaker) on the canonical
    // churn fixture, run twice from scratch: the reports must agree bit
    // for bit — serialized JSON is compared verbatim, so every float in
    // every tenant record participates.
    let run = || {
        let (requests, service) = conductor_bench::experiments::faulted_churn_fixture(32, 1.0);
        run_fleet_online(&service, &requests)
    };
    let a = run();
    let b = run();
    assert_eq!(a.fleet_cost.to_bits(), b.fleet_cost.to_bits());
    assert_eq!(a.makespan_hours.to_bits(), b.makespan_hours.to_bits());
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.dead_lettered, b.dead_lettered);
    assert_eq!(
        a.breaker_open_hours.to_bits(),
        b.breaker_open_hours.to_bits()
    );
    let ja = canonical_json(&a);
    let jb = canonical_json(&b);
    if ja != jb {
        let at = ja
            .bytes()
            .zip(jb.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(ja.len().min(jb.len()));
        let lo = at.saturating_sub(120);
        panic!(
            "reports diverge at byte {at}:\n  a: …{}…\n  b: …{}…",
            &ja[lo..(at + 120).min(ja.len())],
            &jb[lo..(at + 120).min(jb.len())]
        );
    }
}

/// The ISSUE's full-size determinism criterion (200 jobs). Expensive, so
/// ignored by default: `cargo test --release -- --ignored` runs it; CI
/// covers the 32-job variant above plus the release-mode churn smoke.
#[test]
#[ignore = "full-size fixture; run with --ignored in release mode"]
fn faulted_churn_200_jobs_reruns_are_bitwise_identical() {
    let run = || {
        let (requests, service) = conductor_bench::experiments::faulted_churn_fixture(200, 1.0);
        run_fleet_online(&service, &requests)
    };
    let a = run();
    let b = run();
    assert_eq!(canonical_json(&a), canonical_json(&b));
}
