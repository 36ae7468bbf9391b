//! The failure-policy layer: storm → circuit breaker opens → on-demand
//! fallback keeps the deadline, plus an injected fault rescued by a retry.
//!
//! A three-hour price storm hands the fleet three revocation strikes in a
//! row, tripping the spot circuit breaker. A tenant that arrives while
//! the breaker is open is *not* told to wait out the market: the
//! `FallbackTier::OnDemand` policy buys ceiling-priced capacity instead,
//! and the deadline survives. Meanwhile a seeded `FaultPlan` kills the
//! long-running tenant mid-flight; the retry policy re-submits it as a
//! fresh arrival after a deterministic backoff, and the second attempt
//! completes. Hourly probes watch the trace after the storm: two clean
//! hours half-open the breaker, one more closes it.
//!
//! Run with: `cargo run --release --example failure_policy`

use conductor_cloud::{Catalog, SpotMarket, SpotTrace, TraceKind};
use conductor_core::{
    BreakerState, CircuitBreakerConfig, FailurePolicy, FallbackTier, FaultEvent, FaultKind,
    FaultPlan, Fleet, FleetConfig, FleetEvent, FleetJobRequest, Goal, ResourcePool, RetryPolicy,
};
use conductor_mapreduce::Workload;

fn main() {
    // 1. A spot market that turns hostile: cheap at 0.20 $/h everywhere
    //    except hours [1, 4), where the price spikes past the 0.30 fleet
    //    bid. Three consecutive out-bid sweeps = three strikes.
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0)
        .with_compute_only(&["m1.large"])
        .with_compute_cap("m1.large", 200);
    let prices: Vec<f64> = (0..48)
        .map(|t| if (1..4).contains(&t) { 0.50 } else { 0.20 })
        .collect();

    // 2. The failure policy: a deterministic fault plan (one task failure
    //    at hour 6, aimed at the first running job in pid order), the
    //    default retry ladder, and a circuit breaker that opens after 3
    //    strikes within 6 hours and needs 2 clean trace hours to
    //    half-open. While it is open, admissions fall back to on-demand.
    let policy = FailurePolicy {
        fault_plan: Some(FaultPlan {
            events: vec![FaultEvent {
                at_hours: 6.0,
                kind: FaultKind::TaskFailure,
                salt: 0,
            }],
        }),
        retry: Some(RetryPolicy::default()),
        circuit_breaker: Some(CircuitBreakerConfig {
            strike_threshold: 3,
            window_hours: 6.0,
            success_threshold_hours: 2,
            fallback: FallbackTier::OnDemand,
        }),
        ..FailurePolicy::default()
    };
    let config = FleetConfig {
        spot_market: Some(SpotMarket::new(
            SpotTrace::from_prices(TraceKind::AwsLike, prices),
            0.34,
        )),
        spot_bid: Some(0.30),
        policy,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(catalog, pool, config).expect("valid fleet config");
    fleet.observe(Box::new(|event: &FleetEvent| match event {
        FleetEvent::Revoked { .. }
        | FleetEvent::BreakerOpened { .. }
        | FleetEvent::BreakerHalfOpen { .. }
        | FleetEvent::BreakerClosed { .. }
        | FleetEvent::FallbackEngaged { .. }
        | FleetEvent::FaultInjected { .. }
        | FleetEvent::Retried { .. }
        | FleetEvent::Completed { .. } => println!("  [observer] {event:?}"),
        _ => {}
    }));

    // 3. `etl` rides into the storm at hour 0 (roomy deadline), eats all
    //    three strikes, then is killed by the injected fault at hour 6
    //    and rescued by its retry.
    println!("== hour 0: submit `etl` (deadline 14 h) ==");
    fleet
        .submit(FleetJobRequest::new(
            "etl",
            Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 14.0,
            },
            0.0,
        ))
        .unwrap();

    // 4. `report` arrives at hour 3.5, while the breaker is open. Instead
    //    of gambling on a market that just burned the fleet three times,
    //    admission engages the on-demand fallback.
    println!("== hour 3.5: submit `report` (deadline 9.5 h) while the breaker is open ==");
    let report_id = fleet
        .submit(FleetJobRequest::new(
            "report",
            Workload::KMeansScaled { input_gb: 8 }.spec(),
            Goal::MinimizeCost {
                deadline_hours: 6.0,
            },
            3.5,
        ))
        .unwrap();

    fleet.step_until(4.0);
    println!(
        "== hour 4: breaker state {:?}, admission planned on the fallback tier ==",
        fleet.breaker_state().unwrap()
    );
    assert_eq!(fleet.breaker_state(), Some(BreakerState::Open));

    fleet.run_to_quiescence();
    let summary = fleet.report();

    // The breaker walked open → half-open → closed on the event loop.
    let opened = summary.breaker_open_hours;
    println!(
        "== final: breaker {:?} after {opened:.1} open hours ==",
        fleet.breaker_state().unwrap()
    );
    assert_eq!(fleet.breaker_state(), Some(BreakerState::Closed));
    assert!(
        (opened - 3.0).abs() < 1e-9,
        "breaker open hour 3 → half-open hour 6, got {opened}"
    );

    // The fallback kept `report`'s deadline despite the untouchable
    // market, at the on-demand price.
    let report = summary.tenant("report").unwrap();
    let exec = report.execution.as_ref().expect("fallback tenant ran");
    assert_eq!(
        exec.met_deadline,
        Some(true),
        "fallback missed the deadline"
    );
    assert!(fleet.events().iter().any(|e| matches!(
        e,
        FleetEvent::FallbackEngaged { tenant, .. } if *tenant == report_id
    )));
    println!(
        "report: completed at {:.2} h for ${:.2} on the on-demand fallback",
        report.arrival_hours + exec.completion_hours,
        exec.total_cost
    );

    // The fault killed `etl`, the retry finished the work: the chain is
    // terminal, nothing stranded, nothing dead-lettered.
    let etl = summary.tenant("etl").unwrap();
    assert!(etl.failure.as_deref().unwrap().contains("injected fault"));
    let rescue = summary
        .tenants
        .iter()
        .find(|t| t.retry_of == Some(0))
        .expect("the fault must be answered by a retry");
    assert!(rescue.execution.is_some(), "retry stranded");
    assert_eq!(summary.retries, 1);
    assert_eq!(summary.dead_lettered, 0);
    assert!(fleet.dead_letters().is_empty());
    println!(
        "etl: attempt 0 killed by the fault, attempt 1 completed at {:.2} h",
        rescue.arrival_hours + rescue.execution.as_ref().unwrap().completion_hours
    );
    println!("fleet bill: ${:.2}", summary.fleet_cost);
}
