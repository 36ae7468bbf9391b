//! Absolute pins on the fleet layer's observable output.
//!
//! Every other fleet test compares run A with run B of the *same* build, so
//! a refactor that changes behaviour consistently passes them all. These
//! fingerprints were taken on the commit *before* `fleet.rs` was split into
//! the `fleet/` module tree and verified green there; the split (and anything
//! after it that claims to be a pure refactor) must reproduce them unedited.
//! **Never edit a pinned value** — a mismatch means the event log, a bill or
//! an admission count moved.
//!
//! What is hashed: `serde_json(events)` (every lifecycle transition, hour and
//! payload, floats rendered shortest-round-trip and therefore injectively),
//! each tenant's final bill bits in submission order, and the four exact
//! admission counts. What is deliberately not: `FleetReport` whole (it carries
//! wall-clock `solve_time`) and snapshot bytes (a layout, not behaviour;
//! `tests/checkpoint_resume.rs` pins resume-equivalence at every boundary).

mod support;

use conductor_bench::experiments::{churn_fixture, faulted_churn_fixture, run_fleet_session};
use conductor_core::policy::FaultEvent;
use conductor_core::{
    CircuitBreakerConfig, ConductorService, FailurePolicy, FailureThreshold, FallbackTier,
    FaultKind, FaultPlan, Fleet, FleetEvent, FleetJobRequest, FleetReport, FleetSnapshot, Goal,
    RetryPolicy, ShardRouter, ShardedFleet, ShardedFleetConfig, TenantId,
};
use conductor_mapreduce::Workload;
use support::fleet::assert_accounts_balance;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one pinned session is reduced to.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// FNV-1a of the serialized event log (and, for sharded sessions, of the
    /// shard-tagged merged log followed by the transfer log).
    events: u64,
    /// FNV-1a over every tenant's final bill bits, in submission order
    /// (`0` for tenants that never ran).
    bills: u64,
    /// `(jobs_admitted, deadlines_met, plan_cache_hits, plan_cache_misses)`.
    counts: (usize, usize, usize, usize),
}

fn fingerprint(events_json: &[String], report: &FleetReport) -> Fingerprint {
    let mut events = FNV_OFFSET;
    for part in events_json {
        fnv1a(&mut events, part.as_bytes());
    }
    let mut bills = FNV_OFFSET;
    for tenant in &report.tenants {
        let bits = tenant
            .execution
            .as_ref()
            .map_or(0, |e| e.total_cost.to_bits());
        fnv1a(&mut bills, &bits.to_le_bytes());
    }
    Fingerprint {
        events,
        bills,
        counts: (
            report.jobs_admitted,
            report.deadlines_met,
            report.plan_cache_hits,
            report.plan_cache_misses,
        ),
    }
}

fn fleet_fingerprint(events: &[FleetEvent], report: &FleetReport) -> Fingerprint {
    fingerprint(&[serde_json::to_string(&events.to_vec()).unwrap()], report)
}

/// (a) 32 Poisson arrivals on the storm-bearing churn service, cache off.
#[test]
fn cold_churn_with_storms() {
    let (requests, service) = churn_fixture(32, 1.0);
    let fleet = run_fleet_session(&service, &requests);
    assert!(
        fleet
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::Revoked { .. })),
        "the fixture's storms must strike"
    );
    let report = fleet.report();
    assert_accounts_balance(&report);
    // No failure policy: storms delay jobs but abort none, and nothing retries.
    assert_eq!(
        (report.jobs_completed, report.retries, report.dead_lettered),
        (report.jobs_admitted, 0, 0)
    );
    assert_eq!(
        fleet_fingerprint(fleet.events(), &report),
        Fingerprint {
            events: 10_760_242_527_267_098_016,
            bills: 306_261_446_380_240_311,
            counts: (20, 15, 0, 0),
        }
    );
}

/// (b) The same arrivals served through the plan cache.
#[test]
fn cached_churn_with_storms() {
    let (requests, service) = churn_fixture(32, 1.0);
    let fleet = run_fleet_session(&service.with_plan_cache(true), &requests);
    let report = fleet.report();
    assert_accounts_balance(&report);
    assert_eq!(
        fleet_fingerprint(fleet.events(), &report),
        Fingerprint {
            events: 3_851_645_938_217_205_875,
            bills: 12_121_279_907_100_363_447,
            counts: (22, 19, 8, 24),
        }
    );
}

/// (c) The same arrivals under the full failure policy (seeded faults,
/// retry/backoff, admission gate, circuit breaker with on-demand fallback).
#[test]
fn faulted_churn_under_the_full_policy() {
    let (requests, service) = faulted_churn_fixture(32, 1.0);
    let fleet = run_fleet_session(&service, &requests);
    for needed in ["FaultInjected", "Failed", "Retried", "DeadLettered"] {
        assert!(
            fleet
                .events()
                .iter()
                .any(|e| format!("{e:?}").starts_with(needed)),
            "the faulted fixture must emit {needed}"
        );
    }
    let report = fleet.report();
    assert_accounts_balance(&report);
    assert_eq!(
        fleet_fingerprint(fleet.events(), &report),
        Fingerprint {
            events: 16_220_571_726_198_174_839,
            bills: 16_201_250_246_344_606_465,
            counts: (27, 21, 0, 0),
        }
    );
}

struct PileUpRouter;

impl ShardRouter for PileUpRouter {
    fn route(&self, _request: &FleetJobRequest, _shards: usize) -> usize {
        0
    }
}

/// (d) A 4-shard fleet with every arrival piled onto shard 0 and the
/// rebalancer on: merged events (shard-tagged) plus the transfer log.
#[test]
fn sharded_churn_with_the_rebalancer() {
    let (requests, service) = churn_fixture(16, 0.5);
    let mut fleet = ShardedFleet::with_router(
        service.catalog().clone(),
        service.pool().clone(),
        service.config().clone(),
        ShardedFleetConfig {
            shards: 4,
            rebalance_period_hours: Some(1.0),
        },
        Box::new(PileUpRouter),
    )
    .unwrap();
    for request in &requests {
        fleet.submit(request.clone()).unwrap();
    }
    fleet.run_to_quiescence();
    assert!(
        !fleet.transfers().is_empty(),
        "the rebalancer must move work"
    );
    let report = fleet.report();
    assert_accounts_balance(&report);
    assert_eq!(
        fingerprint(
            &[
                serde_json::to_string(&fleet.merged_events()).unwrap(),
                serde_json::to_string(&fleet.transfers().to_vec()).unwrap(),
            ],
            &report
        ),
        Fingerprint {
            events: 3_033_937_125_582_330_611,
            bills: 17_133_449_547_745_920_141,
            counts: (12, 12, 0, 0),
        }
    );
}

// ---------------------------------------------------------------------------
// (e) Directed sessions: the paths the churn fixtures do not reach.
// ---------------------------------------------------------------------------

/// The shared storm fixture (one m1.large pool under an explicit hourly
/// price trace) at fleet bid 0.30 against the 0.34 on-demand ceiling.
fn storm_service(prices: Vec<f64>, cap: usize, policy: FailurePolicy) -> ConductorService {
    support::fleet::storm_service(prices, 0.30, cap).with_failure_policy(policy)
}

/// Cheap (0.20) except out-bid (0.50) during `storm`.
fn prices(hours: usize, storm: std::ops::Range<usize>) -> Vec<f64> {
    (0..hours)
        .map(|t| if storm.contains(&t) { 0.50 } else { 0.20 })
        .collect()
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

/// One retry, and a gate that pauses on the first failed outcome — so every
/// abort below is followed by `AdmissionPaused`, a `Retried` arrival, its
/// `Rejected` bounce off the paused gate and the `DeadLettered` close-out.
fn strict_policy(task_failures_at: &[f64]) -> FailurePolicy {
    FailurePolicy {
        fault_plan: Some(FaultPlan {
            events: task_failures_at
                .iter()
                .map(|&at_hours| FaultEvent {
                    at_hours,
                    kind: FaultKind::TaskFailure,
                    salt: 0,
                })
                .collect(),
        }),
        retry: Some(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        }),
        failure_threshold: Some(FailureThreshold {
            window: 2,
            min_samples: 1,
            ..FailureThreshold::default()
        }),
        circuit_breaker: None,
    }
}

fn failure_reasons(fleet: &Fleet) -> Vec<&str> {
    fleet
        .events()
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Failed { reason, .. } => Some(reason.as_str()),
            _ => None,
        })
        .collect()
}

/// Empties every `"heap"` array in a snapshot's JSON, wherever the layout
/// keeps it: the restored session has a live job and nothing scheduled,
/// which is the only way to reach the final-drain stall (a live monitor
/// chain keeps the heap non-empty while anything runs).
fn without_pending_events(snapshot: &FleetSnapshot) -> FleetSnapshot {
    fn strip(v: &mut serde_json::Json) {
        match v {
            serde_json::Json::Object(fields) => {
                for (k, child) in fields.iter_mut() {
                    if k == "heap" {
                        *child = serde_json::Json::Array(Vec::new());
                    } else {
                        strip(child);
                    }
                }
            }
            serde_json::Json::Array(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut v = serde_json::parse(&snapshot.to_json()).unwrap();
    strip(&mut v);
    FleetSnapshot::from_json(&serde_json::to_string(&v).unwrap()).unwrap()
}

/// All four abort causes (stuck, over the hours cap, injected task failure,
/// final-drain stall), each running into the gate, the retry and the
/// dead-letter queue; the breaker's open → half-open → closed walk with an
/// on-demand fallback admission; and both kinds of cancellation.
#[test]
fn directed_abort_causes_breaker_walk_and_cancellations() {
    let mut pins = Vec::new();

    // Stuck: the storm starting at hour 1 never ends, so once the schedule
    // runs out nothing is running and nothing will change.
    let service = storm_service(prices(48, 1..48), 100, strict_policy(&[]));
    let mut fleet = service.open().unwrap();
    fleet.submit(small_request("stuck", 0.0, 6.0)).unwrap();
    fleet.run_to_quiescence();
    assert!(failure_reasons(&fleet)[0].starts_with("job stuck"));
    pins.push(fleet_fingerprint(fleet.events(), &fleet.report()));

    // Over the hours cap: the storm outlasts the 200-hour deployment cap and
    // the recovery-hour wakeup finds the job still processing.
    let service = storm_service(prices(400, 1..230), 100, strict_policy(&[]));
    let mut fleet = service.open().unwrap();
    fleet.submit(small_request("capped", 0.0, 6.0)).unwrap();
    fleet.run_to_quiescence();
    assert!(failure_reasons(&fleet)[0].starts_with("did not finish within"));
    pins.push(fleet_fingerprint(fleet.events(), &fleet.report()));

    // Injected task failure, with a bystander arriving into the paused gate.
    let service = storm_service(prices(48, 0..0), 100, strict_policy(&[1.0]));
    let mut fleet = service.open().unwrap();
    fleet.submit(small_request("faulted", 0.0, 8.0)).unwrap();
    fleet.submit(small_request("bystander", 3.0, 8.0)).unwrap();
    fleet.run_to_quiescence();
    assert!(failure_reasons(&fleet)[0].starts_with("injected fault"));
    pins.push(fleet_fingerprint(fleet.events(), &fleet.report()));

    // Final-drain stall: a running job restored with an empty event heap.
    let service = storm_service(prices(48, 0..0), 100, strict_policy(&[]));
    let mut fleet = service.open().unwrap();
    fleet.submit(small_request("stalled", 0.0, 8.0)).unwrap();
    fleet.step_until(1.0);
    let mut fleet = service
        .restore(&without_pending_events(&fleet.checkpoint()))
        .unwrap();
    fleet.run_to_quiescence();
    assert!(failure_reasons(&fleet)[0].starts_with("job stalled"));
    pins.push(fleet_fingerprint(fleet.events(), &fleet.report()));

    // The breaker walk of `tests/failure_policy.rs`: three strikes open it,
    // `urgent` is admitted on the on-demand fallback tier, probes close it.
    let service = storm_service(
        prices(72, 2..5),
        200,
        FailurePolicy {
            circuit_breaker: Some(CircuitBreakerConfig {
                strike_threshold: 3,
                window_hours: 6.0,
                success_threshold_hours: 2,
                fallback: FallbackTier::OnDemand,
            }),
            ..FailurePolicy::default()
        },
    );
    let mut fleet = service.open().unwrap();
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
    fleet.submit(small_request("urgent", 4.5, 10.5)).unwrap();
    fleet.run_to_quiescence();
    for needed in [
        "BreakerOpened",
        "BreakerHalfOpen",
        "BreakerClosed",
        "FallbackEngaged",
    ] {
        assert!(
            fleet
                .events()
                .iter()
                .any(|e| format!("{e:?}").starts_with(needed)),
            "the breaker session must emit {needed}"
        );
    }
    pins.push(fleet_fingerprint(fleet.events(), &fleet.report()));

    // Cancellations: one before arrival, one mid-run (partial bill kept).
    let service = storm_service(prices(48, 0..0), 100, FailurePolicy::default());
    let mut fleet = service.open().unwrap();
    fleet.submit(small_request("runs", 0.0, 8.0)).unwrap();
    fleet
        .submit(small_request("never-arrives", 5.0, 8.0))
        .unwrap();
    fleet.submit(small_request("cut-short", 0.5, 8.0)).unwrap();
    fleet.step_until(1.5);
    assert!(fleet.cancel(TenantId(1)).unwrap());
    assert!(fleet.cancel(TenantId(2)).unwrap());
    assert!(!fleet.cancel(TenantId(2)).unwrap());
    fleet.run_to_quiescence();
    pins.push(fleet_fingerprint(fleet.events(), &fleet.report()));

    assert_eq!(
        pins,
        vec![
            // stuck
            Fingerprint {
                events: 14_164_729_293_159_247_794,
                bills: 16_780_063_410_245_004_276,
                counts: (1, 0, 0, 0),
            },
            // over the hours cap
            Fingerprint {
                events: 10_997_577_505_303_791_881,
                bills: 16_780_063_410_245_004_276,
                counts: (1, 0, 0, 0),
            },
            // injected task failure
            Fingerprint {
                events: 3_629_299_446_249_055_134,
                bills: 3_591_420_692_637_032_692,
                counts: (1, 0, 0, 0),
            },
            // final-drain stall
            Fingerprint {
                events: 4_254_232_214_753_700_181,
                bills: 1_272_108_939_078_748_788,
                counts: (1, 0, 0, 0),
            },
            // breaker walk
            Fingerprint {
                events: 5_907_483_068_284_412_854,
                bills: 1_430_735_611_443_314_066,
                counts: (2, 2, 0, 0),
            },
            // cancellations
            Fingerprint {
                events: 9_012_941_281_520_712_108,
                bills: 17_034_954_883_168_082_094,
                counts: (2, 1, 0, 0),
            },
        ]
    );
}
