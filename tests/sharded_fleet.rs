//! The sharded fleet runtime end to end: N=1/N=4 equivalence with the
//! rebalancer off, bitwise reproducibility with it on (including across a
//! mid-run checkpoint/resume of one shard), cross-shard transfer
//! bookkeeping, WAL tailing, and per-tenant retry-policy overrides.

mod support;

use conductor_bench::experiments::{churn_fixture, churn_requests, run_sharded_session};
use conductor_cloud::{Catalog, SpotMarket, SpotTrace};
use conductor_core::policy::FaultEvent;
use conductor_core::{
    ConductorService, FailurePolicy, FaultKind, FaultPlan, FleetEvent, FleetJobRequest,
    FleetSnapshot, Goal, OutcomeClass, ResourcePool, RetryPolicy, ShardedFleetConfig, TenantId,
    WalReader, WalWriter,
};
use conductor_mapreduce::Workload;
use std::sync::atomic::{AtomicU64, Ordering};
use support::fleet::{canonical_json, fast_options};

/// An *uncontended* service: the m1.large pool is left uncapped, so a
/// shard slice has the same (unbounded) capacity as the whole pool and
/// admission decisions cannot depend on which shard a tenant landed on —
/// the precondition for N=1 ≡ N=4 semantics. The spot market stays: its
/// revocation sweeps are scheduled identically on every shard clock and
/// kill nodes per *job* (by that job's bid), so they are N-invariant too.
fn uncontended_service(trace_hours: usize) -> ConductorService {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    ConductorService::new(catalog, pool)
        .with_solve_options(fast_options())
        .with_spot_market(SpotMarket::new(SpotTrace::aws_like(17, trace_hours), 0.34))
        .with_spot_bid(0.30)
}

fn plain_service(cap: usize) -> ConductorService {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0)
        .with_compute_only(&["m1.large"])
        .with_compute_cap("m1.large", cap);
    ConductorService::new(catalog, pool).with_solve_options(fast_options())
}

/// [`canonical_json`] with the `plan` and `planning` payloads removed as
/// well. Branch & bound under a relative gap may certify *different
/// equally-priced* plans depending on the warm-start history of the
/// solver context that ran the solve — and a shard's context sees only
/// its own tenants' solves, so its history differs from the unsharded
/// fleet's. What sharding must preserve bit for bit is the fleet
/// *semantics*: admissions, rejections, executions (node schedules, task
/// timelines), bills, retry chains and event hours — everything else in
/// the report.
fn canonical_semantics_json(report: &conductor_core::FleetReport) -> String {
    fn strip(v: &mut serde_json::Json) {
        match v {
            serde_json::Json::Object(fields) => {
                fields.retain(|(k, _)| k != "plan" && k != "planning");
                for (_, child) in fields.iter_mut() {
                    strip(child);
                }
            }
            serde_json::Json::Array(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let rendered = serde_json::to_string(report).unwrap();
    let mut v = serde_json::parse(&rendered).unwrap();
    strip(&mut v);
    serde_json::to_string(&v).unwrap()
}

fn temp_wal(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "conductor-sharded-{tag}-{}-{n}.wal",
        std::process::id()
    ))
}

// ---------------------------------------------------------------------------
// N=1 vs N=4 equivalence (rebalancer off).
// ---------------------------------------------------------------------------

/// With the rebalancer off and an uncontended pool, sharding is pure
/// bookkeeping: the same seeded churn workload produces the identical
/// merged report at N=1 and N=4 — same per-tenant outcomes, same bills,
/// bit for bit.
#[test]
fn n1_and_n4_merged_reports_match_without_rebalancer() {
    let requests = churn_requests(20_260_729, 12, 0.5);
    let horizon = requests.last().unwrap().arrival_hours + 200.0;
    let service = uncontended_service(horizon.ceil() as usize);

    let one = run_sharded_session(&service, 1, None, &requests);
    let four = run_sharded_session(&service, 4, None, &requests);

    let report_one = one.report();
    let report_four = four.report();
    assert_eq!(report_one.tenants.len(), requests.len());
    assert_eq!(
        canonical_semantics_json(&report_one),
        canonical_semantics_json(&report_four)
    );
    assert!(
        (one.fleet_bill() - four.fleet_bill()).abs() < 1e-9,
        "bills diverged: {} vs {}",
        one.fleet_bill(),
        four.fleet_bill()
    );
    assert!(four.transfers().is_empty(), "rebalancer was off");

    // The four-shard run actually spread the tenants.
    let used: std::collections::BTreeSet<usize> = (0..requests.len())
        .filter_map(|i| four.shard_of(TenantId(i)))
        .collect();
    assert!(used.len() > 1, "hash router left every tenant on one shard");
}

// ---------------------------------------------------------------------------
// Rebalancer determinism.
// ---------------------------------------------------------------------------

/// A deliberately terrible placement policy: every tenant lands on shard
/// 0. (The default FNV router spreads the `tenant-NNN` fixture names
/// perfectly evenly — 4/4/4/4 at 16 jobs — which never builds the depth
/// spread the rebalancer reacts to.) With this router the rebalancer has
/// to do all the spreading itself, which is exactly what these tests
/// want to observe.
struct PileUpRouter;

impl conductor_core::ShardRouter for PileUpRouter {
    fn route(&self, _request: &FleetJobRequest, _shards: usize) -> usize {
        0
    }
}

/// Batch-style submission (every arrival pending up front) over the
/// capped churn service, with every tenant piled onto shard 0, so
/// per-shard queue depths differ maximally and the rebalancer has real
/// work. The run must be bitwise-reproducible: identical merged reports,
/// transfer logs and merged event streams across repeats — parallel
/// stepping included.
fn rebalanced_run(jobs: usize) -> conductor_core::ShardedFleet {
    let (requests, service) = churn_fixture(jobs, 0.5);
    let mut fleet = conductor_core::ShardedFleet::with_router(
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
    fleet
}

#[test]
fn rebalanced_runs_are_bitwise_identical() {
    let a = rebalanced_run(16);
    let b = rebalanced_run(16);

    assert!(
        !a.transfers().is_empty(),
        "fixture imbalance should trigger at least one migration"
    );
    assert_eq!(a.transfers(), b.transfers());
    assert_eq!(canonical_json(&a.report()), canonical_json(&b.report()));
    assert_eq!(a.merged_events(), b.merged_events());
    assert_eq!(a.fleet_bill().to_bits(), b.fleet_bill().to_bits());
}

#[test]
fn transfers_update_placement_and_keep_global_ids_valid() {
    let fleet = rebalanced_run(16);
    // Submission order is the global id order, and churn tenants have
    // unique names — map names back to globals.
    let requests = churn_requests(20_260_729, 16, 0.5);
    for transfer in fleet.transfers() {
        assert_ne!(transfer.from_shard, transfer.to_shard);
        assert_eq!(transfer.billed_so_far, 0.0, "queued jobs have no spend");
        let global = requests
            .iter()
            .position(|r| r.tenant == transfer.tenant)
            .expect("transferred tenant came from the fixture");
        // The global id still resolves after the migration …
        assert!(fleet.status(TenantId(global)).is_some());
        // … and the source shard logged the departure.
        let source_events = fleet.shard(transfer.from_shard).unwrap().events();
        assert!(source_events
            .iter()
            .any(|e| matches!(e, FleetEvent::MigratedOut { .. })));
    }
    // The final placement agrees with the tenant's *last* transfer
    // (earlier ones may be superseded by later migrations).
    if let Some(transfer) = fleet.transfers().last() {
        let global = requests
            .iter()
            .position(|r| r.tenant == transfer.tenant)
            .unwrap();
        assert_eq!(fleet.shard_of(TenantId(global)), Some(transfer.to_shard));
    }
    // Every tenant landed somewhere and the merged report covers all of
    // them exactly once per attempt chain.
    let report = fleet.report();
    let originals = report.tenants.iter().filter(|t| t.attempt == 0).count();
    assert_eq!(
        originals, 16,
        "each tenant appears exactly once at attempt 0"
    );
}

// ---------------------------------------------------------------------------
// Mid-run checkpoint/resume of one shard.
// ---------------------------------------------------------------------------

#[test]
fn mid_run_shard_checkpoint_resume_is_bitwise_identical() {
    let (requests, service) = churn_fixture(12, 0.5);
    let drive = |resume: bool| {
        let mut fleet = conductor_core::ShardedFleet::with_router(
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
        fleet.step_until(2.5);
        if resume {
            // Suspend shard 1 through the full JSON codec and swap the
            // restored instance in, mid-run. The rest of the fleet keeps
            // its live state.
            let snapshot = fleet.checkpoint_shard(1).unwrap();
            let snapshot = FleetSnapshot::from_json(&snapshot.to_json()).unwrap();
            fleet.restore_shard(1, &snapshot).unwrap();
        }
        fleet.run_to_quiescence();
        fleet
    };

    let straight = drive(false);
    let resumed = drive(true);
    assert_eq!(
        canonical_json(&straight.report()),
        canonical_json(&resumed.report())
    );
    assert_eq!(straight.transfers(), resumed.transfers());
    assert_eq!(straight.merged_events(), resumed.merged_events());
}

// ---------------------------------------------------------------------------
// Merged event stream ordering.
// ---------------------------------------------------------------------------

#[test]
fn merged_events_are_ordered_by_time_then_shard() {
    let fleet = rebalanced_run(12);
    let merged = fleet.merged_events();
    assert!(!merged.is_empty());
    for w in merged.windows(2) {
        let (s0, e0) = &w[0];
        let (s1, e1) = &w[1];
        assert!(
            e0.at_hours() < e1.at_hours() || (e0.at_hours() == e1.at_hours() && s0 <= s1),
            "merged stream out of order: ({s0}, {}) then ({s1}, {})",
            e0.at_hours(),
            e1.at_hours()
        );
    }
    // Nothing was lost in the merge.
    let per_shard: usize = (0..fleet.shard_count())
        .map(|s| fleet.shard(s).unwrap().events().len())
        .sum();
    assert_eq!(merged.len(), per_shard);
}

// ---------------------------------------------------------------------------
// WAL tailing.
// ---------------------------------------------------------------------------

#[test]
fn wal_tails_events_as_they_are_emitted() {
    let path = temp_wal("tail");
    let service = plain_service(200);
    let mut fleet = service.open().unwrap();
    fleet.attach_wal(WalWriter::create(&path).unwrap());
    fleet
        .submit(FleetJobRequest::new(
            "tailed",
            Workload::KMeansScaled { input_gb: 8 }.spec(),
            Goal::MinimizeCost {
                deadline_hours: 8.0,
            },
            0.0,
        ))
        .unwrap();
    fleet.step_until(0.5);

    // Mid-run — before quiescence — the log already holds every emitted
    // event: tailing, not a post-hoc dump.
    let mid = WalReader::read(&path).unwrap();
    assert!(!mid.torn);
    assert!(!mid.events.is_empty());
    assert_eq!(mid.events.as_slice(), fleet.events());

    fleet.run_to_quiescence();
    let done = WalReader::read(&path).unwrap();
    assert!(!done.torn);
    assert_eq!(done.events.as_slice(), fleet.events());
    assert!(fleet.wal_error().is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn tailed_wal_keeps_the_torn_tail_recovery_contract() {
    let path = temp_wal("torn");
    let service = plain_service(200);
    let mut fleet = service.open().unwrap();
    fleet.attach_wal(WalWriter::create(&path).unwrap());
    fleet
        .submit(FleetJobRequest::new(
            "torn",
            Workload::KMeansScaled { input_gb: 8 }.spec(),
            Goal::MinimizeCost {
                deadline_hours: 8.0,
            },
            0.0,
        ))
        .unwrap();
    fleet.run_to_quiescence();
    let committed = fleet.events().len();

    // Simulate a crash mid-append: trailing bytes with no newline.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"{\"Completed\":{\"tenant\":9,\"at_ho")
        .unwrap();
    drop(f);

    let readout = WalReader::read(&path).unwrap();
    assert!(readout.torn);
    assert_eq!(readout.events.len(), committed);

    let recovered = WalReader::recover(&path).unwrap();
    assert_eq!(recovered.len(), committed);
    let clean = WalReader::read(&path).unwrap();
    assert!(!clean.torn, "recover truncates the torn tail");
    assert_eq!(clean.events.as_slice(), fleet.events());
    std::fs::remove_file(&path).ok();
}

#[test]
fn each_shard_tails_its_own_wal() {
    let requests = churn_requests(20_260_729, 8, 0.5);
    let horizon = requests.last().unwrap().arrival_hours + 200.0;
    let service = uncontended_service(horizon.ceil() as usize);
    let mut fleet = service
        .open_sharded(ShardedFleetConfig {
            shards: 2,
            rebalance_period_hours: None,
        })
        .unwrap();
    let paths: Vec<_> = (0..2).map(|s| temp_wal(&format!("shard{s}"))).collect();
    for (s, path) in paths.iter().enumerate() {
        fleet
            .attach_wal(s, WalWriter::create(path).unwrap())
            .unwrap();
    }
    for request in &requests {
        fleet.step_until(request.arrival_hours);
        fleet.submit(request.clone()).unwrap();
    }
    fleet.run_to_quiescence();

    for (s, path) in paths.iter().enumerate() {
        let readout = WalReader::read(path).unwrap();
        assert!(!readout.torn);
        assert_eq!(
            readout.events.as_slice(),
            fleet.shard(s).unwrap().events(),
            "shard {s} log must hold exactly its own events"
        );
        assert!(fleet.shard(s).unwrap().wal_error().is_none());
        std::fs::remove_file(path).ok();
    }
}

// ---------------------------------------------------------------------------
// Per-tenant retry-policy overrides.
// ---------------------------------------------------------------------------

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

fn faulted_request(tenant: &str) -> FleetJobRequest {
    FleetJobRequest::new(
        tenant,
        Workload::KMeansScaled { input_gb: 8 }.spec(),
        Goal::MinimizeCost {
            deadline_hours: 8.0,
        },
        0.0,
    )
}

/// The fleet has *no* retry policy, but the tenant carries one: its
/// faulted attempt retries on the override's budget and completes, where
/// an override-free tenant on the same fleet just fails.
#[test]
fn retry_override_grants_retries_the_fleet_policy_lacks() {
    let svc = plain_service(200).with_failure_policy(FailurePolicy {
        fault_plan: Some(task_failures_at(&[1.0])),
        retry: None,
        ..FailurePolicy::default()
    });

    // Control: no override, no retry — the fault is terminal.
    let mut control = svc.open().unwrap();
    control.submit(faulted_request("control")).unwrap();
    control.run_to_quiescence();
    let report = control.report();
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.retries, 0);
    assert_eq!(report.tenants[0].outcome_class(), OutcomeClass::Failed);

    // Override: the tenant brings its own budget and recovers.
    let mut fleet = svc.open().unwrap();
    fleet
        .submit(faulted_request("resilient").with_retry_policy(RetryPolicy::default()))
        .unwrap();
    fleet.run_to_quiescence();
    let report = fleet.report();
    assert_eq!(report.tenants.len(), 2, "original + one retry");
    assert_eq!(report.retries, 1);
    assert_eq!(report.tenants[0].outcome_class(), OutcomeClass::Failed);
    assert_eq!(report.tenants[1].outcome_class(), OutcomeClass::Completed);
    // The retry inherited the override (the cloned request carries it).
    assert!(fleet
        .events()
        .iter()
        .any(|e| matches!(e, FleetEvent::Retried { attempt: 1, .. })));
}

/// The mirror image: the fleet retries generously, but the tenant pins
/// `max_retries: 0` — its first failure exhausts the (empty) budget and
/// dead-letters immediately, while a default tenant on the same faulted
/// fleet would have retried.
#[test]
fn retry_override_can_exhaust_straight_into_the_dead_letter_queue() {
    let svc = plain_service(200).with_failure_policy(FailurePolicy {
        fault_plan: Some(task_failures_at(&[1.0])),
        retry: Some(RetryPolicy::default()),
        ..FailurePolicy::default()
    });

    let mut fleet = svc.open().unwrap();
    fleet
        .submit(faulted_request("pinned").with_retry_policy(RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }))
        .unwrap();
    fleet.run_to_quiescence();
    let report = fleet.report();
    assert_eq!(report.tenants.len(), 1, "no retry attempts were issued");
    assert_eq!(report.retries, 0);
    assert_eq!(report.dead_lettered, 1);
    assert_eq!(fleet.dead_letters().len(), 1);
    assert_eq!(fleet.dead_letters()[0].attempts, 1);
    assert_eq!(fleet.dead_letters()[0].tenant_name, "pinned");

    // Same fleet, no override: the fleet-wide policy retries and the
    // second attempt completes fault-free.
    let mut default_fleet = svc.open().unwrap();
    default_fleet.submit(faulted_request("default")).unwrap();
    default_fleet.run_to_quiescence();
    let report = default_fleet.report();
    assert_eq!(report.retries, 1);
    assert_eq!(report.dead_lettered, 0);
    assert_eq!(report.tenants[1].outcome_class(), OutcomeClass::Completed);
}

/// Overrides exhaust into the DLQ on their *own* budget: one retry, two
/// faults — the chain dies at attempt 1 where the fleet default (two
/// retries) would have survived.
#[test]
fn retry_override_budget_bounds_the_chain() {
    let svc = plain_service(200).with_failure_policy(FailurePolicy {
        fault_plan: Some(task_failures_at(&[1.0, 2.5, 4.5])),
        retry: None,
        ..FailurePolicy::default()
    });
    let mut fleet = svc.open().unwrap();
    fleet
        .submit(faulted_request("bounded").with_retry_policy(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        }))
        .unwrap();
    fleet.run_to_quiescence();
    let report = fleet.report();
    assert_eq!(report.tenants.len(), 2, "original + exactly one retry");
    assert_eq!(report.retries, 1);
    assert_eq!(report.dead_lettered, 1);
    assert_eq!(fleet.dead_letters()[0].attempts, 2);
}

/// Invalid overrides are rejected at submit time, before any state
/// changes.
#[test]
fn invalid_retry_override_is_rejected_at_submit() {
    let svc = plain_service(200);
    let mut fleet = svc.open().unwrap();
    let bad = faulted_request("bad").with_retry_policy(RetryPolicy {
        backoff_factor: 0.5, // < 1 shrinks the backoff: rejected
        ..RetryPolicy::default()
    });
    assert!(fleet.submit(bad).is_err());
    assert!(fleet.events().is_empty(), "nothing was recorded");
}
