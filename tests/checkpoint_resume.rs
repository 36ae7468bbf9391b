//! Checkpoint/resume and deterministic replay: the event log and the
//! snapshot are the source of truth.
//!
//! The headline battery proves that suspending a seeded churn session at
//! *every* event-batch boundary — checkpoint, serialize to JSON,
//! deserialize, restore, continue — reproduces the uninterrupted run bit
//! for bit (same event log, same report floats). A second battery proves
//! the persisted event log alone reconstructs the session:
//! `Fleet::replay` re-drives submissions from the log's own payloads and
//! verifies every regenerated event against the log as it goes.
//!
//! Wall-clock planner timings (`solve_time`/`model_build_time`) are the
//! only tolerated difference; everything else — billing floats, event
//! hours, retry/breaker/gate state — must match to the last bit.

mod support;

use conductor_bench::experiments::{churn_fixture, faulted_churn_fixture, run_fleet_session};
use conductor_core::{
    ConductorError, ConductorService, FaultKind, Fleet, FleetEvent, FleetJobRequest, FleetSnapshot,
    Goal, TenantId,
};
use conductor_mapreduce::Workload;
use proptest::prelude::*;
use std::sync::OnceLock;
use support::fleet::canonical_json;

/// Opens a session and submits every request up front (arrivals fire as
/// the clock reaches them). With the submissions done, the rest of the
/// session is pure event-loop work, so *every* remaining suspend point
/// is an event-batch boundary reachable via `step_one_batch`.
fn open_with(service: &ConductorService, requests: &[FleetJobRequest]) -> Fleet {
    let mut fleet = service.open().expect("fixture config is valid");
    for request in requests {
        fleet
            .submit(request.clone())
            .expect("fixture requests are valid");
    }
    fleet
}

/// Round-trips a checkpoint through its JSON codec and restores it — the
/// full suspend/resume path, not an in-memory shortcut.
fn suspend_resume(service: &ConductorService, fleet: &Fleet) -> Fleet {
    let json = fleet.checkpoint().to_json();
    let snapshot = FleetSnapshot::from_json(&json).expect("snapshot JSON round-trips");
    service.restore(&snapshot).expect("snapshot restores")
}

// ---- tentpole: every-boundary resume ---------------------------------

/// Suspend/resume at EVERY event-batch boundary of the seeded faulted
/// churn fixture (storms, injected faults, retries, breaker, admission
/// gate, plan cache all armed) reproduces the uninterrupted run bit for
/// bit.
#[test]
fn every_boundary_resume_reproduces_uninterrupted_run() {
    let (requests, service) = faulted_churn_fixture(8, 1.0);
    let service = service.with_plan_cache(true);

    let mut reference = open_with(&service, &requests);
    reference.run_to_quiescence();

    // Ping-pong: checkpoint → JSON → restore at every boundary, then
    // advance exactly one batch from the *restored* session. Every
    // boundary of the run is crossed by a resumed fleet.
    let mut fleet = open_with(&service, &requests);
    let mut boundaries = 0usize;
    loop {
        fleet = suspend_resume(&service, &fleet);
        if !fleet.step_one_batch() {
            break;
        }
        boundaries += 1;
    }
    fleet.run_to_quiescence();

    assert!(
        boundaries > 50,
        "fixture too small to exercise the battery: {boundaries} boundaries"
    );
    assert_eq!(
        fleet.events(),
        reference.events(),
        "event log diverged after {boundaries} suspend/resume cycles"
    );
    assert_eq!(
        canonical_json(&fleet.report()),
        canonical_json(&reference.report()),
        "report diverged after {boundaries} suspend/resume cycles"
    );
}

/// Resume-then-run-to-completion from a geometric sample of boundaries:
/// unlike the ping-pong above (which resumes at every boundary but only
/// steps one batch between resumes), each sampled run restores once and
/// then finishes uninterrupted — proving a single mid-session checkpoint
/// carries the whole tail.
#[test]
fn sampled_full_tail_resumes_match_reference() {
    let (requests, service) = churn_fixture(8, 1.0);

    let mut reference = open_with(&service, &requests);
    // Collect checkpoints at boundaries 1, 2, 4, 8, … while driving the
    // reference run itself (checkpoint is a pure read).
    let mut checkpoints: Vec<(usize, String)> = Vec::new();
    let mut batches = 0usize;
    let mut next_sample = 1usize;
    while reference.step_one_batch() {
        batches += 1;
        if batches == next_sample {
            checkpoints.push((batches, reference.checkpoint().to_json()));
            next_sample *= 2;
        }
    }
    reference.run_to_quiescence();
    let reference_events = reference.events().to_vec();
    let reference_report = canonical_json(&reference.report());

    assert!(
        checkpoints.len() >= 5,
        "only {} checkpoints",
        checkpoints.len()
    );
    for (boundary, json) in checkpoints {
        assert_resumes_like_reference(
            &service,
            &json,
            &reference_events,
            &reference_report,
            &format!("boundary {boundary}"),
        );
    }
}

/// Restores the checkpoint `json`, finishes it uninterrupted and checks the
/// result against the reference run's event log and canonical report.
fn assert_resumes_like_reference(
    service: &ConductorService,
    json: &str,
    reference_events: &[FleetEvent],
    reference_report: &str,
    from: &str,
) {
    let snapshot = FleetSnapshot::from_json(json).expect("snapshot JSON round-trips");
    let mut resumed = service.restore(&snapshot).expect("snapshot restores");
    while resumed.step_one_batch() {}
    resumed.run_to_quiescence();
    assert_eq!(
        resumed.events(),
        reference_events,
        "event log diverged resuming from {from}"
    );
    assert_eq!(
        canonical_json(&resumed.report()),
        reference_report,
        "report diverged resuming from {from}"
    );
}

/// A snapshot written before executions stopped carrying their step
/// markers and schedule mutation counter still restores: the reader skips
/// the two keys, restore re-derives the markers from the node schedule, and
/// the session resumes bit for bit.
#[test]
fn a_snapshot_with_the_retired_schedule_keys_still_restores() {
    use serde_json::Json;

    // The retired counter's key, spelled in two halves so the source tree
    // keeps no identifier of the code that read it.
    const RETIRED_COUNTER: &str = concat!("schedule", "_epoch");

    fn at(fields: &[(String, Json)], key: &str) -> Option<usize> {
        fields.iter().position(|(k, _)| k == key)
    }
    fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        at(fields, key).map(|i| &fields[i].1)
    }

    /// Re-inserts both keys where the older writer put them into every
    /// execution (the objects holding `running` and `straggler_extensions`);
    /// returns how many it found.
    fn add_retired_keys(v: &mut Json) -> usize {
        match v {
            Json::Object(fields) => {
                let mut found = 0;
                if let (Some(running), Some(stragglers)) =
                    (at(fields, "running"), at(fields, "straggler_extensions"))
                {
                    let steps = field(fields, "options")
                        .and_then(Json::as_object)
                        .and_then(|options| field(options, "node_schedule"))
                        .and_then(Json::as_array)
                        .expect("an execution carries its node schedule");
                    let mut points: Vec<f64> = steps
                        .iter()
                        .map(|s| {
                            s.as_object()
                                .and_then(|s| field(s, "from_hour"))
                                .and_then(Json::as_f64)
                                .expect("a step has an hour")
                        })
                        .collect();
                    points.sort_by(f64::total_cmp);
                    points.dedup();
                    let points = Json::Array(points.into_iter().map(Json::Number).collect());
                    fields.insert(stragglers + 1, (RETIRED_COUNTER.into(), Json::Number(3.0)));
                    fields.insert(running + 1, ("schedule_points".into(), points));
                    found += 1;
                }
                let nested: usize = fields.iter_mut().map(|(_, v)| add_retired_keys(v)).sum();
                found + nested
            }
            Json::Array(items) => items.iter_mut().map(add_retired_keys).sum(),
            _ => 0,
        }
    }

    let (requests, service) = faulted_churn_fixture(6, 1.0);
    let mut reference = open_with(&service, &requests);
    while reference.now_hours() < 2.0 && reference.step_one_batch() {}
    let json = reference.checkpoint().to_json();
    reference.run_to_quiescence();

    let mut older = serde_json::parse(&json).unwrap();
    assert!(add_retired_keys(&mut older) > 0, "no execution was running");
    let older = serde_json::to_string(&older).unwrap();
    let snapshot = FleetSnapshot::from_json(&older).expect("the older format decodes");
    assert_eq!(
        snapshot.to_json(),
        json,
        "the two keys are dropped, nothing else"
    );
    assert_resumes_like_reference(
        &service,
        &older,
        reference.events(),
        &canonical_json(&reference.report()),
        "an older-format snapshot",
    );
}

/// A checkpoint written when task timelines held one sample per task still
/// restores and runs the same: one active job's timeline is expanded back to
/// a sample per task, and the session drains to the same event log, bills
/// and deadline verdicts as the checkpoint as written. Only that job's report
/// timeline differs, and it collapses to the other one.
#[test]
fn a_checkpoint_with_one_timeline_sample_per_task_still_restores() {
    use serde_json::Json;

    /// `(h, k)` after a sample with count `j` becomes `(h, j + 1) … (h, k)`.
    fn per_task(timeline: &[Json]) -> Vec<Json> {
        let mut out = Vec::new();
        let mut done = 0;
        for sample in timeline {
            let pair = sample.as_array().expect("a sample is a pair");
            let (hour, count) = (&pair[0], pair[1].as_f64().expect("a count") as usize);
            for k in done + 1..=count {
                out.push(Json::Array(vec![hour.clone(), Json::Number(k as f64)]));
            }
            done = count;
        }
        out
    }

    /// Expands the first active job whose timeline holds a collapsed run;
    /// returns its request index.
    fn expand_one_timeline(snapshot: &mut Json) -> usize {
        let Json::Object(fields) = snapshot else {
            panic!("a snapshot is an object")
        };
        let (_, Json::Array(active)) = fields.iter_mut().find(|(k, _)| k == "active").unwrap()
        else {
            panic!("`active` is a list")
        };
        for job in active {
            let Json::Array(job) = job else {
                panic!("an active job is a triple")
            };
            let request_idx = match &job[2] {
                Json::Object(info) => info.iter().find(|(k, _)| k == "request_idx"),
                _ => None,
            }
            .and_then(|(_, v)| v.as_f64())
            .expect("a job records its request") as usize;
            let Json::Object(exec) = &mut job[1] else {
                panic!("an execution is an object")
            };
            let (_, Json::Array(timeline)) =
                exec.iter_mut().find(|(k, _)| k == "task_timeline").unwrap()
            else {
                panic!("`task_timeline` is a list")
            };
            let expanded = per_task(timeline);
            if expanded.len() > timeline.len() {
                *timeline = expanded;
                return request_idx;
            }
        }
        panic!("no active job finished two tasks at one hour")
    }

    /// Restores `json`, submits the arrivals after the 16th and drains.
    fn drain(service: &ConductorService, json: &str, rest: &[FleetJobRequest]) -> Fleet {
        let snapshot = FleetSnapshot::from_json(json).expect("the checkpoint decodes");
        let mut fleet = service.restore(&snapshot).expect("the checkpoint restores");
        for request in rest {
            fleet.step_until(request.arrival_hours);
            fleet.submit(request.clone()).unwrap();
        }
        fleet.run_to_quiescence();
        fleet
    }

    let (requests, service) = faulted_churn_fixture(32, 1.0);
    let service = service.with_plan_cache(true);
    let mut fleet = service.open().unwrap();
    for request in &requests[..16] {
        fleet.step_until(request.arrival_hours);
        fleet.submit(request.clone()).unwrap();
    }
    let json = fleet.checkpoint().to_json();
    let mut older = serde_json::parse(&json).unwrap();
    let tenant = expand_one_timeline(&mut older);
    let older = serde_json::to_string(&older).unwrap();

    let current = drain(&service, &json, &requests[16..]);
    let restored = drain(&service, &older, &requests[16..]);
    assert_eq!(restored.events(), current.events(), "event logs differ");
    let (a, b) = (current.report(), restored.report());
    assert_eq!(a.fleet_cost.to_bits(), b.fleet_cost.to_bits());
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        let (Some(ea), Some(eb)) = (&ta.execution, &tb.execution) else {
            assert_eq!(ta.execution.is_some(), tb.execution.is_some());
            continue;
        };
        assert_eq!(
            ea.total_cost.to_bits(),
            eb.total_cost.to_bits(),
            "{}",
            ta.tenant
        );
        assert_eq!(ea.met_deadline, eb.met_deadline, "{}", ta.tenant);
    }

    let expected = a.tenants[tenant]
        .execution
        .as_ref()
        .expect("the job finished");
    let timeline = &b.tenants[tenant]
        .execution
        .as_ref()
        .expect("the job finished")
        .task_timeline;
    assert!(timeline.len() > expected.task_timeline.len());
    assert_eq!(timeline.last().map(|&(_, k)| k), Some(expected.total_tasks));
    assert!(timeline
        .windows(2)
        .all(|p| p[0].0 <= p[1].0 && p[0].1 < p[1].1));
    let mut collapsed: Vec<(f64, usize)> = Vec::new();
    for &(hour, done) in timeline {
        match collapsed.last_mut() {
            Some(last) if last.0.to_bits() == hour.to_bits() => last.1 = done,
            _ => collapsed.push((hour, done)),
        }
    }
    assert_eq!(collapsed, expected.task_timeline);
}

// ---- tentpole: replay from the event log -----------------------------

/// Replays a finished session's log and checks the reconstruction is
/// exact: same events, same canonical report.
fn assert_replay_reproduces(service: &ConductorService, session: &Fleet) {
    let log = session.events();
    let mut replayed = service.replay(log).expect("log replays cleanly");
    // The live session ended quiescent; drain the replayed session's
    // trailing silent batches (events past the last *emission* — e.g.
    // superseded monitor ticks) the same way.
    replayed.run_to_quiescence();
    assert_eq!(replayed.events(), log, "replayed event log diverged");
    assert_eq!(
        canonical_json(&replayed.report()),
        canonical_json(&session.report()),
        "replayed report diverged"
    );
}

/// Replay-from-log equals live execution on the churn fixture (Poisson
/// arrivals, revocation storms, shared cap) driven online — submissions
/// re-driven from the log's own request payloads.
#[test]
fn replay_reproduces_online_churn_session() {
    let (requests, service) = churn_fixture(8, 1.0);
    let session = run_fleet_session(&service, &requests);
    assert_replay_reproduces(&service, &session);
}

/// Replay under the full failure policy: injected faults (salts recorded
/// on the log), retries, dead letters, admission gate, breaker.
#[test]
fn replay_reproduces_faulted_session() {
    let (requests, service) = faulted_churn_fixture(8, 1.0);
    let session = run_fleet_session(&service, &requests);
    assert_replay_reproduces(&service, &session);
}

/// Replay with the admission plan cache on: cache-served admissions
/// (keyed on the log) must reproduce identically from scratch.
#[test]
fn replay_reproduces_plan_cache_session() {
    let (requests, service) = churn_fixture(8, 1.0);
    let service = service.with_plan_cache(true);
    let session = run_fleet_session(&service, &requests);
    assert_replay_reproduces(&service, &session);
}

/// A mid-run cancellation is a client action the log must re-drive (the
/// `Cancelled` entry carries the tenant and hour — nothing else needed).
#[test]
fn replay_reproduces_cancellation() {
    let (requests, service) = churn_fixture(4, 1.0);
    let mut session = service.open().unwrap();
    for request in &requests {
        session.step_until(request.arrival_hours);
        session.submit(request.clone()).unwrap();
    }
    let victim = TenantId(1);
    session.step_until(requests[3].arrival_hours + 0.5);
    session.cancel(victim).unwrap();
    session.run_to_quiescence();
    assert!(session
        .events()
        .iter()
        .any(|e| matches!(e, FleetEvent::Cancelled { tenant, .. } if *tenant == victim)));
    assert_replay_reproduces(&service, &session);
}

/// A tampered log — an event the session would not produce — is detected
/// and named, not silently absorbed.
#[test]
fn replay_rejects_divergent_log() {
    let (requests, service) = churn_fixture(3, 1.0);
    let session = run_fleet_session(&service, &requests);
    let mut log = session.events().to_vec();
    // Falsify a non-client event's hour: replay regenerates the true one
    // and must refuse the log.
    let target = log
        .iter()
        .position(|e| matches!(e, FleetEvent::Admitted { .. }))
        .expect("fixture admits jobs");
    if let FleetEvent::Admitted { at_hours, .. } = &mut log[target] {
        *at_hours += 0.125;
    }
    let err = service.replay(&log).unwrap_err();
    assert!(matches!(err, ConductorError::InvalidInput(_)), "{err}");
    assert!(
        err.to_string().contains("replay diverged"),
        "unhelpful error: {err}"
    );
}

// ---- satellite: enriched event payloads ------------------------------

/// `Submitted` entries carry the full request — byte-identical to what
/// the client submitted, in submission order.
#[test]
fn submitted_events_embed_the_request() {
    let (requests, service) = churn_fixture(4, 1.0);
    let session = run_fleet_session(&service, &requests);
    let submitted: Vec<&FleetJobRequest> = session
        .events()
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Submitted { request, .. } => Some(request),
            _ => None,
        })
        .collect();
    assert_eq!(submitted.len(), requests.len());
    for (logged, original) in submitted.iter().zip(&requests) {
        assert_eq!(*logged, original);
    }
}

/// `FaultInjected` entries carry the fault plan's pre-drawn salt, so the
/// log records the complete victim-selection draw. The canonical faulted
/// fixture's plan is sparse (scaled for 200 jobs), so this pin uses a
/// dense plan aimed at the hours the small fleet is actually running.
#[test]
fn fault_events_carry_plan_salts() {
    use conductor_core::{FailurePolicy, FaultPlan, RetryPolicy};
    let (requests, service) = churn_fixture(4, 0.5);
    let service = service.with_failure_policy(FailurePolicy {
        fault_plan: Some(FaultPlan::seeded(9, 8.0, 6, 3)),
        retry: Some(RetryPolicy::default()),
        failure_threshold: None,
        circuit_breaker: None,
    });
    let session = run_fleet_session(&service, &requests);
    let plan_salts: Vec<u64> = service
        .config()
        .policy
        .fault_plan
        .as_ref()
        .expect("faulted fixture has a plan")
        .events
        .iter()
        .map(|e| e.salt)
        .collect();
    let mut seen = 0usize;
    for event in session.events() {
        if let FleetEvent::FaultInjected { salt, kind, .. } = event {
            assert!(
                plan_salts.contains(salt),
                "logged salt {salt} not in the fault plan"
            );
            assert!(matches!(
                kind,
                FaultKind::TaskFailure | FaultKind::NodeCrash
            ));
            seen += 1;
        }
    }
    assert!(seen > 0, "fixture injected no faults");
}

/// `Admitted` entries record the plan-cache key exactly when the fast
/// path decided: the count of keyed admissions equals the cache's hit
/// counter, and cache-off sessions never key an admission.
#[test]
fn admitted_events_record_cache_keys() {
    let (requests, service) = churn_fixture(8, 1.0);
    let cached = run_fleet_session(&service.clone().with_plan_cache(true), &requests);
    let keyed = cached
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                FleetEvent::Admitted {
                    cache_key: Some(_),
                    ..
                }
            )
        })
        .count();
    assert_eq!(keyed, cached.report().plan_cache_hits);
    assert!(keyed > 0, "fixture produced no cache hits");

    let uncached = run_fleet_session(&service, &requests);
    assert!(uncached.events().iter().all(|e| !matches!(
        e,
        FleetEvent::Admitted {
            cache_key: Some(_),
            ..
        }
    )));
}

// ---- satellite: serde round-trips ------------------------------------

fn sample_request() -> FleetJobRequest {
    FleetJobRequest::new(
        "rt-tenant",
        Workload::KMeansScaled { input_gb: 8 }.spec(),
        Goal::MinimizeCost {
            deadline_hours: 6.5,
        },
        1.25,
    )
    .with_spot_bid(0.285)
}

/// Every `FleetEvent` variant survives the JSON codec bit for bit —
/// including awkward floats (thirds, NaN-adjacent denormals are excluded
/// by submit-time guards, but non-dyadic fractions are everywhere).
#[test]
fn every_fleet_event_variant_roundtrips_through_json() {
    let t = TenantId(3);
    let third = 1.0 / 3.0;
    let events = vec![
        FleetEvent::Submitted {
            tenant: t,
            at_hours: 0.1 + 0.2, // 0.30000000000000004: codec must not round
            arrival_hours: third,
            request: sample_request(),
        },
        FleetEvent::Admitted {
            tenant: t,
            at_hours: third,
            cache_key: None,
        },
        FleetEvent::Planned {
            tenant: t,
            at_hours: third,
            expected_cost: 17.28,
            expected_completion_hours: 5.75,
        },
        FleetEvent::Rejected {
            tenant: t,
            at_hours: 2.0,
            reason: "no feasible plan".into(),
        },
        FleetEvent::Replanned {
            tenant: t,
            at_hours: 3.5,
        },
        FleetEvent::Revoked {
            tenant: t,
            at_hours: 4.0,
            nodes_killed: 12,
        },
        FleetEvent::StragglerExtended {
            tenant: t,
            at_hours: 5.0,
        },
        FleetEvent::Completed {
            tenant: t,
            at_hours: 6.0,
            met_deadline: Some(true),
        },
        FleetEvent::DeadlineMissed {
            tenant: t,
            at_hours: 6.0,
        },
        FleetEvent::Cancelled {
            tenant: t,
            at_hours: 7.0,
        },
        FleetEvent::Failed {
            tenant: t,
            at_hours: 8.0,
            reason: "stalled".into(),
        },
        FleetEvent::FaultInjected {
            tenant: t,
            at_hours: 9.0,
            kind: FaultKind::NodeCrash,
            nodes_killed: 3,
            salt: 0xDEAD_BEEF_CAFE_F00D, // > 2^53: exercises the string path
        },
        FleetEvent::Retried {
            tenant: TenantId(9),
            of: t,
            attempt: 2,
            at_hours: 10.0,
            arrival_hours: 10.5,
        },
        FleetEvent::DeadLettered {
            tenant: TenantId(9),
            at_hours: 11.0,
            attempts: 3,
            reason: "budget exhausted".into(),
        },
        FleetEvent::AdmissionPaused {
            at_hours: 12.0,
            failure_fraction: 2.0 / 3.0,
        },
        FleetEvent::AdmissionResumed {
            at_hours: 13.0,
            failure_fraction: 0.25,
        },
        FleetEvent::BreakerOpened {
            at_hours: 14.0,
            strikes: 4,
        },
        FleetEvent::BreakerHalfOpen { at_hours: 15.0 },
        FleetEvent::BreakerClosed { at_hours: 16.0 },
        FleetEvent::FallbackEngaged {
            tenant: t,
            at_hours: 17.0,
        },
        FleetEvent::MigratedOut {
            tenant: t,
            at_hours: 18.0 + third,
        },
        FleetEvent::MonitorAligned {
            at_hours: 19.0,
            arrival_hours: 19.0 + third,
        },
    ];
    for event in &events {
        let json = serde_json::to_string(event).unwrap();
        let back: FleetEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, event, "variant failed to round-trip: {json}");
        // Round-tripping the rendered text is a fixed point.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}

/// A cache-keyed `Admitted` round-trips (the key is an extra payload
/// struct with a `[u64; 5]` of float bit patterns — worth its own pin).
#[test]
fn cache_keyed_admission_roundtrips() {
    let (requests, service) = churn_fixture(8, 1.0);
    let session = run_fleet_session(&service.with_plan_cache(true), &requests);
    let keyed = session
        .events()
        .iter()
        .find(|e| {
            matches!(
                e,
                FleetEvent::Admitted {
                    cache_key: Some(_),
                    ..
                }
            )
        })
        .expect("fixture produced a cache hit");
    let json = serde_json::to_string(keyed).unwrap();
    let back: FleetEvent = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, keyed);
}

/// A mid-run snapshot (live executions, pending heap, solver context,
/// plan cache, market position) round-trips through JSON to the exact
/// same rendered string — the codec is a bijection on reachable state.
#[test]
fn snapshot_json_roundtrip_is_a_fixed_point() {
    let (requests, service) = faulted_churn_fixture(4, 1.0);
    let service = service.with_plan_cache(true);
    let mut fleet = open_with(&service, &requests);
    for _ in 0..40 {
        if !fleet.step_one_batch() {
            break;
        }
    }
    let json = fleet.checkpoint().to_json();
    let snapshot = FleetSnapshot::from_json(&json).expect("snapshot parses");
    assert_eq!(snapshot.to_json(), json);
}

/// Non-finite floats in positions that feed the event heap are rejected
/// at deserialization with the same `InvalidInput` class as the
/// submit-time guards — a tampered checkpoint cannot smuggle a NaN in.
#[test]
fn snapshot_rejects_non_finite_floats() {
    let (requests, service) = churn_fixture(3, 1.0);
    let fleet = open_with(&service, &requests);
    let json = fleet.checkpoint().to_json();

    // Tamper the first request's arrival hour into a NaN (the vendored
    // codec's non-finite sentinel is a quoted string).
    let requests_at = json.find("\"requests\":").expect("requests field");
    let key = "\"arrival_hours\":";
    let start = json[requests_at..].find(key).expect("arrival field") + requests_at + key.len();
    let end = json[start..].find([',', '}']).expect("value terminator") + start;
    let tampered = format!("{}\"NaN\"{}", &json[..start], &json[end..]);

    let err = FleetSnapshot::from_json(&tampered).unwrap_err();
    assert!(matches!(err, ConductorError::InvalidInput(_)), "{err}");
    assert!(
        err.to_string().contains("non-finite"),
        "unhelpful error: {err}"
    );
}

/// A snapshot whose cross-references do not resolve — an index past the
/// submissions, a process the registry never issued, a request list and an
/// outcome list of different lengths, a pending-arrival count the heap does
/// not back — is refused by `from_json` and `restore` alike. Before the
/// check, each of these restored fine and panicked at the next step.
#[test]
fn snapshot_rejects_dangling_indices() {
    use serde_json::Json;

    /// The first value stored under `key`, depth first.
    fn find<'a>(v: &'a mut Json, key: &str) -> Option<&'a mut Json> {
        match v {
            Json::Object(fields) => {
                if let Some(at) = fields.iter().position(|(k, _)| k == key) {
                    return Some(&mut fields[at].1);
                }
                fields.iter_mut().find_map(|(_, child)| find(child, key))
            }
            Json::Array(items) => items.iter_mut().find_map(|item| find(item, key)),
            _ => None,
        }
    }

    // Mid-run on the faulted fixture: live jobs, pending arrivals, job
    // wakeups on the heap, admitted tenants in `tenant_pids`.
    let (requests, service) = faulted_churn_fixture(6, 1.0);
    let mut fleet = open_with(&service, &requests);
    while fleet.now_hours() < 2.0 && fleet.step_one_batch() {}
    let snapshot = fleet.checkpoint();
    let pristine = serde_json::parse(&snapshot.to_json()).unwrap();
    service
        .restore(&snapshot)
        .expect("the pristine snapshot restores");

    /// Overwrites the first number inside `v` (ids render as nested
    /// one-element arrays: `ProcessId(3)` is `[3]`, `Job(ProcessId(3))` is
    /// `{"Job":[[3]]}`) with one no session ever issued.
    fn dangle(v: &mut Json) {
        match v {
            Json::Number(n) => *n = 1_000_000.0,
            Json::Array(items) => dangle(&mut items[0]),
            other => panic!("no number in {other:?}"),
        }
    }
    type Tamper = fn(&mut Json);
    let tampers: [(&str, Tamper); 8] = [
        ("a running job's request index", |v| {
            dangle(find(find(v, "active").unwrap(), "request_idx").unwrap());
        }),
        ("a running job's process id", |v| {
            dangle(find(v, "active").unwrap());
        }),
        // Maps render as arrays of `[key, value]` pairs.
        ("an admitted tenant's index", |v| {
            dangle(find(v, "tenant_pids").unwrap());
        }),
        ("an admitted tenant's process id", |v| {
            let Json::Array(pairs) = find(v, "tenant_pids").unwrap() else {
                panic!("a map renders as an array");
            };
            let Json::Array(pair) = &mut pairs[0] else {
                panic!("a pair renders as an array");
            };
            dangle(&mut pair[1]);
        }),
        ("a pending arrival's index", |v| {
            dangle(find(find(v, "heap").unwrap(), "Arrival").unwrap());
        }),
        ("a pending wakeup's process id", |v| {
            dangle(find(find(v, "heap").unwrap(), "Job").unwrap());
        }),
        ("the pending-arrival count", |v| {
            dangle(find(v, "arrivals_pending").unwrap());
        }),
        ("the request list's length", |v| {
            let Json::Array(requests) = find(v, "requests").unwrap() else {
                panic!("requests is an array");
            };
            requests.pop();
        }),
    ];
    for (what, tamper) in tampers {
        let mut v = pristine.clone();
        tamper(&mut v);
        let Err(err) = FleetSnapshot::from_json(&serde_json::to_string(&v).unwrap()) else {
            panic!("tampered {what} must be refused");
        };
        assert!(
            matches!(err, ConductorError::InvalidInput(_)),
            "{what}: {err}"
        );
        // Refused by the cross-reference check, not by the JSON decoder.
        let message = err.to_string();
        assert!(
            [
                "out of range",
                "never registered",
                "requests for",
                "arrivals pending"
            ]
            .iter()
            .any(|reason| message.contains(reason)),
            "{what}: {message}"
        );
    }
}

// ---- satellite: WAL integration --------------------------------------

/// End to end through the durable path: events → WAL file → torn tail →
/// recovery → replay of the committed prefix.
#[test]
fn wal_recovery_feeds_replay() {
    use conductor_core::{WalReader, WalWriter};

    let (requests, service) = churn_fixture(4, 1.0);
    let session = run_fleet_session(&service, &requests);

    let path = std::env::temp_dir().join(format!(
        "conductor-ckpt-test-{}-replay.wal",
        std::process::id()
    ));
    let mut wal = WalWriter::create(&path).unwrap();
    wal.log_all(session.events()).unwrap();
    drop(wal);

    // Clean read: full log, replays to the full session.
    let readout = WalReader::read(&path).unwrap();
    assert!(!readout.torn);
    assert_eq!(readout.events, session.events());
    assert_replay_reproduces(&service, &session);

    // Tear the tail mid-entry; recovery keeps the committed prefix, and
    // the prefix replays cleanly (replay regenerates the batch the torn
    // entry belonged to, so the recovered log is a prefix of the result).
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 17]).unwrap();
    let recovered = WalReader::recover(&path).unwrap();
    assert_eq!(recovered.len(), session.events().len() - 1);
    let replayed = service.replay(&recovered).unwrap();
    assert_eq!(&replayed.events()[..recovered.len()], &recovered[..]);
    std::fs::remove_file(&path).ok();
}

// ---- satellite: randomized boundaries on the full-size fixture -------

/// Reference for the 200-job randomized battery: total batch count, the
/// uninterrupted event log and canonical report (computed once).
fn churn_200_reference() -> &'static (usize, Vec<FleetEvent>, String) {
    static REFERENCE: OnceLock<(usize, Vec<FleetEvent>, String)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let (requests, service) = faulted_churn_fixture(200, 1.0);
        let mut fleet = open_with(&service, &requests);
        let mut batches = 0usize;
        while fleet.step_one_batch() {
            batches += 1;
        }
        fleet.run_to_quiescence();
        (
            batches,
            fleet.events().to_vec(),
            canonical_json(&fleet.report()),
        )
    })
}

proptest! {
    // Literal case count on purpose: each case is a full 200-job churn
    // run, so the nightly `PROPTEST_CASES` multiplier (set for the cheap
    // property suites) must not apply. `PROPTEST_SEED` still varies the
    // sampled boundaries run to run.
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Suspend at a random batch boundary of the 200-job faulted churn
    /// fixture, round-trip the checkpoint through JSON, and finish from
    /// the restored session: the final log and report must match the
    /// uninterrupted reference bit for bit.
    #[test]
    #[ignore = "full-size fixture; run with --ignored in release mode"]
    fn faulted_churn_200_jobs_resumes_bitwise_from_random_boundaries(
        fraction in 0.0f64..1.0,
    ) {
        let (total, reference_events, reference_report) = churn_200_reference();
        let boundary = ((*total as f64) * fraction) as usize;

        let (requests, service) = faulted_churn_fixture(200, 1.0);
        let mut fleet = open_with(&service, &requests);
        for _ in 0..boundary {
            prop_assert!(fleet.step_one_batch(), "boundary {boundary} unreachable");
        }
        let json = fleet.checkpoint().to_json();
        let snapshot = FleetSnapshot::from_json(&json).expect("snapshot JSON round-trips");
        let mut resumed = service.restore(&snapshot).expect("snapshot restores");
        drop(fleet);
        while resumed.step_one_batch() {}
        resumed.run_to_quiescence();

        prop_assert_eq!(resumed.events(), &reference_events[..]);
        prop_assert_eq!(&canonical_json(&resumed.report()), reference_report);
    }
}
