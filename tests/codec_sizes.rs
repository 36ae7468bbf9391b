//! Count gates on what reports and checkpoints hold.
//!
//! A job's task timeline is a step function of completed tasks (Figure 12b),
//! kept as one sample per distinct completion hour, so reports and snapshots
//! grow with the hours at which tasks finish, not with the task count. This
//! gate reads three sizes on the 32-job faulted churn fixture with the plan
//! cache on (the session of `tests/codec_pins.rs`):
//!
//! - the task-timeline samples over every execution report of the drained
//!   session;
//! - the bytes of the checkpoint taken after the 16th arrival;
//! - the bytes of the drained session's report.
//!
//! Both texts have their wall-clock durations (`solve_time`,
//! `model_build_time`) removed, so each reading is a count that repeats
//! exactly, debug or release. Readings:
//!
//! | commit                                      | samples | checkpoint B | report B |
//! |---------------------------------------------|--------:|-------------:|---------:|
//! | parent `801347a`, one sample per task       |   4 208 |      243 899 |  155 058 |
//! | this change, one sample per completion hour |   1 928 |      209 155 |  100 604 |
//!
//! Each ceiling is the change's reading: a timeline that goes back to one
//! sample per task, or any other field that starts growing a report or a
//! checkpoint, fails here.

mod support;

use conductor_bench::experiments::faulted_churn_fixture;
use support::fleet::{canonical_json, without_wall_clock};

const SAMPLES_GATE: usize = 1_928;
const CHECKPOINT_BYTES_GATE: usize = 209_155;
const REPORT_BYTES_GATE: usize = 100_604;

#[test]
fn reports_and_checkpoints_hold_one_sample_per_completion_hour() {
    let (requests, service) = faulted_churn_fixture(32, 1.0);
    let mut fleet = service.with_plan_cache(true).open().unwrap();
    let mut checkpoint = None;
    for (k, request) in requests.iter().enumerate() {
        fleet.step_until(request.arrival_hours);
        fleet.submit(request.clone()).unwrap();
        if k == 15 {
            checkpoint = Some(without_wall_clock(&fleet.checkpoint().to_json()));
        }
    }
    fleet.run_to_quiescence();
    let report = fleet.report();
    let samples: usize = report
        .tenants
        .iter()
        .filter_map(|t| t.execution.as_ref())
        .map(|e| e.task_timeline.len())
        .sum();
    let checkpoint_bytes = checkpoint.expect("the fixture has 16 arrivals").len();
    let report_bytes = canonical_json(&report).len();
    println!(
        "{samples} timeline samples, checkpoint {checkpoint_bytes} B, report {report_bytes} B"
    );
    assert!(
        samples <= SAMPLES_GATE,
        "{samples} task-timeline samples (gate {SAMPLES_GATE})"
    );
    assert!(
        checkpoint_bytes <= CHECKPOINT_BYTES_GATE,
        "checkpoint {checkpoint_bytes} B (gate {CHECKPOINT_BYTES_GATE})"
    );
    assert!(
        report_bytes <= REPORT_BYTES_GATE,
        "report {report_bytes} B (gate {REPORT_BYTES_GATE})"
    );
}
