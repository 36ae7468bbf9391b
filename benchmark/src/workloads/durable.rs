//! `churn_durable`: the canonical fleet under the full failure policy, plan
//! cache on, with a tailing WAL and a snapshot after every 8th decided
//! arrival; then the read side: WAL recovery and a restore of every snapshot,
//! the middle one drained to quiescence and compared bit for bit with the
//! live run.
//!
//! The plan cache is on so that the solver leaves room in the pass for what
//! the workload is about: snapshots, restores and the WAL are 4 % of its wall
//! with the cache off and 15 % with it on.
//!
//! The seed sets the phase of the snapshot cadence, not the arrivals: under
//! this policy a third of the request seeds trip the admission gate early,
//! and a paused gate never sees another outcome, so it refuses the rest of
//! the fleet (198 of 207 arrivals at request seed 7000, 200 jobs). A fleet
//! that is refused wholesale measures nothing, so the fleet is held fixed.

use super::fleet_driver::{drive, FleetTotals, Round};
use super::{ratio, Config, Latency, Outcome, Workload};
use crate::fixtures::{
    churn_policy, churn_requests, churn_service, warm_up_requests, DEFAULT_SEED,
};
use crate::stats::median;
use crate::trace::{Tracer, NONE};
use conductor_core::{
    ConductorService, Fleet, FleetEvent, FleetJobRequest, FleetReport, FleetSnapshot, WalReader,
    WalWriter,
};
use serde_json::Json;
use std::path::{Path, PathBuf};

/// A snapshot is taken after every this many decided arrivals.
const SNAPSHOT_EVERY: usize = 8;
/// Fleet hours one step of the resumed fleet's drain advances.
const RESUME_WINDOW_HOURS: f64 = 4.0;

pub struct Durable;

pub struct Fixture {
    requests: Vec<FleetJobRequest>,
    service: ConductorService,
}

/// A fresh session of `service` with a tailing WAL at `wal_path`.
fn open_with_wal(service: &ConductorService, wal_path: &Path) -> Fleet {
    let mut fleet = service.open().expect("faulted churn fleet config is valid");
    fleet.attach_wal(WalWriter::create(wal_path).expect("scratch directory is writable"));
    fleet
}

/// A report as JSON without the wall-clock fields, which differ between a
/// live run and its resumed twin.
fn canonical(report: &FleetReport) -> String {
    fn strip(v: &mut Json) {
        match v {
            Json::Object(fields) => {
                fields.retain(|(k, _)| k != "solve_time" && k != "model_build_time");
                fields.iter_mut().for_each(|(_, child)| strip(child));
            }
            Json::Array(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let rendered = serde_json::to_string(report).expect("fleet report serializes");
    let mut v = serde_json::parse(&rendered).expect("rendered report parses");
    strip(&mut v);
    serde_json::to_string(&v).expect("stripped report serializes")
}

#[derive(Default)]
struct SnapshotTimes {
    checkpoint_ms: Vec<f64>,
    to_json_ms: Vec<f64>,
    persist_ms: Vec<f64>,
    bytes: Vec<f64>,
    from_json_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    paths: Vec<PathBuf>,
}

impl SnapshotTimes {
    /// `checkpoint -> to_json -> write`, the write side of one snapshot.
    fn persist(&mut self, tracer: &mut Tracer, fleet: &Fleet, dir: &Path, out: &mut Vec<String>) {
        let whole = tracer.begin();
        let call = tracer.begin();
        let snapshot = fleet.checkpoint();
        self.checkpoint_ms
            .push(tracer.end(call, "fleet.checkpoint", NONE).millis());
        let call = tracer.begin();
        let json = snapshot.to_json();
        self.to_json_ms
            .push(tracer.end(call, "fleet.to_json", NONE).millis());
        let path = dir.join(format!("snapshot-{:03}.json", self.paths.len()));
        let call = tracer.begin();
        let written = std::fs::write(&path, &json);
        tracer.end(call, "harness.snapshot_write", NONE);
        if let Err(e) = written {
            out.push(format!("writing {}: {e}", path.display()));
        }
        self.bytes.push(json.len() as f64);
        self.paths.push(path);
        self.persist_ms
            .push(tracer.end(whole, "harness.persist", NONE).millis());
    }

    /// `read -> from_json -> restore`, the read side of one snapshot.
    fn resume(
        &mut self,
        tracer: &mut Tracer,
        service: &ConductorService,
        path: &Path,
    ) -> Result<Fleet, String> {
        let whole = tracer.begin();
        let call = tracer.begin();
        let text = std::fs::read_to_string(path);
        tracer.end(call, "harness.snapshot_read", NONE);
        let fleet = text.map_err(|e| e.to_string()).and_then(|text| {
            let call = tracer.begin();
            let snapshot = FleetSnapshot::from_json(&text);
            self.from_json_ms
                .push(tracer.end(call, "fleet.from_json", NONE).millis());
            let snapshot = snapshot.map_err(|e| e.to_string())?;
            let call = tracer.begin();
            let fleet = service.restore(&snapshot);
            self.restore_ms
                .push(tracer.end(call, "fleet.restore", NONE).millis());
            fleet.map_err(|e| e.to_string())
        });
        self.resume_ms
            .push(tracer.end(whole, "harness.resume", NONE).millis());
        fleet.map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The churn service under the full failure policy, plan cache on.
fn durable_service(requests: &[FleetJobRequest]) -> ConductorService {
    churn_service(requests)
        .with_plan_cache(true)
        .with_failure_policy(churn_policy(requests))
}

impl Workload for Durable {
    type Fixture = Fixture;

    fn setup(cfg: &Config) -> Fixture {
        let warm_up = warm_up_requests();
        durable_service(&warm_up)
            .run(&warm_up)
            .expect("warm-up fleet config is valid");
        let requests = churn_requests(DEFAULT_SEED, cfg.fleet_jobs());
        let service = durable_service(&requests);
        open_with_wal(&service, &cfg.scratch.join("session.wal"));
        Fixture { requests, service }
    }

    fn pass(fixture: &mut Fixture, cfg: &Config, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::new();
        let Fixture { requests, service } = &*fixture;
        let wal_path = cfg.scratch.join("session.wal");
        let mut fleet = open_with_wal(service, &wal_path);

        let mut totals = FleetTotals::default();
        let mut snaps = SnapshotTimes::default();
        let mut io_errors: Vec<String> = Vec::new();
        let open = tracer.open_workload();

        // Write side: the live run, tailing WAL attached, snapshotting as it goes.
        let round = Round {
            label: "fleet0",
            requests,
            faulted: true,
        };
        let mut next_snapshot = SNAPSHOT_EVERY - (cfg.seed % SNAPSHOT_EVERY as u64) as usize;
        let live = drive(
            tracer,
            &mut fleet,
            &round,
            &mut totals,
            &mut out,
            |tracer, fleet, decided| {
                if decided >= next_snapshot {
                    next_snapshot += SNAPSHOT_EVERY;
                    snaps.persist(tracer, fleet, &cfg.scratch, &mut io_errors);
                }
            },
        );
        if let Some(e) = fleet.wal_error() {
            io_errors.push(format!("tailing WAL detached: {e}"));
        }
        drop(fleet.detach_wal());

        // Read side: recover the WAL, then resume from every snapshot.
        let call = tracer.begin();
        let recovered = WalReader::recover(&wal_path);
        let recover_ms = tracer.end(call, "wal.recover", NONE).millis();
        match recovered {
            Ok(events) => out.check(events == fleet.events(), || {
                format!(
                    "WAL holds {} events, the session emitted {}",
                    events.len(),
                    fleet.events().len()
                )
            }),
            Err(e) => io_errors.push(format!("WAL recovery: {e}")),
        }
        let live_report = canonical(&live);
        let middle = snaps.paths.len() / 2;
        for (k, path) in snaps.paths.clone().iter().enumerate() {
            let mut resumed = match snaps.resume(tracer, service, path) {
                Ok(fleet) => fleet,
                Err(e) => {
                    io_errors.push(e);
                    continue;
                }
            };
            if k == middle {
                // Window by window while arrivals remain (steps short enough
                // to compare between passes), then to quiescence.
                let last_arrival = requests.last().map_or(0.0, |r| r.arrival_hours);
                let (mut drain_s, mut hours) = (0.0, resumed.now_hours());
                while hours < last_arrival {
                    hours += RESUME_WINDOW_HOURS;
                    let call = tracer.begin();
                    resumed.step_until(hours);
                    drain_s += tracer.end(call, "fleet.resume_drain", NONE).seconds();
                }
                let call = tracer.begin();
                resumed.run_to_quiescence();
                drain_s += tracer.end(call, "fleet.resume_drain", NONE).seconds();
                out.set("fleet.resume_drain_s", drain_s);
                out.check(resumed.events() == fleet.events(), || {
                    format!("snapshot {k}: resumed event log differs from the live run")
                });
                out.check(canonical(&resumed.report()) == live_report, || {
                    format!("snapshot {k}: resumed report differs from the live run")
                });
            }
        }
        out.raw_wall_s = tracer.close_workload(open).seconds();
        for e in io_errors {
            out.violation(e);
        }

        out.ops = requests.len();
        out.attempted = requests.len();
        totals.publish(&mut out);
        out.samples = std::mem::take(&mut totals.admission_steps);

        let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
        out.set("fleet.checkpoint_ms", p50(&snaps.checkpoint_ms));
        out.set("fleet.to_json_ms", p50(&snaps.to_json_ms));
        out.set("fleet.from_json_ms", p50(&snaps.from_json_ms));
        out.set("fleet.restore_ms", p50(&snaps.restore_ms));
        out.set("fleet.persist_ms_p50", p50(&snaps.persist_ms));
        out.set("fleet.resume_ms_p50", p50(&snaps.resume_ms));
        out.set("fleet.snapshots", snaps.paths.len() as f64);
        out.set("fleet.snapshot_bytes_p50", p50(&snaps.bytes));
        out.set(
            "fleet.snapshot_bytes_max",
            snaps.bytes.iter().copied().fold(0.0, f64::max),
        );
        out.count("fleet.snapshots", snaps.paths.len() as u64);

        let events = fleet.events();
        let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
        out.set("wal.events", events.len() as f64);
        out.set(
            "wal.bytes_per_event",
            ratio(wal_bytes as f64, events.len() as f64),
        );
        out.set("wal.recover_ms", recover_ms);
        out.count("wal.bytes", wal_bytes);

        let emitted = |pick: fn(&FleetEvent) -> bool| events.iter().filter(|e| pick(e)).count();
        let faults = emitted(|e| matches!(e, FleetEvent::FaultInjected { .. }));
        let pauses = emitted(|e| matches!(e, FleetEvent::AdmissionPaused { .. }));
        out.set("policy.faults_injected", faults as f64);
        out.set("policy.retries", live.retries as f64);
        out.set("policy.dead_lettered", live.dead_lettered as f64);
        out.set("policy.admission_pauses", pauses as f64);
        out.set("policy.breaker_open_hours", live.breaker_open_hours);
        out.count("policy.faults_injected", faults as u64);
        out.count("policy.retries", live.retries as u64);
        out.count("policy.dead_lettered", live.dead_lettered as u64);

        if tracer.enabled() {
            // Outside the timed section: append the finished log to a fresh file.
            let path = cfg.scratch.join("append.wal");
            let open = tracer.begin();
            let appended = WalWriter::create(&path).and_then(|mut wal| {
                let call = tracer.begin();
                let logged = wal.log_all(events);
                let timed = tracer.end(call, "wal.log_all", NONE);
                logged.map(|()| timed.seconds())
            });
            tracer.end(open, "harness.extras", NONE);
            match appended {
                Ok(s) => out.set(
                    "wal.append_us_per_event",
                    ratio(s * 1e6, events.len() as f64),
                ),
                Err(e) => out.violation(format!("WAL append: {e}")),
            }
        }
        out
    }

    fn latency(samples_ms: &[f64]) -> Latency {
        Latency::percentiles(samples_ms, "deciding batches")
    }
}
