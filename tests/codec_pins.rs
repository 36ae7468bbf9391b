//! Absolute pins on the JSON codec's bytes.
//!
//! Snapshots, WAL lines and reports are JSON text, and other suites hash that
//! text (`fleet_pins` the event log, `kernel_pins` execution reports and
//! snapshots), so a codec that moves one byte moves their pins for no
//! behavioural reason. These values were taken before the codec's data model
//! changed and verified green there. **Never edit a pinned value** — a
//! mismatch means the codec writes different bytes.
//!
//! What is pinned, on the 32-job faulted churn fixture with the plan cache
//! on and a tailing WAL attached:
//!
//! - FNV-1a and length of `FleetSnapshot::to_json` at three checkpoints
//!   (after the 4th, the 16th and the last arrival), with the two wall-clock
//!   `Duration`s (`solve_time`, `model_build_time`) zeroed in the parsed
//!   tree and the result read by `FleetSnapshot::from_json` and written
//!   again by `to_json` — so the pin runs the typed reader and the typed
//!   writer over every type a snapshot holds;
//! - FNV-1a and length of the session's WAL file;
//! - FNV-1a and length of the catalog's `ServiceDescription`s rendered by
//!   `to_string_pretty`.
//!
//! And one property over the same values: the derived writer agrees with the
//! generic [`serde_json::Json`] renderer, `to_string(x) ==
//! to_string(&parse(&to_string(x)))`.

use conductor_bench::experiments::faulted_churn_fixture;
use conductor_cloud::{Catalog, ServiceDescription};
use conductor_core::{FleetEvent, FleetSnapshot, WalWriter};
use serde_json::Json;
use std::sync::OnceLock;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `(FNV-1a, length in bytes)` of a rendered text.
fn pin(text: &str) -> (u64, usize) {
    (fnv1a(text.as_bytes()), text.len())
}

/// The pinned session: three checkpoints, the event log and the WAL's bytes.
struct Session {
    snapshots: Vec<FleetSnapshot>,
    events: Vec<FleetEvent>,
    wal: String,
}

/// Arrivals (0-based) after whose submission a checkpoint is taken.
const CHECKPOINT_AFTER: [usize; 3] = [3, 15, 31];

fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(|| {
        let (requests, service) = faulted_churn_fixture(32, 1.0);
        let service = service.with_plan_cache(true);
        let path =
            std::env::temp_dir().join(format!("conductor-codec-pins-{}.wal", std::process::id()));
        let mut fleet = service.open().expect("fixture config is valid");
        fleet.attach_wal(WalWriter::create(&path).expect("temp dir is writable"));
        let mut snapshots = Vec::new();
        for (k, request) in requests.iter().enumerate() {
            fleet.step_until(request.arrival_hours);
            fleet
                .submit(request.clone())
                .expect("fixture requests are valid");
            if CHECKPOINT_AFTER.contains(&k) {
                snapshots.push(fleet.checkpoint());
            }
        }
        fleet.run_to_quiescence();
        assert_eq!(fleet.wal_error(), None);
        drop(fleet.detach_wal());
        let wal = std::fs::read_to_string(&path).expect("WAL reads back");
        std::fs::remove_file(&path).ok();
        Session {
            snapshots,
            events: fleet.events().to_vec(),
            wal,
        }
    })
}

/// Sets every `solve_time` / `model_build_time` in the tree to zero.
fn zero_wall_clock(v: &mut Json) {
    match v {
        Json::Object(fields) => {
            for (k, child) in fields.iter_mut() {
                if k == "solve_time" || k == "model_build_time" {
                    *child = Json::Object(vec![
                        ("secs".to_string(), Json::Number(0.0)),
                        ("nanos".to_string(), Json::Number(0.0)),
                    ]);
                } else {
                    zero_wall_clock(child);
                }
            }
        }
        Json::Array(items) => items.iter_mut().for_each(zero_wall_clock),
        _ => {}
    }
}

/// The snapshot's JSON with its wall-clock durations zeroed, read back by
/// the typed decoder and written again by the typed encoder.
fn canonical_snapshot(snapshot: &FleetSnapshot) -> String {
    let mut tree = serde_json::parse(&snapshot.to_json()).unwrap();
    zero_wall_clock(&mut tree);
    let zeroed = serde_json::to_string(&tree).unwrap();
    let rewritten = FleetSnapshot::from_json(&zeroed)
        .expect("a zeroed snapshot decodes")
        .to_json();
    assert_eq!(
        rewritten, zeroed,
        "typed decode → encode is not a fixed point"
    );
    rewritten
}

fn catalog_descriptions() -> Vec<ServiceDescription> {
    let catalog = Catalog::aws_july_2011();
    catalog
        .instances
        .iter()
        .map(ServiceDescription::from_instance)
        .chain(
            catalog
                .storages
                .iter()
                .map(ServiceDescription::from_storage),
        )
        .collect()
}

#[test]
fn snapshot_bytes_are_pinned() {
    let pins: Vec<(u64, usize)> = session()
        .snapshots
        .iter()
        .map(|s| pin(&canonical_snapshot(s)))
        .collect();
    // Solver-state format 0x03. The solver context carries no scratch, so a
    // debug build — which re-derives the carried reduced costs at every use
    // and leaves other duals behind — writes the same bytes as a release
    // build. The admission section carries the solver context and the plan
    // cache, nothing else.
    let expected = [
        (11_939_773_664_365_454_641, 165_021),
        (16_600_951_097_466_413_538, 245_906),
        (14_427_740_440_009_176_473, 290_591),
    ];
    assert_eq!(pins, expected);
}

#[test]
fn tailing_wal_bytes_are_pinned() {
    let session = session();
    let lines: String = session
        .events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    assert_eq!(session.wal, lines, "the WAL is one JSON line per event");
    assert_eq!(pin(&session.wal), (8_974_656_202_112_069_353, 25_138));
}

#[test]
fn service_descriptions_pretty_print_pinned_bytes() {
    let rendered: String = catalog_descriptions()
        .iter()
        .map(ServiceDescription::to_json)
        .collect();
    assert_eq!(pin(&rendered), (1_672_975_811_593_561_781, 1_013));
}

/// `typed` (what the derived writer wrote for a value) is also what the
/// generic `Json` renderer writes for the same value.
fn assert_writers_agree(what: &str, typed: &str) {
    let generic = serde_json::to_string(&serde_json::parse(typed).unwrap()).unwrap();
    assert!(typed == generic, "{what}: the two writers disagree");
}

#[test]
fn derived_writer_agrees_with_the_json_renderer() {
    let session = session();
    for (k, snapshot) in session.snapshots.iter().enumerate() {
        assert_writers_agree(&format!("snapshot {k}"), &snapshot.to_json());
    }
    for (k, event) in session.events.iter().enumerate() {
        assert_writers_agree(
            &format!("event {k}"),
            &serde_json::to_string(event).unwrap(),
        );
    }
    for d in catalog_descriptions() {
        assert_writers_agree(&d.name, &serde_json::to_string(&d).unwrap());
    }
}
