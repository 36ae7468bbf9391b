//! Hostile input to the durable path is a typed error, never an abort.
//!
//! A snapshot or a WAL line is text from disk: a crash, a bad disk or a hand
//! edit can leave anything in it. Each test hands the decoder something a
//! writer never produces — nesting past the parser's bound, integers outside
//! their type, every truncation of a real WAL, every k-th byte of a real WAL
//! and of a real snapshot flipped — and requires an `Err`, or an `Ok` whose
//! restore or replay returns without panicking.

use conductor_bench::experiments::{churn_fixture, faulted_churn_fixture, run_fleet_session};
use conductor_core::{
    ConductorError, ConductorService, Fleet, FleetSnapshot, WalReader, WalWriter,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// A unique temp path per call.
fn temp_wal(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "conductor-codec-hostile-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

/// Writes `bytes` as a WAL file and reads it back.
fn read_wal(tag: &str, bytes: &[u8]) -> Result<conductor_core::WalReadout, ConductorError> {
    let path = temp_wal(tag);
    std::fs::write(&path, bytes).unwrap();
    let readout = WalReader::read(&path);
    std::fs::remove_file(&path).ok();
    readout
}

/// A mid-run session of the faulted fixture: live jobs, pending arrivals
/// and wakeups on the heap.
fn mid_run() -> (ConductorService, Fleet) {
    let (requests, service) = faulted_churn_fixture(6, 1.0);
    let mut fleet = service.open().unwrap();
    for request in &requests {
        fleet.submit(request.clone()).unwrap();
    }
    while fleet.now_hours() < 2.0 && fleet.step_one_batch() {}
    (service, fleet)
}

/// A finished 3-job churn session's WAL text.
fn small_wal() -> (ConductorService, String) {
    let (requests, service) = churn_fixture(3, 1.0);
    let session = run_fleet_session(&service, &requests);
    let path = temp_wal("small");
    let mut wal = WalWriter::create(&path).unwrap();
    wal.log_all(session.events()).unwrap();
    drop(wal);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (service, text)
}

#[test]
fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
    let deep = "[".repeat(200_000);
    assert!(FleetSnapshot::from_json(&deep).is_err());
    // Under a key no field claims, where the decoder has to skip the value.
    let under_unknown_key = format!("{{\"unknown\":{deep}}}");
    let err = FleetSnapshot::from_json(&under_unknown_key).unwrap_err();
    assert!(err.to_string().contains("nesting deeper"), "{err}");

    // Through recovery: before the last line it is corruption, an error;
    // as the last line it is a torn tail, dropped.
    let (_, wal) = small_wal();
    let first = wal.split_inclusive('\n').next().unwrap();
    let hostile = format!("{deep}\n");
    let path = temp_wal("deep");
    std::fs::write(&path, format!("{first}{hostile}{first}")).unwrap();
    assert!(matches!(
        WalReader::recover(&path),
        Err(ConductorError::InvalidInput(_))
    ));
    std::fs::write(&path, format!("{first}{hostile}")).unwrap();
    assert_eq!(WalReader::recover(&path).unwrap().len(), 1);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
    std::fs::remove_file(&path).ok();
}

/// A tenant index that is negative, fractional or beyond `usize`, or a heap
/// class beyond `u8`, is refused by the decoder — not cast to some other
/// index that then passes the cross-reference check.
#[test]
fn integers_outside_their_type_are_refused() {
    let (_, fleet) = mid_run();
    let json = fleet.checkpoint().to_json();
    let key = "\"request_idx\":";
    let start = json.find(key).expect("a running job") + key.len();
    let end = start + json[start..].find([',', '}']).unwrap();
    let refused_by_the_decoder = |tampered: String| {
        let err = FleetSnapshot::from_json(&tampered).unwrap_err();
        assert!(err.to_string().contains("integer in range"), "{err}");
    };
    for bad in ["-1", "2.5", "1e300", "1e2", "\"0\""] {
        refused_by_the_decoder(format!("{}{bad}{}", &json[..start], &json[end..]));
    }
    // The heap's entries are `[hour,class,seq,event]`; a class is a `u8`.
    let heap = json.find("\"heap\":[[").expect("a pending event") + "\"heap\":[[".len();
    let class = heap + json[heap..].find(',').unwrap() + 1;
    let class_end = class + json[class..].find(',').unwrap();
    refused_by_the_decoder(format!("{}300{}", &json[..class], &json[class_end..]));
}

/// Every prefix of a real WAL reads as its committed lines (the rest a torn
/// tail), and every such prefix replays without panicking.
#[test]
fn every_truncation_of_a_wal_reads_and_replays() {
    let (service, wal) = small_wal();
    let mut replayed = std::collections::BTreeSet::new();
    for len in 0..=wal.len() {
        let readout = read_wal("prefix", &wal.as_bytes()[..len]).expect("a prefix reads");
        let committed = len == 0 || wal.as_bytes()[len - 1] == b'\n';
        assert_eq!(readout.torn, !committed);
        if replayed.insert(readout.events.len()) {
            let replay = catch_unwind(AssertUnwindSafe(|| service.replay(&readout.events)));
            assert!(
                replay.is_ok(),
                "replaying {} events panicked",
                readout.events.len()
            );
        }
    }
}

/// Flipping every k-th byte of a real WAL (`^ 0x01` and `^ 0xff`) is an
/// error, or reads to a log that replays without panicking.
#[test]
fn flipped_wal_bytes_are_refused_or_replay() {
    let (service, wal) = small_wal();
    let step = wal.len() / 40;
    for at in (0..wal.len()).step_by(step) {
        for mask in [0x01u8, 0xff] {
            let mut bytes = wal.clone().into_bytes();
            bytes[at] ^= mask;
            let Ok(readout) = read_wal("flip", &bytes) else {
                continue;
            };
            let replay = catch_unwind(AssertUnwindSafe(|| service.replay(&readout.events)));
            assert!(replay.is_ok(), "byte {at} ^ {mask:#04x}: replay panicked");
        }
    }
}

/// Flipping every k-th byte of a real mid-run snapshot is an error, or
/// decodes to a snapshot that restores and steps without panicking.
#[test]
fn flipped_snapshot_bytes_are_refused_or_restore() {
    let (service, fleet) = mid_run();
    let json = fleet.checkpoint().to_json();
    let step = json.len() / 60;
    for at in (0..json.len()).step_by(step) {
        for mask in [0x01u8, 0xff] {
            let mut bytes = json.clone().into_bytes();
            bytes[at] ^= mask;
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            let resumed = catch_unwind(AssertUnwindSafe(|| {
                let snapshot = FleetSnapshot::from_json(&text)?;
                let mut fleet = service.restore(&snapshot)?;
                for _ in 0..20 {
                    fleet.step_one_batch();
                }
                Ok::<_, ConductorError>(())
            }));
            assert!(resumed.is_ok(), "byte {at} ^ {mask:#04x}: restore panicked");
        }
    }
}

/// A snapshot's upload cursor is a number from disk, not an index the
/// kernel handed out: one far past the job's pending splits must restore
/// and step like any other value, never index out of range.
#[test]
fn an_upload_cursor_past_the_pending_splits_restores_and_steps() {
    let (service, fleet) = mid_run();
    let json = fleet.checkpoint().to_json();
    let key = "\"upload_cursor\":";
    let start = json.find(key).expect("an active job") + key.len();
    let end = start + json[start..].find([',', '}']).unwrap();
    let tampered = format!("{}999999{}", &json[..start], &json[end..]);
    let snapshot = FleetSnapshot::from_json(&tampered).expect("a cursor is any usize");
    let mut fleet = service
        .restore(&snapshot)
        .expect("the tampered snapshot restores");
    for _ in 0..200 {
        fleet.step_one_batch();
    }
}
