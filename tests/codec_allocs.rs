//! A machine-independent gate on what the JSON codec allocates.
//!
//! Its own test binary, because it installs a counting `#[global_allocator]`
//! and must be the only thread allocating while it counts. The value is the
//! mid checkpoint of `tests/codec_pins.rs` (the 32-job faulted churn session,
//! plan cache on, after its 16th arrival): `FleetSnapshot::to_json` and
//! `FleetSnapshot::from_json` of it, counted separately.
//!
//! Readings (a count, so they repeat exactly, debug or release):
//!
//! | commit                                           | `to_json` | `from_json` |
//! |--------------------------------------------------|----------:|------------:|
//! | parent `5dee8ca`, the codec built a `Json` tree  |    24 826 |      13 301 |
//! | this change, the codec streams text              |        16 |         782 |
//!
//! (The snapshot is about 368.7 kB; its wall-clock durations move its length
//! by a few bytes run to run, never the counts.)
//!
//! What is left on the write side is the output `String` growing; on the read
//! side, the snapshot's own `Vec`s and `String`s. Each bound is the change's
//! reading plus half: it fails the day a tree goes back on the typed path.

use conductor_bench::experiments::faulted_churn_fixture;
use conductor_core::FleetSnapshot;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic that publishes
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same block, layout and size, forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f`.
fn count<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The change's readings, 16 and 782, plus half.
const WRITE_GATE: usize = 24;
const READ_GATE: usize = 1_173;

#[test]
fn the_snapshot_codec_allocates_next_to_nothing() {
    let (requests, service) = faulted_churn_fixture(32, 1.0);
    let mut fleet = service.with_plan_cache(true).open().unwrap();
    for request in &requests[..16] {
        fleet.step_until(request.arrival_hours);
        fleet.submit(request.clone()).unwrap();
    }
    let snapshot = fleet.checkpoint();

    let (json, written) = count(|| snapshot.to_json());
    let (back, read) = count(|| FleetSnapshot::from_json(&json));
    assert_eq!(back.expect("the checkpoint decodes").to_json(), json);
    println!(
        "{} bytes: to_json {written} allocations, from_json {read}",
        json.len()
    );
    assert!(
        written <= WRITE_GATE && read <= READ_GATE,
        "to_json made {written} allocations (gate {WRITE_GATE}), from_json {read} \
         (gate {READ_GATE}); the streaming codec read 16 / 782 when the gates were set"
    );
}
