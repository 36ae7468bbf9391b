//! A machine-independent gate on what the execution kernel allocates.
//!
//! Its own test binary, because it installs a counting `#[global_allocator]`
//! and must be the only thread allocating while it counts. It runs
//! `Engine::run` on the three `exec_kernel` shapes of the benchmark —
//! KMeansScaled 64, 128 and 256 GB on 50, 100 and 200 m1.large nodes over a
//! 200 Mbit uplink, `max_hours` 2 000, the plan-following scheduler — and
//! counts every heap allocation of each run, construction and report
//! included.
//!
//! Readings (counts, so they repeat exactly; release builds):
//!
//! | commit                                                     | 64 GB, 50 nodes | 128 GB, 100 nodes | 256 GB, 200 nodes | per task           |
//! |------------------------------------------------------------|----------------:|------------------:|------------------:|--------------------|
//! | `95d68b7`, running set and dispatch buckets ordered trees  |             490 |               931 |             1 207 | 0.47 / 0.45 / 0.29 |
//! | running set by sequence, dispatch buckets ascending queues |             193 |               315 |               543 | 0.19 / 0.15 / 0.13 |
//!
//! The runs have 1 040, 2 064 and 4 112 tasks and wake about twice a task.
//! What is left is set-up, not wakeups: 38 allocations build the execution,
//! and the rest are the cluster's nodes and rental sessions, the report and
//! the amortized growth of the running set, the finish heap and the scratch
//! buffers — none per wakeup. `95d68b7`'s trees allocated a node as they
//! grew and freed one as they shrank: 297 more allocations over the 2 051
//! wakeups of the 50-node run.
//!
//! Debug builds count more, because the kernel's debug checks re-derive
//! every index after each wakeup and that allocates: 18 936 / 37 809 /
//! 74 949 at `95d68b7` and 18 639 / 37 193 / 74 285 after. The difference
//! between the two builds is the same on both commits, so each build has
//! its own reading and the same gate: the reading plus one allocation per
//! ten tasks. It fails the day a wakeup allocates again; a change to the
//! debug checks re-takes the debug readings.

use conductor_cloud::catalog::mbps_to_gb_per_hour;
use conductor_cloud::Catalog;
use conductor_mapreduce::{DeploymentOptions, Engine, PlanFollowingScheduler, Workload};
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

/// `(input GB, nodes, release reading, debug reading)` per shape.
const SHAPES: [(u32, usize, usize, usize); 3] = [
    (64, 50, 193, 18_639),
    (128, 100, 315, 37_193),
    (256, 200, 543, 74_285),
];

#[test]
fn a_wakeup_allocates_nothing() {
    let engine = Engine::new(Catalog::aws_july_2011());
    let scheduler = PlanFollowingScheduler::cloud_only_defaults();
    for (gb, nodes, release, debug) in SHAPES {
        let spec = Workload::KMeansScaled { input_gb: gb }.spec();
        let options = DeploymentOptions {
            max_hours: 2_000.0,
            ..DeploymentOptions::new(
                format!("{}-n{nodes}", spec.name),
                mbps_to_gb_per_hour(200.0),
            )
            .with_nodes("m1.large", nodes, 0.0)
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = engine
            .run(&spec, &options, &scheduler)
            .expect("the deployment finishes");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let tasks = report.total_tasks;
        println!(
            "{gb} GB on {nodes} nodes: {allocations} allocations over {tasks} tasks, {:.2} per task",
            allocations as f64 / tasks as f64
        );
        let reading = if cfg!(debug_assertions) {
            debug
        } else {
            release
        };
        assert!(
            allocations <= reading + tasks / 10,
            "{gb} GB on {nodes} nodes allocated {allocations} times over {tasks} tasks; \
             it read {reading} when this gate was set"
        );
    }
}
