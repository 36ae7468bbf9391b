//! Bit-for-bit pins on the execution kernel.
//!
//! Every hash below was taken on the commit *before* the kernel stopped
//! scanning (no idle-node index, linear node lookups, a fold over every
//! split in `next_event_hours`), and must never be edited to make a kernel
//! change pass: indexes and lookups are pure accelerators, so the reports,
//! the snapshot bytes and the wakeup counts of these runs are fixed. The
//! two-cloud-type scenario was pinned later, on the last commit whose
//! reconciliation still matched type names and counted the cluster per
//! type at every wakeup, for the same reason. The report hashes and the
//! hybrid snapshot were re-taken once, when the task timeline went from one
//! sample per task to one per completion hour: each new value hashes the
//! old report or snapshot with every run of equal-hour timeline samples
//! collapsed to its last. Wakeup and event counts did not move.
//!
//! The driver is a heap loop over public pieces, as the fleet drives a job
//! (`Engine::run` steps by the job's next-event hour instead), with three
//! hooks: a spot revocation (`kill_cloud_nodes`), a schedule splice
//! (`splice_node_schedule`) and a `snapshot()` → JSON → `restore()` round
//! trip at every [`RESUME_EVERY`]th wakeup. On the four scenarios with no
//! kill and no splice, `Engine::run` itself must give the pinned report
//! too. In debug builds every wakeup also runs the kernel's own
//! index-vs-state `debug_assert`.

use conductor_cloud::catalog::mbps_to_gb_per_hour;
use conductor_cloud::{Catalog, SpotMarket, SpotTrace, TraceKind};
use conductor_mapreduce::{
    DataLocation, DeploymentOptions, Engine, ExecutionReport, ExecutionSnapshot, JobEvent,
    JobExecution, JobPhase, JobSpec, LocalityScheduler, NodeAllocation, PlanFollowingScheduler,
    Scheduler, SessionPricing, Workload,
};
use conductor_sim::Simulator;

/// Resumed runs go through a snapshot round trip at every 97th wakeup (a
/// prime, so the boundaries drift across every kind of wakeup).
const RESUME_EVERY: usize = 97;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report_hash(report: &ExecutionReport) -> u64 {
    fnv1a(serde_json::to_string(report).unwrap().as_bytes())
}

/// What the driver schedules besides the job's own wakeups.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Job,
    /// A spot revocation sweep: `kill_cloud_nodes`.
    Kill,
    /// A re-plan: `splice_node_schedule` with the scenario's new steps.
    Splice,
}

/// Interventions settle after everything the job scheduled for the instant.
const INTERVENTION_CLASS: u8 = 9;

struct Scenario {
    catalog: Catalog,
    spec: JobSpec,
    options: DeploymentOptions,
    scheduler: fn() -> Box<dyn Scheduler + Send>,
    pricing: SessionPricing,
    kill_at: Vec<f64>,
    splice: Option<(f64, Vec<NodeAllocation>)>,
}

#[derive(Debug, Default)]
struct Driven {
    wakeups: usize,
    events: usize,
    nodes_killed: usize,
    /// JSON of the snapshot taken right after the requested wakeup.
    snapshot_json: Option<String>,
}

fn plan_following() -> Box<dyn Scheduler + Send> {
    Box::new(PlanFollowingScheduler::cloud_only_defaults())
}

fn locality() -> Box<dyn Scheduler + Send> {
    Box::new(LocalityScheduler)
}

fn drive(
    s: &Scenario,
    resume_every: Option<usize>,
    snapshot_at: Option<usize>,
) -> (ExecutionReport, Driven) {
    let mut job: JobExecution<'static> = JobExecution::new(
        &s.catalog,
        &s.spec,
        s.options.clone(),
        (s.scheduler)(),
        s.pricing.clone(),
    )
    .expect("valid deployment");
    let keyed =
        |events: Vec<(f64, JobEvent)>| events.into_iter().map(|(t, e)| (t, e.class(), Ev::Job));
    let mut sim: Simulator<Ev> = Simulator::new();
    sim.schedule_all(keyed(job.initial_events()));
    for &t in &s.kill_at {
        sim.schedule(t, INTERVENTION_CLASS, Ev::Kill);
    }
    if let Some((t, _)) = &s.splice {
        sim.schedule(*t, INTERVENTION_CLASS, Ev::Splice);
    }

    let mut driven = Driven::default();
    let mut batch = Vec::new();
    loop {
        let now = sim
            .pop_due(&mut batch)
            .unwrap_or_else(|| panic!("{}: ran dry at {} h", s.options.name, sim.now()));
        driven.events += batch.len();
        assert!(
            !matches!(job.phase(), JobPhase::Processing) || now <= job.max_hours(),
            "{}: over max_hours",
            s.options.name
        );
        for ev in &batch {
            match ev {
                Ev::Job => {}
                Ev::Kill => {
                    let (killed, wakeups) = job.kill_cloud_nodes(now);
                    driven.nodes_killed += killed;
                    sim.schedule_all(keyed(wakeups));
                }
                Ev::Splice => {
                    let steps = s.splice.as_ref().unwrap().1.clone();
                    sim.schedule_all(keyed(job.splice_node_schedule(now, now, steps)));
                }
            }
        }
        // As the fleet does: the victim of a kill or splice is woken at
        // once, in the same instant.
        sim.schedule_all(keyed(job.on_wakeup(now)));
        driven.wakeups += 1;
        if snapshot_at == Some(driven.wakeups) {
            driven.snapshot_json = Some(serde_json::to_string(&job.snapshot()).unwrap());
        }
        if resume_every.is_some_and(|n| driven.wakeups % n == 0) {
            let json = serde_json::to_string(&job.snapshot()).unwrap();
            let snapshot: ExecutionSnapshot = serde_json::from_str(&json).unwrap();
            job = snapshot.restore();
        }
        if job.is_done() {
            return (job.into_report(), driven);
        }
        assert!(
            !matches!(job.phase(), JobPhase::Processing) || job.next_event_hours(now).is_some(),
            "{}: stuck at {now} h with {} tasks done",
            s.options.name,
            job.completed_tasks()
        );
    }
}

/// The benchmark's `exec_kernel` shape: `gb` GB of scaled k-means streamed
/// over a 200 Mbit uplink onto `nodes` m1.large instances.
fn cloud_only(gb: u32, nodes: usize) -> Scenario {
    let spec = Workload::KMeansScaled { input_gb: gb }.spec();
    let name = format!("{}-n{nodes}", spec.name);
    Scenario {
        catalog: Catalog::aws_july_2011(),
        spec,
        options: DeploymentOptions {
            max_hours: 2_000.0,
            ..DeploymentOptions::new(name, mbps_to_gb_per_hour(200.0))
                .with_nodes("m1.large", nodes, 0.0)
        },
        scheduler: plan_following,
        pricing: SessionPricing::OnDemand,
        kill_at: vec![],
        splice: None,
    }
}

/// Local + cloud nodes; input split over S3, instance disks, local disks
/// and (the uncovered rest) the client site, read by Hadoop's scheduler so
/// cloud nodes pull client-site splits over the WAN.
fn hybrid() -> Scenario {
    Scenario {
        catalog: Catalog::aws_with_local_cluster(5),
        spec: Workload::KMeans32Gb.spec(),
        options: DeploymentOptions {
            upload_plan: vec![
                (DataLocation::S3, 0.3),
                (DataLocation::LocalDisk, 0.15),
                (DataLocation::InstanceDisk, 0.35),
            ],
            deadline_hours: Some(6.0),
            ..DeploymentOptions::new("hybrid", mbps_to_gb_per_hour(40.0))
                .with_nodes("local", 5, 0.0)
                .with_nodes("m1.large", 6, 0.0)
                .with_nodes("m1.large", 14, 0.75)
                .with_nodes("m1.large", 9, 3.0)
        },
        scheduler: locality,
        pricing: SessionPricing::OnDemand,
        kill_at: vec![],
        splice: None,
    }
}

/// A spot deployment whose market out-bids it for hours 2 and 3: the sweep
/// at hour 2 kills the 16 cloud nodes (the 5 local ones survive), the
/// schedule's later steps slide past the blackout, the cluster is
/// re-acquired at hour 4.
fn spot_with_kill() -> Scenario {
    let mut prices = vec![0.2; 48];
    prices[2] = 0.5;
    prices[3] = 0.5;
    let market = SpotMarket::new(SpotTrace::from_prices(TraceKind::AwsLike, prices), 0.34);
    Scenario {
        catalog: Catalog::aws_with_local_cluster(5),
        spec: Workload::KMeans32Gb.spec(),
        options: DeploymentOptions::new("spot-kill", mbps_to_gb_per_hour(16.0))
            .with_nodes("local", 5, 0.0)
            .with_nodes("m1.large", 16, 0.0)
            .with_nodes("m1.large", 10, 5.0),
        scheduler: locality,
        pricing: SessionPricing::Spot {
            market,
            start_offset_hours: 0.0,
            bid: 0.34,
        },
        kill_at: vec![2.0],
        splice: None,
    }
}

/// Forty busy nodes (a 1 Gbit uplink lands the whole input in minutes), a
/// re-plan at hour 0.5 down to ten: the scale-down has to wait for each
/// node's task and retries at every wakeup.
fn splice_while_busy() -> Scenario {
    Scenario {
        catalog: Catalog::aws_july_2011(),
        spec: Workload::KMeans32Gb.spec(),
        options: DeploymentOptions::new("splice-busy", mbps_to_gb_per_hour(1_000.0))
            .with_nodes("m1.large", 40, 0.0),
        scheduler: plan_following,
        pricing: SessionPricing::OnDemand,
        kill_at: vec![],
        splice: Some((
            0.5,
            vec![NodeAllocation {
                from_hour: 0.5,
                instance_type: "m1.large".into(),
                nodes: 10,
            }],
        )),
    }
}

/// Two hundred spot nodes of two cloud types: 100 c1.xlarge plus an
/// m1.large ramp 60 → 100. A re-plan at hour 1 drops c1.xlarge for 150
/// m1.large (its nodes leave as their tasks retire); the market out-bids the
/// job for hours 2 and 3, so the sweep at hour 2 kills the m1.large nodes
/// and they are re-acquired at hour 4. Reconciliation walks both types, in
/// name order, at every wakeup.
fn two_cloud_types_splice_and_kill() -> Scenario {
    let mut prices = vec![0.2; 48];
    prices[2] = 0.5;
    prices[3] = 0.5;
    let market = SpotMarket::new(SpotTrace::from_prices(TraceKind::AwsLike, prices), 0.34);
    Scenario {
        catalog: Catalog::aws_july_2011(),
        spec: Workload::KMeansScaled { input_gb: 256 }.spec(),
        options: DeploymentOptions::new("two-types", mbps_to_gb_per_hour(200.0))
            .with_nodes("c1.xlarge", 100, 0.0)
            .with_nodes("m1.large", 60, 0.0)
            .with_nodes("m1.large", 100, 0.25),
        scheduler: plan_following,
        pricing: SessionPricing::Spot {
            market,
            start_offset_hours: 0.0,
            bid: 0.34,
        },
        kill_at: vec![2.0],
        splice: Some((
            1.0,
            vec![NodeAllocation {
                from_hour: 1.0,
                instance_type: "m1.large".into(),
                nodes: 150,
            }],
        )),
    }
}

/// Runs the scenario straight and resumed-every-97th-wakeup; both must give
/// the pinned report and the pinned wakeup/event counts.
fn check(
    s: &Scenario,
    report_fnv: u64,
    wakeups: usize,
    events: usize,
) -> (ExecutionReport, Driven) {
    let (report, driven) = drive(s, None, None);
    let (resumed, resumed_driven) = drive(s, Some(RESUME_EVERY), None);
    assert_eq!(
        (report_hash(&report), driven.wakeups, driven.events),
        (report_fnv, wakeups, events),
        "{}: report hash / wakeups / events moved",
        s.options.name
    );
    assert_eq!(
        (
            report_hash(&resumed),
            resumed_driven.wakeups,
            resumed_driven.events
        ),
        (report_fnv, wakeups, events),
        "{}: resumed run diverged",
        s.options.name
    );
    assert_eq!(
        report.task_timeline.last().map(|&(_, done)| done),
        Some(report.total_tasks)
    );
    (report, driven)
}

/// `Engine::run` on an intervention-free scenario: its own loop, which
/// steps the job by its next-event hour instead of a heap, must give the
/// pinned report too.
fn check_engine_run(s: &Scenario, scheduler: &(dyn Scheduler + Sync), report_fnv: u64) {
    let direct = Engine::new(s.catalog.clone())
        .run(&s.spec, &s.options, scheduler)
        .unwrap();
    assert_eq!(
        report_hash(&direct),
        report_fnv,
        "{}: Engine::run moved",
        s.options.name
    );
}

#[test]
fn cloud_only_50_nodes() {
    let s = cloud_only(64, 50);
    check(&s, 15_765_271_049_605_904_562, 2_051, 2_066);
    check_engine_run(
        &s,
        &PlanFollowingScheduler::cloud_only_defaults(),
        15_765_271_049_605_904_562,
    );
}

#[test]
fn cloud_only_200_nodes() {
    let s = cloud_only(256, 200);
    check(&s, 13_475_240_884_801_796_949, 8_195, 8_210);
    check_engine_run(
        &s,
        &PlanFollowingScheduler::cloud_only_defaults(),
        13_475_240_884_801_796_949,
    );
}

#[test]
fn cloud_only_400_nodes() {
    let s = cloud_only(512, 400);
    check(&s, 7_047_631_986_097_300_056, 16_387, 16_402);
    check_engine_run(
        &s,
        &PlanFollowingScheduler::cloud_only_defaults(),
        7_047_631_986_097_300_056,
    );
}

#[test]
fn hybrid_local_and_cloud_with_s3_and_client_site_reads() {
    let s = hybrid();
    // 865 heap events coalesce into 441 wakeups: `Engine::run` must
    // reproduce that batching without a heap.
    let (report, _) = check(&s, 16_681_052_583_823_439_071, 441, 865);
    check_engine_run(&s, &LocalityScheduler, 16_681_052_583_823_439_071);
    // Cloud nodes did read client-site splits over the WAN (the
    // order-sensitive `wan_in_extra` accumulation is exercised) and S3 was
    // billed.
    let uploaded = 32.0 * (0.3 + 0.35);
    assert!(
        report.wan_in_gb > uploaded + 0.5,
        "wan in {}",
        report.wan_in_gb
    );
    assert!(
        report
            .cost_breakdown
            .get(conductor_cloud::CostCategory::StorageS3)
            > 0.0
    );
}

#[test]
fn spot_run_with_a_mid_run_kill_and_recovery() {
    let (report, driven) = check(&spot_with_kill(), 5_475_224_379_636_584_903, 869, 1_350);
    assert_eq!(driven.nodes_killed, 16);
    // 21 nodes before the sweep, the 5 local ones through the blackout,
    // the cloud nodes back at hour 4.
    let during = |from: f64, to: f64| {
        report
            .allocation_timeline
            .iter()
            .filter(move |&&(t, _)| t >= from && t < to)
            .map(|&(_, n)| n)
    };
    assert_eq!(during(0.0, 1.0).max(), Some(21));
    assert_eq!(during(2.0, 3.9).max(), Some(5));
    assert_eq!(during(4.0, 4.5).max(), Some(21));
}

#[test]
fn splice_scales_down_while_nodes_are_busy() {
    let (report, _) = check(
        &splice_while_busy(),
        12_462_354_810_588_383_640,
        1_029,
        1_043,
    );
    // The forty nodes leave one by one as their tasks retire, not at the
    // splice instant.
    let steps_down: Vec<(f64, usize)> = report
        .allocation_timeline
        .iter()
        .copied()
        .filter(|&(t, n)| t >= 0.5 && n < 40)
        .collect();
    assert!(steps_down.len() >= 10, "{steps_down:?}");
    assert!(steps_down.iter().any(|&(t, _)| t > 0.55), "{steps_down:?}");
    assert!(steps_down.windows(2).all(|w| w[1].1 < w[0].1));
    assert_eq!(steps_down.last().unwrap().1, 10);
}

/// A mid-run snapshot's JSON bytes: the idle-node index is not serialized,
/// and nothing serialized changed order or value. Re-taken once, when the
/// step markers and the schedule mutation counter left the format: each
/// value is the earlier snapshot's bytes with those two keys cut out.
/// Pinned as (length, FNV-1a).
#[test]
fn mid_run_snapshot_bytes_are_unchanged() {
    let pins: [(Scenario, usize, (usize, u64)); 3] = [
        (
            cloud_only(256, 200),
            3_000,
            (896_051, 1_167_004_996_699_177_577),
        ),
        (hybrid(), 200, (89_508, 9_558_818_175_474_070_237)),
        (spot_with_kill(), 450, (108_027, 17_339_751_037_822_652_351)),
    ];
    for (s, at, pinned) in pins {
        let (_, driven) = drive(&s, None, Some(at));
        let json = driven
            .snapshot_json
            .expect("run reaches the snapshot wakeup");
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            pinned,
            "{}: snapshot after wakeup {at}",
            s.options.name
        );
        // And it round-trips to the same bytes.
        let back: ExecutionSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(
            serde_json::to_string(&back.restore().snapshot()).unwrap(),
            json
        );
    }
}

#[test]
fn two_cloud_types_with_a_splice_and_a_kill() {
    let (report, driven) = check(
        &two_cloud_types_splice_and_kill(),
        14_399_693_468_926_527_720,
        6_514,
        9_928,
    );
    assert_eq!(driven.nodes_killed, 150);
    let during = |from: f64, to: f64| {
        report
            .allocation_timeline
            .iter()
            .filter(move |&&(t, _)| t >= from && t < to)
            .map(|&(_, n)| n)
    };
    // Both types at full strength before the re-plan; at hour 1 the extra
    // m1.large nodes join at once while c1.xlarge drains node by node.
    assert_eq!(during(0.25, 1.0).max(), Some(200));
    assert_eq!(during(1.0, 2.0).max(), Some(230));
    assert_eq!(during(1.0, 2.0).next_back(), Some(150));
    // Nothing but m1.large was left for the sweep; it is back at recovery.
    assert_eq!(during(2.0, 4.0).max(), Some(0));
    assert_eq!(during(4.0, 4.5).max(), Some(150));
}
