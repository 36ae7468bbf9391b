//! One job's execution as a process on the discrete-event kernel.
//!
//! [`JobExecution`] holds the full runtime state of one MapReduce
//! deployment — tasks, splits, cluster membership, rental sessions and the
//! tenant's [`BillingAccount`] — and advances it in response to *wakeups*
//! scheduled on a [`conductor_sim::Simulator`]: split-upload completions,
//! node-schedule steps, task finishes and the final result download. The
//! single-job [`crate::engine::Engine`] drives one `JobExecution` on a
//! private simulator; the fleet-level `ConductorService` in
//! `conductor-core` drives many of them on one shared clock, which is what
//! makes multi-job contention over a shared spot market and catalog
//! possible.
//!
//! # The wakeup-handler protocol
//!
//! Events are deliberately *payload-free wakeups*: every handler decision
//! (which splits are available, how many nodes the schedule wants, which
//! tasks finished) is derived from the state and the current time, with the
//! same `1e-9` tolerances ([`conductor_sim::TIME_EPSILON`]) the original
//! monolithic loop used. That is what guarantees the event-driven
//! execution reproduces the old engine's reports bit for bit, and it makes
//! the contract between driver and process small:
//!
//! 1. Seed the kernel with [`JobExecution::initial_events`] (kickoff,
//!    schedule steps, split arrivals), each tagged with its
//!    [`JobEvent::class`] so simultaneous events settle in cause-order.
//! 2. On every due wakeup call [`JobExecution::on_wakeup`], which settles
//!    the instant — retire finished tasks, reconcile the cluster against
//!    the node schedule (opening/closing billed rental sessions),
//!    dispatch runnable work — and returns the follow-up wakeups
//!    (task finishes, the download completion) to push back on the heap.
//! 3. Between wakeups, [`JobExecution::next_event_hours`] names the next
//!    instant anything can change; `None` with work remaining means the
//!    job is genuinely stuck and the driver should [`JobExecution::abort`]
//!    it (the accrued spend stays on the bill).
//!
//! Dispatch itself is index-driven: pending tasks are bucketed per data
//! location (maps) plus one reduce set, so a wakeup pays for the few
//! lowest-index candidates instead of a full O(tasks · idle nodes) scan —
//! the distinction that keeps fleet-churn simulations flat as executions
//! grow.
//!
//! # The idle-node index
//!
//! A wakeup is usually one task finishing, so nothing in it may cost
//! nodes² or the number of tasks. `dispatch` and scale-downs used to find
//! the idle nodes by asking, for every cluster node, whether any running
//! task held it; the idle set is now kept current where it changes (node
//! added / removed / killed, task dispatched / retired), in cluster order —
//! the order work is handed out in. It is *derived*: [`ExecutionSnapshot`]
//! does not carry it, [`ExecutionSnapshot::restore`] rebuilds it, and debug
//! builds check it against the serialized state after every wakeup.
//!
//! A second derived index keeps reconciliation free of string comparisons
//! and of counts over the cluster. The *schedule view* holds, per compute
//! type in the schedule and in name order, its catalog entry, its steps
//! sorted by hour and its current cluster count; it is rebuilt when the
//! schedule changes and its counts are kept current where nodes join or
//! leave, so a wakeup reads a number instead of matching names. Beside it
//! sit the step markers, the schedule's distinct hours. Neither is
//! serialized: restore rebuilds them, and debug builds re-derive every
//! index after every wakeup, kill, splice and restore.
//!
//! # The running set
//!
//! The tasks in flight are kept by dispatch sequence number and, beside
//! that, in a min-heap by finish time. Retirement pops only the due tasks
//! off the heap and retires them sorted by sequence number, so the report's
//! float sums and task timeline accumulate in dispatch order, as they
//! always have; [`JobExecution::next_event_hours`] peeks the heap. Neither
//! walks the busy nodes, so a wakeup costs the same at 200 nodes as at 50.
//! A kill takes its tasks out in dispatch order and rebuilds the heap. The
//! snapshot carries the tasks as a dispatch-ordered list and restore
//! numbers them afresh; debug builds check that heap and map hold the same
//! `(finish, sequence)` pairs wherever the other indexes are checked.
//!
//! # Spot revocations
//!
//! Under [`SessionPricing::Spot`] the shared market can take the cluster
//! away: the fleet driver converts out-bid hours into calls to
//! [`JobExecution::kill_cloud_nodes`] (sessions closed without charging
//! the terminated partial hour, interrupted tasks returned to the runnable
//! set, the surviving schedule re-spliced past the blackout), while
//! reconciliation refuses to open new sessions until the price re-admits
//! the bid. Work the market displaced can outlive the plan's schedule;
//! the straggler extension re-raises the last allocation instead of
//! stranding it.

use crate::cluster::{nodes_at, Cluster, NodeAllocation, NodeId};
use crate::engine::{
    DataLocation, DeploymentOptions, EngineError, ExecutionReport, PhaseBreakdown,
};
use crate::scheduler::{Scheduler, SchedulerSnapshot};
use crate::task::{build_tasks, Task, TaskKind, TaskState};
use crate::workload::JobSpec;
use conductor_cloud::{BillingAccount, Catalog, InstanceType, SpotMarket, TransferDirection};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Time tolerance for simultaneity, shared with the kernel.
const EPS: f64 = conductor_sim::TIME_EPSILON;

/// Wakeup kinds a job schedules for itself. All are pure wakeups — the
/// handler re-derives what is due from state and time — so replaying them
/// in any batching that respects time order yields identical executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// Initial wakeup at the job's (relative) hour zero.
    Kickoff,
    /// An input split finishes uploading around this time.
    SplitAvailable,
    /// The node-allocation schedule has a step around this time.
    ScheduleChange,
    /// A running task finishes around this time.
    TaskFinish,
    /// The result download completes; the job is finished.
    DownloadDone,
}

impl JobEvent {
    /// Deterministic ordering class among simultaneous events (data arrives
    /// before allocation steps before task finishes before completion).
    pub fn class(self) -> u8 {
        match self {
            JobEvent::Kickoff => 0,
            JobEvent::SplitAvailable => 0,
            JobEvent::ScheduleChange => 1,
            JobEvent::TaskFinish => 2,
            JobEvent::DownloadDone => 3,
        }
    }
}

/// How rental sessions opened by this job are priced — and, for spot
/// sessions, when the market refuses or revokes them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SessionPricing {
    /// Every session pays the catalog's on-demand price and is never
    /// refused or revoked.
    OnDemand,
    /// Sessions on cloud nodes pay the shared spot market's price at the
    /// absolute hour the session starts. `start_offset_hours` is the job's
    /// start time on the fleet clock, so concurrent tenants price against
    /// the *same* trace hours. While the spot price sits strictly above
    /// `bid`, new cloud nodes cannot be acquired (the market refuses the
    /// request), and the fleet driver turns the out-bid hours into
    /// revocation events that terminate the running ones
    /// ([`JobExecution::kill_cloud_nodes`]).
    Spot {
        /// The shared market (one per fleet).
        market: SpotMarket,
        /// Job start on the fleet clock, in hours.
        start_offset_hours: f64,
        /// Maximum bid per instance-hour. A rational tenant bids at most
        /// the on-demand price (paying more would never be worth it), so
        /// fleet drivers default to that ceiling.
        bid: f64,
    },
}

impl SessionPricing {
    /// The trace hour on the fleet clock corresponding to job-relative
    /// hour `now` (nudged by [`EPS`] so an event scheduled *at* an hour
    /// boundary lands in that hour despite float summation error).
    fn trace_hour(start_offset_hours: f64, now: f64) -> usize {
        (start_offset_hours + now + EPS).floor().max(0.0) as usize
    }

    fn price_for(&self, itype: &conductor_cloud::InstanceType, now: f64) -> f64 {
        match self {
            SessionPricing::OnDemand => itype.hourly_price,
            SessionPricing::Spot {
                market,
                start_offset_hours,
                ..
            } => {
                if itype.is_local() {
                    0.0
                } else {
                    let hour = Self::trace_hour(*start_offset_hours, now);
                    // A rational tenant never pays above on-demand.
                    market.price_at(hour).min(itype.hourly_price)
                }
            }
        }
    }

    /// `true` when the market would refuse a request for more `itype`
    /// nodes at job-relative hour `now` (spot price strictly above the
    /// bid). On-demand sessions and local nodes are never refused.
    fn acquisition_blocked(&self, itype: &conductor_cloud::InstanceType, now: f64) -> bool {
        match self {
            SessionPricing::OnDemand => false,
            SessionPricing::Spot {
                market,
                start_offset_hours,
                bid,
            } => {
                !itype.is_local()
                    && market.out_bid_at(Self::trace_hour(*start_offset_hours, now), *bid)
            }
        }
    }

    /// If the market is currently refusing requests at job-relative hour
    /// `now`, the job-relative hour at which the spot price next comes
    /// back down to the bid (a request made then is granted). `None` when
    /// nothing is blocked — or when the trace never recovers, in which
    /// case the job really is starved for good.
    fn recovery_hours(&self, now: f64) -> Option<f64> {
        let SessionPricing::Spot {
            market,
            start_offset_hours,
            bid,
        } = self
        else {
            return None;
        };
        let hour = Self::trace_hour(*start_offset_hours, now);
        if !market.out_bid_at(hour, *bid) {
            return None;
        }
        let recovery = market.next_acceptance(hour + 1, *bid)?;
        Some(recovery as f64 - start_offset_hours)
    }
}

/// Which lifecycle phase the job is in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Uploading/processing on the cluster.
    Processing,
    /// All tasks done; the result download completes at the recorded hour.
    Downloading {
        /// Absolute (job-relative) completion hour.
        completion: f64,
    },
    /// Finished; the report is available.
    Done,
}

/// A monitor's view of one running job (fleet adaptation input).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionProgress {
    /// Tasks completed so far.
    pub completed_tasks: usize,
    /// Total tasks in the job.
    pub total_tasks: usize,
    /// Input GB whose map task has completed.
    pub map_done_gb: f64,
    /// Map tasks not yet completed.
    pub map_remaining: usize,
    /// Tasks currently running.
    pub running_tasks: usize,
    /// GB of input available per location at the observation time (splits
    /// whose upload has finished).
    pub stored_gb: BTreeMap<DataLocation, f64>,
    /// Integral of allocated nodes over hours `[0, now]` — the node-hours
    /// actually fielded, for deriving observed per-node throughput.
    pub allocated_node_hours: f64,
}

/// A split of the input data with its upload destination and availability
/// time.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Split {
    location: DataLocation,
    available_at: f64,
    gb: f64,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Running {
    task_idx: usize,
    node: NodeId,
    finish_at: f64,
    /// WAN gigabytes consumed by this task (remote reads from the client
    /// site).
    wan_gb: f64,
    /// GET requests against S3 issued by this task.
    s3_gets: u64,
    /// `true` when the task ran on a rented cloud node (its share of the
    /// output will have to be downloaded over the WAN).
    on_cloud_node: bool,
}

/// A finish time ordered by [`f64::total_cmp`], so it can key a heap. For
/// the non-negative, non-NaN hours a dispatch produces this is the order of
/// `<`, and the least key is what a fold with [`f64::min`] finds.
#[derive(Debug, Clone, Copy)]
struct FinishAt(f64);

impl PartialEq for FinishAt {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for FinishAt {}

impl PartialOrd for FinishAt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FinishAt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The tasks in flight, kept twice: by dispatch sequence number (the order
/// the report's float sums and task timeline accumulate in) and in a
/// min-heap by finish time, so a wakeup touches only the tasks that are due.
/// Invariant: the heap holds exactly `(finish_at, seq)` of every entry of
/// `by_dispatch`.
#[derive(Debug, Default)]
struct RunningTasks {
    by_dispatch: BTreeMap<u64, Running>,
    by_finish: BinaryHeap<Reverse<(FinishAt, u64)>>,
    /// The sequence number the next dispatch gets.
    next_seq: u64,
    /// Scratch for [`Self::pop_due`]: the due sequence numbers, reused so a
    /// wakeup allocates nothing.
    due: Vec<u64>,
}

impl RunningTasks {
    /// The set holding `running`, taken to be in dispatch order.
    fn from_dispatch_order(running: &[Running]) -> Self {
        let mut set = Self::default();
        for &r in running {
            set.push(r);
        }
        set
    }

    fn len(&self) -> usize {
        self.by_dispatch.len()
    }

    fn is_empty(&self) -> bool {
        self.by_dispatch.is_empty()
    }

    /// The running tasks in dispatch order.
    fn iter(&self) -> impl Iterator<Item = &Running> {
        self.by_dispatch.values()
    }

    /// Adds a task dispatched after every task already in the set.
    fn push(&mut self, r: Running) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_dispatch.insert(seq, r);
        self.by_finish.push(Reverse((FinishAt(r.finish_at), seq)));
    }

    /// The earliest finish time, if anything runs.
    fn next_finish(&self) -> Option<f64> {
        self.by_finish.peek().map(|Reverse((finish, _))| finish.0)
    }

    /// Takes out every task finishing at or before `until` and yields them
    /// in dispatch order.
    fn pop_due(&mut self, until: f64) -> impl Iterator<Item = Running> + '_ {
        while let Some(&Reverse((finish, seq))) = self.by_finish.peek() {
            if finish.0 > until {
                break;
            }
            self.by_finish.pop();
            self.due.push(seq);
        }
        self.due.sort_unstable();
        let by_dispatch = &mut self.by_dispatch;
        self.due.drain(..).map(move |seq| {
            by_dispatch
                .remove(&seq)
                .expect("a due task is in the dispatch map")
        })
    }

    /// Takes out every task on one of `nodes` (sorted) and returns them in
    /// dispatch order; the heap is rebuilt from the survivors.
    fn remove_on(&mut self, nodes: &[NodeId]) -> Vec<Running> {
        let mut removed = Vec::new();
        self.by_dispatch.retain(|_, r| {
            let doomed = nodes.binary_search(&r.node).is_ok();
            if doomed {
                removed.push(*r);
            }
            !doomed
        });
        self.by_finish = self
            .by_dispatch
            .iter()
            .map(|(&seq, r)| Reverse((FinishAt(r.finish_at), seq)))
            .collect();
        removed
    }

    /// Re-derives the invariant: the heap and the dispatch map hold the same
    /// `(finish, seq)` pairs, and every sequence number was handed out.
    fn debug_check(&self) {
        let mut heap: Vec<(u64, u64)> = self
            .by_finish
            .iter()
            .map(|Reverse((finish, seq))| (finish.0.to_bits(), *seq))
            .collect();
        heap.sort_unstable();
        let mut map: Vec<(u64, u64)> = self
            .by_dispatch
            .iter()
            .map(|(&seq, r)| (r.finish_at.to_bits(), seq))
            .collect();
        map.sort_unstable();
        assert_eq!(heap, map, "finish heap disagrees with the dispatch map");
        assert!(self
            .by_dispatch
            .last_key_value()
            .is_none_or(|(&seq, _)| seq < self.next_seq));
    }
}

/// The cluster's nodes that run no task, in cluster (= ascending id) order.
fn idle_nodes<'r>(
    cluster: &Cluster,
    running: impl IntoIterator<Item = &'r Running>,
) -> BTreeSet<NodeId> {
    let mut idle: BTreeSet<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
    for r in running {
        idle.remove(&r.node);
    }
    idle
}

/// The distinct step hours of `schedule`, ascending.
fn schedule_points(schedule: &[NodeAllocation]) -> Vec<f64> {
    let mut points: Vec<f64> = schedule.iter().map(|a| a.from_hour).collect();
    points.sort_by(|a, b| a.partial_cmp(b).unwrap());
    points.dedup();
    points
}

/// One compute type of the node schedule, as reconciliation reads it.
#[derive(Debug, Clone, PartialEq)]
struct ScheduleType {
    name: String,
    itype: InstanceType,
    /// `(from_hour, nodes)` of this type's steps, stably sorted by hour: the
    /// step in force at an hour is the last one at or before it, ties going
    /// to the later step in the schedule, exactly as [`nodes_at`] picks.
    steps: Vec<(f64, usize)>,
    /// This type's nodes in the cluster now.
    count: usize,
}

impl ScheduleType {
    /// [`nodes_at`] for this type.
    fn nodes_at(&self, hour: f64) -> usize {
        let in_force = self.steps.partition_point(|&(from, _)| from <= hour + 1e-9);
        in_force.checked_sub(1).map_or(0, |at| self.steps[at].1)
    }

    /// The node count reconciliation aims for at `hour`: the schedule's,
    /// capped at what the catalog can rent.
    fn desired(&self, hour: f64) -> usize {
        let desired = self.nodes_at(hour);
        match self.itype.max_instances {
            Some(cap) => desired.min(cap),
            None => desired,
        }
    }

    fn is_cloud(&self) -> bool {
        !self.itype.is_local()
    }
}

/// The schedule view: every type of `schedule` the catalog knows, in name
/// order, with its cluster count.
fn schedule_view(
    schedule: &[NodeAllocation],
    catalog: &Catalog,
    cluster: &Cluster,
) -> Vec<ScheduleType> {
    let mut steps: BTreeMap<&str, Vec<(f64, usize)>> = BTreeMap::new();
    for a in schedule {
        steps
            .entry(a.instance_type.as_str())
            .or_default()
            .push((a.from_hour, a.nodes));
    }
    steps
        .into_iter()
        .filter_map(|(name, mut steps)| {
            let itype = catalog.instance(name)?;
            steps.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            Some(ScheduleType {
                name: name.to_string(),
                itype: itype.clone(),
                steps,
                count: cluster.count_of(name),
            })
        })
        .collect()
}

/// The full runtime state of one deployment, advanced by wakeups.
pub struct JobExecution<'a> {
    catalog: Catalog,
    spec: JobSpec,
    options: DeploymentOptions,
    scheduler: Box<dyn Scheduler + Send + 'a>,
    pricing: SessionPricing,

    billing: BillingAccount,
    cluster: Cluster,
    sessions: BTreeMap<NodeId, u64>,
    tasks: Vec<Task>,
    splits: Vec<Split>,
    /// Tasks in flight, by dispatch order (load-bearing: the report's float
    /// sums and task timeline accumulate in it) and by finish time.
    running: RunningTasks,

    // ---- dispatch index -------------------------------------------------
    // Exactly the dispatchable tasks, bucketed the way `dispatch` consumes
    // them: pending map tasks by the location their input is available at,
    // pending reduce tasks in one set (their location is a function of the
    // node). Sets are ordered, so "lowest task index at this location" is
    // `first()` — the tie-breaking of a scan over every task, without it.
    /// Pending map tasks whose input is available now, by location.
    runnable_maps: BTreeMap<DataLocation, BTreeSet<usize>>,
    /// Pending reduce tasks (dispatchable once `map_remaining == 0`).
    runnable_reduces: BTreeSet<usize>,
    /// `(available_at, task_idx, location)` for splits still uploading,
    /// sorted by availability; promoted into `runnable_maps` as the clock
    /// passes them.
    upload_pending: Vec<(f64, usize, DataLocation)>,
    /// First `upload_pending` entry not yet promoted.
    upload_cursor: usize,

    task_timeline: Vec<(f64, usize)>,
    completed: usize,
    map_remaining: usize,
    wan_in_extra: f64,
    total_s3_gets: u64,
    cloud_processed_gb: f64,
    phases: PhaseBreakdown,
    upload_done_at: f64,
    s3_gb: f64,
    /// Times the straggler extension re-raised the schedule (see
    /// [`Self::straggler_extensions`]); fleet drivers diff this across a
    /// wakeup to surface the extension as a typed event.
    straggler_extensions: usize,

    // ---- derived index (not serialized; see the module docs) ------------
    /// The node schedule's distinct step hours, ascending: the
    /// `ScheduleChange` wakeups. Invariant: equals
    /// `schedule_points(node_schedule)`.
    schedule_points: Vec<f64>,
    /// Cluster nodes with no running task, in cluster (= ascending id)
    /// order — the order `dispatch` hands out work in. Invariant: equals
    /// `cluster.nodes()` minus the nodes of `running`.
    idle: BTreeSet<NodeId>,
    /// Per scheduled compute type: catalog entry, steps, cluster count.
    /// Invariant: equals `schedule_view(node_schedule, catalog, cluster)`.
    schedule: Vec<ScheduleType>,

    phase: JobPhase,
    report: Option<ExecutionReport>,
}

impl std::fmt::Debug for JobExecution<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobExecution")
            .field("name", &self.options.name)
            .field("phase", &self.phase)
            .field("completed", &self.completed)
            .field("total_tasks", &self.tasks.len())
            .finish()
    }
}

impl<'a> JobExecution<'a> {
    /// Validates the deployment options and builds the initial state:
    /// tasks, the split upload timetable (billing the WAN upload), and the
    /// schedule-step markers.
    pub fn new(
        catalog: &Catalog,
        spec: &JobSpec,
        options: DeploymentOptions,
        scheduler: Box<dyn Scheduler + Send + 'a>,
        pricing: SessionPricing,
    ) -> Result<Self, EngineError> {
        validate(catalog, &options)?;

        let mut billing = BillingAccount::new(catalog.transfer);
        let tasks = build_tasks(
            spec.map_tasks(),
            spec.input_gb,
            spec.reduce_tasks,
            spec.shuffle_gb(),
        );
        let task_count = tasks.len();
        let splits = plan_splits(spec, &options);
        // Only data headed for *cloud* storage crosses the customer uplink;
        // splits assigned to the local cluster's disks move over the LAN.
        let upload_done_at = splits
            .iter()
            .filter(|s| crosses_wan(s.location))
            .map(|s| s.available_at)
            .fold(0.0, f64::max);
        let uploaded_gb: f64 = splits
            .iter()
            .filter(|s| crosses_wan(s.location))
            .map(|s| s.gb)
            .sum();
        let s3_gb: f64 = splits
            .iter()
            .filter(|s| s.location == DataLocation::S3)
            .map(|s| s.gb)
            .sum();

        // Input transferred into the cloud during the upload phase is billed
        // immediately (it crosses the WAN exactly once).
        if uploaded_gb > 0.0 {
            billing.record_transfer(uploaded_gb, TransferDirection::In);
        }

        let map_remaining = spec.map_tasks();
        let mut runnable_maps: BTreeMap<DataLocation, BTreeSet<usize>> = BTreeMap::new();
        let mut runnable_reduces = BTreeSet::new();
        let mut upload_pending: Vec<(f64, usize, DataLocation)> = Vec::with_capacity(map_remaining);
        for (idx, task) in tasks.iter().enumerate() {
            match task.kind {
                TaskKind::Map => {
                    let split = &splits[idx.min(splits.len().saturating_sub(1))];
                    if split.location != DataLocation::ClientSite && split.available_at > EPS {
                        upload_pending.push((split.available_at, idx, split.location));
                    } else {
                        runnable_maps.entry(split.location).or_default().insert(idx);
                    }
                }
                TaskKind::Reduce => {
                    runnable_reduces.insert(idx);
                }
            }
        }
        upload_pending.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let cluster = Cluster::new();
        let schedule = schedule_view(&options.node_schedule, catalog, &cluster);
        let schedule_points = schedule_points(&options.node_schedule);
        Ok(Self {
            catalog: catalog.clone(),
            spec: spec.clone(),
            phases: PhaseBreakdown {
                upload_hours: upload_done_at,
                ..Default::default()
            },
            options,
            scheduler,
            pricing,
            billing,
            cluster,
            sessions: BTreeMap::new(),
            tasks,
            splits,
            running: RunningTasks::default(),
            runnable_maps,
            runnable_reduces,
            upload_pending,
            upload_cursor: 0,
            task_timeline: Vec::with_capacity(task_count),
            completed: 0,
            map_remaining,
            wan_in_extra: 0.0,
            total_s3_gets: 0,
            cloud_processed_gb: 0.0,
            upload_done_at,
            s3_gb,
            straggler_extensions: 0,
            schedule_points,
            idle: BTreeSet::new(),
            schedule,
            phase: JobPhase::Processing,
            report: None,
        })
    }

    /// The wakeups to seed the kernel with: the kickoff at hour zero plus
    /// one marker per schedule step and distinct split-availability time.
    /// All times are job-relative hours.
    pub fn initial_events(&self) -> Vec<(f64, JobEvent)> {
        let mut events = Vec::with_capacity(1 + self.schedule_points.len() + self.splits.len());
        events.push((0.0, JobEvent::Kickoff));
        for &t in &self.schedule_points {
            if t > EPS {
                events.push((t, JobEvent::ScheduleChange));
            }
        }
        let mut avail: Vec<f64> = self
            .splits
            .iter()
            .filter(|s| s.location != DataLocation::ClientSite && s.available_at > EPS)
            .map(|s| s.available_at)
            .collect();
        avail.sort_by(|a, b| a.partial_cmp(b).unwrap());
        avail.dedup();
        for t in avail {
            events.push((t, JobEvent::SplitAvailable));
        }
        events
    }

    /// Which lifecycle phase the job is in.
    pub fn phase(&self) -> JobPhase {
        self.phase
    }

    /// `true` once the final download completed and the report is ready.
    pub fn is_done(&self) -> bool {
        self.phase == JobPhase::Done
    }

    /// Tasks completed so far.
    pub fn completed_tasks(&self) -> usize {
        self.completed
    }

    /// Safety cap on simulated hours (from the deployment options).
    pub fn max_hours(&self) -> f64 {
        self.options.max_hours
    }

    /// Deployment label.
    pub fn name(&self) -> &str {
        &self.options.name
    }

    /// The deployment options currently in force (the node schedule may
    /// have been spliced since construction).
    pub fn options(&self) -> &DeploymentOptions {
        &self.options
    }

    /// The node-allocation schedule currently in force, in job-relative
    /// hours. Fleet drivers read this to compute residual capacity.
    pub fn node_schedule(&self) -> &[NodeAllocation] {
        &self.options.node_schedule
    }

    /// The time of the next state change this job expects after `now`, or
    /// `None` when nothing is running and nothing will change (the job is
    /// stuck). Mirrors the event-horizon computation of the original
    /// monolithic loop, so stuck detection is independent of kernel
    /// bookkeeping.
    pub fn next_event_hours(&self, now: f64) -> Option<f64> {
        match self.phase {
            JobPhase::Processing => {
                let next_finish = self.running.next_finish().unwrap_or(f64::INFINITY);
                let next_schedule = self.schedule_points_after(now).first().copied();
                let next_schedule = next_schedule.unwrap_or(f64::INFINITY);
                // `upload_pending` holds every split that is ever uploaded,
                // sorted by availability: the next arrival is the first
                // entry past `now`.
                let arrived = self
                    .upload_pending
                    .partition_point(|&(available_at, ..)| available_at <= now + EPS);
                let next_split = self
                    .upload_pending
                    .get(arrived)
                    .map_or(f64::INFINITY, |&(available_at, ..)| available_at);
                // A spot job starved by an out-bid market is not stuck: its
                // next state change is the hour the price readmits its bid.
                // `recovery_hours` is the cheap discriminator (`None` unless
                // the market is out-bid right now), so the schedule-demand
                // scan only runs during an actual blackout.
                let next_recovery = match self.pricing.recovery_hours(now) {
                    Some(recovery) if self.wants_more_cloud_nodes(now) => recovery,
                    _ => f64::INFINITY,
                };
                let next = next_finish
                    .min(next_schedule)
                    .min(next_split)
                    .min(next_recovery);
                next.is_finite().then_some(next)
            }
            JobPhase::Downloading { completion } => Some(completion),
            JobPhase::Done => None,
        }
    }

    /// Handles one wakeup batch at job-relative hour `now`: retires tasks
    /// that finished, reconciles cluster membership with the schedule,
    /// dispatches runnable tasks onto idle nodes, and — once every task has
    /// completed — finalizes billing and schedules the download completion.
    ///
    /// Returns the follow-up wakeups (task finishes, download completion)
    /// to push onto the kernel, in job-relative hours.
    pub fn on_wakeup(&mut self, now: f64) -> Vec<(f64, JobEvent)> {
        let mut out = Vec::new();
        match self.phase {
            JobPhase::Done => return out,
            JobPhase::Downloading { completion } => {
                if now + EPS >= completion {
                    self.phase = JobPhase::Done;
                }
                return out;
            }
            JobPhase::Processing => {}
        }

        self.retire_finished(now);
        self.reconcile_cluster(now, &mut out);
        self.dispatch(now, &mut out);
        if self.extend_for_stragglers(now) {
            // The extension must take effect *within* this wakeup: the
            // driver's stuck check runs right after, and a step at `now`
            // only helps if the nodes (or a recovery retry) exist by then.
            self.reconcile_cluster(now, &mut out);
            self.dispatch(now, &mut out);
        }

        if self.completed == self.tasks.len() {
            let completion = self.finalize(now);
            self.phase = JobPhase::Downloading { completion };
            out.push((completion, JobEvent::DownloadDone));
        }
        self.debug_check_indexes(&[now]);
        out
    }

    /// Debug builds re-derive the idle index and the schedule view from the
    /// serialized state after every wakeup, kill, splice and restore, and
    /// compare; the view's demand is also checked against [`nodes_at`] at
    /// each of `hours`.
    fn debug_check_indexes(&self, hours: &[f64]) {
        if !cfg!(debug_assertions) {
            return;
        }
        self.running.debug_check();
        assert_eq!(self.idle, idle_nodes(&self.cluster, self.running.iter()));
        assert_eq!(
            self.schedule_points,
            schedule_points(&self.options.node_schedule)
        );
        assert_eq!(
            self.schedule,
            schedule_view(&self.options.node_schedule, &self.catalog, &self.cluster)
        );
        for t in &self.schedule {
            assert_eq!(t.count, self.cluster.count_of(&t.name));
            for &hour in hours {
                assert_eq!(
                    t.nodes_at(hour),
                    nodes_at(&self.options.node_schedule, &t.name, hour),
                    "{} at {hour} h",
                    t.name
                );
            }
        }
    }

    /// The sorted step markers strictly after `now`.
    fn schedule_points_after(&self, now: f64) -> &[f64] {
        let past = self.schedule_points.partition_point(|&t| t <= now + EPS);
        &self.schedule_points[past..]
    }

    /// The node schedule was edited: re-derives the step markers and the
    /// schedule view.
    fn schedule_changed(&mut self) {
        self.schedule_points = schedule_points(&self.options.node_schedule);
        self.schedule = schedule_view(&self.options.node_schedule, &self.catalog, &self.cluster);
    }

    /// The `ScheduleChange` wakeups for every schedule step after `now`.
    fn schedule_wakeups_after(&self, now: f64) -> Vec<(f64, JobEvent)> {
        self.schedule_points_after(now)
            .iter()
            .map(|&t| (t, JobEvent::ScheduleChange))
            .collect()
    }

    /// Work can outlive the node schedule: the plan's fluid model was
    /// optimistic, a revocation returned killed tasks to the runnable set,
    /// or an out-bid market delayed acquisitions — and the schedule's tail
    /// ramps to zero believing everything is done, stranding the
    /// stragglers (or the reduces whose map barrier opened late). When a
    /// job has nothing running, nothing scheduled, and tasks remaining,
    /// re-raise the last positive cloud allocation — capped at the
    /// straggler count — rather than abandoning paid-for work: a real
    /// orchestrator keeps its cluster until the job is done. A stuck state
    /// can never resolve on its own (every event source is derived from
    /// state), so this only ever converts a would-be failure into a
    /// limp-home completion; runs that complete on schedule — including
    /// every execution the engine-equivalence suite pins bit for bit —
    /// never reach it. The step function keeps the extension level in
    /// force from `now` on, so it cannot re-fire in a loop when dispatch
    /// (not capacity) is what's stuck.
    ///
    /// Returns `true` when a step was added (the caller re-reconciles and
    /// re-dispatches in the same wakeup).
    fn extend_for_stragglers(&mut self, now: f64) -> bool {
        if self.completed == self.tasks.len()
            || !self.running.is_empty()
            || self.next_event_hours(now).is_some()
        {
            return false;
        }
        let stragglers = self.tasks.len() - self.completed;
        // Any cloud type still demanded at `now` means nodes are on the way
        // (or the market is starving us for good) — nothing to extend.
        if self
            .schedule
            .iter()
            .any(|t| t.is_cloud() && t.nodes_at(now) > 0)
        {
            return false;
        }
        // The most recent positive cloud allocation, capped at the
        // straggler count: enough to finish, never more than the plan ever
        // fielded at once. (This runs only when the job would be stuck.)
        let is_cloud = |name: &str| {
            self.schedule
                .binary_search_by(|t| t.name.as_str().cmp(name))
                .is_ok_and(|at| self.schedule[at].is_cloud())
        };
        let last_positive = self
            .options
            .node_schedule
            .iter()
            .filter(|a| a.nodes > 0 && is_cloud(&a.instance_type))
            .max_by(|a, b| a.from_hour.partial_cmp(&b.from_hour).unwrap());
        let Some(step) = last_positive else {
            return false; // local-only deployments keep the classic stuck semantics
        };
        let extension = NodeAllocation {
            from_hour: now,
            instance_type: step.instance_type.clone(),
            nodes: step.nodes.min(stragglers),
        };
        self.options.node_schedule.push(extension);
        self.schedule_changed();
        self.straggler_extensions += 1;
        true
    }

    /// The bill an [`abort`](Self::abort) (or any customer-initiated
    /// stop) at job-relative hour `now` would settle at: the charges the
    /// job's billing account has recorded so far (WAN transfers, storage
    /// residency and every closed rental session) plus the round-up charge
    /// of every still-open rental session. Fleet drivers quote this for
    /// live status and fleet-bill snapshots, so a cancellation's final
    /// bill equals the last live quote at the same instant.
    pub fn cost_so_far_at(&self, now: f64) -> f64 {
        self.billing.total_cost() + self.billing.open_accrual(now)
    }

    /// How many times the straggler extension re-raised the last cloud
    /// allocation to finish work the schedule's ramp-down would have
    /// stranded (see `extend_for_stragglers`). Monotonically increasing;
    /// drivers diff it across a wakeup to detect an extension.
    pub fn straggler_extensions(&self) -> usize {
        self.straggler_extensions
    }

    /// A monitor's snapshot of the job at hour `now`.
    pub fn progress(&self, now: f64) -> ExecutionProgress {
        let map_done_gb = self
            .tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Map && t.is_completed())
            .map(|t| t.data_gb)
            .sum();
        let mut stored_gb: BTreeMap<DataLocation, f64> = BTreeMap::new();
        for s in &self.splits {
            if s.location != DataLocation::ClientSite && s.available_at <= now + EPS {
                *stored_gb.entry(s.location).or_insert(0.0) += s.gb;
            }
        }
        ExecutionProgress {
            completed_tasks: self.completed,
            total_tasks: self.tasks.len(),
            map_done_gb,
            map_remaining: self.map_remaining,
            running_tasks: self.running.len(),
            stored_gb,
            allocated_node_hours: self.allocated_node_hours(now),
        }
    }

    /// Integral of the allocated node count over hours `[0, now]`.
    fn allocated_node_hours(&self, now: f64) -> f64 {
        let timeline = self.cluster.allocation_timeline();
        let mut hours = 0.0;
        for (i, &(t, n)) in timeline.iter().enumerate() {
            if t >= now {
                break;
            }
            let end = timeline
                .get(i + 1)
                .map(|&(t2, _)| t2.min(now))
                .unwrap_or(now);
            hours += (end - t).max(0.0) * n as f64;
        }
        hours
    }

    /// Splices an updated node schedule into the deployment from
    /// `from_hour` on: steps before `from_hour` are kept, later ones are
    /// replaced by `new_steps` (job-relative hours). Returns the wakeups
    /// for the new steps after `now` to push onto the kernel. Busy nodes
    /// finish their current task before any scale-down takes effect, as
    /// always.
    pub fn splice_node_schedule(
        &mut self,
        now: f64,
        from_hour: f64,
        mut new_steps: Vec<NodeAllocation>,
    ) -> Vec<(f64, JobEvent)> {
        self.options
            .node_schedule
            .retain(|a| a.from_hour < from_hour - EPS);
        // A compute type the updated plan no longer uses emits no steps at
        // all (plans only record positive node counts), so without an
        // explicit zero step its pre-splice count would stay in force —
        // and keep billing — until the job finished.
        let kept_types: std::collections::BTreeSet<&str> = self
            .options
            .node_schedule
            .iter()
            .map(|a| a.instance_type.as_str())
            .collect();
        for kept in kept_types {
            if !new_steps.iter().any(|s| s.instance_type == kept) {
                new_steps.push(NodeAllocation {
                    from_hour,
                    instance_type: kept.to_string(),
                    nodes: 0,
                });
            }
        }
        self.options.node_schedule.extend(new_steps);
        self.options
            .node_schedule
            .sort_by(|a, b| a.from_hour.partial_cmp(&b.from_hour).unwrap());
        self.schedule_changed();
        self.debug_check_indexes(&self.schedule_points);
        self.schedule_wakeups_after(now)
    }

    /// Terminates every rented cloud node at job-relative hour `now` — the
    /// node-kill path behind fleet-level spot revocations. Running tasks on
    /// the terminated nodes lose their partial work and return to the
    /// runnable set (standard MapReduce node-failure semantics), the rental
    /// sessions close **without charging the terminated partial hour**
    /// (EC2's out-of-bid rule, [`conductor_cloud::BillingAccount::stop_instance_revoked`]),
    /// and the nodes leave the cluster. Local nodes are untouched: the
    /// market cannot revoke machines the customer owns.
    ///
    /// Returns the number of nodes terminated plus the wakeups for the
    /// re-spliced schedule (see below), which the caller must push onto the
    /// kernel. The surviving schedule still demands nodes, so the next
    /// reconciliation re-requests capacity — which the market refuses while
    /// the spot price stays above the session bid, and grants again at the
    /// recovery hour (see [`SessionPricing`]).
    ///
    /// **Schedule splice:** the blackout `[now, recovery)` delivers none of
    /// the node-hours the plan counted on, so every future step of a cloud
    /// compute type slides right by the blackout length — otherwise a plan
    /// whose tail ramps down to zero would strand the returned work with
    /// nothing to run on (the fluid model believed it would already be
    /// done). A monitor re-plan may later replace this heuristic splice
    /// with a properly re-optimized schedule; between storm and tick, the
    /// shift is what keeps the job alive.
    pub fn kill_cloud_nodes(&mut self, now: f64) -> (usize, Vec<(f64, JobEvent)>) {
        if !matches!(self.phase, JobPhase::Processing) {
            return (0, Vec::new()); // nothing rented, or the download needs no nodes
        }
        let doomed: Vec<NodeId> = self
            .cluster
            .nodes()
            .iter()
            .filter(|n| !n.is_local)
            .map(|n| n.id)
            .collect();
        if doomed.is_empty() {
            return (0, Vec::new());
        }
        // `doomed` is in cluster order, i.e. sorted by id.
        for r in self.running.remove_on(&doomed) {
            self.tasks[r.task_idx].state = TaskState::Runnable;
            // Back into the dispatch index: a map task re-buckets under
            // its split's location (already uploaded — it was running),
            // a reduce under the shared reduce set.
            match self.tasks[r.task_idx].kind {
                TaskKind::Map => {
                    let split = &self.splits[r.task_idx.min(self.splits.len().saturating_sub(1))];
                    self.runnable_maps
                        .entry(split.location)
                        .or_default()
                        .insert(r.task_idx);
                }
                TaskKind::Reduce => {
                    self.runnable_reduces.insert(r.task_idx);
                }
            }
        }
        let removed = self.cluster.remove_specific(&doomed, now);
        for t in &mut self.schedule {
            if t.is_cloud() {
                t.count = 0;
            }
        }
        for rid in &removed {
            self.idle.remove(rid);
            if let Some(session) = self.sessions.remove(rid) {
                self.billing.stop_instance_revoked(session, now);
            }
        }

        let mut wakeups = Vec::new();
        if let Some(recovery) = self.pricing.recovery_hours(now) {
            let shift = recovery - now;
            if shift > EPS {
                for step in &mut self.options.node_schedule {
                    let is_local = self
                        .catalog
                        .instance(&step.instance_type)
                        .is_some_and(|i| i.is_local());
                    if !is_local && step.from_hour > now + EPS {
                        step.from_hour += shift;
                    }
                }
                self.schedule_changed();
                wakeups = self.schedule_wakeups_after(now);
            }
        }
        self.debug_check_indexes(&[now]);
        (removed.len(), wakeups)
    }

    /// The finished report. Panics if the job is not [`JobPhase::Done`];
    /// drivers only call this after the `DownloadDone` wakeup fired.
    pub fn into_report(self) -> ExecutionReport {
        self.report
            .expect("job not finished: report only exists in JobPhase::Done")
    }

    /// Abandons a run that will not finish (max-hours cap exceeded, or
    /// stuck with nothing scheduled): closes every open rental session at
    /// `now` and returns the bill accrued so far. The upload transfer and
    /// the instance-hours already consumed were real spend, so fleet
    /// accounting must not lose them just because the job failed. A
    /// configured deadline counts as missed.
    pub fn abort(mut self, now: f64) -> ExecutionReport {
        for (_, session) in std::mem::take(&mut self.sessions) {
            self.billing.stop_instance(session, now);
        }
        ExecutionReport {
            name: self.options.name.clone(),
            completion_hours: now,
            phases: self.phases,
            total_cost: self.billing.total_cost(),
            cost_breakdown: self.billing.breakdown().clone(),
            met_deadline: self.options.deadline_hours.map(|_| false),
            task_timeline: self.task_timeline,
            allocation_timeline: self.cluster.allocation_timeline().to_vec(),
            total_tasks: self.tasks.len(),
            wan_in_gb: self.billing.uploaded_gb,
            wan_out_gb: self.billing.downloaded_gb,
        }
    }

    // ---- event handlers -------------------------------------------------

    /// Retires every running task whose finish time is due at `now`, in
    /// dispatch order; the others are not looked at.
    fn retire_finished(&mut self, now: f64) {
        for r in self.running.pop_due(now + EPS) {
            let idx = r.task_idx;
            self.tasks[idx].state = TaskState::Completed { at: r.finish_at };
            self.completed += 1;
            if self.tasks[idx].kind == TaskKind::Map {
                self.map_remaining -= 1;
                if self.map_remaining == 0 {
                    self.phases.map_done_at = r.finish_at;
                }
            } else if self.completed == self.tasks.len() {
                self.phases.reduce_done_at = r.finish_at;
            }
            self.wan_in_extra += r.wan_gb;
            self.total_s3_gets += r.s3_gets;
            if r.on_cloud_node && self.tasks[idx].kind == TaskKind::Map {
                self.cloud_processed_gb += self.tasks[idx].data_gb;
            }
            self.task_timeline.push((r.finish_at, self.completed));
            self.idle.insert(r.node);
        }
    }

    /// `true` while the schedule demands more cloud nodes of some type than
    /// the cluster currently holds — the state in which an out-bid spot
    /// market (rather than the schedule) is what limits the job.
    fn wants_more_cloud_nodes(&self, now: f64) -> bool {
        self.schedule
            .iter()
            .any(|t| t.is_cloud() && t.desired(now) > t.count)
    }

    /// Adds/removes nodes so the cluster matches the schedule at time
    /// `now`, opening and closing billing sessions accordingly. Busy nodes
    /// are never removed; the reconciliation is retried at the next wakeup.
    /// Spot-priced acquisitions the market currently refuses (price above
    /// bid) are skipped, and a retry wakeup for the recovery hour is pushed
    /// onto `out` instead.
    fn reconcile_cluster(&mut self, now: f64, out: &mut Vec<(f64, JobEvent)>) {
        for at in 0..self.schedule.len() {
            let t = &self.schedule[at];
            let desired = t.desired(now);
            let current = t.count;
            if desired > current {
                let itype = &t.itype;
                if self.pricing.acquisition_blocked(itype, now) {
                    if let Some(recovery) = self.pricing.recovery_hours(now) {
                        if recovery > now + EPS {
                            out.push((recovery, JobEvent::ScheduleChange));
                        }
                    }
                    continue;
                }
                let price = self.pricing.price_for(itype, now);
                let ids = self.cluster.add_nodes(itype, desired - current, now);
                for id in ids {
                    self.sessions
                        .insert(id, self.billing.start_instance_at_price(itype, now, price));
                    self.idle.insert(id);
                }
                self.schedule[at].count = desired;
            } else if desired < current {
                // Remove idle nodes only (busy nodes finish their task
                // first; the reconciliation is retried at the next wakeup),
                // newest first so long-lived nodes keep their data.
                let leaving: Vec<NodeId> = self
                    .idle
                    .iter()
                    .rev()
                    .copied()
                    .filter(|&id| {
                        self.cluster
                            .node(id)
                            .is_some_and(|n| n.instance_type == t.name)
                    })
                    .take(current - desired)
                    .collect();
                let removed = self.cluster.remove_specific(&leaving, now);
                self.schedule[at].count -= removed.len();
                for rid in removed {
                    self.idle.remove(&rid);
                    if let Some(session) = self.sessions.remove(&rid) {
                        self.billing.stop_instance(session, now);
                    }
                }
            }
        }
    }

    /// Moves upload-pending map tasks whose split has finished uploading
    /// by `now` into the per-location dispatch index.
    fn promote_available(&mut self, now: f64) {
        while let Some(&(available_at, idx, location)) = self.upload_pending.get(self.upload_cursor)
        {
            if available_at > now + EPS {
                break;
            }
            self.runnable_maps.entry(location).or_default().insert(idx);
            self.upload_cursor += 1;
        }
    }

    /// Dispatches runnable tasks onto idle nodes, pushing a `TaskFinish`
    /// wakeup for each dispatch. Candidates come from the per-location
    /// dispatch index, not a scan over every task: for each idle node the
    /// contenders are the lowest-index pending task of every location with
    /// available data (plus the lowest pending reduce once the map barrier
    /// opens), ranked exactly as the old full scan ranked them — highest
    /// scheduler preference first, lowest task index on ties.
    fn dispatch(&mut self, now: f64, out: &mut Vec<(f64, JobEvent)>) {
        self.promote_available(now);
        let upload_gate_open =
            !self.options.upload_before_processing || now >= self.upload_done_at - EPS;
        // Idle nodes in cluster order, the set shrinking as they take work.
        let mut next = NodeId(0);
        loop {
            // With no task left to hand out every remaining node would come
            // up empty: most wakeups end here, whatever the cluster's size.
            let maps_waiting =
                upload_gate_open && self.runnable_maps.values().any(|set| !set.is_empty());
            let reduces_waiting = self.map_remaining == 0 && !self.runnable_reduces.is_empty();
            if !maps_waiting && !reduces_waiting {
                break;
            }
            let Some(&node_id) = self.idle.range(next..).next() else {
                break;
            };
            next = NodeId(node_id.0 + 1);
            let node = self
                .cluster
                .node(node_id)
                .expect("idle node still in cluster");
            // Find the best dispatchable task for this node: max preference,
            // ties to the lowest task index (the order the old linear scan
            // produced, since preference depends only on location + node).
            let mut best: Option<(usize, DataLocation, i32)> = None;
            let mut consider = |idx: usize, location: DataLocation, pref: i32| match best {
                Some((b_idx, _, b_pref)) if pref < b_pref || (pref == b_pref && b_idx < idx) => {}
                _ => best = Some((idx, location, pref)),
            };
            if upload_gate_open {
                for (&location, pending) in &self.runnable_maps {
                    let Some(&idx) = pending.first() else {
                        continue;
                    };
                    if !self.scheduler.may_run(location, node) {
                        continue;
                    }
                    consider(idx, location, self.scheduler.preference(location, node));
                }
            }
            if self.map_remaining == 0 {
                // Barrier open: reduces read shuffled data local to the node.
                if let Some(&idx) = self.runnable_reduces.first() {
                    let location = if node.is_local {
                        DataLocation::LocalDisk
                    } else {
                        DataLocation::InstanceDisk
                    };
                    if self.scheduler.may_run(location, node) {
                        consider(idx, location, self.scheduler.preference(location, node));
                    }
                }
            }
            if let Some((idx, location, _)) = best {
                let rate = self.effective_rate(node, location, self.cluster.len());
                if rate <= 0.0 {
                    continue;
                }
                let data_gb = self.tasks[idx].data_gb;
                let duration = data_gb / rate;
                // A remote read crosses the WAN only when a *cloud* node
                // pulls data from the customer site.
                let wan_gb = if location == DataLocation::ClientSite && !node.is_local {
                    data_gb
                } else {
                    0.0
                };
                let s3_gets = if location == DataLocation::S3 {
                    (data_gb * 1024.0 / self.options.object_size_mb).ceil() as u64
                } else {
                    0
                };
                self.tasks[idx].state = TaskState::Running {
                    node: node_id,
                    finish_at: now + duration,
                };
                match self.tasks[idx].kind {
                    TaskKind::Map => {
                        if let Some(pending) = self.runnable_maps.get_mut(&location) {
                            pending.remove(&idx);
                        }
                    }
                    TaskKind::Reduce => {
                        self.runnable_reduces.remove(&idx);
                    }
                }
                self.running.push(Running {
                    task_idx: idx,
                    node: node_id,
                    finish_at: now + duration,
                    wan_gb,
                    s3_gets,
                    on_cloud_node: !node.is_local,
                });
                self.idle.remove(&node_id);
                out.push((now + duration, JobEvent::TaskFinish));
            }
        }
    }

    /// Post-processing once every task retired: result download, storage
    /// billing, session teardown. Returns the completion hour and stores
    /// the finished [`ExecutionReport`].
    fn finalize(&mut self, processing_done: f64) -> f64 {
        // Only the share of the output produced in the cloud has to cross
        // the WAN back to the customer.
        let cloud_fraction = if self.spec.input_gb > 0.0 {
            (self.cloud_processed_gb / self.spec.input_gb).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let download_gb = self.spec.output_gb() * cloud_fraction;
        self.phases.download_hours = if self.options.uplink_gbph > 0.0 {
            download_gb / self.options.uplink_gbph
        } else {
            0.0
        };
        let completion = processing_done + self.phases.download_hours;

        // WAN charges for remote reads and the result download.
        if self.wan_in_extra > 0.0 {
            self.billing
                .record_transfer(self.wan_in_extra, TransferDirection::In);
        }
        self.billing
            .record_transfer(download_gb, TransferDirection::Out);

        // S3 residency: data sits on S3 from (roughly) the middle of its
        // upload window until the job completes, plus the PUT/GET requests.
        if self.s3_gb > 0.0 {
            if let Some(s3) = self.catalog.storage("S3") {
                let residency = (completion - self.upload_done_at / 2.0).max(0.0);
                let puts = (self.s3_gb * 1024.0 / self.options.object_size_mb).ceil() as u64;
                self.billing
                    .record_storage(s3, self.s3_gb, residency, puts, self.total_s3_gets);
            }
        }
        // Instance-disk and local-disk storage is free but recorded so the
        // cost breakdown carries the category.
        let disk_gb: f64 = self
            .splits
            .iter()
            .filter(|s| {
                matches!(
                    s.location,
                    DataLocation::InstanceDisk | DataLocation::LocalDisk
                )
            })
            .map(|s| s.gb)
            .sum();
        if disk_gb > 0.0 {
            if let Some(disk) = self.catalog.storage("EC2-disk") {
                self.billing.record_storage(disk, disk_gb, completion, 0, 0);
            }
        }

        // Stop renting everything at the completion time.
        for (_, session) in std::mem::take(&mut self.sessions) {
            self.billing.stop_instance(session, completion);
        }

        let met_deadline = self.options.deadline_hours.map(|d| completion <= d + EPS);
        self.report = Some(ExecutionReport {
            name: self.options.name.clone(),
            completion_hours: completion,
            phases: self.phases,
            total_cost: self.billing.total_cost(),
            cost_breakdown: self.billing.breakdown().clone(),
            met_deadline,
            task_timeline: std::mem::take(&mut self.task_timeline),
            allocation_timeline: self.cluster.allocation_timeline().to_vec(),
            total_tasks: self.tasks.len(),
            wan_in_gb: self.billing.uploaded_gb,
            wan_out_gb: self.billing.downloaded_gb,
        });
        completion
    }

    /// Effective processing rate of `node` for input at `location`, in
    /// GB/h. Node throughputs are catalog figures calibrated on the
    /// reference workload; they scale by `spec.throughput_scale()` for the
    /// workload at hand — the same scaling the planner's capacity model
    /// applies, so plans and simulated executions agree for non-reference
    /// workloads.
    fn effective_rate(
        &self,
        node: &crate::cluster::SimNode,
        location: DataLocation,
        cluster_size: usize,
    ) -> f64 {
        let node_gbph = node.throughput_gbph * self.spec.throughput_scale();
        match location {
            DataLocation::InstanceDisk | DataLocation::LocalDisk => node_gbph,
            DataLocation::S3 => node_gbph * self.options.s3_throughput_factor,
            DataLocation::ClientSite => {
                // Remote readers share the customer uplink.
                let share = self.options.uplink_gbph / cluster_size.max(1) as f64;
                node_gbph.min(share)
            }
        }
    }
}

/// The complete serializable state of one [`JobExecution`], for
/// checkpoint/resume. Every runtime field travels — including the billing
/// ledger, the dispatch index and the task timeline — so a restored
/// execution is field-for-field identical to the live one and produces the
/// same wakeup handling, costs and final report bit for bit. What is a
/// function of other fields (the idle set, the schedule view, the step
/// markers) does not travel: restore re-derives it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionSnapshot {
    catalog: Catalog,
    spec: JobSpec,
    options: DeploymentOptions,
    scheduler: SchedulerSnapshot,
    pricing: SessionPricing,
    billing: BillingAccount,
    cluster: Cluster,
    sessions: BTreeMap<NodeId, u64>,
    tasks: Vec<Task>,
    splits: Vec<Split>,
    running: Vec<Running>,
    runnable_maps: BTreeMap<DataLocation, BTreeSet<usize>>,
    runnable_reduces: BTreeSet<usize>,
    upload_pending: Vec<(f64, usize, DataLocation)>,
    upload_cursor: usize,
    task_timeline: Vec<(f64, usize)>,
    completed: usize,
    map_remaining: usize,
    wan_in_extra: f64,
    total_s3_gets: u64,
    cloud_processed_gb: f64,
    phases: PhaseBreakdown,
    upload_done_at: f64,
    s3_gb: f64,
    straggler_extensions: usize,
    phase: JobPhase,
    report: Option<ExecutionReport>,
}

impl JobExecution<'_> {
    /// Captures the full runtime state (see [`ExecutionSnapshot`]).
    pub fn snapshot(&self) -> ExecutionSnapshot {
        ExecutionSnapshot {
            catalog: self.catalog.clone(),
            spec: self.spec.clone(),
            options: self.options.clone(),
            scheduler: self.scheduler.snapshot(),
            pricing: self.pricing.clone(),
            billing: self.billing.clone(),
            cluster: self.cluster.clone(),
            sessions: self.sessions.clone(),
            tasks: self.tasks.clone(),
            splits: self.splits.clone(),
            running: self.running.iter().copied().collect(),
            runnable_maps: self.runnable_maps.clone(),
            runnable_reduces: self.runnable_reduces.clone(),
            upload_pending: self.upload_pending.clone(),
            upload_cursor: self.upload_cursor,
            task_timeline: self.task_timeline.clone(),
            completed: self.completed,
            map_remaining: self.map_remaining,
            wan_in_extra: self.wan_in_extra,
            total_s3_gets: self.total_s3_gets,
            cloud_processed_gb: self.cloud_processed_gb,
            phases: self.phases,
            upload_done_at: self.upload_done_at,
            s3_gb: self.s3_gb,
            straggler_extensions: self.straggler_extensions,
            phase: self.phase,
            report: self.report.clone(),
        }
    }
}

impl ExecutionSnapshot {
    /// Rebuilds the execution exactly as captured; the scheduler is
    /// reconstructed from its snapshot, so the result owns all its state
    /// (hence the `'static` lifetime). The derived indexes are not part of
    /// the snapshot and are recomputed here.
    pub fn restore(&self) -> JobExecution<'static> {
        let job = JobExecution {
            idle: idle_nodes(&self.cluster, &self.running),
            schedule: schedule_view(&self.options.node_schedule, &self.catalog, &self.cluster),
            schedule_points: schedule_points(&self.options.node_schedule),
            catalog: self.catalog.clone(),
            spec: self.spec.clone(),
            options: self.options.clone(),
            scheduler: self.scheduler.rebuild(),
            pricing: self.pricing.clone(),
            billing: self.billing.clone(),
            cluster: self.cluster.clone(),
            sessions: self.sessions.clone(),
            tasks: self.tasks.clone(),
            splits: self.splits.clone(),
            running: RunningTasks::from_dispatch_order(&self.running),
            runnable_maps: self.runnable_maps.clone(),
            runnable_reduces: self.runnable_reduces.clone(),
            upload_pending: self.upload_pending.clone(),
            upload_cursor: self.upload_cursor,
            task_timeline: self.task_timeline.clone(),
            completed: self.completed,
            map_remaining: self.map_remaining,
            wan_in_extra: self.wan_in_extra,
            total_s3_gets: self.total_s3_gets,
            cloud_processed_gb: self.cloud_processed_gb,
            phases: self.phases,
            upload_done_at: self.upload_done_at,
            s3_gb: self.s3_gb,
            straggler_extensions: self.straggler_extensions,
            phase: self.phase,
            report: self.report.clone(),
        };
        job.debug_check_indexes(&job.schedule_points);
        job
    }
}

fn crosses_wan(loc: DataLocation) -> bool {
    matches!(loc, DataLocation::S3 | DataLocation::InstanceDisk)
}

fn validate(catalog: &Catalog, options: &DeploymentOptions) -> Result<(), EngineError> {
    // `!(x > 0.0)` rather than `x <= 0.0`: a NaN must fail the check too.
    if !(options.uplink_gbph > 0.0 && options.uplink_gbph.is_finite()) {
        return Err(EngineError::InvalidOptions(
            "uplink bandwidth must be positive and finite".into(),
        ));
    }
    for (name, value) in [
        ("s3_throughput_factor", options.s3_throughput_factor),
        ("max_hours", options.max_hours),
    ] {
        if !value.is_finite() {
            return Err(EngineError::InvalidOptions(format!(
                "{name} must be finite (got {value})"
            )));
        }
    }
    let frac: f64 = options.upload_plan.iter().map(|(_, f)| *f).sum();
    if !(0.0..=1.0 + EPS).contains(&frac) {
        return Err(EngineError::InvalidOptions(format!(
            "upload fractions must sum to at most 1 (got {frac})"
        )));
    }
    if options
        .upload_plan
        .iter()
        .any(|(loc, _)| *loc == DataLocation::ClientSite)
    {
        return Err(EngineError::InvalidOptions(
            "the client site is the upload source, not a destination".into(),
        ));
    }
    for alloc in &options.node_schedule {
        if !(alloc.from_hour >= 0.0 && alloc.from_hour.is_finite()) {
            return Err(EngineError::InvalidOptions(format!(
                "node schedule for `{}` starts at hour {}, which is not a finite hour >= 0",
                alloc.instance_type, alloc.from_hour
            )));
        }
        if catalog.instance(&alloc.instance_type).is_none() {
            return Err(EngineError::InvalidOptions(format!(
                "unknown instance type `{}` in node schedule",
                alloc.instance_type
            )));
        }
    }
    Ok(())
}

/// Assigns each map split an upload destination and availability time.
///
/// Splits are uploaded back to back over the uplink in the order of the
/// upload plan (e.g. "first roughly half to S3, then the rest to EC2
/// disks", as in the Figure 8 scenario); splits not covered by the plan
/// stay at the client site and are available immediately (for remote
/// reads).
fn plan_splits(spec: &JobSpec, options: &DeploymentOptions) -> Vec<Split> {
    let n = spec.map_tasks();
    let split_gb = if n > 0 { spec.input_gb / n as f64 } else { 0.0 };
    let mut splits = Vec::with_capacity(n);
    let mut assigned = 0usize;
    let mut elapsed = 0.0f64;
    for (location, fraction) in &options.upload_plan {
        let count = ((fraction * n as f64).round() as usize).min(n - assigned);
        for _ in 0..count {
            let available_at = if *location == DataLocation::LocalDisk {
                // Local-cluster disks are fed over the LAN, not the uplink.
                0.0
            } else {
                elapsed += split_gb / options.uplink_gbph;
                elapsed
            };
            splits.push(Split {
                location: *location,
                available_at,
                gb: split_gb,
            });
        }
        assigned += count;
    }
    for _ in assigned..n {
        splits.push(Split {
            location: DataLocation::ClientSite,
            available_at: 0.0,
            gb: split_gb,
        });
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::LocalityScheduler;
    use crate::workload::Workload;

    fn execution() -> JobExecution<'static> {
        let catalog = Catalog::aws_with_local_cluster(5);
        let uplink = conductor_cloud::catalog::mbps_to_gb_per_hour(16.0);
        let options = DeploymentOptions::new("splice-test", uplink)
            .with_nodes("m1.large", 4, 0.0)
            .with_nodes("local", 5, 0.0);
        JobExecution::new(
            &catalog,
            &Workload::KMeans32Gb.spec(),
            options,
            Box::new(LocalityScheduler),
            SessionPricing::OnDemand,
        )
        .unwrap()
    }

    #[test]
    fn splice_releases_compute_types_the_new_schedule_dropped() {
        let mut exec = execution();
        exec.on_wakeup(0.0); // allocate the initial cluster
        assert_eq!(exec.cluster.count_of("m1.large"), 4);
        // Re-plan keeps only the free local nodes from hour 1 on.
        let wakeups = exec.splice_node_schedule(
            1.0,
            1.0,
            vec![NodeAllocation {
                from_hour: 1.0,
                instance_type: "local".into(),
                nodes: 5,
            }],
        );
        // A synthetic zero step for the dropped type is in the schedule...
        assert!(
            exec.node_schedule()
                .iter()
                .any(|s| s.instance_type == "m1.large" && s.from_hour == 1.0 && s.nodes == 0),
            "{:?}",
            exec.node_schedule()
        );
        // ...and once the wakeups past the splice fire, the rented nodes
        // wind down as their tasks retire (billing sessions close).
        let mut pending: Vec<(f64, JobEvent)> = wakeups;
        pending.extend(exec.on_wakeup(1.0));
        let mut horizon = 1.0;
        while exec.cluster.count_of("m1.large") > 0 && horizon < 50.0 {
            horizon = exec
                .next_event_hours(horizon)
                .expect("job still has events");
            pending.extend(exec.on_wakeup(horizon));
        }
        assert_eq!(
            exec.cluster.count_of("m1.large"),
            0,
            "dropped type still allocated at hour {horizon}"
        );
        assert_eq!(exec.cluster.count_of("local"), 5);
    }

    /// Four m1.large nodes reading `spec`'s input from the client site:
    /// every map task is dispatchable at hour zero, the event horizon has no
    /// upload arrivals, and equal splits on equal nodes finish at the same
    /// instant.
    fn client_site_execution(spec: &JobSpec, pricing: SessionPricing) -> JobExecution<'static> {
        let options = DeploymentOptions {
            upload_plan: vec![],
            ..DeploymentOptions::new(
                "client-site",
                conductor_cloud::catalog::mbps_to_gb_per_hour(16.0),
            )
            .with_nodes("m1.large", 4, 0.0)
        };
        JobExecution::new(
            &Catalog::aws_july_2011(),
            spec,
            options,
            Box::new(LocalityScheduler),
            pricing,
        )
        .unwrap()
    }

    /// Client-site reads, so these tests observe the market effects in
    /// isolation.
    fn spot_execution(prices: Vec<f64>, bid: f64) -> JobExecution<'static> {
        let market = SpotMarket::new(
            conductor_cloud::SpotTrace::from_prices(conductor_cloud::TraceKind::AwsLike, prices),
            0.34,
        );
        client_site_execution(
            &Workload::KMeans32Gb.spec(),
            SessionPricing::Spot {
                market,
                start_offset_hours: 0.0,
                bid,
            },
        )
    }

    #[test]
    fn kill_returns_running_tasks_and_skips_the_partial_hour_charge() {
        let mut exec = spot_execution(vec![0.2; 10], 0.34);
        exec.on_wakeup(0.0);
        assert_eq!(exec.cluster.count_of("m1.large"), 4);
        let running_before = exec.running.len();
        assert!(running_before > 0);
        // Revoked half an hour in: no completed hour, so nothing charged.
        let (killed, _) = exec.kill_cloud_nodes(0.5);
        assert_eq!(killed, 4);
        assert_eq!(exec.cluster.len(), 0);
        assert!(exec.running.is_empty());
        assert_eq!(
            exec.billing
                .breakdown()
                .get(conductor_cloud::CostCategory::Computation),
            0.0
        );
        // The interrupted work went back to the dispatch index as runnable.
        let runnable = exec
            .tasks
            .iter()
            .filter(|t| matches!(t.state, TaskState::Runnable))
            .count();
        assert_eq!(runnable, running_before);
        let indexed: usize = exec.runnable_maps.values().map(|s| s.len()).sum();
        assert_eq!(
            indexed,
            exec.tasks
                .iter()
                .filter(|t| {
                    t.kind == TaskKind::Map
                        && matches!(t.state, TaskState::WaitingForData | TaskState::Runnable)
                })
                .count(),
            "index lost the returned work"
        );
    }

    #[test]
    fn out_bid_market_blocks_acquisition_until_recovery() {
        // Price above the bid for hours 0-1, back down at hour 2.
        let mut exec = spot_execution(vec![0.5, 0.5, 0.2, 0.2, 0.2], 0.34);
        let wakeups = exec.on_wakeup(0.0);
        assert_eq!(exec.cluster.len(), 0, "acquired while out-bid");
        // The reconciliation scheduled a retry at the recovery hour...
        assert!(
            wakeups
                .iter()
                .any(|&(t, e)| e == JobEvent::ScheduleChange && (t - 2.0).abs() < 1e-9),
            "{wakeups:?}"
        );
        // ...and the job is not considered stuck while it waits.
        assert_eq!(exec.next_event_hours(0.0), Some(2.0));
        // At recovery the market grants the request.
        exec.on_wakeup(2.0);
        assert_eq!(exec.cluster.count_of("m1.large"), 4);
    }

    #[test]
    fn permanently_out_bid_market_is_reported_stuck() {
        // The trace ends expensive: past-the-end hours clamp to 0.5, so the
        // price never comes back to the bid and the job truly starves.
        let mut exec = spot_execution(vec![0.5], 0.34);
        exec.on_wakeup(0.0);
        assert_eq!(exec.cluster.len(), 0);
        assert_eq!(exec.next_event_hours(0.0), None);
    }

    #[test]
    fn abort_closes_sessions_and_keeps_the_accrued_bill() {
        let mut exec = execution();
        exec.on_wakeup(0.0);
        let report = exec.abort(2.5);
        // The 32 GB upload was billed at construction; the 4 cloud nodes
        // ran 2.5 h -> 3 billed hours each. Local nodes are free.
        assert!((report.wan_in_gb - 32.0).abs() < 1e-9);
        let compute = report
            .cost_breakdown
            .get(conductor_cloud::CostCategory::Computation);
        assert!(
            (compute - 4.0 * 3.0 * 0.34).abs() < 1e-9,
            "compute {compute}"
        );
        assert_eq!(report.met_deadline, None); // no deadline configured
        assert!((report.completion_hours - 2.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        // Price spike at hour 1 exercises the spot pricing state; drive the
        // live execution partway, snapshot, then race both to completion.
        let prices = vec![0.2, 0.5, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2];
        let mut live = spot_execution(prices, 0.34);
        live.on_wakeup(0.0);
        let horizon = drive_from(&mut live, 0.0, 3);
        assert_resumes_bit_for_bit(live, horizon);
    }

    #[test]
    fn scale_down_releases_the_newest_idle_nodes_first() {
        // Processing waits for the whole upload, so every node stays idle.
        let options = DeploymentOptions {
            upload_before_processing: true,
            ..DeploymentOptions::new(
                "scale-down",
                conductor_cloud::catalog::mbps_to_gb_per_hour(16.0),
            )
            .with_nodes("m1.large", 2, 0.0)
            .with_nodes("m1.large", 4, 0.1)
            .with_nodes("m1.large", 3, 0.2)
        };
        let mut exec = JobExecution::new(
            &Catalog::aws_july_2011(),
            &Workload::KMeans32Gb.spec(),
            options,
            Box::new(LocalityScheduler),
            SessionPricing::OnDemand,
        )
        .unwrap();
        for hour in [0.0, 0.1, 0.2] {
            exec.on_wakeup(hour);
        }
        let ids: Vec<usize> = exec.cluster.nodes().iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "the youngest node leaves");
        assert_eq!(
            exec.cluster.allocation_timeline(),
            &[(0.0, 2), (0.1, 4), (0.2, 3)]
        );
    }

    /// Steps `exec` from `horizon` through its own event horizon until it is
    /// done (or `max_wakeups` ran); returns the last hour it woke at.
    fn drive_from(exec: &mut JobExecution<'_>, mut horizon: f64, max_wakeups: usize) -> f64 {
        for _ in 0..max_wakeups {
            if exec.is_done() {
                break;
            }
            let Some(t) = exec.next_event_hours(horizon) else {
                break;
            };
            exec.on_wakeup(t);
            horizon = t;
        }
        horizon
    }

    #[test]
    fn restore_after_a_splice_finishes_like_the_straight_run() {
        // Four m1.large and five local nodes; at hour 1 a re-plan drops
        // m1.large for two c1.xlarge, so the schedule view changes types.
        let mut live = execution();
        live.on_wakeup(0.0);
        let mut horizon = 0.0;
        for _ in 0..10_000 {
            if horizon >= 1.0 {
                break;
            }
            horizon = drive_from(&mut live, horizon, 1);
        }
        assert!(horizon >= 1.0 && !live.is_done());
        live.splice_node_schedule(
            horizon,
            horizon,
            vec![
                NodeAllocation {
                    from_hour: horizon,
                    instance_type: "c1.xlarge".into(),
                    nodes: 2,
                },
                NodeAllocation {
                    from_hour: horizon,
                    instance_type: "local".into(),
                    nodes: 5,
                },
            ],
        );
        live.on_wakeup(horizon);
        assert_eq!(live.cluster.count_of("c1.xlarge"), 2);
        let horizon = drive_from(&mut live, horizon, 3);
        assert_resumes_bit_for_bit(live, horizon);
    }

    /// 0.25 GB in 64 MB splits: four map tasks, one per node, then a reduce.
    fn four_map_spec() -> JobSpec {
        JobSpec {
            input_gb: 0.25,
            reduce_tasks: 1,
            ..Workload::KMeans32Gb.spec()
        }
    }

    #[test]
    fn tasks_due_at_one_instant_retire_in_dispatch_order() {
        let mut exec = client_site_execution(&four_map_spec(), SessionPricing::OnDemand);
        exec.on_wakeup(0.0);
        let dispatched: Vec<Running> = exec.running.iter().copied().collect();
        assert_eq!(dispatched.len(), 4);
        let finish = dispatched[0].finish_at;
        assert!(dispatched.iter().all(|r| r.finish_at == finish));
        // Later dispatches finish earlier, all within the kernel's
        // simultaneity tolerance of `finish`: the heap pops them in the
        // reverse of dispatch order, and retirement must not follow it.
        let nudged: Vec<Running> = dispatched
            .iter()
            .enumerate()
            .map(|(seq, &r)| Running {
                finish_at: finish - seq as f64 * 1e-10,
                ..r
            })
            .collect();
        for r in &nudged {
            exec.tasks[r.task_idx].state = TaskState::Running {
                node: r.node,
                finish_at: r.finish_at,
            };
        }
        exec.running = RunningTasks::from_dispatch_order(&nudged);
        assert_eq!(exec.next_event_hours(0.0), Some(nudged[3].finish_at));

        exec.on_wakeup(finish);
        let expected: Vec<(f64, usize)> = nudged
            .iter()
            .enumerate()
            .map(|(at, r)| (r.finish_at, at + 1))
            .collect();
        assert_eq!(exec.task_timeline, expected);
        // The map barrier closes on the last map retired, which is the last
        // one dispatched, not the last one to finish.
        assert_eq!(
            exec.phases.map_done_at.to_bits(),
            nudged[3].finish_at.to_bits()
        );
        assert_eq!(exec.completed, 4);
    }

    #[test]
    fn restore_while_running_tasks_share_a_finish_time_resumes_bit_for_bit() {
        let mut live =
            client_site_execution(&Workload::KMeans32Gb.spec(), SessionPricing::OnDemand);
        live.on_wakeup(0.0);
        let horizon = drive_from(&mut live, 0.0, 5);
        let next = live.running.next_finish().expect("tasks in flight");
        let tied = live.running.iter().filter(|r| r.finish_at == next).count();
        assert!(tied >= 2, "{tied} running tasks finish at {next}");
        assert_resumes_bit_for_bit(live, horizon);
    }

    #[test]
    fn a_zero_gb_task_finishing_at_hour_zero_retires_first() {
        let mut exec = client_site_execution(&four_map_spec(), SessionPricing::OnDemand);
        // The last map dispatched at hour zero has no data to read.
        exec.tasks[3].data_gb = 0.0;
        exec.on_wakeup(0.0);
        let dispatched: Vec<usize> = exec.running.iter().map(|r| r.task_idx).collect();
        assert_eq!(dispatched, vec![0, 1, 2, 3]);
        assert_eq!(exec.next_event_hours(0.0), Some(0.0));

        exec.on_wakeup(0.0);
        assert_eq!(exec.task_timeline, vec![(0.0, 1)]);
        assert!(matches!(
            exec.tasks[3].state,
            TaskState::Completed { at } if at == 0.0
        ));
        assert_eq!(exec.running.len(), 3);
        assert!(exec.running.next_finish().is_some_and(|t| t > 0.0));
    }

    /// Snapshots `live` through JSON, restores it, drives both copies to
    /// completion from `horizon` and demands the same end state.
    fn assert_resumes_bit_for_bit(mut live: JobExecution<'static>, horizon: f64) {
        let mut resumed = snapshot_roundtrip(&live.snapshot()).restore();
        drive_from(&mut live, horizon, 10_000);
        drive_from(&mut resumed, horizon, 10_000);
        assert!(live.is_done());
        assert!(resumed.is_done());
        // The whole end state — report, billing ledger, timeline — must be
        // identical, not merely close.
        assert_eq!(
            serde_json::to_string(&live.snapshot()).unwrap(),
            serde_json::to_string(&resumed.snapshot()).unwrap(),
            "resumed execution diverged from the uninterrupted run"
        );
    }

    /// Serializes and deserializes the snapshot so the test covers the full
    /// persistence path, not just the in-memory clone.
    fn snapshot_roundtrip(snap: &ExecutionSnapshot) -> ExecutionSnapshot {
        serde_json::from_str(&serde_json::to_string(snap).unwrap()).expect("snapshot round-trip")
    }
}
