//! The discrete-event MapReduce execution engine.
//!
//! [`Engine::run`] simulates one job deployment end to end: input upload over
//! the customer uplink, map tasks scheduled onto a (possibly time-varying)
//! set of nodes, the shuffle/reduce phase, and the final result download. It
//! meters every chargeable operation through a
//! [`conductor_cloud::BillingAccount`] and records the task-completion and
//! node-allocation timelines plotted in Figure 12.
//!
//! The engine is a thin driver: all job state lives in a
//! [`crate::execution::JobExecution`] process, and the engine wakes it at
//! the hours the process itself names as its next event. The fleet-level
//! service in `conductor-core` runs many of the same processes on one
//! shared [`conductor_sim::Simulator`] clock.

use crate::cluster::NodeAllocation;
use crate::execution::{JobExecution, JobPhase, SessionPricing};
use crate::scheduler::Scheduler;
use crate::workload::JobSpec;
use conductor_cloud::{Catalog, CostBreakdown};
use serde::{Deserialize, Serialize};

/// Where a piece of data currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DataLocation {
    /// The customer's own site (input source / output destination).
    ClientSite,
    /// An S3-style object store.
    S3,
    /// The virtual disk of a cloud instance.
    InstanceDisk,
    /// A disk in the customer's local cluster.
    LocalDisk,
}

/// Options describing one deployment strategy (the knobs that differ between
/// "Conductor", "Hadoop upload first", "Hadoop direct" and "Hadoop S3" in
/// §6.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentOptions {
    /// Label used in reports.
    pub name: String,
    /// Customer uplink bandwidth in GB/h.
    pub uplink_gbph: f64,
    /// Node allocation schedule (per instance type, step function over time).
    pub node_schedule: Vec<NodeAllocation>,
    /// Where the input is uploaded before/while processing: a list of
    /// `(location, fraction_of_input)` entries. Fractions that do not sum to
    /// one leave the remainder at the client site (to be read remotely).
    pub upload_plan: Vec<(DataLocation, f64)>,
    /// `true` when processing must wait for the entire upload to finish
    /// ("Hadoop upload first" and "Hadoop S3"); `false` enables streamed
    /// processing.
    pub upload_before_processing: bool,
    /// Multiplier on node throughput when the input is read from S3 instead
    /// of a local disk (S3 read path overhead).
    pub s3_throughput_factor: f64,
    /// Job deadline in hours, if any (reported, not enforced).
    pub deadline_hours: Option<f64>,
    /// Object size used when translating uploads into PUT/GET requests (MB).
    pub object_size_mb: f64,
    /// Safety cap on simulated hours; the run fails if the job has not
    /// finished by then.
    pub max_hours: f64,
}

impl DeploymentOptions {
    /// Reasonable defaults for a cloud-only deployment: 16 Mbit/s uplink,
    /// streamed processing, data on instance disks.
    pub fn new(name: impl Into<String>, uplink_gbph: f64) -> Self {
        Self {
            name: name.into(),
            uplink_gbph,
            node_schedule: Vec::new(),
            upload_plan: vec![(DataLocation::InstanceDisk, 1.0)],
            upload_before_processing: false,
            s3_throughput_factor: 0.7,
            deadline_hours: None,
            object_size_mb: 64.0,
            max_hours: 200.0,
        }
    }

    /// Adds a node-allocation step.
    pub fn with_nodes(mut self, instance_type: &str, nodes: usize, from_hour: f64) -> Self {
        self.node_schedule.push(NodeAllocation {
            from_hour,
            instance_type: instance_type.into(),
            nodes,
        });
        self
    }
}

/// Per-phase timing of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Hours until the last uploaded split became available in the cloud
    /// (zero when everything is read remotely).
    pub upload_hours: f64,
    /// Hour at which the last map task completed.
    pub map_done_at: f64,
    /// Hour at which the last reduce task completed.
    pub reduce_done_at: f64,
    /// Hours spent downloading the final output.
    pub download_hours: f64,
}

/// The result of simulating one deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Deployment label.
    pub name: String,
    /// End-to-end completion time in hours (including the result download).
    pub completion_hours: f64,
    /// Per-phase timing.
    pub phases: PhaseBreakdown,
    /// Total monetary cost in USD.
    pub total_cost: f64,
    /// Per-category cost breakdown (Figure 5).
    pub cost_breakdown: CostBreakdown,
    /// Whether the deadline was met (`None` when no deadline was set).
    pub met_deadline: Option<bool>,
    /// `(hour, cumulative completed tasks)` samples (Figure 12b): one
    /// sample per distinct completion hour, the count after every task
    /// finishing at that hour.
    pub task_timeline: Vec<(f64, usize)>,
    /// `(hour, allocated nodes)` samples (Figure 12a).
    pub allocation_timeline: Vec<(f64, usize)>,
    /// Total number of tasks in the job.
    pub total_tasks: usize,
    /// GB shipped from the customer into the cloud.
    pub wan_in_gb: f64,
    /// GB shipped from the cloud back to the customer.
    pub wan_out_gb: f64,
}

/// Errors the engine can report.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The job did not finish within `max_hours` simulated hours (typically a
    /// schedule with no nodes).
    DidNotFinish {
        /// Hours simulated before giving up.
        simulated_hours: f64,
        /// Tasks completed at that point.
        completed_tasks: usize,
    },
    /// The deployment options are inconsistent.
    InvalidOptions(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DidNotFinish { simulated_hours, completed_tasks } => write!(
                f,
                "job did not finish within {simulated_hours} simulated hours ({completed_tasks} tasks done)"
            ),
            EngineError::InvalidOptions(msg) => write!(f, "invalid deployment options: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The simulation engine. Holds the catalog so multiple runs can share it.
#[derive(Debug, Clone)]
pub struct Engine {
    catalog: Catalog,
}

impl Engine {
    /// Creates an engine over a service catalog.
    pub fn new(catalog: Catalog) -> Self {
        Self { catalog }
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Simulates one deployment of `spec` under `options`, with `scheduler`
    /// deciding task placement.
    ///
    /// The run is a discrete-event loop over one process: every wakeup
    /// advances the [`JobExecution`] (retire finishes, reconcile the
    /// cluster, dispatch tasks), and the process's own next-event hour is
    /// the next wakeup, until the download completes.
    pub fn run(
        &self,
        spec: &JobSpec,
        options: &DeploymentOptions,
        scheduler: &(dyn Scheduler + Sync),
    ) -> Result<ExecutionReport, EngineError> {
        let job = JobExecution::new(
            &self.catalog,
            spec,
            options.clone(),
            Box::new(scheduler),
            SessionPricing::OnDemand,
        )?;
        drive_to_completion(job)
    }
}

/// Drives one [`JobExecution`] until it finishes (or fails). Shared by
/// [`Engine::run`] and the engine-level tests.
///
/// The loop keeps no event heap. It wakes the job at the earliest of its
/// [`JobExecution::initial_events`], and after each wakeup at
/// [`JobExecution::next_event_hours`]: that one value is both the stuck
/// check (`None` while processing) and the next wakeup hour. This wakes
/// the job at exactly the hours, and with exactly the `now`, that popping
/// the job's own events off a [`conductor_sim::Simulator`] in batches
/// ([`conductor_sim::Simulator::pop_due`]) would, so every report is the
/// same bit for bit:
///
/// - A run here is on-demand, with no kill and no splice, so every event
///   the heap would hold is one of five wakeup sources: the kickoff, a
///   schedule step marker above `EPS` (the kernel's simultaneity tolerance
///   [`conductor_sim::TIME_EPSILON`]), a distinct split availability above
///   `EPS`, a dispatched task's finish, and the download.
/// - While processing, `next_event_hours` returns the least of exactly the
///   future ones: the earliest running finish (including a task dispatched
///   at `now` that finishes within `EPS` of it, which the heap would pop
///   next), the first step marker and the first split availability above
///   `now + EPS`. A spot recovery hour, its fourth term, never arises
///   on-demand. A straggler extension adds a step *at* `now`, which is
///   never a future marker.
/// - `pop_due` takes every event within `EPS` of the batch's first, and
///   the handlers retire and promote with the same `now + EPS` window
///   (`retire_finished`, `promote_available`), so an event the heap would
///   have swallowed into a batch is one the wakeup at the batch's first
///   hour already settled, and the least remaining event is the least
///   value `next_event_hours` names.
/// - While downloading, `next_event_hours` names the download's end. The
///   heap could still hold step markers between the last retirement and
///   that hour; their wakeups do nothing in the `Downloading` phase, and
///   [`JobExecution::into_report`] does not read the clock, so skipping
///   them changes nothing.
///
/// The `max_hours` cap is checked before each processing wakeup, as the
/// heap loop checked it on each popped batch.
pub(crate) fn drive_to_completion(
    mut job: JobExecution<'_>,
) -> Result<ExecutionReport, EngineError> {
    let mut now = job
        .initial_events()
        .into_iter()
        .map(|(t, _)| t)
        .fold(f64::INFINITY, f64::min);
    // The follow-ups are the heap's entries; the next-event hour already
    // covers them, so one buffer is cleared and reused.
    let mut follow_ups = Vec::new();
    loop {
        if matches!(job.phase(), JobPhase::Processing) && now > job.max_hours() {
            return Err(EngineError::DidNotFinish {
                simulated_hours: job.max_hours(),
                completed_tasks: job.completed_tasks(),
            });
        }
        follow_ups.clear();
        job.wakeup_into(now, &mut follow_ups);
        if job.is_done() {
            return Ok(job.into_report());
        }
        // `None` only while processing: nothing is running and nothing
        // will change, so the job is stuck.
        let Some(next) = job.next_event_hours(now) else {
            return Err(EngineError::DidNotFinish {
                simulated_hours: now,
                completed_tasks: job.completed_tasks(),
            });
        };
        now = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{LocalityScheduler, PlanFollowingScheduler};
    use crate::workload::Workload;
    use conductor_cloud::CostCategory;

    fn engine() -> Engine {
        Engine::new(Catalog::aws_with_local_cluster(5))
    }

    fn uplink_16mbit() -> f64 {
        conductor_cloud::catalog::mbps_to_gb_per_hour(16.0)
    }

    /// The Conductor cloud-only deployment of §6.2: 16 m1.large nodes storing
    /// data on their own disks, streamed processing.
    fn conductor_options() -> DeploymentOptions {
        DeploymentOptions {
            deadline_hours: Some(6.0),
            ..DeploymentOptions::new("conductor", uplink_16mbit()).with_nodes("m1.large", 16, 0.0)
        }
    }

    #[test]
    fn conductor_style_run_meets_six_hour_deadline() {
        let spec = Workload::KMeans32Gb.spec();
        let report = engine()
            .run(
                &spec,
                &conductor_options(),
                &PlanFollowingScheduler::cloud_only_defaults(),
            )
            .unwrap();
        assert_eq!(
            report.met_deadline,
            Some(true),
            "completion {}",
            report.completion_hours
        );
        assert!(
            report.completion_hours > 4.0,
            "unrealistically fast: {}",
            report.completion_hours
        );
        assert_eq!(report.total_tasks, 528);
        assert_eq!(report.task_timeline.last().unwrap().1, 528);
    }

    #[test]
    fn upload_first_is_slower_than_streamed() {
        let spec = Workload::KMeans32Gb.spec();
        let eng = engine();
        let streamed = eng
            .run(
                &spec,
                &conductor_options(),
                &PlanFollowingScheduler::cloud_only_defaults(),
            )
            .unwrap();
        // Upload to a single node first, then 100 nodes process.
        let upload_hours = 32.0 / uplink_16mbit();
        let upload_first = DeploymentOptions {
            upload_before_processing: true,
            deadline_hours: Some(6.0),
            ..DeploymentOptions::new("hadoop-upload-first", uplink_16mbit())
                .with_nodes("m1.large", 1, 0.0)
                .with_nodes("m1.large", 100, upload_hours)
        };
        let uf = eng.run(&spec, &upload_first, &LocalityScheduler).unwrap();
        assert!(uf.completion_hours > streamed.completion_hours);
    }

    #[test]
    fn hadoop_s3_costs_roughly_double_the_others() {
        // §6.2: the Hadoop-S3 option finishes processing in just over an hour
        // but pays two full hours for each of 100 instances, roughly doubling
        // the cost of the other options.
        let spec = Workload::KMeans32Gb.spec();
        let eng = engine();
        let upload_hours = 32.0 / uplink_16mbit();
        let s3_opts = DeploymentOptions {
            upload_plan: vec![(DataLocation::S3, 1.0)],
            upload_before_processing: true,
            deadline_hours: Some(6.0),
            ..DeploymentOptions::new("hadoop-s3", uplink_16mbit()).with_nodes(
                "m1.large",
                100,
                upload_hours,
            )
        };
        let s3_report = eng.run(&spec, &s3_opts, &LocalityScheduler).unwrap();
        let conductor = eng
            .run(
                &spec,
                &conductor_options(),
                &PlanFollowingScheduler::cloud_only_defaults(),
            )
            .unwrap();
        assert!(
            s3_report.total_cost > 1.6 * conductor.total_cost,
            "s3 {} vs conductor {}",
            s3_report.total_cost,
            conductor.total_cost
        );
        // Processing itself (after upload) took between 1 and 2 hours.
        let processing = s3_report.phases.map_done_at - upload_hours;
        assert!(
            processing > 1.0 && processing < 2.0,
            "processing {processing}"
        );
    }

    #[test]
    fn fewer_nodes_miss_the_deadline_more_nodes_cost_more() {
        // Figure 7: 11 nodes miss the 6h deadline, 21 nodes cost more than 16.
        let spec = Workload::KMeans32Gb.spec();
        let eng = engine();
        let sched = PlanFollowingScheduler::cloud_only_defaults();
        let run = |nodes: usize| {
            let opts = DeploymentOptions {
                deadline_hours: Some(6.0),
                ..DeploymentOptions::new(format!("{nodes}-nodes"), uplink_16mbit())
                    .with_nodes("m1.large", nodes, 0.0)
            };
            eng.run(&spec, &opts, &sched).unwrap()
        };
        let r11 = run(11);
        let r16 = run(16);
        let r21 = run(21);
        assert_eq!(r11.met_deadline, Some(false));
        assert_eq!(r16.met_deadline, Some(true));
        assert_eq!(r21.met_deadline, Some(true));
        assert!(r21.total_cost > r16.total_cost);
    }

    #[test]
    fn plan_following_scheduler_refuses_unplanned_remote_reads() {
        // All data stays at the client site but the plan only allows disk/S3
        // reads: with no other data source the job can never finish.
        let spec = Workload::KMeans32Gb.spec();
        let opts = DeploymentOptions {
            upload_plan: vec![],
            ..DeploymentOptions::new("stuck", uplink_16mbit()).with_nodes("m1.large", 4, 0.0)
        };
        let err = engine()
            .run(&spec, &opts, &PlanFollowingScheduler::cloud_only_defaults())
            .unwrap_err();
        assert!(matches!(err, EngineError::DidNotFinish { .. }));
        // The locality scheduler happily reads remotely and finishes.
        let ok = engine().run(&spec, &opts, &LocalityScheduler).unwrap();
        assert!(ok.completion_hours.is_finite());
    }

    #[test]
    fn local_cluster_runs_are_free() {
        let spec = Workload::KMeans32Gb.spec();
        let opts = DeploymentOptions {
            upload_plan: vec![],
            max_hours: 400.0,
            ..DeploymentOptions::new("local-only", uplink_16mbit()).with_nodes("local", 5, 0.0)
        };
        let report = engine().run(&spec, &opts, &LocalityScheduler).unwrap();
        assert_eq!(report.cost_breakdown.get(CostCategory::Computation), 0.0);
        // Only the result download is charged.
        assert!(report.total_cost < 1.0, "cost {}", report.total_cost);
        // 5 nodes at 0.44 GB/h cannot meet a 6h deadline for 32 GB.
        assert!(report.completion_hours > 6.0);
    }

    #[test]
    fn local_cluster_cap_is_enforced() {
        // Asking for 50 "local" nodes only yields the 5 that exist.
        let spec = Workload::KMeans32Gb.spec();
        let opts = DeploymentOptions {
            upload_plan: vec![],
            max_hours: 400.0,
            ..DeploymentOptions::new("local-capped", uplink_16mbit()).with_nodes("local", 50, 0.0)
        };
        let report = engine().run(&spec, &opts, &LocalityScheduler).unwrap();
        assert!(report.allocation_timeline.iter().all(|&(_, n)| n <= 5));
    }

    #[test]
    fn schedule_increase_mid_job_is_reflected_in_timeline() {
        // Figure 12: start with 3 nodes, go to 16 after one hour, 18 after two.
        let spec = Workload::KMeans32Gb.spec();
        let opts = DeploymentOptions {
            deadline_hours: Some(6.0),
            ..DeploymentOptions::new("adaptive", uplink_16mbit())
                .with_nodes("m1.large", 3, 0.0)
                .with_nodes("m1.large", 16, 1.0)
                .with_nodes("m1.large", 18, 2.0)
        };
        let report = engine()
            .run(&spec, &opts, &PlanFollowingScheduler::cloud_only_defaults())
            .unwrap();
        let max_nodes = report
            .allocation_timeline
            .iter()
            .map(|&(_, n)| n)
            .max()
            .unwrap();
        assert_eq!(max_nodes, 18);
        let early_nodes = report
            .allocation_timeline
            .iter()
            .filter(|&&(t, _)| t < 0.5)
            .map(|&(_, n)| n)
            .max()
            .unwrap();
        assert_eq!(early_nodes, 3);
    }

    #[test]
    fn cost_breakdown_covers_transfer_compute_and_storage() {
        let spec = Workload::KMeans32Gb.spec();
        let upload_hours = 32.0 / uplink_16mbit();
        let opts = DeploymentOptions {
            upload_plan: vec![(DataLocation::S3, 1.0)],
            upload_before_processing: true,
            ..DeploymentOptions::new("s3", uplink_16mbit()).with_nodes("m1.large", 16, upload_hours)
        };
        let report = engine().run(&spec, &opts, &LocalityScheduler).unwrap();
        assert!(report.cost_breakdown.get(CostCategory::NetworkTransfer) > 0.0);
        assert!(report.cost_breakdown.get(CostCategory::Computation) > 0.0);
        assert!(report.cost_breakdown.get(CostCategory::StorageS3) > 0.0);
        assert!((report.total_cost - report.cost_breakdown.total()).abs() < 1e-9);
        assert!((report.wan_in_gb - 32.0).abs() < 1e-6);
        assert!(report.wan_out_gb > 0.0);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let spec = Workload::KMeans32Gb.spec();
        let eng = engine();
        let bad_uplink = DeploymentOptions::new("bad", 0.0);
        assert!(matches!(
            eng.run(&spec, &bad_uplink, &LocalityScheduler),
            Err(EngineError::InvalidOptions(_))
        ));
        let mut bad_frac = DeploymentOptions::new("bad", 1.0);
        bad_frac.upload_plan = vec![(DataLocation::S3, 0.8), (DataLocation::InstanceDisk, 0.8)];
        assert!(matches!(
            eng.run(&spec, &bad_frac, &LocalityScheduler),
            Err(EngineError::InvalidOptions(_))
        ));
        let bad_type = DeploymentOptions::new("bad", 1.0).with_nodes("m9.mega", 1, 0.0);
        assert!(matches!(
            eng.run(&spec, &bad_type, &LocalityScheduler),
            Err(EngineError::InvalidOptions(_))
        ));
        // Non-finite numbers used to slip past every `<=` comparison and
        // panic in the schedule sort.
        let ok = || DeploymentOptions::new("bad", 1.0);
        let non_finite = [
            DeploymentOptions::new("bad", f64::NAN),
            DeploymentOptions::new("bad", f64::INFINITY),
            ok().with_nodes("m1.large", 1, f64::NAN),
            ok().with_nodes("m1.large", 1, f64::INFINITY),
            ok().with_nodes("m1.large", 1, -1.0),
            DeploymentOptions {
                s3_throughput_factor: f64::NAN,
                ..ok()
            },
            DeploymentOptions {
                max_hours: f64::INFINITY,
                ..ok()
            },
        ];
        for options in &non_finite {
            assert!(
                matches!(
                    eng.run(&spec, options, &LocalityScheduler),
                    Err(EngineError::InvalidOptions(_))
                ),
                "accepted {options:?}"
            );
        }
    }

    #[test]
    fn task_timeline_is_monotonic() {
        let spec = Workload::KMeans32Gb.spec();
        let report = engine()
            .run(
                &spec,
                &conductor_options(),
                &PlanFollowingScheduler::cloud_only_defaults(),
            )
            .unwrap();
        let mut prev_t = 0.0;
        let mut prev_c = 0;
        for &(t, c) in &report.task_timeline {
            assert!(t >= prev_t - 1e-9);
            assert!(c > prev_c, "count {c} after {prev_c}");
            prev_t = t;
            prev_c = c;
        }
        // One sample per distinct completion hour: tasks finishing at the
        // same instant share a sample.
        for pair in report.task_timeline.windows(2) {
            assert_ne!(pair[0].0.to_bits(), pair[1].0.to_bits(), "{pair:?}");
        }
        assert_eq!(report.task_timeline.last().unwrap().1, report.total_tasks);
    }
}
