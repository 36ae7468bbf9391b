//! # conductor-mapreduce
//!
//! A discrete-event MapReduce execution engine, standing in for the Hadoop
//! 0.20.2 deployment the paper extends (§5.3). It simulates, at task
//! granularity, the execution of a MapReduce job over a set of compute nodes
//! whose number can change over time (as Conductor's plans dictate), with
//! input data arriving over a bandwidth-limited customer uplink and living on
//! one of several storage locations.
//!
//! The engine reproduces the behaviours the evaluation depends on:
//!
//! * an upload phase (optionally overlapped with processing, "streamed
//!   processing" in Figure 6),
//! * map tasks that become runnable when their input split is available at a
//!   location the scheduler accepts, and run at a rate determined by where
//!   the data lives (node-local disk, S3, or remote client-side HDFS over the
//!   uplink),
//! * a shuffle + reduce phase and final result download,
//! * two schedulers: Hadoop's locality-preferring default and Conductor's
//!   plan-following location-aware scheduler (§5.3),
//! * per-task completion timelines (Figure 12) and node-allocation timelines,
//! * billing integration through [`conductor_cloud::BillingAccount`].

//!
//! # The public surface
//!
//! There are two ways in:
//!
//! * [`Engine::run`] — deploy one [`JobSpec`] under [`DeploymentOptions`]
//!   with a [`LocalityScheduler`] or [`PlanFollowingScheduler`] on a private
//!   clock, start to finish, and get an [`ExecutionReport`] (or an
//!   [`EngineError`]);
//! * [`JobExecution`] — the same deployment as a process on the caller's
//!   clock, advanced by [`JobEvent`] wakeups: what the fleet runs many of
//!   at once. It reports [`JobPhase`] and [`ExecutionProgress`] as it goes,
//!   bills under a [`SessionPricing`], and checkpoints bit for bit through
//!   [`ExecutionSnapshot`].
//!
//! [`Workload`] names the paper's jobs, [`DataLocation`] where input lives,
//! [`NodeAllocation`] one step of a node schedule and [`nodes_at`] reads a
//! schedule at an hour; [`REFERENCE_INSTANCE_GBPH`] is the throughput a
//! [`JobSpec`] is measured against. [`PhaseBreakdown`], [`Scheduler`],
//! [`SchedulerSnapshot`], [`SimNode`] and [`NodeId`] appear in the
//! signatures above. The cluster, the tasks and the kernel behind them are
//! private.

mod cluster;
// Public as a path: `benchmark/src/fixtures.rs` imports
// `conductor_mapreduce::engine::DeploymentOptions`.
pub mod engine;
mod execution;
mod scheduler;
mod task;
mod workload;

pub use cluster::{nodes_at, NodeAllocation, NodeId, SimNode};
pub use engine::{
    DataLocation, DeploymentOptions, Engine, EngineError, ExecutionReport, PhaseBreakdown,
};
pub use execution::{
    ExecutionProgress, ExecutionSnapshot, JobEvent, JobExecution, JobPhase, SessionPricing,
};
pub use scheduler::{LocalityScheduler, PlanFollowingScheduler, Scheduler, SchedulerSnapshot};
pub use workload::{JobSpec, Workload, REFERENCE_INSTANCE_GBPH};
