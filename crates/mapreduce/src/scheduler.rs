//! Task schedulers: Hadoop's locality-preferring default and Conductor's
//! plan-following location-aware scheduler (§5.3).
//!
//! The original Hadoop scheduler will happily run a task on a non-local node
//! and stream its input over the network, which can violate the execution
//! plan (unplanned transfers congest the uplink and add cost). Conductor's
//! scheduler only marks a task runnable when its input data sits at a
//! location the plan allows for that compute resource.

use crate::cluster::SimNode;
use crate::engine::DataLocation;
use crate::task::Task;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which scheduler implementation is in use (for reports and ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Hadoop's default behaviour: locality preferred, remote reads allowed.
    Locality,
    /// Conductor's extension: only plan-approved locations are acceptable.
    PlanFollowing,
}

/// Decides whether a task may run on a node given where its input currently
/// lives, and ranks candidate locations by preference.
///
/// Implementations must decide from `(location, node)` alone — the `task`
/// argument is context, not a discriminator. The engine's dispatch index
/// buckets pending tasks per location and probes one representative task
/// per bucket, which is only equivalent to scanning every task under this
/// contract (both schedulers here honor it).
pub trait Scheduler {
    /// `true` if a task whose input is available at `location` may be
    /// dispatched to `node` right now. Must not vary across tasks at the
    /// same `location` (see the trait docs).
    fn may_run(&self, task: &Task, location: DataLocation, node: &SimNode) -> bool;

    /// Preference score for running a task whose data is at `location` on
    /// `node` (higher is better); used to break ties between runnable tasks.
    fn preference(&self, location: DataLocation, node: &SimNode) -> i32;

    /// Which implementation this is.
    fn kind(&self) -> SchedulerKind;

    /// A serializable image of this scheduler's configuration;
    /// [`SchedulerSnapshot::rebuild`] reconstructs an equivalent scheduler.
    /// Both implementations are pure policy over small data, so the image
    /// is the kind plus (for the plan follower) the permission map.
    fn snapshot(&self) -> SchedulerSnapshot;
}

/// Serializable scheduler configuration for checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSnapshot {
    /// [`LocalityScheduler`].
    Locality,
    /// [`PlanFollowingScheduler`] with its permission map.
    PlanFollowing {
        /// Allowed input locations per instance-type name.
        allowed: BTreeMap<String, Vec<DataLocation>>,
    },
}

impl SchedulerSnapshot {
    /// Reconstructs a scheduler equivalent to the one the snapshot was
    /// taken from.
    pub fn rebuild(&self) -> Box<dyn Scheduler + Send + 'static> {
        match self {
            SchedulerSnapshot::Locality => Box::new(LocalityScheduler),
            SchedulerSnapshot::PlanFollowing { allowed } => Box::new(PlanFollowingScheduler {
                allowed: allowed.clone(),
            }),
        }
    }
}

// Delegation through references, so a borrowed scheduler can be boxed into
// a `Box<dyn Scheduler + '_>` (the execution process owns its scheduler;
// `Engine::run` passes one in by reference).
impl<S: Scheduler + ?Sized> Scheduler for &S {
    fn may_run(&self, task: &Task, location: DataLocation, node: &SimNode) -> bool {
        (**self).may_run(task, location, node)
    }

    fn preference(&self, location: DataLocation, node: &SimNode) -> i32 {
        (**self).preference(location, node)
    }

    fn kind(&self) -> SchedulerKind {
        (**self).kind()
    }

    fn snapshot(&self) -> SchedulerSnapshot {
        (**self).snapshot()
    }
}

/// Hadoop's default scheduler: every available task is runnable anywhere;
/// data-local placements are merely preferred.
#[derive(Debug, Clone, Default)]
pub struct LocalityScheduler;

impl Scheduler for LocalityScheduler {
    fn may_run(&self, _task: &Task, _location: DataLocation, _node: &SimNode) -> bool {
        true
    }

    fn preference(&self, location: DataLocation, node: &SimNode) -> i32 {
        match location {
            DataLocation::InstanceDisk if !node.is_local => 3,
            DataLocation::LocalDisk if node.is_local => 3,
            DataLocation::S3 => 2,
            DataLocation::ClientSite => 0,
            _ => 1,
        }
    }

    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Locality
    }

    fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot::Locality
    }
}

/// Conductor's plan-following scheduler: per compute resource (instance type),
/// only the locations listed in the execution plan are acceptable input
/// sources. Tasks whose data is anywhere else stay queued (§5.3: "the
/// scheduler sets tasks runnable when their input data is either stored
/// locally to that resource or on a different storage resource specified in
/// the plan").
#[derive(Debug, Clone, Default)]
pub struct PlanFollowingScheduler {
    /// Allowed input locations per instance-type name.
    allowed: BTreeMap<String, Vec<DataLocation>>,
}

impl PlanFollowingScheduler {
    /// Creates a scheduler with no permissions (nothing runnable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Allows tasks running on `instance_type` nodes to read input from
    /// `location`.
    pub fn allow(&mut self, instance_type: impl Into<String>, location: DataLocation) -> &mut Self {
        self.allowed
            .entry(instance_type.into())
            .or_default()
            .push(location);
        self
    }

    /// Convenience: the permission set Conductor derives from a typical
    /// cloud-only plan (EC2 nodes may read from their own disks and from S3).
    pub fn cloud_only_defaults() -> Self {
        let mut s = Self::new();
        for itype in ["m1.large", "m1.xlarge", "c1.xlarge"] {
            s.allow(itype, DataLocation::InstanceDisk);
            s.allow(itype, DataLocation::S3);
        }
        s
    }

    /// The allowed locations for an instance type (empty if none configured).
    pub fn allowed_for(&self, instance_type: &str) -> &[DataLocation] {
        self.allowed
            .get(instance_type)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

impl Scheduler for PlanFollowingScheduler {
    fn may_run(&self, _task: &Task, location: DataLocation, node: &SimNode) -> bool {
        self.allowed_for(&node.instance_type).contains(&location)
    }

    fn preference(&self, location: DataLocation, node: &SimNode) -> i32 {
        // Same locality preference as Hadoop among the allowed locations.
        LocalityScheduler.preference(location, node)
    }

    fn kind(&self) -> SchedulerKind {
        SchedulerKind::PlanFollowing
    }

    fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot::PlanFollowing {
            allowed: self.allowed.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeId;
    use crate::task::{TaskId, TaskKind};

    fn ec2_node() -> SimNode {
        SimNode {
            id: NodeId(0),
            instance_type: "m1.large".into(),
            throughput_gbph: 0.44,
            disk_gb: 850.0,
            joined_at: 0.0,
            is_local: false,
        }
    }

    fn task() -> Task {
        Task::new(TaskId(0), TaskKind::Map, 0.0625)
    }

    #[test]
    fn locality_scheduler_runs_anything_but_prefers_local_data() {
        let s = LocalityScheduler;
        let node = ec2_node();
        assert!(s.may_run(&task(), DataLocation::ClientSite, &node));
        assert!(s.may_run(&task(), DataLocation::S3, &node));
        assert!(
            s.preference(DataLocation::InstanceDisk, &node) > s.preference(DataLocation::S3, &node)
        );
        assert!(
            s.preference(DataLocation::S3, &node) > s.preference(DataLocation::ClientSite, &node)
        );
        assert_eq!(s.kind(), SchedulerKind::Locality);
    }

    #[test]
    fn plan_following_scheduler_blocks_unplanned_locations() {
        let s = PlanFollowingScheduler::cloud_only_defaults();
        let node = ec2_node();
        assert!(s.may_run(&task(), DataLocation::InstanceDisk, &node));
        assert!(s.may_run(&task(), DataLocation::S3, &node));
        // Reading from the customer site was not part of the plan.
        assert!(!s.may_run(&task(), DataLocation::ClientSite, &node));
        assert_eq!(s.kind(), SchedulerKind::PlanFollowing);
    }

    #[test]
    fn empty_plan_permits_nothing() {
        let s = PlanFollowingScheduler::new();
        assert!(!s.may_run(&task(), DataLocation::InstanceDisk, &ec2_node()));
        assert!(s.allowed_for("m1.large").is_empty());
    }

    #[test]
    fn allow_accumulates_locations() {
        let mut s = PlanFollowingScheduler::new();
        s.allow("m1.large", DataLocation::S3);
        s.allow("m1.large", DataLocation::InstanceDisk);
        assert_eq!(s.allowed_for("m1.large").len(), 2);
    }
}
