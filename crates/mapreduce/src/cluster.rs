//! The simulated compute cluster: nodes, slots and time-varying allocations.

use conductor_cloud::InstanceType;
use serde::{Deserialize, Serialize};

/// Identifier of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// One simulated worker node (an EC2 instance or a local-cluster machine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimNode {
    /// Node identifier.
    pub id: NodeId,
    /// Instance type name (`"m1.large"`, `"local"`, ...).
    pub instance_type: String,
    /// Application throughput of this node in GB/h.
    pub throughput_gbph: f64,
    /// Capacity of the node's virtual disk in GB.
    pub disk_gb: f64,
    /// Simulation hour at which the node joined the cluster.
    pub joined_at: f64,
    /// `true` when the node belongs to the customer's own cluster.
    pub is_local: bool,
}

/// A step in a node-allocation schedule: starting at `from_hour`, keep
/// `nodes` instances of `instance_type` allocated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeAllocation {
    /// Hour (inclusive) from which this allocation level applies.
    pub from_hour: f64,
    /// Instance type to allocate.
    pub instance_type: String,
    /// Number of instances to keep allocated from `from_hour` on.
    pub nodes: usize,
}

/// The set of worker nodes currently part of the MapReduce cluster.
///
/// Conductor changes the cluster size over time by following the plan's
/// per-interval node counts; the [`Cluster`] records joins and removals so
/// the engine can bill rentals correctly and the Figure 12 timeline can be
/// reconstructed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct Cluster {
    nodes: Vec<SimNode>,
    next_id: usize,
    /// `(hour, node_count)` samples recorded at every membership change.
    allocation_timeline: Vec<(f64, usize)>,
}

impl Cluster {
    /// Creates an empty cluster.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds `count` nodes of the given instance type at simulation hour `now`,
    /// using the instance's measured throughput. Returns the new node ids.
    pub(crate) fn add_nodes(
        &mut self,
        itype: &InstanceType,
        count: usize,
        now: f64,
    ) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let id = NodeId(self.next_id);
            self.next_id += 1;
            self.nodes.push(SimNode {
                id,
                instance_type: itype.name.clone(),
                throughput_gbph: itype.measured_throughput_gbph,
                disk_gb: itype.disk_gb,
                joined_at: now,
                is_local: itype.is_local(),
            });
            ids.push(id);
        }
        self.record(now);
        ids
    }

    /// Removes exactly the listed nodes (ids not present are ignored) at hour
    /// `now` and returns the ids actually removed, in cluster order.
    pub(crate) fn remove_specific(&mut self, ids: &[NodeId], now: f64) -> Vec<NodeId> {
        if ids.is_empty() {
            // A scale-down waiting on busy nodes asks at every wakeup.
            return Vec::new();
        }
        let mut doomed = ids.to_vec();
        doomed.sort_unstable();
        let mut removed = Vec::with_capacity(doomed.len());
        self.nodes.retain(|n| {
            let leaves = doomed.binary_search(&n.id).is_ok();
            if leaves {
                removed.push(n.id);
            }
            !leaves
        });
        if !removed.is_empty() {
            self.record(now);
        }
        removed
    }

    fn record(&mut self, now: f64) {
        self.allocation_timeline.push((now, self.nodes.len()));
    }

    /// All current member nodes.
    pub(crate) fn nodes(&self) -> &[SimNode] {
        &self.nodes
    }

    /// Current number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes of a given instance type.
    pub(crate) fn count_of(&self, instance_type: &str) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.instance_type == instance_type)
            .count()
    }

    /// Looks up a node by id. Ids are handed out in increasing order and
    /// removals keep the survivors' order, so `nodes` is always sorted by
    /// id and the lookup is a binary search.
    pub(crate) fn node(&self, id: NodeId) -> Option<&SimNode> {
        let at = self.nodes.binary_search_by_key(&id, |n| n.id).ok()?;
        Some(&self.nodes[at])
    }

    /// The `(hour, node_count)` membership-change samples recorded so far —
    /// the "allocated EC2 instances" series of Figure 12(a).
    pub(crate) fn allocation_timeline(&self) -> &[(f64, usize)] {
        &self.allocation_timeline
    }
}

/// Expands a step schedule into the node count that should be active at a
/// given hour (the last step whose `from_hour` is ≤ `hour` wins; 0 before the
/// first step).
pub fn nodes_at(schedule: &[NodeAllocation], instance_type: &str, hour: f64) -> usize {
    schedule
        .iter()
        .filter(|a| a.instance_type == instance_type && a.from_hour <= hour + 1e-9)
        .max_by(|a, b| a.from_hour.partial_cmp(&b.from_hour).unwrap())
        .map(|a| a.nodes)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conductor_cloud::Catalog;

    fn m1_large() -> InstanceType {
        Catalog::aws_july_2011()
            .instance("m1.large")
            .unwrap()
            .clone()
    }

    #[test]
    fn adding_and_removing_nodes_updates_counts() {
        let mut c = Cluster::new();
        let ids = c.add_nodes(&m1_large(), 3, 0.0);
        assert_eq!(ids.len(), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.count_of("m1.large"), 3);
        let removed = c.remove_specific(&[ids[2], ids[0]], 1.0);
        assert_eq!(
            removed,
            vec![ids[0], ids[2]],
            "removed ids come back in cluster order"
        );
        assert_eq!(c.len(), 1);
        // Removing an absent id is a no-op and records no sample.
        assert!(c.remove_specific(&[NodeId(99)], 1.0).is_empty());
        assert_eq!(c.allocation_timeline().len(), 2);
    }

    #[test]
    fn node_ids_are_unique_across_membership_changes() {
        let mut c = Cluster::new();
        let first = c.add_nodes(&m1_large(), 2, 0.0);
        c.remove_specific(&first, 1.0);
        let second = c.add_nodes(&m1_large(), 2, 2.0);
        for id in &second {
            assert!(!first.contains(id));
        }
    }

    #[test]
    fn allocation_timeline_records_changes() {
        let mut c = Cluster::new();
        let first = c.add_nodes(&m1_large(), 3, 0.0);
        let second = c.add_nodes(&m1_large(), 2, 1.0);
        c.remove_specific(&[first[1], first[2], second[0], second[1]], 2.0);
        let tl = c.allocation_timeline();
        assert_eq!(tl, &[(0.0, 3), (1.0, 5), (2.0, 1)]);
    }

    #[test]
    fn schedule_lookup_uses_latest_step() {
        let schedule = vec![
            NodeAllocation {
                from_hour: 0.0,
                instance_type: "m1.large".into(),
                nodes: 3,
            },
            NodeAllocation {
                from_hour: 1.0,
                instance_type: "m1.large".into(),
                nodes: 16,
            },
            NodeAllocation {
                from_hour: 2.0,
                instance_type: "m1.large".into(),
                nodes: 18,
            },
        ];
        assert_eq!(nodes_at(&schedule, "m1.large", 0.5), 3);
        assert_eq!(nodes_at(&schedule, "m1.large", 1.0), 16);
        assert_eq!(nodes_at(&schedule, "m1.large", 5.0), 18);
        assert_eq!(nodes_at(&schedule, "local", 5.0), 0);
    }
}
