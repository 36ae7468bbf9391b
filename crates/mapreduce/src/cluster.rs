//! The simulated compute cluster: nodes, slots and time-varying allocations.

use conductor_cloud::InstanceType;
use serde::{Deserialize, Serialize};

/// Identifier of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// A set of node ids, one bit per id in 64-bit words. Ids are handed out
/// densely from zero, so the words span the ids a job has ever used; trailing
/// empty words are dropped, which keeps equal sets equal word for word.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    pub(crate) fn insert(&mut self, id: NodeId) {
        let (word, bit) = (id.0 / 64, id.0 % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << bit;
    }

    pub(crate) fn remove(&mut self, id: NodeId) {
        let (word, bit) = (id.0 / 64, id.0 % 64);
        if let Some(w) = self.words.get_mut(word) {
            *w &= !(1 << bit);
        }
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// The least id in the set that is `from` or above.
    pub(crate) fn first_from(&self, from: NodeId) -> Option<NodeId> {
        let (word, bit) = (from.0 / 64, from.0 % 64);
        let first = self.words.get(word)? & (u64::MAX << bit);
        std::iter::once(first)
            .chain(self.words[word + 1..].iter().copied())
            .enumerate()
            .find(|&(_, w)| w != 0)
            .map(|(at, w)| NodeId((word + at) * 64 + w.trailing_zeros() as usize))
    }

    /// The ids in descending order.
    pub(crate) fn iter_rev(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().rev().flat_map(|(word, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = 63 - rest.leading_zeros() as usize;
                    rest ^= 1 << bit;
                    NodeId(word * 64 + bit)
                })
            })
        })
    }
}

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

    /// The position of node `id` in [`Self::nodes`], looking from position
    /// `from` on. Ids rise by at least one a position, so the node lies at
    /// most as many places past `from` as its id is past that node's, and
    /// exactly there while no id between them has left: that place is read
    /// first, and only a gap left by a removal costs a binary search.
    pub(crate) fn position_from(&self, from: usize, id: NodeId) -> Option<usize> {
        let tail = self.nodes.get(from..)?;
        let gap = id.0.checked_sub(tail.first()?.id.0)?;
        let guess = gap.min(tail.len() - 1);
        if tail[guess].id == id {
            return Some(from + guess);
        }
        let at = tail[..guess].binary_search_by_key(&id, |n| n.id).ok()?;
        Some(from + at)
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

    /// Seeded inserts and removes over ids 0..=200 (four words, a partial
    /// last one), with `first_from` checked at every id and past the end and
    /// the reverse walk checked against a `BTreeSet` after every step.
    #[test]
    fn node_set_agrees_with_a_btreeset() {
        use std::collections::BTreeSet;
        const IDS: usize = 201;
        let check = |set: &NodeSet, model: &BTreeSet<NodeId>| {
            for from in 0..IDS + 70 {
                assert_eq!(
                    set.first_from(NodeId(from)),
                    model.range(NodeId(from)..).next().copied(),
                    "first_from({from}) of {model:?}"
                );
            }
            assert!(set.iter_rev().eq(model.iter().rev().copied()));
            // Equal sets are equal bitmaps, whatever was removed.
            let mut rebuilt = NodeSet::default();
            for &id in model {
                rebuilt.insert(id);
            }
            assert_eq!(*set, rebuilt);
        };
        let mut set = NodeSet::default();
        let mut model = BTreeSet::new();
        for id in [0, 63, 64, 127, 128, 200] {
            set.insert(NodeId(id));
            model.insert(NodeId(id));
            check(&set, &model);
        }
        // A linear congruential generator: the sequence is the same in
        // every run.
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let id = NodeId((state >> 33) as usize % IDS);
            if state >> 63 == 1 {
                set.insert(id);
                model.insert(id);
            } else {
                set.remove(id);
                model.remove(&id);
            }
            check(&set, &model);
        }
        // Removing an id past the last word is a no-op.
        set.remove(NodeId(10_000));
        check(&set, &model);
        for id in model.clone() {
            set.remove(id);
            model.remove(&id);
        }
        check(&set, &model);
        assert_eq!(set, NodeSet::default());
    }

    /// Before and after removals leave gaps in the ids, `position_from`
    /// finds every member from every position at or before it, and nothing
    /// else.
    #[test]
    fn position_from_agrees_with_the_lookup() {
        let mut c = Cluster::new();
        let ids = c.add_nodes(&m1_large(), 12, 0.0);
        let check = |c: &Cluster| {
            for id in (0..16).map(NodeId) {
                let at = c.nodes().iter().position(|n| n.id == id);
                for from in 0..c.len() + 2 {
                    let expected = at.filter(|&at| from <= at);
                    assert_eq!(c.position_from(from, id), expected, "{id:?} from {from}");
                }
                assert_eq!(at.map(|at| &c.nodes()[at]), c.node(id));
            }
        };
        check(&c);
        c.remove_specific(&[ids[0], ids[3], ids[4], ids[11]], 1.0);
        check(&c);
        c.add_nodes(&m1_large(), 2, 2.0);
        check(&c);
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
