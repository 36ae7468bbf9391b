//! Execution plans: the solver's output translated into deployable actions.
//!
//! A plan lists, for every planning interval, how many nodes of each compute
//! resource to rent, how much data to upload into each storage resource, and
//! how much to migrate — exactly the decisions the job controller hands to
//! the storage service and the cluster allocator (§5.2). Plans also convert
//! directly into [`conductor_mapreduce::DeploymentOptions`] so they can be
//! executed on the simulated Hadoop cluster.

use crate::model::ModelInstance;
use conductor_lp::Solution;
use conductor_mapreduce::{DataLocation, DeploymentOptions, NodeAllocation};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The planned actions of a single interval.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IntervalPlan {
    /// Nodes to keep rented per compute resource.
    pub nodes: BTreeMap<String, usize>,
    /// GB to upload into each storage resource during this interval.
    pub upload_gb: BTreeMap<String, f64>,
    /// GB expected to be processed by the map phase.
    pub map_gb: f64,
    /// GB expected to be processed by the reduce phase.
    pub reduce_gb: f64,
    /// GB of output expected to be downloaded.
    pub download_gb: f64,
    /// GB to migrate between storage resources (`(from, to) -> GB`).
    pub migrations: BTreeMap<(String, String), f64>,
}

/// A complete execution plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Length of one interval in hours.
    pub interval_hours: f64,
    /// Per-interval actions, index 0 = the first interval after planning.
    pub intervals: Vec<IntervalPlan>,
    /// The solver's estimate of the total monetary cost (USD).
    pub expected_cost: f64,
    /// The planner's estimate of the completion time in hours (the end of the
    /// last interval with any planned activity).
    pub expected_completion_hours: f64,
    /// Whether the solver proved the plan optimal (within its gap) or merely
    /// feasible within its time budget (§4.8).
    pub proven_optimal: bool,
}

impl ExecutionPlan {
    /// Extracts a plan from a solved model.
    pub fn from_solution(model: &ModelInstance, solution: &Solution) -> Self {
        let t_count = model.config.horizon_intervals;
        let dt = model.config.interval_hours;
        let round = |x: f64| if x.abs() < 1e-6 { 0.0 } else { x };

        let mut intervals = Vec::with_capacity(t_count);
        for t in 0..t_count {
            let mut plan = IntervalPlan::default();
            for ((name, t2), var) in &model.vars.nodes {
                if *t2 == t {
                    let n = solution.value(*var).round().max(0.0) as usize;
                    if n > 0 {
                        plan.nodes.insert(name.clone(), n);
                    }
                }
            }
            for ((name, t2), var) in &model.vars.upload {
                if *t2 == t {
                    let gb = round(solution.value(*var));
                    if gb > 0.0 {
                        plan.upload_gb.insert(name.clone(), gb);
                    }
                }
            }
            for ((_, t2), var) in &model.vars.proc_map {
                if *t2 == t {
                    plan.map_gb += round(solution.value(*var));
                }
            }
            for ((_, t2), var) in &model.vars.proc_reduce {
                if *t2 == t {
                    plan.reduce_gb += round(solution.value(*var));
                }
            }
            for ((from, to, t2), var) in &model.vars.migrate {
                if *t2 == t {
                    let gb = round(solution.value(*var));
                    if gb > 0.0 {
                        plan.migrations.insert((from.clone(), to.clone()), gb);
                    }
                }
            }
            plan.download_gb = round(solution.value(model.vars.download[t]));
            intervals.push(plan);
        }

        let last_active = intervals
            .iter()
            .rposition(|p| {
                p.map_gb > 0.0
                    || p.reduce_gb > 0.0
                    || p.download_gb > 0.0
                    || !p.upload_gb.is_empty()
                    || !p.nodes.is_empty()
            })
            .map(|i| i + 1)
            .unwrap_or(0);

        ExecutionPlan {
            interval_hours: dt,
            intervals,
            expected_cost: solution.objective(),
            expected_completion_hours: last_active as f64 * dt,
            proven_optimal: solution.status() == conductor_lp::SolveStatus::Optimal,
        }
    }

    /// Number of planning intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` when the plan has no intervals.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Maximum number of nodes of `compute` rented in any interval.
    pub fn peak_nodes(&self, compute: &str) -> usize {
        self.intervals
            .iter()
            .filter_map(|p| p.nodes.get(compute))
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total node-hours rented per compute resource.
    pub fn node_hours(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for p in &self.intervals {
            for (name, &n) in &p.nodes {
                *out.entry(name.clone()).or_insert(0.0) += n as f64 * self.interval_hours;
            }
        }
        out
    }

    /// Fraction of the total upload destined for each storage resource.
    pub fn storage_mix(&self) -> BTreeMap<String, f64> {
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        for p in &self.intervals {
            for (name, gb) in &p.upload_gb {
                *totals.entry(name.clone()).or_insert(0.0) += gb;
            }
        }
        let sum: f64 = totals.values().sum();
        if sum > 0.0 {
            for v in totals.values_mut() {
                *v /= sum;
            }
        }
        totals
    }

    /// The node-allocation schedule this plan implies (for the engine and for
    /// Figure 12's allocation timeline).
    pub fn node_schedule(&self) -> Vec<NodeAllocation> {
        let mut schedule = Vec::new();
        let computes: std::collections::BTreeSet<String> = self
            .intervals
            .iter()
            .flat_map(|p| p.nodes.keys().cloned())
            .collect();
        for compute in computes {
            let mut prev = usize::MAX;
            for (t, p) in self.intervals.iter().enumerate() {
                let n = p.nodes.get(&compute).copied().unwrap_or(0);
                if n != prev {
                    schedule.push(NodeAllocation {
                        from_hour: t as f64 * self.interval_hours,
                        instance_type: compute.clone(),
                        nodes: n,
                    });
                    prev = n;
                }
            }
        }
        schedule
    }

    /// Converts the plan into engine deployment options.
    ///
    /// `storage_to_location` maps the pool's storage-resource names onto the
    /// engine's [`DataLocation`]s (e.g. `"S3" -> S3`, `"EC2-disk" ->
    /// InstanceDisk`).
    pub fn to_deployment_options(
        &self,
        name: impl Into<String>,
        uplink_gbph: f64,
        deadline_hours: Option<f64>,
        storage_to_location: &BTreeMap<String, DataLocation>,
    ) -> DeploymentOptions {
        let mix = self.storage_mix();
        let mut upload_plan: Vec<(DataLocation, f64)> = Vec::new();
        for (storage, fraction) in &mix {
            if let Some(loc) = storage_to_location.get(storage) {
                if *fraction > 0.0 {
                    upload_plan.push((*loc, *fraction));
                }
            }
        }
        DeploymentOptions {
            node_schedule: self.node_schedule(),
            upload_plan,
            deadline_hours,
            ..DeploymentOptions::new(name, uplink_gbph)
        }
    }

    /// The default storage-name → engine-location mapping for the AWS catalog
    /// (plus the hybrid local cluster).
    pub fn default_location_map() -> BTreeMap<String, DataLocation> {
        let mut m = BTreeMap::new();
        m.insert("S3".to_string(), DataLocation::S3);
        m.insert("EC2-disk".to_string(), DataLocation::InstanceDisk);
        m.insert("local-disk".to_string(), DataLocation::LocalDisk);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, ModelInstance};
    use crate::resources::ResourcePool;
    use conductor_cloud::Catalog;
    use conductor_mapreduce::Workload;

    fn solved_plan() -> ExecutionPlan {
        let pool = ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0)
            .with_compute_only(&["m1.large"]);
        let spec = Workload::KMeans32Gb.spec();
        let model = ModelInstance::build(&pool, &spec, &ModelConfig::default()).unwrap();
        let sol = model.problem.solve().unwrap();
        ExecutionPlan::from_solution(&model, &sol)
    }

    #[test]
    fn plan_covers_all_intervals_and_work() {
        let plan = solved_plan();
        assert_eq!(plan.len(), 6);
        let total_map: f64 = plan.intervals.iter().map(|p| p.map_gb).sum();
        assert!((total_map - 32.0).abs() < 1e-3);
        let total_upload: f64 = plan
            .intervals
            .iter()
            .flat_map(|p| p.upload_gb.values())
            .sum();
        assert!((total_upload - 32.0).abs() < 1e-3);
        assert!(plan.expected_cost > 0.0);
        assert!(plan.expected_completion_hours <= 6.0 + 1e-9);
    }

    #[test]
    fn node_hours_match_processing_requirement() {
        let plan = solved_plan();
        let hours = plan.node_hours();
        let large = hours.get("m1.large").copied().unwrap_or(0.0);
        // At 0.44 GB/h per node, 32 GB needs at least ~73 node-hours.
        assert!(large >= 32.0 / 0.44 - 1e-6, "node-hours {large}");
        assert!(plan.peak_nodes("m1.large") >= 13);
        assert_eq!(plan.peak_nodes("c1.xlarge"), 0);
    }

    #[test]
    fn storage_mix_fractions_sum_to_one() {
        let plan = solved_plan();
        let mix = plan.storage_mix();
        let sum: f64 = mix.values().sum();
        assert!((sum - 1.0).abs() < 1e-6, "mix {mix:?}");
    }

    #[test]
    fn node_schedule_is_a_step_function_in_time_order() {
        let plan = solved_plan();
        let schedule = plan.node_schedule();
        assert!(!schedule.is_empty());
        let mut prev = -1.0;
        for step in schedule.iter().filter(|s| s.instance_type == "m1.large") {
            assert!(step.from_hour > prev);
            prev = step.from_hour;
        }
    }

    #[test]
    fn deployment_options_reflect_the_plan() {
        let plan = solved_plan();
        let opts = plan.to_deployment_options(
            "conductor",
            6.7,
            Some(6.0),
            &ExecutionPlan::default_location_map(),
        );
        assert_eq!(opts.deadline_hours, Some(6.0));
        assert!(!opts.node_schedule.is_empty());
        let frac: f64 = opts.upload_plan.iter().map(|(_, f)| *f).sum();
        assert!((frac - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_plan_behaves() {
        let plan = ExecutionPlan {
            interval_hours: 1.0,
            intervals: vec![],
            expected_cost: 0.0,
            expected_completion_hours: 0.0,
            proven_optimal: true,
        };
        assert!(plan.is_empty());
        assert_eq!(plan.peak_nodes("m1.large"), 0);
        assert!(plan.node_schedule().is_empty());
        assert!(plan.storage_mix().is_empty());
    }
}
