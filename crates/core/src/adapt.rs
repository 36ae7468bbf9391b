//! Runtime adaptation (§5.4): detect deviations from the model, re-plan from
//! the current state, and splice the updated plan into the deployment.
//!
//! The paper's Figure 12 experiment seeds the model with a wrong per-node
//! throughput (1.44 GB/h predicted vs 0.44 GB/h actual). After the first
//! interval the progress monitor notices the shortfall, Conductor rebuilds
//! the model with the *observed* throughput and the work actually remaining,
//! re-solves, and the updated plan allocates many more nodes so the deadline
//! is still met. [`AdaptiveController`] reproduces that loop on the simulated
//! cluster.

use crate::error::ConductorError;
use crate::goal::Goal;
use crate::model::{InitialState, ModelConfig};
use crate::plan::ExecutionPlan;
use crate::planner::Planner;
use crate::resources::ResourcePool;
use conductor_cloud::Catalog;
use conductor_mapreduce::cluster::NodeAllocation;
use conductor_mapreduce::engine::{Engine, ExecutionReport};
use conductor_mapreduce::JobSpec;
use serde::{Deserialize, Serialize};

/// The result of an adaptive run: both plans plus the execution that followed
/// the spliced schedule (the data behind Figure 12a and 12b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptationReport {
    /// The plan computed before execution started (based on the predicted
    /// throughput).
    pub initial_plan: ExecutionPlan,
    /// The plan computed at the re-planning point from the observed state.
    /// Identical to `initial_plan` when the monitor stayed quiet.
    pub updated_plan: ExecutionPlan,
    /// Hour at which the deviation was detected and the plan recomputed;
    /// `None` when observed progress matched the model's projection and no
    /// re-plan was triggered.
    pub replanned_at_hours: Option<f64>,
    /// Execution report of the full run under the spliced schedule.
    pub execution: ExecutionReport,
    /// Execution report of a run that keeps following the initial plan
    /// (the "would have missed the deadline" counterfactual).
    pub without_adaptation: ExecutionReport,
    /// Node-allocation schedule actually deployed (initial plan up to the
    /// re-planning point, updated plan afterwards).
    pub spliced_schedule: Vec<NodeAllocation>,
}

impl AdaptationReport {
    /// `true` when adaptation rescued the deadline that the un-adapted run
    /// missed.
    pub fn adaptation_rescued_deadline(&self) -> bool {
        self.execution.met_deadline == Some(true)
            && self.without_adaptation.met_deadline == Some(false)
    }

    /// `true` when the monitor detected a deviation and re-planned.
    pub fn replanned(&self) -> bool {
        self.replanned_at_hours.is_some()
    }
}

/// Drives the plan → monitor → re-plan loop.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    catalog: Catalog,
    pool: ResourcePool,
    solve_options: conductor_lp::SolveOptions,
    /// Safety margin subtracted from the remaining deadline when re-planning.
    ///
    /// The model is deliberately optimistic (fluid upload/processing, no task
    /// granularity), so a re-plan that exactly fills the remaining time
    /// finishes its node ramp-down too early and leaves the real engine a
    /// long single-node tail. Planning one interval short absorbs that
    /// optimism; it mirrors how the paper's controller keeps monitoring after
    /// each re-plan instead of trusting a single projection (§5.4).
    replan_margin_hours: f64,
    /// Fractional inflation applied to the *remaining* work the monitor
    /// reports at re-plan time (0.15 = plan for 15 % more work). Covers the
    /// node-hours the task-granular engine loses to data starvation and
    /// interval-boundary stragglers, which the fluid model cannot see.
    monitor_conservatism: f64,
    /// Relative shortfall of observed vs projected map progress below which
    /// the monitor stays quiet (no re-plan). Guards against false
    /// positives: a prediction that matches reality must not trigger the
    /// re-planning machinery.
    deviation_threshold: f64,
}

impl AdaptiveController {
    /// Creates an adaptive controller over a catalog and the resource pool
    /// the planner should use.
    pub fn new(catalog: Catalog, pool: ResourcePool) -> Self {
        Self {
            catalog,
            pool,
            solve_options: conductor_lp::SolveOptions {
                relative_gap: 0.02,
                max_nodes: 2_000,
                time_limit: std::time::Duration::from_secs(60),
                ..conductor_lp::SolveOptions::default()
            },
            replan_margin_hours: 1.0,
            monitor_conservatism: 0.15,
            deviation_threshold: 0.1,
        }
    }

    /// Replaces the solver options used for both planning passes.
    pub fn with_solve_options(mut self, options: conductor_lp::SolveOptions) -> Self {
        self.solve_options = options;
        self
    }

    /// Overrides the re-planning safety margin (see the
    /// `replan_margin_hours` field docs). Zero means trusting the model's
    /// projection exactly.
    pub fn with_replan_margin_hours(mut self, hours: f64) -> Self {
        self.replan_margin_hours = hours.max(0.0);
        self
    }

    /// Overrides the monitor's re-plan trigger: re-plan only when observed
    /// map progress falls short of the model's projection by more than this
    /// fraction (0.1 = 10 % behind).
    pub fn with_deviation_threshold(mut self, fraction: f64) -> Self {
        self.deviation_threshold = fraction.clamp(0.0, 1.0);
        self
    }

    /// Reproduces the §6.4 experiment: plan with `predicted_gbph` per node,
    /// execute against nodes that actually deliver `actual_gbph`, detect the
    /// shortfall after `replan_after_hours`, re-plan with the corrected
    /// throughput and the observed remaining work, and finish under the
    /// spliced schedule.
    pub fn run_with_misprediction(
        &self,
        spec: &JobSpec,
        goal: Goal,
        predicted_gbph: f64,
        actual_gbph: f64,
        replan_after_hours: f64,
    ) -> Result<AdaptationReport, ConductorError> {
        let deadline = goal.deadline_hours();

        // ---- 1. Plan with the (wrong) predicted throughput.
        let optimistic_pool = self
            .pool
            .clone()
            .with_observed_throughput(spec, predicted_gbph);
        let optimistic_planner =
            Planner::new(optimistic_pool).with_solve_options(self.solve_options.clone());
        let (initial_plan, _) = optimistic_planner.plan(spec, goal)?;

        // ---- 2. Execute the initial plan against the real (slower) cluster;
        // this is also the "no adaptation" counterfactual.
        let actual_catalog = self.catalog_with_throughput(spec, actual_gbph);
        let actual_engine = Engine::new(actual_catalog);
        let initial_options = initial_plan.to_deployment_options(
            "initial-plan",
            self.pool.uplink_gbph,
            deadline,
            &ExecutionPlan::default_location_map(),
        );
        let scheduler = conductor_mapreduce::scheduler::LocalityScheduler;
        let without_adaptation = actual_engine.run(spec, &initial_options, &scheduler)?;

        // ---- 3. Monitor (§5.4): re-plan only on a real deviation. Two
        // checks, both against the measured throughput:
        //  (a) *behind now* — observed map progress at the re-planning
        //      point falls short of the model's own projection (the
        //      predicted throughput run through the identical fluid
        //      progress rule), and
        //  (b) *plan doomed* — the remaining schedule's processing
        //      capacity at the measured rate can no longer cover the input
        //      (the fig12 case: the shortfall is visible in task durations
        //      before any interval's progress checkpoint is missed).
        // A prediction that matches reality passes both, so the monitor
        // stays quiet and the expensive re-planning machinery never runs —
        // the false-positive guard.
        let observed_done =
            self.fluid_map_progress(spec, &initial_plan, actual_gbph, replan_after_hours);
        let projected_done =
            self.fluid_map_progress(spec, &initial_plan, predicted_gbph, replan_after_hours);
        let behind_now = observed_done + 1e-9 < projected_done * (1.0 - self.deviation_threshold);
        let planned_capacity_gb: f64 = initial_plan
            .intervals
            .iter()
            .map(|iv| {
                iv.nodes.values().sum::<usize>() as f64 * actual_gbph * initial_plan.interval_hours
            })
            .sum();
        let plan_doomed =
            planned_capacity_gb + 1e-9 < spec.input_gb * (1.0 - self.deviation_threshold);
        if !behind_now && !plan_doomed {
            return Ok(AdaptationReport {
                updated_plan: initial_plan.clone(),
                spliced_schedule: initial_options.node_schedule.clone(),
                initial_plan,
                replanned_at_hours: None,
                execution: without_adaptation.clone(),
                without_adaptation,
            });
        }
        let observed = self.observe_progress(spec, &initial_plan, actual_gbph, replan_after_hours);

        // ---- 4. Re-plan from the observed state with the corrected
        // throughput and the time remaining until the deadline.
        let realistic_pool = self
            .pool
            .clone()
            .with_observed_throughput(spec, actual_gbph);
        let realistic_planner =
            Planner::new(realistic_pool).with_solve_options(self.solve_options.clone());
        let remaining_goal = goal.remaining(replan_after_hours, self.replan_margin_hours);
        let config = ModelConfig {
            initial: observed,
            ..ModelConfig::default()
        };
        let (updated_plan, _) =
            realistic_planner.plan_with_config(spec, remaining_goal, &config)?;

        // ---- 5. Splice: initial plan's schedule for the elapsed interval,
        // updated plan afterwards, and run the whole job under it.
        let spliced_schedule = splice_schedules(&initial_plan, &updated_plan, replan_after_hours);
        let mut spliced_options = initial_options.clone();
        spliced_options.name = "adapted-plan".into();
        spliced_options.node_schedule = spliced_schedule.clone();
        let execution = actual_engine.run(spec, &spliced_options, &scheduler)?;

        Ok(AdaptationReport {
            initial_plan,
            updated_plan,
            replanned_at_hours: Some(replan_after_hours),
            execution,
            without_adaptation,
            spliced_schedule,
        })
    }

    /// Map GB a fluid execution of `plan` would have completed after
    /// `hours` at `gbph` per node, capped by what the uplink could feed —
    /// the progress rule both the monitor's observation and the model's
    /// projection run through, so identical rates produce identical
    /// numbers.
    fn fluid_map_progress(
        &self,
        spec: &JobSpec,
        plan: &ExecutionPlan,
        gbph: f64,
        hours: f64,
    ) -> f64 {
        let uploaded = (self.pool.uplink_gbph * hours).min(spec.input_gb);
        let mut processed: f64 = 0.0;
        for (t, interval) in plan.intervals.iter().enumerate() {
            let t_end = (t as f64 + 1.0) * plan.interval_hours;
            if t_end > hours + 1e-9 {
                break;
            }
            let nodes: usize = interval.nodes.values().sum();
            processed += nodes as f64 * gbph * plan.interval_hours;
        }
        processed.min(uploaded).min(spec.input_gb)
    }

    /// Progress the monitor would have observed after `hours` of following
    /// `plan` on nodes that actually deliver `actual_gbph`.
    fn observe_progress(
        &self,
        spec: &JobSpec,
        plan: &ExecutionPlan,
        actual_gbph: f64,
        hours: f64,
    ) -> InitialState {
        let mut state = InitialState::default();
        // Data uploaded so far: whatever the uplink could push, regardless of
        // the plan's optimism.
        let uploaded = (self.pool.uplink_gbph * hours).min(spec.input_gb);
        let mix = plan.storage_mix();
        for (storage, fraction) in mix {
            state.stored_gb.insert(storage, uploaded * fraction);
        }
        if state.stored_gb.is_empty() {
            state.stored_gb.insert("EC2-disk".to_string(), uploaded);
        }
        // Map progress: limited by both the allocated nodes' *actual*
        // throughput and the data that was available.
        state.map_done_gb = self.fluid_map_progress(spec, plan, actual_gbph, hours);
        // Conservative monitor: plan for slightly more remaining work than
        // the fluid progress model reports (see `monitor_conservatism`).
        let remaining = (spec.input_gb - state.map_done_gb).max(0.0);
        state.map_done_gb =
            (spec.input_gb - remaining * (1.0 + self.monitor_conservatism)).max(0.0);
        state
    }

    /// Catalog whose instances deliver `gbph` *for this spec's workload*
    /// when simulated. The engine multiplies catalog throughputs by
    /// `spec.throughput_scale()`, so the observed rate is converted back
    /// into reference-workload units here (mirror of
    /// `ResourcePool::with_observed_throughput`).
    fn catalog_with_throughput(&self, spec: &JobSpec, gbph: f64) -> Catalog {
        let reference_units = gbph / spec.throughput_scale();
        let mut catalog = self.catalog.clone();
        for i in &mut catalog.instances {
            i.measured_throughput_gbph = reference_units;
        }
        catalog
    }
}

/// Keeps `initial`'s node schedule up to `switch_hours`, then follows
/// `updated` (whose interval 0 corresponds to `switch_hours`).
fn splice_schedules(
    initial: &ExecutionPlan,
    updated: &ExecutionPlan,
    switch_hours: f64,
) -> Vec<NodeAllocation> {
    let mut schedule: Vec<NodeAllocation> = initial
        .node_schedule()
        .into_iter()
        .filter(|a| a.from_hour < switch_hours - 1e-9)
        .collect();
    let mut updated_steps = updated.node_schedule();
    // A compute type the updated plan no longer uses emits no steps at all
    // (plans only record positive node counts); add an explicit zero step
    // at the switch point so its pre-splice allocation is released instead
    // of riding — and billing — to the end of the job.
    let kept_types: std::collections::BTreeSet<String> =
        schedule.iter().map(|a| a.instance_type.clone()).collect();
    for kept in kept_types {
        if !updated_steps.iter().any(|s| s.instance_type == kept) {
            updated_steps.push(NodeAllocation {
                from_hour: 0.0,
                instance_type: kept,
                nodes: 0,
            });
        }
    }
    for mut step in updated_steps {
        step.from_hour += switch_hours;
        schedule.push(step);
    }
    schedule.sort_by(|a, b| a.from_hour.partial_cmp(&b.from_hour).unwrap());
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use conductor_lp::SolveOptions;
    use conductor_mapreduce::Workload;
    use std::time::Duration;

    fn controller() -> AdaptiveController {
        let catalog = Catalog::aws_july_2011();
        let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
        AdaptiveController::new(catalog, pool).with_solve_options(SolveOptions {
            relative_gap: 0.02,
            max_nodes: 2_000,
            time_limit: Duration::from_secs(30),
            ..Default::default()
        })
    }

    #[test]
    fn figure_12_misprediction_is_rescued_by_replanning() {
        // Predicted 1.44 GB/h, actual 0.44 GB/h, re-plan after one hour,
        // 7-hour deadline (the paper's Figure 12 spans ~7 hours).
        let report = controller()
            .run_with_misprediction(
                &Workload::KMeans32Gb.spec(),
                Goal::MinimizeCost {
                    deadline_hours: 7.0,
                },
                1.44,
                0.44,
                1.0,
            )
            .unwrap();
        // The optimistic plan allocates only a handful of nodes...
        let initial_peak = report.initial_plan.peak_nodes("m1.large");
        assert!(initial_peak <= 8, "initial peak {initial_peak}");
        // ...the updated plan allocates substantially more...
        let updated_peak = report.updated_plan.peak_nodes("m1.large");
        assert!(
            updated_peak >= initial_peak * 2,
            "updated peak {updated_peak}"
        );
        // ...and adaptation rescues the deadline the un-adapted run misses.
        assert_eq!(report.without_adaptation.met_deadline, Some(false));
        assert_eq!(report.execution.met_deadline, Some(true));
        assert!(report.adaptation_rescued_deadline());
        // All tasks finish in the adapted run.
        assert_eq!(
            report.execution.task_timeline.last().unwrap().1,
            report.execution.total_tasks
        );
    }

    #[test]
    fn accurate_prediction_keeps_the_monitor_quiet() {
        // False-positive guard: when the predicted throughput matches
        // reality there is no shortfall, so the monitor must not trigger a
        // re-plan — the report carries the initial plan unchanged and no
        // re-planning timestamp.
        let report = controller()
            .run_with_misprediction(
                &Workload::KMeans32Gb.spec(),
                Goal::MinimizeCost {
                    deadline_hours: 7.0,
                },
                0.44,
                0.44,
                1.0,
            )
            .unwrap();
        assert!(
            !report.replanned(),
            "monitor re-planned without a deviation"
        );
        assert_eq!(report.replanned_at_hours, None);
        assert_eq!(report.updated_plan, report.initial_plan);
        // The "adapted" execution is the unmodified run: same schedule,
        // same cost, same completion.
        assert_eq!(report.spliced_schedule, report.initial_plan.node_schedule());
        assert!((report.execution.total_cost - report.without_adaptation.total_cost).abs() < 1e-12);
        assert!(
            (report.execution.completion_hours - report.without_adaptation.completion_hours).abs()
                < 1e-12
        );
    }

    #[test]
    fn misprediction_report_records_the_replanning_hour() {
        let report = controller()
            .run_with_misprediction(
                &Workload::KMeans32Gb.spec(),
                Goal::MinimizeCost {
                    deadline_hours: 7.0,
                },
                1.44,
                0.44,
                1.0,
            )
            .unwrap();
        assert!(report.replanned());
        assert_eq!(report.replanned_at_hours, Some(1.0));
        assert_ne!(report.updated_plan, report.initial_plan);
    }

    #[test]
    fn splicing_keeps_early_steps_and_shifts_later_ones() {
        let initial = ExecutionPlan {
            interval_hours: 1.0,
            intervals: vec![],
            expected_cost: 0.0,
            expected_completion_hours: 0.0,
            proven_optimal: true,
        };
        let mut a = initial.clone();
        a.intervals = vec![
            crate::plan::IntervalPlan {
                nodes: [("m1.large".to_string(), 3)].into_iter().collect(),
                ..Default::default()
            },
            crate::plan::IntervalPlan {
                nodes: [("m1.large".to_string(), 5)].into_iter().collect(),
                ..Default::default()
            },
        ];
        let mut b = initial.clone();
        b.intervals = vec![crate::plan::IntervalPlan {
            nodes: [("m1.large".to_string(), 16)].into_iter().collect(),
            ..Default::default()
        }];
        let spliced = splice_schedules(&a, &b, 1.0);
        // Keeps the 3-node step at hour 0, drops the 5-node step at hour 1,
        // and the updated 16-node step lands at hour 1.
        assert!(spliced.iter().any(|s| s.from_hour == 0.0 && s.nodes == 3));
        assert!(spliced.iter().any(|s| s.from_hour == 1.0 && s.nodes == 16));
        assert!(!spliced.iter().any(|s| s.nodes == 5));
    }

    #[test]
    fn splicing_releases_compute_types_the_updated_plan_dropped() {
        // Plans only record positive node counts, so a type the re-plan
        // stops using emits no steps; the splice must synthesize a zero
        // step or its pre-splice allocation would bill until job end.
        let empty = ExecutionPlan {
            interval_hours: 1.0,
            intervals: vec![],
            expected_cost: 0.0,
            expected_completion_hours: 0.0,
            proven_optimal: true,
        };
        let mut initial = empty.clone();
        initial.intervals = vec![crate::plan::IntervalPlan {
            nodes: [("m1.large".to_string(), 4), ("local".to_string(), 5)]
                .into_iter()
                .collect(),
            ..Default::default()
        }];
        let mut updated = empty.clone();
        updated.intervals = vec![crate::plan::IntervalPlan {
            nodes: [("local".to_string(), 5)].into_iter().collect(),
            ..Default::default()
        }];
        let spliced = splice_schedules(&initial, &updated, 1.0);
        // The dropped m1.large type gets an explicit release at the switch.
        assert!(
            spliced
                .iter()
                .any(|s| s.instance_type == "m1.large" && s.from_hour == 1.0 && s.nodes == 0),
            "{spliced:?}"
        );
        // ...while the still-used local nodes carry on.
        assert!(spliced
            .iter()
            .any(|s| s.instance_type == "local" && s.from_hour == 1.0 && s.nodes == 5));
    }

    #[test]
    fn observed_progress_reflects_actual_throughput() {
        let ctl = controller();
        let spec = Workload::KMeans32Gb.spec();
        let plan = ExecutionPlan {
            interval_hours: 1.0,
            intervals: vec![crate::plan::IntervalPlan {
                nodes: [("m1.large".to_string(), 3)].into_iter().collect(),
                upload_gb: [("EC2-disk".to_string(), 6.7)].into_iter().collect(),
                ..Default::default()
            }],
            expected_cost: 1.0,
            expected_completion_hours: 1.0,
            proven_optimal: true,
        };
        let state = ctl.observe_progress(&spec, &plan, 0.44, 1.0);
        // 3 nodes at the real 0.44 GB/h processed ~1.3 GB, not 3 * 1.44.
        assert!(state.map_done_gb < 1.5, "map done {}", state.map_done_gb);
        let stored: f64 = state.stored_gb.values().sum();
        assert!(stored > 6.0 && stored < 7.5, "stored {stored}");
    }
}
