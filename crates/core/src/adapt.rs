//! Runtime adaptation (§5.4): detect deviations from the model, re-plan from
//! the current state, and splice the updated plan into the deployment.
//!
//! The paper's Figure 12 experiment seeds the model with a wrong per-node
//! throughput (1.44 GB/h predicted vs 0.44 GB/h actual). The progress
//! monitor notices the shortfall, Conductor rebuilds the model with the
//! *observed* throughput and the work actually remaining, re-solves, and
//! the updated plan allocates many more nodes so the deadline is still met.
//!
//! That loop exists once, in the fleet (the monitor of `fleet/session.rs` →
//! `AdmissionControl::replan` → `JobExecution::splice_node_schedule`).
//! [`AdaptiveController`] only sets the experiment up: a misprediction is a
//! one-tenant [`ConductorService`] session whose pool (what the planner
//! believes) disagrees with its catalog (what the engine delivers).

use crate::error::ConductorError;
use crate::fleet::FleetConfig;
use crate::goal::Goal;
use crate::plan::ExecutionPlan;
use crate::resources::ResourcePool;
use crate::service::ConductorService;
use conductor_cloud::Catalog;
use conductor_mapreduce::engine::ExecutionReport;
use conductor_mapreduce::JobSpec;
use serde::{Deserialize, Serialize};

/// The result of an adaptive run: the plan the job started under, the
/// monitored execution and its un-monitored twin (the data behind Figure
/// 12a — `execution.allocation_timeline` — and 12b — the task timelines).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptationReport {
    /// The plan computed before execution started (based on the predicted
    /// throughput).
    pub initial_plan: ExecutionPlan,
    /// Hour at which the monitor found the job behind and re-planned it
    /// (the first such hour, should it re-plan again); `None` when observed
    /// progress kept up with the plan's projection.
    pub replanned_at_hours: Option<f64>,
    /// Execution report of the monitored run: the initial schedule up to
    /// the re-planning point, the updated plan's spliced in afterwards.
    pub execution: ExecutionReport,
    /// Execution report of a run that keeps following the initial plan
    /// (the "would have missed the deadline" counterfactual).
    pub without_adaptation: ExecutionReport,
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

/// Sets up the plan → monitor → re-plan experiment of §6.4 on the fleet.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    catalog: Catalog,
    pool: ResourcePool,
    solve_options: conductor_lp::SolveOptions,
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
        }
    }

    /// Replaces the solver options used for planning and re-planning.
    pub fn with_solve_options(mut self, options: conductor_lp::SolveOptions) -> Self {
        self.solve_options = options;
        self
    }

    /// Reproduces the §6.4 experiment: plan with `predicted_gbph` per node,
    /// execute against nodes that actually deliver `actual_gbph`, and let
    /// the fleet's monitor — ticking every `monitor_period_hours`, at the
    /// default [`FleetConfig::monitor_tolerance`], re-plan margin and
    /// conservatism — re-plan the job when its *measured* progress falls
    /// behind. The counterfactual is the same session with tolerance 1.0,
    /// under which no job is ever behind.
    pub fn run_with_misprediction(
        &self,
        spec: &JobSpec,
        goal: Goal,
        predicted_gbph: f64,
        actual_gbph: f64,
        monitor_period_hours: f64,
    ) -> Result<AdaptationReport, ConductorError> {
        let believed = self
            .pool
            .clone()
            .with_observed_throughput(spec, predicted_gbph);
        let service =
            ConductorService::new(self.catalog_with_throughput(spec, actual_gbph), believed)
                .with_solve_options(self.solve_options.clone());
        let run = |tolerance: f64| {
            service
                .clone()
                .with_monitor(monitor_period_hours, tolerance)
                .run_one(spec, goal)
        };
        let (monitored, replanned_at_hours) = run(FleetConfig::default().monitor_tolerance)?;
        let (unmonitored, _) = run(1.0)?;
        Ok(AdaptationReport {
            initial_plan: monitored.plan,
            replanned_at_hours: replanned_at_hours.first().copied(),
            execution: monitored.execution,
            without_adaptation: unmonitored.execution,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use conductor_lp::SolveOptions;
    use conductor_mapreduce::Workload;
    use std::time::Duration;

    /// Predicted `predicted_gbph`, actual 0.44 GB/h, hourly monitor, 7-hour
    /// deadline (the paper's Figure 12 spans ~7 hours).
    fn figure_12(predicted_gbph: f64) -> AdaptationReport {
        let catalog = Catalog::aws_july_2011();
        let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
        let goal = Goal::MinimizeCost {
            deadline_hours: 7.0,
        };
        AdaptiveController::new(catalog, pool)
            .with_solve_options(SolveOptions {
                relative_gap: 0.02,
                max_nodes: 2_000,
                time_limit: Duration::from_secs(30),
                ..Default::default()
            })
            .run_with_misprediction(
                &Workload::KMeans32Gb.spec(),
                goal,
                predicted_gbph,
                0.44,
                1.0,
            )
            .unwrap()
    }

    #[test]
    fn figure_12_misprediction_is_rescued_by_replanning() {
        let report = figure_12(1.44);
        // The optimistic plan allocates only a handful of nodes...
        let initial_peak = report.initial_plan.peak_nodes("m1.large");
        assert!(initial_peak <= 8, "initial peak {initial_peak}");
        // ...the re-planned deployment fields substantially more...
        let timeline = &report.execution.allocation_timeline;
        let deployed_peak = timeline.iter().map(|&(_, nodes)| nodes).max().unwrap();
        assert!(
            deployed_peak >= initial_peak * 2,
            "deployed peak {deployed_peak}"
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
        // re-plan, and the monitored execution is the un-monitored one bit
        // for bit: same allocation, same cost, same completion.
        let report = figure_12(0.44);
        assert!(
            !report.replanned(),
            "monitor re-planned without a deviation"
        );
        assert_eq!(report.replanned_at_hours, None);
        let (monitored, unmonitored) = (&report.execution, &report.without_adaptation);
        assert_eq!(
            monitored.allocation_timeline,
            unmonitored.allocation_timeline
        );
        assert_eq!(monitored.total_cost, unmonitored.total_cost);
        assert_eq!(monitored.completion_hours, unmonitored.completion_hours);
    }

    #[test]
    fn misprediction_report_records_the_replanning_hour() {
        // The optimistic plan rents nothing in hour 0, so the first tick
        // has no fielded node-hours to measure a throughput from; the
        // shortfall is observable — and acted on — at the second.
        let report = figure_12(1.44);
        assert!(report.replanned());
        assert_eq!(report.replanned_at_hours, Some(2.0));
    }
}
