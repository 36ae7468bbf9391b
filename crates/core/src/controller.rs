//! The job controller (§5.2): plan → deploy → execute → account, for one
//! job.
//!
//! A single job is a one-tenant [`Fleet`](crate::Fleet): [`JobController`]
//! opens a [`ConductorService`] session over its catalog and its planner's
//! pool, submits the job at hour zero with the monitor's trigger disabled,
//! and reports the measured cost and completion time next to the plan's
//! expectations. Planning, the plan-following scheduler and the engine run
//! are the fleet's; nothing here duplicates them.

use crate::error::ConductorError;
use crate::goal::Goal;
use crate::plan::ExecutionPlan;
use crate::planner::{Planner, PlanningReport};
use crate::service::ConductorService;
use conductor_cloud::Catalog;
use conductor_mapreduce::engine::ExecutionReport;
use conductor_mapreduce::JobSpec;
use serde::{Deserialize, Serialize};

/// The outcome of planning and deploying one job with Conductor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeploymentOutcome {
    /// The plan that was deployed.
    pub plan: ExecutionPlan,
    /// Planning effort statistics.
    pub planning: PlanningReport,
    /// The measured execution (timings, cost breakdown, timelines).
    pub execution: ExecutionReport,
}

impl DeploymentOutcome {
    /// Difference between measured and planned cost (positive = the run cost
    /// more than the plan expected).
    pub fn cost_error(&self) -> f64 {
        self.execution.total_cost - self.plan.expected_cost
    }

    /// Difference between measured and planned completion time in hours.
    pub fn completion_error_hours(&self) -> f64 {
        self.execution.completion_hours - self.plan.expected_completion_hours
    }
}

/// Orchestrates planning and deployment of MapReduce jobs (Figure 2).
#[derive(Debug, Clone)]
pub struct JobController {
    planner: Planner,
    catalog: Catalog,
}

impl JobController {
    /// Creates a controller for the given catalog. `planner` must have been
    /// built over (a restriction of) the same catalog: every compute
    /// resource in the planner's pool must name a catalog instance type
    /// with the same price and measured throughput, and every storage
    /// resource must name a catalog storage service. A mismatched pair
    /// would produce plans whose costs and rates the deployment engine
    /// silently disagrees with, so the invariant is checked here and
    /// violations are reported as [`ConductorError::InvalidInput`]. (A
    /// deliberate disagreement — a misprediction — is an input of
    /// [`crate::AdaptiveController`] and of [`crate::Fleet::new`].) The
    /// fleet plans on one-hour intervals without migration variables, so a
    /// planner configured otherwise is refused as well.
    pub fn new(catalog: Catalog, planner: Planner) -> Result<Self, ConductorError> {
        if planner.interval_hours != 1.0 || planner.enable_migration {
            return Err(ConductorError::InvalidInput(
                "the job controller deploys one-hour-interval plans without migration".into(),
            ));
        }
        for c in &planner.pool().compute {
            let Some(i) = catalog.instance(&c.name) else {
                return Err(ConductorError::InvalidInput(format!(
                    "planner compute resource `{}` is not in the deployment catalog",
                    c.name
                )));
            };
            if (i.hourly_price - c.hourly_price).abs() > 1e-9
                || (i.measured_throughput_gbph - c.capacity_gbph).abs() > 1e-9
            {
                return Err(ConductorError::InvalidInput(format!(
                    "planner compute resource `{}` disagrees with the catalog: \
                     pool prices it at {}/h for {} GB/h, catalog says {}/h for {} GB/h",
                    c.name,
                    c.hourly_price,
                    c.capacity_gbph,
                    i.hourly_price,
                    i.measured_throughput_gbph
                )));
            }
        }
        for s in &planner.pool().storage {
            if catalog.storage(&s.name).is_none() {
                return Err(ConductorError::InvalidInput(format!(
                    "planner storage resource `{}` is not in the deployment catalog",
                    s.name
                )));
            }
        }
        Ok(Self { planner, catalog })
    }

    /// The planner in use.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Plans and deploys `spec` under `goal`, returning plan, planning report
    /// and measured execution. No plan is [`ConductorError::GoalUnattainable`]
    /// with the admission's reason; a run the engine gave up on is
    /// [`ConductorError::Deployment`].
    pub fn run(&self, spec: &JobSpec, goal: Goal) -> Result<DeploymentOutcome, ConductorError> {
        // Tolerance 1.0: the monitor never finds the job behind, so the
        // admission plan is followed to the end.
        let (outcome, _) = ConductorService::new(self.catalog.clone(), self.planner.pool().clone())
            .with_solve_options(self.planner.solve_options().clone())
            .with_monitor(1.0, 1.0)
            .run_one(spec, goal)?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourcePool;
    use conductor_lp::SolveOptions;
    use conductor_mapreduce::Workload;
    use std::time::Duration;

    fn controller() -> JobController {
        let catalog = Catalog::aws_july_2011();
        let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
        let planner = Planner::new(pool).with_solve_options(SolveOptions {
            relative_gap: 0.02,
            max_nodes: 2_000,
            time_limit: Duration::from_secs(30),
            ..Default::default()
        });
        JobController::new(catalog, planner).unwrap()
    }

    #[test]
    fn end_to_end_cloud_only_run_meets_deadline_and_cost_scale() {
        let outcome = controller()
            .run(
                &Workload::KMeans32Gb.spec(),
                Goal::MinimizeCost {
                    deadline_hours: 6.0,
                },
            )
            .unwrap();
        assert_eq!(outcome.execution.met_deadline, Some(true));
        // Measured cost should be in the same ballpark as planned cost
        // (the engine adds scheduling slack and round-up billing effects the
        // fluid model ignores).
        assert!(
            outcome.execution.total_cost < outcome.plan.expected_cost * 2.0 + 10.0,
            "measured {} vs planned {}",
            outcome.execution.total_cost,
            outcome.plan.expected_cost
        );
        assert!(outcome.execution.total_cost > 15.0);
        // Every task completed.
        assert_eq!(
            outcome.execution.task_timeline.last().unwrap().1,
            outcome.execution.total_tasks
        );
    }

    #[test]
    fn mismatched_planner_pool_is_rejected() {
        let catalog = Catalog::aws_july_2011();
        // Unknown compute resource.
        let mut pool = ResourcePool::from_catalog(&catalog, 1.0);
        pool.compute[0].name = "m9.mega".into();
        let err = JobController::new(catalog.clone(), Planner::new(pool)).unwrap_err();
        assert!(matches!(err, ConductorError::InvalidInput(_)));
        assert!(err.to_string().contains("m9.mega"));
        // Same name, different price: plans would cost something the engine
        // disagrees with.
        let mut pool = ResourcePool::from_catalog(&catalog, 1.0);
        pool.compute[0].hourly_price *= 2.0;
        let err = JobController::new(catalog.clone(), Planner::new(pool)).unwrap_err();
        assert!(err.to_string().contains("disagrees with the catalog"));
        // Unknown storage resource.
        let mut pool = ResourcePool::from_catalog(&catalog, 1.0);
        pool.storage[0].name = "S9".into();
        let err = JobController::new(catalog.clone(), Planner::new(pool)).unwrap_err();
        assert!(err.to_string().contains("S9"));
        // A *restriction* of the catalog is fine...
        let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
        assert!(JobController::new(catalog.clone(), Planner::new(pool.clone())).is_ok());
        // ...a planner the fleet's admission would not reproduce is not.
        let migrating = Planner::new(pool).with_migration(true);
        assert!(JobController::new(catalog, migrating).is_err());
    }
}
