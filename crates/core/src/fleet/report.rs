//! What a session reports: per-tenant outcomes, the fleet roll-up, and the
//! live lifecycle view behind [`Fleet::status`](super::Fleet::status).

use crate::plan::ExecutionPlan;
use crate::planner::PlanningReport;
use conductor_cloud::CostBreakdown;
use conductor_mapreduce::execution::ExecutionProgress;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What happened to one tenant's job.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Tenant name.
    pub tenant: String,
    /// Arrival hour on the fleet clock (mid-run submissions are clamped to
    /// the submission hour).
    pub arrival_hours: f64,
    /// `true` when the job was admitted (a plan existed under the residual
    /// capacity at arrival).
    pub admitted: bool,
    /// Why admission failed, when it did.
    pub rejection: Option<String>,
    /// The plan the job was admitted under.
    pub plan: Option<ExecutionPlan>,
    /// Planning effort at admission.
    pub planning: Option<PlanningReport>,
    /// The measured execution (tenant-relative hours; the tenant's bill is
    /// `execution.cost_breakdown`). `None` when the job was rejected at
    /// admission; for a job that failed mid-run (`failure` set) this holds
    /// the *partial* bill accrued up to the abort.
    pub execution: Option<conductor_mapreduce::ExecutionReport>,
    /// Why the admitted job failed to finish, when it did.
    pub failure: Option<String>,
    /// Fleet-clock hours at which the monitor re-planned this job.
    pub replanned_at_hours: Vec<f64>,
    /// Fleet-clock hours at which the spot market revoked nodes from this
    /// job (one entry per revocation event that killed at least one node).
    pub revoked_at_hours: Vec<f64>,
    /// Fleet-clock hour at which the job (including its result download)
    /// completed.
    pub finished_at_hours: Option<f64>,
    /// For retry attempts, the root submission this attempt descends
    /// from; `None` for original submissions.
    #[serde(default)]
    pub retry_of: Option<usize>,
    /// Which attempt this outcome records: `0` for the original run,
    /// `n` for the n-th retry.
    #[serde(default)]
    pub attempt: usize,
    /// `true` when this (final) attempt exhausted the retry budget and
    /// landed in the dead-letter queue.
    #[serde(default)]
    pub dead_lettered: bool,
}

impl TenantOutcome {
    pub(super) fn pending(tenant: String, arrival_hours: f64) -> Self {
        Self {
            tenant,
            arrival_hours,
            ..Self::default()
        }
    }

    /// Which terminal (or snapshot) class this outcome falls in.
    pub fn outcome_class(&self) -> OutcomeClass {
        if self.dead_lettered {
            OutcomeClass::DeadLettered
        } else if !self.admitted {
            OutcomeClass::Rejected
        } else if self.failure.is_some() {
            OutcomeClass::Failed
        } else if self.execution.is_some() {
            OutcomeClass::Completed
        } else {
            OutcomeClass::Running
        }
    }
}

/// Coarse outcome classes for [`FleetReport::tenants_by_outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Never admitted: no feasible plan, invalid deployment, or cancelled
    /// before arrival.
    Rejected,
    /// Admitted and ran to completion.
    Completed,
    /// Admitted but aborted mid-run (stuck, over the hours cap, or
    /// cancelled); carries a partial bill.
    Failed,
    /// Admitted and still running — only seen in mid-run
    /// [`Fleet::report`](super::Fleet::report) snapshots, never in a drained fleet.
    Running,
    /// The final attempt of a tenant that exhausted its retry budget
    /// (see [`crate::policy::RetryPolicy`]); also in
    /// [`Fleet::dead_letters`](super::Fleet::dead_letters).
    DeadLettered,
}

/// The fleet-wide result of one service run (or a [`Fleet::report`](super::Fleet::report)
/// snapshot).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-tenant outcomes, in submission order.
    pub tenants: Vec<TenantOutcome>,
    /// Name → index into [`tenants`](Self::tenants) (first occurrence
    /// wins). Built by
    /// [`from_outcomes`](Self::from_outcomes); hand-built reports may
    /// leave it empty — [`tenant`](Self::tenant) falls back to a scan.
    #[serde(default)]
    pub tenant_index: BTreeMap<String, usize>,
    /// Sum of all tenant bills (USD), including partial bills of jobs
    /// that failed mid-run.
    pub fleet_cost: f64,
    /// The provider-side roll-up of every tenant's cost breakdown.
    pub fleet_breakdown: CostBreakdown,
    /// Fleet-clock hour at which the last job completed.
    pub makespan_hours: f64,
    /// Jobs admitted.
    pub jobs_admitted: usize,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Completed jobs that met their deadline.
    pub deadlines_met: usize,
    /// Retry attempts issued (outcomes with `attempt > 0`).
    #[serde(default)]
    pub retries: usize,
    /// Tenants whose final attempt exhausted the retry budget.
    #[serde(default)]
    pub dead_lettered: usize,
    /// Fleet hours the spot-market circuit breaker spent open. Filled by
    /// [`Fleet::report`](super::Fleet::report); zero for hand-built reports.
    #[serde(default)]
    pub breaker_open_hours: f64,
    /// Admissions served from the plan cache (shape reused, certified
    /// against a fresh root LP bound; no branch & bound). Filled by
    /// [`Fleet::report`](super::Fleet::report); zero for hand-built reports or when
    /// [`FleetConfig::plan_cache`](super::FleetConfig::plan_cache) is off.
    #[serde(default)]
    pub plan_cache_hits: usize,
    /// Plan-cache probes that fell through to a full solve.
    #[serde(default)]
    pub plan_cache_misses: usize,
}

impl FleetReport {
    /// Builds the report (aggregates + name index) from per-tenant
    /// outcomes in submission order.
    pub fn from_outcomes(tenants: Vec<TenantOutcome>) -> Self {
        let mut fleet_breakdown = CostBreakdown::default();
        let mut fleet_cost = 0.0;
        let mut makespan: f64 = 0.0;
        let mut completed = 0;
        let mut deadlines_met = 0;
        for o in &tenants {
            if let Some(exec) = &o.execution {
                // Aborted jobs carry a partial bill: real spend either way.
                fleet_cost += exec.total_cost;
                fleet_breakdown.absorb(&exec.cost_breakdown);
                if o.failure.is_none() {
                    completed += 1;
                    if exec.met_deadline == Some(true) {
                        deadlines_met += 1;
                    }
                }
            }
            if let Some(t) = o.finished_at_hours {
                makespan = makespan.max(t);
            }
        }
        let jobs_admitted = tenants.iter().filter(|o| o.admitted).count();
        let retries = tenants.iter().filter(|o| o.attempt > 0).count();
        let dead_lettered = tenants.iter().filter(|o| o.dead_lettered).count();
        let mut tenant_index = BTreeMap::new();
        for (i, t) in tenants.iter().enumerate() {
            tenant_index.entry(t.tenant.clone()).or_insert(i);
        }
        Self {
            tenants,
            tenant_index,
            fleet_cost,
            fleet_breakdown,
            makespan_hours: makespan,
            jobs_admitted,
            jobs_completed: completed,
            deadlines_met,
            retries,
            dead_lettered,
            breaker_open_hours: 0.0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
        }
    }

    /// The outcome for a tenant by name. Hand-built reports without an
    /// index still resolve, by scan.
    pub fn tenant(&self, name: &str) -> Option<&TenantOutcome> {
        match self.tenant_index.get(name) {
            Some(&i) if self.tenants.get(i).is_some_and(|t| t.tenant == name) => {
                self.tenants.get(i)
            }
            _ => self.tenants.iter().find(|t| t.tenant == name),
        }
    }

    /// The tenants in a given outcome class, in submission order.
    pub fn tenants_by_outcome(&self, class: OutcomeClass) -> impl Iterator<Item = &TenantOutcome> {
        self.tenants
            .iter()
            .filter(move |t| t.outcome_class() == class)
    }
}

/// Lifecycle state of one tenant, for [`Fleet::status`](super::Fleet::status).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Submitted; the arrival event has not fired yet.
    Queued,
    /// Arrival fired but admission failed (or the job was cancelled before
    /// arrival).
    Rejected,
    /// Cancelled by the client.
    Cancelled,
    /// Admitted and executing.
    Running,
    /// Ran to completion (report available in the outcome).
    Completed,
    /// Admitted but aborted mid-run.
    Failed,
}

/// A live snapshot of one tenant's job, assembled by [`Fleet::status`](super::Fleet::status)
/// from the outcome record and (for running jobs) the execution process.
#[derive(Debug, Clone)]
pub struct TenantStatus {
    /// Tenant name.
    pub tenant: String,
    /// Lifecycle state at the snapshot hour.
    pub state: TenantState,
    /// Effective arrival hour on the fleet clock.
    pub arrival_hours: f64,
    /// The plan currently in force (admission plan; re-plans replace the
    /// node schedule inside the execution, not this record).
    pub plan: Option<ExecutionPlan>,
    /// Execution progress at the snapshot hour (running jobs only).
    pub progress: Option<ExecutionProgress>,
    /// Charges recorded so far (open rental sessions settle when they
    /// close); for terminal jobs, the final bill.
    pub bill_so_far: f64,
    /// Fleet-clock hours of monitor re-plans so far.
    pub replanned_at_hours: Vec<f64>,
    /// Fleet-clock hours of revocation hits so far.
    pub revoked_at_hours: Vec<f64>,
    /// Completion hour, once finished.
    pub finished_at_hours: Option<f64>,
    /// Rejection reason, when rejected.
    pub rejection: Option<String>,
    /// Failure reason, when failed (including client cancellation).
    pub failure: Option<String>,
}
