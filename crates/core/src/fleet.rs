//! The open-world fleet: a long-lived, incremental orchestration session.
//!
//! [`Fleet`] is the driver API the paper's *service* framing actually
//! needs: jobs [`submit`](Fleet::submit)ted at any simulated time
//! (including while the fleet is running), [`cancel`](Fleet::cancel)led
//! mid-flight, the clock advanced in steps
//! ([`step_until`](Fleet::step_until) /
//! [`run_to_quiescence`](Fleet::run_to_quiescence)), live state queried
//! ([`status`](Fleet::status), [`fleet_bill`](Fleet::fleet_bill),
//! [`now_hours`](Fleet::now_hours)) and every lifecycle transition
//! delivered as a typed [`FleetEvent`] — to registered
//! [`FleetObserver`]s as it happens, and to the replayable
//! [`events`](Fleet::events) log — in deterministic clock order.
//!
//! The closed-world batch call, `ConductorService::run`, is a thin
//! compatibility wrapper over this session (submit everything, then drain)
//! and is pinned **bitwise identical** to the pre-redesign driver by
//! `tests/fleet_api.rs`: same admissions, same re-plan hours, same bills
//! to the last bit on the multi-job, revocation-storm and Poisson-churn
//! suites.
//!
//! # Determinism contract
//!
//! All fleet state advances on one [`conductor_sim::Simulator`]; events
//! settle in `(time, class, insertion-seq)` order (arrivals before job
//! wakeups before revocations before monitor ticks — see the class
//! layering notes in [`conductor_sim`]). Two things keep the *incremental*
//! path on the batch path's trajectory:
//!
//! - **Monitor grid.** Ticks fire on the iterated grid `a₀ + k·period`
//!   anchored at the earliest submission's arrival hour. If the chain goes
//!   quiet (no active jobs, no pending arrivals) and a later submission
//!   revives it, the next tick is recomputed by *iterating* from the
//!   anchor — reproducing the exact floating-point tick times the batch
//!   driver's `t += period` chain would have produced.
//! - **Revocation sweeps.** Out-bid hours at the fleet bid become sweep
//!   events at construction (exactly as the batch driver scheduled them
//!   up front); a submission with a *lower* per-tenant
//!   [`FleetJobRequest::spot_bid`] adds sweeps for its extra out-bid
//!   hours, and every sweep checks each running job against **its own**
//!   bid, so default-bid tenants are untouched by another tenant's
//!   aggressive bidding.
//!
//! # Example
//!
//! ```
//! use conductor_cloud::Catalog;
//! use conductor_core::{Fleet, FleetConfig, FleetJobRequest, Goal, ResourcePool};
//! use conductor_mapreduce::Workload;
//!
//! let catalog = Catalog::aws_july_2011();
//! let pool = ResourcePool::from_catalog(&catalog, 1.0)
//!     .with_compute_only(&["m1.large"])
//!     .with_compute_cap("m1.large", 40);
//! let mut fleet = Fleet::new(catalog, pool, FleetConfig::default()).unwrap();
//!
//! // Submit while the clock is anywhere; step; query live state.
//! let tenant = fleet
//!     .submit(FleetJobRequest::new(
//!         "analytics",
//!         Workload::KMeansScaled { input_gb: 8 }.spec(),
//!         Goal::MinimizeCost { deadline_hours: 6.0 },
//!         0.0,
//!     ))
//!     .unwrap();
//! fleet.run_to_quiescence();
//!
//! let status = fleet.status(tenant).unwrap();
//! assert!(status.finished_at_hours.is_some());
//! assert!(fleet.fleet_bill() > 0.0);
//! assert!(fleet
//!     .events()
//!     .iter()
//!     .any(|e| matches!(e, conductor_core::FleetEvent::Completed { .. })));
//! ```

use crate::controller::scheduler_for_plan;
use crate::error::ConductorError;
use crate::goal::Goal;
use crate::model::{InitialState, ModelConfig};
use crate::plan::ExecutionPlan;
use crate::planner::{Planner, PlanningReport};
use crate::policy::{
    AdmissionChange, BreakerState, BreakerTransition, DeadLetter, FailurePolicy, FailureWindow,
    FallbackTier, FaultKind, RetryPolicy, SpotBreaker,
};
use crate::resources::{ResourcePool, REFERENCE_WORKLOAD_GBPH};
use crate::wal::WalWriter;
use conductor_cloud::{Catalog, CostBreakdown, SpotMarket};
use conductor_lp::{SolveContext, SolveOptions};
use conductor_mapreduce::cluster::nodes_at;
use conductor_mapreduce::execution::{
    ExecutionProgress, ExecutionSnapshot, JobExecution, JobPhase, SessionPricing,
};
use conductor_mapreduce::{JobSpec, NodeAllocation};
use conductor_sim::{ProcessId, ProcessRegistry, ScheduledEvent, Simulator, TIME_EPSILON};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Handle of one submitted job within a [`Fleet`] session. Ids are issued
/// in submission order and index [`FleetReport::tenants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub usize);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// One tenant's job submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetJobRequest {
    /// Tenant name (used as the deployment label and in the fleet report).
    pub tenant: String,
    /// The computation to deploy.
    pub spec: JobSpec,
    /// The tenant's optimization goal.
    pub goal: Goal,
    /// Fleet-clock hour at which the job arrives. A mid-run
    /// [`Fleet::submit`] clamps this to the current fleet hour: jobs
    /// cannot arrive in the simulated past.
    pub arrival_hours: f64,
    /// Per-tenant maximum bid per spot instance-hour, overriding the
    /// fleet-wide [`FleetConfig::spot_bid`] for this job's rental
    /// sessions, price forecast and revocation checks. `None` uses the
    /// fleet bid. Must be finite and non-negative.
    #[serde(default)]
    pub spot_bid: Option<f64>,
    /// Per-tenant retry policy, overriding the fleet-wide
    /// [`FailurePolicy::retry`] for this tenant's terminal dispositions
    /// (retry/backoff and dead-lettering). `None` uses the fleet policy;
    /// retries inherit the override (the cloned request carries it).
    #[serde(default)]
    pub retry_override: Option<RetryPolicy>,
}

impl FleetJobRequest {
    /// Creates a request (fleet-bid pricing; see
    /// [`with_spot_bid`](Self::with_spot_bid)).
    pub fn new(tenant: impl Into<String>, spec: JobSpec, goal: Goal, arrival_hours: f64) -> Self {
        Self {
            tenant: tenant.into(),
            spec,
            goal,
            arrival_hours,
            spot_bid: None,
            retry_override: None,
        }
    }

    /// Overrides the fleet-wide spot bid for this tenant only. A lower bid
    /// buys cheaper hours at the price of more revocations *for this
    /// tenant*; other tenants keep their own bids.
    pub fn with_spot_bid(mut self, bid: f64) -> Self {
        self.spot_bid = Some(bid);
        self
    }

    /// Overrides the fleet-wide retry policy for this tenant only: its
    /// failures (and late completions, per the policy) retry on this
    /// budget and backoff instead of the fleet's, and exhaust into the
    /// shared dead-letter queue. Retries inherit the override.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry_override = Some(retry);
        self
    }
}

/// Configuration of a [`Fleet`] session (and of the `ConductorService`
/// compatibility wrapper), validated once at construction — replacing the
/// old `with_*` builder sprawl with one checked struct.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Solver options used for admission and re-planning.
    pub solve_options: SolveOptions,
    /// The shared spot market every tenant's rental sessions are priced
    /// against; `None` buys on-demand (no revocations).
    pub spot_market: Option<SpotMarket>,
    /// Fleet-wide maximum bid per spot instance-hour; `None` bids the
    /// on-demand price (the rational ceiling). Sessions are terminated —
    /// and new requests refused — whenever the trace price rises strictly
    /// above the effective bid. Per-tenant
    /// [`FleetJobRequest::spot_bid`] overrides this for individual jobs.
    pub spot_bid: Option<f64>,
    /// Hours between monitor ticks (1.0 = the paper's planning interval).
    /// Must be finite and positive.
    pub monitor_period_hours: f64,
    /// Relative shortfall that triggers a re-plan: the monitor stays quiet
    /// while observed progress is at least `(1 - tolerance)` of the plan's
    /// projection. Must be finite and within `[0, 1]`.
    pub monitor_tolerance: f64,
    /// Safety margin subtracted from the remaining deadline when
    /// re-planning (see `AdaptiveController::replan_margin_hours`).
    pub replan_margin_hours: f64,
    /// Fractional inflation of the remaining work at re-plan time.
    pub monitor_conservatism: f64,
    /// The failure policy: fault injection, retry/backoff with
    /// dead-lettering, the admission gate and the spot-market circuit
    /// breaker (see [`crate::policy`]). The default is completely inert,
    /// so unpolicied sessions replay the pre-policy trajectories bit for
    /// bit.
    pub policy: FailurePolicy,
    /// Reuse admission plans across look-alike arrivals: a cached plan
    /// whose shape fits the current residual capacity and whose re-priced
    /// cost is certified against the fresh model's root LP relaxation
    /// bound (within the solver's `relative_gap`) is admitted without a
    /// branch & bound solve. Off by default: the cache changes which
    /// (equally certified) plan a tenant is admitted under, so sessions
    /// that pin exact trajectories should leave it disabled.
    pub plan_cache: bool,
    /// Validation mode: probe the plan cache at every admission and
    /// record how each would-be hit compares against the full solve that
    /// actually decides — but never *use* a cached plan. The probe runs
    /// through its own solve context, so the session's trajectory stays
    /// bitwise identical to `plan_cache: false`. Query the comparison
    /// via [`Fleet::plan_cache_shadow_stats`]. Takes precedence over
    /// `plan_cache` when both are set.
    pub plan_cache_shadow: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            solve_options: SolveOptions {
                relative_gap: 0.02,
                max_nodes: 2_000,
                time_limit: std::time::Duration::from_secs(30),
                ..SolveOptions::default()
            },
            spot_market: None,
            spot_bid: None,
            monitor_period_hours: 1.0,
            monitor_tolerance: 0.25,
            replan_margin_hours: 1.0,
            monitor_conservatism: 0.15,
            policy: FailurePolicy::default(),
            plan_cache: false,
            plan_cache_shadow: false,
        }
    }
}

impl FleetConfig {
    /// Checks every knob once, so NaN or negative values can never reach
    /// the event heap (where a NaN tick period or tolerance would silently
    /// corrupt comparisons instead of failing loudly).
    pub fn validate(&self) -> Result<(), ConductorError> {
        if !self.monitor_period_hours.is_finite() || self.monitor_period_hours <= 0.0 {
            return Err(ConductorError::InvalidInput(format!(
                "monitor period must be a finite positive number of hours, got {}",
                self.monitor_period_hours
            )));
        }
        if !self.monitor_tolerance.is_finite() || !(0.0..=1.0).contains(&self.monitor_tolerance) {
            return Err(ConductorError::InvalidInput(format!(
                "monitor tolerance must be finite and within [0, 1], got {}",
                self.monitor_tolerance
            )));
        }
        if !self.replan_margin_hours.is_finite() || self.replan_margin_hours < 0.0 {
            return Err(ConductorError::InvalidInput(format!(
                "re-plan margin must be finite and non-negative, got {}",
                self.replan_margin_hours
            )));
        }
        if !self.monitor_conservatism.is_finite() || self.monitor_conservatism < 0.0 {
            return Err(ConductorError::InvalidInput(format!(
                "monitor conservatism must be finite and non-negative, got {}",
                self.monitor_conservatism
            )));
        }
        if let Some(bid) = self.spot_bid {
            if !bid.is_finite() || bid < 0.0 {
                return Err(ConductorError::InvalidInput(format!(
                    "fleet spot bid must be finite and non-negative, got {bid}"
                )));
            }
        }
        self.policy.validate()?;
        Ok(())
    }
}

/// What happened to one tenant's job.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    fn pending(tenant: String, arrival_hours: f64) -> Self {
        Self {
            tenant,
            arrival_hours,
            admitted: false,
            rejection: None,
            plan: None,
            planning: None,
            execution: None,
            failure: None,
            replanned_at_hours: Vec::new(),
            revoked_at_hours: Vec::new(),
            finished_at_hours: None,
            retry_of: None,
            attempt: 0,
            dead_lettered: false,
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
    /// [`Fleet::report`] snapshots, never in a drained fleet.
    Running,
    /// The final attempt of a tenant that exhausted its retry budget
    /// (see [`crate::policy::RetryPolicy`]); also in
    /// [`Fleet::dead_letters`].
    DeadLettered,
}

/// The fleet-wide result of one service run (or a [`Fleet::report`]
/// snapshot).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-tenant outcomes, in submission order.
    pub tenants: Vec<TenantOutcome>,
    /// Name → index into [`tenants`](Self::tenants) (first occurrence
    /// wins, matching the old linear scan). Built by
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
    /// [`Fleet::report`]; zero for hand-built reports.
    #[serde(default)]
    pub breaker_open_hours: f64,
    /// Admissions served from the plan cache (shape reused, certified
    /// against a fresh root LP bound; no branch & bound). Filled by
    /// [`Fleet::report`]; zero for hand-built reports or when
    /// [`FleetConfig::plan_cache`] is off.
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

    /// The outcome for a tenant by name — an index lookup, not the old
    /// O(n) scan. Hand-built reports without an index still resolve via
    /// the scan fallback.
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

/// A typed fleet lifecycle event, delivered to [`FleetObserver`]s and the
/// [`Fleet::events`] log in deterministic clock order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// A job entered the session (not yet admitted; its arrival event is
    /// pending on the clock).
    Submitted {
        /// The submitted job.
        tenant: TenantId,
        /// Fleet hour of the submission itself (events are emitted in
        /// non-decreasing `at_hours` order).
        at_hours: f64,
        /// Effective hour the arrival event will fire (≥ `at_hours`).
        arrival_hours: f64,
        /// The full request, making the log entry self-describing:
        /// [`Fleet::replay`] re-drives the submission from this payload
        /// alone, no side-channel request list required.
        request: FleetJobRequest,
    },
    /// Admission planning succeeded; the job's execution process is live.
    Admitted {
        /// The admitted job.
        tenant: TenantId,
        /// Admission hour.
        at_hours: f64,
        /// The plan-cache key the admission was served from, when the
        /// fast path decided (`None` for full branch & bound solves and
        /// in shadow mode, which never *uses* the cache).
        cache_key: Option<PlanCacheKey>,
    },
    /// The plan the tenant was admitted under.
    Planned {
        /// The planned job.
        tenant: TenantId,
        /// Planning hour (same instant as admission).
        at_hours: f64,
        /// The plan's expected cost in USD.
        expected_cost: f64,
        /// The plan's expected completion, in hours after arrival.
        expected_completion_hours: f64,
    },
    /// Admission failed: no feasible plan under the residual capacity (or
    /// the deployment was invalid).
    Rejected {
        /// The rejected job.
        tenant: TenantId,
        /// Rejection hour.
        at_hours: f64,
        /// Why admission failed.
        reason: String,
    },
    /// The monitor re-planned the job in place and spliced the new node
    /// schedule into the live deployment.
    Replanned {
        /// The re-planned job.
        tenant: TenantId,
        /// Monitor-tick hour of the re-plan.
        at_hours: f64,
    },
    /// A revocation sweep terminated this job's cloud nodes (spot price
    /// above the job's bid).
    Revoked {
        /// The victim.
        tenant: TenantId,
        /// The out-bid hour.
        at_hours: f64,
        /// Nodes terminated by this sweep.
        nodes_killed: usize,
    },
    /// The execution re-raised its last cloud allocation to finish
    /// stragglers the schedule's ramp-down would have stranded.
    StragglerExtended {
        /// The extended job.
        tenant: TenantId,
        /// Hour of the extension.
        at_hours: f64,
    },
    /// The job (including its result download) completed.
    Completed {
        /// The finished job.
        tenant: TenantId,
        /// Completion hour on the fleet clock.
        at_hours: f64,
        /// Deadline verdict (`None` when no deadline was configured).
        met_deadline: Option<bool>,
    },
    /// A terminal job missed its configured deadline (emitted alongside
    /// [`Completed`](Self::Completed) or [`Failed`](Self::Failed)).
    DeadlineMissed {
        /// The late job.
        tenant: TenantId,
        /// Hour the verdict became final.
        at_hours: f64,
    },
    /// The client cancelled the job (before arrival, or mid-run with a
    /// partial bill).
    Cancelled {
        /// The cancelled job.
        tenant: TenantId,
        /// Cancellation hour.
        at_hours: f64,
    },
    /// The admitted job failed to finish (stuck, or over its hours cap).
    Failed {
        /// The failed job.
        tenant: TenantId,
        /// Hour of the abort.
        at_hours: f64,
        /// Why it failed.
        reason: String,
    },
    /// The fault plan injected a fault into a running job.
    FaultInjected {
        /// The victim.
        tenant: TenantId,
        /// The fault hour.
        at_hours: f64,
        /// What the fault did.
        kind: FaultKind,
        /// Cloud nodes terminated (node crashes only; zero for task
        /// failures).
        nodes_killed: usize,
        /// The fault's pre-drawn victim-selection salt (see
        /// [`crate::policy::FaultEvent::salt`]), so the log records the
        /// complete draw that picked this victim.
        salt: u64,
    },
    /// The retry policy re-submitted a failed (or late) tenant as a
    /// fresh arrival.
    Retried {
        /// The new attempt's tenant handle.
        tenant: TenantId,
        /// The root submission the attempt descends from.
        of: TenantId,
        /// Attempt number (1 = first retry).
        attempt: usize,
        /// Hour the retry was issued.
        at_hours: f64,
        /// Hour the retry's arrival will fire (issue hour + backoff).
        arrival_hours: f64,
    },
    /// A tenant exhausted its retry budget and landed in the
    /// dead-letter queue ([`Fleet::dead_letters`]).
    DeadLettered {
        /// The final attempt's tenant handle.
        tenant: TenantId,
        /// Hour the budget ran out.
        at_hours: f64,
        /// Attempts consumed, including the original run.
        attempts: usize,
        /// The final attempt's failure (or rejection) reason.
        reason: String,
    },
    /// The failure-rate gate crossed its pause threshold: new arrivals
    /// are refused until the rate recovers.
    AdmissionPaused {
        /// The crossing hour.
        at_hours: f64,
        /// Failure fraction of the window at the crossing.
        failure_fraction: f64,
    },
    /// The failure-rate gate recovered: arrivals are admitted again.
    AdmissionResumed {
        /// The recovery hour.
        at_hours: f64,
        /// Failure fraction of the window at the recovery.
        failure_fraction: f64,
    },
    /// The spot-market circuit breaker opened (or reopened after a
    /// failed probation): planning stops acquiring spot.
    BreakerOpened {
        /// The opening hour.
        at_hours: f64,
        /// Revocation strikes inside the sliding window.
        strikes: usize,
    },
    /// The breaker half-opened after its clean-hour streak: spot is
    /// bought again on probation.
    BreakerHalfOpen {
        /// The probation hour.
        at_hours: f64,
    },
    /// The breaker closed: the market is trusted again.
    BreakerClosed {
        /// The closing hour.
        at_hours: f64,
    },
    /// A tenant admitted while the breaker was open bought on-demand
    /// capacity instead of waiting out the spot market
    /// ([`FallbackTier::OnDemand`]).
    FallbackEngaged {
        /// The tenant paying the ceiling.
        tenant: TenantId,
        /// The admission hour.
        at_hours: f64,
    },
    /// A queued tenant left this session via [`Fleet::migrate_out`] — a
    /// sharded runtime moved it to another shard before its arrival
    /// fired. The submission is recorded as terminal here (rejection
    /// "migrated to another shard"); the receiving shard logs its own
    /// [`Submitted`](Self::Submitted) with the carried request.
    MigratedOut {
        /// The migrated tenant's handle *in this session*.
        tenant: TenantId,
        /// Hour of the migration (a rebalance barrier).
        at_hours: f64,
    },
    /// The monitor-tick grid was aligned with a fleet-level arrival
    /// observed outside this session ([`Fleet::align_monitor`]): a
    /// sharded runtime broadcasts every arrival so all shards tick on
    /// the same grid regardless of which shard the tenant landed on.
    MonitorAligned {
        /// Hour the alignment was applied (the submission hour).
        at_hours: f64,
        /// The foreign arrival's effective hour.
        arrival_hours: f64,
    },
}

impl FleetEvent {
    /// The tenant this event is about; `None` for fleet-wide events
    /// (admission gate and breaker transitions).
    pub fn tenant(&self) -> Option<TenantId> {
        match self {
            FleetEvent::Submitted { tenant, .. }
            | FleetEvent::Admitted { tenant, .. }
            | FleetEvent::Planned { tenant, .. }
            | FleetEvent::Rejected { tenant, .. }
            | FleetEvent::Replanned { tenant, .. }
            | FleetEvent::Revoked { tenant, .. }
            | FleetEvent::StragglerExtended { tenant, .. }
            | FleetEvent::Completed { tenant, .. }
            | FleetEvent::DeadlineMissed { tenant, .. }
            | FleetEvent::Cancelled { tenant, .. }
            | FleetEvent::Failed { tenant, .. }
            | FleetEvent::FaultInjected { tenant, .. }
            | FleetEvent::Retried { tenant, .. }
            | FleetEvent::DeadLettered { tenant, .. }
            | FleetEvent::FallbackEngaged { tenant, .. }
            | FleetEvent::MigratedOut { tenant, .. } => Some(*tenant),
            FleetEvent::AdmissionPaused { .. }
            | FleetEvent::AdmissionResumed { .. }
            | FleetEvent::BreakerOpened { .. }
            | FleetEvent::BreakerHalfOpen { .. }
            | FleetEvent::BreakerClosed { .. }
            | FleetEvent::MonitorAligned { .. } => None,
        }
    }

    /// The fleet-clock hour the event happened at.
    pub fn at_hours(&self) -> f64 {
        match self {
            FleetEvent::Submitted { at_hours, .. }
            | FleetEvent::Admitted { at_hours, .. }
            | FleetEvent::Planned { at_hours, .. }
            | FleetEvent::Rejected { at_hours, .. }
            | FleetEvent::Replanned { at_hours, .. }
            | FleetEvent::Revoked { at_hours, .. }
            | FleetEvent::StragglerExtended { at_hours, .. }
            | FleetEvent::Completed { at_hours, .. }
            | FleetEvent::DeadlineMissed { at_hours, .. }
            | FleetEvent::Cancelled { at_hours, .. }
            | FleetEvent::Failed { at_hours, .. }
            | FleetEvent::FaultInjected { at_hours, .. }
            | FleetEvent::Retried { at_hours, .. }
            | FleetEvent::DeadLettered { at_hours, .. }
            | FleetEvent::AdmissionPaused { at_hours, .. }
            | FleetEvent::AdmissionResumed { at_hours, .. }
            | FleetEvent::BreakerOpened { at_hours, .. }
            | FleetEvent::BreakerHalfOpen { at_hours, .. }
            | FleetEvent::BreakerClosed { at_hours, .. }
            | FleetEvent::FallbackEngaged { at_hours, .. }
            | FleetEvent::MigratedOut { at_hours, .. }
            | FleetEvent::MonitorAligned { at_hours, .. } => *at_hours,
        }
    }
}

/// A registered fleet-event sink. Events arrive in deterministic clock
/// order, exactly as they are appended to [`Fleet::events`].
///
/// Any `FnMut(&FleetEvent)` closure is an observer:
///
/// ```
/// use conductor_core::{FleetEvent, FleetObserver};
/// let mut seen = 0usize;
/// let mut obs = |_e: &FleetEvent| seen += 1;
/// FleetObserver::on_event(&mut obs, &FleetEvent::Cancelled {
///     tenant: conductor_core::TenantId(0),
///     at_hours: 0.0,
/// });
/// assert_eq!(seen, 1);
/// ```
pub trait FleetObserver {
    /// Called for every emitted event, in clock order.
    fn on_event(&mut self, event: &FleetEvent);
}

impl<F: FnMut(&FleetEvent)> FleetObserver for F {
    fn on_event(&mut self, event: &FleetEvent) {
        self(event)
    }
}

/// Lifecycle state of one tenant, for [`Fleet::status`].
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

/// A live snapshot of one tenant's job, assembled by [`Fleet::status`]
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

/// Events on the fleet clock (internal wakeups; the public, typed stream
/// is [`FleetEvent`]). Serializable because a [`FleetSnapshot`] carries
/// the pending heap verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum ClockEvent {
    /// Submission `i` arrives and asks for admission.
    Arrival(usize),
    /// Wakeup for an admitted job's execution process.
    Job(ProcessId),
    /// Revocation sweep: the spot price may have risen above some running
    /// job's bid at this hour.
    Revocation,
    /// Injected fault `i` of the configured
    /// [`FaultPlan`](crate::policy::FaultPlan) fires.
    Fault(usize),
    /// Hourly circuit-breaker probe of the trace hour just elapsed; only
    /// scheduled while the breaker is not closed.
    BreakerProbe,
    /// Periodic progress check over every running job; the payload is the
    /// chain generation (a tick from a superseded chain is ignored).
    MonitorTick(u64),
}

impl ClockEvent {
    /// Arrivals settle first at a tick, then job state, then the market
    /// revokes, then faults strike, then the breaker probes, then the
    /// monitor observes (so it never sees a half-applied hour).
    /// Revocations deliberately order *after* job wakeups at the same
    /// instant: a task that finishes exactly at the out-bid hour
    /// completed its hour and retires normally; only the survivors lose
    /// their nodes. Faults follow the same rule, and breaker probes
    /// order after both so a probe sees the strikes of its own hour.
    fn class(self) -> u8 {
        match self {
            ClockEvent::Arrival(_) => 0,
            ClockEvent::Job(_) => 1,
            ClockEvent::Revocation => 2,
            ClockEvent::Fault(_) => 3,
            ClockEvent::BreakerProbe => 4,
            ClockEvent::MonitorTick(_) => 9,
        }
    }
}

/// How a tenant reached a terminal state, for the failure-policy hook
/// (`Fleet::on_terminal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TerminalKind {
    /// Completed within its deadline (or with no deadline configured).
    CompletedOnTime,
    /// Completed, but past the deadline.
    CompletedLate,
    /// Aborted mid-run: injected fault, over the hours cap, stuck, or
    /// stalled at the final drain.
    Failed,
    /// Refused at arrival (no feasible plan, or the admission gate was
    /// paused).
    Rejected,
}

/// A successful admission: the job's execution process, whether the
/// breaker's on-demand fallback tier was engaged, the plan-cache key the
/// plan was served from (fast path only), and the initial event schedule
/// to inject into the fleet clock.
type Admission = (
    ActiveJob,
    bool,
    Option<PlanCacheKey>,
    Vec<(f64, conductor_mapreduce::JobEvent)>,
);

/// One admitted, still-running job.
struct ActiveJob {
    request_idx: usize,
    start: f64,
    exec: JobExecution<'static>,
    spec: JobSpec,
    goal: Goal,
    /// The request's per-tenant bid override (`None` = the fleet bid), for
    /// revocation checks and re-plan forecasts.
    tenant_bid: Option<f64>,
    /// `(fleet_hour, cumulative expected map GB)` checkpoints the monitor
    /// compares real progress against; rebuilt on every re-plan.
    progress_model: Vec<(f64, f64)>,
    /// Set when a revocation killed nodes out from under this job; the
    /// next monitor tick re-plans it against the post-storm residual
    /// without waiting for the progress shortfall to accumulate.
    storm_hit: bool,
    /// Set when the job was admitted on the breaker's on-demand fallback
    /// tier: its sessions are priced on-demand and revocation sweeps
    /// skip it.
    fallback_on_demand: bool,
}

/// Cached, query-ready view of one active job's node schedule: every step
/// offset (for sample-point harvesting) plus the steps grouped per
/// instance type and stable-sorted by time. The stable sort keeps
/// schedule order among exactly-equal `from_hour`s, which is the element
/// `nodes_at`'s `max_by` would return — so a sweep over these lists
/// reproduces the full rescan bit for bit.
struct JobScheduleView {
    /// [`JobExecution::schedule_epoch`] the view was built at; a mismatch
    /// means the schedule mutated (splice, straggler extension,
    /// revocation shift) and the view must be rebuilt.
    epoch: u64,
    /// The job's fleet start hour (offsets below are relative to it).
    start: f64,
    /// Every step offset in schedule order, all instance types.
    offsets: Vec<f64>,
    /// Instance type → stable time-sorted `(from_hour, nodes)` steps.
    by_type: BTreeMap<String, Vec<(f64, usize)>>,
}

impl JobScheduleView {
    fn build(job: &ActiveJob) -> Self {
        let mut by_type: BTreeMap<String, Vec<(f64, usize)>> = BTreeMap::new();
        let mut offsets = Vec::with_capacity(job.exec.node_schedule().len());
        for step in job.exec.node_schedule() {
            offsets.push(step.from_hour);
            by_type
                .entry(step.instance_type.clone())
                .or_default()
                .push((step.from_hour, step.nodes));
        }
        for steps in by_type.values_mut() {
            // `sort_by` is stable: exact `from_hour` ties keep schedule
            // order, matching `max_by`'s last-of-equals.
            steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        JobScheduleView {
            epoch: job.exec.schedule_epoch(),
            start: job.start,
            offsets,
            by_type,
        }
    }
}

/// Incrementally maintained index over the active jobs' node commitments,
/// backing [`Fleet::residual_pool`]. Admission, re-planning, completion,
/// revocation and cancellation each either change the `active` key set or
/// bump a job's schedule epoch, so [`Self::sync`] catches every mutation
/// without the event sites knowing the index exists.
#[derive(Default)]
struct ResidualIndex {
    jobs: BTreeMap<ProcessId, JobScheduleView>,
}

impl ResidualIndex {
    /// Brings the cache in line with the live job table: drops entries for
    /// departed processes, (re)builds entries whose schedule epoch moved.
    fn sync(&mut self, active: &BTreeMap<ProcessId, ActiveJob>) {
        self.jobs.retain(|pid, _| active.contains_key(pid));
        for (pid, job) in active {
            let fresh = self
                .jobs
                .get(pid)
                .is_some_and(|v| v.epoch == job.exec.schedule_epoch() && v.start == job.start);
            if !fresh {
                self.jobs.insert(*pid, JobScheduleView::build(job));
            }
        }
    }

    /// The residual pool at `at`: per capped resource, the cap minus the
    /// peak committed node count over `at` and every strictly-future step
    /// time. One merged sweep per resource — each schedule step is
    /// examined O(1) times — instead of re-evaluating every job's whole
    /// schedule at every sample point.
    fn residual(&self, base: &ResourcePool, at: f64, exclude: Option<ProcessId>) -> ResourcePool {
        let mut pool = base.clone();
        // Sample points: `at` plus every future schedule step of any
        // included job, deduplicated within TIME_EPSILON (coincident
        // instants sample identical commitments).
        let mut samples: Vec<f64> = vec![at];
        for (pid, view) in &self.jobs {
            if Some(*pid) == exclude {
                continue;
            }
            for &off in &view.offsets {
                let abs = view.start + off;
                if abs > at + TIME_EPSILON {
                    samples.push(abs);
                }
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        samples.dedup_by(|next, kept| (*next - *kept).abs() <= TIME_EPSILON);

        for c in &mut pool.compute {
            let Some(cap) = c.max_nodes else {
                continue; // uncapped resources have no contention
            };
            let mut slots: Vec<(&JobScheduleView, &[(f64, usize)])> = Vec::new();
            for (pid, view) in &self.jobs {
                if Some(*pid) == exclude {
                    continue;
                }
                if let Some(steps) = view.by_type.get(&c.name) {
                    slots.push((view, steps));
                }
            }
            // Merge every step into one list ordered by approximate
            // absolute time. `start + from_hour` rounds, so due-ness is
            // re-checked below with the exact per-job comparison
            // `nodes_at` uses; the 2·TIME_EPSILON pop margin dominates
            // any rounding in the merge key, so no due step is missed.
            let mut events: Vec<(f64, usize, usize)> = Vec::new();
            for (si, (view, steps)) in slots.iter().enumerate() {
                for (k, (off, _)) in steps.iter().enumerate() {
                    events.push((view.start + off, si, k));
                }
            }
            events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

            // `applied[si]` / `cur[si]`: index and node count of the last
            // step that fired for slot `si` (a later step supersedes an
            // earlier one, exactly like `nodes_at`'s max-by-time).
            let mut applied: Vec<usize> = vec![usize::MAX; slots.len()];
            let mut cur: Vec<usize> = vec![0; slots.len()];
            let mut committed: usize = 0;
            let mut peak: usize = 0;
            let mut next = 0usize;
            let mut deferred: Vec<(f64, usize, usize)> = Vec::new();
            for &p in &samples {
                // Re-examine steps deferred at an earlier sample, then
                // pull in newly reachable ones; a step only fires when
                // the exact `from_hour <= (p - start) + 1e-9` test that
                // `nodes_at` performs passes.
                let mut pending = std::mem::take(&mut deferred);
                while next < events.len() && events[next].0 <= p + 2.0 * TIME_EPSILON {
                    pending.push(events[next]);
                    next += 1;
                }
                for ev in pending {
                    let (_, si, k) = ev;
                    let (view, steps) = slots[si];
                    if steps[k].0 <= (p - view.start) + 1e-9 {
                        if applied[si] == usize::MAX || k > applied[si] {
                            committed = committed + steps[k].1 - cur[si];
                            cur[si] = steps[k].1;
                            applied[si] = k;
                        }
                    } else {
                        deferred.push(ev);
                    }
                }
                peak = peak.max(committed);
            }
            c.max_nodes = Some(cap.saturating_sub(peak));
        }
        pool
    }
}

/// Key of the admission plan cache: the planning horizon plus the exact
/// bit patterns of the job-spec fields that shape the model. Prices,
/// residual caps and bids are deliberately *not* part of the key — a
/// candidate entry is re-priced under the current forecast and certified
/// against the current model's root LP bound instead, so look-alike
/// arrivals share plans across market drift and capacity churn.
///
/// Public because cache-served admissions record their key on
/// [`FleetEvent::Admitted`], making the event log self-describing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlanCacheKey {
    /// Planning horizon in intervals.
    pub horizon: usize,
    /// The spec's reduce-task count.
    pub reduce_tasks: usize,
    /// Exact bit patterns of the model-shaping spec floats: `input_gb`,
    /// `split_mb`, `map_output_ratio`, `reduce_output_ratio`,
    /// `reference_throughput_gbph`.
    pub spec_bits: [u64; 5],
}

impl PlanCacheKey {
    fn new(spec: &JobSpec, horizon: usize) -> Self {
        Self {
            horizon,
            reduce_tasks: spec.reduce_tasks,
            spec_bits: [
                spec.input_gb.to_bits(),
                spec.split_mb.to_bits(),
                spec.map_output_ratio.to_bits(),
                spec.reduce_output_ratio.to_bits(),
                spec.reference_throughput_gbph.to_bits(),
            ],
        }
    }
}

/// One cached admission plan: the shape, the objective it solved to, and
/// the resolved per-interval price vector it solved under. The model's
/// objective is linear in prices with node counts as coefficients, so
/// `cost + Σ nodes·(p_new − p_old)·dt` is *exactly* the current model's
/// objective for this shape — no approximation in the re-pricing.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PlanCacheEntry {
    plan: ExecutionPlan,
    /// Objective the shape solved to under `prices`.
    cost: f64,
    /// `cost / root LP bound` of the solve that produced this entry — the
    /// integrality-plus-termination quality a *fresh* branch & bound
    /// achieved on this key. These models carry a large, key-specific
    /// integrality gap (the fluid relaxation rents fractional nodes), so
    /// absolute closeness to the root bound is the wrong bar; closeness
    /// relative to what fresh solves of the same key actually attain is
    /// the certifiable one.
    ratio: f64,
    /// Resolved per-interval price per compute type at solve time
    /// (forecast price, or the type's on-demand hourly price).
    prices: BTreeMap<String, Vec<f64>>,
    /// Peak per-interval node count per type — the feasibility screen
    /// against the current residual caps (the model bounds `nodes[c][t]`
    /// by the cap in every interval).
    peaks: BTreeMap<String, usize>,
}

/// How many shapes each key retains (oldest evicted first, so the pool
/// tracks the price regimes arrivals actually solve under).
const PLAN_CACHE_POOL: usize = 8;

/// How many recent fresh-solve quality ratios each key remembers for the
/// certification bar.
const PLAN_CACHE_RATIO_WINDOW: usize = 8;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PlanCache {
    entries: BTreeMap<PlanCacheKey, Vec<PlanCacheEntry>>,
    /// Rolling window of `cost / root bound` ratios fresh solves achieved
    /// per key. The *median* of this window is what a typical branch &
    /// bound delivers on this key — the bar a reused shape must meet.
    fresh_ratios: BTreeMap<PlanCacheKey, Vec<f64>>,
    /// Root bound of the probe that preceded the current admission's
    /// solve — consumed by the insert that follows a miss, so the entry
    /// can record its fresh-solve quality ratio.
    last_bound: Option<f64>,
    hits: usize,
    misses: usize,
    /// Shadow-mode counters (see [`FleetConfig::plan_cache_shadow`]):
    /// would-be hits compared against the fresh solve that actually
    /// decided, how many re-priced *worse* than the fresh cost by more
    /// than the solver's relative gap, and the worst relative excess.
    shadow_checked: usize,
    shadow_worse: usize,
    shadow_excess_max: f64,
    shadow_excess_sum: f64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            entries: BTreeMap::new(),
            fresh_ratios: BTreeMap::new(),
            last_bound: None,
            hits: 0,
            misses: 0,
            shadow_checked: 0,
            shadow_worse: 0,
            // −∞ so a final negative maximum is visible: it means every
            // shadow-compared hit re-priced *cheaper* than its fresh solve.
            shadow_excess_max: f64::NEG_INFINITY,
            shadow_excess_sum: 0.0,
        }
    }
}

impl PlanCache {
    /// Median fresh-solve quality ratio observed for `key` (`None` until a
    /// fresh solve has been recorded).
    fn typical_ratio(&self, key: &PlanCacheKey) -> Option<f64> {
        let window = self.fresh_ratios.get(key)?;
        if window.is_empty() {
            return None;
        }
        let mut sorted = window.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(sorted[sorted.len() / 2])
    }
}

/// The per-interval price per compute type the model objective would use
/// under `forecast`: the forecast price when one exists for the type and
/// interval, else the type's on-demand hourly price (mirrors the model's
/// price resolution exactly).
fn resolved_prices(
    pool: &ResourcePool,
    forecast: &BTreeMap<String, Vec<f64>>,
    horizon: usize,
) -> BTreeMap<String, Vec<f64>> {
    let mut out = BTreeMap::new();
    for c in &pool.compute {
        let prices: Vec<f64> = (0..horizon)
            .map(|t| {
                forecast
                    .get(&c.name)
                    .and_then(|f| f.get(t))
                    .copied()
                    .unwrap_or(c.hourly_price)
            })
            .collect();
        out.insert(c.name.clone(), prices);
    }
    out
}

/// The entry's objective under today's prices (`None` if a node type in
/// the shape has no price row — cannot happen for entries built from the
/// same pool, but degrade to a miss rather than panic).
fn reprice_entry(entry: &PlanCacheEntry, prices_now: &BTreeMap<String, Vec<f64>>) -> Option<f64> {
    let dt = entry.plan.interval_hours;
    let mut cost = entry.cost;
    for (t, interval) in entry.plan.intervals.iter().enumerate() {
        for (ty, &n) in &interval.nodes {
            if n == 0 {
                continue;
            }
            let old = entry.prices.get(ty)?.get(t)?;
            let new = prices_now.get(ty)?.get(t)?;
            cost += n as f64 * (new - old) * dt;
        }
    }
    Some(cost)
}

/// Whether the shape fits the current residual capacity: every capped
/// compute type has room for the entry's peak allocation.
fn entry_fits(entry: &PlanCacheEntry, residual: &ResourcePool) -> bool {
    residual.compute.iter().all(|c| match c.max_nodes {
        Some(cap) => entry.peaks.get(&c.name).copied().unwrap_or(0) <= cap,
        None => true,
    })
}

/// A long-lived, incremental multi-tenant orchestration session — see the
/// [module docs](self) for the API tour and the determinism contract.
pub struct Fleet {
    catalog: Catalog,
    pool: ResourcePool,
    config: FleetConfig,

    sim: Simulator<ClockEvent>,
    registry: ProcessRegistry,
    active: BTreeMap<ProcessId, ActiveJob>,
    /// Submission `i`'s request, retained until its arrival fires.
    requests: Vec<FleetJobRequest>,
    outcomes: Vec<TenantOutcome>,
    /// Submission index → execution process, once admitted.
    tenant_pids: BTreeMap<usize, ProcessId>,
    cancelled: BTreeSet<usize>,
    /// Submitted arrivals whose event has not fired yet.
    arrivals_pending: usize,

    /// Earliest effective arrival ever submitted: the origin of the
    /// monitor-tick grid.
    monitor_anchor: Option<f64>,
    /// Generation of the live tick chain; a popped tick from an older
    /// generation was superseded and is ignored.
    monitor_gen: u64,
    /// Time of the currently scheduled tick, when the chain is live.
    monitor_next: f64,
    monitor_live: bool,
    /// `true` once any tick fired (the grid can no longer be re-anchored).
    monitor_fired: bool,

    /// Trace hours with a scheduled revocation sweep (dedup across the
    /// fleet bid and per-tenant bids).
    revocation_hours_scheduled: BTreeSet<usize>,

    /// Tenants that exhausted their retry budget, in dead-letter order.
    dead_letters: Vec<DeadLetter>,
    /// Runtime state of the admission gate, when configured.
    failure_window: Option<FailureWindow>,
    /// Runtime state of the spot-market circuit breaker, when configured
    /// alongside a market.
    breaker: Option<SpotBreaker>,
    /// `true` while a breaker-probe chain is scheduled (one at a time).
    probe_live: bool,

    /// Time of the last processed event batch (where stalled jobs are
    /// aborted when the heap drains).
    last_hour: f64,
    /// The fleet's logical "now": the max of every processed event time
    /// and every `step_until` bound.
    stepped_to: f64,

    events: Vec<FleetEvent>,
    observers: Vec<Box<dyn FleetObserver + Send>>,
    /// Write-ahead log tailing every emitted event (see
    /// [`attach_wal`](Self::attach_wal)); `None` when not tailing.
    wal: Option<WalWriter>,
    /// The write failure that detached the WAL, if one occurred.
    wal_error: Option<String>,
    /// Reusable batch buffer for `pop_due`.
    batch: Vec<ClockEvent>,
    /// Incremental view of active-job node commitments backing
    /// `residual_pool` (interior mutability: queries lazily refresh the
    /// cache but are logically reads).
    residual_index: RefCell<ResidualIndex>,
    /// Cross-solve skeleton/basis reuse for admission and re-plan solves:
    /// look-alike models drain through one factorization instead of each
    /// paying a cold two-phase fill.
    solve_ctx: SolveContext,
    /// Admission plan cache (inert unless [`FleetConfig::plan_cache`]).
    plan_cache: PlanCache,
    /// Separate context for shadow-mode probes, so validation probing
    /// never perturbs the basis chain of the real solves.
    shadow_ctx: SolveContext,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("now_hours", &self.stepped_to)
            .field("submitted", &self.outcomes.len())
            .field("active", &self.active.len())
            .field("arrivals_pending", &self.arrivals_pending)
            .field("events", &self.events.len())
            .finish()
    }
}

impl Fleet {
    /// Opens a session over a catalog, the fleet-wide resource pool and a
    /// validated [`FleetConfig`]. With a spot market configured, the
    /// trace's out-bid hours (at the fleet bid) are scheduled as
    /// revocation sweeps up front — first-class events on the shared
    /// clock, exactly as the batch driver always did.
    pub fn new(
        catalog: Catalog,
        pool: ResourcePool,
        config: FleetConfig,
    ) -> Result<Self, ConductorError> {
        pool.validate().map_err(ConductorError::InvalidInput)?;
        config.validate()?;
        let mut sim: Simulator<ClockEvent> = Simulator::new();
        let mut revocation_hours_scheduled = BTreeSet::new();
        // The trace-driven revocation schedule: one sweep per hour the spot
        // price sits above the fleet bid, shared by every tenant. These are
        // first-class events on the shared clock, not a post-hoc price
        // adjustment — a storm interrupts running executions mid-flight.
        if let Some(market) = &config.spot_market {
            let bid = config.spot_bid.unwrap_or(market.on_demand_price);
            for hour in market.revocation_hours(0, market.trace().len(), bid) {
                revocation_hours_scheduled.insert(hour);
                sim.schedule(
                    hour as f64,
                    ClockEvent::Revocation.class(),
                    ClockEvent::Revocation,
                );
            }
        }
        // The fault plan is materialized onto the clock up front, exactly
        // like the revocation schedule: seeded once, replayed bit for bit.
        if let Some(plan) = &config.policy.fault_plan {
            for (i, event) in plan.events.iter().enumerate() {
                sim.schedule(
                    event.at_hours,
                    ClockEvent::Fault(i).class(),
                    ClockEvent::Fault(i),
                );
            }
        }
        let failure_window = config.policy.failure_threshold.map(FailureWindow::new);
        let breaker = match (&config.spot_market, config.policy.circuit_breaker) {
            (Some(_), Some(breaker_config)) => Some(SpotBreaker::new(breaker_config)),
            _ => None, // without a market there is nothing to break
        };
        Ok(Self {
            catalog,
            pool,
            config,
            sim,
            registry: ProcessRegistry::new(),
            active: BTreeMap::new(),
            requests: Vec::new(),
            outcomes: Vec::new(),
            tenant_pids: BTreeMap::new(),
            cancelled: BTreeSet::new(),
            arrivals_pending: 0,
            monitor_anchor: None,
            monitor_gen: 0,
            monitor_next: 0.0,
            monitor_live: false,
            monitor_fired: false,
            revocation_hours_scheduled,
            dead_letters: Vec::new(),
            failure_window,
            breaker,
            probe_live: false,
            last_hour: 0.0,
            stepped_to: 0.0,
            events: Vec::new(),
            observers: Vec::new(),
            wal: None,
            wal_error: None,
            batch: Vec::new(),
            residual_index: RefCell::new(ResidualIndex::default()),
            solve_ctx: SolveContext::new(),
            plan_cache: PlanCache::default(),
            shadow_ctx: SolveContext::new(),
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The fleet-wide resource pool.
    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }

    /// The fleet's logical clock: the latest processed event time or
    /// `step_until` bound, whichever is later.
    pub fn now_hours(&self) -> f64 {
        self.stepped_to
    }

    /// Every [`FleetEvent`] emitted so far, in clock order.
    pub fn events(&self) -> &[FleetEvent] {
        &self.events
    }

    /// The events emitted at or after log position `from` — a poll-style
    /// subscription cursor (`let cur = fleet.events().len()` … step …
    /// `fleet.events_since(cur)`).
    pub fn events_since(&self, from: usize) -> &[FleetEvent] {
        &self.events[from.min(self.events.len())..]
    }

    /// Registers an observer; it receives every subsequent event in clock
    /// order. Closures work directly:
    /// `fleet.observe(Box::new(|e: &FleetEvent| println!("{e:?}")))`.
    /// Observers are `Send` so a whole session can move across threads
    /// (the sharded runtime steps shards on a scoped pool).
    pub fn observe(&mut self, observer: Box<dyn FleetObserver + Send>) {
        self.observers.push(observer);
    }

    /// Attaches a write-ahead log that *tails* the session: every
    /// [`FleetEvent`] emitted from this point on is appended (and
    /// flushed) as it happens, rather than post-hoc — so the log on disk
    /// is durable mid-run and a crash loses at most the entry being
    /// written (the torn tail [`crate::wal::WalReader::recover`]
    /// repairs). Events
    /// already emitted are *not* backfilled; to capture a complete log,
    /// attach before stepping or pre-write `events()` with
    /// [`WalWriter::log_all`] first.
    ///
    /// A write failure detaches the log (the session keeps running) and
    /// is surfaced via [`wal_error`](Self::wal_error).
    pub fn attach_wal(&mut self, wal: WalWriter) {
        self.wal = Some(wal);
        self.wal_error = None;
    }

    /// Detaches and returns the tailing WAL, if one is attached.
    pub fn detach_wal(&mut self) -> Option<WalWriter> {
        self.wal.take()
    }

    /// The write failure that detached the tailing WAL, if any.
    pub fn wal_error(&self) -> Option<&str> {
        self.wal_error.as_deref()
    }

    /// Submits a job to the session at any time — before stepping, or
    /// mid-run. The arrival hour is clamped to the current fleet hour
    /// (jobs cannot arrive in the simulated past); admission itself
    /// happens when the clock reaches the arrival, against the residual
    /// capacity *then*. Returns the tenant's handle.
    ///
    /// Fails with [`ConductorError::InvalidInput`] on non-finite or
    /// negative arrival hours or per-tenant bids — invalid values must
    /// never reach the event heap, where a NaN would silently corrupt its
    /// ordering.
    pub fn submit(&mut self, request: FleetJobRequest) -> Result<TenantId, ConductorError> {
        if !request.arrival_hours.is_finite() || request.arrival_hours < 0.0 {
            return Err(ConductorError::InvalidInput(format!(
                "tenant `{}` has invalid arrival hour {}",
                request.tenant, request.arrival_hours
            )));
        }
        if let Some(bid) = request.spot_bid {
            if !bid.is_finite() || bid < 0.0 {
                return Err(ConductorError::InvalidInput(format!(
                    "tenant `{}` has invalid spot bid {bid}",
                    request.tenant
                )));
            }
        }
        if let Some(retry) = &request.retry_override {
            retry.validate()?;
        }
        let idx = self.outcomes.len();
        let arrival = request.arrival_hours.max(self.stepped_to);
        self.outcomes
            .push(TenantOutcome::pending(request.tenant.clone(), arrival));
        // A per-tenant bid *below* the fleet bid has out-bid hours the
        // construction-time sweep schedule missed; add them (future hours
        // only — the current partial hour is already gated by the
        // session's own acquisition check). Fleet-bid submissions skip the
        // scan: their hours were all scheduled at construction.
        if let (Some(market), Some(bid)) = (&self.config.spot_market, request.spot_bid) {
            let from = self.stepped_to.ceil().max(0.0) as usize;
            for hour in market.revocation_hours(from, market.trace().len(), bid) {
                if self.revocation_hours_scheduled.insert(hour) {
                    self.sim.schedule(
                        hour as f64,
                        ClockEvent::Revocation.class(),
                        ClockEvent::Revocation,
                    );
                }
            }
        }
        self.requests.push(request.clone());
        self.sim.inject(
            arrival,
            ClockEvent::Arrival(idx).class(),
            ClockEvent::Arrival(idx),
        );
        self.arrivals_pending += 1;
        self.ensure_monitor_chain(arrival);
        let at = self.stepped_to;
        self.emit(FleetEvent::Submitted {
            tenant: TenantId(idx),
            at_hours: at,
            arrival_hours: arrival,
            request,
        });
        Ok(TenantId(idx))
    }

    /// Cancels a tenant's job. Before arrival, the submission is marked
    /// rejected ("cancelled before arrival"); mid-run, the execution is
    /// aborted at the current fleet hour and its *partial bill stays on
    /// the fleet bill* (the spend was real). Returns `Ok(true)` when the
    /// cancellation changed anything, `Ok(false)` for already-terminal
    /// tenants, and `InvalidInput` for unknown handles.
    pub fn cancel(&mut self, id: TenantId) -> Result<bool, ConductorError> {
        let idx = id.0;
        if idx >= self.outcomes.len() {
            return Err(ConductorError::InvalidInput(format!(
                "unknown tenant id {idx} (only {} submissions)",
                self.outcomes.len()
            )));
        }
        if self.cancelled.contains(&idx) {
            return Ok(false);
        }
        // Mid-run: abort the live execution, keep the partial bill.
        if let Some(pid) = self.tenant_pids.get(&idx).copied() {
            if let Some(job) = self.active.remove(&pid) {
                let now = self.stepped_to;
                let rel = (now - job.start).max(0.0);
                let o = &mut self.outcomes[idx];
                o.failure = Some(format!("cancelled by client at fleet hour {now:.2}"));
                o.execution = Some(job.exec.abort(rel));
                self.cancelled.insert(idx);
                self.emit(FleetEvent::Cancelled {
                    tenant: id,
                    at_hours: now,
                });
                return Ok(true);
            }
        }
        let o = &mut self.outcomes[idx];
        if o.admitted || o.execution.is_some() || o.rejection.is_some() {
            return Ok(false); // already terminal
        }
        o.rejection = Some("cancelled before arrival".into());
        self.cancelled.insert(idx);
        // The phantom arrival event stays in the heap (heaps don't support
        // removal) but no longer counts as pending work, so the monitor
        // chain can die instead of ticking until the cancelled hour;
        // `handle_arrival` skips its own decrement for cancelled entries.
        self.arrivals_pending -= 1;
        let at = self.stepped_to;
        self.emit(FleetEvent::Cancelled {
            tenant: id,
            at_hours: at,
        });
        Ok(true)
    }

    /// Removes a *queued* tenant (submitted, arrival not yet fired) from
    /// this session, returning its request with the arrival hour set to
    /// the exact hour the pending arrival would have fired — so a
    /// receiving shard that re-submits it at the current fleet hour
    /// schedules the identical arrival. The local submission is closed
    /// out like a pre-arrival cancellation (rejection "migrated to
    /// another shard", the phantom heap arrival fizzles) and logged as
    /// [`FleetEvent::MigratedOut`].
    ///
    /// Running, terminal or cancelled tenants cannot migrate — the
    /// sharded rebalancer moves queued work only. Fails with
    /// [`ConductorError::InvalidInput`] on unknown handles or
    /// non-queued tenants.
    pub fn migrate_out(&mut self, id: TenantId) -> Result<FleetJobRequest, ConductorError> {
        let idx = id.0;
        if idx >= self.outcomes.len() {
            return Err(ConductorError::InvalidInput(format!(
                "unknown tenant id {idx} (only {} submissions)",
                self.outcomes.len()
            )));
        }
        let queued = !self.cancelled.contains(&idx) && !self.tenant_pids.contains_key(&idx) && {
            let o = &self.outcomes[idx];
            !o.admitted && o.execution.is_none() && o.rejection.is_none()
        };
        if !queued {
            return Err(ConductorError::InvalidInput(format!(
                "tenant {idx} is not queued (running, terminal or cancelled); only queued \
                 jobs migrate"
            )));
        }
        let mut request = self.requests[idx].clone();
        // Carry the *scheduled* arrival, not the requested one: a mid-run
        // submission was clamped to its submission hour, and a retry's
        // arrival is its backoff hour. Re-submitting at the current fleet
        // hour (<= the pending arrival, up to the batch epsilon) then
        // reproduces the identical arrival event on the receiving shard.
        request.arrival_hours = self.outcomes[idx].arrival_hours;
        let o = &mut self.outcomes[idx];
        o.rejection = Some("migrated to another shard".into());
        self.cancelled.insert(idx);
        // Like a pre-arrival cancel: the phantom arrival event stays in
        // the heap but no longer counts as pending work; `handle_arrival`
        // skips cancelled entries.
        self.arrivals_pending -= 1;
        let at = self.stepped_to;
        self.emit(FleetEvent::MigratedOut {
            tenant: id,
            at_hours: at,
        });
        Ok(request)
    }

    /// Aligns the monitor-tick grid with an arrival observed *outside*
    /// this session. The sharded runtime broadcasts every submission's
    /// effective arrival to all shards, so each shard's grid anchors at
    /// the fleet-wide earliest arrival — exactly the anchor a single
    /// unsharded session would use — and monitor ticks fire at identical
    /// hours regardless of the partitioning. Logged as
    /// [`FleetEvent::MonitorAligned`] so the shard's event log remains a
    /// sufficient record for [`replay`](Self::replay).
    ///
    /// Fails with [`ConductorError::InvalidInput`] on non-finite or
    /// negative hours.
    pub fn align_monitor(&mut self, arrival_hours: f64) -> Result<(), ConductorError> {
        if !arrival_hours.is_finite() || arrival_hours < 0.0 {
            return Err(ConductorError::InvalidInput(format!(
                "invalid monitor alignment hour {arrival_hours}"
            )));
        }
        let arrival = arrival_hours.max(self.stepped_to);
        self.ensure_monitor_chain(arrival);
        let at = self.stepped_to;
        self.emit(FleetEvent::MonitorAligned {
            at_hours: at,
            arrival_hours,
        });
        Ok(())
    }

    /// Advances the fleet through every event strictly before `hours`,
    /// then sets the logical clock to `hours`. Events at exactly `hours`
    /// stay pending, so a submission at the bound still settles *before*
    /// same-instant wakeups, revocations and ticks (class order). Ignores
    /// non-finite or backwards bounds.
    pub fn step_until(&mut self, hours: f64) {
        if !hours.is_finite() {
            return;
        }
        while let Some(t) = self.sim.peek_time() {
            if t + TIME_EPSILON >= hours {
                break;
            }
            self.drain_one_batch();
        }
        if hours > self.stepped_to {
            self.stepped_to = hours;
        }
    }

    /// Drains the event heap completely. Any job still active afterwards
    /// is stuck (nothing running, nothing scheduled) and is aborted with
    /// its accrued spend kept on the fleet bill — exactly the batch
    /// driver's final-drain semantics. With a retry policy configured, a
    /// stalled abort may schedule fresh retry arrivals, so the drain
    /// loops until the heap is empty *and* nothing is stalled. The
    /// session stays usable: later submissions start new work.
    pub fn run_to_quiescence(&mut self) {
        loop {
            while self.drain_one_batch() {}
            self.abort_stalled_jobs();
            // Retries issued by the stalled aborts (or by nothing at all)
            // decide whether another round is needed.
            if self.sim.peek_time().is_none() {
                break;
            }
        }
    }

    /// Aborts every still-active job as stalled (nothing running, nothing
    /// scheduled), keeping its accrued spend on the fleet bill. This is
    /// the final-drain step of [`run_to_quiescence`](Self::run_to_quiescence),
    /// factored out so [`replay`](Self::replay) can reproduce a live
    /// session's stalled aborts when the log expects terminal events with
    /// an empty heap. Returns `true` when any job was aborted.
    fn abort_stalled_jobs(&mut self) -> bool {
        let stalled: Vec<ProcessId> = self.active.keys().copied().collect();
        let any = !stalled.is_empty();
        for pid in stalled {
            let job = self.active.remove(&pid).expect("stalled job present");
            let rel = (self.last_hour - job.start).max(0.0);
            let idx = job.request_idx;
            let reason = "job stalled: no further events pending".to_string();
            let o = &mut self.outcomes[idx];
            o.failure = Some(reason.clone());
            let report = job.exec.abort(rel);
            let missed = report.met_deadline == Some(false);
            o.execution = Some(report);
            let at = self.last_hour;
            self.emit(FleetEvent::Failed {
                tenant: TenantId(idx),
                at_hours: at,
                reason,
            });
            if missed {
                self.emit(FleetEvent::DeadlineMissed {
                    tenant: TenantId(idx),
                    at_hours: at,
                });
            }
            self.on_terminal(idx, at, TerminalKind::Failed);
        }
        any
    }

    /// Pops and processes the next batch of simultaneous events, if any.
    /// Returns `false` when the heap is empty. This is the finest public
    /// stepping granularity — exactly one event *batch* (all events within
    /// [`TIME_EPSILON`] of the earliest pending time), which is also the
    /// granularity at which [`checkpoint`](Self::checkpoint) boundaries
    /// are meaningful: a checkpoint taken between two batches resumes bit
    /// for bit, whereas no boundary exists inside a batch.
    pub fn step_one_batch(&mut self) -> bool {
        self.drain_one_batch()
    }

    /// How many events are pending on the fleet clock (arrivals, job
    /// wakeups, revocation sweeps, faults, breaker probes and monitor
    /// ticks — including superseded ticks that will pop as no-ops).
    pub fn pending_events(&self) -> usize {
        self.sim.len()
    }

    /// A live snapshot of one tenant: lifecycle state, plan, execution
    /// progress and the bill so far.
    pub fn status(&self, id: TenantId) -> Option<TenantStatus> {
        let o = self.outcomes.get(id.0)?;
        let running = self
            .tenant_pids
            .get(&id.0)
            .and_then(|pid| self.active.get(pid));
        let state = if self.cancelled.contains(&id.0) {
            TenantState::Cancelled
        } else if running.is_some() {
            TenantState::Running
        } else if !o.admitted {
            if o.rejection.is_some() {
                TenantState::Rejected
            } else {
                TenantState::Queued
            }
        } else if o.failure.is_some() {
            TenantState::Failed
        } else if o.execution.is_some() {
            TenantState::Completed
        } else {
            TenantState::Running
        };
        let (progress, bill_so_far) = match running {
            Some(job) => {
                let rel = (self.stepped_to - job.start).max(0.0);
                // Quote the bill a stop *right now* would settle at (open
                // sessions included at their round-up charge), so a
                // cancellation's final bill never jumps away from the
                // last live quote.
                (Some(job.exec.progress(rel)), job.exec.cost_so_far_at(rel))
            }
            None => (
                None,
                o.execution.as_ref().map(|e| e.total_cost).unwrap_or(0.0),
            ),
        };
        Some(TenantStatus {
            tenant: o.tenant.clone(),
            state,
            arrival_hours: o.arrival_hours,
            plan: o.plan.clone(),
            progress,
            bill_so_far,
            replanned_at_hours: o.replanned_at_hours.clone(),
            revoked_at_hours: o.revoked_at_hours.clone(),
            finished_at_hours: o.finished_at_hours,
            rejection: o.rejection.clone(),
            failure: o.failure.clone(),
        })
    }

    /// The fleet bill right now: every terminal tenant's bill plus the
    /// charges running jobs have accrued so far (open rental sessions at
    /// the round-up charge a stop at this instant would settle them at,
    /// consistent with [`status`](Self::status) and with the final bill
    /// a [`cancel`](Self::cancel) produces).
    pub fn fleet_bill(&self) -> f64 {
        let terminal: f64 = self
            .outcomes
            .iter()
            .filter_map(|o| o.execution.as_ref())
            .map(|e| e.total_cost)
            .sum();
        let running: f64 = self
            .active
            .values()
            .map(|j| j.exec.cost_so_far_at((self.stepped_to - j.start).max(0.0)))
            .sum();
        terminal + running
    }

    /// The dead-letter queue: every tenant whose final attempt exhausted
    /// the retry budget, in dead-letter order.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead_letters
    }

    /// Submitted arrivals whose event has not fired yet — the sharded
    /// rebalancer's queue-depth metric.
    pub(crate) fn queue_depth(&self) -> usize {
        self.arrivals_pending
    }

    /// Local indices of queued *original* submissions (arrival pending,
    /// attempt zero, not cancelled), in submission order — the sharded
    /// rebalancer's migration candidates. Retry waits never migrate:
    /// their backoff arrival belongs to the shard that owns the chain.
    pub(crate) fn queued_candidates(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(i, o)| {
                !self.cancelled.contains(i)
                    && !self.tenant_pids.contains_key(i)
                    && !o.admitted
                    && o.execution.is_none()
                    && o.rejection.is_none()
                    && o.attempt == 0
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Total residual capped compute nodes at fleet hour `at` — the
    /// sharded rebalancer's slack metric (uncapped resources contribute
    /// nothing; they are never the bottleneck).
    pub(crate) fn residual_capped_nodes(&self, at: f64) -> usize {
        self.residual_pool(at, None)
            .compute
            .iter()
            .filter_map(|c| c.max_nodes)
            .sum()
    }

    /// The raw per-tenant outcomes, for the sharded runtime's merged
    /// report (indexing matches [`TenantId`]s issued by this session).
    pub(crate) fn outcomes(&self) -> &[TenantOutcome] {
        &self.outcomes
    }

    /// The latest pending event hour on this session's clock, if any —
    /// the horizon the sharded barrier driver must step past before the
    /// shard can be quiescent.
    pub(crate) fn horizon_hours(&self) -> Option<f64> {
        self.sim.max_time()
    }

    /// `true` while the failure-rate gate is refusing new admissions.
    pub fn admission_paused(&self) -> bool {
        self.failure_window.as_ref().is_some_and(|w| w.is_paused())
    }

    /// The spot-market circuit breaker's state, when one is configured
    /// (requires both a market and a breaker config).
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state())
    }

    /// The per-tenant outcomes and fleet roll-up as of now. After
    /// [`run_to_quiescence`](Self::run_to_quiescence) this is the final
    /// report; mid-run it is a snapshot (running tenants appear admitted
    /// with no execution record yet).
    pub fn report(&self) -> FleetReport {
        let mut report = FleetReport::from_outcomes(self.outcomes.clone());
        if let Some(breaker) = &self.breaker {
            report.breaker_open_hours = breaker.open_hours(self.stepped_to);
        }
        report.plan_cache_hits = self.plan_cache.hits;
        report.plan_cache_misses = self.plan_cache.misses;
        report
    }

    /// Shadow-mode validation counters:
    /// `(compared, worse, max_excess, mean_excess)` — would-be cache hits
    /// compared against the fresh solve that actually decided the
    /// admission, how many re-priced worse than the fresh cost by more
    /// than the solver's relative gap, and the worst / mean relative
    /// excess observed (negative excess means the hit was cheaper than
    /// the solve it would replace). All zero unless
    /// [`FleetConfig::plan_cache_shadow`] is set.
    pub fn plan_cache_shadow_stats(&self) -> (usize, usize, f64, f64) {
        let mean = if self.plan_cache.shadow_checked > 0 {
            self.plan_cache.shadow_excess_sum / self.plan_cache.shadow_checked as f64
        } else {
            0.0
        };
        (
            self.plan_cache.shadow_checked,
            self.plan_cache.shadow_worse,
            self.plan_cache.shadow_excess_max,
            mean,
        )
    }

    // ---- the event loop -------------------------------------------------

    /// Pops and processes one batch of simultaneous events. Returns
    /// `false` when the heap is empty.
    fn drain_one_batch(&mut self) -> bool {
        let mut batch = std::mem::take(&mut self.batch);
        let Some(now) = self.sim.pop_due(&mut batch) else {
            self.batch = batch;
            return false;
        };
        let mut any_real = false;
        let mut woken: BTreeSet<ProcessId> = BTreeSet::new();
        for event in batch.drain(..) {
            match event {
                ClockEvent::Arrival(i) => {
                    any_real = true;
                    self.handle_arrival(i, now);
                }
                ClockEvent::Job(pid) => {
                    any_real = true;
                    if woken.insert(pid) {
                        self.wake_job(pid, now);
                    }
                }
                ClockEvent::Revocation => {
                    any_real = true;
                    self.handle_revocation(now);
                }
                ClockEvent::Fault(i) => {
                    any_real = true;
                    self.handle_fault(i, now);
                }
                ClockEvent::BreakerProbe => {
                    any_real = true;
                    self.handle_breaker_probe(now);
                }
                ClockEvent::MonitorTick(gen) => {
                    if gen != self.monitor_gen {
                        continue; // superseded chain; a no-event
                    }
                    any_real = true;
                    self.handle_monitor_tick(now);
                }
            }
        }
        if any_real {
            self.last_hour = now;
            if now > self.stepped_to {
                self.stepped_to = now;
            }
        }
        self.batch = batch;
        true
    }

    /// Starts — or revives — the monitor-tick chain for a submission with
    /// effective arrival `arrival`. Tick times live on the iterated grid
    /// anchored at the earliest arrival, which is what keeps the
    /// incremental driver's tick times bit-identical to the batch
    /// driver's `t += period` chain.
    fn ensure_monitor_chain(&mut self, arrival: f64) {
        let period = self.config.monitor_period_hours;
        match self.monitor_anchor {
            None => self.monitor_anchor = Some(arrival),
            // Until the first tick fires the grid can still be re-anchored
            // by an earlier arrival (matching the batch driver's
            // min-over-all-arrivals anchor).
            Some(a) if arrival < a && !self.monitor_fired => self.monitor_anchor = Some(arrival),
            _ => {}
        }
        let anchor = self.monitor_anchor.expect("anchor just set");
        if self.monitor_live {
            let candidate = anchor + period;
            if !self.monitor_fired && candidate + TIME_EPSILON < self.monitor_next {
                self.monitor_gen += 1;
                self.monitor_next = candidate;
                self.sim.schedule(
                    candidate,
                    ClockEvent::MonitorTick(self.monitor_gen).class(),
                    ClockEvent::MonitorTick(self.monitor_gen),
                );
            }
        } else {
            // Iterate (never multiply) so revived chains reproduce the
            // batch driver's floating-point tick values exactly.
            let mut t = anchor + period;
            while t <= self.stepped_to + TIME_EPSILON {
                t += period;
            }
            self.monitor_gen += 1;
            self.monitor_next = t;
            self.monitor_live = true;
            self.sim.schedule(
                t,
                ClockEvent::MonitorTick(self.monitor_gen).class(),
                ClockEvent::MonitorTick(self.monitor_gen),
            );
        }
    }

    /// Delivers an event to the tailing WAL (when attached), the log and
    /// every observer. A WAL write failure detaches the log and records
    /// the error ([`wal_error`](Self::wal_error)); the session continues.
    fn emit(&mut self, event: FleetEvent) {
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.log(&event) {
                self.wal_error = Some(e.to_string());
                self.wal = None;
            }
        }
        for obs in &mut self.observers {
            obs.on_event(&event);
        }
        self.events.push(event);
    }

    // ---- handlers -------------------------------------------------------

    /// Submission `i`'s arrival: plan against the residual capacity and
    /// register the execution process on success.
    fn handle_arrival(&mut self, i: usize, now: f64) {
        if self.cancelled.contains(&i) {
            // A pre-arrival cancel already removed this entry from
            // `arrivals_pending` and recorded the rejection; the phantom
            // event is a no-op.
            return;
        }
        self.arrivals_pending -= 1;
        // The admission gate: while the recent failure rate is above the
        // pause threshold, arrivals are refused outright (fail fast, no
        // planning). The refusals are not recorded in the window — only
        // execution outcomes move the gate.
        if let Some(window) = &self.failure_window {
            if window.is_paused() {
                let reason = format!(
                    "admission paused: {:.0}% of the last {} terminal outcomes failed",
                    window.failure_fraction() * 100.0,
                    window.config().window
                );
                self.outcomes[i].rejection = Some(reason.clone());
                self.emit(FleetEvent::Rejected {
                    tenant: TenantId(i),
                    at_hours: now,
                    reason,
                });
                self.on_terminal(i, now, TerminalKind::Rejected);
                return;
            }
        }
        if let Some((job, fallback, cache_key, initial)) = self.admit(i, now) {
            let pid = self.registry.register();
            for (t, _) in initial {
                self.sim
                    .schedule(now + t, ClockEvent::Job(pid).class(), ClockEvent::Job(pid));
            }
            self.tenant_pids.insert(i, pid);
            self.active.insert(pid, job);
            self.emit(FleetEvent::Admitted {
                tenant: TenantId(i),
                at_hours: now,
                cache_key,
            });
            let (expected_cost, expected_completion_hours) = self.outcomes[i]
                .plan
                .as_ref()
                .map(|p| (p.expected_cost, p.expected_completion_hours))
                .unwrap_or((0.0, 0.0));
            self.emit(FleetEvent::Planned {
                tenant: TenantId(i),
                at_hours: now,
                expected_cost,
                expected_completion_hours,
            });
            if fallback {
                self.emit(FleetEvent::FallbackEngaged {
                    tenant: TenantId(i),
                    at_hours: now,
                });
            }
        } else {
            let reason = self.outcomes[i]
                .rejection
                .clone()
                .unwrap_or_else(|| "admission failed".into());
            self.emit(FleetEvent::Rejected {
                tenant: TenantId(i),
                at_hours: now,
                reason,
            });
            self.on_terminal(i, now, TerminalKind::Rejected);
        }
    }

    /// Plans one arrival against the residual capacity and, on success,
    /// builds its execution process. Returns `None` (after recording the
    /// rejection) when no feasible plan exists; the middle flag reports
    /// whether the breaker's on-demand fallback tier was engaged.
    fn admit(&mut self, request_idx: usize, now: f64) -> Option<Admission> {
        let request = self.requests[request_idx].clone();
        let residual = self.residual_pool(now, None);
        if let Err(reason) = residual.validate() {
            self.outcomes[request_idx].rejection = Some(format!("no residual capacity: {reason}"));
            return None;
        }
        let planner =
            Planner::new(residual.clone()).with_solve_options(self.config.solve_options.clone());
        let config = ModelConfig {
            price_forecast: self.price_forecast(
                now,
                request.goal.horizon_hours(),
                request.spot_bid,
            ),
            ..ModelConfig::default()
        };
        // The fast path: a cached sibling plan that fits the residual and
        // re-prices within the certified gap of this admission's root LP
        // bound skips branch & bound entirely. In shadow mode the probe
        // still runs (through its own solve context) but only for
        // comparison — the full solve below keeps deciding.
        let shadow = self.config.plan_cache_shadow;
        let probe = match (self.config.plan_cache || shadow, request.goal) {
            (true, Goal::MinimizeCost { deadline_hours }) => {
                self.try_plan_cache(&planner, &request.spec, deadline_hours, &config, &residual)
            }
            _ => None,
        };
        let cached = if shadow { None } else { probe.clone() };
        let (plan, planning, cache_key) = match cached {
            Some((plan, planning, key)) => (plan, planning, Some(key)),
            None => {
                match planner.plan_or_effort(
                    &request.spec,
                    request.goal,
                    &config,
                    Some(&mut self.solve_ctx),
                ) {
                    Ok(result) => {
                        if let Goal::MinimizeCost { deadline_hours } = request.goal {
                            if self.config.plan_cache || shadow {
                                if shadow {
                                    if let Some((shadow_plan, _, _)) = &probe {
                                        let fresh = result.0.expected_cost;
                                        if fresh.is_finite() && fresh.abs() > f64::EPSILON {
                                            let excess =
                                                (shadow_plan.expected_cost - fresh) / fresh;
                                            let cache = &mut self.plan_cache;
                                            cache.shadow_checked += 1;
                                            if excess > self.config.solve_options.relative_gap {
                                                cache.shadow_worse += 1;
                                            }
                                            cache.shadow_excess_max =
                                                cache.shadow_excess_max.max(excess);
                                            cache.shadow_excess_sum += excess;
                                        }
                                    }
                                }
                                self.plan_cache_insert(
                                    &request.spec,
                                    deadline_hours,
                                    &result.0,
                                    &config,
                                    &residual,
                                );
                            }
                        }
                        (result.0, result.1, None)
                    }
                    Err(failed) => {
                        let outcome = &mut self.outcomes[request_idx];
                        outcome.rejection =
                            Some(format!("admission planning failed: {}", failed.error));
                        outcome.planning = failed.planning.map(|report| *report);
                        return None;
                    }
                }
            }
        };

        let options = plan.to_deployment_options(
            request.tenant.clone(),
            self.pool.uplink_gbph,
            request.goal.deadline_hours(),
            &ExecutionPlan::default_location_map(),
        );
        let scheduler = scheduler_for_plan(&plan, &self.pool);
        // While the breaker is open, the on-demand fallback tier pays the
        // ceiling for real instead of buying (revocable) spot: the
        // deadline is kept at the price of the discount. Without the
        // fallback tier the session still buys spot — at ceiling-priced
        // forecasts, it simply plans as if the discount were gone.
        let fallback = self
            .breaker
            .as_ref()
            .is_some_and(|b| b.is_engaged() && b.config().fallback == FallbackTier::OnDemand);
        let pricing = match &self.config.spot_market {
            Some(_) if fallback => SessionPricing::OnDemand,
            Some(market) => SessionPricing::Spot {
                market: market.clone(),
                start_offset_hours: now,
                bid: request
                    .spot_bid
                    .unwrap_or_else(|| self.effective_bid(market)),
            },
            None => SessionPricing::OnDemand,
        };
        let exec = match JobExecution::new(
            &self.catalog,
            &request.spec,
            options,
            Box::new(scheduler),
            pricing,
        ) {
            Ok(exec) => exec,
            Err(e) => {
                self.outcomes[request_idx].rejection = Some(format!("deployment rejected: {e}"));
                return None;
            }
        };

        let outcome = &mut self.outcomes[request_idx];
        outcome.admitted = true;
        outcome.plan = Some(plan.clone());
        outcome.planning = Some(planning);
        let progress_model = progress_checkpoints(now, 0.0, &plan);
        let initial = exec.initial_events();
        Some((
            ActiveJob {
                request_idx,
                start: now,
                exec,
                spec: request.spec.clone(),
                goal: request.goal,
                tenant_bid: request.spot_bid,
                progress_model,
                storm_hit: false,
                fallback_on_demand: fallback,
            },
            fallback,
            cache_key,
            initial,
        ))
    }

    /// Probes the plan cache for a certified sibling plan. A hit must
    /// pass two screens against *this* admission's state: the shape's
    /// peak allocations fit the current residual caps, and its re-priced
    /// objective is within the solver's relative gap of the fresh model's
    /// root LP bound — a certificate of near-optimality that the cold
    /// path's node-cap terminations do not even carry. Among qualifying
    /// entries the cheapest re-priced shape wins. The root relaxation is
    /// solved through the shared context either way, so a miss's full
    /// solve warm-starts from it — except in shadow mode, which probes
    /// through a separate context so the real solve sequence (and hence
    /// the session trajectory) stays bitwise identical to cache-off.
    fn try_plan_cache(
        &mut self,
        planner: &Planner,
        spec: &JobSpec,
        deadline_hours: f64,
        config: &ModelConfig,
        residual: &ResourcePool,
    ) -> Option<(ExecutionPlan, PlanningReport, PlanCacheKey)> {
        let horizon = (deadline_hours / planner.interval_hours).ceil().max(1.0) as usize;
        self.plan_cache.last_bound = None;
        let ctx = if self.config.plan_cache_shadow {
            &mut self.shadow_ctx
        } else {
            &mut self.solve_ctx
        };
        let root = match planner.root_bound_with_ctx(spec, deadline_hours, config, ctx) {
            Ok(root) => root,
            Err(_) => {
                // An infeasible/failed relaxation: fall through to the full
                // solve, which surfaces the identical error to the caller.
                self.plan_cache.misses += 1;
                return None;
            }
        };
        self.plan_cache.last_bound = Some(root.bound);
        let key = PlanCacheKey::new(spec, horizon);
        let prices_now = resolved_prices(residual, &config.price_forecast, horizon);
        let gap = self.config.solve_options.relative_gap;
        let mut best: Option<(f64, usize)> = None;
        if let (Some(pool), Some(typical)) = (
            self.plan_cache.entries.get(&key),
            self.plan_cache.typical_ratio(&key),
        ) {
            // The certification bar: what a *typical* fresh branch &
            // bound delivers on this key (median cost-to-bound ratio of
            // the recent fresh solves), scaled by today's root bound. A
            // reused shape must re-price at or below that — i.e. be
            // equal-or-better than the solve it replaces — with the
            // solver's relative gap as the indifference band.
            let bar = typical * (1.0 + gap) * root.bound;
            for (i, entry) in pool.iter().enumerate() {
                if !entry_fits(entry, residual) {
                    continue;
                }
                let Some(repriced) = reprice_entry(entry, &prices_now) else {
                    continue;
                };
                if repriced <= bar && best.is_none_or(|(cost, _)| repriced < cost) {
                    best = Some((repriced, i));
                }
            }
        }
        let Some((repriced, i)) = best else {
            self.plan_cache.misses += 1;
            return None;
        };
        self.plan_cache.hits += 1;
        let mut plan = self.plan_cache.entries[&key][i].plan.clone();
        plan.expected_cost = repriced;
        let planning = PlanningReport {
            model_vars: root.model_vars,
            model_constraints: root.model_constraints,
            model_build_time: root.model_build_time,
            solve_time: root.solve_time,
            simplex_iterations: 0,
            nodes_explored: 0,
            warm_start_hits: 0,
            warm_start_misses: 0,
            basis_factorizations: 0,
            basis_refactorizations: 0,
            bound_flips: 0,
            ft_updates: 0,
        };
        Some((plan, planning, key))
    }

    /// Records a freshly solved admission plan in the cache (oldest shape
    /// evicted once a key holds [`PLAN_CACHE_POOL`] entries).
    fn plan_cache_insert(
        &mut self,
        spec: &JobSpec,
        deadline_hours: f64,
        plan: &ExecutionPlan,
        config: &ModelConfig,
        residual: &ResourcePool,
    ) {
        let horizon = if plan.interval_hours > 0.0 {
            (deadline_hours / plan.interval_hours).ceil().max(1.0) as usize
        } else {
            return;
        };
        // Without a root bound from this admission's probe the entry's
        // quality ratio is unknowable, and an unknowable entry could
        // neither certify nor serve as the bar — skip it.
        let Some(bound) = self.plan_cache.last_bound.take() else {
            return;
        };
        if !bound.is_finite() || bound <= 0.0 || !plan.expected_cost.is_finite() {
            return;
        }
        let key = PlanCacheKey::new(spec, horizon);
        let prices = resolved_prices(residual, &config.price_forecast, horizon);
        let mut peaks: BTreeMap<String, usize> = BTreeMap::new();
        for interval in &plan.intervals {
            for (ty, &n) in &interval.nodes {
                let peak = peaks.entry(ty.clone()).or_insert(0);
                *peak = (*peak).max(n);
            }
        }
        let entry = PlanCacheEntry {
            plan: plan.clone(),
            cost: plan.expected_cost,
            ratio: plan.expected_cost / bound,
            prices,
            peaks,
        };
        let ratios = self.plan_cache.fresh_ratios.entry(key.clone()).or_default();
        ratios.push(entry.ratio);
        if ratios.len() > PLAN_CACHE_RATIO_WINDOW {
            ratios.remove(0);
        }
        let pool = self.plan_cache.entries.entry(key).or_default();
        pool.push(entry);
        if pool.len() > PLAN_CACHE_POOL {
            pool.remove(0);
        }
    }

    /// Advances one job's execution process at fleet hour `now`, handling
    /// completion, the max-hours cap and stuck detection.
    fn wake_job(&mut self, pid: ProcessId, now: f64) {
        let Some(job) = self.active.get_mut(&pid) else {
            return; // already finished, failed or cancelled
        };
        let rel = (now - job.start).max(0.0);
        if matches!(job.exec.phase(), JobPhase::Processing) && rel > job.exec.max_hours() {
            let job = self.active.remove(&pid).expect("job present");
            let idx = job.request_idx;
            let reason = format!(
                "did not finish within {} simulated hours ({} tasks done)",
                job.exec.max_hours(),
                job.exec.completed_tasks()
            );
            let o = &mut self.outcomes[idx];
            o.failure = Some(reason.clone());
            let report = job.exec.abort(rel);
            let missed = report.met_deadline == Some(false);
            o.execution = Some(report);
            self.emit(FleetEvent::Failed {
                tenant: TenantId(idx),
                at_hours: now,
                reason,
            });
            if missed {
                self.emit(FleetEvent::DeadlineMissed {
                    tenant: TenantId(idx),
                    at_hours: now,
                });
            }
            self.on_terminal(idx, now, TerminalKind::Failed);
            return;
        }
        let extensions_before = job.exec.straggler_extensions();
        let follow_ups = job.exec.on_wakeup(rel);
        for (t, _) in follow_ups {
            self.sim.schedule(
                job.start + t,
                ClockEvent::Job(pid).class(),
                ClockEvent::Job(pid),
            );
        }
        let job = self.active.get_mut(&pid).expect("job still present");
        if job.exec.straggler_extensions() > extensions_before {
            let idx = job.request_idx;
            self.emit(FleetEvent::StragglerExtended {
                tenant: TenantId(idx),
                at_hours: now,
            });
        }
        let job = self.active.get_mut(&pid).expect("job still present");
        if job.exec.is_done() {
            let job = self.active.remove(&pid).expect("job present");
            let idx = job.request_idx;
            let o = &mut self.outcomes[idx];
            let report = job.exec.into_report();
            let finished_at = job.start + report.completion_hours;
            o.finished_at_hours = Some(finished_at);
            let met_deadline = report.met_deadline;
            o.execution = Some(report);
            self.emit(FleetEvent::Completed {
                tenant: TenantId(idx),
                at_hours: finished_at,
                met_deadline,
            });
            if met_deadline == Some(false) {
                self.emit(FleetEvent::DeadlineMissed {
                    tenant: TenantId(idx),
                    at_hours: finished_at,
                });
            }
            let kind = if met_deadline == Some(false) {
                TerminalKind::CompletedLate
            } else {
                TerminalKind::CompletedOnTime
            };
            self.on_terminal(idx, finished_at, kind);
        } else if matches!(job.exec.phase(), JobPhase::Processing)
            && job.exec.next_event_hours(rel).is_none()
        {
            let job = self.active.remove(&pid).expect("job present");
            let idx = job.request_idx;
            let reason =
                format!("job stuck at hour {rel:.2}: nothing running and nothing scheduled");
            let o = &mut self.outcomes[idx];
            o.failure = Some(reason.clone());
            let report = job.exec.abort(rel);
            let missed = report.met_deadline == Some(false);
            o.execution = Some(report);
            self.emit(FleetEvent::Failed {
                tenant: TenantId(idx),
                at_hours: now,
                reason,
            });
            if missed {
                self.emit(FleetEvent::DeadlineMissed {
                    tenant: TenantId(idx),
                    at_hours: now,
                });
            }
            self.on_terminal(idx, now, TerminalKind::Failed);
        }
    }

    /// A revocation sweep at fleet hour `now`: every running job whose
    /// effective bid the spot price exceeds loses its cloud nodes.
    fn handle_revocation(&mut self, now: f64) {
        let Some(market) = &self.config.spot_market else {
            return;
        };
        let hour = (now + TIME_EPSILON).floor().max(0.0) as usize;
        let fleet_bid = self.effective_bid(market);
        let mut emitted: Vec<FleetEvent> = Vec::new();
        let mut struck = false;
        for (pid, job) in self.active.iter_mut() {
            // Fallback-tier jobs bought on-demand capacity: the spot
            // market cannot touch them (that is what the ceiling buys).
            if job.fallback_on_demand {
                continue;
            }
            // Per-tenant bids: a sweep only strikes jobs actually out-bid
            // at this hour. With no per-tenant overrides this check is
            // vacuously true (sweeps are scheduled exactly at the fleet
            // bid's out-bid hours), preserving the batch driver bit for
            // bit.
            let bid = job.tenant_bid.unwrap_or(fleet_bid);
            if !market.out_bid_at(hour, bid) {
                continue;
            }
            // A breaker strike is "a sweep out-bid a live job", whether
            // or not any cloud nodes were up at that instant — the
            // market proved hostile to running work either way.
            struck = true;
            let rel = (now - job.start).max(0.0);
            let (killed, wakeups) = job.exec.kill_cloud_nodes(rel);
            if killed == 0 {
                continue;
            }
            job.storm_hit = true;
            self.outcomes[job.request_idx].revoked_at_hours.push(now);
            emitted.push(FleetEvent::Revoked {
                tenant: TenantId(job.request_idx),
                at_hours: now,
                nodes_killed: killed,
            });
            for (t, _) in wakeups {
                self.sim.schedule(
                    job.start + t,
                    ClockEvent::Job(*pid).class(),
                    ClockEvent::Job(*pid),
                );
            }
            // Wake the victim immediately: it reconciles against the
            // out-bid market and schedules its own recovery-hour retry,
            // instead of sleeping on wakeups for tasks that no longer run.
            self.sim
                .schedule(now, ClockEvent::Job(*pid).class(), ClockEvent::Job(*pid));
        }
        for event in emitted {
            self.emit(event);
        }
        if struck {
            self.breaker_strike(now);
        }
    }

    /// Feeds one revocation strike to the circuit breaker and reacts to
    /// the transition: opening (or reopening) starts the hourly probe
    /// chain that will eventually walk it back to closed.
    fn breaker_strike(&mut self, now: f64) {
        let Some(breaker) = self.breaker.as_mut() else {
            return;
        };
        let transition = breaker.on_strike(now);
        let strikes = breaker.strikes_in_window();
        match transition {
            Some(BreakerTransition::Opened) | Some(BreakerTransition::Reopened) => {
                self.emit(FleetEvent::BreakerOpened {
                    at_hours: now,
                    strikes,
                });
                self.ensure_probe_chain(now);
            }
            _ => {}
        }
    }

    /// Schedules the next hourly breaker probe (at the next whole hour
    /// after `now`) unless a chain is already live.
    fn ensure_probe_chain(&mut self, now: f64) {
        if self.probe_live {
            return;
        }
        self.probe_live = true;
        let next = (now + TIME_EPSILON).floor() + 1.0;
        self.sim.schedule(
            next,
            ClockEvent::BreakerProbe.class(),
            ClockEvent::BreakerProbe,
        );
    }

    /// An hourly breaker probe: checks whether the trace hour just
    /// elapsed was clean at the fleet bid, advances the breaker state
    /// machine, and keeps the chain alive while the breaker is not
    /// closed and the market can still recover.
    fn handle_breaker_probe(&mut self, now: f64) {
        let (clean, hour, recoverable) = {
            let Some(market) = &self.config.spot_market else {
                self.probe_live = false;
                return;
            };
            let fleet_bid = self.effective_bid(market);
            let hour = (now + TIME_EPSILON).floor().max(0.0) as usize;
            let clean = hour > 0 && !market.out_bid_at(hour - 1, fleet_bid);
            // Past a trace that ends above the bid the market never
            // recovers: stop probing instead of chaining forever (the
            // breaker stays open for good, which is the right verdict).
            let recoverable = market.next_acceptance(hour, fleet_bid).is_some();
            (clean, hour, recoverable)
        };
        let Some(breaker) = self.breaker.as_mut() else {
            self.probe_live = false;
            return;
        };
        match breaker.on_probe(now, clean) {
            Some(BreakerTransition::HalfOpened) => {
                self.emit(FleetEvent::BreakerHalfOpen { at_hours: now });
            }
            Some(BreakerTransition::Closed) => {
                self.emit(FleetEvent::BreakerClosed { at_hours: now });
            }
            Some(BreakerTransition::Reopened) => {
                let strikes = self
                    .breaker
                    .as_ref()
                    .map(|b| b.strikes_in_window())
                    .unwrap_or(0);
                self.emit(FleetEvent::BreakerOpened {
                    at_hours: now,
                    strikes,
                });
            }
            _ => {}
        }
        let still_open = self
            .breaker
            .as_ref()
            .is_some_and(|b| b.state() != BreakerState::Closed);
        if still_open && recoverable {
            self.sim.schedule(
                (hour + 1) as f64,
                ClockEvent::BreakerProbe.class(),
                ClockEvent::BreakerProbe,
            );
        } else {
            self.probe_live = false;
        }
    }

    /// Injected fault `i` of the fault plan fires: pick the victim by the
    /// event's pre-drawn salt over the running jobs (process-id order,
    /// deterministic) and apply the fault. With nothing running the
    /// fault fizzles silently.
    fn handle_fault(&mut self, i: usize, now: f64) {
        let Some(event) = self
            .config
            .policy
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.events.get(i))
            .copied()
        else {
            return;
        };
        if self.active.is_empty() {
            return;
        }
        let victim = (event.salt % self.active.len() as u64) as usize;
        let pid = *self
            .active
            .keys()
            .nth(victim)
            .expect("victim index within active set");
        match event.kind {
            FaultKind::TaskFailure => {
                let job = self.active.remove(&pid).expect("victim present");
                let rel = (now - job.start).max(0.0);
                let idx = job.request_idx;
                self.tenant_pids.remove(&idx);
                let reason = format!("injected fault: task failure at fleet hour {now:.2}");
                let o = &mut self.outcomes[idx];
                o.failure = Some(reason.clone());
                let report = job.exec.abort(rel);
                let missed = report.met_deadline == Some(false);
                o.execution = Some(report);
                self.emit(FleetEvent::FaultInjected {
                    tenant: TenantId(idx),
                    at_hours: now,
                    kind: event.kind,
                    nodes_killed: 0,
                    salt: event.salt,
                });
                self.emit(FleetEvent::Failed {
                    tenant: TenantId(idx),
                    at_hours: now,
                    reason,
                });
                if missed {
                    self.emit(FleetEvent::DeadlineMissed {
                        tenant: TenantId(idx),
                        at_hours: now,
                    });
                }
                self.on_terminal(idx, now, TerminalKind::Failed);
            }
            FaultKind::NodeCrash => {
                let job = self.active.get_mut(&pid).expect("victim present");
                let rel = (now - job.start).max(0.0);
                let (killed, wakeups) = job.exec.kill_cloud_nodes(rel);
                job.storm_hit = true;
                let idx = job.request_idx;
                let start = job.start;
                for (t, _) in wakeups {
                    self.sim.schedule(
                        start + t,
                        ClockEvent::Job(pid).class(),
                        ClockEvent::Job(pid),
                    );
                }
                // Wake the victim immediately, like a revocation: it
                // reconciles and schedules its own recovery.
                self.sim
                    .schedule(now, ClockEvent::Job(pid).class(), ClockEvent::Job(pid));
                self.emit(FleetEvent::FaultInjected {
                    tenant: TenantId(idx),
                    at_hours: now,
                    kind: event.kind,
                    nodes_killed: killed,
                    salt: event.salt,
                });
            }
        }
    }

    /// A monitor tick: check every running job, then keep the chain alive
    /// while anything can still happen.
    fn handle_monitor_tick(&mut self, now: f64) {
        self.monitor_fired = true;
        self.monitor(now);
        if !self.active.is_empty() || self.arrivals_pending > 0 {
            let next = now + self.config.monitor_period_hours;
            self.monitor_next = next;
            self.sim.schedule(
                next,
                ClockEvent::MonitorTick(self.monitor_gen).class(),
                ClockEvent::MonitorTick(self.monitor_gen),
            );
        } else {
            self.monitor_live = false;
        }
    }

    /// The periodic monitor: compares every running job's observed map
    /// progress against its plan's projection and re-plans laggards in
    /// place, splicing the updated node schedule into the live deployment.
    fn monitor(&mut self, now: f64) {
        let pids: Vec<ProcessId> = self.active.keys().copied().collect();
        for pid in pids {
            let (rel, deadline, expected, progress, storm_hit) = {
                let job = self.active.get(&pid).expect("active job present");
                if !matches!(job.exec.phase(), JobPhase::Processing) {
                    continue;
                }
                let rel = now - job.start;
                if rel <= TIME_EPSILON {
                    continue;
                }
                let Some(deadline) = job.exec.options().deadline_hours else {
                    continue; // nothing to protect
                };
                let expected = expected_progress(&job.progress_model, now);
                (
                    rel,
                    deadline,
                    expected,
                    job.exec.progress(rel),
                    job.storm_hit,
                )
            };
            let on_track = expected <= 0.0
                || progress.map_done_gb + 1e-6 >= (1.0 - self.config.monitor_tolerance) * expected;
            // A storm-hit job re-plans even when its checkpoints still look
            // on track: the plan's future capacity just evaporated, and
            // waiting for the shortfall to show up wastes the hours the
            // deadline rescue needs.
            if on_track && !storm_hit {
                continue;
            }
            // Too late to act? Leave the schedule alone and let it ride.
            if deadline - rel <= self.config.replan_margin_hours + 1.0 {
                self.clear_storm_flag(pid);
                continue;
            }
            // Observed per-node throughput over the hours actually fielded.
            // A storm victim with no fielded hours yet keeps its flag and
            // retries at the next tick, once it has observed something.
            if progress.allocated_node_hours <= TIME_EPSILON {
                continue;
            }
            let observed_gbph = progress.map_done_gb / progress.allocated_node_hours;
            if observed_gbph <= 0.0 {
                continue;
            }
            self.clear_storm_flag(pid);
            self.replan_job(pid, now, rel, deadline, observed_gbph);
        }
    }

    /// Re-plans one lagging job from its observed state with the observed
    /// throughput, against the residual capacity the *other* jobs leave.
    fn replan_job(
        &mut self,
        pid: ProcessId,
        now: f64,
        rel: f64,
        deadline: f64,
        observed_gbph: f64,
    ) {
        let (spec, goal, tenant_bid, progress) = {
            let job = self.active.get(&pid).expect("active job present");
            (
                job.spec.clone(),
                job.goal,
                job.tenant_bid,
                job.exec.progress(rel),
            )
        };

        // Corrected capacities in reference-workload units (mirrors
        // `AdaptiveController::pool_with_throughput`).
        let reference_units = if spec.reference_throughput_gbph > 0.0 {
            observed_gbph * (REFERENCE_WORKLOAD_GBPH / spec.reference_throughput_gbph)
        } else {
            observed_gbph
        };
        let mut residual = self.residual_pool(now, Some(pid));
        for c in &mut residual.compute {
            c.capacity_gbph = reference_units;
        }
        if residual.validate().is_err() {
            return;
        }

        // Observed state, with the conservatism the fluid model needs.
        let mut initial = InitialState::default();
        let location_names = location_to_storage_names();
        for (loc, gb) in &progress.stored_gb {
            if let Some(name) = location_names.get(loc) {
                initial.stored_gb.insert(name.to_string(), *gb);
            }
        }
        let remaining = (spec.input_gb - progress.map_done_gb).max(0.0);
        initial.map_done_gb =
            (spec.input_gb - remaining * (1.0 + self.config.monitor_conservatism)).max(0.0);

        let remaining_goal = match goal {
            Goal::MinimizeCost { .. } => Goal::MinimizeCost {
                deadline_hours: (deadline - rel - self.config.replan_margin_hours).max(1.0),
            },
            Goal::MinimizeTime {
                budget_usd,
                max_hours,
            } => Goal::MinimizeTime {
                budget_usd,
                max_hours: (max_hours - rel - self.config.replan_margin_hours).max(1.0),
            },
        };
        let config = ModelConfig {
            initial,
            price_forecast: self.price_forecast(now, remaining_goal.horizon_hours(), tenant_bid),
            ..ModelConfig::default()
        };
        let planner = Planner::new(residual).with_solve_options(self.config.solve_options.clone());
        let Ok((updated, _)) =
            planner.plan_with_config_ctx(&spec, remaining_goal, &config, Some(&mut self.solve_ctx))
        else {
            return; // keep the current schedule; the next tick may retry
        };

        let job = self.active.get_mut(&pid).expect("active job present");
        let new_steps: Vec<NodeAllocation> = updated
            .node_schedule()
            .into_iter()
            .map(|mut step| {
                step.from_hour += rel;
                step
            })
            .collect();
        let wakeups = job.exec.splice_node_schedule(rel, rel, new_steps);
        for (t, _) in wakeups {
            self.sim.schedule(
                job.start + t,
                ClockEvent::Job(pid).class(),
                ClockEvent::Job(pid),
            );
        }
        // Wake the job at the splice point so an immediate scale-up at
        // `rel` takes effect without waiting for the next old event.
        self.sim
            .schedule(now, ClockEvent::Job(pid).class(), ClockEvent::Job(pid));
        job.progress_model = progress_checkpoints(now, progress.map_done_gb, &updated);
        let idx = job.request_idx;
        self.outcomes[idx].replanned_at_hours.push(now);
        self.emit(FleetEvent::Replanned {
            tenant: TenantId(idx),
            at_hours: now,
        });
    }

    /// The failure-policy hook, called at every terminal transition of an
    /// arrival-or-later tenant (client cancellations excluded — those
    /// are intent, not failure): records the outcome in the admission
    /// gate's window, then decides between retry, dead-letter and
    /// nothing.
    fn on_terminal(&mut self, idx: usize, now: f64, kind: TerminalKind) {
        // 1. The admission gate samples execution outcomes only:
        //    completions (on time = success, late = failure) and aborts.
        //    Rejections never ran, so they carry no signal about the
        //    fleet's health — and refusals while paused must not feed
        //    back into the gate that caused them.
        let sample = match kind {
            TerminalKind::CompletedOnTime => Some(false),
            TerminalKind::CompletedLate | TerminalKind::Failed => Some(true),
            TerminalKind::Rejected => None,
        };
        if let (Some(window), Some(failed)) = (self.failure_window.as_mut(), sample) {
            let change = window.record(failed);
            let fraction = window.failure_fraction();
            match change {
                Some(AdmissionChange::Paused) => self.emit(FleetEvent::AdmissionPaused {
                    at_hours: now,
                    failure_fraction: fraction,
                }),
                Some(AdmissionChange::Resumed) => self.emit(FleetEvent::AdmissionResumed {
                    at_hours: now,
                    failure_fraction: fraction,
                }),
                None => {}
            }
        }
        // 2. Retry / dead-letter disposition, under the tenant's own
        //    policy when the request carries an override.
        let Some(retry) = self.effective_retry(idx) else {
            return;
        };
        let attempt = self.outcomes[idx].attempt;
        match kind {
            TerminalKind::Failed => {
                if attempt < retry.max_retries {
                    self.schedule_retry(idx, now);
                } else {
                    let reason = self.outcomes[idx]
                        .failure
                        .clone()
                        .unwrap_or_else(|| "failed".into());
                    self.dead_letter(idx, now, reason);
                }
            }
            TerminalKind::CompletedLate => {
                // A late completion may retry (a fresh attempt can hit a
                // calmer market), but exhausting the budget does not
                // dead-letter: the work did finish.
                if retry.retry_deadline_missed && attempt < retry.max_retries {
                    self.schedule_retry(idx, now);
                }
            }
            TerminalKind::Rejected => {
                // Original arrivals refused at admission are terminal
                // rejections (admission control is not a fault); a
                // *retry* that bounces keeps burning its budget so the
                // chain always ends in success, rejection-as-terminal or
                // the dead-letter queue — never in limbo.
                if attempt > 0 {
                    if attempt < retry.max_retries {
                        self.schedule_retry(idx, now);
                    } else {
                        let reason = self.outcomes[idx]
                            .rejection
                            .clone()
                            .unwrap_or_else(|| "rejected".into());
                        self.dead_letter(idx, now, reason);
                    }
                }
            }
            TerminalKind::CompletedOnTime => {}
        }
    }

    /// The retry policy governing tenant `idx`: the request's override
    /// when present, else the fleet-wide policy.
    fn effective_retry(&self, idx: usize) -> Option<RetryPolicy> {
        self.requests[idx]
            .retry_override
            .or(self.config.policy.retry)
    }

    /// Re-submits tenant `idx`'s request as a fresh arrival after the
    /// deterministic backoff delay, as the next attempt of its root
    /// submission.
    fn schedule_retry(&mut self, idx: usize, now: f64) {
        let retry = self.effective_retry(idx).expect("caller checked retry");
        let attempt = self.outcomes[idx].attempt + 1;
        let root = self.outcomes[idx].retry_of.unwrap_or(idx);
        let arrival = now + retry.delay_hours(attempt);
        let request = self.requests[idx].clone();
        let new_idx = self.outcomes.len();
        let mut pending = TenantOutcome::pending(request.tenant.clone(), arrival);
        pending.retry_of = Some(root);
        pending.attempt = attempt;
        self.outcomes.push(pending);
        // Any per-tenant-bid sweep hours were already scheduled by the
        // root submission (submit scans to the trace end), so the clone
        // only needs its arrival event.
        self.requests.push(request);
        self.sim.inject(
            arrival,
            ClockEvent::Arrival(new_idx).class(),
            ClockEvent::Arrival(new_idx),
        );
        self.arrivals_pending += 1;
        self.ensure_monitor_chain(arrival);
        self.emit(FleetEvent::Retried {
            tenant: TenantId(new_idx),
            of: TenantId(root),
            attempt,
            at_hours: now,
            arrival_hours: arrival,
        });
    }

    /// Records tenant `idx` as dead-lettered: the final attempt of a
    /// submission whose retry budget ran out.
    fn dead_letter(&mut self, idx: usize, now: f64, reason: String) {
        let o = &mut self.outcomes[idx];
        o.dead_lettered = true;
        let attempts = o.attempt + 1;
        let root = o.retry_of.unwrap_or(idx);
        self.dead_letters.push(DeadLetter {
            tenant: TenantId(idx),
            original: TenantId(root),
            tenant_name: o.tenant.clone(),
            attempts,
            at_hours: now,
            reason: reason.clone(),
        });
        self.emit(FleetEvent::DeadLettered {
            tenant: TenantId(idx),
            at_hours: now,
            attempts,
            reason,
        });
    }

    /// Clears a job's storm flag once the monitor has acted on (or given
    /// up on) the revocation.
    fn clear_storm_flag(&mut self, pid: ProcessId) {
        if let Some(job) = self.active.get_mut(&pid) {
            job.storm_hit = false;
        }
    }

    /// The capacity left over at fleet hour `at` once every active job's
    /// future node commitments are subtracted, excluding `exclude` (used
    /// when re-planning that job: its own schedule is about to be
    /// replaced).
    fn residual_pool(&self, at: f64, exclude: Option<ProcessId>) -> ResourcePool {
        let pool = {
            let mut index = self.residual_index.borrow_mut();
            index.sync(&self.active);
            index.residual(&self.pool, at, exclude)
        };
        #[cfg(debug_assertions)]
        {
            let check = self.residual_pool_recompute(at, exclude);
            debug_assert_eq!(
                pool.compute.iter().map(|c| c.max_nodes).collect::<Vec<_>>(),
                check
                    .compute
                    .iter()
                    .map(|c| c.max_nodes)
                    .collect::<Vec<_>>(),
                "incremental residual index diverged from full recompute at t={at}"
            );
        }
        pool
    }

    /// The original full resample: clone the pool, collect every sample
    /// point, and re-evaluate every job's schedule at each one. Retained
    /// as the debug-build cross-check oracle for the incremental index
    /// (and its unit tests below exercise both paths).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn residual_pool_recompute(&self, at: f64, exclude: Option<ProcessId>) -> ResourcePool {
        let mut pool = self.pool.clone();
        // Sample the fleet commitment at `at` and at every future schedule
        // step of any running job; the peak over those samples is what a
        // new plan can never have.
        let mut sample_points: Vec<f64> = vec![at];
        for (pid, job) in &self.active {
            if Some(*pid) == exclude {
                continue;
            }
            for step in job.exec.node_schedule() {
                let abs = job.start + step.from_hour;
                if abs > at + TIME_EPSILON {
                    sample_points.push(abs);
                }
            }
        }
        // Near-coincident step times (two jobs whose schedules land within
        // float noise of each other) sample identical commitments; keep one
        // representative so the peak scan does bounded work per distinct
        // instant.
        sample_points.sort_by(|a, b| a.total_cmp(b));
        sample_points.dedup_by(|next, kept| (*next - *kept).abs() <= TIME_EPSILON);
        for c in &mut pool.compute {
            let Some(cap) = c.max_nodes else {
                continue; // uncapped resources have no contention
            };
            let mut peak = 0usize;
            for &p in &sample_points {
                let mut committed = 0usize;
                for (pid, job) in &self.active {
                    if Some(*pid) == exclude {
                        continue;
                    }
                    committed += nodes_at(job.exec.node_schedule(), &c.name, p - job.start);
                }
                peak = peak.max(committed);
            }
            c.max_nodes = Some(cap.saturating_sub(peak));
        }
        pool
    }

    /// The fleet's maximum bid per spot instance-hour: the configured
    /// override, or the market's on-demand price (the rational ceiling).
    fn effective_bid(&self, market: &SpotMarket) -> f64 {
        self.config.spot_bid.unwrap_or(market.on_demand_price)
    }

    /// Per-interval price expectations from the shared spot market (empty
    /// when the fleet buys on-demand). A per-tenant bid below the market's
    /// spikes makes the out-bid hours *unavailable* to that tenant; the
    /// fluid model cannot express unavailability, so those hours are
    /// forecast at the on-demand ceiling — the price of the fallback that
    /// would actually keep the plan's node-hours.
    fn price_forecast(
        &self,
        now: f64,
        horizon: usize,
        tenant_bid: Option<f64>,
    ) -> BTreeMap<String, Vec<f64>> {
        let mut forecast = BTreeMap::new();
        if let Some(market) = &self.config.spot_market {
            // Epsilon-nudged like every other hour-bucket conversion in
            // this file: a clock sitting just below an hour boundary
            // (e.g. 5.999999999 after accumulated float steps) must
            // forecast from hour 6, not re-read the expiring hour 5
            // price for the whole horizon window.
            let start = (now + TIME_EPSILON).floor().max(0.0) as usize;
            let mut prices = market.price_forecast(start, horizon);
            // An open breaker prices every remote hour at the on-demand
            // ceiling: the fleet has stopped trusting the trace, so plans
            // must pencil in the price of the capacity they would
            // actually get (on-demand fallback, or ceiling-priced spot).
            if self.breaker.as_ref().is_some_and(|b| b.is_engaged()) {
                for price in prices.iter_mut() {
                    *price = market.on_demand_price;
                }
            } else if let Some(bid) = tenant_bid {
                for (offset, price) in prices.iter_mut().enumerate() {
                    if market.out_bid_at(start + offset, bid) {
                        *price = market.on_demand_price;
                    }
                }
            }
            for c in &self.pool.compute {
                if !c.is_local {
                    forecast.insert(c.name.clone(), prices.clone());
                }
            }
        }
        forecast
    }

    // ---- checkpoint / restore / replay ----------------------------------

    /// A complete serializable image of the paused session: logical clock,
    /// the pending event heap verbatim, every tenant's execution state,
    /// billing, policy state (gate, breaker, dead letters), the admission
    /// plan cache, the event log, and the exact solver-context bytes —
    /// everything [`restore`](Self::restore) needs to continue bit for
    /// bit. The catalog, pool and config are *not* captured (they are
    /// session inputs; `restore` takes them as arguments), and neither
    /// are observers (processes, not data).
    ///
    /// Checkpoints are meaningful at event-batch boundaries, which is
    /// everywhere the public API can observe: `submit`, `cancel`,
    /// `step_until`, [`step_one_batch`](Self::step_one_batch) and
    /// `run_to_quiescence` all return with the current batch fully
    /// applied.
    pub fn checkpoint(&self) -> FleetSnapshot {
        debug_assert!(self.batch.is_empty(), "checkpoint inside an event batch");
        FleetSnapshot {
            clock_hours: self.sim.now(),
            next_seq: self.sim.next_seq(),
            heap: self
                .sim
                .snapshot_entries()
                .into_iter()
                .map(|e| HeapEntrySnapshot {
                    at: e.at,
                    class: e.class,
                    seq: e.seq,
                    event: e.event,
                })
                .collect(),
            registry: self.registry.clone(),
            active: self
                .active
                .iter()
                .map(|(pid, job)| ActiveJobSnapshot {
                    pid: *pid,
                    request_idx: job.request_idx,
                    start: job.start,
                    exec: job.exec.snapshot(),
                    spec: job.spec.clone(),
                    goal: job.goal,
                    tenant_bid: job.tenant_bid,
                    progress_model: job.progress_model.clone(),
                    storm_hit: job.storm_hit,
                    fallback_on_demand: job.fallback_on_demand,
                })
                .collect(),
            requests: self.requests.clone(),
            outcomes: self.outcomes.clone(),
            tenant_pids: self.tenant_pids.clone(),
            cancelled: self.cancelled.clone(),
            arrivals_pending: self.arrivals_pending,
            monitor_anchor: self.monitor_anchor,
            monitor_gen: self.monitor_gen,
            monitor_next: self.monitor_next,
            monitor_live: self.monitor_live,
            monitor_fired: self.monitor_fired,
            revocation_hours_scheduled: self.revocation_hours_scheduled.clone(),
            dead_letters: self.dead_letters.clone(),
            failure_window: self.failure_window.clone(),
            breaker: self.breaker.clone(),
            probe_live: self.probe_live,
            last_hour: self.last_hour,
            stepped_to: self.stepped_to,
            events: self.events.clone(),
            solve_ctx: self.solve_ctx.export_state(),
            shadow_ctx: self.shadow_ctx.export_state(),
            plan_cache: self.plan_cache.clone(),
        }
    }

    /// Reopens a checkpointed session. The catalog, pool and config must
    /// be the ones the session was opened with — they are inputs, not
    /// state — and the snapshot supplies everything else: the restored
    /// fleet continues *bit for bit* where the checkpointed one stood
    /// (same events, same floats, same report).
    ///
    /// Construction-time schedules (revocation sweeps, fault events) are
    /// deliberately *not* re-derived here: the pending instances live in
    /// the snapshot's heap, and the already-fired ones must not fire
    /// again. Observers are not restored (re-register after restoring);
    /// the residual index is rebuilt lazily on first use.
    ///
    /// Fails with [`ConductorError::InvalidInput`] on an invalid pool or
    /// config, on non-finite snapshot floats (a NaN must never reach the
    /// event heap), or on corrupt solver-context blobs.
    pub fn restore(
        catalog: Catalog,
        pool: ResourcePool,
        config: FleetConfig,
        snapshot: &FleetSnapshot,
    ) -> Result<Self, ConductorError> {
        pool.validate().map_err(ConductorError::InvalidInput)?;
        config.validate()?;
        snapshot.validate()?;
        let solve_ctx = SolveContext::import_state(&snapshot.solve_ctx).map_err(|e| {
            ConductorError::InvalidInput(format!("corrupt solver-context blob: {e:?}"))
        })?;
        let shadow_ctx = SolveContext::import_state(&snapshot.shadow_ctx).map_err(|e| {
            ConductorError::InvalidInput(format!("corrupt shadow-context blob: {e:?}"))
        })?;
        let entries: Vec<ScheduledEvent<ClockEvent>> = snapshot
            .heap
            .iter()
            .map(|h| ScheduledEvent {
                at: h.at,
                class: h.class,
                seq: h.seq,
                event: h.event,
            })
            .collect();
        let sim = Simulator::restore(snapshot.clock_hours, entries, snapshot.next_seq);
        let mut active = BTreeMap::new();
        for j in &snapshot.active {
            active.insert(
                j.pid,
                ActiveJob {
                    request_idx: j.request_idx,
                    start: j.start,
                    exec: j.exec.restore(),
                    spec: j.spec.clone(),
                    goal: j.goal,
                    tenant_bid: j.tenant_bid,
                    progress_model: j.progress_model.clone(),
                    storm_hit: j.storm_hit,
                    fallback_on_demand: j.fallback_on_demand,
                },
            );
        }
        Ok(Self {
            catalog,
            pool,
            config,
            sim,
            registry: snapshot.registry.clone(),
            active,
            requests: snapshot.requests.clone(),
            outcomes: snapshot.outcomes.clone(),
            tenant_pids: snapshot.tenant_pids.clone(),
            cancelled: snapshot.cancelled.clone(),
            arrivals_pending: snapshot.arrivals_pending,
            monitor_anchor: snapshot.monitor_anchor,
            monitor_gen: snapshot.monitor_gen,
            monitor_next: snapshot.monitor_next,
            monitor_live: snapshot.monitor_live,
            monitor_fired: snapshot.monitor_fired,
            revocation_hours_scheduled: snapshot.revocation_hours_scheduled.clone(),
            dead_letters: snapshot.dead_letters.clone(),
            failure_window: snapshot.failure_window.clone(),
            breaker: snapshot.breaker.clone(),
            probe_live: snapshot.probe_live,
            last_hour: snapshot.last_hour,
            stepped_to: snapshot.stepped_to,
            events: snapshot.events.clone(),
            observers: Vec::new(),
            wal: None,
            wal_error: None,
            batch: Vec::new(),
            residual_index: RefCell::new(ResidualIndex::default()),
            solve_ctx,
            plan_cache: snapshot.plan_cache.clone(),
            shadow_ctx,
        })
    }

    /// Reconstructs a session by re-driving a persisted event log from
    /// scratch — the log is the source of truth, not a description of
    /// one. `Submitted` and `Cancelled` entries carry enough payload to
    /// re-issue the client call that produced them ([`FleetEvent::Submitted`]
    /// embeds the full request); every other entry is *expected output*,
    /// regenerated by stepping the clock and verified element-wise
    /// against the log as it appears. A mismatch — wrong event, wrong
    /// hour, wrong payload — aborts with [`ConductorError::InvalidInput`]
    /// naming the diverging position.
    ///
    /// The contract covers sessions driven through the public API at
    /// batch granularity (`step_until` to each submission hour, `submit`,
    /// `cancel`, `run_to_quiescence`): replay re-drives client calls at
    /// the hour the log records and lets the event loop do the rest.
    /// Returns the reconstructed fleet (heap state included) positioned
    /// exactly after the last log entry; trailing events the log did not
    /// capture (a torn WAL tail) are simply regenerated by continuing the
    /// session.
    pub fn replay(
        catalog: Catalog,
        pool: ResourcePool,
        config: FleetConfig,
        log: &[FleetEvent],
    ) -> Result<Self, ConductorError> {
        let mut fleet = Fleet::new(catalog, pool, config)?;
        while fleet.events.len() < log.len() {
            let pos = fleet.events.len();
            match &log[pos] {
                FleetEvent::Submitted {
                    at_hours, request, ..
                } => {
                    fleet.step_until(*at_hours);
                    fleet.submit(request.clone())?;
                }
                FleetEvent::Cancelled { tenant, at_hours } => {
                    fleet.step_until(*at_hours);
                    fleet.cancel(*tenant)?;
                }
                FleetEvent::MigratedOut { tenant, at_hours } => {
                    fleet.step_until(*at_hours);
                    fleet.migrate_out(*tenant)?;
                }
                FleetEvent::MonitorAligned {
                    at_hours,
                    arrival_hours,
                } => {
                    fleet.step_until(*at_hours);
                    fleet.align_monitor(*arrival_hours)?;
                }
                expected => {
                    // An internal event: drive the clock until the loop
                    // emits something. Batches that emit nothing (e.g.
                    // superseded monitor ticks) are drained silently; an
                    // empty heap with jobs still active is the live
                    // session's final-drain stall point.
                    if !fleet.drain_one_batch() && !fleet.abort_stalled_jobs() {
                        return Err(ConductorError::InvalidInput(format!(
                            "replay diverged at log position {pos}: log expects \
                             {expected:?} but the session is quiescent"
                        )));
                    }
                }
            }
            let upto = fleet.events.len().min(log.len());
            for (k, expected) in log.iter().enumerate().take(upto).skip(pos) {
                if fleet.events[k] != *expected {
                    return Err(ConductorError::InvalidInput(format!(
                        "replay diverged at log position {k}: log has {expected:?}, \
                         session produced {:?}",
                        fleet.events[k]
                    )));
                }
            }
        }
        Ok(fleet)
    }
}

/// One pending entry of the fleet clock's event heap, exactly as the
/// simulator reports it (pop order: time, then class, then insertion
/// sequence). A non-generic mirror of `ScheduledEvent<ClockEvent>` so the
/// snapshot can derive serde.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct HeapEntrySnapshot {
    at: f64,
    class: u8,
    seq: u64,
    event: ClockEvent,
}

/// One active job's serializable image: its process id plus everything
/// [`ActiveJob`] holds, with the execution captured as an
/// [`ExecutionSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ActiveJobSnapshot {
    pid: ProcessId,
    request_idx: usize,
    start: f64,
    exec: ExecutionSnapshot,
    spec: JobSpec,
    goal: Goal,
    tenant_bid: Option<f64>,
    progress_model: Vec<(f64, f64)>,
    storm_hit: bool,
    fallback_on_demand: bool,
}

/// A serializable image of a paused [`Fleet`] session, produced by
/// [`Fleet::checkpoint`] and consumed by [`Fleet::restore`]. Opaque by
/// design — the only supported operations are the JSON codec
/// ([`to_json`](Self::to_json) / [`from_json`](Self::from_json)) and
/// `restore`; the fields track `Fleet`'s internals and are not a stable
/// public schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSnapshot {
    clock_hours: f64,
    next_seq: u64,
    heap: Vec<HeapEntrySnapshot>,
    registry: ProcessRegistry,
    active: Vec<ActiveJobSnapshot>,
    requests: Vec<FleetJobRequest>,
    outcomes: Vec<TenantOutcome>,
    tenant_pids: BTreeMap<usize, ProcessId>,
    cancelled: BTreeSet<usize>,
    arrivals_pending: usize,
    monitor_anchor: Option<f64>,
    monitor_gen: u64,
    monitor_next: f64,
    monitor_live: bool,
    monitor_fired: bool,
    revocation_hours_scheduled: BTreeSet<usize>,
    dead_letters: Vec<DeadLetter>,
    failure_window: Option<FailureWindow>,
    breaker: Option<SpotBreaker>,
    probe_live: bool,
    last_hour: f64,
    stepped_to: f64,
    events: Vec<FleetEvent>,
    solve_ctx: String,
    shadow_ctx: String,
    plan_cache: PlanCache,
}

impl FleetSnapshot {
    /// Serializes the snapshot to a JSON string. The codec is exact:
    /// floats render shortest-round-trip, u64s beyond 2^53 go through
    /// strings, so `from_json(to_json(s))` reproduces `s` bit for bit.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fleet snapshot serializes")
    }

    /// Deserializes a snapshot from [`to_json`](Self::to_json) output.
    ///
    /// Fails with [`ConductorError::InvalidInput`] on malformed JSON or
    /// on non-finite floats in positions that feed the event heap or the
    /// fleet clock — the same guard [`Fleet::submit`] applies at the
    /// front door, mirrored here so a tampered checkpoint cannot smuggle
    /// a NaN past it.
    pub fn from_json(text: &str) -> Result<Self, ConductorError> {
        let snapshot: FleetSnapshot = serde_json::from_str(text)
            .map_err(|e| ConductorError::InvalidInput(format!("fleet snapshot JSON: {e}")))?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// The clock/heap finiteness guards shared by [`Self::from_json`] and
    /// [`Fleet::restore`].
    fn validate(&self) -> Result<(), ConductorError> {
        let finite = |name: &str, v: f64| -> Result<(), ConductorError> {
            if v.is_finite() {
                Ok(())
            } else {
                Err(ConductorError::InvalidInput(format!(
                    "fleet snapshot: non-finite {name} {v}"
                )))
            }
        };
        finite("clock hour", self.clock_hours)?;
        finite("last batch hour", self.last_hour)?;
        finite("stepped-to hour", self.stepped_to)?;
        finite("monitor tick hour", self.monitor_next)?;
        if let Some(anchor) = self.monitor_anchor {
            finite("monitor anchor", anchor)?;
        }
        for entry in &self.heap {
            finite("heap event hour", entry.at)?;
        }
        for request in &self.requests {
            finite("request arrival hour", request.arrival_hours)?;
            if let Some(bid) = request.spot_bid {
                finite("request spot bid", bid)?;
            }
        }
        for job in &self.active {
            finite("job start hour", job.start)?;
        }
        Ok(())
    }
}

/// `(fleet_hour, cumulative expected map GB)` checkpoints implied by a
/// plan starting at `start` with `done_gb` of the input already processed.
fn progress_checkpoints(start: f64, done_gb: f64, plan: &ExecutionPlan) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(plan.intervals.len());
    let mut cum = done_gb;
    for (k, interval) in plan.intervals.iter().enumerate() {
        cum += interval.map_gb;
        out.push((start + (k as f64 + 1.0) * plan.interval_hours, cum));
    }
    out
}

/// Expected cumulative map progress at fleet hour `now` (the last fully
/// elapsed checkpoint; zero before the first).
fn expected_progress(checkpoints: &[(f64, f64)], now: f64) -> f64 {
    checkpoints
        .iter()
        .take_while(|(h, _)| *h <= now + TIME_EPSILON)
        .last()
        .map(|(_, gb)| *gb)
        .unwrap_or(0.0)
}

/// Inverse of [`ExecutionPlan::default_location_map`]: engine locations
/// back to pool storage-resource names, for building re-planning state.
fn location_to_storage_names() -> BTreeMap<conductor_mapreduce::DataLocation, &'static str> {
    use conductor_mapreduce::DataLocation;
    let mut m = BTreeMap::new();
    m.insert(DataLocation::S3, "S3");
    m.insert(DataLocation::InstanceDisk, "EC2-disk");
    m.insert(DataLocation::LocalDisk, "local-disk");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::IntervalPlan;
    use conductor_mapreduce::Workload;
    use std::time::Duration;

    fn fast_config() -> FleetConfig {
        FleetConfig {
            solve_options: SolveOptions {
                relative_gap: 0.02,
                max_nodes: 2_000,
                time_limit: Duration::from_secs(30),
                ..Default::default()
            },
            ..FleetConfig::default()
        }
    }

    fn fleet(cap: usize) -> Fleet {
        let catalog = Catalog::aws_july_2011();
        let pool = ResourcePool::from_catalog(&catalog, 1.0)
            .with_compute_only(&["m1.large"])
            .with_compute_cap("m1.large", cap);
        Fleet::new(catalog, pool, fast_config()).unwrap()
    }

    fn request(tenant: &str, arrival: f64, deadline: f64) -> FleetJobRequest {
        FleetJobRequest::new(
            tenant,
            Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: deadline,
            },
            arrival,
        )
    }

    #[test]
    fn residual_capacity_shrinks_under_load() {
        let mut f = fleet(20);
        let residual = f.residual_pool(0.0, None);
        assert_eq!(
            residual.compute_resource("m1.large").unwrap().max_nodes,
            Some(20)
        );
        // Admit one job and check the leftover.
        f.submit(request("a", 0.0, 6.0)).unwrap();
        let (job, _, _, _) = f.admit(0, 0.0).expect("admission succeeds");
        let peak: usize = job
            .exec
            .node_schedule()
            .iter()
            .map(|s| s.nodes)
            .max()
            .unwrap_or(0);
        assert!(peak > 0);
        f.active.insert(ProcessId(0), job);
        let residual = f.residual_pool(0.0, None);
        assert_eq!(
            residual.compute_resource("m1.large").unwrap().max_nodes,
            Some(20 - peak)
        );
        // Excluding the job restores the full fleet cap.
        let residual = f.residual_pool(0.0, Some(ProcessId(0)));
        assert_eq!(
            residual.compute_resource("m1.large").unwrap().max_nodes,
            Some(20)
        );
    }

    #[test]
    fn progress_checkpoints_accumulate_and_sample() {
        let plan = ExecutionPlan {
            interval_hours: 1.0,
            intervals: vec![
                IntervalPlan {
                    map_gb: 4.0,
                    ..Default::default()
                },
                IntervalPlan {
                    map_gb: 6.0,
                    ..Default::default()
                },
            ],
            expected_cost: 0.0,
            expected_completion_hours: 2.0,
            proven_optimal: true,
        };
        let cps = progress_checkpoints(2.0, 1.0, &plan);
        assert_eq!(cps, vec![(3.0, 5.0), (4.0, 11.0)]);
        assert_eq!(expected_progress(&cps, 2.5), 0.0);
        assert_eq!(expected_progress(&cps, 3.0), 5.0);
        assert_eq!(expected_progress(&cps, 10.0), 11.0);
    }

    #[test]
    fn invalid_config_and_submissions_are_rejected() {
        let catalog = Catalog::aws_july_2011();
        let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);

        let bad = FleetConfig {
            monitor_tolerance: f64::NAN,
            ..fast_config()
        };
        assert!(matches!(
            Fleet::new(catalog.clone(), pool.clone(), bad),
            Err(ConductorError::InvalidInput(_))
        ));
        let bad = FleetConfig {
            monitor_period_hours: -1.0,
            ..fast_config()
        };
        assert!(matches!(
            Fleet::new(catalog.clone(), pool.clone(), bad),
            Err(ConductorError::InvalidInput(_))
        ));
        let bad = FleetConfig {
            spot_bid: Some(f64::NAN),
            ..fast_config()
        };
        assert!(matches!(
            Fleet::new(catalog.clone(), pool.clone(), bad),
            Err(ConductorError::InvalidInput(_))
        ));

        let mut f = Fleet::new(catalog, pool, fast_config()).unwrap();
        assert!(matches!(
            f.submit(request("nan", f64::NAN, 6.0)),
            Err(ConductorError::InvalidInput(_))
        ));
        assert!(matches!(
            f.submit(request("past", -1.0, 6.0)),
            Err(ConductorError::InvalidInput(_))
        ));
        assert!(matches!(
            f.submit(request("bid", 0.0, 6.0).with_spot_bid(-0.10)),
            Err(ConductorError::InvalidInput(_))
        ));
        assert!(matches!(
            f.cancel(TenantId(7)),
            Err(ConductorError::InvalidInput(_))
        ));
        assert!(f.events.is_empty(), "failed submissions emit nothing");
    }

    #[test]
    fn monitor_grid_revives_on_the_batch_chain() {
        // Anchor at 0.5, period 1.0: ticks at 1.5, 2.5, … — after the chain
        // goes quiet and the clock moves to 7.2, the revived chain must
        // land on 7.5, not 8.2.
        let mut f = fleet(10);
        f.monitor_anchor = Some(0.5);
        f.monitor_fired = true;
        f.monitor_live = false;
        f.stepped_to = 7.2;
        f.ensure_monitor_chain(7.2);
        assert!((f.monitor_next - 7.5).abs() < 1e-12, "{}", f.monitor_next);
        assert!(f.monitor_live);
    }

    #[test]
    fn report_index_and_outcome_filters() {
        let mut a = TenantOutcome::pending("a".into(), 0.0);
        a.admitted = true;
        a.execution = None;
        a.failure = Some("boom".into());
        let b = TenantOutcome::pending("b".into(), 1.0);
        let report = FleetReport::from_outcomes(vec![a, b.clone()]);
        assert_eq!(report.tenant("a").unwrap().arrival_hours, 0.0);
        assert_eq!(report.tenant("b").unwrap().arrival_hours, 1.0);
        assert!(report.tenant("missing").is_none());
        assert_eq!(report.tenants_by_outcome(OutcomeClass::Failed).count(), 1);
        assert_eq!(report.tenants_by_outcome(OutcomeClass::Rejected).count(), 1);
        assert_eq!(
            report.tenants_by_outcome(OutcomeClass::Completed).count(),
            0
        );
        // A hand-built report without an index still resolves by scan.
        let hand_built = FleetReport {
            tenant_index: BTreeMap::new(),
            ..report.clone()
        };
        assert_eq!(hand_built.tenant("b").unwrap().tenant, "b");
        // Duplicate names resolve to the first occurrence, like the old scan.
        let dup = FleetReport::from_outcomes(vec![
            TenantOutcome::pending("x".into(), 3.0),
            TenantOutcome::pending("x".into(), 9.0),
        ]);
        assert_eq!(dup.tenant("x").unwrap().arrival_hours, 3.0);
    }
}
