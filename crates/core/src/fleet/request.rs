//! What a client hands a session: tenant handles, job requests and the
//! session configuration.

use crate::error::ConductorError;
use crate::goal::Goal;
use crate::policy::{FailurePolicy, RetryPolicy};
use conductor_cloud::SpotMarket;
use conductor_lp::SolveOptions;
use conductor_mapreduce::JobSpec;
use serde::{Deserialize, Serialize};

/// Handle of one submitted job within a [`Fleet`](super::Fleet) session.
/// Ids are issued in submission order and index
/// [`FleetReport::tenants`](super::FleetReport::tenants).
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
    /// [`Fleet::submit`](super::Fleet::submit) clamps this to the current
    /// fleet hour: jobs cannot arrive in the simulated past.
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

/// What the admission plan cache does with a certified sibling plan.
///
/// Serving changes which (equally certified) plan a tenant is admitted
/// under, and churn outcomes are sensitive to that choice, so sessions that
/// pin exact trajectories leave the cache [`Off`](Self::Off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanCacheMode {
    /// Every admission runs a full branch & bound solve.
    #[default]
    Off,
    /// Reuse admission plans across look-alike arrivals: a cached plan
    /// whose shape fits the current residual capacity and whose re-priced
    /// cost is certified against the fresh model's root LP relaxation
    /// bound (within the solver's `relative_gap`) is admitted without a
    /// branch & bound solve.
    Serve,
    /// Validation: probe the cache at every admission and record how each
    /// would-be hit compares against the full solve that actually decides
    /// — but never *use* a cached plan. The probe runs through its own
    /// solve context, so the session's trajectory stays bitwise identical
    /// to [`Off`](Self::Off). Query the comparison via
    /// [`Fleet::plan_cache_shadow_stats`](super::Fleet::plan_cache_shadow_stats).
    Shadow,
}

/// Configuration of a [`Fleet`](super::Fleet) session, validated once at
/// construction. [`ConductorService`](crate::ConductorService)'s builders
/// accumulate one of these; `Fleet::new` takes it directly.
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
    /// re-planning. The model is deliberately optimistic (fluid
    /// upload/processing, no task granularity), so a re-plan that exactly
    /// fills the remaining time finishes its node ramp-down too early and
    /// leaves the real engine a long single-node tail. Planning one
    /// interval short absorbs that optimism; it mirrors how the paper's
    /// controller keeps monitoring after each re-plan instead of trusting a
    /// single projection (§5.4).
    pub replan_margin_hours: f64,
    /// Fractional inflation of the *remaining* work the monitor reports at
    /// re-plan time (0.15 = plan for 15 % more work). Covers the node-hours
    /// the task-granular engine loses to data starvation and
    /// interval-boundary stragglers, which the fluid model cannot see.
    pub monitor_conservatism: f64,
    /// The failure policy: fault injection, retry/backoff with
    /// dead-lettering, the admission gate and the spot-market circuit
    /// breaker (see [`crate::policy`]). The default is completely inert,
    /// so unpolicied sessions replay the pre-policy trajectories bit for
    /// bit.
    pub policy: FailurePolicy,
    /// What the admission plan cache does (default [`PlanCacheMode::Off`]).
    pub plan_cache: PlanCacheMode,
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
            plan_cache: PlanCacheMode::Off,
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

    /// The fleet's maximum bid per spot instance-hour: the configured
    /// override, or the market's on-demand price (the rational ceiling).
    pub(super) fn effective_bid(&self, market: &SpotMarket) -> f64 {
        self.spot_bid.unwrap_or(market.on_demand_price)
    }
}
