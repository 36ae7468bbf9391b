//! Fleet-level orchestration: the Conductor *service*, as a batch facade.
//!
//! The paper frames Conductor as a service that orchestrates deployments
//! for many customers. The machinery behind that — admission against
//! residual capacity, one shared [`SpotMarket`] and clock, per-tenant
//! billing, revocation storms, monitor-event re-planning — lives in the
//! incremental [`Fleet`] session API (see [`crate::fleet`]).
//! [`ConductorService`] is the configured factory in front of it — what
//! the benchmark, the tests and the examples open their fleets through: the
//! `with_*` builders accumulate a [`FleetConfig`] (checked once, when a
//! session is opened), `open` / `open_sharded` / `restore` / `replay` hand
//! out sessions, and `run` is the closed-world batch call: hand it the full
//! request list, get the drained [`FleetReport`].
//!
//! `run` is *pinned bitwise identical* to the pre-redesign driver (and to
//! the incremental path): it opens a [`Fleet`],
//! submits every request up front, drains to quiescence and returns the
//! report — `tests/fleet_api.rs` asserts the equivalence on the
//! multi-job, revocation-storm and Poisson-churn suites.

use crate::controller::DeploymentOutcome;
use crate::error::ConductorError;
use crate::fleet::{Fleet, FleetConfig, PlanCacheMode};
use crate::goal::Goal;
use crate::resources::ResourcePool;
use conductor_cloud::{Catalog, SpotMarket};
use conductor_lp::SolveOptions;
use conductor_mapreduce::engine::EngineError;
use conductor_mapreduce::JobSpec;

pub use crate::fleet::{FleetJobRequest, FleetReport, TenantOutcome};

/// The multi-tenant orchestration service: a configured fleet factory
/// whose [`run`](Self::run) executes one closed-world batch.
#[derive(Debug, Clone)]
pub struct ConductorService {
    catalog: Catalog,
    pool: ResourcePool,
    config: FleetConfig,
}

impl ConductorService {
    /// Creates a service over a catalog and the fleet-wide resource pool.
    ///
    /// The pool's `max_nodes` caps are the *fleet* allocation limits every
    /// tenant shares (use [`ResourcePool::with_compute_cap`] to set them);
    /// arrivals are planned against whatever the running jobs leave over.
    pub fn new(catalog: Catalog, pool: ResourcePool) -> Self {
        Self {
            catalog,
            pool,
            config: FleetConfig::default(),
        }
    }

    /// Replaces the solver options used for admission and re-planning.
    pub fn with_solve_options(mut self, options: SolveOptions) -> Self {
        self.config.solve_options = options;
        self
    }

    /// Attaches a shared spot market: every tenant's rental sessions are
    /// priced at the market's hourly price (capped at on-demand), the
    /// planner sees the same prices as per-interval expectations (eq. 6),
    /// and every hour the trace price exceeds the fleet bid becomes a
    /// [revocation event](Self::with_spot_bid) that terminates the running
    /// spot sessions.
    pub fn with_spot_market(mut self, market: SpotMarket) -> Self {
        self.config.spot_market = Some(market);
        self
    }

    /// Overrides the fleet's maximum bid per spot instance-hour (default:
    /// the market's on-demand price, the most a rational tenant would
    /// pay). Lower bids buy cheaper hours at the price of more revocation
    /// storms: whenever the trace rises strictly above the bid, every
    /// running spot session is terminated (the partial hour uncharged) and
    /// new requests are refused until the price comes back down.
    /// Individual tenants can override this per job via
    /// [`FleetJobRequest::with_spot_bid`]. Stored as given: a negative or
    /// non-finite bid is refused when the fleet is opened.
    pub fn with_spot_bid(mut self, bid: f64) -> Self {
        self.config.spot_bid = Some(bid);
        self
    }

    /// Attaches a failure policy: seeded fault injection, per-tenant
    /// retry with exponential backoff and a dead-letter queue, an
    /// admission gate over a sliding window of outcomes, and a
    /// spot-market circuit breaker with on-demand fallback (see
    /// [`crate::policy`]). The default policy is inert; the knobs are
    /// validated when the fleet is opened.
    pub fn with_failure_policy(mut self, policy: crate::policy::FailurePolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Serves admissions from the plan cache ([`PlanCacheMode::Serve`]) when
    /// `enable`, else switches the cache off (the default).
    pub fn with_plan_cache(self, enable: bool) -> Self {
        self.with_plan_cache_mode(enable, PlanCacheMode::Serve)
    }

    /// Shadow-validates the plan cache ([`PlanCacheMode::Shadow`]) when
    /// `enable`, else switches the cache off; query the comparison through
    /// [`Fleet::plan_cache_shadow_stats`](crate::fleet::Fleet::plan_cache_shadow_stats).
    pub fn with_plan_cache_shadow(self, enable: bool) -> Self {
        self.with_plan_cache_mode(enable, PlanCacheMode::Shadow)
    }

    fn with_plan_cache_mode(mut self, enable: bool, mode: PlanCacheMode) -> Self {
        self.config.plan_cache = if enable { mode } else { PlanCacheMode::Off };
        self
    }

    /// Overrides the monitor cadence and re-plan trigger tolerance. The
    /// values are validated when the fleet is opened ([`Self::open`] /
    /// [`Self::run`]): the period must be finite and positive, the
    /// tolerance finite and within `[0, 1]` — NaN no longer reaches the
    /// event heap.
    pub fn with_monitor(mut self, period_hours: f64, tolerance: f64) -> Self {
        self.config.monitor_period_hours = period_hours;
        self.config.monitor_tolerance = tolerance;
        self
    }

    /// The fleet-wide resource pool.
    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }

    /// The session configuration the builders have accumulated.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The instance-type catalog. Together with [`pool`](Self::pool) and
    /// [`config`](Self::config), these are the three session inputs
    /// [`Fleet::restore`] and [`Fleet::replay`] take alongside a
    /// checkpoint or event log.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Reopens a checkpointed session with this service's catalog, pool
    /// and configuration — see [`Fleet::restore`].
    pub fn restore(&self, snapshot: &crate::fleet::FleetSnapshot) -> Result<Fleet, ConductorError> {
        Fleet::restore(
            self.catalog.clone(),
            self.pool.clone(),
            self.config.clone(),
            snapshot,
        )
    }

    /// Reconstructs a session from a persisted event log with this
    /// service's catalog, pool and configuration — see [`Fleet::replay`].
    pub fn replay(&self, log: &[crate::fleet::FleetEvent]) -> Result<Fleet, ConductorError> {
        Fleet::replay(
            self.catalog.clone(),
            self.pool.clone(),
            self.config.clone(),
            log,
        )
    }

    /// Opens an incremental [`Fleet`] session with this service's catalog,
    /// pool and configuration — the open-world API behind [`Self::run`]:
    /// submit at any time, step the clock, cancel, query live status,
    /// subscribe to the typed event stream.
    pub fn open(&self) -> Result<Fleet, ConductorError> {
        Fleet::new(self.catalog.clone(), self.pool.clone(), self.config.clone())
    }

    /// Opens a [`ShardedFleet`](crate::shards::ShardedFleet) over this
    /// service's catalog, pool and configuration: the pool is split into
    /// `config.shards` slices and one shard session opens per slice. See
    /// the [`crate::shards`] module for placement, transfer and
    /// determinism semantics.
    pub fn open_sharded(
        &self,
        config: crate::shards::ShardedFleetConfig,
    ) -> Result<crate::shards::ShardedFleet, ConductorError> {
        crate::shards::ShardedFleet::new(
            self.catalog.clone(),
            self.pool.clone(),
            self.config.clone(),
            config,
        )
    }

    /// Admits and runs `requests` on one shared clock, returning the
    /// per-tenant outcomes and the fleet roll-up. Individual admission
    /// failures and job failures are reported per tenant, not as errors.
    ///
    /// This is submit-all-then-drain over the incremental session; it
    /// reproduces the pre-redesign reports bit for bit.
    pub fn run(&self, requests: &[FleetJobRequest]) -> Result<FleetReport, ConductorError> {
        let mut fleet = self.open()?;
        for request in requests {
            fleet.submit(request.clone())?;
        }
        fleet.run_to_quiescence();
        Ok(fleet.report())
    }

    /// Runs `spec` as the only tenant of a fresh session, arriving at hour
    /// zero — what the single-job front ends ([`crate::JobController`],
    /// [`crate::AdaptiveController`]) are — and returns its outcome with the
    /// hours the monitor re-planned it at. A refused admission becomes
    /// [`ConductorError::GoalUnattainable`], a job aborted mid-run
    /// [`ConductorError::Deployment`].
    pub(crate) fn run_one(
        &self,
        spec: &JobSpec,
        goal: Goal,
    ) -> Result<(DeploymentOutcome, Vec<f64>), ConductorError> {
        let request = FleetJobRequest::new("conductor", spec.clone(), goal, 0.0);
        let solo = self.run(&[request])?.tenants.swap_remove(0);
        if let Some(reason) = solo.rejection {
            return Err(ConductorError::GoalUnattainable { reason });
        }
        let (Some(plan), Some(planning), Some(execution)) =
            (solo.plan, solo.planning, solo.execution)
        else {
            unreachable!("a drained fleet's admitted tenant has a plan, its effort and a run");
        };
        if solo.failure.is_some() {
            return Err(ConductorError::Deployment(EngineError::DidNotFinish {
                simulated_hours: execution.completion_hours,
                completed_tasks: execution.task_timeline.last().map_or(0, |&(_, done)| done),
            }));
        }
        let outcome = DeploymentOutcome {
            plan,
            planning,
            execution,
        };
        Ok((outcome, solo.replanned_at_hours))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conductor_cloud::SpotTrace;
    use conductor_mapreduce::Workload;
    use std::time::Duration;

    fn fast_options() -> SolveOptions {
        SolveOptions {
            relative_gap: 0.02,
            max_nodes: 2_000,
            time_limit: Duration::from_secs(30),
            ..Default::default()
        }
    }

    fn service(cap: usize) -> ConductorService {
        let catalog = Catalog::aws_july_2011();
        let pool = ResourcePool::from_catalog(&catalog, 1.0)
            .with_compute_only(&["m1.large"])
            .with_compute_cap("m1.large", cap);
        ConductorService::new(catalog, pool).with_solve_options(fast_options())
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
    fn oversubscribed_arrival_is_rejected_with_reason() {
        // Fleet cap so small the second arrival cannot plan at all.
        let svc = service(16);
        let report = svc
            .run(&[request("first", 0.0, 6.0), request("second", 0.5, 6.0)])
            .unwrap();
        let first = report.tenant("first").unwrap();
        assert!(first.admitted);
        let second = report.tenant("second").unwrap();
        assert!(!second.admitted);
        assert!(second
            .rejection
            .as_deref()
            .unwrap()
            .contains("planning failed"));
        // The fleet bill only covers the admitted tenant.
        assert!((report.fleet_cost - first.execution.as_ref().unwrap().total_cost).abs() < 1e-9);
    }

    #[test]
    fn shared_spot_market_lowers_every_tenants_bill() {
        let on_demand = service(100);
        let spot = service(100).with_spot_market(SpotMarket::new(
            SpotTrace::electricity_like(17, 24 * 10),
            0.34,
        ));
        let requests = [request("a", 0.0, 6.0), request("b", 1.0, 7.0)];
        let regular = on_demand.run(&requests).unwrap();
        let discounted = spot.run(&requests).unwrap();
        assert_eq!(discounted.jobs_completed, 2);
        for tenant in ["a", "b"] {
            let r = regular.tenant(tenant).unwrap().execution.as_ref().unwrap();
            let d = discounted
                .tenant(tenant)
                .unwrap()
                .execution
                .as_ref()
                .unwrap();
            assert!(
                d.total_cost < r.total_cost,
                "{tenant}: spot {} vs on-demand {}",
                d.total_cost,
                r.total_cost
            );
        }
        assert!(discounted.fleet_cost < regular.fleet_cost);
    }

    #[test]
    fn invalid_monitor_knobs_fail_at_open_not_silently() {
        let svc = service(50).with_monitor(f64::NAN, 0.25);
        assert!(matches!(
            svc.run(&[request("a", 0.0, 6.0)]),
            Err(ConductorError::InvalidInput(_))
        ));
        let svc = service(50).with_monitor(1.0, f64::NAN);
        assert!(matches!(svc.open(), Err(ConductorError::InvalidInput(_))));
        let svc = service(50).with_monitor(-2.0, 0.25);
        assert!(matches!(svc.open(), Err(ConductorError::InvalidInput(_))));
        // An invalid arrival hour is refused before anything runs.
        let svc = service(50);
        assert!(matches!(
            svc.run(&[request("nan", f64::NAN, 6.0)]),
            Err(ConductorError::InvalidInput(_))
        ));
    }
}
