//! # conductor-core
//!
//! The Conductor system itself: automatic selection of cloud services for
//! MapReduce computations, plan deployment, and runtime adaptation — the
//! primary contribution of *"Orchestrating the Deployment of Computations in
//! the Cloud with Conductor"* (NSDI 2012).
//!
//! The flow mirrors Figure 2 of the paper:
//!
//! 1. `resources` — the resource abstraction layer turns heterogeneous
//!    service offerings (catalog entries or published service descriptions)
//!    into one [`ResourcePool`] of [`ComputeResource`]s and
//!    [`StorageResource`]s (§4.2, §4.6, §5.1).
//! 2. `model` — the dynamic-linear-program generator encodes the MapReduce
//!    job, the resources, their prices (including spot-price expectations)
//!    and the user's [`Goal`] as a [`conductor_lp::Problem`] (§4.3–§4.7):
//!    a [`ModelInstance`] built under a [`ModelConfig`] (whose
//!    [`InitialState`] carries a re-plan's progress).
//! 3. `planner` — the [`Planner`] dispatches the model to the solver and
//!    extracts an [`ExecutionPlan`] of [`IntervalPlan`]s, with a
//!    [`PlanningReport`] of the effort (§4.8).
//! 4. `controller` — the [`JobController`] deploys one job: a one-tenant
//!    fleet session that plans, follows the plan on the MapReduce engine
//!    and meters cost into a [`DeploymentOutcome`] (§5.2).
//! 5. `adapt` — the Figure 12 experiment: the [`AdaptiveController`] runs a
//!    one-tenant session whose pool mispredicts its catalog's throughput,
//!    rescued by the fleet's monitor, into an [`AdaptationReport`] (§5.4).
//! 6. `spot` — [`BidPredictor`]s and the [`SpotDeploymentSimulator`] of
//!    §6.5 (Figure 14), which returns a [`SpotScenarioResult`].
//! 7. `fleet` — the open-world fleet: [`Fleet`] is a long-lived
//!    orchestration session — jobs ([`FleetJobRequest`]) submitted or
//!    cancelled at any simulated time, the clock advanced in steps, live
//!    [`TenantStatus`] queries, and a typed [`FleetEvent`] stream in
//!    deterministic clock order, also delivered to a [`FleetObserver`].
//!    Many concurrent jobs share one discrete-event clock, are planned
//!    against the residual capacity and a shared spot market, and are
//!    re-planned by monitor events, with per-tenant billing. A
//!    [`FleetReport`] closes a session; a [`FleetSnapshot`] checkpoints it.
//! 8. `service` — [`ConductorService`], the configured factory fleets are
//!    opened through (under a [`FleetConfig`]), and its closed-world batch
//!    call (submit everything, drain, report), pinned bitwise-identical to
//!    the incremental path.
//! 9. `policy` — the failure-policy layer: seeded fault injection
//!    ([`FaultPlan`] of [`FaultEvent`]s), per-tenant retry with exponential
//!    backoff ([`RetryPolicy`]) and a dead-letter queue ([`DeadLetter`]), an
//!    admission gate over a sliding window of outcomes
//!    ([`FailureThreshold`]), and a spot-market circuit breaker with
//!    on-demand fallback ([`CircuitBreakerConfig`], [`BreakerState`],
//!    [`FallbackTier`]), all bundled in a [`FailurePolicy`]. All of it runs
//!    on the fleet's deterministic event loop.
//! 10. `shards` and `wal` — the [`ShardedFleet`] splits one pool across
//!     fleets (a [`ShardRouter`] places tenants; rebalancing logs a
//!     [`TransferEvent`]), and [`WalWriter`] / [`WalReader`] tail a fleet's
//!     events to a write-ahead log and read one back ([`WalReadout`]).
//!
//! # The public surface
//!
//! Every module is private; the items above are the whole surface, with
//! [`ConductorError`] for failures. A caller starts from one of two
//! places:
//!
//! * [`ConductorService`] — open a [`Fleet`] (or a [`ShardedFleet`]) and
//!   submit jobs to it, or run a closed batch;
//! * [`Planner`] — plan one job against a [`ResourcePool`] without
//!   deploying it.
//!
//! [`TenantId`], [`TenantState`], [`TenantOutcome`], [`OutcomeClass`],
//! [`PlanCacheKey`] and [`FaultKind`] appear in the fleet's reports,
//! events and fault plans.

mod adapt;
mod controller;
mod error;
mod fleet;
mod goal;
mod model;
mod plan;
mod planner;
mod policy;
mod resources;
mod service;
mod shards;
mod spot;
mod wal;

pub use adapt::{AdaptationReport, AdaptiveController};
pub use controller::{DeploymentOutcome, JobController};
pub use error::ConductorError;
pub use fleet::{
    Fleet, FleetConfig, FleetEvent, FleetJobRequest, FleetObserver, FleetReport, FleetSnapshot,
    OutcomeClass, PlanCacheKey, TenantId, TenantOutcome, TenantState, TenantStatus,
};
pub use goal::Goal;
pub use model::{InitialState, ModelConfig, ModelInstance};
pub use plan::{ExecutionPlan, IntervalPlan};
pub use planner::{Planner, PlanningReport};
pub use policy::{
    BreakerState, CircuitBreakerConfig, DeadLetter, FailurePolicy, FailureThreshold, FallbackTier,
    FaultEvent, FaultKind, FaultPlan, RetryPolicy,
};
pub use resources::{ComputeResource, ResourcePool, StorageResource};
pub use service::ConductorService;
pub use shards::{ShardRouter, ShardedFleet, ShardedFleetConfig, TransferEvent};
pub use spot::{BidPredictor, SpotDeploymentSimulator, SpotScenarioResult};
pub use wal::{WalReader, WalReadout, WalWriter};
