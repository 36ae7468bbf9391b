//! # conductor-core
//!
//! The Conductor system itself: automatic selection of cloud services for
//! MapReduce computations, plan deployment, and runtime adaptation — the
//! primary contribution of *"Orchestrating the Deployment of Computations in
//! the Cloud with Conductor"* (NSDI 2012).
//!
//! The flow mirrors Figure 2 of the paper:
//!
//! 1. [`resources`] — the resource abstraction layer turns heterogeneous
//!    service offerings (catalog entries or published service descriptions)
//!    into uniform compute and storage resources (§4.2, §4.6, §5.1).
//! 2. [`model`] — the dynamic-linear-program generator encodes the MapReduce
//!    job, the resources, their prices (including spot-price expectations)
//!    and the user's goal as a [`conductor_lp::Problem`] (§4.3–§4.7).
//! 3. [`planner`] — dispatches the model to the solver and extracts an
//!    [`plan::ExecutionPlan`] (§4.8).
//! 4. [`controller`] — the job controller deploys one job: a one-tenant
//!    fleet session (items 7–8) that plans, follows the plan on the
//!    MapReduce engine and meters cost (§5.2).
//! 5. [`adapt`] — the Figure 12 experiment: a one-tenant session whose pool
//!    mispredicts its catalog's throughput, rescued by the fleet's monitor
//!    (§5.4).
//! 6. [`spot`] — bid predictors and the spot-market deployment simulation of
//!    §6.5 (Figure 14).
//! 7. [`fleet`] — the open-world fleet: [`fleet::Fleet`] is a long-lived
//!    orchestration session — jobs submitted or cancelled at any simulated
//!    time, the clock advanced in steps, live status queries, and a typed
//!    [`fleet::FleetEvent`] stream in deterministic clock order. Many
//!    concurrent jobs share one discrete-event clock, are planned against
//!    the residual capacity and a shared spot market, and are re-planned
//!    by monitor events, with per-tenant billing.
//! 8. [`service`] — [`service::ConductorService`], the configured factory
//!    fleets are opened through, and its closed-world batch call (submit
//!    everything, drain, report), pinned bitwise-identical to the
//!    incremental path.
//! 9. [`policy`] — the failure-policy layer: seeded fault injection
//!    ([`policy::FaultPlan`]), per-tenant retry with exponential backoff
//!    and a dead-letter queue, an admission gate over a sliding window of
//!    outcomes, and a spot-market circuit breaker with on-demand
//!    fallback. All of it runs on the fleet's deterministic event loop.

pub mod adapt;
pub mod controller;
pub mod error;
pub mod fleet;
pub mod goal;
pub mod model;
pub mod plan;
pub mod planner;
pub mod policy;
pub mod resources;
pub mod service;
pub mod shards;
pub mod spot;
pub mod wal;

pub use adapt::{AdaptationReport, AdaptiveController};
pub use controller::{DeploymentOutcome, JobController};
pub use error::ConductorError;
pub use fleet::{
    Fleet, FleetConfig, FleetEvent, FleetJobRequest, FleetObserver, FleetReport, FleetSnapshot,
    OutcomeClass, PlanCacheKey, PlanCacheMode, TenantId, TenantOutcome, TenantState, TenantStatus,
};
pub use goal::Goal;
pub use model::{InitialState, ModelConfig, ModelInstance};
pub use plan::{ExecutionPlan, IntervalPlan};
pub use planner::{FailedPlanning, Planner, PlanningReport};
pub use policy::{
    BreakerState, CircuitBreakerConfig, DeadLetter, FailurePolicy, FailureThreshold, FallbackTier,
    FaultKind, FaultPlan, RetryPolicy,
};
pub use resources::{ComputeResource, ResourcePool, StorageResource};
pub use service::ConductorService;
pub use shards::{HashRouter, ShardRouter, ShardedFleet, ShardedFleetConfig, TransferEvent};
pub use spot::{BidPredictor, SpotDeploymentSimulator, SpotScenarioResult};
pub use wal::{WalReader, WalReadout, WalWriter};
