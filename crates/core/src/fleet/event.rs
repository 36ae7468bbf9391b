//! The typed lifecycle stream: every transition a session makes, and the
//! observer interface that receives it.

use super::admission::PlanCacheKey;
use super::request::{FleetJobRequest, TenantId};
use crate::policy::FaultKind;
use serde::{Deserialize, Serialize};

/// A typed fleet lifecycle event, delivered to [`FleetObserver`]s and the
/// [`Fleet::events`](super::Fleet::events) log in deterministic clock order.
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
        /// [`Fleet::replay`](super::Fleet::replay) re-drives the submission from this payload
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
        /// fast path decided (`None` for full branch & bound solves).
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
    /// dead-letter queue ([`Fleet::dead_letters`](super::Fleet::dead_letters)).
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
    /// ([`FallbackTier::OnDemand`](crate::policy::FallbackTier::OnDemand)).
    FallbackEngaged {
        /// The tenant paying the ceiling.
        tenant: TenantId,
        /// The admission hour.
        at_hours: f64,
    },
    /// A queued tenant left this session — a sharded runtime moved it to another shard before its arrival
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
    /// observed outside this session: a sharded runtime broadcasts every arrival so all shards tick on
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
/// order, exactly as they are appended to [`Fleet::events`](super::Fleet::events).
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
