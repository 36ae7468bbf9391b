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
//! The closed-world batch call, `ConductorService::run`, is this session
//! submitted up front and drained; `tests/fleet_api.rs` pins the two
//! **bitwise identical** (admissions, re-plan hours, bills) on the
//! multi-job, revocation-storm and Poisson-churn suites.
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
//!   anchored at the earliest submission's arrival hour. A chain that went
//!   quiet and is revived by a later submission recomputes its next tick by
//!   *iterating* from the anchor — the exact floating-point tick times the
//!   batch driver's `t += period` chain would have produced.
//! - **Revocation sweeps.** Out-bid hours at the fleet bid become sweep
//!   events at construction; a submission with a *lower* per-tenant
//!   [`FleetJobRequest::spot_bid`] adds sweeps for its extra out-bid
//!   hours, and every sweep checks each running job against **its own**
//!   bid, so default-bid tenants are untouched by another's bidding.
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

mod admission;
mod event;
mod report;
mod request;
mod residual;
mod session;
mod snapshot;

pub use admission::PlanCacheKey;
pub use event::{FleetEvent, FleetObserver};
pub use report::{FleetReport, OutcomeClass, TenantOutcome, TenantState, TenantStatus};
pub use request::{FleetConfig, FleetJobRequest, TenantId};
pub use snapshot::FleetSnapshot;

use crate::error::ConductorError;
use crate::policy::{BreakerState, DeadLetter, FailureWindow, SpotBreaker};
use crate::resources::ResourcePool;
use crate::wal::WalWriter;
use admission::AdmissionControl;
use conductor_cloud::Catalog;
use conductor_sim::{ProcessId, Simulator};
use session::{schedule, ActiveJob, ClockEvent, SessionState};
use std::collections::BTreeMap;

/// A long-lived, incremental multi-tenant orchestration session — the
/// `fleet` module's docs give the API tour and the determinism contract. The
/// client API lives here; the state machine behind it in `session`,
/// planning in `admission`, persistence in `snapshot`.
pub struct Fleet {
    catalog: Catalog,
    pool: ResourcePool,
    config: FleetConfig,
    sim: Simulator<ClockEvent>,
    active: BTreeMap<ProcessId, ActiveJob>,
    /// Tenants, monitor grid, policy runtime, clock, event log.
    state: SessionState,
    /// Solve context and plan cache.
    admission: AdmissionControl,
    observers: Vec<Box<dyn FleetObserver + Send>>,
    /// Write-ahead log tailing every emitted event (see
    /// [`attach_wal`](Self::attach_wal)); `None` when not tailing.
    wal: Option<WalWriter>,
    /// The write failure that detached the WAL, if one occurred.
    wal_error: Option<String>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("now_hours", &self.state.stepped_to)
            .field("submitted", &self.state.outcomes.len())
            .field("active", &self.active.len())
            .field("arrivals_pending", &self.state.arrivals_pending)
            .field("events", &self.state.events.len())
            .finish()
    }
}

impl Fleet {
    /// Opens a session over a catalog, the fleet-wide resource pool and a
    /// validated [`FleetConfig`]. With a spot market configured, the
    /// trace's out-bid hours (at the fleet bid) are scheduled as
    /// revocation sweeps up front — first-class events on the shared clock.
    ///
    /// Admission plans with `pool`'s throughputs; the engine runs on
    /// `catalog`'s. They are deliberately not required to agree: a pool
    /// that overstates (or understates) its catalog is the supported way to
    /// model a *misprediction* — the monitor then measures the real rate
    /// and re-plans with it (Figure 12; `AdaptiveController` is exactly
    /// that session with one tenant).
    pub fn new(
        catalog: Catalog,
        pool: ResourcePool,
        config: FleetConfig,
    ) -> Result<Self, ConductorError> {
        pool.validate().map_err(ConductorError::InvalidInput)?;
        config.validate()?;
        let failure_window = config.policy.failure_threshold.map(FailureWindow::new);
        let breaker = match (&config.spot_market, config.policy.circuit_breaker) {
            (Some(_), Some(breaker_config)) => Some(SpotBreaker::new(breaker_config)),
            _ => None, // without a market there is nothing to break
        };
        let mut fleet = Self {
            admission: AdmissionControl::default(),
            catalog,
            pool,
            config,
            sim: Simulator::new(),
            active: BTreeMap::new(),
            state: SessionState {
                failure_window,
                breaker,
                ..SessionState::default()
            },
            observers: Vec::new(),
            wal: None,
            wal_error: None,
        };
        // The trace-driven revocation schedule: one sweep per hour the spot
        // price sits above the fleet bid, shared by every tenant. These are
        // first-class events on the shared clock, not a post-hoc price
        // adjustment — a storm interrupts running executions mid-flight.
        if let Some(market) = &fleet.config.spot_market {
            fleet.schedule_sweeps(0, fleet.config.effective_bid(market));
        }
        // The fault plan is materialized onto the clock up front, exactly
        // like the revocation schedule: seeded once, replayed bit for bit.
        if let Some(plan) = &fleet.config.policy.fault_plan {
            for (i, event) in plan.events.iter().enumerate() {
                schedule(&mut fleet.sim, event.at_hours, ClockEvent::Fault(i));
            }
        }
        Ok(fleet)
    }

    /// The fleet's logical clock: the latest processed event time or
    /// `step_until` bound, whichever is later.
    pub fn now_hours(&self) -> f64 {
        self.state.stepped_to
    }

    /// Every [`FleetEvent`] emitted so far, in clock order.
    pub fn events(&self) -> &[FleetEvent] {
        &self.state.events
    }

    /// The events emitted at or after log position `from` — a poll-style
    /// subscription cursor (`let cur = fleet.events().len()` … step …
    /// `fleet.events_since(cur)`).
    pub fn events_since(&self, from: usize) -> &[FleetEvent] {
        &self.state.events[from.min(self.state.events.len())..]
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
    /// flushed) as it happens — so the log on disk is durable mid-run and
    /// a crash loses at most the entry being written (the torn tail
    /// [`crate::wal::WalReader::recover`] repairs). Events already emitted
    /// are *not* backfilled; to capture a complete log, attach before
    /// stepping or pre-write `events()` with [`WalWriter::log_all`] first.
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
        let arrival = request.arrival_hours.max(self.state.stepped_to);
        // A per-tenant bid *below* the fleet bid has out-bid hours the
        // construction-time sweep schedule missed; add them (future hours
        // only — the current partial hour is already gated by the
        // session's own acquisition check). Fleet-bid submissions skip the
        // scan: their hours were all scheduled at construction.
        if let Some(bid) = request.spot_bid {
            self.schedule_sweeps(self.state.stepped_to.ceil().max(0.0) as usize, bid);
        }
        let pending = TenantOutcome::pending(request.tenant.clone(), arrival);
        let idx = self.enqueue(request.clone(), pending);
        let at = self.state.stepped_to;
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
        let idx = self.known(id)?;
        let now = self.state.stepped_to;
        match self.tenant_state(idx) {
            // Mid-run: abort the live execution, keep the partial bill.
            TenantState::Running => {
                let Some((pid, _)) = self.running_job(idx) else {
                    return Ok(false); // admitted, but no live process to abort
                };
                let job = self.active.remove(&pid).expect("running job is active");
                let o = &mut self.state.outcomes[idx];
                o.failure = Some(format!("cancelled by client at fleet hour {now:.2}"));
                o.execution = Some(job.exec.abort((now - job.info.start).max(0.0)));
                self.state.cancelled.insert(idx);
            }
            TenantState::Queued => self.close_out_queued(idx, "cancelled before arrival"),
            _ => return Ok(false), // already terminal (or already cancelled)
        }
        self.emit(FleetEvent::Cancelled {
            tenant: id,
            at_hours: now,
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
    pub(crate) fn migrate_out(&mut self, id: TenantId) -> Result<FleetJobRequest, ConductorError> {
        let idx = self.known(id)?;
        if self.tenant_state(idx) != TenantState::Queued {
            return Err(ConductorError::InvalidInput(format!(
                "tenant {idx} is not queued (running, terminal or cancelled); only queued \
                 jobs migrate"
            )));
        }
        let mut request = self.state.requests[idx].clone();
        // Carry the *scheduled* arrival, not the requested one: a mid-run
        // submission was clamped to its submission hour, and a retry's
        // arrival is its backoff hour. Re-submitting at the current fleet
        // hour (<= the pending arrival, up to the batch epsilon) then
        // reproduces the identical arrival event on the receiving shard.
        request.arrival_hours = self.state.outcomes[idx].arrival_hours;
        self.close_out_queued(idx, "migrated to another shard");
        let at = self.state.stepped_to;
        self.emit(FleetEvent::MigratedOut {
            tenant: id,
            at_hours: at,
        });
        Ok(request)
    }

    /// Schedules a sweep at every hour from `from` that out-bids `bid`.
    fn schedule_sweeps(&mut self, from: usize, bid: f64) {
        let Some(market) = &self.config.spot_market else {
            return;
        };
        for hour in market.revocation_hours(from, market.trace().len(), bid) {
            if self.state.revocation_hours_scheduled.insert(hour) {
                schedule(&mut self.sim, hour as f64, ClockEvent::Revocation);
            }
        }
    }

    /// The submission index behind a handle this session issued.
    fn known(&self, id: TenantId) -> Result<usize, ConductorError> {
        if id.0 < self.state.outcomes.len() {
            Ok(id.0)
        } else {
            Err(ConductorError::InvalidInput(format!(
                "unknown tenant id {} (only {} submissions)",
                id.0,
                self.state.outcomes.len()
            )))
        }
    }

    /// Tenant `idx`'s live execution process, while it has one.
    fn running_job(&self, idx: usize) -> Option<(ProcessId, &ActiveJob)> {
        let pid = *self.state.tenant_pids.get(&idx)?;
        Some((pid, self.active.get(&pid)?))
    }

    /// Where tenant `idx` stands: the one reading of the session's records.
    fn tenant_state(&self, idx: usize) -> TenantState {
        let o = &self.state.outcomes[idx];
        if self.state.cancelled.contains(&idx) {
            TenantState::Cancelled
        } else if self.running_job(idx).is_some() {
            TenantState::Running
        } else if !o.admitted && o.rejection.is_some() {
            TenantState::Rejected
        } else if !o.admitted {
            TenantState::Queued
        } else if o.failure.is_some() {
            TenantState::Failed
        } else if o.execution.is_some() {
            TenantState::Completed
        } else {
            TenantState::Running
        }
    }

    /// Closes out a queued submission that will never arrive here. The
    /// phantom arrival event stays in the heap (heaps don't support
    /// removal) but no longer counts as pending work, so the monitor chain
    /// can die instead of ticking until that hour; `handle_arrival` skips
    /// cancelled entries.
    fn close_out_queued(&mut self, idx: usize, rejection: &str) {
        self.state.outcomes[idx].rejection = Some(rejection.into());
        self.state.cancelled.insert(idx);
        self.state.arrivals_pending -= 1;
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
    pub(crate) fn align_monitor(&mut self, arrival_hours: f64) -> Result<(), ConductorError> {
        if !arrival_hours.is_finite() || arrival_hours < 0.0 {
            return Err(ConductorError::InvalidInput(format!(
                "invalid monitor alignment hour {arrival_hours}"
            )));
        }
        let arrival = arrival_hours.max(self.state.stepped_to);
        self.ensure_monitor_chain(arrival);
        let at = self.state.stepped_to;
        self.emit(FleetEvent::MonitorAligned {
            at_hours: at,
            arrival_hours,
        });
        Ok(())
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
        let o = self.state.outcomes.get(id.0)?;
        let running = self.running_job(id.0).map(|(_, job)| job);
        let (progress, bill_so_far) = match running {
            Some(job) => {
                let rel = (self.state.stepped_to - job.info.start).max(0.0);
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
            state: self.tenant_state(id.0),
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
            .state
            .outcomes
            .iter()
            .filter_map(|o| o.execution.as_ref())
            .map(|e| e.total_cost)
            .sum();
        let running: f64 = self
            .active
            .values()
            .map(|j| {
                j.exec
                    .cost_so_far_at((self.state.stepped_to - j.info.start).max(0.0))
            })
            .sum();
        terminal + running
    }

    /// The dead-letter queue: every tenant whose final attempt exhausted
    /// the retry budget, in dead-letter order.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.state.dead_letters
    }

    /// Submitted arrivals whose event has not fired yet — the sharded
    /// rebalancer's queue-depth metric.
    pub(crate) fn queue_depth(&self) -> usize {
        self.state.arrivals_pending
    }

    /// Local indices of queued *original* submissions (arrival pending,
    /// attempt zero, not cancelled), in submission order — the sharded
    /// rebalancer's migration candidates. Retry waits never migrate:
    /// their backoff arrival belongs to the shard that owns the chain.
    pub(crate) fn queued_candidates(&self) -> Vec<usize> {
        (0..self.state.outcomes.len())
            .filter(|&i| {
                self.state.outcomes[i].attempt == 0 && self.tenant_state(i) == TenantState::Queued
            })
            .collect()
    }

    /// Total residual capped compute nodes at fleet hour `at` — the
    /// sharded rebalancer's slack metric (uncapped resources contribute
    /// nothing; they are never the bottleneck).
    pub(crate) fn residual_capped_nodes(&self, at: f64) -> usize {
        residual::residual_at(&self.pool, &self.active, at, None)
            .compute
            .iter()
            .filter_map(|c| c.max_nodes)
            .sum()
    }

    /// The raw per-tenant outcomes, for the sharded runtime's merged
    /// report (indexing matches [`TenantId`]s issued by this session).
    pub(crate) fn outcomes(&self) -> &[TenantOutcome] {
        &self.state.outcomes
    }

    /// The latest pending event hour on this session's clock, if any —
    /// the horizon the sharded barrier driver must step past before the
    /// shard can be quiescent.
    pub(crate) fn horizon_hours(&self) -> Option<f64> {
        self.sim.max_time()
    }

    /// `true` while the failure-rate gate is refusing new admissions.
    pub fn admission_paused(&self) -> bool {
        self.state
            .failure_window
            .as_ref()
            .is_some_and(|w| w.is_paused())
    }

    /// The spot-market circuit breaker's state, when one is configured
    /// (requires both a market and a breaker config).
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.state.breaker.as_ref().map(|b| b.state())
    }

    /// The per-tenant outcomes and fleet roll-up as of now. After
    /// [`run_to_quiescence`](Self::run_to_quiescence) this is the final
    /// report; mid-run it is a snapshot (running tenants appear admitted
    /// with no execution record yet).
    pub fn report(&self) -> FleetReport {
        let mut report = FleetReport::from_outcomes(self.state.outcomes.clone());
        if let Some(breaker) = &self.state.breaker {
            report.breaker_open_hours = breaker.open_hours(self.state.stepped_to);
        }
        (report.plan_cache_hits, report.plan_cache_misses) = self.admission.cache_stats();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::session::{expected_progress, progress_checkpoints};
    use super::*;
    use crate::goal::Goal;
    use crate::plan::{ExecutionPlan, IntervalPlan};
    use crate::policy::RetryPolicy;
    use crate::policy::{FailurePolicy, FailureThreshold, FaultEvent, FaultKind, FaultPlan};
    use conductor_cloud::{SpotMarket, SpotTrace, TraceKind};
    use conductor_mapreduce::{
        JobExecution, LocalityScheduler, NodeAllocation, SessionPricing, Workload,
    };

    fn fleet_with(cap: usize, config: FleetConfig) -> Fleet {
        let catalog = Catalog::aws_july_2011();
        let pool = ResourcePool::from_catalog(&catalog, 1.0)
            .with_compute_only(&["m1.large"])
            .with_compute_cap("m1.large", cap);
        Fleet::new(catalog, pool, config).unwrap()
    }

    fn fleet(cap: usize) -> Fleet {
        fleet_with(cap, FleetConfig::default())
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

    fn small_request(tenant: &str, arrival: f64, deadline: f64) -> FleetJobRequest {
        FleetJobRequest {
            spec: Workload::KMeansScaled { input_gb: 8 }.spec(),
            ..request(tenant, arrival, deadline)
        }
    }

    #[test]
    fn residual_capacity_shrinks_under_load() {
        let mut f = fleet(20);
        let left = |f: &Fleet, exclude| {
            let residual = residual::residual_at(&f.pool, &f.active, 0.0, exclude);
            residual.compute_resource("m1.large").unwrap().max_nodes
        };
        assert_eq!(left(&f, None), Some(20));
        // Admit one job and check the leftover.
        f.submit(request("a", 0.0, 6.0)).unwrap();
        f.step_one_batch();
        let (pid, job) = f.running_job(0).expect("admission succeeds");
        let peak: usize = job
            .exec
            .node_schedule()
            .iter()
            .map(|s| s.nodes)
            .max()
            .unwrap_or(0);
        assert!(peak > 0);
        assert_eq!(left(&f, None), Some(20 - peak));
        // Excluding the job restores the full fleet cap.
        assert_eq!(left(&f, Some(pid)), Some(20));
    }

    /// Two admitted jobs re-deployed on hand-written schedules whose peaks
    /// fall at different hours: the residual subtracts the peak of their
    /// *summed* commitment, ignores steps before the query hour, and
    /// `exclude` drops exactly the excluded job's steps.
    #[test]
    fn residual_subtracts_the_peak_of_the_summed_commitment() {
        let mut f = fleet(20);
        f.submit(small_request("a", 0.0, 8.0)).unwrap();
        f.submit(small_request("b", 0.0, 8.0)).unwrap();
        f.step_one_batch();
        let step = |from_hour, nodes| NodeAllocation {
            from_hour,
            instance_type: "m1.large".to_string(),
            nodes,
        };
        // Committed nodes, a + b: 9 + 1 on [0, 2), 2 + 1 on [2, 3),
        // 2 + 6 on [3, 4), 0 + 6 on [4, 5), none from 5 on.
        let schedules = [
            vec![step(0.0, 9), step(2.0, 2), step(4.0, 0)],
            vec![step(0.0, 1), step(3.0, 6), step(5.0, 0)],
        ];
        let mut pids = Vec::new();
        for (idx, schedule) in schedules.iter().enumerate() {
            let (pid, _) = f.running_job(idx).expect("admission succeeds");
            let job = f.active.get_mut(&pid).unwrap();
            assert_eq!(job.info.start, 0.0);
            let mut options = job.exec.options().clone();
            options.node_schedule = schedule.clone();
            job.exec = JobExecution::new(
                &f.catalog,
                &job.info.spec,
                options,
                Box::new(LocalityScheduler),
                SessionPricing::OnDemand,
            )
            .unwrap();
            pids.push(pid);
        }
        let left = |at, exclude| {
            let residual = residual::residual_at(&f.pool, &f.active, at, exclude);
            residual.compute_resource("m1.large").unwrap().max_nodes
        };
        // 20 − 10, not 20 − (9 + 6).
        assert_eq!(left(0.0, None), Some(10));
        // From 2.5 the 9-node step is past: the peak is 2 + 6.
        assert_eq!(left(2.5, None), Some(12));
        assert_eq!(left(4.5, None), Some(14));
        // Excluding a leaves b's peak; excluding b leaves a's, or what is
        // left of a's at 2.5.
        assert_eq!(left(0.0, Some(pids[0])), Some(14));
        assert_eq!(left(0.0, Some(pids[1])), Some(11));
        assert_eq!(left(2.5, Some(pids[1])), Some(18));
    }

    #[test]
    fn progress_checkpoints_accumulate_and_sample() {
        let interval = |map_gb| IntervalPlan {
            map_gb,
            ..Default::default()
        };
        let plan = ExecutionPlan {
            interval_hours: 1.0,
            intervals: vec![interval(4.0), interval(6.0)],
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
        let default = FleetConfig::default;
        for bad in [
            FleetConfig {
                monitor_tolerance: f64::NAN,
                ..default()
            },
            FleetConfig {
                spot_bid: Some(f64::NAN),
                ..default()
            },
        ] {
            assert!(matches!(
                Fleet::new(catalog.clone(), pool.clone(), bad),
                Err(ConductorError::InvalidInput(_))
            ));
        }

        let mut f = Fleet::new(catalog, pool, default()).unwrap();
        for bad in [
            request("nan", f64::NAN, 6.0),
            request("past", -1.0, 6.0),
            request("bid", 0.0, 6.0).with_spot_bid(-0.10),
        ] {
            assert!(matches!(
                f.submit(bad),
                Err(ConductorError::InvalidInput(_))
            ));
        }
        assert!(matches!(
            f.cancel(TenantId(7)),
            Err(ConductorError::InvalidInput(_))
        ));
        assert!(f.events().is_empty(), "failed submissions emit nothing");
    }

    #[test]
    fn monitor_grid_revives_on_the_batch_chain() {
        // Anchor at 0.5, period 1.0: ticks at 1.5, 2.5, … — after the chain
        // goes quiet and the clock moves to 7.2, the revived chain must
        // land on 7.5, not 8.2.
        let mut f = fleet(10);
        f.state.monitor_anchor = Some(0.5);
        f.state.monitor_fired = true;
        f.state.stepped_to = 7.2;
        f.ensure_monitor_chain(7.2);
        let next = f.state.monitor_next.expect("the chain is live again");
        assert!((next - 7.5).abs() < 1e-12, "{next}");
    }

    #[test]
    fn report_index_and_outcome_filters() {
        let mut a = TenantOutcome::pending("a".into(), 0.0);
        a.admitted = true;
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

    // ---- the two consolidations: one lifecycle, one failure path --------

    type Finish = fn(&mut Fleet);
    const DRAIN: Finish = Fleet::run_to_quiescence;

    /// The four ways a running job is aborted: the failure-reason prefix,
    /// the storm and the task-failure hours that bring it about for a
    /// tenant on a [`strict_fleet`], and what to do once the tenant runs.
    fn abort_causes() -> [(&'static str, std::ops::Range<usize>, &'static [f64], Finish); 4] {
        [
            // The storm outlasts the 200-hour cap; the recovery-hour wakeup
            // finds the job still processing.
            ("did not finish within", 1..230, &[], DRAIN),
            // The storm never ends: once the schedule runs out nothing is
            // running and nothing will change.
            ("job stuck", 1..400, &[], DRAIN),
            ("injected fault", 0..0, &[1.0], DRAIN),
            // A live job and an empty heap: only reachable by dropping the
            // pending events (a live monitor chain keeps the heap busy).
            ("job stalled", 0..0, &[], |f| {
                f.sim = Simulator::new();
                f.run_to_quiescence();
            }),
        ]
    }

    /// A fleet under a 0.30 bid over a 400-hour trace that is cheap (0.20)
    /// except out-bid (0.50) during `storm`, with one retry and a gate that
    /// pauses on the first failed outcome — so every abort is followed by
    /// `AdmissionPaused`, a `Retried` arrival, its `Rejected` bounce off the
    /// paused gate and the `DeadLettered` close-out.
    fn strict_fleet(storm: std::ops::Range<usize>, faults: &[f64]) -> Fleet {
        let prices = (0..400)
            .map(|t| if storm.contains(&t) { 0.50 } else { 0.20 })
            .collect();
        let events = faults.iter().map(|&at_hours| FaultEvent {
            at_hours,
            kind: FaultKind::TaskFailure,
            salt: 0,
        });
        let config = FleetConfig {
            spot_market: Some(SpotMarket::new(
                SpotTrace::from_prices(TraceKind::AwsLike, prices),
                0.34,
            )),
            spot_bid: Some(0.30),
            policy: FailurePolicy {
                fault_plan: Some(FaultPlan {
                    events: events.collect(),
                }),
                retry: Some(RetryPolicy {
                    max_retries: 1,
                    ..RetryPolicy::default()
                }),
                failure_threshold: Some(FailureThreshold {
                    window: 2,
                    min_samples: 1,
                    ..FailureThreshold::default()
                }),
                circuit_breaker: None,
            },
            ..FleetConfig::default()
        };
        fleet_with(100, config)
    }

    /// Asserts that every reader of the tenant lifecycle — `status`, the
    /// rebalancer's candidate list, and what a (second) `cancel` or
    /// `migrate_out` is willing to do — sees tenant 0 in `expected`.
    fn assert_lifecycle_agrees(f: &mut Fleet, expected: TenantState, step: &str) {
        let id = TenantId(0);
        assert_eq!(f.status(id).unwrap().state, expected, "{step}");
        let queued = expected == TenantState::Queued;
        assert_eq!(f.queued_candidates().contains(&0), queued, "{step}");
        // Queued tenants can do either (and it would change them); running
        // ones cannot migrate; nothing else can do anything.
        if !queued {
            assert!(f.migrate_out(id).is_err(), "{step}");
        }
        if !queued && expected != TenantState::Running {
            assert!(!f.cancel(id).unwrap(), "{step}");
            assert_eq!(f.status(id).unwrap().state, expected, "{step}");
        }
    }

    /// Walks tenant 0 from submission (arriving at `arrival`) through
    /// `finish` to `end`, checking the lifecycle readers at every step.
    fn walk(what: &str, mut f: Fleet, arrival: f64, finish: Finish, end: TenantState) -> Fleet {
        f.submit(small_request("walker", arrival, 6.0)).unwrap();
        assert_lifecycle_agrees(&mut f, TenantState::Queued, what);
        f.step_until(0.5);
        let arrived = if arrival < 0.5 {
            TenantState::Running
        } else {
            TenantState::Queued
        };
        assert_lifecycle_agrees(&mut f, arrived, what);
        finish(&mut f);
        assert_lifecycle_agrees(&mut f, end, what);
        f
    }

    #[test]
    fn every_lifecycle_reader_agrees_at_every_state() {
        use TenantState::{Cancelled, Completed, Failed, Rejected};
        walk(
            "completes",
            fleet(200),
            0.0,
            Fleet::run_to_quiescence,
            Completed,
        );
        let cancel: Finish = |f| assert!(f.cancel(TenantId(0)).unwrap());
        walk("cancelled mid-run", fleet(200), 0.0, cancel, Cancelled);
        walk(
            "cancelled before arrival",
            fleet(200),
            5.0,
            cancel,
            Cancelled,
        );
        let migrate: Finish = |f| assert!(f.migrate_out(TenantId(0)).is_ok());
        walk("migrated out", fleet(200), 5.0, migrate, Cancelled);
        // Too few nodes for the deadline: refused at arrival.
        walk(
            "rejected",
            fleet(1),
            5.0,
            Fleet::run_to_quiescence,
            Rejected,
        );
        for (reason, storm, faults, finish) in abort_causes() {
            walk(reason, strict_fleet(storm, faults), 0.0, finish, Failed);
        }
    }

    #[test]
    fn every_abort_cause_takes_the_same_failure_path() {
        fn kind(event: &FleetEvent) -> String {
            let debug = format!("{event:?}");
            debug.split([' ', '{']).next().unwrap().to_string()
        }
        let mut paths = Vec::new();
        for (reason, storm, faults, finish) in abort_causes() {
            let f = walk(
                reason,
                strict_fleet(storm, faults),
                0.0,
                finish,
                TenantState::Failed,
            );
            let failure = f.state.outcomes[0].failure.as_deref().unwrap();
            assert!(failure.starts_with(reason), "{reason}: {failure}");
            // The dead job's process is gone; its admission record stays.
            assert!(f.active.is_empty(), "{reason}");
            assert_eq!(f.state.tenant_pids.get(&0), Some(&ProcessId(0)), "{reason}");
            let kinds: Vec<String> = f.events().iter().map(kind).collect();
            let failed_at = kinds.iter().position(|k| k == "Failed").expect(reason);
            paths.push(kinds[failed_at..].to_vec());
        }
        let expected = [
            "Failed",
            "DeadlineMissed",
            "AdmissionPaused",
            "Retried",
            "Rejected",
            "DeadLettered",
        ];
        assert!(paths.iter().all(|path| *path == expected), "{paths:#?}");
    }
}
