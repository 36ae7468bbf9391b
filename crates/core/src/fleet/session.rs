//! The session state machine, as `impl Fleet` blocks: the fleet clock, the
//! event loop and its handlers, the monitor, and the failure policy's
//! runtime (gate, retry, dead-letter queue, circuit breaker).

use super::admission::Refused;
use super::event::FleetEvent;
use super::report::TenantOutcome;
use super::request::{FleetJobRequest, TenantId};
use super::Fleet;
use crate::goal::Goal;
use crate::plan::ExecutionPlan;
use crate::policy::{
    AdmissionChange, BreakerState, BreakerTransition, DeadLetter, FailureWindow, FaultKind,
    RetryPolicy, SpotBreaker,
};
use conductor_mapreduce::{JobExecution, JobPhase, JobSpec, NodeAllocation};
use conductor_sim::{ProcessId, ProcessRegistry, Simulator, TIME_EPSILON};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Hours between monitor ticks: the paper's planning interval, the hour
/// EC2 bills by (§4.8, §5.4).
pub(super) const MONITOR_PERIOD_HOURS: f64 = 1.0;

/// Safety margin subtracted from the remaining deadline when re-planning.
/// The model is deliberately optimistic (fluid upload/processing, no task
/// granularity), so a re-plan that exactly fills the remaining time
/// finishes its node ramp-down too early and leaves the real engine a long
/// single-node tail. Planning one interval short absorbs that optimism; it
/// mirrors how the paper's controller keeps monitoring after each re-plan
/// instead of trusting a single projection (§5.4). The monitor also leaves
/// a job alone once fewer than this margin plus one interval remain.
pub(super) const REPLAN_MARGIN_HOURS: f64 = 1.0;

/// Fractional inflation of the *remaining* work the monitor reports at
/// re-plan time (0.15 = plan for 15 % more work). Covers the node-hours the
/// task-granular engine loses to data starvation and interval-boundary
/// stragglers, which the fluid model cannot see.
pub(super) const MONITOR_CONSERVATISM: f64 = 0.15;

/// Events on the fleet clock (internal wakeups; the public, typed stream
/// is [`FleetEvent`]). Serializable because a
/// [`FleetSnapshot`](super::FleetSnapshot) carries the pending heap
/// verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(super) enum ClockEvent {
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

/// Puts `event` on the fleet clock in its ordering class. A free function,
/// so handlers can schedule while they hold a borrow of a running job.
pub(super) fn schedule(sim: &mut Simulator<ClockEvent>, at: f64, event: ClockEvent) {
    sim.schedule(at, event.class(), event);
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

/// One admitted, still-running job: its live execution process and the
/// record a snapshot carries verbatim.
pub(super) struct ActiveJob {
    pub(super) exec: JobExecution<'static>,
    pub(super) info: JobInfo,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct JobInfo {
    pub(super) request_idx: usize,
    pub(super) start: f64,
    pub(super) spec: JobSpec,
    pub(super) goal: Goal,
    /// The request's per-tenant bid override (`None` = the fleet bid), for
    /// revocation checks and re-plan forecasts.
    pub(super) tenant_bid: Option<f64>,
    /// `(fleet_hour, cumulative expected map GB)` checkpoints the monitor
    /// compares real progress against; rebuilt on every re-plan.
    pub(super) progress_model: Vec<(f64, f64)>,
    /// Set when a revocation killed nodes out from under this job; the
    /// next monitor tick re-plans it against the post-storm residual
    /// without waiting for the progress shortfall to accumulate.
    pub(super) storm_hit: bool,
    /// Set when the job was admitted on the breaker's on-demand fallback
    /// tier: its sessions are priced on-demand and revocation sweeps
    /// skip it.
    pub(super) fallback_on_demand: bool,
}

/// The plain-data half of a session (the rest is inputs and live
/// machinery). `Fleet` holds one and [`FleetSnapshot`](super::FleetSnapshot)
/// embeds one, so a field added here is checkpointed by construction.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(super) struct SessionState {
    pub(super) registry: ProcessRegistry,
    /// Submission `i`'s request (retries and migrations re-read it).
    pub(super) requests: Vec<FleetJobRequest>,
    pub(super) outcomes: Vec<TenantOutcome>,
    /// Submission index → execution process, once admitted.
    pub(super) tenant_pids: BTreeMap<usize, ProcessId>,
    pub(super) cancelled: BTreeSet<usize>,
    /// Submitted arrivals whose event has not fired yet.
    pub(super) arrivals_pending: usize,
    /// Earliest effective arrival ever submitted: the origin of the
    /// monitor-tick grid.
    pub(super) monitor_anchor: Option<f64>,
    /// Generation of the live tick chain; a popped tick from an older
    /// generation was superseded and is ignored.
    pub(super) monitor_gen: u64,
    /// Time of the currently scheduled tick, while the chain is live.
    pub(super) monitor_next: Option<f64>,
    /// `true` once any tick fired (the grid can no longer be re-anchored).
    pub(super) monitor_fired: bool,
    /// Trace hours with a scheduled revocation sweep (dedup across the
    /// fleet bid and per-tenant bids).
    pub(super) revocation_hours_scheduled: BTreeSet<usize>,
    /// Tenants that exhausted their retry budget, in dead-letter order.
    pub(super) dead_letters: Vec<DeadLetter>,
    /// Runtime state of the admission gate, when configured.
    pub(super) failure_window: Option<FailureWindow>,
    /// Runtime state of the spot-market circuit breaker, when configured
    /// alongside a market.
    pub(super) breaker: Option<SpotBreaker>,
    /// `true` while a breaker-probe chain is scheduled (one at a time).
    pub(super) probe_live: bool,
    /// Time of the last processed event batch (where stalled jobs are
    /// aborted when the heap drains).
    pub(super) last_hour: f64,
    /// The fleet's logical "now": the max of every processed event time
    /// and every `step_until` bound.
    pub(super) stepped_to: f64,
    pub(super) events: Vec<FleetEvent>,
}

/// The session as admission sees it. A macro, not a method: it borrows the
/// named fields only, so `fleet.admission` stays mutably borrowable.
macro_rules! env_of {
    ($fleet:expr) => {
        $crate::fleet::admission::Env {
            catalog: &$fleet.catalog,
            pool: &$fleet.pool,
            config: &$fleet.config,
            breaker: $fleet.state.breaker.as_ref(),
            active: &$fleet.active,
        }
    };
}

impl Fleet {
    /// Aborts every still-active job as stalled (nothing running, nothing
    /// scheduled), keeping its accrued spend on the fleet bill. This is
    /// the final-drain step of [`run_to_quiescence`](Self::run_to_quiescence),
    /// factored out so [`replay`](Self::replay) can reproduce a live
    /// session's stalled aborts when the log expects terminal events with
    /// an empty heap. Returns `true` when any job was aborted.
    pub(super) fn abort_stalled_jobs(&mut self) -> bool {
        let stalled: Vec<ProcessId> = self.active.keys().copied().collect();
        for &pid in &stalled {
            let reason = "job stalled: no further events pending".to_string();
            self.fail_job(pid, self.state.last_hour, reason);
        }
        !stalled.is_empty()
    }

    /// The one way a running job dies: aborts `pid` at fleet hour `at` (its
    /// accrued spend stays on the bill), announces `Failed` — and
    /// `DeadlineMissed` when the abort settles one — and hands the tenant
    /// to the failure policy.
    fn fail_job(&mut self, pid: ProcessId, at: f64, reason: String) {
        let job = self.active.remove(&pid).expect("failing job is active");
        let idx = job.info.request_idx;
        let report = job.exec.abort((at - job.info.start).max(0.0));
        let missed = report.met_deadline == Some(false);
        let o = &mut self.state.outcomes[idx];
        o.failure = Some(reason.clone());
        o.execution = Some(report);
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

    // ---- the event loop -------------------------------------------------

    /// Pops and processes the next batch of simultaneous events, if any.
    /// Returns `false` when the heap is empty. This is the finest public
    /// stepping granularity — exactly one event *batch* (all events within
    /// [`TIME_EPSILON`] of the earliest pending time), which is also the
    /// granularity at which [`checkpoint`](Self::checkpoint) boundaries
    /// are meaningful: a checkpoint taken between two batches resumes bit
    /// for bit, whereas no boundary exists inside a batch.
    pub fn step_one_batch(&mut self) -> bool {
        let mut batch = Vec::new();
        let Some(now) = self.sim.pop_due(&mut batch) else {
            return false;
        };
        let mut any_real = false;
        let mut woken: BTreeSet<ProcessId> = BTreeSet::new();
        for event in batch {
            match event {
                // A tick from a superseded chain: a no-event.
                ClockEvent::MonitorTick(gen) if gen != self.state.monitor_gen => continue,
                ClockEvent::Arrival(i) => self.handle_arrival(i, now),
                ClockEvent::Job(pid) => {
                    if woken.insert(pid) {
                        self.wake_job(pid, now);
                    }
                }
                ClockEvent::Revocation => self.handle_revocation(now),
                ClockEvent::Fault(i) => self.handle_fault(i, now),
                ClockEvent::BreakerProbe => self.handle_breaker_probe(now),
                ClockEvent::MonitorTick(_) => self.handle_monitor_tick(now),
            }
            any_real = true;
        }
        if any_real {
            self.state.last_hour = now;
            if now > self.state.stepped_to {
                self.state.stepped_to = now;
            }
        }
        true
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
            self.step_one_batch();
        }
        if hours > self.state.stepped_to {
            self.state.stepped_to = hours;
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
            while self.step_one_batch() {}
            self.abort_stalled_jobs();
            // Retries issued by the stalled aborts (or by nothing at all)
            // decide whether another round is needed.
            if self.sim.peek_time().is_none() {
                break;
            }
        }
    }

    /// Enters a submission: records its request and pending outcome and
    /// puts its arrival on the clock — clamped to the simulator's clock, as
    /// the one event scheduled from *outside* the simulation.
    pub(super) fn enqueue(&mut self, request: FleetJobRequest, pending: TenantOutcome) -> usize {
        let idx = self.state.outcomes.len();
        let arrival = pending.arrival_hours;
        self.state.outcomes.push(pending);
        self.state.requests.push(request);
        let at = arrival.max(self.sim.now());
        schedule(&mut self.sim, at, ClockEvent::Arrival(idx));
        self.state.arrivals_pending += 1;
        self.ensure_monitor_chain(arrival);
        idx
    }

    /// Starts — or revives — the monitor-tick chain for a submission with
    /// effective arrival `arrival`. Tick times live on the iterated grid
    /// anchored at the earliest arrival, which is what keeps the
    /// incremental driver's tick times bit-identical to the batch
    /// driver's `t += MONITOR_PERIOD_HOURS` chain.
    pub(super) fn ensure_monitor_chain(&mut self, arrival: f64) {
        let state = &mut self.state;
        let anchor = match state.monitor_anchor {
            // Until the first tick fires the grid can still be re-anchored
            // by an earlier arrival (matching the batch driver's
            // min-over-all-arrivals anchor).
            Some(a) if arrival >= a || state.monitor_fired => a,
            _ => arrival,
        };
        state.monitor_anchor = Some(anchor);
        let mut next = anchor + MONITOR_PERIOD_HOURS;
        if let Some(scheduled) = state.monitor_next {
            if state.monitor_fired || next + TIME_EPSILON >= scheduled {
                return; // the live chain already ticks soon enough
            }
        } else {
            // Iterate (never multiply) so revived chains reproduce the
            // batch driver's floating-point tick values exactly.
            while next <= state.stepped_to + TIME_EPSILON {
                next += MONITOR_PERIOD_HOURS;
            }
        }
        state.monitor_gen += 1;
        state.monitor_next = Some(next);
        schedule(
            &mut self.sim,
            next,
            ClockEvent::MonitorTick(state.monitor_gen),
        );
    }

    /// Delivers an event to the tailing WAL (when attached), the log and
    /// every observer. A WAL write failure detaches the log and records
    /// the error ([`wal_error`](Self::wal_error)); the session continues.
    pub(super) fn emit(&mut self, event: FleetEvent) {
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.log(&event) {
                self.wal_error = Some(e.to_string());
                self.wal = None;
            }
        }
        for obs in &mut self.observers {
            obs.on_event(&event);
        }
        self.state.events.push(event);
    }

    // ---- handlers -------------------------------------------------------

    /// Submission `i`'s arrival: plan against the residual capacity and
    /// register the execution process on success.
    fn handle_arrival(&mut self, i: usize, now: f64) {
        if self.state.cancelled.contains(&i) {
            // A pre-arrival cancel already removed this entry from
            // `arrivals_pending` and recorded the rejection; the phantom
            // event is a no-op.
            return;
        }
        self.state.arrivals_pending -= 1;
        // The admission gate: while the recent failure rate is above the
        // pause threshold, arrivals are refused outright (fail fast, no
        // planning). The refusals are not recorded in the window — only
        // execution outcomes move the gate.
        if let Some(window) = self.state.failure_window.as_ref().filter(|w| w.is_paused()) {
            let reason = format!(
                "admission paused: {:.0}% of the last {} terminal outcomes failed",
                window.failure_fraction() * 100.0,
                window.config().window
            );
            return self.reject(i, now, reason);
        }
        let request = &self.state.requests[i];
        let admitted = match self.admission.admit(&env_of!(self), request, now) {
            Ok(admitted) => admitted,
            Err(Refused(reason, planning)) => {
                self.state.outcomes[i].planning = planning.map(|report| *report);
                return self.reject(i, now, reason);
            }
        };
        let job = ActiveJob {
            info: JobInfo {
                request_idx: i,
                start: now,
                spec: request.spec.clone(),
                goal: request.goal,
                tenant_bid: request.spot_bid,
                progress_model: progress_checkpoints(now, 0.0, &admitted.plan),
                storm_hit: false,
                fallback_on_demand: admitted.fallback,
            },
            exec: admitted.exec,
        };
        let pid = self.state.registry.register();
        schedule_wakeups(&mut self.sim, pid, now, &job.exec.initial_events());
        self.state.tenant_pids.insert(i, pid);
        self.active.insert(pid, job);
        let planned = FleetEvent::Planned {
            tenant: TenantId(i),
            at_hours: now,
            expected_cost: admitted.plan.expected_cost,
            expected_completion_hours: admitted.plan.expected_completion_hours,
        };
        let outcome = &mut self.state.outcomes[i];
        outcome.admitted = true;
        outcome.plan = Some(admitted.plan);
        outcome.planning = Some(admitted.planning);
        self.emit(FleetEvent::Admitted {
            tenant: TenantId(i),
            at_hours: now,
            cache_key: admitted.cache_key,
        });
        self.emit(planned);
        if admitted.fallback {
            self.emit(FleetEvent::FallbackEngaged {
                tenant: TenantId(i),
                at_hours: now,
            });
        }
    }

    /// Refuses arrival `i`: records and announces the rejection, then hands
    /// the tenant to the failure policy.
    fn reject(&mut self, i: usize, now: f64, reason: String) {
        self.state.outcomes[i].rejection = Some(reason.clone());
        self.emit(FleetEvent::Rejected {
            tenant: TenantId(i),
            at_hours: now,
            reason,
        });
        self.on_terminal(i, now, TerminalKind::Rejected);
    }

    /// Advances one job's execution process at fleet hour `now`, handling
    /// completion, the max-hours cap and stuck detection.
    fn wake_job(&mut self, pid: ProcessId, now: f64) {
        let Some(job) = self.active.get_mut(&pid) else {
            return; // already finished, failed or cancelled
        };
        let rel = (now - job.info.start).max(0.0);
        if matches!(job.exec.phase(), JobPhase::Processing) && rel > job.exec.max_hours() {
            let reason = format!(
                "did not finish within {} simulated hours ({} tasks done)",
                job.exec.max_hours(),
                job.exec.completed_tasks()
            );
            return self.fail_job(pid, now, reason);
        }
        let extensions_before = job.exec.straggler_extensions();
        self.follow_ups.clear();
        job.exec.wakeup_into(rel, &mut self.follow_ups);
        schedule_wakeups(&mut self.sim, pid, job.info.start, &self.follow_ups);
        let idx = job.info.request_idx;
        let extended = job.exec.straggler_extensions() > extensions_before;
        let done = job.exec.is_done();
        let stuck = !done
            && matches!(job.exec.phase(), JobPhase::Processing)
            && job.exec.next_event_hours(rel).is_none();
        if extended {
            self.emit(FleetEvent::StragglerExtended {
                tenant: TenantId(idx),
                at_hours: now,
            });
        }
        if done {
            let job = self.active.remove(&pid).expect("job present");
            let report = job.exec.into_report();
            let finished_at = job.info.start + report.completion_hours;
            let met_deadline = report.met_deadline;
            let o = &mut self.state.outcomes[idx];
            o.finished_at_hours = Some(finished_at);
            o.execution = Some(report);
            self.emit(FleetEvent::Completed {
                tenant: TenantId(idx),
                at_hours: finished_at,
                met_deadline,
            });
            let kind = if met_deadline == Some(false) {
                self.emit(FleetEvent::DeadlineMissed {
                    tenant: TenantId(idx),
                    at_hours: finished_at,
                });
                TerminalKind::CompletedLate
            } else {
                TerminalKind::CompletedOnTime
            };
            self.on_terminal(idx, finished_at, kind);
        } else if stuck {
            let reason =
                format!("job stuck at hour {rel:.2}: nothing running and nothing scheduled");
            self.fail_job(pid, now, reason);
        }
    }

    /// A revocation sweep at fleet hour `now`: every running job whose
    /// effective bid the spot price exceeds loses its cloud nodes.
    fn handle_revocation(&mut self, now: f64) {
        let Some(market) = &self.config.spot_market else {
            return;
        };
        let hour = (now + TIME_EPSILON).floor().max(0.0) as usize;
        let fleet_bid = self.config.effective_bid(market);
        let mut emitted: Vec<FleetEvent> = Vec::new();
        let mut struck = false;
        for (pid, job) in self.active.iter_mut() {
            // Fallback-tier jobs bought on-demand capacity: the spot
            // market cannot touch them (that is what the ceiling buys).
            if job.info.fallback_on_demand {
                continue;
            }
            // Per-tenant bids: a sweep only strikes jobs actually out-bid
            // at this hour. With no per-tenant overrides this check is
            // vacuously true (sweeps are scheduled exactly at the fleet
            // bid's out-bid hours), preserving the batch driver bit for
            // bit.
            let bid = job.info.tenant_bid.unwrap_or(fleet_bid);
            if !market.out_bid_at(hour, bid) {
                continue;
            }
            // A breaker strike is "a sweep out-bid a live job", whether
            // or not any cloud nodes were up at that instant — the
            // market proved hostile to running work either way.
            struck = true;
            let rel = (now - job.info.start).max(0.0);
            let (killed, wakeups) = job.exec.kill_cloud_nodes(rel);
            if killed == 0 {
                continue;
            }
            job.info.storm_hit = true;
            self.state.outcomes[job.info.request_idx]
                .revoked_at_hours
                .push(now);
            emitted.push(FleetEvent::Revoked {
                tenant: TenantId(job.info.request_idx),
                at_hours: now,
                nodes_killed: killed,
            });
            schedule_wakeups(&mut self.sim, *pid, job.info.start, &wakeups);
            // Wake the victim immediately: it reconciles against the
            // out-bid market and schedules its own recovery-hour retry,
            // instead of sleeping on wakeups for tasks that no longer run.
            schedule(&mut self.sim, now, ClockEvent::Job(*pid));
        }
        for event in emitted {
            self.emit(event);
        }
        if struck {
            self.breaker_strike(now);
        }
    }

    /// Feeds one revocation strike to the circuit breaker; opening (or
    /// reopening) starts the hourly probe chain — at the next whole hour,
    /// one chain at a time — that will eventually walk it back to closed.
    fn breaker_strike(&mut self, now: f64) {
        let Some(breaker) = self.state.breaker.as_mut() else {
            return;
        };
        let transition = breaker.on_strike(now);
        if transition.is_some() && !self.state.probe_live {
            self.state.probe_live = true;
            let next = (now + TIME_EPSILON).floor() + 1.0;
            schedule(&mut self.sim, next, ClockEvent::BreakerProbe);
        }
        self.announce_breaker(transition, now);
    }

    /// Logs a breaker transition.
    fn announce_breaker(&mut self, transition: Option<BreakerTransition>, now: f64) {
        let strikes = self
            .state
            .breaker
            .as_ref()
            .map_or(0, |b| b.strikes_in_window());
        self.emit(match transition {
            Some(BreakerTransition::Opened | BreakerTransition::Reopened) => {
                FleetEvent::BreakerOpened {
                    at_hours: now,
                    strikes,
                }
            }
            Some(BreakerTransition::HalfOpened) => FleetEvent::BreakerHalfOpen { at_hours: now },
            Some(BreakerTransition::Closed) => FleetEvent::BreakerClosed { at_hours: now },
            None => return,
        });
    }

    /// An hourly breaker probe: checks whether the trace hour just
    /// elapsed was clean at the fleet bid, advances the breaker state
    /// machine, and keeps the chain alive while the breaker is not
    /// closed and the market can still recover.
    fn handle_breaker_probe(&mut self, now: f64) {
        self.state.probe_live = false;
        let (Some(market), Some(breaker)) = (&self.config.spot_market, &mut self.state.breaker)
        else {
            return;
        };
        let fleet_bid = self.config.effective_bid(market);
        let hour = (now + TIME_EPSILON).floor().max(0.0) as usize;
        let clean = hour > 0 && !market.out_bid_at(hour - 1, fleet_bid);
        let transition = breaker.on_probe(now, clean);
        // Past a trace that ends above the bid the market never
        // recovers: stop probing instead of chaining forever (the
        // breaker stays open for good, which is the right verdict).
        let recoverable = market.next_acceptance(hour, fleet_bid).is_some();
        if breaker.state() != BreakerState::Closed && recoverable {
            self.state.probe_live = true;
            schedule(&mut self.sim, (hour + 1) as f64, ClockEvent::BreakerProbe);
        }
        self.announce_breaker(transition, now);
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
        let (&pid, job) = self
            .active
            .iter_mut()
            .nth(victim)
            .expect("victim index within active set");
        let idx = job.info.request_idx;
        let nodes_killed = match event.kind {
            FaultKind::TaskFailure => 0,
            FaultKind::NodeCrash => {
                let rel = (now - job.info.start).max(0.0);
                let (killed, wakeups) = job.exec.kill_cloud_nodes(rel);
                job.info.storm_hit = true;
                schedule_wakeups(&mut self.sim, pid, job.info.start, &wakeups);
                // Wake the victim immediately, like a revocation: it
                // reconciles and schedules its own recovery.
                schedule(&mut self.sim, now, ClockEvent::Job(pid));
                killed
            }
        };
        self.emit(FleetEvent::FaultInjected {
            tenant: TenantId(idx),
            at_hours: now,
            kind: event.kind,
            nodes_killed,
            salt: event.salt,
        });
        if event.kind == FaultKind::TaskFailure {
            let reason = format!("injected fault: task failure at fleet hour {now:.2}");
            self.fail_job(pid, now, reason);
        }
    }

    /// A monitor tick: check every running job, then keep the chain alive
    /// while anything can still happen.
    fn handle_monitor_tick(&mut self, now: f64) {
        self.state.monitor_fired = true;
        self.monitor(now);
        self.state.monitor_next = None;
        if !self.active.is_empty() || self.state.arrivals_pending > 0 {
            let next = now + MONITOR_PERIOD_HOURS;
            self.state.monitor_next = Some(next);
            let tick = ClockEvent::MonitorTick(self.state.monitor_gen);
            schedule(&mut self.sim, next, tick);
        }
    }

    /// The periodic monitor: compares every running job's observed map
    /// progress against its plan's projection and re-plans laggards in
    /// place, splicing the updated node schedule into the live deployment.
    fn monitor(&mut self, now: f64) {
        let pids: Vec<ProcessId> = self.active.keys().copied().collect();
        for pid in pids {
            let job = self.active.get_mut(&pid).expect("active job present");
            if !matches!(job.exec.phase(), JobPhase::Processing) {
                continue;
            }
            let rel = now - job.info.start;
            if rel <= TIME_EPSILON {
                continue;
            }
            let Some(deadline) = job.exec.options().deadline_hours else {
                continue; // nothing to protect
            };
            let expected = expected_progress(&job.info.progress_model, now);
            let progress = job.exec.progress(rel);
            let on_track = expected <= 0.0
                || progress.map_done_gb + 1e-6 >= (1.0 - self.config.monitor_tolerance) * expected;
            // A storm-hit job re-plans even when its checkpoints still look
            // on track: the plan's future capacity just evaporated, and
            // waiting for the shortfall to show up wastes the hours the
            // deadline rescue needs.
            if on_track && !job.info.storm_hit {
                continue;
            }
            // Too late to act? Leave the schedule alone and let it ride.
            if deadline - rel <= REPLAN_MARGIN_HOURS + 1.0 {
                job.info.storm_hit = false;
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
            // The monitor has acted on the revocation: clear the flag.
            job.info.storm_hit = false;
            let updated =
                self.admission
                    .replan(&env_of!(self), pid, now, rel, &progress, observed_gbph);
            let Some(updated) = updated else {
                continue; // keep the current schedule; the next tick may retry
            };
            // Splice the re-plan into the live deployment at `rel`.
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
            schedule_wakeups(&mut self.sim, pid, job.info.start, &wakeups);
            // Wake the job at the splice point so an immediate scale-up at
            // `rel` takes effect without waiting for the next old event.
            schedule(&mut self.sim, now, ClockEvent::Job(pid));
            job.info.progress_model = progress_checkpoints(now, progress.map_done_gb, &updated);
            let idx = job.info.request_idx;
            self.state.outcomes[idx].replanned_at_hours.push(now);
            self.emit(FleetEvent::Replanned {
                tenant: TenantId(idx),
                at_hours: now,
            });
        }
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
        if let (Some(window), Some(failed)) = (self.state.failure_window.as_mut(), sample) {
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
        let request = &self.state.requests[idx];
        let Some(retry) = request.retry_override.or(self.config.policy.retry) else {
            return;
        };
        let o = &self.state.outcomes[idx];
        let (may_retry, dead_letter_reason) = match kind {
            TerminalKind::Failed => (true, o.failure.clone()),
            // A late completion may retry (a fresh attempt can hit a
            // calmer market), but exhausting the budget does not
            // dead-letter: the work did finish.
            TerminalKind::CompletedLate => (retry.retry_deadline_missed, None),
            // Original arrivals refused at admission are terminal
            // rejections (admission control is not a fault); a *retry*
            // that bounces keeps burning its budget so the chain always
            // ends in success, rejection-as-terminal or the dead-letter
            // queue — never in limbo.
            TerminalKind::Rejected if o.attempt > 0 => (true, o.rejection.clone()),
            TerminalKind::Rejected | TerminalKind::CompletedOnTime => (false, None),
        };
        if may_retry && o.attempt < retry.max_retries {
            self.schedule_retry(idx, now, retry);
        } else if let Some(reason) = dead_letter_reason {
            self.dead_letter(idx, now, reason);
        }
    }

    /// Re-submits tenant `idx`'s request as a fresh arrival after the
    /// deterministic backoff delay, as the next attempt of its root
    /// submission.
    fn schedule_retry(&mut self, idx: usize, now: f64, retry: RetryPolicy) {
        let attempt = self.state.outcomes[idx].attempt + 1;
        let root = self.state.outcomes[idx].retry_of.unwrap_or(idx);
        let arrival = now + retry.delay_hours(attempt);
        let request = self.state.requests[idx].clone();
        let mut pending = TenantOutcome::pending(request.tenant.clone(), arrival);
        pending.retry_of = Some(root);
        pending.attempt = attempt;
        // Any per-tenant-bid sweep hours were already scheduled by the
        // root submission (submit scans to the trace end), so the clone
        // only needs its arrival event.
        let new_idx = self.enqueue(request, pending);
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
        let o = &mut self.state.outcomes[idx];
        o.dead_lettered = true;
        let attempts = o.attempt + 1;
        let root = o.retry_of.unwrap_or(idx);
        self.state.dead_letters.push(DeadLetter {
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
}

/// Puts a job's wakeups (job-relative hours) on the fleet clock.
fn schedule_wakeups<E>(
    sim: &mut Simulator<ClockEvent>,
    pid: ProcessId,
    start: f64,
    wakeups: &[(f64, E)],
) {
    for &(t, _) in wakeups {
        schedule(sim, start + t, ClockEvent::Job(pid));
    }
}

/// `(fleet_hour, cumulative expected map GB)` checkpoints implied by a
/// plan starting at `start` with `done_gb` of the input already processed.
pub(super) fn progress_checkpoints(
    start: f64,
    done_gb: f64,
    plan: &ExecutionPlan,
) -> Vec<(f64, f64)> {
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
pub(super) fn expected_progress(checkpoints: &[(f64, f64)], now: f64) -> f64 {
    checkpoints
        .iter()
        .take_while(|(h, _)| *h <= now + TIME_EPSILON)
        .last()
        .map(|(_, gb)| *gb)
        .unwrap_or(0.0)
}
