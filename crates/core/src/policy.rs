//! The failure-policy layer: what the fleet *does* about failure.
//!
//! Conductor's pitch is surviving a hostile cloud — spot revocations,
//! stragglers, mispredicted throughput — yet a tenant that fails or
//! misses its deadline would otherwise just land in an outcome bucket.
//! [`FailurePolicy`] turns those terminal events into policy decisions,
//! all of them on the deterministic event loop (no wall clock, no
//! entropy at run time), so a policied fleet replays bit for bit:
//!
//! - [`FaultPlan`] — seeded, pre-materialized fault injection (task
//!   failures and node crashes on the shared sim clock), so there is
//!   something to be robust *against*, reproducibly.
//! - [`RetryPolicy`] — per-tenant retry with exponential backoff and a
//!   jitter-free deterministic delay: a failed (or, optionally, late)
//!   tenant is re-submitted as a fresh arrival against the residual
//!   capacity of the retry hour.
//! - Dead-lettering — a tenant that exhausts its retry budget lands in
//!   the fleet's [dead-letter queue](crate::fleet::Fleet::dead_letters)
//!   as a [`DeadLetter`] record instead of silently vanishing.
//! - [`FailureThreshold`] / [`FailureWindow`] — fleet-level admission
//!   control: when more than `pause_above` of the last `window`
//!   terminal outcomes are failures, new arrivals are refused until the
//!   fraction sinks below `resume_below` (hysteresis, so the gate does
//!   not flap).
//! - [`CircuitBreakerConfig`] / [`SpotBreaker`] — a circuit breaker on
//!   the spot market: after `strike_threshold` revocation strikes
//!   within `window_hours`, planning stops acquiring spot (every remote
//!   hour is forecast at the on-demand ceiling) until the trace shows
//!   `success_threshold_hours` clean hours; the
//!   [`FallbackTier::OnDemand`] fallback pays the ceiling to keep the
//!   deadline instead of waiting out the market.
//!
//! The config shape (per-item failure action + breaker thresholds)
//! follows the `error_policy` blocks of production orchestrators; the
//! state machines live here, the wiring lives in [`crate::fleet`].

use crate::error::ConductorError;
use crate::fleet::TenantId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What a single injected fault does to its victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The victim's execution is aborted outright (a lost coordinator, a
    /// poisoned work queue): the tenant fails at the fault hour and its
    /// partial bill stays on the fleet bill. Retry policy decides what
    /// happens next.
    TaskFailure,
    /// The victim's cloud nodes are terminated (a correlated hardware or
    /// AZ failure, indistinguishable on the victim's side from a spot
    /// revocation): the execution reconciles, the monitor re-plans.
    NodeCrash,
}

/// One scheduled fault on the fleet clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Fleet-clock hour the fault fires.
    pub at_hours: f64,
    /// What it does.
    pub kind: FaultKind,
    /// Deterministic victim-selection salt: the victim is the running
    /// job at index `salt % active_jobs` (in process-id order) when the
    /// fault fires. Pre-drawn at plan construction so run-time victim
    /// choice costs no entropy.
    pub salt: u64,
}

/// A seeded, pre-materialized schedule of fault injections.
///
/// Like the revocation sweeps, the whole plan is drawn up front from one
/// seed and becomes first-class events on the shared clock — two fleets
/// built from the same seed inject byte-identical fault sequences.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, sorted by `(at_hours, salt)`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Draws `task_failures` task-failure and `node_crashes` node-crash
    /// events uniformly over `[0, horizon_hours)` from `seed`, sorted by
    /// time (ties broken by the pre-drawn salt, never by map iteration
    /// order). A non-positive horizon yields an empty plan.
    pub fn seeded(
        seed: u64,
        horizon_hours: f64,
        task_failures: usize,
        node_crashes: usize,
    ) -> Self {
        if !horizon_hours.is_finite() || horizon_hours <= 0.0 {
            return Self::default();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(task_failures + node_crashes);
        for _ in 0..task_failures {
            events.push(FaultEvent {
                at_hours: rng.gen_range(0.0..horizon_hours),
                kind: FaultKind::TaskFailure,
                salt: rng.gen(),
            });
        }
        for _ in 0..node_crashes {
            events.push(FaultEvent {
                at_hours: rng.gen_range(0.0..horizon_hours),
                kind: FaultKind::NodeCrash,
                salt: rng.gen(),
            });
        }
        events.sort_by(|a, b| {
            a.at_hours
                .total_cmp(&b.at_hours)
                .then_with(|| a.salt.cmp(&b.salt))
        });
        Self { events }
    }

    /// Checks the plan's event times once, so a NaN hour can never reach
    /// the event heap.
    pub fn validate(&self) -> Result<(), ConductorError> {
        for e in &self.events {
            if !e.at_hours.is_finite() || e.at_hours < 0.0 {
                return Err(ConductorError::InvalidInput(format!(
                    "fault plan contains invalid hour {}",
                    e.at_hours
                )));
            }
        }
        Ok(())
    }
}

/// Per-tenant retry with exponential backoff and deterministic,
/// jitter-free delays (jitter decorrelates real clients; a simulated
/// fleet wants reproducibility, and the shared clock already serializes
/// the re-arrivals).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retry attempts granted beyond the original run. `0` sends every
    /// failure straight to the dead-letter queue.
    pub max_retries: usize,
    /// Delay before the first retry, in fleet hours.
    pub backoff_base_hours: f64,
    /// Multiplier applied per further attempt
    /// (`delay(n) = base * factor^(n-1)`). Must be ≥ 1.
    pub backoff_factor: f64,
    /// Whether a job that *completed* but missed its deadline is retried
    /// too (a fresh attempt may hit a calmer market). Exhausting the
    /// budget on late completions does not dead-letter — the work did
    /// finish.
    pub retry_deadline_missed: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base_hours: 0.5,
            backoff_factor: 2.0,
            retry_deadline_missed: true,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff delay before retry `attempt` (1-based):
    /// `base * factor^(attempt-1)`.
    pub(crate) fn delay_hours(&self, attempt: usize) -> f64 {
        self.backoff_base_hours * self.backoff_factor.powi(attempt.saturating_sub(1) as i32)
    }

    /// Checks the knobs once at fleet construction.
    pub fn validate(&self) -> Result<(), ConductorError> {
        if !self.backoff_base_hours.is_finite() || self.backoff_base_hours < 0.0 {
            return Err(ConductorError::InvalidInput(format!(
                "retry backoff base must be finite and non-negative, got {}",
                self.backoff_base_hours
            )));
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(ConductorError::InvalidInput(format!(
                "retry backoff factor must be finite and at least 1, got {}",
                self.backoff_factor
            )));
        }
        Ok(())
    }
}

/// A tenant that exhausted its retry budget: the fleet's dead-letter
/// queue entry, queryable via [`crate::fleet::Fleet::dead_letters`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadLetter {
    /// The final (dead-lettered) attempt's tenant handle.
    pub tenant: TenantId,
    /// The root submission the attempts descend from.
    pub original: TenantId,
    /// Tenant name, for reports.
    pub tenant_name: String,
    /// Attempts consumed, including the original run.
    pub attempts: usize,
    /// Fleet-clock hour the budget ran out.
    pub at_hours: f64,
    /// The final attempt's failure (or rejection) reason.
    pub reason: String,
}

/// Fleet-level admission control over the recent failure rate, with
/// hysteresis so the gate does not flap at the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureThreshold {
    /// Number of most-recent terminal outcomes considered.
    pub window: usize,
    /// Admission pauses when the failure fraction rises strictly above
    /// this.
    pub pause_above: f64,
    /// Admission resumes when the fraction sinks strictly below this
    /// (must be ≤ `pause_above`).
    pub resume_below: f64,
    /// Outcomes required before the gate may act at all (a single early
    /// failure is 100% of a tiny sample).
    pub min_samples: usize,
}

impl Default for FailureThreshold {
    fn default() -> Self {
        Self {
            window: 20,
            pause_above: 0.5,
            resume_below: 0.25,
            min_samples: 5,
        }
    }
}

impl FailureThreshold {
    /// Checks the knobs once at fleet construction.
    pub fn validate(&self) -> Result<(), ConductorError> {
        if self.window == 0 {
            return Err(ConductorError::InvalidInput(
                "failure threshold window must hold at least one outcome".into(),
            ));
        }
        if !self.pause_above.is_finite() || !(0.0..=1.0).contains(&self.pause_above) {
            return Err(ConductorError::InvalidInput(format!(
                "failure threshold pause fraction must be within [0, 1], got {}",
                self.pause_above
            )));
        }
        if !self.resume_below.is_finite()
            || self.resume_below < 0.0
            || self.resume_below > self.pause_above
        {
            return Err(ConductorError::InvalidInput(format!(
                "failure threshold resume fraction must be within [0, pause_above], got {}",
                self.resume_below
            )));
        }
        if self.min_samples == 0 || self.min_samples > self.window {
            return Err(ConductorError::InvalidInput(format!(
                "failure threshold min_samples must be within [1, window], got {}",
                self.min_samples
            )));
        }
        Ok(())
    }
}

/// The admission gate's edge transitions, as reported by
/// [`FailureWindow::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmissionChange {
    /// The failure fraction crossed above `pause_above`: stop admitting.
    Paused,
    /// The fraction sank below `resume_below`: admit again.
    Resumed,
}

/// Runtime state of the [`FailureThreshold`] gate: a sliding window of
/// the last-N terminal outcomes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FailureWindow {
    config: FailureThreshold,
    samples: VecDeque<bool>,
    paused: bool,
}

impl FailureWindow {
    /// An empty (admitting) window under `config`.
    pub(crate) fn new(config: FailureThreshold) -> Self {
        Self {
            config,
            samples: VecDeque::with_capacity(config.window),
            paused: false,
        }
    }

    /// Records one terminal outcome (`failed = true` for failures and
    /// missed deadlines) and returns the gate transition it caused, if
    /// any. Below `min_samples` the gate never acts.
    pub(crate) fn record(&mut self, failed: bool) -> Option<AdmissionChange> {
        self.samples.push_back(failed);
        while self.samples.len() > self.config.window {
            self.samples.pop_front();
        }
        if self.samples.len() < self.config.min_samples {
            return None;
        }
        let fraction = self.failure_fraction();
        if !self.paused && fraction > self.config.pause_above {
            self.paused = true;
            return Some(AdmissionChange::Paused);
        }
        if self.paused && fraction < self.config.resume_below {
            self.paused = false;
            return Some(AdmissionChange::Resumed);
        }
        None
    }

    /// Fraction of failures in the current window (zero when empty).
    pub(crate) fn failure_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|&&f| f).count() as f64 / self.samples.len() as f64
    }

    /// `true` while the gate refuses new admissions.
    pub(crate) fn is_paused(&self) -> bool {
        self.paused
    }

    /// The gate's configuration.
    pub(crate) fn config(&self) -> &FailureThreshold {
        &self.config
    }
}

/// Where a tenant's capacity comes from while the spot breaker is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackTier {
    /// No fallback: admissions plan against ceiling-priced forecasts but
    /// still buy (ceiling-priced) spot — they wait the market out.
    None,
    /// Pay the on-demand ceiling for real: sessions admitted while the
    /// breaker is open are priced on-demand and are immune to
    /// revocation sweeps — the deadline is kept at the price of the
    /// spot discount.
    OnDemand,
}

/// Circuit breaker over the spot market's revocation behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircuitBreakerConfig {
    /// Revocation strikes within `window_hours` that trip the breaker.
    pub strike_threshold: usize,
    /// Width of the sliding strike window, in fleet hours.
    pub window_hours: f64,
    /// Consecutive clean (not out-bid) trace hours required before the
    /// breaker half-opens, and one more before it closes.
    pub success_threshold_hours: usize,
    /// What admissions buy while the breaker is open.
    pub fallback: FallbackTier,
}

impl Default for CircuitBreakerConfig {
    fn default() -> Self {
        Self {
            strike_threshold: 3,
            window_hours: 6.0,
            success_threshold_hours: 3,
            fallback: FallbackTier::OnDemand,
        }
    }
}

impl CircuitBreakerConfig {
    /// Checks the knobs once at fleet construction.
    pub fn validate(&self) -> Result<(), ConductorError> {
        if self.strike_threshold == 0 {
            return Err(ConductorError::InvalidInput(
                "breaker strike threshold must be at least 1".into(),
            ));
        }
        if !self.window_hours.is_finite() || self.window_hours <= 0.0 {
            return Err(ConductorError::InvalidInput(format!(
                "breaker window must be a finite positive number of hours, got {}",
                self.window_hours
            )));
        }
        if self.success_threshold_hours == 0 {
            return Err(ConductorError::InvalidInput(
                "breaker success threshold must be at least 1 clean hour".into(),
            ));
        }
        Ok(())
    }
}

/// The breaker's state, in the classic three-state scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Normal operation: spot acquired and forecast at trace prices.
    Closed,
    /// Tripped: planning prices every remote hour at the on-demand
    /// ceiling; with [`FallbackTier::OnDemand`], admissions buy
    /// on-demand outright.
    Open,
    /// Probation after `success_threshold_hours` clean hours: spot is
    /// acquired again; one more clean hour closes the breaker, one
    /// strike reopens it.
    HalfOpen,
}

/// An edge transition of the [`SpotBreaker`], as reported by
/// [`on_strike`](SpotBreaker::on_strike) /
/// [`on_probe`](SpotBreaker::on_probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerTransition {
    /// Closed → Open: the strike threshold was reached.
    Opened,
    /// Open → HalfOpen: the clean-hour streak reached the success
    /// threshold.
    HalfOpened,
    /// HalfOpen → Closed: the probation hour was clean too.
    Closed,
    /// HalfOpen → Open: a strike (or dirty probe) during probation.
    Reopened,
}

/// Runtime state machine of the spot-market circuit breaker.
///
/// Strikes come from revocation sweeps that out-bid at least one running
/// job; probes come from the fleet's hourly breaker-probe events, which
/// check the trace hour just elapsed. Everything is driven by the
/// deterministic event loop — the breaker holds no clock of its own.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SpotBreaker {
    config: CircuitBreakerConfig,
    state: BreakerState,
    /// Strike hours within the sliding window, oldest first.
    strikes: VecDeque<f64>,
    /// Consecutive clean probe hours while open.
    clean_streak: usize,
    /// Hour the breaker last opened, while it remains open.
    opened_at: Option<f64>,
    /// Open-state hours accumulated over closed episodes.
    open_hours_accum: f64,
}

impl SpotBreaker {
    /// A closed breaker under `config`.
    pub(crate) fn new(config: CircuitBreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            strikes: VecDeque::new(),
            clean_streak: 0,
            opened_at: None,
            open_hours_accum: 0.0,
        }
    }

    /// Current state.
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// The breaker's configuration.
    pub(crate) fn config(&self) -> &CircuitBreakerConfig {
        &self.config
    }

    /// `true` while planning must avoid the spot market (forecast at the
    /// ceiling, fallback tier engaged). Half-open probation buys spot
    /// again — that *is* the probe.
    pub(crate) fn is_engaged(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// Strikes currently inside the sliding window.
    pub(crate) fn strikes_in_window(&self) -> usize {
        self.strikes.len()
    }

    /// Records a revocation strike at fleet hour `hour` and returns the
    /// transition it caused, if any.
    pub(crate) fn on_strike(&mut self, hour: f64) -> Option<BreakerTransition> {
        self.strikes.push_back(hour);
        let cutoff = hour - self.config.window_hours;
        while self.strikes.front().is_some_and(|&h| h < cutoff) {
            self.strikes.pop_front();
        }
        match self.state {
            BreakerState::Closed => {
                if self.strikes.len() >= self.config.strike_threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(hour);
                    self.clean_streak = 0;
                    Some(BreakerTransition::Opened)
                } else {
                    None
                }
            }
            BreakerState::Open => {
                // The market is still hostile: restart the clean streak.
                self.clean_streak = 0;
                None
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = Some(hour);
                self.clean_streak = 0;
                Some(BreakerTransition::Reopened)
            }
        }
    }

    /// Records one hourly probe of the trace (`clean = true` when the
    /// elapsed hour was not out-bid at the fleet's bid) and returns the
    /// transition it caused, if any. Probes while closed are no-ops.
    pub(crate) fn on_probe(&mut self, hour: f64, clean: bool) -> Option<BreakerTransition> {
        match (self.state, clean) {
            (BreakerState::Closed, _) => None,
            (BreakerState::Open, true) => {
                self.clean_streak += 1;
                if self.clean_streak >= self.config.success_threshold_hours {
                    if let Some(opened) = self.opened_at.take() {
                        self.open_hours_accum += (hour - opened).max(0.0);
                    }
                    self.state = BreakerState::HalfOpen;
                    Some(BreakerTransition::HalfOpened)
                } else {
                    None
                }
            }
            (BreakerState::Open, false) => {
                self.clean_streak = 0;
                None
            }
            (BreakerState::HalfOpen, true) => {
                self.state = BreakerState::Closed;
                self.strikes.clear();
                self.clean_streak = 0;
                Some(BreakerTransition::Closed)
            }
            (BreakerState::HalfOpen, false) => {
                self.state = BreakerState::Open;
                self.opened_at = Some(hour);
                self.clean_streak = 0;
                Some(BreakerTransition::Reopened)
            }
        }
    }

    /// Total fleet hours spent in the open state, counting a still-open
    /// episode up to `now`.
    pub(crate) fn open_hours(&self, now: f64) -> f64 {
        self.open_hours_accum
            + self
                .opened_at
                .map(|opened| (now - opened).max(0.0))
                .unwrap_or(0.0)
    }
}

/// The fleet's failure policy: every sub-policy is opt-in, and the
/// default (`FailurePolicy::default()`) is completely inert — a fleet
/// without a policy behaves bit-for-bit as before.
#[derive(Debug, Clone, Default)]
pub struct FailurePolicy {
    /// Seeded fault injection schedule.
    pub fault_plan: Option<FaultPlan>,
    /// Per-tenant retry with backoff; failures dead-letter when the
    /// budget runs out.
    pub retry: Option<RetryPolicy>,
    /// Fleet-level admission gate over the recent failure rate.
    pub failure_threshold: Option<FailureThreshold>,
    /// Circuit breaker on the spot market.
    pub circuit_breaker: Option<CircuitBreakerConfig>,
}

impl FailurePolicy {
    /// Checks every enabled sub-policy once at fleet construction.
    pub fn validate(&self) -> Result<(), ConductorError> {
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        if let Some(retry) = &self.retry {
            retry.validate()?;
        }
        if let Some(threshold) = &self.failure_threshold {
            threshold.validate()?;
        }
        if let Some(breaker) = &self.circuit_breaker {
            breaker.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_are_deterministic_and_exponential() {
        let retry = RetryPolicy {
            max_retries: 3,
            backoff_base_hours: 0.5,
            backoff_factor: 2.0,
            retry_deadline_missed: true,
        };
        assert!((retry.delay_hours(1) - 0.5).abs() < 1e-12);
        assert!((retry.delay_hours(2) - 1.0).abs() < 1e-12);
        assert!((retry.delay_hours(3) - 2.0).abs() < 1e-12);
        // Attempt 0 (never issued) degrades to the base, not a panic.
        assert!((retry.delay_hours(0) - 0.5).abs() < 1e-12);
        // Factor 1 = constant delay.
        let flat = RetryPolicy {
            backoff_factor: 1.0,
            ..retry
        };
        assert!((flat.delay_hours(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fault_plans_are_seeded_sorted_and_bounded() {
        let a = FaultPlan::seeded(42, 12.0, 5, 3);
        let b = FaultPlan::seeded(42, 12.0, 5, 3);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::seeded(43, 12.0, 5, 3));
        assert_eq!(a.events.len(), 8);
        assert_eq!(
            a.events
                .iter()
                .filter(|e| e.kind == FaultKind::TaskFailure)
                .count(),
            5
        );
        for w in a.events.windows(2) {
            assert!(w[0].at_hours <= w[1].at_hours, "plan must be time-sorted");
        }
        for e in &a.events {
            assert!((0.0..12.0).contains(&e.at_hours));
        }
        assert!(a.validate().is_ok());
        // Degenerate horizons yield empty plans instead of panicking.
        assert!(FaultPlan::seeded(1, 0.0, 4, 4).events.is_empty());
        assert!(FaultPlan::seeded(1, f64::NAN, 4, 4).events.is_empty());
    }

    #[test]
    fn invalid_policy_knobs_are_rejected() {
        let bad_retry = RetryPolicy {
            backoff_base_hours: f64::NAN,
            ..RetryPolicy::default()
        };
        assert!(bad_retry.validate().is_err());
        let bad_factor = RetryPolicy {
            backoff_factor: 0.5,
            ..RetryPolicy::default()
        };
        assert!(bad_factor.validate().is_err());
        let bad_threshold = FailureThreshold {
            resume_below: 0.9,
            pause_above: 0.5,
            ..FailureThreshold::default()
        };
        assert!(bad_threshold.validate().is_err());
        let bad_samples = FailureThreshold {
            min_samples: 50,
            window: 20,
            ..FailureThreshold::default()
        };
        assert!(bad_samples.validate().is_err());
        let bad_breaker = CircuitBreakerConfig {
            window_hours: f64::INFINITY,
            ..CircuitBreakerConfig::default()
        };
        assert!(bad_breaker.validate().is_err());
        let bad_plan = FaultPlan {
            events: vec![FaultEvent {
                at_hours: f64::NAN,
                kind: FaultKind::TaskFailure,
                salt: 0,
            }],
        };
        let policy = FailurePolicy {
            fault_plan: Some(bad_plan),
            ..FailurePolicy::default()
        };
        assert!(policy.validate().is_err());
        assert!(FailurePolicy::default().validate().is_ok());
    }

    #[test]
    fn failure_window_pauses_and_resumes_with_hysteresis() {
        let mut gate = FailureWindow::new(FailureThreshold {
            window: 4,
            pause_above: 0.5,
            resume_below: 0.5,
            min_samples: 2,
        });
        // One early failure is 100% of one sample, but below min_samples
        // the gate must not act.
        assert_eq!(gate.record(true), None);
        assert!(!gate.is_paused());
        // 2/2 failed > 0.5: pause.
        assert_eq!(gate.record(true), Some(AdmissionChange::Paused));
        assert!(gate.is_paused());
        // 2/3 failed is still above the resume bound: no flap.
        assert_eq!(gate.record(false), None);
        assert!(gate.is_paused());
        // 2/4 failed is not *strictly below* 0.5 yet: still paused.
        assert_eq!(gate.record(false), None);
        // Window slides (oldest failure drops): 1/4 < 0.5 resumes.
        assert_eq!(gate.record(false), Some(AdmissionChange::Resumed));
        assert!(!gate.is_paused());
        assert!((gate.failure_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn breaker_opens_after_strikes_within_window_only() {
        let mut b = SpotBreaker::new(CircuitBreakerConfig {
            strike_threshold: 3,
            window_hours: 6.0,
            success_threshold_hours: 3,
            fallback: FallbackTier::OnDemand,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.on_strike(0.0), None);
        assert_eq!(b.on_strike(2.0), None);
        // The first strike has aged out of the 6-hour window by hour 8:
        // only two strikes remain, so the breaker stays closed.
        assert_eq!(b.on_strike(8.0), None);
        assert_eq!(b.state(), BreakerState::Closed);
        // A third strike inside the window trips it.
        assert_eq!(b.on_strike(9.0), None);
        assert_eq!(b.on_strike(10.0), Some(BreakerTransition::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.is_engaged());
    }

    #[test]
    fn breaker_walks_open_half_open_closed() {
        let mut b = SpotBreaker::new(CircuitBreakerConfig {
            strike_threshold: 1,
            window_hours: 4.0,
            success_threshold_hours: 2,
            fallback: FallbackTier::OnDemand,
        });
        assert_eq!(b.on_strike(1.0), Some(BreakerTransition::Opened));
        // A dirty probe restarts the clean streak.
        assert_eq!(b.on_probe(2.0, false), None);
        assert_eq!(b.on_probe(3.0, true), None);
        assert_eq!(b.on_probe(4.0, true), Some(BreakerTransition::HalfOpened));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.is_engaged(), "half-open probation buys spot again");
        // Clean probation hour: closed, strikes forgotten.
        assert_eq!(b.on_probe(5.0, true), Some(BreakerTransition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        // Open hours covered exactly the 1.0 → 4.0 episode.
        assert!((b.open_hours(10.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn breaker_reopens_on_probation_failure() {
        let mut b = SpotBreaker::new(CircuitBreakerConfig {
            strike_threshold: 1,
            window_hours: 4.0,
            success_threshold_hours: 1,
            fallback: FallbackTier::None,
        });
        assert_eq!(b.on_strike(0.0), Some(BreakerTransition::Opened));
        assert_eq!(b.on_probe(1.0, true), Some(BreakerTransition::HalfOpened));
        // A strike during probation reopens immediately.
        assert_eq!(b.on_strike(1.5), Some(BreakerTransition::Reopened));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.on_probe(2.5, true), Some(BreakerTransition::HalfOpened));
        // So does a dirty probe.
        assert_eq!(b.on_probe(3.5, false), Some(BreakerTransition::Reopened));
        // Accumulated open time: (1.0-0.0) + (2.5-1.5), episode reopened
        // at 3.5 still running at 5.0.
        assert!((b.open_hours(5.0) - 3.5).abs() < 1e-12);
    }
}
