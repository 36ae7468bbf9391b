//! Persistence: checkpoint a paused session, restore it, or rebuild it by
//! replaying its event log. A snapshot embeds the session's plain-data
//! state verbatim and is cross-checked on the way in: a tampered one is an
//! `Err`, never a panic at the next step.

use super::admission::{AdmissionControl, AdmissionSnapshot};
use super::event::FleetEvent;
use super::request::FleetConfig;
use super::session::{ActiveJob, ClockEvent, JobInfo, SessionState};
use super::Fleet;
use crate::error::ConductorError;
use crate::resources::ResourcePool;
use conductor_cloud::Catalog;
use conductor_mapreduce::ExecutionSnapshot;
use conductor_sim::{ProcessId, ScheduledEvent, Simulator};
use serde::{Deserialize, Serialize};

impl Fleet {
    // ---- checkpoint / restore / replay ----------------------------------

    /// A complete serializable image of the paused session: logical clock,
    /// the pending event heap verbatim, every tenant's execution state,
    /// billing, policy state (gate, breaker, dead letters), the admission
    /// plan cache, the event log, and the exact solver-context bytes —
    /// everything [`restore`](Self::restore) needs to continue bit for
    /// bit. Session inputs (catalog, pool, config; `restore` takes them as
    /// arguments) and observers (processes, not data) are *not* captured.
    ///
    /// Checkpoints are meaningful at event-batch boundaries, which is
    /// everywhere the public API can observe: every call returns with the
    /// current batch fully applied.
    pub fn checkpoint(&self) -> FleetSnapshot {
        FleetSnapshot {
            clock_hours: self.sim.now(),
            next_seq: self.sim.next_seq(),
            heap: self
                .sim
                .snapshot_entries()
                .into_iter()
                .map(|e| (e.at, e.class, e.seq, e.event))
                .collect(),
            active: self
                .active
                .iter()
                .map(|(pid, job)| (*pid, job.exec.snapshot(), job.info.clone()))
                .collect(),
            state: self.state.clone(),
            admission: self.admission.export(),
        }
    }

    /// Reopens a checkpointed session. The catalog, pool and config must
    /// be the ones the session was opened with — they are inputs, not
    /// state — and the snapshot supplies everything else: the restored
    /// fleet continues *bit for bit* where the checkpointed one stood
    /// (same events, same floats, same report). `plan_cache` is the one
    /// config field that may differ from the session's: with it off, the
    /// restored fleet decides the next admission by a fresh solve from the
    /// same fleet state.
    ///
    /// Construction-time schedules (revocation sweeps, fault events) are
    /// deliberately *not* re-derived here: the pending instances live in
    /// the snapshot's heap, and the already-fired ones must not fire
    /// again. Observers are not restored (re-register after restoring).
    ///
    /// Fails with [`ConductorError::InvalidInput`] on an invalid pool or
    /// config, on a snapshot with non-finite floats (a NaN must never reach
    /// the event heap) or dangling indices, or on corrupt solver-context
    /// blobs.
    pub fn restore(
        catalog: Catalog,
        pool: ResourcePool,
        config: FleetConfig,
        snapshot: &FleetSnapshot,
    ) -> Result<Self, ConductorError> {
        pool.validate().map_err(ConductorError::InvalidInput)?;
        config.validate()?;
        snapshot.validate()?;
        let admission = AdmissionControl::import(&snapshot.admission)?;
        let entries: Vec<ScheduledEvent<ClockEvent>> = snapshot
            .heap
            .iter()
            .map(|&(at, class, seq, event)| ScheduledEvent {
                at,
                class,
                seq,
                event,
            })
            .collect();
        let active = snapshot
            .active
            .iter()
            .map(|(pid, exec, info)| {
                let job = ActiveJob {
                    exec: exec.restore(),
                    info: info.clone(),
                };
                (*pid, job)
            })
            .collect();
        Ok(Self {
            catalog,
            pool,
            config,
            sim: Simulator::restore(snapshot.clock_hours, entries, snapshot.next_seq),
            active,
            state: snapshot.state.clone(),
            admission,
            observers: Vec::new(),
            wal: None,
            wal_error: None,
            follow_ups: Vec::new(),
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
        while fleet.state.events.len() < log.len() {
            let pos = fleet.state.events.len();
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
                    if !fleet.step_one_batch() && !fleet.abort_stalled_jobs() {
                        return Err(ConductorError::InvalidInput(format!(
                            "replay diverged at log position {pos}: log expects \
                             {expected:?} but the session is quiescent"
                        )));
                    }
                }
            }
            let upto = fleet.state.events.len().min(log.len());
            for (k, expected) in log.iter().enumerate().take(upto).skip(pos) {
                if fleet.state.events[k] != *expected {
                    return Err(ConductorError::InvalidInput(format!(
                        "replay diverged at log position {k}: log has {expected:?}, \
                         session produced {:?}",
                        fleet.state.events[k]
                    )));
                }
            }
        }
        Ok(fleet)
    }
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
    /// The pending heap verbatim: `(hour, class, insertion seq, event)`.
    heap: Vec<(f64, u8, u64, ClockEvent)>,
    /// Each live job: process id, execution image, record.
    active: Vec<(ProcessId, ExecutionSnapshot, JobInfo)>,
    state: SessionState,
    admission: AdmissionSnapshot,
}

impl FleetSnapshot {
    /// Serializes the snapshot to a JSON string. The codec is exact up to
    /// the sign of zero: floats render shortest-round-trip and u64s beyond
    /// 2^53 go through strings, so `from_json(to_json(s))` reproduces `s`
    /// bit for bit, except that a `-0.0` is written `0` and reads back as
    /// `+0.0` (kept so the bytes stay those every earlier snapshot and pin
    /// was written with). `to_json(from_json(t)) == t` for any `t` this
    /// method wrote.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fleet snapshot serializes")
    }

    /// Deserializes a snapshot from [`to_json`](Self::to_json) output.
    ///
    /// Fails with [`ConductorError::InvalidInput`] on malformed JSON, on
    /// non-finite floats in positions that feed the event heap or the
    /// fleet clock (the guard [`Fleet::submit`] applies at the front door)
    /// and on indices or process ids that do not resolve: a tampered
    /// checkpoint is refused here, not at the step that trips over it.
    pub fn from_json(text: &str) -> Result<Self, ConductorError> {
        let snapshot: FleetSnapshot = serde_json::from_str(text)
            .map_err(|e| ConductorError::InvalidInput(format!("fleet snapshot JSON: {e}")))?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Shared by [`Self::from_json`] and [`Fleet::restore`]: every float
    /// that feeds the clock or the heap is finite, and every index and
    /// process id the session will dereference exists.
    fn validate(&self) -> Result<(), ConductorError> {
        let state = &self.state;
        let corrupt = |what: String| {
            Err(ConductorError::InvalidInput(format!(
                "fleet snapshot: {what}"
            )))
        };
        let finite = |name: &str, v: f64| {
            if v.is_finite() {
                Ok(())
            } else {
                corrupt(format!("non-finite {name} {v}"))
            }
        };
        let tenants = state.outcomes.len();
        let tenant = |name: &str, idx: usize| {
            if idx < tenants {
                Ok(())
            } else {
                corrupt(format!("{name} {idx} out of range ({tenants} submissions)"))
            }
        };
        let process = |name: &str, pid: ProcessId| {
            if pid.0 < state.registry.len() {
                Ok(())
            } else {
                corrupt(format!("{name} {pid} was never registered"))
            }
        };
        if state.requests.len() != tenants {
            return corrupt(format!(
                "{} requests for {tenants} outcomes",
                state.requests.len()
            ));
        }
        finite("clock hour", self.clock_hours)?;
        finite("last batch hour", state.last_hour)?;
        finite("stepped-to hour", state.stepped_to)?;
        for hour in state.monitor_next.iter().chain(&state.monitor_anchor) {
            finite("monitor grid hour", *hour)?;
        }
        let mut arrivals_pending = 0;
        for &(at, _, _, event) in &self.heap {
            finite("heap event hour", at)?;
            match event {
                ClockEvent::Arrival(i) => {
                    tenant("heap arrival", i)?;
                    arrivals_pending += usize::from(!state.cancelled.contains(&i));
                }
                ClockEvent::Job(pid) => process("heap wakeup for", pid)?,
                _ => {}
            }
        }
        if arrivals_pending != state.arrivals_pending {
            return corrupt(format!(
                "{} arrivals pending but {arrivals_pending} on the heap",
                state.arrivals_pending
            ));
        }
        for (&idx, &pid) in &state.tenant_pids {
            tenant("admitted tenant", idx)?;
            process("admitted tenant's", pid)?;
        }
        if let Some(&idx) = state.cancelled.iter().next_back() {
            tenant("cancelled tenant", idx)?;
        }
        for request in &state.requests {
            finite("request arrival hour", request.arrival_hours)?;
            if let Some(bid) = request.spot_bid {
                finite("request spot bid", bid)?;
            }
        }
        for (pid, _, job) in &self.active {
            finite("job start hour", job.start)?;
            tenant("running job's tenant", job.request_idx)?;
            process("running job", *pid)?;
        }
        Ok(())
    }
}
