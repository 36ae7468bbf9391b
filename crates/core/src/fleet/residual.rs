//! The residual-capacity index: what the running jobs leave of the pool.
//! [`ResidualIndex::residual_at`] is the only entry point; a debug build
//! cross-checks every answer against the full resample ([`recompute`]).

use super::session::ActiveJob;
use crate::resources::ResourcePool;
use conductor_mapreduce::cluster::nodes_at;
use conductor_sim::{ProcessId, TIME_EPSILON};
use std::collections::BTreeMap;

/// Cached, query-ready view of one active job's node schedule: every step
/// offset (for sample-point harvesting) plus the steps grouped per
/// instance type and stable-sorted by time. The stable sort keeps
/// schedule order among exactly-equal `from_hour`s, which is the element
/// `nodes_at`'s `max_by` would return — so a sweep over these lists
/// reproduces the full rescan bit for bit.
struct JobScheduleView {
    /// `JobExecution::schedule_epoch` the view was built at; a mismatch
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
            start: job.info.start,
            offsets,
            by_type,
        }
    }
}

/// Incrementally maintained index over the active jobs' node commitments.
/// Admission, re-planning, completion, revocation and cancellation each
/// either change the `active` key set or bump a job's schedule epoch, so
/// [`Self::sync`] catches every mutation without the event sites knowing
/// the index exists.
#[derive(Default)]
pub(super) struct ResidualIndex {
    jobs: BTreeMap<ProcessId, JobScheduleView>,
}

impl ResidualIndex {
    /// What `active`'s future node commitments (bar `exclude`'s) leave of
    /// `base` at fleet hour `at`.
    pub(super) fn residual_at(
        &mut self,
        base: &ResourcePool,
        active: &BTreeMap<ProcessId, ActiveJob>,
        at: f64,
        exclude: Option<ProcessId>,
    ) -> ResourcePool {
        self.sync(active);
        let pool = self.residual(base, at, exclude);
        debug_assert_eq!(
            pool.compute.iter().map(|c| c.max_nodes).collect::<Vec<_>>(),
            recompute(base, active, at, exclude)
                .compute
                .iter()
                .map(|c| c.max_nodes)
                .collect::<Vec<_>>(),
            "incremental residual index diverged from full recompute at t={at}"
        );
        pool
    }

    /// Brings the cache in line with the live job table: drops entries for
    /// departed processes, (re)builds entries whose schedule epoch moved.
    fn sync(&mut self, active: &BTreeMap<ProcessId, ActiveJob>) {
        self.jobs.retain(|pid, _| active.contains_key(pid));
        for (pid, job) in active {
            let fresh = self
                .jobs
                .get(pid)
                .is_some_and(|v| v.epoch == job.exec.schedule_epoch() && v.start == job.info.start);
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

/// The original full resample: clone the pool, collect every sample
/// point, and re-evaluate every job's schedule at each one. Retained
/// as the debug-build cross-check oracle for the incremental index.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
fn recompute(
    base: &ResourcePool,
    active: &BTreeMap<ProcessId, ActiveJob>,
    at: f64,
    exclude: Option<ProcessId>,
) -> ResourcePool {
    let mut pool = base.clone();
    // Sample the fleet commitment at `at` and at every future schedule
    // step of any running job; the peak over those samples is what a
    // new plan can never have.
    let mut sample_points: Vec<f64> = vec![at];
    for (pid, job) in active {
        if Some(*pid) == exclude {
            continue;
        }
        for step in job.exec.node_schedule() {
            let abs = job.info.start + step.from_hour;
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
            for (pid, job) in active {
                if Some(*pid) == exclude {
                    continue;
                }
                committed += nodes_at(job.exec.node_schedule(), &c.name, p - job.info.start);
            }
            peak = peak.max(committed);
        }
        c.max_nodes = Some(cap.saturating_sub(peak));
    }
    pool
}
