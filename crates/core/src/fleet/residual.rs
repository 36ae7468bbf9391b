//! The residual capacity: what the running jobs leave of the pool.
//! [`residual_at`] resamples every active job's node schedule on each
//! call; at the fleet sizes the churn workloads run (a handful of jobs, a
//! few dozen schedule steps) that costs a few microseconds per query.

use super::session::ActiveJob;
use crate::resources::ResourcePool;
use conductor_mapreduce::nodes_at;
use conductor_sim::{ProcessId, TIME_EPSILON};
use std::collections::BTreeMap;

/// What `active`'s future node commitments (bar `exclude`'s: the job being
/// re-planned, whose schedule is about to be replaced) leave of `base` at
/// fleet hour `at`: per capped resource, the cap minus the peak committed
/// node count over `at` and every strictly-future step time.
pub(super) fn residual_at(
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
