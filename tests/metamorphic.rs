//! Metamorphic relations on the real planner: change an input in a way
//! whose effect on the answer is known, re-plan, and check the answer
//! moved that way. No oracle is needed, so the relations run on the
//! Figure 16 models the oracle battery is far too small to reach.
//!
//! Loosening the problem — one more interval before the deadline, or a
//! higher cap on rentable instances — only adds feasible plans. The cost
//! may still rise by the solver's gap tolerance (each solve stops once its
//! incumbent is within `relative_gap` of its bound), never by more,
//! provided both solves stopped on the gap and not on a limit.
//!
//! Scaling every price by k is not a relation the planner keeps: the
//! model's symmetry breakers (`1e-4·(t+1)` per rented node, `1e-6·(t+1)`
//! per uploaded GB) are fixed amounts, not prices, so their weight against
//! the prices changes with k and the branch & bound settles on a different
//! plan inside the gap.

use conductor_cloud::Catalog;
use conductor_core::{ExecutionPlan, Goal, Planner, ResourcePool};
use conductor_mapreduce::{JobSpec, Workload};

/// The six Figure-16 models: `(input GB, migration)`.
const FIG16_MODELS: [(u32, bool); 6] = [
    (32, false),
    (64, false),
    (128, false),
    (256, false),
    (128, true),
    (256, true),
];

/// The planner's default relative gap (`Planner::new`).
const PLANNER_GAP: f64 = 0.02;

/// Figure 16's pool: the AWS catalog with m1.large as the only compute.
fn m1_large_pool() -> ResourcePool {
    ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0).with_compute_only(&["m1.large"])
}

/// Figure 16's planner over `pool`: the interval coarsened to 2 h above
/// 32 GB, the planner's own solver options.
fn fig16_planner(pool: ResourcePool, input_gb: u32, migration: bool) -> Planner {
    let mut planner = Planner::new(pool).with_migration(migration);
    planner.interval_hours = if input_gb > 32 { 2.0 } else { 1.0 };
    planner
}

/// Figure 16's job and deadline: the scaled k-means workload, due at 1.3×
/// its upload time (at least 6 h).
fn fig16_job(input_gb: u32) -> (JobSpec, f64) {
    let spec = Workload::KMeansScaled { input_gb }.spec();
    let upload_hours = spec.input_gb / Catalog::aws_july_2011().uplink_gb_per_hour();
    (spec, (upload_hours * 1.3).ceil().max(6.0))
}

fn plan(planner: &Planner, spec: &JobSpec, deadline_hours: f64) -> ExecutionPlan {
    planner
        .plan(spec, Goal::MinimizeCost { deadline_hours })
        .expect("the Figure 16 models are feasible")
        .0
}

/// `loosened` solved the problem `base` solved with more plans allowed:
/// both must have stopped on the gap, and the cost may not rise past it.
fn assert_cost_never_rises(label: &str, base: &ExecutionPlan, loosened: &ExecutionPlan) {
    assert!(base.proven_optimal, "{label}: the base solve hit a limit");
    assert!(
        loosened.proven_optimal,
        "{label}: the loosened solve hit a limit"
    );
    assert!(
        loosened.expected_cost <= base.expected_cost * (1.0 + PLANNER_GAP),
        "{label}: cost rose from {} to {}",
        base.expected_cost,
        loosened.expected_cost
    );
}

/// One more interval before the deadline ⇒ the cost never rises past the
/// gap.
#[test]
fn a_later_deadline_never_costs_more_than_the_gap() {
    for (input_gb, migration) in FIG16_MODELS {
        let planner = fig16_planner(m1_large_pool(), input_gb, migration);
        let (spec, deadline) = fig16_job(input_gb);
        let base = plan(&planner, &spec, deadline);
        let later = plan(&planner, &spec, deadline + planner.interval_hours);
        let label =
            format!("{input_gb} GB (migration {migration}), deadline {deadline} h + 1 interval");
        assert_cost_never_rises(&label, &base, &later);
    }
}

/// The lowest cap on m1.large at which every Figure 16 model still plans
/// (at 12 the search exhausts its node cap without an incumbent), then
/// each step up, ending at twice the largest uncapped peak (30 nodes).
const INSTANCE_CAPS: [usize; 5] = [13, 14, 15, 16, 60];

/// A higher cap on rentable m1.large instances ⇒ the cost never rises past
/// the gap.
#[test]
fn more_instances_never_cost_more_than_the_gap() {
    for (input_gb, migration) in FIG16_MODELS {
        let (spec, deadline) = fig16_job(input_gb);
        let plans: Vec<ExecutionPlan> = INSTANCE_CAPS
            .iter()
            .map(|&cap| {
                let pool = m1_large_pool().with_compute_cap("m1.large", cap);
                plan(&fig16_planner(pool, input_gb, migration), &spec, deadline)
            })
            .collect();
        for (pair, caps) in plans.windows(2).zip(INSTANCE_CAPS.windows(2)) {
            let label = format!(
                "{input_gb} GB (migration {migration}), max_instances {} → {}",
                caps[0], caps[1]
            );
            assert_cost_never_rises(&label, &pair[0], &pair[1]);
        }
    }
}
