//! Solver-configuration comparison harness for the planner's MIP solver.
//!
//! Runs the fig16-style planning workloads through the revised engine as
//! the three solver-core `SolveOptions` flags stack up — default (all off),
//! `+bounded_variables`, `+forrest_tomlin`, `+dual_steepest_edge` — and
//! reports wall-clock, plan cost and the warm-start/factorization
//! statistics. The `fig16_solve_time` binary serializes this report to
//! `BENCH_solver.json` so the perf trajectory is tracked across PRs.

use crate::experiments::{churn_fixture, run_fleet_online, run_sharded_session};
use conductor_cloud::{catalog::mbps_to_gb_per_hour, Catalog};
use conductor_core::{Goal, Planner, PlanningReport, ResourcePool};
use conductor_lp::SolveOptions;
use conductor_mapreduce::{JobSpec, Workload};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One workload × four-configuration measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverBenchRow {
    /// Workload label, e.g. `kmeans-64gb-mig` for the migration-enabled run.
    pub workload: String,
    /// Input size driving the model's horizon.
    pub input_gb: u32,
    /// Planning interval length (larger inputs use coarser intervals, as in
    /// Figure 16).
    pub interval_hours: f64,
    /// Whether the model includes migration variables.
    pub migration: bool,
    /// End-to-end planning wall-clock (model build + solve) under the
    /// default options, milliseconds.
    pub revised_total_ms: f64,
    /// Solver-only wall-clock under the default options, milliseconds.
    pub revised_solve_ms: f64,
    /// Plan cost (objective) under the default options.
    pub revised_cost: f64,
    /// Each flagged solver-core upgrade stacked on: bounded-variable
    /// simplex alone, then with Forrest–Tomlin updates, then with dual
    /// steepest-edge pricing too (the full new configuration). The default
    /// and full columns must land on the same plan cost to ~1e-4 relative
    /// (identical incumbents except where the 1 % gap stops the two
    /// searches at different-but-equivalent solutions).
    pub bounded_solve_ms: f64,
    pub bounded_ft_solve_ms: f64,
    pub full_solve_ms: f64,
    pub full_cost: f64,
    /// `revised_solve_ms / full_solve_ms` — the rebuild's per-row gain
    /// over the legacy (span-row, eta-file, Dantzig-repair) engine.
    pub speedup_full_vs_legacy: f64,
    /// Branch & bound statistics of the default-options run.
    pub nodes: usize,
    pub simplex_iterations: usize,
    /// Pivot counters for the full new configuration: ratio-test bound
    /// flips (pivots the bounded-variable mode avoided entirely) and
    /// Forrest–Tomlin factor updates (eta appends avoided).
    pub bound_flips: usize,
    pub ft_updates: usize,
    pub warm_start_hits: usize,
    pub warm_start_misses: usize,
    pub warm_start_rate: f64,
    /// LU factorizations of the default-options run, and the subset
    /// triggered mid-stream by the eta limit / drift checks.
    pub basis_factorizations: usize,
    pub basis_refactorizations: usize,
}

/// Admission throughput on the canonical churn fleet: the same Poisson
/// fixture ([`churn_fixture`]) driven end to end with the admission plan
/// cache off (the deterministic pinned path every figure uses) and on
/// (the certified fast path). `*_admissions_per_sec` counts admission
/// *decisions* — every arrival is planned and then admitted or rejected —
/// over the full end-to-end wall clock including execution simulation,
/// so the number is the fleet-scale metric an operator sees, not a
/// solver microbenchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionBenchRow {
    /// Poisson arrivals in the fixture.
    pub jobs: usize,
    /// End-to-end wall clock with the plan cache off / on, seconds. The
    /// cold and cached runs use the full new solver configuration
    /// (bounded-variables + Forrest–Tomlin + dual steepest-edge) — the
    /// engine this rebuild ships; the legacy columns below keep the
    /// span-row engine's cold path for comparison.
    pub cold_wall_s: f64,
    pub cached_wall_s: f64,
    /// Admission decisions per second of end-to-end wall clock.
    pub cold_admissions_per_sec: f64,
    pub cached_admissions_per_sec: f64,
    /// `cold_wall_s / cached_wall_s` (equals the admissions/sec ratio).
    pub wall_speedup: f64,
    /// Cold path under the legacy revised engine (all new flags off).
    #[serde(default)]
    pub legacy_cold_wall_s: f64,
    #[serde(default)]
    pub legacy_cold_admissions_per_sec: f64,
    /// `legacy_cold_wall_s / cold_wall_s` — the solver-core rebuild's
    /// end-to-end gain on the cold admission path.
    #[serde(default)]
    pub cold_speedup_vs_legacy: f64,
    /// Certified cache hits (branch & bound skipped) and misses on the
    /// cached run.
    pub plan_cache_hits: usize,
    pub plan_cache_misses: usize,
}

/// Sharded-runtime throughput on the canonical churn fleet: the same
/// 200-arrival fixture drained through a [`conductor_core::ShardedFleet`]
/// at 1, 2 and 4 shards (hash routing, no rebalancer, one scoped thread
/// per shard). Speedups only mean anything when the host has a thread per
/// shard: on fewer than 4 threads the row keeps its wall columns but
/// reports `status: "unmeasured"` and no speedups, and CI's floor reads
/// that status.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardScalingRow {
    /// Poisson arrivals in the fixture.
    pub jobs: usize,
    /// `std::thread::available_parallelism()` on the machine that
    /// generated this row.
    pub threads_available: usize,
    /// `"measured"` with at least 4 threads available, else `"unmeasured"`.
    pub status: String,
    /// End-to-end wall clock at 1 / 2 / 4 shards, seconds.
    pub n1_wall_s: f64,
    pub n2_wall_s: f64,
    pub n4_wall_s: f64,
    /// Jobs drained per second of end-to-end wall clock.
    pub n1_jobs_per_sec: f64,
    pub n2_jobs_per_sec: f64,
    pub n4_jobs_per_sec: f64,
    /// `n1_wall_s / n2_wall_s` and `n1_wall_s / n4_wall_s`; `None` when
    /// unmeasured.
    pub n2_speedup: Option<f64>,
    pub n4_speedup: Option<f64>,
}

/// Measures [`ShardScalingRow`] on a `jobs`-arrival churn fleet.
pub fn shard_scaling_benchmark(jobs: usize) -> ShardScalingRow {
    let (requests, service) = churn_fixture(jobs, 1.0);
    let mut walls = [0.0f64; 3];
    for (slot, shards) in [(0usize, 1usize), (1, 2), (2, 4)] {
        let t0 = Instant::now();
        let fleet = run_sharded_session(&service, shards, None, &requests);
        walls[slot] = t0.elapsed().as_secs_f64();
        assert_eq!(
            fleet.pending_events(),
            0,
            "the {shards}-shard run drains to quiescence"
        );
    }
    let [n1, n2, n4] = walls;
    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let measured = threads_available >= 4;
    ShardScalingRow {
        jobs,
        threads_available,
        status: if measured { "measured" } else { "unmeasured" }.to_string(),
        n1_wall_s: n1,
        n2_wall_s: n2,
        n4_wall_s: n4,
        n1_jobs_per_sec: jobs as f64 / n1.max(1e-9),
        n2_jobs_per_sec: jobs as f64 / n2.max(1e-9),
        n4_jobs_per_sec: jobs as f64 / n4.max(1e-9),
        n2_speedup: measured.then(|| n1 / n2.max(1e-9)),
        n4_speedup: measured.then(|| n1 / n4.max(1e-9)),
    }
}

/// The full new solver configuration on top of `base`: bounded-variable
/// simplex, Forrest–Tomlin updates and dual steepest-edge pricing.
pub fn full_flags(base: SolveOptions) -> SolveOptions {
    SolveOptions {
        bounded_variables: true,
        forrest_tomlin: true,
        dual_steepest_edge: true,
        ..base
    }
}

/// Measures [`AdmissionBenchRow`] on a `jobs`-arrival churn fleet.
pub fn admission_benchmark(jobs: usize) -> AdmissionBenchRow {
    let (requests, service) = churn_fixture(jobs, 1.0);
    let t0 = Instant::now();
    let _legacy_cold = run_fleet_online(&service, &requests);
    let legacy_cold_wall = t0.elapsed().as_secs_f64();
    let full_service = service.with_solve_options(full_flags(crate::experiments::solver_options()));
    let t1 = Instant::now();
    let _cold = run_fleet_online(&full_service, &requests);
    let cold_wall = t1.elapsed().as_secs_f64();
    let cached_service = full_service.with_plan_cache(true);
    let t2 = Instant::now();
    let cached = run_fleet_online(&cached_service, &requests);
    let cached_wall = t2.elapsed().as_secs_f64();
    AdmissionBenchRow {
        jobs,
        cold_wall_s: cold_wall,
        cached_wall_s: cached_wall,
        cold_admissions_per_sec: jobs as f64 / cold_wall.max(1e-9),
        cached_admissions_per_sec: jobs as f64 / cached_wall.max(1e-9),
        wall_speedup: cold_wall / cached_wall.max(1e-9),
        legacy_cold_wall_s: legacy_cold_wall,
        legacy_cold_admissions_per_sec: jobs as f64 / legacy_cold_wall.max(1e-9),
        cold_speedup_vs_legacy: legacy_cold_wall / cold_wall.max(1e-9),
        plan_cache_hits: cached.plan_cache_hits,
        plan_cache_misses: cached.plan_cache_misses,
    }
}

/// The full report: rows plus aggregate summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverBenchReport {
    /// How to regenerate this file.
    pub generated_by: String,
    /// The relative MIP gap all configurations solve to.
    pub relative_gap: f64,
    pub rows: Vec<SolverBenchRow>,
    /// Minimum / geometric-mean per-row speedup of the full new solver
    /// configuration (bounded-variables + FT + DSE) over the default
    /// (legacy) one — the CI floor is on the geomean.
    pub min_speedup_full_vs_legacy: f64,
    pub geomean_speedup_full_vs_legacy: f64,
    /// Default-options warm-start hits / attempts across all rows.
    pub overall_warm_start_rate: f64,
    /// Churn-fleet admission throughput, plan cache off vs on (`None` in
    /// reports generated before the cache existed).
    #[serde(default)]
    pub admission: Option<AdmissionBenchRow>,
    /// Sharded-runtime throughput at 1/2/4 shards (`None` in reports
    /// generated before the sharded fleet existed).
    #[serde(default)]
    pub shard_scaling: Option<ShardScalingRow>,
}

/// Solve options shared by every configuration (fig16's gap, a generous cap
/// so none of the measured sizes are time-limited).
pub fn bench_options() -> SolveOptions {
    SolveOptions {
        time_limit: Duration::from_secs(120),
        ..Default::default()
    }
}

fn planner_for(input_gb: u32, migration: bool) -> Planner {
    let pool =
        ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0).with_compute_only(&["m1.large"]);
    let mut planner = Planner::new(pool).with_migration(migration);
    // Figure 16 keeps the comparison fair across input sizes by coarsening
    // the interval for long horizons; 64 GB also gets the coarser interval
    // here so no configuration is time-limited.
    planner.interval_hours = if input_gb > 32 { 2.0 } else { 1.0 };
    planner
}

fn spec_for(input_gb: u32) -> (JobSpec, f64) {
    // The paper's k-means workload (0.44 GB/h per m1.large) scaled up — the
    // hard, node-heavy models Figure 16 measures.
    let spec = Workload::KMeansScaled { input_gb }.spec();
    let upload_hours = spec.input_gb / mbps_to_gb_per_hour(16.0);
    let deadline = (upload_hours * 1.3).ceil().max(6.0);
    (spec, deadline)
}

/// Plans one bench workload once under `options`; returns `(total ms,
/// solve ms, plan cost, planning report)`.
pub fn plan_once(
    input_gb: u32,
    migration: bool,
    options: SolveOptions,
) -> (f64, f64, f64, PlanningReport) {
    let planner = planner_for(input_gb, migration).with_solve_options(options);
    let (spec, deadline) = spec_for(input_gb);
    let t0 = Instant::now();
    let (plan, report) = planner
        .plan(
            &spec,
            Goal::MinimizeCost {
                deadline_hours: deadline,
            },
        )
        .expect("the revised engine must complete the bench workloads");
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        total_ms,
        report.solve_time.as_secs_f64() * 1e3,
        plan.expected_cost,
        report,
    )
}

/// Repetitions per configuration; the minimum is reported (standard
/// practice for wall-clock microbenchmarks — the minimum is the least noisy
/// estimator of the true cost).
const REPS: usize = 5;

fn run_best(
    input_gb: u32,
    migration: bool,
    options: SolveOptions,
) -> (f64, f64, f64, PlanningReport) {
    (0..REPS)
        .map(|_| plan_once(input_gb, migration, options.clone()))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("REPS > 0")
}

/// Measures one workload under the default options and the stacked flags.
pub fn bench_workload(input_gb: u32, migration: bool) -> SolverBenchRow {
    let (revised_total, revised_solve, revised_cost, report) =
        run_best(input_gb, migration, bench_options());

    // The flagged solver-core upgrades, stacked in the order the ablation
    // reads: bounded-variable simplex, + Forrest–Tomlin, + dual
    // steepest-edge (the full new configuration).
    let bounded = |forrest_tomlin: bool| SolveOptions {
        bounded_variables: true,
        forrest_tomlin,
        ..bench_options()
    };
    let (_, bounded_solve, _, _) = run_best(input_gb, migration, bounded(false));
    let (_, bounded_ft_solve, _, _) = run_best(input_gb, migration, bounded(true));
    let (_, full_solve, full_cost, full_report) =
        run_best(input_gb, migration, full_flags(bench_options()));

    SolverBenchRow {
        workload: format!("kmeans-{input_gb}gb{}", if migration { "-mig" } else { "" }),
        input_gb,
        interval_hours: if input_gb > 32 { 2.0 } else { 1.0 },
        migration,
        revised_total_ms: revised_total,
        revised_solve_ms: revised_solve,
        revised_cost,
        bounded_solve_ms: bounded_solve,
        bounded_ft_solve_ms: bounded_ft_solve,
        full_solve_ms: full_solve,
        full_cost,
        speedup_full_vs_legacy: revised_solve / full_solve.max(1e-9),
        nodes: report.nodes_explored,
        simplex_iterations: report.simplex_iterations,
        bound_flips: full_report.bound_flips,
        ft_updates: full_report.ft_updates,
        warm_start_hits: report.warm_start_hits,
        warm_start_misses: report.warm_start_misses,
        warm_start_rate: report.warm_start_rate(),
        basis_factorizations: report.basis_factorizations,
        basis_refactorizations: report.basis_refactorizations,
    }
}

/// Runs the whole comparison matrix (fig16 sizes plus a migration-enabled
/// model) and aggregates the summary.
pub fn solver_benchmark() -> SolverBenchReport {
    let matrix: &[(u32, bool)] = &[(32, false), (128, false), (256, false), (128, true)];
    let rows: Vec<SolverBenchRow> = matrix
        .iter()
        .map(|&(gb, mig)| bench_workload(gb, mig))
        .collect();

    let full_vs_legacy: Vec<f64> = rows.iter().map(|r| r.speedup_full_vs_legacy).collect();
    let geomean =
        (full_vs_legacy.iter().map(|x| x.ln()).sum::<f64>() / full_vs_legacy.len() as f64).exp();
    let hits: usize = rows.iter().map(|r| r.warm_start_hits).sum();
    let misses: usize = rows.iter().map(|r| r.warm_start_misses).sum();
    let overall_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };

    SolverBenchReport {
        generated_by: "cargo run --release -p conductor-bench --bin fig16_solve_time".to_string(),
        relative_gap: bench_options().relative_gap,
        min_speedup_full_vs_legacy: full_vs_legacy.iter().copied().fold(f64::INFINITY, f64::min),
        geomean_speedup_full_vs_legacy: geomean,
        overall_warm_start_rate: overall_rate,
        admission: Some(admission_benchmark(200)),
        shard_scaling: Some(shard_scaling_benchmark(200)),
        rows,
    }
}

/// Renders the report as a human-readable table (printed next to the JSON).
pub fn render_report(report: &SolverBenchReport) -> String {
    let mut out = String::from(
        "solver-core ablation (revised engine, flags stacked):\n\
         workload          legacy ms  +bounded  +bounded+ft      full  full vs legacy  iterations  bound-flips  ft-updates  warm-rate  cost (legacy/full)\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "{:<16} {:>10.1} {:>9.1} {:>12.1} {:>9.1} {:>14.2}x {:>11} {:>12} {:>11} {:>9.0}% {:.2}/{:.2}\n",
            r.workload,
            r.revised_solve_ms,
            r.bounded_solve_ms,
            r.bounded_ft_solve_ms,
            r.full_solve_ms,
            r.speedup_full_vs_legacy,
            r.simplex_iterations,
            r.bound_flips,
            r.ft_updates,
            r.warm_start_rate * 100.0,
            r.revised_cost,
            r.full_cost,
        ));
    }
    out.push_str(&format!(
        "full config vs legacy revised: min {:.2}x geomean {:.2}x | warm-start rate {:.0}%\n",
        report.min_speedup_full_vs_legacy,
        report.geomean_speedup_full_vs_legacy,
        report.overall_warm_start_rate * 100.0
    ));
    if let Some(a) = &report.admission {
        out.push_str(&format!(
            "churn admissions ({} jobs): cold {:.1}/s ({:.2} s; legacy engine {:.1}/s = {:.2}x), plan cache {:.1}/s ({:.2} s) = {:.2}x, {} hits / {} misses\n",
            a.jobs,
            a.cold_admissions_per_sec,
            a.cold_wall_s,
            a.legacy_cold_admissions_per_sec,
            a.cold_speedup_vs_legacy,
            a.cached_admissions_per_sec,
            a.cached_wall_s,
            a.wall_speedup,
            a.plan_cache_hits,
            a.plan_cache_misses,
        ));
    }
    if let Some(s) = &report.shard_scaling {
        let speedup = |x: Option<f64>| x.map_or("unmeasured".to_string(), |x| format!("{x:.2}x"));
        out.push_str(&format!(
            "shard scaling ({} jobs, {} threads, {}): 1 shard {:.1}/s ({:.2} s), 2 shards {:.1}/s = {}, 4 shards {:.1}/s = {}\n",
            s.jobs,
            s.threads_available,
            s.status,
            s.n1_jobs_per_sec,
            s.n1_wall_s,
            s.n2_jobs_per_sec,
            speedup(s.n2_speedup),
            s.n4_jobs_per_sec,
            speedup(s.n4_speedup),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest workload: the default and full configurations must agree
    /// on cost within the configured gap, and warm starts must actually fire.
    #[test]
    fn configurations_agree_and_warm_starts_fire() {
        let row = bench_workload(32, false);
        let tol = bench_options().relative_gap * row.revised_cost.abs() + 1e-6;
        assert!(
            (row.full_cost - row.revised_cost).abs() <= 2.0 * tol,
            "full {} vs default {}",
            row.full_cost,
            row.revised_cost
        );
        assert!(row.warm_start_hits > 0, "no warm-start hits: {row:?}");
        assert!(
            row.basis_factorizations > 0,
            "no factorizations reported: {row:?}"
        );
    }
}
