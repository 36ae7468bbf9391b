//! Solver-configuration ablation for the planner's MIP solver.
//!
//! Runs the fig16-style planning workloads through the revised engine as
//! the three solver-core `SolveOptions` flags stack up — default (all off),
//! `+bounded_variables`, `+forrest_tomlin`, `+dual_steepest_edge` — and
//! reports wall-clock, plan cost and the warm-start/factorization
//! statistics. The `fig16_solve_time` binary prints the table and gates on
//! the same-process full-vs-default geomean; nothing is written to disk
//! (every other wall-clock number in the repo lives in `benchmark/`, which
//! never names a solver flag).

use conductor_cloud::{catalog::mbps_to_gb_per_hour, Catalog};
use conductor_core::{Goal, Planner, PlanningReport, ResourcePool};
use conductor_lp::SolveOptions;
use conductor_mapreduce::{JobSpec, Workload};
use std::time::{Duration, Instant};

/// One workload × four-configuration measurement.
#[derive(Debug, Clone)]
pub struct SolverBenchRow {
    /// Workload label, e.g. `kmeans-128gb-mig` for the migration-enabled run.
    pub workload: String,
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
    /// LU factorizations of the default-options run.
    pub basis_factorizations: usize,
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

/// The full report: rows plus aggregate summary.
#[derive(Debug, Clone)]
pub struct SolverBenchReport {
    pub rows: Vec<SolverBenchRow>,
    /// Minimum / geometric-mean per-row speedup of the full new solver
    /// configuration (bounded-variables + FT + DSE) over the default
    /// (legacy) one — `fig16_solve_time`'s gate is on the geomean.
    pub min_speedup_full_vs_legacy: f64,
    pub geomean_speedup_full_vs_legacy: f64,
    /// Default-options warm-start hits / attempts across all rows.
    pub overall_warm_start_rate: f64,
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
    let (_, revised_solve, revised_cost, report) = run_best(input_gb, migration, bench_options());

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
        min_speedup_full_vs_legacy: full_vs_legacy.iter().copied().fold(f64::INFINITY, f64::min),
        geomean_speedup_full_vs_legacy: geomean,
        overall_warm_start_rate: overall_rate,
        rows,
    }
}

/// Renders the report as a human-readable table.
pub fn render_report(report: &SolverBenchReport) -> String {
    let mut out = String::from(
        "solver-core ablation (revised engine, flags stacked):\n\
         workload          legacy ms  +bounded  +bounded+ft      full  full vs legacy    nodes  iterations  bound-flips  ft-updates  warm-rate  cost (legacy/full)\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "{:<16} {:>10.1} {:>9.1} {:>12.1} {:>9.1} {:>14.2}x {:>8} {:>11} {:>12} {:>11} {:>9.0}% {:.2}/{:.2}\n",
            r.workload,
            r.revised_solve_ms,
            r.bounded_solve_ms,
            r.bounded_ft_solve_ms,
            r.full_solve_ms,
            r.speedup_full_vs_legacy,
            r.nodes,
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
