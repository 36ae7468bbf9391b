//! Solver-configuration ablation for the planner's MIP solver.
//!
//! Runs the fig16-style planning workloads through the revised engine under
//! the whole 2 × 2 of the solver-core `SolveOptions` flags — default (both
//! off), `+bounded_variables`, `+dual_steepest_edge`, both — and reports
//! wall-clock, µs per simplex iteration, plan cost and the
//! warm-start/factorization statistics. The `fig16_solve_time` binary
//! prints the table and gates on the same-process full-vs-default geomean;
//! nothing is written to disk (every other wall-clock number in the repo
//! lives in `benchmark/`, which never names a solver flag).

use conductor_cloud::{catalog::mbps_to_gb_per_hour, Catalog};
use conductor_core::{Goal, Planner, PlanningReport, ResourcePool};
use conductor_lp::SolveOptions;
use conductor_mapreduce::{JobSpec, Workload};
use std::time::{Duration, Instant};

/// One configuration's fastest repetition on one workload.
#[derive(Debug, Clone)]
pub struct ConfigRun {
    /// Solver-only wall-clock, milliseconds.
    pub solve_ms: f64,
    /// Plan cost (objective).
    pub cost: f64,
    /// The solve's own counters (deterministic per configuration).
    pub report: PlanningReport,
}

impl ConfigRun {
    /// Solver wall-clock per simplex iteration, microseconds: what a pivot
    /// costs under this configuration, apart from how many it takes.
    pub fn us_per_iteration(&self) -> f64 {
        self.solve_ms * 1e3 / self.report.simplex_iterations.max(1) as f64
    }
}

/// One workload under the four flag configurations. The default and full
/// columns must land on the same plan cost to ~1e-4 relative (identical
/// incumbents except where the 1 % gap stops the two searches at
/// different-but-equivalent solutions).
#[derive(Debug, Clone)]
pub struct SolverBenchRow {
    /// Workload label, e.g. `kmeans-128gb-mig` for the migration-enabled run.
    pub workload: String,
    /// Both flags off: span-row skeleton, most-violated repair pricing.
    pub default: ConfigRun,
    pub bounded: ConfigRun,
    pub dse: ConfigRun,
    /// Both flags on ([`full_flags`]).
    pub full: ConfigRun,
}

impl SolverBenchRow {
    /// `default.solve_ms / full.solve_ms` — the per-row gain of the full
    /// configuration over the default one.
    pub fn speedup_full_vs_default(&self) -> f64 {
        self.default.solve_ms / self.full.solve_ms.max(1e-9)
    }
}

/// Both solver-core flags on top of `base`: bounded-variable simplex and
/// dual steepest-edge pricing.
pub fn full_flags(base: SolveOptions) -> SolveOptions {
    SolveOptions {
        bounded_variables: true,
        dual_steepest_edge: true,
        ..base
    }
}

/// The full report: rows plus aggregate summary.
#[derive(Debug, Clone)]
pub struct SolverBenchReport {
    pub rows: Vec<SolverBenchRow>,
    /// Minimum / geometric-mean per-row speedup of the full configuration
    /// over the default one — `fig16_solve_time`'s gate is on the geomean.
    pub min_speedup_full_vs_default: f64,
    pub geomean_speedup_full_vs_default: f64,
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

fn run_best(input_gb: u32, migration: bool, options: SolveOptions) -> ConfigRun {
    (0..REPS)
        .map(|_| plan_once(input_gb, migration, options.clone()))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(_, solve_ms, cost, report)| ConfigRun {
            solve_ms,
            cost,
            report,
        })
        .expect("REPS > 0")
}

/// Measures one workload under the 2 × 2 of the solver-core flags.
pub fn bench_workload(input_gb: u32, migration: bool) -> SolverBenchRow {
    let run = |bounded_variables: bool, dual_steepest_edge: bool| {
        let options = SolveOptions {
            bounded_variables,
            dual_steepest_edge,
            ..bench_options()
        };
        run_best(input_gb, migration, options)
    };
    SolverBenchRow {
        workload: format!("kmeans-{input_gb}gb{}", if migration { "-mig" } else { "" }),
        default: run(false, false),
        bounded: run(true, false),
        dse: run(false, true),
        full: run_best(input_gb, migration, full_flags(bench_options())),
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

    let full_vs_default: Vec<f64> = rows
        .iter()
        .map(SolverBenchRow::speedup_full_vs_default)
        .collect();
    let geomean =
        (full_vs_default.iter().map(|x| x.ln()).sum::<f64>() / full_vs_default.len() as f64).exp();
    let hits: usize = rows.iter().map(|r| r.default.report.warm_start_hits).sum();
    let misses: usize = rows
        .iter()
        .map(|r| r.default.report.warm_start_misses)
        .sum();
    let overall_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };

    SolverBenchReport {
        min_speedup_full_vs_default: full_vs_default
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        geomean_speedup_full_vs_default: geomean,
        overall_warm_start_rate: overall_rate,
        rows,
    }
}

/// Renders the report as a human-readable table: per configuration the
/// solve ms and, in brackets, the µs per simplex iteration; the node,
/// iteration and warm-start counts are the default run's, the bound flips
/// the full run's.
pub fn render_report(report: &SolverBenchReport) -> String {
    let mut out = String::from(
        "solver-core ablation (revised engine), solve ms [us per iteration]:\n\
         workload                  default         +bounded             +dse     +bounded+dse  full vs default    nodes  iterations  bound-flips  warm-rate  cost (default/full)\n",
    );
    for r in &report.rows {
        out.push_str(&format!("{:<16}", r.workload));
        for run in [&r.default, &r.bounded, &r.dse, &r.full] {
            out.push_str(&format!(
                " {:>8.1} [{:>5.1}]",
                run.solve_ms,
                run.us_per_iteration()
            ));
        }
        out.push_str(&format!(
            " {:>15.2}x {:>8} {:>11} {:>12} {:>9.0}% {:.2}/{:.2}\n",
            r.speedup_full_vs_default(),
            r.default.report.nodes_explored,
            r.default.report.simplex_iterations,
            r.full.report.bound_flips,
            r.default.report.warm_start_rate() * 100.0,
            r.default.cost,
            r.full.cost,
        ));
    }
    out.push_str(&format!(
        "full config vs default: min {:.2}x geomean {:.2}x | warm-start rate {:.0}%\n",
        report.min_speedup_full_vs_default,
        report.geomean_speedup_full_vs_default,
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
        let tol = bench_options().relative_gap * row.default.cost.abs() + 1e-6;
        assert!(
            (row.full.cost - row.default.cost).abs() <= 2.0 * tol,
            "full {} vs default {}",
            row.full.cost,
            row.default.cost
        );
        let report = &row.default.report;
        assert!(report.warm_start_hits > 0, "no warm-start hits: {row:?}");
        assert!(
            report.basis_factorizations > 0,
            "no factorizations reported: {row:?}"
        );
    }
}
