//! Regenerates fig16_solve_time of the paper, then runs the solver-core
//! flag ablation in the same process and exits non-zero when the full
//! configuration (bounded variables + dual steepest-edge)
//! is not at least [`MIN_GEOMEAN`] × the default one in the geomean — both
//! sides share the process, the host and the minute, so the ratio is
//! stable where either wall alone is not. Writes no file. Run with:
//! `cargo run --release -p conductor-bench --bin fig16_solve_time`

use conductor_bench::solver_bench;

/// The gate: the flag flip ("One solver" in ROADMAP.md) rests on this gain.
const MIN_GEOMEAN: f64 = 1.3;

fn main() {
    println!("{}", conductor_bench::experiments::fig16_solve_time());

    println!();
    let report = solver_bench::solver_benchmark();
    print!("{}", solver_bench::render_report(&report));

    let geomean = report.geomean_speedup_full_vs_default;
    if geomean < MIN_GEOMEAN {
        eprintln!("solver-core rebuild regressed: {geomean:.2}x vs the default configuration (need >= {MIN_GEOMEAN}x)");
        std::process::exit(1);
    }
}
