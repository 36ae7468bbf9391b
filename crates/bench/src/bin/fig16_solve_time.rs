//! Regenerates fig16_solve_time of the paper, then runs the solver-core
//! flag ablation and writes `BENCH_solver.json` (committed at the
//! repo root so the perf trajectory is tracked across PRs). Run with:
//! `cargo run --release -p conductor-bench --bin fig16_solve_time`

use conductor_bench::solver_bench;

fn main() {
    println!("{}", conductor_bench::experiments::fig16_solve_time());

    println!();
    let report = solver_bench::solver_benchmark();
    print!("{}", solver_bench::render_report(&report));

    let json = serde_json::to_string_pretty(&report).expect("report serialization");
    let path = "BENCH_solver.json";
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_solver.json");
    println!("\nwrote {path}");
}
