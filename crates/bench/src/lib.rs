//! # conductor-bench
//!
//! The experiment harness of the Conductor reproduction: one function per
//! table/figure of the paper's evaluation (§6), each returning a printable
//! [`table::Table`] with the same rows/series the paper reports. The
//! `figNN_*` binaries in `src/bin/` are thin wrappers that run one experiment
//! and print its table. Two binaries gate on a same-process ratio instead:
//! `fig16_solve_time` (the solver-flag ablation in [`solver_bench`]) and
//! `exec_scaling` (the execution kernel at 200 vs 50 nodes). Wall-clock is
//! recorded in one place only, the repo's `benchmark/` package.

pub mod experiments;
mod hdfs;
pub mod solver_bench;
pub mod table;

pub use solver_bench::{solver_benchmark, SolverBenchReport, SolverBenchRow};
pub use table::Table;
