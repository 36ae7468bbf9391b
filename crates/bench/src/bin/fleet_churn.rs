//! Runs the fleet churn scenario: 200 Poisson arrivals submitted online to
//! one fleet under a shared node cap and a stormy spot trace. Its
//! invariants are asserted by `cargo test` (ARCHITECTURE.md, *Testing
//! notes*) and its wall clock is measured by `benchmark/`. Run with:
//! `cargo run --release -p conductor-bench --bin fleet_churn`

fn main() {
    println!("{}", conductor_bench::experiments::fleet_churn(200, 1.0));
}
