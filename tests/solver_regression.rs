//! Fixed regression instances for the LP/MIP solver, through its public
//! API: the infeasible / unbounded / iteration-limit error paths under every
//! revised configuration, the time limit, degenerate pivoting and agreement
//! with the independent oracle. (The engine's warm-start machinery is
//! tested at node level in `crates/lp/src/revised.rs`.)

use conductor_lp::{ConstraintOp, LpError, Problem, Sense, SolveOptions};
use std::time::Duration;

mod support;
use support::oracle::{self, Outcome};

/// All 4 revised configurations at the tightest gap.
fn configs() -> Vec<(String, SolveOptions)> {
    support::revised_configs(&SolveOptions {
        relative_gap: 0.0,
        ..Default::default()
    })
}

#[test]
fn infeasible_lp_is_reported_by_every_configuration() {
    let mut p = Problem::new("inf-lp", Sense::Minimize);
    let x = p.add_var("x", 0.0, f64::INFINITY);
    p.set_objective([(x, 1.0)]);
    p.add_constraint("lo", [(x, 1.0)], ConstraintOp::Ge, 5.0);
    p.add_constraint("hi", [(x, 1.0)], ConstraintOp::Le, 4.0);
    assert_eq!(oracle::solve(&p), Outcome::Infeasible);
    for (label, opts) in configs() {
        assert!(
            matches!(p.solve_with(&opts), Err(LpError::Infeasible)),
            "{label} did not report infeasibility"
        );
    }
}

#[test]
fn infeasible_mip_with_feasible_relaxation() {
    // Relaxation feasible (x = 1.5) but no integer point.
    let mut p = Problem::new("inf-mip", Sense::Minimize);
    let x = p.add_int_var("x", 0.0, 10.0);
    p.set_objective([(x, 1.0)]);
    p.add_constraint("half", [(x, 2.0)], ConstraintOp::Eq, 3.0);
    assert_eq!(oracle::solve(&p), Outcome::Infeasible);
    for (label, opts) in configs() {
        let err = p.solve_with(&opts).unwrap_err();
        assert!(
            matches!(err, LpError::Infeasible | LpError::NoIncumbent),
            "{label}: {err:?}"
        );
    }
}

#[test]
fn unbounded_lp_is_reported_by_every_configuration() {
    let mut p = Problem::new("unb", Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY);
    let y = p.add_var("y", 0.0, f64::INFINITY);
    p.set_objective([(x, 1.0), (y, 1.0)]);
    p.add_constraint("only-y", [(y, 1.0)], ConstraintOp::Le, 3.0);
    assert_eq!(oracle::solve(&p), Outcome::Unbounded);
    for (label, opts) in configs() {
        assert!(
            matches!(p.solve_with(&opts), Err(LpError::Unbounded)),
            "{label} did not report unboundedness"
        );
    }
}

#[test]
fn unbounded_direction_via_free_variable() {
    let mut p = Problem::new("unb-free", Sense::Minimize);
    let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
    p.set_objective([(x, 1.0)]);
    p.add_constraint("ub", [(x, 1.0)], ConstraintOp::Le, 10.0);
    assert_eq!(oracle::solve(&p), Outcome::Unbounded);
    for (label, opts) in configs() {
        assert!(
            matches!(p.solve_with(&opts), Err(LpError::Unbounded)),
            "{label} did not report unboundedness"
        );
    }
}

#[test]
fn iteration_limit_is_reported() {
    // A feasible LP given a 1-iteration budget must fail with IterationLimit,
    // not loop or return garbage.
    let mut p = Problem::new("itlim", Sense::Maximize);
    let vars: Vec<_> = (0..6)
        .map(|i| p.add_var(format!("x{i}"), 0.0, 10.0))
        .collect();
    p.set_objective(vars.iter().map(|&v| (v, 1.0)));
    p.add_constraint("cap", vars.iter().map(|&v| (v, 1.0)), ConstraintOp::Ge, 3.0);
    let opts = SolveOptions {
        max_simplex_iterations: 1,
        ..Default::default()
    };
    assert!(matches!(
        p.solve_with(&opts),
        Err(LpError::IterationLimit { .. })
    ));
}

#[test]
fn time_limit_returns_best_feasible_solution() {
    // A zero time budget must still return *some* feasible incumbent (the
    // paper's "use the best solution computed so far" behaviour) or a
    // NoIncumbent error — never hang.
    let mut p = Problem::new("tl", Sense::Maximize);
    let vars: Vec<_> = (0..12)
        .map(|i| p.add_int_var(format!("x{i}"), 0.0, 3.0))
        .collect();
    p.set_objective(
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, 1.0 + (i % 5) as f64)),
    );
    p.add_constraint(
        "cap",
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
        ConstraintOp::Le,
        11.0,
    );
    let opts = SolveOptions {
        time_limit: Duration::from_millis(0),
        ..Default::default()
    };
    match p.solve_with(&opts) {
        Ok(sol) => {
            let used: f64 = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| sol.value(v) * (1.0 + (i % 3) as f64))
                .sum();
            assert!(
                used <= 11.0 + 1e-6,
                "time-limited incumbent violates capacity"
            );
        }
        Err(e) => assert!(matches!(e, LpError::NoIncumbent), "{e:?}"),
    }
}

/// A degenerate LP that cycled the pre-rework ratio test into the iteration
/// limit must now solve (stable pivoting + Bland fallback).
#[test]
fn degenerate_instances_terminate() {
    // Beale's classic cycling example.
    let mut p = Problem::new("beale", Sense::Minimize);
    let x1 = p.add_var("x1", 0.0, f64::INFINITY);
    let x2 = p.add_var("x2", 0.0, f64::INFINITY);
    let x3 = p.add_var("x3", 0.0, f64::INFINITY);
    let x4 = p.add_var("x4", 0.0, f64::INFINITY);
    p.set_objective([(x1, -0.75), (x2, 150.0), (x3, -0.02), (x4, 6.0)]);
    p.add_constraint(
        "c1",
        [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        ConstraintOp::Le,
        0.0,
    );
    p.add_constraint(
        "c2",
        [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        ConstraintOp::Le,
        0.0,
    );
    p.add_constraint("c3", [(x3, 1.0)], ConstraintOp::Le, 1.0);
    let sol = p.solve().unwrap();
    assert!(
        (sol.objective() + 0.05).abs() < 1e-6,
        "objective {}",
        sol.objective()
    );
}

/// Full branch & bound at a zero gap agrees with the oracle's exhaustive
/// optimum (enumeration over its dense simplex) and reports its
/// factorization counters.
#[test]
fn revised_branch_and_bound_matches_dense_and_reports_factorizations() {
    let mut p = Problem::new("bb-engines", Sense::Maximize);
    let vars: Vec<_> = (0..10)
        .map(|i| p.add_int_var(format!("x{i}"), 0.0, 5.0))
        .collect();
    p.set_objective(
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, 3.0 + ((i * 7) % 5) as f64 + 0.5)),
    );
    for k in 0..4 {
        p.add_constraint(
            format!("cap{k}"),
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + ((i + k) % 4) as f64)),
            ConstraintOp::Le,
            17.0 + 2.0 * k as f64,
        );
    }
    let revised = p
        .solve_with(&SolveOptions {
            relative_gap: 0.0,
            ..Default::default()
        })
        .unwrap();
    let dense = oracle::solve(&p).objective();
    assert!(
        (revised.objective() - dense).abs() < 1e-6,
        "revised {} vs oracle {dense}",
        revised.objective()
    );
    let stats = revised.stats();
    assert!(
        stats.basis_factorizations >= 1,
        "revised engine must report factorizations: {stats:?}"
    );
}

/// Warm-start statistics surface through `Solution::stats` and the rate
/// helper stays in [0, 1].
#[test]
fn solve_stats_report_warm_start_rate() {
    let mut p = Problem::new("stats", Sense::Maximize);
    let vars: Vec<_> = (0..8)
        .map(|i| p.add_int_var(format!("x{i}"), 0.0, 3.0))
        .collect();
    p.set_objective(
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, 2.0 + (i % 4) as f64)),
    );
    for k in 0..3 {
        p.add_constraint(
            format!("cap{k}"),
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + ((i + k) % 3) as f64)),
            ConstraintOp::Le,
            10.0,
        );
    }
    let opts = SolveOptions {
        relative_gap: 0.0,
        ..Default::default()
    };
    let sol = p.solve_with(&opts).unwrap();
    let stats = sol.stats();
    let rate = stats.warm_start_rate();
    assert!((0.0..=1.0).contains(&rate), "rate {rate}");
    if stats.nodes_explored > 2 {
        assert!(
            stats.warm_start_hits + stats.warm_start_misses > 0,
            "multi-node solve attempted no warm starts: {stats:?}"
        );
    }
}
