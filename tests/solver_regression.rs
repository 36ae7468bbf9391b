//! Fixed regression instances for the LP/MIP solver: the infeasible /
//! unbounded / iteration-limit error paths under every revised
//! configuration, agreement with the independent oracle, and the
//! skeleton/warm-start machinery of `conductor_lp::revised`.

use conductor_lp::lu::eta_limit;
use conductor_lp::revised::{solve_with_skeleton_revised, RevisedWorkspace};
use conductor_lp::{
    ConstraintOp, LpError, Problem, Sense, SolveOptions, StandardFormSkeleton, WarmStart,
};
use std::time::Duration;

mod support;
use support::oracle::{self, Outcome};

fn bounds(p: &Problem) -> (Vec<f64>, Vec<f64>) {
    (
        p.variables().iter().map(|v| v.lower).collect(),
        p.variables().iter().map(|v| v.upper).collect(),
    )
}

/// All 16 revised configurations at the tightest gap.
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

/// The branched-variable pattern branch & bound produces: the warm path must
/// agree with a cold solve — and both with the oracle's LP — on every child,
/// including infeasible children.
#[test]
fn warm_and_cold_agree_on_branching_children() {
    let mut p = Problem::new("children", Sense::Maximize);
    let a = p.add_int_var("a", 0.0, 4.0);
    let b = p.add_int_var("b", 0.0, 4.0);
    let c = p.add_var("c", 0.0, 10.0);
    p.set_objective([(a, 3.0), (b, 5.0), (c, 0.25)]);
    p.add_constraint("r1", [(a, 2.0), (b, 3.0), (c, 1.0)], ConstraintOp::Le, 12.0);
    p.add_constraint("r2", [(a, 1.0), (b, 1.0)], ConstraintOp::Ge, 1.0);
    let (lower, upper) = bounds(&p);
    let sk = StandardFormSkeleton::new(&p, &lower, &upper).unwrap();
    let mut ws = RevisedWorkspace::default();
    let root = solve_with_skeleton_revised(&sk, &mut ws, &lower, &upper, None, 10_000).unwrap();

    // Sweep bound overrides a branch-and-bound run could produce.
    for (var, lo, hi) in [
        (0usize, 0.0, 1.0),
        (0, 2.0, 4.0),
        (1, 0.0, 0.0),
        (1, 4.0, 4.0),
        (0, 3.0, 2.0), // crossed: infeasible child
    ] {
        let mut l = lower.clone();
        let mut u = upper.clone();
        l[var] = lo;
        u[var] = hi;
        let warm = solve_with_skeleton_revised(&sk, &mut ws, &l, &u, Some(&root.basis), 10_000);
        let mut cold_ws = RevisedWorkspace::default();
        let cold = solve_with_skeleton_revised(&sk, &mut cold_ws, &l, &u, None, 10_000);
        match (warm, cold, oracle::solve_lp(&p, &l, &u)) {
            (Ok(w), Ok(c), Outcome::Optimal { objective, .. }) => {
                assert!(
                    (w.objective - objective).abs() < 1e-6
                        && (c.objective - objective).abs() < 1e-6,
                    "var {var} in [{lo}, {hi}]: warm {} cold {} oracle {objective}",
                    w.objective,
                    c.objective
                );
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible), Outcome::Infeasible) => {}
            (w, c, o) => panic!("var {var} in [{lo}, {hi}]: warm {w:?} vs cold {c:?} vs {o:?}"),
        }
    }
}

/// The first skeleton solve is always cold; a hinted resolve reports a
/// non-cold outcome.
#[test]
fn warm_start_outcomes_are_reported() {
    let mut p = Problem::new("outcome", Sense::Minimize);
    let x = p.add_int_var("x", 0.0, 9.0);
    p.set_objective([(x, 1.0)]);
    p.add_constraint("lo", [(x, 2.0)], ConstraintOp::Ge, 7.0);
    let (lower, upper) = bounds(&p);
    let sk = StandardFormSkeleton::new(&p, &lower, &upper).unwrap();
    let mut ws = RevisedWorkspace::default();
    let first = solve_with_skeleton_revised(&sk, &mut ws, &lower, &upper, None, 10_000).unwrap();
    assert_eq!(first.warm, WarmStart::Cold);
    let again =
        solve_with_skeleton_revised(&sk, &mut ws, &lower, &upper, Some(&first.basis), 10_000)
            .unwrap();
    assert_ne!(again.warm, WarmStart::Cold);
    assert!((first.objective - again.objective).abs() < 1e-9);
    let (hits, misses) = ws.warm_start_counts();
    assert_eq!(hits + misses, 1);
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

/// Long-horizon drift regression for the revised engine: thousands of
/// consecutive warm reuses through one `RevisedWorkspace` must stay within
/// the stale-state tolerance (1e-6) of the oracle's independent dense solve
/// of every node, with the factorization *refresh policy* (periodic
/// refactorization on the eta limit plus the per-reuse residual check) as
/// the only safety mechanism.
#[test]
fn revised_warm_reuse_never_drifts_over_thousands_of_reuses() {
    let mut p = Problem::new("drift-horizon", Sense::Maximize);
    let vars: Vec<_> = (0..8)
        .map(|i| p.add_int_var(format!("x{i}"), 0.0, 6.0))
        .collect();
    p.set_objective(
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, 2.0 + ((i * 5) % 7) as f64 + 0.25)),
    );
    for k in 0..4 {
        p.add_constraint(
            format!("cap{k}"),
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 0.5 + ((i + k) % 3) as f64 * 0.75)),
            ConstraintOp::Le,
            // Roomy enough that every bound pattern below stays feasible.
            40.0 + 3.0 * k as f64,
        );
    }
    let (lower, upper) = bounds(&p);
    let sk = StandardFormSkeleton::new(&p, &lower, &upper).unwrap();

    let mut revised = RevisedWorkspace::default();
    let root =
        solve_with_skeleton_revised(&sk, &mut revised, &lower, &upper, None, 100_000).unwrap();
    let mut last_basis = root.basis;
    let mut total_iterations = root.iterations;

    const ROUNDS: usize = 3000;
    let mut worst = 0.0f64;
    for round in 0..ROUNDS {
        // A rolling branching-like bound pattern: tighten one variable per
        // round, cycling lowers in {0,1,2} and uppers in {3..6}.
        let var = round % vars.len();
        let mut lo = lower.clone();
        let mut hi = upper.clone();
        lo[var] = (round / 8 % 3) as f64;
        hi[var] = 3.0 + (round / 8 % 4) as f64;
        let warm =
            solve_with_skeleton_revised(&sk, &mut revised, &lo, &hi, Some(&last_basis), 100_000)
                .unwrap_or_else(|e| panic!("round {round}: revised warm solve failed: {e:?}"));
        let reference = oracle::solve_lp(&p, &lo, &hi).objective();
        let dev = (warm.objective - reference).abs() / (1.0 + reference.abs());
        worst = worst.max(dev);
        assert!(
            dev < 1e-6,
            "round {round}: revised warm {} drifted from the oracle's {reference} (relative {dev:e})",
            warm.objective
        );
        total_iterations += warm.iterations;
        last_basis = warm.basis;
    }

    let (hits, misses) = revised.warm_start_counts();
    assert_eq!(hits + misses, ROUNDS, "every round should attempt a reuse");
    assert!(
        hits as f64 >= 0.95 * ROUNDS as f64,
        "warm reuse should almost always succeed: {hits} hits / {misses} misses"
    );

    // Pin the refresh policy. Every mid-stream refactorization consumes at
    // least `eta_limit(m)` accumulated pivots, so the count is bounded by
    // the pivot budget; and with thousands of reuses each pushing a few
    // pivots the policy must actually fire rather than never refresh.
    let (factorizations, refactorizations) = revised.factorization_counts();
    let m = sk.num_rows();
    assert!(
        refactorizations >= 1,
        "the eta-limit refresh policy never fired over {ROUNDS} reuses \
         ({total_iterations} pivots, eta limit {})",
        eta_limit(m)
    );
    assert!(
        refactorizations <= total_iterations / eta_limit(m) + 1,
        "more refreshes ({refactorizations}) than the pivot budget admits \
         ({total_iterations} pivots / eta limit {})",
        eta_limit(m)
    );
    // Cold fills are the only other factorization source: the root solve
    // plus one per warm miss.
    assert!(
        factorizations <= refactorizations + misses + 1,
        "unexpected extra factorizations: {factorizations} vs {refactorizations} refreshes + {misses} misses + root"
    );
    eprintln!(
        "drift regression: worst relative deviation {worst:e}, {hits}/{ROUNDS} reuses, \
         {factorizations} factorizations ({refactorizations} refreshes)"
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
