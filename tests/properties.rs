//! Property-based tests over the core data structures and invariants:
//! the LP solver, the billing rules and the spot traces.

use conductor_cloud::{BillingAccount, Catalog, SpotTrace, TraceKind};
use conductor_lp::{ConstraintOp, LpError, Problem, Sense, Solution, SolveOptions};
use proptest::prelude::*;

mod support;
use support::oracle::{self, Outcome};
use support::revised_configs;

/// Builds a random bounded knapsack-style MIP from flat coefficient vectors
/// (always feasible: the origin satisfies every `<=` capacity row).
fn random_mip(values: &[f64], weights: &[f64], capacities: &[f64]) -> Problem {
    let n = values.len().min(weights.len()).max(1);
    let mut p = Problem::new("rand-mip", Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| p.add_int_var(format!("x{i}"), 0.0, 4.0))
        .collect();
    p.set_objective(vars.iter().zip(values).map(|(&v, &c)| (v, c)));
    for (k, &cap) in capacities.iter().enumerate() {
        p.add_constraint(
            format!("cap{k}"),
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, weights[(i + k) % weights.len()].max(0.1))),
            ConstraintOp::Le,
            cap,
        );
    }
    p
}

/// Builds a *sparse* random MIP with the pathologies the engine must
/// survive: a controlled constraint density (each row touches only a random
/// subset of the variables), exact duplicated rows (degenerate ratio-test
/// ties), and variables with no upper bound (infinite span-row RHS).
///
/// The instance is feasible (the origin satisfies every `<=` row) and
/// bounded (every variable is forced into at least one capacity row with a
/// positive weight) by construction.
fn sparse_random_mip(
    values: &[f64],
    weights: &[f64],
    caps: &[f64],
    density: f64,
    density_seed: u64,
    unbounded_stride: usize,
    duplicate_row: bool,
) -> Problem {
    let n = values.len();
    let mut p = Problem::new("sparse-mip", Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| {
            // `unbounded_stride == 0` means every upper bound is finite.
            let upper = if unbounded_stride > 0 && i % unbounded_stride == 0 {
                f64::INFINITY
            } else {
                4.0
            };
            p.add_int_var(format!("x{i}"), 0.0, upper)
        })
        .collect();
    p.set_objective(vars.iter().zip(values).map(|(&v, &c)| (v, c)));
    // Deterministic xorshift so the sparsity pattern is a pure function of
    // the generated seed (reproducible across configurations and reruns).
    let mut state = density_seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for (k, &cap) in caps.iter().enumerate() {
        let mut terms: Vec<(conductor_lp::VarId, f64)> = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            // Coverage guarantee: variable i always appears in row i % rows.
            let forced = i % caps.len() == k;
            let draw = (next() % 1000) as f64 / 1000.0;
            if forced || draw < density {
                terms.push((v, weights[(i + k) % weights.len()].max(0.1)));
            }
        }
        p.add_constraint(format!("cap{k}"), terms.clone(), ConstraintOp::Le, cap);
        if duplicate_row && k == 0 {
            // An exact duplicate row: every configuration's ratio test faces
            // the same degenerate tie and must break it to the same optimum.
            p.add_constraint("cap0-dup", terms, ConstraintOp::Le, cap);
        }
    }
    p
}

/// Builds a doubly-bounded MIP: every integer variable carries a nonzero
/// lower bound *and* a finite upper bound (the bounded-variable engine
/// handles both implicitly, without span rows), plus `free_vars` free
/// continuous variables that only the constraint rows keep in check.
fn doubly_bounded_mip(
    values: &[f64],
    lows: &[usize],
    spans: &[usize],
    caps: &[f64],
    free_vars: usize,
) -> Problem {
    let n = values.len().min(lows.len()).min(spans.len()).max(1);
    let mut p = Problem::new("dbl-mip", Sense::Maximize);
    let mut lo_mass = 0.0;
    let ints: Vec<_> = (0..n)
        .map(|i| {
            let lo = lows[i] as f64;
            lo_mass += lo;
            p.add_int_var(format!("x{i}"), lo, lo + 1.0 + spans[i] as f64)
        })
        .collect();
    let frees: Vec<_> = (0..free_vars)
        .map(|i| p.add_var(format!("f{i}"), f64::NEG_INFINITY, f64::INFINITY))
        .collect();
    p.set_objective(
        ints.iter()
            .zip(values)
            .map(|(&v, &c)| (v, c))
            // Distinct coefficients keep the optimal free split unique.
            .chain(
                frees
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, 1.5 + 0.25 * i as f64)),
            ),
    );
    for (k, &cap) in caps.iter().enumerate() {
        // Offset by the lower-bound mass so x = lower, f = 0 stays feasible.
        p.add_constraint(
            format!("cap{k}"),
            ints.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + ((i + k) % 3) as f64))
                .chain(frees.iter().enumerate().map(|(i, &v)| (v, 1.0 + i as f64))),
            ConstraintOp::Le,
            3.0 * lo_mass + cap,
        );
    }
    // A floor per free variable: a `>=` row with negative RHS, exercising
    // the Ge path alongside the implicit column bounds.
    for (i, &f) in frees.iter().enumerate() {
        p.add_constraint(format!("floor{i}"), [(f, 1.0)], ConstraintOp::Ge, -5.0);
    }
    p
}

/// Independent check of an engine answer: the first `n_int` values are
/// integral, every value is within its bounds, every row holds within the
/// engine's documented feasibility tolerance (1e-6 relative), and the
/// reported objective is the objective of the reported point.
fn assert_point_is_valid(p: &Problem, label: &str, sol: &Solution, n_int: usize) {
    let x = sol.values();
    for (i, (v, var)) in x.iter().zip(p.variables()).enumerate() {
        prop_assert!(
            i >= n_int || (v - v.round()).abs() < 1e-6,
            "{label}: x{i} = {v} not integral"
        );
        prop_assert!(
            *v >= var.lower - 1e-6 && *v <= var.upper + 1e-6,
            "{label}: x{i} = {v} out of bounds"
        );
    }
    for c in p.constraints() {
        let (lhs, tol) = (c.expr.evaluate(x), 1e-6 * (1.0 + c.rhs.abs()));
        let holds = match c.op {
            ConstraintOp::Le => lhs <= c.rhs + tol,
            ConstraintOp::Ge => lhs >= c.rhs - tol,
            ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
        };
        prop_assert!(
            holds,
            "{label}: row {} violated: {lhs} vs {}",
            c.name,
            c.rhs
        );
    }
    let objective = p.objective().evaluate(x);
    prop_assert!(
        (sol.objective() - objective).abs() <= 1e-6 * (1.0 + objective.abs()),
        "{label}: reported objective {} vs {objective} at the reported point",
        sol.objective()
    );
}

/// The oracle battery: solves the maximization `p` to a zero gap under all
/// 4 revised configurations and holds each to the oracle's exhaustive
/// answer — same status, a valid point (see [`assert_point_is_valid`]) no
/// worse than the exact optimum, and the oracle's own assignment (the
/// generators draw generic coefficients, so the optimum is unique). The one
/// way past the exact optimum is a point on a row's tolerance band, which
/// the oracle's exact rows exclude; such a point is only required to be
/// valid.
fn assert_configs_match_oracle(p: &Problem, n_int: usize) {
    let exact = SolveOptions {
        relative_gap: 0.0,
        ..Default::default()
    };
    let reference = oracle::solve(p);
    for (label, opts) in revised_configs(&exact) {
        let (sol, optimum, expected) = match (&reference, p.solve_with(&opts)) {
            (Outcome::Optimal { objective, values }, Ok(sol)) => (sol, *objective, values),
            (Outcome::Infeasible, Err(LpError::Infeasible | LpError::NoIncumbent))
            | (Outcome::Unbounded, Err(LpError::Unbounded)) => continue,
            (oracle, got) => panic!("{label}: oracle {oracle:?} vs {got:?}"),
        };
        assert_point_is_valid(p, &label, &sol, n_int);
        let slack = 1e-6 * (1.0 + optimum.abs());
        prop_assert!(
            sol.objective() >= optimum - slack,
            "{label} objective {} vs oracle {optimum}",
            sol.objective()
        );
        if sol.objective() <= optimum + slack {
            for (i, (a, b)) in sol.values().iter().zip(expected).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-4,
                    "{label} assignment x{i} = {a} vs oracle {b}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any bounded-variable LP `max c·x  s.t. x_i <= u_i`, the optimum is
    /// attained at the upper bounds of the profitable variables.
    #[test]
    fn lp_box_maximization_hits_upper_bounds(
        coeffs in proptest::collection::vec(-5.0f64..5.0, 1..6),
        bounds in proptest::collection::vec(0.1f64..10.0, 1..6),
    ) {
        let n = coeffs.len().min(bounds.len());
        let mut p = Problem::new("box", Sense::Maximize);
        let vars: Vec<_> =
            (0..n).map(|i| p.add_var(format!("x{i}"), 0.0, bounds[i])).collect();
        p.set_objective(vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)));
        let sol = p.solve().unwrap();
        let expected: f64 =
            (0..n).map(|i| if coeffs[i] > 0.0 { coeffs[i] * bounds[i] } else { 0.0 }).sum();
        prop_assert!((sol.objective() - expected).abs() < 1e-6,
            "objective {} vs expected {expected}", sol.objective());
    }

    /// The solver never returns a solution that violates its own constraints.
    #[test]
    fn lp_solutions_are_feasible(
        a in proptest::collection::vec(0.1f64..4.0, 4),
        rhs in proptest::collection::vec(1.0f64..20.0, 2),
        costs in proptest::collection::vec(0.1f64..5.0, 2),
    ) {
        let mut p = Problem::new("feas", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, costs[0]), (y, costs[1])]);
        p.add_constraint("c0", [(x, a[0]), (y, a[1])], ConstraintOp::Ge, rhs[0]);
        p.add_constraint("c1", [(x, a[2]), (y, a[3])], ConstraintOp::Ge, rhs[1]);
        let sol = p.solve().unwrap();
        let (xv, yv) = (sol.value(x), sol.value(y));
        prop_assert!(xv >= -1e-9 && yv >= -1e-9);
        prop_assert!(a[0] * xv + a[1] * yv >= rhs[0] - 1e-6);
        prop_assert!(a[2] * xv + a[3] * yv >= rhs[1] - 1e-6);
    }

    /// Integer solutions are integral and never better than the LP relaxation.
    #[test]
    fn mip_respects_integrality_and_relaxation_bound(
        weights in proptest::collection::vec(1.0f64..10.0, 3),
        values in proptest::collection::vec(1.0f64..10.0, 3),
        capacity in 5.0f64..25.0,
    ) {
        let build = |integer: bool| {
            let mut p = Problem::new("knap", Sense::Maximize);
            let vars: Vec<_> = (0..3)
                .map(|i| if integer {
                    p.add_int_var(format!("x{i}"), 0.0, 3.0)
                } else {
                    p.add_var(format!("x{i}"), 0.0, 3.0)
                })
                .collect();
            p.set_objective(vars.iter().zip(&values).map(|(&v, &c)| (v, c)));
            p.add_constraint(
                "cap",
                vars.iter().zip(&weights).map(|(&v, &w)| (v, w)),
                ConstraintOp::Le,
                capacity,
            );
            (p, vars)
        };
        let (relaxed, _) = build(false);
        let lp = relaxed.solve().unwrap().objective();
        let (integral, vars) = build(true);
        let sol = integral.solve().unwrap();
        for v in vars {
            let x = sol.value(v);
            prop_assert!((x - x.round()).abs() < 1e-6, "non-integral {x}");
        }
        prop_assert!(sol.objective() <= lp + 1e-6);
    }

    /// At the paper's 1 % gap every configuration returns a valid point
    /// within the gap of the oracle's exhaustive optimum on randomized MIPs.
    #[test]
    fn revised_configurations_stay_within_the_gap_of_the_oracle_on_random_mips(
        values in proptest::collection::vec(0.5f64..9.5, 2..7),
        weights in proptest::collection::vec(0.2f64..4.0, 2..7),
        capacities in proptest::collection::vec(3.0f64..20.0, 1..4),
    ) {
        let p = random_mip(&values, &weights, &capacities);
        let gap = 0.01;
        let optimum = oracle::solve(&p).objective();
        let base = SolveOptions { relative_gap: gap, ..Default::default() };
        for (label, opts) in revised_configs(&base) {
            let sol = p.solve_with(&opts).unwrap();
            assert_point_is_valid(&p, &label, &sol, p.num_vars());
            prop_assert!(
                sol.objective() >= optimum - gap * optimum.abs() - 1e-6,
                "{label} {} vs oracle optimum {optimum}", sol.objective());
        }
    }

    /// The oracle battery on *sparse* MIPs (controlled density, degenerate
    /// duplicated rows, unbounded spans).
    #[test]
    fn revised_configurations_match_oracle_on_sparse_mips(
        values in proptest::collection::vec(0.5f64..9.5, 3..9),
        weights in proptest::collection::vec(0.2f64..4.0, 3..9),
        caps in proptest::collection::vec(4.0f64..25.0, 1..4),
        density in 0.15f64..0.95,
        density_seed in 1u64..1_000_000_000,
        unbounded_stride in 0usize..4,
        duplicate_row in any::<bool>(),
    ) {
        let n = values.len().min(weights.len());
        let p = sparse_random_mip(
            &values[..n], &weights[..n], &caps, density, density_seed,
            unbounded_stride, duplicate_row,
        );
        assert_configs_match_oracle(&p, n);
    }

    /// The same battery on doubly-bounded, free-variable-heavy instances —
    /// the shapes the bounded-variable mode rewrites most aggressively
    /// (every integer variable's two finite bounds become one implicit
    /// column bound; free variables stay split).
    #[test]
    fn revised_configurations_match_oracle_on_doubly_bounded_mips(
        values in proptest::collection::vec(0.5f64..9.5, 2..7),
        lows in proptest::collection::vec(0usize..4, 2..7),
        spans in proptest::collection::vec(0usize..4, 2..7),
        caps in proptest::collection::vec(4.0f64..25.0, 1..4),
        free_vars in 0usize..3,
    ) {
        let p = doubly_bounded_mip(&values, &lows, &spans, &caps, free_vars);
        let n_int = values.len().min(lows.len()).min(spans.len()).max(1);
        assert_configs_match_oracle(&p, n_int);
    }

    /// The same battery on instances that are infeasible — either at the LP
    /// level (contradictory bounds rows) or only at the MIP level (feasible
    /// relaxation, no integer point).
    #[test]
    fn revised_configurations_match_oracle_on_infeasible_sparse_mips(
        n in 2usize..6,
        demand in 30.0f64..60.0,
        mip_level in any::<bool>(),
    ) {
        let mut p = Problem::new("inf-sparse", Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_int_var(format!("x{i}"), 0.0, 4.0))
            .collect();
        p.set_objective(vars.iter().map(|&v| (v, 1.0)));
        if mip_level {
            // Relaxation feasible (x0 = 1.5) but no integer point: 2·x0 = odd.
            p.add_constraint("odd", [(vars[0], 2.0)], ConstraintOp::Eq, 3.0);
        } else {
            // Max attainable lhs is 4n·1 < 24 < demand: LP-infeasible.
            p.add_constraint(
                "demand",
                vars.iter().map(|&v| (v, 1.0)),
                ConstraintOp::Ge,
                demand,
            );
        }
        prop_assert_eq!(oracle::solve(&p), Outcome::Infeasible);
        assert_configs_match_oracle(&p, n);
    }

    /// Metamorphic: scaling the objective by `k > 0` scales the optimum by
    /// `k` and moves neither the status nor the integer assignment, under
    /// every configuration.
    #[test]
    fn objective_scaling_keeps_the_assignment_under_every_configuration(
        values in proptest::collection::vec(0.5f64..9.5, 3..8),
        weights in proptest::collection::vec(0.2f64..4.0, 3..8),
        caps in proptest::collection::vec(4.0f64..25.0, 1..4),
        density_seed in 1u64..1_000_000_000,
        k in 0.25f64..8.0,
    ) {
        let n = values.len().min(weights.len());
        let scaled_values: Vec<f64> = values.iter().map(|v| k * v).collect();
        let build = |values: &[f64]| {
            sparse_random_mip(&values[..n], &weights[..n], &caps, 0.6, density_seed, 3, false)
        };
        let (p, scaled) = (build(&values), build(&scaled_values));
        let exact = SolveOptions { relative_gap: 0.0, ..Default::default() };
        for (label, opts) in revised_configs(&exact) {
            let a = p.solve_with(&opts).unwrap();
            let b = scaled.solve_with(&opts).unwrap();
            prop_assert_eq!(a.status(), b.status(), "{}", label);
            prop_assert!(
                (b.objective() - k * a.objective()).abs() <= 1e-6 * (1.0 + b.objective().abs()),
                "{label}: scaled objective {} vs {k} × {}", b.objective(), a.objective());
            for (i, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
                prop_assert!((x - y).abs() < 1e-4, "{label}: x{i} moved from {x} to {y}");
            }
        }
    }

    /// EC2-style billing: rounded-up hours are never less than the exact
    /// hours, never more than one extra hour per session, and always at
    /// least one hour.
    #[test]
    fn billing_roundup_is_bounded(durations in proptest::collection::vec(0.01f64..9.0, 1..8)) {
        let catalog = Catalog::aws_july_2011();
        let large = catalog.instance("m1.large").unwrap();
        let mut acct = BillingAccount::new(catalog.transfer);
        let mut exact = 0.0;
        for &d in &durations {
            let s = acct.start_instance(large, 10.0);
            acct.stop_instance(s, 10.0 + d);
            exact += d;
        }
        let billed = acct.instance_hours("m1.large");
        prop_assert!(billed >= exact - 1e-9);
        prop_assert!(billed >= durations.len() as f64 * 1.0 - 1e-9);
        prop_assert!(billed <= exact + durations.len() as f64 + 1e-9);
    }

    /// Spot traces stay within their documented bands for any seed/length.
    #[test]
    fn spot_traces_stay_in_band(seed in 0u64..5000, hours in 24usize..24*20) {
        let aws = SpotTrace::aws_like(seed, hours);
        prop_assert_eq!(aws.len(), hours);
        for &p in aws.prices() {
            prop_assert!((0.15..=0.45).contains(&p));
        }
        let el = SpotTrace::electricity_like(seed, hours);
        for &p in el.prices() {
            prop_assert!((0.0..0.34).contains(&p));
        }
    }
}

/// Non-proptest sanity check that the trace generators are deterministic
/// (needed for reproducible figures).
#[test]
fn trace_generation_is_deterministic() {
    for kind in [TraceKind::AwsLike, TraceKind::ElectricityLike] {
        let make = || match kind {
            TraceKind::AwsLike => SpotTrace::aws_like(99, 240),
            TraceKind::ElectricityLike => SpotTrace::electricity_like(99, 240),
        };
        assert_eq!(make(), make());
    }
}
