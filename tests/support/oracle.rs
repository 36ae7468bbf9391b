//! Test-only reference solver: the independent oracle the LP/MIP engine is
//! checked against.
//!
//! It shares nothing with `conductor_lp` but the problem-model accessors —
//! no skeleton, no factorization, no pricing rule, no branch & bound:
//!
//! * [`solve_lp`] is the textbook dense two-phase tableau simplex under
//!   Bland's rule (lowest-index entering column, lowest-index tie-break in
//!   the ratio test), recomputing every reduced cost from scratch;
//! * [`solve`] enumerates the integer / semi-continuous box depth-first in
//!   index order, one value (or one side of the semi-continuous
//!   disjunction) at a time, and solves the continuous remainder with
//!   [`solve_lp`]. A subtree is skipped only when that same LP proves it
//!   infeasible or unable to beat the incumbent. Small models only: the
//!   cost is exponential in the number of discrete variables.
#![allow(dead_code)]

use conductor_lp::{ConstraintOp, Problem, Sense, VarKind};

const EPS: f64 = 1e-9;
const MAX_PIVOTS: usize = 200_000;

/// What the oracle concluded about a problem.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Outcome {
    Optimal { objective: f64, values: Vec<f64> },
    Infeasible,
    Unbounded,
}

impl Outcome {
    /// The optimal objective; panics on an infeasible or unbounded outcome.
    pub(crate) fn objective(&self) -> f64 {
        match self {
            Outcome::Optimal { objective, .. } => *objective,
            other => panic!("oracle: no optimum ({other:?})"),
        }
    }
}

fn sense_sign(p: &Problem) -> f64 {
    match p.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    }
}

/// Solves the continuous relaxation of `p` with every variable's declared
/// bounds replaced by `lower[i]..=upper[i]` (kinds are ignored).
pub(crate) fn solve_lp(p: &Problem, lower: &[f64], upper: &[f64]) -> Outcome {
    let sign = sense_sign(p);
    let mut cost = vec![0.0; p.num_vars()];
    for (v, c) in p.objective().terms() {
        cost[v.index()] += sign * c;
    }
    match minimize(p, lower, upper, &cost) {
        Outcome::Optimal { objective, values } => Outcome::Optimal {
            objective: sign * objective + p.objective().constant(),
            values,
        },
        other => other,
    }
}

/// Solves `p` to proven optimality by enumeration (see the module docs).
pub(crate) fn solve(p: &Problem) -> Outcome {
    let mut lower: Vec<f64> = p.variables().iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = p.variables().iter().map(|v| v.upper).collect();
    // An unbounded relaxation is reported as an unbounded problem.
    if solve_lp(p, &lower, &upper) == Outcome::Unbounded {
        return Outcome::Unbounded;
    }
    let discrete: Vec<usize> = (0..p.num_vars())
        .filter(|&i| p.variables()[i].kind != VarKind::Continuous)
        .collect();
    let mut best = Outcome::Infeasible;
    enumerate(p, &discrete, &mut lower, &mut upper, &mut best);
    best
}

fn enumerate(
    p: &Problem,
    discrete: &[usize],
    lower: &mut [f64],
    upper: &mut [f64],
    best: &mut Outcome,
) {
    let Outcome::Optimal { objective, values } = solve_lp(p, lower, upper) else {
        return;
    };
    let sign = sense_sign(p);
    if let Outcome::Optimal { objective: inc, .. } = best {
        if sign * objective >= sign * *inc - EPS {
            return;
        }
    }
    let Some((&i, rest)) = discrete.split_first() else {
        *best = Outcome::Optimal { objective, values };
        return;
    };
    let (lo, hi) = (lower[i], upper[i]);
    match p.variables()[i].kind {
        VarKind::Integer => {
            let first = box_side(p, lower, upper, i, -1.0);
            let last = box_side(p, lower, upper, i, 1.0);
            let mut candidates: Vec<f64> = ((first - EPS).ceil() as i64
                ..=(last + EPS).floor() as i64)
                .map(|v| v as f64)
                .collect();
            // Every value is visited, nearest the relaxation first.
            candidates.sort_by(|a, b| (a - values[i]).abs().total_cmp(&(b - values[i]).abs()));
            for v in candidates {
                (lower[i], upper[i]) = (v, v);
                enumerate(p, rest, lower, upper, best);
            }
        }
        VarKind::SemiContinuous { threshold } => {
            // Exactly zero, or continuous at or above the threshold.
            for (l, h) in [(lo, hi.min(0.0)), (lo.max(threshold), hi)] {
                (lower[i], upper[i]) = (l, h);
                enumerate(p, rest, lower, upper, best);
            }
        }
        VarKind::Continuous => unreachable!("only discrete variables are enumerated"),
    }
    (lower[i], upper[i]) = (lo, hi);
}

/// The upper (`dir = 1`) or lower (`dir = -1`) end of variable `i`'s box:
/// its bound when finite, else its extreme over the current relaxation.
fn box_side(p: &Problem, lower: &[f64], upper: &[f64], i: usize, dir: f64) -> f64 {
    let bound = if dir > 0.0 { upper[i] } else { lower[i] };
    if bound.is_finite() {
        return bound;
    }
    let mut cost = vec![0.0; p.num_vars()];
    cost[i] = -dir;
    match minimize(p, lower, upper, &cost) {
        Outcome::Optimal { values, .. } => values[i],
        other => panic!("oracle: integer variable {i} has no finite box ({other:?})"),
    }
}

/// `min cost·x` over the relaxation of `p` under the given bounds: the
/// standard-form rewrite plus the two simplex phases.
fn minimize(p: &Problem, lower: &[f64], upper: &[f64], cost: &[f64]) -> Outcome {
    let n = p.num_vars();
    if (0..n).any(|i| lower[i] > upper[i] + EPS) {
        return Outcome::Infeasible;
    }
    // x_i = offset_i + Σ coef·y_col over non-negative columns y.
    let mut offset = vec![0.0; n];
    let mut subst: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut ny = 0;
    // Rows `Σ coef·y (op) rhs` over the y columns.
    let mut rows = Vec::new();
    for i in 0..n {
        let (lo, hi) = (lower[i], upper[i]);
        if lo.is_finite() {
            offset[i] = lo;
            subst.push(vec![(ny, 1.0)]);
            if hi.is_finite() {
                rows.push((vec![(ny, 1.0)], ConstraintOp::Le, (hi - lo).max(0.0)));
            }
            ny += 1;
        } else if hi.is_finite() {
            offset[i] = hi;
            subst.push(vec![(ny, -1.0)]);
            ny += 1;
        } else {
            subst.push(vec![(ny, 1.0), (ny + 1, -1.0)]);
            ny += 2;
        }
    }
    for c in p.constraints() {
        let mut rhs = c.rhs - c.expr.constant();
        let mut coefs = Vec::new();
        for (v, a) in c.expr.terms() {
            rhs -= a * offset[v.index()];
            coefs.extend(subst[v.index()].iter().map(|&(col, s)| (col, a * s)));
        }
        rows.push((coefs, c.op, rhs));
    }

    // Tableau: y columns, one slack/surplus per inequality, one artificial
    // per `>=`/`=` row (after making every rhs non-negative), then the rhs.
    let m = rows.len();
    let slack0 = ny;
    let art0 = ny + m;
    let width = ny + 2 * m + 1;
    let mut t = vec![vec![0.0; width]; m];
    let mut basis = vec![0usize; m];
    for (r, (coefs, op, rhs)) in rows.iter().enumerate() {
        let flip = if *rhs < 0.0 { -1.0 } else { 1.0 };
        for &(col, a) in coefs {
            t[r][col] += flip * a;
        }
        t[r][width - 1] = flip * rhs;
        // A `<=` row (after the flip) starts on its slack; a `>=` row
        // (surplus) and an `=` row start on an artificial.
        let slack = match (op, flip < 0.0) {
            (ConstraintOp::Eq, _) => 0.0,
            (ConstraintOp::Le, false) | (ConstraintOp::Ge, true) => 1.0,
            _ => -1.0,
        };
        t[r][slack0 + r] = slack;
        basis[r] = if slack > 0.0 { slack0 + r } else { art0 + r };
        t[r][basis[r]] = 1.0;
    }

    // Phase 1: drive the artificials to zero.
    let mut phase1 = vec![0.0; width - 1];
    phase1[art0..].fill(1.0);
    let scale = 1.0 + t.iter().map(|row| row[width - 1]).fold(0.0, f64::max);
    let infeasibility = simplex(&mut t, &mut basis, &phase1, width - 1);
    if infeasibility.is_none_or(|sum| sum > 1e-7 * scale) {
        return Outcome::Infeasible;
    }
    // Swap zero-valued artificials for real columns; a row with none is
    // redundant and stays inert.
    for r in 0..m {
        if basis[r] >= art0 {
            if let Some(col) = (0..art0).find(|&j| t[r][j].abs() > 1e-7) {
                pivot(&mut t, &mut basis, r, col);
            }
        }
    }

    // Phase 2 over the real columns only.
    let mut phase2 = vec![0.0; width - 1];
    for i in 0..n {
        for &(col, s) in &subst[i] {
            phase2[col] += cost[i] * s;
        }
    }
    if simplex(&mut t, &mut basis, &phase2, art0).is_none() {
        return Outcome::Unbounded;
    }
    let mut y = vec![0.0; ny];
    for r in 0..m {
        if basis[r] < ny {
            y[basis[r]] = t[r][width - 1];
        }
    }
    let values: Vec<f64> = (0..n)
        .map(|i| offset[i] + subst[i].iter().map(|&(col, s)| s * y[col]).sum::<f64>())
        .collect();
    let objective = (0..n).map(|i| cost[i] * values[i]).sum();
    Outcome::Optimal { objective, values }
}

/// Primal simplex under Bland's rule from the feasible basis in `t`; only
/// columns below `enterable` may enter. Returns the final `cost·x`, or
/// `None` when the problem is unbounded.
fn simplex(t: &mut [Vec<f64>], basis: &mut [usize], cost: &[f64], enterable: usize) -> Option<f64> {
    let rhs = cost.len();
    for _ in 0..MAX_PIVOTS {
        let reduced =
            |j: usize| cost[j] - (0..t.len()).map(|r| cost[basis[r]] * t[r][j]).sum::<f64>();
        let Some(enter) = (0..enterable).find(|&j| !basis.contains(&j) && reduced(j) < -EPS) else {
            return Some((0..t.len()).map(|r| cost[basis[r]] * t[r][rhs]).sum());
        };
        let mut leave: Option<(usize, f64)> = None;
        for r in 0..t.len() {
            if t[r][enter] > EPS {
                let ratio = t[r][rhs] / t[r][enter];
                let wins = leave.is_none_or(|(l, best)| {
                    ratio < best - EPS || (ratio <= best + EPS && basis[r] < basis[l])
                });
                if wins {
                    leave = Some((r, ratio));
                }
            }
        }
        let (row, _) = leave?;
        pivot(t, basis, row, enter);
    }
    panic!("oracle: simplex did not terminate within {MAX_PIVOTS} pivots");
}

fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize) {
    let inv = 1.0 / t[row][col];
    t[row].iter_mut().for_each(|v| *v *= inv);
    let pivot_row = t[row].clone();
    for (r, other) in t.iter_mut().enumerate() {
        let factor = other[col];
        if r != row && factor != 0.0 {
            for (x, p) in other.iter_mut().zip(&pivot_row) {
                *x -= factor * p;
            }
        }
    }
    basis[row] = col;
}
