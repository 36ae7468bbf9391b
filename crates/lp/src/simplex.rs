//! The standard-form rewrite every LP relaxation is solved against, and the
//! solver's numerical tolerances.
//!
//! [`StandardFormSkeleton`] rewrites a user problem into *standard form*
//! once per problem: every variable is shifted/split so that it is
//! non-negative, each row receives a slack and/or artificial column, and the
//! sparse row scatter layout and objective mapping are precomputed. Finite
//! upper bounds become extra *span rows* or, in bounded-variable mode,
//! implicit column bounds ([`StandardFormSkeleton::build`]). Branch & bound
//! nodes only patch shifts and right-hand sides (or flip column statuses)
//! against it instead of re-walking every constraint expression per node;
//! [`crate::revised`] is the solver that consumes it.
//!
//! The column layout is *stable across nodes of one skeleton*: branching
//! only tightens variable bounds, which the skeleton expresses as per-node
//! shifts and span-row RHS patches (a span row `x' + s = upper - lower`
//! exists for every branchable variable; an unbounded side simply makes the
//! RHS `+inf`, which the ratio test ignores). Stability is what makes a
//! parent basis directly meaningful to its children, so a node can
//! warm-start from its parent's final basis: the objective never changes
//! between nodes, the last optimal basis stays *dual feasible* for every
//! sibling, and a handful of dual simplex pivots repair the re-derived
//! right-hand side. The workspace counts each warm start's hit or miss, and
//! a solve reports them in its [`crate::SolveStats`].

use crate::error::LpError;
use crate::problem::{ConstraintOp, Problem, Sense, VarKind};

/// Numerical tolerances of the solver.
pub(crate) const PIVOT_TOL: f64 = 1e-9;
pub(crate) const COST_TOL: f64 = 1e-9;
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// Values within this distance of an integer count as integral.
pub(crate) const INTEGRALITY_TOL: f64 = 1e-6;
/// Minimum pivot magnitude accepted by the dual-repair ratio test. Stricter
/// than `PIVOT_TOL`: reused factorizations accumulate drift across nodes,
/// and a tiny dual pivot amplifies it by its reciprocal.
pub(crate) const DUAL_PIVOT_TOL: f64 = 1e-7;
/// Re-derived basic values above this magnitude mean the basis inverse has
/// degraded too far to trust; the solve falls back to a cold refill.
pub(crate) const REUSE_HEALTH_LIMIT: f64 = 1e10;
/// Cap on dual-simplex repair pivots before giving up on a warm start.
pub(crate) fn repair_pivot_cap(rows: usize, cols: usize) -> usize {
    4 * (rows + cols)
}

/// How an original variable was mapped into standard form.
///
/// The classification is decided once per skeleton from the *root* bounds
/// and stays fixed for every node solved against that skeleton.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VarMap {
    /// `x = shift + x_std[col]`, `shift` = the node's lower bound.
    Shifted { col: usize },
    /// `x = shift - x_std[col]`, `shift` = the node's upper bound
    /// (used when only the upper bound is finite).
    Mirrored { col: usize },
    /// `x = x_std[pos] - x_std[neg]` (free variable).
    Split { pos: usize, neg: usize },
    /// `x = shift` (fixed variable, `lower == upper`).
    Fixed,
}

/// One user constraint in skeleton form: a precomputed scatter list over
/// standard-form columns plus the original terms for per-node RHS patching.
#[derive(Debug, Clone)]
pub(crate) struct SkelRow {
    /// `(standard column, signed coefficient)` — signs already account for
    /// mirroring/splitting; row flips for negative RHS are applied at fill
    /// time.
    pub(crate) scatter: Vec<(usize, f64)>,
    /// `(variable index, original coefficient)` — the per-node RHS is
    /// `base_rhs - Σ coef · shift[var]`.
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) op: ConstraintOp,
    pub(crate) base_rhs: f64,
}

impl SkelRow {
    /// The row `terms op …` under `var_map`, its scatter list derived term
    /// by term; `base_rhs` is left for [`StandardFormSkeleton::bind`].
    fn new(var_map: &[VarMap], terms: Vec<(usize, f64)>, op: ConstraintOp) -> Self {
        let mut scatter = Vec::with_capacity(terms.len() + 1);
        for &(var, coef) in &terms {
            match var_map[var] {
                VarMap::Shifted { col } => scatter.push((col, coef)),
                VarMap::Mirrored { col } => scatter.push((col, -coef)),
                VarMap::Split { pos, neg } => {
                    scatter.push((pos, coef));
                    scatter.push((neg, -coef));
                }
                VarMap::Fixed => {}
            }
        }
        Self {
            scatter,
            terms,
            op,
            base_rhs: 0.0,
        }
    }

    /// This row's right-hand side once every variable sits at its shift:
    /// `base_rhs − Σ coef · shift[var]`, summed in term order.
    pub(crate) fn rhs_under(&self, shifts: &[f64]) -> f64 {
        self.base_rhs
            - self
                .terms
                .iter()
                .map(|&(var, coef)| coef * shifts[var])
                .sum::<f64>()
    }
}

/// The once-per-problem part of the standard-form rewrite.
///
/// Building this walks every constraint expression exactly once; solving a
/// node against it only touches the solver's workspace.
#[derive(Debug, Clone)]
pub(crate) struct StandardFormSkeleton {
    pub(crate) var_map: Vec<VarMap>,
    /// Bounds the classification was derived from (used by
    /// [`StandardFormSkeleton::compatible`]).
    root_lower: Vec<f64>,
    root_upper: Vec<f64>,
    pub(crate) rows: Vec<SkelRow>,
    /// `(standard column, variable index)` for each span row
    /// `x_std[col] + slack = upper - lower`. Always empty in
    /// bounded-variable mode.
    pub(crate) span_rows: Vec<(usize, usize)>,
    /// Per standard structural column: `true` when a span row exists for it
    /// (O(1) lookup; `span_rows` is scanned per bound-override otherwise).
    span_cols: Vec<bool>,
    /// Bounded-variable mode: upper bounds are handled implicitly by the
    /// revised engine (nonbasic-at-upper statuses) instead of span rows.
    bounded: bool,
    pub(crate) num_struct: usize,
    /// Constraint rows (`rows.len()`), before span rows.
    pub(crate) m_constraints: usize,
    /// Total rows = constraints + span rows.
    pub(crate) m_total: usize,
    /// First artificial column; also `num_struct + m_total`.
    pub(crate) artificial_start: usize,
    /// Total standard-form columns (excluding the RHS).
    pub(crate) cols: usize,
    /// Phase-2 cost per column (minimization orientation), fixed per skeleton.
    pub(crate) c: Vec<f64>,
    /// `(variable index, sense-adjusted objective coefficient)` for the
    /// per-node objective constant `obj_base + Σ coef · shift[var]`.
    pub(crate) obj_terms: Vec<(usize, f64)>,
    pub(crate) obj_base: f64,
    /// `+1` when the original problem minimizes, `-1` when it maximizes.
    pub(crate) sense_factor: f64,
    /// How many times [`Self::rebind`] has rewritten `c` and the rows'
    /// `base_rhs` under this address. A workspace that carries reduced costs
    /// or right-hand sides from one solve to the next records the epoch
    /// they were computed at, so a rebind — which keeps the skeleton's
    /// address, the matrix and therefore the factorized basis, but neither
    /// the objective nor the RHS — cannot leave them looking current. Not
    /// part of the checkpoint: a decoded workspace carries neither.
    pub(crate) epoch: u64,
    /// For each variable, the constraint rows whose `terms` mention it
    /// (derived from `rows`; a rebind keeps the matrix, so it stands).
    var_rows: Vec<Vec<usize>>,
}

/// Inverts `rows[..].terms`: which rows does each of `n` variables sit in?
fn rows_by_var(rows: &[SkelRow], n: usize) -> Vec<Vec<usize>> {
    let mut var_rows = vec![Vec::new(); n];
    for (ri, row) in rows.iter().enumerate() {
        for &(var, _) in &row.terms {
            var_rows[var].push(ri);
        }
    }
    var_rows
}

impl StandardFormSkeleton {
    /// Builds the skeleton for `problem` with the given root bound vectors
    /// (typically the declared variable bounds). With `bounded` no span rows
    /// are allocated: finite upper bounds (and branch & bound bound
    /// overrides) are handled implicitly by the revised engine as
    /// nonbasic-at-upper statuses, so `m_total == m_constraints` (about half
    /// the rows of a span-row skeleton on integer-heavy models).
    pub(crate) fn build(
        problem: &Problem,
        lower: &[f64],
        upper: &[f64],
        bounded: bool,
    ) -> Result<Self, LpError> {
        let mut var_map = Vec::with_capacity(problem.num_vars());
        // Per structural column, allocated in variable order: does it get a
        // span row?
        let mut span_cols = Vec::new();

        for (i, v) in problem.variables().iter().enumerate() {
            let (lo, hi) = (lower[i], upper[i]);
            if lo > hi + FEAS_TOL {
                return Err(LpError::Infeasible);
            }
            let branchable = !matches!(v.kind, VarKind::Continuous);
            let col = span_cols.len();
            let map = if lo.is_finite() && hi.is_finite() && (hi - lo).abs() <= 1e-12 {
                VarMap::Fixed
            } else if lo.is_finite() {
                // Branchable variables always get a span row so a later
                // finite upper bound is a pure RHS patch (an unbounded side
                // is RHS = +inf, which the ratio test ignores).
                // Bounded-variable mode needs neither: any upper bound is an
                // implicit column bound.
                span_cols.push(!bounded && (hi.is_finite() || branchable));
                VarMap::Shifted { col }
            } else if hi.is_finite() {
                span_cols.push(false);
                VarMap::Mirrored { col }
            } else {
                span_cols.extend([false, false]);
                VarMap::Split {
                    pos: col,
                    neg: col + 1,
                }
            };
            var_map.push(map);
        }

        let rows = problem
            .constraints()
            .iter()
            .map(|c| {
                let terms: Vec<(usize, f64)> = c
                    .expr
                    .terms()
                    .map(|(var, coef)| (var.index(), coef))
                    .collect();
                SkelRow::new(&var_map, terms, c.op)
            })
            .collect();
        let mut skeleton = Self::from_layout(var_map, rows, span_cols, bounded);
        skeleton.bind(problem, lower, upper);
        Ok(skeleton)
    }

    /// Everything that follows from the layout — the span rows (one per
    /// shifted variable whose column is in `span_cols`, in variable order),
    /// the dimensions and the rows each variable sits in — with nothing
    /// bound yet: `c` is all zeros at its length, the right-hand sides and
    /// the objective are empty until [`Self::bind`].
    fn from_layout(
        var_map: Vec<VarMap>,
        rows: Vec<SkelRow>,
        span_cols: Vec<bool>,
        bounded: bool,
    ) -> Self {
        let span_rows: Vec<(usize, usize)> = var_map
            .iter()
            .enumerate()
            .filter_map(|(var, map)| match *map {
                VarMap::Shifted { col } if span_cols[col] => Some((col, var)),
                _ => None,
            })
            .collect();
        let num_struct = span_cols.len();
        let m_constraints = rows.len();
        let m_total = m_constraints + span_rows.len();
        let artificial_start = num_struct + m_total;
        // Every row owns a slack column; only constraint rows can need an
        // artificial (span rows are `<=` with non-negative RHS). Unused
        // columns stay all-zero, which keeps the layout independent of
        // per-node RHS signs — the price of a few inert columns buys basis
        // stability across the whole branch & bound tree.
        let cols = artificial_start + m_constraints;
        Self {
            var_rows: rows_by_var(&rows, var_map.len()),
            var_map,
            root_lower: Vec::new(),
            root_upper: Vec::new(),
            rows,
            span_rows,
            span_cols,
            bounded,
            num_struct,
            m_constraints,
            m_total,
            artificial_start,
            cols,
            c: vec![0.0; cols],
            obj_terms: Vec::new(),
            obj_base: 0.0,
            sense_factor: 1.0,
            epoch: 0,
        }
    }

    /// The constraint rows whose right-hand side moves with `var`'s shift.
    pub(crate) fn rows_of(&self, var: usize) -> &[usize] {
        &self.var_rows[var]
    }

    /// `true` when this skeleton was built in bounded-variable mode.
    pub(crate) fn is_bounded(&self) -> bool {
        self.bounded
    }

    /// Re-targets this skeleton at `problem` under new root bounds without
    /// rebuilding, provided the standard-form layout is unchanged: the same
    /// per-variable classification (span allocation included) and the same
    /// constraint scatter pattern (operators and coefficients, term for
    /// term). Only the parts a look-alike problem is allowed to vary — the
    /// per-row RHS, the objective, the sense and the stored root bounds —
    /// are refreshed in place.
    ///
    /// Returns `false` (leaving the skeleton untouched) on any structural
    /// mismatch; the caller should build a fresh skeleton instead. On
    /// success a workspace previously filled against this skeleton remains
    /// valid for warm reuse, because the constraint matrix is bit-for-bit
    /// identical — this is what lets a stream of admission solves share one
    /// factorization (see [`crate::SolveContext`]).
    pub(crate) fn rebind(&mut self, problem: &Problem, lower: &[f64], upper: &[f64]) -> bool {
        let n = problem.num_vars();
        if n != self.var_map.len()
            || lower.len() != n
            || upper.len() != n
            || problem.num_constraints() != self.rows.len()
        {
            return false;
        }
        // Verify the classification each (bound pattern, kind) pair would
        // get matches the existing layout. A bound flip that changes the
        // layout (or makes the root infeasible) must take the rebuild path.
        for (i, v) in problem.variables().iter().enumerate() {
            let (lo, hi) = (lower[i], upper[i]);
            if lo > hi + FEAS_TOL {
                return false;
            }
            let branchable = !matches!(v.kind, VarKind::Continuous);
            let fixed = lo.is_finite() && hi.is_finite() && (hi - lo).abs() <= 1e-12;
            let ok = match self.var_map[i] {
                VarMap::Fixed => fixed,
                VarMap::Shifted { col } => {
                    if self.bounded {
                        !fixed && lo.is_finite()
                    } else {
                        let wants_span = hi.is_finite() || branchable;
                        !fixed && lo.is_finite() && wants_span == self.span_cols[col]
                    }
                }
                VarMap::Mirrored { .. } => {
                    if self.bounded {
                        !fixed && hi.is_finite()
                    } else {
                        !fixed && !lo.is_finite() && hi.is_finite()
                    }
                }
                VarMap::Split { .. } => !lo.is_finite() && !hi.is_finite(),
            };
            if !ok {
                return false;
            }
        }
        // The constraint matrix must be identical term for term; only the
        // RHS may move.
        for (row, c) in self.rows.iter().zip(problem.constraints()) {
            if row.op != c.op || row.terms.len() != c.expr.len() {
                return false;
            }
            for (&(var, coef), (v2, c2)) in row.terms.iter().zip(c.expr.terms()) {
                if var != v2.index() || coef != c2 {
                    return false;
                }
            }
        }

        self.bind(problem, lower, upper);
        self.epoch += 1;
        true
    }

    /// Writes what a problem of this layout may vary — the per-row RHS, the
    /// objective (phase-2 costs `c`, zeroed slot by slot, and the constant's
    /// terms), the sense and the root bounds.
    fn bind(&mut self, problem: &Problem, lower: &[f64], upper: &[f64]) {
        let sense_factor = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.sense_factor = sense_factor;
        for (row, c) in self.rows.iter_mut().zip(problem.constraints()) {
            row.base_rhs = c.rhs - c.expr.constant();
        }
        for slot in self.c.iter_mut() {
            *slot = 0.0;
        }
        self.obj_terms.clear();
        for (var, coef) in problem.objective().terms() {
            let coef = coef * sense_factor;
            self.obj_terms.push((var.index(), coef));
            match self.var_map[var.index()] {
                VarMap::Shifted { col } => self.c[col] += coef,
                VarMap::Mirrored { col } => self.c[col] -= coef,
                VarMap::Split { pos, neg } => {
                    self.c[pos] += coef;
                    self.c[neg] -= coef;
                }
                VarMap::Fixed => {}
            }
        }
        self.obj_base = problem.objective().constant() * sense_factor;
        self.root_lower.clear();
        self.root_lower.extend_from_slice(lower);
        self.root_upper.clear();
        self.root_upper.extend_from_slice(upper);
    }

    /// `true` when the given bound overrides are expressible against this
    /// skeleton's fixed layout (classification per variable unchanged).
    pub(crate) fn compatible(&self, lower: &[f64], upper: &[f64]) -> bool {
        if lower.len() != self.var_map.len() || upper.len() != self.var_map.len() {
            return false;
        }
        self.var_map.iter().enumerate().all(|(i, map)| match *map {
            VarMap::Shifted { col } => {
                lower[i].is_finite()
                    && (self.bounded || upper[i] == self.root_upper[i] || self.span_cols[col])
            }
            VarMap::Mirrored { .. } => {
                upper[i].is_finite() && (self.bounded || lower[i] == f64::NEG_INFINITY)
            }
            VarMap::Split { .. } => !lower[i].is_finite() && !upper[i].is_finite(),
            VarMap::Fixed => {
                (upper[i] - lower[i]).abs() <= 1e-12
                    && (lower[i] - self.root_lower[i]).abs() <= 1e-12
            }
        })
    }
}

// --- Checkpoint codec -------------------------------------------------------
//
// Carried: the layout — each variable's mapping (its columns re-derived in
// variable order, as `build` allocates them), each row's terms and operator,
// `span_cols` and `bounded`. Rebuilt on decode: the scatter lists, the span
// rows, the dimensions, `var_rows`, and `c` at its length. Left out, because
// the next solve's `rebind` writes them before anything reads them: the
// values of `c`, `obj_terms`, `obj_base`, `sense_factor`, every `base_rhs`,
// and the root bounds (a next problem of another layout rebuilds the
// skeleton instead). `epoch` only orders rebinds within one
// process.

use crate::state::{ensure, Reader, StateError, Writer};

impl StandardFormSkeleton {
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        w.seq(&self.var_map, |w, map| {
            w.u8(match map {
                VarMap::Shifted { .. } => 0,
                VarMap::Mirrored { .. } => 1,
                VarMap::Split { .. } => 2,
                VarMap::Fixed => 3,
            })
        });
        w.seq(&self.rows, |w, row| {
            w.vec_idx_f64(&row.terms);
            w.u8(match row.op {
                ConstraintOp::Le => 0,
                ConstraintOp::Ge => 1,
                ConstraintOp::Eq => 2,
            });
        });
        w.vec_bool(&self.span_cols);
        w.bool(self.bounded);
    }

    /// Decodes a layout and derives the rest of the skeleton from it,
    /// checking every index a fill, `rebind` or `compatible` follows without
    /// looking: row terms name variables in range, `span_cols` holds one
    /// flag per structural column, and a span column belongs to a shifted
    /// variable of a span-row skeleton.
    pub(crate) fn decode_state(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let mut next_col = 0;
        let var_map: Vec<VarMap> = r.seq(|r| {
            let col = next_col;
            let (map, width) = match r.u8()? {
                0 => (VarMap::Shifted { col }, 1),
                1 => (VarMap::Mirrored { col }, 1),
                2 => (
                    VarMap::Split {
                        pos: col,
                        neg: col + 1,
                    },
                    2,
                ),
                3 => (VarMap::Fixed, 0),
                other => return Err(StateError::new(format!("invalid VarMap tag {other}"))),
            };
            next_col += width;
            Ok(map)
        })?;
        let n = var_map.len();
        let rows = r.seq(|r| {
            let terms = r.vec_idx_f64()?;
            ensure(terms.iter().all(|&(var, _)| var < n), || {
                format!("skeleton: a row term names a variable outside 0..{n}")
            })?;
            let op = match r.u8()? {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Ge,
                2 => ConstraintOp::Eq,
                other => return Err(StateError::new(format!("invalid ConstraintOp tag {other}"))),
            };
            Ok(SkelRow::new(&var_map, terms, op))
        })?;
        let span_cols = r.vec_bool()?;
        let bounded = r.bool()?;
        ensure(span_cols.len() == next_col, || {
            format!(
                "skeleton: {} span flags for {next_col} structural columns",
                span_cols.len()
            )
        })?;
        let skeleton = Self::from_layout(var_map, rows, span_cols, bounded);
        let spans = skeleton.span_cols.iter().filter(|&&span| span).count();
        ensure(
            spans == skeleton.span_rows.len() && !(bounded && spans > 0),
            || {
                "skeleton: a span column on a non-shifted variable or a bounded-variable layout"
                    .into()
            },
        )?;
        Ok(skeleton)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::oracle;
    use crate::problem::SolveOptions;
    use crate::revised::{solve_node_revised, RevisedWorkspace};
    use crate::solution::Solution;

    fn bounds(p: &Problem) -> (Vec<f64>, Vec<f64>) {
        (
            p.variables().iter().map(|v| v.lower).collect(),
            p.variables().iter().map(|v| v.upper).collect(),
        )
    }

    /// Solves the LP `p` through both skeleton layouts (span rows and
    /// implicit column bounds), which must agree, and returns the span-row
    /// answer.
    fn try_solve(p: &Problem) -> Result<Solution, LpError> {
        let spans = p.solve();
        let bounded = p.solve_with(&SolveOptions {
            bounded_variables: true,
            ..Default::default()
        });
        match (&spans, &bounded) {
            (Ok(a), Ok(b)) => assert!(
                (a.objective() - b.objective()).abs() < 1e-7,
                "span rows {} vs bounded {}",
                a.objective(),
                b.objective()
            ),
            (Err(a), Err(b)) => assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b)),
            (a, b) => panic!("span rows {a:?} vs bounded {b:?}"),
        }
        spans
    }

    fn solve(p: &Problem) -> Solution {
        try_solve(p).unwrap()
    }

    #[test]
    fn simple_minimization() {
        // min 2x + 3y  s.t. x + 2y >= 4, x + y <= 10, x,y >= 0  -> x=0, y=2, obj=6
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 2.0), (y, 3.0)]);
        p.add_constraint("c1", [(x, 1.0), (y, 2.0)], ConstraintOp::Ge, 4.0);
        p.add_constraint("c2", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        let r = solve(&p);
        assert!(
            (r.objective() - 6.0).abs() < 1e-6,
            "objective {}",
            r.objective()
        );
        assert!((r.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> obj 36 at (2, 6)
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 3.0), (y, 5.0)]);
        p.add_constraint("c1", [(x, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint("c2", [(y, 2.0)], ConstraintOp::Le, 12.0);
        p.add_constraint("c3", [(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let r = solve(&p);
        assert!((r.objective() - 36.0).abs() < 1e-6);
        assert!((r.value(x) - 2.0).abs() < 1e-6);
        assert!((r.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_problem() {
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("c1", [(x, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint("c2", [(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert!(matches!(try_solve(&p), Err(LpError::Infeasible)));
    }

    #[test]
    fn unbounded_problem() {
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        assert!(matches!(try_solve(&p), Err(LpError::Unbounded)));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x - y = 1 -> x=3, y=2
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("sum", [(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0);
        p.add_constraint("diff", [(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let r = solve(&p);
        assert!((r.value(x) - 3.0).abs() < 1e-6);
        assert!((r.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn variable_upper_bounds_are_respected() {
        // max x + y with x <= 2 (bound), y <= 3 (bound), x + y <= 4
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", 0.0, 2.0);
        let y = p.add_var("y", 0.0, 3.0);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("cap", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        let r = solve(&p);
        assert!((r.objective() - 4.0).abs() < 1e-6);
        assert!(r.value(x) <= 2.0 + 1e-9);
        assert!(r.value(y) <= 3.0 + 1e-9);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min x + y with x >= 2, y >= 3, x + y >= 7 -> obj 7
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 2.0, f64::INFINITY);
        let y = p.add_var("y", 3.0, f64::INFINITY);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 7.0);
        let r = solve(&p);
        assert!((r.objective() - 7.0).abs() < 1e-6);
        assert!(r.value(x) >= 2.0 - 1e-9);
        assert!(r.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn free_variables_can_go_negative() {
        // min x s.t. x >= -5 expressed via a constraint on a free variable.
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("lb", [(x, 1.0)], ConstraintOp::Ge, -5.0);
        let r = solve(&p);
        assert!((r.objective() + 5.0).abs() < 1e-6);
        assert!((r.value(x) + 5.0).abs() < 1e-6);
    }

    #[test]
    fn mirrored_variable_only_upper_bound() {
        // max x with x <= 9 and no lower bound, but constraint x >= 1.
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", f64::NEG_INFINITY, 9.0);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("lb", [(x, 1.0)], ConstraintOp::Ge, 1.0);
        let r = solve(&p);
        assert!((r.objective() - 9.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable_is_substituted() {
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 4.0, 4.0);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0);
        let r = solve(&p);
        assert!((r.value(x) - 4.0).abs() < 1e-9);
        assert!((r.value(y) - 6.0).abs() < 1e-6);
        assert!((r.objective() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn constant_in_constraint_expr_moves_to_rhs() {
        // (x + 1) <= 3  =>  x <= 2
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        p.add_constraint_expr("c", LinExpr::from(x) + 1.0, ConstraintOp::Le, 3.0);
        let r = solve(&p);
        assert!((r.objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn objective_constant_is_reported() {
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective_expr(LinExpr::from(x) + 100.0);
        p.add_constraint("c", [(x, 1.0)], ConstraintOp::Ge, 1.0);
        let r = solve(&p);
        assert!((r.objective() - 101.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP; Bland fallback must prevent cycling.
        let mut p = Problem::new("t", Sense::Minimize);
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
        let r = solve(&p);
        assert!(
            (r.objective() + 0.05).abs() < 1e-6,
            "objective {}",
            r.objective()
        );
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 stated twice; still solvable.
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0), (y, 2.0)]);
        p.add_constraint("c1", [(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        p.add_constraint("c2", [(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        let r = solve(&p);
        assert!((r.objective() - 2.0).abs() < 1e-6);
        assert!((r.value(x) - 2.0).abs() < 1e-6);
    }

    // ----- skeleton / warm-start specific coverage -----

    /// A small knapsack-ish MIP whose branch nodes exercise span-row patches.
    fn knapsack_with(prices: [f64; 3], weight_b: f64, cap: f64) -> Problem {
        let mut p = Problem::new("k", Sense::Maximize);
        let a = p.add_int_var("a", 0.0, 1.0);
        let b = p.add_int_var("b", 0.0, 1.0);
        let c = p.add_int_var("c", 0.0, 1.0);
        p.set_objective([(a, prices[0]), (b, prices[1]), (c, prices[2])]);
        p.add_constraint(
            "cap",
            [(a, 5.0), (b, weight_b), (c, 4.0)],
            ConstraintOp::Le,
            cap,
        );
        p
    }

    fn knapsack() -> (Problem, Vec<f64>, Vec<f64>) {
        let p = knapsack_with([8.0, 11.0, 6.0], 7.0, 10.0);
        let (lower, upper) = bounds(&p);
        (p, lower, upper)
    }

    #[test]
    fn skeleton_solve_matches_one_shot() {
        let (p, lower, upper) = knapsack();
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut x = Vec::new();
        let node = solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x).unwrap();
        let reference = oracle::solve_lp(&p, &lower, &upper).objective();
        assert!((node.objective - reference).abs() < 1e-9);
        assert_eq!(x.len(), 3);
        // A cold solve attempts no warm start.
        assert_eq!(ws.warm_start_counts(), (0, 0));
    }

    #[test]
    fn warm_start_child_matches_cold_child() {
        let (p, lower, upper) = knapsack();
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut x = Vec::new();
        solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x).unwrap();

        // Branch b (index 1) down to 0 and up to 1, warm-starting each child.
        for (attempts, (lo_b, hi_b)) in [(0.0, 0.0), (1.0, 1.0)].into_iter().enumerate() {
            let mut lo = lower.clone();
            let mut hi = upper.clone();
            lo[1] = lo_b;
            hi[1] = hi_b;
            assert!(sk.compatible(&lo, &hi));
            let warm = solve_node_revised(&sk, &mut ws, &lo, &hi, true, 10_000, &mut x).unwrap();
            let mut cold_ws = RevisedWorkspace::default();
            let cold =
                solve_node_revised(&sk, &mut cold_ws, &lo, &hi, false, 10_000, &mut x).unwrap();
            assert!(
                (warm.objective - cold.objective).abs() < 1e-7,
                "warm {} vs cold {} for b in [{lo_b}, {hi_b}]",
                warm.objective,
                cold.objective
            );
            let (hits, misses) = ws.warm_start_counts();
            assert_eq!(
                hits + misses,
                attempts + 1,
                "each child attempts a warm start"
            );
        }
    }

    #[test]
    fn span_row_with_infinite_upper_is_inert() {
        // Integer variable with no upper bound: the span-row skeleton still
        // allocates a span row (RHS = +inf) so children can tighten it later;
        // the bounded skeleton needs none.
        let mut p = Problem::new("inf-span", Sense::Minimize);
        let x = p.add_int_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("lb", [(x, 1.0)], ConstraintOp::Ge, 3.0);
        let lower = vec![0.0];
        let upper = vec![f64::INFINITY];
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        assert_eq!(sk.m_total, 2, "constraint row + span row");
        let bounded = StandardFormSkeleton::build(&p, &lower, &upper, true).unwrap();
        assert_eq!(bounded.m_total, 1, "constraint row only");
        let mut ws = RevisedWorkspace::default();
        let mut v = Vec::new();
        let r = solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut v).unwrap();
        assert!((r.objective - 3.0).abs() < 1e-6);
        // Tightening the upper bound is a pure RHS patch on the span row.
        let r2 = solve_node_revised(&sk, &mut ws, &lower, &[5.0], true, 10_000, &mut v).unwrap();
        assert!((r2.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn incompatible_bounds_are_detected() {
        let (p, lower, upper) = knapsack();
        // An infinite lower bound changes the classification of variable 0
        // in either layout.
        let mut lo = lower.clone();
        lo[0] = f64::NEG_INFINITY;
        for bounded in [false, true] {
            let sk = StandardFormSkeleton::build(&p, &lower, &upper, bounded).unwrap();
            assert!(!sk.compatible(&lo, &upper));
            assert!(sk.compatible(&lower, &upper));
        }
    }

    #[test]
    fn rebind_takes_a_new_rhs_and_objective_but_not_a_new_matrix() {
        let (p, lower, upper) = knapsack();
        let mut sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut x = Vec::new();
        solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x).unwrap();

        // Same matrix, new capacity and prices: rebinds in place, and a warm
        // solve against the rebound skeleton matches the relaxation's optimum.
        let repriced = knapsack_with([9.0, 10.0, 7.0], 7.0, 12.0);
        assert!(sk.rebind(&repriced, &lower, &upper));
        let warm = solve_node_revised(&sk, &mut ws, &lower, &upper, true, 10_000, &mut x).unwrap();
        let (hits, misses) = ws.warm_start_counts();
        assert_eq!(hits + misses, 1, "the rebound solve attempts a warm start");
        let reference = oracle::solve_lp(&repriced, &lower, &upper).objective();
        assert!((warm.objective - reference).abs() < 1e-7);

        // A changed coefficient or a changed bound pattern is a different
        // layout: refused, and the skeleton keeps serving the bound problem.
        assert!(!sk.rebind(&knapsack_with([9.0, 10.0, 7.0], 7.5, 12.0), &lower, &upper));
        assert!(!sk.rebind(&repriced, &[f64::NEG_INFINITY, 0.0, 0.0], &upper));
        let again = solve_node_revised(&sk, &mut ws, &lower, &upper, true, 10_000, &mut x).unwrap();
        assert!((again.objective - warm.objective).abs() < 1e-9);
    }

    #[test]
    fn workspace_shared_across_skeletons_with_equal_cols_stays_correct() {
        // Skeleton A (two free variables, one `>=` row) and skeleton B (one
        // free variable, two contradictory `=` rows) land on the same total
        // column count with different artificial_start. State left over
        // from A (cached on length alone) would let B's infeasibility go
        // undetected.
        let mut a = Problem::new("a", Sense::Minimize);
        let x = a.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = a.add_var("y", f64::NEG_INFINITY, f64::INFINITY);
        a.set_objective([(x, 1.0), (y, 0.0)]);
        a.add_constraint("lo", [(x, 1.0)], ConstraintOp::Ge, 1.0);
        let (la, ua) = (vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2]);
        let sk_a = StandardFormSkeleton::build(&a, &la, &ua, false).unwrap();

        let mut b = Problem::new("b", Sense::Minimize);
        let z = b.add_var("z", f64::NEG_INFINITY, f64::INFINITY);
        b.set_objective([(z, 1.0)]);
        b.add_constraint("e1", [(z, 1.0)], ConstraintOp::Eq, 5.0);
        b.add_constraint("e2", [(z, 1.0)], ConstraintOp::Eq, 3.0);
        let (lb, ub) = (vec![f64::NEG_INFINITY], vec![f64::INFINITY]);
        let sk_b = StandardFormSkeleton::build(&b, &lb, &ub, false).unwrap();

        let mut ws = RevisedWorkspace::default();
        let mut v = Vec::new();
        let ra = solve_node_revised(&sk_a, &mut ws, &la, &ua, false, 1_000, &mut v).unwrap();
        assert!((ra.objective - 1.0).abs() < 1e-6);
        let rb = solve_node_revised(&sk_b, &mut ws, &lb, &ub, true, 1_000, &mut v);
        assert!(matches!(rb, Err(LpError::Infeasible)), "{:?}", rb.err());
    }

    #[test]
    fn workspace_is_reusable_across_many_solves() {
        let (p, lower, upper) = knapsack();
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut x = Vec::new();
        let reference = solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x)
            .unwrap()
            .objective;
        for _ in 0..50 {
            let r =
                solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x).unwrap();
            assert!((r.objective - reference).abs() < 1e-9);
        }
    }
}
