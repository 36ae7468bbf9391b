//! The [`Problem`] builder: variables, constraints, objective, solve options.

use crate::branch_bound::{self, SolveContext};
use crate::error::LpError;
use crate::expr::{LinExpr, VarId};
use crate::solution::Solution;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// The integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VarKind {
    /// Any value within the bounds.
    Continuous,
    /// Integer values within the bounds.
    Integer,
    /// Either exactly zero or a value in `[threshold, upper]`.
    ///
    /// This is the construct the Conductor model uses to force the Reduce
    /// phase to start only after the *full* Map output is available (§4.3).
    SemiContinuous {
        /// Minimum non-zero value.
        threshold: f64,
    },
}

/// Relational operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A decision variable record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Variable {
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Lower bound (may be `-inf`).
    pub lower: f64,
    /// Upper bound (may be `+inf`).
    pub upper: f64,
    /// Integrality class.
    pub kind: VarKind,
}

/// A linear constraint `expr op rhs`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Constraint {
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Left-hand side (its constant term is folded into the RHS at solve time).
    pub expr: LinExpr,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// Knobs bounding the solve, mirroring the paper's CPLEX configuration
/// (1 % optimality gap, three-minute wall-clock cap; §4.8 and §6.6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Relative MIP gap at which branch & bound stops (`|best - bound| / |best|`).
    pub relative_gap: f64,
    /// Hard limit on explored branch & bound nodes.
    pub max_nodes: usize,
    /// Hard limit on simplex iterations per LP relaxation.
    pub max_simplex_iterations: usize,
    /// Wall-clock limit for the whole solve.
    pub time_limit: Duration,
    /// Bounded-variable simplex: handle finite upper bounds implicitly via
    /// a nonbasic-at-upper status and a bound-flip ratio test instead of
    /// materializing a span row per bounded variable in the standard form.
    /// Roughly halves the row count on the integer-heavy admission models,
    /// and turns branch & bound's bound overrides into status flips instead
    /// of RHS patches. Default off so existing bitwise pins keep anchoring
    /// the legacy path. The oracle battery (`tests/properties.rs`) and
    /// `fig16_solve_time` exercise both settings; `benchmark/` never names
    /// a flag, so its workloads measure whatever the default is.
    #[serde(default)]
    pub bounded_variables: bool,
    /// Dual steepest-edge pricing for the dual-repair path every
    /// warm-started node runs: pick the leaving row by the steepest-edge
    /// criterion (Devex-style reference-framework weights) instead of the
    /// most-violated rule. Fewer, better pivots on re-solve-dominated
    /// workloads. Default off (see `bounded_variables`).
    #[serde(default)]
    pub dual_steepest_edge: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            relative_gap: 0.01,
            max_nodes: 50_000,
            max_simplex_iterations: 200_000,
            time_limit: Duration::from_secs(180),
            bounded_variables: false,
            dual_steepest_edge: false,
        }
    }
}

/// A mixed-integer linear program under construction.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Problem {
    name: String,
    sense: Sense,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
}

impl Problem {
    /// Creates an empty problem.
    pub fn new(name: impl Into<String>, sense: Sense) -> Self {
        Self {
            name: name.into(),
            sense,
            variables: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
        }
    }

    /// Problem name (used in diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Direction of optimization.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a continuous variable with the given bounds and returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.push_var(name.into(), lower, upper, VarKind::Continuous)
    }

    /// Adds an integer variable with the given bounds.
    pub fn add_int_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.push_var(name.into(), lower, upper, VarKind::Integer)
    }

    /// Adds a semi-continuous variable: its value is either `0` or in
    /// `[threshold, upper]`.
    pub fn add_semicontinuous_var(
        &mut self,
        name: impl Into<String>,
        threshold: f64,
        upper: f64,
    ) -> VarId {
        self.push_var(
            name.into(),
            0.0,
            upper,
            VarKind::SemiContinuous { threshold },
        )
    }

    fn push_var(&mut self, name: String, lower: f64, upper: f64, kind: VarKind) -> VarId {
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name,
            lower,
            upper,
            kind,
        });
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Iterates all variable records in index order.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// Iterates all constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Sets the objective from an iterator of `(variable, coefficient)` terms.
    pub fn set_objective<I: IntoIterator<Item = (VarId, f64)>>(&mut self, terms: I) {
        self.objective = LinExpr::from_terms(terms);
    }

    /// Sets the objective from a pre-built expression (its constant term is
    /// added to the reported objective value).
    pub fn set_objective_expr(&mut self, expr: LinExpr) {
        self.objective = expr;
    }

    /// The current objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// Adds a constraint built from `(variable, coefficient)` terms.
    pub fn add_constraint<I: IntoIterator<Item = (VarId, f64)>>(
        &mut self,
        name: impl Into<String>,
        terms: I,
        op: ConstraintOp,
        rhs: f64,
    ) -> usize {
        self.add_constraint_expr(name, LinExpr::from_terms(terms), op, rhs)
    }

    /// Adds a constraint from a pre-built expression. The expression's
    /// constant term is moved to the right-hand side.
    pub fn add_constraint_expr(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        op: ConstraintOp,
        rhs: f64,
    ) -> usize {
        let idx = self.constraints.len();
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            op,
            rhs,
        });
        idx
    }

    /// Validates the model: bounds are consistent, every referenced variable
    /// exists and every coefficient is finite.
    pub fn validate(&self) -> Result<(), LpError> {
        for v in &self.variables {
            if v.lower.is_nan() || v.upper.is_nan() || v.lower > v.upper {
                return Err(LpError::InvalidBounds {
                    name: v.name.clone(),
                    lower: v.lower,
                    upper: v.upper,
                });
            }
            if let VarKind::SemiContinuous { threshold } = v.kind {
                if !threshold.is_finite() || threshold < 0.0 {
                    return Err(LpError::InvalidBounds {
                        name: v.name.clone(),
                        lower: threshold,
                        upper: v.upper,
                    });
                }
            }
        }
        let n = self.variables.len();
        if !self.objective.is_finite() {
            return Err(LpError::NonFiniteCoefficient {
                context: "objective".into(),
            });
        }
        if let Some(max) = self.objective.max_var_index() {
            if max >= n {
                return Err(LpError::UnknownVariable { index: max });
            }
        }
        for c in &self.constraints {
            if !c.expr.is_finite() || !c.rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    context: format!("constraint `{}`", c.name),
                });
            }
            if let Some(max) = c.expr.max_var_index() {
                if max >= n {
                    return Err(LpError::UnknownVariable { index: max });
                }
            }
        }
        Ok(())
    }

    /// Solves with default options.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solves with explicit options. Dispatches to plain simplex when no
    /// integer or semi-continuous variables are present, and to branch &
    /// bound otherwise.
    pub fn solve_with(&self, options: &SolveOptions) -> Result<Solution, LpError> {
        self.solve_with_context(options, &mut SolveContext::new())
    }

    /// Solves with explicit options through a [`SolveContext`],
    /// sharing one skeleton/factorization with the context's previous solves
    /// and warm-starting the root from the last final basis.
    pub fn solve_with_context(
        &self,
        options: &SolveOptions,
        ctx: &mut SolveContext,
    ) -> Result<Solution, LpError> {
        self.validate()?;
        branch_bound::solve_with_context(self, options, ctx)
    }

    /// `true` if any variable requires branch & bound (integer or semi-continuous).
    pub(crate) fn is_mip(&self) -> bool {
        self.variables
            .iter()
            .any(|v| !matches!(v.kind, VarKind::Continuous))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_counts() {
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        let y = p.add_int_var("y", 0.0, 10.0);
        let z = p.add_semicontinuous_var("z", 2.0, 8.0);
        assert_eq!(p.num_vars(), 3);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
        assert_eq!(z.index(), 2);
        assert!(p.is_mip());
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(
            p.variables()[z.index()].kind,
            VarKind::SemiContinuous { threshold: 2.0 }
        );
    }

    #[test]
    fn pure_lp_is_not_mip() {
        let mut p = Problem::new("t", Sense::Maximize);
        p.add_var("x", 0.0, 1.0);
        assert!(!p.is_mip());
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut p = Problem::new("t", Sense::Minimize);
        p.add_var("x", 2.0, 1.0);
        assert!(matches!(p.validate(), Err(LpError::InvalidBounds { .. })));
    }

    #[test]
    fn validate_rejects_nan_coefficients() {
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        p.add_constraint("c", [(x, f64::NAN)], ConstraintOp::Le, 1.0);
        assert!(matches!(
            p.validate(),
            Err(LpError::NonFiniteCoefficient { .. })
        ));
    }

    #[test]
    fn validate_rejects_foreign_variable() {
        let mut p = Problem::new("a", Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        let mut q = Problem::new("b", Sense::Minimize);
        // `x` does not exist in `q`.
        q.set_objective([(x, 1.0)]);
        assert!(matches!(q.validate(), Err(LpError::UnknownVariable { .. })));
    }

    #[test]
    fn default_options_match_paper_configuration() {
        let o = SolveOptions::default();
        assert!((o.relative_gap - 0.01).abs() < 1e-12);
        assert_eq!(o.time_limit, Duration::from_secs(180));
    }
}
