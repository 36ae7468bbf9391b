//! # conductor-lp
//!
//! A self-contained linear / mixed-integer programming solver used as the
//! optimization substrate of the Conductor reproduction. The original paper
//! dispatches its dynamic linear programs to CPLEX; this crate provides the
//! subset of functionality Conductor's models actually need:
//!
//! * continuous variables with lower/upper bounds,
//! * **integer** variables (node counts),
//! * **semi-continuous** variables (the Map→Reduce phase barrier of §4.3),
//! * linear constraints (`<=`, `>=`, `=`),
//! * linear objectives (minimize or maximize),
//! * one LP-relaxation engine — a **sparse revised simplex** with an
//!   LU-factorized basis, solved against a once-per-problem standard-form
//!   rewrite of the model — and
//! * branch & bound with a relative gap tolerance, node limit and wall-clock
//!   time limit (mirroring the paper's "bound the solving time to three
//!   minutes and use the best solution computed so far", §4.8).
//!
//! # The public surface
//!
//! A model goes in and a plan comes out, as in the paper's hand-off to an
//! off-the-shelf solver. There are two ways in:
//!
//! * [`Problem`] — build the model, then [`Problem::solve`],
//!   [`Problem::solve_with`] (explicit [`SolveOptions`]) or
//!   [`Problem::solve_with_context`];
//! * [`SolveContext`] — the reuse state a stream of look-alike problems
//!   shares: its factorized basis warm-starts the next solve's root, its
//!   [`SolveContext::relaxation_bound`] solves the root LP alone, and
//!   [`SolveContext::export_state`] / [`SolveContext::import_state`]
//!   checkpoint it bit for bit.
//!
//! A model is written with [`VarId`]s, [`VarKind`]s, [`LinExpr`]s, a
//! [`ConstraintOp`] per row and a [`Sense`]. The answer is a [`Solution`]
//! (a [`SolveStatus`], the objective, the point and [`SolveStats`]) or an
//! [`LpError`]; a blob that does not decode is a [`StateError`]. Every
//! module is private, and so is the engine behind these types — standard
//! form, revised simplex, LU factors, branch & bound, the checkpoint codec.
//!
//! The API is deliberately small and builder-style:
//!
//! ```
//! use conductor_lp::{Problem, Sense, ConstraintOp};
//!
//! let mut p = Problem::new("diet", Sense::Minimize);
//! let x = p.add_var("x", 0.0, f64::INFINITY);
//! let y = p.add_var("y", 0.0, f64::INFINITY);
//! p.set_objective([(x, 2.0), (y, 3.0)]);
//! p.add_constraint("protein", [(x, 1.0), (y, 2.0)], ConstraintOp::Ge, 4.0);
//! p.add_constraint("budget", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective() - 6.0).abs() < 1e-6);
//! assert!((sol.value(y) - 2.0).abs() < 1e-6);
//! ```

mod branch_bound;
mod error;
mod expr;
mod lu;
mod problem;
mod revised;
mod simplex;
mod solution;
mod sparse;
mod state;

pub use branch_bound::SolveContext;
pub use error::LpError;
pub use expr::{LinExpr, VarId};
pub use problem::{ConstraintOp, Problem, Sense, SolveOptions, VarKind};
pub use solution::{Solution, SolveStats, SolveStatus};
pub use state::StateError;

// The revised engine's unit tests check it against the workspace's test-only
// reference solver, which addresses this crate by its external name.
#[cfg(test)]
extern crate self as conductor_lp;
#[cfg(test)]
#[path = "../../../tests/support/oracle.rs"]
mod oracle;
