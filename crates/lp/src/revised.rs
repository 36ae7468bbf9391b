//! Sparse revised simplex with an LU-factorized basis.
//!
//! The LP-relaxation engine behind branch & bound. It solves against a
//! [`StandardFormSkeleton`] (variable mapping, row layout, span rows and
//! per-node RHS patching) and, where a textbook tableau pays O(m·cols) per
//! pivot, keeps:
//!
//! * the constraint matrix held once in CSC form ([`crate::sparse`]),
//! * the basis kept as a sparse LU factorization with product-form eta
//!   updates and periodic refactorization ([`crate::lu`]),
//! * sparse FTRAN/BTRAN solves for the entering column and the pricing
//!   duals, and
//! * **partial pricing** in the classic *multiple pricing* form: a full
//!   Dantzig scan every few iterations shortlists the most negative
//!   reduced-cost columns, and the iterations in between price only that
//!   shortlist. Pivot quality stays near-Dantzig (the entering column right
//!   after a scan *is* the global most-negative one) while the
//!   per-iteration pricing cost drops from O(nnz(A)) to O(shortlist).
//!
//! Per-iteration cost drops from O(m·cols) to O(nnz). Warm starts across
//! branch & bound nodes re-derive the node RHS *through the factorization*
//! (`x_B = B⁻¹·b`), so there is no ceiling on consecutive reuses: every
//! refactorization recomputes `x_B` from scratch, and an explicit residual
//! check (`‖B·x_B − b‖∞`) at each reuse converts drift into a counted
//! refresh instead of a blind cold refill.
//!
//! Infinite span-row right-hand sides (branchable variables with no upper
//! bound) cannot flow through LU solves the way they would through dense
//! tableau arithmetic, so the RHS is carried as the pair `b = b_f + ∞·b_w`
//! and the basic solution as `x = x_f + ∞·x_w`; a basic value is "infinite"
//! exactly when its `x_w` weight is positive, which is what the ratio tests
//! check.
//!
//! Two optional upgrades, each flagged in
//! [`crate::problem::SolveOptions`], modernize the hot path:
//!
//! * **Bounded-variable simplex** (skeleton built by
//!   [`StandardFormSkeleton::build`] with `bounded`): upper bounds live as a
//!   nonbasic-at-upper status plus a bound-flip ratio test instead of
//!   explicit span rows, so the effective RHS is
//!   `b_eff = b − Σ_{j at upper} u_j·A_j` and branch & bound bound
//!   overrides become status flips rather than span-RHS patches. The split
//!   `∞·b_w` machinery is inert here (`has_inf` is never set).
//! * **Dual steepest-edge pricing** for the warm-start repair: leaving rows
//!   are ranked by `δ²/γ` with Devex-style reference-framework weights
//!   (`γ = 1` at repair start, `γ'_i = max(γ_i, (w_i/w_r)²γ_r)` per pivot —
//!   no extra FTRAN).
//!
//! # Bit-exactness: what may be skipped, cached or reordered
//!
//! Which tenant a fleet admits is chaotic in the pivot path (one different
//! bit in one reduced cost can re-order a ratio test a thousand nodes
//! later), so this engine is optimised under one rule: **every
//! floating-point operation that survives is performed on the same operands
//! in the same order**, and `tests/solver_pins.rs` pins the resulting
//! trajectory per solve. Under that rule
//!
//! * a *recomputation whose every input is unchanged* may be replaced by
//!   the value it produced last time. That is the whole of the carried
//!   certificate ([`RevisedWorkspace`]'s `d_certified`): the full pricing
//!   scan that ends phase 2 has computed every `d_j = c_j − a_j·y`; the next
//!   node's dual repair starts from the same basis, factors and `c`, so it
//!   takes `d` as it stands, and a repair that needs no pivot skips the
//!   polish, whose scan would price the same bits and find nothing again.
//!   The mark is cleared by every pivot and bound flip (`update_factors`,
//!   `bound_flip`), every refactorization (eta limit, drift refresh, cold
//!   `fill`), a demoted at-upper status, `invalidate`, decoding
//!   a checkpoint — and by a [`StandardFormSkeleton::rebind`], which swaps
//!   `c` under a live workspace at an unchanged address (hence the epoch
//!   the mark carries). Debug builds re-derive `d` at every use and assert
//!   bit equality (`debug_check_certificate`). The per-row right-hand sides
//!   (`rhs_epoch`) are carried by the same argument: a row none of whose
//!   variables moved its shift re-sums to the bits it already holds;
//! * a *pure boolean conjunction* may be evaluated in any order and stopped
//!   at the first `false` (the rounding heuristic asks the constraint that
//!   refuted the last point first);
//! * a *whole node solve* may be replayed by the same rule: a warm start
//!   whose repair needed no pivot under a surviving certificate skips the
//!   polish and changes nothing it reads (`NodeLp::replayable`), so when
//!   branch & bound's very next solve has bit-identical bounds (the child of
//!   a point that is fractional to the integrality test but feasible to the
//!   LP's tolerance is its parent again) it takes the objective and point
//!   it already holds and counts the warm hit the solve would have counted
//!   (`count_replayed_hit`). Debug builds re-solve every replayed node and
//!   assert bit equality;
//! * *storage* may change shape — reused buffers, pooled eta entry lists,
//!   an ascending list of the non-basic columns instead of a flag test per
//!   column, a bitmap instead of a binary heap for a drain whose order is
//!   ascending either way — as long as every loop still visits the same
//!   elements in the same order wherever the order reaches a float (a sum,
//!   a tie-break).
//!
//! What may **not** change: a division replaced by a multiplication with a
//! reciprocal, a re-associated or vectorised sum, a fused multiply-add, the
//! order of the terms of a dot product, or the cadence of pivots and
//! refactorizations. Nor may work be skipped *because an operand is an
//! exact zero* unless the sign of that zero provably cannot escape:
//! `0.0 / u_diag[k]` is `−0.0` under a negative pivot, `(−0.0) − (−0.0)` is
//! `+0.0`, `f64::max(-0.0, 0.0)` in `extract_original_values` may return
//! either, the vendored `serde_json` prints `-0.0`, and branch & bound's
//! `HeapEntry` orders nodes with `total_cmp`, for which the two zeros
//! differ. The `!= 0.0` guards the LU solves already carry are part of the
//! pinned arithmetic; adding another one is a behaviour change.

use crate::error::LpError;
use crate::lu::{eta_limit, BasisFactorization};
use crate::problem::ConstraintOp;
use crate::simplex::{
    repair_pivot_cap, StandardFormSkeleton, VarMap, COST_TOL, DUAL_PIVOT_TOL, FEAS_TOL, PIVOT_TOL,
    REUSE_HEALTH_LIMIT,
};
use crate::sparse::CscMatrix;

/// `x_w` weights below this magnitude count as exactly finite.
const INF_W_TOL: f64 = 1e-9;

/// Eta-file length (as a multiple of [`eta_limit`]) beyond which a solve
/// whose refactorizations keep failing is declared numerically lost.
const ETA_GIVE_UP_FACTOR: usize = 6;

/// Internal abort reason: either a real LP outcome or numerical trouble
/// that warrants one stabilized cold restart.
enum SolveAbort {
    Lp(LpError),
    Numerical,
}

impl From<LpError> for SolveAbort {
    fn from(e: LpError) -> Self {
        SolveAbort::Lp(e)
    }
}

/// Reusable state of the revised engine: the CSC matrix, the factorized
/// basis, the split RHS/solution vectors and all scratch buffers. One
/// workspace serves an entire branch & bound tree.
///
/// The fields fall in three groups, by what a checkpoint does with them
/// (`crate::state`'s module doc states the rule).
#[derive(Debug, Clone, Default)]
pub(crate) struct RevisedWorkspace {
    // Rebuilt on decode, from the skeleton's layout and the carried fields.
    /// The constraint matrix, from the skeleton and `fill_flip`
    /// ([`assemble_matrix`]).
    a: CscMatrix,
    /// Per standard column: is it in `basis`?
    is_basic: Vec<bool>,

    // Carried: read by the next solve before it writes them.
    bf: BasisFactorization,
    basis: Vec<usize>,
    /// Row-sign convention chosen by the fill that built the CSC matrix:
    /// `±1.0` per row.
    fill_flip: Vec<f64>,
    /// Per standard column: `true` when nonbasic at its (finite) upper
    /// bound. This is the status the bound-flip ratio test toggles and the
    /// status branch & bound bound overrides flip (bounded-variable mode;
    /// all-false on span-row skeletons).
    at_upper: Vec<bool>,
    /// Eta count at which the next refactorization attempt is allowed
    /// (backed off after a failed attempt so a temporarily singular basis
    /// cannot trigger an O(m²) factorization per pivot).
    refactor_after: usize,
    /// `true` when the factorized state is phase-2 optimal and the next
    /// solve may warm-start from it.
    reusable: bool,
    /// Address of the skeleton the state was filled against (a checkpoint
    /// carries whether it matched, and a decode re-binds it).
    skeleton_tag: usize,
    warm_hits: usize,
    warm_misses: usize,
    /// Bound flips performed by the bounded-variable ratio test.
    bound_flips: usize,

    // Written before any read by every solve, and so never carried: the
    // node's values and the scratch retained across solves.
    /// The matrix's entries before assembly.
    triplets: Vec<(usize, usize, f64)>,
    /// Node RHS, row space: actual value is `b_f + ∞·b_w`.
    b_f: Vec<f64>,
    b_w: Vec<f64>,
    /// Basic solution, basis-position space: `x_f + ∞·x_w`.
    x_f: Vec<f64>,
    x_w: Vec<f64>,
    /// Per-variable mapping constant for the current node.
    shifts: Vec<f64>,
    /// `Some(epoch)` while the constraint rows of `b_f` are the skeleton's
    /// (at that epoch) right-hand sides under `shifts`: every fill and every
    /// warm start leaves them so, and the next warm start re-sums only the
    /// rows holding a variable whose shift moved — re-summing any other row
    /// would reproduce the bits it holds. A decoded workspace re-sums every
    /// row once.
    rhs_epoch: Option<u64>,
    /// The variables whose shift the current node moved.
    moved: Vec<usize>,
    obj_constant: f64,
    b_scale: f64,
    has_inf: bool,
    /// Phase-1 cost (1 on artificial columns).
    phase1_cost: Vec<f64>,
    /// Pricing duals, or the dual repair's pivot row `e_rᵀB⁻¹`.
    y: Vec<f64>,
    /// The FTRAN'd entering column.
    w: Vec<f64>,
    /// Phase-2 reduced costs `d_j = c_j − a_j·y` of the non-basic,
    /// non-artificial columns (zero elsewhere): written by every full
    /// pricing scan, updated in place by the dual repair.
    d: Vec<f64>,
    /// `Some(epoch)` while `d` is *certified*: the full pricing scan that
    /// ended the last phase-2 optimization found no entering column, at
    /// skeleton cost epoch `epoch`, and neither the basis, the factors nor
    /// a column status has changed since. The next warm start then begins
    /// its dual repair from `d` as it stands, and a repair that needs no
    /// pivot is already optimal. Cleared by everything that could make a
    /// recomputation differ by a bit (the module doc lists them); a decoded
    /// workspace recomputes, which is the original arithmetic.
    d_certified: Option<u64>,
    /// The dual repair's row of `B⁻¹·A` over the non-basic columns.
    alpha: Vec<f64>,
    /// The drift check's residual.
    resid: Vec<f64>,
    /// Multiple-pricing shortlist: the most negative reduced-cost columns
    /// found by the last full pricing scan, re-priced (cheaply) each
    /// iteration until the list dries up. Cleared by every `optimize`.
    candidates: Vec<usize>,
    /// The full scan's bounded insertion list behind `candidates`.
    scored: Vec<(usize, f64)>,
    /// The standard-form values behind a solve's returned point.
    std_values: Vec<f64>,
    /// The non-basic, non-artificial columns (ascending) during a dual
    /// repair.
    nonbasic: Vec<usize>,
    /// Force Bland's rule from iteration 0 (set for the stabilized retry
    /// after numerical trouble, and reset after it).
    force_bland: bool,
    /// Per standard column: its implicit upper bound for the current node
    /// (`+∞` when unbounded; recomputed per node from the bound overrides).
    col_upper: Vec<f64>,
    /// Effective RHS `b_f − Σ_{j at upper} u_j·A_j`, kept in sync with
    /// `at_upper`; equals `b_f` bitwise when no column is at its upper.
    b_eff: Vec<f64>,
    /// Dual steepest-edge weights `γ_i ≈ ‖B⁻ᵀe_i‖²` (reference framework:
    /// reset to 1 at each repair start).
    dse_gamma: Vec<f64>,
    /// Use dual steepest-edge row selection in the warm-start repair (set
    /// by [`RevisedWorkspace::configure`] before every solve).
    use_dse: bool,
}

impl RevisedWorkspace {
    /// Cumulative `(hits, misses)` of warm-start attempts.
    pub(crate) fn warm_start_counts(&self) -> (usize, usize) {
        (self.warm_hits, self.warm_misses)
    }

    /// Cumulative `(factorizations, refactorizations)`: total LU builds and
    /// the subset triggered mid-stream by the eta limit or a drift check.
    pub(crate) fn factorization_counts(&self) -> (usize, usize) {
        (self.bf.factorizations, self.bf.refactorizations)
    }

    /// `true` once a solve has left a basis here: a later solve against the
    /// *same* skeleton may then be asked to warm-start from it.
    pub(crate) fn has_basis(&self) -> bool {
        !self.basis.is_empty()
    }

    /// Declares the factorized state stale so the next solve takes the cold
    /// path. Must be called whenever the skeleton this workspace was filled
    /// against is dropped or rebuilt: the warm-reuse guard compares skeleton
    /// *addresses*, and a fresh allocation can legally reuse a freed one.
    pub(crate) fn invalidate(&mut self) {
        self.reusable = false;
        self.d_certified = None;
        self.rhs_epoch = None;
        self.skeleton_tag = 0;
    }

    /// Selects the repair pricing rule for every subsequent solve. The
    /// weights restart at every repair, so toggling needs no invalidation.
    pub(crate) fn configure(&mut self, dual_steepest_edge: bool) {
        self.use_dse = dual_steepest_edge;
    }

    /// Cumulative bound flips by the bounded-variable ratio test.
    pub(crate) fn bound_flips(&self) -> usize {
        self.bound_flips
    }

    /// Counts the warm hit of a solve its caller replayed instead of
    /// running (see [`NodeLp::replayable`]): the count is exported state.
    pub(crate) fn count_replayed_hit(&mut self) {
        self.warm_hits += 1;
    }
}

/// Outcome of a warm-start attempt.
enum ReuseOutcome {
    Reused(usize),
    Infeasible,
    Fallback,
}

enum RepairResult {
    Done(usize),
    Infeasible,
    GaveUp,
}

/// One relaxation's outcome when the point itself went into the caller's
/// buffer: objective in the original sense and simplex iterations (both
/// phases plus warm-start repair pivots).
pub(crate) struct NodeLp {
    pub(crate) objective: f64,
    pub(crate) iterations: usize,
    /// `true` when the solve was a warm start whose repair needed no pivot
    /// under a certificate that survived it, so the polish was skipped. Such
    /// a solve changed nothing its inputs feed on: solving the same bounds
    /// again, warm, before anything else touches the workspace reproduces
    /// its objective and point bit for bit, and adds one warm hit.
    pub(crate) replayable: bool,
}

/// Solves the continuous relaxation described by `skeleton` under the given
/// bound overrides with the sparse revised simplex, writing the point into
/// `values` (cleared first); the final basis stays in the workspace.
///
/// `warm` authorizes a warm start from the workspace's own last optimal
/// basis, taken only when that basis was left against this same skeleton;
/// `false` forces the cold two-phase path. The caller must
/// ensure `skeleton.compatible(lower, upper)` holds; branch & bound
/// guarantees it structurally.
pub(crate) fn solve_node_revised(
    skeleton: &StandardFormSkeleton,
    ws: &mut RevisedWorkspace,
    lower: &[f64],
    upper: &[f64],
    warm: bool,
    max_iterations: usize,
    values: &mut Vec<f64>,
) -> Result<NodeLp, LpError> {
    for i in 0..lower.len() {
        if lower[i] > upper[i] + FEAS_TOL {
            return Err(LpError::Infeasible);
        }
    }
    debug_assert!(
        skeleton.compatible(lower, upper),
        "bound overrides changed the layout"
    );

    let tag = skeleton as *const StandardFormSkeleton as usize;
    let mut solver = RSolver { sk: skeleton, ws };

    let mut warm_iterations: Option<usize> = None;
    let mut replayable = false;
    if warm && solver.ws.reusable && solver.ws.skeleton_tag == tag {
        solver.ws.reusable = false; // re-armed only on success
        match solver.try_reuse(lower, upper) {
            ReuseOutcome::Reused(pivots) => {
                let m = skeleton.m_total;
                let polish_cap = (2 * (m + skeleton.cols)).max(64).min(max_iterations);
                // A repair that needed no pivot under a certificate that
                // survived it stands on the basis, the factors and the
                // costs the certifying scan saw: the polish would rebuild
                // the same duals, rescan the same reduced costs, find no
                // entering column and leave the workspace as it is. (The
                // repair's debug check has already re-priced this state.)
                let shortcut = pivots == 0 && polish_cap > 0 && solver.certified();
                let polished = if shortcut {
                    Ok(0)
                } else {
                    solver.optimize(&skeleton.c, polish_cap, false)
                };
                if let Ok(n) = polished {
                    warm_iterations = Some(n + pivots);
                    replayable = shortcut;
                    solver.ws.warm_hits += 1;
                }
            }
            ReuseOutcome::Infeasible => {
                solver.ws.warm_hits += 1;
                solver.ws.reusable = true;
                return Err(LpError::Infeasible);
            }
            ReuseOutcome::Fallback => {}
        }
        // A warm start that neither succeeded nor proved the node
        // infeasible falls back to the cold path below.
        if warm_iterations.is_none() {
            solver.ws.warm_misses += 1;
        }
    }

    let iterations = match warm_iterations {
        Some(n) => n,
        None => {
            solver.fill(lower, upper);
            solver.ws.skeleton_tag = tag;
            match solver.optimize_two_phase(max_iterations) {
                Ok(n) => n,
                Err(SolveAbort::Lp(e)) => {
                    solver.ws.reusable = false;
                    return Err(e);
                }
                Err(SolveAbort::Numerical) => {
                    // Numerical trouble (a basis the LU cannot trust, e.g.
                    // after a noise-level pivot): restart once from a fresh
                    // slack/artificial basis under Bland's rule, the most
                    // conservative pivot regime.
                    solver.fill(lower, upper);
                    solver.ws.force_bland = true;
                    let retry = solver.optimize_two_phase(max_iterations);
                    solver.ws.force_bland = false;
                    match retry {
                        Ok(n) => n,
                        Err(SolveAbort::Lp(e)) => {
                            solver.ws.reusable = false;
                            return Err(e);
                        }
                        Err(SolveAbort::Numerical) => {
                            solver.ws.reusable = false;
                            return Err(LpError::IterationLimit {
                                iterations: max_iterations,
                            });
                        }
                    }
                }
            }
        }
    };

    solver.extract_original_values(lower, upper, values);
    let min_obj = solver.objective_for(&solver.sk.c) + solver.ws.obj_constant;
    solver.ws.reusable = true;

    Ok(NodeLp {
        objective: min_obj * skeleton.sense_factor,
        iterations,
        replayable,
    })
}

/// The operator a constraint row takes once its sign is flipped (to make
/// its right-hand side non-negative) or not.
fn effective_op(op: ConstraintOp, flip: bool) -> ConstraintOp {
    match (op, flip) {
        (ConstraintOp::Le, false) | (ConstraintOp::Ge, true) => ConstraintOp::Le,
        (ConstraintOp::Ge, false) | (ConstraintOp::Le, true) => ConstraintOp::Ge,
        (ConstraintOp::Eq, _) => ConstraintOp::Eq,
    }
}

/// Assembles `skeleton`'s constraint matrix under the row signs `fill_flip`
/// (`±1.0` per row): each constraint row's scatter list times its sign,
/// then its slack (`−1` when the flipped row is `≥`) and its artificial
/// (unless the row is `≤`), then each span row's column and slack. A cold
/// fill and a decoded checkpoint both build the matrix here, so every
/// column holds its entries in the same order and every dot product over
/// it sums the same terms in the same order.
fn assemble_matrix(
    skeleton: &StandardFormSkeleton,
    fill_flip: &[f64],
    triplets: &mut Vec<(usize, usize, f64)>,
    a: &mut CscMatrix,
) {
    let sk = skeleton;
    triplets.clear();
    for (ri, row) in sk.rows.iter().enumerate() {
        let sign = fill_flip[ri];
        for &(col, coef) in &row.scatter {
            triplets.push((col, ri, sign * coef));
        }
        let slack_col = sk.num_struct + ri;
        let art_col = sk.artificial_start + ri;
        match effective_op(row.op, sign < 0.0) {
            ConstraintOp::Le => triplets.push((slack_col, ri, 1.0)),
            ConstraintOp::Ge => {
                triplets.push((slack_col, ri, -1.0));
                triplets.push((art_col, ri, 1.0));
            }
            ConstraintOp::Eq => triplets.push((art_col, ri, 1.0)),
        }
    }
    for (k, &(col, _)) in sk.span_rows.iter().enumerate() {
        let ri = sk.m_constraints + k;
        triplets.push((col, ri, 1.0));
        triplets.push((sk.num_struct + ri, ri, 1.0));
    }
    a.assemble(sk.m_total, sk.cols, triplets);
}

struct RSolver<'a> {
    sk: &'a StandardFormSkeleton,
    ws: &'a mut RevisedWorkspace,
}

impl<'a> RSolver<'a> {
    /// `true` while `ws.d` holds the certified reduced costs of *this*
    /// skeleton's current objective.
    fn certified(&self) -> bool {
        self.ws.d_certified == Some(self.sk.epoch)
    }

    fn compute_node_scalars(&mut self, lower: &[f64], upper: &[f64]) {
        let sk = self.sk;
        let ws = &mut *self.ws;
        ws.shifts.resize(sk.var_map.len(), 0.0);
        ws.moved.clear();
        for (i, map) in sk.var_map.iter().enumerate() {
            let shift = match *map {
                VarMap::Shifted { .. } => lower[i],
                VarMap::Mirrored { .. } => upper[i],
                VarMap::Fixed => lower[i],
                VarMap::Split { .. } => 0.0,
            };
            if shift.to_bits() != ws.shifts[i].to_bits() {
                ws.shifts[i] = shift;
                ws.moved.push(i);
            }
        }
        ws.obj_constant = sk.obj_base
            + sk.obj_terms
                .iter()
                .map(|&(var, coef)| coef * ws.shifts[var])
                .sum::<f64>();
        // Per-node implicit column bounds. Slacks and artificials are
        // unbounded above; in legacy (span-row) mode every column is, which
        // makes the bounded-variable code paths degrade to the exact legacy
        // arithmetic.
        ws.col_upper.clear();
        ws.col_upper.resize(sk.cols, f64::INFINITY);
        if sk.is_bounded() {
            for (i, map) in sk.var_map.iter().enumerate() {
                match *map {
                    VarMap::Shifted { col } | VarMap::Mirrored { col } => {
                        ws.col_upper[col] = (upper[i] - lower[i]).max(0.0);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Cold fill: rebuilds the CSC matrix (with this node's row-sign
    /// convention), the split RHS, the slack/artificial basis and the
    /// trivial (identity) factorization.
    fn fill(&mut self, lower: &[f64], upper: &[f64]) {
        self.compute_node_scalars(lower, upper);
        let sk = self.sk;
        let ws = &mut *self.ws;
        ws.reusable = false;
        ws.d_certified = None;
        let m = sk.m_total;
        ws.fill_flip.clear();
        ws.fill_flip.resize(m, 1.0);
        ws.b_f.clear();
        ws.b_f.resize(m, 0.0);
        ws.b_w.clear();
        ws.b_w.resize(m, 0.0);
        ws.basis.clear();
        ws.basis.resize(m, 0);
        ws.is_basic.clear();
        ws.is_basic.resize(sk.cols, false);
        ws.phase1_cost.clear();
        ws.phase1_cost.resize(sk.cols, 0.0);
        for j in sk.artificial_start..sk.cols {
            ws.phase1_cost[j] = 1.0;
        }
        ws.b_scale = 0.0;
        ws.has_inf = false;
        ws.refactor_after = 0;
        ws.rhs_epoch = Some(sk.epoch);

        for (ri, row) in sk.rows.iter().enumerate() {
            let rhs = row.rhs_under(&ws.shifts);
            let flip = rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            ws.fill_flip[ri] = sign;
            let b = sign * rhs;
            ws.b_f[ri] = b;
            ws.b_scale = ws.b_scale.max(b.abs());
            let basic = match effective_op(row.op, flip) {
                ConstraintOp::Le => sk.num_struct + ri,
                ConstraintOp::Ge | ConstraintOp::Eq => sk.artificial_start + ri,
            };
            ws.basis[ri] = basic;
            ws.is_basic[basic] = true;
        }

        for (k, &(_, var)) in sk.span_rows.iter().enumerate() {
            let ri = sk.m_constraints + k;
            let slack_col = sk.num_struct + ri;
            let span = (upper[var] - lower[var]).max(0.0);
            if span.is_finite() {
                ws.b_f[ri] = span;
                ws.b_scale = ws.b_scale.max(span);
            } else {
                ws.b_w[ri] = 1.0;
                ws.has_inf = true;
            }
            ws.basis[ri] = slack_col;
            ws.is_basic[slack_col] = true;
        }

        assemble_matrix(sk, &ws.fill_flip, &mut ws.triplets, &mut ws.a);
        // Cold fills start every column at its lower bound, so the
        // effective RHS is the raw one.
        ws.at_upper.clear();
        ws.at_upper.resize(sk.cols, false);
        ws.b_eff.clear();
        ws.b_eff.extend_from_slice(&ws.b_f);
        // The slack/artificial basis is the identity; the factorization of
        // an identity cannot fail.
        ws.bf
            .refactorize(&ws.a, &ws.basis, false)
            .expect("identity basis factorization");
        ws.x_f.clear();
        ws.x_f.extend_from_slice(&ws.b_f);
        ws.x_w.clear();
        ws.x_w.extend_from_slice(&ws.b_w);
    }

    /// Rebuilds `b_eff = b_f − Σ_{j at upper} u_j·A_j` from scratch (used
    /// when the node RHS or the bound set changed wholesale).
    fn rebuild_effective_rhs(&mut self) {
        let ws = &mut *self.ws;
        ws.b_eff.clear();
        ws.b_eff.extend_from_slice(&ws.b_f);
        for j in 0..ws.at_upper.len() {
            if ws.at_upper[j] {
                let u = ws.col_upper[j];
                if u != 0.0 {
                    ws.a.axpy_col(j, -u, &mut ws.b_eff);
                }
            }
        }
    }

    /// Flips column `j`'s nonbasic status and keeps `b_eff` in sync.
    fn set_at_upper(&mut self, j: usize, to_upper: bool) {
        let ws = &mut *self.ws;
        if ws.at_upper[j] == to_upper {
            return;
        }
        ws.at_upper[j] = to_upper;
        let u = ws.col_upper[j];
        debug_assert!(!to_upper || u.is_finite());
        if u != 0.0 && u.is_finite() {
            let s = if to_upper { -u } else { u };
            ws.a.axpy_col(j, s, &mut ws.b_eff);
        }
    }

    /// Refactorizes and recomputes `x = B⁻¹·b` from scratch. Returns `false`
    /// (leaving the still-valid eta representation in place) if the basis is
    /// numerically singular.
    fn refactor_and_recompute(&mut self, refresh: bool) -> bool {
        let ws = &mut *self.ws;
        ws.d_certified = None;
        if ws.bf.refactorize(&ws.a, &ws.basis, refresh).is_err() {
            return false;
        }
        ws.refactor_after = 0;
        ws.x_f.clear();
        ws.x_f.extend_from_slice(&ws.b_eff);
        ws.bf.ftran(&mut ws.x_f);
        ws.x_w.clear();
        ws.x_w.resize(ws.b_w.len(), 0.0);
        if ws.has_inf {
            ws.x_w.copy_from_slice(&ws.b_w);
            ws.bf.ftran(&mut ws.x_w);
            for v in ws.x_w.iter_mut() {
                if v.abs() <= INF_W_TOL {
                    *v = 0.0;
                }
            }
        }
        true
    }

    /// Applies the pivot `(leave row, entering column)` given the FTRAN'd
    /// entering column in `ws.w`: updates the basic solution, the basis
    /// bookkeeping and the eta file, refactorizing at the eta limit.
    ///
    /// Returns `Err(SolveAbort::Numerical)` when the eta file has grown far
    /// past the limit because refactorizations keep failing — the basis has
    /// degenerated numerically and the caller must restart.
    fn pivot(&mut self, leave: usize, enter: usize) -> Result<(), SolveAbort> {
        let m = self.sk.m_total;
        {
            let ws = &mut *self.ws;
            let wr = ws.w[leave];
            debug_assert!(wr.abs() > PIVOT_TOL);
            let theta_f = ws.x_f[leave] / wr;
            let theta_w = ws.x_w[leave] / wr;
            for i in 0..m {
                if i == leave {
                    continue;
                }
                let wi = ws.w[i];
                if wi != 0.0 {
                    ws.x_f[i] -= theta_f * wi;
                    ws.x_w[i] -= theta_w * wi;
                    if ws.x_w[i].abs() <= INF_W_TOL {
                        ws.x_w[i] = 0.0;
                    }
                }
            }
            ws.x_f[leave] = theta_f;
            ws.x_w[leave] = if theta_w.abs() <= INF_W_TOL {
                0.0
            } else {
                theta_w
            };
            let old = ws.basis[leave];
            ws.is_basic[old] = false;
            ws.basis[leave] = enter;
            ws.is_basic[enter] = true;
        }
        self.update_factors(leave)
    }

    /// Shared factor-update tail of every basis change: `ws.w` must hold
    /// the FTRAN'd entering column (`B_old⁻¹·a_enter`) and the basis
    /// bookkeeping must already reflect the new basis. Appends the eta and
    /// refactorizes at the eta limit.
    fn update_factors(&mut self, leave: usize) -> Result<(), SolveAbort> {
        let m = self.sk.m_total;
        self.ws.d_certified = None;
        self.ws.bf.push_eta(leave, &self.ws.w);
        let limit = eta_limit(m);
        let count = self.ws.bf.eta_count();
        if count >= limit && count >= self.ws.refactor_after {
            if self.refactor_and_recompute(true) {
                self.ws.refactor_after = 0;
            } else {
                // The eta file stays valid; back off so a
                // (temporarily) singular basis cannot cost an O(m²)
                // factorization attempt on every pivot.
                self.ws.refactor_after = count + limit;
                if count >= ETA_GIVE_UP_FACTOR * limit {
                    return Err(SolveAbort::Numerical);
                }
            }
        }
        Ok(())
    }

    /// Bounded-variable basis change: the entering column moves by `t` in
    /// direction `dir` (+1 when entering from its lower bound, −1 from its
    /// upper) until the basic variable in `leave` hits the bound selected
    /// by `leave_to_upper`. `ws.w` must hold `B⁻¹·a_enter`. The `∞·x_w`
    /// machinery is untouched: bounded skeletons never produce infinite
    /// RHS components.
    fn pivot_step(
        &mut self,
        leave: usize,
        enter: usize,
        dir: f64,
        leave_to_upper: bool,
    ) -> Result<(), SolveAbort> {
        let m = self.sk.m_total;
        let old = self.ws.basis[leave];
        {
            let ws = &mut *self.ws;
            let wr = dir * ws.w[leave];
            debug_assert!(wr.abs() > PIVOT_TOL);
            let target = if leave_to_upper {
                ws.col_upper[old]
            } else {
                0.0
            };
            let t = (ws.x_f[leave] - target) / wr;
            for i in 0..m {
                if i == leave {
                    continue;
                }
                let wi = dir * ws.w[i];
                if wi != 0.0 {
                    ws.x_f[i] -= t * wi;
                }
            }
            ws.x_f[leave] = if dir > 0.0 {
                t
            } else {
                ws.col_upper[enter] - t
            };
        }
        if self.ws.at_upper[enter] {
            self.set_at_upper(enter, false);
        }
        {
            let ws = &mut *self.ws;
            ws.is_basic[old] = false;
            ws.basis[leave] = enter;
            ws.is_basic[enter] = true;
        }
        if leave_to_upper {
            self.set_at_upper(old, true);
        }
        self.update_factors(leave)
    }

    /// Bound flip: the entering column hit its own opposite bound before
    /// any basic variable blocked. No basis change — only the basic values
    /// and the column's status move. `ws.w` must hold `B⁻¹·a_enter`.
    fn bound_flip(&mut self, enter: usize, dir: f64) {
        let m = self.sk.m_total;
        let span = self.ws.col_upper[enter];
        debug_assert!(span.is_finite());
        {
            let ws = &mut *self.ws;
            for i in 0..m {
                let wi = dir * ws.w[i];
                if wi != 0.0 {
                    ws.x_f[i] -= span * wi;
                }
            }
        }
        let now_upper = !self.ws.at_upper[enter];
        self.set_at_upper(enter, now_upper);
        self.ws.bound_flips += 1;
        self.ws.d_certified = None;
    }

    /// Primal revised simplex iterations for the given cost vector.
    fn optimize(
        &mut self,
        cost: &[f64],
        max_iterations: usize,
        allow_artificials: bool,
    ) -> Result<usize, SolveAbort> {
        let sk = self.sk;
        let m = sk.m_total;
        let cols = sk.cols;
        let enterable_end = if allow_artificials {
            cols
        } else {
            sk.artificial_start
        };
        let bland_threshold = 4 * (m + cols);
        // The shortlist is only meaningful for one cost vector / phase.
        self.ws.candidates.clear();

        let mut iterations = 0usize;
        loop {
            if iterations >= max_iterations {
                return Err(LpError::IterationLimit { iterations }.into());
            }
            // Pricing duals y = B⁻ᵀ·c_B.
            {
                let ws = &mut *self.ws;
                ws.y.clear();
                ws.y.extend(ws.basis.iter().map(|&b| cost[b]));
                ws.bf.btran(&mut ws.y);
            }
            let use_bland = self.ws.force_bland || iterations >= bland_threshold;
            let entering = if use_bland {
                self.price_bland(cost, enterable_end)
            } else {
                self.price_partial(cost, enterable_end)
            };
            let Some(enter) = entering else {
                // A full scan just priced every non-basic column against
                // these factors and found nothing to enter. For the
                // phase-2 costs that is the certificate the next warm
                // start resumes from (Bland's scan stores no `d`).
                if !allow_artificials && !use_bland {
                    self.ws.d_certified = Some(sk.epoch);
                }
                return Ok(iterations);
            };

            // Entering column w = B⁻¹·a_enter.
            {
                let ws = &mut *self.ws;
                ws.w.clear();
                ws.w.resize(m, 0.0);
                ws.a.scatter_col(enter, &mut ws.w);
                ws.bf.ftran(&mut ws.w);
            }

            // Two-pass ratio test (minimum ratio, largest pivot among
            // near-ties) plus a Harris-style fallback: when
            // the exact rule would pivot on a noise-level entry (|w| ≲ 1e-7,
            // which de-conditions the LU factorization), the minimum ratio
            // is relaxed by the feasibility tolerance to reach a safe pivot.
            // A tiny `w_i` inflates its relaxed ratio by `tol / w_i`, so the
            // fallback escapes the noise row whenever a healthy pivot exists.
            //
            // In bounded-variable mode the test is two-sided: the entering
            // column moves in `dir` (−1 when entering from its upper
            // bound), basic variables can block at their own upper bounds
            // (`dir·w < 0` rows), and the entering column's own span is a
            // blocking "row" of its own — hitting it first is a bound flip,
            // not a pivot. With every `col_upper` infinite (legacy
            // skeletons) all of this degrades to the exact legacy
            // arithmetic.
            let dir = if self.ws.at_upper[enter] { -1.0 } else { 1.0 };
            let enter_span = self.ws.col_upper[enter];
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                if self.ws.x_w[i] != 0.0 {
                    continue;
                }
                let a = dir * self.ws.w[i];
                if a > PIVOT_TOL {
                    let ratio = self.ws.x_f[i] / a;
                    if ratio < best_ratio {
                        best_ratio = ratio;
                    }
                } else if a < -PIVOT_TOL {
                    let u = self.ws.col_upper[self.ws.basis[i]];
                    if u.is_finite() {
                        let ratio = (self.ws.x_f[i] - u) / a;
                        if ratio < best_ratio {
                            best_ratio = ratio;
                        }
                    }
                }
            }
            if best_ratio.is_infinite() && enter_span.is_infinite() {
                return Err(LpError::Unbounded.into());
            }
            if enter_span <= best_ratio {
                self.bound_flip(enter, dir);
                iterations += 1;
                continue;
            }
            let pick = |bound: f64, ws: &RevisedWorkspace| -> (Option<(usize, bool)>, f64) {
                let mut leave: Option<(usize, bool)> = None;
                let mut best_pivot = 0.0f64;
                for i in 0..m {
                    if ws.x_w[i] != 0.0 {
                        continue;
                    }
                    let a = dir * ws.w[i];
                    let (ratio, to_upper);
                    if a > PIVOT_TOL {
                        ratio = ws.x_f[i] / a;
                        to_upper = false;
                    } else if a < -PIVOT_TOL {
                        let u = ws.col_upper[ws.basis[i]];
                        if !u.is_finite() {
                            continue;
                        }
                        ratio = (ws.x_f[i] - u) / a;
                        to_upper = true;
                    } else {
                        continue;
                    }
                    if ratio <= bound {
                        let better = if use_bland {
                            leave.is_none_or(|(l, _)| ws.basis[i] < ws.basis[l])
                        } else {
                            a.abs() > best_pivot
                        };
                        if better {
                            best_pivot = a.abs();
                            leave = Some((i, to_upper));
                        }
                    }
                }
                (leave, best_pivot)
            };
            let tie_window = best_ratio.abs() * 1e-9 + 1e-12;
            let (mut leave, chosen_pivot) = pick(best_ratio + tie_window, self.ws);
            if leave.is_none_or(|_| chosen_pivot <= 1e-7) && !use_bland {
                // Dangerous (or no) pivot under the exact rule: relax the
                // step bound by the feasibility tolerance and retry. The
                // relaxed step stays capped by the entering span so a
                // "safer" pivot cannot push the entering column past its
                // own bound by more than the tolerance.
                let feas_tol = FEAS_TOL * (1.0 + self.ws.b_scale);
                let mut theta_max = enter_span;
                for i in 0..m {
                    if self.ws.x_w[i] != 0.0 {
                        continue;
                    }
                    let a = dir * self.ws.w[i];
                    if a > PIVOT_TOL {
                        let relaxed = (self.ws.x_f[i] + feas_tol) / a;
                        if relaxed < theta_max {
                            theta_max = relaxed;
                        }
                    } else if a < -PIVOT_TOL {
                        let u = self.ws.col_upper[self.ws.basis[i]];
                        if u.is_finite() {
                            let relaxed = (self.ws.x_f[i] - u - feas_tol) / a;
                            if relaxed < theta_max {
                                theta_max = relaxed;
                            }
                        }
                    }
                }
                let (relaxed_leave, relaxed_pivot) = pick(theta_max, self.ws);
                if relaxed_leave.is_some() && relaxed_pivot > chosen_pivot {
                    leave = relaxed_leave;
                }
            }
            let Some((leave, leave_to_upper)) = leave else {
                return Err(LpError::Unbounded.into());
            };

            if self.sk.is_bounded() {
                self.pivot_step(leave, enter, dir, leave_to_upper)?;
            } else {
                debug_assert!(dir > 0.0 && !leave_to_upper);
                self.pivot(leave, enter)?;
            }
            iterations += 1;
        }
    }

    /// Multiple pricing. Re-price the current shortlist (a handful of
    /// `col_dot`s) and take its most negative member; when the shortlist
    /// dries up, run one full Dantzig scan to rebuild it — the entering
    /// column of that iteration is then the *global* most negative, and
    /// optimality is certified exactly when a full scan finds nothing.
    fn price_partial(&mut self, cost: &[f64], enterable_end: usize) -> Option<usize> {
        /// Shortlist capacity: enough to amortize the full scans without
        /// letting pivots drift far from the Dantzig choice.
        const SHORTLIST: usize = 24;
        let RevisedWorkspace {
            candidates,
            scored,
            a,
            is_basic,
            y,
            d,
            at_upper,
            ..
        } = &mut *self.ws;

        // A column nonbasic at its upper bound improves the objective by
        // *decreasing*, so its pricing score is the negated reduced cost;
        // at-lower columns keep the plain Dantzig score. (`at_upper` is
        // all-false on legacy skeletons.)
        let score_of = |j: usize, d: f64| if at_upper[j] { -d } else { d };

        // Cheap pass over the existing shortlist.
        let mut best: Option<(usize, f64)> = None;
        candidates.retain(|&j| {
            if j >= enterable_end || is_basic[j] {
                return false;
            }
            let d = score_of(j, cost[j] - a.col_dot(j, y));
            if d < -COST_TOL {
                if best.is_none_or(|(_, b)| d < b) {
                    best = Some((j, d));
                }
                true
            } else {
                false
            }
        });
        if let Some((j, _)) = best {
            return Some(j);
        }

        // Full scan: rebuild the shortlist with the most negative columns
        // (simple bounded insertion keeps the worst member at the tail),
        // leaving every reduced cost it computes in `d` — laid out as the
        // dual repair lays them out, so a scan that ends phase 2 hands the
        // next warm start its starting point.
        candidates.clear();
        scored.clear();
        d.clear();
        d.resize(a.cols(), 0.0);
        for j in 0..enterable_end {
            if is_basic[j] {
                continue;
            }
            d[j] = cost[j] - a.col_dot(j, y);
            let score = score_of(j, d[j]);
            if score < -COST_TOL {
                let at = scored.partition_point(|&(_, s)| s <= score);
                if at < SHORTLIST {
                    scored.insert(at, (j, score));
                    scored.truncate(SHORTLIST);
                }
            }
        }
        candidates.extend(scored.iter().map(|&(j, _)| j));
        scored.first().map(|&(j, _)| j)
    }

    /// Bland's rule (anti-cycling): first non-basic column with a negative
    /// reduced cost, scanning from column 0.
    fn price_bland(&mut self, cost: &[f64], enterable_end: usize) -> Option<usize> {
        let ws = &mut *self.ws;
        (0..enterable_end).find(|&j| {
            if ws.is_basic[j] {
                return false;
            }
            let d = cost[j] - ws.a.col_dot(j, &ws.y);
            let score = if ws.at_upper[j] { -d } else { d };
            score < -COST_TOL
        })
    }

    fn optimize_two_phase(&mut self, max_iterations: usize) -> Result<usize, SolveAbort> {
        let sk = self.sk;
        if sk.m_total == 0 {
            if sk.c.iter().any(|&c| c < -COST_TOL) {
                return Err(LpError::Unbounded.into());
            }
            return Ok(0);
        }

        let mut it1 = 0usize;
        let needs_phase1 = self.ws.basis.iter().any(|&b| b >= sk.artificial_start);
        if needs_phase1 {
            let phase1_cost = std::mem::take(&mut self.ws.phase1_cost);
            let r = self.optimize(&phase1_cost, max_iterations, true);
            let phase1_obj = self.objective_for(&phase1_cost);
            self.ws.phase1_cost = phase1_cost;
            it1 = r?;
            if phase1_obj > FEAS_TOL * (1.0 + self.ws.b_scale) {
                return Err(LpError::Infeasible.into());
            }
            self.expel_artificials()?;
        }

        let it2 = self.optimize(&self.sk.c, max_iterations.saturating_sub(it1), false)?;
        Ok(it1 + it2)
    }

    /// After phase 1, pivot basic artificials (value ≈ 0) out of the basis
    /// where a usable non-artificial pivot exists in their row.
    fn expel_artificials(&mut self) -> Result<(), SolveAbort> {
        let sk = self.sk;
        let m = sk.m_total;
        for i in 0..m {
            if self.ws.basis[i] < sk.artificial_start {
                continue;
            }
            // Row i of B⁻¹·A via BTRAN(e_i).
            {
                let ws = &mut *self.ws;
                ws.y.clear();
                ws.y.resize(m, 0.0);
                ws.y[i] = 1.0;
                ws.bf.btran(&mut ws.y);
            }
            let target = (0..sk.artificial_start)
                .find(|&j| !self.ws.is_basic[j] && self.ws.a.col_dot(j, &self.ws.y).abs() > 1e-7);
            if let Some(j) = target {
                let ws = &mut *self.ws;
                ws.w.clear();
                ws.w.resize(m, 0.0);
                ws.a.scatter_col(j, &mut ws.w);
                ws.bf.ftran(&mut ws.w);
                // The degenerate pivot must itself be safely sized, or it
                // would be exactly the noise pivot the ratio test avoids.
                if ws.w[i].abs() > 1e-7 {
                    self.pivot(i, j)?;
                }
            }
        }
        Ok(())
    }

    /// Warm start: re-derive this node's RHS through the factorized basis,
    /// verify the factorization against the node (residual drift check), and
    /// dual-repair any negative basic values.
    fn try_reuse(&mut self, lower: &[f64], upper: &[f64]) -> ReuseOutcome {
        let sk = self.sk;
        let m = sk.m_total;
        if m == 0
            || self.ws.basis.len() != m
            || self.ws.a.rows() != m
            || self.ws.a.cols() != sk.cols
            || self.ws.at_upper.len() != sk.cols
        {
            return ReuseOutcome::Fallback;
        }
        self.compute_node_scalars(lower, upper);

        // Long update files both slow solves and accumulate error: refresh
        // before trusting the factorization with a new node. (Only the
        // factorization is rebuilt here — this node's RHS is written, and
        // x = B⁻¹·b computed from it, just below.)
        if self.ws.bf.eta_count() >= eta_limit(m) {
            let ws = &mut *self.ws;
            ws.d_certified = None;
            if ws.bf.refactorize(&ws.a, &ws.basis, true).is_err() {
                return ReuseOutcome::Fallback;
            }
            ws.refactor_after = 0;
        }

        let ws = &mut *self.ws;
        ws.has_inf = false;
        if ws.rhs_epoch == Some(sk.epoch) {
            for &var in &ws.moved {
                for &ri in sk.rows_of(var) {
                    ws.b_f[ri] = ws.fill_flip[ri] * sk.rows[ri].rhs_under(&ws.shifts);
                }
            }
        } else {
            for (ri, row) in sk.rows.iter().enumerate() {
                ws.b_f[ri] = ws.fill_flip[ri] * row.rhs_under(&ws.shifts);
                ws.b_w[ri] = 0.0;
            }
            ws.rhs_epoch = Some(sk.epoch);
        }
        for (k, &(_, var)) in sk.span_rows.iter().enumerate() {
            let ri = sk.m_constraints + k;
            let span = (upper[var] - lower[var]).max(0.0);
            if span.is_finite() {
                ws.b_f[ri] = span;
                ws.b_w[ri] = 0.0;
            } else {
                ws.b_f[ri] = 0.0;
                ws.b_w[ri] = 1.0;
                ws.has_inf = true;
            }
        }
        if sk.is_bounded() {
            // This is the bounded-variable warm start in full: the node's
            // bound overrides arrive as fresh `col_upper` values with the
            // *statuses* carried over — a status flip, not an RHS patch. A
            // status can outlive the bound that made it meaningful (a node
            // widening an upper back to ∞): demote it to at-lower and let
            // the dual repair re-establish feasibility.
            for j in 0..sk.cols {
                if ws.at_upper[j] && !ws.col_upper[j].is_finite() {
                    ws.at_upper[j] = false;
                    // The certifying scan scored this column at its upper.
                    ws.d_certified = None;
                }
            }
        }
        self.rebuild_effective_rhs();

        // x = B⁻¹·b through the factorization.
        let ws = &mut *self.ws;
        ws.x_f.clear();
        ws.x_f.extend_from_slice(&ws.b_eff);
        ws.bf.ftran(&mut ws.x_f);
        ws.x_w.clear();
        ws.x_w.resize(m, 0.0);
        if ws.has_inf {
            ws.x_w.copy_from_slice(&ws.b_w);
            ws.bf.ftran(&mut ws.x_w);
        }
        let mut b_scale = 0.0f64;
        for i in 0..m {
            if ws.x_f[i].abs() > REUSE_HEALTH_LIMIT {
                return ReuseOutcome::Fallback;
            }
            if ws.x_w[i].abs() <= INF_W_TOL {
                ws.x_w[i] = 0.0;
            }
            // Rows with x_w ≠ 0 sit at ±∞ in the big-M reading of the
            // infinite span rows. A −∞ row (a branch just turned this
            // variable's span finite) is simply the most negative leaving
            // candidate of the dual repair; +∞ rows usually cancel back to
            // finite once the negative rows are repaired. Irreparable
            // leftovers (±∞ on structural or artificial rows) are caught by
            // the post-repair validation below.
            if ws.x_w[i] == 0.0 {
                b_scale = b_scale.max(ws.x_f[i].abs());
            }
        }
        ws.b_scale = b_scale;
        let tol = FEAS_TOL * (1.0 + b_scale);

        // Drift check: the factorization must still reproduce B·x_f = b_f.
        // (The finite and infinite components are independent, so checking
        // the finite part covers every row.) A failed check triggers one
        // counted refresh; failing again means the basis is untrustworthy.
        if !self.node_residual_ok()
            && (!self.refactor_and_recompute(true) || !self.node_residual_ok())
        {
            return ReuseOutcome::Fallback;
        }

        for i in 0..m {
            if self.ws.basis[i] >= sk.artificial_start && self.ws.x_f[i] > tol {
                return ReuseOutcome::Fallback;
            }
        }

        let pivots = match self.dual_repair(repair_pivot_cap(m, sk.cols)) {
            RepairResult::Done(p) => p,
            RepairResult::Infeasible => return ReuseOutcome::Infeasible,
            RepairResult::GaveUp => {
                return ReuseOutcome::Fallback;
            }
        };

        let sk = self.sk;
        for i in 0..m {
            if self.ws.basis[i] >= sk.artificial_start
                && (self.ws.x_f[i] > tol || self.ws.x_w[i] != 0.0)
            {
                return ReuseOutcome::Fallback;
            }
            // Repair pivots on −∞ rows can park a variable at +∞; that is
            // fine for slacks (an unbinding row) but unrepresentable for
            // structural variables.
            if self.ws.basis[i] < sk.num_struct && self.ws.x_w[i] != 0.0 {
                return ReuseOutcome::Fallback;
            }
        }
        ReuseOutcome::Reused(pivots)
    }

    /// `‖B·x_f − b_eff‖∞ ≤ tol` — does the factorized basis still
    /// reproduce the (effective) node RHS it claims to solve? (`b_eff`
    /// equals `b_f` bitwise outside bounded-variable mode.)
    fn node_residual_ok(&mut self) -> bool {
        let ws = &mut *self.ws;
        ws.resid.clear();
        ws.resid.extend_from_slice(&ws.b_eff);
        for (i, &b) in ws.basis.iter().enumerate() {
            let x = ws.x_f[i];
            if x != 0.0 {
                ws.a.axpy_col(b, -x, &mut ws.resid);
            }
        }
        let tol = FEAS_TOL * (1.0 + ws.b_scale);
        ws.resid.iter().all(|v| v.abs() <= tol)
    }

    /// Dual simplex repair: restore primal feasibility while keeping the
    /// phase-2 dual feasibility inherited from the last optimal solve.
    ///
    /// In bounded-variable mode a basic value can violate either of its
    /// bounds (`δ < 0` below lower, `δ > 0` above upper — the latter is how
    /// a tightened branch bound surfaces after a status-flip warm start),
    /// and nonbasic-at-upper columns join the ratio test with negated
    /// signs. With dual steepest-edge enabled, leaving rows are ranked by
    /// `δ²/γ` (Devex-style weights over a reference framework: `γ = 1` at
    /// repair start) instead of by worst violation.
    fn dual_repair(&mut self, cap: usize) -> RepairResult {
        let sk = self.sk;
        let m = sk.m_total;
        let tol = FEAS_TOL * (1.0 + self.ws.b_scale);
        let use_dse = self.ws.use_dse;
        if use_dse {
            let ws = &mut *self.ws;
            ws.dse_gamma.clear();
            ws.dse_gamma.resize(m, 1.0);
        }

        // Reduced costs of the non-basic, non-artificial columns: the
        // certified ones as they stand, else `d = c − Aᵀ·B⁻ᵀ·c_B` afresh.
        if self.certified() {
            #[cfg(debug_assertions)]
            self.debug_check_certificate();
        } else {
            self.price_phase2();
        }

        let mut pivots = 0usize;
        let mut listed = false;
        loop {
            // Leaving row: any −∞ basic value first (most negative infinite
            // weight, then most negative finite part as tie-break), else the
            // worst finite bound violation. Selecting on (x_w, x_f)
            // lexicographically is exactly the dual simplex rule for the
            // big-M limit the split representation encodes; under DSE the
            // violation is scored against the row's steepest-edge weight.
            let mut leave: Option<(usize, f64)> = None; // (row, δ)
            {
                let ws = &*self.ws;
                if use_dse {
                    let any_inf = ws.x_w.iter().any(|&w| w < 0.0);
                    let mut best_score = 0.0f64;
                    for i in 0..m {
                        let delta;
                        if any_inf {
                            if ws.x_w[i] >= 0.0 {
                                continue;
                            }
                            delta = ws.x_w[i];
                        } else if ws.x_w[i] != 0.0 {
                            continue;
                        } else if ws.x_f[i] < -tol {
                            delta = ws.x_f[i];
                        } else {
                            let u = ws.col_upper[ws.basis[i]];
                            if ws.x_f[i] > u + tol {
                                delta = ws.x_f[i] - u;
                            } else {
                                continue;
                            }
                        }
                        let score = delta * delta / ws.dse_gamma[i];
                        if score > best_score {
                            best_score = score;
                            leave = Some((i, delta));
                        }
                    }
                } else {
                    let mut best: Option<(f64, f64)> = None; // (weight, key)
                    for i in 0..m {
                        let (wgt, fin) = (ws.x_w[i], ws.x_f[i]);
                        let (delta, key);
                        if wgt < 0.0 {
                            delta = wgt;
                            key = fin;
                        } else if wgt != 0.0 {
                            continue;
                        } else if fin < -tol {
                            delta = fin;
                            key = fin;
                        } else {
                            let u = ws.col_upper[ws.basis[i]];
                            if fin > u + tol {
                                delta = fin - u;
                                key = -(fin - u);
                            } else {
                                continue;
                            }
                        }
                        if best.is_none_or(|(bw, bk)| wgt < bw || (wgt == bw && key < bk)) {
                            best = Some((wgt, key));
                            leave = Some((i, delta));
                        }
                    }
                }
            }
            let Some((r, delta)) = leave else {
                return RepairResult::Done(pivots);
            };
            // `s` orients the ratio test: −1 drives the leaving value up to
            // its lower bound, +1 down to its upper.
            let s = if delta > 0.0 { 1.0 } else { -1.0 };

            // The candidates of this repair's ratio tests, ascending (ties
            // go to the lowest column): listed on the first pivot, kept in
            // step with the basis by the pivots that follow.
            if !listed {
                let ws = &mut *self.ws;
                ws.nonbasic.clear();
                ws.nonbasic
                    .extend((0..sk.artificial_start).filter(|&j| !ws.is_basic[j]));
                listed = true;
            }

            // Row r of B⁻¹·A via BTRAN(e_r), and in the same pass over it
            // the sign-aware dual ratio test: a candidate must move the
            // leaving value toward its violated bound while keeping every
            // reduced cost on its feasible side (`d ≥ 0` at lower, `d ≤ 0`
            // at upper). With all columns at lower and `s = −1` this is the
            // legacy `α < −tol`, `d/−α` test verbatim.
            let mut enter: Option<(usize, f64)> = None;
            let mut saw_tiny_negative = false;
            {
                let ws = &mut *self.ws;
                ws.y.clear();
                ws.y.resize(m, 0.0);
                ws.y[r] = 1.0;
                ws.bf.btran(&mut ws.y);
                ws.alpha.clear();
                ws.alpha.resize(sk.artificial_start, 0.0);
                for &j in &ws.nonbasic {
                    let alpha = ws.a.col_dot(j, &ws.y);
                    ws.alpha[j] = alpha;
                    let e = if ws.at_upper[j] { -1.0 } else { 1.0 };
                    let a = s * e * alpha;
                    if a > DUAL_PIVOT_TOL {
                        let ratio = (e * ws.d[j]).max(0.0) / a;
                        if enter.is_none_or(|(_, best)| ratio < best - 1e-12) {
                            enter = Some((j, ratio));
                        }
                    } else if a > PIVOT_TOL {
                        saw_tiny_negative = true;
                    }
                }
            }
            let Some((q, _)) = enter else {
                if saw_tiny_negative {
                    return RepairResult::GaveUp;
                }
                return RepairResult::Infeasible;
            };

            // Reduced-cost update (standard dual pivot algebra), then the
            // basis/solution update through the shared pivot path.
            {
                let ws = &mut *self.ws;
                let theta_d = ws.d[q] / ws.alpha[q];
                for &j in &ws.nonbasic {
                    if j != q {
                        ws.d[j] -= theta_d * ws.alpha[j];
                    }
                }
                let at = ws.nonbasic.binary_search(&q).expect("q is non-basic");
                ws.nonbasic.remove(at);
                let leaving_col = ws.basis[r];
                if leaving_col < sk.artificial_start {
                    ws.d[leaving_col] = -theta_d;
                    let at = ws.nonbasic.partition_point(|&j| j < leaving_col);
                    ws.nonbasic.insert(at, leaving_col);
                }
                ws.d[q] = 0.0;
                ws.w.clear();
                ws.w.resize(m, 0.0);
                ws.a.scatter_col(q, &mut ws.w);
                ws.bf.ftran(&mut ws.w);
                if ws.w[r].abs() <= PIVOT_TOL {
                    // FTRAN disagrees with the BTRAN row badly enough that
                    // pivoting would be unsafe; let the cold path decide.
                    return RepairResult::GaveUp;
                }
            }
            let pivot_ok = if sk.is_bounded() {
                let dir = if self.ws.at_upper[q] { -1.0 } else { 1.0 };
                self.pivot_step(r, q, dir, delta > 0.0).is_ok()
            } else {
                self.pivot(r, q).is_ok()
            };
            if !pivot_ok {
                return RepairResult::GaveUp;
            }
            if use_dse {
                // Devex: γ'_i = max(γ_i, (w_i/w_r)²γ_r) for i ≠ r,
                // γ'_r = γ_r/w_r², weights kept ≥ 1 over the reference
                // framework.
                let ws = &mut *self.ws;
                let wr = ws.w[r];
                let gamma_r = ws.dse_gamma[r];
                for i in 0..m {
                    if i == r {
                        continue;
                    }
                    let wi = ws.w[i];
                    if wi == 0.0 {
                        continue;
                    }
                    let t = wi / wr;
                    ws.dse_gamma[i] = ws.dse_gamma[i].max(t * t * gamma_r);
                }
                ws.dse_gamma[r] = (gamma_r / (wr * wr)).max(1.0);
            }
            pivots += 1;
            if pivots >= cap {
                return RepairResult::GaveUp;
            }
        }
    }

    /// The phase-2 pricing duals `y = B⁻ᵀ·c_B`, into `ws.y`.
    fn phase2_duals(&mut self) {
        let sk = self.sk;
        let ws = &mut *self.ws;
        ws.y.clear();
        ws.y.extend(ws.basis.iter().map(|&b| sk.c[b]));
        ws.bf.btran(&mut ws.y);
    }

    /// `d_j = c_j − a_j·y` for every non-basic, non-artificial column and
    /// zero elsewhere, from fresh duals.
    fn price_phase2(&mut self) {
        self.phase2_duals();
        let sk = self.sk;
        let ws = &mut *self.ws;
        ws.d.clear();
        ws.d.resize(sk.cols, 0.0);
        for j in 0..sk.artificial_start {
            if !ws.is_basic[j] {
                ws.d[j] = sk.c[j] - ws.a.col_dot(j, &ws.y);
            }
        }
    }

    /// Debug builds re-derive what a certificate stands in for, every time
    /// one is used: the carried `d` must equal a from-scratch pricing bit
    /// for bit, and no column may price as an entering candidate (what the
    /// skipped polish would have scanned for). Tier-1 runs debug builds, so
    /// every test of the solver is a test of the invalidation list. (`ws.y`
    /// ends up holding the duals the uncertified path would have left.)
    #[cfg(debug_assertions)]
    fn debug_check_certificate(&mut self) {
        self.phase2_duals();
        let sk = self.sk;
        let ws = &*self.ws;
        assert_eq!(ws.d.len(), sk.cols, "certified d changed length");
        for (j, &carried) in ws.d.iter().enumerate() {
            let fresh = if j < sk.artificial_start && !ws.is_basic[j] {
                sk.c[j] - ws.a.col_dot(j, &ws.y)
            } else {
                0.0
            };
            assert_eq!(
                carried.to_bits(),
                fresh.to_bits(),
                "certified d[{j}] = {carried:e} but pricing afresh gives {fresh:e}"
            );
            let score = if ws.at_upper[j] { -fresh } else { fresh };
            assert!(
                score >= -COST_TOL,
                "certified basis prices column {j} at {score:e}"
            );
        }
    }

    /// `Σ cost[basis[i]] · x_f[i]` skipping zero-cost basic columns, so
    /// inert infinite span slacks never pollute the sum. Columns nonbasic
    /// at their upper bound (bounded-variable mode) contribute `c_j·u_j`.
    fn objective_for(&self, cost: &[f64]) -> f64 {
        let mut total = 0.0;
        for (i, &b) in self.ws.basis.iter().enumerate() {
            let cb = cost[b];
            if cb != 0.0 {
                total += cb * self.ws.x_f[i];
            }
        }
        for (j, &up) in self.ws.at_upper.iter().enumerate() {
            if up {
                let cj = cost[j];
                if cj != 0.0 {
                    total += cj * self.ws.col_upper[j];
                }
            }
        }
        total
    }

    /// Maps the basic solution back to the original variables, into
    /// `values` (cleared first).
    fn extract_original_values(&mut self, lower: &[f64], upper: &[f64], values: &mut Vec<f64>) {
        let sk = self.sk;
        let ws = &mut *self.ws;
        let std_values = &mut ws.std_values;
        std_values.clear();
        std_values.resize(sk.num_struct, 0.0);
        for (i, &b) in ws.basis.iter().enumerate() {
            if b < sk.num_struct {
                std_values[b] = ws.x_f[i].max(0.0);
            }
        }
        for (j, v) in std_values.iter_mut().enumerate() {
            if ws.at_upper[j] {
                *v = ws.col_upper[j];
            }
        }
        values.clear();
        values.extend(sk.var_map.iter().enumerate().map(|(i, map)| match *map {
            VarMap::Shifted { col } => lower[i] + std_values[col],
            VarMap::Mirrored { col } => upper[i] - std_values[col],
            VarMap::Split { pos, neg } => std_values[pos] - std_values[neg],
            VarMap::Fixed => lower[i],
        }));
    }
}

// --- Checkpoint codec -------------------------------------------------------

use crate::state::{distinct_below, ensure, Reader, StateError, Writer};

impl RevisedWorkspace {
    /// Checkpoint encoding of the carried fields (the struct groups them).
    /// The factorized basis and the accumulated eta file are path-dependent
    /// floats a rebuild cannot reproduce, so they travel as exact bytes; the
    /// matrix they factor is the skeleton's under `fill_flip`, so it does
    /// not. The address-based `skeleton_tag` cannot survive a round-trip
    /// literally, so it is encoded as "did it match `skeleton`?" and
    /// re-derived on decode from the restored skeleton's new address.
    pub(crate) fn encode_state(&self, skeleton: &StandardFormSkeleton, out: &mut Writer) {
        self.bf.encode_state(out);
        out.vec_usize(&self.basis);
        out.vec_f64(&self.fill_flip);
        out.vec_bool(&self.at_upper);
        out.usize(self.refactor_after);
        out.bool(self.reusable);
        out.bool(self.skeleton_tag == skeleton as *const StandardFormSkeleton as usize);
        out.usize(self.warm_hits);
        out.usize(self.warm_misses);
        out.usize(self.bound_flips);
    }

    /// Decodes a workspace checkpoint, binding the tag to `skeleton`'s
    /// (new) address when the encoded state recorded a match. The factors
    /// must be sound in themselves whatever happens next, and every row
    /// sign is `±1.0` — a sign decides the rebuilt matrix. The rest is only
    /// held to `skeleton`'s shape when the next solve may warm-start from
    /// it (anything else is rebuilt by a fill first): one basis entry and
    /// one sign per row, one status per column, the factors `m` rows wide,
    /// and a basis of distinct in-range columns. Then the matrix and the
    /// basic-column flags are rebuilt, and the right-hand sides sized for
    /// the warm start that writes them row by row.
    pub(crate) fn decode_state(
        r: &mut Reader<'_>,
        skeleton: &StandardFormSkeleton,
    ) -> Result<Self, StateError> {
        let tag = skeleton as *const StandardFormSkeleton as usize;
        let mut ws = Self {
            bf: BasisFactorization::decode_state(r)?,
            basis: r.vec_usize()?,
            fill_flip: r.vec_f64()?,
            at_upper: r.vec_bool()?,
            refactor_after: r.usize()?,
            reusable: r.bool()?,
            skeleton_tag: if r.bool()? { tag } else { 0 },
            warm_hits: r.usize()?,
            warm_misses: r.usize()?,
            bound_flips: r.usize()?,
            ..Self::default()
        };
        ensure(ws.fill_flip.iter().all(|&s| s == 1.0 || s == -1.0), || {
            "workspace: a row sign other than ±1".into()
        })?;
        if !ws.reusable || ws.skeleton_tag != tag {
            return Ok(ws);
        }
        let (m, cols) = (skeleton.m_total, skeleton.cols);
        ensure(
            ws.basis.len() == m
                && ws.fill_flip.len() == m
                && ws.bf.rows() == m
                && ws.at_upper.len() == cols,
            || format!("workspace: not shaped for {m} rows and {cols} columns"),
        )?;
        ensure(distinct_below(&ws.basis, cols), || {
            "workspace: the basis repeats a column or names one out of range".into()
        })?;
        assemble_matrix(skeleton, &ws.fill_flip, &mut ws.triplets, &mut ws.a);
        ws.is_basic.resize(cols, false);
        for &b in &ws.basis {
            ws.is_basic[b] = true;
        }
        ws.b_f.resize(m, 0.0);
        ws.b_w.resize(m, 0.0);
        Ok(ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, Outcome};
    use crate::problem::{ConstraintOp, Problem, Sense};

    fn bounds(p: &Problem) -> (Vec<f64>, Vec<f64>) {
        (
            p.variables().iter().map(|v| v.lower).collect(),
            p.variables().iter().map(|v| v.upper).collect(),
        )
    }

    /// Checks one engine objective against the dense reference simplex (the
    /// workspace's test-only oracle): same status, same objective.
    fn assert_same_as_dense(label: &str, dense: &Outcome, revised: Result<f64, LpError>) {
        match (dense, revised) {
            (Outcome::Optimal { objective, .. }, Ok(r)) => assert!(
                (objective - r).abs() < 1e-7,
                "{label}: dense {objective} vs revised {r}"
            ),
            (Outcome::Infeasible, Err(LpError::Infeasible))
            | (Outcome::Unbounded, Err(LpError::Unbounded)) => {}
            (d, r) => panic!("{label}: dense {d:?} vs revised {r:?}"),
        }
    }

    /// The LP `p` solved with default options agrees with the oracle.
    fn assert_matches_dense(p: &Problem) {
        let (lower, upper) = bounds(p);
        let dense = oracle::solve_lp(p, &lower, &upper);
        let revised = p.solve().map(|sol| sol.objective());
        assert_same_as_dense("span rows", &dense, revised);
    }

    #[test]
    fn agrees_with_dense_on_small_lps() {
        // min 2x + 3y s.t. x + 2y >= 4, x + y <= 10.
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 2.0), (y, 3.0)]);
        p.add_constraint("c1", [(x, 1.0), (y, 2.0)], ConstraintOp::Ge, 4.0);
        p.add_constraint("c2", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        assert_matches_dense(&p);

        // Maximization with equality and free variables.
        let mut q = Problem::new("t2", Sense::Maximize);
        let a = q.add_var("a", f64::NEG_INFINITY, f64::INFINITY);
        let b = q.add_var("b", 0.0, 5.0);
        q.set_objective([(a, 1.0), (b, 2.0)]);
        q.add_constraint("e", [(a, 1.0), (b, 1.0)], ConstraintOp::Eq, 4.0);
        assert_matches_dense(&q);
    }

    #[test]
    fn detects_infeasible_and_unbounded_like_dense() {
        let mut inf = Problem::new("inf", Sense::Minimize);
        let x = inf.add_var("x", 0.0, f64::INFINITY);
        inf.set_objective([(x, 1.0)]);
        inf.add_constraint("lo", [(x, 1.0)], ConstraintOp::Ge, 5.0);
        inf.add_constraint("hi", [(x, 1.0)], ConstraintOp::Le, 4.0);
        assert_matches_dense(&inf);

        let mut unb = Problem::new("unb", Sense::Maximize);
        let y = unb.add_var("y", 0.0, f64::INFINITY);
        unb.set_objective([(y, 1.0)]);
        assert_matches_dense(&unb);
    }

    #[test]
    fn degenerate_beale_terminates() {
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
        let r = p.solve().unwrap();
        assert!(
            (r.objective() + 0.05).abs() < 1e-6,
            "objective {}",
            r.objective()
        );
    }

    #[test]
    fn warm_start_across_branching_children_matches_cold() {
        let mut p = Problem::new("k", Sense::Maximize);
        let a = p.add_int_var("a", 0.0, 1.0);
        let b = p.add_int_var("b", 0.0, 1.0);
        let c = p.add_int_var("c", 0.0, 1.0);
        p.set_objective([(a, 8.0), (b, 11.0), (c, 6.0)]);
        p.add_constraint(
            "cap",
            [(a, 5.0), (b, 7.0), (c, 4.0)],
            ConstraintOp::Le,
            10.0,
        );
        let (lower, upper) = bounds(&p);
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut x = Vec::new();
        solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x).unwrap();
        assert_eq!(ws.warm_start_counts(), (0, 0), "the root solve is cold");

        for (var, lo, hi) in [(1usize, 0.0, 0.0), (1, 1.0, 1.0), (0, 1.0, 1.0)] {
            let mut l = lower.clone();
            let mut u = upper.clone();
            l[var] = lo;
            u[var] = hi;
            let attempts = ws.warm_start_counts();
            let warm = solve_node_revised(&sk, &mut ws, &l, &u, true, 10_000, &mut x).unwrap();
            let (hits, misses) = ws.warm_start_counts();
            assert_eq!(hits + misses, attempts.0 + attempts.1 + 1);
            let mut cold_ws = RevisedWorkspace::default();
            let cold =
                solve_node_revised(&sk, &mut cold_ws, &l, &u, false, 10_000, &mut x).unwrap();
            assert!(
                (warm.objective - cold.objective).abs() < 1e-7,
                "var {var} in [{lo},{hi}]: warm {} cold {}",
                warm.objective,
                cold.objective
            );
        }
        let (hits, misses) = ws.warm_start_counts();
        assert!(hits > 0, "hits {hits} misses {misses}");
        let (factorizations, _) = ws.factorization_counts();
        assert!(factorizations >= 1);
    }

    #[test]
    fn infinite_span_rows_stay_inert_and_patchable() {
        let mut p = Problem::new("inf-span", Sense::Minimize);
        let x = p.add_int_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("lb", [(x, 1.0)], ConstraintOp::Ge, 3.0);
        let (lower, upper) = bounds(&p);
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut v = Vec::new();
        let r = solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut v).unwrap();
        assert!((r.objective - 3.0).abs() < 1e-6);
        let r2 = solve_node_revised(&sk, &mut ws, &lower, &[5.0], true, 10_000, &mut v).unwrap();
        assert!((r2.objective - 3.0).abs() < 1e-6);
        // Tightening below the optimum moves it.
        let r3 = solve_node_revised(&sk, &mut ws, &[4.0], &[f64::INFINITY], true, 10_000, &mut v)
            .unwrap();
        assert!((r3.objective - 4.0).abs() < 1e-6);
    }

    /// Solves the relaxation of `p` cold through a bounded-variable skeleton
    /// with the given pricing flag.
    fn solve_bounded_with(
        p: &Problem,
        lower: &[f64],
        upper: &[f64],
        dse: bool,
    ) -> Result<f64, LpError> {
        let sk = StandardFormSkeleton::build(p, lower, upper, true)?;
        let mut ws = RevisedWorkspace::default();
        ws.configure(dse);
        solve_node_revised(&sk, &mut ws, lower, upper, false, 100_000, &mut Vec::new())
            .map(|node| node.objective)
    }

    fn assert_bounded_matches_dense(p: &Problem) {
        let (lower, upper) = bounds(p);
        let dense = oracle::solve_lp(p, &lower, &upper);
        for dse in [false, true] {
            let bounded = solve_bounded_with(p, &lower, &upper, dse);
            assert_same_as_dense(&format!("bounded dse={dse}"), &dense, bounded);
        }
    }

    /// A fig16-class model: branchable doubly-bounded variables under shared
    /// capacity rows. In the legacy skeleton every such variable needs a span
    /// row; the bounded skeleton keeps only the structural constraints.
    fn fig16_class_model(vars: usize, rows: usize) -> Problem {
        let mut p = Problem::new("fig16-class", Sense::Maximize);
        let ids: Vec<_> = (0..vars)
            .map(|i| p.add_int_var(format!("x{i}"), 0.0, 3.0 + (i % 4) as f64))
            .collect();
        p.set_objective(
            ids.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 5) as f64)),
        );
        for k in 0..rows {
            p.add_constraint(
                format!("cap{k}"),
                ids.iter()
                    .enumerate()
                    .filter(|(i, _)| (i + k) % 3 != 0)
                    .map(|(i, &v)| (v, 1.0 + ((i * 7 + k) % 4) as f64)),
                ConstraintOp::Le,
                20.0 + 3.0 * k as f64,
            );
        }
        p
    }

    #[test]
    fn bounded_skeleton_eliminates_span_rows() {
        let p = fig16_class_model(12, 5);
        let (lower, upper) = bounds(&p);
        let legacy = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let bounded = StandardFormSkeleton::build(&p, &lower, &upper, true).unwrap();
        // Every branchable doubly-bounded variable costs the legacy skeleton
        // a span row; the bounded skeleton holds the structural rows only.
        assert_eq!(legacy.m_total, 5 + 12);
        assert_eq!(bounded.m_total, 5);
        assert!(bounded.is_bounded() && !legacy.is_bounded());
    }

    #[test]
    fn bounded_mode_agrees_with_dense_on_doubly_bounded_lps() {
        // Doubly-bounded variables with binding upper bounds at the optimum.
        let mut p = Problem::new("bx", Sense::Maximize);
        let x = p.add_var("x", 0.0, 5.0);
        let y = p.add_var("y", 0.0, 4.0);
        let z = p.add_var("z", 1.0, 9.0);
        p.set_objective([(x, 3.0), (y, 2.0), (z, 1.0)]);
        p.add_constraint("c", [(x, 1.0), (y, 1.0), (z, 2.0)], ConstraintOp::Le, 14.0);
        assert_bounded_matches_dense(&p);

        // Free variable plus a mirrored (upper-bounded-only) variable.
        let mut q = Problem::new("free", Sense::Minimize);
        let a = q.add_var("a", f64::NEG_INFINITY, f64::INFINITY);
        let b = q.add_var("b", f64::NEG_INFINITY, 6.0);
        q.set_objective([(a, 1.0), (b, -1.0)]);
        q.add_constraint("e", [(a, 1.0), (b, 1.0)], ConstraintOp::Eq, 4.0);
        q.add_constraint("g", [(a, 1.0), (b, -1.0)], ConstraintOp::Ge, -2.0);
        assert_bounded_matches_dense(&q);

        // Infeasible and unbounded instances keep their classification.
        let mut inf = Problem::new("inf", Sense::Minimize);
        let v = inf.add_var("v", 0.0, 3.0);
        inf.set_objective([(v, 1.0)]);
        inf.add_constraint("lo", [(v, 1.0)], ConstraintOp::Ge, 5.0);
        assert_bounded_matches_dense(&inf);

        let mut unb = Problem::new("unb", Sense::Maximize);
        let w = unb.add_var("w", 0.0, f64::INFINITY);
        let u = unb.add_var("u", 0.0, 2.0);
        unb.set_objective([(w, 1.0), (u, 1.0)]);
        unb.add_constraint("c", [(u, 1.0)], ConstraintOp::Le, 2.0);
        assert_bounded_matches_dense(&unb);

        assert_bounded_matches_dense(&fig16_class_model(9, 4));
    }

    #[test]
    fn bound_flips_replace_span_pivots() {
        // Both upper bounds are slack against the capacity row, so the
        // bounded engine reaches the optimum by flipping x and y to their
        // upper bounds instead of pivoting through span rows.
        let mut p = Problem::new("flip", Sense::Maximize);
        let x = p.add_var("x", 0.0, 5.0);
        let y = p.add_var("y", 0.0, 4.0);
        p.set_objective([(x, 3.0), (y, 2.0)]);
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 20.0);
        let (lower, upper) = bounds(&p);
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, true).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut v = Vec::new();
        let r = solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut v).unwrap();
        assert!(
            (r.objective - 23.0).abs() < 1e-7,
            "objective {}",
            r.objective
        );
        assert!((v[0] - 5.0).abs() < 1e-7 && (v[1] - 4.0).abs() < 1e-7);
        let bound_flips = ws.bound_flips();
        assert!(bound_flips >= 2, "bound_flips {bound_flips}");
    }

    #[test]
    fn bounded_warm_start_branching_is_a_status_flip() {
        let p = fig16_class_model(8, 3);
        let (lower, upper) = bounds(&p);
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, true).unwrap();
        let mut ws = RevisedWorkspace::default();
        ws.configure(true);
        let mut x = Vec::new();
        solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x).unwrap();
        assert_eq!(ws.warm_start_counts(), (0, 0), "the root solve is cold");

        for (var, lo, hi) in [
            (0usize, 0.0, 2.0),
            (3, 1.0, 3.0),
            (5, 0.0, 0.0),
            (1, 2.0, 2.0),
            (7, 0.0, 1.0),
        ] {
            let mut l = lower.clone();
            let mut u = upper.clone();
            l[var] = lo;
            u[var] = hi;
            // Tightened child bounds reach the engine as implicit column
            // bounds — no RHS patch, no skeleton rebuild.
            assert!(sk.compatible(&l, &u));
            let warm = solve_node_revised(&sk, &mut ws, &l, &u, true, 10_000, &mut x)
                .map(|node| node.objective);
            let dense = oracle::solve_lp(&p, &l, &u);
            assert_same_as_dense(&format!("var {var} in [{lo},{hi}]"), &dense, warm);
        }
        let (hits, misses) = ws.warm_start_counts();
        assert!(hits > 0, "hits {hits} misses {misses}");
    }

    #[test]
    fn repeated_solves_do_not_drift() {
        let mut p = Problem::new("drift", Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| p.add_int_var(format!("x{i}"), 0.0, 4.0))
            .collect();
        p.set_objective(vars.iter().enumerate().map(|(i, &v)| (v, 1.0 + i as f64)));
        for k in 0..3 {
            p.add_constraint(
                format!("cap{k}"),
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, 1.0 + ((i + k) % 3) as f64)),
                ConstraintOp::Le,
                9.0 + k as f64,
            );
        }
        let (lower, upper) = bounds(&p);
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut x = Vec::new();
        let reference = solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x)
            .unwrap()
            .objective;
        solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x).unwrap();
        for round in 0..300 {
            let var = round % vars.len();
            let mut l = lower.clone();
            let mut u = upper.clone();
            // Alternate tightenings that keep the root optimum attainable.
            if round % 2 == 0 {
                u[var] = 4.0;
            } else {
                l[var] = 0.0;
            }
            let r = solve_node_revised(&sk, &mut ws, &l, &u, true, 10_000, &mut x).unwrap();
            assert!(
                (r.objective - reference).abs() < 1e-6,
                "round {round}: {} vs {reference}",
                r.objective
            );
        }
    }

    /// The branched-variable pattern branch & bound produces: the warm path
    /// must agree with a cold solve — and both with the oracle's LP — on
    /// every child, including infeasible children.
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
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut x = Vec::new();
        solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut x).unwrap();

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
            let warm = solve_node_revised(&sk, &mut ws, &l, &u, true, 10_000, &mut x)
                .map(|node| node.objective);
            let mut cold_ws = RevisedWorkspace::default();
            let cold = solve_node_revised(&sk, &mut cold_ws, &l, &u, false, 10_000, &mut x)
                .map(|node| node.objective);
            match (warm, cold, oracle::solve_lp(&p, &l, &u)) {
                (Ok(w), Ok(c), Outcome::Optimal { objective, .. }) => {
                    assert!(
                        (w - objective).abs() < 1e-6 && (c - objective).abs() < 1e-6,
                        "var {var} in [{lo}, {hi}]: warm {w} cold {c} oracle {objective}"
                    );
                }
                (Err(LpError::Infeasible), Err(LpError::Infeasible), Outcome::Infeasible) => {}
                (w, c, o) => panic!("var {var} in [{lo}, {hi}]: warm {w:?} vs cold {c:?} vs {o:?}"),
            }
        }
    }

    /// A cold solve attempts no warm start; a warm re-solve of the same
    /// bounds counts one attempt and reproduces the objective.
    #[test]
    fn warm_start_outcomes_are_reported() {
        let mut p = Problem::new("outcome", Sense::Minimize);
        let x = p.add_int_var("x", 0.0, 9.0);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("lo", [(x, 2.0)], ConstraintOp::Ge, 7.0);
        let (lower, upper) = bounds(&p);
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        let mut ws = RevisedWorkspace::default();
        let mut v = Vec::new();
        let first =
            solve_node_revised(&sk, &mut ws, &lower, &upper, false, 10_000, &mut v).unwrap();
        assert_eq!(ws.warm_start_counts(), (0, 0));
        let again = solve_node_revised(&sk, &mut ws, &lower, &upper, true, 10_000, &mut v).unwrap();
        assert!((first.objective - again.objective).abs() < 1e-9);
        let (hits, misses) = ws.warm_start_counts();
        assert_eq!(hits + misses, 1);
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
        let sk = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();

        let mut revised = RevisedWorkspace::default();
        let mut x = Vec::new();
        let root =
            solve_node_revised(&sk, &mut revised, &lower, &upper, false, 100_000, &mut x).unwrap();
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
            let warm = solve_node_revised(&sk, &mut revised, &lo, &hi, true, 100_000, &mut x)
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
        let m = sk.m_total;
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

    /// Crossed bounds, as branching produces them, are infeasible and never
    /// solved to a bogus optimum: a skeleton refuses them as root bounds, and
    /// a node solve refuses them as overrides, warm or cold, in either
    /// layout. (`Problem::validate` refuses them before the engine sees a
    /// model, so this is checked at node level.)
    #[test]
    fn crossed_bounds_are_infeasible() {
        let mut p = Problem::new("crossed", Sense::Minimize);
        let x = p.add_var("x", 0.0, 10.0);
        p.set_objective([(x, 1.0)]);
        let (lower, upper) = bounds(&p);
        for bounded in [false, true] {
            let sk = StandardFormSkeleton::build(&p, &lower, &upper, bounded).unwrap();
            let mut ws = RevisedWorkspace::default();
            let mut v = Vec::new();
            solve_node_revised(&sk, &mut ws, &lower, &upper, false, 1_000, &mut v).unwrap();
            for lo in [1.0, 2.5, 4.99] {
                for delta in [0.1, 0.7, 1.99] {
                    let crossed = ([lo], [lo - delta]);
                    let root = StandardFormSkeleton::build(&p, &crossed.0, &crossed.1, bounded);
                    assert!(
                        matches!(root, Err(LpError::Infeasible)),
                        "[{lo}, {}]",
                        lo - delta
                    );
                    for warm in [false, true] {
                        let node = solve_node_revised(
                            &sk, &mut ws, &crossed.0, &crossed.1, warm, 1_000, &mut v,
                        );
                        assert!(
                            matches!(node, Err(LpError::Infeasible)),
                            "[{lo}, {}] warm {warm}",
                            lo - delta
                        );
                    }
                }
            }
        }
    }
}
