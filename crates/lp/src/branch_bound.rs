//! Branch & bound over integer and semi-continuous variables.
//!
//! Each node tightens per-variable bound vectors and re-solves the LP
//! relaxation. The search is best-bound-first with a most-fractional
//! branching rule, a rounding heuristic at every node to obtain incumbents
//! early, and the stopping criteria the paper configures on CPLEX: a
//! relative optimality gap and a wall-clock limit after which the best
//! feasible solution found so far is returned (§4.8).
//!
//! The solver hot path is built around three reuse layers (see
//! [`crate::simplex`]): one [`StandardFormSkeleton`] for the whole tree, one
//! [`RevisedWorkspace`] reused by every node, and parent-basis warm starts
//! threaded through each node's saved basis. Hit/miss counts land in
//! [`SolveStats::warm_start_hits`] / [`SolveStats::warm_start_misses`] so
//! benchmarks can verify the warm-start rate.

use crate::error::LpError;
use crate::problem::{Problem, Sense, SolveOptions, VarKind};
use crate::revised::{solve_with_skeleton_revised, RevisedWorkspace};
use crate::simplex::{SimplexResult, StandardFormSkeleton};
use crate::solution::{Solution, SolveStats, SolveStatus};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

/// Solves `problem` (LP or MIP) under `options`: a one-shot
/// [`solve_with_context`] whose fresh context is dropped afterwards.
pub fn solve(problem: &Problem, options: &SolveOptions) -> Result<Solution, LpError> {
    solve_with_context(problem, options, &mut SolveContext::new())
}

/// Cross-solve reuse state for a stream of structurally look-alike problems
/// — the batched-admission fast path. Holds one boxed standard-form
/// skeleton, rebound in place when the next problem matches (same matrix,
/// new RHS/objective), and one revised workspace whose factorized basis
/// warm-starts the next solve's root from the previous solve's final basis.
/// A problem that does not match falls back transparently to a rebuild.
#[derive(Debug, Default)]
pub struct SolveContext {
    cached: Option<(Box<StandardFormSkeleton>, RevisedWorkspace)>,
    last_basis: Vec<usize>,
    skeleton_reuses: usize,
    skeleton_rebuilds: usize,
    /// Effort of the most recent [`solve_with_context`], failed or not.
    /// Observational only: not part of [`SolveContext::export_state`].
    last_stats: Option<SolveStats>,
}

impl SolveContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// The effort of the most recent [`solve_with_context`] through this
    /// context — also when that solve returned an error, whose branch &
    /// bound nodes would otherwise go unreported. `None` before the first
    /// solve and after one that failed before reaching the solver.
    pub fn last_solve_stats(&self) -> Option<SolveStats> {
        self.last_stats
    }

    /// Lifetime `(factorizations, refactorizations)` of the shared
    /// workspace; each solve's [`SolveStats`] carries its own share.
    pub fn factorization_counts(&self) -> (usize, usize) {
        self.cached
            .as_ref()
            .map(|(_, ws)| ws.factorization_counts())
            .unwrap_or((0, 0))
    }

    /// `(reuses, rebuilds)` — how many solves rebound the cached skeleton in
    /// place vs. paid for a fresh build.
    pub fn reuse_counts(&self) -> (usize, usize) {
        (self.skeleton_reuses, self.skeleton_rebuilds)
    }

    /// Warm-start counts accumulated by the shared workspace.
    pub fn warm_start_counts(&self) -> (usize, usize) {
        self.cached
            .as_ref()
            .map(|(_, ws)| ws.warm_start_counts())
            .unwrap_or((0, 0))
    }

    /// Takes the cached engine, rebinding the skeleton to `problem` when the
    /// layout matches; otherwise rebuilds the skeleton (keeping the
    /// workspace's allocations, but invalidating its factorized state — the
    /// warm-reuse guard is address-based and a fresh box can legally land on
    /// a freed address). The skeleton mode and workspace configuration
    /// follow `options`; a cached legacy skeleton cannot serve a
    /// bounded-variable solve (or vice versa) and is rebuilt.
    fn engine_for(
        &mut self,
        problem: &Problem,
        options: &SolveOptions,
        lower: &[f64],
        upper: &[f64],
    ) -> Result<(Box<StandardFormSkeleton>, RevisedWorkspace), LpError> {
        if let Some((mut skeleton, mut ws)) = self.cached.take() {
            ws.configure(options.forrest_tomlin, options.dual_steepest_edge);
            if skeleton.is_bounded() == options.bounded_variables
                && skeleton.rebind(problem, lower, upper)
            {
                self.skeleton_reuses += 1;
                return Ok((skeleton, ws));
            }
            ws.invalidate();
            self.last_basis.clear();
            let skeleton = Box::new(build_skeleton(problem, options, lower, upper)?);
            self.skeleton_rebuilds += 1;
            return Ok((skeleton, ws));
        }
        self.skeleton_rebuilds += 1;
        let skeleton = Box::new(build_skeleton(problem, options, lower, upper)?);
        Ok((skeleton, fresh_workspace(options)))
    }

    /// Solves only the root LP relaxation of `problem` through the shared
    /// skeleton/workspace and returns its objective in the problem's own
    /// sense — the bound a plan-cache certificate compares a reused plan
    /// against. The workspace keeps the optimal factorized state, so a full
    /// solve of the same problem immediately afterwards warm-starts from it.
    pub fn relaxation_bound(
        &mut self,
        problem: &Problem,
        options: &SolveOptions,
        max_iterations: usize,
    ) -> Result<f64, LpError> {
        let lower: Vec<f64> = problem.variables().iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = problem.variables().iter().map(|v| v.upper).collect();
        let (skeleton, mut ws) = self.engine_for(problem, options, &lower, &upper)?;
        let prev = std::mem::take(&mut self.last_basis);
        let hint = if prev.is_empty() {
            None
        } else {
            Some(prev.as_slice())
        };
        let result =
            solve_with_skeleton_revised(&skeleton, &mut ws, &lower, &upper, hint, max_iterations);
        match &result {
            Ok(r) => self.last_basis = r.basis.clone(),
            Err(_) => self.last_basis.clear(),
        }
        self.cached = Some((skeleton, ws));
        result.map(|r| r.objective)
    }

    /// Serializes the full context — cached skeleton, factorized workspace
    /// and last optimal basis — into a hex blob suitable for embedding in a
    /// JSON checkpoint. [`SolveContext::import_state`] rebuilds a context
    /// that solves the next problem bit-for-bit like this one would have
    /// (same warm-start path, same pivots, same floats).
    pub fn export_state(&self) -> String {
        let mut w = crate::state::Writer::new();
        match &self.cached {
            None => w.bool(false),
            Some((skeleton, ws)) => {
                w.bool(true);
                skeleton.encode_state(&mut w);
                ws.encode_state(skeleton, &mut w);
            }
        }
        w.vec_usize(&self.last_basis);
        w.usize(self.skeleton_reuses);
        w.usize(self.skeleton_rebuilds);
        w.into_hex()
    }

    /// Rebuilds a context from [`SolveContext::export_state`] output.
    pub fn import_state(blob: &str) -> Result<Self, crate::state::StateError> {
        let bytes = crate::state::from_hex(blob)?;
        let mut r = crate::state::Reader::new(&bytes);
        let cached = if r.bool()? {
            let skeleton = Box::new(StandardFormSkeleton::decode_state(&mut r)?);
            let ws = RevisedWorkspace::decode_state(&mut r, &skeleton)?;
            Some((skeleton, ws))
        } else {
            None
        };
        let ctx = Self {
            cached,
            last_basis: r.vec_usize()?,
            skeleton_reuses: r.usize()?,
            skeleton_rebuilds: r.usize()?,
            last_stats: None,
        };
        r.finish()?;
        Ok(ctx)
    }
}

/// Like [`solve`], but shares `ctx`'s skeleton, factorized workspace and
/// final basis across calls: each successive solve of a matching problem
/// warm-starts its root from the previous solve's optimum instead of a cold
/// two-phase fill.
pub fn solve_with_context(
    problem: &Problem,
    options: &SolveOptions,
    ctx: &mut SolveContext,
) -> Result<Solution, LpError> {
    let start = Instant::now();
    let lower: Vec<f64> = problem.variables().iter().map(|v| v.lower).collect();
    let upper: Vec<f64> = problem.variables().iter().map(|v| v.upper).collect();

    ctx.last_stats = None;
    let (skeleton, workspace) = ctx.engine_for(problem, options, &lower, &upper)?;
    let entry = WorkspaceCounts::read(&workspace);
    let root_basis = {
        let prev = std::mem::take(&mut ctx.last_basis);
        if prev.is_empty() {
            None
        } else {
            Some(Rc::new(prev))
        }
    };
    let mut solver = NodeSolver {
        problem,
        options,
        skeleton,
        workspace,
    };
    let (result, nodes_explored, simplex_iterations) = if problem.is_mip() {
        let mut bb = BranchAndBound::new(problem, options, start, solver);
        let result = bb.run(lower, upper, root_basis);
        solver = bb.node_solver;
        (result, bb.nodes_explored, bb.simplex_iterations)
    } else {
        let hint = root_basis.as_ref().map(|b| b.as_slice());
        match solver.solve_node(&lower, &upper, hint) {
            Ok(r) => {
                let found = (SolveStatus::Optimal, r.objective, r.values, 0.0);
                (Ok(found), 1, r.iterations)
            }
            Err(e) => (Err(e), 0, 0),
        }
    };
    // The workspace outlives the solve under a shared context, so its
    // counters are lifetime totals: this solve's share is what they moved by.
    let exit = WorkspaceCounts::read(&solver.workspace);
    let mut stats = SolveStats {
        simplex_iterations,
        nodes_explored,
        solve_time: start.elapsed(),
        relative_gap: 0.0,
        warm_start_hits: exit.warm_start.0 - entry.warm_start.0,
        warm_start_misses: exit.warm_start.1 - entry.warm_start.1,
        basis_factorizations: exit.factorizations.0 - entry.factorizations.0,
        basis_refactorizations: exit.factorizations.1 - entry.factorizations.1,
        bound_flips: exit.pivots.0 - entry.pivots.0,
        ft_updates: exit.pivots.1 - entry.pivots.1,
    };
    ctx.last_basis = solver.workspace.last_basis().to_vec();
    ctx.cached = Some((solver.skeleton, solver.workspace));
    let solution = result.map(|(status, objective, values, gap)| {
        stats.relative_gap = gap;
        Solution::new(status, objective, values, stats)
    });
    ctx.last_stats = Some(stats);
    solution
}

/// One reading of a workspace's cumulative counters.
struct WorkspaceCounts {
    warm_start: (usize, usize),
    factorizations: (usize, usize),
    pivots: (usize, usize),
}

impl WorkspaceCounts {
    fn read(ws: &RevisedWorkspace) -> Self {
        Self {
            warm_start: ws.warm_start_counts(),
            factorizations: ws.factorization_counts(),
            pivots: ws.pivot_counts(),
        }
    }
}

/// What a search found: status, objective, variable values, final relative
/// gap.
type Found = (SolveStatus, f64, Vec<f64>, f64);

/// The skeleton layout `options` selects: implicit column bounds in
/// bounded-variable mode, span rows otherwise.
fn build_skeleton(
    problem: &Problem,
    options: &SolveOptions,
    lower: &[f64],
    upper: &[f64],
) -> Result<StandardFormSkeleton, LpError> {
    if options.bounded_variables {
        StandardFormSkeleton::new_bounded(problem, lower, upper)
    } else {
        StandardFormSkeleton::new(problem, lower, upper)
    }
}

fn fresh_workspace(options: &SolveOptions) -> RevisedWorkspace {
    let mut ws = RevisedWorkspace::default();
    ws.configure(options.forrest_tomlin, options.dual_steepest_edge);
    ws
}

/// Per-tree LP backend: the skeleton and workspace every node shares, plus
/// a fallback for bound patterns the skeleton cannot express. The skeleton
/// is boxed so its address (the workspace's warm-reuse tag) stays stable
/// when the pair moves between a [`SolveContext`] and a solve.
struct NodeSolver<'a> {
    problem: &'a Problem,
    options: &'a SolveOptions,
    skeleton: Box<StandardFormSkeleton>,
    workspace: RevisedWorkspace,
}

impl NodeSolver<'_> {
    /// Solves one relaxation. `basis_hint` is the parent's final basis; the
    /// hint is only meaningful against the shared skeleton, so the fallback
    /// path ignores it and solves cold.
    fn solve_node(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        basis_hint: Option<&[usize]>,
    ) -> Result<SimplexResult, LpError> {
        let max_iterations = self.options.max_simplex_iterations;
        let hint = if self.options.warm_start {
            basis_hint
        } else {
            None
        };
        if self.skeleton.compatible(lower, upper) {
            return solve_with_skeleton_revised(
                &self.skeleton,
                &mut self.workspace,
                lower,
                upper,
                hint,
                max_iterations,
            );
        }
        // The rare node whose bounds change a variable's standard-form
        // classification (e.g. branching on a variable that the root
        // fixed): build a one-off skeleton and solve it cold with a fresh
        // workspace. The basis indices of such a solve are meaningless
        // against the shared skeleton's layout, so they are stripped before
        // children can inherit them as hints.
        let fresh = build_skeleton(self.problem, self.options, lower, upper)?;
        let mut ws = fresh_workspace(self.options);
        let mut r =
            solve_with_skeleton_revised(&fresh, &mut ws, lower, upper, None, max_iterations)?;
        r.basis = Vec::new();
        Ok(r)
    }
}

/// A pending search node: bound overrides plus the parent relaxation bound
/// and the parent's final basis for warm starting.
struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Relaxation objective of the parent, in *minimization* orientation
    /// (used for best-bound ordering and pruning).
    bound: f64,
    depth: usize,
    /// Parent's final simplex basis (shared by both children).
    basis: Option<Rc<Vec<usize>>>,
}

/// Max-heap entry ordered so the node with the smallest minimization bound
/// (i.e. the most promising) pops first.
struct HeapEntry {
    node: Node,
    order: f64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.order.total_cmp(&other.order) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller bound = higher priority. `total_cmp` gives a
        // total order even for NaN, so a corrupt bound can no longer poison
        // the heap invariants (NaN sorts last and simply pops last).
        other.order.total_cmp(&self.order)
    }
}

struct BranchAndBound<'a> {
    problem: &'a Problem,
    options: &'a SolveOptions,
    start: Instant,
    sense_factor: f64,
    node_solver: NodeSolver<'a>,
    incumbent: Option<(f64, Vec<f64>)>,
    best_bound: f64,
    nodes_explored: usize,
    simplex_iterations: usize,
}

impl<'a> BranchAndBound<'a> {
    fn new(
        problem: &'a Problem,
        options: &'a SolveOptions,
        start: Instant,
        node_solver: NodeSolver<'a>,
    ) -> Self {
        let sense_factor = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        Self {
            problem,
            options,
            start,
            sense_factor,
            node_solver,
            incumbent: None,
            best_bound: f64::NEG_INFINITY,
            nodes_explored: 0,
            simplex_iterations: 0,
        }
    }

    /// Objective in minimization orientation.
    fn min_obj(&self, objective: f64) -> f64 {
        objective * self.sense_factor
    }

    fn run(
        &mut self,
        root_lower: Vec<f64>,
        root_upper: Vec<f64>,
        root_basis: Option<Rc<Vec<usize>>>,
    ) -> Result<Found, LpError> {
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        heap.push(HeapEntry {
            order: f64::NEG_INFINITY,
            node: Node {
                lower: root_lower,
                upper: root_upper,
                bound: f64::NEG_INFINITY,
                depth: 0,
                basis: root_basis,
            },
        });

        let mut root_infeasible = true;
        let mut attempted_any_node = false;
        let mut saw_unbounded = false;

        while let Some(HeapEntry { node, .. }) = heap.pop() {
            if self.nodes_explored >= self.options.max_nodes
                || self.start.elapsed() >= self.options.time_limit
            {
                break;
            }
            // Prune against the incumbent (in minimization orientation).
            if let Some((inc_obj, _)) = &self.incumbent {
                let inc_min = self.min_obj(*inc_obj);
                if node.bound >= inc_min - self.gap_slack(inc_min) {
                    continue;
                }
            }

            let hint = node.basis.as_ref().map(|b| b.as_slice());
            attempted_any_node = true;
            let relax = match self.node_solver.solve_node(&node.lower, &node.upper, hint) {
                Ok(r) => r,
                Err(LpError::Infeasible) => continue,
                Err(LpError::Unbounded) => {
                    // An unbounded relaxation at the root means the MIP is
                    // unbounded or needs branching to become bounded; treat it
                    // as an error only if we never find anything better.
                    saw_unbounded = true;
                    continue;
                }
                Err(e) => return Err(e),
            };
            root_infeasible = false;
            self.nodes_explored += 1;
            self.simplex_iterations += relax.iterations;

            let relax_min = self.min_obj(relax.objective);
            if node.depth == 0 {
                self.best_bound = relax_min;
            }

            // Prune by bound.
            if let Some((inc_obj, _)) = &self.incumbent {
                let inc_min = self.min_obj(*inc_obj);
                if relax_min >= inc_min - self.gap_slack(inc_min) {
                    continue;
                }
            }

            match self.most_violated(&relax) {
                None => {
                    // Integral (and semi-continuous feasible): candidate incumbent.
                    self.offer_incumbent(relax.objective, relax.values);
                }
                Some(branch_var) => {
                    // Cheap rounding heuristics give early incumbents and keep
                    // the tree small (most of our models are near-integral).
                    self.try_rounding_heuristic(&relax, &node);
                    self.branch(&node, branch_var, &relax, relax_min, &mut heap);
                }
            }

            // Gap check. The heap is ordered by bound, so the global best
            // bound is an O(1) peek instead of a full scan.
            if let Some((inc_obj, _)) = &self.incumbent {
                let inc_min = self.min_obj(*inc_obj);
                let bound = heap
                    .peek()
                    .map(|e| e.node.bound)
                    .unwrap_or(f64::INFINITY)
                    .min(inc_min);
                let gap = relative_gap(inc_min, bound);
                if gap <= self.options.relative_gap {
                    break;
                }
            }
        }

        let sense_factor = self.sense_factor;
        match self.incumbent.take() {
            Some((obj, values)) => {
                let remaining_bound = heap.peek().map(|e| e.node.bound).unwrap_or(f64::INFINITY);
                let inc_min = obj * sense_factor;
                let gap = relative_gap(inc_min, remaining_bound.min(inc_min));
                let status = if gap <= self.options.relative_gap {
                    SolveStatus::Optimal
                } else {
                    SolveStatus::Feasible
                };
                Ok((status, obj, values, gap))
            }
            None => {
                if saw_unbounded {
                    Err(LpError::Unbounded)
                } else if root_infeasible && attempted_any_node {
                    Err(LpError::Infeasible)
                } else {
                    // Either limits stopped the search before any node was
                    // solved, or every relaxation solved but no integer
                    // incumbent was found.
                    Err(LpError::NoIncumbent)
                }
            }
        }
    }

    /// Absolute slack implied by the relative gap around an incumbent value.
    fn gap_slack(&self, inc_min: f64) -> f64 {
        self.options.relative_gap * inc_min.abs().max(1e-9)
    }

    /// Returns the index of the integrality/semi-continuity-violating variable
    /// whose fractional part is largest, or `None` if the relaxation is feasible
    /// for the MIP.
    fn most_violated(&self, relax: &SimplexResult) -> Option<usize> {
        let tol = self.options.integrality_tol;
        let mut best: Option<(usize, f64)> = None;
        for (i, var) in self.problem.variables().iter().enumerate() {
            let x = relax.values[i];
            let violation = match var.kind {
                VarKind::Continuous => 0.0,
                VarKind::Integer => {
                    let frac = (x - x.round()).abs();
                    if frac > tol {
                        // Distance from the nearest half-integer point, i.e.
                        // "how fractional" the value is.
                        0.5 - (x.fract().abs() - 0.5).abs()
                    } else {
                        0.0
                    }
                }
                VarKind::SemiContinuous { threshold } => {
                    if x > tol && x < threshold - tol {
                        // Violates the "0 or >= threshold" disjunction. These
                        // variables are branched with priority: once every
                        // semi-continuous disjunction is settled the remaining
                        // integer variables round to feasible incumbents
                        // easily, which keeps the search tree small.
                        1e3 + (x.min(threshold - x)) / threshold.max(1e-9)
                    } else {
                        0.0
                    }
                }
            };
            if violation > 0.0 && best.is_none_or(|(_, b)| violation > b) {
                best = Some((i, violation));
            }
        }
        best.map(|(i, _)| i)
    }

    fn branch(
        &mut self,
        node: &Node,
        var: usize,
        relax: &SimplexResult,
        relax_min: f64,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
        let x = relax.values[var];
        let kind = self.problem.variables()[var].kind;
        let (left, right): ((f64, f64), (f64, f64)) = match kind {
            VarKind::Integer => {
                let fl = x.floor();
                ((node.lower[var], fl), (fl + 1.0, node.upper[var]))
            }
            VarKind::SemiContinuous { threshold } => {
                // Either exactly zero, or at least the threshold.
                ((0.0, 0.0), (threshold, node.upper[var]))
            }
            VarKind::Continuous => unreachable!("continuous variables are never branched on"),
        };
        // Both children share the parent's final basis as their warm-start
        // hint; nodes solved via fallback paths return an empty basis, which
        // children must not inherit.
        let parent_basis = if relax.basis.is_empty() {
            None
        } else {
            Some(Rc::new(relax.basis.clone()))
        };
        for (lo, hi) in [left, right] {
            if lo > hi + 1e-12 {
                continue;
            }
            let mut lower = node.lower.clone();
            let mut upper = node.upper.clone();
            lower[var] = lo;
            upper[var] = hi;
            heap.push(HeapEntry {
                order: relax_min,
                node: Node {
                    lower,
                    upper,
                    bound: relax_min,
                    depth: node.depth + 1,
                    basis: parent_basis.clone(),
                },
            });
        }
    }

    /// Rounds the relaxation to a MIP-feasible point and offers it as an
    /// incumbent if it satisfies all constraints. Two roundings are tried:
    /// nearest-integer and ceiling (rounding resource counts *up* is usually
    /// the safe direction in Conductor's capacity-style constraints).
    fn try_rounding_heuristic(&mut self, relax: &SimplexResult, node: &Node) {
        for ceiling in [false, true] {
            let mut values = relax.values.clone();
            for (i, var) in self.problem.variables().iter().enumerate() {
                match var.kind {
                    VarKind::Continuous => {}
                    VarKind::Integer => {
                        let rounded = if ceiling {
                            (values[i] - 1e-9).ceil()
                        } else {
                            values[i].round()
                        };
                        values[i] = rounded.clamp(node.lower[i], node.upper[i]);
                    }
                    VarKind::SemiContinuous { threshold } => {
                        if values[i] < threshold / 2.0 && !ceiling {
                            values[i] = 0.0;
                        } else if values[i] > 1e-9 && values[i] < threshold {
                            values[i] = threshold.min(node.upper[i]);
                        }
                    }
                }
            }
            // The objective is one expression, feasibility one per
            // constraint: ask first whether the point could be accepted.
            let obj = self.problem.objective().evaluate(&values);
            if self.improves_incumbent(obj) && self.is_feasible(&values) {
                self.incumbent = Some((obj, values));
            }
        }
    }

    /// Checks all constraints, bounds and integrality of a candidate point.
    fn is_feasible(&self, values: &[f64]) -> bool {
        let tol = 1e-6;
        for (i, var) in self.problem.variables().iter().enumerate() {
            let x = values[i];
            if x < var.lower - tol || x > var.upper + tol {
                return false;
            }
            match var.kind {
                VarKind::Continuous => {}
                VarKind::Integer => {
                    if (x - x.round()).abs() > self.options.integrality_tol {
                        return false;
                    }
                }
                VarKind::SemiContinuous { threshold } => {
                    if x > tol && x < threshold - tol {
                        return false;
                    }
                }
            }
        }
        for c in self.problem.constraints() {
            let lhs = c.expr.evaluate(values);
            let ok = match c.op {
                crate::problem::ConstraintOp::Le => lhs <= c.rhs + tol * (1.0 + c.rhs.abs()),
                crate::problem::ConstraintOp::Ge => lhs >= c.rhs - tol * (1.0 + c.rhs.abs()),
                crate::problem::ConstraintOp::Eq => {
                    (lhs - c.rhs).abs() <= tol * (1.0 + c.rhs.abs())
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// `true` when a feasible point with this objective would replace the
    /// incumbent.
    fn improves_incumbent(&self, objective: f64) -> bool {
        match &self.incumbent {
            None => true,
            Some((best, _)) => self.min_obj(objective) < self.min_obj(*best) - 1e-12,
        }
    }

    fn offer_incumbent(&mut self, objective: f64, values: Vec<f64>) {
        if self.improves_incumbent(objective) {
            self.incumbent = Some((objective, values));
        }
    }
}

fn relative_gap(incumbent_min: f64, bound_min: f64) -> f64 {
    if !bound_min.is_finite() {
        return 0.0;
    }
    (incumbent_min - bound_min).max(0.0) / incumbent_min.abs().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, Problem, Sense};

    #[test]
    fn pure_lp_dispatch() {
        let mut p = Problem::new("lp", Sense::Maximize);
        let x = p.add_var("x", 0.0, 4.0);
        p.set_objective([(x, 1.0)]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!((sol.objective() - 4.0).abs() < 1e-6);
        assert_eq!(sol.stats().nodes_explored, 1);
    }

    /// max c·x over four 0/1 items of weight 5, 7, 4, 3 with `weight op cap`.
    fn knapsack(op: ConstraintOp, cap: f64, c: [f64; 4]) -> Problem {
        let mut p = Problem::new("knapsack", Sense::Maximize);
        let a = p.add_int_var("a", 0.0, 1.0);
        let b = p.add_int_var("b", 0.0, 1.0);
        let cc = p.add_int_var("c", 0.0, 1.0);
        let d = p.add_int_var("d", 0.0, 1.0);
        p.set_objective([(a, c[0]), (b, c[1]), (cc, c[2]), (d, c[3])]);
        p.add_constraint("cap", [(a, 5.0), (b, 7.0), (cc, 4.0), (d, 3.0)], op, cap);
        p
    }

    /// Under a shared context the workspace counters are lifetime totals; a
    /// solve reports only what it moved them by, and a failed solve's effort
    /// stays readable on the context.
    #[test]
    fn stats_under_a_shared_context_are_per_solve() {
        let opts = SolveOptions {
            relative_gap: 0.0,
            ..Default::default()
        };
        let mut ctx = SolveContext::new();
        assert_eq!(ctx.last_solve_stats(), None);
        let (mut factorizations, mut refactorizations) = (0, 0);
        let (mut hits, mut misses) = (0, 0);
        let mut absorb = |stats: &SolveStats, ctx: &SolveContext| {
            factorizations += stats.basis_factorizations;
            refactorizations += stats.basis_refactorizations;
            hits += stats.warm_start_hits;
            misses += stats.warm_start_misses;
            assert_eq!(
                (factorizations, refactorizations),
                ctx.factorization_counts()
            );
            assert_eq!((hits, misses), ctx.warm_start_counts());
        };
        for (cap, c) in [(14.0, [8.0, 11.0, 6.0, 4.0]), (12.0, [7.0, 10.0, 6.5, 4.0])] {
            let sol = solve_with_context(&knapsack(ConstraintOp::Le, cap, c), &opts, &mut ctx);
            let stats = *sol.unwrap().stats();
            assert!(stats.basis_factorizations > 0 && stats.nodes_explored > 0);
            assert_eq!(ctx.last_solve_stats(), Some(stats));
            absorb(&stats, &ctx);
        }
        // No subset of {5, 7, 4, 3} weighs 6: the relaxations solve, the
        // tree is searched and nothing integral turns up.
        let hopeless = knapsack(ConstraintOp::Eq, 6.0, [8.0, 11.0, 6.0, 4.0]);
        let err = solve_with_context(&hopeless, &opts, &mut ctx).unwrap_err();
        assert!(matches!(err, LpError::NoIncumbent), "{err:?}");
        let failed = ctx
            .last_solve_stats()
            .expect("a failed solve's effort is kept");
        assert!(failed.nodes_explored > 1 && failed.simplex_iterations > 0);
        absorb(&failed, &ctx);
    }

    #[test]
    fn solve_context_state_roundtrip_is_bitwise() {
        let make = |cap, c| knapsack(ConstraintOp::Le, cap, c);
        for (bounded, ft, dse) in [(false, false, false), (true, true, true)] {
            let opts = SolveOptions {
                relative_gap: 0.0,
                bounded_variables: bounded,
                forrest_tomlin: ft,
                dual_steepest_edge: dse,
                ..Default::default()
            };
            // Accumulate real warm-start state across two look-alike solves.
            let mut live = SolveContext::new();
            for (cap, c) in [(14.0, [8.0, 11.0, 6.0, 4.0]), (12.0, [7.0, 10.0, 6.5, 4.0])] {
                solve_with_context(&make(cap, c), &opts, &mut live).unwrap();
            }
            let blob = live.export_state();
            let mut restored = SolveContext::import_state(&blob).unwrap();
            assert_eq!(restored.reuse_counts(), live.reuse_counts());
            assert_eq!(restored.warm_start_counts(), live.warm_start_counts());

            // The next solve must take the identical path in both contexts.
            let next = make(13.0, [8.5, 11.0, 5.5, 4.25]);
            let sa = solve_with_context(&next, &opts, &mut live).unwrap();
            let sb = solve_with_context(&next, &opts, &mut restored).unwrap();
            assert_eq!(sa.objective().to_bits(), sb.objective().to_bits());
            assert_eq!(sa.stats().nodes_explored, sb.stats().nodes_explored);
            assert_eq!(live.reuse_counts(), restored.reuse_counts());
            assert_eq!(live.warm_start_counts(), restored.warm_start_counts());
            // Strongest check: the post-solve states re-export to the exact
            // same bytes — every float in the factorization agrees.
            assert_eq!(live.export_state(), restored.export_state());
        }
    }

    #[test]
    fn import_state_rejects_corrupt_blobs() {
        assert!(SolveContext::import_state("zz").is_err());
        assert!(SolveContext::import_state("0bad").is_err());
        let mut ctx = SolveContext::new();
        let mut p = Problem::new("lp", Sense::Maximize);
        let x = p.add_var("x", 0.0, 4.0);
        p.set_objective([(x, 1.0)]);
        solve_with_context(&p, &SolveOptions::default(), &mut ctx).unwrap();
        let blob = ctx.export_state();
        // Truncation anywhere must error, never panic.
        assert!(SolveContext::import_state(&blob[..blob.len() - 8]).is_err());
        // Trailing garbage is detected by the exhaustion check.
        assert!(SolveContext::import_state(&format!("{blob}00")).is_err());
    }

    #[test]
    fn knapsack_integer() {
        // max 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d <= 14, vars in {0,1}
        // Optimal: a=0,b=1,c=1,d=1 -> 21.
        let mut p = Problem::new("knapsack", Sense::Maximize);
        let a = p.add_int_var("a", 0.0, 1.0);
        let b = p.add_int_var("b", 0.0, 1.0);
        let c = p.add_int_var("c", 0.0, 1.0);
        let d = p.add_int_var("d", 0.0, 1.0);
        p.set_objective([(a, 8.0), (b, 11.0), (c, 6.0), (d, 4.0)]);
        p.add_constraint(
            "cap",
            [(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)],
            ConstraintOp::Le,
            14.0,
        );
        let opts = SolveOptions {
            relative_gap: 0.0,
            ..Default::default()
        };
        let sol = p.solve_with(&opts).unwrap();
        assert!(
            (sol.objective() - 21.0).abs() < 1e-6,
            "objective {}",
            sol.objective()
        );
        assert!(sol.value(a) < 0.5);
        assert!(sol.value(b) > 0.5);
    }

    #[test]
    fn integer_rounding_not_lp_rounding() {
        // Classic example where rounding the LP optimum is wrong:
        // max y s.t. -x + y <= 0.5, x + y <= 3.5, x,y integer >= 0.
        let mut p = Problem::new("gomory", Sense::Maximize);
        let x = p.add_int_var("x", 0.0, 10.0);
        let y = p.add_int_var("y", 0.0, 10.0);
        p.set_objective([(y, 1.0)]);
        p.add_constraint("c1", [(x, -1.0), (y, 1.0)], ConstraintOp::Le, 0.5);
        p.add_constraint("c2", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 3.5);
        let opts = SolveOptions {
            relative_gap: 0.0,
            ..Default::default()
        };
        let sol = p.solve_with(&opts).unwrap();
        assert!(
            (sol.objective() - 1.0).abs() < 1e-6,
            "objective {}",
            sol.objective()
        );
        let xv = sol.value(x);
        let yv = sol.value(y);
        assert!((yv - yv.round()).abs() < 1e-6);
        assert!((xv - xv.round()).abs() < 1e-6);
    }

    #[test]
    fn semicontinuous_zero_or_threshold() {
        // min x s.t. x >= 0, x semi-continuous with threshold 5, and x + y >= 3,
        // y <= 2. The constraint forces x >= 1, but semi-continuity pushes it to 5.
        let mut p = Problem::new("semi", Sense::Minimize);
        let x = p.add_semicontinuous_var("x", 5.0, 100.0);
        let y = p.add_var("y", 0.0, 2.0);
        p.set_objective([(x, 1.0), (y, 0.1)]);
        p.add_constraint("need", [(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let sol = p.solve().unwrap();
        let xv = sol.value(x);
        assert!(
            xv <= 1e-6 || xv >= 5.0 - 1e-6,
            "semi-continuous violated: {xv}"
        );
        // Cheapest MIP-feasible point is x = 5 (y alone cannot reach 3).
        assert!((xv - 5.0).abs() < 1e-6);
    }

    #[test]
    fn semicontinuous_prefers_zero_when_possible() {
        // Same structure but y can cover the demand alone, so x should be 0.
        let mut p = Problem::new("semi0", Sense::Minimize);
        let x = p.add_semicontinuous_var("x", 5.0, 100.0);
        let y = p.add_var("y", 0.0, 10.0);
        p.set_objective([(x, 1.0), (y, 0.1)]);
        p.add_constraint("need", [(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let sol = p.solve().unwrap();
        assert!(sol.value(x).abs() < 1e-6);
        assert!((sol.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        let mut p = Problem::new("inf", Sense::Minimize);
        let x = p.add_int_var("x", 0.0, 10.0);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("a", [(x, 2.0)], ConstraintOp::Eq, 3.0); // x = 1.5 impossible
                                                                  // The LP relaxation is feasible (x=1.5) but no integer point exists.
        let err = p.solve().unwrap_err();
        assert!(
            matches!(err, LpError::NoIncumbent | LpError::Infeasible),
            "{err:?}"
        );
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // min 3n + 0.5s  s.t. 10n + s >= 25, s <= 4, n integer.
        // n=3 (cost 9, s=0 fine since 30 >= 25) vs n=2,s=5 (violates s<=4). Optimal n=3.
        let mut p = Problem::new("mix", Sense::Minimize);
        let n = p.add_int_var("n", 0.0, 100.0);
        let s = p.add_var("s", 0.0, 4.0);
        p.set_objective([(n, 3.0), (s, 0.5)]);
        p.add_constraint("demand", [(n, 10.0), (s, 1.0)], ConstraintOp::Ge, 25.0);
        let sol = p.solve().unwrap();
        assert!((sol.value(n) - 3.0).abs() < 1e-6);
        assert!((sol.objective() - 9.0).abs() < 1e-4);
    }

    #[test]
    fn gap_tolerance_allows_early_stop() {
        // With a huge gap tolerance the solver may stop at the first incumbent,
        // but it must still return a feasible solution.
        let mut p = Problem::new("gap", Sense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| p.add_int_var(format!("x{i}"), 0.0, 1.0))
            .collect();
        p.set_objective(vars.iter().enumerate().map(|(i, &v)| (v, 1.0 + i as f64)));
        p.add_constraint(
            "cap",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
            ConstraintOp::Le,
            6.0,
        );
        let opts = SolveOptions {
            relative_gap: 0.5,
            ..Default::default()
        };
        let sol = p.solve_with(&opts).unwrap();
        // Feasibility of the returned point.
        let used: f64 = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| sol.value(v) * (1.0 + (i % 3) as f64))
            .sum();
        assert!(used <= 6.0 + 1e-6);
    }

    #[test]
    fn stats_are_populated() {
        let mut p = Problem::new("stats", Sense::Maximize);
        let x = p.add_int_var("x", 0.0, 7.0);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("c", [(x, 2.0)], ConstraintOp::Le, 9.0);
        let sol = p.solve().unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-6);
        assert!(sol.stats().nodes_explored >= 1);
    }

    /// A MIP large enough to branch repeatedly: warm starts must fire and
    /// agree with the cold path on the final objective.
    fn branchy_problem() -> Problem {
        let mut p = Problem::new("branchy", Sense::Maximize);
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
        p
    }

    #[test]
    fn warm_start_hits_are_recorded_and_objectives_agree() {
        let p = branchy_problem();
        let tight = SolveOptions {
            relative_gap: 0.0,
            ..Default::default()
        };
        let warm = p.solve_with(&tight).unwrap();
        let cold = p
            .solve_with(&SolveOptions {
                warm_start: false,
                ..tight.clone()
            })
            .unwrap();
        assert!((warm.objective() - cold.objective()).abs() < 1e-6);
        let stats = warm.stats();
        assert!(
            stats.warm_start_hits + stats.warm_start_misses > 0,
            "no warm starts attempted: {stats:?}"
        );
        assert_eq!(cold.stats().warm_start_hits, 0);
        assert_eq!(cold.stats().warm_start_misses, 0);
    }

    #[test]
    fn heap_entry_ordering_is_total_even_for_nan() {
        let entry = |order: f64| HeapEntry {
            order,
            node: Node {
                lower: vec![],
                upper: vec![],
                bound: order,
                depth: 0,
                basis: None,
            },
        };
        let mut heap = BinaryHeap::new();
        for order in [1.0, f64::NAN, -3.0, 2.0, f64::NEG_INFINITY] {
            heap.push(entry(order));
        }
        // Smallest bound pops first; NaN sorts after every real number.
        assert_eq!(heap.pop().unwrap().order, f64::NEG_INFINITY);
        assert_eq!(heap.pop().unwrap().order, -3.0);
        assert_eq!(heap.pop().unwrap().order, 1.0);
        assert_eq!(heap.pop().unwrap().order, 2.0);
        assert!(heap.pop().unwrap().order.is_nan());
    }
}
