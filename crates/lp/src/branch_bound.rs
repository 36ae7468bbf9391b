//! Branch & bound over integer and semi-continuous variables.
//!
//! Each node tightens per-variable bound vectors and re-solves the LP
//! relaxation. The search is best-bound-first with a most-fractional
//! branching rule, a rounding heuristic at every node to obtain incumbents
//! early, and the stopping criteria the paper configures on CPLEX: a
//! relative optimality gap and a wall-clock limit after which the best
//! feasible solution found so far is returned (§4.8).
//!
//! The solver hot path is built around four reuse layers (see
//! [`crate::simplex`]): one [`StandardFormSkeleton`] for the whole tree, one
//! [`RevisedWorkspace`] reused by every node, parent-basis warm starts
//! threaded through each node's saved basis, and replayed nodes. Hit/miss
//! counts land in [`SolveStats::warm_start_hits`] /
//! [`SolveStats::warm_start_misses`] so benchmarks can verify the warm-start
//! rate.
//!
//! A replayed node is a child whose bound vectors are bit-identical to its
//! parent's. That happens when the branching variable sits at `k + δ` with
//! `δ` above the integrality tolerance but inside the LP's feasibility
//! tolerance: the child `x ≤ k` is the parent itself. When such a child is
//! popped straight after its parent's solve, and that solve was a warm start
//! needing no pivot (so it changed nothing it reads), solving the child
//! would reproduce the parent's objective and point bit for bit. The child
//! takes them without calling the engine, and skips the rounding heuristic,
//! whose point, bounds and incumbent are the ones it was just offered. Its
//! prune checks, branching and gap test run as for any node
//! ([`SolveStats::replayed_nodes`]; `crates/lp/src/revised.rs`'s module doc
//! states the rule).

use crate::error::LpError;
use crate::expr::LinExpr;
use crate::problem::{ConstraintOp, Problem, Sense, SolveOptions, VarKind};
use crate::revised::{solve_node_revised, RevisedWorkspace};
use crate::simplex::{StandardFormSkeleton, INTEGRALITY_TOL};
use crate::solution::{Solution, SolveStats, SolveStatus};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// First byte of every [`SolveContext::export_state`] blob. The layout is
/// positional, so a blob written under another one must be refused before
/// any field is read; the value is neither `0x00` nor `0x01` because blobs
/// written before the tag existed start with the `cached` bool. Bump it
/// whenever an encoded field is added, removed or reordered.
const STATE_FORMAT: u8 = 0x03;

/// Cross-solve reuse state for a stream of structurally look-alike problems
/// — the batched-admission fast path. Holds one boxed standard-form
/// skeleton, rebound in place when the next problem matches (same matrix,
/// new RHS/objective), and one revised workspace whose factorized basis
/// warm-starts the next solve's root from the previous solve's final basis.
/// A problem that does not match falls back transparently to a rebuild.
#[derive(Debug, Default)]
pub struct SolveContext {
    cached: Option<(Box<StandardFormSkeleton>, RevisedWorkspace)>,
    /// Authorizes the next root's warm start: set when the last solve left
    /// a basis in the workspace (a certify step only when it succeeded).
    /// The warm start resumes from the workspace's own state, and only if
    /// the workspace marked that state reusable.
    root_warm: bool,
    skeleton_reuses: usize,
    skeleton_rebuilds: usize,
    /// Effort of the most recent solve, failed or not.
    /// Observational only: not part of [`SolveContext::export_state`].
    last_stats: Option<SolveStats>,
}

impl SolveContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// The effort of the most recent solve through this context — also
    /// when that solve returned an error, whose branch & bound nodes would
    /// otherwise go unreported. `None` before the first solve and after one
    /// that failed before reaching the solver.
    pub fn last_solve_stats(&self) -> Option<SolveStats> {
        self.last_stats
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
            ws.configure(options.dual_steepest_edge);
            if skeleton.is_bounded() == options.bounded_variables
                && skeleton.rebind(problem, lower, upper)
            {
                self.skeleton_reuses += 1;
                return Ok((skeleton, ws));
            }
            ws.invalidate();
            self.root_warm = false;
            let skeleton = Box::new(StandardFormSkeleton::build(
                problem,
                lower,
                upper,
                options.bounded_variables,
            )?);
            self.skeleton_rebuilds += 1;
            return Ok((skeleton, ws));
        }
        self.skeleton_rebuilds += 1;
        let skeleton = Box::new(StandardFormSkeleton::build(
            problem,
            lower,
            upper,
            options.bounded_variables,
        )?);
        Ok((skeleton, fresh_workspace(options)))
    }

    /// Solves only the root LP relaxation of `problem` through the shared
    /// skeleton/workspace and returns its objective in the problem's own
    /// sense — the bound a plan-cache certificate compares a reused plan
    /// against. The workspace keeps the optimal factorized state, so a full
    /// solve of the same problem immediately afterwards warm-starts from it.
    /// The LP takes at most `options.max_simplex_iterations` pivots.
    pub fn relaxation_bound(
        &mut self,
        problem: &Problem,
        options: &SolveOptions,
    ) -> Result<f64, LpError> {
        let lower: Vec<f64> = problem.variables().iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = problem.variables().iter().map(|v| v.upper).collect();
        let (skeleton, mut ws) = self.engine_for(problem, options, &lower, &upper)?;
        let result = solve_node_revised(
            &skeleton,
            &mut ws,
            &lower,
            &upper,
            self.root_warm,
            options.max_simplex_iterations,
            &mut Vec::new(),
        );
        self.root_warm = result.is_ok() && ws.has_basis();
        self.cached = Some((skeleton, ws));
        result.map(|r| r.objective)
    }

    /// Serializes the context — the cached skeleton's layout, the
    /// workspace's factorized basis and counters, and whether the root may
    /// warm-start — into a hex blob suitable for embedding in a JSON
    /// checkpoint: exactly what the next solve reads before it writes it
    /// (`crate::state` states the rule). [`SolveContext::import_state`]
    /// rebuilds a context that solves the next problem bit-for-bit like this
    /// one would have (same warm-start path, same pivots, same floats).
    pub fn export_state(&self) -> String {
        let mut w = crate::state::Writer::new();
        w.u8(STATE_FORMAT);
        match &self.cached {
            None => w.bool(false),
            Some((skeleton, ws)) => {
                w.bool(true);
                skeleton.encode_state(&mut w);
                ws.encode_state(skeleton, &mut w);
            }
        }
        w.bool(self.root_warm);
        w.usize(self.skeleton_reuses);
        w.usize(self.skeleton_rebuilds);
        w.into_hex()
    }

    /// Rebuilds a context from [`SolveContext::export_state`] output.
    ///
    /// The blob crosses a trust boundary, so beyond framing (a format byte
    /// other than this build's, truncation, trailing bytes, invalid tags)
    /// every decoded part is checked structurally before it is accepted:
    /// per-row and per-column vectors have the lengths the layout implies,
    /// every stored row, step, column or variable index is in range, span
    /// rows belong to shifted variables, the LU row order is a permutation,
    /// the basis names distinct columns, every pivot a solve divides by is
    /// finite and non-zero, and every row sign is exactly `±1`. A blob that
    /// fails is an `Err`, not a panic inside the next solve. (One that
    /// passes may still carry damaged *numbers*: the warm start's residual
    /// check sends a corrupted factorization to the cold path, and a
    /// skeleton whose coefficients no longer match the next problem is
    /// rebuilt rather than rebound. Integrity of the bytes is the checkpoint
    /// store's job; this decoder's is never to crash on them.)
    pub fn import_state(blob: &str) -> Result<Self, crate::state::StateError> {
        let bytes = crate::state::from_hex(blob)?;
        let mut r = crate::state::Reader::new(&bytes);
        let format = r.u8()?;
        crate::state::ensure(format == STATE_FORMAT, || {
            format!("unsupported solver-state format {format:#04x} (this build reads {STATE_FORMAT:#04x})")
        })?;
        let cached = if r.bool()? {
            let skeleton = Box::new(StandardFormSkeleton::decode_state(&mut r)?);
            let ws = RevisedWorkspace::decode_state(&mut r, &skeleton)?;
            Some((skeleton, ws))
        } else {
            None
        };
        let ctx = Self {
            cached,
            root_warm: r.bool()?,
            skeleton_reuses: r.usize()?,
            skeleton_rebuilds: r.usize()?,
            last_stats: None,
        };
        r.finish()?;
        Ok(ctx)
    }
}

/// Solves `problem` (LP or MIP) under `options`, sharing `ctx`'s skeleton,
/// factorized workspace and final basis across calls: each successive solve
/// of a matching problem warm-starts its root from the previous solve's
/// optimum instead of a cold two-phase fill. Every solve of the crate comes
/// through here; a one-shot solve passes a fresh context.
pub(crate) fn solve_with_context(
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
    let root_warm = ctx.root_warm;
    let mut solver = NodeSolver {
        problem,
        options,
        skeleton,
        workspace,
    };
    let (result, nodes_explored, simplex_iterations, replayed_nodes) = if problem.is_mip() {
        let mut bb = BranchAndBound::new(problem, options, start, solver);
        let result = bb.run(lower, upper, root_warm);
        solver = bb.node_solver;
        (
            result,
            bb.nodes_explored,
            bb.simplex_iterations,
            bb.replayed_nodes,
        )
    } else {
        let mut values = Vec::new();
        match solver.solve_node(&lower, &upper, root_warm, &mut values) {
            Ok(r) => {
                let found = (SolveStatus::Optimal, r.objective, values, 0.0);
                (Ok(found), 1, r.iterations, 0)
            }
            Err(e) => (Err(e), 0, 0, 0),
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
        bound_flips: exit.bound_flips - entry.bound_flips,
        replayed_nodes,
    };
    ctx.root_warm = solver.workspace.has_basis();
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
    bound_flips: usize,
}

impl WorkspaceCounts {
    fn read(ws: &RevisedWorkspace) -> Self {
        Self {
            warm_start: ws.warm_start_counts(),
            factorizations: ws.factorization_counts(),
            bound_flips: ws.bound_flips(),
        }
    }
}

/// What a search found: status, objective, variable values, final relative
/// gap.
type Found = (SolveStatus, f64, Vec<f64>, f64);

fn fresh_workspace(options: &SolveOptions) -> RevisedWorkspace {
    let mut ws = RevisedWorkspace::default();
    ws.configure(options.dual_steepest_edge);
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

/// One node's relaxation; the point itself is in the caller's buffer.
struct Relaxation {
    objective: f64,
    iterations: usize,
    /// `true` when children may warm-start from the state this solve left
    /// in the shared workspace.
    inheritable: bool,
    /// `true` when re-solving the same bounds next, warm, would reproduce
    /// this relaxation bit for bit (a shared-workspace warm start that took
    /// the zero-pivot shortcut).
    replayable: bool,
}

impl NodeSolver<'_> {
    /// Solves one relaxation into `values`. `warm` says the parent left a
    /// basis worth resuming from; it is only meaningful against the shared
    /// skeleton, so the fallback path ignores it and solves cold.
    fn solve_node(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        warm: bool,
        values: &mut Vec<f64>,
    ) -> Result<Relaxation, LpError> {
        let max_iterations = self.options.max_simplex_iterations;
        if self.skeleton.compatible(lower, upper) {
            let r = solve_node_revised(
                &self.skeleton,
                &mut self.workspace,
                lower,
                upper,
                warm,
                max_iterations,
                values,
            )?;
            return Ok(Relaxation {
                objective: r.objective,
                iterations: r.iterations,
                inheritable: self.workspace.has_basis(),
                replayable: r.replayable,
            });
        }
        // The rare node whose bounds change a variable's standard-form
        // classification (e.g. branching on a variable that the root
        // fixed): build a one-off skeleton and solve it cold with a fresh
        // workspace. Such a solve leaves nothing in the shared workspace,
        // so children must not inherit a warm start from it.
        let fresh = StandardFormSkeleton::build(
            self.problem,
            lower,
            upper,
            self.options.bounded_variables,
        )?;
        let mut ws = fresh_workspace(self.options);
        let r = solve_node_revised(&fresh, &mut ws, lower, upper, false, max_iterations, values)?;
        Ok(Relaxation {
            objective: r.objective,
            iterations: r.iterations,
            inheritable: false,
            replayable: false,
        })
    }
}

/// A pending search node: bound overrides plus the parent relaxation bound
/// and whether the parent left a basis to warm-start from.
struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Relaxation objective of the parent, in *minimization* orientation
    /// (used for best-bound ordering and pruning).
    bound: f64,
    depth: usize,
    /// `true` when the parent's solve left the shared workspace on a basis
    /// this node may resume from.
    warm: bool,
    /// `Some(k)` when these bound vectors are bit-identical to the parent's
    /// and the parent's relaxation came from engine solve number `k`.
    repeats: Option<usize>,
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

/// The problem's constraint rows and, last, its objective, flattened once
/// per tree for the rounding heuristic, which evaluates them at every node.
/// A row keeps its expression's terms in `LinExpr`'s variable order and
/// starts from its constant, so [`Self::evaluate`] performs
/// [`LinExpr::evaluate`]'s additions on the same operands in the same order
/// — without walking a `BTreeMap` per row per node.
struct FlatRows {
    /// Row `r` owns `vars[starts[r]..starts[r + 1]]` and the same of `coefs`.
    starts: Vec<usize>,
    vars: Vec<usize>,
    coefs: Vec<f64>,
    constants: Vec<f64>,
}

impl FlatRows {
    fn new(problem: &Problem) -> Self {
        let mut rows = Self {
            starts: vec![0],
            vars: Vec::new(),
            coefs: Vec::new(),
            constants: Vec::new(),
        };
        for c in problem.constraints() {
            rows.push(&c.expr);
        }
        rows.push(problem.objective());
        rows
    }

    fn push(&mut self, expr: &LinExpr) {
        for (var, coef) in expr.terms() {
            self.vars.push(var.index());
            self.coefs.push(coef);
        }
        self.starts.push(self.vars.len());
        self.constants.push(expr.constant());
    }

    fn objective_row(&self) -> usize {
        self.constants.len() - 1
    }

    fn evaluate(&self, row: usize, values: &[f64]) -> f64 {
        let span = self.starts[row]..self.starts[row + 1];
        let mut acc = self.constants[row];
        for (&var, &coef) in self.vars[span.clone()].iter().zip(&self.coefs[span]) {
            acc += coef * values[var];
        }
        acc
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
    /// Relaxations solved by the engine so far, failed ones included.
    solves: usize,
    /// `(k, objective)` while engine solve `k` is the last one and was
    /// replayable: its point is still in `values`.
    replayable: Option<(usize, f64)>,
    replayed_nodes: usize,
    rows: FlatRows,
    /// The current node's relaxation point.
    values: Vec<f64>,
    /// The rounding heuristic's candidate point.
    rounded: Vec<f64>,
    /// The constraint that refuted the last rounded point: feasibility is a
    /// pure conjunction, so the likeliest refuter may be asked first.
    last_refuter: usize,
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
            solves: 0,
            replayable: None,
            replayed_nodes: 0,
            rows: FlatRows::new(problem),
            values: Vec::new(),
            rounded: Vec::new(),
            last_refuter: 0,
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
        root_warm: bool,
    ) -> Result<Found, LpError> {
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        heap.push(HeapEntry {
            order: f64::NEG_INFINITY,
            node: Node {
                lower: root_lower,
                upper: root_upper,
                bound: f64::NEG_INFINITY,
                depth: 0,
                warm: root_warm,
                repeats: None,
            },
        });

        let mut root_infeasible = true;
        let mut attempted_any_node = false;
        let mut saw_unbounded = false;

        // The limits are tested before a node leaves the heap: a capped
        // search keeps its open nodes there, and the final gap reads the
        // best of their bounds.
        while self.nodes_explored < self.options.max_nodes
            && self.start.elapsed() < self.options.time_limit
        {
            let Some(HeapEntry { node, .. }) = heap.pop() else {
                break;
            };
            // Prune against the incumbent (in minimization orientation).
            if let Some((inc_obj, _)) = &self.incumbent {
                let inc_min = self.min_obj(*inc_obj);
                if node.bound >= inc_min - self.gap_slack(inc_min) {
                    continue;
                }
            }

            attempted_any_node = true;
            // Nothing has touched the workspace or `values` since the solve
            // this node repeats, so that solve's result is this node's.
            let replay = match (node.warm, node.repeats, self.replayable) {
                (true, Some(k), Some((last, objective))) if k == last => Some(objective),
                _ => None,
            };
            let solved = match replay {
                Some(objective) => Ok(self.replay(&node, objective)),
                None => {
                    self.solves += 1;
                    self.replayable = None;
                    self.node_solver.solve_node(
                        &node.lower,
                        &node.upper,
                        node.warm,
                        &mut self.values,
                    )
                }
            };
            let relax = match solved {
                Ok(r) => {
                    if r.replayable {
                        self.replayable = Some((self.solves, r.objective));
                    }
                    r
                }
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

            match self.most_violated() {
                None => {
                    // Integral (and semi-continuous feasible): candidate incumbent.
                    if self.improves_incumbent(relax.objective) {
                        set_incumbent(&mut self.incumbent, relax.objective, &self.values);
                    }
                }
                Some(branch_var) => {
                    // Cheap rounding heuristics give early incumbents and keep
                    // the tree small (most of our models are near-integral).
                    // A replayed node's point, bounds and incumbent are the
                    // ones the heuristic was just offered.
                    if replay.is_none() {
                        self.try_rounding_heuristic(&node);
                    }
                    self.branch(node, branch_var, relax.inheritable, relax_min, &mut heap);
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
    /// of the current relaxation point whose fractional part is largest, or
    /// `None` if the point is feasible for the MIP.
    fn most_violated(&self) -> Option<usize> {
        let tol = INTEGRALITY_TOL;
        let mut best: Option<(usize, f64)> = None;
        for (i, var) in self.problem.variables().iter().enumerate() {
            let x = self.values[i];
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

    /// Replays engine solve `self.solves` for `node`, whose bounds repeat
    /// that solve's: its objective, the point still in `values`, no pivot.
    fn replay(&mut self, node: &Node, objective: f64) -> Relaxation {
        // The skipped solve would have counted a warm hit, and the count is
        // part of the exported solver state; a debug build's re-solve counts
        // it itself.
        if cfg!(debug_assertions) {
            self.check_replay(node, objective);
        } else {
            self.node_solver.workspace.count_replayed_hit();
        }
        self.replayed_nodes += 1;
        Relaxation {
            objective,
            iterations: 0,
            inheritable: true,
            replayable: true,
        }
    }

    /// Debug builds prove every replay: the engine re-solves the node, and
    /// its objective and point must equal the replayed ones bit for bit,
    /// with no pivot and the solve replayable still. (The rounding
    /// heuristic's buffer is the scratch: a replayed node skips it.)
    fn check_replay(&mut self, node: &Node, objective: f64) {
        let mut point = std::mem::take(&mut self.rounded);
        let fresh = self
            .node_solver
            .solve_node(&node.lower, &node.upper, node.warm, &mut point)
            .expect("a replayed node re-solves");
        assert_eq!(
            (
                fresh.objective.to_bits(),
                fresh.iterations,
                fresh.replayable
            ),
            (objective.to_bits(), 0, true),
            "replayed objective {objective:e}, re-solved {:e}",
            fresh.objective
        );
        assert!(
            point.len() == self.values.len()
                && point
                    .iter()
                    .zip(&self.values)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "replayed point {:?}, re-solved {point:?}",
            self.values
        );
        self.rounded = point;
    }

    /// Pushes the two children of `node` on `var`. The node's own bound
    /// vectors become the second child's; the first child's are the one copy.
    /// A child whose bounds are the node's own is tagged with the engine
    /// solve the node's relaxation came from.
    fn branch(
        &mut self,
        node: Node,
        var: usize,
        warm: bool,
        relax_min: f64,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
        let x = self.values[var];
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
        let empty = |(lo, hi): (f64, f64)| lo > hi + 1e-12;
        let own = (node.lower[var].to_bits(), node.upper[var].to_bits());
        let solve = self.solves;
        let repeats = |(lo, hi): (f64, f64)| (own == (lo.to_bits(), hi.to_bits())).then_some(solve);
        let Node {
            mut lower,
            mut upper,
            depth,
            ..
        } = node;
        let mut push = |lower: Vec<f64>, upper: Vec<f64>, repeats: Option<usize>| {
            heap.push(HeapEntry {
                order: relax_min,
                node: Node {
                    lower,
                    upper,
                    bound: relax_min,
                    depth: depth + 1,
                    warm,
                    repeats,
                },
            });
        };
        if !empty(left) {
            let (mut l, mut u) = if empty(right) {
                (std::mem::take(&mut lower), std::mem::take(&mut upper))
            } else {
                (lower.clone(), upper.clone())
            };
            (l[var], u[var]) = left;
            push(l, u, repeats(left));
        }
        if !empty(right) {
            (lower[var], upper[var]) = right;
            push(lower, upper, repeats(right));
        }
    }

    /// Rounds the relaxation point to a MIP-feasible one and makes it the
    /// incumbent if it satisfies all constraints and improves on it. Two
    /// roundings are tried: nearest-integer and ceiling (rounding resource
    /// counts *up* is usually the safe direction in Conductor's
    /// capacity-style constraints).
    fn try_rounding_heuristic(&mut self, node: &Node) {
        let mut values = std::mem::take(&mut self.rounded);
        for ceiling in [false, true] {
            values.clear();
            values.extend_from_slice(&self.values);
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
            // The objective is one row, feasibility one per constraint:
            // ask first whether the point could be accepted.
            let obj = self.rows.evaluate(self.rows.objective_row(), &values);
            if self.improves_incumbent(obj) && self.is_feasible(&values) {
                set_incumbent(&mut self.incumbent, obj, &values);
            }
        }
        self.rounded = values;
    }

    /// Checks all constraints, bounds and integrality of a candidate point.
    fn is_feasible(&mut self, values: &[f64]) -> bool {
        // One failing conjunct settles it, and consecutive nodes round to
        // look-alike points: ask the last refuter before anything else.
        let rows = self.problem.constraints().len();
        let first = self.last_refuter;
        if first < rows && !self.row_holds(first, values) {
            return false;
        }
        if !self.within_variable_domains(values) {
            return false;
        }
        for row in (0..rows).filter(|&row| row != first) {
            if !self.row_holds(row, values) {
                self.last_refuter = row;
                return false;
            }
        }
        true
    }

    fn within_variable_domains(&self, values: &[f64]) -> bool {
        let tol = 1e-6;
        for (i, var) in self.problem.variables().iter().enumerate() {
            let x = values[i];
            if x < var.lower - tol || x > var.upper + tol {
                return false;
            }
            match var.kind {
                VarKind::Continuous => {}
                VarKind::Integer => {
                    if (x - x.round()).abs() > INTEGRALITY_TOL {
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
        true
    }

    fn row_holds(&self, row: usize, values: &[f64]) -> bool {
        let tol = 1e-6;
        let c = &self.problem.constraints()[row];
        let lhs = self.rows.evaluate(row, values);
        match c.op {
            ConstraintOp::Le => lhs <= c.rhs + tol * (1.0 + c.rhs.abs()),
            ConstraintOp::Ge => lhs >= c.rhs - tol * (1.0 + c.rhs.abs()),
            ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol * (1.0 + c.rhs.abs()),
        }
    }

    /// `true` when a feasible point with this objective would replace the
    /// incumbent.
    fn improves_incumbent(&self, objective: f64) -> bool {
        match &self.incumbent {
            None => true,
            Some((best, _)) => self.min_obj(objective) < self.min_obj(*best) - 1e-12,
        }
    }
}

/// Replaces the incumbent, reusing its point's storage.
fn set_incumbent(incumbent: &mut Option<(f64, Vec<f64>)>, objective: f64, values: &[f64]) {
    match incumbent {
        Some((best, point)) => {
            *best = objective;
            point.clear();
            point.extend_from_slice(values);
        }
        None => *incumbent = Some((objective, values.to_vec())),
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

    /// `(reuses, rebuilds)` — how many solves rebound the cached skeleton in
    /// place vs. paid for a fresh build.
    fn reuse_counts(ctx: &SolveContext) -> (usize, usize) {
        (ctx.skeleton_reuses, ctx.skeleton_rebuilds)
    }

    /// Lifetime `(factorizations, refactorizations)` of the shared
    /// workspace; each solve's [`SolveStats`] carries its own share.
    fn factorization_counts(ctx: &SolveContext) -> (usize, usize) {
        ctx.cached
            .as_ref()
            .map(|(_, ws)| ws.factorization_counts())
            .unwrap_or((0, 0))
    }

    /// Warm-start counts accumulated by the shared workspace.
    fn warm_start_counts(ctx: &SolveContext) -> (usize, usize) {
        ctx.cached
            .as_ref()
            .map(|(_, ws)| ws.warm_start_counts())
            .unwrap_or((0, 0))
    }

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
                factorization_counts(ctx)
            );
            assert_eq!((hits, misses), warm_start_counts(ctx));
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

    /// Every `(bounded_variables, dual_steepest_edge)` configuration.
    const CONFIGURATIONS: [(bool, bool); 4] =
        [(false, false), (false, true), (true, false), (true, true)];

    /// One step of [`roundtrip_steps`]: a full solve under a node cap, or
    /// the plan cache's certify step (the root LP alone).
    enum Step {
        Solve(Problem, usize),
        Certify(Problem),
    }

    /// Look-alike knapsacks (rebinds), the certify step — so a later export
    /// happens while the workspace carries certified reduced costs — a
    /// layout change to the spinning model capped at 200 nodes (most of them
    /// replayed), the spin rebound under a cap of 50, its tight twin
    /// (another layout) and its certify step, and a knapsack again.
    fn roundtrip_steps() -> Vec<Step> {
        let make = |cap, c| knapsack(ConstraintOp::Le, cap, c);
        let uncapped = SolveOptions::default().max_nodes;
        vec![
            Step::Solve(make(14.0, [8.0, 11.0, 6.0, 4.0]), uncapped),
            Step::Solve(make(12.0, [7.0, 10.0, 6.5, 4.0]), uncapped),
            Step::Certify(make(12.5, [7.5, 10.0, 6.0, 4.5])),
            Step::Solve(make(13.0, [8.5, 11.0, 5.5, 4.25]), uncapped),
            Step::Solve(spinning_model(true), 200),
            Step::Solve(spinning_model(true), 50),
            Step::Solve(spinning_model(false), 200),
            Step::Certify(spinning_model(false)),
            Step::Solve(make(14.0, [8.0, 11.0, 6.0, 4.0]), uncapped),
        ]
    }

    /// What a step returned, to the bit: the objective's and the point's
    /// bits (a certify step has no point), or the error — and a solve's
    /// effort, failed or not, without the clock.
    type StepOutcome = (Result<(u64, Vec<u64>), LpError>, Option<SolveStats>);

    fn run_step(step: &Step, config: (bool, bool), ctx: &mut SolveContext) -> StepOutcome {
        let (bounded_variables, dual_steepest_edge) = config;
        let opts = SolveOptions {
            bounded_variables,
            dual_steepest_edge,
            ..Default::default()
        };
        match step {
            Step::Solve(problem, max_nodes) => {
                let opts = SolveOptions {
                    max_nodes: *max_nodes,
                    ..opts
                };
                let result = solve_with_context(problem, &opts, ctx).map(|sol| {
                    let point = sol.values().iter().map(|v| v.to_bits()).collect();
                    (sol.objective().to_bits(), point)
                });
                let effort = ctx.last_solve_stats().map(|s| SolveStats {
                    solve_time: Default::default(),
                    ..s
                });
                (result, effort)
            }
            Step::Certify(problem) => {
                let bound = ctx.relaxation_bound(problem, &opts);
                (bound.map(|b| (b.to_bits(), Vec::new())), None)
            }
        }
    }

    /// Export → import after every step of [`roundtrip_steps`], under every
    /// configuration: the live context and its imported twin must take the
    /// next step identically — the same answer to the bit, the same effort
    /// — and re-export the same bytes, every float in the factorization
    /// included.
    #[test]
    fn solve_context_state_roundtrip_is_bitwise() {
        for config in CONFIGURATIONS {
            let mut live = SolveContext::new();
            let mut replayed = 0;
            for (k, step) in roundtrip_steps().iter().enumerate() {
                let mut twin = SolveContext::import_state(&live.export_state()).unwrap();
                assert_eq!(reuse_counts(&twin), reuse_counts(&live));
                assert_eq!(warm_start_counts(&twin), warm_start_counts(&live));
                assert_eq!(factorization_counts(&twin), factorization_counts(&live));
                let ours = run_step(step, config, &mut live);
                let theirs = run_step(step, config, &mut twin);
                assert_eq!(ours, theirs, "step {k} under {config:?}");
                assert_eq!(
                    live.export_state(),
                    twin.export_state(),
                    "step {k} under {config:?}"
                );
                replayed += ours.1.map_or(0, |s| s.replayed_nodes);
            }
            // The capped spins replay nodes under every configuration.
            assert_eq!(replayed, 195 + 45, "{config:?}");
        }
    }

    /// The blob's length after [`roundtrip_steps`], per configuration: what
    /// the next solve reads and nothing it rebuilds or overwrites. A count,
    /// the same on every machine; a field that starts travelling moves it.
    /// Taken at solver-state format 0x03 — never edit a value without
    /// bumping the format.
    #[test]
    fn export_state_carries_no_scratch() {
        let lengths = CONFIGURATIONS.map(|config| {
            let mut ctx = SolveContext::new();
            for step in roundtrip_steps() {
                let _ = run_step(&step, config, &mut ctx);
            }
            ctx.export_state().len() / 2
        });
        assert_eq!(lengths, [1_473, 1_473, 293, 293]);
    }

    #[test]
    fn import_state_rejects_corrupt_blobs() {
        assert!(SolveContext::import_state("zz").is_err());
        assert!(SolveContext::import_state("0bad").is_err());
        // x shifted with a span row, y mirrored, and the second row flipped:
        // its right-hand side is −10 − (0 − 3) < 0 with y at its upper.
        let mut p = Problem::new("lp", Sense::Maximize);
        let x = p.add_var("x", 0.0, 4.0);
        let y = p.add_var("y", f64::NEG_INFINITY, 3.0);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("sum", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        p.add_constraint("gap", [(x, 1.0), (y, -1.0)], ConstraintOp::Ge, -10.0);
        let mut ctx = SolveContext::new();
        solve_with_context(&p, &SolveOptions::default(), &mut ctx).unwrap();
        let blob = ctx.export_state();
        // Truncation anywhere must error, never panic.
        assert!(SolveContext::import_state(&blob[..blob.len() - 8]).is_err());
        // Trailing garbage is detected by the exhaustion check.
        assert!(SolveContext::import_state(&format!("{blob}00")).is_err());
        // A blob from another layout is refused at byte 0, whatever follows
        // it: one written before the format tag existed starts with the
        // `cached` bool, an earlier or later layout with its own tag.
        for other in ["00", "01", "02", "ff"] {
            let err = SolveContext::import_state(&format!("{other}{}", &blob[2..])).unwrap_err();
            assert!(
                err.to_string().contains("unsupported solver-state format"),
                "{other}: {err}"
            );
        }

        // A well-framed blob whose layout lies is refused with the lie
        // named. Each field is found by its bytes and what follows them.
        let bytes = crate::state::from_hex(&blob).unwrap();
        let encoded = |write: &dyn Fn(&mut crate::state::Writer)| {
            let mut w = crate::state::Writer::new();
            write(&mut w);
            crate::state::from_hex(&w.into_hex()).unwrap()
        };
        let tampered = |from: Vec<u8>, to: Vec<u8>| {
            let at: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i..].starts_with(&from))
                .collect();
            assert_eq!(at.len(), 1, "the field to tamper with must occur once");
            let mut damaged = bytes.clone();
            damaged[at[0]..at[0] + from.len()].copy_from_slice(&to);
            SolveContext::import_state(&crate::state::to_hex(&damaged))
                .map(|_| ())
                .unwrap_err()
                .to_string()
        };
        // The row signs decide the rebuilt matrix: anything but ±1 is not
        // another problem but a hostile blob. (The workspace's statuses, one
        // per column, follow the signs.)
        let signs = |middle: f64| {
            encoded(&|w| {
                w.vec_f64(&[1.0, middle, 1.0]);
                w.usize(7);
            })
        };
        for sign in [-0.5, 0.0, -0.0, f64::NAN, -1.0 - f64::EPSILON] {
            let err = tampered(signs(-1.0), signs(sign));
            assert!(err.contains("row sign"), "{sign}: {err}");
        }
        // A span row on the mirrored y. (The skeleton's span flags are
        // followed by its mode and the three LU columns.)
        let spans = |y_span: bool| {
            encoded(&|w| {
                w.vec_bool(&[true, y_span]);
                w.bool(false);
                w.usize(3);
            })
        };
        let err = tampered(spans(false), spans(true));
        assert!(err.contains("span column"), "{err}");
    }

    /// Two LPs over one matrix whose optima sit at different vertices: the
    /// first prefers `x`, its re-priced twin `y`.
    fn repriced_twins() -> (Problem, Problem) {
        let build = |cx: f64, cy: f64| {
            let mut p = Problem::new("twin", Sense::Maximize);
            let x = p.add_var("x", 0.0, f64::INFINITY);
            let y = p.add_var("y", 0.0, f64::INFINITY);
            p.set_objective([(x, cx), (y, cy)]);
            p.add_constraint("a", [(x, 1.0), (y, 2.0)], ConstraintOp::Le, 8.0);
            p.add_constraint("b", [(x, 3.0), (y, 1.0)], ConstraintOp::Le, 9.0);
            p
        };
        (build(5.0, 1.0), build(1.0, 5.0))
    }

    /// A rebind swaps the objective under a live workspace at an unchanged
    /// skeleton address, matrix and right-hand side, so the warm start of
    /// the twin repairs nothing — and reduced costs certified for the first
    /// objective would declare the old vertex optimal for the second.
    #[test]
    fn a_rebind_retires_the_certified_reduced_costs() {
        let opts = SolveOptions::default();
        let (first, twin) = repriced_twins();
        let fresh = solve_with_context(&twin, &opts, &mut SolveContext::new()).unwrap();
        assert!((fresh.objective() - 20.0).abs() < 1e-9);

        let mut ctx = SolveContext::new();
        let before = solve_with_context(&first, &opts, &mut ctx).unwrap();
        assert!((before.objective() - 15.0).abs() < 1e-9);
        let after = solve_with_context(&twin, &opts, &mut ctx).unwrap();
        assert_eq!(reuse_counts(&ctx), (1, 1), "the twin must rebind");
        assert_eq!(after.status(), SolveStatus::Optimal);
        assert!(
            (after.objective() - fresh.objective()).abs() < 1e-9,
            "warm {} vs fresh {}",
            after.objective(),
            fresh.objective()
        );
        assert!(after.stats().warm_start_hits == 1 && after.stats().simplex_iterations > 0);

        // The plan cache's certify step takes the same road.
        let mut ctx = SolveContext::new();
        ctx.relaxation_bound(&first, &opts).unwrap();
        let bound = ctx.relaxation_bound(&twin, &opts).unwrap();
        assert!((bound - fresh.objective()).abs() < 1e-9, "bound {bound}");
        assert_eq!(warm_start_counts(&ctx), (1, 0));
    }

    /// A well-framed blob with one damaged byte — a length, an index, a flag,
    /// a float — is either refused at import or restores a context whose next
    /// solve returns (an answer or an error) without panicking.
    #[test]
    fn import_state_survives_every_single_byte_flip() {
        let make = |cap, c| knapsack(ConstraintOp::Le, cap, c);
        let next = make(13.0, [8.5, 11.0, 5.5, 4.25]);
        let (mut refused, mut survived) = (0usize, 0usize);
        for (bounded, dse) in [(false, false), (true, true)] {
            let opts = SolveOptions {
                relative_gap: 0.0,
                bounded_variables: bounded,
                dual_steepest_edge: dse,
                ..Default::default()
            };
            let mut ctx = SolveContext::new();
            for (cap, c) in [(14.0, [8.0, 11.0, 6.0, 4.0]), (12.0, [7.0, 10.0, 6.5, 4.0])] {
                solve_with_context(&make(cap, c), &opts, &mut ctx).unwrap();
            }
            let bytes = crate::state::from_hex(&ctx.export_state()).unwrap();
            for at in 0..bytes.len() {
                for mask in [0xff, 0x01] {
                    let mut damaged = bytes.clone();
                    damaged[at] ^= mask;
                    let blob = crate::state::to_hex(&damaged);
                    let Ok(mut restored) = SolveContext::import_state(&blob) else {
                        refused += 1;
                        continue;
                    };
                    let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = solve_with_context(&next, &opts, &mut restored);
                    }));
                    assert!(
                        solved.is_ok(),
                        "byte {at} ^ {mask:#04x} (bounded {bounded}): imported, then panicked"
                    );
                    survived += 1;
                }
            }
        }
        // Both outcomes must occur, or the sweep is not testing what it says.
        assert!(
            refused > 0 && survived > 0,
            "{refused} refused, {survived} survived"
        );
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
    /// the tree must still reach the oracle's optimum.
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
        let sol = p.solve_with(&tight).unwrap();
        let optimum = crate::oracle::solve(&p).objective();
        assert!(
            (sol.objective() - optimum).abs() < 1e-6,
            "{} vs oracle {optimum}",
            sol.objective()
        );
        let stats = sol.stats();
        assert!(stats.warm_start_hits > 0, "no warm start hit: {stats:?}");
    }

    /// min n + 1.3m (+ 0.001s) over w ≤ 0.44n + 0.5m, w ≥ 0.44·3.000004 (and
    /// s ≥ 100), n, m integers in 0..=15. The root LP puts n at 3.000004.
    fn spinning_model(with_s: bool) -> Problem {
        let mut p = Problem::new("spin", Sense::Minimize);
        let n = p.add_int_var("n", 0.0, 15.0);
        let m = p.add_int_var("m", 0.0, 15.0);
        let w = p.add_var("w", 0.0, f64::INFINITY);
        let mut objective = vec![(n, 1.0), (m, 1.3)];
        p.add_constraint(
            "rate",
            [(w, 1.0), (n, -0.44), (m, -0.5)],
            ConstraintOp::Le,
            0.0,
        );
        p.add_constraint("work", [(w, 1.0)], ConstraintOp::Ge, 0.44 * 3.000004);
        if with_s {
            let s = p.add_var("s", 0.0, f64::INFINITY);
            objective.push((s, 0.001));
            p.add_constraint("floor", [(s, 1.0)], ConstraintOp::Ge, 100.0);
        }
        p.set_objective(objective);
        p
    }

    /// A node whose point is fractional to the integrality test (|δ| > 1e-6)
    /// but feasible to the LP (|δ| < 1e-7·(1 + b_scale), and `s ≥ 100` makes
    /// `b_scale` 100): its down child is the node itself, the warm start
    /// repairs nothing and the child is branched again, to the cap. Without
    /// `s` the LP tolerance is tight enough that the tree solves in 6 nodes.
    /// The counts and the objective bits were taken before branch & bound
    /// replayed such nodes; never edit them.
    #[test]
    fn a_node_equal_to_its_parent_spins_to_the_cap() {
        let capped = SolveOptions {
            max_nodes: 200,
            ..Default::default()
        };
        let sol = spinning_model(true).solve_with(&capped).unwrap();
        let stats = *sol.stats();
        // The cap stops the search with the spinning node still open: its
        // bound, the root LP's 3.100004, is far outside the 1 % gap under
        // the 4.1 incumbent, so the answer is feasible, not proven optimal.
        assert_eq!(sol.status(), SolveStatus::Feasible);
        assert!(
            stats.relative_gap > 0.01 && (stats.relative_gap - (4.1 - 3.100004) / 4.1).abs() < 1e-9,
            "gap {}",
            stats.relative_gap
        );
        assert_eq!(
            sol.objective().to_bits(),
            4.1f64.to_bits(),
            "{}",
            sol.objective()
        );
        let point: Vec<u64> = sol.values().iter().map(|v| v.to_bits()).collect();
        let pinned = [4.0, -0.0, 1.32000176, 100.0].map(f64::to_bits);
        assert_eq!(point, pinned, "{:?}", sol.values());
        assert_eq!(
            (
                stats.nodes_explored,
                stats.simplex_iterations,
                stats.warm_start_hits,
                stats.warm_start_misses,
                stats.basis_factorizations,
            ),
            (200, 6, 199, 0, 1)
        );
        // Nearly every node of the spin repeats the one solved before it,
        // and costs a heap pop instead of an LP solve.
        assert_eq!(stats.replayed_nodes, 195);

        let tight = spinning_model(false).solve_with(&capped).unwrap();
        assert_eq!(tight.stats().nodes_explored, 6);
        assert_eq!(tight.stats().replayed_nodes, 0);
    }

    /// An integer variable bounded only above is mirrored in the span-row
    /// layout, so the up child's finite lower bound is a layout the root
    /// skeleton cannot express: [`NodeSolver::solve_node`] solves that child
    /// on a one-off skeleton. (The bounded-variable layout takes the child as
    /// a column bound.) Every configuration must still reach the oracle's
    /// optimum, which lies in that child.
    #[test]
    fn an_up_child_the_span_row_layout_cannot_express_solves_on_a_one_off_skeleton() {
        // min x + 0.5y s.t. x + y ≥ 2.5, y ≤ 0.2, x ≤ 10 integer and free
        // below: the root puts x at 2.3, its down child is infeasible and
        // the optimum is x = 3 in its up child.
        let mut p = Problem::new("mirrored", Sense::Minimize);
        let x = p.add_int_var("x", f64::NEG_INFINITY, 10.0);
        let y = p.add_var("y", 0.0, 0.2);
        p.set_objective([(x, 1.0), (y, 0.5)]);
        p.add_constraint("need", [(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.5);
        let lower: Vec<f64> = p.variables().iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = p.variables().iter().map(|v| v.upper).collect();
        let mut up_lower = lower.clone();
        up_lower[x.index()] = 3.0;
        let spans = StandardFormSkeleton::build(&p, &lower, &upper, false).unwrap();
        assert!(spans.compatible(&lower, &upper));
        assert!(!spans.compatible(&up_lower, &upper));
        let bounded = StandardFormSkeleton::build(&p, &lower, &upper, true).unwrap();
        assert!(bounded.compatible(&up_lower, &upper));

        let optimum = crate::oracle::solve(&p).objective();
        assert!((optimum - 3.0).abs() < 1e-9, "oracle {optimum}");
        for (bounded_variables, dual_steepest_edge) in CONFIGURATIONS {
            let opts = SolveOptions {
                relative_gap: 0.0,
                bounded_variables,
                dual_steepest_edge,
                ..Default::default()
            };
            let sol = p.solve_with(&opts).unwrap();
            assert!(
                (sol.objective() - optimum).abs() < 1e-9,
                "bounded {bounded_variables}, dse {dual_steepest_edge}: {} vs oracle {optimum}",
                sol.objective()
            );
            assert!((sol.value(x) - 3.0).abs() < 1e-9);
        }
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
                warm: false,
                repeats: None,
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
