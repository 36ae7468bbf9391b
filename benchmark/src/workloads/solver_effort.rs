//! Solver effort summed over `PlanningReport`s: the `lp` and `core.model`
//! per-layer metrics. The numbers are the library's own, read not re-derived.

use super::{ratio, Outcome};
use conductor_core::PlanningReport;
use std::time::Duration;

#[derive(Default)]
pub struct SolverEffort {
    pub solve: Duration,
    pub build: Duration,
    longest_solve: Duration,
    nodes: usize,
    iterations: usize,
    factorizations: usize,
    refactorizations: usize,
    ft_updates: usize,
    bound_flips: usize,
    warm_hits: usize,
    warm_misses: usize,
    solves: usize,
    capped: usize,
    vars_max: usize,
    constraints_max: usize,
}

impl SolverEffort {
    /// Adds one report; `node_cap` is the `max_nodes` it was solved under.
    pub fn absorb(&mut self, p: &PlanningReport, node_cap: usize) {
        self.solve += p.solve_time;
        self.build += p.model_build_time;
        self.longest_solve = self.longest_solve.max(p.solve_time);
        self.nodes += p.nodes_explored;
        self.iterations += p.simplex_iterations;
        self.factorizations += p.basis_factorizations;
        self.refactorizations += p.basis_refactorizations;
        self.ft_updates += p.ft_updates;
        self.bound_flips += p.bound_flips;
        self.warm_hits += p.warm_start_hits;
        self.warm_misses += p.warm_start_misses;
        self.solves += 1;
        self.capped += usize::from(p.nodes_explored >= node_cap);
        self.vars_max = self.vars_max.max(p.model_vars);
        self.constraints_max = self.constraints_max.max(p.model_constraints);
    }

    /// Writes the `lp.*` and `model.*` metrics and the exact solver counts.
    /// `time_limit` is the wall-clock cap the solves ran under.
    pub fn publish(&self, time_limit: Duration, out: &mut Outcome) {
        let solve_s = self.solve.as_secs_f64();
        let warm_attempts = (self.warm_hits + self.warm_misses) as f64;
        out.time_limit_share = ratio(self.longest_solve.as_secs_f64(), time_limit.as_secs_f64());
        out.set("lp.solve_s", solve_s);
        out.set("lp.nodes", self.nodes as f64);
        out.set("lp.simplex_iterations", self.iterations as f64);
        out.set("lp.factorizations", self.factorizations as f64);
        out.set("lp.refactorizations", self.refactorizations as f64);
        out.set("lp.ft_updates", self.ft_updates as f64);
        out.set("lp.bound_flips", self.bound_flips as f64);
        out.set(
            "lp.warm_start_rate",
            ratio(self.warm_hits as f64, warm_attempts),
        );
        out.set("lp.us_per_node", ratio(solve_s * 1e6, self.nodes as f64));
        out.set(
            "lp.us_per_iteration",
            ratio(solve_s * 1e6, self.iterations as f64),
        );
        out.set(
            "lp.node_cap_share",
            ratio(self.capped as f64, self.solves as f64),
        );
        out.set("model.build_s", self.build.as_secs_f64());
        out.set("model.vars_max", self.vars_max as f64);
        out.set("model.constraints_max", self.constraints_max as f64);
        out.count("lp.nodes", self.nodes as u64);
        out.count("lp.simplex_iterations", self.iterations as u64);
        out.count("lp.factorizations", self.factorizations as u64);
    }
}
