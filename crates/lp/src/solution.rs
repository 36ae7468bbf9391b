//! Solve results: status, variable values, statistics.

use crate::expr::VarId;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Quality of a returned solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// Proven optimal (within the configured relative gap for MIPs).
    Optimal,
    /// A feasible solution was found but optimality was not proven before a
    /// node/time limit was hit — the paper's "best solution computed so far"
    /// behaviour (§4.8).
    Feasible,
}

/// Counters describing the work performed by the solver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Total simplex iterations across all LP relaxations.
    pub simplex_iterations: usize,
    /// Branch & bound nodes explored (1 for a pure LP).
    pub nodes_explored: usize,
    /// Wall-clock time spent solving.
    pub solve_time: Duration,
    /// Final relative MIP gap (0 for pure LPs / proven-optimal MIPs).
    pub relative_gap: f64,
    /// Nodes whose parent basis was installed and primal feasible, skipping
    /// simplex phase 1 entirely.
    #[serde(default)]
    pub warm_start_hits: usize,
    /// Nodes that attempted a warm start but fell back to the cold two-phase
    /// path (parent basis infeasible or not installable).
    #[serde(default)]
    pub warm_start_misses: usize,
    /// LU factorizations of the simplex basis.
    #[serde(default)]
    pub basis_factorizations: usize,
    /// The subset of `basis_factorizations` triggered mid-stream by the
    /// eta-file limit or a drift check — the revised engine's refresh
    /// policy.
    #[serde(default)]
    pub basis_refactorizations: usize,
    /// Bound flips performed by the bounded-variable ratio test: the
    /// entering variable hit its own opposite bound before any basic
    /// variable blocked, so its status flipped with no basis change.
    /// Always 0 unless `SolveOptions::bounded_variables` is on.
    #[serde(default)]
    pub bound_flips: usize,
    /// The subset of `nodes_explored` whose bounds were bit-identical to
    /// those of the node solved just before them, after a solve that needed
    /// no pivot: branch & bound took that solve's objective and point again
    /// instead of calling the LP engine (each still counts a warm-start hit).
    #[serde(default)]
    pub replayed_nodes: usize,
}

impl SolveStats {
    /// Fraction of warm-start attempts that skipped phase 1 (`NaN`-free:
    /// returns 0 when no warm start was attempted).
    pub fn warm_start_rate(&self) -> f64 {
        let attempts = self.warm_start_hits + self.warm_start_misses;
        if attempts == 0 {
            0.0
        } else {
            self.warm_start_hits as f64 / attempts as f64
        }
    }
}

/// The result of a successful solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Solution {
    status: SolveStatus,
    objective: f64,
    values: Vec<f64>,
    stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(
        status: SolveStatus,
        objective: f64,
        values: Vec<f64>,
        stats: SolveStats,
    ) -> Self {
        Self {
            status,
            objective,
            values,
            stats,
        }
    }

    /// Solution quality.
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// Objective value in the problem's original sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable. Panics if the handle does not belong to the
    /// problem this solution was produced from.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Dense vector of values indexed by `VarId::index`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Solver work counters.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let sol = Solution::new(
            SolveStatus::Optimal,
            42.0,
            vec![1.0, 2.0, 3.0],
            SolveStats {
                simplex_iterations: 7,
                nodes_explored: 1,
                ..Default::default()
            },
        );
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert_eq!(sol.objective(), 42.0);
        assert_eq!(sol.value(VarId(1)), 2.0);
        assert_eq!(sol.values().len(), 3);
        assert_eq!(sol.stats().simplex_iterations, 7);
    }
}
