//! User-facing optimization goals (§2.2, §3).
//!
//! "Customers only specify goals, e.g., minimizing monetary cost or
//! completion time"; Conductor translates them into an objective and
//! constraints of the dynamic linear program.

use serde::{Deserialize, Serialize};

/// What the customer wants optimized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Goal {
    /// Minimize monetary cost subject to finishing within `deadline_hours`.
    MinimizeCost {
        /// Completion deadline in hours.
        deadline_hours: f64,
    },
    /// Minimize completion time subject to spending at most `budget_usd`.
    MinimizeTime {
        /// Maximum spend in USD.
        budget_usd: f64,
        /// Upper bound on the completion time to consider (defines the search
        /// horizon; the planner never proposes plans longer than this).
        max_hours: f64,
    },
}

impl Goal {
    /// The planning horizon in whole hours implied by the goal.
    pub fn horizon_hours(&self) -> usize {
        match self {
            Goal::MinimizeCost { deadline_hours } => deadline_hours.ceil().max(1.0) as usize,
            Goal::MinimizeTime { max_hours, .. } => max_hours.ceil().max(1.0) as usize,
        }
    }

    /// The deadline, if this goal has one.
    pub fn deadline_hours(&self) -> Option<f64> {
        match self {
            Goal::MinimizeCost { deadline_hours } => Some(*deadline_hours),
            Goal::MinimizeTime { .. } => None,
        }
    }

    /// The goal for the rest of a job re-planned `elapsed_hours` in: the
    /// time bound shrinks by the elapsed hours and a safety `margin_hours`
    /// (never below one hour); a budget carries over.
    pub(crate) fn remaining(mut self, elapsed_hours: f64, margin_hours: f64) -> Goal {
        let (Goal::MinimizeCost {
            deadline_hours: bound,
        }
        | Goal::MinimizeTime {
            max_hours: bound, ..
        }) = &mut self;
        *bound = (*bound - elapsed_hours - margin_hours).max(1.0);
        self
    }

    /// The budget, if this goal has one.
    pub fn budget_usd(&self) -> Option<f64> {
        match self {
            Goal::MinimizeCost { .. } => None,
            Goal::MinimizeTime { budget_usd, .. } => Some(*budget_usd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_rounds_up() {
        assert_eq!(
            Goal::MinimizeCost {
                deadline_hours: 6.0
            }
            .horizon_hours(),
            6
        );
        assert_eq!(
            Goal::MinimizeCost {
                deadline_hours: 5.5
            }
            .horizon_hours(),
            6
        );
        assert_eq!(
            Goal::MinimizeTime {
                budget_usd: 40.0,
                max_hours: 12.0
            }
            .horizon_hours(),
            12
        );
        assert_eq!(
            Goal::MinimizeCost {
                deadline_hours: 0.0
            }
            .horizon_hours(),
            1
        );
    }

    #[test]
    fn accessors_expose_the_right_bound() {
        let cost = Goal::MinimizeCost {
            deadline_hours: 6.0,
        };
        assert_eq!(cost.deadline_hours(), Some(6.0));
        assert_eq!(cost.budget_usd(), None);
        let time = Goal::MinimizeTime {
            budget_usd: 40.0,
            max_hours: 10.0,
        };
        assert_eq!(time.deadline_hours(), None);
        assert_eq!(time.budget_usd(), Some(40.0));
    }
}
