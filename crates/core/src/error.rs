//! The error type of the Conductor core.

use conductor_lp::LpError;
use conductor_mapreduce::EngineError;
use std::fmt;

/// Errors produced while planning, deploying or adapting a job.
#[derive(Debug, Clone, PartialEq)]
pub enum ConductorError {
    /// The optimization model could not be solved (infeasible goal, unbounded
    /// model, or solver limits without any feasible plan).
    Planning(LpError),
    /// The deployment simulation failed.
    Deployment(EngineError),
    /// The requested goal cannot be met with the available resources (e.g.
    /// the deadline is shorter than the unavoidable upload time).
    GoalUnattainable {
        /// Human-readable explanation.
        reason: String,
    },
    /// The inputs were inconsistent (unknown service names, empty catalogs…).
    InvalidInput(String),
    /// A durability operation (write-ahead log, checkpoint file) failed at
    /// the filesystem. Carries the rendered `std::io::Error` (io errors are
    /// not `Clone`, this enum is).
    Io(String),
}

impl fmt::Display for ConductorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConductorError::Planning(e) => write!(f, "planning failed: {e}"),
            ConductorError::Deployment(e) => write!(f, "deployment failed: {e}"),
            ConductorError::GoalUnattainable { reason } => {
                write!(f, "goal cannot be attained: {reason}")
            }
            ConductorError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            ConductorError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for ConductorError {}

impl From<LpError> for ConductorError {
    fn from(e: LpError) -> Self {
        ConductorError::Planning(e)
    }
}

impl From<EngineError> for ConductorError {
    fn from(e: EngineError) -> Self {
        ConductorError::Deployment(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let e: ConductorError = LpError::Infeasible.into();
        assert!(matches!(e, ConductorError::Planning(LpError::Infeasible)));
        assert!(e.to_string().contains("planning"));
        let e: ConductorError = EngineError::InvalidOptions("bad".into()).into();
        assert!(e.to_string().contains("deployment"));
        let e = ConductorError::GoalUnattainable {
            reason: "deadline too tight".into(),
        };
        assert!(e.to_string().contains("deadline too tight"));
    }
}
