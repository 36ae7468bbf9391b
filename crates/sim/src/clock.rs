//! The simulation clock: a monotonically advancing time in hours.

use serde::{Deserialize, Serialize};

/// A monotonic simulation clock.
///
/// Time is measured in fractional hours (the unit used throughout the
/// Conductor reproduction). The clock only ever moves forward:
/// [`SimClock::advance_to`] with a time in the past is a no-op, so a stale
/// event can never rewind the world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct SimClock {
    now: f64,
}

impl SimClock {
    /// A clock at hour zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current time in hours.
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock to `at` hours; never moves backwards. Returns the
    /// (possibly unchanged) current time.
    pub(crate) fn advance_to(&mut self, at: f64) -> f64 {
        if at > self.now {
            self.now = at;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_forward_only() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.advance_to(2.5), 2.5);
        assert_eq!(c.advance_to(1.0), 2.5);
        assert_eq!(c.advance_to(3.0), 3.0);
        assert_eq!(c.now(), 3.0);
    }
}
