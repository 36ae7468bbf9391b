//! Spot-market bidding: predictors and the deployment simulation of §6.5
//! (Figure 14).
//!
//! Conductor extends its model with per-interval price expectations (eq. 6).
//! The paper evaluates a family of simple predictors — `-opt` (oracle),
//! `-p0` (the current price persists), `-pX` (bid the maximum of the past X
//! days) — over two price histories, and reports the average and maximum job
//! cost and its standard deviation across many start times.

use conductor_cloud::{SpotMarket, SpotTrace};
use serde::{Deserialize, Serialize};

/// A spot-price predictor / bidding strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BidPredictor {
    /// Do not use the spot market at all; rent regular on-demand instances.
    Regular,
    /// Oracle: knows the future prices exactly (`-opt` in the paper).
    Optimal,
    /// Assume the current spot price will not change (`-p0`).
    Current,
    /// Bid the maximum spot price observed over the previous `days` days
    /// (`-p5`, `-p13`).
    MaxOfPastDays {
        /// Number of days of history to consider.
        days: u32,
    },
}

impl BidPredictor {
    /// Short label used in reports ("regular", "opt", "p0", "p5", ...).
    pub fn label(&self) -> String {
        match self {
            BidPredictor::Regular => "regular".to_string(),
            BidPredictor::Optimal => "opt".to_string(),
            BidPredictor::Current => "p0".to_string(),
            BidPredictor::MaxOfPastDays { days } => format!("p{days}"),
        }
    }

    /// The bid this predictor would place at hour `t` of `trace` for a job
    /// that still needs `remaining_hours` of work. Returns `None` for
    /// [`BidPredictor::Regular`] (no spot request at all).
    pub fn bid(&self, trace: &SpotTrace, t: usize, remaining_hours: usize) -> Option<f64> {
        match self {
            BidPredictor::Regular => None,
            BidPredictor::Optimal => {
                // Oracle: bid exactly the maximum price over the hours the job
                // will occupy, so it is never interrupted and never overpays.
                let future = trace.window(t, remaining_hours.max(1));
                future.into_iter().fold(None, |acc: Option<f64>, p| {
                    Some(acc.map_or(p, |a: f64| a.max(p)))
                })
            }
            BidPredictor::Current => Some(trace.price_at(t)),
            BidPredictor::MaxOfPastDays { days } => trace
                .max_over_previous(t, (*days as usize) * 24)
                .or(Some(trace.price_at(t))),
        }
    }
}

/// Aggregate cost statistics of one `(trace, predictor)` scenario across many
/// start times — one group of bars in Figure 14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpotScenarioResult {
    /// Scenario label, e.g. `"aws-p0"` or `"el-opt"`.
    pub label: String,
    /// Mean job cost across start times (USD).
    pub average_cost: f64,
    /// Worst-case job cost across start times (USD).
    pub max_cost: f64,
    /// Standard deviation of the job cost.
    pub std_dev: f64,
    /// Fraction of runs in which at least one instance was out-bid and work
    /// had to wait for prices to fall again.
    pub interruption_rate: f64,
}

/// Simulates deploying a fixed amount of node-hours on the spot market with a
/// given predictor, across many window start times.
#[derive(Debug, Clone)]
pub struct SpotDeploymentSimulator {
    market: SpotMarket,
    /// Node-hours of work one job needs (e.g. 16 nodes × 5 h = 80).
    pub node_hours: usize,
    /// Nodes rented concurrently.
    pub concurrency: usize,
    /// Latest acceptable completion, in hours after the job's start.
    pub deadline_hours: usize,
}

impl SpotDeploymentSimulator {
    /// Creates a simulator over `market` for a job needing `node_hours` of
    /// work on `concurrency` nodes within `deadline_hours`.
    pub fn new(
        market: SpotMarket,
        node_hours: usize,
        concurrency: usize,
        deadline_hours: usize,
    ) -> Self {
        Self {
            market,
            node_hours,
            concurrency,
            deadline_hours,
        }
    }

    /// Cost of one job started at `start` using `predictor`.
    ///
    /// Each hour the job still has work left, the predictor proposes a bid;
    /// if the bid clears the current price, `concurrency` nodes run for that
    /// hour at the spot price; otherwise the job waits (hoping for cheaper
    /// prices) unless waiting would bust the deadline, in which case it falls
    /// back to on-demand instances for the remaining work.
    pub(crate) fn run_once(&self, start: usize, predictor: BidPredictor) -> (f64, bool) {
        let hours_needed = self.node_hours.div_ceil(self.concurrency.max(1));
        if predictor == BidPredictor::Regular {
            return (self.market.on_demand_price * self.node_hours as f64, false);
        }
        let mut cost = 0.0;
        let mut done = 0usize;
        let mut interrupted = false;
        for h in 0..self.deadline_hours {
            if done >= hours_needed {
                break;
            }
            let t = start + h;
            let remaining = hours_needed - done;
            let hours_left_before_deadline = self.deadline_hours - h;
            // If we cannot afford to wait any longer, run on-demand.
            if hours_left_before_deadline <= remaining {
                cost += self.market.on_demand_price * self.concurrency as f64;
                done += 1;
                continue;
            }
            let bid = predictor
                .bid(self.market.trace(), t, remaining)
                .unwrap_or(self.market.on_demand_price);
            let price = self.market.price_at(t);
            if bid >= price {
                cost += price * self.concurrency as f64;
                done += 1;
            } else {
                interrupted = true;
            }
        }
        (cost, interrupted)
    }

    /// Runs the scenario for every start time in `starts` and aggregates the
    /// statistics reported in Figure 14.
    pub fn run_scenario(
        &self,
        label: &str,
        predictor: BidPredictor,
        starts: &[usize],
    ) -> SpotScenarioResult {
        let mut costs = Vec::with_capacity(starts.len());
        let mut interruptions = 0usize;
        for &start in starts {
            let (cost, interrupted) = self.run_once(start, predictor);
            costs.push(cost);
            if interrupted {
                interruptions += 1;
            }
        }
        let n = costs.len().max(1) as f64;
        let mean = costs.iter().sum::<f64>() / n;
        let var = costs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n;
        SpotScenarioResult {
            label: label.to_string(),
            average_cost: mean,
            max_cost: costs.iter().copied().fold(0.0, f64::max),
            std_dev: var.sqrt(),
            interruption_rate: interruptions as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conductor_cloud::TraceKind;

    fn market(kind: TraceKind) -> SpotMarket {
        let trace = match kind {
            TraceKind::AwsLike => SpotTrace::aws_like(17, 24 * 40),
            TraceKind::ElectricityLike => SpotTrace::electricity_like(17, 24 * 40),
        };
        SpotMarket::new(trace, 0.34)
    }

    fn starts() -> Vec<usize> {
        (0..24 * 30).step_by(7).collect()
    }

    /// The paper's job shape: roughly 80 node-hours on 16 nodes, 12 h deadline.
    fn simulator(kind: TraceKind) -> SpotDeploymentSimulator {
        SpotDeploymentSimulator::new(market(kind), 80, 16, 12)
    }

    #[test]
    fn predictor_labels_match_paper_names() {
        assert_eq!(BidPredictor::Regular.label(), "regular");
        assert_eq!(BidPredictor::Optimal.label(), "opt");
        assert_eq!(BidPredictor::Current.label(), "p0");
        assert_eq!(BidPredictor::MaxOfPastDays { days: 13 }.label(), "p13");
    }

    #[test]
    fn spot_strategies_cut_cost_by_roughly_half() {
        // Figure 14's headline: 50-60% savings versus regular instances.
        for kind in [TraceKind::AwsLike, TraceKind::ElectricityLike] {
            let sim = simulator(kind);
            let regular = sim.run_scenario("regular", BidPredictor::Regular, &starts());
            let p0 = sim.run_scenario("p0", BidPredictor::Current, &starts());
            assert!(
                p0.average_cost < 0.7 * regular.average_cost,
                "{kind:?}: p0 {} vs regular {}",
                p0.average_cost,
                regular.average_cost
            );
        }
    }

    #[test]
    fn oracle_is_no_worse_than_simple_predictors_on_average() {
        for kind in [TraceKind::AwsLike, TraceKind::ElectricityLike] {
            let sim = simulator(kind);
            let opt = sim.run_scenario("opt", BidPredictor::Optimal, &starts());
            let p0 = sim.run_scenario("p0", BidPredictor::Current, &starts());
            let p13 = sim.run_scenario("p13", BidPredictor::MaxOfPastDays { days: 13 }, &starts());
            assert!(opt.average_cost <= p0.average_cost * 1.02);
            assert!(opt.average_cost <= p13.average_cost * 1.02);
        }
    }

    #[test]
    fn regular_runs_never_get_interrupted_and_have_zero_variance() {
        let sim = simulator(TraceKind::AwsLike);
        let regular = sim.run_scenario("regular", BidPredictor::Regular, &starts());
        assert_eq!(regular.interruption_rate, 0.0);
        assert!(regular.std_dev < 1e-9);
        assert!((regular.average_cost - 80.0 * 0.34).abs() < 1e-9);
        assert!((regular.max_cost - regular.average_cost).abs() < 1e-9);
    }

    #[test]
    fn deadline_pressure_forces_on_demand_fallback() {
        // With a deadline equal to the required hours there is no room to
        // wait: the job must run every hour, paying on-demand when out-bid.
        let sim = SpotDeploymentSimulator::new(market(TraceKind::AwsLike), 80, 16, 5);
        let (cost, _) = sim.run_once(0, BidPredictor::Current);
        assert!(cost > 0.0);
        // Never cheaper than the all-spot lower bound, never pricier than all
        // on-demand.
        assert!(cost <= 80.0 * 0.34 + 1e-9);
    }

    #[test]
    fn p0_never_waits_and_p13_still_beats_regular() {
        let sim = simulator(TraceKind::AwsLike);
        // Bidding exactly the current price is always accepted at that hour,
        // so a p0 deployment is never interrupted.
        let p0 = sim.run_scenario("p0", BidPredictor::Current, &starts());
        assert_eq!(p0.interruption_rate, 0.0);
        // A 13-day-maximum bid may occasionally wait out a spike but still
        // captures most of the spot savings.
        let p13 = sim.run_scenario("p13", BidPredictor::MaxOfPastDays { days: 13 }, &starts());
        let regular = sim.run_scenario("regular", BidPredictor::Regular, &starts());
        assert!(p13.average_cost < 0.7 * regular.average_cost);
    }
}
