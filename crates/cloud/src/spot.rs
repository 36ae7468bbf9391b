//! Spot markets: price traces and a bid/termination simulator (§4.7, §6.5).
//!
//! The paper evaluates spot-instance savings against two price histories:
//! the real EC2 m1.large spot trace (which shows *no* diurnal pattern and is
//! hard to predict) and a synthetic trace derived from an electricity spot
//! market (clamped non-negative and capped below the on-demand price), which
//! *does* have exploitable daily regularity. [`SpotTrace`] generates both
//! shapes reproducibly from a seed; [`SpotMarket`] answers what a fleet
//! bidding a maximum price asks of a trace — which hours out-bid it, when a
//! bid is granted again, what to plan with. The EC2 rule that a partial hour
//! is not charged when the provider terminates the instance is billing's
//! ([`crate::BillingAccount::stop_instance_revoked`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which synthetic generator produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Modeled after the real EC2 m1.large history: mean-reverting noise with
    /// occasional spikes and no time-of-day structure (Figure 13b).
    AwsLike,
    /// Modeled after an electricity spot market: strong diurnal cycle plus
    /// noise, clamped non-negative and capped below the on-demand price
    /// (Figure 13a).
    ElectricityLike,
}

/// An hourly spot price history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpotTrace {
    kind: TraceKind,
    /// Price for hour `t` in USD per instance-hour.
    prices: Vec<f64>,
}

impl SpotTrace {
    /// Builds a trace from explicit hourly prices (e.g. loaded from a CSV of
    /// the real AWS history).
    pub fn from_prices(kind: TraceKind, prices: Vec<f64>) -> Self {
        Self { kind, prices }
    }

    /// Generates an AWS-like trace of `hours` hourly prices.
    ///
    /// Mean-reverting around ~0.17 $/h with heavy-tailed upward spikes and no
    /// diurnal component, bounded to the 0.15–0.45 band visible in the
    /// paper's Figure 13b.
    pub fn aws_like(seed: u64, hours: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut prices = Vec::with_capacity(hours);
        let mut level: f64 = 0.17;
        for _ in 0..hours {
            // Mean reversion plus noise.
            let noise: f64 = rng.gen_range(-0.02..0.02);
            level += 0.3 * (0.17 - level) + noise;
            // Occasional spikes (~3% of hours) unrelated to time of day.
            let spike = if rng.gen_bool(0.03) {
                rng.gen_range(0.05..0.28)
            } else {
                0.0
            };
            let p = (level + spike).clamp(0.15, 0.45);
            prices.push(p);
        }
        Self {
            kind: TraceKind::AwsLike,
            prices,
        }
    }

    /// Generates an electricity-market-like trace of `hours` hourly prices:
    /// a 24-hour sinusoidal demand cycle plus noise, clamped non-negative and
    /// kept below the m1.large on-demand price (0.34 $/h), as the paper does
    /// when adapting the electricity data (§6.5).
    pub fn electricity_like(seed: u64, hours: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut prices = Vec::with_capacity(hours);
        for t in 0..hours {
            let phase = (t % 24) as f64 / 24.0 * std::f64::consts::TAU;
            // Daily peak in the (simulated) afternoon, trough at night.
            let diurnal = 0.22 + 0.10 * (phase - std::f64::consts::FRAC_PI_2).sin();
            let noise: f64 = rng.gen_range(-0.04..0.04);
            let weekly = 0.02 * (((t / 24) % 7) as f64 / 7.0 * std::f64::consts::TAU).sin();
            let p = (diurnal + noise + weekly).clamp(0.05, 0.335);
            prices.push(p);
        }
        Self {
            kind: TraceKind::ElectricityLike,
            prices,
        }
    }

    /// Which generator (or source) produced this trace.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// Number of hours covered.
    pub fn len(&self) -> usize {
        self.prices.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }

    /// Price at hour `t` (clamped to the last known price past the end).
    pub fn price_at(&self, t: usize) -> f64 {
        match self.prices.get(t) {
            Some(p) => *p,
            None => self.prices.last().copied().unwrap_or(0.0),
        }
    }

    /// The raw hourly prices.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Prices for hours `[start, start + len)`, clamping at the trace end.
    pub fn window(&self, start: usize, len: usize) -> Vec<f64> {
        (start..start + len).map(|t| self.price_at(t)).collect()
    }

    /// Maximum price over the `n` hours strictly before `t` (the statistic
    /// the paper's simple `-pX` predictors bid with). Returns `None` when
    /// there is no history before `t`.
    pub fn max_over_previous(&self, t: usize, n: usize) -> Option<f64> {
        if t == 0 || n == 0 {
            return None;
        }
        let start = t.saturating_sub(n);
        self.prices[start..t.min(self.prices.len())]
            .iter()
            .copied()
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.max(p)))
            })
    }
}

/// A spot market driven by a price trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpotMarket {
    trace: SpotTrace,
    /// On-demand price of the same instance type, used as the price ceiling a
    /// rational customer would bid (and for "regular" baseline comparisons).
    pub on_demand_price: f64,
}

impl SpotMarket {
    /// Creates a market over the given trace.
    pub fn new(trace: SpotTrace, on_demand_price: f64) -> Self {
        Self {
            trace,
            on_demand_price,
        }
    }

    /// The underlying price trace.
    pub fn trace(&self) -> &SpotTrace {
        &self.trace
    }

    /// Current spot price at hour `t`.
    pub fn price_at(&self, t: usize) -> f64 {
        self.trace.price_at(t)
    }

    /// First hour `>= from` at which a request with maximum bid `bid` would
    /// be granted again (spot price at or below the bid). Returns `None`
    /// when the price never comes back down on the trace — a fleet whose
    /// sessions were revoked then stays out of the market for good.
    pub fn next_acceptance(&self, from: usize, bid: f64) -> Option<usize> {
        if from >= self.trace.len() {
            return (self.trace.price_at(from) <= bid).then_some(from);
        }
        (from..self.trace.len()).find(|&t| self.trace.price_at(t) <= bid)
    }

    /// Iterator over every out-bid hour in `[start, end)` for a session
    /// bidding `bid`: the hours at which the trace would terminate such a
    /// session. This is the trace-driven revocation schedule a fleet driver
    /// turns into simulation events — each yielded hour is one per-hour
    /// out-bid check ([`Self::out_bid_at`]), detached from any single
    /// instance so many concurrent sessions can share it.
    pub fn revocation_hours(&self, start: usize, end: usize, bid: f64) -> RevocationHours<'_> {
        RevocationHours {
            market: self,
            next: start,
            end,
            bid,
        }
    }

    /// `true` when a session with bid `bid` held at hour `t` would be
    /// terminated (the spot price rose strictly above the bid).
    pub fn out_bid_at(&self, t: usize, bid: f64) -> bool {
        self.trace.price_at(t) > bid
    }

    /// Expected spot prices for hours `[start, start + len)`, each capped at
    /// the on-demand price (a rational customer never bids above it). This
    /// is the per-interval price expectation a fleet scheduler feeds into
    /// the planner's model (eq. 6) so every concurrent tenant plans against
    /// the *same* market state.
    pub fn price_forecast(&self, start: usize, len: usize) -> Vec<f64> {
        (start..start + len)
            .map(|t| self.trace.price_at(t).min(self.on_demand_price))
            .collect()
    }
}

/// Iterator over the out-bid hours of a trace window (see
/// [`SpotMarket::revocation_hours`]).
#[derive(Debug, Clone)]
pub struct RevocationHours<'a> {
    market: &'a SpotMarket,
    next: usize,
    end: usize,
    bid: f64,
}

impl Iterator for RevocationHours<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.next < self.end {
            let t = self.next;
            self.next += 1;
            if self.market.out_bid_at(t, self.bid) {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_reproducible_and_sized() {
        let a1 = SpotTrace::aws_like(7, 24 * 30);
        let a2 = SpotTrace::aws_like(7, 24 * 30);
        assert_eq!(a1, a2);
        assert_eq!(a1.len(), 720);
        let b = SpotTrace::aws_like(8, 24 * 30);
        assert_ne!(a1, b);
    }

    #[test]
    fn aws_like_prices_stay_in_band() {
        let t = SpotTrace::aws_like(42, 24 * 60);
        for &p in t.prices() {
            assert!((0.15..=0.45).contains(&p), "price {p} out of band");
        }
    }

    #[test]
    fn electricity_like_stays_below_on_demand() {
        let t = SpotTrace::electricity_like(42, 24 * 60);
        for &p in t.prices() {
            assert!(p >= 0.0, "negative price {p}");
            assert!(p < 0.34, "price {p} not below on-demand");
        }
    }

    #[test]
    fn electricity_like_has_diurnal_structure_aws_like_does_not() {
        // Correlate each trace with a 24h sinusoid; the electricity trace
        // should correlate much more strongly.
        fn diurnal_correlation(t: &SpotTrace) -> f64 {
            let n = t.len() as f64;
            let mean = t.prices().iter().sum::<f64>() / n;
            let mut num = 0.0;
            let mut den_p = 0.0;
            let mut den_s = 0.0;
            for (i, &p) in t.prices().iter().enumerate() {
                let phase = (i % 24) as f64 / 24.0 * std::f64::consts::TAU;
                let s = (phase - std::f64::consts::FRAC_PI_2).sin();
                num += (p - mean) * s;
                den_p += (p - mean).powi(2);
                den_s += s * s;
            }
            (num / (den_p.sqrt() * den_s.sqrt())).abs()
        }
        let el = SpotTrace::electricity_like(3, 24 * 30);
        let aws = SpotTrace::aws_like(3, 24 * 30);
        assert!(
            diurnal_correlation(&el) > 0.5,
            "electricity corr {}",
            diurnal_correlation(&el)
        );
        assert!(
            diurnal_correlation(&aws) < 0.2,
            "aws corr {}",
            diurnal_correlation(&aws)
        );
    }

    #[test]
    fn price_at_clamps_past_end() {
        let t = SpotTrace::from_prices(TraceKind::AwsLike, vec![0.2, 0.3]);
        assert_eq!(t.price_at(1), 0.3);
        assert_eq!(t.price_at(100), 0.3);
    }

    #[test]
    fn max_over_previous_window() {
        let t = SpotTrace::from_prices(TraceKind::AwsLike, vec![0.1, 0.5, 0.2, 0.3]);
        assert_eq!(t.max_over_previous(3, 2), Some(0.5));
        assert_eq!(t.max_over_previous(3, 1), Some(0.2));
        assert_eq!(t.max_over_previous(0, 5), None);
        assert_eq!(t.max_over_previous(2, 0), None);
    }

    #[test]
    fn revocation_hours_match_per_hour_out_bid_checks() {
        let t = SpotTrace::from_prices(TraceKind::AwsLike, vec![0.2, 0.4, 0.5, 0.2, 0.6, 0.1]);
        let m = SpotMarket::new(t, 0.34);
        let hours: Vec<usize> = m.revocation_hours(0, 6, 0.34).collect();
        assert_eq!(hours, vec![1, 2, 4]);
        // A window cuts the schedule without shifting it.
        let tail: Vec<usize> = m.revocation_hours(3, 6, 0.34).collect();
        assert_eq!(tail, vec![4]);
        // Bidding above every price yields no revocations at all.
        assert_eq!(m.revocation_hours(0, 6, 0.7).count(), 0);
    }

    #[test]
    fn next_revocation_and_acceptance_scan_forward() {
        let t = SpotTrace::from_prices(TraceKind::AwsLike, vec![0.2, 0.5, 0.5, 0.2]);
        let m = SpotMarket::new(t, 0.34);
        assert_eq!(m.next_acceptance(0, 0.34), Some(0));
        assert_eq!(m.next_acceptance(1, 0.34), Some(3));
        // Past the trace end the clamped last price (0.2) rules.
        assert_eq!(m.next_acceptance(10, 0.34), Some(10));
        // A trace that ends expensive never readmits a low bid.
        let stuck = SpotMarket::new(
            SpotTrace::from_prices(TraceKind::AwsLike, vec![0.2, 0.9]),
            0.34,
        );
        assert_eq!(stuck.next_acceptance(1, 0.34), None);
    }

    #[test]
    fn spot_is_cheaper_than_on_demand_on_average() {
        // The headline observation of §6.5: spot allocation reduces cost
        // substantially versus regular instances. Six-hour windows priced
        // at the forecast the fleet plans with (each hour's spot price,
        // capped at on-demand) against the same hours on demand.
        for kind in [TraceKind::AwsLike, TraceKind::ElectricityLike] {
            let trace = match kind {
                TraceKind::AwsLike => SpotTrace::aws_like(11, 24 * 30),
                TraceKind::ElectricityLike => SpotTrace::electricity_like(11, 24 * 30),
            };
            let m = SpotMarket::new(trace, 0.34);
            let mut spot_total = 0.0;
            let mut regular_total = 0.0;
            for start in (0..600).step_by(24) {
                spot_total += m.price_forecast(start, 6).iter().sum::<f64>();
                regular_total += m.on_demand_price * 6.0;
            }
            assert!(
                spot_total < 0.8 * regular_total,
                "{kind:?}: spot {spot_total} vs regular {regular_total}"
            );
        }
    }
}
