//! `churn_cold` and `churn_cached`: one fleet of Poisson arrivals (the
//! canonical ones, the last quarter drawn from the seed:
//! `fixtures::seeded_requests`) on the storm-bearing churn service, plan
//! cache off or on. A pass opens a fresh session and drains it.

use super::fleet_driver::{drive, FleetTotals, Round};
use super::{Config, Latency, Outcome, Workload};
use crate::fixtures::{churn_service, seeded_requests, warm_up_requests};
use crate::trace::Tracer;
use conductor_core::{ConductorService, FleetJobRequest};

/// The churn workload with the plan cache on or off.
pub struct Churn<const PLAN_CACHE: bool>;

pub struct Fixture {
    requests: Vec<FleetJobRequest>,
    service: ConductorService,
}

impl<const PLAN_CACHE: bool> Workload for Churn<PLAN_CACHE> {
    type Fixture = Fixture;

    /// Drains the warm-up fleet, then builds the run's requests and service
    /// and opens one session on it.
    fn setup(cfg: &Config) -> Fixture {
        let warm_up = warm_up_requests();
        churn_service(&warm_up)
            .with_plan_cache(PLAN_CACHE)
            .run(&warm_up)
            .expect("warm-up fleet config is valid");
        let requests = seeded_requests(cfg.seed, cfg.fleet_jobs());
        let service = churn_service(&requests).with_plan_cache(PLAN_CACHE);
        service.open().expect("churn fleet config is valid");
        Fixture { requests, service }
    }

    fn pass(fixture: &mut Fixture, _: &Config, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::new();
        let mut fleet = fixture.service.open().expect("churn fleet config is valid");
        let round = Round {
            label: "fleet0",
            requests: &fixture.requests,
            faulted: false,
        };
        let mut totals = FleetTotals::default();
        let open = tracer.open_workload();
        drive(
            tracer,
            &mut fleet,
            &round,
            &mut totals,
            &mut out,
            |_, _, _| {},
        );
        out.raw_wall_s = tracer.close_workload(open).seconds();

        out.ops = totals.submitted;
        out.attempted = totals.submitted;
        totals.publish(&mut out);
        out.samples = totals.admission_steps;
        out
    }

    fn latency(samples_ms: &[f64]) -> Latency {
        Latency::percentiles(samples_ms, "deciding batches")
    }
}
