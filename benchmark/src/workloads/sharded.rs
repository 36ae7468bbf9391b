//! `churn_sharded`: the cold arrivals submitted up front to a 2-shard
//! `ShardedFleet` (hash router, rebalancer off) and drained with
//! `run_to_quiescence`, each shard on its own thread. Batch submission is
//! the only shape in which shards hold concurrent admissions.

use super::fleet_driver::{absorb, decides_arrival, FleetTotals, Round};
use super::{ratio, Config, Latency, Outcome, Workload};
use crate::fixtures::{churn_service, seeded_requests, warm_up_requests};
use crate::trace::{Tracer, NONE};
use conductor_core::{ConductorService, FleetJobRequest, ShardedFleet, ShardedFleetConfig};

const SHARDS: usize = 2;

pub struct Sharded;

pub struct Fixture {
    requests: Vec<FleetJobRequest>,
    service: ConductorService,
    /// Wall of the same requests on one unsharded fleet, measured by the
    /// first traced pass.
    unsharded_s: Option<f64>,
}

fn open_sharded(service: &ConductorService) -> ShardedFleet {
    let config = ShardedFleetConfig {
        shards: SHARDS,
        rebalance_period_hours: None,
    };
    service
        .open_sharded(config)
        .expect("sharded churn fleet config is valid")
}

impl Workload for Sharded {
    type Fixture = Fixture;

    fn setup(cfg: &Config) -> Fixture {
        let warm_up = warm_up_requests();
        let mut fleet = open_sharded(&churn_service(&warm_up));
        for r in &warm_up {
            fleet.submit(r.clone()).expect("warm-up requests are valid");
        }
        fleet.run_to_quiescence();
        let requests = seeded_requests(cfg.seed, cfg.fleet_jobs());
        let service = churn_service(&requests);
        open_sharded(&service);
        Fixture {
            requests,
            service,
            unsharded_s: None,
        }
    }

    fn pass(fixture: &mut Fixture, _: &Config, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::new();
        let Fixture {
            requests, service, ..
        } = &*fixture;
        let mut fleet = open_sharded(service);
        let request = tracer.request(|| "fleet0".to_string());
        let mut totals = FleetTotals::default();

        let open = tracer.open_workload();
        let call = tracer.begin();
        for r in requests {
            if let Err(e) = fleet.submit(r.clone()) {
                out.violation(format!("submit {}: {e}", r.tenant));
            }
        }
        let submit_s = tracer.end(call, "shards.submit", request).seconds();
        let call = tracer.begin();
        fleet.run_to_quiescence();
        let drained = tracer.end(call, "shards.drain", request);
        let drain_s = drained.seconds();
        // A parallel drain hides its admissions from the harness: the drain
        // is the one latency sample of a pass.
        out.samples.extend(drained.step);
        let call = tracer.begin();
        let merged = fleet.merged_events();
        let report = fleet.report();
        let merge_s = tracer.end(call, "shards.merge", request).seconds();
        out.raw_wall_s = tracer.close_workload(open).seconds();

        out.check(fleet.pending_events() == 0, || "did not drain".to_string());
        let round = Round {
            label: "fleet0",
            requests,
            faulted: false,
        };
        absorb(&report, &round, &mut totals, &mut out);
        out.count("fleet0.events", merged.len() as u64);
        let decided: Vec<f64> = (0..fleet.shard_count())
            .filter_map(|s| fleet.shard(s))
            .map(|shard| shard.events().iter().filter(|e| decides_arrival(e)).count() as f64)
            .collect();
        let mean = decided.iter().sum::<f64>() / decided.len().max(1) as f64;
        let imbalance = ratio(decided.iter().copied().fold(0.0, f64::max), mean);

        out.ops = totals.submitted;
        out.attempted = totals.submitted;
        totals.publish(&mut out);
        out.set("fleet.events", merged.len() as f64);
        out.count("fleet.events", merged.len() as u64);
        out.set("shards.drain_s", drain_s);
        out.set(
            "shards.submit_us",
            ratio(submit_s * 1e6, totals.submitted as f64),
        );
        out.set("shards.merge_ms", merge_s * 1e3);
        out.set("shards.imbalance", imbalance);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        out.set("shards.threads", threads.min(SHARDS) as f64);

        if tracer.enabled() {
            // Outside the timed section, once a run: the same requests on
            // one unsharded fleet, submitted up front and drained.
            if fixture.unsharded_s.is_none() {
                let open = tracer.begin();
                let call = tracer.begin();
                let cold = service.run(requests);
                let cold_s = tracer.end(call, "fleet.unsharded_run", NONE).seconds();
                tracer.end(open, "harness.extras", NONE);
                match cold {
                    Ok(_) => fixture.unsharded_s = Some(cold_s),
                    Err(e) => out.violation(format!("unsharded reference run: {e}")),
                }
            }
            let cold_s = fixture.unsharded_s.unwrap_or(0.0);
            out.set("shards.speedup_vs_cold", ratio(cold_s, submit_s + drain_s));
        }
        out
    }

    fn latency(samples_ms: &[f64]) -> Latency {
        let mut drain = Latency::geomean_and_max(samples_ms, "");
        drain.note =
            "wall of the parallel drain, as both: one sample a pass supports no percentile".into();
        drain
    }
}
