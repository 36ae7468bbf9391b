//! Shared by the fleet test suites: the storm fixtures, the wall-clock-free
//! report rendering the determinism tests compare, and the accounting
//! invariants every finished fleet must satisfy.

pub(crate) use conductor_bench::experiments::solver_options as fast_options;
use conductor_cloud::{Catalog, SpotMarket, SpotTrace, TraceKind};
use conductor_core::{ConductorService, FleetReport, ResourcePool};

/// A service over an explicit hourly price trace with the given fleet bid.
pub(crate) fn storm_service(prices: Vec<f64>, bid: f64, cap: usize) -> ConductorService {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0)
        .with_compute_only(&["m1.large"])
        .with_compute_cap("m1.large", cap);
    ConductorService::new(catalog, pool)
        .with_solve_options(fast_options())
        .with_spot_market(SpotMarket::new(
            SpotTrace::from_prices(TraceKind::AwsLike, prices),
            0.34,
        ))
        .with_spot_bid(bid)
}

/// Cheap everywhere except a storm at hours `[storm_start, storm_end)`.
pub(crate) fn storm_prices(hours: usize, storm_start: usize, storm_end: usize) -> Vec<f64> {
    (0..hours)
        .map(|t| {
            if (storm_start..storm_end).contains(&t) {
                0.50
            } else {
                0.20
            }
        })
        .collect()
}

/// Serializes a report with the wall-clock planner timings removed: the
/// solver's `solve_time`/`model_build_time` are host metadata, not
/// simulation state, and are the only fields allowed to vary between
/// reruns. Every simulated float still participates bit for bit (the
/// renderer's shortest-round-trip float formatting is injective).
pub(crate) fn canonical_json(report: &FleetReport) -> String {
    fn strip(v: &mut serde_json::Json) {
        match v {
            serde_json::Json::Object(fields) => {
                fields.retain(|(k, _)| k != "solve_time" && k != "model_build_time");
                for (_, child) in fields.iter_mut() {
                    strip(child);
                }
            }
            serde_json::Json::Array(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let rendered = serde_json::to_string(report).unwrap();
    let mut v = serde_json::parse(&rendered).unwrap();
    strip(&mut v);
    serde_json::to_string(&v).unwrap()
}

/// The accounting every finished fleet owes, faulted or not: an admitted
/// tenant has an execution report and a refused one a rejection reason,
/// only admitted tenants fail, every admitted job either completed or
/// failed, and the tenant bills, the fleet bill and the category roll-up
/// are one number.
pub(crate) fn assert_accounts_balance(report: &FleetReport) {
    let mut failed = 0;
    for t in &report.tenants {
        if t.admitted {
            assert!(
                t.execution.is_some(),
                "{}: admitted but no execution report",
                t.tenant
            );
        } else {
            assert!(
                t.rejection.is_some(),
                "{}: neither admitted nor rejected",
                t.tenant
            );
        }
        if t.failure.is_some() {
            assert!(t.admitted, "{}: failed but never admitted", t.tenant);
            failed += 1;
        }
    }
    assert_eq!(
        report.jobs_completed + failed,
        report.jobs_admitted,
        "admitted jobs unaccounted for"
    );
    let tenant_sum: f64 = report
        .tenants
        .iter()
        .filter_map(|t| t.execution.as_ref())
        .map(|e| e.total_cost)
        .sum();
    assert!(
        (report.fleet_cost - tenant_sum).abs() < 1e-9,
        "fleet {} vs tenant sum {}",
        report.fleet_cost,
        tenant_sum
    );
    assert!(
        (report.fleet_breakdown.total() - report.fleet_cost).abs() < 1e-9,
        "breakdown {} vs fleet {}",
        report.fleet_breakdown.total(),
        report.fleet_cost
    );
}
