//! The one fleet driver every churn workload shares: submit all requests,
//! then loop `Fleet::step_one_batch`, timing each batch and classifying it
//! by what it emitted (`tests/fleet_api.rs` pins the batch path bitwise
//! equal to the online one).

use super::solver_effort::SolverEffort;
use super::{ratio, Outcome};
use crate::fixtures::{CHURN_MAX_NODES, CHURN_TIME_LIMIT};
use crate::stats::median;
use crate::trace::Tracer;
use conductor_core::{Fleet, FleetEvent, FleetJobRequest, FleetReport};

/// Batch timings and solver effort summed over a workload's fleets.
#[derive(Default)]
pub struct FleetTotals {
    /// The steps that decided an arrival: the latency samples.
    pub admission_steps: Vec<usize>,
    /// Wall of those steps in this pass, ms.
    admission_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    admission_s: f64,
    replan_s: f64,
    replans: usize,
    quiet_s: f64,
    quiet_batches: usize,
    submit_s: f64,
    report_s: f64,
    events: usize,
    admitted: usize,
    rejected: usize,
    cache_hits: usize,
    cache_misses: usize,
    effort: SolverEffort,
    pub submitted: usize,
    pub deadlines_met: usize,
    pub usd: f64,
    pub gb: f64,
}

pub fn decides_arrival(e: &FleetEvent) -> bool {
    matches!(e, FleetEvent::Admitted { .. } | FleetEvent::Rejected { .. })
}

/// One fleet of a workload: its label in spans and counts, its requests,
/// and whether faults are injected into it.
pub struct Round<'a> {
    pub label: &'a str,
    pub requests: &'a [FleetJobRequest],
    pub faulted: bool,
}

/// Submits the round's requests and drains `fleet` batch by batch.
/// `after_decision` runs after every batch that decided an arrival, with the
/// number of arrivals decided so far (the durable workload snapshots there).
pub fn drive(
    tracer: &mut Tracer,
    fleet: &mut Fleet,
    round: &Round,
    totals: &mut FleetTotals,
    out: &mut Outcome,
    mut after_decision: impl FnMut(&mut Tracer, &Fleet, usize),
) -> FleetReport {
    let Round {
        label: round_label,
        requests,
        ..
    } = *round;
    let round_request = tracer.request(|| round_label.to_string());
    let open = tracer.begin();
    for request in requests {
        if let Err(e) = fleet.submit(request.clone()) {
            out.violation(format!("{round_label}: submit {}: {e}", request.tenant));
        }
    }
    totals.submit_s += tracer.end(open, "fleet.submit", round_request).seconds();

    // (span, tenant) of the deciding batches, to hang the library's own
    // build / solve times under them once the report is in.
    let mut admission_spans: Vec<(u32, usize)> = Vec::new();
    let mut decided = 0usize;
    loop {
        let cursor = fleet.events().len();
        let open = tracer.begin();
        let more = fleet.step_one_batch();
        let timed = tracer.stop(open);
        if !more {
            tracer.label(&timed, "fleet.quiet_batch", round_request);
            totals.quiet_s += timed.seconds();
            break;
        }
        let emitted = fleet.events_since(cursor);
        let decisions = emitted.iter().filter(|e| decides_arrival(e)).count();
        if decisions > 0 {
            let hit = emitted.iter().any(|e| {
                matches!(
                    e,
                    FleetEvent::Admitted {
                        cache_key: Some(_),
                        ..
                    }
                )
            });
            let tenant = emitted
                .iter()
                .find(|e| decides_arrival(e))
                .and_then(|e| e.tenant());
            let request =
                tracer.request(|| format!("{round_label}/tenant-{:03}", tenant.map_or(0, |t| t.0)));
            tracer.label(&timed, "fleet.admission_batch", request);
            if let (true, Some(t)) = (tracer.enabled(), tenant) {
                admission_spans.push((timed.span, t.0));
            }
            totals.admission_s += timed.seconds();
            totals.admission_ms.push(timed.millis());
            totals.admission_steps.extend(timed.step);
            if hit {
                &mut totals.hit_ms
            } else {
                &mut totals.miss_ms
            }
            .push(timed.millis());
            decided += decisions;
            after_decision(tracer, fleet, decided);
        } else if emitted
            .iter()
            .any(|e| matches!(e, FleetEvent::Replanned { .. }))
        {
            tracer.label(&timed, "fleet.replan_batch", round_request);
            totals.replan_s += timed.seconds();
            totals.replans += 1;
        } else {
            tracer.label(&timed, "fleet.quiet_batch", round_request);
            totals.quiet_s += timed.seconds();
            totals.quiet_batches += 1;
        }
    }
    out.check(decided >= requests.len(), || {
        format!(
            "{round_label}: {decided} of {} arrivals decided",
            requests.len()
        )
    });
    // The heap is empty; anything still active is stalled and is aborted here.
    let open = tracer.begin();
    fleet.run_to_quiescence();
    totals.quiet_s += tracer
        .end(open, "fleet.quiet_batch", round_request)
        .seconds();

    let open = tracer.begin();
    let report = fleet.report();
    totals.report_s += tracer.end(open, "fleet.report", round_request).seconds();

    for (span, tenant) in admission_spans {
        if let Some(p) = report.tenants.get(tenant).and_then(|t| t.planning.as_ref()) {
            let children = [
                ("model.build", p.model_build_time),
                ("lp.solve", p.solve_time),
            ];
            tracer.add_published_children(span, &children);
        }
    }
    totals.events += fleet.events().len();
    absorb(&report, round, totals, out);
    out.count(format!("{round_label}.events"), fleet.events().len() as u64);
    report
}

/// Checks a drained fleet's report and folds it into the totals. Public so
/// the sharded workload can absorb a merged report.
pub fn absorb(report: &FleetReport, round: &Round, totals: &mut FleetTotals, out: &mut Outcome) {
    let Round {
        label: round,
        requests,
        faulted,
    } = *round;
    let mut failed_jobs = 0usize;
    let mut tenant_bills = 0.0f64;
    for (i, t) in report.tenants.iter().enumerate() {
        if t.admitted {
            out.check(t.execution.is_some(), || {
                format!("{round}: {} admitted but never terminal", t.tenant)
            });
        } else {
            out.check(t.rejection.is_some(), || {
                format!("{round}: {} neither admitted nor rejected", t.tenant)
            });
        }
        if let Some(p) = &t.planning {
            totals.effort.absorb(p, CHURN_MAX_NODES);
        }
        failed_jobs += usize::from(t.failure.is_some());
        if let Some(exec) = &t.execution {
            tenant_bills += exec.total_cost;
            if t.failure.is_none() {
                // A retry attempt carries its root submission's input.
                let mut root = i;
                while root >= requests.len() {
                    match report.tenants[root].retry_of {
                        Some(parent) if parent < root => root = parent,
                        _ => break,
                    }
                }
                totals.gb += requests.get(root).map_or(0.0, |r| r.spec.input_gb);
            }
        }
    }
    out.check(
        report.jobs_completed + failed_jobs == report.jobs_admitted,
        || {
            format!(
                "{round}: {} admitted, {} completed, {failed_jobs} failed",
                report.jobs_admitted, report.jobs_completed
            )
        },
    );
    if !faulted {
        // No faults injected: an admitted job that ends `Failed` is a failed
        // operation, and the policy counters must stay at zero.
        out.failed += failed_jobs;
        out.check(report.retries == 0 && report.dead_lettered == 0, || {
            format!("{round}: retries or dead letters without a failure policy")
        });
    }
    let scale = 1e-6 * report.fleet_cost.max(1.0);
    out.check((report.fleet_cost - tenant_bills).abs() < scale, || {
        format!(
            "{round}: fleet bill {} != tenant bills {tenant_bills}",
            report.fleet_cost
        )
    });
    out.check(
        (report.fleet_breakdown.total() - report.fleet_cost).abs() < scale,
        || format!("{round}: fleet bill {} != its breakdown", report.fleet_cost),
    );
    totals.admitted += report.jobs_admitted;
    totals.rejected += report.tenants.iter().filter(|t| !t.admitted).count();
    totals.cache_hits += report.plan_cache_hits;
    totals.cache_misses += report.plan_cache_misses;
    totals.submitted += requests.len();
    totals.deadlines_met += report.deadlines_met;
    totals.usd += report.fleet_cost;
    out.count(format!("{round}.bill_bits"), report.fleet_cost.to_bits());
    out.count(format!("{round}.admitted"), report.jobs_admitted as u64);
    out.count(
        format!("{round}.deadlines_met"),
        report.deadlines_met as u64,
    );
}

impl FleetTotals {
    /// Writes the quality numbers, the `lp`, `core.model` and `core.fleet`
    /// per-layer metrics and the exact counts into `out`.
    pub fn publish(&self, out: &mut Outcome) {
        out.deadline_met = self.deadlines_met;
        out.deadline_of = self.submitted;
        out.usd = self.usd;
        out.gb = self.gb;
        self.effort.publish(CHURN_TIME_LIMIT, out);
        let solve_s = self.effort.solve.as_secs_f64();
        let build_s = self.effort.build.as_secs_f64();

        out.set("fleet.admission_batch_s", self.admission_s);
        out.set("fleet.admission_batches", self.admission_ms.len() as f64);
        // Only where the harness timed the deciding batches itself (a sharded
        // drain hides them).
        if !self.admission_ms.is_empty() {
            out.set(
                "fleet.admission_overhead_s",
                self.admission_s - solve_s - build_s,
            );
        }
        out.set(
            "fleet.hit_admission_ms_p50",
            median(&self.hit_ms).unwrap_or(0.0),
        );
        out.set(
            "fleet.miss_admission_ms_p50",
            median(&self.miss_ms).unwrap_or(0.0),
        );
        out.set("fleet.plan_cache_hits", self.cache_hits as f64);
        out.set("fleet.plan_cache_misses", self.cache_misses as f64);
        out.set(
            "fleet.plan_cache_hit_rate",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
        );
        out.set("fleet.replan_batch_s", self.replan_s);
        out.set("fleet.replans", self.replans as f64);
        out.set("fleet.quiet_batch_s", self.quiet_s);
        out.set("fleet.quiet_batches", self.quiet_batches as f64);
        out.set(
            "fleet.us_per_quiet_batch",
            ratio(self.quiet_s * 1e6, self.quiet_batches as f64),
        );
        out.set("fleet.events", self.events as f64);
        out.set("fleet.admitted", self.admitted as f64);
        out.set("fleet.rejected", self.rejected as f64);
        out.set("fleet.submit_s", self.submit_s);
        out.set("fleet.report_s", self.report_s);

        out.count("fleet.events", self.events as u64);
        out.count("fleet.plan_cache_hits", self.cache_hits as u64);
    }
}
