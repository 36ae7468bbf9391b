//! `exec_kernel`: planner-free `Engine::run` deployments on growing
//! clusters. `mapreduce::execution` and `sim` do all the work, `lp` none.
//!
//! Untraced, a deployment is one `Engine::run` call. Traced, the same loop
//! (`drive_to_completion` is crate-private) is rebuilt from public pieces
//! with a span around each; the report's fingerprint must equal the
//! untraced run's.

use super::{ratio, Config, Latency, Outcome, Workload};
use crate::fixtures::{deployments, warm_up_deployment, Deployment};
use crate::stats::fnv1a;
use crate::trace::Tracer;
use conductor_cloud::Catalog;
use conductor_mapreduce::{
    Engine, ExecutionReport, JobEvent, JobExecution, JobPhase, PlanFollowingScheduler,
    SessionPricing,
};
use conductor_sim::Simulator;

/// FNV-1a over a report's JSON: a fingerprint that must repeat exactly.
fn fingerprint(report: &ExecutionReport) -> u64 {
    let json = serde_json::to_string(report).expect("execution report serializes");
    fnv1a(json.bytes())
}

#[derive(Default)]
struct KernelTimes {
    new_ms: f64,
    wakeup_s: f64,
    wakeups: usize,
    next_event_s: f64,
    pop_s: f64,
    schedule_s: f64,
    events: usize,
}

/// `Engine::run` rebuilt from `JobExecution::new`, `initial_events`,
/// `Simulator::pop_due` / `schedule_all` and `on_wakeup`, each under a span.
fn run_traced(
    tracer: &mut Tracer,
    catalog: &Catalog,
    d: &Deployment,
    request: u32,
    times: &mut KernelTimes,
) -> Result<ExecutionReport, String> {
    let call = tracer.begin();
    let job = JobExecution::new(
        catalog,
        &d.spec,
        d.options.clone(),
        Box::new(PlanFollowingScheduler::cloud_only_defaults()),
        SessionPricing::OnDemand,
    );
    times.new_ms += tracer.end(call, "mapreduce.new", request).millis();
    let mut job = job.map_err(|e| e.to_string())?;

    let keyed = |events: Vec<(f64, JobEvent)>| events.into_iter().map(|(t, e)| (t, e.class(), e));
    let mut sim: Simulator<JobEvent> = Simulator::new();
    let call = tracer.begin();
    sim.schedule_all(keyed(job.initial_events()));
    times.schedule_s += tracer.end(call, "sim.schedule", request).seconds();

    let mut batch = Vec::new();
    loop {
        let call = tracer.begin();
        let now = sim.pop_due(&mut batch);
        times.pop_s += tracer.end(call, "sim.pop", request).seconds();
        times.events += batch.len();
        let stuck = |hours: f64, job: &JobExecution| {
            format!(
                "did not finish: {hours} h, {} tasks done",
                job.completed_tasks()
            )
        };
        let Some(now) = now else {
            return Err(stuck(sim.now(), &job));
        };
        if matches!(job.phase(), JobPhase::Processing) && now > job.max_hours() {
            return Err(stuck(job.max_hours(), &job));
        }
        let call = tracer.begin();
        let follow_ups = job.on_wakeup(now);
        times.wakeup_s += tracer.end(call, "mapreduce.wakeup", request).seconds();
        times.wakeups += 1;
        let call = tracer.begin();
        sim.schedule_all(keyed(follow_ups));
        times.schedule_s += tracer.end(call, "sim.schedule", request).seconds();
        if job.is_done() {
            let call = tracer.begin();
            let report = job.into_report();
            tracer.end(call, "mapreduce.report", request);
            return Ok(report);
        }
        if matches!(job.phase(), JobPhase::Processing) {
            let call = tracer.begin();
            let next = job.next_event_hours(now);
            times.next_event_s += tracer.end(call, "mapreduce.next_event", request).seconds();
            if next.is_none() {
                return Err(stuck(now, &job));
            }
        }
    }
}

pub struct ExecKernel;

pub struct Fixture {
    engine: Engine,
    scheduler: PlanFollowingScheduler,
    fleet: Vec<Deployment>,
}

impl Workload for ExecKernel {
    type Fixture = Fixture;

    fn setup(cfg: &Config) -> Fixture {
        let scheduler = PlanFollowingScheduler::cloud_only_defaults();
        let engine = Engine::new(Catalog::aws_july_2011());
        let warm_up = warm_up_deployment();
        engine
            .run(&warm_up.spec, &warm_up.options, &scheduler)
            .expect("warm-up deployment finishes");
        Fixture {
            engine,
            scheduler,
            fleet: deployments(cfg.seed, cfg.quick),
        }
    }

    fn pass(fixture: &mut Fixture, _: &Config, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::new();
        let Fixture {
            engine,
            scheduler,
            fleet,
        } = &*fixture;
        let mut times = KernelTimes::default();
        // Per deployment: (nodes, run ms, tasks), for the per-task metrics.
        let mut per_deployment: Vec<(usize, f64, usize)> = Vec::with_capacity(fleet.len());
        let open = tracer.open_workload();
        for d in fleet {
            let request = tracer.request(|| d.name.clone());
            let call = tracer.begin();
            let result = if tracer.enabled() {
                run_traced(tracer, engine.catalog(), d, request, &mut times)
            } else {
                engine
                    .run(&d.spec, &d.options, scheduler)
                    .map_err(|e| e.to_string())
            };
            let timed = tracer.end(call, "mapreduce.run", request);
            out.attempted += 1;
            out.deadline_of += 1;
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    out.violation(format!("{}: {e}", d.name));
                    continue;
                }
            };
            let finished = report.task_timeline.last().map(|&(_, done)| done);
            out.check(finished == Some(report.total_tasks), || {
                format!(
                    "{}: timeline ends at {finished:?} of {} tasks",
                    d.name, report.total_tasks
                )
            });
            out.deadline_met += usize::from(finished == Some(report.total_tasks));
            out.ops += report.total_tasks;
            out.usd += report.total_cost;
            out.gb += d.spec.input_gb;
            out.samples.extend(timed.step);
            out.rows.extend(timed.step.map(|step| {
                let label = format!("{:<22} {:>6} tasks", d.name, report.total_tasks);
                (label, step)
            }));
            per_deployment.push((d.nodes, timed.millis(), report.total_tasks));
            out.count(format!("{}.report_fnv", d.name), fingerprint(&report));
            out.count(format!("{}.tasks", d.name), report.total_tasks as u64);
        }
        out.raw_wall_s = tracer.close_workload(open).seconds();

        if tracer.enabled() {
            out.set("mapreduce.new_ms", times.new_ms);
            out.set("mapreduce.wakeup_s", times.wakeup_s);
            out.set("mapreduce.wakeups", times.wakeups as f64);
            out.set(
                "mapreduce.us_per_wakeup",
                ratio(times.wakeup_s * 1e6, times.wakeups as f64),
            );
            out.set("mapreduce.next_event_s", times.next_event_s);
            out.set("sim.pop_s", times.pop_s);
            out.set("sim.schedule_s", times.schedule_s);
            out.set("sim.events", times.events as f64);
            out.set(
                "sim.ns_per_event",
                ratio((times.pop_s + times.schedule_s) * 1e9, times.events as f64),
            );
            for (nodes, ms, tasks) in per_deployment {
                let name = match nodes {
                    50 => "mapreduce.us_per_task.n50",
                    100 => "mapreduce.us_per_task.n100",
                    _ => "mapreduce.us_per_task.n200",
                };
                out.set(name, ratio(ms * 1e3, tasks as f64));
            }
        }
        out
    }

    fn latency(samples_ms: &[f64]) -> Latency {
        Latency::geomean_and_max(samples_ms, "deployments")
    }
}
