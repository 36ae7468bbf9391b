//! `plan_fig16`: single-shot `Planner::plan` calls on the paper's Figure 16
//! models at the paper's solver configuration. No `SolveContext` reuse, no
//! fleet: per-node LP cost on the repo's largest models.

use super::solver_effort::SolverEffort;
use super::{Config, Latency, Outcome, Workload};
use crate::fixtures::{plan_models, plan_order, PlanModel};
use crate::stats::median;
use crate::trace::{Tracer, NONE};
use conductor_core::{Goal, ModelConfig};
use conductor_lp::{SolveContext, SolveOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The model set-up plans once to warm up.
const WARM_UP_MODEL: usize = 2;

pub struct PlanFig16;

pub struct Fixture {
    models: Vec<PlanModel>,
    /// The order of the calls in every pass of this run, from the seed.
    order: Vec<usize>,
}

impl Workload for PlanFig16 {
    type Fixture = Fixture;

    fn setup(cfg: &Config) -> Fixture {
        let models = plan_models();
        let warm_up = &models[WARM_UP_MODEL];
        let goal = Goal::MinimizeCost {
            deadline_hours: warm_up.deadline_hours,
        };
        warm_up
            .planner
            .plan(&warm_up.spec, goal)
            .expect("warm-up model plans");
        let order = plan_order(models.len(), &mut SmallRng::seed_from_u64(cfg.seed));
        Fixture { models, order }
    }

    fn pass(fixture: &mut Fixture, _: &Config, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::new();
        let Fixture { models, order } = &*fixture;
        let options = SolveOptions::default();
        let mut effort = SolverEffort::default();
        let mut extract_s = 0.0;
        let open = tracer.open_workload();
        for &m in order {
            let model = &models[m];
            let request = tracer.request(|| model.name.clone());
            let goal = Goal::MinimizeCost {
                deadline_hours: model.deadline_hours,
            };
            let call = tracer.begin();
            let result = model.planner.plan(&model.spec, goal);
            let timed = tracer.end(call, "planner.plan", request);
            out.attempted += 1;
            out.deadline_of += 1;
            let (plan, report) = match result {
                Ok(planned) => planned,
                Err(e) => {
                    out.violation(format!("{}: plan failed: {e}", model.name));
                    continue;
                }
            };
            let children = [
                ("model.build", report.model_build_time),
                ("lp.solve", report.solve_time),
            ];
            tracer.add_published_children(timed.span, &children);
            out.samples.extend(timed.step);
            out.rows.extend(timed.step.map(|step| {
                let label = format!(
                    "{:<18} {:>8.3} GB  deadline {:>3} h",
                    model.name, model.spec.input_gb, model.deadline_hours
                );
                (label, step)
            }));
            effort.absorb(&report, options.max_nodes);
            extract_s += timed.seconds()
                - report.solve_time.as_secs_f64()
                - report.model_build_time.as_secs_f64();
            // The planner works in whole intervals: a plan is on time when
            // it ends within the horizon the deadline rounds to.
            let interval = model.planner.interval_hours;
            let horizon = (model.deadline_hours / interval).ceil() * interval;
            out.deadline_met += usize::from(plan.expected_completion_hours <= horizon + 1e-9);
            out.usd += plan.expected_cost;
            out.gb += model.spec.input_gb;
            out.count(
                format!("{}.cost_bits", model.name),
                plan.expected_cost.to_bits(),
            );
            out.count(
                format!("{}.nodes", model.name),
                report.nodes_explored as u64,
            );
            out.count(
                format!("{}.iterations", model.name),
                report.simplex_iterations as u64,
            );
        }
        out.raw_wall_s = tracer.close_workload(open).seconds();
        out.ops = out.attempted;
        effort.publish(options.time_limit, &mut out);
        out.set("planner.extract_s", extract_s);

        if tracer.enabled() {
            let p50 = root_lp_ms_p50(tracer, models, &mut out);
            out.set("lp.root_lp_ms_p50", p50);
        }
        out
    }

    fn latency(samples_ms: &[f64]) -> Latency {
        Latency::geomean_and_max(samples_ms, "models")
    }
}

/// Traced runs only, outside the timed section: the root LP relaxation of
/// every model through a fresh context, the cost a plan-cache certificate
/// pays.
fn root_lp_ms_p50(tracer: &mut Tracer, models: &[PlanModel], out: &mut Outcome) -> f64 {
    let mut root_ms = Vec::with_capacity(models.len());
    let open = tracer.begin();
    for model in models {
        let request = tracer.request(|| model.name.clone());
        let mut ctx = SolveContext::new();
        let call = tracer.begin();
        let bound = model.planner.root_bound_with_ctx(
            &model.spec,
            model.deadline_hours,
            &ModelConfig::default(),
            &mut ctx,
        );
        let timed = tracer.end(call, "lp.root_lp", request);
        match bound {
            Ok(_) => root_ms.push(timed.millis()),
            Err(e) => out.violation(format!("{}: root LP failed: {e}", model.name)),
        }
    }
    tracer.end(open, "harness.extras", NONE);
    median(&root_ms).unwrap_or(0.0)
}
