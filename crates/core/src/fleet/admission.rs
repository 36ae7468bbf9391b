//! Admission: the one module that plans.
//!
//! [`AdmissionControl`] owns what a planning decision warms — the
//! cross-solve [`SolveContext`] and the certified plan cache — and answers
//! two questions: *admit this request now*, *re-plan this job now*. Both
//! plan against [`residual_at`], what the other jobs leave of the pool,
//! resampled per call. The cache's entry format and certification rule are
//! private to this file; the session sees a plan, or a reason there is none.

use super::request::{FleetConfig, FleetJobRequest};
use super::residual::residual_at;
use super::session::{ActiveJob, MONITOR_CONSERVATISM, REPLAN_MARGIN_HOURS};
use crate::error::ConductorError;
use crate::model::{InitialState, ModelConfig};
use crate::plan::ExecutionPlan;
use crate::planner::{Planner, PlanningReport, RootBound};
use crate::policy::{FallbackTier, SpotBreaker};
use crate::resources::ResourcePool;
use conductor_cloud::Catalog;
use conductor_lp::SolveContext;
use conductor_mapreduce::{
    DataLocation, ExecutionProgress, JobExecution, JobSpec, PlanFollowingScheduler, SessionPricing,
};
use conductor_sim::{ProcessId, TIME_EPSILON};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Key of the admission plan cache: the planning horizon plus the exact
/// bit patterns of the job-spec fields that shape the model. Prices,
/// residual caps and bids are deliberately *not* part of the key — a
/// candidate entry is re-priced under the current forecast and certified
/// against the current model's root LP bound instead, so look-alike
/// arrivals share plans across market drift and capacity churn.
///
/// Public because cache-served admissions record their key on
/// [`FleetEvent::Admitted`](super::FleetEvent::Admitted), making the event log self-describing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlanCacheKey {
    /// Planning horizon in intervals.
    pub horizon: usize,
    /// The spec's reduce-task count.
    pub reduce_tasks: usize,
    /// Exact bit patterns of the model-shaping spec floats: `input_gb`,
    /// `split_mb`, `map_output_ratio`, `reduce_output_ratio`,
    /// `reference_throughput_gbph`.
    pub spec_bits: [u64; 5],
}

impl PlanCacheKey {
    fn new(spec: &JobSpec, horizon: usize) -> Self {
        Self {
            horizon,
            reduce_tasks: spec.reduce_tasks,
            spec_bits: [
                spec.input_gb.to_bits(),
                spec.split_mb.to_bits(),
                spec.map_output_ratio.to_bits(),
                spec.reduce_output_ratio.to_bits(),
                spec.reference_throughput_gbph.to_bits(),
            ],
        }
    }
}

/// One cached admission plan: the shape, the objective it solved to, and
/// the resolved per-interval price vector it solved under. The model's
/// objective is linear in prices with node counts as coefficients, so
/// `cost + Σ nodes·(p_new − p_old)·dt` is *exactly* the current model's
/// objective for this shape — no approximation in the re-pricing.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PlanCacheEntry {
    plan: ExecutionPlan,
    /// Objective the shape solved to under `prices`.
    cost: f64,
    /// `cost / root LP bound` of the solve that produced this entry — the
    /// integrality-plus-termination quality a *fresh* branch & bound
    /// achieved on this key. These models carry a large, key-specific
    /// integrality gap (the fluid relaxation rents fractional nodes), so
    /// absolute closeness to the root bound is the wrong bar; closeness
    /// relative to what fresh solves of the same key actually attain is
    /// the certifiable one.
    ratio: f64,
    /// Resolved per-interval price per compute type at solve time
    /// (forecast price, or the type's on-demand hourly price).
    prices: BTreeMap<String, Vec<f64>>,
    /// Peak per-interval node count per type — the feasibility screen
    /// against the current residual caps (the model bounds `nodes[c][t]`
    /// by the cap in every interval).
    peaks: BTreeMap<String, usize>,
}

/// How many shapes each key retains (oldest evicted first, so the pool
/// tracks the price regimes arrivals actually solve under, and its ratios
/// are the recent fresh solves' the certification bar is taken from).
const PLAN_CACHE_POOL: usize = 8;

/// What a probe learned: the certified sibling plan, if one qualified, and
/// what the insert after a miss needs to grade the fresh solve it records.
struct Probed {
    hit: Option<ExecutionPlan>,
    planning: PlanningReport,
    key: PlanCacheKey,
    bound: f64,
    prices: BTreeMap<String, Vec<f64>>,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PlanCache {
    entries: BTreeMap<PlanCacheKey, Vec<PlanCacheEntry>>,
    hits: usize,
    misses: usize,
}

impl PlanCache {
    /// Median `cost / root bound` ratio of `pool`'s entries — what a
    /// typical fresh branch & bound delivers on their key, the bar a reused
    /// shape must meet (`None` for an empty pool).
    fn typical_ratio(pool: &[PlanCacheEntry]) -> Option<f64> {
        let mut sorted: Vec<f64> = pool.iter().map(|entry| entry.ratio).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted.get(sorted.len() / 2).copied()
    }

    /// Probes for a certified sibling plan. A hit must pass two screens
    /// against *this* admission's state: the shape's peak allocations fit
    /// the current residual caps, and its re-priced objective is at most
    /// the key's median fresh-solve ratio × (1 + the solver's relative
    /// gap) × the fresh model's root LP bound — no worse than the solve it
    /// replaces typically delivers, measured against a bound the cold
    /// path's node-cap terminations do not even carry. Among qualifying
    /// entries the cheapest re-priced shape wins. `root` is this
    /// admission's root relaxation.
    fn probe(
        &mut self,
        root: RootBound,
        key: PlanCacheKey,
        prices_now: BTreeMap<String, Vec<f64>>,
        residual: &ResourcePool,
        gap: f64,
    ) -> Probed {
        let mut best: Option<(f64, usize)> = None;
        let pool = self.entries.get(&key).map_or(&[][..], Vec::as_slice);
        if let Some(typical) = Self::typical_ratio(pool) {
            // The certification bar: what a *typical* fresh branch &
            // bound delivers on this key (median cost-to-bound ratio of
            // the recent fresh solves), scaled by today's root bound. A
            // reused shape must re-price at or below that — i.e. be
            // equal-or-better than the solve it replaces — with the
            // solver's relative gap as the indifference band.
            let bar = typical * (1.0 + gap) * root.bound;
            for (i, entry) in pool.iter().enumerate() {
                if !entry_fits(entry, residual) {
                    continue;
                }
                let Some(repriced) = reprice_entry(entry, &prices_now) else {
                    continue;
                };
                if repriced <= bar && best.is_none_or(|(cost, _)| repriced < cost) {
                    best = Some((repriced, i));
                }
            }
        }
        let hit = best.map(|(repriced, i)| ExecutionPlan {
            expected_cost: repriced,
            ..pool[i].plan.clone()
        });
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        Probed {
            hit,
            planning: PlanningReport::root_only(&root),
            key,
            bound: root.bound,
            prices: prices_now,
        }
    }

    /// Records the fresh solve that followed `probed`'s miss (oldest shape
    /// evicted once a key holds [`PLAN_CACHE_POOL`] entries).
    fn insert(&mut self, probed: Probed, plan: &ExecutionPlan) {
        let Probed {
            key, bound, prices, ..
        } = probed;
        if !bound.is_finite() || bound <= 0.0 || !plan.expected_cost.is_finite() {
            return;
        }
        let mut peaks: BTreeMap<String, usize> = BTreeMap::new();
        for interval in &plan.intervals {
            for (ty, &n) in &interval.nodes {
                let peak = peaks.entry(ty.clone()).or_insert(0);
                *peak = (*peak).max(n);
            }
        }
        let entry = PlanCacheEntry {
            plan: plan.clone(),
            cost: plan.expected_cost,
            ratio: plan.expected_cost / bound,
            prices,
            peaks,
        };
        let pool = self.entries.entry(key).or_default();
        pool.push(entry);
        if pool.len() > PLAN_CACHE_POOL {
            pool.remove(0);
        }
    }
}

/// The per-interval price per compute type the model objective would use
/// under `forecast`: the forecast price when one exists for the type and
/// interval, else the type's on-demand hourly price (mirrors the model's
/// price resolution exactly).
fn resolved_prices(
    pool: &ResourcePool,
    forecast: &BTreeMap<String, Vec<f64>>,
    horizon: usize,
) -> BTreeMap<String, Vec<f64>> {
    let mut out = BTreeMap::new();
    for c in &pool.compute {
        let prices: Vec<f64> = (0..horizon)
            .map(|t| {
                forecast
                    .get(&c.name)
                    .and_then(|f| f.get(t))
                    .copied()
                    .unwrap_or(c.hourly_price)
            })
            .collect();
        out.insert(c.name.clone(), prices);
    }
    out
}

/// The entry's objective under today's prices (`None` if a node type in
/// the shape has no price row — cannot happen for entries built from the
/// same pool, but degrade to a miss rather than panic).
fn reprice_entry(entry: &PlanCacheEntry, prices_now: &BTreeMap<String, Vec<f64>>) -> Option<f64> {
    let dt = entry.plan.interval_hours;
    let mut cost = entry.cost;
    for (t, interval) in entry.plan.intervals.iter().enumerate() {
        for (ty, &n) in &interval.nodes {
            if n == 0 {
                continue;
            }
            let old = entry.prices.get(ty)?.get(t)?;
            let new = prices_now.get(ty)?.get(t)?;
            cost += n as f64 * (new - old) * dt;
        }
    }
    Some(cost)
}

/// Whether the shape fits the current residual capacity: every capped
/// compute type has room for the entry's peak allocation.
fn entry_fits(entry: &PlanCacheEntry, residual: &ResourcePool) -> bool {
    residual.compute.iter().all(|c| match c.max_nodes {
        Some(cap) => entry.peaks.get(&c.name).copied().unwrap_or(0) <= cap,
        None => true,
    })
}

/// The session state a planning decision reads, borrowed per call.
pub(super) struct Env<'a> {
    pub(super) catalog: &'a Catalog,
    pub(super) pool: &'a ResourcePool,
    pub(super) config: &'a FleetConfig,
    pub(super) breaker: Option<&'a SpotBreaker>,
    pub(super) active: &'a BTreeMap<ProcessId, ActiveJob>,
}

/// A successful admission: the execution process and the plan it runs under.
pub(super) struct Admitted {
    pub(super) exec: JobExecution<'static>,
    pub(super) plan: ExecutionPlan,
    pub(super) planning: PlanningReport,
    /// The plan-cache key the plan was served from (fast path only).
    pub(super) cache_key: Option<PlanCacheKey>,
    /// The breaker's on-demand fallback tier was engaged: sessions are
    /// priced on-demand and revocation sweeps skip the job.
    pub(super) fallback: bool,
}

/// A refused admission: why, and the solver effort it cost (if a solve ran).
pub(super) struct Refused(pub(super) String, pub(super) Option<Box<PlanningReport>>);

/// The admission module's state — see the [module docs](self).
#[derive(Default)]
pub(super) struct AdmissionControl {
    /// Cross-solve skeleton/basis reuse for admission and re-plan solves:
    /// look-alike models drain through one factorization instead of each
    /// paying a cold two-phase fill.
    solve_ctx: SolveContext,
    /// Admission plan cache (stays empty while
    /// [`FleetConfig::plan_cache`] is off).
    cache: PlanCache,
}

impl AdmissionControl {
    /// Plan-cache `(hits, misses)`, for reports.
    pub(super) fn cache_stats(&self) -> (usize, usize) {
        (self.cache.hits, self.cache.misses)
    }

    /// Plans one arrival against the residual capacity at `now` and, on
    /// success, builds its execution process.
    pub(super) fn admit(
        &mut self,
        env: &Env,
        request: &FleetJobRequest,
        now: f64,
    ) -> Result<Admitted, Refused> {
        let residual = residual_at(env.pool, env.active, now, None);
        if let Err(reason) = residual.validate() {
            return Err(Refused(format!("no residual capacity: {reason}"), None));
        }
        let planner =
            Planner::new(residual.clone()).with_solve_options(env.config.solve_options.clone());
        let config = ModelConfig {
            price_forecast: price_forecast(
                env,
                now,
                request.goal.horizon_hours(),
                request.spot_bid,
            ),
            ..ModelConfig::default()
        };
        let gap = env.config.solve_options.relative_gap;
        // The fast path: a cached sibling plan that fits the residual and
        // re-prices within the certified gap of this admission's root LP
        // bound skips branch & bound entirely. Only deadline goals
        // (`MinimizeCost`) are cached.
        let cached_deadline = (request.goal.deadline_hours()).filter(|_| env.config.plan_cache);
        let probed = cached_deadline.and_then(|deadline_hours| {
            // The root relaxation runs through the shared context, so a
            // miss's full solve warm-starts from it.
            let root = planner.root_bound_with_ctx(
                &request.spec,
                deadline_hours,
                &config,
                &mut self.solve_ctx,
            );
            let Ok(root) = root else {
                // An infeasible/failed relaxation is a miss with nothing to
                // certify against or record; the full solve below surfaces
                // the identical error to the caller.
                self.cache.misses += 1;
                return None;
            };
            let horizon = (deadline_hours / planner.interval_hours).ceil().max(1.0) as usize;
            let key = PlanCacheKey::new(&request.spec, horizon);
            let prices = resolved_prices(&residual, &config.price_forecast, horizon);
            Some(self.cache.probe(root, key, prices, &residual, gap))
        });
        let (plan, planning, cache_key) = match probed {
            Some(Probed {
                hit: Some(plan),
                planning,
                key,
                ..
            }) => (plan, planning, Some(key)),
            probed => {
                let (plan, planning) = planner
                    .plan_or_effort(
                        &request.spec,
                        request.goal,
                        &config,
                        Some(&mut self.solve_ctx),
                    )
                    .map_err(|failed| {
                        let reason = format!("admission planning failed: {}", failed.error);
                        Refused(reason, failed.planning)
                    })?;
                if let Some(probed) = probed {
                    self.cache.insert(probed, &plan);
                }
                (plan, planning, None)
            }
        };

        let options = plan.to_deployment_options(
            request.tenant.clone(),
            env.pool.uplink_gbph,
            request.goal.deadline_hours(),
            &ExecutionPlan::default_location_map(),
        );
        let scheduler = scheduler_for_plan(&plan, env.pool);
        // While the breaker is open, the on-demand fallback tier pays the
        // ceiling for real instead of buying (revocable) spot: the
        // deadline is kept at the price of the discount. Without the
        // fallback tier the session still buys spot — at ceiling-priced
        // forecasts, it simply plans as if the discount were gone.
        let fallback = env
            .breaker
            .is_some_and(|b| b.is_engaged() && b.config().fallback == FallbackTier::OnDemand);
        let pricing = match &env.config.spot_market {
            Some(_) if fallback => SessionPricing::OnDemand,
            Some(market) => SessionPricing::Spot {
                market: market.clone(),
                start_offset_hours: now,
                bid: request
                    .spot_bid
                    .unwrap_or_else(|| env.config.effective_bid(market)),
            },
            None => SessionPricing::OnDemand,
        };
        let exec = JobExecution::new(
            env.catalog,
            &request.spec,
            options,
            Box::new(scheduler),
            pricing,
        )
        .map_err(|e| Refused(format!("deployment rejected: {e}"), None))?;
        Ok(Admitted {
            exec,
            plan,
            planning,
            cache_key,
            fallback,
        })
    }

    /// Re-plans lagging job `pid` from its observed state (`progress`,
    /// `rel` hours in) and throughput, against the residual capacity the
    /// *other* jobs leave. `None`: keep the schedule; the next tick may retry.
    pub(super) fn replan(
        &mut self,
        env: &Env,
        pid: ProcessId,
        now: f64,
        rel: f64,
        progress: &ExecutionProgress,
        observed_gbph: f64,
    ) -> Option<ExecutionPlan> {
        let job = env.active.get(&pid)?;
        let spec = &job.info.spec;

        let residual = residual_at(env.pool, env.active, now, Some(pid))
            .with_observed_throughput(spec, observed_gbph);
        if residual.validate().is_err() {
            return None;
        }

        // Observed state, with the conservatism the fluid model needs.
        let mut initial = InitialState::default();
        for (loc, gb) in &progress.stored_gb {
            if let Some(name) = storage_name(*loc) {
                initial.stored_gb.insert(name.to_string(), *gb);
            }
        }
        let remaining = (spec.input_gb - progress.map_done_gb).max(0.0);
        initial.map_done_gb = (spec.input_gb - remaining * (1.0 + MONITOR_CONSERVATISM)).max(0.0);

        let remaining_goal = job.info.goal.remaining(rel, REPLAN_MARGIN_HOURS);
        let config = ModelConfig {
            initial,
            price_forecast: price_forecast(
                env,
                now,
                remaining_goal.horizon_hours(),
                job.info.tenant_bid,
            ),
            ..ModelConfig::default()
        };
        let planner = Planner::new(residual).with_solve_options(env.config.solve_options.clone());
        planner
            .plan_or_effort(spec, remaining_goal, &config, Some(&mut self.solve_ctx))
            .ok()
            .map(|(updated, _)| updated)
    }

    /// The solver context's bytes and the plan cache.
    pub(super) fn export(&self) -> AdmissionSnapshot {
        AdmissionSnapshot {
            solve_ctx: self.solve_ctx.export_state(),
            plan_cache: self.cache.clone(),
        }
    }

    /// The inverse of [`export`](Self::export).
    pub(super) fn import(snapshot: &AdmissionSnapshot) -> Result<Self, ConductorError> {
        let solve_ctx = SolveContext::import_state(&snapshot.solve_ctx).map_err(|e| {
            ConductorError::InvalidInput(format!("corrupt solver-context blob: {e:?}"))
        })?;
        Ok(Self {
            solve_ctx,
            cache: snapshot.plan_cache.clone(),
        })
    }
}

/// The exact solver-context bytes and the plan cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct AdmissionSnapshot {
    solve_ctx: String,
    plan_cache: PlanCache,
}

/// Per-interval price expectations from the shared spot market (empty
/// when the fleet buys on-demand). A per-tenant bid below the market's
/// spikes makes the out-bid hours *unavailable* to that tenant; the
/// fluid model cannot express unavailability, so those hours are
/// forecast at the on-demand ceiling — the price of the fallback that
/// would actually keep the plan's node-hours.
fn price_forecast(
    env: &Env,
    now: f64,
    horizon: usize,
    tenant_bid: Option<f64>,
) -> BTreeMap<String, Vec<f64>> {
    let mut forecast = BTreeMap::new();
    if let Some(market) = &env.config.spot_market {
        // Epsilon-nudged like every other hour-bucket conversion in
        // the fleet: a clock sitting just below an hour boundary
        // (e.g. 5.999999999 after accumulated float steps) must
        // forecast from hour 6, not re-read the expiring hour 5
        // price for the whole horizon window.
        let start = (now + TIME_EPSILON).floor().max(0.0) as usize;
        let mut prices = market.price_forecast(start, horizon);
        // An open breaker prices every remote hour at the on-demand
        // ceiling: the fleet has stopped trusting the trace, so plans
        // must pencil in the price of the capacity they would
        // actually get (on-demand fallback, or ceiling-priced spot).
        if env.breaker.is_some_and(|b| b.is_engaged()) {
            for price in prices.iter_mut() {
                *price = market.on_demand_price;
            }
        } else if let Some(bid) = tenant_bid {
            for (offset, price) in prices.iter_mut().enumerate() {
                if market.out_bid_at(start + offset, bid) {
                    *price = market.on_demand_price;
                }
            }
        }
        for c in &env.pool.compute {
            if !c.is_local {
                forecast.insert(c.name.clone(), prices.clone());
            }
        }
    }
    forecast
}

/// Derives the plan-following scheduler permissions a plan implies over a
/// resource pool (§5.3): every compute resource the plan rents may read
/// from its own disks and from the storage services the plan uploads to;
/// local nodes may additionally read the on-site input directly.
fn scheduler_for_plan(plan: &ExecutionPlan, pool: &ResourcePool) -> PlanFollowingScheduler {
    let mut scheduler = PlanFollowingScheduler::new();
    let location_map = ExecutionPlan::default_location_map();
    let storages: Vec<DataLocation> = plan
        .storage_mix()
        .keys()
        .filter_map(|name| location_map.get(name).copied())
        .collect();
    let computes: std::collections::BTreeSet<String> = plan
        .intervals
        .iter()
        .flat_map(|p| p.nodes.keys().cloned())
        .collect();
    for compute in computes {
        let is_local = pool
            .compute_resource(&compute)
            .map(|c| c.is_local)
            .unwrap_or(false);
        // Every compute resource may read its own disks...
        scheduler.allow(
            compute.clone(),
            if is_local {
                DataLocation::LocalDisk
            } else {
                DataLocation::InstanceDisk
            },
        );
        if is_local {
            // ...local nodes additionally read the on-site input directly.
            scheduler.allow(compute.clone(), DataLocation::ClientSite);
        }
        // ...and the storage services the plan uses.
        for loc in &storages {
            scheduler.allow(compute.clone(), *loc);
        }
    }
    scheduler
}

/// Inverse of [`ExecutionPlan::default_location_map`]: an engine location
/// back to its pool storage-resource name, for building re-planning state.
fn storage_name(location: DataLocation) -> Option<&'static str> {
    match location {
        DataLocation::S3 => Some("S3"),
        DataLocation::InstanceDisk => Some("EC2-disk"),
        DataLocation::LocalDisk => Some("local-disk"),
        DataLocation::ClientSite => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Goal;
    use conductor_mapreduce::Workload;

    #[test]
    fn scheduler_permissions_follow_the_plan() {
        let pool = ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0)
            .with_compute_only(&["m1.large"]);
        let goal = Goal::MinimizeCost {
            deadline_hours: 6.0,
        };
        let (plan, _) = Planner::new(pool.clone())
            .plan(&Workload::KMeans32Gb.spec(), goal)
            .unwrap();
        let scheduler = scheduler_for_plan(&plan, &pool);
        // The plan uses m1.large nodes reading from their instance disks.
        let allowed = scheduler.allowed_for("m1.large");
        assert!(allowed.contains(&DataLocation::InstanceDisk));
        // No permissions for instance types the plan does not use.
        assert!(scheduler.allowed_for("c1.xlarge").is_empty());
    }
}
