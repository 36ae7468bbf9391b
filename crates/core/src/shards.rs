//! The sharded fleet runtime: partitioned tenants, parallel shard
//! stepping, and a queue-rebalancer.
//!
//! A [`ShardedFleet`] partitions tenants across N independent [`Fleet`]
//! shards. Each shard owns a slice of the capacity pool (cut by
//! [`ResourcePool::split`]), its own clock and event heap, and — when the
//! caller attaches one — its own write-ahead log. Shards share **no**
//! mutable state; the only cross-shard interaction is an explicit, logged
//! [`TransferEvent`] that moves a *queued* job (never a running one) from
//! one shard to another, carrying the full [`FleetJobRequest`] and the
//! billing accrued so far (always zero for queued jobs, recorded anyway so
//! the transfer record is self-describing if the policy ever widens).
//!
//! # Placement
//!
//! Submissions route to a shard through a [`ShardRouter`]. The default
//! [`HashRouter`] is FNV-1a over the tenant name modulo the shard count:
//! stateless, deterministic, and stable across runs and processes (no
//! `RandomState`). A custom router can pin tenants, spread by workload
//! class, or anything else — it only has to be a pure function of the
//! request.
//!
//! # Determinism argument
//!
//! Every shard is a [`Fleet`], which is deterministic on its own clock
//! (see the fleet module's determinism contract). The sharded layer adds
//! three things, each deterministic by construction:
//!
//! 1. **Routing** is a pure function of the request and the shard count.
//! 2. **Parallel stepping** ([`ShardedFleet::step_until`]) advances every
//!    shard to the *same* barrier hour on a scoped thread pool. Threads
//!    never touch another shard's state, so OS scheduling cannot reorder
//!    anything observable; results are read back in shard order after the
//!    scope joins.
//! 3. **Rebalancing** runs only at barriers, when every shard sits at the
//!    same hour, and iterates a greedy loop with total tie-breaking
//!    (lowest shard index, lowest local submission index), so the
//!    transfer sequence is a pure function of barrier state.
//!
//! Consequently an N-shard run is bitwise reproducible: same submissions →
//! same per-shard event logs, same transfers, same merged report. The PR 9
//! checkpoint/replay guarantees hold *shard-locally*: each shard's WAL
//! replays on that shard alone, because migrations appear in it as
//! ordinary `MigratedOut` / `Submitted` events.
//!
//! # Rebalancer policy
//!
//! At each cadence barrier the rebalancer compares per-shard queue depth
//! (pending arrivals) and residual capped capacity, then greedily moves
//! the lowest-indexed queued *original* submission (attempt zero — retry
//! chains never migrate) from the deepest queue to the shallowest, ties
//! broken toward more residual slack and then lower shard index, until no
//! move would strictly reduce the depth spread. Each move emits a
//! [`TransferEvent`].

use crate::error::ConductorError;
use crate::fleet::{
    Fleet, FleetConfig, FleetEvent, FleetJobRequest, FleetReport, FleetSnapshot, TenantId,
    TenantOutcome, TenantStatus,
};
use crate::resources::ResourcePool;
use crate::wal::WalWriter;
use conductor_cloud::Catalog;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Deterministic tenant→shard placement. Implementations must be pure:
/// the same request and shard count always map to the same shard, or
/// replay and the N=1 equivalence argument both break.
pub trait ShardRouter: Send + Sync {
    /// The shard (`0..shards`) this request lives on. Out-of-range
    /// returns are folded back with a modulo rather than trusted.
    fn route(&self, request: &FleetJobRequest, shards: usize) -> usize;
}

/// The default router: FNV-1a over the tenant name, modulo the shard
/// count. Stateless and seed-free, so placement is stable across runs,
/// processes and platforms.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashRouter;

impl ShardRouter for HashRouter {
    fn route(&self, request: &FleetJobRequest, shards: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in request.tenant.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % shards.max(1) as u64) as usize
    }
}

/// One cross-shard job migration, in the order the rebalancer issued it.
/// This is the *entire* cross-shard protocol: the full request moves, the
/// source shard logs a `MigratedOut`, the destination logs a `Submitted`,
/// and nothing else crosses the boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferEvent {
    /// Tenant name, for log readability (the request carries it too).
    pub tenant: String,
    /// Shard the job left.
    pub from_shard: usize,
    /// Shard the job landed on.
    pub to_shard: usize,
    /// Barrier hour at which the transfer happened.
    pub at_hours: f64,
    /// Spend accrued on the source shard before the move. Queued jobs
    /// have not run, so this is always `0.0` under the current policy;
    /// it is recorded so the transfer log stays self-describing if the
    /// policy ever migrates started work.
    pub billed_so_far: f64,
    /// The migrated submission, with `arrival_hours` rewritten to the
    /// *scheduled* arrival on the source shard, so resubmission on the
    /// destination reproduces the identical arrival event.
    pub request: FleetJobRequest,
}

/// Configuration of a [`ShardedFleet`]: how many shards, and whether (and
/// how often) the queue-rebalancer runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedFleetConfig {
    /// Number of shards (≥ 1). The capacity pool is cut into this many
    /// slices by [`ResourcePool::split`].
    pub shards: usize,
    /// Rebalance cadence on the fleet clock. `None` disables the
    /// rebalancer entirely: shards never interact and
    /// [`ShardedFleet::run_to_quiescence`] drains them fully in parallel.
    pub rebalance_period_hours: Option<f64>,
}

impl Default for ShardedFleetConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            rebalance_period_hours: None,
        }
    }
}

impl ShardedFleetConfig {
    /// Checks the configuration is usable.
    pub fn validate(&self) -> Result<(), ConductorError> {
        if self.shards == 0 {
            return Err(ConductorError::InvalidInput(
                "sharded fleet needs at least one shard".into(),
            ));
        }
        if let Some(p) = self.rebalance_period_hours {
            if !p.is_finite() || p <= 0.0 {
                return Err(ConductorError::InvalidInput(format!(
                    "rebalance period must be finite and positive, got {p}"
                )));
            }
        }
        Ok(())
    }
}

/// A fleet of [`Fleet`]s: tenants partitioned across N shards, stepped in
/// parallel between barriers, optionally rebalanced. The single-fleet
/// status/billing surface ([`submit`](Self::submit),
/// [`cancel`](Self::cancel), [`status`](Self::status),
/// [`fleet_bill`](Self::fleet_bill), [`report`](Self::report)) works
/// unchanged on top; [`TenantId`]s returned here are *global* (fleet-wide
/// submission order) and stay valid across migrations.
pub struct ShardedFleet {
    catalog: Catalog,
    fleet_config: FleetConfig,
    pools: Vec<ResourcePool>,
    shards: Vec<Fleet>,
    router: Box<dyn ShardRouter>,
    /// Global tenant id → current (shard, shard-local id).
    placements: Vec<(usize, TenantId)>,
    /// Per shard: local submission index → global tenant id. Entries for
    /// migrated-away locals are kept (the report scan needs the total
    /// map); `migrated_away` marks which to skip.
    local_to_global: Vec<BTreeMap<usize, usize>>,
    /// Per shard: local indices whose job migrated to another shard.
    migrated_away: Vec<BTreeSet<usize>>,
    transfers: Vec<TransferEvent>,
    rebalance_period: Option<f64>,
    next_rebalance: f64,
}

impl std::fmt::Debug for ShardedFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFleet")
            .field("shards", &self.shards.len())
            .field("tenants", &self.placements.len())
            .field("transfers", &self.transfers.len())
            .field("rebalance_period", &self.rebalance_period)
            .finish_non_exhaustive()
    }
}

impl ShardedFleet {
    /// Opens a sharded session with the default [`HashRouter`]: the pool
    /// is split into `config.shards` slices and one [`Fleet`] opens per
    /// slice, each with a clone of the catalog and fleet config (so every
    /// shard schedules the identical revocation sweeps and fault plan on
    /// its own clock).
    pub fn new(
        catalog: Catalog,
        pool: ResourcePool,
        fleet_config: FleetConfig,
        config: ShardedFleetConfig,
    ) -> Result<Self, ConductorError> {
        Self::with_router(catalog, pool, fleet_config, config, Box::new(HashRouter))
    }

    /// [`new`](Self::new) with a custom placement policy.
    pub fn with_router(
        catalog: Catalog,
        pool: ResourcePool,
        fleet_config: FleetConfig,
        config: ShardedFleetConfig,
        router: Box<dyn ShardRouter>,
    ) -> Result<Self, ConductorError> {
        config.validate()?;
        let pools = pool.split(config.shards);
        let mut shards = Vec::with_capacity(config.shards);
        for slice in &pools {
            shards.push(Fleet::new(
                catalog.clone(),
                slice.clone(),
                fleet_config.clone(),
            )?);
        }
        let n = shards.len();
        Ok(Self {
            catalog,
            fleet_config,
            pools,
            shards,
            router,
            placements: Vec::new(),
            local_to_global: vec![BTreeMap::new(); n],
            migrated_away: vec![BTreeSet::new(); n],
            transfers: Vec::new(),
            rebalance_period: config.rebalance_period_hours,
            next_rebalance: config.rebalance_period_hours.unwrap_or(f64::INFINITY),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard (its event log, WAL error, clock…).
    pub fn shard(&self, shard: usize) -> Option<&Fleet> {
        self.shards.get(shard)
    }

    /// Every cross-shard migration so far, in the deterministic order the
    /// rebalancer issued them.
    pub fn transfers(&self) -> &[TransferEvent] {
        &self.transfers
    }

    /// Routes and submits a job. The returned [`TenantId`] is global —
    /// fleet-wide submission order — and stays valid if the rebalancer
    /// later migrates the job. Other shards get their monitor grid
    /// aligned to this arrival ([`Fleet::align_monitor`]), so per-shard
    /// re-plan tick times match what a single unsharded fleet seeing
    /// every submission would produce.
    pub fn submit(&mut self, request: FleetJobRequest) -> Result<TenantId, ConductorError> {
        let n = self.shards.len();
        let target = self.router.route(&request, n) % n;
        let arrival = request.arrival_hours;
        let local = self.shards[target].submit(request)?;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if i != target {
                shard.align_monitor(arrival)?;
            }
        }
        let global = self.placements.len();
        self.placements.push((target, local));
        self.local_to_global[target].insert(local.0, global);
        Ok(TenantId(global))
    }

    /// Cancels a tenant's job on whichever shard currently owns it. Same
    /// semantics as [`Fleet::cancel`].
    pub fn cancel(&mut self, id: TenantId) -> Result<bool, ConductorError> {
        let (shard, local) = self.placement(id)?;
        self.shards[shard].cancel(local)
    }

    /// Live status of a tenant's *original* submission, wherever it lives
    /// now. `None` for unknown ids.
    pub fn status(&self, id: TenantId) -> Option<TenantStatus> {
        let (shard, local) = self.placement(id).ok()?;
        self.shards[shard].status(local)
    }

    /// Which shard currently owns a tenant (it changes when the
    /// rebalancer migrates the job).
    pub fn shard_of(&self, id: TenantId) -> Option<usize> {
        self.placements.get(id.0).map(|&(s, _)| s)
    }

    fn placement(&self, id: TenantId) -> Result<(usize, TenantId), ConductorError> {
        self.placements.get(id.0).copied().ok_or_else(|| {
            ConductorError::InvalidInput(format!("unknown tenant id {} in sharded fleet", id.0))
        })
    }

    /// Advances every shard to `hours` in parallel. With a rebalance
    /// cadence configured, stepping pauses at each cadence barrier — all
    /// shards at the identical hour — runs the rebalancer, then resumes.
    /// Without one, this is a single parallel advance.
    pub fn step_until(&mut self, hours: f64) {
        if !hours.is_finite() {
            return;
        }
        if let Some(period) = self.rebalance_period {
            while self.next_rebalance < hours {
                let boundary = self.next_rebalance;
                self.parallel(|shard| shard.step_until(boundary));
                self.rebalance(boundary);
                self.next_rebalance = boundary + period;
            }
        }
        self.parallel(|shard| shard.step_until(hours));
    }

    /// Drains every shard. With the rebalancer off, shards are fully
    /// independent and each drains [`Fleet::run_to_quiescence`] on its own
    /// thread. With it on, the driver steps barrier-to-barrier (so queued
    /// work keeps rebalancing) until no shard has events before the next
    /// barrier, then drains; per-shard stalled-abort/retry semantics are
    /// unchanged.
    pub fn run_to_quiescence(&mut self) {
        if let Some(period) = self.rebalance_period {
            loop {
                let horizon = self
                    .shards
                    .iter()
                    .filter_map(Fleet::horizon_hours)
                    .reduce(f64::max);
                let Some(horizon) = horizon else { break };
                if self.next_rebalance > horizon {
                    break;
                }
                let boundary = self.next_rebalance;
                self.parallel(|shard| shard.step_until(boundary));
                self.rebalance(boundary);
                self.next_rebalance = boundary + period;
            }
        }
        self.parallel(Fleet::run_to_quiescence);
    }

    /// Total pending events across all shard clocks.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(Fleet::pending_events).sum()
    }

    /// Sum of all shard bills — terminal spend plus accrued spend of
    /// still-running jobs, exactly [`Fleet::fleet_bill`] per shard.
    /// Migrated jobs never ran on their source shard, so nothing is
    /// double-billed.
    pub fn fleet_bill(&self) -> f64 {
        self.shards.iter().map(Fleet::fleet_bill).sum()
    }

    /// The merged event stream: every shard's [`Fleet::events`] log
    /// tagged with its shard id, in stable `(time, shard, per-shard
    /// sequence)` order. The sort is stable and per-shard logs are
    /// appended in shard order, so simultaneous events order by shard id
    /// and each shard's internal sequence is preserved.
    pub fn merged_events(&self) -> Vec<(usize, FleetEvent)> {
        let mut all: Vec<(usize, FleetEvent)> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            all.extend(shard.events().iter().map(|e| (i, e.clone())));
        }
        all.sort_by(|a, b| {
            a.1.at_hours()
                .total_cmp(&b.1.at_hours())
                .then(a.0.cmp(&b.0))
        });
        all
    }

    /// The fleet-wide report: per-tenant outcomes from every shard merged
    /// in canonical order — by global submission id, then attempt, so the
    /// merged report is identical whether a tenant's chain ran on one
    /// shard or migrated. Source-shard records of migrated-away jobs are
    /// dropped (the destination owns the outcome). Breaker-open hours and
    /// plan-cache counters sum across shards.
    pub fn report(&self) -> FleetReport {
        let mut keyed: Vec<((usize, usize, usize, usize), TenantOutcome)> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for (i, o) in shard.outcomes().iter().enumerate() {
                let root = o.retry_of.unwrap_or(i);
                if self.migrated_away[s].contains(&root) {
                    continue;
                }
                let global = self.local_to_global[s][&root];
                keyed.push(((global, o.attempt, s, i), o.clone()));
            }
        }
        keyed.sort_by_key(|a| a.0);
        let mut report = FleetReport::from_outcomes(keyed.into_iter().map(|(_, o)| o).collect());
        for shard in &self.shards {
            let r = shard.report();
            report.breaker_open_hours += r.breaker_open_hours;
            report.plan_cache_hits += r.plan_cache_hits;
            report.plan_cache_misses += r.plan_cache_misses;
        }
        report
    }

    /// Checkpoints one shard ([`Fleet::checkpoint`]). Meaningful at
    /// barrier boundaries — between [`step_until`](Self::step_until)
    /// calls — exactly like the single-fleet contract.
    pub fn checkpoint_shard(&self, shard: usize) -> Result<FleetSnapshot, ConductorError> {
        self.shards
            .get(shard)
            .map(Fleet::checkpoint)
            .ok_or_else(|| Self::no_such_shard(shard))
    }

    /// Replaces one shard with a restore from a snapshot taken by
    /// [`checkpoint_shard`](Self::checkpoint_shard), using the shard's
    /// own pool slice and the shared catalog/config. The caller is
    /// responsible for timing: restoring to a barrier earlier than
    /// migrations that already updated the global placement table would
    /// desynchronize it. A WAL attached to the old shard instance is
    /// dropped, as in [`Fleet::restore`] — re-attach afterwards to keep
    /// tailing.
    pub fn restore_shard(
        &mut self,
        shard: usize,
        snapshot: &FleetSnapshot,
    ) -> Result<(), ConductorError> {
        let pool = self
            .pools
            .get(shard)
            .cloned()
            .ok_or_else(|| Self::no_such_shard(shard))?;
        self.shards[shard] = Fleet::restore(
            self.catalog.clone(),
            pool,
            self.fleet_config.clone(),
            snapshot,
        )?;
        Ok(())
    }

    /// Attaches a write-ahead log to one shard ([`Fleet::attach_wal`]):
    /// from now on that shard's events tail into the log as they are
    /// emitted.
    pub fn attach_wal(&mut self, shard: usize, wal: WalWriter) -> Result<(), ConductorError> {
        self.shards
            .get_mut(shard)
            .map(|s| s.attach_wal(wal))
            .ok_or_else(|| Self::no_such_shard(shard))
    }

    fn no_such_shard(shard: usize) -> ConductorError {
        ConductorError::InvalidInput(format!("no such shard: {shard}"))
    }

    /// Runs `step` on every shard, on a scoped thread pool when there is
    /// more than one. Shards share nothing mutable, so thread interleaving
    /// is unobservable; the barrier join restores shard order.
    fn parallel(&mut self, step: impl Fn(&mut Fleet) + Sync) {
        if let [only] = self.shards.as_mut_slice() {
            return step(only);
        }
        std::thread::scope(|scope| {
            for shard in &mut self.shards {
                scope.spawn(|| step(shard));
            }
        });
    }

    /// One rebalance pass at a barrier. Greedy: move the lowest-indexed
    /// queued original submission from the deepest queue to the
    /// shallowest (ties toward more residual slack, then lower shard
    /// index) while a move strictly narrows the depth spread.
    fn rebalance(&mut self, at: f64) {
        let n = self.shards.len();
        if n < 2 {
            return;
        }
        loop {
            let depths: Vec<usize> = self.shards.iter().map(Fleet::queue_depth).collect();
            let slack: Vec<usize> = self
                .shards
                .iter()
                .map(|s| s.residual_capped_nodes(at))
                .collect();
            let src = (0..n)
                .max_by(|&a, &b| depths[a].cmp(&depths[b]).then(b.cmp(&a)))
                .expect("at least two shards");
            let dst = (0..n)
                .min_by(|&a, &b| {
                    depths[a]
                        .cmp(&depths[b])
                        .then(slack[b].cmp(&slack[a]))
                        .then(a.cmp(&b))
                })
                .expect("at least two shards");
            // A move must strictly narrow the spread (src loses one, dst
            // gains one), or the loop would oscillate.
            if src == dst || depths[src] < depths[dst] + 2 {
                break;
            }
            let candidates = self.shards[src].queued_candidates();
            let Some(&victim) = candidates.first() else {
                // Depth counts retry waits too, but those never migrate.
                break;
            };
            let request = self.shards[src]
                .migrate_out(TenantId(victim))
                .expect("queued candidate migrates");
            let global = self.local_to_global[src][&victim];
            let new_local = self.shards[dst]
                .submit(request.clone())
                .expect("validated request resubmits");
            self.migrated_away[src].insert(victim);
            self.placements[global] = (dst, new_local);
            self.local_to_global[dst].insert(new_local.0, global);
            self.transfers.push(TransferEvent {
                tenant: request.tenant.clone(),
                from_shard: src,
                to_shard: dst,
                at_hours: at,
                billed_so_far: 0.0,
                request,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_named(name: &str) -> FleetJobRequest {
        FleetJobRequest::new(
            name,
            conductor_mapreduce::Workload::KMeansScaled { input_gb: 4 }.spec(),
            crate::goal::Goal::MinimizeCost {
                deadline_hours: 24.0,
            },
            0.0,
        )
    }

    #[test]
    fn hash_router_is_stable_and_in_range() {
        let router = HashRouter;
        for n in 1..=8 {
            for name in ["analytics", "etl", "ml-train", "", "tenant-42"] {
                let req = request_named(name);
                let a = router.route(&req, n);
                let b = router.route(&req, n);
                assert_eq!(a, b, "routing must be pure");
                assert!(a < n, "route {a} out of range for {n} shards");
            }
        }
    }

    #[test]
    fn hash_router_spreads_tenants() {
        let router = HashRouter;
        let shards = 4;
        let mut hit = vec![0usize; shards];
        for i in 0..64 {
            let req = request_named(&format!("tenant-{i}"));
            hit[router.route(&req, shards)] += 1;
        }
        assert!(
            hit.iter().all(|&c| c > 0),
            "64 tenants over 4 shards should touch every shard: {hit:?}"
        );
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(ShardedFleetConfig {
            shards: 0,
            rebalance_period_hours: None,
        }
        .validate()
        .is_err());
        assert!(ShardedFleetConfig {
            shards: 2,
            rebalance_period_hours: Some(0.0),
        }
        .validate()
        .is_err());
        assert!(ShardedFleetConfig {
            shards: 2,
            rebalance_period_hours: Some(f64::NAN),
        }
        .validate()
        .is_err());
        assert!(ShardedFleetConfig::default().validate().is_ok());
    }
}
