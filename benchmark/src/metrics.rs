//! The metric and workload registry: every name the benchmark prints.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`--emit-contract`), and the README's tables from them plus
//! `baseline.json` (`--emit-md`); nothing is typed twice.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `run_seconds` of `BENCHMARK.json`: the nominal length of one run.
pub const RUN_SECONDS: u64 = 18;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, `BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// What one operation is (the unit of `ops_per_s`, `attempted`, `failed`).
    pub operation: &'static str,
    /// What `latency_ms_mid` / `latency_ms_tail` are on this workload.
    pub latency: &'static str,
    /// Threads the workload runs on; on a host with fewer cores its metrics
    /// are recorded as `"unmeasured"`, never as a number.
    pub threads: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "churn_cold",
        why: "120 Poisson arrivals on one fleet, plan cache off: planner-bound, lp does ~3/4 of the work and the node cap sets the latency tail",
        operation: "admission decision (job submitted and admitted or rejected)",
        latency: "p50 / p91.6 (ten samples beyond it) of the event batches that decide an arrival",
        threads: 1,
    },
    Workload {
        name: "churn_cached",
        why: "the same arrivals with plan_cache on: most admissions become probe + certify (one root LP), so fleet overhead and root-LP cost dominate",
        operation: "admission decision",
        latency: "p50 / p91.6 (ten samples beyond it) of the event batches that decide an arrival",
        threads: 1,
    },
    Workload {
        name: "plan_fig16",
        why: "single-shot Planner::plan on the paper's Figure 16 models, no context reuse: per-node LP cost on the repo's largest models",
        operation: "Planner::plan call",
        latency: "geometric mean over the six models of the plan wall / the slowest model's",
        threads: 1,
    },
    Workload {
        name: "exec_kernel",
        why: "planner-free Engine::run on 50/100/200-node clusters: mapreduce::execution and sim do all the work, lp none",
        operation: "task executed (ops_per_s), Engine::run deployment (latency, attempted)",
        latency: "geometric mean over the three deployments of the Engine::run wall / the slowest deployment's",
        threads: 1,
    },
    Workload {
        name: "churn_durable",
        why: "a plan-cached fleet under the full failure policy with a tailing WAL and a snapshot every 8th arrival, then recovery and restores: core.wal, snapshots and core.policy",
        operation: "admission decision",
        latency: "p50 / highest percentile with ten samples beyond it of the event batches that decide an arrival (retries included)",
        threads: 1,
    },
    Workload {
        name: "churn_sharded",
        why: "the cold arrivals submitted up front to a 2-shard ShardedFleet and drained in parallel: the only shape in which shards hold concurrent admissions",
        operation: "admission decision",
        latency: "wall of the parallel drain, as both: one sample a pass supports no percentile",
        threads: 2,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "fixture generation, spot trace, pool and session open; median of several set-ups",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "wall of one pass over the timed section (a fixed amount of work), every step at the fastest of the run's passes",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "control-plane throughput: operations of one pass per second of wall_s",
    },
    EndToEnd {
        name: "latency_ms_mid",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "decision latency, typical (defined per workload), every sample at the fastest of the run's passes",
    },
    EndToEnd {
        name: "latency_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "decision latency, tail (defined per workload), likewise",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the benchmark process after its last pass",
    },
    EndToEnd {
        name: "deadline_met_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.25,
        what: "operations that met their deadline / operations attempted; a rejected or failed job is a miss",
    },
    EndToEnd {
        name: "usd_per_gb",
        unit: "USD/GB",
        better: Better::Lower,
        bound: 0.10,
        what: "bill (or expected plan cost) per input GB of completed jobs",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Module the metric belongs to.
    pub layer: &'static str,
    /// `Some(true)`: a count that must repeat exactly at one seed.
    /// `Some(false)`: a count that holds wall-clock data and may not.
    /// `None`: a timing or a ratio of timings.
    pub exact: Option<bool>,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn timing(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        layer,
        exact: None,
        moves,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        exact: Some(true),
        moves,
    }
}

const fn inexact_count(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        exact: Some(false),
        ..count(name, unit, Better::Lower, layer, moves)
    }
}

const LP_MOVES: &str = "ops_per_s on churn_cold, latency_ms_* on plan_fig16";
const FLEET_LOOP: &str = "wall_s on churn workloads (event loop ~1.5 %: predicted to move nothing)";
const SNAPSHOT: &str = "wall_s on churn_durable";
const EXEC: &str = "ops_per_s on exec_kernel only";
const SHARDS: &str = "ops_per_s on churn_sharded";
const POLICY: &str = "deadline_met_share on churn_durable";

pub const PER_LAYER: [PerLayer; 75] = [
    // lp
    timing("lp.solve_s", "s", "lp", LP_MOVES),
    count("lp.nodes", "count", Better::Lower, "lp", LP_MOVES),
    count(
        "lp.simplex_iterations",
        "count",
        Better::Lower,
        "lp",
        LP_MOVES,
    ),
    count("lp.factorizations", "count", Better::Lower, "lp", LP_MOVES),
    count(
        "lp.refactorizations",
        "count",
        Better::Lower,
        "lp",
        LP_MOVES,
    ),
    count("lp.ft_updates", "count", Better::Lower, "lp", LP_MOVES),
    count("lp.bound_flips", "count", Better::Lower, "lp", LP_MOVES),
    count(
        "lp.warm_start_rate",
        "share",
        Better::Higher,
        "lp",
        LP_MOVES,
    ),
    timing("lp.us_per_node", "us", "lp", LP_MOVES),
    timing("lp.us_per_iteration", "us", "lp", LP_MOVES),
    count(
        "lp.node_cap_share",
        "share",
        Better::Lower,
        "lp",
        "latency_ms_tail and usd_per_gb on churn_cold",
    ),
    timing(
        "lp.root_lp_ms_p50",
        "ms",
        "lp",
        "latency_ms_mid on churn_cached, latency_ms_mid on plan_fig16 via the small models",
    ),
    // core.model / core.planner
    timing(
        "model.build_s",
        "s",
        "core.model",
        "expected < 1 % everywhere",
    ),
    count(
        "model.vars_max",
        "count",
        Better::Lower,
        "core.model",
        "lp.us_per_iteration",
    ),
    count(
        "model.constraints_max",
        "count",
        Better::Lower,
        "core.model",
        "lp.us_per_iteration",
    ),
    timing(
        "planner.extract_s",
        "s",
        "core.planner",
        "expected < 1 % everywhere",
    ),
    // core.fleet
    timing(
        "fleet.admission_batch_s",
        "s",
        "core.fleet",
        "ops_per_s on churn workloads",
    ),
    count(
        "fleet.admission_batches",
        "count",
        Better::Lower,
        "core.fleet",
        "sample count of latency_ms_*",
    ),
    timing(
        "fleet.admission_overhead_s",
        "s",
        "core.fleet",
        "ops_per_s on churn_cached (~45 %), less on churn_cold (~22 %)",
    ),
    timing(
        "fleet.hit_admission_ms_p50",
        "ms",
        "core.fleet",
        "latency_ms_mid on churn_cached",
    ),
    timing(
        "fleet.miss_admission_ms_p50",
        "ms",
        "core.fleet",
        "latency_ms_mid on churn_cold",
    ),
    count(
        "fleet.plan_cache_hits",
        "count",
        Better::Higher,
        "core.fleet",
        "ops_per_s on churn_cached",
    ),
    count(
        "fleet.plan_cache_misses",
        "count",
        Better::Lower,
        "core.fleet",
        "ops_per_s on churn_cached",
    ),
    count(
        "fleet.plan_cache_hit_rate",
        "share",
        Better::Higher,
        "core.fleet",
        "ops_per_s and (inversely) deadline_met_share on churn_cached",
    ),
    timing("fleet.replan_batch_s", "s", "core.fleet", FLEET_LOOP),
    count(
        "fleet.replans",
        "count",
        Better::Lower,
        "core.fleet",
        FLEET_LOOP,
    ),
    timing("fleet.quiet_batch_s", "s", "core.fleet", FLEET_LOOP),
    count(
        "fleet.quiet_batches",
        "count",
        Better::Lower,
        "core.fleet",
        FLEET_LOOP,
    ),
    timing("fleet.us_per_quiet_batch", "us", "core.fleet", FLEET_LOOP),
    count(
        "fleet.events",
        "count",
        Better::Lower,
        "core.fleet",
        FLEET_LOOP,
    ),
    count(
        "fleet.admitted",
        "count",
        Better::Higher,
        "core.fleet",
        "deadline_met_share on churn workloads",
    ),
    count(
        "fleet.rejected",
        "count",
        Better::Lower,
        "core.fleet",
        "deadline_met_share on churn workloads",
    ),
    timing("fleet.submit_s", "s", "core.fleet", FLEET_LOOP),
    timing("fleet.report_s", "s", "core.fleet", FLEET_LOOP),
    timing("fleet.checkpoint_ms", "ms", "core.fleet", SNAPSHOT),
    timing(
        "fleet.to_json_ms",
        "ms",
        "core.fleet",
        "wall_s on churn_durable (~95 % of a checkpoint)",
    ),
    timing("fleet.from_json_ms", "ms", "core.fleet", SNAPSHOT),
    timing("fleet.restore_ms", "ms", "core.fleet", SNAPSHOT),
    timing(
        "fleet.resume_drain_s",
        "s",
        "core.fleet",
        "wall_s on churn_durable (the middle snapshot drained to quiescence)",
    ),
    timing("fleet.persist_ms_p50", "ms", "core.fleet", SNAPSHOT),
    timing("fleet.resume_ms_p50", "ms", "core.fleet", SNAPSHOT),
    count(
        "fleet.snapshots",
        "count",
        Better::Lower,
        "core.fleet",
        SNAPSHOT,
    ),
    // A snapshot carries its tenants' `PlanningReport`s, whose `solve_time`
    // and `model_build_time` render with a varying number of digits.
    inexact_count(
        "fleet.snapshot_bytes_p50",
        "B",
        "core.fleet",
        "fleet.to_json_ms",
    ),
    inexact_count(
        "fleet.snapshot_bytes_max",
        "B",
        "core.fleet",
        "fleet.to_json_ms",
    ),
    // core.wal
    timing(
        "wal.append_us_per_event",
        "us",
        "core.wal",
        "wall_s on churn_durable (expected < 1 %)",
    ),
    count(
        "wal.bytes_per_event",
        "B",
        Better::Lower,
        "core.wal",
        "wal.append_us_per_event",
    ),
    timing(
        "wal.recover_ms",
        "ms",
        "core.wal",
        "wall_s on churn_durable (expected < 1 %)",
    ),
    count(
        "wal.events",
        "count",
        Better::Lower,
        "core.wal",
        "wal.recover_ms",
    ),
    // core.policy
    count(
        "policy.faults_injected",
        "count",
        Better::Lower,
        "core.policy",
        POLICY,
    ),
    count(
        "policy.retries",
        "count",
        Better::Lower,
        "core.policy",
        POLICY,
    ),
    count(
        "policy.dead_lettered",
        "count",
        Better::Lower,
        "core.policy",
        POLICY,
    ),
    count(
        "policy.admission_pauses",
        "count",
        Better::Lower,
        "core.policy",
        POLICY,
    ),
    count(
        "policy.breaker_open_hours",
        "h",
        Better::Lower,
        "core.policy",
        POLICY,
    ),
    // core.shards
    timing("shards.drain_s", "s", "core.shards", SHARDS),
    timing("shards.submit_us", "us", "core.shards", SHARDS),
    timing("shards.merge_ms", "ms", "core.shards", SHARDS),
    count(
        "shards.imbalance",
        "ratio",
        Better::Lower,
        "core.shards",
        SHARDS,
    ),
    count(
        "shards.threads",
        "count",
        Better::Higher,
        "core.shards",
        SHARDS,
    ),
    PerLayer {
        name: "shards.speedup_vs_cold",
        unit: "ratio",
        better: Better::Higher,
        layer: "core.shards",
        exact: None,
        moves: SHARDS,
    },
    // mapreduce / sim
    timing("mapreduce.new_ms", "ms", "mapreduce", EXEC),
    timing("mapreduce.wakeup_s", "s", "mapreduce", EXEC),
    count(
        "mapreduce.wakeups",
        "count",
        Better::Lower,
        "mapreduce",
        EXEC,
    ),
    timing("mapreduce.us_per_wakeup", "us", "mapreduce", EXEC),
    timing("mapreduce.next_event_s", "s", "mapreduce", EXEC),
    timing("mapreduce.us_per_task.n50", "us", "mapreduce", EXEC),
    timing("mapreduce.us_per_task.n100", "us", "mapreduce", EXEC),
    timing("mapreduce.us_per_task.n200", "us", "mapreduce", EXEC),
    timing("sim.pop_s", "s", "sim", EXEC),
    timing("sim.schedule_s", "s", "sim", EXEC),
    count("sim.events", "count", Better::Lower, "sim", EXEC),
    timing("sim.ns_per_event", "ns", "sim", EXEC),
    // harness
    timing(
        "trace_overhead_ratio",
        "ratio",
        "harness",
        "wall_s of the traced passes / wall_s of the untraced passes of the same run; must stay under 1.05",
    ),
    timing(
        "harness.traced_wall_s",
        "s",
        "harness",
        "raw wall of the fastest traced pass, the base of every per-layer share",
    ),
    count(
        "harness.passes",
        "count",
        Better::Higher,
        "harness",
        "passes the run fitted into --seconds, traced and untraced together",
    ),
    timing(
        "harness.unattributed_s",
        "s",
        "harness",
        "that pass's wall not covered by any span's self time; must stay under 5 %",
    ),
];

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// A per-layer map with every metric present, at zero: a layer the workload
/// does not exercise reports no work.
pub fn zeroed_layers() -> Values {
    PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                valid_name(m.name) && valid_unit(m.unit),
                "metric {}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(
                valid_name(m.name) && valid_unit(m.unit),
                "metric {}",
                m.name
            );
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }
}
