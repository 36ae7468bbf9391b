//! One function per table/figure of the paper's evaluation (§6).
//!
//! Every function is deterministic (fixed seeds) and returns a [`Table`] with
//! the rows/series the corresponding figure plots, so the `figNN_*` binaries
//! and EXPERIMENTS.md all draw from the same code.

use crate::hdfs::{HdfsModel, StoragePath};
use crate::table::Table;
use conductor_cloud::{catalog::mbps_to_gb_per_hour, Catalog, CostCategory, SpotMarket, SpotTrace};
use conductor_core::{
    AdaptiveController, BidPredictor, CircuitBreakerConfig, ConductorService, FailurePolicy,
    FailureThreshold, FaultPlan, FleetConfig, FleetJobRequest, FleetReport, Goal, JobController,
    Planner, ResourcePool, RetryPolicy, ShardedFleet, ShardedFleetConfig, SpotDeploymentSimulator,
};
use conductor_lp::SolveOptions;
use conductor_mapreduce::{
    DataLocation, DeploymentOptions, Engine, ExecutionReport, JobSpec, LocalityScheduler, Workload,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Solver configuration used by the experiments: the fleet's, a 2 % gap, a
/// node cap and a wall-clock cap, so a full experiment sweep stays
/// interactive.
pub fn solver_options() -> SolveOptions {
    FleetConfig::default().solve_options
}

fn uplink_16() -> f64 {
    mbps_to_gb_per_hour(16.0)
}

// ---------------------------------------------------------------------------
// Figure 1: specified vs measured instance performance.
// ---------------------------------------------------------------------------

/// Figure 1: ECU-projected vs measured application throughput per EC2
/// instance type (the motivation for mistrusting provider specifications).
pub fn fig01_ecu_divergence() -> Table {
    let catalog = Catalog::aws_july_2011();
    let reference = catalog.instance("m1.large").unwrap();
    let mut t = Table::new(
        "Figure 1: specified vs measured performance per instance type",
        &[
            "instance",
            "ECU",
            "projected GB/h",
            "measured GB/h",
            "divergence GB/h",
        ],
    );
    for name in ["m1.large", "m1.xlarge", "c1.xlarge"] {
        let i = catalog.instance(name).unwrap();
        let projected = i.projected_throughput_gbph(reference);
        t.push(
            name,
            vec![
                i.ecu,
                projected,
                i.measured_throughput_gbph,
                projected - i.measured_throughput_gbph,
            ],
        );
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 5-7: cloud-only deployments.
// ---------------------------------------------------------------------------

/// The four cloud-only deployments of §6.2, executed on the simulated cluster.
pub fn cloud_only_reports() -> Vec<ExecutionReport> {
    let catalog = Catalog::aws_july_2011();
    let engine = Engine::new(catalog.clone());
    let spec = Workload::KMeans32Gb.spec();
    let uplink = uplink_16();
    let deadline = 6.0;
    let upload_hours = spec.input_gb / uplink;
    let mut reports = Vec::new();

    // Conductor: plan automatically and deploy via the plan-following scheduler.
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let planner = Planner::new(pool).with_solve_options(solver_options());
    let controller =
        JobController::new(catalog.clone(), planner).expect("planner pool matches the catalog");
    let outcome = controller
        .run(
            &spec,
            Goal::MinimizeCost {
                deadline_hours: deadline,
            },
        )
        .expect("conductor cloud-only plan");
    reports.push(ExecutionReport {
        name: "conductor".into(),
        ..outcome.execution
    });

    // Hadoop upload first.
    let upload_first = DeploymentOptions {
        upload_before_processing: true,
        deadline_hours: Some(deadline),
        ..DeploymentOptions::new("hadoop-upload-first", uplink)
            .with_nodes("m1.large", 1, 0.0)
            .with_nodes("m1.large", 100, upload_hours)
    };
    reports.push(
        engine
            .run(&spec, &upload_first, &LocalityScheduler)
            .expect("upload first"),
    );

    // Hadoop direct.
    let direct = DeploymentOptions {
        upload_plan: vec![],
        deadline_hours: Some(deadline),
        ..DeploymentOptions::new("hadoop-direct", uplink).with_nodes("m1.large", 16, 0.0)
    };
    reports.push(
        engine
            .run(&spec, &direct, &LocalityScheduler)
            .expect("direct"),
    );

    // Hadoop S3.
    let s3 = DeploymentOptions {
        upload_plan: vec![(DataLocation::S3, 1.0)],
        upload_before_processing: true,
        deadline_hours: Some(deadline),
        ..DeploymentOptions::new("hadoop-s3", uplink).with_nodes("m1.large", 100, upload_hours)
    };
    reports.push(engine.run(&spec, &s3, &LocalityScheduler).expect("s3"));

    reports
}

/// Figure 5: monetary cost of the cloud-only deployment options, broken down
/// by category.
pub fn fig05_cloud_cost() -> Table {
    let mut t = Table::new(
        "Figure 5: monetary cost for cloud-only deployment options (USD)",
        &[
            "option",
            "network transfer",
            "computation/EC2",
            "storage/S3",
            "total",
        ],
    );
    for report in cloud_only_reports() {
        t.push(
            report.name.clone(),
            vec![
                report.cost_breakdown.get(CostCategory::NetworkTransfer),
                report.cost_breakdown.get(CostCategory::Computation),
                report.cost_breakdown.get(CostCategory::StorageS3),
                report.total_cost,
            ],
        );
    }
    t
}

/// Figure 6: job completion time of the cloud-only deployment options.
pub fn fig06_cloud_runtime() -> Table {
    let mut t = Table::new(
        "Figure 6: job completion time for cloud-only deployment options (seconds)",
        &[
            "option",
            "upload s",
            "process s",
            "total s",
            "met 6h deadline",
        ],
    );
    for report in cloud_only_reports() {
        let upload_s = report.phases.upload_hours * 3600.0;
        let process_s = (report.completion_hours - report.phases.upload_hours).max(0.0) * 3600.0;
        t.push(
            report.name.clone(),
            vec![
                upload_s,
                process_s,
                report.completion_hours * 3600.0,
                if report.met_deadline == Some(true) {
                    1.0
                } else {
                    0.0
                },
            ],
        );
    }
    t
}

/// Figure 7: cost and runtime when deviating from the planned node count
/// (11 / 16 / 21 m1.large nodes, cloud-only).
pub fn fig07_node_sweep() -> Table {
    let catalog = Catalog::aws_july_2011();
    let engine = Engine::new(catalog);
    let spec = Workload::KMeans32Gb.spec();
    let uplink = uplink_16();
    let mut t = Table::new(
        "Figure 7: deviating from the planned node count (cloud-only)",
        &["nodes", "cost USD", "runtime s", "met 6h deadline"],
    );
    for nodes in [11usize, 16, 21] {
        let opts = DeploymentOptions {
            deadline_hours: Some(6.0),
            ..DeploymentOptions::new(format!("{nodes}-nodes"), uplink)
                .with_nodes("m1.large", nodes, 0.0)
        };
        let report = engine
            .run(&spec, &opts, &LocalityScheduler)
            .expect("node sweep run");
        t.push(
            format!("{nodes} nodes"),
            vec![
                report.total_cost,
                report.completion_hours * 3600.0,
                if report.met_deadline == Some(true) {
                    1.0
                } else {
                    0.0
                },
            ],
        );
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 8-9: storage-mix sweeps.
// ---------------------------------------------------------------------------

/// Figure 8: total job cost as a function of the fraction of the 32 GB input
/// stored on EC2 disks (the rest goes to S3). 8 Mbit/s uplink, fast-scan
/// workload (6.2 GB/h per node).
pub fn fig08_storage_mix() -> Table {
    let catalog = Catalog {
        uplink_mbps: 8.0,
        ..Catalog::aws_july_2011()
    };
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let planner = Planner::new(pool).with_solve_options(solver_options());
    let spec = Workload::KMeansFastScan32Gb.spec();
    let deadline = 12.0; // the upload alone takes ~9.5 h at 8 Mbit/s
    let mut t = Table::new(
        "Figure 8: total job cost vs fraction of 32 GB stored on EC2 (USD)",
        &["fraction on EC2", "cost USD"],
    );
    for i in 0..=10 {
        let fraction = i as f64 / 10.0;
        let cost = planner
            .cost_with_storage_fraction(&spec, deadline, "EC2-disk", fraction)
            .expect("storage mix point");
        t.push(format!("{fraction:.1}"), vec![cost]);
    }
    t
}

/// Figure 9: the same sweep computed analytically for larger inputs
/// (64/128/256 GB) with S3 storage priced ten times higher.
pub fn fig09_storage_mix_scaled() -> Table {
    let mut catalog = Catalog {
        uplink_mbps: 8.0,
        ..Catalog::aws_july_2011()
    };
    for s in &mut catalog.storages {
        if s.name == "S3" {
            s.cost_per_gb_hour *= 10.0;
        }
    }
    let mut t = Table::new(
        "Figure 9: cost vs fraction stored on EC2, larger inputs, 10x S3 price (USD)",
        &["fraction on EC2", "64 GB", "128 GB", "256 GB"],
    );
    let fractions: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); fractions.len()];
    for input_gb in [64u32, 128, 256] {
        let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
        let mut planner = Planner::new(pool).with_solve_options(solver_options());
        // Coarser intervals keep the model size manageable for long uploads.
        planner.interval_hours = 4.0;
        let spec = Workload::KMeansScaled { input_gb }.spec();
        let spec = JobSpec {
            reference_throughput_gbph: 6.2,
            ..spec
        };
        let upload_hours = spec.input_gb / mbps_to_gb_per_hour(8.0);
        let deadline = (upload_hours * 1.3).ceil().max(12.0);
        for (fi, fraction) in fractions.iter().enumerate() {
            let cost = planner
                .cost_with_storage_fraction(&spec, deadline, "EC2-disk", *fraction)
                .expect("scaled storage mix point");
            columns[fi].push(cost);
        }
    }
    for (fi, fraction) in fractions.iter().enumerate() {
        t.push(format!("{fraction:.1}"), columns[fi].clone());
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 10-11: hybrid deployments.
// ---------------------------------------------------------------------------

/// Figure 10: hybrid deployment (5 free local nodes + EC2, 4 h deadline),
/// Conductor vs a manually configured Hadoop/HDFS deployment with the same
/// number of EC2 instances.
pub fn fig10_hybrid() -> Table {
    let catalog = Catalog::aws_with_local_cluster(5);
    let spec = Workload::KMeans32Gb.spec();
    let uplink = uplink_16();
    let deadline = 4.0;

    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large", "local"]);
    let planner = Planner::new(pool).with_solve_options(solver_options());
    let controller =
        JobController::new(catalog.clone(), planner).expect("planner pool matches the catalog");
    let outcome = controller
        .run(
            &spec,
            Goal::MinimizeCost {
                deadline_hours: deadline,
            },
        )
        .expect("hybrid plan");
    let conductor_nodes = outcome.plan.peak_nodes("m1.large").max(1);

    // Hadoop baseline: the user guessed the same EC2 node count, HDFS across
    // the joint cluster, locality scheduling.
    let engine = Engine::new(catalog);
    let hadoop = DeploymentOptions {
        deadline_hours: Some(deadline),
        ..DeploymentOptions::new("hadoop-hdfs", uplink)
            .with_nodes("m1.large", conductor_nodes, 0.0)
            .with_nodes("local", 5, 0.0)
    };
    let hadoop_report = engine
        .run(&spec, &hadoop, &LocalityScheduler)
        .expect("hybrid hadoop");

    let mut t = Table::new(
        "Figure 10: hybrid deployment, Conductor vs Hadoop (same EC2 node count)",
        &[
            "system",
            "cost USD",
            "upload+process time s",
            "met 4h deadline",
        ],
    );
    for report in [&outcome.execution, &hadoop_report] {
        t.push(
            if report.name == "conductor" {
                "conductor"
            } else {
                "hadoop"
            },
            vec![
                report.total_cost,
                report.completion_hours * 3600.0,
                if report.met_deadline == Some(true) {
                    1.0
                } else {
                    0.0
                },
            ],
        );
    }
    t
}

/// Figure 11: cost and runtime when the user over-/under-estimates the number
/// of EC2 instances in the hybrid scenario (11 / 16 / 21 nodes).
pub fn fig11_hybrid_sweep() -> Table {
    let catalog = Catalog::aws_with_local_cluster(5);
    let engine = Engine::new(catalog);
    let spec = Workload::KMeans32Gb.spec();
    let uplink = uplink_16();
    let mut t = Table::new(
        "Figure 11: deviating from the optimal EC2 node count (hybrid)",
        &["nodes", "cost USD", "runtime s", "met 4h deadline"],
    );
    for nodes in [11usize, 16, 21] {
        let opts = DeploymentOptions {
            deadline_hours: Some(4.0),
            ..DeploymentOptions::new(format!("{nodes}-nodes"), uplink)
                .with_nodes("m1.large", nodes, 0.0)
                .with_nodes("local", 5, 0.0)
        };
        let report = engine
            .run(&spec, &opts, &LocalityScheduler)
            .expect("hybrid sweep run");
        t.push(
            format!("{nodes} EC2 nodes"),
            vec![
                report.total_cost,
                report.completion_hours * 3600.0,
                if report.met_deadline == Some(true) {
                    1.0
                } else {
                    0.0
                },
            ],
        );
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 12: adaptation to mispredicted performance.
// ---------------------------------------------------------------------------

/// Figure 12: node allocation and job progress when the model mispredicts
/// per-node throughput (1.44 GB/h predicted vs 0.44 GB/h actual) and the
/// fleet's hourly monitor re-plans the job once it measures the shortfall.
pub fn fig12_adaptation() -> (Table, Table) {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&["m1.large"]);
    let controller = AdaptiveController::new(catalog, pool).with_solve_options(solver_options());
    let report = controller
        .run_with_misprediction(
            &Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 7.0,
            },
            1.44,
            0.44,
        )
        .expect("adaptation run");

    // 12a: allocated instances per hour, initial plan vs what the monitored
    // run actually fielded (sampled mid-hour).
    let mut alloc = Table::new(
        "Figure 12a: allocated EC2 instances over time (initial plan vs deployed)",
        &["hour", "initial plan", "deployed"],
    );
    let horizon = report
        .initial_plan
        .len()
        .max(report.execution.completion_hours.ceil() as usize);
    for hour in 0..horizon {
        let initial = report
            .initial_plan
            .intervals
            .get(hour)
            .map(|p| p.nodes.values().sum::<usize>())
            .unwrap_or(0);
        // The timeline records changes while the job runs; nothing is
        // fielded once it has completed.
        let mid_hour = hour as f64 + 0.5;
        let deployed = (report.execution.allocation_timeline.iter())
            .take_while(|&&(at, _)| at <= mid_hour)
            .last()
            .filter(|_| mid_hour < report.execution.completion_hours)
            .map_or(0, |&(_, nodes)| nodes);
        alloc.push(format!("{hour}"), vec![initial as f64, deployed as f64]);
    }

    // 12b: completed tasks over time with and without adaptation.
    let mut progress = Table::new(
        "Figure 12b: completed tasks over time (total tasks, with vs without adaptation)",
        &["hour", "with adaptation", "without adaptation"],
    );
    let sample = |timeline: &[(f64, usize)], hour: f64| -> usize {
        timeline
            .iter()
            .filter(|(t, _)| *t <= hour)
            .map(|(_, c)| *c)
            .max()
            .unwrap_or(0)
    };
    let end = report
        .without_adaptation
        .completion_hours
        .max(report.execution.completion_hours)
        .ceil() as usize;
    for hour in 0..=end {
        progress.push(
            format!("{hour}"),
            vec![
                sample(&report.execution.task_timeline, hour as f64) as f64,
                sample(&report.without_adaptation.task_timeline, hour as f64) as f64,
            ],
        );
    }
    (alloc, progress)
}

// ---------------------------------------------------------------------------
// Figures 13-14: spot markets.
// ---------------------------------------------------------------------------

/// Figure 13: summary statistics of the two spot-price traces (the paper
/// plots the raw histories; we report the features that matter — level,
/// range, and the presence/absence of diurnal structure).
pub fn fig13_spot_traces() -> Table {
    let hours = 24 * 35;
    let mut t = Table::new(
        "Figure 13: spot price traces (m1.large)",
        &[
            "trace",
            "mean $/h",
            "min $/h",
            "max $/h",
            "diurnal correlation",
        ],
    );
    for (label, trace) in [
        ("electricity-like", SpotTrace::electricity_like(42, hours)),
        ("aws-like", SpotTrace::aws_like(42, hours)),
    ] {
        let prices = trace.prices();
        let mean = prices.iter().sum::<f64>() / prices.len() as f64;
        let min = prices.iter().copied().fold(f64::INFINITY, f64::min);
        let max = prices.iter().copied().fold(0.0f64, f64::max);
        t.push(label, vec![mean, min, max, diurnal_correlation(&trace)]);
    }
    t
}

fn diurnal_correlation(trace: &SpotTrace) -> f64 {
    let n = trace.len() as f64;
    let mean = trace.prices().iter().sum::<f64>() / n;
    let (mut num, mut den_p, mut den_s) = (0.0, 0.0, 0.0);
    for (i, &p) in trace.prices().iter().enumerate() {
        let phase = (i % 24) as f64 / 24.0 * std::f64::consts::TAU;
        let s = (phase - std::f64::consts::FRAC_PI_2).sin();
        num += (p - mean) * s;
        den_p += (p - mean).powi(2);
        den_s += s * s;
    }
    (num / (den_p.sqrt() * den_s.sqrt())).abs()
}

/// Figure 14: average/maximum job cost and its standard deviation for regular
/// instances vs spot deployments with the -opt/-p0/-p5/-p13 predictors on
/// both traces.
pub fn fig14_spot_savings() -> Table {
    let hours = 24 * 35;
    let starts: Vec<usize> = (0..24 * 28).step_by(5).collect();
    let mut t = Table::new(
        "Figure 14: job cost with spot instances (USD)",
        &["scenario", "average cost", "maximum cost", "std dev"],
    );
    // Regular instances cost the same regardless of the trace.
    let regular_market = SpotMarket::new(SpotTrace::aws_like(42, hours), 0.34);
    let regular_sim = SpotDeploymentSimulator::new(regular_market, 80, 16, 12);
    let regular = regular_sim.run_scenario("regular", BidPredictor::Regular, &starts);
    t.push(
        "regular",
        vec![regular.average_cost, regular.max_cost, regular.std_dev],
    );

    for (prefix, trace) in [
        ("aws", SpotTrace::aws_like(42, hours)),
        ("el", SpotTrace::electricity_like(42, hours)),
    ] {
        let market = SpotMarket::new(trace, 0.34);
        let sim = SpotDeploymentSimulator::new(market, 80, 16, 12);
        for predictor in [
            BidPredictor::Optimal,
            BidPredictor::Current,
            BidPredictor::MaxOfPastDays { days: 5 },
            BidPredictor::MaxOfPastDays { days: 13 },
        ] {
            let label = format!("{prefix}-{}", predictor.label());
            let r = sim.run_scenario(&label, predictor, &starts);
            t.push(label, vec![r.average_cost, r.max_cost, r.std_dev]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 15: storage layer throughput.
// ---------------------------------------------------------------------------

/// Throughput of the direct HDFS-like pipeline under Conductor's layer, MB/s.
const LAYER_BASELINE_MBPS: f64 = 21.0;
/// Fractional overhead of the abstraction layer (the paper's ~25 %).
const LAYER_OVERHEAD: f64 = 0.25;
/// Per-block namenode lookup latency, ms.
const NAMENODE_LOOKUP_MS: f64 = 2.0;
/// Share of reads served by the co-located fast path, which skips the lookup.
const LOCAL_HIT_RATE: f64 = 0.8;

/// Sustained throughput of Conductor's storage layer (§5.1) for blocks of
/// `block_mb` MB, in MB/s. The paper attributes its ~25 % gap to HDFS to the
/// abstraction layer (namenode lookups, key-value chunking, backend
/// indirection), not to the services beneath it.
fn conductor_layer_mbps(block_mb: f64) -> f64 {
    let effective = LAYER_BASELINE_MBPS * (1.0 - LAYER_OVERHEAD);
    let lookups_per_block = 1.0 - LOCAL_HIT_RATE;
    let lookup_s = lookups_per_block * NAMENODE_LOOKUP_MS / 1000.0;
    let transfer_s = block_mb / effective;
    block_mb / (transfer_s + lookup_s)
}

/// Figure 15: sustained throughput of the storage options when copying 32 GB
/// of 64 MB files (Conductor's layer, HDFS, S3 via Hadoop, S3 via s3cmd).
pub fn fig15_storage_throughput() -> Table {
    let hdfs = HdfsModel::default();
    let mut t = Table::new(
        "Figure 15: storage layer throughput, 32 GB in 64 MB files (MB/s)",
        &["storage option", "throughput MB/s", "copy time s"],
    );
    let block = 64.0;
    let rows: Vec<(&str, f64)> = vec![
        ("conductor", conductor_layer_mbps(block)),
        ("hdfs", hdfs.write_throughput_mbps(StoragePath::Hdfs, block)),
        (
            "s3-via-hadoop",
            hdfs.write_throughput_mbps(StoragePath::S3ViaHadoop, block),
        ),
        (
            "s3-via-s3cmd",
            hdfs.write_throughput_mbps(StoragePath::S3ViaS3cmd, block),
        ),
    ];
    for (label, mbps) in rows {
        t.push(label, vec![mbps, 32.0 * 1024.0 / mbps]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 16: model generation and solving overhead.
// ---------------------------------------------------------------------------

/// Figure 16: model solving time for different input sizes and resource sets
/// (EC2-only, S3+EC2, EC2+S3+local).
pub fn fig16_solve_time() -> Table {
    let mut t = Table::new(
        "Figure 16: model solve time vs input size and available resources",
        &[
            "input GB",
            "EC2 only s",
            "S3+EC2 s",
            "EC2+S3+local s",
            "model vars (largest)",
        ],
    );
    let uplink = uplink_16();
    for input_gb in [32u32, 64, 128, 256] {
        // The paper's k-means workload (0.44 GB/h per node): the planner now
        // honors the spec's measured throughput, and fig16 measures the
        // node-heavy k-means models, not the fast-scan variant.
        let spec = Workload::KMeansScaled { input_gb }.spec();
        let upload_hours = spec.input_gb / uplink;
        let deadline = (upload_hours * 1.3).ceil().max(6.0);
        let mut row = Vec::new();
        let mut largest_vars = 0usize;
        for config in ["ec2-only", "s3+ec2", "ec2+s3+local"] {
            let (catalog, computes): (Catalog, Vec<&str>) = match config {
                "ec2-only" => (Catalog::aws_july_2011(), vec!["m1.large"]),
                "s3+ec2" => (Catalog::aws_july_2011(), vec!["m1.large"]),
                _ => (
                    Catalog::aws_with_local_cluster(5),
                    vec!["m1.large", "local"],
                ),
            };
            let mut pool = ResourcePool::from_catalog(&catalog, 1.0).with_compute_only(&computes);
            if config == "ec2-only" {
                pool = pool.with_storage_only(&["EC2-disk"]);
            }
            let mut planner = Planner::new(pool).with_solve_options(SolveOptions {
                time_limit: Duration::from_secs(20),
                ..Default::default()
            });
            // Coarser intervals for very long horizons keep the comparison fair
            // while preserving the "bigger input -> bigger model" relationship.
            planner.interval_hours = if input_gb > 64 { 2.0 } else { 1.0 };
            let (_, report) = planner
                .plan(
                    &spec,
                    Goal::MinimizeCost {
                        deadline_hours: deadline,
                    },
                )
                .expect("fig16 planning");
            row.push(report.solve_time.as_secs_f64());
            largest_vars = largest_vars.max(report.model_vars);
        }
        row.push(largest_vars as f64);
        t.push(format!("{input_gb}"), row);
    }
    t
}

// ---------------------------------------------------------------------------
// Fleet: multi-job contention on the shared event kernel (beyond the paper).
// ---------------------------------------------------------------------------

/// The standard multi-job contention scenario: four tenants with mixed
/// deadlines arriving half-hourly, one shared electricity-like spot trace,
/// and a fleet-wide cap of 90 m1.large nodes. Shared by the
/// `fleet_contention` binary and the integration tests, so every consumer
/// runs the same fleet.
pub fn fleet_contention_requests() -> Vec<FleetJobRequest> {
    vec![
        FleetJobRequest::new(
            "tenant-a",
            Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 6.0,
            },
            0.0,
        ),
        FleetJobRequest::new(
            "tenant-b",
            Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 7.0,
            },
            0.5,
        ),
        FleetJobRequest::new(
            "tenant-c",
            Workload::KMeansFastScan32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 6.0,
            },
            1.0,
        ),
        FleetJobRequest::new(
            "tenant-d",
            Workload::KMeans32Gb.spec(),
            Goal::MinimizeCost {
                deadline_hours: 8.0,
            },
            1.5,
        ),
    ]
}

/// The service for [`fleet_contention_requests`]: fleet cap 90, shared
/// spot market seeded with `seed`.
pub fn fleet_contention_service(seed: u64) -> ConductorService {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0)
        .with_compute_only(&["m1.large"])
        .with_compute_cap("m1.large", 90);
    ConductorService::new(catalog, pool)
        .with_solve_options(solver_options())
        .with_spot_market(SpotMarket::new(
            SpotTrace::electricity_like(seed, 24 * 10),
            0.34,
        ))
}

/// Fleet contention table: per-tenant admission, peak allocation, bill and
/// deadline verdict when four jobs share one capacity pool and spot market.
pub fn fleet_contention() -> Table {
    let report = fleet_contention_service(17)
        .run(&fleet_contention_requests())
        .expect("fleet run");
    let mut t = Table::new(
        "Fleet: four tenants sharing one spot market and a 90-node cap",
        &[
            "arrival h",
            "peak nodes",
            "completion h",
            "bill USD",
            "met deadline",
        ],
    );
    for tenant in &report.tenants {
        let peak = tenant
            .plan
            .as_ref()
            .map(|p| p.peak_nodes("m1.large"))
            .unwrap_or(0);
        let (completion, bill, met) = match &tenant.execution {
            Some(exec) => (
                exec.completion_hours,
                exec.total_cost,
                if exec.met_deadline == Some(true) {
                    1.0
                } else {
                    0.0
                },
            ),
            None => (f64::NAN, 0.0, 0.0),
        };
        t.push(
            &tenant.tenant,
            vec![tenant.arrival_hours, peak as f64, completion, bill, met],
        );
    }
    t.push(
        "fleet",
        vec![
            0.0,
            0.0,
            report.makespan_hours,
            report.fleet_cost,
            report.deadlines_met as f64,
        ],
    );
    t
}

// ---------------------------------------------------------------------------
// Fleet churn: Poisson arrivals over simulated weeks (beyond the paper).
// ---------------------------------------------------------------------------

/// Deterministic Poisson churn workload: `jobs` arrivals whose inter-arrival
/// gaps are exponential with mean `mean_gap_hours` (a seeded Poisson
/// process), mixed input sizes (8 / 16 / 32 GB, weighted toward the small
/// end like real fleets) and per-size deadline slack. Everything derives
/// from `seed`, so the same call always produces the identical fleet.
pub fn churn_requests(seed: u64, jobs: usize, mean_gap_hours: f64) -> Vec<FleetJobRequest> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let mut requests = Vec::with_capacity(jobs);
    for i in 0..jobs {
        // Exponential gap via inverse transform; `1 - u` keeps ln finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -mean_gap_hours * (1.0 - u).ln();
        let (spec, lo, hi) = match rng.gen_range(0u32..10) {
            0..=4 => (Workload::KMeansScaled { input_gb: 8 }.spec(), 4.0, 6.0),
            5..=7 => (Workload::KMeansScaled { input_gb: 16 }.spec(), 5.0, 8.0),
            _ => (Workload::KMeans32Gb.spec(), 6.0, 9.0),
        };
        let deadline = rng.gen_range(lo..hi);
        requests.push(FleetJobRequest::new(
            format!("tenant-{i:03}"),
            spec,
            Goal::MinimizeCost {
                deadline_hours: deadline,
            },
            at,
        ));
    }
    requests
}

/// The service the churn scenarios run on: fleet-capped m1.large pool, an
/// AWS-like spot trace of `trace_hours` hours, and a fleet bid of 0.30 —
/// below the 0.34 on-demand ceiling, so the trace's spike hours (which the
/// electricity trace never has) become genuine revocation storms: every
/// session is terminated at the out-bid hour and new requests are refused
/// until the price comes back down. The admission planner sees the same
/// trace only as prices capped at on-demand, so a storm is a real
/// mid-flight surprise the monitor has to rescue.
pub fn churn_service(seed: u64, cap: usize, trace_hours: usize) -> ConductorService {
    let catalog = Catalog::aws_july_2011();
    let pool = ResourcePool::from_catalog(&catalog, 1.0)
        .with_compute_only(&["m1.large"])
        .with_compute_cap("m1.large", cap);
    ConductorService::new(catalog, pool)
        .with_solve_options(solver_options())
        .with_spot_market(SpotMarket::new(
            SpotTrace::aws_like(seed, trace_hours),
            0.34,
        ))
        .with_spot_bid(0.30)
}

/// The canonical churn scenario: `jobs` arrivals from one shared seed, the
/// storm-bearing service from [`churn_service`] with a 150-node cap, and a
/// trace long enough to outlive the last tenant. One definition, so the
/// `fleet_churn` table and every integration test that pins churn
/// behaviour run the *same* fleet and cannot drift apart.
pub fn churn_fixture(jobs: usize, mean_gap_hours: f64) -> (Vec<FleetJobRequest>, ConductorService) {
    let requests = churn_requests(20_260_729, jobs, mean_gap_hours);
    let horizon = requests.last().map(|r| r.arrival_hours).unwrap_or(0.0) + 200.0;
    let service = churn_service(17, 150, horizon.ceil() as usize);
    (requests, service)
}

/// The failure policy the faulted churn scenarios run under: a seeded
/// fault plan scaled to the fleet size (one task failure per ~10 jobs,
/// one node crash per ~16), the default retry ladder (2 retries, 0.5 h
/// base backoff doubling per attempt), the default admission gate, and
/// the spot circuit breaker with on-demand fallback. Everything derives
/// from `seed` and the workload shape, so the same call always produces
/// the identical policy.
pub fn churn_policy(seed: u64, jobs: usize, horizon_hours: f64) -> FailurePolicy {
    FailurePolicy {
        fault_plan: Some(FaultPlan::seeded(
            seed,
            horizon_hours,
            (jobs / 10).max(1),
            (jobs / 16).max(1),
        )),
        retry: Some(RetryPolicy::default()),
        failure_threshold: Some(FailureThreshold::default()),
        circuit_breaker: Some(CircuitBreakerConfig::default()),
    }
}

/// The canonical *faulted* churn scenario: the same requests and
/// storm-bearing service as [`churn_fixture`], plus the full
/// [`churn_policy`] failure policy — injected task failures and node
/// crashes on top of the trace's revocation storms, with retry/backoff,
/// the dead-letter queue, the admission gate and the spot circuit
/// breaker all armed.
pub fn faulted_churn_fixture(
    jobs: usize,
    mean_gap_hours: f64,
) -> (Vec<FleetJobRequest>, ConductorService) {
    let (requests, service) = churn_fixture(jobs, mean_gap_hours);
    let horizon = requests.last().map(|r| r.arrival_hours).unwrap_or(0.0) + 24.0;
    let policy = churn_policy(20_260_808, jobs, horizon);
    let service = service.with_failure_policy(policy);
    (requests, service)
}

/// Drives `requests` through the incremental `Fleet` session API as a real
/// open-world client: the clock is stepped to each arrival hour and the
/// job submitted *then* — online, not pre-listed. The batch
/// `ConductorService::run` path is pinned bitwise-identical to this
/// driver by `tests/fleet_api.rs`.
pub fn run_fleet_online(service: &ConductorService, requests: &[FleetJobRequest]) -> FleetReport {
    // Out-of-order arrivals would be silently clamped forward by the
    // mid-run submit (changing the fleet vs the batch path); this driver
    // exists to prove batch/incremental equivalence, so demand the order.
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_hours <= w[1].arrival_hours),
        "run_fleet_online requires requests sorted by arrival_hours"
    );
    run_fleet_session(service, requests).report()
}

/// [`run_fleet_online`], but returning the quiescent `Fleet` session
/// itself rather than just its report — so callers can inspect the full
/// event log (e.g. to feed `Fleet::replay`) or checkpoint the session.
pub fn run_fleet_session(
    service: &ConductorService,
    requests: &[FleetJobRequest],
) -> conductor_core::Fleet {
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_hours <= w[1].arrival_hours),
        "run_fleet_session requires requests sorted by arrival_hours"
    );
    let mut fleet = service.open().expect("fleet config is valid");
    for request in requests {
        fleet.step_until(request.arrival_hours);
        fleet
            .submit(request.clone())
            .expect("fixture requests are valid");
    }
    fleet.run_to_quiescence();
    fleet
}

/// [`run_fleet_session`] over a [`ShardedFleet`]: the same online driver
/// (step to each arrival, submit, drain) against `shards` partitions of
/// the service's pool, with the queue-rebalancer at `rebalance_period`
/// (or off when `None`). Shared by the sharded determinism and pin tests
/// so they all drive the identical fleet.
pub fn run_sharded_session(
    service: &ConductorService,
    shards: usize,
    rebalance_period: Option<f64>,
    requests: &[FleetJobRequest],
) -> ShardedFleet {
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_hours <= w[1].arrival_hours),
        "run_sharded_session requires requests sorted by arrival_hours"
    );
    let mut fleet = service
        .open_sharded(ShardedFleetConfig {
            shards,
            rebalance_period_hours: rebalance_period,
        })
        .expect("sharded fleet config is valid");
    for request in requests {
        fleet.step_until(request.arrival_hours);
        fleet
            .submit(request.clone())
            .expect("fixture requests are valid");
    }
    fleet.run_to_quiescence();
    fleet
}

/// Fleet churn summary table: `jobs` Poisson arrivals (mean gap
/// `mean_gap_hours`) on the canonical [`churn_fixture`] fleet, driven
/// through the incremental session API ([`run_fleet_online`] — arrivals
/// submitted as the clock reaches them). One row per outcome class plus
/// the fleet roll-up.
pub fn fleet_churn(jobs: usize, mean_gap_hours: f64) -> Table {
    let (requests, service) = churn_fixture(jobs, mean_gap_hours);
    let report = run_fleet_online(&service, &requests);
    let revocation_events: usize = report
        .tenants
        .iter()
        .map(|t| t.revoked_at_hours.len())
        .sum();
    let replans: usize = report
        .tenants
        .iter()
        .map(|t| t.replanned_at_hours.len())
        .sum();
    let mut t = Table::new(
        "Fleet churn: Poisson arrivals under a shared cap and a stormy spot trace",
        &["value"],
    );
    t.push("arrivals", vec![jobs as f64]);
    t.push("admitted", vec![report.jobs_admitted as f64]);
    t.push("completed", vec![report.jobs_completed as f64]);
    t.push("deadlines met", vec![report.deadlines_met as f64]);
    t.push("revocation hits", vec![revocation_events as f64]);
    t.push("monitor re-plans", vec![replans as f64]);
    t.push("retries", vec![report.retries as f64]);
    t.push("dead-lettered", vec![report.dead_lettered as f64]);
    t.push("breaker open h", vec![report.breaker_open_hours]);
    t.push("fleet cost USD", vec![report.fleet_cost]);
    t.push("makespan h", vec![report.makespan_hours]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // Cheap experiments are exercised directly; the expensive planning-based
    // ones are covered by the integration tests and the figNN binaries.

    #[test]
    fn churn_requests_are_deterministic_and_poisson_shaped() {
        let a = churn_requests(7, 64, 1.0);
        let b = churn_requests(7, 64, 1.0);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.arrival_hours.to_bits(), y.arrival_hours.to_bits());
            assert_eq!(x.spec.input_gb, y.spec.input_gb);
        }
        // Arrivals are strictly increasing and average out near the mean gap.
        for w in a.windows(2) {
            assert!(w[1].arrival_hours > w[0].arrival_hours);
        }
        let mean_gap = a.last().unwrap().arrival_hours / (a.len() - 1) as f64;
        assert!(
            (0.5..2.0).contains(&mean_gap),
            "mean inter-arrival {mean_gap}"
        );
        // The size mix really is mixed.
        let sizes: std::collections::BTreeSet<u64> =
            a.iter().map(|r| r.spec.input_gb as u64).collect();
        assert!(sizes.len() >= 2, "sizes {sizes:?}");
        // A different seed moves the arrivals.
        let c = churn_requests(8, 64, 1.0);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.arrival_hours != y.arrival_hours));
    }

    #[test]
    fn fig01_divergence_grows_with_instance_size() {
        let t = fig01_ecu_divergence();
        let gap_xlarge = t.value("m1.xlarge", 3).unwrap();
        let gap_c1 = t.value("c1.xlarge", 3).unwrap();
        assert!(gap_xlarge > 0.0);
        assert!(gap_c1 > gap_xlarge);
    }

    #[test]
    fn fig07_shape_matches_paper() {
        let t = fig07_node_sweep();
        // 11 nodes miss the deadline; 21 nodes cost more than 16.
        assert_eq!(t.value("11 nodes", 2), Some(0.0));
        assert_eq!(t.value("16 nodes", 2), Some(1.0));
        assert!(t.value("21 nodes", 0).unwrap() > t.value("16 nodes", 0).unwrap());
    }

    #[test]
    fn fig13_traces_differ_in_diurnal_structure() {
        let t = fig13_spot_traces();
        assert!(t.value("electricity-like", 3).unwrap() > 0.5);
        assert!(t.value("aws-like", 3).unwrap() < 0.2);
    }

    #[test]
    fn fig14_spot_beats_regular() {
        let t = fig14_spot_savings();
        let regular = t.value("regular", 0).unwrap();
        for scenario in ["aws-p0", "el-p0", "aws-opt", "el-opt"] {
            assert!(
                t.value(scenario, 0).unwrap() < 0.7 * regular,
                "{scenario} not cheaper than regular"
            );
        }
    }

    #[test]
    fn fig15_ordering_matches_paper() {
        let t = fig15_storage_throughput();
        let hdfs = t.value("hdfs", 0).unwrap();
        let conductor = t.value("conductor", 0).unwrap();
        let s3cmd = t.value("s3-via-s3cmd", 0).unwrap();
        let s3hadoop = t.value("s3-via-hadoop", 0).unwrap();
        assert!(hdfs > conductor);
        assert!(
            conductor > 0.7 * hdfs,
            "overhead should be ~25%, got {conductor} vs {hdfs}"
        );
        assert!(s3cmd > s3hadoop);
    }

    #[test]
    fn overhead_is_roughly_a_quarter_for_64mb_blocks() {
        let t = conductor_layer_mbps(64.0);
        let overhead = 1.0 - t / LAYER_BASELINE_MBPS;
        assert!(overhead > 0.2 && overhead < 0.3, "overhead {overhead}");
        // Throughput lands in the band the paper plots (~15-16 MB/s).
        assert!(t > 14.0 && t < 17.0, "throughput {t}");
    }

    #[test]
    fn small_blocks_pay_more_for_namenode_lookups() {
        assert!(conductor_layer_mbps(1.0) < conductor_layer_mbps(64.0));
        let overhead = |block_mb| 1.0 - conductor_layer_mbps(block_mb) / LAYER_BASELINE_MBPS;
        assert!(overhead(1.0) > overhead(64.0));
    }

    #[test]
    fn copy_time_for_32gb_is_about_35_minutes() {
        // 32 GB at ~15.7 MB/s ≈ 2,100 s, the scale of the paper's measurement.
        let t = fig15_storage_throughput().value("conductor", 1).unwrap();
        assert!(t > 1800.0 && t < 2400.0, "copy time {t}");
        assert_eq!(32.0 * 1024.0 / conductor_layer_mbps(0.0), f64::INFINITY);
    }
}
