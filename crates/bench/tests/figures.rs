//! Integration tests over the experiment harness: the regenerated figures
//! must show the same qualitative shape the paper reports.

use conductor_bench::{experiments, solver_bench};

/// §6.2 (Figures 5/6): Conductor's cost is close to the cheapest manual
/// alternative, and the Hadoop-S3 option costs roughly twice as much.
#[test]
fn conductor_is_near_cheapest_and_s3_is_roughly_double() {
    let reports = experiments::cloud_only_reports();
    let get = |name: &str| reports.iter().find(|r| r.name == name).unwrap();
    let conductor = get("conductor");
    let cheapest_manual = reports
        .iter()
        .filter(|r| r.name != "conductor")
        .map(|r| r.total_cost)
        .fold(f64::INFINITY, f64::min);
    assert!(
        conductor.total_cost <= cheapest_manual * 1.15,
        "conductor {} vs cheapest manual {}",
        conductor.total_cost,
        cheapest_manual
    );
    let s3 = get("hadoop-s3");
    assert!(
        s3.total_cost > 1.6 * conductor.total_cost,
        "hadoop-s3 {} vs conductor {}",
        s3.total_cost,
        conductor.total_cost
    );
    // Every option that meets the deadline stays within 6 hours.
    assert_eq!(conductor.met_deadline, Some(true));
}

/// Figure 8: the storage-mix sweep reproduces the paper's curve — cost
/// falls from all-S3 to an interior optimum and then rises steeply, with
/// **all-EC2 the most expensive mix**. The endpoint ordering comes from two
/// model-fidelity fixes: the planner honors the workload's measured
/// throughput (the fast-scan job no longer pays k-means compute prices that
/// drowned the storage effect), and instance-disk residency is charged its
/// replicated share of the hosting instances (idle holding is never free).
#[test]
fn fig08_storage_mix_curve_matches_paper_ordering() {
    let t = experiments::fig08_storage_mix();
    let costs: Vec<f64> = (0..=10)
        .map(|i| t.value(&format!("{:.1}", i as f64 / 10.0), 0).unwrap())
        .collect();
    let all_s3 = costs[0];
    let all_ec2 = costs[10];
    let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = costs.iter().copied().fold(0.0f64, f64::max);
    assert!(
        costs.iter().all(|&c| c > 0.0),
        "non-positive cost in sweep: {costs:?}"
    );
    // The unconstrained-optimal interior is never worse than a forced endpoint.
    assert!(min <= all_s3 + 1e-9 && min <= all_ec2 + 1e-9);
    // The paper's headline ordering: all-EC2 is the most expensive point of
    // the whole sweep, clearly above all-S3 (not within solver-gap noise).
    assert!(
        (all_ec2 - max).abs() < 1e-9,
        "all-EC2 ({all_ec2}) is not the maximum of the sweep: {costs:?}"
    );
    assert!(
        all_ec2 > 1.1 * all_s3,
        "all-EC2 ({all_ec2}) should be decisively above all-S3 ({all_s3}): {costs:?}"
    );
    // And the interior minimum genuinely beats the all-S3 endpoint (the
    // mixed-storage win the paper demonstrates).
    assert!(
        min < all_s3 - 1e-9,
        "no interior improvement over all-S3: {costs:?}"
    );
}

/// Figure 16 pin: the four bench workloads plan to the costs recorded when
/// the solver-core rebuild landed (PR 8's `BENCH_solver.json`, since
/// retired) — the default options to its `revised_cost` column, both
/// solver-core flags on (bounded variables + dual steepest-edge) to
/// `full_cost`, re-pinned once when that stack lost its third flag.
/// A pivot-changing solver change has to move these numbers on purpose.
#[test]
fn fig16_plan_costs_match_the_committed_bench_columns() {
    // (input GB, migration, revised_cost, full_cost)
    let pins = [
        (32, false, 25.71986478477859, 25.719864784778597),
        (128, false, 103.13652103826342, 103.13652103826342),
        (256, false, 207.91613632782136, 207.9152363278214),
        (128, true, 103.03789908754416, 103.03789391348631),
    ];
    for (input_gb, migration, revised_cost, full_cost) in pins {
        let default = solver_bench::bench_options();
        let full = solver_bench::full_flags(default.clone());
        for (label, options, pinned) in [
            ("default", default, revised_cost),
            ("full", full, full_cost),
        ] {
            let (_, _, cost, _) = solver_bench::plan_once(input_gb, migration, options);
            assert!(
                (cost - pinned).abs() <= 1e-4,
                "{input_gb} GB (migration {migration}), {label} options: {cost} vs pinned {pinned}"
            );
        }
    }
}

/// Figure 16: the model and its solve time grow with the input size, and
/// adding more services to the model does not shrink it.
#[test]
fn fig16_solve_time_grows_with_input() {
    let t = experiments::fig16_solve_time();
    let small_vars = t.value("32", 3).unwrap();
    let large_vars = t.value("256", 3).unwrap();
    assert!(large_vars > small_vars, "model should grow with input size");
    for row in ["32", "64", "128", "256"] {
        for col in 0..3 {
            assert!(t.value(row, col).unwrap() >= 0.0);
        }
    }
}

/// Figure 15 pin: every cell of the storage-throughput table, bit for bit
/// (four rows × {throughput MB/s, copy time s}). Moving the storage-layer
/// model must not move a single bit of the figure.
#[test]
fn fig15_table_bits_are_pinned() {
    let t = experiments::fig15_storage_throughput();
    let bits: Vec<(&str, u64, u64)> = t
        .rows
        .iter()
        .map(|(label, v)| (label.as_str(), v[0].to_bits(), v[1].to_bits()))
        .collect();
    assert_eq!(
        bits,
        vec![
            ("conductor", 4625055207114720975, 4656793950769426561),
            ("hdfs", 4626637969190257951, 4654538451245398078),
            ("s3-via-hadoop", 4619579561460072342, 4661861002230436585),
            ("s3-via-s3cmd", 4624787547197526707, 4656936390592446233),
        ]
    );
}
