//! Absolute pins on the solver's *trajectory*.
//!
//! `tests/fleet_pins.rs` pins what a session emits (events, bills, admission
//! counts) and deliberately leaves `FleetReport`'s planning effort out, so a
//! solver change that lands on the same plans by a different pivot path
//! passes it. These rows pin the path itself: per solve, the branch & bound
//! nodes, the simplex iterations, the LU factorizations (and the mid-stream
//! subset), and the bits of the objective the solve returned (`0` when it
//! returned none). They were taken on the commit *before* `crates/lp`'s node
//! loop was optimised and verified green there. **Never edit a pinned
//! value**: a mismatch after an optimisation is a finding about that
//! optimisation — some floating-point operation changed its operands or its
//! order — not about the pin.

use conductor_bench::experiments::{churn_fixture, faulted_churn_fixture, run_fleet_session};
use conductor_bench::solver_bench;
use conductor_core::{ConductorService, FleetJobRequest, PlanningReport};

/// `(nodes_explored, simplex_iterations, basis_factorizations,
/// basis_refactorizations, objective.to_bits())` of one solve.
type Effort = (usize, usize, usize, usize, u64);

fn effort(planning: Option<&PlanningReport>, objective: Option<f64>) -> Effort {
    let p = planning.cloned().unwrap_or_default();
    (
        p.nodes_explored,
        p.simplex_iterations,
        p.basis_factorizations,
        p.basis_refactorizations,
        objective.map_or(0, f64::to_bits),
    )
}

/// Every arrival of one session in submission order, refused ones (whose
/// capped search `TenantOutcome::planning` still carries) and the failure
/// policy's retries included.
fn session_efforts(service: &ConductorService, requests: &[FleetJobRequest]) -> Vec<Effort> {
    run_fleet_session(service, requests)
        .report()
        .tenants
        .iter()
        .map(|t| {
            effort(
                t.planning.as_ref(),
                t.plan.as_ref().map(|plan| plan.expected_cost),
            )
        })
        .collect()
}

/// Compares against the pin; on a mismatch prints the observed rows as
/// source and names the first solve that diverged.
fn assert_pinned<T: PartialEq + std::fmt::Debug>(label: &str, actual: &[T], pinned: &[T]) {
    if actual == pinned {
        return;
    }
    let first = actual
        .iter()
        .zip(pinned)
        .position(|(a, p)| a != p)
        .unwrap_or(actual.len().min(pinned.len()));
    let rows: String = actual.iter().map(|row| format!("    {row:?},\n")).collect();
    panic!(
        "{label}: the solver's trajectory moved; first divergence at solve {first} \
         ({} observed, {} pinned). Observed:\n{rows}",
        actual.len(),
        pinned.len()
    );
}

/// The six Figure-16 models: `(input GB, migration)`.
const FIG16_MODELS: [(u32, bool); 6] = [
    (32, false),
    (64, false),
    (128, false),
    (256, false),
    (128, true),
    (256, true),
];

/// (a) The six Figure-16 models, each planned single-shot (no context
/// reuse) at the benchmark's solver configuration.
#[test]
fn fig16_models_planned_single_shot() {
    let actual: Vec<Effort> = FIG16_MODELS
        .into_iter()
        .map(|(input_gb, migration)| {
            let (_, _, cost, report) =
                solver_bench::plan_once(input_gb, migration, solver_bench::bench_options());
            effort(Some(&report), Some(cost))
        })
        .collect();
    assert_pinned("fig16", &actual, FIG16);
}

/// One solve's [`Effort`] and its bound flips.
type BoundedEffort = (Effort, usize);

/// (a′) The same six models under both solver-core flags, bounded variables
/// and dual steepest-edge — the configuration ROADMAP's *One solver* would
/// make the default. Taken when the stack lost its third flag, so the next
/// change to `crates/lp` learns when it moves a pivot here too.
#[test]
fn fig16_models_under_bounded_dse() {
    let actual: Vec<BoundedEffort> = FIG16_MODELS
        .into_iter()
        .map(|(input_gb, migration)| {
            let options = solver_bench::full_flags(solver_bench::bench_options());
            let (_, _, cost, report) = solver_bench::plan_once(input_gb, migration, options);
            (effort(Some(&report), Some(cost)), report.bound_flips)
        })
        .collect();
    assert_pinned("fig16 bounded+dse", &actual, FIG16_BOUNDED_DSE);
}

/// (b) Every arrival of the 32-job churn fixture through one shared
/// `SolveContext`, plan cache off.
#[test]
fn cold_churn_arrivals() {
    let (requests, service) = churn_fixture(32, 1.0);
    assert_pinned(
        "cold churn",
        &session_efforts(&service, &requests),
        COLD_CHURN,
    );
}

/// (b) The same arrivals with the plan cache serving: hits carry no tree
/// effort, misses solve behind the certify step's root LP.
#[test]
fn cached_churn_arrivals() {
    let (requests, service) = churn_fixture(32, 1.0);
    assert_pinned(
        "cached churn",
        &session_efforts(&service.with_plan_cache(true), &requests),
        CACHED_CHURN,
    );
}

/// (c) The same arrivals under the full failure policy: retries re-enter
/// the shared `SolveContext` as further arrivals.
#[test]
fn faulted_churn_arrivals() {
    let (requests, service) = faulted_churn_fixture(32, 1.0);
    assert_pinned(
        "faulted churn",
        &session_efforts(&service, &requests),
        FAULTED_CHURN,
    );
}

const FIG16: &[Effort] = &[
    (29, 338, 21, 20, 4627932716023425671),
    (18, 275, 18, 17, 4632473172147165812),
    (127, 1153, 58, 57, 4636958004401185708),
    (2529, 17443, 628, 627, 4641519415268070771),
    (151, 1136, 61, 60, 4636951064498365242),
    (5553, 35250, 1247, 1246, 4641509964103511506),
];

const FIG16_BOUNDED_DSE: &[BoundedEffort] = &[
    ((30, 281, 19, 18, 4627932716023425673), 0),
    ((18, 255, 18, 17, 4632473172147165812), 0),
    ((51, 600, 36, 35, 4636958004401185708), 0),
    ((1095, 6053, 253, 252, 4641519383602135892), 37),
    ((127, 939, 53, 52, 4636951064134273289), 1),
    ((3923, 18161, 697, 696, 4641509948954554412), 117),
];

const COLD_CHURN: &[Effort] = &[
    (2000, 473, 23, 22, 4618844068029704210),
    (280, 1569, 91, 90, 4614649998630754487),
    (2000, 61, 3, 3, 4614786746194738642),
    (2000, 88, 5, 4, 4618594061169756143),
    (2000, 86, 5, 5, 4614259467468328547),
    (2000, 229, 12, 11, 0),
    (2000, 133, 8, 7, 4618994349199036942),
    (311, 2633, 154, 153, 4614335551749956387),
    (309, 2431, 147, 147, 4614335551749956384),
    (2000, 384, 21, 20, 4618334759296219735),
    (2000, 78, 5, 4, 0),
    (2000, 12760, 700, 699, 4614033401681180877),
    (2000, 130, 7, 6, 0),
    (647, 3832, 234, 233, 4614298935389115360),
    (2000, 138, 8, 7, 0),
    (2000, 101, 6, 5, 4619080904288293798),
    (2000, 138, 8, 7, 0),
    (2000, 39, 2, 2, 0),
    (1213, 5701, 340, 339, 4614287405452466362),
    (925, 4548, 271, 271, 4614249416080068318),
    (676, 5776, 320, 320, 4614392632309554690),
    (657, 4131, 201, 200, 4623447562073777506),
    (366, 2040, 116, 115, 4615067881219567403),
    (139, 821, 45, 44, 4614932260895385288),
    (2000, 94, 5, 4, 0),
    (2000, 84, 5, 4, 0),
    (2000, 77, 5, 4, 0),
    (1076, 6217, 386, 386, 4615173349340999369),
    (1060, 6547, 410, 410, 4615173349340999369),
    (2000, 123, 7, 6, 0),
    (2000, 40, 2, 2, 0),
    (2000, 79, 5, 4, 0),
];

const CACHED_CHURN: &[Effort] = &[
    (2000, 402, 19, 19, 4618844068029704210),
    (280, 1525, 88, 88, 4614649998630754487),
    (0, 0, 0, 0, 4614427432134829956),
    (2000, 14, 1, 1, 4618594061169756143),
    (2000, 60, 3, 3, 4614259467468328547),
    (2000, 115, 6, 6, 0),
    (2000, 69, 4, 4, 4618994349199036942),
    (311, 2579, 151, 151, 4614335551749956387),
    (0, 0, 0, 0, 4614335551749956387),
    (0, 0, 0, 0, 4618894462487666966),
    (340, 2644, 155, 155, 4614083493269290985),
    (2000, 12828, 710, 710, 4614033401681180876),
    (2000, 18, 1, 1, 0),
    (0, 0, 0, 0, 4614336728299973531),
    (2000, 22, 2, 2, 0),
    (2000, 28, 2, 2, 0),
    (2000, 21, 2, 2, 0),
    (2000, 17, 1, 1, 0),
    (2000, 19, 2, 2, 4615221482585023319),
    (918, 4287, 255, 255, 4614249416080068318),
    (31, 280, 14, 14, 4614053217199757458),
    (29, 210, 14, 14, 4623362769390461276),
    (366, 1984, 113, 113, 4615067881219567403),
    (139, 735, 39, 39, 4614932260895385288),
    (2000, 9, 0, 0, 0),
    (0, 0, 0, 0, 4614309505421036255),
    (0, 0, 0, 0, 4615273018255327406),
    (0, 0, 0, 0, 4615193303294933927),
    (0, 0, 0, 0, 4615193303294933927),
    (2000, 16, 1, 1, 0),
    (2000, 12, 1, 1, 0),
    (2000, 9, 1, 1, 0),
];

const FAULTED_CHURN: &[Effort] = &[
    (2000, 473, 23, 22, 4618844068029704210),
    (280, 1569, 91, 90, 4614649998630754487),
    (2000, 61, 3, 3, 4614786746194738642),
    (2000, 88, 5, 4, 4618594061169756143),
    (2000, 86, 5, 5, 4614259467468328547),
    (2000, 229, 12, 11, 0),
    (2000, 133, 8, 7, 4618994349199036942),
    (311, 2633, 154, 153, 4614335551749956387),
    (309, 2431, 147, 147, 4614335551749956384),
    (2000, 384, 21, 20, 4618334759296219735),
    (2000, 78, 5, 4, 0),
    (2000, 12760, 700, 699, 4614033401681180877),
    (2000, 130, 7, 6, 0),
    (647, 3832, 234, 233, 4614298935389115360),
    (2000, 138, 8, 7, 0),
    (2000, 101, 6, 5, 4619080904288293798),
    (2000, 17633, 1052, 1051, 4614401773456704367),
    (2000, 138, 8, 7, 0),
    (2000, 151, 8, 7, 0),
    (1213, 5739, 342, 341, 4614287405452466360),
    (920, 4266, 254, 254, 4614249416080068318),
    (2000, 42, 2, 2, 0),
    (634, 4044, 208, 207, 4618910456940494855),
    (663, 5204, 288, 288, 4614392632309554690),
    (684, 5654, 308, 308, 4614392644225342256),
    (657, 4137, 201, 200, 4623447562073777506),
    (369, 2081, 119, 118, 4615067881219567399),
    (137, 780, 43, 42, 4614932260895385288),
    (76, 556, 28, 27, 4623278464452517680),
    (2000, 92, 5, 4, 4616369789797055047),
    (2000, 76, 5, 4, 0),
    (1064, 6268, 384, 384, 4615173349340999369),
    (1066, 6042, 378, 378, 4615173349340999369),
    (2000, 105, 6, 5, 4615474988336130225),
    (2000, 87, 5, 4, 4615470241542122978),
    (2000, 122, 7, 6, 0),
    (2000, 114, 6, 5, 0),
    (2000, 80, 5, 4, 0),
    (2000, 94, 5, 4, 0),
    (2000, 34, 3, 3, 0),
];
