//! The six workloads and the loop that measures them.
//!
//! A workload is a fixture made from the seed and a *pass*: a fixed,
//! deterministic sequence of timed calls (steps) over that fixture. A run
//! repeats the pass for `--seconds` seconds and keeps, for every step, the
//! fastest time any pass gave it. The host is a few shared cores whose
//! speed moves by tens of percent for seconds at a time; the work of a step
//! is the same in every pass, so whatever a pass adds to it is the host's,
//! and the fastest repetition is the closest reading of the program.

mod churn;
mod durable;
mod exec;
mod fleet_driver;
mod plan;
mod sharded;
mod solver_effort;

use crate::metrics::Values;
use crate::stats::{median, tail_rank, SAMPLES_BEYOND};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// A run sets up this many times before its first round (once in
/// `--quick`) and once more before every later round, so that the samples
/// spread over the run; `setup_s` is their median.
const SETUP_REPS: usize = 4;
/// Fewest rounds of a run, whatever `--seconds` says: one reading of a step
/// cannot be told from the host's noise.
const MIN_ROUNDS: usize = 2;

pub struct Config {
    pub seed: u64,
    /// How long the passes of a run may take together.
    pub seconds: u64,
    /// A fixed number of rounds instead of the time budget.
    pub rounds: Option<usize>,
    /// Smoke sizes: 32-job fleets, one deployment, one round.
    pub quick: bool,
    /// Scratch directory for WAL and snapshot files (inside the checkout).
    pub scratch: PathBuf,
}

impl Config {
    fn fleet_jobs(&self) -> usize {
        if self.quick {
            32
        } else {
            crate::fixtures::FLEET_JOBS
        }
    }
}

/// What one pass over a workload did and measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall of the whole timed section of this pass, as the clock read it.
    pub raw_wall_s: f64,
    /// Numerator of `ops_per_s`.
    pub ops: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Broken invariants; any makes the run incorrect.
    pub violations: Vec<String>,
    /// The steps whose times are the workload's latency samples.
    pub samples: Vec<usize>,
    /// A label and a step for each input that gets a row of its own.
    pub rows: Vec<(String, usize)>,
    pub deadline_met: usize,
    pub deadline_of: usize,
    pub usd: f64,
    pub gb: f64,
    pub layers: Values,
    /// Counts that must repeat exactly in every pass, traced or not.
    pub counts: BTreeMap<String, u64>,
    /// Largest share of its wall-clock limit any solve used; counts stop
    /// being machine-independent when this reaches one.
    pub time_limit_share: f64,
}

impl Outcome {
    fn new() -> Self {
        Self {
            layers: crate::metrics::zeroed_layers(),
            ..Default::default()
        }
    }

    fn violation(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation(what());
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.layers.get_mut(name);
        *slot.unwrap_or_else(|| panic!("unregistered per-layer metric {name}")) = value;
    }

    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.insert(name.into(), value);
    }
}

/// The two latencies of a workload, from its de-noised samples.
pub struct Latency {
    pub mid_ms: f64,
    pub tail_ms: f64,
    /// What the two numbers are, with their sample count.
    pub note: String,
}

impl Latency {
    /// The median, and the highest percentile that still has
    /// [`SAMPLES_BEYOND`] samples beyond it. With too few samples for that
    /// to lie above the median (only in `--quick`) the median stands in.
    pub fn percentiles(samples_ms: &[f64], of: &str) -> Self {
        let n = samples_ms.len();
        let mid_ms = median(samples_ms).unwrap_or(0.0);
        let mut sorted = samples_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        match tail_rank(n) {
            Some(rank) => Self {
                mid_ms,
                tail_ms: sorted[rank],
                note: format!(
                    "p50 / p{:.1} ({SAMPLES_BEYOND} samples beyond it) of {n} {of}",
                    100.0 * rank as f64 / (n - 1) as f64
                ),
            },
            None => Self {
                mid_ms,
                tail_ms: mid_ms,
                note: format!("p50 of {n} {of}; too few for a tail percentile"),
            },
        }
    }

    /// Geometric mean and maximum: for a handful of inputs of very
    /// different sizes, each a sample of its own.
    pub fn geomean_and_max(samples_ms: &[f64], of: &str) -> Self {
        Self {
            mid_ms: crate::stats::geomean(samples_ms).unwrap_or(0.0),
            tail_ms: samples_ms.iter().copied().fold(0.0, f64::max),
            note: format!("geometric mean / slowest of {} {of}", samples_ms.len()),
        }
    }
}

/// One of the six workloads.
trait Workload {
    type Fixture;
    /// Builds the inputs from the seed and warms the code up. Timed whole:
    /// `setup_s`.
    fn setup(cfg: &Config) -> Self::Fixture;
    /// One pass over the timed section. The same steps in the same order on
    /// every call.
    fn pass(fixture: &mut Self::Fixture, cfg: &Config, tracer: &mut Tracer) -> Outcome;
    fn latency(samples_ms: &[f64]) -> Latency;
}

/// The passes of a run made with tracing on, or those made with it off.
pub struct Series {
    /// Raw wall of every pass, in the order they ran.
    pub raw_walls: Vec<f64>,
    /// Per step, the fastest time any pass gave it, in seconds.
    pub quiet: Vec<f64>,
    /// The pass with the shortest raw wall, and its tracer.
    pub fastest: Outcome,
    pub tracer: Tracer,
}

impl Series {
    pub fn passes(&self) -> usize {
        self.raw_walls.len()
    }

    /// The wall of one pass on a quiet host: the sum of the steps' fastest
    /// times.
    pub fn wall_s(&self) -> f64 {
        self.quiet.iter().sum()
    }

    pub fn millis(&self, step: usize) -> f64 {
        self.quiet.get(step).map_or(0.0, |s| s * 1e3)
    }
}

/// Everything one run of a workload measured.
pub struct Measured {
    pub setup_s: f64,
    pub untraced: Series,
    /// Present on traced runs.
    pub traced: Option<Series>,
    pub latency: Latency,
    /// Summed over every pass.
    pub attempted: usize,
    pub failed: usize,
    pub violations: Vec<String>,
    /// The exact counts of every pass, in the order the passes ran.
    pub counts: Vec<BTreeMap<String, u64>>,
}

fn absorb(
    series: &mut Option<Series>,
    outcome: Outcome,
    tracer: Tracer,
    violations: &mut Vec<String>,
) {
    let steps = tracer.steps();
    match series {
        None => {
            *series = Some(Series {
                raw_walls: vec![outcome.raw_wall_s],
                quiet: steps.to_vec(),
                fastest: outcome,
                tracer,
            })
        }
        Some(s) => {
            s.raw_walls.push(outcome.raw_wall_s);
            if s.quiet.len() != steps.len() {
                violations.push(format!(
                    "a pass took {} steps, an earlier one {}",
                    steps.len(),
                    s.quiet.len()
                ));
            }
            for (quiet, step) in s.quiet.iter_mut().zip(steps) {
                *quiet = quiet.min(*step);
            }
            if outcome.raw_wall_s < s.fastest.raw_wall_s {
                s.fastest = outcome;
                s.tracer = tracer;
            }
        }
    }
}

fn measure_as<W: Workload>(cfg: &Config, trace: bool) -> Measured {
    let mut setups = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let fixture = W::setup(cfg);
        setups.push(start.elapsed().as_secs_f64());
        fixture
    };
    let mut fixture = set_up();
    for _ in 1..if cfg.quick { 1 } else { SETUP_REPS } {
        fixture = set_up();
    }

    let (mut untraced, mut traced) = (None, None);
    let (mut attempted, mut failed) = (0, 0);
    let mut violations = Vec::new();
    let mut counts: Vec<BTreeMap<String, u64>> = Vec::new();
    let modes: &[bool] = if trace { &[false, true] } else { &[false] };
    let budget = cfg.seconds as f64;
    let start = Instant::now();
    let (mut rounds, mut longest_round) = (0usize, 0.0f64);
    loop {
        if rounds > 0 {
            // Timed only: the passes keep the fixture they started with.
            drop(set_up());
        }
        let round_start = Instant::now();
        for &tracing in modes {
            let mut tracer = Tracer::new(tracing);
            let mut outcome = W::pass(&mut fixture, cfg, &mut tracer);
            attempted += outcome.attempted;
            failed += outcome.failed;
            violations.append(&mut outcome.violations);
            // The quality metrics must repeat as the counts do.
            outcome.count("quality.deadline_met", outcome.deadline_met as u64);
            outcome.count("quality.deadline_of", outcome.deadline_of as u64);
            outcome.count("quality.usd_bits", outcome.usd.to_bits());
            outcome.count("quality.gb_bits", outcome.gb.to_bits());
            if let Some(first) = counts.first() {
                if *first != outcome.counts {
                    failed += 1;
                    violations.push(format!(
                        "pass {} differs from the first: {}",
                        counts.len() + 1,
                        crate::report::first_difference(first, &outcome.counts)
                    ));
                }
            }
            counts.push(outcome.counts.clone());
            let series = if tracing { &mut traced } else { &mut untraced };
            let before = violations.len();
            absorb(series, outcome, tracer, &mut violations);
            failed += violations.len() - before;
        }
        rounds += 1;
        longest_round = longest_round.max(round_start.elapsed().as_secs_f64());
        let done = match cfg.rounds {
            Some(fixed) => rounds >= fixed,
            // Stop when another round would overrun the budget.
            None => rounds >= MIN_ROUNDS && start.elapsed().as_secs_f64() + longest_round > budget,
        };
        if done {
            break;
        }
    }
    let untraced = untraced.expect("at least one round");
    let samples_ms: Vec<f64> = untraced
        .fastest
        .samples
        .iter()
        .map(|&step| untraced.millis(step))
        .collect();
    Measured {
        setup_s: median(&setups).expect("at least one set-up"),
        latency: W::latency(&samples_ms),
        untraced,
        traced,
        attempted,
        failed,
        violations,
        counts,
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `workload` for `cfg.seconds` seconds; with `trace`, every other
/// pass records spans.
pub fn measure(workload: &str, cfg: &Config, trace: bool) -> Measured {
    match workload {
        "churn_cold" => measure_as::<churn::Churn<false>>(cfg, trace),
        "churn_cached" => measure_as::<churn::Churn<true>>(cfg, trace),
        "plan_fig16" => measure_as::<plan::PlanFig16>(cfg, trace),
        "exec_kernel" => measure_as::<exec::ExecKernel>(cfg, trace),
        "churn_durable" => measure_as::<durable::Durable>(cfg, trace),
        "churn_sharded" => measure_as::<sharded::Sharded>(cfg, trace),
        other => panic!("unknown workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PASSES: AtomicUsize = AtomicUsize::new(0);

    /// Three steps a pass, the second one slow in every pass but the third.
    struct Toy;

    impl Workload for Toy {
        type Fixture = ();

        fn setup(_: &Config) {}

        fn pass(_: &mut (), _: &Config, tracer: &mut Tracer) -> Outcome {
            let mut out = Outcome::new();
            let pass = PASSES.fetch_add(1, Ordering::Relaxed);
            let open = tracer.open_workload();
            for step in 0..3 {
                let call = tracer.begin();
                if step == 1 && pass != 2 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                let timed = tracer.end(call, "toy.step", crate::trace::NONE);
                out.samples.extend(timed.step);
            }
            out.raw_wall_s = tracer.close_workload(open).seconds();
            out.count("toy.steps", 3);
            out
        }

        fn latency(samples_ms: &[f64]) -> Latency {
            Latency::geomean_and_max(samples_ms, "steps")
        }
    }

    #[test]
    fn a_run_keeps_the_fastest_reading_of_every_step() {
        let cfg = Config {
            seed: 1,
            seconds: 1,
            rounds: Some(4),
            quick: false,
            scratch: PathBuf::new(),
        };
        let m = measure_as::<Toy>(&cfg, false);
        assert!(m.violations.is_empty() && m.traced.is_none());
        assert_eq!(m.untraced.passes(), 4);
        assert_eq!(m.counts.len(), 4);
        assert_eq!(m.untraced.quiet.len(), 3);
        let slow = m.untraced.raw_walls.iter().filter(|&&w| w >= 0.02);
        assert_eq!(slow.count(), 3, "three of the four passes slept");
        assert!(m.untraced.wall_s() < 0.02, "the one that did not is kept");
        assert!(m.latency.tail_ms < 20.0);
        assert_eq!(m.untraced.fastest.raw_wall_s, m.untraced.raw_walls[2]);
    }
}
