//! The repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --all [--seed N] [--trace]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload churn_cold --seed 7 --seconds 18 --trace 0
//! ```

mod fixtures;
mod host;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use host::Host;
use metrics::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{ratio, Config, Measured};

const USAGE: &str = "\
usage: benchmark --workload NAME [--seed N] [--seconds N] [--trace [0|1]] [--quick]
       benchmark --all [--seed N] [--seconds N] [--trace] [--quick] [--runs N [--write-baseline]]
       benchmark --check-determinism [--workload NAME] [--seed N] [--quick]
       benchmark --emit-md | --emit-contract";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    check_determinism: bool,
    emit_md: bool,
    emit_contract: bool,
    runs: Option<usize>,
    write_baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                args.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--runs" => {
                args.runs = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?,
                )
            }
            // The driver passes `--trace 0|1`; by hand, `--trace` alone turns it on.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--check-determinism" => args.check_determinism = true,
            "--emit-md" => args.emit_md = true,
            "--emit-contract" => args.emit_contract = true,
            "--write-baseline" => args.write_baseline = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|d| d.name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|d| d.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    if args.seconds == Some(0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The benchmark's own directory (`benchmark/` of the checkout it was built in).
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory under `benchmark/out/`, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Self> {
        let dir = home()
            .join("out")
            .join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one `--workload` invocation measured.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub measured: Measured,
    pub end_to_end: Values,
    /// Present on traced runs.
    pub per_layer: Option<Values>,
    /// Of the fastest traced pass, largest first.
    pub self_times: Vec<(&'static str, trace::SelfTime)>,
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.measured.violations.is_empty()
    }
}

fn end_to_end_values(m: &Measured, peak_rss_mb: f64) -> Values {
    let pass = &m.untraced.fastest;
    let wall_s = m.untraced.wall_s();
    Values::from([
        ("setup_s", m.setup_s),
        ("wall_s", wall_s),
        ("ops_per_s", ratio(pass.ops as f64, wall_s)),
        ("latency_ms_mid", m.latency.mid_ms),
        ("latency_ms_tail", m.latency.tail_ms),
        ("peak_rss_mb", peak_rss_mb),
        (
            "deadline_met_share",
            ratio(pass.deadline_met as f64, pass.deadline_of as f64),
        ),
        ("usd_per_gb", ratio(pass.usd, pass.gb)),
    ])
}

/// Runs one workload for `cfg.seconds` seconds. When tracing, every other
/// pass records spans: the end-to-end metrics still come from the untraced
/// passes, the per-layer ones from the fastest traced pass, and all passes
/// must produce the same fleet.
fn run_workload(workload: &'static str, cfg: &Config, trace: bool) -> RunResult {
    let mut measured = workloads::measure(workload, cfg, trace);
    let end_to_end = end_to_end_values(&measured, host::peak_rss_mb().unwrap_or(0.0));
    let (mut per_layer, mut self_times, mut trace_file) = (None, Vec::new(), None);
    let mut write_error = None;
    if let Some(traced) = &measured.traced {
        let by_name = traced.tracer.self_times();
        let unattributed = by_name.get("harness.workload").map_or(0.0, |s| s.seconds);
        let mut layers = traced.fastest.layers.clone();
        layers.insert("harness.unattributed_s", unattributed);
        layers.insert("harness.traced_wall_s", traced.fastest.raw_wall_s);
        layers.insert(
            "harness.passes",
            (measured.untraced.passes() + traced.passes()) as f64,
        );
        layers.insert(
            "trace_overhead_ratio",
            ratio(traced.wall_s(), measured.untraced.wall_s()),
        );
        per_layer = Some(layers);
        self_times = by_name.into_iter().collect();
        self_times.sort_by(|a, b| b.1.seconds.total_cmp(&a.1.seconds));

        let path = home().join("out").join(format!("trace-{workload}.json"));
        match std::fs::write(&path, traced.tracer.to_json(workload, cfg.seed)) {
            Ok(()) => trace_file = Some(path),
            Err(e) => write_error = Some(format!("writing {}: {e}", path.display())),
        }
    }
    if let Some(e) = write_error {
        measured.failed += 1;
        measured.violations.push(e);
    }
    RunResult {
        workload,
        seed: cfg.seed,
        measured,
        end_to_end,
        per_layer,
        self_times,
        trace_file,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(fixtures::DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(metrics::RUN_SECONDS);

    if args.emit_contract {
        print!("{}", report::contract_json());
        return ExitCode::SUCCESS;
    }
    if args.emit_md {
        return match report::emit_md(&home().join("baseline.json")) {
            Ok(md) => {
                print!("{md}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.all {
        return report::run_all(&args, seed, seconds);
    }

    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "cannot create a scratch directory under {}: {e}",
                home().display()
            );
            return ExitCode::FAILURE;
        }
    };
    let cfg = Config {
        seed,
        seconds,
        // Smoke runs make one round, the determinism check two.
        rounds: match (args.check_determinism, args.quick) {
            (true, _) => Some(2),
            (false, true) => Some(1),
            (false, false) => None,
        },
        quick: args.quick,
        scratch: scratch.0.clone(),
    };
    if args.check_determinism {
        let names: Vec<&'static str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
            .collect();
        return report::check_determinism(&names, &cfg);
    }
    let Some(workload) = WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|n| args.workload.as_deref() == Some(*n))
    else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let host = Host::probe();
    let result = run_workload(workload, &cfg, args.trace);
    drop(scratch);
    report::print_run(&host, &result, &cfg);
    // The contract's last line: one JSON object.
    let metrics = result.per_layer.as_ref().unwrap_or(&result.end_to_end);
    let (attempted, failed) = (result.measured.attempted, result.measured.failed);
    println!(
        "{}",
        report::result_line(result.correct(), attempted, failed, metrics)
    );
    debug_assert_eq!(result.end_to_end.len(), END_TO_END.len());
    debug_assert!(result
        .per_layer
        .as_ref()
        .is_none_or(|l| l.len() == PER_LAYER.len()));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
