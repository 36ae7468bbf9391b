//! Everything the benchmark prints: the per-run tables and result line, the
//! `--all` sweep, the determinism check, and the generated documents
//! (`BENCHMARK.json`, `baseline.json`, the README tables).

use crate::host::Host;
use crate::metrics::{Values, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::quartiles;
use crate::workloads::{self, Config};
use crate::{Args, RunResult};
use serde_json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Json {
    Json::String(s.to_string())
}

/// The unit of a registered metric, by name.
fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    let layer = PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit);
    e2e.or(layer).unwrap_or("")
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

fn metrics_json(values: &Values) -> Json {
    Json::Object(
        values
            .iter()
            .map(|(name, v)| {
                let metric = obj(vec![
                    ("value", Json::Number(*v)),
                    ("unit", text(unit_of(name))),
                ]);
                (name.to_string(), metric)
            })
            .collect(),
    )
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Values) -> String {
    let line = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(attempted.max(1) as f64)),
        ("failed", Json::Number(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

pub fn first_difference(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> String {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let differing = keys
        .into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)));
    differing.take(4).collect::<Vec<_>>().join("; ")
}

/// Prints every metric of one run by name, with its unit.
pub fn print_run(host: &Host, r: &RunResult, cfg: &Config) {
    let m = &r.measured;
    println!(
        "== {} | seed {} | seconds {}{} ==",
        r.workload,
        r.seed,
        cfg.seconds,
        if cfg.quick { " | quick" } else { "" }
    );
    println!("{}", host.one_line(1));
    println!(
        "-- end to end (tracing off): {} passes, every step at its fastest --",
        m.untraced.passes()
    );
    for e in &END_TO_END {
        println!("{:<22} {:>16.6} {}", e.name, r.end_to_end[e.name], e.unit);
    }
    println!("latencies: {}", m.latency.note);
    let pass = &m.untraced.fastest;
    for (label, step) in &pass.rows {
        println!(
            "  {label}  {:>10.3} ms (fastest of {})",
            m.untraced.millis(*step),
            m.untraced.passes()
        );
    }
    let walls: Vec<String> = m
        .untraced
        .raw_walls
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    println!(
        "steps per pass: {}; whole passes as the clock read them: {} s",
        m.untraced.quiet.len(),
        walls.join(" ")
    );
    println!(
        "operations: {} attempted, {} failed; deadlines met {}/{} a pass; largest solve used {:.2} % of its time limit",
        m.attempted,
        m.failed,
        pass.deadline_met,
        pass.deadline_of,
        pass.time_limit_share * 100.0
    );
    if let Some(layers) = &r.per_layer {
        let passes = m.traced.as_ref().map_or(0, |t| t.passes());
        println!("-- per layer (fastest of {passes} traced passes) --");
        for p in &PER_LAYER {
            println!(
                "{:<30} {:>18.6} {:<6} {}",
                p.name, layers[p.name], p.unit, p.layer
            );
        }
        println!("-- span self time (the same pass) --");
        let wall = layers["harness.traced_wall_s"];
        for (name, t) in &r.self_times {
            println!(
                "{:<26} {:>10} calls {:>12.6} s {:>6.2} % of its wall",
                name,
                t.calls,
                t.seconds,
                100.0 * t.seconds / wall
            );
        }
        let unattributed = layers["harness.unattributed_s"];
        println!(
            "attributed {:.2} % of the traced pass ({unattributed:.6} s unattributed)",
            100.0 * (1.0 - unattributed / wall)
        );
        if let Some(path) = &r.trace_file {
            println!("trace: {}", path.display());
        }
    }
    for v in &m.violations {
        println!("VIOLATION: {v}");
    }
}

// ---------------------------------------------------------------------------
// --check-determinism
// ---------------------------------------------------------------------------

/// Two in-process passes at one seed (`cfg.rounds`); every count and quality
/// number must repeat exactly.
pub fn check_determinism(workloads: &[&'static str], cfg: &Config) -> ExitCode {
    let mut all_exact = true;
    for &w in workloads {
        let m = workloads::measure(w, cfg, false);
        let (a, b) = (&m.counts[0], &m.counts[1]);
        println!("== {w} | seed {} ==", cfg.seed);
        for key in a.keys().chain(b.keys().filter(|k| !a.contains_key(*k))) {
            let exact = a.get(key) == b.get(key);
            all_exact &= exact;
            println!(
                "{key:<36} \"exact\": {exact}  {:?} {:?}",
                a.get(key),
                b.get(key)
            );
        }
        println!(
            "largest solve used {:.2} % of its wall-clock time limit: solver counts are \
             machine-independent only while this stays under 100 %",
            m.untraced.fastest.time_limit_share * 100.0
        );
        for v in &m.violations {
            all_exact = false;
            println!("VIOLATION: {v}");
        }
    }
    if all_exact {
        println!("determinism: every count repeated exactly");
        ExitCode::SUCCESS
    } else {
        println!("determinism: FAILED");
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// --all
// ---------------------------------------------------------------------------

/// One child's result line, parsed.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{body}");
    }
    let parsed = serde_json::parse(line).map_err(|e| format!("{workload}: no result line: {e}"))?;
    let fields = parsed
        .as_object()
        .ok_or(format!("{workload}: result is not an object"))?;
    let get = |key: &str| serde::json_get(fields, key);
    let metrics = get("metrics")
        .and_then(Json::as_object)
        .ok_or(format!("{workload}: result has no metrics"))?
        .iter()
        .filter_map(|(name, m)| {
            let value = serde::json_get(m.as_object()?, "value")?.as_f64()?;
            Some((name.clone(), value))
        })
        .collect();
    Ok(ChildResult {
        correct: get("correct").and_then(Json::as_bool) == Some(true) && output.status.success(),
        metrics,
    })
}

/// Median and quartiles of one metric over the runs of a sweep.
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Option<Self> {
        match values {
            [] => None,
            [only] => Some(Self {
                median: *only,
                q1: *only,
                q3: *only,
            }),
            _ => quartiles(values).map(|(q1, median, q3)| Self { median, q1, q3 }),
        }
    }

    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        if self.median != 0.0 {
            (self.q3 - self.q1) / self.median.abs()
        } else {
            0.0
        }
    }
}

/// What a sweep over every workload measured.
struct Sweep {
    host: Host,
    seed: u64,
    seconds: u64,
    runs: usize,
    /// `values[workload][metric]`: one untraced value per run.
    values: BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>,
    /// `layers[workload][metric]`: the traced run at the base seed.
    layers: BTreeMap<&'static str, BTreeMap<String, f64>>,
}

/// One table row per metric, one column per workload.
fn print_matrix(title: &str, rows: impl Iterator<Item = (String, Vec<String>)>) {
    println!("\n== {title} ==");
    print!("{:<38}", "metric");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for (label, cells) in rows {
        print!("{label:<38}");
        for cell in cells {
            print!(" {cell:>14}");
        }
        println!();
    }
}

impl Sweep {
    /// Two shards on one core measure nothing about sharding.
    fn unmeasured(&self, workload: &str) -> bool {
        WORKLOADS
            .iter()
            .any(|w| w.name == workload && self.host.nproc < w.threads)
    }

    fn summary(&self, workload: &str, metric: &str) -> Option<Summary> {
        Summary::of(self.values.get(workload)?.get(metric)?)
    }

    /// One cell per workload: `unmeasured`, `-` when absent, else `show`.
    fn cells<T>(
        &self,
        get: impl Fn(&'static str) -> Option<T>,
        show: impl Fn(T) -> String,
    ) -> Vec<String> {
        let cell = |w: &Workload| match get(w.name) {
            Some(_) if self.unmeasured(w.name) => "unmeasured".to_string(),
            Some(v) => show(v),
            None => "-".to_string(),
        };
        WORKLOADS.iter().map(cell).collect()
    }

    fn print(&self) {
        let runs = self.runs;
        print_matrix(
            &format!("end to end: median over {runs} run(s), tracing off"),
            END_TO_END.iter().map(|m| {
                let cells = self.cells(|w| self.summary(w, m.name), |s| format!("{:.5}", s.median));
                (format!("{} ({})", m.name, m.unit), cells)
            }),
        );
        if runs > 1 {
            print_matrix(
                &format!("spread: (q3 - q1) / median over {runs} runs at different seeds"),
                END_TO_END.iter().map(|m| {
                    let cells = self.cells(
                        |w| self.summary(w, m.name),
                        |s| format!("{:.4}", s.spread()),
                    );
                    (format!("{} (bound {:.2})", m.name, m.bound), cells)
                }),
            );
            let widest = END_TO_END
                .iter()
                .filter(|m| m.name != "setup_s")
                .flat_map(|m| WORKLOADS.iter().map(move |w| (m, w)))
                .filter_map(|(m, w)| Some((self.summary(w.name, m.name)?.spread() / m.bound, m, w)))
                .max_by(|a, b| a.0.total_cmp(&b.0));
            if let Some((share, m, w)) = widest {
                println!(
                    "widest spread: {share:.2} of its bound ({} on {})",
                    m.name, w.name
                );
            }
        }
        if !self.layers.is_empty() {
            print_matrix(
                &format!("per layer: traced run at seed {}", self.seed),
                PER_LAYER.iter().map(|m| {
                    let value = |w| self.layers.get(w)?.get(m.name).copied();
                    (
                        format!("{} ({})", m.name, m.unit),
                        self.cells(value, |v| format!("{v:.5}")),
                    )
                }),
            );
        }
    }

    /// `baseline.json`: host facts, every run's values with their median and
    /// quartiles, the traced run's per-layer values, and the `exact` flags.
    fn baseline_json(&self) -> String {
        let numbers =
            |values: &[f64]| Json::Array(values.iter().map(|v| Json::Number(*v)).collect());
        let end_to_end = WORKLOADS.iter().map(|w| {
            let metrics = END_TO_END.iter().filter_map(|m| {
                let values = self.values.get(w.name)?.get(m.name)?;
                let s = Summary::of(values)?;
                let cell = if self.unmeasured(w.name) {
                    text("unmeasured")
                } else {
                    obj(vec![
                        ("unit", text(m.unit)),
                        ("median", Json::Number(s.median)),
                        ("q1", Json::Number(s.q1)),
                        ("q3", Json::Number(s.q3)),
                        ("spread", Json::Number(s.spread())),
                        ("values", numbers(values)),
                    ])
                };
                Some((m.name, cell))
            });
            (w.name, obj(metrics.collect()))
        });
        let per_layer = WORKLOADS.iter().filter_map(|w| {
            let measured = self.layers.get(w.name)?;
            let metrics = PER_LAYER.iter().filter_map(|m| {
                let cell = match measured.get(m.name)? {
                    _ if self.unmeasured(w.name) => text("unmeasured"),
                    v => Json::Number(*v),
                };
                Some((m.name, cell))
            });
            Some((w.name, obj(metrics.collect())))
        });
        let exact = PER_LAYER
            .iter()
            .filter_map(|m| Some((m.name, Json::Bool(m.exact?))));
        let doc = obj(vec![
            ("generated_by", text(BASELINE_COMMAND)),
            ("host", self.host.to_json(self.runs)),
            ("seed", Json::Number(self.seed as f64)),
            ("seconds", Json::Number(self.seconds as f64)),
            ("end_to_end", obj(end_to_end.collect())),
            ("per_layer", obj(per_layer.collect())),
            ("exact", obj(exact.collect())),
        ]);
        serde_json::to_string_pretty(&doc).expect("baseline serializes") + "\n"
    }
}

const BASELINE_COMMAND: &str = "cargo run --release --offline --manifest-path \
     benchmark/Cargo.toml -- --all --trace --runs 10 --write-baseline";

/// Runs every workload, each in a fresh process, one after the other.
pub fn run_all(args: &Args, seed: u64, seconds: u64) -> ExitCode {
    let mut sweep = Sweep {
        host: Host::probe(),
        seed,
        seconds,
        runs: args.runs.unwrap_or(1).max(1),
        values: BTreeMap::new(),
        layers: BTreeMap::new(),
    };
    println!("{}", sweep.host.one_line(sweep.runs));
    let mut all_correct = true;
    for run in 0..sweep.runs as u64 {
        // Keep the seed-drawn fleets of different runs apart.
        let run_seed = seed + 1_000 * run;
        for w in &WORKLOADS {
            // One traced run, at the base seed, beside the untraced ones.
            for trace in [false, true] {
                if trace && !(args.trace && run == 0) {
                    continue;
                }
                let echo = sweep.runs == 1;
                match run_child(w.name, run_seed, seconds, trace, args.quick, echo) {
                    Ok(child) => {
                        all_correct &= child.correct;
                        if trace {
                            sweep.layers.insert(w.name, child.metrics);
                        } else {
                            let slot = sweep.values.entry(w.name).or_default();
                            for (name, v) in child.metrics {
                                slot.entry(name).or_default().push(v);
                            }
                        }
                    }
                    Err(e) => {
                        all_correct = false;
                        println!("FAILED: {e}");
                    }
                }
            }
        }
        if sweep.runs > 1 {
            println!("run {} of {} done (seed {run_seed})", run + 1, sweep.runs);
        }
    }
    sweep.print();

    if args.write_baseline && args.quick {
        println!("--quick numbers are never written to baseline.json");
    } else if args.write_baseline {
        let path = crate::home().join("baseline.json");
        match std::fs::write(&path, sweep.baseline_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                all_correct = false;
                println!("FAILED: writing {}: {e}", path.display());
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Generated documents
// ---------------------------------------------------------------------------

/// `BENCHMARK.json`, generated from the registry.
pub fn contract_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = obj(vec![
        (
            "command",
            Json::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Json::Array(vec![text("benchmark")])),
        ("run_seconds", Json::Number(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Number(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("contract serializes") + "\n"
}

/// Per-layer totals in seconds that partition a traced `wall_s`.
const SHARE_ROWS: [&str; 13] = [
    "lp.solve_s",
    "model.build_s",
    "planner.extract_s",
    "fleet.admission_overhead_s",
    "fleet.replan_batch_s",
    "fleet.quiet_batch_s",
    "fleet.resume_drain_s",
    "mapreduce.wakeup_s",
    "mapreduce.next_event_s",
    "sim.pop_s",
    "sim.schedule_s",
    "shards.drain_s",
    "harness.unattributed_s",
];

/// The README's tables: definitions from the registry, numbers from
/// `baseline.json`.
pub fn emit_md(baseline: &Path) -> Result<String, String> {
    let raw = std::fs::read_to_string(baseline)
        .map_err(|e| format!("reading {}: {e}", baseline.display()))?;
    let doc = serde_json::parse(&raw).map_err(|e| format!("{}: {e}", baseline.display()))?;
    let root = doc.as_object().ok_or("baseline.json is not an object")?;
    let field = |o: &[(String, Json)], key: &str| serde::json_get(o, key).cloned();
    let host = field(root, "host")
        .and_then(|h| h.as_object().cloned())
        .unwrap_or_default();
    let host_text = |key: &str| match field(&host, key) {
        Some(Json::String(s)) => s,
        Some(Json::Number(n)) => format!("{n}"),
        Some(Json::Bool(b)) => format!("{b}"),
        _ => "unknown".into(),
    };
    let mut md = String::new();
    let _ = writeln!(
        md,
        "Measured on {} ({} cores), {}, commit {}, {} runs per workload at seeds {} + 1000·i, \
         load average {} at start{}.\n",
        host_text("cpu_model"),
        host_text("nproc"),
        host_text("rustc"),
        host_text("git_commit"),
        host_text("runs"),
        field(root, "seed").and_then(|s| s.as_f64()).unwrap_or(0.0),
        host_text("load_1m"),
        if host_text("noisy") == "true" {
            " (NOISY)"
        } else {
            ""
        },
    );

    let _ = writeln!(md, "### Workloads\n");
    let _ = writeln!(
        md,
        "| workload | why | one operation | `latency_ms_mid` / `latency_ms_tail` |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    for w in &WORKLOADS {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} |",
            w.name, w.why, w.operation, w.latency
        );
    }

    let _ = writeln!(md, "\n### End-to-end metrics\n");
    let _ = writeln!(md, "| metric | unit | better | bound | what |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for m in &END_TO_END {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {:.0} % | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }

    let e2e = field(root, "end_to_end")
        .and_then(|v| v.as_object().cloned())
        .unwrap_or_default();
    let _ = writeln!(
        md,
        "\n### Results: median [q1 – q3] over the runs, tracing off\n"
    );
    let _ = write!(md, "| metric |");
    for w in &WORKLOADS {
        let _ = write!(md, " {} |", w.name);
    }
    let _ = writeln!(md, "\n|---|{}", "---|".repeat(WORKLOADS.len()));
    for m in &END_TO_END {
        let _ = write!(md, "| `{}` ({}) |", m.name, m.unit);
        for w in &WORKLOADS {
            let cell = field(&e2e, w.name)
                .and_then(|o| field(o.as_object()?, m.name))
                .map(|c| match c.as_object() {
                    Some(o) => {
                        let n = |k: &str| field(o, k).and_then(|v| v.as_f64()).unwrap_or(0.0);
                        format!("{:.4} [{:.4} – {:.4}]", n("median"), n("q1"), n("q3"))
                    }
                    None => c.as_str().unwrap_or("-").to_string(),
                })
                .unwrap_or_else(|| "-".into());
            let _ = write!(md, " {cell} |");
        }
        let _ = writeln!(md);
    }

    let _ = writeln!(
        md,
        "\n### Spread: (q3 − q1) / median over the runs, against the bound\n"
    );
    let _ = write!(md, "| metric | bound |");
    for w in &WORKLOADS {
        let _ = write!(md, " {} |", w.name);
    }
    let _ = writeln!(md, "\n|---|---|{}", "---|".repeat(WORKLOADS.len()));
    for m in &END_TO_END {
        let _ = write!(md, "| `{}` | {:.2} |", m.name, m.bound);
        for w in &WORKLOADS {
            let spread = field(&e2e, w.name)
                .and_then(|o| field(o.as_object()?, m.name))
                .and_then(|c| field(c.as_object()?, "spread")?.as_f64());
            match spread {
                Some(s) => {
                    let _ = write!(md, " {s:.3} |");
                }
                None => {
                    let _ = write!(md, " - |");
                }
            }
        }
        let _ = writeln!(md);
    }

    let layers = field(root, "per_layer")
        .and_then(|v| v.as_object().cloned())
        .unwrap_or_default();
    let _ = writeln!(
        md,
        "\n### Per-layer metrics: one traced run at the base seed\n"
    );
    let _ = write!(md, "| metric | unit | exact |");
    for w in &WORKLOADS {
        let _ = write!(md, " {} |", w.name);
    }
    let _ = writeln!(md, "\n|---|---|---|{}", "---|".repeat(WORKLOADS.len()));
    for m in &PER_LAYER {
        let exact = m.exact.map_or("timing".to_string(), |e| e.to_string());
        let _ = write!(md, "| `{}` | {} | {exact} |", m.name, m.unit);
        for w in &WORKLOADS {
            let cell = field(&layers, w.name).and_then(|o| field(o.as_object()?, m.name));
            let cell = match cell {
                Some(Json::Number(0.0)) => "0".to_string(),
                Some(Json::Number(v)) if v.abs() >= 1000.0 => format!("{v:.0}"),
                Some(Json::Number(v)) => format!("{v:.4}"),
                Some(Json::String(s)) => s,
                _ => "-".into(),
            };
            let _ = write!(md, " {cell} |");
        }
        let _ = writeln!(md);
    }

    let _ = writeln!(md, "\n### First measured shares of the traced `wall_s`\n");
    let _ = write!(md, "| self time |");
    for w in &WORKLOADS {
        let _ = write!(md, " {} |", w.name);
    }
    let _ = writeln!(md, "\n|---|{}", "---|".repeat(WORKLOADS.len()));
    for name in SHARE_ROWS {
        let _ = write!(md, "| `{name}` |");
        for w in &WORKLOADS {
            let layer = |key: &str| {
                field(&layers, w.name)
                    .and_then(|o| field(o.as_object()?, key))
                    .and_then(|v| v.as_f64())
            };
            match (layer(name), layer("harness.traced_wall_s")) {
                (Some(part), Some(wall)) if part > 0.0 && wall > 0.0 => {
                    let _ = write!(md, " {:.1} % |", 100.0 * part / wall);
                }
                _ => {
                    let _ = write!(md, " - |");
                }
            }
        }
        let _ = writeln!(md);
    }

    let _ = writeln!(md, "\n### Layer → end-to-end map\n");
    let _ = writeln!(md, "| layer | metric | should move |");
    let _ = writeln!(md, "|---|---|---|");
    for m in &PER_LAYER {
        let _ = writeln!(md, "| {} | `{}` | {} |", m.layer, m.name, m.moves);
    }
    Ok(md)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_contract_is_the_generated_one() {
        let path = crate::home().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with `--emit-contract > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let values = Values::from([("setup_s", 0.25), ("wall_s", 1.5)]);
        assert_eq!(
            result_line(true, 0, 0, &values),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn summary_spread_is_the_quartile_distance_over_the_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::of(&[3.0]).unwrap().spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }
}
