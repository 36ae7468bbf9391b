//! Facts about the machine a number was measured on.

use serde_json::Json;
use std::process::Command;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    /// One-minute load average when the run started.
    pub load_1m: f64,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

impl Host {
    pub fn probe() -> Self {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let load_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|text| text.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(unknown),
            // The driver's checkout is not a git repository.
            git_commit: first_line_of("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(unknown),
            load_1m,
        }
    }

    /// A run started with more runnable work than cores is not trusted.
    pub fn noisy(&self) -> bool {
        self.load_1m > self.nproc as f64
    }

    pub fn to_json(&self, runs: usize) -> Json {
        Json::Object(vec![
            ("nproc".into(), Json::Number(self.nproc as f64)),
            ("cpu_model".into(), Json::String(self.cpu_model.clone())),
            ("rustc".into(), Json::String(self.rustc.clone())),
            ("git_commit".into(), Json::String(self.git_commit.clone())),
            ("runs".into(), Json::Number(runs as f64)),
            ("load_1m".into(), Json::Number(self.load_1m)),
            ("noisy".into(), Json::Bool(self.noisy())),
        ])
    }

    pub fn one_line(&self, runs: usize) -> String {
        format!(
            "host: nproc {} | {} | {} | commit {} | runs {} | load1 {:.2}{}",
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.git_commit,
            runs,
            self.load_1m,
            if self.noisy() { " | NOISY" } else { "" }
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
