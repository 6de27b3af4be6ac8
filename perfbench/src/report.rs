//! The result line and the provenance line.

use std::fmt::Write as _;
use std::process::Command;

use crate::cli::Opts;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops (and checks) attempted.
    pub attempted: u64,
    /// Ops that failed: service closed, wrong answer, wrong generation.
    pub failed: u64,
    /// Metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every attempted op succeeded and every answer matched.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Appends a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result object printed as the last line of standard output.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Where and how the result was produced, printed before the result line.
pub fn provenance(opts: &Opts) -> String {
    let shape = opts.workload.shape(opts.tiny);
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}, \
         \"clients\": 1, \"nproc\": {nproc}, \"obs_enabled\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"n\": {}, \"window\": {}, \"mean_degree\": {}, \"insert_batch\": {}, \"rounds_per_unit\": {}, \
         \"queries_per_round\": {}, \"query_batch\": {}, \"in_flight\": {}}}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.tiny,
        bimst_obs::enabled(),
        first_line(Command::new("rustc").arg("--version")),
        git_commit(),
        shape.n,
        shape.window,
        shape.mean_degree(),
        shape.insert_batch,
        shape.rounds_per_unit,
        shape.queries_per_round,
        shape.query_batch,
        shape.in_flight,
    )
}

/// The checkout's commit, or `unknown` outside a git checkout. Git is
/// kept from searching directories above the working directory.
fn git_commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(&mut git)
}

/// First line of a command's output, or `unknown`.
fn first_line(cmd: &mut Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace('"', "'")))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
