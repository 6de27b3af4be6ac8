//! Command-line options.

use std::path::PathBuf;

use crate::shape::Workload;

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <ingest|serve_small|analytics> --seed <n> \
--seconds <s> --trace <0|1> [--tiny] [--inject-fault]";

/// Parsed options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the op stream and the structure.
    pub seed: u64,
    /// Measured seconds (the end-to-end pass; the traced run splits them).
    pub seconds: f64,
    /// Run the traced layer ladder instead of the end-to-end run.
    pub trace: bool,
    /// Shrink sizes for smoke tests (same mean window degree).
    pub tiny: bool,
    /// Corrupt one served answer before it is checked (tests the checker).
    pub inject_fault: bool,
    /// Directory for WAL stores and span files, inside the working
    /// directory.
    pub scratch: PathBuf,
}

impl Opts {
    /// A fresh store directory for the `i`-th layer built in this run.
    pub fn store_dir(&self, i: usize) -> PathBuf {
        self.scratch.join(format!(
            "{}-{}-{i}",
            self.workload.name(),
            std::process::id()
        ))
    }
}

/// Parses `args` (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut tiny, mut inject_fault) = (false, false);
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            "--tiny" => tiny = true,
            "--inject-fault" => inject_fault = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        tiny,
        inject_fault,
        scratch: PathBuf::from(".perfbench_tmp"),
    })
}
