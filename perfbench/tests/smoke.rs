//! Tiny-scale runs of every workload, end to end and traced: each must be
//! correct and emit exactly the metrics `BENCHMARK.json` declares, with
//! their units. And a wrong answer must be caught.

use std::process::Command;

use bimst_perfbench::cli::Opts;
use bimst_perfbench::report::Outcome;
use bimst_perfbench::shape::Workload;
use bimst_perfbench::{e2e, ladder};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |s: &str, key: &str| -> String {
        let at = s.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        s[at..at + s[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn opts(workload: Workload, seed: u64, trace: bool) -> Opts {
    let mut o = bimst_perfbench::cli::parse(
        [
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--tiny",
        ]
        .map(String::from),
    )
    .expect("valid arguments");
    o.trace = trace;
    std::fs::create_dir_all(&o.scratch).expect("scratch dir");
    o
}

fn check(out: &Outcome, section: &str) {
    assert!(
        out.correct(),
        "{section}: {} of {} failed",
        out.failed,
        out.attempted
    );
    assert!(out.attempted > 0);
    let got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(got, declared(section));
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

fn run_workload(w: Workload) {
    let out = e2e::run(&opts(w, 3, false)).expect("end-to-end run");
    check(&out, "end_to_end");
    for m in &out.metrics {
        assert!(
            m.value > 0.0,
            "{}: end-to-end metric {} is not positive",
            w.name(),
            m.name
        );
    }
    check(
        &ladder::run(&opts(w, 4, true)).expect("traced run"),
        "per_layer",
    );
}

#[test]
fn ingest_emits_every_declared_metric() {
    run_workload(Workload::Ingest);
}

#[test]
fn serve_small_emits_every_declared_metric() {
    run_workload(Workload::ServeSmall);
}

#[test]
fn analytics_emits_every_declared_metric() {
    run_workload(Workload::Analytics);
}

/// A corrupted answer — checked against the inline reference
/// (`serve_small`) or across shutdown and recovery (`ingest`) — is counted
/// as failed, and the command exits non-zero after printing its result.
#[test]
fn injected_wrong_answer_fails_the_run() {
    for w in ["serve_small", "ingest"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                w,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .args(["--tiny", "--inject-fault"])
            .output()
            .expect("run perfbench");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let last = stdout.lines().last().expect("result line");
        assert!(last.starts_with("{\"correct\": false, "), "{w}: {last}");
        assert!(!last.contains("\"failed\": 0,"), "{w}: {last}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
