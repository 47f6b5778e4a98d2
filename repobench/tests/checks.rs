//! The benchmark's correctness checks must fail a run that returns a wrong
//! prediction, and pass the same run without one. Small plans keep this
//! fast in a debug build.

use std::path::PathBuf;

use ips_core::IpsConfig;
use ips_repobench::run::{run, Options, END_TO_END, PER_LAYER};
use ips_repobench::workload::{Kind, Plan, Source};

fn small_plan(kind: Kind) -> Plan {
    Plan {
        name: format!("small-{kind:?}"),
        kind,
        datasets: vec![Source::Registry("ItalyPowerDemand")],
        config: IpsConfig::default()
            .with_sampling(4, 3)
            .with_k(3)
            .with_threads(2),
    }
}

fn options(inject: bool, trace: bool) -> Options {
    Options {
        seed: 3,
        seconds: 0.0,
        trace,
        inject_wrong_prediction: inject,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repobench-checks"),
    }
}

#[test]
fn fit_run_passes_its_checks() {
    let out = run(&small_plan(Kind::Fit), &options(false, false)).unwrap();
    assert!(out.correct(), "{}", out.human());
    assert!(out.json_line().starts_with("{\"correct\": true"));
}

#[test]
fn wrong_prediction_fails_a_fit_run() {
    let out = run(&small_plan(Kind::Fit), &options(true, false)).unwrap();
    assert!(!out.correct());
    assert!(out.checks.failed >= 1);
    assert!(
        out.checks.failures.iter().any(|f| f.contains("digest")),
        "{:?}",
        out.checks.failures
    );
    assert!(out.json_line().starts_with("{\"correct\": false"));
}

#[test]
fn serve_run_passes_its_checks() {
    let out = run(&small_plan(Kind::Serve), &options(false, false)).unwrap();
    assert!(out.correct(), "{}", out.human());
}

#[test]
fn wrong_prediction_fails_a_serve_run() {
    let out = run(&small_plan(Kind::Serve), &options(true, false)).unwrap();
    assert!(!out.correct());
    assert_eq!(out.checks.failed, 1, "{:?}", out.checks.failures);
    assert!(out.checks.failures[0].contains("classify_now"));
}

#[test]
fn every_run_reports_exactly_its_metric_set() {
    for kind in [Kind::Fit, Kind::Serve] {
        for (trace, want) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = run(&small_plan(kind), &options(false, trace)).unwrap();
            assert!(out.correct(), "{}", out.human());
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{kind:?} trace {trace}");
        }
    }
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{key}\"")).unwrap();
    let end = text[start..].find(']').unwrap() + start;
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    assert_eq!(listed("end_to_end"), END_TO_END);
    assert_eq!(listed("per_layer"), PER_LAYER);
}
