//! Smoke test of the benchmark itself: every workload on a tiny
//! document with a short window, untraced and traced.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workload::Workload;
use perfbench::{prepare, run, Options, Outcome};
use std::path::PathBuf;

fn options(workload: Workload, trace: bool, tag: &str) -> Options {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    Options {
        workload,
        seed: 7,
        seconds: 0.5,
        trace,
        doc_mb: Some(0.05),
        server_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        work_dir: scratch.join("data"),
        trace_dir: scratch.join("traces"),
    }
}

fn run_tiny(workload: Workload, trace: bool) -> Outcome {
    let tag = format!("{}-{}", workload.name(), trace as u8);
    let prepared = prepare(options(workload, trace, &tag)).expect("prepare");
    run(&prepared).expect("run")
}

/// Every named metric is printed, with its unit, in the result line.
fn assert_metrics(outcome: &Outcome, expected: &[(&str, &str)]) {
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.0).collect();
    assert_eq!(names, wanted);
    let line = outcome.result_line();
    for (name, unit) in expected {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing in {line}"));
        let tail = &line[at..];
        let end = tail.find('}').expect("metric object closes");
        assert!(
            tail[..end].ends_with(&format!("\"unit\":\"{unit}\"")),
            "{name} lacks unit {unit}: {}",
            &tail[..end]
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let plain = run_tiny(workload, false);
        assert!(
            plain.correct,
            "{}: {}",
            workload.name(),
            plain.detail.render()
        );
        assert_eq!(plain.failed, 0);
        assert_metrics(&plain, &END_TO_END);
        for (name, value, _) in &plain.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
        let traced = run_tiny(workload, true);
        assert!(
            traced.correct,
            "{}: {}",
            workload.name(),
            traced.detail.render()
        );
        assert_metrics(&traced, &PER_LAYER);
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        let entry = format!("{{\"name\":\"{}\",", workload.name());
        assert_eq!(
            compact.contains(&entry),
            Workload::BENCHMARKED.contains(&workload),
            "BENCHMARK.json and Workload::BENCHMARKED disagree on {}",
            workload.name()
        );
    }
}

#[test]
fn a_wrong_expected_count_fails_the_run() {
    let workload = Workload::LookupResident;
    let mut prepared = prepare(options(workload, false, "wrong")).expect("prepare");
    // Q1–Q5 make up a tenth of the reads, so the window reads them.
    for q in &mut prepared.mix.queries {
        if q.class.starts_with('Q') {
            q.expected += 1;
        }
    }
    let outcome = run(&prepared).expect("run");
    assert!(!outcome.correct);
    assert!(outcome.failed > 0);
    assert!(outcome.result_line().starts_with("{\"correct\":false,"));
    assert!(outcome.detail.render().contains("wrong count for"));
}
