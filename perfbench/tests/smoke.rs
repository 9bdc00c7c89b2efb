//! Smoke-sized end-to-end invocations of the benchmark binary: every
//! workload, untraced and traced, must print a correct result whose
//! metric names are exactly those `BENCHMARK.json` declares.

use std::process::Command;

use rtsim_campaign::json::Json;

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = json.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    metrics
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a named metric")
                .to_owned()
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Json::Arr(list)) = json.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    list.iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

/// Runs the binary and returns its parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "0.05",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).expect("the last line is JSON")
}

fn check(workload: &str, trace: bool) {
    let result = run(workload, trace);
    let Json::Obj(fields) = &result else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics")
    };
    let mut names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    names.sort();
    want.sort();
    assert_eq!(names, want, "{workload} trace={trace}");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {m}"
        );
        assert!(m.get("unit").and_then(Json::as_str).is_some());
    }
    if !trace {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in workloads() {
        check(&workload, false);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for workload in workloads() {
        check(&workload, true);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
