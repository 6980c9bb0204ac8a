//! The benchmark through its library: every workload at a tiny window,
//! and the metric names against `BENCHMARK.json`.

use rperf_benchmark::{Run, RunConfig, Workload, DEFAULT_SECONDS, END_TO_END, PER_LAYER};
use rperf_stats::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn str_field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`"))
}

fn name_units(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}`"))
        .iter()
        .map(|e| (str_field(e, "name").into(), str_field(e, "unit").into()))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_emits() {
    let doc = benchmark_json();
    assert_eq!(name_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(name_units(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
}

/// The metric names and values of a result line.
fn metrics(line: &str) -> Vec<(String, f64)> {
    let doc = json::parse(line).expect("the result line is JSON");
    assert_eq!(
        doc.as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect::<Vec<_>>(),
        ["correct", "attempted", "failed", "metrics"]
    );
    doc.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            (name.clone(), value.expect("every metric has a number"))
        })
        .collect()
}

#[test]
fn model_err_is_the_same_whatever_the_seed() {
    let run = |seed| {
        Run::execute(RunConfig {
            workload: Workload::Converged,
            seed,
            seconds: 0.0,
            trace: false,
            scale: 0.05,
        })
    };
    let (a, b) = (run(3), run(4));
    assert_ne!(a.digest(), b.digest(), "the seed changes the jobs");
    assert_eq!(a.model_err.to_bits(), b.model_err.to_bits());
}

#[test]
fn every_workload_runs_and_passes_its_checks_at_a_tiny_window() {
    for workload in Workload::ALL {
        let run = Run::execute(RunConfig {
            workload,
            seed: 3,
            seconds: 0.0,
            trace: true,
            scale: 0.05,
        });
        let failed: Vec<_> = run.checks.iter().filter(|c| !c.ok).collect();
        assert!(failed.is_empty(), "{}: {failed:?}", workload.name());
        assert!(run.attempted() > 0 && run.failed() == 0);
        assert_eq!((run.untraced.len(), run.traced.len()), (1, 1));

        let end_to_end = metrics(&run.result_json(false));
        let names: Vec<&str> = end_to_end.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0));
        for (name, value) in &end_to_end {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
        let per_layer = metrics(&run.result_json(true));
        let names: Vec<&str> = per_layer.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0));
        assert!(per_layer.iter().all(|(_, v)| v.is_finite()));
    }
}
