//! Tests of the benchmark itself: a tiny pass of every workload clears
//! the correctness gate, the printed names match `BENCHMARK.json`, and
//! the compile-and-simulate pipeline agrees with `sdds::run_with`.

use sdds_perfbench::matrix::{self, Kind};
use sdds_perfbench::{run, Opts, Size, END_TO_END, PER_LAYER, WORKLOADS};
use sdds_workloads::WorkloadScale;

fn tiny(trace: bool) -> Opts {
    Opts {
        seed: 5,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array is closed")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name is closed")].to_owned())
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn names_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(names(&json, "workloads"), WORKLOADS);
    let listed =
        |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(&json, "end_to_end"), listed(&END_TO_END));
    assert_eq!(names(&json, "per_layer"), listed(&PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lists {name} with another unit"
        );
    }
}

#[test]
fn untraced_tiny_runs_clear_the_gate() {
    for w in WORKLOADS {
        let rep = run(w, &tiny(false)).expect("workload runs");
        assert!(rep.correct(), "{w}: {:?}", rep.gate.reasons);
        let printed: Vec<&str> = rep.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(printed, listed, "{w}");
        for m in &rep.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }
        let last = rep.render(w).lines().last().expect("output").to_owned();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
    }
}

#[test]
fn traced_tiny_runs_clear_the_gate_and_keep_the_digest() {
    for w in WORKLOADS {
        let traced = run(w, &tiny(true)).expect("traced workload runs");
        assert!(traced.correct(), "{w}: {:?}", traced.gate.reasons);
        let printed: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(printed, listed, "{w}");
        assert!(traced
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value >= 0.0));
        let untraced = run(w, &tiny(false)).expect("workload runs");
        assert_eq!(
            traced.digest, untraced.digest,
            "{w}: tracing changed the model outputs"
        );
    }
}

#[test]
fn sweep_scheduling_is_the_largest_compile_layer() {
    let rep = run("sensitivity-sweep", &tiny(true)).expect("sweep runs");
    let get = |name: &str| rep.metrics.iter().find(|m| m.name == name).map(|m| m.value);
    let schedule = get("compiler.schedule_s").expect("listed");
    assert!(schedule > get("compiler.slack_s").expect("listed"));
    assert!(schedule > get("compiler.trace_s").expect("listed"));
    // δ = 20 and θ = 4 share a schedule key: one real hit per app.
    assert_eq!(get("core.cache.schedule_hits"), Some(6.0));
}

#[test]
fn pipeline_matches_the_library_entry_point() {
    for kind in [Kind::PaperMatrix, Kind::SensitivitySweep] {
        for cell in matrix::cells(kind, WorkloadScale::test()).iter().step_by(7) {
            matrix::matches_library(cell).unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        }
    }
}

#[test]
fn readme_maps_every_layer_metric() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("perfbench/README.md");
    for (name, _) in PER_LAYER {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README does not map {name}"
        );
    }
}
