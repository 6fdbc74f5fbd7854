//! Self-checks of the benchmark binary, run in smoke mode (one pass):
//! two invocations with one seed print identical deterministic fields,
//! and every metric `BENCHMARK.json` names is printed with its unit.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

use mcs_serve::json::{self, Json};

const WORKLOADS: [&str; 3] = ["design_suite", "search_scale", "serve_mix"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// One smoke run: the parsed result line and the deterministic-fields
/// line from standard error.
fn smoke(workload: &str, seed: u64, trace: bool) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    let deterministic = stderr
        .lines()
        .find(|l| l.starts_with("perfbench-deterministic"))
        .expect("a deterministic-fields line")
        .to_string();
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: a check failed\n{stderr}"
    );
    (result, deterministic)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_catalogue(workload: &str, result: &Json, section: &str) {
    let metrics = result.get("metrics").expect("a metrics object");
    for (name, unit) in catalogue(section) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        assert!(m.get("value").is_some(), "{workload}: {name} has no value");
    }
}

/// Values of the per-layer metrics that are work counts, which must
/// repeat exactly for one seed.
fn counts(result: &Json) -> Vec<(String, String)> {
    catalogue("per_layer")
        .into_iter()
        .filter(|(name, unit)| unit == "count" || name == "serve.cache_hit_ratio")
        .map(|(name, _)| {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(&name))
                .and_then(|m| m.get("value"));
            (name, format!("{value:?}"))
        })
        .collect()
}

#[test]
fn one_seed_repeats_every_deterministic_field() {
    for workload in WORKLOADS {
        let (first, first_fields) = smoke(workload, 7, true);
        let (second, second_fields) = smoke(workload, 7, true);
        assert_eq!(first_fields, second_fields, "{workload}");
        assert_eq!(counts(&first), counts(&second), "{workload}");
        assert_catalogue(workload, &first, "per_layer");
    }
}

#[test]
fn smoke_prints_every_end_to_end_metric_with_its_unit() {
    for workload in WORKLOADS {
        let (result, _) = smoke(workload, 3, false);
        assert_catalogue(workload, &result, "end_to_end");
    }
}
