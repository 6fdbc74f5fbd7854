//! End-to-end tests of the `mcs-hls` command-line tool: every subcommand
//! against the shipped sample design, including the compose-through-text
//! workflow (`partition | simulate`).

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mcs-hls");

fn sample() -> String {
    // Tests run from the crate root (crates/core); the sample lives at the
    // workspace root.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.join("../../examples/designs/pipeline.mcs")
        .to_string_lossy()
        .into_owned()
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("mcs-hls binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_reports_design_statistics() {
    let (ok, stdout, _) = run(&["check", &sample()]);
    assert!(ok);
    assert!(stdout.contains("pipeline"), "{stdout}");
    assert!(stdout.contains("minimum initiation rate"), "{stdout}");
}

#[test]
fn synth_prints_schedule_and_buses() {
    let (ok, stdout, _) = run(&["synth", &sample(), "--rate", "2"]);
    assert!(ok);
    assert!(stdout.contains("pipe length"), "{stdout}");
    assert!(stdout.contains("bus"), "{stdout}");
}

#[test]
fn simulate_verifies_the_outputs() {
    let (ok, stdout, stderr) = run(&["simulate", &sample(), "--rate", "2", "--instances", "5"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("match the reference"), "{stdout}");
}

#[test]
fn rtl_emits_balanced_verilog() {
    let (ok, stdout, _) = run(&["rtl", &sample(), "--rate", "2"]);
    assert!(ok);
    assert_eq!(
        stdout.matches("module ").count(),
        stdout.matches("endmodule").count()
    );
    assert!(stdout.contains("module top"), "{stdout}");
}

#[test]
fn fmt_is_idempotent_through_the_cli() {
    let (ok, once, _) = run(&["fmt", &sample()]);
    assert!(ok);
    let tmp = std::env::temp_dir().join("mcs_cli_fmt_test.mcs");
    std::fs::write(&tmp, &once).unwrap();
    let (ok2, twice, _) = run(&["fmt", tmp.to_str().unwrap()]);
    assert!(ok2);
    assert_eq!(once, twice);
}

#[test]
fn partition_output_simulates_cleanly() {
    let (ok, text, stderr) = run(&["partition", &sample(), "--chips", "2", "--pins", "48"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("cut:"), "{stderr}");
    let tmp = std::env::temp_dir().join("mcs_cli_partition_test.mcs");
    std::fs::write(&tmp, &text).unwrap();
    let (ok2, stdout, stderr2) = run(&[
        "simulate",
        tmp.to_str().unwrap(),
        "--rate",
        "2",
        "--instances",
        "6",
    ]);
    assert!(ok2, "{stderr2}");
    assert!(stdout.contains("match the reference"), "{stdout}");
}

#[test]
fn every_shipped_sample_design_simulates() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/designs");
    let mut found = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "mcs") {
            continue;
        }
        found += 1;
        let p = path.to_str().unwrap();
        let (ok, _, stderr) = run(&["check", p]);
        assert!(ok, "{p}: {stderr}");
        let (ok, stdout, stderr) = run(&["simulate", p, "--rate", "3", "--instances", "6"]);
        assert!(ok, "{p}: {stderr}");
        assert!(stdout.contains("match the reference"), "{p}: {stdout}");
    }
    assert!(found >= 3, "sample designs must ship with the repo");
}

fn elliptic_benchmark() -> String {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.join("../../examples/benchmarks/elliptic.mcs")
        .to_string_lossy()
        .into_owned()
}

#[test]
fn synth_trace_out_writes_a_valid_chrome_trace() {
    let tmp = std::env::temp_dir().join("mcs_cli_trace_test.json");
    let (ok, _, stderr) = run(&[
        "synth",
        &elliptic_benchmark(),
        "--rate",
        "6",
        "--trace-out",
        tmp.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("trace:"), "{stderr}");
    let text = std::fs::read_to_string(&tmp).unwrap();
    multichip_hls::codec::json::parse(&text).expect("chrome trace is strict JSON");
    assert!(text.contains("\"traceEvents\""), "not a chrome trace");
    // The acceptance bar: all four pipeline phases span the trace, at
    // least three distinct decision kinds appear, and counters stay out
    // of it (they live in `--metrics-out`).
    for phase in ["connect", "schedule", "postsyn", "pin-check"] {
        assert!(
            text.contains(&format!("\"name\":\"{phase}\"")),
            "{phase} span missing"
        );
    }
    let kinds = [
        "ScheduleDecision",
        "PinCheck",
        "SearchNode",
        "BusReassign",
        "GomoryCut",
    ];
    let present = kinds
        .iter()
        .filter(|k| text.contains(&format!("\"name\":\"{k}\"")))
        .count();
    assert!(present >= 3, "only {present} decision kinds in trace");
    assert!(!text.contains("\"ph\":\"C\""), "counter samples in trace");
}

#[test]
fn synth_trace_out_jsonl_is_one_object_per_line() {
    let tmp = std::env::temp_dir().join("mcs_cli_trace_test.jsonl");
    let (ok, _, stderr) = run(&[
        "synth",
        &sample(),
        "--rate",
        "2",
        "--trace-out",
        tmp.to_str().unwrap(),
        "--trace-format",
        "jsonl",
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&tmp).unwrap();
    assert!(text.lines().count() > 4, "{text}");
    for line in text.lines() {
        multichip_hls::codec::json::parse(line).expect("each line is strict JSON");
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
}

#[test]
fn explain_prints_the_per_phase_summary() {
    let (ok, stdout, stderr) = run(&["explain", &sample(), "--rate", "2"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("events recorded"), "{stdout}");
    for phase in ["connect", "schedule", "postsyn", "pin-check"] {
        assert!(stdout.contains(phase), "{phase} missing:\n{stdout}");
    }
    assert!(stdout.contains("bus reassignments"), "{stdout}");
    assert!(stdout.contains("peak pin pressure"), "{stdout}");
}

/// `explain` states each fact once: counters and wall time live only in
/// the metrics table, so no metric name sits on two rows, and the span
/// tree covers every phase the decision summary shows.
#[test]
fn explain_states_each_fact_once() {
    let (ok, stdout, stderr) = run(&[
        "explain",
        &elliptic_benchmark(),
        "--rate",
        "6",
        "--flow",
        "connect",
    ]);
    assert!(ok, "{stderr}");
    for phase in ["connect", "schedule", "postsyn", "pin-check"] {
        assert!(stdout.contains(phase), "{phase} missing:\n{stdout}");
    }
    assert!(stdout.contains("bus reassignments"), "{stdout}");
    assert!(stdout.contains("peak pin pressure"), "{stdout}");
    // Rows naming a metric: dotted counter/gauge/histogram names, in any
    // table, and every row of the metrics table's four kinds.
    let mut rows: std::collections::BTreeMap<&str, usize> = Default::default();
    for line in stdout.lines() {
        let mut cols = line.split_whitespace();
        let (Some(name), Some(kind)) = (cols.next(), cols.next()) else {
            continue;
        };
        if name.contains('.') || ["counter", "gauge", "histogram", "span"].contains(&kind) {
            *rows.entry(name).or_default() += 1;
        }
    }
    for (name, n) in &rows {
        assert_eq!(*n, 1, "{name} on {n} rows:\n{stdout}");
    }
    for fact in ["flow.reassigned", "rematch.rounds", "flow/postsyn"] {
        assert!(rows.contains_key(fact), "{fact} missing:\n{stdout}");
    }
}

#[test]
fn bad_trace_format_is_rejected() {
    let (ok, _, stderr) = run(&[
        "synth",
        &sample(),
        "--trace-out",
        "x",
        "--trace-format",
        "xml",
    ]);
    assert!(!ok);
    assert!(stderr.contains("chrome"), "{stderr}");
}

#[test]
fn dot_emits_both_graph_kinds() {
    let (ok, cdfg_dot, _) = run(&["dot", &sample()]);
    assert!(ok);
    assert!(cdfg_dot.starts_with("digraph"), "{cdfg_dot}");
    let (ok2, bus_dot, _) = run(&["dot", &sample(), "--rate", "2", "--buses"]);
    assert!(ok2);
    assert!(bus_dot.starts_with("graph interconnect"), "{bus_dot}");
}

#[test]
fn bad_input_fails_with_a_line_number() {
    let tmp = std::env::temp_dir().join("mcs_cli_bad_test.mcs");
    std::fs::write(&tmp, "stage 100\nfunc f add Nowhere 8\n").unwrap();
    let (ok, _, stderr) = run(&["check", tmp.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn unknown_flow_is_rejected() {
    let (ok, _, stderr) = run(&["synth", &sample(), "--flow", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flow"), "{stderr}");
}

fn wide_sweep() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/designs/wide_sweep.mcs")
        .to_string_lossy()
        .into_owned()
}

#[test]
fn explore_writes_strict_json_and_csv() {
    let json_path = std::env::temp_dir().join("mcs_cli_explore_test.json");
    let csv_path = std::env::temp_dir().join("mcs_cli_explore_test.csv");
    let (ok, _, stderr) = run(&[
        "explore",
        &wide_sweep(),
        "--rates",
        "2..4",
        "--pin-budgets",
        "64,64:32,32",
        "--flow",
        "simple",
        "--jobs",
        "2",
        "--out",
        json_path.to_str().unwrap(),
        "--csv",
        csv_path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("frontier"), "{stderr}");
    let json = std::fs::read_to_string(&json_path).expect("JSON written");
    multichip_hls::codec::json::parse(&json).expect("strict JSON");
    assert!(json.contains("\"design\":\"wide-sweep\""), "{json}");
    let csv = std::fs::read_to_string(&csv_path).expect("CSV written");
    assert!(csv.starts_with("rate,budget_ix,budget,status"), "{csv}");
    // 3 rates x 2 budgets = 6 data rows after the header.
    assert_eq!(csv.lines().count(), 1 + 6, "{csv}");
    let _ = std::fs::remove_file(json_path);
    let _ = std::fs::remove_file(csv_path);
}

#[test]
fn explore_rejects_malformed_lattices() {
    let (ok, _, stderr) = run(&["explore", &wide_sweep(), "--rates", "2..4"]);
    assert!(!ok);
    assert!(stderr.contains("--pin-budgets"), "{stderr}");
    let (ok, _, stderr) = run(&[
        "explore",
        &wide_sweep(),
        "--rates",
        "9..2",
        "--pin-budgets",
        "64,64",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--rates"), "{stderr}");
    let (ok, _, stderr) = run(&[
        "explore",
        &wide_sweep(),
        "--rates",
        "2..4",
        "--pin-budgets",
        "64,64,64",
    ]);
    assert!(!ok);
    assert!(stderr.contains("2 chips"), "{stderr}");
}

/// A rate whose pin-allocation tableau would need terabytes is refused
/// with an error and exit 1, not an allocation abort — on `synth`, and
/// on `resynth` when a saved result carries that rate.
#[test]
fn oversized_rate_fails_cleanly() {
    let sample = sample();
    let out = Command::new(BIN)
        .args(["synth", &sample, "--rate", "100000", "--flow", "simple"])
        .output()
        .expect("mcs-hls binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("over the limit of"), "{stderr}");

    let dir = std::env::temp_dir().join(format!("mcs-oversized-rate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prev = dir.join("prev.json");
    let prev = prev.to_string_lossy();
    let (ok, _, stderr) = run(&[
        "synth",
        &sample,
        "--rate",
        "2",
        "--flow",
        "simple",
        "--out-result",
        &prev,
    ]);
    assert!(ok, "{stderr}");
    let saved = std::fs::read_to_string(&*prev).unwrap();
    let huge = saved.replace("\"rate\":2,", "\"rate\":100000,");
    assert_ne!(huge, saved);
    std::fs::write(&*prev, huge).unwrap();
    let out = Command::new(BIN)
        .args([
            "resynth",
            &sample,
            "--prev",
            &prev,
            "--edit",
            "width:sum=16",
        ])
        .output()
        .expect("mcs-hls binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("over the limit of"), "{stderr}");
}

/// Every flow refuses a rate past the flows' ceiling before any layer
/// allocates: exit 1 with the error, where the connect-first flow used to
/// ask for gigabytes of bus-slot table and abort with 134.
#[test]
fn every_flow_refuses_a_rate_past_the_ceiling() {
    let sample = sample();
    for flow in ["simple", "connect", "schedule"] {
        let out = Command::new(BIN)
            .args(["synth", &sample, "--rate", "100000000", "--flow", flow])
            .output()
            .expect("mcs-hls binary runs");
        assert_eq!(out.status.code(), Some(1), "{flow}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("initiation rate 100000000 is over the limit of 256"),
            "{flow}: {stderr}"
        );
    }
}

/// `simulate` refuses an instance count past its ceiling with a usage
/// error instead of aborting while it builds the stimulus.
#[test]
fn simulate_refuses_too_many_instances() {
    let out = Command::new(BIN)
        .args([
            "simulate",
            &sample(),
            "--rate",
            "2",
            "--instances",
            "4000000000",
        ])
        .output()
        .expect("mcs-hls binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--instances is over the limit of 4096"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// The schedule-first flow builds no pin checker; a huge rate is refused
/// before force-directed scheduling starts, so the command exits 1 within
/// a second instead of running for hours.
#[test]
fn oversized_schedule_first_rate_fails_within_a_second() {
    use std::time::{Duration, Instant};
    let sample = sample();
    let mut child = Command::new(BIN)
        .args(["synth", &sample, "--rate", "100000", "--flow", "schedule"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("mcs-hls binary runs");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on mcs-hls") {
            break Some(status);
        }
        if started.elapsed() > Duration::from_secs(1) {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let status = status.expect("mcs-hls answered within a second");
    assert_eq!(status.code(), Some(1));
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("over the limit of"), "{stderr}");
}
