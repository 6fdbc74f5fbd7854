//! Diffs a fresh BENCH json file against a committed baseline and exits
//! nonzero on any regression — the CI perf gate.
//!
//! ```text
//! bench_compare probe <baseline.json> <fresh.json>
//! bench_compare fuzz  <baseline.json> <fresh.json>
//! bench_compare serve <baseline.json> <fresh.json>
//! bench_compare resynth <baseline.json> <fresh.json>
//! bench_compare search <baseline.json> <fresh.json>
//! bench_compare --self-test
//! ```
//!
//! Deterministic fields (probe counts, verdict digests, differential
//! agreement, fuzz outcomes, shrink results, search node counts and
//! result digests) hard-fail on any change.
//! Within-run performance ratios (trail-vs-clone speedup, trail
//! allocations) fail past a tolerance. Absolute wall times are never
//! compared — they belong to the machine, not the code. The field
//! policy lives in [`mcs_bench::compare`], where it is unit-tested;
//! `--self-test` additionally proves, in-process, that an injected 2x
//! wall-time slowdown trips the gate and that a byte-identical run
//! passes.

use std::process::ExitCode;

use mcs_bench::compare::{
    compare_fuzz, compare_probe, compare_resynth, compare_search, compare_serve, render_findings,
    Finding,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_compare <probe|fuzz|serve|resynth|search> <baseline.json> <fresh.json> \
         | --self-test"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("bench_compare: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn gate(findings: Vec<Finding>) -> ExitCode {
    println!("{}", render_findings(&findings));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Proves the gate trips: a synthetic 2x slowdown of the trail engine
/// (doubled wall time, halved within-run speedup) must produce at least
/// one finding, and the unmodified line must produce none.
fn self_test() -> ExitCode {
    let baseline = "{\"bench\":\"probe\",\"design\":\"selftest\",\"rate\":2,\
        \"trail\":{\"probes\":64,\"feasible\":48,\"allocations\":0,\
        \"alloc_bytes\":0,\"wall_ms\":5.000,\"verdict_digest\":42},\
        \"wide\":{\"probes\":64,\"feasible\":48,\"allocations\":0,\
        \"alloc_bytes\":0,\"wall_ms\":9.000,\"verdict_digest\":42},\
        \"clone\":{\"probes\":64,\"feasible\":48,\"allocations\":600,\
        \"alloc_bytes\":819200,\"wall_ms\":40.000,\"verdict_digest\":42},\
        \"agree\":true,\"alloc_ratio\":600.00,\"speedup\":8.00,\
        \"wide_ratio\":1.80}";
    // The injected regression: trail wall time 5ms -> 10ms, so the
    // within-run speedup drops from 8.00 to 4.00.
    let slowed = baseline
        .replace("\"wall_ms\":5.000", "\"wall_ms\":10.000")
        .replace("\"speedup\":8.00", "\"speedup\":4.00");

    let clean = compare_probe(baseline, baseline).expect("baseline parses");
    if !clean.is_empty() {
        eprintln!("bench_compare: self-test FAILED: identical runs produced findings");
        return ExitCode::FAILURE;
    }
    let tripped = compare_probe(baseline, &slowed).expect("slowed line parses");
    if tripped.is_empty() {
        eprintln!("bench_compare: self-test FAILED: 2x slowdown did not trip the gate");
        return ExitCode::FAILURE;
    }
    println!(
        "bench_compare: self-test OK (identical run passes; 2x slowdown trips: {})",
        tripped
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => self_test(),
        Some(mode @ ("probe" | "fuzz" | "serve" | "resynth" | "search")) => {
            let (Some(baseline), Some(fresh)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let (baseline, fresh) = match (read(baseline), read(fresh)) {
                (Ok(b), Ok(f)) => (b, f),
                (Err(c), _) | (_, Err(c)) => return c,
            };
            let result = match mode {
                "probe" => compare_probe(&baseline, &fresh),
                "fuzz" => compare_fuzz(&baseline, &fresh),
                "resynth" => compare_resynth(&baseline, &fresh),
                "search" => compare_search(&baseline, &fresh),
                _ => compare_serve(&baseline, &fresh),
            };
            match result {
                Ok(findings) => gate(findings),
                Err(e) => {
                    eprintln!("bench_compare: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
