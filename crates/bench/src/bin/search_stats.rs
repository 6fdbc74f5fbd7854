//! Emits a BENCH json line comparing the classic single-worker
//! connection search with the 8-plan portfolio on the adversarial fan-in
//! design: wall time, nodes expanded, nodes/second and the measured
//! speedup, plus the exact-fallback count of a probe sweep over the same
//! design (how often the incremental Gomory tableau overflowed and fell
//! back to the exact solver). The output is one JSON object on stdout,
//! suitable for machine-diffing runs before and after search changes.
//! The rendering lives in [`mcs_bench::search_stats_line`], where it is
//! golden-tested.

use std::time::Instant;

use mcs_bench::{search_stats_line, MeasuredSearch};
use mcs_cdfg::{designs::synthetic, PortMode};
use mcs_connect::{synthesize_with_stats, SearchConfig};
use mcs_pinalloc::PinChecker;

fn run(workers: usize) -> MeasuredSearch {
    let d = synthetic::portfolio_adversarial(6);
    let cfg = SearchConfig::new(2).with_workers(workers);
    let t0 = Instant::now();
    let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
    MeasuredSearch {
        ok: ic.is_ok(),
        stats,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Probes every transfer of the same design into every control-step
/// group and reports the sweep's cache stats: how many probes overflowed
/// the incremental tableau and fell back to the exact solver.
fn probe_sweep_stats() -> mcs_pinalloc::ProbeCacheStats {
    let d = synthetic::portfolio_adversarial(6);
    let Ok(mut checker) = PinChecker::new(d.cdfg(), 2) else {
        return mcs_pinalloc::ProbeCacheStats::default();
    };
    for op in d.cdfg().io_ops() {
        for k in 0..2 {
            checker.can_commit(op, k);
        }
    }
    checker.probe_stats()
}

fn main() {
    let before = run(1);
    let after = run(8);
    println!(
        "{}",
        search_stats_line(
            "portfolio_adversarial",
            6,
            &probe_sweep_stats(),
            &before,
            &after
        )
    );
}
