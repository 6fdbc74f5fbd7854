//! Emits the `BENCH_explore` json line: one design-space sweep of the
//! elliptic filter run twice — with dominance pruning and exhaustively —
//! comparing wall time, point outcomes and the Pareto frontier. The two
//! frontiers must be identical (pruning only skips points whose
//! infeasibility is already proven), and every point both sweeps ran
//! must report the identical outcome, work counters included (pruning
//! must not change what any other point sees); the process exits
//! nonzero when either gate fails, which is what CI runs. The rendering
//! lives in [`mcs_bench::explore_bench_line`], where it is golden-tested.

use std::time::Instant;

use mcs_bench::{explore_bench_line, measure_sweep, outcomes_agree, MeasuredSweep};
use mcs_cdfg::designs::elliptic;
use mcs_explore::{FlowVariant, SweepOptions, SweepSpec};
use mcs_obs::RecorderHandle;
use multichip_hls::explore::run_sweep;

/// The sweep CI measures: the paper's headline benchmark across the
/// feasibility boundary. The budget ladder descends from Table 4.14's
/// rate-6 budgets to a uniformly starved vector, so the tightest wave is
/// provably pin-infeasible — which is what dominance pruning skips.
fn spec() -> SweepSpec {
    SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: (4..=8).collect(),
        budgets: vec![
            vec![48, 48, 64, 48, 48],
            vec![32, 48, 64, 48, 48],
            vec![24, 32, 48, 32, 32],
            vec![16, 16, 16, 16, 16],
        ],
    }
}

fn run(prune: bool) -> (MeasuredSweep, mcs_explore::SweepReport) {
    let design = elliptic::partitioned();
    let opts = SweepOptions {
        jobs: 2,
        prune,
        ..SweepOptions::default()
    };
    let t0 = Instant::now();
    let report = run_sweep(design.cdfg(), &spec(), &opts, &RecorderHandle::default())
        .expect("elliptic sweep spec is well-formed");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (measure_sweep(&report, wall_ms), report)
}

fn main() -> std::process::ExitCode {
    let (pruned, pruned_report) = run(true);
    let (exhaustive, exhaustive_report) = run(false);
    let agree = outcomes_agree(&pruned_report, &exhaustive_report);
    println!(
        "{}",
        explore_bench_line(
            "elliptic",
            FlowVariant::ConnectFirst.as_str(),
            &pruned,
            &exhaustive,
            agree
        )
    );
    let mut ok = true;
    if pruned.frontier_digest != exhaustive.frontier_digest {
        eprintln!("elliptic: pruned and exhaustive sweeps disagree on the Pareto frontier");
        ok = false;
    }
    if !agree {
        eprintln!("elliptic: a point both sweeps ran reports different outcomes");
        ok = false;
    }
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
