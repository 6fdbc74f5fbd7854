//! End-to-end tests of the design-space exploration engine: dominance
//! pruning never changes the Pareto frontier, reports are byte-identical
//! across worker counts, warm starts actually transfer between points,
//! and malformed sweeps are rejected before synthesis.

use std::path::Path;

use mcs_cdfg::designs::{elliptic, Design};
use multichip_hls::explore::{run_sweep, ExploreError};
use multichip_hls::explore_engine::{
    FlowVariant, PointStatus, SweepOptions, SweepReport, SweepSpec,
};
use multichip_hls::obs::RecorderHandle;

fn load(rel: &str) -> Design {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    mcs_cdfg::format::parse(&text).expect("example design parses")
}

fn wide_sweep_spec(flow: FlowVariant) -> SweepSpec {
    SweepSpec {
        design: "wide-sweep".into(),
        flow,
        rates: (2..=6).collect(),
        budgets: vec![vec![64, 64], vec![48, 48], vec![32, 32], vec![16, 16]],
    }
}

fn elliptic_spec() -> SweepSpec {
    SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: vec![5, 6, 7],
        budgets: vec![
            vec![48, 48, 64, 48, 48],
            vec![32, 48, 64, 48, 48],
            vec![24, 32, 48, 32, 32],
            vec![16, 16, 16, 16, 16],
        ],
    }
}

fn sweep(design: &Design, spec: &SweepSpec, jobs: usize, prune: bool) -> SweepReport {
    let opts = SweepOptions {
        jobs,
        prune,
        ..SweepOptions::default()
    };
    run_sweep(design.cdfg(), spec, &opts, &RecorderHandle::default()).expect("well-formed spec")
}

/// The differential guarantee of the ISSUE: pruning skips only points
/// whose pin-infeasibility is already proven, so the pruned and
/// exhaustive sweeps extract identical Pareto frontiers — on both the
/// purpose-built wide-sweep design and the paper's elliptic benchmark.
#[test]
fn pruning_never_changes_the_frontier() {
    let cases = [
        (
            load("../../examples/designs/wide_sweep.mcs"),
            wide_sweep_spec(FlowVariant::Simple),
        ),
        (elliptic::partitioned(), elliptic_spec()),
    ];
    for (design, spec) in &cases {
        let pruned = sweep(design, spec, 2, true);
        let exhaustive = sweep(design, spec, 2, false);
        assert_eq!(
            pruned.frontier, exhaustive.frontier,
            "{}: frontiers diverge",
            spec.design
        );
        assert_eq!(pruned.stats.feasible, exhaustive.stats.feasible);
        assert_eq!(exhaustive.stats.pruned, 0);
        // Every pruned point really is pin-infeasible: the exhaustive
        // sweep proves it by synthesis.
        let by_coord = |r: &SweepReport| {
            r.outcomes
                .iter()
                .map(|o| (o.coord, o.status))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let exhaustive_status = by_coord(&exhaustive);
        let mut pruned_points = 0;
        for o in &pruned.outcomes {
            if o.status == PointStatus::Pruned {
                pruned_points += 1;
                assert_eq!(
                    exhaustive_status[&o.coord],
                    PointStatus::PinInfeasible,
                    "{}: pruned point {:?} is not pin-infeasible",
                    spec.design,
                    o.coord
                );
            } else {
                assert_eq!(o.status, exhaustive_status[&o.coord]);
            }
        }
        assert!(
            pruned_points > 0,
            "{}: the sweep never exercised pruning",
            spec.design
        );
    }
}

/// Pruning changes which points run, never what a point reports: every
/// point that both the pruned and the exhaustive sweep ran has an
/// identical `PointOutcome`, search and probe counters included.
#[test]
fn pruned_and_exhaustive_sweeps_agree_point_for_point() {
    let wide = load("../../examples/designs/wide_sweep.mcs");
    let elliptic = elliptic::partitioned();
    let cases = [
        (&wide, wide_sweep_spec(FlowVariant::Simple)),
        (&wide, wide_sweep_spec(FlowVariant::ConnectFirst)),
        (&elliptic, elliptic_spec()),
    ];
    for (design, spec) in &cases {
        let pruned = sweep(design, spec, 2, true);
        let exhaustive = sweep(design, spec, 2, false);
        let mut shared = 0;
        for o in &pruned.outcomes {
            if o.status == PointStatus::Pruned {
                continue;
            }
            let twin = exhaustive
                .outcomes
                .iter()
                .find(|e| e.coord == o.coord)
                .expect("the exhaustive sweep runs every point");
            assert_eq!(
                (o.status, &o.outcome),
                (twin.status, &twin.outcome),
                "{} ({}): {:?}",
                spec.design,
                spec.flow.as_str(),
                o.coord
            );
            shared += 1;
        }
        assert!(shared > 0, "{}: no point ran in both sweeps", spec.design);
    }
}

/// JSON and CSV renderings are byte-identical at 1, 2 and 8 workers —
/// the wave-barrier publication discipline makes parallelism invisible.
#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let wide = load("../../examples/designs/wide_sweep.mcs");
    let elliptic = elliptic::partitioned();
    let cases = [
        (&wide, wide_sweep_spec(FlowVariant::Simple)),
        (&wide, wide_sweep_spec(FlowVariant::ConnectFirst)),
        (&elliptic, elliptic_spec()),
    ];
    for (design, spec) in &cases {
        let baseline = sweep(design, spec, 1, true);
        for jobs in [2usize, 8] {
            let parallel = sweep(design, spec, jobs, true);
            assert_eq!(
                baseline.to_json(),
                parallel.to_json(),
                "{} ({}): JSON diverges at {jobs} workers",
                spec.design,
                spec.flow.as_str()
            );
            assert_eq!(baseline.to_csv(), parallel.to_csv());
        }
    }
}

/// Only a finished Chapter 3 point publishes a warm-start export (its
/// probe memo): in the wide-sweep Simple sweep every feasible point
/// does, while the elliptic connect-first sweep publishes nothing.
#[test]
fn only_finished_chapter3_points_publish_exports() {
    let wide = load("../../examples/designs/wide_sweep.mcs");
    let report = sweep(&wide, &wide_sweep_spec(FlowVariant::Simple), 2, true);
    assert!(report.stats.feasible > 0);
    assert_eq!(
        report.stats.cache_entries, report.stats.feasible,
        "{:?}",
        report.stats
    );

    let report = sweep(&elliptic::partitioned(), &elliptic_spec(), 2, true);
    assert!(report.stats.feasible > 0);
    assert_eq!(report.stats.cache_entries, 0, "{:?}", report.stats);
}

/// The wide-sweep design flips feasibility along both axes: feasible
/// everywhere at the generous end, exactly pin-infeasible at the
/// starved end, with the boundary moving as the rate relaxes.
#[test]
fn wide_sweep_crosses_the_feasibility_boundary() {
    let design = load("../../examples/designs/wide_sweep.mcs");
    let report = sweep(&design, &wide_sweep_spec(FlowVariant::Simple), 2, false);
    let status = |rate: u32, budget_ix: usize| {
        report
            .outcomes
            .iter()
            .find(|o| o.coord.rate == rate && o.coord.budget_ix == budget_ix)
            .expect("coord in report")
            .status
    };
    // Generous budgets: feasible at every rate.
    for rate in 2..=6 {
        assert_eq!(status(rate, 0), PointStatus::Feasible);
    }
    // 32-pin chips: infeasible at tight rates, feasible at slack ones.
    assert_eq!(status(2, 2), PointStatus::PinInfeasible);
    assert_eq!(status(6, 2), PointStatus::Feasible);
    // Starved budgets: pin-infeasible at every rate.
    for rate in 2..=6 {
        assert_eq!(status(rate, 3), PointStatus::PinInfeasible);
    }
    assert!(!report.frontier.is_empty());
}

/// Budget vectors must have one entry per chip; the error arrives
/// before any synthesis runs.
#[test]
fn budget_arity_is_validated_up_front() {
    let design = load("../../examples/designs/wide_sweep.mcs");
    let mut spec = wide_sweep_spec(FlowVariant::Simple);
    spec.budgets.push(vec![64]);
    let err = run_sweep(
        design.cdfg(),
        &spec,
        &SweepOptions::default(),
        &RecorderHandle::default(),
    )
    .unwrap_err();
    assert_eq!(
        err,
        ExploreError::BudgetArity {
            index: 4,
            expected: 2,
            got: 1,
        }
    );
}
