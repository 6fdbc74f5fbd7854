//! Cross-crate integration tests: each synthesis flow end-to-end on the
//! paper's benchmark designs, with full schedule and connection
//! validation.

use std::sync::Arc;

use mcs_cdfg::{designs, PartitionId, PortMode};
use mcs_ctl::{Budget, BudgetSpec, Termination};
use mcs_metrics::{MetricsHandle, Registry};
use mcs_obs::{BufferingRecorder, Event, RecorderHandle};
use mcs_pinalloc::PinChecker;
use mcs_sched::validate;
use multichip_hls::flows::{
    connect_first_flow, default_pipe_length, run, schedule_first_flow, simple_flow,
    simple_flow_with_checker, ConnectFirstOptions, FlowError, FlowSpec, RunContext,
};

#[test]
fn chapter3_simple_flow_on_the_ar_filter() {
    let d = designs::ar_filter::simple();
    let r = simple_flow(d.cdfg(), 2).expect("the paper's Chapter 3 experiment succeeds");
    assert_eq!(validate(d.cdfg(), &r.schedule), vec![]);
    // Fixed pin splits: P1/P2 48 pins, P3/P4 32; the connection must fit.
    for (p, cap) in [(1u32, 48), (2, 48), (3, 32), (4, 32)] {
        assert!(
            r.pins_used[p as usize] <= cap,
            "P{p} uses {} of {cap}",
            r.pins_used[p as usize]
        );
    }
}

#[test]
fn chapter3_flow_rejects_general_partitionings() {
    let d = designs::ar_filter::general(3, PortMode::Unidirectional);
    assert!(matches!(
        simple_flow(d.cdfg(), 3),
        Err(FlowError::NotSimple(_))
    ));
}

#[test]
fn chapter4_flow_on_the_ar_filter_all_rates_and_modes() {
    for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
        for rate in [3u32, 4, 5] {
            let d = designs::ar_filter::general(rate, mode);
            let mut opts = ConnectFirstOptions::new(rate);
            opts.mode = mode;
            let r = connect_first_flow(d.cdfg(), &opts)
                .unwrap_or_else(|e| panic!("{mode:?} L={rate}: {e}"));
            assert_eq!(validate(d.cdfg(), &r.schedule), vec![]);
            // Every pin budget respected.
            for p in 0..d.cdfg().partition_count() {
                let cap = d.cdfg().partition(PartitionId::new(p as u32)).total_pins;
                assert!(r.pins_used[p] <= cap);
            }
            // Every transfer received a slot.
            assert_eq!(r.placements.len(), d.cdfg().io_ops().count());
        }
    }
}

#[test]
fn chapter4_flow_on_the_elliptic_filter() {
    for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
        for rate in [6u32, 7] {
            let d = designs::elliptic::partitioned_with(rate, mode);
            let mut opts = ConnectFirstOptions::new(rate);
            opts.mode = mode;
            let r = connect_first_flow(d.cdfg(), &opts)
                .unwrap_or_else(|e| panic!("{mode:?} L={rate}: {e}"));
            assert_eq!(validate(d.cdfg(), &r.schedule), vec![]);
            // Feedback transfers preload earlier instances: each starts
            // before the operation that produces its value (the paper's
            // negative-index I/O operations, Section 4.4.2).
            for op in d.cdfg().io_ops() {
                for &e in d.cdfg().preds(op) {
                    let e = d.cdfg().edge(e);
                    if e.degree > 0 {
                        assert!(
                            r.schedule.of(op).step < r.schedule.of(e.from).step,
                            "{mode:?} L={rate}: feedback transfer not preloaded"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn chapter5_flow_on_both_filters() {
    let d = designs::ar_filter::general(3, PortMode::Unidirectional);
    let r = schedule_first_flow(d.cdfg(), 3, 10, PortMode::Unidirectional).expect("AR at L=3");
    assert!(r.pipe_length <= 10);

    let d = designs::elliptic::partitioned_with(6, PortMode::Unidirectional);
    let r = schedule_first_flow(d.cdfg(), 6, 26, PortMode::Unidirectional).expect("EWF at L=6");
    assert!(r.pipe_length <= 26);
}

#[test]
fn chapter6_sharing_never_costs_pins() {
    for rate in [3u32, 4, 5] {
        let d = designs::ar_filter::general(rate, PortMode::Bidirectional);
        let mut plain = ConnectFirstOptions::new(rate);
        plain.mode = PortMode::Bidirectional;
        let mut shared = plain.clone();
        shared.sharing = true;
        let rp = connect_first_flow(d.cdfg(), &plain).expect("plain");
        let rs = connect_first_flow(d.cdfg(), &shared).expect("shared");
        let total =
            |r: &multichip_hls::flows::SynthesisResult| -> u32 { r.pins_used[1..].iter().sum() };
        assert!(total(&rs) <= total(&rp), "L={rate}");
    }
}

#[test]
fn quickstart_design_runs_every_flow() {
    let d = designs::synthetic::quickstart();
    let r = connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(1)).expect("ch4");
    assert_eq!(validate(d.cdfg(), &r.schedule), vec![]);
    let r = schedule_first_flow(d.cdfg(), 2, 8, PortMode::Unidirectional).expect("ch5");
    assert!(r.pipe_length <= 8);
}

/// `run` and the kept wrappers execute the same flow bodies: identical
/// schedules and connections on every flow, with the Chapter 5 flow's
/// missing pipe length resolved through `default_pipe_length`.
#[test]
fn run_matches_the_wrappers_on_every_flow() {
    let d = designs::ar_filter::simple();
    let cdfg = d.cdfg();
    let ctx = RunContext::default();
    let same = |a: &multichip_hls::flows::SynthesisResult,
                b: &multichip_hls::flows::SynthesisResult| {
        assert_eq!(a.schedule.start, b.schedule.start);
        assert_eq!(a.interconnect, b.interconnect);
        assert_eq!(a.pins_used, b.pins_used);
        assert_eq!(a.placements, b.placements);
    };

    let spec = FlowSpec::Simple {
        rate: 2,
        pivot_budget: None,
    };
    let out = run(cdfg, &spec, &ctx);
    assert_eq!(out.termination, Termination::Complete);
    assert!(out.probe_stats.is_some() && !out.exports.probe_memo.is_empty());
    same(
        &out.result.expect("ch3"),
        &simple_flow(cdfg, 2).expect("ch3"),
    );

    let opts = ConnectFirstOptions::new(3);
    let out = run(cdfg, &FlowSpec::Connect(opts.clone()), &ctx);
    assert!(out.search_stats.is_some());
    same(
        &out.result.expect("ch4"),
        &connect_first_flow(cdfg, &opts).expect("ch4"),
    );

    let spec = FlowSpec::Schedule {
        rate: 3,
        pipe_length: None,
        mode: PortMode::Unidirectional,
    };
    let pipe = default_pipe_length(cdfg, 3);
    same(
        &run(cdfg, &spec, &ctx).result.expect("ch5"),
        &schedule_first_flow(cdfg, 3, pipe, PortMode::Unidirectional).expect("ch5"),
    );
}

/// The frozen benchmark sets `ConnectFirstOptions::{budget, metrics}`
/// and calls `connect_first_flow`: the wrapper must still honour both —
/// a one-node ceiling interrupts the search, and the search's node
/// counter lands on the registry behind `opts.metrics`. (The classic
/// single-plan search needs many epochs on the adversarial design, so
/// the ceiling trips at the first barrier.)
#[test]
fn connect_first_flow_honours_the_options_budget_and_metrics() {
    let d = designs::synthetic::portfolio_adversarial(6);
    let reg = Arc::new(Registry::new());
    let mut opts = ConnectFirstOptions::new(2);
    opts.budget = Some(Budget::new(BudgetSpec::default().max_nodes(1)));
    opts.metrics = MetricsHandle::new(reg.clone());
    let res = connect_first_flow(d.cdfg(), &opts);
    assert!(
        matches!(
            res,
            Err(FlowError::Interrupted(Termination::BudgetExhausted))
        ),
        "{res:?}"
    );
    let nodes = reg.snapshot().counters.get("connect.nodes").copied();
    assert!(nodes.is_some_and(|n| n > 0), "{nodes:?}");
}

/// The frozen benchmark passes a recorder to `simple_flow_with_checker`:
/// it must become the run's event sink, so the `flow` phase opens and
/// closes on it.
#[test]
fn simple_flow_with_checker_routes_the_recorder_to_the_event_sink() {
    let d = designs::ar_filter::simple();
    let buf = Arc::new(BufferingRecorder::new());
    let checker = PinChecker::new(d.cdfg(), 2).expect("the gate accepts the design");
    simple_flow_with_checker(
        d.cdfg(),
        2,
        checker,
        &RecorderHandle::new(buf.clone()),
        &MetricsHandle::default(),
    )
    .expect("the chapter 3 experiment succeeds");
    let events = buf.events();
    assert_eq!(
        events.first(),
        Some(&Event::PhaseBegin { phase: "flow" }),
        "{events:?}"
    );
    assert_eq!(events.last(), Some(&Event::PhaseEnd { phase: "flow" }));
}
