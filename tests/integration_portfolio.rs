//! Determinism and differential tests for the parallel portfolio
//! connection search: the `workers` knob must never change *what* is
//! synthesized (only how fast), and the Chapter 4 connection-first flow
//! must agree with the Chapter 3 simple flow on designs both can handle.

use mcs_cdfg::{designs, Cdfg, PortMode};
use mcs_connect::{synthesize_with_stats, SearchConfig};
use mcs_sched::validate;
use mcs_sim::{verify, Semantics, Stimulus};
use multichip_hls::flows::{connect_first_flow, simple_flow, ConnectFirstOptions, Contract};

/// Portfolio size pinned for the determinism runs: the result is defined
/// by the portfolio, so thread counts {1, 2, 8} must all reproduce it.
const PORTFOLIO: usize = 4;
const REPS: usize = 20;

fn assert_deterministic(name: &str, cdfg: &Cdfg, rate: u32) {
    let cfg = SearchConfig::new(rate).with_portfolio(PORTFOLIO);
    let (reference, _) = synthesize_with_stats(cdfg, PortMode::Unidirectional, &cfg);
    let reference = reference.unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    for workers in [1usize, 2, 8] {
        for rep in 0..REPS {
            let cfg = SearchConfig::new(rate)
                .with_workers(workers)
                .with_portfolio(PORTFOLIO);
            let (ic, stats) = synthesize_with_stats(cdfg, PortMode::Unidirectional, &cfg);
            let ic =
                ic.unwrap_or_else(|e| panic!("{name}: workers={workers} rep={rep} failed: {e}"));
            assert_eq!(
                ic, reference,
                "{name}: workers={workers} rep={rep} synthesized a different interconnect"
            );
            assert_eq!(
                stats.threads,
                workers.clamp(1, PORTFOLIO),
                "{name}: thread provenance mismatch"
            );
            assert_eq!(stats.workers.len(), PORTFOLIO);
            assert!(stats.winner.is_some(), "{name}: no winner recorded");
        }
    }
}

#[test]
fn elliptic_connection_is_identical_across_thread_counts() {
    let d = designs::elliptic::partitioned();
    assert_deterministic(d.name(), d.cdfg(), 6);
}

#[test]
fn ar_filter_connection_is_identical_across_thread_counts() {
    let d = designs::ar_filter::general(3, PortMode::Unidirectional);
    assert_deterministic(d.name(), d.cdfg(), 3);
}

/// The observability contract on the whole pipeline: event *payloads*
/// carry no wall-clock data, and every instrumented decision is recorded
/// from a deterministic point, so the full event stream of a traced
/// connect-first run is byte-identical across thread counts.
#[test]
fn traced_flow_event_stream_is_identical_across_thread_counts() {
    use multichip_hls::metrics::MetricsHandle;
    use multichip_hls::obs::{BufferingRecorder, Event, RecorderHandle};
    use std::sync::Arc;

    let d = designs::ar_filter::general(3, PortMode::Unidirectional);
    let trace = |workers: usize| -> Vec<Event> {
        let buf = Arc::new(BufferingRecorder::new());
        let mut opts = ConnectFirstOptions::new(3);
        opts.workers = workers;
        opts.portfolio = Some(PORTFOLIO);
        opts.metrics = MetricsHandle::default().with_events(&RecorderHandle::new(buf.clone()));
        connect_first_flow(d.cdfg(), &opts).unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        buf.events()
    };
    let reference = trace(1);
    assert!(!reference.is_empty());
    assert!(reference
        .iter()
        .any(|e| matches!(e, Event::SearchNode { .. })));
    assert!(reference
        .iter()
        .any(|e| matches!(e, Event::ScheduleDecision { .. })));
    for workers in [2usize, 8] {
        assert_eq!(
            trace(workers),
            reference,
            "workers={workers} changed the recorded event stream"
        );
    }
}

/// Chapter 3 vs Chapter 4 on designs with simple partitionings: both
/// flows must validate, the connection-first result must respect every
/// chip's pin budget, and the simulator must accept both schedules.
#[test]
fn chapter3_and_chapter4_flows_agree_on_simple_partitions() {
    // Rates where both flows succeed: the chapter 4 heuristic cannot
    // connect the AR filter's fixed pin split at rate 2, so the shared
    // point is rate 3.
    let shared = [
        (designs::ar_filter::simple(), 3u32),
        (designs::synthetic::tdm_example(true), 2u32),
        (designs::synthetic::fig_7_4(2, 2, 2), 4u32),
    ];
    for (d, rate) in &shared {
        let cdfg = d.cdfg();
        let r3 = simple_flow(cdfg, *rate)
            .unwrap_or_else(|e| panic!("{}: chapter 3 flow failed: {e}", d.name()));
        let mut opts = ConnectFirstOptions::new(*rate);
        opts.workers = 8;
        let r4 = connect_first_flow(cdfg, &opts)
            .unwrap_or_else(|e| panic!("{}: chapter 4 flow failed: {e}", d.name()));

        assert_eq!(validate(cdfg, &r3.schedule), vec![], "{}: ch3", d.name());
        assert_eq!(validate(cdfg, &r4.schedule), vec![], "{}: ch4", d.name());

        // Only the connection-first flow reports search telemetry.
        assert!(r3.search_stats.is_none(), "{}", d.name());
        let stats = r4
            .search_stats
            .as_ref()
            .unwrap_or_else(|| panic!("{}: chapter 4 lost its search stats", d.name()));
        assert!(stats.nodes > 0, "{}: empty search", d.name());

        // The chapter 4 connection must fit every chip's pin budget.
        let ic4 = r4.final_interconnect();
        let over: Vec<_> = ic4.over_budget(cdfg).collect();
        assert!(over.is_empty(), "{}: over budget: {over:?}", d.name());
        assert_eq!(
            r4.check(cdfg, Contract::Constrained),
            Ok(()),
            "{}",
            d.name()
        );

        // Both synthesized machines execute the same function: identical
        // stimulus, cycle-accurate simulation, checked primary outputs.
        let stim = Stimulus::random(cdfg, 4, 0xD1FF ^ *rate as u64);
        let sem = Semantics::new();
        verify(
            cdfg,
            &r3.schedule,
            Some(&r3.final_interconnect()),
            &sem,
            &stim,
        )
        .unwrap_or_else(|v| panic!("{}: ch3 violations: {v:?}", d.name()));
        verify(cdfg, &r4.schedule, Some(&ic4), &sem, &stim)
            .unwrap_or_else(|v| panic!("{}: ch4 violations: {v:?}", d.name()));
    }
}

/// The portfolio and the classic search agree bus-for-bus when the
/// portfolio is pinned to one plan — the compatibility guarantee that
/// lets `workers = 1` reproduce the pre-portfolio engine exactly.
#[test]
fn portfolio_of_one_reproduces_the_classic_search() {
    for (d, rate) in [
        (designs::elliptic::partitioned(), 6u32),
        (designs::ar_filter::general(4, PortMode::Unidirectional), 4),
    ] {
        let cdfg = d.cdfg();
        let classic =
            mcs_connect::synthesize(cdfg, PortMode::Unidirectional, &SearchConfig::new(rate))
                .expect("classic search connects");
        let (pinned, stats) = synthesize_with_stats(
            cdfg,
            PortMode::Unidirectional,
            &SearchConfig::new(rate).with_workers(8).with_portfolio(1),
        );
        assert_eq!(pinned.expect("pinned portfolio connects"), classic);
        assert_eq!(stats.threads, 1, "portfolio of one needs one thread");
    }
}

/// The `(nodes, digest)` the committed `BENCH_search.json` baseline
/// holds for `design`: the `search_scale` shapes' golden values live
/// there only, so this test and the `bench_compare search` gate cannot
/// drift apart.
fn bench_search_baseline(design: &str) -> (u64, u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_search.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_search.json at the repository root");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let row = mcs_codec::json::parse(line).expect("a JSON row");
        if row.get("design").and_then(|d| d.as_str()) == Some(design) {
            let field = |k| {
                row.get(k)
                    .and_then(|v| v.as_u64())
                    .expect("nodes and digest")
            };
            return (field("nodes"), field("digest"));
        }
    }
    panic!("BENCH_search.json has no {design} row");
}

/// Golden search counts: the nodes expanded and the digest of the
/// connection found, at one worker, on two `search_scale` benchmark
/// shapes and three screened fuzz seeds (feasible at L4 after a few
/// hundred to a thousand nodes). Any change to the search's node order
/// moves these numbers, so a pure speed change must leave them alone.
#[test]
fn search_node_counts_and_results_are_pinned() {
    use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
    let fuzz = |seed| design_from_seed(&FuzzConfig::default(), seed);
    let (mesh_nodes, mesh_digest) = bench_search_baseline("large_mesh6_L4");
    let (adv_nodes, adv_digest) = bench_search_baseline("adversarial5_L2");
    let cases = [
        (
            "large_mesh(6)",
            designs::synthetic::large_mesh(6),
            4u32,
            mesh_nodes,
            mesh_digest,
        ),
        (
            "portfolio_adversarial(5)",
            designs::synthetic::portfolio_adversarial(5),
            2,
            adv_nodes,
            adv_digest,
        ),
        ("fuzz 56", fuzz(56), 4, 151, 0xbcba_b077_a565_8502),
        ("fuzz 124", fuzz(124), 4, 387, 0x23ad_ed9d_3aec_4e36),
        ("fuzz 198", fuzz(198), 4, 1_049, 0x1738_7ae8_1f81_7e59),
    ];
    for (name, d, rate, nodes, digest) in cases {
        let (ic, stats) =
            synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(rate));
        let ic = ic.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(stats.nodes, nodes, "{name}: node count");
        assert_eq!(
            ic.digest(),
            digest,
            "{name}: result digest {:#x}",
            ic.digest()
        );
    }
    // A four-plan portfolio: the same pinned result at 1, 2 and 8
    // threads.
    let d = designs::synthetic::large_mesh(6);
    for workers in [1usize, 2, 8] {
        let cfg = SearchConfig::new(4).with_portfolio(4).with_workers(workers);
        let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        assert_eq!(stats.nodes, 638, "workers={workers}: node count");
        assert_eq!(
            ic.unwrap().digest(),
            0x2516_470e_baa8_b365,
            "workers={workers}"
        );
    }
}

/// One point of the `design_suite` elliptic sweep below: `(rate, budget
/// index, search nodes, status, detail, (latency, pins, buses,
/// registers))`, the measures present only for a feasible point.
type SweepRow<'a> = (
    u32,
    usize,
    u64,
    &'a str,
    &'a str,
    Option<(i64, u32, u32, u32)>,
);

const NO_CONNECTION: &str =
    "connection synthesis failed: heuristic search found no interchip connection";
const DEADLINE: &str = "scheduling failed: op30 missed a recursive-edge deadline";
const NO_PINS: &str = "no pin allocation exists even before scheduling";

/// Each point of the elliptic connect-first lattice that perfbench's
/// `design_suite` sweeps, run alone through `run_point` with no donors,
/// recorded while the connection search still kept a failure-proof
/// cache: 4 083 search nodes in all. No point probes the pin checker.
const ELLIPTIC_LONE_POINTS: [SweepRow<'static>; 20] = [
    (4, 0, 1535, "search-failed", NO_CONNECTION, None),
    (5, 0, 834, "search-failed", DEADLINE, None),
    (6, 0, 102, "feasible", "", Some((30, 240, 3, 37))),
    (7, 0, 133, "feasible", "", Some((26, 224, 3, 35))),
    (8, 0, 137, "feasible", "", Some((29, 208, 2, 35))),
    (4, 1, 163, "search-failed", NO_CONNECTION, None),
    (5, 1, 303, "search-failed", NO_CONNECTION, None),
    (6, 1, 258, "feasible", "", Some((30, 240, 3, 37))),
    (7, 1, 374, "feasible", "", Some((28, 224, 3, 35))),
    (8, 1, 244, "feasible", "", Some((27, 208, 2, 37))),
    (4, 2, 0, "pin-infeasible", NO_PINS, None),
    (5, 2, 0, "pin-infeasible", NO_PINS, None),
    (6, 2, 0, "pin-infeasible", NO_PINS, None),
    (7, 2, 0, "pin-infeasible", NO_PINS, None),
    (8, 2, 0, "pin-infeasible", NO_PINS, None),
    (4, 3, 0, "pin-infeasible", NO_PINS, None),
    (5, 3, 0, "pin-infeasible", NO_PINS, None),
    (6, 3, 0, "pin-infeasible", NO_PINS, None),
    (7, 3, 0, "pin-infeasible", NO_PINS, None),
    (8, 3, 0, "pin-infeasible", NO_PINS, None),
];

/// `p` at `(rate, budget_ix)` as a [`SweepRow`], after checking that it
/// carries no probe counters and has all four measures or none.
fn sweep_row(
    rate: u32,
    budget_ix: usize,
    p: &multichip_hls::explore_engine::PointOutcome,
) -> SweepRow<'_> {
    assert_eq!(
        (p.solver_probes, p.probe_memo_hits, p.probe_seed_hits),
        (0, 0, 0)
    );
    let measures = match (p.latency, p.total_pins, p.buses, p.registers) {
        (Some(l), Some(pins), Some(b), Some(r)) => Some((l, pins, b, r)),
        (None, None, None, None) => None,
        partial => panic!("({rate}, {budget_ix}): partial measures {partial:?}"),
    };
    let status = p.status.expect("a run point has a status").as_str();
    (rate, budget_ix, p.search_nodes, status, &p.detail, measures)
}

/// The elliptic connect-first sweep that perfbench's `design_suite`
/// times: every point, run alone and run inside the sweep at 1 and 2
/// jobs, reproduces its recorded lone outcome field for field, search
/// nodes included. A point the sweep prunes was recorded pin-infeasible.
#[test]
fn elliptic_sweep_points_match_their_lone_runs() {
    use multichip_hls::explore::{run_point, run_sweep, with_pin_budgets};
    use multichip_hls::explore_engine::{FlowVariant, PointStatus, SweepOptions, SweepSpec};
    use multichip_hls::flows::RunContext;
    let spec = SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: (4..=8).collect(),
        budgets: vec![
            vec![48, 48, 64, 48, 48],
            vec![32, 48, 64, 48, 48],
            vec![24, 32, 48, 32, 32],
            vec![16, 16, 16, 16, 16],
        ],
    };
    let total: u64 = ELLIPTIC_LONE_POINTS.iter().map(|r| r.2).sum();
    assert_eq!(total, 4_083);
    let d = designs::elliptic::partitioned();
    for row in ELLIPTIC_LONE_POINTS {
        let (rate, ix) = (row.0, row.1);
        let cdfg = with_pin_budgets(d.cdfg(), &spec.budgets[ix]);
        let lone = run_point(
            &cdfg,
            FlowVariant::ConnectFirst,
            rate,
            &RunContext::default(),
        );
        assert_eq!(sweep_row(rate, ix, &lone.point), row, "lone run");
        assert!(
            lone.export.is_none(),
            "a connect-first point exports nothing"
        );
    }
    for jobs in [1usize, 2] {
        let opts = SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        let report = run_sweep(
            d.cdfg(),
            &spec,
            &opts,
            &multichip_hls::obs::RecorderHandle::default(),
        )
        .expect("the sweep runs");
        assert_eq!(report.outcomes.len(), ELLIPTIC_LONE_POINTS.len());
        for o in &report.outcomes {
            let (rate, ix) = (o.coord.rate, o.coord.budget_ix);
            let row = ELLIPTIC_LONE_POINTS
                .iter()
                .find(|r| (r.0, r.1) == (rate, ix))
                .expect("a recorded point");
            if o.status == PointStatus::Pruned {
                assert_eq!(
                    row.3, "pin-infeasible",
                    "jobs={jobs}: ({rate}, {ix}) pruned"
                );
            } else {
                assert_eq!(sweep_row(rate, ix, &o.outcome), *row, "jobs={jobs}");
            }
        }
    }
}

/// `(name, design, rate, portfolio, nodes, digest)` of one search below;
/// no digest means no connection was found.
type PinnedSearch = (&'static str, designs::Design, u32, usize, u64, Option<u64>);

/// Searches on which the failure-proof cache the connection search used
/// to keep did prune in-run, with each result (the connection's digest,
/// or `NoConnectionFound`) recorded while it did, bidirectional ports and
/// the default configuration otherwise. Dropping the cache can only
/// delay a success, so each result holds; the node counts are those of
/// the cache-free search.
#[test]
fn formerly_cache_pruned_runs_keep_their_results() {
    use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
    use mcs_connect::ConnectError;
    let fuzz = |seed| design_from_seed(&FuzzConfig::default(), seed);
    let elliptic_l3 = designs::elliptic::partitioned_with(3, PortMode::Bidirectional);
    let cases: [PinnedSearch; 6] = [
        (
            "fuzz 14",
            fuzz(14),
            2,
            2,
            12_966,
            Some(0xa46d_a68e_8a5c_c0e8),
        ),
        (
            "fuzz 14",
            fuzz(14),
            2,
            4,
            20_380,
            Some(0x28c2_5967_e029_159c),
        ),
        ("fuzz 198", fuzz(198), 2, 8, 17_492, None),
        ("fuzz 119", fuzz(119), 5, 8, 6_517, None),
        ("elliptic (L3 budgets)", elliptic_l3, 3, 8, 1_694, None),
        (
            "elliptic (L6 budgets)",
            designs::elliptic::partitioned(),
            3,
            8,
            17_103,
            None,
        ),
    ];
    for (name, d, rate, portfolio, nodes, digest) in cases {
        let cfg = SearchConfig::new(rate).with_portfolio(portfolio);
        let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Bidirectional, &cfg);
        let got = match ic {
            Ok(ic) => Some(ic.digest()),
            Err(ConnectError::NoConnectionFound) => None,
            Err(e) => panic!("{name} at L{rate}, portfolio {portfolio}: {e}"),
        };
        let run = format!("{name} at L{rate}, portfolio {portfolio}");
        assert_eq!(got, digest, "{run}");
        assert_eq!(stats.nodes, nodes, "{run}: nodes");
    }
}

/// A portfolio of eight on `portfolio_adversarial(6)` at L3 — the
/// `BENCH_search.json` portfolio row — gives the same node count and
/// connection at 1, 2 and 8 threads.
#[test]
fn portfolio_of_eight_counts_are_pinned() {
    let d = designs::synthetic::portfolio_adversarial(6);
    let cfg = SearchConfig::new(3).with_portfolio(8);
    for workers in [1usize, 2, 8] {
        let cfg = cfg.clone().with_workers(workers);
        let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        assert_eq!(stats.nodes, 3136, "workers={workers}: node count");
        assert_eq!(
            ic.expect("adversarial(6) connects at L3").digest(),
            0x3a32_5574_cd17_a533,
            "workers={workers}"
        );
    }
}
