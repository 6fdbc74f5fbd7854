//! Determinism and differential tests for the parallel portfolio
//! connection search: the `workers` knob must never change *what* is
//! synthesized (only how fast), and the Chapter 4 connection-first flow
//! must agree with the Chapter 3 simple flow on designs both can handle.

use mcs_cdfg::{designs, Cdfg, PartitionId, PortMode};
use mcs_connect::{synthesize_with_stats, SearchConfig};
use mcs_postsyn::{pin_budget_report, verify_against_schedule_with_budgets};
use mcs_sched::validate;
use mcs_sim::{verify, Semantics, Stimulus};
use multichip_hls::flows::{connect_first_flow, simple_flow, ConnectFirstOptions};

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
        for (pid, used, budget) in pin_budget_report(cdfg, &ic4) {
            assert!(
                used <= budget,
                "{}: partition {pid} uses {used} of {budget} pins",
                d.name()
            );
        }
        assert_eq!(
            verify_against_schedule_with_budgets(cdfg, &r4.schedule, &ic4),
            Vec::<String>::new(),
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
        assert_eq!(stats.cache_hits, 0, "cache is disabled for a lone plan");
    }
}

/// Pin accounting helper sanity on a concrete design: every reported
/// entry is a partition the interconnect actually touches.
#[test]
fn pin_budget_report_covers_exactly_the_used_partitions() {
    let d = designs::ar_filter::general(3, PortMode::Unidirectional);
    let cdfg = d.cdfg();
    let (ic, _) = synthesize_with_stats(cdfg, PortMode::Unidirectional, &SearchConfig::new(3));
    let ic = ic.expect("connects");
    let report = pin_budget_report(cdfg, &ic);
    for &(pid, used, _) in &report {
        assert_eq!(used, ic.pins_used(pid));
        assert!(used > 0);
    }
    let reported: std::collections::BTreeSet<PartitionId> =
        report.iter().map(|&(p, _, _)| p).collect();
    for p in 0..cdfg.partition_count() {
        let pid = PartitionId::new(p as u32);
        assert_eq!(reported.contains(&pid), ic.pins_used(pid) > 0);
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
    // A four-plan portfolio with its shared failure cache: the same
    // pinned result at 1, 2 and 8 threads.
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
