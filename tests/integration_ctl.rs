//! Execution-control integration tests: budgets threaded end-to-end
//! through the synthesis flows must produce *anytime* results — a
//! structured best-so-far report at every interruption, a natural
//! verdict whenever the flow finishes inside its ceiling, and bitwise
//! determinism wherever the budget counts work instead of time.

use std::path::Path;
use std::process::Command;

use mcs_cdfg::{designs, PortMode};
use mcs_connect::{synthesize_seeded, ConnectError, SearchConfig};
use mcs_ctl::{Budget, BudgetSpec, Termination};
use multichip_hls::flows::{
    connect_first_anytime, simple_flow_anytime, ConnectFirstOptions, SynthesisConfig,
};

const BIN: &str = env!("CARGO_BIN_EXE_mcs-hls");

fn design_path(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/designs")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// A zero-millisecond deadline trips at the very first safe point, yet
/// the flow still returns a valid, empty anytime result: termination
/// verdict, no result, no error — interruption is not a failure.
#[test]
fn deadline_zero_yields_an_empty_but_valid_anytime_result() {
    let d = designs::synthetic::portfolio_adversarial(6);
    let mut opts = ConnectFirstOptions::new(2);
    opts.portfolio = Some(4);
    let budget = Budget::new(BudgetSpec::default().deadline_ms(0));
    let out = connect_first_anytime(d.cdfg(), &opts, budget);
    assert_eq!(out.termination, Termination::DeadlineExceeded);
    assert!(out.result.is_none());
    assert!(out.error.is_none(), "interruption is not an error");
    let stats = out.search_stats.expect("connect flow always reports stats");
    assert!(stats.nodes > 0, "some work happened before the trip");
}

/// The same zero deadline through the Chapter 3 flow: the scheduler's
/// control-step poll (or a pin probe) observes the expired budget.
#[test]
fn deadline_zero_interrupts_the_simple_flow() {
    let d = designs::ar_filter::simple();
    let budget = Budget::new(BudgetSpec::default().deadline_ms(0));
    let out = simple_flow_anytime(d.cdfg(), 2, &SynthesisConfig::default(), budget);
    assert_eq!(out.termination, Termination::DeadlineExceeded);
    assert!(out.result.is_none());
    assert!(out.error.is_none());
}

/// Natural-finish-wins: a node ceiling met *exactly* by the successful
/// run still reports `Complete` with the full result, because success
/// is checked before the budget poll at every barrier.
#[test]
fn exact_node_ceiling_still_completes() {
    let d = designs::synthetic::portfolio_adversarial(6);
    let mut opts = ConnectFirstOptions::new(2);
    opts.portfolio = Some(4);
    // Reference run without a budget, to learn the exact node count.
    let reference = connect_first_anytime(d.cdfg(), &opts, Budget::unlimited());
    assert_eq!(reference.termination, Termination::Complete);
    let reference = reference.result.expect("adversarial(6) is feasible");
    let nodes = reference.search_stats.as_ref().expect("stats").nodes;
    // Rerun with the ceiling set to exactly that count.
    let budget = Budget::new(BudgetSpec::default().max_nodes(nodes));
    let out = connect_first_anytime(d.cdfg(), &opts, budget);
    assert_eq!(out.termination, Termination::Complete);
    let result = out.result.expect("exact ceiling must not interrupt");
    assert_eq!(result.interconnect, reference.interconnect);
}

/// Count ceilings are thread-independent: the connect-first flow under
/// a node budget produces the same outcome for every worker count.
#[test]
fn node_budget_outcome_is_identical_across_worker_counts() {
    let d = designs::synthetic::portfolio_adversarial(6);
    let outcome = |workers: usize| {
        let mut opts = ConnectFirstOptions::new(2);
        opts.portfolio = Some(4);
        opts.workers = workers;
        let budget = Budget::new(BudgetSpec::default().max_nodes(1));
        let out = connect_first_anytime(d.cdfg(), &opts, budget);
        (
            out.termination,
            out.result.map(|r| r.interconnect),
            out.best_depth,
            out.best_buses,
        )
    };
    let reference = outcome(1);
    for workers in [2usize, 4] {
        assert_eq!(outcome(workers), reference, "workers={workers}");
    }
}

/// Cancellation mid-search leaves the refutation cache consistent: the
/// certificates learned by a cancelled run are a *prefix* of the
/// uncancelled run's (deterministic expansion up to the break), and
/// seeding a fresh search with them reproduces the reference result.
#[test]
fn cancellation_mid_epoch_keeps_the_refutation_cache_consistent() {
    let d = designs::synthetic::portfolio_adversarial(6);
    let mut cfg = SearchConfig::new(2).with_portfolio(4);
    // Small epochs so barriers arrive long before the search finishes.
    cfg.epoch_nodes = 16;

    // Reference: uncancelled run, same epoch discipline.
    let (ref_ic, _, ref_learned) = synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &[]);
    let ref_ic = ref_ic.expect("adversarial(6) is feasible");

    // Interrupted: a node ceiling trips at an early barrier.
    let budget = Budget::new(BudgetSpec::default().max_nodes(40));
    let cfg_cut = cfg.clone().with_budget(budget);
    let (cut_ic, cut_stats, cut_learned) =
        synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg_cut, &[]);
    match cut_ic {
        Err(ConnectError::Interrupted(Termination::BudgetExhausted)) => {}
        other => panic!("expected interruption, got {other:?}"),
    }
    assert!(cut_stats.termination.interrupted());

    // Prefix property: nothing the interrupted run learned can differ
    // from what the uncancelled run learned first.
    assert!(
        cut_learned.len() <= ref_learned.len(),
        "interrupted run cannot learn more than the full run"
    );
    assert_eq!(
        cut_learned,
        ref_learned[..cut_learned.len()],
        "learned certificates must be a prefix of the uncancelled run's"
    );

    // Seeding a fresh search with the interrupted run's certificates is
    // sound: the result is identical to the unseeded reference.
    let (seeded_ic, seeded_stats, _) =
        synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &cut_learned);
    assert_eq!(seeded_ic.expect("seeded run succeeds"), ref_ic);
    assert_eq!(seeded_stats.termination, Termination::Complete);
}

/// The acceptance path: `mcs-hls synth --deadline-ms 0` exits 0 with a
/// `deadline-exceeded` anytime report instead of hanging or aborting.
#[test]
fn cli_synth_with_expired_deadline_exits_zero_with_anytime_report() {
    let out = Command::new(BIN)
        .args([
            "synth",
            &design_path("pipeline.mcs"),
            "--rate",
            "2",
            "--deadline-ms",
            "0",
        ])
        .output()
        .expect("mcs-hls binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "anytime interruption exits 0");
    assert!(
        stdout.contains("synthesis interrupted (deadline-exceeded)"),
        "{stdout}"
    );
    assert!(stdout.contains("best-so-far"), "{stdout}");
}

/// A generous count ceiling never interrupts: the CLI reports the full
/// synthesis exactly as an unbudgeted run would.
#[test]
fn cli_synth_with_generous_budget_completes_normally() {
    let out = Command::new(BIN)
        .args([
            "synth",
            &design_path("pipeline.mcs"),
            "--rate",
            "2",
            "--max-nodes",
            "1000000",
        ])
        .output()
        .expect("mcs-hls binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("pipe length"), "{stdout}");
    assert!(!stdout.contains("interrupted"), "{stdout}");
}

/// `mcs-hls explore --deadline-ms 0` reports a complete lattice with
/// every point skipped — an interrupted sweep is still a valid report.
#[test]
fn cli_explore_with_expired_deadline_reports_skipped_lattice() {
    let out = Command::new(BIN)
        .args([
            "explore",
            &design_path("wide_sweep.mcs"),
            "--rates",
            "2..3",
            "--pin-budgets",
            "24,24:16,16",
            "--deadline-ms",
            "0",
        ])
        .output()
        .expect("mcs-hls binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stdout.contains("\"termination\":\"deadline-exceeded\""),
        "{stdout}"
    );
    assert!(
        stderr.contains("interrupted (deadline-exceeded)"),
        "{stderr}"
    );
}
