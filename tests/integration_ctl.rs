//! Execution-control integration tests: budgets threaded end-to-end
//! through the synthesis flows must produce *anytime* results — a
//! structured best-so-far report at every interruption, a natural
//! verdict whenever the flow finishes inside its ceiling, and bitwise
//! determinism wherever the budget counts work instead of time.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
use mcs_cdfg::{designs, PartitionId, PortMode};
use mcs_connect::{synthesize_seeded, ConnectError, SearchConfig};
use mcs_ctl::{Budget, BudgetSpec, Termination};
use mcs_explore::{ExploreOutcome, FlowVariant, PointStatus, SweepOptions, SweepSpec};
use mcs_metrics::{MetricsHandle, Registry};
use mcs_obs::RecorderHandle;
use mcs_pinalloc::{PinAllocError, PinChecker, PinIlp, DEFAULT_PIVOT_BUDGET};
use multichip_hls::explore::{run_point, run_sweep, with_pin_budgets};
use multichip_hls::flows::{
    run, ConnectFirstOptions, FlowError, FlowOutcome, FlowSpec, RunContext,
};

const BIN: &str = env!("CARGO_BIN_EXE_mcs-hls");

/// `spec` on `cdfg` under `budget`, through the one flow entry point.
fn run_within(cdfg: &mcs_cdfg::Cdfg, spec: FlowSpec, budget: Budget) -> FlowOutcome {
    let ctx = RunContext {
        budget: Some(budget),
        ..RunContext::default()
    };
    run(cdfg, &spec, &ctx)
}

fn design_path(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/designs")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// A zero-millisecond deadline trips at the very first safe point, yet
/// the flow still returns a valid, empty anytime result: termination
/// verdict, no result, no definitive error — interruption is not a
/// failure.
#[test]
fn deadline_zero_yields_an_empty_but_valid_anytime_result() {
    let d = designs::synthetic::portfolio_adversarial(6);
    let mut opts = ConnectFirstOptions::new(2);
    opts.portfolio = Some(4);
    let budget = Budget::new(BudgetSpec::default().deadline_ms(0));
    let out = run_within(d.cdfg(), FlowSpec::Connect(opts), budget);
    assert_eq!(out.termination, Termination::DeadlineExceeded);
    assert!(
        matches!(out.result, Err(FlowError::Interrupted(_))),
        "interruption is not a definitive error"
    );
    let stats = out.search_stats.expect("connect flow always reports stats");
    assert!(stats.nodes > 0, "some work happened before the trip");
}

/// The same zero deadline through the Chapter 3 flow: the scheduler's
/// control-step poll (or a pin probe) observes the expired budget.
#[test]
fn deadline_zero_interrupts_the_simple_flow() {
    let d = designs::ar_filter::simple();
    let budget = Budget::new(BudgetSpec::default().deadline_ms(0));
    let spec = FlowSpec::Simple {
        rate: 2,
        pivot_budget: None,
    };
    let out = run_within(d.cdfg(), spec, budget);
    assert_eq!(out.termination, Termination::DeadlineExceeded);
    assert!(matches!(out.result, Err(FlowError::Interrupted(_))));
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
    let spec = FlowSpec::Connect(opts);
    let reference = run_within(d.cdfg(), spec.clone(), Budget::unlimited());
    assert_eq!(reference.termination, Termination::Complete);
    let reference = reference.result.expect("adversarial(6) is feasible");
    let nodes = reference.search_stats.as_ref().expect("stats").nodes;
    // Rerun with the ceiling set to exactly that count.
    let budget = Budget::new(BudgetSpec::default().max_nodes(nodes));
    let out = run_within(d.cdfg(), spec, budget);
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
        let out = run_within(d.cdfg(), FlowSpec::Connect(opts), budget);
        (
            out.termination,
            out.result.ok().map(|r| r.interconnect),
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

/// The pin checker's construction-time feasibility solve charges the
/// run's budget: a pivot ceiling below that solve's own pivot count
/// interrupts `run` before the flow starts, and a sweep reports the
/// point as an `error` — never as `pin-infeasible`, which would prune
/// every dominated point on the strength of a deadline. A connect-first
/// point builds that checker only to explain a failed search, so its
/// half runs where the search fails and the explanation trips.
#[test]
fn pivot_ceiling_inside_the_construction_solve_interrupts_run_and_sweep() {
    let d = designs::ar_filter::simple();
    let rate = 2;
    let ledger = Budget::unlimited();
    PinChecker::with_budgets(d.cdfg(), rate, DEFAULT_PIVOT_BUDGET, Some(ledger.clone()))
        .expect("the chapter 3 design passes the gate");
    let pivots = ledger.pivots_spent();
    assert!(pivots > 0, "the construction solve pivots");
    let ceiling = || Budget::new(BudgetSpec::default().max_pivots(pivots - 1));

    let reg = Arc::new(Registry::new());
    let ctx = RunContext {
        budget: Some(ceiling()),
        metrics: MetricsHandle::new(reg.clone()),
        ..RunContext::default()
    };
    let simple = FlowSpec::Simple {
        rate,
        pivot_budget: None,
    };
    let out = run(d.cdfg(), &simple, &ctx);
    assert!(
        matches!(
            out.result,
            Err(FlowError::Interrupted(Termination::BudgetExhausted))
        ),
        "{:?}",
        out.result
    );
    assert_eq!(out.termination, Termination::BudgetExhausted);
    let spans = reg.snapshot().profile;
    assert!(
        spans.iter().all(|s| s.path != "flow"),
        "the trip must come before the flow starts: {spans:?}"
    );

    // A Simple sweep point builds its checker through the same
    // constructor.
    let native = (1..d.cdfg().partition_count())
        .map(|p| d.cdfg().partition(PartitionId::new(p as u32)).total_pins)
        .collect();
    let point = sweep_point(d.cdfg(), FlowVariant::Simple, rate, native, Some(ceiling()));
    assert_eq!(point.status, PointStatus::Error, "{point:?}");
    assert!(point.outcome.detail.contains("interrupted"), "{point:?}");

    // The connect-first search fails on fuzz seed 33 under a 16-pin chip
    // at rate 2, and neither the counting bound nor the greedy witness
    // decides that system, so the exact checker runs to explain it:
    // pin-infeasible without a ceiling, an interrupted `error` with one
    // below its solve.
    let fuzz = design_from_seed(&FuzzConfig::default(), 33);
    let (rate, starved) = (2, vec![16]);
    let starved_cdfg = with_pin_budgets(fuzz.cdfg(), &starved);
    let ilp = PinIlp::new(&starved_cdfg, rate).expect("the tableau fits");
    assert_eq!(ilp.refutation(), None);
    assert_eq!(ilp.witness(), None);
    let ledger = Budget::unlimited();
    let explained = PinChecker::with_budgets(
        &starved_cdfg,
        rate,
        DEFAULT_PIVOT_BUDGET,
        Some(ledger.clone()),
    );
    assert!(
        matches!(explained, Err(PinAllocError::InfeasibleFromTheStart)),
        "{:?}",
        explained.err()
    );
    let pivots = ledger.pivots_spent();
    assert!(pivots > 1, "the explaining solve pivots");
    let connect = |budget| {
        sweep_point(
            fuzz.cdfg(),
            FlowVariant::ConnectFirst,
            rate,
            starved.clone(),
            budget,
        )
    };
    assert_eq!(connect(None).status, PointStatus::PinInfeasible);
    let point = connect(Some(Budget::new(
        BudgetSpec::default().max_pivots(pivots - 1),
    )));
    assert_eq!(point.status, PointStatus::Error, "{point:?}");
    assert!(point.outcome.detail.contains("interrupted"), "{point:?}");
}

/// The counting bound refutes the elliptic filter under 24/32/48/32/32
/// at rate 6 before the flow runs, so the point is pin-infeasible even
/// under a one-pivot ceiling, spends no pivot, and runs no search.
#[test]
fn a_refuted_point_is_pin_infeasible_without_a_pivot() {
    let ell = designs::elliptic::partitioned();
    let starved = vec![24, 32, 48, 32, 32];
    let ilp = PinIlp::new(&with_pin_budgets(ell.cdfg(), &starved), 6).expect("the tableau fits");
    assert!(ilp.refutation().is_some());
    let ledger = Budget::new(BudgetSpec::default().max_pivots(1));
    let point = sweep_point(
        ell.cdfg(),
        FlowVariant::ConnectFirst,
        6,
        starved,
        Some(ledger.clone()),
    );
    assert_eq!(point.status, PointStatus::PinInfeasible, "{point:?}");
    assert_eq!(ledger.pivots_spent(), 0);
    assert_eq!(ledger.verdict(), None);
    assert_eq!(point.outcome.search_nodes, 0, "{point:?}");
}

/// A point neither certificate decides is explained by the exact pin
/// checker, built under the context's metrics handle: its construction
/// pivots reach `ilp.pivots`, and the step counts as `explain.solved`.
#[test]
fn an_explaining_solve_reports_its_pivots() {
    let fuzz = design_from_seed(&FuzzConfig::default(), 33);
    let cdfg = with_pin_budgets(fuzz.cdfg(), &[16]);
    let ledger = Budget::unlimited();
    PinChecker::with_budgets(&cdfg, 2, DEFAULT_PIVOT_BUDGET, Some(ledger.clone()))
        .expect_err("the system is pin-infeasible");
    let reg = Arc::new(Registry::new());
    let ctx = RunContext {
        metrics: MetricsHandle::new(reg.clone()),
        ..RunContext::default()
    };
    let point = run_point(&cdfg, FlowVariant::ConnectFirst, 2, &ctx).point;
    assert_eq!(point.status, Some(PointStatus::PinInfeasible), "{point:?}");
    let snap = reg.snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("explain.solved"), 1);
    assert_eq!(count("explain.refuted") + count("explain.witnessed"), 0);
    assert_eq!(count("ilp.pivots"), ledger.pivots_spent());
    assert!(snap.profile.iter().any(|s| s.path == "explain"));
}

/// The one point of a single-point sweep of `flow` at `rate` under the
/// per-chip `budget` vector, with an optional execution budget.
fn sweep_point(
    cdfg: &mcs_cdfg::Cdfg,
    flow: FlowVariant,
    rate: u32,
    budget: Vec<u32>,
    ceiling: Option<Budget>,
) -> ExploreOutcome {
    let spec = SweepSpec {
        design: "point".into(),
        flow,
        rates: vec![rate],
        budgets: vec![budget],
    };
    let opts = SweepOptions {
        jobs: 1,
        budget: ceiling,
        ..SweepOptions::default()
    };
    let report =
        run_sweep(cdfg, &spec, &opts, &RecorderHandle::default()).expect("well-formed spec");
    report.outcomes[0].clone()
}

/// A feasible connect-first point never builds the exact pin checker:
/// its verified connection is the witness. The shared ledger spends no
/// pivot and the registry records none.
#[test]
fn a_feasible_connect_first_point_spends_no_pivots() {
    let d = designs::elliptic::partitioned();
    let ledger = Budget::unlimited();
    let reg = Arc::new(Registry::new());
    let spec = SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: vec![6],
        budgets: vec![vec![48, 48, 64, 48, 48]],
    };
    let opts = SweepOptions {
        jobs: 1,
        budget: Some(ledger.clone()),
        metrics: MetricsHandle::new(reg.clone()),
        ..SweepOptions::default()
    };
    let report =
        run_sweep(d.cdfg(), &spec, &opts, &RecorderHandle::default()).expect("well-formed spec");
    assert_eq!(report.outcomes[0].status, PointStatus::Feasible);
    assert_eq!(ledger.pivots_spent(), 0);
    let snap = reg.snapshot();
    assert_eq!(snap.counters.get("ilp.pivots").copied().unwrap_or(0), 0);
}
