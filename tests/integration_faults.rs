//! Fault-injection tests: an injected worker panic must degrade the
//! result — quarantine the worker, surface a `WorkerPanic` event, tag
//! the outcome `worker-panicked` — never abort the process or hang.
//!
//! The fault registry is process-global, so every test here serializes
//! on one mutex and disarms on exit (including panic exits, via the
//! guard's `Drop`). These tests live in their own binary so an armed
//! site can never poison unrelated tests running in parallel.

#![cfg(debug_assertions)]

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use mcs_cdfg::{designs, PortMode};
use mcs_connect::{synthesize_with_stats, SearchConfig, WorkerOutcome};
use mcs_ctl::fault::{self, FaultAction};
use mcs_ctl::Termination;
use mcs_explore::{
    sweep, FlowVariant, PointCoord, PointOutcome, PointRunner, PointStatus, SweepOptions, SweepSpec,
};
use mcs_metrics::MetricsHandle;
use mcs_obs::{summary::summarize, BufferingRecorder, Event, RecorderHandle};

/// Serializes fault tests and guarantees cleanup: the guard disarms
/// every site when dropped, even when the test body panics.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn armed() -> FaultGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    fault::disarm_all();
    FaultGuard(guard)
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        fault::disarm_all();
    }
}

/// A panicking portfolio worker is quarantined at the barrier: the
/// remaining workers still synthesize a connection, the stats verdict
/// degrades to `worker-panicked`, and the panic surfaces as exactly one
/// `WorkerPanic` observability event.
#[test]
fn portfolio_worker_panic_degrades_to_the_remaining_workers_result() {
    let _guard = armed();
    fault::arm("portfolio::worker::1", FaultAction::Panic);

    let d = designs::synthetic::portfolio_adversarial(6);
    let buf = Arc::new(BufferingRecorder::new());
    let cfg = SearchConfig::new(2)
        .with_portfolio(4)
        .with_metrics(MetricsHandle::default().with_events(&RecorderHandle::new(buf.clone())));
    let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);

    let ic = ic.expect("remaining workers still find a connection");
    assert!(d.cdfg().io_ops().count() > 0);
    assert!(!ic.buses.is_empty());
    assert_eq!(stats.termination, Termination::WorkerPanicked);
    assert_eq!(stats.workers[1].outcome, WorkerOutcome::Panicked);
    // The quarantined worker's plan loses; a surviving worker wins.
    assert_ne!(stats.winner, Some(1));

    let events = buf.events();
    let panics: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::WorkerPanic {
                pool,
                worker,
                epoch,
            } => Some((*pool, *worker, *epoch)),
            _ => None,
        })
        .collect();
    assert_eq!(
        panics,
        vec![("portfolio", 1u32, 1u32)],
        "exactly one panic event, in barrier order"
    );
    assert_eq!(summarize(&events).worker_panics, 1);
}

/// Every portfolio worker panicking is still not a process abort: the
/// search reports failure with a `worker-panicked` verdict.
#[test]
fn all_workers_panicking_fails_cleanly() {
    let _guard = armed();
    for i in 0..4 {
        fault::arm(&format!("portfolio::worker::{i}"), FaultAction::Panic);
    }
    let d = designs::synthetic::portfolio_adversarial(6);
    let cfg = SearchConfig::new(2).with_portfolio(4);
    let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
    assert!(ic.is_err(), "no surviving worker means no connection");
    assert_eq!(stats.termination, Termination::WorkerPanicked);
    for w in &stats.workers {
        assert_eq!(w.outcome, WorkerOutcome::Panicked);
    }
}

/// A synthetic always-feasible point runner for driver-level fault
/// tests (no synthesis, just lattice mechanics).
struct TrivialRunner;

impl PointRunner for TrivialRunner {
    type Export = ();

    fn run(
        &self,
        coord: PointCoord,
        budget: &[u32],
        _seeds: &[(PointCoord, std::sync::Arc<()>)],
    ) -> (PointOutcome, Option<()>) {
        let outcome = PointOutcome {
            status: Some(PointStatus::Feasible),
            latency: Some(coord.rate as i64),
            total_pins: Some(budget.iter().sum::<u32>()),
            buses: Some(1),
            registers: Some(1),
            ..PointOutcome::default()
        };
        (outcome, None)
    }
}

/// A panicking point runner is quarantined to its own lattice slot: the
/// sweep completes, the point reports `error`, and the report's verdict
/// degrades to `worker-panicked`.
#[test]
fn explore_point_panic_is_quarantined_to_its_slot() {
    let _guard = armed();
    // Site names are `explore::point::{rate}::{budget_ix}`.
    fault::arm("explore::point::3::0", FaultAction::Panic);

    let spec = SweepSpec {
        design: "fault".into(),
        flow: FlowVariant::Simple,
        rates: vec![2, 3],
        budgets: vec![vec![32], vec![16]],
    };
    let buf = Arc::new(BufferingRecorder::new());
    let opts = SweepOptions {
        metrics: MetricsHandle::default().with_events(&RecorderHandle::new(buf.clone())),
        ..SweepOptions::default()
    };
    let report = sweep(&spec, &TrivialRunner, &opts).expect("sweep completes despite the panic");

    assert_eq!(report.stats.panics, 1);
    assert_eq!(report.stats.termination, Termination::WorkerPanicked);
    let poisoned = report
        .outcomes
        .iter()
        .find(|o| {
            o.coord
                == PointCoord {
                    rate: 3,
                    budget_ix: 0,
                }
        })
        .expect("lattice stays complete");
    assert_eq!(poisoned.status, PointStatus::Error);
    assert!(
        poisoned.outcome.detail.contains("panicked"),
        "{:?}",
        poisoned
    );
    // Every other point is untouched.
    let feasible = report
        .outcomes
        .iter()
        .filter(|o| o.status == PointStatus::Feasible)
        .count();
    assert_eq!(feasible, 3);
    assert_eq!(summarize(&buf.events()).worker_panics, 1);
}

/// A stalled worker is not a panic: the search just takes longer and
/// finishes with its natural verdict.
#[test]
fn stalled_worker_finishes_with_a_natural_verdict() {
    let _guard = armed();
    fault::arm("portfolio::worker::0", FaultAction::Stall(5));
    let d = designs::synthetic::portfolio_adversarial(6);
    let cfg = SearchConfig::new(2).with_portfolio(4);
    let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
    assert!(ic.is_ok());
    assert_eq!(stats.termination, Termination::Complete);
}
