//! Design-space exploration: the concrete [`mcs_explore::PointRunner`]
//! that maps one sweep lattice point to a synthesis run.
//!
//! The generic engine in `mcs-explore` knows nothing about synthesis;
//! this module supplies the binding:
//!
//! * A lattice point `(rate, budget vector)` is realized by cloning the
//!   design and overriding each chip partition's `total_pins` (budget
//!   vector entry `i` maps to partition `i + 1`; partition 0 is the
//!   environment). Any `fixed_split` is cleared — the sweep explores
//!   total budgets, not fixed input/output splits.
//! * Every flow runs behind the exact pin-feasibility gate
//!   ([`pin_gate`]): `InfeasibleFromTheStart` is the *only* verdict
//!   reported as [`PointStatus::PinInfeasible`], because it is the only
//!   one sound to lift to dominated points. Incomplete-search failures
//!   are [`PointStatus::SearchFailed`] and never prune.
//! * Warm starts transfer a [`WarmStart`] between points at the same
//!   rate: `false` epoch-0 probe verdicts (a probe infeasible under a
//!   looser budget stays infeasible under a tighter one — the `true`
//!   direction does not transfer and is filtered out) and
//!   connection-search refutation certificates (exhaustive-failure
//!   proofs, valid for any same-or-tighter budget; see
//!   [`mcs_connect::synthesize_seeded`]).

use mcs_cdfg::{Cdfg, PartitionId, PortMode};
use mcs_explore::{
    sweep, FlowVariant, PointCoord, PointOutcome, PointRunner, PointStatus, SweepError,
    SweepOptions, SweepReport, SweepSpec,
};
use mcs_obs::RecorderHandle;
use mcs_pinalloc::PinAllocError;

use crate::flows::{
    pin_gate, run, ConnectFirstOptions, FlowError, FlowSpec, RunContext, SynthesisResult, WarmStart,
};
use crate::netlist;

/// Portfolio size for connect-first points. Pinned (rather than derived
/// from thread count) so the search — and therefore the report — is
/// identical however many sweep or daemon workers run.
const POINT_PORTFOLIO: usize = 4;

/// The spec one sweep point — or one serve daemon job — runs for `flow`
/// at `rate`: each flow's defaults, with a single-worker connection
/// search over a pinned portfolio.
pub fn point_spec(flow: FlowVariant, rate: u32) -> FlowSpec {
    match flow {
        FlowVariant::Simple => FlowSpec::Simple {
            rate,
            pivot_budget: None,
        },
        FlowVariant::ConnectFirst => {
            let mut opts = ConnectFirstOptions::new(rate);
            opts.portfolio = Some(POINT_PORTFOLIO);
            FlowSpec::Connect(opts)
        }
        FlowVariant::ScheduleFirst => FlowSpec::Schedule {
            rate,
            pipe_length: None,
            mode: PortMode::Unidirectional,
        },
    }
}

/// Maps a definitive flow failure onto the point-status taxonomy, with
/// its detail text. Only the gate's exact `InfeasibleFromTheStart`
/// lifts to dominated points; everything downstream of the gate is an
/// incomplete search. Interruption is not a verdict about the design: it
/// lands in the error bucket, so it can never prune or export. A gate
/// rejection's detail is the pin allocator's own message.
pub fn failure_status(err: &FlowError) -> (PointStatus, String) {
    let status = match err {
        FlowError::PinAllocation(PinAllocError::InfeasibleFromTheStart) => {
            PointStatus::PinInfeasible
        }
        FlowError::NotSimple(_) | FlowError::PinAllocation(_) | FlowError::Interrupted(_) => {
            PointStatus::Error
        }
        _ => PointStatus::SearchFailed,
    };
    // A gate rejection reads as the pin allocator's own message.
    let detail = match err {
        FlowError::PinAllocation(e) => e.to_string(),
        e => e.to_string(),
    };
    (status, detail)
}

/// Anything [`run_sweep`] can fail with before synthesis starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// A budget vector's length does not match the design's chip count.
    BudgetArity {
        /// Index of the offending vector in [`SweepSpec::budgets`].
        index: usize,
        /// Chips in the design (partitions minus the environment).
        expected: usize,
        /// Entries the vector actually has.
        got: usize,
    },
    /// The sweep spec itself is malformed.
    Sweep(SweepError),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::BudgetArity {
                index,
                expected,
                got,
            } => write!(
                f,
                "pin-budget vector {index} has {got} entries but the design has {expected} chips"
            ),
            ExploreError::Sweep(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<SweepError> for ExploreError {
    fn from(e: SweepError) -> Self {
        ExploreError::Sweep(e)
    }
}

/// The concrete lattice-point runner: clones the design, applies the
/// budget override, runs the configured flow through [`pin_gate`] and
/// [`run`], and packages warm-start exports. Per-point synthesis runs on
/// sweep worker threads without an event sink, so the event stream does
/// not depend on the worker count; its counters, histograms and spans
/// still aggregate into the registry.
pub struct DesignRunner<'a> {
    cdfg: &'a Cdfg,
    flow: FlowVariant,
    budget: Option<mcs_ctl::Budget>,
    metrics: mcs_metrics::MetricsHandle,
}

impl<'a> DesignRunner<'a> {
    /// A runner for `cdfg` executing `flow` at every point.
    pub fn new(cdfg: &'a Cdfg, flow: FlowVariant) -> Self {
        DesignRunner {
            cdfg,
            flow,
            budget: None,
            metrics: mcs_metrics::MetricsHandle::default(),
        }
    }

    /// Shares an execution budget with every point's flow: the pin gate's
    /// construction-time solve, pin probes, Gomory pivots, search nodes
    /// and scheduling steps all charge this ledger, so the sweep driver
    /// (given the same handle) observes a mid-wave trip at the next wave
    /// barrier. An interrupted point reports [`PointStatus::Error`] and
    /// never prunes.
    pub fn with_budget(mut self, budget: Option<mcs_ctl::Budget>) -> Self {
        self.budget = budget;
        self
    }

    /// Metrics registry threaded into every point's flow. Per-point
    /// probe latencies, solver pivots and search epochs all aggregate
    /// into the same registry; the sweep driver layers `explore.*` on
    /// top. Any event sink on `metrics` is detached.
    pub fn with_metrics(mut self, metrics: mcs_metrics::MetricsHandle) -> Self {
        self.metrics = metrics.without_events();
        self
    }

    /// The design with one budget vector applied.
    fn apply_budget(&self, budget: &[u32]) -> Cdfg {
        let mut cdfg = self.cdfg.clone();
        for (i, &pins) in budget.iter().enumerate() {
            let p = cdfg.partition_mut(PartitionId::new(i as u32 + 1));
            p.total_pins = pins;
            p.fixed_split = None;
        }
        cdfg
    }

    /// Fills the feasible-point cost fields from a flow result.
    fn measure(cdfg: &Cdfg, result: &SynthesisResult, out: &mut PointOutcome) {
        out.status = Some(PointStatus::Feasible);
        out.latency = Some(result.pipe_length);
        out.total_pins = Some(result.pins_used.iter().skip(1).sum());
        out.buses = Some(result.interconnect.buses.len() as u32);
        let nl = netlist::build(cdfg, &result.schedule, &result.interconnect);
        out.registers = Some(
            nl.chips
                .values()
                .flat_map(|c| c.registers.iter())
                .map(|r| r.copies)
                .sum(),
        );
    }

    /// Records a flow failure on the point.
    fn fail(err: &FlowError, out: &mut PointOutcome) {
        let (status, detail) = failure_status(err);
        out.status = Some(status);
        out.detail = detail;
    }
}

impl PointRunner for DesignRunner<'_> {
    type Export = WarmStart;

    fn run(
        &self,
        coord: PointCoord,
        budget: &[u32],
        seeds: &[(PointCoord, std::sync::Arc<WarmStart>)],
    ) -> (PointOutcome, Option<WarmStart>) {
        let cdfg = self.apply_budget(budget);
        let mut out = PointOutcome::default();
        let spec = point_spec(self.flow, coord.rate);
        let mut ctx = RunContext {
            budget: self.budget.clone(),
            metrics: self.metrics.clone(),
            warm: WarmStart::default(),
        };
        for (_, donor) in seeds {
            ctx.warm.adopt(donor);
        }
        if let Err(e) = pin_gate(&cdfg, &spec, &ctx) {
            Self::fail(&e, &mut out);
            return (out, None);
        }
        let outcome = run(&cdfg, &spec, &ctx);
        if let Some(st) = &outcome.search_stats {
            out.search_nodes = st.nodes;
            out.search_cache_hits = st.cache_hits;
            out.cert_seed_hits = st.seed_hits;
        }
        if let Some(probe) = &outcome.probe_stats {
            out.solver_probes = probe.solver_probes;
            out.probe_memo_hits = probe.memo_hits;
            out.probe_seed_hits = probe.seed_hits;
        }
        match &outcome.result {
            Ok(result) => {
                // The Chapter 5 flow reports pins instead of constraining
                // them, so budgets are checked after the fact. An
                // over-budget result is a search failure, NOT a liftable
                // infeasibility — the flow never consulted the budget, so
                // the verdict carries no dominance information.
                let over: Vec<String> = result
                    .pins_used
                    .iter()
                    .enumerate()
                    .skip(1)
                    .filter(|&(i, &used)| used > budget[i - 1])
                    .map(|(i, &used)| format!("chip {} uses {} > {}", i, used, budget[i - 1]))
                    .collect();
                if over.is_empty() {
                    Self::measure(&cdfg, result, &mut out);
                } else {
                    out.status = Some(PointStatus::SearchFailed);
                    out.detail = format!("over budget: {}", over.join(", "));
                }
            }
            Err(e) => Self::fail(e, &mut out),
        }
        // A finished Chapter 3 run exports its probe verdicts; the
        // connection search exports its certificates even from failed
        // points — failed searches produce the most valuable proofs. The
        // Chapter 5 flow has nothing to export.
        let publish = match self.flow {
            FlowVariant::Simple => outcome.result.is_ok(),
            FlowVariant::ConnectFirst => true,
            FlowVariant::ScheduleFirst => false,
        };
        (out, publish.then_some(outcome.exports))
    }
}

/// Runs a full design-space sweep over `cdfg` inside an `explore` span.
/// An active `recorder` becomes the event sink of `opts.metrics`; the
/// only decision events a sweep records are the `explore` phase pair and
/// a `WorkerPanic` per quarantined point at its wave barrier, because
/// per-point flows run without a sink (see [`DesignRunner`]). The
/// aggregate `explore.*` counters and gauges go to the registry. The
/// `recorder` parameter stays because the frozen benchmark harness
/// (`perfbench/`) compiles against this signature; it goes with the next
/// change to that benchmark.
///
/// # Errors
///
/// [`ExploreError::BudgetArity`] when a budget vector does not have one
/// entry per chip; [`ExploreError::Sweep`] for a malformed lattice.
pub fn run_sweep(
    cdfg: &Cdfg,
    spec: &SweepSpec,
    opts: &SweepOptions,
    recorder: &RecorderHandle,
) -> Result<SweepReport, ExploreError> {
    let chips = cdfg.partition_count().saturating_sub(1);
    for (index, b) in spec.budgets.iter().enumerate() {
        if b.len() != chips {
            return Err(ExploreError::BudgetArity {
                index,
                expected: chips,
                got: b.len(),
            });
        }
    }
    let opts = SweepOptions {
        metrics: opts.metrics.clone().with_events(recorder),
        ..opts.clone()
    };
    let runner = DesignRunner::new(cdfg, spec.flow)
        .with_budget(opts.budget.clone())
        .with_metrics(opts.metrics.clone());
    let _span = opts.metrics.span("explore");
    Ok(sweep(spec, &runner, &opts)?)
}
