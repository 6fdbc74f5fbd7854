//! Design-space exploration: the one point runner, [`run_point`], behind
//! both the sweep's [`mcs_explore::PointRunner`] and the serve daemon's
//! `synth` jobs.
//!
//! The generic engine in `mcs-explore` knows nothing about synthesis;
//! this module supplies the binding:
//!
//! * A lattice point `(rate, budget vector)` is realized by
//!   [`with_pin_budgets`]; the sweep explores total budgets, not fixed
//!   input/output splits.
//! * [`run_point`] asks the Chapter 3 pin-allocation ILP's counting
//!   bound before the flow, and after a flow that did not solve the
//!   point its greedy witness and, when neither decides, the exact
//!   solve. The ILP gives each chip one output split for every step
//!   group, so with the unidirectional ports of every [`point_spec`] a
//!   verified connection within every partition's budget (the
//!   environment's included) is a feasible point of it, and the solve
//!   would add nothing. Its `InfeasibleFromTheStart` is
//!   the *only* verdict reported as [`PointStatus::PinInfeasible`],
//!   because it is the only one sound to lift to dominated points.
//!   Incomplete-search failures are [`PointStatus::SearchFailed`] and
//!   never prune.
//! * Warm starts transfer a [`WarmStart`] between Chapter 3 points at the
//!   same rate: `false` epoch-0 probe verdicts (a probe infeasible under
//!   a looser budget stays infeasible under a tighter one — the `true`
//!   direction does not transfer and is filtered out). The other flows
//!   export nothing, so each of their points runs as it would alone.

use std::sync::Arc;

use mcs_cdfg::{Cdfg, PartitionId, PortMode};
use mcs_ctl::Termination;
use mcs_explore::{
    sweep, FlowVariant, PointCoord, PointOutcome, PointRunner, PointStatus, SweepError,
    SweepOptions, SweepReport, SweepSpec,
};
use mcs_obs::RecorderHandle;
use mcs_pinalloc::{PinAllocError, PinIlp};

use crate::flows::{
    check_rate, pin_checker, run, ConnectFirstOptions, FlowError, FlowOutcome, FlowSpec,
    RunContext, WarmStart,
};
use crate::netlist;

/// Portfolio size for connect-first points. Pinned (rather than derived
/// from thread count) so the search — and therefore the report — is
/// identical however many sweep or daemon workers run.
const POINT_PORTFOLIO: usize = 4;

/// The spec one sweep point — or one serve daemon job — runs for `flow`
/// at `rate`: each flow's defaults, with a single-worker connection
/// search over a pinned portfolio. Every spec has unidirectional ports,
/// which [`run_point`]'s witness argument needs.
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

/// `cdfg` with chip `i + 1`'s pin budget set to `budget[i]` and its fixed
/// input/output split cleared; the environment (partition 0) keeps its
/// own. The caller checks that `budget` has one entry per chip.
pub fn with_pin_budgets(cdfg: &Cdfg, budget: &[u32]) -> Cdfg {
    let mut cdfg = cdfg.clone();
    for (i, &pins) in budget.iter().enumerate() {
        let p = cdfg.partition_mut(PartitionId::new(i as u32 + 1));
        p.total_pins = pins;
        p.fixed_split = None;
    }
    cdfg
}

/// Maps a definitive flow failure onto the point-status taxonomy, with
/// its detail text. Only the exact pin ILP's `InfeasibleFromTheStart`
/// lifts to dominated points; every other failure is an incomplete
/// search. Interruption is not a verdict about the design: it lands in
/// the error bucket, so it can never prune. A pin-allocation failure's
/// detail is the pin allocator's own message.
pub fn failure_status(err: &FlowError) -> (PointStatus, String) {
    let status = match err {
        FlowError::PinAllocation(PinAllocError::InfeasibleFromTheStart) => {
            PointStatus::PinInfeasible
        }
        FlowError::NotSimple(_)
        | FlowError::PinAllocation(_)
        | FlowError::Interrupted(_)
        | FlowError::RateTooLarge { .. } => PointStatus::Error,
        _ => PointStatus::SearchFailed,
    };
    let detail = match err {
        FlowError::PinAllocation(e) => e.to_string(),
        e => e.to_string(),
    };
    (status, detail)
}

/// What [`run_point`] made of one point.
#[derive(Debug)]
pub struct PointRun {
    /// Status (always set), detail, measures and work counters.
    pub point: PointOutcome,
    /// The flow's outcome, with the point's final verdict in `result` (an
    /// explanation's `InfeasibleFromTheStart` or interruption replaces
    /// the flow's failure) and its exports moved to `export`.
    pub outcome: FlowOutcome,
    /// What later points may adopt: a finished Chapter 3 run's probe
    /// verdicts. `None` for a failed Chapter 3 point and for the other
    /// flows.
    pub export: Option<WarmStart>,
}

/// Runs one point: `flow` at `rate` on `cdfg`, budgets already applied.
///
/// The order is [`PinIlp::new`] (which refuses an oversized rate without
/// building anything), the counting bound, the flow, the greedy witness,
/// and the exact checker last:
///
/// * A system the bound refutes ([`PinIlp::refutation`]) answers
///   `InfeasibleFromTheStart` at once: no flow runs, so the search
///   counters read 0 and nothing is exported.
/// * [`run`] runs the [`point_spec`]. A result within every partition's
///   budget, the environment's included, is feasible and needs no
///   explanation.
/// * A failure other than an interruption, or a Chapter 5 result over
///   some budget (that flow never reads one), is explained. A packing
///   that satisfies every row ([`PinIlp::witness`]) keeps the flow's
///   verdict. Otherwise the exact checker decides under the context's
///   budget: `InfeasibleFromTheStart` makes the point pin-infeasible, an
///   interrupted solve interrupted, and any other answer keeps the
///   flow's verdict — a result over a chip's budget is a search failure,
///   one over the environment's alone stays feasible. The Chapter 3 flow
///   builds that checker itself.
///
/// Each step counts under `ctx.metrics` as `explain.refuted`,
/// `explain.witnessed` or `explain.solved`, inside an `explain` span.
pub fn run_point(cdfg: &Cdfg, flow: FlowVariant, rate: u32, ctx: &RunContext) -> PointRun {
    seeded_point(cdfg, flow, rate, ctx, &[])
}

/// [`run_point`] whose flow also adopts every donor's exports into the
/// context's warm start. The copy is made only when the flow runs, so a
/// point the counting bound refutes copies no probe verdict.
fn seeded_point(
    cdfg: &Cdfg,
    flow: FlowVariant,
    rate: u32,
    ctx: &RunContext,
    donors: &[(PointCoord, Arc<WarmStart>)],
) -> PointRun {
    let ilp = PinIlp::new(cdfg, rate);
    let refuted = ilp.as_ref().is_ok_and(|ilp| {
        // A rate over the flows' ceiling keeps the flow's own refusal.
        let _span = ctx.metrics.span("explain");
        check_rate(rate).is_ok() && ilp.refutation().is_some()
    });
    let mut outcome = match ilp {
        Err(ref e) => FlowOutcome::from(Err(e.clone().into())),
        Ok(_) if refuted => {
            ctx.metrics.add("explain.refuted", 1);
            FlowOutcome::from(Err(PinAllocError::InfeasibleFromTheStart.into()))
        }
        Ok(_) if donors.is_empty() => run(cdfg, &point_spec(flow, rate), ctx),
        Ok(_) => {
            let mut seeded = ctx.clone();
            for (_, donor) in donors {
                seeded.warm.adopt(donor);
            }
            run(cdfg, &point_spec(flow, rate), &seeded)
        }
    };
    let over: Vec<_> = outcome
        .result
        .iter()
        .flat_map(|result| result.interconnect.over_budget(cdfg))
        .collect();
    let unsolved = match &outcome.result {
        Ok(_) => !over.is_empty(),
        Err(e) => !matches!(
            e,
            FlowError::Interrupted(_)
                | FlowError::PinAllocation(_)
                | FlowError::RateTooLarge { .. }
        ),
    };
    let over_chips: Vec<String> = over
        .iter()
        .filter(|(p, ..)| p.index() > 0)
        .map(|(p, used, budget)| format!("chip {} uses {used} > {budget}", p.index()))
        .collect();
    if let (true, Ok(ilp)) = (unsolved && flow != FlowVariant::Simple, &ilp) {
        let _span = ctx.metrics.span("explain");
        if ilp.witness().is_some() {
            ctx.metrics.add("explain.witnessed", 1);
        } else {
            ctx.metrics.add("explain.solved", 1);
            match pin_checker(cdfg, rate, None, ctx) {
                Err(e @ PinAllocError::InfeasibleFromTheStart) => {
                    outcome.result = Err(e.into());
                    outcome.termination = Termination::Complete;
                }
                Err(PinAllocError::Interrupted(t)) => {
                    outcome.result = Err(FlowError::Interrupted(t));
                    outcome.termination = t;
                }
                _ => {}
            }
        }
    }
    let mut point = PointOutcome::default();
    if let Some(st) = &outcome.search_stats {
        point.search_nodes = st.nodes;
    }
    if let Some(probe) = &outcome.probe_stats {
        point.solver_probes = probe.solver_probes;
        point.probe_memo_hits = probe.memo_hits;
        point.probe_seed_hits = probe.seed_hits;
    }
    let (status, detail) = match &outcome.result {
        Ok(_) if !over_chips.is_empty() => (
            PointStatus::SearchFailed,
            format!("over budget: {}", over_chips.join(", ")),
        ),
        Ok(result) => {
            point.latency = Some(result.pipe_length);
            point.total_pins = Some(result.pins_used.iter().skip(1).sum());
            point.buses = Some(result.interconnect.buses.len() as u32);
            let nl = netlist::build(cdfg, &result.schedule, &result.interconnect);
            let registers = nl.chips.values().flat_map(|c| c.registers.iter());
            point.registers = Some(registers.map(|r| r.copies).sum());
            (PointStatus::Feasible, String::new())
        }
        Err(e) => failure_status(e),
    };
    (point.status, point.detail) = (Some(status), detail);
    let exports = std::mem::take(&mut outcome.exports);
    let publish = flow == FlowVariant::Simple && outcome.result.is_ok();
    PointRun {
        point,
        outcome,
        export: publish.then_some(exports),
    }
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

/// The sweep's lattice-point runner: applies the budget vector
/// ([`with_pin_budgets`]) and runs the point with the seeds as donors
/// ([`run_point`], adopting them only if the flow runs) under
/// the sweep's execution budget, which the driver (given the same
/// handle) also observes at wave barriers. Per-point synthesis runs on
/// sweep worker threads without an event sink, so the event stream does
/// not depend on the worker count; its counters, histograms and spans
/// still aggregate into the registry.
struct DesignRunner<'a> {
    cdfg: &'a Cdfg,
    flow: FlowVariant,
    budget: Option<mcs_ctl::Budget>,
    metrics: mcs_metrics::MetricsHandle,
}

impl PointRunner for DesignRunner<'_> {
    type Export = WarmStart;

    fn run(
        &self,
        coord: PointCoord,
        budget: &[u32],
        seeds: &[(PointCoord, Arc<WarmStart>)],
    ) -> (PointOutcome, Option<WarmStart>) {
        let cdfg = with_pin_budgets(self.cdfg, budget);
        let ctx = RunContext {
            budget: self.budget.clone(),
            metrics: self.metrics.clone(),
            warm: WarmStart::default(),
        };
        let run = seeded_point(&cdfg, self.flow, coord.rate, &ctx, seeds);
        (run.point, run.export)
    }
}

/// Runs a full design-space sweep over `cdfg` inside an `explore` span.
/// An active `recorder` becomes the event sink of `opts.metrics`; the
/// only decision events a sweep records are the `explore` phase pair and
/// a `WorkerPanic` per quarantined point at its wave barrier, because
/// per-point flows run without a sink. The
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
    let runner = DesignRunner {
        cdfg,
        flow: spec.flow,
        budget: opts.budget.clone(),
        metrics: opts.metrics.clone().without_events(),
    };
    let _span = opts.metrics.span("explore");
    Ok(sweep(spec, &runner, &opts)?)
}
