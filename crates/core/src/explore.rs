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
//!   ([`PinChecker::new`]): `InfeasibleFromTheStart` is the *only*
//!   verdict reported as [`PointStatus::PinInfeasible`], because it is
//!   the only one sound to lift to dominated points. Incomplete-search
//!   failures are [`PointStatus::SearchFailed`] and never prune.
//! * Warm starts transfer two payloads between points at the same rate:
//!   `false` epoch-0 probe verdicts (a probe infeasible under a looser
//!   budget stays infeasible under a tighter one — the `true` direction
//!   does not transfer and is filtered out) and connection-search
//!   refutation certificates (exhaustive-failure proofs, valid for any
//!   same-or-tighter budget; see [`mcs_connect::synthesize_seeded`]).

use mcs_cdfg::{Cdfg, PartitionId, PortMode};
use mcs_connect::RefutationCert;
use mcs_explore::{
    sweep, FlowVariant, PointCoord, PointOutcome, PointRunner, PointStatus, SweepError,
    SweepOptions, SweepReport, SweepSpec,
};
use mcs_obs::RecorderHandle;
use mcs_pinalloc::{PinAllocError, PinChecker};
use mcs_sched::Schedule;

use crate::flows::{
    connect_first_flow_seeded, schedule_first_flow_traced, simple_flow_with_checker,
    ConnectFirstOptions, FlowError, SynthesisResult,
};
use crate::netlist;

/// Portfolio size for connect-first sweep points. Pinned (rather than
/// derived from thread count) so the search — and therefore the report —
/// is identical however many sweep workers run.
const SWEEP_PORTFOLIO: usize = 4;

/// Warm-start payload carried between sweep points at the same rate.
#[derive(Clone, Debug, Default)]
pub struct ExploreExport {
    /// Epoch-0 pin-probe verdicts ([`PinChecker::initial_probe_memo`]).
    /// Only `false` entries are seeded into dominated points.
    pub probe_memo: Vec<((usize, i64), bool)>,
    /// Refutation certificates learned by the connection search.
    pub certs: Vec<RefutationCert>,
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
/// budget override, runs the configured flow, and packages warm-start
/// exports. Per-point synthesis runs on sweep worker threads without an
/// event sink, so the event stream does not depend on the worker count;
/// its counters, histograms and spans still aggregate into the registry.
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

    /// Shares an execution budget with every point's flow: pin probes,
    /// Gomory pivots, search nodes and scheduling steps all charge this
    /// ledger, so the sweep driver (given the same handle) observes a
    /// mid-wave trip at the next wave barrier. An interrupted point
    /// reports [`PointStatus::Error`] and never prunes.
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

    /// Maps a flow failure onto the point-status taxonomy. Only the
    /// gate's exact `InfeasibleFromTheStart` lifts to dominated points;
    /// everything downstream of the gate is an incomplete search.
    fn fail(err: FlowError, out: &mut PointOutcome) {
        out.status = Some(match err {
            FlowError::PinAllocation(PinAllocError::InfeasibleFromTheStart) => {
                PointStatus::PinInfeasible
            }
            // Interruption is not a verdict about the design; it lands
            // in the error bucket so it can never prune or export.
            FlowError::NotSimple(_) | FlowError::PinAllocation(_) | FlowError::Interrupted(_) => {
                PointStatus::Error
            }
            _ => PointStatus::SearchFailed,
        });
        out.detail = err.to_string();
    }
}

impl PointRunner for DesignRunner<'_> {
    type Export = ExploreExport;

    fn run(
        &self,
        coord: PointCoord,
        budget: &[u32],
        seeds: &[(PointCoord, std::sync::Arc<ExploreExport>)],
    ) -> (PointOutcome, Option<ExploreExport>) {
        let cdfg = self.apply_budget(budget);
        let mut out = PointOutcome::default();

        // The exact pin-feasibility gate, shared by every flow. Its
        // construction-time rejection is the one budget-dependent
        // verdict sound to lift (the dominance pruning rule).
        let mut checker = match PinChecker::new(&cdfg, coord.rate) {
            Ok(c) => c,
            Err(PinAllocError::InfeasibleFromTheStart) => {
                out.status = Some(PointStatus::PinInfeasible);
                out.detail = PinAllocError::InfeasibleFromTheStart.to_string();
                return (out, None);
            }
            Err(e) => {
                out.status = Some(PointStatus::Error);
                out.detail = e.to_string();
                return (out, None);
            }
        };

        // Only `false` verdicts transfer from looser-budget donors: an
        // infeasible probe stays infeasible with fewer pins, but a
        // feasible one may not.
        let seed_memo: Vec<((usize, i64), bool)> = seeds
            .iter()
            .flat_map(|(_, e)| e.probe_memo.iter())
            .filter(|&&(_, verdict)| !verdict)
            .copied()
            .collect();
        let seed_certs: Vec<RefutationCert> = seeds
            .iter()
            .flat_map(|(_, e)| e.certs.iter().cloned())
            .collect();

        match self.flow {
            FlowVariant::Simple => {
                checker.seed_initial_memo(&seed_memo);
                if let Some(b) = &self.budget {
                    checker.set_budget(b.clone());
                }
                match simple_flow_with_checker(
                    &cdfg,
                    coord.rate,
                    checker,
                    &RecorderHandle::default(),
                    &self.metrics,
                ) {
                    Ok((result, probe)) => {
                        Self::measure(&cdfg, &result, &mut out);
                        out.solver_probes = probe.stats.solver_probes;
                        out.probe_memo_hits = probe.stats.memo_hits;
                        out.probe_seed_hits = probe.stats.seed_hits;
                        let export = ExploreExport {
                            probe_memo: probe.initial_memo,
                            certs: Vec::new(),
                        };
                        (out, Some(export))
                    }
                    Err(e) => {
                        Self::fail(e, &mut out);
                        (out, None)
                    }
                }
            }
            FlowVariant::ConnectFirst => {
                let mut opts = ConnectFirstOptions::new(coord.rate);
                opts.workers = 1;
                opts.portfolio = Some(SWEEP_PORTFOLIO);
                opts.budget = self.budget.clone();
                opts.metrics = self.metrics.clone();
                let (res, report) = connect_first_flow_seeded(&cdfg, &opts, &seed_certs);
                out.search_nodes = report.stats.nodes;
                out.search_cache_hits = report.stats.cache_hits;
                out.cert_seed_hits = report.stats.seed_hits;
                // Certificates export even from failed points — failed
                // searches produce the most valuable proofs.
                let export = ExploreExport {
                    probe_memo: Vec::new(),
                    certs: report.learned,
                };
                match res {
                    Ok(result) => Self::measure(&cdfg, &result, &mut out),
                    Err(e) => Self::fail(e, &mut out),
                }
                (out, Some(export))
            }
            FlowVariant::ScheduleFirst => {
                let pipe = default_pipe_length(&cdfg, coord.rate);
                match schedule_first_flow_traced(
                    &cdfg,
                    coord.rate,
                    pipe,
                    PortMode::Unidirectional,
                    &self.metrics,
                ) {
                    Ok(result) => {
                        // The Chapter 5 flow reports pins instead of
                        // constraining them; budgets are checked after
                        // the fact. An over-budget result is a search
                        // failure, NOT a liftable infeasibility — the
                        // flow never consulted the budget, so the
                        // verdict carries no dominance information.
                        let over: Vec<String> = result
                            .pins_used
                            .iter()
                            .enumerate()
                            .skip(1)
                            .filter(|&(i, &used)| used > budget[i - 1])
                            .map(|(i, &used)| {
                                format!("chip {} uses {} > {}", i, used, budget[i - 1])
                            })
                            .collect();
                        if over.is_empty() {
                            Self::measure(&cdfg, &result, &mut out);
                        } else {
                            out.status = Some(PointStatus::SearchFailed);
                            out.detail = format!("over budget: {}", over.join(", "));
                        }
                    }
                    Err(e) => Self::fail(e, &mut out),
                }
                (out, None)
            }
        }
    }
}

/// The pipe-length bound the schedule-first flow uses when the sweep
/// does not fix one: ASAP critical path plus one initiation interval
/// (the same default the `mcs-hls` CLI applies).
fn default_pipe_length(cdfg: &Cdfg, rate: u32) -> i64 {
    mcs_cdfg::timing::asap(cdfg)
        .map(|t| {
            Schedule {
                rate,
                start: t.start,
            }
            .pipe_length(cdfg)
                + rate as i64
        })
        .unwrap_or(3 * rate as i64)
}

/// Runs a full design-space sweep over `cdfg` inside an `explore` span.
/// An active `recorder` becomes the event sink of `opts.metrics`; the
/// only decision events a sweep records are the `explore` phase pair and
/// a `WorkerPanic` per quarantined point at its wave barrier, because
/// per-point flows run without a sink (see [`DesignRunner`]). The
/// aggregate `explore.*` counters and gauges go to the registry.
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
