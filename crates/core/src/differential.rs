//! The differential oracles of the `mcs-fuzz` harness.
//!
//! Each oracle runs one generated design through two or more independent
//! implementations of the same question and reports any divergence:
//!
//! 1. [`flow_differential`] — the three synthesis flows (Chapters 3, 4/6
//!    and 5) must agree on feasibility, and every produced result must
//!    pass [`SynthesisResult::check`] under its flow's [`Contract`].
//! 2. [`sim_differential`] — the cycle-accurate engine and the untimed
//!    reference simulator must compute identical primary outputs for the
//!    synthesized design under seeded random stimulus.
//! 3. [`probe_differential`] / [`anytime_differential`] — the trail-based
//!    pin-feasibility probe must stay verdict-identical to the
//!    clone-per-probe oracle under fuzzed pivot budgets, and budgeted
//!    (`mcs-ctl`) runs must behave as *anytime prefixes*: interruption
//!    never manufactures a definitive answer, and completed budgeted
//!    runs match the unbudgeted ground truth.
//!
//! 4. [`explain_differential`] — the two cheap certificates of the
//!    point runner's explanation ([`PinIlp::refutation`] and
//!    [`PinIlp::witness`]) must never contradict the exact pin ILP, and
//!    neither the bound nor the exact ILP may refute a system that a
//!    unidirectional flow implemented within its budgets.
//!
//! Feasibility agreement is asserted at proof strength, not heuristic
//! strength: a flow that *gives up* (portfolio search exhausted, greedy
//! list scheduler painted into a corner, budget tripped) reports
//! [`Verdict::Unknown`], which never disagrees with anything. Only a
//! *proof* of infeasibility ([`Verdict::Infeasible`]) conflicting with a
//! verified result ([`Verdict::Feasible`]), or a verifier-rejected
//! result ([`Verdict::Broken`]), counts as a finding.

use mcs_cdfg::{timing, Cdfg, PartitionId, PortMode};
use mcs_ctl::{Budget, BudgetSpec, Termination};
use mcs_explore::FlowVariant;
use mcs_metrics::MetricsHandle;
use mcs_pinalloc::{PinAllocError, PinChecker, PinIlp, DEFAULT_PIVOT_BUDGET};
use mcs_sim::{verify, Semantics, Stimulus, Violation};

use crate::explore::point_spec;
use crate::flows::{
    connect_first_flow, run, schedule_first_flow, simple_flow, ConnectFirstOptions, Contract,
    FlowError, FlowOutcome, FlowSpec, RunContext, SynthesisResult,
};

/// What one synthesis flow concluded about a design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Produced a result that passed its post-synthesis verifier.
    Feasible,
    /// Proved no implementation exists (exact infeasibility).
    Infeasible(String),
    /// Gave up heuristically or was interrupted — proves nothing.
    Unknown(String),
    /// The flow does not apply to this design (e.g. the partitioning is
    /// not simple, so the Chapter 3 flow is out of scope).
    Skipped(String),
    /// The flow violated an internal invariant: it returned a result its
    /// own verifier rejects, or an `Invalid*` error. Always a bug.
    Broken(String),
}

impl Verdict {
    /// Short stable tag for reports and bench lines.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::Feasible => "feasible",
            Verdict::Infeasible(_) => "infeasible",
            Verdict::Unknown(_) => "unknown",
            Verdict::Skipped(_) => "skipped",
            Verdict::Broken(_) => "broken",
        }
    }
}

/// The three-way flow comparison for one design.
#[derive(Clone, Debug)]
pub struct FlowDifferential {
    /// Initiation rate used by every flow (the recursion lower bound).
    pub rate: u32,
    /// Pipe-length bound handed to the schedule-first flow.
    pub pipe_length: i64,
    /// Chapter 3 verdict.
    pub simple: Verdict,
    /// Chapter 4/6 verdict.
    pub connect: Verdict,
    /// Chapter 5 verdict.
    pub schedule_first: Verdict,
    /// Human-readable divergence descriptions; empty means agreement.
    pub disagreements: Vec<String>,
}

impl FlowDifferential {
    /// `true` when the three flows are mutually consistent.
    pub fn agreed(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// `true` when at least one flow produced a verified result.
    pub fn any_feasible(&self) -> bool {
        [&self.simple, &self.connect, &self.schedule_first]
            .iter()
            .any(|v| matches!(v, Verdict::Feasible))
    }
}

/// Classifies a budget-constrained flow outcome (simple / connect-first):
/// results are re-checked under [`Contract::Constrained`], errors sorted
/// into proof-strength bins.
fn classify_budgeted(
    cdfg: &Cdfg,
    outcome: Result<SynthesisResult, FlowError>,
    allow_not_simple: bool,
) -> Verdict {
    match outcome {
        Ok(r) => match r.check(cdfg, Contract::Constrained) {
            Ok(()) => Verdict::Feasible,
            Err(e) => Verdict::Broken(format!("flow result rejected by its check: {e:?}")),
        },
        Err(FlowError::NotSimple(v)) if allow_not_simple => Verdict::Skipped(v.to_string()),
        Err(FlowError::PinAllocation(PinAllocError::InfeasibleFromTheStart)) => {
            Verdict::Infeasible("no pin allocation exists even before scheduling".into())
        }
        Err(FlowError::Interrupted(t)) => Verdict::Unknown(format!("interrupted ({t})")),
        Err(e @ (FlowError::Connect(_) | FlowError::Schedule(_) | FlowError::PinAllocation(_))) => {
            Verdict::Unknown(e.to_string())
        }
        Err(e) => Verdict::Broken(e.to_string()),
    }
}

/// Runs one design through all three synthesis flows and cross-checks
/// their verdicts. The initiation rate is the design's recursion lower
/// bound; the schedule-first pipe length is generous (serial total plus
/// one rate), so a Chapter 5 failure on a design another flow scheduled
/// counts as a divergence.
pub fn flow_differential(cdfg: &Cdfg) -> FlowDifferential {
    flow_differential_with_ports(cdfg, PortMode::Unidirectional)
}

/// [`flow_differential`] with an explicit port regime for the
/// schedule-first flow. The nightly fuzz profile sweeps a weighted mix
/// of unidirectional and bidirectional seeds (Chapter 4's port-sharing
/// machinery) through the same three-way agreement check; port mode
/// never weakens the oracle because schedule-first reports pin demand
/// instead of proving anything about it.
pub fn flow_differential_with_ports(cdfg: &Cdfg, ports: PortMode) -> FlowDifferential {
    let rate = timing::min_initiation_rate(cdfg).max(1);
    let total_cycles: i64 = cdfg.op_ids().map(|op| i64::from(cdfg.op_cycles(op))).sum();
    let pipe_length = total_cycles + i64::from(rate);

    // The Chapter 3 flow refuses a design that is not simple before it
    // builds its pin checker; the checker's own verdict on the design is
    // still a proof when no pin allocation exists at all.
    let simple = match simple_flow(cdfg, rate) {
        Err(FlowError::NotSimple(v)) => match PinChecker::new(cdfg, rate) {
            Ok(_) => Verdict::Skipped(v.to_string()),
            Err(e) => classify_budgeted(cdfg, Err(e.into()), true),
        },
        outcome => classify_budgeted(cdfg, outcome, true),
    };
    let connect = classify_budgeted(
        cdfg,
        connect_first_flow(cdfg, &ConnectFirstOptions::new(rate)),
        false,
    );
    // Chapter 5 reports pins instead of constraining them, so its result
    // is checked without budgets and it never proves pin infeasibility.
    let schedule_first = match schedule_first_flow(cdfg, rate, pipe_length, ports) {
        Ok(r) => match r.check(cdfg, Contract::Reported) {
            Ok(()) => Verdict::Feasible,
            Err(e) => Verdict::Broken(format!(
                "schedule-first result rejected by its check: {e:?}"
            )),
        },
        Err(FlowError::Interrupted(t)) => Verdict::Unknown(format!("interrupted ({t})")),
        Err(e @ FlowError::Schedule(_)) => Verdict::Unknown(e.to_string()),
        Err(e) => Verdict::Broken(e.to_string()),
    };

    let mut disagreements = Vec::new();
    let named = [
        ("simple", &simple),
        ("connect-first", &connect),
        ("schedule-first", &schedule_first),
    ];
    for (name, v) in named {
        if let Verdict::Broken(why) = v {
            disagreements.push(format!("{name}: {why}"));
        }
    }
    // A proof of infeasibility may not coexist with a verified result.
    // Schedule-first ignores pin budgets, so its feasibility only
    // contradicts *structural* proofs, never pin-budget proofs — and it
    // never produces proofs itself.
    for (pname, pv) in [("simple", &simple), ("connect-first", &connect)] {
        if let Verdict::Infeasible(why) = pv {
            for (fname, fv) in [("simple", &simple), ("connect-first", &connect)] {
                if pname != fname && matches!(fv, Verdict::Feasible) {
                    disagreements.push(format!(
                        "{pname} proved infeasibility ({why}) but {fname} produced a \
                         budget-verified result"
                    ));
                }
            }
        }
    }

    FlowDifferential {
        rate,
        pipe_length,
        simple,
        connect,
        schedule_first,
        disagreements,
    }
}

/// The engine-vs-reference comparison for one synthesized design.
#[derive(Clone, Debug)]
pub struct SimDifferential {
    /// Which flow produced the executable implementation.
    pub flow: &'static str,
    /// Execution instances driven through the pipeline.
    pub instances: u32,
    /// Primary-output words compared.
    pub outputs: usize,
    /// Engine-vs-reference divergences; empty means agreement.
    pub mismatches: Vec<String>,
}

/// Synthesizes `cdfg` with the first flow that succeeds (connect-first,
/// then simple, then schedule-first) and verifies the cycle-accurate
/// engine against the untimed reference under `instances` overlapped
/// executions of seeded random stimulus. Returns `None` when no flow
/// produces an implementation to execute.
pub fn sim_differential(cdfg: &Cdfg, instances: u32, seed: u64) -> Option<SimDifferential> {
    let rate = timing::min_initiation_rate(cdfg).max(1);
    let total_cycles: i64 = cdfg.op_ids().map(|op| i64::from(cdfg.op_cycles(op))).sum();
    let (flow, result) = if let Ok(r) = connect_first_flow(cdfg, &ConnectFirstOptions::new(rate)) {
        ("connect-first", r)
    } else if let Ok(r) = simple_flow(cdfg, rate) {
        ("simple", r)
    } else if let Ok(r) = schedule_first_flow(
        cdfg,
        rate,
        total_cycles + i64::from(rate),
        PortMode::Unidirectional,
    ) {
        ("schedule-first", r)
    } else {
        return None;
    };

    let stim = Stimulus::random(cdfg, instances, seed);
    let ic = result.final_interconnect();
    match verify(cdfg, &result.schedule, Some(&ic), &Semantics::new(), &stim) {
        Ok(report) => Some(SimDifferential {
            flow,
            instances,
            outputs: report.outputs.len(),
            mismatches: Vec::new(),
        }),
        Err(violations) => Some(SimDifferential {
            flow,
            instances,
            outputs: 0,
            mismatches: violations
                .iter()
                // Chapter 5 reports pin demand instead of constraining it,
                // so overrunning an (advisory) budget is the expected
                // outcome for schedule-first implementations, not a bug.
                .filter(|v| {
                    !(flow == "schedule-first" && matches!(v, Violation::PinOveruse { .. }))
                })
                .map(|v| v.to_string())
                .collect(),
        }),
    }
}

/// The trail-vs-clone probe comparison for one design.
#[derive(Clone, Debug, Default)]
pub struct ProbeDifferential {
    /// Probes answered by *both* engines.
    pub probes: usize,
    /// Verdict divergences, formatted for triage; empty means the trail
    /// engine is verdict-identical to the clone oracle.
    pub mismatches: Vec<String>,
}

/// Sweeps every `(transfer, control-step group)` probe through both the
/// trail-based engine and the clone oracle, once per fuzzed pivot
/// budget. Budgets bite differently (tiny budgets force the exact
/// fallback on one side or the other), which is exactly the surface the
/// differential must cover.
///
/// # Errors
///
/// Propagates checker construction failure; callers treat
/// [`PinAllocError::InfeasibleFromTheStart`] as a skip, not a finding.
pub fn probe_differential(
    cdfg: &Cdfg,
    rate: u32,
    pivot_budgets: &[usize],
) -> Result<ProbeDifferential, PinAllocError> {
    let mut out = ProbeDifferential::default();
    for &budget in pivot_budgets {
        let mut checker =
            PinChecker::with_context(cdfg, rate, budget, None, &MetricsHandle::default())?;
        let io_ops = cdfg.io_ops().count();
        out.probes += io_ops * rate as usize;
        for (op, step, trail, clone) in checker.probe_sweep() {
            out.mismatches.push(format!(
                "pivot budget {budget}: probe ({op}, step {step}) diverged \
                 (trail={trail}, clone={clone})"
            ));
        }
    }
    Ok(out)
}

/// The anytime/cancellation invariant check for one design.
#[derive(Clone, Debug, Default)]
pub struct AnytimeDifferential {
    /// Budgeted runs examined.
    pub checks: usize,
    /// Contract violations; empty means every budgeted run was a true
    /// prefix (interruption carried no definitive answer, completion
    /// matched the unbudgeted ground truth).
    pub violations: Vec<String>,
}

/// Checks the anytime contract of the budgeted flows against unbudgeted
/// ground truth: under progressively tighter work ceilings and an
/// immediate cancellation, an interrupted run must report no result *and*
/// no definitive error, its best-so-far depth must not exceed the ground
/// truth run's, and a run that completes within its budget must agree
/// with the unbudgeted verdict.
pub fn anytime_differential(cdfg: &Cdfg, rate: u32) -> AnytimeDifferential {
    let mut out = AnytimeDifferential::default();
    let budgeted = |budget: Budget| RunContext {
        budget: Some(budget),
        ..RunContext::default()
    };
    let interrupted = |o: &FlowOutcome| matches!(o.result, Err(FlowError::Interrupted(_)));

    // Ground truth: unbudgeted connect-first.
    let connect = FlowSpec::Connect(ConnectFirstOptions::new(rate));
    let truth = run(cdfg, &connect, &RunContext::default());
    let truth_feasible = truth.result.is_ok();
    let truth_depth = truth.best_depth;

    let mut specs: Vec<(String, Budget)> = [1u64, 4, 32, 1024]
        .iter()
        .map(|&n| {
            (
                format!("max_nodes({n})"),
                Budget::new(BudgetSpec::default().max_nodes(n)),
            )
        })
        .collect();
    let cancelled = Budget::new(BudgetSpec::default());
    cancelled.cancel_token().cancel();
    specs.push(("pre-cancelled".into(), cancelled));

    for (name, budget) in specs {
        out.checks += 1;
        let o = run(cdfg, &connect, &budgeted(budget));
        if o.termination == Termination::Complete {
            let got = o.result.is_ok();
            if got != truth_feasible {
                out.violations.push(format!(
                    "connect-first under {name} completed with feasible={got} but \
                     unbudgeted ground truth says feasible={truth_feasible}"
                ));
            }
        } else {
            if !interrupted(&o) {
                out.violations.push(format!(
                    "connect-first under {name} was interrupted ({}) yet reported a \
                     definitive answer",
                    o.termination
                ));
            }
            if o.best_depth > truth_depth {
                out.violations.push(format!(
                    "connect-first under {name} claims best_depth {} beyond the \
                     ground-truth run's {truth_depth} — not a prefix",
                    o.best_depth
                ));
            }
        }
    }

    // The simple flow's anytime contract, under a probe ceiling.
    let simple_truth = simple_flow(cdfg, rate);
    if !matches!(simple_truth, Err(FlowError::NotSimple(_))) {
        let truth_feasible = simple_truth.is_ok();
        let simple = FlowSpec::Simple {
            rate,
            pivot_budget: None,
        };
        for n in [1u64, 16, 256] {
            out.checks += 1;
            let budget = Budget::new(BudgetSpec::default().max_probes(n));
            let o = run(cdfg, &simple, &budgeted(budget));
            if o.termination == Termination::Complete {
                let got = o.result.is_ok();
                if got != truth_feasible {
                    out.violations.push(format!(
                        "simple flow under max_probes({n}) completed with feasible={got} \
                         but unbudgeted ground truth says feasible={truth_feasible}"
                    ));
                }
            } else if o.result.is_ok() {
                out.violations.push(format!(
                    "simple flow under max_probes({n}) was interrupted ({}) yet \
                     reported a result",
                    o.termination
                ));
            }
        }
    }

    out
}

/// The explanation check for one pin system.
#[derive(Clone, Debug, Default)]
pub struct ExplainDifferential {
    /// The counting bound refuted the system.
    pub refuted: bool,
    /// The greedy packing witnessed the system.
    pub witnessed: bool,
    /// A unidirectional flow (connect-first or schedule-first, as a
    /// sweep point runs them) produced a result that passes
    /// [`SynthesisResult::check`] under [`Contract::Constrained`]: within
    /// every partition's budget, the environment's included.
    pub flow_feasible: bool,
    /// The exact ILP's answer: feasible, `InfeasibleFromTheStart`, or
    /// `None` when its pivot ceiling tripped and the system proves
    /// nothing.
    pub exact: Option<bool>,
    /// Contradictions; empty means agreement.
    pub disagreements: Vec<ExplainDisagreement>,
}

/// One contradiction [`explain_differential`] can find.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExplainDisagreement {
    /// The counting bound refuted this partition's rows, but the exact
    /// ILP is feasible.
    Refuted(PartitionId),
    /// The greedy witness packed a system the exact ILP calls
    /// `InfeasibleFromTheStart`.
    Witnessed,
    /// The exact ILP calls the system `InfeasibleFromTheStart`, but a
    /// unidirectional flow implemented it within its budgets.
    ExactAgainstFlow,
    /// The counting bound refuted this partition's rows, but a
    /// unidirectional flow implemented the system within its budgets.
    RefutedAgainstFlow(PartitionId),
}

impl std::fmt::Display for ExplainDisagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExplainDisagreement::Refuted(p) => write!(
                f,
                "the counting bound refuted {p}'s rows but the exact ILP is feasible"
            ),
            ExplainDisagreement::Witnessed => write!(
                f,
                "the greedy witness packed a system the exact ILP calls infeasible"
            ),
            ExplainDisagreement::ExactAgainstFlow => write!(
                f,
                "the exact ILP calls the system infeasible but a unidirectional flow \
                 implemented it within its budgets"
            ),
            ExplainDisagreement::RefutedAgainstFlow(p) => write!(
                f,
                "the counting bound refuted {p}'s rows but a unidirectional flow \
                 implemented the system within its budgets"
            ),
        }
    }
}

/// Checks the point runner's explanation of `cdfg` at `rate` against the
/// exact pin ILP, solved under a ceiling of `max_pivots`. A refutation
/// next to a feasible ILP, a witness next to `InfeasibleFromTheStart`, or
/// `InfeasibleFromTheStart` next to a verified unidirectional result
/// within budgets is a disagreement, and so is a refutation next to such
/// a result, which would turn a point the flow solves pin-infeasible.
/// With the ceiling tripped only that last comparison is made.
///
/// # Errors
///
/// [`PinAllocError::ZeroRate`] and [`PinAllocError::TableauTooLarge`]
/// from [`PinIlp::new`].
pub fn explain_differential(
    cdfg: &Cdfg,
    rate: u32,
    max_pivots: u64,
) -> Result<ExplainDifferential, PinAllocError> {
    let ilp = PinIlp::new(cdfg, rate)?;
    let budget = Budget::new(BudgetSpec::default().max_pivots(max_pivots));
    let exact = match PinChecker::with_context(
        cdfg,
        rate,
        DEFAULT_PIVOT_BUDGET,
        Some(budget),
        &MetricsHandle::default(),
    ) {
        Ok(_) => Some(true),
        Err(PinAllocError::InfeasibleFromTheStart) => Some(false),
        Err(_) => None,
    };
    let flow_feasible = [FlowVariant::ConnectFirst, FlowVariant::ScheduleFirst]
        .into_iter()
        .any(|flow| {
            run(cdfg, &point_spec(flow, rate), &RunContext::default())
                .result
                .is_ok_and(|r| r.check(cdfg, Contract::Constrained).is_ok())
        });
    let refutation = ilp.refutation();
    let mut out = ExplainDifferential {
        refuted: refutation.is_some(),
        witnessed: ilp.witness().is_some(),
        flow_feasible,
        exact,
        disagreements: Vec::new(),
    };
    if let (Some(p), true) = (refutation, flow_feasible) {
        out.disagreements
            .push(ExplainDisagreement::RefutedAgainstFlow(p));
    }
    let Some(feasible) = exact else {
        return Ok(out);
    };
    if let (Some(p), true) = (refutation, feasible) {
        out.disagreements.push(ExplainDisagreement::Refuted(p));
    }
    if out.witnessed && !feasible {
        out.disagreements.push(ExplainDisagreement::Witnessed);
    }
    if out.flow_feasible && !feasible {
        out.disagreements
            .push(ExplainDisagreement::ExactAgainstFlow);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::synthetic;

    #[test]
    fn quickstart_flows_agree() {
        let d = synthetic::quickstart();
        let r = flow_differential(d.cdfg());
        assert!(r.agreed(), "disagreements: {:?}", r.disagreements);
        assert!(r.any_feasible());
    }

    #[test]
    fn quickstart_sim_matches_reference() {
        let d = synthetic::quickstart();
        let r = sim_differential(d.cdfg(), 6, 42).expect("quickstart synthesizes");
        assert!(r.mismatches.is_empty(), "{:?}", r.mismatches);
        assert!(r.outputs > 0);
    }

    #[test]
    fn quickstart_probes_agree_across_budgets() {
        let d = synthetic::quickstart();
        let r = probe_differential(d.cdfg(), 2, &[0, 1, 8, 1 << 20]).expect("checker builds");
        assert!(r.mismatches.is_empty(), "{:?}", r.mismatches);
        assert!(r.probes > 0);
    }

    #[test]
    fn quickstart_explanation_agrees() {
        let d = synthetic::quickstart();
        let r = explain_differential(d.cdfg(), 2, 1_000).expect("the tableau fits");
        assert!(r.disagreements.is_empty(), "{:?}", r.disagreements);
        assert_eq!(r.exact, Some(true));
        assert!(r.witnessed && r.flow_feasible && !r.refuted, "{r:?}");
    }

    #[test]
    fn quickstart_anytime_contract_holds() {
        let d = synthetic::quickstart();
        let r = anytime_differential(d.cdfg(), 2);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.checks >= 5);
    }
}
