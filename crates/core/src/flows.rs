//! End-to-end synthesis flows combining the workspace crates, one per
//! chapter of the paper's methodology.

use std::collections::BTreeMap;

use mcs_cdfg::{BusId, Cdfg, OpId, OperatorClass, PartitionId, PortMode};
use mcs_connect::{
    share_pass, synthesize_seeded, ConnectError, Interconnect, RefutationCert, SearchConfig,
    SearchStats,
};
use mcs_ctl::{Budget, Termination};
use mcs_metrics::MetricsHandle;
use mcs_obs::{Event, RecorderHandle};
use mcs_pinalloc::{check_simple, PinAllocError, PinChecker, ProbeCacheStats, SimplicityViolation};
use mcs_postsyn::{
    connect_after_scheduling, connect_packed, verify_against_schedule, PostsynConfig,
};
use mcs_sched::{
    fds_schedule, list_schedule, validate, BusPolicy, FdsConfig, ListConfig, PinPolicy, SchedError,
    Schedule, ScheduleViolation, SlotPlacement,
};

pub use crate::resynth::{resynth_flow, resynth_flow_traced, ResynthOutcome, ResynthPath};

/// Anything a flow can fail with.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// The partitioning is not simple (Definition 3.2) but the Chapter 3
    /// flow was requested.
    NotSimple(SimplicityViolation),
    /// Pin allocation failed (Chapter 3).
    PinAllocation(PinAllocError),
    /// Connection synthesis failed (Chapter 4/6).
    Connect(ConnectError),
    /// Scheduling failed.
    Schedule(SchedError),
    /// A produced schedule violated validation — a bug, reported loudly.
    InvalidSchedule(Vec<ScheduleViolation>),
    /// The post-scheduling connection conflicts with the schedule.
    InvalidConnection(Vec<String>),
    /// The flow's execution [`Budget`] tripped (or its cancel token
    /// fired) before a verdict was reached. Not a property of the
    /// design: rerunning with a larger budget may succeed.
    Interrupted(Termination),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::NotSimple(v) => write!(f, "partitioning is not simple: {v}"),
            FlowError::PinAllocation(e) => write!(f, "pin allocation failed: {e}"),
            FlowError::Connect(e) => write!(f, "connection synthesis failed: {e}"),
            FlowError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            FlowError::InvalidSchedule(v) => {
                write!(f, "schedule failed validation ({} violations)", v.len())
            }
            FlowError::InvalidConnection(v) => {
                write!(f, "connection failed validation ({} problems)", v.len())
            }
            FlowError::Interrupted(t) => write!(f, "synthesis interrupted ({t})"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<PinAllocError> for FlowError {
    fn from(e: PinAllocError) -> Self {
        match e {
            PinAllocError::Interrupted(t) => FlowError::Interrupted(t),
            e => FlowError::PinAllocation(e),
        }
    }
}

impl From<ConnectError> for FlowError {
    fn from(e: ConnectError) -> Self {
        match e {
            ConnectError::Interrupted(t) => FlowError::Interrupted(t),
            e => FlowError::Connect(e),
        }
    }
}

impl From<SchedError> for FlowError {
    fn from(e: SchedError) -> Self {
        match e {
            SchedError::Interrupted(t) => FlowError::Interrupted(t),
            e => FlowError::Schedule(e),
        }
    }
}

/// Cross-flow synthesis tunables (the knobs of the copy-free probe
/// engine). The default is the production configuration: the stock pivot
/// budget and no differential cross-checking.
#[derive(Clone, Debug, Default)]
pub struct SynthesisConfig {
    /// Pivot budget per pin-feasibility solve; `None` keeps
    /// [`mcs_pinalloc::DEFAULT_PIVOT_BUDGET`]. Any value — including 0 —
    /// is sound: the exact branch-and-bound fallback decides when the
    /// budget runs out.
    pub pivot_budget: Option<usize>,
    /// Cross-check every trail-based probe against the legacy clone-based
    /// path, panicking on divergence (differential testing; roughly
    /// doubles probe cost).
    pub probe_differential: bool,
    /// Optional execution budget shared by the pin checker (probes and
    /// Gomory pivots) and the list scheduler (control-step boundaries).
    /// A tripped budget surfaces as [`FlowError::Interrupted`].
    pub budget: Option<Budget>,
    /// Telemetry handle threaded through every layer the flow touches:
    /// the pin checker's probe histograms, the embedded ILP solver's
    /// counters, the list scheduler's placement attempts, the flow's own
    /// `flow/...` phase span tree, and — when it carries an event sink —
    /// every decision event. Disconnected by default (one branch per
    /// instrumentation point).
    pub metrics: MetricsHandle,
}

/// Common result pieces every flow produces.
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    /// The schedule of functional operations and I/O transfers.
    pub schedule: Schedule,
    /// The interchip connection structure.
    pub interconnect: Interconnect,
    /// Pins used per partition (index = partition id).
    pub pins_used: Vec<u32>,
    /// Pipe length in control steps.
    pub pipe_length: i64,
    /// Final per-transfer slot placements when the flow allocates buses
    /// during scheduling (Chapter 4/6 flows).
    pub placements: BTreeMap<OpId, SlotPlacement>,
    /// Transfers that changed bus relative to the initial assignment.
    pub reassigned: usize,
    /// Connection-search telemetry, for flows that run the Chapter 4
    /// portfolio search (`None` for schedule-first flows).
    pub search_stats: Option<SearchStats>,
}

impl SynthesisResult {
    pub(crate) fn common(cdfg: &Cdfg, schedule: Schedule, interconnect: Interconnect) -> Self {
        let pins_used = (0..cdfg.partition_count())
            .map(|p| interconnect.pins_used(PartitionId::new(p as u32)))
            .collect();
        let pipe_length = schedule.pipe_length(cdfg);
        SynthesisResult {
            schedule,
            interconnect,
            pins_used,
            pipe_length,
            placements: BTreeMap::new(),
            reassigned: 0,
            search_stats: None,
        }
    }

    /// Resource usage per `(partition, class)` (Tables 5.1/5.3).
    pub fn resources(&self, cdfg: &Cdfg) -> BTreeMap<(PartitionId, OperatorClass), u32> {
        self.schedule.resource_usage(cdfg)
    }

    /// The interconnect with every transfer at its *final* bus and range.
    ///
    /// Flows that allocate buses during scheduling (Section 4.2 dynamic
    /// reassignment) may move a transfer off its initial assignment; the
    /// moves are recorded in `placements`. Execution-level tools (the
    /// cycle-accurate simulator, RTL emission) must read this view, not
    /// the initial `interconnect`.
    pub fn final_interconnect(&self) -> Interconnect {
        let mut ic = self.interconnect.clone();
        for (op, p) in &self.placements {
            if let Some(a) = ic.assignment.get_mut(op) {
                a.bus = p.bus;
                a.range = p.range;
            }
        }
        ic
    }
}

/// Records the final pin-budget verdict per partition under a
/// `pin-check` span: one [`Event::PinCheck`] per partition, with `group`
/// carrying the partition id and `cap` its declared pin budget. The
/// events are skipped when the handle has no event sink.
fn record_pin_budget(cdfg: &Cdfg, result: &SynthesisResult, metrics: &MetricsHandle) {
    let _span = metrics.span("pin-check");
    if !metrics.tracing() {
        return;
    }
    let ic = result.final_interconnect();
    for p in 0..cdfg.partition_count() {
        let pid = PartitionId::new(p as u32);
        let used = ic.pins_used(pid);
        let cap = cdfg.partition(pid).total_pins;
        metrics.record(Event::PinCheck {
            group: p as u32,
            pins_used: used,
            cap,
            verdict: used <= cap,
        });
    }
}

/// The Chapter 3 flow for simple partitionings: verify Definition 3.2,
/// list-schedule under the incremental pin-allocation feasibility checker,
/// then build the interchip connection from the finished schedule (the
/// constructive guarantee of Theorem 3.1).
///
/// # Errors
///
/// [`FlowError::NotSimple`], [`FlowError::PinAllocation`], or any
/// scheduling failure.
pub fn simple_flow(cdfg: &Cdfg, rate: u32) -> Result<SynthesisResult, FlowError> {
    simple_flow_with(cdfg, rate, &SynthesisConfig::default())
}

/// [`simple_flow`] with explicit [`SynthesisConfig`] tunables: the pin
/// checker's pivot budget, the probe differential mode, an execution
/// budget, and the telemetry handle. With an event sink on the handle,
/// the run records a `schedule` phase carrying the list scheduler's
/// placement verdicts and the pin checker's feasibility probes (Gomory
/// pivots included), a `postsyn` phase for the clique-partitioning
/// connection construction, and a closing `pin-check` budget audit.
///
/// # Errors
///
/// Identical to [`simple_flow`]; the tunables and telemetry never change
/// verdicts, only how they are computed.
pub fn simple_flow_with(
    cdfg: &Cdfg,
    rate: u32,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, FlowError> {
    let mut checker = match config.pivot_budget {
        Some(b) => PinChecker::with_pivot_budget(cdfg, rate, b)?,
        None => PinChecker::new(cdfg, rate)?,
    };
    checker.set_differential(config.probe_differential);
    if let Some(b) = &config.budget {
        checker.set_budget(b.clone());
    }
    simple_flow_with_checker(
        cdfg,
        rate,
        checker,
        &RecorderHandle::default(),
        &config.metrics,
    )
    .map(|(result, _)| result)
}

/// What the pin checker did during one [`simple_flow_with_checker`] run:
/// the probe counters plus the epoch-0 verdict export that a later
/// checker for a dominated budget point may adopt (the design-space
/// explorer's cross-point warm start).
#[derive(Clone, Debug)]
pub struct SimpleFlowProbeReport {
    /// Final probe-cache counters (memo/surrogate/solver/seed hits).
    pub stats: ProbeCacheStats,
    /// Pre-commit probe verdicts this run computed itself
    /// ([`PinChecker::initial_probe_memo`]).
    pub initial_memo: Vec<((usize, i64), bool)>,
}

/// [`simple_flow_with`] taking a caller-prepared [`PinChecker`] —
/// possibly pre-seeded via [`PinChecker::seed_initial_memo`] — and
/// additionally returning the checker's probe report for cross-run
/// reuse. The checker must have been built for `(cdfg, rate)` and must
/// not have committed anything yet. An active `recorder` becomes the
/// event sink of `metrics` for this run; pass the default handle when
/// `metrics` already carries the sink (or none is wanted).
///
/// # Errors
///
/// Identical to [`simple_flow`]; seeding never changes verdicts, only
/// which probes reach the solver.
pub fn simple_flow_with_checker(
    cdfg: &Cdfg,
    rate: u32,
    mut checker: PinChecker,
    recorder: &RecorderHandle,
    metrics: &MetricsHandle,
) -> Result<(SynthesisResult, SimpleFlowProbeReport), FlowError> {
    let metrics = &metrics.clone().with_events(recorder);
    let _flow_span = metrics.span("flow");
    check_simple(cdfg).map_err(FlowError::NotSimple)?;
    checker.set_metrics(metrics);
    let mut policy = PinPolicy::new(checker);
    let mut lc = ListConfig::new(rate);
    lc.metrics = metrics.clone();
    // Share the checker's budget (if any) with the scheduler so both
    // layers charge one ledger and trip at the same ceiling.
    lc.budget = policy.checker().budget().cloned();
    let schedule = {
        let _span = metrics.span("schedule");
        list_schedule(cdfg, &lc, &mut policy)?
    };
    let probe = SimpleFlowProbeReport {
        stats: policy.checker().probe_stats(),
        initial_memo: policy.checker().initial_probe_memo(),
    };
    if metrics.enabled() {
        let stats = &probe.stats;
        metrics.add("probe.memo_hits", stats.memo_hits);
        metrics.add("probe.seed_hits", stats.seed_hits);
        metrics.add("probe.surrogate_rejects", stats.surrogate_rejects);
        metrics.add("probe.solver", stats.solver_probes);
        metrics.add("probe.exact_fallbacks", stats.exact_fallbacks);
        metrics.add("probe.batched", stats.batched_probes);
        metrics.add("probe.batch_checkpoints", stats.batch_shared_checkpoints);
        // A depth, not a count: the peak over every run on the registry.
        metrics.gauge_max("probe.max_rollback_depth", stats.max_rollback_depth as i64);
    }
    let violations = validate(cdfg, &schedule);
    if !violations.is_empty() {
        return Err(FlowError::InvalidSchedule(violations));
    }
    // Theorem 3.1: a conflict-free connection within the pin budgets
    // exists for this schedule. Construct one by clique partitioning,
    // escalating the weighting factor of any partition whose budget the
    // heuristic overruns (Section 5.2's wf_i knob) until everything fits.
    let postsyn_span = metrics.span("postsyn");
    let mut weights: BTreeMap<PartitionId, i64> = BTreeMap::new();
    let mut ic = None;
    for _round in 0..8 {
        let mut cfg = PostsynConfig::new(rate);
        cfg.weights = weights.clone();
        cfg.metrics = metrics.clone();
        let candidate = connect_after_scheduling(cdfg, &schedule, PortMode::Unidirectional, &cfg);
        let mut over = Vec::new();
        for p in 0..cdfg.partition_count() {
            let pid = PartitionId::new(p as u32);
            if candidate.pins_used(pid) > cdfg.partition(pid).total_pins {
                over.push(pid);
            }
        }
        if over.is_empty() {
            ic = Some(candidate);
            break;
        }
        for pid in over {
            let w = weights.entry(pid).or_insert(1);
            *w *= 4;
        }
    }
    if ic.is_none() {
        // The matching heuristic missed every budget-respecting cover.
        // Try the deterministic widest-first packer before giving up.
        let mut cfg = PostsynConfig::new(rate);
        cfg.weights = weights;
        cfg.metrics = metrics.clone();
        let candidate = connect_packed(cdfg, &schedule, PortMode::Unidirectional, &cfg);
        let fits = (0..cdfg.partition_count()).all(|p| {
            let pid = PartitionId::new(p as u32);
            candidate.pins_used(pid) <= cdfg.partition(pid).total_pins
        });
        if fits {
            ic = Some(candidate);
        }
    }
    drop(postsyn_span);
    let Some(ic) = ic else {
        // Not a verifier-grade contradiction: the checker's per-group load
        // bound treats pins as bit-splittable, so a budget it admits may
        // still have no bus cover that carries each transfer whole. Report
        // a heuristic give-up, matching the Chapter 4 search's semantics.
        return Err(FlowError::Connect(ConnectError::NoConnectionFound));
    };
    let problems = verify_against_schedule(cdfg, &schedule, &ic);
    if !problems.is_empty() {
        return Err(FlowError::InvalidConnection(problems));
    }
    let result = SynthesisResult::common(cdfg, schedule, ic);
    record_pin_budget(cdfg, &result, metrics);
    Ok((result, probe))
}

/// Options for the connection-before-scheduling flow (Chapters 4 and 6).
#[derive(Clone, Debug)]
pub struct ConnectFirstOptions {
    /// Initiation rate `L`.
    pub rate: u32,
    /// Port directionality (Section 4.3).
    pub mode: PortMode,
    /// Enable Chapter 6 sub-bus sharing.
    pub sharing: bool,
    /// Enable dynamic bus reassignment during scheduling (Section 4.2);
    /// `false` reproduces the static-assignment baseline.
    pub reassign: bool,
    /// Threads expanding the connection-search portfolio.
    pub workers: usize,
    /// Portfolio size, when pinned independently of `workers`.
    pub portfolio: Option<usize>,
    /// Override of the search branching factor (`None` keeps the
    /// default).
    pub branching_factor: Option<usize>,
    /// Override of the per-worker node budget (`None` keeps the
    /// default).
    pub node_budget: Option<usize>,
    /// Optional execution budget shared by the connection search (epoch
    /// barriers) and the bus-slot scheduler (control-step boundaries).
    /// A tripped budget surfaces as [`FlowError::Interrupted`]; use
    /// [`connect_first_anytime`] to also recover partial progress.
    pub budget: Option<Budget>,
    /// Telemetry handle threaded through the connection search, the bus
    /// allocator and the flow's own `flow/...` phase span tree; with an
    /// event sink, it also takes every decision event. Disconnected by
    /// default.
    pub metrics: MetricsHandle,
}

impl ConnectFirstOptions {
    /// Defaults: unidirectional, no sharing, with reassignment, a
    /// single-worker (classic) connection search.
    pub fn new(rate: u32) -> Self {
        ConnectFirstOptions {
            rate,
            mode: PortMode::Unidirectional,
            sharing: false,
            reassign: true,
            workers: 1,
            portfolio: None,
            branching_factor: None,
            node_budget: None,
            budget: None,
            metrics: MetricsHandle::default(),
        }
    }

    /// The [`SearchConfig`] these options describe.
    pub fn search_config(&self) -> SearchConfig {
        let mut cfg = SearchConfig::new(self.rate).with_workers(self.workers);
        if self.sharing {
            cfg = cfg.with_sharing();
        }
        if let Some(p) = self.portfolio {
            cfg = cfg.with_portfolio(p);
        }
        if let Some(bf) = self.branching_factor {
            cfg.branching_factor = bf.max(1);
        }
        if let Some(b) = self.node_budget {
            cfg.node_budget = b;
        }
        if let Some(b) = &self.budget {
            cfg = cfg.with_budget(b.clone());
        }
        cfg.with_metrics(self.metrics.clone())
    }
}

/// The Chapter 4 (and 6) flow: synthesize the interchip connection first,
/// then list-schedule with bus slot allocation and dynamic reassignment.
///
/// # Errors
///
/// Connection or scheduling failures; validation failures indicate bugs.
pub fn connect_first_flow(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
) -> Result<SynthesisResult, FlowError> {
    connect_first_flow_seeded(cdfg, opts, &[]).0
}

/// The connection search's cross-run byproducts, returned by
/// [`connect_first_flow_seeded`] even when the flow fails — failed
/// searches produce the most valuable refutation certificates.
#[derive(Clone, Debug, Default)]
pub struct ConnectSeedReport {
    /// Failure proofs learned by this run's portfolio, in deterministic
    /// barrier order.
    pub learned: Vec<RefutationCert>,
    /// The portfolio telemetry (also in the result's `search_stats` on
    /// success).
    pub stats: SearchStats,
}

/// [`connect_first_flow`] with refutation-certificate transfer: `seed`
/// pre-populates the portfolio's failure cache (see
/// [`mcs_connect::synthesize_seeded`] for the soundness contract the
/// caller must uphold) and the report carries what this run learned.
///
/// With an event sink on `opts.metrics`, the run records a `connect`
/// phase carrying per-worker-epoch [`Event::SearchNode`] telemetry from
/// the portfolio search, a `schedule` phase carrying placement verdicts
/// and bus reassignments from every scheduling attempt (including
/// hold-back retries that lose), and a closing `pin-check` budget audit.
/// A live handle (registry or sink) also gets a `postsyn` span auditing
/// the final connection against the winning schedule.
pub fn connect_first_flow_seeded(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
    seed: &[RefutationCert],
) -> (Result<SynthesisResult, FlowError>, ConnectSeedReport) {
    let _flow_span = opts.metrics.span("flow");
    let cfg = opts.search_config();
    let (ic, search_stats, learned) = {
        let _span = opts.metrics.span("connect");
        synthesize_seeded(cdfg, opts.mode, &cfg, seed)
    };
    let report = ConnectSeedReport {
        learned,
        stats: search_stats.clone(),
    };
    let ic = match ic {
        Ok(ic) => ic,
        Err(e) => return (Err(e.into()), report),
    };
    (connect_first_schedule(cdfg, opts, ic, search_stats), report)
}

/// The structured outcome of an interruptible flow run: the full result
/// when the flow finished, or the best partial progress when the
/// attached [`Budget`] tripped first. Either way the caller gets a
/// usable report — never a hang, never an abort.
///
/// ```
/// use mcs_cdfg::designs::elliptic;
/// use multichip_hls::flows::{connect_first_anytime, ConnectFirstOptions};
/// use mcs_ctl::{Budget, BudgetSpec, Termination};
///
/// let d = elliptic::partitioned();
/// // A one-node ceiling trips at the first epoch barrier.
/// let budget = Budget::new(BudgetSpec::default().max_nodes(1));
/// let out = connect_first_anytime(d.cdfg(), &ConnectFirstOptions::new(6), budget);
/// if out.termination == Termination::BudgetExhausted {
///     assert!(out.result.is_none());
///     assert!(out.best_depth > 0, "partial progress is still reported");
/// }
/// ```
#[derive(Clone, Debug)]
pub struct AnytimeOutcome {
    /// How the run ended. [`Termination::Complete`] means the flow ran
    /// to its natural verdict (success *or* a definitive failure).
    pub termination: Termination,
    /// The full synthesis result, when the flow produced one.
    pub result: Option<SynthesisResult>,
    /// A definitive, non-interruption failure (infeasible design,
    /// malformed input). `None` when interrupted: interruption is not
    /// evidence of infeasibility.
    pub error: Option<FlowError>,
    /// Deepest partial connection the search reached — transfers placed
    /// on buses — even when no complete connection was found. The
    /// "best-so-far" half of the anytime contract.
    pub best_depth: u64,
    /// Bus count of that deepest partial connection.
    pub best_buses: u32,
    /// Portfolio telemetry, when the flow ran the connection search.
    pub search_stats: Option<SearchStats>,
}

/// [`connect_first_flow`] under an execution [`Budget`], never
/// failing with [`FlowError::Interrupted`]: interruption becomes a
/// structured [`AnytimeOutcome`] carrying the best partial connection
/// the portfolio reached before the budget tripped.
pub fn connect_first_anytime(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
    budget: Budget,
) -> AnytimeOutcome {
    let mut opts = opts.clone();
    opts.budget = Some(budget);
    let (res, report) = connect_first_flow_seeded(cdfg, &opts, &[]);
    let stats = report.stats;
    let (termination, result, error) = match res {
        Ok(r) => (stats.termination, Some(r), None),
        Err(FlowError::Interrupted(t)) => (t, None, None),
        Err(e) => (stats.termination, None, Some(e)),
    };
    AnytimeOutcome {
        termination,
        result,
        error,
        best_depth: stats.deepest,
        best_buses: stats.deepest_buses,
        search_stats: Some(stats),
    }
}

/// [`simple_flow_with`] under an execution [`Budget`]: the Chapter 3
/// flow with interruption reported as a structured [`AnytimeOutcome`]
/// instead of an error. The simple flow has no connection search, so
/// `best_depth`/`best_buses` stay 0 on interruption.
pub fn simple_flow_anytime(
    cdfg: &Cdfg,
    rate: u32,
    config: &SynthesisConfig,
    budget: Budget,
) -> AnytimeOutcome {
    let mut config = config.clone();
    config.budget = Some(budget);
    let (termination, result, error) = match simple_flow_with(cdfg, rate, &config) {
        Ok(r) => (Termination::Complete, Some(r), None),
        Err(FlowError::Interrupted(t)) => (t, None, None),
        Err(e) => (Termination::Complete, None, Some(e)),
    };
    AnytimeOutcome {
        termination,
        result,
        error,
        best_depth: 0,
        best_buses: 0,
        search_stats: None,
    }
}

/// The scheduling half of the connect-first flow: bus-slot list
/// scheduling with hold-back retries over a fixed interconnect.
fn connect_first_schedule(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
    ic: Interconnect,
    search_stats: SearchStats,
) -> Result<SynthesisResult, FlowError> {
    // With reassignment enabled, dynamic allocation is an *addition* to
    // static allocation: the flow runs both and keeps the shorter
    // schedule, so enabling reassignment can only help — the relation the
    // paper's Tables 4.2/4.10 report. When a composite maximum time
    // constraint proves too tight, the consumers of feedback transfers are
    // held back a few steps and the run repeated (the paper's "constrain
    // some of the operations and rerun").
    let mut attempts: Vec<bool> = vec![false];
    if opts.reassign {
        attempts.insert(0, true);
    }
    let holdable = mcs_sched::feedback_consumers(cdfg);
    let mut best: Option<(Schedule, BusPolicy)> = None;
    let mut last_err = SchedError::StepLimit;
    let sched_span = opts.metrics.span("schedule");
    for &reassign in &attempts {
        for hold in [0i64, 2, 4, 6, 8] {
            let mut lc = ListConfig::new(opts.rate);
            lc.metrics = opts.metrics.clone();
            lc.budget = opts.budget.clone();
            for &op in &holdable {
                lc.hold_back.insert(op, hold);
            }
            let mut policy = BusPolicy::new(ic.clone(), opts.rate, reassign);
            policy.set_metrics(&opts.metrics);
            match list_schedule(cdfg, &lc, &mut policy) {
                Ok(s) => {
                    let better = best
                        .as_ref()
                        .is_none_or(|(b, _)| s.pipe_length(cdfg) < b.pipe_length(cdfg));
                    if better {
                        best = Some((s, policy));
                    }
                    break; // larger holds only lengthen this variant
                }
                Err(e) => {
                    let retryable = matches!(
                        e,
                        SchedError::DeadlineMissed { .. } | SchedError::NoWindowSlot { .. }
                    ) && !holdable.is_empty();
                    last_err = e;
                    if !retryable {
                        break;
                    }
                }
            }
        }
    }
    drop(sched_span);
    let (schedule, policy) = best.ok_or_else(|| FlowError::from(last_err))?;
    let violations = validate(cdfg, &schedule);
    if !violations.is_empty() {
        return Err(FlowError::InvalidSchedule(violations));
    }
    let mut result = SynthesisResult::common(cdfg, schedule, ic);
    result.placements = policy.placements().clone();
    result.reassigned = policy.reassigned_count();
    result.search_stats = Some(search_stats);
    let metrics = &opts.metrics;
    if metrics.enabled() || metrics.tracing() {
        // Audit the winning schedule against the *final* connection (the
        // checks the schedule-first flows run inline), purely for the
        // telemetry — a clean run counts zero problems.
        let _span = metrics.span("postsyn");
        let problems =
            verify_against_schedule(cdfg, &result.schedule, &result.final_interconnect());
        metrics.add("postsyn.verify_problems", problems.len() as u64);
    }
    if metrics.enabled() {
        metrics.add("flow.reassigned", result.reassigned as u64);
        let rm = policy.rematch_stats();
        metrics.add("rematch.rounds", rm.rounds);
        metrics.add("rematch.seeded", rm.seeded);
        metrics.add("rematch.augmentations", rm.augmentations);
    }
    record_pin_budget(cdfg, &result, metrics);
    Ok(result)
}

/// The Chapter 5 flow: force-directed scheduling under a pipe-length
/// constraint, then interchip connection synthesis by clique partitioning.
/// Resource and pin numbers are *reported*, not constrained — exactly how
/// Tables 5.1 and 5.3 are produced.
///
/// # Errors
///
/// Scheduling failures (e.g. the pipe length is infeasible).
pub fn schedule_first_flow(
    cdfg: &Cdfg,
    rate: u32,
    pipe_length: i64,
    mode: PortMode,
) -> Result<SynthesisResult, FlowError> {
    schedule_first_flow_traced(cdfg, rate, pipe_length, mode, &MetricsHandle::default())
}

/// [`schedule_first_flow`] with telemetry: a `flow` span over a
/// `schedule` span around force-directed scheduling (with the
/// `sched.pipe_length` peak gauge), a `postsyn` span carrying the
/// clique-partitioning counters, and a closing `pin-check` budget audit.
///
/// # Errors
///
/// Identical to [`schedule_first_flow`]; telemetry never changes the
/// result.
pub fn schedule_first_flow_traced(
    cdfg: &Cdfg,
    rate: u32,
    pipe_length: i64,
    mode: PortMode,
    metrics: &MetricsHandle,
) -> Result<SynthesisResult, FlowError> {
    let _flow_span = metrics.span("flow");
    let schedule = {
        let _span = metrics.span("schedule");
        let schedule = fds_schedule(cdfg, &FdsConfig { rate, pipe_length })?;
        metrics.gauge_max("sched.pipe_length", schedule.pipe_length(cdfg));
        schedule
    };
    let violations: Vec<_> = validate(cdfg, &schedule)
        .into_iter()
        // FDS reports the resources it needs instead of obeying declared
        // unit counts.
        .filter(|v| !matches!(v, ScheduleViolation::Resources { .. }))
        .collect();
    if !violations.is_empty() {
        return Err(FlowError::InvalidSchedule(violations));
    }
    let ic = {
        let _span = metrics.span("postsyn");
        let mut cfg = PostsynConfig::new(rate);
        cfg.metrics = metrics.clone();
        connect_after_scheduling(cdfg, &schedule, mode, &cfg)
    };
    let problems = verify_against_schedule(cdfg, &schedule, &ic);
    if !problems.is_empty() {
        return Err(FlowError::InvalidConnection(problems));
    }
    let result = SynthesisResult::common(cdfg, schedule, ic);
    record_pin_budget(cdfg, &result, metrics);
    Ok(result)
}

/// Applies the Chapter 6 sharing pass to an existing interconnect and
/// reports the pin totals before and after (Table 6.4's comparison).
///
/// The returned interconnect has its buses in canonical order — sorted
/// by (chip pair, then position among the pair's buses) — so rows
/// derived from it (explore CSV, reports) are stable regardless of the
/// order `share_pass` merged buses in.
pub fn sharing_improvement(cdfg: &Cdfg, ic: &Interconnect, rate: u32) -> (u32, u32, Interconnect) {
    let total = |ic: &Interconnect| {
        (0..cdfg.partition_count())
            .map(|p| ic.pins_used(PartitionId::new(p as u32)))
            .sum()
    };
    let before = total(ic);
    let mut shared = ic.clone();
    share_pass(cdfg, &mut shared, rate);
    sort_buses_canonically(&mut shared);
    let after = total(&shared);
    (before, after, shared)
}

/// Sorts `ic.buses` by (source partitions, sink partitions, original
/// index) and remaps every assignment to the new bus indices. The
/// original index as final tie-break keeps the sort stable, so equal
/// chip pairs preserve their relative order.
fn sort_buses_canonically(ic: &mut Interconnect) {
    let pair = |bus: &mcs_connect::Bus| {
        let src = bus
            .out_ports
            .keys()
            .chain(bus.bi_ports.keys())
            .min()
            .copied();
        let snk = bus
            .in_ports
            .keys()
            .chain(bus.bi_ports.keys())
            .min()
            .copied();
        (src, snk)
    };
    let mut order: Vec<usize> = (0..ic.buses.len()).collect();
    order.sort_by_key(|&i| (pair(&ic.buses[i]), i));
    let mut remap = vec![0u32; ic.buses.len()];
    for (new_ix, &old_ix) in order.iter().enumerate() {
        remap[old_ix] = new_ix as u32;
    }
    ic.buses = order.iter().map(|&i| ic.buses[i].clone()).collect();
    for a in ic.assignment.values_mut() {
        a.bus = BusId::new(remap[a.bus.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::elliptic;

    #[test]
    fn sharing_improvement_returns_canonically_sorted_buses() {
        let d = elliptic::partitioned();
        let opts = ConnectFirstOptions::new(6);
        let r = connect_first_flow(d.cdfg(), &opts).unwrap();

        // Scramble the bus order; the sharing pass must undo it.
        let mut scrambled = r.interconnect.clone();
        scrambled.buses.reverse();
        let n = scrambled.buses.len() as u32;
        for a in scrambled.assignment.values_mut() {
            a.bus = BusId::new(n - 1 - a.bus.index() as u32);
        }
        assert!(scrambled.verify(d.cdfg()).is_empty());

        let (_, _, sorted) = sharing_improvement(d.cdfg(), &scrambled, 6);
        let (b1, a1, from_original) = sharing_improvement(d.cdfg(), &r.interconnect, 6);
        assert!(sorted.verify(d.cdfg()).is_empty());
        assert!(a1 <= b1);

        let pairs = |ic: &Interconnect| -> Vec<(Option<PartitionId>, Option<PartitionId>)> {
            ic.buses
                .iter()
                .map(|b| {
                    (
                        b.out_ports.keys().chain(b.bi_ports.keys()).min().copied(),
                        b.in_ports.keys().chain(b.bi_ports.keys()).min().copied(),
                    )
                })
                .collect()
        };
        let sorted_pairs = pairs(&sorted);
        let mut expect = sorted_pairs.clone();
        expect.sort();
        assert_eq!(sorted_pairs, expect, "buses must sort by chip pair");
        // Scrambled and original inputs converge to the same bus order.
        assert_eq!(pairs(&from_original), sorted_pairs);
    }
}
