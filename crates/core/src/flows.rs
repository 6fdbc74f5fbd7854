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
use mcs_pinalloc::{
    check_simple, PinAllocError, PinChecker, ProbeCacheStats, SimplicityViolation,
    DEFAULT_PIVOT_BUDGET,
};
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
    /// The initiation rate is past the flows' ceiling of 256, refused
    /// before any layer allocates.
    RateTooLarge {
        /// The requested rate.
        rate: u32,
        /// The ceiling.
        limit: u32,
    },
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
            FlowError::RateTooLarge { rate, limit } => {
                write!(f, "initiation rate {rate} is over the limit of {limit}")
            }
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

/// What [`run`] synthesizes: one of the paper's three orderings of the
/// same problem.
#[derive(Clone, Debug)]
pub enum FlowSpec {
    /// Chapter 3, for simple partitionings: verify Definition 3.2,
    /// list-schedule under the incremental pin-allocation feasibility
    /// checker, then build the interchip connection from the finished
    /// schedule (the constructive guarantee of Theorem 3.1).
    Simple {
        /// Initiation rate `L`.
        rate: u32,
        /// Pivot budget per pin-feasibility solve; `None` keeps
        /// [`mcs_pinalloc::DEFAULT_PIVOT_BUDGET`]. Any value — including
        /// 0 — is sound: the exact branch-and-bound fallback decides when
        /// the budget runs out.
        pivot_budget: Option<usize>,
    },
    /// Chapters 4 and 6: synthesize the interchip connection first, then
    /// list-schedule with bus slot allocation and dynamic reassignment.
    /// [`run`] ignores the options' `budget` and `metrics` fields and
    /// reads both from the [`RunContext`].
    Connect(ConnectFirstOptions),
    /// Chapter 5: force-directed scheduling under a pipe-length bound,
    /// then interchip connection synthesis by clique partitioning.
    /// Resource and pin numbers are *reported*, not constrained — exactly
    /// how Tables 5.1 and 5.3 are produced. The flow has no interruption
    /// points, so it ignores the context's budget.
    Schedule {
        /// Initiation rate `L`.
        rate: u32,
        /// Pipe-length bound in control steps; `None` resolves through
        /// [`default_pipe_length`].
        pipe_length: Option<i64>,
        /// Port directionality of the constructed connection.
        mode: PortMode,
    },
}

/// Cross-run warm-start payload: the seeds one [`run`] takes in and the
/// exports it hands out. Both payloads are pure functions of `(design,
/// rate, budgets)`, so a later run of the same design and rate may adopt
/// them (see [`WarmStart::adopt`] for the direction that is sound).
#[derive(Clone, Debug, Default)]
pub struct WarmStart {
    /// Epoch-0 pin-probe verdicts ([`PinChecker::initial_probe_memo`]),
    /// read and written by the Simple flow.
    pub probe_memo: Vec<((usize, i64), bool)>,
    /// Connection-search refutation certificates (see
    /// [`mcs_connect::synthesize_seeded`]), read and written by the
    /// Connect flow.
    pub certs: Vec<RefutationCert>,
}

impl WarmStart {
    /// Adopts what soundly transfers from `donor`, an export of the same
    /// design at the same rate under same-or-looser pin budgets: every
    /// refutation certificate, but only the `false` probe verdicts — a
    /// probe infeasible under a looser budget stays infeasible with fewer
    /// pins, while a feasible one may not.
    pub fn adopt(&mut self, donor: &WarmStart) {
        self.probe_memo
            .extend(donor.probe_memo.iter().filter(|&&(_, verdict)| !verdict));
        self.certs.extend(donor.certs.iter().cloned());
    }
}

/// How [`run`] runs a [`FlowSpec`]: the execution budget, the telemetry
/// handle and the warm-start seeds. The default runs unbudgeted, unmetered
/// and cold.
#[derive(Clone, Debug, Default)]
pub struct RunContext {
    /// Optional execution budget shared by every layer the flow touches:
    /// the pin checker (its construction-time solve included), the
    /// connection search's epoch barriers and the list scheduler's
    /// control-step boundaries. A tripped budget surfaces as
    /// [`FlowError::Interrupted`].
    pub budget: Option<Budget>,
    /// Telemetry handle threaded through every layer the flow touches:
    /// the pin checker's probe histograms, the embedded ILP solver's
    /// counters, the connection search, the schedulers, the flow's own
    /// `flow/...` phase span tree, and — when it carries an event sink —
    /// every decision event. Disconnected by default (one branch per
    /// instrumentation point).
    pub metrics: MetricsHandle,
    /// Warm-start seeds from earlier runs. The caller upholds the
    /// soundness contract of [`WarmStart::adopt`]; seeding never changes
    /// verdicts, only which probes reach the solver and which search
    /// subtrees are skipped.
    pub warm: WarmStart,
}

/// Everything one [`run`] produced: the verdict, how the run ended, the
/// best partial progress and the cross-run exports. An interrupted run
/// still reports — never a hang, never an abort.
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// The synthesis result, or why there is none. Interruption is
    /// [`FlowError::Interrupted`]: not evidence of infeasibility.
    pub result: Result<SynthesisResult, FlowError>,
    /// How the run ended. [`Termination::Complete`] means the flow ran
    /// to its natural verdict (success *or* a definitive failure).
    pub termination: Termination,
    /// Deepest partial connection the search reached — transfers placed
    /// on buses — even when no complete connection was found (0 for the
    /// flows without a connection search).
    pub best_depth: u64,
    /// Bus count of that deepest partial connection.
    pub best_buses: u32,
    /// Portfolio telemetry, when the flow ran the connection search.
    pub search_stats: Option<SearchStats>,
    /// The pin checker's probe-cache counters, when the Simple flow
    /// finished scheduling.
    pub probe_stats: Option<ProbeCacheStats>,
    /// What later runs may adopt: the Simple flow's epoch-0 probe
    /// verdicts (from a successful run) and the Connect flow's learned
    /// refutation certificates (from every run — failed searches produce
    /// the most valuable proofs).
    pub exports: WarmStart,
}

impl From<Result<SynthesisResult, FlowError>> for FlowOutcome {
    /// The outcome of a flow without a connection search or exports.
    fn from(result: Result<SynthesisResult, FlowError>) -> Self {
        let termination = match &result {
            Err(FlowError::Interrupted(t)) => *t,
            _ => Termination::Complete,
        };
        FlowOutcome {
            result,
            termination,
            best_depth: 0,
            best_buses: 0,
            search_stats: None,
            probe_stats: None,
            exports: WarmStart::default(),
        }
    }
}

/// Runs one synthesis flow: the single entry point that chooses between
/// the paper's three orderings. `spec` says what to synthesize, `ctx` how
/// (budget, telemetry, warm start). With an event sink on the handle,
/// every flow records a `flow` span over its phases — `connect`,
/// `schedule`, `postsyn` — and a closing `pin-check` budget audit.
/// Interruption is reported, not raised: the outcome carries the
/// termination and the best partial progress.
///
/// ```
/// use mcs_cdfg::designs::elliptic;
/// use multichip_hls::flows::{run, ConnectFirstOptions, FlowError, FlowSpec, RunContext};
/// use mcs_ctl::{Budget, BudgetSpec, Termination};
///
/// let d = elliptic::partitioned();
/// // A one-node ceiling trips at the first epoch barrier.
/// let ctx = RunContext {
///     budget: Some(Budget::new(BudgetSpec::default().max_nodes(1))),
///     ..RunContext::default()
/// };
/// let out = run(d.cdfg(), &FlowSpec::Connect(ConnectFirstOptions::new(6)), &ctx);
/// if out.termination == Termination::BudgetExhausted {
///     assert!(matches!(out.result, Err(FlowError::Interrupted(_))));
///     assert!(out.best_depth > 0, "partial progress is still reported");
/// }
/// ```
pub fn run(cdfg: &Cdfg, spec: &FlowSpec, ctx: &RunContext) -> FlowOutcome {
    match spec {
        FlowSpec::Simple { rate, pivot_budget } => simple(cdfg, *rate, *pivot_budget, ctx),
        FlowSpec::Connect(opts) => connect_first(cdfg, opts, ctx),
        FlowSpec::Schedule {
            rate,
            pipe_length,
            mode,
        } => {
            let pipe = pipe_length.unwrap_or_else(|| default_pipe_length(cdfg, *rate));
            schedule_first(cdfg, *rate, pipe, *mode, &ctx.metrics).into()
        }
    }
}

/// Largest initiation rate a flow accepts. Every layer sizes something
/// by the rate: the bus-slot tables of the connect-first scheduler, the
/// pin-allocation tableau, the force-directed frames. Unchecked, a rate
/// of 100 000 000 asks the connect-first flow for gigabytes and aborts
/// the process. The largest rate any in-repo design, test or bench runs
/// is 9; the ceiling is about 28 times that.
const MAX_RATE: u32 = 256;

/// Refuses a rate past `MAX_RATE` (256). Every flow body and the resynthesis
/// ladder call it first, before any layer allocates, and the serve daemon
/// calls it before it queues a job.
///
/// # Errors
///
/// [`FlowError::RateTooLarge`] for a rate over 256.
pub fn check_rate(rate: u32) -> Result<(), FlowError> {
    if rate > MAX_RATE {
        return Err(FlowError::RateTooLarge {
            rate,
            limit: MAX_RATE,
        });
    }
    Ok(())
}

/// The one pin-checker constructor path of the flows: the pivot budget,
/// the context's execution budget and its metrics handle all attach
/// before the construction-time feasibility solve.
pub(crate) fn pin_checker(
    cdfg: &Cdfg,
    rate: u32,
    pivot_budget: Option<usize>,
    ctx: &RunContext,
) -> Result<PinChecker, PinAllocError> {
    PinChecker::with_context(
        cdfg,
        rate,
        pivot_budget.unwrap_or(DEFAULT_PIVOT_BUDGET),
        ctx.budget.clone(),
        &ctx.metrics,
    )
}

/// The pipe-length bound of the Chapter 5 flow when none is given: the
/// ASAP critical path plus one initiation interval, or `3 * rate` when
/// the design has no ASAP schedule.
pub fn default_pipe_length(cdfg: &Cdfg, rate: u32) -> i64 {
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

/// The Chapter 3 flow ([`FlowSpec::Simple`]) with the default pivot
/// budget, unbudgeted and unmetered. Kept as a wrapper over [`run`]
/// because the tests, examples and benches call it on every design.
///
/// # Errors
///
/// [`FlowError::NotSimple`], [`FlowError::PinAllocation`], or any
/// scheduling failure.
pub fn simple_flow(cdfg: &Cdfg, rate: u32) -> Result<SynthesisResult, FlowError> {
    simple(cdfg, rate, None, &RunContext::default()).result
}

/// The Chapter 3 flow over a caller-prepared [`PinChecker`], which must
/// have been built for `(cdfg, rate)` and must not have committed
/// anything yet; returns the checker's final probe-cache counters with
/// the result. An active `recorder` becomes the event sink of `metrics`
/// for this run. Kept because the frozen benchmark harness (`perfbench/`)
/// times checker construction and the flow separately and compiles
/// against this signature; the `recorder` parameter goes with the next
/// change to that benchmark. Everything else calls [`run`].
///
/// # Errors
///
/// As [`simple_flow`].
pub fn simple_flow_with_checker(
    cdfg: &Cdfg,
    rate: u32,
    checker: PinChecker,
    recorder: &RecorderHandle,
    metrics: &MetricsHandle,
) -> Result<(SynthesisResult, ProbeCacheStats), FlowError> {
    check_rate(rate)?;
    let metrics = metrics.clone().with_events(recorder);
    simple_body(cdfg, rate, checker, &metrics).map(|(result, stats, _)| (result, stats))
}

/// [`FlowSpec::Simple`]: builds the pin checker under both budgets,
/// seeds it from the context's probe memo and runs the flow.
fn simple(cdfg: &Cdfg, rate: u32, pivot_budget: Option<usize>, ctx: &RunContext) -> FlowOutcome {
    if let Err(e) = check_rate(rate) {
        return Err(e).into();
    }
    let mut checker = match pin_checker(cdfg, rate, pivot_budget, ctx) {
        Ok(c) => c,
        Err(e) => return Err(e.into()).into(),
    };
    checker.seed_initial_memo(&ctx.warm.probe_memo);
    match simple_body(cdfg, rate, checker, &ctx.metrics) {
        Ok((result, stats, exports)) => FlowOutcome {
            probe_stats: Some(stats),
            exports,
            ..FlowOutcome::from(Ok(result))
        },
        Err(e) => Err(e).into(),
    }
}

/// The Chapter 3 flow body over a prepared checker. The checker's budget
/// (if any) is shared with the list scheduler, so both layers charge one
/// ledger. Returns the probe-cache counters and the epoch-0 probe-memo
/// export with the result.
fn simple_body(
    cdfg: &Cdfg,
    rate: u32,
    mut checker: PinChecker,
    metrics: &MetricsHandle,
) -> Result<(SynthesisResult, ProbeCacheStats, WarmStart), FlowError> {
    let _flow_span = metrics.span("flow");
    check_simple(cdfg).map_err(FlowError::NotSimple)?;
    checker.set_metrics(metrics);
    let mut policy = PinPolicy::new(checker);
    let mut lc = ListConfig::new(rate);
    lc.metrics = metrics.clone();
    lc.budget = policy.checker().budget().cloned();
    let schedule = {
        let _span = metrics.span("schedule");
        list_schedule(cdfg, &lc, &mut policy)?
    };
    let stats = policy.checker().probe_stats();
    let exports = WarmStart {
        probe_memo: policy.checker().initial_probe_memo(),
        certs: Vec::new(),
    };
    if metrics.enabled() {
        metrics.add("probe.memo_hits", stats.memo_hits);
        metrics.add("probe.seed_hits", stats.seed_hits);
        metrics.add("probe.surrogate_rejects", stats.surrogate_rejects);
        metrics.add("probe.solver", stats.solver_probes);
        metrics.add("probe.exact_fallbacks", stats.exact_fallbacks);
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
        let over: Vec<PartitionId> = candidate.over_budget(cdfg).map(|(p, ..)| p).collect();
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
        if candidate.over_budget(cdfg).next().is_none() {
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
    Ok((result, stats, exports))
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
    /// Execution budget read only by [`connect_first_flow`], which moves
    /// it into [`RunContext::budget`]; [`run`] ignores it. Kept because
    /// the frozen benchmark harness sets it; goes with the next change to
    /// that benchmark.
    pub budget: Option<Budget>,
    /// Telemetry handle read only by [`connect_first_flow`], which moves
    /// it into [`RunContext::metrics`]; [`run`] ignores it. Kept because
    /// the frozen benchmark harness sets it; goes with the next change to
    /// that benchmark.
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

    /// The [`SearchConfig`] these options describe, under `ctx`'s budget
    /// and telemetry.
    fn search_config(&self, ctx: &RunContext) -> SearchConfig {
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
        if let Some(b) = &ctx.budget {
            cfg = cfg.with_budget(b.clone());
        }
        cfg.with_metrics(ctx.metrics.clone())
    }
}

/// The Chapter 4/6 flow ([`FlowSpec::Connect`]) with `opts.budget` and
/// `opts.metrics` as its [`RunContext`]. Kept as a wrapper over the same
/// body as [`run`] because the tests, examples and benches call it on
/// every design, and because the frozen benchmark harness sets those two
/// fields and reads the budget's trip and the metrics through it.
///
/// # Errors
///
/// Connection or scheduling failures; validation failures indicate bugs.
pub fn connect_first_flow(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
) -> Result<SynthesisResult, FlowError> {
    let ctx = RunContext {
        budget: opts.budget.clone(),
        metrics: opts.metrics.clone(),
        warm: WarmStart::default(),
    };
    connect_first(cdfg, opts, &ctx).result
}

/// [`FlowSpec::Connect`]: the portfolio connection search, seeded with
/// the context's refutation certificates, then bus-slot scheduling. The
/// run exports what the search learned even when the flow fails.
///
/// With an event sink on the handle, the run records a `connect` phase
/// carrying per-worker-epoch [`Event::SearchNode`] telemetry from the
/// portfolio search, a `schedule` phase carrying placement verdicts and
/// bus reassignments from every scheduling attempt (including hold-back
/// retries that lose), and a closing `pin-check` budget audit. A live
/// handle (registry or sink) also gets a `postsyn` span auditing the
/// final connection against the winning schedule.
fn connect_first(cdfg: &Cdfg, opts: &ConnectFirstOptions, ctx: &RunContext) -> FlowOutcome {
    if let Err(e) = check_rate(opts.rate) {
        return Err(e).into();
    }
    let _flow_span = ctx.metrics.span("flow");
    let cfg = opts.search_config(ctx);
    let (ic, stats, learned) = {
        let _span = ctx.metrics.span("connect");
        synthesize_seeded(cdfg, opts.mode, &cfg, &ctx.warm.certs)
    };
    let result = ic
        .map_err(FlowError::from)
        .and_then(|ic| connect_first_schedule(cdfg, opts, ctx, ic, stats.clone()));
    let termination = match &result {
        Err(FlowError::Interrupted(t)) => *t,
        _ => stats.termination,
    };
    FlowOutcome {
        result,
        termination,
        best_depth: stats.deepest,
        best_buses: stats.deepest_buses,
        search_stats: Some(stats),
        probe_stats: None,
        exports: WarmStart {
            probe_memo: Vec::new(),
            certs: learned,
        },
    }
}

/// The scheduling half of the connect-first flow: bus-slot list
/// scheduling over the found interconnect, then the telemetry audit.
fn connect_first_schedule(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
    ctx: &RunContext,
    ic: Interconnect,
    search_stats: SearchStats,
) -> Result<SynthesisResult, FlowError> {
    let metrics = &ctx.metrics;
    let (mut result, policy) = bus_slot_schedule(cdfg, opts.rate, opts.reassign, ic, ctx)?;
    result.search_stats = Some(search_stats);
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

/// Bus-slot list scheduling over a fixed interconnect, under `ctx`'s
/// budget and telemetry, inside one `schedule` span. With `reassign`,
/// dynamic allocation is an *addition* to static allocation: both run and
/// the shorter schedule wins, so enabling reassignment can only help —
/// the relation the paper's Tables 4.2/4.10 report. When a composite
/// maximum time constraint proves too tight, the consumers of feedback
/// transfers are held back a few steps and the run repeated (the paper's
/// "constrain some of the operations and rerun"). Returns the validated
/// result, with the final placements, and the policy that placed it.
///
/// # Errors
///
/// The last scheduling failure when no variant produced a schedule;
/// [`FlowError::InvalidSchedule`] when the winner fails validation.
pub(crate) fn bus_slot_schedule(
    cdfg: &Cdfg,
    rate: u32,
    reassign: bool,
    ic: Interconnect,
    ctx: &RunContext,
) -> Result<(SynthesisResult, BusPolicy), FlowError> {
    let metrics = &ctx.metrics;
    let attempts: &[bool] = if reassign { &[true, false] } else { &[false] };
    let holdable = mcs_sched::feedback_consumers(cdfg);
    let mut best: Option<(Schedule, BusPolicy)> = None;
    let mut last_err = SchedError::StepLimit;
    let sched_span = metrics.span("schedule");
    for &reassign in attempts {
        for hold in [0i64, 2, 4, 6, 8] {
            let mut lc = ListConfig::new(rate);
            lc.metrics = metrics.clone();
            lc.budget = ctx.budget.clone();
            for &op in &holdable {
                lc.hold_back.insert(op, hold);
            }
            let mut policy = BusPolicy::new(ic.clone(), rate, reassign);
            policy.set_metrics(metrics);
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
    let (schedule, policy) = best.ok_or(last_err)?;
    let violations = validate(cdfg, &schedule);
    if !violations.is_empty() {
        return Err(FlowError::InvalidSchedule(violations));
    }
    let mut result = SynthesisResult::common(cdfg, schedule, ic);
    result.placements = policy.placements().clone();
    result.reassigned = policy.reassigned_count();
    Ok((result, policy))
}

/// The Chapter 5 flow ([`FlowSpec::Schedule`]) at an explicit pipe
/// length, unmetered. Kept as a wrapper over the same body as [`run`]
/// because the tests, examples and benches call it on every design.
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
    schedule_first(cdfg, rate, pipe_length, mode, &MetricsHandle::default())
}

/// The Chapter 5 flow body: a `flow` span over a `schedule` span around
/// force-directed scheduling (with the `sched.pipe_length` peak gauge), a
/// `postsyn` span carrying the clique-partitioning counters, and a
/// closing `pin-check` budget audit.
fn schedule_first(
    cdfg: &Cdfg,
    rate: u32,
    pipe_length: i64,
    mode: PortMode,
    metrics: &MetricsHandle,
) -> Result<SynthesisResult, FlowError> {
    check_rate(rate)?;
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
