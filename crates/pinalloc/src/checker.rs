//! The pin-allocation ILP (Section 3.1) and the incremental feasibility
//! checker used inside list scheduling (Sections 3.2–3.3).
//!
//! For a pipelined design with initiation rate `L`, every I/O operation
//! must receive pins in some control-step *group* `k in 0..L`. The ILP
//! over binaries `x_{w,k}` (pins allocated for transfer `w` in group `k`)
//! enforces:
//!
//! * per-partition, per-group input capacity (Constraint 3.2 / 3.7),
//! * per-partition, per-group output capacity, counting a multi-destination
//!   value once via `y_{v,k} = max_w x_{w,k}` (Constraints 3.3/3.5/3.6 /
//!   3.8),
//! * coverage: every transfer gets a group (Constraint 3.4).
//!
//! When a partition's pins are not pre-divided into inputs and outputs,
//! integer variables `o_j` choose the split (Constraints 3.7, 3.8).
//!
//! The tableau-size reduction of Section 3.1.2 aggregates single-fanout
//! transfers with identical endpoints and width into one general-integer
//! variable with coverage `sum_k x_{g,k} >= q`.
//!
//! The checker solves the system with the Gomory dual all-integer method
//! ([`mcs_ilp::AllIntegerSolver`]), committing `x >= 1` increments as
//! scheduling proceeds (Equation 3.13) and probing candidate placements
//! without mutating state.

use std::collections::BTreeMap;

use mcs_cdfg::{Cdfg, OpId};
use mcs_ctl::{Budget, Termination};
use mcs_ilp::{AllIntegerSolver, Feasibility};
use mcs_metrics::{Histogram, MetricsHandle};
use mcs_obs::{Event, ProbeSource};

use crate::model::{OpVar, PinIlp, Sense};

/// Default pivot budget per feasibility probe before falling back to
/// exact branch-and-bound. Configurable per checker via
/// [`PinChecker::with_context`];
/// any budget — including 0 — yields sound verdicts because the exact
/// fallback always decides.
pub const DEFAULT_PIVOT_BUDGET: usize = 4_000;

/// Most solver variables a pin-allocation tableau may have. The tableau
/// is dense, `n * (n + 1)` words, so its memory is quadratic in the
/// variable count, and the count grows with the transfer groups times
/// the rate. The largest tableau any design, test or benchmark in this
/// repository builds has 142 variables (a 50-operation fuzz design at
/// rate 8); the cap is about 29 times that and bounds the tableau at
/// 128 MiB of i64 words (256 MiB once promoted to i128), where an
/// unchecked rate such as 100 000 asks for terabytes and aborts the
/// process.
pub const MAX_TABLEAU_VARS: usize = 4_096;

/// Cumulative accounting of how the checker's probe layers resolved
/// feasibility questions, cheapest first: memo cache, surrogate
/// capacity bound, tableau solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeCacheStats {
    /// Probes answered from the memo cache (no solver work at all).
    pub memo_hits: u64,
    /// Probes rejected by the surrogate group-capacity bound.
    pub surrogate_rejects: u64,
    /// Probes that reached the tableau solver.
    pub solver_probes: u64,
    /// Solver probes whose pivot budget ran out (exact fallback decided).
    pub exact_fallbacks: u64,
    /// Deepest undo-trail rollback any solver probe performed.
    pub max_rollback_depth: u64,
    /// Commits, i.e. memo-cache invalidations (the commit epoch).
    pub commits: u64,
    /// Memo hits answered by entries seeded from another checker via
    /// [`PinChecker::seed_initial_memo`] (a subset of `memo_hits`).
    pub seed_hits: u64,
}

impl ProbeCacheStats {
    /// Total probes across all layers.
    pub fn total_probes(&self) -> u64 {
        self.memo_hits + self.surrogate_rejects + self.solver_probes
    }
}

/// Errors from building the pin-allocation model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PinAllocError {
    /// The initiation rate must be at least 1.
    ZeroRate,
    /// An operation passed to the checker is not an I/O operation.
    NotAnIoOperation(OpId),
    /// The initial system already admits no pin allocation.
    InfeasibleFromTheStart,
    /// The attached execution [`Budget`] tripped before the checker
    /// could reach a verdict; the carried [`Termination`] says why.
    Interrupted(Termination),
    /// The ILP at this rate would need more solver variables than
    /// [`MAX_TABLEAU_VARS`]; the checker refuses before allocating.
    TableauTooLarge {
        /// Variables the tableau would need.
        vars: usize,
        /// The cap, [`MAX_TABLEAU_VARS`].
        limit: usize,
    },
}

impl std::fmt::Display for PinAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinAllocError::ZeroRate => write!(f, "initiation rate must be at least 1"),
            PinAllocError::NotAnIoOperation(op) => {
                write!(f, "{op} is not an I/O operation")
            }
            PinAllocError::InfeasibleFromTheStart => {
                write!(f, "no pin allocation exists even before scheduling")
            }
            PinAllocError::Interrupted(t) => {
                write!(f, "pin-allocation check interrupted ({t})")
            }
            PinAllocError::TableauTooLarge { vars, limit } => write!(
                f,
                "the pin-allocation ILP at this rate needs {vars} solver variables, \
                 over the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for PinAllocError {}

/// The incremental pin-allocation feasibility checker of Figure 3.4.
///
/// # Examples
///
/// ```
/// use mcs_cdfg::designs::ar_filter;
/// use mcs_pinalloc::PinChecker;
///
/// # fn main() -> Result<(), mcs_pinalloc::PinAllocError> {
/// let design = ar_filter::simple();
/// let mut checker = PinChecker::new(design.cdfg(), 2)?;
/// let x5 = design.op_named("X5");
/// assert!(checker.can_commit(x5, 0));
/// checker.commit(x5, 0)?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PinChecker {
    solver: AllIntegerSolver,
    rate: u32,
    /// Variable carrying each I/O op, by op id.
    op_vars: BTreeMap<OpId, OpVar>,
    /// Base solver-variable index of each aggregate block (stride = rate).
    agg_base: Vec<usize>,
    /// Base solver-variable index of each member binary block.
    member_base: Vec<usize>,
    /// Remaining uncommitted demand per aggregate block.
    agg_remaining: Vec<i64>,
    /// Whether each member binary has been committed.
    member_done: Vec<bool>,
    /// Bit-width of each transfer, captured at build so probe/commit
    /// sites can report pin pressure without a `Cdfg` in hand.
    op_bits: BTreeMap<OpId, u32>,
    /// Committed pin-bits per control-step group `k in 0..L`.
    group_load: Vec<u32>,
    /// Total pin budget across all partitions — the ceiling the per-group
    /// pressure in `PinCheck` events is reported against.
    total_cap: u32,
    /// Pivot budget per feasibility solve before the exact fallback.
    pivot_budget: usize,
    /// Memo cache of probe verdicts for the current commit epoch, keyed
    /// by `(solver var, increment)`. Sound because probe verdicts are a
    /// pure function of solver state, which only commits mutate; cleared
    /// on every commit.
    memo: BTreeMap<(usize, i64), bool>,
    /// Probe verdicts this checker *computed* (memo entries excluded)
    /// while no commit had happened yet — a pure function of
    /// `(design, rate, budgets)`, exportable for cross-run warm starts.
    epoch0_learned: BTreeMap<(usize, i64), bool>,
    /// Keys in `memo` that came from [`PinChecker::seed_initial_memo`]
    /// rather than this checker's own solves (for `seed_hits`).
    seeded: std::collections::BTreeSet<(usize, i64)>,
    /// Destination-partition index of each transfer (surrogate bound).
    op_dest: BTreeMap<OpId, u32>,
    /// Every `(op, group)` probe the checker can answer, in the canonical
    /// sweep order (ops ascending, groups ascending) — derived once at
    /// construction so [`PinChecker::probe_sweep`] does not rebuild it
    /// per call.
    sweep_order: Vec<(OpId, i64)>,
    /// Committed input pin-bits per `[partition * L + group]`.
    part_in_load: Vec<i64>,
    /// Input-side pin capacity per partition: the fixed input split, or
    /// the whole budget when the split is free (inputs can use at most
    /// all of it since `o_j >= 0`).
    in_cap: Vec<i64>,
    /// Probe-layer resolution counters.
    stats: ProbeCacheStats,
    /// Optional execution budget. Every resolved probe is charged to
    /// it; the embedded solver polls it at pivot boundaries.
    budget: Option<Budget>,
    /// Telemetry handle — the registry clock, and the sink for
    /// `PinCheck`/`ProbeResolved` events — and the resolved per-source
    /// probe latency histograms.
    metrics: MetricsHandle,
    m_lat_memo: Histogram,
    m_lat_surrogate: Histogram,
    m_lat_solver: Histogram,
}

impl PinChecker {
    /// Builds the ILP for `cdfg` at initiation rate `rate` and verifies
    /// initial feasibility.
    ///
    /// # Errors
    ///
    /// [`PinAllocError::ZeroRate`] for `rate == 0`;
    /// [`PinAllocError::TableauTooLarge`] past [`MAX_TABLEAU_VARS`];
    /// [`PinAllocError::InfeasibleFromTheStart`] if the pin budgets cannot
    /// carry the design's transfers at all.
    pub fn new(cdfg: &Cdfg, rate: u32) -> Result<Self, PinAllocError> {
        Self::with_context(
            cdfg,
            rate,
            DEFAULT_PIVOT_BUDGET,
            None,
            &MetricsHandle::default(),
        )
    }

    /// [`PinChecker::new`] with everything a caller can configure, all
    /// attached before the construction-time feasibility solve:
    ///
    /// * `pivot_budget` per feasibility solve. A budget of 0 sends every
    ///   solve straight to the exact branch-and-bound fallback — slow but
    ///   still sound.
    /// * An optional execution [`Budget`], so even the initial exact
    ///   resolve is interruptible. Without one the solve runs unbounded,
    ///   which on adversarial designs can take arbitrarily long; any
    ///   deadline-bound caller should pass one.
    /// * `metrics` (as by [`PinChecker::set_metrics`]), so that solve's
    ///   `ilp.pivots` reach the caller's registry.
    ///
    /// # Errors
    ///
    /// As [`PinChecker::new`], plus [`PinAllocError::Interrupted`] when
    /// the budget trips mid-construction.
    pub fn with_context(
        cdfg: &Cdfg,
        rate: u32,
        pivot_budget: usize,
        budget: Option<Budget>,
        metrics: &MetricsHandle,
    ) -> Result<Self, PinAllocError> {
        let ilp = PinIlp::new(cdfg, rate)?;
        let l = rate as usize;
        let mut solver = AllIntegerSolver::new(ilp.vars());
        ilp.rows(|terms, sense, rhs| match sense {
            Sense::Le => solver.add_le(terms, rhs),
            Sense::Ge => solver.add_ge(terms, rhs),
        });
        let PinIlp {
            op_vars,
            aggregates,
            members,
            ..
        } = ilp;

        let op_bits: BTreeMap<OpId, u32> =
            op_vars.keys().map(|&op| (op, cdfg.io_bits(op))).collect();
        let total_cap: u32 = cdfg
            .partitions()
            .iter()
            .map(|part| match part.fixed_split {
                Some((i_cap, o_cap)) => i_cap + o_cap,
                None => part.total_pins,
            })
            .sum();
        let op_dest: BTreeMap<OpId, u32> = op_vars
            .keys()
            .map(|&op| {
                let (_, _, to) = cdfg.op(op).io_endpoints().expect("io op");
                (op, u32::from(to))
            })
            .collect();
        let in_cap: Vec<i64> = cdfg
            .partitions()
            .iter()
            .map(|part| match part.fixed_split {
                Some((i_cap, _)) => i_cap as i64,
                None => part.total_pins as i64,
            })
            .collect();
        let sweep_order: Vec<(OpId, i64)> = op_vars
            .keys()
            .flat_map(|&op| (0..l as i64).map(move |k| (op, k)))
            .collect();
        let mut checker = PinChecker {
            solver,
            rate,
            op_vars,
            agg_base: aggregates.iter().map(|&(base, _)| base).collect(),
            agg_remaining: aggregates.iter().map(|&(_, q)| q).collect(),
            member_done: vec![false; members.len()],
            member_base: members,
            op_bits,
            group_load: vec![0; l],
            total_cap,
            pivot_budget,
            memo: BTreeMap::new(),
            epoch0_learned: BTreeMap::new(),
            seeded: std::collections::BTreeSet::new(),
            op_dest,
            sweep_order,
            part_in_load: vec![0; cdfg.partitions().len() * l],
            in_cap,
            stats: ProbeCacheStats::default(),
            budget: None,
            metrics: MetricsHandle::default(),
            m_lat_memo: Histogram::default(),
            m_lat_surrogate: Histogram::default(),
            m_lat_solver: Histogram::default(),
        };
        if let Some(b) = budget {
            checker.set_budget(b);
        }
        if metrics.enabled() {
            checker.set_metrics(metrics);
        }
        match checker.resolve() {
            Feasibility::Feasible => Ok(checker),
            Feasibility::Interrupted => Err(PinAllocError::Interrupted(checker.interruption())),
            _ => Err(PinAllocError::InfeasibleFromTheStart),
        }
    }

    /// Solver variables the pin-allocation ILP of `cdfg` at `rate` has:
    /// one per step group for each aggregate (Section 3.1.2), each
    /// member of a multi-destination value and each such value's `y`,
    /// plus one `o_j` per partition without a fixed split. Computed
    /// without building anything, so a caller can refuse a rate before
    /// any work is queued.
    ///
    /// # Errors
    ///
    /// [`PinAllocError::ZeroRate`] for `rate == 0`, and
    /// [`PinAllocError::TableauTooLarge`] past [`MAX_TABLEAU_VARS`].
    pub fn tableau_vars(cdfg: &Cdfg, rate: u32) -> Result<usize, PinAllocError> {
        if rate == 0 {
            return Err(PinAllocError::ZeroRate);
        }
        let mut aggregates = std::collections::BTreeSet::new();
        let mut blocks = 0usize;
        for ops in cdfg.io_ops_by_value().values() {
            if let [op] = ops[..] {
                let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
                aggregates.insert((from, to, cdfg.io_bits(op)));
            } else {
                blocks += ops.len() + 1;
            }
        }
        let splits = cdfg
            .partitions()
            .iter()
            .filter(|part| part.fixed_split.is_none())
            .count();
        let vars = (aggregates.len() + blocks)
            .saturating_mul(rate as usize)
            .saturating_add(splits);
        if vars > MAX_TABLEAU_VARS {
            return Err(PinAllocError::TableauTooLarge {
                vars,
                limit: MAX_TABLEAU_VARS,
            });
        }
        Ok(vars)
    }

    /// Attaches an execution budget: probes are charged against it and
    /// the embedded solver polls it at pivot boundaries, so a long
    /// feasibility solve can be interrupted mid-flight. Interrupted
    /// probes conservatively answer "cannot commit" and are never
    /// memoized.
    pub fn set_budget(&mut self, budget: Budget) {
        self.solver.set_budget(budget.clone());
        self.budget = Some(budget);
    }

    /// The execution budget attached via [`PinChecker::set_budget`], if
    /// any — callers embedding the checker in a larger flow share it so
    /// every layer charges the same ledger.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// The budget's sticky verdict, defaulting to
    /// [`Termination::Cancelled`] only when no budget is attached (an
    /// interruption without a budget cannot happen in practice).
    fn interruption(&self) -> Termination {
        self.budget
            .as_ref()
            .and_then(|b| b.verdict())
            .unwrap_or(Termination::Cancelled)
    }

    /// The initiation rate the checker was built for.
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// The pivot budget per feasibility solve.
    pub fn pivot_budget(&self) -> usize {
        self.pivot_budget
    }

    /// Pins the embedded solver to its wide (i128) tableau
    /// representation, bypassing the adaptive i64 fast path. Verdicts are
    /// identical either way; this is the differential anchor the bench
    /// harness compares the adaptive path against.
    pub fn force_wide_words(&mut self) {
        self.solver.force_wide();
    }

    /// Times the embedded solver's adaptive i64 representation promoted
    /// to i128 because an operation would have overflowed (the
    /// `ilp.promotions` metric).
    pub fn solver_promotions(&self) -> u64 {
        self.solver.promotions()
    }

    /// Representation-independent digest of the embedded solver's live
    /// tableau (cells hashed as i128 regardless of the current word
    /// size). Equal digests mean equal tableaus: an adaptive checker and
    /// a [`PinChecker::force_wide_words`] checker that ran the same
    /// probe/commit sequence must report the same value.
    pub fn solver_tableau_digest(&self) -> u64 {
        self.solver.tableau_digest()
    }

    /// Cumulative probe-layer resolution counters.
    pub fn probe_stats(&self) -> ProbeCacheStats {
        self.stats
    }

    /// Connects the checker's telemetry to `metrics`: a probe latency
    /// histogram per resolution layer (`probe.latency_us.memo` /
    /// `.surrogate` / `.solver`) plus the embedded solver's `ilp.*`
    /// metrics, and — when the handle carries an event sink — `PinCheck`
    /// and `ProbeResolved` events from probes and commits and the
    /// solver's `GomoryCut` events. Latencies are measured on the
    /// registry's injected clock, so a `ManualClock` registry records
    /// deterministic (zero) durations with exact counts.
    pub fn set_metrics(&mut self, metrics: &MetricsHandle) {
        self.solver.set_metrics(metrics);
        self.m_lat_memo = metrics.histogram("probe.latency_us.memo");
        self.m_lat_surrogate = metrics.histogram("probe.latency_us.surrogate");
        self.m_lat_solver = metrics.histogram("probe.latency_us.solver");
        self.metrics = metrics.clone();
    }

    /// Committed pin-bits in control-step group `step mod L`.
    pub fn group_load(&self, step: i64) -> u32 {
        self.group_load[step.rem_euclid(self.rate as i64) as usize]
    }

    fn resolve(&mut self) -> Feasibility {
        match self.solver.solve(self.pivot_budget) {
            Feasibility::PivotLimit => self.solver.solve_exact(),
            v => v,
        }
    }

    /// Surrogate quick-reject (necessary condition, checked without any
    /// pivoting): the committed input pin-bits of the probed transfer's
    /// destination partition in group `k`, plus the transfer's own bits,
    /// must fit the partition's input capacity. With a free split the
    /// bound is the whole pin budget (`o_j >= 0`). Exceeding it means
    /// the full ILP is certainly infeasible, so rejecting is sound.
    fn surrogate_rejects(&self, op: OpId, k: usize) -> bool {
        let Some(&pi) = self.op_dest.get(&op) else {
            return false;
        };
        let bits = self.op_bits.get(&op).copied().unwrap_or(0) as i64;
        let load = self.part_in_load[pi as usize * self.rate as usize + k];
        load + bits > self.in_cap[pi as usize]
    }

    fn var_of(&self, op: OpId, step: i64) -> usize {
        let k = step.rem_euclid(self.rate as i64) as usize;
        match self.op_vars[&op] {
            OpVar::Aggregate(gi) => self.agg_base[gi] + k,
            OpVar::Member(mi) => self.member_base[mi] + k,
        }
    }

    /// Whether scheduling `op` in control step `step` (allocating pins in
    /// group `step mod L`) still leaves a complete pin allocation for all
    /// unscheduled transfers. Leaves the committed allocation state
    /// untouched (`&mut` only for the probe caches and the solver's
    /// checkpoint/rollback trail).
    ///
    /// Resolution is layered cheapest-first: the memo cache (valid until
    /// the next commit), the surrogate capacity bound, and finally a
    /// checkpointed tableau solve.
    pub fn can_commit(&mut self, op: OpId, step: i64) -> bool {
        let var = self.var_of(op, step);
        let k = step.rem_euclid(self.rate as i64) as usize;
        let probe_start = self.metrics.now_us();
        let (verdict, source, trail_depth) = if let Some(&v) = self.memo.get(&(var, 1)) {
            self.stats.memo_hits += 1;
            if self.seeded.contains(&(var, 1)) {
                self.stats.seed_hits += 1;
            }
            (v, ProbeSource::Memo, 0)
        } else if self.surrogate_rejects(op, k) {
            self.stats.surrogate_rejects += 1;
            self.memo.insert((var, 1), false);
            if self.stats.commits == 0 {
                self.epoch0_learned.insert((var, 1), false);
            }
            (false, ProbeSource::Surrogate, 0)
        } else {
            let (f, pstats) = self
                .solver
                .probe_at_least_with_stats(var, 1, self.pivot_budget);
            self.stats.solver_probes += 1;
            if pstats.exact_fallback {
                self.stats.exact_fallbacks += 1;
            }
            self.stats.max_rollback_depth = self.stats.max_rollback_depth.max(pstats.rollback_ops);
            let v = f == Feasibility::Feasible;
            // An interrupted probe conservatively answers "cannot
            // commit" but proves nothing — memoizing it would poison
            // the cache with a verdict the solver never reached.
            if f != Feasibility::Interrupted {
                self.memo.insert((var, 1), v);
                if self.stats.commits == 0 {
                    self.epoch0_learned.insert((var, 1), v);
                }
            }
            (v, ProbeSource::Solver, pstats.rollback_ops)
        };
        if self.metrics.enabled() {
            let elapsed = self.metrics.now_us().saturating_sub(probe_start);
            match source {
                ProbeSource::Memo => self.m_lat_memo.observe(elapsed),
                ProbeSource::Surrogate => self.m_lat_surrogate.observe(elapsed),
                ProbeSource::Solver => self.m_lat_solver.observe(elapsed),
            }
        }
        // Charged after resolution so a flow that finishes on exactly
        // its last allowed probe still completes naturally.
        if let Some(budget) = &self.budget {
            budget.charge_probes(1);
        }
        if self.metrics.tracing() {
            self.metrics.record(Event::PinCheck {
                group: k as u32,
                pins_used: self.group_load[k] + self.op_bits.get(&op).copied().unwrap_or(0),
                cap: self.total_cap,
                verdict,
            });
            self.metrics.record(Event::ProbeResolved {
                var: var as u32,
                by: 1,
                verdict,
                source,
                trail_depth,
            });
        }
        verdict
    }

    /// Probes `op` at `step` through a chosen engine — the trail-based
    /// checkpoint/rollback path or the legacy clone-per-probe path —
    /// bypassing the memo cache and the surrogate bound. Benchmark and
    /// differential-test hook: both engines answer the same question on
    /// the same tableau, so their verdicts must agree.
    pub fn probe_uncached(&mut self, op: OpId, step: i64, via_clone: bool) -> bool {
        let var = self.var_of(op, step);
        let verdict = if via_clone {
            self.solver
                .probe_at_least_via_clone(var, 1, self.pivot_budget)
        } else {
            self.solver.probe_at_least(var, 1, self.pivot_budget)
        };
        verdict == Feasibility::Feasible
    }

    /// Differential oracle hook: probes every known transfer at every
    /// control-step group through both probe engines and returns the
    /// disagreeing `(op, step, trail, clone)` tuples. An empty sweep
    /// means the trail-based engine is verdict-identical to the clone
    /// oracle on the checker's full probe surface at the current pivot
    /// budget. The candidate order is derived once at construction
    /// (`sweep_order`); each candidate costs one trail probe and one
    /// clone probe through [`PinChecker::probe_uncached`].
    pub fn probe_sweep(&mut self) -> Vec<(OpId, i64, bool, bool)> {
        let candidates = std::mem::take(&mut self.sweep_order);
        let mut diffs = Vec::new();
        for &(op, step) in &candidates {
            let trail = self.probe_uncached(op, step, false);
            let clone = self.probe_uncached(op, step, true);
            if trail != clone {
                diffs.push((op, step, trail, clone));
            }
        }
        self.sweep_order = candidates;
        diffs
    }

    /// Commits the placement of `op` in `step`'s group (the incremental
    /// tableau update of Section 3.3).
    ///
    /// # Errors
    ///
    /// [`PinAllocError::NotAnIoOperation`] if `op` is unknown to the
    /// checker, or [`PinAllocError::InfeasibleFromTheStart`] if the commit
    /// leaves no valid allocation (call [`PinChecker::can_commit`] first).
    pub fn commit(&mut self, op: OpId, step: i64) -> Result<(), PinAllocError> {
        if !self.op_vars.contains_key(&op) {
            return Err(PinAllocError::NotAnIoOperation(op));
        }
        let var = self.var_of(op, step);
        self.solver.assume_at_least(var, 1);
        match self.op_vars[&op] {
            OpVar::Aggregate(gi) => self.agg_remaining[gi] -= 1,
            OpVar::Member(mi) => self.member_done[mi] = true,
        }
        let k = step.rem_euclid(self.rate as i64) as usize;
        self.group_load[k] += self.op_bits.get(&op).copied().unwrap_or(0);
        if let Some(&pi) = self.op_dest.get(&op) {
            self.part_in_load[pi as usize * self.rate as usize + k] +=
                self.op_bits.get(&op).copied().unwrap_or(0) as i64;
        }
        // The solver state changed: every memoized *feasible* verdict is
        // stale (the feasible set only shrinks as commits accumulate).
        // Infeasible verdicts survive: adding constraints can never make
        // an infeasible increment feasible again, so a `false` entry —
        // including a seeded one — stays sound for the rest of the run.
        self.memo.retain(|_, v| !*v);
        self.seeded.retain(|key| self.memo.contains_key(key));
        self.stats.commits += 1;
        let outcome = match self.resolve() {
            Feasibility::Feasible => Ok(()),
            Feasibility::Interrupted => Err(PinAllocError::Interrupted(self.interruption())),
            _ => Err(PinAllocError::InfeasibleFromTheStart),
        };
        if self.metrics.tracing() {
            self.metrics.record(Event::PinCheck {
                group: k as u32,
                pins_used: self.group_load[k],
                cap: self.total_cap,
                verdict: outcome.is_ok(),
            });
        }
        outcome
    }

    /// `true` once every transfer has been committed.
    pub fn all_committed(&self) -> bool {
        self.agg_remaining.iter().all(|&r| r == 0) && self.member_done.iter().all(|&d| d)
    }

    /// Probe verdicts this checker computed itself before any commit —
    /// a pure function of `(design, rate, budgets)`, so another checker
    /// for the same problem may adopt them via
    /// [`PinChecker::seed_initial_memo`]. Entries that were themselves
    /// seeded are excluded: re-exporting them would launder their
    /// provenance. Sorted by key for deterministic consumption.
    pub fn initial_probe_memo(&self) -> Vec<((usize, i64), bool)> {
        self.epoch0_learned.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Pre-populates the probe memo from another checker's
    /// [`PinChecker::initial_probe_memo`] export. Only legal while this
    /// checker has made no commit (the memo is a pure function of the
    /// initial tableau until then); afterwards the call is a no-op.
    /// Entries already resolved locally are kept. Returns how many
    /// entries were adopted.
    pub fn seed_initial_memo(&mut self, entries: &[((usize, i64), bool)]) -> usize {
        if self.stats.commits != 0 {
            return 0;
        }
        let mut adopted = 0;
        for &(key, verdict) in entries {
            if let std::collections::btree_map::Entry::Vacant(slot) = self.memo.entry(key) {
                slot.insert(verdict);
                self.seeded.insert(key);
                adopted += 1;
            }
        }
        adopted
    }

    /// Opens a cross-commit savepoint: a snapshot of the committed state
    /// that [`PinChecker::rollback_commits`] can restore after any number
    /// of further [`PinChecker::commit`] calls.
    ///
    /// This is the commit-level analogue of the per-probe trail use: the
    /// solver checkpoint keeps the undo trail recording across the
    /// commits (assumption shifts and their repair pivots), and the
    /// checker bookkeeping that commits mutate is snapshotted alongside.
    /// The incremental resynthesis flow snapshots after replaying the
    /// clean commits of a previous run, then trial-commits the dirty
    /// transfers — rolling back and retrying other step groups on
    /// failure instead of rebuilding the tableau from scratch.
    ///
    /// Savepoints nest LIFO with any probe the checker runs in between
    /// (probes open and close their own inner checkpoints), but two
    /// *savepoints* must themselves be rolled back in LIFO order, and a
    /// savepoint is consumed by its rollback: re-open after rolling back
    /// if another trial round is needed.
    pub fn commit_savepoint(&mut self) -> CommitSavepoint {
        CommitSavepoint {
            checkpoint: self.solver.checkpoint(),
            agg_remaining: self.agg_remaining.clone(),
            member_done: self.member_done.clone(),
            group_load: self.group_load.clone(),
            part_in_load: self.part_in_load.clone(),
            memo: self.memo.clone(),
            seeded: self.seeded.clone(),
            commits: self.stats.commits,
        }
    }

    /// Rolls the checker back to `savepoint`, undoing every commit made
    /// since it was opened. Returns the number of solver trail
    /// operations unwound. The savepoint is consumed.
    pub fn rollback_commits(&mut self, savepoint: CommitSavepoint) -> u64 {
        let undone = self.solver.rollback(savepoint.checkpoint);
        self.agg_remaining = savepoint.agg_remaining;
        self.member_done = savepoint.member_done;
        self.group_load = savepoint.group_load;
        self.part_in_load = savepoint.part_in_load;
        self.memo = savepoint.memo;
        self.seeded = savepoint.seeded;
        self.stats.commits = savepoint.commits;
        undone
    }
}

/// A cross-commit savepoint of a [`PinChecker`]: the solver's trail
/// checkpoint plus the commit bookkeeping (remaining demand, group
/// loads, probe memo). Created by [`PinChecker::commit_savepoint`],
/// consumed by [`PinChecker::rollback_commits`].
#[derive(Clone, Debug)]
pub struct CommitSavepoint {
    checkpoint: mcs_ilp::Checkpoint,
    agg_remaining: Vec<i64>,
    member_done: Vec<bool>,
    group_load: Vec<u32>,
    part_in_load: Vec<i64>,
    memo: BTreeMap<(usize, i64), bool>,
    seeded: std::collections::BTreeSet<(usize, i64)>,
    commits: u64,
}

impl CommitSavepoint {
    /// Undo-trail depth at the snapshot (diagnostics for resynthesis
    /// telemetry: `trail undone = trail_len() - trail_depth()`).
    pub fn trail_depth(&self) -> usize {
        self.checkpoint.trail_depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::{ar_filter, synthetic};

    #[test]
    fn simple_ar_filter_is_feasible_at_rate_two() {
        let d = ar_filter::simple();
        assert!(PinChecker::new(d.cdfg(), 2).is_ok());
    }

    #[test]
    fn rate_one_requires_all_transfers_simultaneously() {
        // At rate 1 every transfer shares one group: P1 needs
        // 10 inputs x 8 bits = 80 > 40 input pins.
        let d = ar_filter::simple();
        assert_eq!(
            PinChecker::new(d.cdfg(), 1).unwrap_err(),
            PinAllocError::InfeasibleFromTheStart
        );
    }

    #[test]
    fn zero_rate_is_rejected() {
        let d = ar_filter::simple();
        assert_eq!(
            PinChecker::new(d.cdfg(), 0).unwrap_err(),
            PinAllocError::ZeroRate
        );
    }

    #[test]
    fn oversized_rate_is_refused_before_allocating() {
        let d = ar_filter::simple();
        // The variable count is affine in the rate; construction checks
        // it against what it builds (a debug assertion).
        let vars: Vec<usize> = (2..=4)
            .map(|l| PinChecker::tableau_vars(d.cdfg(), l).unwrap())
            .collect();
        assert_eq!(vars[2] - vars[1], vars[1] - vars[0]);
        assert!(PinChecker::new(d.cdfg(), 4).is_ok());
        for rate in [100_000, u32::MAX] {
            match PinChecker::new(d.cdfg(), rate) {
                Err(PinAllocError::TableauTooLarge { vars, limit }) => {
                    assert_eq!(limit, MAX_TABLEAU_VARS);
                    assert!(vars > limit, "rate {rate}: {vars}");
                }
                other => panic!("rate {rate}: {other:?}"),
            }
        }
    }

    #[test]
    fn fig_2_5_checker_foresees_the_dead_end() {
        // Section 2.4: Pa has 2 output pins, Pc 1 input pin, rate 2.
        // V1 and V2 both in group 0 strands V3/V4.
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        let v2 = d.op_named("V2");
        assert!(c.can_commit(v1, 0));
        c.commit(v1, 0).unwrap();
        // After V1 in group 0, V2 must not join it: V3 and V4 (both to
        // Pc's single input pin) need different groups, but with V1 and V2
        // in group 0 Pa has no output pin left there for either.
        let ok0 = c.can_commit(v2, 0);
        let ok1 = c.can_commit(v2, 1);
        assert!(ok1, "V2 must be placeable in the other group");
        assert!(
            !ok0,
            "the checker must foresee that V1,V2 in one group strands V3/V4"
        );
    }

    #[test]
    fn commits_fill_all_groups_exactly() {
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        for (name, step) in [("V1", 0), ("V2", 1), ("V3", 1), ("V4", 0)] {
            let op = d.op_named(name);
            assert!(c.can_commit(op, step), "{name} at {step}");
            c.commit(op, step).unwrap();
        }
    }

    #[test]
    fn savepoint_rolls_back_commits_exactly() {
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        let v2 = d.op_named("V2");
        c.commit(v1, 0).unwrap();
        let digest = c.solver_tableau_digest();
        let load0 = c.group_load(0);
        let load1 = c.group_load(1);
        let sp = c.commit_savepoint();
        // Two further commits mutate the tableau and the bookkeeping,
        // with interleaved probes opening nested inner checkpoints.
        assert!(c.can_commit(v2, 1));
        c.commit(v2, 1).unwrap();
        c.commit(d.op_named("V3"), 1).unwrap();
        assert_ne!(c.solver_tableau_digest(), digest);
        let undone = c.rollback_commits(sp);
        assert!(undone > 0, "commits leave trail entries to unwind");
        assert_eq!(c.solver_tableau_digest(), digest);
        assert_eq!(c.group_load(0), load0);
        assert_eq!(c.group_load(1), load1);
        assert_eq!(c.probe_stats().commits, 1);
        // The restored state supports a fresh trial round: replay the
        // rolled-back commits plus the remaining cross-chip transfer.
        for (name, step) in [("V2", 1), ("V3", 1), ("V4", 0)] {
            c.commit(d.op_named(name), step).unwrap();
        }
        assert_eq!(c.probe_stats().commits, 4);
    }

    #[test]
    fn savepoints_nest_lifo() {
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        c.commit(d.op_named("V1"), 0).unwrap();
        let outer = c.commit_savepoint();
        c.commit(d.op_named("V2"), 1).unwrap();
        let inner = c.commit_savepoint();
        c.commit(d.op_named("V3"), 1).unwrap();
        assert_eq!(c.probe_stats().commits, 3);
        assert!(outer.trail_depth() <= inner.trail_depth());
        c.rollback_commits(inner);
        assert_eq!(c.probe_stats().commits, 2);
        c.rollback_commits(outer);
        assert_eq!(c.probe_stats().commits, 1);
    }

    #[test]
    fn aggregation_groups_uniform_transfers() {
        // The simple AR filter's 26 primary inputs collapse into one
        // aggregate per (env, partition) pair, keeping the tableau small
        // (Section 3.1.2).
        let d = ar_filter::simple();
        let c = PinChecker::new(d.cdfg(), 2).unwrap();
        assert!(c.agg_base.len() <= 12, "got {} blocks", c.agg_base.len());
    }

    #[test]
    fn probing_does_not_change_state() {
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        for _ in 0..3 {
            assert!(c.can_commit(v1, 0));
        }
        assert!(!c.all_committed());
        // The first probe hit the solver; the repeats were memo hits.
        let stats = c.probe_stats();
        assert_eq!(stats.solver_probes, 1);
        assert_eq!(stats.memo_hits, 2);
    }

    #[test]
    fn memo_cache_is_invalidated_by_commits() {
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        let v2 = d.op_named("V2");
        assert!(c.can_commit(v1, 0));
        c.commit(v1, 0).unwrap();
        // V2-at-0 was never probed, and the V1 verdict must not leak:
        // this probe re-enters the solver against the updated tableau.
        let before = c.probe_stats().solver_probes;
        assert!(!c.can_commit(v2, 0));
        assert!(c.probe_stats().solver_probes > before);
        assert_eq!(c.probe_stats().commits, 1);
    }

    #[test]
    fn seeded_memo_answers_probes_and_counts_seed_hits() {
        let d = synthetic::fig_2_5();
        let mut donor = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        let v2 = d.op_named("V2");
        assert!(donor.can_commit(v1, 0));
        assert!(donor.can_commit(v2, 1));
        let export = donor.initial_probe_memo();
        assert_eq!(export.len(), 2);

        let mut fresh = PinChecker::new(d.cdfg(), 2).unwrap();
        assert_eq!(fresh.seed_initial_memo(&export), 2);
        assert!(fresh.can_commit(v1, 0));
        assert!(fresh.can_commit(v2, 1));
        let stats = fresh.probe_stats();
        assert_eq!(stats.solver_probes, 0, "seeded probes must not re-solve");
        assert_eq!(stats.memo_hits, 2);
        assert_eq!(stats.seed_hits, 2);
        // Seeded entries are adopted, not learned: they must not be
        // re-exported as this checker's own epoch-0 verdicts.
        assert!(fresh.initial_probe_memo().is_empty());
    }

    #[test]
    fn seeding_after_a_commit_is_rejected() {
        let d = synthetic::fig_2_5();
        let mut donor = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        assert!(donor.can_commit(v1, 0));
        let export = donor.initial_probe_memo();

        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        c.commit(v1, 0).unwrap();
        assert_eq!(c.seed_initial_memo(&export), 0);
        assert_eq!(c.probe_stats().seed_hits, 0);
    }

    #[test]
    fn commits_drop_seeded_entries_with_the_memo() {
        let d = synthetic::fig_2_5();
        let mut donor = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        let v2 = d.op_named("V2");
        assert!(donor.can_commit(v1, 0));
        assert!(donor.can_commit(v2, 1));
        let export = donor.initial_probe_memo();

        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        assert_eq!(c.seed_initial_memo(&export), 2);
        c.commit(v1, 0).unwrap();
        // The seeded V2 verdict died with the memo; this re-solves and
        // must not be miscounted as a seed hit.
        let before = c.probe_stats().solver_probes;
        assert!(c.can_commit(v2, 1));
        assert!(c.probe_stats().solver_probes > before);
        assert_eq!(c.probe_stats().seed_hits, 0);
    }

    #[test]
    fn zero_pivot_budget_is_still_sound() {
        // Budget 0 sends every solve to the exact fallback; verdicts must
        // match the default-budget checker on the fig. 2.5 dead end.
        let d = synthetic::fig_2_5();
        let mut slow =
            PinChecker::with_context(d.cdfg(), 2, 0, None, &MetricsHandle::default()).unwrap();
        assert_eq!(slow.pivot_budget(), 0);
        let mut fast = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        let v2 = d.op_named("V2");
        for c in [&mut slow, &mut fast] {
            assert!(c.can_commit(v1, 0));
            c.commit(v1, 0).unwrap();
            assert!(!c.can_commit(v2, 0));
            assert!(c.can_commit(v2, 1));
        }
        assert!(slow.probe_stats().exact_fallbacks > 0);
        assert_eq!(fast.probe_stats().exact_fallbacks, 0);
    }

    #[test]
    fn surrogate_rejects_obvious_overload_without_pivoting() {
        // fig_2_5: Pc has 1 input pin and V3/V4 (1 bit each) both target
        // it. After committing V3 in group 0, probing V4 into group 0
        // must be rejected by the surrogate bound alone.
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let v3 = d.op_named("V3");
        let v4 = d.op_named("V4");
        assert!(c.can_commit(v3, 0));
        c.commit(v3, 0).unwrap();
        assert!(!c.can_commit(v4, 0));
        assert_eq!(c.probe_stats().surrogate_rejects, 1);
        // And the rejection is memoized.
        assert!(!c.can_commit(v4, 0));
        assert_eq!(c.probe_stats().surrogate_rejects, 1);
        assert_eq!(c.probe_stats().memo_hits, 1);
    }

    #[test]
    fn differential_mode_agrees_across_a_full_schedule() {
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let ops: Vec<OpId> = ["V1", "V2", "V3", "V4"]
            .iter()
            .map(|n| d.op_named(n))
            .collect();
        for (i, (name, step)) in [("V1", 0), ("V2", 1), ("V3", 1), ("V4", 0)]
            .into_iter()
            .enumerate()
        {
            assert!(c.can_commit(ops[i], step), "{name} at {step}");
            c.commit(ops[i], step).unwrap();
            // Every transfer, committed or not, in both groups: the
            // trail engine answers exactly as the clone reference.
            for &op in &ops {
                for k in 0..2 {
                    assert_eq!(
                        c.probe_uncached(op, k, false),
                        c.probe_uncached(op, k, true),
                        "{op} at {k} after committing {name}"
                    );
                }
            }
        }
        assert_eq!(c.probe_stats().commits, 4);
        assert!(c.probe_stats().solver_probes > 0);
    }

    #[test]
    fn recorder_sees_probes_and_commits() {
        use mcs_obs::{BufferingRecorder, RecorderHandle};
        use std::sync::Arc;
        let d = synthetic::fig_2_5();
        let buf = Arc::new(BufferingRecorder::new());
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        c.set_metrics(&MetricsHandle::default().with_events(&RecorderHandle::new(buf.clone())));
        let v1 = d.op_named("V1");
        assert!(c.can_commit(v1, 0));
        c.commit(v1, 0).unwrap();
        let events = buf.events();
        let checks: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                Event::PinCheck {
                    group,
                    pins_used,
                    cap,
                    verdict,
                } => Some((group, pins_used, cap, verdict)),
                _ => None,
            })
            .collect();
        assert_eq!(checks.len(), 2, "one probe + one commit: {events:?}");
        // Both report V1's single bit in group 0 against the total budget
        // (Pa: 2 out, Pb: 2 in + 1 out... summed across all partitions).
        assert!(checks
            .iter()
            .all(|&(g, used, _, ok)| g == 0 && used > 0 && ok));
        assert_eq!(c.group_load(0), checks[1].1);
        assert_eq!(c.group_load(1), 0);
    }

    #[test]
    fn metrics_histogram_per_probe_source() {
        use mcs_metrics::Registry;
        use std::sync::Arc;
        let d = synthetic::fig_2_5();
        let reg = Arc::new(Registry::new());
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        c.set_metrics(&MetricsHandle::new(reg.clone()));
        let v3 = d.op_named("V3");
        let v4 = d.op_named("V4");
        assert!(c.can_commit(v3, 0)); // solver
        assert!(c.can_commit(v3, 0)); // memo
        c.commit(v3, 0).unwrap();
        assert!(!c.can_commit(v4, 0)); // surrogate
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["probe.latency_us.solver"].count, 1);
        assert_eq!(snap.histograms["probe.latency_us.memo"].count, 1);
        assert_eq!(snap.histograms["probe.latency_us.surrogate"].count, 1);
        // The embedded solver's metrics ride along: the warm-started
        // probe may pivot zero times, but the counter must be registered.
        assert!(snap.counters.contains_key("ilp.pivots"));
    }

    #[test]
    fn batched_probe_candidates_match_can_commit_and_prime_the_memo() {
        // A step's slate of candidates, consulted one `can_commit` each
        // on one checker, answers as a fresh checker per candidate does;
        // every verdict lands in the memo, so asking the slate again
        // costs no solver work.
        let d = synthetic::fig_2_5();
        let mut slate = PinChecker::new(d.cdfg(), 2).unwrap();
        let cands: Vec<(OpId, i64)> = ["V1", "V2", "V3", "V4"]
            .iter()
            .flat_map(|n| {
                let op = d.op_named(n);
                (0..2i64).map(move |k| (op, k))
            })
            .collect();
        let verdicts: Vec<bool> = cands
            .iter()
            .map(|&(op, step)| slate.can_commit(op, step))
            .collect();
        for (&(op, step), &v) in cands.iter().zip(&verdicts) {
            let mut fresh = PinChecker::new(d.cdfg(), 2).unwrap();
            assert_eq!(v, fresh.can_commit(op, step), "{op} at {step}");
        }
        let stats = slate.probe_stats();
        assert_eq!(stats.total_probes(), cands.len() as u64, "one probe each");
        assert!(stats.solver_probes > 0);
        let again: Vec<bool> = cands
            .iter()
            .map(|&(op, step)| slate.can_commit(op, step))
            .collect();
        assert_eq!(again, verdicts);
        let after = slate.probe_stats();
        assert_eq!(after.solver_probes, stats.solver_probes);
        assert_eq!(after.memo_hits, stats.memo_hits + cands.len() as u64);
    }

    #[test]
    fn batched_probe_candidates_respect_commits() {
        // After V1 in group 0, V2 fits only the other group, in every
        // pipeline instance; the repeats resolve from the memo.
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let v1 = d.op_named("V1");
        let v2 = d.op_named("V2");
        c.commit(v1, 0).unwrap();
        let verdicts: Vec<bool> = (0..4).map(|step| c.can_commit(v2, step)).collect();
        assert_eq!(
            verdicts,
            vec![false, true, false, true],
            "fig. 2.5 dead end"
        );
        assert_eq!(c.probe_stats().memo_hits, 2);
    }

    #[test]
    fn probe_sweep_agrees_and_leaves_no_trace() {
        let d = synthetic::fig_2_5();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let stats_before = c.probe_stats();
        let diffs = c.probe_sweep();
        assert!(diffs.is_empty(), "engines diverged: {diffs:?}");
        // The sweep is an uncached differential hook: it must not touch
        // the probe-layer counters or the memo.
        assert_eq!(c.probe_stats(), stats_before);
        let v1 = d.op_named("V1");
        assert!(c.can_commit(v1, 0));
        assert_eq!(c.probe_stats().memo_hits, 0, "sweep must not prime memo");
    }

    #[test]
    fn forced_wide_checker_matches_adaptive_verdicts() {
        let d = synthetic::fig_2_5();
        let mut adaptive = PinChecker::new(d.cdfg(), 2).unwrap();
        let mut wide = PinChecker::new(d.cdfg(), 2).unwrap();
        wide.force_wide_words();
        for (name, step) in [("V1", 0), ("V2", 1), ("V3", 1), ("V4", 0)] {
            let op = d.op_named(name);
            assert_eq!(
                adaptive.can_commit(op, step),
                wide.can_commit(op, step),
                "{name} at {step}"
            );
            adaptive.commit(op, step).unwrap();
            wide.commit(op, step).unwrap();
        }
        assert_eq!(adaptive.solver_promotions(), 0);
    }

    #[test]
    fn non_io_operation_is_rejected() {
        let d = ar_filter::simple();
        let mut c = PinChecker::new(d.cdfg(), 2).unwrap();
        let func = d.op_named("m1p");
        assert!(matches!(
            c.commit(func, 0),
            Err(PinAllocError::NotAnIoOperation(_))
        ));
    }
}
