//! Deterministic parallel portfolio driver for the Figure 4.3 connection
//! search.
//!
//! Instead of one branching search, a *portfolio* of diversified
//! configurations — different branching factors, operation orders,
//! candidate orders and node-budget slices — races toward the first
//! connection. Workers run in **epoch lockstep**: each live worker
//! expands exactly [`SearchConfig::epoch_nodes`] nodes per epoch, then
//! all workers synchronize at a barrier. The race is decided by node
//! counts, never by wall-clock timing, which makes the outcome a pure
//! function of the portfolio:
//!
//! * the run stops at the end of the first epoch in which any worker
//!   finds a connection (losers are cancelled *at the barrier*, not
//!   asynchronously);
//! * among same-epoch winners the result is chosen by fewest buses, then
//!   fewest total pins, then lowest portfolio index.
//!
//! Every worker runs the classic Figure 4.3 search on its own plan and
//! shares nothing with the others during an epoch: no failure memory, no
//! proofs passed between plans or between runs. The barrier only decides
//! the race and polls the execution budget. A portfolio of one is
//! therefore the sequential search bit for bit.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mcs_cdfg::{Cdfg, OpId, PartitionId, PortMode};
use mcs_ctl::Termination;
use mcs_metrics::{Histogram, MetricsHandle};

use crate::model::Interconnect;
use crate::search::{
    apply_move, candidate_moves, future_feasible, share_pass, total_pins, ConnectError,
    GroupWindows, IoOp, Move, SearchConfig, State,
};

/// The order in which I/O operations are fed to the branching search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOrder {
    /// Descending bit width, pin-scarce partitions first on ties (the
    /// classic Figure 4.3 order).
    WidthDesc,
    /// Ascending bit width: small transfers seed the structure, wide ones
    /// arrive when pressure is visible.
    WidthAsc,
    /// Grouped by (source, sink) partition pair, heaviest pair first:
    /// each pair's transfers are assigned back to back, so their bus
    /// fills before the next pair can be tempted to merge onto it.
    PairGrouped,
    /// Grouped by communicated value, widest value first: same-value
    /// transfers meet immediately and share a slot.
    ValueGrouped,
}

impl OpOrder {
    fn describe(self) -> &'static str {
        match self {
            OpOrder::WidthDesc => "width-desc",
            OpOrder::WidthAsc => "width-asc",
            OpOrder::PairGrouped => "pair-grouped",
            OpOrder::ValueGrouped => "value-grouped",
        }
    }
}

/// The order in which a node's candidate moves are explored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateOrder {
    /// Best gain first, fresh bus last (the classic order).
    GainDesc,
    /// A fresh bus first, then best gain first: distrust the gain
    /// function's merging appetite.
    FreshFirst,
    /// Best gain first with equal-gain ties broken toward *newer* buses.
    GainDescBusRev,
}

impl CandidateOrder {
    fn describe(self) -> &'static str {
        match self {
            CandidateOrder::GainDesc => "gain-desc",
            CandidateOrder::FreshFirst => "fresh-first",
            CandidateOrder::GainDescBusRev => "gain-desc-busrev",
        }
    }
}

/// One diversified configuration in the portfolio.
#[derive(Clone, Debug)]
pub struct WorkerPlan {
    /// Portfolio index (the final tie-breaker).
    pub index: usize,
    /// Candidates explored per node.
    pub branching_factor: usize,
    /// Operation order.
    pub order: OpOrder,
    /// Candidate order within a node.
    pub candidates: CandidateOrder,
    /// Node budget for this worker.
    pub node_budget: usize,
}

impl WorkerPlan {
    fn describe(&self) -> String {
        format!(
            "bf={} ops={} cand={} budget={}",
            self.branching_factor,
            self.order.describe(),
            self.candidates.describe(),
            self.node_budget
        )
    }
}

/// Derives the diversified portfolio from a base configuration. Plan 0 is
/// always the classic search (base branching factor, width-descending
/// order, gain-descending candidates, full node budget); the others cycle
/// through a menu of disagreements and run on budget slices so a large
/// portfolio does not multiply the worst-case work.
pub fn portfolio_plans(cfg: &SearchConfig) -> Vec<WorkerPlan> {
    let p = cfg.portfolio.unwrap_or(cfg.workers).max(1);
    let bf = cfg.branching_factor.max(1);
    let slice = (cfg.node_budget / 2).clamp(1, cfg.node_budget.max(1));
    let menu: [(usize, OpOrder, CandidateOrder); 8] = [
        (bf, OpOrder::WidthDesc, CandidateOrder::GainDesc),
        (1, OpOrder::PairGrouped, CandidateOrder::GainDesc),
        (bf, OpOrder::PairGrouped, CandidateOrder::GainDesc),
        (1, OpOrder::WidthDesc, CandidateOrder::FreshFirst),
        (bf, OpOrder::ValueGrouped, CandidateOrder::GainDesc),
        (bf + 1, OpOrder::WidthDesc, CandidateOrder::GainDescBusRev),
        (1, OpOrder::WidthAsc, CandidateOrder::GainDesc),
        (bf.max(2), OpOrder::PairGrouped, CandidateOrder::FreshFirst),
    ];
    (0..p)
        .map(|i| {
            let (b, order, candidates) = menu[i % menu.len()];
            WorkerPlan {
                index: i,
                // Past one menu cycle, widen the branching factor so
                // bigger portfolios keep gaining coverage.
                branching_factor: b + i / menu.len(),
                order,
                candidates,
                node_budget: if i == 0 { cfg.node_budget } else { slice },
            }
        })
        .collect()
}

/// Sorts the I/O operations of `cdfg` according to `order`. Every key
/// ends in the operation id, so each order is a total order and identical
/// across runs.
pub(crate) fn ordered_ops(cdfg: &Cdfg, order: OpOrder) -> Vec<OpId> {
    let mut ops: Vec<OpId> = cdfg.io_ops().collect();
    let scarcity = |op: OpId| {
        let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
        cdfg.partition(from)
            .total_pins
            .min(cdfg.partition(to).total_pins)
    };
    match order {
        OpOrder::WidthDesc => {
            ops.sort_by_key(|&op| (std::cmp::Reverse(cdfg.io_bits(op)), scarcity(op), op));
        }
        OpOrder::WidthAsc => {
            ops.sort_by_key(|&op| (cdfg.io_bits(op), scarcity(op), op));
        }
        OpOrder::PairGrouped => {
            let mut pair_bits: BTreeMap<(PartitionId, PartitionId), u64> = BTreeMap::new();
            for &op in &ops {
                let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
                *pair_bits.entry((from, to)).or_insert(0) += cdfg.io_bits(op) as u64;
            }
            ops.sort_by_key(|&op| {
                let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
                let pair = (from, to);
                (
                    std::cmp::Reverse(pair_bits[&pair]),
                    pair,
                    std::cmp::Reverse(cdfg.io_bits(op)),
                    op,
                )
            });
        }
        OpOrder::ValueGrouped => {
            ops.sort_by_key(|&op| {
                let (value, _, _) = cdfg.op(op).io_endpoints().expect("io op");
                (
                    std::cmp::Reverse(cdfg.value(value).bits),
                    value,
                    std::cmp::Reverse(cdfg.io_bits(op)),
                    op,
                )
            });
        }
    }
    ops
}

/// Where a worker ended up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Found a connection (possibly outvoted by a cheaper one).
    Succeeded,
    /// Ran out of node budget.
    Exhausted,
    /// Proved its (truncated) subspace empty.
    Failed,
    /// Still running when the portfolio stopped at a barrier.
    Cancelled,
    /// Panicked during an epoch and was quarantined; the rest of the
    /// portfolio kept racing without it.
    Panicked,
}

impl std::fmt::Display for WorkerOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkerOutcome::Succeeded => "succeeded",
            WorkerOutcome::Exhausted => "exhausted",
            WorkerOutcome::Failed => "failed",
            WorkerOutcome::Cancelled => "cancelled",
            WorkerOutcome::Panicked => "panicked",
        };
        write!(f, "{s}")
    }
}

/// Telemetry for one portfolio worker.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Portfolio index.
    pub index: usize,
    /// Human-readable plan description.
    pub config: String,
    /// Final status.
    pub outcome: WorkerOutcome,
    /// Nodes expanded.
    pub nodes: u64,
    /// Candidates cut by the dead-end test before expansion.
    pub prunes: u64,
    /// Nodes popped after exhausting their candidates.
    pub backtracks: u64,
    /// Time this worker spent expanding, summed over epochs.
    pub wall: Duration,
    /// `(buses, total pins)` of the worker's connection, when it found
    /// one.
    pub cost: Option<(u32, u32)>,
    /// Deepest search depth reached: how many I/O operations the
    /// worker's best partial connection had assigned. Equal to the
    /// design's I/O count when the worker succeeded.
    pub deepest: u64,
    /// Bus count of that deepest partial structure — the "best so far"
    /// an interrupted run can report.
    pub deepest_buses: u32,
}

/// Telemetry for a whole portfolio run.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Per-worker reports, in portfolio order.
    pub workers: Vec<WorkerReport>,
    /// Portfolio index of the worker whose connection was returned.
    pub winner: Option<usize>,
    /// Synchronization epochs executed.
    pub epochs: usize,
    /// Threads used to expand the portfolio.
    pub threads: usize,
    /// Total nodes expanded across workers.
    pub nodes: u64,
    /// Total dead-end prunes.
    pub prunes: u64,
    /// Total backtracks.
    pub backtracks: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// How the run ended. [`Termination::Complete`] for a natural end
    /// (success or exhaustion), [`Termination::WorkerPanicked`] when a
    /// quarantined panic degraded the portfolio, and an interruption
    /// verdict when the configured budget tripped at a barrier.
    pub termination: Termination,
    /// Deepest search depth any worker reached (I/O operations assigned
    /// on its best partial path) — the anytime progress measure of an
    /// interrupted run.
    pub deepest: u64,
    /// Bus count of that deepest partial connection structure.
    pub deepest_buses: u32,
}

impl SearchStats {
    /// Aggregate expansion rate over the run's wall time.
    pub fn nodes_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.nodes as f64 / secs
        } else {
            0.0
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkerStatus {
    Running,
    Succeeded,
    Exhausted,
    Failed,
    Panicked,
}

/// One suspended node of the iterative backtracking search. Its
/// candidates live in the worker's move buffer for the frame's depth.
struct Frame {
    /// Trail mark at node entry: trying the next candidate and
    /// backtracking both undo the state back to it.
    mark: usize,
    /// Index of the next candidate to try.
    next: usize,
}

/// A resumable worker: the recursive search of Figure 4.3 unrolled onto
/// an explicit stack so it can pause at epoch boundaries. It expands,
/// prunes and backtracks in exactly the order of the sequential
/// implementation — including the "give up once the budget hits zero
/// mid-backtrack" rule — so a portfolio of one is bit-for-bit the classic
/// search.
struct Worker<'a> {
    cdfg: &'a Cdfg,
    rate: u32,
    allow_split: bool,
    plan: WorkerPlan,
    /// The I/O operations in this plan's order; depth `d` assigns
    /// `io[d]`.
    io: Vec<IoOp>,
    /// The design's feedback windows at this rate, shared by the
    /// portfolio.
    windows: &'a GroupWindows,
    state: State,
    stack: Vec<Frame>,
    /// Candidate moves of the frame at each depth, reused across nodes.
    moves: Vec<Vec<Move>>,
    budget_left: usize,
    /// Next step enters a fresh node at depth `stack.len()`.
    entering: bool,
    /// A child just failed; the classic search aborts here when the
    /// budget is spent instead of trying further siblings.
    resuming: bool,
    status: WorkerStatus,
    nodes: u64,
    prunes: u64,
    backtracks: u64,
    result: Option<(Interconnect, (u32, u32))>,
    wall: Duration,
    /// Deepest depth entered and the bus count of the state there — the
    /// worker's best partial connection, reported when a budget stops
    /// the run before anyone finishes.
    deepest: usize,
    deepest_buses: u32,
    /// Metrics clock for epoch timing (reads 0 when disconnected, so a
    /// manual-clock registry keeps the histogram deterministic).
    metrics: MetricsHandle,
    /// `connect.epoch_us`: one observation per live epoch this worker
    /// expanded, on the registry clock.
    m_epoch_us: Histogram,
    /// Test builds only: the state at each frame's entry, which undoing
    /// the trail must give back exactly, and the tally of that check.
    #[cfg(test)]
    snapshots: Vec<State>,
    #[cfg(test)]
    restores: u64,
    #[cfg(test)]
    mismatches: u64,
}

impl<'a> Worker<'a> {
    fn new(
        cdfg: &'a Cdfg,
        mode: PortMode,
        cfg: &SearchConfig,
        windows: &'a GroupWindows,
        plan: WorkerPlan,
    ) -> Self {
        let io: Vec<IoOp> = ordered_ops(cdfg, plan.order)
            .into_iter()
            .map(|op| IoOp::of(cdfg, op))
            .collect();
        let state = State::new(cdfg, mode, &io);
        Worker {
            cdfg,
            rate: cfg.rate,
            allow_split: cfg.allow_split,
            budget_left: plan.node_budget,
            plan,
            windows,
            io,
            state,
            stack: Vec::new(),
            moves: Vec::new(),
            entering: true,
            resuming: false,
            status: WorkerStatus::Running,
            nodes: 0,
            prunes: 0,
            backtracks: 0,
            result: None,
            wall: Duration::ZERO,
            deepest: 0,
            deepest_buses: 0,
            metrics: cfg.metrics.clone(),
            m_epoch_us: cfg.metrics.histogram("connect.epoch_us"),
            #[cfg(test)]
            snapshots: Vec::new(),
            #[cfg(test)]
            restores: 0,
            #[cfg(test)]
            mismatches: 0,
        }
    }

    fn running(&self) -> bool {
        self.status == WorkerStatus::Running
    }

    /// Expands up to `max_nodes` nodes, then pauses.
    fn run_epoch(&mut self, max_nodes: usize) {
        if !self.running() {
            return;
        }
        // Fault-injection site (debug builds only): the test suite arms
        // a single worker's site to prove a panicking worker degrades to
        // `WorkerOutcome::Panicked` instead of aborting the run.
        mcs_ctl::faultpoint!(&format!("portfolio::worker::{}", self.plan.index));
        let t0 = Instant::now();
        let m_t0 = self.metrics.now_us();
        let mut expanded = 0usize;
        while expanded < max_nodes && self.running() {
            if self.entering {
                self.enter_node(&mut expanded);
            } else {
                self.advance();
            }
        }
        self.wall += t0.elapsed();
        self.m_epoch_us
            .observe(self.metrics.now_us().saturating_sub(m_t0));
    }

    fn enter_node(&mut self, expanded: &mut usize) {
        let depth = self.stack.len();
        if depth > self.deepest {
            self.deepest = depth;
            self.deepest_buses = self.state.bus_count() as u32;
        }
        if depth == self.io.len() {
            let mut ic = self.state.to_interconnect(&self.io);
            if self.allow_split {
                share_pass(self.cdfg, &mut ic, self.rate);
            }
            let cost = (ic.buses.len() as u32, total_pins(self.cdfg, &ic));
            self.result = Some((ic, cost));
            self.status = WorkerStatus::Succeeded;
            return;
        }
        if self.budget_left == 0 {
            self.status = WorkerStatus::Exhausted;
            return;
        }
        self.budget_left -= 1;
        *expanded += 1;
        self.nodes += 1;
        if self.moves.len() == depth {
            self.moves.push(Vec::new());
        }
        candidate_moves(
            &self.state,
            self.windows,
            self.plan.branching_factor,
            self.plan.candidates,
            &self.io[depth],
            &mut self.moves[depth],
        );
        self.stack.push(Frame {
            mark: self.state.mark(),
            next: 0,
        });
        #[cfg(test)]
        self.snapshots.push(self.state.clone());
        self.entering = false;
    }

    /// Undoes the trail back to the top frame's entry state.
    fn restore_top(&mut self) {
        let mark = self.stack.last().expect("non-empty stack").mark;
        self.state.undo_to(mark);
        #[cfg(test)]
        {
            self.restores += 1;
            if self.snapshots.last() != Some(&self.state) {
                self.mismatches += 1;
            }
        }
    }

    /// Resumes the top frame: try its next candidate, or pop it as an
    /// exhaustive failure. Running out of budget terminates the whole
    /// worker rather than unwinding.
    fn advance(&mut self) {
        let depth = self.stack.len();
        if depth == 0 {
            self.status = WorkerStatus::Failed;
            return;
        }
        if self.resuming {
            self.resuming = false;
            if self.budget_left == 0 {
                self.status = WorkerStatus::Exhausted;
                return;
            }
        }
        loop {
            let frame = self.stack.last_mut().expect("non-empty stack");
            let Some(&mv) = self.moves[depth - 1].get(frame.next) else {
                break;
            };
            frame.next += 1;
            self.restore_top();
            apply_move(&mut self.state, &self.io[depth - 1], mv.bus);
            if future_feasible(&self.state, &self.io[depth..]) {
                self.entering = true;
                return;
            }
            self.prunes += 1;
            if self.budget_left == 0 {
                self.status = WorkerStatus::Exhausted;
                return;
            }
        }
        self.restore_top();
        self.stack.pop();
        #[cfg(test)]
        self.snapshots.pop();
        self.backtracks += 1;
        if self.stack.is_empty() {
            self.status = WorkerStatus::Failed;
        } else {
            self.resuming = true;
        }
    }

    fn report(&self, cancelled: bool) -> WorkerReport {
        let outcome = match self.status {
            WorkerStatus::Running => {
                debug_assert!(cancelled);
                WorkerOutcome::Cancelled
            }
            WorkerStatus::Succeeded => WorkerOutcome::Succeeded,
            WorkerStatus::Exhausted => WorkerOutcome::Exhausted,
            WorkerStatus::Failed => WorkerOutcome::Failed,
            WorkerStatus::Panicked => WorkerOutcome::Panicked,
        };
        WorkerReport {
            index: self.plan.index,
            config: self.plan.describe(),
            outcome,
            nodes: self.nodes,
            prunes: self.prunes,
            backtracks: self.backtracks,
            wall: self.wall,
            cost: self.result.as_ref().map(|(_, c)| *c),
            deepest: self.deepest as u64,
            deepest_buses: self.deepest_buses,
        }
    }
}

/// Runs one worker's epoch with panic isolation: a panic anywhere in
/// the expansion (including an injected fault) quarantines the worker
/// instead of unwinding across the thread scope and aborting the whole
/// portfolio. The worker's state is untrusted after a panic, so it never
/// runs again.
fn run_epoch_isolated(w: &mut Worker<'_>, epoch_nodes: usize) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        w.run_epoch(epoch_nodes);
    }));
    if outcome.is_err() {
        w.status = WorkerStatus::Panicked;
    }
}

/// Runs the portfolio search and returns both the connection (or the
/// error) and the full telemetry. [`crate::synthesize`] is this with the
/// stats discarded.
pub fn synthesize_with_stats(
    cdfg: &Cdfg,
    mode: PortMode,
    cfg: &SearchConfig,
) -> (Result<Interconnect, ConnectError>, SearchStats) {
    let t0 = Instant::now();
    if cfg.rate == 0 {
        return (Err(ConnectError::ZeroRate), SearchStats::default());
    }
    let plans = portfolio_plans(cfg);
    let windows = GroupWindows::new(cdfg, cfg.rate);
    let threads = cfg.workers.clamp(1, plans.len());
    let epoch_nodes = cfg.epoch_nodes.max(1);
    let mut workers: Vec<Worker<'_>> = plans
        .into_iter()
        .map(|plan| Worker::new(cdfg, mode, cfg, &windows, plan))
        .collect();

    // Counter snapshots for per-epoch `SearchNode` deltas; events are
    // recorded only at barriers, in portfolio order, from this thread —
    // the stream is a pure function of the portfolio, like the result.
    let rec_on = cfg.metrics.tracing();
    let mut recorded: Vec<(u64, u64, u64)> = vec![(0, 0, 0); workers.len()];

    let mut epochs = 0usize;
    // Nodes already charged to the budget, and which workers' panics
    // have been surfaced (each panic is reported exactly once, at the
    // barrier of the epoch it happened in).
    let mut nodes_charged = 0u64;
    let mut panic_reported = vec![false; workers.len()];
    let mut interruption: Option<Termination> = None;
    loop {
        epochs += 1;
        if threads == 1 {
            for w in &mut workers {
                run_epoch_isolated(w, epoch_nodes);
            }
        } else {
            let chunk = workers.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for group in workers.chunks_mut(chunk) {
                    scope.spawn(|| {
                        for w in group {
                            run_epoch_isolated(w, epoch_nodes);
                        }
                    });
                }
            });
        }
        if rec_on {
            for (i, w) in workers.iter().enumerate() {
                let cur = (w.nodes, w.prunes, w.backtracks);
                let prev = recorded[i];
                if cur != prev {
                    cfg.metrics.record(mcs_obs::Event::SearchNode {
                        worker: w.plan.index as u32,
                        epoch: epochs as u32,
                        nodes: cur.0 - prev.0,
                        prunes: cur.1 - prev.1,
                        backtracks: cur.2 - prev.2,
                    });
                    recorded[i] = cur;
                }
            }
        }
        // Surface freshly quarantined panics, in portfolio order.
        for (i, w) in workers.iter().enumerate() {
            if w.status == WorkerStatus::Panicked && !panic_reported[i] {
                panic_reported[i] = true;
                cfg.metrics.record(mcs_obs::Event::WorkerPanic {
                    pool: "portfolio",
                    worker: w.plan.index as u32,
                    epoch: epochs as u32,
                });
            }
        }
        let any_success = workers.iter().any(|w| w.status == WorkerStatus::Succeeded);
        let all_terminal = workers.iter().all(|w| !w.running());
        // The budget is charged and polled only here, at the barrier, so
        // count-ceiling interruption points are a function of the
        // portfolio alone, never of the thread count. A run that ends
        // naturally in the same epoch its budget trips reports the
        // natural verdict: finishing exactly at the ceiling is a finish.
        if any_success || all_terminal {
            break;
        }
        if let Some(budget) = &cfg.budget {
            let total: u64 = workers.iter().map(|w| w.nodes).sum();
            budget.charge_nodes(total - nodes_charged);
            nodes_charged = total;
            if budget.check().is_some() {
                interruption = Some(budget.termination());
                break;
            }
        }
    }

    // Deterministic winner: fewest buses, then fewest pins, then lowest
    // portfolio index.
    let winner = workers
        .iter()
        .filter_map(|w| w.result.as_ref().map(|(_, cost)| (*cost, w.plan.index)))
        .min()
        .map(|(_, index)| index);
    let termination = match interruption {
        Some(t) => t,
        None if workers.iter().any(|w| w.status == WorkerStatus::Panicked) => {
            Termination::WorkerPanicked
        }
        None => Termination::Complete,
    };
    // Anytime progress: the deepest partial any worker reached; ties
    // break to the cheaper structure.
    let (std::cmp::Reverse(deepest), deepest_buses) = workers
        .iter()
        .map(|w| (std::cmp::Reverse(w.deepest as u64), w.deepest_buses))
        .min()
        .unwrap_or((std::cmp::Reverse(0), 0));
    let stats = SearchStats {
        workers: workers.iter().map(|w| w.report(w.running())).collect(),
        winner,
        epochs,
        threads,
        nodes: workers.iter().map(|w| w.nodes).sum(),
        prunes: workers.iter().map(|w| w.prunes).sum(),
        backtracks: workers.iter().map(|w| w.backtracks).sum(),
        wall: t0.elapsed(),
        termination,
        deepest,
        deepest_buses,
    };
    if cfg.metrics.enabled() {
        cfg.metrics.add("connect.nodes", stats.nodes);
    }
    let result = match winner {
        Some(index) => {
            let w = workers
                .into_iter()
                .find(|w| w.plan.index == index)
                .expect("winner present");
            Ok(w.result.expect("winner has result").0)
        }
        None => match interruption {
            Some(t) => Err(ConnectError::Interrupted(t)),
            None => Err(ConnectError::NoConnectionFound),
        },
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::{ar_filter, elliptic};

    #[test]
    fn single_worker_matches_portfolio_of_one() {
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let cfg = SearchConfig::new(3);
        let (a, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.winner, Some(0));
        assert!(stats.nodes > 0);
        let b = crate::synthesize(d.cdfg(), PortMode::Unidirectional, &cfg).unwrap();
        assert_eq!(a.unwrap(), b);
    }

    #[test]
    fn portfolio_result_is_independent_of_thread_count() {
        let d = elliptic::partitioned();
        let base = SearchConfig::new(6).with_portfolio(4);
        let reference = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &base)
            .0
            .unwrap();
        for workers in [1usize, 2, 3, 8] {
            let cfg = base.clone().with_workers(workers);
            let (got, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
            assert_eq!(got.unwrap(), reference, "workers={workers}");
            assert_eq!(stats.threads, workers.min(4), "workers={workers}");
        }
    }

    #[test]
    fn winner_ties_break_to_lowest_index() {
        // All plans on a tiny design find the same cheap structure in
        // epoch 1; the tie must resolve to the lowest portfolio index
        // among the cheapest results.
        let d = mcs_cdfg::designs::synthetic::quickstart();
        let cfg = SearchConfig::new(1).with_portfolio(8);
        let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        let ic = ic.unwrap();
        assert!(ic.verify(d.cdfg()).is_empty());
        let winner = stats.winner.expect("a winner");
        let min_cost = stats
            .workers
            .iter()
            .filter_map(|w| w.cost)
            .min()
            .expect("successes");
        let expected = stats
            .workers
            .iter()
            .filter(|w| w.cost == Some(min_cost))
            .map(|w| w.index)
            .min()
            .unwrap();
        assert_eq!(winner, expected);
    }

    #[test]
    fn search_events_are_deterministic_across_threads() {
        use mcs_obs::{BufferingRecorder, RecorderHandle};
        use std::sync::Arc;
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let run = |workers: usize| {
            let buf = Arc::new(BufferingRecorder::new());
            let cfg = SearchConfig::new(3)
                .with_portfolio(4)
                .with_workers(workers)
                .with_metrics(
                    MetricsHandle::default().with_events(&RecorderHandle::new(buf.clone())),
                );
            let _ = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
            buf.events()
        };
        let reference = run(1);
        assert!(
            !reference.is_empty(),
            "the search must emit SearchNode events"
        );
        for workers in [2usize, 8] {
            assert_eq!(run(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn ordered_ops_are_permutations_of_io_ops() {
        let d = elliptic::partitioned();
        let mut reference: Vec<OpId> = d.cdfg().io_ops().collect();
        reference.sort();
        for order in [
            OpOrder::WidthDesc,
            OpOrder::WidthAsc,
            OpOrder::PairGrouped,
            OpOrder::ValueGrouped,
        ] {
            let mut ops = ordered_ops(d.cdfg(), order);
            ops.sort();
            assert_eq!(ops, reference, "{order:?}");
        }
    }

    #[test]
    fn tripped_budget_interrupts_at_a_barrier_with_partial_progress() {
        use mcs_ctl::{Budget, BudgetSpec};
        let d = mcs_cdfg::designs::synthetic::portfolio_adversarial(6);
        let mut cfg = SearchConfig::new(2)
            .with_portfolio(4)
            .with_budget(Budget::new(BudgetSpec::default().max_nodes(1)));
        // Barriers must arrive before any worker can finish (a success
        // at the barrier would rightly outrank the ceiling).
        cfg.epoch_nodes = 16;
        let (result, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        assert_eq!(
            result.unwrap_err(),
            ConnectError::Interrupted(Termination::BudgetExhausted)
        );
        assert_eq!(stats.termination, Termination::BudgetExhausted);
        // The anytime partial: some operations were assigned before the
        // first barrier, onto at least one bus.
        assert!(stats.deepest > 0);
        assert!(stats.deepest <= d.cdfg().io_ops().count() as u64);
        assert!(stats.deepest_buses > 0);
    }

    #[test]
    fn cancellation_is_observed_at_the_next_barrier() {
        use mcs_ctl::Budget;
        let d = mcs_cdfg::designs::synthetic::portfolio_adversarial(6);
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let mut cfg = SearchConfig::new(2).with_portfolio(4).with_budget(budget);
        // No worker can finish 30+ operations in an 8-node epoch, so the
        // first barrier observes the cancellation.
        cfg.epoch_nodes = 8;
        let (result, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        assert_eq!(
            result.unwrap_err(),
            ConnectError::Interrupted(Termination::Cancelled)
        );
        assert_eq!(stats.epochs, 1, "cancellation lands at the first barrier");
    }

    #[test]
    fn budget_interruption_point_is_independent_of_thread_count() {
        use mcs_ctl::{Budget, BudgetSpec};
        let d = mcs_cdfg::designs::synthetic::portfolio_adversarial(6);
        let run = |workers: usize| {
            let mut cfg = SearchConfig::new(2)
                .with_portfolio(4)
                .with_workers(workers)
                .with_budget(Budget::new(BudgetSpec::default().max_nodes(300)));
            cfg.epoch_nodes = 32;
            let (result, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
            (result, stats.epochs, stats.nodes, stats.deepest)
        };
        let reference = run(1);
        for workers in [2usize, 4] {
            assert_eq!(run(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn natural_finish_in_the_tripping_epoch_still_completes() {
        use mcs_ctl::{Budget, BudgetSpec};
        // The whole search finishes inside epoch 1; a node ceiling of 1
        // would trip at the barrier, but success is checked first, so
        // the run reports its natural verdict.
        let d = mcs_cdfg::designs::synthetic::quickstart();
        let cfg = SearchConfig::new(1)
            .with_portfolio(2)
            .with_budget(Budget::new(BudgetSpec::default().max_nodes(1)));
        let (result, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        assert!(result.is_ok());
        assert_eq!(stats.termination, Termination::Complete);
    }

    #[test]
    fn metrics_record_epochs_and_nodes() {
        use mcs_metrics::Registry;
        use std::sync::Arc;
        let d = mcs_cdfg::designs::synthetic::portfolio_adversarial(6);
        let reg = Arc::new(Registry::new());
        let cfg = SearchConfig::new(2)
            .with_portfolio(4)
            .with_metrics(MetricsHandle::new(reg.clone()));
        let (result, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        assert!(result.is_ok());
        let snap = reg.snapshot();
        assert_eq!(snap.counters["connect.nodes"], stats.nodes);
        // One epoch-timing observation per live (worker, epoch) pair:
        // at least one per epoch, at most workers-per-epoch.
        let h = &snap.histograms["connect.epoch_us"];
        assert!(h.count >= stats.epochs as u64);
        assert!(h.count <= (stats.epochs * stats.workers.len()) as u64);
    }

    /// Workers share nothing: each worker of a portfolio run expands
    /// exactly the nodes its plan expands alone over the same number of
    /// epochs, and ends the same way. Covered: a race that a worker wins
    /// (so the others are cancelled at the barrier) and one in which
    /// every plan fails.
    #[test]
    fn each_worker_runs_its_plan_as_if_alone() {
        use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
        let cases = [
            (
                mcs_cdfg::designs::synthetic::portfolio_adversarial(6),
                PortMode::Unidirectional,
                3,
            ),
            (
                design_from_seed(&FuzzConfig::default(), 198),
                PortMode::Bidirectional,
                2,
            ),
        ];
        let mut failed_runs = 0;
        for (d, mode, rate) in cases {
            let cfg = SearchConfig::new(rate).with_portfolio(8);
            let (result, stats) = synthesize_with_stats(d.cdfg(), mode, &cfg);
            failed_runs += usize::from(matches!(result, Err(ConnectError::NoConnectionFound)));
            let windows = GroupWindows::new(d.cdfg(), cfg.rate);
            let plans = portfolio_plans(&cfg);
            assert_eq!(plans.len(), stats.workers.len());
            for (plan, raced) in plans.into_iter().zip(&stats.workers) {
                let mut lone = Worker::new(d.cdfg(), mode, &cfg, &windows, plan);
                for _ in 0..stats.epochs {
                    lone.run_epoch(cfg.epoch_nodes);
                }
                let alone = lone.report(lone.running());
                let facts = |r: &WorkerReport| {
                    (
                        r.outcome,
                        r.nodes,
                        r.prunes,
                        r.backtracks,
                        r.cost,
                        r.deepest,
                        r.deepest_buses,
                    )
                };
                assert_eq!(
                    facts(&alone),
                    facts(raced),
                    "L{rate}, worker {}",
                    raced.index
                );
            }
        }
        assert_eq!(failed_runs, 1, "one case must fail in every plan");
    }

    /// Runs a portfolio single-threaded to its end, barrier by barrier,
    /// and returns the trail restores checked against the frame-entry
    /// snapshots and how many of them differed.
    fn run_checked(cdfg: &Cdfg, mode: PortMode, cfg: &SearchConfig) -> (u64, u64) {
        let windows = GroupWindows::new(cdfg, cfg.rate);
        let mut workers: Vec<Worker<'_>> = portfolio_plans(cfg)
            .into_iter()
            .map(|plan| Worker::new(cdfg, mode, cfg, &windows, plan))
            .collect();
        while workers.iter().any(Worker::running)
            && !workers.iter().any(|w| w.status == WorkerStatus::Succeeded)
        {
            for w in &mut workers {
                w.run_epoch(cfg.epoch_nodes);
            }
        }
        workers
            .iter()
            .fold((0, 0), |(r, m), w| (r + w.restores, m + w.mismatches))
    }

    /// The trail-vs-clone differential: over the fuzz corpus, every
    /// sibling restore and every backtrack must undo the trail to exactly
    /// the state a clone taken at frame entry holds.
    #[test]
    fn trail_undo_matches_frame_snapshots_over_the_fuzz_corpus() {
        use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
        let config = FuzzConfig::default();
        let (mut restores, mut mismatches) = (0u64, 0u64);
        for seed in 0..200 {
            let d = design_from_seed(&config, seed);
            for rate in [2u32, 3, 4] {
                for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
                    let mut cfg = SearchConfig::new(rate).with_portfolio(2);
                    cfg.node_budget = 2_000;
                    let (r, m) = run_checked(d.cdfg(), mode, &cfg);
                    restores += r;
                    mismatches += m;
                }
            }
        }
        assert!(restores > 10_000, "only {restores} restores checked");
        assert_eq!(
            mismatches, 0,
            "{mismatches} of {restores} restores differed"
        );
    }
}
