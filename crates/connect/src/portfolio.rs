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
//!   fewest total pins, then lowest portfolio index;
//! * the shared pruning cache is written only at barriers, merged in
//!   portfolio-index order, so every cache read during an epoch sees the
//!   same frozen snapshot no matter how threads are scheduled.
//!
//! The cache stores *exhaustively failed* search states: a worker that
//! pops a node after trying every candidate publishes the state's
//! signature (depth plus the exact bus/value structure). Another worker
//! may prune a node on a signature hit only when the proving worker
//! explored a superset of its own candidate set — same operation order,
//! same candidate order, and a branching factor at least as large
//! (truncated top-`k` candidate lists are prefixes of top-`k'` lists for
//! `k <= k'`). A portfolio of one disables the cache entirely, so the
//! default configuration reproduces the sequential search bit for bit.
//!
//! Failure proofs survive a run as [`RefutationCert`]s:
//! [`synthesize_seeded`] returns the proofs learned during the run (in
//! barrier order, so the list is deterministic) and accepts proofs from
//! an earlier run to pre-populate the cache. The caller owns the
//! soundness argument for reuse: a cert transfers only to a search of
//! the same design, rate and port mode whose pin budgets are no looser
//! than the proving run's (a connection valid under the tighter budgets
//! would have been valid under the looser ones, contradicting the
//! exhaustive failure).

use std::collections::{BTreeMap, HashMap};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use mcs_cdfg::{Cdfg, OpId, PartitionId, PortMode};
use mcs_codec::fnv::fnv1a;
use mcs_ctl::Termination;
use mcs_metrics::{Histogram, MetricsHandle};
use mcs_pinalloc::PinChecker;

use crate::model::Interconnect;
use crate::search::{
    apply_move, candidate_moves, future_feasible, initial_state, share_pass, total_pins,
    ConnectError, Move, SearchConfig, State,
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
    /// Ranked by pin-feasibility pressure: one batched probe pass of the
    /// Chapter 3 checker over every (operation, step group) pair, most
    /// constrained operation (fewest feasible groups) first, width and
    /// scarcity breaking ties. Deterministic for a fixed design and
    /// rate; falls back to [`OpOrder::WidthDesc`] keys when the design
    /// has no admissible pin budget at all. Only offered when
    /// [`SearchConfig::probe_seed_plans`] opts in.
    ProbeSeeded,
}

impl OpOrder {
    fn describe(self) -> &'static str {
        match self {
            OpOrder::WidthDesc => "width-desc",
            OpOrder::WidthAsc => "width-asc",
            OpOrder::PairGrouped => "pair-grouped",
            OpOrder::ValueGrouped => "value-grouped",
            OpOrder::ProbeSeeded => "probe-seeded",
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
            let (b, mut order, candidates) = menu[i % menu.len()];
            // Probe seeding swaps the first diversified slot for the
            // checker-ranked order; plan 0 stays the classic search.
            if cfg.probe_seed_plans && i % menu.len() == 1 {
                order = OpOrder::ProbeSeeded;
            }
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
/// across runs. `rate` matters only to [`OpOrder::ProbeSeeded`], whose
/// pressure ranking probes one candidate per step group.
pub(crate) fn ordered_ops(cdfg: &Cdfg, order: OpOrder, rate: u32) -> Vec<OpId> {
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
        OpOrder::ProbeSeeded => {
            // One shared-checkpoint batch over every (op, group) pair
            // against the empty commitment state. An operation with few
            // feasible groups is the scarcest resource: assign it first,
            // while the structure is still unconstrained.
            let mut feasible_groups: BTreeMap<OpId, u32> = BTreeMap::new();
            if let Ok(mut checker) = PinChecker::new(cdfg, rate) {
                let slate: Vec<(OpId, i64)> = ops
                    .iter()
                    .flat_map(|&op| (0..rate as i64).map(move |g| (op, g)))
                    .collect();
                for (&(op, _), ok) in slate.iter().zip(checker.probe_candidates(&slate)) {
                    *feasible_groups.entry(op).or_insert(0) += u32::from(ok);
                }
            }
            // No admissible budget (or rate 0): every count is absent and
            // the order degrades to the classic width-descending keys.
            ops.sort_by_key(|&op| {
                (
                    feasible_groups.get(&op).copied().unwrap_or(0),
                    std::cmp::Reverse(cdfg.io_bits(op)),
                    scarcity(op),
                    op,
                )
            });
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

/// Candidate-*set* family of a [`CandidateOrder`]. [`GainDesc`] and
/// [`FreshFirst`] produce the identical move set at every state — same
/// gain sort, same dedup, same truncation; only the fresh bus's position
/// differs — so exhaustive-failure proofs transfer between them.
/// [`GainDescBusRev`] breaks equal-gain ties the other way, which can
/// change *which* same-topology representative survives deduplication,
/// so it proves a different set.
///
/// [`GainDesc`]: CandidateOrder::GainDesc
/// [`FreshFirst`]: CandidateOrder::FreshFirst
/// [`GainDescBusRev`]: CandidateOrder::GainDescBusRev
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CandidateFamily {
    GainTieLow,
    GainTieHigh,
}

impl CandidateFamily {
    fn of(cand: CandidateOrder) -> Self {
        match cand {
            CandidateOrder::GainDesc | CandidateOrder::FreshFirst => CandidateFamily::GainTieLow,
            CandidateOrder::GainDescBusRev => CandidateFamily::GainTieHigh,
        }
    }
}

/// How strong a failure proof is: a cached entry prunes a reader only
/// when the prover explored a superset of the reader's candidate sets —
/// same operation order, same candidate-set family, and a branching
/// factor at least as large (top-`k` truncated sets are prefixes of
/// top-`k'` sets for `k <= k'`; exhaustive failure is order-independent
/// within a set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Strength {
    order: OpOrder,
    family: CandidateFamily,
    branching_factor: usize,
}

impl Strength {
    fn dominates(&self, reader: &Strength) -> bool {
        self.order == reader.order
            && self.family == reader.family
            && self.branching_factor >= reader.branching_factor
    }
}

/// A portable exhaustive-failure proof: a state signature plus the
/// strength of the plan that proved the subtree empty. Harvested from
/// [`synthesize_seeded`] and fed back into a later run on a problem
/// where the proof still holds (see the module docs for the transfer
/// rule the caller must uphold).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefutationCert {
    /// State signature: depth plus the exact bus/value structure.
    pub key: Vec<u8>,
    /// Operation order of the proving plan.
    pub order: OpOrder,
    /// `true` when the proving plan broke equal-gain ties toward newer
    /// buses ([`CandidateOrder::GainDescBusRev`]).
    pub tie_high: bool,
    /// Branching factor of the proving plan.
    pub branching_factor: usize,
}

impl RefutationCert {
    fn from_parts(key: Vec<u8>, strength: Strength) -> Self {
        RefutationCert {
            key,
            order: strength.order,
            tie_high: strength.family == CandidateFamily::GainTieHigh,
            branching_factor: strength.branching_factor,
        }
    }

    fn strength(&self) -> Strength {
        Strength {
            order: self.order,
            family: if self.tie_high {
                CandidateFamily::GainTieHigh
            } else {
                CandidateFamily::GainTieLow
            },
            branching_factor: self.branching_factor,
        }
    }
}

/// Upper bound on cached failure states; beyond it new proofs are
/// dropped (the cache is an optimization, never a correctness need).
const CACHE_CAP: usize = 1 << 16;

/// One resident failure proof: its strength plus whether it arrived as
/// a [`RefutationCert`] seed rather than from this run's own workers
/// (for seed-hit accounting).
#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    strength: Strength,
    seeded: bool,
}

/// Sharded map of exhaustively-failed state signatures. During an epoch
/// the cache is read-only; staged entries are merged at the barrier in
/// portfolio-index order, so its contents are deterministic.
pub(crate) struct SharedCache {
    shards: Vec<RwLock<HashMap<Vec<u8>, Vec<CacheEntry>>>>,
    enabled: bool,
    len: std::sync::atomic::AtomicUsize,
}

impl SharedCache {
    fn new(enabled: bool) -> Self {
        SharedCache {
            shards: (0..16).map(|_| RwLock::new(HashMap::new())).collect(),
            enabled,
            len: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        // Only shard selection depends on the hash.
        (fnv1a(key) % self.shards.len() as u64) as usize
    }

    /// `Some(from_seed)` when a dominating proof is resident: the flag
    /// says whether the (deterministically) first dominating entry was
    /// seeded from a prior run.
    fn proven(&self, key: &[u8], reader: &Strength) -> Option<bool> {
        if !self.enabled {
            return None;
        }
        let shard = self.shards[self.shard_of(key)].read().expect("cache lock");
        shard
            .get(key)?
            .iter()
            .find(|e| e.strength.dominates(reader))
            .map(|e| e.seeded)
    }

    /// Barrier-time merge; called from the orchestrator only. Returns
    /// the non-seeded entries actually adopted (not dominated by a
    /// resident proof, within the cap), in input order — the run's
    /// harvest of newly learned proofs.
    fn publish(&self, staged: Vec<(Vec<u8>, Strength)>, seeded: bool) -> Vec<(Vec<u8>, Strength)> {
        use std::sync::atomic::Ordering;
        let mut accepted = Vec::new();
        if !self.enabled {
            return accepted;
        }
        for (key, strength) in staged {
            if self.len.load(Ordering::Relaxed) >= CACHE_CAP {
                return accepted;
            }
            let mut shard = self.shards[self.shard_of(&key)]
                .write()
                .expect("cache lock");
            let entries = shard.entry(key.clone()).or_default();
            if entries.iter().any(|e| e.strength.dominates(&strength)) {
                continue;
            }
            entries.retain(|e| !strength.dominates(&e.strength));
            entries.push(CacheEntry { strength, seeded });
            self.len.fetch_add(1, Ordering::Relaxed);
            if !seeded {
                accepted.push((key, strength));
            }
        }
        accepted
    }

    fn entries(&self) -> usize {
        self.len.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A search state's identity for pruning: the depth (which, for a fixed
/// operation order, pins down the set of assigned operations) plus the
/// exact bus structure — widths, per-partition port widths, and the
/// values riding each bus with their sub-ranges. Everything the future
/// search can observe is derived from these, so two states with equal
/// signatures have identical subtrees under the same plan.
fn state_sig(state: &State, depth: usize) -> Vec<u8> {
    let mut sig = Vec::with_capacity(32 + state.buses.len() * 48);
    sig.extend_from_slice(&(depth as u32).to_le_bytes());
    for (bus, values) in state.buses.iter().zip(&state.bus_values) {
        sig.push(0xB5);
        sig.push(bus.sub_widths.len() as u8);
        for &w in &bus.sub_widths {
            sig.extend_from_slice(&w.to_le_bytes());
        }
        for ports in [&bus.out_ports, &bus.in_ports, &bus.bi_ports] {
            sig.push(ports.len() as u8);
            for (&p, &w) in ports {
                sig.extend_from_slice(&p.0.to_le_bytes());
                sig.extend_from_slice(&w.to_le_bytes());
            }
        }
        sig.push(values.len() as u8);
        for (&v, r) in values {
            sig.extend_from_slice(&v.0.to_le_bytes());
            sig.push(r.lo as u8);
            sig.push(r.hi as u8);
        }
    }
    sig
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
    /// Nodes pruned via the shared failure cache.
    pub cache_hits: u64,
    /// Cache hits answered by proofs seeded from an earlier run via
    /// [`synthesize_seeded`] (a subset of `cache_hits`).
    pub seed_hits: u64,
    /// Candidates cut by the dead-end test before expansion.
    pub prunes: u64,
    /// Nodes popped after exhausting their candidates.
    pub backtracks: u64,
    /// Failure proofs this worker staged for the shared cache.
    pub cache_published: u64,
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
    /// Total shared-cache prunes.
    pub cache_hits: u64,
    /// Cache prunes answered by seeded proofs (subset of `cache_hits`).
    pub seed_hits: u64,
    /// Failure proofs resident in the shared cache at the end.
    pub cache_entries: u64,
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

/// One suspended node of the iterative backtracking search.
struct Frame {
    /// State at node entry; candidate application and backtracking
    /// restore from it.
    saved: State,
    /// Signature to publish if the whole subtree fails (cache runs only).
    key: Option<Vec<u8>>,
    moves: Vec<Move>,
    next: usize,
}

/// A resumable worker: the recursive search of Figure 4.3 unrolled onto
/// an explicit stack so it can pause at epoch boundaries. With the cache
/// disabled it expands, prunes and backtracks in exactly the order of the
/// sequential implementation — including the "give up once the budget
/// hits zero mid-backtrack" rule — so a portfolio of one is bit-for-bit
/// the classic search.
struct Worker<'a> {
    cdfg: &'a Cdfg,
    mode: PortMode,
    rate: u32,
    allow_split: bool,
    plan: WorkerPlan,
    strength: Strength,
    cache_enabled: bool,
    ops: Vec<OpId>,
    state: State,
    stack: Vec<Frame>,
    budget_left: usize,
    /// Next step enters a fresh node at depth `stack.len()`.
    entering: bool,
    /// A child just failed; the classic search aborts here when the
    /// budget is spent instead of trying further siblings.
    resuming: bool,
    status: WorkerStatus,
    nodes: u64,
    cache_hits: u64,
    seed_hits: u64,
    prunes: u64,
    backtracks: u64,
    published: u64,
    staged: Vec<(Vec<u8>, Strength)>,
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
}

impl<'a> Worker<'a> {
    fn new(
        cdfg: &'a Cdfg,
        mode: PortMode,
        cfg: &SearchConfig,
        plan: WorkerPlan,
        cache_enabled: bool,
    ) -> Self {
        let ops = ordered_ops(cdfg, plan.order, cfg.rate);
        let state = initial_state(cdfg, cfg.rate, &ops);
        Worker {
            cdfg,
            mode,
            rate: cfg.rate,
            allow_split: cfg.allow_split,
            strength: Strength {
                order: plan.order,
                family: CandidateFamily::of(plan.candidates),
                branching_factor: plan.branching_factor,
            },
            budget_left: plan.node_budget,
            plan,
            cache_enabled,
            ops,
            state,
            stack: Vec::new(),
            entering: true,
            resuming: false,
            status: WorkerStatus::Running,
            nodes: 0,
            cache_hits: 0,
            seed_hits: 0,
            prunes: 0,
            backtracks: 0,
            published: 0,
            staged: Vec::new(),
            result: None,
            wall: Duration::ZERO,
            deepest: 0,
            deepest_buses: 0,
            metrics: cfg.metrics.clone(),
            m_epoch_us: cfg.metrics.histogram("connect.epoch_us"),
        }
    }

    fn running(&self) -> bool {
        self.status == WorkerStatus::Running
    }

    /// Expands up to `max_nodes` nodes, then pauses. Reads `cache` but
    /// never writes it; proofs accumulate in `staged` for the barrier.
    fn run_epoch(&mut self, max_nodes: usize, cache: &SharedCache) {
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
                self.enter_node(&mut expanded, cache);
            } else {
                self.advance();
            }
        }
        self.wall += t0.elapsed();
        self.m_epoch_us
            .observe(self.metrics.now_us().saturating_sub(m_t0));
    }

    fn enter_node(&mut self, expanded: &mut usize, cache: &SharedCache) {
        let depth = self.stack.len();
        if depth > self.deepest {
            self.deepest = depth;
            self.deepest_buses = self.state.buses.len() as u32;
        }
        if depth == self.ops.len() {
            let mut ic = Interconnect {
                mode: self.mode,
                buses: self.state.buses.clone(),
                assignment: self.state.assignment.clone(),
            };
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
        let key = if self.cache_enabled {
            Some(state_sig(&self.state, depth))
        } else {
            None
        };
        if let Some(k) = &key {
            if let Some(from_seed) = cache.proven(k, &self.strength) {
                // Another plan with at least our candidate sets proved
                // this exact structure a dead end.
                self.cache_hits += 1;
                if from_seed {
                    self.seed_hits += 1;
                }
                self.child_failed();
                return;
            }
        }
        let moves = candidate_moves(
            self.cdfg,
            self.mode,
            self.rate,
            self.plan.branching_factor,
            self.plan.candidates,
            &self.state,
            self.ops[depth],
        );
        self.stack.push(Frame {
            saved: self.state.clone(),
            key,
            moves,
            next: 0,
        });
        self.entering = false;
    }

    /// Resumes the top frame: try its next candidate, or pop it as an
    /// exhaustive failure. Every popped frame IS exhaustive — running out
    /// of budget terminates the whole worker rather than unwinding — so
    /// popping may always publish a failure proof.
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
        let op = self.ops[depth - 1];
        loop {
            let frame = self.stack.last_mut().expect("non-empty stack");
            if frame.next >= frame.moves.len() {
                break;
            }
            let mv = frame.moves[frame.next].clone();
            frame.next += 1;
            self.state = frame.saved.clone();
            apply_move(self.cdfg, self.mode, &mut self.state, op, &mv);
            if future_feasible(self.cdfg, self.mode, &self.state, &self.ops[depth..]) {
                self.entering = true;
                return;
            }
            self.prunes += 1;
            if self.budget_left == 0 {
                self.status = WorkerStatus::Exhausted;
                return;
            }
        }
        let frame = self.stack.pop().expect("non-empty stack");
        self.backtracks += 1;
        if let Some(key) = frame.key {
            self.staged.push((key, self.strength));
            self.published += 1;
        }
        self.state = frame.saved;
        self.child_failed();
    }

    fn child_failed(&mut self) {
        if self.stack.is_empty() {
            self.status = WorkerStatus::Failed;
        } else {
            self.entering = false;
            self.resuming = true;
        }
    }

    /// Quarantines a worker whose epoch panicked: it never runs again,
    /// and the proofs it staged this epoch are dropped — a panic may
    /// have interrupted the search mid-node, so nothing staged since the
    /// last barrier can be trusted as a complete exhaustive failure.
    fn quarantine(&mut self) {
        self.status = WorkerStatus::Panicked;
        self.published -= self.staged.len() as u64;
        self.staged.clear();
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
            cache_hits: self.cache_hits,
            seed_hits: self.seed_hits,
            prunes: self.prunes,
            backtracks: self.backtracks,
            cache_published: self.published,
            wall: self.wall,
            cost: self.result.as_ref().map(|(_, c)| *c),
            deepest: self.deepest as u64,
            deepest_buses: self.deepest_buses,
        }
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
    let (result, stats, _) = synthesize_seeded(cdfg, mode, cfg, &[]);
    (result, stats)
}

/// Runs one worker's epoch with panic isolation: a panic anywhere in
/// the expansion (including an injected fault) quarantines the worker
/// instead of unwinding across the thread scope and aborting the whole
/// portfolio. The worker's in-progress state is untrusted after a
/// panic, so quarantine also drops its un-published proofs.
fn run_epoch_isolated(w: &mut Worker<'_>, epoch_nodes: usize, cache: &SharedCache) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        w.run_epoch(epoch_nodes, cache);
    }));
    if outcome.is_err() {
        w.quarantine();
    }
}

/// [`synthesize_with_stats`] with cross-run proof transfer: the cache is
/// pre-populated from `seed` (which also enables it for a portfolio of
/// one), and the proofs learned during this run come back as the third
/// tuple element, in deterministic barrier order.
///
/// The caller asserts that every seed's proof holds for *this* problem
/// instance — same design, rate and port mode, with pin budgets no
/// looser than the proving run's. Seeds never change feasibility of the
/// points they legitimately apply to (they only skip provably empty
/// subtrees), but they may steer which connection is found first, so
/// reuse trades bit-stability for speed.
pub fn synthesize_seeded(
    cdfg: &Cdfg,
    mode: PortMode,
    cfg: &SearchConfig,
    seed: &[RefutationCert],
) -> (
    Result<Interconnect, ConnectError>,
    SearchStats,
    Vec<RefutationCert>,
) {
    let t0 = Instant::now();
    if cfg.rate == 0 {
        return (
            Err(ConnectError::ZeroRate),
            SearchStats::default(),
            Vec::new(),
        );
    }
    let plans = portfolio_plans(cfg);
    let cache = SharedCache::new(plans.len() > 1 || !seed.is_empty());
    cache.publish(
        seed.iter().map(|c| (c.key.clone(), c.strength())).collect(),
        true,
    );
    let threads = cfg.workers.clamp(1, plans.len());
    let epoch_nodes = cfg.epoch_nodes.max(1);
    let mut workers: Vec<Worker<'_>> = plans
        .into_iter()
        .map(|plan| Worker::new(cdfg, mode, cfg, plan, cache.enabled))
        .collect();

    // Counter snapshots for per-epoch `SearchNode` deltas; events are
    // recorded only at barriers, in portfolio order, from this thread —
    // the stream is a pure function of the portfolio, like the result.
    let rec_on = cfg.metrics.tracing();
    let mut recorded: Vec<(u64, u64, u64, u64)> = vec![(0, 0, 0, 0); workers.len()];

    let mut epochs = 0usize;
    let mut learned: Vec<RefutationCert> = Vec::new();
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
                run_epoch_isolated(w, epoch_nodes, &cache);
            }
        } else {
            let chunk = workers.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for group in workers.chunks_mut(chunk) {
                    scope.spawn(|| {
                        for w in group {
                            run_epoch_isolated(w, epoch_nodes, &cache);
                        }
                    });
                }
            });
        }
        // Barrier: merge staged failure proofs in portfolio order so the
        // next epoch's snapshot is deterministic; whatever the cache
        // adopts is also this run's harvest.
        for w in &mut workers {
            learned.extend(
                cache
                    .publish(std::mem::take(&mut w.staged), false)
                    .into_iter()
                    .map(|(key, strength)| RefutationCert::from_parts(key, strength)),
            );
        }
        if rec_on {
            for (i, w) in workers.iter().enumerate() {
                let cur = (w.nodes, w.prunes, w.backtracks, w.cache_hits);
                let prev = recorded[i];
                if cur != prev {
                    cfg.metrics.record(mcs_obs::Event::SearchNode {
                        worker: w.plan.index as u32,
                        epoch: epochs as u32,
                        nodes: cur.0 - prev.0,
                        prunes: cur.1 - prev.1,
                        backtracks: cur.2 - prev.2,
                        cache_hits: cur.3 - prev.3,
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
        cache_hits: workers.iter().map(|w| w.cache_hits).sum(),
        seed_hits: workers.iter().map(|w| w.seed_hits).sum(),
        cache_entries: cache.entries() as u64,
        prunes: workers.iter().map(|w| w.prunes).sum(),
        backtracks: workers.iter().map(|w| w.backtracks).sum(),
        wall: t0.elapsed(),
        termination,
        deepest,
        deepest_buses,
    };
    if cfg.metrics.enabled() {
        cfg.metrics.add("connect.nodes", stats.nodes);
        cfg.metrics.add("connect.cache_hits", stats.cache_hits);
        cfg.metrics.add("connect.seed_hits", stats.seed_hits);
        // Peak, not last-write: under a parallel sweep the last point to
        // finish is scheduling-dependent, and exports must stay
        // byte-identical across `--jobs`.
        cfg.metrics
            .gauge_max("connect.cache_entries", stats.cache_entries as i64);
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
    (result, stats, learned)
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
            OpOrder::ProbeSeeded,
        ] {
            let mut ops = ordered_ops(d.cdfg(), order, 6);
            ops.sort();
            assert_eq!(ops, reference, "{order:?}");
        }
    }

    #[test]
    fn probe_seeding_is_opt_in_and_preserves_feasibility() {
        let d = mcs_cdfg::designs::synthetic::portfolio_adversarial(6);
        // Off by default: no plan carries the probe-seeded order.
        let base = SearchConfig::new(2).with_portfolio(4);
        assert!(portfolio_plans(&base)
            .iter()
            .all(|p| p.order != OpOrder::ProbeSeeded));
        let (reference, _) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &base);
        // Opted in: exactly one diversified slot per menu cycle swaps to
        // the checker-ranked order, plan 0 stays classic, and the search
        // still connects.
        let cfg = base.clone().with_probe_seeding();
        let plans = portfolio_plans(&cfg);
        assert_eq!(plans[0].order, OpOrder::WidthDesc);
        assert_eq!(plans[1].order, OpOrder::ProbeSeeded);
        let (got, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
        let ic = got.unwrap();
        assert!(ic.verify(d.cdfg()).is_empty());
        assert!(stats
            .workers
            .iter()
            .any(|w| w.config.contains("probe-seeded")));
        // The classic plan still ran, so feasibility can never regress.
        assert_eq!(
            reference.unwrap().buses.len(),
            ic.buses.len(),
            "probe seeding may steer the winner but not the bus count here"
        );
    }

    #[test]
    fn probe_seeded_order_puts_pressured_ops_first() {
        let d = mcs_cdfg::designs::ar_filter::simple();
        let ops = ordered_ops(d.cdfg(), OpOrder::ProbeSeeded, 2);
        let mut checker = PinChecker::new(d.cdfg(), 2).unwrap();
        let slate: Vec<(OpId, i64)> = ops
            .iter()
            .flat_map(|&op| (0..2i64).map(move |g| (op, g)))
            .collect();
        let verdicts = checker.probe_candidates(&slate);
        let pressure: Vec<u32> = ops
            .iter()
            .enumerate()
            .map(|(i, _)| (0..2).map(|g| u32::from(verdicts[i * 2 + g])).sum())
            .collect();
        assert!(
            pressure.windows(2).all(|w| w[0] <= w[1]),
            "feasible-group counts must be non-decreasing: {pressure:?}"
        );
    }

    #[test]
    fn seeded_certs_prune_a_rerun_without_losing_feasibility() {
        let d = mcs_cdfg::designs::synthetic::portfolio_adversarial(6);
        let cfg = SearchConfig::new(2).with_portfolio(4);
        let (base, base_stats, learned) =
            synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &[]);
        assert!(base.is_ok());
        assert_eq!(base_stats.seed_hits, 0, "nothing was seeded");
        assert!(
            !learned.is_empty(),
            "the adversarial design must backtrack and stage proofs"
        );
        let (seeded, stats, _) =
            synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &learned);
        // Seeds only skip provably empty subtrees: feasibility holds.
        assert!(seeded.is_ok());
        assert!(stats.seed_hits > 0, "seeded proofs must answer probes");
        assert!(stats.seed_hits <= stats.cache_hits);
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
        let (result, stats, _) = synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &[]);
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
        let (result, stats, _) = synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &[]);
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
            let (result, stats, learned) =
                synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &[]);
            (result, stats.epochs, stats.nodes, stats.deepest, learned)
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
        let (result, stats, _) = synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &[]);
        assert!(result.is_ok());
        assert_eq!(stats.termination, Termination::Complete);
    }

    #[test]
    fn metrics_record_epochs_and_seed_hits() {
        use mcs_metrics::Registry;
        use std::sync::Arc;
        let d = mcs_cdfg::designs::synthetic::portfolio_adversarial(6);
        let cfg = SearchConfig::new(2).with_portfolio(4);
        let (_, _, learned) = synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &[]);
        let reg = Arc::new(Registry::new());
        let cfg = cfg.with_metrics(MetricsHandle::new(reg.clone()));
        let (result, stats, _) =
            synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &learned);
        assert!(result.is_ok());
        let snap = reg.snapshot();
        assert_eq!(snap.counters["connect.nodes"], stats.nodes);
        assert_eq!(snap.counters["connect.seed_hits"], stats.seed_hits);
        assert!(stats.seed_hits > 0, "seeded proofs must answer probes");
        // One epoch-timing observation per live (worker, epoch) pair:
        // at least one per epoch, at most workers-per-epoch.
        let h = &snap.histograms["connect.epoch_us"];
        assert!(h.count >= stats.epochs as u64);
        assert!(h.count <= (stats.epochs * stats.workers.len()) as u64);
        assert_eq!(
            snap.gauges["connect.cache_entries"],
            stats.cache_entries as i64
        );
    }

    #[test]
    fn refutation_certs_round_trip_their_strength() {
        for (order, tie_high, bf) in [
            (OpOrder::WidthDesc, false, 3),
            (OpOrder::PairGrouped, true, 1),
        ] {
            let cert = RefutationCert {
                key: vec![1, 2, 3],
                order,
                tie_high,
                branching_factor: bf,
            };
            let back = RefutationCert::from_parts(cert.key.clone(), cert.strength());
            assert_eq!(back, cert);
        }
    }

    #[test]
    fn cache_strength_domination_is_prefix_safe() {
        let a = Strength {
            order: OpOrder::WidthDesc,
            family: CandidateFamily::of(CandidateOrder::GainDesc),
            branching_factor: 4,
        };
        let b = Strength {
            branching_factor: 2,
            ..a
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // FreshFirst proves the same candidate sets as GainDesc...
        let c = Strength {
            family: CandidateFamily::of(CandidateOrder::FreshFirst),
            ..a
        };
        assert!(a.dominates(&c));
        // ...but the reversed tie-break deduplicates differently.
        let d = Strength {
            family: CandidateFamily::of(CandidateOrder::GainDescBusRev),
            ..a
        };
        assert!(!a.dominates(&d));
        let e = Strength {
            order: OpOrder::PairGrouped,
            ..a
        };
        assert!(!a.dominates(&e));
    }
}
