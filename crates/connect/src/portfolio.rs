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
//! Nearly every node of a cache run fails, so the cache is built to cost
//! little per node:
//!
//! * **Hash-gated lookups.** A node entry hashes the dense state into a
//!   `u64` (`state_hash`, word by word, no allocation) and looks that
//!   hash up. Only on a hash match are the signature bytes written (into
//!   a scratch buffer the worker reuses) and compared.
//! * **Signatures only on failure.** A frame keeps its entry hash, not
//!   its signature. The bytes are built when the frame pops as an
//!   exhaustive failure, after the trail has put the state back at the
//!   frame's entry.
//! * **One resident copy of each proof.** The cache files proofs by hash
//!   through a pass-through hasher, one small bucket per hash holding
//!   each signature with its entries. A [`RefutationCert`] carries its
//!   signature as shared bytes plus the hash, so the barrier merge, the
//!   harvest, seeding and cloning certificates into a later run's warm
//!   start copy pointers and never rehash.
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
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
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

/// A portable exhaustive-failure proof: a state signature, its hash,
/// and the strength of the plan that proved the subtree
/// empty. Harvested from [`synthesize_seeded`] and fed back into a later
/// run on a problem where the proof still holds (see the module docs for
/// the transfer rule the caller must uphold). The signature bytes are
/// shared: cloning a certificate, adopting it into a warm start or
/// seeding a cache with it copies a pointer, never the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefutationCert {
    key: Arc<[u8]>,
    hash: u64,
    /// Operation order of the proving plan.
    pub order: OpOrder,
    /// `true` when the proving plan broke equal-gain ties toward newer
    /// buses ([`CandidateOrder::GainDescBusRev`]).
    pub tie_high: bool,
    /// Branching factor of the proving plan.
    pub branching_factor: usize,
}

impl RefutationCert {
    fn from_parts(key: Arc<[u8]>, hash: u64, strength: Strength) -> Self {
        RefutationCert {
            key,
            hash,
            order: strength.order,
            tie_high: strength.family == CandidateFamily::GainTieHigh,
            branching_factor: strength.branching_factor,
        }
    }

    /// The proof that `state` at `depth`, whose [`state_hash`] is `hash`,
    /// failed under `strength`. The signature is written into `sig`
    /// first, then copied once into the shared bytes.
    fn of_state(
        state: &State,
        depth: usize,
        hash: u64,
        strength: Strength,
        sig: &mut Vec<u8>,
    ) -> Self {
        write_state_sig(state, depth, sig);
        RefutationCert::from_parts(Arc::from(&sig[..]), hash, strength)
    }

    /// The refuted state's signature: depth plus the exact bus/value
    /// structure, in a byte format that is stable across runs.
    pub fn key(&self) -> &[u8] {
        &self.key
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

/// A hasher for keys that are already [`state_hash`]es: it passes the
/// `u64` through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the refutation cache is keyed by u64 state hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The proofs of every signature with one [`state_hash`]: each row a
/// shared key plus one of its [`CacheEntry`]s. Rows of one key keep their
/// insertion order.
type Bucket = Vec<(Arc<[u8]>, CacheEntry)>;

/// The exhaustively failed states, one [`Bucket`] per [`state_hash`],
/// keyed through the pass-through hasher. Workers read the cache during
/// an epoch; only the orchestrator writes it, at the barrier, merging
/// staged proofs in portfolio-index order, so its contents are
/// deterministic and need no lock.
pub(crate) struct SharedCache {
    proofs: HashMap<u64, Bucket, BuildHasherDefault<PassThrough>>,
    enabled: bool,
    /// Proofs adopted so far (dominated ones evicted later still count).
    len: usize,
}

impl SharedCache {
    fn new(enabled: bool) -> Self {
        SharedCache {
            proofs: HashMap::default(),
            enabled,
            len: 0,
        }
    }

    /// `Some(from_seed)` when a proof dominating `reader` is resident
    /// for `state` at `depth`, whose [`state_hash`] is `hash`: the flag
    /// says whether the (deterministically) first dominating entry was
    /// seeded from a prior run. The signature is written into `sig` and
    /// compared only when a bucket matches the hash.
    fn proven(
        &self,
        hash: u64,
        state: &State,
        depth: usize,
        reader: &Strength,
        sig: &mut Vec<u8>,
    ) -> Option<bool> {
        let bucket = self.proofs.get(&hash)?;
        write_state_sig(state, depth, sig);
        bucket
            .iter()
            .find(|(key, e)| **key == **sig && e.strength.dominates(reader))
            .map(|(_, e)| e.seeded)
    }

    /// Barrier-time merge of one proof; called from the orchestrator
    /// only. Returns whether the cache adopted it: it is not dominated
    /// by a resident proof of the same state and the cache is under its
    /// cap. Adopting evicts the resident proofs it dominates.
    fn adopt(&mut self, cert: &RefutationCert, seeded: bool) -> bool {
        if !self.enabled || self.len >= CACHE_CAP {
            return false;
        }
        let strength = cert.strength();
        let bucket = self.proofs.entry(cert.hash).or_default();
        if bucket
            .iter()
            .any(|(key, e)| *key == cert.key && e.strength.dominates(&strength))
        {
            return false;
        }
        bucket.retain(|(key, e)| *key != cert.key || !strength.dominates(&e.strength));
        bucket.push((cert.key.clone(), CacheEntry { strength, seeded }));
        self.len += 1;
        true
    }

    fn entries(&self) -> usize {
        self.len
    }
}

/// A search state's identity for pruning: the depth (which, for a fixed
/// operation order, pins down the set of assigned operations) plus the
/// exact bus structure — widths, per-partition port widths, and the
/// values riding each bus with their sub-ranges. Everything the future
/// search can observe is derived from these, so two states with equal
/// signatures have identical subtrees under the same plan.
///
/// The bytes are a stable format: [`RefutationCert`]s carry them across
/// runs. Per bus: `0xB5`, the sub-bus count and widths (always one
/// sub-bus in a search state), the output, input and bidirectional port
/// maps as counts plus `(partition, width)` pairs in partition order,
/// then the riding values in id order, each with its sub-range (always
/// the whole bus, `0..=0`). The bytes replace `sig`'s contents.
fn write_state_sig(state: &State, depth: usize, sig: &mut Vec<u8>) {
    sig.clear();
    sig.extend_from_slice(&(depth as u32).to_le_bytes());
    for (bus, values) in state.values.iter().enumerate() {
        sig.extend_from_slice(&[0xB5, 1]);
        sig.extend_from_slice(&state.widths[bus].to_le_bytes());
        for ports in state.port_rows(bus) {
            // One pass per row: the count byte is patched at the end.
            let count_at = sig.len();
            sig.push(0);
            let mut count = 0usize;
            for (p, &w) in ports.iter().enumerate().filter(|&(_, &w)| w > 0) {
                count += 1;
                let mut pair = [0u8; 8];
                pair[..4].copy_from_slice(&(p as u32).to_le_bytes());
                pair[4..].copy_from_slice(&w.to_le_bytes());
                sig.extend_from_slice(&pair);
            }
            sig[count_at] = count as u8;
        }
        sig.push(values.len() as u8);
        for v in values {
            let mut value = [0u8; 6];
            value[..4].copy_from_slice(&v.0.to_le_bytes());
            sig.extend_from_slice(&value);
        }
    }
}

/// [`write_state_sig`] into a fresh vector.
#[cfg(test)]
fn state_sig(state: &State, depth: usize) -> Vec<u8> {
    let mut sig = Vec::new();
    write_state_sig(state, depth, &mut sig);
    sig
}

/// The refutation cache's hash of a search state, read straight off the
/// dense state without allocating. Each bus folds its width and value
/// count, its port rows two slots to a word, and its riding values into
/// a hash of its own, one xor and multiply per word; the bus hashes and
/// the depth are then folded in bus order and finished by an avalanche.
/// The bus chains do not depend on one another, so the processor
/// overlaps them. The hash covers exactly what [`write_state_sig`]
/// encodes, so two states of one design and port mode with equal
/// signatures have equal hashes; unequal signatures may collide, and the
/// cache compares the bytes.
fn state_hash(state: &State, depth: usize) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = (depth as u64).wrapping_mul(K);
    for (bus, values) in state.values.iter().enumerate() {
        let mut b = (u64::from(state.widths[bus]) | (values.len() as u64) << 32).wrapping_mul(K);
        for ports in state.port_rows(bus) {
            for pair in ports.chunks(2) {
                let hi = pair.get(1).copied().unwrap_or(0);
                b = (b ^ (u64::from(pair[0]) | u64::from(hi) << 32)).wrapping_mul(K);
            }
        }
        for v in values {
            b = (b ^ u64::from(v.0)).wrapping_mul(K);
        }
        h = (h.rotate_left(23) ^ b).wrapping_mul(K);
    }
    // SplitMix64's finalizer: every output bit depends on every input
    // bit, so the bucket index (low bits) and tag (high bits) both vary.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
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

/// One suspended node of the iterative backtracking search. Its
/// candidates live in the worker's move buffer for the frame's depth.
struct Frame {
    /// Trail mark at node entry: trying the next candidate and
    /// backtracking both undo the state back to it.
    mark: usize,
    /// [`state_hash`] of the entry state (cache runs only): the lookup's
    /// key, and the key of the failure proof if the subtree fails.
    hash: u64,
    /// Index of the next candidate to try.
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
    rate: u32,
    allow_split: bool,
    plan: WorkerPlan,
    strength: Strength,
    cache_enabled: bool,
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
    cache_hits: u64,
    seed_hits: u64,
    prunes: u64,
    backtracks: u64,
    published: u64,
    staged: Vec<RefutationCert>,
    /// Scratch for state signatures: cache lookups that match a hash
    /// write into it, and failure proofs are copied out of it.
    sig: Vec<u8>,
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
    /// the trail must give back exactly, and the tally of that check
    /// (a popped frame whose state no longer hashes to its entry hash
    /// also counts as a mismatch).
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
        cache_enabled: bool,
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
            strength: Strength {
                order: plan.order,
                family: CandidateFamily::of(plan.candidates),
                branching_factor: plan.branching_factor,
            },
            budget_left: plan.node_budget,
            plan,
            cache_enabled,
            windows,
            io,
            state,
            stack: Vec::new(),
            moves: Vec::new(),
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
            sig: Vec::new(),
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
        let (hash, proven) = if self.cache_enabled {
            let hash = state_hash(&self.state, depth);
            let proven = cache.proven(hash, &self.state, depth, &self.strength, &mut self.sig);
            (hash, proven)
        } else {
            (0, None)
        };
        if let Some(from_seed) = proven {
            // Another plan with at least our candidate sets proved this
            // exact structure a dead end.
            self.cache_hits += 1;
            if from_seed {
                self.seed_hits += 1;
            }
            self.child_failed();
            return;
        }
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
            hash,
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
        let frame = self.stack.pop().expect("non-empty stack");
        #[cfg(test)]
        {
            self.snapshots.pop();
            // The proof is filed under the hash the entry lookup used.
            if self.cache_enabled && state_hash(&self.state, self.stack.len()) != frame.hash {
                self.mismatches += 1;
            }
        }
        self.backtracks += 1;
        if self.cache_enabled {
            // The state is back at the popped frame's entry: its
            // signature is built only now that the subtree failed.
            self.staged.push(RefutationCert::of_state(
                &self.state,
                self.stack.len(),
                frame.hash,
                self.strength,
                &mut self.sig,
            ));
            self.published += 1;
        }
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
    let windows = GroupWindows::new(cdfg, cfg.rate);
    let mut cache = SharedCache::new(plans.len() > 1 || !seed.is_empty());
    cache.proofs.reserve(seed.len());
    for cert in seed {
        cache.adopt(cert, true);
    }
    let threads = cfg.workers.clamp(1, plans.len());
    let epoch_nodes = cfg.epoch_nodes.max(1);
    let mut workers: Vec<Worker<'_>> = plans
        .into_iter()
        .map(|plan| Worker::new(cdfg, mode, cfg, &windows, plan, cache.enabled))
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
            for cert in w.staged.drain(..) {
                if cache.adopt(&cert, false) {
                    learned.push(cert);
                }
            }
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
    use mcs_cdfg::designs::{ar_filter, elliptic, Design};

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
                key: Arc::from(&[1u8, 2, 3][..]),
                hash: 7,
                order,
                tie_high,
                branching_factor: bf,
            };
            let back = RefutationCert::from_parts(cert.key.clone(), 7, cert.strength());
            assert_eq!(back, cert);
        }
    }

    /// Runs a portfolio single-threaded to its end, barrier by barrier,
    /// and returns the trail restores checked against the frame-entry
    /// snapshots and how many of them differed.
    fn run_checked(cdfg: &Cdfg, mode: PortMode, cfg: &SearchConfig) -> (u64, u64) {
        let plans = portfolio_plans(cfg);
        let windows = GroupWindows::new(cdfg, cfg.rate);
        let mut cache = SharedCache::new(plans.len() > 1);
        let mut workers: Vec<Worker<'_>> = plans
            .into_iter()
            .map(|plan| Worker::new(cdfg, mode, cfg, &windows, plan, cache.enabled))
            .collect();
        while workers.iter().any(Worker::running)
            && !workers.iter().any(|w| w.status == WorkerStatus::Succeeded)
        {
            for w in &mut workers {
                w.run_epoch(cfg.epoch_nodes, &cache);
            }
            for w in &mut workers {
                for cert in w.staged.drain(..) {
                    cache.adopt(&cert, false);
                }
            }
        }
        workers
            .iter()
            .fold((0, 0), |(r, m), w| (r + w.restores, m + w.mismatches))
    }

    /// The trail-vs-clone differential: over the fuzz corpus, every
    /// sibling restore and every backtrack must undo the trail to exactly
    /// the state a clone taken at frame entry holds, and every popped
    /// frame's state must hash to the hash its entry lookup used. Two
    /// plans share the failure cache, so cache-pruned children are
    /// covered too.
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

    /// A state built by putting the first operations of the classic order
    /// on the given buses (`bus_count()` opens a fresh one), whatever
    /// their gain or pin cost.
    fn built_state(cdfg: &Cdfg, mode: PortMode, buses: &[usize]) -> State {
        let io: Vec<IoOp> = ordered_ops(cdfg, OpOrder::WidthDesc)
            .into_iter()
            .map(|op| IoOp::of(cdfg, op))
            .collect();
        let mut state = State::new(cdfg, mode, &io);
        for (op, &bus) in io.iter().zip(buses) {
            apply_move(&mut state, op, bus);
        }
        state
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `state_sig` bytes are the key of every cached and exported
    /// refutation certificate, so they are pinned exactly. The expected
    /// strings were recorded from the map-based search state this dense
    /// one replaced: a uni- and a bidirectional elliptic state with a
    /// shared value and three buses, and an AR-filter state whose first
    /// bus widens and whose ports grow unevenly.
    #[test]
    fn state_signature_bytes_are_stable() {
        let uni = elliptic::partitioned();
        let bi = elliptic::partitioned_with(6, PortMode::Bidirectional);
        let ar = ar_filter::general(3, PortMode::Unidirectional);
        let seq = [0usize, 1, 0, 0, 2, 1, 2, 0];
        let sig = |cdfg: &Cdfg, mode, buses: &[usize]| {
            hex(&state_sig(&built_state(cdfg, mode, buses), buses.len()))
        };
        assert_eq!(sig(uni.cdfg(), PortMode::Unidirectional, &[]), "00000000");
        assert_eq!(
            sig(uni.cdfg(), PortMode::Unidirectional, &seq),
            "08000000b5011000000003000000001000000004000000100000000500000010000000020000000010000000010000001000000000040000000000002c0000000000320000000000350000000000b501100000000200000000100000000100000010000000020200000010000000030000001000000000020000000000000e0000000000b50110000000010100000010000000020200000010000000050000001000000000020d0000000000120000000000"
        );
        assert_eq!(
            sig(bi.cdfg(), PortMode::Bidirectional, &seq),
            "08000000b501100000000000040000000010000000010000001000000004000000100000000500000010000000040000000000001200000000002c0000000000320000000000b50110000000000003000000001000000001000000100000000200000010000000020000000000000d0000000000b501100000000000040100000010000000020000001000000003000000100000000500000010000000020e0000000000340000000000"
        );
        assert_eq!(
            sig(ar.cdfg(), PortMode::Unidirectional, &[0, 0, 1, 0, 1, 2]),
            "06000000b50118000000020300000010000000040000001800000002000000001800000004000000100000000003450000000000540000000000550000000000b5011000000002010000000c000000030000001000000002030000000c00000004000000100000000002160000000000440000000000b5010c00000001010000000c00000001040000000c0000000001170000000000"
        );
    }

    /// The states a test can build: a uni- and a bidirectional elliptic
    /// filter and a unidirectional AR filter.
    fn test_designs() -> [(Design, PortMode); 3] {
        [
            (elliptic::partitioned(), PortMode::Unidirectional),
            (
                elliptic::partitioned_with(6, PortMode::Bidirectional),
                PortMode::Bidirectional,
            ),
            (
                ar_filter::general(3, PortMode::Unidirectional),
                PortMode::Unidirectional,
            ),
        ]
    }

    /// `built_state` over bus choices taken modulo the buses open so far
    /// plus one (the fresh bus), so every choice is a legal move.
    fn random_path_state(cdfg: &Cdfg, mode: PortMode, choices: &[usize]) -> State {
        let mut buses = Vec::new();
        let mut open = 0;
        for &c in choices.iter().take(cdfg.io_ops().count()) {
            let bus = c % (open + 1);
            open += usize::from(bus == open);
            buses.push(bus);
        }
        built_state(cdfg, mode, &buses)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The state undone to a frame's mark hashes and signs as it did
        /// at the frame's entry, so the proof staged when the frame pops
        /// carries its entry lookup's hash and signature, and a cache that
        /// adopted the proof answers that lookup. Two paths that reach
        /// equal signatures reach equal hashes. (The worker itself checks,
        /// in test builds, that every popped frame's state hashes to the
        /// hash its entry used; see
        /// `trail_undo_matches_frame_snapshots_over_the_fuzz_corpus`.)
        #[test]
        fn lookup_hash_matches_the_hash_its_cert_carries(
            design in 0usize..3,
            path in proptest::collection::vec(0usize..6, 0..24),
            deeper in proptest::collection::vec(0usize..6, 0..6),
            other in proptest::collection::vec(0usize..6, 0..4),
        ) {
            let (d, mode) = test_designs().into_iter().nth(design).unwrap();
            let cdfg = d.cdfg();
            let io: Vec<IoOp> = ordered_ops(cdfg, OpOrder::WidthDesc)
                .into_iter()
                .map(|op| IoOp::of(cdfg, op))
                .collect();
            let mut state = random_path_state(cdfg, mode, &path);
            let depth = path.len().min(io.len());
            let lookup = state_hash(&state, depth);
            let entry_sig = state_sig(&state, depth);

            // Explore below the frame, then undo back to its entry.
            let mark = state.mark();
            for (op, &c) in io[depth..].iter().zip(&deeper) {
                let bus = c % (state.bus_count() + 1);
                apply_move(&mut state, op, bus);
            }
            state.undo_to(mark);
            let strength = Strength {
                order: OpOrder::WidthDesc,
                family: CandidateFamily::GainTieLow,
                branching_factor: 2,
            };
            let mut sig = Vec::new();
            let cert = RefutationCert::of_state(&state, depth, lookup, strength, &mut sig);
            proptest::prop_assert_eq!(cert.key(), &entry_sig[..]);
            proptest::prop_assert_eq!(state_hash(&state, depth), cert.hash);

            let mut cache = SharedCache::new(true);
            proptest::prop_assert!(cache.adopt(&cert, true));
            let reader = Strength { branching_factor: 1, ..strength };
            let mut scratch = Vec::new();
            proptest::prop_assert_eq!(
                cache.proven(lookup, &state, depth, &reader, &mut scratch),
                Some(true)
            );

            let twin = random_path_state(cdfg, mode, &other);
            let twin_depth = other.len().min(io.len());
            if state_sig(&twin, twin_depth) == entry_sig {
                proptest::prop_assert_eq!(state_hash(&twin, twin_depth), lookup);
            }
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
