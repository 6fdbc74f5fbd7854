//! The heuristic interchip-connection search of Section 4.1.2
//! (Figure 4.3), with the bidirectional-port variant of Section 4.3 and
//! the sub-bus extension of Section 6.1.2.
//!
//! I/O operations are assigned to buses in descending bit-width order. At
//! each node, a small number of candidate buses with the best *gain*
//! `g = 10000*g1 + 100*g2 + g3` is explored:
//!
//! * `g1` rewards reuse of already-existing ports, weighted by pin
//!   pressure `wf_i = unassigned bits / unallocated pins`;
//! * `g2` rewards co-locating transfers of the same value (they share a
//!   communication slot);
//! * `g3` balances bus utilization (free slots).
//!
//! The branching factor trades run time against the chance of finding a
//! connection; exploration is additionally capped by a node budget. With
//! sub-bus sharing enabled, assignment may also split an unsplit bus in
//! two when the incoming transfer fits beside a previously assigned one
//! (the prototype's at-most-two-sub-buses restriction, Section 6.1.2).

use std::collections::BTreeMap;

use mcs_cdfg::{BusId, Cdfg, OpId, PartitionId, PortMode, ValueId};

use crate::model::{Bus, BusAssignment, Interconnect, SubRange};

/// Tuning knobs of the search.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Initiation rate `L` (bus slots per bus).
    pub rate: u32,
    /// Candidates explored per node (the paper's user-set branching
    /// factor). In a portfolio run this is the *base* factor that the
    /// diversified worker plans are derived from.
    pub branching_factor: usize,
    /// Enable Chapter 6 sub-bus sharing (at most two sub-buses per bus).
    pub allow_split: bool,
    /// Backtracking node budget (per portfolio worker; worker 0 always
    /// keeps the full budget, the diversified workers run on slices).
    pub node_budget: usize,
    /// Threads used to expand portfolio workers. Purely an execution
    /// knob: the synthesized `Interconnect` is a function of the
    /// *portfolio*, never of how many threads expanded it.
    pub workers: usize,
    /// Number of diversified search configurations raced against each
    /// other. `None` means "one per worker". A portfolio of 1 runs
    /// exactly the classic Figure 4.3 search (and disables the shared
    /// pruning cache), so single-config results are bit-for-bit those of
    /// the sequential implementation.
    pub portfolio: Option<usize>,
    /// Nodes each live worker expands between synchronization barriers.
    /// Epoch-lockstep execution is what makes the parallel search
    /// deterministic: cancellation and cache visibility are decided by
    /// node counts, never by wall-clock timing.
    pub epoch_nodes: usize,
    /// Telemetry handle: a `connect.epoch_us` histogram (one observation
    /// per live worker per epoch, timed on the registry clock) plus
    /// `connect.seed_hits` / `connect.cache_hits` / `connect.nodes`
    /// counters added once at the end of the run; with an event sink,
    /// `SearchNode` and `WorkerPanic` events, recorded by the
    /// orchestrator at the barrier in portfolio-index order so the event
    /// stream is deterministic across thread counts. Disconnected by
    /// default.
    pub metrics: mcs_metrics::MetricsHandle,
    /// Execution budget polled at every epoch barrier. When it trips,
    /// the run stops with [`ConnectError::Interrupted`] and the search
    /// stats carry the deepest partial connection reached (the anytime
    /// result). Count ceilings are checked only at barriers, so the
    /// interruption point — like everything else about the search — is
    /// independent of the thread count; a wall-clock deadline trades
    /// that determinism for latency control.
    pub budget: Option<mcs_ctl::Budget>,
    /// Seed the diversified portfolio with a probe-ranked plan: one
    /// worker orders operations by pin-feasibility pressure measured
    /// through a single batched probe pass over every (operation, step
    /// group) pair ([`crate::portfolio::OpOrder::ProbeSeeded`]). Off by
    /// default so the classic plan menu — and every event stream and
    /// result derived from it — stays byte-identical.
    pub probe_seed_plans: bool,
}

impl SearchConfig {
    /// A configuration with the defaults used by the experiments.
    pub fn new(rate: u32) -> Self {
        SearchConfig {
            rate,
            branching_factor: 3,
            allow_split: false,
            node_budget: 200_000,
            workers: 1,
            portfolio: None,
            epoch_nodes: 512,
            metrics: mcs_metrics::MetricsHandle::default(),
            budget: None,
            probe_seed_plans: false,
        }
    }

    /// Enables Chapter 6 sub-bus sharing.
    pub fn with_sharing(mut self) -> Self {
        self.allow_split = true;
        self
    }

    /// Sets the number of expansion threads (and, unless
    /// [`with_portfolio`](Self::with_portfolio) pins it, the portfolio
    /// size).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Pins the portfolio size independently of the thread count, so the
    /// result stays identical while `workers` varies.
    pub fn with_portfolio(mut self, portfolio: usize) -> Self {
        self.portfolio = Some(portfolio.max(1));
        self
    }

    /// Connects the `connect.*` metrics and the search's decision events
    /// to `metrics`.
    pub fn with_metrics(mut self, metrics: mcs_metrics::MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Bounds the run with an execution budget (see
    /// [`SearchConfig::budget`]).
    pub fn with_budget(mut self, budget: mcs_ctl::Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Seeds the portfolio with a probe-ranked plan (see
    /// [`SearchConfig::probe_seed_plans`]).
    pub fn with_probe_seeding(mut self) -> Self {
        self.probe_seed_plans = true;
        self
    }
}

/// Failure modes of connection synthesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnectError {
    /// The initiation rate must be positive.
    ZeroRate,
    /// No connection structure was found within the explored space; a
    /// higher branching factor or node budget may succeed.
    NoConnectionFound,
    /// The execution budget tripped before any worker found a
    /// connection. The carried [`mcs_ctl::Termination`] says why
    /// (deadline, work ceiling, or cancellation); the search stats of
    /// the run hold the deepest partial structure reached.
    Interrupted(mcs_ctl::Termination),
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::ZeroRate => write!(f, "initiation rate must be at least 1"),
            ConnectError::NoConnectionFound => {
                write!(f, "heuristic search found no interchip connection")
            }
            ConnectError::Interrupted(t) => {
                write!(f, "connection search interrupted ({t})")
            }
        }
    }
}

impl std::error::Error for ConnectError {}

#[derive(Clone)]
pub(crate) struct State {
    pub(crate) buses: Vec<Bus>,
    /// Values riding each bus and their sub-ranges.
    pub(crate) bus_values: Vec<BTreeMap<ValueId, SubRange>>,
    pub(crate) assignment: BTreeMap<OpId, BusAssignment>,
    pub(crate) pins_left: Vec<i64>,
    pub(crate) demand_left: Vec<i64>,
    /// Static group windows of feedback values (Section 7.1): a bus can
    /// only host value sets whose windows admit distinct step groups.
    pub(crate) windows: BTreeMap<ValueId, std::collections::BTreeSet<u32>>,
}

/// Builds the root search state: empty connection structure, full pin
/// budgets, per-partition bit demand, and feedback group windows.
pub(crate) fn initial_state(cdfg: &Cdfg, rate: u32, ops: &[OpId]) -> State {
    let nparts = cdfg.partition_count();
    let mut pins_left = vec![0i64; nparts];
    let mut demand_left = vec![0i64; nparts];
    for (pi, part) in cdfg.partitions().iter().enumerate() {
        pins_left[pi] = part.total_pins as i64;
    }
    for &op in ops {
        let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
        let bits = cdfg.io_bits(op) as i64;
        demand_left[from.index()] += bits;
        demand_left[to.index()] += bits;
    }
    State {
        buses: Vec::new(),
        bus_values: Vec::new(),
        assignment: BTreeMap::new(),
        pins_left,
        demand_left,
        windows: mcs_cdfg::timing::feedback_group_windows(cdfg, rate),
    }
}

/// Can every value get its own step group, respecting feedback windows?
/// A tiny augmenting-path matching of values to groups. Buses carrying a
/// feedback value additionally keep one spare group: the static windows
/// underestimate how far resource contention pushes the real ones, and a
/// fully packed bus leaves the preloaded transfer no room to maneuver.
pub(crate) fn groups_assignable(
    values: &[ValueId],
    windows: &BTreeMap<ValueId, std::collections::BTreeSet<u32>>,
    l: u32,
) -> bool {
    let has_feedback = values.iter().any(|v| windows.contains_key(v));
    let cap = if has_feedback {
        (l as usize).saturating_sub(1)
    } else {
        l as usize
    };
    if values.len() > cap {
        return false;
    }
    let mut owner: Vec<Option<usize>> = vec![None; l as usize];
    fn try_give(
        i: usize,
        values: &[ValueId],
        windows: &BTreeMap<ValueId, std::collections::BTreeSet<u32>>,
        l: u32,
        owner: &mut Vec<Option<usize>>,
        seen: &mut Vec<bool>,
    ) -> bool {
        let all: std::collections::BTreeSet<u32> = (0..l).collect();
        let groups = windows.get(&values[i]).unwrap_or(&all).clone();
        for g in groups {
            let g = g as usize;
            if g >= l as usize || seen[g] {
                continue;
            }
            seen[g] = true;
            let free = match owner[g] {
                None => true,
                Some(j) => try_give(j, values, windows, l, owner, seen),
            };
            if free {
                owner[g] = Some(i);
                return true;
            }
        }
        false
    }
    for i in 0..values.len() {
        let mut seen = vec![false; l as usize];
        if !try_give(i, values, windows, l, &mut owner, &mut seen) {
            return false;
        }
    }
    true
}

#[derive(Clone, Debug)]
pub(crate) struct Move {
    /// Bus index; `== buses.len()` means a fresh bus.
    pub(crate) bus: usize,
    /// Replace the bus's sub-widths before assigning (a Chapter 6 split).
    pub(crate) split_into: Option<Vec<u32>>,
    pub(crate) range: SubRange,
    pub(crate) gain: f64,
}

/// Synthesizes the interchip connection structure for all I/O operations
/// of `cdfg` (Figure 4.3), discarding the telemetry.
///
/// # Errors
///
/// [`ConnectError::ZeroRate`] or [`ConnectError::NoConnectionFound`].
pub fn synthesize(
    cdfg: &Cdfg,
    mode: PortMode,
    cfg: &SearchConfig,
) -> Result<Interconnect, ConnectError> {
    crate::portfolio::synthesize_with_stats(cdfg, mode, cfg).0
}

/// One candidate relocation considered by [`share_pass`]: the transfer to
/// move, the destination bus index, the sub-range it would ride, the split
/// boundaries to impose on the destination (when it must become a sub-bus
/// structure), and the total pin saving.
type ShareMove = (OpId, usize, SubRange, Option<Vec<u32>>, u32);

/// The Chapter 6 improvement pass: move transfers onto other buses —
/// whole-bus slots or sub-bus ranges, splitting an unsplit bus when the
/// mover can pair with its existing values in one cycle — whenever the
/// move strictly reduces the total pin count without breaching any
/// partition's budget. Vacated ports shrink and emptied buses disappear.
/// Every accepted move reduces total pins, so the pass terminates and
/// sub-bus sharing never costs pins relative to the plain structure
/// (the comparison of Table 6.4).
pub fn share_pass(cdfg: &Cdfg, ic: &mut Interconnect, rate: u32) {
    let windows = mcs_cdfg::timing::feedback_group_windows(cdfg, rate);
    loop {
        let total_before = total_pins(cdfg, ic);
        let mut best: Option<ShareMove> = None;
        let ops: Vec<OpId> = ic.assignment.keys().copied().collect();
        for &op in &ops {
            let cur = ic.assignment[&op];
            let (value, _, _) = cdfg.op(op).io_endpoints().expect("io op");
            let bits = cdfg.io_bits(op);
            for (i, bus) in ic.buses.iter().enumerate() {
                if i == cur.bus.index() {
                    continue;
                }
                // Distinct values riding bus i and their ranges.
                let mut vals: std::collections::BTreeMap<mcs_cdfg::ValueId, SubRange> =
                    std::collections::BTreeMap::new();
                for (&o2, a2) in &ic.assignment {
                    if a2.bus.index() == i {
                        let (v2, _, _) = cdfg.op(o2).io_endpoints().expect("io op");
                        vals.insert(v2, a2.range);
                    }
                }
                if vals.contains_key(&value) {
                    continue; // shared-value rides are not pin moves
                }
                // Candidate target ranges.
                let mut targets: Vec<(SubRange, Option<Vec<u32>>)> = Vec::new();
                if bus.sub_count() == 1 {
                    let w = bus.width();
                    if w >= bits {
                        targets.push((SubRange { lo: 0, hi: 0 }, None));
                    }
                    // Split so the mover rides the upper sub-bus while the
                    // bus's narrow values drop to the lower one: they can
                    // then pair within a cycle (Figure 6.1).
                    if w > bits && !vals.is_empty() {
                        targets.push((SubRange { lo: 1, hi: 1 }, Some(vec![w - bits, bits])));
                    }
                } else {
                    for lo in 0..bus.sub_count() {
                        for hi in lo..bus.sub_count() {
                            let rr = SubRange { lo, hi };
                            if bus.range_width(rr) >= bits {
                                targets.push((rr, None));
                            }
                        }
                    }
                }
                for (range, split) in targets {
                    // Conservative capacity: plan one value per bus cycle
                    // even on split buses (in-cycle pairing is a bonus the
                    // scheduler may still exploit, the pruned-search
                    // spirit of Section 6.2), and feedback values must
                    // keep a cycle inside their static group windows.
                    let mut joined: Vec<ValueId> = vals.keys().copied().collect();
                    joined.push(value);
                    if !groups_assignable(&joined, &windows, rate) {
                        continue;
                    }
                    // Simulate the move (growing endpoint ports if needed)
                    // and measure the saving; reject budget breaches.
                    let mut trial = ic.clone();
                    apply_share_move(cdfg, &mut trial, op, i, range, &split);
                    let after = total_pins(cdfg, &trial);
                    let within_budget = (0..cdfg.partition_count()).all(|p| {
                        let pid = PartitionId::new(p as u32);
                        trial.pins_used(pid) <= cdfg.partition(pid).total_pins
                    });
                    if within_budget && after < total_before {
                        let saving = total_before - after;
                        // Equal savings prefer the split form: the bus can
                        // then carry two values in one cycle (Figure 6.1),
                        // which the scheduler exploits opportunistically.
                        let better = match &best {
                            None => true,
                            Some(b) => {
                                saving > b.4 || (saving == b.4 && split.is_some() && b.3.is_none())
                            }
                        };
                        if better {
                            best = Some((op, i, range, split.clone(), saving));
                        }
                    }
                }
            }
        }
        match best {
            Some((op, i, range, split, _)) => {
                apply_share_move(cdfg, ic, op, i, range, &split);
            }
            None => break,
        }
    }
}

pub(crate) fn total_pins(cdfg: &Cdfg, ic: &Interconnect) -> u32 {
    (0..cdfg.partition_count())
        .map(|p| ic.pins_used(PartitionId::new(p as u32)))
        .sum()
}

/// Moves `op` onto bus `i` at `range` (optionally splitting the bus),
/// relocating the bus's previous values (narrow ones to the lower sub-bus,
/// the rest to the whole range), growing the mover's endpoint ports when
/// its lines exceed them, then shrinking the vacated bus.
fn apply_share_move(
    cdfg: &Cdfg,
    ic: &mut Interconnect,
    op: OpId,
    i: usize,
    range: SubRange,
    split: &Option<Vec<u32>>,
) {
    let old_bus = ic.assignment[&op].bus.index();
    if let Some(widths) = split {
        ic.buses[i].sub_widths = widths.clone();
        let moved: Vec<(OpId, u32)> = ic
            .assignment
            .iter()
            .filter(|(_, a)| a.bus.index() == i)
            .map(|(&o, _)| (o, cdfg.io_bits(o)))
            .collect();
        for (o, vbits) in moved {
            let r = if vbits <= widths[0] {
                SubRange { lo: 0, hi: 0 }
            } else {
                SubRange { lo: 0, hi: 1 }
            };
            ic.assignment.get_mut(&o).expect("present").range = r;
        }
    }
    // The mover's endpoint ports must reach its lines.
    let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
    let need = ic.buses[i].prefix_start(range) + cdfg.io_bits(op);
    {
        let bus = &mut ic.buses[i];
        let ports: Vec<&mut BTreeMap<PartitionId, u32>> = match ic.mode {
            PortMode::Unidirectional => vec![&mut bus.out_ports, &mut bus.in_ports],
            PortMode::Bidirectional => vec![&mut bus.bi_ports],
        };
        for (side, ports) in ports.into_iter().enumerate() {
            let grow_for = match (ic.mode, side) {
                (PortMode::Unidirectional, 0) => vec![from],
                (PortMode::Unidirectional, _) => vec![to],
                (PortMode::Bidirectional, _) => vec![from, to],
            };
            for p in grow_for {
                let e = ports.entry(p).or_insert(0);
                *e = (*e).max(need);
            }
        }
    }
    ic.assignment.insert(
        op,
        BusAssignment {
            bus: BusId::new(i as u32),
            range,
        },
    );
    shrink_bus(cdfg, ic, old_bus);
    // Drop emptied buses, renumbering.
    if ic.buses[old_bus].width() == 0 {
        ic.buses.remove(old_bus);
        for a in ic.assignment.values_mut() {
            if a.bus.index() > old_bus {
                a.bus = BusId::new(a.bus.0 - 1);
            }
        }
    }
}

/// Recomputes a bus's sub-widths and port widths from its remaining
/// transfers.
fn shrink_bus(cdfg: &Cdfg, ic: &mut Interconnect, j: usize) {
    let riders: Vec<(OpId, SubRange)> = ic
        .assignment
        .iter()
        .filter(|(_, a)| a.bus.index() == j)
        .map(|(&o, a)| (o, a.range))
        .collect();
    let bus = &mut ic.buses[j];
    bus.out_ports.clear();
    bus.in_ports.clear();
    bus.bi_ports.clear();
    if riders.is_empty() {
        bus.sub_widths = vec![0];
        return;
    }
    if bus.sub_count() == 1 {
        let w = riders
            .iter()
            .map(|&(o, _)| cdfg.io_bits(o))
            .max()
            .unwrap_or(0);
        bus.sub_widths = vec![w];
    }
    for (o, r) in riders {
        let (_, from, to) = cdfg.op(o).io_endpoints().expect("io op");
        let prefix = bus.prefix_start(r) + cdfg.io_bits(o);
        match ic.mode {
            mcs_cdfg::PortMode::Unidirectional => {
                let e = bus.out_ports.entry(from).or_insert(0);
                *e = (*e).max(prefix);
                let e = bus.in_ports.entry(to).or_insert(0);
                *e = (*e).max(prefix);
            }
            mcs_cdfg::PortMode::Bidirectional => {
                let e = bus.bi_ports.entry(from).or_insert(0);
                *e = (*e).max(prefix);
                let e = bus.bi_ports.entry(to).or_insert(0);
                *e = (*e).max(prefix);
            }
        }
    }
}

/// Dead-end pruning: every still-unassigned transfer must have at least
/// one geometrically and pin-feasible carrier (existing ports wide enough,
/// or a port extension/fresh bus the remaining pin budgets can pay for).
/// Slot capacity is ignored here — the check is a cheap necessary
/// condition that cuts hopeless subtrees early.
pub(crate) fn future_feasible(cdfg: &Cdfg, mode: PortMode, state: &State, rest: &[OpId]) -> bool {
    'ops: for &op in rest {
        let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
        let bits = cdfg.io_bits(op) as i64;
        // Fresh bus.
        if state.pins_left[from.index()] >= bits && state.pins_left[to.index()] >= bits {
            continue;
        }
        for bus in &state.buses {
            let (cur_f, cur_t) = match mode {
                PortMode::Unidirectional => (
                    bus.out_ports.get(&from).copied().unwrap_or(0) as i64,
                    bus.in_ports.get(&to).copied().unwrap_or(0) as i64,
                ),
                PortMode::Bidirectional => (
                    bus.bi_ports.get(&from).copied().unwrap_or(0) as i64,
                    bus.bi_ports.get(&to).copied().unwrap_or(0) as i64,
                ),
            };
            // Riding the low lines needs at most `bits` of port.
            if state.pins_left[from.index()] >= (bits - cur_f).max(0)
                && state.pins_left[to.index()] >= (bits - cur_t).max(0)
            {
                continue 'ops;
            }
        }
        return false;
    }
    true
}

/// Enumerates, scores, deduplicates and truncates the moves for one
/// operation. `branching_factor` and `cand` come from the worker plan so
/// portfolio members can disagree on how wide and in what order to
/// explore.
pub(crate) fn candidate_moves(
    cdfg: &Cdfg,
    mode: PortMode,
    rate: u32,
    branching_factor: usize,
    cand: crate::portfolio::CandidateOrder,
    state: &State,
    op: OpId,
) -> Vec<Move> {
    let (value, from, to) = cdfg.op(op).io_endpoints().expect("io op");
    let bits = cdfg.io_bits(op);
    let l = rate as i64;

    let mut moves: Vec<Move> = Vec::new();
    for (h, bus) in state.buses.iter().enumerate() {
        let values = &state.bus_values[h];
        // Ranges to try on this bus.
        let mut options: Vec<(SubRange, Option<Vec<u32>>)> = Vec::new();
        if let Some(&r) = values.get(&value) {
            // Same value already rides this bus: share its slot and range
            // (no extra capacity).
            options.push((r, None));
        } else {
            if bus.sub_count() == 1 {
                // Whole (possibly widening) assignment. Sub-bus sharing is
                // applied as a pin-saving post-pass (see `share_pass`)
                // rather than inside the branch search.
                options.push((SubRange { lo: 0, hi: 0 }, None));
            } else {
                for lo in 0..bus.sub_count() {
                    for hi in lo..bus.sub_count() {
                        let r = SubRange { lo, hi };
                        // No widening of split buses (Section 6.1.2).
                        if bus.range_width(r) >= bits {
                            options.push((r, None));
                        }
                    }
                }
            }
        }
        for (range, split_into) in options {
            if let Some(gain) = score_move(
                cdfg,
                mode,
                rate,
                state,
                h,
                &split_into,
                range,
                value,
                from,
                to,
                bits,
            ) {
                moves.push(Move {
                    bus: h,
                    split_into,
                    range,
                    gain,
                });
            }
        }
    }

    // Order by gain, dedup same-topology buses (Section 4.1.2), truncate.
    use crate::portfolio::CandidateOrder;
    moves.sort_by(|a, b| {
        let tie = match cand {
            // The classic search prefers lower bus indices among equal
            // gains; the reversed plan breaks ties the other way to
            // diversify which equal-gain carrier gets explored first.
            CandidateOrder::GainDescBusRev => b.bus.cmp(&a.bus),
            _ => a.bus.cmp(&b.bus),
        };
        b.gain
            .partial_cmp(&a.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(tie)
    });
    let mut seen = std::collections::BTreeSet::new();
    moves.retain(|mv| {
        let sig = (
            state.buses[mv.bus].topology(),
            mv.range,
            mv.split_into.clone(),
        );
        seen.insert(sig)
    });
    moves.truncate(branching_factor.max(1));

    // A fresh bus is always a candidate if pins allow: last resort for the
    // gain-ordered plans, first move for the fresh-first plan.
    let fresh = state.buses.len();
    let fresh_feasible =
        state.pins_left[from.index()] >= bits as i64 && state.pins_left[to.index()] >= bits as i64;
    if fresh_feasible {
        let mv = Move {
            bus: fresh,
            split_into: None,
            range: SubRange { lo: 0, hi: 0 },
            gain: l as f64, // g1 = g2 = 0, g3 = L free slots
        };
        if matches!(cand, CandidateOrder::FreshFirst) {
            moves.insert(0, mv);
        } else {
            moves.push(mv);
        }
    }
    moves
}

/// Scores assigning `value` to bus `h` at `range`; `None` when infeasible
/// (pins or slot capacity).
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_move(
    _cdfg: &Cdfg,
    mode: PortMode,
    rate: u32,
    state: &State,
    h: usize,
    split_into: &Option<Vec<u32>>,
    range: SubRange,
    value: ValueId,
    from: PartitionId,
    to: PartitionId,
    bits: u32,
) -> Option<f64> {
    let bus = &state.buses[h];
    let l = rate as i64;
    let shares_value = state.bus_values[h].contains_key(&value);

    // Geometry after the move.
    let new_widths: Vec<u32> = match split_into {
        Some(w) => w.clone(),
        None => {
            if bus.sub_count() == 1 {
                vec![bus.width().max(bits)]
            } else {
                bus.sub_widths.clone()
            }
        }
    };
    // A transfer occupies the low-order lines of its range; ports may be
    // narrower than the bus (Figure 4.2).
    let prefix_need: u32 = new_widths[..range.lo].iter().sum::<u32>() + bits;

    // Pin deltas for the two endpoint ports.
    let port_width =
        |ports: &BTreeMap<PartitionId, u32>, p: PartitionId| ports.get(&p).copied().unwrap_or(0);
    let (delta_from, delta_to, had_from, had_to) = match mode {
        PortMode::Unidirectional => {
            let cur_out = port_width(&bus.out_ports, from);
            let cur_in = port_width(&bus.in_ports, to);
            (
                prefix_need.saturating_sub(cur_out) as i64,
                prefix_need.saturating_sub(cur_in) as i64,
                cur_out > 0,
                cur_in > 0,
            )
        }
        PortMode::Bidirectional => {
            let cur_f = port_width(&bus.bi_ports, from);
            let cur_t = port_width(&bus.bi_ports, to);
            (
                prefix_need.saturating_sub(cur_f) as i64,
                prefix_need.saturating_sub(cur_t) as i64,
                cur_f > 0,
                cur_t > 0,
            )
        }
    };
    if state.pins_left[from.index()] < delta_from || state.pins_left[to.index()] < delta_to {
        return None;
    }
    if from == to {
        return None;
    }

    // Slot capacity (Constraint 4.5): every value gets its own bus cycle
    // (sub-bus pairing is opportunistic, Section 6.2), and feedback
    // values additionally need a cycle inside their static group window
    // (Section 7.1) — the bus must admit a system of distinct groups.
    if !shares_value {
        let mut values: Vec<ValueId> = state.bus_values[h].keys().copied().collect();
        values.push(value);
        if !groups_assignable(&values, &state.windows, rate) {
            return None;
        }
    }

    // Gain per Section 4.1.2 / Section 4.3.
    let wf = |p: PartitionId| -> f64 {
        state.demand_left[p.index()] as f64 / state.pins_left[p.index()].max(1) as f64
    };
    let g1 = match (had_from, had_to) {
        (false, false) => 0.0,
        (true, false) => wf(from),
        (false, true) => wf(to),
        (true, true) => wf(from) + wf(to),
    };
    let g2 = if shares_value { 1.0 } else { 0.0 };
    let used: i64 = {
        let vals = &state.bus_values[h];
        vals.len() as i64
    };
    let g3 = (l - used).max(0) as f64;
    Some(10_000.0 * g1 + 100.0 * g2 + g3)
}

pub(crate) fn apply_move(cdfg: &Cdfg, mode: PortMode, state: &mut State, op: OpId, mv: &Move) {
    let (value, from, to) = cdfg.op(op).io_endpoints().expect("io op");
    let bits = cdfg.io_bits(op);
    if mv.bus == state.buses.len() {
        state.buses.push(Bus::new());
        state.bus_values.push(BTreeMap::new());
    }
    let shares = state.bus_values[mv.bus].contains_key(&value);
    // Split geometry and remap existing values.
    if let Some(widths) = &mv.split_into {
        state.buses[mv.bus].sub_widths = widths.clone();
        let remapped: Vec<(ValueId, SubRange)> = state.bus_values[mv.bus]
            .iter()
            .map(|(&v, _)| {
                let r = if cdfg.value(v).bits <= widths[0] {
                    SubRange { lo: 0, hi: 0 }
                } else {
                    SubRange { lo: 0, hi: 1 }
                };
                (v, r)
            })
            .collect();
        for (v, r) in remapped {
            state.bus_values[mv.bus].insert(v, r);
            // Reassigned earlier transfers keep their bus but move range.
            let ids: Vec<OpId> = state
                .assignment
                .iter()
                .filter(|(_, a)| a.bus.index() == mv.bus)
                .map(|(&o, _)| o)
                .collect();
            for o in ids {
                if cdfg.op(o).io_endpoints().map(|(vv, _, _)| vv) == Some(v) {
                    state.assignment.insert(
                        o,
                        BusAssignment {
                            bus: BusId::new(mv.bus as u32),
                            range: r,
                        },
                    );
                }
            }
        }
    } else if state.buses[mv.bus].sub_count() == 1 {
        let w = state.buses[mv.bus].width().max(bits);
        state.buses[mv.bus].sub_widths = vec![w];
    }
    let range = if shares {
        state.bus_values[mv.bus][&value]
    } else {
        mv.range
    };
    // Port growth and pin accounting: the transfer needs its range's
    // low-order lines only.
    let prefix = state.buses[mv.bus].prefix_start(range) + bits;
    let mut grow = |ports_owner: PortSide, p: PartitionId| {
        let bus = &mut state.buses[mv.bus];
        let ports = match ports_owner {
            PortSide::Out => &mut bus.out_ports,
            PortSide::In => &mut bus.in_ports,
            PortSide::Bi => &mut bus.bi_ports,
        };
        let cur = ports.get(&p).copied().unwrap_or(0);
        if prefix > cur {
            ports.insert(p, prefix);
            state.pins_left[p.index()] -= (prefix - cur) as i64;
        }
    };
    match mode {
        PortMode::Unidirectional => {
            grow(PortSide::Out, from);
            grow(PortSide::In, to);
        }
        PortMode::Bidirectional => {
            grow(PortSide::Bi, from);
            grow(PortSide::Bi, to);
        }
    }
    state.bus_values[mv.bus].insert(value, range);
    state.assignment.insert(
        op,
        BusAssignment {
            bus: BusId::new(mv.bus as u32),
            range,
        },
    );
    state.demand_left[from.index()] -= bits as i64;
    state.demand_left[to.index()] -= bits as i64;
}

#[derive(Clone, Copy)]
enum PortSide {
    Out,
    In,
    Bi,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::{ar_filter, elliptic, synthetic};

    #[test]
    fn quickstart_design_gets_a_connection() {
        let d = synthetic::quickstart();
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(1)).unwrap();
        assert!(ic.verify(d.cdfg()).is_empty(), "{:?}", ic.verify(d.cdfg()));
        assert_eq!(ic.assignment.len(), d.cdfg().io_ops().count());
    }

    #[test]
    fn ar_general_unidirectional_rates() {
        for rate in [3u32, 4, 5] {
            let d = ar_filter::general(rate, PortMode::Unidirectional);
            let ic =
                synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(rate)).unwrap();
            let problems = ic.verify(d.cdfg());
            assert!(problems.is_empty(), "rate {rate}: {problems:?}");
        }
    }

    #[test]
    fn bidirectional_uses_no_more_pins_than_unidirectional() {
        for rate in [3u32, 4, 5] {
            let du = ar_filter::general(rate, PortMode::Unidirectional);
            let db = ar_filter::general(rate, PortMode::Bidirectional);
            let icu = synthesize(
                du.cdfg(),
                PortMode::Unidirectional,
                &SearchConfig::new(rate),
            )
            .unwrap();
            let icb =
                synthesize(db.cdfg(), PortMode::Bidirectional, &SearchConfig::new(rate)).unwrap();
            let total = |ic: &Interconnect, n: usize| -> u32 {
                (1..n as u32)
                    .map(|p| ic.pins_used(mcs_cdfg::PartitionId::new(p)))
                    .sum()
            };
            let n = du.cdfg().partition_count();
            assert!(
                total(&icb, n) <= total(&icu, n),
                "rate {rate}: bidirectional {} > unidirectional {}",
                total(&icb, n),
                total(&icu, n)
            );
        }
    }

    #[test]
    fn elliptic_filter_connects_at_published_budgets() {
        for rate in [6u32, 7] {
            for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
                let d = elliptic::partitioned_with(rate, mode);
                let ic = synthesize(d.cdfg(), mode, &SearchConfig::new(rate)).unwrap();
                let problems = ic.verify(d.cdfg());
                assert!(problems.is_empty(), "rate {rate} {mode:?}: {problems:?}");
            }
        }
    }

    #[test]
    fn sharing_reduces_pins_on_the_ar_filter() {
        for rate in [3u32, 4, 5] {
            let d = ar_filter::general(rate, PortMode::Bidirectional);
            let plain =
                synthesize(d.cdfg(), PortMode::Bidirectional, &SearchConfig::new(rate)).unwrap();
            let shared = synthesize(
                d.cdfg(),
                PortMode::Bidirectional,
                &SearchConfig::new(rate).with_sharing(),
            )
            .unwrap();
            let total = |ic: &Interconnect| -> u32 {
                (1..5u32)
                    .map(|p| ic.pins_used(mcs_cdfg::PartitionId::new(p)))
                    .sum()
            };
            assert!(
                total(&shared) <= total(&plain),
                "rate {rate}: sharing {} > plain {}",
                total(&shared),
                total(&plain)
            );
            assert!(shared.verify(d.cdfg()).is_empty());
        }
    }

    #[test]
    fn same_value_transfers_share_a_bus_slot() {
        // The elliptic filter input feeds P1 and P2 (Ia/Ib); g2 should pull
        // both onto one bus where capacity permits.
        let d = elliptic::partitioned();
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(6)).unwrap();
        let ia = ic.assignment[&d.op_named("Ia")];
        let ib = ic.assignment[&d.op_named("Ib")];
        assert_eq!(ia.bus, ib.bus, "Ia and Ib should share one bus");
    }

    #[test]
    fn capable_carriers_reports_reassignment_options() {
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(3)).unwrap();
        for op in d.cdfg().io_ops() {
            let carriers = ic.capable_carriers(d.cdfg(), op);
            let assigned = ic.assignment[&op];
            assert!(
                carriers.iter().any(|c| c.bus == assigned.bus),
                "assigned bus must be among the capable carriers"
            );
        }
    }

    #[test]
    fn infeasible_budget_is_reported() {
        // Strangle the quickstart design's pins so no structure fits.
        let mut d = synthetic::quickstart();
        for p in 1..=2u32 {
            d.cdfg_mut()
                .partition_mut(mcs_cdfg::PartitionId::new(p))
                .total_pins = 4;
        }
        assert!(matches!(
            synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(1)),
            Err(ConnectError::NoConnectionFound)
        ));
    }

    #[test]
    fn zero_rate_is_rejected() {
        let d = synthetic::quickstart();
        assert!(matches!(
            synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(0)),
            Err(ConnectError::ZeroRate)
        ));
    }
}
