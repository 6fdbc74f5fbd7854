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
//! connection; exploration is additionally capped by a node budget. The
//! branch search builds unsplit buses only; with sub-bus sharing enabled,
//! [`share_pass`] then splits buses in two where a transfer fits beside a
//! previously assigned one (the prototype's at-most-two-sub-buses
//! restriction, Section 6.1.2).
//!
//! The search state is dense — per-bus widths, a flat table of port
//! widths by bus and partition, sorted value lists, the assigned buses
//! in assignment order — and every change to it goes on an undo trail.
//! Backtracking pops the trail back to a mark instead of restoring a
//! saved copy, so a node costs its own changes, never a copy of the
//! whole structure.

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

/// One I/O operation as the search sees it: the transfer's value,
/// endpoint partitions and width, looked up once per worker rather than
/// at every node.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IoOp {
    pub(crate) op: OpId,
    pub(crate) value: ValueId,
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) bits: u32,
}

impl IoOp {
    pub(crate) fn of(cdfg: &Cdfg, op: OpId) -> IoOp {
        let (value, from, to) = cdfg.op(op).io_endpoints().expect("io op");
        IoOp {
            op,
            value,
            from: from.index(),
            to: to.index(),
            bits: cdfg.io_bits(op),
        }
    }
}

/// One reversible change to a [`State`], recorded on its trail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Undo {
    /// A fresh bus was opened; it is the last bus.
    OpenBus,
    /// A bus widened from `old` bits.
    Widen { bus: usize, old: u32 },
    /// A port grew from `old` bits; the growth goes back to the port's
    /// partition's pin budget.
    Grow { slot: usize, old: u32 },
    /// A value joined a bus at position `at` of the bus's value list.
    Join { bus: usize, at: usize },
    /// An operation was assigned; its bits go back to both endpoints'
    /// demand.
    Assign { from: usize, to: usize, bits: u32 },
}

/// The partial connection structure of one search path, dense by bus and
/// partition, with the undo trail that restores any earlier node of the
/// path. Every bus is unsplit and every value rides a whole bus: the
/// branch search never splits (see [`share_pass`]).
#[cfg_attr(test, derive(Clone, Debug, PartialEq))]
pub(crate) struct State {
    mode: PortMode,
    nparts: usize,
    /// Width of each bus.
    pub(crate) widths: Vec<u32>,
    /// Port widths, one row per bus, indexed by partition: output ports
    /// then input ports in unidirectional mode, bidirectional ports in
    /// bidirectional mode. Zero means no port.
    ports: Vec<u32>,
    /// Values riding each bus, ascending.
    pub(crate) values: Vec<Vec<ValueId>>,
    /// Carrying bus of each assigned operation, in assignment order.
    assigned: Vec<usize>,
    /// Unallocated pins per partition.
    pins_left: Vec<i64>,
    /// Bits of still-unassigned transfers touching each partition.
    demand_left: Vec<i64>,
    trail: Vec<Undo>,
}

impl State {
    /// The root state: no buses, full pin budgets, and the bit demand of
    /// the operations in `io` on each partition.
    pub(crate) fn new(cdfg: &Cdfg, mode: PortMode, io: &[IoOp]) -> State {
        let nparts = cdfg.partition_count();
        let pins_left = cdfg
            .partitions()
            .iter()
            .map(|part| part.total_pins as i64)
            .collect();
        let mut demand_left = vec![0i64; nparts];
        for op in io {
            demand_left[op.from] += op.bits as i64;
            demand_left[op.to] += op.bits as i64;
        }
        State {
            mode,
            nparts,
            widths: Vec::new(),
            ports: Vec::new(),
            values: Vec::new(),
            assigned: Vec::new(),
            pins_left,
            demand_left,
            trail: Vec::new(),
        }
    }

    pub(crate) fn bus_count(&self) -> usize {
        self.widths.len()
    }

    fn row_len(&self) -> usize {
        match self.mode {
            PortMode::Unidirectional => 2 * self.nparts,
            PortMode::Bidirectional => self.nparts,
        }
    }

    fn row(&self, bus: usize) -> &[u32] {
        let n = self.row_len();
        &self.ports[bus * n..(bus + 1) * n]
    }

    /// Slot of the port through which partition `p` drives bus `bus`.
    fn src_slot(&self, bus: usize, p: usize) -> usize {
        bus * self.row_len() + p
    }

    /// Slot of the port through which partition `p` reads bus `bus`.
    fn dst_slot(&self, bus: usize, p: usize) -> usize {
        match self.mode {
            PortMode::Unidirectional => bus * self.row_len() + self.nparts + p,
            PortMode::Bidirectional => bus * self.row_len() + p,
        }
    }

    /// Current widths of the two endpoint ports `io` would use on `bus`.
    fn endpoint_ports(&self, bus: usize, io: &IoOp) -> (u32, u32) {
        (
            self.ports[self.src_slot(bus, io.from)],
            self.ports[self.dst_slot(bus, io.to)],
        )
    }

    /// Output, input and bidirectional port rows of `bus`, by partition;
    /// the rows the port mode does not use are empty.
    pub(crate) fn port_rows(&self, bus: usize) -> [&[u32]; 3] {
        let row = self.row(bus);
        match self.mode {
            PortMode::Unidirectional => {
                let (outs, ins) = row.split_at(self.nparts);
                [outs, ins, &[]]
            }
            PortMode::Bidirectional => [&[], &[], row],
        }
    }

    /// Whether buses `a` and `b` connect the same partitions in the same
    /// roles (Section 4.1.2: buses with the same topology are explored
    /// once).
    fn same_topology(&self, a: usize, b: usize) -> bool {
        self.row(a)
            .iter()
            .zip(self.row(b))
            .all(|(x, y)| (*x > 0) == (*y > 0))
    }

    /// The trail position to [`undo_to`](Self::undo_to) to get back to
    /// this state.
    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Reverts every change recorded since `mark`, newest first.
    pub(crate) fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail above mark") {
                Undo::OpenBus => {
                    self.widths.pop();
                    self.values.pop();
                    self.ports.truncate(self.ports.len() - self.row_len());
                }
                Undo::Widen { bus, old } => self.widths[bus] = old,
                Undo::Grow { slot, old } => {
                    self.pins_left[slot % self.nparts] += (self.ports[slot] - old) as i64;
                    self.ports[slot] = old;
                }
                Undo::Join { bus, at } => {
                    self.values[bus].remove(at);
                }
                Undo::Assign { from, to, bits } => {
                    self.assigned.pop();
                    self.demand_left[from] += bits as i64;
                    self.demand_left[to] += bits as i64;
                }
            }
        }
    }

    /// Grows port `slot` to `need` lines, charging the growth to the
    /// port's partition.
    fn grow(&mut self, slot: usize, need: u32) {
        let old = self.ports[slot];
        if need > old {
            self.ports[slot] = need;
            self.pins_left[slot % self.nparts] -= (need - old) as i64;
            self.trail.push(Undo::Grow { slot, old });
        }
    }

    /// The public connection structure of a complete assignment of `io`
    /// (in assignment order).
    pub(crate) fn to_interconnect(&self, io: &[IoOp]) -> Interconnect {
        let ports_of = |row: &[u32]| -> BTreeMap<PartitionId, u32> {
            row.iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0)
                .map(|(p, &w)| (PartitionId::new(p as u32), w))
                .collect()
        };
        let buses = (0..self.bus_count())
            .map(|b| {
                let [outs, ins, bis] = self.port_rows(b);
                Bus {
                    out_ports: ports_of(outs),
                    in_ports: ports_of(ins),
                    bi_ports: ports_of(bis),
                    sub_widths: vec![self.widths[b]],
                }
            })
            .collect();
        let assignment = io
            .iter()
            .zip(&self.assigned)
            .map(|(op, &b)| {
                let a = BusAssignment {
                    bus: BusId::new(b as u32),
                    range: SubRange::whole(1),
                };
                (op.op, a)
            })
            .collect();
        Interconnect {
            mode: self.mode,
            buses,
            assignment,
        }
    }
}

/// Static step-group windows of feedback values (Section 7.1), by value:
/// a bus can only host value sets whose windows admit distinct step
/// groups. Fixed for a design and rate, so one copy serves a whole
/// search.
pub(crate) struct GroupWindows {
    rate: u32,
    by_value: Vec<Option<Vec<u32>>>,
}

impl GroupWindows {
    pub(crate) fn new(cdfg: &Cdfg, rate: u32) -> Self {
        let mut by_value = vec![None; cdfg.values().len()];
        for (v, groups) in mcs_cdfg::timing::feedback_group_windows(cdfg, rate) {
            by_value[v.index()] = Some(groups.into_iter().collect());
        }
        GroupWindows { rate, by_value }
    }

    fn of(&self, v: ValueId) -> Option<&[u32]> {
        self.by_value.get(v.index()).and_then(|w| w.as_deref())
    }

    /// Can `values` plus `extra` each get their own step group,
    /// respecting feedback windows? A tiny augmenting-path matching of
    /// values to groups. Buses carrying a feedback value additionally
    /// keep one spare group: the static windows underestimate how far
    /// resource contention pushes the real ones, and a fully packed bus
    /// leaves the preloaded transfer no room to maneuver.
    pub(crate) fn assignable(&self, values: &[ValueId], extra: ValueId) -> bool {
        let l = self.rate as usize;
        let count = values.len() + 1;
        let has_feedback = values.iter().chain([&extra]).any(|&v| self.of(v).is_some());
        if !has_feedback {
            // Without windows every value fits any group.
            return count <= l;
        }
        if count > l.saturating_sub(1) {
            return false;
        }
        let joined: Vec<ValueId> = values.iter().copied().chain([extra]).collect();
        let mut owner: Vec<Option<usize>> = vec![None; l];
        (0..joined.len()).all(|i| self.give(i, &joined, &mut owner, &mut vec![false; l]))
    }

    fn give(
        &self,
        i: usize,
        values: &[ValueId],
        owner: &mut [Option<usize>],
        seen: &mut [bool],
    ) -> bool {
        let window = self.of(values[i]);
        for g in 0..owner.len() {
            if seen[g] || window.is_some_and(|w| !w.contains(&(g as u32))) {
                continue;
            }
            seen[g] = true;
            let free = match owner[g] {
                None => true,
                Some(j) => self.give(j, values, owner, seen),
            };
            if free {
                owner[g] = Some(i);
                return true;
            }
        }
        false
    }
}

/// One candidate of a search node: put the node's operation on bus
/// `bus` (`== bus_count()` opens a fresh bus).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Move {
    pub(crate) bus: usize,
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
    let windows = GroupWindows::new(cdfg, rate);
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
                    let riding: Vec<ValueId> = vals.keys().copied().collect();
                    if !windows.assignable(&riding, value) {
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
pub(crate) fn future_feasible(state: &State, rest: &[IoOp]) -> bool {
    'ops: for io in rest {
        let bits = io.bits as i64;
        let (pins_from, pins_to) = (state.pins_left[io.from], state.pins_left[io.to]);
        // Fresh bus.
        if pins_from >= bits && pins_to >= bits {
            continue;
        }
        for bus in 0..state.bus_count() {
            let (cur_f, cur_t) = state.endpoint_ports(bus, io);
            // Riding the low lines needs at most `bits` of port.
            if pins_from >= (bits - cur_f as i64).max(0) && pins_to >= (bits - cur_t as i64).max(0)
            {
                continue 'ops;
            }
        }
        return false;
    }
    true
}

/// Enumerates, scores, deduplicates and truncates the moves for one
/// operation into `moves` (cleared first, so a worker reuses one buffer
/// per depth). `branching_factor` and `cand` come from the worker plan so
/// portfolio members can disagree on how wide and in what order to
/// explore.
pub(crate) fn candidate_moves(
    state: &State,
    windows: &GroupWindows,
    branching_factor: usize,
    cand: crate::portfolio::CandidateOrder,
    io: &IoOp,
    moves: &mut Vec<Move>,
) {
    use crate::portfolio::CandidateOrder;
    moves.clear();
    for bus in 0..state.bus_count() {
        if let Some(gain) = score_move(state, windows, bus, io) {
            moves.push(Move { bus, gain });
        }
    }

    // Order by gain. Bus indices are distinct, so the order is total.
    moves.sort_unstable_by(|a, b| {
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
    // Keep the best move of each bus topology (Section 4.1.2), up to the
    // branching factor, compacting in place.
    let mut kept = 0;
    for i in 0..moves.len() {
        if kept == branching_factor.max(1) {
            break;
        }
        let mv = moves[i];
        if moves[..kept]
            .iter()
            .all(|k| !state.same_topology(k.bus, mv.bus))
        {
            moves[kept] = mv;
            kept += 1;
        }
    }
    moves.truncate(kept);

    // A fresh bus is always a candidate if pins allow: last resort for the
    // gain-ordered plans, first move for the fresh-first plan.
    let bits = io.bits as i64;
    if state.pins_left[io.from] >= bits && state.pins_left[io.to] >= bits {
        let mv = Move {
            bus: state.bus_count(),
            gain: windows.rate as f64, // g1 = g2 = 0, g3 = L free slots
        };
        if matches!(cand, CandidateOrder::FreshFirst) {
            moves.insert(0, mv);
        } else {
            moves.push(mv);
        }
    }
}

/// Scores putting `io` on bus `bus`; `None` when infeasible (pins or slot
/// capacity). The transfer rides the bus's low-order lines, so ports may
/// stay narrower than the bus (Figure 4.2).
fn score_move(state: &State, windows: &GroupWindows, bus: usize, io: &IoOp) -> Option<f64> {
    let (cur_f, cur_t) = state.endpoint_ports(bus, io);
    // Pin deltas for the two endpoint ports.
    let delta_from = io.bits.saturating_sub(cur_f) as i64;
    let delta_to = io.bits.saturating_sub(cur_t) as i64;
    if state.pins_left[io.from] < delta_from || state.pins_left[io.to] < delta_to {
        return None;
    }
    if io.from == io.to {
        return None;
    }

    // Slot capacity (Constraint 4.5): every value gets its own bus cycle
    // (sub-bus pairing is opportunistic, Section 6.2), and feedback
    // values additionally need a cycle inside their static group window
    // (Section 7.1) — the bus must admit a system of distinct groups.
    let values = &state.values[bus];
    let shares_value = values.binary_search(&io.value).is_ok();
    if !shares_value && !windows.assignable(values, io.value) {
        return None;
    }

    // Gain per Section 4.1.2 / Section 4.3.
    let wf = |p: usize| -> f64 { state.demand_left[p] as f64 / state.pins_left[p].max(1) as f64 };
    let g1 = match (cur_f > 0, cur_t > 0) {
        (false, false) => 0.0,
        (true, false) => wf(io.from),
        (false, true) => wf(io.to),
        (true, true) => wf(io.from) + wf(io.to),
    };
    let g2 = if shares_value { 1.0 } else { 0.0 };
    let g3 = (windows.rate as i64 - values.len() as i64).max(0) as f64;
    Some(10_000.0 * g1 + 100.0 * g2 + g3)
}

/// Puts `io` on bus `bus` (opening it when `bus == bus_count()`),
/// recording every change on the trail: the bus widens to the transfer,
/// both endpoint ports grow to its low-order lines, and the value joins
/// the bus unless it already rides there.
pub(crate) fn apply_move(state: &mut State, io: &IoOp, bus: usize) {
    if bus == state.bus_count() {
        state.widths.push(0);
        state.values.push(Vec::new());
        let len = state.ports.len() + state.row_len();
        state.ports.resize(len, 0);
        state.trail.push(Undo::OpenBus);
    }
    let old = state.widths[bus];
    if io.bits > old {
        state.widths[bus] = io.bits;
        state.trail.push(Undo::Widen { bus, old });
    }
    state.grow(state.src_slot(bus, io.from), io.bits);
    state.grow(state.dst_slot(bus, io.to), io.bits);
    if let Err(at) = state.values[bus].binary_search(&io.value) {
        state.values[bus].insert(at, io.value);
        state.trail.push(Undo::Join { bus, at });
    }
    state.assigned.push(bus);
    state.demand_left[io.from] -= io.bits as i64;
    state.demand_left[io.to] -= io.bits as i64;
    state.trail.push(Undo::Assign {
        from: io.from,
        to: io.to,
        bits: io.bits,
    });
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
