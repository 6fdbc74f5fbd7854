//! Scheduling with a given interchip connection (Section 4.2): the bus
//! allocator consulted by list scheduling, with *dynamic reassignment* of
//! I/O operations to communication buses.
//!
//! Every I/O operation arrives with an initial bus assignment from the
//! connection-synthesis step. Static allocation ("w/o reassignment" in
//! Tables 4.2/4.10) only ever uses that bus. Dynamic allocation lets the
//! operation ride any *capable* bus whose slot is free, provided the
//! not-yet-scheduled operations can still all be accommodated — checked as
//! a bipartite matching between pending transfers and free communication
//! slots, the augmenting-path search of Figure 4.5. For split buses
//! (Chapter 6) the slot supply is tokenized conservatively, mirroring the
//! pruned preemption of Section 6.2.

use std::collections::BTreeMap;

use mcs_cdfg::{BusId, Cdfg, OpId, ValueId};
use mcs_connect::{BusAssignment, Interconnect, SubRange};
use mcs_matching::max_bipartite_matching_seeded;
use mcs_metrics::{Histogram, MetricsHandle};
use mcs_obs::{Event, PlaceVerdict};

use crate::list::IoPolicy;

/// Accounting of the incremental (warm-started) Figure 4.5 matching:
/// how often the pending-feasibility matching ran, how many pairs the
/// previous matching seeded, and how many augmenting-path searches were
/// still needed. With a cold start every pair costs a search; the gap
/// between `seeded` and `augmentations` is the work the warm start
/// saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RematchStats {
    /// Pending-feasibility matchings run.
    pub rounds: u64,
    /// Pairs adopted from the previous matching without any search.
    pub seeded: u64,
    /// Augmenting-path searches run for unseeded values.
    pub augmentations: u64,
}

/// Occupancy of one bus slot: the sub-range used, the value carried, and
/// the exact control step of the transfer.
type SlotEntry = (SubRange, ValueId, i64);

/// A committed bus allocation: which bus/range carries a transfer and in
/// which control step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotPlacement {
    /// Carrying bus.
    pub bus: BusId,
    /// Control step of the transfer.
    pub step: i64,
    /// Sub-bus range used.
    pub range: SubRange,
}

/// The Section 4.2 bus allocator.
#[derive(Clone, Debug)]
pub struct BusPolicy {
    interconnect: Interconnect,
    rate: u32,
    allow_reassign: bool,
    /// Current planned bus per pending I/O operation.
    plan: BTreeMap<OpId, BusAssignment>,
    /// Values occupying each `(bus, group)`: `(range, value, step)`.
    /// Same-value transfers share a slot only at the *same step* — at
    /// different steps of one group the bus would carry two instances'
    /// copies simultaneously.
    used: BTreeMap<(u32, u32), Vec<SlotEntry>>,
    /// Final placements of scheduled transfers.
    placements: BTreeMap<OpId, SlotPlacement>,
    /// Transfers whose final bus differs from the initial assignment.
    reassigned: usize,
    /// Lazily computed static group windows for feedback values: the step
    /// groups their transfer can legally occupy, estimated from ASAP times
    /// (used to keep phase-1 placements from exhausting them).
    feedback_groups: Option<BTreeMap<ValueId, std::collections::BTreeSet<u32>>>,
    /// `(bus, group)` each pending value matched to in the last adopted
    /// Figure 4.5 matching — the warm-start seed for the next one.
    last_match: BTreeMap<ValueId, (u32, u32)>,
    /// Warm-start accounting (rounds / seeded pairs / augmentations).
    rematch: RematchStats,
    /// Telemetry handle whose event sink takes `BusReassign` events
    /// (inactive by default). Trial clones used by the preemption chain
    /// share the sink but never record — events are emitted only for
    /// committed placements.
    metrics: MetricsHandle,
    /// `sched.rematch_size` histogram: how many pending values each
    /// committed Figure 4.5 matching had to route. Like the event sink,
    /// trial clones share the cell but observations happen only at
    /// commit points, so discarded trials never pollute the counts.
    m_rematch_size: Histogram,
    /// Pending-value count of the most recent matching run — the value
    /// observed when a placement built on that matching commits.
    last_pending: u64,
}

impl BusPolicy {
    /// Creates the allocator for a synthesized connection structure.
    /// `allow_reassign = false` reproduces the static-assignment baseline
    /// of Tables 4.2 and 4.10.
    pub fn new(interconnect: Interconnect, rate: u32, allow_reassign: bool) -> Self {
        let plan = interconnect.assignment.clone();
        BusPolicy {
            interconnect,
            rate,
            allow_reassign,
            plan,
            used: BTreeMap::new(),
            placements: BTreeMap::new(),
            reassigned: 0,
            feedback_groups: None,
            last_match: BTreeMap::new(),
            rematch: RematchStats::default(),
            metrics: MetricsHandle::default(),
            m_rematch_size: Histogram::default(),
            last_pending: 0,
        }
    }

    /// Warm-start accounting of the incremental pending-feasibility
    /// matching. Trial clones used by the preemption chain share the
    /// counters' lineage the same way they share the event sink: only
    /// adopted trials contribute.
    pub fn rematch_stats(&self) -> RematchStats {
        self.rematch
    }

    /// Connects the `sched.rematch_size` histogram, and `BusReassign`
    /// events when the handle carries an event sink, to `metrics`.
    pub fn set_metrics(&mut self, metrics: &MetricsHandle) {
        self.m_rematch_size = metrics.histogram("sched.rematch_size");
        self.metrics = metrics.clone();
    }

    /// Final `(bus, step, range)` per scheduled transfer — the bus
    /// allocation tables (4.4, 4.6, 4.8, ...).
    pub fn placements(&self) -> &BTreeMap<OpId, SlotPlacement> {
        &self.placements
    }

    /// Number of transfers that ended up on a different bus than the
    /// initial assignment gave them.
    pub fn reassigned_count(&self) -> usize {
        self.reassigned
    }

    /// The connection structure being allocated.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    fn group(&self, step: i64) -> u32 {
        step.rem_euclid(self.rate as i64) as u32
    }

    /// Is `(bus, range)` free for `value` at `step`? Same-value transfers
    /// on the same range at the same step share the slot (Section 4.4.2's
    /// `(Ia, Ib)`).
    fn slot_free(&self, bus: BusId, range: SubRange, step: i64, value: ValueId) -> bool {
        let group = self.group(step);
        match self.used.get(&(bus.0, group)) {
            None => true,
            Some(entries) => entries.iter().all(|&(r, v, t)| {
                if v == value && r == range && t == step {
                    true
                } else {
                    !r.overlaps(range)
                }
            }),
        }
    }

    /// Static group windows for feedback values (Section 7.1): a transfer
    /// fed by a recursive edge of degree `d` must start within
    /// `[asap(producer) + cycles - d*L, asap(consumer) - 1]`; the groups of
    /// that interval are the slots worth reserving for it.
    fn feedback_groups(
        &mut self,
        cdfg: &Cdfg,
    ) -> BTreeMap<ValueId, std::collections::BTreeSet<u32>> {
        if let Some(fg) = &self.feedback_groups {
            return fg.clone();
        }
        let mut map: BTreeMap<ValueId, std::collections::BTreeSet<u32>> = BTreeMap::new();
        if let Ok(asap) = mcs_cdfg::timing::asap(cdfg) {
            let l = self.rate as i64;
            for op in cdfg.io_ops() {
                let recursive: Vec<_> = cdfg
                    .preds(op)
                    .iter()
                    .map(|&e| cdfg.edge(e))
                    .filter(|e| e.degree > 0)
                    .cloned()
                    .collect();
                if recursive.is_empty() {
                    continue;
                }
                let (v, _, _) = cdfg.op(op).io_endpoints().expect("io op");
                let lo = recursive
                    .iter()
                    .map(|e| {
                        asap.of(e.from).step + cdfg.op_cycles(e.from) as i64 - e.degree as i64 * l
                    })
                    .max()
                    .expect("nonempty");
                let hi = cdfg
                    .succs(op)
                    .iter()
                    .map(|&e| cdfg.edge(e))
                    .filter(|e| e.degree == 0)
                    .map(|e| asap.of(e.to).step - 1)
                    .min()
                    .unwrap_or(lo + l - 1);
                let mut groups = std::collections::BTreeSet::new();
                if hi - lo + 1 >= l {
                    groups.extend(0..self.rate);
                } else {
                    for s in lo..=hi.max(lo) {
                        groups.insert(s.rem_euclid(l) as u32);
                    }
                }
                map.entry(v)
                    .and_modify(|g| {
                        let inter: std::collections::BTreeSet<u32> =
                            g.intersection(&groups).copied().collect();
                        if !inter.is_empty() {
                            *g = inter;
                        }
                    })
                    .or_insert(groups);
            }
        }
        self.feedback_groups = Some(map.clone());
        map
    }

    /// Checks that all pending transfers (minus `except`) can still be
    /// accommodated given an extra tentative occupation, reassigning plans
    /// from the matching when successful.
    ///
    /// The matching works at *value* granularity: transfers of one value
    /// share a communication slot when co-scheduled (Section 2.2.1), and
    /// once one of them is placed the rest can free-ride its slot, so a
    /// value's pending transfers demand a single slot served by a bus
    /// capable of every one of them.
    fn pending_feasible(
        &mut self,
        cdfg: &Cdfg,
        except: OpId,
        extra: Option<(BusId, u32, SubRange, ValueId)>,
    ) -> bool {
        // Demand: pending values whose transfers are all unscheduled.
        let mut pending: BTreeMap<ValueId, Vec<OpId>> = BTreeMap::new();
        let mut placed_values: std::collections::BTreeSet<ValueId> =
            std::collections::BTreeSet::new();
        if let Some((_, _, _, v)) = extra {
            placed_values.insert(v);
        }
        for &op in self.plan.keys() {
            let (v, _, _) = cdfg.op(op).io_endpoints().expect("io op");
            if self.placements.contains_key(&op) {
                placed_values.insert(v);
            } else if op != except {
                pending.entry(v).or_default().push(op);
            }
        }
        // Values with a placed sibling free-ride that slot.
        pending.retain(|v, _| !placed_values.contains(v));
        self.last_pending = pending.len() as u64;
        if pending.is_empty() {
            return true;
        }

        let feedback_groups = self.feedback_groups(cdfg);
        // Supply: one planning token per (bus, group) — even a split bus is
        // planned with a single value per cycle; in-cycle sub-bus pairing
        // is opportunistic at placement time. A token exists for a value
        // when some sub-range it can ride is still free in that group.
        let mut units: Vec<(u32, u32)> = Vec::new();
        for h in 0..self.interconnect.buses.len() {
            for g in 0..self.rate {
                units.push((h as u32, g));
            }
        }
        let values: Vec<(&ValueId, &Vec<OpId>)> = pending.iter().collect();
        let mut adj: Vec<Vec<usize>> = Vec::with_capacity(values.len());
        let mut token_range: BTreeMap<(usize, usize), SubRange> = BTreeMap::new();
        for (vi, (v, ops)) in values.iter().enumerate() {
            // Ranges every transfer of the value can ride.
            let mut shared: Option<Vec<BusAssignment>> = None;
            for &op in ops.iter() {
                let carriers = self.interconnect.capable_carriers(cdfg, op);
                shared = Some(match shared {
                    None => carriers,
                    Some(prev) => prev.into_iter().filter(|c| carriers.contains(c)).collect(),
                });
            }
            let shared = shared.unwrap_or_default();
            let groups = feedback_groups.get(*v);
            let mut edges = Vec::new();
            for (ti, &(bus, g)) in units.iter().enumerate() {
                if !groups.is_none_or(|gs| gs.contains(&g)) {
                    continue;
                }
                let free_range = shared.iter().find(|c| {
                    if c.bus.0 != bus {
                        return false;
                    }
                    let mut free = self
                        .used
                        .get(&(bus, g))
                        .is_none_or(|es| es.iter().all(|&(er, _, _)| !er.overlaps(c.range)));
                    if let Some((eb, eg, er, _)) = extra {
                        if eb.0 == bus && eg == g && er.overlaps(c.range) {
                            free = false;
                        }
                    }
                    free
                });
                if let Some(c) = free_range {
                    token_range.insert((vi, ti), c.range);
                    edges.push(ti);
                }
            }
            adj.push(edges);
        }
        // Warm start from the last adopted matching: a value that kept
        // its `(bus, group)` unit is re-adopted without search, and only
        // the values the placement displaced get an augmenting path
        // (Section 4.2's "augment from the previous matching").
        let seed: Vec<(usize, usize)> = values
            .iter()
            .enumerate()
            .filter_map(|(vi, (v, _))| {
                let &(bus, g) = self.last_match.get(*v)?;
                Some((vi, bus as usize * self.rate as usize + g as usize))
            })
            .collect();
        let seeded = max_bipartite_matching_seeded(units.len(), &adj, &seed);
        self.rematch.rounds += 1;
        self.rematch.seeded += seeded.seeded as u64;
        self.rematch.augmentations += seeded.augmentations as u64;
        let matching = seeded.pairs;
        if matching.iter().any(Option::is_none) {
            return false;
        }
        // Adopt the matching as the new plan (dynamic reassignment).
        for (i, (v, ops)) in values.iter().enumerate() {
            let ti = matching[i].expect("perfect matching");
            let (bus, group) = units[ti];
            self.last_match.insert(**v, (bus, group));
            let range = token_range[&(i, ti)];
            for &op in ops.iter() {
                self.plan.insert(
                    op,
                    BusAssignment {
                        bus: BusId::new(bus),
                        range,
                    },
                );
            }
        }
        true
    }

    /// Relocates the value occupying `(bus, range-overlapping, group)` to
    /// another capable bus, recursively preempting further values if
    /// needed — the paper's preemption chain (Section 4.2, Figure 4.5),
    /// here applied to *scheduled* transfers whose control steps stay
    /// fixed while only their bus changes, so timing validity is
    /// untouched.
    fn evict_value(
        &mut self,
        cdfg: &Cdfg,
        bus: u32,
        range: SubRange,
        g: u32,
        visited: &mut std::collections::BTreeSet<u32>,
    ) -> bool {
        let occupants: Vec<SlotEntry> = match self.used.get(&(bus, g)) {
            None => return true,
            Some(es) => es
                .iter()
                .copied()
                .filter(|&(r, _, _)| r.overlaps(range))
                .collect(),
        };
        if occupants.is_empty() {
            return true;
        }
        for (occ_range, occ_value, occ_step) in occupants {
            // Ops of this value scheduled on this slot.
            let moved_ops: Vec<OpId> = self
                .placements
                .iter()
                .filter(|(&o, pl)| {
                    pl.bus.0 == bus
                        && pl.range == occ_range
                        && self.group(pl.step) == g
                        && cdfg.op(o).io_endpoints().map(|(v, _, _)| v) == Some(occ_value)
                })
                .map(|(&o, _)| o)
                .collect();
            if moved_ops.is_empty() {
                return false; // reserved by the pending op being placed
            }
            // A new home must carry every moved transfer at the same group.
            let mut shared: Option<Vec<BusAssignment>> = None;
            for &o in &moved_ops {
                let carriers = self.interconnect.capable_carriers(cdfg, o);
                shared = Some(match shared {
                    None => carriers,
                    Some(prev) => prev.into_iter().filter(|c| carriers.contains(c)).collect(),
                });
            }
            let mut done = false;
            for cand in shared.unwrap_or_default() {
                if cand.bus.0 == bus || visited.contains(&cand.bus.0) {
                    continue;
                }
                visited.insert(cand.bus.0);
                let free = self.slot_free(cand.bus, cand.range, occ_step, occ_value);
                if free || self.evict_value(cdfg, cand.bus.0, cand.range, g, visited) {
                    // Move the value.
                    if let Some(es) = self.used.get_mut(&(bus, g)) {
                        es.retain(|&(r, v, _)| !(r == occ_range && v == occ_value));
                    }
                    self.used
                        .entry((cand.bus.0, g))
                        .or_default()
                        .push((cand.range, occ_value, occ_step));
                    for &o in &moved_ops {
                        let pl = self.placements.get_mut(&o).expect("placed");
                        pl.bus = cand.bus;
                        pl.range = cand.range;
                        self.reassigned += 1;
                    }
                    done = true;
                    break;
                }
                visited.remove(&cand.bus.0);
            }
            if !done {
                return false;
            }
        }
        true
    }

    /// Records a committed bus move (no-op without an event sink).
    fn record_reassign(
        &self,
        op: OpId,
        step: i64,
        from: Option<BusAssignment>,
        to: BusId,
        chain: u32,
    ) {
        if self.metrics.tracing() {
            self.metrics.record(Event::BusReassign {
                op: op.0,
                step,
                from_bus: from.map(|a| a.bus.0).unwrap_or(to.0),
                to_bus: to.0,
                augmenting_path_len: chain,
            });
        }
    }

    /// Attempts to allocate a communication slot for `op` at `step`.
    pub fn try_place_impl(&mut self, cdfg: &Cdfg, op: OpId, step: i64) -> bool {
        self.place_explained(cdfg, op, step).placed()
    }

    /// Like [`BusPolicy::try_place_impl`], but reports the accurate
    /// rejection reason instead of a bare `false`:
    ///
    /// * [`PlaceVerdict::NoCapableBus`] — no bus can geometrically carry
    ///   the transfer, so no candidate slot existed at all;
    /// * [`PlaceVerdict::SameCycleConflict`] — capable buses exist but
    ///   every candidate slot in the step's group is occupied by a
    ///   conflicting transfer;
    /// * [`PlaceVerdict::PendingInfeasible`] — a free slot exists but
    ///   taking it would strand a not-yet-scheduled transfer (the
    ///   Figure 4.5 matching loses perfection).
    ///
    /// These used to be conflated, making postponement undiagnosable.
    pub fn place_explained(&mut self, cdfg: &Cdfg, op: OpId, step: i64) -> PlaceVerdict {
        let Some((value, _, _)) = cdfg.op(op).io_endpoints() else {
            return PlaceVerdict::Placed;
        };
        let g = self.group(step);
        let original = self.interconnect.assignment.get(&op).copied();
        let mut options: Vec<BusAssignment> = Vec::new();
        if self.allow_reassign {
            let planned = self.plan.get(&op).copied();
            let mut carriers = self.interconnect.capable_carriers(cdfg, op);
            carriers.sort_by_key(|c| (Some(*c) != planned, Some(*c) != original, c.bus, c.range));
            options = carriers;
        } else if let Some(a) = original {
            options.push(a);
        }
        if options.is_empty() {
            return PlaceVerdict::NoCapableBus;
        }
        let mut saw_free_slot = false;
        // Every placement must keep the remaining transfers routable — the
        // invariant behind the paper's preemption chains: whenever the
        // bipartite matching between pending transfers and free slots is
        // perfect before a step, some admissible placement order keeps it
        // perfect, so the allocator never strands a transfer. Same-value
        // free rides cannot shrink the free-slot supply and skip the
        // check.
        for cand in &options {
            let cand = *cand;
            if !self.slot_free(cand.bus, cand.range, step, value) {
                continue;
            }
            let sharing = self.used.get(&(cand.bus.0, g)).is_some_and(|es| {
                es.iter()
                    .any(|&(r, v, t)| v == value && r == cand.range && t == step)
            });
            if !sharing {
                saw_free_slot = true;
            }
            let ran_matching = !sharing && self.allow_reassign;
            let admissible = sharing
                || !self.allow_reassign
                || self.pending_feasible(cdfg, op, Some((cand.bus, g, cand.range, value)));
            if admissible {
                if ran_matching {
                    self.m_rematch_size.observe(self.last_pending);
                }
                self.used
                    .entry((cand.bus.0, g))
                    .or_default()
                    .push((cand.range, value, step));
                self.placements.insert(
                    op,
                    SlotPlacement {
                        bus: cand.bus,
                        step,
                        range: cand.range,
                    },
                );
                if original.map(|a| a.bus) != Some(cand.bus) {
                    self.reassigned += 1;
                    self.record_reassign(op, step, original, cand.bus, 0);
                }
                return if sharing {
                    PlaceVerdict::SharedSlot
                } else {
                    PlaceVerdict::Placed
                };
            }
        }
        // Last resort, for feedback transfers only: their placement window
        // is bounded (Section 7.1), so instead of postponing, run a
        // preemption chain over already-scheduled transfers — bus changes
        // only, steps untouched (Section 4.2's augmentation, applied at
        // the point the paper's negative-step preloads are committed).
        let is_feedback = cdfg.preds(op).iter().any(|&e| cdfg.edge(e).degree > 0);
        if self.allow_reassign && is_feedback {
            let before = self.reassigned;
            let carriers = self.interconnect.capable_carriers(cdfg, op);
            for cand in carriers {
                let mut visited = std::collections::BTreeSet::new();
                visited.insert(cand.bus.0);
                let mut trial = self.clone();
                if !(trial.evict_value(cdfg, cand.bus.0, cand.range, g, &mut visited)
                    && trial.slot_free(cand.bus, cand.range, step, value))
                {
                    continue;
                }
                trial
                    .used
                    .entry((cand.bus.0, g))
                    .or_default()
                    .push((cand.range, value, step));
                trial.placements.insert(
                    op,
                    SlotPlacement {
                        bus: cand.bus,
                        step,
                        range: cand.range,
                    },
                );
                if trial.pending_feasible(cdfg, op, None) {
                    *self = trial;
                    self.m_rematch_size.observe(self.last_pending);
                    // Scheduled transfers moved by the eviction chain.
                    let chain = (self.reassigned - before) as u32;
                    let moved = original.map(|a| a.bus) != Some(cand.bus);
                    if moved {
                        self.reassigned += 1;
                    }
                    if moved || chain > 0 {
                        self.record_reassign(op, step, original, cand.bus, chain);
                    }
                    return PlaceVerdict::Placed;
                }
            }
        }
        if saw_free_slot {
            PlaceVerdict::PendingInfeasible
        } else {
            PlaceVerdict::SameCycleConflict
        }
    }
}

impl IoPolicy for BusPolicy {
    fn try_place(&mut self, cdfg: &Cdfg, op: OpId, step: i64) -> bool {
        self.try_place_impl(cdfg, op, step)
    }

    fn try_place_explained(&mut self, cdfg: &Cdfg, op: OpId, step: i64) -> PlaceVerdict {
        self.place_explained(cdfg, op, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_schedule, ListConfig};
    use crate::schedule::validate;
    use mcs_cdfg::designs::{ar_filter, synthetic};
    use mcs_cdfg::PortMode;
    use mcs_connect::{synthesize, SearchConfig};

    #[test]
    fn quickstart_schedules_over_its_connection() {
        let d = synthetic::quickstart();
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(1)).unwrap();
        let mut policy = BusPolicy::new(ic, 1, true);
        let s = list_schedule(d.cdfg(), &ListConfig::new(1), &mut policy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
        assert_eq!(policy.placements().len(), d.cdfg().io_ops().count());
    }

    #[test]
    fn no_two_values_share_a_slot() {
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(3)).unwrap();
        let mut policy = BusPolicy::new(ic, 3, true);
        let s = list_schedule(d.cdfg(), &ListConfig::new(3), &mut policy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
        // Group placements by (bus, group): overlapping ranges only for
        // the same value.
        let mut seen: BTreeMap<(u32, u32), Vec<(SubRange, mcs_cdfg::ValueId)>> = BTreeMap::new();
        for (&op, pl) in policy.placements() {
            let (v, _, _) = d.cdfg().op(op).io_endpoints().unwrap();
            let g = pl.step.rem_euclid(3) as u32;
            let entry = seen.entry((pl.bus.0, g)).or_default();
            for &(r, v2) in entry.iter() {
                if r.overlaps(pl.range) {
                    assert_eq!(v2, v, "conflicting values on one bus slot");
                }
            }
            entry.push((pl.range, v));
        }
    }

    #[test]
    fn both_allocation_modes_produce_valid_schedules() {
        // The with/without-reassignment pipe-length comparison of Table 4.2
        // is asserted at the flow level (the flow keeps the better of the
        // two); here both raw policies must at least yield schedules that
        // pass full validation.
        for rate in [3u32, 4, 5] {
            let d = ar_filter::general(rate, PortMode::Unidirectional);
            let ic =
                synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(rate)).unwrap();
            for reassign in [true, false] {
                let mut policy = BusPolicy::new(ic.clone(), rate, reassign);
                let s = list_schedule(d.cdfg(), &ListConfig::new(rate), &mut policy)
                    .unwrap_or_else(|e| panic!("rate {rate} reassign {reassign}: {e}"));
                assert_eq!(validate(d.cdfg(), &s), vec![]);
                assert_eq!(policy.placements().len(), d.cdfg().io_ops().count());
            }
        }
    }

    #[test]
    fn static_assignment_uses_only_the_initial_bus() {
        let d = synthetic::quickstart();
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(1)).unwrap();
        let initial = ic.assignment.clone();
        let mut policy = BusPolicy::new(ic, 1, false);
        if let Ok(s) = list_schedule(d.cdfg(), &ListConfig::new(1), &mut policy) {
            assert_eq!(validate(d.cdfg(), &s), vec![]);
            for (&op, pl) in policy.placements() {
                assert_eq!(pl.bus, initial[&op].bus);
            }
            assert_eq!(policy.reassigned_count(), 0);
        }
    }

    /// A hand-built one-bus structure: P1 drives, P2 and the environment
    /// listen, and three transfers (two of the same value) all start
    /// planned onto the single bus.
    fn one_bus_fixture() -> (mcs_cdfg::Cdfg, Interconnect, Vec<OpId>) {
        use mcs_cdfg::{CdfgBuilder, Library, OperatorClass, PartitionId};
        use mcs_connect::Bus;

        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 64);
        let p2 = b.partition("P2", 64);
        let (_, a) = b.input("a", 8, p1);
        let (_, v) = b.func("v", OperatorClass::Add, p1, &[(a, 0)], 8);
        let (_, w) = b.func("w", OperatorClass::Add, p1, &[(a, 0)], 8);
        let (va, _) = b.io("A", v, p2);
        let vo = b.output("O", v);
        let (wb, _) = b.io("B", w, p2);
        let g = b.finish().unwrap();

        let mut bus = Bus::new();
        bus.sub_widths = vec![8];
        bus.out_ports.insert(p1, 8);
        bus.in_ports.insert(p2, 8);
        bus.in_ports.insert(PartitionId::ENVIRONMENT, 8);
        let mut ic = Interconnect {
            mode: PortMode::Unidirectional,
            buses: vec![bus],
            assignment: BTreeMap::new(),
        };
        let whole = SubRange { lo: 0, hi: 0 };
        for op in [va, vo, wb] {
            ic.assignment.insert(
                op,
                BusAssignment {
                    bus: BusId(0),
                    range: whole,
                },
            );
        }
        (g, ic, vec![va, vo, wb])
    }

    #[test]
    fn same_value_same_step_shares_the_slot() {
        let (g, ic, ops) = one_bus_fixture();
        let mut policy = BusPolicy::new(ic, 2, false);
        assert!(policy.try_place_impl(&g, ops[0], 2), "first transfer");
        assert!(
            policy.try_place_impl(&g, ops[1], 2),
            "same value at the same step rides along"
        );
        assert_eq!(policy.placements().len(), 2);
    }

    #[test]
    fn same_value_different_step_of_one_group_conflicts() {
        // Steps 2 and 4 are both group 0 at rate 2 but belong to different
        // pipeline instances: the bus would carry two different words.
        let (g, ic, ops) = one_bus_fixture();
        let mut policy = BusPolicy::new(ic, 2, false);
        assert!(policy.try_place_impl(&g, ops[0], 2));
        assert!(!policy.try_place_impl(&g, ops[1], 4), "instances collide");
        assert!(policy.try_place_impl(&g, ops[1], 3), "other group is free");
    }

    #[test]
    fn different_values_never_share_a_group() {
        let (g, ic, ops) = one_bus_fixture();
        let mut policy = BusPolicy::new(ic, 2, false);
        assert!(policy.try_place_impl(&g, ops[0], 2));
        assert!(!policy.try_place_impl(&g, ops[2], 2), "same step");
        assert!(!policy.try_place_impl(&g, ops[2], 4), "same group");
        assert!(policy.try_place_impl(&g, ops[2], 3), "other group");
    }

    #[test]
    fn rejection_reasons_are_split() {
        let (g, ic, ops) = one_bus_fixture();
        // Same-cycle conflict: a capable bus exists but another value owns
        // the slot in this group.
        let mut policy = BusPolicy::new(ic.clone(), 2, false);
        assert_eq!(policy.place_explained(&g, ops[0], 2), PlaceVerdict::Placed);
        assert_eq!(
            policy.place_explained(&g, ops[1], 2),
            PlaceVerdict::SharedSlot,
            "same value, same step rides along"
        );
        assert_eq!(
            policy.place_explained(&g, ops[2], 2),
            PlaceVerdict::SameCycleConflict
        );
        assert_eq!(
            policy.place_explained(&g, ops[2], 4),
            PlaceVerdict::SameCycleConflict,
            "same group of another instance is still a transfer conflict"
        );
        assert_eq!(policy.place_explained(&g, ops[2], 3), PlaceVerdict::Placed);

        // No capable bus: static allocation with no initial assignment has
        // no candidate at all — distinct from a full slot.
        let mut bare = ic.clone();
        bare.assignment.remove(&ops[2]);
        let mut policy = BusPolicy::new(bare, 2, false);
        assert_eq!(
            policy.place_explained(&g, ops[2], 3),
            PlaceVerdict::NoCapableBus
        );

        // Pending-infeasible: at rate 1 the lone bus slot must serve two
        // values; taking it for one strands the other, so the slot is free
        // yet the placement is inadmissible.
        let mut policy = BusPolicy::new(ic, 1, true);
        assert_eq!(
            policy.place_explained(&g, ops[0], 0),
            PlaceVerdict::PendingInfeasible
        );
    }

    #[test]
    fn explained_and_bool_paths_agree() {
        let (g, ic, ops) = one_bus_fixture();
        let mut a = BusPolicy::new(ic.clone(), 2, true);
        let mut b = BusPolicy::new(ic, 2, true);
        for &op in &ops {
            for step in 2..6 {
                assert_eq!(
                    a.try_place_impl(&g, op, step),
                    b.place_explained(&g, op, step).placed(),
                    "op {op} step {step}"
                );
            }
        }
        assert_eq!(a.placements(), b.placements());
        assert_eq!(a.reassigned_count(), b.reassigned_count());
    }

    #[test]
    fn incremental_rematch_reuses_prior_matching() {
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(3)).unwrap();
        let mut policy = BusPolicy::new(ic, 3, true);
        let s = list_schedule(d.cdfg(), &ListConfig::new(3), &mut policy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
        let stats = policy.rematch_stats();
        assert!(stats.rounds > 0, "scheduling must run the matching");
        assert!(
            stats.seeded > 0,
            "successive matchings must reuse prior pairs: {stats:?}"
        );
        // The warm start must save work: across all rounds, fewer
        // augmenting searches than a cold start (which pays one search
        // per pair, i.e. seeded + augmentations in total).
        assert!(
            stats.augmentations < stats.seeded + stats.augmentations,
            "warm start saved no searches: {stats:?}"
        );
    }

    #[test]
    fn metrics_observe_committed_rematch_sizes() {
        use mcs_metrics::{MetricsHandle, Registry};
        use std::sync::Arc;
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(3)).unwrap();
        let reg = Arc::new(Registry::new());
        let mut policy = BusPolicy::new(ic, 3, true);
        policy.set_metrics(&MetricsHandle::new(reg.clone()));
        let s = list_schedule(d.cdfg(), &ListConfig::new(3), &mut policy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
        let snap = reg.snapshot();
        let h = &snap.histograms["sched.rematch_size"];
        // Only committed matchings observe, so at most one observation
        // per matching round, and the largest matching cannot exceed
        // the number of transferred values.
        assert!(h.count > 0, "dynamic allocation must run matchings");
        assert!(h.count <= policy.rematch_stats().rounds);
        let values: std::collections::BTreeSet<_> = d
            .cdfg()
            .io_ops()
            .filter_map(|op| d.cdfg().op(op).io_endpoints().map(|(v, _, _)| v))
            .collect();
        assert!(h.max <= values.len() as u64);
    }

    #[test]
    fn non_io_operations_place_trivially() {
        let (g, ic, _) = one_bus_fixture();
        let mut policy = BusPolicy::new(ic, 2, false);
        let func = g.func_ops().next().unwrap();
        assert!(policy.try_place_impl(&g, func, 0));
        assert!(policy.placements().is_empty(), "no slot consumed");
    }
}
