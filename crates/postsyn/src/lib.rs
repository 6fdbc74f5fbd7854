//! # mcs-postsyn
//!
//! Interchip connection synthesis *after* scheduling (Chapter 5 of the
//! paper).
//!
//! Once every I/O operation has a control-step group, the problem of
//! building buses that minimize total I/O pins is a maximum-gain clique
//! partitioning over the compatibility graph of Figure 5.1: transfers in
//! different step groups may share a bus; transfers in the same group may
//! share only if they move the same value in the same control step. The
//! graph's layered structure lets cliques be assembled by a series of
//! maximum-weight bipartite matchings (the Hungarian algorithm), merging
//! one group at a time into supernodes (Figure 5.2) — `O(L * n^3)`
//! overall.
//!
//! The edge weight between two compatible transfers follows Section 5.2:
//! the pins they can share at each common endpoint,
//! `sum_i wf_i * min(width_i(u), width_i(v))`.
//!
//! ```
//! use mcs_cdfg::{designs::ar_filter, PortMode};
//! use mcs_postsyn::{connect_after_scheduling, PostsynConfig};
//! use mcs_sched::{fds_schedule, FdsConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = ar_filter::general(3, PortMode::Unidirectional);
//! let schedule = fds_schedule(design.cdfg(), &FdsConfig { rate: 3, pipe_length: 10 })?;
//! let ic = connect_after_scheduling(
//!     design.cdfg(),
//!     &schedule,
//!     PortMode::Unidirectional,
//!     &PostsynConfig::new(3),
//! );
//! assert!(!ic.assignment.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use mcs_cdfg::{BusId, Cdfg, OpId, PartitionId, PortMode};
use mcs_connect::{Bus, BusAssignment, Interconnect, SubRange};
use mcs_matching::max_weight_matching;
use mcs_metrics::MetricsHandle;
use mcs_sched::Schedule;

/// Parameters of the post-scheduling connection synthesis.
#[derive(Clone, Debug)]
pub struct PostsynConfig {
    /// Initiation rate `L` of the schedule.
    pub rate: u32,
    /// Per-partition weighting factors `wf_i` prioritizing whose pins to
    /// share first; 1 everywhere by default (then the total weight equals
    /// the number of pins saved).
    pub weights: BTreeMap<PartitionId, i64>,
    /// Telemetry handle for the construction counters
    /// (`postsyn.clique_merges`, `postsyn.buses`, `postsyn.transfers`,
    /// summed over every construction run through it). Disconnected by
    /// default.
    pub metrics: MetricsHandle,
}

impl PostsynConfig {
    /// Uniform weights.
    pub fn new(rate: u32) -> Self {
        PostsynConfig {
            rate,
            weights: BTreeMap::new(),
            metrics: MetricsHandle::default(),
        }
    }

    /// Prioritizes pin sharing on one partition.
    pub fn weight(mut self, p: PartitionId, wf: i64) -> Self {
        self.weights.insert(p, wf);
        self
    }
}

/// A (super)node of the compatibility graph: transfers committed to share
/// one communication bus.
#[derive(Clone, Debug, Default)]
struct Supernode {
    ops: Vec<OpId>,
    /// Port widths the bus needs per partition: `(out, in)` for
    /// unidirectional designs; bidirectional folds into the first slot.
    need: BTreeMap<PartitionId, (u32, u32)>,
    /// Step groups whose slot this clique occupies.
    groups: Vec<u32>,
}

impl Supernode {
    fn leaf(cdfg: &Cdfg, mode: PortMode, ops: Vec<OpId>, group: u32) -> Self {
        let mut need: BTreeMap<PartitionId, (u32, u32)> = BTreeMap::new();
        for &op in &ops {
            let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
            let bits = cdfg.io_bits(op);
            match mode {
                PortMode::Unidirectional => {
                    let e = need.entry(from).or_default();
                    e.0 = e.0.max(bits);
                    let e = need.entry(to).or_default();
                    e.1 = e.1.max(bits);
                }
                PortMode::Bidirectional => {
                    let e = need.entry(from).or_default();
                    e.0 = e.0.max(bits);
                    let e = need.entry(to).or_default();
                    e.0 = e.0.max(bits);
                }
            }
        }
        Supernode {
            ops,
            need,
            groups: vec![group],
        }
    }

    /// The Section 5.2 weight: pins shareable if `self` and `other` ride
    /// one bus.
    fn weight(&self, other: &Supernode, weights: &BTreeMap<PartitionId, i64>) -> i64 {
        let mut w = 0i64;
        for (p, &(o1, i1)) in &self.need {
            if let Some(&(o2, i2)) = other.need.get(p) {
                let wf = weights.get(p).copied().unwrap_or(1);
                w += wf * (o1.min(o2) as i64 + i1.min(i2) as i64);
            }
        }
        w
    }

    fn merge(&mut self, other: Supernode) {
        self.ops.extend(other.ops);
        for (p, (o, i)) in other.need {
            let e = self.need.entry(p).or_default();
            e.0 = e.0.max(o);
            e.1 = e.1.max(i);
        }
        self.groups.extend(other.groups);
    }
}

/// Builds the interchip connection for a finished schedule by clique
/// partitioning of the compatibility graph (Figure 5.2), minimizing total
/// I/O pins. Every resulting clique becomes one communication bus.
pub fn connect_after_scheduling(
    cdfg: &Cdfg,
    schedule: &Schedule,
    mode: PortMode,
    cfg: &PostsynConfig,
) -> Interconnect {
    let mut groups = leaf_groups(cdfg, schedule, mode, cfg.rate);

    // Process the largest group first (Figure 5.2 orders by size).
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
    let mut merges = 0u64;
    let mut combined = groups.remove(0);
    for next in groups {
        if next.is_empty() {
            continue;
        }
        // Max-weight matching between the combined supernodes and the next
        // group; a pair is forbidden when they already share a step group
        // (same-group transfers of different values conflict).
        let table: Vec<Vec<Option<i64>>> = combined
            .iter()
            .map(|u| {
                next.iter()
                    .map(|v| {
                        if u.groups.iter().any(|g| v.groups.contains(g)) {
                            None
                        } else {
                            Some(u.weight(v, &cfg.weights))
                        }
                    })
                    .collect()
            })
            .collect();
        let m = max_weight_matching(&table);
        let mut next: Vec<Option<Supernode>> = next.into_iter().map(Some).collect();
        for (i, pair) in m.pairs.iter().enumerate() {
            if let Some(j) = pair {
                combined[i].merge(next[*j].take().expect("matched once"));
                merges += 1;
            }
        }
        for sn in next.into_iter().flatten() {
            combined.push(sn);
        }
    }

    cfg.metrics.add("postsyn.clique_merges", merges);
    cliques_to_interconnect(cdfg, mode, &combined, cfg)
}

/// Budget-aware fallback constructor: deterministic first-fit-decreasing
/// packing of the leaf supernodes instead of maximum-weight matching.
///
/// The clique matching of [`connect_after_scheduling`] maximizes *pins
/// shared per merge*, which can strand wide transfers on their own buses
/// and overrun a tight budget the pin checker certified. This packer
/// places supernodes widest-first into the existing bus whose weighted
/// port-width growth is smallest (merging never costs more than a fresh
/// bus), opening a new bus only when every existing one shares a step
/// group. It is a complementary heuristic, not a completeness guarantee:
/// the checker's per-group load bound treats pins as bit-splittable,
/// while a bus carries each transfer whole, so the minimum bus cover can
/// genuinely exceed the certified load bound (e.g. groups `{3,3}` and
/// `{2,2,2}` have load 6 but no cover under 8 pins).
pub fn connect_packed(
    cdfg: &Cdfg,
    schedule: &Schedule,
    mode: PortMode,
    cfg: &PostsynConfig,
) -> Interconnect {
    let groups = leaf_groups(cdfg, schedule, mode, cfg.rate);
    let mut leaves: Vec<Supernode> = groups.into_iter().flatten().collect();
    // Widest (most pin-hungry) first; ties broken by the lowest op id so
    // the packing is deterministic across runs.
    leaves.sort_by_key(|sn| {
        let need: i64 = sn.need.values().map(|&(o, i)| (o + i) as i64).sum();
        (std::cmp::Reverse(need), sn.ops.iter().min().copied())
    });
    let mut packed: Vec<Supernode> = Vec::new();
    for sn in leaves {
        let mut best: Option<(i64, usize)> = None;
        for (h, bus) in packed.iter().enumerate() {
            if sn.groups.iter().any(|g| bus.groups.contains(g)) {
                continue;
            }
            let mut grow = 0i64;
            for (p, &(o, i)) in &sn.need {
                let (bo, bi) = bus.need.get(p).copied().unwrap_or((0, 0));
                let wf = cfg.weights.get(p).copied().unwrap_or(1);
                grow += wf * (o.max(bo) - bo) as i64 + wf * (i.max(bi) - bi) as i64;
            }
            if best.is_none_or(|(g, _)| grow < g) {
                best = Some((grow, h));
            }
        }
        match best {
            Some((_, h)) => packed[h].merge(sn),
            None => packed.push(sn),
        }
    }
    cliques_to_interconnect(cdfg, mode, &packed, cfg)
}

/// Groups `G_k` of transfers by step group; subgroups by (value, exact
/// step) merge into leaf supernodes (they share one slot for free).
fn leaf_groups(cdfg: &Cdfg, schedule: &Schedule, mode: PortMode, rate: u32) -> Vec<Vec<Supernode>> {
    let mut groups: Vec<Vec<Supernode>> = vec![Vec::new(); rate as usize];
    let mut subgroups: BTreeMap<(u32, mcs_cdfg::ValueId, i64), Vec<OpId>> = BTreeMap::new();
    for op in cdfg.io_ops() {
        let (v, _, _) = cdfg.op(op).io_endpoints().expect("io op");
        let g = schedule.group_of(op);
        let step = schedule.of(op).step;
        subgroups.entry((g, v, step)).or_default().push(op);
    }
    for ((g, _, _), ops) in subgroups {
        groups[g as usize].push(Supernode::leaf(cdfg, mode, ops, g));
    }
    groups
}

/// Emits one bus per final supernode.
fn cliques_to_interconnect(
    cdfg: &Cdfg,
    mode: PortMode,
    combined: &[Supernode],
    cfg: &PostsynConfig,
) -> Interconnect {
    let mut buses = Vec::new();
    let mut assignment = BTreeMap::new();
    for (h, sn) in combined.iter().enumerate() {
        let mut bus = Bus::new();
        let width = sn.ops.iter().map(|&op| cdfg.io_bits(op)).max().unwrap_or(0);
        bus.sub_widths = vec![width];
        for &op in &sn.ops {
            let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
            bus.extend_ports(mode, from, to, cdfg.io_bits(op));
            assignment.insert(
                op,
                BusAssignment {
                    bus: BusId::new(h as u32),
                    range: SubRange { lo: 0, hi: 0 },
                },
            );
        }
        buses.push(bus);
    }
    cfg.metrics.add("postsyn.buses", buses.len() as u64);
    cfg.metrics
        .add("postsyn.transfers", assignment.len() as u64);
    Interconnect {
        mode,
        buses,
        assignment,
    }
}

/// Checks that an interconnect is consistent with a schedule: every
/// transfer has a capable carrier ([`Interconnect::carry_problems`]) and at
/// most one value rides a bus per step group (the conflict-freedom the
/// clique structure guarantees). Returns violations as strings (pin-budget
/// overruns are *not* flagged here — Chapter 5 reports the pins required
/// rather than fitting a budget).
pub fn verify_against_schedule(cdfg: &Cdfg, schedule: &Schedule, ic: &Interconnect) -> Vec<String> {
    let mut problems = ic.carry_problems(cdfg);
    let mut slot: BTreeMap<(u32, u32), (mcs_cdfg::ValueId, i64)> = BTreeMap::new();
    for (&op, a) in &ic.assignment {
        let (v, _, _) = cdfg.op(op).io_endpoints().expect("io op");
        let g = schedule.group_of(op);
        let step = schedule.of(op).step;
        match slot.get(&(a.bus.0, g)) {
            None => {
                slot.insert((a.bus.0, g), (v, step));
            }
            Some(&(v2, s2)) => {
                if v2 != v || s2 != step {
                    problems.push(format!(
                        "bus {} group {g}: {op} conflicts with another transfer",
                        a.bus
                    ));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::{ar_filter, elliptic, synthetic};
    use mcs_sched::{fds_schedule, FdsConfig};

    fn pins(cdfg: &Cdfg, ic: &Interconnect) -> u32 {
        (0..cdfg.partition_count())
            .map(|p| ic.pins_used(PartitionId::new(p as u32)))
            .sum()
    }

    #[test]
    fn quickstart_connection_is_conflict_free() {
        let d = synthetic::quickstart();
        let s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 2,
                pipe_length: 6,
            },
        )
        .unwrap();
        let ic = connect_after_scheduling(
            d.cdfg(),
            &s,
            PortMode::Unidirectional,
            &PostsynConfig::new(2),
        );
        assert_eq!(
            verify_against_schedule(d.cdfg(), &s, &ic),
            Vec::<String>::new()
        );
    }

    #[test]
    fn sharing_beats_one_bus_per_transfer() {
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 3,
                pipe_length: 10,
            },
        )
        .unwrap();
        let ic = connect_after_scheduling(
            d.cdfg(),
            &s,
            PortMode::Unidirectional,
            &PostsynConfig::new(3),
        );
        assert!(verify_against_schedule(d.cdfg(), &s, &ic).is_empty());
        // One bus per transfer costs 2 * bits per op.
        let naive: u32 = d.cdfg().io_ops().map(|op| 2 * d.cdfg().io_bits(op)).sum();
        assert!(pins(d.cdfg(), &ic) < naive);
        // No more buses than transfers; at least ceil(ops / L).
        let n = d.cdfg().io_ops().count();
        assert!(ic.buses.len() <= n);
        assert!(ic.buses.len() as u32 * 3 >= n as u32);
    }

    #[test]
    fn bidirectional_mode_shares_more() {
        let rate = 4;
        let d = ar_filter::general(rate, PortMode::Bidirectional);
        let s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate,
                pipe_length: 12,
            },
        )
        .unwrap();
        let uni = connect_after_scheduling(
            d.cdfg(),
            &s,
            PortMode::Unidirectional,
            &PostsynConfig::new(rate),
        );
        let bi = connect_after_scheduling(
            d.cdfg(),
            &s,
            PortMode::Bidirectional,
            &PostsynConfig::new(rate),
        );
        assert!(pins(d.cdfg(), &bi) <= pins(d.cdfg(), &uni));
    }

    #[test]
    fn elliptic_filter_round_trip() {
        let d = elliptic::partitioned_with(6, PortMode::Unidirectional);
        let s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 6,
                pipe_length: 26,
            },
        )
        .unwrap();
        let ic = connect_after_scheduling(
            d.cdfg(),
            &s,
            PortMode::Unidirectional,
            &PostsynConfig::new(6),
        );
        assert!(verify_against_schedule(d.cdfg(), &s, &ic).is_empty());
    }

    #[test]
    fn weighting_factor_shifts_savings() {
        // Raising a partition's weight must not meaningfully worsen the
        // pins spent on that partition.
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 3,
                pipe_length: 10,
            },
        )
        .unwrap();
        let p1 = PartitionId::new(1);
        let plain = connect_after_scheduling(
            d.cdfg(),
            &s,
            PortMode::Unidirectional,
            &PostsynConfig::new(3),
        );
        let favored = connect_after_scheduling(
            d.cdfg(),
            &s,
            PortMode::Unidirectional,
            &PostsynConfig::new(3).weight(p1, 100),
        );
        assert!(favored.pins_used(p1) <= plain.pins_used(p1) + 8);
    }

    #[test]
    fn same_value_same_step_transfers_share_one_slot() {
        let d = elliptic::partitioned_with(6, PortMode::Unidirectional);
        let mut s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 6,
                pipe_length: 26,
            },
        )
        .unwrap();
        // Pin Ia and Ib to one step: they transfer the same value and may
        // share a slot (Table 4.15's "(Ia, Ib)").
        let ia = d.op_named("Ia");
        let ib = d.op_named("Ib");
        let t = s.of(ia);
        s.start[ib.index()] = t;
        let ic = connect_after_scheduling(
            d.cdfg(),
            &s,
            PortMode::Unidirectional,
            &PostsynConfig::new(6),
        );
        assert!(verify_against_schedule(d.cdfg(), &s, &ic).is_empty());
        assert_eq!(ic.assignment[&ia].bus, ic.assignment[&ib].bus);
    }

    #[test]
    fn packed_connection_is_conflict_free() {
        let cases = [
            (
                elliptic::partitioned_with(6, PortMode::Unidirectional),
                6,
                26,
            ),
            (ar_filter::general(3, PortMode::Unidirectional), 3, 10),
        ];
        for (d, rate, pipe_length) in cases {
            let s = fds_schedule(d.cdfg(), &FdsConfig { rate, pipe_length }).unwrap();
            let ic = connect_packed(
                d.cdfg(),
                &s,
                PortMode::Unidirectional,
                &PostsynConfig::new(rate),
            );
            assert!(verify_against_schedule(d.cdfg(), &s, &ic).is_empty());
            // Packing shares pins: strictly cheaper than one bus per
            // transfer, and deterministic across runs.
            let naive: u32 = d.cdfg().io_ops().map(|op| 2 * d.cdfg().io_bits(op)).sum();
            assert!(pins(d.cdfg(), &ic) < naive);
            let again = connect_packed(
                d.cdfg(),
                &s,
                PortMode::Unidirectional,
                &PostsynConfig::new(rate),
            );
            assert_eq!(ic, again);
        }
    }

    #[test]
    fn verification_catches_a_corrupted_assignment() {
        use mcs_cdfg::designs::ar_filter;
        use mcs_sched::{list_schedule, ListConfig, NullPolicy};
        let d = ar_filter::general(3, mcs_cdfg::PortMode::Unidirectional);
        let s = list_schedule(d.cdfg(), &ListConfig::new(3), &mut NullPolicy).unwrap();
        let mut ic = connect_after_scheduling(
            d.cdfg(),
            &s,
            mcs_cdfg::PortMode::Unidirectional,
            &PostsynConfig::new(3),
        );
        assert!(verify_against_schedule(d.cdfg(), &s, &ic).is_empty());
        // Put two different same-group values on one slot by force.
        let ops: Vec<_> = ic.assignment.keys().copied().collect();
        let mut broke = false;
        'outer: for &a in &ops {
            for &b in &ops {
                let (va, _, _) = d.cdfg().op(a).io_endpoints().unwrap();
                let (vb, _, _) = d.cdfg().op(b).io_endpoints().unwrap();
                if a != b && va != vb && s.group_of(a) == s.group_of(b) {
                    let src = ic.assignment[&a];
                    if ic.assignment[&b] != src {
                        ic.assignment.insert(b, src);
                        broke = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(broke, "fixture must find a corruptible pair");
        assert!(
            !verify_against_schedule(d.cdfg(), &s, &ic).is_empty(),
            "double-booked slot must be reported"
        );
    }

    #[test]
    fn every_transfer_is_assigned_and_carriable() {
        use mcs_cdfg::designs::elliptic;
        use mcs_sched::{list_schedule, ListConfig, NullPolicy};
        let d = elliptic::partitioned_with(7, mcs_cdfg::PortMode::Unidirectional);
        let s = list_schedule(d.cdfg(), &ListConfig::new(7), &mut NullPolicy).unwrap();
        let ic = connect_after_scheduling(
            d.cdfg(),
            &s,
            mcs_cdfg::PortMode::Unidirectional,
            &PostsynConfig::new(7),
        );
        for op in d.cdfg().io_ops() {
            let a = ic.assignment.get(&op).expect("every transfer routed");
            let (_, from, to) = d.cdfg().op(op).io_endpoints().unwrap();
            let bus = &ic.buses[a.bus.index()];
            assert!(
                bus.can_carry(ic.mode, from, to, d.cdfg().io_bits(op), a.range),
                "{op}: assigned bus cannot physically carry the transfer"
            );
        }
    }

    #[test]
    fn higher_rates_never_need_more_buses() {
        use mcs_cdfg::designs::ar_filter;
        use mcs_sched::{list_schedule, ListConfig, NullPolicy};
        let mut buses = Vec::new();
        for rate in [2u32, 3, 4] {
            let d = ar_filter::simple();
            let s = list_schedule(d.cdfg(), &ListConfig::new(rate), &mut NullPolicy).unwrap();
            let ic = connect_after_scheduling(
                d.cdfg(),
                &s,
                mcs_cdfg::PortMode::Unidirectional,
                &PostsynConfig::new(rate),
            );
            assert!(verify_against_schedule(d.cdfg(), &s, &ic).is_empty());
            buses.push(ic.buses.len());
        }
        assert!(
            buses.windows(2).all(|w| w[1] <= w[0]),
            "more slots per bus at higher rates: {buses:?}"
        );
    }
}
