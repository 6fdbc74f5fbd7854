//! The interchip connection model of Section 4.1 (Figure 4.1), extended
//! with bidirectional ports (Section 4.3) and sub-buses (Chapter 6,
//! Figure 6.1).
//!
//! A communication bus is a wire bundle connecting the *output ports* of
//! one or more partitions to the *input ports* of one or more partitions
//! (or bidirectional ports when the design uses them). A port belongs to
//! exactly one bus; port widths may differ per partition but never exceed
//! the bus width. A bus may be logically divided into a small number of
//! contiguous *sub-buses*; one value occupies one or more contiguous
//! sub-buses of a bus for one cycle (Section 6.1).

use std::collections::BTreeMap;
use std::hash::Hasher;

use mcs_cdfg::{BusId, Cdfg, OpId, PartitionId, PortMode};
use mcs_codec::fnv::Fnv;

/// A contiguous range of sub-bus indices, inclusive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubRange {
    /// First sub-bus index.
    pub lo: usize,
    /// Last sub-bus index (inclusive).
    pub hi: usize,
}

impl SubRange {
    /// The whole-bus range for a bus with `n` sub-buses.
    pub fn whole(n: usize) -> SubRange {
        SubRange {
            lo: 0,
            hi: n.saturating_sub(1),
        }
    }

    /// `true` if the two ranges share a sub-bus.
    pub fn overlaps(self, other: SubRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// One communication bus.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bus {
    /// Output-port widths per partition (`p_{i,h}`); empty entry = not
    /// connected. Unused in bidirectional mode.
    pub out_ports: BTreeMap<PartitionId, u32>,
    /// Input-port widths per partition (`q_{i,h}`). Unused in
    /// bidirectional mode.
    pub in_ports: BTreeMap<PartitionId, u32>,
    /// Bidirectional port widths (`r_{i,h}`); used instead of
    /// `out_ports`/`in_ports` in bidirectional mode.
    pub bi_ports: BTreeMap<PartitionId, u32>,
    /// Sub-bus widths from bit 0 upward; `len() == 1` means unsplit.
    pub sub_widths: Vec<u32>,
}

impl Bus {
    /// A fresh unsplit bus of zero width.
    pub fn new() -> Bus {
        Bus {
            sub_widths: vec![0],
            ..Bus::default()
        }
    }

    /// Total bus width.
    pub fn width(&self) -> u32 {
        self.sub_widths.iter().sum()
    }

    /// Number of sub-buses.
    pub fn sub_count(&self) -> usize {
        self.sub_widths.len()
    }

    /// Bit offset of the end of `range` (prefix width through `range.hi`).
    pub fn prefix_end(&self, range: SubRange) -> u32 {
        self.sub_widths[..=range.hi].iter().sum()
    }

    /// Bit offset where `range` begins (prefix width before `range.lo`).
    pub fn prefix_start(&self, range: SubRange) -> u32 {
        self.sub_widths[..range.lo].iter().sum()
    }

    /// Width of a contiguous sub-bus range.
    pub fn range_width(&self, range: SubRange) -> u32 {
        self.sub_widths[range.lo..=range.hi].iter().sum()
    }

    /// Pins this bus consumes on `partition` (sum of its port widths).
    pub fn pins_of(&self, partition: PartitionId) -> u32 {
        self.out_ports.get(&partition).copied().unwrap_or(0)
            + self.in_ports.get(&partition).copied().unwrap_or(0)
            + self.bi_ports.get(&partition).copied().unwrap_or(0)
    }

    /// Partitions connected to the bus in any role, in id order.
    pub fn connected(&self) -> Vec<PartitionId> {
        let mut v: Vec<PartitionId> = self
            .out_ports
            .keys()
            .chain(self.in_ports.keys())
            .chain(self.bi_ports.keys())
            .copied()
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Whether the bus (in `mode`) can carry a `bits`-wide transfer from
    /// `from` to `to` on sub-bus range `range` using its *current* port
    /// widths. Ports connect prefixes of the bus (Section 6.1.1.2) and a
    /// transfer occupies the low-order lines of its range, so both
    /// endpoints need ports covering `prefix_start(range) + bits` lines —
    /// a port may be narrower than the bus (Figure 4.2).
    pub fn can_carry(
        &self,
        mode: PortMode,
        from: PartitionId,
        to: PartitionId,
        bits: u32,
        range: SubRange,
    ) -> bool {
        if range.hi >= self.sub_widths.len() || self.range_width(range) < bits {
            return false;
        }
        let need = self.prefix_start(range) + bits;
        match mode {
            PortMode::Unidirectional => {
                self.out_ports.get(&from).copied().unwrap_or(0) >= need
                    && self.in_ports.get(&to).copied().unwrap_or(0) >= need
            }
            PortMode::Bidirectional => {
                self.bi_ports.get(&from).copied().unwrap_or(0) >= need
                    && self.bi_ports.get(&to).copied().unwrap_or(0) >= need
            }
        }
    }
}

/// An I/O-operation-to-bus assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusAssignment {
    /// The carrying bus.
    pub bus: BusId,
    /// The sub-bus range used (whole bus when unsplit).
    pub range: SubRange,
}

/// A complete interchip connection structure: the output of the Chapter 4
/// (and Chapter 6) synthesis step, consumed by scheduling.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Interconnect {
    /// Port directionality the structure was built for.
    pub mode: PortMode,
    /// The communication buses.
    pub buses: Vec<Bus>,
    /// Initial assignment of every I/O operation to a bus (Section 4.1);
    /// scheduling may later reassign (Section 4.2).
    pub assignment: BTreeMap<OpId, BusAssignment>,
}

impl Interconnect {
    /// Pins used on `partition` across all buses (the "#Pins used" columns
    /// of Tables 4.2 and 4.10).
    pub fn pins_used(&self, partition: PartitionId) -> u32 {
        self.buses.iter().map(|b| b.pins_of(partition)).sum()
    }

    /// All `(bus, range)` options able to carry I/O operation `op`,
    /// in bus order — the candidate set for dynamic reassignment.
    pub fn capable_carriers(&self, cdfg: &Cdfg, op: OpId) -> Vec<BusAssignment> {
        let Some((_, from, to)) = cdfg.op(op).io_endpoints() else {
            return Vec::new();
        };
        let bits = cdfg.io_bits(op);
        let mut found = Vec::new();
        for (h, bus) in self.buses.iter().enumerate() {
            let n = bus.sub_count();
            for lo in 0..n {
                for hi in lo..n {
                    let range = SubRange { lo, hi };
                    if bus.can_carry(self.mode, from, to, bits, range) {
                        found.push(BusAssignment {
                            bus: BusId::new(h as u32),
                            range,
                        });
                    }
                }
            }
        }
        found
    }

    /// FNV-1a fingerprint of the whole structure: port mode, every bus's
    /// sub-bus widths and port widths, every assignment. Little-endian
    /// throughout, so equal structures digest equally on every platform;
    /// baselines and golden tests pin search results by it.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        let mut put = |x: u32| h.write(&x.to_le_bytes());
        put(match self.mode {
            PortMode::Unidirectional => 0,
            PortMode::Bidirectional => 1,
        });
        put(self.buses.len() as u32);
        for bus in &self.buses {
            put(bus.sub_widths.len() as u32);
            for &w in &bus.sub_widths {
                put(w);
            }
            for ports in [&bus.out_ports, &bus.in_ports, &bus.bi_ports] {
                put(ports.len() as u32);
                for (&p, &w) in ports {
                    put(p.0);
                    put(w);
                }
            }
        }
        put(self.assignment.len() as u32);
        for (&op, a) in &self.assignment {
            put(op.0);
            put(a.bus.0);
            put(a.range.lo as u32);
            put(a.range.hi as u32);
        }
        h.finish()
    }

    /// Verifies that every I/O operation's assigned bus can actually carry
    /// it and that pin budgets hold; returns the violations.
    pub fn verify(&self, cdfg: &Cdfg) -> Vec<String> {
        let mut problems = Vec::new();
        for op in cdfg.io_ops() {
            match self.assignment.get(&op) {
                None => problems.push(format!("{op} ({}) has no bus", cdfg.op(op).name)),
                Some(a) => {
                    let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
                    let bus = &self.buses[a.bus.index()];
                    if !bus.can_carry(self.mode, from, to, cdfg.io_bits(op), a.range) {
                        problems.push(format!(
                            "{op} ({}) cannot ride {} range {:?}",
                            cdfg.op(op).name,
                            a.bus,
                            a.range
                        ));
                    }
                }
            }
        }
        for (pi, part) in cdfg.partitions().iter().enumerate() {
            let p = PartitionId::new(pi as u32);
            let used = self.pins_used(p);
            if used > part.total_pins {
                problems.push(format!("{p} uses {used} pins, budget {}", part.total_pins));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PartitionId {
        PartitionId::new(i)
    }

    #[test]
    fn bus_geometry() {
        let mut bus = Bus::new();
        bus.sub_widths = vec![8, 29];
        assert_eq!(bus.width(), 37);
        assert_eq!(bus.sub_count(), 2);
        assert_eq!(bus.prefix_end(SubRange { lo: 0, hi: 0 }), 8);
        assert_eq!(bus.prefix_end(SubRange { lo: 1, hi: 1 }), 37);
        assert_eq!(bus.range_width(SubRange { lo: 1, hi: 1 }), 29);
        assert_eq!(bus.range_width(SubRange::whole(2)), 37);
    }

    #[test]
    fn unidirectional_capability_checks_both_ports() {
        let mut bus = Bus::new();
        bus.sub_widths = vec![16];
        bus.out_ports.insert(p(1), 16);
        bus.in_ports.insert(p(2), 12);
        let whole = SubRange::whole(1);
        // A 12-bit transfer rides the low 12 lines; the narrower input
        // port suffices (Figure 4.2's 12-of-16 connection).
        assert!(bus.can_carry(PortMode::Unidirectional, p(1), p(2), 12, whole));
        // A full-width transfer needs the full input port.
        assert!(!bus.can_carry(PortMode::Unidirectional, p(1), p(2), 16, whole));
        bus.in_ports.insert(p(2), 16);
        assert!(bus.can_carry(PortMode::Unidirectional, p(1), p(2), 16, whole));
        // Direction matters: P2 has no output port here.
        assert!(!bus.can_carry(PortMode::Unidirectional, p(2), p(1), 8, whole));
    }

    #[test]
    fn bidirectional_capability_is_symmetric() {
        let mut bus = Bus::new();
        bus.sub_widths = vec![16];
        bus.bi_ports.insert(p(1), 16);
        bus.bi_ports.insert(p(2), 16);
        let whole = SubRange::whole(1);
        assert!(bus.can_carry(PortMode::Bidirectional, p(1), p(2), 16, whole));
        assert!(bus.can_carry(PortMode::Bidirectional, p(2), p(1), 16, whole));
        assert!(!bus.can_carry(PortMode::Bidirectional, p(1), p(3), 8, whole));
    }

    #[test]
    fn subbus_ranges_respect_prefix_connection() {
        let mut bus = Bus::new();
        bus.sub_widths = vec![8, 8];
        bus.out_ports.insert(p(1), 8); // prefix: only sub-bus 0
        bus.in_ports.insert(p(2), 16);
        assert!(bus.can_carry(
            PortMode::Unidirectional,
            p(1),
            p(2),
            8,
            SubRange { lo: 0, hi: 0 }
        ));
        // Sub-bus 1 needs a 16-wide prefix on both sides.
        assert!(!bus.can_carry(
            PortMode::Unidirectional,
            p(1),
            p(2),
            8,
            SubRange { lo: 1, hi: 1 }
        ));
    }

    #[test]
    fn pins_and_topology() {
        let mut bus = Bus::new();
        bus.sub_widths = vec![8];
        bus.out_ports.insert(p(1), 8);
        bus.in_ports.insert(p(2), 8);
        bus.in_ports.insert(p(3), 8);
        assert_eq!(bus.pins_of(p(1)), 8);
        assert_eq!(bus.pins_of(p(2)), 8);
        assert_eq!(bus.pins_of(p(4)), 0);
        assert_eq!(bus.connected(), vec![p(1), p(2), p(3)]);
    }

    #[test]
    fn subrange_overlap() {
        let a = SubRange { lo: 0, hi: 0 };
        let b = SubRange { lo: 1, hi: 1 };
        let w = SubRange { lo: 0, hi: 1 };
        assert!(!a.overlaps(b));
        assert!(a.overlaps(w));
        assert!(b.overlaps(w));
    }
}
