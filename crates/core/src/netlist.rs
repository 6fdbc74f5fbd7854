//! Structural RTL netlist emission.
//!
//! Section 1.1 defines the flow's final product: per chip, an RTL data
//! path of "operators and registers interconnected via multiplexers,
//! buses, and wires", plus a control unit stepping through the `L` states
//! of one initiation interval. This module materializes that product from
//! a `(schedule, interconnect)` pair: functional units from a first-fit
//! allocation-wheel binding (Section 7.4), registers from value
//! lifetimes, multiplexers where several operations share a unit,
//! chip ports from the bus structure, and a top-level module wiring the
//! chips together over the shared buses.
//!
//! The emitted Verilog is *structural documentation*, not a synthesizable
//! implementation — operator internals are black boxes — but every port,
//! width, and connection is consistent with the synthesized design, and
//! the tests hold the netlist to that.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mcs_cdfg::{Cdfg, OpId, OpKind, OperatorClass, PartitionId};
use mcs_connect::Interconnect;
use mcs_sched::{AllocationWheel, Schedule};

/// Direction of one chip port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortDir {
    /// Drives the bus.
    Output,
    /// Listens to the bus.
    Input,
    /// Tri-state: drives in some step groups, listens in others
    /// (Section 4.3 bidirectional ports).
    Inout,
}

/// One bus port of a chip.
#[derive(Clone, Debug)]
pub struct Port {
    /// Port identifier, e.g. `bus2_out`.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Pin count.
    pub width: u32,
    /// Index of the bus this port attaches to.
    pub bus: usize,
}

/// One functional-unit instance.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Instance identifier, e.g. `mul0`.
    pub name: String,
    /// Operator class.
    pub class: OperatorClass,
    /// Operations bound onto the unit, with their control steps.
    pub ops: Vec<(OpId, i64)>,
    /// Result width (the widest bound operation's result).
    pub width: u32,
}

/// One register bank holding the live copies of a value.
#[derive(Clone, Debug)]
pub struct Register {
    /// Instance identifier, e.g. `r_X5`.
    pub name: String,
    /// Bit width.
    pub width: u32,
    /// Concurrent copies (pipelined lifetime over `L`, Section 7.4's
    /// register analogue).
    pub copies: u32,
}

/// One multiplexer in front of a shared unit's operand port.
#[derive(Clone, Debug)]
pub struct Mux {
    /// Instance identifier, e.g. `mux_add0_a`.
    pub name: String,
    /// The fed unit.
    pub unit: String,
    /// Selectable source nets.
    pub inputs: Vec<String>,
}

/// The RTL structure of one chip.
#[derive(Clone, Debug, Default)]
pub struct ChipNetlist {
    /// Module name, e.g. `chip_p1`.
    pub name: String,
    /// Bus ports.
    pub ports: Vec<Port>,
    /// Functional units.
    pub units: Vec<Unit>,
    /// Registers.
    pub registers: Vec<Register>,
    /// Multiplexers.
    pub muxes: Vec<Mux>,
    /// Controller states (= the initiation rate `L`).
    pub controller_states: u32,
}

impl ChipNetlist {
    /// Total pins over all bus ports.
    pub fn pin_count(&self) -> u32 {
        self.ports.iter().map(|p| p.width).sum()
    }
}

/// The synthesized multi-chip structure.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    /// One entry per real (non-environment) partition.
    pub chips: BTreeMap<PartitionId, ChipNetlist>,
    /// Width of each interchip bus.
    pub bus_widths: Vec<u32>,
}

/// Builds the structural netlist of a synthesized design.
///
/// # Panics
///
/// Panics if the schedule violates its resource constraints (validate
/// first with [`mcs_sched::validate`]).
pub fn build(cdfg: &Cdfg, schedule: &Schedule, ic: &Interconnect) -> Netlist {
    let mut func_ops: BTreeMap<PartitionId, BTreeMap<OperatorClass, Vec<OpId>>> = BTreeMap::new();
    for op in cdfg.op_ids() {
        if let OpKind::Func(class) = &cdfg.op(op).kind {
            func_ops
                .entry(cdfg.op(op).partition)
                .or_default()
                .entry(class.clone())
                .or_default()
                .push(op);
        }
    }
    let mut nl = Netlist {
        chips: BTreeMap::new(),
        bus_widths: ic.buses.iter().map(|b| b.width()).collect(),
    };

    for (idx, part) in cdfg.partitions().iter().enumerate() {
        let p = PartitionId::new(idx as u32);
        if p.is_environment() {
            continue;
        }
        let mut chip = ChipNetlist {
            name: format!("chip_{}", sanitize(&part.name)),
            controller_states: schedule.rate,
            ..ChipNetlist::default()
        };

        // Ports from the bus structure.
        for (bi, bus) in ic.buses.iter().enumerate() {
            for (map, dir, tag) in [
                (&bus.out_ports, PortDir::Output, "out"),
                (&bus.in_ports, PortDir::Input, "in"),
                (&bus.bi_ports, PortDir::Inout, "io"),
            ] {
                if let Some(&w) = map.get(&p) {
                    if w > 0 {
                        chip.ports.push(Port {
                            name: format!("bus{bi}_{tag}"),
                            dir,
                            width: w,
                            bus: bi,
                        });
                    }
                }
            }
        }

        // Units and multiplexers: each class's operations, in step order,
        // go first-fit onto the allocation wheel's units.
        for (class, mut ops) in func_ops.remove(&p).unwrap_or_default() {
            ops.sort_by_key(|&op| (schedule.of(op).step, op));
            let mut wheel = AllocationWheel::new(
                ops.len() as u32,
                schedule.rate.max(1),
                cdfg.library().cycles(&class),
            )
            .expect("positive rate and cycles");
            let mut by_unit: BTreeMap<usize, Vec<OpId>> = BTreeMap::new();
            for op in ops {
                let unit = wheel
                    .place(schedule.of(op).step)
                    .expect("validated schedule binds");
                by_unit.entry(unit).or_default().push(op);
            }
            for (unit, ops) in by_unit {
                let width = ops
                    .iter()
                    .filter_map(|&op| cdfg.op(op).result)
                    .map(|v| cdfg.value(v).bits)
                    .max()
                    .unwrap_or(0);
                let name = format!("{}{unit}", sanitize(class.token()));
                if ops.len() > 1 {
                    // Two-operand units: one mux per operand port.
                    for port in ["a", "b"] {
                        chip.muxes.push(Mux {
                            name: format!("mux_{name}_{port}"),
                            unit: name.clone(),
                            inputs: ops
                                .iter()
                                .map(|&op| format!("n_{}", sanitize(&cdfg.op(op).name)))
                                .collect(),
                        });
                    }
                }
                chip.units.push(Unit {
                    name,
                    class: class.clone(),
                    ops: ops.iter().map(|&op| (op, schedule.of(op).step)).collect(),
                    width,
                });
            }
        }

        // Registers: one bank per produced value homed on the chip, sized
        // by its concurrent-copy count.
        for op in cdfg.op_ids() {
            let Some(result) = cdfg.op(op).result else {
                continue;
            };
            if cdfg.op(op).source_partition() != p {
                continue;
            }
            let copies = value_copies(cdfg, schedule, op);
            if copies > 0 {
                chip.registers.push(Register {
                    name: format!("r_{}", sanitize(&cdfg.value(result).name)),
                    width: cdfg.value(result).bits,
                    copies,
                });
            }
        }

        nl.chips.insert(p, chip);
    }
    nl
}

/// Concurrent register copies the result of `op` needs: the value is
/// alive from its producer's finish to its last consumer's start, and in
/// a pipelined design `ceil(lifetime / L)` instances' copies coexist.
fn value_copies(cdfg: &Cdfg, schedule: &Schedule, op: OpId) -> u32 {
    let Some(result) = cdfg.op(op).result else {
        return 0;
    };
    let stage = cdfg.library().stage_ns();
    let rate = schedule.rate.max(1) as i64;
    let avail = mcs_cdfg::timing::finish_ns(cdfg, op, schedule.of(op));
    let mut last_use = avail;
    for &e in cdfg.succs(op) {
        let e = cdfg.edge(e);
        if e.value != result {
            continue;
        }
        let use_ns = schedule.of(e.to).ns(stage) + e.degree as i64 * rate * stage as i64;
        last_use = last_use.max(use_ns);
    }
    let lifetime = (last_use - avail).div_euclid(stage as i64)
        + i64::from((last_use - avail).rem_euclid(stage as i64) != 0);
    if lifetime <= 0 {
        0
    } else {
        (lifetime.div_euclid(rate) + i64::from(lifetime.rem_euclid(rate) != 0)) as u32
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders the netlist as structural Verilog: one module per chip and a
/// `top` module wiring the chips over the shared buses.
pub fn to_verilog(nl: &Netlist) -> String {
    let mut out = String::new();
    for chip in nl.chips.values() {
        let _ = writeln!(out, "module {} (", chip.name);
        let _ = writeln!(out, "  input  wire clk,");
        let mut first = true;
        for p in &chip.ports {
            if !first {
                let _ = writeln!(out, ",");
            }
            first = false;
            let dir = match p.dir {
                PortDir::Output => "output wire",
                PortDir::Input => "input  wire",
                PortDir::Inout => "inout  wire",
            };
            let _ = write!(out, "  {dir} [{}:0] {}", p.width.saturating_sub(1), p.name);
        }
        let _ = writeln!(out, "\n);");
        let _ = writeln!(
            out,
            "  // controller: {} states (initiation rate)",
            chip.controller_states
        );
        for r in &chip.registers {
            let _ = writeln!(
                out,
                "  reg [{}:0] {} [0:{}];",
                r.width.saturating_sub(1),
                r.name,
                r.copies.saturating_sub(1)
            );
        }
        for m in &chip.muxes {
            let _ = writeln!(
                out,
                "  // {}: {}-way mux feeding {}",
                m.name,
                m.inputs.len(),
                m.unit
            );
        }
        for u in &chip.units {
            let ops: Vec<String> = u
                .ops
                .iter()
                .map(|(op, s)| format!("{}@{s}", sanitize(&format!("{op}"))))
                .collect();
            let _ = writeln!(
                out,
                "  {} #(.WIDTH({})) {} (.clk(clk)); // {}",
                sanitize(u.class.token()),
                u.width,
                u.name,
                ops.join(" ")
            );
        }
        let _ = writeln!(out, "endmodule\n");
    }

    let _ = writeln!(out, "module top (input wire clk);");
    for (bi, w) in nl.bus_widths.iter().enumerate() {
        let _ = writeln!(out, "  wire [{}:0] bus{bi};", w.saturating_sub(1));
    }
    for chip in nl.chips.values() {
        let conns: Vec<String> = std::iter::once(".clk(clk)".to_string())
            .chain(
                chip.ports
                    .iter()
                    .map(|p| format!(".{}(bus{}[{}:0])", p.name, p.bus, p.width.saturating_sub(1))),
            )
            .collect();
        let _ = writeln!(
            out,
            "  {} u_{} ({});",
            chip.name,
            chip.name,
            conns.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::{ar_filter, elliptic, synthetic};
    use mcs_cdfg::PortMode;
    use mcs_sched::{list_schedule, ListConfig, NullPolicy};

    use crate::flows::{connect_first_flow, simple_flow, ConnectFirstOptions};

    #[test]
    fn chip_ports_match_interconnect_pins() {
        let d = ar_filter::simple();
        let r = simple_flow(d.cdfg(), 2).unwrap();
        let nl = build(d.cdfg(), &r.schedule, &r.interconnect);
        for (&p, chip) in &nl.chips {
            assert_eq!(
                chip.pin_count(),
                r.interconnect.pins_used(p),
                "{p}: netlist ports must use exactly the interconnect's pins"
            );
        }
    }

    #[test]
    fn units_respect_declared_resources() {
        let d = elliptic::partitioned_with(6, PortMode::Unidirectional);
        let r = connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(6)).unwrap();
        let nl = build(d.cdfg(), &r.schedule, &r.interconnect);
        for (&p, chip) in &nl.chips {
            let mut per_class: BTreeMap<&OperatorClass, u32> = BTreeMap::new();
            for u in &chip.units {
                *per_class.entry(&u.class).or_insert(0) += 1;
            }
            for (class, n) in per_class {
                if let Some(&declared) = d.cdfg().partition(p).resources.get(class) {
                    assert!(n <= declared, "{p} {class}: {n} units > {declared}");
                }
            }
        }
    }

    #[test]
    fn every_functional_op_lands_on_exactly_one_unit() {
        let d = ar_filter::simple();
        let r = simple_flow(d.cdfg(), 2).unwrap();
        let nl = build(d.cdfg(), &r.schedule, &r.interconnect);
        let mut bound: Vec<OpId> = nl
            .chips
            .values()
            .flat_map(|c| c.units.iter().flat_map(|u| u.ops.iter().map(|&(op, _)| op)))
            .collect();
        bound.sort();
        let mut expect: Vec<OpId> = d.cdfg().func_ops().collect();
        expect.sort();
        assert_eq!(bound, expect);
    }

    #[test]
    fn shared_units_get_muxes_exclusive_units_do_not() {
        let d = ar_filter::simple();
        let r = simple_flow(d.cdfg(), 2).unwrap();
        let nl = build(d.cdfg(), &r.schedule, &r.interconnect);
        for chip in nl.chips.values() {
            for u in &chip.units {
                let muxes = chip.muxes.iter().filter(|m| m.unit == u.name).count();
                if u.ops.len() > 1 {
                    assert_eq!(muxes, 2, "{}: two operand muxes", u.name);
                } else {
                    assert_eq!(muxes, 0, "{}: no mux on a dedicated unit", u.name);
                }
            }
        }
    }

    /// Register copies over every chip.
    fn total_registers(nl: &Netlist) -> u32 {
        nl.chips
            .values()
            .flat_map(|c| c.registers.iter())
            .map(|r| r.copies)
            .sum()
    }

    #[test]
    fn quickstart_binds_onto_declared_units() {
        let d = synthetic::quickstart();
        let s = list_schedule(d.cdfg(), &ListConfig::new(1), &mut NullPolicy).unwrap();
        let nl = build(d.cdfg(), &s, &Interconnect::default());
        for (&p, chip) in &nl.chips {
            let mut per_class: BTreeMap<&OperatorClass, u32> = BTreeMap::new();
            for u in &chip.units {
                *per_class.entry(&u.class).or_insert(0) += 1;
            }
            for (class, n) in per_class {
                if let Some(&declared) = d.cdfg().partition(p).resources.get(class) {
                    assert!(
                        n <= declared,
                        "{p} {class}: bound {n} > declared {declared}"
                    );
                }
            }
        }
        // The accumulator's recursive value lives a full initiation
        // interval: at least one register.
        assert!(total_registers(&nl) >= 1);
    }

    #[test]
    fn ar_filter_bindings_cover_all_functional_ops() {
        let d = ar_filter::simple();
        let s = list_schedule(d.cdfg(), &ListConfig::new(2), &mut NullPolicy).unwrap();
        let nl = build(d.cdfg(), &s, &Interconnect::default());
        let bound: usize = nl
            .chips
            .values()
            .flat_map(|c| c.units.iter())
            .map(|u| u.ops.len())
            .sum();
        assert_eq!(bound, d.cdfg().func_ops().count());
        // 16 multiplications on 8 multipliers total: sharing must appear
        // as muxes somewhere.
        assert!(nl.chips.values().any(|c| !c.muxes.is_empty()));
    }

    #[test]
    fn longer_lifetimes_cost_more_registers() {
        let d = ar_filter::simple();
        let s = list_schedule(d.cdfg(), &ListConfig::new(2), &mut NullPolicy).unwrap();
        let nl2 = build(d.cdfg(), &s, &Interconnect::default());
        // The same schedule at a coarser fold (pretend rate 4) halves the
        // overlapping copies.
        let s4 = Schedule {
            rate: 4,
            start: s.start.clone(),
        };
        let nl4 = build(d.cdfg(), &s4, &Interconnect::default());
        assert!(total_registers(&nl4) <= total_registers(&nl2));
    }

    #[test]
    fn verilog_is_structurally_balanced() {
        let d = ar_filter::simple();
        let r = simple_flow(d.cdfg(), 2).unwrap();
        let nl = build(d.cdfg(), &r.schedule, &r.interconnect);
        let v = to_verilog(&nl);
        assert_eq!(v.matches("module ").count(), nl.chips.len() + 1);
        assert_eq!(v.matches("endmodule").count(), nl.chips.len() + 1);
        for chip in nl.chips.values() {
            assert!(v.contains(&chip.name));
            // Every chip instantiated exactly once in top.
            assert_eq!(v.matches(&format!("u_{}", chip.name)).count(), 1);
        }
        for bi in 0..nl.bus_widths.len() {
            assert!(v.contains(&format!("wire [{}:0] bus{bi};", nl.bus_widths[bi] - 1)));
        }
    }

    #[test]
    fn controller_states_equal_the_initiation_rate() {
        let d = ar_filter::simple();
        let r = simple_flow(d.cdfg(), 2).unwrap();
        let nl = build(d.cdfg(), &r.schedule, &r.interconnect);
        for chip in nl.chips.values() {
            assert_eq!(chip.controller_states, 2);
        }
    }
}
