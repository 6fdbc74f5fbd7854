//! Exact ILP formulations of interchip-connection synthesis: the
//! Chapter 4 model (Constraints 4.1–4.6) and the Chapter 6 sub-bus model
//! (Constraints 6.1–6.10, linearized per Section 6.1.1.4).
//!
//! The paper notes that practical instances are too large for exact
//! solution and uses the heuristic search instead, keeping the ILP "for
//! verification of synthesized results" — these builders serve the same
//! role: small designs are solved exactly in tests and compared against
//! the heuristic's output.

use std::collections::BTreeMap;

use mcs_cdfg::{BusId, Cdfg, OpId, PartitionId, PortMode};
use mcs_ilp::{linearize, Model, Solution, VarId};

use crate::model::{Bus, BusAssignment, Interconnect, SubRange};

/// The Chapter 4 model plus variable handles for solution extraction.
#[derive(Clone, Debug)]
pub struct Ch4Model {
    /// The assembled integer program.
    pub model: Model,
    /// `y_{w,h}`: transfer `w` assigned to bus `h`.
    pub y: BTreeMap<(OpId, usize), VarId>,
    /// Output-port widths `p_{i,h}` (unidirectional) or `r_{i,h}`
    /// (bidirectional).
    pub p: BTreeMap<(PartitionId, usize), VarId>,
    /// Input-port widths `q_{i,h}` (empty in bidirectional mode).
    pub q: BTreeMap<(PartitionId, usize), VarId>,
    mode: PortMode,
    buses: usize,
}

/// Builds the Chapter 4 interchip-connection ILP with at most `r` buses.
pub fn build_ch4(cdfg: &Cdfg, mode: PortMode, rate: u32, r: usize) -> Ch4Model {
    let mut m = Model::new();
    let ops: Vec<OpId> = cdfg.io_ops().collect();
    let groups = cdfg.io_ops_by_value();
    let l = rate as i64;

    let mut y = BTreeMap::new();
    for &w in &ops {
        for h in 0..r {
            y.insert((w, h), m.binary(&format!("y_{w}_{h}")));
        }
    }
    let mut p = BTreeMap::new();
    let mut q = BTreeMap::new();
    for (pi, part) in cdfg.partitions().iter().enumerate() {
        let pid = PartitionId::new(pi as u32);
        let cap = part.total_pins.min(1 << 20) as i64;
        for h in 0..r {
            p.insert((pid, h), m.integer(&format!("p_{pid}_{h}"), Some(cap)));
            if mode == PortMode::Unidirectional {
                q.insert((pid, h), m.integer(&format!("q_{pid}_{h}"), Some(cap)));
            }
        }
    }

    // Assignment (4.1): every transfer on exactly one bus.
    for &w in &ops {
        let terms: Vec<_> = (0..r).map(|h| (y[&(w, h)], 1)).collect();
        m.eq(&terms, 1);
    }
    // Buses are interchangeable a priori; break the permutation symmetry
    // (transfer i may only use buses 0..=i) to keep branch-and-bound sane.
    for (i, &w) in ops.iter().enumerate() {
        for h in (i + 1)..r {
            m.eq(&[(y[&(w, h)], 1)], 0);
        }
    }

    // Data transfer (4.2/4.3 or the Section 4.3 bidirectional form):
    // endpoint port widths cover every assigned transfer.
    for &w in &ops {
        let (_, from, to) = cdfg.op(w).io_endpoints().expect("io op");
        let bits = cdfg.io_bits(w) as i64;
        for h in 0..r {
            let yv = y[&(w, h)];
            match mode {
                PortMode::Unidirectional => {
                    m.ge(&[(p[&(from, h)], 1), (yv, -bits)], 0);
                    m.ge(&[(q[&(to, h)], 1), (yv, -bits)], 0);
                }
                PortMode::Bidirectional => {
                    m.ge(&[(p[&(from, h)], 1), (yv, -bits)], 0);
                    m.ge(&[(p[&(to, h)], 1), (yv, -bits)], 0);
                }
            }
        }
    }

    // Resources (4.4): per partition, total port pins within budget.
    for (pi, part) in cdfg.partitions().iter().enumerate() {
        let pid = PartitionId::new(pi as u32);
        let mut terms: Vec<(VarId, i64)> = (0..r).map(|h| (p[&(pid, h)], 1)).collect();
        if mode == PortMode::Unidirectional {
            terms.extend((0..r).map(|h| (q[&(pid, h)], 1)));
        }
        m.le(&terms, part.total_pins.min(1 << 20) as i64);
    }

    // Capacity (4.5): at most L distinct values per bus; transfers of one
    // value count once via z_{v,h} = max_w y_{w,h}.
    for h in 0..r {
        let mut cap_terms: Vec<(VarId, i64)> = Vec::new();
        for (v, ws) in &groups {
            if ws.len() == 1 {
                cap_terms.push((y[&(ws[0], h)], 1));
            } else {
                let z = m.binary(&format!("z_{v}_{h}"));
                let members: Vec<VarId> = ws.iter().map(|&w| y[&(w, h)]).collect();
                linearize::eq_max_binary(&mut m, z, &members);
                cap_terms.push((z, 1));
            }
        }
        m.le(&cap_terms, l);
    }

    // Objective (4.6): maximize the number of buses actually used.
    let mut obj = Vec::new();
    for h in 0..r {
        let u = m.binary(&format!("used_{h}"));
        let members: Vec<(VarId, i64)> = ops
            .iter()
            .map(|&w| (y[&(w, h)], -1))
            .chain(std::iter::once((u, 1)))
            .collect();
        m.le(&members, 0); // u <= sum_w y_{w,h}
        obj.push((u, 1));
    }
    m.maximize(&obj);

    Ch4Model {
        model: m,
        y,
        p,
        q,
        mode,
        buses: r,
    }
}

impl Ch4Model {
    /// Converts an ILP solution into an [`Interconnect`].
    pub fn extract(&self, cdfg: &Cdfg, s: &Solution) -> Interconnect {
        let mut buses = vec![Bus::new(); self.buses];
        let mut assignment = BTreeMap::new();
        for (&(w, h), &yv) in &self.y {
            if s.int_value(yv) == 1 {
                let (_, from, to) = cdfg.op(w).io_endpoints().expect("io op");
                let bits = cdfg.io_bits(w);
                let bus = &mut buses[h];
                bus.sub_widths[0] = bus.sub_widths[0].max(bits);
                bus.extend_ports(self.mode, from, to, bits);
                assignment.insert(
                    w,
                    BusAssignment {
                        bus: BusId::new(h as u32),
                        range: SubRange { lo: 0, hi: 0 },
                    },
                );
            }
        }
        // Drop unused buses, renumbering assignments.
        let mut keep = Vec::new();
        let mut remap = vec![usize::MAX; self.buses];
        for (h, bus) in buses.into_iter().enumerate() {
            if bus.width() > 0 {
                remap[h] = keep.len();
                keep.push(bus);
            }
        }
        for a in assignment.values_mut() {
            a.bus = BusId::new(remap[a.bus.index()] as u32);
        }
        Interconnect {
            mode: self.mode,
            buses: keep,
            assignment,
        }
    }
}

/// The Chapter 6 sub-bus model plus handles.
#[derive(Clone, Debug)]
pub struct Ch6Model {
    /// The assembled integer program.
    pub model: Model,
    /// `x_{w,h,l,s}`: part of transfer `w` on sub-slot `(h,l,s)`.
    pub x: BTreeMap<(OpId, usize, usize, usize), VarId>,
    /// `bw_{h,s}`: width of sub-bus `(h,s)`.
    pub bw: BTreeMap<(usize, usize), VarId>,
    /// `r_{i,h}`: bidirectional port widths.
    pub r: BTreeMap<(PartitionId, usize), VarId>,
}

/// Builds the Chapter 6 sub-bus ILP (bidirectional ports, `r` buses of at
/// most `s` sub-buses, initiation rate `rate`). Exact but only tractable
/// for very small designs; Section 6.1.2's heuristic covers the rest.
pub fn build_ch6(cdfg: &Cdfg, rate: u32, r: usize, s: usize, big_m: i64) -> Ch6Model {
    let mut m = Model::new();
    let ops: Vec<OpId> = cdfg.io_ops().collect();
    let l = rate as usize;

    let mut x = BTreeMap::new();
    let mut z = BTreeMap::new();
    for &w in &ops {
        for h in 0..r {
            for k in 0..l {
                for sb in 0..s {
                    x.insert((w, h, k, sb), m.binary(&format!("x_{w}_{h}_{k}_{sb}")));
                    z.insert(
                        (w, h, k, sb),
                        m.integer(&format!("z_{w}_{h}_{k}_{sb}"), Some(big_m)),
                    );
                }
            }
        }
    }
    let mut bw = BTreeMap::new();
    for h in 0..r {
        for sb in 0..s {
            bw.insert((h, sb), m.integer(&format!("bw_{h}_{sb}"), Some(big_m)));
        }
    }
    let mut rports = BTreeMap::new();
    for (pi, part) in cdfg.partitions().iter().enumerate() {
        let pid = PartitionId::new(pi as u32);
        for h in 0..r {
            rports.insert(
                (pid, h),
                m.integer(
                    &format!("r_{pid}_{h}"),
                    Some(part.total_pins.min(1 << 20) as i64),
                ),
            );
        }
    }

    // (6.1) every transfer occupies sub-slots of exactly one slot: the
    // per-slot indicator is max_s x, linearized with helper binaries.
    for &w in &ops {
        let mut slot_vars = Vec::new();
        for h in 0..r {
            for k in 0..l {
                let u = m.binary(&format!("slot_{w}_{h}_{k}"));
                let members: Vec<VarId> = (0..s).map(|sb| x[&(w, h, k, sb)]).collect();
                linearize::eq_max_binary(&mut m, u, &members);
                slot_vars.push(u);
            }
        }
        let terms: Vec<_> = slot_vars.iter().map(|&u| (u, 1)).collect();
        m.eq(&terms, 1);
    }

    // (6.2) contiguity: at most one run of ones. With s == 2 the only
    // forbidden pattern would need s >= 3, so the constraint is only
    // emitted for larger s, via xor helper variables.
    if s > 2 {
        for &w in &ops {
            for h in 0..r {
                for k in 0..l {
                    let mut terms: Vec<(VarId, i64)> =
                        vec![(x[&(w, h, k, 0)], 1), (x[&(w, h, k, s - 1)], 1)];
                    for sb in 1..s {
                        let t = m.binary(&format!("t_{w}_{h}_{k}_{sb}"));
                        linearize::eq_xor_binary(
                            &mut m,
                            t,
                            x[&(w, h, k, sb - 1)],
                            x[&(w, h, k, sb)],
                        );
                        terms.push((t, 1));
                    }
                    m.le(&terms, 2);
                }
            }
        }
    }

    // (6.4) sub-slot exclusivity: transfers of the same value may share.
    let groups = cdfg.io_ops_by_value();
    for h in 0..r {
        for k in 0..l {
            for sb in 0..s {
                let mut terms: Vec<(VarId, i64)> = Vec::new();
                for (v, ws) in &groups {
                    if ws.len() == 1 {
                        terms.push((x[&(ws[0], h, k, sb)], 1));
                    } else {
                        let u = m.binary(&format!("vmax_{v}_{h}_{k}_{sb}"));
                        let members: Vec<VarId> = ws.iter().map(|&w| x[&(w, h, k, sb)]).collect();
                        linearize::eq_max_binary(&mut m, u, &members);
                        terms.push((u, 1));
                    }
                }
                m.le(&terms, 1);
            }
        }
    }

    // (6.6) z > 0 <=> x = 1; (6.7) sub-bus width covers its load;
    // (6.8) the pieces of a transfer sum to its width.
    for &w in &ops {
        let bits = cdfg.io_bits(w) as i64;
        let mut sum_terms = Vec::new();
        for h in 0..r {
            for k in 0..l {
                for sb in 0..s {
                    let (xv, zv) = (x[&(w, h, k, sb)], z[&(w, h, k, sb)]);
                    linearize::iff_positive(&mut m, &[(zv, 1)], xv, big_m);
                    m.ge(&[(bw[&(h, sb)], 1), (zv, -1)], 0);
                    sum_terms.push((zv, 1));
                }
            }
        }
        m.eq(&sum_terms, bits);
    }

    // (6.9) prefix connection: a partition using sub-bus sb of bus h needs
    // a port covering all earlier sub-buses plus its own load:
    // x_{w,h,k,sb} = 1 => r_{i,h} >= sum_{t<sb} bw_{h,t} + z_{w,h,k,sb}.
    for &w in &ops {
        let (_, from, to) = cdfg.op(w).io_endpoints().expect("io op");
        for h in 0..r {
            for k in 0..l {
                for sb in 0..s {
                    let xv = x[&(w, h, k, sb)];
                    for &pid in &[from, to] {
                        let mut rhs: Vec<(VarId, i64)> =
                            (0..sb).map(|t| (bw[&(h, t)], 1)).collect();
                        rhs.push((z[&(w, h, k, sb)], 1));
                        linearize::implies_ge(&mut m, xv, &[(rports[&(pid, h)], 1)], &rhs, big_m);
                    }
                }
            }
        }
    }

    // (6.10) resources.
    for (pi, part) in cdfg.partitions().iter().enumerate() {
        let pid = PartitionId::new(pi as u32);
        let terms: Vec<_> = (0..r).map(|h| (rports[&(pid, h)], 1)).collect();
        m.le(&terms, part.total_pins.min(1 << 20) as i64);
    }

    // Feasibility problem: keep a pin-minimizing objective so solutions
    // are canonical.
    let obj: Vec<_> = rports.values().map(|&v| (v, 1)).collect();
    m.minimize(&obj);

    Ch6Model {
        model: m,
        x,
        bw,
        r: rports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::synthetic;
    use mcs_cdfg::PortMode;

    #[test]
    fn ch4_model_solves_the_quickstart_design() {
        let d = synthetic::quickstart();
        let built = build_ch4(d.cdfg(), PortMode::Unidirectional, 1, 4);
        let sol = built.model.solve().expect("solvable");
        let ic = built.extract(d.cdfg(), &sol);
        assert!(ic.verify(d.cdfg()).is_empty(), "{:?}", ic.verify(d.cdfg()));
    }

    #[test]
    fn ch4_capacity_limits_values_per_bus() {
        // Three values between two chips at rate 1: one bus (one slot)
        // cannot carry them; three can.
        use mcs_cdfg::{CdfgBuilder, Library, OperatorClass};
        let mut b = CdfgBuilder::new(Library::new(100));
        let p1 = b.partition("P1", 64);
        let p2 = b.partition("P2", 64);
        b.resource(p1, OperatorClass::Add, 3);
        b.resource(p2, OperatorClass::Add, 3);
        for k in 0..3 {
            let (_, v) = b.func(&format!("f{k}"), OperatorClass::Add, p1, &[], 8);
            let (_, moved) = b.io(&format!("X{k}"), v, p2);
            let _ = b.func(&format!("g{k}"), OperatorClass::Add, p2, &[(moved, 0)], 8);
        }
        let d = b.finish().unwrap();
        let built = build_ch4(&d, PortMode::Unidirectional, 1, 1);
        assert!(
            built.model.clone().feasible().is_err(),
            "one bus cannot carry three values at L=1"
        );
        let built = build_ch4(&d, PortMode::Unidirectional, 1, 3);
        let sol = built.model.solve().expect("three buses suffice");
        let ic = built.extract(&d, &sol);
        assert!(ic.verify(&d).is_empty());
    }

    #[test]
    fn ch4_objective_maximizes_used_buses() {
        let d = synthetic::quickstart();
        let built = build_ch4(d.cdfg(), PortMode::Unidirectional, 2, 4);
        let sol = built.model.solve().expect("solvable");
        let ic = built.extract(d.cdfg(), &sol);
        // 4 transfers, ample pins: the objective pushes toward one bus per
        // transfer (higher I/O bandwidth, Section 4.1.1).
        assert_eq!(ic.buses.len(), 4);
    }

    #[test]
    fn ch6_model_splits_a_bus_between_two_values() {
        // Two 4-bit transfers between the same chips at rate 1 with only
        // 8 pins per chip: a single 8-bit bus must carry both in the same
        // cycle using two sub-buses.
        use mcs_cdfg::{CdfgBuilder, Library, OperatorClass};
        let mut b = CdfgBuilder::new(Library::new(100));
        let p1 = b.partition("P1", 8);
        let p2 = b.partition("P2", 8);
        b.resource(p1, OperatorClass::Add, 2);
        b.resource(p2, OperatorClass::Add, 2);
        let (_, va) = b.func("fa", OperatorClass::Add, p1, &[], 4);
        let (_, vb) = b.func("fb", OperatorClass::Add, p1, &[], 4);
        let (_, xa) = b.io("Xa", va, p2);
        let (_, xb) = b.io("Xb", vb, p2);
        let _ = b.func("s", OperatorClass::Add, p2, &[(xa, 0), (xb, 0)], 4);
        let d = b.finish().unwrap();
        let built = build_ch6(&d, 1, 1, 2, 16);
        let sol = built.model.solve().expect("sub-bus model solvable");
        // Both transfers placed, each chip within its 8-pin budget.
        let placed: i64 = built.x.values().map(|&v| sol.int_value(v)).sum();
        assert!(placed >= 2);
        for (&(_, _h), &v) in &built.r {
            assert!(sol.int_value(v) <= 8);
        }
    }

    #[test]
    fn ch4_bidirectional_model_verifies() {
        let d = synthetic::quickstart();
        let built = build_ch4(d.cdfg(), PortMode::Bidirectional, 1, 4);
        let sol = built.model.solve().expect("solvable");
        let ic = built.extract(d.cdfg(), &sol);
        assert_eq!(ic.mode, PortMode::Bidirectional);
        assert!(ic.verify(d.cdfg()).is_empty(), "{:?}", ic.verify(d.cdfg()));
    }

    #[test]
    fn ch4_model_agrees_with_the_heuristic_on_feasibility() {
        // Cross-validation: where the exact model proves a bus count
        // infeasible, the heuristic must not claim a structure with that
        // many buses either (on a deliberately tiny instance).
        use crate::{synthesize, SearchConfig};
        use mcs_cdfg::{CdfgBuilder, Library, OperatorClass};
        let mut b = CdfgBuilder::new(Library::new(100));
        let p1 = b.partition("P1", 64);
        let p2 = b.partition("P2", 64);
        b.resource(p1, OperatorClass::Add, 2);
        b.resource(p2, OperatorClass::Add, 2);
        for k in 0..2 {
            let (_, v) = b.func(&format!("f{k}"), OperatorClass::Add, p1, &[], 8);
            let (_, moved) = b.io(&format!("X{k}"), v, p2);
            let _ = b.func(&format!("g{k}"), OperatorClass::Add, p2, &[(moved, 0)], 8);
        }
        let d = b.finish().unwrap();
        // Exact: 1 bus at rate 1 infeasible, 2 feasible.
        assert!(build_ch4(&d, PortMode::Unidirectional, 1, 1)
            .model
            .feasible()
            .is_err());
        assert!(build_ch4(&d, PortMode::Unidirectional, 1, 2)
            .model
            .feasible()
            .is_ok());
        // Heuristic: finds a structure, and it needs at least 2 buses.
        let ic = synthesize(&d, PortMode::Unidirectional, &SearchConfig::new(1)).unwrap();
        assert!(ic.buses.len() >= 2);
    }
}
