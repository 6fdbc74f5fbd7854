//! Timing analysis: ASAP/ALAP with operation chaining, step frames for
//! force-directed scheduling, and the maximum time constraints induced by
//! data recursive edges (Section 7.1).
//!
//! Times are measured in nanoseconds from the start of control step 0; the
//! *step* of an operation is `floor(start_ns / stage_ns)`. The chaining
//! rules follow the paper:
//!
//! * chainable operations (single-cycle functional ops) may start mid-step
//!   provided they finish within the step;
//! * I/O transfers are activated at the beginning of a clock cycle
//!   (Section 2.2) and complete within it;
//! * multi-cycle operations start at a step boundary and are never chained
//!   (Section 7.4).

use crate::graph::{Cdfg, GraphError, OpKind};
use crate::ids::OpId;

/// The start time of an operation: a control step plus an offset into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepTime {
    /// Control step (may be negative in pipelined schedules that preload
    /// inputs from earlier execution instances).
    pub step: i64,
    /// Offset into the step, in nanoseconds; zero for I/O and multi-cycle
    /// operations.
    pub offset_ns: u64,
}

impl StepTime {
    /// Absolute start time in nanoseconds.
    pub fn ns(self, stage_ns: u64) -> i64 {
        self.step * stage_ns as i64 + self.offset_ns as i64
    }

    /// The start time at the beginning of `step`.
    pub fn at_step(step: i64) -> Self {
        StepTime { step, offset_ns: 0 }
    }
}

/// A maximum time constraint `step(from) - step(to) <= bound` derived from a
/// data recursive edge (Section 7.1): for an edge of degree `d` whose source
/// takes `c` cycles, `t_from - t_to < d*L - (c - 1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaxTimeConstraint {
    /// Producer of the recursive value.
    pub from: OpId,
    /// Consumer of the recursive value.
    pub to: OpId,
    /// Upper bound on `step(from) - step(to)`.
    pub bound: i64,
}

/// Result of an ASAP or ALAP pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingAnalysis {
    /// Start time per operation, indexed by `OpId`.
    pub start: Vec<StepTime>,
}

impl TimingAnalysis {
    /// Start time of one operation.
    pub fn of(&self, op: OpId) -> StepTime {
        self.start[op.index()]
    }
}

/// Whether an operation must start exactly at a step boundary (I/O
/// transfers and multi-cycle operations; Sections 2.2 and 7.4).
pub fn boundary_start(cdfg: &Cdfg, op: OpId) -> bool {
    match &cdfg.op(op).kind {
        OpKind::Io { .. } => true,
        OpKind::Func(class) => !cdfg.library().chainable(class),
        OpKind::Split { .. } | OpKind::Merge => false,
    }
}

/// Finish time in nanoseconds given a start time: chaining successors may
/// begin at this instant.
pub fn finish_ns(cdfg: &Cdfg, op: OpId, start: StepTime) -> i64 {
    let stage = cdfg.library().stage_ns() as i64;
    if cdfg.op_cycles(op) > 1 {
        // Multi-cycle results become valid at the next boundary after the
        // last occupied cycle.
        (start.step + cdfg.op_cycles(op) as i64) * stage
    } else {
        start.ns(cdfg.library().stage_ns()) + cdfg.op_delay_ns(op) as i64
    }
}

/// Earliest legal start at or after `ready_ns` for `op`, honoring the
/// chaining and boundary rules.
pub fn place_after(cdfg: &Cdfg, op: OpId, ready_ns: i64) -> StepTime {
    let stage = cdfg.library().stage_ns() as i64;
    let delay = cdfg.op_delay_ns(op) as i64;
    if boundary_start(cdfg, op) {
        let step = ready_ns.div_euclid(stage)
            + if ready_ns.rem_euclid(stage) != 0 {
                1
            } else {
                0
            };
        return StepTime::at_step(step);
    }
    let step = ready_ns.div_euclid(stage);
    let offset = ready_ns.rem_euclid(stage);
    if offset + delay <= stage {
        StepTime {
            step,
            offset_ns: offset as u64,
        }
    } else {
        StepTime::at_step(step + 1)
    }
}

/// Latest legal start for `op` finishing no later than `deadline_ns`.
pub fn place_before(cdfg: &Cdfg, op: OpId, deadline_ns: i64) -> StepTime {
    let stage = cdfg.library().stage_ns() as i64;
    let delay = cdfg.op_delay_ns(op) as i64;
    if cdfg.op_cycles(op) > 1 {
        let cycles = cdfg.op_cycles(op) as i64;
        let step = deadline_ns.div_euclid(stage) - cycles;
        return StepTime::at_step(step);
    }
    if boundary_start(cdfg, op) {
        // Start at the latest boundary s with s*stage + delay <= deadline.
        let step = (deadline_ns - delay).div_euclid(stage);
        return StepTime::at_step(step);
    }
    let latest = deadline_ns - delay;
    let offset = latest.rem_euclid(stage);
    if offset + delay <= stage {
        StepTime {
            step: latest.div_euclid(stage),
            offset_ns: offset as u64,
        }
    } else {
        // Must finish by the end of the step containing `latest`.
        let step = latest.div_euclid(stage);
        StepTime {
            step,
            offset_ns: (stage - delay) as u64,
        }
    }
}

/// Computes as-soon-as-possible start times over degree-0 edges.
///
/// # Errors
///
/// Returns [`GraphError::CyclicDependence`] if degree-0 edges form a cycle.
pub fn asap(cdfg: &Cdfg) -> Result<TimingAnalysis, GraphError> {
    let order = cdfg.topo_order()?;
    let mut start = vec![StepTime::at_step(0); cdfg.ops().len()];
    for &op in &order {
        let mut ready = 0i64;
        for &eid in cdfg.preds(op) {
            let e = cdfg.edge(eid);
            if e.degree == 0 {
                ready = ready.max(finish_ns(cdfg, e.from, start[e.from.index()]));
            }
        }
        start[op.index()] = place_after(cdfg, op, ready);
    }
    Ok(TimingAnalysis { start })
}

/// Computes as-late-as-possible start times so that every operation finishes
/// within `deadline_steps` control steps.
///
/// # Errors
///
/// Returns [`GraphError::CyclicDependence`] if degree-0 edges form a cycle.
pub fn alap(cdfg: &Cdfg, deadline_steps: i64) -> Result<TimingAnalysis, GraphError> {
    let order = cdfg.topo_order()?;
    let stage = cdfg.library().stage_ns() as i64;
    let horizon = deadline_steps * stage;
    let mut start = vec![StepTime::at_step(0); cdfg.ops().len()];
    for &op in order.iter().rev() {
        let mut deadline = horizon;
        for &eid in cdfg.succs(op) {
            let e = cdfg.edge(eid);
            if e.degree == 0 {
                deadline = deadline.min(start[e.to.index()].ns(cdfg.library().stage_ns()));
            }
        }
        start[op.index()] = place_before(cdfg, op, deadline);
    }
    Ok(TimingAnalysis { start })
}

/// Per-operation `(asap_step, alap_step)` frames (the *time frames* used by
/// force-directed scheduling and by the conditional-sharing heuristic of
/// Section 7.2).
///
/// # Errors
///
/// Returns an error if the graph is cyclic over degree-0 edges.
pub fn step_frames(cdfg: &Cdfg, deadline_steps: i64) -> Result<Vec<(i64, i64)>, GraphError> {
    let a = asap(cdfg)?;
    let l = alap(cdfg, deadline_steps)?;
    Ok(cdfg
        .op_ids()
        .map(|op| (a.of(op).step, l.of(op).step))
        .collect())
}

/// Maximum time constraints induced by data recursive edges for initiation
/// rate `l` (Section 7.1): for an edge `from -> to` of degree `d`,
/// `step(from) - step(to) <= d*l - cycles(from)`.
pub fn max_time_constraints(cdfg: &Cdfg, l: u32) -> Vec<MaxTimeConstraint> {
    cdfg.edges()
        .iter()
        .filter(|e| e.degree > 0)
        .map(|e| MaxTimeConstraint {
            from: e.from,
            to: e.to,
            bound: e.degree as i64 * l as i64 - cdfg.op_cycles(e.from) as i64,
        })
        .collect()
}

/// Composite maximum time constraints through feedback transfers
/// ([`Cdfg::is_feedback_transfer`], Section 7.1). The schedulers place a
/// feedback transfer in its own window after everything else, so the
/// recursive edge into it cannot bind the other operations directly.
/// Instead, for a recursive edge of degree `d` from `prod` into a
/// feedback transfer whose value a degree-0 edge carries to `cons` (not
/// itself a feedback transfer),
/// `step(prod) - step(cons) <= d*l - cycles(prod) - 1`: the transfer
/// itself takes a step between them. Without these the producer can
/// drift so late that the transfer's window becomes empty.
pub fn composite_constraints(cdfg: &Cdfg, l: u32) -> Vec<MaxTimeConstraint> {
    let mut out = Vec::new();
    for w in cdfg.op_ids().filter(|&w| cdfg.is_feedback_transfer(w)) {
        for &pe in cdfg.preds(w) {
            let pe = cdfg.edge(pe);
            if pe.degree == 0 {
                continue;
            }
            for &se in cdfg.succs(w) {
                let se = cdfg.edge(se);
                if se.degree == 0 && !cdfg.is_feedback_transfer(se.to) {
                    out.push(MaxTimeConstraint {
                        from: pe.from,
                        to: se.to,
                        bound: pe.degree as i64 * l as i64 - cdfg.op_cycles(pe.from) as i64 - 1,
                    });
                }
            }
        }
    }
    out
}

/// Static step-group windows for *feedback values* — values carried
/// off-chip by a transfer that is fed by a data recursive edge. For a
/// transfer of degree `d` the legal start interval is
/// `[asap(producer) + cycles(producer) - d*L, asap(consumer) - 1]`
/// (Section 7.1); the returned sets are the control-step groups of those
/// intervals, intersected over a value's feedback transfers. Values whose
/// window spans at least `l` steps map to all groups. Connection
/// synthesis and bus allocation use these sets to keep a slot available
/// for every preloaded transfer.
pub fn feedback_group_windows(
    cdfg: &Cdfg,
    l: u32,
) -> std::collections::BTreeMap<crate::ValueId, std::collections::BTreeSet<u32>> {
    let mut map: std::collections::BTreeMap<crate::ValueId, std::collections::BTreeSet<u32>> =
        std::collections::BTreeMap::new();
    let Ok(asap_times) = asap(cdfg) else {
        return map;
    };
    let rate = l.max(1) as i64;
    for op in cdfg.op_ids().filter(|&op| cdfg.is_feedback_transfer(op)) {
        let (v, _, _) = cdfg.op(op).io_endpoints().expect("io op");
        let lo = cdfg
            .preds(op)
            .iter()
            .map(|&e| cdfg.edge(e))
            .filter(|e| e.degree > 0)
            .map(|e| {
                asap_times.of(e.from).step + cdfg.op_cycles(e.from) as i64 - e.degree as i64 * rate
            })
            .max()
            .expect("a feedback transfer has a recursive input");
        let hi = cdfg
            .succs(op)
            .iter()
            .map(|&e| cdfg.edge(e))
            .filter(|e| e.degree == 0)
            .map(|e| asap_times.of(e.to).step - 1)
            .min()
            .unwrap_or(lo + rate - 1);
        let mut groups = std::collections::BTreeSet::new();
        if hi - lo + 1 >= rate {
            groups.extend(0..l);
        } else {
            for s in lo..=hi.max(lo) {
                groups.insert(s.rem_euclid(rate) as u32);
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
    map
}

/// The smallest initiation rate permitted by the recursive loops of the
/// graph: `max` over all dependence cycles of
/// `ceil(total_latency / total_degree)` (Section 4.4.2 computes 20/1 = 20
/// for the unmodified elliptic filter and 20/4 = 5 after the degree
/// modification).
///
/// Latency is measured in whole cycles per operation (chaining is not
/// credited, matching the paper's cycle-level loop argument).
///
/// Returns 1 if the graph has no recursive cycle.
pub fn min_initiation_rate(cdfg: &Cdfg) -> u32 {
    // Feasibility test via longest-path: L is feasible iff the constraint
    // graph with arc weights (cycles(from) - degree*L) has no positive
    // cycle. Feasibility is monotone in L, so binary search.
    let total: i64 = cdfg.op_ids().map(|op| cdfg.op_cycles(op) as i64).sum();
    let mut lo = 1i64;
    let mut hi = total.max(1);
    if positive_cycle_free(cdfg, hi) {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if positive_cycle_free(cdfg, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as u32
    } else {
        // No finite rate admits a schedule; report the conservative total.
        total.max(1) as u32
    }
}

fn positive_cycle_free(cdfg: &Cdfg, l: i64) -> bool {
    let n = cdfg.ops().len();
    if n == 0 {
        return true;
    }
    // Bellman-Ford longest path from a virtual source connected to all
    // nodes with weight 0; a relaxation in round n signals a positive cycle.
    let mut dist = vec![0i64; n];
    for round in 0..=n {
        let mut changed = false;
        for e in cdfg.edges() {
            let w = cdfg.op_cycles(e.from) as i64 - e.degree as i64 * l;
            let cand = dist[e.from.index()] + w;
            if cand > dist[e.to.index()] {
                dist[e.to.index()] = cand;
                changed = true;
                if round == n {
                    return false;
                }
            }
        }
        if !changed {
            return true;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CdfgBuilder, Edge};
    use crate::library::{Library, OperatorClass};

    /// a -> m (mul 210ns) -> s (add 30ns) chainable? 210+30=240 <= 250.
    #[test]
    fn asap_chains_within_stage() {
        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 64);
        let (_, a) = b.input("a", 8, p1);
        let (m_op, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        let (s_op, _) = b.func("s", OperatorClass::Add, p1, &[(m, 0)], 8);
        let g = b.finish().unwrap();
        let t = asap(&g).unwrap();
        // Input I/O occupies step 0 (offset 0); mul chains after it at 10ns.
        assert_eq!(
            t.of(m_op),
            StepTime {
                step: 0,
                offset_ns: 10
            }
        );
        // 10 + 210 = 220; add fits: starts at 220, ends 250.
        assert_eq!(
            t.of(s_op),
            StepTime {
                step: 0,
                offset_ns: 220
            }
        );
    }

    #[test]
    fn asap_bumps_to_next_step_when_chain_overflows() {
        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 64);
        let (_, a) = b.input("a", 8, p1);
        let (_, m1) = b.func("m1", OperatorClass::Mul, p1, &[(a, 0)], 8);
        // Second multiply cannot chain after the first: 10+210+210 > 250.
        let (m2_op, _) = b.func("m2", OperatorClass::Mul, p1, &[(m1, 0)], 8);
        let g = b.finish().unwrap();
        let t = asap(&g).unwrap();
        assert_eq!(t.of(m2_op), StepTime::at_step(1));
    }

    #[test]
    fn io_starts_at_step_boundaries() {
        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 64);
        let p2 = b.partition("P2", 64);
        let (_, a) = b.input("a", 8, p1);
        let (_, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        // m finishes at 220ns, mid-step: the transfer waits for step 1.
        let (x_op, x) = b.io("X", m, p2);
        // The consumer may chain directly after the 10ns transfer.
        let (s_op, _) = b.func("s", OperatorClass::Add, p2, &[(x, 0)], 8);
        let g = b.finish().unwrap();
        let t = asap(&g).unwrap();
        assert_eq!(t.of(x_op), StepTime::at_step(1));
        assert_eq!(
            t.of(s_op),
            StepTime {
                step: 1,
                offset_ns: 10
            }
        );
    }

    #[test]
    fn multicycle_ops_round_to_boundaries_and_block() {
        let mut b = CdfgBuilder::new(Library::elliptic_filter());
        let p1 = b.partition("P1", 64);
        let (_, a) = b.input("a", 16, p1);
        let (m_op, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 16);
        let (s_op, _) = b.func("s", OperatorClass::Add, p1, &[(m, 0)], 16);
        let g = b.finish().unwrap();
        let t = asap(&g).unwrap();
        assert_eq!(t.of(m_op), StepTime::at_step(1)); // after the input transfer
        assert_eq!(t.of(s_op), StepTime::at_step(3)); // mul occupies steps 1-2
    }

    #[test]
    fn alap_respects_deadline_and_precedence() {
        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 64);
        let (_, a) = b.input("a", 8, p1);
        let (m_op, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        let (s_op, s) = b.func("s", OperatorClass::Add, p1, &[(m, 0)], 8);
        let o_op = b.output("o", s);
        let g = b.finish().unwrap();
        let l = alap(&g, 4).unwrap();
        assert_eq!(l.of(o_op), StepTime::at_step(3));
        // s must finish before the output transfer begins (step 3 boundary).
        assert_eq!(l.of(s_op).step, 2);
        assert!(l.of(m_op).ns(250) + 210 <= l.of(s_op).ns(250));
        let a_ = asap(&g).unwrap();
        for op in g.op_ids() {
            assert!(
                a_.of(op).ns(250) <= l.of(op).ns(250),
                "frame inverted for {op}"
            );
        }
    }

    #[test]
    fn frames_shrink_with_tighter_deadline() {
        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 64);
        let (_, a) = b.input("a", 8, p1);
        let (_, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        let (_, s) = b.func("s", OperatorClass::Add, p1, &[(m, 0)], 8);
        b.output("o", s);
        let g = b.finish().unwrap();
        let wide = step_frames(&g, 6).unwrap();
        let tight = step_frames(&g, 2).unwrap();
        for (w, t) in wide.iter().zip(&tight) {
            assert_eq!(w.0, t.0);
            assert!(w.1 >= t.1);
        }
    }

    #[test]
    fn recursive_edge_yields_max_time_constraint() {
        let mut b = CdfgBuilder::new(Library::elliptic_filter());
        let p1 = b.partition("P1", 64);
        let (_, a) = b.input("a", 16, p1);
        let (s_op, s) = b.func("s", OperatorClass::Add, p1, &[(a, 0)], 16);
        let (m_op, m) = b.func("m", OperatorClass::Mul, p1, &[(s, 0)], 16);
        b.add_edge(Edge {
            from: m_op,
            to: s_op,
            value: m,
            degree: 2,
        });
        let g = b.finish().unwrap();
        let cs = max_time_constraints(&g, 5);
        assert_eq!(cs.len(), 1);
        // d*L - cycles(mul) = 2*5 - 2 = 8.
        assert_eq!(
            cs[0],
            MaxTimeConstraint {
                from: m_op,
                to: s_op,
                bound: 8
            }
        );
    }

    #[test]
    fn min_initiation_rate_matches_loop_ratio() {
        // Loop: s (1 cycle) -> m (2 cycles) -> back to s with degree 1:
        // latency 3, degree 1 => L >= 3.
        let mut b = CdfgBuilder::new(Library::elliptic_filter());
        let p1 = b.partition("P1", 64);
        let (_, a) = b.input("a", 16, p1);
        let (s_op, s) = b.func("s", OperatorClass::Add, p1, &[(a, 0)], 16);
        let (m_op, m) = b.func("m", OperatorClass::Mul, p1, &[(s, 0)], 16);
        b.add_edge(Edge {
            from: m_op,
            to: s_op,
            value: m,
            degree: 1,
        });
        let g = b.finish().unwrap();
        assert_eq!(min_initiation_rate(&g), 3);
    }

    #[test]
    fn min_initiation_rate_is_one_without_recursion() {
        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 64);
        let (_, a) = b.input("a", 8, p1);
        let (_, s) = b.func("s", OperatorClass::Add, p1, &[(a, 0)], 8);
        b.output("o", s);
        let g = b.finish().unwrap();
        assert_eq!(min_initiation_rate(&g), 1);
    }

    #[test]
    fn higher_degree_lowers_min_rate() {
        let mk = |degree| {
            let mut b = CdfgBuilder::new(Library::elliptic_filter());
            let p1 = b.partition("P1", 64);
            let (_, a) = b.input("a", 16, p1);
            let (first, s0) = b.func("s0", OperatorClass::Add, p1, &[(a, 0)], 16);
            let mut prev = s0;
            for i in 1..8 {
                let (_, v) = b.func(&format!("s{i}"), OperatorClass::Add, p1, &[(prev, 0)], 16);
                prev = v;
            }
            let last_op = OpId::new(b.op_count() as u32 - 1);
            b.add_edge(Edge {
                from: last_op,
                to: first,
                value: prev,
                degree,
            });
            b.finish().unwrap()
        };
        // Loop latency 8; degree 1 -> 8, degree 4 -> 2.
        assert_eq!(min_initiation_rate(&mk(1)), 8);
        assert_eq!(min_initiation_rate(&mk(4)), 2);
    }

    #[test]
    fn feedback_windows_cover_only_legal_groups() {
        // The elliptic filter's feedback transfers get nonempty static
        // windows at every feasible rate, and every listed group is a
        // valid residue class.
        for l in [5u32, 6, 7] {
            let d = crate::designs::elliptic::partitioned_with(l, crate::PortMode::Unidirectional);
            let windows = feedback_group_windows(d.cdfg(), l);
            assert!(!windows.is_empty(), "EWF carries feedback transfers");
            for (v, groups) in &windows {
                assert!(!groups.is_empty(), "{v}: empty window at L={l}");
                assert!(groups.iter().all(|&g| g < l));
            }
        }
    }

    #[test]
    fn composite_constraints_of_figure_7_4() {
        // `join` on P2 feeds the feedback transfer Y over a degree-2 edge,
        // and Y's value reaches `t1` on P1 over a degree-0 edge: one
        // composite constraint `step(join) - step(t1) <= 2L - 1 - 1`
        // (single-cycle adder, minus the step Y itself takes).
        let d = crate::designs::synthetic::fig_7_4(1, 2, 2);
        let g = d.cdfg();
        let (join, t1) = (d.op_named("join"), d.op_named("t1"));
        assert!(g.is_feedback_transfer(d.op_named("Y")));
        assert!(!g.is_feedback_transfer(d.op_named("X")));
        assert_eq!(g.op_cycles(join), 1);
        for (l, bound) in [(3u32, 4i64), (4, 6), (5, 8)] {
            assert_eq!(
                composite_constraints(g, l),
                vec![MaxTimeConstraint {
                    from: join,
                    to: t1,
                    bound
                }],
                "L={l}"
            );
        }
        // Recursion that stays on one chip (the quickstart accumulator)
        // routes through no transfer, so it adds no composite constraint.
        let on_chip = crate::designs::synthetic::quickstart();
        assert!(!max_time_constraints(on_chip.cdfg(), 3).is_empty());
        assert!(composite_constraints(on_chip.cdfg(), 3).is_empty());
    }

    #[test]
    fn plain_designs_have_no_feedback_windows() {
        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 32);
        let p2 = b.partition("P2", 32);
        let (_, a) = b.input("a", 8, p1);
        let (_, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        let (_, m2) = b.io("X", m, p2);
        let (_, s) = b.func("s", OperatorClass::Add, p2, &[(m2, 0)], 8);
        b.output("o", s);
        let g = b.finish().unwrap();
        assert!(feedback_group_windows(&g, 3).is_empty());
    }

    #[test]
    fn place_after_and_before_are_consistent() {
        let d = crate::designs::synthetic::quickstart();
        let g = d.cdfg();
        let stage = g.library().stage_ns();
        for op in g.op_ids() {
            let t = place_after(g, op, 730);
            // Placement respects readiness...
            assert!(t.ns(stage) >= 730, "{op}");
            // ...and a placement before a generous deadline finishes by it.
            let deadline = 4000;
            let before = place_before(g, op, deadline);
            assert!(finish_ns(g, op, before) <= deadline, "{op}");
        }
    }

    #[test]
    fn step_time_ns_handles_negative_steps() {
        let t = StepTime {
            step: -2,
            offset_ns: 50,
        };
        assert_eq!(t.ns(250), -450);
        assert_eq!(StepTime::at_step(-1).ns(100), -100);
    }
}
