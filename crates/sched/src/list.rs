//! List scheduling under resource constraints with a pluggable I/O
//! placement policy (Figure 3.4 and Section 4.2).
//!
//! All partitions are scheduled simultaneously (Section 3.2). Before an
//! I/O operation is placed in a control step, the policy is consulted —
//! the Chapter 3 pin-allocation feasibility checker, the Chapter 4 bus
//! allocator with dynamic reassignment, or no policy at all. Rejected I/O
//! operations are postponed to a later step, exactly as in the paper's
//! prototype.
//!
//! Feedback transfers — I/O operations fed by a data recursive edge — are
//! placed in a second phase inside their legal window, which typically
//! lands them in *negative* control steps: the value of an earlier
//! execution instance is brought on-chip before the current instance
//! starts (Section 4.4.2's "I/O operations with negative indexes").

use std::collections::BTreeMap;

use mcs_cdfg::timing::{self, StepTime};
use mcs_cdfg::{Cdfg, OpId, OpKind, OperatorClass, PartitionId};
use mcs_ctl::{Budget, Termination};
use mcs_metrics::MetricsHandle;
use mcs_obs::{Event, PlaceVerdict};
use mcs_pinalloc::PinChecker;

use crate::schedule::Schedule;
use crate::wheel::{AllocationWheel, WheelError};

/// Pin/bus admission control consulted before every I/O placement.
pub trait IoPolicy {
    /// Attempts to allocate resources for `op` in `step`. On success the
    /// allocation is committed and the verdict is
    /// [`PlaceVerdict::Placed`] or [`PlaceVerdict::SharedSlot`];
    /// otherwise state is unchanged and the verdict says why.
    fn place(&mut self, cdfg: &Cdfg, op: OpId, step: i64) -> PlaceVerdict;
}

/// A policy that admits everything (pure resource-constrained list
/// scheduling).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullPolicy;

impl IoPolicy for NullPolicy {
    fn place(&mut self, _cdfg: &Cdfg, _op: OpId, _step: i64) -> PlaceVerdict {
        PlaceVerdict::Placed
    }
}

/// The Chapter 3 policy: the incremental pin-allocation feasibility
/// checker guards every I/O placement (the bold boxes of Figure 3.4).
#[derive(Clone, Debug)]
pub struct PinPolicy {
    checker: PinChecker,
}

impl PinPolicy {
    /// Wraps a built checker.
    pub fn new(checker: PinChecker) -> Self {
        PinPolicy { checker }
    }

    /// The wrapped checker (to inspect commitments after scheduling).
    pub fn checker(&self) -> &PinChecker {
        &self.checker
    }
}

impl IoPolicy for PinPolicy {
    /// One [`PinChecker::can_commit`] question per consultation, then the
    /// commit when the answer is yes.
    fn place(&mut self, _cdfg: &Cdfg, op: OpId, step: i64) -> PlaceVerdict {
        if self.checker.can_commit(op, step) && self.checker.commit(op, step).is_ok() {
            PlaceVerdict::Placed
        } else {
            PlaceVerdict::PinInfeasible
        }
    }
}

/// List-scheduler tuning.
#[derive(Clone, Debug)]
pub struct ListConfig {
    /// Initiation rate `L`.
    pub rate: u32,
    /// Abort if the schedule exceeds this many control steps.
    pub max_steps: i64,
    /// Earliest permitted start step per operation. Flows use this to hold
    /// the consumers of feedback transfers back a few steps when a
    /// composite maximum time constraint proved too tight — the "constrain
    /// some of the operations and rerun" remedy of Sections 5.3/6.3.
    pub hold_back: BTreeMap<OpId, i64>,
    /// Telemetry handle: every I/O policy consultation counts one
    /// `sched.place_attempts`, placed or not, and records a
    /// `ScheduleDecision` event when the handle carries an event sink.
    /// Disconnected by default, costing one branch per consultation.
    pub metrics: MetricsHandle,
    /// Optional execution budget, polled at every control-step boundary
    /// and before each phase-2 window search. A tripped budget aborts
    /// with [`SchedError::Interrupted`] rather than running to the step
    /// bound.
    pub budget: Option<Budget>,
}

impl ListConfig {
    /// Defaults: generous step bound, no hold-backs.
    pub fn new(rate: u32) -> Self {
        ListConfig {
            rate,
            max_steps: 512,
            hold_back: BTreeMap::new(),
            metrics: MetricsHandle::default(),
            budget: None,
        }
    }
}

/// Why list scheduling failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The initiation rate must be positive.
    ZeroRate,
    /// An operation missed the deadline imposed by a maximum time
    /// constraint (the greedy failure mode the paper reports for the
    /// elliptic filter at initiation rate 5).
    DeadlineMissed {
        /// The late operation.
        op: OpId,
    },
    /// A feedback transfer found no admissible step in its legal window.
    NoWindowSlot {
        /// The unplaceable transfer.
        op: OpId,
    },
    /// The step bound was exceeded (policy rejections or resource
    /// starvation never resolved).
    StepLimit,
    /// Equation 7.5's lower bound proves the declared units cannot carry
    /// the operations at this initiation rate.
    ResourceInfeasible {
        /// The starved partition.
        partition: PartitionId,
        /// The operator class.
        class: OperatorClass,
    },
    /// The graph is cyclic over degree-0 edges.
    Cyclic,
    /// The operator library declares a zero-cycle class — malformed
    /// input that used to trip an assert inside the allocation wheel.
    ZeroCycles {
        /// The offending operator class.
        class: OperatorClass,
    },
    /// A phase-2 feedback transfer depends on another deferred transfer
    /// (chained feedback), which this scheduler does not support — a
    /// malformed-graph shape that used to panic.
    UnscheduledDependence {
        /// The transfer whose window could not be computed.
        op: OpId,
    },
    /// An internal bookkeeping invariant failed (a bug guard; never
    /// expected on any input).
    Inconsistent(&'static str),
    /// The attached execution [`Budget`] tripped; the carried
    /// [`Termination`] says why.
    Interrupted(Termination),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::ZeroRate => write!(f, "initiation rate must be at least 1"),
            SchedError::DeadlineMissed { op } => {
                write!(f, "{op} missed a recursive-edge deadline")
            }
            SchedError::NoWindowSlot { op } => {
                write!(f, "feedback transfer {op} fits no admissible step")
            }
            SchedError::StepLimit => write!(f, "schedule exceeded the step bound"),
            SchedError::ResourceInfeasible { partition, class } => write!(
                f,
                "{partition} cannot execute its {class} operations at this rate (Eq. 7.5)"
            ),
            SchedError::Cyclic => write!(f, "dependence cycle over degree-0 edges"),
            SchedError::ZeroCycles { class } => {
                write!(f, "operator class {class} declares zero cycles")
            }
            SchedError::UnscheduledDependence { op } => {
                write!(
                    f,
                    "feedback transfer {op} depends on another deferred transfer"
                )
            }
            SchedError::Inconsistent(what) => {
                write!(f, "internal scheduler invariant failed: {what}")
            }
            SchedError::Interrupted(t) => write!(f, "scheduling interrupted ({t})"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Schedules `cdfg` with list scheduling under its partitions' resource
/// constraints, consulting `policy` before each I/O placement.
///
/// # Errors
///
/// See [`SchedError`]; greedy list scheduling is incomplete and may fail
/// on designs with tight maximum time constraints even when a schedule
/// exists (Section 4.4.2).
pub fn list_schedule<P: IoPolicy>(
    cdfg: &Cdfg,
    cfg: &ListConfig,
    policy: &mut P,
) -> Result<Schedule, SchedError> {
    if cfg.rate == 0 {
        return Err(SchedError::ZeroRate);
    }
    let m_place_attempts = cfg.metrics.counter("sched.place_attempts");
    let stage = cdfg.library().stage_ns() as i64;
    let n = cdfg.ops().len();
    let order = cdfg.topo_order().map_err(|_| SchedError::Cyclic)?;

    // Feedback transfers (fed by a recursive edge) go to phase 2.
    let deferred: Vec<bool> = cdfg
        .op_ids()
        .map(|op| cdfg.op(op).is_io() && cdfg.preds(op).iter().any(|&e| cdfg.edge(e).degree > 0))
        .collect();

    // Priority: longest path to a sink over degree-0 edges, in ns.
    let mut prio = vec![0i64; n];
    for &op in order.iter().rev() {
        let own = if cdfg.op_cycles(op) > 1 {
            cdfg.op_cycles(op) as i64 * stage
        } else {
            cdfg.op_delay_ns(op) as i64
        };
        let succ_max = cdfg
            .succs(op)
            .iter()
            .filter(|&&e| cdfg.edge(e).degree == 0)
            .map(|&e| prio[cdfg.edge(e).to.index()])
            .max()
            .unwrap_or(0);
        prio[op.index()] = own + succ_max;
    }

    // Same-value transfers prefer to ride one bus slot, which requires
    // co-scheduling (Section 2.2.1): order each value's non-deferred
    // transfers by priority and let followers wait for their leader, so
    // the within-step loop can land them together.
    let mut sibling_pred: Vec<Option<OpId>> = vec![None; n];
    {
        let groups = cdfg.io_ops_by_value();
        for (_, ops) in groups {
            let mut members: Vec<OpId> =
                ops.into_iter().filter(|op| !deferred[op.index()]).collect();
            if members.len() < 2 {
                continue;
            }
            members.sort_by_key(|&op| (std::cmp::Reverse(prio[op.index()]), op));
            for pair in members.windows(2) {
                sibling_pred[pair[1].index()] = Some(pair[0]);
            }
        }
    }

    // Maximum time constraints. Deferred transfers get their own phase-2
    // window, but the constraints *through* them must bind phase 1:
    // a producer feeding a feedback transfer of degree `d` whose value is
    // consumed by `cons` obeys
    // `t_prod - t_cons <= d*L - cycles(prod) - 1` (the transfer itself
    // takes a cycle between them). Without these composite constraints the
    // producer can drift so late that the transfer window becomes empty.
    let mut constraints: Vec<timing::MaxTimeConstraint> =
        timing::max_time_constraints(cdfg, cfg.rate)
            .into_iter()
            .filter(|c| !deferred[c.from.index()] && !deferred[c.to.index()])
            .collect();
    for w in cdfg.op_ids() {
        if !deferred[w.index()] {
            continue;
        }
        for &pe in cdfg.preds(w) {
            let pe = cdfg.edge(pe);
            if pe.degree == 0 {
                continue;
            }
            for &se in cdfg.succs(w) {
                let se = cdfg.edge(se);
                if se.degree == 0 && !deferred[se.to.index()] {
                    constraints.push(timing::MaxTimeConstraint {
                        from: pe.from,
                        to: se.to,
                        bound: pe.degree as i64 * cfg.rate as i64
                            - cdfg.op_cycles(pe.from) as i64
                            - 1,
                    });
                }
            }
        }
    }

    // Chaining-aware backward deadline propagation: once an op acquires a
    // start-step deadline, its predecessors must finish in time for it.
    let latest_start_ns = |op: OpId, d: i64| -> i64 {
        if timing::boundary_start(cdfg, op) {
            d * stage
        } else {
            d * stage + (stage - cdfg.op_delay_ns(op) as i64).max(0)
        }
    };
    let tighten = |deadline: &mut Vec<i64>, op: OpId, d: i64| {
        let mut work = vec![(op, d)];
        while let Some((o, d)) = work.pop() {
            if d >= deadline[o.index()] {
                continue;
            }
            deadline[o.index()] = d;
            let latest = latest_start_ns(o, d);
            for &e in cdfg.preds(o) {
                let e = cdfg.edge(e);
                if e.degree == 0 && !deferred[e.from.index()] {
                    let pd = timing::place_before(cdfg, e.from, latest).step;
                    work.push((e.from, pd));
                }
            }
        }
    };
    let mut deadline: Vec<i64> = vec![i64::MAX / 4; n];

    // Allocation wheels per (partition, class).
    let mut wheels: BTreeMap<(PartitionId, OperatorClass), AllocationWheel> = BTreeMap::new();
    let mut unscheduled_of: BTreeMap<(PartitionId, OperatorClass), u32> = BTreeMap::new();
    for op in cdfg.op_ids() {
        if let OpKind::Func(class) = &cdfg.op(op).kind {
            let key = (cdfg.op(op).partition, class.clone());
            *unscheduled_of.entry(key).or_insert(0) += 1;
        }
    }
    for (key, &count) in &unscheduled_of {
        let units = cdfg
            .partition(key.0)
            .resources
            .get(&key.1)
            .copied()
            .unwrap_or(u32::MAX)
            .min(count);
        let cycles = cdfg.library().cycles(&key.1);
        // Equation 7.5: fail fast when the units provably cannot keep up.
        match AllocationWheel::lower_bound(count, cfg.rate, cycles) {
            Some(need) if need <= units => {}
            _ => {
                return Err(SchedError::ResourceInfeasible {
                    partition: key.0,
                    class: key.1.clone(),
                })
            }
        }
        let wheel = AllocationWheel::new(units, cfg.rate, cycles).map_err(|e| match e {
            WheelError::ZeroRate => SchedError::ZeroRate,
            WheelError::ZeroCycles => SchedError::ZeroCycles {
                class: key.1.clone(),
            },
        })?;
        wheels.insert(key.clone(), wheel);
    }

    let mut start: Vec<Option<StepTime>> = vec![None; n];
    let mut pending_phase1 = (0..n).filter(|&i| !deferred[i]).count();

    let mut step = 0i64;
    while pending_phase1 > 0 {
        // A control-step boundary is a safe interruption point: nothing
        // is half-placed here.
        if let Some(budget) = &cfg.budget {
            if let Some(t) = budget.check() {
                return Err(SchedError::Interrupted(t));
            }
        }
        if step > cfg.max_steps {
            return Err(SchedError::StepLimit);
        }
        // Activate deadlines whose anchor (the constraint's consumer) is
        // placed, propagating backward through the dependence cone.
        for c in &constraints {
            if let Some(t_to) = start[c.to.index()] {
                tighten(&mut deadline, c.from, t_to.step + c.bound);
            }
        }
        for op in cdfg.op_ids() {
            if start[op.index()].is_none() && !deferred[op.index()] && step > deadline[op.index()] {
                return Err(SchedError::DeadlineMissed { op });
            }
        }
        // Chaining can make ops ready mid-step; iterate to a fixpoint.
        loop {
            let mut candidates: Vec<(i64, i64, OpId, StepTime)> = Vec::new();
            for op in cdfg.op_ids() {
                if start[op.index()].is_some() || deferred[op.index()] {
                    continue;
                }
                // Ready when every degree-0 predecessor not deferred is
                // placed (deferred producers deliver preloaded values).
                let mut ready = 0i64;
                let mut ok = true;
                for &e in cdfg.preds(op) {
                    let e = cdfg.edge(e);
                    if e.degree > 0 || deferred[e.from.index()] {
                        continue;
                    }
                    match start[e.from.index()] {
                        Some(t) => ready = ready.max(timing::finish_ns(cdfg, e.from, t)),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                if let Some(leader) = sibling_pred[op.index()] {
                    if start[leader.index()].is_none() {
                        continue;
                    }
                }
                let hold = cfg.hold_back.get(&op).copied().unwrap_or(i64::MIN);
                let cand = timing::place_after(cdfg, op, ready.max(step * stage));
                if cand.step == step && cand.step >= hold && cand.step <= deadline[op.index()] {
                    candidates.push((deadline[op.index()], -prio[op.index()], op, cand));
                }
            }
            candidates.sort();
            let mut placed_any = false;
            for (_, _, op, cand) in candidates {
                if start[op.index()].is_some() {
                    continue;
                }
                match &cdfg.op(op).kind {
                    OpKind::Func(class) => {
                        let key = (cdfg.op(op).partition, class.clone());
                        let wheel = wheels
                            .get_mut(&key)
                            .ok_or(SchedError::Inconsistent("no wheel for a counted class"))?;
                        let remaining = unscheduled_of[&key] - 1;
                        let multicycle = cdfg.library().cycles(class) > 1;
                        let admissible = if multicycle {
                            // Section 7.4 safety check against wheel
                            // fragmentation.
                            wheel.is_safe(cand.step, remaining)
                        } else {
                            wheel.can_place(cand.step)
                        };
                        if admissible {
                            wheel.place(cand.step).ok_or(SchedError::Inconsistent(
                                "admissible placement had no free unit",
                            ))?;
                            *unscheduled_of
                                .get_mut(&key)
                                .ok_or(SchedError::Inconsistent(
                                    "no count for a counted class",
                                ))? -= 1;
                            start[op.index()] = Some(cand);
                            pending_phase1 -= 1;
                            placed_any = true;
                        }
                    }
                    OpKind::Io { .. } => {
                        m_place_attempts.inc();
                        let verdict = policy.place(cdfg, op, cand.step);
                        cfg.metrics.record(Event::ScheduleDecision {
                            op: op.0,
                            step: cand.step,
                            verdict,
                        });
                        if verdict.placed() {
                            start[op.index()] = Some(cand);
                            pending_phase1 -= 1;
                            placed_any = true;
                        }
                    }
                    OpKind::Split { .. } | OpKind::Merge => {
                        start[op.index()] = Some(cand);
                        pending_phase1 -= 1;
                        placed_any = true;
                    }
                }
            }
            if !placed_any {
                break;
            }
        }
        step += 1;
    }

    // Phase 2: feedback transfers inside their legal windows, latest step
    // first (closest to the consumer, minimizing storage).
    for op in cdfg.op_ids() {
        if !deferred[op.index()] {
            continue;
        }
        if let Some(budget) = &cfg.budget {
            if let Some(t) = budget.check() {
                return Err(SchedError::Interrupted(t));
            }
        }
        // Window lower bound from the recursive producer edges:
        // t_op >= t_prod - d*L + cycles(prod).
        let mut lo = i64::MIN / 4;
        for &e in cdfg.preds(op) {
            let e = cdfg.edge(e);
            // A deferred transfer chained behind another deferred
            // transfer has no phase-1 start to anchor its window.
            let t = start[e.from.index()].ok_or(SchedError::UnscheduledDependence { op })?;
            if e.degree > 0 {
                lo = lo.max(
                    t.step + cdfg.op_cycles(e.from) as i64 - e.degree as i64 * cfg.rate as i64,
                );
            } else {
                // A plain forward edge into a transfer that also has a
                // recursive input: ready after the producer.
                let fin = timing::finish_ns(cdfg, e.from, t);
                lo = lo.max(fin.div_euclid(stage) + i64::from(fin.rem_euclid(stage) != 0));
            }
        }
        // Window upper bound from consumers: the transfer must finish
        // before each consumer reads.
        let mut hi = i64::MAX / 4;
        for &e in cdfg.succs(op) {
            let e = cdfg.edge(e);
            if e.degree > 0 {
                continue;
            }
            let t = start[e.to.index()].ok_or(SchedError::UnscheduledDependence { op })?;
            let io_fin = cdfg.library().io_delay_ns() as i64;
            // Latest boundary start such that finish <= consumer start.
            hi = hi.min((t.ns(cdfg.library().stage_ns()) - io_fin).div_euclid(stage));
        }
        if lo > hi {
            return Err(SchedError::NoWindowSlot { op });
        }
        let mut placed = false;
        let mut s = hi;
        while s >= lo {
            m_place_attempts.inc();
            let verdict = policy.place(cdfg, op, s);
            cfg.metrics.record(Event::ScheduleDecision {
                op: op.0,
                step: s,
                verdict,
            });
            if verdict.placed() {
                start[op.index()] = Some(StepTime::at_step(s));
                placed = true;
                break;
            }
            s -= 1;
            // The pin groups repeat with period L; one full period of
            // rejections cannot improve.
            if hi - s >= cfg.rate as i64 && lo <= hi - cfg.rate as i64 {
                break;
            }
        }
        if !placed {
            return Err(SchedError::NoWindowSlot { op });
        }
    }

    let start = start
        .into_iter()
        .map(|t| t.ok_or(SchedError::Inconsistent("an operation was never placed")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Schedule {
        rate: cfg.rate,
        start,
    })
}

/// Degree-0 consumers of feedback transfers: the operations a flow may
/// hold back to loosen composite maximum time constraints.
pub fn feedback_consumers(cdfg: &Cdfg) -> Vec<OpId> {
    let mut out = Vec::new();
    for w in cdfg.op_ids() {
        let is_feedback =
            cdfg.op(w).is_io() && cdfg.preds(w).iter().any(|&e| cdfg.edge(e).degree > 0);
        if !is_feedback {
            continue;
        }
        for &e in cdfg.succs(w) {
            let e = cdfg.edge(e);
            if e.degree == 0 {
                out.push(e.to);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate;
    use mcs_cdfg::designs::{ar_filter, synthetic};

    #[test]
    fn quickstart_schedules_cleanly() {
        let d = synthetic::quickstart();
        let s = list_schedule(d.cdfg(), &ListConfig::new(1), &mut NullPolicy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
    }

    #[test]
    fn resource_constraints_spread_operations() {
        // The simple AR filter's P1 has 2 multipliers at rate 2: its four
        // multiplications must spread across >= 2 step groups.
        let d = ar_filter::simple();
        let s = list_schedule(d.cdfg(), &ListConfig::new(2), &mut NullPolicy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
        let usage = s.resource_usage(d.cdfg());
        for ((p, class), used) in usage {
            let cap = d.cdfg().partition(p).resources[&class];
            assert!(used <= cap, "{p} {class}: {used} > {cap}");
        }
    }

    #[test]
    fn pin_policy_postpones_overcommitted_inputs() {
        // Chapter 3 end-to-end: the AR filter under the pin checker.
        let d = ar_filter::simple();
        let checker = PinChecker::new(d.cdfg(), 2).unwrap();
        let mut policy = PinPolicy::new(checker);
        let s = list_schedule(d.cdfg(), &ListConfig::new(2), &mut policy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
        assert!(policy.checker().all_committed());
        // P1's ten inputs cannot all sit in one step group (5 bundles):
        // both groups must be used.
        let p1 = mcs_cdfg::PartitionId::new(1);
        let groups: std::collections::BTreeSet<u32> = d
            .cdfg()
            .input_io_ops(p1)
            .iter()
            .map(|&op| s.group_of(op))
            .collect();
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn feedback_transfers_land_before_their_consumers() {
        let d = ar_filter::simple();
        let s = list_schedule(d.cdfg(), &ListConfig::new(2), &mut NullPolicy).unwrap();
        for name in ["X3", "X4", "X5", "X6"] {
            let x = d.op_named(name);
            for &e in d.cdfg().succs(x) {
                let e = d.cdfg().edge(e);
                if e.degree == 0 {
                    assert!(
                        s.of(x).step < s.of(e.to).step
                            || (s.of(x).step == s.of(e.to).step && s.of(e.to).offset_ns > 0),
                        "{name} must finish before its consumer"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_rate_is_rejected() {
        let d = synthetic::quickstart();
        assert_eq!(
            list_schedule(d.cdfg(), &ListConfig::new(0), &mut NullPolicy),
            Err(SchedError::ZeroRate)
        );
    }

    #[test]
    fn multicycle_safety_check_avoids_fragmentation() {
        // Three 2-cycle ops, one unit, rate 6 (Figure 7.10): naive greedy
        // fragmenting the wheel would strand op3; the safety check must
        // yield a valid schedule.
        let d = synthetic::multicycle_example();
        let s = list_schedule(d.cdfg(), &ListConfig::new(6), &mut NullPolicy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
    }

    #[test]
    fn chained_feedback_is_a_typed_error() {
        // Regression: a feedback transfer whose producer is itself a
        // deferred transfer used to panic ("producer scheduled in
        // phase 1"). The shape is constructible from the public
        // builder, so it must surface as a typed error.
        use mcs_cdfg::{CdfgBuilder, Library, OperatorClass};
        let mut b = CdfgBuilder::new(Library::new(100));
        let p1 = b.partition("P1", 64);
        let p2 = b.partition("P2", 64);
        // Created first so it is processed first in phase 2, before its
        // (also deferred) producer has a start step.
        let (y, _) = b.io_pending("Y", 8, p2, p1);
        let (_, a) = b.input("a", 8, p1);
        let (_, v) = b.func("f", OperatorClass::Add, p1, &[(a, 0)], 8);
        let (_, v2) = b.io_with_degree("X", v, p2, 1);
        b.bind_io_source(y, v2, 1);
        let g = b.finish().unwrap();
        assert!(matches!(
            list_schedule(&g, &ListConfig::new(2), &mut NullPolicy),
            Err(SchedError::UnscheduledDependence { .. })
        ));
    }

    #[test]
    fn tripped_budget_interrupts_scheduling() {
        use mcs_ctl::{Budget, BudgetSpec, Termination};
        let d = ar_filter::simple();
        let mut cfg = ListConfig::new(2);
        cfg.budget = Some(Budget::new(BudgetSpec::default().deadline_ms(0)));
        assert_eq!(
            list_schedule(d.cdfg(), &cfg, &mut NullPolicy),
            Err(SchedError::Interrupted(Termination::DeadlineExceeded))
        );
    }

    #[test]
    fn metrics_count_every_policy_consultation() {
        use mcs_metrics::Registry;
        use std::sync::Arc;
        let d = ar_filter::simple();
        let reg = Arc::new(Registry::new());
        let mut cfg = ListConfig::new(2);
        cfg.metrics = MetricsHandle::new(reg.clone());
        list_schedule(d.cdfg(), &cfg, &mut NullPolicy).unwrap();
        // NullPolicy admits everything, so each I/O operation is
        // consulted exactly once (phase 1 or its phase-2 window).
        assert_eq!(
            reg.snapshot().counters["sched.place_attempts"],
            d.cdfg().io_ops().count() as u64
        );
    }

    #[test]
    fn batch_priming_keeps_the_schedule_and_feeds_the_memo() {
        // The pin policy asks its checker one question per consultation
        // and schedules exactly as a bare checker loop does; retries of a
        // transfer in an already-probed step group resolve from the memo.
        struct Counted<P>(P, u64);
        impl<P: IoPolicy> IoPolicy for Counted<P> {
            fn place(&mut self, cdfg: &Cdfg, op: OpId, step: i64) -> PlaceVerdict {
                self.1 += 1;
                self.0.place(cdfg, op, step)
            }
        }
        struct BarePin(PinChecker);
        impl IoPolicy for BarePin {
            fn place(&mut self, _cdfg: &Cdfg, op: OpId, step: i64) -> PlaceVerdict {
                if self.0.can_commit(op, step) && self.0.commit(op, step).is_ok() {
                    PlaceVerdict::Placed
                } else {
                    PlaceVerdict::PinInfeasible
                }
            }
        }
        for d in [ar_filter::simple(), synthetic::fig_2_5()] {
            let mut pin = Counted(PinPolicy::new(PinChecker::new(d.cdfg(), 2).unwrap()), 0);
            let s = list_schedule(d.cdfg(), &ListConfig::new(2), &mut pin).unwrap();
            let mut bare = BarePin(PinChecker::new(d.cdfg(), 2).unwrap());
            let s0 = list_schedule(d.cdfg(), &ListConfig::new(2), &mut bare).unwrap();
            assert_eq!(s.start, s0.start);
            assert_eq!(validate(d.cdfg(), &s), vec![]);
            let stats = pin.0.checker().probe_stats();
            assert_eq!(stats.total_probes(), pin.1, "one probe per consultation");
            assert_eq!(stats, bare.0.probe_stats());
            assert!(stats.memo_hits > 0);
        }
    }

    #[test]
    fn impossible_pin_budget_fails_cleanly() {
        let d = synthetic::fig_2_5();
        // Rate 1: Pa's 2 output pins cannot carry 4 one-bit values in one
        // group.
        assert!(PinChecker::new(d.cdfg(), 1).is_err());
        // Rate 2 schedules fine under the checker.
        let checker = PinChecker::new(d.cdfg(), 2).unwrap();
        let mut policy = PinPolicy::new(checker);
        let s = list_schedule(d.cdfg(), &ListConfig::new(2), &mut policy).unwrap();
        assert_eq!(validate(d.cdfg(), &s), vec![]);
    }
}
