//! Force-directed scheduling (Section 5.1, after Paulin's FDS), adapted to
//! partitioned pipelined designs.
//!
//! All partitions are scheduled together. Distribution graphs are kept per
//! `(partition, operator class)` for functional operations and — because
//! an I/O operation is simultaneously an output of one partition and an
//! input of another — per partition *side* in bits for I/O operations
//! (Section 5.1's combined input/output distribution graphs). For a
//! pipelined design the distributions fold into the `L` control-step
//! groups.
//!
//! FDS minimizes resource needs by balancing concurrency; it does not
//! *enforce* resource constraints. Chapter 5's experiments read the
//! resulting per-group maxima as the "resources required" for a given
//! (initiation rate, pipe length) point — Tables 5.1 and 5.3.
//!
//! Each pinning step picks, among the unpinned `(op, step)` candidates
//! inside their current frames, the one of lowest force (ties by op id,
//! then step) whose placement is consistent with the pins already made.
//! Forces come from the current distribution graphs alone, so the scan
//! computes every candidate's force first and solves the pinned frames
//! only for a candidate that would replace the best so far. The pick is
//! the one an exhaustive scan that checks every candidate would make: an
//! inconsistent candidate never becomes the best, and a consistent one
//! that does not beat the best leaves it unchanged. A pinning step thus
//! costs one frame solve for the distributions, `O(n·W)` force
//! evaluations for `n` operations of frame width `W`, and one frame solve
//! per would-be winner rather than one per candidate. A frame solve is
//! `O(V + E)` per composite-constraint round, over a topological order
//! computed once per call.

use std::collections::BTreeMap;

use mcs_cdfg::timing::{self, MaxTimeConstraint, StepTime};
use mcs_cdfg::{Cdfg, OpId, OpKind, OperatorClass, PartitionId};

use crate::list::{feedback_window, SchedError};
use crate::schedule::Schedule;

/// Most control steps [`fds_schedule`] spans: a cap on both the pipe
/// length and the initiation rate. Force evaluation costs the square of a
/// frame's width, which the pipe length bounds, and the distribution
/// graphs hold one entry per step group, so an unchecked bound — the
/// default pipe length at rate 100 000, say — runs for hours or asks for
/// more memory than exists. The largest any in-repo design, test or bench
/// schedules is a pipe length of 50 at a rate of at most 9; at the cap
/// the elliptic filter takes about 5 s in a release build.
pub const MAX_FDS_STEPS: i64 = 1_024;

/// FDS parameters: the global time constraint is the pipe length.
#[derive(Clone, Debug)]
pub struct FdsConfig {
    /// Initiation rate `L`.
    pub rate: u32,
    /// Pipe length (deadline in control steps).
    pub pipe_length: i64,
}

/// Computes pinned ASAP/ALAP frames at ns resolution; `None` when the
/// pins are inconsistent with precedence, the deadline, or the composite
/// maximum time constraints (which couple feedback producers to the
/// consumers of their transfers and are resolved by fixpoint iteration —
/// they point "backward" against the topological order).
fn frames(
    cdfg: &Cdfg,
    order: &[OpId],
    pinned: &[Option<i64>],
    deferred: &[bool],
    composites: &[MaxTimeConstraint],
    deadline_steps: i64,
) -> Option<(Vec<StepTime>, Vec<StepTime>)> {
    let stage = cdfg.library().stage_ns() as i64;
    let n = cdfg.ops().len();
    // Extra step lower bounds raised by composite constraints.
    let mut floor_step = vec![i64::MIN / 4; n];
    let mut est = vec![StepTime::at_step(0); n];
    for _round in 0..=composites.len() {
        for &op in order {
            if deferred[op.index()] {
                continue;
            }
            let mut ready = (floor_step[op.index()].max(0)) * stage;
            for &eid in cdfg.preds(op) {
                let e = cdfg.edge(eid);
                if e.degree > 0 || deferred[e.from.index()] {
                    continue;
                }
                ready = ready.max(timing::finish_ns(cdfg, e.from, est[e.from.index()]));
            }
            let mut t = timing::place_after(cdfg, op, ready);
            if let Some(s) = pinned[op.index()] {
                if t.step > s {
                    return None;
                }
                t = timing::place_after(cdfg, op, ready.max(s * stage));
                if t.step != s {
                    return None;
                }
            }
            est[op.index()] = t;
        }
        // Composite: t_from - t_to <= bound raises est(to).
        let mut changed = false;
        for c in composites {
            let need = est[c.from.index()].step - c.bound;
            if need > floor_step[c.to.index()] && need > est[c.to.index()].step {
                floor_step[c.to.index()] = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // A second pass of composites after the fixpoint must hold.
    for c in composites {
        if est[c.from.index()].step - est[c.to.index()].step > c.bound
            && pinned[c.to.index()].is_some()
        {
            return None;
        }
    }
    let mut lst = vec![StepTime::at_step(0); n];
    let mut ceil_step = vec![i64::MAX / 4; n];
    for _round in 0..=composites.len() {
        for &op in order.iter().rev() {
            if deferred[op.index()] {
                continue;
            }
            let mut deadline = deadline_steps * stage;
            deadline = deadline.min((ceil_step[op.index()].min(deadline_steps) + 1) * stage);
            for &eid in cdfg.succs(op) {
                let e = cdfg.edge(eid);
                if e.degree > 0 || deferred[e.to.index()] {
                    continue;
                }
                deadline = deadline.min(lst[e.to.index()].ns(cdfg.library().stage_ns()));
            }
            let mut t = timing::place_before(cdfg, op, deadline);
            if let Some(s) = pinned[op.index()] {
                if t.step < s {
                    return None;
                }
                // Latest start within the pinned step; a multi-cycle
                // operation started at `s` completes at `s + cycles`.
                let cycles = cdfg.op_cycles(op) as i64;
                let step_end = (s + cycles.max(1)) * stage;
                t = timing::place_before(cdfg, op, deadline.min(step_end));
                if t.step != s {
                    return None;
                }
            }
            if t.step < est[op.index()].step {
                return None;
            }
            lst[op.index()] = t;
        }
        // Composite: t_from <= t_to + bound lowers lst(from).
        let mut changed = false;
        for c in composites {
            let cap = lst[c.to.index()].step + c.bound;
            if cap < ceil_step[c.from.index()] && cap < lst[c.from.index()].step {
                ceil_step[c.from.index()] = cap;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Some((est, lst))
}

/// Distribution graphs: functional per `(partition, class)` in operation
/// probability; I/O per partition side in bits.
#[derive(Clone, Debug, Default)]
struct Distributions {
    func: BTreeMap<(PartitionId, OperatorClass), Vec<f64>>,
    io_out: BTreeMap<PartitionId, Vec<f64>>,
    io_in: BTreeMap<PartitionId, Vec<f64>>,
}

impl Distributions {
    fn build(
        cdfg: &Cdfg,
        rate: u32,
        est: &[StepTime],
        lst: &[StepTime],
        deferred: &[bool],
    ) -> Self {
        let l = rate as usize;
        let mut d = Distributions::default();
        for op in cdfg.op_ids() {
            if deferred[op.index()] {
                continue;
            }
            let lo = est[op.index()].step;
            let hi = lst[op.index()].step.max(lo);
            let w = (hi - lo + 1) as f64;
            let cycles = cdfg.op_cycles(op) as i64;
            match &cdfg.op(op).kind {
                OpKind::Func(class) => {
                    let dg = d
                        .func
                        .entry((cdfg.op(op).partition, class.clone()))
                        .or_insert_with(|| vec![0.0; l]);
                    for s in lo..=hi {
                        for c in 0..cycles {
                            dg[(s + c).rem_euclid(rate as i64) as usize] += 1.0 / w;
                        }
                    }
                }
                OpKind::Io { from, to, .. } => {
                    let bits = cdfg.io_bits(op) as f64;
                    let out = d.io_out.entry(*from).or_insert_with(|| vec![0.0; l]);
                    for s in lo..=hi {
                        out[s.rem_euclid(rate as i64) as usize] += bits / w;
                    }
                    let inp = d.io_in.entry(*to).or_insert_with(|| vec![0.0; l]);
                    for s in lo..=hi {
                        inp[s.rem_euclid(rate as i64) as usize] += bits / w;
                    }
                }
                _ => {}
            }
        }
        d
    }

    /// Force of narrowing `op`'s frame from `[lo, hi]` to exactly `s`.
    fn force(&self, cdfg: &Cdfg, rate: u32, op: OpId, lo: i64, hi: i64, s: i64) -> f64 {
        let w = (hi - lo + 1) as f64;
        let cycles = cdfg.op_cycles(op) as i64;
        let fold = |x: i64| x.rem_euclid(rate as i64) as usize;
        let mut f = 0.0;
        match &cdfg.op(op).kind {
            OpKind::Func(class) => {
                if let Some(dg) = self.func.get(&(cdfg.op(op).partition, class.clone())) {
                    for c in 0..cycles {
                        f += dg[fold(s + c)];
                        for t in lo..=hi {
                            f -= dg[fold(t + c)] / w;
                        }
                    }
                }
            }
            OpKind::Io { from, to, .. } => {
                let bits = cdfg.io_bits(op) as f64;
                for dg in [self.io_out.get(from), self.io_in.get(to)]
                    .into_iter()
                    .flatten()
                {
                    f += bits * dg[fold(s)];
                    for t in lo..=hi {
                        f -= bits * dg[fold(t)] / w;
                    }
                }
            }
            _ => {}
        }
        f
    }
}

/// Schedules `cdfg` with force-directed scheduling under the pipe-length
/// constraint; feedback transfers are placed afterwards inside their legal
/// windows at the least-loaded pin group.
///
/// # Errors
///
/// [`SchedError::TooManySteps`] past [`MAX_FDS_STEPS`], before any
/// allocation; [`SchedError::StepLimit`] when no placement fits the pipe
/// length, [`SchedError::Cyclic`] for degree-0 cycles,
/// [`SchedError::NoWindowSlot`] when a feedback transfer has an empty
/// window. No caller can reach `Cyclic` today: every public way to build
/// a [`Cdfg`] (`CdfgBuilder::finish`, `.mcs` parsing, delta application)
/// rejects degree-0 cycles, so it stays a typed error, not a panic.
pub fn fds_schedule(cdfg: &Cdfg, cfg: &FdsConfig) -> Result<Schedule, SchedError> {
    if cfg.rate == 0 {
        return Err(SchedError::ZeroRate);
    }
    let steps = cfg.pipe_length.max(cfg.rate as i64);
    if steps > MAX_FDS_STEPS {
        return Err(SchedError::TooManySteps {
            steps,
            limit: MAX_FDS_STEPS,
        });
    }
    let order = cdfg.topo_order().map_err(|_| SchedError::Cyclic)?;
    let n = cdfg.ops().len();
    let deferred: Vec<bool> = cdfg
        .op_ids()
        .map(|op| cdfg.is_feedback_transfer(op))
        .collect();
    let mut pinned: Vec<Option<i64>> = vec![None; n];
    let composites = timing::composite_constraints(cdfg, cfg.rate);
    let solve = |pinned: &[Option<i64>]| {
        frames(
            cdfg,
            &order,
            pinned,
            &deferred,
            &composites,
            cfg.pipe_length,
        )
    };

    loop {
        let Some((est, lst)) = solve(&pinned) else {
            return Err(SchedError::StepLimit);
        };
        let dists = Distributions::build(cdfg, cfg.rate, &est, &lst, &deferred);
        // Pick the consistent unpinned op/step pair with the lowest force;
        // ties by id and step for determinism (see the module doc).
        let mut best: Option<(f64, OpId, i64)> = None;
        for op in cdfg.op_ids() {
            if pinned[op.index()].is_some() || deferred[op.index()] {
                continue;
            }
            let (lo, hi) = (
                est[op.index()].step,
                lst[op.index()].step.max(est[op.index()].step),
            );
            if lo == hi {
                // Forced placement costs nothing to decide.
                best = Some((f64::MIN, op, lo));
                break;
            }
            for s in lo..=hi {
                let f = dists.force(cdfg, cfg.rate, op, lo, hi, s);
                let better = match &best {
                    None => true,
                    Some((bf, bop, bs)) => {
                        f < *bf - 1e-9 || ((f - *bf).abs() <= 1e-9 && (op, s) < (*bop, *bs))
                    }
                };
                if !better {
                    continue;
                }
                // Placement must stay consistent with current pins; only
                // a candidate that would win needs the frame solve.
                pinned[op.index()] = Some(s);
                let consistent = solve(&pinned).is_some();
                pinned[op.index()] = None;
                if consistent {
                    best = Some((f, op, s));
                }
            }
        }
        match best {
            None => break, // everything placed
            Some((_, op, s)) => pinned[op.index()] = Some(s),
        }
    }

    // Materialize offsets for phase-1 ops.
    let Some((est, _)) = solve(&pinned) else {
        return Err(SchedError::StepLimit);
    };
    let mut start: Vec<StepTime> = est;

    // Phase 2: feedback transfers at the least-loaded group of their
    // window.
    let l = cfg.rate as usize;
    let mut io_load: BTreeMap<(PartitionId, bool), Vec<f64>> = BTreeMap::new();
    for op in cdfg.op_ids() {
        if deferred[op.index()] || !cdfg.op(op).is_io() {
            continue;
        }
        let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
        let g = start[op.index()].step.rem_euclid(cfg.rate as i64) as usize;
        io_load.entry((from, true)).or_insert_with(|| vec![0.0; l])[g] += cdfg.io_bits(op) as f64;
        io_load.entry((to, false)).or_insert_with(|| vec![0.0; l])[g] += cdfg.io_bits(op) as f64;
    }
    for op in cdfg.op_ids() {
        if !deferred[op.index()] {
            continue;
        }
        let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
        let (lo, hi) = feedback_window(cdfg, op, cfg.rate, |o| Some(start[o.index()]))
            .expect("every operation has a phase-1 start");
        if lo > hi {
            return Err(SchedError::NoWindowSlot { op });
        }
        // Least-loaded group within the window (scan at most one period).
        let span = ((hi - lo + 1).min(cfg.rate as i64)).max(1);
        let bits = cdfg.io_bits(op) as f64;
        let best = (0..span)
            .map(|d| hi - d)
            .min_by(|&a, &b| {
                let load = |s: i64| {
                    let g = s.rem_euclid(cfg.rate as i64) as usize;
                    io_load.get(&(from, true)).map_or(0.0, |v| v[g])
                        + io_load.get(&(to, false)).map_or(0.0, |v| v[g])
                };
                load(a)
                    .partial_cmp(&load(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
            .expect("nonempty window");
        let g = best.rem_euclid(cfg.rate as i64) as usize;
        io_load.entry((from, true)).or_insert_with(|| vec![0.0; l])[g] += bits;
        io_load.entry((to, false)).or_insert_with(|| vec![0.0; l])[g] += bits;
        start[op.index()] = StepTime::at_step(best);
    }

    Ok(Schedule {
        rate: cfg.rate,
        start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate;
    use mcs_cdfg::designs::{ar_filter, synthetic};
    use mcs_cdfg::PortMode;

    #[test]
    fn steps_past_the_cap_are_refused() {
        let d = synthetic::quickstart();
        let over = MAX_FDS_STEPS + 1;
        for (rate, pipe_length) in [(1, over), (over as u32, 6), (u32::MAX, i64::MAX)] {
            let cfg = FdsConfig { rate, pipe_length };
            match fds_schedule(d.cdfg(), &cfg) {
                Err(SchedError::TooManySteps { steps, limit }) => {
                    assert_eq!(limit, MAX_FDS_STEPS);
                    assert_eq!(steps, pipe_length.max(rate as i64));
                }
                other => panic!("{cfg:?}: {other:?}"),
            }
        }
        let at_cap = FdsConfig {
            rate: 1,
            pipe_length: MAX_FDS_STEPS,
        };
        assert!(fds_schedule(d.cdfg(), &at_cap).is_ok());
    }

    #[test]
    fn quickstart_meets_its_pipe_length() {
        let d = synthetic::quickstart();
        let s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 1,
                pipe_length: 6,
            },
        )
        .unwrap();
        // FDS does not enforce unit counts, so filter those violations out
        // and insist on timing correctness.
        let v: Vec<_> = validate(d.cdfg(), &s)
            .into_iter()
            .filter(|v| !matches!(v, crate::schedule::ScheduleViolation::Resources { .. }))
            .collect();
        assert_eq!(v, vec![]);
        assert!(s.pipe_length(d.cdfg()) <= 6);
    }

    #[test]
    fn longer_pipe_never_needs_more_resources_on_balance() {
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let short = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 3,
                pipe_length: 8,
            },
        )
        .unwrap();
        let long = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 3,
                pipe_length: 12,
            },
        )
        .unwrap();
        let total = |s: &Schedule| -> u32 { s.resource_usage(d.cdfg()).values().sum() };
        assert!(
            total(&long) <= total(&short) + 2,
            "long {} vs short {}",
            total(&long),
            total(&short)
        );
    }

    #[test]
    fn infeasible_pipe_length_is_reported() {
        let d = ar_filter::general(3, PortMode::Unidirectional);
        assert_eq!(
            fds_schedule(
                d.cdfg(),
                &FdsConfig {
                    rate: 3,
                    pipe_length: 2
                }
            ),
            Err(SchedError::StepLimit)
        );
    }

    #[test]
    fn ar_filter_fds_is_timing_valid() {
        for rate in [3u32, 4, 5] {
            let d = ar_filter::general(rate, PortMode::Unidirectional);
            let s = fds_schedule(
                d.cdfg(),
                &FdsConfig {
                    rate,
                    pipe_length: 10,
                },
            )
            .unwrap();
            let v: Vec<_> = validate(d.cdfg(), &s)
                .into_iter()
                .filter(|v| !matches!(v, crate::schedule::ScheduleViolation::Resources { .. }))
                .collect();
            assert_eq!(v, vec![], "rate {rate}");
        }
    }

    #[test]
    fn balancing_beats_asap_on_peak_concurrency() {
        // ASAP piles the AR filter's 16 multiplications into the earliest
        // steps; FDS must spread them across groups.
        let d = ar_filter::general(4, PortMode::Unidirectional);
        let fds = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 4,
                pipe_length: 12,
            },
        )
        .unwrap();
        let asap_t = mcs_cdfg::timing::asap(d.cdfg()).unwrap();
        let asap = Schedule {
            rate: 4,
            start: asap_t.start,
        };
        let peak = |s: &Schedule| -> u32 {
            s.resource_usage(d.cdfg())
                .iter()
                .filter(|((_, c), _)| *c == mcs_cdfg::OperatorClass::Mul)
                .map(|(_, &n)| n)
                .max()
                .unwrap_or(0)
        };
        assert!(peak(&fds) <= peak(&asap));
    }

    #[test]
    fn elliptic_fds_respects_max_time_constraints() {
        // The recursive EWF is the stress case for composite constraints:
        // every feasible rate must come back timing-valid.
        for rate in [5u32, 6, 7] {
            let d = mcs_cdfg::designs::elliptic::partitioned_with(rate, PortMode::Unidirectional);
            let s = fds_schedule(
                d.cdfg(),
                &FdsConfig {
                    rate,
                    pipe_length: 30,
                },
            )
            .unwrap_or_else(|e| panic!("rate {rate}: {e}"));
            let timing: Vec<_> = validate(d.cdfg(), &s)
                .into_iter()
                .filter(|v| !matches!(v, crate::schedule::ScheduleViolation::Resources { .. }))
                .collect();
            assert_eq!(timing, vec![], "rate {rate}");
        }
    }

    #[test]
    fn tighter_pipe_lengths_are_monotone_in_feasibility() {
        // If FDS schedules pipe L, it must also schedule any longer pipe.
        let d = ar_filter::simple();
        let mut shortest = None;
        for pipe in 3..=12 {
            let ok = fds_schedule(
                d.cdfg(),
                &FdsConfig {
                    rate: 2,
                    pipe_length: pipe,
                },
            )
            .is_ok();
            if ok && shortest.is_none() {
                shortest = Some(pipe);
            }
            if let Some(s) = shortest {
                assert!(
                    ok || pipe < s,
                    "pipe {pipe} failed although pipe {s} succeeded"
                );
            }
        }
        assert!(shortest.is_some(), "some pipe length must work");
    }

    #[test]
    fn multicycle_ops_stay_on_stage_boundaries() {
        let d = synthetic::multicycle_example();
        let s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 6,
                pipe_length: 12,
            },
        )
        .unwrap();
        for op in d.cdfg().op_ids() {
            if d.cdfg().op_cycles(op) > 1 {
                assert_eq!(s.of(op).offset_ns, 0, "{op} must start a stage");
            }
        }
    }

    #[test]
    fn io_transfers_get_boundary_starts() {
        let d = synthetic::quickstart();
        let s = fds_schedule(
            d.cdfg(),
            &FdsConfig {
                rate: 1,
                pipe_length: 6,
            },
        )
        .unwrap();
        for op in d.cdfg().io_ops() {
            assert_eq!(s.of(op).offset_ns, 0, "{op} is an I/O transfer");
        }
    }
}
