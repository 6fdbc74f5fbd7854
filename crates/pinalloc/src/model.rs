//! The rows of the Chapter 3 pin-allocation ILP, and two cheap
//! certificates read from them.
//!
//! [`PinIlp`] builds the rows once — upper bounds, coverage
//! (Constraint 3.4), the `y` links of multi-destination values
//! (Constraints 3.5/3.6) and the per-partition, per-group capacities
//! (Constraints 3.2/3.3, or 3.7/3.8 with a free split) — over the
//! variables of the Section 3.1.2 aggregation. The exact checker feeds
//! exactly these rows to its solver ([`crate::PinChecker::with_budgets`]),
//! and the two certificates below read the same rows, so all three answer
//! one question about one system:
//!
//! * [`PinIlp::refutation`] — a counting bound, of the same kind as the
//!   operator lower bound of Eq. 7.5, that proves the system infeasible
//!   without a pivot;
//! * [`PinIlp::witness`] — a greedy packing, accepted only once it
//!   satisfies every row, that proves the system feasible without a
//!   pivot.
//!
//! Neither is complete; a system that neither decides goes to the exact
//! solve.

use std::collections::BTreeMap;

use mcs_cdfg::{Cdfg, OpId, PartitionId, ValueId};

use crate::checker::PinAllocError;
use crate::PinChecker;

/// Which solver variable block carries an I/O operation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpVar {
    /// Aggregated single-fanout group (Section 3.1.2): index into the
    /// aggregate blocks.
    Aggregate(usize),
    /// Individual binary for a member of a multi-destination value:
    /// index into the member blocks.
    Member(usize),
}

/// How a partition's pins divide between inputs and outputs.
#[derive(Clone, Copy, Debug)]
enum Split {
    /// A fixed split: input and output capacities per group.
    Fixed { inputs: i64, outputs: i64 },
    /// A free split chosen by the solver variable `o` (the output pins),
    /// out of `total` pins.
    Free { o: usize, total: i64 },
}

/// One term of a capacity row at group 0: group `k`'s row has the same
/// coefficient on `base + k`.
#[derive(Clone, Copy, Debug)]
struct Term {
    base: usize,
    bits: i64,
    /// How many of the block's covered transfers the counting bound
    /// charges: at most the block's coverage, less the transfers an
    /// implementation may carry in a slot it also uses for another.
    charged: i64,
}

/// One partition's capacity rows.
#[derive(Clone, Debug)]
struct Capacity {
    inputs: Vec<Term>,
    outputs: Vec<Term>,
    split: Split,
}

/// One transferred value, for the witness's packing.
#[derive(Clone, Debug)]
struct Transfer {
    bits: i64,
    /// Block base of each of its transfers.
    blocks: Vec<usize>,
    /// Base of its `y` block, for a multi-destination value.
    y: Option<usize>,
    /// Each partition it touches, with the input and output bits it adds
    /// to that partition's rows in the group it lands in.
    loads: Vec<(usize, i64, i64)>,
}

/// Row sense: `terms <= rhs` or `terms >= rhs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Sense {
    Le,
    Ge,
}

/// The pin-allocation ILP of a design at one initiation rate, as rows
/// over the solver's variables (see the module documentation).
///
/// # Examples
///
/// ```
/// use mcs_cdfg::designs::ar_filter;
/// use mcs_pinalloc::PinIlp;
///
/// # fn main() -> Result<(), mcs_pinalloc::PinAllocError> {
/// let design = ar_filter::simple();
/// // Rate 1 puts every transfer in one group: P1's ten 8-bit inputs
/// // cannot share 40 input pins, and counting alone shows it.
/// assert!(PinIlp::new(design.cdfg(), 1)?.refutation().is_some());
/// let ilp = PinIlp::new(design.cdfg(), 2)?;
/// assert!(ilp.refutation().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PinIlp {
    rate: usize,
    vars: usize,
    pub(crate) op_vars: BTreeMap<OpId, OpVar>,
    /// Base variable and coverage `q` of each aggregate block.
    pub(crate) aggregates: Vec<(usize, i64)>,
    /// Base variable of each member block.
    pub(crate) members: Vec<usize>,
    /// Multi-destination values: their member indices and `y` base, in
    /// value order.
    links: Vec<(Vec<usize>, usize)>,
    capacities: Vec<Capacity>,
    transfers: Vec<Transfer>,
}

/// `terms` sorted by variable with each variable once, its charges
/// summed: an aggregate counts how many of its transfers land in a group,
/// so its bit width enters a row once.
fn merged(mut terms: Vec<Term>) -> Vec<Term> {
    terms.sort_by_key(|t| t.base);
    let mut out: Vec<Term> = Vec::with_capacity(terms.len());
    for t in terms {
        match out.last_mut() {
            Some(last) if last.base == t.base => last.charged += t.charged,
            _ => out.push(t),
        }
    }
    out
}

impl PinIlp {
    /// The ILP of `cdfg` at initiation rate `rate`.
    ///
    /// # Errors
    ///
    /// As [`PinChecker::tableau_vars`]: [`PinAllocError::ZeroRate`] and
    /// [`PinAllocError::TableauTooLarge`], both before anything is built.
    pub fn new(cdfg: &Cdfg, rate: u32) -> Result<Self, PinAllocError> {
        let vars = PinChecker::tableau_vars(cdfg, rate)?;
        let l = rate as usize;
        let groups = cdfg.io_ops_by_value();
        let endpoints = |op: OpId| cdfg.op(op).io_endpoints().expect("io op");

        // Single-destination values merge by (from, to, bits) into
        // aggregates; each transfer of a multi-destination value keeps
        // its own binaries, plus one `y` block per value.
        let mut aggs: BTreeMap<(PartitionId, PartitionId, u32), Vec<OpId>> = BTreeMap::new();
        let mut multi: Vec<(ValueId, &Vec<OpId>)> = Vec::new();
        for (&value, ops) in &groups {
            if let [op] = ops[..] {
                let (_, from, to) = endpoints(op);
                aggs.entry((from, to, cdfg.io_bits(op)))
                    .or_default()
                    .push(op);
            } else {
                multi.push((value, ops));
            }
        }
        let mut next = 0usize;
        let mut block = || {
            next += l;
            next - l
        };
        let mut op_vars = BTreeMap::new();
        let mut aggregates = Vec::new();
        for ops in aggs.values() {
            for &op in ops {
                op_vars.insert(op, OpVar::Aggregate(aggregates.len()));
            }
            aggregates.push((block(), ops.len() as i64));
        }
        let mut members = Vec::new();
        let mut links = Vec::new();
        let mut y_base: BTreeMap<ValueId, usize> = BTreeMap::new();
        for (value, ops) in multi {
            let mut link = Vec::new();
            for &op in ops {
                op_vars.insert(op, OpVar::Member(members.len()));
                link.push(members.len());
                members.push(block());
            }
            let y = block();
            y_base.insert(value, y);
            links.push((link, y));
        }
        let base = |op: OpId| match op_vars[&op] {
            OpVar::Aggregate(g) => aggregates[g].0,
            OpVar::Member(m) => members[m],
        };
        // Unguarded transfers execute in every instance, so no other
        // transfer can share their slot (Section 7.2).
        let always = |op: OpId| cdfg.op(op).condition.literals().is_empty();
        let parts = cdfg.partitions().len();
        let mut inputs: Vec<Vec<Term>> = vec![Vec::new(); parts];
        let mut outputs: Vec<Vec<Term>> = vec![Vec::new(); parts];
        let mut transfers = Vec::with_capacity(groups.len());
        for (&value, ops) in &groups {
            let bits = cdfg.value(value).bits as i64;
            let y = y_base.get(&value).copied();
            let mut loads: Vec<(usize, i64, i64)> = Vec::new();
            for (i, &w) in ops.iter().enumerate() {
                let (_, from, to) = endpoints(w);
                let earlier = &ops[..i];
                // A value's transfers into one partition are charged once.
                let charged =
                    always(w) && !earlier.iter().any(|&v| endpoints(v).2 == to && always(v));
                inputs[to.index()].push(Term {
                    base: base(w),
                    bits,
                    charged: i64::from(charged),
                });
                // A value leaves each source once per group however many
                // partitions it reaches: through its `y`, or the lone
                // transfer's variable.
                if !earlier.iter().any(|&v| endpoints(v).1 == from) {
                    let charged = ops.iter().any(|&v| endpoints(v).1 == from && always(v));
                    outputs[from.index()].push(Term {
                        base: y.unwrap_or_else(|| base(w)),
                        bits,
                        charged: i64::from(charged),
                    });
                }
                for (p, add) in [(to.index(), (bits, 0)), (from.index(), (0, bits))] {
                    match loads.iter_mut().find(|load| load.0 == p) {
                        Some(load) => (load.1, load.2) = (load.1 + add.0, load.2.max(add.1)),
                        None => loads.push((p, add.0, add.1)),
                    }
                }
            }
            transfers.push(Transfer {
                bits,
                blocks: ops.iter().map(|&w| base(w)).collect(),
                y,
                loads,
            });
        }
        let mut capacities = Vec::with_capacity(parts);
        for ((part, inputs), outputs) in cdfg.partitions().iter().zip(inputs).zip(outputs) {
            let split = match part.fixed_split {
                Some((i, o)) => Split::Fixed {
                    inputs: i as i64,
                    outputs: o as i64,
                },
                None => {
                    next += 1;
                    Split::Free {
                        o: next - 1,
                        total: part.total_pins as i64,
                    }
                }
            };
            capacities.push(Capacity {
                inputs: merged(inputs),
                outputs: merged(outputs),
                split,
            });
        }
        debug_assert_eq!(next, vars);
        Ok(PinIlp {
            rate: l,
            vars,
            op_vars,
            aggregates,
            members,
            links,
            capacities,
            transfers,
        })
    }

    /// Solver variables of the system: every block's `rate` group
    /// variables plus one `o_j` per free split.
    pub(crate) fn vars(&self) -> usize {
        self.vars
    }

    /// Visits every row in the order the exact checker adds them to its
    /// solver: upper bounds (aggregates `x <= q`, members and `y <= 1`),
    /// coverage (`sum_k x >= q`, Constraint 3.4), the `y` links
    /// (`sum_w x_{w,k} - |W| y_k <= 0`, Constraint 3.6), then each
    /// partition's capacity rows per group.
    pub(crate) fn rows(&self, mut emit: impl FnMut(&[(usize, i64)], Sense, i64)) {
        let l = self.rate;
        let mut terms: Vec<(usize, i64)> = Vec::new();
        for &(base, q) in &self.aggregates {
            for k in 0..l {
                emit(&[(base + k, 1)], Sense::Le, q);
            }
        }
        let ys = self.links.iter().map(|(_, y)| *y);
        for base in self.members.iter().copied().chain(ys) {
            for k in 0..l {
                emit(&[(base + k, 1)], Sense::Le, 1);
            }
        }
        let covers = self.aggregates.iter().copied();
        for (base, q) in covers.chain(self.members.iter().map(|&b| (b, 1))) {
            terms.clear();
            terms.extend((0..l).map(|k| (base + k, 1)));
            emit(&terms, Sense::Ge, q);
        }
        for (link, y) in &self.links {
            for k in 0..l {
                terms.clear();
                terms.extend(link.iter().map(|&m| (self.members[m] + k, 1)));
                terms.push((y + k, -(link.len() as i64)));
                emit(&terms, Sense::Le, 0);
            }
        }
        for cap in &self.capacities {
            let at = |pattern: &[Term], k: usize, terms: &mut Vec<(usize, i64)>| {
                terms.clear();
                terms.extend(pattern.iter().map(|t| (t.base + k, t.bits)));
            };
            for k in 0..l {
                match cap.split {
                    Split::Fixed { inputs, outputs } => {
                        if !cap.inputs.is_empty() {
                            at(&cap.inputs, k, &mut terms);
                            emit(&terms, Sense::Le, inputs);
                        }
                        if !cap.outputs.is_empty() {
                            at(&cap.outputs, k, &mut terms);
                            emit(&terms, Sense::Le, outputs);
                        }
                    }
                    Split::Free { o, total } => {
                        if !cap.inputs.is_empty() {
                            at(&cap.inputs, k, &mut terms);
                            terms.push((o, 1));
                            emit(&terms, Sense::Le, total);
                        }
                        if !cap.outputs.is_empty() {
                            at(&cap.outputs, k, &mut terms);
                            terms.push((o, -1));
                            emit(&terms, Sense::Le, 0);
                        }
                        emit(&[(o, 1)], Sense::Le, total);
                    }
                }
            }
        }
    }

    /// The counting bound: the first partition whose capacity rows no
    /// integral point can meet, or `None` when the bound proves nothing.
    ///
    /// Write `in(p,k)` and `out(p,k)` for the left sides of partition
    /// `p`'s input and output capacity rows in group `k`, and `L` for the
    /// rate. The coverage rows force each block's group sum up to its
    /// coverage: `q` for an aggregate, 1 for a member binary, and 1 for a
    /// `y` block (its link rows summed over the groups give
    /// `|W| sum_k y_k >= sum_w sum_k x_{w,k} >= |W|`). Summing a row over
    /// the groups therefore gives `sum_k in(p,k) >= IN_p`, the input bits
    /// of `p`'s transfers, and `sum_k out(p,k) >= OUT_p`, its output bits
    /// with each value counted once. The loads are integers, so
    /// `max_k in(p,k) >= ceil(IN_p / L)`. Each covered block is at least
    /// 1 in some group, so `max_k in(p,k)` is also at least the widest
    /// input's bits; the same two bounds hold for `max_k out(p,k)`. With a
    /// fixed split, each maximum must fit its own cap. With a free split,
    /// the rows `in(p,k) + o <= T` and `out(p,k) - o <= 0` hold in every
    /// group for the one `o`, so `max_k in + max_k out <= T`.
    ///
    /// `IN_p` and `OUT_p` charge less than the rows do: a value's
    /// transfers into one partition once, and a guarded transfer not at
    /// all. A smaller sum keeps the bound implied by the rows, and it then
    /// also holds for every unidirectional implementation, which carries
    /// a value's transfers into one chip in one slot when they share a
    /// step and may give mutually exclusive transfers one slot
    /// (Section 7.2), though the rows count each transfer. So a
    /// refutation never contradicts a flow's result.
    pub fn refutation(&self) -> Option<PartitionId> {
        let least = |terms: &[Term]| {
            let (sum, widest) = terms.iter().fold((0i64, 0i64), |(sum, widest), t| {
                (sum + t.bits * t.charged, widest.max(t.bits))
            });
            widest.max((sum + self.rate as i64 - 1) / self.rate as i64)
        };
        self.capacities
            .iter()
            .position(|cap| {
                let (inputs, outputs) = (least(&cap.inputs), least(&cap.outputs));
                match cap.split {
                    Split::Fixed {
                        inputs: i,
                        outputs: o,
                    } => inputs > i || outputs > o,
                    Split::Free { total, .. } => inputs + outputs > total,
                }
            })
            .map(|p| PartitionId::new(p as u32))
    }

    /// A feasible point found by greedy packing, or `None`.
    ///
    /// Values go widest first (ties by value id), each with all its
    /// transfers in one group: the group that least raises the maximum
    /// loads of the partitions it touches — first the part of those loads
    /// over the partitions' pins, then the raise itself, then the load
    /// of the group, then the lowest group. The packing maps onto the
    /// solver's variables — aggregate counts, member and `y` binaries,
    /// and each free split's `o_j` set to the partition's largest output
    /// load — and the point is returned only if it satisfies every row of
    /// the system. That check is the whole soundness argument: the
    /// heuristic may fail, but it cannot certify an infeasible system.
    pub fn witness(&self) -> Option<Vec<i64>> {
        let l = self.rate;
        let parts = self.capacities.len();
        let mut in_load = vec![0i64; parts * l];
        let mut out_load = vec![0i64; parts * l];
        let (mut in_max, mut out_max) = (vec![0i64; parts], vec![0i64; parts]);
        // `transfers` is in value order and the sort is stable, so ties
        // keep it.
        let mut order: Vec<&Transfer> = self.transfers.iter().collect();
        order.sort_by_key(|t| std::cmp::Reverse(t.bits));
        let mut x = vec![0i64; self.vars];
        for t in order {
            let cost = |k: usize| {
                let (mut over, mut raise, mut load) = (0i64, 0i64, 0i64);
                for &(p, inputs, outputs) in &t.loads {
                    let (i, o) = (in_load[p * l + k] + inputs, out_load[p * l + k] + outputs);
                    let (peak_in, peak_out) = (in_max[p].max(i), out_max[p].max(o));
                    raise += peak_in - in_max[p] + peak_out - out_max[p];
                    load += i + o;
                    over += match self.capacities[p].split {
                        Split::Fixed { inputs, outputs } => {
                            (peak_in - inputs).max(0) + (peak_out - outputs).max(0)
                        }
                        Split::Free { total, .. } => (peak_in + peak_out - total).max(0),
                    };
                }
                (over, raise, load, k)
            };
            let k = (0..l).min_by_key(|&k| cost(k)).expect("rate is at least 1");
            for &(p, inputs, outputs) in &t.loads {
                in_load[p * l + k] += inputs;
                out_load[p * l + k] += outputs;
                in_max[p] = in_max[p].max(in_load[p * l + k]);
                out_max[p] = out_max[p].max(out_load[p * l + k]);
            }
            for &base in &t.blocks {
                x[base + k] += 1;
            }
            if let Some(y) = t.y {
                x[y + k] = 1;
            }
        }
        for cap in &self.capacities {
            if let Split::Free { o, .. } = cap.split {
                x[o] = (0..l)
                    .map(|k| cap.outputs.iter().map(|t| t.bits * x[t.base + k]).sum())
                    .max()
                    .unwrap_or(0);
            }
        }
        self.satisfies(&x).then_some(x)
    }

    /// Whether the nonnegative integral point `x` satisfies every row.
    fn satisfies(&self, x: &[i64]) -> bool {
        if x.len() != self.vars || x.iter().any(|&v| v < 0) {
            return false;
        }
        let mut ok = true;
        self.rows(|terms, sense, rhs| {
            let lhs: i64 = terms.iter().map(|&(v, c)| c * x[v]).sum();
            ok &= match sense {
                Sense::Le => lhs <= rhs,
                Sense::Ge => lhs >= rhs,
            };
        });
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::{ar_filter, elliptic, synthetic};

    fn exact(cdfg: &Cdfg, rate: u32) -> bool {
        PinChecker::new(cdfg, rate).is_ok()
    }

    #[test]
    fn rows_count_matches_the_variables() {
        let d = ar_filter::simple();
        let ilp = PinIlp::new(d.cdfg(), 3).unwrap();
        let mut seen = vec![false; ilp.vars()];
        ilp.rows(|terms, _, _| {
            for &(v, _) in terms {
                seen[v] = true;
            }
        });
        assert!(seen.iter().all(|&s| s), "every variable sits in a row");
    }

    #[test]
    fn certificates_agree_with_the_exact_checker() {
        let ell = elliptic::partitioned();
        let designs = [
            ar_filter::simple().cdfg().clone(),
            synthetic::fig_2_5().cdfg().clone(),
            ell.cdfg().clone(),
        ];
        for cdfg in &designs {
            for rate in 1..=6 {
                let ilp = PinIlp::new(cdfg, rate).unwrap();
                let feasible = exact(cdfg, rate);
                if let Some(p) = ilp.refutation() {
                    assert!(!feasible, "rate {rate}: {p} refuted a feasible system");
                }
                if let Some(x) = ilp.witness() {
                    assert!(feasible, "rate {rate}: witness of an infeasible system");
                    assert!(ilp.satisfies(&x));
                }
            }
        }
    }

    #[test]
    fn a_broken_point_is_not_accepted() {
        let d = synthetic::fig_2_5();
        let ilp = PinIlp::new(d.cdfg(), 2).unwrap();
        let x = ilp.witness().expect("fig. 2.5 packs at rate 2");
        assert!(ilp.satisfies(&x));
        // Dropping every assignment breaks coverage.
        assert!(!ilp.satisfies(&vec![0; ilp.vars()]));
        assert!(!ilp.satisfies(&x[1..]));
    }
}
