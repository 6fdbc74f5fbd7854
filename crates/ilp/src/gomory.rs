//! Gomory's Dual All-Integer cutting-plane method (1960), the algorithm
//! Section 3.3 of the paper prescribes for the incremental pin-allocation
//! feasibility checker.
//!
//! The solver checks feasibility of systems `A x <= b` over nonnegative
//! integers `x`. The working tableau expresses every *tracked* variable
//! (structural variables and original slacks) in terms of the current
//! nonbasic set, `x_i = t_i0 + sum_j t_ij (-u_j)`, and stays all-integer
//! throughout: each iteration selects a violated row (`t_i0 < 0`),
//! generates an all-integer Gomory cut with pivot element exactly `-1`
//! (divisor `lambda = -t_rk`), and pivots on the cut.
//!
//! Because the pin-allocation ILP only asks for *feasibility* (the paper
//! maximizes the constant 0), the dual-feasibility side condition on the
//! cut divisor is vacuous, which keeps the implementation faithful yet
//! simple. Termination is enforced with a pivot budget; if the budget is
//! exhausted the caller falls back to exact branch-and-bound
//! ([`AllIntegerSolver::solve_exact`]), so verdicts are always sound.
//!
//! The incremental update of Section 3.3 — adding `x >= 1` by substituting
//! `x' = x - 1`, i.e. subtracting the variable's column from the constant
//! column (Equation 3.13) — is [`AllIntegerSolver::assume_at_least`];
//! probing without committing is [`AllIntegerSolver::probe_at_least`].
//!
//! # The copy-free probe engine
//!
//! The tableau lives in one contiguous row-major arena (stride
//! `ncols + 1`: the constant column followed by the coefficients), and
//! every mutation — row append, lower-bound shift, cut pivot — can be
//! recorded on an **undo trail**. A probe is therefore
//! [`AllIntegerSolver::checkpoint`] → mutate/solve →
//! [`AllIntegerSolver::rollback`] instead of a deep clone of the tableau
//! plus every accumulated cut: rolling a pivot back replays its cut row
//! (parked in a side arena) with the inverse sign, which restores the
//! arena byte for byte. Trail recording is active only while a
//! checkpoint is outstanding, so committed solves
//! ([`AllIntegerSolver::assume_at_least`] + [`AllIntegerSolver::solve`])
//! cost no trail memory at all. The legacy clone-based probe survives as
//! [`AllIntegerSolver::probe_at_least_via_clone`], the reference the
//! differential tests compare trail verdicts against.
//!
//! # Adaptive word size
//!
//! Pin-allocation tableaus hold small coefficients (bit widths, pin
//! budgets), so the arena starts as `Vec<i64>` — half the memory traffic
//! and twice the SIMD lanes of the old `i128` representation. Every
//! pivot's coefficient-explosion guard bounds the next tableau by
//! `tab_max * (1 + cut_max)`; when that bound leaves the i64 safe range
//! the solver **promotes**: both arenas (tableau and parked cut rows) are
//! widened to `i128` element for element and the in-flight pivot is
//! replayed on the wide representation. Promotion is sticky for the
//! solver's lifetime and preserves element indices, so the undo trail —
//! which stores no tableau values, only row counts, shift amounts and
//! cut-row offsets — survives unchanged; a probe that promoted mid-solve
//! still rolls back to a byte-faithful (widened) pre-probe state, and
//! [`AllIntegerSolver::tableau_digest`] hashes every cell as `i128`
//! regardless of representation, so digests are representation-independent
//! by construction. The wide path keeps the pre-existing guard: when even
//! `i128` would overflow, the heuristic loop abandons the solve *before*
//! mutating anything and the exact fallback decides (the corpus crasher
//! from the differential fuzzer exercises exactly this).
//! [`AllIntegerSolver::force_wide`] pins the wide representation up
//! front — the differential anchor the bench harness compares the
//! adaptive path against.

use std::hash::Hasher;

use crate::model::{Model, SolveError};
use mcs_codec::fnv::Fnv;
use mcs_ctl::Budget;
use mcs_metrics::{Counter, Histogram, MetricsHandle};
use mcs_obs::Event;

/// Verdict of a feasibility check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// An all-integer assignment satisfying every constraint exists (the
    /// tableau's current basic point).
    Feasible,
    /// No nonnegative integer assignment satisfies the constraints.
    Infeasible,
    /// The pivot budget ran out before a verdict (fall back to
    /// [`AllIntegerSolver::solve_exact`]).
    PivotLimit,
    /// An attached execution [`Budget`] tripped at a pivot boundary
    /// before a verdict; query the budget for the reason. Unlike
    /// [`Feasibility::PivotLimit`] this is *not* followed by the exact
    /// fallback — the flow is being asked to stop.
    Interrupted,
}

/// One undoable tableau mutation on the trail.
///
/// Variants store no tableau *values* — only counts, shift amounts and
/// cut-arena offsets — which is what lets the trail survive an i64→i128
/// promotion unchanged.
#[derive(Clone, Copy, Debug)]
enum TrailOp {
    /// A constraint row was appended (with its `original` entry).
    RowAppended,
    /// `assume_at_least(var, by)` shifted a structural row.
    Shifted { var: u32, by: i64 },
    /// A Gomory cut pivot on column `k`; its cut row starts at
    /// `cut_start` in the cut arena.
    Pivoted { k: u32, cut_start: usize },
}

/// A position on the undo trail, returned by
/// [`AllIntegerSolver::checkpoint`]. Checkpoints nest and must be rolled
/// back in LIFO order.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    trail_len: usize,
    nrows: usize,
    cuts_len: usize,
    original_len: usize,
}

impl Checkpoint {
    /// Undo-trail depth this checkpoint snapshots. Exported so callers
    /// holding a long-lived checkpoint (the pin checker's cross-commit
    /// savepoint) can report how much trail a rollback will unwind.
    pub fn trail_depth(&self) -> usize {
        self.trail_len
    }
}

/// Cost accounting for one probe, for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Gomory pivots the probe's solve performed.
    pub pivots: u64,
    /// Trail entries undone to restore the pre-probe tableau.
    pub rollback_ops: u64,
    /// Whether the pivot budget ran out and the exact branch-and-bound
    /// fallback decided the verdict.
    pub exact_fallback: bool,
}

/// The word types the tableau arena can hold. Private: callers only see
/// i64-valued solutions and i128-free APIs; the representation is an
/// internal performance detail.
trait Cell:
    Copy
    + Ord
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Neg<Output = Self>
{
    const ZERO: Self;
    const NEG_ONE: Self;
    fn div_euclid_by(self, rhs: Self) -> Self;
    fn abs_u128(self) -> u128;
}

impl Cell for i64 {
    const ZERO: Self = 0;
    const NEG_ONE: Self = -1;
    #[inline]
    fn div_euclid_by(self, rhs: Self) -> Self {
        self.div_euclid(rhs)
    }
    #[inline]
    fn abs_u128(self) -> u128 {
        self.unsigned_abs() as u128
    }
}

impl Cell for i128 {
    const ZERO: Self = 0;
    const NEG_ONE: Self = -1;
    #[inline]
    fn div_euclid_by(self, rhs: Self) -> Self {
        self.div_euclid(rhs)
    }
    #[inline]
    fn abs_u128(self) -> u128 {
        self.unsigned_abs()
    }
}

/// What the next cutting-plane iteration should do.
enum PivotChoice {
    Feasible,
    Infeasible,
    Pivot { r: usize, k: usize },
}

/// Most negative constant column (ties to the lowest row index), then the
/// first column that can raise it. Monomorphized per word type so the
/// scan runs on the native width.
fn select_pivot<W: Cell>(tab: &[W], nrows: usize, stride: usize) -> PivotChoice {
    let Some(r) = (0..nrows)
        .filter(|&i| tab[i * stride] < W::ZERO)
        .min_by_key(|&i| (tab[i * stride], i))
    else {
        return PivotChoice::Feasible;
    };
    let base = r * stride;
    match tab[base + 1..base + stride]
        .iter()
        .position(|&c| c < W::ZERO)
    {
        Some(k) => PivotChoice::Pivot { r, k },
        None => PivotChoice::Infeasible,
    }
}

/// Builds the all-integer Gomory cut for row `base / stride` pivoting on
/// column `k` into `cut` (divisor `lambda = -t_rk`, pivot element exactly
/// `-1`) and returns the cut's magnitude `cut_max` for the
/// coefficient-explosion guard. The tableau-side magnitude comes from the
/// solver's cached [`AllIntegerSolver::max_bound`], so the hot pivot path
/// never rescans the arena.
fn build_cut<W: Cell>(tab: &[W], cut: &mut Vec<W>, base: usize, ncols: usize, k: usize) -> u128 {
    let lambda = -tab[base + 1 + k];
    let cut_start = cut.len();
    cut.reserve(ncols + 1);
    cut.push(tab[base].div_euclid_by(lambda));
    for j in 0..ncols {
        cut.push(tab[base + 1 + j].div_euclid_by(lambda));
    }
    debug_assert!(cut[cut_start + 1 + k] == W::NEG_ONE);
    cut[cut_start..]
        .iter()
        .map(|c| c.abs_u128())
        .max()
        .unwrap_or(0)
}

/// Pivot (`negate = false`): the cut's slack `s` enters the nonbasic set
/// in place of column `k`; `u_k = -t0 + sum_{j != k} t_j u_j + s` is
/// substituted into every tracked row. All arithmetic stays integral
/// because the pivot element is `-1`. The stored coefficient at column
/// `k` is unchanged by the substitution, which makes the transformation
/// an involution up to sign: `negate = true` replays the identical loop
/// subtracting instead of adding and restores the pre-pivot tableau
/// exactly — the rollback path.
///
/// The `j != k` exclusion is expressed by splitting each row (and the cut)
/// around the pivot column instead of testing per element, so both inner
/// loops run branch-free over contiguous slices — the shape the
/// autovectorizer wants. `tab` must be the live `nrows * stride` prefix
/// and `cut` exactly one `stride`-sized row.
fn apply_cut_arena<W: Cell>(tab: &mut [W], cut: &[W], k: usize, negate: bool) {
    let stride = cut.len();
    let c0 = cut[0];
    let (cut_lo, rest) = cut[1..].split_at(k);
    let cut_hi = &rest[1..];
    for row in tab.chunks_exact_mut(stride) {
        let f = if negate { -row[1 + k] } else { row[1 + k] };
        if f == W::ZERO {
            continue;
        }
        row[0] = row[0] + f * c0;
        let (row_lo, rest) = row[1..].split_at_mut(k);
        let row_hi = &mut rest[1..];
        for (cell, &c) in row_lo.iter_mut().zip(cut_lo) {
            *cell = *cell + f * c;
        }
        for (cell, &c) in row_hi.iter_mut().zip(cut_hi) {
            *cell = *cell + f * c;
        }
    }
}

/// Incremental all-integer feasibility solver for `A x <= b`, `x >= 0`
/// integer.
///
/// # Examples
///
/// ```
/// use mcs_ilp::{AllIntegerSolver, Feasibility};
///
/// // x0 + x1 <= 1 with both required at least 1 is infeasible.
/// let mut s = AllIntegerSolver::new(2);
/// s.add_le(&[(0, 1), (1, 1)], 1);
/// assert_eq!(s.solve(1000), Feasibility::Feasible);
/// assert_eq!(s.probe_at_least(0, 1, 1000), Feasibility::Feasible);
/// s.assume_at_least(0, 1);
/// assert_eq!(s.solve(1000), Feasibility::Feasible);
/// assert_eq!(s.probe_at_least(1, 1, 1000), Feasibility::Infeasible);
/// ```
#[derive(Clone, Debug)]
pub struct AllIntegerSolver {
    num_vars: usize,
    /// Width of the current nonbasic set (fixed: pivots swap columns in
    /// place, they never widen the tableau).
    ncols: usize,
    /// Row-major tableau arena, stride `ncols + 1`: `t_i0` then `t_ij`.
    /// Rows 0..num_vars track the structural variables; later rows track
    /// original slacks (one per constraint). The narrow (i64)
    /// representation; empty once `wide` is set.
    tab: Vec<i64>,
    /// The wide (i128) tableau arena; empty until promotion.
    tab_wide: Vec<i128>,
    /// Whether the solver has promoted to the i128 representation.
    wide: bool,
    nrows: usize,
    /// Accumulated lower-bound shifts applied via `assume_at_least`.
    shifts: Vec<i64>,
    /// Original constraints, kept for the exact fallback.
    original: Vec<(Vec<(usize, i64)>, i64)>,
    /// Cut rows parked for rollback (stride `ncols + 1` each). Outside a
    /// checkpoint the slot is reused per pivot, so steady-state solves
    /// allocate nothing. Narrow representation; empty once `wide`.
    cut_arena: Vec<i64>,
    /// The wide cut arena; empty until promotion.
    cut_wide: Vec<i128>,
    /// Undo trail; recorded only while a checkpoint is outstanding.
    trail: Vec<TrailOp>,
    /// Outstanding checkpoints.
    watchers: usize,
    /// Upper bound on the magnitude of every live arena cell. Maintained
    /// exactly on row appends and shifts, and multiplicatively on pivots
    /// (`bound *= 1 + cut_max`); rollback never lowers it, so it can be
    /// loose — the overflow guard rescans the arena for the true maximum
    /// only when this cheap bound trips, which tightens it again. The
    /// promote/fallback *decision* therefore sees the exact maximum, the
    /// common case just never pays the full scan.
    max_bound: u128,
    /// Total pivots performed over the solver's lifetime.
    pivots_total: u64,
    /// Times the narrow representation promoted to wide (overflow-driven
    /// only; `force_wide` does not count).
    promotions: u64,
    /// Telemetry handle; its event sink takes per-pivot `GomoryCut`
    /// events (inactive by default). Clones share the sink, so probe
    /// solves report their pivots too.
    metrics: MetricsHandle,
    /// Optional execution budget polled at pivot boundaries; every
    /// pivot is charged against it. Clones share the same budget.
    budget: Option<Budget>,
    /// Resolved metric cells (disconnected by default; clones share the
    /// cells, so probe solves aggregate into the same totals).
    m_pivots: Counter,
    m_overflow_fallbacks: Counter,
    m_promotions: Counter,
    m_rollback_depth: Histogram,
}

impl AllIntegerSolver {
    /// Creates a solver over `num_vars` nonnegative integer variables.
    pub fn new(num_vars: usize) -> Self {
        let stride = num_vars + 1;
        let mut tab = vec![0i64; num_vars * stride];
        for v in 0..num_vars {
            // x_v = 0 + (-1) * (-u_v)  =  u_v.
            tab[v * stride + 1 + v] = -1;
        }
        AllIntegerSolver {
            num_vars,
            ncols: num_vars,
            tab,
            tab_wide: Vec::new(),
            wide: false,
            nrows: num_vars,
            shifts: vec![0; num_vars],
            original: Vec::new(),
            cut_arena: Vec::new(),
            cut_wide: Vec::new(),
            trail: Vec::new(),
            watchers: 0,
            max_bound: 1,
            pivots_total: 0,
            promotions: 0,
            metrics: MetricsHandle::default(),
            budget: None,
            m_pivots: Counter::default(),
            m_overflow_fallbacks: Counter::default(),
            m_promotions: Counter::default(),
            m_rollback_depth: Histogram::default(),
        }
    }

    /// Connects the solver's telemetry to `metrics`: the aggregate
    /// `ilp.pivots`, `ilp.cut_overflow_fallbacks`, `ilp.promotions` and
    /// `ilp.rollback_depth` cells, and per-pivot `GomoryCut` events when
    /// the handle carries an event sink. Cells are resolved once here, so
    /// the per-pivot cost with metrics on is one relaxed atomic add.
    pub fn set_metrics(&mut self, metrics: &MetricsHandle) {
        self.m_pivots = metrics.counter("ilp.pivots");
        self.m_overflow_fallbacks = metrics.counter("ilp.cut_overflow_fallbacks");
        self.m_promotions = metrics.counter("ilp.promotions");
        self.m_rollback_depth = metrics.histogram("ilp.rollback_depth");
        self.metrics = metrics.clone();
    }

    /// Attaches an execution budget. [`AllIntegerSolver::solve`] polls
    /// it before every pivot and returns [`Feasibility::Interrupted`]
    /// once it trips; each pivot performed is charged to the budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = Some(budget);
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total Gomory pivots performed so far (probes included).
    pub fn pivots_total(&self) -> u64 {
        self.pivots_total
    }

    /// Current undo-trail depth (0 outside a checkpoint).
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Times the adaptive narrow (i64) representation promoted to the
    /// wide (i128) one because a pivot, shift or row append would have
    /// overflowed. [`AllIntegerSolver::force_wide`] is not counted.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Whether the solver currently runs on the wide (i128)
    /// representation — after an overflow-driven promotion or
    /// [`AllIntegerSolver::force_wide`].
    pub fn is_wide(&self) -> bool {
        self.wide
    }

    /// Pins the wide (i128) representation immediately, bypassing the
    /// adaptive narrow path. Verdicts and
    /// [`AllIntegerSolver::tableau_digest`] values are identical either
    /// way; this is the differential anchor the bench harness compares
    /// the adaptive path against. Not counted in
    /// [`AllIntegerSolver::promotions`]. Idempotent.
    pub fn force_wide(&mut self) {
        if !self.wide {
            self.widen();
        }
    }

    /// Switches to the i128 representation: widens both arenas element
    /// for element (indices — and therefore the trail and every parked
    /// `cut_start` — are preserved) and retires the narrow ones.
    fn widen(&mut self) {
        debug_assert!(!self.wide);
        self.tab_wide = self.tab.iter().map(|&c| c as i128).collect();
        self.cut_wide = self.cut_arena.iter().map(|&c| c as i128).collect();
        self.tab = Vec::new();
        self.cut_arena = Vec::new();
        self.wide = true;
    }

    /// An overflow-driven [`AllIntegerSolver::widen`]: counted in
    /// [`AllIntegerSolver::promotions`] and the `ilp.promotions` metric.
    fn promote(&mut self) {
        self.widen();
        self.promotions += 1;
        self.m_promotions.inc();
    }

    #[inline]
    fn stride(&self) -> usize {
        self.ncols + 1
    }

    /// Reads one arena cell, widened — the representation-independent
    /// view the cold paths (digest, solution, row construction) use.
    #[inline]
    fn cell(&self, idx: usize) -> i128 {
        if self.wide {
            self.tab_wide[idx]
        } else {
            self.tab[idx] as i128
        }
    }

    /// Exact magnitude of the largest live arena cell — the slow path
    /// behind [`AllIntegerSolver::max_bound`], run only when the cached
    /// bound trips the overflow guard.
    fn live_max(&self) -> u128 {
        let live = self.nrows * self.stride();
        if self.wide {
            self.tab_wide[..live]
                .iter()
                .map(|c| c.unsigned_abs())
                .max()
                .unwrap_or(0)
        } else {
            self.tab[..live]
                .iter()
                .map(|c| c.unsigned_abs() as u128)
                .max()
                .unwrap_or(0)
        }
    }

    /// Live element count of the active cut arena (element indices are
    /// representation-independent).
    #[inline]
    fn cut_len(&self) -> usize {
        if self.wide {
            self.cut_wide.len()
        } else {
            self.cut_arena.len()
        }
    }

    /// FNV-1a digest over the entire solver state (tableau arena, shifts,
    /// original constraints). Two solvers with equal digests have
    /// byte-identical tableaus — the hook the rollback property tests
    /// assert restoration with. Cells are hashed as `i128` regardless of
    /// the active representation, so an adaptive (i64) solver and a
    /// forced-wide one digest identically at every step.
    pub fn tableau_digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.write(&(self.nrows as u64).to_le_bytes());
        h.write(&(self.ncols as u64).to_le_bytes());
        let live = self.nrows * self.stride();
        if self.wide {
            for &cell in &self.tab_wide[..live] {
                h.write(&cell.to_le_bytes());
            }
        } else {
            for &cell in &self.tab[..live] {
                h.write(&(cell as i128).to_le_bytes());
            }
        }
        for &s in &self.shifts {
            h.write(&s.to_le_bytes());
        }
        h.write(&(self.original.len() as u64).to_le_bytes());
        for (terms, rhs) in &self.original {
            for &(v, a) in terms {
                h.write(&(v as u64).to_le_bytes());
                h.write(&a.to_le_bytes());
            }
            h.write(&rhs.to_le_bytes());
        }
        h.finish()
    }

    /// Adds `sum(coeff * x_var) <= rhs`.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range.
    pub fn add_le(&mut self, terms: &[(usize, i64)], rhs: i64) {
        for &(v, _) in terms {
            assert!(v < self.num_vars, "variable index out of range");
        }
        self.original.push((terms.to_vec(), rhs));
        // Slack s = rhs - sum a_v x_v, expressed over current nonbasics via
        // the structural rows (which are maintained for every variable).
        // Built in i128 (this is a cold path) and narrowed only when every
        // cell fits; a too-wide row promotes the solver first.
        let stride = self.stride();
        let mut row = vec![0i128; stride];
        row[0] = rhs as i128;
        for &(v, a) in terms {
            let a = a as i128;
            let base = v * stride;
            // The tracked row holds the shifted variable x' = x - shift.
            row[0] -= a * (self.cell(base) + self.shifts[v] as i128);
            for (j, c) in row[1..].iter_mut().enumerate() {
                *c -= a * self.cell(base + 1 + j);
            }
        }
        if !self.wide && row.iter().any(|&c| i64::try_from(c).is_err()) {
            self.promote();
        }
        let row_max = row.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
        self.max_bound = self.max_bound.max(row_max);
        if self.wide {
            self.tab_wide.extend_from_slice(&row);
        } else {
            self.tab.extend(row.iter().map(|&c| c as i64));
        }
        self.nrows += 1;
        if self.watchers > 0 {
            self.trail.push(TrailOp::RowAppended);
        }
    }

    /// Adds `sum(coeff * x_var) >= rhs` (negated `<=`).
    pub fn add_ge(&mut self, terms: &[(usize, i64)], rhs: i64) {
        let neg: Vec<_> = terms.iter().map(|&(v, a)| (v, -a)).collect();
        self.add_le(&neg, -rhs);
    }

    /// Commits the assumption `x_var >= current assumption + by`
    /// (Section 3.3: substitute `x' = x - by` and subtract the column from
    /// the constant vector, Equation 3.13). With the tracked row stored
    /// relative to the existing shift this is a single constant-column
    /// update — no row copy.
    pub fn assume_at_least(&mut self, var: usize, by: i64) {
        assert!(var < self.num_vars, "variable index out of range");
        let base = var * self.stride();
        if self.wide {
            self.tab_wide[base] -= by as i128;
            self.max_bound = self.max_bound.max(self.tab_wide[base].unsigned_abs());
        } else {
            match self.tab[base].checked_sub(by) {
                Some(v) => {
                    self.tab[base] = v;
                    self.max_bound = self.max_bound.max(v.unsigned_abs() as u128);
                }
                None => {
                    self.promote();
                    self.tab_wide[base] -= by as i128;
                    self.max_bound = self.max_bound.max(self.tab_wide[base].unsigned_abs());
                }
            }
        }
        self.shifts[var] += by;
        if self.watchers > 0 {
            self.trail.push(TrailOp::Shifted {
                var: var as u32,
                by,
            });
        }
    }

    /// Opens a checkpoint: every subsequent mutation is recorded on the
    /// undo trail until the matching [`AllIntegerSolver::rollback`].
    /// Checkpoints nest; roll them back in LIFO order.
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.watchers += 1;
        Checkpoint {
            trail_len: self.trail.len(),
            nrows: self.nrows,
            cuts_len: self.cut_len(),
            original_len: self.original.len(),
        }
    }

    /// Undoes every mutation since `cp`, restoring the tableau byte for
    /// byte, and closes the checkpoint. Returns the number of trail
    /// entries undone (the probe's rollback depth).
    ///
    /// A probe that promoted mid-solve still restores every *value*
    /// exactly — on the wide representation; promotion is sticky.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint is outstanding or the trail is shorter
    /// than `cp` records (out-of-order rollback).
    pub fn rollback(&mut self, cp: Checkpoint) -> u64 {
        assert!(self.watchers > 0, "rollback without a checkpoint");
        assert!(cp.trail_len <= self.trail.len(), "out-of-order rollback");
        let mut undone = 0u64;
        while self.trail.len() > cp.trail_len {
            let op = self.trail.pop().expect("trail entry");
            undone += 1;
            match op {
                TrailOp::RowAppended => {
                    self.nrows -= 1;
                    let live = self.nrows * self.stride();
                    if self.wide {
                        self.tab_wide.truncate(live);
                    } else {
                        self.tab.truncate(live);
                    }
                    self.original.pop();
                }
                TrailOp::Shifted { var, by } => {
                    let base = var as usize * self.stride();
                    if self.wide {
                        self.tab_wide[base] += by as i128;
                    } else {
                        // The forward shift either fit i64 or promoted;
                        // undoing a fitted shift cannot overflow.
                        self.tab[base] += by;
                    }
                    self.shifts[var as usize] -= by;
                }
                TrailOp::Pivoted { k, cut_start } => {
                    self.apply_cut(cut_start, k as usize, true);
                    if self.wide {
                        self.cut_wide.truncate(cut_start);
                    } else {
                        self.cut_arena.truncate(cut_start);
                    }
                }
            }
        }
        debug_assert_eq!(self.nrows, cp.nrows);
        debug_assert_eq!(self.cut_len(), cp.cuts_len);
        debug_assert_eq!(self.original.len(), cp.original_len);
        self.watchers -= 1;
        self.m_rollback_depth.observe(undone);
        undone
    }

    /// Runs the dual all-integer cutting-plane loop with at most
    /// `max_pivots` pivots. The tableau retains all generated cuts, so the
    /// call is resumable and subsequent incremental checks are warm-started
    /// — exactly the usage pattern of the scheduling feasibility checker.
    pub fn solve(&mut self, max_pivots: usize) -> Feasibility {
        let stride = self.stride();
        for round in 0..max_pivots {
            let live = self.nrows * stride;
            let choice = if self.wide {
                select_pivot(&self.tab_wide[..live], self.nrows, stride)
            } else {
                select_pivot(&self.tab[..live], self.nrows, stride)
            };
            let (r, k) = match choice {
                PivotChoice::Feasible => return Feasibility::Feasible,
                PivotChoice::Infeasible => return Feasibility::Infeasible,
                PivotChoice::Pivot { r, k } => (r, k),
            };
            // Poll the budget before the next unit of work — after the
            // convergence tests, which cost no pivot, so a solve that
            // converges exactly as it spends its last allowed pivot
            // still reports its natural verdict, never an interruption.
            if let Some(budget) = &self.budget {
                if budget.check().is_some() {
                    return Feasibility::Interrupted;
                }
            }
            // All-integer Gomory cut with divisor lambda = -t_rk, giving a
            // pivot element of exactly -1. The cut row is written into the
            // side arena: kept there when a checkpoint needs it for
            // rollback, reclaimed immediately otherwise.
            let base = r * stride;
            let cut_start = self.cut_len();
            // Coefficient-explosion guard (found by differential
            // fuzzing): stacked cuts can grow tableau entries until the
            // multiply-adds in `apply_cut` overflow. Applying this cut
            // bounds every new entry by `tab_max * (1 + cut_max)`. On the
            // narrow path a bound outside the i64 safe range promotes the
            // solver and replays this pivot on the wide representation;
            // on the wide path it abandons the heuristic loop *before*
            // mutating anything — the tableau and trail stay consistent,
            // and the caller's exact branch-and-bound fallback delivers
            // the verdict. The same bound covers rollback, whose products
            // mirror the forward pass exactly.
            let cut_max = if self.wide {
                build_cut(
                    &self.tab_wide[..live],
                    &mut self.cut_wide,
                    base,
                    self.ncols,
                    k,
                )
            } else {
                build_cut(&self.tab[..live], &mut self.cut_arena, base, self.ncols, k)
            };
            // The cheap cached bound decides first; only when it trips is
            // the arena rescanned for the true maximum, so the decision to
            // promote or fall back is always made on exact magnitudes.
            let factor = cut_max + 1;
            if !self.wide {
                let safe = |bound: u128| {
                    bound
                        .checked_mul(factor)
                        .is_some_and(|b| b <= i64::MAX as u128 / 2)
                };
                if !safe(self.max_bound) {
                    self.max_bound = self.live_max();
                    if !safe(self.max_bound) {
                        self.promote();
                    }
                }
            }
            if self.wide {
                let safe = |bound: u128| {
                    bound
                        .checked_mul(factor)
                        .is_some_and(|b| b <= i128::MAX as u128 / 2)
                };
                if !safe(self.max_bound) {
                    self.max_bound = self.live_max();
                    if !safe(self.max_bound) {
                        self.cut_wide.truncate(cut_start);
                        self.m_overflow_fallbacks.inc();
                        return Feasibility::PivotLimit;
                    }
                }
            }
            // Checked safe above on whichever representation is active.
            self.max_bound *= factor;
            if self.metrics.tracing() {
                self.metrics.record(Event::GomoryCut {
                    round: round as u32,
                    pivot: k as u32,
                    objective: self.cell(base).clamp(i64::MIN as i128, i64::MAX as i128) as i64,
                });
            }
            self.apply_cut(cut_start, k, false);
            self.pivots_total += 1;
            self.m_pivots.inc();
            if let Some(budget) = &self.budget {
                budget.charge_pivots(1);
            }
            if self.watchers > 0 {
                self.trail.push(TrailOp::Pivoted {
                    k: k as u32,
                    cut_start,
                });
            } else if self.wide {
                self.cut_wide.truncate(cut_start);
            } else {
                self.cut_arena.truncate(cut_start);
            }
        }
        Feasibility::PivotLimit
    }

    /// Applies (or with `negate` un-applies) the parked cut row starting
    /// at `cut_start` on pivot column `k`, on whichever representation is
    /// active. See [`apply_cut_arena`] for the algebra.
    fn apply_cut(&mut self, cut_start: usize, k: usize, negate: bool) {
        let stride = self.ncols + 1;
        let live = self.nrows * stride;
        if self.wide {
            let (tab, cuts) = (&mut self.tab_wide, &self.cut_wide);
            apply_cut_arena(
                &mut tab[..live],
                &cuts[cut_start..cut_start + stride],
                k,
                negate,
            );
        } else {
            let (tab, cuts) = (&mut self.tab, &self.cut_arena);
            apply_cut_arena(
                &mut tab[..live],
                &cuts[cut_start..cut_start + stride],
                k,
                negate,
            );
        }
    }

    /// Current basic point (nonbasics at zero) for the structural
    /// variables, valid after [`AllIntegerSolver::solve`] returned
    /// [`Feasibility::Feasible`]. Includes accumulated shifts.
    pub fn solution(&self) -> Vec<i64> {
        let stride = self.stride();
        (0..self.num_vars)
            .map(|v| (self.cell(v * stride) + self.shifts[v] as i128) as i64)
            .collect()
    }

    /// Checks whether committing `x_var >= by` more would keep the system
    /// feasible, leaving the solver state untouched: checkpoint, shift,
    /// solve, roll the trail back. No tableau copy is made.
    pub fn probe_at_least(&mut self, var: usize, by: i64, max_pivots: usize) -> Feasibility {
        self.probe_at_least_with_stats(var, by, max_pivots).0
    }

    /// [`AllIntegerSolver::probe_at_least`] plus the probe's cost
    /// accounting (pivots, rollback depth, exact fallback).
    pub fn probe_at_least_with_stats(
        &mut self,
        var: usize,
        by: i64,
        max_pivots: usize,
    ) -> (Feasibility, ProbeStats) {
        let pivots_before = self.pivots_total;
        let cp = self.checkpoint();
        self.assume_at_least(var, by);
        let mut verdict = self.solve(max_pivots);
        let exact_fallback = verdict == Feasibility::PivotLimit;
        if exact_fallback {
            // The exact model is built from `original` + `shifts`, which
            // still include the probed assumption at this point.
            verdict = self.solve_exact();
        }
        let rollback_ops = self.rollback(cp);
        (
            verdict,
            ProbeStats {
                pivots: self.pivots_total - pivots_before,
                rollback_ops,
                exact_fallback,
            },
        )
    }

    /// The legacy clone-per-probe path: deep-copies the solver, commits
    /// the assumption on the copy and solves there. Kept as the reference
    /// implementation for differential testing and the before/after
    /// microbenches.
    pub fn probe_at_least_via_clone(&self, var: usize, by: i64, max_pivots: usize) -> Feasibility {
        let mut clone = self.clone();
        // The reference path must not spend or observe the shared budget:
        // it exists to double-check verdicts, not to race the deadline.
        clone.budget = None;
        clone.assume_at_least(var, by);
        let verdict = clone.solve(max_pivots);
        if verdict == Feasibility::PivotLimit {
            clone.solve_exact()
        } else {
            verdict
        }
    }

    /// Exact fallback: rebuilds the system (original constraints plus all
    /// committed assumptions) and solves it with branch-and-bound.
    ///
    /// With an execution budget attached ([`AllIntegerSolver::set_budget`])
    /// the branch-and-bound polls it once per node and charges each node
    /// as one pivot — so deadlines and count-based ceilings interrupt a
    /// fallback that would otherwise burn its full 200 000-node
    /// allowance on an adversarial system. Without a budget the behavior
    /// is the classic single full-allowance attempt.
    pub fn solve_exact(&self) -> Feasibility {
        let mut m = Model::new();
        m.budget = self.budget.clone();
        let vars: Vec<_> = (0..self.num_vars)
            .map(|v| m.integer(&format!("x{v}"), None))
            .collect();
        for (terms, rhs) in &self.original {
            let t: Vec<_> = terms.iter().map(|&(v, a)| (vars[v], a)).collect();
            m.le(&t, *rhs);
        }
        for (v, &s) in self.shifts.iter().enumerate() {
            if s > 0 {
                m.ge(&[(vars[v], 1)], s);
            }
        }
        match m.feasible() {
            Ok(_) => Feasibility::Feasible,
            Err(SolveError::Infeasible) => Feasibility::Infeasible,
            Err(SolveError::Interrupted) => Feasibility::Interrupted,
            Err(_) => Feasibility::PivotLimit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivially_feasible_at_origin() {
        let mut s = AllIntegerSolver::new(3);
        s.add_le(&[(0, 1), (1, 2), (2, 3)], 10);
        assert_eq!(s.solve(100), Feasibility::Feasible);
        assert_eq!(s.solution(), vec![0, 0, 0]);
    }

    #[test]
    fn ge_constraints_force_positive_values() {
        let mut s = AllIntegerSolver::new(2);
        s.add_ge(&[(0, 1), (1, 1)], 3);
        s.add_le(&[(0, 1)], 1);
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        let sol = s.solution();
        assert!(sol[0] + sol[1] >= 3, "solution {sol:?}");
        assert!(sol[0] <= 1);
        assert!(sol.iter().all(|&x| x >= 0));
    }

    #[test]
    fn detects_infeasibility() {
        let mut s = AllIntegerSolver::new(1);
        s.add_ge(&[(0, 1)], 5);
        s.add_le(&[(0, 1)], 3);
        assert_eq!(s.solve(1000), Feasibility::Infeasible);
    }

    #[test]
    fn tripped_budget_interrupts_at_pivot_boundary() {
        use mcs_ctl::{BudgetSpec, Termination};
        let mut s = AllIntegerSolver::new(2);
        s.add_ge(&[(0, 1), (1, 1)], 3);
        s.add_le(&[(0, 1)], 1);
        let budget = Budget::new(BudgetSpec::default().max_pivots(1));
        s.set_budget(budget.clone());
        assert_eq!(s.solve(1000), Feasibility::Interrupted);
        assert_eq!(budget.verdict(), Some(Termination::BudgetExhausted));
        assert_eq!(budget.pivots_spent(), 1);
    }

    #[test]
    fn tripped_budget_interrupts_the_exact_fallback() {
        use mcs_ctl::{BudgetSpec, Termination};
        // A subset-sum whose branch-and-bound needs several nodes; a
        // ceiling smaller than that trips inside solve_exact, which
        // polls per node and charges each node as one pivot.
        let weights = [31i64, 41, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64];
        let mut s = AllIntegerSolver::new(weights.len());
        let terms: Vec<(usize, i64)> = weights.iter().copied().enumerate().collect();
        s.add_ge(&terms, 101);
        s.add_le(&terms, 101);
        for v in 0..weights.len() {
            s.add_le(&[(v, 1)], 1);
        }
        let budget = Budget::new(BudgetSpec::default().max_pivots(2));
        s.set_budget(budget.clone());
        assert_eq!(s.solve_exact(), Feasibility::Interrupted);
        assert_eq!(budget.verdict(), Some(Termination::BudgetExhausted));
        // Without a budget the same system still gets its full
        // allowance and a natural verdict.
        let mut unbudgeted = AllIntegerSolver::new(weights.len());
        unbudgeted.add_ge(&terms, 101);
        unbudgeted.add_le(&terms, 101);
        for v in 0..weights.len() {
            unbudgeted.add_le(&[(v, 1)], 1);
        }
        assert!(matches!(
            unbudgeted.solve_exact(),
            Feasibility::Feasible | Feasibility::Infeasible
        ));
    }

    #[test]
    fn exact_ceiling_still_reports_natural_verdict() {
        use mcs_ctl::BudgetSpec;
        // Measure how many pivots the solve needs, then allow exactly
        // that many: check-before-work means the verdict must still be
        // the natural one, not an interruption.
        let build = || {
            let mut s = AllIntegerSolver::new(2);
            s.add_ge(&[(0, 1), (1, 1)], 3);
            s.add_le(&[(0, 1)], 1);
            s
        };
        let mut reference = build();
        assert_eq!(reference.solve(1000), Feasibility::Feasible);
        let needed = reference.pivots_total();
        assert!(needed > 0);

        let mut s = build();
        let budget = Budget::new(BudgetSpec::default().max_pivots(needed));
        s.set_budget(budget.clone());
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        assert_eq!(budget.verdict(), None);
        assert_eq!(budget.pivots_spent(), needed);
    }

    #[test]
    fn integrality_matters() {
        // 2x <= 1 and x >= 1 is LP-infeasible too; but 2x >= 1, 2x <= 1
        // admits x = 1/2 and no integer: the all-integer method must say
        // infeasible.
        let mut s = AllIntegerSolver::new(1);
        s.add_ge(&[(0, 2)], 1);
        s.add_le(&[(0, 2)], 1);
        let v = match s.solve(1000) {
            Feasibility::PivotLimit => s.solve_exact(),
            other => other,
        };
        assert_eq!(v, Feasibility::Infeasible);
    }

    #[test]
    fn assume_at_least_matches_equation_3_13() {
        let mut s = AllIntegerSolver::new(2);
        s.add_le(&[(0, 1), (1, 1)], 2);
        s.assume_at_least(0, 1);
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        let sol = s.solution();
        assert!(sol[0] >= 1);
        assert!(sol[0] + sol[1] <= 2);
        s.assume_at_least(1, 1);
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        let sol = s.solution();
        assert_eq!(sol, vec![1, 1]);
        // A third unit of demand exceeds the budget.
        assert_eq!(s.probe_at_least(0, 1, 1000), Feasibility::Infeasible);
    }

    #[test]
    fn probe_does_not_mutate_state() {
        let mut s = AllIntegerSolver::new(2);
        s.add_le(&[(0, 1), (1, 1)], 1);
        let before = s.tableau_digest();
        let _ = s.probe_at_least(0, 1, 1000);
        let _ = s.probe_at_least(1, 1, 1000);
        assert_eq!(s.tableau_digest(), before, "probes must leave no trace");
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        assert_eq!(s.solution(), vec![0, 0]);
    }

    #[test]
    fn checkpoint_rollback_restores_after_solve() {
        let mut s = AllIntegerSolver::new(2);
        s.add_ge(&[(0, 1), (1, 1)], 3);
        s.add_le(&[(0, 1)], 1);
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        let digest = s.tableau_digest();
        let cp = s.checkpoint();
        s.assume_at_least(1, 2);
        s.add_le(&[(1, 1)], 5);
        let _ = s.solve(1000);
        let undone = s.rollback(cp);
        assert!(undone >= 2, "shift + row append at minimum");
        assert_eq!(s.tableau_digest(), digest);
        assert_eq!(s.trail_len(), 0);
    }

    #[test]
    fn nested_checkpoints_roll_back_in_lifo_order() {
        let mut s = AllIntegerSolver::new(2);
        s.add_le(&[(0, 1), (1, 1)], 4);
        let d0 = s.tableau_digest();
        let outer = s.checkpoint();
        s.assume_at_least(0, 1);
        let d1 = s.tableau_digest();
        let inner = s.checkpoint();
        s.assume_at_least(1, 2);
        s.rollback(inner);
        assert_eq!(s.tableau_digest(), d1);
        s.rollback(outer);
        assert_eq!(s.tableau_digest(), d0);
    }

    #[test]
    fn trail_is_not_recorded_outside_checkpoints() {
        let mut s = AllIntegerSolver::new(2);
        s.add_ge(&[(0, 1), (1, 1)], 3);
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        s.assume_at_least(0, 1);
        assert_eq!(s.trail_len(), 0, "committed work must not grow the trail");
    }

    #[test]
    fn trail_and_clone_probes_agree_with_differential_on() {
        let mut s = AllIntegerSolver::new(3);
        s.add_ge(&[(0, 1), (1, 1), (2, 1)], 2);
        s.add_le(&[(0, 3), (1, 2), (2, 1)], 4);
        assert_eq!(s.solve(10_000), Feasibility::Feasible);
        // Before and after a commit, the two engines agree on every
        // increment, feasible or not.
        for commit in [None, Some(2)] {
            if let Some(var) = commit {
                s.assume_at_least(var, 1);
                assert_eq!(s.solve(10_000), Feasibility::Feasible);
            }
            for v in 0..3 {
                for by in 1..=2 {
                    assert_eq!(
                        s.probe_at_least(v, by, 10_000),
                        s.probe_at_least_via_clone(v, by, 10_000),
                        "x{v} >= +{by} after commit {commit:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_stats_report_pivots_and_rollback_depth() {
        let mut s = AllIntegerSolver::new(2);
        s.add_le(&[(0, 1), (1, 1)], 1);
        let (v, stats) = s.probe_at_least_with_stats(0, 1, 1000);
        assert_eq!(v, Feasibility::Feasible);
        // At least the shift itself is on the trail; forcing x0 >= 1
        // requires pivoting.
        assert!(stats.rollback_ops >= 1);
        assert!(stats.pivots >= 1);
        assert!(!stats.exact_fallback);
        // A zero budget must fall back to the exact solver and stay sound.
        let (v0, stats0) = s.probe_at_least_with_stats(0, 1, 0);
        assert_eq!(v0, Feasibility::Feasible);
        assert!(stats0.exact_fallback);
    }

    #[test]
    fn bin_packing_style_feasibility() {
        // Two bins of capacity 8; three items of width 8 must each go in
        // some bin: x[i][b] binaries, sum_b x[i][b] >= 1, per-bin width sums
        // <= 8. Only 2 of 3 items fit -> infeasible.
        let var = |i: usize, bin: usize| i * 2 + bin;
        let mut s = AllIntegerSolver::new(6);
        for i in 0..3 {
            s.add_ge(&[(var(i, 0), 1), (var(i, 1), 1)], 1);
            for bin in 0..2 {
                s.add_le(&[(var(i, bin), 1)], 1);
            }
        }
        for bin in 0..2 {
            let terms: Vec<_> = (0..3).map(|i| (var(i, bin), 8)).collect();
            s.add_le(&terms, 8);
        }
        let v = match s.solve(5000) {
            Feasibility::PivotLimit => s.solve_exact(),
            other => other,
        };
        assert_eq!(v, Feasibility::Infeasible);

        // With 8-bit-wide bins and 4-bit items, everything fits.
        let mut s = AllIntegerSolver::new(6);
        for i in 0..3 {
            s.add_ge(&[(var(i, 0), 1), (var(i, 1), 1)], 1);
            for bin in 0..2 {
                s.add_le(&[(var(i, bin), 1)], 1);
            }
        }
        for bin in 0..2 {
            let terms: Vec<_> = (0..3).map(|i| (var(i, bin), 4)).collect();
            s.add_le(&terms, 8);
        }
        let v = match s.solve(5000) {
            Feasibility::PivotLimit => s.solve_exact(),
            other => other,
        };
        assert_eq!(v, Feasibility::Feasible);
    }

    #[test]
    fn recorder_sees_every_pivot() {
        use mcs_obs::{BufferingRecorder, RecorderHandle};
        use std::sync::Arc;
        let buf = Arc::new(BufferingRecorder::new());
        let mut s = AllIntegerSolver::new(2);
        s.set_metrics(&MetricsHandle::default().with_events(&RecorderHandle::new(buf.clone())));
        s.add_ge(&[(0, 1), (1, 1)], 3);
        s.add_le(&[(0, 1)], 1);
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        let cuts = buf
            .events()
            .iter()
            .filter(|e| matches!(e, Event::GomoryCut { .. }))
            .count();
        assert!(cuts > 0, "a forced-positive system needs at least one cut");
        // Probe solves share the sink: probing records further pivots.
        let before = buf.events().len();
        let _ = s.probe_at_least(1, 1, 1000);
        assert!(buf.events().len() >= before);
    }

    #[test]
    fn metrics_count_pivots_and_rollbacks() {
        use mcs_metrics::Registry;
        use std::sync::Arc;
        let reg = Arc::new(Registry::new());
        let mut s = AllIntegerSolver::new(2);
        s.set_metrics(&MetricsHandle::new(reg.clone()));
        s.add_ge(&[(0, 1), (1, 1)], 3);
        s.add_le(&[(0, 1)], 1);
        assert_eq!(s.solve(1000), Feasibility::Feasible);
        let _ = s.probe_at_least(1, 1, 1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["ilp.pivots"], s.pivots_total());
        assert!(snap.counters["ilp.pivots"] > 0);
        // One probe = one rollback observed.
        assert_eq!(snap.histograms["ilp.rollback_depth"].count, 1);
        assert!(snap.histograms["ilp.rollback_depth"].max >= 1);
    }

    #[test]
    fn exact_fallback_agrees_with_cutting_plane() {
        let mut s = AllIntegerSolver::new(3);
        s.add_ge(&[(0, 1), (1, 1), (2, 1)], 2);
        s.add_le(&[(0, 3), (1, 2), (2, 1)], 4);
        let cut = match s.clone().solve(10_000) {
            Feasibility::PivotLimit => None,
            v => Some(v),
        };
        let exact = s.solve_exact();
        if let Some(v) = cut {
            assert_eq!(v, exact);
        }
        assert_eq!(exact, Feasibility::Feasible);
    }

    #[test]
    fn solver_starts_narrow_and_stays_narrow_on_small_systems() {
        let mut s = AllIntegerSolver::new(3);
        s.add_ge(&[(0, 1), (1, 1), (2, 1)], 2);
        s.add_le(&[(0, 3), (1, 2), (2, 1)], 4);
        assert!(!s.is_wide());
        assert_eq!(s.solve(10_000), Feasibility::Feasible);
        let _ = s.probe_at_least(0, 1, 10_000);
        assert!(!s.is_wide(), "small coefficients must not promote");
        assert_eq!(s.promotions(), 0);
    }

    #[test]
    fn forced_wide_matches_adaptive_digest_and_verdicts() {
        let build = |wide: bool| {
            let mut s = AllIntegerSolver::new(3);
            if wide {
                s.force_wide();
            }
            s.add_ge(&[(0, 1), (1, 1), (2, 1)], 2);
            s.add_le(&[(0, 3), (1, 2), (2, 1)], 4);
            s
        };
        let mut narrow = build(false);
        let mut wide = build(true);
        assert_eq!(narrow.tableau_digest(), wide.tableau_digest());
        assert_eq!(narrow.solve(10_000), wide.solve(10_000));
        assert_eq!(narrow.tableau_digest(), wide.tableau_digest());
        for v in 0..3 {
            assert_eq!(
                narrow.probe_at_least(v, 1, 10_000),
                wide.probe_at_least(v, 1, 10_000),
            );
        }
        assert_eq!(narrow.tableau_digest(), wide.tableau_digest());
        assert_eq!(wide.promotions(), 0, "force_wide is not a promotion");
    }

    #[test]
    fn overflowing_pivot_promotes_and_keeps_the_clone_verdict() {
        // Coefficients near i64::MAX make the very first cut's explosion
        // bound exceed the i64 safe range, forcing a promotion; the
        // verdict must match both the forced-wide path and the exact
        // fallback.
        let big = i64::MAX / 4;
        let build = || {
            let mut s = AllIntegerSolver::new(2);
            s.add_ge(&[(0, 1), (1, 1)], 3);
            s.add_le(&[(0, big), (1, big)], big);
            s
        };
        let mut adaptive = build();
        let mut forced = build();
        forced.force_wide();
        let va = adaptive.solve(10_000);
        let vf = forced.solve(10_000);
        assert_eq!(va, vf);
        assert!(adaptive.is_wide(), "the huge system must promote");
        assert!(adaptive.promotions() >= 1);
        assert_eq!(adaptive.tableau_digest(), forced.tableau_digest());
        let exact = build().solve_exact();
        let settled = match va {
            Feasibility::PivotLimit => adaptive.solve_exact(),
            v => v,
        };
        assert_eq!(settled, exact);
    }

    #[test]
    fn promotion_during_probe_still_rolls_back_exactly() {
        let big = i64::MAX / 2;
        let mut s = AllIntegerSolver::new(2);
        s.add_le(&[(0, big), (1, big)], big);
        assert_eq!(s.solve(10_000), Feasibility::Feasible);
        assert!(!s.is_wide());
        let digest = s.tableau_digest();
        // The probe forces a pivot on the huge row and promotes mid-solve;
        // rollback must restore every value (digest is representation-
        // independent, so it must match even though the solver is now wide).
        let verdict = s.probe_at_least(0, 1, 10_000);
        assert!(s.is_wide(), "the probe must have promoted");
        assert_eq!(s.tableau_digest(), digest, "promotion must not leak state");
        assert_eq!(verdict, s.probe_at_least_via_clone(0, 1, 10_000));
    }

    #[test]
    fn promotions_metric_counts_overflow_promotions() {
        use mcs_metrics::Registry;
        use std::sync::Arc;
        let reg = Arc::new(Registry::new());
        let big = i64::MAX / 4;
        let mut s = AllIntegerSolver::new(2);
        s.set_metrics(&MetricsHandle::new(reg.clone()));
        s.add_ge(&[(0, 1), (1, 1)], 3);
        s.add_le(&[(0, big), (1, big)], big);
        let _ = s.solve(10_000);
        assert!(s.is_wide());
        assert_eq!(reg.snapshot().counters["ilp.promotions"], s.promotions());
        assert!(s.promotions() >= 1);
    }

    #[test]
    fn batch_probe_matches_individual_probes() {
        // A step's worth of consultations is a run of probes on one
        // solver: each rolls back completely, so the run leaves no trace
        // and every verdict equals a probe on a fresh copy.
        let mut s = AllIntegerSolver::new(3);
        s.add_ge(&[(0, 1), (1, 1), (2, 1)], 2);
        s.add_le(&[(0, 3), (1, 2), (2, 1)], 4);
        assert_eq!(s.solve(10_000), Feasibility::Feasible);
        let digest = s.tableau_digest();
        let reqs: Vec<(usize, i64)> = vec![(0, 1), (1, 1), (2, 1), (0, 2), (1, 3)];
        let run: Vec<Feasibility> = reqs
            .iter()
            .map(|&(var, by)| s.probe_at_least(var, by, 10_000))
            .collect();
        assert_eq!(s.tableau_digest(), digest, "probes must leave no trace");
        assert_eq!(s.trail_len(), 0);
        for (&(var, by), verdict) in reqs.iter().zip(&run) {
            assert_eq!(*verdict, s.probe_at_least_via_clone(var, by, 10_000));
        }
    }

    #[test]
    fn batch_probe_under_differential_mode_cross_checks() {
        // x0 + x1 <= 1: each variable may rise by one, neither by two.
        let mut s = AllIntegerSolver::new(2);
        s.add_le(&[(0, 1), (1, 1)], 1);
        let expected = [
            ((0, 1), Feasibility::Feasible),
            ((1, 1), Feasibility::Feasible),
            ((0, 2), Feasibility::Infeasible),
        ];
        for ((var, by), want) in expected {
            assert_eq!(s.probe_at_least(var, by, 1000), want, "x{var} >= +{by}");
            assert_eq!(
                s.probe_at_least_via_clone(var, by, 1000),
                want,
                "clone x{var} >= +{by}"
            );
        }
        assert_eq!(s.trail_len(), 0);
    }
}
