//! Incremental resynthesis: re-solving an edited design from a previous
//! [`SynthesisResult`] instead of from scratch.
//!
//! The flow is a three-rung ladder, falling through on any doubt:
//!
//! 1. **Identical reuse** — the delta touched no interchip transfer, the
//!    rate is unchanged and the operation set is intact: the previous
//!    schedule and connection are revalidated against the edited graph
//!    and returned byte-identical.
//! 2. **Patched re-solve** — the previous bus structure is kept; clean
//!    transfers keep their bus assignment, dirty or new transfers take
//!    the first capable carrier, and list scheduling re-runs over the
//!    patched interconnect. For simple partitionings the pin-allocation
//!    checker first *replays* the clean commits of the previous run,
//!    opens a commit-level savepoint
//!    ([`mcs_pinalloc::PinChecker::commit_savepoint`]) and trial-commits
//!    only the dirty transfers, rolling the solver trail back on dead
//!    ends instead of rebuilding the tableau. This skips the expensive
//!    portfolio connection search entirely.
//! 3. **Cold fallback** — full resynthesis with the same flow family
//!    the previous result came from. Correctness never depends on the
//!    classifier: anything it cannot prove reusable is resynthesized.
//!
//! The ladder is audited by [`differential`], which runs the incremental
//! and the cold path side by side and demands the incremental result be
//! verifier-clean whenever the cold path succeeds.
//!
//! The module also provides the on-disk codec for synthesis results
//! ([`result_to_json`] / [`result_from_json`]) that `mcs-hls synth
//! --out-result` writes and `mcs-hls resynth --prev` reads.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use mcs_cdfg::delta::{AppliedDelta, DeltaError, DesignDelta};
use mcs_cdfg::timing::StepTime;
use mcs_cdfg::{BusId, Cdfg, OpId, PartitionId, PortMode};
use mcs_codec::json::{self, Json};
use mcs_connect::{Bus, BusAssignment, Interconnect, SubRange};
use mcs_metrics::MetricsHandle;
use mcs_obs::RecorderHandle;
use mcs_pinalloc::PinChecker;
use mcs_sched::{Schedule, SlotPlacement};

use crate::flows::{
    bus_slot_schedule, check_rate, run, ConnectFirstOptions, Contract, FlowError, FlowSpec,
    RunContext, SynthesisResult,
};

/// Which rung of the resynthesis ladder produced the result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResynthPath {
    /// The previous schedule and connection were reused unchanged.
    Identical,
    /// The previous bus structure was reused; scheduling re-ran over the
    /// patched interconnect without a connection search.
    Patched,
    /// Full resynthesis from scratch.
    Cold,
}

impl std::fmt::Display for ResynthPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResynthPath::Identical => "identical",
            ResynthPath::Patched => "patched",
            ResynthPath::Cold => "cold",
        })
    }
}

/// Anything incremental resynthesis can fail with.
#[derive(Clone, Debug)]
pub enum ResynthError {
    /// The delta did not apply to the previous design.
    Delta(DeltaError),
    /// The (cold fallback) synthesis flow failed — the edited design is
    /// genuinely unsynthesizable, not merely hard to patch.
    Flow(FlowError),
}

impl std::fmt::Display for ResynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResynthError::Delta(e) => write!(f, "delta application failed: {e}"),
            ResynthError::Flow(e) => write!(f, "resynthesis failed: {e}"),
        }
    }
}

impl std::error::Error for ResynthError {}

impl From<DeltaError> for ResynthError {
    fn from(e: DeltaError) -> Self {
        ResynthError::Delta(e)
    }
}

impl From<FlowError> for ResynthError {
    fn from(e: FlowError) -> Self {
        ResynthError::Flow(e)
    }
}

/// The dirty region a delta induces on a previous synthesis run: the
/// part of the solution whose supporting evidence the edit invalidated.
/// Everything *outside* the region is a candidate for reuse; everything
/// inside must be re-derived.
#[derive(Clone, Debug, Default)]
pub struct DirtyRegion {
    /// Operations in the edited graph directly touched by the delta.
    pub ops: BTreeSet<OpId>,
    /// The subset of [`DirtyRegion::ops`] that are interchip transfers —
    /// the operations whose bus assignment and pin feasibility evidence
    /// is stale.
    pub transfers: BTreeSet<OpId>,
    /// Chips hosting a dirty operation or endpoint of a dirty transfer.
    pub chips: BTreeSet<PartitionId>,
    /// Control-step groups (mod the previous rate) in which a dirty
    /// operation was previously scheduled.
    pub groups: BTreeSet<i64>,
    /// Chip pairs whose bus traffic a dirty transfer participates in.
    pub chip_pairs: BTreeSet<(PartitionId, PartitionId)>,
    /// The delta overrides the initiation rate, so *every* group-level
    /// fact (pin loads, bus slots) is stale.
    pub rate_changed: bool,
    /// Operations were added or removed, so the previous schedule vector
    /// no longer indexes the graph.
    pub structure_changed: bool,
}

impl DirtyRegion {
    /// `true` when the delta invalidated nothing the previous solution
    /// depends on: no transfer touched, rate and operation set intact.
    /// (Purely local edits — e.g. a width change on a value that never
    /// crosses chips — land here.)
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty() && !self.rate_changed && !self.structure_changed
    }
}

/// Computes the [`DirtyRegion`] of `applied` relative to the previous
/// run: which chips, control-step groups and chip-pair buses the edit
/// touches, mapped through the old-to-new operation id map.
pub fn classify(old: &Cdfg, prev: &SynthesisResult, applied: &AppliedDelta) -> DirtyRegion {
    let cdfg = &applied.cdfg;
    let back = backward_map(old, applied);
    let mut region = DirtyRegion {
        ops: applied.dirty.clone(),
        rate_changed: applied.rate.is_some_and(|r| r != prev.schedule.rate),
        structure_changed: applied.op_map.iter().any(|m| m.is_none())
            || cdfg.ops().len() != old.ops().len(),
        ..DirtyRegion::default()
    };
    let rate = prev.schedule.rate.max(1) as i64;
    for &op in &applied.dirty {
        region.chips.insert(cdfg.op(op).partition);
        if let Some((_, from, to)) = cdfg.op(op).io_endpoints() {
            region.transfers.insert(op);
            region.chips.insert(from);
            region.chips.insert(to);
            region.chip_pairs.insert((from.min(to), from.max(to)));
        }
        // Map back to the step the op previously occupied, if it existed.
        if let Some(old_id) = back.get(op.index()).copied().flatten() {
            if old_id.index() < prev.schedule.start.len() {
                region
                    .groups
                    .insert(prev.schedule.of(old_id).step.rem_euclid(rate));
            }
        }
    }
    region
}

/// Telemetry of one incremental run: how much of the previous solution
/// was replayed versus re-derived.
#[derive(Clone, Debug, Default)]
pub struct ResynthStats {
    /// Clean pin-checker commits replayed from the previous schedule.
    pub replayed_commits: u64,
    /// Dirty transfers committed after the savepoint.
    pub dirty_commits: u64,
    /// Savepoint rollbacks taken while placing dirty transfers.
    pub rollbacks: u64,
    /// Solver trail operations unwound across those rollbacks.
    pub trail_undone: u64,
    /// Undo-trail depth at the last clean commit (the savepoint).
    pub savepoint_depth: u64,
    /// Bus assignments carried over from the previous connection.
    pub reused_assignments: u64,
    /// Bus assignments re-derived for dirty or new transfers.
    pub fresh_assignments: u64,
}

/// The outcome of [`resynth_flow`]: the edited graph, the (re)synthesis
/// result, and how it was obtained.
#[derive(Clone, Debug)]
pub struct ResynthOutcome {
    /// The edited, revalidated design.
    pub cdfg: Cdfg,
    /// The synthesis result for the edited design.
    pub result: SynthesisResult,
    /// Which rung of the ladder produced it.
    pub path: ResynthPath,
    /// The dirty region the classifier computed.
    pub dirty: DirtyRegion,
    /// Reuse telemetry.
    pub stats: ResynthStats,
}

/// Incremental resynthesis: applies `delta` to `old` and re-solves the
/// edited design, reusing as much of `prev` as the [`DirtyRegion`]
/// classifier can justify. See the module docs for the ladder. This is
/// an edit ladder over a previous result, not a fourth flow, so it stays
/// beside [`crate::flows::run`]; its cold rung calls `run`.
///
/// # Errors
///
/// [`ResynthError::Delta`] when the delta does not apply;
/// [`ResynthError::Flow`] when even cold resynthesis fails.
pub fn resynth_flow(
    old: &Cdfg,
    prev: &SynthesisResult,
    delta: &DesignDelta,
) -> Result<ResynthOutcome, ResynthError> {
    resynth_flow_traced(
        old,
        prev,
        delta,
        &RecorderHandle::default(),
        &MetricsHandle::default(),
    )
}

/// [`resynth_flow`] with telemetry. An active `recorder` becomes the
/// event sink of `metrics` for this run. Counters:
/// `resynth.path.{identical,patched,cold}`, `resynth.dirty_ops`,
/// `resynth.dirty_transfers`, `resynth.replayed_commits`,
/// `resynth.trail_undone`, `resynth.rollbacks`,
/// `resynth.reused_assignments`, `resynth.fresh_assignments`; the
/// patched and cold rungs also record their flow's own spans, counters
/// and decision events through the same handle. The `recorder`
/// parameter stays because the frozen benchmark harness (`perfbench/`)
/// compiles against this signature; it goes with the next change to that
/// benchmark.
///
/// # Errors
///
/// Identical to [`resynth_flow`]; tracing never changes the result.
pub fn resynth_flow_traced(
    old: &Cdfg,
    prev: &SynthesisResult,
    delta: &DesignDelta,
    recorder: &RecorderHandle,
    metrics: &MetricsHandle,
) -> Result<ResynthOutcome, ResynthError> {
    let metrics = &metrics.clone().with_events(recorder);
    let _span = metrics.span("resynth");
    let applied = delta.apply(old)?;
    let rate = applied.rate.unwrap_or(prev.schedule.rate);
    check_rate(rate)?;
    let dirty = classify(old, prev, &applied);
    metrics.add("resynth.dirty_ops", dirty.ops.len() as u64);
    metrics.add("resynth.dirty_transfers", dirty.transfers.len() as u64);
    let mut stats = ResynthStats::default();

    if dirty.is_empty() {
        if let Some(result) = try_identical(&applied.cdfg, prev) {
            metrics.add("resynth.path.identical", 1);
            return Ok(ResynthOutcome {
                cdfg: applied.cdfg,
                result,
                path: ResynthPath::Identical,
                dirty,
                stats,
            });
        }
    }

    if let Some(result) = try_patched(old, prev, &applied, &dirty, rate, &mut stats, metrics) {
        metrics.add("resynth.path.patched", 1);
        emit_reuse_counters(metrics, &stats);
        return Ok(ResynthOutcome {
            cdfg: applied.cdfg,
            result,
            path: ResynthPath::Patched,
            dirty,
            stats,
        });
    }

    metrics.add("resynth.path.cold", 1);
    emit_reuse_counters(metrics, &stats);
    let result = cold_flow(&applied.cdfg, rate, prev, metrics)?;
    Ok(ResynthOutcome {
        cdfg: applied.cdfg,
        result,
        path: ResynthPath::Cold,
        dirty,
        stats,
    })
}

fn emit_reuse_counters(metrics: &MetricsHandle, stats: &ResynthStats) {
    if !metrics.enabled() {
        return;
    }
    metrics.add("resynth.replayed_commits", stats.replayed_commits);
    metrics.add("resynth.trail_undone", stats.trail_undone);
    metrics.add("resynth.rollbacks", stats.rollbacks);
    metrics.add("resynth.reused_assignments", stats.reused_assignments);
    metrics.add("resynth.fresh_assignments", stats.fresh_assignments);
}

/// `true` when `prev` came from the connect-first (Chapter 4/6) family:
/// bus-slot placements or portfolio telemetry are present. Decides which
/// flow the cold fallback runs.
fn connect_like(prev: &SynthesisResult) -> bool {
    prev.search_stats.is_some() || !prev.placements.is_empty()
}

fn cold_flow(
    cdfg: &Cdfg,
    rate: u32,
    prev: &SynthesisResult,
    metrics: &MetricsHandle,
) -> Result<SynthesisResult, FlowError> {
    let spec = if connect_like(prev) {
        let mut opts = ConnectFirstOptions::new(rate);
        opts.mode = prev.interconnect.mode;
        FlowSpec::Connect(opts)
    } else {
        FlowSpec::Simple {
            rate,
            pivot_budget: None,
        }
    };
    let ctx = RunContext {
        metrics: metrics.clone(),
        ..RunContext::default()
    };
    run(cdfg, &spec, &ctx).result
}

/// Path 1: hold the previous solution to [`Contract::Constrained`] on the
/// edited graph and reuse it unchanged. Requires the operation set to be
/// index-compatible (the classifier already ruled out structural edits).
fn try_identical(cdfg: &Cdfg, prev: &SynthesisResult) -> Option<SynthesisResult> {
    if prev.schedule.start.len() != cdfg.ops().len() {
        return None;
    }
    prev.check(cdfg, Contract::Constrained).ok()?;
    Some(prev.clone())
}

/// Inverse of [`AppliedDelta::op_map`]: new operation id -> old id.
fn backward_map(old: &Cdfg, applied: &AppliedDelta) -> Vec<Option<OpId>> {
    let mut back = vec![None; applied.cdfg.ops().len()];
    for (old_ix, mapped) in applied.op_map.iter().enumerate() {
        if let Some(new_id) = mapped {
            if new_id.index() < back.len() {
                back[new_id.index()] = Some(OpId::new(old_ix as u32));
            }
        }
    }
    let _ = old;
    back
}

/// Path 2: keep the previous bus structure, re-derive only the dirty
/// assignments, gate pin feasibility by trail replay when possible, and
/// re-run bus-slot list scheduling, which holds the result to
/// [`Contract::Constrained`]. Returns `None` on any doubt.
fn try_patched(
    old: &Cdfg,
    prev: &SynthesisResult,
    applied: &AppliedDelta,
    dirty: &DirtyRegion,
    rate: u32,
    stats: &mut ResynthStats,
    metrics: &MetricsHandle,
) -> Option<SynthesisResult> {
    let cdfg = &applied.cdfg;
    if prev.interconnect.buses.is_empty() && cdfg.io_ops().next().is_some() {
        return None;
    }
    let back = backward_map(old, applied);
    let ic = patch_interconnect(cdfg, prev, applied, &back, stats)?;
    if !ic.verify(cdfg).is_empty() {
        return None;
    }
    // Pin-feasibility gate by commit replay: only meaningful when the
    // previous run's schedule was itself pin-checker-guided (the simple
    // flow) and the rate is unchanged, so the clean commits replay into
    // the same control-step groups.
    if !connect_like(prev) && !dirty.rate_changed {
        let feasible = pin_replay(cdfg, prev, applied, &back, rate, stats);
        if !feasible {
            return None;
        }
    }
    let ctx = RunContext {
        metrics: metrics.clone(),
        ..RunContext::default()
    };
    bus_slot_schedule(cdfg, rate, true, ic, &ctx)
        .ok()
        .map(|(result, _)| result)
}

/// Builds the patched interconnect: previous buses verbatim, clean
/// transfers keep their assignment, dirty or new transfers take the
/// first capable carrier. `None` when some transfer has no carrier —
/// the bus structure itself must change, which is the cold path's job.
fn patch_interconnect(
    cdfg: &Cdfg,
    prev: &SynthesisResult,
    applied: &AppliedDelta,
    back: &[Option<OpId>],
    stats: &mut ResynthStats,
) -> Option<Interconnect> {
    let mut ic = Interconnect {
        mode: prev.interconnect.mode,
        buses: prev.interconnect.buses.clone(),
        assignment: BTreeMap::new(),
    };
    for op in cdfg.io_ops().collect::<Vec<_>>() {
        let clean = !applied.dirty.contains(&op);
        let prev_assignment = back
            .get(op.index())
            .copied()
            .flatten()
            .and_then(|old_id| prev.interconnect.assignment.get(&old_id));
        match prev_assignment {
            Some(a) if clean => {
                ic.assignment.insert(op, *a);
                stats.reused_assignments += 1;
            }
            _ => {
                let carrier = ic.capable_carriers(cdfg, op).into_iter().next()?;
                ic.assignment.insert(op, carrier);
                stats.fresh_assignments += 1;
            }
        }
    }
    Some(ic)
}

/// Replays the previous run's clean pin-checker commits, opens a
/// commit-level savepoint, and trial-places the dirty transfers with
/// rollback on dead ends. Returns `false` when no placement of the
/// dirty transfers is pin-feasible over the replayed base — the signal
/// to fall through to cold resynthesis.
fn pin_replay(
    cdfg: &Cdfg,
    prev: &SynthesisResult,
    applied: &AppliedDelta,
    back: &[Option<OpId>],
    rate: u32,
    stats: &mut ResynthStats,
) -> bool {
    let Ok(mut checker) = PinChecker::new(cdfg, rate) else {
        // No checker for this shape (e.g. non-simple partitioning):
        // scheduling itself remains the arbiter.
        return true;
    };
    let mut dirty_ios = Vec::new();
    for op in cdfg.io_ops().collect::<Vec<_>>() {
        let prev_step = back
            .get(op.index())
            .copied()
            .flatten()
            .filter(|old_id| old_id.index() < prev.schedule.start.len())
            .map(|old_id| prev.schedule.of(old_id).step);
        match prev_step {
            Some(step) if !applied.dirty.contains(&op) => {
                if !checker.can_commit(op, step) || checker.commit(op, step).is_err() {
                    return false;
                }
                stats.replayed_commits += 1;
            }
            _ => dirty_ios.push(op),
        }
    }
    let savepoint = checker.commit_savepoint();
    stats.savepoint_depth = savepoint.trail_depth() as u64;
    place_dirty(&mut checker, &dirty_ios, 0, rate, stats)
}

/// Depth-first placement of dirty transfers over the replayed base,
/// one nested savepoint per level (LIFO, as the checker requires).
fn place_dirty(
    checker: &mut PinChecker,
    ios: &[OpId],
    depth: usize,
    rate: u32,
    stats: &mut ResynthStats,
) -> bool {
    let Some(&op) = ios.get(depth) else {
        return true;
    };
    for group in 0..rate.max(1) as i64 {
        if !checker.can_commit(op, group) {
            continue;
        }
        let savepoint = checker.commit_savepoint();
        if checker.commit(op, group).is_ok() && place_dirty(checker, ios, depth + 1, rate, stats) {
            stats.dirty_commits += 1;
            return true;
        }
        stats.trail_undone += checker.rollback_commits(savepoint);
        stats.rollbacks += 1;
    }
    false
}

/// One side-by-side run of the incremental ladder and the cold path.
#[derive(Clone, Debug)]
pub struct DifferentialReport {
    /// Which rung the incremental run took.
    pub path: ResynthPath,
    /// Pipe length of the incremental result, when it succeeded.
    pub incremental_pipe: Option<i64>,
    /// Pipe length of the cold result, when it succeeded.
    pub cold_pipe: Option<i64>,
    /// Reuse telemetry of the incremental run.
    pub stats: ResynthStats,
}

/// Differential oracle for the incremental ladder: runs [`resynth_flow`]
/// and the cold path on the same `(old, prev, delta)` and demands
/// *agreement* — whenever cold synthesis succeeds, the incremental
/// result must exist and pass [`SynthesisResult::check`] under
/// [`Contract::Constrained`]. The incremental path may succeed where cold
/// fails (strictly better); the reverse is a bug and is reported.
///
/// # Errors
///
/// A human-readable description of the disagreement.
pub fn differential(
    old: &Cdfg,
    prev: &SynthesisResult,
    delta: &DesignDelta,
) -> Result<DifferentialReport, String> {
    let incremental = resynth_flow(old, prev, delta);
    let applied = delta
        .apply(old)
        .map_err(|e| format!("delta failed to apply: {e}"))?;
    let rate = applied.rate.unwrap_or(prev.schedule.rate);
    let cold = cold_flow(&applied.cdfg, rate, prev, &MetricsHandle::default());
    match (&incremental, &cold) {
        (Ok(inc), cold_res) => {
            inc.result
                .check(&inc.cdfg, Contract::Constrained)
                .map_err(|e| format!("incremental ({}) result fails its check: {e:?}", inc.path))?;
            Ok(DifferentialReport {
                path: inc.path,
                incremental_pipe: Some(inc.result.pipe_length),
                cold_pipe: cold_res.as_ref().ok().map(|r| r.pipe_length),
                stats: inc.stats.clone(),
            })
        }
        (Err(ie), Ok(_)) => Err(format!(
            "incremental resynthesis failed where cold succeeded: {ie}"
        )),
        (Err(_), Err(_)) => Ok(DifferentialReport {
            path: ResynthPath::Cold,
            incremental_pipe: None,
            cold_pipe: None,
            stats: ResynthStats::default(),
        }),
    }
}

// ---------------------------------------------------------------------
// Saved-result codec: the `--out-result` / `--prev` JSON format.
// ---------------------------------------------------------------------

/// A [`SynthesisResult`] loaded from disk, with the provenance fields
/// the codec persists alongside it.
#[derive(Clone, Debug)]
pub struct SavedResult {
    /// [`mcs_cdfg::fuzz::design_digest`] of the design the result was
    /// synthesized from; `mcs-hls resynth` refuses a `--prev` whose
    /// digest does not match the design file.
    pub design_digest: u64,
    /// Flow family tag: `"connect"` or `"simple"`.
    pub flow: String,
    /// The result itself. `search_stats` is not persisted (`None` after
    /// a round trip) — it is telemetry, not solution structure.
    pub result: SynthesisResult,
}

/// Serializes a synthesis result to the stable JSON the `resynth`
/// machinery consumes. Deterministic: equal results produce equal text.
pub fn result_to_json(design_digest: u64, r: &SynthesisResult) -> String {
    let mut s = String::with_capacity(1024);
    let flow = if connect_like(r) { "connect" } else { "simple" };
    let _ = write!(
        s,
        "{{\"design\":{design_digest},\"flow\":\"{flow}\",\"rate\":{},\"pipe_length\":{},",
        r.schedule.rate, r.pipe_length
    );
    s.push_str("\"start\":[");
    for (i, t) in r.schedule.start.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},{}]", t.step, t.offset_ns);
    }
    let mode = match r.interconnect.mode {
        PortMode::Unidirectional => "uni",
        PortMode::Bidirectional => "bi",
    };
    let _ = write!(s, "],\"mode\":\"{mode}\",\"buses\":[");
    for (i, b) in r.interconnect.buses.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"out\":");
        write_ports(&mut s, &b.out_ports);
        s.push_str(",\"in\":");
        write_ports(&mut s, &b.in_ports);
        s.push_str(",\"bi\":");
        write_ports(&mut s, &b.bi_ports);
        s.push_str(",\"widths\":[");
        for (j, w) in b.sub_widths.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{w}");
        }
        s.push_str("]}");
    }
    s.push_str("],\"assignment\":[");
    for (i, (op, a)) in r.interconnect.assignment.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "[{},{},{},{}]",
            op.index(),
            a.bus.index(),
            a.range.lo,
            a.range.hi
        );
    }
    s.push_str("],\"pins_used\":[");
    for (i, p) in r.pins_used.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{p}");
    }
    s.push_str("],\"placements\":[");
    for (i, (op, p)) in r.placements.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "[{},{},{},{},{}]",
            op.index(),
            p.bus.index(),
            p.step,
            p.range.lo,
            p.range.hi
        );
    }
    let _ = write!(s, "],\"reassigned\":{}}}", r.reassigned);
    s
}

fn write_ports(s: &mut String, ports: &BTreeMap<PartitionId, u32>) {
    s.push('[');
    for (i, (p, n)) in ports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},{n}]", p.index());
    }
    s.push(']');
}

/// Parses the JSON produced by [`result_to_json`].
///
/// # Errors
///
/// A human-readable description of the first malformed construct.
pub fn result_from_json(text: &str) -> Result<SavedResult, String> {
    let v = json::parse(text)?;
    let design_digest = v.field("design")?.u64()?;
    let flow = v.field("flow")?.text()?.to_string();
    let rate = v.field("rate")?.u32()?;
    let pipe_length = v.field("pipe_length")?.i64()?;
    let start = v
        .field("start")?
        .items()?
        .iter()
        .map(|t| {
            let pair = t.items()?;
            if pair.len() != 2 {
                return Err("start entry is not a [step, offset] pair".into());
            }
            Ok(StepTime {
                step: pair[0].i64()?,
                offset_ns: pair[1].u64()?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mode = match v.field("mode")?.text()? {
        "uni" => PortMode::Unidirectional,
        "bi" => PortMode::Bidirectional,
        other => return Err(format!("unknown port mode `{other}`")),
    };
    let buses = v
        .field("buses")?
        .items()?
        .iter()
        .map(|b| {
            Ok(Bus {
                out_ports: read_ports(b.field("out")?)?,
                in_ports: read_ports(b.field("in")?)?,
                bi_ports: read_ports(b.field("bi")?)?,
                sub_widths: b
                    .field("widths")?
                    .items()?
                    .iter()
                    .map(|w| w.u32())
                    .collect::<Result<Vec<_>, String>>()?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut assignment = BTreeMap::new();
    for row in v.field("assignment")?.items()? {
        let row = row.items()?;
        if row.len() != 4 {
            return Err("assignment row is not [op, bus, lo, hi]".into());
        }
        let bus = bus_id(&buses, &row[1])?;
        assignment.insert(
            OpId::new(row[0].u32()?),
            BusAssignment {
                bus,
                range: sub_range(&buses[bus.index()], &row[2], &row[3])?,
            },
        );
    }
    let pins_used = v
        .field("pins_used")?
        .items()?
        .iter()
        .map(|p| p.u32())
        .collect::<Result<Vec<_>, String>>()?;
    let mut placements = BTreeMap::new();
    for row in v.field("placements")?.items()? {
        let row = row.items()?;
        if row.len() != 5 {
            return Err("placement row is not [op, bus, step, lo, hi]".into());
        }
        let bus = bus_id(&buses, &row[1])?;
        placements.insert(
            OpId::new(row[0].u32()?),
            SlotPlacement {
                bus,
                step: row[2].i64()?,
                range: sub_range(&buses[bus.index()], &row[3], &row[4])?,
            },
        );
    }
    let reassigned = v.field("reassigned")?.usize()?;
    Ok(SavedResult {
        design_digest,
        flow,
        result: SynthesisResult {
            schedule: Schedule { rate, start },
            interconnect: Interconnect {
                mode,
                buses,
                assignment,
            },
            pins_used,
            pipe_length,
            placements,
            reassigned,
            search_stats: None,
        },
    })
}

fn read_ports(v: &Json) -> Result<BTreeMap<PartitionId, u32>, String> {
    let mut ports = BTreeMap::new();
    for row in v.items()? {
        let row = row.items()?;
        if row.len() != 2 {
            return Err("port row is not a [chip, count] pair".into());
        }
        ports.insert(PartitionId::new(row[0].u32()?), row[1].u32()?);
    }
    Ok(ports)
}

/// A bus index that names one of `buses`.
fn bus_id(buses: &[Bus], v: &Json) -> Result<BusId, String> {
    let bus = v.u32()?;
    if bus as usize >= buses.len() {
        return Err(format!(
            "bus {bus} is out of range: the result has {} buses",
            buses.len()
        ));
    }
    Ok(BusId::new(bus))
}

/// A sub-bus range `[lo, hi]` inside `bus`.
fn sub_range(bus: &Bus, lo: &Json, hi: &Json) -> Result<SubRange, String> {
    let n = bus.sub_widths.len();
    let (lo, hi) = (lo.usize()?, hi.usize()?);
    if lo > hi || hi >= n {
        return Err(format!(
            "sub-bus range [{lo}, {hi}] does not fit a bus of {n} sub-buses"
        ));
    }
    Ok(SubRange { lo, hi })
}

/// Typed accessors over the saved-result tree; each error names what
/// the format expected.
trait SavedJson {
    fn field(&self, key: &str) -> Result<&Json, String>;
    fn int(&self) -> Result<i128, String>;
    fn text(&self) -> Result<&str, String>;
    fn items(&self) -> Result<&[Json], String>;

    fn u64(&self) -> Result<u64, String> {
        let n = self.int()?;
        u64::try_from(n).map_err(|_| format!("expected unsigned integer, got {n}"))
    }

    fn i64(&self) -> Result<i64, String> {
        let n = self.int()?;
        i64::try_from(n).map_err(|_| format!("integer {n} is out of range"))
    }

    fn u32(&self) -> Result<u32, String> {
        let n = self.int()?;
        u32::try_from(n).map_err(|_| format!("expected 32-bit unsigned integer, got {n}"))
    }

    fn usize(&self) -> Result<usize, String> {
        let n = self.int()?;
        usize::try_from(n).map_err(|_| format!("expected unsigned size, got {n}"))
    }
}

impl SavedJson for Json {
    fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .ok_or_else(|| format!("missing field `{key}`")),
            other => Err(format!("expected object with `{key}`, got {other:?}")),
        }
    }

    fn int(&self) -> Result<i128, String> {
        match self {
            Json::Int(n) => Ok(*n),
            Json::Num(raw) => Err(format!("`{raw}`: floats are not part of this format")),
            other => Err(format!("expected integer, got {other:?}")),
        }
    }

    fn text(&self) -> Result<&str, String> {
        self.as_str()
            .ok_or_else(|| format!("expected string, got {self:?}"))
    }

    fn items(&self) -> Result<&[Json], String> {
        self.as_arr()
            .ok_or_else(|| format!("expected array, got {self:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{connect_first_flow, simple_flow};
    use mcs_cdfg::designs::{ar_filter, elliptic};
    use mcs_cdfg::fuzz::design_digest;

    #[test]
    fn saved_result_round_trips_byte_identical() {
        let d = elliptic::partitioned();
        let r = connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(6)).unwrap();
        let digest = design_digest(d.cdfg());
        let text = result_to_json(digest, &r);
        let loaded = result_from_json(&text).unwrap();
        assert_eq!(loaded.design_digest, digest);
        assert_eq!(loaded.flow, "connect");
        assert_eq!(result_to_json(digest, &loaded.result), text);
        assert_eq!(loaded.result.pipe_length, r.pipe_length);
        assert_eq!(loaded.result.schedule.start, r.schedule.start);
        assert_eq!(
            loaded.result.interconnect.assignment,
            r.interconnect.assignment
        );
        assert_eq!(loaded.result.placements, r.placements);
    }

    #[test]
    fn malformed_saved_results_are_rejected_with_context() {
        for (text, needle) in [
            ("{", "expected"),
            ("{\"design\":1}", "missing field"),
            ("[1,2,3] trailing", "trailing garbage"),
            ("{\"design\":1.5}", "floats"),
        ] {
            let err = result_from_json(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` -> `{err}`");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let err = result_from_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    /// `text` with column `col` of the first row under `key` set to
    /// `value`.
    fn with_first_row(text: &str, key: &str, col: usize, value: &str) -> String {
        let start = text.find(&format!("\"{key}\":[[")).expect("key present") + key.len() + 5;
        let end = start + text[start..].find(']').expect("row closes");
        let mut row: Vec<&str> = text[start..end].split(',').collect();
        row[col] = value;
        format!("{}{}{}", &text[..start], row.join(","), &text[end..])
    }

    #[test]
    fn rows_outside_the_saved_buses_and_truncating_integers_are_rejected() {
        let d = elliptic::partitioned();
        let r = connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(6)).unwrap();
        let text = result_to_json(design_digest(d.cdfg()), &r);
        let buses = r.interconnect.buses.len().to_string();
        // One past the last sub-bus of the first row's bus: past `hi`,
        // and above any valid `hi` when written as `lo`.
        let subs_of = |bus: BusId| {
            r.interconnect.buses[bus.index()]
                .sub_widths
                .len()
                .to_string()
        };
        let a_subs = subs_of(r.interconnect.assignment.values().next().unwrap().bus);
        let p_subs = subs_of(r.placements.values().next().unwrap().bus);
        let two_32 = (1u64 << 32).to_string();
        for (bad, needle) in [
            (
                with_first_row(&text, "assignment", 1, &buses),
                "out of range",
            ),
            (
                with_first_row(&text, "placements", 1, &buses),
                "out of range",
            ),
            (
                with_first_row(&text, "assignment", 2, &a_subs),
                "does not fit",
            ),
            (
                with_first_row(&text, "assignment", 3, &a_subs),
                "does not fit",
            ),
            (
                with_first_row(&text, "placements", 4, &p_subs),
                "does not fit",
            ),
            (with_first_row(&text, "assignment", 0, &two_32), "32-bit"),
            (
                text.replacen("\"rate\":6", &format!("\"rate\":{}", (1u64 << 32) + 6), 1),
                "32-bit",
            ),
        ] {
            let err = result_from_json(&bad).unwrap_err();
            assert!(err.contains(needle), "`{needle}` not in `{err}`");
        }
    }

    #[test]
    fn local_width_edit_has_empty_dirty_region_and_reuses_identically() {
        let d = ar_filter::simple();
        let prev = simple_flow(d.cdfg(), 2).unwrap();
        // `m1` multiplies on its own chip; its result value feeds only
        // same-chip consumers, so widening it touches zero transfers.
        let local = d
            .cdfg()
            .ops()
            .iter()
            .enumerate()
            .find_map(|(i, op)| {
                let id = OpId::new(i as u32);
                let is_func = op.io_endpoints().is_none() && op.result.is_some();
                let local_consumers = d.cdfg().succs(id).iter().all(|&e| {
                    let to = d.cdfg().edge(e).to;
                    d.cdfg().op(to).io_endpoints().is_none()
                        && d.cdfg().op(to).partition == op.partition
                });
                (is_func && local_consumers).then(|| op.name.clone())
            })
            .expect("ar filter has a chip-local operation");
        let delta = DesignDelta::parse(&format!("width:{local}=9")).unwrap();
        let applied = delta.apply(d.cdfg()).unwrap();
        let dirty = classify(d.cdfg(), &prev, &applied);
        assert!(dirty.is_empty(), "dirty region: {dirty:?}");
        let out = resynth_flow(d.cdfg(), &prev, &delta).unwrap();
        assert_eq!(out.path, ResynthPath::Identical);
        let digest = design_digest(&out.cdfg);
        assert_eq!(
            result_to_json(digest, &out.result),
            result_to_json(digest, &prev),
            "identical reuse must be byte-identical"
        );
    }

    #[test]
    fn transfer_width_edit_takes_a_warm_path_and_verifies() {
        let d = elliptic::partitioned();
        let prev = connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(6)).unwrap();
        // Find a producer whose value crosses chips: widening it dirties
        // the transfer chain but leaves the bus structure reusable.
        let (xfer, producer) = d
            .cdfg()
            .io_ops()
            .find_map(|xfer| {
                d.cdfg()
                    .preds(xfer)
                    .iter()
                    .map(|&e| d.cdfg().edge(e).from)
                    .find(|&op| d.cdfg().op(op).io_endpoints().is_none())
                    .map(|p| (xfer, p))
            })
            .expect("elliptic has a transfer with a functional producer");
        let name = d.cdfg().op(producer).name.clone();
        let bits = d.cdfg().io_bits(xfer);
        let delta = DesignDelta::parse(&format!("width:{name}={}", bits.max(2) - 1)).unwrap();
        let report = differential(d.cdfg(), &prev, &delta).unwrap();
        assert!(
            report.incremental_pipe.is_some(),
            "narrowing a carried value must stay synthesizable"
        );
    }

    #[test]
    fn rate_change_is_never_identical() {
        let d = ar_filter::simple();
        let prev = simple_flow(d.cdfg(), 2).unwrap();
        let delta = DesignDelta::parse("rate:3").unwrap();
        let out = resynth_flow(d.cdfg(), &prev, &delta).unwrap();
        assert_ne!(out.path, ResynthPath::Identical);
        assert_eq!(out.result.schedule.rate, 3);
    }
}
