//! The flow workloads, `design_suite` and `search_scale`: fixed item
//! lists run round-robin, one thread, through the public flow, layer,
//! codec and explore entry points.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mcs_cdfg::delta::DesignDelta;
use mcs_cdfg::designs::{ar_filter, elliptic, synthetic, Design};
use mcs_cdfg::fuzz::{design_digest, design_from_seed, FuzzConfig};
use mcs_cdfg::{format, Cdfg, PartitionId, PortMode};
use mcs_ctl::{Budget, BudgetSpec, Termination};
use mcs_explore::{FlowVariant, SweepOptions, SweepReport, SweepSpec};
use mcs_metrics::{MetricsHandle, Registry};
use mcs_obs::RecorderHandle;
use mcs_pinalloc::PinChecker;
use mcs_postsyn::{connect_after_scheduling, verify_against_schedule, PostsynConfig};
use mcs_sched::{fds_schedule, validate, FdsConfig, ScheduleViolation};
use mcs_sim::{Semantics, Stimulus, Violation};
use multichip_hls::explore::run_sweep;
use multichip_hls::flows::{
    connect_first_flow, simple_flow_with_checker, ConnectFirstOptions, SynthesisResult,
};
use multichip_hls::resynth::{
    result_from_json, result_to_json, resynth_flow_traced, ResynthOutcome, ResynthPath, SavedResult,
};

use crate::cpu::process_cpu_s;
use crate::stats::{geomean, median, min, pick};
use crate::trace::{SpanRec, Tracer};
use crate::{Outcome, RunOpts};

/// What one item does when timed.
enum Job {
    /// Chapter 3: `PinChecker::new`, then `simple_flow_with_checker`.
    Simple { design: Design, rate: u32 },
    /// Chapters 4/6: `connect_first_flow` with one search worker, once
    /// per design (one design, or a batch of fuzz designs timed as one
    /// item so no single member sways the geometric mean).
    /// `window` bounds the search nodes each run must take, for items
    /// chosen by a node-window screen.
    Connect {
        designs: Vec<Design>,
        rate: u32,
        window: Option<(u64, u64)>,
    },
    /// Chapter 5: `fds_schedule`, then `connect_after_scheduling`.
    Schedule {
        design: Design,
        rate: u32,
        pipe: i64,
    },
    /// `format::parse` of every `.mcs` file under `examples/`.
    Parse { files: Vec<(String, String)> },
    /// `DesignDelta::parse`, `resynth_flow_traced`, then a
    /// `result_to_json`/`result_from_json` round trip.
    Edit {
        design: Design,
        prev: Box<SynthesisResult>,
        spec: String,
        expect: ResynthPath,
    },
    /// One pruned `run_sweep` with one job.
    Sweep { design: Design, spec: SweepSpec },
}

/// One named item of a flow workload.
struct Item {
    name: String,
    job: Job,
    /// Whether the item's inputs depend on the workload seed. Only
    /// seed-independent items count towards the `quality_*` metrics, so
    /// those repeat exactly for every seed.
    seeded: bool,
    /// Runs per pass. Short items run several times, so that each item
    /// takes a similar share of a pass and gets enough samples for its
    /// minimum to find the host's quiet moments.
    reps: u32,
}

/// What an item produced, kept for the checks that run after the clock
/// stops.
enum Output {
    Synth(SynthesisResult),
    Batch(Vec<SynthesisResult>),
    Parsed(Vec<Design>),
    Edited {
        out: Box<ResynthOutcome>,
        json: String,
        back: Box<SavedResult>,
    },
    Swept(SweepReport),
}

/// Records spans and program counters around the public calls of one
/// traced pass; a no-op in untraced passes.
struct OpRecorder<'t> {
    tracer: Option<&'t Tracer>,
    pass: u32,
    next_op: u64,
    root: Option<SpanRec>,
    counters: BTreeMap<String, u64>,
}

impl<'t> OpRecorder<'t> {
    fn new(tracer: Option<&'t Tracer>, pass: u32) -> Self {
        OpRecorder {
            tracer,
            pass,
            next_op: 0,
            root: None,
            counters: BTreeMap::new(),
        }
    }

    fn begin_op(&mut self, name: &str) {
        let Some(tracer) = self.tracer else { return };
        self.next_op += 1;
        let mut rec = SpanRec {
            id: 0,
            parent: 0,
            op: u64::from(self.pass) << 32 | self.next_op,
            pass: self.pass,
            name: format!("item:{name}"),
            layer: "op",
            start_us: tracer.now_us(),
            end_us: 0.0,
            aggregated: false,
        };
        rec.id = tracer.push(rec.clone());
        self.root = Some(rec);
    }

    fn end_op(&mut self) {
        if let (Some(tracer), Some(root)) = (self.tracer, self.root.take()) {
            tracer.finish(root.id, tracer.now_us());
        }
    }

    /// Runs one public layer call. In a traced pass the call gets its
    /// own span, a fresh connected `MetricsHandle` whose profile nodes
    /// are grafted under that span, and its counters are summed into
    /// the pass.
    fn call<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&MetricsHandle) -> T,
    ) -> T {
        let (Some(tracer), Some(root)) = (self.tracer, self.root.as_ref()) else {
            return f(&MetricsHandle::default());
        };
        let reg = Arc::new(Registry::new());
        let handle = MetricsHandle::new(reg.clone());
        let start_us = tracer.now_us();
        let out = f(&handle);
        let end_us = tracer.now_us();
        let mut rec = SpanRec {
            id: 0,
            parent: root.id,
            op: root.op,
            pass: self.pass,
            name: name.to_string(),
            layer,
            start_us,
            end_us,
            aggregated: false,
        };
        rec.id = tracer.push(rec.clone());
        let snap = reg.snapshot();
        tracer.graft_profile(&rec, &snap);
        for (k, v) in snap.counters {
            *self.counters.entry(k).or_default() += v;
        }
        out
    }
}

fn run_item(job: &Job, rec: &mut OpRecorder) -> Result<Output, String> {
    let recorder = RecorderHandle::default();
    match job {
        Job::Simple { design, rate } => {
            let cdfg = design.cdfg();
            let checker = rec
                .call("PinChecker::new", "pinalloc", |_| {
                    PinChecker::new(cdfg, *rate)
                })
                .map_err(|e| e.to_string())?;
            let (result, _) = rec
                .call("flows::simple_flow_with_checker", "flow", |m| {
                    simple_flow_with_checker(cdfg, *rate, checker, &recorder, m)
                })
                .map_err(|e| e.to_string())?;
            Ok(Output::Synth(result))
        }
        Job::Connect { designs, rate, .. } => {
            let mut results = Vec::with_capacity(designs.len());
            for design in designs {
                let result = rec
                    .call("flows::connect_first_flow", "flow", |m| {
                        let mut opts = ConnectFirstOptions::new(*rate);
                        opts.workers = 1;
                        opts.metrics = m.clone();
                        connect_first_flow(design.cdfg(), &opts)
                    })
                    .map_err(|e| e.to_string())?;
                results.push(result);
            }
            Ok(match <[_; 1]>::try_from(results) {
                Ok([one]) => Output::Synth(one),
                Err(many) => Output::Batch(many),
            })
        }
        Job::Schedule { design, rate, pipe } => {
            let cdfg = design.cdfg();
            let schedule = rec
                .call("mcs_sched::fds_schedule", "sched", |_| {
                    fds_schedule(
                        cdfg,
                        &FdsConfig {
                            rate: *rate,
                            pipe_length: *pipe,
                        },
                    )
                })
                .map_err(|e| e.to_string())?;
            let ic = rec.call("mcs_postsyn::connect_after_scheduling", "postsyn", |_| {
                connect_after_scheduling(
                    cdfg,
                    &schedule,
                    PortMode::Unidirectional,
                    &PostsynConfig::new(*rate),
                )
            });
            let pins_used = (0..cdfg.partition_count())
                .map(|p| ic.pins_used(PartitionId::new(p as u32)))
                .collect();
            let pipe_length = schedule.pipe_length(cdfg);
            Ok(Output::Synth(SynthesisResult {
                schedule,
                interconnect: ic,
                pins_used,
                pipe_length,
                placements: BTreeMap::new(),
                reassigned: 0,
                search_stats: None,
            }))
        }
        Job::Parse { files } => {
            let mut designs = Vec::with_capacity(files.len());
            for (_, text) in files {
                let d = rec
                    .call("format::parse", "cdfg", |_| format::parse(text))
                    .map_err(|e| e.to_string())?;
                designs.push(d);
            }
            Ok(Output::Parsed(designs))
        }
        Job::Edit {
            design, prev, spec, ..
        } => {
            let delta = rec
                .call("DesignDelta::parse", "cdfg", |_| DesignDelta::parse(spec))
                .map_err(|e| e.to_string())?;
            let out = rec
                .call("resynth::resynth_flow_traced", "resynth", |m| {
                    resynth_flow_traced(design.cdfg(), prev, &delta, &recorder, m)
                })
                .map_err(|e| e.to_string())?;
            let (json, back) = rec.call("resynth::result_json_round_trip", "codec", |_| {
                let json = result_to_json(design_digest(&out.cdfg), &out.result);
                let back = result_from_json(&json);
                (json, back)
            });
            Ok(Output::Edited {
                out: Box::new(out),
                json,
                back: Box::new(back?),
            })
        }
        Job::Sweep { design, spec } => {
            let report = rec
                .call("explore::run_sweep", "explore", |m| {
                    let opts = SweepOptions {
                        jobs: 1,
                        metrics: m.clone(),
                        ..SweepOptions::default()
                    };
                    run_sweep(design.cdfg(), spec, &opts, &recorder)
                })
                .map_err(|e| e.to_string())?;
            Ok(Output::Swept(report))
        }
    }
}

// ---------------------------------------------------------------------
// Independent checks, run after the clock stops.

/// Schedule validation, the connection audit against the schedule, and
/// (unless the flow only reports pins) every partition within budget.
fn check_synth(cdfg: &Cdfg, r: &SynthesisResult, pins_bounded: bool) -> Result<(), String> {
    let violations: Vec<_> = validate(cdfg, &r.schedule)
        .into_iter()
        // Force-directed scheduling reports the units it needs instead of
        // obeying declared counts (Chapter 5).
        .filter(|v| pins_bounded || !matches!(v, ScheduleViolation::Resources { .. }))
        .collect();
    if !violations.is_empty() {
        return Err(format!("schedule: {} violations", violations.len()));
    }
    let ic = r.final_interconnect();
    let problems = verify_against_schedule(cdfg, &r.schedule, &ic);
    if !problems.is_empty() {
        return Err(format!("connection: {}", problems[0]));
    }
    if pins_bounded {
        for p in 0..cdfg.partition_count() {
            let pid = PartitionId::new(p as u32);
            let (used, cap) = (ic.pins_used(pid), cdfg.partition(pid).total_pins);
            if used > cap {
                return Err(format!("partition {p} uses {used} pins over its {cap}"));
            }
        }
    }
    Ok(())
}

/// Cycle-accurate simulation of the result against the untimed
/// reference, on seeded random stimulus.
pub fn check_sim(cdfg: &Cdfg, r: &SynthesisResult, pins_bounded: bool) -> Result<(), String> {
    let stim = Stimulus::random(cdfg, 3, 0x5eed);
    let ic = r.final_interconnect();
    match mcs_sim::verify(cdfg, &r.schedule, Some(&ic), &Semantics::new(), &stim) {
        Ok(_) => Ok(()),
        Err(violations) => {
            let real: Vec<_> = violations
                .iter()
                // Chapter 5 results report pin and unit demand instead of
                // obeying the declared budgets; overuse is expected there.
                .filter(|v| {
                    pins_bounded
                        || !matches!(
                            v,
                            Violation::PinOveruse { .. } | Violation::ResourceOveruse { .. }
                        )
                })
                .collect();
            match real.first() {
                None => Ok(()),
                Some(v) => Err(format!("simulation: {v}")),
            }
        }
    }
}

/// [`check_sim`] when `acc` is given, adding its wall time (ms) to it.
fn timed_sim(
    acc: &mut Option<&mut f64>,
    cdfg: &Cdfg,
    r: &SynthesisResult,
    pins_bounded: bool,
) -> Result<(), String> {
    let Some(acc) = acc.as_deref_mut() else {
        return Ok(());
    };
    let t = Instant::now();
    let res = check_sim(cdfg, r, pins_bounded);
    *acc += t.elapsed().as_secs_f64() * 1e3;
    res
}

fn frontier_key(report: &SweepReport) -> String {
    report
        .frontier
        .iter()
        .map(|f| {
            format!(
                "{}/{}:{},{},{}",
                f.coord.rate, f.coord.budget_ix, f.latency, f.total_pins, f.buses
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// A deterministic fingerprint of an output, compared across passes.
fn fingerprint(out: &Output) -> String {
    let synth = |r: &SynthesisResult| {
        format!(
            "L{} P{:?} B{} R{}",
            r.pipe_length,
            r.pins_used,
            r.interconnect.buses.len(),
            r.reassigned
        )
    };
    match out {
        Output::Synth(r) => synth(r),
        Output::Batch(rs) => rs.iter().map(synth).collect::<Vec<_>>().join(";"),
        Output::Parsed(ds) => ds
            .iter()
            .map(|d| format!("{:016x}", design_digest(d.cdfg())))
            .collect::<Vec<_>>()
            .join(","),
        Output::Edited { out, json, .. } => {
            format!("{} {} J{}", out.path, synth(&out.result), json.len())
        }
        Output::Swept(report) => frontier_key(report),
    }
}

/// Per-item check state: the first output's fingerprint and, for
/// sweeps, the exhaustive reference frontier.
#[derive(Default)]
struct CheckState {
    first: Option<String>,
    reference: Option<String>,
    /// Wall time of each `DesignDelta::apply` the edit check made, µs.
    apply_us: Vec<f64>,
}

/// Checks one output. `sim_ms`, when given, also runs the simulation
/// oracle and adds its time there.
fn check_item(
    job: &Job,
    out: &Output,
    state: &mut CheckState,
    mut sim_ms: Option<&mut f64>,
) -> Result<(), String> {
    match (job, out) {
        (Job::Simple { design, .. }, Output::Synth(r)) => {
            check_synth(design.cdfg(), r, true)?;
            timed_sim(&mut sim_ms, design.cdfg(), r, true)?;
        }
        (
            Job::Connect {
                designs, window, ..
            },
            Output::Synth(_) | Output::Batch(_),
        ) => {
            let results = match out {
                Output::Synth(r) => std::slice::from_ref(r),
                Output::Batch(rs) => rs.as_slice(),
                _ => unreachable!("matched above"),
            };
            if results.len() != designs.len() {
                return Err("one result per design".into());
            }
            for (design, r) in designs.iter().zip(results) {
                check_synth(design.cdfg(), r, true)?;
                timed_sim(&mut sim_ms, design.cdfg(), r, true)?;
                let nodes = r.search_stats.as_ref().map_or(0, |s| s.nodes);
                if window.is_some_and(|(lo, hi)| !(lo..=hi).contains(&nodes)) {
                    return Err(format!("{nodes} search nodes, outside {window:?}"));
                }
            }
        }
        (Job::Schedule { design, .. }, Output::Synth(r)) => {
            check_synth(design.cdfg(), r, false)?;
            timed_sim(&mut sim_ms, design.cdfg(), r, false)?;
        }
        (Job::Parse { files }, Output::Parsed(designs)) => {
            if designs.len() != files.len() {
                return Err("parse: design count".into());
            }
            for ((name, _), d) in files.iter().zip(designs) {
                let again = format::parse(&format::write(d.cdfg()))
                    .map_err(|e| format!("{name}: re-parse: {e}"))?;
                if design_digest(again.cdfg()) != design_digest(d.cdfg())
                    || d.cdfg().ops().is_empty()
                {
                    return Err(format!("{name}: write/parse round trip changed the design"));
                }
            }
        }
        (
            Job::Edit {
                design,
                spec,
                expect,
                ..
            },
            Output::Edited { out, json, back },
        ) => {
            // The edited design must be exactly what the delta alone makes
            // of the previous one.
            let delta = DesignDelta::parse(spec).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let applied = delta.apply(design.cdfg()).map_err(|e| e.to_string())?;
            state.apply_us.push(t.elapsed().as_secs_f64() * 1e6);
            if design_digest(&applied.cdfg) != design_digest(&out.cdfg) {
                return Err("resynth edited the design differently from DesignDelta::apply".into());
            }
            if out.path != *expect {
                return Err(format!(
                    "resynth took the {} rung, expected {expect}",
                    out.path
                ));
            }
            check_synth(&out.cdfg, &out.result, true)?;
            timed_sim(&mut sim_ms, &out.cdfg, &out.result, true)?;
            let digest = design_digest(&out.cdfg);
            if back.design_digest != digest || result_to_json(digest, &back.result) != *json {
                return Err("saved-result JSON does not round-trip".into());
            }
        }
        (Job::Sweep { design, spec }, Output::Swept(report)) => {
            if report.stats.errors != 0
                || report.stats.panics != 0
                || report.stats.termination != Termination::Complete
                || report.frontier.is_empty()
            {
                return Err(format!("sweep: {:?}", report.stats));
            }
            let reference = state.reference.get_or_insert_with(|| {
                let opts = SweepOptions {
                    jobs: 1,
                    prune: false,
                    ..SweepOptions::default()
                };
                run_sweep(design.cdfg(), spec, &opts, &RecorderHandle::default())
                    .map_or_else(|e| e.to_string(), |r| frontier_key(&r))
            });
            if frontier_key(report) != *reference {
                return Err("pruned frontier differs from the exhaustive sweep".into());
            }
        }
        _ => return Err("output kind does not match the item".into()),
    }
    let fp = fingerprint(out);
    match &state.first {
        Some(first) if *first != fp => Err(format!("output changed between passes: {fp}")),
        Some(_) => Ok(()),
        None => {
            state.first = Some(fp);
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------
// Workload construction.

/// Initiation rate for every fuzz-family item.
const FUZZ_RATE: u32 = 4;
/// Fuzz members in `design_suite`.
const SUITE_FUZZ_ITEMS: usize = 6;
/// `design_suite` fuzz screen: a feasible connect-first verdict at
/// [`FUZZ_RATE`] after at least this many and at most
/// [`SUITE_FUZZ_MAX_NODES`] search nodes and at most
/// [`SUITE_FUZZ_MAX_PLACEMENTS`] scheduler placement attempts, from a
/// design of [`SUITE_FUZZ_OPS`] operations on two or more chips. Designs in this window solve in about 0.1 to 1 ms; the
/// placement ceiling drops the rare member whose hold-back retries cost
/// tens of milliseconds.
const SUITE_FUZZ_MIN_NODES: u64 = 12;
const SUITE_FUZZ_MAX_NODES: u64 = 64;
const SUITE_FUZZ_MAX_PLACEMENTS: u64 = 200;
const SUITE_FUZZ_OPS: std::ops::RangeInclusive<usize> = 15..=30;
/// `design_suite` screens fuzz seeds below this.
const SUITE_FUZZ_SCAN: u64 = 160;
/// `search_scale` fuzz members: every default-config fuzz seed below
/// 3000 whose connect-first search at [`FUZZ_RATE`] ends feasible after
/// 60 000 to 160 000 nodes. The window is too sparse to scan at run time
/// (two members in 3000 seeds) and the two differ 1.7x in cost, so both
/// run in every pass whatever the workload seed, and every result's
/// node count is checked against the window.
const SCALE_FUZZ: [u64; 2] = [16, 1907];
const SCALE_FUZZ_NODES: (u64, u64) = (60_000, 160_000);

/// Connect-first search nodes and scheduler placement attempts of a
/// feasible run of `cdfg` at [`FUZZ_RATE`], under a deterministic node
/// ceiling.
fn screen_connect(cdfg: &Cdfg, max_nodes: u64) -> Option<(u64, u64)> {
    let reg = Arc::new(Registry::new());
    let mut opts = ConnectFirstOptions::new(FUZZ_RATE);
    opts.budget = Some(Budget::new(BudgetSpec::default().max_nodes(max_nodes)));
    opts.metrics = MetricsHandle::new(reg.clone());
    let r = connect_first_flow(cdfg, &opts).ok()?;
    let placements = reg.snapshot().counters.get("sched.place_attempts").copied();
    Some((r.search_stats?.nodes, placements.unwrap_or(0)))
}

/// The `design_suite` fuzz members for `seed`: [`SUITE_FUZZ_ITEMS`]
/// members, chosen by the seed, of the pool of fuzz seeds below
/// [`SUITE_FUZZ_SCAN`] that pass the screen. The screened window is the
/// same for every workload seed, so set-up does the same work whatever
/// the seed.
fn suite_fuzz(seed: u64) -> Result<Vec<(u64, Design)>, String> {
    let config = FuzzConfig::default();
    let mut pool = Vec::new();
    for s in 0..SUITE_FUZZ_SCAN {
        let d = design_from_seed(&config, s);
        let cdfg = d.cdfg();
        if !SUITE_FUZZ_OPS.contains(&cdfg.ops().len()) || cdfg.partition_count() < 3 {
            continue;
        }
        let work = screen_connect(cdfg, SUITE_FUZZ_MAX_NODES);
        if work.is_some_and(|(n, p)| n >= SUITE_FUZZ_MIN_NODES && p <= SUITE_FUZZ_MAX_PLACEMENTS) {
            pool.push((s, d));
        }
    }
    if pool.len() < SUITE_FUZZ_ITEMS {
        return Err(format!(
            "only {} fuzz designs pass the design_suite screen",
            pool.len()
        ));
    }
    let chosen = pick(seed ^ 0xd5, pool.len(), SUITE_FUZZ_ITEMS);
    Ok(pool
        .into_iter()
        .enumerate()
        .filter(|(i, _)| chosen.contains(i))
        .map(|(_, m)| m)
        .collect())
}

/// Name and width of a functional operation whose value crosses chips.
fn transfer_producer(cdfg: &Cdfg) -> Option<(String, u32)> {
    cdfg.io_ops().find_map(|xfer| {
        cdfg.preds(xfer)
            .iter()
            .map(|&e| cdfg.edge(e).from)
            .find(|&op| cdfg.op(op).io_endpoints().is_none())
            .map(|p| (cdfg.op(p).name.clone(), cdfg.io_bits(xfer)))
    })
}

/// A narrowing edit of the first cross-chip producer.
pub fn transfer_edit(cdfg: &Cdfg) -> Option<String> {
    transfer_producer(cdfg).map(|(op, bits)| format!("width:{op}={}", bits.max(2) - 1))
}

fn example_files() -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for dir in ["examples/benchmarks", "examples/designs"] {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == "mcs") {
                let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                files.push((path.display().to_string(), text));
            }
        }
    }
    files.sort();
    if files.is_empty() {
        return Err("no .mcs files under examples/".into());
    }
    Ok(files)
}

fn connect_prev(design: &Design, rate: u32) -> Result<SynthesisResult, String> {
    connect_first_flow(design.cdfg(), &ConnectFirstOptions::new(rate)).map_err(|e| e.to_string())
}

/// Builds a fixed, seed-independent item.
fn named(name: impl Into<String>, job: Job) -> Item {
    Item {
        name: name.into(),
        job,
        seeded: false,
        reps: 1,
    }
}

fn connect(design: Design, rate: u32) -> Job {
    Job::Connect {
        designs: vec![design],
        rate,
        window: None,
    }
}

fn design_suite(seed: u64) -> Result<Vec<Item>, String> {
    let uni = PortMode::Unidirectional;
    let mut items = Vec::new();
    for rate in [2, 3] {
        let design = ar_filter::simple();
        items.push(named(
            format!("ar_simple_L{rate}"),
            Job::Simple { design, rate },
        ));
    }
    for rate in [6, 7, 8] {
        let design = elliptic::partitioned_with(rate, uni);
        items.push(named(
            format!("elliptic_connect_L{rate}"),
            connect(design, rate),
        ));
    }
    items.push(named(
        "ar_general_connect_L3",
        connect(ar_filter::general(3, uni), 3),
    ));
    let (design, rate, pipe) = (elliptic::partitioned(), 6, 26);
    items.push(named(
        "elliptic_schedule_L6_P26",
        Job::Schedule { design, rate, pipe },
    ));
    let (design, rate, pipe) = (ar_filter::simple(), 3, 10);
    items.push(named(
        "ar_schedule_L3_P10",
        Job::Schedule { design, rate, pipe },
    ));
    items.push(named(
        "parse_examples",
        Job::Parse {
            files: example_files()?,
        },
    ));
    let (seeds, designs): (Vec<u64>, Vec<Design>) = suite_fuzz(seed)?.into_iter().unzip();
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    items.push(Item {
        name: format!("fuzz{}_connect_L{FUZZ_RATE}", seeds.join("+")),
        job: Job::Connect {
            designs,
            rate: FUZZ_RATE,
            window: None,
        },
        seeded: true,
        reps: 1,
    });

    let ell = elliptic::partitioned();
    let ell_prev = connect_prev(&ell, 6)?;
    let ell_edit = transfer_edit(ell.cdfg()).ok_or("elliptic has no cross-chip producer")?;
    let ar = ar_filter::simple();
    let ar_prev = multichip_hls::flows::simple_flow(ar.cdfg(), 2).map_err(|e| e.to_string())?;
    let ar_edit = transfer_edit(ar.cdfg()).ok_or("ar filter has no cross-chip producer")?;
    let edits = [
        (
            "edit_elliptic_local",
            &ell,
            &ell_prev,
            "width:a1=8".to_string(),
            ResynthPath::Identical,
        ),
        (
            "edit_elliptic_transfer",
            &ell,
            &ell_prev,
            ell_edit,
            ResynthPath::Patched,
        ),
        (
            "edit_ar_transfer",
            &ar,
            &ar_prev,
            ar_edit,
            ResynthPath::Patched,
        ),
    ];
    for (name, design, prev, spec, expect) in edits {
        let job = Job::Edit {
            design: design.clone(),
            prev: Box::new(prev.clone()),
            spec,
            expect,
        };
        items.push(named(name, job));
    }
    let spec = SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: (4..=8).collect(),
        budgets: vec![
            vec![48, 48, 64, 48, 48],
            vec![32, 48, 64, 48, 48],
            vec![24, 32, 48, 32, 32],
            vec![16, 16, 16, 16, 16],
        ],
    };
    items.push(named(
        "sweep_elliptic_connect",
        Job::Sweep { design: ell, spec },
    ));
    Ok(items)
}

/// `search_scale`: each item with its runs per pass, chosen so that
/// every item takes 0.5 to 0.8 s of a pass except `large_mesh(8)`, which
/// takes about 1.8 s on its own.
fn search_scale() -> Vec<Item> {
    let mut items = Vec::new();
    for (chips, reps) in [(6, 6), (7, 3), (8, 1)] {
        let design = synthetic::large_mesh(chips);
        let item = named(format!("large_mesh{chips}_L4"), connect(design, 4));
        items.push(Item { reps, ..item });
    }
    for (senders, rate, reps) in [(5, 2, 3), (6, 3, 3)] {
        let design = synthetic::portfolio_adversarial(senders);
        let item = named(
            format!("adversarial{senders}_L{rate}"),
            connect(design, rate),
        );
        items.push(Item { reps, ..item });
    }
    for (s, reps) in SCALE_FUZZ.into_iter().zip([1, 2]) {
        let job = Job::Connect {
            designs: vec![design_from_seed(&FuzzConfig::default(), s)],
            rate: FUZZ_RATE,
            window: Some(SCALE_FUZZ_NODES),
        };
        let item = named(format!("fuzz{s}_connect_L{FUZZ_RATE}"), job);
        items.push(Item { reps, ..item });
    }
    items
}

// ---------------------------------------------------------------------
// The measurement loop.

/// Set-up repeats per run, per workload: about 1.2 s of CPU in all for
/// `design_suite` (30 ms a set-up), 0.1 s for `search_scale` (0.25 ms).
fn setup_repeats(workload: &str) -> usize {
    match workload {
        "design_suite" => 40,
        _ => 500,
    }
}

/// Nominal measured passes per second of `--seconds`, per workload.
fn passes_per_second(workload: &str) -> f64 {
    match workload {
        "design_suite" => 4.0,
        _ => 0.2,
    }
}

/// Runs `design_suite` or `search_scale`.
pub fn run(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let build = |seed| match workload {
        "design_suite" => design_suite(seed),
        _ => Ok(search_scale()),
    };
    // Set-up is repeated over the run and its fastest repeat reported;
    // every repeat must build the same item list.
    let passes = opts.passes(passes_per_second(workload));
    let mut setup = opts.setup(setup_repeats(workload), passes);
    let items = setup
        .run(|| build(opts.seed))?
        .expect("the first set-up slot runs once at least");
    let names = |v: &[Item]| v.iter().map(|i| i.name.clone()).collect::<Vec<_>>();
    let item_names = names(&items);

    let tracer = Tracer::default();
    let mut checks: Vec<CheckState> = items.iter().map(|_| CheckState::default()).collect();
    let mut out = Outcome::new();
    if !opts.smoke {
        // Untimed warm-up pass: caches fill and lazy set-up finishes.
        let mut rec = OpRecorder::new(None, 0);
        for item in &items {
            let _ = run_item(&item.job, &mut rec);
        }
    }

    // A pass runs round-robin rounds: round r runs every item with more
    // than r runs per pass.
    let rounds = items.iter().map(|i| i.reps).max().unwrap_or(0);
    let schedule: Vec<usize> = (0..rounds)
        .flat_map(|r| {
            let items = &items;
            (0..items.len()).filter(move |&i| items[i].reps > r)
        })
        .collect();
    let mut item_ms: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    let mut pass_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let mut traced_passes = Vec::new();
    let mut quality = None;
    let mut layer_counts: Option<BTreeMap<String, u64>> = None;
    let mut sim_ms = 0.0;
    for pass in 0..passes {
        if let Some(again) = setup.run(|| build(opts.seed))? {
            if names(&again) != item_names {
                return Err("set-up is not deterministic".into());
            }
        }
        // In a traced run untraced and traced passes alternate, so both
        // see the same machine; end-to-end numbers never come from a
        // traced pass.
        let traced = opts.trace && pass % 2 == 1;
        let mut rec = OpRecorder::new(traced.then_some(&tracer), pass);
        let mut outputs = Vec::with_capacity(schedule.len());
        let mut total = 0.0;
        for &i in &schedule {
            let item = &items[i];
            rec.begin_op(&item.name);
            let cpu = process_cpu_s();
            let res = run_item(&item.job, &mut rec);
            let ms = (process_cpu_s() - cpu) * 1e3;
            rec.end_op();
            total += ms;
            if !traced {
                item_ms[i].push(ms);
            }
            outputs.push(res);
        }
        if traced {
            traced_pass_ms.push(total);
            traced_passes.push(pass);
            match &layer_counts {
                None => layer_counts = Some(rec.counters.clone()),
                Some(first) if *first != rec.counters => {
                    out.problem("program counters changed between traced passes".into());
                }
                Some(_) => {}
            }
        } else {
            pass_ms.push(total);
        }
        // Checks run with the clock stopped. The simulation oracle runs
        // on each item's first run in the first measured pass only: a
        // fixed sample.
        let mut pass_sim_ms = 0.0;
        let mut pass_quality = (0i64, 0u64, 0u64);
        for (k, (&i, res)) in schedule.iter().zip(&outputs).enumerate() {
            let (item, state) = (&items[i], &mut checks[i]);
            // The first round runs every item once.
            let first = k < items.len();
            out.attempted += 1;
            match res {
                Err(e) => {
                    out.errored += 1;
                    out.problem(format!("{}: {e}", item.name));
                }
                Ok(o) => {
                    let sim = (pass == 0 && first).then_some(&mut pass_sim_ms);
                    match check_item(&item.job, o, state, sim) {
                        Ok(()) => out.verified += 1,
                        Err(e) => out.problem(format!("{}: {e}", item.name)),
                    }
                    let r = match o {
                        Output::Synth(r) => Some(r),
                        Output::Edited { out, .. } => Some(&out.result),
                        _ => None,
                    };
                    if let Some(r) = r.filter(|_| first && !item.seeded) {
                        pass_quality.0 += r.pipe_length;
                        pass_quality.1 += r
                            .pins_used
                            .iter()
                            .skip(1)
                            .map(|&p| u64::from(p))
                            .sum::<u64>();
                        pass_quality.2 += r.interconnect.buses.len() as u64;
                    }
                }
            }
        }
        if pass == 0 {
            sim_ms = pass_sim_ms;
        }
        match quality {
            None => quality = Some(pass_quality),
            Some(q) if q != pass_quality => out.problem("quality changed between passes".into()),
            Some(_) => {}
        }
    }

    out.setup_s = setup.fastest();
    let (pipe, pins, buses) = quality.unwrap_or_default();
    out.e2e.insert("quality_pipe_steps", pipe as f64);
    out.e2e.insert("quality_pins", pins as f64);
    out.e2e.insert("quality_buses", buses as f64);
    if !pass_ms.is_empty() {
        // Each item's fastest pass: the host alternates between phases in
        // which identical work takes up to twice as long, and brief fast
        // phases occur inside slow ones, so the minimum over many passes
        // is the same in both while the median follows the phase.
        let best: Vec<f64> = item_ms.iter().map(|v| min(v)).collect();
        for ((item, v), b) in items.iter().zip(&item_ms).zip(&best) {
            eprintln!(
                "perfbench-item {} min_ms={b:.4} median_ms={:.4}",
                item.name,
                median(v)
            );
        }
        // A pass's runs over its time with every run at its item's best.
        let pass_best_s: f64 = items
            .iter()
            .zip(&best)
            .map(|(i, b)| f64::from(i.reps) * b)
            .sum::<f64>()
            / 1e3;
        out.e2e
            .insert("ops_per_s", schedule.len() as f64 / pass_best_s);
        out.e2e.insert("latency_geomean_ms", geomean(&best));
    }
    let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
    out.deterministic.push(("items".into(), names.join(",")));
    out.deterministic
        .push(("quality".into(), format!("{pipe}/{pins}/{buses}")));
    if opts.trace {
        let counts = layer_counts.unwrap_or_default();
        let apply_us: Vec<f64> = checks
            .iter()
            .flat_map(|c| c.apply_us.iter().copied())
            .collect();
        if !apply_us.is_empty() {
            out.layer.insert("cdfg.delta_apply_us", median(&apply_us));
        }
        layer_metrics(&mut out, &tracer, &traced_passes, &counts, sim_ms);
        if !pass_ms.is_empty() && !traced_pass_ms.is_empty() {
            out.layer.insert(
                "trace.overhead_ratio",
                median(&traced_pass_ms) / median(&pass_ms),
            );
        }
        out.deterministic.push((
            "counts".into(),
            counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(","),
        ));
        let path = format!("perfbench/out/spans-{workload}-{}.jsonl", opts.seed);
        tracer
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(out)
}

/// Least share of a traced pass's operation wall time that must fall
/// inside some layer's span; the rest is the benchmark's own glue.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Per-layer metrics of a traced flow run: self times are medians over
/// the traced passes of per-pass sums; counts are one pass's (they
/// repeat exactly, which the loop checks).
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    passes: &[u32],
    counts: &BTreeMap<String, u64>,
    sim_ms: f64,
) {
    if passes.is_empty() {
        return;
    }
    let per_pass: Vec<BTreeMap<&str, f64>> =
        passes.iter().map(|&p| tracer.self_us_by_layer(p)).collect();
    let layer_ms = |layer: &str| {
        let v: Vec<f64> = per_pass
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0.0) / 1e3)
            .collect();
        median(&v)
    };
    let calls_us = |name: &str| {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|&p| tracer.durations_us(p, name))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let connect_ms = layer_ms("connect");
    out.layer.insert("connect.nodes", count("connect.nodes"));
    out.layer.insert("connect.self_ms", connect_ms);
    out.layer
        .insert("connect.cache_hits", count("connect.cache_hits"));
    if count("connect.nodes") > 0.0 {
        out.layer.insert(
            "connect.us_per_node",
            connect_ms * 1e3 / count("connect.nodes"),
        );
    }
    out.layer.insert("sched.self_ms", layer_ms("sched"));
    let fds: Vec<f64> = passes
        .iter()
        .map(|&p| {
            tracer
                .durations_us(p, "mcs_sched::fds_schedule")
                .iter()
                .sum::<f64>()
                / 1e3
        })
        .collect();
    out.layer.insert("sched.fds_ms", median(&fds));
    out.layer
        .insert("sched.place_attempts", count("sched.place_attempts"));
    out.layer
        .insert("rematch.augmentations", count("rematch.augmentations"));
    out.layer
        .insert("pinalloc.checker_new_us", calls_us("PinChecker::new"));
    let (memo, solver) = (count("probe.memo_hits"), count("probe.solver"));
    out.layer.insert("probe.solver", solver);
    out.layer.insert("probe.memo_hits", memo);
    if memo + solver > 0.0 {
        out.layer
            .insert("pinalloc.memo_hit_ratio", memo / (memo + solver));
    }
    out.layer
        .insert("probe.exact_fallbacks", count("probe.exact_fallbacks"));
    out.layer.insert("ilp.pivots", count("ilp.pivots"));
    out.layer.insert("postsyn.self_ms", layer_ms("postsyn"));
    out.layer.insert("cdfg.parse_us", calls_us("format::parse"));
    out.layer.insert("resynth.self_ms", layer_ms("resynth"));
    for key in [
        "resynth.path.identical",
        "resynth.path.patched",
        "resynth.path.cold",
    ] {
        out.layer.insert(key, count(key));
    }
    out.layer.insert(
        "resynth.replayed_commits",
        count("resynth.replayed_commits"),
    );
    out.layer.insert(
        "codec.result_json_us",
        calls_us("resynth::result_json_round_trip"),
    );
    let sweep: Vec<f64> = passes
        .iter()
        .map(|&p| {
            tracer
                .durations_us(p, "explore::run_sweep")
                .iter()
                .sum::<f64>()
                / 1e3
        })
        .collect();
    out.layer.insert("explore.sweep_ms", median(&sweep));
    out.layer.insert("explore.run", count("explore.run"));
    out.layer.insert("explore.pruned", count("explore.pruned"));
    out.layer.insert(
        "explore.seed_hits",
        count("probe.seed_hits") + count("connect.seed_hits"),
    );
    out.layer.insert("sim.check_ms", sim_ms);
    // Coverage: the share of the timed operations' wall time that lands
    // in some layer's span rather than in the benchmark's own glue.
    let walls: Vec<f64> = passes.iter().map(|&p| tracer.op_wall_us(p)).collect();
    let glue: Vec<f64> = per_pass
        .iter()
        .map(|m| m.get("op").copied().unwrap_or(0.0))
        .collect();
    let coverage: Vec<f64> = walls.iter().zip(&glue).map(|(w, g)| 1.0 - g / w).collect();
    let coverage = median(&coverage);
    out.layer.insert("trace.span_coverage", coverage);
    if coverage < MIN_SPAN_COVERAGE {
        out.problem(format!(
            "layer spans cover only {coverage:.3} of the timed operations' wall time"
        ));
    }
    // The connect layer's share of the flows' wall time.
    let flow_ms: Vec<f64> = per_pass
        .iter()
        .map(|m| {
            m.iter()
                .filter(|(k, _)| **k != "op")
                .map(|(_, v)| v)
                .sum::<f64>()
                / 1e3
        })
        .collect();
    let share: Vec<f64> = per_pass
        .iter()
        .zip(&flow_ms)
        .map(|(m, f)| m.get("connect").copied().unwrap_or(0.0) / 1e3 / f)
        .collect();
    out.layer.insert("trace.connect_share", median(&share));
}
