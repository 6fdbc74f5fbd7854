//! `mcs-hls` — synthesize multi-chip pipelined designs from the command
//! line.
//!
//! ```text
//! mcs-hls check    <design.mcs>                  parse + validate + stats
//! mcs-hls synth    <design.mcs> --rate N         run a flow, print results
//!                  [--flow simple|connect|schedule] [--bidir] [--sharing]
//!                  [--pipe N]                    (schedule flow's pipe bound)
//!                  [--pivot-budget N]            (simple flow's probe pivot cap)
//!                  [--deadline-ms N] [--max-pivots N] [--max-nodes N]
//!                                                (execution budget: interrupt at
//!                                                the ceiling, report best-so-far)
//!                  [--trace-out trace.json [--trace-format chrome|jsonl]]
//!                  [--metrics-out m.json [--metrics-format json|prom]]
//!                  [--out-result out.json]       (persist the result for `resynth`)
//! mcs-hls resynth  <design.mcs> --prev out.json --edit "width:V1=8"
//!                  incremental resynthesis: apply the design delta and
//!                  re-solve only the dirty region, reusing the previous
//!                  schedule/connection where the classifier allows
//!                  [--out-result out2.json] [--metrics-out m.json]
//! mcs-hls explain  <design.mcs> --rate N         synthesize with an event sink
//!                  and a metrics registry on one telemetry handle; print
//!                  the per-phase decision summary, the decision facts and
//!                  the metrics table (counters, histograms, span profile)
//!                  [--metrics-in m.json]         (render a saved metrics file
//!                                                instead of synthesizing)
//! mcs-hls simulate <design.mcs> --rate N [--instances N] [--seed N]
//!                  synthesize, execute, cross-check outputs
//!                  (at most 4096 instances)
//! mcs-hls rtl      <design.mcs> --rate N         emit structural Verilog
//! mcs-hls fmt      <design.mcs>                  print the canonical form
//! mcs-hls partition <design.mcs> --chips N [--pins P]
//!                  repartition by KL/FM min-cut; prints the new design
//! mcs-hls dot      <design.mcs> [--rate N --buses]  Graphviz (CDFG or buses)
//! mcs-hls explore  <design.mcs> --rates 4..8 --pin-budgets 48,48:32,32
//!                  [--flow simple|connect|schedule] [--jobs N]
//!                  [--out sweep.json] [--csv sweep.csv] [--no-prune]
//!                  [--explain]                   sweep the rate × budget
//!                  lattice, print the Pareto frontier report (--explain
//!                  adds the decision summary and the metrics table)
//! ```
//!
//! Designs use the textual format of [`mcs_cdfg::format`]. Benchmarks can
//! be exported for editing: `mcs-hls fmt` of any file is idempotent.

use std::process::ExitCode;
use std::sync::Arc;

use mcs_cdfg::{format, timing, Cdfg, PortMode};
use multichip_hls::explore::run_sweep;
use multichip_hls::explore_engine::{FlowVariant, SweepOptions, SweepSpec};
use multichip_hls::flows::{
    run, ConnectFirstOptions, FlowError, FlowSpec, RunContext, SynthesisResult, WarmStart,
};
use multichip_hls::metrics::{export as metrics_export, MetricsHandle, Registry};
use multichip_hls::netlist;
use multichip_hls::obs::{export, summary::summarize, BufferingRecorder, RecorderHandle};
use multichip_hls::report::{
    metrics_compatibility, render_interconnect, render_metrics, render_phase_summary,
    render_schedule, render_search_stats, render_trace_aggregates,
};
use multichip_hls::resynth::{self, resynth_flow_traced};
use multichip_hls::sim::{verify, Semantics, Stimulus};

struct Args {
    command: String,
    file: String,
    rate: u32,
    pipe: Option<i64>,
    flow: FlowVariant,
    bidir: bool,
    sharing: bool,
    instances: u32,
    seed: u64,
    chips: usize,
    pins: u32,
    buses: bool,
    workers: usize,
    portfolio: Option<usize>,
    branching: Option<usize>,
    budget: Option<usize>,
    deadline_ms: Option<u64>,
    max_pivots: Option<u64>,
    max_nodes: Option<u64>,
    pivot_budget: Option<usize>,
    trace_out: Option<String>,
    trace_format: String,
    metrics_out: Option<String>,
    metrics_format: String,
    metrics_in: Option<String>,
    out_result: Option<String>,
    prev: Option<String>,
    edit: Option<String>,
    rates: Option<String>,
    pin_budgets: Option<String>,
    jobs: usize,
    out: Option<String>,
    csv: Option<String>,
    no_prune: bool,
    explain: bool,
}

/// Most execution instances `simulate` drives. The stimulus and the
/// simulated firings grow with the count times the design's size; the
/// largest count any in-repo test or bench simulates is 16, and the
/// elliptic filter at this ceiling checks in about a second.
const MAX_INSTANCES: u32 = 4_096;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mcs-hls <check|synth|resynth|explain|simulate|rtl|fmt|partition|dot|explore> \
         <design.mcs> \
         [--rate N] [--flow simple|connect|schedule] [--pipe N] \
         [--bidir] [--sharing] [--instances N] [--seed N] \
         [--chips N] [--pins N] [--buses] \
         [--workers N] [--portfolio N] [--branching N] [--budget N] \
         [--deadline-ms N] [--max-pivots N] [--max-nodes N] \
         [--pivot-budget N] \
         [--trace-out FILE] [--trace-format chrome|jsonl] \
         [--metrics-out FILE] [--metrics-format json|prom] [--metrics-in FILE] \
         [--out-result FILE] [--prev FILE] [--edit SPEC] \
         [--rates A..B|A,B,C] [--pin-budgets V:V (V = P,P,..)] [--jobs N] \
         [--out FILE] [--csv FILE] [--no-prune] [--explain]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let file = args.next().ok_or_else(usage)?;
    let mut out = Args {
        command,
        file,
        rate: 1,
        pipe: None,
        flow: FlowVariant::ConnectFirst,
        bidir: false,
        sharing: false,
        instances: 8,
        seed: 1,
        chips: 2,
        pins: 64,
        buses: false,
        workers: 1,
        portfolio: None,
        branching: None,
        budget: None,
        deadline_ms: None,
        max_pivots: None,
        max_nodes: None,
        pivot_budget: None,
        trace_out: None,
        trace_format: "chrome".into(),
        metrics_out: None,
        metrics_format: "json".into(),
        metrics_in: None,
        out_result: None,
        prev: None,
        edit: None,
        rates: None,
        pin_budgets: None,
        jobs: 1,
        out: None,
        csv: None,
        no_prune: false,
        explain: false,
    };
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--rate" => {
                out.rate = next_value(&mut args, "--rate")?
                    .parse()
                    .map_err(|_| usage())?
            }
            "--pipe" => {
                out.pipe = Some(
                    next_value(&mut args, "--pipe")?
                        .parse()
                        .map_err(|_| usage())?,
                )
            }
            "--flow" => {
                let name = next_value(&mut args, "--flow")?;
                out.flow = FlowVariant::parse(&name).ok_or_else(|| {
                    eprintln!("unknown flow `{name}` (simple|connect|schedule)");
                    ExitCode::from(2)
                })?;
            }
            "--bidir" => out.bidir = true,
            "--sharing" => out.sharing = true,
            "--instances" => {
                out.instances = next_value(&mut args, "--instances")?
                    .parse()
                    .map_err(|_| usage())?;
                if out.instances > MAX_INSTANCES {
                    eprintln!("--instances is over the limit of {MAX_INSTANCES}");
                    return Err(usage());
                }
            }
            "--seed" => {
                out.seed = next_value(&mut args, "--seed")?
                    .parse()
                    .map_err(|_| usage())?
            }
            "--chips" => {
                out.chips = next_value(&mut args, "--chips")?
                    .parse()
                    .map_err(|_| usage())?
            }
            "--pins" => {
                out.pins = next_value(&mut args, "--pins")?
                    .parse()
                    .map_err(|_| usage())?
            }
            "--buses" => out.buses = true,
            "--workers" => {
                out.workers = next_value(&mut args, "--workers")?
                    .parse()
                    .map_err(|_| usage())?
            }
            "--portfolio" => {
                out.portfolio = Some(
                    next_value(&mut args, "--portfolio")?
                        .parse()
                        .map_err(|_| usage())?,
                )
            }
            "--branching" => {
                out.branching = Some(
                    next_value(&mut args, "--branching")?
                        .parse()
                        .map_err(|_| usage())?,
                )
            }
            "--budget" => {
                out.budget = Some(
                    next_value(&mut args, "--budget")?
                        .parse()
                        .map_err(|_| usage())?,
                )
            }
            "--deadline-ms" => {
                out.deadline_ms = Some(
                    next_value(&mut args, "--deadline-ms")?
                        .parse()
                        .map_err(|_| usage())?,
                )
            }
            "--max-pivots" => {
                out.max_pivots = Some(
                    next_value(&mut args, "--max-pivots")?
                        .parse()
                        .map_err(|_| usage())?,
                )
            }
            "--max-nodes" => {
                out.max_nodes = Some(
                    next_value(&mut args, "--max-nodes")?
                        .parse()
                        .map_err(|_| usage())?,
                )
            }
            "--pivot-budget" => {
                out.pivot_budget = Some(
                    next_value(&mut args, "--pivot-budget")?
                        .parse()
                        .map_err(|_| usage())?,
                )
            }
            "--rates" => out.rates = Some(next_value(&mut args, "--rates")?),
            "--pin-budgets" => out.pin_budgets = Some(next_value(&mut args, "--pin-budgets")?),
            "--jobs" => {
                out.jobs = next_value(&mut args, "--jobs")?
                    .parse()
                    .map_err(|_| usage())?
            }
            "--out" => out.out = Some(next_value(&mut args, "--out")?),
            "--csv" => out.csv = Some(next_value(&mut args, "--csv")?),
            "--no-prune" => out.no_prune = true,
            "--explain" => out.explain = true,
            "--trace-out" => out.trace_out = Some(next_value(&mut args, "--trace-out")?),
            "--trace-format" => {
                out.trace_format = next_value(&mut args, "--trace-format")?;
                if !matches!(out.trace_format.as_str(), "chrome" | "jsonl") {
                    eprintln!("--trace-format must be `chrome` or `jsonl`");
                    return Err(usage());
                }
            }
            "--metrics-out" => out.metrics_out = Some(next_value(&mut args, "--metrics-out")?),
            "--metrics-in" => out.metrics_in = Some(next_value(&mut args, "--metrics-in")?),
            "--out-result" => out.out_result = Some(next_value(&mut args, "--out-result")?),
            "--prev" => out.prev = Some(next_value(&mut args, "--prev")?),
            "--edit" => out.edit = Some(next_value(&mut args, "--edit")?),
            "--metrics-format" => {
                out.metrics_format = next_value(&mut args, "--metrics-format")?;
                if !matches!(out.metrics_format.as_str(), "json" | "prom") {
                    eprintln!("--metrics-format must be `json` or `prom`");
                    return Err(usage());
                }
            }
            other => {
                eprintln!("unknown flag `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(out)
}

/// `--rates` value: an inclusive range `A..B` or a comma list `A,B,C`.
fn parse_rates(s: &str) -> Option<Vec<u32>> {
    if let Some((lo, hi)) = s.split_once("..") {
        let lo: u32 = lo.trim().parse().ok()?;
        let hi: u32 = hi.trim().parse().ok()?;
        if lo == 0 || lo > hi {
            return None;
        }
        Some((lo..=hi).collect())
    } else {
        s.split(',').map(|t| t.trim().parse().ok()).collect()
    }
}

/// `--pin-budgets` value: colon-separated budget vectors, each a comma
/// list with one entry per chip — `48,48:32,32` is two 2-chip vectors.
fn parse_budgets(s: &str) -> Option<Vec<Vec<u32>>> {
    s.split(':')
        .map(|v| v.split(',').map(|t| t.trim().parse().ok()).collect())
        .collect()
}

fn load(path: &str) -> Result<mcs_cdfg::designs::Design, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::FAILURE
    })?;
    format::parse(&text).map_err(|e| {
        eprintln!("{path}:{e}");
        ExitCode::FAILURE
    })
}

/// The metrics registry backing `--metrics-out` (and the `explain`
/// metrics table): a real monotonic clock, so span wall times and
/// latency histograms are meaningful.
fn metrics_registry(a: &Args) -> Option<std::sync::Arc<Registry>> {
    a.metrics_out.as_ref().map(|_| Arc::new(Registry::new()))
}

/// The event buffer backing `--trace-out`.
fn trace_buffer(a: &Args) -> Option<Arc<BufferingRecorder>> {
    a.trace_out
        .as_ref()
        .map(|_| Arc::new(BufferingRecorder::new()))
}

/// The one telemetry handle of a command: `reg` as its registry and
/// `buf` as its decision-event sink, each when present.
fn telemetry(reg: Option<&Arc<Registry>>, buf: Option<&Arc<BufferingRecorder>>) -> MetricsHandle {
    let metrics = reg.map_or_else(MetricsHandle::default, |r| MetricsHandle::new(r.clone()));
    match buf {
        Some(b) => metrics.with_events(&RecorderHandle::new(b.clone())),
        None => metrics,
    }
}

/// Writes the metrics snapshot to `path` in the requested format.
fn write_metrics(reg: &Registry, a: &Args, path: &str) -> Result<(), ExitCode> {
    let snap = reg.snapshot();
    let text = match a.metrics_format.as_str() {
        "prom" => metrics_export::to_prometheus(&snap),
        _ => metrics_export::to_json(&snap),
    };
    std::fs::write(path, text).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::FAILURE
    })?;
    eprintln!(
        "metrics: {} counters, {} histograms, {} spans ({}) -> {path}",
        snap.counters.len(),
        snap.histograms.len(),
        snap.profile.len(),
        a.metrics_format
    );
    Ok(())
}

/// The execution budget described by `--deadline-ms`/`--max-pivots`/
/// `--max-nodes`, or `None` when no ceiling was requested.
fn ctl_budget(a: &Args) -> Option<mcs_ctl::Budget> {
    if a.deadline_ms.is_none() && a.max_pivots.is_none() && a.max_nodes.is_none() {
        return None;
    }
    let mut spec = mcs_ctl::BudgetSpec::default();
    if let Some(ms) = a.deadline_ms {
        spec = spec.deadline_ms(ms);
    }
    if let Some(n) = a.max_pivots {
        spec = spec.max_pivots(n);
    }
    if let Some(n) = a.max_nodes {
        spec = spec.max_nodes(n);
    }
    Some(mcs_ctl::Budget::new(spec))
}

/// The one flow spec of a command: `--flow` with its knobs.
fn flow_spec(a: &Args) -> FlowSpec {
    let mode = if a.bidir {
        PortMode::Bidirectional
    } else {
        PortMode::Unidirectional
    };
    match a.flow {
        FlowVariant::Simple => FlowSpec::Simple {
            rate: a.rate,
            pivot_budget: a.pivot_budget,
        },
        FlowVariant::ConnectFirst => {
            let mut opts = ConnectFirstOptions::new(a.rate);
            opts.mode = mode;
            opts.sharing = a.sharing;
            opts.workers = a.workers;
            opts.portfolio = a.portfolio;
            opts.branching_factor = a.branching;
            opts.node_budget = a.budget;
            FlowSpec::Connect(opts)
        }
        FlowVariant::ScheduleFirst => FlowSpec::Schedule {
            rate: a.rate,
            pipe_length: a.pipe,
            mode,
        },
    }
}

/// Runs the command's flow under `budget`. `Ok(Some(result))` is a full
/// synthesis; `Ok(None)` means the budget tripped first — the anytime
/// summary (verdict, best partial connection) has already been printed
/// and the process should exit 0: an interruption is a successful
/// interaction with the tool, not a synthesis failure.
fn synthesize_within(
    cdfg: &Cdfg,
    a: &Args,
    metrics: &MetricsHandle,
    budget: Option<mcs_ctl::Budget>,
) -> Result<Option<SynthesisResult>, ExitCode> {
    let spec = flow_spec(a);
    if budget.is_some() && matches!(spec, FlowSpec::Schedule { .. }) {
        eprintln!(
            "note: the schedule flow has no interruption points; \
             --deadline-ms/--max-pivots/--max-nodes are ignored"
        );
    }
    let ctx = RunContext {
        budget,
        metrics: metrics.clone(),
        warm: WarmStart::default(),
    };
    let out = run(cdfg, &spec, &ctx);
    match out.result {
        Ok(r) => {
            if out.termination != mcs_ctl::Termination::Complete {
                eprintln!("note: degraded result ({})", out.termination);
            }
            Ok(Some(r))
        }
        Err(FlowError::Interrupted(t)) => {
            println!("synthesis interrupted ({t})");
            println!(
                "best-so-far: {} of {} transfers placed on {} buses",
                out.best_depth,
                cdfg.io_ops().count(),
                out.best_buses,
            );
            if let Some(st) = &out.search_stats {
                println!(
                    "search: {} nodes over {} epochs ({} threads) before interruption",
                    st.nodes, st.epochs, st.threads,
                );
            }
            Ok(None)
        }
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// [`synthesize_within`] without an execution budget, so the flow always
/// reaches a verdict.
fn synthesize(cdfg: &Cdfg, a: &Args, metrics: &MetricsHandle) -> Result<SynthesisResult, ExitCode> {
    synthesize_within(cdfg, a, metrics, None)?.ok_or(ExitCode::FAILURE)
}

/// Exports the recorded trace to `path` in the requested format and
/// reports what was written (and whether the buffer overflowed).
fn write_trace(buf: &BufferingRecorder, a: &Args, path: &str) -> Result<(), ExitCode> {
    let timed = buf.timed_events();
    let text = match a.trace_format.as_str() {
        "jsonl" => export::jsonl(&timed),
        _ => export::chrome_trace(&timed),
    };
    std::fs::write(path, text).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::FAILURE
    })?;
    eprintln!(
        "trace: {} events ({}) -> {path}",
        timed.len(),
        a.trace_format
    );
    if buf.dropped() > 0 {
        eprintln!("trace: {} events dropped at capacity", buf.dropped());
    }
    Ok(())
}

/// Writes a saved-result JSON (the `resynth --prev` input format),
/// keyed by the design's structural digest.
fn write_result(cdfg: &Cdfg, r: &SynthesisResult, path: &str) -> Result<(), ExitCode> {
    let text = resynth::result_to_json(mcs_cdfg::fuzz::design_digest(cdfg), r);
    std::fs::write(path, &text).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::FAILURE
    })?;
    eprintln!("result: {} bytes -> {path}", text.len());
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let design = match load(&a.file) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let cdfg = design.cdfg();

    match a.command.as_str() {
        "check" => {
            println!(
                "{}: {} partitions, {} functional ops, {} transfers, {} edges",
                design.name(),
                cdfg.partition_count() - 1,
                cdfg.func_ops().count(),
                cdfg.io_ops().count(),
                cdfg.edges().len(),
            );
            println!(
                "minimum initiation rate: {}",
                timing::min_initiation_rate(cdfg)
            );
            ExitCode::SUCCESS
        }
        "fmt" => {
            print!("{}", format::write(cdfg));
            ExitCode::SUCCESS
        }
        "synth" => {
            let buf = trace_buffer(&a);
            let reg = metrics_registry(&a);
            let metrics = telemetry(reg.as_ref(), buf.as_ref());
            let r = match synthesize_within(cdfg, &a, &metrics, ctl_budget(&a)) {
                Ok(r) => r,
                Err(code) => return code,
            };
            // Interrupted or not, the trace and metrics are flushed.
            if let (Some(buf), Some(path)) = (&buf, &a.trace_out) {
                if let Err(code) = write_trace(buf, &a, path) {
                    return code;
                }
            }
            if let (Some(reg), Some(path)) = (&reg, &a.metrics_out) {
                if let Err(code) = write_metrics(reg, &a, path) {
                    return code;
                }
            }
            // Interrupted: the anytime summary is printed; exit cleanly.
            let Some(r) = r else {
                return ExitCode::SUCCESS;
            };
            if let Some(path) = &a.out_result {
                if let Err(code) = write_result(cdfg, &r, path) {
                    return code;
                }
            }
            println!(
                "pipe length: {} control steps at rate {}",
                r.pipe_length, a.rate
            );
            println!("pins used:   {:?}", r.pins_used);
            println!();
            println!("{}", render_schedule(cdfg, &r.schedule));
            println!("{}", render_interconnect(cdfg, &r.final_interconnect()));
            if let Some(stats) = &r.search_stats {
                println!(
                    "connection search: {} nodes in {:.1} ms over {} epochs \
                     ({:.0} nodes/s, {} threads, {} prunes, {} backtracks)",
                    stats.nodes,
                    stats.wall.as_secs_f64() * 1e3,
                    stats.epochs,
                    stats.nodes_per_sec(),
                    stats.threads,
                    stats.prunes,
                    stats.backtracks,
                );
                println!("{}", render_search_stats(stats));
            }
            ExitCode::SUCCESS
        }
        "explain" => {
            if let Some(path) = &a.metrics_in {
                // Render a previously saved metrics file instead of
                // synthesizing. A file written by a different mcs-hls
                // version may sample none of this binary's metric
                // families; diagnose the name mismatch instead of
                // rendering an empty table.
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let snap = match metrics_export::from_json(&text) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{path}: not a metrics JSON file: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Some(diag) = metrics_compatibility(&snap) {
                    eprintln!("{path}: {diag}");
                    return ExitCode::FAILURE;
                }
                println!("{}", render_metrics(&snap));
                return ExitCode::SUCCESS;
            }
            // Explain always runs traced and metered: the decision
            // summary and the metrics table below are the report, with
            // or without --trace-out/--metrics-out.
            let buf = Arc::new(BufferingRecorder::new());
            let reg = Arc::new(Registry::new());
            let r = match synthesize(cdfg, &a, &telemetry(Some(&reg), Some(&buf))) {
                Ok(r) => r,
                Err(code) => return code,
            };
            if let Some(path) = &a.trace_out {
                if let Err(code) = write_trace(&buf, &a, path) {
                    return code;
                }
            }
            if let Some(path) = &a.metrics_out {
                if let Err(code) = write_metrics(&reg, &a, path) {
                    return code;
                }
            }
            let summary = summarize(&buf.events());
            println!(
                "{}: pipe length {} at rate {} ({} flow, {} events recorded)",
                design.name(),
                r.pipe_length,
                a.rate,
                a.flow.as_str(),
                summary.total_events,
            );
            println!();
            println!("{}", render_phase_summary(&summary));
            println!("{}", render_trace_aggregates(&summary));
            println!("{}", render_metrics(&reg.snapshot()));
            ExitCode::SUCCESS
        }
        "resynth" => {
            let (Some(prev_path), Some(edit)) = (&a.prev, &a.edit) else {
                eprintln!("resynth needs --prev <saved-result.json> and --edit <delta spec>");
                return ExitCode::from(2);
            };
            let prev_text = match std::fs::read_to_string(prev_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{prev_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let saved = match resynth::result_from_json(&prev_text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{prev_path}: not a saved result: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let digest = mcs_cdfg::fuzz::design_digest(cdfg);
            if saved.design_digest != digest {
                eprintln!(
                    "{prev_path}: saved result is for design digest {:#018x}, \
                     but {} has digest {digest:#018x} — resynthesize with \
                     `mcs-hls synth {} --out-result` first",
                    saved.design_digest, a.file, a.file,
                );
                return ExitCode::FAILURE;
            }
            let delta = match mcs_cdfg::delta::DesignDelta::parse(edit) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("--edit: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let buf = trace_buffer(&a);
            let reg = metrics_registry(&a);
            let metrics = telemetry(reg.as_ref(), buf.as_ref());
            let no_recorder = RecorderHandle::default();
            let out = match resynth_flow_traced(cdfg, &saved.result, &delta, &no_recorder, &metrics)
            {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("resynthesis failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let (Some(buf), Some(path)) = (&buf, &a.trace_out) {
                if let Err(code) = write_trace(buf, &a, path) {
                    return code;
                }
            }
            if let (Some(reg), Some(path)) = (&reg, &a.metrics_out) {
                if let Err(code) = write_metrics(reg, &a, path) {
                    return code;
                }
            }
            if let Some(path) = &a.out_result {
                if let Err(code) = write_result(&out.cdfg, &out.result, path) {
                    return code;
                }
            }
            println!(
                "resynth path: {} (delta `{}`, digest {:#010x})",
                out.path,
                delta.spec(),
                delta.digest() as u32,
            );
            println!(
                "dirty region: {} ops, {} transfers, {} chips, {} step groups{}{}",
                out.dirty.ops.len(),
                out.dirty.transfers.len(),
                out.dirty.chips.len(),
                out.dirty.groups.len(),
                if out.dirty.rate_changed {
                    ", rate changed"
                } else {
                    ""
                },
                if out.dirty.structure_changed {
                    ", structure changed"
                } else {
                    ""
                },
            );
            println!(
                "reuse: {} assignments kept, {} re-derived; {} clean commits \
                 replayed, {} rollbacks ({} trail ops undone)",
                out.stats.reused_assignments,
                out.stats.fresh_assignments,
                out.stats.replayed_commits,
                out.stats.rollbacks,
                out.stats.trail_undone,
            );
            let r = &out.result;
            println!(
                "pipe length: {} control steps at rate {}",
                r.pipe_length, r.schedule.rate
            );
            println!("pins used:   {:?}", r.pins_used);
            println!();
            println!("{}", render_schedule(&out.cdfg, &r.schedule));
            println!(
                "{}",
                render_interconnect(&out.cdfg, &r.final_interconnect())
            );
            ExitCode::SUCCESS
        }
        "simulate" => {
            let r = match synthesize(cdfg, &a, &MetricsHandle::default()) {
                Ok(r) => r,
                Err(code) => return code,
            };
            let stim = Stimulus::random(cdfg, a.instances, a.seed);
            match verify(
                cdfg,
                &r.schedule,
                Some(&r.final_interconnect()),
                &Semantics::new(),
                &stim,
            ) {
                Ok(rep) => {
                    println!(
                        "OK: {} firings over {} instances; {} output words match the reference",
                        rep.fired,
                        a.instances,
                        rep.outputs.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(violations) => {
                    eprintln!("FAILED: {} dynamic violations", violations.len());
                    for v in violations.iter().take(10) {
                        eprintln!("  {v}");
                    }
                    ExitCode::FAILURE
                }
            }
        }
        "rtl" => {
            let r = match synthesize(cdfg, &a, &MetricsHandle::default()) {
                Ok(r) => r,
                Err(code) => return code,
            };
            let nl = netlist::build(cdfg, &r.schedule, &r.final_interconnect());
            print!("{}", netlist::to_verilog(&nl));
            ExitCode::SUCCESS
        }
        "dot" => {
            if a.buses {
                let r = match synthesize(cdfg, &a, &MetricsHandle::default()) {
                    Ok(r) => r,
                    Err(code) => return code,
                };
                print!(
                    "{}",
                    multichip_hls::connect::dot::to_dot(cdfg, &r.final_interconnect())
                );
            } else {
                print!("{}", mcs_cdfg::dot::to_dot(cdfg));
            }
            ExitCode::SUCCESS
        }
        "explore" => {
            let (Some(rates_s), Some(budgets_s)) = (&a.rates, &a.pin_budgets) else {
                eprintln!("explore needs --rates and --pin-budgets");
                return ExitCode::from(2);
            };
            let Some(rates) = parse_rates(rates_s) else {
                eprintln!("--rates must be `A..B` (inclusive, A >= 1) or `A,B,C`");
                return ExitCode::from(2);
            };
            let Some(budgets) = parse_budgets(budgets_s) else {
                eprintln!("--pin-budgets must be colon-separated comma lists, e.g. 48,48:32,32");
                return ExitCode::from(2);
            };
            let spec = SweepSpec {
                design: design.name().to_string(),
                flow: a.flow,
                rates,
                budgets,
            };
            // --explain runs traced and metered, like `explain`.
            let reg = (a.explain || a.metrics_out.is_some()).then(|| Arc::new(Registry::new()));
            let buf =
                (a.explain || a.trace_out.is_some()).then(|| Arc::new(BufferingRecorder::new()));
            let opts = SweepOptions {
                jobs: a.jobs.max(1),
                prune: !a.no_prune,
                budget: ctl_budget(&a),
                metrics: telemetry(reg.as_ref(), buf.as_ref()),
            };
            let report = match run_sweep(cdfg, &spec, &opts, &RecorderHandle::default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("explore failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let json = report.to_json();
            if let Err(e) = multichip_hls::codec::json::parse(&json) {
                eprintln!("internal error: sweep JSON failed strict validation: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(path) = &a.out {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                println!("{json}");
            }
            if let Some(path) = &a.csv {
                if let Err(e) = std::fs::write(path, report.to_csv()) {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let st = &report.stats;
            eprintln!(
                "explore: {} points ({} run, {} pruned, {} skipped): {} feasible, \
                 {} pin-infeasible, {} search-failed, {} errors; \
                 frontier {}; warm-start probe hits {}",
                st.points,
                st.run,
                st.pruned,
                st.skipped,
                st.feasible,
                st.pin_infeasible,
                st.search_failed,
                st.errors,
                report.frontier.len(),
                st.probe_seed_hits,
            );
            if st.termination != mcs_ctl::Termination::Complete {
                eprintln!(
                    "explore: interrupted ({}); the frontier covers the waves that ran",
                    st.termination
                );
            }
            for p in &report.frontier {
                eprintln!(
                    "  frontier: rate {} budget {:?} -> latency {} pins {} buses {}",
                    p.coord.rate,
                    report.spec.budgets[p.coord.budget_ix],
                    p.latency,
                    p.total_pins,
                    p.buses
                );
            }
            if let (Some(buf), Some(path)) = (&buf, &a.trace_out) {
                if let Err(code) = write_trace(buf, &a, path) {
                    return code;
                }
            }
            if let (Some(reg), Some(path)) = (&reg, &a.metrics_out) {
                if let Err(code) = write_metrics(reg, &a, path) {
                    return code;
                }
            }
            if let (true, Some(buf), Some(reg)) = (a.explain, &buf, &reg) {
                let summary = summarize(&buf.events());
                eprintln!();
                eprintln!("{}", render_phase_summary(&summary));
                eprintln!("{}", render_trace_aggregates(&summary));
                eprintln!("{}", render_metrics(&reg.snapshot()));
            }
            ExitCode::SUCCESS
        }
        "partition" => {
            use multichip_hls::partition::{refine, spread, Capacities, ChipSpec, FlatGraph};
            let flat = match FlatGraph::from_cdfg(cdfg) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot repartition: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let chips: Vec<mcs_cdfg::PartitionId> = (1..=a.chips as u32)
                .map(mcs_cdfg::PartitionId::new)
                .collect();
            let cap = flat.ops.len().div_ceil(a.chips) + 1;
            let caps = Capacities::balanced(cap);
            // Warm start from the original assignment when the chip count
            // matches; cold spread otherwise. Keep the better result.
            let cold = refine(&flat, &chips, &spread(&flat, &chips), &caps);
            let best = if cdfg.partition_count() - 1 == a.chips {
                let warm = refine(&flat, &chips, &flat.original_assignment(), &caps);
                if warm.final_cut <= cold.final_cut {
                    warm
                } else {
                    cold
                }
            } else {
                cold
            };
            eprintln!(
                "cut: {} bits -> {} bits over {} chips ({} passes)",
                flat.cut_bits(&flat.original_assignment()),
                best.final_cut,
                a.chips,
                best.passes,
            );
            let specs: Vec<ChipSpec> = (1..=a.chips)
                .map(|i| ChipSpec {
                    name: format!("P{i}"),
                    pins: a.pins,
                    resources: Vec::new(),
                })
                .collect();
            match multichip_hls::partition::rebuild(
                &flat,
                &best.assign,
                &specs,
                cdfg.library().clone(),
            ) {
                Ok(g) => {
                    print!("{}", format::write(&g));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("rebuild failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
