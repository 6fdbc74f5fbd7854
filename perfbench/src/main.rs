//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <design_suite|search_scale|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run from the repository root (it reads `examples/`). Each run sets
//! up its inputs from `--seed`, runs a fixed number of passes over a
//! fixed item list (the count scales with `--seconds`), checks every
//! output it timed, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. `--smoke` runs a
//! single pass. See `perfbench/README.md` for the workloads and metrics.

mod cpu;
mod flows;
mod heap;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// End-to-end metrics, printed by every untraced run: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_geomean_ms", "ms"),
    ("verified_ratio", "ratio"),
    ("quality_pipe_steps", "steps"),
    ("quality_pins", "pins"),
    ("quality_buses", "buses"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("connect.nodes", "count"),
    ("connect.self_ms", "ms"),
    ("connect.us_per_node", "us"),
    ("connect.cache_hits", "count"),
    ("sched.self_ms", "ms"),
    ("sched.fds_ms", "ms"),
    ("sched.place_attempts", "count"),
    ("rematch.augmentations", "count"),
    ("pinalloc.checker_new_us", "us"),
    ("probe.solver", "count"),
    ("probe.memo_hits", "count"),
    ("pinalloc.memo_hit_ratio", "ratio"),
    ("probe.exact_fallbacks", "count"),
    ("ilp.pivots", "count"),
    ("postsyn.self_ms", "ms"),
    ("cdfg.parse_us", "us"),
    ("cdfg.delta_apply_us", "us"),
    ("resynth.self_ms", "ms"),
    ("resynth.path.identical", "count"),
    ("resynth.path.patched", "count"),
    ("resynth.path.cold", "count"),
    ("resynth.replayed_commits", "count"),
    ("codec.result_json_us", "us"),
    ("explore.sweep_ms", "ms"),
    ("explore.run", "count"),
    ("explore.pruned", "count"),
    ("explore.seed_hits", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.handle_hit_us", "us"),
    ("serve.digest_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.hits.exact", "count"),
    ("serve.hits.seed", "count"),
    ("serve.misses", "count"),
    ("serve.rejected", "count"),
    ("sim.check_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("trace.connect_share", "ratio"),
    ("error_ratio", "ratio"),
];

/// Per-layer work counts each traced run must see nonzero, per
/// workload: the layers the workload exists to exercise. A counter the
/// program stops exporting (or renames) reads 0 and fails the run.
const NONZERO: &[(&str, &[&str])] = &[
    (
        "design_suite",
        &[
            "connect.nodes",
            "sched.place_attempts",
            "rematch.augmentations",
            "probe.solver",
            "ilp.pivots",
            "resynth.path.identical",
            "resynth.path.patched",
            "resynth.replayed_commits",
            "explore.run",
            "explore.pruned",
        ],
    ),
    ("search_scale", &["connect.nodes", "sched.place_attempts"]),
    (
        "serve_mix",
        &[
            "connect.nodes",
            "sched.place_attempts",
            "resynth.path.patched",
            "serve.hits.exact",
            "serve.hits.seed",
            "serve.misses",
        ],
    ),
];

/// Least share of `search_scale` flow time a traced run must charge to
/// the connect layer: the workload exists to measure the search.
const MIN_SEARCH_CONNECT_SHARE: f64 = 0.95;

/// The traced run's acceptance facts, as problems when one fails.
fn check_traced(workload: &str, out: &mut Outcome) {
    let required = NONZERO
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(&[][..], |(_, names)| names);
    for name in required {
        if out.layer.get(name).copied().unwrap_or(0.0) <= 0.0 {
            out.problem(format!("traced run counted no {name}"));
        }
    }
    if workload == "search_scale" {
        let share = out.layer.get("trace.connect_share").copied().unwrap_or(0.0);
        if share < MIN_SEARCH_CONNECT_SHARE {
            out.problem(format!(
                "connect holds only {share:.3} of search_scale flow time"
            ));
        }
    }
}

/// Parsed command line.
pub struct RunOpts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

impl RunOpts {
    /// The set-up schedule of a run of `passes` measured passes: the
    /// workload's `repeats`, once under `--smoke`.
    fn setup(&self, repeats: usize, passes: u32) -> Setup {
        Setup {
            total: if self.smoke { 1 } else { repeats.max(1) },
            slots: passes as usize + 1,
            next_slot: 0,
            cpu_s: Vec::new(),
        }
    }

    /// Measured passes: `--seconds` × the workload's nominal pass rate,
    /// rounded, at least two; one (or one of each kind when traced)
    /// under `--smoke`. Even when traced, so untraced and traced passes
    /// pair up.
    fn passes(&self, per_second: f64) -> u32 {
        let n = if self.smoke {
            1
        } else {
            ((self.seconds as f64 * per_second).round() as u32).max(2)
        };
        if self.trace {
            (n.div_ceil(2) * 2).max(2)
        } else {
            n
        }
    }
}

/// Set-up repeats spread evenly over a run: the first slot comes before
/// the warm-up, one more before each measured pass. `setup_s` is the
/// fastest repeat, so, like the per-item minima, it catches the host's
/// quiet moments wherever in the run they fall.
pub struct Setup {
    total: usize,
    slots: usize,
    next_slot: usize,
    /// CPU seconds of each repeat so far.
    cpu_s: Vec<f64>,
}

impl Setup {
    /// Runs the repeats due in the next slot (at least one in the first)
    /// and returns the last one's result.
    fn run<T>(
        &mut self,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let (s, t, n) = (self.next_slot, self.total, self.slots);
        let due = ((s + 1) * t).div_ceil(n) - (s * t).div_ceil(n);
        self.next_slot += 1;
        let mut last = None;
        for _ in 0..due {
            let cpu = cpu::process_cpu_s();
            let built = build()?;
            self.cpu_s.push(cpu::process_cpu_s() - cpu);
            last = Some(built);
        }
        Ok(last)
    }

    /// The fastest repeat, in CPU seconds.
    fn fastest(&self) -> f64 {
        stats::min(&self.cpu_s)
    }
}

/// What a workload run measured and checked.
pub struct Outcome {
    setup_s: f64,
    attempted: u64,
    verified: u64,
    errored: u64,
    problems: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    /// Fields that must repeat exactly for one seed (the determinism
    /// self-check compares them across invocations).
    deterministic: Vec<(String, String)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            setup_s: 0.0,
            attempted: 0,
            verified: 0,
            errored: 0,
            problems: Vec::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            deterministic: Vec::new(),
        }
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < 50 {
            self.problems.push(p);
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <design_suite|search_scale|serve_mix> --seed <n> \
         --seconds <s> --trace <0|1> [--smoke]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<RunOpts> {
    let mut opts = RunOpts {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => opts.smoke = true,
            "--workload" => opts.workload = args.next()?,
            "--seed" => opts.seed = args.next()?.parse().ok()?,
            "--seconds" => opts.seconds = args.next()?.parse().ok()?,
            "--trace" => {
                opts.trace = match args.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(opts)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // `+ 0.0` turns a negative zero (an empty float sum) into 0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else {
        return usage();
    };
    let result = match opts.workload.as_str() {
        "design_suite" | "search_scale" => flows::run(&opts.workload, &opts),
        "serve_mix" => serve::run(&opts),
        _ => return usage(),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    if opts.trace {
        check_traced(&opts.workload, &mut out);
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let attempted = out.attempted.max(1);
    out.e2e.insert("setup_s", out.setup_s);
    out.e2e
        .insert("verified_ratio", out.verified as f64 / attempted as f64);
    out.e2e.insert("peak_heap_mb", heap::peak_mb());
    out.layer
        .insert("error_ratio", out.errored as f64 / attempted as f64);

    let mut metrics = Vec::new();
    if opts.trace {
        for &(name, unit) in PER_LAYER {
            let value = out.layer.get(name).copied().unwrap_or(0.0);
            metrics.push(json_metric(name, value, unit));
        }
    } else {
        for &(name, unit) in END_TO_END {
            let Some(&value) = out.e2e.get(name) else {
                eprintln!("perfbench: {} did not measure {name}", opts.workload);
                return ExitCode::FAILURE;
            };
            metrics.push(json_metric(name, value, unit));
        }
    }
    let deterministic: Vec<String> = out
        .deterministic
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!(
        "perfbench-deterministic {} seed={} {}",
        opts.workload,
        opts.seed,
        deterministic.join(" ")
    );
    let correct = out.problems.is_empty() && out.attempted > 0 && out.verified == out.attempted;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.attempted - out.verified,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
