//! Coverage-directed fuzzing of the synthesis pipeline: seeded random
//! CDFGs driven through the three differential oracles of
//! [`multichip_hls::differential`], with a checked-in corpus of minimized
//! reproducers for every bug the fuzzer has found.
//!
//! Everything here is deterministic — fixed seeds, fixed knobs — so a
//! divergence is a regression, never flake. The corpus files under
//! `tests/corpus/` carry their provenance as `#` comments; each replays
//! through the full flow differential and must stay green.

use std::sync::Arc;

use mcs_cdfg::designs::elliptic;
use mcs_cdfg::fuzz::{
    build_design, design_digest, design_from_seed, design_stats, genome_from_seed, genomes,
    DesignStats, FuzzConfig,
};
use mcs_cdfg::{format, timing, Cdfg, PartitionId, PortMode};
use mcs_ctl::{Budget, BudgetSpec};
use mcs_explore::{FlowVariant, PointStatus};
use mcs_metrics::{MetricsHandle, Registry};
use mcs_pinalloc::{PinChecker, DEFAULT_PIVOT_BUDGET};
use multichip_hls::differential::{
    anytime_differential, explain_differential, flow_differential, flow_differential_with_ports,
    probe_differential, sim_differential, ExplainDisagreement,
};
use multichip_hls::explore::{failure_status, point_spec, run_point, with_pin_budgets};
use multichip_hls::flows::{run, simple_flow, FlowError, FlowSpec, RunContext};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Sweep width of the flow-differential test: `MCS_FUZZ_SEEDS` overrides
/// the default 500, which is how the nightly CI job runs the same oracle
/// over 5000 seeds without a separate test.
fn fuzz_seeds() -> u64 {
    std::env::var("MCS_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

/// Oracle (a): seeded designs through all three flows (500 by default;
/// see [`fuzz_seeds`]). Proof-strength agreement must hold on every one,
/// and at the default width the verdict-combination histogram is locked
/// exactly so a heuristic change that silently drains the feasible (or
/// infeasible) population shows up as a diff, not as a quietly weaker
/// fuzzer.
#[test]
fn flow_differential_sweep_agrees_on_500_seeds() {
    let config = FuzzConfig::default();
    let seeds = fuzz_seeds();
    let mut combos: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for seed in 0..seeds {
        let design = design_from_seed(&config, seed);
        let d = flow_differential(design.cdfg());
        assert!(
            d.disagreements.is_empty(),
            "seed {seed}: flows disagree: {:?}",
            d.disagreements
        );
        let combo = format!(
            "{}/{}/{}",
            d.simple.tag(),
            d.connect.tag(),
            d.schedule_first.tag()
        );
        *combos.entry(combo).or_default() += 1;
    }
    // The histogram lock only applies at the default width; a widened
    // nightly sweep proves agreement but has its own distribution.
    if seeds == 500 {
        let locked: Vec<(&str, usize)> = combos.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        assert_eq!(
            locked,
            vec![
                ("feasible/feasible/feasible", 68),
                ("infeasible/unknown/feasible", 408),
                ("skipped/feasible/feasible", 6),
                ("unknown/feasible/feasible", 2),
                ("unknown/unknown/feasible", 16),
            ],
            "verdict distribution drifted"
        );
    }
}

/// Oracle (b): the cycle-accurate engine against the untimed reference
/// under seeded stimulus, for at least 100 designs that synthesize.
#[test]
fn sim_differential_sweep_agrees_on_100_designs() {
    let config = FuzzConfig::default();
    let mut ran = 0usize;
    let mut outputs = 0usize;
    for seed in 0..300u64 {
        if ran >= 120 {
            break;
        }
        let design = design_from_seed(&config, seed);
        if let Some(sd) = sim_differential(design.cdfg(), 3, seed ^ 0x5eed) {
            ran += 1;
            outputs += sd.outputs;
            assert!(
                sd.mismatches.is_empty(),
                "seed {seed} ({} flow): engine vs reference diverged: {:?}",
                sd.flow,
                sd.mismatches
            );
        }
    }
    assert!(ran >= 100, "only {ran} designs produced an implementation");
    // Drift-lock: same seeds, same stimulus, same outputs compared.
    assert_eq!((ran, outputs), (120, 803), "sim coverage drifted");
}

/// Oracle (c): trail-based probes verdict-identical to the clone oracle
/// under fuzzed pivot budgets, and budgeted runs are anytime prefixes.
#[test]
fn probe_and_anytime_contracts_hold() {
    let config = FuzzConfig::default();
    let mut probes = 0usize;
    let mut checks = 0usize;
    for seed in 0..40u64 {
        let design = design_from_seed(&config, seed);
        let rate = timing::min_initiation_rate(design.cdfg()).max(1);
        // Tiny budgets force the exact fallback on one side or the other;
        // the huge one exercises the pure-Gomory path.
        if let Ok(pd) = probe_differential(design.cdfg(), rate, &[2, 16, 4096]) {
            probes += pd.probes;
            assert!(
                pd.mismatches.is_empty(),
                "seed {seed}: trail vs clone diverged: {:?}",
                pd.mismatches
            );
        }
        let ad = anytime_differential(design.cdfg(), rate);
        checks += ad.checks;
        assert!(
            ad.violations.is_empty(),
            "seed {seed}: anytime contract broken: {:?}",
            ad.violations
        );
    }
    assert_eq!(
        (probes, checks),
        (324, 305),
        "probe/anytime coverage drifted"
    );
}

/// The order a sweep point or serve job used to run in, kept as the
/// reference for [`run_point`]: the exact pin gate in front of the flow,
/// then the flow, then the pin-budget check of its result.
fn gate_then_run(
    cdfg: &Cdfg,
    flow: FlowVariant,
    rate: u32,
    ctx: &RunContext,
) -> (PointStatus, String) {
    if let Err(e) = PinChecker::with_context(
        cdfg,
        rate,
        DEFAULT_PIVOT_BUDGET,
        ctx.budget.clone(),
        &MetricsHandle::default(),
    ) {
        return failure_status(&e.into());
    }
    let result = match run(cdfg, &point_spec(flow, rate), ctx).result {
        Ok(result) => result,
        Err(e) => return failure_status(&e),
    };
    let budget = |p: usize| cdfg.partition(PartitionId::new(p as u32)).total_pins;
    let over: Vec<String> = result
        .pins_used
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(p, &used)| used > budget(p))
        .map(|(p, used)| format!("chip {p} uses {used} > {}", budget(p)))
        .collect();
    if over.is_empty() {
        (PointStatus::Feasible, String::new())
    } else {
        (
            PointStatus::SearchFailed,
            format!("over budget: {}", over.join(", ")),
        )
    }
}

/// Pivot ceiling of each side of the point-runner equivalence: a
/// deterministic stand-in for a deadline that keeps the exact
/// branch-and-bound on the slowest fuzz designs short.
const EQUIVALENCE_MAX_PIVOTS: u64 = 1_000;

/// Runs one point both ways and demands the same status and detail;
/// returns the status, or `None` when either side's ceiling tripped.
fn runner_matches_gate_then_run(
    what: &str,
    cdfg: &Cdfg,
    flow: FlowVariant,
    rate: u32,
) -> Option<PointStatus> {
    let ctx = || RunContext {
        budget: Some(Budget::new(
            BudgetSpec::default().max_pivots(EQUIVALENCE_MAX_PIVOTS),
        )),
        ..RunContext::default()
    };
    let (reference_ctx, runner_ctx) = (ctx(), ctx());
    let reference = gate_then_run(cdfg, flow, rate, &reference_ctx);
    let point = run_point(cdfg, flow, rate, &runner_ctx).point;
    let tripped = |c: &RunContext| c.budget.as_ref().is_some_and(|b| b.verdict().is_some());
    if tripped(&reference_ctx) || tripped(&runner_ctx) {
        return None;
    }
    assert_eq!(
        (point.status, point.detail.as_str()),
        (Some(reference.0), reference.1.as_str()),
        "{what}, {} at rate {rate}",
        flow.as_str()
    );
    Some(reference.0)
}

/// The point runner solves the exact pin ILP only to explain a failed
/// flow, where sweep points and serve jobs used to solve it first. Over
/// fuzz seeds at L2–4 (a twenty-fifth of the [`fuzz_seeds`] width), the
/// elliptic filter's 4..8 × 4-vector lattice and `wide_sweep.mcs`'s
/// 2..6 × 4-vector lattice, the elliptic filter under tight environment
/// budgets and the two corpus designs with a 4- or 5-pin environment, for
/// both flows the gate used to front, every point's status and detail
/// must match the old order. Pairs where either
/// side's pivot ceiling tripped are skipped.
#[test]
fn point_runner_matches_gate_then_run() {
    let flows = [FlowVariant::ConnectFirst, FlowVariant::ScheduleFirst];
    let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    let mut tally = |status: Option<PointStatus>| {
        *seen
            .entry(status.map_or("skipped", PointStatus::as_str))
            .or_default() += 1;
    };
    let config = FuzzConfig::default();
    for seed in 0..fuzz_seeds() / 25 {
        let design = design_from_seed(&config, seed);
        for rate in 2..=4 {
            for flow in flows {
                let what = format!("fuzz seed {seed}");
                tally(runner_matches_gate_then_run(
                    &what,
                    design.cdfg(),
                    flow,
                    rate,
                ));
            }
        }
    }
    let ell = elliptic::partitioned();
    let ell_budgets = [
        [48, 48, 64, 48, 48],
        [32, 48, 64, 48, 48],
        [24, 32, 48, 32, 32],
        [16, 16, 16, 16, 16],
    ];
    for budget in ell_budgets {
        let cdfg = with_pin_budgets(ell.cdfg(), &budget);
        for rate in 4..=8 {
            for flow in flows {
                let what = format!("elliptic {budget:?}");
                tally(runner_matches_gate_then_run(&what, &cdfg, flow, rate));
            }
        }
    }
    let wide_text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/designs/wide_sweep.mcs"),
    )
    .expect("wide_sweep.mcs is readable");
    let wide = format::parse(&wide_text).expect("wide_sweep.mcs parses");
    for budget in [[64, 64], [48, 48], [32, 32], [16, 16]] {
        let cdfg = with_pin_budgets(wide.cdfg(), &budget);
        for rate in 2..=6 {
            for flow in flows {
                let what = format!("wide_sweep {budget:?}");
                tally(runner_matches_gate_then_run(&what, &cdfg, flow, rate));
            }
        }
    }
    // Tight environment budgets. The ILP limits the environment's pins
    // too, and the Chapter 5 flow never reads a budget, so its result can
    // fit every chip and still overrun the environment: such a point
    // needs the explanation, not the witness.
    let mut env_infeasible = 0;
    for env in [8, 16, 24] {
        for budget in [[128; 5], ell_budgets[0]] {
            let mut cdfg = with_pin_budgets(ell.cdfg(), &budget);
            cdfg.partition_mut(PartitionId::new(0)).total_pins = env;
            for rate in 4..=8 {
                for flow in flows {
                    let what = format!("elliptic {budget:?}, envpins {env}");
                    let status = runner_matches_gate_then_run(&what, &cdfg, flow, rate);
                    env_infeasible += usize::from(status == Some(PointStatus::PinInfeasible));
                    tally(status);
                }
            }
        }
    }
    assert!(
        env_infeasible > 0,
        "no environment-bound pin-infeasible point"
    );
    for name in [
        "finding2_postsyn_cover_gap.mcs",
        "finding2_postsyn_cover_gap_b.mcs",
    ] {
        let text = std::fs::read_to_string(corpus_dir().join(name)).expect("corpus file");
        let parsed = format::parse(&text).expect("corpus file parses");
        for rate in 1..=4 {
            for flow in flows {
                tally(runner_matches_gate_then_run(
                    name,
                    parsed.cdfg(),
                    flow,
                    rate,
                ));
            }
        }
    }
    // Both branches of the runner ran: the witness and the explanation.
    for status in ["feasible", "pin-infeasible", "search-failed"] {
        assert!(
            seen.get(status).is_some_and(|&n| n > 0),
            "no {status} point: {seen:?}"
        );
    }
    eprintln!("point runner vs gate-then-run: {seen:?}");
}

/// Whether some value has two transfers into one partition. The exact
/// pin ILP gives each transfer its own pins, while a flow carries such
/// transfers in one slot when they share a step, so on these designs the
/// ILP can refute a system a flow implements.
fn repeats_a_transfer(cdfg: &Cdfg) -> bool {
    cdfg.io_ops_by_value().values().any(|ops| {
        let mut dests: Vec<_> = ops
            .iter()
            .filter_map(|&op| cdfg.op(op).io_endpoints().map(|(_, _, to)| to))
            .collect();
        let n = dests.len();
        dests.sort_unstable();
        dests.dedup();
        dests.len() < n
    })
}

/// Oracle (d): the point runner's two explanation certificates against
/// the exact pin ILP, over the uniform and nightly profiles (a
/// twenty-fifth and a fiftieth of the [`fuzz_seeds`] width) at L2–4 with
/// every chip's budget at 100, 70, 50 and 35 % of its own. The counting
/// bound may never refute a feasible ILP or a system a unidirectional
/// flow implemented within its budgets, and the greedy witness may never
/// pack an infeasible one. The ILP may never refute a system that a
/// unidirectional flow implemented within its budgets, except on a
/// design that repeats a transfer ([`repeats_a_transfer`]), a gap of the
/// ILP itself: those systems are counted, and at the default width the
/// count is locked. Systems whose exact solve trips its pivot ceiling are
/// skipped; each of the three comparisons must have run at least once.
#[test]
fn explanation_certificates_agree_with_the_exact_ilp() {
    let mut ran = std::collections::BTreeMap::<&str, usize>::new();
    let profiles = [
        ("uniform", FuzzConfig::default(), fuzz_seeds() / 25),
        ("nightly", FuzzConfig::nightly(), fuzz_seeds() / 50),
    ];
    for (profile, config, seeds) in profiles {
        for seed in 0..seeds {
            let design = design_from_seed(&config, seed);
            let repeats = repeats_a_transfer(design.cdfg());
            let native: Vec<u32> = (1..design.cdfg().partition_count())
                .map(|p| {
                    design
                        .cdfg()
                        .partition(PartitionId::new(p as u32))
                        .total_pins
                })
                .collect();
            for percent in [100, 70, 50, 35] {
                let budget: Vec<u32> = native
                    .iter()
                    .map(|&n| (u64::from(n) * percent / 100) as u32)
                    .collect();
                let cdfg = with_pin_budgets(design.cdfg(), &budget);
                for rate in 2..=4 {
                    let Ok(d) = explain_differential(&cdfg, rate, EQUIVALENCE_MAX_PIVOTS) else {
                        continue;
                    };
                    let (gap, other): (Vec<_>, Vec<_>) = d
                        .disagreements
                        .iter()
                        .partition(|&e| repeats && *e == ExplainDisagreement::ExactAgainstFlow);
                    assert!(
                        other.is_empty(),
                        "{profile} seed {seed}, budgets {budget:?}, rate {rate}: {other:?}"
                    );
                    if !gap.is_empty() {
                        eprintln!(
                            "{profile} seed {seed}, budgets {budget:?}, rate {rate}: {}",
                            gap[0]
                        );
                        *ran.entry("ilp-gap").or_default() += 1;
                    }
                    if d.exact.is_none() {
                        *ran.entry("skipped").or_default() += 1;
                        continue;
                    }
                    for (branch, hit) in [
                        ("refuted", d.refuted),
                        ("witnessed", d.witnessed),
                        ("flow-feasible", d.flow_feasible),
                        ("undecided", !d.refuted && !d.witnessed),
                    ] {
                        *ran.entry(branch).or_default() += usize::from(hit);
                    }
                }
            }
        }
    }
    for branch in ["refuted", "witnessed", "flow-feasible"] {
        assert!(
            ran.get(branch).is_some_and(|&n| n > 0),
            "the {branch} comparison never ran: {ran:?}"
        );
    }
    if fuzz_seeds() == 500 {
        assert_eq!(ran.get("ilp-gap"), Some(&2), "{ran:?}");
    }
    eprintln!("explanation certificates vs exact ILP: {ran:?}");
}

/// The nightly deep-sweep profile re-runs the flow oracle with the TDM
/// selector weighted 4-of-11 and three of every four seeds scheduling
/// bidirectionally — the Chapter 7.3/Chapter 4 corners the uniform
/// default weights under-exercise. Agreement must hold on every seed,
/// and at the default width the verdict histogram and port-mode tally
/// are locked just like the uniform sweep's.
#[test]
fn nightly_flow_differential_sweep_agrees_with_weighted_ports() {
    let nightly = FuzzConfig::nightly();
    // 150 seeds by default; the nightly job widens both sweeps through
    // the same MCS_FUZZ_SEEDS knob (500 -> 150, 5000 -> 1500).
    let seeds = fuzz_seeds() * 3 / 10;
    let mut combos: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut bidir = 0usize;
    for seed in 0..seeds {
        let design = design_from_seed(&nightly, seed);
        let ports = nightly.port_mode(seed);
        if ports == PortMode::Bidirectional {
            bidir += 1;
        }
        let d = flow_differential_with_ports(design.cdfg(), ports);
        assert!(
            d.disagreements.is_empty(),
            "nightly seed {seed} ({ports:?}): flows disagree: {:?}",
            d.disagreements
        );
        let combo = format!(
            "{}/{}/{}",
            d.simple.tag(),
            d.connect.tag(),
            d.schedule_first.tag()
        );
        *combos.entry(combo).or_default() += 1;
    }
    if seeds == 150 {
        assert_eq!(bidir, 113, "port-mode schedule drifted");
        let locked: Vec<(&str, usize)> = combos.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        assert_eq!(
            locked,
            vec![
                ("feasible/feasible/feasible", 13),
                ("infeasible/unknown/feasible", 128),
                ("unknown/feasible/feasible", 2),
                ("unknown/unknown/feasible", 7),
            ],
            "nightly verdict distribution drifted"
        );
    }
}

/// Population drift-lock for the nightly profile, mirroring
/// [`generated_distribution_is_locked`]: the weighted wheel must
/// actually shift mass into TDM round-trips (the default profile
/// produces 105 splits over the same 200 seeds) without disturbing any
/// other generation axis' order of magnitude.
#[test]
fn nightly_distribution_is_locked_and_tdm_heavy() {
    let nightly = FuzzConfig::nightly();
    let mut agg = DesignStats::default();
    for seed in 0..200u64 {
        agg.absorb(&design_stats(design_from_seed(&nightly, seed).cdfg()));
    }
    assert!(agg.splits > 105, "nightly profile is not TDM-heavier");
    assert_eq!(agg.splits, agg.merges, "unbalanced TDM round-trips");
    assert_eq!(agg.ops, 3104);
    assert_eq!(agg.func_ops, 678);
    assert_eq!(agg.io_ops, 1768);
    assert_eq!(agg.splits, 329);
    // Chip counts are decided by the genome alone, so the weighted wheel
    // must leave them exactly at the default profile's 387.
    assert_eq!(agg.chips, 387);
    assert_eq!(agg.guarded_ops, 598);
    assert_eq!(agg.recursive_edges, 198);
    let mix: Vec<(&str, usize)> = agg
        .class_mix
        .iter()
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    assert_eq!(
        mix,
        vec![("*", 129), ("+", 310), ("-", 106), ("alu", 133)],
        "nightly op-kind mix drifted"
    );
}

/// The weight knobs change interpretation, never sampling: the nightly
/// profile draws byte-identical genomes from the same seeds, so a
/// nightly crasher's seed reproduces under either profile's genome and
/// shrinks with the same strategy.
#[test]
fn nightly_profile_shares_the_default_genome_stream() {
    let (default, nightly) = (FuzzConfig::default(), FuzzConfig::nightly());
    for seed in 0..50u64 {
        assert_eq!(
            genome_from_seed(&default, seed),
            genome_from_seed(&nightly, seed),
            "seed {seed}"
        );
    }
    // Weight 0 keeps every seed unidirectional; weight 3 runs three of
    // every four seeds bidirectionally.
    assert!((0..20).all(|s| default.port_mode(s) == PortMode::Unidirectional));
    let modes: Vec<_> = (0..8).map(|s| nightly.port_mode(s)).collect();
    assert_eq!(
        modes
            .iter()
            .filter(|m| **m == PortMode::Bidirectional)
            .count(),
        6
    );
    assert_eq!(modes[3], PortMode::Unidirectional);
    assert_eq!(modes[7], PortMode::Unidirectional);
}

/// The generator is a pure function of `(config, seed)`: regenerating a
/// design must reproduce it bit for bit, which is what makes a seed a
/// sufficient bug report.
#[test]
fn generation_is_deterministic() {
    let config = FuzzConfig::default();
    for seed in 0..50u64 {
        assert_eq!(
            genome_from_seed(&config, seed),
            genome_from_seed(&config, seed)
        );
        let a = design_from_seed(&config, seed);
        let b = design_from_seed(&config, seed);
        assert_eq!(
            design_digest(a.cdfg()),
            design_digest(b.cdfg()),
            "seed {seed}"
        );
    }
}

/// Drift-lock on the generated population itself (`stats.rs` style):
/// op-kind mix, chip counts and feature coverage over a fixed seed range
/// are exact. A generator change that shifts the distribution must update
/// these numbers consciously.
#[test]
fn generated_distribution_is_locked() {
    let config = FuzzConfig::default();
    let mut agg = DesignStats::default();
    for seed in 0..200u64 {
        agg.absorb(&design_stats(design_from_seed(&config, seed).cdfg()));
    }
    assert_eq!(agg.ops, 3032);
    assert_eq!(agg.func_ops, 875);
    assert_eq!(agg.io_ops, 1947);
    assert_eq!(agg.splits, 105);
    assert_eq!(agg.merges, 105);
    assert_eq!(agg.chips, 387);
    assert_eq!(agg.guarded_ops, 777);
    assert_eq!(agg.recursive_edges, 267);
    let mix: Vec<(&str, usize)> = agg
        .class_mix
        .iter()
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    assert_eq!(
        mix,
        vec![("*", 160), ("+", 389), ("-", 157), ("alu", 169)],
        "op-kind mix drifted"
    );
}

/// Every minimized crasher in `tests/corpus/` replays deterministically
/// through the flow differential and stays green. Each file's `#` header
/// records which bug it minimizes and from which seed.
#[test]
fn corpus_replays_green() {
    let dir = corpus_dir();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "mcs"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "corpus unexpectedly small: {entries:?}");
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let design = format::parse(&text)
            .unwrap_or_else(|e| panic!("{}: corpus file no longer parses: {e}", path.display()));
        let d = flow_differential(design.cdfg());
        assert!(
            d.disagreements.is_empty(),
            "{}: replay disagrees: {:?}",
            path.display(),
            d.disagreements
        );
    }
}

/// The finding-1 reproducer must still exercise the code path it was
/// minimized for: the Gomory coefficient-explosion guard tripping into
/// the exact branch-and-bound fallback (pre-fix, an i128 overflow panic).
#[test]
fn corpus_finding1_still_reaches_the_exact_fallback() {
    let text = std::fs::read_to_string(corpus_dir().join("finding1_gomory_overflow.mcs"))
        .expect("finding1 reproducer present");
    let design = format::parse(&text).expect("parses");
    let rate = timing::min_initiation_rate(design.cdfg()).max(1);
    let reg = Arc::new(Registry::new());
    let spec = FlowSpec::Simple {
        rate,
        pivot_budget: None,
    };
    let ctx = RunContext {
        metrics: MetricsHandle::new(reg.clone()),
        ..RunContext::default()
    };
    let _ = run(design.cdfg(), &spec, &ctx);
    let snap = reg.snapshot();
    let fallbacks = snap
        .counters
        .get("probe.exact_fallbacks")
        .copied()
        .unwrap_or(0);
    assert!(fallbacks > 0, "reproducer no longer stresses the solver");
}

/// The finding-1 reproducer, replayed through the adaptive-word-size
/// solver directly: the greedy probe-and-commit sweep that overflows the
/// i128 tableau (the exact-fallback path above) must first promote the
/// adaptive i64 representation — and an identical checker pinned wide
/// from the start must report the same verdict for every single probe.
#[test]
fn corpus_finding1_triggers_an_adaptive_promotion() {
    let text = std::fs::read_to_string(corpus_dir().join("finding1_gomory_overflow.mcs"))
        .expect("finding1 reproducer present");
    let design = format::parse(&text).expect("parses");
    let cdfg = design.cdfg();
    let rate = timing::min_initiation_rate(cdfg).max(1);
    let mut adaptive = mcs_pinalloc::PinChecker::new(cdfg, rate).expect("statically feasible");
    let mut wide = mcs_pinalloc::PinChecker::new(cdfg, rate).expect("statically feasible");
    wide.force_wide_words();
    for op in cdfg.io_ops().collect::<Vec<_>>() {
        let mut placed_at = None;
        for k in 0..rate as i64 {
            let a = adaptive.probe_uncached(op, k, false);
            let w = wide.probe_uncached(op, k, false);
            assert_eq!(a, w, "adaptive and wide diverge on {op:?} in group {k}");
            if a && placed_at.is_none() {
                placed_at = Some(k);
            }
        }
        if let Some(k) = placed_at {
            adaptive.commit(op, k).expect("probed feasible");
            wide.commit(op, k).expect("probed feasible");
        }
    }
    assert!(
        adaptive.solver_promotions() > 0,
        "reproducer no longer crosses the i64 promotion bound"
    );
    assert_eq!(
        adaptive.solver_tableau_digest(),
        wide.solver_tableau_digest(),
        "the two representations drifted apart"
    );
}

/// Shrinking demonstrably works end to end: the known finding-2 failure
/// (postsyn gives up on a budget the checker admitted) minimizes from its
/// 8-op seed design to at most 5 ops, and the minimized genome still
/// fails the same way.
#[test]
fn shrinking_minimizes_a_known_failure() {
    let config = FuzzConfig::default();
    let gives_up = |g: &mcs_cdfg::fuzz::Genome| {
        let design = build_design(g, &config);
        let rate = timing::min_initiation_rate(design.cdfg()).max(1);
        matches!(simple_flow(design.cdfg(), rate), Err(FlowError::Connect(_)))
    };
    let genome = genome_from_seed(&config, 170);
    assert!(gives_up(&genome), "seed 170 no longer reproduces finding 2");
    let (min, steps) = proptest::minimize(&genomes(&config), genome.clone(), gives_up);
    assert!(steps > 0, "shrinking made no progress");
    assert!(
        min.ops.len() <= 5,
        "minimized genome still has {} ops",
        min.ops.len()
    );
    assert!(min.ops.len() < genome.ops.len());
    assert!(gives_up(&min), "minimization lost the failure");
}
