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

use mcs_cdfg::fuzz::{
    build_design, design_digest, design_from_seed, design_stats, genome_from_seed, genomes,
    DesignStats, FuzzConfig,
};
use mcs_cdfg::{format, timing, PortMode};
use mcs_metrics::{MetricsHandle, Registry};
use multichip_hls::differential::{
    anytime_differential, flow_differential, flow_differential_with_ports, probe_differential,
    sim_differential,
};
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
        (324, 317),
        "probe/anytime coverage drifted"
    );
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
