//! Seeded random-CDFG generation for differential fuzzing (`mcs-fuzz`).
//!
//! The generator is split in two layers so that shrinking composes:
//!
//! 1. A [`Genome`] — plain shrinkable data: a handful of knob bytes plus a
//!    vector of [`OpGene`]s. [`genomes`] builds a `proptest`
//!    [`Strategy`] over genomes whose `shrink` walks every knob toward
//!    zero and every gene vector toward shorter/simpler, so a failing
//!    design minimizes with the stock `proptest::minimize` driver.
//! 2. A **total** interpreter, [`build_design`], mapping *any* genome to
//!    a valid [`Design`]. Out-of-range selectors wrap; impossible gene
//!    requests (e.g. a TDM split with no wide value in scope) degrade to
//!    simpler constructs instead of failing. Totality is what makes
//!    shrinking sound: every candidate the shrinker proposes is a real,
//!    buildable design.
//!
//! The [`FuzzConfig`] knobs follow the constraint-interaction axes of the
//! paper's Chapters 4 and 7: chip count, op fan-in, bit widths,
//! multi-cycle modules, conditionals and data recursion, TDM
//! split/merge, and pin-budget tightness *around the feasibility
//! boundary* (tightness 0 grants every partition its naive worst-case
//! demand; 255 dips below the single-widest-transfer lower bound, which
//! is provably infeasible).
//!
//! Generation is deterministic: [`design_from_seed`] yields the same
//! design for the same `(config, seed)` on every platform, and
//! [`design_digest`] fingerprints a design via its canonical `.mcs` text
//! (see [`crate::format`]) so corpus drift is detectable with a single
//! `u64` comparison.

use std::collections::BTreeMap;

use mcs_codec::fnv::fnv1a;
use proptest::collection::{self, VecStrategy};
use proptest::{Strategy, TestRng};

use crate::designs::Design;
use crate::graph::{Cdfg, CdfgBuilder, Edge, OpKind, PortMode};
use crate::ids::{CondId, PartitionId, ValueId};
use crate::library::{Library, Module, OperatorClass};

/// Generator knobs. Each knob bounds one axis of the design family; the
/// per-design choices inside those bounds live in the [`Genome`].
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Maximum number of chips (excluding the pseudo environment).
    pub max_chips: u32,
    /// Maximum number of operation genes per design.
    pub max_ops: usize,
    /// Maximum bit width of any generated value.
    pub max_bits: u32,
    /// Maximum functional-operation fan-in.
    pub max_fanin: usize,
    /// Register a blocking two-cycle multiplier module (Section 7.4)
    /// instead of letting every class default to a single cycle.
    pub multicycle: bool,
    /// Allow conditional guards on operations (Section 7.2).
    pub conditionals: bool,
    /// Allow data-recursive self edges (Section 7.1).
    pub recursion: bool,
    /// Allow TDM split/merge round-trips (Section 7.3).
    pub tdm: bool,
    /// Relative weight of the TDM selector in the op-kind wheel. Weight 1
    /// (the default) keeps the historical uniform `kind % 8` mapping
    /// bit-identical; weight `w` widens the wheel to `7 + w` slots of
    /// which `w` are TDM, so the nightly profile can hammer the
    /// split/merge corners without perturbing the locked default
    /// population.
    pub tdm_weight: u32,
    /// Out of every `bidir_weight + 1` sweep seeds, `bidir_weight` run
    /// the schedule-first flow with [`PortMode::Bidirectional`] (see
    /// [`FuzzConfig::port_mode`]). Weight 0 (the default) keeps every
    /// sweep unidirectional.
    pub bidir_weight: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            max_chips: 3,
            max_ops: 12,
            max_bits: 8,
            max_fanin: 3,
            multicycle: true,
            conditionals: true,
            recursion: true,
            tdm: true,
            tdm_weight: 1,
            bidir_weight: 0,
        }
    }
}

impl FuzzConfig {
    /// The deep-sweep profile of the nightly CI job: the same design
    /// family as the default, with the TDM selector weighted 4-of-11 in
    /// the op-kind wheel and three of every four sweep seeds running the
    /// schedule-first flow bidirectionally — the Chapter 7.3 / Chapter 4
    /// corners ROADMAP calls out as under-fuzzed at the uniform weights.
    pub fn nightly() -> Self {
        FuzzConfig {
            tdm_weight: 4,
            bidir_weight: 3,
            ..FuzzConfig::default()
        }
    }

    /// Deterministic per-seed port-mode schedule for differential
    /// sweeps: `bidir_weight` out of every `bidir_weight + 1` seeds get
    /// [`PortMode::Bidirectional`].
    pub fn port_mode(&self, seed: u64) -> PortMode {
        let w = u64::from(self.bidir_weight);
        if w > 0 && seed % (w + 1) < w {
            PortMode::Bidirectional
        } else {
            PortMode::Unidirectional
        }
    }
}

/// One operation gene. Every field is a *selector*, reduced modulo the
/// live option count at interpretation time, so any byte pattern is
/// meaningful and shrinking a field toward zero always simplifies the
/// design (chip 0, op kind `Add`, width 1, no guard, no recursion).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpGene {
    /// Which chip hosts the operation.
    pub chip: u8,
    /// Operation-kind selector (functional class, input, TDM, copy).
    pub kind: u8,
    /// Result bit-width selector (`1 + bits % max_bits`).
    pub bits: u8,
    /// Operand back-references into the values created so far.
    pub args: Vec<u8>,
    /// Guard selector: 0 = unguarded, otherwise a `(branch, polarity)`
    /// literal.
    pub guard: u8,
    /// Recursion-degree selector for a self feedback edge.
    pub degree: u8,
}

/// A complete shrinkable design description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Genome {
    /// Chip count (clamped to `1..=max_chips`).
    pub chips: u8,
    /// Pin-budget tightness: 0 = loose (naive worst-case demand),
    /// 255 = below the feasibility boundary.
    pub tightness: u8,
    /// Conditional-branch variable count selector.
    pub conds: u8,
    /// The operation genes, interpreted in order.
    pub ops: Vec<OpGene>,
}

/// `[0, v/2, v-1]`, deduplicated and strictly smaller than `v`.
fn shrink_u8(v: u8) -> Vec<u8> {
    let mut out = Vec::new();
    for c in [0, v / 2, v.saturating_sub(1)] {
        if c < v && !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Strategy over single [`OpGene`]s; used inside [`GenomeStrategy`].
#[derive(Clone, Debug)]
pub struct OpGeneStrategy {
    max_fanin: usize,
}

impl Strategy for OpGeneStrategy {
    type Value = OpGene;

    fn sample(&self, rng: &mut TestRng) -> OpGene {
        let n_args = (rng.next_u64() as usize) % (self.max_fanin + 1);
        OpGene {
            chip: rng.next_u64() as u8,
            kind: rng.next_u64() as u8,
            bits: rng.next_u64() as u8,
            args: (0..n_args).map(|_| rng.next_u64() as u8).collect(),
            guard: rng.next_u64() as u8,
            degree: rng.next_u64() as u8,
        }
    }

    fn shrink(&self, value: &OpGene) -> Vec<OpGene> {
        let mut out = Vec::new();
        for c in shrink_u8(value.chip) {
            out.push(OpGene {
                chip: c,
                ..value.clone()
            });
        }
        for k in shrink_u8(value.kind) {
            out.push(OpGene {
                kind: k,
                ..value.clone()
            });
        }
        for b in shrink_u8(value.bits) {
            out.push(OpGene {
                bits: b,
                ..value.clone()
            });
        }
        for g in shrink_u8(value.guard) {
            out.push(OpGene {
                guard: g,
                ..value.clone()
            });
        }
        for d in shrink_u8(value.degree) {
            out.push(OpGene {
                degree: d,
                ..value.clone()
            });
        }
        // Shorter or simpler argument lists.
        if !value.args.is_empty() {
            let mut shorter = value.args.clone();
            shorter.pop();
            out.push(OpGene {
                args: shorter,
                ..value.clone()
            });
        }
        for (i, &a) in value.args.iter().enumerate() {
            for c in shrink_u8(a) {
                let mut args = value.args.clone();
                args[i] = c;
                out.push(OpGene {
                    args,
                    ..value.clone()
                });
            }
        }
        out
    }
}

/// Strategy over [`Genome`]s for one [`FuzzConfig`]; see [`genomes`].
#[derive(Clone, Debug)]
pub struct GenomeStrategy {
    config: FuzzConfig,
    genes: VecStrategy<OpGeneStrategy>,
}

/// The genome strategy for `config`: sampling draws a fresh random
/// design description, shrinking simplifies one (fewer ops, fewer chips,
/// looser budgets, plainer genes) while staying inside the same config.
pub fn genomes(config: &FuzzConfig) -> GenomeStrategy {
    let element = OpGeneStrategy {
        max_fanin: config.max_fanin,
    };
    GenomeStrategy {
        config: config.clone(),
        genes: collection::vec(element, 1..config.max_ops.max(1) + 1),
    }
}

impl Strategy for GenomeStrategy {
    type Value = Genome;

    fn sample(&self, rng: &mut TestRng) -> Genome {
        Genome {
            chips: 1 + (rng.next_u64() % u64::from(self.config.max_chips.max(1))) as u8,
            tightness: rng.next_u64() as u8,
            conds: (rng.next_u64() % 4) as u8,
            ops: self.genes.sample(rng),
        }
    }

    fn shrink(&self, value: &Genome) -> Vec<Genome> {
        let mut out = Vec::new();
        // Fewer ops first: the single most effective reduction.
        for ops in self.genes.shrink(&value.ops) {
            out.push(Genome {
                ops,
                ..value.clone()
            });
        }
        for c in shrink_u8(value.chips) {
            if c >= 1 {
                out.push(Genome {
                    chips: c,
                    ..value.clone()
                });
            }
        }
        for t in shrink_u8(value.tightness) {
            out.push(Genome {
                tightness: t,
                ..value.clone()
            });
        }
        for c in shrink_u8(value.conds) {
            out.push(Genome {
                conds: c,
                ..value.clone()
            });
        }
        out
    }
}

/// A value in scope during interpretation: where it lives and the guard
/// code of its producer (0 = unguarded).
#[derive(Clone, Copy)]
struct Scoped {
    value: ValueId,
    chip: usize,
    guard: u8,
    bits: u32,
}

/// Applies guard literals by nesting [`CdfgBuilder::under_condition`].
fn with_guard<R>(
    b: &mut CdfgBuilder,
    lits: &[(CondId, bool)],
    f: impl FnOnce(&mut CdfgBuilder) -> R,
) -> R {
    match lits.split_first() {
        None => f(b),
        Some((&(c, pol), rest)) => b.under_condition(c, pol, move |b| with_guard(b, rest, f)),
    }
}

/// Decodes a guard code into its literal list.
fn guard_lits(code: u8, conds: &[CondId]) -> Vec<(CondId, bool)> {
    if code == 0 || conds.is_empty() {
        return Vec::new();
    }
    let k = (code as usize - 1) / 2 % conds.len();
    let pol = (code - 1).is_multiple_of(2);
    vec![(conds[k], pol)]
}

/// A consumer guarded by `g` may read a value whose producer guard is
/// `vg` without risking a spec-level missing operand: the producer must
/// execute whenever the consumer does, i.e. `vg` is unguarded or the
/// same literal.
fn guard_compat(vg: u8, g: u8, conds: &[CondId]) -> bool {
    vg == 0 || guard_lits(vg, conds) == guard_lits(g, conds)
}

/// Interprets `genome` under `config` into a valid partitioned design.
///
/// Total: every genome builds. Selectors wrap modulo the live option
/// count and infeasible gene requests degrade to simpler constructs.
///
/// # Panics
///
/// Only if the interpreter itself violates a CDFG structural invariant —
/// a generator bug, reported loudly by design.
pub fn build_design(genome: &Genome, config: &FuzzConfig) -> Design {
    let mut lib = Library::new(100);
    if config.multicycle {
        lib.insert(Module {
            class: OperatorClass::Mul,
            delay_ns: 200,
            pipelined: false,
        });
    }
    let mut b = CdfgBuilder::new(lib);

    let n_chips = (genome.chips.max(1) as u32).min(config.max_chips.max(1)) as usize;
    let chips: Vec<PartitionId> = (0..n_chips)
        .map(|i| b.partition(&format!("C{i}"), u32::MAX / 4))
        .collect();
    let n_conds = if config.conditionals {
        (genome.conds % 4) as usize
    } else {
        0
    };
    let conds: Vec<CondId> = (0..n_conds).map(|_| b.condition_var()).collect();

    // Values in scope, in creation order, plus per-value consumer counts
    // (values never consumed become primary outputs).
    let mut scope: Vec<Scoped> = Vec::new();
    let mut consumed: BTreeMap<ValueId, usize> = BTreeMap::new();

    let fresh_input =
        |b: &mut CdfgBuilder, scope: &mut Vec<Scoped>, n: usize, chip: usize, bits: u32| {
            let (_, v) = b.input(&format!("in{n}"), bits, chips[chip]);
            scope.push(Scoped {
                value: v,
                chip,
                guard: 0,
                bits,
            });
            scope.len() - 1
        };

    for (n, gene) in genome.ops.iter().enumerate() {
        let chip = gene.chip as usize % n_chips;
        let guard = if n_conds == 0 {
            0
        } else {
            gene.guard % (1 + 2 * n_conds as u8)
        };
        let bits = 1 + u32::from(gene.bits) % config.max_bits.max(1);
        // The weighted op-kind wheel: slots 0..8 keep their historical
        // meaning (so weight 1 reproduces `kind % 8` exactly); the
        // `tdm_weight - 1` extra slots all alias the TDM selector.
        let wheel = 7 + config.tdm_weight.max(1);
        let sel = u32::from(gene.kind) % wheel;
        let sel = if sel >= 8 { 5 } else { sel as u8 };
        match sel {
            // A fresh primary input.
            4 => {
                fresh_input(&mut b, &mut scope, n, chip, bits);
            }
            // TDM round-trip: split an unguarded local value in two and
            // merge the parts back (Section 7.3). Degrades to an input
            // when no value in scope is wide enough.
            5 if config.tdm => {
                let pick = scope
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.chip == chip && s.guard == 0 && s.bits >= 2)
                    .map(|(i, _)| i)
                    .collect::<Vec<_>>();
                match pick.first() {
                    Some(&i) => {
                        let s = scope[i];
                        let w0 = s.bits / 2;
                        let (_, parts) = b.split(&format!("sp{n}"), s.value, &[w0, s.bits - w0]);
                        *consumed.entry(s.value).or_default() += 1;
                        let (_, back) = b.merge(&format!("mg{n}"), chips[chip], &parts, s.bits);
                        scope.push(Scoped {
                            value: back,
                            chip,
                            guard: 0,
                            bits: s.bits,
                        });
                    }
                    None => {
                        fresh_input(&mut b, &mut scope, n, chip, bits.max(2));
                    }
                }
            }
            // Explicit interchip copy: bring a foreign value onto this
            // chip without consuming it functionally.
            6 if n_chips > 1 => {
                let pick = scope
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.chip != chip)
                    .map(|(i, _)| i)
                    .collect::<Vec<_>>();
                match pick.first() {
                    Some(&i) => {
                        let s = scope[i];
                        let lits = guard_lits(s.guard, &conds);
                        let (_, dest) = with_guard(&mut b, &lits, |b| {
                            b.io(&format!("cp{n}"), s.value, chips[chip])
                        });
                        *consumed.entry(s.value).or_default() += 1;
                        scope.push(Scoped {
                            value: dest,
                            chip,
                            guard: s.guard,
                            bits: s.bits,
                        });
                    }
                    None => {
                        fresh_input(&mut b, &mut scope, n, chip, bits);
                    }
                }
            }
            // A functional operation.
            k => {
                let class = match k {
                    1 => OperatorClass::Sub,
                    2 => OperatorClass::Mul,
                    3 => OperatorClass::Custom("alu".into()),
                    _ => OperatorClass::Add,
                };
                // Guard-compatible candidates: local values first, then
                // foreign ones (which cost an interchip transfer).
                let mut pool: Vec<usize> = scope
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.chip == chip && guard_compat(s.guard, guard, &conds))
                    .map(|(i, _)| i)
                    .collect();
                pool.extend(
                    scope
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.chip != chip && guard_compat(s.guard, guard, &conds))
                        .map(|(i, _)| i),
                );
                let mut inputs: Vec<(ValueId, u32)> = Vec::new();
                let args = if gene.args.is_empty() {
                    vec![0u8]
                } else {
                    gene.args.clone()
                };
                for &a in &args {
                    let i = if pool.is_empty() {
                        let i = fresh_input(&mut b, &mut scope, n * 16 + inputs.len(), chip, bits);
                        pool.push(i);
                        i
                    } else {
                        pool[a as usize % pool.len()]
                    };
                    let s = scope[i];
                    let v = if s.chip == chip {
                        s.value
                    } else {
                        // Route through an I/O transfer guarded like the
                        // consumer, so the transfer fires exactly when
                        // the consumer needs the word.
                        let lits = guard_lits(guard, &conds);
                        let (_, dest) = with_guard(&mut b, &lits, |b| {
                            b.io(&format!("x{n}_{}", inputs.len()), s.value, chips[chip])
                        });
                        scope.push(Scoped {
                            value: dest,
                            chip,
                            guard,
                            bits: s.bits,
                        });
                        dest
                    };
                    *consumed.entry(s.value).or_default() += 1;
                    inputs.push((v, 0));
                }
                let lits = guard_lits(guard, &conds);
                let (op, result) = with_guard(&mut b, &lits, |b| {
                    b.func(&format!("op{n}"), class.clone(), chips[chip], &inputs, bits)
                });
                if config.recursion && guard == 0 && gene.degree % 4 > 0 {
                    b.add_edge(Edge {
                        from: op,
                        to: op,
                        value: result,
                        degree: u32::from(gene.degree % 4),
                    });
                    *consumed.entry(result).or_default() += 1;
                }
                scope.push(Scoped {
                    value: result,
                    chip,
                    guard,
                    bits,
                });
            }
        }
    }

    // Every sink (never-consumed value) becomes a primary output, so
    // the whole computation is observable by the simulator.
    let mut any_output = false;
    for (i, s) in scope.clone().into_iter().enumerate() {
        if consumed.get(&s.value).copied().unwrap_or(0) == 0 {
            b.output(&format!("out{i}"), s.value);
            any_output = true;
        }
    }
    if !any_output {
        // All values were consumed (e.g. by recursion edges): expose the
        // last one anyway.
        if let Some(s) = scope.last() {
            b.output("out", s.value);
        }
    }

    let mut cdfg = b
        .finish()
        .expect("fuzz generator produced a structurally invalid CDFG");
    apply_tightness(&mut cdfg, genome.tightness);
    Design::new(&format!("fuzz-{}ops", genome.ops.len()), cdfg)
}

/// Scales every partition's pin budget between its naive worst-case
/// demand (tightness 0) and just below its single-widest-transfer lower
/// bound (tightness 255), straddling the feasibility boundary.
fn apply_tightness(cdfg: &mut Cdfg, tightness: u8) {
    let n = cdfg.partition_count();
    let mut demand = vec![0u32; n];
    let mut widest = vec![0u32; n];
    for op in cdfg.io_ops().collect::<Vec<_>>() {
        let bits = cdfg.io_bits(op);
        let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
        for p in [from, to] {
            demand[p.index()] += bits;
            widest[p.index()] = widest[p.index()].max(bits);
        }
    }
    for p in 0..n {
        if demand[p] == 0 {
            continue;
        }
        let span = demand[p] - widest[p];
        let mut budget = demand[p] - span * u32::from(tightness) / 255;
        if tightness >= 250 {
            // Dip below the necessary lower bound: provably infeasible.
            budget = widest[p].saturating_sub(1).max(1);
        }
        cdfg.partition_mut(PartitionId::new(p as u32)).total_pins = budget.max(1);
    }
}

/// Samples one genome from `seed` and interprets it: the deterministic
/// one-call entry point used by the differential harness and the corpus
/// replay machinery.
pub fn design_from_seed(config: &FuzzConfig, seed: u64) -> Design {
    build_design(&genome_from_seed(config, seed), config)
}

/// The genome [`design_from_seed`] interprets for `seed` — the handle
/// shrink-based triage needs: minimize this genome under a failure
/// predicate with [`proptest::minimize`] and rebuild with
/// [`build_design`].
pub fn genome_from_seed(config: &FuzzConfig, seed: u64) -> Genome {
    genomes(config).sample(&mut TestRng::from_seed(seed))
}

/// FNV-1a fingerprint of a design's canonical `.mcs` text. Two designs
/// share a digest iff they render identically, so a single `u64` locks
/// generator output across refactors.
pub fn design_digest(cdfg: &Cdfg) -> u64 {
    fnv1a(crate::format::write(cdfg).as_bytes())
}

/// Structural distribution counters for one design — the raw material of
/// the generator drift lock.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DesignStats {
    /// Total operations.
    pub ops: usize,
    /// Functional operations.
    pub func_ops: usize,
    /// I/O transfer operations.
    pub io_ops: usize,
    /// TDM split operations.
    pub splits: usize,
    /// TDM merge operations.
    pub merges: usize,
    /// Chips (excluding the environment).
    pub chips: usize,
    /// Operations with a non-trivial guard.
    pub guarded_ops: usize,
    /// Data-recursive edges (degree > 0).
    pub recursive_edges: usize,
    /// Functional-class histogram keyed by class symbol.
    pub class_mix: BTreeMap<String, usize>,
}

/// Computes [`DesignStats`] for one design.
pub fn design_stats(cdfg: &Cdfg) -> DesignStats {
    let mut s = DesignStats {
        ops: cdfg.ops().len(),
        chips: cdfg.partition_count() - 1,
        ..DesignStats::default()
    };
    for op in cdfg.op_ids() {
        let node = cdfg.op(op);
        if !node.condition.is_always() {
            s.guarded_ops += 1;
        }
        match &node.kind {
            OpKind::Func(class) => {
                s.func_ops += 1;
                *s.class_mix.entry(class.symbol().to_string()).or_default() += 1;
            }
            OpKind::Io { .. } => s.io_ops += 1,
            OpKind::Split { .. } => s.splits += 1,
            OpKind::Merge => s.merges += 1,
        }
    }
    s.recursive_edges = cdfg.edges().iter().filter(|e| e.degree > 0).count();
    s
}

impl DesignStats {
    /// Accumulates another design's counters into `self` (chip counts
    /// add up; use with a design count to recover histograms).
    pub fn absorb(&mut self, other: &DesignStats) {
        self.ops += other.ops;
        self.func_ops += other.func_ops;
        self.io_ops += other.io_ops;
        self.splits += other.splits;
        self.merges += other.merges;
        self.chips += other.chips;
        self.guarded_ops += other.guarded_ops;
        self.recursive_edges += other.recursive_edges;
        for (k, v) in &other.class_mix {
            *self.class_mix.entry(k.clone()).or_default() += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_design() {
        let cfg = FuzzConfig::default();
        for seed in 0..32 {
            let a = design_from_seed(&cfg, seed);
            let b = design_from_seed(&cfg, seed);
            assert_eq!(
                design_digest(a.cdfg()),
                design_digest(b.cdfg()),
                "seed {seed} is not deterministic"
            );
        }
    }

    #[test]
    fn every_seed_builds_and_roundtrips() {
        let cfg = FuzzConfig::default();
        for seed in 0..200 {
            let d = design_from_seed(&cfg, seed);
            let text = crate::format::write(d.cdfg());
            let back = crate::format::parse(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{text}"));
            assert_eq!(
                crate::format::write(back.cdfg()),
                text,
                "seed {seed}: canonical form is not idempotent"
            );
        }
    }

    #[test]
    fn every_genome_shrink_candidate_builds() {
        let cfg = FuzzConfig::default();
        let strat = genomes(&cfg);
        for seed in 0..64 {
            let g = strat.sample(&mut TestRng::from_seed(seed));
            for cand in strat.shrink(&g) {
                build_design(&cand, &cfg);
            }
        }
    }

    #[test]
    fn tightness_extremes_straddle_the_boundary() {
        let cfg = FuzzConfig::default();
        let strat = genomes(&cfg);
        let mut g = strat.sample(&mut TestRng::from_seed(7));
        g.tightness = 0;
        let loose = build_design(&g, &cfg);
        g.tightness = 255;
        let tight = build_design(&g, &cfg);
        // Loose budgets dominate tight ones on every partition that has
        // any I/O demand.
        for p in 0..loose.cdfg().partition_count() {
            let pid = PartitionId::new(p as u32);
            assert!(
                loose.cdfg().partition(pid).total_pins >= tight.cdfg().partition(pid).total_pins
            );
        }
        // And the tight variant dips below the widest transfer on at
        // least one demanded partition.
        let c = tight.cdfg();
        let infeasible = c.io_ops().any(|op| {
            let (_, from, to) = c.op(op).io_endpoints().expect("io op");
            let bits = c.io_bits(op);
            bits > c.partition(from).total_pins || bits > c.partition(to).total_pins
        });
        assert!(infeasible, "tightness 255 should be provably infeasible");
    }

    #[test]
    fn stats_cover_generated_features() {
        let cfg = FuzzConfig::default();
        let mut total = DesignStats::default();
        for seed in 0..100 {
            let d = design_from_seed(&cfg, seed);
            total.absorb(&design_stats(d.cdfg()));
        }
        assert!(total.func_ops > 0, "no functional ops in 100 designs");
        assert!(total.io_ops > 0, "no transfers in 100 designs");
        assert!(total.guarded_ops > 0, "conditionals never generated");
        assert!(total.recursive_edges > 0, "recursion never generated");
        assert!(total.splits > 0 && total.merges > 0, "TDM never generated");
        assert!(total.class_mix.len() >= 3, "class mix collapsed");
    }
}
