//! Golden digests of the synthesis flows over one fixed corpus: the
//! simple AR filter at L2–6, the Figure 2.5 dead end, every example
//! design at L1–6 and a fixed list of fuzz designs. One digest each
//! covers the Chapter 3 simple flow, the Chapter 4 connect-first flow,
//! the Chapter 5 schedule-first flow in both port modes, and the
//! structural Verilog of every result those flows produce. Any change to
//! a scheduler's candidate order, the pin checker's verdicts, the
//! connection search, the post-scheduling connection or the netlist
//! that moves a single start time, bus, pin, slot or Verilog byte shows
//! here. Probe and search-node *counts* are deliberately not part of the
//! digests: how a verdict is resolved is free to change, the verdict is
//! not.

use std::hash::Hasher;

use mcs_cdfg::designs::{ar_filter, synthetic, Design};
use mcs_cdfg::format;
use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
use mcs_cdfg::{Cdfg, PortMode};
use mcs_codec::fnv::Fnv;
use multichip_hls::flows::{
    connect_first_flow, default_pipe_length, schedule_first_flow, simple_flow, ConnectFirstOptions,
    FlowError, SynthesisResult,
};
use multichip_hls::netlist;
use multichip_hls::resynth::result_to_json;

/// The example designs, by file name.
const EXAMPLES: [(&str, &str); 6] = [
    ("pipeline", include_str!("../examples/designs/pipeline.mcs")),
    (
        "wide_sweep",
        include_str!("../examples/designs/wide_sweep.mcs"),
    ),
    (
        "conditional",
        include_str!("../examples/designs/conditional.mcs"),
    ),
    (
        "recursive_filter",
        include_str!("../examples/designs/recursive_filter.mcs"),
    ),
    ("tdm_wide", include_str!("../examples/designs/tdm_wide.mcs")),
    (
        "elliptic",
        include_str!("../examples/benchmarks/elliptic.mcs"),
    ),
];

/// `(seed, rate)` points of the default fuzz configuration among seeds
/// 0–59 at L2–4 whose pin checker builds and whose flow runs in a few
/// milliseconds in a release build, so the digest stays quick in debug.
/// Synthesized points and flow errors are both represented.
#[rustfmt::skip]
const FUZZ_CASES: [(u64, u32); 125] = [
    (0, 2), (0, 3), (0, 4), (2, 2), (2, 3), (2, 4), (4, 2), (4, 3),
    (5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4), (7, 2), (7, 3),
    (7, 4), (9, 2), (9, 3), (9, 4), (10, 2), (10, 3), (10, 4), (11, 2),
    (11, 3), (12, 2), (13, 2), (13, 3), (13, 4), (14, 3), (16, 2), (17, 2),
    (17, 3), (17, 4), (18, 2), (19, 2), (19, 3), (19, 4), (20, 2), (20, 3),
    (21, 2), (21, 3), (21, 4), (22, 2), (22, 4), (23, 2), (23, 3), (23, 4),
    (24, 2), (25, 2), (25, 3), (25, 4), (26, 2), (26, 3), (26, 4), (27, 2),
    (28, 2), (28, 3), (28, 4), (29, 2), (31, 2), (31, 3), (31, 4), (32, 2),
    (32, 3), (32, 4), (33, 2), (33, 3), (33, 4), (35, 2), (35, 3), (35, 4),
    (36, 2), (37, 2), (37, 3), (37, 4), (38, 2), (38, 3), (38, 4), (39, 2),
    (40, 2), (40, 3), (41, 2), (42, 2), (42, 3), (42, 4), (44, 2), (44, 3),
    (45, 2), (45, 3), (46, 2), (46, 3), (46, 4), (47, 2), (47, 3), (47, 4),
    (48, 2), (48, 3), (48, 4), (49, 2), (49, 3), (50, 2), (50, 3), (51, 2),
    (52, 2), (52, 3), (52, 4), (53, 2), (53, 3), (53, 4), (54, 2), (54, 3),
    (54, 4), (55, 2), (55, 3), (55, 4), (57, 2), (57, 3), (57, 4), (58, 2),
    (58, 3), (58, 4), (59, 2), (59, 3), (59, 4),
];

/// The corpus, in digest order: `(label, design, rate)`.
fn corpus() -> Vec<(&'static str, Design, u32)> {
    let mut cases = Vec::new();
    for rate in 2..=6 {
        cases.push(("ar_simple", ar_filter::simple(), rate));
    }
    for rate in 2..=4 {
        cases.push(("fig_2_5", synthetic::fig_2_5(), rate));
    }
    for (name, text) in EXAMPLES {
        for rate in 1..=6 {
            cases.push((name, format::parse(text).expect("example parses"), rate));
        }
    }
    let config = FuzzConfig::default();
    for (seed, rate) in FUZZ_CASES {
        cases.push(("fuzz", design_from_seed(&config, seed), rate));
    }
    cases
}

/// Runs `flow` over the corpus, folding each run into one digest: the
/// saved-result JSON (schedule, buses, assignment, pins, slot
/// placements) on success, the error's `Display` otherwise. Returns
/// `(cases, ok, digest)` and the digest of the structural Verilog of
/// every successful result.
fn digest(
    flow: impl Fn(&Cdfg, u32) -> Result<SynthesisResult, FlowError>,
) -> ((u32, u32, u64), u64) {
    let mut h = Fnv::default();
    let mut verilog = Fnv::default();
    let (mut cases, mut ok) = (0u32, 0u32);
    for (label, design, rate) in corpus() {
        cases += 1;
        h.write(label.as_bytes());
        h.write(&rate.to_le_bytes());
        match flow(design.cdfg(), rate) {
            Ok(r) => {
                ok += 1;
                h.write(b"ok");
                h.write(result_to_json(0, &r).as_bytes());
                let nl = netlist::build(design.cdfg(), &r.schedule, &r.interconnect);
                verilog.write(netlist::to_verilog(&nl).as_bytes());
            }
            Err(e) => {
                h.write(b"err");
                h.write(e.to_string().as_bytes());
            }
        }
    }
    ((cases, ok, h.finish()), verilog.finish())
}

fn schedule_first(cdfg: &Cdfg, rate: u32, mode: PortMode) -> Result<SynthesisResult, FlowError> {
    schedule_first_flow(cdfg, rate, default_pipe_length(cdfg, rate), mode)
}

#[test]
fn simple_flow_results_match_the_golden_digest() {
    let (results, verilog) = digest(simple_flow);
    assert_eq!(
        results,
        // Five non-simple cases (elliptic at L1 and L2, fuzz seed 52 at
        // L2–L4) answer "partitioning is not simple" instead of the pin
        // checker's "no pin allocation exists": Definition 3.2 is checked
        // before the checker is built. Every result and every other error
        // is unchanged.
        (169, 95, 0x0eb2_3b1e_30ea_c8f6),
        "simple-flow results drifted from the golden corpus"
    );
    assert_eq!(
        verilog, 0xfdbf_148e_08ab_0e3e,
        "simple-flow Verilog drifted from the golden corpus"
    );
}

#[test]
fn connect_first_results_match_the_golden_digest() {
    let (results, verilog) =
        digest(|cdfg, rate| connect_first_flow(cdfg, &ConnectFirstOptions::new(rate)));
    assert_eq!(
        results,
        (169, 101, 0x5dcf_084c_0995_58ad),
        "connect-first results drifted from the golden corpus"
    );
    assert_eq!(
        verilog, 0x50f2_b5e6_6a19_4670,
        "connect-first Verilog drifted from the golden corpus"
    );
}

#[test]
fn schedule_first_results_match_the_golden_digest() {
    let (uni, uni_verilog) =
        digest(|cdfg, rate| schedule_first(cdfg, rate, PortMode::Unidirectional));
    let (bi, bi_verilog) = digest(|cdfg, rate| schedule_first(cdfg, rate, PortMode::Bidirectional));
    assert_eq!(
        (uni, bi),
        (
            (169, 164, 0xaed5_3b88_76e9_26dc),
            (169, 164, 0x5a74_4f23_b5aa_9916)
        ),
        "schedule-first results drifted from the golden corpus"
    );
    assert_eq!(
        (uni_verilog, bi_verilog),
        (0x31cd_6944_256c_6311, 0xfe01_01af_4652_03cc),
        "schedule-first Verilog drifted from the golden corpus"
    );
}
