//! Golden digest of the Chapter 3 simple flow over a fixed corpus: the
//! simple AR filter at L2–6, the Figure 2.5 dead end, every example
//! design at L1–6 and a fixed list of fuzz designs. Any change to the
//! list scheduler's candidate order, the pin checker's verdicts or the
//! post-scheduling connection that moves a single start time, bus or
//! pin shows here. Probe *counts* are deliberately not part of the
//! digest: how a verdict is resolved is free to change, the verdict is
//! not.

use std::hash::Hasher;

use mcs_cdfg::designs::{ar_filter, synthetic, Design};
use mcs_cdfg::format;
use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
use mcs_codec::fnv::Fnv;
use multichip_hls::flows::simple_flow;
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

/// Folds one simple-flow run into `h`: the saved-result JSON (schedule,
/// buses, assignment, pins) on success, the error's `Display` otherwise.
fn absorb(h: &mut Fnv, label: &str, design: &Design, rate: u32) -> bool {
    h.write(label.as_bytes());
    h.write(&rate.to_le_bytes());
    match simple_flow(design.cdfg(), rate) {
        Ok(r) => {
            h.write(b"ok");
            h.write(result_to_json(0, &r).as_bytes());
            true
        }
        Err(e) => {
            h.write(b"err");
            h.write(e.to_string().as_bytes());
            false
        }
    }
}

#[test]
fn simple_flow_results_match_the_golden_digest() {
    let mut h = Fnv::default();
    let (mut cases, mut ok) = (0u32, 0u32);
    let mut run = |h: &mut Fnv, label: &str, design: &Design, rate: u32| {
        cases += 1;
        ok += u32::from(absorb(h, label, design, rate));
    };
    let ar = ar_filter::simple();
    for rate in 2..=6 {
        run(&mut h, "ar_simple", &ar, rate);
    }
    let fig = synthetic::fig_2_5();
    for rate in 2..=4 {
        run(&mut h, "fig_2_5", &fig, rate);
    }
    for (name, text) in EXAMPLES {
        let design = format::parse(text).expect("example parses");
        for rate in 1..=6 {
            run(&mut h, name, &design, rate);
        }
    }
    let config = FuzzConfig::default();
    for (seed, rate) in FUZZ_CASES {
        run(&mut h, "fuzz", &design_from_seed(&config, seed), rate);
    }
    assert_eq!(
        (cases, ok, h.finish()),
        (169, 95, 0xff9f_4efc_fde1_d852),
        "simple-flow results drifted from the golden corpus"
    );
}
