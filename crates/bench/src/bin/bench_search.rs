//! Emits the `BENCH_search` json lines: the cold Chapter 4 connection
//! search, one worker, on the `search_scale` benchmark designs — the
//! `large_mesh` family at L4, two `portfolio_adversarial` shapes and the
//! two screened fuzz seeds — plus one portfolio of eight on
//! `portfolio_adversarial(6)` at L3, the only row that races several
//! plans. Each line carries the portfolio size, the nodes expanded and
//! the digest of the connection found, which `bench_compare search`
//! gates exactly (the node order is the search's contract), plus the
//! fastest of three wall times as microseconds per node, recorded for
//! the reader and never compared.
//!
//! ```text
//! cargo run --release -p mcs-bench --bin bench_search > fresh_search.json
//! ```

use std::time::Instant;

use mcs_cdfg::designs::{synthetic, Design};
use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
use mcs_cdfg::PortMode;
use mcs_connect::{synthesize_with_stats, SearchConfig};

/// Timed runs per design; the fastest counts.
const REPS: usize = 3;

fn main() -> std::process::ExitCode {
    let fuzz = |seed| design_from_seed(&FuzzConfig::default(), seed);
    let cases: [(&str, Design, u32, usize); 8] = [
        ("large_mesh6_L4", synthetic::large_mesh(6), 4, 1),
        ("large_mesh7_L4", synthetic::large_mesh(7), 4, 1),
        ("large_mesh8_L4", synthetic::large_mesh(8), 4, 1),
        ("adversarial5_L2", synthetic::portfolio_adversarial(5), 2, 1),
        ("adversarial6_L3", synthetic::portfolio_adversarial(6), 3, 1),
        (
            "adversarial6_L3_p8",
            synthetic::portfolio_adversarial(6),
            3,
            8,
        ),
        ("fuzz16_L4", fuzz(16), 4, 1),
        ("fuzz1907_L4", fuzz(1907), 4, 1),
    ];
    let mut ok = true;
    for (name, design, rate, portfolio) in cases {
        let cfg = SearchConfig::new(rate).with_portfolio(portfolio);
        let mut best = f64::INFINITY;
        let mut outcome = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let (result, stats) =
                synthesize_with_stats(design.cdfg(), PortMode::Unidirectional, &cfg);
            best = best.min(t0.elapsed().as_secs_f64());
            outcome = Some((result, stats.nodes));
        }
        let (result, nodes) = outcome.expect("at least one run");
        let (digest, buses) = match &result {
            Ok(ic) => (ic.digest(), ic.buses.len()),
            Err(e) => {
                eprintln!("bench_search: {name}: {e}");
                ok = false;
                (0, 0)
            }
        };
        println!(
            "{{\"bench\":\"search\",\"design\":\"{name}\",\"rate\":{rate},\
             \"portfolio\":{portfolio},\"nodes\":{nodes},\
             \"digest\":{digest},\"buses\":{buses},\"wall_ms\":{:.3},\"us_per_node\":{:.3}}}",
            best * 1e3,
            best * 1e6 / nodes.max(1) as f64
        );
    }
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
