//! Offline seed scanner for `bench_serve`: run this when the bench
//! aborts with "fell out of the … screen; re-scan and repin".
//!
//! Runs candidate fuzz seeds end-to-end through `Server::handle_line`
//! with the same native-budget screen as `bench_serve`, plus a
//! wall-clock deadline, a minimum-cold-cost cut and a watchdog so
//! adversarial seeds are skipped instead of hanging the scan (their
//! worker threads are leaked; this is an offline tool). Deadlines can
//! only cause false *rejects* — any seed that passes here also passes
//! the bench's deadline-free, node-count-deterministic screen. Prints
//! the first ten qualifying seeds for the `SEEDS` list.

use mcs_bench::{near_budgets, serve_fuzz_config};
use mcs_cdfg::format;
use mcs_cdfg::fuzz::design_from_seed;
use mcs_serve::cache::effective_budgets;
use mcs_serve::json::escape;
use mcs_serve::{ServeConfig, Server};

const RATE: u32 = 4;
const SCREEN_MAX_NODES: u64 = 50_000;
/// Minimum cold wall for a seed to be worth benchmarking (scan-machine
/// proxy; the bench's hit-speedup gate re-checks the real criterion). A
/// hit costs well under a ms on these designs.
const MIN_COLD: std::time::Duration = std::time::Duration::from_millis(25);

fn synth_request(text: &str, budgets: &[u32], max_nodes: u64) -> String {
    let budgets = budgets
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":{RATE},\"flow\":\"connect\",\"pin_budget\":[{budgets}],\"budget\":{{\"deadline_ms\":2000,\"max_nodes\":{max_nodes},\"max_pivots\":5000000,\"max_probes\":500000}}}}",
        escape(text)
    )
}

fn screen(text: String, base: Vec<u32>) -> Result<(), String> {
    let scratch = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let cold_started = std::time::Instant::now();
    let wide = scratch.handle_line(&synth_request(&text, &base, SCREEN_MAX_NODES));
    let cold = cold_started.elapsed();
    if !wide.contains("\"termination\":\"complete\"") || !wide.contains("\"status\":\"feasible\"") {
        return Err(format!("wide: {}", &wide[..wide.len().min(160)]));
    }
    if cold < MIN_COLD {
        return Err(format!("too-cheap: {cold:?}"));
    }
    let near = near_budgets(&base);
    let near = scratch.handle_line(&synth_request(&text, &near, SCREEN_MAX_NODES));
    if !near.contains("\"termination\":\"complete\"") || !near.contains("\"status\":\"feasible\"") {
        return Err(format!("near: {}", &near[..near.len().min(160)]));
    }
    Ok(())
}

fn main() {
    let config = serve_fuzz_config();
    let mut found = Vec::new();
    for seed in 0u64..1500 {
        let design = design_from_seed(&config, seed);
        let base = effective_budgets(design.cdfg());
        if base.len() < 2 {
            continue;
        }
        let text = format::write(design.cdfg());
        let started = std::time::Instant::now();
        let h = std::thread::spawn(move || screen(text, base));
        let mut verdict = None;
        for _ in 0..600 {
            if h.is_finished() {
                verdict = Some(h.join().unwrap());
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        match verdict {
            Some(Ok(())) => {
                eprintln!("seed {seed}: PASS {:?}", started.elapsed());
                found.push(seed);
                if found.len() >= 10 {
                    break;
                }
            }
            Some(Err(why)) => eprintln!("seed {seed}: reject ({why}) {:?}", started.elapsed()),
            None => eprintln!("seed {seed}: WATCHDOG (leaking thread)"),
        }
    }
    println!("pinned: {found:?}");
}
