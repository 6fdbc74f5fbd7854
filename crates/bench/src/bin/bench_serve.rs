//! `bench_serve` — load generator for the `mcs-serve` daemon.
//!
//! For each client-count scenario (1 / 8 / 64 concurrent clients; a
//! reduced ladder under `--smoke`) the harness:
//!
//! 1. boots a fresh in-process daemon on `127.0.0.1:0`,
//! 2. **cold phase** — one client submits every design in the mix once
//!    (connect flow, the design's native per-chip pin budgets), timing
//!    each response,
//! 3. **storm phase** — N concurrent clients each fire a mixed stream
//!    of exact repeats (cache hits) and near-repeats under a perturbed
//!    budget vector — one pin removed from the roomiest chip, so the
//!    base result's budgets dominate the request's and the warm-start
//!    tier seeds its run — timing each response and tallying the
//!    daemon's `"cache"` provenance tag,
//! 4. **determinism replay** — the full canonical request list is
//!    replayed *sequentially* against fresh daemons at `--workers`
//!    1, 2 and 8; the three transcripts must be byte-identical, and
//!    the workers=1 transcript is folded into `response_digest`, the
//!    run-over-run comparable field.
//!
//! Hit/warm/cold tallies from the concurrent storm are observability
//! only (scheduling decides which racing near-repeat publishes first);
//! the digest and the identity bit are the deterministic surface.
//! One BENCH line per scenario goes to stdout; the process exits
//! nonzero if any scenario fails its gates (nonzero hits, identical
//! transcripts, hit p50 at least [`mcs_bench::SERVE_SPEEDUP_FLOOR`]×
//! below cold p50).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mcs_bench::{response_digest, serve_bench_line, MeasuredServe};
use mcs_cdfg::format;
use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
use mcs_cdfg::PartitionId;
use mcs_serve::json::escape;
use mcs_serve::{ServeConfig, Server};

/// Initiation rate used for every request in the mix.
const RATE: u32 = 4;
/// Screening ceiling: a design joins the mix only if its cold connect
/// search completes (to a feasible answer) within this many search
/// nodes, under both the base and the near-repeat budget vectors —
/// so no request in the mix can run away. The ceiling counts
/// deterministic search nodes, never wall time, so the screen — and
/// hence `response_digest` — is machine-independent. "Expensive
/// enough" is not screened structurally: the fuzz family's wall cost
/// is dominated by per-node exact-rational work, not node count, so
/// seeds are pre-scanned offline for cold cost and the hit-speedup
/// gate itself fails loudly if a pinned seed ever becomes cheap.
const SCREEN_MAX_NODES: u64 = 50_000;

struct Mix {
    /// Request lines for the cold phase, one per design.
    cold: Vec<String>,
    /// Exact-repeat and near-repeat request lines, one pair per design.
    repeat: Vec<String>,
    near: Vec<String>,
}

/// The design's native per-chip pin budgets (partition 0 is the
/// environment and carries none). The fuzzer assigns budgets that
/// track each chip's I/O demand, which keeps the exact feasibility
/// gate in its fast regime — uniform "generous" overrides push the
/// gate's ILP into pathological exact-search territory.
fn native_budgets(cdfg: &mcs_cdfg::Cdfg) -> Vec<u32> {
    (1..cdfg.partition_count())
        .map(|i| cdfg.partition(PartitionId::new(i as u32)).total_pins)
        .collect()
}

/// The near-repeat vector: one pin removed from the roomiest chip
/// (ties to the lowest index). The base vector then componentwise
/// dominates it, which is exactly the donor rule the warm-start tier
/// seeds across; the pinned seeds are pre-scanned so the tightened
/// vector stays feasible.
fn near_budgets(base: &[u32]) -> Vec<u32> {
    let mut near = base.to_vec();
    let roomiest = (0..near.len())
        .max_by_key(|&i| (near[i], std::cmp::Reverse(i)))
        .expect("at least one chip");
    near[roomiest] = near[roomiest].saturating_sub(1);
    near
}

fn synth_request(text: &str, budgets: &[u32], max_nodes: Option<u64>) -> String {
    let budgets = budgets
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let budget_member = match max_nodes {
        // The pivot/probe ceilings stop runaways in the pin-allocation
        // phase, which the node budget does not cover.
        Some(n) => format!(
            ",\"budget\":{{\"max_nodes\":{n},\"max_pivots\":5000000,\"max_probes\":500000}}"
        ),
        None => String::new(),
    };
    format!(
        "{{\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":{RATE},\"flow\":\"connect\",\"pin_budget\":[{budgets}]{budget_member}}}",
        escape(text)
    )
}

/// Screens one candidate: its cold connect search must complete, to a
/// feasible answer, within [`SCREEN_MAX_NODES`] (an instant
/// infeasibility verdict tells the hit-speedup gate nothing).
fn screen(scratch: &Server, text: &str, base: &[u32]) -> bool {
    let wide = scratch.handle_line(&synth_request(text, base, Some(SCREEN_MAX_NODES)));
    if !wide.contains("\"termination\":\"complete\"") || !wide.contains("\"status\":\"feasible\"") {
        return false;
    }
    // The near-repeat budget drives its own search in the storm; prove
    // it bounded and still feasible too. It runs donor-seeded here
    // (the wide result above is resident), exactly as it will in the
    // bench proper.
    let near = scratch.handle_line(&synth_request(
        text,
        &near_budgets(base),
        Some(SCREEN_MAX_NODES),
    ));
    near.contains("\"termination\":\"complete\"") && near.contains("\"status\":\"feasible\"")
}

/// Fuzz seeds (default [`FuzzConfig`]) pre-scanned offline so that
/// every cold connect search completes, feasibly, within
/// [`SCREEN_MAX_NODES`] under both the base (native) and near-repeat
/// budget vectors, while still costing a cache-hit-dwarfing amount of
/// cold wall time (hundreds of ms of exact-rational work). Node
/// counts are deterministic, so the screen — and hence the mix and
/// `response_digest` — is machine-independent. The list is pinned
/// rather than discovered at startup because an open-ended scan can
/// wander into designs whose searches blow any reasonable deadline;
/// [`screen`] re-asserts the ceiling on every run, so an algorithm
/// change that moves a seed out of it fails loudly instead of
/// silently rescaling the benchmark.
const SEEDS: &[u64] = &[1, 4, 14, 15, 16, 18, 27, 29, 30, 39];

/// Builds the request mix from the first `designs` pinned seeds.
fn build_mix(designs: usize) -> Mix {
    let config = FuzzConfig::default();
    let mut mix = Mix {
        cold: Vec::new(),
        repeat: Vec::new(),
        near: Vec::new(),
    };
    assert!(designs <= SEEDS.len(), "not enough pinned seeds");
    for &seed in SEEDS.iter().take(designs) {
        let design = design_from_seed(&config, seed);
        let base = native_budgets(design.cdfg());
        assert!(base.len() >= 2, "seed {seed}: needs at least two chips");
        let text = format::write(design.cdfg());
        let scratch = Server::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        assert!(
            screen(&scratch, &text, &base),
            "seed {seed} fell out of the {SCREEN_MAX_NODES}-node feasible-completion \
             screen; re-scan and repin the SEEDS list"
        );
        // The real requests carry the same node ceiling the screen
        // proved sufficient, so no storm request can run away even
        // under racing near-repeats.
        mix.cold
            .push(synth_request(&text, &base, Some(SCREEN_MAX_NODES)));
        mix.repeat
            .push(synth_request(&text, &base, Some(SCREEN_MAX_NODES)));
        mix.near.push(synth_request(
            &text,
            &near_budgets(&base),
            Some(SCREEN_MAX_NODES),
        ));
    }
    mix
}

/// The canonical request order: cold phase, then every client's storm
/// stream in `(client, request)` order. The storm stream for client `c`
/// alternates exact repeats (even steps) and near-repeats (odd steps)
/// over the design ring starting at `c`.
fn canonical_requests(mix: &Mix, clients: usize, per_client: usize) -> Vec<String> {
    let mut all = mix.cold.clone();
    for c in 0..clients {
        for r in 0..per_client {
            all.push(storm_request(mix, c, r).to_string());
        }
    }
    all
}

fn storm_request(mix: &Mix, client: usize, step: usize) -> &str {
    let d = (client + step) % mix.cold.len();
    if step.is_multiple_of(2) {
        &mix.repeat[d]
    } else {
        &mix.near[d]
    }
}

/// Boots a daemon on an ephemeral port; returns its address and the
/// accept-loop thread (joins once a `shutdown` request lands).
fn spawn_daemon(workers: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Arc::new(Server::new(ServeConfig {
        workers,
        queue_cap: 4096,
        cache_entries: 1024,
        ..ServeConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || {
        server.serve_tcp(listener).expect("accept loop");
    });
    (addr, handle)
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    /// Sends one request line, returns `(response line, latency in µs)`.
    /// The line leaves in one write: `writeln!` on the unbuffered stream
    /// would send the body and the newline as two segments, and Nagle's
    /// algorithm would hold the second one for the daemon's delayed ACK.
    fn roundtrip(&mut self, request: &str) -> (String, f64) {
        let line = format!("{request}\n");
        let started = Instant::now();
        self.stream
            .write_all(line.as_bytes())
            .expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        let us = started.elapsed().as_secs_f64() * 1e6;
        (line.trim_end().to_string(), us)
    }
}

fn provenance(line: &str) -> &'static str {
    for tag in ["hit", "warm", "cold"] {
        if line.ends_with(&format!(",\"cache\":\"{tag}\"}}")) {
            return tag;
        }
    }
    "none"
}

fn percentile(sorted_us: &[f64], pct: usize) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = (sorted_us.len() * pct / 100).min(sorted_us.len() - 1);
    sorted_us[idx]
}

/// Sequentially replays `requests` against a fresh in-process daemon
/// with `workers` pool threads and returns the response transcript.
fn replay(requests: &[String], workers: usize) -> Vec<String> {
    let server = Server::new(ServeConfig {
        workers,
        queue_cap: 4096,
        cache_entries: 1024,
        ..ServeConfig::default()
    });
    requests.iter().map(|r| server.handle_line(r)).collect()
}

fn run_scenario(mix: &Mix, clients: usize, per_client: usize) -> MeasuredServe {
    let (addr, accept_loop) = spawn_daemon(4);

    // Cold phase: every design once, sequentially, timed.
    let mut cold_us = Vec::new();
    {
        let mut client = Client::connect(addr);
        for request in &mix.cold {
            let (line, us) = client.roundtrip(request);
            assert_eq!(provenance(&line), "cold", "cold phase response: {line}");
            cold_us.push(us);
        }
    }

    // Storm phase: N concurrent clients over the repeat/near-repeat mix.
    let storm_started = Instant::now();
    let outcomes: Vec<(String, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    (0..per_client)
                        .map(|r| {
                            let (line, us) = client.roundtrip(storm_request(mix, c, r));
                            (provenance(&line).to_string(), us)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("storm client"))
            .collect()
    });
    let wall_ms = storm_started.elapsed().as_secs_f64() * 1e3;

    let mut hits = 0u64;
    let mut warm = 0u64;
    let mut storm_cold = 0u64;
    let mut hit_us = Vec::new();
    for (prov, us) in &outcomes {
        match prov.as_str() {
            "hit" => {
                hits += 1;
                hit_us.push(*us);
            }
            "warm" => warm += 1,
            _ => storm_cold += 1,
        }
    }

    {
        let mut client = Client::connect(addr);
        let (line, _) = client.roundtrip("{\"cmd\":\"shutdown\"}");
        assert!(line.contains("\"ok\":true"), "shutdown response: {line}");
    }
    accept_loop.join().expect("accept loop joins");

    // Determinism replay: the canonical sequential transcript must be
    // byte-identical regardless of the daemon's worker count.
    let requests = canonical_requests(mix, clients, per_client);
    let transcript = replay(&requests, 1);
    let workers_identical =
        replay(&requests, 2) == transcript && replay(&requests, 8) == transcript;

    cold_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    hit_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    MeasuredServe {
        clients: clients as u64,
        workers: 4,
        designs: mix.cold.len() as u64,
        cold_requests: mix.cold.len() as u64,
        storm_requests: (clients * per_client) as u64,
        hits,
        warm,
        storm_cold,
        response_digest: response_digest(&transcript),
        workers_identical,
        cold_p50_us: percentile(&cold_us, 50),
        cold_p99_us: percentile(&cold_us, 99),
        hit_p50_us: percentile(&hit_us, 50),
        hit_p99_us: percentile(&hit_us, 99),
        wall_ms,
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (designs, per_client, ladder): (usize, usize, &[usize]) = if smoke {
        (3, 4, &[1, 8])
    } else {
        (5, 8, &[1, 8, 64])
    };
    let mix = build_mix(designs);
    let mut all_pass = true;
    for &clients in ladder {
        let measured = run_scenario(&mix, clients, per_client);
        let line = serve_bench_line(&format!("clients_{clients}"), &measured);
        all_pass &= line.contains("\"pass\":true");
        println!("{line}");
    }
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
