//! `serve_mix`: the `mcs-serve` daemon over loopback TCP.
//!
//! Each pass boots a fresh in-process daemon (two pool workers) and
//! drives it with two closed-loop clients on two connections. Each
//! client owns a disjoint ring of fuzz designs, so which requests hit
//! the cache is fixed by request order. Per design a client sends a
//! cold `synth`, three exact repeats, a near-repeat with one pin
//! removed (warm: seeded from the cold entry), three more exact
//! repeats, and a `resynth` against the design's previous result.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use mcs_cdfg::delta::DesignDelta;
use mcs_cdfg::fuzz::{design_digest, design_from_seed, FuzzConfig};
use mcs_cdfg::{format, Cdfg, PartitionId};
use mcs_metrics::Snapshot;
use mcs_pinalloc::PinChecker;
use mcs_serve::cache::normalized_digest;
use mcs_serve::json::{self, escape, Json};
use mcs_serve::{ServeConfig, Server};
use multichip_hls::flows::{connect_first_flow, ConnectFirstOptions, SynthesisResult};
use multichip_hls::resynth::{result_from_json, result_to_json, resynth_flow};

use crate::flows::{check_sim, transfer_edit};
use crate::stats::{digest_lines, geomean, median, min, shuffle, tail_percentile};
use crate::trace::{SpanRec, Tracer};
use crate::{Outcome, RunOpts};

/// Initiation rate of every request.
const RATE: u32 = 4;
/// Concurrent closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Daemon pool workers (never more than the clients).
const WORKERS: usize = 2;
/// Exact repeats sent before and again after the near-repeat.
const HITS_PER_SIDE: usize = 3;
/// Per-request work ceilings. A design belongs in the mix only if its
/// cold and near-repeat `synth` complete, feasibly, within these
/// deterministic ceilings; the same ceilings ride on every request so
/// none can run away.
const MAX_NODES: u64 = 5_000;
const MAX_PIVOTS: u64 = 600;
const MAX_PROBES: u64 = 20_000;
/// Smallest design admitted, in operations.
const MIN_OPS: usize = 12;
/// The mix: every default-config fuzz seed below 320 that passes
/// [`screen`]. Screening all 320 at set-up would need a wall-clock
/// deadline on each request to bound what a rejected candidate costs
/// (the pin checker's exact construction can spend seconds before it
/// trips the pivot ceiling), and admission would then depend on the
/// machine. So the list is fixed here, and set-up screens each member
/// again under the deterministic ceilings alone: set-up fails if one no
/// longer passes.
const POOL: [u64; 15] = [
    13, 40, 51, 88, 113, 118, 126, 133, 157, 162, 207, 246, 250, 272, 304,
];

/// Set-up repeats per run (about 0.13 s each).
const SETUP_REPEATS: usize = 20;

/// Nominal measured passes per second of `--seconds`.
const PASSES_PER_SECOND: f64 = 8.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Cold,
    Hit,
    Warm,
    Resynth,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Cold | Kind::Resynth => "cold",
            Kind::Hit => "hit",
            Kind::Warm => "warm",
        }
    }
}

/// What a direct run of the layers on identical inputs produced.
#[derive(Clone, Debug, PartialEq)]
struct Expect {
    path: Option<String>,
    latency: i64,
    total_pins: u32,
    buses: usize,
}

impl Expect {
    fn of(result: &SynthesisResult, path: Option<String>) -> Expect {
        Expect {
            path,
            latency: result.pipe_length,
            total_pins: result.pins_used.iter().skip(1).sum(),
            buses: result.interconnect.buses.len(),
        }
    }
}

/// One design of the mix with its request lines and expectations.
struct MixDesign {
    fuzz_seed: u64,
    text: String,
    /// The design as a `synth` request prepares it (base budgets).
    prepared: Cdfg,
    edit: String,
    prev_json: String,
    lines: BTreeMap<Kind, String>,
    expect: BTreeMap<Kind, Expect>,
    /// Direct cold result, for the simulation oracle.
    cold_result: SynthesisResult,
}

struct Mix {
    designs: Vec<MixDesign>,
    /// Per client: (design index, kind) in send order.
    rings: Vec<Vec<(usize, Kind)>>,
}

impl Mix {
    fn line(&self, design: usize, kind: Kind) -> &str {
        &self.designs[design].lines[&kind]
    }
}

fn synth_line(text: &str, budgets: &[u32]) -> String {
    let budgets: Vec<String> = budgets.iter().map(u32::to_string).collect();
    format!(
        "{{\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":{RATE},\"flow\":\"connect\",\"pin_budget\":[{}],\"budget\":{{\"max_nodes\":{MAX_NODES},\"max_pivots\":{MAX_PIVOTS},\"max_probes\":{MAX_PROBES}}}}}",
        escape(text),
        budgets.join(",")
    )
}

/// The design as the daemon prepares a `synth` request: each chip's
/// budget rewritten, its fixed output split cleared.
fn prepare(cdfg: &Cdfg, budgets: &[u32]) -> Cdfg {
    let mut c = cdfg.clone();
    for (i, &pins) in budgets.iter().enumerate() {
        let p = c.partition_mut(PartitionId::new(i as u32 + 1));
        p.total_pins = pins;
        p.fixed_split = None;
    }
    c
}

/// The daemon's connect-first job on identical inputs, run directly.
fn direct_synth(cdfg: &Cdfg) -> Result<SynthesisResult, String> {
    let mut opts = ConnectFirstOptions::new(RATE);
    opts.workers = 1;
    opts.portfolio = Some(4);
    connect_first_flow(cdfg, &opts).map_err(|e| e.to_string())
}

/// The checked fields of a feasible, complete `synth` or `resynth`
/// response; `None` for any other reply.
fn response_fields(reply: &str, with_path: bool) -> Option<Expect> {
    let reply = json::parse(reply).ok()?;
    let text = |key: &str| reply.get(key).and_then(Json::as_str);
    let num = |key: &str| reply.get(key).and_then(Json::as_u64);
    if text("status") != Some("feasible") || text("termination").is_some_and(|t| t != "complete") {
        return None;
    }
    Some(Expect {
        path: if with_path {
            Some(text("path")?.to_string())
        } else {
            None
        },
        latency: i64::try_from(num("latency")?).ok()?,
        total_pins: u32::try_from(num("total_pins")?).ok()?,
        buses: usize::try_from(num("buses")?).ok()?,
    })
}

/// Whether a reply reports success (`"ok": true`).
fn ok(reply: &str) -> bool {
    json::parse(reply).is_ok_and(|r| r.get("ok") == Some(&Json::Bool(true)))
}

/// The provenance tag of a response.
fn cache_tag(reply: &str) -> Option<String> {
    let reply = json::parse(reply).ok()?;
    Some(reply.get("cache")?.as_str()?.to_string())
}

/// Screens fuzz seed `s`; `Some` when it joins the mix.
fn screen(screener: &Server, config: &FuzzConfig, s: u64) -> Option<MixDesign> {
    let design = design_from_seed(config, s);
    let cdfg = design.cdfg();
    if cdfg.ops().len() < MIN_OPS || cdfg.partition_count() < 3 {
        return None;
    }
    let edit = transfer_edit(cdfg)?;
    let text = format::write(cdfg);
    let parsed = format::parse(&text).ok()?;
    let base: Vec<u32> = (1..parsed.cdfg().partition_count())
        .map(|i| {
            parsed
                .cdfg()
                .partition(PartitionId::new(i as u32))
                .total_pins
        })
        .collect();
    // The near-repeat: one pin off the roomiest chip, so the base entry
    // dominates it and seeds its run.
    let mut near = base.clone();
    let roomiest = (0..near.len()).max_by_key(|&i| (near[i], std::cmp::Reverse(i)))?;
    near[roomiest] = near[roomiest].checked_sub(1)?;
    let cold_line = synth_line(&text, &base);
    let warm_line = synth_line(&text, &near);
    for line in [&cold_line, &warm_line] {
        response_fields(&screener.handle_line(line), false)?;
    }
    let prepared = prepare(parsed.cdfg(), &base);
    let cold_result = direct_synth(&prepared).ok()?;
    let warm_result = direct_synth(&prepare(parsed.cdfg(), &near)).ok()?;
    // The previous result a `resynth` request carries: the native design
    // through the connect-first flow.
    let prev = connect_first_flow(parsed.cdfg(), &ConnectFirstOptions::new(RATE)).ok()?;
    let prev_json = result_to_json(design_digest(parsed.cdfg()), &prev);
    let resynth_line = format!(
        "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"{}\"}}",
        escape(&text),
        escape(&prev_json),
        escape(&edit)
    );
    response_fields(&screener.handle_line(&resynth_line), true)?;
    let saved = result_from_json(&prev_json).ok()?;
    let delta = DesignDelta::parse(&edit).ok()?;
    let resynth = resynth_flow(parsed.cdfg(), &saved.result, &delta).ok()?;
    let expect = BTreeMap::from([
        (Kind::Cold, Expect::of(&cold_result, None)),
        (Kind::Warm, Expect::of(&warm_result, None)),
        (
            Kind::Resynth,
            Expect::of(&resynth.result, Some(resynth.path.to_string())),
        ),
    ]);
    let lines = BTreeMap::from([
        (Kind::Cold, cold_line.clone()),
        (Kind::Hit, cold_line),
        (Kind::Warm, warm_line),
        (Kind::Resynth, resynth_line),
    ]);
    Some(MixDesign {
        fuzz_seed: s,
        text,
        prepared,
        edit,
        prev_json,
        lines,
        expect,
        cold_result,
    })
}

/// Builds the mix for `seed`: the [`POOL`] designs, each screened again,
/// dealt to the clients in a seed-chosen order. The pool is the same for
/// every workload seed, so set-up does the same work and the mix has the
/// same cost whatever the seed; the seed decides which client owns which
/// design and in what order each ring runs.
fn build_mix(seed: u64) -> Result<Mix, String> {
    let config = FuzzConfig::default();
    let screener = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let pool: Result<Vec<MixDesign>, String> = POOL
        .iter()
        .map(|&s| {
            screen(&screener, &config, s)
                .ok_or_else(|| format!("fuzz seed {s} no longer passes the serve_mix screen"))
        })
        .collect();
    stop_pool(&screener);
    let mut pool: Vec<Option<MixDesign>> = pool?.into_iter().map(Some).collect();
    let designs: Vec<MixDesign> = shuffle(seed ^ 0x5e7e, pool.len())
        .into_iter()
        .map(|i| {
            pool[i]
                .take()
                .expect("a permutation visits each index once")
        })
        .collect();
    let mut rings = vec![Vec::new(); CLIENTS];
    for d in 0..designs.len() {
        let ring = &mut rings[d % CLIENTS];
        ring.push((d, Kind::Cold));
        ring.extend(std::iter::repeat_n((d, Kind::Hit), HITS_PER_SIDE));
        ring.push((d, Kind::Warm));
        ring.extend(std::iter::repeat_n((d, Kind::Hit), HITS_PER_SIDE));
        ring.push((d, Kind::Resynth));
    }
    Ok(Mix { designs, rings })
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if line.is_empty() {
            return Err("daemon closed the connection".into());
        }
        Ok(line.trim_end().to_string())
    }
}

/// A booted daemon on an ephemeral loopback port.
struct Daemon {
    server: Arc<Server>,
    addr: SocketAddr,
    accept: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn boot() -> Result<Daemon, String> {
        let server = Arc::new(Server::new(ServeConfig {
            workers: WORKERS,
            queue_cap: 64,
            cache_entries: 1024,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let s = server.clone();
        let accept = std::thread::spawn(move || s.serve_tcp(listener));
        Ok(Daemon {
            server,
            addr,
            accept,
        })
    }

    /// Sends `shutdown` and waits for the accept loop and every
    /// connection thread to end.
    fn stop(self) -> Result<(), String> {
        let reply = Client::connect(self.addr)?.roundtrip("{\"cmd\":\"shutdown\"}")?;
        let joined = self.accept.join();
        if !ok(&reply) {
            return Err(format!("shutdown refused: {reply}"));
        }
        match joined {
            Ok(Ok(())) => Ok(()),
            _ => Err("accept loop failed".into()),
        }
    }
}

/// One client's view of one pass: (latency ms, response) per ring
/// entry.
struct ClientRun {
    replies: Vec<(f64, String)>,
}

/// What one pass measured.
struct PassRun {
    /// Per client, in ring order.
    clients: Vec<ClientRun>,
    /// Wall milliseconds of the request phase, from the clients' start to
    /// the last reply.
    wall_ms: f64,
    /// The daemon's registry after the requests (traced passes).
    snap: Option<Snapshot>,
    /// In-process `handle_line` exact-hit times, µs (traced passes).
    handle_hit_us: Vec<f64>,
}

/// One pass: boot, run both rings concurrently, (traced) read the
/// registry, stop.
fn run_pass(mix: &Mix, tracer: Option<&Tracer>, pass: u32) -> Result<PassRun, String> {
    let daemon = Daemon::boot()?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    // The main thread joins the barrier too, to start the clock exactly
    // when the clients start.
    let barrier = Barrier::new(CLIENTS + 1);
    let (runs, wall_ms): (Vec<Result<ClientRun, String>>, f64) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&mix.rings)
            .enumerate()
            .map(|(c, (client, ring))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut replies = Vec::with_capacity(ring.len());
                    for (i, &(d, kind)) in ring.iter().enumerate() {
                        let t0 = tracer.map(Tracer::now_us);
                        let t = Instant::now();
                        let reply = client.roundtrip(mix.line(d, kind))?;
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let (Some(tracer), Some(t0)) = (tracer, t0) {
                            tracer.push(SpanRec {
                                id: 0,
                                parent: 0,
                                op: u64::from(pass) << 32 | (c as u64) << 16 | i as u64,
                                pass,
                                name: format!("request:{}", kind.tag()),
                                layer: "serve",
                                start_us: t0,
                                end_us: tracer.now_us(),
                                aggregated: false,
                            });
                        }
                        replies.push((ms, reply));
                    }
                    Ok(ClientRun { replies })
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (runs, start.elapsed().as_secs_f64() * 1e3)
    });
    drop(clients);
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>();
    let mut snap = None;
    let mut handle_hit_us = Vec::new();
    if tracer.is_some() && runs.is_ok() {
        // The daemon's registry: the one its workers' `MetricsHandle`s
        // report to and its `metrics` request renders.
        snap = Some(daemon.server.registry().snapshot());
        // The same exact hits, in process: `handle_line` without the
        // socket.
        for d in 0..mix.designs.len() {
            let line = mix.line(d, Kind::Hit);
            for _ in 0..HITS_PER_SIDE {
                let t = Instant::now();
                let reply = daemon.server.handle_line(line);
                handle_hit_us.push(t.elapsed().as_secs_f64() * 1e6);
                if cache_tag(&reply).as_deref() != Some("hit") {
                    return Err("in-process repeat was not a cache hit".into());
                }
            }
        }
    }
    daemon.stop()?;
    let runs = runs?;
    Ok(PassRun {
        clients: runs,
        wall_ms,
        snap,
        handle_hit_us,
    })
}

/// The sequential workers=1 replay every concurrent response must
/// match byte for byte.
fn replay(mix: &Mix) -> Vec<Vec<String>> {
    let server = Server::new(ServeConfig {
        workers: 1,
        cache_entries: 1024,
        ..ServeConfig::default()
    });
    let transcript = mix
        .rings
        .iter()
        .map(|ring| {
            ring.iter()
                .map(|&(d, k)| server.handle_line(mix.line(d, k)))
                .collect()
        })
        .collect();
    stop_pool(&server);
    transcript
}

/// Joins the worker threads of a daemon that never ran a serve loop:
/// the stdio loop on empty input returns at once and shuts its pool.
fn stop_pool(server: &Server) {
    let _ = server.serve_stdio(std::io::empty(), std::io::sink());
}

/// The replay's cold reply per design.
fn cold_replies(mix: &Mix, transcript: &[Vec<String>]) -> BTreeMap<usize, String> {
    let mut cold = BTreeMap::new();
    for (ring, replies) in mix.rings.iter().zip(transcript) {
        for (&(d, kind), reply) in ring.iter().zip(replies) {
            if kind == Kind::Cold {
                cold.insert(d, reply.clone());
            }
        }
    }
    cold
}

fn check_reply(
    mix: &Mix,
    (d, kind): (usize, Kind),
    reply: &str,
    replayed: &str,
    cold: &BTreeMap<usize, String>,
) -> Result<(), String> {
    if reply != replayed {
        return Err(format!("differs from the sequential replay: {reply}"));
    }
    if cache_tag(reply).as_deref() != Some(kind.tag()) {
        return Err(format!("expected provenance {}: {reply}", kind.tag()));
    }
    if kind == Kind::Hit {
        // A hit is the cold body, byte for byte, apart from the tag.
        let body = reply.strip_suffix(",\"cache\":\"hit\"}");
        let cold_body = cold
            .get(&d)
            .and_then(|c| c.strip_suffix(",\"cache\":\"cold\"}"));
        if body.is_none() || body != cold_body {
            return Err("hit body differs from the cold body".into());
        }
    } else {
        let got = response_fields(reply, kind == Kind::Resynth);
        if got.as_ref() != Some(&mix.designs[d].expect[&kind]) {
            return Err(format!("{kind:?} differs from the direct run: {reply}"));
        }
    }
    Ok(())
}

/// Median wall time (µs) of `f` over every design of the mix.
fn per_design_us<T>(mix: &Mix, mut f: impl FnMut(&MixDesign) -> T) -> f64 {
    let v: Vec<f64> = mix
        .designs
        .iter()
        .map(|d| {
            let t = Instant::now();
            std::hint::black_box(f(d));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&v)
}

/// Self time per layer (µs) of a profile tree: each node's wall time
/// minus its direct children's.
fn profile_self_us(snap: &Snapshot) -> BTreeMap<&'static str, f64> {
    let wall: BTreeMap<&str, f64> = snap
        .profile
        .iter()
        .map(|n| (n.path.as_str(), n.wall_us as f64))
        .collect();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (path, &w) in &wall {
        let children: f64 = wall
            .iter()
            .filter(|(p, _)| p.rsplit_once('/').is_some_and(|(head, _)| head == *path))
            .map(|(_, &c)| c)
            .sum();
        *out.entry(crate::trace::profile_layer(path)).or_default() += w - children;
    }
    out
}

/// Runs `serve_mix`.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let passes = opts.passes(PASSES_PER_SECOND);
    let mut setup = opts.setup(SETUP_REPEATS, passes);
    // Boot is part of set-up: a daemon that accepts a connection and
    // answers a ping.
    let set_up = || {
        let built = build_mix(opts.seed)?;
        let daemon = Daemon::boot()?;
        let pong = Client::connect(daemon.addr)?.roundtrip("{\"cmd\":\"ping\"}")?;
        daemon.stop()?;
        if !ok(&pong) {
            return Err(format!("ping: {pong}"));
        }
        Ok(built)
    };
    let mix = setup
        .run(set_up)?
        .expect("the first set-up slot runs once at least");
    let mut out = Outcome::new();

    let transcript = replay(&mix);
    let cold = cold_replies(&mix, &transcript);
    let requests_per_pass: usize = mix.rings.iter().map(Vec::len).sum();
    if !opts.smoke {
        // Untimed warm-up pass.
        run_pass(&mix, None, 0)?;
    }
    // Simulation oracle over the direct cold results: a fixed sample,
    // outside every timed call.
    let sim_start = Instant::now();
    for d in &mix.designs {
        if let Err(e) = check_sim(&d.prepared, &d.cold_result, true) {
            out.problem(format!("fuzz{}: {e}", d.fuzz_seed));
        }
    }
    let sim_ms = sim_start.elapsed().as_secs_f64() * 1e3;

    let tracer = Tracer::default();
    let mut item_ms: BTreeMap<(usize, Kind), Vec<f64>> = BTreeMap::new();
    let mut pass_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let mut traced_passes = Vec::new();
    let mut hit_ms = Vec::new();
    let mut solve_ms = Vec::new();
    let mut handle_hit_us = Vec::new();
    let mut snaps = Vec::new();
    let (mut hits, mut synths) = (0u64, 0u64);
    for pass in 0..passes {
        setup.run(set_up)?;
        let traced = opts.trace && pass % 2 == 1;
        let run = run_pass(&mix, traced.then_some(&tracer), pass)?;
        handle_hit_us.extend(run.handle_hit_us);
        snaps.extend(run.snap);
        if traced {
            traced_pass_ms.push(run.wall_ms);
            traced_passes.push(pass);
        } else {
            pass_ms.push(run.wall_ms);
        }
        for ((ring, client), replayed) in mix.rings.iter().zip(&run.clients).zip(&transcript) {
            for ((&key, (ms, reply)), replayed) in ring.iter().zip(&client.replies).zip(replayed) {
                out.attempted += 1;
                if !ok(reply) {
                    out.errored += 1;
                }
                match check_reply(&mix, key, reply, replayed, &cold) {
                    Ok(()) => out.verified += 1,
                    Err(e) => out.problem(format!(
                        "fuzz{} {:?}: {e}",
                        mix.designs[key.0].fuzz_seed, key.1
                    )),
                }
                if traced {
                    match key.1 {
                        Kind::Hit => {
                            hit_ms.push(*ms);
                            hits += 1;
                            synths += 1;
                        }
                        Kind::Cold | Kind::Warm => {
                            solve_ms.push(*ms);
                            synths += 1;
                        }
                        Kind::Resynth => {}
                    }
                } else {
                    item_ms.entry(key).or_default().push(*ms);
                }
            }
        }
    }

    out.setup_s = setup.fastest();
    let mut quality = (0i64, 0u64, 0u64);
    for d in &mix.designs {
        let e = &d.expect[&Kind::Cold];
        quality.0 += e.latency;
        quality.1 += u64::from(e.total_pins);
        quality.2 += e.buses as u64;
    }
    out.e2e.insert("quality_pipe_steps", quality.0 as f64);
    out.e2e.insert("quality_pins", quality.1 as f64);
    out.e2e.insert("quality_buses", quality.2 as f64);
    if !pass_ms.is_empty() {
        // Fastest pass and fastest round trip per (design, kind), both
        // wall time, so time the clients spend blocked on the daemon
        // counts; see the flow workloads for why minima, not medians.
        out.e2e.insert(
            "ops_per_s",
            requests_per_pass as f64 / (min(&pass_ms) / 1e3),
        );
        let best: Vec<f64> = item_ms.values().map(|v| min(v)).collect();
        out.e2e.insert("latency_geomean_ms", geomean(&best));
    }
    let seeds: Vec<String> = mix
        .designs
        .iter()
        .map(|d| d.fuzz_seed.to_string())
        .collect();
    out.deterministic.push(("designs".into(), seeds.join(",")));
    out.deterministic.push((
        "quality".into(),
        format!("{}/{}/{}", quality.0, quality.1, quality.2),
    ));
    out.deterministic.push((
        "transcript".into(),
        format!(
            "{:016x}",
            digest_lines(transcript.iter().flatten().map(String::as_str))
        ),
    ));

    if opts.trace && !traced_passes.is_empty() {
        layer_metrics(
            &mut out,
            &mix,
            &snaps,
            &hit_ms,
            &solve_ms,
            &handle_hit_us,
            sim_ms,
        );
        out.layer
            .insert("serve.cache_hit_ratio", hits as f64 / synths.max(1) as f64);
        out.layer
            .insert("trace.overhead_ratio", min(&traced_pass_ms) / min(&pass_ms));
        // Coverage: the share of client-observed request time spent
        // inside the daemon's `handle_line`.
        let client_us: Vec<f64> = traced_passes
            .iter()
            .map(|&p| tracer.op_wall_us(p))
            .collect();
        let coverage: Vec<f64> = snaps
            .iter()
            .zip(&client_us)
            .map(|(s, c)| {
                s.histograms
                    .get("serve.request_us")
                    .map_or(0.0, |h| h.sum as f64)
                    / c
            })
            .collect();
        out.layer.insert("trace.span_coverage", median(&coverage));
        let path = format!("perfbench/out/spans-serve_mix-{}.jsonl", opts.seed);
        tracer
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(out)
}

/// Per-layer metrics of a traced `serve_mix` run. Daemon counters are
/// one pass's (each pass boots a fresh daemon, and they repeat exactly,
/// which is checked); layer self times are medians over the traced
/// passes of the daemon's profile tree.
fn layer_metrics(
    out: &mut Outcome,
    mix: &Mix,
    snaps: &[Snapshot],
    hit_ms: &[f64],
    solve_ms: &[f64],
    handle_hit_us: &[f64],
    sim_ms: f64,
) {
    let counts = &snaps[0].counters;
    if snaps.iter().any(|s| s.counters != *counts) {
        out.problem("daemon counters changed between traced passes".into());
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "connect.nodes",
        "connect.cache_hits",
        "sched.place_attempts",
        "rematch.augmentations",
        "probe.solver",
        "probe.memo_hits",
        "probe.exact_fallbacks",
        "ilp.pivots",
        "resynth.path.identical",
        "resynth.path.patched",
        "resynth.path.cold",
        "resynth.replayed_commits",
        "serve.hits.exact",
        "serve.hits.seed",
        "serve.misses",
        "serve.rejected",
    ] {
        out.layer.insert(name, count(name));
    }
    let per_pass: Vec<BTreeMap<&str, f64>> = snaps.iter().map(profile_self_us).collect();
    let layer_ms = |layer: &str| {
        let v: Vec<f64> = per_pass
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0.0) / 1e3)
            .collect();
        median(&v)
    };
    let connect_ms = layer_ms("connect");
    out.layer.insert("connect.self_ms", connect_ms);
    if count("connect.nodes") > 0.0 {
        out.layer.insert(
            "connect.us_per_node",
            connect_ms * 1e3 / count("connect.nodes"),
        );
    }
    out.layer.insert("sched.self_ms", layer_ms("sched"));
    out.layer.insert("postsyn.self_ms", layer_ms("postsyn"));
    out.layer.insert("resynth.self_ms", layer_ms("resynth"));
    let share: Vec<f64> = per_pass
        .iter()
        .map(|m| m.get("connect").copied().unwrap_or(0.0) / m.values().sum::<f64>().max(1e-9))
        .collect();
    out.layer.insert("trace.connect_share", median(&share));
    let (memo, solver) = (count("probe.memo_hits"), count("probe.solver"));
    if memo + solver > 0.0 {
        out.layer
            .insert("pinalloc.memo_hit_ratio", memo / (memo + solver));
    }
    let hit_p50 = median(hit_ms);
    out.layer.insert("serve.hit_p50_ms", hit_p50);
    out.layer.insert(
        "serve.hit_p90_ms",
        tail_percentile(hit_ms, 0.9).unwrap_or(0.0),
    );
    out.layer.insert("serve.solve_p50_ms", median(solve_ms));
    let handle_hit = median(handle_hit_us);
    out.layer.insert("serve.handle_hit_us", handle_hit);
    out.layer
        .insert("serve.transport_us", hit_p50 * 1e3 - handle_hit);
    // Layer probes on the mix's inputs, the calls the daemon makes per
    // request, timed in process outside every pass.
    out.layer.insert(
        "serve.digest_us",
        per_design_us(mix, |d| normalized_digest(&d.prepared)),
    );
    out.layer.insert(
        "cdfg.parse_us",
        per_design_us(mix, |d| format::parse(&d.text).is_ok()),
    );
    out.layer.insert(
        "pinalloc.checker_new_us",
        per_design_us(mix, |d| PinChecker::new(&d.prepared, RATE).is_ok()),
    );
    out.layer.insert(
        "cdfg.delta_apply_us",
        per_design_us(mix, |d| {
            DesignDelta::parse(&d.edit).map(|delta| delta.apply(&d.prepared).is_ok())
        }),
    );
    out.layer.insert(
        "codec.result_json_us",
        per_design_us(mix, |d| {
            result_from_json(&d.prev_json).map(|s| result_to_json(s.design_digest, &s.result))
        }),
    );
    out.layer.insert("sim.check_ms", sim_ms);
}
