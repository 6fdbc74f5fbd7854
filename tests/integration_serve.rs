//! End-to-end tests of `mcs-serve` and the warm-start round trips it is
//! built on: probe-memo and refutation-certificate exports must seed
//! follow-up runs to *verdict-identical* results (never merely similar
//! ones), exact repeats must replay byte-identical bodies, near-repeats
//! must run donor-seeded, interrupted runs must never publish, and the
//! error taxonomy must surface as structured responses rather than
//! dropped connections.

use mcs_cdfg::designs;
use mcs_cdfg::format;
use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
use mcs_serve::json::escape;
use mcs_serve::server::MAX_LINE_BYTES;
use mcs_serve::{ServeConfig, Server};
use multichip_hls::flows::{run, ConnectFirstOptions, FlowSpec, RunContext, WarmStart};

/// The elliptic-filter benchmark's text form plus a feasible serve
/// request regime (rate and per-chip budgets from the explore suite's
/// known-good lattice).
fn elliptic_text() -> String {
    format::write(designs::elliptic::partitioned().cdfg())
}
const ELLIPTIC_RATE: u32 = 6;
const ELLIPTIC_BUDGETS: [u32; 5] = [48, 48, 64, 48, 48];

fn synth_line(design: &str, rate: u32, budgets: &[u32], budget_member: &str) -> String {
    let budgets = budgets
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":{rate},\"flow\":\"connect\",\"pin_budget\":[{budgets}]{budget_member}}}",
        escape(design)
    )
}

/// Strips the `,"cache":"..."}` provenance suffix, returning the
/// canonical body all provenance variants must share.
fn body(line: &str) -> &str {
    let tag = line
        .rfind(",\"cache\":\"")
        .unwrap_or_else(|| panic!("no provenance tag in {line}"));
    &line[..tag]
}

fn provenance(line: &str) -> &str {
    for tag in ["hit", "warm", "cold"] {
        if line.ends_with(&format!(",\"cache\":\"{tag}\"}}")) {
            return tag;
        }
    }
    panic!("no provenance tag in {line}");
}

/// The simple flow's epoch-0 probe memo round trip: exporting the memo
/// from a cold run and seeding a fresh run with its `false` verdicts
/// (the cache's transfer rule, [`WarmStart::adopt`]) must reproduce the
/// identical synthesis result — seeding changes which probes reach the
/// solver, never what they conclude.
#[test]
fn probe_memo_roundtrip_is_verdict_identical() {
    let d = designs::ar_filter::simple();
    let spec = FlowSpec::Simple {
        rate: 2,
        pivot_budget: None,
    };

    let cold_run = run(d.cdfg(), &spec, &RunContext::default());
    let cold = cold_run.result.expect("the chapter 3 experiment succeeds");
    let mut seeded = RunContext::default();
    seeded.warm.adopt(&cold_run.exports);
    assert!(
        seeded.warm.probe_memo.iter().all(|&(_, verdict)| !verdict),
        "only false verdicts transfer"
    );
    let warm = run(d.cdfg(), &spec, &seeded)
        .result
        .expect("the seeded rerun succeeds");

    assert_eq!(cold.pipe_length, warm.pipe_length);
    assert_eq!(cold.pins_used, warm.pins_used);
    assert_eq!(cold.reassigned, warm.reassigned);
    assert_eq!(cold.interconnect.buses.len(), warm.interconnect.buses.len());
}

/// The connect search's refutation-certificate round trip: certs
/// learned by a cold run, fed back through [`RunContext::warm`], must
/// leave the result identical — and when anything was learned, the
/// seeded run must actually consume it (`seed_hits`).
#[test]
fn refutation_cert_roundtrip_is_verdict_identical() {
    let d = designs::elliptic::partitioned();
    let mut opts = ConnectFirstOptions::new(ELLIPTIC_RATE);
    opts.workers = 1;
    opts.portfolio = Some(4);
    let spec = FlowSpec::Connect(opts);

    let cold_run = run(d.cdfg(), &spec, &RunContext::default());
    let learned = cold_run.exports.certs;
    let cold = cold_run
        .result
        .expect("the chapter 6 benchmark synthesizes");

    let seeded = RunContext {
        warm: WarmStart {
            probe_memo: Vec::new(),
            certs: learned.clone(),
        },
        ..RunContext::default()
    };
    let warm_run = run(d.cdfg(), &spec, &seeded);
    let warm_stats = warm_run
        .search_stats
        .expect("the connect flow reports stats");
    let warm = warm_run.result.expect("the seeded rerun synthesizes");

    assert_eq!(cold.pipe_length, warm.pipe_length);
    assert_eq!(cold.pins_used, warm.pins_used);
    assert_eq!(cold.interconnect.buses.len(), warm.interconnect.buses.len());
    if !learned.is_empty() {
        assert!(
            warm_stats.seed_hits > 0,
            "certs were exported but the seeded run never consumed them"
        );
    }
}

#[test]
fn repeat_requests_replay_byte_identical_bodies() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    let request = synth_line(&text, ELLIPTIC_RATE, &ELLIPTIC_BUDGETS, "");

    let cold = server.handle_line(&request);
    assert_eq!(provenance(&cold), "cold", "{cold}");
    assert!(cold.contains("\"ok\":true"), "{cold}");

    let hit = server.handle_line(&request);
    assert_eq!(provenance(&hit), "hit", "{hit}");
    assert_eq!(body(&cold), body(&hit), "replay must be byte-identical");

    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":1"), "{stats}");
}

#[test]
fn near_repeat_budgets_run_donor_seeded() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    server.handle_line(&synth_line(&text, ELLIPTIC_RATE, &ELLIPTIC_BUDGETS, ""));

    // One pin poorer on the roomiest chip: the resident donor dominates
    // this vector, so the run must go out warm-seeded, and its own
    // repeat must then be an exact hit.
    let near = [48, 48, 63, 48, 48];
    let request = synth_line(&text, ELLIPTIC_RATE, &near, "");
    let warm = server.handle_line(&request);
    assert_eq!(provenance(&warm), "warm", "{warm}");
    let hit = server.handle_line(&request);
    assert_eq!(provenance(&hit), "hit", "{hit}");
    assert_eq!(body(&warm), body(&hit));
}

/// A tripped budget must surface as a structured `interrupted` response
/// and must never publish to the cache: rerunning the identical request
/// stays cold instead of replaying an interruption.
#[test]
fn interrupted_runs_answer_anytime_and_never_publish() {
    let server = Server::new(ServeConfig::default());
    let text = format::write(design_from_seed(&FuzzConfig::default(), 33).cdfg());
    // The connection search fails on fuzz seed 33 under a 16-pin chip at
    // rate 2, neither the counting bound nor the greedy witness decides
    // that pin system, so the exact pin checker runs to explain the
    // failure, and two pivots starve its construction-time solve: the
    // budgeted-explanation interruption path.
    let request = synth_line(&text, 2, &[16], ",\"budget\":{\"max_pivots\":2}");

    for _ in 0..2 {
        let line = server.handle_line(&request);
        assert_eq!(provenance(&line), "cold", "{line}");
        assert!(line.contains("\"status\":\"interrupted\""), "{line}");
        assert!(
            line.contains("\"termination\":\"budget-exhausted\""),
            "{line}"
        );
    }
    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":0"), "{stats}");
}

/// A feasible cold synth never builds the exact pin checker: the
/// verified connection is its own witness. Under a one-pivot ceiling the
/// job still completes, is cached, and the registry records no pivots.
#[test]
fn a_feasible_cold_synth_spends_no_pivots() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    let request = synth_line(
        &text,
        ELLIPTIC_RATE,
        &ELLIPTIC_BUDGETS,
        ",\"budget\":{\"max_pivots\":1}",
    );
    let line = server.handle_line(&request);
    assert_eq!(provenance(&line), "cold", "{line}");
    assert!(line.contains("\"status\":\"feasible\""), "{line}");
    assert!(line.contains("\"termination\":\"complete\""), "{line}");
    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":1"), "{stats}");
    let pivots = server
        .registry()
        .snapshot()
        .counters
        .get("ilp.pivots")
        .copied()
        .unwrap_or(0);
    assert_eq!(pivots, 0);
}

#[test]
fn error_taxonomy_is_structured() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();

    let parse = server.handle_line("this is not json");
    assert!(parse.contains("\"ok\":false"), "{parse}");
    assert!(parse.contains("\"kind\":\"parse\""), "{parse}");

    // Right shape, wrong arity: the design has five chips.
    let arity = server.handle_line(&synth_line(&text, ELLIPTIC_RATE, &[48, 48], ""));
    assert!(arity.contains("\"kind\":\"bad-request\""), "{arity}");
    assert!(arity.contains("5 chips"), "{arity}");

    let unknown = server.handle_line("{\"cmd\":\"frobnicate\"}");
    assert!(unknown.contains("\"ok\":false"), "{unknown}");

    // Errors never publish.
    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":0"), "{stats}");
}

/// A rate whose pin-allocation tableau would pass the checker's cap is
/// refused as a `bad-request` before any job runs — whether it comes
/// from a synth request, a saved result's `rate` or a `rate:` edit.
#[test]
fn oversized_rates_are_bad_requests() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    let synth = server.handle_line(&synth_line(&text, 100_000, &ELLIPTIC_BUDGETS, ""));
    assert!(synth.contains("\"kind\":\"bad-request\""), "{synth}");
    assert!(synth.contains("solver variables"), "{synth}");

    let pipeline = include_str!("../examples/designs/pipeline.mcs");
    let design = format::parse(pipeline).unwrap();
    let prev = multichip_hls::flows::simple_flow(design.cdfg(), 2).unwrap();
    let saved =
        multichip_hls::resynth::result_to_json(mcs_cdfg::fuzz::design_digest(design.cdfg()), &prev);
    let resynth = |prev: &str, edit: &str| {
        server.handle_line(&format!(
            "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"{edit}\"}}",
            escape(pipeline),
            escape(prev)
        ))
    };
    let huge_prev = saved.replace("\"rate\":2,", "\"rate\":100000,");
    assert_ne!(huge_prev, saved);
    for line in [
        resynth(&huge_prev, "width:sum=16"),
        resynth(&saved, "rate:100000"),
    ] {
        assert!(line.contains("\"kind\":\"bad-request\""), "{line}");
    }
    // The same saved result at its own rate still resynthesizes.
    let ok = resynth(&saved, "width:sum=16");
    assert!(ok.contains("\"ok\":true"), "{ok}");
}

/// A rate over the flows' ceiling of 256 whose tableau still fits is a
/// `bad-request` too, for `synth` and for a resynth `rate:` edit: the
/// job is never queued, so nothing reaches the cache.
#[test]
fn rates_over_the_flow_ceiling_are_bad_requests() {
    let server = Server::new(ServeConfig::default());
    let pipeline = include_str!("../examples/designs/pipeline.mcs");
    let synth = server.handle_line(&format!(
        "{{\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":300,\"flow\":\"connect\"}}",
        escape(pipeline)
    ));
    assert!(synth.contains("\"kind\":\"bad-request\""), "{synth}");
    assert!(
        synth.contains("initiation rate 300 is over the limit of 256"),
        "{synth}"
    );

    let design = format::parse(pipeline).unwrap();
    let prev = multichip_hls::flows::simple_flow(design.cdfg(), 2).unwrap();
    let saved =
        multichip_hls::resynth::result_to_json(mcs_cdfg::fuzz::design_digest(design.cdfg()), &prev);
    let resynth = server.handle_line(&format!(
        "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"rate:300\"}}",
        escape(pipeline),
        escape(&saved)
    ));
    assert!(resynth.contains("\"kind\":\"bad-request\""), "{resynth}");
    assert!(resynth.contains("over the limit of 256"), "{resynth}");

    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":0"), "{stats}");
}

#[test]
fn lru_eviction_bounds_the_cache_and_reports_it() {
    let server = Server::new(ServeConfig {
        cache_entries: 1,
        ..ServeConfig::default()
    });
    let text = elliptic_text();
    server.handle_line(&synth_line(&text, ELLIPTIC_RATE, &ELLIPTIC_BUDGETS, ""));
    server.handle_line(&synth_line(&text, ELLIPTIC_RATE, &[48, 48, 63, 48, 48], ""));

    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":1"), "{stats}");
    assert!(stats.contains("\"capacity\":1"), "{stats}");
    assert!(stats.contains("\"evictions\":1"), "{stats}");
}

#[test]
fn stdio_scripts_run_to_shutdown() {
    let server = Server::new(ServeConfig::default());
    let script = b"{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n{\"cmd\":\"ping\"}\n" as &[u8];
    let mut out = Vec::new();
    server
        .serve_stdio(script, &mut out)
        .expect("stdio loop runs");
    let out = String::from_utf8(out).expect("utf8 responses");
    let lines: Vec<&str> = out.lines().collect();
    // The loop stops at the shutdown request; the trailing ping is
    // never answered.
    assert_eq!(
        lines,
        [
            "{\"ok\":true,\"cmd\":\"ping\"}",
            "{\"ok\":true,\"cmd\":\"shutdown\"}"
        ]
    );
    assert!(server.stop_requested());
}

/// Hostile lines from the robustness reproducers: nesting that used to
/// overflow the parser's stack, and a line longer than the read cap.
fn hostile_lines() -> [String; 2] {
    ["[".repeat(200_000), "x".repeat(MAX_LINE_BYTES + 1)]
}

fn assert_survives_hostile_lines(responses: &[String]) {
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert!(
        responses[0].contains("\"kind\":\"parse\"") && responses[0].contains("nesting"),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"kind\":\"parse\"")
            && responses[1].contains(&MAX_LINE_BYTES.to_string()),
        "{}",
        responses[1]
    );
    assert_eq!(responses[2], "{\"ok\":true,\"cmd\":\"ping\"}");
}

#[test]
fn hostile_lines_get_parse_errors_and_ping_still_answers_over_stdio() {
    let server = Server::new(ServeConfig::default());
    let [deep, long] = hostile_lines();
    let script = format!("{deep}\n{long}\n{{\"cmd\":\"ping\"}}\n");
    let mut out = Vec::new();
    server
        .serve_stdio(script.as_bytes(), &mut out)
        .expect("stdio loop runs");
    let out = String::from_utf8(out).expect("utf8 responses");
    let responses: Vec<String> = out.lines().map(str::to_string).collect();
    assert_survives_hostile_lines(&responses);
}

#[test]
fn hostile_lines_get_parse_errors_and_ping_still_answers_over_tcp() {
    use std::io::{BufRead, BufReader, Write};
    use std::sync::Arc;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = Arc::new(Server::new(ServeConfig::default()));
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_tcp(listener).expect("accept loop"))
    };
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let [deep, long] = hostile_lines();
    let mut responses = Vec::new();
    for line in [deep.as_str(), long.as_str(), "{\"cmd\":\"ping\"}"] {
        writeln!(writer, "{line}").expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        responses.push(response.trim_end().to_string());
    }
    assert_survives_hostile_lines(&responses);
    writeln!(writer, "{{\"cmd\":\"shutdown\"}}").expect("send shutdown");
    daemon.join().expect("daemon exits");
}

#[test]
fn metrics_request_reports_the_serve_counters() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    let request = synth_line(&text, ELLIPTIC_RATE, &ELLIPTIC_BUDGETS, "");
    server.handle_line(&request);
    server.handle_line(&request);

    let json = server.handle_line("{\"cmd\":\"metrics\"}");
    assert!(json.contains("\"format\":\"json\""), "{json}");
    for counter in ["serve.requests", "serve.jobs.synth", "serve.hits.exact"] {
        assert!(json.contains(counter), "missing {counter} in {json}");
    }

    let prom = server.handle_line("{\"cmd\":\"metrics\",\"format\":\"prometheus\"}");
    assert!(prom.contains("\"format\":\"prometheus\""), "{prom}");
    assert!(prom.contains("serve"), "{prom}");
}
