//! End-to-end tests of the incremental-resynthesis ladder: the
//! zero-transfer reuse guarantee as a property over random local edits,
//! a seeded differential sweep of the incremental-vs-cold oracle over
//! fuzzed designs, the `mcs-hls synth --out-result` / `resynth --prev`
//! command-line round trip (including the saved-result digest guard and
//! the `explain --metrics-in` compatibility diagnostic), and the
//! `mcs-serve` `resynth` request keyed on `(parent, prev, delta)`.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use proptest::prelude::*;

use mcs_cdfg::delta::DesignDelta;
use mcs_cdfg::designs::{ar_filter, elliptic};
use mcs_cdfg::fuzz::{design_digest, design_from_seed, FuzzConfig};
use mcs_cdfg::{format, Cdfg, OpId};
use mcs_metrics::{MetricsHandle, Registry};
use mcs_obs::RecorderHandle;
use mcs_serve::json::escape;
use mcs_serve::{ServeConfig, Server};
use multichip_hls::flows::{connect_first_flow, simple_flow, ConnectFirstOptions};
use multichip_hls::resynth::{
    classify, differential, result_to_json, resynth_flow, resynth_flow_traced, ResynthPath,
};

const BIN: &str = env!("CARGO_BIN_EXE_mcs-hls");

fn example(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn run_cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("mcs-hls binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Names of functional operations whose result value feeds only
/// same-chip functional consumers — the ops a width edit can touch
/// without dirtying any transfer.
fn local_func_ops(cdfg: &Cdfg) -> Vec<String> {
    cdfg.ops()
        .iter()
        .enumerate()
        .filter_map(|(i, op)| {
            let id = OpId::new(i as u32);
            let is_func = op.io_endpoints().is_none() && op.result.is_some();
            let local = cdfg.succs(id).iter().all(|&e| {
                let to = cdfg.edge(e).to;
                cdfg.op(to).io_endpoints().is_none() && cdfg.op(to).partition == op.partition
            });
            (is_func && local).then(|| op.name.clone())
        })
        .collect()
}

proptest! {
    /// The zero-transfer guarantee as a property: *any* width edit on
    /// *any* chip-local operation produces an empty dirty region, takes
    /// the `identical` rung, and reuses the previous result
    /// byte-identically under the saved-result codec.
    #[test]
    fn local_width_edits_reuse_byte_identically(op_ix in 0usize..64, bits in 2u32..33) {
        let d = ar_filter::simple();
        let prev = simple_flow(d.cdfg(), 2).unwrap();
        let locals = local_func_ops(d.cdfg());
        prop_assert!(!locals.is_empty(), "ar filter has chip-local operations");
        let name = &locals[op_ix % locals.len()];
        let delta = DesignDelta::parse(&format!("width:{name}={bits}")).unwrap();
        let applied = delta.apply(d.cdfg()).unwrap();
        let dirty = classify(d.cdfg(), &prev, &applied);
        prop_assert!(dirty.is_empty(), "dirty region for width:{name}={bits}: {dirty:?}");
        let out = resynth_flow(d.cdfg(), &prev, &delta).unwrap();
        prop_assert_eq!(out.path, ResynthPath::Identical);
        let digest = design_digest(&out.cdfg);
        prop_assert_eq!(
            result_to_json(digest, &out.result),
            result_to_json(digest, &prev),
            "identical reuse must be byte-identical"
        );
    }
}

/// Seeded differential sweep: for every fuzz design the simple flow can
/// synthesize at its minimum initiation rate, a derived single-operation
/// width edit and a rate bump must keep the incremental ladder in
/// *agreement* with cold resynthesis (the oracle errors on any
/// divergence: incremental failing where cold succeeds, or an
/// incremental result that is not verifier-clean). 200 seeds,
/// deterministic, no flake. The rate mirrors `flow_differential`'s
/// choice — forcing a fixed rate below a design's minimum makes the
/// scheduler thrash instead of testing anything.
#[test]
fn differential_oracle_agrees_across_a_200_seed_edit_sweep() {
    let config = FuzzConfig::default();
    let mut synthesized = 0u32;
    for seed in 0..200u64 {
        let design = design_from_seed(&config, seed);
        let cdfg = design.cdfg();
        let rate = mcs_cdfg::timing::min_initiation_rate(cdfg).max(1);
        let Ok(prev) = simple_flow(cdfg, rate) else {
            continue;
        };
        synthesized += 1;
        let funcs: Vec<OpId> = cdfg.func_ops().collect();
        if let Some(&op) = funcs.get(seed as usize % funcs.len().max(1)) {
            let op = cdfg.op(op);
            if let Some(v) = op.result {
                let bits = cdfg.value(v).bits;
                let target = if bits > 2 { bits - 1 } else { bits + 1 };
                let delta = DesignDelta::parse(&format!("width:{}={target}", op.name)).unwrap();
                if delta.apply(cdfg).is_ok() {
                    differential(cdfg, &prev, &delta)
                        .unwrap_or_else(|e| panic!("seed {seed} width edit: {e}"));
                }
            }
        }
        let bump = DesignDelta::parse(&format!("rate:{}", prev.schedule.rate + 1)).unwrap();
        differential(cdfg, &prev, &bump).unwrap_or_else(|e| panic!("seed {seed} rate bump: {e}"));
    }
    assert!(
        synthesized >= 20,
        "sweep is vacuous: only {synthesized}/200 seeds synthesized"
    );
}

/// The cold rung reports through the caller's telemetry handle: a cold
/// resynthesis of a Chapter 3 (simple-flow) design records its flow's
/// span tree and probe counters in the caller's registry. Forced by a
/// previous result without a connection, which no warm rung can reuse.
#[test]
fn cold_simple_resynthesis_records_flow_spans_and_probe_counters() {
    let d = ar_filter::simple();
    let mut prev = simple_flow(d.cdfg(), 2).expect("the chapter 3 design synthesizes");
    prev.interconnect.buses.clear();
    prev.interconnect.assignment.clear();
    let delta = DesignDelta::parse("width:a3q=2").unwrap();
    let reg = Arc::new(Registry::new());
    let out = resynth_flow_traced(
        d.cdfg(),
        &prev,
        &delta,
        &RecorderHandle::default(),
        &MetricsHandle::new(reg.clone()),
    )
    .expect("cold resynthesis succeeds");
    assert_eq!(out.path, ResynthPath::Cold);
    let snap = reg.snapshot();
    assert_eq!(snap.counters.get("resynth.path.cold"), Some(&1));
    assert!(
        snap.profile
            .iter()
            .any(|n| n.path.ends_with("flow/schedule")),
        "no flow/schedule span: {:?}",
        snap.profile
    );
    assert!(
        snap.counters.get("probe.solver").copied().unwrap_or(0) > 0,
        "no probe.solver count: {:?}",
        snap.counters
    );
}

#[test]
fn cli_round_trips_a_saved_result_and_guards_its_digest() {
    let dir = std::env::temp_dir().join("mcs_resynth_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let saved = dir
        .join("elliptic.result.json")
        .to_string_lossy()
        .into_owned();
    let ell = example("benchmarks/elliptic.mcs");

    let (ok, _, stderr) = run_cli(&["synth", &ell, "--rate", "6", "--out-result", &saved]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("result:"), "{stderr}");

    // A chip-local width edit revalidates the saved result unchanged.
    let (ok, stdout, stderr) =
        run_cli(&["resynth", &ell, "--prev", &saved, "--edit", "width:a1=8"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("resynth path: identical"), "{stdout}");
    assert!(stdout.contains("reuse:"), "{stdout}");

    // The digest guard: the same saved result against a different
    // design must be refused with both digests spelled out.
    let other = example("designs/pipeline.mcs");
    let (ok, _, stderr) = run_cli(&["resynth", &other, "--prev", &saved, "--edit", "width:a1=8"]);
    assert!(!ok);
    assert!(stderr.contains("digest"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `saved` with the bus of its first `assignment` row set to `bus`.
fn with_first_assignment_bus(saved: &str, bus: u32) -> String {
    let key = "\"assignment\":[[";
    let row = saved.find(key).expect("saved result has assignments") + key.len();
    let bus_at = row + saved[row..].find(',').expect("row has a bus column") + 1;
    let bus_end = bus_at + saved[bus_at..].find(',').expect("row has a range");
    format!("{}{bus}{}", &saved[..bus_at], &saved[bus_end..])
}

#[test]
fn cli_refuses_a_saved_result_naming_a_missing_bus() {
    let dir = std::env::temp_dir().join("mcs_resynth_cli_bad_bus_test");
    std::fs::create_dir_all(&dir).unwrap();
    let saved = dir.join("pipeline.result.json");
    let bad = dir.join("bad.result.json");
    let design = example("designs/pipeline.mcs");
    let saved_s = saved.to_string_lossy();
    let (ok, _, stderr) = run_cli(&[
        "synth",
        &design,
        "--rate",
        "2",
        "--flow",
        "connect",
        "--out-result",
        &saved_s,
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&saved).unwrap();
    std::fs::write(&bad, with_first_assignment_bus(&text, 9)).unwrap();

    let out = Command::new(BIN)
        .args(["resynth", &design, "--rate", "2", "--prev"])
        .arg(&bad)
        .args(["--edit", "width:corr=8"])
        .output()
        .expect("mcs-hls binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("not a saved result"), "{stderr}");
    assert!(stderr.contains("bus 9 is out of range"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_explain_diagnoses_foreign_metrics_files() {
    let dir = std::env::temp_dir().join("mcs_resynth_explain_test");
    std::fs::create_dir_all(&dir).unwrap();
    let design = example("designs/pipeline.mcs");

    // A metrics file whose counters all predate (or postdate) this
    // binary's families must be named as the problem — not rendered as
    // an empty table.
    let reg = std::sync::Arc::new(mcs_metrics::Registry::new());
    let m = mcs_metrics::MetricsHandle::new(reg.clone());
    m.add("legacy.commits", 3);
    m.add("legacy.rollbacks", 1);
    let foreign = dir
        .join("foreign.metrics.json")
        .to_string_lossy()
        .into_owned();
    std::fs::write(&foreign, mcs_metrics::export::to_json(&reg.snapshot())).unwrap();
    let (ok, _, stderr) = run_cli(&["explain", &design, "--metrics-in", &foreign]);
    assert!(!ok, "foreign metrics must fail, not render empty");
    assert!(stderr.contains("legacy.commits"), "{stderr}");
    assert!(stderr.contains("different mcs-hls version"), "{stderr}");

    // A file with known families renders without resynthesizing.
    let reg = std::sync::Arc::new(mcs_metrics::Registry::new());
    let m = mcs_metrics::MetricsHandle::new(reg.clone());
    m.add("resynth.path.identical", 1);
    let known = dir
        .join("known.metrics.json")
        .to_string_lossy()
        .into_owned();
    std::fs::write(&known, mcs_metrics::export::to_json(&reg.snapshot())).unwrap();
    let (ok, stdout, stderr) = run_cli(&["explain", &design, "--metrics-in", &known]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("resynth.path.identical"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_resynth_replays_exact_repeats_and_keys_on_the_delta() {
    let server = Server::new(ServeConfig::default());
    let design = elliptic::partitioned();
    let text = format::write(design.cdfg());
    let prev = connect_first_flow(design.cdfg(), &ConnectFirstOptions::new(6)).unwrap();
    let prev_json = result_to_json(design_digest(design.cdfg()), &prev);

    let line = |edit: &str| {
        format!(
            "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"{edit}\"}}",
            escape(&text),
            escape(&prev_json)
        )
    };

    let cold = server.handle_line(&line("width:a1=8"));
    assert!(cold.contains("\"ok\":true"), "{cold}");
    assert!(cold.contains("\"path\":\"identical\""), "{cold}");
    assert!(cold.contains("\"cache\":\"cold\""), "{cold}");

    // Byte-identical replay on the same (parent, prev, delta) key.
    let hit = server.handle_line(&line("width:a1=8"));
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    assert_eq!(
        cold.rsplit_once(",\"cache\":").unwrap().0,
        hit.rsplit_once(",\"cache\":").unwrap().0,
        "replayed body must match the cold body"
    );

    // A different delta digest is a different key.
    let other = server.handle_line(&line("width:a1=9"));
    assert!(other.contains("\"cache\":\"cold\""), "{other}");

    // A prev for some other design is refused up front.
    let digest = design_digest(design.cdfg());
    let mangled = prev_json.replacen(&format!("\"design\":{digest}"), "\"design\":12345", 1);
    let bad = server.handle_line(&format!(
        "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"width:a1=8\"}}",
        escape(&text),
        escape(&mangled)
    ));
    assert!(bad.contains("\"ok\":false"), "{bad}");
    assert!(bad.contains("digest"), "{bad}");

    // So is a prev naming a bus it does not have.
    let buses = prev.interconnect.buses.len() as u32;
    let corrupt = with_first_assignment_bus(&prev_json, buses);
    let bad = server.handle_line(&format!(
        "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"width:a1=8\"}}",
        escape(&text),
        escape(&corrupt)
    ));
    assert!(bad.contains("\"kind\":\"bad-request\""), "{bad}");
    assert!(bad.contains("out of range"), "{bad}");
}
