//! BENCH baseline regression comparison: diff a fresh `BENCH_probe.json`,
//! `BENCH_fuzz.json`, `BENCH_serve.json`, `BENCH_resynth.json` or
//! `BENCH_search.json` against a committed baseline, field by field.
//!
//! Two classes of field:
//!
//! * **Hard** — deterministic results (probe counts, verdict digests,
//!   differential agreement, fuzz outcome counts, shrink results). Any
//!   change is a regression: these do not depend on the machine, only on
//!   the code, so a diff means behavior changed without the baseline
//!   being re-recorded.
//! * **Threshold** — performance ratios measured *within* one run
//!   (trail-vs-clone speedup, trail allocation counts). Absolute wall
//!   times are machine-dependent and never compared; internal ratios
//!   are, with a tolerance ([`SPEEDUP_RATIO_FLOOR`], [`ALLOC_SLACK`]) so
//!   scheduler noise does not flake the gate.
//!
//! Lines are read with [`mcs_codec::json::parse`], which keeps integers
//! exact: `verdict_digest` values exceed `i64::MAX` and must be
//! compared exactly, not as lossy `f64`.

use std::fmt::Write as _;

use mcs_codec::json::{parse, Json};

/// Fresh speedup must be at least this fraction of the baseline speedup.
pub const SPEEDUP_RATIO_FLOOR: f64 = 0.6;

/// Allowed absolute growth in trail-engine heap allocations per sweep.
pub const ALLOC_SLACK: u64 = 16;

/// A canonical text rendering of a scalar, for line keys, diff
/// messages and exact comparison. Arrays/objects render as a
/// placeholder.
fn scalar_text(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Int(n) => n.to_string(),
        Json::Num(raw) => raw.clone(),
        Json::Str(s) => s.clone(),
        Json::Arr(_) => "<array>".into(),
        Json::Obj(_) => "<object>".into(),
    }
}

/// How a diverging field fails the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Deterministic field changed: always a gate failure.
    Hard,
    /// Performance field regressed past its tolerance.
    Threshold,
}

/// One baseline-vs-fresh divergence.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which BENCH line (by its `design`/`config` key).
    pub line: String,
    /// Dotted path of the diverging field.
    pub field: String,
    /// Hard or threshold failure.
    pub severity: Severity,
    /// Human-readable explanation with both values.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Hard => "HARD",
            Severity::Threshold => "THRESHOLD",
        };
        write!(f, "[{sev}] {} {}: {}", self.line, self.field, self.detail)
    }
}

fn lookup<'a>(root: &'a Json, path: &str) -> Option<&'a Json> {
    let mut node = root;
    for part in path.split('.') {
        node = node.get(part)?;
    }
    Some(node)
}

fn hard_compare(line: &str, base: &Json, fresh: &Json, path: &str, out: &mut Vec<Finding>) {
    let b = lookup(base, path);
    let f = lookup(fresh, path);
    let (b, f) = match (b, f) {
        (Some(b), Some(f)) => (b, f),
        _ => {
            out.push(Finding {
                line: line.into(),
                field: path.into(),
                severity: Severity::Hard,
                detail: format!(
                    "field present in baseline: {}, in fresh: {}",
                    b.is_some(),
                    f.is_some()
                ),
            });
            return;
        }
    };
    if b != f {
        out.push(Finding {
            line: line.into(),
            field: path.into(),
            severity: Severity::Hard,
            detail: format!("baseline {} != fresh {}", scalar_text(b), scalar_text(f)),
        });
    }
}

fn ratio_floor(
    line: &str,
    base: &Json,
    fresh: &Json,
    path: &str,
    floor: f64,
    out: &mut Vec<Finding>,
) {
    let (Some(b), Some(f)) = (
        lookup(base, path).and_then(Json::as_f64),
        lookup(fresh, path).and_then(Json::as_f64),
    ) else {
        out.push(Finding {
            line: line.into(),
            field: path.into(),
            severity: Severity::Hard,
            detail: "field missing or non-numeric".into(),
        });
        return;
    };
    // A tiny baseline means the measurement is all noise; skip.
    if b <= 0.01 {
        return;
    }
    if f < b * floor {
        out.push(Finding {
            line: line.into(),
            field: path.into(),
            severity: Severity::Threshold,
            detail: format!(
                "fresh {f:.2} is below {:.2} ({}x baseline {b:.2})",
                b * floor,
                floor
            ),
        });
    }
}

fn alloc_ceiling(line: &str, base: &Json, fresh: &Json, path: &str, out: &mut Vec<Finding>) {
    let (Some(b), Some(f)) = (
        lookup(base, path).and_then(Json::as_f64),
        lookup(fresh, path).and_then(Json::as_f64),
    ) else {
        out.push(Finding {
            line: line.into(),
            field: path.into(),
            severity: Severity::Hard,
            detail: "field missing or non-numeric".into(),
        });
        return;
    };
    if f > b + ALLOC_SLACK as f64 {
        out.push(Finding {
            line: line.into(),
            field: path.into(),
            severity: Severity::Threshold,
            detail: format!(
                "fresh {f:.0} allocations exceed baseline {b:.0} + slack {ALLOC_SLACK}"
            ),
        });
    }
}

/// Parses a BENCH file (one JSON object per line) into `(key, object)`
/// pairs, keyed by the given member (`design` or `config`).
fn parse_lines(text: &str, key: &str) -> Result<Vec<(String, Json)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let k = v
            .get(key)
            .map(scalar_text)
            .ok_or_else(|| format!("line {}: no `{key}` member", i + 1))?;
        out.push((k, v));
    }
    Ok(out)
}

/// A baseline line paired with its fresh counterpart, keyed by design or
/// config name.
type MatchedPair = (String, Json, Json);

fn matched_lines(
    baseline: &str,
    fresh: &str,
    key: &str,
) -> Result<(Vec<MatchedPair>, Vec<Finding>), String> {
    let base = parse_lines(baseline, key)?;
    let fresh = parse_lines(fresh, key)?;
    let mut findings = Vec::new();
    let mut pairs = Vec::new();
    for (k, b) in &base {
        match fresh.iter().find(|(fk, _)| fk == k) {
            Some((_, f)) => pairs.push((k.clone(), b.clone(), f.clone())),
            None => findings.push(Finding {
                line: k.clone(),
                field: key.into(),
                severity: Severity::Hard,
                detail: "baseline line missing from fresh run".into(),
            }),
        }
    }
    for (k, _) in &fresh {
        if !base.iter().any(|(bk, _)| bk == k) {
            findings.push(Finding {
                line: k.clone(),
                field: key.into(),
                severity: Severity::Hard,
                detail: "fresh line not present in baseline (re-record the baseline)".into(),
            });
        }
    }
    Ok((pairs, findings))
}

/// Diffs a fresh `BENCH_probe.json` against the committed baseline.
///
/// Hard fields: probe/feasible counts and verdict digests of all three
/// engines (adaptive-i64 trail, forced-i128 wide, clone) and the
/// three-way `agree` verdict. Threshold fields: the
/// within-run `speedup` (floor [`SPEEDUP_RATIO_FLOOR`] of baseline) and
/// the trail engine's allocation count (([`ALLOC_SLACK`]) of slack).
/// Absolute wall times are never compared.
///
/// # Errors
///
/// A parse error on malformed input in either file.
pub fn compare_probe(baseline: &str, fresh: &str) -> Result<Vec<Finding>, String> {
    let (pairs, mut findings) = matched_lines(baseline, fresh, "design")?;
    for (k, b, f) in &pairs {
        for path in [
            "rate",
            "trail.probes",
            "trail.feasible",
            "trail.verdict_digest",
            "wide.probes",
            "wide.feasible",
            "wide.verdict_digest",
            "clone.probes",
            "clone.feasible",
            "clone.verdict_digest",
            "agree",
        ] {
            hard_compare(k, b, f, path, &mut findings);
        }
        ratio_floor(k, b, f, "speedup", SPEEDUP_RATIO_FLOOR, &mut findings);
        alloc_ceiling(k, b, f, "trail.allocations", &mut findings);
    }
    Ok(findings)
}

/// Diffs a fresh `BENCH_fuzz.json` against the committed baseline.
///
/// Every compared field is hard: the sweep is fully seeded, so outcome
/// counts, oracle agreement and the shrink demonstration are functions
/// of the code alone. Wall time and throughput are never compared.
///
/// # Errors
///
/// A parse error on malformed input in either file.
pub fn compare_fuzz(baseline: &str, fresh: &str) -> Result<Vec<Finding>, String> {
    let (pairs, mut findings) = matched_lines(baseline, fresh, "config")?;
    for (k, b, f) in &pairs {
        for path in [
            "seeds",
            "agreed",
            "disagreed",
            "any_feasible",
            "sim_checked",
            "sim_mismatched",
            "shrink.steps",
            "shrink.from_ops",
            "shrink.to_ops",
            "agree",
        ] {
            hard_compare(k, b, f, path, &mut findings);
        }
    }
    Ok(findings)
}

/// Diffs a fresh `BENCH_serve.json` against the committed baseline.
///
/// Hard fields: the scenario shape (client/worker/design/request
/// counts), the sequential-replay `response_digest` (byte-identity of
/// the canonical transcript — the daemon's deterministic surface), the
/// `workers_identical` and `hits_nonzero` bits and the overall `pass`
/// verdict. The storm's hit/warm/cold tallies are *not* compared:
/// scheduling decides which racing near-repeat publishes first, so
/// they drift run to run by design. Threshold field: the within-run
/// `hit_speedup` (floor [`SPEEDUP_RATIO_FLOOR`] of baseline); absolute
/// latencies and throughput are never compared.
///
/// # Errors
///
/// A parse error on malformed input in either file.
pub fn compare_serve(baseline: &str, fresh: &str) -> Result<Vec<Finding>, String> {
    let (pairs, mut findings) = matched_lines(baseline, fresh, "config")?;
    for (k, b, f) in &pairs {
        for path in [
            "clients",
            "workers",
            "designs",
            "cold_requests",
            "storm_requests",
            "response_digest",
            "workers_identical",
            "hits_nonzero",
            "pass",
        ] {
            hard_compare(k, b, f, path, &mut findings);
        }
        ratio_floor(k, b, f, "hit_speedup", SPEEDUP_RATIO_FLOOR, &mut findings);
    }
    Ok(findings)
}

/// Diffs a fresh `BENCH_resynth.json` against the committed baseline.
///
/// Hard fields: the scenario shape (design, edit), the ladder path
/// taken, the dirty-region and reuse tallies, both pipe lengths, the
/// differential-oracle verdict, the warm bit and the overall `pass`
/// verdict — all deterministic functions of the code. Threshold field:
/// the within-run incremental-over-cold `speedup` (floor
/// [`SPEEDUP_RATIO_FLOOR`] of baseline); absolute wall times are never
/// compared.
///
/// # Errors
///
/// A parse error on malformed input in either file.
pub fn compare_resynth(baseline: &str, fresh: &str) -> Result<Vec<Finding>, String> {
    let (pairs, mut findings) = matched_lines(baseline, fresh, "config")?;
    for (k, b, f) in &pairs {
        for path in [
            "design",
            "edit",
            "path",
            "dirty_ops",
            "dirty_transfers",
            "reused",
            "fresh",
            "incr_latency",
            "cold_latency",
            "verifier_ok",
            "warm",
            "pass",
        ] {
            hard_compare(k, b, f, path, &mut findings);
        }
        ratio_floor(k, b, f, "speedup", SPEEDUP_RATIO_FLOOR, &mut findings);
    }
    Ok(findings)
}

/// Diffs a fresh `BENCH_search.json` against the committed baseline.
///
/// Every compared field is hard: the search is deterministic, so the
/// portfolio size, the nodes expanded, the digest of the connection
/// found and its bus count are functions of the code alone, and a change
/// means the node order moved. The recorded wall time and microseconds per node are never
/// compared.
///
/// # Errors
///
/// A parse error on malformed input in either file.
pub fn compare_search(baseline: &str, fresh: &str) -> Result<Vec<Finding>, String> {
    let (pairs, mut findings) = matched_lines(baseline, fresh, "design")?;
    for (k, b, f) in &pairs {
        for path in ["rate", "portfolio", "nodes", "digest", "buses"] {
            hard_compare(k, b, f, path, &mut findings);
        }
    }
    Ok(findings)
}

/// Renders findings as the `bench_compare` report; empty input renders
/// the all-clear line.
pub fn render_findings(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "bench_compare: OK, fresh run matches the baseline".into();
    }
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "bench_compare: {f}");
    }
    let _ = write!(
        out,
        "bench_compare: {} regression(s) against the baseline",
        findings.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBE_BASE: &str = "{\"bench\":\"probe\",\"design\":\"d\",\"rate\":2,\
        \"trail\":{\"probes\":64,\"feasible\":48,\"allocations\":0,\
        \"alloc_bytes\":0,\"wall_ms\":5.000,\"verdict_digest\":12501005524302218597},\
        \"wide\":{\"probes\":64,\"feasible\":48,\"allocations\":0,\
        \"alloc_bytes\":0,\"wall_ms\":9.000,\"verdict_digest\":12501005524302218597},\
        \"clone\":{\"probes\":64,\"feasible\":48,\"allocations\":600,\
        \"alloc_bytes\":819200,\"wall_ms\":40.000,\"verdict_digest\":12501005524302218597},\
        \"agree\":true,\"alloc_ratio\":600.00,\"speedup\":8.00,\"wide_ratio\":1.80}";

    #[test]
    fn identical_probe_lines_produce_no_findings() {
        let findings = compare_probe(PROBE_BASE, PROBE_BASE).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
        assert!(render_findings(&findings).contains("OK"));
    }

    #[test]
    fn digest_beyond_i64_compares_exactly() {
        // 12501005524302218597 and 12501005524302218598 collide as f64;
        // the raw-text comparison must still separate them.
        let fresh = PROBE_BASE.replace("12501005524302218597", "12501005524302218598");
        let findings = compare_probe(PROBE_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field.ends_with("verdict_digest") && f.severity == Severity::Hard),
            "{findings:?}"
        );
    }

    #[test]
    fn halved_speedup_trips_the_threshold() {
        // A 2x wall-time slowdown of the trail engine halves the
        // within-run speedup: 8.00 -> 4.00, below the 0.6 floor.
        let fresh = PROBE_BASE.replace("\"speedup\":8.00", "\"speedup\":4.00");
        let findings = compare_probe(PROBE_BASE, &fresh).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Threshold);
        assert_eq!(findings[0].field, "speedup");
    }

    #[test]
    fn small_speedup_noise_passes() {
        let fresh = PROBE_BASE.replace("\"speedup\":8.00", "\"speedup\":6.50");
        assert!(compare_probe(PROBE_BASE, &fresh).unwrap().is_empty());
    }

    #[test]
    fn allocation_growth_trips_the_threshold() {
        let fresh = PROBE_BASE.replace(
            "\"allocations\":0,\"alloc_bytes\":0",
            "\"allocations\":500,\"alloc_bytes\":64000",
        );
        let findings = compare_probe(PROBE_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field == "trail.allocations" && f.severity == Severity::Threshold),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_design_line_is_hard() {
        let findings = compare_probe(PROBE_BASE, "").unwrap();
        assert!(findings.iter().any(|f| f.severity == Severity::Hard));
    }

    const FUZZ_BASE: &str = "{\"bench\":\"fuzz\",\"config\":\"default\",\"seeds\":200,\
        \"agreed\":200,\"disagreed\":0,\"any_feasible\":30,\
        \"sim_checked\":50,\"sim_mismatched\":0,\
        \"shrink\":{\"steps\":104,\"from_ops\":8,\"to_ops\":4},\
        \"wall_ms\":4000.000,\"designs_per_sec\":50.0,\"agree\":true}";

    #[test]
    fn fuzz_agreement_change_is_hard() {
        let fresh = FUZZ_BASE
            .replace("\"disagreed\":0", "\"disagreed\":1")
            .replace("\"agreed\":200", "\"agreed\":199")
            .replace("\"agree\":true", "\"agree\":false");
        let findings = compare_fuzz(FUZZ_BASE, &fresh).unwrap();
        assert!(findings.iter().all(|f| f.severity == Severity::Hard));
        assert_eq!(findings.len(), 3, "{findings:?}");
    }

    #[test]
    fn fuzz_wall_time_is_ignored() {
        let fresh = FUZZ_BASE
            .replace("\"wall_ms\":4000.000", "\"wall_ms\":9999.000")
            .replace("\"designs_per_sec\":50.0", "\"designs_per_sec\":2.0");
        assert!(compare_fuzz(FUZZ_BASE, &fresh).unwrap().is_empty());
    }

    const SERVE_BASE: &str = "{\"bench\":\"serve\",\"config\":\"clients_8\",\"clients\":8,\
        \"workers\":4,\"designs\":5,\"cold_requests\":5,\"storm_requests\":64,\
        \"hits\":50,\"warm\":14,\"storm_cold\":0,\
        \"response_digest\":12501005524302218597,\"workers_identical\":true,\
        \"hits_nonzero\":true,\"cold_p50_us\":650000.0,\"cold_p99_us\":1300000.0,\
        \"hit_p50_us\":400.0,\"hit_p99_us\":47000.0,\"wall_ms\":11139.507,\
        \"requests_per_sec\":5.7,\"hit_speedup\":16.16,\"pass\":true}";

    #[test]
    fn identical_serve_lines_produce_no_findings() {
        assert!(compare_serve(SERVE_BASE, SERVE_BASE).unwrap().is_empty());
    }

    #[test]
    fn serve_transcript_digest_change_is_hard() {
        let fresh = SERVE_BASE.replace("12501005524302218597", "12501005524302218598");
        let findings = compare_serve(SERVE_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field == "response_digest" && f.severity == Severity::Hard),
            "{findings:?}"
        );
    }

    #[test]
    fn serve_storm_tallies_and_latencies_are_ignored() {
        // Scheduling-dependent tallies and machine-dependent latencies
        // drift freely; only the deterministic surface gates.
        let fresh = SERVE_BASE
            .replace("\"hits\":50,\"warm\":14", "\"hits\":60,\"warm\":4")
            .replace("\"hit_p50_us\":400.0", "\"hit_p50_us\":900.0")
            .replace("\"wall_ms\":11139.507", "\"wall_ms\":99999.000");
        assert!(compare_serve(SERVE_BASE, &fresh).unwrap().is_empty());
    }

    #[test]
    fn serve_collapsed_hit_speedup_trips_the_threshold() {
        let fresh = SERVE_BASE.replace("\"hit_speedup\":16.16", "\"hit_speedup\":6.00");
        let findings = compare_serve(SERVE_BASE, &fresh).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Threshold);
        assert_eq!(findings[0].field, "hit_speedup");
    }

    #[test]
    fn serve_lost_worker_identity_is_hard() {
        let fresh = SERVE_BASE
            .replace("\"workers_identical\":true", "\"workers_identical\":false")
            .replace("\"pass\":true", "\"pass\":false");
        let findings = compare_serve(SERVE_BASE, &fresh).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.severity == Severity::Hard));
    }

    const RESYNTH_BASE: &str = "{\"bench\":\"resynth\",\"config\":\"elliptic_local_width\",\
        \"design\":\"elliptic\",\"edit\":\"width:a1=8\",\"path\":\"identical\",\
        \"dirty_ops\":1,\"dirty_transfers\":0,\"reused\":0,\"fresh\":0,\
        \"incr_latency\":30,\"cold_latency\":30,\"verifier_ok\":true,\
        \"incr_wall_ms\":2.000,\"cold_wall_ms\":40.000,\"speedup\":20.00,\
        \"warm\":true,\"pass\":true}";

    #[test]
    fn identical_resynth_lines_produce_no_findings() {
        assert!(compare_resynth(RESYNTH_BASE, RESYNTH_BASE)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn resynth_path_or_latency_change_is_hard() {
        let fresh = RESYNTH_BASE.replace("\"path\":\"identical\"", "\"path\":\"patched\"");
        let findings = compare_resynth(RESYNTH_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field == "path" && f.severity == Severity::Hard),
            "{findings:?}"
        );
        let fresh = RESYNTH_BASE.replace("\"incr_latency\":30", "\"incr_latency\":32");
        let findings = compare_resynth(RESYNTH_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field == "incr_latency" && f.severity == Severity::Hard),
            "{findings:?}"
        );
    }

    #[test]
    fn resynth_wall_time_is_ignored_but_speedup_collapse_trips() {
        let fresh = RESYNTH_BASE
            .replace("\"incr_wall_ms\":2.000", "\"incr_wall_ms\":9.000")
            .replace("\"cold_wall_ms\":40.000", "\"cold_wall_ms\":180.000");
        assert!(compare_resynth(RESYNTH_BASE, &fresh).unwrap().is_empty());
        let slowed = RESYNTH_BASE.replace("\"speedup\":20.00", "\"speedup\":6.00");
        let findings = compare_resynth(RESYNTH_BASE, &slowed).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Threshold);
        assert_eq!(findings[0].field, "speedup");
    }

    const SEARCH_BASE: &str = "{\"bench\":\"search\",\"design\":\"adversarial6_L3_p8\",\
        \"rate\":3,\"portfolio\":8,\"nodes\":173268,\
        \"digest\":17058123341809352787,\"buses\":14,\
        \"wall_ms\":77.699,\"us_per_node\":0.448}";

    #[test]
    fn search_node_count_or_digest_change_is_hard() {
        assert!(compare_search(SEARCH_BASE, SEARCH_BASE).unwrap().is_empty());
        for (from, to, field) in [
            ("173268", "173269", "nodes"),
            ("\"portfolio\":8", "\"portfolio\":4", "portfolio"),
            ("17058123341809352787", "17058123341809352788", "digest"),
        ] {
            let fresh = SEARCH_BASE.replace(from, to);
            let findings = compare_search(SEARCH_BASE, &fresh).unwrap();
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].field, field);
            assert_eq!(findings[0].severity, Severity::Hard);
        }
    }

    #[test]
    fn search_timings_are_ignored() {
        let fresh = SEARCH_BASE
            .replace("77.699", "1550.000")
            .replace("0.448", "8.950");
        assert!(compare_search(SEARCH_BASE, &fresh).unwrap().is_empty());
    }

    #[test]
    fn parser_round_trips_the_committed_baseline_shape() {
        let v = parse(PROBE_BASE).unwrap();
        assert_eq!(
            v.get("trail").unwrap().get("verdict_digest"),
            Some(&Json::Int(12501005524302218597))
        );
        assert_eq!(v.get("agree"), Some(&Json::Bool(true)));
        assert_eq!(v.get("design").map(scalar_text), Some("d".to_string()));
    }
}
