//! Plain-text rendering of schedules, bus allocations and experiment
//! tables, in the spirit of the paper's figures and tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mcs_cdfg::{Cdfg, OpId, PartitionId};
use mcs_connect::{Interconnect, SearchStats};
use mcs_sched::{Schedule, SlotPlacement};

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let render = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(line, "{:<w$}  ", c, w = width[i]);
            }
            writeln!(f, "{}", line.trim_end())
        };
        render(f, &self.headers)?;
        let total: usize = width.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

/// Renders a schedule as steps x partitions with operation names (the
/// layout of Figures 3.6, 4.11, ...).
pub fn render_schedule(cdfg: &Cdfg, schedule: &Schedule) -> Table {
    let nparts = cdfg.partition_count();
    let mut t = Table::new(
        std::iter::once("step".to_string())
            .chain((1..nparts).map(|p| cdfg.partition(PartitionId::new(p as u32)).name.clone())),
    );
    let lo = schedule.first_step();
    let hi = schedule.last_step();
    for s in lo..=hi {
        let mut cells = vec![s.to_string()];
        for p in 1..nparts {
            let pid = PartitionId::new(p as u32);
            let names: Vec<&str> = schedule
                .ops_at(cdfg, s)
                .into_iter()
                .filter(|&op| {
                    let o = cdfg.op(op);
                    match o.io_endpoints() {
                        Some((_, from, to)) => from == pid || to == pid,
                        None => o.partition == pid,
                    }
                })
                .map(|op| cdfg.op(op).name.as_str())
                .collect();
            cells.push(names.join(" "));
        }
        t.rows.push(cells);
    }
    t
}

/// Renders the bus allocation (control-step groups x buses), the layout of
/// Tables 4.4/4.6/4.8.
pub fn render_bus_allocation(
    cdfg: &Cdfg,
    schedule: &Schedule,
    placements: &BTreeMap<OpId, SlotPlacement>,
) -> Table {
    let nbuses = placements
        .values()
        .map(|p| p.bus.index() + 1)
        .max()
        .unwrap_or(0);
    let mut t = Table::new(
        std::iter::once("steps".to_string()).chain((0..nbuses).map(|h| format!("C{}", h + 1))),
    );
    for g in 0..schedule.rate {
        let mut cells = vec![format!("{g}, {}, ...", g + schedule.rate)];
        for h in 0..nbuses {
            let names: Vec<String> = placements
                .iter()
                .filter(|(_, pl)| {
                    pl.bus.index() == h && pl.step.rem_euclid(schedule.rate as i64) as u32 == g
                })
                .map(|(&op, _)| cdfg.op(op).name.clone())
                .collect();
            cells.push(names.join(" "));
        }
        t.rows.push(cells);
    }
    t
}

/// Renders the initial vs final bus assignment (Tables 4.3, 4.5, ...).
pub fn render_bus_assignment(
    cdfg: &Cdfg,
    initial: &Interconnect,
    placements: &BTreeMap<OpId, SlotPlacement>,
) -> Table {
    let nbuses = initial.buses.len().max(
        placements
            .values()
            .map(|p| p.bus.index() + 1)
            .max()
            .unwrap_or(0),
    );
    let mut t = Table::new(["bus", "initial", "final"]);
    for h in 0..nbuses {
        let mut first: Vec<String> = initial
            .assignment
            .iter()
            .filter(|(_, a)| a.bus.index() == h)
            .map(|(&op, _)| cdfg.op(op).name.clone())
            .collect();
        first.sort();
        let mut last: Vec<String> = placements
            .iter()
            .filter(|(_, pl)| pl.bus.index() == h)
            .map(|(&op, _)| cdfg.op(op).name.clone())
            .collect();
        last.sort();
        t.row([format!("C{}", h + 1), first.join(" "), last.join(" ")]);
    }
    t
}

/// Renders the bus structures themselves: widths, sub-buses and connected
/// ports (the content of Figures 4.8-4.10 and 6.2-6.4).
pub fn render_interconnect(cdfg: &Cdfg, ic: &Interconnect) -> Table {
    let mut t = Table::new(["bus", "width", "sub-buses", "out ports", "in ports"]);
    for (h, bus) in ic.buses.iter().enumerate() {
        let subs = bus
            .sub_widths
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("+");
        let fmt_ports = |ports: &std::collections::BTreeMap<PartitionId, u32>| {
            ports
                .iter()
                .map(|(p, w)| format!("{}:{w}", cdfg.partition(*p).name))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let (outs, ins) = if ic.mode == mcs_cdfg::PortMode::Bidirectional {
            (
                format!("(bidir) {}", fmt_ports(&bus.bi_ports)),
                String::new(),
            )
        } else {
            (fmt_ports(&bus.out_ports), fmt_ports(&bus.in_ports))
        };
        t.row([
            format!("C{}", h + 1),
            bus.width().to_string(),
            subs,
            outs,
            ins,
        ]);
    }
    t
}

/// Renders a recorded trace's per-phase decision summary: merged span
/// count and an event-kind breakdown per phase, the layout `mcs-hls
/// explain` prints. Wall time per phase is in the metrics table's span
/// tree ([`render_metrics`]).
pub fn render_phase_summary(summary: &mcs_obs::summary::TraceSummary) -> Table {
    let mut t = Table::new(["phase", "spans", "events", "breakdown"]);
    for p in &summary.phases {
        let breakdown = p
            .events
            .iter()
            .map(|(kind, n)| format!("{kind}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row([
            p.phase.to_string(),
            p.spans.to_string(),
            p.event_total().to_string(),
            breakdown,
        ]);
    }
    t
}

/// Renders the facts only a recorded trace's decisions carry —
/// reassignments, peak pin pressure per group, reassignments per step
/// and quarantined worker panics — the second table of the `mcs-hls
/// explain` report. Counters live in the metrics table.
pub fn render_trace_aggregates(summary: &mcs_obs::summary::TraceSummary) -> Table {
    let mut t = Table::new(["decision fact", "value"]);
    t.row([
        "bus reassignments".to_string(),
        summary.reassignments.to_string(),
    ]);
    if summary.max_augmenting_path > 0 {
        t.row([
            "longest preemption chain".to_string(),
            summary.max_augmenting_path.to_string(),
        ]);
    }
    for (group, (peak, cap)) in &summary.peak_pin_pressure {
        t.row([
            format!("peak pin pressure [group {group}]"),
            format!("{peak} / {cap}"),
        ]);
    }
    for (step, n) in &summary.reassigns_by_step {
        t.row([format!("reassigns at step {step}"), n.to_string()]);
    }
    t.row([
        "worker panics".to_string(),
        summary.worker_panics.to_string(),
    ]);
    t
}

/// Renders a metrics snapshot — counters, gauges, histogram percentiles
/// and the hierarchical span profile — as the `metrics` table printed by
/// `mcs-hls explain`. Histogram quantiles come from log-linear buckets:
/// exact below 16, within the ~25% bucket width above; `max` is exact.
pub fn render_metrics(snap: &mcs_metrics::Snapshot) -> Table {
    let mut t = Table::new(["metric", "kind", "value", "p50", "p90", "p99", "max"]);
    for (name, v) in &snap.counters {
        t.row([name.clone(), "counter".into(), v.to_string()]);
    }
    for (name, v) in &snap.gauges {
        t.row([name.clone(), "gauge".into(), v.to_string()]);
    }
    for (name, h) in &snap.histograms {
        t.row([
            name.clone(),
            "histogram".into(),
            format!("n={}", h.count),
            h.quantile(0.50).to_string(),
            h.quantile(0.90).to_string(),
            h.quantile(0.99).to_string(),
            h.max.to_string(),
        ]);
    }
    for p in &snap.profile {
        let depth = p.path.matches('/').count();
        t.row([
            format!("{}{}", "  ".repeat(depth), p.path),
            "span".into(),
            format!("{} us x{}", p.wall_us, p.calls),
        ]);
    }
    t
}

/// Counter-name families this binary's flows emit, used by
/// [`metrics_compatibility`] to recognize a loaded metrics file. A name
/// matches when it equals a family or extends it past a `.` boundary
/// (`probe` matches `probe.memo_hits`, not `probes`).
pub const KNOWN_METRIC_FAMILIES: &[&str] = &[
    "connect", "explore", "flow", "ilp", "postsyn", "probe", "rematch", "resynth", "sched", "serve",
];

fn in_known_family(name: &str) -> bool {
    KNOWN_METRIC_FAMILIES.iter().any(|fam| {
        name == *fam
            || (name.len() > fam.len()
                && name.starts_with(fam)
                && name.as_bytes()[fam.len()] == b'.')
    })
}

/// Cross-checks a loaded metrics snapshot against the metric families
/// this binary emits. Returns a diagnostic when the snapshot would
/// render as an empty or unrecognizable table — no samples at all, or
/// counter names from a different (older or newer) binary — so
/// `mcs-hls explain --metrics-in` can report the name mismatch instead
/// of silently printing an empty table. Returns `None` when at least
/// one sampled name is recognized.
pub fn metrics_compatibility(snap: &mcs_metrics::Snapshot) -> Option<String> {
    if snap.counters.is_empty()
        && snap.gauges.is_empty()
        && snap.histograms.is_empty()
        && snap.profile.is_empty()
    {
        return Some("metrics file contains no samples".into());
    }
    let sampled: Vec<&String> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .collect();
    if sampled.is_empty() || sampled.iter().any(|n| in_known_family(n)) {
        // Profile-only files, or at least one recognized name: render.
        return None;
    }
    let mut shown: Vec<&str> = sampled.iter().map(|s| s.as_str()).take(5).collect();
    shown.sort_unstable();
    Some(format!(
        "none of the {} sampled metric names match a family this binary emits \
         (file has: {}{}; expected families: {}) — \
         the metrics file was likely written by a different mcs-hls version",
        sampled.len(),
        shown.join(", "),
        if sampled.len() > shown.len() {
            ", ..."
        } else {
            ""
        },
        KNOWN_METRIC_FAMILIES.join(", "),
    ))
}

/// Renders the portfolio connection search's per-worker telemetry: which
/// configurations raced, how far each got, and who won.
pub fn render_search_stats(stats: &SearchStats) -> Table {
    let mut t = Table::new([
        "worker",
        "plan",
        "outcome",
        "nodes",
        "cache hits",
        "prunes",
        "backtracks",
        "cost",
    ]);
    for w in &stats.workers {
        let marker = if stats.winner == Some(w.index) {
            " *"
        } else {
            ""
        };
        let cost = match w.cost {
            Some((buses, pins)) => format!("{buses} buses / {pins} pins"),
            None => String::from("-"),
        };
        t.row([
            format!("{}{marker}", w.index),
            w.config.clone(),
            w.outcome.to_string(),
            w.nodes.to_string(),
            w.cache_hits.to_string(),
            w.prunes.to_string(),
            w.backtracks.to_string(),
            cost,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_align_columns() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["xxx", "y"]);
        t.row(["z", "wwww"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn schedule_rendering_includes_all_steps() {
        use mcs_cdfg::designs::synthetic;
        use mcs_sched::{list_schedule, ListConfig, NullPolicy};
        let d = synthetic::quickstart();
        let s = list_schedule(d.cdfg(), &ListConfig::new(1), &mut NullPolicy).unwrap();
        let t = render_schedule(d.cdfg(), &s);
        assert_eq!(t.rows.len() as i64, s.last_step() - s.first_step() + 1);
    }

    #[test]
    fn schedule_rendering_places_every_op_once_per_home() {
        use mcs_cdfg::designs::ar_filter;
        use mcs_sched::{list_schedule, ListConfig, NullPolicy};
        let d = ar_filter::simple();
        let s = list_schedule(d.cdfg(), &ListConfig::new(2), &mut NullPolicy).unwrap();
        let t = render_schedule(d.cdfg(), &s);
        let body = t.to_string();
        // Every functional op's name appears in the rendering.
        for op in d.cdfg().func_ops() {
            assert!(
                body.contains(&d.cdfg().op(op).name),
                "{} missing from schedule table",
                d.cdfg().op(op).name
            );
        }
    }

    #[test]
    fn bus_allocation_groups_by_step_modulo_rate() {
        use mcs_cdfg::designs::ar_filter;
        use mcs_cdfg::PortMode;
        use mcs_connect::{synthesize, SearchConfig};
        use mcs_sched::{list_schedule, BusPolicy, ListConfig};
        let rate = 3;
        let d = ar_filter::general(rate, PortMode::Unidirectional);
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(rate)).unwrap();
        let mut policy = BusPolicy::new(ic, rate, true);
        let s = list_schedule(d.cdfg(), &ListConfig::new(rate), &mut policy).unwrap();
        let t = render_bus_allocation(d.cdfg(), &s, policy.placements());
        assert_eq!(t.rows.len(), rate as usize, "one row per step group");
        // Every placed transfer appears exactly once across the body.
        let body: String = t
            .rows
            .iter()
            .flatten()
            .cloned()
            .collect::<Vec<_>>()
            .join(" ");
        for &op in policy.placements().keys() {
            assert!(body.contains(&d.cdfg().op(op).name));
        }
    }

    #[test]
    fn bus_assignment_shows_initial_and_final_columns() {
        use mcs_cdfg::designs::ar_filter;
        use mcs_cdfg::PortMode;
        use mcs_connect::{synthesize, SearchConfig};
        use mcs_sched::{list_schedule, BusPolicy, ListConfig};
        let rate = 3;
        let d = ar_filter::general(rate, PortMode::Unidirectional);
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(rate)).unwrap();
        let mut policy = BusPolicy::new(ic.clone(), rate, true);
        let _ = list_schedule(d.cdfg(), &ListConfig::new(rate), &mut policy).unwrap();
        let t = render_bus_assignment(d.cdfg(), &ic, policy.placements());
        assert_eq!(t.headers, vec!["bus", "initial", "final"]);
        assert!(t.rows.len() >= ic.buses.len());
        // Both sides list the same number of transfers in total.
        let count = |col: usize| -> usize {
            t.rows
                .iter()
                .map(|r| r[col].split_whitespace().count())
                .sum()
        };
        assert_eq!(count(1), count(2));
    }

    #[test]
    fn interconnect_rendering_reports_bidirectional_ports() {
        use mcs_cdfg::designs::ar_filter;
        use mcs_cdfg::PortMode;
        use mcs_connect::{synthesize, SearchConfig};
        let d = ar_filter::general(3, PortMode::Bidirectional);
        let ic = synthesize(d.cdfg(), PortMode::Bidirectional, &SearchConfig::new(3)).unwrap();
        let t = render_interconnect(d.cdfg(), &ic);
        assert!(t.to_string().contains("(bidir)"));
    }

    #[test]
    fn phase_summary_renders_phases_and_aggregates() {
        use crate::flows::{connect_first_flow, ConnectFirstOptions};
        use mcs_cdfg::designs::ar_filter;
        use mcs_cdfg::PortMode;
        use mcs_metrics::MetricsHandle;
        use mcs_obs::{summary::summarize, BufferingRecorder, RecorderHandle};
        use std::sync::Arc;
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let buf = Arc::new(BufferingRecorder::new());
        let mut opts = ConnectFirstOptions::new(3);
        opts.metrics = MetricsHandle::default().with_events(&RecorderHandle::new(buf.clone()));
        connect_first_flow(d.cdfg(), &opts).unwrap();
        let summary = summarize(&buf.events());
        let phases = render_phase_summary(&summary).to_string();
        for phase in ["connect", "schedule", "postsyn", "pin-check"] {
            assert!(phases.contains(phase), "{phase} missing:\n{phases}");
        }
        assert!(phases.contains("ScheduleDecision"));
        let aggregates = render_trace_aggregates(&summary).to_string();
        assert!(aggregates.contains("bus reassignments"));
        assert!(aggregates.contains("peak pin pressure"));
        // Counters are the metrics table's, not the trace's.
        assert!(!aggregates.contains("rematch."), "{aggregates}");
    }

    #[test]
    fn simple_flow_trace_reports_probe_resolution_sources() {
        use crate::flows::{run, FlowSpec, RunContext};
        use mcs_cdfg::designs::synthetic;
        use mcs_metrics::{MetricsHandle, Registry};
        use mcs_obs::{summary::summarize, BufferingRecorder, RecorderHandle};
        use std::sync::Arc;
        let d = synthetic::fig_2_5();
        let buf = Arc::new(BufferingRecorder::new());
        let reg = Arc::new(Registry::new());
        let spec = FlowSpec::Simple {
            rate: 2,
            pivot_budget: None,
        };
        let ctx = RunContext {
            metrics: MetricsHandle::new(reg.clone()).with_events(&RecorderHandle::new(buf.clone())),
            ..RunContext::default()
        };
        run(d.cdfg(), &spec, &ctx).result.unwrap();
        // Each probe is one `ProbeResolved` decision in the schedule
        // phase, and its resolution layer is counted once, as a metric.
        let summary = summarize(&buf.events());
        let sched = summary.phase("schedule").expect("schedule phase");
        assert!(sched.events.get("ProbeResolved").copied().unwrap_or(0) > 0);
        let metrics = render_metrics(&reg.snapshot()).to_string();
        assert!(metrics.contains("probe.memo_hits"), "{metrics}");
        assert!(metrics.contains("probe.solver"), "{metrics}");
    }

    #[test]
    fn metrics_table_renders_all_four_kinds() {
        use std::sync::Arc;
        let clock = Arc::new(mcs_ctl::ManualClock::new());
        let reg = Arc::new(mcs_metrics::Registry::with_clock(clock.clone()));
        let m = mcs_metrics::MetricsHandle::new(reg.clone());
        m.add("ilp.pivots", 7);
        m.gauge_set("explore.frontier", 3);
        m.observe("probe.latency_us.solver", 42);
        {
            let _outer = m.span("flow");
            clock.advance_ms(1);
            let _inner = m.span("schedule");
            clock.advance_ms(2);
        }
        let t = render_metrics(&reg.snapshot()).to_string();
        assert!(t.contains("ilp.pivots"), "{t}");
        assert!(t.contains("counter"), "{t}");
        assert!(t.contains("gauge"), "{t}");
        assert!(t.contains("n=1"), "{t}");
        assert!(t.contains("flow/schedule"), "{t}");
        // The nested span is indented under its parent.
        assert!(t.contains("  flow/schedule"), "{t}");
    }

    #[test]
    fn metrics_compatibility_flags_foreign_and_empty_snapshots() {
        // Empty snapshot: diagnosed, not rendered as an empty table.
        let snap = mcs_metrics::Snapshot::default();
        let diag = metrics_compatibility(&snap).expect("empty snapshot must be diagnosed");
        assert!(diag.contains("no samples"), "{diag}");

        // Counters from a different binary version: every name unknown.
        let reg = std::sync::Arc::new(mcs_metrics::Registry::new());
        let m = mcs_metrics::MetricsHandle::new(reg.clone());
        m.add("legacy.pin_checks", 3);
        m.add("legacy.commits", 9);
        let diag =
            metrics_compatibility(&reg.snapshot()).expect("foreign counters must be diagnosed");
        assert!(diag.contains("legacy.commits"), "{diag}");
        assert!(diag.contains("resynth"), "{diag}");
        assert!(diag.contains("different mcs-hls version"), "{diag}");

        // One recognized family among the names: renderable.
        m.add("ilp.pivots", 1);
        assert_eq!(metrics_compatibility(&reg.snapshot()), None);

        // Family matching respects the `.` boundary: `scheduler.x` must
        // not match the `sched` family.
        let reg = std::sync::Arc::new(mcs_metrics::Registry::new());
        let m = mcs_metrics::MetricsHandle::new(reg.clone());
        m.add("scheduler.steps", 1);
        assert!(metrics_compatibility(&reg.snapshot()).is_some());
    }

    #[test]
    fn ragged_rows_render_without_panicking() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1"]);
        t.row(["1", "2", "3", "4"]);
        let s = t.to_string();
        assert!(s.lines().count() >= 3);
    }
}
