//! # mcs-explore
//!
//! Deterministic parallel design-space exploration. The dissertation
//! evaluates every benchmark as a *sweep* — initiation rate and per-chip
//! pin budgets varied together, results reported as cost/performance
//! trade-off tables — and this crate turns that workload into a
//! first-class engine:
//!
//! * [`SweepSpec`] — the lattice to explore: initiation rates ×
//!   per-chip pin-budget vectors × flow variant.
//! * [`driver::sweep`] — a work-stealing parallel driver that walks the
//!   lattice in *waves* (one budget vector per wave, most generous
//!   first), claims points within a wave from an atomic counter, and
//!   collects results into canonical slots so the output is a pure
//!   function of the spec no matter how many worker threads run.
//! * dominance pruning — a point proven pin-infeasible at rate `L` and
//!   budget `P` prunes every point at rate `L' <= L` and budget
//!   `P' <= P` (componentwise) without synthesis: fewer control-step
//!   groups and fewer pins only remove allocations, never add them.
//! * [`cache::WarmStartCache`] — a sharded cross-point cache of opaque
//!   warm-start exports (probe memos, refutation certificates),
//!   published only at wave barriers in wave order so every point sees
//!   a deterministic donor list.
//! * [`pareto_frontier`] — the non-dominated set over
//!   `(latency, total pins, buses)`.
//!
//! The crate is intentionally free of synthesis knowledge: a
//! [`PointRunner`] implementation (in `multichip-hls`) maps one lattice
//! point to a synthesis run and decides what warm-start data transfers
//! between points. Everything here — wave order, pruning, caching,
//! collection, serialization — is generic and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod driver;

pub use cache::WarmStartCache;
pub use driver::{sweep, SweepError, SweepOptions};

use mcs_codec::json::escape;

/// Which synthesis flow a sweep exercises at every lattice point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowVariant {
    /// Chapter 3 simple partitioning: schedule under the pin checker.
    Simple,
    /// Chapter 4 connect-first: interconnect before scheduling.
    ConnectFirst,
    /// Force-directed schedule first, resources reported afterwards.
    ScheduleFirst,
}

impl FlowVariant {
    /// Stable lower-case name used in JSON/CSV and on the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            FlowVariant::Simple => "simple",
            FlowVariant::ConnectFirst => "connect-first",
            FlowVariant::ScheduleFirst => "schedule-first",
        }
    }

    /// Inverse of [`FlowVariant::as_str`]; also accepts the CLI
    /// spellings `connect` and `schedule`.
    pub fn parse(s: &str) -> Option<FlowVariant> {
        match s {
            "simple" => Some(FlowVariant::Simple),
            "connect" | "connect-first" => Some(FlowVariant::ConnectFirst),
            "schedule" | "schedule-first" => Some(FlowVariant::ScheduleFirst),
            _ => None,
        }
    }
}

/// The sweep lattice: every rate crossed with every pin-budget vector,
/// all run through one flow variant.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Display name of the design under exploration (labels the output).
    pub design: String,
    /// Flow variant run at every point.
    pub flow: FlowVariant,
    /// Initiation rates, in user order (the output preserves it).
    pub rates: Vec<u32>,
    /// Per-chip pin-budget vectors, in user order. All vectors must
    /// have the same length (one entry per chip).
    pub budgets: Vec<Vec<u32>>,
}

/// A lattice point: one `(rate, budget vector)` pair, identified by
/// indices into the spec so coordinates stay small and hashable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointCoord {
    /// Initiation rate at this point.
    pub rate: u32,
    /// Index into [`SweepSpec::budgets`].
    pub budget_ix: usize,
}

/// How a lattice point ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointStatus {
    /// Synthesis succeeded; the cost fields are populated.
    Feasible,
    /// The exact pin-feasibility gate rejected the point. These
    /// verdicts lift to dominated points (the pruning rule).
    PinInfeasible,
    /// The pin gate passed but the (incomplete) search found no
    /// solution. Does NOT lift: a bigger node budget might succeed.
    SearchFailed,
    /// Skipped without synthesis, dominated by a pin-infeasible point.
    Pruned,
    /// The runner failed for a reason outside the taxonomy above (this
    /// includes a runner panic, which the driver quarantines to the
    /// point's own slot instead of aborting the sweep).
    Error,
    /// Never reached: the sweep's execution budget tripped at a wave
    /// barrier before this point's wave started. The report is still a
    /// complete lattice — an *anytime* result whose frontier covers the
    /// waves that did run.
    Skipped,
}

impl PointStatus {
    /// Stable kebab-case name used in JSON/CSV.
    pub fn as_str(self) -> &'static str {
        match self {
            PointStatus::Feasible => "feasible",
            PointStatus::PinInfeasible => "pin-infeasible",
            PointStatus::SearchFailed => "search-failed",
            PointStatus::Pruned => "pruned",
            PointStatus::Error => "error",
            PointStatus::Skipped => "skipped",
        }
    }
}

/// What a [`PointRunner`] reports for one synthesized point. All fields
/// must be deterministic functions of the point and its seed list —
/// wall-clock measurements belong in the caller's telemetry, not here.
#[derive(Clone, Debug, Default)]
pub struct PointOutcome {
    /// Verdict. [`PointStatus::Pruned`] is reserved for the driver.
    pub status: Option<PointStatus>,
    /// Pipeline latency (schedule length) when feasible.
    pub latency: Option<i64>,
    /// Total pins used across chips when feasible.
    pub total_pins: Option<u32>,
    /// Interchip buses when feasible.
    pub buses: Option<u32>,
    /// Registers in the synthesized netlist when feasible.
    pub registers: Option<u32>,
    /// Pin-probe solver invocations at this point.
    pub solver_probes: u64,
    /// Pin-probe memo hits at this point.
    pub probe_memo_hits: u64,
    /// Pin-probe memo hits answered by warm-start seeds.
    pub probe_seed_hits: u64,
    /// Connection-search nodes expanded at this point.
    pub search_nodes: u64,
    /// Connection-search cache prunes at this point.
    pub search_cache_hits: u64,
    /// Connection-search prunes answered by seeded refutation
    /// certificates.
    pub cert_seed_hits: u64,
    /// Free-form detail (error text); must be deterministic.
    pub detail: String,
}

/// Maps one lattice point to a synthesis run.
///
/// Implementations must be deterministic: the same `(coord, budget,
/// seeds)` triple must produce the same outcome and export, because the
/// driver guarantees the seed list is a pure function of the spec and
/// relies on this to make sweeps byte-identical across worker counts.
///
/// `seeds` are exports from already-completed points at the *same rate*
/// whose budget vectors dominate (are componentwise `>=`) this point's,
/// in deterministic publish order. A pin-infeasible point never
/// contributes an export (the driver drops it), which is what makes
/// dominance pruning invisible to every other point's inputs.
pub trait PointRunner: Sync {
    /// Warm-start payload carried between points (probe memos,
    /// refutation certificates, ...). Opaque to the driver.
    type Export: Send + Sync;

    /// Synthesizes `coord` with pin budgets `budget`, optionally warm
    /// started from `seeds`. Returns the outcome plus this point's own
    /// export for downstream points.
    fn run(
        &self,
        coord: PointCoord,
        budget: &[u32],
        seeds: &[(PointCoord, std::sync::Arc<Self::Export>)],
    ) -> (PointOutcome, Option<Self::Export>);
}

/// One lattice point's result in the final report.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// The point.
    pub coord: PointCoord,
    /// Verdict and measurements.
    pub outcome: PointOutcome,
    /// Resolved status (the driver fills [`PointStatus::Pruned`] in).
    pub status: PointStatus,
}

/// A Pareto-optimal point over `(latency, total pins, buses)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierPoint {
    /// The point.
    pub coord: PointCoord,
    /// Pipeline latency.
    pub latency: i64,
    /// Total pins used.
    pub total_pins: u32,
    /// Interchip buses.
    pub buses: u32,
}

/// Aggregate sweep counters (all deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Lattice points in the spec.
    pub points: u64,
    /// Points actually synthesized.
    pub run: u64,
    /// Points skipped by dominance pruning.
    pub pruned: u64,
    /// Feasible points.
    pub feasible: u64,
    /// Pin-infeasible points (excluding pruned ones).
    pub pin_infeasible: u64,
    /// Search-failed points.
    pub search_failed: u64,
    /// Runner errors (including quarantined runner panics).
    pub errors: u64,
    /// Points never reached because the execution budget tripped.
    pub skipped: u64,
    /// Runner panics quarantined to their own lattice slot.
    pub panics: u64,
    /// How the sweep ended: `Complete`, `WorkerPanicked` (degraded by a
    /// quarantined panic), or the budget verdict that stopped it early.
    pub termination: mcs_ctl::Termination,
    /// Warm-start probe memo hits summed over points.
    pub probe_seed_hits: u64,
    /// Warm-start certificate hits summed over points.
    pub cert_seed_hits: u64,
    /// Exports resident in the warm-start cache at the end.
    pub cache_entries: u64,
}

impl SweepStats {
    /// Total warm-start hits (probe memo + refutation certificates).
    pub fn seed_hits(&self) -> u64 {
        self.probe_seed_hits + self.cert_seed_hits
    }
}

/// The full result of a sweep: per-point outcomes in canonical order
/// (budget vectors in spec order, rates in spec order within each), the
/// Pareto frontier, and aggregate counters. Serialization is
/// hand-rolled and byte-stable: two reports with equal contents render
/// to identical JSON and CSV.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The spec that produced this report.
    pub spec: SweepSpec,
    /// Outcomes, one per lattice point, in canonical order.
    pub outcomes: Vec<ExploreOutcome>,
    /// Pareto frontier over `(latency, total pins, buses)`.
    pub frontier: Vec<FrontierPoint>,
    /// Aggregate counters.
    pub stats: SweepStats,
}

/// Extracts the non-dominated set over `(latency, total pins, buses)`
/// from the feasible outcomes. A point is dominated when another
/// feasible point is no worse on all three axes and strictly better on
/// at least one; cost ties all survive. The frontier is sorted by
/// `(latency, pins, buses, budget_ix, rate)` so it is deterministic.
pub fn pareto_frontier(outcomes: &[ExploreOutcome]) -> Vec<FrontierPoint> {
    let candidates: Vec<FrontierPoint> = outcomes
        .iter()
        .filter(|o| o.status == PointStatus::Feasible)
        .filter_map(|o| {
            Some(FrontierPoint {
                coord: o.coord,
                latency: o.outcome.latency?,
                total_pins: o.outcome.total_pins?,
                buses: o.outcome.buses?,
            })
        })
        .collect();
    let dominates = |a: &FrontierPoint, b: &FrontierPoint| {
        a.latency <= b.latency
            && a.total_pins <= b.total_pins
            && a.buses <= b.buses
            && (a.latency < b.latency || a.total_pins < b.total_pins || a.buses < b.buses)
    };
    let mut frontier: Vec<FrontierPoint> = candidates
        .iter()
        .filter(|p| !candidates.iter().any(|q| dominates(q, p)))
        .copied()
        .collect();
    frontier.sort_by_key(|p| {
        (
            p.latency,
            p.total_pins,
            p.buses,
            p.coord.budget_ix,
            p.coord.rate,
        )
    });
    frontier
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

impl SweepReport {
    /// Strict JSON rendering of the whole report. Byte-stable: contains
    /// no timing, thread or environment information.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024 + self.outcomes.len() * 192);
        s.push_str(&format!(
            "{{\"design\":\"{}\",\"flow\":\"{}\"",
            escape(&self.spec.design),
            self.spec.flow.as_str()
        ));
        s.push_str(",\"rates\":[");
        for (i, r) in self.spec.rates.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_string());
        }
        s.push_str("],\"budgets\":[");
        for (i, b) in self.spec.budgets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, p) in b.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&p.to_string());
            }
            s.push(']');
        }
        s.push_str("],\"points\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rate\":{},\"budget_ix\":{},\"status\":\"{}\",\
                 \"latency\":{},\"pins\":{},\"buses\":{},\"registers\":{},\
                 \"solver_probes\":{},\"probe_memo_hits\":{},\
                 \"probe_seed_hits\":{},\"search_nodes\":{},\
                 \"search_cache_hits\":{},\"cert_seed_hits\":{},\
                 \"detail\":\"{}\"}}",
                o.coord.rate,
                o.coord.budget_ix,
                o.status.as_str(),
                opt(o.outcome.latency),
                opt(o.outcome.total_pins),
                opt(o.outcome.buses),
                opt(o.outcome.registers),
                o.outcome.solver_probes,
                o.outcome.probe_memo_hits,
                o.outcome.probe_seed_hits,
                o.outcome.search_nodes,
                o.outcome.search_cache_hits,
                o.outcome.cert_seed_hits,
                escape(&o.outcome.detail),
            ));
        }
        s.push_str("],\"frontier\":[");
        for (i, p) in self.frontier.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rate\":{},\"budget_ix\":{},\"latency\":{},\"pins\":{},\"buses\":{}}}",
                p.coord.rate, p.coord.budget_ix, p.latency, p.total_pins, p.buses
            ));
        }
        let st = &self.stats;
        s.push_str(&format!(
            "],\"stats\":{{\"points\":{},\"run\":{},\"pruned\":{},\
             \"feasible\":{},\"pin_infeasible\":{},\"search_failed\":{},\
             \"errors\":{},\"skipped\":{},\"panics\":{},\
             \"termination\":\"{}\",\
             \"probe_seed_hits\":{},\"cert_seed_hits\":{},\
             \"cache_entries\":{}}}}}",
            st.points,
            st.run,
            st.pruned,
            st.feasible,
            st.pin_infeasible,
            st.search_failed,
            st.errors,
            st.skipped,
            st.panics,
            st.termination.name(),
            st.probe_seed_hits,
            st.cert_seed_hits,
            st.cache_entries,
        ));
        s
    }

    /// CSV rendering: one row per lattice point in canonical order.
    /// Byte-stable, like [`SweepReport::to_json`].
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "rate,budget_ix,budget,status,latency,pins,buses,registers,\
             probe_seed_hits,cert_seed_hits\n",
        );
        for o in &self.outcomes {
            let budget = self.spec.budgets[o.coord.budget_ix]
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join("|");
            let cell = |v: Option<i64>| v.map_or_else(String::new, |x| x.to_string());
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                o.coord.rate,
                o.coord.budget_ix,
                budget,
                o.status.as_str(),
                cell(o.outcome.latency),
                cell(o.outcome.total_pins.map(i64::from)),
                cell(o.outcome.buses.map(i64::from)),
                cell(o.outcome.registers.map(i64::from)),
                o.outcome.probe_seed_hits,
                o.outcome.cert_seed_hits,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feasible(rate: u32, budget_ix: usize, lat: i64, pins: u32, buses: u32) -> ExploreOutcome {
        ExploreOutcome {
            coord: PointCoord { rate, budget_ix },
            status: PointStatus::Feasible,
            outcome: PointOutcome {
                status: Some(PointStatus::Feasible),
                latency: Some(lat),
                total_pins: Some(pins),
                buses: Some(buses),
                registers: Some(4),
                ..PointOutcome::default()
            },
        }
    }

    #[test]
    fn frontier_keeps_only_non_dominated_points() {
        let outcomes = vec![
            feasible(4, 0, 10, 100, 3),
            // Dominated: same latency, more pins, more buses.
            feasible(5, 0, 10, 120, 4),
            // Trades latency for pins: survives.
            feasible(6, 1, 8, 140, 3),
            // Infeasible points never enter the frontier.
            ExploreOutcome {
                coord: PointCoord {
                    rate: 7,
                    budget_ix: 1,
                },
                status: PointStatus::PinInfeasible,
                outcome: PointOutcome::default(),
            },
        ];
        let frontier = pareto_frontier(&outcomes);
        let coords: Vec<(u32, usize)> = frontier
            .iter()
            .map(|p| (p.coord.rate, p.coord.budget_ix))
            .collect();
        assert_eq!(coords, vec![(6, 1), (4, 0)]);
    }

    #[test]
    fn frontier_cost_ties_all_survive() {
        let outcomes = vec![feasible(4, 0, 10, 100, 3), feasible(5, 1, 10, 100, 3)];
        assert_eq!(pareto_frontier(&outcomes).len(), 2);
    }

    #[test]
    fn report_json_is_strict_and_csv_row_count_matches() {
        let spec = SweepSpec {
            design: "unit".into(),
            flow: FlowVariant::Simple,
            rates: vec![4, 5],
            budgets: vec![vec![64, 64]],
        };
        let outcomes = vec![
            feasible(4, 0, 10, 100, 3),
            ExploreOutcome {
                coord: PointCoord {
                    rate: 5,
                    budget_ix: 0,
                },
                status: PointStatus::Pruned,
                outcome: PointOutcome {
                    detail: "dominated by rate 6, budget 0".into(),
                    ..PointOutcome::default()
                },
            },
        ];
        let frontier = pareto_frontier(&outcomes);
        let report = SweepReport {
            spec,
            outcomes,
            frontier,
            stats: SweepStats {
                points: 2,
                run: 1,
                pruned: 1,
                feasible: 1,
                ..SweepStats::default()
            },
        };
        let json = report.to_json();
        mcs_codec::json::parse(&json).expect("strict JSON");
        assert!(json.contains("\"status\":\"pruned\""));
        assert_eq!(report.to_csv().lines().count(), 1 + 2);
    }

    #[test]
    fn flow_variant_names_round_trip() {
        for f in [
            FlowVariant::Simple,
            FlowVariant::ConnectFirst,
            FlowVariant::ScheduleFirst,
        ] {
            assert_eq!(FlowVariant::parse(f.as_str()), Some(f));
        }
        assert_eq!(FlowVariant::parse("nope"), None);
    }

    #[test]
    fn flow_variant_parses_the_cli_spellings() {
        assert_eq!(
            FlowVariant::parse("connect"),
            Some(FlowVariant::ConnectFirst)
        );
        assert_eq!(
            FlowVariant::parse("schedule"),
            Some(FlowVariant::ScheduleFirst)
        );
        assert_eq!(FlowVariant::ConnectFirst.as_str(), "connect-first");
    }
}
