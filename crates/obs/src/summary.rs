//! Aggregation of a recorded event stream into the facts only the
//! decisions carry: event counts per phase, peak pin pressure per
//! control-step group, bus reassignments per step, and quarantined
//! worker panics. Counters and per-phase wall time are not derived here;
//! they live in the metrics registry (`mcs_metrics`), so a report states
//! each fact once.

use crate::Event;
use std::collections::BTreeMap;

/// Aggregates for one named phase (merged across repeated spans of the
/// same name, e.g. per-attempt scheduling passes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase name.
    pub phase: &'static str,
    /// Number of spans merged into this row.
    pub spans: u64,
    /// Events attributed to this phase (innermost enclosing span wins),
    /// keyed by event kind.
    pub events: BTreeMap<&'static str, u64>,
}

impl PhaseSummary {
    /// Total events attributed to this phase.
    pub fn event_total(&self) -> u64 {
        self.events.values().sum()
    }
}

/// Whole-trace aggregation produced by [`summarize`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Phases in order of first appearance.
    pub phases: Vec<PhaseSummary>,
    /// All recorded events, including ones outside any phase.
    pub total_events: u64,
    /// Peak `pins_used` observed per control-step group (from
    /// [`Event::PinCheck`]), with the capacity it was checked against.
    pub peak_pin_pressure: BTreeMap<u32, (u32, u32)>,
    /// Bus reassignments per control step (from [`Event::BusReassign`]).
    pub reassigns_by_step: BTreeMap<i64, u64>,
    /// Total bus reassignments.
    pub reassignments: u64,
    /// Longest augmenting/preemption chain seen in a reassignment.
    pub max_augmenting_path: u32,
    /// Worker panics quarantined across all pools (from
    /// [`Event::WorkerPanic`]); nonzero means the run's result is
    /// degraded — some portion of the search space went unexplored.
    pub worker_panics: u64,
}

impl TraceSummary {
    /// The summary row for `phase`, if that phase appeared.
    pub fn phase(&self, phase: &str) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.phase == phase)
    }
}

/// Folds an event stream into a [`TraceSummary`]. Events are attributed
/// to the innermost open phase at the point they occur; a phase left
/// unclosed (e.g. by a flow aborted with an error) simply stops
/// collecting at the end of the stream.
pub fn summarize(events: &[Event]) -> TraceSummary {
    let mut out = TraceSummary::default();
    // Stack of (phase name, index into out.phases).
    let mut open: Vec<(&'static str, usize)> = Vec::new();

    for event in events {
        out.total_events += 1;
        match *event {
            Event::PhaseBegin { phase } => {
                let i = match out.phases.iter().position(|p| p.phase == phase) {
                    Some(i) => i,
                    None => {
                        out.phases.push(PhaseSummary {
                            phase,
                            ..PhaseSummary::default()
                        });
                        out.phases.len() - 1
                    }
                };
                out.phases[i].spans += 1;
                open.push((phase, i));
            }
            Event::PhaseEnd { phase } => {
                // Close the innermost span of this name; tolerate
                // mismatched ends rather than panicking in a reporter.
                if let Some(pos) = open.iter().rposition(|(p, _)| *p == phase) {
                    open.remove(pos);
                }
            }
            ref ev => {
                if let Some(&(_, i)) = open.last() {
                    *out.phases[i].events.entry(ev.kind()).or_insert(0) += 1;
                }
                match *ev {
                    Event::PinCheck {
                        group,
                        pins_used,
                        cap,
                        ..
                    } => {
                        let entry = out.peak_pin_pressure.entry(group).or_insert((0, cap));
                        if pins_used >= entry.0 {
                            *entry = (pins_used, cap);
                        }
                    }
                    Event::BusReassign {
                        step,
                        augmenting_path_len,
                        ..
                    } => {
                        *out.reassigns_by_step.entry(step).or_insert(0) += 1;
                        out.reassignments += 1;
                        out.max_augmenting_path = out.max_augmenting_path.max(augmenting_path_len);
                    }
                    Event::WorkerPanic { .. } => out.worker_panics += 1,
                    _ => {}
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlaceVerdict;

    #[test]
    fn attributes_events_to_innermost_phase_and_counts_spans() {
        let stream = vec![
            Event::PhaseBegin { phase: "connect" },
            Event::SearchNode {
                worker: 0,
                epoch: 1,
                nodes: 10,
                prunes: 0,
                backtracks: 0,
            },
            Event::PhaseBegin { phase: "schedule" },
            Event::ScheduleDecision {
                op: 1,
                step: 0,
                verdict: PlaceVerdict::Placed,
            },
            Event::GomoryCut {
                round: 0,
                pivot: 1,
                objective: -2,
            },
            Event::PhaseEnd { phase: "schedule" },
            Event::PhaseEnd { phase: "connect" },
            // Second span of an existing phase merges into the same row.
            Event::PhaseBegin { phase: "schedule" },
            Event::PhaseEnd { phase: "schedule" },
        ];
        let s = summarize(&stream);
        assert_eq!(s.total_events, 9);
        let connect = s.phase("connect").expect("connect row");
        assert_eq!(connect.spans, 1);
        assert_eq!(connect.events.get("SearchNode"), Some(&1));
        assert_eq!(connect.events.get("ScheduleDecision"), None);
        let sched = s.phase("schedule").expect("schedule row");
        assert_eq!(sched.spans, 2);
        assert_eq!(sched.event_total(), 2);
        assert_eq!(sched.events.get("GomoryCut"), Some(&1));
    }

    #[test]
    fn tracks_pin_pressure_and_reassigns() {
        let stream = vec![
            Event::PinCheck {
                group: 0,
                pins_used: 10,
                cap: 16,
                verdict: true,
            },
            Event::PinCheck {
                group: 0,
                pins_used: 14,
                cap: 16,
                verdict: true,
            },
            Event::PinCheck {
                group: 1,
                pins_used: 4,
                cap: 8,
                verdict: false,
            },
            Event::BusReassign {
                op: 7,
                step: 2,
                from_bus: 0,
                to_bus: 1,
                augmenting_path_len: 3,
            },
            Event::BusReassign {
                op: 8,
                step: 2,
                from_bus: 1,
                to_bus: 0,
                augmenting_path_len: 0,
            },
        ];
        let s = summarize(&stream);
        assert_eq!(s.peak_pin_pressure.get(&0), Some(&(14, 16)));
        assert_eq!(s.peak_pin_pressure.get(&1), Some(&(4, 8)));
        assert_eq!(s.reassigns_by_step.get(&2), Some(&2));
        assert_eq!(s.reassignments, 2);
        assert_eq!(s.max_augmenting_path, 3);
        assert!(s.phases.is_empty());
    }

    #[test]
    fn counts_worker_panics() {
        let stream = vec![
            Event::WorkerPanic {
                pool: "portfolio",
                worker: 1,
                epoch: 2,
            },
            Event::WorkerPanic {
                pool: "explore",
                worker: 0,
                epoch: 1,
            },
        ];
        let s = summarize(&stream);
        assert_eq!(s.worker_panics, 2);
    }

    #[test]
    fn unclosed_phase_is_closed_at_last_event() {
        let stream = vec![
            Event::PhaseBegin { phase: "connect" },
            Event::PinCheck {
                group: 0,
                pins_used: 1,
                cap: 2,
                verdict: true,
            },
        ];
        let s = summarize(&stream);
        assert_eq!(s.phase("connect").expect("row").event_total(), 1);
    }
}
