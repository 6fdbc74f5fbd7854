//! # mcs-obs
//!
//! Zero-external-dependency decision-event vocabulary for the
//! `multichip-hls` pipeline: typed [`Event`]s, the thread-safe
//! [`Recorder`] sink, and the exporters and per-phase summary over a
//! recorded stream.
//!
//! Every heuristic decision the synthesis pipeline makes — postponing an
//! I/O operation, rejecting a pin-allocation probe, pivoting on a Gomory
//! cut, reassigning a transfer to another bus, expanding a portfolio
//! search epoch — can be captured as an [`Event`] and later exported as a
//! Chrome `trace_event` JSON (loadable in `chrome://tracing` / Perfetto)
//! or newline-delimited JSON, or aggregated into a per-phase summary
//! ([`summary::summarize`]).
//!
//! Layers do not hold a recorder themselves: a [`RecorderHandle`] rides
//! as the optional event sink of `mcs_metrics::MetricsHandle`, the one
//! telemetry handle, whose profiler spans also emit the
//! [`Event::PhaseBegin`]/[`Event::PhaseEnd`] pairs. Counters and wall
//! time live in the metrics registry, not in the event stream.
//!
//! The design center is *zero cost when off*: the default handle holds no
//! recorder, so a disabled site costs one branch — no allocation, no
//! dynamic dispatch, no locking. [`Event`] payloads carry only
//! deterministic data (ids, steps, counts); wall-clock timestamps are
//! attached by the recording side ([`TimedEvent`]), so the event
//! *stream* of a deterministic algorithm is itself deterministic and can
//! be compared across thread counts.
//!
//! ```
//! use mcs_obs::{BufferingRecorder, Event, PlaceVerdict, RecorderHandle};
//! use std::sync::Arc;
//!
//! let buf = Arc::new(BufferingRecorder::new());
//! let rec = RecorderHandle::new(buf.clone());
//! rec.record(Event::ScheduleDecision {
//!     op: 7,
//!     step: 3,
//!     verdict: PlaceVerdict::Placed,
//! });
//! assert_eq!(buf.events().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod summary;

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Why an I/O placement attempt succeeded or failed — the accurate
/// split of the bus allocator's rejection modes (previously conflated
/// into a single boolean).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlaceVerdict {
    /// The operation was placed (committed a fresh communication slot).
    Placed,
    /// The operation rode an already-occupied slot of the same value in
    /// the same step (Section 4.4.2's free ride).
    SharedSlot,
    /// No bus is geometrically capable of carrying the transfer (ports,
    /// widths), so no candidate existed at all.
    NoCapableBus,
    /// Every capable bus's slot in the step's group is occupied by a
    /// conflicting transfer — a same-cycle transfer violation.
    SameCycleConflict,
    /// A free slot exists but taking it would strand a pending transfer
    /// (the bipartite matching of Figure 4.5 has no perfect solution).
    PendingInfeasible,
    /// The pin-allocation ILP proves no completion exists if the
    /// operation takes pins in this step's group (Chapter 3 checker).
    PinInfeasible,
}

impl PlaceVerdict {
    /// Whether the attempt committed a placement.
    pub fn placed(self) -> bool {
        matches!(self, PlaceVerdict::Placed | PlaceVerdict::SharedSlot)
    }

    /// Stable lowercase name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            PlaceVerdict::Placed => "placed",
            PlaceVerdict::SharedSlot => "shared-slot",
            PlaceVerdict::NoCapableBus => "no-capable-bus",
            PlaceVerdict::SameCycleConflict => "same-cycle-conflict",
            PlaceVerdict::PendingInfeasible => "pending-infeasible",
            PlaceVerdict::PinInfeasible => "pin-infeasible",
        }
    }
}

impl std::fmt::Display for PlaceVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Which layer of the probe engine decided a pin-feasibility probe —
/// cheapest first: the memo cache, the surrogate capacity bound, or an
/// actual tableau solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProbeSource {
    /// Answered from the probe memo cache (same commit epoch).
    Memo,
    /// Rejected by the surrogate group-capacity bound without pivoting.
    Surrogate,
    /// Decided by a checkpoint → solve → rollback of the ILP tableau.
    Solver,
}

impl ProbeSource {
    /// Stable lowercase name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            ProbeSource::Memo => "memo",
            ProbeSource::Surrogate => "surrogate",
            ProbeSource::Solver => "solver",
        }
    }
}

impl std::fmt::Display for ProbeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One structured pipeline event. Payloads are plain deterministic data;
/// identifiers are the raw `u32` indices of the workspace's id newtypes
/// so this crate depends on nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A named pipeline phase starts (`schedule`, `connect`, ...);
    /// emitted by `mcs_metrics::MetricsHandle::span`.
    PhaseBegin {
        /// Phase name.
        phase: &'static str,
    },
    /// The innermost open phase of this name ends.
    PhaseEnd {
        /// Phase name.
        phase: &'static str,
    },
    /// The list scheduler consulted its I/O policy for an operation.
    ScheduleDecision {
        /// Raw id of the I/O operation.
        op: u32,
        /// Control step attempted.
        step: i64,
        /// Outcome, with the accurate failure reason.
        verdict: PlaceVerdict,
    },
    /// A pin-allocation pressure probe: how many pin-bits group `group`
    /// carries against its capacity, and whether the check passed.
    PinCheck {
        /// Control-step group `step mod L`.
        group: u32,
        /// Pin-bits used (committed load of the group).
        pins_used: u32,
        /// Capacity the load is checked against.
        cap: u32,
        /// Whether the check passed.
        verdict: bool,
    },
    /// One dual all-integer Gomory pivot inside a feasibility solve.
    GomoryCut {
        /// Pivot index within the enclosing solve call.
        round: u32,
        /// Nonbasic column pivoted on.
        pivot: u32,
        /// Constant-column value of the violated row (the infeasibility
        /// being cut; more negative = further from feasible).
        objective: i64,
    },
    /// A transfer moved to a different bus than initially assigned
    /// (Section 4.2 dynamic reassignment / preemption chain).
    BusReassign {
        /// Raw id of the transferred I/O operation.
        op: u32,
        /// Control step of the transfer.
        step: i64,
        /// Initially assigned bus.
        from_bus: u32,
        /// Bus finally carrying the transfer.
        to_bus: u32,
        /// Length of the augmenting/preemption chain that freed the slot
        /// (0 for a direct move onto a free slot).
        augmenting_path_len: u32,
    },
    /// A pin-feasibility probe was resolved by the copy-free probe
    /// engine, with which layer decided it and how deep the tableau
    /// rollback ran.
    ProbeResolved {
        /// Raw solver-variable index probed.
        var: u32,
        /// Increment probed (`x_var >= committed + by`).
        by: i64,
        /// Whether the probe found the system still feasible.
        verdict: bool,
        /// Layer that produced the verdict.
        source: ProbeSource,
        /// Undo-trail entries rolled back to restore the tableau
        /// (0 for memo/surrogate answers).
        trail_depth: u64,
    },
    /// One portfolio worker's expansion totals for one epoch (recorded
    /// at the barrier, in portfolio-index order — deterministic across
    /// thread counts).
    SearchNode {
        /// Portfolio index of the worker.
        worker: u32,
        /// Epoch number (1-based).
        epoch: u32,
        /// Nodes expanded this epoch.
        nodes: u64,
        /// Dead-end prunes this epoch.
        prunes: u64,
        /// Backtracks this epoch.
        backtracks: u64,
    },
    /// A parallel worker panicked and was quarantined; the run continued
    /// degraded, without that worker's contribution. Recorded at the
    /// synchronization barrier in worker order, so the stream stays
    /// deterministic when the panic itself is deterministic.
    WorkerPanic {
        /// Which worker pool ("portfolio", "explore", ...).
        pool: &'static str,
        /// Index of the panicked worker within the pool.
        worker: u32,
        /// Epoch / wave at whose barrier the panic surfaced (1-based).
        epoch: u32,
    },
}

impl Event {
    /// Stable name of the event type, used by the exporters and the
    /// per-phase summary.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PhaseBegin { .. } => "PhaseBegin",
            Event::PhaseEnd { .. } => "PhaseEnd",
            Event::ScheduleDecision { .. } => "ScheduleDecision",
            Event::PinCheck { .. } => "PinCheck",
            Event::GomoryCut { .. } => "GomoryCut",
            Event::BusReassign { .. } => "BusReassign",
            Event::ProbeResolved { .. } => "ProbeResolved",
            Event::SearchNode { .. } => "SearchNode",
            Event::WorkerPanic { .. } => "WorkerPanic",
        }
    }
}

/// An [`Event`] with the recording wall-clock timestamp, in microseconds
/// since the recorder was created. Timing lives here — outside the
/// payload — so event streams stay comparable across runs.
#[derive(Clone, Debug)]
pub struct TimedEvent {
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// The deterministic payload.
    pub event: Event,
}

/// A thread-safe sink for pipeline events.
pub trait Recorder: Send + Sync {
    /// Consumes one event. Implementations must be cheap and must not
    /// panic: instrumentation sites sit on hot paths.
    fn record(&self, event: Event);
}

/// Soft cap on buffered events before further ones are counted but
/// dropped — a runaway-instrumentation backstop, surfaced loudly via
/// [`BufferingRecorder::dropped`] rather than silently truncated.
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

struct Buffer {
    events: Vec<TimedEvent>,
    dropped: u64,
}

/// A recorder buffering timestamped events in memory for later export
/// or summarization.
pub struct BufferingRecorder {
    epoch: Instant,
    cap: usize,
    buf: Mutex<Buffer>,
}

impl Default for BufferingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferingRecorder {
    /// A recorder with the default event cap.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAP)
    }

    /// A recorder keeping at most `cap` events; further events increment
    /// the dropped counter instead.
    pub fn with_capacity(cap: usize) -> Self {
        BufferingRecorder {
            epoch: Instant::now(),
            cap,
            buf: Mutex::new(Buffer {
                events: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// Snapshot of the timestamped events recorded so far.
    pub fn timed_events(&self) -> Vec<TimedEvent> {
        self.buf.lock().expect("obs buffer lock").events.clone()
    }

    /// Snapshot of the deterministic payloads only (no timestamps) —
    /// the stream to compare across runs and thread counts.
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .expect("obs buffer lock")
            .events
            .iter()
            .map(|t| t.event.clone())
            .collect()
    }

    /// How many events were dropped at the cap.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().expect("obs buffer lock").dropped
    }
}

impl Recorder for BufferingRecorder {
    fn record(&self, event: Event) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let mut buf = self.buf.lock().expect("obs buffer lock");
        if buf.events.len() >= self.cap {
            buf.dropped += 1;
            return;
        }
        buf.events.push(TimedEvent { ts_us, event });
    }
}

/// A cheap, clonable handle to an optional recorder. The default handle
/// is inactive and allocation-free: `record` is a single predicted
/// branch, so instrumented hot paths cost nothing when tracing is off.
/// Pipeline layers reach it through `mcs_metrics::MetricsHandle`, which
/// carries it as its decision-event sink.
#[derive(Clone, Default)]
pub struct RecorderHandle(Option<Arc<dyn Recorder>>);

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RecorderHandle({})",
            if self.enabled() { "active" } else { "off" }
        )
    }
}

impl RecorderHandle {
    /// An active handle over a concrete recorder.
    pub fn new(rec: Arc<dyn Recorder>) -> Self {
        RecorderHandle(Some(rec))
    }

    /// Whether events recorded through this handle go anywhere. Sites
    /// with non-trivial payload construction should gate on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event (no-op on an inactive handle).
    #[inline]
    pub fn record(&self, event: Event) {
        if let Some(rec) = &self.0 {
            rec.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_is_inactive_and_records_nothing() {
        let rec = RecorderHandle::default();
        assert!(!rec.enabled());
        rec.record(Event::PhaseBegin { phase: "p" });
        // Nothing observable; the point is that none of this panics or
        // allocates a buffer.
    }

    #[test]
    fn buffering_recorder_keeps_order_and_timestamps() {
        let buf = Arc::new(BufferingRecorder::new());
        let rec = RecorderHandle::new(buf.clone());
        rec.record(Event::PhaseBegin { phase: "schedule" });
        rec.record(Event::ScheduleDecision {
            op: 3,
            step: 5,
            verdict: PlaceVerdict::SameCycleConflict,
        });
        rec.record(Event::PhaseEnd { phase: "schedule" });
        let events = buf.events();
        assert_eq!(
            events,
            vec![
                Event::PhaseBegin { phase: "schedule" },
                Event::ScheduleDecision {
                    op: 3,
                    step: 5,
                    verdict: PlaceVerdict::SameCycleConflict,
                },
                Event::PhaseEnd { phase: "schedule" },
            ]
        );
        let timed = buf.timed_events();
        assert!(timed.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn cap_drops_loudly() {
        let buf = Arc::new(BufferingRecorder::with_capacity(2));
        let rec = RecorderHandle::new(buf.clone());
        for step in 0..5 {
            rec.record(Event::ScheduleDecision {
                op: 0,
                step,
                verdict: PlaceVerdict::Placed,
            });
        }
        assert_eq!(buf.events().len(), 2);
        assert_eq!(buf.dropped(), 3);
    }

    #[test]
    fn verdict_names_are_stable() {
        assert!(PlaceVerdict::Placed.placed());
        assert!(PlaceVerdict::SharedSlot.placed());
        assert!(!PlaceVerdict::SameCycleConflict.placed());
        assert_eq!(PlaceVerdict::NoCapableBus.name(), "no-capable-bus");
        assert_eq!(PlaceVerdict::PinInfeasible.to_string(), "pin-infeasible");
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let buf = Arc::new(BufferingRecorder::new());
        let rec = RecorderHandle::new(buf.clone());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    for epoch in 0..100 {
                        rec.record(Event::WorkerPanic {
                            pool: "t",
                            worker: t,
                            epoch,
                        });
                    }
                });
            }
        });
        assert_eq!(buf.events().len(), 400);
    }
}
