//! # mcs-sched
//!
//! The scheduling engines of the `multichip-hls` workspace:
//!
//! * [`list_schedule`] — resource-constrained list scheduling of all
//!   partitions at once (Section 3.2), consulting a pluggable
//!   [`IoPolicy`] before each I/O placement: [`PinPolicy`] wraps the
//!   Chapter 3 pin-allocation feasibility checker; [`BusPolicy`] allocates
//!   communication slots on a fixed interchip connection with the dynamic
//!   bus reassignment of Section 4.2.
//! * [`fds_schedule`] — force-directed scheduling (Section 5.1) used by
//!   the schedule-first flow of Chapter 5.
//! * [`AllocationWheel`] — multi-cycle operation binding with the
//!   fragmentation safety check of Section 7.4.
//! * [`Schedule`]/[`validate`] — schedule representation and a full
//!   constraint validator (precedence with chaining, placement rules,
//!   resources, recursive-edge maximum time constraints).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus_policy;
mod fds;
mod list;
mod schedule;
mod wheel;

pub use bus_policy::{BusPolicy, SlotPlacement};
pub use fds::{fds_schedule, FdsConfig};
pub use list::{
    feedback_consumers, list_schedule, IoPolicy, ListConfig, NullPolicy, PinPolicy, SchedError,
};
pub use schedule::{validate, Schedule, ScheduleViolation};
pub use wheel::{AllocationWheel, WheelError};
