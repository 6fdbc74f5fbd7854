//! # mcs-connect
//!
//! Interchip connection synthesis *before* scheduling: Chapter 4 of the
//! paper (unidirectional and bidirectional I/O ports) and Chapter 6
//! (sub-bus sharing — several values on one bus in a single cycle).
//!
//! * [`model`] — buses, ports, sub-buses, assignments ([`Interconnect`]).
//! * [`bounds`] — the port/bus upper-bound estimation of Section 4.1.1.
//! * [`search`] — the branching heuristic of Figure 4.3 with the gain
//!   function `10000*g1 + 100*g2 + g3`, extended per Sections 4.3 and
//!   6.1.2.
//! * [`ilp_model`] — the exact ILP formulations (Constraints 4.1–4.6 and
//!   6.1–6.10) used to verify the heuristic on small designs.
//!
//! ```
//! use mcs_cdfg::{designs::ar_filter, PortMode};
//! use mcs_connect::{synthesize, SearchConfig};
//!
//! # fn main() -> Result<(), mcs_connect::ConnectError> {
//! let design = ar_filter::general(3, PortMode::Unidirectional);
//! let ic = synthesize(design.cdfg(), PortMode::Unidirectional, &SearchConfig::new(3))?;
//! assert!(ic.verify(design.cdfg()).is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod dot;
pub mod ilp_model;
pub mod model;
pub mod portfolio;
pub mod search;

pub use bounds::bus_upper_bound;
pub use model::{Bus, BusAssignment, Interconnect, SubRange};
pub use portfolio::{
    portfolio_plans, synthesize_with_stats, CandidateOrder, OpOrder, SearchStats, WorkerOutcome,
    WorkerPlan, WorkerReport,
};
pub use search::{share_pass, synthesize, ConnectError, SearchConfig};
