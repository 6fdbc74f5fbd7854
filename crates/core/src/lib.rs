//! # multichip-hls
//!
//! A production-quality Rust reproduction of Yung-Hua Hung, *High-Level
//! Synthesis with Pin Constraints for Multiple-Chip Designs* (USC, 1992).
//!
//! The crate ties the workspace together and exposes the paper's three
//! synthesis methodologies as ready-to-run flows over a partitioned
//! control/data-flow graph ([`mcs_cdfg::Cdfg`]):
//!
//! * [`flows::simple_flow`] — Chapter 3: for *simple* partitionings, list
//!   scheduling guarded by the incremental pin-allocation feasibility
//!   checker (Gomory dual all-integer cuts), with the conflict-free
//!   connection guaranteed by Theorem 3.1 built afterwards.
//! * [`flows::connect_first_flow`] — Chapters 4 and 6: heuristic interchip
//!   connection synthesis first (unidirectional or bidirectional ports,
//!   optional sub-bus sharing), then list scheduling with dynamic bus
//!   reassignment.
//! * [`flows::schedule_first_flow`] — Chapter 5: force-directed scheduling
//!   under a pipe-length constraint, then pin-minimizing connection
//!   synthesis by clique partitioning.
//!
//! ```
//! use mcs_cdfg::designs::ar_filter;
//! use multichip_hls::flows::simple_flow;
//!
//! # fn main() -> Result<(), multichip_hls::flows::FlowError> {
//! let design = ar_filter::simple();
//! let result = simple_flow(design.cdfg(), 2)?;
//! assert!(result.pipe_length > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod differential;
pub mod explore;
pub mod flows;
pub mod netlist;
pub mod report;
pub mod resynth;

pub use mcs_cdfg as cdfg;
pub use mcs_codec as codec;
pub use mcs_conditional as conditional;
pub use mcs_connect as connect;
pub use mcs_explore as explore_engine;
pub use mcs_ilp as ilp;
pub use mcs_matching as matching;
pub use mcs_metrics as metrics;
pub use mcs_obs as obs;
pub use mcs_partition as partition;
pub use mcs_pinalloc as pinalloc;
pub use mcs_postsyn as postsyn;
pub use mcs_sched as sched;
pub use mcs_sim as sim;
