//! # mcs-cdfg
//!
//! The control/data-flow graph (CDFG) intermediate representation used by
//! the `multichip-hls` workspace — a reproduction of Yung-Hua Hung,
//! *High-Level Synthesis with Pin Constraints for Multiple-Chip Designs*
//! (USC, 1992).
//!
//! A [`Cdfg`] is a partitioned dataflow graph. Nodes are functional
//! operations or I/O transfer operations; arcs carry values and a recursion
//! *degree* (Section 7.1 of the paper). Partitions model chips with pin
//! budgets and functional-unit resource constraints; partition 0 is the
//! pseudo environment chip representing the outside world.
//!
//! The crate also ships the two benchmark designs used throughout the
//! paper's evaluation — the AR lattice filter and the fifth-order elliptic
//! wave filter — plus the small synthetic graphs of Figures 2.3, 2.5 and
//! 7.4, under [`designs`].
//!
//! ```
//! use mcs_cdfg::{designs, timing};
//!
//! let design = designs::elliptic::partitioned();
//! // The modified elliptic filter admits an initiation rate of 5
//! // (critical loop of 20 cycles, recursion degree 4; Section 4.4.2).
//! assert_eq!(timing::min_initiation_rate(design.cdfg()), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod ids;
mod library;

pub mod delta;
pub mod designs;
pub mod dot;
pub mod format;
pub mod fuzz;
pub mod timing;

pub use graph::{
    Cdfg, CdfgBuilder, ConditionVector, Edge, GraphError, OpKind, Operation, Partition, PortMode,
    Value, MAX_DEGREE, MAX_PARTITION_PINS, MAX_UNITS, MAX_VALUE_BITS,
};
pub use ids::{BusId, CondId, EdgeId, OpId, PartitionId, ValueId};
pub use library::{Library, Module, OperatorClass};
