//! # mcs-pinalloc
//!
//! Chapter 3 of the paper: synthesis support for designs with a *simple*
//! partitioning.
//!
//! * [`simple`] — recognition of Definition 3.2 (`is_simple`,
//!   `check_simple`).
//! * [`PinChecker`] — the pin-allocation ILP of Section 3.1 solved with
//!   Gomory's dual all-integer cutting planes, updated incrementally as
//!   list scheduling places I/O operations (Sections 3.2–3.3). Scheduling
//!   asks [`PinChecker::can_commit`] before every I/O placement, which is
//!   the "safety check" that postponed `I1..I4` to control step 1 in the
//!   paper's AR-filter run.
//! * [`PinIlp`] — the same ILP as rows, with two certificates that
//!   decide most systems without a pivot: a counting bound that refutes
//!   and a checked greedy packing that witnesses.
//! * [`connection`] — the constructive side of Theorem 3.1: conflict-free
//!   link sizing and per-group allocation for the fan-out / fan-in
//!   communication forms of a simple partitioning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod model;

pub mod connection;
pub mod simple;

pub use checker::{
    CommitSavepoint, PinAllocError, PinChecker, ProbeCacheStats, DEFAULT_PIVOT_BUDGET,
    MAX_TABLEAU_VARS,
};
pub use model::PinIlp;
pub use simple::{check_simple, is_simple, SimplicityViolation};
