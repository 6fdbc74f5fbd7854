//! `mcs-serve`: synthesis as a service.
//!
//! A zero-external-dependency daemon that turns the `multichip-hls`
//! flows into a long-running service: newline-delimited JSON over a
//! std `TcpListener` (or stdin/stdout in `--stdio` sandbox mode),
//! concurrent `synth`/`explore` jobs on a fixed worker pool with
//! admission control and cheap/expensive lane fairness, per-request
//! execution budgets clamped by server caps, `catch_unwind` quarantine
//! for panicking jobs, and — the headline — a digest-keyed
//! **cross-request warm-start cache** ([`cache::ServeCache`]): repeat
//! designs replay their response in microseconds, and near-repeat
//! Chapter 3 jobs seed their pin checkers with probe memos the way
//! `mcs-explore` sweep points already do.
//!
//! The wire protocol is specified in `docs/SERVE.md`. Every response
//! body is a deterministic function of the request and cache state;
//! wall-clock telemetry lives in the per-daemon `mcs-metrics` registry,
//! scraped via the `metrics` request (JSON or Prometheus text).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod pool;
pub mod proto;
pub mod server;

pub use mcs_codec::json;

pub use cache::{Lookup, ServeCache, ServeEntry, ServeKey};
pub use proto::{ErrorKind, JobFlow, Request};
pub use server::{ServeConfig, Server};
