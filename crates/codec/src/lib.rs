//! # mcs-codec
//!
//! The workspace's one JSON codec and one content hash. Saved resynth
//! results, `mcs-serve` requests and responses, metrics files, trace
//! exports and BENCH lines are all JSON; cache keys and determinism
//! locks are FNV-1a digests. Both live here, in a leaf crate with no
//! dependencies, so every other crate reads, writes and hashes the same
//! way.
//!
//! * [`json`] — the [`json::Json`] value tree, a strict RFC 8259
//!   [`json::parse`] with a nesting cap, and the string
//!   [`json::escape`] every emitter uses.
//! * [`fnv`] — 64-bit FNV-1a: [`fnv::fnv1a`] over a byte slice and the
//!   [`fnv::Fnv`] [`std::hash::Hasher`].
//!
//! ```
//! use mcs_codec::{fnv::fnv1a, json};
//!
//! let v = json::parse(r#"{"digest":18446744073709551615,"name":"a\"b"}"#).unwrap();
//! assert_eq!(v.get("digest").and_then(json::Json::as_u64), Some(u64::MAX));
//! assert_eq!(json::escape("a\"b"), r#"a\"b"#);
//! assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fnv;
pub mod json;
