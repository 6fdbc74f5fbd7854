//! The cross-request warm-start tier: a digest-keyed view over
//! [`mcs_explore::WarmStartCache`].
//!
//! After every job that runs to a *complete* termination (success or a
//! definitive failure), the daemon publishes the job's canonical
//! response body plus its [`WarmStart`] exports under a key derived from
//! the design digest, the rate and the effective pin-budget vector. Only
//! a successful Chapter 3 job has exports (the `PinChecker` epoch-0 probe
//! memo); every other entry carries none. Lookups then tier:
//!
//! 1. **Exact hit** — same key: the stored response body is replayed
//!    inline on the connection thread, no pool dispatch, microseconds.
//! 2. **Near-repeat** (tagged `warm`) — same design/flow/rate, a donor
//!    budget vector that componentwise dominates the request's: the
//!    donor's `false` probe verdicts seed the new run, exactly the
//!    transfer rule `mcs-explore` applies between sweep points. A donor
//!    without exports (any connect-first entry) seeds nothing, so that
//!    job runs as a cold one would; the tag still says a donor was found.
//! 3. **Cold** — no donor; the job runs from scratch.
//!
//! Interrupted runs never publish: a deadline trip is not evidence
//! about the design, and replaying it would bake scheduling noise into
//! a deterministic surface.
//!
//! The digest in the key is *budget-normalized* (chip pin budgets are
//! zeroed before hashing), so the same structure under different
//! budgets shares a digest and near-repeat seeding can find it.

use mcs_cdfg::fuzz::design_digest;
use mcs_cdfg::{Cdfg, PartitionId};
use mcs_explore::{dominates, WarmStartCache};
use multichip_hls::explore::with_pin_budgets;
use multichip_hls::flows::WarmStart;

use crate::proto::JobFlow;

/// Cache key: budget-normalized design digest, flow, rate, effective
/// pin-budget vector. Explore jobs use [`ServeKey::explore`], which
/// folds the whole lattice into the budget vector and a reserved flow
/// code so sweep entries are exact-replay-only (never donors).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ServeKey {
    /// [`normalized_digest`] of the design.
    pub digest: u64,
    /// Flow code: 0 simple, 1 connect, 2/3 the explore variants,
    /// 4 resynth.
    pub flow: u8,
    /// Initiation rate (0 for explore keys).
    pub rate: u32,
    /// Effective per-chip budgets (synth) or encoded lattice (explore).
    pub budgets: Vec<u32>,
}

impl ServeKey {
    /// Key for a synth job.
    pub fn synth(digest: u64, flow: JobFlow, rate: u32, budgets: Vec<u32>) -> ServeKey {
        ServeKey {
            digest,
            flow: match flow {
                JobFlow::Simple => 0,
                JobFlow::Connect => 1,
            },
            rate,
            budgets,
        }
    }

    /// Key for a resynth job: `(parent digest, previous result, delta)`.
    /// The parent design digest is the primary digest; the canonical
    /// previous-result digest and the delta digest are folded into the
    /// budget vector. Flow code 4 keeps resynth entries
    /// exact-replay-only — like explore keys, they never donate seeds.
    pub fn resynth(digest: u64, prev_digest: u64, delta_digest: u64) -> ServeKey {
        ServeKey {
            digest,
            flow: 4,
            rate: 0,
            budgets: vec![
                (prev_digest >> 32) as u32,
                prev_digest as u32,
                (delta_digest >> 32) as u32,
                delta_digest as u32,
            ],
        }
    }

    /// Key for an explore job: the lattice is flattened into the budget
    /// vector (`rates.len`, rates, then each budget vector) so equality
    /// means the identical sweep.
    pub fn explore(digest: u64, flow: JobFlow, rates: &[u32], budgets: &[Vec<u32>]) -> ServeKey {
        let mut encoded = Vec::with_capacity(1 + rates.len());
        encoded.push(rates.len() as u32);
        encoded.extend_from_slice(rates);
        for b in budgets {
            encoded.push(b.len() as u32);
            encoded.extend_from_slice(b);
        }
        ServeKey {
            digest,
            flow: match flow {
                JobFlow::Simple => 2,
                JobFlow::Connect => 3,
            },
            rate: 0,
            budgets: encoded,
        }
    }
}

/// What one completed job publishes.
#[derive(Clone, Debug, Default)]
pub struct ServeEntry {
    /// The run's warm-start exports; only what [`WarmStart::adopt`]
    /// keeps transfers to dominated budgets.
    pub exports: WarmStart,
    /// Canonical response body (no `cache` member) for exact replay.
    pub body: String,
}

/// Outcome of a cache lookup, in decreasing warmth.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// Exact key match: replay this stored response body.
    Hit(String),
    /// Same design/flow/rate under dominating budgets: seed the run
    /// with what the donors export.
    Warm(WarmStart),
    /// Nothing applicable.
    Cold,
}

/// The server-wide cache: a size-bounded [`WarmStartCache`] keyed by
/// [`ServeKey`]. Eviction is LRU over publications (deterministic; see
/// the `mcs-explore` cache docs), with the eviction count surfaced for
/// the `cache` request and the metrics registry.
pub struct ServeCache {
    inner: WarmStartCache<ServeKey, ServeEntry>,
}

impl ServeCache {
    /// A cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> ServeCache {
        ServeCache {
            inner: WarmStartCache::with_capacity(capacity),
        }
    }

    /// Publishes a completed job's entry.
    pub fn insert(&self, key: ServeKey, entry: ServeEntry) {
        self.inner.insert(key, entry);
    }

    /// Tiered lookup: exact hit, then donor seeding, then cold.
    pub fn lookup(&self, key: &ServeKey) -> Lookup {
        if let Some(entry) = self.inner.get(key) {
            return Lookup::Hit(entry.body.clone());
        }
        // Explore keys never seed: their budget vector is an encoded
        // lattice, not a per-chip vector, so dominance is meaningless.
        if key.flow > 1 {
            return Lookup::Cold;
        }
        let mut seeds: Option<WarmStart> = None;
        for donor in self.inner.keys() {
            let applicable = donor.digest == key.digest
                && donor.flow == key.flow
                && donor.rate == key.rate
                && dominates(&donor.budgets, &key.budgets)
                && donor.budgets != key.budgets;
            if !applicable {
                continue;
            }
            if let Some(entry) = self.inner.get(&donor) {
                seeds
                    .get_or_insert_with(WarmStart::default)
                    .adopt(&entry.exports);
            }
        }
        seeds.map_or(Lookup::Cold, Lookup::Warm)
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Entries evicted by the size bound since start.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.inner.capacity().unwrap_or(usize::MAX)
    }
}

/// Digest of `cdfg` with every chip's pin budget normalized out (budget
/// 0, no fixed split), so near-repeat requests — same structure,
/// different budgets — share a digest. The environment partition is
/// untouched. The per-chip budget lives in [`ServeKey::budgets`].
pub fn normalized_digest(cdfg: &Cdfg) -> u64 {
    let chips = cdfg.partition_count().saturating_sub(1);
    design_digest(&with_pin_budgets(cdfg, &vec![0; chips]))
}

/// The effective per-chip budget vector of a design (what the key
/// carries and what donor dominance is judged over).
pub fn effective_budgets(cdfg: &Cdfg) -> Vec<u32> {
    (1..cdfg.partition_count())
        .map(|i| cdfg.partition(PartitionId::new(i as u32)).total_pins)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_codec::fnv::fnv1a;

    fn entry(body: &str, memo: Vec<((usize, i64), bool)>) -> ServeEntry {
        ServeEntry {
            exports: WarmStart { probe_memo: memo },
            body: body.to_string(),
        }
    }

    #[test]
    fn exact_hits_replay_the_stored_body() {
        let cache = ServeCache::new(8);
        let key = ServeKey::synth(7, JobFlow::Connect, 4, vec![48, 64]);
        cache.insert(key.clone(), entry("{\"ok\":true}", vec![]));
        match cache.lookup(&key) {
            Lookup::Hit(body) => assert_eq!(body, "{\"ok\":true}"),
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn dominating_budgets_seed_false_verdicts_only() {
        let cache = ServeCache::new(8);
        let donor = ServeKey::synth(7, JobFlow::Simple, 4, vec![64, 64]);
        cache.insert(
            donor,
            entry("{}", vec![((0, 1), true), ((0, 2), false), ((1, 0), false)]),
        );
        let poorer = ServeKey::synth(7, JobFlow::Simple, 4, vec![48, 64]);
        match cache.lookup(&poorer) {
            Lookup::Warm(seeds) => {
                assert_eq!(seeds.probe_memo, vec![((0, 2), false), ((1, 0), false)]);
            }
            other => panic!("expected seeds, got {other:?}"),
        }
    }

    #[test]
    fn wrong_rate_flow_digest_or_poorer_donor_stays_cold() {
        let cache = ServeCache::new(8);
        cache.insert(
            ServeKey::synth(7, JobFlow::Simple, 4, vec![32, 32]),
            entry("{}", vec![((0, 0), false)]),
        );
        // Donor's budgets do not dominate the request's.
        let richer = ServeKey::synth(7, JobFlow::Simple, 4, vec![48, 64]);
        assert!(matches!(cache.lookup(&richer), Lookup::Cold));
        // Same budgets, different rate / flow / digest.
        let poorer = |digest, flow, rate| ServeKey::synth(digest, flow, rate, vec![16, 16]);
        assert!(matches!(
            cache.lookup(&poorer(7, JobFlow::Simple, 5)),
            Lookup::Cold
        ));
        assert!(matches!(
            cache.lookup(&poorer(7, JobFlow::Connect, 4)),
            Lookup::Cold
        ));
        assert!(matches!(
            cache.lookup(&poorer(8, JobFlow::Simple, 4)),
            Lookup::Cold
        ));
    }

    #[test]
    fn explore_keys_replay_but_never_seed() {
        let cache = ServeCache::new(8);
        let key = ServeKey::explore(7, JobFlow::Connect, &[4, 5], &[vec![64, 64]]);
        cache.insert(key.clone(), entry("{\"sweep\":1}", vec![((0, 0), false)]));
        assert!(matches!(cache.lookup(&key), Lookup::Hit(_)));
        let smaller = ServeKey::explore(7, JobFlow::Connect, &[4], &[vec![32, 32]]);
        assert!(matches!(cache.lookup(&smaller), Lookup::Cold));
    }

    #[test]
    fn resynth_keys_replay_but_never_seed() {
        let cache = ServeCache::new(8);
        let key = ServeKey::resynth(7, fnv1a(b"{\"design\":7}"), 99);
        cache.insert(key.clone(), entry("{\"resynth\":1}", vec![((0, 0), false)]));
        assert!(matches!(cache.lookup(&key), Lookup::Hit(_)));
        // A different delta against the same parent and prev is cold.
        let other = ServeKey::resynth(7, fnv1a(b"{\"design\":7}"), 100);
        assert!(matches!(cache.lookup(&other), Lookup::Cold));
    }

    #[test]
    fn the_bound_and_eviction_counter_surface() {
        let cache = ServeCache::new(2);
        for i in 0..5u32 {
            cache.insert(
                ServeKey::synth(u64::from(i), JobFlow::Simple, 4, vec![i]),
                entry("{}", vec![]),
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 3);
        assert_eq!(cache.capacity(), 2);
    }
}
