//! Sharded cross-point warm-start cache.
//!
//! Exports are keyed by their producing key (the sweep driver uses
//! [`PointCoord`]; the `mcs-serve` daemon layers a digest key on top)
//! and stored in `Arc`s across a fixed set of `RwLock` shards, so
//! readers can look donors up concurrently while writers publish.
//! Determinism comes from the publication discipline, not from locking:
//! the sweep driver inserts only at wave barriers, in wave order, and an
//! append-only log of keys fixes both the donor iteration order and the
//! eviction order — so the donor list any point observes is a pure
//! function of the insertion sequence.
//!
//! A cache built [`WarmStartCache::with_capacity`] is size-bounded:
//! once full, publishing a fresh key evicts the *least recently
//! published* entry (insertion order, refreshed on re-publication — an
//! LRU over writes, deliberately not over reads, so concurrent lookups
//! cannot perturb the eviction order). Evictions are counted for the
//! daemon's metrics surface.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use mcs_codec::fnv::Fnv;

use crate::PointCoord;

/// Number of shards; a small power of two keeps the hash mix cheap.
const SHARDS: usize = 16;

/// Sharded, optionally size-bounded map from producing key to its
/// warm-start export.
pub struct WarmStartCache<K, V> {
    shards: Vec<RwLock<HashMap<K, Arc<V>>>>,
    /// Keys in publication order, oldest first — the deterministic donor
    /// scan and the eviction order. Re-publication moves a key to the
    /// back (write-recency).
    log: Mutex<Vec<K>>,
    /// Maximum resident entries; `None` is unbounded (the sweep driver's
    /// configuration — a lattice is finite).
    capacity: Option<usize>,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> Default for WarmStartCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> WarmStartCache<K, V> {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        WarmStartCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            log: Mutex::new(Vec::new()),
            capacity: None,
            evictions: AtomicU64::new(0),
        }
    }

    /// An empty cache holding at most `capacity` entries (floor 1).
    /// Publishing beyond the bound evicts the oldest-published entry.
    pub fn with_capacity(capacity: usize) -> Self {
        WarmStartCache {
            capacity: Some(capacity.max(1)),
            ..Self::new()
        }
    }

    /// FNV-1a, so shard choice is identical in every process (the std
    /// `DefaultHasher` is seeded per process).
    fn shard_of(&self, key: &K) -> usize {
        let mut h = Fnv::default();
        key.hash(&mut h);
        (h.finish() % SHARDS as u64) as usize
    }

    /// Publishes one export. Re-publishing an existing key replaces the
    /// entry and refreshes its position in the eviction order; a fresh
    /// key over capacity evicts the oldest entry first.
    pub fn insert(&self, key: K, value: V) {
        let mut log = self.log.lock().expect("cache log lock");
        let fresh = self.shards[self.shard_of(&key)]
            .write()
            .expect("cache lock")
            .insert(key.clone(), Arc::new(value))
            .is_none();
        if fresh {
            if let Some(cap) = self.capacity {
                while log.len() >= cap {
                    let oldest = log.remove(0);
                    self.shards[self.shard_of(&oldest)]
                        .write()
                        .expect("cache lock")
                        .remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else if let Some(pos) = log.iter().position(|k| *k == key) {
            log.remove(pos);
        }
        log.push(key);
    }

    /// The export published under `key`, if resident.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.shards[self.shard_of(key)]
            .read()
            .expect("cache lock")
            .get(key)
            .cloned()
    }

    /// Resident keys in publication order (oldest first) — the
    /// deterministic scan order for donor selection.
    pub fn keys(&self) -> Vec<K> {
        self.log.lock().expect("cache log lock").clone()
    }

    /// Exports resident in the cache.
    pub fn len(&self) -> usize {
        self.log.lock().expect("cache log lock").len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the size bound since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The configured bound, `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }
}

impl<V> WarmStartCache<PointCoord, V> {
    /// Donors applicable to a point at `rate` with budget vector
    /// `budget`: exports from the same rate whose budget vectors
    /// dominate (are componentwise `>=`) the point's, in publication
    /// order. `budgets` resolves a donor's `budget_ix` to its vector.
    pub fn donors_for(
        &self,
        rate: u32,
        budget: &[u32],
        budgets: &[Vec<u32>],
    ) -> Vec<(PointCoord, Arc<V>)> {
        self.keys()
            .into_iter()
            .filter(|d| d.rate == rate)
            .filter(|d| {
                let donor = &budgets[d.budget_ix];
                donor.len() == budget.len()
                    && donor.iter().zip(budget).all(|(&have, &need)| have >= need)
                    && donor != &budget.to_vec()
            })
            .filter_map(|d| self.get(&d).map(|v| (d, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(rate: u32, budget_ix: usize) -> PointCoord {
        PointCoord { rate, budget_ix }
    }

    #[test]
    fn donors_filter_by_rate_and_budget_dominance() {
        let budgets = vec![vec![64, 64], vec![48, 64], vec![32, 32]];
        let cache: WarmStartCache<PointCoord, &'static str> = WarmStartCache::new();
        cache.insert(coord(4, 0), "generous");
        cache.insert(coord(4, 1), "mixed");
        cache.insert(coord(5, 0), "other-rate");

        // [48, 64] is dominated by [64, 64] but not by itself or by a
        // donor at another rate.
        let donors = cache.donors_for(4, &budgets[1], &budgets);
        let names: Vec<&str> = donors.iter().map(|(_, v)| **v).collect();
        assert_eq!(names, vec!["generous"]);

        // [32, 32] is dominated by both rate-4 donors, in publish order.
        let donors = cache.donors_for(4, &budgets[2], &budgets);
        let names: Vec<&str> = donors.iter().map(|(_, v)| **v).collect();
        assert_eq!(names, vec!["generous", "mixed"]);

        // [64, 64] has no strict dominator.
        assert!(cache.donors_for(4, &budgets[0], &budgets).is_empty());
    }

    #[test]
    fn reinsert_replaces_and_refreshes_recency() {
        let cache: WarmStartCache<PointCoord, u32> = WarmStartCache::new();
        cache.insert(coord(4, 0), 1);
        cache.insert(coord(4, 1), 7);
        cache.insert(coord(4, 0), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(*cache.get(&coord(4, 0)).unwrap(), 2);
        // Re-publication moved (4,0) behind (4,1) in the scan order.
        assert_eq!(cache.keys(), vec![coord(4, 1), coord(4, 0)]);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first_deterministically() {
        let cache: WarmStartCache<PointCoord, u32> = WarmStartCache::with_capacity(3);
        for i in 0..5 {
            cache.insert(coord(4, i), i as u32);
        }
        // 0 and 1 were published first and evicted first.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 2);
        assert!(cache.get(&coord(4, 0)).is_none());
        assert!(cache.get(&coord(4, 1)).is_none());
        assert_eq!(cache.keys(), vec![coord(4, 2), coord(4, 3), coord(4, 4)]);
    }

    #[test]
    fn refresh_protects_an_entry_from_eviction() {
        let cache: WarmStartCache<PointCoord, u32> = WarmStartCache::with_capacity(2);
        cache.insert(coord(4, 0), 0);
        cache.insert(coord(4, 1), 1);
        // Refreshing (4,0) makes (4,1) the oldest; the next fresh insert
        // evicts (4,1), not (4,0).
        cache.insert(coord(4, 0), 10);
        cache.insert(coord(4, 2), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(*cache.get(&coord(4, 0)).unwrap(), 10);
        assert!(cache.get(&coord(4, 1)).is_none());
        assert_eq!(cache.keys(), vec![coord(4, 0), coord(4, 2)]);
    }

    #[test]
    fn eviction_keeps_len_at_capacity_under_churn() {
        let cache: WarmStartCache<PointCoord, usize> = WarmStartCache::with_capacity(8);
        for i in 0..100 {
            cache.insert(coord((i % 7) as u32, i), i);
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.evictions(), 92);
        assert_eq!(cache.capacity(), Some(8));
    }
}
