//! # mcs-matching
//!
//! Bipartite matching algorithms used by the `multichip-hls` workspace:
//!
//! * [`max_bipartite_matching`] — maximum-cardinality matching via
//!   augmenting paths (Kuhn's algorithm). The dynamic bus-reassignment
//!   step of Section 4.2 *is* an augmenting-path search over the
//!   I/O-operation / communication-slot graph.
//! * [`max_weight_matching`] — maximum-weight bipartite matching via the
//!   O(n³) Hungarian algorithm with potentials, as called for by the
//!   post-scheduling interchip-connection synthesis of Section 5.2.
//!
//! ```
//! use mcs_matching::max_weight_matching;
//!
//! // Two workers, two jobs; the off-diagonal pairing is worth more.
//! let w = vec![
//!     vec![Some(1), Some(5)],
//!     vec![Some(5), Some(1)],
//! ];
//! let m = max_weight_matching(&w);
//! assert_eq!(m.total, 10);
//! assert_eq!(m.pairs, vec![Some(1), Some(0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Result of a weighted matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// For each left node, the matched right node (or `None`).
    pub pairs: Vec<Option<usize>>,
    /// Total weight of the matching.
    pub total: i64,
}

/// Result of a [`max_bipartite_matching_seeded`] call, carrying the
/// warm-start accounting the caller reports as rematch telemetry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeededMatching {
    /// For each left node, the matched right node (or `None`).
    pub pairs: Vec<Option<usize>>,
    /// Seed pairs adopted verbatim (no search needed).
    pub seeded: usize,
    /// Augmenting-path searches run for left nodes the seed left
    /// uncovered.
    pub augmentations: usize,
}

/// The left-to-right adjacency an augmenting-path matching searches.
///
/// A slice of rows is the plain form. A caller whose rows are costly may
/// build each one only when [`Adjacency::row`] first asks for it: a warm
/// start checks its seed pairs through [`Adjacency::has_edge`] and builds
/// no row for them, so only the rows an augmenting search reaches get
/// built.
pub trait Adjacency {
    /// Number of left nodes.
    fn left_count(&self) -> usize;

    /// The right nodes adjacent to left node `l`, in search order.
    fn row(&self, l: usize) -> &[usize];

    /// Is `(l, r)` an edge?
    fn has_edge(&self, l: usize, r: usize) -> bool {
        self.row(l).contains(&r)
    }
}

impl Adjacency for [Vec<usize>] {
    fn left_count(&self) -> usize {
        self.len()
    }

    fn row(&self, l: usize) -> &[usize] {
        &self[l]
    }
}

/// One augmenting-path search (Kuhn's algorithm) from left node `l`,
/// iterative — the search depth equals the augmenting-path length, which
/// on large designs overflows the call stack if done recursively.
///
/// A right node counts as visited when `visited[r] == stamp`; passing a
/// fresh stamp per search makes the per-search reset O(1) instead of
/// clearing a boolean array. `match_left` / `match_right` are updated in
/// place when an augmenting path is found. Returns whether `l` got
/// matched.
pub fn augment<A: Adjacency + ?Sized>(
    l: usize,
    adj: &A,
    visited: &mut [u64],
    stamp: u64,
    match_left: &mut [Option<usize>],
    match_right: &mut [Option<usize>],
) -> bool {
    // DFS frames: (left node, next edge index, right node entered via).
    let mut stack: Vec<(usize, usize, Option<usize>)> = vec![(l, 0, None)];
    while let Some(&mut (cur, ref mut ei, _)) = stack.last_mut() {
        let Some(&r) = adj.row(cur).get(*ei) else {
            stack.pop();
            continue;
        };
        *ei += 1;
        if visited[r] == stamp {
            continue;
        }
        visited[r] = stamp;
        match match_right[r] {
            Some(l2) => stack.push((l2, 0, Some(r))),
            None => {
                // Augmenting path found: flip it along the stack — every
                // frame's entry edge moves to its parent frame's left node.
                match_right[r] = Some(cur);
                match_left[cur] = Some(r);
                let (_, _, mut via) = stack.pop().expect("current frame");
                while let Some((parent, _, parent_via)) = stack.pop() {
                    let v = via.expect("non-root frame has an entry edge");
                    match_left[parent] = Some(v);
                    match_right[v] = Some(parent);
                    via = parent_via;
                }
                return true;
            }
        }
    }
    false
}

/// Maximum-cardinality bipartite matching (Kuhn's augmenting paths).
///
/// `adj[l]` lists the right nodes reachable from left node `l`. Returns the
/// matched right node per left node.
pub fn max_bipartite_matching(n_right: usize, adj: &[Vec<usize>]) -> Vec<Option<usize>> {
    max_bipartite_matching_seeded(n_right, adj, &[]).pairs
}

/// [`max_bipartite_matching`] warm-started from a partial matching.
///
/// `seed` pairs `(left, right)` are adopted greedily in order when still
/// valid (edge exists, both endpoints unmatched); invalid pairs are
/// skipped. Augmenting-path searches then run only for the left nodes the
/// seed left uncovered — Section 4.2's "augment from the previous
/// matching". Greedily adopting any valid partial matching and augmenting
/// the rest still yields a maximum matching, so the cardinality is
/// identical to the cold-start result; only the search work shrinks.
pub fn max_bipartite_matching_seeded<A: Adjacency + ?Sized>(
    n_right: usize,
    adj: &A,
    seed: &[(usize, usize)],
) -> SeededMatching {
    let n_left = adj.left_count();
    let mut match_right: Vec<Option<usize>> = vec![None; n_right];
    let mut match_left: Vec<Option<usize>> = vec![None; n_left];
    let mut seeded = 0usize;
    for &(l, r) in seed {
        if l < n_left
            && r < n_right
            && match_left[l].is_none()
            && match_right[r].is_none()
            && adj.has_edge(l, r)
        {
            match_left[l] = Some(r);
            match_right[r] = Some(l);
            seeded += 1;
        }
    }
    let mut augmentations = 0usize;
    let mut visited = vec![0u64; n_right];
    let mut stamp = 0u64;
    for l in 0..n_left {
        if match_left[l].is_some() {
            continue;
        }
        stamp += 1;
        augmentations += 1;
        augment(
            l,
            adj,
            &mut visited,
            stamp,
            &mut match_left,
            &mut match_right,
        );
    }
    SeededMatching {
        pairs: match_left,
        seeded,
        augmentations,
    }
}

/// Maximum-weight bipartite matching over an `n x m` weight table;
/// `None` marks a forbidden pair. Unmatched nodes are allowed (weight 0),
/// so negative-weight pairs are never chosen.
///
/// Runs the Hungarian algorithm with potentials in O(s³) where
/// `s = n + m` after padding with zero-weight dummy partners.
pub fn max_weight_matching(weights: &[Vec<Option<i64>>]) -> Matching {
    let n = weights.len();
    let m = weights.first().map_or(0, Vec::len);
    if n == 0 || m == 0 {
        return Matching {
            pairs: vec![None; n],
            total: 0,
        };
    }
    // Square cost matrix for a *minimization* assignment: real pairs cost
    // -w; dummy pairings (unmatched) cost 0; forbidden pairs cost BIG.
    let s = n + m;
    const BIG: i64 = i64::MAX / 4;
    let mut cost = vec![vec![0i64; s]; s];
    for (i, row) in weights.iter().enumerate() {
        assert_eq!(row.len(), m, "weight table must be rectangular");
        for (j, cell) in cost[i].iter_mut().enumerate() {
            *cell = match row.get(j) {
                Some(Some(w)) => -w,
                Some(None) => BIG,
                None => 0, // dummy column: i stays unmatched
            };
        }
    }
    // Dummy rows cost 0 everywhere (columns may stay unmatched).

    let assignment = hungarian_min(&cost);
    let mut pairs = vec![None; n];
    let mut total = 0i64;
    for (i, p) in pairs.iter_mut().enumerate() {
        let j = assignment[i];
        if j < m {
            if let Some(w) = weights[i][j] {
                // Never take a negative pair: leaving both unmatched is
                // always allowed and costs nothing.
                if w >= 0 {
                    *p = Some(j);
                    total += w;
                }
            }
        }
    }
    Matching { pairs, total }
}

/// Classic O(n³) Hungarian algorithm (minimization, square matrix).
/// Returns the assigned column per row.
fn hungarian_min(cost: &[Vec<i64>]) -> Vec<usize> {
    let n = cost.len();
    // 1-indexed potentials per the standard formulation.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j]: row matched to column j
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![i64::MAX; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = i64::MAX;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_matching_finds_perfect_matching() {
        // 0-{0,1}, 1-{0}, 2-{1,2}: perfect matching exists.
        let adj = vec![vec![0, 1], vec![0], vec![1, 2]];
        let m = max_bipartite_matching(3, &adj);
        assert_eq!(m, vec![Some(1), Some(0), Some(2)]);
    }

    #[test]
    fn cardinality_matching_augments_through_conflicts() {
        // Both left nodes prefer right 0; augmentation reroutes.
        let adj = vec![vec![0], vec![0, 1]];
        let m = max_bipartite_matching(2, &adj);
        assert_eq!(m.iter().filter(|x| x.is_some()).count(), 2);
    }

    #[test]
    fn cardinality_matching_reports_unmatchable() {
        let adj = vec![vec![0], vec![0]];
        let m = max_bipartite_matching(1, &adj);
        assert_eq!(m.iter().filter(|x| x.is_some()).count(), 1);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // Left i (i < n) sees rights {i, i+1}; the final left n sees only
        // right 0. Lefts 0..n grab their own index first, so matching
        // left n forces an augmenting path of length n — a guaranteed
        // stack overflow for the recursive formulation at this size.
        let n = 200_000;
        let mut adj: Vec<Vec<usize>> = (0..n).map(|i| vec![i, i + 1]).collect();
        adj.push(vec![0]);
        let m = max_bipartite_matching(n + 1, &adj);
        assert_eq!(m.iter().filter(|x| x.is_some()).count(), n + 1);
        assert_eq!(m[n], Some(0));
    }

    #[test]
    fn seeded_matching_adopts_valid_seed_and_augments_rest() {
        let adj = vec![vec![0, 1], vec![0], vec![1, 2]];
        let cold = max_bipartite_matching(3, &adj);
        // Re-run seeded with the cold result: everything adopts, nothing
        // augments.
        let seed: Vec<(usize, usize)> = cold
            .iter()
            .enumerate()
            .filter_map(|(l, r)| r.map(|r| (l, r)))
            .collect();
        let warm = max_bipartite_matching_seeded(3, &adj[..], &seed);
        assert_eq!(warm.pairs, cold);
        assert_eq!(warm.seeded, 3);
        assert_eq!(warm.augmentations, 0);
    }

    #[test]
    fn seeded_matching_skips_stale_pairs_and_stays_maximum() {
        let adj = [vec![0, 1], vec![0], vec![1, 2]];
        // Out-of-range, non-edge and conflicting pairs are all ignored.
        let warm = max_bipartite_matching_seeded(3, &adj[..], &[(0, 2), (1, 0), (2, 0), (9, 9)]);
        assert_eq!(warm.seeded, 1, "only (1,0) is a valid fresh pair");
        assert_eq!(warm.augmentations, 2);
        assert_eq!(warm.pairs.iter().filter(|x| x.is_some()).count(), 3);
    }

    /// An adjacency that notes which rows a matching asks it for.
    struct CountingRows<'a> {
        rows: &'a [Vec<usize>],
        read: std::cell::RefCell<std::collections::BTreeSet<usize>>,
    }

    impl Adjacency for CountingRows<'_> {
        fn left_count(&self) -> usize {
            self.rows.len()
        }

        fn row(&self, l: usize) -> &[usize] {
            self.read.borrow_mut().insert(l);
            &self.rows[l]
        }

        fn has_edge(&self, l: usize, r: usize) -> bool {
            self.rows[l].contains(&r)
        }
    }

    #[test]
    fn seed_checks_read_no_rows_and_searches_only_what_they_reach() {
        let adj = vec![vec![0, 1], vec![0], vec![1, 2], vec![3]];
        let counting = |seed: &[(usize, usize)]| {
            let rows = CountingRows {
                rows: &adj,
                read: Default::default(),
            };
            let m = max_bipartite_matching_seeded(4, &rows, seed);
            assert_eq!(m, max_bipartite_matching_seeded(4, &adj[..], seed));
            (m, rows.read.into_inner().into_iter().collect::<Vec<_>>())
        };
        // Every seed holds: the answer is the seed, and no row is read.
        let (m, read) = counting(&[(0, 1), (1, 0), (2, 2), (3, 3)]);
        assert_eq!(m.pairs, vec![Some(1), Some(0), Some(2), Some(3)]);
        assert_eq!((m.seeded, m.augmentations), (4, 0));
        assert_eq!(read, Vec::<usize>::new());
        // Left 0 lost its seed: its search walks 0 -> 1 -> 2 and reads
        // those three rows only, never left 3's.
        let (m, read) = counting(&[(1, 0), (2, 1), (3, 3)]);
        assert_eq!(m.pairs, vec![Some(1), Some(0), Some(2), Some(3)]);
        assert_eq!((m.seeded, m.augmentations), (3, 1));
        assert_eq!(read, vec![0, 1, 2]);
    }

    #[test]
    fn seeded_with_empty_seed_equals_cold_start() {
        let adj = vec![vec![0], vec![0, 1], vec![1, 2], vec![2]];
        let cold = max_bipartite_matching(3, &adj);
        let warm = max_bipartite_matching_seeded(3, &adj[..], &[]);
        assert_eq!(warm.pairs, cold);
        assert_eq!(warm.seeded, 0);
        assert_eq!(warm.augmentations, 4);
    }

    #[test]
    fn weighted_matching_prefers_heavier_total() {
        let w = vec![
            vec![Some(7), Some(4), Some(3)],
            vec![Some(6), Some(8), Some(5)],
            vec![Some(9), Some(4), Some(4)],
        ];
        let m = max_weight_matching(&w);
        // 9 + 8 + 3 = 20 beats greedy 7+8+4=19.
        assert_eq!(m.total, 20);
        assert_eq!(m.pairs, vec![Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn weighted_matching_respects_forbidden_pairs() {
        let w = vec![vec![None, Some(3)], vec![Some(2), None]];
        let m = max_weight_matching(&w);
        assert_eq!(m.pairs, vec![Some(1), Some(0)]);
        assert_eq!(m.total, 5);
    }

    #[test]
    fn weighted_matching_leaves_nodes_unmatched_when_all_forbidden() {
        let w = vec![vec![None, None], vec![Some(4), None]];
        let m = max_weight_matching(&w);
        assert_eq!(m.pairs, vec![None, Some(0)]);
        assert_eq!(m.total, 4);
    }

    #[test]
    fn weighted_matching_rectangular_more_rows() {
        let w = vec![vec![Some(5)], vec![Some(9)], vec![Some(1)]];
        let m = max_weight_matching(&w);
        assert_eq!(m.total, 9);
        assert_eq!(m.pairs, vec![None, Some(0), None]);
    }

    #[test]
    fn weighted_matching_rectangular_more_cols() {
        let w = vec![vec![Some(1), Some(2), Some(10)]];
        let m = max_weight_matching(&w);
        assert_eq!(m.pairs, vec![Some(2)]);
        assert_eq!(m.total, 10);
    }

    #[test]
    fn zero_weight_edges_may_still_match() {
        // Zero-weight pairs are allowed (Section 5.2: a zero-weight edge is
        // quite different from no edge at all).
        let w = vec![vec![Some(0)]];
        let m = max_weight_matching(&w);
        assert_eq!(m.total, 0);
        if let Some(j) = m.pairs[0] {
            assert_eq!(j, 0);
        }
    }

    #[test]
    fn negative_pairs_are_never_taken() {
        let w = vec![vec![Some(-5), Some(-1)]];
        let m = max_weight_matching(&w);
        assert_eq!(m.pairs, vec![None]);
        assert_eq!(m.total, 0);
    }

    #[test]
    fn empty_inputs() {
        let m = max_weight_matching(&[]);
        assert!(m.pairs.is_empty());
        assert_eq!(m.total, 0);
        let m = max_bipartite_matching(0, &[]);
        assert!(m.is_empty());
    }

    #[test]
    fn large_instance_beats_greedy() {
        // Deterministic pseudo-random table; checks the matching is a
        // permutation and at least as good as greedy row-by-row.
        let n = 12;
        let mut w = vec![vec![None; n]; n];
        let mut seed = 0x2545F4914F6CDD1Du64;
        for row in w.iter_mut() {
            for cell in row.iter_mut() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                if !seed.is_multiple_of(10) {
                    *cell = Some((seed % 100) as i64);
                }
            }
        }
        let m = max_weight_matching(&w);
        let mut seen = std::collections::BTreeSet::new();
        for p in m.pairs.iter().flatten() {
            assert!(seen.insert(*p), "column matched twice");
        }
        let mut greedy_total = 0i64;
        let mut used = vec![false; n];
        for row in &w {
            let best = row
                .iter()
                .enumerate()
                .filter(|(j, c)| !used[*j] && c.is_some())
                .max_by_key(|(_, c)| c.unwrap());
            if let Some((j, c)) = best {
                used[j] = true;
                greedy_total += c.unwrap();
            }
        }
        assert!(m.total >= greedy_total);
    }
}
