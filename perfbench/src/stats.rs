//! Small statistics and process helpers shared by every workload.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN sample; callers always time at least one
/// pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `values`: for a deterministic computation, the run least
/// disturbed by the machine.
///
/// # Panics
///
/// On an empty slice.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "min of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q` quantile (nearest rank) of a homogeneous population, or `None`
/// when fewer than ten samples lie beyond the rank: a tail percentile
/// over too few samples is one unlucky sample, not a measurement.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    Some(v[rank - 1])
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// SplitMix64 finalizer: spreads a workload seed over the fuzz-seed
/// space so neighbouring workload seeds pick unrelated designs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A permutation of `0..n` chosen by `seed` (Fisher-Yates driven by
/// SplitMix64).
pub fn shuffle(seed: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in 0..n {
        state = splitmix64(state);
        let j = i + (state % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx
}

/// `k` distinct indices below `n`, chosen by `seed`, in ascending
/// order.
pub fn pick(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx = shuffle(seed, n);
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// FNV-1a over a sequence of strings, each terminated by a newline.
pub fn digest_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min(&[4.0, 1.5, 2.0]), 1.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pick_is_a_seeded_subset() {
        let a = pick(7, 30, 6);
        assert_eq!(a, pick(7, 30, 6));
        assert_eq!(a.len(), 6);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[5] < 30);
        assert_ne!(a, pick(8, 30, 6));
        let mut p = shuffle(7, 30);
        p.sort_unstable();
        assert_eq!(p, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v, 0.5), Some(50.0));
    }
}
