//! Matrix profile self-joins and AB-joins.

use ips_distance::rolling::RollingStats;
use ips_distance::{argmax, argmin, znorm_dist_from_dot};

/// Re-exported from `ips-distance`, which owns the metric so the batch
/// kernel and distance cache can key on it without a dependency cycle.
pub use ips_distance::Metric;

/// A computed matrix profile: per-window nearest-neighbor distance and the
/// position of that neighbor.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixProfile {
    values: Vec<f64>,
    nn_index: Vec<usize>,
    window: usize,
    metric: Metric,
}

impl MatrixProfile {
    /// Self-join with the default exclusion zone of `window / 2` (the
    /// trivial-match exclusion of the footnote under Definition 5).
    pub fn self_join(series: &[f64], window: usize, metric: Metric) -> Self {
        Self::self_join_excl(series, window, metric, window / 2)
    }

    /// Self-join with an explicit exclusion half-width: windows `j` with
    /// `|i − j| <= excl` are not eligible neighbors of window `i`.
    ///
    /// Uses the O(n²) incremental kernel (see [`Self::self_join_brute`] for
    /// the O(n²·m) reference both are tested against).
    pub fn self_join_excl(series: &[f64], window: usize, metric: Metric, excl: usize) -> Self {
        let n_out = num_windows(series.len(), window);
        let mut values = vec![f64::INFINITY; n_out];
        let mut nn_index = vec![0usize; n_out];
        if n_out == 0 {
            return Self {
                values,
                nn_index,
                window,
                metric,
            };
        }
        match metric {
            Metric::MeanSquared => {
                // Diagonal recurrence on raw squared distances:
                // sq(i+1, j+1) = sq(i, j) − (s_i − s_j)² + (s_{i+m} − s_{j+m})².
                // Walking diagonals k = j − i > excl covers all pairs once.
                let m = window;
                for k in (excl + 1)..n_out {
                    let mut sq = sq_dist(&series[0..m], &series[k..k + m]);
                    update_pair(&mut values, &mut nn_index, 0, k, sq / m as f64);
                    for i in 1..(n_out - k) {
                        let j = i + k;
                        let drop = series[i - 1] - series[j - 1];
                        let add = series[i + m - 1] - series[j + m - 1];
                        sq += add * add - drop * drop;
                        let sq_c = sq.max(0.0); // guard drift below zero
                        update_pair(&mut values, &mut nn_index, i, j, sq_c / m as f64);
                    }
                }
            }
            Metric::ZNormEuclidean => {
                let m = window;
                let stats = RollingStats::new(series, m);
                // Diagonal recurrence on dot products:
                // qt(i+1, j+1) = qt(i, j) − s_i·s_j + s_{i+m}·s_{j+m}.
                for k in (excl + 1)..n_out {
                    let mut qt: f64 = series[0..m]
                        .iter()
                        .zip(&series[k..k + m])
                        .map(|(a, b)| a * b)
                        .sum();
                    let d = znorm_dist_from_dot(
                        qt,
                        m,
                        stats.mean(0),
                        stats.std(0),
                        stats.mean(k),
                        stats.std(k),
                    );
                    update_pair(&mut values, &mut nn_index, 0, k, d);
                    for i in 1..(n_out - k) {
                        let j = i + k;
                        qt += series[i + m - 1] * series[j + m - 1] - series[i - 1] * series[j - 1];
                        let d = znorm_dist_from_dot(
                            qt,
                            m,
                            stats.mean(i),
                            stats.std(i),
                            stats.mean(j),
                            stats.std(j),
                        );
                        update_pair(&mut values, &mut nn_index, i, j, d);
                    }
                }
            }
        }
        Self {
            values,
            nn_index,
            window,
            metric,
        }
    }

    /// Brute-force self-join: O(n²·m). Reference implementation used by the
    /// tests.
    pub fn self_join_brute(series: &[f64], window: usize, metric: Metric, excl: usize) -> Self {
        let n_out = num_windows(series.len(), window);
        let mut values = vec![f64::INFINITY; n_out];
        let mut nn_index = vec![0usize; n_out];
        for i in 0..n_out {
            for j in 0..n_out {
                if i.abs_diff(j) <= excl {
                    continue;
                }
                let d = window_dist(series, i, j, window, metric);
                if d < values[i] {
                    values[i] = d;
                    nn_index[i] = j;
                }
            }
        }
        Self {
            values,
            nn_index,
            window,
            metric,
        }
    }

    /// AB-join: for every window of `a`, the distance to its nearest
    /// neighbor among the windows of `b` (no exclusion zone — the series
    /// are different). This is the `P_AB` of Figures 3–4.
    pub fn ab_join(a: &[f64], b: &[f64], window: usize, metric: Metric) -> Self {
        let n_a = num_windows(a.len(), window);
        let n_b = num_windows(b.len(), window);
        let mut values = vec![f64::INFINITY; n_a];
        let mut nn_index = vec![0usize; n_a];
        if n_a == 0 || n_b == 0 {
            return Self {
                values,
                nn_index,
                window,
                metric,
            };
        }
        match metric {
            Metric::MeanSquared => {
                let m = window;
                // Diagonal recurrence across the rectangle [0,n_a) × [0,n_b).
                for (i0, j0) in diagonal_starts(n_a, n_b) {
                    let mut sq = sq_dist(&a[i0..i0 + m], &b[j0..j0 + m]);
                    update_one(&mut values, &mut nn_index, i0, j0, sq / m as f64);
                    let steps = (n_a - i0).min(n_b - j0);
                    for t in 1..steps {
                        let (i, j) = (i0 + t, j0 + t);
                        let drop = a[i - 1] - b[j - 1];
                        let add = a[i + m - 1] - b[j + m - 1];
                        sq += add * add - drop * drop;
                        update_one(&mut values, &mut nn_index, i, j, sq.max(0.0) / m as f64);
                    }
                }
            }
            Metric::ZNormEuclidean => {
                let m = window;
                let stats_a = RollingStats::new(a, m);
                let stats_b = RollingStats::new(b, m);
                for (i0, j0) in diagonal_starts(n_a, n_b) {
                    let mut qt: f64 = a[i0..i0 + m]
                        .iter()
                        .zip(&b[j0..j0 + m])
                        .map(|(x, y)| x * y)
                        .sum();
                    let d = znorm_dist_from_dot(
                        qt,
                        m,
                        stats_a.mean(i0),
                        stats_a.std(i0),
                        stats_b.mean(j0),
                        stats_b.std(j0),
                    );
                    update_one(&mut values, &mut nn_index, i0, j0, d);
                    let steps = (n_a - i0).min(n_b - j0);
                    for t in 1..steps {
                        let (i, j) = (i0 + t, j0 + t);
                        qt += a[i + m - 1] * b[j + m - 1] - a[i - 1] * b[j - 1];
                        let d = znorm_dist_from_dot(
                            qt,
                            m,
                            stats_a.mean(i),
                            stats_a.std(i),
                            stats_b.mean(j),
                            stats_b.std(j),
                        );
                        update_one(&mut values, &mut nn_index, i, j, d);
                    }
                }
            }
        }
        Self {
            values,
            nn_index,
            window,
            metric,
        }
    }

    /// Profile values (`mp_i` of Definition 5).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-neighbor position per window.
    #[inline]
    pub fn nn_index(&self) -> &[usize] {
        &self.nn_index
    }

    /// Window length.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Metric used.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of profile entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series was shorter than the window.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `(position, value)` of the motif (global minimum).
    ///
    /// # Panics
    /// Panics when the profile is empty.
    pub fn motif(&self) -> (usize, f64) {
        let (i, v) = argmin(&self.values).expect("non-empty profile");
        (i, v)
    }

    /// `(position, value)` of the discord (global maximum among finite
    /// entries).
    ///
    /// # Panics
    /// Panics when the profile is empty or all-infinite.
    pub fn discord(&self) -> (usize, f64) {
        let (i, v) = self
            .values
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("profile has finite entries");
        (i, v)
    }

    /// Element-wise difference `self − other` over the common prefix — the
    /// `diff(P_AB, P_AA)` of Figure 4. The profiles must share the window
    /// length.
    pub fn diff(&self, other: &MatrixProfile) -> Vec<f64> {
        assert_eq!(
            self.window, other.window,
            "profiles must share the window length"
        );
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| a - b)
            .collect()
    }

    /// `(position, value)` of the largest difference `self − other`
    /// (Formula 4's arg max). `None` when the common prefix is empty.
    pub fn max_diff(&self, other: &MatrixProfile) -> Option<(usize, f64)> {
        let d = self.diff(other);
        argmax(&d)
    }
}

#[inline]
fn num_windows(n: usize, window: usize) -> usize {
    if window == 0 || n < window {
        0
    } else {
        n - window + 1
    }
}

/// The diagonals of an `n_a × n_b` distance matrix, as their start cells:
/// the top row (`i = 0`), then the left column (`j = 0`). Starting every
/// diagonal on the border gives cell `(i, j)` of `a × b` the same running
/// sums as cell `(j, i)` of `b × a`, which the instance-profile join's
/// bit-identity relies on.
pub(crate) fn diagonal_starts(n_a: usize, n_b: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n_b).map(|j| (0, j)).chain((1..n_a).map(|i| (i, 0)))
}

#[inline]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Symmetric self-join update: distance of pair `(i, j)` improves both rows.
#[inline]
fn update_pair(values: &mut [f64], nn: &mut [usize], i: usize, j: usize, d: f64) {
    if d < values[i] {
        values[i] = d;
        nn[i] = j;
    }
    if d < values[j] {
        values[j] = d;
        nn[j] = i;
    }
}

#[inline]
fn update_one(values: &mut [f64], nn: &mut [usize], i: usize, j: usize, d: f64) {
    if d < values[i] {
        values[i] = d;
        nn[i] = j;
    }
}

fn window_dist(series: &[f64], i: usize, j: usize, m: usize, metric: Metric) -> f64 {
    let (a, b) = (&series[i..i + m], &series[j..j + m]);
    match metric {
        Metric::MeanSquared => sq_dist(a, b) / m as f64,
        Metric::ZNormEuclidean => {
            let d = ips_distance::dist_profile_znorm(a, b);
            d[0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.35).sin() * 2.0 + (i as f64 * 0.05).cos())
            .collect()
    }

    #[test]
    fn incremental_matches_brute_meansq() {
        let s = wave(120);
        for m in [4, 9, 16] {
            let fast = MatrixProfile::self_join_excl(&s, m, Metric::MeanSquared, m / 2);
            let slow = MatrixProfile::self_join_brute(&s, m, Metric::MeanSquared, m / 2);
            assert_eq!(fast.len(), slow.len());
            for i in 0..fast.len() {
                assert!(
                    (fast.values()[i] - slow.values()[i]).abs() < 1e-8,
                    "m={m} i={i}: {} vs {}",
                    fast.values()[i],
                    slow.values()[i]
                );
            }
        }
    }

    #[test]
    fn incremental_matches_brute_znorm() {
        let s = wave(100);
        for m in [5, 12] {
            let fast = MatrixProfile::self_join_excl(&s, m, Metric::ZNormEuclidean, m / 2);
            let slow = MatrixProfile::self_join_brute(&s, m, Metric::ZNormEuclidean, m / 2);
            for i in 0..fast.len() {
                assert!(
                    (fast.values()[i] - slow.values()[i]).abs() < 1e-6,
                    "m={m} i={i}: {} vs {}",
                    fast.values()[i],
                    slow.values()[i]
                );
            }
        }
    }

    #[test]
    fn planted_motif_pair_is_found() {
        // Two identical rare patterns far apart in an aperiodic background
        // (amplitude modulation prevents exact window repeats).
        let mut s: Vec<f64> = (0..150)
            .map(|i| {
                let x = i as f64;
                (0.5 + 0.3 * (x * 0.0173).sin()) * (x * 0.41).sin() + 0.001 * x
            })
            .collect();
        let pat = [5.0, 6.0, 5.5, 6.5, 5.0, 4.0, 6.0, 5.0];
        s[20..28].copy_from_slice(&pat);
        s[100..108].copy_from_slice(&pat);
        let mp = MatrixProfile::self_join(&s, 8, Metric::MeanSquared);
        let (pos, val) = mp.motif();
        assert!(val < 1e-12);
        assert!(pos == 20 || pos == 100);
        assert!(mp.nn_index()[20] == 100 || mp.nn_index()[100] == 20);
    }

    #[test]
    fn planted_discord_is_found() {
        let mut s = wave(200);
        for (k, v) in s[90..97].iter_mut().enumerate() {
            *v += if k % 2 == 0 { 8.0 } else { -8.0 };
        }
        let mp = MatrixProfile::self_join(&s, 8, Metric::ZNormEuclidean);
        let (pos, _) = mp.discord();
        assert!((82..=97).contains(&pos), "discord at {pos}");
    }

    #[test]
    fn exclusion_zone_blocks_trivial_matches() {
        let s = wave(80);
        // With no exclusion the nearest neighbor is the adjacent window.
        let naive = MatrixProfile::self_join_excl(&s, 8, Metric::MeanSquared, 0);
        let proper = MatrixProfile::self_join_excl(&s, 8, Metric::MeanSquared, 4);
        // trivial matches make the zero-exclusion profile no larger anywhere
        for i in 0..naive.len() {
            assert!(naive.values()[i] <= proper.values()[i] + 1e-12);
        }
        // and at least somewhere strictly smaller on a smooth wave
        assert!(naive.values().iter().sum::<f64>() < proper.values().iter().sum::<f64>());
        for (i, &j) in proper.nn_index().iter().enumerate() {
            if proper.values()[i].is_finite() {
                assert!(i.abs_diff(j) > 4, "nn of {i} is {j}");
            }
        }
    }

    #[test]
    fn ab_join_matches_naive_profiles() {
        let a = wave(70);
        let b: Vec<f64> = (0..90).map(|i| (i as f64 * 0.21).cos() * 1.5).collect();
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let mp = MatrixProfile::ab_join(&a, &b, 9, metric);
            assert_eq!(mp.len(), 70 - 9 + 1);
            for i in 0..mp.len() {
                let q = &a[i..i + 9];
                let naive = match metric {
                    Metric::MeanSquared => ips_distance::dist_profile(q, &b)
                        .into_iter()
                        .fold(f64::INFINITY, f64::min),
                    Metric::ZNormEuclidean => ips_distance::dist_profile_znorm(q, &b)
                        .into_iter()
                        .fold(f64::INFINITY, f64::min),
                };
                assert!(
                    (mp.values()[i] - naive).abs() < 1e-6,
                    "{metric:?} i={i}: {} vs {naive}",
                    mp.values()[i]
                );
            }
        }
    }

    #[test]
    fn ab_join_finds_shared_pattern() {
        let mut a = vec![0.1; 60];
        let mut b = vec![-0.1; 60];
        let pat = [3.0, 4.0, 3.5, 4.5, 3.0];
        a[10..15].copy_from_slice(&pat);
        b[40..45].copy_from_slice(&pat);
        let mp = MatrixProfile::ab_join(&a, &b, 5, Metric::MeanSquared);
        assert!(mp.values()[10] < 1e-12);
        assert_eq!(mp.nn_index()[10], 40);
    }

    #[test]
    fn diff_and_max_diff() {
        let a = wave(50);
        let b: Vec<f64> = (0..50).map(|i| (i as f64 * 0.9).cos()).collect();
        let pab = MatrixProfile::ab_join(&a, &b, 6, Metric::MeanSquared);
        let paa = MatrixProfile::self_join(&a, 6, Metric::MeanSquared);
        let d = pab.diff(&paa);
        assert_eq!(d.len(), pab.len().min(paa.len()));
        let (pos, val) = pab.max_diff(&paa).unwrap();
        assert!((d[pos] - val).abs() < 1e-12);
        assert!(d.iter().all(|&x| x <= val + 1e-12));
    }

    #[test]
    fn degenerate_inputs_yield_empty_profiles() {
        let mp = MatrixProfile::self_join(&[1.0, 2.0], 5, Metric::MeanSquared);
        assert!(mp.is_empty());
        let mp = MatrixProfile::ab_join(&[1.0, 2.0], &[1.0], 2, Metric::MeanSquared);
        assert_eq!(mp.len(), 1);
        assert_eq!(mp.values()[0], f64::INFINITY);
    }

    #[test]
    fn all_excluded_profile_is_infinite() {
        let s = wave(20);
        let mp = MatrixProfile::self_join_excl(&s, 8, Metric::MeanSquared, 100);
        assert!(mp.values().iter().all(|v| v.is_infinite()));
    }
}
