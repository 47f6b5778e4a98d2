//! MASS — Mueen's Algorithm for Similarity Search.
//!
//! Computes the z-normalized Euclidean distance profile of a query against
//! every window of a series in O(n log n), by obtaining all sliding dot
//! products with one FFT convolution and converting them to distances with
//! rolling window statistics. This is the fast kernel behind matrix-profile
//! computation on long series; `ips_distance::dist_profile_znorm` is the
//! O(n·m) reference it is validated against.

use crate::euclid::{query_mean_std, znorm_dist_from_dot};
use crate::fft::fft_convolve;
use crate::rolling::RollingStats;

/// All sliding dot products `dot(query, series[j..j+m])` for
/// `j in 0..n-m+1`, computed via one FFT convolution with the reversed
/// query. Returns empty when the query is empty or longer than the series.
pub fn sliding_dot_products(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    if m == 0 || series.len() < m {
        return Vec::new();
    }
    let reversed: Vec<f64> = query.iter().rev().copied().collect();
    let conv = fft_convolve(series, &reversed);
    // conv[k] = Σ_i series[i] * reversed[k-i]; the aligned dot products sit
    // at offsets m-1 .. n-1.
    conv[m - 1..series.len()].to_vec()
}

/// The MASS distance profile: z-normalized Euclidean distance of `query`
/// against every window of `series`.
pub fn mass(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    if m == 0 || series.len() < m {
        return Vec::new();
    }
    let dots = sliding_dot_products(query, series);
    let stats = RollingStats::new(series, m);
    let (mu_q, sd_q) = query_mean_std(query);
    dots.iter()
        .enumerate()
        .map(|(j, &dot)| znorm_dist_from_dot(dot, m, mu_q, sd_q, stats.mean(j), stats.std(j)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclid::dist_profile_znorm;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + (i as f64 * 0.011).cos())
            .collect()
    }

    #[test]
    fn dot_products_match_naive() {
        let s = series(100);
        let q: Vec<f64> = s[20..33].to_vec();
        let dots = sliding_dot_products(&q, &s);
        assert_eq!(dots.len(), s.len() - q.len() + 1);
        for (j, &d) in dots.iter().enumerate() {
            let naive: f64 = q.iter().zip(&s[j..j + q.len()]).map(|(a, b)| a * b).sum();
            assert!((d - naive).abs() < 1e-7, "at {j}: {d} vs {naive}");
        }
    }

    #[test]
    fn mass_matches_reference_profile() {
        let s = series(257); // non-power-of-two on purpose
        let q: Vec<f64> = (0..19).map(|i| (i as f64 * 0.9).cos() * 1.5).collect();
        let fast = mass(&q, &s);
        let slow = dist_profile_znorm(&q, &s);
        assert_eq!(fast.len(), slow.len());
        for (j, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!((a - b).abs() < 1e-6, "at {j}: {a} vs {b}");
        }
    }

    #[test]
    fn mass_finds_exact_occurrence() {
        let s = series(128);
        let q: Vec<f64> = s[40..56].to_vec();
        let p = mass(&q, &s);
        assert!(p[40] < 1e-6);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(mass(&[], &[1.0, 2.0]).is_empty());
        assert!(mass(&[1.0, 2.0, 3.0], &[1.0]).is_empty());
        assert!(sliding_dot_products(&[], &[1.0]).is_empty());
    }

    #[test]
    fn mass_handles_constant_regions() {
        let mut s = vec![1.0; 30];
        s.extend((0..30).map(|i| (i as f64 * 0.5).sin()));
        let q = vec![2.0; 8]; // constant query
        let p = mass(&q, &s);
        assert_eq!(p[0], 0.0); // constant-vs-constant
        assert!(p[40] > 0.0); // constant-vs-varying
        assert!(p.iter().all(|v| v.is_finite()));
    }
}
