//! Property-based equivalence suite for the batch FFT/MASS kernel.
//!
//! Pins `batch_min_dist` (and the `mass`-derived minimum) against the naive
//! references `sliding_min_dist{,_znorm}` over random inputs with lengths
//! 1..=64, including the adversarial shapes the kernel must not get wrong:
//! constant (zero-variance) windows, constant queries, fully flat series,
//! and queries longer than the series.
//!
//! The real `proptest` crate is patched to an empty stub in this offline
//! workspace, so this file carries a minimal property harness of its own:
//! a deterministic splitmix64 generator, per-case derived seeds (failures
//! print the case index for replay), and the same `PROPTEST_CASES`
//! environment knob proptest honors (default 64; CI runs 256).
//!
//! ## Contracts pinned here
//!
//! * **Distance**: kernel and naive minima agree within `1e-9·(1+|d|)`.
//! * **Offset**: the returned offset is a *valid* argmin — recomputing the
//!   naive distance at that offset reproduces the minimum. (Exact offset
//!   equality is deliberately not asserted: on inputs with exactly tied
//!   windows — e.g. a flat series under `MeanSquared`, where every window
//!   is equidistant — FFT rounding may pick a different member of the tie.)
//! * **Zero-σ convention** (owned by `znorm_dist_from_dot`, shared by the
//!   naive profile, MASS, and the kernel): both sides constant → distance
//!   exactly `0`; exactly one side constant → z-ED exactly `√m`, i.e.
//!   `sliding_min_dist_znorm`'s mean-squared scale reports `m/m = 1.0`.
//!   Guarded flat inputs must never produce NaN (a NaN entry would poison
//!   a strict `<` argmin scan, which never accepts NaN).
//! * **Bit identity of the naive z-norm path**: `sliding_min_dist_znorm`,
//!   `znorm_min_dist` over shared window stats, and the series-major
//!   `DistCache::evaluate` all equal the profile reference — the whole
//!   `dist_profile_znorm`, its first `argmin`, then `d²/m` — compared with
//!   `to_bits`, offsets exact. `DistCache::evaluate` also equals
//!   `DistCache::min_dist` bit for bit on requests the crossover sends to
//!   the FFT kernel, with the same eval and fallback counts.

use ips_distance::{
    argmin, batch_min_dist_with, dist_profile_znorm, mass, mean_sq_dist, sliding_min_dist,
    sliding_min_dist_znorm, znorm_min_dist, DistCache, KernelPolicy, Metric, MinDistRequest,
    RollingStats, ZNORM_SIGMA_FLOOR,
};

/// splitmix64 — deterministic, seedable, no dependencies.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[-100, 100)`.
    fn value(&mut self) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        -100.0 + 200.0 * unit
    }

    fn vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.value()).collect()
    }
}

fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn close(a: f64, b: f64) -> bool {
    (a == b) || (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

/// Naive reference dispatch, same orientation rules as the kernel.
fn naive(q: &[f64], s: &[f64], metric: Metric) -> (f64, usize) {
    match metric {
        Metric::MeanSquared => sliding_min_dist(q, s),
        Metric::ZNormEuclidean => sliding_min_dist_znorm(q, s),
    }
}

/// The distance of `q` against the single window of `s` at `offset`, on
/// each metric's reported (mean-squared) scale — used to certify that a
/// returned offset is a true argmin witness.
fn dist_at(q: &[f64], s: &[f64], offset: usize, metric: Metric) -> f64 {
    let (q, s) = if q.len() <= s.len() { (q, s) } else { (s, q) };
    let w = &s[offset..offset + q.len()];
    match metric {
        Metric::MeanSquared => mean_sq_dist(q, w),
        Metric::ZNormEuclidean => {
            let p = sliding_min_dist_znorm(q, w);
            p.0
        }
    }
}

/// Core property: forced-kernel batch output matches the naive reference in
/// value, and its offset witnesses the minimum.
fn check_equivalence(q: &[f64], s: &[f64], metric: Metric, tag: &str) {
    let out = batch_min_dist_with(&[q], s, metric, KernelPolicy::ForceKernel)[0];
    let reference = naive(q, s, metric);
    assert!(
        close(out.0, reference.0),
        "{tag} {metric:?}: kernel {} vs naive {} (q.len={}, s.len={})",
        out.0,
        reference.0,
        q.len(),
        s.len()
    );
    if out.0.is_finite() {
        let witnessed = dist_at(q, s, out.1, metric);
        assert!(
            close(witnessed, reference.0),
            "{tag} {metric:?}: offset {} witnesses {} but the minimum is {}",
            out.1,
            witnessed,
            reference.0
        );
    }
}

#[test]
fn kernel_matches_naive_on_random_inputs() {
    for case in 0..cases() {
        let mut g = Gen(0xA11CE ^ (case as u64) << 1);
        // independent lengths: the query is allowed to be longer than the
        // series (the kernel must reproduce the naive swap semantics)
        let slen = g.usize_in(1, 64);
        let s = g.vec(slen);
        let qlen = g.usize_in(1, 64);
        let q = g.vec(qlen);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            check_equivalence(&q, &s, metric, &format!("case {case}"));
        }
    }
}

#[test]
fn kernel_matches_naive_with_constant_regions() {
    for case in 0..cases() {
        let mut g = Gen(0xC0457 ^ (case as u64) << 1);
        // a series with an embedded exactly-constant run (zero-variance
        // windows for every length up to the run length)
        let head = g.usize_in(1, 24);
        let mut s = g.vec(head);
        let level = g.value();
        let run = g.usize_in(1, 24);
        s.extend(std::iter::repeat_n(level, run));
        let tail = g.usize_in(0, 16);
        let extra = g.vec(tail);
        s.extend(extra);
        // alternate constant and varying queries
        let qlen = g.usize_in(1, 32);
        let q: Vec<f64> = if case % 2 == 0 {
            vec![g.value(); qlen]
        } else {
            g.vec(qlen)
        };
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            check_equivalence(&q, &s, metric, &format!("const case {case}"));
        }
    }
}

#[test]
fn mass_derived_min_matches_naive_znorm() {
    for case in 0..cases() {
        let mut g = Gen(0x3A55 ^ (case as u64) << 1);
        let slen = g.usize_in(2, 64);
        let s = g.vec(slen);
        let qlen = g.usize_in(1, s.len());
        let q = g.vec(qlen);
        let profile = mass(&q, &s);
        assert!(
            profile.iter().all(|v| v.is_finite()),
            "case {case}: NaN/inf in profile"
        );
        let m = q.len() as f64;
        let best = profile.iter().cloned().fold(f64::INFINITY, f64::min);
        let reference = sliding_min_dist_znorm(&q, &s).0;
        assert!(
            close(best * best / m, reference),
            "case {case}: mass-derived {} vs naive {}",
            best * best / m,
            reference
        );
    }
}

#[test]
fn cache_agrees_with_naive_and_partitions_requests() {
    for case in 0..cases().min(32) {
        let mut g = Gen(0xD15C ^ (case as u64) << 1);
        let slen = g.usize_in(8, 64);
        let s = g.vec(slen);
        let queries: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                let qlen = g.usize_in(1, 64);
                g.vec(qlen)
            })
            .collect();
        let mut cache = DistCache::new();
        let mut requests = 0usize;
        for _round in 0..2 {
            for q in &queries {
                for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
                    let got = cache.min_dist(q, &s, metric);
                    let reference = naive(q, &s, metric);
                    assert!(close(got.0, reference.0), "case {case} {metric:?}");
                    requests += 1;
                }
            }
        }
        let st = cache.stats();
        assert_eq!(st.kernel_evals + st.cache_hits, requests, "case {case}");
        assert!(st.cache_hits >= requests / 2, "second round must hit");
    }
}

// ---- pinned zero-variance regressions (satellite: flat series must not ----
// ---- poison the argmin with NaN)                                       ----

#[test]
fn flat_series_regression_no_nan_poisoning() {
    let flat = vec![3.25; 48];
    let q: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).sin()).collect();

    // MASS profile over a flat series: every window is constant, the query
    // is not → every entry is exactly √m (the one-side-constant convention)
    let profile = mass(&q, &flat);
    assert!(
        profile.iter().all(|v| v.is_finite()),
        "NaN leaked from zero-σ windows"
    );
    for v in &profile {
        assert_eq!(*v, (q.len() as f64).sqrt());
    }

    // naive and kernel minima agree on the pinned value m/m = 1.0
    assert_eq!(sliding_min_dist_znorm(&q, &flat), (1.0, 0));
    let kernel = batch_min_dist_with(
        &[&q],
        &flat,
        Metric::ZNormEuclidean,
        KernelPolicy::ForceKernel,
    )[0];
    assert_eq!(kernel.0, 1.0);

    // flat vs flat (different levels): identical after z-normalization
    let flat_q = vec![-7.5; 6];
    assert_eq!(sliding_min_dist_znorm(&flat_q, &flat), (0.0, 0));
    let kernel = batch_min_dist_with(
        &[&flat_q],
        &flat,
        Metric::ZNormEuclidean,
        KernelPolicy::ForceKernel,
    )[0];
    assert_eq!(kernel.0, 0.0);
}

#[test]
fn query_longer_than_series_follows_swap_semantics() {
    let mut g = Gen(0x10CA1);
    let s = g.vec(12);
    let q = g.vec(40);
    for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
        let out = batch_min_dist_with(&[&q], &s, metric, KernelPolicy::ForceKernel)[0];
        let reference = naive(&q, &s, metric);
        assert!(close(out.0, reference.0), "{metric:?}");
    }
}

// ---- bit identity of the allocation-free z-norm kernel ----------------

/// The profile reference: the whole z-normalized distance profile, its
/// first argmin (NaN skipped), then the `d²/m` scale conversion.
fn profile_reference(q: &[f64], s: &[f64]) -> (f64, usize) {
    let (q, s) = if q.len() <= s.len() { (q, s) } else { (s, q) };
    if q.is_empty() {
        return (f64::INFINITY, 0);
    }
    argmin(&dist_profile_znorm(q, s))
        .map_or((f64::INFINITY, 0), |(i, d)| (d * d / q.len() as f64, i))
}

fn assert_bits(got: (f64, usize), want: (f64, usize), tag: &str) {
    assert!(
        got.0.to_bits() == want.0.to_bits() && got.1 == want.1,
        "{tag}: got {got:?}, reference {want:?}"
    );
}

/// Every z-norm entry point against the profile reference: the public
/// sliding min, the kernel over shared stats, and the series-major
/// evaluator (naive by policy and by crossover).
fn check_znorm_bits(q: &[f64], s: &[f64], tag: &str) {
    let want = profile_reference(q, s);
    assert_bits(sliding_min_dist_znorm(q, s), want, tag);
    let (oq, os) = if q.len() <= s.len() { (q, s) } else { (s, q) };
    if !oq.is_empty() {
        let stats = RollingStats::new(os, oq.len());
        assert_bits(znorm_min_dist(oq, os, &stats), want, tag);
    }
    let req = [MinDistRequest::new(q, s, Metric::ZNormEuclidean)];
    for policy in [KernelPolicy::ForceNaive, KernelPolicy::Auto] {
        let (got, stats) = DistCache::with_policy(policy).evaluate(&req);
        assert_bits(got[0], want, &format!("{tag} evaluate {policy:?}"));
        assert_eq!((stats.kernel_evals, stats.cache_hits), (1, 0), "{tag}");
    }
}

#[test]
fn znorm_kernel_is_bit_identical_across_geometries() {
    // Every (m, n) up to 24: m not a multiple of 4, window counts not a
    // multiple of 4, and m == n.
    let mut g = Gen(0xB175);
    for n in 1..=24 {
        let s = g.vec(n);
        for m in 1..=n {
            let q = g.vec(m);
            check_znorm_bits(&q, &s, &format!("m={m} n={n}"));
        }
        // the query longer than the series swaps, as the reference does
        let long = g.vec(n + 3);
        check_znorm_bits(&long, &s, &format!("swap n={n}"));
    }
    for case in 0..cases() {
        let mut g = Gen(0xB17E ^ (case as u64) << 1);
        let slen = g.usize_in(1, 160);
        let s = g.vec(slen);
        let qlen = g.usize_in(1, 160);
        let q = g.vec(qlen);
        check_znorm_bits(&q, &s, &format!("case {case}"));
    }
}

#[test]
fn znorm_kernel_bit_identity_on_constant_and_near_floor_windows() {
    for case in 0..cases() {
        let mut g = Gen(0xF1A7 ^ (case as u64) << 1);
        let level = g.value();
        // σ just below, at and just above the zero-variance floor, so the
        // constant / varying decision itself is exercised
        let scale = [0.0, 0.5, 1.0, 2.0, 8.0][case % 5] * ZNORM_SIGMA_FLOOR * (1.0 + level.abs());
        let head_len = g.usize_in(0, 12);
        let head = g.vec(head_len);
        let run = g.usize_in(4, 40);
        let mut s = head;
        for i in 0..run {
            s.push(level + if i % 2 == 0 { scale } else { -scale });
        }
        let tail_len = g.usize_in(0, 12);
        let tail = g.vec(tail_len);
        s.extend(tail);
        let qlen = g.usize_in(1, s.len());
        let q: Vec<f64> = match case % 3 {
            0 => vec![g.value(); qlen],
            1 => (0..qlen)
                .map(|i| level + if i % 2 == 0 { scale } else { -scale })
                .collect(),
            _ => g.vec(qlen),
        };
        check_znorm_bits(&q, &s, &format!("flat case {case}"));
    }
}

#[test]
fn znorm_kernel_bit_identity_with_nan() {
    for case in 0..cases() {
        let mut g = Gen(0x0A0A ^ (case as u64) << 1);
        let slen = g.usize_in(2, 64);
        let mut s = g.vec(slen);
        let qlen = g.usize_in(1, slen);
        let mut q = g.vec(qlen);
        if case % 2 == 0 {
            let at = g.usize_in(0, slen - 1);
            s[at] = f64::NAN;
        } else {
            let at = g.usize_in(0, qlen - 1);
            q[at] = f64::NAN;
        }
        check_znorm_bits(&q, &s, &format!("nan case {case}"));
    }
}

#[test]
fn znorm_kernel_bit_identity_on_near_ties() {
    // A periodic series whose windows repeat up to tiny perturbations, and
    // a query cut from it: many windows' correlations agree to within a
    // few ulps (or saturate the clamp at 1), so the first-argmin choice
    // and the kernel's skip tests are decided by last-bit differences.
    for case in 0..cases() {
        let mut g = Gen(0x71E5 ^ (case as u64) << 1);
        let period = g.usize_in(3, 17);
        let reps = g.usize_in(4, 12);
        let base = g.vec(period);
        let noise = [0.0, 1e-15, 1e-12, 1e-9, 1e-6][case % 5];
        let s: Vec<f64> = (0..period * reps)
            .map(|i| base[i % period] * (1.0 + noise * g.value() / 100.0))
            .collect();
        let qlen = g.usize_in(1, 3 * period).min(s.len());
        let at = g.usize_in(0, s.len() - qlen);
        let q: Vec<f64> = s[at..at + qlen]
            .iter()
            .map(|x| x * (1.0 + noise * g.value() / 100.0))
            .collect();
        check_znorm_bits(&q, &s, &format!("tie case {case}"));
    }
}

/// Series-major evaluation over a mixed request list — shared series in
/// several allocations, many query lengths, both metrics, requests the
/// crossover sends to the FFT kernel — equals one fresh `min_dist` per
/// request bit for bit, with the same eval and fallback counts.
#[test]
fn evaluate_matches_min_dist_on_naive_and_kernel_routes() {
    let mut g = Gen(0xE7A1);
    let long = g.vec(512);
    let long_copy = long.clone();
    let short = g.vec(96);
    let mut poisoned = g.vec(300);
    poisoned[7] = f64::NAN;
    let queries: Vec<Vec<f64>> = [5, 13, 24, 64, 128, 200]
        .iter()
        .map(|&m| g.vec(m))
        .collect();
    let series: [&[f64]; 4] = [&long, &long_copy, &short, &poisoned];
    for policy in [KernelPolicy::Auto, KernelPolicy::ForceKernel] {
        for inject in [false, true] {
            let mut evaluator = DistCache::with_policy(policy);
            if inject {
                evaluator.inject_kernel_failure("test");
            }
            let mut args = Vec::new();
            for metric in [Metric::ZNormEuclidean, Metric::MeanSquared] {
                for s in series {
                    for q in &queries {
                        args.push((q.as_slice(), s, metric));
                    }
                }
            }
            let requests: Vec<MinDistRequest> = args
                .iter()
                .map(|&(q, s, metric)| MinDistRequest::new(q, s, metric))
                .collect();
            let (got, stats) = evaluator.evaluate(&requests);
            let mut fallbacks = 0;
            for (r, (&(q, s, metric), got)) in args.iter().zip(&got).enumerate() {
                let mut fresh = DistCache::with_policy(policy);
                if inject {
                    fresh.inject_kernel_failure("test");
                }
                let want = fresh.min_dist(q, s, metric);
                fallbacks += fresh.stats().kernel_fallbacks;
                assert_bits(
                    *got,
                    want,
                    &format!("{policy:?} inject={inject} request {r}"),
                );
            }
            assert_eq!(stats.kernel_evals, requests.len());
            assert_eq!(stats.cache_hits, 0);
            assert_eq!(
                stats.kernel_fallbacks, fallbacks,
                "{policy:?} inject={inject}"
            );
            if inject {
                // every kernel-routed request fell back, so this proves the
                // crossover sent some of them to the FFT path
                assert!(
                    fallbacks > 0,
                    "{policy:?}: no request took the kernel route"
                );
            }
        }
    }
}
