//! Property-based tests of the profile invariants.

use ips_distance::{znorm_dist_from_dot, RollingStats};
use ips_profile::{InstanceProfile, MatrixProfile, Metric};
use ips_tsdata::{registry, ClassConcat};
use proptest::prelude::*;

fn series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, len)
}

/// One instance: random values, a constant, a near-constant (noise far
/// below the z-norm σ floor), or random values around a constant run —
/// the last three reach the constant-window branch of the z-norm formula.
fn instance(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    (0u8..5, series(len), -10.0f64..10.0).prop_map(|(kind, mut v, c)| {
        let n = v.len();
        match kind {
            1 => v.iter_mut().for_each(|x| *x = c),
            2 => v.iter_mut().for_each(|x| *x = c + *x * 1e-9),
            3 => v[n / 4..n - n / 4].iter_mut().for_each(|x| *x = c),
            _ => {}
        }
        v
    })
}

fn concat_of(instances: &[Vec<f64>]) -> ClassConcat {
    ClassConcat::from_instances(instances.iter().enumerate().map(|(i, v)| (i, v.as_slice())))
}

/// The ordered-pair instance profile: per window of every instance `a`
/// long enough, the minimum over every other instance `b`, in `b` order
/// with a strict `<`, of `MatrixProfile::ab_join(a, b)`. Returns
/// `(start, value, nn_start)` in start order.
fn ordered_pair_reference(
    cc: &ClassConcat,
    window: usize,
    metric: Metric,
) -> Vec<(usize, f64, usize)> {
    let values = cc.values();
    let mut out = Vec::new();
    for ai in 0..cc.num_instances() {
        let (a_start, a_len, _) = cc.segment(ai);
        if window == 0 || a_len < window {
            continue;
        }
        let a = &values[a_start..a_start + a_len];
        let mut best = vec![(f64::INFINITY, 0usize); a_len - window + 1];
        for bi in (0..cc.num_instances()).filter(|&bi| bi != ai) {
            let (b_start, b_len, _) = cc.segment(bi);
            if b_len < window {
                continue;
            }
            let mp = MatrixProfile::ab_join(a, &values[b_start..b_start + b_len], window, metric);
            for (slot, (&v, &nn)) in best.iter_mut().zip(mp.values().iter().zip(mp.nn_index())) {
                if v < slot.0 {
                    *slot = (v, b_start + nn);
                }
            }
        }
        out.extend(
            best.into_iter()
                .enumerate()
                .map(|(i, (v, nn))| (a_start + i, v, nn)),
        );
    }
    out
}

/// The distance from window `i` of `a` to window `j` of `b`, by the
/// diagonal recurrence `MatrixProfile::ab_join(a, b)` walks to reach cell
/// `(i, j)`: the diagonal starts on the top row or the left column.
fn cell_dist(a: &[f64], b: &[f64], i: usize, j: usize, m: usize, metric: Metric) -> f64 {
    let t = i.min(j);
    let (i0, j0) = (i - t, j - t);
    match metric {
        Metric::MeanSquared => {
            let mut sq: f64 = a[i0..i0 + m]
                .iter()
                .zip(&b[j0..j0 + m])
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            for s in 1..=t {
                let (i, j) = (i0 + s, j0 + s);
                let drop = a[i - 1] - b[j - 1];
                let add = a[i + m - 1] - b[j + m - 1];
                sq += add * add - drop * drop;
            }
            // `ab_join` clamps every cell but a diagonal's first
            if t > 0 {
                sq = sq.max(0.0);
            }
            sq / m as f64
        }
        Metric::ZNormEuclidean => {
            let mut qt: f64 = a[i0..i0 + m]
                .iter()
                .zip(&b[j0..j0 + m])
                .map(|(x, y)| x * y)
                .sum();
            for s in 1..=t {
                let (i, j) = (i0 + s, j0 + s);
                qt += a[i + m - 1] * b[j + m - 1] - a[i - 1] * b[j - 1];
            }
            let (sa, sb) = (RollingStats::new(a, m), RollingStats::new(b, m));
            znorm_dist_from_dot(qt, m, sa.mean(i), sa.std(i), sb.mean(j), sb.std(j))
        }
    }
}

/// `InstanceProfile::compute` against the ordered-pair reference: the
/// same starts, bitwise-equal values, and an `nn_start` in another
/// instance at which the recomputed distance is bitwise the value.
fn check_against_reference(cc: &ClassConcat, window: usize, metric: Metric) -> Result<(), String> {
    let ip = InstanceProfile::compute(cc, window, metric);
    let want = ordered_pair_reference(cc, window, metric);
    if ip.len() != want.len() {
        return Err(format!(
            "{} entries, reference has {}",
            ip.len(),
            want.len()
        ));
    }
    let values = cc.values();
    for (e, &(start, value, _)) in ip.entries().iter().zip(&want) {
        if e.start != start || e.value.to_bits() != value.to_bits() {
            return Err(format!(
                "{metric:?} w={window}: entry ({}, {:e}) vs reference ({start}, {value:e})",
                e.start, e.value
            ));
        }
        if !e.value.is_finite() {
            continue;
        }
        let (ai, bi) = (cc.instance_of(e.start), cc.instance_of(e.nn_start));
        let ((a_start, a_len, _), (b_start, b_len, _)) = (cc.segment(ai), cc.segment(bi));
        if ai == bi || e.nn_start + window > b_start + b_len {
            return Err(format!(
                "{metric:?} w={window}: bad nn_start {} for {}",
                e.nn_start, e.start
            ));
        }
        let d = cell_dist(
            &values[a_start..a_start + a_len],
            &values[b_start..b_start + b_len],
            e.start - a_start,
            e.nn_start - b_start,
            window,
            metric,
        );
        if d.to_bits() != e.value.to_bits() {
            return Err(format!(
                "{metric:?} w={window}: distance at nn_start {} is {d:e}, value {:e}",
                e.nn_start, e.value
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_equals_brute(s in series(20..80), w in 3usize..10) {
        prop_assume!(s.len() >= w + 4);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let fast = MatrixProfile::self_join_excl(&s, w, metric, w / 2);
            let slow = MatrixProfile::self_join_brute(&s, w, metric, w / 2);
            for i in 0..fast.len() {
                let (a, b) = (fast.values()[i], slow.values()[i]);
                if a.is_finite() || b.is_finite() {
                    prop_assert!((a - b).abs() < 1e-5, "{:?} at {}: {} vs {}", metric, i, a, b);
                }
            }
        }
    }

    #[test]
    fn ab_join_is_elementwise_min_over_queries(a in series(12..40), b in series(12..40), w in 3usize..8) {
        prop_assume!(a.len() >= w && b.len() >= w);
        let mp = MatrixProfile::ab_join(&a, &b, w, Metric::MeanSquared);
        for (i, &v) in mp.values().iter().enumerate() {
            let naive = ips_distance::dist_profile(&a[i..i + w], &b)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            prop_assert!((v - naive).abs() < 1e-6);
        }
    }

    #[test]
    fn profile_values_nonnegative_and_nn_outside_exclusion(s in series(24..64), w in 3usize..8) {
        let excl = w / 2;
        let mp = MatrixProfile::self_join_excl(&s, w, Metric::MeanSquared, excl);
        for (i, (&v, &nn)) in mp.values().iter().zip(mp.nn_index()).enumerate() {
            if v.is_finite() {
                prop_assert!(v >= 0.0);
                prop_assert!(i.abs_diff(nn) > excl);
            }
        }
    }

    #[test]
    fn instance_profile_dominates_matrix_profile(
        instances in prop::collection::vec(series(12..24), 2..5),
        w in 3usize..6,
    ) {
        let cc = ClassConcat::from_instances(
            instances.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
        );
        let ip = InstanceProfile::compute(&cc, w, Metric::MeanSquared);
        let mp = MatrixProfile::self_join_excl(cc.values(), w, Metric::MeanSquared, 0);
        // excluding same-instance matches can only grow the NN distance
        for e in ip.entries() {
            let m = mp.values()[e.start];
            if e.value.is_finite() {
                prop_assert!(m <= e.value + 1e-9, "at {}: {} > {}", e.start, m, e.value);
            }
        }
    }

    #[test]
    fn instance_profile_is_bitwise_the_ordered_pair_reference(
        instances in prop::collection::vec(instance(1..24), 1..6),
        w in 0usize..12,
        window_is_first_length in any::<bool>(),
    ) {
        let w = if window_is_first_length { instances[0].len() } else { w };
        let cc = concat_of(&instances);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            if let Err(msg) = check_against_reference(&cc, w, metric) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}

/// The same contract at the benchmark's geometries: 5-instance samples of
/// every class of ItalyPowerDemand (length 24), CBF (128) and ArrowHead
/// (251), at the five length ratios of the default configuration (0.1 to
/// 0.5 of the series length, floored at 8), both metrics.
#[test]
fn instance_profile_matches_reference_at_benchmark_geometries() {
    for name in ["ItalyPowerDemand", "CBF", "ArrowHead"] {
        let (train, _) = registry::load(name).expect("registry dataset");
        for class in train.classes() {
            let members = train.class_indices(class);
            let sample = &members[..members.len().min(5)];
            let cc =
                ClassConcat::from_instances(sample.iter().map(|&i| (i, train.series(i).values())));
            let n = sample
                .iter()
                .map(|&i| train.series(i).len())
                .min()
                .unwrap_or(0);
            for ratio in [0.1, 0.2, 0.3, 0.4, 0.5] {
                let window = ((ratio * n as f64).round() as usize).clamp(8, n);
                for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
                    if let Err(msg) = check_against_reference(&cc, window, metric) {
                        panic!("{name} class {class}: {msg}");
                    }
                }
            }
        }
    }
}
