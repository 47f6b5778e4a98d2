//! The paper's instance profile (Definitions 8–9).
//!
//! Given a concatenation of sampled class instances, the instance profile
//! annotates every *valid* subsequence (one that does not straddle an
//! instance boundary) with its nearest-neighbor distance among subsequences
//! of **other** instances in the sample (`m' != m` in Definition 9). This
//! fixes the MP baseline's habit of matching a subsequence against its own
//! instance, and — because the concatenation is a *sample* rather than the
//! whole class — yields diverse candidates across repeated draws.

use ips_distance::rolling::RollingStats;
use ips_distance::znorm_sq_from_dot;
use ips_tsdata::ClassConcat;

use crate::matrix::{diagonal_starts, sq_dist, Metric};

/// One annotated subsequence of the instance profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileEntry {
    /// Start offset in the concatenated series.
    pub start: usize,
    /// Nearest-neighbor distance among other-instance subsequences.
    pub value: f64,
    /// Start offset (in the concatenation) of that nearest neighbor.
    pub nn_start: usize,
}

/// The instance profile of one sampled concatenation at one window length.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceProfile {
    entries: Vec<ProfileEntry>,
    window: usize,
    metric: Metric,
}

impl InstanceProfile {
    /// Computes the instance profile of `concat` for window length
    /// `window`.
    ///
    /// Implementation: one diagonal walk per *unordered* instance pair
    /// `(p, q)`, `p < q`, over the distance matrix of `p`'s windows
    /// against `q`'s, with the incremental recurrences of
    /// [`MatrixProfile::ab_join`](crate::MatrixProfile::ab_join). Each
    /// cell's running dot product (raw squared distance for
    /// [`Metric::MeanSquared`]) updates row `i` of `p` and row `j` of `q`
    /// together, so the minimum over all other instances is the `ip_i` of
    /// Definition 9. Subsequences straddling a boundary never appear
    /// because the walk runs on per-instance slices.
    ///
    /// The values are bit-identical to taking, per window, the minimum of
    /// `ab_join(a, b)` over every other instance `b`:
    ///
    /// * a cell's dot product has the same bits in both directions
    ///   (products commute, and the transposed diagonal starts at the
    ///   transposed cell), and the z-normalized formula runs once per
    ///   direction with that direction's argument order;
    /// * minima are taken before the final `sqrt` (z-normalized) or `/ m`
    ///   (mean squared), both correctly rounded and monotone, so the
    ///   minimum of the finished values is the finished minimum.
    ///
    /// `nn_start` is *a* nearest neighbor: ties may pick a different one
    /// than the ordered-pair joins would.
    pub fn compute(concat: &ClassConcat, window: usize, metric: Metric) -> Self {
        let values = concat.values();
        let mut rows: Vec<Row<'_>> = (0..concat.num_instances())
            .filter_map(|k| {
                let (start, len, _) = concat.segment(k);
                (window > 0 && len >= window)
                    .then(|| Row::new(&values[start..start + len], start, window))
            })
            .collect();
        // Window statistics once per instance, shared by all its pairs.
        let stats: Vec<RollingStats> = match metric {
            Metric::MeanSquared => Vec::new(),
            Metric::ZNormEuclidean => rows
                .iter()
                .map(|row| RollingStats::new(row.slice, window))
                .collect(),
        };
        for q in 1..rows.len() {
            let (head, tail) = rows.split_at_mut(q);
            let b = &mut tail[0];
            for (p, a) in head.iter_mut().enumerate() {
                match metric {
                    Metric::MeanSquared => join_mean_sq(a, b, window),
                    Metric::ZNormEuclidean => join_znorm(a, b, &stats[p], &stats[q], window),
                }
            }
        }
        let finish = |best: f64| match metric {
            Metric::MeanSquared => best / window as f64,
            Metric::ZNormEuclidean => best.sqrt(),
        };
        let entries = rows
            .iter()
            .flat_map(|row| {
                row.best
                    .iter()
                    .zip(&row.nn)
                    .enumerate()
                    .map(move |(i, (&best, &nn_start))| ProfileEntry {
                        start: row.start + i,
                        value: finish(best),
                        nn_start,
                    })
            })
            .collect();
        Self {
            entries,
            window,
            metric,
        }
    }

    /// All annotated subsequences in start order.
    #[inline]
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// Window length `L`.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Metric used.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of annotated subsequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no instance was long enough for the window.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The motif: the entry with the minimum profile value (`min(IP)` of
    /// Algorithm 1, line 7). `None` when empty or all-infinite.
    pub fn motif(&self) -> Option<ProfileEntry> {
        self.entries
            .iter()
            .filter(|e| e.value.is_finite())
            .min_by(|a, b| a.value.partial_cmp(&b.value).expect("finite"))
            .copied()
    }

    /// The discord: the entry with the maximum finite profile value
    /// (`max(IP)` of Algorithm 1, line 8).
    pub fn discord(&self) -> Option<ProfileEntry> {
        self.entries
            .iter()
            .filter(|e| e.value.is_finite())
            .max_by(|a, b| a.value.partial_cmp(&b.value).expect("finite"))
            .copied()
    }

    /// Profile values only, in start order (for plotting / Figure-style
    /// output).
    pub fn values(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.value).collect()
    }
}

/// One instance's side of the join: the running minimum per window
/// (before the final `sqrt` or `/ m`) and where it was found.
struct Row<'a> {
    slice: &'a [f64],
    /// Offset of the instance in the concatenation.
    start: usize,
    best: Vec<f64>,
    nn: Vec<usize>,
}

impl<'a> Row<'a> {
    fn new(slice: &'a [f64], start: usize, window: usize) -> Self {
        let n = slice.len() - window + 1;
        Self {
            slice,
            start,
            best: vec![f64::INFINITY; n],
            nn: vec![0; n],
        }
    }

    #[inline]
    fn update(&mut self, i: usize, sq: f64, nn_start: usize) {
        if sq < self.best[i] {
            self.best[i] = sq;
            self.nn[i] = nn_start;
        }
    }
}

/// Mean-squared join of one unordered pair: the raw squared distance is
/// symmetric bit for bit, so each cell's one value updates both rows.
fn join_mean_sq(a: &mut Row<'_>, b: &mut Row<'_>, m: usize) {
    let (sa, sb) = (a.slice, b.slice);
    let (n_a, n_b) = (a.best.len(), b.best.len());
    for (i0, j0) in diagonal_starts(n_a, n_b) {
        // The first cell is not clamped, exactly as in `ab_join`.
        let mut sq = sq_dist(&sa[i0..i0 + m], &sb[j0..j0 + m]);
        a.update(i0, sq, b.start + j0);
        b.update(j0, sq, a.start + i0);
        for t in 1..(n_a - i0).min(n_b - j0) {
            let (i, j) = (i0 + t, j0 + t);
            let drop = sa[i - 1] - sb[j - 1];
            let add = sa[i + m - 1] - sb[j + m - 1];
            sq += add * add - drop * drop;
            let sq_c = sq.max(0.0);
            a.update(i, sq_c, b.start + j);
            b.update(j, sq_c, a.start + i);
        }
    }
}

/// Z-normalized join of one unordered pair: one running dot product per
/// cell, the squared-distance formula evaluated once per direction.
fn join_znorm(
    a: &mut Row<'_>,
    b: &mut Row<'_>,
    stats_a: &RollingStats,
    stats_b: &RollingStats,
    m: usize,
) {
    let (sa, sb) = (a.slice, b.slice);
    let (n_a, n_b) = (a.best.len(), b.best.len());
    let (mu_a, sd_a) = (stats_a.means(), stats_a.stds());
    let (mu_b, sd_b) = (stats_b.means(), stats_b.stds());
    for (i0, j0) in diagonal_starts(n_a, n_b) {
        let mut qt: f64 = sa[i0..i0 + m]
            .iter()
            .zip(&sb[j0..j0 + m])
            .map(|(x, y)| x * y)
            .sum();
        for t in 0..(n_a - i0).min(n_b - j0) {
            let (i, j) = (i0 + t, j0 + t);
            if t > 0 {
                qt += sa[i + m - 1] * sb[j + m - 1] - sa[i - 1] * sb[j - 1];
            }
            a.update(
                i,
                znorm_sq_from_dot(qt, m, mu_a[i], sd_a[i], mu_b[j], sd_b[j]),
                b.start + j,
            );
            b.update(
                j,
                znorm_sq_from_dot(qt, m, mu_b[j], sd_b[j], mu_a[i], sd_a[i]),
                a.start + i,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::{ClassConcat, Dataset, TimeSeries};

    fn concat_of(seqs: &[Vec<f64>]) -> ClassConcat {
        ClassConcat::from_instances(seqs.iter().enumerate().map(|(i, v)| (i, v.as_slice())))
    }

    #[test]
    fn motif_is_the_shared_pattern() {
        // Pattern present in instances 0 and 2, absent in 1.
        let pat = vec![5.0, 6.0, 5.5, 6.5, 5.0];
        let mut a = vec![0.0; 30];
        a[8..13].copy_from_slice(&pat);
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin() * 0.3).collect();
        let mut c = vec![0.1; 30];
        c[20..25].copy_from_slice(&pat);
        let concat = concat_of(&[a, b, c]);
        let ip = InstanceProfile::compute(&concat, 5, Metric::MeanSquared);
        let motif = ip.motif().unwrap();
        assert!(motif.value < 1e-10);
        assert!(motif.start == 8 || motif.start == 30 + 30 + 20);
        // the nearest neighbor is the twin occurrence in the other instance
        let (inst_m, _) = concat.to_instance_coords(motif.start);
        let (inst_nn, _) = concat.to_instance_coords(motif.nn_start);
        assert_ne!(inst_m, inst_nn);
    }

    #[test]
    fn same_instance_matches_are_excluded() {
        // A pattern repeated twice *within* instance 0 but absent elsewhere
        // must NOT produce a zero profile value (the MP baseline would).
        let pat = vec![9.0, 8.0, 9.5, 8.5];
        let mut a = vec![0.0; 30];
        a[2..6].copy_from_slice(&pat);
        a[20..24].copy_from_slice(&pat);
        let b = vec![0.0; 30];
        let concat = concat_of(&[a, b]);
        let ip = InstanceProfile::compute(&concat, 4, Metric::MeanSquared);
        let at2 = ip.entries().iter().find(|e| e.start == 2).unwrap();
        assert!(
            at2.value > 1.0,
            "same-instance twin must not count: {}",
            at2.value
        );
    }

    #[test]
    fn no_straddling_subsequences() {
        let concat = concat_of(&[vec![1.0; 10], vec![2.0; 10]]);
        let ip = InstanceProfile::compute(&concat, 4, Metric::MeanSquared);
        // valid starts: 0..=6 and 10..=16 — never 7, 8, 9
        assert_eq!(ip.len(), 14);
        assert!(ip
            .entries()
            .iter()
            .all(|e| concat.within_one_instance(e.start, 4)));
    }

    #[test]
    fn entry_count_matches_definition() {
        // |D_C| instances of length N give |D_C|·(N − L + 1) entries.
        let seqs: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..25).map(|i| ((i + k * 7) as f64 * 0.3).sin()).collect())
            .collect();
        let concat = concat_of(&seqs);
        let ip = InstanceProfile::compute(&concat, 6, Metric::MeanSquared);
        assert_eq!(ip.len(), 4 * (25 - 6 + 1));
    }

    #[test]
    fn short_instances_are_skipped() {
        let concat = concat_of(&[vec![1.0, 2.0], vec![0.0; 12]]);
        let ip = InstanceProfile::compute(&concat, 5, Metric::MeanSquared);
        assert_eq!(ip.len(), 8); // only the second instance contributes
                                 // single-instance sample: every neighbor search has no other long
                                 // instance? No — instance 0 is too short to provide neighbors, so
                                 // the profile is infinite and motif() is None.
        assert!(ip.motif().is_none());
        assert!(ip.discord().is_none());
    }

    #[test]
    fn works_from_dataset_concat() {
        let data = Dataset::new(
            vec![
                TimeSeries::new((0..20).map(|i| (i as f64 * 0.4).sin()).collect()),
                TimeSeries::new((0..20).map(|i| (i as f64 * 0.4).sin() + 0.01).collect()),
            ],
            vec![1, 1],
        )
        .unwrap();
        let cc = data.concat_class(1);
        let ip = InstanceProfile::compute(&cc, 5, Metric::ZNormEuclidean);
        assert_eq!(ip.len(), 2 * 16);
        let motif = ip.motif().unwrap();
        assert!(
            motif.value < 0.5,
            "near-identical instances: {}",
            motif.value
        );
    }

    #[test]
    fn values_are_start_ordered() {
        let concat = concat_of(&[vec![0.5; 10], vec![1.0; 10], vec![0.0; 10]]);
        let ip = InstanceProfile::compute(&concat, 3, Metric::MeanSquared);
        let starts: Vec<usize> = ip.entries().iter().map(|e| e.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
