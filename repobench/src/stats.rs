//! Sample summaries: medians, supported tail percentiles, and ratios that
//! carry their base.

/// Candidate tail percentiles, lowest first.
pub const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// Samples a tail percentile must have strictly beyond it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples. The small
/// slack keeps binary rounding (99.99 / 100 × 100 000 = 99 990.000…01)
/// from pushing an exact rank up by one.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// Samples that lie beyond the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_SUPPORT`] of `n` samples beyond it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= TAIL_SUPPORT)
}

/// Samples needed before percentile `q` is supported.
pub fn samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= TAIL_SUPPORT)
        .expect("every percentile below 100 is eventually supported")
}

/// Throughput over slices of busy time, accumulated as the work is done:
/// units of work are pushed in order as `(completed, seconds)`;
/// consecutive units are grouped into slices of at least `slice_s`
/// seconds, and each slice's rate is its completions over its seconds.
#[derive(Debug, Clone)]
pub struct SliceRates {
    slice_s: f64,
    open: (usize, f64),
    rates: Vec<f64>,
}

impl SliceRates {
    /// No work yet, slices of `slice_s` seconds.
    pub fn new(slice_s: f64) -> Self {
        Self {
            slice_s,
            open: (0, 0.0),
            rates: Vec::new(),
        }
    }

    /// Adds one unit of work.
    pub fn push(&mut self, completed: usize, seconds: f64) {
        let (n, t) = &mut self.open;
        *n += completed;
        *t += seconds;
        if *t >= self.slice_s {
            self.rates.push(*n as f64 / *t);
            self.open = (0, 0.0);
        }
    }

    /// Nearest-rank percentile `q` of the slice rates, and the number of
    /// slices. A remainder of at least half a slice (or a run shorter than
    /// one slice) forms a last slice.
    pub fn percentile(&self, q: f64) -> (f64, usize) {
        let (n, t) = self.open;
        let mut rates = self.rates.clone();
        if t > 0.0 && (rates.is_empty() || t >= self.slice_s / 2.0) {
            rates.push(n as f64 / t);
        }
        (percentile(&rates, q), rates.len())
    }
}

/// A share `part / base` that keeps both counts, so every reported ratio
/// names what it divides by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    /// Outcomes counted.
    pub part: u64,
    /// Attempts they are a share of.
    pub base: u64,
}

impl Ratio {
    /// Pruning ratio: candidates removed of the candidates entering pruning.
    pub fn pruned(pruned: usize, candidates_in: usize) -> Self {
        Self {
            part: pruned as u64,
            base: candidates_in as u64,
        }
    }

    /// Cache hit ratio: memo hits of all distance requests (hits plus
    /// computed kernel evaluations).
    pub fn hits(cache_hits: usize, kernel_evals: usize) -> Self {
        Self {
            part: cache_hits as u64,
            base: (cache_hits + kernel_evals) as u64,
        }
    }

    /// `part / base`, or 0 when nothing was attempted.
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }

    /// Field-wise sum.
    pub fn merge(&mut self, other: Ratio) {
        self.part += other.part;
        self.base += other.base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_for(99.0), 1000);
        assert_eq!(samples_for(90.0), 100);
    }

    fn rate(events: &[(usize, f64)], slice_s: f64, q: f64) -> (f64, usize) {
        let mut rates = SliceRates::new(slice_s);
        for &(completed, seconds) in events {
            rates.push(completed, seconds);
        }
        rates.percentile(q)
    }

    #[test]
    fn rate_is_a_percentile_over_busy_time_slices() {
        // Four slices of one second: 10, 20, 30 and 1000 events per second.
        let events = [(10, 1.0), (20, 1.0), (15, 0.5), (15, 0.5), (1000, 1.0)];
        assert_eq!(rate(&events, 1.0, 50.0), (20.0, 4));
        assert_eq!(rate(&events, 1.0, 10.0), (10.0, 4));
        // A remainder under half a slice folds into nothing; a run shorter
        // than one slice is one slice.
        assert_eq!(rate(&[(4, 1.0), (1, 0.1)], 1.0, 10.0), (4.0, 1));
        assert_eq!(rate(&[(3, 0.1)], 1.0, 10.0).1, 1);
    }

    #[test]
    fn ratios_name_their_base() {
        // Nothing pruned out of 900 candidates entering pruning.
        let r = Ratio::pruned(0, 900);
        assert_eq!((r.part, r.base, r.value()), (0, 900, 0.0));
        // The hit ratio divides by every request, hits included.
        let r = Ratio::hits(30, 70);
        assert_eq!((r.part, r.base), (30, 100));
        assert!((r.value() - 0.3).abs() < 1e-12);
        // A cold cache serving 500 requests has no hits.
        assert_eq!(Ratio::hits(0, 500).value(), 0.0);
        // No attempts: the share is 0, not NaN.
        assert_eq!(Ratio::default().value(), 0.0);
        let mut r = Ratio::pruned(1, 4);
        r.merge(Ratio::pruned(1, 6));
        assert_eq!(r.value(), 0.2);
    }
}
