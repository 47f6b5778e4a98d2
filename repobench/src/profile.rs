//! Instance-profile microbench: `InstanceProfile::compute` on the
//! concatenation of the first `Q_S` training instances of each class, at
//! every candidate length the workload's configuration gives.
//!
//! `cells` is the logical size of the distance matrices one sweep covers —
//! ordered instance pairs × windows × windows — computed from the geometry,
//! not counted inside the library. A join that skips work (a symmetric
//! join, say) keeps the same cell count and shows as fewer ns per cell.

use std::hint::black_box;
use std::time::Instant;

use ips_core::IpsConfig;
use ips_profile::InstanceProfile;
use ips_tsdata::{ClassConcat, Dataset};

/// One microbench case.
struct Case {
    concat: ClassConcat,
    window: usize,
}

/// Logical distance-matrix cells of one profile: for every ordered pair of
/// distinct instances long enough for the window, `windows(a) × windows(b)`.
pub fn cells(lengths: &[usize], window: usize) -> u64 {
    let windows: Vec<u64> = lengths
        .iter()
        .filter(|&&n| window > 0 && n >= window)
        .map(|&n| (n - window + 1) as u64)
        .collect();
    let total: u64 = windows.iter().sum();
    windows.iter().map(|w| w * (total - w)).sum()
}

/// The result of [`run`].
#[derive(Debug, Clone, Copy)]
pub struct ProfileBench {
    /// Median seconds of one sweep over every case.
    pub sweep_s: f64,
    /// Logical cells of one sweep.
    pub cells: u64,
    /// Sweeps timed.
    pub sweeps: usize,
}

/// Times sweeps over the cases of `trains` until at least `min_sweeps`
/// ran and `min_seconds` passed.
pub fn run(
    trains: &[&Dataset],
    config: &IpsConfig,
    min_sweeps: usize,
    min_seconds: f64,
) -> ProfileBench {
    let mut cases = Vec::new();
    let mut total_cells = 0;
    for train in trains {
        for class in train.classes() {
            let members = train.class_indices(class);
            let take = config.sample_size.clamp(2, members.len().max(1));
            let first = &members[..take.min(members.len())];
            let lengths: Vec<usize> = first.iter().map(|&i| train.series(i).len()).collect();
            let shortest = lengths.iter().copied().min().unwrap_or(0);
            for window in config.lengths_for(shortest) {
                total_cells += cells(&lengths, window);
                cases.push(Case {
                    concat: ClassConcat::from_instances(
                        first.iter().map(|&i| (i, train.series(i).values())),
                    ),
                    window,
                });
            }
        }
    }
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_sweeps || start.elapsed().as_secs_f64() < min_seconds {
        let t = Instant::now();
        for case in &cases {
            black_box(InstanceProfile::compute(
                black_box(&case.concat),
                case.window,
                config.metric,
            ));
        }
        times.push(t.elapsed().as_secs_f64());
    }
    ProfileBench {
        sweep_s: crate::stats::median(&times),
        cells: total_cells,
        sweeps: times.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_count_ordered_pairs_of_windows() {
        // Two instances of 10 points, window 4: 7 windows each, 2 ordered pairs.
        assert_eq!(cells(&[10, 10], 4), 2 * 7 * 7);
        // Three instances: 6 ordered pairs.
        assert_eq!(cells(&[10, 10, 10], 4), 6 * 7 * 7);
        // Unequal lengths: 7×3 + 3×7.
        assert_eq!(cells(&[10, 6], 4), 42);
        // An instance shorter than the window takes part in no pair.
        assert_eq!(cells(&[10, 3], 4), 0);
    }
}
