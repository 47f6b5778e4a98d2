//! Micro-benchmark of the instance-profile join (`InstanceProfile::compute`,
//! Definitions 8–9) against the ordered-pair reference it replaced: one
//! `MatrixProfile::ab_join` per ordered instance pair, the per-window
//! minimum over partners. Writes `results/BENCH_profile.json` (consumed by
//! the README's Performance section and uploaded as a CI artifact).
//!
//! ```sh
//! cargo run -p ips-bench --release --bin bench_profile
//! ```
//!
//! Geometries: a class sample of `Q_S = 5` instances of length `n` ∈
//! {24, 128, 251, 277} at every window of the default length grid
//! (`IpsConfig::lengths_for`), both metrics. The cost unit is the logical
//! cell — ordered instance pairs × windows × windows, summed over the grid
//! (the repository benchmark's `profile.cells`) — so a join that walks each
//! unordered pair once shows as fewer ns per cell, not fewer cells.
//!
//! Before any timing, every profile value of `compute` is checked bitwise
//! against the reference. Timings are per-arm minima over short samples
//! (one call each), the two arms interleaved and the order rotated per
//! rep, folded across several passes over the grid (see `bench_kernel` for
//! why minima of short interleaved samples are the noise-robust estimator
//! on a shared machine).

use std::fmt::Write as _;
use std::time::Instant;

use ips_bench::wandering_series as series;
use ips_core::IpsConfig;
use ips_profile::{InstanceProfile, MatrixProfile, Metric};
use ips_tsdata::ClassConcat;

/// Instances per class sample (`Q_S`).
const SAMPLE: usize = 5;

/// The ordered-pair instance profile values, in start order: per window of
/// each instance, the minimum over every other instance (in order, strict
/// `<`) of `MatrixProfile::ab_join`.
fn ordered_pair_reference(cc: &ClassConcat, window: usize, metric: Metric) -> Vec<f64> {
    let values = cc.values();
    let slices: Vec<&[f64]> = (0..cc.num_instances())
        .map(|k| {
            let (start, len, _) = cc.segment(k);
            &values[start..start + len]
        })
        .filter(|s| window > 0 && s.len() >= window)
        .collect();
    let mut out = Vec::new();
    for (ai, a) in slices.iter().enumerate() {
        let mut best = vec![f64::INFINITY; a.len() - window + 1];
        for (_, b) in slices.iter().enumerate().filter(|&(bi, _)| bi != ai) {
            let mp = MatrixProfile::ab_join(a, b, window, metric);
            for (slot, &v) in best.iter_mut().zip(mp.values()) {
                if v < *slot {
                    *slot = v;
                }
            }
        }
        out.extend(best);
    }
    out
}

/// Logical distance-matrix cells of one profile: ordered pairs of
/// instances × windows × windows.
fn cells(lengths: &[usize], window: usize) -> u64 {
    let windows: Vec<u64> = lengths
        .iter()
        .filter(|&&n| window > 0 && n >= window)
        .map(|&n| (n - window + 1) as u64)
        .collect();
    let total: u64 = windows.iter().sum();
    windows.iter().map(|w| w * (total - w)).sum()
}

/// Seconds of one call of `f`.
fn sample_s<F: FnMut()>(f: &mut F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// One output row: a (metric, series length) geometry over its whole
/// length grid.
struct Row {
    metric: Metric,
    n: usize,
    sample: ClassConcat,
    windows: Vec<usize>,
    cells: u64,
    /// Per-window minimum seconds, `[reference, compute]`.
    best: Vec<[f64; 2]>,
}

impl Row {
    fn metric_name(&self) -> &'static str {
        match self.metric {
            Metric::ZNormEuclidean => "znorm",
            Metric::MeanSquared => "mean_sq",
        }
    }

    /// ns per logical cell of one arm, its per-window minima summed.
    fn ns_per_cell(&self, arm: usize) -> f64 {
        self.best.iter().map(|b| b[arm]).sum::<f64>() * 1e9 / self.cells as f64
    }
}

fn main() {
    let lengths = [24usize, 128, 251, 277];
    let passes = 3;
    let reps = 10;
    let config = IpsConfig::default();

    let mut rows: Vec<Row> = Vec::new();
    for metric in [Metric::ZNormEuclidean, Metric::MeanSquared] {
        for &n in &lengths {
            let instances: Vec<Vec<f64>> = (0..SAMPLE)
                .map(|k| series(n, 0x1B5_u64 + (n * SAMPLE + k) as u64))
                .collect();
            let sample = ClassConcat::from_instances(
                instances.iter().enumerate().map(|(k, v)| (k, v.as_slice())),
            );
            let windows = config.lengths_for(n);
            for &w in &windows {
                let got = InstanceProfile::compute(&sample, w, metric).values();
                let want = ordered_pair_reference(&sample, w, metric);
                assert!(
                    got.len() == want.len()
                        && got
                            .iter()
                            .zip(&want)
                            .all(|(g, r)| g.to_bits() == r.to_bits()),
                    "compute diverges from the ordered-pair reference: {metric:?} n={n} w={w}"
                );
            }
            let lens = [n; SAMPLE];
            rows.push(Row {
                metric,
                n,
                sample,
                cells: windows.iter().map(|&w| cells(&lens, w)).sum(),
                best: vec![[f64::INFINITY; 2]; windows.len()],
                windows,
            });
        }
    }

    for _ in 0..passes {
        for row in &mut rows {
            let (sample, metric) = (&row.sample, row.metric);
            for (&w, best) in row.windows.iter().zip(&mut row.best) {
                let mut run_reference = || {
                    std::hint::black_box(ordered_pair_reference(sample, w, metric));
                };
                let mut run_compute = || {
                    std::hint::black_box(InstanceProfile::compute(sample, w, metric));
                };
                for rep in 0..reps {
                    for arm in [rep % 2, 1 - rep % 2] {
                        let s = match arm {
                            0 => sample_s(&mut run_reference),
                            _ => sample_s(&mut run_compute),
                        };
                        best[arm] = best[arm].min(s);
                    }
                }
            }
        }
    }

    println!("instance-profile join, {SAMPLE}-instance samples, default length grid\n");
    println!(
        "{:<8} {:>5} {:>12} {:>14} {:>13} {:>8}",
        "metric", "n", "cells", "reference ns", "compute ns", "speedup"
    );
    for r in &rows {
        println!(
            "{:<8} {:>5} {:>12} {:>14.2} {:>13.2} {:>7.2}x",
            r.metric_name(),
            r.n,
            r.cells,
            r.ns_per_cell(0),
            r.ns_per_cell(1),
            r.ns_per_cell(0) / r.ns_per_cell(1)
        );
    }

    // hand-rolled JSON: the workspace deliberately carries no serde
    let mut json = String::from("{\n  \"bench\": \"profile\",\n");
    let _ = write!(
        json,
        "  \"instances\": {SAMPLE},\n  \"unit\": \"ns_per_logical_cell\",\n  \
         \"timing\": \"sum_over_windows_of_min_of_{passes}x{reps}_interleaved_calls\",\n  \
         \"cases\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let windows: Vec<String> = r.windows.iter().map(|w| w.to_string()).collect();
        let _ = writeln!(
            json,
            "    {{\"metric\": \"{}\", \"n\": {}, \"windows\": [{}], \"cells\": {}, \
             \"reference_ns_per_cell\": {:.3}, \"compute_ns_per_cell\": {:.3}, \
             \"speedup\": {:.2}}}{}",
            r.metric_name(),
            r.n,
            windows.join(", "),
            r.cells,
            r.ns_per_cell(0),
            r.ns_per_cell(1),
            r.ns_per_cell(0) / r.ns_per_cell(1),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_profile.json", &json).expect("write BENCH_profile.json");
    println!("\nwrote results/BENCH_profile.json");
}
