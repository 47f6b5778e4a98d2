//! Shared infrastructure for the table/figure reproduction harnesses.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` (see `DESIGN.md` §3 for the index); this library holds
//! the pieces they share: timed method runners, published constants
//! ([`published`]), dataset subsets, and plain-text table formatting.

pub mod published;

use std::time::Instant;

use ips_baselines::{
    BaseClassifier, BaseConfig, BspCoverClassifier, BspCoverConfig, FastShapeletsClassifier,
    FastShapeletsConfig, LtsClassifier, LtsConfig, SdClassifier, SdConfig, StClassifier, StConfig,
};
use ips_classify::forest::{ForestParams, RotationForest};
use ips_classify::{OneNnDtw, OneNnEd};
use ips_core::ensemble::{CoteIpsEnsemble, EnsembleConfig};
use ips_core::{IpsClassifier, IpsConfig};
use ips_tsdata::Dataset;

/// Accuracy (fraction) and wall-clock fit+discovery time of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Seconds spent fitting (discovery + classifier training).
    pub fit_seconds: f64,
}

/// The harness-wide IPS configuration: the paper's grid values
/// `Q_N = 20`, `Q_S = 5` and `k = 5`.
pub fn ips_config() -> IpsConfig {
    IpsConfig::default().with_sampling(20, 5)
}

/// Accuracy of IPS averaged over `runs` random-sampling seeds — the
/// paper's protocol ("the results of IPS … are the mean values of 5
/// runs"). Timing is the mean fit time.
pub fn run_ips_avg(train: &Dataset, test: &Dataset, cfg: IpsConfig, runs: usize) -> RunResult {
    let runs = runs.max(1);
    let mut acc = 0.0;
    let mut secs = 0.0;
    for r in 0..runs {
        let c = cfg
            .clone()
            .with_seed(cfg.seed.wrapping_add(r as u64 * 0x9E37));
        let one = run_ips(train, test, c);
        acc += one.accuracy;
        secs += one.fit_seconds;
    }
    RunResult {
        accuracy: acc / runs as f64,
        fit_seconds: secs / runs as f64,
    }
}

/// Fits and scores IPS.
pub fn run_ips(train: &Dataset, test: &Dataset, cfg: IpsConfig) -> RunResult {
    let t = Instant::now();
    let model = IpsClassifier::fit(train, cfg).expect("IPS fit");
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores the MP BASE method.
pub fn run_base(train: &Dataset, test: &Dataset, cfg: BaseConfig) -> RunResult {
    let t = Instant::now();
    let model = BaseClassifier::fit(train, cfg);
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores the BSPCOVER-style comparator, with its candidate cap
/// scaled to the dataset (cap recorded in DESIGN.md §2).
pub fn run_bspcover(train: &Dataset, test: &Dataset, k: usize) -> RunResult {
    let cfg = BspCoverConfig {
        k,
        ..Default::default()
    };
    let t = Instant::now();
    let model = BspCoverClassifier::fit(train, cfg);
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores the Fast-Shapelets-style comparator.
pub fn run_fs(train: &Dataset, test: &Dataset) -> RunResult {
    let t = Instant::now();
    let model = FastShapeletsClassifier::fit(train, FastShapeletsConfig::default());
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores the ST-style comparator.
pub fn run_st(train: &Dataset, test: &Dataset) -> RunResult {
    let t = Instant::now();
    let model = StClassifier::fit(train, StConfig::default());
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores the SD-style comparator.
pub fn run_sd(train: &Dataset, test: &Dataset) -> RunResult {
    let t = Instant::now();
    let model = SdClassifier::fit(train, SdConfig::default());
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores the LTS-style comparator.
pub fn run_lts(train: &Dataset, test: &Dataset) -> RunResult {
    let t = Instant::now();
    let model = LtsClassifier::fit(train, LtsConfig::default());
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores a Rotation Forest over the raw series values (the
/// Table VI `RotF` comparator).
pub fn run_rotf(train: &Dataset, test: &Dataset) -> RunResult {
    let t = Instant::now();
    let x: Vec<Vec<f64>> = train
        .all_series()
        .iter()
        .map(|s| s.values().to_vec())
        .collect();
    let f = RotationForest::fit(&x, train.labels(), ForestParams::default());
    let fit_seconds = t.elapsed().as_secs_f64();
    let preds: Vec<u32> = test
        .all_series()
        .iter()
        .map(|s| f.predict(s.values()))
        .collect();
    RunResult {
        accuracy: ips_classify::eval::accuracy(&preds, test.labels()),
        fit_seconds,
    }
}

/// Fits and scores the COTE-IPS-style ensemble.
pub fn run_cote_ips(train: &Dataset, test: &Dataset, ips: IpsConfig) -> RunResult {
    let t = Instant::now();
    let cfg = EnsembleConfig {
        ips,
        ..Default::default()
    };
    let e = CoteIpsEnsemble::fit(train, cfg).expect("ensemble fit");
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: e.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores 1NN-ED.
pub fn run_1nn_ed(train: &Dataset, test: &Dataset) -> RunResult {
    let t = Instant::now();
    let model = OneNnEd::fit(train);
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// Fits and scores 1NN-DTW with a learned band.
pub fn run_1nn_dtw(train: &Dataset, test: &Dataset) -> RunResult {
    let t = Instant::now();
    let model = OneNnDtw::fit(train);
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: model.accuracy(test),
        fit_seconds,
    }
}

/// The small-dataset subset used by default in the long sweeps (Table IV /
/// Table VI run these in seconds; `--full` switches to all 46).
pub const QUICK_SUBSET: [&str; 15] = [
    "ArrowHead",
    "BeetleFly",
    "CBF",
    "Coffee",
    "ECG200",
    "ECGFiveDays",
    "GunPoint",
    "ItalyPowerDemand",
    "MoteStrain",
    "SonyAIBORobotSurface1",
    "SonyAIBORobotSurface2",
    "SyntheticControl",
    "ToeSegmentation1",
    "TwoLeadECG",
    "Wafer",
];

/// True when the CLI asked for the full 46-dataset sweep.
pub fn full_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Dataset names for a sweep binary: the quick subset, or Table IV's 46
/// under `--full`.
pub fn sweep_datasets() -> Vec<&'static str> {
    if full_requested() {
        ips_tsdata::registry::table4_names()
    } else {
        QUICK_SUBSET.to_vec()
    }
}

/// Formats one table row: a name column then fixed-width value columns.
pub fn row(name: &str, values: &[String]) -> String {
    let mut out = format!("{name:<28}");
    for v in values {
        out.push_str(&format!(" {v:>10}"));
    }
    out
}

/// Formats a ratio as `x.xx×` or `-` when the denominator is ~zero.
pub fn speedup(num: f64, den: f64) -> String {
    if den <= 1e-12 {
        "-".into()
    } else {
        format!("{:.2}x", num / den)
    }
}

/// Deterministic pseudo-random stream (splitmix64): benchmark inputs
/// must not depend on an RNG crate or wall-clock seeding.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn value(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
}

/// The microbenches' deterministic input: a random walk plus a slow
/// sinusoid, so windows have realistic non-stationary means (the regime
/// where z-normalization does real work).
pub fn wandering_series(n: usize, seed: u64) -> Vec<f64> {
    let mut g = Gen(seed);
    let mut level = 0.0;
    (0..n)
        .map(|i| {
            level += 0.3 * g.value();
            level + (i as f64 * 0.05).sin()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::registry;

    #[test]
    fn runners_produce_sane_results_on_a_tiny_dataset() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let cfg = IpsConfig::default().with_sampling(4, 3);
        for r in [run_ips(&train, &test, cfg), run_1nn_ed(&train, &test)] {
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert!(r.fit_seconds >= 0.0);
        }
    }

    #[test]
    fn published_tables_are_complete() {
        assert_eq!(published::TABLE6.len(), 46);
        assert_eq!(published::TABLE4.len(), 46);
        // Table VI and IV cover the same datasets in the same order
        for (a, b) in published::TABLE6.iter().zip(&published::TABLE4) {
            assert_eq!(a.dataset, b.dataset);
        }
        // every published dataset exists in the registry
        for r in &published::TABLE4 {
            assert!(
                ips_tsdata::registry::info(r.dataset).is_ok(),
                "{}",
                r.dataset
            );
        }
        // exactly one missing value (ELIS / NonInvasive)
        let nans: usize = published::TABLE6
            .iter()
            .map(|r| r.acc.iter().filter(|v| v.is_nan()).count())
            .sum();
        assert_eq!(nans, 1);
    }

    #[test]
    fn quick_subset_is_registered() {
        for n in QUICK_SUBSET {
            assert!(ips_tsdata::registry::info(n).is_ok(), "{n}");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert!(row("x", &["1".into(), "2".into()]).contains("x"));
        assert_eq!(speedup(10.0, 2.0), "5.00x");
        assert_eq!(speedup(1.0, 0.0), "-");
    }
}
