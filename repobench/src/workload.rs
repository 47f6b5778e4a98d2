//! Workload definitions and the fit, run either whole
//! (`IpsClassifier::fit`) or composed stage by stage from the layers'
//! public functions under spans.

use ips_classify::svm::SvmParams;
use ips_classify::{LinearSvm, ShapeletTransform};
use ips_core::engine::{DabfPruner, ProfileCandidateSource, UtilitySelector};
use ips_core::{
    CandidateSource, ExecContext, IpsClassifier, IpsConfig, IpsError, Pruner, Selector, WorkerPool,
};
use ips_distance::CacheStats;
use ips_tsdata::{registry, Dataset};

use crate::stats::Ratio;
use crate::trace::Tracer;

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["fit-dtcr", "fit-exact", "serve-closed"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 5;

/// Requests per admitted batch on the serving path.
pub const MAX_BATCH: usize = 32;

/// Where a workload's dataset comes from (all synthesized locally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `registry::load(name)`.
    Registry(&'static str),
    /// `registry::load_scaled(name, factor)`.
    Scaled(&'static str, usize),
}

impl Source {
    /// Display and model name, e.g. `ItalyPowerDemand_x10`.
    pub fn name(&self) -> String {
        match self {
            Source::Registry(n) => n.to_string(),
            Source::Scaled(n, f) => format!("{n}_x{f}"),
        }
    }

    /// Synthesizes the `(train, test)` split.
    pub fn load(&self) -> Result<(Dataset, Dataset), String> {
        match *self {
            Source::Registry(n) => registry::load(n),
            Source::Scaled(n, f) => registry::load_scaled(n, f),
        }
        .map_err(|e| format!("{}: {e}", self.name()))
    }
}

/// What a workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated passes that fit every dataset, then classify its test set.
    Fit,
    /// Models fitted once in set-up; a closed request loop over them.
    Serve,
}

/// One workload: its datasets and the fit configuration.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub name: String,
    /// What is measured.
    pub kind: Kind,
    /// Datasets, fitted and served in this order.
    pub datasets: Vec<Source>,
    /// Fit configuration (seed and thread count resolved).
    pub config: IpsConfig,
}

/// Worker threads of every fit and of the server. One, whatever the
/// machine: `WorkerPool` spawns its threads afresh on every call, so with
/// two threads on a two-vCPU machine each flush and each fit stage timed
/// thread spawns and whether the second vCPU was free, and serving
/// latency swung 2.6× between runs of the same code (see the README).
pub const THREADS: usize = 1;

/// The plan for a named workload. Every fit uses `IpsConfig`'s default
/// seed; the workload seed only orders the requests (see the README for
/// why the fit seed is not varied).
pub fn plan(workload: &str, threads: usize) -> Option<Plan> {
    let (kind, datasets, config) = match workload {
        "fit-dtcr" => (
            Kind::Fit,
            vec![
                Source::Registry("ArrowHead"),
                Source::Registry("ToeSegmentation1"),
            ],
            IpsConfig::default(),
        ),
        "fit-exact" => {
            let mut config = IpsConfig::default().with_sampling(6, 2);
            config.use_dt_cr = false;
            (
                Kind::Fit,
                vec![
                    Source::Scaled("ItalyPowerDemand", 10),
                    Source::Registry("TwoPatterns"),
                ],
                config,
            )
        }
        "serve-closed" => (
            Kind::Serve,
            vec![
                Source::Registry("ItalyPowerDemand"),
                Source::Registry("CBF"),
                Source::Registry("ArrowHead"),
            ],
            IpsConfig::default(),
        ),
        _ => return None,
    };
    Some(Plan {
        name: workload.to_string(),
        kind,
        datasets,
        config: config.with_threads(threads),
    })
}

/// A fitted shapelet transform and SVM head — what `IpsClassifier` holds.
#[derive(Debug, Clone)]
pub struct Composed {
    /// The transform over the selected shapelets.
    pub transform: ShapeletTransform,
    /// The SVM trained on the transformed training set.
    pub svm: LinearSvm,
}

impl Composed {
    /// Predicts every test series exactly as `IpsClassifier::predict` does.
    pub fn predict_all(&self, test: &Dataset) -> Vec<u32> {
        test.all_series()
            .iter()
            .map(|s| self.svm.predict(&self.transform.transform_one(s)))
            .collect()
    }
}

/// Work counters of one composed fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitCounts {
    /// Candidates produced by generation.
    pub candidates_out: usize,
    /// Candidates removed by pruning, of those entering it.
    pub pruned: Ratio,
    /// Filter membership queries.
    pub dabf_probes: usize,
    /// Utility evaluations in selection.
    pub utility_evals: usize,
    /// Distance-cache work over selection and the training transform.
    pub cache: CacheStats,
}

impl FitCounts {
    /// Field-wise sum.
    pub fn merge(&mut self, other: FitCounts) {
        self.candidates_out += other.candidates_out;
        self.pruned.merge(other.pruned);
        self.dabf_probes += other.dabf_probes;
        self.utility_evals += other.utility_evals;
        self.cache.merge(&other.cache);
    }
}

/// `IpsClassifier::fit` split at the layer boundaries: generation,
/// pruning and selection in turn on one `ExecContext`, then the training
/// transform and the SVM — each call under its own span. It follows the
/// stages `Engine::from_config` picks for the workloads' configurations
/// (dense candidates, DABF pruning, the FFT kernel); for any other
/// configuration the composition check reports the difference.
pub fn fit_composed(
    train: &Dataset,
    config: &IpsConfig,
    tracer: &mut Tracer,
) -> Result<(Composed, FitCounts), IpsError> {
    config.validate()?;
    train.validate()?;
    if train.num_classes() < 2 {
        return Err(IpsError::InvalidTrainingSet(
            "need at least two classes".into(),
        ));
    }
    let source = ProfileCandidateSource::new(config.clone());
    let pruner = DabfPruner::new(config.clone());
    let selector = UtilitySelector::new(config.clone());
    let mut ctx = ExecContext::new(WorkerPool::new(config.num_threads));

    let mut pool = tracer.span("core.generate", || source.generate(train, &mut ctx))?;
    if pool.is_empty() {
        return Err(IpsError::NoCandidates);
    }
    let candidates_out = pool.len();
    let outcome = tracer.span("core.prune", || pruner.prune(&mut pool, &mut ctx))?;
    let selection = tracer.span("core.select", || {
        selector.select(&pool, train, outcome.dabf.as_ref(), &mut ctx)
    })?;
    if selection.shapelets.is_empty() {
        return Err(IpsError::NoCandidates);
    }

    let transform = ShapeletTransform::new(selection.shapelets, config.znorm_transform);
    let mut cache = ctx.take_dist_cache();
    let features = tracer.span("classify.transform", || {
        transform.transform_with_cache(train, &mut cache)
    });
    let params = SvmParams {
        seed: config.seed,
        ..SvmParams::default()
    };
    let svm = tracer.span("classify.svm_fit", || {
        LinearSvm::fit(&features, train.labels(), params)
    });
    let counts = FitCounts {
        candidates_out,
        pruned: Ratio::pruned(outcome.pruned, candidates_out),
        dabf_probes: outcome.probes,
        utility_evals: selection.utility_evals,
        cache: cache.stats(),
    };
    Ok((Composed { transform, svm }, counts))
}

/// The reference fit: `IpsClassifier::fit` as a user calls it.
pub fn fit_reference(train: &Dataset, config: &IpsConfig) -> Result<IpsClassifier, IpsError> {
    IpsClassifier::fit(train, config.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_a_plan() {
        for w in WORKLOADS {
            let p = plan(w, 2).expect("named workload");
            assert_eq!(p.config.num_threads, 2);
            assert_eq!(p.config.seed, IpsConfig::default().seed);
            assert!(!p.datasets.is_empty());
        }
        assert!(plan("nope", 1).is_none());
        assert!(!plan("fit-exact", 1).unwrap().config.use_dt_cr);
    }

    #[test]
    fn composition_predicts_what_the_classifier_predicts() {
        let (train, test) = Source::Registry("ItalyPowerDemand").load().unwrap();
        let config = IpsConfig::default()
            .with_sampling(4, 3)
            .with_k(3)
            .with_threads(2);
        let reference = fit_reference(&train, &config).unwrap();
        let mut tracer = Tracer::new(true);
        let (composed, counts) = fit_composed(&train, &config, &mut tracer).unwrap();
        assert_eq!(composed.predict_all(&test), reference.predict_all(&test));
        assert_eq!(
            counts.candidates_out,
            reference.discovery().candidates_generated
        );
        assert_eq!(
            counts.pruned.part as usize,
            reference.discovery().candidates_pruned
        );
        assert_eq!(tracer.count("core.generate"), 1);
        assert_eq!(tracer.count("classify.svm_fit"), 1);
    }
}
